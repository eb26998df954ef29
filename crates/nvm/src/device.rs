//! The emulated NVM device: page store, MMU, timing, crash injection.

use trio_sim::plock::Mutex;
use trio_sim::race::RaceDetector;
use trio_sim::{in_sim, work, DetHashSet, Nanos};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use crate::fault::{CrashReport, FaultPlan};
use crate::perf::{BandwidthModel, NodeLoad};
use crate::persist::PersistTracker;
use crate::prot::{ActorId, PagePerm, PageProt, ProtError, KERNEL_ACTOR};
use crate::sanitize::SanitizeReport;
use crate::topology::{lines_covering, NodeId, PageId, Topology, CACHE_LINE, PAGE_SIZE};

/// Cost of an `sfence` after flushing.
pub(crate) const SFENCE_NS: Nanos = 30;

/// Cost per `clwb` of one cache line (overlapped; the sustained-write
/// bandwidth model already covers the media cost).
pub(crate) const CLWB_LINE_NS: Nanos = 8;

/// Page slots per lazily built chunk: 512 slots cover 2 MiB of device.
const SLOT_CHUNK: usize = 512;

/// Device construction parameters.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// NUMA geometry.
    pub topology: Topology,
    /// Latency/bandwidth model.
    pub model: BandwidthModel,
    /// Record dirty cache lines for crash injection (slower; tests only).
    pub track_persistence: bool,
}

impl DeviceConfig {
    /// A small single-node device for unit tests.
    pub fn small() -> Self {
        DeviceConfig {
            topology: Topology::new(1, 4096),
            model: BandwidthModel::default(),
            track_persistence: false,
        }
    }

    /// The paper-shaped geometry: 8 NUMA nodes. `pages_per_node` is chosen
    /// by the experiment (capacity is DRAM-bounded).
    pub fn eight_node(pages_per_node: usize) -> Self {
        DeviceConfig {
            topology: Topology::new(8, pages_per_node),
            model: BandwidthModel::default(),
            track_persistence: false,
        }
    }
}

#[derive(Default)]
struct PageSlot {
    /// The page's written prefix, in whole cache lines; every byte past it
    /// reads as zero, and `None` (no store yet) is the empty prefix. A
    /// store grows it ([`PageSlot::store`]), a read never does
    /// ([`PageSlot::load`]), so a page costs the lines up to its last
    /// store, not 4 KiB.
    data: Option<Box<[u8]>>,
    prot: PageProt,
    /// Data checksum recorded by a delegation worker's streaming write pass
    /// (DESIGN.md §17), valid only while the page still holds exactly the
    /// bytes that pass wrote. Kernel-maintained volatile metadata, like the
    /// MMU table: any ordinary store, restore, scrub, or crash invalidates
    /// it, and the verifier only checks pages whose sidecar is present.
    csum: Option<u64>,
}

/// What a page in an unbuilt chunk reads as: zeros, no mapping, no
/// checksum.
static EMPTY_SLOT: PageSlot = PageSlot { data: None, prot: PageProt::EMPTY, csum: None };

/// What a page reads as past its written prefix.
static ZEROS: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// [`SLOT_CHUNK`] page slots, built by the first store into one of them.
type SlotChunk = OnceLock<Box<[Mutex<PageSlot>]>>;

impl PageSlot {
    /// The written prefix.
    fn written(&self) -> &[u8] {
        self.data.as_deref().unwrap_or_default()
    }

    /// The one store rule: writes `bytes` at `off`, first growing the
    /// written prefix to cover them. It grows by doubling, in whole lines,
    /// up to `PAGE_SIZE`, so a page filled line by line reallocates a
    /// handful of times, not once per line. A full-page store into a short
    /// prefix takes the bytes as they are, without zero-filling first; a
    /// store the prefix already covers copies in place.
    fn store(&mut self, off: usize, bytes: &[u8]) {
        let (end, have) = (off + bytes.len(), self.written().len());
        if end > have {
            if off == 0 && end == PAGE_SIZE {
                self.data = Some(bytes.into());
                return;
            }
            let len = end.next_multiple_of(CACHE_LINE).max(2 * have).min(PAGE_SIZE);
            let mut grown = Vec::with_capacity(len);
            grown.extend_from_slice(self.written());
            grown.resize(len, 0);
            self.data = Some(grown.into_boxed_slice());
        }
        self.data.get_or_insert_default()[off..end].copy_from_slice(bytes);
    }

    /// Fills `buf` with the page's bytes at `off`: the prefix's, then
    /// zeros. A read that starts past the prefix is all zeros.
    fn load(&self, off: usize, buf: &mut [u8]) {
        let written = self.written().get(off..).unwrap_or_default();
        let have = written.len().min(buf.len());
        buf[..have].copy_from_slice(&written[..have]);
        buf[have..].fill(0);
    }

    /// One byte of the page.
    fn byte(&self, off: usize) -> u8 {
        self.written().get(off).copied().unwrap_or(0)
    }

    /// The whole page: the prefix, then zeros.
    fn image(&self) -> Box<[u8]> {
        let mut img = Vec::with_capacity(PAGE_SIZE);
        img.extend_from_slice(self.written());
        img.resize(PAGE_SIZE, 0);
        img.into_boxed_slice()
    }
}

/// The emulated device. Unprivileged code accesses it through
/// [`crate::NvmHandle`]; the kernel controller uses the privileged methods
/// directly.
pub struct NvmDevice {
    topo: Topology,
    model: BandwidthModel,
    /// Page slots in chunks of [`SLOT_CHUNK`]. Only a store into one of a
    /// chunk's pages builds it; a read of a page in an unbuilt chunk
    /// answers from [`EMPTY_SLOT`], and a sweep skips the chunk.
    slots: Box<[SlotChunk]>,
    loads: Vec<Mutex<NodeLoad>>,
    tracker: Option<PersistTracker>,
    /// Optional cross-actor race detector (see [`trio_sim::race`]); when
    /// installed, every page access is reported with its cache-line span.
    /// Absent on the hot path: one pointer load.
    race: OnceLock<Arc<RaceDetector>>,
    /// Poisoned (uncorrectable) cache lines; reads overlapping one fault
    /// with [`ProtError::Poisoned`]. A store covering a whole line repairs
    /// it, as writing a full line does on real PM.
    poisoned: Mutex<DetHashSet<(u64, u16)>>,
    /// Fast-path poison count so the un-injected hot path is one relaxed
    /// load, not a lock acquisition.
    poison_count: AtomicUsize,
}

impl NvmDevice {
    /// Builds a device. Memory is committed lazily: page contents as each
    /// page's written prefix, in whole cache lines up to its last store,
    /// and page slots (mappings, checksum) per chunk of [`SLOT_CHUNK`]
    /// pages on the first store into one of them. A device costs what was
    /// stored into, plus one empty cell per chunk; a read builds nothing.
    pub fn new(config: DeviceConfig) -> Self {
        let chunks = (config.topology.total_pages() as usize).div_ceil(SLOT_CHUNK);
        NvmDevice {
            topo: config.topology,
            model: config.model,
            slots: (0..chunks).map(|_| OnceLock::new()).collect(),
            loads: (0..config.topology.nodes).map(|_| Mutex::new(NodeLoad::default())).collect(),
            tracker: config.track_persistence.then(PersistTracker::new),
            race: OnceLock::new(),
            poisoned: Mutex::new(DetHashSet::default()),
            poison_count: AtomicUsize::new(0),
        }
    }

    /// Device geometry.
    pub fn topology(&self) -> Topology {
        self.topo
    }

    /// The timing model in force.
    pub fn model(&self) -> &BandwidthModel {
        &self.model
    }

    /// `page`'s slot index, if the device has that page.
    fn index(&self, page: PageId) -> Result<usize, ProtError> {
        if page.0 < self.topo.total_pages() {
            Ok(page.0 as usize)
        } else {
            Err(ProtError::OutOfRange)
        }
    }

    /// `page`'s slot, building its chunk first if no store has: for paths
    /// that store into the slot.
    fn slot(&self, page: PageId) -> Result<&Mutex<PageSlot>, ProtError> {
        let i = self.index(page)?;
        let (c, first) = (i / SLOT_CHUNK, i / SLOT_CHUNK * SLOT_CHUNK);
        let end = (self.topo.total_pages() as usize).min(first + SLOT_CHUNK);
        let chunk = self.slots[c].get_or_init(|| (first..end).map(|_| Mutex::default()).collect());
        Ok(&chunk[i - first])
    }

    /// `page`'s slot if a store has built its chunk, `None` if not.
    fn built(&self, page: PageId) -> Result<Option<&Mutex<PageSlot>>, ProtError> {
        let i = self.index(page)?;
        Ok(self.slots[i / SLOT_CHUNK].get().map(|chunk| &chunk[i % SLOT_CHUNK]))
    }

    /// Runs `read` on `page`'s slot under its lock, or on [`EMPTY_SLOT`]
    /// when its chunk is unbuilt: a read builds nothing.
    fn peek<R>(&self, page: PageId, read: impl FnOnce(&PageSlot) -> R) -> Result<R, ProtError> {
        Ok(match self.built(page)? {
            Some(slot) => read(&slot.lock()),
            None => read(&EMPTY_SLOT),
        })
    }

    /// Every slot of every built chunk with its page, in page order: all a
    /// whole-device sweep has to visit.
    fn built_slots(&self) -> impl Iterator<Item = (PageId, &Mutex<PageSlot>)> {
        let built = self.slots.iter().enumerate().filter_map(|(c, chunk)| Some((c, chunk.get()?)));
        built.flat_map(|(c, chunk)| {
            let first = c * SLOT_CHUNK;
            chunk.iter().enumerate().map(move |(i, slot)| (PageId((first + i) as u64), slot))
        })
    }

    /// Chunks of page slots built so far. For diagnostics and tests only:
    /// no behaviour depends on it.
    pub fn resident_slot_chunks(&self) -> usize {
        self.slots.iter().filter(|chunk| chunk.get().is_some()).count()
    }

    /// Page-content bytes held, summed over every page's written prefix.
    /// For diagnostics and tests only: no behaviour depends on it.
    pub fn resident_page_bytes(&self) -> usize {
        self.built_slots().map(|(_, slot)| slot.lock().written().len()).sum()
    }

    /// Charges virtual time for moving `bytes` at `node`, sampling the
    /// node's concurrency level. Public so multi-page extent operations can
    /// charge once per node-contiguous run instead of per page.
    pub fn charge_transfer(&self, node: NodeId, bytes: usize, is_write: bool, home: NodeId) {
        if !in_sim() || bytes == 0 {
            return;
        }
        let k = self.loads[node].lock().enter(is_write);
        let ns = self.model.transfer_ns(bytes, k, is_write, node != home);
        work(ns);
        self.loads[node].lock().exit(is_write);
    }

    /// Current same-kind accessor count on `node` — the load signal the
    /// adaptive delegation policy reads before routing an access. A cheap
    /// sampled observation, not a reservation: the level can change the
    /// moment the lock drops.
    pub fn node_load_level(&self, node: NodeId, is_write: bool) -> u32 {
        self.loads[node].lock().level(is_write)
    }

    /// Copies out of a page with a permission check, without charging time
    /// (the caller charges per extent). `off + buf.len()` must fit the page.
    pub(crate) fn copy_from_page(
        &self,
        actor: ActorId,
        page: PageId,
        off: usize,
        buf: &mut [u8],
    ) -> Result<(), ProtError> {
        if off + buf.len() > PAGE_SIZE {
            return Err(ProtError::OutOfRange);
        }
        self.peek(page, |slot| {
            slot.prot.check(actor, false)?;
            self.poison_check_read(page, off, buf.len())?;
            if let Some(t) = &self.tracker {
                t.recovery_read_check(page, off, buf.len());
            }
            self.race_check(actor, page, off, buf.len(), false);
            slot.load(off, buf);
            Ok(())
        })?
    }

    /// Copies into a page with a permission check, without charging time.
    pub(crate) fn copy_to_page(
        &self,
        actor: ActorId,
        page: PageId,
        off: usize,
        data: &[u8],
    ) -> Result<(), ProtError> {
        self.copy_to_page_csum(actor, page, off, data, None)
    }

    /// [`Self::copy_to_page`] that additionally records (or, with `None`,
    /// invalidates) the page's integrity sidecar atomically under the slot
    /// lock, so a concurrent writer can never leave a stale checksum
    /// describing someone else's bytes. `Some` requires a full-page store —
    /// the checksum covers the whole page, so a partial store cannot vouch
    /// for bytes it did not write.
    pub(crate) fn copy_to_page_csum(
        &self,
        actor: ActorId,
        page: PageId,
        off: usize,
        data: &[u8],
        csum: Option<u64>,
    ) -> Result<(), ProtError> {
        if off + data.len() > PAGE_SIZE {
            return Err(ProtError::OutOfRange);
        }
        debug_assert!(
            csum.is_none() || (off == 0 && data.len() == PAGE_SIZE),
            "checksum sidecar requires a full-page store"
        );
        let mut slot = self.slot(page)?.lock();
        slot.prot.check(actor, true)?;
        self.poison_check_write(page, off, data.len())?;
        self.race_check(actor, page, off, data.len(), true);
        if let Some(t) = &self.tracker {
            t.record_store_data(page, off, data, slot.written());
        }
        slot.store(off, data);
        slot.csum = csum;
        Ok(())
    }

    /// The integrity sidecar recorded for `page`, if still valid.
    /// Privileged (verifier walk).
    pub fn page_csum(&self, page: PageId) -> Result<Option<u64>, ProtError> {
        self.peek(page, |slot| slot.csum)
    }

    /// Installs a cross-actor race detector. Returns `false` (and leaves
    /// the existing detector in place) if one was already installed.
    pub fn set_race_detector(&self, d: Arc<RaceDetector>) -> bool {
        self.race.set(d).is_ok()
    }

    /// Reports an access to the installed race detector, if any, one cache
    /// line at a time. Runs under the page-slot lock, so for a given line
    /// the detector observes accesses in a deterministic (virtual-time)
    /// order.
    #[inline]
    fn race_check(&self, actor: ActorId, page: PageId, off: usize, len: usize, is_write: bool) {
        if let Some(rd) = self.race.get() {
            for line in lines_covering(off, len) {
                rd.on_access(page.0, line as u16, is_write, actor.0 as u64);
            }
        }
    }

    /// Fails a read overlapping any poisoned line.
    fn poison_check_read(&self, page: PageId, off: usize, len: usize) -> Result<(), ProtError> {
        if len == 0 || self.poison_count.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        let set = self.poisoned.lock();
        for line in lines_covering(off, len) {
            if set.contains(&(page.0, line as u16)) {
                return Err(ProtError::Poisoned);
            }
        }
        Ok(())
    }

    /// A store that fully covers a poisoned line repairs it; one that only
    /// partially covers it would have to read-modify-write the bad line, so
    /// it faults instead. Checks everything before repairing anything.
    fn poison_check_write(&self, page: PageId, off: usize, len: usize) -> Result<(), ProtError> {
        if len == 0 || self.poison_count.load(Ordering::Relaxed) == 0 {
            return Ok(());
        }
        let mut set = self.poisoned.lock();
        let mut repaired = Vec::new();
        for line in lines_covering(off, len) {
            if set.contains(&(page.0, line as u16)) {
                let covered = off <= line * CACHE_LINE && (line + 1) * CACHE_LINE <= off + len;
                if !covered {
                    return Err(ProtError::Poisoned);
                }
                repaired.push(line as u16);
            }
        }
        for line in repaired {
            set.remove(&(page.0, line));
            self.poison_count.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Timed single-page read.
    pub fn read(
        &self,
        actor: ActorId,
        home: NodeId,
        page: PageId,
        off: usize,
        buf: &mut [u8],
    ) -> Result<(), ProtError> {
        // Fault before paying the media cost, as a real MMU would.
        self.peek(page, |slot| slot.prot.check(actor, false))??;
        self.charge_transfer(self.topo.node_of(page), buf.len(), false, home);
        self.copy_from_page(actor, page, off, buf)
    }

    /// Timed single-page write.
    pub fn write(
        &self,
        actor: ActorId,
        home: NodeId,
        page: PageId,
        off: usize,
        data: &[u8],
    ) -> Result<(), ProtError> {
        self.peek(page, |slot| slot.prot.check(actor, true))??;
        self.charge_transfer(self.topo.node_of(page), data.len(), true, home);
        self.copy_to_page(actor, page, off, data)
    }

    /// 8-byte atomic read (used for inode fields, index slots).
    pub fn read_u64(&self, actor: ActorId, page: PageId, off: usize) -> Result<u64, ProtError> {
        if !off.is_multiple_of(8) {
            return Err(ProtError::Misaligned);
        }
        let mut b = [0u8; 8];
        self.copy_from_page(actor, page, off, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Re-checks every range of a typed witness against the tracker: a
    /// line not yet durable records a `publish-before-persist` hazard.
    pub(crate) fn sanitize_assert_spans(&self, deps: &dyn crate::typestate::Spans) {
        if let Some(t) = &self.tracker {
            deps.for_each(&mut |dp, doff, dlen| t.assert_durable(dp, doff, dlen));
        }
    }

    /// Re-checks a range an [`crate::NvmHandle::assume_durable`] caller
    /// claims is durable: every covered line that is not actually durable
    /// records a `publish-before-persist` hazard, so a forged witness is
    /// caught by the same oracle as a raw early publish.
    pub fn sanitize_assert_durable(&self, page: PageId, off: usize, len: usize) {
        if let Some(t) = &self.tracker {
            t.assert_durable(page, off, len);
        }
    }

    /// `clwb` of the lines covering the range: stages them for the next
    /// [`Self::fence`] (durability advances at the fence, not here) and
    /// charges the (small) flush cost.
    pub fn flush(&self, page: PageId, off: usize, len: usize) {
        let lines = self.stage(page, off, len);
        if in_sim() {
            work(lines * CLWB_LINE_NS);
        }
    }

    /// The staging half of [`Self::flush`]: stages the lines covering the
    /// range for the next fence and returns how many it staged, charging
    /// nothing. Their `clwb` cost is [`Self::fence_staged`]'s to charge.
    pub(crate) fn stage(&self, page: PageId, off: usize, len: usize) -> u64 {
        if let Some(t) = &self.tracker {
            t.flush(page, off, len);
        }
        lines_covering(off, len).len() as u64
    }

    /// `sfence`: retires all staged write-backs, making flushed lines
    /// durable for crash injection.
    pub fn fence(&self) {
        self.fence_staged(0);
    }

    /// `sfence` after `lines` cache lines [`Self::stage`]d since the
    /// caller's last sim point: retires them and charges their `clwb`s
    /// and the fence in one step, so a persist barrier is one sim point
    /// (DESIGN.md §2). The charge equals the per-range one only if no
    /// other sim point ran between the staging and this fence.
    pub(crate) fn fence_staged(&self, lines: u64) {
        if let Some(t) = &self.tracker {
            t.fence();
        }
        if in_sim() {
            work(lines * CLWB_LINE_NS + SFENCE_NS);
        }
    }

    // ---------------------------------------------------------------
    // Privileged interface (kernel controller / integrity verifier).
    // ---------------------------------------------------------------

    /// Programs the MMU: grants `actor` access to `page`. Privileged; the
    /// kernel charges [`trio_sim::cost::MMU_PROGRAM_PAGE_NS`] per call.
    pub fn mmu_map(&self, actor: ActorId, page: PageId, perm: PagePerm) -> Result<(), ProtError> {
        assert_ne!(actor, KERNEL_ACTOR, "kernel needs no mappings");
        self.slot(page)?.lock().prot.map(actor, perm);
        Ok(())
    }

    /// Revokes `actor`'s mapping of `page`.
    pub fn mmu_unmap(&self, actor: ActorId, page: PageId) -> Result<bool, ProtError> {
        Ok(self.built(page)?.is_some_and(|slot| slot.lock().prot.unmap(actor)))
    }

    /// Current permission of `actor` on `page`.
    pub fn mmu_perm(&self, actor: ActorId, page: PageId) -> Result<Option<PagePerm>, ProtError> {
        self.peek(page, |slot| slot.prot.perm_of(actor))
    }

    /// Every mapping on the device as `(page, actor, permission)`, in page
    /// order. Privileged: for the kernel's audit of its page tables against
    /// its books. One pass over the built slot chunks, so it costs what
    /// was ever stored into, not the device size.
    pub fn mappings(&self) -> Vec<(PageId, ActorId, PagePerm)> {
        let mut out = Vec::new();
        for (page, slot) in self.built_slots() {
            out.extend(slot.lock().prot.iter().map(|(a, perm)| (page, a, perm)));
        }
        out
    }

    /// Clears a page: drops contents (reads as zeros) and all mappings.
    /// Used when the kernel frees or re-allocates a page, so no data leaks
    /// across LibFSes.
    pub fn reset_page(&self, page: PageId) -> Result<(), ProtError> {
        self.reset_page_sparing(page, KERNEL_ACTOR).map(drop)
    }

    /// [`Self::reset_page`], except that `keep`'s mapping stays as it was:
    /// the frame changes hands *to* `keep`. Returns what `keep` holds on it.
    /// A page no store has built a slot for is already clear: only its
    /// poison is scrubbed.
    pub fn reset_page_sparing(
        &self,
        page: PageId,
        keep: ActorId,
    ) -> Result<Option<PagePerm>, ProtError> {
        let Some(slot) = self.built(page)? else {
            self.scrub_page(page);
            return Ok(None);
        };
        let mut slot = slot.lock();
        if let (Some(t), Some(d)) = (&self.tracker, slot.data.as_deref()) {
            // The disappearance of the old contents is itself a store, and a
            // scrub must be durable before the page is recycled: otherwise a
            // later crash would revert still-unflushed lines to the previous
            // owner's data (a security leak, and stale garbage in any file
            // that reuses the page without rewriting every line).
            t.record_store(page, 0, PAGE_SIZE, d);
            t.flush(page, 0, PAGE_SIZE);
            t.fence();
        }
        let kept = slot.prot.perm_of(keep);
        slot.data = None;
        slot.prot = PageProt::default();
        if let Some(perm) = kept {
            slot.prot.map(keep, perm);
        }
        slot.csum = None;
        self.scrub_page(page);
        Ok(kept)
    }

    /// Copies a whole page (checkpointing). Privileged. The image is always
    /// `PAGE_SIZE` bytes: the written prefix, then zeros, so callers read
    /// fixed offsets whatever the prefix's length.
    pub fn snapshot_page(&self, page: PageId) -> Result<Box<[u8]>, ProtError> {
        self.peek(page, PageSlot::image)
    }

    /// Restores a page image (rollback). Privileged; leaves mappings alone.
    pub fn restore_page(&self, page: PageId, image: &[u8]) -> Result<(), ProtError> {
        assert_eq!(image.len(), PAGE_SIZE);
        let mut slot = self.slot(page)?.lock();
        if let Some(t) = &self.tracker {
            t.record_store(page, 0, PAGE_SIZE, slot.written());
            // Rollback writes are made durable on the spot.
            t.flush(page, 0, PAGE_SIZE);
            t.fence();
        }
        slot.store(0, image);
        slot.csum = None;
        // A full-page restore rewrites every line, repairing media errors.
        self.scrub_page(page);
        Ok(())
    }

    /// Injects a crash: every line not durable (not yet fenced, or fenced
    /// only after an armed [`FaultPlan`] froze durability) is reverted to
    /// its pre-image. Only meaningful with `track_persistence`. The returned
    /// [`CrashReport`] is deterministic for a given sim seed and plan.
    pub fn crash(&self) -> CrashReport {
        let Some(t) = &self.tracker else {
            return CrashReport {
                lost_lines: 0,
                affected_pages: Vec::new(),
                points_seen: 0,
                crash_point: None,
            };
        };
        let (points_seen, crash_point) = (t.points_seen(), t.fired_at());
        // Sidecar checksums are volatile kernel metadata (like the MMU
        // table): reboot loses them all, and the verifier simply has no
        // sidecar to check until fresh delegated writes repopulate them.
        for (_, slot) in self.built_slots() {
            slot.lock().csum = None;
        }
        let lost = t.drain_for_crash();
        let mut affected_pages: Vec<PageId> = Vec::new();
        for (page, off, img) in &lost {
            if affected_pages.last() != Some(page) {
                affected_pages.push(*page); // Drain is sorted by (page, off).
            }
            if let Ok(slot) = self.slot(*page) {
                slot.lock().store(*off, img);
            }
        }
        CrashReport { lost_lines: lost.len(), affected_pages, points_seen, crash_point }
    }

    /// Drops every MMU mapping on the device (except nothing — the kernel
    /// actor never needs one). Recovery uses this to model the loss of all
    /// volatile page-table state at reboot. Visits only built slot chunks:
    /// it costs what was touched, not the device size.
    pub fn clear_mappings(&self) {
        for (_, slot) in self.built_slots() {
            slot.lock().prot = PageProt::default();
        }
    }

    /// Revokes **every** mapping `actor` holds, device-wide, and returns
    /// how many pages were unmapped. This is the quarantine hook: when the
    /// kernel confirms an integrity violation it pulls the offending
    /// LibFS's page tables in one sweep, so no further store can land
    /// anywhere — not even on pages the kernel's books say are clean.
    /// Visits only built slot chunks (an unbuilt one holds no mapping), so
    /// it costs what was touched, not the device size.
    pub fn revoke_actor(&self, actor: ActorId) -> usize {
        let mut revoked = 0;
        for (_, slot) in self.built_slots() {
            if slot.lock().prot.unmap(actor) {
                revoked += 1;
            }
        }
        revoked
    }

    /// Not-yet-durable (unfenced) line count; 0 when tracking is disabled.
    pub fn dirty_lines(&self) -> usize {
        self.tracker.as_ref().map(|t| t.dirty_lines()).unwrap_or(0)
    }

    // ---------------------------------------------------------------
    // Fault injection: always compiled, inert until one of these arms it.
    // ---------------------------------------------------------------

    /// Arms a crash plan on the persistence tracker.
    ///
    /// # Panics
    ///
    /// Panics if the device was built without `track_persistence` — an
    /// armed plan would silently never fire, which is a test bug.
    pub fn arm_crash_plan(&self, plan: FaultPlan) {
        self.tracker
            .as_ref()
            .expect("arm_crash_plan requires DeviceConfig::track_persistence")
            .arm(plan);
    }

    /// Persistence points observed so far (0 without tracking).
    pub fn persistence_points(&self) -> u64 {
        self.tracker.as_ref().map(|t| t.points_seen()).unwrap_or(0)
    }

    /// Fences observed so far, the subset of the persistence points that
    /// retire lines (0 without tracking): what an op's fence count is read
    /// from.
    pub fn fences_seen(&self) -> u64 {
        self.tracker.as_ref().map(|t| t.fences_seen()).unwrap_or(0)
    }

    /// Whether an armed crash plan has fired, and at which point.
    pub fn crash_plan_fired(&self) -> Option<u64> {
        self.tracker.as_ref().and_then(|t| t.fired_at())
    }

    /// Marks one cache line as an uncorrectable media error.
    pub fn poison_line(&self, page: PageId, line: u16) {
        debug_assert!((line as usize) < PAGE_SIZE / CACHE_LINE);
        // The count must move while the set lock is still held: dropping
        // the guard between `insert` and the counter update opens a window
        // where a concurrent `clear_poison` decrements first and the
        // counter transiently underflows (or drifts from the set length).
        let mut set = self.poisoned.lock();
        if set.insert((page.0, line)) {
            self.poison_count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Clears one poisoned line (e.g. after the file system rewrote it out
    /// of band). Returns whether it was poisoned.
    pub fn clear_poison(&self, page: PageId, line: u16) -> bool {
        let mut set = self.poisoned.lock();
        let removed = set.remove(&(page.0, line));
        if removed {
            self.poison_count.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Number of currently poisoned lines.
    pub fn poisoned_lines(&self) -> usize {
        self.poison_count.load(Ordering::Relaxed)
    }

    /// Exact length of the poison set (takes the lock). The patrol-scrub
    /// race test pins [`Self::poisoned_lines`] against this under
    /// concurrent poison/clear/scrub traffic.
    pub fn poison_set_len(&self) -> usize {
        self.poisoned.lock().len()
    }

    /// Flips one byte of `page` *without* touching the integrity sidecar,
    /// the persistence tracker, or the MMU — silent bit rot, the exact
    /// failure the checksum walk exists to catch. Test-only by
    /// construction: real corruption does not announce itself either.
    pub fn corrupt_for_test(&self, page: PageId, off: usize) -> Result<(), ProtError> {
        if off >= PAGE_SIZE {
            return Err(ProtError::OutOfRange);
        }
        let mut slot = self.slot(page)?.lock();
        let b = slot.byte(off) ^ 0x40;
        slot.store(off, &[b]);
        Ok(())
    }
}

/// Media-health probe surface for the patrol scrubber (DESIGN.md §19).
impl NvmDevice {
    /// Poisoned cache lines on `page`, sorted.
    pub fn page_poisoned_lines(&self, page: PageId) -> Vec<u16> {
        if self.poison_count.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        let set = self.poisoned.lock();
        let mut lines: Vec<u16> =
            set.iter().filter(|&&(p, _)| p == page.0).map(|&(_, l)| l).collect();
        lines.sort_unstable();
        lines
    }

    /// Whether `page` carries at least one poisoned line.
    pub fn page_has_poison(&self, page: PageId) -> bool {
        if self.poison_count.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.poisoned.lock().iter().any(|&(p, _)| p == page.0)
    }

    /// Clears every poisoned line on `page`: the bookkeeping half of any
    /// full-page rewrite (reset, restore, migration target, the scrubber's
    /// rewrite from a replica or checkpoint) — the rewrite is what repairs
    /// the media. Returns the number of lines cleared. Count and set move
    /// under one lock hold.
    pub fn scrub_page(&self, page: PageId) -> usize {
        let mut set = self.poisoned.lock();
        let before = set.len();
        set.retain(|&(p, _)| p != page.0);
        let cleared = before - set.len();
        self.poison_count.fetch_sub(cleared, Ordering::Relaxed);
        cleared
    }

    /// Recomputes `page`'s content hash against its integrity sidecar.
    /// `Ok(None)` when no sidecar is recorded (nothing to verify),
    /// `Ok(Some(true))` on a match, `Ok(Some(false))` on silent bit rot.
    /// Reads the raw slot (privileged, poison-blind): a poisoned line is
    /// the *other* failure mode, surfaced by [`Self::page_poisoned_lines`].
    pub fn page_csum_ok(&self, page: PageId) -> Result<Option<bool>, ProtError> {
        self.peek(page, |slot| {
            let want = slot.csum?;
            let (mut h, written) = (crate::checksum::SeaHasher::new(), slot.written());
            h.write(written);
            h.write(&ZEROS[written.len()..]);
            Some(h.finish() == want)
        })
    }

    /// Moves a page's contents and integrity sidecar to another page in
    /// one privileged, immediately durable operation — the bad-page
    /// retirement path's migration primitive. The destination's poison
    /// bookkeeping is cleared (every line was just rewritten); the source
    /// is left untouched for the caller to retire. Mappings are the
    /// caller's business. The source must be media-clean — migrating a
    /// poisoned page would launder lost lines into "good" bytes.
    pub fn migrate_page(&self, from: PageId, to: PageId) -> Result<(), ProtError> {
        if self.page_has_poison(from) {
            return Err(ProtError::Poisoned);
        }
        let (img, csum) = self.peek(from, |slot| (slot.image(), slot.csum))?;
        let mut dst = self.slot(to)?.lock();
        if let Some(t) = &self.tracker {
            t.record_store(to, 0, PAGE_SIZE, dst.written());
            t.flush(to, 0, PAGE_SIZE);
            t.fence();
        }
        dst.store(0, &img);
        dst.csum = csum;
        drop(dst);
        self.scrub_page(to);
        Ok(())
    }

    /// Fault injection: silently flips one byte of `page` *without*
    /// touching the integrity sidecar or the persistence tracker — the
    /// bit-rot failure mode, undetectable by reads and caught only by a
    /// checksum-verifying scrub. Returns whether a sidecar was present
    /// (i.e. whether the rot is detectable at all). Test-only, like
    /// [`Self::poison_line`].
    pub fn rot_byte(&self, page: PageId, off: usize) -> bool {
        let Ok(slot) = self.slot(page) else { return false };
        let mut slot = slot.lock();
        let off = off % PAGE_SIZE;
        let b = slot.byte(off) ^ 0xFF;
        slot.store(off, &[b]);
        slot.csum.is_some()
    }

    /// Marks every line of `page` unreadable — uncorrectable-media
    /// containment. The scrubber calls this when a checksum proves a
    /// page's bytes wrong and no replica exists to heal from: failing
    /// loudly on every subsequent read beats silently returning rot.
    /// Returns the number of lines newly fenced off.
    pub fn fence_off_page(&self, page: PageId) -> usize {
        if self.index(page).is_err() {
            return 0;
        }
        let mut set = self.poisoned.lock();
        let mut added = 0;
        for line in 0..(PAGE_SIZE / CACHE_LINE) as u16 {
            if set.insert((page.0, line)) {
                added += 1;
            }
        }
        self.poison_count.fetch_add(added, Ordering::Relaxed);
        added
    }
}

/// Persistence-order sanitizer surface: live wherever a tracker is
/// (`track_persistence`), no-ops elsewhere.
impl NvmDevice {
    /// Quiescence check: records a hazard for every line that is not yet
    /// durable — `missing-flush` for dirty lines, `missing-fence` for
    /// flushed-but-unfenced ones. Call where the workload claims all its
    /// writes have been persisted.
    pub fn sanitize_quiesce_check(&self) {
        if let Some(t) = &self.tracker {
            t.quiesce_check();
        }
    }

    /// Arms or disarms recovery mode: while armed, any read overlapping a
    /// not-yet-durable line records a `read-not-durable` hazard.
    pub fn set_recovery_mode(&self, on: bool) {
        if let Some(t) = &self.tracker {
            t.set_recovery_mode(on);
        }
    }

    /// Takes all hazards observed so far into a [`SanitizeReport`] tagged
    /// with the run's sim seed, clearing the tracker's hazard list.
    pub fn take_sanitize_report(&self, seed: u64) -> SanitizeReport {
        SanitizeReport {
            seed,
            hazards: self.tracker.as_ref().map(|t| t.take_hazards()).unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prot::ActorId;

    fn dev() -> NvmDevice {
        NvmDevice::new(DeviceConfig::small())
    }

    #[test]
    fn unmapped_access_faults() {
        let d = dev();
        let a = ActorId(1);
        let mut buf = [0u8; 8];
        assert_eq!(d.copy_from_page(a, PageId(0), 0, &mut buf), Err(ProtError::NotMapped));
        assert_eq!(d.copy_to_page(a, PageId(0), 0, &buf), Err(ProtError::NotMapped));
    }

    #[test]
    fn mapped_write_roundtrips() {
        let d = dev();
        let a = ActorId(1);
        d.mmu_map(a, PageId(2), PagePerm::Write).unwrap();
        d.copy_to_page(a, PageId(2), 100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        d.copy_from_page(a, PageId(2), 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn read_only_mapping_blocks_stores() {
        let d = dev();
        let a = ActorId(1);
        d.mmu_map(a, PageId(1), PagePerm::Read).unwrap();
        let mut buf = [0u8; 4];
        assert!(d.copy_from_page(a, PageId(1), 0, &mut buf).is_ok());
        assert_eq!(d.copy_to_page(a, PageId(1), 0, &buf), Err(ProtError::ReadOnly));
    }

    #[test]
    fn unallocated_page_reads_zero() {
        let d = dev();
        let a = ActorId(1);
        d.mmu_map(a, PageId(9), PagePerm::Read).unwrap();
        let mut buf = [7u8; 16];
        d.copy_from_page(a, PageId(9), 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn atomic_u64_alignment_enforced() {
        let d = dev();
        let a = ActorId(1);
        d.mmu_map(a, PageId(0), PagePerm::Write).unwrap();
        assert_eq!(d.read_u64(a, PageId(0), 4), Err(ProtError::Misaligned));
        d.copy_to_page(a, PageId(0), 8, &0xDEAD_BEEFu64.to_le_bytes()).unwrap();
        assert_eq!(d.read_u64(a, PageId(0), 8), Ok(0xDEAD_BEEF));
    }

    #[test]
    fn reset_page_clears_data_and_mappings() {
        let d = dev();
        let a = ActorId(1);
        d.mmu_map(a, PageId(3), PagePerm::Write).unwrap();
        d.copy_to_page(a, PageId(3), 0, b"secret").unwrap();
        d.reset_page(PageId(3)).unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(d.copy_from_page(a, PageId(3), 0, &mut buf), Err(ProtError::NotMapped));
        // Remap as a different actor: contents must be zeros, not "secret".
        let b = ActorId(2);
        d.mmu_map(b, PageId(3), PagePerm::Read).unwrap();
        d.copy_from_page(b, PageId(3), 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 6]);
    }

    #[test]
    fn reset_page_sparing_keeps_one_mapping_only() {
        let d = dev();
        let (a, b) = (ActorId(1), ActorId(2));
        d.mmu_map(a, PageId(3), PagePerm::Read).unwrap();
        d.mmu_map(b, PageId(3), PagePerm::Write).unwrap();
        d.copy_to_page(b, PageId(3), 0, b"secret").unwrap();
        assert_eq!(d.reset_page_sparing(PageId(3), a), Ok(Some(PagePerm::Read)));
        assert_eq!(d.mmu_perm(b, PageId(3)), Ok(None));
        let mut buf = [7u8; 6];
        d.copy_from_page(a, PageId(3), 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 6]);
        assert_eq!(d.reset_page_sparing(PageId(3), b), Ok(None));
        assert_eq!(d.mmu_perm(a, PageId(3)), Ok(None));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let d = dev();
        let a = ActorId(1);
        d.mmu_map(a, PageId(5), PagePerm::Write).unwrap();
        d.copy_to_page(a, PageId(5), 0, b"v1").unwrap();
        let snap = d.snapshot_page(PageId(5)).unwrap();
        d.copy_to_page(a, PageId(5), 0, b"v2").unwrap();
        d.restore_page(PageId(5), &snap).unwrap();
        let mut buf = [0u8; 2];
        d.copy_from_page(a, PageId(5), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"v1");
    }

    #[test]
    fn crash_reverts_unflushed_stores() {
        let mut cfg = DeviceConfig::small();
        cfg.track_persistence = true;
        let d = NvmDevice::new(cfg);
        let a = ActorId(1);
        d.mmu_map(a, PageId(0), PagePerm::Write).unwrap();
        d.copy_to_page(a, PageId(0), 0, b"durable!").unwrap();
        d.flush(PageId(0), 0, 8);
        d.fence(); // Durability advances at the fence, not the flush.
        d.copy_to_page(a, PageId(0), 64, b"volatile").unwrap();
        assert!(d.dirty_lines() > 0);
        let report = d.crash();
        assert_eq!(report.lost_lines, 1);
        assert_eq!(report.affected_pages, vec![PageId(0)]);
        let mut keep = [0u8; 8];
        d.copy_from_page(a, PageId(0), 0, &mut keep).unwrap();
        assert_eq!(&keep, b"durable!");
        let mut lost = [0u8; 8];
        d.copy_from_page(a, PageId(0), 64, &mut lost).unwrap();
        assert_eq!(lost, [0u8; 8]);
    }

    #[test]
    fn poisoned_line_faults_reads_until_rewritten() {
        use crate::topology::CACHE_LINE;
        let d = dev();
        let a = ActorId(1);
        d.mmu_map(a, PageId(2), PagePerm::Write).unwrap();
        d.copy_to_page(a, PageId(2), 0, &[7u8; 256]).unwrap();
        d.poison_line(PageId(2), 1);
        let mut buf = [0u8; 8];
        // Reads overlapping line 1 fault; other lines are fine.
        assert_eq!(d.copy_from_page(a, PageId(2), CACHE_LINE, &mut buf), Err(ProtError::Poisoned));
        assert_eq!(
            d.copy_from_page(a, PageId(2), CACHE_LINE - 4, &mut buf),
            Err(ProtError::Poisoned)
        );
        assert!(d.copy_from_page(a, PageId(2), 0, &mut buf).is_ok());
        // A partial store into the bad line faults too...
        assert_eq!(d.copy_to_page(a, PageId(2), CACHE_LINE, &buf), Err(ProtError::Poisoned));
        // ...but a store covering the whole line repairs it.
        d.copy_to_page(a, PageId(2), CACHE_LINE, &[0u8; CACHE_LINE]).unwrap();
        assert_eq!(d.poisoned_lines(), 0);
        assert!(d.copy_from_page(a, PageId(2), CACHE_LINE, &mut buf).is_ok());
    }

    #[test]
    fn crash_plan_freezes_durability_at_point() {
        use crate::fault::FaultPlan;
        let mut cfg = DeviceConfig::small();
        cfg.track_persistence = true;
        let d = NvmDevice::new(cfg);
        let a = ActorId(1);
        d.mmu_map(a, PageId(0), PagePerm::Write).unwrap();
        // Points: store=0 flush=1 fence=2 | store=3 flush=4 fence=5. Crash
        // at point 3: the first store/flush/fence triple is durable, the
        // second store never lands.
        d.arm_crash_plan(FaultPlan::crash_at_point(3));
        d.copy_to_page(a, PageId(0), 0, b"first!!!").unwrap();
        d.flush(PageId(0), 0, 8);
        d.fence();
        d.copy_to_page(a, PageId(0), 64, b"second!!").unwrap();
        d.flush(PageId(0), 64, 8);
        d.fence(); // Frozen: no durable effect.
        let report = d.crash();
        assert_eq!(report.crash_point, Some(3));
        assert_eq!(report.points_seen, 6);
        let mut buf = [0u8; 8];
        d.copy_from_page(a, PageId(0), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"first!!!");
        d.copy_from_page(a, PageId(0), 64, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
    }

    #[test]
    fn csum_sidecar_set_read_and_invalidated_by_plain_stores() {
        let d = dev();
        let a = ActorId(1);
        d.mmu_map(a, PageId(4), PagePerm::Write).unwrap();
        let img = vec![0x5Au8; PAGE_SIZE];
        let c = crate::checksum::checksum(&img);
        d.copy_to_page_csum(a, PageId(4), 0, &img, Some(c)).unwrap();
        assert_eq!(d.page_csum(PageId(4)).unwrap(), Some(c));
        // Any ordinary store invalidates: the sidecar can no longer vouch.
        d.copy_to_page(a, PageId(4), 16, b"dirty").unwrap();
        assert_eq!(d.page_csum(PageId(4)).unwrap(), None);
        // Scrub clears it too.
        d.copy_to_page_csum(a, PageId(4), 0, &img, Some(c)).unwrap();
        d.reset_page(PageId(4)).unwrap();
        assert_eq!(d.page_csum(PageId(4)).unwrap(), None);
    }

    #[test]
    fn corrupt_for_test_is_silent_bit_rot() {
        let d = dev();
        let a = ActorId(1);
        d.mmu_map(a, PageId(6), PagePerm::Write).unwrap();
        let img = vec![0x11u8; PAGE_SIZE];
        let c = crate::checksum::checksum(&img);
        d.copy_to_page_csum(a, PageId(6), 0, &img, Some(c)).unwrap();
        d.corrupt_for_test(PageId(6), 100).unwrap();
        // The sidecar survives (that is the point), but the data changed.
        assert_eq!(d.page_csum(PageId(6)).unwrap(), Some(c));
        let mut buf = vec![0u8; PAGE_SIZE];
        d.copy_from_page(a, PageId(6), 0, &mut buf).unwrap();
        assert_ne!(crate::checksum::checksum(&buf), c);
    }

    #[test]
    fn clear_mappings_drops_all_actors() {
        let d = dev();
        d.mmu_map(ActorId(1), PageId(0), PagePerm::Write).unwrap();
        d.mmu_map(ActorId(2), PageId(3), PagePerm::Read).unwrap();
        d.clear_mappings();
        assert_eq!(d.mmu_perm(ActorId(1), PageId(0)).unwrap(), None);
        assert_eq!(d.mmu_perm(ActorId(2), PageId(3)).unwrap(), None);
    }

    #[test]
    fn cross_page_access_rejected() {
        let d = dev();
        let a = ActorId(1);
        d.mmu_map(a, PageId(0), PagePerm::Write).unwrap();
        let buf = [0u8; 64];
        assert_eq!(d.copy_to_page(a, PageId(0), PAGE_SIZE - 32, &buf), Err(ProtError::OutOfRange));
    }

    /// perfbench's geometry: 8 nodes of 32 Ki pages, 512 slot chunks.
    fn perfbench_sized() -> NvmDevice {
        NvmDevice::new(DeviceConfig::eight_node(32 << 10))
    }

    #[test]
    fn a_fresh_device_builds_no_slot_chunk() {
        let d = perfbench_sized();
        assert_eq!(d.slots.len(), 512);
        assert_eq!(d.resident_slot_chunks(), 0);
    }

    #[test]
    fn reads_and_resets_of_an_untouched_page_build_nothing() {
        let d = perfbench_sized();
        let (a, p) = (ActorId(1), PageId(100_000));
        let mut buf = [7u8; 16];
        assert_eq!(d.copy_from_page(a, p, 0, &mut buf), Err(ProtError::NotMapped));
        assert_eq!(d.read(a, 0, p, 0, &mut buf), Err(ProtError::NotMapped));
        assert_eq!(d.write(a, 0, p, 0, &buf), Err(ProtError::NotMapped));
        d.read(KERNEL_ACTOR, 0, p, 0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(d.read_u64(KERNEL_ACTOR, p, 8), Ok(0));
        assert_eq!(d.mmu_perm(a, p), Ok(None));
        assert_eq!(d.mmu_unmap(a, p), Ok(false));
        assert_eq!(d.page_csum(p), Ok(None));
        assert_eq!(d.page_csum_ok(p), Ok(None));
        assert_eq!(d.snapshot_page(p).unwrap(), vec![0u8; PAGE_SIZE].into_boxed_slice());
        assert_eq!(d.fence_off_page(p), PAGE_SIZE / CACHE_LINE);
        assert_eq!(d.copy_from_page(KERNEL_ACTOR, p, 0, &mut buf), Err(ProtError::Poisoned));
        d.reset_page(p).unwrap();
        assert_eq!(d.poisoned_lines(), 0, "a reset of an untouched page scrubs its poison");
        assert_eq!(d.reset_page_sparing(p, a), Ok(None));
        assert!(d.mappings().is_empty());
        assert_eq!(d.revoke_actor(a), 0);
        d.clear_mappings();
        assert_eq!(d.crash().lost_lines, 0);
        assert_eq!(d.resident_slot_chunks(), 0);
    }

    #[test]
    fn one_store_builds_exactly_one_chunk() {
        let (a, p, q) = (ActorId(1), PageId(70_000), PageId(200_000));
        type Store = fn(&NvmDevice, ActorId, PageId, PageId);
        let stores: [(&str, Store); 6] = [
            ("write", |d, _, p, _| d.write(KERNEL_ACTOR, 0, p, 8, b"x").unwrap()),
            ("mmu_map", |d, a, p, _| d.mmu_map(a, p, PagePerm::Read).unwrap()),
            ("restore_page", |d, _, p, _| d.restore_page(p, &[1u8; PAGE_SIZE]).unwrap()),
            ("migrate_page", |d, _, p, q| d.migrate_page(q, p).unwrap()),
            ("rot_byte", |d, _, p, _| assert!(!d.rot_byte(p, 3))),
            ("corrupt_for_test", |d, _, p, _| d.corrupt_for_test(p, 3).unwrap()),
        ];
        for (name, store) in stores {
            let d = perfbench_sized();
            store(&d, a, p, q);
            assert_eq!(d.resident_slot_chunks(), 1, "{name} builds its page's chunk only");
        }
        let d = perfbench_sized();
        d.mmu_map(a, p, PagePerm::Write).unwrap();
        d.copy_to_page(a, p, 0, b"same chunk").unwrap();
        d.mmu_map(a, PageId(p.0 + 1), PagePerm::Write).unwrap();
        assert_eq!(d.resident_slot_chunks(), 1);
        d.mmu_map(a, q, PagePerm::Write).unwrap();
        assert_eq!(d.resident_slot_chunks(), 2);
    }

    #[test]
    fn sweeps_keep_page_order_across_chunks_and_a_partial_last_chunk() {
        // 1 400 pages: chunks of 512, 512 and a partial 376.
        let d = NvmDevice::new(DeviceConfig { topology: Topology::new(2, 700), ..DeviceConfig::small() });
        assert_eq!(d.slots.len(), 3);
        let (a, b) = (ActorId(1), ActorId(2));
        let pages = [1399, 1024, 1023, 600, 511, 3].map(PageId);
        for p in pages {
            d.mmu_map(a, p, PagePerm::Write).unwrap();
        }
        d.mmu_map(b, PageId(1023), PagePerm::Read).unwrap();
        assert_eq!(d.resident_slot_chunks(), 3);
        let got: Vec<(PageId, ActorId, PagePerm)> = d.mappings();
        let want: Vec<(PageId, ActorId, PagePerm)> = [
            (3, a, PagePerm::Write),
            (511, a, PagePerm::Write),
            (600, a, PagePerm::Write),
            (1023, a, PagePerm::Write),
            (1023, b, PagePerm::Read),
            (1024, a, PagePerm::Write),
            (1399, a, PagePerm::Write),
        ]
        .map(|(p, who, perm)| (PageId(p), who, perm))
        .to_vec();
        assert_eq!(got, want);
        assert_eq!(d.revoke_actor(a), pages.len());
        assert_eq!(d.mappings(), vec![(PageId(1023), b, PagePerm::Read)]);
        d.clear_mappings();
        assert!(d.mappings().is_empty());
    }

    #[test]
    fn a_page_past_the_end_is_out_of_range_everywhere() {
        let d = NvmDevice::new(DeviceConfig { topology: Topology::new(2, 700), ..DeviceConfig::small() });
        let (a, ok) = (ActorId(1), PageId(5));
        for p in [PageId(1400), PageId(1535), PageId(u64::MAX)] {
            let mut buf = [0u8; 8];
            let oor = Err(ProtError::OutOfRange);
            assert_eq!(d.copy_from_page(KERNEL_ACTOR, p, 0, &mut buf), oor);
            assert_eq!(d.copy_to_page(KERNEL_ACTOR, p, 0, &buf), oor);
            assert_eq!(d.read(KERNEL_ACTOR, 0, p, 0, &mut buf), oor);
            assert_eq!(d.write(KERNEL_ACTOR, 0, p, 0, &buf), oor);
            assert_eq!(d.mmu_map(a, p, PagePerm::Write), oor);
            assert_eq!(d.mmu_unmap(a, p), Err(ProtError::OutOfRange));
            assert_eq!(d.mmu_perm(a, p), Err(ProtError::OutOfRange));
            assert_eq!(d.page_csum(p), Err(ProtError::OutOfRange));
            assert_eq!(d.page_csum_ok(p), Err(ProtError::OutOfRange));
            assert_eq!(d.reset_page(p), oor);
            assert_eq!(d.reset_page_sparing(p, a), Err(ProtError::OutOfRange));
            assert_eq!(d.snapshot_page(p).err(), Some(ProtError::OutOfRange));
            assert_eq!(d.restore_page(p, &[0u8; PAGE_SIZE]), oor);
            assert_eq!(d.corrupt_for_test(p, 0), oor);
            assert_eq!(d.migrate_page(p, ok), oor);
            assert_eq!(d.migrate_page(ok, p), oor);
            assert!(!d.rot_byte(p, 0));
            assert_eq!(d.fence_off_page(p), 0);
        }
        assert_eq!(d.poisoned_lines(), 0);
        assert_eq!(d.resident_slot_chunks(), 0);
    }

    /// Maps `p` writable for actor 1, and returns that actor.
    fn mapped(d: &NvmDevice, p: PageId) -> ActorId {
        let a = ActorId(1);
        d.mmu_map(a, p, PagePerm::Write).unwrap();
        a
    }

    /// `p`'s bytes at `off`, read through the permission-checked path.
    fn bytes(d: &NvmDevice, p: PageId, off: usize, len: usize) -> Vec<u8> {
        let mut buf = vec![0xEEu8; len];
        d.copy_from_page(KERNEL_ACTOR, p, off, &mut buf).unwrap();
        buf
    }

    #[test]
    fn a_store_builds_a_prefix_up_to_its_last_line_only() {
        let stores = [(0, 1), (0, 64), (8, 8), (100, 5), (1000, 24), (4088, 8), (0, PAGE_SIZE)];
        for (off, len) in stores {
            let d = dev();
            let p = PageId(7);
            let a = mapped(&d, p);
            d.copy_to_page(a, p, off, &vec![0xA1u8; len]).unwrap();
            let prefix = d.resident_page_bytes();
            let most = (off + len).next_multiple_of(CACHE_LINE);
            assert!(prefix >= off + len && prefix <= most, "{off}+{len}: {prefix}");
            assert!(prefix.is_multiple_of(CACHE_LINE), "{off}+{len}: {prefix}");
        }
        let d = dev();
        let (p, q) = (PageId(1), PageId(2));
        let a = mapped(&d, p);
        // Growth doubles: a page filled line by line ends at one page.
        for line in 0..PAGE_SIZE / CACHE_LINE {
            d.copy_to_page(a, p, line * CACHE_LINE, &[line as u8; CACHE_LINE]).unwrap();
        }
        assert_eq!(d.resident_page_bytes(), PAGE_SIZE);
        let lines = bytes(&d, p, 0, PAGE_SIZE);
        assert!(lines.chunks(CACHE_LINE).enumerate().all(|(i, l)| l == [i as u8; CACHE_LINE]));
        // Reads, snapshots and checksum checks of another page add nothing.
        mapped(&d, q);
        bytes(&d, q, 0, PAGE_SIZE);
        d.snapshot_page(q).unwrap();
        d.page_csum_ok(q).unwrap();
        assert_eq!(d.resident_page_bytes(), PAGE_SIZE);
    }

    #[test]
    fn reads_return_the_prefix_then_zeros() {
        let d = dev();
        let p = PageId(3);
        let a = mapped(&d, p);
        let body: Vec<u8> = (1..=100).collect();
        d.copy_to_page(a, p, 20, &body).unwrap();
        assert_eq!(d.resident_page_bytes(), 128);
        // Inside the prefix.
        assert_eq!(bytes(&d, p, 20, 100), body);
        assert_eq!(bytes(&d, p, 0, 20), vec![0u8; 20]);
        // Straddling its end: the prefix's bytes, then zeros.
        let mut want = body[80..].to_vec();
        want.resize(60, 0);
        assert_eq!(bytes(&d, p, 100, 60), want);
        // Starting at and past its end, up to the page's last byte.
        assert_eq!(bytes(&d, p, 128, 64), vec![0u8; 64]);
        assert_eq!(bytes(&d, p, 3000, 1096), vec![0u8; 1096]);
        assert_eq!(d.read_u64(KERNEL_ACTOR, p, 4088), Ok(0));
        let img = d.snapshot_page(p).unwrap();
        assert_eq!(img.len(), PAGE_SIZE);
        assert_eq!(&img[20..120], &body[..]);
        assert!(img[..20].iter().chain(&img[120..]).all(|&b| b == 0));
    }

    #[test]
    fn a_short_prefix_hashes_as_its_whole_page() {
        let d = dev();
        let p = PageId(4);
        let a = mapped(&d, p);
        d.copy_to_page(a, p, 0, &[0x5Au8; 200]).unwrap();
        let whole = crate::checksum::checksum(&d.snapshot_page(p).unwrap());
        assert!(d.resident_page_bytes() < PAGE_SIZE);
        d.slot(p).unwrap().lock().csum = Some(whole);
        assert_eq!(d.page_csum_ok(p), Ok(Some(true)));
        d.slot(p).unwrap().lock().csum = Some(crate::checksum::checksum(&[0x5Au8; 200]));
        assert_eq!(d.page_csum_ok(p), Ok(Some(false)), "the zero tail is hashed too");
    }

    #[test]
    fn restore_over_a_longer_prefix_zeroes_its_old_tail() {
        let d = dev();
        let p = PageId(5);
        let a = mapped(&d, p);
        d.copy_to_page(a, p, 0, b"short").unwrap();
        let snap = d.snapshot_page(p).unwrap();
        assert_eq!(snap.len(), PAGE_SIZE);
        d.copy_to_page(a, p, 3000, b"long tail").unwrap();
        d.restore_page(p, &snap).unwrap();
        assert_eq!(bytes(&d, p, 0, 5), b"short");
        assert_eq!(bytes(&d, p, 3000, 9), vec![0u8; 9]);
        assert_eq!(d.snapshot_page(p).unwrap(), snap);
    }

    #[test]
    fn a_crash_reverts_a_store_that_grew_the_prefix() {
        let d = NvmDevice::new(DeviceConfig { track_persistence: true, ..DeviceConfig::small() });
        let p = PageId(6);
        let a = mapped(&d, p);
        d.copy_to_page(a, p, 0, b"durable!").unwrap();
        d.flush(p, 0, 8);
        d.fence();
        let before = d.snapshot_page(p).unwrap();
        // Straddles the first line into new ones, and lands far past the prefix.
        d.copy_to_page(a, p, 60, &[0x77u8; 100]).unwrap();
        d.copy_to_page(a, p, 2048, b"volatile").unwrap();
        assert_eq!(d.crash().lost_lines, 4);
        assert_eq!(d.snapshot_page(p).unwrap(), before);
    }

    #[test]
    fn rot_and_corruption_past_the_prefix_flip_exactly_one_byte() {
        let d = dev();
        let p = PageId(8);
        let a = mapped(&d, p);
        d.copy_to_page(a, p, 0, &[0x11u8; 64]).unwrap();
        let clean = d.snapshot_page(p).unwrap();
        type Flip = fn(&NvmDevice, PageId, usize);
        let flips: [(Flip, u8); 2] = [
            (|d, p, off| assert!(!d.rot_byte(p, off)), 0xFF),
            (|d, p, off| d.corrupt_for_test(p, off).unwrap(), 0x40),
        ];
        for (flip, mask) in flips {
            for off in [10, 64, 1000, PAGE_SIZE - 1] {
                flip(&d, p, off);
                let img = d.snapshot_page(p).unwrap();
                let diff: Vec<usize> = (0..PAGE_SIZE).filter(|&i| img[i] != clean[i]).collect();
                assert_eq!(diff, vec![off]);
                assert_eq!(img[off], clean[off] ^ mask);
                flip(&d, p, off);
                assert_eq!(d.snapshot_page(p).unwrap(), clean);
            }
        }
    }

    #[test]
    fn timed_ops_work_outside_sim_without_charging() {
        // Outside a sim-thread `read`/`write` must not panic.
        let d = dev();
        let a = ActorId(1);
        d.mmu_map(a, PageId(0), PagePerm::Write).unwrap();
        d.write(a, 0, PageId(0), 0, b"abc").unwrap();
        let mut buf = [0u8; 3];
        d.read(a, 0, PageId(0), 0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn timed_ops_charge_inside_sim() {
        use std::sync::Arc;
        use trio_sim::SimRuntime;
        let rt = SimRuntime::new(0);
        let d = Arc::new(dev());
        let a = ActorId(1);
        d.mmu_map(a, PageId(0), PagePerm::Write).unwrap();
        let d2 = Arc::clone(&d);
        rt.spawn("t", move || {
            d2.write(a, 0, PageId(0), 0, &[0u8; 4096]).unwrap();
        });
        let t = rt.run();
        // A 4 KiB write at k=1 costs latency + media time; must be over 500ns.
        assert!(t > 500, "charged {t}ns");
    }

    #[test]
    fn flush_charges_every_line_it_stages() {
        use trio_sim::SimRuntime;
        let rt = SimRuntime::new(0);
        rt.spawn("t", || {
            let d = dev();
            // 64 bytes from a mid-line offset straddle two lines.
            d.flush(PageId(0), 32, 64);
            assert_eq!(trio_sim::now(), 2 * CLWB_LINE_NS);
        });
        rt.run();
    }
}
