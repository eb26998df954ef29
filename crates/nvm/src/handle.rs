//! Unprivileged per-actor access handle.
//!
//! An [`NvmHandle`] is a LibFS's "virtual address space window" onto the
//! device: every access is checked against the MMU state for the handle's
//! actor. Threads declare their NUMA placement with [`set_home_node`];
//! accesses to other nodes pay the remote penalty.

use std::cell::Cell;
use std::sync::Arc;

use crate::device::NvmDevice;
use crate::prot::{ActorId, ProtError};
use crate::topology::{NodeId, PageId, PAGE_SIZE};
use crate::typestate::{Dirty, Durable, ExtentProof, Flushed, Span, Spans};

thread_local! {
    static HOME_NODE: Cell<NodeId> = const { Cell::new(0) };
}

/// Declares the calling thread's NUMA node (sticks for the thread's life).
pub fn set_home_node(node: NodeId) {
    HOME_NODE.with(|h| h.set(node));
}

/// The calling thread's NUMA node.
pub fn home_node() -> NodeId {
    HOME_NODE.with(|h| h.get())
}

/// A per-actor (per-LibFS) view of the device.
#[derive(Clone)]
pub struct NvmHandle {
    dev: Arc<NvmDevice>,
    actor: ActorId,
}

impl NvmHandle {
    /// Creates a handle for `actor`. Handing out a handle grants no access
    /// by itself — the MMU state does.
    pub fn new(dev: Arc<NvmDevice>, actor: ActorId) -> Self {
        NvmHandle { dev, actor }
    }

    /// The actor this handle authenticates as.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<NvmDevice> {
        &self.dev
    }

    /// Timed read within one page.
    pub fn read(&self, page: PageId, off: usize, buf: &mut [u8]) -> Result<(), ProtError> {
        self.dev.read(self.actor, home_node(), page, off, buf)
    }

    /// Timed write within one page.
    pub fn write(&self, page: PageId, off: usize, data: &[u8]) -> Result<(), ProtError> {
        self.dev.write(self.actor, home_node(), page, off, data)
    }

    /// Untimed read (callers charge per extent via [`NvmHandle::read_extent`]
    /// or deliberately model zero-cost cached access).
    pub fn read_untimed(&self, page: PageId, off: usize, buf: &mut [u8]) -> Result<(), ProtError> {
        self.dev.copy_from_page(self.actor, page, off, buf)
    }

    /// Untimed write.
    pub fn write_untimed(&self, page: PageId, off: usize, data: &[u8]) -> Result<(), ProtError> {
        self.dev.copy_to_page(self.actor, page, off, data)
    }

    /// 8-byte read.
    pub fn read_u64(&self, page: PageId, off: usize) -> Result<u64, ProtError> {
        self.dev.read_u64(self.actor, page, off)
    }

    /// 8-byte atomic durable store (§4.4 publication primitive).
    pub fn write_u64_persist(&self, page: PageId, off: usize, v: u64) -> Result<(), ProtError> {
        self.dev.write_u64_persist(self.actor, page, off, v)
    }

    // -----------------------------------------------------------------
    // Typestate persist pipeline (DESIGN.md §18): Dirty -> Flushed ->
    // Durable, with publish_u64 as the only dependent commit point.
    // Each method performs exactly the hardware step its raw predecessor
    // did — same stores, same clwb/sfence costs, same sanitizer events —
    // except that a range's clwbs are charged at the fence that retires
    // it, with the fence, as one sim point.
    // -----------------------------------------------------------------

    /// Untimed store returning a [`Dirty`] token for the written range —
    /// the entry point of the typestate pipeline.
    pub fn write_dirty(
        &self,
        page: PageId,
        off: usize,
        data: &[u8],
    ) -> Result<Dirty<Span>, ProtError> {
        self.dev.copy_to_page(self.actor, page, off, data)?;
        Ok(Dirty::new(Span::new(page, off, data.len())))
    }

    /// 8-byte store (no flush, no fence) returning its [`Dirty`] token:
    /// for protocols that batch several word stores under one flush/fence
    /// pair (e.g. the rename journal record).
    pub fn store_u64_dirty(
        &self,
        page: PageId,
        off: usize,
        v: u64,
    ) -> Result<Dirty<Span>, ProtError> {
        if !off.is_multiple_of(8) {
            return Err(ProtError::Misaligned);
        }
        self.write_dirty(page, off, &v.to_le_bytes())
    }

    /// Mints a [`Dirty`] token for ranges the caller already stored via
    /// [`Self::write`]/[`Self::write_untimed`] (e.g. a batch of index
    /// entries flushed as one coalesced range). Safe in the claiming
    /// direction: declaring clean bytes dirty only costs an extra
    /// write-back; the unsafe direction — claiming durability — stays
    /// gated behind the fence.
    pub fn dirty_spans(&self, spans: Vec<Span>) -> Dirty<Vec<Span>> {
        Dirty::new(spans)
    }

    /// `clwb` of every range the token carries, consuming [`Dirty`] into
    /// [`Flushed`]. One flush call per span: callers batching stores that
    /// share cache lines should carry one coalesced span (the sanitizer
    /// flags per-line re-flushes as `redundant-flush`). Charges nothing:
    /// the token carries the staged line count to [`Self::fence_flushed`],
    /// so no sim point may run before that fence (debug builds assert it).
    pub fn flush_dirty<T: Spans>(&self, d: Dirty<T>) -> Flushed<T> {
        let t = d.into_inner();
        let mut lines = 0;
        t.for_each(&mut |page, off, len| lines += self.dev.stage(page, off, len));
        Flushed::new(t, lines)
    }

    /// `sfence`, consuming [`Flushed`] into a [`Durable`] witness, and the
    /// charge for the token's staged `clwb`s with it: one sim point. The
    /// fence is global: one call retires every staged line, so join
    /// tokens with [`Flushed::and`] rather than fencing per range.
    pub fn fence_flushed<T>(&self, f: Flushed<T>) -> Durable<T> {
        #[cfg(debug_assertions)]
        assert_eq!(
            f.staged_at(),
            trio_sim::now_or_zero(),
            "a sim point ran between flush_dirty and fence_flushed: the deferred clwb charge is not exact"
        );
        let (t, lines) = f.into_parts();
        self.dev.fence_staged(lines);
        Durable::new(t)
    }

    /// Flush + fence in one step (the common single-range persist).
    pub fn persist_dirty<T: Spans>(&self, d: Dirty<T>) -> Durable<T> {
        self.fence_flushed(self.flush_dirty(d))
    }

    /// [`Self::write_u64_persist`] as a dependent commit point: the typed
    /// §4.4 publication primitive. The store only type-checks with a
    /// [`Durable`] witness, so publish-before-persist, missing-flush and
    /// missing-fence are compile errors. On a tracked device every witnessed
    /// range is additionally re-checked against the persistence tracker —
    /// the runtime oracle that the token (or an [`Self::assume_durable`]
    /// escape) is truthful.
    pub fn publish_u64<T: Spans>(
        &self,
        page: PageId,
        off: usize,
        v: u64,
        deps: &Durable<T>,
    ) -> Result<(), ProtError> {
        self.dev.publish_u64_spans(self.actor, page, off, v, deps.witness())
    }

    /// [`Self::publish_u64`] without its own barrier: the commit word for
    /// an op that retires several stores in one fence. The witness is
    /// checked as the word is stored — on a tracked device each witnessed
    /// range is re-checked against the tracker then, as `publish_u64`
    /// does — and the word comes back [`Dirty`], to be joined into the
    /// caller's fence. It only type-checks against a [`Durable`] witness,
    /// so a commit word staged before the bytes it commits were fenced is
    /// a compile error here too. The word is visible from its store on,
    /// durable only at that fence: everything else the fence retires must
    /// be a state recovery accepts without it (DESIGN.md §18 "Epochs").
    pub fn stage_publish_u64<T: Spans>(
        &self,
        page: PageId,
        off: usize,
        v: u64,
        deps: &Durable<T>,
    ) -> Result<Dirty<Span>, ProtError> {
        self.dev.sanitize_assert_spans(deps.witness());
        self.store_u64_dirty(page, off, v)
    }

    /// Untyped escape hatch: [`Self::publish_u64`] with raw
    /// `(page, off, len)` dependency tuples and no compile-time evidence.
    /// Reserved for `trio-nvm` internals and test harnesses that
    /// deliberately construct hazards — clippy.toml disallows it elsewhere
    /// (`raw-publish`).
    pub fn publish_u64_raw(
        &self,
        page: PageId,
        off: usize,
        v: u64,
        deps: &[(PageId, usize, usize)],
    ) -> Result<(), ProtError> {
        self.dev.publish_u64(self.actor, page, off, v, deps)
    }

    /// Escape hatch minting a [`Durable`] witness from a *claim* instead
    /// of a fence — for ranges whose durability predates this process
    /// (e.g. a slot published in a previous mount). On a tracked device the
    /// claim is checked immediately: a forged witness records the same
    /// `publish-before-persist` hazard a raw early publish would.
    /// Disallowed by clippy.toml outside `trio-nvm` (`raw-publish`).
    pub fn assume_durable(&self, page: PageId, off: usize, len: usize) -> Durable<Span> {
        self.dev.sanitize_assert_durable(page, off, len);
        Durable::new(Span::new(page, off, len))
    }

    /// `clwb` + bookkeeping for a range. Raw half of the typestate
    /// pipeline — outside `trio-nvm`, use [`Self::flush_dirty`] (the
    /// clippy.toml's `raw-publish` entries enforce this).
    pub fn flush(&self, page: PageId, off: usize, len: usize) {
        self.dev.flush(page, off, len);
    }

    /// `sfence`. Raw half of the typestate pipeline — outside `trio-nvm`,
    /// use [`Self::fence_flushed`].
    pub fn fence(&self) {
        self.dev.fence();
    }

    /// Reads a byte range spanning `pages` (each holding `PAGE_SIZE` bytes
    /// of the extent, in order) starting at byte `start` within the extent.
    /// Charges the media cost once per node-contiguous run of pages, so a
    /// large sequential access costs `O(nodes)` scheduler events instead of
    /// `O(pages)`.
    pub fn read_extent(
        &self,
        pages: &[PageId],
        start: usize,
        buf: &mut [u8],
    ) -> Result<(), ProtError> {
        self.extent_op(pages, start, buf.len(), false, |page, off, pos, len, me, b: &mut [u8]| {
            me.dev.copy_from_page(me.actor, page, off, &mut b[pos..pos + len])
        }, buf)
    }

    /// Writes a byte range spanning `pages` starting at byte `start`.
    /// Data is staged for write-back per page and fenced before returning
    /// (persistent-write model), so the returned [`Durable`] witness is
    /// minted by construction. The pages' `clwb`s are charged at the
    /// fence, with it: one sim point for the barrier, not one per page.
    pub fn write_extent(
        &self,
        pages: &[PageId],
        start: usize,
        data: &[u8],
    ) -> Result<Durable<ExtentProof>, ProtError> {
        let mut data_mut = data; // Only read; unified helper wants one buffer type.
        let mut lines = 0;
        self.extent_op(
            pages,
            start,
            data.len(),
            true,
            |page, off, pos, len, me, b: &mut &[u8]| {
                me.dev.copy_to_page(me.actor, page, off, &b[pos..pos + len])?;
                lines += me.dev.stage(page, off, len);
                Ok(())
            },
            &mut data_mut,
        )?;
        self.dev.fence_staged(lines);
        Ok(Durable::new(ExtentProof::new(data.len())))
    }

    /// [`Self::write_extent`] with inline streaming integrity (DESIGN.md
    /// §17): the one pass that moves each byte into NVM also folds it into
    /// a seahash-style checksum, and every segment that covers a whole page
    /// records its digest in the page's sidecar atomically with the store.
    /// Partial head/tail segments cannot vouch for bytes outside the write,
    /// so they invalidate the sidecar exactly as an ordinary store would.
    /// Used by delegation workers, where the payload arrives by grant
    /// reference and this is the only traversal the data ever gets. The
    /// `clwb`s are charged at the fence, as in [`Self::write_extent`].
    pub fn write_extent_hashed(
        &self,
        pages: &[PageId],
        start: usize,
        data: &[u8],
    ) -> Result<Durable<ExtentProof>, ProtError> {
        let mut data_mut = data;
        let mut lines = 0;
        self.extent_op(
            pages,
            start,
            data.len(),
            true,
            |page, off, pos, len, me, b: &mut &[u8]| {
                let seg = &b[pos..pos + len];
                let csum =
                    (off == 0 && len == PAGE_SIZE).then(|| crate::checksum::checksum(seg));
                me.dev.copy_to_page_csum(me.actor, page, off, seg, csum)?;
                lines += me.dev.stage(page, off, len);
                Ok(())
            },
            &mut data_mut,
        )?;
        self.dev.fence_staged(lines);
        Ok(Durable::new(ExtentProof::new(data.len())))
    }

    #[allow(clippy::needless_range_loop, reason = "`pi` also derives byte offsets")]
    fn extent_op<B: ?Sized>(
        &self,
        pages: &[PageId],
        start: usize,
        len: usize,
        is_write: bool,
        mut op: impl FnMut(PageId, usize, usize, usize, &Self, &mut B) -> Result<(), ProtError>,
        buf: &mut B,
    ) -> Result<(), ProtError> {
        if len == 0 {
            return Ok(());
        }
        if start + len > pages.len() * PAGE_SIZE {
            return Err(ProtError::OutOfRange);
        }
        let topo = self.dev.topology();
        let home = home_node();
        // Pass 1: charge once per node-contiguous run.
        let first_page = start / PAGE_SIZE;
        let last_page = (start + len - 1) / PAGE_SIZE;
        let mut run_node = topo.node_of(pages[first_page]);
        let mut run_bytes = 0usize;
        for pi in first_page..=last_page {
            let page_start = pi * PAGE_SIZE;
            let seg_start = start.max(page_start);
            let seg_end = (start + len).min(page_start + PAGE_SIZE);
            let node = topo.node_of(pages[pi]);
            if node != run_node {
                self.dev.charge_transfer(run_node, run_bytes, is_write, home);
                run_node = node;
                run_bytes = 0;
            }
            run_bytes += seg_end - seg_start;
        }
        self.dev.charge_transfer(run_node, run_bytes, is_write, home);
        // Pass 2: per-page copies (no timing).
        let mut pos = 0usize;
        for pi in first_page..=last_page {
            let page_start = pi * PAGE_SIZE;
            let seg_start = start.max(page_start);
            let seg_end = (start + len).min(page_start + PAGE_SIZE);
            let seg_len = seg_end - seg_start;
            op(pages[pi], seg_start - page_start, pos, seg_len, self, buf)?;
            pos += seg_len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DeviceConfig, CLWB_LINE_NS, SFENCE_NS};
    use crate::prot::PagePerm;
    use crate::sanitize::SanitizeReport;
    use trio_sim::plock::Mutex;
    use trio_sim::{Nanos, SimRuntime};

    fn setup() -> (Arc<NvmDevice>, NvmHandle) {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let h = NvmHandle::new(Arc::clone(&dev), ActorId(1));
        (dev, h)
    }

    #[test]
    fn extent_roundtrip_across_pages() {
        let (dev, h) = setup();
        let pages = [PageId(10), PageId(11), PageId(12)];
        for p in pages {
            dev.mmu_map(ActorId(1), p, PagePerm::Write).unwrap();
        }
        let data: Vec<u8> = (0..9000).map(|i| (i % 251) as u8).collect();
        h.write_extent(&pages, 100, &data).unwrap();
        let mut out = vec![0u8; 9000];
        h.read_extent(&pages, 100, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn extent_out_of_range() {
        let (dev, h) = setup();
        dev.mmu_map(ActorId(1), PageId(0), PagePerm::Write).unwrap();
        let pages = [PageId(0)];
        let mut buf = [0u8; 16];
        assert_eq!(h.read_extent(&pages, PAGE_SIZE - 8, &mut buf), Err(ProtError::OutOfRange));
    }

    #[test]
    fn extent_respects_protection() {
        let (dev, h) = setup();
        let pages = [PageId(1), PageId(2)];
        dev.mmu_map(ActorId(1), pages[0], PagePerm::Write).unwrap();
        // pages[1] unmapped: the write must fault.
        let data = vec![3u8; PAGE_SIZE + 10];
        assert_eq!(h.write_extent(&pages, 0, &data), Err(ProtError::NotMapped));
    }

    #[test]
    fn hashed_extent_records_sidecars_on_full_pages_only() {
        let (dev, h) = setup();
        let pages = [PageId(20), PageId(21), PageId(22)];
        for p in pages {
            dev.mmu_map(ActorId(1), p, PagePerm::Write).unwrap();
        }
        // Start mid-page: head and tail are partial, the middle page full.
        let data: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 241) as u8).collect();
        h.write_extent_hashed(&pages, 100, &data).unwrap();
        assert_eq!(dev.page_csum(pages[0]).unwrap(), None);
        let mid = &data[PAGE_SIZE - 100..2 * PAGE_SIZE - 100];
        assert_eq!(dev.page_csum(pages[1]).unwrap(), Some(crate::checksum::checksum(mid)));
        assert_eq!(dev.page_csum(pages[2]).unwrap(), None);
        // The data itself round-trips identically to the plain path.
        let mut out = vec![0u8; data.len()];
        h.read_extent(&pages, 100, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn home_node_tls_defaults_to_zero() {
        assert_eq!(home_node(), 0);
        set_home_node(3);
        assert_eq!(home_node(), 3);
        set_home_node(0);
    }

    /// What one persist path cost, alone in a sim-thread on a fresh
    /// tracked device: virtual time, scheduler events, persistence points
    /// and the sanitizer's report.
    #[derive(Debug, PartialEq)]
    struct Cost {
        ns: Nanos,
        events: u64,
        points: u64,
        report: SanitizeReport,
    }

    fn cost_of(op: impl FnOnce(&NvmHandle) + Send + 'static) -> Cost {
        let dev = Arc::new(NvmDevice::new(DeviceConfig {
            track_persistence: true,
            ..DeviceConfig::small()
        }));
        for p in 0..8 {
            dev.mmu_map(ActorId(1), PageId(p), PagePerm::Write).unwrap();
        }
        let h = NvmHandle::new(Arc::clone(&dev), ActorId(1));
        let rt = Arc::new(SimRuntime::new(1));
        let seen = Arc::new(Mutex::new((0, 0)));
        let (rt2, seen2) = (Arc::clone(&rt), Arc::clone(&seen));
        rt.spawn("op", move || {
            let (t0, e0) = (trio_sim::now(), rt2.events());
            op(&h);
            *seen2.lock() = (trio_sim::now() - t0, rt2.events() - e0);
        });
        rt.run();
        let (ns, events) = *seen.lock();
        Cost { ns, events, points: dev.persistence_points(), report: dev.take_sanitize_report(1) }
    }

    /// Checks one persist path against the raw per-range sequence it
    /// replaced: the clock advances by the same sum (its `transfer`, plus
    /// `lines` × `CLWB_LINE_NS`, plus `SFENCE_NS`), the tracker sees the
    /// same points and hazards, and the barrier is one scheduler event
    /// where the raw sequence had one per `clwb` range (`ranges`) plus the
    /// fence.
    fn barrier_is_one_sim_point(
        transfer: Cost,
        lines: u64,
        ranges: u64,
        typed: impl FnOnce(&NvmHandle) + Send + 'static,
        raw: impl FnOnce(&NvmHandle) + Send + 'static,
    ) -> Cost {
        let (typed, raw) = (cost_of(typed), cost_of(raw));
        assert_eq!(typed.ns, transfer.ns + lines * CLWB_LINE_NS + SFENCE_NS);
        assert_eq!(typed.ns, raw.ns);
        assert_eq!(typed.events, transfer.events + 1);
        assert_eq!(raw.events, transfer.events + ranges + 1);
        assert_eq!((typed.points, &typed.report), (raw.points, &raw.report));
        typed
    }

    fn no_transfer() -> Cost {
        cost_of(|_| {})
    }

    fn transfer(bytes: usize) -> Cost {
        cost_of(move |h| h.device().charge_transfer(0, bytes, true, home_node()))
    }

    const PAGES: [PageId; 3] = [PageId(1), PageId(2), PageId(3)];

    #[test]
    fn write_extent_over_three_pages_is_one_barrier() {
        // 100..4096 of the first page (63 lines), the whole second (64),
        // 0..600 of the third (10).
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 500).map(|i| i as u8).collect();
        let (len, raw_data) = (data.len(), data.clone());
        barrier_is_one_sim_point(
            transfer(len),
            63 + 64 + 10,
            3,
            move |h| {
                h.write_extent(&PAGES, 100, &data).unwrap();
            },
            move |h| {
                h.device().charge_transfer(0, len, true, home_node());
                let segs = [(100, PAGE_SIZE - 100), (0, PAGE_SIZE), (0, 600)];
                let mut pos = 0;
                for (page, (off, n)) in PAGES.into_iter().zip(segs) {
                    h.write_untimed(page, off, &raw_data[pos..pos + n]).unwrap();
                    h.flush(page, off, n);
                    pos += n;
                }
                h.fence();
            },
        );
    }

    #[test]
    fn write_extent_hashed_is_one_barrier() {
        let data = vec![0x5Au8; 3 * PAGE_SIZE];
        let raw_data = data.clone();
        barrier_is_one_sim_point(
            transfer(data.len()),
            3 * 64,
            3,
            move |h| {
                h.write_extent_hashed(&PAGES, 0, &data).unwrap();
            },
            move |h| {
                h.device().charge_transfer(0, raw_data.len(), true, home_node());
                for (page, chunk) in PAGES.into_iter().zip(raw_data.chunks(PAGE_SIZE)) {
                    h.write_untimed(page, 0, chunk).unwrap();
                    h.flush(page, 0, PAGE_SIZE);
                }
                h.fence();
            },
        );
    }

    #[test]
    fn persist_dirty_of_two_spans_is_one_barrier() {
        barrier_is_one_sim_point(
            no_transfer(),
            2 + 1,
            2,
            |h| {
                let a = h.write_dirty(PageId(4), 32, &[1; 64]).unwrap();
                let b = h.store_u64_dirty(PageId(5), 8, 7).unwrap();
                let _durable = h.persist_dirty(a.and(b));
            },
            |h| {
                h.write_untimed(PageId(4), 32, &[1; 64]).unwrap();
                h.write_untimed(PageId(5), 8, &7u64.to_le_bytes()).unwrap();
                h.flush(PageId(4), 32, 64);
                h.flush(PageId(5), 8, 8);
                h.fence();
            },
        );
    }

    #[test]
    fn joined_flushed_tokens_are_one_barrier() {
        // The second store lands in a line the first flush staged: the
        // sanitizer's `store-while-flushed` must come out of both paths.
        let cost = barrier_is_one_sim_point(
            no_transfer(),
            2 + 1,
            2,
            |h| {
                let a = h.flush_dirty(h.write_dirty(PageId(6), 0, &[2; 128]).unwrap());
                let b = h.flush_dirty(h.store_u64_dirty(PageId(6), 120, 9).unwrap());
                let _durable = h.fence_flushed(a.and(b));
            },
            |h| {
                h.write_untimed(PageId(6), 0, &[2; 128]).unwrap();
                h.flush(PageId(6), 0, 128);
                h.write_untimed(PageId(6), 120, &9u64.to_le_bytes()).unwrap();
                h.flush(PageId(6), 120, 8);
                h.fence();
            },
        );
        assert!(!cost.report.is_clean());
    }

    #[test]
    fn write_u64_persist_is_one_barrier() {
        barrier_is_one_sim_point(
            no_transfer(),
            1,
            1,
            |h| h.write_u64_persist(PageId(7), 16, 42).unwrap(),
            |h| {
                h.write_untimed(PageId(7), 16, &42u64.to_le_bytes()).unwrap();
                h.flush(PageId(7), 16, 8);
                h.fence();
            },
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a sim point ran between flush_dirty and fence_flushed")]
    fn a_sim_point_between_stage_and_fence_is_caught() {
        let (dev, h) = setup();
        dev.mmu_map(ActorId(1), PageId(0), PagePerm::Write).unwrap();
        let rt = SimRuntime::new(0);
        rt.spawn("t", move || {
            let staged = h.flush_dirty(h.store_u64_dirty(PageId(0), 0, 1).unwrap());
            trio_sim::work(1);
            let _durable = h.fence_flushed(staged);
        });
        rt.run();
    }

    #[test]
    fn empty_extent_is_noop() {
        let (_, h) = setup();
        let mut buf = [0u8; 0];
        h.read_extent(&[], 0, &mut buf).unwrap();
    }
}
