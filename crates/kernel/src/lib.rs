//! The Trio **kernel controller** (paper §3.2, §4).
//!
//! The only privileged, always-trusted component on the control path. It
//! owns: shared-resource allocation (NVM pages, inode numbers), the MMU
//! (mapping files into LibFSes with read or exclusive-write permission,
//! enforced by leases), the shadow inode table (ground-truth permissions,
//! I4), per-file metadata checkpoints, and corruption handling (rollback
//! after a failed verification). It also hosts the per-NUMA-node
//! *delegation thread pool* that OdinFS-style opportunistic delegation
//! uses (§4.5) — delegation threads are kernel threads shared by all
//! LibFSes.
//!
//! Everything a LibFS does in the common case — reads, writes, creates,
//! deletes, renames — happens by direct NVM access *without* entering this
//! crate; the kernel is involved only to change protection state (map,
//! unmap, allocate, free) and to mediate the few operations that touch
//! kernel-owned state (root-inode updates, chmod/chown, reclamation).
//! Every public entry point charges the syscall trap cost.

pub mod delegation;
pub mod grant;
pub(crate) mod obs;
pub mod mapping;
pub mod quarantine;
pub mod registry;
pub mod retry;
pub mod scrub;
pub mod shard;

pub use delegation::DegradedMode;
pub use grant::{GrantRef, GrantTable};
pub use retry::RetryPolicy;
pub use scrub::{MediaStats, MediaStatsSnapshot, PatrolHandle, ScrubReport};
pub use shard::EpochPin;

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use trio_fsapi::{FsError, FsResult, Mode, SetAttr};
use trio_layout::{
    walk_file, CoreFileType, DirentData, DirentLoc, DirentRef, FileHead, FilePages, Ino,
    SuperblockRef, DIRENTS_PER_PAGE, DIRENT_SIZE, ROOT_INO,
};
use trio_nvm::{
    ActorId, NodeId, NvmDevice, NvmHandle, PageId, PagePerm, PathStats, RegistryLockSite,
    KERNEL_ACTOR, PAGE_SIZE,
};
use trio_sim::plock::Mutex as PlMutex;
use trio_sim::sync::SimMutexGuard;
use trio_sim::{cost, in_sim, now_or_zero, sync::SimMutex, work, Nanos, MILLIS};
use trio_verifier::{
    InoProvenance, PageProvenance, ResourceView, ShadowAttr, Verifier, VerifyRequest, Violation,
};

use delegation::DelegationPool;
use quarantine::ResilienceStats;
use registry::{Credentials, KernelEvent, Registry};
use scrub::{JournalTwin, RetireState};
use shard::{EpochGc, EventRing, LimboPage, ShardedMap, EVENT_RING_CAPACITY};
use trio_layout::superblock_replica_page;

/// Controller tunables.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Write-lease duration (paper: 100 ms).
    pub lease_ns: Nanos,
    /// Delegation threads per NUMA node (paper/OdinFS default: 12).
    pub delegation_threads_per_node: usize,
    /// Run the quarantine repair pass inline as soon as an offender is
    /// contained (models the background repair thread having completed).
    /// With `false`, tainted subtrees answer `FsError::Quarantined` until
    /// [`KernelController::repair_quarantined`] is called — the mode the
    /// isolation tests and the fuzzer use to observe the contained window.
    pub auto_repair: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            lease_ns: 100 * MILLIS,
            delegation_threads_per_node: 12,
            auto_repair: true,
        }
    }
}

/// Upper bound on a file's index-page chain (defensive walks).
pub(crate) const MAX_INDEX_PAGES: usize = 1 << 16;

/// Explicit budget on directory entries one verification may examine
/// (hostile entry bombs are cut off and rejected past this).
pub(crate) const MAX_DIR_ENTRIES: u64 = 1 << 20;

/// A LibFS registration: its principal and its (initially superblock-only)
/// window onto the device.
pub struct LibFsRegistration {
    /// The LibFS's access-control principal.
    pub actor: ActorId,
    /// NVM handle authenticated as `actor`.
    pub handle: NvmHandle,
    /// The recall page shared with the kernel (DESIGN.md §21).
    pub recall: Arc<registry::RecallPage>,
}

/// The kernel controller. One per mounted file system.
pub struct KernelController {
    dev: Arc<NvmDevice>,
    kh: NvmHandle,
    verifier: Verifier,
    pub(crate) registry: SimMutex<Registry>,
    /// Page provenance for every non-free page, sharded so the allocator
    /// and scrub paths read/write it without the registry control lock
    /// (DESIGN.md §20). Shard locks are leaves under the registry.
    pub(crate) prov: ShardedMap<PageProvenance>,
    /// Ino provenance for every allocated ino (same sharding discipline).
    pub(crate) inos: ShardedMap<InoProvenance>,
    /// Epoch-based reclamation for freed pages: provenance readers that
    /// walk outside the control lock hold an [`EpochPin`]; frees ripen
    /// through limbo and only re-enter circulation past every pin.
    pub(crate) gc: Arc<EpochGc>,
    /// Bounded kernel event ring (drop-oldest; replaces the old unbounded
    /// `Registry::events` vec).
    pub(crate) events: EventRing,
    /// Per-node free-page pools (per-CPU in the paper; per-node here, which
    /// is the contention boundary that matters for the experiments).
    pools: Vec<SimMutex<Vec<PageId>>>,
    /// Inode number allocator (next unused).
    next_ino: SimMutex<u64>,
    /// Pages pinned by live checkpoints: page -> pin count, plus the
    /// deferred free list processed on unpin.
    pub(crate) pins: SimMutex<PinState>,
    pub(crate) phases: SimMutex<PhaseStats>,
    delegation: DelegationPool,
    /// Per-actor allocator caches: scrubbed, unmapped pages whose
    /// provenance (`AllocatedTo`) is already recorded, served by
    /// `alloc_pages` without touching the global pools or registry.
    caches: PlMutex<HashMap<ActorId, Arc<SimMutex<ActorCache>>>>,
    stats: Arc<PathStats>,
    /// Detection/containment/repair counters (DESIGN.md §14), surfaced
    /// alongside [`PathStats`].
    resilience: Arc<ResilienceStats>,
    /// Mirror of the registry's quarantined-actor set, readable without
    /// the (virtual-time) registry lock so the allocator fast path can
    /// refuse a contained LibFS without giving up its lock-free design.
    pub(crate) quarantined_mirror: PlMutex<HashSet<ActorId>>,
    /// Serializes every kernel write to the superblock record so the
    /// twin-repair scrub (DESIGN.md §19) cannot interleave with a field
    /// update. **Leaf lock**: holders must not take the registry.
    pub(crate) sb_lock: SimMutex<()>,
    /// Media-fault counters (scrub/repair/retire; DESIGN.md §19).
    pub(crate) media: Arc<MediaStats>,
    /// Bad-page retirement books.
    pub(crate) retire: SimMutex<RetireState>,
    /// Registered journal mirror pairs, keyed by *both* page ids.
    pub(crate) journal_twins: PlMutex<HashMap<u64, JournalTwin>>,
    /// Patrol position; wraps over the device.
    pub(crate) scrub_cursor: AtomicU64,
    config: KernelConfig,
}

/// Extra pages a per-actor allocator-cache refill stocks beyond the
/// immediate request, so subsequent `alloc_pages` calls skip the global
/// pools and registry entirely.
const ALLOC_CACHE_REFILL: usize = 192;

/// Per-actor cache size past which freed pages spill back to the global
/// pools.
const ALLOC_CACHE_HIGH_WATER: usize = 512;

/// One actor's sharded allocation cache. Pages here are invisible to every
/// MMU (freed pages stay inaccessible), read as zeros (scrubbed on entry),
/// and carry `AllocatedTo` provenance — so granting one needs only an MMU
/// map, and a crash reclaims them through the normal complement walk.
struct ActorCache {
    per_node: Vec<Vec<PageId>>,
    total: usize,
}

/// Checkpoint pinning state (see `mapping.rs` for the rollback protocol).
#[derive(Default)]
pub struct PinState {
    pub(crate) pinned: std::collections::HashMap<u64, u32>,
    pub(crate) deferred: Vec<PageId>,
}

/// Cumulative virtual time spent in each sharing-protocol phase
/// (paper Figure 8's breakdown).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStats {
    /// Programming the MMU on the map path.
    pub map_ns: Nanos,
    /// Unmapping on release/revocation.
    pub unmap_ns: Nanos,
    /// Integrity verification.
    pub verify_ns: Nanos,
    /// Checkpointing before write grants.
    pub checkpoint_ns: Nanos,
    /// Mappers blocked on another actor's write lease: all waits summed…
    pub lease_wait_ns: Nanos,
    /// …and the longest single one.
    pub lease_wait_max_ns: Nanos,
}

impl KernelController {
    /// Creates a controller over a fresh device and formats the file
    /// system (superblock + empty root).
    pub fn format(dev: Arc<NvmDevice>, config: KernelConfig) -> Arc<Self> {
        let kh = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
        let sb = SuperblockRef::new(&kh);
        let topo = dev.topology();
        // lint: allow(no-panic) format runs on a fresh device the kernel
        // just built; page 0 always exists and no LibFS is registered yet.
        sb.format(topo.total_pages(), ROOT_INO + 1).expect("kernel formats the superblock");

        // Page 0 is the superblock, the last page its replica; everything
        // else is free, per node.
        let replica = superblock_replica_page(topo.total_pages());
        let mut pools = Vec::with_capacity(topo.nodes);
        for node in 0..topo.nodes {
            let first = topo.first_page_of(node).0;
            let start = if node == 0 { 1 } else { first };
            // LIFO pools: keep low page numbers on top for compactness.
            let mut v: Vec<PageId> = (start..first + topo.pages_per_node as u64)
                .map(PageId)
                .filter(|p| *p != replica)
                .rev()
                .collect();
            v.shrink_to_fit();
            pools.push(SimMutex::new(v));
        }

        Self::assemble(dev, kh, ShardedMap::new(), ShardedMap::new(), pools, ROOT_INO + 1, config)
    }

    /// The controller over books `format` or `recover` has filled in;
    /// everything volatile starts empty.
    fn assemble(
        dev: Arc<NvmDevice>,
        kh: NvmHandle,
        prov: ShardedMap<PageProvenance>,
        inos: ShardedMap<InoProvenance>,
        pools: Vec<SimMutex<Vec<PageId>>>,
        next_ino: u64,
        config: KernelConfig,
    ) -> Arc<Self> {
        // Root is "in use" at a synthetic location never compared against.
        inos.insert(ROOT_INO, InoProvenance::InUse(DirentLoc { page: PageId(0), slot: 0 }));
        let stats = Arc::new(PathStats::new());
        let delegation = DelegationPool::with_stats(
            Arc::clone(&dev),
            config.delegation_threads_per_node,
            Arc::clone(&stats),
        );
        Arc::new(KernelController {
            verifier: Verifier::new(NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR)),
            kh,
            dev,
            registry: SimMutex::new(Registry::new()),
            prov,
            inos,
            gc: Arc::new(EpochGc::new()),
            events: EventRing::new(EVENT_RING_CAPACITY),
            pools,
            next_ino: SimMutex::new(next_ino),
            pins: SimMutex::new(PinState::default()),
            phases: SimMutex::new(PhaseStats::default()),
            delegation,
            caches: PlMutex::new(HashMap::new()),
            stats,
            resilience: Arc::new(ResilienceStats::new()),
            quarantined_mirror: PlMutex::new(HashSet::new()),
            sb_lock: SimMutex::new(()),
            media: Arc::new(MediaStats::new()),
            retire: SimMutex::new(RetireState::default()),
            journal_twins: PlMutex::new(HashMap::new()),
            scrub_cursor: AtomicU64::new(0),
            config,
        })
    }

    /// Remounts an already-formatted device after a crash or kernel
    /// restart (the recovery half of the fault-injection engine).
    ///
    /// A restart loses every volatile structure: MMU mappings, provenance
    /// books, shadow attributes, checkpoints, free-page pools. Only the
    /// *core state* on NVM survives. Recovery therefore:
    ///
    /// 1. clears the MMU (no LibFS keeps access across a reboot),
    /// 2. reads the superblock (refusing an unformatted device) and takes
    ///    the persisted inode high-water mark, so inos are never reused,
    /// 3. walks the committed tree from the root, rebuilding page and ino
    ///    provenance; unwalkable or page-aliasing chains are trimmed to
    ///    empty files and duplicate/fabricated dirents are cleared —
    ///    paper §4.3's trim policy applied at mount time,
    /// 4. rebuilds the free pools as the complement of the walked pages.
    ///
    /// Shadow attributes are re-adopted lazily from dirents on first map
    /// (a restart forgets chmod/chown that raced the crash; the dirent
    /// cache is the persisted source). Rename-journal undo is the LibFS's
    /// job and must run *before* this walk (see `arckfs::journal`).
    pub fn recover(dev: Arc<NvmDevice>, config: KernelConfig) -> FsResult<Arc<Self>> {
        dev.clear_mappings();
        let kh = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
        let sb = SuperblockRef::new(&kh);
        if !sb.is_formatted().map_err(|_| FsError::Corrupted)? {
            return Err(FsError::Corrupted);
        }
        // Heal the superblock twins before anything depends on them: a
        // mount after a media fault re-establishes two good copies.
        let _health = sb.scrub().map_err(|_| FsError::Corrupted)?;
        let next_ino = sb.next_ino().map_err(|_| FsError::Corrupted)?.max(ROOT_INO + 1);
        let prov = ShardedMap::new();
        let inos = ShardedMap::new();
        let mut used: HashSet<u64> = HashSet::new();
        used.insert(trio_layout::superblock::SUPERBLOCK_PAGE.0);
        used.insert(superblock_replica_page(dev.topology().total_pages()).0);

        // Breadth-first walk of the committed tree. Queue entries carry the
        // dirent location so broken files can be trimmed in place.
        let root_fi = sb.root_first_index().map_err(|_| FsError::Corrupted)?;
        let mut queue: VecDeque<(Ino, u64, CoreFileType, Option<DirentLoc>)> = VecDeque::new();
        queue.push_back((ROOT_INO, root_fi, CoreFileType::Directory, None));
        let mut seen: HashSet<Ino> = HashSet::new();
        seen.insert(ROOT_INO);
        while let Some((ino, fi, ftype, dirent)) = queue.pop_front() {
            let head = FileHead::new(&kh, dirent);
            // An unwalkable chain, or one referencing pages an earlier-walked
            // file owns (I2 would reject it): trim the (later) claimant.
            let pages = walk_file(&kh, fi, MAX_INDEX_PAGES)
                .ok()
                .filter(|pages| !pages.all_pages().any(|p| used.contains(&p.0)));
            let Some(pages) = pages else {
                head.set_first_index(0).map_err(|_| FsError::Corrupted)?;
                head.set_size(0).map_err(|_| FsError::Corrupted)?;
                continue;
            };
            for p in pages.all_pages() {
                used.insert(p.0);
            }
            prov.insert_batch(pages.all_pages().map(|p| (p.0, PageProvenance::InFile(ino))));
            if ftype != CoreFileType::Directory {
                continue;
            }
            let mut live = 0u64;
            for dp in pages.data_pages.iter().flatten() {
                let mut raw = vec![0u8; PAGE_SIZE];
                if kh.read_untimed(*dp, 0, &mut raw).is_err() {
                    continue;
                }
                for (slot, b) in raw.chunks_exact(DIRENT_SIZE).take(DIRENTS_PER_PAGE).enumerate() {
                    let Ok(b) = <&[u8; DIRENT_SIZE]>::try_from(b) else {
                        continue; // chunks_exact guarantees the size; defensive.
                    };
                    let d = DirentData::decode_bytes(b);
                    if d.ino == 0 {
                        continue;
                    }
                    let loc = DirentLoc { page: *dp, slot };
                    let Some(cft) = d.ftype() else {
                        // Garbage type: the entry cannot be trusted — clear it.
                        let _ = DirentRef::new(&kh, loc).clear();
                        continue;
                    };
                    if d.ino >= next_ino || !seen.insert(d.ino) {
                        // Fabricated ino or double reference — clear it too.
                        let _ = DirentRef::new(&kh, loc).clear();
                        continue;
                    }
                    live += 1;
                    inos.insert(d.ino, InoProvenance::InUse(loc));
                    queue.push_back((d.ino, d.first_index, cft, Some(loc)));
                }
            }
            // A directory's entry count is derived metadata: a crash between
            // a child's dirent publish and the parent's count update (or an
            // entry cleared just above) leaves it stale — repair to the live
            // count so the I1–I4 audit passes on the recovered tree.
            if head.size().map_err(|_| FsError::Corrupted)? != live {
                head.set_size(live).map_err(|_| FsError::Corrupted)?;
            }
        }

        // Free pools are the complement of the walked set (same LIFO
        // ordering as `format`). Reclaimed pages — allocated to a LibFS at
        // crash time but never linked into the committed tree — still hold
        // whatever was stored in them; scrub before reuse so stale bytes
        // (old file data, journal records) can never surface in a fresh
        // allocation's unwritten regions.
        let topo = dev.topology();
        let mut pools = Vec::with_capacity(topo.nodes);
        for node in 0..topo.nodes {
            let first = topo.first_page_of(node).0;
            let start = if node == 0 { 1 } else { first };
            let mut v: Vec<PageId> = (start..first + topo.pages_per_node as u64)
                .rev()
                .filter(|p| !used.contains(p))
                .map(PageId)
                .collect();
            for p in &v {
                dev.reset_page(*p).map_err(|_| FsError::Corrupted)?;
            }
            v.shrink_to_fit();
            pools.push(SimMutex::new(v));
        }

        Ok(Self::assemble(dev, kh, prov, inos, pools, next_ino, config))
    }

    /// Full-tree integrity audit: runs the I1–I4 verifier over every file
    /// the kernel's books consider live and returns the violations found,
    /// per ino (empty means a clean file system). Used by the
    /// crash-sweep harness after [`KernelController::recover`]; on a
    /// freshly recovered system every page is `InFile`, so a clean audit
    /// certifies the recovered tree end-to-end.
    pub fn fsck(&self) -> Vec<(Ino, Vec<Violation>)> {
        self.trap();
        // Pin the reclamation epoch for the whole audit: pages freed while
        // the verifier walks stay in limbo, contents intact, until the pin
        // drops — the audit can never read a recycled frame.
        let _pin = self.gc.pin();
        let reg = self.reg_lock(RegistryLockSite::Fsck);
        let mut bad = Vec::new();
        // `collect_filter` returns ino-sorted entries, preserving the old
        // deterministic audit order.
        let mut targets: Vec<(Ino, Option<DirentLoc>)> = self
            .inos
            .collect_filter(|i, _| i != ROOT_INO)
            .into_iter()
            .filter_map(|(i, p)| match p {
                InoProvenance::InUse(loc) => Some((i, Some(loc))),
                _ => None,
            })
            .collect();
        targets.insert(0, (ROOT_INO, None));
        for (ino, dirent) in targets {
            let (ftype, first_index) = match dirent {
                None => {
                    let sb = SuperblockRef::new(&self.kh);
                    match sb.root_first_index() {
                        Ok(fi) => (CoreFileType::Directory, fi),
                        Err(cause) => {
                            bad.push((ino, vec![Violation::UnreadableAttr { ino, cause }]));
                            continue;
                        }
                    }
                }
                Some(loc) => match DirentRef::new(&self.kh, loc).load() {
                    Ok(d) if d.ino == ino => match d.ftype() {
                        Some(ft) => (ft, d.first_index),
                        None => {
                            bad.push((ino, vec![Violation::BadFileType { raw: d.ftype_raw }]));
                            continue;
                        }
                    },
                    Ok(d) => {
                        bad.push((ino, vec![Violation::InoMismatch { expected: ino, found: d.ino }]));
                        continue;
                    }
                    Err(cause) => {
                        bad.push((ino, vec![Violation::UnreadableAttr { ino, cause }]));
                        continue;
                    }
                },
            };
            let req = VerifyRequest {
                ino,
                ftype,
                dirent,
                first_index,
                dirty_actor: KERNEL_ACTOR,
                checkpoint_children: None,
                max_index_pages: MAX_INDEX_PAGES,
                max_dir_entries: MAX_DIR_ENTRIES,
            };
            let report = self.verifier.verify(&req, &self.view(&reg));
            if report.budget_hit {
                self.resilience.record_budget_hit();
            }
            if !report.ok() {
                bad.push((ino, report.violations));
            }
        }
        bad
    }

    /// The device this controller manages.
    pub fn device(&self) -> &Arc<NvmDevice> {
        &self.dev
    }

    /// The kernel's privileged handle (crate-internal and tests).
    pub fn kernel_handle(&self) -> &NvmHandle {
        &self.kh
    }

    /// Controller configuration.
    pub fn config(&self) -> &KernelConfig {
        &self.config
    }

    pub(crate) fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// Takes the registry control lock, attributing the acquisition to
    /// `site` (satellite of DESIGN.md §20: every regression in the
    /// headline `registry_locks` counter names the path that caused it).
    /// The only sanctioned way to lock the registry.
    pub(crate) fn reg_lock(&self, site: RegistryLockSite) -> SimMutexGuard<'_, Registry> {
        self.stats.record_registry_lock_site(site);
        self.registry.lock()
    }

    /// The verifier's read view: control-lock state (shadow attrs,
    /// mappings) from the held registry guard, provenance from the
    /// sharded maps.
    pub(crate) fn view<'a>(&'a self, reg: &'a Registry) -> KernelView<'a> {
        KernelView { reg, prov: &self.prov, inos: &self.inos }
    }

    /// Records `pages` as belonging to file `ino` (post-verification).
    pub(crate) fn claim_pages_for_file(&self, ino: Ino, pages: &FilePages) {
        self.prov.insert_batch(pages.all_pages().map(|p| (p.0, PageProvenance::InFile(ino))));
    }

    /// Appends to the bounded kernel event ring, surfacing overflow drops
    /// in the shared stats.
    pub(crate) fn push_event(&self, ev: KernelEvent) {
        if self.events.push(ev) {
            self.stats.record_event_dropped();
        }
    }

    /// Pins the reclamation epoch: pages freed while the pin is live stay
    /// in limbo — provenance intact, contents untouched — until it drops.
    /// Public for tests that audit the epoch machinery.
    pub fn epoch_pin(&self) -> EpochPin {
        self.gc.pin()
    }

    /// Freed pages currently waiting in reclamation limbo.
    pub fn limbo_page_count(&self) -> usize {
        self.gc.limbo_len()
    }

    /// The delegation pool (threads must be started with
    /// [`DelegationPool::start`] from inside the simulation).
    pub fn delegation(&self) -> &DelegationPool {
        &self.delegation
    }

    /// Shared data-path counters: delegation traffic, adaptive-policy
    /// decisions, and allocator fast-path behaviour all land here.
    pub fn path_stats(&self) -> &Arc<PathStats> {
        &self.stats
    }

    /// Detection/containment/repair counters (DESIGN.md §14), the
    /// resilience companion to [`KernelController::path_stats`].
    pub fn resilience_stats(&self) -> &Arc<ResilienceStats> {
        &self.resilience
    }

    /// Refuses kernel service to a quarantined LibFS (cheap mirror check,
    /// no registry lock — the allocator fast path stays lock-free).
    pub(crate) fn check_not_quarantined(&self, actor: ActorId) -> FsResult<()> {
        if self.quarantined_mirror.lock().contains(&actor) {
            return Err(FsError::Quarantined);
        }
        Ok(())
    }

    /// Charges the syscall trap cost; called at every public entry point.
    pub(crate) fn trap(&self) {
        if in_sim() {
            work(cost::KERNEL_TRAP_NS);
        }
    }

    // -----------------------------------------------------------------
    // Registration.
    // -----------------------------------------------------------------

    /// Registers a LibFS (one per process, or one per trust group — the
    /// trust-group abstraction of §3.2 is realized by processes sharing the
    /// returned registration). Grants read access to the superblock.
    pub fn register_libfs(&self, uid: u32, gid: u32) -> LibFsRegistration {
        self.trap();
        let recall = Arc::new(registry::RecallPage::new());
        let actor = {
            let mut reg = self.reg_lock(RegistryLockSite::Register);
            let id = ActorId(reg.next_actor);
            reg.next_actor += 1;
            reg.actors.insert(id, Credentials { uid, gid });
            reg.recall_pages.insert(id, Arc::clone(&recall));
            id
        };
        // Page 0 always exists, so this cannot fail; if it ever did the
        // new LibFS would merely lack superblock visibility — nothing the
        // kernel must panic over. The replica gets the same read-only
        // window so the LibFS's fault-tolerant superblock reads work.
        let _ = self.dev.mmu_map(actor, trio_layout::superblock::SUPERBLOCK_PAGE, PagePerm::Read);
        let _ = self.dev.mmu_map(
            actor,
            superblock_replica_page(self.dev.topology().total_pages()),
            PagePerm::Read,
        );
        if in_sim() {
            work(cost::MMU_PROGRAM_PAGE_NS);
        }
        LibFsRegistration { actor, handle: NvmHandle::new(Arc::clone(&self.dev), actor), recall }
    }

    /// Credentials of a registered actor.
    pub fn credentials(&self, actor: ActorId) -> Option<Credentials> {
        self.reg_lock(RegistryLockSite::Admin).actors.get(&actor).copied()
    }

    /// Unregisters a LibFS (process exit): releases every mapping it
    /// holds, verifies every file left dirty by it (so its unvetted writes
    /// never reach anyone unchecked), and revokes its credentials. Pool
    /// pages the LibFS returned beforehand are already free; anything it
    /// still held mapped is simply unmapped — provenance keeps those pages
    /// attributable until their files are next verified.
    pub fn unregister(&self, actor: ActorId) {
        self.trap();
        // Pull every grant window the actor registered: a delegation
        // worker (or watchdog re-dispatch) that touches one of its
        // requests after this point faults cleanly instead of reading a
        // buffer whose owner is gone.
        self.delegation.grants().revoke_actor(actor);
        // Drain whatever reclamation limbo holds for this actor while its
        // cache still exists; later ripenings fall back to the pool spill.
        self.gc_reclaim();
        // Flush the actor's allocator cache back to the global pools —
        // the pages are already scrubbed and unmapped.
        let cached: Vec<PageId> = self
            .caches
            .lock()
            .remove(&actor)
            .map(|c| {
                let mut c = c.lock();
                c.total = 0;
                c.per_node.iter_mut().flat_map(std::mem::take).collect()
            })
            .unwrap_or_default();
        if !cached.is_empty() {
            self.spill_cached(&cached);
        }
        let mut reg = self.reg_lock(RegistryLockSite::Unregister);
        self.end_grants_of(&mut reg, actor, mapping::GrantEnd::Exited);
        reg.recall_pages.remove(&actor);
        // Drop the credentials *before* vetting: a departing LibFS has no
        // further access to contain, so failed verifications below roll
        // back / privatize without entering the quarantine machine.
        reg.actors.remove(&actor);
        // Eagerly vet everything the departing LibFS dirtied — there will
        // be no later "next map by the same actor" to skip it.
        for ino in reg.dirt_of(actor) {
            if reg.vettable(ino) {
                self.verify_file_locked(&mut reg, ino);
            }
        }
        // A quarantined actor that exits leaves its taint to the repair
        // pass; the record itself dies with the registration.
        if reg.quarantine.contains_key(&actor) {
            self.repair_actor_locked(&mut reg, actor);
        }
        drop(reg);
        // The actor's journal pages are gone with it; stop patrol-repairing
        // them (their frames return through the normal free paths).
        self.journal_twins.lock().retain(|_, t| t.actor != actor);
        let _ = self.dev.mmu_unmap(actor, trio_layout::superblock::SUPERBLOCK_PAGE);
        let _ = self
            .dev
            .mmu_unmap(actor, superblock_replica_page(self.dev.topology().total_pages()));
    }

    // -----------------------------------------------------------------
    // Allocation (batched; LibFSes keep local pools).
    // -----------------------------------------------------------------

    /// The actor's allocator cache, created on first use.
    fn cache_of(&self, actor: ActorId) -> Arc<SimMutex<ActorCache>> {
        let nodes = self.pools.len();
        let mut map = self.caches.lock();
        Arc::clone(map.entry(actor).or_insert_with(|| {
            Arc::new(SimMutex::new(ActorCache { per_node: vec![Vec::new(); nodes], total: 0 }))
        }))
    }

    /// Allocates `n` pages, preferring `node`, mapping them read-write to
    /// `actor` (a LibFS's private pool, ready for direct use).
    ///
    /// Fast path: the pages come out of the actor's cache — provenance is
    /// already recorded, so no global pool or registry lock is touched and
    /// the only privileged work is programming the MMU. Otherwise one
    /// batch refill pulls the request plus `ALLOC_CACHE_REFILL` extra
    /// pages from the pools under a single registry acquisition.
    pub fn alloc_pages(
        &self,
        actor: ActorId,
        n: usize,
        node: Option<NodeId>,
    ) -> FsResult<Vec<PageId>> {
        self.trap();
        if in_sim() {
            work(cost::ALLOCATOR_OP_NS);
        }
        self.check_not_quarantined(actor)?;
        if n == 0 {
            return Ok(Vec::new());
        }
        let topo = self.dev.topology();
        let nodes = self.pools.len();
        let start = node.unwrap_or(0).min(nodes - 1);
        let cache = self.cache_of(actor);
        // Ripe limbo pages belong in the pools/caches before any refill
        // judges them empty. The probe is a relaxed atomic — free on the
        // steady-state path, where limbo drained at defer time — and must
        // run before the cache lock below (reclaim parks into it).
        if self.gc.has_limbo() {
            self.gc_reclaim();
        }
        let mut c = cache.lock();
        let mut out: Vec<PageId>;
        let have = c.per_node[start].len();
        if have >= n {
            let keep = have - n;
            out = c.per_node[start].split_off(keep);
            c.total -= n;
            self.stats.record_alloc_fast_hit();
        } else {
            // Batch refill: the mandatory remainder plus extra stock, all
            // provenance-tagged under one registry lock.
            out = c.per_node[start].split_off(0);
            c.total -= have;
            let need = n - have;
            let refill = ALLOC_CACHE_REFILL;
            let mut fresh: Vec<PageId> = Vec::new();
            {
                let mut pool = self.pools[start].lock();
                // Stock extras only while the pool stays comfortably
                // deep, so small devices keep exact-allocation behaviour.
                let extra = if pool.len() > need + 4 * refill { refill } else { 0 };
                let take = (need + extra).min(pool.len());
                let at = pool.len() - take;
                fresh.extend(pool.drain(at..).rev());
            }
            if fresh.len() < need {
                // Preferred node dry: steal the mandatory remainder
                // round-robin (never extras — stolen pages would pollute
                // the per-node cache).
                for i in 1..nodes {
                    let ni = (start + i) % nodes;
                    let mut pool = self.pools[ni].lock();
                    while fresh.len() < need {
                        match pool.pop() {
                            Some(p) => fresh.push(p),
                            None => break,
                        }
                    }
                    if fresh.len() >= need {
                        break;
                    }
                }
            }
            // Last resort: this actor's own cache on other nodes — those
            // pages are already granted, so using them beats failing.
            while fresh.len() + out.len() < n {
                let mut got = false;
                for ni in 0..nodes {
                    if ni != start {
                        if let Some(p) = c.per_node[ni].pop() {
                            c.total -= 1;
                            out.push(p);
                            got = true;
                            if fresh.len() + out.len() == n {
                                break;
                            }
                        }
                    }
                }
                if !got {
                    break;
                }
            }
            if fresh.len() + out.len() < n {
                // Roll back the partial grab: fresh pages to their pools,
                // harvested cache pages back to the cache.
                for p in &fresh {
                    self.pools[topo.node_of(*p)].lock().push(*p);
                }
                for p in out {
                    c.per_node[topo.node_of(p)].push(p);
                    c.total += 1;
                }
                return Err(FsError::NoSpace);
            }
            // Provenance-tag the refill through the sharded map: the
            // drained pages are consecutive, so this touches one or two
            // shard locks and the registry control lock not at all
            // (RegistryLockSite::AllocRefill exists only to attribute a
            // future regression here).
            self.prov
                .insert_batch(fresh.iter().map(|p| (p.0, PageProvenance::AllocatedTo(actor))));
            self.stats.record_alloc_refill(fresh.len());
            let mandatory = n - out.len();
            let extras = fresh.split_off(mandatory.min(fresh.len()));
            out.extend(fresh);
            c.total += extras.len();
            c.per_node[start].extend(extras);
        }
        drop(c);
        for p in &out {
            self.dev.mmu_map(actor, *p, PagePerm::Write).map_err(|_| FsError::NoSpace)?;
        }
        if in_sim() {
            work(out.len() as u64 * cost::MMU_PROGRAM_PAGE_NS);
        }
        Ok(out)
    }

    /// Returns pages to the free pool. A page must be in the caller's pool
    /// (`AllocatedTo`) or belong to a file the caller is reclaiming through
    /// [`KernelController::reclaim_file`]; anything else is refused.
    ///
    /// Unpinned pages are scrubbed and parked in the actor's allocator
    /// cache (still provenance-tagged, no longer mapped anywhere) rather
    /// than returned to the global pools; past the high-water mark the
    /// cold end spills back.
    pub fn free_pages(&self, actor: ActorId, pages: &[PageId]) -> FsResult<()> {
        self.trap();
        // Shard-local validation; no registry control lock
        // (RegistryLockSite::Free attributes any future regression here).
        let authorized = self.prov.all_match(pages.iter().map(|p| p.0), |_, v| {
            matches!(v, Some(PageProvenance::AllocatedTo(a)) if a == actor)
        });
        if !authorized {
            return Err(FsError::PermissionDenied);
        }
        self.park_freed_pages(actor, pages);
        Ok(())
    }

    /// The caching half of the free path (authorization already done, all
    /// pages provenance-tagged to `actor`): scrub and park in the actor's
    /// allocator cache, spilling the cold end past the high-water mark.
    /// Shared by [`KernelController::free_pages`] and the truncate path's
    /// [`KernelController::return_file_pages`], so freed file pages feed
    /// the next allocation burst instead of round-tripping through the
    /// global pools and their registry lock.
    pub(crate) fn park_freed_pages(&self, actor: ActorId, pages: &[PageId]) {
        // Pinned pages (checkpoint rollback images) must take the
        // deferred-free path.
        let (pinned, cacheable): (Vec<PageId>, Vec<PageId>) = {
            let pins = self.pins.lock();
            pages.iter().partition(|p| pins.pinned.contains_key(&p.0))
        };
        if !pinned.is_empty() {
            self.release_pages_internal(&pinned);
        }
        if cacheable.is_empty() {
            return;
        }
        // Freed frames ripen through epoch limbo: a verifier walk, fsck,
        // or patrol pass holding an [`EpochPin`] may still be reading
        // them, so scrubbing and recycling wait until every earlier pin
        // drops. With no pins live — the steady state — `gc_reclaim`
        // drains this very batch before returning, so the unpinned path
        // parks the pages synchronously like the pre-epoch code did.
        self.gc
            .defer(cacheable.into_iter().map(|page| LimboPage { page, owner: actor }).collect());
        self.gc_reclaim();
    }

    /// Drains every ripe limbo batch into its owner's allocator cache
    /// (scrubbing on the way; retirement-diverted and unscrubbable pages
    /// leave circulation instead). Called after every defer, before
    /// refills, at unregister, and by the ledger accessors, so limbo is
    /// only ever non-empty while a pin is actually held.
    pub(crate) fn gc_reclaim(&self) {
        let ripe = self.gc.take_ripe();
        if ripe.is_empty() {
            return;
        }
        // Group by owner preserving first-seen order: HashMap iteration
        // order must never decide pool contents (determinism).
        let mut order: Vec<ActorId> = Vec::new();
        let mut by_owner: HashMap<ActorId, Vec<PageId>> = HashMap::new();
        for lp in ripe {
            by_owner
                .entry(lp.owner)
                .or_insert_with(|| {
                    order.push(lp.owner);
                    Vec::new()
                })
                .push(lp.page);
        }
        for owner in order {
            if let Some(pages) = by_owner.remove(&owner) {
                self.park_reclaimed(owner, &pages);
            }
        }
    }

    /// Parks one owner's ripe pages in its allocator cache, spilling the
    /// cold end past the high-water mark (the caching half of the free
    /// path; authorization happened before the pages entered limbo).
    fn park_reclaimed(&self, actor: ActorId, pages: &[PageId]) {
        // Pages past the retirement threshold leave circulation here
        // instead of re-entering the cache.
        let (diverted, cacheable): (Vec<PageId>, Vec<PageId>) =
            pages.iter().partition(|p| self.divert_retired(**p));
        if !diverted.is_empty() {
            self.prov.remove_batch(diverted.iter().map(|p| p.0));
        }
        if cacheable.is_empty() {
            return;
        }
        // An owner that unregistered while its frees sat in limbo has no
        // cache left to feed; its pages spill straight to the pools.
        let cache = self.caches.lock().get(&actor).map(Arc::clone);
        let Some(cache) = cache else {
            let mut scrubbed: Vec<PageId> = Vec::new();
            for p in &cacheable {
                if self.dev.reset_page(*p).is_ok() {
                    scrubbed.push(*p);
                }
            }
            if in_sim() {
                work(cacheable.len() as u64 * cost::MMU_PROGRAM_PAGE_NS);
            }
            self.stats.record_free(0, scrubbed.len());
            self.spill_cached(&scrubbed);
            return;
        };
        let topo = self.dev.topology();
        let mut c = cache.lock();
        let mut kept = 0usize;
        for p in &cacheable {
            // Scrub now (dropping every mapping with it): the page reads
            // as zeros and is inaccessible for as long as it sits here. A
            // page the device refuses to scrub (out of range) must never
            // be recycled, so it simply is not cached.
            if self.dev.reset_page(*p).is_err() {
                continue;
            }
            c.per_node[topo.node_of(*p)].push(*p);
            kept += 1;
        }
        c.total += kept;
        if in_sim() {
            work(cacheable.len() as u64 * cost::MMU_PROGRAM_PAGE_NS);
        }
        let mut spill: Vec<PageId> = Vec::new();
        if c.total > ALLOC_CACHE_HIGH_WATER {
            let mut excess = c.total - ALLOC_CACHE_HIGH_WATER;
            for per_node in c.per_node.iter_mut() {
                let k = excess.min(per_node.len());
                // Drain the cold end (the bottom of the LIFO).
                spill.extend(per_node.drain(..k));
                excess -= k;
                if excess == 0 {
                    break;
                }
            }
            c.total -= spill.len();
        }
        drop(c);
        self.stats.record_free(cacheable.len(), spill.len());
        if !spill.is_empty() {
            self.spill_cached(&spill);
        }
    }

    /// Returns already-scrubbed, unmapped cache pages to the global pools.
    /// Shard-local provenance drop; no registry control lock
    /// (RegistryLockSite::Spill attributes any future regression here).
    fn spill_cached(&self, pages: &[PageId]) {
        self.prov.remove_batch(pages.iter().map(|p| p.0));
        let topo = self.dev.topology();
        for p in pages {
            if self.divert_retired(*p) {
                continue;
            }
            self.pools[topo.node_of(*p)].lock().push(*p);
        }
    }

    /// Internal free path (already authorized): unmaps everyone, scrubs,
    /// and returns to pools unless pinned by a checkpoint.
    pub(crate) fn release_pages_internal(&self, pages: &[PageId]) {
        self.prov.remove_batch(pages.iter().map(|p| p.0));
        let mut pins = self.pins.lock();
        let topo = self.dev.topology();
        for p in pages {
            if pins.pinned.contains_key(&p.0) {
                pins.deferred.push(*p);
            } else if self.divert_retired(*p) {
                // Retired: scrubbed and parked out of circulation.
            } else if self.dev.reset_page(*p).is_ok() {
                self.pools[topo.node_of(*p)].lock().push(*p);
            }
            // An unscrubbable page is dropped, never pooled: leaking it is
            // safe, recycling its contents would not be.
        }
        if in_sim() {
            work(pages.len() as u64 * cost::MMU_PROGRAM_PAGE_NS);
        }
    }

    /// Pins checkpointed pages so rollback images stay restorable.
    pub(crate) fn pin_pages(&self, pages: impl Iterator<Item = PageId>) {
        let mut pins = self.pins.lock();
        for p in pages {
            *pins.pinned.entry(p.0).or_insert(0) += 1;
        }
    }

    /// Unpins pages; any that were deferred-freed now really free.
    pub(crate) fn unpin_pages(&self, pages: impl Iterator<Item = PageId>) {
        let mut pins = self.pins.lock();
        for p in pages {
            if let Some(c) = pins.pinned.get_mut(&p.0) {
                *c -= 1;
                if *c == 0 {
                    pins.pinned.remove(&p.0);
                }
            }
        }
        let deferred = std::mem::take(&mut pins.deferred);
        let (ready, still): (Vec<PageId>, Vec<PageId>) =
            deferred.into_iter().partition(|p| !pins.pinned.contains_key(&p.0));
        pins.deferred = still;
        drop(pins);
        let topo = self.dev.topology();
        for p in ready {
            if self.divert_retired(p) {
                continue;
            }
            if self.dev.reset_page(p).is_ok() {
                self.pools[topo.node_of(p)].lock().push(p);
            }
        }
    }

    /// Allocates `n` fresh inode numbers to `actor` for future creates.
    pub fn alloc_inos(&self, actor: ActorId, n: u64) -> FsResult<Vec<Ino>> {
        self.trap();
        if in_sim() {
            work(cost::ALLOCATOR_OP_NS);
        }
        self.check_not_quarantined(actor)?;
        let range = {
            let mut next = self.next_ino.lock();
            let start = *next;
            *next += n;
            start..start + n
        };
        // Persist the high-water mark so crash recovery never reuses inos.
        // A failed write refuses the grant (the advanced counter just
        // leaves a harmless ino gap). `sb_lock` is a leaf: scoped to the
        // write and released before the registry below.
        {
            let _sb = self.sb_lock.lock();
            SuperblockRef::new(&self.kh).set_next_ino(range.end).map_err(|_| FsError::Corrupted)?;
        }
        // Consecutive ino grants land on one or two shard locks; the
        // registry control lock is not involved at all.
        let out: Vec<Ino> = range.collect();
        self.inos.insert_batch(out.iter().map(|i| (*i, InoProvenance::AllocatedTo(actor))));
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Mediated metadata (kernel-owned state).
    // -----------------------------------------------------------------

    /// Updates the root directory's inode fields (they live in the
    /// kernel-owned superblock). Requires the caller to hold root's write
    /// mapping.
    pub fn update_root(
        &self,
        actor: ActorId,
        first_index: Option<u64>,
        size: Option<u64>,
        mtime: Option<u64>,
    ) -> FsResult<()> {
        self.trap();
        self.check_not_quarantined(actor)?;
        {
            let reg = self.reg_lock(RegistryLockSite::Admin);
            let root = reg.files.get(&ROOT_INO).ok_or(FsError::NotFound)?;
            if root.writer() != Some(actor) {
                return Err(FsError::PermissionDenied);
            }
        }
        let _sb_guard = self.sb_lock.lock();
        let sb = SuperblockRef::new(&self.kh);
        if let Some(fi) = first_index {
            sb.set_root_first_index(fi).map_err(|_| FsError::NoSpace)?;
        }
        if let Some(s) = size {
            sb.set_root_size(s).map_err(|_| FsError::NoSpace)?;
        }
        if let Some(t) = mtime {
            sb.set_root_mtime(t).map_err(|_| FsError::NoSpace)?;
        }
        Ok(())
    }

    /// chmod/chown (paper §4.3/I4): updates the shadow inode table and
    /// refreshes the cached copy in the dirent.
    pub fn setattr(&self, actor: ActorId, ino: Ino, attr: SetAttr) -> FsResult<()> {
        self.trap();
        self.check_not_quarantined(actor)?;
        let (dirent, new_mode) = {
            let mut reg = self.reg_lock(RegistryLockSite::Admin);
            let cred = *reg.actors.get(&actor).ok_or(FsError::PermissionDenied)?;
            let meta = reg.files.get_mut(&ino).ok_or(FsError::NotFound)?;
            // Only the owner (or uid 0) may change attributes.
            if cred.uid != 0 && cred.uid != meta.shadow.uid {
                return Err(FsError::PermissionDenied);
            }
            if let Some(m) = attr.mode {
                if !m.is_valid() {
                    return Err(FsError::InvalidArgument);
                }
                meta.shadow.mode = m;
            }
            if let Some(u) = attr.uid {
                if cred.uid != 0 {
                    return Err(FsError::PermissionDenied);
                }
                meta.shadow.uid = u;
            }
            if let Some(g) = attr.gid {
                meta.shadow.gid = g;
            }
            (meta.dirent, meta.shadow.mode)
        };
        // Refresh the cached attr word in the dirent (kernel write).
        if let Some(loc) = dirent {
            let dref = DirentRef::new(&self.kh, loc);
            if let Ok(d) = dref.load() {
                dref.set_attr(new_mode, d.ftype_raw, d.name.len() as u8)
                    .map_err(|_| FsError::NoSpace)?;
            }
        }
        Ok(())
    }

    /// Ground-truth mode for permission checks (LibFS-visible stat uses the
    /// cached dirent copy; enforcement uses this).
    pub fn shadow_mode(&self, ino: Ino) -> Option<(Mode, u32, u32)> {
        let reg = self.reg_lock(RegistryLockSite::Admin);
        reg.files.get(&ino).map(|f| (f.shadow.mode, f.shadow.uid, f.shadow.gid))
    }

    // -----------------------------------------------------------------
    // Test/diagnostic hooks.
    // -----------------------------------------------------------------

    /// Drains the kernel event log (corruption detections, rollbacks,
    /// lease revocations, and the delegation pool's failure-domain
    /// events — worker deaths/restarts and degraded-mode transitions).
    pub fn take_events(&self) -> Vec<KernelEvent> {
        let mut events = self.events.drain();
        events.extend(self.delegation.take_events());
        events
    }

    /// Kernel events evicted by ring overflow since mount (the bounded
    /// ring's drop-oldest policy; also surfaced via `PathStats`).
    pub fn dropped_event_count(&self) -> u64 {
        self.events.dropped()
    }

    /// Snapshot of the delegation pool's degradation state (DESIGN.md
    /// §16): whether new ops are currently shed to direct access, and the
    /// lifetime enter/exit counts.
    pub fn degraded_mode(&self) -> DegradedMode {
        self.delegation.degraded_mode()
    }

    /// Drains the cumulative phase timings (Figure 8 instrumentation).
    pub fn take_phase_stats(&self) -> PhaseStats {
        std::mem::take(&mut *self.phases.lock())
    }

    /// Accumulates virtual time into a phase counter (crate-internal).
    pub(crate) fn charge_phase(&self, f: impl FnOnce(&mut PhaseStats, Nanos), ns: Nanos) {
        if ns > 0 {
            f(&mut self.phases.lock(), ns);
        }
    }

    /// Starts timing one phase: the virtual time until the returned guard
    /// drops is charged to the counter `slot` picks.
    pub(crate) fn time_phase(&self, slot: fn(&mut PhaseStats) -> &mut Nanos) -> PhaseTimer<'_> {
        PhaseTimer { kernel: self, t0: now_or_zero(), slot }
    }

    /// Free pages remaining (all pools). Drains ripe limbo first so the
    /// ledger never under-counts pages a dropped pin was holding back.
    pub fn free_page_count(&self) -> usize {
        self.gc_reclaim();
        self.pools.iter().map(|p| p.lock().len()).sum()
    }

    /// Pages parked in per-actor allocator caches: granted (provenance
    /// recorded) but not handed out, scrubbed and unmapped. Together with
    /// [`KernelController::free_page_count`] and the pages reachable from
    /// files this accounts for every page — the ledger tests rely on it.
    pub fn cached_page_count(&self) -> usize {
        self.gc_reclaim();
        let caches: Vec<_> = self.caches.lock().values().map(Arc::clone).collect();
        caches.iter().map(|c| c.lock().total).sum()
    }

    /// Whether `ino` currently has a write mapping.
    pub fn writer_of(&self, ino: Ino) -> Option<ActorId> {
        self.reg_lock(RegistryLockSite::Admin).files.get(&ino).and_then(|f| f.writer())
    }

    /// Pages the kernel believes belong to file `ino` (post-verification).
    pub fn pages_of(&self, ino: Ino) -> HashSet<u64> {
        self.prov
            .collect_filter(|_, st| matches!(st, PageProvenance::InFile(f) if f == ino))
            .into_iter()
            .map(|(p, _)| p)
            .collect()
    }

    /// Dirent location helper for tests.
    pub fn dirent_of(&self, ino: Ino) -> Option<DirentLoc> {
        self.reg_lock(RegistryLockSite::Admin).files.get(&ino).and_then(|f| f.dirent)
    }
}

/// See [`KernelController::time_phase`].
pub(crate) struct PhaseTimer<'a> {
    kernel: &'a KernelController,
    t0: Nanos,
    slot: fn(&mut PhaseStats) -> &mut Nanos,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        let dt = now_or_zero().saturating_sub(self.t0);
        self.kernel.charge_phase(|p, ns| *(self.slot)(p) += ns, dt);
    }
}

/// The verifier's window onto kernel state (`trio_verifier::ResourceView`):
/// shadow attributes and mapping state come from the registry guard the
/// caller holds; page/ino provenance from the sharded maps. Page 0 is the
/// kernel-owned superblock; absent entries read as free/unknown.
pub(crate) struct KernelView<'a> {
    pub(crate) reg: &'a Registry,
    pub(crate) prov: &'a ShardedMap<PageProvenance>,
    pub(crate) inos: &'a ShardedMap<InoProvenance>,
}

impl ResourceView for KernelView<'_> {
    fn page_provenance(&self, page: PageId) -> PageProvenance {
        if page.0 == 0 {
            return PageProvenance::Kernel;
        }
        self.prov.get(page.0).unwrap_or(PageProvenance::Free)
    }

    fn ino_provenance(&self, ino: Ino) -> InoProvenance {
        self.inos.get(ino).unwrap_or(InoProvenance::Unknown)
    }

    fn shadow_attr(&self, ino: Ino) -> Option<ShadowAttr> {
        self.reg.files.get(&ino).map(|f| f.shadow)
    }

    fn is_mapped(&self, ino: Ino) -> bool {
        self.reg.files.get(&ino).map(|f| f.is_mapped()).unwrap_or(false)
    }
}
