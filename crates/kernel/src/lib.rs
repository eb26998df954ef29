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

pub(crate) mod alloc;
pub mod delegation;
pub mod grant;
pub(crate) mod obs;
pub mod mapping;
pub(crate) mod pagetable;
pub mod quarantine;
pub mod registry;
pub mod retry;
pub mod scrub;
pub mod shard;

pub use delegation::DegradedMode;
pub use grant::{GrantRef, GrantTable};
pub use pagetable::MmuAudit;
pub use retry::RetryPolicy;
pub use scrub::{MediaStats, MediaStatsSnapshot, PatrolHandle, ScrubReport};
pub use shard::EpochPin;

use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use trio_fsapi::{FsError, FsResult, Mode, SetAttr};
use trio_layout::{
    walk_file, CoreFileType, DirPage, DirSlot, DirentLoc, DirentRef, FileHead, FilePages, Ino,
    SuperblockRef, DIRENT_SIZE, ROOT_INO,
};
use trio_nvm::{
    ActorId, NodeId, NvmDevice, NvmHandle, PageId, PagePerm, PathStats, RegistryLockSite,
    KERNEL_ACTOR,
};
use trio_sim::plock::Mutex as PlMutex;
use trio_sim::sync::SimMutexGuard;
use trio_sim::{
    cost, in_sim, now_or_zero, sync::SimMutex, work, DetHashMap, DetHashSet, Nanos, MILLIS,
};
use trio_verifier::{
    InoProvenance, PageProvenance, ResourceView, ShadowAttr, Verifier, VerifyRequest, Violation,
};

use alloc::{PageAllocator, PutBack};
use delegation::DelegationPool;
use pagetable::PageTableLocks;
use quarantine::ResilienceStats;
use registry::{Credentials, KernelEvent, Registry};
use scrub::JournalTwin;
use shard::{EventRing, ShardedMap, EVENT_RING_CAPACITY};
use trio_layout::superblock::SUPERBLOCK_PAGE;
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
    pub(crate) prov: Arc<ShardedMap<PageProvenance>>,
    /// Ino provenance for every allocated ino (same sharding discipline).
    pub(crate) inos: ShardedMap<InoProvenance>,
    /// Every frame that is not in a file or a LibFS's hands: pools,
    /// per-actor caches, checkpoint pins, epoch limbo, retirement.
    pub(crate) alloc: PageAllocator,
    /// The one bounded kernel event ring (drop-oldest; replaces the old
    /// unbounded `Registry::events` vec), shared with the delegation pool.
    pub(crate) events: Arc<EventRing>,
    /// Inode number allocator (next unused).
    next_ino: SimMutex<u64>,
    pub(crate) phases: PhaseCounters,
    /// One page-table lock per registered actor (`pagetable.rs`).
    pub(crate) page_tables: PageTableLocks,
    delegation: DelegationPool,
    stats: Arc<PathStats>,
    /// Detection/containment/repair counters (DESIGN.md §14), surfaced
    /// alongside [`PathStats`].
    resilience: Arc<ResilienceStats>,
    /// Mirror of the registry's quarantined-actor set, readable without
    /// the (virtual-time) registry lock so the allocator fast path can
    /// refuse a contained LibFS without giving up its lock-free design.
    pub(crate) quarantined_mirror: PlMutex<DetHashSet<ActorId>>,
    /// Serializes every kernel write to the superblock record so the
    /// twin-repair scrub (DESIGN.md §19) cannot interleave with a field
    /// update. **Leaf lock**: holders must not take the registry.
    pub(crate) sb_lock: SimMutex<()>,
    /// Media-fault counters (scrub/repair/retire; DESIGN.md §19).
    pub(crate) media: Arc<MediaStats>,
    /// The patrol's cumulative media-fault observations per page.
    pub(crate) fault_counts: SimMutex<DetHashMap<u64, u32>>,
    /// Registered journal mirror pairs, keyed by *both* page ids.
    pub(crate) journal_twins: PlMutex<DetHashMap<u64, JournalTwin>>,
    /// Patrol position; wraps over the device.
    pub(crate) scrub_cursor: AtomicU64,
    config: KernelConfig,
}

trio_sim::counters! {
    /// Cumulative virtual time spent in each sharing-protocol phase (paper
    /// Figure 8's breakdown), live. Relaxed atomics: telemetry charges no
    /// virtual time and serializes nobody.
    pub(crate) struct PhaseCounters => pub struct PhaseStats {
        /// Programming the MMU on the map path.
        map_ns,
        /// Unmapping on release/revocation.
        unmap_ns,
        /// Integrity verification.
        verify_ns,
        /// Checkpointing before write grants.
        checkpoint_ns,
        /// Mappers blocked on another actor's write lease: all waits summed…
        lease_wait_ns,
        /// …and the longest single one.
        lease_wait_max_ns,
    }
}

impl Copy for PhaseStats {}

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
        // else is free.
        let replica = superblock_replica_page(topo.total_pages());
        let kernel_owned = move |p: PageId| p == SUPERBLOCK_PAGE || p == replica;
        let (prov, inos) = (ShardedMap::new(), ShardedMap::new());
        Self::assemble(dev, prov, inos, kernel_owned, false, ROOT_INO + 1, config)
    }

    /// The controller over books `format` or `recover` has filled in;
    /// every page not `in_use` is free (`stale`: and needs scrubbing, see
    /// [`PageAllocator::new`]), everything volatile starts empty.
    fn assemble(
        dev: Arc<NvmDevice>,
        prov: ShardedMap<PageProvenance>,
        inos: ShardedMap<InoProvenance>,
        in_use: impl Fn(PageId) -> bool,
        stale: bool,
        next_ino: u64,
        config: KernelConfig,
    ) -> Arc<Self> {
        // Root is "in use" at a synthetic location; the move rule
        // (`Verifier::still_at`) keeps it there.
        inos.insert(ROOT_INO, InoProvenance::InUse(DirentLoc { page: PageId(0), slot: 0 }));
        let stats = Arc::new(PathStats::new());
        let events = Arc::new(EventRing::new(EVENT_RING_CAPACITY));
        let delegation = DelegationPool::with_stats(
            Arc::clone(&dev),
            config.delegation_threads_per_node,
            Arc::clone(&stats),
            Arc::clone(&events),
        );
        let prov = Arc::new(prov);
        let media = Arc::new(MediaStats::new());
        let alloc = PageAllocator::new(
            Arc::clone(&dev),
            Arc::clone(&prov),
            Arc::clone(&stats),
            Arc::clone(&media),
            in_use,
            stale,
        );
        Arc::new(KernelController {
            verifier: Verifier::new(NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR)),
            kh: NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR),
            dev,
            registry: SimMutex::new(Registry::new()),
            prov,
            inos,
            alloc,
            events,
            next_ino: SimMutex::new(next_ino),
            phases: PhaseCounters::new(),
            page_tables: PageTableLocks::default(),
            delegation,
            stats,
            resilience: Arc::new(ResilienceStats::new()),
            quarantined_mirror: PlMutex::new(DetHashSet::default()),
            sb_lock: SimMutex::new(()),
            media,
            fault_counts: SimMutex::new(DetHashMap::default()),
            journal_twins: PlMutex::new(DetHashMap::default()),
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
    ///    paper §4.3's trim policy applied at mount time; a dirent under a
    ///    poisoned line is lost alone (its slot zeroed, which heals the
    ///    line, and counted in [`MediaStats`]`::unrecoverable`) while its
    ///    page's other entries are walked as usual (DESIGN.md §19),
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
        let mut used: DetHashSet<u64> = DetHashSet::default();
        used.insert(SUPERBLOCK_PAGE.0);
        used.insert(superblock_replica_page(dev.topology().total_pages()).0);

        // Breadth-first walk of the committed tree. Queue entries carry the
        // dirent location so broken files can be trimmed in place.
        let root_fi = sb.root_first_index().map_err(|_| FsError::Corrupted)?;
        let mut queue: VecDeque<(Ino, u64, CoreFileType, Option<DirentLoc>)> = VecDeque::new();
        queue.push_back((ROOT_INO, root_fi, CoreFileType::Directory, None));
        let mut seen: DetHashSet<Ino> = DetHashSet::default();
        seen.insert(ROOT_INO);
        let mut lost_slots = 0u64;
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
                let Ok(page) = DirPage::load(&kh, *dp) else {
                    continue;
                };
                for slot in page.slots() {
                    match slot {
                        DirSlot::Free(_) => {}
                        // The media lost this entry and nothing holds a copy:
                        // a whole-slot store heals the line, the neighbours
                        // keep their files, the loss is counted.
                        DirSlot::Unreadable(loc, _) => {
                            let _ = DirentRef::new(&kh, loc).restore_image(&[0; DIRENT_SIZE]);
                            lost_slots += 1;
                        }
                        DirSlot::Live(loc, d, _) => match d.ftype() {
                            Some(cft) if d.ino < next_ino && seen.insert(d.ino) => {
                                live += 1;
                                inos.insert(d.ino, InoProvenance::InUse(loc));
                                queue.push_back((d.ino, d.first_index, cft, Some(loc)));
                            }
                            // Garbage type, fabricated ino or double
                            // reference: not to be trusted — clear it.
                            _ => {
                                let _ = DirentRef::new(&kh, loc).clear();
                            }
                        },
                    }
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

        // The free pools are the complement of the walked set, scrubbed.
        let in_use = move |p: PageId| used.contains(&p.0);
        let kernel = Self::assemble(dev, prov, inos, in_use, true, next_ino, config);
        kernel.media.record_unrecoverable(lost_slots);
        Ok(kernel)
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
        let _pin = self.alloc.epoch_pin();
        let reg = self.reg_lock(RegistryLockSite::Fsck);
        let mut bad = Vec::new();
        let mut targets: Vec<(Ino, Option<DirentLoc>)> =
            self.live_dirents().into_iter().map(|(i, loc)| (i, Some(loc))).collect();
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
        self.alloc.epoch_pin()
    }

    /// Freed pages currently waiting in reclamation limbo.
    pub fn limbo_page_count(&self) -> usize {
        self.alloc.limbo_count()
    }

    /// Freed pages a live checkpoint still pins as rollback images.
    pub fn deferred_page_count(&self) -> usize {
        self.alloc.deferred_count()
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
        self.alloc.add_actor(actor);
        self.page_tables.add(actor);
        self.page_table(actor).lock().remap_superblock_window();
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
        // worker (serving a first send or a client retry) that touches one
        // of its requests after this point faults cleanly instead of
        // reading a buffer whose owner is gone.
        self.delegation.grants().revoke_actor(actor);
        // From here on the actor can allocate nothing.
        self.alloc.forget_actor(actor);
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
        let window = pagetable::superblock_window(&self.dev).map(|p| (p, None));
        self.page_table(actor).lock().apply(&window);
        self.page_tables.remove(actor);
    }

    // -----------------------------------------------------------------
    // Allocation (batched; LibFSes keep local pools).
    // -----------------------------------------------------------------

    /// Allocates `n` pages, preferring `node`, mapping them read-write to
    /// `actor` (a LibFS's private pool, ready for direct use). Only a
    /// registered, unquarantined actor is served; which pages, and from
    /// where, is [`PageAllocator::alloc`]'s business (no registry lock).
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
        let out = self.alloc.alloc(actor, n, node)?;
        // `out` has left the allocator's books: a frame the device will not
        // map (only one out of its range) sends the whole grant back the one
        // way, whose scrub drops the mappings made so far. The PTE writes
        // are priced below, outside the page-table lock: pool refills of one
        // LibFS's threads have never serialized on anything.
        let pt = self.page_table(actor);
        let ptes = pt.lock();
        let mapped = out.iter().all(|p| ptes.remap(*p, PagePerm::Write).is_ok());
        drop(ptes);
        if !mapped {
            self.alloc.put_back(&out, PutBack::Cache(actor));
            return Err(FsError::NoSpace);
        }
        self.stats.record_alloc_mapped(out.len());
        if in_sim() {
            work(out.len() as u64 * cost::MMU_PROGRAM_PAGE_NS);
        }
        Ok(out)
    }

    /// Returns pages to the allocator. A page must be in the caller's pool
    /// (`AllocatedTo`) or belong to a file the caller is reclaiming through
    /// [`KernelController::reclaim_file`]; anything else is refused. The
    /// pages go back through [`PageAllocator::put_back`], bound for the
    /// actor's allocator cache: scrubbed, tagged, mapped nowhere.
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
        self.alloc.put_back(pages, PutBack::Cache(actor));
        Ok(())
    }

    /// Allocates `n` fresh inode numbers to `actor` for future creates.
    pub fn alloc_inos(&self, actor: ActorId, n: u64) -> FsResult<Vec<Ino>> {
        self.trap();
        if in_sim() {
            work(cost::ALLOCATOR_OP_NS);
        }
        self.check_not_quarantined(actor)?;
        if !self.alloc.knows(actor) {
            return Err(FsError::PermissionDenied);
        }
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

    /// Drains the kernel event log, oldest first (corruption detections,
    /// rollbacks, lease revocations, and the delegation pool's
    /// failure-domain events — worker deaths/restarts and degraded-mode
    /// transitions).
    pub fn take_events(&self) -> Vec<KernelEvent> {
        self.events.drain()
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
        let p = &self.phases;
        let take = |c: &AtomicU64| c.swap(0, Ordering::Relaxed);
        PhaseStats {
            map_ns: take(&p.map_ns),
            unmap_ns: take(&p.unmap_ns),
            verify_ns: take(&p.verify_ns),
            checkpoint_ns: take(&p.checkpoint_ns),
            lease_wait_ns: take(&p.lease_wait_ns),
            lease_wait_max_ns: take(&p.lease_wait_max_ns),
        }
    }

    /// Accumulates virtual time into the phase counter `slot` picks.
    pub(crate) fn charge_phase(&self, slot: PhaseSlot, ns: Nanos) {
        slot(&self.phases).fetch_add(ns, Ordering::Relaxed);
    }

    /// Starts timing one phase: the virtual time until the returned guard
    /// drops is charged to the counter `slot` picks.
    pub(crate) fn time_phase(&self, slot: PhaseSlot) -> PhaseTimer<'_> {
        PhaseTimer { kernel: self, t0: now_or_zero(), slot }
    }

    /// Free pages remaining (all pools). Drains ripe limbo first so the
    /// ledger never under-counts pages a dropped pin was holding back.
    pub fn free_page_count(&self) -> usize {
        self.alloc.free_count()
    }

    /// Pages parked in per-actor allocator caches: granted (provenance
    /// recorded) but not handed out, scrubbed and unmapped. Together with
    /// [`KernelController::free_page_count`] and the pages reachable from
    /// files this accounts for every page — the ledger tests rely on it.
    pub fn cached_page_count(&self) -> usize {
        self.alloc.cached_count()
    }

    /// Whether `ino` currently has a write mapping.
    pub fn writer_of(&self, ino: Ino) -> Option<ActorId> {
        self.reg_lock(RegistryLockSite::Admin).files.get(&ino).and_then(|f| f.writer())
    }

    /// Every ino the books hold live at a dirent slot (so not the root),
    /// with the slot, in ino order (a deterministic audit order).
    pub fn live_dirents(&self) -> Vec<(Ino, DirentLoc)> {
        let known = self.inos.collect_filter(|i, _| i != ROOT_INO).into_iter();
        known.filter_map(|(i, p)| if let InoProvenance::InUse(l) = p { Some((i, l)) } else { None }).collect()
    }

    /// The children `ino`'s checkpoint recorded: its I3 baseline.
    pub fn checkpoint_children(&self, ino: Ino) -> Option<HashSet<Ino>> {
        let reg = self.reg_lock(RegistryLockSite::Admin);
        Some(reg.files.get(&ino)?.checkpoint.as_ref()?.children.clone())
    }

    /// Pages the kernel believes belong to file `ino` (post-verification).
    pub fn pages_of(&self, ino: Ino) -> HashSet<u64> {
        self.prov
            .collect_filter(|_, st| matches!(st, PageProvenance::InFile(f) if f == ino))
            .into_iter()
            .map(|(p, _)| p)
            .collect()
    }
}

/// Picks one phase counter.
pub(crate) type PhaseSlot = fn(&PhaseCounters) -> &AtomicU64;

/// See [`KernelController::time_phase`].
pub(crate) struct PhaseTimer<'a> {
    kernel: &'a KernelController,
    t0: Nanos,
    slot: PhaseSlot,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        let dt = now_or_zero().saturating_sub(self.t0);
        self.kernel.charge_phase(self.slot, dt);
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
