//! The ArckFS LibFS core: mount, mapping management, path resolution.
//!
//! One [`ArckFs`] instance is one process's (or trust group's) LibFS. It
//! holds only *auxiliary* state; every durable byte lives in the shared
//! core state, reached through the instance's MMU-checked [`NvmHandle`].
//! Control-plane calls (map/unmap/alloc) go to the kernel controller; the
//! data plane — including all metadata updates — is direct NVM access.

use std::sync::Arc;

use trio_fsapi::{FsError, FsResult};
use trio_kernel::mapping::MapTarget;
use trio_kernel::KernelController;
use trio_layout::{CoreFileType, DirPage, DirSlot, DirentLoc, DirentRef, Ino, ROOT_INO};
use trio_nvm::{ActorId, NvmHandle, PageId, ProtError};
use trio_sim::sync::{SimMutex, SimRwLock};
use trio_sim::{cost, in_sim, work, DetHashMap};

use crate::fd::FdTable;
use crate::journal::Journal;
use crate::node::{ChildLink, DirAux, DirEntryAux, FileNode, InodeRead, MapState, NodeInner};
use crate::pool::{InoPool, PagePool};

/// ArckFS tunables (paper §4.5 defaults).
#[derive(Clone, Debug)]
pub struct ArckFsConfig {
    /// Use the kernel delegation pool for large accesses.
    pub delegation: bool,
    /// Stripe file data pages across NUMA nodes.
    pub stripe: bool,
}

impl Default for ArckFsConfig {
    fn default() -> Self {
        ArckFsConfig { delegation: true, stripe: true }
    }
}

impl ArckFsConfig {
    /// The paper's `ArckFS-no-dele` configuration: direct access only, no
    /// striping (single-node placement).
    pub fn no_delegation() -> Self {
        ArckFsConfig { delegation: false, stripe: false }
    }
}

const NODE_SHARDS: usize = 16;
const MAX_RETRIES: usize = 16;
/// Read grants an operation may lose before it asks for the lease.
const READER_PATIENCE: usize = 2;

/// One process's ArckFS LibFS.
pub struct ArckFs {
    pub(crate) kernel: Arc<KernelController>,
    pub(crate) actor: ActorId,
    pub(crate) uid: u32,
    pub(crate) gid: u32,
    pub(crate) h: NvmHandle,
    pub(crate) cfg: ArckFsConfig,
    pub(crate) root: Arc<FileNode>,
    #[allow(clippy::type_complexity, reason = "one sharded map, spelled out once")]
    pub(crate) nodes: Box<[SimRwLock<DetHashMap<Ino, Arc<FileNode>>>]>,
    pub(crate) fds: FdTable,
    pub(crate) pages: PagePool,
    pub(crate) inos: InoPool,
    pub(crate) reclaim: SimMutex<Vec<(Ino, u64)>>,
    pub(crate) journal: Journal,
    /// Shared data-path counters (the kernel's sink, so delegation and
    /// allocator activity land in the same snapshot).
    pub(crate) stats: Arc<trio_nvm::PathStats>,
    /// Bandwidth-collapse knees derived from the device model at mount;
    /// the adaptive policy compares observed node load against these.
    pub(crate) write_knee: u32,
    pub(crate) read_knee: u32,
    /// Cumulative virtual time spent rebuilding auxiliary state from core
    /// state (Figure 8 instrumentation).
    pub(crate) rebuild_ns: std::sync::atomic::AtomicU64,
    /// The page the kernel posts lease recalls on (DESIGN.md §21).
    pub(crate) recall: Arc<trio_kernel::registry::RecallPage>,
}

impl ArckFs {
    /// Mounts: registers with the kernel controller as a new principal.
    pub fn mount(kernel: Arc<KernelController>, uid: u32, gid: u32, cfg: ArckFsConfig) -> Arc<Self> {
        let reg = kernel.register_libfs(uid, gid);
        let root = FileNode::new(ROOT_INO, CoreFileType::Directory, ROOT_INO, None);
        let model = kernel.device().model();
        let (write_knee, read_knee) = (model.collapse_knee(true), model.collapse_knee(false));
        Arc::new(ArckFs {
            h: reg.handle.clone(),
            actor: reg.actor,
            uid,
            gid,
            root,
            nodes: (0..NODE_SHARDS).map(|_| SimRwLock::new(DetHashMap::default())).collect(),
            fds: FdTable::new(),
            pages: PagePool::new(Arc::clone(&kernel), reg.actor),
            inos: InoPool::new(Arc::clone(&kernel), reg.actor),
            reclaim: SimMutex::new(Vec::new()),
            journal: Journal::new(),
            stats: Arc::clone(kernel.path_stats()),
            write_knee,
            read_knee,
            rebuild_ns: std::sync::atomic::AtomicU64::new(0),
            recall: reg.recall,
            cfg,
            kernel,
        })
    }

    /// The LibFS's access-control principal.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// The kernel controller this LibFS talks to.
    pub fn kernel(&self) -> &Arc<KernelController> {
        &self.kernel
    }

    /// The LibFS's NVM window (tests and the attack harness use this for
    /// raw direct access — exactly what a malicious LibFS can do).
    pub fn handle(&self) -> &NvmHandle {
        &self.h
    }

    /// The root directory node.
    pub fn root_node(&self) -> &Arc<FileNode> {
        &self.root
    }

    /// Pages backing this LibFS's rename undo journal, both copies of
    /// every shard (corruption harnesses aim at these; recovery scans
    /// [`Self::journal_page_pairs`]).
    pub fn journal_pages(&self) -> Vec<PageId> {
        self.journal.pages()
    }

    /// Journal `(primary, mirror)` pairs for twin-aware recovery and the
    /// kernel patrol scrubber's twin-repair registration (DESIGN.md §19).
    /// A recovery agent scans them with a privileged handle after the
    /// LibFS dies ([`crate::journal::Journal::recover_pairs`]). In a full
    /// system the kernel would record them at allocation time; here the
    /// harness carries them across the crash.
    pub fn journal_page_pairs(&self) -> Vec<(PageId, PageId)> {
        self.journal.page_pairs()
    }

    /// Registers every mirrored journal shard with the kernel's patrol
    /// scrubber for twin repair (DESIGN.md §19): the kernel learns the
    /// pair, the record's line budget, a body validator, and — crucially —
    /// the shard's own lock, so a repair can never interleave with an
    /// arm/disarm in flight. Shards lazily allocate on their first rename,
    /// so call this after the journal has seen traffic; unallocated shards
    /// are skipped. Returns how many pairs were registered.
    pub fn register_journal_twins(&self) -> usize {
        let mut registered = 0;
        for slot in self.journal.shard_slots() {
            let pair = *slot.lock();
            if let Some((primary, mirror)) = pair {
                if self
                    .kernel
                    .register_journal_twin(
                        self.actor,
                        primary,
                        mirror,
                        crate::journal::record_media_ok,
                        crate::journal::RECORD_LINES,
                        Arc::clone(&slot),
                    )
                    .is_ok()
                {
                    registered += 1;
                }
            }
        }
        registered
    }

    /// Allocates a descriptor directly for a resolved node (FPFS fast
    /// path).
    pub fn open_node(&self, node: Arc<FileNode>, flags: trio_fsapi::OpenFlags) -> trio_fsapi::Fd {
        self.fds.insert(crate::fd::FdEntry { node, flags })
    }

    /// The node behind an open descriptor.
    pub fn fd_node(&self, fd: trio_fsapi::Fd) -> FsResult<Arc<FileNode>> {
        self.fds.get(fd).map(|e| e.node)
    }

    /// Core-state coordinates of `path` — the raw material the attack
    /// harness (§6.5) corrupts: the file's dirent slot, index pages, and
    /// data pages as currently mapped.
    #[allow(clippy::type_complexity, reason = "a debug triple read once by the attack harness")]
    pub fn debug_file_pages(
        &self,
        path: &str,
    ) -> FsResult<(Option<DirentLoc>, Vec<PageId>, Vec<Option<PageId>>)> {
        let node = self.resolve_node(path)?;
        let g = self.ensure_mapped(&node, false)?;
        let loc = node.placement().loc;
        let mut data = g.data_pages.clone();
        if let Some(aux) = &g.dir {
            // Directories grown in place track their pages in the aux
            // tails, not in the (grant-time) NodeInner vector.
            let pages = aux.pages.lock();
            if pages.len() > data.iter().flatten().count() {
                data = pages.iter().map(|p| Some(*p)).collect();
            }
        }
        Ok((loc, g.index_pages.clone(), data))
    }

    // -----------------------------------------------------------------
    // Node interning.
    // -----------------------------------------------------------------

    /// The LibFS's one node for `ino`, found in or added to the node table
    /// with its place refreshed to `(parent, loc)`. A walk comes here only
    /// for an entry that does not carry its child's node yet (read back
    /// from core state, or its node forgotten): the slow path of
    /// [`ArckFs::lookup_child`], paying the shard lock that a carried node
    /// spares (and `place`'s lock when the file has moved).
    pub(crate) fn intern_node(
        &self,
        ino: Ino,
        ftype: CoreFileType,
        parent: Ino,
        loc: DirentLoc,
    ) -> Arc<FileNode> {
        if ino == ROOT_INO {
            return Arc::clone(&self.root);
        }
        let shard = &self.nodes[ino as usize % NODE_SHARDS];
        {
            // Read-locked while the node is known, so concurrent first
            // hits on one file do not serialize.
            let map = shard.read();
            if let Some(n) = map.get(&ino) {
                let place = n.placement();
                if place.parent != parent || place.loc != Some(loc) {
                    // Rename moved the slot: refresh under the write lock.
                    let mut place = n.place.write();
                    place.parent = parent;
                    place.loc = Some(loc);
                }
                return Arc::clone(n);
            }
        }
        let mut map = shard.write();
        if let Some(n) = map.get(&ino) {
            return Arc::clone(n);
        }
        let n = FileNode::new(ino, ftype, parent, Some(loc));
        map.insert(ino, Arc::clone(&n));
        n
    }

    /// Adds the node of a file just created (`FileNode::created`) to the
    /// node table: one write of its shard, made before the file's name is
    /// found in the directory's aux (`publish_entry`), so no lookup has
    /// interned a node for the fresh ino. A node the table still held for
    /// it, of a file gone since, is dropped and forgotten.
    pub(crate) fn insert_node(&self, n: &Arc<FileNode>) {
        let shard = &self.nodes[n.ino as usize % NODE_SHARDS];
        if let Some(old) = shard.write().insert(n.ino, Arc::clone(n)) {
            old.forget();
            old.invalidate();
        }
    }

    pub(crate) fn forget_node(&self, ino: Ino) {
        if ino == ROOT_INO {
            return;
        }
        let shard = &self.nodes[ino as usize % NODE_SHARDS];
        if let Some(n) = shard.write().remove(&ino) {
            n.forget();
            n.invalidate();
        }
    }

    // -----------------------------------------------------------------
    // Mapping.
    // -----------------------------------------------------------------

    /// Ensures `node` is mapped with at least the requested access and
    /// hands back its inode lock, read: the one read of it the operation
    /// takes (DESIGN.md §22 "Every op"). A node already mapped costs that
    /// read alone; otherwise the lock is taken exclusively for the map and
    /// read again once it is done, and a grant lost in between is `Stale`.
    pub(crate) fn ensure_mapped<'n>(
        &self,
        node: &'n FileNode,
        write: bool,
    ) -> FsResult<InodeRead<'n>> {
        let g = node.inner.read();
        if g.map.grants(write) {
            return Ok(g);
        }
        drop(g);
        self.map_node(node, write)?;
        Some(node.inner.read()).filter(|g| g.map.grants(write)).ok_or(FsError::Stale)
    }

    /// The map step of [`ArckFs::ensure_mapped`], under the inode lock
    /// held exclusively. A fresh grant finds the auxiliary state either
    /// still valid — it was maintained under the sequence the grant reports
    /// as its "before" and indexes the pages the grant names, so nobody
    /// else has written the file since (DESIGN.md §22) — or rebuilds it
    /// from core state (paper §4.2 "Building auxiliary state from core
    /// state").
    pub(crate) fn map_node(&self, node: &FileNode, write: bool) -> FsResult<()> {
        let mut g = node.inner.write();
        if g.map.grants(write) {
            return Ok(());
        }
        let target = node.placement().loc.map_or(MapTarget::Root, MapTarget::Dirent);
        node.forget_recall();
        let grant = self.kernel.map(self.actor, target, write)?;
        let map = if write { MapState::Write } else { MapState::Read };
        let reuse = g.seq == Some(grant.seq_before)
            && g.dir.is_some() == (node.ftype == CoreFileType::Directory)
            && g.same_pages(&grant.pages);
        self.stats.record_aux(reuse);
        if reuse {
            g.map = map;
            g.seq = Some(grant.seq);
            g.index_pages = grant.pages.index_pages;
            g.data_pages = grant.pages.data_pages;
            if g.dir.is_none() {
                g.size = grant.size;
            }
            #[cfg(debug_assertions)]
            self.assert_aux_matches_core(node, &g);
            return Ok(());
        }
        let t0 = trio_sim::now_or_zero();
        *g = NodeInner {
            map,
            size: grant.size,
            index_pages: grant.pages.index_pages,
            data_pages: grant.pages.data_pages,
            seq: Some(grant.seq),
            ..NodeInner::unmapped()
        };
        if in_sim() {
            // Rebuilding the per-file page index (the radix tree).
            work(g.data_pages.len() as u64 * cost::INDEX_LEVEL_NS);
        }
        if node.ftype == CoreFileType::Directory {
            let aux = self.build_dir_aux(&g)?;
            g.size = aux.count.load(std::sync::atomic::Ordering::Relaxed);
            g.dir = Some(Arc::new(aux));
        }
        let dt = trio_sim::now_or_zero().saturating_sub(t0);
        self.rebuild_ns.fetch_add(dt, std::sync::atomic::Ordering::Relaxed);
        Ok(())
    }

    /// Drains the cumulative aux-rebuild time (Figure 8 instrumentation).
    pub fn take_rebuild_ns(&self) -> u64 {
        self.rebuild_ns.swap(0, std::sync::atomic::Ordering::Relaxed)
    }

    /// Takes one page from the LibFS's pool (test support: crash-injection
    /// tests hand-drive the journal with a real pool page).
    pub fn debug_take_pool_page(&self) -> PageId {
        self.pages.take(trio_nvm::handle::home_node()).expect("pool page available")
    }

    /// Whether `page` waits in the LibFS's pool (test support: a page of
    /// an unlinked file is there once the kernel has reclaimed it).
    pub fn debug_pool_holds(&self, page: PageId) -> bool {
        self.pages.holds(page)
    }

    /// Scans a directory's data pages into a fresh hash table + tails.
    fn build_dir_aux(&self, g: &NodeInner) -> FsResult<DirAux> {
        let aux = DirAux::new();
        let mut live = 0u64;
        self.scan_dir(
            &g.data_pages,
            true,
            |e| {
                live += 1;
                aux.insert(e);
            },
            |tail| {
                aux.pages.lock().push(tail.page);
                aux.tails.lock().push(tail);
            },
        )?;
        aux.count.store(live, std::sync::atomic::Ordering::Relaxed);
        *aux.index_tail.lock() = (g.index_pages.clone(), Self::index_tail_slot(g));
        Ok(aux)
    }

    /// The next free entry slot in the last index page: the first one no
    /// data page uses.
    fn index_tail_slot(g: &NodeInner) -> usize {
        let full = trio_layout::chain_capacity(g.index_pages.len().saturating_sub(1));
        g.data_pages.len() - full
    }

    /// Reads a directory's core state page by page: hands every live entry
    /// to `entry`, then the page with its free slots to `page_done`.
    /// `timed` charges what a rebuild costs — the bulk reads and the
    /// per-entry work; the debug cross-check of a reuse runs untimed.
    fn scan_dir(
        &self,
        data_pages: &[Option<PageId>],
        timed: bool,
        mut entry: impl FnMut(DirEntryAux),
        mut page_done: impl FnMut(crate::node::PageTail),
    ) -> FsResult<()> {
        for page in data_pages.iter().flatten() {
            // Timed bulk read: rebuilding costs real NVM bandwidth.
            let load = if timed { DirPage::load_timed } else { DirPage::load };
            let dir_page = load(&self.h, *page).map_err(Self::fault)?;
            let mut free = Vec::new();
            for slot in dir_page.slots() {
                match slot {
                    DirSlot::Free(loc) => free.push(loc.slot),
                    // No aux over a page with a hole the media tore in it.
                    DirSlot::Unreadable(_, cause) => return Err(Self::fault(cause)),
                    DirSlot::Live(loc, d, _) => {
                        if timed && in_sim() {
                            work(cost::REBUILD_ENTRY_NS);
                        }
                        // (Verifier-grade garbage is skipped defensively.)
                        if let (Some(ftype), Some(name)) = (d.ftype(), d.name_str()) {
                            let name = name.to_string();
                            let node = ChildLink::default();
                            entry(DirEntryAux { name, ino: d.ino, loc, ftype, linked: 0, node });
                        }
                    }
                }
            }
            page_done(crate::node::PageTail { page: *page, free });
        }
        Ok(())
    }

    /// The oracle of the reuse rule, in every debug build: what a reuse
    /// kept must be what a rebuild from core state would produce. Reads
    /// untimed and takes no sim lock, so debug and release runs keep one
    /// timeline. The caller holds the inode lock exclusively, so nothing
    /// holds a lock inside the aux.
    #[cfg(debug_assertions)]
    fn assert_aux_matches_core(&self, node: &FileNode, g: &NodeInner) {
        // (A regular file's page index is the grant's page list, which the
        // reuse rule has just compared.)
        let Some(aux) = &g.dir else {
            return;
        };
        let key = |e: &DirEntryAux| {
            (e.name.clone(), e.ino, e.loc.page, e.loc.slot, e.ftype == CoreFileType::Directory)
        };
        let (mut entries, mut tails) = (Vec::new(), Vec::new());
        // (A fault is the lease protocol's business, not the oracle's.)
        let scanned =
            self.scan_dir(&g.data_pages, false, |e| entries.push(key(&e)), |t| tails.push(t));
        if scanned.is_err() {
            return;
        }
        entries.sort();
        let (kept, kept_tails) = aux.debug_contents(key);
        assert_eq!(kept, entries, "ino {}: reused entries", node.ino);
        assert_eq!(aux.count.load(std::sync::atomic::Ordering::Relaxed), entries.len() as u64);
        let sorted = |t: &crate::node::PageTail| {
            let mut free = t.free.clone();
            free.sort_unstable();
            (t.page, free)
        };
        let tails: Vec<_> = tails.iter().map(sorted).collect();
        let kept_tails: Vec<_> = kept_tails.iter().map(sorted).collect();
        assert_eq!(kept_tails, tails, "ino {}: reused tails", node.ino);
        assert_eq!(
            *aux.index_tail.lock_uncontended(),
            (g.index_pages.clone(), Self::index_tail_slot(g)),
            "ino {}: reused index tail",
            node.ino
        );
    }

    /// Converts an MMU fault into the retryable error. Media errors
    /// (poisoned cache lines) are *not* retryable: remapping cannot cure
    /// them, so they surface as [`FsError::Corrupted`] instead of looping.
    pub(crate) fn fault(e: ProtError) -> FsError {
        match e {
            ProtError::NotMapped | ProtError::ReadOnly => FsError::Stale,
            ProtError::Poisoned => FsError::Corrupted,
            // A revoked/updated grant mid-flight is the submitter's own
            // contract breach; remapping cannot cure it, so it is a clean
            // error, not `Stale` (which would trigger remap-and-retry).
            ProtError::GrantRevoked => FsError::InvalidArgument,
            _ => FsError::InvalidArgument,
        }
    }

    /// Runs `f` with `node` mapped, invalidating + remapping on revocation
    /// faults ([`FsError::Stale`]) — the LibFS-side half of the lease
    /// protocol. Every operation on a file or directory comes through
    /// here, so this is also where the LibFS looks at its recall page
    /// (DESIGN.md §21), and where the operation takes the node's gate to
    /// keep the grant from being yielded under it. `f` gets the node's
    /// inode lock read by [`ArckFs::ensure_mapped`] and reads the node
    /// through it; only a path that changes the node's aux state drops it
    /// for the write lock.
    pub(crate) fn with_mapped<'n, R>(
        &self,
        node: &'n FileNode,
        write: bool,
        f: impl FnMut(&Self, InodeRead<'n>) -> FsResult<R>,
    ) -> FsResult<R> {
        self.poll_recalls();
        let _op = node.gate.read();
        self.retry_mapped(node, write, f)
    }

    /// [`ArckFs::with_mapped`] for a caller that holds `node`'s gate.
    pub(crate) fn retry_mapped<'n, R>(
        &self,
        node: &'n FileNode,
        write: bool,
        mut f: impl FnMut(&Self, InodeRead<'n>) -> FsResult<R>,
    ) -> FsResult<R> {
        // A reader has no lease: a writer can take the file back while the
        // aux is still being built (`Stale` from the mapping step itself),
        // and one that re-maps without rebuilding (DESIGN.md §22) comes back
        // faster than any rebuild. An op that has lost its read grant
        // `READER_PATIENCE` times therefore asks for the write grant, whose
        // lease lets it finish, if the LibFS may have it.
        let (mut lost, mut may_lease) = (0, !write);
        for _ in 0..MAX_RETRIES {
            let lease = write || (may_lease && lost >= READER_PATIENCE);
            let mapped = match self.ensure_mapped(node, lease) {
                Err(FsError::PermissionDenied) if lease && !write => {
                    may_lease = false;
                    continue;
                }
                mapped => mapped,
            };
            match mapped.and_then(|g| f(self, g)) {
                Err(FsError::Stale) => {
                    node.invalidate();
                    lost += 1;
                }
                other => return other,
            }
        }
        Err(FsError::Stale)
    }

    // -----------------------------------------------------------------
    // Path resolution.
    // -----------------------------------------------------------------

    /// Resolves the directory named by `comps` (all components must be
    /// directories), mapping each along the path (paper §4.1).
    pub(crate) fn resolve_dir(&self, comps: &[&str]) -> FsResult<Arc<FileNode>> {
        let mut cur = Arc::clone(&self.root);
        for c in comps {
            let child = self.lookup_child(&cur, c)?.ok_or(FsError::NotFound)?;
            if child.ftype != CoreFileType::Directory {
                return Err(FsError::NotDir);
            }
            cur = child;
        }
        Ok(cur)
    }

    /// Resolves `path` into `(parent dir node, final name)`.
    pub(crate) fn resolve_parent<'p>(&self, path: &'p str) -> FsResult<(Arc<FileNode>, &'p str)> {
        let (dir_comps, name) = trio_fsapi::path::split_parent(path)?;
        let parent = self.resolve_dir(&dir_comps)?;
        Ok((parent, name))
    }

    /// Looks up one child in a directory's aux table, validating liveness
    /// against core state so revoked mappings are detected. A hit takes the
    /// directory's inode lock once, shared, and probes one bucket: the
    /// entry carries the child's node. Only an unmapped directory, or a
    /// probe that finds the grant gone (`Stale`), takes the re-mapping
    /// loop of [`ArckFs::retry_mapped`].
    pub(crate) fn lookup_child(
        &self,
        dir: &Arc<FileNode>,
        name: &str,
    ) -> FsResult<Option<Arc<FileNode>>> {
        self.poll_recalls();
        let _op = dir.gate.read();
        {
            let g = dir.inner.read();
            if g.map != MapState::Unmapped {
                match self.probe_child(dir, &g, name) {
                    Err(FsError::Stale) => {}
                    found => return found,
                }
                drop(g);
                dir.invalidate();
            }
        }
        self.retry_mapped(dir, false, |fs, g| fs.probe_child(dir, &g, name))
    }

    /// The body of [`ArckFs::lookup_child`] under the directory's inode
    /// lock `g`.
    fn probe_child(
        &self,
        dir: &FileNode,
        g: &NodeInner,
        name: &str,
    ) -> FsResult<Option<Arc<FileNode>>> {
        let Some(aux) = g.dir.as_ref() else {
            return Err(FsError::Stale);
        };
        // A miss, or a name reserved by a create still in flight (ino 0,
        // its dirent not yet published): nothing to intern. A stale aux
        // must not produce false negatives.
        let Some(e) = aux.lookup(name).filter(|e| e.ino != 0) else {
            self.probe_dir(g)?;
            return Ok(None);
        };
        // Probe the dirent's ino: faults if our mapping was revoked; reads
        // 0 if the entry vanished under us.
        let live = DirentRef::new(&self.h, e.loc).ino().map_err(Self::fault)?;
        if live != e.ino {
            return Err(FsError::Stale);
        }
        if let Some(n) = e.node.get() {
            #[cfg(debug_assertions)]
            {
                let place = *n.place.peek();
                assert!(
                    place.parent == dir.ino && place.loc == Some(e.loc),
                    "ino {}: carried node placed at {place:?}, its entry in {} at {:?}",
                    e.ino,
                    dir.ino,
                    e.loc
                );
            }
            return Ok(Some(Arc::clone(n)));
        }
        let n = self.intern_node(e.ino, e.ftype, dir.ino, e.loc);
        e.node.set(&n);
        Ok(Some(n))
    }

    /// One timed read of a directory's core state before an answer from its
    /// aux alone: it faults (`Stale`) if another actor took the grant back,
    /// so the caller re-maps instead of answering from what it last saw.
    pub(crate) fn probe_dir(&self, g: &NodeInner) -> FsResult<()> {
        if let Some(p) = g.index_pages.first() {
            self.h.read_u64(*p, 0).map_err(Self::fault)?;
        }
        Ok(())
    }

    /// Resolves a full path to a node.
    pub(crate) fn resolve_node(&self, path: &str) -> FsResult<Arc<FileNode>> {
        let comps = trio_fsapi::path::components(path)?;
        if comps.is_empty() {
            return Ok(Arc::clone(&self.root));
        }
        let (dir, name) = (self.resolve_dir(&comps[..comps.len() - 1])?, comps[comps.len() - 1]);
        self.lookup_child(&dir, name)?.ok_or(FsError::NotFound)
    }

    // -----------------------------------------------------------------
    // Sharing-protocol surface (benchmarks and tests).
    // -----------------------------------------------------------------

    /// Voluntarily releases this LibFS's mapping of `path` (Figure 2 step
    /// 5). The next cross-LibFS map triggers verification.
    pub fn release_path(&self, path: &str) -> FsResult<()> {
        let node = self.resolve_node(path)?;
        self.yield_node(&node, false)
    }

    /// Gives `node`'s grant back to the kernel once the operations sibling
    /// threads have in flight on it are through — the one way a grant is
    /// yielded, so the aux state is quiescent and can be kept for the next
    /// map (DESIGN.md §22). `recalled`: only to honour the recall parked on
    /// the node, and not if a descriptor was opened meanwhile. The caller
    /// must hold no gate itself.
    pub(crate) fn yield_node(&self, node: &FileNode, recalled: bool) -> FsResult<()> {
        let _drained = node.gate.write();
        if recalled && !node.claim_recall() {
            return Ok(());
        }
        self.flush_reclaim()?;
        match self.kernel.release(self.actor, node.ino) {
            // A by-construction mapping (file created and never kernel-
            // mapped) has nothing to release at the kernel (nor a grant
            // sequence to keep its aux under) — the kernel will
            // adopt-and-verify the file when anyone maps it.
            Ok(()) | Err(FsError::NotFound) => {}
            Err(e) => return Err(e),
        }
        node.retire();
        Ok(())
    }

    /// The recall check (DESIGN.md §21): one relaxed load of the shared
    /// recall word — no trap, no virtual time — and nothing else unless
    /// another LibFS is waiting.
    #[inline]
    pub(crate) fn poll_recalls(&self) {
        if self.recall.pending() {
            self.honour_recalls();
        }
    }

    /// Yields every recalled grant no open descriptor is using; a pinned
    /// one stays until its last `close` (or lease expiry). Best effort
    /// throughout: a recall the LibFS fails to honour costs the waiter
    /// the rest of the lease, never more.
    #[cold]
    fn honour_recalls(&self) {
        for ino in self.recall.take() {
            if let Some(node) = self.node_by_ino(ino) {
                if node.park_recall() {
                    let _ = self.yield_node(&node, true);
                }
            }
        }
    }

    /// Commits `path`'s current state as the new rollback checkpoint
    /// (paper §4.3's `commit` call).
    pub fn commit_path(&self, path: &str) -> FsResult<()> {
        let node = self.resolve_node(path)?;
        self.kernel.commit(self.actor, node.ino)
    }

    /// Unmounts this LibFS (process exit): flushes pending reclamation,
    /// returns pooled pages to the kernel, and unregisters — which makes
    /// the kernel verify every file this process left dirty.
    pub fn unmount(&self) {
        let _ = self.flush_reclaim();
        self.pages.drain_to_kernel();
        self.kernel.unregister(self.actor);
        for shard in self.nodes.iter() {
            for (_, n) in shard.write().drain() {
                n.invalidate();
            }
        }
        self.root.invalidate();
    }

    /// Flushes the batched unlink reclamation queue.
    pub(crate) fn flush_reclaim(&self) -> FsResult<()> {
        let items: Vec<(Ino, u64)> = {
            let mut q = self.reclaim.lock();
            if q.is_empty() {
                return Ok(());
            }
            q.drain(..).collect()
        };
        let recycled = self.kernel.reclaim_batch(self.actor, &items)?;
        self.pages.put_many(&recycled);
        Ok(())
    }
}
