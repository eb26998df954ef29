//! Per-file **auxiliary state** (paper §4.2, Figure 4).
//!
//! Everything here is private to one LibFS and rebuilt from core state on
//! demand — or kept across a voluntary release while the kernel certifies
//! that nobody else wrote the file (DESIGN.md §22): the per-file page index
//! (the paper's radix tree — a flat vector here, same O(1) lookup role), the
//! readers-writer inode lock, the range lock for disjoint concurrent writes,
//! and for directories the resizable hash table, per-data-page insertion
//! tails, and the index tail.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use trio_layout::{CoreFileType, DirentLoc, Ino};
use trio_nvm::PageId;
use trio_sim::sync::{SimCondvar, SimMutex, SimRwLock, SimRwLockReadGuard};
use trio_sim::{cost, in_sim, work};

/// How (and whether) the file is currently mapped by this LibFS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapState {
    /// No valid mapping (initial, or revoked by the kernel).
    Unmapped,
    /// Read grant held.
    Read,
    /// Exclusive write grant held.
    Write,
}

impl MapState {
    /// Whether this mapping serves an access that writes (`write`) or only
    /// reads.
    pub fn grants(self, write: bool) -> bool {
        matches!((self, write), (MapState::Write, _) | (MapState::Read, false))
    }
}

/// A node's inode lock read: what `ArckFs::ensure_mapped` hands an
/// operation, which reads its aux state through it and takes the lock no
/// second time.
pub(crate) type InodeRead<'a> = SimRwLockReadGuard<'a, NodeInner>;

/// Mutable aux state guarded by the per-file readers-writer "inode lock".
pub struct NodeInner {
    /// Mapping state.
    pub map: MapState,
    /// Cached size (bytes; directories: live entries).
    pub size: u64,
    /// Cached mtime.
    pub mtime: u64,
    /// Index pages in chain order.
    pub index_pages: Vec<PageId>,
    /// The per-file page index (paper: radix tree): logical page -> data
    /// page.
    pub data_pages: Vec<Option<PageId>>,
    /// Directory aux (directories only; present while mapped or retained).
    pub dir: Option<Arc<DirAux>>,
    /// The kernel grant sequence (DESIGN.md §22) the state above was last
    /// maintained under. Kept with it across a voluntary release (`map` is
    /// `Unmapped` then); `None` when no grant vouches for it — a file
    /// written by construction, or nothing retained.
    pub seq: Option<u64>,
}

impl NodeInner {
    pub(crate) fn unmapped() -> Self {
        NodeInner {
            map: MapState::Unmapped,
            size: 0,
            mtime: 0,
            index_pages: Vec::new(),
            data_pages: Vec::new(),
            dir: None,
            seq: None,
        }
    }

    /// Whether the retained state indexes exactly the pages a new grant
    /// names. (A directory grows in its aux, not in the grant-time vectors.)
    pub(crate) fn same_pages(&self, pages: &trio_layout::FilePages) -> bool {
        match &self.dir {
            Some(aux) => {
                aux.index_tail.lock().0 == pages.index_pages
                    && pages.data_pages.iter().flatten().eq(aux.pages.lock().iter())
            }
            None => self.index_pages == pages.index_pages && self.data_pages == pages.data_pages,
        }
    }
}

/// One file's auxiliary state. Shared via `Arc` by the fd table, the name
/// caches, and path resolution.
pub struct FileNode {
    /// Inode number.
    pub ino: Ino,
    /// Type.
    pub ftype: CoreFileType,
    /// Parent ino and dirent slot (slot is `None` for root). Renames and
    /// interns move it under the lock; everyone else reads it through
    /// [`FileNode::placement`].
    pub(crate) place: SimRwLock<Placement>,
    /// The inode lock (paper: readers-writer).
    pub inner: SimRwLock<NodeInner>,
    /// Range lock for concurrent disjoint writes (regular files).
    pub range: RangeLock,
    /// Held shared by every operation on the file for as long as it runs
    /// (retries included), exclusively by a thread about to yield the
    /// grant to a lease recall (DESIGN.md §21): threads of one LibFS share
    /// its grants, and a hand-over must find none of them half-way through
    /// an update. FIFO-fair, so a yield waits for the operations in flight
    /// and goes before later ones. Costs no virtual time.
    pub(crate) gate: SimRwLock<()>,
    /// Open descriptors on this file. While non-zero the grant is *pinned*:
    /// a lease recall is not honoured but parked…
    open_fds: AtomicU32,
    /// …here, and honoured by whoever closes the last descriptor.
    recall_parked: AtomicBool,
    /// Dropped from the LibFS's node table (`ArckFs::forget_node`): a
    /// directory entry that still carries the node no longer hands it out.
    forgotten: AtomicBool,
}

/// Where the file hangs in the tree.
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    /// Parent directory ino.
    pub parent: Ino,
    /// This file's dirent slot (None for root).
    pub loc: Option<DirentLoc>,
}

impl FileNode {
    /// Creates an unmapped node.
    pub fn new(ino: Ino, ftype: CoreFileType, parent: Ino, loc: Option<DirentLoc>) -> Arc<Self> {
        Self::with_inner(ino, ftype, Placement { parent, loc }, NodeInner::unmapped())
    }

    /// The node of a file this LibFS has just created at `loc`: built
    /// whole, writable *by construction* — its dirent page is mapped
    /// through the parent's write grant and any pages it grows into come
    /// from the LibFS's own (already mapped) pool, so no kernel map call is
    /// needed until another LibFS claims it, the essence of direct access
    /// for metadata (paper §4.2) — empty, and for a directory with a fresh
    /// aux.
    pub(crate) fn created(
        ino: Ino,
        ftype: CoreFileType,
        parent: Ino,
        loc: DirentLoc,
        mtime: u64,
    ) -> Arc<Self> {
        let dir = (ftype == CoreFileType::Directory).then(|| Arc::new(DirAux::new()));
        let inner = NodeInner { map: MapState::Write, mtime, dir, ..NodeInner::unmapped() };
        Self::with_inner(ino, ftype, Placement { parent, loc: Some(loc) }, inner)
    }

    fn with_inner(ino: Ino, ftype: CoreFileType, place: Placement, inner: NodeInner) -> Arc<Self> {
        Arc::new(FileNode {
            ino,
            ftype,
            place: SimRwLock::new(place),
            inner: SimRwLock::new(inner),
            range: RangeLock::new(),
            gate: SimRwLock::with_costs((), 0, 0),
            open_fds: AtomicU32::new(0),
            recall_parked: AtomicBool::new(false),
            forgotten: AtomicBool::new(false),
        })
    }

    /// Where the file hangs now: `place` read free of its lock, or under
    /// it while a rename or an intern moves the file.
    pub fn placement(&self) -> Placement {
        #[allow(
            clippy::disallowed_methods,
            reason = "a two-word copy with no sim point; a held lock falls back to it"
        )]
        let free = self.place.read_free(|p| *p);
        free.unwrap_or_else(|| *self.place.read())
    }

    /// The node left the LibFS's node table: see [`ChildLink::get`].
    pub(crate) fn forget(&self) {
        self.forgotten.store(true, Ordering::Relaxed);
    }

    /// A descriptor was opened on the file.
    pub(crate) fn pin(&self) {
        self.open_fds.fetch_add(1, Ordering::SeqCst);
    }

    /// The descriptor was closed. `true` when it was the last one and a
    /// recall is parked: the caller now owes `ArckFs::yield_node(.., true)`.
    pub(crate) fn unpin(&self) -> bool {
        self.open_fds.fetch_sub(1, Ordering::SeqCst) == 1
            && self.recall_parked.load(Ordering::SeqCst)
    }

    /// A recall arrived for this file: parks it. `true` when no descriptor
    /// pins the grant and the caller should yield it now. SeqCst on both
    /// sides: of a racing close and recall, at least one sees the other.
    pub(crate) fn park_recall(&self) -> bool {
        self.recall_parked.store(true, Ordering::SeqCst);
        self.open_fds.load(Ordering::SeqCst) == 0
    }

    /// Claims the parked recall for the caller — once, and only while no
    /// descriptor pins the grant.
    pub(crate) fn claim_recall(&self) -> bool {
        self.open_fds.load(Ordering::SeqCst) == 0
            && self.recall_parked.swap(false, Ordering::SeqCst)
    }

    /// A fresh grant is about to be asked for: whatever recall is parked
    /// was for a lease that has ended (by expiry, if no `close` came in
    /// time) and must not cost the new one a hand-over.
    pub(crate) fn forget_recall(&self) {
        self.recall_parked.store(false, Ordering::SeqCst);
    }

    /// Drops the mapping and all aux state derived from it (after a
    /// revocation fault: the grant ended under operations in flight).
    pub fn invalidate(&self) {
        let mut g = self.inner.write();
        *g = NodeInner::unmapped();
    }

    /// The grant has been given back with no operation in flight (the
    /// caller drained the gate): keeps the aux state, tagged with the
    /// sequence it was maintained under, for the next map to reuse if the
    /// kernel still reports that sequence. From here on the kernel may
    /// learn the directory's children, so none of them counts as fresh.
    pub(crate) fn retire(&self) {
        let mut g = self.inner.write();
        if g.seq.is_none() {
            *g = NodeInner::unmapped();
            return;
        }
        g.map = MapState::Unmapped;
        if let Some(aux) = &g.dir {
            aux.age();
        }
    }
}

/// An entry in a directory's hash table.
#[derive(Clone, Debug)]
pub struct DirEntryAux {
    /// Child name.
    pub name: String,
    /// Child ino.
    pub ino: Ino,
    /// Child dirent slot.
    pub loc: DirentLoc,
    /// Child type.
    pub ftype: CoreFileType,
    /// The [`DirAux::epoch`] it was linked in; 0 for an entry read back from
    /// core state. See [`DirAux::is_fresh`].
    pub linked: u64,
    /// The child's node, once this LibFS has interned it.
    pub node: ChildLink,
}

/// A directory entry's link to its child's node, the way a dentry reaches
/// its inode: a hit on the entry returns the node without the node table.
/// Every clone of the entry shares the link, so the first hit that interns
/// the node sets it for all later ones. Empty on an entry read back from
/// core state and on a destination reserved by a rename until the move is
/// done. Invariant: a node set here has `place` equal to
/// `(directory ino, entry loc)`.
#[derive(Clone, Default)]
pub struct ChildLink(Arc<OnceLock<Arc<FileNode>>>);

impl ChildLink {
    /// The linked node, unless the LibFS has forgotten it since.
    pub fn get(&self) -> Option<&Arc<FileNode>> {
        self.0.get().filter(|n| !n.forgotten.load(Ordering::Relaxed))
    }

    /// Links `node`; a link once set stays (a racing setter interned the
    /// same node).
    pub(crate) fn set(&self, node: &Arc<FileNode>) {
        let _ = self.0.set(Arc::clone(node));
    }
}

impl std::fmt::Debug for ChildLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.get().is_some() { "ChildLink(set)" } else { "ChildLink(empty)" })
    }
}

/// Insertion tail for one directory data page (paper: per-page logging
/// tails instead of NOVA's single tail, so inserts parallelize).
pub struct PageTail {
    /// The data page.
    pub page: PageId,
    /// Free slot indices remaining on it.
    pub free: Vec<usize>,
}

/// Directory auxiliary state: resizable chained hash table with per-bucket
/// locks, per-page tails, and an index tail.
pub struct DirAux {
    buckets: Box<[SimRwLock<Vec<DirEntryAux>>]>,
    /// Live entry count; kept in lock-step with the persisted size field
    /// under `size_lock`.
    pub count: AtomicU64,
    /// Serializes (count, persisted-size) read-modify-write pairs.
    pub size_lock: SimMutex<()>,
    /// Per-page insertion tails.
    pub tails: SimMutex<Vec<PageTail>>,
    /// The directory's index chain and its growth point: the index pages
    /// in chain order, and the next free entry slot in the last of them.
    pub index_tail: SimMutex<(Vec<PageId>, usize)>,
    /// All directory data pages, in index order (readdir, rebuild).
    pub pages: SimMutex<Vec<PageId>>,
    /// Counts the grants the table has lived under; starts at 1.
    epoch: AtomicU64,
}

/// Buckets in a directory hash table. Fixed; the paper's table resizes,
/// but 128 chains keep occupancy low through the benchmark sizes while the
/// per-bucket locks still exhibit the contention the paper reports for
/// shared-directory workloads.
const DIR_BUCKETS: usize = 128;

impl DirAux {
    /// Creates an empty table.
    pub fn new() -> Self {
        DirAux {
            buckets: (0..DIR_BUCKETS).map(|_| SimRwLock::new(Vec::new())).collect(),
            count: AtomicU64::new(0),
            size_lock: SimMutex::new(()),
            tails: SimMutex::new(Vec::new()),
            index_tail: SimMutex::new((Vec::new(), 0)),
            pages: SimMutex::new(Vec::new()),
            epoch: AtomicU64::new(1),
        }
    }

    /// What [`DirEntryAux::linked`] is for an entry linked now.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Whether `e` was linked under the directory's current grant, so that
    /// the kernel has not seen it: if it is unlinked again its reclamation
    /// can wait in the batch. An entry the kernel may know — read back from
    /// core state, or linked under a grant since given back — is reclaimed
    /// at once: revoked with it pending, the directory would fail
    /// verification (child gone, ino in use).
    pub fn is_fresh(&self, e: &DirEntryAux) -> bool {
        e.linked == self.epoch()
    }

    /// The grant is given back: no entry linked so far is fresh any more.
    pub(crate) fn age(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// The bucket `name` hashes to, with the hash probe charged: every
    /// table operation pays it once.
    fn probe(&self, name: &str) -> &SimRwLock<Vec<DirEntryAux>> {
        if in_sim() {
            work(cost::HASH_OP_NS);
        }
        &self.buckets[hash_name(name) as usize % DIR_BUCKETS]
    }

    /// Hash-table lookup: the probe, then the bucket's chain read free of
    /// its lock, as a dcache chain is read (DESIGN.md §9), so concurrent
    /// opens of hot names scale (paper's MRPH behaviour). While a writer
    /// holds the bucket the chain is read under its lock instead, after
    /// the same one probe. The caller holds the directory's inode lock.
    pub fn lookup(&self, name: &str) -> Option<DirEntryAux> {
        let bucket = self.probe(name);
        let find = |b: &Vec<DirEntryAux>| b.iter().find(|e| e.name == name).cloned();
        #[allow(
            clippy::disallowed_methods,
            reason = "the chain is found and one entry cloned, with no sim point; a held bucket falls back to its lock"
        )]
        let free = bucket.read_free(find);
        free.unwrap_or_else(|| find(&bucket.read()))
    }

    /// Inserts an entry; returns `false` if the name already exists.
    pub fn insert(&self, e: DirEntryAux) -> bool {
        let mut b = self.probe(&e.name).write();
        if b.iter().any(|x| x.name == e.name) {
            return false;
        }
        b.push(e);
        true
    }

    /// Runs `f` with the bucket for `name` locked exclusively — the create
    /// path uses this to make exists-check + reserve atomic.
    pub fn with_bucket<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Vec<DirEntryAux>) -> R,
    ) -> R {
        f(&mut self.probe(name).write())
    }

    /// Snapshot of all entries (readdir).
    pub fn entries(&self) -> Vec<DirEntryAux> {
        let mut out = Vec::new();
        for b in self.buckets.iter() {
            out.extend(b.read().iter().cloned());
        }
        if in_sim() {
            work(out.len() as u64 * cost::DIRENT_WORK_NS);
        }
        out
    }

    /// Pops a free dirent slot from a tail, preferring the `shard`-th tail
    /// so concurrent creators spread out (paper's multi-tail design).
    pub fn take_slot(&self, shard: usize) -> Option<DirentLoc> {
        let mut tails = self.tails.lock();
        let n = tails.len();
        if n == 0 {
            return None;
        }
        for i in 0..n {
            let t = &mut tails[(shard + i) % n];
            if let Some(slot) = t.free.pop() {
                return Some(DirentLoc { page: t.page, slot });
            }
        }
        None
    }

    /// Returns a slot to its page's free list (unlink).
    pub fn put_slot(&self, loc: DirentLoc) {
        let mut tails = self.tails.lock();
        if let Some(t) = tails.iter_mut().find(|t| t.page == loc.page) {
            t.free.push(loc.slot);
        }
    }

    /// Every entry (through `key`, sorted) and every tail, read off the
    /// virtual clock for the reuse oracle. Panics if any lock in here is
    /// virtually held: the caller holds the inode lock exclusively.
    #[cfg(debug_assertions)]
    pub(crate) fn debug_contents<K: Ord>(
        &self,
        key: impl Fn(&DirEntryAux) -> K,
    ) -> (Vec<K>, Vec<PageTail>) {
        let mut entries = Vec::new();
        for b in self.buckets.iter() {
            entries.extend(b.read_uncontended().iter().map(&key));
        }
        entries.sort();
        let tails = self.tails.lock_uncontended();
        (entries, tails.iter().map(|t| PageTail { page: t.page, free: t.free.clone() }).collect())
    }

    /// Registers a fresh (empty) data page and its 16 free slots.
    pub fn add_page(&self, page: PageId) {
        self.pages.lock().push(page);
        // lint: allow(layout-door) a fresh page's free list is its slot numbers; no byte of it is read
        let free = (0..trio_layout::DIRENTS_PER_PAGE).rev().collect();
        self.tails.lock().push(PageTail { page, free });
    }
}

impl Default for DirAux {
    fn default() -> Self {
        Self::new()
    }
}

/// FNV-1a; cheap, deterministic.
fn hash_name(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// A readers-writer **range lock** (paper §4.2): concurrent writers to
/// disjoint byte ranges proceed in parallel; overlapping access serializes.
pub struct RangeLock {
    state: SimMutex<RangeState>,
    cv: SimCondvar,
}

struct RangeState {
    /// Held ranges: (key, start, end, exclusive).
    held: Vec<(u64, u64, u64, bool)>,
    next_key: u64,
}

impl RangeLock {
    /// Creates an idle lock.
    pub fn new() -> Self {
        RangeLock {
            state: SimMutex::new(RangeState { held: Vec::new(), next_key: 0 }),
            cv: SimCondvar::new(),
        }
    }

    /// Acquires `[off, off+len)` shared (read) or exclusive (write).
    pub fn acquire(&self, off: u64, len: u64, exclusive: bool) -> RangeGuard<'_> {
        let end = off.saturating_add(len);
        let mut st = self.state.lock();
        loop {
            let conflict =
                st.held.iter().any(|&(_, s, e, x)| s < end && off < e && (x || exclusive));
            if !conflict {
                let key = st.next_key;
                st.next_key += 1;
                st.held.push((key, off, end, exclusive));
                return RangeGuard { lock: self, key };
            }
            st = self.cv.wait(st);
        }
    }

    fn release(&self, key: u64) {
        let mut st = self.state.lock();
        st.held.retain(|&(k, ..)| k != key);
        drop(st);
        if trio_sim::in_sim() {
            self.cv.notify_all();
        }
    }
}

impl Default for RangeLock {
    fn default() -> Self {
        Self::new()
    }
}

/// RAII guard for [`RangeLock`].
pub struct RangeGuard<'a> {
    lock: &'a RangeLock,
    key: u64,
}

impl Drop for RangeGuard<'_> {
    fn drop(&mut self) {
        self.lock.release(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trio_sim::SimRuntime;

    #[test]
    fn dir_aux_insert_lookup_remove() {
        let aux = DirAux::new();
        assert!(aux.insert(DirEntryAux {
            name: "a".into(),
            ino: 5,
            loc: DirentLoc { page: PageId(1), slot: 0 },
            ftype: CoreFileType::Regular,
            linked: 1,
            node: ChildLink::default(),
        }));
        assert!(!aux.insert(DirEntryAux {
            name: "a".into(),
            ino: 6,
            loc: DirentLoc { page: PageId(1), slot: 1 },
            ftype: CoreFileType::Regular,
            linked: 1,
            node: ChildLink::default(),
        }));
        assert_eq!(aux.lookup("a").unwrap().ino, 5);
        assert!(aux.lookup("b").is_none());
        aux.with_bucket("a", |b| b.retain(|e| e.name != "a"));
        assert!(aux.lookup("a").is_none());
    }

    #[test]
    fn entries_stop_being_fresh_when_the_grant_is_given_back() {
        let aux = DirAux::new();
        let e = |linked| DirEntryAux {
            name: "a".into(),
            ino: 5,
            loc: DirentLoc { page: PageId(1), slot: 0 },
            ftype: CoreFileType::Regular,
            linked,
            node: ChildLink::default(),
        };
        assert!(aux.is_fresh(&e(aux.epoch())) && !aux.is_fresh(&e(0)));
        let old = e(aux.epoch());
        aux.age();
        assert!(!aux.is_fresh(&old) && aux.is_fresh(&e(aux.epoch())));
    }

    #[test]
    fn tails_hand_out_all_sixteen_slots() {
        let aux = DirAux::new();
        aux.add_page(PageId(9));
        let mut got = std::collections::HashSet::new();
        while let Some(loc) = aux.take_slot(0) {
            assert_eq!(loc.page, PageId(9));
            assert!(got.insert(loc.slot));
        }
        assert_eq!(got.len(), trio_layout::DIRENTS_PER_PAGE);
        aux.put_slot(DirentLoc { page: PageId(9), slot: 3 });
        assert_eq!(aux.take_slot(0).unwrap().slot, 3);
    }

    #[test]
    fn range_lock_allows_disjoint_writers() {
        let rt = SimRuntime::new(0);
        let node = Arc::new(RangeLock::new());
        for i in 0..4u64 {
            let node = Arc::clone(&node);
            rt.spawn("w", move || {
                let _g = node.acquire(i * 100, 100, true);
                trio_sim::work(1_000);
            });
        }
        // Four disjoint 1000ns writers overlap: total well under 4000.
        let total = rt.run();
        assert!(total < 2_500, "disjoint writers should overlap, took {total}");
    }

    #[test]
    fn range_lock_serializes_overlap() {
        let rt = SimRuntime::new(0);
        let node = Arc::new(RangeLock::new());
        for _ in 0..3 {
            let node = Arc::clone(&node);
            rt.spawn("w", move || {
                let _g = node.acquire(0, 100, true);
                trio_sim::work(1_000);
            });
        }
        let total = rt.run();
        assert!(total >= 3_000, "overlapping writers must serialize, took {total}");
    }

    #[test]
    fn range_lock_readers_share_block_writer() {
        let rt = SimRuntime::new(0);
        let node = Arc::new(RangeLock::new());
        for _ in 0..3 {
            let node = Arc::clone(&node);
            rt.spawn("r", move || {
                let _g = node.acquire(0, 4096, false);
                trio_sim::work(1_000);
            });
        }
        {
            let node = Arc::clone(&node);
            rt.spawn("w", move || {
                trio_sim::work(100);
                let _g = node.acquire(0, 10, true);
                trio_sim::work(500);
            });
        }
        let total = rt.run();
        // Readers overlap (~1000), writer runs after them (~1500 total).
        assert!((1_400..3_000).contains(&total), "took {total}");
    }

    #[test]
    fn invalidate_drops_everything_and_retire_keeps_what_a_grant_vouches_for() {
        let n = FileNode::new(9, CoreFileType::Regular, 1, None);
        let fill = |seq| {
            let mut g = n.inner.write();
            g.map = MapState::Write;
            g.size = 100;
            g.data_pages.push(Some(PageId(3)));
            g.seq = seq;
        };
        fill(Some(4));
        n.retire();
        {
            let g = n.inner.read();
            assert_eq!((g.map, g.size, g.seq), (MapState::Unmapped, 100, Some(4)));
            assert_eq!(g.data_pages, [Some(PageId(3))]);
        }
        // Written by construction: no grant to certify it against.
        fill(None);
        n.retire();
        assert!(n.inner.read().data_pages.is_empty());
        fill(Some(4));
        n.invalidate();
        let g = n.inner.read();
        assert_eq!((g.map, g.size, g.seq), (MapState::Unmapped, 0, None));
        assert!(g.data_pages.is_empty());
    }
}
