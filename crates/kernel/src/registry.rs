//! Kernel bookkeeping: file metadata, shadow inodes, leases, quarantine.
//!
//! This module is the "global file system information" of paper §4.3/I2:
//! which inodes belong to which files, who maps what, and the per-file
//! checkpoints used for rollback. Page and ino *provenance* moved out of
//! this struct into the sharded maps of [`crate::shard`] (DESIGN.md §20)
//! so the allocator fast path no longer takes the control lock; the
//! verifier reads both halves through `KernelController`'s
//! [`trio_verifier::ResourceView`] adapter.

use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use trio_layout::{CoreFileType, DirentLoc, Ino, ROOT_INO};
use trio_nvm::{ActorId, PageId, PagePerm};
use trio_sim::sync::{SimChannel, SimMutex};
use trio_sim::{DetHashMap, DetHashSet, Nanos};
use trio_verifier::ShadowAttr;

/// The page the kernel shares with one LibFS from `register` on — the
/// model of a shared page plus a signal (DESIGN.md §21). A mapper blocked
/// on a write lease this LibFS holds posts the file's ino here; the LibFS
/// polls [`RecallPage::pending`] whenever an operation enters a file or
/// directory and yields what it can. Purely advisory: a LibFS that never
/// looks loses its grant at lease expiry, exactly as if the page did not
/// exist.
pub struct RecallPage {
    /// The *recall word*: how many inos are posted. Only a hint that the
    /// list is worth taking — the list itself is behind the lock — so
    /// relaxed accesses suffice.
    word: AtomicU64,
    inos: SimMutex<Vec<Ino>>,
}

impl RecallPage {
    pub(crate) fn new() -> Self {
        RecallPage { word: AtomicU64::new(0), inos: SimMutex::new(Vec::new()) }
    }

    /// Whether any recall is posted. One relaxed load: no trap, no
    /// virtual time, not a scheduling point.
    #[inline]
    pub fn pending(&self) -> bool {
        self.word.load(Ordering::Relaxed) != 0
    }

    /// Takes every posted ino, clearing the word (the LibFS side).
    pub fn take(&self) -> Vec<Ino> {
        let mut inos = self.inos.lock();
        self.word.store(0, Ordering::Relaxed);
        std::mem::take(&mut *inos)
    }

    /// Posts `ino`; `false` if it already was.
    pub(crate) fn post(&self, ino: Ino) -> bool {
        let mut inos = self.inos.lock();
        let fresh = !inos.contains(&ino);
        if fresh {
            inos.push(ino);
            self.word.store(inos.len() as u64, Ordering::Relaxed);
        }
        fresh
    }

    /// Withdraws `ino` (its lease ended before the holder looked).
    pub(crate) fn withdraw(&self, ino: Ino) {
        let mut inos = self.inos.lock();
        inos.retain(|i| *i != ino);
        self.word.store(inos.len() as u64, Ordering::Relaxed);
    }
}

/// Credentials of a registered LibFS (one per process or trust group).
#[derive(Clone, Copy, Debug)]
pub struct Credentials {
    /// User id.
    pub uid: u32,
    /// Group id.
    pub gid: u32,
}

/// A checkpoint of a file's metadata taken before granting write access
/// (paper §4.3 "Fixing metadata corruption").
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Page images: index pages for regular files; index *and* data pages
    /// for directories.
    pub images: Vec<(PageId, Box<[u8]>)>,
    /// The file's head: its dirent slot, or the root's superblock fields
    /// (`None`: the slot could not be read).
    pub head: Option<trio_layout::HeadImage>,
    /// Directories: live child inos at checkpoint time (for I3).
    pub children: HashSet<Ino>,
}

/// Whose writes to a file's core state no verification has vetted yet.
/// Lossless across hand-overs: a second actor's mark never hides the
/// first one's (DESIGN.md §22).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Dirty {
    /// Verified since the last write grant ended.
    #[default]
    Clean,
    /// One actor's writes only: its own re-map needs no verification.
    By(ActorId),
    /// Several actors' writes: every mapper verifies. The payload is the
    /// one whose pool legal growth comes from (and whom a violation is
    /// charged to): the last holder of the file's own write grant, else
    /// the first actor that had one of its dirent pages writable.
    Mixed(ActorId),
}

impl Dirty {
    /// Whether no unvetted write is outstanding.
    pub fn is_clean(self) -> bool {
        self == Dirty::Clean
    }

    /// The actor verification attributes the unvetted state to.
    pub fn actor(self) -> Option<ActorId> {
        match self {
            Dirty::Clean => None,
            Dirty::By(a) | Dirty::Mixed(a) => Some(a),
        }
    }

    /// Whether `mapper` may map the file unverified: nobody's unvetted
    /// writes but its own are in it.
    pub fn trusted_by(self, mapper: ActorId) -> bool {
        self.is_clean() || self == Dirty::By(mapper)
    }

    /// Whether `actor`'s writes may be among the unvetted ones.
    pub fn involves(self, actor: ActorId) -> bool {
        match self {
            Dirty::Clean => false,
            Dirty::By(a) => a == actor,
            Dirty::Mixed(_) => true,
        }
    }

    /// `actor`'s write access has ended: to the whole file (`own_grant`,
    /// its write grant), or to one page of it (a directory whose child
    /// `actor` held for write — the child's dirent page was writable).
    pub fn mark(&mut self, actor: ActorId, own_grant: bool) {
        *self = match *self {
            Dirty::Clean => Dirty::By(actor),
            Dirty::By(a) if a == actor => Dirty::By(a),
            Dirty::By(a) | Dirty::Mixed(a) => Dirty::Mixed(if own_grant { actor } else { a }),
        };
    }
}

/// The receipt for a grant that has left a file's books
/// ([`FileMeta::end_grant`]). Leaving the books is only half of ending a
/// grant: the pages are still mapped and the holder's writes unvetted until
/// `KernelController::settle` has been given this.
#[must_use = "an ended grant must be settled (`KernelController::settle`): dirt, MMU, waiters"]
#[derive(Debug)]
pub struct EndedGrant {
    /// The file.
    pub ino: Ino,
    /// Who held the grant.
    pub actor: ActorId,
    /// Whether it was the write grant.
    pub write: bool,
    /// The pages the MMU exposed under it.
    pub pages: Vec<PageId>,
    /// The file's dirent at the time (`None` for root): the writer had its
    /// page writable too.
    pub dirent: Option<DirentLoc>,
    /// Whether its holder had released it ([`FileMeta::release`]): its
    /// dirt, dirent page and lease waiters were settled then, and only the
    /// PTEs are left.
    pub released: bool,
}

/// Per-file kernel metadata.
#[derive(Debug)]
pub struct FileMeta {
    /// Inode number.
    pub ino: Ino,
    /// File type at adoption.
    pub ftype: CoreFileType,
    /// The file's place (DESIGN.md §14), written by
    /// `KernelController::relocate` alone: its dirent slot (`None` for the
    /// root)…
    pub dirent: Option<DirentLoc>,
    /// …and the directory whose verified page holds that slot, from the
    /// kernel's own books (`None` for the root, or while no verification
    /// has claimed the page).
    pub parent: Option<Ino>,
    /// Ground-truth permissions (I4).
    pub shadow: ShadowAttr,
    // The grant books. Private: an actor enters them through `grant` and
    // leaves them through `end_grant`, whose receipt the compiler will not
    // let the caller drop.
    /// Pages the MMU currently exposes to each grant holder (includes the
    /// dirent page for a live writer), sorted.
    mapped_pages: DetHashMap<ActorId, Vec<PageId>>,
    /// The holder of the write grant, if any, live or released; everyone
    /// else reads.
    writer: Option<ActorId>,
    /// Holders that have released their grant (DESIGN.md §9 "Lazy
    /// release"): the PTEs stay until somebody else needs the file, and
    /// the grant confers nothing — no lease, no authority, no mapping the
    /// verifier must respect.
    released: DetHashSet<ActorId>,
    /// Virtual deadline of the current write lease.
    lease_until: Nanos,
    /// Unvetted writes: set when a writer released (or was revoked) and no
    /// verification has happened since.
    pub dirty: Dirty,
    /// The grant sequence (DESIGN.md §22): bumped wherever the file's core
    /// state can change outside the hands of `seq_holder`. Auxiliary state
    /// a LibFS built at sequence n is valid at any map that still reports n.
    pub grant_seq: u64,
    /// The actor the current sequence was granted to (`None` after a
    /// kernel-side change: nobody's aux survives it).
    pub seq_holder: Option<ActorId>,
    /// Rollback target.
    pub checkpoint: Option<Checkpoint>,
}

impl FileMeta {
    /// Creates metadata for a newly adopted file, not yet placed.
    pub fn new(ino: Ino, ftype: CoreFileType, shadow: ShadowAttr) -> Self {
        FileMeta {
            ino,
            ftype,
            dirent: None,
            parent: None,
            shadow,
            mapped_pages: DetHashMap::default(),
            writer: None,
            released: DetHashSet::default(),
            lease_until: 0,
            dirty: Dirty::Clean,
            grant_seq: 0,
            seq_holder: None,
            checkpoint: None,
        }
    }

    /// Whether anyone holds a grant it has not released.
    pub fn is_mapped(&self) -> bool {
        self.mapped_pages.keys().any(|a| !self.released.contains(a))
    }

    /// The holder of the live write grant: the one with authority over the
    /// file's core state (`commit`, `update_root`, returning `InFile`
    /// pages, reclaiming children).
    pub fn writer(&self) -> Option<ActorId> {
        self.writer.filter(|w| !self.released.contains(w))
    }

    /// The holder of a released write grant, whose write PTEs on the
    /// file's chain are still in place.
    pub fn released_writer(&self) -> Option<ActorId> {
        self.writer.filter(|w| self.released.contains(w))
    }

    /// Whether `actor` holds a grant it has released.
    pub fn is_released(&self, actor: ActorId) -> bool {
        self.released.contains(&actor)
    }

    /// When the write lease runs out (meaningful while there is a writer).
    pub fn lease_until(&self) -> Nanos {
        self.lease_until
    }

    /// Everyone holding a grant, released or not, in actor order.
    pub fn holders(&self) -> Vec<ActorId> {
        let mut v: Vec<ActorId> = self.mapped_pages.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Whether `actor` holds a grant.
    pub fn holds(&self, actor: ActorId) -> bool {
        self.mapped_pages.contains_key(&actor)
    }

    /// `actor`'s grant on this file, released or not: the permission it
    /// allows and the pages it covers.
    pub fn grant_of(&self, actor: ActorId) -> Option<(PagePerm, &[PageId])> {
        let pages = self.mapped_pages.get(&actor)?;
        let perm = if self.writer == Some(actor) { PagePerm::Write } else { PagePerm::Read };
        Some((perm, pages))
    }

    /// Whether any grant exposes `page`.
    pub fn maps_page(&self, page: PageId) -> bool {
        self.mapped_pages.values().any(|held| held.contains(&page))
    }

    /// Enters `actor` in the books (replacing a grant it already holds: a
    /// re-map, an upgrade, or taking back one it released). The caller
    /// programs `pages` next.
    pub fn grant(&mut self, actor: ActorId, write: bool, mut pages: Vec<PageId>, lease: Nanos) {
        pages.sort_unstable();
        self.mapped_pages.insert(actor, pages);
        self.released.remove(&actor);
        if write {
            self.writer = Some(actor);
            self.lease_until = lease;
        }
    }

    /// Ends `actor`'s claim on its grant, not the grant: it stays in the
    /// books, released, with its PTEs, until the kernel ends it through
    /// [`FileMeta::end_grant`]. For a live *write* grant the lease ends here
    /// and the dirent page leaves the grant; `true` tells the caller to do
    /// the rest of what cannot wait — dirt, the dirent page's PTE, the
    /// lease's waiters.
    #[must_use = "a released write grant leaves dirt, a dirent page and waiters to settle"]
    pub fn release(&mut self, actor: ActorId) -> bool {
        if !self.mapped_pages.contains_key(&actor) || !self.released.insert(actor) {
            return false;
        }
        if self.writer != Some(actor) {
            return false;
        }
        self.lease_until = 0;
        if let (Some(loc), Some(pages)) = (self.dirent, self.mapped_pages.get_mut(&actor)) {
            pages.retain(|p| *p != loc.page);
        }
        true
    }

    /// Takes `actor` out of the books — the only way out. `None` if it held
    /// nothing.
    pub fn end_grant(&mut self, actor: ActorId) -> Option<EndedGrant> {
        let pages = self.mapped_pages.remove(&actor)?;
        let released = self.released.remove(&actor);
        let write = self.writer == Some(actor);
        if write {
            self.writer = None;
            self.lease_until = 0;
        }
        Some(EndedGrant {
            ino: self.ino,
            actor,
            write,
            pages,
            dirent: self.dirent,
            released,
        })
    }

    /// The file's core state is about to be exposed to writes `holder`
    /// does not make (`None`: the kernel's own): every aux built at the
    /// current sequence stops being certifiable.
    pub fn bump_seq(&mut self, holder: Option<ActorId>) {
        self.grant_seq += 1;
        self.seq_holder = holder;
    }
}

/// Events the kernel records for tests and the attack-suite harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelEvent {
    /// The verifier rejected a file; `violations` summarises why.
    CorruptionDetected {
        /// The corrupted file.
        ino: Ino,
        /// Number of violations found.
        violations: usize,
    },
    /// The file was rolled back to its checkpoint.
    RolledBack {
        /// The restored file.
        ino: Ino,
    },
    /// A write lease was forcibly revoked.
    LeaseRevoked {
        /// The file whose lease expired.
        ino: Ino,
        /// The actor that lost access.
        actor: ActorId,
    },
    /// A corrupted file had no checkpoint to roll back to (it was created
    /// raw by the faulty actor), so it was expelled from the namespace and
    /// its pages left with that actor's pool — the damage is *privatized*
    /// to the LibFS that caused it (graceful degradation: everyone else's
    /// files are untouched).
    Privatized {
        /// The expelled file.
        ino: Ino,
        /// The actor whose unvetted writes produced it, when known.
        actor: Option<ActorId>,
    },
    /// A confirmed violation quarantined the offending LibFS: its device
    /// mappings were revoked wholesale and the subtree it dirtied marked
    /// off-limits pending repair (DESIGN.md §14).
    Quarantined {
        /// The offending LibFS.
        actor: ActorId,
        /// How many files its unvetted writes tainted.
        tainted: usize,
    },
    /// The repair pass finished for a quarantined LibFS: every tainted
    /// file was re-verified, rolled back, or privatized, and the actor may
    /// use the kernel interface again.
    Readmitted {
        /// The re-admitted LibFS.
        actor: ActorId,
    },
    /// The watchdog reaped a delegation worker that died mid-request
    /// (DESIGN.md §16).
    WorkerDied {
        /// NUMA node the worker served.
        node: usize,
        /// Worker slot index within the node.
        worker: usize,
    },
    /// The watchdog respawned a dead delegation worker on its original
    /// ring; queued requests behind the death are preserved.
    WorkerRestarted {
        /// NUMA node the worker serves.
        node: usize,
        /// Worker slot index within the node.
        worker: usize,
    },
    /// Sustained delegation failure or ring backpressure tripped degraded
    /// mode: new ops shed to direct access except periodic probes.
    DelegationDegraded,
    /// A run of successful probes cleared degraded mode; delegation
    /// resumes for all eligible ops.
    DelegationRecovered,
}

/// Quarantine record for one offending LibFS (DESIGN.md §14 lifecycle:
/// `active → quarantined → (repair) → re-admitted`).
#[derive(Clone, Debug, Default)]
pub struct QuarantineInfo {
    /// Files whose unvetted state the offender may have corrupted; reads
    /// into these return `FsError::Quarantined` until repaired.
    pub tainted: DetHashSet<Ino>,
}

/// The kernel's mutable control-plane state. Since DESIGN.md §20 this
/// holds only the genuinely shared, cross-file invariants — file
/// metadata, actor table, quarantine — while page/ino provenance lives
/// in the sharded maps and the event log in the bounded ring, both on
/// `KernelController`. Steady-state alloc/free never locks this.
pub struct Registry {
    /// Registered LibFS credentials.
    pub actors: DetHashMap<ActorId, Credentials>,
    /// Per-file metadata, keyed by ino.
    pub files: DetHashMap<Ino, FileMeta>,
    /// Children observed during a parent's verification whose own core
    /// state is still unvetted: ino -> the actor whose writes created it.
    /// Consumed at adoption so the child is verified on its first
    /// cross-actor map.
    pub pending_dirty: DetHashMap<Ino, trio_nvm::ActorId>,
    /// Next actor id to hand out.
    pub next_actor: u32,
    /// Each registered LibFS's recall page (DESIGN.md §21).
    pub recall_pages: DetHashMap<ActorId, Arc<RecallPage>>,
    /// Mappers blocked on a file's write lease wait on its channel;
    /// whoever ends the lease removes and closes it, waking them all.
    pub lease_waiters: DetHashMap<Ino, Arc<SimChannel<()>>>,
    /// LibFSes currently quarantined after a confirmed violation, with the
    /// subtree each one tainted.
    pub quarantine: DetHashMap<ActorId, QuarantineInfo>,
    /// Reverse index of every quarantined actor's tainted set:
    /// ino -> how many quarantined actors taint it. Makes the per-read
    /// `ino_quarantined` probe O(1) instead of a scan over every
    /// offender's whole subtree; maintained by [`Registry::quarantine_enter`]
    /// / [`Registry::quarantine_remove`].
    pub tainted_index: DetHashMap<Ino, u32>,
    /// Set while the kernel's own repair pass re-verifies tainted files —
    /// failures inside the pass must roll back or privatize, never
    /// re-enter quarantine (the offender is already contained).
    pub repairing: bool,
}

impl Registry {
    /// Fresh registry with the root directory pre-adopted.
    pub fn new() -> Self {
        let mut files = DetHashMap::default();
        let root_attr = ShadowAttr { mode: trio_fsapi::Mode(0o777), uid: 0, gid: 0 };
        files.insert(ROOT_INO, FileMeta::new(ROOT_INO, CoreFileType::Directory, root_attr));
        Registry {
            actors: DetHashMap::default(),
            files,
            pending_dirty: DetHashMap::default(),
            next_actor: 1,
            recall_pages: DetHashMap::default(),
            lease_waiters: DetHashMap::default(),
            quarantine: DetHashMap::default(),
            tainted_index: DetHashMap::default(),
            repairing: false,
        }
    }

    /// The metadata of the directory whose page holds `ino`'s dirent, as
    /// the books place it.
    pub fn parent_meta(&mut self, ino: Ino) -> Option<&mut FileMeta> {
        let dir = self.files.get(&ino)?.parent?;
        self.files.get_mut(&dir)
    }

    /// The files `actor` holds a grant on, in ino order.
    pub fn held_by(&self, actor: ActorId) -> Vec<Ino> {
        let mut v: Vec<Ino> =
            self.files.iter().filter(|(_, m)| m.holds(actor)).map(|(i, _)| *i).collect();
        v.sort_unstable();
        v
    }

    /// The rule every PTE the kernel writes for a file grant follows
    /// (DESIGN.md §20): on each of `pages`, the most that any of `actor`'s
    /// grants in the books allows, live or released — `None` where none
    /// covers the page. In page order, each page once.
    pub fn wants(
        &self,
        actor: ActorId,
        pages: impl IntoIterator<Item = PageId>,
    ) -> Vec<(PageId, Option<PagePerm>)> {
        let pages: BTreeSet<PageId> = pages.into_iter().collect();
        let mut wants: Vec<_> = pages.into_iter().map(|p| (p, None)).collect();
        for (perm, granted) in self.files.values().filter_map(|m| m.grant_of(actor)) {
            for (_, want) in wants.iter_mut().filter(|(p, _)| granted.binary_search(p).is_ok()) {
                *want = (*want).max(Some(perm));
            }
        }
        wants
    }

    /// The files `actor`'s unvetted writes may be in, in ino order.
    pub fn dirt_of(&self, actor: ActorId) -> Vec<Ino> {
        let mut v: Vec<Ino> =
            self.files.iter().filter(|(_, m)| m.dirty.involves(actor)).map(|(i, _)| *i).collect();
        v.sort_unstable();
        v
    }

    /// Whether `ino` is dirty and can be verified now. A file somebody
    /// holds a live write grant on cannot: its core state is in motion, and the holder's
    /// own fresh pages and inos would be charged to whoever the mark names.
    /// The mark stays; whoever maps the file after that grant verifies it.
    pub fn vettable(&self, ino: Ino) -> bool {
        self.files.get(&ino).is_some_and(|m| !m.dirty.is_clean() && m.writer().is_none())
    }

    /// Whether `ino` sits in any quarantined LibFS's tainted subtree.
    /// O(1): one probe of the reverse index.
    pub fn ino_quarantined(&self, ino: Ino) -> bool {
        self.tainted_index.contains_key(&ino)
    }

    /// Records `actor` as quarantined with `info`, indexing its tainted
    /// set. The only sanctioned insert path — a bare
    /// `quarantine.insert` would desynchronize the reverse index.
    pub fn quarantine_enter(&mut self, actor: ActorId, info: QuarantineInfo) {
        for ino in &info.tainted {
            *self.tainted_index.entry(*ino).or_insert(0) += 1;
        }
        if let Some(old) = self.quarantine.insert(actor, info) {
            // Re-quarantine of an already-contained actor: drop the old
            // subtree's index contribution (it was just re-counted above
            // only for the new set).
            self.unindex_tainted(&old);
        }
    }

    /// Removes `actor` from quarantine (repair finished or containment
    /// superseded), unwinding its contribution to the reverse index.
    pub fn quarantine_remove(&mut self, actor: ActorId) -> Option<QuarantineInfo> {
        let info = self.quarantine.remove(&actor)?;
        self.unindex_tainted(&info);
        Some(info)
    }

    fn unindex_tainted(&mut self, info: &QuarantineInfo) {
        for ino in &info.tainted {
            if let Some(n) = self.tainted_index.get_mut(ino) {
                *n -= 1;
                if *n == 0 {
                    self.tainted_index.remove(ino);
                }
            }
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_is_preadopted() {
        let r = Registry::new();
        assert!(r.files.contains_key(&ROOT_INO));
        assert!(!r.files[&ROOT_INO].is_mapped());
    }

    #[test]
    fn grant_books_are_entered_and_left_one_way() {
        let (a, b) = (ActorId(1), ActorId(2));
        let mut r = Registry::new();
        let root = r.files.get_mut(&ROOT_INO).unwrap();
        root.grant(a, false, vec![PageId(5)], 0);
        root.grant(b, true, vec![PageId(5), PageId(6)], 900);
        assert_eq!((root.writer(), root.lease_until(), root.holders()), (Some(b), 900, vec![a, b]));
        assert_eq!(root.grant_of(a), Some((PagePerm::Read, &[PageId(5)][..])));
        assert_eq!(root.grant_of(b).map(|(perm, _)| perm), Some(PagePerm::Write));
        assert!(root.maps_page(PageId(6)) && !root.maps_page(PageId(7)));
        assert_eq!(r.held_by(b), [ROOT_INO]);

        let root = r.files.get_mut(&ROOT_INO).unwrap();
        let ended = root.end_grant(b).unwrap();
        assert!(ended.write && ended.pages == [PageId(5), PageId(6)] && ended.ino == ROOT_INO);
        assert_eq!((root.writer(), root.lease_until(), root.holders()), (None, 0, vec![a]));
        assert!(root.end_grant(b).is_none(), "nothing left to end");
        let ended = root.end_grant(a).unwrap();
        assert!(!ended.write && !root.is_mapped());
    }

    #[test]
    fn a_released_grant_stays_in_the_books_and_confers_nothing() {
        let (a, b) = (ActorId(1), ActorId(2));
        let loc = DirentLoc { page: PageId(9), slot: 3 };
        let shadow = ShadowAttr { mode: trio_fsapi::Mode::RW, uid: 0, gid: 0 };
        let mut f = FileMeta::new(7, CoreFileType::Regular, shadow);
        f.dirent = Some(loc);
        f.grant(a, true, vec![PageId(5), PageId(9)], 900);
        f.grant(b, false, vec![PageId(5)], 0);
        assert!(!f.release(b), "a read grant has nothing that cannot wait");
        assert!(f.release(a), "a live write grant does");
        assert!(!f.release(a), "once");
        // Still in the books, at the permission its PTEs carry — without
        // the dirent page, without a lease, without authority.
        assert_eq!(f.holders(), [a, b]);
        assert_eq!((f.writer(), f.released_writer(), f.lease_until()), (None, Some(a), 0));
        assert_eq!(f.grant_of(a), Some((PagePerm::Write, &[PageId(5)][..])));
        assert!(!f.is_mapped() && f.maps_page(PageId(5)));
        let ended = f.end_grant(a).unwrap();
        assert!(ended.write && ended.released && ended.pages == [PageId(5)]);
        // Taking a released grant back makes it live again.
        f.grant(b, false, vec![PageId(5)], 0);
        assert!(f.is_mapped() && !f.is_released(b));
    }

    #[test]
    fn a_page_wants_the_most_any_grant_of_the_actor_allows() {
        let (a, b) = (ActorId(1), ActorId(2));
        let (read, write) = (Some(PagePerm::Read), Some(PagePerm::Write));
        let mut r = Registry::new();
        let loc = DirentLoc { page: PageId(5), slot: 0 };
        let shadow = ShadowAttr { mode: trio_fsapi::Mode::RW, uid: 0, gid: 0 };
        let mut f = FileMeta::new(7, CoreFileType::Regular, shadow);
        f.dirent = Some(loc);
        f.grant(a, true, vec![PageId(8), PageId(5)], 900);
        r.files.insert(7, f);
        r.files.get_mut(&ROOT_INO).unwrap().grant(a, false, vec![PageId(4), PageId(5)], 0);
        // The child's dirent page: read under `/`, written under the child.
        let asked = [PageId(5), PageId(4), PageId(5), PageId(6)];
        assert_eq!(r.wants(a, asked), [(PageId(4), read), (PageId(5), write), (PageId(6), None)]);
        assert_eq!(r.wants(b, [PageId(5)]), [(PageId(5), None)]);
        // A released grant counts at what it allows; the dirent page left it.
        assert!(r.files.get_mut(&7).unwrap().release(a));
        assert_eq!(r.wants(a, [PageId(5), PageId(8)]), [(PageId(5), read), (PageId(8), write)]);
    }

    #[test]
    fn dirtiness_is_lossless() {
        let (a, b, c) = (ActorId(1), ActorId(2), ActorId(3));
        let mut d = Dirty::Clean;
        assert!(d.trusted_by(a) && !d.involves(a) && d.actor().is_none());
        d.mark(a, true);
        d.mark(a, false);
        assert_eq!(d, Dirty::By(a));
        assert!(d.trusted_by(a) && !d.trusted_by(b));
        // A page-level mark by another actor keeps the writer as payload…
        d.mark(b, false);
        assert_eq!(d, Dirty::Mixed(a));
        assert!(!d.trusted_by(a) && !d.trusted_by(b) && d.involves(c));
        // …and a later whole-file writer takes it over.
        d.mark(c, true);
        assert_eq!(d, Dirty::Mixed(c));
        d.mark(c, true);
        assert_eq!(d.actor(), Some(c), "Mixed never collapses back without a verification");
    }

    #[test]
    fn recall_page_word_follows_the_list() {
        let p = RecallPage::new();
        assert!(!p.pending());
        assert!(p.post(7));
        assert!(!p.post(7), "one entry per ino, however many mappers wait");
        assert!(p.post(9));
        p.withdraw(7);
        assert!(p.pending());
        assert_eq!(p.take(), [9]);
        assert!(!p.pending());
        p.withdraw(9); // Already taken: nothing to withdraw.
        assert!(p.take().is_empty());
    }

    #[test]
    fn tainted_index_tracks_quarantine_lifecycle() {
        let mut r = Registry::new();
        let a = ActorId(1);
        let b = ActorId(2);
        r.quarantine_enter(a, QuarantineInfo { tainted: [10, 11].into_iter().collect() });
        r.quarantine_enter(b, QuarantineInfo { tainted: [11, 12].into_iter().collect() });
        assert!(r.ino_quarantined(10));
        assert!(r.ino_quarantined(11));
        assert!(r.ino_quarantined(12));
        assert!(!r.ino_quarantined(13));
        // Removing one offender keeps the shared ino tainted by the other.
        r.quarantine_remove(a);
        assert!(!r.ino_quarantined(10));
        assert!(r.ino_quarantined(11));
        r.quarantine_remove(b);
        assert!(r.tainted_index.is_empty());
    }

    #[test]
    fn requarantine_replaces_old_taint_contribution() {
        let mut r = Registry::new();
        let a = ActorId(7);
        r.quarantine_enter(a, QuarantineInfo { tainted: [20].into_iter().collect() });
        r.quarantine_enter(a, QuarantineInfo { tainted: [21].into_iter().collect() });
        assert!(!r.ino_quarantined(20), "old tainted set unindexed on re-entry");
        assert!(r.ino_quarantined(21));
        r.quarantine_remove(a);
        assert!(r.tainted_index.is_empty());
    }
}
