//! Mapping, leases, verification-on-sharing, checkpoints, and rollback —
//! the heart of the Trio protocol (paper §3.2 Figure 2, §4.3).
//!
//! Protocol summary as implemented:
//!
//! * `map` grants an actor access to one file's core state: its index and
//!   data pages, plus (for writers) the parent-directory page holding its
//!   co-located dirent. Write grants are exclusive and lease-bounded;
//!   concurrent read grants share.
//! * A grant ends one way, whatever ended it — lease expiry, the holder's
//!   exit, its quarantine, another mapper: [`FileMeta::end_grant`] takes the
//!   holder out of the books and hands back a receipt,
//!   `KernelController::settle` takes the receipt. For a write grant the
//!   file — and its parent directory, whose dirent page was writable — is
//!   marked *dirty by* that actor ([`Dirty`]; marks accumulate, they never
//!   overwrite one another).
//! * `release` ends the holder's claim, not the grant (DESIGN.md §9 "Lazy
//!   release"): the lease, the dirt and the dirent page are settled at
//!   once, the rest of the PTEs stay until another mapper, a verification
//!   or a migration needs the file and ends the released grant as above.
//! * The next `map` by anyone but the sole dirty actor triggers the
//!   integrity verifier on the dirty file. On a pass, the kernel claims the
//!   file's pages in its provenance books; on a failure it rolls the file's
//!   metadata back to the last *verified* state — the checkpoint, which a
//!   write grant replaces only while the file is verified-clean —
//!   reconciling size mismatches by trimming (clearing slots whose pages
//!   are gone) — paper §4.3's trim/pad policy.
//! * Every file carries a *grant sequence* (DESIGN.md §22) that moves
//!   whenever its core state can change outside the grantee's hands; a
//!   grant reports it before and after, so a LibFS re-mapping a file nobody
//!   else wrote keeps its auxiliary state.
//! * Checkpointed pages are pinned: freeing them is deferred until the
//!   checkpoint is replaced, so rollback images always restore safely.
//! * A mapper that meets another actor's unexpired write lease *recalls*
//!   it (DESIGN.md §21): it posts the ino on the holder's recall page and
//!   blocks until the holder lets go, with the lease expiry as deadline.

use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use trio_fsapi::{FsError, FsResult};
use trio_layout::{
    walk_file, CoreFileType, DirPage, DirentLoc, DirentRef, FileHead, FilePages, IndexPageRef, Ino,
};
use trio_nvm::{ActorId, PageId, RegistryLockSite};
use trio_sim::sync::SimChannel;
use trio_sim::{cost, in_sim, now, now_or_zero, work, Nanos};
use trio_verifier::{InoProvenance, PageProvenance, ShadowAttr, VerifyRequest};

use crate::alloc::PutBack;
use crate::pagetable;
use crate::registry::{Checkpoint, Dirty, EndedGrant, FileMeta, KernelEvent, Registry};
use crate::KernelController;

/// What a successful `map` returns to the LibFS.
#[derive(Clone, Debug)]
pub struct MapGrant {
    /// The file's inode number.
    pub ino: Ino,
    /// Its type.
    pub ftype: CoreFileType,
    /// Whether this is a write grant.
    pub write: bool,
    /// The file's pages (the LibFS rebuilds auxiliary state from these).
    pub pages: FilePages,
    /// Virtual-time lease deadline (write grants).
    pub lease_until: Nanos,
    /// The file's dirent location (`None` for root).
    pub dirent: Option<DirentLoc>,
    /// Cached size at grant time.
    pub size: u64,
    /// The file's grant sequence (DESIGN.md §22) before this grant…
    pub seq_before: u64,
    /// …and under it. Auxiliary state maintained under a grant whose `seq`
    /// equals a later grant's `seq_before` is still valid: the core state
    /// was in nobody else's hands in between.
    pub seq: u64,
}

/// What to map. Only the slot: which directory holds it is the kernel's to
/// know (DESIGN.md §14).
#[derive(Clone, Copy, Debug)]
pub enum MapTarget {
    /// The root directory.
    Root,
    /// A file via its dirent slot.
    Dirent(DirentLoc),
}

/// Why a grant ended — all that the ways of getting to
/// `KernelController::settle` differ in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GrantEnd {
    /// The holder had given it back (Figure 2 step 5; also how a recall
    /// ends), and now somebody needs the file.
    Released,
    /// The kernel took it for another mapper: a write lease that ran out,
    /// or a read grant — which has no lease — in the way of a writer. Or
    /// the file moved under a write grant (`relocate`).
    Revoked,
    /// The holder unregistered.
    Exited,
    /// The holder was quarantined. The MMU half is the page table's
    /// `revoke_all`, wholesale, right after.
    Contained,
}

impl KernelController {
    /// Maps a file into `actor`'s address space (Figure 2 steps 1–2 and
    /// 6–9). While another actor holds an unexpired write lease, recalls
    /// it and blocks (in virtual time) until the holder lets go or the
    /// lease runs out.
    pub fn map(&self, actor: ActorId, target: MapTarget, write: bool) -> FsResult<MapGrant> {
        self.trap();
        if in_sim() {
            work(cost::MAP_CALL_BASE_NS);
        }
        self.check_not_quarantined(actor)?;
        let dirent = match target {
            MapTarget::Root => None,
            MapTarget::Dirent(loc) => Some(loc),
        };
        let head = FileHead::new(self.kernel_handle(), dirent);
        loop {
            let mut reg = self.reg_lock(RegistryLockSite::Map);
            // ---- Identify the file from its committed core state. ----
            // An unreadable head (slot or superblock) has no file to map.
            let id = head.load().map_err(|_| FsError::NotFound)?;
            if id.ino == 0 {
                return Err(FsError::NotFound);
            }
            let (ino, ftype) = (id.ino, id.ftype.map_err(|_| FsError::Corrupted)?);

            self.adopt_file(&mut reg, ino, ftype, dirent)?;
            // The file and the directory the books place its dirent in.
            let file_and_dir = [Some(ino), reg.files.get(&ino).and_then(|m| m.parent)];
            let file_and_dir = file_and_dir.into_iter().flatten();

            // Reads into a quarantined subtree are refused until the
            // repair pass re-admits it (DESIGN.md §14).
            if file_and_dir.clone().any(|f| reg.ino_quarantined(f)) {
                return Err(FsError::Quarantined);
            }

            // ---- Permission check against the shadow inode table. ----
            let cred = *reg.actors.get(&actor).ok_or(FsError::PermissionDenied)?;
            let Some(meta) = reg.files.get(&ino) else {
                return Err(FsError::Corrupted);
            };
            let m = meta.shadow.mode.0;
            let (r_ok, w_ok) = if cred.uid == 0 {
                (true, true)
            } else if cred.uid == meta.shadow.uid {
                (m & 0o400 != 0, m & 0o200 != 0)
            } else if cred.gid == meta.shadow.gid {
                (m & 0o040 != 0, m & 0o020 != 0)
            } else {
                (m & 0o004 != 0, m & 0o002 != 0)
            };
            if (write && !w_ok) || (!write && !r_ok) {
                return Err(FsError::PermissionDenied);
            }

            // ---- Sharing policy: concurrent reads XOR exclusive write. ----
            if let Some(w) = meta.writer().filter(|w| *w != actor) {
                let lease = meta.lease_until();
                let t = now();
                if t < lease {
                    // Recall: tell the holder, then sleep until it lets go
                    // — or, if it will not, until the lease runs out (the
                    // one upper bound, as ever).
                    let wake = Arc::clone(
                        reg.lease_waiters
                            .entry(ino)
                            .or_insert_with(|| Arc::new(SimChannel::unbounded())),
                    );
                    if reg.recall_pages.get(&w).is_some_and(|page| page.post(ino)) {
                        self.resilience_stats().record_recall_posted();
                    }
                    drop(reg);
                    self.stats.record_lease_retry();
                    crate::obs::lease_wait_begin(actor.0, w.0, ino);
                    let _ = wake.recv_deadline(lease);
                    let waited = now().saturating_sub(t);
                    crate::obs::lease_wait_end(actor.0, w.0, waited);
                    self.charge_phase(|p| &p.lease_wait_ns, waited);
                    self.phases.lease_wait_max_ns.fetch_max(waited, Ordering::Relaxed);
                    continue;
                }
            }
            // Whoever is in the way goes: a writer whose lease is over, any
            // grant its holder has released, and, for a write grant, every
            // reader. The mapper's own released write grant goes too when
            // it asks only to read: its PTEs would still allow stores.
            let in_the_way = |h: &ActorId| {
                if *h == actor {
                    !write && meta.released_writer() == Some(actor)
                } else {
                    write || meta.writer() == Some(*h) || meta.is_released(*h)
                }
            };
            for h in meta.holders().into_iter().filter(in_the_way).collect::<Vec<_>>() {
                if let Some(ended) = reg.files.get_mut(&ino).and_then(|m| m.end_grant(h)) {
                    let why = if ended.released { GrantEnd::Released } else { GrantEnd::Revoked };
                    self.settle(&mut reg, ended, why);
                }
            }

            // ---- Verify-on-sharing (Figure 2 steps 6–8). ----
            // The parent's dirent page was writable under the last writer of
            // this file; if the parent is dirty by someone else, vet it too.
            for f in file_and_dir.clone() {
                if reg.files.get(&f).is_some_and(|m| !m.dirty.trusted_by(actor)) {
                    self.verify_file_locked(&mut reg, f);
                }
            }

            // Verification may have *privatized* the file — expelled a
            // never-checkpointed corrupt creation from the namespace. It no
            // longer exists for anyone else; the mapper sees a clean miss.
            if !reg.files.contains_key(&ino) {
                return Err(FsError::NotFound);
            }
            // Verification may also have quarantined the offender; without
            // auto-repair the subtree stays off-limits until the repair
            // pass runs, and this very map is the first refused read.
            if file_and_dir.clone().any(|f| reg.ino_quarantined(f)) {
                return Err(FsError::Quarantined);
            }

            // ---- Fresh defensive walk (post-rollback state if any). ----
            let pages = self.current_pages(dirent)?;

            // ---- Checkpoint before granting write (§4.3). ----
            // Only a verified-clean file. While it is still dirty by the
            // mapper itself the stored checkpoint *is* the last verified
            // state (none, for a by-construction file nobody has vetted):
            // replacing it would make a later rollback restore unverified
            // bytes.
            if write && reg.files.get(&ino).is_some_and(|m| m.dirty.is_clean()) {
                self.take_checkpoint_locked(&mut reg, ino, &pages);
            }

            // ---- Enter the grant in the books. ----
            let granted = self.grant_frames(&reg, ino, actor, write, &pages)?;
            // (Read the size only now: verification/rollback may have
            // corrected a lied field.)
            let size = head.size().map_err(|_| FsError::NotFound)?;
            // The lease runs from when the mapping is usable, not from when
            // the books hold it: a 1 GiB file takes longer to program than
            // a lease lasts.
            let lease_until = if write {
                now_or_zero() + pagetable::program_ns(granted.len()) + self.config().lease_ns
            } else {
                0
            };
            let Some(meta) = reg.files.get_mut(&ino) else {
                return Err(FsError::Corrupted);
            };
            meta.grant(actor, write, granted.clone(), lease_until);
            let seq_before = meta.grant_seq;
            if write {
                meta.bump_seq(Some(actor));
            }
            let seq = meta.grant_seq;
            // The grant maps the file's dirent page writable: a page of the
            // parent's core state is now in hands other than its grantee's.
            if write {
                if let Some(pmeta) = reg.parent_meta(ino) {
                    if pmeta.seq_holder != Some(actor) {
                        pmeta.bump_seq(None);
                    }
                }
            }

            // ---- Program the MMU (Figure 2 steps 2 and 9). ----
            // Hand over hand: the grantee's page-table lock is taken before
            // the registry goes, so whoever ends this grant next unmaps
            // after the programming, never before it (`pagetable.rs`).
            let wants = reg.wants(actor, granted);
            let pt = self.page_table(actor);
            let ptes = pt.lock();
            drop(reg);
            ptes.apply(&wants);

            return Ok(MapGrant {
                ino,
                ftype,
                write,
                pages,
                lease_until,
                dirent,
                size,
                seq_before,
                seq,
            });
        }
    }

    /// Releases `actor`'s mapping of `ino` (Figure 2 step 5) — lazily
    /// (DESIGN.md §9): the grant stays in the books, released, with its
    /// PTEs, until another mapper, a verification or a migration needs the
    /// file and ends it through `settle`. What must not wait happens here:
    /// a writer's lease ends, the file and its parent are marked dirty by
    /// it, the dirent page in the parent leaves the grant, and mappers
    /// blocked on the lease wake.
    pub fn release(&self, actor: ActorId, ino: Ino) -> FsResult<()> {
        self.trap();
        let mut reg = self.reg_lock(RegistryLockSite::Release);
        let meta = reg.files.get_mut(&ino).ok_or(FsError::NotFound)?;
        if meta.release(actor) {
            let dirent = meta.dirent;
            self.mark_write_ended(&mut reg, ino, actor);
            self.reconcile(&reg, actor, dirent.map(|loc| loc.page));
            self.end_lease_wait(&mut reg, ino, actor, true);
        }
        Ok(())
    }

    /// `commit` (paper §4.3): verifies the caller's current state and, on a
    /// pass, replaces the checkpoint so a later rollback keeps these
    /// changes. The caller must hold the write grant.
    pub fn commit(&self, actor: ActorId, ino: Ino) -> FsResult<()> {
        self.trap();
        self.check_not_quarantined(actor)?;
        let mut reg = self.reg_lock(RegistryLockSite::Commit);
        let meta = reg.files.get_mut(&ino).ok_or(FsError::NotFound)?;
        if meta.writer() != Some(actor) {
            return Err(FsError::PermissionDenied);
        }
        let (dirent, lease_until) = (meta.dirent, meta.lease_until());
        meta.dirty.mark(actor, true);
        if !self.verify_file_locked(&mut reg, ino) {
            return Err(FsError::Corrupted);
        }
        // Re-checkpoint at the newly verified state and restore the
        // writer's mappings (verification cleared them) under the lease it
        // already has.
        let pages = self.current_pages(dirent).map_err(|_| FsError::Corrupted)?;
        self.take_checkpoint_locked(&mut reg, ino, &pages);
        let granted = self.grant_frames(&reg, ino, actor, true, &pages)?;
        let meta = reg.files.get_mut(&ino).ok_or(FsError::Corrupted)?;
        meta.grant(actor, true, granted.clone(), lease_until);
        meta.dirty = Dirty::Clean;
        let wants = reg.wants(actor, granted);
        let pt = self.page_table(actor);
        let ptes = pt.lock();
        drop(reg);
        ptes.apply(&wants);
        Ok(())
    }

    /// Returns pages a writer removed from its file (truncate, overwrite
    /// shrink) to the free pool. Unlike [`KernelController::free_pages`]
    /// this accepts pages whose provenance is `InFile(ino)`, provided the
    /// caller holds `ino`'s write grant.
    pub fn return_file_pages(
        &self,
        actor: ActorId,
        ino: Ino,
        pages: &[PageId],
    ) -> FsResult<()> {
        self.trap();
        // Fast path (the common truncate/shrink case): every page still
        // carries the caller's pool provenance, so no write-grant check —
        // and no control lock — is needed; the shard probe suffices.
        let all_pool = self.prov.all_match(pages.iter().map(|p| p.0), |_, v| {
            matches!(v, Some(PageProvenance::AllocatedTo(a)) if a == actor)
        });
        if !all_pool {
            // Slow path: some pages are kernel-claimed for the file. That
            // needs the caller to hold `ino`'s write grant, checked under
            // the control lock; the provenance flip happens while the
            // grant check still holds so a concurrent revocation cannot
            // interleave.
            let reg = self.reg_lock(RegistryLockSite::ReturnFile);
            let writer_ok = reg.files.get(&ino).and_then(|m| m.writer()) == Some(actor);
            for p in pages {
                match self.prov.get(p.0) {
                    Some(PageProvenance::AllocatedTo(a)) if a == actor => {}
                    Some(PageProvenance::InFile(f)) if f == ino && writer_ok => {}
                    _ => return Err(FsError::PermissionDenied),
                }
            }
            self.prov
                .insert_batch(pages.iter().map(|p| (p.0, PageProvenance::AllocatedTo(actor))));
            drop(reg);
        }
        self.alloc.put_back(pages, PutBack::Cache(actor));
        Ok(())
    }

    /// Batched unlink reclamation: one trap amortized over many deleted
    /// files (the LibFS queues unlinks and flushes periodically). Items are
    /// `(ino, first_index)`. Reclaimed pages are *recycled into the
    /// caller's pool* (provenance `AllocatedTo`, a Write PTE kept where the
    /// caller had one) rather than freed, so delete/create churn of files
    /// built on the caller's own pool pages costs no page-table traffic.
    pub fn reclaim_batch(&self, actor: ActorId, items: &[(Ino, u64)]) -> FsResult<Vec<PageId>> {
        self.trap();
        self.check_not_quarantined(actor)?;
        let mut recycled = Vec::new();
        for (ino, first_index) in items {
            recycled.extend(self.reclaim_one(actor, *ino, *first_index)?);
        }
        Ok(recycled)
    }

    /// Reclaims a deleted file's resources after the LibFS cleared its
    /// dirent (unlink/rmdir path): a batch of one.
    pub fn reclaim_file(&self, actor: ActorId, ino: Ino, first_index: u64) -> FsResult<Vec<PageId>> {
        self.reclaim_batch(actor, &[(ino, first_index)])
    }

    /// `first_index` is the chain head the LibFS read before clearing the
    /// dirent. Who may reclaim comes from the books alone: an ino handed
    /// to the caller, or one that has left the slot the kernel recorded
    /// for it (the move rule: deleted, or moved and deleted). A file still
    /// live at its recorded slot is nobody's — whoever unlinks it clears
    /// the dirent first.
    fn reclaim_one(&self, actor: ActorId, ino: Ino, first_index: u64) -> FsResult<Vec<PageId>> {
        let mut reg = self.reg_lock(RegistryLockSite::Reclaim);
        let ino_ok = match self.inos.get(ino) {
            None | Some(InoProvenance::Unknown) => true,
            Some(InoProvenance::AllocatedTo(a)) => a == actor,
            Some(InoProvenance::InUse(loc)) => !self.verifier().still_at(ino, loc),
        };
        if !ino_ok {
            return Err(FsError::PermissionDenied);
        }
        // The dead file's books go with it, and its holders' mappings —
        // released grants' too — with the books. Nothing is left to vet,
        // and the chain's pages are scrubbed and recycled below: no dirt,
        // no chain walk. The caller's own grant is reconciled last, once it
        // is known which of its pages stay with it.
        let mut own: Vec<PageId> = Vec::new();
        if let Some(mut meta) = reg.files.remove(&ino) {
            for ended in meta.holders().into_iter().filter_map(|a| meta.end_grant(a)) {
                if ended.actor == actor {
                    own = ended.pages;
                } else {
                    self.reconcile(&reg, ended.actor, ended.pages);
                }
                if ended.write && !ended.released {
                    self.end_lease_wait(&mut reg, ino, ended.actor, true);
                }
            }
            if let Some(ck) = &meta.checkpoint {
                let pages: Vec<PageId> = ck.images.iter().map(|(p, _)| *p).collect();
                drop(reg);
                self.alloc.unpin(pages.into_iter());
                reg = self.reg_lock(RegistryLockSite::Reclaim);
            }
        }
        self.inos.remove(ino);
        // Free the chain's pages, but only the dead file's own and the
        // caller's pool pages: never pages the books say belong to a
        // *different* file (a malicious LibFS could pass a foreign chain).
        let walked = walk_file(self.kernel_handle(), first_index, crate::MAX_INDEX_PAGES);
        let chain: Vec<PageId> = walked.map(|p| p.all_pages().collect()).unwrap_or_default();
        let keys: Vec<u64> = chain.iter().map(|p| p.0).collect();
        let freeable: Vec<PageId> = chain
            .into_iter()
            .zip(self.prov.get_batch(&keys))
            .filter(|(_, prov)| match prov {
                Some(PageProvenance::InFile(f)) => *f == ino,
                Some(PageProvenance::AllocatedTo(a)) => *a == actor,
                _ => false,
            })
            .map(|(p, _)| p)
            .collect();
        // Recycle into the caller's pool: flip provenance, keep (or grant)
        // the caller's write mapping, scrub contents so stale dirents or
        // data cannot leak through the reuse. These frames do not come
        // back to the allocator — they change hands — so this is not a
        // `put_back`: no limbo. Frames a checkpoint pins or the patrol
        // condemned are the exception, and go back the one way.
        let (recyclable, held) = self.alloc.split_recyclable(freeable);
        self.prov
            .insert_batch(recyclable.iter().map(|p| (p.0, PageProvenance::AllocatedTo(actor))));
        if !own.is_empty() {
            let kept: BTreeSet<PageId> = recyclable.iter().copied().collect();
            own.retain(|p| !kept.contains(p));
            self.reconcile(&reg, actor, own);
        }
        drop(reg);
        self.page_table(actor).lock().recycle(&recyclable);
        if !held.is_empty() {
            self.alloc.put_back(&held, PutBack::Pool);
        }
        Ok(recyclable)
    }

    // =================================================================
    // Internals.
    // =================================================================

    /// The file's chain as it is on media now, from wherever its head
    /// lives ([`FileHead`]).
    pub(crate) fn current_pages(&self, dirent: Option<DirentLoc>) -> FsResult<FilePages> {
        let head = FileHead::new(self.kernel_handle(), dirent);
        let first_index = head.first_index().map_err(|_| FsError::NotFound)?;
        walk_file(self.kernel_handle(), first_index, crate::MAX_INDEX_PAGES)
            .map_err(|_| FsError::Corrupted)
    }

    /// Creates the kernel's `FileMeta` for `ino` on first contact,
    /// adopting shadow attributes (I4) and validating inode provenance
    /// (I2: fabricated or double-referenced inos are rejected here). An ino
    /// met away from the slot the books record for it has moved there if
    /// that slot no longer holds it; if it still does, it would be live
    /// twice.
    fn adopt_file(
        &self,
        reg: &mut Registry,
        ino: Ino,
        ftype: CoreFileType,
        dirent: Option<DirentLoc>,
    ) -> FsResult<()> {
        let meta = reg.files.get(&ino);
        let known = meta.is_some();
        let prov = if known { None } else { self.inos.get(ino) };
        let recorded = match (meta, prov) {
            (Some(meta), _) => meta.dirent,
            (None, Some(InoProvenance::InUse(at))) => Some(at),
            (None, _) => None,
        };
        let Some(loc) = dirent else {
            return if known { Ok(()) } else { Err(FsError::Corrupted) }; // The root.
        };
        match recorded {
            // Where the books place it, or placed for the first time.
            Some(at) if at == loc => {}
            None if !known => {}
            // Moved: the recorded slot no longer holds it.
            Some(old) if !self.verifier().still_at(ino, old) => {}
            // Live at two slots, or the root named by a dirent.
            _ => return Err(FsError::Corrupted),
        }
        if known {
            if recorded != dirent {
                self.relocate(reg, ino, recorded, loc, self.dir_of(loc));
            }
            return Ok(());
        }
        let dirty_by;
        let shadow = match prov {
            None | Some(InoProvenance::Unknown) => return Err(FsError::Corrupted),
            Some(InoProvenance::AllocatedTo(creator)) => {
                // The creator's direct-access writes are unvetted until the
                // first cross-actor verification.
                dirty_by = Some(creator);
                // First contact after a direct-access create: adopt the
                // creator's credentials as ground truth and the mode the
                // creator wrote into the dirent.
                let cred = reg.actors.get(&creator).copied().unwrap_or(crate::registry::Credentials {
                    uid: u32::MAX,
                    gid: u32::MAX,
                });
                let d = DirentRef::new(self.kernel_handle(), loc).load();
                ShadowAttr { mode: d.map_or(trio_fsapi::Mode::RW, |d| d.mode), uid: cred.uid, gid: cred.gid }
            }
            Some(InoProvenance::InUse(_)) => {
                // Observed during a parent's verification (or a kernel
                // restart); if its creator's writes are still unvetted,
                // carry the dirtiness over so the first cross-actor map
                // verifies the child itself.
                dirty_by = reg.pending_dirty.remove(&ino);
                let d = DirentRef::new(self.kernel_handle(), loc).load().map_err(|_| FsError::NotFound)?;
                match (dirty_by, reg.actors.get(&dirty_by.unwrap_or(trio_nvm::KERNEL_ACTOR)).copied()) {
                    (Some(_), Some(cred)) => ShadowAttr { mode: d.mode, uid: cred.uid, gid: cred.gid },
                    _ => ShadowAttr { mode: d.mode, uid: d.uid, gid: d.gid },
                }
            }
        };
        let mut meta = FileMeta::new(ino, ftype, shadow);
        meta.dirty = dirty_by.map_or(Dirty::Clean, Dirty::By);
        reg.files.insert(ino, meta);
        self.relocate(reg, ino, recorded, loc, self.dir_of(loc));
        Ok(())
    }

    /// The one writer of a file's place: `ino`, which the books place at
    /// `recorded`, lives at `loc`, in a page of `dir`. The ino's provenance,
    /// the file's dirent and its parent move together. A live write grant
    /// may cover the old slot's page, so when the file has left that slot
    /// the grant ends first (revoked), while the books still name the
    /// directory that page belongs to: that directory is marked dirty by
    /// the writer and the page leaves its page table.
    fn relocate(
        &self,
        reg: &mut Registry,
        ino: Ino,
        recorded: Option<DirentLoc>,
        loc: DirentLoc,
        dir: Option<Ino>,
    ) {
        let moved = reg.files.get(&ino).filter(|m| m.dirent != Some(loc));
        let writer = moved.and_then(FileMeta::writer);
        if let Some(ended) = writer.and_then(|w| reg.files.get_mut(&ino)?.end_grant(w)) {
            self.settle(reg, ended, GrantEnd::Revoked);
        }
        if recorded != Some(loc) {
            self.inos.insert(ino, InoProvenance::InUse(loc));
        }
        if let Some(meta) = reg.files.get_mut(&ino) {
            meta.dirent = Some(loc);
            meta.parent = dir;
        }
    }

    /// The directory a verification claimed `loc`'s page for, if any.
    fn dir_of(&self, loc: DirentLoc) -> Option<Ino> {
        match self.prov.get(loc.page.0) {
            Some(PageProvenance::InFile(dir)) => Some(dir),
            _ => None,
        }
    }

    /// The frames a grant of `ino` on `pages` exposes, for the books
    /// ([`FileMeta::grant`]) and then the page table. A writer also gets
    /// the page holding its dirent, when the books name who answers for
    /// stores into it: the directory they place the file in, whose dirt the
    /// grant's end marks, or the writer itself, whose pool page it is. A
    /// chain that names a frame outside the device is corrupt; refusing it
    /// here, before the books, is what makes the programming afterwards
    /// infallible.
    fn grant_frames(
        &self,
        reg: &Registry,
        ino: Ino,
        actor: ActorId,
        write: bool,
        pages: &FilePages,
    ) -> FsResult<Vec<PageId>> {
        let mut granted: Vec<PageId> = pages.all_pages().collect();
        let meta = reg.files.get(&ino).filter(|_| write);
        let answered = |loc: &DirentLoc| match meta.and_then(|m| m.parent) {
            Some(dir) => reg.files.contains_key(&dir),
            None => self.prov.get(loc.page.0) == Some(PageProvenance::AllocatedTo(actor)),
        };
        granted.extend(meta.and_then(|m| m.dirent).filter(answered).map(|loc| loc.page));
        let total = self.device().topology().total_pages();
        if granted.iter().any(|p| p.0 >= total) {
            return Err(FsError::Corrupted);
        }
        Ok(granted)
    }

    /// Settles a grant that has left the books — Figure 2 step 5 for every
    /// way there is of getting to it, and the one place §3.2's rule is
    /// written down: *whenever* a write grant ends, the file and the parent
    /// page holding its dirent stay unverified until the verifier has run.
    ///
    /// 1. Dirt: the file is marked dirty by the holder, its parent too.
    /// 2. MMU: the granted pages are reconciled — each keeps what another
    ///    grant of the holder allows there (a dirent page its grant on the
    ///    parent covers, say), and loses the rest. So are the pages the
    ///    writer linked in from its pool (mapped through the pool grant;
    ///    found by walking the chain as it is now), which no grant covers:
    ///    they go, or a revoked writer could store into them until the
    ///    verification.
    /// 3. Word: a revocation is an event; mappers blocked on the lease wake.
    ///
    /// A released grant (`release`) had 1, the dirent page of 2, and 3 done
    /// when it was released — its lease ended as a recall honoured — so
    /// only its PTEs are left: no second mark on the parent, no event, no
    /// recall counted twice.
    pub(crate) fn settle(&self, reg: &mut Registry, ended: EndedGrant, why: GrantEnd) {
        let EndedGrant { ino, actor, write, mut pages, dirent, released } = ended;
        let live_write = write && !released;
        if live_write {
            self.mark_write_ended(reg, ino, actor);
        }
        if why != GrantEnd::Contained {
            if write {
                pages.extend(self.current_pages(dirent).iter().flat_map(FilePages::all_pages));
            }
            self.reconcile(reg, actor, pages);
        }
        if live_write {
            if why == GrantEnd::Revoked {
                self.push_event(KernelEvent::LeaseRevoked { ino, actor });
            }
            let honoured = matches!(why, GrantEnd::Released | GrantEnd::Exited);
            self.end_lease_wait(reg, ino, actor, honoured);
        }
    }

    /// `actor`'s write access to `ino` has ended (step 5's dirt): the file
    /// and its parent are marked dirty by it.
    fn mark_write_ended(&self, reg: &mut Registry, ino: Ino, actor: ActorId) {
        if let Some(meta) = reg.files.get_mut(&ino) {
            meta.dirty.mark(actor, true);
        }
        if let Some(pmeta) = reg.parent_meta(ino) {
            pmeta.dirty.mark(actor, false);
        }
    }

    /// Ends the grants on `ino` that those of `holders` have released.
    pub(crate) fn end_released(
        &self,
        reg: &mut Registry,
        ino: Ino,
        holders: impl IntoIterator<Item = ActorId>,
    ) {
        for h in holders {
            let meta = reg.files.get_mut(&ino).filter(|m| m.is_released(h));
            if let Some(ended) = meta.and_then(|m| m.end_grant(h)) {
                self.settle(reg, ended, GrantEnd::Released);
            }
        }
    }

    /// Ends `ino`'s released write grant, if it has one: no verification or
    /// rollback runs while a released writer still holds write PTEs on the
    /// file's chain.
    fn end_released_writer(&self, reg: &mut Registry, ino: Ino) {
        let writer = reg.files.get(&ino).and_then(FileMeta::released_writer);
        self.end_released(reg, ino, writer);
    }

    /// Ends every grant `actor` holds, in ino order (it is leaving, or
    /// being contained).
    pub(crate) fn end_grants_of(&self, reg: &mut Registry, actor: ActorId, why: GrantEnd) {
        for ino in reg.held_by(actor) {
            if let Some(ended) = reg.files.get_mut(&ino).and_then(|m| m.end_grant(actor)) {
                self.settle(reg, ended, why);
            }
        }
    }

    /// `holder`'s write lease on `ino` is over: withdraws the recall from
    /// its page and wakes every mapper blocked on the lease. `honoured`
    /// says whether the holder let go itself or ran into expiry.
    pub(crate) fn end_lease_wait(
        &self,
        reg: &mut Registry,
        ino: Ino,
        holder: ActorId,
        honoured: bool,
    ) {
        let Some(wake) = reg.lease_waiters.remove(&ino) else {
            return;
        };
        if let Some(page) = reg.recall_pages.get(&holder) {
            page.withdraw(ino);
        }
        self.resilience_stats().record_recall_end(honoured);
        if in_sim() {
            wake.close();
        }
    }

    /// Runs the integrity verifier on `ino` (which must be dirty). On a
    /// pass: claims pages, registers children, clears dirtiness. On a
    /// failure: logs, rolls back to the checkpoint, clears dirtiness.
    /// Returns whether the original state passed.
    pub(crate) fn verify_file_locked(&self, reg: &mut Registry, ino: Ino) -> bool {
        self.end_released_writer(reg, ino);
        let _timed = self.time_phase(|p| &p.verify_ns);
        // Pin the reclamation epoch for the whole verification: pages the
        // walk observes may sit in the GC limbo list (freed but not yet
        // recycled), and the pin guarantees their contents and provenance
        // stay put until the verdict is in.
        let _pin = self.alloc.epoch_pin();
        let Some(meta) = reg.files.get(&ino) else {
            return true;
        };
        let Some(dirty_actor) = meta.dirty.actor() else {
            return true;
        };
        let ftype = meta.ftype;
        let dirent = meta.dirent;
        let first_index =
            FileHead::new(self.kernel_handle(), dirent).first_index().unwrap_or_default();
        let ck_children = meta.checkpoint.as_ref().map(|c| c.children.clone());
        let req = VerifyRequest {
            ino,
            ftype,
            dirent,
            first_index,
            dirty_actor,
            checkpoint_children: ck_children.as_ref(),
            max_index_pages: crate::MAX_INDEX_PAGES,
            max_dir_entries: crate::MAX_DIR_ENTRIES,
        };
        let report = self.verifier().verify(&req, &self.view(reg));
        if report.budget_hit {
            self.resilience_stats().record_budget_hit();
        }
        if report.ok() {
            self.claim_pages_for_file(ino, &report.pages);
            // Every child is placed here: the verifier passed the ones it
            // found moved in (the move rule), and placed ones whose parent
            // the books did not know yet learn it.
            for child in &report.children {
                let recorded = match self.inos.get(child.ino) {
                    Some(InoProvenance::InUse(at)) => Some(at),
                    // The child's own core state is still unvetted.
                    Some(InoProvenance::AllocatedTo(creator)) => {
                        reg.pending_dirty.insert(child.ino, creator);
                        None
                    }
                    _ => None,
                };
                let placed = reg.files.get(&child.ino).is_none_or(|m| m.parent == Some(ino));
                if recorded != Some(child.loc) || !placed {
                    self.relocate(reg, child.ino, recorded, child.loc, Some(ino));
                }
            }
            // The dirty actor keeps on the verified file's pages what its
            // grants allow — the pool pages it linked in are the file's now.
            self.reconcile(reg, dirty_actor, report.pages.all_pages());
            // Rollback must restore the *last verified* state. The image
            // taken at write-grant time is superseded the moment this
            // verification passes; keeping it would let a later rollback
            // resurrect pre-verification contents.
            self.take_checkpoint_locked(reg, ino, &report.pages);
            if let Some(meta) = reg.files.get_mut(&ino) {
                meta.dirty = Dirty::Clean;
            }
            true
        } else {
            self.resilience_stats().record_violations(&report.violations);
            self.push_event(KernelEvent::CorruptionDetected {
                ino,
                violations: report.violations.len(),
            });
            crate::obs::violation_dump(ino);
            self.rollback_locked(reg, ino);
            self.push_event(KernelEvent::RolledBack { ino });
            // Containment: a confirmed violation by a live, registered
            // LibFS quarantines it (rollback above already stopped the
            // bleeding on this file; the quarantine covers the rest of its
            // unvetted subtree). Pure media faults are the exception: a
            // poisoned line is the device's doing, not the writer's, so
            // rollback repairs what it can without branding the LibFS.
            let media_only = report
                .violations
                .iter()
                .all(|v| matches!(v, trio_verifier::Violation::UnreadableData { .. }));
            if !media_only {
                self.maybe_quarantine_locked(reg, dirty_actor);
            }
            false
        }
    }

    /// Restores `ino` to its checkpoint (paper §4.3 "Fixing metadata
    /// corruption"), reconciling vanished pages by trimming.
    fn rollback_locked(&self, reg: &mut Registry, ino: Ino) {
        // Nor a rollback: the cascade below rolls children back without
        // verifying them first.
        self.end_released_writer(reg, ino);
        let Some(meta) = reg.files.get_mut(&ino) else {
            return;
        };
        let dirty_actor = std::mem::take(&mut meta.dirty).actor();
        // The core state is about to change under the kernel's hand: the
        // file's own, and the parent's page that holds its dirent.
        meta.bump_seq(None);
        let dirent = meta.dirent;
        let ftype = meta.ftype;
        let ck = meta.checkpoint.clone();
        if let Some(pmeta) = reg.parent_meta(ino) {
            pmeta.bump_seq(None);
        }
        let Some(ck) = ck else {
            // Never checkpointed: the file was created raw by the dirty
            // actor and is corrupt — delete it outright (its pages stay
            // with the creator's pool). Grants released on it end first,
            // the one way released grants end.
            let holders = reg.files.get(&ino).map(FileMeta::holders).unwrap_or_default();
            self.end_released(reg, ino, holders);
            if let Some(loc) = dirent {
                let _ = DirentRef::new(self.kernel_handle(), loc).clear();
            }
            reg.files.remove(&ino);
            self.inos.remove(ino);
            self.push_event(KernelEvent::Privatized { ino, actor: dirty_actor });
            return;
        };
        // 1. Restore page images.
        for (p, img) in &ck.images {
            let _ = self.device().restore_page(*p, img);
        }
        if in_sim() {
            work(ck.images.len() as u64 * cost::CHECKPOINT_PAGE_NS);
        }
        // 2. Restore the head: the dirent slot, or the root's fields.
        let head = FileHead::new(self.kernel_handle(), dirent);
        if let Some(img) = &ck.head {
            // registry → sb_lock is the sanctioned order (sb_lock is a
            // leaf; its holders never take the registry).
            let _sb_guard = head.in_superblock().then(|| self.sb_lock.lock());
            let _ = head.restore(img);
        }
        // 3. Reconcile: clear slots whose pages no longer belong here.
        let fi = head.first_index().unwrap_or(0);
        self.trim_foreign_slots(ino, fi, dirty_actor);
        // 4. For directories, reconcile each surviving child's chain too.
        if ftype == CoreFileType::Directory {
            if let Ok(pages) = walk_file(self.kernel_handle(), fi, crate::MAX_INDEX_PAGES) {
                let mut children = Vec::new();
                for dp in pages.data_pages.iter().flatten() {
                    if let Ok(page) = DirPage::load(self.kernel_handle(), *dp) {
                        children.extend(page.live().map(|(loc, d)| (d.ino, d.first_index, loc)));
                    }
                }
                // A child the books place at a live slot elsewhere moved out
                // after the checkpoint: restored here, it would be live twice.
                let (moved, children): (Vec<_>, Vec<_>) = children.into_iter().partition(|c| {
                    matches!(self.inos.get(c.0), Some(InoProvenance::InUse(at))
                        if at != c.2 && self.verifier().still_at(c.0, at))
                });
                for (_, _, cloc) in &moved {
                    let _ = DirentRef::new(self.kernel_handle(), *cloc).clear();
                }
                if !moved.is_empty() {
                    let _sb_guard = head.in_superblock().then(|| self.sb_lock.lock());
                    let _ = head.set_size(head.size().unwrap_or(0).saturating_sub(moved.len() as u64));
                }
                for (cino, cfi, cloc) in children {
                    let child_has_ck = cino != ino
                        && reg.files.get(&cino).is_some_and(|m| m.checkpoint.is_some());
                    let broken =
                        walk_file(self.kernel_handle(), cfi, crate::MAX_INDEX_PAGES).is_err();
                    let foreign =
                        !broken && !self.foreign_slots(cino, cfi, dirty_actor).is_empty();
                    if (broken || foreign) && child_has_ck {
                        // The child's own checkpoint can restore its chain;
                        // trimming here would erase data its rollback is
                        // about to recover.
                        if let (Some(cm), Some(da)) = (reg.files.get_mut(&cino), dirty_actor) {
                            if cm.dirty.is_clean() {
                                cm.dirty = Dirty::By(da);
                            }
                        }
                        self.rollback_locked(reg, cino);
                        self.push_event(KernelEvent::RolledBack { ino: cino });
                    } else if broken || foreign {
                        if broken {
                            // Trim the child to empty rather than leave a
                            // dangling chain.
                            let _ = FileHead::new(self.kernel_handle(), Some(cloc)).trim();
                        } else {
                            self.trim_foreign_slots(cino, cfi, dirty_actor);
                        }
                        if let Some(cm) = reg.files.get_mut(&cino) {
                            cm.bump_seq(None);
                        }
                    }
                }
            }
        }
        // 5. Re-claim the restored pages; the dirty actor keeps on them what
        //    its grants allow.
        if let Ok(pages) = walk_file(self.kernel_handle(), fi, crate::MAX_INDEX_PAGES) {
            self.claim_pages_for_file(ino, &pages);
            if let Some(da) = dirty_actor {
                self.reconcile(reg, da, pages.all_pages());
            }
        }
    }

    /// The index slots of `ino`'s chain that point at pages neither the
    /// file's own nor legal growth from `dirty_actor`'s pool, as
    /// `(index page, slot)` — what trim/pad (§4.3) clears.
    fn foreign_slots(
        &self,
        ino: Ino,
        first_index: u64,
        dirty_actor: Option<ActorId>,
    ) -> Vec<(PageId, usize)> {
        let Ok(pages) = walk_file(self.kernel_handle(), first_index, crate::MAX_INDEX_PAGES)
        else {
            return Vec::new();
        };
        let foreign = |p: PageId| match self.prov.get(p.0) {
            Some(PageProvenance::InFile(f)) => f != ino,
            Some(PageProvenance::AllocatedTo(a)) => Some(a) != dirty_actor,
            _ => true,
        };
        pages
            .data_pages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some_and(&foreign))
            .filter_map(|(lp, _)| pages.slot_of(lp))
            .collect()
    }

    /// Clears the foreign slots of `ino`'s chain.
    fn trim_foreign_slots(&self, ino: Ino, first_index: u64, dirty_actor: Option<ActorId>) {
        for (ipage, i) in self.foreign_slots(ino, first_index, dirty_actor) {
            let _ = IndexPageRef::new(self.kernel_handle(), ipage).set_entry(i, 0);
        }
    }

    /// Snapshots the file's metadata pages (index pages; for directories
    /// also data pages), its dirent image, and — for directories — the set
    /// of live children (I3 baseline). Pins the snapshotted pages.
    fn take_checkpoint_locked(&self, reg: &mut Registry, ino: Ino, pages: &FilePages) {
        let _timed = self.time_phase(|p| &p.checkpoint_ns);
        let Some((ftype, dirent)) = reg.files.get(&ino).map(|m| (m.ftype, m.dirent)) else {
            return;
        };
        let meta_pages: Vec<PageId> = match ftype {
            CoreFileType::Regular => pages.index_pages.clone(),
            CoreFileType::Directory => pages.all_pages().collect(),
        };
        let mut images = Vec::with_capacity(meta_pages.len());
        for p in &meta_pages {
            if let Ok(img) = self.device().snapshot_page(*p) {
                images.push((*p, img));
            }
        }
        if in_sim() {
            work(images.len() as u64 * cost::CHECKPOINT_PAGE_NS);
        }
        let head = FileHead::new(self.kernel_handle(), dirent).image();
        // The verifier's request type takes a std set (perfbench builds one).
        #[allow(clippy::disallowed_methods, reason = "only the verifier iterates it, sorted")]
        let mut children = std::collections::HashSet::new();
        if ftype == CoreFileType::Directory {
            for dp in pages.data_pages.iter().flatten() {
                if let Ok(page) = DirPage::load(self.kernel_handle(), *dp) {
                    children.extend(page.live().map(|(_, d)| d.ino));
                }
            }
        }
        let new_ck = Checkpoint { images, head, children };
        // Pin new, unpin old.
        let new_pages: Vec<PageId> = new_ck.images.iter().map(|(p, _)| *p).collect();
        let old_pages: Vec<PageId> = reg
            .files
            .get(&ino)
            .and_then(|m| m.checkpoint.as_ref())
            .map(|c| c.images.iter().map(|(p, _)| *p).collect())
            .unwrap_or_default();
        self.alloc.pin(new_pages.into_iter());
        if let Some(meta) = reg.files.get_mut(&ino) {
            meta.checkpoint = Some(new_ck);
        }
        self.alloc.unpin(old_pages.into_iter());
    }
}
