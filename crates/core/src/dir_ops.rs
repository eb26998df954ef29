//! Directory operations: create, unlink, mkdir, rmdir, readdir, stat,
//! rename (paper §4.2, §4.4).
//!
//! All of these are *direct metadata updates*: the LibFS writes dirent
//! slots and index pages in its write-mapped parent directory without any
//! trusted-entity involvement. Crash consistency comes from the prepare/
//! publish protocol (whole slot persisted with ino 0, then the inode
//! number published with an 8-byte atomic persist) and, for rename, the
//! undo journal.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use trio_fsapi::{DirEntry, FsError, FsResult, Mode, Stat};
use trio_layout::{
    CoreFileType, DirentData, DirentLoc, DirentRef, IndexPageRef, SuperblockRef,
    ENTRIES_PER_INDEX, ROOT_INO,
};
use trio_nvm::{Dirty, Durable, Span, Spans, PAGE_SIZE};
use trio_sim::{in_sim, now_or_zero};

use crate::libfs::ArckFs;
use crate::node::{ChildLink, DirAux, DirEntryAux, FileNode, InodeRead};
use crate::pool::STRIPE_PAGES;

/// Unlinks of never-shared files of at most one stripe unit queued before
/// one batched kernel reclaim.
const RECLAIM_BATCH: usize = 32;

impl ArckFs {
    /// Creates a child (file or directory) under `parent`: two fences,
    /// the slot's prepare, then its publish with the directory's size and
    /// mtime.
    ///
    /// Handover-safe: the parent's size field lives in the *grandparent's*
    /// page, which a concurrent hand-over of the grandparent unmaps. A
    /// fault there strikes after the dirent is published, so the retry
    /// that `with_mapped` drives must finish the op, never run it again —
    /// `landed` carries the published entry across the remap.
    pub(crate) fn create_entry(
        &self,
        parent: &Arc<FileNode>,
        name: &str,
        ftype: CoreFileType,
        mode: Mode,
    ) -> FsResult<Arc<FileNode>> {
        trio_fsapi::path::validate_name(name)?;
        let mut landed: Option<(Arc<FileNode>, Arc<DirAux>)> = None;
        self.with_mapped(parent, true, |fs, g| {
            let aux = g.dir.as_ref().ok_or(FsError::NotDir)?.clone();
            match &landed {
                Some((n, touched)) => {
                    fs.bump_dirs(DirBump::settle(parent, &aux, touched, 1), None)?;
                    Ok(Arc::clone(n))
                }
                None => {
                    let (n, sized) = fs.publish_entry(parent, &aux, name, ftype, mode)?;
                    landed = Some((Arc::clone(&n), Arc::clone(&aux)));
                    sized.map(|()| n)
                }
            }
        })
    }

    /// The mutating half of `create_entry`: reserves a slot and the name
    /// in `aux`, then writes the dirent — prepare (ino 0), publish (§4.4),
    /// the publish retired with the directory's line — and builds the
    /// child's node whole (`FileNode::created`), entering it in the node
    /// table and the entry's link before the entry's ino is filled in: a
    /// lookup that sees the name published finds this node, never interns
    /// a second one for the ino. Returns the node and whether the
    /// directory's line was stored. Any failure before the publish leaves
    /// aux and core state as they were.
    fn publish_entry(
        &self,
        parent: &Arc<FileNode>,
        aux: &DirAux,
        name: &str,
        ftype: CoreFileType,
        mode: Mode,
    ) -> FsResult<(Arc<FileNode>, FsResult<()>)> {
        // Reserve a slot, growing the directory as needed.
        let shard = if trio_sim::in_sim() { trio_sim::current_tid() } else { 0 };
        let loc = loop {
            if let Some(s) = aux.take_slot(shard) {
                break s;
            }
            self.grow_dir(parent, aux)?;
        };
        // Reserve the name in the hash table (atomic exists+insert).
        let link = ChildLink::default();
        let reserved = aux.with_bucket(name, |b| {
            if b.iter().any(|e| e.name == name) {
                return false;
            }
            let (name, linked, node) = (name.to_string(), aux.epoch(), link.clone());
            b.push(DirEntryAux { name, ino: 0, loc, ftype, linked, node });
            true
        });
        if !reserved {
            aux.put_slot(loc);
            return Err(FsError::Exists);
        }
        let ino = match self.inos.take() {
            Ok(i) => i,
            Err(e) => {
                aux.with_bucket(name, |b| b.retain(|x| x.name != name));
                aux.put_slot(loc);
                return Err(e);
            }
        };
        let d = DirentData::new(name.as_bytes(), ftype, mode, self.uid, self.gid);
        let dref = DirentRef::new(&self.h, loc);
        let published = dref.prepare(&d).and_then(|prepared| dref.stage_publish(ino, &prepared));
        let published = match published {
            Ok(p) => p,
            Err(e) => {
                aux.with_bucket(name, |b| b.retain(|x| x.name != name));
                aux.put_slot(loc);
                self.inos.put(ino);
                return Err(Self::fault(e));
            }
        };
        let bump = DirBump { dir: parent, aux, delta: 1 };
        let (_, sized) = self.fence_with_dirs(published, bump, None);
        let n = FileNode::created(ino, ftype, parent.ino, loc, now_or_zero());
        self.insert_node(&n);
        link.set(&n);
        // Fill in the reserved aux entry's ino: a second probe, under the
        // bucket lock, so that a lookup of the name sees the entry either
        // reserved (ino 0) or filled in, and only as the bucket lock lets
        // it (DESIGN.md §22 "Every op").
        aux.with_bucket(name, |b| {
            if let Some(e) = b.iter_mut().find(|e| e.name == name) {
                e.ino = ino;
            }
        });
        Ok((n, sized))
    }

    /// Removes a child. `want_dir` selects unlink (false) vs rmdir (true).
    /// One fence: the entry's clear with the directory's size and mtime.
    /// Handover-safe like [`ArckFs::create_entry`]: once the dirent is
    /// cleared, `gone` makes a retry resume at the size update.
    pub(crate) fn remove_entry(
        &self,
        parent: &Arc<FileNode>,
        name: &str,
        want_dir: bool,
    ) -> FsResult<()> {
        let mut gone: Option<(DirEntryAux, u64, u64, Arc<DirAux>)> = None;
        self.with_mapped(parent, true, |fs, g| {
            let aux = g.dir.as_ref().ok_or(FsError::NotDir)?.clone();
            let (entry, first_index, size, touched) = match &gone {
                Some(done) => {
                    fs.bump_dirs(DirBump::settle(parent, &aux, &done.3, -1), None)?;
                    done.clone()
                }
                None => {
                    let (entry, first_index, size, cleared) =
                        fs.clear_entry(&aux, name, want_dir)?;
                    let bump = DirBump { dir: parent, aux: &aux, delta: -1 };
                    let (_, sized) = fs.fence_with_dirs(cleared, bump, None);
                    // The slot is free for good only now.
                    aux.put_slot(entry.loc);
                    let done = gone.insert((entry, first_index, size, Arc::clone(&aux))).clone();
                    sized?;
                    done
                }
            };
            let ino = entry.ino;
            fs.forget_node(ino);
            if size <= (STRIPE_PAGES * PAGE_SIZE) as u64 && touched.is_fresh(&entry) {
                // A file the kernel has never seen, of at most one stripe
                // unit: its ino and chain wait in the batch (the hot unlink
                // path, e.g. FxMark MWUL and Varmail). Its pages keep
                // `AllocatedTo(actor)` and sit in no pool and no live file
                // until `reclaim_one` walks the chain. Every path that gives
                // the directory's grant back — `yield_node` (a release or a
                // recall) and `unmount` — flushes the batch first; a grant
                // revoked at lease expiry finds no trace of the file in the
                // directory. The bound keeps what waits small: a larger
                // file's pages would be missed for 32 unlinks while the pool
                // maps new ones.
                let flush_now = {
                    let mut q = fs.reclaim.lock();
                    q.push((ino, first_index));
                    q.len() >= RECLAIM_BATCH
                };
                if flush_now {
                    fs.flush_reclaim()?;
                }
            } else {
                // One the kernel may know (`DirAux::is_fresh`), or a larger
                // file, reclaims at once.
                let recycled = fs.kernel.reclaim_file(fs.actor, ino, first_index)?;
                fs.pages.put_many(&recycled);
            }
            Ok(())
        })
    }

    /// The mutating half of `remove_entry`: checks the entry, stores its
    /// dirent's clear and drops it from `aux`, all under one hold of its
    /// bucket. Returns it, its chain head, its size and the clear, still to
    /// be fenced; its slot goes back to the tails only after that fence.
    fn clear_entry(
        &self,
        aux: &DirAux,
        name: &str,
        want_dir: bool,
    ) -> FsResult<(DirEntryAux, u64, u64, Dirty<Span>)> {
        aux.with_bucket(name, |b| {
            let i = b.iter().position(|e| e.name == name).ok_or(FsError::NotFound)?;
            match (b[i].ftype, want_dir) {
                (CoreFileType::Directory, false) => return Err(FsError::IsDir),
                (CoreFileType::Regular, true) => return Err(FsError::NotDir),
                _ => {}
            }
            let dref = DirentRef::new(&self.h, b[i].loc);
            let size = dref.size().map_err(Self::fault)?;
            if want_dir && size != 0 {
                // rmdir: the directory must be empty (semantic attack #2 of
                // §2.3.2 — removing non-empty directories — is what I3
                // protects against across LibFSes; within one LibFS we just
                // refuse).
                return Err(FsError::NotEmpty);
            }
            let first_index = dref.first_index().map_err(Self::fault)?;
            let cleared = dref.stage_clear().map_err(Self::fault)?;
            Ok((b.swap_remove(i), first_index, size, cleared))
        })
    }

    /// Lists a directory from its aux table, once a probe has shown the
    /// grant still holds.
    pub(crate) fn readdir_node(&self, dir: &Arc<FileNode>) -> FsResult<Vec<DirEntry>> {
        self.with_mapped(dir, false, |fs, g| {
            let aux = g.dir.as_ref().ok_or(FsError::NotDir)?;
            fs.probe_dir(&g)?;
            let mut out: Vec<DirEntry> = aux
                .entries()
                .into_iter()
                .map(|e| DirEntry { name: e.name, ino: e.ino, ftype: e.ftype.to_fsapi() })
                .collect();
            out.sort_by(|a, b| a.name.cmp(&b.name));
            Ok(out)
        })
    }

    /// Stats a node by reading its dirent (or the superblock for root).
    pub(crate) fn stat_node(&self, node: &Arc<FileNode>) -> FsResult<Stat> {
        if node.ino == ROOT_INO {
            let sb = SuperblockRef::new(&self.h);
            return Ok(Stat {
                ino: ROOT_INO,
                ftype: trio_fsapi::FileType::Directory,
                size: sb.root_size().map_err(Self::fault)?,
                mode: Mode(0o777),
                uid: 0,
                gid: 0,
                mtime: sb.root_mtime().map_err(Self::fault)?,
            });
        }
        // Re-resolve through the parent on staleness.
        for _ in 0..4 {
            let loc = node.placement().loc.ok_or(FsError::Stale)?;
            match DirentRef::new(&self.h, loc).load_stat() {
                Ok(d) => {
                    if d.ino != node.ino {
                        return Err(FsError::NotFound); // Unlinked or moved.
                    }
                    return Ok(Stat {
                        ino: d.ino,
                        ftype: d
                            .ftype()
                            .map(|t| t.to_fsapi())
                            .unwrap_or(trio_fsapi::FileType::Regular),
                        size: d.size,
                        mode: d.mode,
                        uid: d.uid,
                        gid: d.gid,
                        mtime: d.mtime,
                    });
                }
                Err(_) => {
                    // Parent mapping revoked: remap the parent directory.
                    let parent_ino = node.placement().parent;
                    let parent = self.node_by_ino(parent_ino).ok_or(FsError::Stale)?;
                    parent.invalidate();
                    drop(self.ensure_mapped(&parent, false)?);
                }
            }
        }
        Err(FsError::Stale)
    }

    pub(crate) fn node_by_ino(&self, ino: u64) -> Option<Arc<FileNode>> {
        if ino == ROOT_INO {
            return Some(Arc::clone(&self.root));
        }
        self.nodes[ino as usize % self.nodes.len()].read().get(&ino).cloned()
    }

    /// Renames `src` to `dst` (same LibFS), journaled for crash atomicity.
    /// An existing destination is dropped first, by an unlink of its own
    /// between two tries of the move; only the first may find it there.
    pub(crate) fn rename_entry(&self, src: &str, dst: &str) -> FsResult<()> {
        let (sdir, sname) = trio_fsapi::path::split_parent(src)?;
        let sp = self.resolve_dir(&sdir)?;
        let (ddir, dname) = trio_fsapi::path::split_parent(dst)?;
        // A rename within one directory walks its path once.
        let dp = if ddir == sdir { Arc::clone(&sp) } else { self.resolve_dir(&ddir)? };
        trio_fsapi::path::validate_name(dname)?;
        if sp.ino == dp.ino && sname == dname {
            // Onto itself: nothing changes (POSIX), if the entry exists.
            return self.lookup_child(&sp, sname)?.map(|_| ()).ok_or(FsError::NotFound);
        }
        let Some(want_dir) = self.try_move(&sp, &dp, (sname, dname))? else {
            return Ok(());
        };
        self.remove_entry(&dp, dname, want_dir)?;
        self.try_move(&sp, &dp, (sname, dname))?.map_or(Ok(()), |_| Err(FsError::Exists))
    }

    /// One try of a rename: the move and both size updates, under both
    /// directories' gates, each directory mapped once and its inode lock
    /// read once (once in all when they are one directory). `Some(is a
    /// directory)`, before any change, when `dname` exists.
    fn try_move(
        &self,
        sp: &FileNode,
        dp: &FileNode,
        names: (&str, &str),
    ) -> FsResult<Option<bool>> {
        self.poll_recalls();
        // Both directories' gates, in ino order (two renames in opposite
        // directions must not wait on each other).
        let (lo, hi) = if sp.ino <= dp.ino { (sp, dp) } else { (dp, sp) };
        let _lo = lo.gate.read();
        let _hi = (lo.ino != hi.ino).then(|| hi.gate.read());
        let mut st = MoveState::default();
        self.retry_mapped(sp, true, |fs, sg| {
            let r = fs.move_and_settle(sp, sg, dp, names, &mut st);
            if std::mem::take(&mut st.dp_stale) {
                dp.invalidate();
            }
            r
        })
    }

    /// The body of [`ArckFs::try_move`] under `sp`'s inode lock `sg`.
    fn move_and_settle(
        &self,
        sp: &FileNode,
        sg: InodeRead<'_>,
        dp: &FileNode,
        (sname, dname): (&str, &str),
        st: &mut MoveState,
    ) -> FsResult<Option<bool>> {
        let same = sp.ino == dp.ino;
        let (sg, dg) = self.lock_dest(sp, sg, dp)?;
        let saux = sg.dir.as_ref().ok_or(FsError::NotDir)?.clone();
        let daux = dg.as_ref().unwrap_or(&sg).dir.as_ref().ok_or(FsError::NotDir)?.clone();
        match st.moved.clone() {
            // Resumed: the entry has moved, its directories' lines are left.
            Some((stouched, dtouched)) => {
                let (delta, b) = match same {
                    true => (0, None),
                    false => (-1, Some(DirBump::settle(dp, &daux, &dtouched, 1))),
                };
                self.bump_dirs(DirBump::settle(sp, &saux, &stouched, delta), b)
                    .inspect_err(|e| st.dp_stale = !same && *e == FsError::Stale)?;
            }
            None => {
                // Nothing changes before both grants are known to hold: the
                // source's hit is checked against its dirent's ino, as a
                // walk checks one, and `dp`'s core state is probed.
                let Some(e) = saux.lookup(sname) else {
                    self.probe_dir(&sg)?;
                    return Err(FsError::NotFound);
                };
                if DirentRef::new(&self.h, e.loc).ino().map_err(Self::fault)? != e.ino {
                    return Err(FsError::Stale);
                }
                if let Some(dg) = &dg {
                    self.probe_dir(dg).inspect_err(|e| st.dp_stale = *e == FsError::Stale)?;
                }
                let moved = self
                    .move_entry(e, (sp, dp), (&saux, &daux), (sname, dname), st)
                    .inspect_err(|e| st.dp_stale = !same && *e == FsError::Stale)?;
                if let Some(x) = moved {
                    // A name found after a reservation is that reservation,
                    // left by a step that failed after it.
                    if st.reserved {
                        return Err(FsError::Exists);
                    }
                    // Checked against its dirent's ino, as a walk checks a
                    // hit: a reservation an earlier rename left behind
                    // names a slot without it, and re-mapping `dp` drops it.
                    DirentRef::new(&self.h, x.loc)
                        .ino()
                        .map_err(Self::fault)
                        .and_then(|ino| if ino == x.ino { Ok(()) } else { Err(FsError::Stale) })
                        .inspect_err(|e| st.dp_stale = *e == FsError::Stale)?;
                    return Ok(Some(x.ftype == CoreFileType::Directory));
                }
            }
        }
        Ok(None)
    }

    /// `dp`'s inode lock, read after `sp`'s `sg` (`None` when they are one
    /// directory). A `dp` mapped for write costs that read alone. A cold
    /// one is mapped with no inode lock held, since its map may wait on a
    /// recall, and `sp`'s lock is then read again.
    fn lock_dest<'n>(
        &self,
        sp: &'n FileNode,
        sg: InodeRead<'n>,
        dp: &'n FileNode,
    ) -> FsResult<(InodeRead<'n>, Option<InodeRead<'n>>)> {
        if sp.ino == dp.ino {
            return Ok((sg, None));
        }
        let dg = dp.inner.read();
        if dg.map.grants(true) {
            return Ok((sg, Some(dg)));
        }
        drop((dg, sg));
        self.map_node(dp, true)?;
        let sg = self.ensure_mapped(sp, true)?;
        let dg = Some(dp.inner.read()).filter(|g| g.map.grants(true)).ok_or(FsError::Stale)?;
        Ok((sg, Some(dg)))
    }

    /// The mutating half of `rename_entry`: reserves `dname` in `daux` —
    /// which is also the check that it does not exist — moves the source
    /// entry `e`'s dirent there under the undo journal, drops `e` from
    /// `saux`, and moves the child's node after it. `Some(its entry)`, and
    /// no change, if `dname` exists.
    ///
    /// Four fences (DESIGN.md §18 "Epochs"): the journal's bodies with the
    /// destination's prepare; both arm words; the destination's publish,
    /// the source's clear and both directories' lines; the disarm. A move
    /// that fails once armed is undone while its slots are writable, and
    /// its reservation dropped, so the next try starts clean.
    fn move_entry(
        &self,
        e: DirEntryAux,
        (sp, dp): (&FileNode, &FileNode),
        (saux, daux): (&Arc<DirAux>, &Arc<DirAux>),
        (sname, dname): (&str, &str),
        st: &mut MoveState,
    ) -> FsResult<Option<DirEntryAux>> {
        // Reserve the destination slot and name.
        let shard = if in_sim() { trio_sim::current_tid() } else { 0 };
        let dloc = loop {
            if let Some(s) = daux.take_slot(shard) {
                break s;
            }
            // Dropping an existing destination frees a slot: grow only for
            // a new name.
            if let Some(x) = daux.lookup(dname) {
                return Ok(Some(x));
            }
            self.grow_dir(dp, daux)?;
        };
        let link = ChildLink::default();
        let existing = daux.with_bucket(dname, |b| {
            if let Some(x) = b.iter().find(|x| x.name == dname) {
                return Some(x.clone());
            }
            // Still unknown to the kernel only if it was in the source.
            let linked = if saux.is_fresh(&e) { daux.epoch() } else { 0 };
            let (name, node) = (dname.to_string(), link.clone());
            b.push(DirEntryAux { name, loc: dloc, linked, node, ..e.clone() });
            None
        });
        if existing.is_some() {
            daux.put_slot(dloc);
            return Ok(existing);
        }
        st.reserved = true;

        // Journal the move: the record's bodies share a fence with the
        // destination's prepare.
        let (sref, dref) = (DirentRef::new(&self.h, e.loc), DirentRef::new(&self.h, dloc));
        let src_img = sref.image().map_err(Self::fault)?;
        let mut moved = DirentData::decode_bytes(&src_img);
        moved.name = dname.as_bytes().to_vec();
        let prepared = dref.stage_prepare(&moved).map_err(Self::fault)?;
        let (guard, prepared) =
            self.journal.begin_rename(&self.h, shard, e.loc, dloc, &src_img, prepared, || {
                self.pages.take(trio_nvm::handle::home_node())
            })?;
        let entries =
            dref.stage_publish(e.ino, &prepared).and_then(|p| Ok(p.and(sref.stage_clear()?)));
        let entries = match entries {
            Ok(stored) => stored,
            Err(err) => {
                // An undo that faults too leaves the record armed until the
                // shard's next rename (DESIGN.md §22 "A failed rename").
                guard.undo().map_err(|_| FsError::Corrupted)?;
                daux.with_bucket(dname, |b| b.retain(|x| x.name != dname));
                daux.put_slot(dloc);
                st.reserved = false;
                return Err(Self::fault(err));
            }
        };
        let same = sp.ino == dp.ino;
        let (delta, b) = match same {
            true => (0, None),
            false => (-1, Some(DirBump { dir: dp, aux: daux, delta: 1 })),
        };
        let a = DirBump { dir: sp, aux: saux, delta };
        let (moved, sized) = self.fence_with_dirs(entries, a, b);
        let disarmed = guard.disarm(&moved);
        st.moved = Some((Arc::clone(saux), Arc::clone(daux)));

        saux.with_bucket(sname, |b| b.retain(|x| x.name != sname));
        saux.put_slot(e.loc);
        // The node moves after its entry: `place` first, then the new
        // entry's link, so no hit finds a carried node placed elsewhere
        // (until then a hit interns it, which refreshes `place` itself).
        if let Some(n) = e.node.get().cloned().or_else(|| self.node_by_ino(e.ino)) {
            let mut place = n.place.write();
            place.parent = dp.ino;
            place.loc = Some(dloc);
            drop(place);
            link.set(&n);
        }
        disarmed.map_err(Self::fault)?;
        sized.map(|()| None)
    }

    // -----------------------------------------------------------------
    // Directory growth & size accounting.
    // -----------------------------------------------------------------

    /// Adds one data page (16 slots) to a directory, extending its index
    /// chain (paper: the "index tail").
    pub(crate) fn grow_dir(&self, dir: &FileNode, aux: &DirAux) -> FsResult<()> {
        let mut it = aux.index_tail.lock();
        let (chain, slot) = &mut *it;
        let home = trio_nvm::handle::home_node();
        let dpage = self.pages.take(home)?;
        match chain.last().copied() {
            None => {
                let ipage = self.pages.take(home)?;
                IndexPageRef::new(&self.h, ipage).set_entry(0, dpage.0).map_err(Self::fault)?;
                // Publish the chain head.
                match dir.placement().loc {
                    Some(loc) => DirentRef::new(&self.h, loc)
                        .set_first_index(ipage.0)
                        .map_err(Self::fault)?,
                    None => self.kernel.update_root(self.actor, Some(ipage.0), None, None)?,
                }
                chain.push(ipage);
                *slot = 1;
            }
            Some(ipage) if *slot < ENTRIES_PER_INDEX => {
                IndexPageRef::new(&self.h, ipage).set_entry(*slot, dpage.0).map_err(Self::fault)?;
                *slot += 1;
            }
            Some(ipage) => {
                let nipage = self.pages.take(home)?;
                IndexPageRef::new(&self.h, nipage).set_entry(0, dpage.0).map_err(Self::fault)?;
                IndexPageRef::new(&self.h, ipage).set_next(nipage.0).map_err(Self::fault)?;
                chain.push(nipage);
                *slot = 1;
            }
        }
        aux.add_page(dpage);
        Ok(())
    }

    /// Moves each directory's entry count by its delta and stores its size
    /// and mtime — one line — under its size lock, then retires those
    /// lines and `with`, the stores the op orders with them, in one fence
    /// (DESIGN.md §18 "Epochs"). `with` is retired whatever the lines do:
    /// the first result is its witness, the second whether every line was
    /// stored. A count moves only with its line, so an op resumed after a
    /// fault here moves it once.
    ///
    /// The size lock is every op's serial point in its directory, so it
    /// covers the count and the store alone: each line's place is read
    /// before it, and it is given back before the fence, with no sim point
    /// in between (a release wakes the next holder later, on its own
    /// clock). The root's line lies in the superblock, which the kernel
    /// writes after the fence, in count order: under the lock.
    fn fence_with_dirs<T: Spans>(
        &self,
        with: Dirty<T>,
        a: DirBump<'_>,
        b: Option<DirBump<'_>>,
    ) -> (Durable<T>, FsResult<()>) {
        let loc_a = a.dir.placement().loc;
        let loc_b = b.as_ref().map(|b| b.dir.placement().loc);
        // Size locks in ino order: two renames in opposite directions take
        // them alike.
        let (first, second) = match &b {
            Some(b) if b.dir.ino < a.dir.ino => (b, Some(&a)),
            _ => (&a, b.as_ref()),
        };
        let locks = (first.aux.size_lock.lock(), second.map(|d| d.aux.size_lock.lock()));
        let t = now_or_zero();
        let mut root = None;
        let line_a = match self.stage_dir_line(&a, loc_a, t, &mut root) {
            Ok(line) => line,
            Err(e) => return (self.h.persist_dirty(with), Err(e)),
        };
        let with = with.and_some(line_a);
        let line_b =
            b.as_ref().zip(loc_b).map(|(b, loc)| self.stage_dir_line(b, loc, t, &mut root));
        let line_b = match line_b.transpose() {
            Ok(line) => line.flatten(),
            Err(e) => return (self.h.persist_dirty(with).split().0, Err(e)),
        };
        if root.is_none() {
            drop(locks);
        }
        let (done, _) = self.h.persist_dirty(with.and_some(line_b)).split();
        let sized = match root {
            Some(size) => self.kernel.update_root(self.actor, None, Some(size), Some(t)),
            None => Ok(()),
        };
        (done.split().0, sized)
    }

    /// One directory's line for [`ArckFs::fence_with_dirs`], under its
    /// size lock: the count it moves to and the mtime `t`, stored at `loc`
    /// (`None` for the root, whose new size goes to `root`), and the count
    /// moved.
    fn stage_dir_line(
        &self,
        d: &DirBump<'_>,
        loc: Option<DirentLoc>,
        t: u64,
        root: &mut Option<u64>,
    ) -> FsResult<Option<Dirty<Span>>> {
        let new = (d.aux.count.load(Ordering::Relaxed) as i64 + d.delta).max(0) as u64;
        let line = match loc {
            Some(loc) => {
                Some(DirentRef::new(&self.h, loc).stage_size_mtime(new, t).map_err(Self::fault)?)
            }
            None => {
                *root = Some(new);
                None
            }
        };
        d.aux.count.store(new, Ordering::Relaxed);
        Ok(line)
    }

    /// [`ArckFs::fence_with_dirs`] with nothing else to retire: a resumed
    /// op's directory lines.
    fn bump_dirs(&self, a: DirBump<'_>, b: Option<DirBump<'_>>) -> FsResult<()> {
        self.fence_with_dirs(self.h.dirty_spans(Vec::new()), a, b).1
    }
}

/// A directory whose size-and-mtime line an op stores: its node, its aux
/// and how far its entry count moves.
struct DirBump<'a> {
    dir: &'a FileNode,
    aux: &'a DirAux,
    delta: i64,
}

impl<'a> DirBump<'a> {
    /// The line of a directory whose entries an op changed in the aux
    /// `touched` before it lost its mapping half-way and was resumed. While
    /// that is still the live aux the count moves by `delta`; an aux
    /// rebuilt since has counted the entries itself, and only the persisted
    /// size and mtime are left to bring up.
    fn settle(dir: &'a FileNode, aux: &'a Arc<DirAux>, touched: &Arc<DirAux>, delta: i64) -> Self {
        DirBump { dir, aux, delta: if Arc::ptr_eq(aux, touched) { delta } else { 0 } }
    }
}

/// What one try of a rename carries across `retry_mapped`'s attempts.
#[derive(Default)]
struct MoveState {
    /// An attempt reserved the destination: a later one that finds the name
    /// there finds that reservation, and the rename is `Exists`, as it was
    /// before the reservation doubled as the existence check.
    reserved: bool,
    /// The dirent has moved: the auxes it went through. A resumed attempt
    /// only settles the two sizes (a directory settled before the fault is
    /// merely persisted again).
    moved: Option<(Arc<DirAux>, Arc<DirAux>)>,
    /// `dp`'s grant was found gone: its mapping is dropped as the attempt
    /// ends, once no inode lock is held (`retry_mapped` remaps `sp`).
    dp_stale: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use trio_fsapi::FileSystem;
    use trio_kernel::{KernelConfig, KernelController};
    use trio_nvm::{DeviceConfig, NvmDevice};
    use trio_sim::SimRuntime;

    /// Once `publish_entry` has made a name findable, a lookup of it —
    /// before the create that called it returns — finds the node that
    /// create hands back, not a second node for the same ino with its own
    /// inode lock, range lock and size.
    #[test]
    fn a_published_name_is_found_with_its_creators_node() {
        let rt = SimRuntime::new(3);
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let kernel = KernelController::format(dev, KernelConfig::default());
        let fs = ArckFs::mount(kernel, 100, 100, crate::ArckFsConfig::no_delegation());
        rt.spawn("t", move || {
            fs.mkdir("/d", Mode::RWX).unwrap();
            let d = fs.resolve_node("/d").unwrap();
            let (created, found) = fs
                .with_mapped(&d, true, |fs, g| {
                    let aux = g.dir.as_ref().unwrap().clone();
                    let (n, sized) =
                        fs.publish_entry(&d, &aux, "f", CoreFileType::Regular, Mode::RW)?;
                    sized?;
                    Ok((n, fs.lookup_child(&d, "f")?.unwrap()))
                })
                .unwrap();
            assert!(Arc::ptr_eq(&created, &found), "two nodes for ino {}", created.ino);
            assert!(Arc::ptr_eq(&created, &fs.resolve_node("/d/f").unwrap()));
        });
        rt.run();
    }
}
