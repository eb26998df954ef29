//! End-to-end kernel-controller tests: allocation, the map/release
//! protocol, verification-on-sharing, rollback, leases, and pinning. The
//! "LibFS" here is hand-rolled direct-access code, exactly what a
//! (possibly malicious) LibFS could do with its mapped pages.

use std::sync::Arc;

use trio_fsapi::{FsError, Mode};
use trio_kernel::mapping::MapTarget;
use trio_kernel::registry::KernelEvent;
use trio_kernel::{KernelConfig, KernelController, LibFsRegistration};
use trio_layout::{
    superblock_replica_page, CoreFileType, DirentData, DirentLoc, DirentRef, IndexPageRef,
    ROOT_INO,
};
use trio_nvm::{DeviceConfig, NvmDevice, NvmHandle, PageId, PagePerm};
use trio_sim::plock::Mutex as PlMutex;
use trio_sim::sync::SimBarrier;
use trio_sim::{cost, now, work, RaceDetector, SimRuntime, MILLIS};

fn new_kernel() -> Arc<KernelController> {
    let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
    KernelController::format(dev, KernelConfig::default())
}

/// Direct-access creation of one child in a write-mapped empty root:
/// allocate an index page and a data page from the pool, build the dirent,
/// publish, and tell the kernel about the new root chain head.
fn create_in_empty_root(
    k: &KernelController,
    reg: &LibFsRegistration,
    name: &[u8],
    ino: u64,
    ftype: CoreFileType,
) -> (PageId, PageId, DirentLoc) {
    let pages = k.alloc_pages(reg.actor, 2, None).unwrap();
    create_in_empty_root_on(k, reg, (pages[0], pages[1]), name, ino, ftype)
}

/// [`create_in_empty_root`] on pool pages the caller already holds.
fn create_in_empty_root_on(
    k: &KernelController,
    reg: &LibFsRegistration,
    (ipage, dpage): (PageId, PageId),
    name: &[u8],
    ino: u64,
    ftype: CoreFileType,
) -> (PageId, PageId, DirentLoc) {
    let loc = DirentLoc { page: dpage, slot: 0 };
    let d = DirentData::new(name, ftype, Mode::RW, 100, 100);
    let dref = DirentRef::new(&reg.handle, loc);
    let w = dref.prepare(&d).unwrap();
    dref.publish(ino, &w).unwrap();
    IndexPageRef::new(&reg.handle, ipage).set_entry(0, dpage.0).unwrap();
    k.update_root(reg.actor, Some(ipage.0), Some(1), Some(1)).unwrap();
    (ipage, dpage, loc)
}

#[test]
fn alloc_and_free_pages_roundtrip() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let reg = k2.register_libfs(100, 100);
        let before = k2.free_page_count();
        let pages = k2.alloc_pages(reg.actor, 8, None).unwrap();
        assert_eq!(pages.len(), 8);
        // Conservation: pages not handed out are either in the global pool
        // or parked in the actor's allocator cache (refills may stock it).
        assert_eq!(k2.free_page_count() + k2.cached_page_count(), before - 8);
        // Pool pages are immediately writable.
        reg.handle.write_untimed(pages[0], 0, b"mine").unwrap();
        k2.free_pages(reg.actor, &pages).unwrap();
        assert_eq!(k2.free_page_count() + k2.cached_page_count(), before);
        // Freed pages are no longer accessible.
        assert!(reg.handle.write_untimed(pages[0], 0, b"nope").is_err());
    });
    rt.run();
}

#[test]
fn cannot_free_foreign_pages() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        let b = k2.register_libfs(200, 200);
        let pages = k2.alloc_pages(a.actor, 2, None).unwrap();
        assert_eq!(k2.free_pages(b.actor, &pages), Err(FsError::PermissionDenied));
    });
    rt.run();
}

#[test]
fn ino_allocation_is_disjoint() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        let b = k2.register_libfs(200, 200);
        let ia = k2.alloc_inos(a.actor, 10).unwrap();
        let ib = k2.alloc_inos(b.actor, 10).unwrap();
        assert!(ia.iter().all(|i| !ib.contains(i)));
        assert!(ia.iter().all(|i| *i > ROOT_INO));
    });
    rt.run();
}

#[test]
fn map_root_write_then_share_read_verifies_clean_state() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        let g = k2.map(a.actor, MapTarget::Root, true).unwrap();
        assert!(g.pages.index_pages.is_empty());
        let inos = k2.alloc_inos(a.actor, 4).unwrap();
        let (ipage, dpage, _) =
            create_in_empty_root(&k2, &a, b"hello.txt", inos[0], CoreFileType::Regular);
        k2.release(a.actor, ROOT_INO).unwrap();

        // Another LibFS maps root: triggers verification of A's writes.
        let b = k2.register_libfs(100, 100);
        let g = k2.map(b.actor, MapTarget::Root, false).unwrap();
        assert_eq!(g.pages.index_pages, vec![ipage]);
        assert_eq!(g.pages.data_pages, vec![Some(dpage)]);
        // Verification passed: pages now belong to root in the books.
        assert!(k2.pages_of(ROOT_INO).contains(&ipage.0));
        assert!(k2.take_events().is_empty(), "no corruption events for clean state");
        // B can read the dirent A created.
        let d = DirentRef::new(&b.handle, DirentLoc { page: dpage, slot: 0 }).load().unwrap();
        assert_eq!(d.name_str(), Some("hello.txt"));
        assert_eq!(d.ino, inos[0]);
    });
    rt.run();
}

#[test]
fn fabricated_ino_detected_and_rolled_back() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        // Legitimate create first, committed via a clean share.
        let g = k2.map(a.actor, MapTarget::Root, true).unwrap();
        let _ = g;
        let inos = k2.alloc_inos(a.actor, 1).unwrap();
        let (_, dpage, _) =
            create_in_empty_root(&k2, &a, b"good", inos[0], CoreFileType::Regular);
        k2.release(a.actor, ROOT_INO).unwrap();
        let b = k2.register_libfs(100, 100);
        k2.map(b.actor, MapTarget::Root, false).unwrap();
        k2.release(b.actor, ROOT_INO).unwrap();

        // Now A maps root again (checkpoint taken at this grant) and
        // fabricates an entry with an ino the kernel never allocated.
        k2.map(a.actor, MapTarget::Root, true).unwrap();
        let loc = DirentLoc { page: dpage, slot: 1 };
        let evil = DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 100, 100);
        let r = DirentRef::new(&a.handle, loc);
        let w = r.prepare(&evil).unwrap();
        r.publish(999_999, &w).unwrap();
        k2.update_root(a.actor, None, Some(2), None).unwrap();
        k2.release(a.actor, ROOT_INO).unwrap();

        // B maps: verification fails, kernel rolls back.
        let g = k2.map(b.actor, MapTarget::Root, false).unwrap();
        let events = k2.take_events();
        assert!(events.iter().any(|e| matches!(e, KernelEvent::CorruptionDetected { ino, .. } if *ino == ROOT_INO)));
        assert!(events.iter().any(|e| matches!(e, KernelEvent::RolledBack { ino } if *ino == ROOT_INO)));
        // The ghost entry is gone; the good entry survives.
        let ghost = DirentRef::new(&b.handle, loc).ino().unwrap();
        assert_eq!(ghost, 0, "rollback erased the fabricated entry");
        let good = DirentRef::new(&b.handle, DirentLoc { page: dpage, slot: 0 }).load().unwrap();
        assert_eq!(good.name_str(), Some("good"));
        // The root's head lives in the superblock: rollback put back the
        // checkpoint's entry count, not the lied 2.
        assert_eq!(g.size, 1, "rollback restored the root's size");
    });
    rt.run();
}

/// A kernel store into the superblock that fails is a media fault, not a
/// full disk: with both copies of the record line poisoned, `update_root`
/// answers `Corrupted` for each field it may write.
#[test]
fn update_root_reports_a_lost_superblock_as_corrupted() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        k2.map(a.actor, MapTarget::Root, true).unwrap();
        let dev = k2.device();
        for page in [PageId(0), superblock_replica_page(dev.topology().total_pages())] {
            dev.poison_line(page, 0);
        }
        assert_eq!(k2.update_root(a.actor, Some(0), None, None), Err(FsError::Corrupted));
        assert_eq!(k2.update_root(a.actor, None, Some(0), None), Err(FsError::Corrupted));
        assert_eq!(k2.update_root(a.actor, None, None, Some(0)), Err(FsError::Corrupted));
    });
    rt.run();
}

/// Checkpoint laundering: the fabricating writer re-maps and releases once
/// more before anyone verifies. That map must not replace the checkpoint —
/// the file is still dirty by the mapper, so the stored image is the last
/// *verified* state — or the rollback would restore the ghost.
#[test]
fn remap_by_dirty_actor_keeps_verified_checkpoint() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        k2.map(a.actor, MapTarget::Root, true).unwrap();
        let inos = k2.alloc_inos(a.actor, 1).unwrap();
        let (_, dpage, _) =
            create_in_empty_root(&k2, &a, b"good", inos[0], CoreFileType::Regular);
        k2.release(a.actor, ROOT_INO).unwrap();
        let b = k2.register_libfs(100, 100);
        k2.map(b.actor, MapTarget::Root, false).unwrap();
        k2.release(b.actor, ROOT_INO).unwrap();

        k2.map(a.actor, MapTarget::Root, true).unwrap();
        let loc = DirentLoc { page: dpage, slot: 1 };
        let evil = DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 100, 100);
        let r = DirentRef::new(&a.handle, loc);
        let w = r.prepare(&evil).unwrap();
        r.publish(999_999, &w).unwrap();
        k2.update_root(a.actor, None, Some(2), None).unwrap();
        k2.release(a.actor, ROOT_INO).unwrap();
        // The laundering attempt: one more write grant over the unverified
        // state, given straight back.
        let g = k2.map(a.actor, MapTarget::Root, true).unwrap();
        assert_eq!(g.seq, g.seq_before + 1, "a write grant moves the sequence");
        k2.release(a.actor, ROOT_INO).unwrap();

        let g = k2.map(b.actor, MapTarget::Root, false).unwrap();
        assert_eq!(g.seq, g.seq_before, "a read grant does not; the rollback before it did");
        let events = k2.take_events();
        assert!(events.iter().any(|e| matches!(e, KernelEvent::RolledBack { ino } if *ino == ROOT_INO)));
        let ghost = DirentRef::new(&b.handle, loc).ino().unwrap();
        assert_eq!(ghost, 0, "rollback restored the verified state, not the launderer's");
        let good = DirentRef::new(&b.handle, DirentLoc { page: dpage, slot: 0 }).load().unwrap();
        assert_eq!(good.name_str(), Some("good"));
    });
    rt.run();
}

/// A child's release must not overwrite its parent's dirtiness: A holds
/// child F for write while B fabricates an entry in the root; A's release
/// of F used to make the root "dirty by A", and A then mapped B's
/// unverified entry unchecked.
#[test]
fn child_release_keeps_parent_dirtiness() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        k2.map(a.actor, MapTarget::Root, true).unwrap();
        let inos = k2.alloc_inos(a.actor, 1).unwrap();
        let (_, dpage, floc) = create_in_empty_root(&k2, &a, b"f", inos[0], CoreFileType::Regular);
        k2.release(a.actor, ROOT_INO).unwrap();
        let f = k2.map(a.actor, MapTarget::Dirent(floc), true).unwrap();

        // B takes the root (verifying A's create), fabricates, releases.
        let b = k2.register_libfs(100, 100);
        k2.map(b.actor, MapTarget::Root, true).unwrap();
        assert!(k2.take_events().is_empty(), "A's create verifies clean");
        let loc = DirentLoc { page: dpage, slot: 1 };
        let evil = DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 100, 100);
        let r = DirentRef::new(&b.handle, loc);
        let w = r.prepare(&evil).unwrap();
        r.publish(999_999, &w).unwrap();
        k2.update_root(b.actor, None, Some(2), None).unwrap();
        k2.release(b.actor, ROOT_INO).unwrap();

        k2.release(a.actor, f.ino).unwrap();
        k2.map(a.actor, MapTarget::Root, false).unwrap();
        let events = k2.take_events();
        assert!(
            events.iter().any(|e| matches!(e, KernelEvent::CorruptionDetected { ino, .. } if *ino == ROOT_INO)),
            "A must not get B's unverified entry unchecked: {events:?}"
        );
        assert_eq!(DirentRef::new(&a.handle, loc).ino().unwrap(), 0);
    });
    rt.run();
}

#[test]
fn index_cycle_attack_detected() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        k2.map(a.actor, MapTarget::Root, true).unwrap();
        let inos = k2.alloc_inos(a.actor, 1).unwrap();
        let (ipage, _, _) = create_in_empty_root(&k2, &a, b"x", inos[0], CoreFileType::Regular);
        k2.release(a.actor, ROOT_INO).unwrap();
        let b = k2.register_libfs(100, 100);
        k2.map(b.actor, MapTarget::Root, false).unwrap();
        k2.release(b.actor, ROOT_INO).unwrap();

        // A creates a cycle in root's index chain.
        k2.map(a.actor, MapTarget::Root, true).unwrap();
        IndexPageRef::new(&a.handle, ipage).set_next(ipage.0).unwrap();
        k2.release(a.actor, ROOT_INO).unwrap();

        k2.map(b.actor, MapTarget::Root, false).unwrap();
        let events = k2.take_events();
        assert!(events.iter().any(|e| matches!(e, KernelEvent::CorruptionDetected { .. })));
        // After rollback the chain is walkable again.
        assert_eq!(IndexPageRef::new(&b.handle, ipage).next().unwrap(), 0);
    });
    rt.run();
}

#[test]
fn write_lease_blocks_then_revokes() {
    let rt = SimRuntime::new(1);
    let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
    let k = KernelController::format(
        dev,
        KernelConfig { lease_ns: 5 * MILLIS, ..KernelConfig::default() },
    );
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        let b = k2.register_libfs(100, 100);
        let t0 = trio_sim::now();
        k2.map(a.actor, MapTarget::Root, true).unwrap();

        // B must wait out A's 5ms lease.
        let g = k2.map(b.actor, MapTarget::Root, true).unwrap();
        assert!(g.write);
        let waited = trio_sim::now() - t0;
        assert!(waited >= 5 * MILLIS, "waited only {waited}ns");
        let events = k2.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, KernelEvent::LeaseRevoked { ino, actor } if *ino == ROOT_INO && *actor == a.actor)));
        assert_eq!(k2.writer_of(ROOT_INO), Some(b.actor));
    });
    rt.run();
}

/// The ways a write grant ends.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ending {
    Release,
    LeaseExpiry,
    Unregister,
    Quarantine,
}

/// One post-state for every way a write grant ends (§3.2: *whenever* it
/// ends, the file and the parent page holding its dirent stay unverified
/// until the verifier has run). A holds `/f` for write — which maps the root
/// page with `f`'s dirent writable — grows `f` by a page from its pool and
/// fabricates an entry in that root page; B blocks on the lease. Then the
/// grant ends, one way per row, and B gets the file.
#[test]
fn every_way_a_write_grant_ends_leaves_the_same_state() {
    const LEASE: u64 = 5 * MILLIS;
    for ending in [Ending::Release, Ending::LeaseExpiry, Ending::Unregister, Ending::Quarantine] {
        let rt = SimRuntime::new(1);
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let k = KernelController::format(dev, KernelConfig { lease_ns: LEASE, ..KernelConfig::default() });
        rt.spawn("main", move || {
            // A builds `/f` (one data page) and `/loud`, then hands the lot
            // over: C's maps verify and checkpoint root, `f` and `loud`.
            let a = k.register_libfs(100, 100);
            k.map(a.actor, MapTarget::Root, true).unwrap();
            let inos = k.alloc_inos(a.actor, 2).unwrap();
            let (f_ino, loud_ino) = (inos[0], inos[1]);
            let (_, dpage, f_loc) = create_in_empty_root(&k, &a, b"f", f_ino, CoreFileType::Regular);
            let chain = k.alloc_pages(a.actor, 3, None).unwrap();
            let (fi, fd, fd2) = (chain[0], chain[1], chain[2]);
            let f_index = IndexPageRef::new(&a.handle, fi);
            f_index.set_entry(0, fd.0).unwrap();
            let f_dirent = DirentRef::new(&a.handle, f_loc);
            f_dirent.set_first_index(fi.0).unwrap();
            f_dirent.set_size(4096).unwrap();
            let loud_loc = DirentLoc { page: dpage, slot: 1 };
            let loud = DirentRef::new(&a.handle, loud_loc);
            let w = loud.prepare(&DirentData::new(b"loud", CoreFileType::Regular, Mode::RW, 100, 100));
            loud.publish(loud_ino, &w.unwrap()).unwrap();
            k.update_root(a.actor, None, Some(2), None).unwrap();
            k.release(a.actor, ROOT_INO).unwrap();
            let c = k.register_libfs(100, 100);
            let f_target = MapTarget::Dirent(f_loc);
            let loud_target = MapTarget::Dirent(loud_loc);
            for (target, ino) in [(MapTarget::Root, ROOT_INO), (f_target, f_ino), (loud_target, loud_ino)] {
                k.map(c.actor, target, false).unwrap();
                k.release(c.actor, ino).unwrap();
            }
            assert!(k.take_events().is_empty(), "{ending:?}: the hand-over verifies clean");

            // A's write grant on `f`, the growth, and the ghost.
            k.map(a.actor, f_target, true).unwrap();
            f_index.set_entry(1, fd2.0).unwrap();
            let ghost_loc = DirentLoc { page: dpage, slot: 2 };
            let ghost = DirentRef::new(&a.handle, ghost_loc);
            let w = ghost.prepare(&DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 100, 100));
            ghost.publish(987_654_321, &w.unwrap()).unwrap();

            // B wants the file and blocks on A's lease.
            let b = k.register_libfs(100, 100);
            let got = Arc::new(trio_sim::plock::Mutex::new(None));
            let (k2, got2) = (Arc::clone(&k), Arc::clone(&got));
            let blocked = trio_sim::spawn("b", move || {
                let t0 = trio_sim::now();
                let grant = k2.map(b.actor, f_target, false).unwrap();
                *got2.lock() = Some((grant, trio_sim::now() - t0));
            });
            trio_sim::work(10_000);
            assert!(got.lock().is_none(), "{ending:?}: B is waiting");

            match ending {
                Ending::Release => k.release(a.actor, f_ino).unwrap(),
                Ending::LeaseExpiry => {} // B's own wait runs out and revokes.
                Ending::Unregister => k.unregister(a.actor),
                Ending::Quarantine => {
                    // A second, loud corruption: C's map of it contains A.
                    k.map(a.actor, loud_target, true).unwrap();
                    loud.set_first_index(u64::MAX / 2).unwrap();
                    k.release(a.actor, loud_ino).unwrap();
                    let _ = k.map(c.actor, loud_target, false);
                }
            }
            blocked.join();
            let (grant, waited) = got.lock().take().unwrap();
            let events = k.take_events();

            // 1. The books: nobody writes `f`; the waiter was woken — early,
            //    unless its wait was what ended the grant.
            assert_eq!(k.writer_of(f_ino), None, "{ending:?}");
            assert_eq!(waited < LEASE, ending != Ending::LeaseExpiry, "{ending:?}: waited {waited}");
            assert_eq!(
                events.contains(&KernelEvent::LeaseRevoked { ino: f_ino, actor: a.actor }),
                ending == Ending::LeaseExpiry,
                "{ending:?}: {events:?}"
            );
            // 2. The file was vetted before B got it: its growth is claimed…
            assert_eq!(grant.pages.data_pages, [Some(fd), Some(fd2)], "{ending:?}");
            assert!(k.pages_of(f_ino).contains(&fd2.0), "{ending:?}: `f` was verified");
            // …and so was the parent: the ghost is detected and gone.
            assert!(
                events.iter().any(|e| matches!(e, KernelEvent::CorruptionDetected { ino, .. } if *ino == ROOT_INO))
                    && events.contains(&KernelEvent::RolledBack { ino: ROOT_INO }),
                "{ending:?}: the parent must be vetted: {events:?}"
            );
            assert_eq!(DirentRef::new(k.kernel_handle(), ghost_loc).ino().unwrap(), 0, "{ending:?}");
            // 3. The MMU: no page of the chain, pool-linked ones included,
            //    and not the dirent page, is still the old holder's.
            for p in grant.pages.all_pages().chain([dpage]) {
                assert_eq!(k.device().mmu_perm(a.actor, p).unwrap(), None, "{ending:?}: {p:?}");
            }
        });
        rt.run();
    }
}

/// Vetting waits for a writer: A's exit ends its write grant on `/f` while B
/// holds the root for write with a creation of its own in it. Verifying the
/// root there and then would charge B's fresh ino to A and roll B's work
/// back; the mark stays instead, and the root is vetted when B lets go.
#[test]
fn exit_does_not_vet_a_parent_somebody_else_is_writing() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    rt.spawn("main", move || {
        let a = k.register_libfs(100, 100);
        k.map(a.actor, MapTarget::Root, true).unwrap();
        let inos = k.alloc_inos(a.actor, 1).unwrap();
        let (_, dpage, f_loc) = create_in_empty_root(&k, &a, b"f", inos[0], CoreFileType::Regular);
        k.release(a.actor, ROOT_INO).unwrap();
        let f_target = MapTarget::Dirent(f_loc);
        k.map(a.actor, f_target, true).unwrap();

        let b = k.register_libfs(100, 100);
        k.map(b.actor, MapTarget::Root, true).unwrap();
        let b_ino = k.alloc_inos(b.actor, 1).unwrap()[0];
        let mine = DirentRef::new(&b.handle, DirentLoc { page: dpage, slot: 1 });
        let w = mine.prepare(&DirentData::new(b"mine", CoreFileType::Regular, Mode::RW, 100, 100));
        mine.publish(b_ino, &w.unwrap()).unwrap();
        k.update_root(b.actor, None, Some(2), None).unwrap();

        k.unregister(a.actor);
        assert!(k.take_events().is_empty(), "nothing to flag, nothing rolled back");
        assert_eq!(mine.ino().unwrap(), b_ino);
        // B lets go; the next mapper vets the root — clean.
        k.release(b.actor, ROOT_INO).unwrap();
        let c = k.register_libfs(100, 100);
        assert_eq!(k.map(c.actor, MapTarget::Root, false).unwrap().size, 2);
        assert!(k.take_events().is_empty());
    });
    rt.run();
}

#[test]
fn reader_cannot_write_mapped_pages() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        k2.map(a.actor, MapTarget::Root, true).unwrap();
        let inos = k2.alloc_inos(a.actor, 1).unwrap();
        let (_, dpage, _) = create_in_empty_root(&k2, &a, b"f", inos[0], CoreFileType::Regular);
        k2.release(a.actor, ROOT_INO).unwrap();

        let b = k2.register_libfs(100, 100);
        k2.map(b.actor, MapTarget::Root, false).unwrap();
        // Read mapping: loads fine, stores fault.
        let mut buf = [0u8; 8];
        b.handle.read_untimed(dpage, 0, &mut buf).unwrap();
        assert!(b.handle.write_untimed(dpage, 0, b"overwrt!").is_err());
    });
    rt.run();
}

#[test]
fn permission_denied_for_other_users() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        k2.map(a.actor, MapTarget::Root, true).unwrap();
        let inos = k2.alloc_inos(a.actor, 1).unwrap();
        let (_, _, loc) = create_in_empty_root(&k2, &a, b"priv", inos[0], CoreFileType::Regular);
        k2.release(a.actor, ROOT_INO).unwrap();

        // Adopt the file's shadow entry via a first map by its owner.
        let g = k2.map(a.actor, MapTarget::Dirent(loc), true).unwrap();
        assert_eq!(g.ino, inos[0]);
        k2.release(a.actor, g.ino).unwrap();

        // Mode 0600 and uid 100: uid-999 actor is refused.
        let c = k2.register_libfs(999, 999);
        k2.map(c.actor, MapTarget::Root, false).unwrap();
        let res = k2.map(c.actor, MapTarget::Dirent(loc), false);
        assert_eq!(res.err(), Some(FsError::PermissionDenied));
    });
    rt.run();
}

#[test]
fn setattr_updates_shadow_and_enforces_ownership() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        k2.map(a.actor, MapTarget::Root, true).unwrap();
        let inos = k2.alloc_inos(a.actor, 1).unwrap();
        let (_, _, loc) = create_in_empty_root(&k2, &a, b"f", inos[0], CoreFileType::Regular);
        k2.release(a.actor, ROOT_INO).unwrap();
        let g = k2.map(a.actor, MapTarget::Dirent(loc), true).unwrap();
        k2.release(a.actor, g.ino).unwrap();

        // Non-owner chmod fails.
        let b = k2.register_libfs(200, 200);
        let attr = trio_fsapi::SetAttr { mode: Some(Mode(0o666)), ..Default::default() };
        assert_eq!(k2.setattr(b.actor, g.ino, attr), Err(FsError::PermissionDenied));
        // Owner chmod succeeds and lands in the shadow table.
        k2.setattr(a.actor, g.ino, attr).unwrap();
        assert_eq!(k2.shadow_mode(g.ino).unwrap().0, Mode(0o666));
        // Now uid-200 B may map it read (0o666 allows other-read).
        k2.map(b.actor, MapTarget::Root, false).unwrap();
        k2.map(b.actor, MapTarget::Dirent(loc), false).unwrap();
    });
    rt.run();
}

#[test]
fn checkpoint_pins_pages_until_replaced() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        k2.map(a.actor, MapTarget::Root, true).unwrap();
        let inos = k2.alloc_inos(a.actor, 1).unwrap();
        let (ipage, dpage, _) = create_in_empty_root(&k2, &a, b"f", inos[0], CoreFileType::Regular);
        k2.release(a.actor, ROOT_INO).unwrap();
        let b = k2.register_libfs(100, 100);
        k2.map(b.actor, MapTarget::Root, false).unwrap();
        k2.release(b.actor, ROOT_INO).unwrap();

        // A write-maps root again: checkpoint now covers ipage+dpage.
        k2.map(a.actor, MapTarget::Root, true).unwrap();
        let free_before = k2.free_page_count();
        // A empties the root and frees the pages while holding the grant.
        DirentRef::new(&a.handle, DirentLoc { page: dpage, slot: 0 }).clear().unwrap();
        k2.update_root(a.actor, Some(0), Some(0), None).unwrap();
        k2.reclaim_file(a.actor, inos[0], 0).unwrap();
        // Freeing checkpointed pages is deferred (pinned).
        let pages = [ipage, dpage];
        // They are part of root (InFile) so the pool-free path refuses; the
        // root chain shrink frees them through the kernel walk path instead.
        assert_eq!(k2.free_pages(a.actor, &pages), Err(FsError::PermissionDenied));
        let _ = free_before;
        k2.release(a.actor, ROOT_INO).unwrap();
        // B maps: verification passes for the emptied root.
        let g = k2.map(b.actor, MapTarget::Root, false).unwrap();
        assert!(g.pages.index_pages.is_empty());
    });
    rt.run();
}

/// Every frame is in exactly one place: `handed_out` LibFS-held frames plus
/// the allocator's five ledgers cover the device (minus the superblock twins).
fn assert_conserved(k: &KernelController, handed_out: usize, step: &str) {
    let ledgers = k.free_page_count()
        + k.cached_page_count()
        + k.limbo_page_count()
        + k.deferred_page_count()
        + k.retired_page_count();
    let total = k.device().topology().total_pages() as usize - 2;
    assert_eq!(ledgers + handed_out, total, "pages not conserved {step}");
}

/// `alloc_pages` strands nothing: what it took from the allocator is in the
/// caller's hands, mapped and counted, or — the ask refused — back on the books.
#[test]
fn alloc_pages_hands_out_mapped_frames_or_none() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let k = &*k2;
        let a = k.register_libfs(100, 100);
        let pages = k.alloc_pages(a.actor, 24, None).unwrap();
        assert!(pages.iter().all(|p| a.handle.write_untimed(*p, 0, b"mine").is_ok()));
        assert_eq!(k.path_stats().snapshot().alloc_mapped_pages, 24);
        assert_conserved(k, 24, "after a grant");

        let too_many = k.device().topology().total_pages() as usize;
        assert_eq!(k.alloc_pages(a.actor, too_many, None).err(), Some(FsError::NoSpace));
        assert_eq!(k.path_stats().snapshot().alloc_mapped_pages, 24, "a refused ask mapped pages");
        assert_conserved(k, 24, "after a refused ask");
    });
    rt.run();
}

/// Root ends up write-mapped by `a` with `chain` (two of `a`'s pool pages)
/// as its index and data page, verified (`InFile`), pinned by the new
/// grant's checkpoint, and unlinked again so `a` may hand it back.
fn pin_as_root_chain(
    k: &KernelController,
    a: &LibFsRegistration,
    b: &LibFsRegistration,
    chain: (PageId, PageId),
) {
    k.map(a.actor, MapTarget::Root, true).unwrap();
    let ino = k.alloc_inos(a.actor, 1).unwrap()[0];
    let (_, _, loc) = create_in_empty_root_on(k, a, chain, b"f", ino, CoreFileType::Regular);
    k.release(a.actor, ROOT_INO).unwrap();
    k.map(b.actor, MapTarget::Root, false).unwrap();
    k.release(b.actor, ROOT_INO).unwrap();
    k.map(a.actor, MapTarget::Root, true).unwrap();
    DirentRef::new(&a.handle, loc).clear().unwrap();
    k.update_root(a.actor, Some(0), Some(0), None).unwrap();
    k.reclaim_file(a.actor, ino, 0).unwrap();
}

/// One frame, three reasons not to recycle it — a checkpoint pins it, the
/// patrol has condemned it, a provenance walk may still read it — met in
/// the one `put_back`: it reaches no pool or cache while any of them holds,
/// and ends retired exactly once.
#[test]
fn pinned_condemned_frame_under_epoch_pin_ends_retired_once() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let k = &*k2;
        let scan = k.device().topology().total_pages() as usize;
        let (a, b) = (k.register_libfs(100, 100), k.register_libfs(100, 100));
        // Condemn the future data page while it is still a pool page: three
        // strikes, then the owner's full-line store repairs the media.
        let pages = k.alloc_pages(a.actor, 2, None).unwrap();
        let (ipage, dpage) = (pages[0], pages[1]);
        k.device().poison_line(dpage, 63);
        for _ in 0..3 {
            k.scrub_pass(scan);
        }
        a.handle.write_untimed(dpage, 63 * 64, &[0u8; 64]).unwrap();
        pin_as_root_chain(k, &a, &b, (ipage, dpage));
        assert_conserved(k, 2, "with the chain in a's hands");
        let idle = k.free_page_count() + k.cached_page_count();

        // Checkpoint-pinned: deferred, not pooled, not retired.
        let pin = k.epoch_pin();
        k.return_file_pages(a.actor, ROOT_INO, &[ipage, dpage]).unwrap();
        assert_eq!(k.deferred_page_count(), 2);
        assert_eq!((k.limbo_page_count(), k.retired_page_count()), (0, 0));
        assert_eq!(k.free_page_count() + k.cached_page_count(), idle);
        assert_conserved(k, 0, "while deferred");

        // Another actor's write grant replaces the checkpoint and drops
        // the pins; the epoch pin still holds both frames.
        k.release(a.actor, ROOT_INO).unwrap();
        k.map(b.actor, MapTarget::Root, true).unwrap();
        assert_eq!((k.deferred_page_count(), k.limbo_page_count()), (0, 2));
        assert_eq!(k.retired_page_count(), 0);
        assert_eq!(k.free_page_count() + k.cached_page_count(), idle);
        assert_conserved(k, 0, "while in limbo");

        // Ripe: the condemned frame retires, its neighbour is free again.
        drop(pin);
        assert_eq!(k.free_page_count() + k.cached_page_count(), idle + 1);
        assert_eq!(k.retired_page_count(), 1);
        assert_eq!(k.media_stats().snapshot().pages_retired, 1, "retired once, not twice");
        assert_conserved(k, 0, "after retirement");
    });
    rt.run();
}

/// A deferred frame whose last checkpoint pin drops under a live `EpochPin`
/// stays out of circulation until that pin drops too.
#[test]
fn unpin_under_epoch_pin_keeps_frames_out_of_circulation() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let k = &*k2;
        let (a, b) = (k.register_libfs(100, 100), k.register_libfs(100, 100));
        let pages = k.alloc_pages(a.actor, 2, None).unwrap();
        let (ipage, dpage) = (pages[0], pages[1]);
        pin_as_root_chain(k, &a, &b, (ipage, dpage));
        k.return_file_pages(a.actor, ROOT_INO, &[ipage, dpage]).unwrap();
        assert_eq!(k.deferred_page_count(), 2);
        let idle = k.free_page_count() + k.cached_page_count();

        let pin = k.epoch_pin();
        k.release(a.actor, ROOT_INO).unwrap();
        k.map(b.actor, MapTarget::Root, true).unwrap();
        assert_eq!((k.deferred_page_count(), k.limbo_page_count()), (0, 2));
        let fresh = k.alloc_pages(a.actor, 64, None).unwrap();
        assert!(!fresh.contains(&ipage) && !fresh.contains(&dpage), "re-granted under the pin");
        k.free_pages(a.actor, &fresh).unwrap();
        let idle_now = k.free_page_count() + k.cached_page_count();
        assert_eq!(idle_now, idle - 64, "the 64 wait in limbo too");

        drop(pin);
        assert_eq!(k.free_page_count() + k.cached_page_count(), idle + 2);
        assert_conserved(k, 0, "after the pin dropped");
    });
    rt.run();
}

/// A cache lives from `register_libfs` to `unregister`: an actor without
/// one — departed, or never registered — is served neither pages nor inos,
/// and nothing it asked for stays parked where no `unregister` will flush it.
#[test]
fn unregistered_actor_cannot_allocate() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let total = k2.free_page_count() + k2.cached_page_count();
        let a = k2.register_libfs(100, 100);
        let pages = k2.alloc_pages(a.actor, 4, None).unwrap();
        k2.free_pages(a.actor, &pages).unwrap();
        k2.unregister(a.actor);
        for ghost in [a.actor, trio_nvm::ActorId(9999)] {
            assert_eq!(k2.alloc_pages(ghost, 4, None).err(), Some(FsError::PermissionDenied));
            assert_eq!(k2.alloc_inos(ghost, 4).err(), Some(FsError::PermissionDenied));
        }
        assert_eq!(k2.cached_page_count(), 0, "a cache outlived its registration");
        assert_eq!(k2.free_page_count(), total);
        assert_eq!(k2.path_stats().snapshot().registry_locks, 0, "refusal took the registry lock");
    });
    rt.run();
}

#[test]
fn root_update_requires_write_grant() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        assert_eq!(k2.update_root(a.actor, Some(3), None, None), Err(FsError::PermissionDenied));
        k2.map(a.actor, MapTarget::Root, false).unwrap();
        assert_eq!(k2.update_root(a.actor, Some(3), None, None), Err(FsError::PermissionDenied));
    });
    rt.run();
}

#[test]
fn delegation_pool_moves_data() {
    let rt = SimRuntime::new(1);
    let dev = Arc::new(NvmDevice::new(DeviceConfig::eight_node(512)));
    let k = KernelController::format(
        dev,
        KernelConfig { delegation_threads_per_node: 2, ..KernelConfig::default() },
    );
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let _workers = k2.delegation().start();
        let a = k2.register_libfs(100, 100);
        // Allocate pages across several nodes.
        let mut pages = Vec::new();
        for node in 0..4 {
            pages.extend(k2.alloc_pages(a.actor, 2, Some(node)).unwrap());
        }
        let data: Vec<u8> = (0..8 * 4096).map(|i| (i % 233) as u8).collect();
        k2.delegation().write_extent(a.actor, &pages, 0, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        k2.delegation().read_extent(a.actor, &pages, 0, &mut back).unwrap();
        assert_eq!(back, data);
        // Permission still enforced through delegation.
        let b = k2.register_libfs(200, 200);
        assert!(k2.delegation().write_extent(b.actor, &pages, 0, &data[..16]).is_err());
        k2.delegation().shutdown();
    });
    rt.run();
}

#[test]
fn unknown_file_map_fails_cleanly() {
    let rt = SimRuntime::new(1);
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    rt.spawn("main", move || {
        let a = k2.register_libfs(100, 100);
        let loc = DirentLoc { page: PageId(50), slot: 0 };
        let res = k2.map(a.actor, MapTarget::Dirent(loc), false);
        assert_eq!(res.err(), Some(FsError::NotFound));
        // A handle without any grant cannot even probe the page.
        let h = NvmHandle::new(Arc::clone(k2.device()), a.actor);
        let mut b = [0u8; 8];
        assert!(h.read_untimed(PageId(50), 0, &mut b).is_err());
    });
    rt.run();
}

// ---------------------------------------------------------------------
// The page-table lock (DESIGN.md §20): the registry holds the books, not
// the page tables.
// ---------------------------------------------------------------------

/// A root of three pages — one index page, two data pages, one child —
/// that a second actor has mapped (so it is verified clean) and nobody
/// holds. Runs outside the simulation.
fn three_page_root(k: &KernelController) -> [PageId; 3] {
    let s = k.register_libfs(100, 100);
    k.map(s.actor, MapTarget::Root, true).unwrap();
    let pages = k.alloc_pages(s.actor, 3, None).unwrap();
    let ino = k.alloc_inos(s.actor, 1).unwrap()[0];
    create_in_empty_root_on(k, &s, (pages[0], pages[1]), b"f", ino, CoreFileType::Regular);
    IndexPageRef::new(&s.handle, pages[0]).set_entry(1, pages[2].0).unwrap();
    k.release(s.actor, ROOT_INO).unwrap();
    let v = k.register_libfs(100, 100);
    let g = k.map(v.actor, MapTarget::Root, false).unwrap();
    assert_eq!(g.pages.all_pages().count(), 3);
    assert!(k.take_events().is_empty(), "the root verifies clean");
    k.release(v.actor, ROOT_INO).unwrap();
    [pages[0], pages[1], pages[2]]
}

/// No convoy: 32 actors leave one barrier and read-map the same clean
/// three-page directory. Each programs its own page table, so the grants
/// come back a registry hand-off apart — not a programming apart, which is
/// what they did while the PTE writes sat under the registry lock (31 ×
/// 4.01 µs = 124 µs from first to last).
#[test]
fn concurrent_maps_program_their_page_tables_in_parallel() {
    const ACTORS: usize = 32;
    let k = new_kernel();
    three_page_root(&k);
    let regs: Vec<LibFsRegistration> = (0..ACTORS).map(|_| k.register_libfs(100, 100)).collect();
    let _ = k.take_phase_stats();

    let rt = SimRuntime::new(1);
    let barrier = Arc::new(SimBarrier::new(ACTORS));
    let returned = Arc::new(PlMutex::new(Vec::new()));
    for reg in regs {
        let (k, barrier, returned) = (Arc::clone(&k), Arc::clone(&barrier), Arc::clone(&returned));
        rt.spawn("mapper", move || {
            barrier.wait();
            k.map(reg.actor, MapTarget::Root, false).unwrap();
            returned.lock().push(now());
        });
    }
    rt.run();

    let returned = returned.lock();
    let spread = returned.iter().max().unwrap() - returned.iter().min().unwrap();
    let handoffs = (ACTORS as u64 - 1) * (cost::LOCK_HANDOFF_NS + cost::LOCK_UNCONTENDED_NS);
    assert!(spread <= handoffs, "grants came back {spread} ns apart, hand-offs alone are {handoffs}");
    assert_eq!(k.take_phase_stats().map_ns, ACTORS as u64 * 3 * cost::MMU_PROGRAM_PAGE_NS);
    let audit = k.audit_mmu_against_books();
    assert!(audit.is_clean(), "{audit:?}");
}

/// Revoke during programming: reader A maps the three-page root, writer B
/// asks for it 0 … 5.2 µs later — on A's heels at the registry, while A
/// programs its three PTEs outside it (3.84 µs), and after. Whenever B
/// lands, its revocation of A's grant unmaps *after* A's programming: A
/// ends with no permission on any page, B with write on all of them, and no
/// page table holds anything the books do not give. Under the race
/// detector: had A kept a PTE, its read below would be an unordered access
/// to B's store.
#[test]
fn grant_revoked_while_being_programmed_is_unmapped_after_it() {
    for seed in 1..=4u64 {
        for step in 0..=20u64 {
            // A 250 ns grid, shifted by a sub-step per seed. At 0 both reach
            // the registry together and A, spawned first, wins the tie (B
            // ahead of A would hold the lease A then waits out).
            let delay = step * 250 + (seed - 1) * 60;
            let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
            assert!(dev.set_race_detector(Arc::new(RaceDetector::new())));
            let k = KernelController::format(dev, KernelConfig::default());
            let root = three_page_root(&k);
            let (a, b) = (k.register_libfs(100, 100), k.register_libfs(100, 100));
            let (a_actor, b_actor) = (a.actor, b.actor);

            let rt = SimRuntime::new(seed);
            rt.enable_race_detection();
            let k2 = Arc::clone(&k);
            rt.spawn("main", move || {
                let ka = Arc::clone(&k2);
                let reader = trio_sim::spawn("reader", move || {
                    ka.map(a_actor, MapTarget::Root, false).unwrap();
                });
                let kb = Arc::clone(&k2);
                let writer = trio_sim::spawn("writer", move || {
                    work(delay);
                    kb.map(b_actor, MapTarget::Root, true).unwrap();
                });
                reader.join();
                writer.join();

                let ctx = format!("seed {seed}, B {delay} ns behind A");
                assert_eq!(k2.writer_of(ROOT_INO), Some(b_actor), "{ctx}");
                for p in root {
                    assert_eq!(k2.device().mmu_perm(a_actor, p).unwrap(), None, "{ctx}: A on {p:?}");
                    let held = k2.device().mmu_perm(b_actor, p).unwrap();
                    assert_eq!(held, Some(PagePerm::Write), "{ctx}: B on {p:?}");
                }
                let audit = k2.audit_mmu_against_books();
                assert!(audit.is_clean(), "{ctx}: {audit:?}");

                // A's next access faults (what its LibFS calls `Stale`); it
                // re-maps once B has let go and reads B's bytes.
                let mut buf = [0u8; 8];
                assert!(a.handle.read_untimed(root[2], 64, &mut buf).is_err(), "{ctx}");
                b.handle.write_untimed(root[2], 64, b"B wrote.").unwrap();
                k2.release(b_actor, ROOT_INO).unwrap();
                k2.map(a_actor, MapTarget::Root, false).unwrap();
                a.handle.read_untimed(root[2], 64, &mut buf).unwrap();
                assert_eq!(&buf, b"B wrote.", "{ctx}");
                assert!(k2.audit_mmu_against_books().is_clean(), "{ctx}");
            });
            rt.run();
        }
    }
}

/// A chain that names a frame outside the device fails the map with
/// `Corrupted` before the grant reaches the books — so the programming
/// that follows the books can never stop half way.
#[test]
fn frame_outside_the_device_fails_the_map_and_leaves_no_grant() {
    let k = new_kernel();
    let a = k.register_libfs(100, 100);
    k.map(a.actor, MapTarget::Root, true).unwrap();
    let ino = k.alloc_inos(a.actor, 1).unwrap()[0];
    let (ipage, ..) = create_in_empty_root(&k, &a, b"f", ino, CoreFileType::Regular);
    let beyond = k.device().topology().total_pages() + 7;
    IndexPageRef::new(&a.handle, ipage).set_entry(1, beyond).unwrap();
    k.release(a.actor, ROOT_INO).unwrap();
    let claimed = k.pages_of(ROOT_INO);

    // Its own re-map is the one that meets the chain unverified.
    for write in [false, true] {
        let res = k.map(a.actor, MapTarget::Root, write);
        assert_eq!(res.err(), Some(FsError::Corrupted), "write = {write}");
        assert_eq!(k.writer_of(ROOT_INO), None);
        assert_eq!(k.pages_of(ROOT_INO), claimed);
        let audit = k.audit_mmu_against_books();
        assert!(audit.is_clean(), "{audit:?}");
    }
}

// ---------------------------------------------------------------------
// Lazy release (DESIGN.md §9): `release` ends the holder's claim, not the
// grant. The PTEs stay until somebody else needs the file.
// ---------------------------------------------------------------------

/// A kernel whose device has the vector-clock race detector attached.
fn raced_kernel(config: KernelConfig) -> Arc<KernelController> {
    let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
    assert!(dev.set_race_detector(Arc::new(RaceDetector::new())));
    KernelController::format(dev, config)
}

/// Runs `body` as the one thread of a race-detected simulation.
fn raced_run(seed: u64, body: impl FnOnce() + Send + 'static) {
    let rt = SimRuntime::new(seed);
    rt.enable_race_detection();
    rt.spawn("main", body);
    rt.run();
}

/// Every page table holds exactly what the books give its actor.
fn assert_mmu_matches_books(k: &KernelController) {
    let audit = k.audit_mmu_against_books();
    assert!(audit.is_clean(), "page tables disagree with the books: {audit:?}");
}

/// `a` builds `f` in an empty root and a second actor vets the root, then
/// gives it back: returns `f`'s ino, its map target, and the root's two
/// pages (`InFile`, the second holding `f`'s dirent).
fn vetted_root_with_f(
    k: &KernelController,
    a: &LibFsRegistration,
) -> (u64, MapTarget, [PageId; 2]) {
    k.map(a.actor, MapTarget::Root, true).unwrap();
    let ino = k.alloc_inos(a.actor, 1).unwrap()[0];
    let (ipage, dpage, loc) = create_in_empty_root(k, a, b"f", ino, CoreFileType::Regular);
    k.release(a.actor, ROOT_INO).unwrap();
    let v = k.register_libfs(100, 100);
    k.map(v.actor, MapTarget::Root, false).unwrap();
    k.release(v.actor, ROOT_INO).unwrap();
    assert!(k.take_events().is_empty(), "the root verifies clean");
    (ino, MapTarget::Dirent(loc), [ipage, dpage])
}

/// Write-map a nine-page grant (`/d`: an index page and seven data pages,
/// plus its dirent page in the root), release it, write-map it again: the
/// PTEs that are already right are neither written nor paid for. The
/// hand-over to another actor still pays for all nine — one at the
/// release, eight at the foreign map.
#[test]
fn remap_after_release_pays_only_for_the_ptes_that_change() {
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    raced_run(1, move || {
        let k = &*k2;
        let pte = cost::MMU_PROGRAM_PAGE_NS;
        let a = k.register_libfs(100, 100);
        k.map(a.actor, MapTarget::Root, true).unwrap();
        let ino = k.alloc_inos(a.actor, 1).unwrap()[0];
        let pages = k.alloc_pages(a.actor, 10, None).unwrap();
        let dir = CoreFileType::Directory;
        let (_, dpage, loc) = create_in_empty_root_on(k, &a, (pages[0], pages[1]), b"d", ino, dir);
        let index = IndexPageRef::new(&a.handle, pages[2]);
        for (i, p) in pages[3..].iter().enumerate() {
            index.set_entry(i, p.0).unwrap();
        }
        DirentRef::new(&a.handle, loc).set_first_index(pages[2].0).unwrap();
        k.release(a.actor, ROOT_INO).unwrap();
        // V vets the root and `/d` (which sweeps A's pool PTEs off them)
        // and leaves: nobody has a PTE on the nine pages.
        let d = MapTarget::Dirent(loc);
        let v = k.register_libfs(100, 100);
        k.map(v.actor, MapTarget::Root, false).unwrap();
        assert_eq!(k.map(v.actor, d, false).unwrap().pages.all_pages().count(), 8);
        k.unregister(v.actor);
        assert!(k.take_events().is_empty(), "`/d` verifies clean");
        let b = k.register_libfs(100, 100);
        let chain = &pages[2..];
        let perm = |actor, p| k.device().mmu_perm(actor, p).unwrap();
        let _ = k.take_phase_stats();
        let step = || {
            let p = k.take_phase_stats();
            (p.map_ns / pte, p.unmap_ns / pte)
        };

        k.map(a.actor, d, true).unwrap();
        assert_eq!(step(), (9, 0), "first map: every PTE");
        k.release(a.actor, ino).unwrap();
        assert_eq!(step(), (0, 1), "release: the dirent page alone");
        assert!(chain.iter().all(|p| perm(a.actor, *p) == Some(PagePerm::Write)));
        assert_eq!(perm(a.actor, dpage), None);
        k.map(a.actor, d, true).unwrap();
        assert_eq!(step(), (1, 0), "own re-map: the dirent page alone");

        k.release(a.actor, ino).unwrap();
        assert_eq!(step(), (0, 1));
        k.map(b.actor, d, true).unwrap();
        assert_eq!(step(), (9, 8), "the foreign writer unmaps the released grant");
        assert!(chain.iter().chain([&dpage]).all(|p| perm(a.actor, *p).is_none()));
        assert_mmu_matches_books(k);
    });
}

/// A released grant confers nothing: its holder may not commit, update
/// the root or hand back `InFile` pages. Reclaiming is a matter of the
/// books alone, whoever holds the parent: a file still live at its
/// recorded slot is nobody's, an ino handed to the caller is the caller's.
#[test]
fn released_writer_has_no_authority() {
    let k = raced_kernel(KernelConfig::default());
    let k2 = Arc::clone(&k);
    raced_run(2, move || {
        let k = &*k2;
        let a = k.register_libfs(100, 100);
        let (f, f_target, [ipage, _]) = vetted_root_with_f(k, &a);
        k.map(a.actor, f_target, true).unwrap();
        k.release(a.actor, f).unwrap();
        assert_eq!(k.commit(a.actor, f), Err(FsError::PermissionDenied));

        k.map(a.actor, MapTarget::Root, true).unwrap();
        k.release(a.actor, ROOT_INO).unwrap();
        assert_eq!(k.writer_of(ROOT_INO), None);
        assert_eq!(k.update_root(a.actor, None, Some(1), None), Err(FsError::PermissionDenied));
        let denied = Err(FsError::PermissionDenied);
        assert_eq!(k.return_file_pages(a.actor, ROOT_INO, &[ipage]), denied);
        // A's live child is not A's to take, nor B's; B's own ino is B's.
        assert_eq!(k.reclaim_file(a.actor, f, 0), Err(FsError::PermissionDenied));
        let b = k.register_libfs(100, 100);
        let own = k.alloc_inos(b.actor, 1).unwrap();
        assert_eq!(k.reclaim_file(b.actor, own[0], 0), Ok(vec![]));
        assert_eq!(k.reclaim_file(b.actor, f, 0), Err(FsError::PermissionDenied));

        // A live grant on the root does not make the live child A's either.
        k.map(a.actor, MapTarget::Root, true).unwrap();
        assert_eq!(k.reclaim_file(a.actor, f, 0), Err(FsError::PermissionDenied));
        k.update_root(a.actor, None, Some(1), None).unwrap();
        assert_mmu_matches_books(k);
    });
}

/// `unregister` vets what the departing actor dirtied — here the root,
/// whose released writer W still has write PTEs on it. The verdict runs
/// only after W's grant is ended, and W's next store faults.
#[test]
fn eager_vetting_ends_a_released_writer_first() {
    let k = raced_kernel(KernelConfig::default());
    let k2 = Arc::clone(&k);
    raced_run(3, move || {
        let k = &*k2;
        let a = k.register_libfs(100, 100);
        let (_, f_target, [ipage, dpage]) = vetted_root_with_f(k, &a);
        k.map(a.actor, f_target, true).unwrap();
        let w = k.register_libfs(100, 100);
        k.map(w.actor, MapTarget::Root, true).unwrap();
        k.release(w.actor, ROOT_INO).unwrap();
        assert_eq!(k.device().mmu_perm(w.actor, ipage).unwrap(), Some(PagePerm::Write));

        // A leaves: its write grant on `f` ends, the root (already dirty by
        // W) is marked by A too, and the exit vets it — after ending W's
        // grant, whose two PTEs it pays for (the pass would find them gone
        // only once the walk was over), beside A's one on `f`'s dirent page
        // and the two of A's superblock window, which `register` paid for.
        let _ = k.take_phase_stats();
        k.unregister(a.actor);
        assert_eq!(k.take_phase_stats().unmap_ns, 5 * cost::MMU_PROGRAM_PAGE_NS);
        assert!(k.take_events().is_empty(), "nobody wrote anything wrong");
        for p in [ipage, dpage] {
            assert!(w.handle.write_untimed(p, 8 * 64, b"too late").is_err(), "{p:?}");
        }
        assert_mmu_matches_books(k);
    });
}

/// The repair pass re-verifies what a quarantined actor tainted — here the
/// root, on which W holds a released write grant. It ends W's grant before
/// the verdict; W's next store faults.
#[test]
fn repair_pass_ends_a_released_writer_first() {
    let k = raced_kernel(KernelConfig { auto_repair: false, ..KernelConfig::default() });
    let k2 = Arc::clone(&k);
    raced_run(4, move || {
        let k = &*k2;
        let a = k.register_libfs(100, 100);
        let (f, f_target, [ipage, dpage]) = vetted_root_with_f(k, &a);
        let v = k.register_libfs(100, 100);
        k.map(v.actor, f_target, false).unwrap(); // Vets and checkpoints `f`.
        k.release(v.actor, f).unwrap();
        k.map(a.actor, f_target, true).unwrap();
        let w = k.register_libfs(100, 100);
        k.map(w.actor, MapTarget::Root, true).unwrap();
        k.release(w.actor, ROOT_INO).unwrap();

        // A corrupts `f` and commits it: rolled back, A quarantined with
        // the root (dirty by W, and by A through `f`'s dirent) tainted.
        let MapTarget::Dirent(loc) = f_target else { unreachable!() };
        DirentRef::new(&a.handle, loc).set_first_index(u64::MAX / 2).unwrap();
        assert_eq!(k.commit(a.actor, f), Err(FsError::Corrupted));
        assert_eq!(k.quarantined_actors(), [a.actor]);
        assert_eq!(k.device().mmu_perm(w.actor, dpage).unwrap(), Some(PagePerm::Write));

        let _ = k.take_phase_stats();
        assert_eq!(k.repair_quarantined(), 1);
        // W's two PTEs, unmapped before the root's verdict.
        assert_eq!(k.take_phase_stats().unmap_ns, 2 * cost::MMU_PROGRAM_PAGE_NS);
        let events = k.take_events();
        assert!(events.contains(&KernelEvent::Readmitted { actor: a.actor }), "{events:?}");
        let root_flagged = |e: &KernelEvent| {
            matches!(e, KernelEvent::CorruptionDetected { ino, .. } if *ino == ROOT_INO)
        };
        assert!(!events.iter().any(root_flagged), "the root verifies clean: {events:?}");
        for p in [ipage, dpage] {
            assert!(w.handle.write_untimed(p, 8 * 64, b"too late").is_err(), "{p:?}");
        }
        assert_mmu_matches_books(k);
    });
}

/// A yield is one recall honoured, counted at the release; the waiter's
/// map then ends the released grant with no `LeaseRevoked` and no second
/// count.
#[test]
fn a_yield_is_one_honoured_recall_and_no_revocation() {
    let k = raced_kernel(KernelConfig::default());
    let k2 = Arc::clone(&k);
    raced_run(5, move || {
        let k = Arc::clone(&k2);
        let a = k.register_libfs(100, 100);
        let (f, f_target, [_, dpage]) = vetted_root_with_f(&k, &a);
        k.map(a.actor, f_target, true).unwrap();
        let b = k.register_libfs(100, 100);
        let kb = Arc::clone(&k);
        let waiter = trio_sim::spawn("b", move || {
            let t0 = now();
            kb.map(b.actor, f_target, false).unwrap();
            assert!(now() - t0 < MILLIS, "woken by the release, not the lease");
        });
        work(10_000);
        k.release(a.actor, f).unwrap();
        waiter.join();
        let r = k.resilience_stats().snapshot();
        assert_eq!((r.recalls_posted, r.recalls_honoured, r.recalls_expired), (1, 1, 0));
        let events = k.take_events();
        let revoked = events.iter().any(|e| matches!(e, KernelEvent::LeaseRevoked { .. }));
        assert!(!revoked, "{events:?}");
        assert_eq!(k.device().mmu_perm(a.actor, dpage).unwrap(), None);
        assert_mmu_matches_books(&k);
    });
}

/// Ending a released grant does not mark the parent again: the dirent page
/// left the grant, and the parent its dirt, at the release. Here the root
/// is vetted in between and then written by W; B's map of `f`, which ends
/// A's released grant on it, must not find the root dirty and verify it
/// under W's live grant (which would catch W's ghost early).
#[test]
fn ending_a_released_grant_does_not_mark_the_parent_again() {
    let k = raced_kernel(KernelConfig::default());
    let k2 = Arc::clone(&k);
    raced_run(6, move || {
        let k = &*k2;
        let a = k.register_libfs(100, 100);
        let (f, f_target, [_, dpage]) = vetted_root_with_f(k, &a);
        k.map(a.actor, f_target, true).unwrap();
        k.release(a.actor, f).unwrap();
        let w = k.register_libfs(100, 100);
        k.map(w.actor, MapTarget::Root, true).unwrap(); // Vets A's mark.
        assert!(k.take_events().is_empty());
        let ghost = DirentRef::new(&w.handle, DirentLoc { page: dpage, slot: 2 });
        let g = DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 100, 100);
        ghost.publish(987_654_321, &ghost.prepare(&g).unwrap()).unwrap();

        let b = k.register_libfs(100, 100);
        k.map(b.actor, f_target, false).unwrap();
        assert!(k.take_events().is_empty(), "the root was verified once, before W wrote");
        // The ghost was there to be caught, by whoever maps the root next.
        k.release(w.actor, ROOT_INO).unwrap();
        k.map(b.actor, MapTarget::Root, false).unwrap();
        let events = k.take_events();
        assert!(events.contains(&KernelEvent::RolledBack { ino: ROOT_INO }), "{events:?}");
        assert_mmu_matches_books(k);
    });
}

// ---------------------------------------------------------------------
// The kernel knows where a file lives (DESIGN.md §14): no kernel call takes
// a parent from a LibFS, so neither a false parent nor a wrong one can be
// passed. Both probes below did exactly that, and succeeded.
// ---------------------------------------------------------------------

/// `/e`, built by `owner` in an empty root.
struct DirE {
    ino: u64,
    loc: DirentLoc,
    /// `/e`'s one data page: the children's dirents.
    page: PageId,
    /// Per child: its ino, its slot, its index and data page.
    kids: Vec<(u64, DirentLoc, [PageId; 2])>,
}

/// [`built_dir`], then a second actor vets the root and `/e` and leaves.
/// The kernel has seen the files' slots, not the files.
fn vetted_dir(k: &KernelController, owner: &LibFsRegistration, names: &[&[u8]]) -> DirE {
    let e = built_dir(k, owner, names);
    vet(k, [MapTarget::Root, MapTarget::Dirent(e.loc)]);
    e
}

/// `owner` builds `/e` in an empty root with one regular file per name (an
/// index page and a data page each), all on its pool pages, and lets the
/// root go. Nobody else has looked: `/e` and its files are the owner's
/// unvetted work.
fn built_dir(k: &KernelController, owner: &LibFsRegistration, names: &[&[u8]]) -> DirE {
    k.map(owner.actor, MapTarget::Root, true).unwrap();
    let inos = k.alloc_inos(owner.actor, 1 + names.len() as u64).unwrap();
    let (_, _, loc) = create_in_empty_root(k, owner, b"e", inos[0], CoreFileType::Directory);
    let pages = k.alloc_pages(owner.actor, 2 + 2 * names.len(), None).unwrap();
    IndexPageRef::new(&owner.handle, pages[0]).set_entry(0, pages[1].0).unwrap();
    let e = DirentRef::new(&owner.handle, loc);
    e.set_first_index(pages[0].0).unwrap();
    e.set_size(names.len() as u64).unwrap();
    let mut kids = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let (ipage, dpage) = (pages[2 + 2 * i], pages[3 + 2 * i]);
        IndexPageRef::new(&owner.handle, ipage).set_entry(0, dpage.0).unwrap();
        let mut d = DirentData::new(name, CoreFileType::Regular, Mode::RW, 100, 100);
        (d.first_index, d.size) = (ipage.0, 4096);
        let kloc = DirentLoc { page: pages[1], slot: i };
        let r = DirentRef::new(&owner.handle, kloc);
        r.publish(inos[1 + i], &r.prepare(&d).unwrap()).unwrap();
        kids.push((inos[1 + i], kloc, [ipage, dpage]));
    }
    k.release(owner.actor, ROOT_INO).unwrap();
    DirE { ino: inos[0], loc, page: pages[1], kids }
}

/// A passing actor maps each of `targets` for read — verifying what is
/// dirty — and leaves.
fn vet(k: &KernelController, targets: impl IntoIterator<Item = MapTarget>) {
    let v = k.register_libfs(100, 100);
    for t in targets {
        k.map(v.actor, t, false).unwrap();
    }
    k.unregister(v.actor);
    assert!(k.take_events().is_empty(), "verifies clean");
}

/// Probe 1, a false parent in `map`: a write grant on `/e/f` maps the page
/// of `/e` that holds `f`'s dirent writable, and the stores A makes through
/// it — here an entry for an ino nobody allocated — are vetted with `/e`,
/// the directory the books say owns that page: A's release marks `/e`, and
/// B's next map of `/e` rolls the entry back.
#[test]
fn stores_through_a_dirent_page_are_vetted_with_the_directory_that_owns_it() {
    let k = raced_kernel(KernelConfig::default());
    let k2 = Arc::clone(&k);
    raced_run(7, move || {
        let k = &*k2;
        let a = k.register_libfs(100, 100);
        let e = vetted_dir(k, &a, &[b"f"]);
        let (f, f_loc, _) = e.kids[0];
        k.map(a.actor, MapTarget::Dirent(f_loc), true).unwrap();
        let ghost_loc = DirentLoc { page: e.page, slot: 1 };
        let ghost = DirentRef::new(&a.handle, ghost_loc);
        let d = DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 100, 100);
        ghost.publish(999_999, &ghost.prepare(&d).unwrap()).unwrap();
        k.release(a.actor, f).unwrap();

        let b = k.register_libfs(100, 100);
        k.map(b.actor, MapTarget::Root, false).unwrap();
        assert!(k.take_events().is_empty(), "the root was not written");
        k.map(b.actor, MapTarget::Dirent(e.loc), false).unwrap();
        let events = k.take_events();
        assert!(events.contains(&KernelEvent::RolledBack { ino: e.ino }), "{events:?}");
        assert_eq!(DirentRef::new(k.kernel_handle(), ghost_loc).ino().unwrap(), 0);
        let a_contained = |e: &KernelEvent| matches!(e, KernelEvent::Quarantined { actor, .. } if *actor == a.actor);
        assert!(events.iter().any(a_contained), "{events:?}");
        assert_mmu_matches_books(k);
    });
}

/// Probe 2, a wrong parent in `reclaim`: A, the root's writer, asks to
/// reclaim `g`, a vetted file that lives in `/e`, on which A holds no grant.
/// The books place `g` at a slot that still holds it, so it is nobody's to
/// reclaim: `PermissionDenied`, its pages stay `g`'s, and none is mapped to A.
#[test]
fn reclaiming_a_file_live_in_another_directory_is_denied() {
    let k = raced_kernel(KernelConfig::default());
    let k2 = Arc::clone(&k);
    raced_run(8, move || {
        let k = &*k2;
        let b = k.register_libfs(100, 100);
        let e = vetted_dir(k, &b, &[b"g"]);
        let (g, g_loc, [gi, gd]) = e.kids[0];
        vet(k, [MapTarget::Dirent(g_loc)]);
        let a = k.register_libfs(100, 100);
        k.map(a.actor, MapTarget::Root, true).unwrap();
        assert_eq!(k.reclaim_file(a.actor, g, gi.0), Err(FsError::PermissionDenied));
        assert_eq!(k.pages_of(g), [gi.0, gd.0].into_iter().collect());
        for p in [gi, gd] {
            assert_eq!(k.device().mmu_perm(a.actor, p).unwrap(), None, "{p:?}");
        }
        assert!(a.handle.write_untimed(gd, 0, b"mine now").is_err());
        assert_mmu_matches_books(k);
    });
}

/// What the books allow still reclaims: `/e/g` unlinked in place, and
/// `/e/h` moved into the root and unlinked there — its recorded slot in
/// `/e` no longer holds it, so it has left, whichever directory A unlinked
/// it from. Both chains come back to A's pool.
#[test]
fn honest_unlink_and_rename_then_unlink_still_reclaim() {
    let k = raced_kernel(KernelConfig::default());
    let k2 = Arc::clone(&k);
    raced_run(9, move || {
        let k = &*k2;
        let a = k.register_libfs(100, 100);
        let e = vetted_dir(k, &a, &[b"g", b"h"]);
        let [(g, g_loc, g_pages), (h, h_loc, h_pages)] = [e.kids[0], e.kids[1]];
        vet(k, [MapTarget::Dirent(g_loc), MapTarget::Dirent(h_loc)]);
        k.map(a.actor, MapTarget::Root, true).unwrap();
        k.map(a.actor, MapTarget::Dirent(e.loc), true).unwrap();

        DirentRef::new(&a.handle, g_loc).clear().unwrap();
        let mut recycled = k.reclaim_file(a.actor, g, g_pages[0].0).unwrap();
        recycled.sort_unstable();
        assert_eq!(recycled, g_pages);

        // The move: `h`'s dirent to a free root slot, then unlinked there.
        let moved = DirentLoc { page: e.loc.page, slot: 1 };
        let d = DirentRef::new(&a.handle, h_loc).load().unwrap();
        let m = DirentRef::new(&a.handle, moved);
        m.publish(h, &m.prepare(&d).unwrap()).unwrap();
        DirentRef::new(&a.handle, h_loc).clear().unwrap();
        m.clear().unwrap();
        let mut recycled = k.reclaim_file(a.actor, h, h_pages[0].0).unwrap();
        recycled.sort_unstable();
        assert_eq!(recycled, h_pages);
        assert!(k.pages_of(g).is_empty() && k.pages_of(h).is_empty());
        assert_mmu_matches_books(k);
    });
}

/// The write grant on a file covers the page its dirent was in, so a move
/// ends it. W holds `/e/f` for write, and so `/e`'s page with it. It forges
/// an entry in that page, moves `f` into the root and lets the root go.
/// The move is accepted either by the root's verification or by W's own
/// map of `f` at the new slot. Either way W's grant on `f` is revoked first,
/// while the books still place `f` in `/e`. So `/e` is dirty by W, W keeps
/// no PTE on its page, and B's map of `/e` rolls the entry back.
#[test]
fn a_move_ends_the_write_grant_that_covered_the_old_dirent_page() {
    for by_verification in [true, false] {
        let k = raced_kernel(KernelConfig::default());
        let k2 = Arc::clone(&k);
        raced_run(10, move || {
            let k = &*k2;
            let w = k.register_libfs(100, 100);
            let e = vetted_dir(k, &w, &[b"f"]);
            let (f, f_loc, _) = e.kids[0];
            k.map(w.actor, MapTarget::Dirent(f_loc), true).unwrap();
            let ghost_loc = DirentLoc { page: e.page, slot: 1 };
            let ghost = DirentRef::new(&w.handle, ghost_loc);
            let d = DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 100, 100);
            ghost.publish(999_999, &ghost.prepare(&d).unwrap()).unwrap();

            k.map(w.actor, MapTarget::Root, true).unwrap();
            let moved = DirentLoc { page: e.loc.page, slot: 1 };
            let m = DirentRef::new(&w.handle, moved);
            m.publish(f, &m.prepare(&DirentRef::new(&w.handle, f_loc).load().unwrap()).unwrap())
                .unwrap();
            DirentRef::new(&w.handle, f_loc).clear().unwrap();
            k.update_root(w.actor, None, Some(2), None).unwrap();
            k.release(w.actor, ROOT_INO).unwrap();
            if by_verification {
                let v = k.register_libfs(100, 100);
                k.map(v.actor, MapTarget::Root, false).unwrap();
                k.unregister(v.actor);
            } else {
                k.map(w.actor, MapTarget::Dirent(moved), true).unwrap();
            }
            let revoked = KernelEvent::LeaseRevoked { ino: f, actor: w.actor };
            assert_eq!(k.take_events(), [revoked], "by_verification = {by_verification}");
            k.release(w.actor, f).unwrap();
            assert_eq!(k.device().mmu_perm(w.actor, e.page).unwrap(), None);

            let b = k.register_libfs(100, 100);
            k.map(b.actor, MapTarget::Root, false).unwrap();
            k.map(b.actor, MapTarget::Dirent(e.loc), false).unwrap();
            let events = k.take_events();
            assert!(events.contains(&KernelEvent::RolledBack { ino: e.ino }), "{events:?}");
            assert_eq!(DirentRef::new(k.kernel_handle(), ghost_loc).ino().unwrap(), 0);
            let w_contained =
                |e: &KernelEvent| matches!(e, KernelEvent::Quarantined { actor, .. } if *actor == w.actor);
            assert!(events.iter().any(w_contained), "{events:?}");
            assert_mmu_matches_books(k);
        });
    }
}

/// Nobody has vetted `/e`, so its page is X's pool page and the books name
/// no directory for `f`'s dirent. W maps `f` straight from its slot for
/// write (which verifies `f`). It gets `f`'s pages but not that one:
/// whatever it stored there would be charged to X, whose page it is. Once
/// a verification places `f` in `/e`, the page comes with W's next grant.
#[test]
fn a_dirent_page_in_another_actors_unvetted_pool_page_is_not_granted() {
    let k = raced_kernel(KernelConfig::default());
    let k2 = Arc::clone(&k);
    raced_run(11, move || {
        let k = &*k2;
        let x = k.register_libfs(100, 100);
        let e = built_dir(k, &x, &[b"f"]);
        let (_, f_loc, _) = e.kids[0];
        let w = k.register_libfs(100, 100);
        k.map(w.actor, MapTarget::Dirent(f_loc), true).unwrap();
        assert_eq!(k.device().mmu_perm(w.actor, e.page).unwrap(), None);
        let ghost = DirentRef::new(&w.handle, DirentLoc { page: e.page, slot: 1 });
        let d = DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 100, 100);
        assert!(ghost.prepare(&d).and_then(|g| ghost.publish(999_999, &g)).is_err());
        vet(k, [MapTarget::Root, MapTarget::Dirent(e.loc)]);

        k.map(w.actor, MapTarget::Dirent(f_loc), true).unwrap();
        assert_eq!(k.device().mmu_perm(w.actor, e.page).unwrap(), Some(PagePerm::Write));
        assert_mmu_matches_books(k);
    });
}

/// After `recover` the books place `f` in `/e` (the walk claimed `/e`'s
/// page for it) but hold no metadata for `/e` until somebody maps it. A
/// write grant's end could mark no dirt there, and `/e` would be adopted
/// clean. So W's write grant on `f` leaves the page out until `/e` is
/// adopted.
#[test]
fn a_dirent_page_whose_directory_the_books_lack_is_not_granted() {
    let k = new_kernel();
    let k2 = Arc::clone(&k);
    let built = Arc::new(PlMutex::new(None));
    let out = Arc::clone(&built);
    raced_run(12, move || {
        let k = &*k2;
        let a = k.register_libfs(100, 100);
        *out.lock() = Some(vetted_dir(k, &a, &[b"f"]));
    });
    let e = built.lock().take().unwrap();
    let dev = Arc::clone(k.device());
    drop(k);
    let k = KernelController::recover(dev, KernelConfig::default()).unwrap();
    let k2 = Arc::clone(&k);
    raced_run(13, move || {
        let k = &*k2;
        let (_, f_loc, _) = e.kids[0];
        let w = k.register_libfs(100, 100);
        k.map(w.actor, MapTarget::Dirent(f_loc), true).unwrap();
        assert_eq!(k.device().mmu_perm(w.actor, e.page).unwrap(), None);
        assert!(w.handle.write_untimed(e.page, 0, b"ghost").is_err());

        let b = k.register_libfs(100, 100);
        k.map(b.actor, MapTarget::Root, false).unwrap();
        k.map(b.actor, MapTarget::Dirent(e.loc), false).unwrap();
        k.map(w.actor, MapTarget::Dirent(f_loc), true).unwrap();
        assert_eq!(k.device().mmu_perm(w.actor, e.page).unwrap(), Some(PagePerm::Write));
        assert!(k.take_events().is_empty());
        assert_mmu_matches_books(k);
    });
}

// ---------------------------------------------------------------------
// Reclamation recycles in place (DESIGN.md §9): a frame that stays with
// its owner costs no PTE write, one that changes hands costs one.
// ---------------------------------------------------------------------

/// Whether `actor` holds `page` writable and reads zeros there.
fn writable_zeros(reg: &LibFsRegistration, page: PageId) -> bool {
    let mut buf = vec![0xA5u8; trio_nvm::PAGE_SIZE];
    reg.handle.read_untimed(page, 0, &mut buf).unwrap();
    reg.handle.write_untimed(page, 0, &[0]).is_ok() && buf.iter().all(|b| *b == 0)
}

/// Two by-construction files — one pool page (an index page) and sixty-four
/// (an index page and 63 data pages) — unlinked and reclaimed: no PTE is
/// written or charged, and the two reclaims take the same virtual time up
/// to the provenance shards they touch, not a term per page.
#[test]
fn reclaiming_pool_pages_writes_no_pte() {
    let k = raced_kernel(KernelConfig::default());
    let k2 = Arc::clone(&k);
    raced_run(14, move || {
        let k = &*k2;
        let a = k.register_libfs(100, 100);
        k.map(a.actor, MapTarget::Root, true).unwrap();
        let inos = k.alloc_inos(a.actor, 2).unwrap();
        let regular = CoreFileType::Regular;
        let (_, root_page, small) = create_in_empty_root(k, &a, b"s", inos[0], regular);
        let big = DirentLoc { page: root_page, slot: 1 };
        let r = DirentRef::new(&a.handle, big);
        let d = DirentData::new(b"b", regular, Mode::RW, 100, 100);
        r.publish(inos[1], &r.prepare(&d).unwrap()).unwrap();
        let pages = k.alloc_pages(a.actor, 65, None).unwrap();
        let (small_chain, big_chain) = (pages[..1].to_vec(), pages[1..].to_vec());
        for (loc, chain) in [(small, &small_chain), (big, &big_chain)] {
            DirentRef::new(&a.handle, loc).set_first_index(chain[0].0).unwrap();
        }
        let index = IndexPageRef::new(&a.handle, big_chain[0]);
        for (i, p) in big_chain[1..].iter().enumerate() {
            index.set_entry(i, p.0).unwrap();
            a.handle.write_untimed(*p, 0, b"old bytes").unwrap();
        }

        let mut took = Vec::new();
        for (ino, loc, chain) in [(inos[0], small, small_chain), (inos[1], big, big_chain)] {
            DirentRef::new(&a.handle, loc).clear().unwrap();
            let _ = k.take_phase_stats();
            let t0 = now();
            let recycled = k.reclaim_file(a.actor, ino, chain[0].0).unwrap();
            took.push(now() - t0);
            let p = k.take_phase_stats();
            assert_eq!((p.map_ns, p.unmap_ns), (0, 0), "{} pages", chain.len());
            assert_eq!(recycled, chain, "the chain, in walk order");
            assert!(chain.iter().all(|p| writable_zeros(&a, *p)), "{}", chain.len());
            assert_mmu_matches_books(k);
        }
        // 63 pages more; at most one more provenance shard, locked twice.
        assert!(took[1] - took[0] <= 2 * cost::LOCK_UNCONTENDED_NS, "{took:?}");
    });
}

/// R reclaims `g`, a vetted file (`InFile`) that W wrote and R only read,
/// while both still hold read grants on it. R's two PTEs grow from read to
/// write, one `MMU_PROGRAM_PAGE_NS` each (its grant's end unmaps nothing it
/// keeps); W's two go. W's bytes are gone.
#[test]
fn reclaiming_a_read_file_pays_one_pte_per_page_that_grows() {
    let k = raced_kernel(KernelConfig::default());
    let k2 = Arc::clone(&k);
    raced_run(15, move || {
        let k = &*k2;
        let pte = cost::MMU_PROGRAM_PAGE_NS;
        let w = k.register_libfs(100, 100);
        let e = vetted_dir(k, &w, &[b"g"]);
        let (g, g_loc, chain) = e.kids[0];
        let g_target = MapTarget::Dirent(g_loc);
        k.map(w.actor, g_target, true).unwrap();
        w.handle.write_untimed(chain[1], 0, b"w's bytes").unwrap();
        k.release(w.actor, g).unwrap();
        let r = k.register_libfs(100, 100);
        k.map(r.actor, g_target, false).unwrap();
        k.map(w.actor, g_target, false).unwrap();
        assert_eq!(k.pages_of(g), chain.iter().map(|p| p.0).collect());

        k.map(r.actor, MapTarget::Dirent(e.loc), true).unwrap();
        DirentRef::new(&r.handle, g_loc).clear().unwrap();
        let _ = k.take_phase_stats();
        let recycled = k.reclaim_file(r.actor, g, chain[0].0).unwrap();
        let p = k.take_phase_stats();
        assert_eq!(recycled, chain);
        assert_eq!((p.map_ns, p.unmap_ns), (2 * pte, 2 * pte), "R's two grow, W's two go");
        for page in chain {
            assert!(writable_zeros(&r, page), "{page:?}");
            assert_eq!(k.device().mmu_perm(w.actor, page).unwrap(), None, "{page:?}");
        }
        assert!(k.take_events().is_empty());
        assert_mmu_matches_books(k);
    });
}
