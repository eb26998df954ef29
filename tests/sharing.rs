//! Cross-LibFS sharing semantics (paper §3.2): concurrent-read XOR
//! exclusive-write, lease-bounded hand-off, verification on every
//! transfer, and trust groups.

use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig};
use trio_sim::plock::Mutex;
use trio_fsapi::{read_file, write_file, FileSystem, FsError, Mode, OpenFlags, SetAttr};
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{DeviceConfig, NvmDevice, PageId, PagePerm, Topology};
use trio_sim::{SimRuntime, MILLIS};

fn world(lease_ms: u64) -> (Arc<KernelController>, Arc<ArckFs>, Arc<ArckFs>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(
        dev,
        KernelConfig { lease_ns: lease_ms * MILLIS, ..KernelConfig::default() },
    );
    let a = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let b = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    (kernel, a, b)
}

#[test]
fn data_written_by_one_process_is_read_by_another() {
    let (_, a, b) = world(100);
    let rt = SimRuntime::new(1);
    rt.spawn("t", move || {
        a.mkdir("/x", Mode(0o777)).unwrap();
        write_file(&*a, "/x/f", b"handoff payload").unwrap();
        a.release_path("/x").unwrap();
        assert_eq!(read_file(&*b, "/x/f").unwrap(), b"handoff payload");
        // And back: B modifies, A re-reads.
        let fd = b.open("/x/f", OpenFlags::RDWR, Mode(0o666)).unwrap();
        b.pwrite(fd, 0, b"HANDOFF").unwrap();
        b.close(fd).unwrap();
        b.release_path("/x/f").unwrap();
        assert_eq!(read_file(&*a, "/x/f").unwrap(), b"HANDOFF payload");
    });
    rt.run();
}

#[test]
fn concurrent_readers_share_without_transfer() {
    let (kernel, a, b) = world(100);
    let rt = SimRuntime::new(2);
    rt.spawn("t", move || {
        write_file(&*a, "/ro", &vec![3u8; 8192]).unwrap();
        a.release_path("/ro").unwrap();
        // Both map read; no revocations, no corruption events.
        assert_eq!(read_file(&*a, "/ro").unwrap().len(), 8192);
        assert_eq!(read_file(&*b, "/ro").unwrap().len(), 8192);
        assert_eq!(read_file(&*a, "/ro").unwrap().len(), 8192);
        let events = kernel.take_events();
        assert!(
            !events.iter().any(|e| matches!(
                e,
                trio_kernel::registry::KernelEvent::CorruptionDetected { .. }
            )),
            "clean sharing must not flag corruption: {events:?}"
        );
    });
    rt.run();
}

/// Two LibFSes write disjoint halves of one file, 200 writes each, the
/// grant bouncing between them; returns the kernel events of the run.
/// `hold_fd`: each writer keeps one descriptor open throughout (the grant
/// is pinned and moves only at lease expiry), or opens and closes around
/// every write (the grant moves by recall at every op boundary, the old
/// holder racing to re-acquire it for its next write).
fn ping_pong(lease_ms: u64, hold_fd: bool, seed: u64) -> Vec<trio_kernel::registry::KernelEvent> {
    let (kernel, a, b) = world(lease_ms);
    let rd = Arc::new(trio_sim::RaceDetector::new());
    assert!(kernel.device().set_race_detector(rd));
    let rt = SimRuntime::new(seed);
    rt.enable_race_detection();
    let procs = [Arc::clone(&a), Arc::clone(&b)];
    let check = Arc::clone(&a);
    rt.spawn("main", move || {
        write_file(&*procs[0], "/pp", &vec![0u8; 64 * 1024]).unwrap();
        procs[0].release_path("/pp").unwrap();
        let mut hs = Vec::new();
        for (i, fs) in procs.iter().enumerate() {
            let fs = Arc::clone(fs);
            hs.push(trio_sim::spawn("writer", move || {
                let open = || fs.open("/pp", OpenFlags::RDWR, Mode(0o666)).unwrap();
                let mut fd = open();
                let block = vec![i as u8 + 1; 4096];
                // Each process owns a disjoint half of the file.
                for k in 0..200u64 {
                    let off = (i as u64 * 8 + (k % 8)) * 4096;
                    fs.pwrite(fd, off, &block).unwrap();
                    if !hold_fd {
                        fs.close(fd).unwrap();
                        fd = open();
                    }
                }
                let _ = fs.close(fd);
            }));
        }
        for h in hs {
            h.join();
        }
        let _ = procs[0].release_path("/pp");
        let _ = procs[1].release_path("/pp");
        let data = read_file(&*check, "/pp").unwrap();
        assert!(data[..8 * 4096].iter().all(|&x| x == 1), "A's half intact");
        assert!(data[8 * 4096..16 * 4096].iter().all(|&x| x == 2), "B's half intact");
    });
    // The detector panics the whole run on any unsynchronized hand-off.
    rt.run();
    kernel.take_events()
}

#[test]
fn writer_lease_ping_pong_preserves_all_writes() {
    use trio_kernel::registry::KernelEvent as E;
    // Pinned by open descriptors, 1 ms lease: the grant moves at expiry or
    // at a writer's close, whichever comes first.
    ping_pong(1, true, 3);
    // Unpinned, paper's lease: every transfer is an honoured recall, the
    // old holder re-acquiring concurrently — and still no write is lost.
    let events = ping_pong(100, false, 3);
    assert!(!events.iter().any(|e| matches!(e, E::LeaseRevoked { .. })), "{events:?}");
}

#[test]
fn trust_group_shares_one_libfs_without_transfers() {
    // Two "processes" in a trust group = two sim threads on one ArckFs.
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(dev, KernelConfig::default());
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(4);
    let fs0 = Arc::clone(&fs);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        write_file(&*fs0, "/tg", &vec![0u8; 32 * 1024]).unwrap();
        let mut hs = Vec::new();
        for i in 0..2u64 {
            let fs = Arc::clone(&fs0);
            hs.push(trio_sim::spawn("member", move || {
                let fd = fs.open("/tg", OpenFlags::RDWR, Mode(0o666)).unwrap();
                let block = vec![i as u8 + 9; 4096];
                for k in 0..100u64 {
                    fs.pwrite(fd, (i * 4 + (k % 4)) * 4096, &block).unwrap();
                }
                fs.close(fd).unwrap();
            }));
        }
        for h in hs {
            h.join();
        }
        // No lease revocations: one LibFS, one write grant.
        let events = k.take_events();
        assert!(
            !events
                .iter()
                .any(|e| matches!(e, trio_kernel::registry::KernelEvent::LeaseRevoked { .. })),
            "trust group must not ping-pong: {events:?}"
        );
    });
    rt.run();
}

#[test]
fn permissions_respected_across_processes() {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(dev, KernelConfig::default());
    let alice = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let eve = ArckFs::mount(Arc::clone(&kernel), 2000, 2000, ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(5);
    rt.spawn("t", move || {
        write_file(&*alice, "/secret", b"alice only").unwrap();
        alice.release_path("/secret").unwrap();
        // Mode 0600, uid mismatch: Eve cannot read the contents.
        let fd = eve.open("/secret", OpenFlags::RDONLY, Mode::empty()).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(eve.pread(fd, 0, &mut buf).err(), Some(FsError::PermissionDenied));
        eve.close(fd).unwrap();
        // Alice widens the mode through the mediated chmod (I4 ground truth).
        alice.setattr("/secret", SetAttr { mode: Some(Mode(0o644)), ..Default::default() }).unwrap();
        assert_eq!(read_file(&*eve, "/secret").unwrap(), b"alice only");
    });
    rt.run();
}

#[test]
fn lease_wait_time_matches_configuration() {
    let (_, a, b) = world(50);
    let rt = SimRuntime::new(6);
    let waited = Arc::new(Mutex::new(0u64));
    let w2 = Arc::clone(&waited);
    rt.spawn("t", move || {
        write_file(&*a, "/lease", &vec![0u8; 4096]).unwrap();
        // A holds the write grant; B's write must wait out the lease.
        let t0 = trio_sim::now();
        let fd = b.open("/lease", OpenFlags::RDWR, Mode(0o666)).unwrap();
        b.pwrite(fd, 0, b"mine now").unwrap();
        b.close(fd).unwrap();
        *w2.lock() = trio_sim::now() - t0;
    });
    rt.run();
    let w = *waited.lock();
    assert!(w >= 45 * MILLIS, "B should wait out most of the 50ms lease, waited {w}ns");
    assert!(w < 80 * MILLIS, "but not much longer, waited {w}ns");
}

// ---------------------------------------------------------------------
// Fault injection: lease-expiry recovery, LibFS death, privatization.
// ---------------------------------------------------------------------

/// A writer corrupts its file's metadata and then stalls past its lease.
/// The next writer's map revokes the expired lease, verification catches
/// the corruption, and the kernel rolls back to the checkpoint taken when
/// the faulty writer got its grant — the second writer proceeds on the
/// checkpointed state.
#[test]
fn lease_expiry_rolls_back_a_stalled_corrupting_writer() {
    let (kernel, a, b) = world(20);
    let rt = SimRuntime::new(7);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        // Baseline, handed to the kernel's books: release marks it dirty,
        // B's read verifies and checkpoints it. (A write grant to the dirty
        // actor itself checkpoints nothing: what it would snapshot is
        // unverified, DESIGN.md §22.)
        write_file(&*a, "/le", &vec![0xAAu8; 2 * 4096]).unwrap();
        a.release_path("/le").unwrap();
        assert_eq!(read_file(&*b, "/le").unwrap().len(), 2 * 4096);
        let bad = Arc::clone(&a);
        let victim = trio_sim::spawn("victim", move || {
            // Re-acquire the write grant (the file is verified-clean, so
            // the kernel checkpoints here), then
            // corrupt the file's index: point an entry at a page the books
            // say is free. I2 can never pass on this state.
            let fd = bad.open("/le", OpenFlags::RDWR, Mode(0o666)).unwrap();
            bad.pwrite(fd, 0, &[0xBBu8; 8]).unwrap();
            let (_, index, _) = bad.debug_file_pages("/le").unwrap();
            trio_layout::IndexPageRef::new(bad.handle(), index[0])
                .set_entry(1, 30_000)
                .unwrap();
            // Stall far past the 20ms lease without closing or releasing.
            trio_sim::work(200 * MILLIS);
            let _ = bad.close(fd);
        });
        // B's write open blocks until A's lease expires, then revokes it,
        // verifies, detects the corruption, and rolls back.
        trio_sim::work(MILLIS);
        let fd = b.open("/le", OpenFlags::RDWR, Mode(0o666)).unwrap();
        let mut buf = vec![0u8; 2 * 4096];
        b.pread(fd, 0, &mut buf).unwrap();
        // A's *data* write is direct-access and durable (data pages are not
        // checkpointed); the *metadata* corruption is what rolls back.
        assert!(buf[..8].iter().all(|&x| x == 0xBB), "A's legit data write survives");
        assert!(
            buf[8..].iter().all(|&x| x == 0xAA),
            "B must see the checkpointed metadata, not A's corruption"
        );
        b.pwrite(fd, 0, b"B owns this now").unwrap();
        b.close(fd).unwrap();
        victim.join();
        let events = k.take_events();
        use trio_kernel::registry::KernelEvent as E;
        assert!(
            events.iter().any(|e| matches!(e, E::LeaseRevoked { .. })),
            "expired lease must be revoked: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, E::CorruptionDetected { .. })),
            "verification must flag the bad index entry: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, E::RolledBack { .. })),
            "the kernel must roll back to the checkpoint: {events:?}"
        );
    });
    rt.run();
}

/// A LibFS dies mid-write (injected sim-thread kill). Its lease expires,
/// the kernel revokes the dead writer's grant, and a second LibFS maps
/// and proceeds — no hang, no panic, and the survivor's writes stick.
#[test]
fn killed_libfs_lease_expires_and_survivor_proceeds() {
    let (kernel, a, b) = world(10);
    let rt = SimRuntime::new(8);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        write_file(&*a, "/shared", &vec![0u8; 32 * 4096]).unwrap();
        a.release_path("/shared").unwrap();
        let doomed = Arc::clone(&a);
        let victim = trio_sim::spawn("victim", move || {
            let fd = doomed.open("/shared", OpenFlags::RDWR, Mode(0o666)).unwrap();
            let block = vec![0x11u8; 4096];
            // Write forever; the kill lands mid-loop.
            for i in 0.. {
                doomed.pwrite(fd, (i % 16) * 4096, &block).unwrap();
            }
        });
        trio_sim::work(2 * MILLIS);
        victim.kill(); // LibFS process death, mid-operation.
        // The survivor's open waits out the dead writer's lease, revokes
        // it, verifies the (valid, possibly partial) writes, and proceeds.
        let fd = b.open("/shared", OpenFlags::RDWR, Mode(0o666)).unwrap();
        b.pwrite(fd, 16 * 4096, b"survivor").unwrap();
        let mut buf = [0u8; 8];
        b.pread(fd, 16 * 4096, &mut buf).unwrap();
        assert_eq!(&buf, b"survivor");
        // The whole file is still readable (dead writer's torn progress is
        // valid data, not corruption).
        let all = read_file(&*b, "/shared").unwrap();
        assert_eq!(all.len(), 32 * 4096);
        b.close(fd).unwrap();
        let events = k.take_events();
        use trio_kernel::registry::KernelEvent as E;
        assert!(
            events.iter().any(
                |e| matches!(e, E::LeaseRevoked { ino: _, actor } if *actor == a.actor())
            ),
            "dead writer's lease must be revoked: {events:?}"
        );
    });
    rt.run();
}

/// Graceful degradation for unverifiable creations: a file created raw by
/// a LibFS (never checkpointed) whose core state cannot pass verification
/// is *privatized* — expelled from the shared namespace — rather than
/// rolled back. Other processes see a clean miss and keep working.
#[test]
fn corrupt_unverified_creation_is_privatized_not_fatal() {
    let (kernel, a, b) = world(20);
    let rt = SimRuntime::new(9);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        a.mkdir("/d", Mode(0o777)).unwrap();
        write_file(&*a, "/d/evil", b"never vetted").unwrap();
        // Corrupt the unvetted file: a first_index pointing nowhere
        // walkable. No checkpoint exists — this state has no good version.
        let (loc, _, _) = a.debug_file_pages("/d/evil").unwrap();
        trio_layout::DirentRef::new(a.handle(), loc.unwrap())
            .set_first_index(100_000)
            .unwrap();
        a.release_path("/").unwrap();
        a.release_path("/d").unwrap();
        // B's read maps the file, tripping verification; the kernel expels
        // the unverifiable creation.
        assert_eq!(read_file(&*b, "/d/evil").err(), Some(FsError::NotFound));
        let events = k.take_events();
        use trio_kernel::registry::KernelEvent as E;
        assert!(
            events.iter().any(
                |e| matches!(e, E::Privatized { ino: _, actor: Some(who) } if *who == a.actor())
            ),
            "corrupt creation must be privatized and attributed: {events:?}"
        );
        // The directory (and the rest of the namespace) stays serviceable.
        write_file(&*b, "/d/fresh", b"life goes on").unwrap();
        assert_eq!(read_file(&*b, "/d/fresh").unwrap(), b"life goes on");
        assert!(b.readdir("/d").unwrap().iter().all(|e| e.name != "evil"));
    });
    rt.run();
}

/// Lease expiry racing a concurrent re-acquire, under the cross-LibFS
/// race detector (DESIGN.md §13). A writer stalls past its lease while
/// TWO other LibFSes contend to take over the same file; the kernel must
/// serialize revocation → verification → re-grant so that no two actors
/// ever touch a shared NVM line without a happens-before edge. The
/// detector aborts the run (panic with a replay seed) if the hand-off is
/// ever racy; both contenders must also complete and their writes stick.
#[test]
fn lease_expiry_vs_concurrent_reacquire_is_race_free() {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let rd = Arc::new(trio_sim::RaceDetector::new());
    assert!(dev.set_race_detector(rd));
    let kernel = KernelController::format(
        Arc::clone(&dev),
        KernelConfig { lease_ns: 10 * MILLIS, ..KernelConfig::default() },
    );
    let a = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let b = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let c = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());

    let rt = SimRuntime::new(0xBEEF);
    rt.enable_race_detection();
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        write_file(&*a, "/rl", &vec![0x5Au8; 2 * 4096]).unwrap();
        a.release_path("/rl").unwrap();
        // A re-acquires the grant and stalls far past the 10ms lease.
        let stall = Arc::clone(&a);
        let staller = trio_sim::spawn("staller", move || {
            let fd = stall.open("/rl", OpenFlags::RDWR, Mode(0o666)).unwrap();
            stall.pwrite(fd, 0, &[0x11u8; 8]).unwrap();
            trio_sim::work(120 * MILLIS);
            let _ = stall.close(fd);
        });
        // B and C race each other (and the expiring lease) for the grant.
        let contender = |fs: Arc<ArckFs>, tag: u8| {
            move || {
                trio_sim::work(MILLIS);
                let fd = fs.open("/rl", OpenFlags::RDWR, Mode(0o666)).unwrap();
                fs.pwrite(fd, 4096 + tag as u64 * 64, &[tag; 64]).unwrap();
                fs.close(fd).unwrap();
                fs.release_path("/rl").unwrap();
            }
        };
        let hb = trio_sim::spawn("contender-b", contender(Arc::clone(&b), 1));
        let hc = trio_sim::spawn("contender-c", contender(Arc::clone(&c), 2));
        hb.join();
        hc.join();
        staller.join();
        // Exactly one revocation chain ran and both takeovers landed.
        let events = k.take_events();
        use trio_kernel::registry::KernelEvent as E;
        assert!(
            events.iter().any(|e| matches!(e, E::LeaseRevoked { .. })),
            "the stalled writer's lease must be revoked: {events:?}"
        );
        let got = read_file(&*b, "/rl").unwrap();
        assert!(got[4096 + 64..4096 + 128].iter().all(|&x| x == 1), "B's write survives");
        assert!(got[4096 + 128..4096 + 192].iter().all(|&x| x == 2), "C's write survives");
    });
    // The detector panics the whole run on any unsynchronized hand-off.
    let out = catch_unwind(AssertUnwindSafe(|| rt.run()));
    assert!(out.is_ok(), "lease hand-off raced under the detector");
}

// ---------------------------------------------------------------------
// Cooperative lease recall (DESIGN.md §21).
// ---------------------------------------------------------------------

/// However the grants changed hands, every page table holds exactly what
/// the books give its actor: no permission beyond them, and none of what
/// they give missing (which would cost a `Stale` fault and a re-map).
fn assert_mmu_within_books(kernel: &KernelController) {
    let audit = kernel.audit_mmu_against_books();
    assert!(audit.is_clean(), "page tables disagree with the books: {audit:?}");
}

/// Runs `holder` and `waiter` as two sim-threads (two processes), then
/// audits the page tables they leave behind.
fn run_pair(
    kernel: &KernelController,
    seed: u64,
    holder: impl FnOnce() + Send + 'static,
    waiter: impl FnOnce() + Send + 'static,
) {
    let rt = SimRuntime::new(seed);
    rt.spawn("holder", holder);
    rt.spawn("waiter", waiter);
    rt.run();
    assert_mmu_within_books(kernel);
}

/// A holds write grants on `/` and `/d` it is not using; its process is
/// busy elsewhere. B's readdir of `/d` recalls both and gets them within
/// microseconds — not after the 100 ms lease.
#[test]
fn idle_directory_grant_yields_to_a_reader_in_microseconds() {
    let (kernel, a, b) = world(100);
    let took = Arc::new(Mutex::new(0u64));
    let took2 = Arc::clone(&took);
    run_pair(
        &kernel,
        20,
        move || {
            a.mkdir("/d", Mode(0o777)).unwrap();
            // Through the kernel, not by construction: a real lease on `/d`.
            a.release_path("/d").unwrap();
            a.create("/d/f", Mode(0o666)).unwrap();
            a.mkdir("/private", Mode(0o777)).unwrap();
            for _ in 0..500 {
                a.stat("/private").unwrap(); // An op boundary every ~10 us.
                trio_sim::work(10_000);
            }
        },
        move || {
            trio_sim::work(MILLIS);
            let t0 = trio_sim::now();
            let names: Vec<String> = b.readdir("/d").unwrap().into_iter().map(|e| e.name).collect();
            *took2.lock() = trio_sim::now() - t0;
            assert_eq!(names, ["f"]);
        },
    );
    let took = *took.lock();
    assert!(took < MILLIS, "recall must hand `/` and `/d` over in < 1 ms, took {took} ns");
    let r = kernel.resilience_stats().snapshot();
    assert_eq!((r.recalls_posted, r.recalls_honoured, r.recalls_expired), (2, 2, 0));
    use trio_kernel::registry::KernelEvent as E;
    assert!(!kernel.take_events().iter().any(|e| matches!(e, E::LeaseRevoked { .. })));
}

/// The pin rule: a file grant an open descriptor is using is not yielded
/// at the op boundary but at the last `close`; and a holder that does not
/// close in time is revoked at lease expiry, neither sooner nor later.
#[test]
fn open_descriptor_pins_a_grant_until_close_or_expiry() {
    for never_close in [false, true] {
        let (kernel, a, b) = world(20);
        // (A's first pwrite: before, after), A's close, B's pwrite done.
        let times = Arc::new(Mutex::new([0u64; 4]));
        let (ta, tb, ka) = (Arc::clone(&times), Arc::clone(&times), Arc::clone(&kernel));
        run_pair(
            &kernel,
            21,
            move || {
                write_file(&*a, "/f", &vec![0u8; 8192]).unwrap();
                a.release_path("/f").unwrap();
                a.release_path("/").unwrap();
                let fd = a.open("/f", OpenFlags::RDWR, Mode(0o666)).unwrap();
                ta.lock()[0] = trio_sim::now();
                a.pwrite(fd, 0, b"A").unwrap();
                ta.lock()[1] = trio_sim::now();
                let until = if never_close { 40 * MILLIS } else { 5 * MILLIS };
                while trio_sim::now() < until {
                    a.pwrite(fd, 0, b"A").unwrap(); // Op boundaries galore.
                    trio_sim::work(10_000);
                }
                ta.lock()[2] = trio_sim::now();
                let releases = || {
                    let s = ka.path_stats().snapshot();
                    s.registry_lock_site(trio_nvm::RegistryLockSite::Release)
                };
                let before = releases();
                a.close(fd).unwrap();
                // The revoked holder took the file back with its next
                // pwrite: the recall that was parked on the old lease must
                // not make this close give the new one away.
                assert_eq!(releases() - before, if never_close { 0 } else { 1 });
            },
            move || {
                trio_sim::work(MILLIS);
                let fd = b.open("/f", OpenFlags::RDWR, Mode(0o666)).unwrap();
                b.pwrite(fd, 4096, b"B").unwrap();
                tb.lock()[3] = trio_sim::now();
                b.close(fd).unwrap();
            },
        );
        let [map0, map1, closed, b_done] = *times.lock();
        let r = kernel.resilience_stats().snapshot();
        use trio_kernel::registry::KernelEvent as E;
        let revoked = kernel.take_events().iter().any(|e| matches!(e, E::LeaseRevoked { .. }));
        if never_close {
            // The lease began somewhere inside A's first pwrite.
            assert!(b_done >= map0 + 20 * MILLIS, "revoked before expiry: {b_done}");
            assert!(b_done < map1 + 21 * MILLIS, "revoked long after expiry: {b_done}");
            assert!(revoked);
            assert_eq!(r.recalls_expired, 1);
        } else {
            assert!(b_done >= closed, "yielded while pinned: B done {b_done}, A closed {closed}");
            assert!(b_done < closed + MILLIS, "not yielded at close: {b_done} vs {closed}");
            assert!(!revoked);
            assert_eq!((r.recalls_honoured, r.recalls_expired), (1, 0));
            assert_eq!(r.recalls_posted, 1);
        }
    }
}

/// A hostile (or merely old) LibFS that never looks at its recall page —
/// driven here through the raw kernel API — gains nothing and costs the
/// waiter exactly what it cost before recall existed: the rest of the lease.
#[test]
fn holder_that_ignores_the_recall_is_revoked_at_expiry() {
    use trio_kernel::mapping::MapTarget;
    let (kernel, _, b) = world(30);
    let (k1, k2) = (Arc::clone(&kernel), Arc::clone(&kernel));
    let lease = Arc::new(Mutex::new(0u64));
    let lease2 = Arc::clone(&lease);
    run_pair(
        &kernel,
        22,
        move || {
            let h = k1.register_libfs(1000, 1000);
            *lease2.lock() = k1.map(h.actor, MapTarget::Root, true).unwrap().lease_until;
            trio_sim::work(2 * MILLIS);
            assert!(h.recall.pending(), "the recall was posted");
            trio_sim::work(60 * MILLIS); // Never yields.
            assert!(!h.recall.pending(), "and withdrawn when the lease ended");
        },
        move || {
            trio_sim::work(MILLIS);
            b.readdir("/").unwrap();
            let (now, lease) = (trio_sim::now(), *lease.lock());
            assert!(now >= lease, "woke before expiry: {now} < {lease}");
            assert!(now < lease + MILLIS, "woke long after expiry: {now} vs {lease}");
            use trio_kernel::registry::KernelEvent as E;
            assert!(k2.take_events().iter().any(|e| matches!(e, E::LeaseRevoked { .. })));
        },
    );
    let r = kernel.resilience_stats().snapshot();
    assert_eq!((r.recalls_posted, r.recalls_honoured, r.recalls_expired), (1, 0, 1));
}

/// The permission check comes first: a LibFS that may not map the file
/// cannot make its holder yield (or even learn that anyone asked).
#[test]
fn mapper_without_permission_posts_no_recall() {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(dev, KernelConfig::default());
    let alice = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let eve = ArckFs::mount(Arc::clone(&kernel), 2000, 2000, ArckFsConfig::no_delegation());
    run_pair(
        &kernel,
        23,
        move || {
            write_file(&*alice, "/secret", b"alice only").unwrap(); // Mode 0600.
            alice.release_path("/").unwrap();
            alice.release_path("/secret").unwrap();
            let fd = alice.open("/secret", OpenFlags::RDWR, Mode::empty()).unwrap();
            alice.pwrite(fd, 0, b"ALICE").unwrap(); // Write grant, pinned.
            trio_sim::work(5 * MILLIS);
            alice.close(fd).unwrap();
        },
        move || {
            trio_sim::work(MILLIS);
            let fd = eve.open("/secret", OpenFlags::RDONLY, Mode::empty()).unwrap();
            let t0 = trio_sim::now();
            let mut buf = [0u8; 16];
            assert_eq!(eve.pread(fd, 0, &mut buf).err(), Some(FsError::PermissionDenied));
            assert!(trio_sim::now() - t0 < MILLIS / 10, "refused at once, not after a wait");
            eve.close(fd).unwrap();
        },
    );
    assert_eq!(kernel.resilience_stats().snapshot().recalls_posted, 0);
}

/// PR 11's recipe for the retry that was not idempotent: a *prefilled*
/// directory whose own dirent (and so its size field) lives in a root
/// page, and the root handed to another mount between the tenant's calls.
/// Each call then publishes its entry, faults on the size update, remaps —
/// and must finish, not run again (`create` used to return `Exists`,
/// `unlink` and `rename` `NotFound`).
#[test]
fn dir_ops_survive_a_root_handover_in_mid_script() {
    let (kernel, a, b) = world(2);
    let rt = SimRuntime::new(24);
    rt.spawn("t", move || {
        let mut model = std::collections::BTreeSet::new();
        a.mkdir("/ta", Mode(0o777)).unwrap();
        a.mkdir("/ta/sub", Mode(0o777)).unwrap();
        model.insert("sub".to_string());
        for i in 0..20 {
            a.create(&format!("/ta/f{i}"), Mode(0o666)).unwrap();
            model.insert(format!("f{i}"));
        }
        for i in 0..5 {
            // Hand the root to B; A's next call waits out B's (2 ms) lease,
            // and the verification of `/` strips A of the page its `/ta`
            // dirent lives in.
            a.release_path("/").unwrap();
            b.create(&format!("/b{i}"), Mode(0o666)).unwrap();
            match i {
                0 => {
                    a.create("/ta/new", Mode(0o666)).unwrap();
                    model.insert("new".into());
                }
                1 => {
                    a.unlink("/ta/f0").unwrap();
                    model.remove("f0");
                }
                2 => {
                    a.rename("/ta/f1", "/ta/g1").unwrap();
                    model.remove("f1");
                    model.insert("g1".into());
                }
                3 => {
                    a.rename("/ta/f2", "/ta/sub/f2").unwrap();
                    model.remove("f2");
                }
                _ => {
                    a.rename("/ta/sub/f2", "/ta/h2").unwrap();
                    model.insert("h2".into());
                }
            }
        }
        let want: Vec<String> = model.into_iter().collect();
        let names = |fs: &ArckFs, p: &str| -> Vec<String> {
            fs.readdir(p).unwrap().into_iter().map(|e| e.name).collect()
        };
        assert_eq!(names(&a, "/ta"), want);
        assert_eq!(a.stat("/ta").unwrap().size, want.len() as u64);
        assert_eq!(a.stat("/ta/sub").unwrap().size, 0);
        // B's view goes through the kernel's verification of `/ta`.
        a.release_path("/ta").unwrap();
        a.release_path("/ta/sub").unwrap();
        assert_eq!(names(&b, "/ta"), want);
        assert!(names(&b, "/ta/sub").is_empty());
    });
    rt.run();
    assert_mmu_within_books(&kernel);
}

/// A recall must not pull a directory from under the holder's *own*
/// sibling threads: mount A runs three threads creating and unlinking in
/// `/shared` while mount B creates there too, so every recall reaches A
/// with ops in flight on the directory. An honest multi-threaded LibFS is
/// never flagged: no kernel event at all, no failed op, and the tree is
/// the model.
#[test]
fn recall_waits_for_the_holders_sibling_threads() {
    for seed in 25..29 {
        // (No race detector: `map` identifies the file by reading its
        // dirent before it looks at the lease, on the very cache line the
        // holder's size updates go to.)
        let (kernel, a, b) = world(100);
        let rt = SimRuntime::new(seed);
        rt.spawn("main", move || {
            a.mkdir("/shared", Mode(0o777)).unwrap();
            let b_done = Arc::new(Mutex::new(false));
            let left = Arc::new(Mutex::new(Vec::new()));
            let mut hs = Vec::new();
            for t in 0..3 {
                let (fs, b_done, left) = (Arc::clone(&a), Arc::clone(&b_done), Arc::clone(&left));
                hs.push(trio_sim::spawn("a", move || {
                    // Create k, unlink k-1: a{t}_{last} is what stays.
                    let mut k = 0;
                    while k < 8 || !*b_done.lock() {
                        fs.create(&format!("/shared/a{t}_{k}"), Mode(0o666)).unwrap();
                        if k > 0 {
                            fs.unlink(&format!("/shared/a{t}_{}", k - 1)).unwrap();
                        }
                        k += 1;
                    }
                    left.lock().push(format!("a{t}_{}", k - 1));
                }));
            }
            let fb = Arc::clone(&b);
            hs.push(trio_sim::spawn("b", move || {
                for k in 0..40 {
                    fb.create(&format!("/shared/b{k}"), Mode(0o666)).unwrap();
                }
                fb.release_path("/shared").unwrap();
                *b_done.lock() = true;
            }));
            for h in hs {
                h.join();
            }
            let mut want: Vec<String> = std::mem::take(&mut *left.lock());
            want.extend((0..40).map(|k| format!("b{k}")));
            want.sort();
            for fs in [&a, &b] {
                let names: Vec<String> =
                    fs.readdir("/shared").unwrap().into_iter().map(|e| e.name).collect();
                assert_eq!(names, want);
                assert_eq!(fs.stat("/shared").unwrap().size, want.len() as u64);
                fs.release_path("/shared").unwrap();
            }
        });
        rt.run();
        assert_mmu_within_books(&kernel);
        let events = kernel.take_events();
        assert!(events.is_empty(), "seed {seed}: {events:?}");
        let r = kernel.resilience_stats().snapshot();
        assert_eq!(r.total_violations(), 0);
        assert!(r.recalls_honoured >= 40 && r.recalls_expired == 0, "seed {seed}: {r:?}");
    }
}

/// A LibFS that goes quiet on a directory lease is revoked at expiry in
/// whatever state it left — and that state must verify. Unlinks of
/// children the kernel knows are therefore reclaimed at once, not left in
/// the LibFS's batch: revoked with one pending, the directory used to fail
/// verification (child gone, its ino still in use) and the honest LibFS
/// was rolled back and quarantined.
#[test]
fn idle_holder_revoked_after_an_unlink_is_not_flagged() {
    let (kernel, a, b) = world(5);
    let rt = SimRuntime::new(27);
    let k = Arc::clone(&kernel);
    rt.spawn("t", move || {
        a.mkdir("/shared", Mode(0o777)).unwrap();
        for i in 0..4 {
            a.create(&format!("/shared/f{i}"), Mode(0o666)).unwrap();
        }
        a.release_path("/shared").unwrap();
        a.release_path("/").unwrap();
        // B's map verifies `/shared`: the kernel now knows f0..f3.
        b.create("/shared/b0", Mode(0o666)).unwrap();
        b.release_path("/shared").unwrap();
        a.unlink("/shared/f0").unwrap();
        a.create("/shared/new", Mode(0o666)).unwrap();
        a.unlink("/shared/new").unwrap(); // Never seen by the kernel: batched.
        // A says no more (one thread drives both mounts, so it cannot
        // honour the recall either): B sits out the lease.
        b.create("/shared/b1", Mode(0o666)).unwrap();
        let names: Vec<String> =
            b.readdir("/shared").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["b0", "b1", "f1", "f2", "f3"]);
        use trio_kernel::registry::KernelEvent as E;
        let events = k.take_events();
        assert!(matches!(events[..], [E::LeaseRevoked { .. }]), "{events:?}");
    });
    rt.run();
    assert_mmu_within_books(&kernel);
    assert_eq!(kernel.resilience_stats().snapshot().total_violations(), 0);
}

/// [`idle_holder_revoked_after_an_unlink_is_not_flagged`] with a batched
/// unlink of a file that has pages: `/shared/new` holds 1 KiB when A
/// unlinks it, so its chain waits in A's batch through the revocation at
/// expiry. The directory still verifies, A's page tables stay within the
/// books, and the flush that comes later hands the chain to A's pool
/// without the kernel gaining or losing a frame.
#[test]
fn idle_holder_revoked_after_a_small_file_unlink_is_not_flagged() {
    let (kernel, a, b) = world(5);
    let rt = SimRuntime::new(27);
    let k = Arc::clone(&kernel);
    rt.spawn("t", move || {
        a.mkdir("/shared", Mode(0o777)).unwrap();
        for i in 0..4 {
            a.create(&format!("/shared/f{i}"), Mode(0o666)).unwrap();
        }
        a.release_path("/shared").unwrap();
        a.release_path("/").unwrap();
        b.create("/shared/b0", Mode(0o666)).unwrap();
        b.release_path("/shared").unwrap();
        a.unlink("/shared/f0").unwrap();
        write_file(&*a, "/shared/new", &[7u8; 1024]).unwrap();
        let (_, index, data) = a.debug_file_pages("/shared/new").unwrap();
        let chain: Vec<PageId> = index.into_iter().chain(data.into_iter().flatten()).collect();
        a.unlink("/shared/new").unwrap(); // Never seen by the kernel: batched.
        assert!(chain.iter().all(|p| !a.debug_pool_holds(*p)), "reclaimed at the unlink");
        b.create("/shared/b1", Mode(0o666)).unwrap();
        let names: Vec<String> =
            b.readdir("/shared").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["b0", "b1", "f1", "f2", "f3"]);
        use trio_kernel::registry::KernelEvent as E;
        let events = k.take_events();
        assert!(matches!(events[..], [E::LeaseRevoked { .. }]), "{events:?}");
        assert_eq!(k.resilience_stats().snapshot().total_violations(), 0);
        assert_mmu_within_books(&k);

        let idle = |k: &KernelController| {
            k.free_page_count()
                + k.cached_page_count()
                + k.limbo_page_count()
                + k.deferred_page_count()
                + k.retired_page_count()
        };
        let before = idle(&k);
        a.release_path("/").unwrap();
        assert_eq!(idle(&k), before, "the flush moved frames to or from the kernel");
        let dev = k.device();
        for p in &chain {
            assert!(a.debug_pool_holds(*p), "{p:?} not back in A's pool");
            assert_eq!(dev.mmu_perm(a.actor(), *p).unwrap(), Some(PagePerm::Write));
        }
    });
    rt.run();
    assert_mmu_within_books(&kernel);
    assert_eq!(kernel.resilience_stats().snapshot().total_violations(), 0);
}

// ---------------------------------------------------------------------
// Re-map without rebuild (DESIGN.md §22): aux state kept across a
// voluntary release is reused exactly when the kernel certifies that the
// core state was in nobody else's hands. (Every reuse in these — and in
// every other debug-build test — is also cross-checked against an untimed
// rebuild from core state inside `ensure_mapped`.)
// ---------------------------------------------------------------------

/// What a LibFS pays for the root when a verification of its writes fails:
/// quarantine revokes every PTE it has (`revoke_all`) and ends every grant,
/// the root's too, so its next path lookup faults (`Stale`) and reads the
/// root's one page again. A verification that passes, or a grant that ends,
/// leaves it what its read grant on the root allows
/// (`stale_fault_discards_the_aux`, `child_release_leaves_the_parent_mapped`).
const QUARANTINE_ROOT_REREAD: u64 = 1;

/// `(aux_reuses, aux_rebuilds)` so far.
fn aux_counts(kernel: &KernelController) -> (u64, u64) {
    let s = kernel.path_stats().snapshot();
    (s.aux_reuses, s.aux_rebuilds)
}

/// A's world for the reuse tests: `/d` with 40 entries, adopted by the
/// kernel, A's aux for it built from core state once and then given back
/// — as is the root, so that B can look `/d` up without waiting for A.
fn reuse_world(lease_ms: u64) -> (Arc<KernelController>, Arc<ArckFs>, Arc<ArckFs>) {
    let (kernel, a, b) = world(lease_ms);
    a.mkdir("/d", Mode(0o777)).unwrap();
    for i in 0..40 {
        a.create(&format!("/d/f{i}"), Mode(0o666)).unwrap();
    }
    // By construction so far: nothing at the kernel to release or retain.
    a.release_path("/d").unwrap();
    assert_eq!(a.readdir("/d").unwrap().len(), 40);
    a.release_path("/d").unwrap();
    a.release_path("/").unwrap();
    assert!(a.take_rebuild_ns() > 0, "the first map of `/d` read its pages");
    (kernel, a, b)
}

fn names(fs: &ArckFs, path: &str) -> Vec<String> {
    fs.readdir(path).unwrap().into_iter().map(|e| e.name).collect()
}

#[test]
fn own_release_then_remap_reuses_the_aux() {
    let rt = SimRuntime::new(30);
    rt.spawn("t", || {
        let (kernel, a, _b) = reuse_world(100);
        let before = aux_counts(&kernel);
        // Write re-map of `/d` (and a read re-map of `/`): nothing rebuilt,
        // not one timed directory-page read.
        a.create("/d/new", Mode(0o666)).unwrap();
        assert_eq!(a.take_rebuild_ns(), 0);
        assert_eq!(aux_counts(&kernel), (before.0 + 2, before.1));
        // The kept table is the live one: it serves lookups, takes the new
        // entry, and survives any number of further round trips — each a
        // read re-map and an upgrade of `/d`, both reusing.
        for round in 0..3 {
            a.release_path("/d").unwrap();
            assert_eq!(a.readdir("/d").unwrap().len(), 41 + round);
            a.create(&format!("/d/r{round}"), Mode(0o666)).unwrap();
        }
        a.unlink("/d/new").unwrap();
        assert!(a.stat("/d/f7").is_ok() && a.stat("/d/new").is_err());
        assert_eq!(aux_counts(&kernel), (before.0 + 2 + 3 * 2, before.1));
        // Not one page read again: neither `/d`'s three nor the root's one.
        assert_eq!(a.take_rebuild_ns(), 0);
    });
    rt.run();
}

#[test]
fn foreign_writer_in_between_rebuilds() {
    let rt = SimRuntime::new(31);
    rt.spawn("t", || {
        let (kernel, a, b) = reuse_world(100);
        b.create("/d/from-b", Mode(0o666)).unwrap();
        b.release_path("/d").unwrap();
        let _ = b.take_rebuild_ns();
        let before = aux_counts(&kernel);
        a.create("/d/from-a", Mode(0o666)).unwrap();
        assert!(a.take_rebuild_ns() > 0, "B wrote `/d`: A must read it again");
        // And `/`: B's write grant on `/d` made the root page holding
        // `/d`'s dirent writable to B.
        assert_eq!(aux_counts(&kernel), (before.0, before.1 + 2));
        assert!(names(&a, "/d").contains(&"from-b".to_string()));
    });
    rt.run();
}

/// A reader in between leaves the core state alone (its map verifies A's
/// writes, which pass): A reuses. The kernel has learnt A's entries by
/// then, so none of them is "fresh" any more: unlinking one reclaims it at
/// once, and A — revoked idle at lease expiry right after — verifies clean.
#[test]
fn foreign_reader_in_between_reuses() {
    let (kernel, a, b) = world(5);
    let rt = SimRuntime::new(32);
    let k = Arc::clone(&kernel);
    rt.spawn("t", move || {
        a.mkdir("/d", Mode(0o777)).unwrap();
        a.create("/d/keep", Mode(0o666)).unwrap();
        a.release_path("/d").unwrap();
        a.create("/d/young", Mode(0o666)).unwrap(); // Linked under a kernel grant.
        a.release_path("/d").unwrap();
        a.release_path("/").unwrap();
        assert_eq!(names(&b, "/d"), ["keep", "young"]);
        b.release_path("/d").unwrap();
        let _ = (a.take_rebuild_ns(), k.take_events());
        let before = aux_counts(&k);
        a.unlink("/d/young").unwrap();
        assert_eq!(a.take_rebuild_ns(), 0);
        assert_eq!(aux_counts(&k), (before.0 + 2, before.1));
        // A goes quiet on its lease; B's map revokes it and verifies `/d`.
        assert_eq!(names(&b, "/d"), ["keep"]);
        use trio_kernel::registry::KernelEvent as E;
        let events = k.take_events();
        assert!(matches!(events[..], [E::LeaseRevoked { .. }]), "{events:?}");
    });
    rt.run();
    assert_mmu_within_books(&kernel);
    assert_eq!(kernel.resilience_stats().snapshot().total_violations(), 0);
}

#[test]
fn rollback_in_between_rebuilds() {
    let rt = SimRuntime::new(33);
    rt.spawn("t", || {
        let (kernel, a, b) = reuse_world(100);
        // B's read verifies and checkpoints `/d`; A then takes it for
        // write (a second checkpoint, of the same verified state), links
        // `/d/late`, fabricates an entry behind its own aux and lets go.
        assert_eq!(b.readdir("/d").unwrap().len(), 40);
        b.release_path("/d").unwrap();
        a.create("/d/late", Mode(0o666)).unwrap();
        let (_, _, data) = a.debug_file_pages("/d").unwrap();
        let slot = trio_layout::DirPage::load(a.handle(), data[2].unwrap())
            .unwrap()
            .first_free()
            .expect("40 + 1 entries leave the third page free slots");
        let ghost = trio_layout::DirentData::new(
            b"ghost",
            trio_layout::CoreFileType::Regular,
            Mode::RW,
            1000,
            1000,
        );
        let r = trio_layout::DirentRef::new(a.handle(), slot);
        let w = r.prepare(&ghost).unwrap();
        r.publish(999_999, &w).unwrap();
        a.release_path("/d").unwrap();
        // B's map fails verification; the kernel rolls `/d` back.
        assert_eq!(b.readdir("/d").unwrap().len(), 40);
        b.release_path("/d").unwrap();
        use trio_kernel::registry::KernelEvent as E;
        assert!(kernel.take_events().iter().any(|e| matches!(e, E::RolledBack { .. })));
        let _ = a.take_rebuild_ns();
        let before = aux_counts(&kernel).1;
        // A's kept table still lists `late`; the core state does not.
        assert!(!names(&a, "/d").contains(&"late".to_string()));
        assert!(a.take_rebuild_ns() > 0);
        assert_eq!(aux_counts(&kernel).1, before + 1 + QUARANTINE_ROOT_REREAD);
    });
    rt.run();
}

/// The patrol moves one data page of a quiescent file to a fresh frame
/// (the kernel migrates regular-file data pages only): the owner's kept
/// page index names the retired frame and must not be reused.
#[test]
fn page_migration_in_between_rebuilds() {
    let rt = SimRuntime::new(34);
    rt.spawn("t", || {
        let (kernel, a, b) = world(100);
        let dev = Arc::clone(kernel.device());
        let pages = dev.topology().total_pages() as usize;
        write_file(&*a, "/m", &vec![0x3Eu8; 2 * 4096]).unwrap();
        a.release_path("/m").unwrap();
        a.release_path("/").unwrap();
        // Verified `InFile` pages are what the kernel may move.
        assert_eq!(read_file(&*b, "/m").unwrap().len(), 2 * 4096);
        let (_, _, data) = a.debug_file_pages("/m").unwrap();
        let victim = data[1].unwrap();
        let fd = a.open("/m", OpenFlags::RDWR, Mode(0o666)).unwrap();
        for _ in 0..3 {
            dev.poison_line(victim, 2);
            kernel.scrub_pass(pages);
            assert_eq!(a.pwrite(fd, 4096 + 2 * 64, &[0x3E; 64]).unwrap(), 64);
        }
        a.close(fd).unwrap();
        a.release_path("/m").unwrap();
        assert!(kernel.scrub_pass(pages).migrated >= 1);
        let before = aux_counts(&kernel).1;
        let back = read_file(&*a, "/m").unwrap();
        assert!(back.len() == 2 * 4096 && back.iter().all(|&x| x == 0x3E));
        assert_eq!(aux_counts(&kernel).1, before + 1);
        assert_ne!(a.debug_file_pages("/m").unwrap().2[1], Some(victim));
    });
    rt.run();
}

/// A reader whose grant a writer took back learns it from its next
/// listing, not from a later lookup: the listing's probe faults (`Stale`),
/// the reader re-maps and lists the writer's entry, not the table it built
/// before.
#[test]
fn revoked_reader_lists_the_writers_new_entry() {
    let rt = SimRuntime::new(36);
    rt.spawn("t", || {
        let (kernel, a, b) = reuse_world(100);
        assert_eq!(b.readdir("/d").unwrap().len(), 40); // B holds `/d` for read.
        a.create("/d/from-a", Mode(0o666)).unwrap(); // A's write grant revokes it.
        a.release_path("/d").unwrap();
        let before = aux_counts(&kernel).1;
        let listed = names(&b, "/d");
        assert!(listed.contains(&"from-a".to_string()), "listed the old aux: {listed:?}");
        assert_eq!(listed.len(), 41);
        assert_eq!(aux_counts(&kernel).1, before + 1, "`/d` rebuilt, once");
        assert_mmu_within_books(&kernel);
    });
    rt.run();
}

/// A grant that ends under the holder — here at lease expiry, to a mere
/// reader, so the sequence would still match — takes the aux with it: the
/// `Stale` fault drops everything, as it always has. The root is not
/// re-read: B's verification of it (`/d`'s dirent page was A's to write)
/// leaves A what its read grant on the root allows.
#[test]
fn stale_fault_discards_the_aux() {
    let rt = SimRuntime::new(35);
    rt.spawn("t", || {
        let (kernel, a, b) = reuse_world(5);
        a.create("/d/held", Mode(0o666)).unwrap(); // A holds `/d` for write, idle.
        assert_eq!(b.readdir("/d").unwrap().len(), 41); // Waits the lease out.
        b.release_path("/d").unwrap();
        let _ = a.take_rebuild_ns();
        let before = aux_counts(&kernel);
        a.create("/d/after", Mode(0o666)).unwrap();
        assert!(a.take_rebuild_ns() > 5_000, "`/d`'s three pages");
        assert_eq!(aux_counts(&kernel), (before.0, before.1 + 1));
        assert_mmu_within_books(&kernel);
    });
    rt.run();
}

#[test]
fn read_to_write_upgrade_reuses() {
    let rt = SimRuntime::new(36);
    rt.spawn("t", || {
        let (kernel, a, b) = reuse_world(100);
        // B reads first, from scratch; then upgrades to write with nobody
        // in between: the table it has just built stays.
        assert_eq!(b.readdir("/d").unwrap().len(), 40);
        let _ = b.take_rebuild_ns();
        let before = aux_counts(&kernel);
        b.create("/d/up", Mode(0o666)).unwrap();
        assert_eq!(b.take_rebuild_ns(), 0);
        assert_eq!(aux_counts(&kernel), (before.0 + 1, before.1));
        // So does A's, across its own read re-map and upgrade — until it
        // meets B's write.
        b.release_path("/d").unwrap();
        assert_eq!(a.readdir("/d").unwrap().len(), 41);
        assert!(a.take_rebuild_ns() > 0);
        let before = aux_counts(&kernel);
        a.create("/d/up-a", Mode(0o666)).unwrap();
        assert_eq!(a.take_rebuild_ns(), 0);
        assert_eq!(aux_counts(&kernel), (before.0 + 1, before.1));
    });
    rt.run();
}

/// ROADMAP 1(d): giving back the write grant on `/d` used to unmap the root
/// page that holds `/d`'s dirent from the releaser — which still held its
/// read grant on the root, faulted on its next lookup, and mapped and read
/// the root again. The page now falls back to what that grant allows; and
/// giving back the root too leaves it there (lazy release, DESIGN.md §9)
/// until somebody else needs the root.
#[test]
fn child_release_leaves_the_parent_mapped() {
    use trio_nvm::{PagePerm, RegistryLockSite};
    let rt = SimRuntime::new(37);
    rt.spawn("t", || {
        let (kernel, a, b) = reuse_world(100);
        a.create("/d/x", Mode(0o666)).unwrap(); // Reads `/`, writes `/d`.
        let page = a.debug_file_pages("/d").unwrap().0.unwrap().page;
        let perm = || kernel.device().mmu_perm(a.actor(), page).unwrap();
        assert_eq!(perm(), Some(PagePerm::Write), "`/d`'s dirent is its writer's to update");
        a.release_path("/d").unwrap();
        assert_eq!(perm(), Some(PagePerm::Read), "the read grant on `/` still covers the page");
        let maps = || kernel.path_stats().snapshot().registry_lock_site(RegistryLockSite::Map);
        let (before, _) = (maps(), a.take_rebuild_ns());
        assert_eq!(a.stat("/d").unwrap().size, 41, "a lookup under `/`, through that page");
        assert_eq!((maps(), a.take_rebuild_ns()), (before, 0), "no fault, no re-map, no re-read");
        a.release_path("/").unwrap();
        assert_eq!(perm(), Some(PagePerm::Read), "a released grant keeps its PTEs");
        // The root is dirty by A all the same: B's write grant ends A's
        // released one and vets the root.
        b.create("/from-b", Mode(0o666)).unwrap();
        assert_eq!(perm(), None);
        assert_mmu_within_books(&kernel);
    });
    rt.run();
}

// ---------------------------------------------------------------------
// One rule for every PTE (DESIGN.md §20): an actor's permission on a page
// is the most its grants in the books allow there, so a page two of its
// grants cover keeps what the other allows when one goes.
// ---------------------------------------------------------------------

/// `share2`'s shape: the dirents of `/f` and `/d` share a root page, and A
/// gives `/d` back while it holds `/f` for write. The page stays writable
/// to A under `/f`'s grant; it used to fall back to A's read grant on the
/// root, and A's next store to `/f`'s dirent faulted.
#[test]
fn releasing_a_sibling_keeps_the_shared_dirent_page_writable() {
    use trio_nvm::PagePerm;
    let (kernel, a, _) = world(100);
    let k = Arc::clone(&kernel);
    let rt = SimRuntime::new(40);
    rt.spawn("t", move || {
        write_file(&*a, "/f", b"sibling").unwrap();
        a.mkdir("/d", Mode(0o777)).unwrap();
        for i in 0..3 {
            a.create(&format!("/d/e{i}"), Mode(0o666)).unwrap();
        }
        a.release_path("/f").unwrap();
        a.release_path("/d").unwrap();
        let fd = a.open("/f", OpenFlags::RDWR, Mode(0o666)).unwrap();
        a.pwrite(fd, 0, b"S").unwrap();
        a.create("/d/x", Mode(0o666)).unwrap();
        a.release_path("/d").unwrap();
        let page = a.debug_file_pages("/f").unwrap().0.unwrap().page;
        assert_eq!(a.debug_file_pages("/d").unwrap().0.unwrap().page, page, "one root page");
        assert_eq!(k.device().mmu_perm(a.actor(), page).unwrap(), Some(PagePerm::Write));
        a.close(fd).unwrap();
    });
    rt.run();
    assert_mmu_within_books(&kernel);
}

/// A released directory, then a live child: A gives `/d` back and then
/// write-maps `/d/c`, whose dirent page both grants cover. B's listing of
/// `/d` ends the released grant; the page stays writable to A under the
/// live one.
#[test]
fn ending_a_released_directory_keeps_a_live_childs_dirent_page() {
    use trio_nvm::PagePerm;
    let (kernel, a, b) = world(100);
    let k = Arc::clone(&kernel);
    let rt = SimRuntime::new(41);
    rt.spawn("t", move || {
        a.mkdir("/d", Mode(0o777)).unwrap();
        write_file(&*a, "/d/c", b"child").unwrap();
        for p in ["/d/c", "/d", "/"] {
            a.release_path(p).unwrap();
        }
        assert_eq!(read_file(&*b, "/d/c").unwrap(), b"child");
        b.release_path("/d").unwrap();
        a.create("/d/y", Mode(0o666)).unwrap();
        a.release_path("/d").unwrap();
        let fd = a.open("/d/c", OpenFlags::RDWR, Mode(0o666)).unwrap();
        a.pwrite(fd, 0, b"C").unwrap();
        let page = a.debug_file_pages("/d/c").unwrap().0.unwrap().page;
        assert_eq!(names(&b, "/d"), ["c", "y"]);
        assert_eq!(k.device().mmu_perm(a.actor(), page).unwrap(), Some(PagePerm::Write));
        a.close(fd).unwrap();
    });
    rt.run();
    assert_mmu_within_books(&kernel);
}

/// DESIGN.md §9 "Dirent-page write sharing": the dirents of `/p/x` and
/// `/p/y` share a page of `/p`, and A and B hold the two files for write at
/// once. The page is writable to both, so each sees the other's slot (and
/// could overwrite it), and neither's PTE goes when the other lets go. What
/// a reader of `/p` may not see is what a sibling stored there unvetted:
/// A's release marks `/p` dirty by A, R's map verifies `/p` first, and the
/// entry A forged in a free slot of the shared page is rolled back.
#[test]
fn sibling_writers_share_a_dirent_page_and_a_reader_sees_it_vetted() {
    use trio_kernel::registry::KernelEvent as E;
    use trio_nvm::PagePerm;
    let (kernel, a, b) = world(100);
    let r = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let k = Arc::clone(&kernel);
    let rt = SimRuntime::new(42);
    rt.spawn("t", move || {
        a.mkdir("/p", Mode(0o777)).unwrap();
        write_file(&*a, "/p/x", b"x").unwrap();
        write_file(&*a, "/p/y", b"y").unwrap();
        for p in ["/p/x", "/p/y", "/p", "/"] {
            a.release_path(p).unwrap();
        }
        assert_eq!(names(&r, "/p"), ["x", "y"]); // Vets and checkpoints `/p`.
        r.release_path("/p").unwrap();
        let fa = a.open("/p/x", OpenFlags::RDWR, Mode(0o666)).unwrap();
        a.pwrite(fa, 0, b"A").unwrap();
        let fb = b.open("/p/y", OpenFlags::RDWR, Mode(0o666)).unwrap();
        b.pwrite(fb, 0, b"B").unwrap();
        let x = a.debug_file_pages("/p/x").unwrap().0.unwrap();
        let y = b.debug_file_pages("/p/y").unwrap().0.unwrap();
        assert_eq!(x.page, y.page, "one page of `/p`");
        let perm = |fs: &ArckFs| k.device().mmu_perm(fs.actor(), x.page).unwrap();
        assert_eq!((perm(&a), perm(&b)), (Some(PagePerm::Write), Some(PagePerm::Write)));
        let y_ino = b.stat("/p/y").unwrap().ino;
        assert_eq!(trio_layout::DirentRef::new(a.handle(), y).ino().unwrap(), y_ino);

        // A forges an entry beside the two and lets go of `x`.
        let slot = trio_layout::DirPage::load(a.handle(), x.page).unwrap().first_free().unwrap();
        let ghost = trio_layout::DirentData::new(
            b"ghost",
            trio_layout::CoreFileType::Regular,
            Mode::RW,
            1000,
            1000,
        );
        let g = trio_layout::DirentRef::new(a.handle(), slot);
        g.publish(999_999, &g.prepare(&ghost).unwrap()).unwrap();
        a.close(fa).unwrap();
        a.release_path("/p/x").unwrap();
        assert_eq!(perm(&b), Some(PagePerm::Write), "A's release leaves B its page");

        let _ = k.take_events();
        assert_eq!(names(&r, "/p"), ["x", "y"]);
        let events = k.take_events();
        let p_ino = r.stat("/p").unwrap().ino;
        assert!(events.contains(&E::RolledBack { ino: p_ino }), "{events:?}");
        let a_contained = |e: &E| matches!(e, E::Quarantined { actor, .. } if *actor == a.actor());
        assert!(events.iter().any(a_contained), "{events:?}");
        assert_eq!(perm(&b), Some(PagePerm::Write), "and so do the rollback and quarantine");
        b.close(fb).unwrap();
    });
    rt.run();
    assert_mmu_within_books(&kernel);
}

// ---------------------------------------------------------------------
// Lazy release (DESIGN.md §9): `release` ends the holder's claim, not the
// grant; the PTEs go when somebody else needs the file.
// ---------------------------------------------------------------------

/// Race detection on `kernel`'s device and on `rt`.
fn race_detected(kernel: &KernelController, seed: u64) -> SimRuntime {
    assert!(kernel.device().set_race_detector(Arc::new(trio_sim::RaceDetector::new())));
    let rt = SimRuntime::new(seed);
    rt.enable_race_detection();
    rt
}

/// A released writer keeps its PTEs, so it can still store — here it
/// fabricates an entry in `/d` after giving `/d` back. The dirt its release
/// left covers that window: B's map ends the grant, verification catches
/// the ghost, the kernel rolls `/d` back and quarantines A.
#[test]
fn store_after_release_is_caught_when_the_grant_goes() {
    use trio_kernel::registry::KernelEvent as E;
    use trio_nvm::PagePerm;
    let (kernel, a, b) = world(100);
    let rt = race_detected(&kernel, 38);
    let k = Arc::clone(&kernel);
    rt.spawn("t", move || {
        a.mkdir("/d", Mode(0o777)).unwrap();
        a.create("/d/keep", Mode(0o666)).unwrap();
        a.release_path("/").unwrap();
        // B vets and checkpoints `/d`; A takes it for write through the
        // kernel, links `late`, and lets go.
        assert_eq!(names(&b, "/d"), ["keep"]);
        b.release_path("/d").unwrap();
        a.create("/d/late", Mode(0o666)).unwrap();
        let (_, _, data) = a.debug_file_pages("/d").unwrap();
        let page = data[0].unwrap();
        a.release_path("/d").unwrap();
        assert_eq!(k.device().mmu_perm(a.actor(), page).unwrap(), Some(PagePerm::Write));
        let slot = trio_layout::DirPage::load(a.handle(), page).unwrap().first_free().unwrap();
        let ghost = trio_layout::DirentData::new(
            b"ghost",
            trio_layout::CoreFileType::Regular,
            Mode::RW,
            1000,
            1000,
        );
        let r = trio_layout::DirentRef::new(a.handle(), slot);
        r.publish(999_999, &r.prepare(&ghost).unwrap()).unwrap();
        let _ = k.take_events();

        // B's map ends A's released grant, then verifies `/d`: back to the
        // checkpoint A's write grant took, before `late` and the ghost.
        assert_eq!(names(&b, "/d"), ["keep"]);
        let events = k.take_events();
        let a_contained = |e: &E| matches!(e, E::Quarantined { actor, .. } if *actor == a.actor());
        assert!(
            events.iter().any(|e| matches!(e, E::CorruptionDetected { .. }))
                && events.iter().any(|e| matches!(e, E::RolledBack { .. }))
                && events.iter().any(a_contained),
            "{events:?}"
        );
        let late = a.handle().write_untimed(page, 0, b"too late");
        assert!(late.is_err(), "A's PTEs went with the grant");
    });
    rt.run();
    assert_mmu_within_books(&kernel);
}

/// A released grant is no mapping the verifier must respect (`is_mapped`,
/// I3's "a child still in use cannot vanish"). R reads `/d/c` and lets go;
/// W moves `c` out of `/d` and lets go of everything. The next map of `/`
/// finds `c` at a new slot while the slot the books record no longer holds
/// it — moved, by the move rule — and the next map of `/d` finds it missing
/// from the checkpoint's children, placed elsewhere; both pass.
#[test]
fn rename_away_from_released_grants_verifies_clean() {
    let (kernel, w, r) = world(100);
    let rt = race_detected(&kernel, 39);
    let k = Arc::clone(&kernel);
    rt.spawn("t", move || {
        w.mkdir("/d", Mode(0o777)).unwrap();
        write_file(&*w, "/d/c", b"moving out").unwrap();
        w.release_path("/").unwrap();
        assert_eq!(read_file(&*r, "/d/c").unwrap(), b"moving out");
        r.release_path("/d/c").unwrap();
        w.rename("/d/c", "/c").unwrap();
        for p in ["/c", "/d", "/"] {
            w.release_path(p).unwrap();
        }
        // R's walk vets `/`, then `/d`. (`stat`, not `readdir`: a lookup
        // probes core state and faults on the revoked grant; a listing is
        // served from the aux as it stands.)
        assert_eq!(r.stat("/d/c").err(), Some(FsError::NotFound));
        assert!(names(&r, "/d").is_empty());
        assert_eq!(read_file(&*r, "/c").unwrap(), b"moving out");
        let events = k.take_events();
        assert!(events.is_empty(), "{events:?}");
    });
    rt.run();
    assert!(kernel.quarantined_actors().is_empty());
    assert_eq!(kernel.resilience_stats().snapshot().total_violations(), 0);
    assert_mmu_within_books(&kernel);
}

// ---------------------------------------------------------------------
// The kernel knows where a file lives (DESIGN.md §14): one move rule —
// after a move the recorded slot no longer holds the ino, after a link it
// still does — and a file's place moves only in the kernel's books.
// ---------------------------------------------------------------------

/// W's tree for the move tests: `/a/c` and an empty `/b`, both vetted by
/// R (who read `c`, so the kernel knows it) and given back by everyone.
fn move_world(seed: u64) -> (Arc<KernelController>, Arc<ArckFs>, Arc<ArckFs>, SimRuntime) {
    let (kernel, w, r) = world(100);
    let rt = race_detected(&kernel, seed);
    w.mkdir("/a", Mode(0o777)).unwrap();
    w.mkdir("/b", Mode(0o777)).unwrap();
    write_file(&*w, "/a/c", b"moving").unwrap();
    for p in ["/a/c", "/a", "/b", "/"] {
        w.release_path(p).unwrap();
    }
    (kernel, w, r, rt)
}

/// R's first look at the world: vets `/`, `/a`, `c` and `/b`, then lets go.
fn vet_move_world(r: &ArckFs) {
    assert_eq!(read_file(r, "/a/c").unwrap(), b"moving");
    assert!(names(r, "/b").is_empty());
    for p in ["/a/c", "/a", "/b", "/"] {
        r.release_path(p).unwrap();
    }
}

/// The violations of kind `kind` the kernel has counted.
fn violations(kernel: &KernelController, kind: &str) -> u64 {
    let i = trio_verifier::VIOLATION_KINDS.iter().position(|k| *k == kind).unwrap();
    kernel.resilience_stats().snapshot().by_kind[i]
}

/// An honest rename across directories is not an attack. W moves
/// `/a/c` to `/b/c` and lets go; R, another actor, then maps the
/// destination first or the source first. Both directories pass, nobody is
/// quarantined, and `c` lives at its new slot alone.
#[test]
fn an_honest_move_verifies_clean_in_either_order() {
    for dest_first in [true, false] {
        let (kernel, w, r, rt) = move_world(43);
        let k = Arc::clone(&kernel);
        rt.spawn("t", move || {
            vet_move_world(&r);
            w.rename("/a/c", "/b/c").unwrap();
            for p in ["/a", "/b", "/"] {
                w.release_path(p).unwrap();
            }
            let order = if dest_first { ["/b", "/a"] } else { ["/a", "/b"] };
            for dir in order {
                let _ = names(&r, dir);
            }
            assert!(names(&r, "/a").is_empty(), "dest_first = {dest_first}");
            assert_eq!(names(&r, "/b"), ["c"], "dest_first = {dest_first}");
            assert_eq!(read_file(&*r, "/b/c").unwrap(), b"moving");
            let events = k.take_events();
            assert!(events.is_empty(), "dest_first = {dest_first}: {events:?}");
        });
        rt.run();
        assert!(kernel.quarantined_actors().is_empty());
        assert_eq!(kernel.resilience_stats().snapshot().total_violations(), 0);
        assert_mmu_within_books(&kernel);
    }
}

/// A directory entry carries its child's node, so a walk that hits takes
/// no node-table lock (DESIGN.md §22); the node must not outlive a move
/// made by another LibFS. A walks `/a/b/c/f`, which warms every entry on
/// the way, and lets go; B renames the middle directory `c` to `x`. A's
/// `/a/b` is rebuilt from core state, whose entries carry no node: `c` is
/// gone, `x` leads to `f`, and A's own rename of `f` after that answers
/// from the slot it moved `f` to.
#[test]
fn a_carried_node_does_not_outlive_a_foreign_move() {
    let (kernel, a, b) = world(100);
    let rt = SimRuntime::new(48);
    rt.spawn("t", move || {
        for d in ["/a", "/a/b", "/a/b/c"] {
            a.mkdir(d, Mode(0o777)).unwrap();
        }
        write_file(&*a, "/a/b/c/f", b"carried").unwrap();
        let ino = a.stat("/a/b/c/f").unwrap().ino;
        for p in ["/a/b/c/f", "/a/b/c", "/a/b", "/a", "/"] {
            a.release_path(p).unwrap();
        }
        b.rename("/a/b/c", "/a/b/x").unwrap();
        for p in ["/a/b", "/a", "/"] {
            b.release_path(p).unwrap();
        }
        assert_eq!(a.stat("/a/b/c/f").err(), Some(FsError::NotFound));
        assert_eq!(a.stat("/a/b/x/f").unwrap().ino, ino);
        a.rename("/a/b/x/f", "/a/b/x/g").unwrap();
        assert_eq!(a.stat("/a/b/x/g").unwrap().ino, ino);
        assert_eq!(a.stat("/a/b/x/f").err(), Some(FsError::NotFound));
        assert_eq!(read_file(&*a, "/a/b/x/g").unwrap(), b"carried");
    });
    rt.run();
    assert!(kernel.quarantined_actors().is_empty());
    assert_mmu_within_books(&kernel);
}

/// The rule's other half: a real hard link — `c`'s dirent copied into `/b`
/// while its recorded slot in `/a` still holds it, entry counts kept true —
/// is `ForeignIno` whichever directory R maps first: `/b` is rolled back,
/// W quarantined (and re-admitted), and `c` stays where it was.
#[test]
fn a_hard_link_is_still_a_foreign_ino() {
    use trio_kernel::registry::KernelEvent as E;
    use trio_layout::{DirPage, DirentRef};
    for dest_first in [true, false] {
        let (kernel, w, r, rt) = move_world(44);
        let k = Arc::clone(&kernel);
        rt.spawn("t", move || {
            vet_move_world(&r);
            w.create("/a/y", Mode(0o666)).unwrap();
            w.create("/b/x", Mode(0o666)).unwrap();
            let c_loc = w.debug_file_pages("/a/c").unwrap().0.unwrap();
            let (b_loc, _, b_data) = w.debug_file_pages("/b").unwrap();
            let mut link = DirentRef::new(w.handle(), c_loc).load().unwrap();
            link.name = b"link".to_vec();
            let slot = DirPage::load(w.handle(), b_data[0].unwrap()).unwrap().first_free().unwrap();
            let l = DirentRef::new(w.handle(), slot);
            l.publish(link.ino, &l.prepare(&link).unwrap()).unwrap();
            DirentRef::new(w.handle(), b_loc.unwrap()).set_size(2).unwrap();
            for p in ["/a/c", "/a", "/b", "/"] {
                w.release_path(p).unwrap();
            }
            let b_ino = r.stat("/b").unwrap().ino;
            let order = if dest_first { ["/b", "/a"] } else { ["/a", "/b"] };
            for dir in order {
                let _ = r.readdir(dir);
            }
            let events = k.take_events();
            assert!(events.contains(&E::RolledBack { ino: b_ino }), "dest_first = {dest_first}: {events:?}");
            let w_contained = |e: &E| matches!(e, E::Quarantined { actor, .. } if *actor == w.actor());
            assert!(events.iter().any(w_contained), "dest_first = {dest_first}: {events:?}");
            assert_eq!(violations(&k, "foreign_ino"), 1, "dest_first = {dest_first}");
            assert_eq!(names(&r, "/a"), ["c", "y"]);
            assert!(names(&r, "/b").is_empty());
            assert_eq!(read_file(&*r, "/a/c").unwrap(), b"moving");
        });
        rt.run();
        assert!(kernel.quarantined_actors().is_empty());
        assert_mmu_within_books(&kernel);
    }
}

/// A moved file's place moves in full: once R's map of `/b` has accepted
/// the move, W's next write grant on `c` — whose dirent page is now `/b`'s —
/// dirties `/b`, not `/a`. The sibling W forges through that grant is
/// rolled back at R's next map of `/b`.
#[test]
fn a_moved_files_write_grant_dirties_its_new_directory() {
    use trio_kernel::registry::KernelEvent as E;
    use trio_layout::{CoreFileType, DirPage, DirentData, DirentRef};
    let (kernel, w, r, rt) = move_world(45);
    let k = Arc::clone(&kernel);
    rt.spawn("t", move || {
        vet_move_world(&r);
        w.rename("/a/c", "/b/c").unwrap();
        for p in ["/a", "/b", "/"] {
            w.release_path(p).unwrap();
        }
        assert_eq!(names(&r, "/b"), ["c"]); // Accepts the move.
        r.release_path("/b").unwrap();
        assert!(k.take_events().is_empty());

        let fd = w.open("/b/c", OpenFlags::RDWR, Mode(0o666)).unwrap();
        w.pwrite(fd, 0, b"M").unwrap();
        let b_ino = w.stat("/b").unwrap().ino;
        assert_eq!(k.writer_of(b_ino), None, "no write grant on `/b` itself");
        let page = w.debug_file_pages("/b/c").unwrap().0.unwrap().page;
        let slot = DirPage::load(w.handle(), page).unwrap().first_free().unwrap();
        let ghost = DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 1000, 1000);
        let g = DirentRef::new(w.handle(), slot);
        g.publish(999_999, &g.prepare(&ghost).unwrap()).unwrap();
        w.close(fd).unwrap();
        w.release_path("/b/c").unwrap();

        assert_eq!(names(&r, "/b"), ["c"]);
        let events = k.take_events();
        assert!(events.contains(&E::RolledBack { ino: b_ino }), "{events:?}");
        assert_eq!(read_file(&*r, "/b/c").unwrap(), b"Moving");
    });
    rt.run();
    assert!(kernel.quarantined_actors().is_empty());
    assert_mmu_within_books(&kernel);
}

/// A rollback restores a directory's last verified state — but not a
/// child that has since moved out and been placed elsewhere. W moves `c`
/// to `/b` and forges an entry in `/a`; R maps `/b` (the move is accepted)
/// and then `/a`, whose rollback would bring `c`'s old entry back beside
/// its new one. The restored entry is dropped with its count instead.
#[test]
fn a_rollback_does_not_bring_back_a_child_that_moved_out() {
    use trio_kernel::registry::KernelEvent as E;
    use trio_layout::{CoreFileType, DirPage, DirentData, DirentRef};
    let (kernel, w, r, rt) = move_world(46);
    let k = Arc::clone(&kernel);
    rt.spawn("t", move || {
        vet_move_world(&r);
        w.rename("/a/c", "/b/c").unwrap();
        let (_, _, a_data) = w.debug_file_pages("/a").unwrap();
        let slot = DirPage::load(w.handle(), a_data[0].unwrap()).unwrap().first_free().unwrap();
        let ghost = DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 1000, 1000);
        let g = DirentRef::new(w.handle(), slot);
        g.publish(999_999, &g.prepare(&ghost).unwrap()).unwrap();
        for p in ["/a", "/b", "/"] {
            w.release_path(p).unwrap();
        }
        assert_eq!(names(&r, "/b"), ["c"]);
        let a_ino = r.stat("/a").unwrap().ino;
        assert!(names(&r, "/a").is_empty());
        let events = k.take_events();
        assert!(events.contains(&E::RolledBack { ino: a_ino }), "{events:?}");
        assert_eq!(r.stat("/a/c").err(), Some(FsError::NotFound));
        assert_eq!(r.stat("/a").unwrap().size, 0);
        assert_eq!(read_file(&*r, "/b/c").unwrap(), b"moving");
    });
    rt.run();
    assert!(kernel.quarantined_actors().is_empty());
    assert_mmu_within_books(&kernel);
}

/// DESIGN.md §22, bug 1 — reachable since the move rule, still open, and
/// pinned here as it stands. `/d` is vetted empty, so W's write grant on it
/// covers no data page, and the page W's rename of `/x` into `/d` links in
/// from its pool is in no grant's list. W's write grant on the moved `x`
/// covers that page as its dirent page; when W lets go of `x`, the rule
/// (§20) takes the page away — from the holder of `/d`'s live write grant,
/// whose next entry there faults and re-maps. The fix (the covering set
/// following the link) turns the `None` below into `Some(Write)`.
#[test]
fn bug_1_a_dirent_page_linked_after_the_parent_grant_is_taken_away() {
    use trio_nvm::PagePerm;
    let (kernel, w, r) = world(100);
    let k = Arc::clone(&kernel);
    let rt = SimRuntime::new(47);
    rt.spawn("t", move || {
        w.mkdir("/d", Mode(0o777)).unwrap();
        write_file(&*w, "/x", b"x").unwrap();
        for p in ["/x", "/d", "/"] {
            w.release_path(p).unwrap();
        }
        assert_eq!(read_file(&*r, "/x").unwrap(), b"x");
        assert!(names(&r, "/d").is_empty());
        for p in ["/x", "/d", "/"] {
            r.release_path(p).unwrap();
        }
        w.rename("/x", "/d/x").unwrap();
        let fd = w.open("/d/x", OpenFlags::RDWR, Mode(0o666)).unwrap();
        w.pwrite(fd, 0, b"X").unwrap();
        w.close(fd).unwrap();
        let page = w.debug_file_pages("/d/x").unwrap().0.unwrap().page;
        w.release_path("/d/x").unwrap();
        assert_eq!(k.writer_of(w.stat("/d").unwrap().ino), Some(w.actor()));
        assert_eq!(k.device().mmu_perm(w.actor(), page).unwrap(), None::<PagePerm>);
    });
    rt.run();
}
