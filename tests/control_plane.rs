//! Lock-free kernel control plane (DESIGN.md §20): churn, epochs, and
//! the bounded event ring, exercised end to end.
//!
//! PR-10 moved page/ino provenance out of the single `Registry` mutex
//! into sharded maps, put freed frames through epoch-based reclamation,
//! and bounded the kernel event log. These tests pin the properties that
//! refactor must preserve:
//!
//! * concurrent register/alloc/free/unregister churn across many tenants
//!   runs clean under the vector-clock race detector — every frame
//!   hand-off (free → scrub → recycle → re-grant, possibly to a
//!   *different* actor) carries a happens-before edge,
//! * an `EpochPin` really holds freed frames in limbo (never re-granted
//!   while a provenance walk may still read them) and releasing it
//!   really drains them,
//! * limbo is volatile: a crash with frames parked in limbo loses
//!   nothing reachable — recovery recomputes them as free and every
//!   surviving file reads back intact,
//! * the quarantine lifecycle (enter → blocked reads → repair →
//!   readmit) still works through the split registry/tainted-index path,
//! * steady-state alloc/free takes exactly zero registry control-lock
//!   acquisitions (the perf-gate property, asserted at test granularity),
//! * the event ring drops oldest, keeps newest, and counts what it shed.

use std::sync::Arc;

use arckfs::attack::{run_attack, Attack, ALL_ATTACKS};
use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::{read_file, write_file, FileSystem};
use trio_layout::ROOT_INO;
use trio_kernel::mapping::MapTarget;
use trio_kernel::registry::KernelEvent;
use trio_kernel::shard::{EventRing, EVENT_RING_CAPACITY};
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{ActorId, DeviceConfig, NvmDevice, PageId, RegistryLockSite, Topology};
use trio_sim::plock::Mutex as PlMutex;
use trio_sim::rng::SimRng;
use trio_sim::{work, RaceDetector, SimRuntime};

fn device() -> Arc<NvmDevice> {
    Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(2, 32 * 1024),
        ..DeviceConfig::small()
    }))
}

// ---------------------------------------------------------------------
// Concurrent control-plane churn under the race detector.
// ---------------------------------------------------------------------

/// Many tenants register, allocate, write through their grants, free,
/// and unregister concurrently while an admin thread pokes the cold
/// control surfaces. With the race detector threading vector clocks
/// through every SimMutex — including the provenance shards, the epoch
/// GC, and the allocator caches — the run must finish without a single
/// report: the lock-free fast paths still order every cross-actor frame
/// hand-off. Afterwards the page ledger must balance exactly.
#[test]
fn concurrent_tenant_churn_is_race_clean_and_conserves_pages() {
    let dev = device();
    let rd = Arc::new(RaceDetector::new());
    assert!(dev.set_race_detector(rd));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let baseline = kernel.free_page_count() + kernel.cached_page_count();

    let rt = SimRuntime::new(0xC0A7_1A7E);
    rt.enable_race_detection();
    for t in 0..6u64 {
        let k = Arc::clone(&kernel);
        rt.spawn(&format!("tenant-{t}"), move || {
            let mut rng = SimRng::seed_from_u64(0x51ED ^ t);
            for _round in 0..3 {
                let regn = k.register_libfs(1000 + t as u32, 1000);
                let actor = regn.actor;
                let mut held: Vec<PageId> = Vec::new();
                for _ in 0..24 {
                    match rng.gen_range(4) {
                        0 => {
                            let n = 1 + rng.gen_range(8) as usize;
                            if let Ok(mut pages) = k.alloc_pages(actor, n, None) {
                                // Dirty a granted frame so a later owner
                                // of the recycled page would race with us
                                // if any hand-off edge were missing.
                                if let Some(p) = pages.first() {
                                    regn.handle.write_untimed(*p, 0, b"churn!!!").unwrap();
                                }
                                held.append(&mut pages);
                            }
                        }
                        1 if !held.is_empty() => {
                            let n = 1 + rng.gen_range(held.len() as u64) as usize;
                            let give: Vec<PageId> = held.drain(..n).collect();
                            k.free_pages(actor, &give).unwrap();
                        }
                        // Grants come and go in one tenant's page table
                        // while another's is being programmed: every edit
                        // of one table must be ordered with the next.
                        2 => {
                            let write = rng.gen_range(2) == 0;
                            if k.map(actor, MapTarget::Root, write).is_ok() {
                                work(1 + rng.gen_range(2_000));
                                k.release(actor, ROOT_INO).unwrap();
                            }
                        }
                        _ => {
                            let _ = k.alloc_inos(actor, 1 + rng.gen_range(4));
                        }
                    }
                    work(1 + rng.gen_range(200));
                }
                if !held.is_empty() {
                    k.free_pages(actor, &held).unwrap();
                }
                k.unregister(actor);
            }
        });
    }
    let k = Arc::clone(&kernel);
    rt.spawn("admin", move || {
        for _ in 0..40 {
            let _ = k.credentials(ActorId(1));
            let _ = k.limbo_page_count();
            let _ = k.repair_quarantined();
            let _ = k.dropped_event_count();
            work(500);
        }
    });
    rt.run(); // A single missing happens-before edge aborts this line.

    // Every tenant freed and unregistered: the ledger must balance and
    // nothing may be left in limbo, quarantined, or dropped.
    assert_eq!(
        kernel.free_page_count() + kernel.cached_page_count(),
        baseline,
        "page ledger must balance after full churn"
    );
    assert_eq!(kernel.limbo_page_count(), 0);
    assert!(kernel.quarantined_actors().is_empty());
    assert_eq!(kernel.path_stats().snapshot().events_dropped, 0);
    // Nobody is registered any more: no page table may hold anything.
    let audit = kernel.audit_mmu_against_books();
    assert!(audit.is_clean(), "page tables disagree with the books: {audit:?}");
}

// ---------------------------------------------------------------------
// Epoch-based reclamation semantics.
// ---------------------------------------------------------------------

/// A live pin holds freed frames in limbo — provenance intact, never
/// re-granted — and dropping it releases them to the next reclaim.
#[test]
fn epoch_pin_holds_freed_frames_out_of_circulation() {
    let kernel = KernelController::format(device(), KernelConfig::default());
    let regn = kernel.register_libfs(1000, 1000);
    let freed = kernel.alloc_pages(regn.actor, 16, None).unwrap();
    assert_eq!(kernel.limbo_page_count(), 0);

    let pin = kernel.epoch_pin();
    kernel.free_pages(regn.actor, &freed).unwrap();
    assert_eq!(kernel.limbo_page_count(), 16, "pinned frees park in limbo");

    // While the pin is live the limbo frames must not come back out of
    // the allocator, no matter how many fresh grants we pull.
    let again = kernel.alloc_pages(regn.actor, 16, None).unwrap();
    for p in &again {
        assert!(!freed.contains(p), "page {p:?} re-granted while pinned");
    }
    assert_eq!(kernel.limbo_page_count(), 16, "allocation must not drain a pinned limbo");

    drop(pin);
    // The ledger accessors reclaim on the way in; after the drop the
    // parked frames rejoin circulation and the ledger balances.
    let _ = kernel.free_page_count();
    assert_eq!(kernel.limbo_page_count(), 0, "unpinned limbo drains on next reclaim");
    kernel.free_pages(regn.actor, &again).unwrap();
    assert_eq!(kernel.limbo_page_count(), 0);
}

/// Limbo is volatile state: crashing with frames parked under a live pin
/// loses nothing reachable. Recovery recomputes those frames as free
/// (they belong to no file) and every surviving file reads back intact —
/// epoch reclamation never frees state recovery can reach.
#[test]
fn crash_with_frames_in_limbo_recovers_them_as_free() {
    let dev = device();
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let payload = vec![0xA5u8; 24 * 1024];

    // Durable, kernel-verified file that must survive the crash.
    {
        let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
        let p = payload.clone();
        let rt = SimRuntime::new(0xEC40);
        rt.spawn("setup", move || {
            write_file(&*fs, "/keep", &p).unwrap();
            fs.release_path("/keep").unwrap();
        });
        rt.run();
    }

    // A raw tenant frees a burst under a live pin, then the machine dies
    // with the pin still held (mem::forget = the pinning walk never got
    // to finish).
    let regn = kernel.register_libfs(1000, 1000);
    let burst = kernel.alloc_pages(regn.actor, 32, None).unwrap();
    let pin = kernel.epoch_pin();
    kernel.free_pages(regn.actor, &burst).unwrap();
    assert_eq!(kernel.limbo_page_count(), 32);
    let free_before = kernel.free_page_count();
    let cached_before = kernel.cached_page_count();
    std::mem::forget(pin);
    drop(kernel);

    let kernel2 = KernelController::recover(Arc::clone(&dev), KernelConfig::default())
        .expect("recovery after limbo crash");
    assert!(kernel2.fsck().is_empty(), "fsck clean after recovering a limbo crash");
    assert_eq!(kernel2.limbo_page_count(), 0, "limbo does not survive a crash");
    // The 32 limbo frames are unreachable from any file, so recovery's
    // provenance walk returns them to the free pool — nothing leaks
    // across the crash. (Recovery frees more than just limbo: journal
    // and checkpoint frames from the dead mounts come back too, hence
    // the lower bound.)
    assert!(
        kernel2.free_page_count() + kernel2.cached_page_count() >= free_before + cached_before + 32,
        "recovery reclaims limbo frames into the free pool"
    );

    let fs2 = ArckFs::mount(Arc::clone(&kernel2), 1000, 1000, ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0xEC41);
    let seen = Arc::new(PlMutex::new(Vec::new()));
    let s2 = Arc::clone(&seen);
    rt.spawn("readback", move || {
        *s2.lock() = read_file(&*fs2, "/keep").unwrap();
    });
    rt.run();
    assert_eq!(*seen.lock(), payload, "reachable file intact: limbo never held its pages");
}

// ---------------------------------------------------------------------
// Quarantine lifecycle through the split control plane.
// ---------------------------------------------------------------------

/// With auto-repair off, a detected attack must quarantine the offender
/// (kernel service refused, tainted subtree unreadable via the O(1)
/// reverse index), and an explicit repair pass must readmit it — the
/// full DESIGN.md §14 lifecycle across the refactored registry.
#[test]
fn quarantine_blocks_tainted_reads_until_explicit_repair() {
    let attack =
        *ALL_ATTACKS.iter().find(|a| **a != Attack::RemoveNonEmptyDir).expect("attack available");
    let dev = device();
    let kernel = KernelController::format(
        dev,
        KernelConfig { auto_repair: false, ..KernelConfig::default() },
    );
    let evil = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let victim = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let evil_actor = evil.actor();

    let rt = SimRuntime::new(0x9A11);
    let k = Arc::clone(&kernel);
    rt.spawn("lifecycle", move || {
        use trio_fsapi::{Mode, OpenFlags};
        // Stage: build the tree, hand it over clean, re-take write grants.
        evil.mkdir("/dir", Mode(0o777)).unwrap();
        write_file(&*evil, "/dir/victim", &vec![7u8; 16 * 1024]).unwrap();
        evil.release_path("/dir").unwrap();
        let _ = victim.readdir("/dir").unwrap();
        let _ = read_file(&*victim, "/dir/victim").unwrap();
        let fd = evil.open("/dir/victim", OpenFlags::RDWR, Mode(0o666)).unwrap();
        evil.pwrite(fd, 0, &[7u8]).unwrap();
        evil.close(fd).unwrap();

        // Attack, then let the victim's remap trigger verification.
        run_attack(&evil, attack, "/dir", "victim").unwrap();
        let _ = evil.release_path("/dir/victim");
        let _ = evil.release_path("/dir");
        let _ = k.take_events();
        let _ = victim.readdir("/dir");
        let _ = read_file(&*victim, "/dir/victim");
        let events = k.take_events();
        assert!(
            events.iter().any(|e| matches!(e, KernelEvent::Quarantined { actor, .. } if *actor == evil_actor)),
            "attack must quarantine the offender: {events:?}"
        );

        // Contained: the offender gets no kernel service, and the tainted
        // subtree stays unreadable (one reverse-index probe per map).
        assert_eq!(k.quarantined_actors(), vec![evil_actor]);
        assert!(k.alloc_pages(evil_actor, 1, None).is_err(), "quarantined actor refused");
        assert!(
            read_file(&*victim, "/dir/victim").is_err(),
            "tainted file must stay unreadable while its corruptor is unrepaired"
        );

        // Explicit repair readmits and unblocks the subtree.
        assert_eq!(k.repair_quarantined(), 1);
        let events = k.take_events();
        assert!(
            events.iter().any(|e| matches!(e, KernelEvent::Readmitted { actor } if *actor == evil_actor)),
            "repair must readmit: {events:?}"
        );
        assert!(k.quarantined_actors().is_empty());
        let entries = victim.readdir("/dir").unwrap();
        for e in &entries {
            let p = format!("/dir/{}", e.name);
            assert!(victim.stat(&p).is_ok(), "post-repair view walkable at {p}");
        }
        assert!(k.alloc_pages(evil_actor, 1, None).is_ok(), "readmitted actor served again");
    });
    rt.run();
}

// ---------------------------------------------------------------------
// The perf-gate property at test granularity.
// ---------------------------------------------------------------------

/// Steady-state alloc/free — including cache refills and spills — takes
/// exactly zero registry control-lock acquisitions. This is the property
/// the perf gate pins on `BENCH_datapath.json` (`registry_locks <= 10`),
/// asserted here directly via the per-call-site counters so a regression
/// names its call site instead of just moving a benchmark number.
#[test]
fn steady_state_alloc_free_takes_zero_registry_locks() {
    let kernel = KernelController::format(device(), KernelConfig::default());
    let regn = kernel.register_libfs(1000, 1000);
    // Warm-up burst: populates the allocator cache (even this refill is
    // lock-free now, but keep the measured window purely steady-state).
    let warm = kernel.alloc_pages(regn.actor, 64, None).unwrap();
    kernel.free_pages(regn.actor, &warm).unwrap();

    let s0 = kernel.path_stats().snapshot();
    for _ in 0..200 {
        let pages = kernel.alloc_pages(regn.actor, 8, None).unwrap();
        kernel.free_pages(regn.actor, &pages).unwrap();
    }
    let d = kernel.path_stats().snapshot().delta(&s0);

    assert_eq!(d.registry_locks, 0, "steady-state alloc/free must not take the control lock");
    for site in RegistryLockSite::ALL {
        if site.is_hot() {
            assert_eq!(
                d.registry_lock_site(site),
                0,
                "hot site {} acquired the registry lock",
                site.as_str()
            );
        }
    }
    assert!(d.alloc_fast_hits >= 190, "cache serves the burst: {} fast hits", d.alloc_fast_hits);
    assert_eq!(d.events_dropped, 0);
    // The attribution surface is part of the contract: the JSON the
    // benches emit must carry the per-site breakdown the gate reads.
    let json = kernel.path_stats().snapshot().to_json(&[]);
    assert!(json.contains("\"registry_lock_sites\""), "per-site counters surfaced in JSON");
    assert!(json.contains("\"events_dropped\""), "ring overflow surfaced in JSON");
}

// ---------------------------------------------------------------------
// Bounded event ring.
// ---------------------------------------------------------------------

/// Overflow evicts oldest-first, keeps the newest window, and counts
/// every eviction — the fix for the unbounded `Registry::events` vec.
#[test]
fn event_ring_overflow_keeps_newest_and_counts_drops() {
    let ring = EventRing::new(8);
    for ino in 0..12u64 {
        ring.push(KernelEvent::RolledBack { ino });
    }
    assert_eq!(ring.dropped(), 4, "four oldest evicted");
    assert_eq!(ring.len(), 8);
    let events = ring.drain();
    assert!(matches!(events.first(), Some(KernelEvent::RolledBack { ino: 4 })));
    assert!(matches!(events.last(), Some(KernelEvent::RolledBack { ino: 11 })));
    assert!(ring.is_empty(), "drain keeps the old drain-on-read semantics");
    assert_eq!(ring.dropped(), 4, "drop counter is lifetime, not per-drain");
    // The production capacity is big enough that no existing drain
    // cadence sheds events, though the one ring holds both the registry's
    // and the delegation pool's (the churn test asserts events_dropped == 0).
    const { assert!(EVENT_RING_CAPACITY >= 1024) };
}
