//! Data-path scalability properties: adaptive delegation routing, the
//! zero-copy batched submission path, and the sharded allocator's page
//! ledger. All scenarios are deterministic — a fixed simulation seed must
//! reproduce the exact same counter values run after run.

use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::{FileSystem, Mode, OpenFlags};
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{DeviceConfig, NvmDevice, PathStatsSnapshot, Topology};
use trio_sim::SimRuntime;

/// A tracked device: the clock does not see the tracker (the
/// `unarmed_hooks_touch_neither_clock_nor_rng` test), and each scenario on
/// it ends by asking the sanitizer about its persistence order.
fn world(cfg: ArckFsConfig) -> (Arc<NvmDevice>, Arc<KernelController>, Arc<ArckFs>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        track_persistence: true,
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, cfg);
    (dev, kernel, fs)
}

/// One run of the adaptive-routing scenario: a lone writer issuing small
/// writes (should all go direct — the ring round trip would only slow them
/// down), then a thundering herd of writers on the same node (sampled load
/// crosses the bandwidth-collapse knee, so the same-sized writes should
/// start delegating). Returns `(uncontended, contended)` snapshots.
fn adaptive_scenario(seed: u64) -> (PathStatsSnapshot, PathStatsSnapshot) {
    let (dev, kernel, fs) = world(ArckFsConfig::default());
    let rt = SimRuntime::new(seed);
    let k = Arc::clone(&kernel);
    let result = Arc::new(trio_sim::plock::Mutex::new(None));
    let result2 = Arc::clone(&result);
    rt.spawn("main", move || {
        k.delegation().start();
        let stats = Arc::clone(k.path_stats());

        // Phase 1: uncontended small writes.
        let fd = fs.open("/solo", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        fs.pwrite(fd, 0, &vec![0u8; 256 * 1024]).unwrap(); // preallocate
        let base = stats.snapshot();
        let block = vec![0xABu8; 4096];
        for i in 0..50u64 {
            fs.pwrite(fd, (i % 64) * 4096, &block).unwrap();
        }
        fs.close(fd).unwrap();
        let uncontended = stats.snapshot().delta(&base);

        // Phase 2: the same 4 KiB writes, but 24 writers deep on one node.
        // Snapshot-delta window: taken before the spawns, so no reset can
        // race a worker already inside the delegation path.
        let herd_base = stats.snapshot();
        let mut handles = Vec::new();
        for t in 0..24u64 {
            let fs2 = Arc::clone(&fs);
            handles.push(trio_sim::spawn(&format!("w{t}"), move || {
                let path = format!("/herd-{t}");
                let fd =
                    fs2.open(&path, OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
                fs2.pwrite(fd, 0, &vec![0u8; 64 * 4096]).unwrap(); // preallocate
                let block = vec![t as u8; 4096];
                for i in 0..100u64 {
                    fs2.pwrite(fd, (i % 64) * 4096, &block).unwrap();
                }
                fs2.close(fd).unwrap();
            }));
        }
        for h in handles {
            h.join();
        }
        let contended = stats.snapshot().delta(&herd_base);
        k.delegation().shutdown();
        *result2.lock() = Some((uncontended, contended));
    });
    rt.run();
    dev.take_sanitize_report(seed).expect_clean("adaptive_scenario");
    let r = result.lock().take().unwrap();
    r
}

#[test]
fn adaptive_routing_tracks_node_load() {
    let (uncontended, contended) = adaptive_scenario(77);
    // A lone writer's 4 KiB overwrites never delegate: load on the home
    // node is far below the collapse knee and nothing is remote.
    assert_eq!(
        uncontended.adaptive_delegated, 0,
        "uncontended small writes must stay on the direct path"
    );
    assert!(uncontended.adaptive_direct >= 50, "{uncontended:?}");
    assert!(uncontended.direct_write_bytes >= 50 * 4096);
    // Under a 24-writer herd the sampled load crosses the knee and the
    // very same write size flips to the delegated path.
    assert!(
        contended.adaptive_delegated > 0,
        "loaded node must start delegating small writes: {contended:?}"
    );
    assert!(contended.delegated_write_bytes > 0);
}

#[test]
fn adaptive_routing_is_deterministic_across_reruns() {
    let a = adaptive_scenario(77);
    let b = adaptive_scenario(77);
    // Identical seeds must replay the identical schedule, so every counter
    // — not just the headline ones — matches exactly.
    assert_eq!(a.0.to_json(&[]), b.0.to_json(&[]), "uncontended phase diverged");
    assert_eq!(a.1.to_json(&[]), b.1.to_json(&[]), "contended phase diverged");
}

/// Eight threads on four nodes, each extending a striped file across every
/// node, truncating it and extending it again: the kernel allocator's
/// refills, spills and the delegation ring all run hot.
fn churn_scenario(seed: u64) -> PathStatsSnapshot {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(4, 16 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(dev, KernelConfig::default());
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::default());
    let rt = SimRuntime::new(seed);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        k.delegation().start();
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let fs = Arc::clone(&fs);
                trio_sim::spawn(&format!("churn{t}"), move || {
                    trio_nvm::handle::set_home_node(t as usize % 4);
                    let path = format!("/churn-{t}");
                    let fd =
                        fs.open(&path, OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
                    let block = vec![t as u8; 96 * 4096];
                    for _ in 0..6 {
                        for i in 0..4u64 {
                            fs.pwrite(fd, i * block.len() as u64, &block).unwrap();
                        }
                        fs.truncate(&path, 0).unwrap();
                    }
                    fs.close(fd).unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        k.delegation().shutdown();
    });
    rt.run();
    kernel.path_stats().snapshot()
}

/// Same seed, same counters — allocator and ring included. Every
/// `HashMap::new()` draws fresh hash keys, so a map whose iteration order
/// reaches the allocator or the clock fails this within one process.
#[test]
fn allocator_churn_is_deterministic_across_reruns() {
    let (a, b) = (churn_scenario(5), churn_scenario(5));
    assert!(a.alloc_refills > 0 && a.free_spills > 0 && a.alloc_fast_hits > 0, "{a:?}");
    assert_eq!(
        (a.alloc_fast_hits, a.alloc_refills, a.alloc_refill_pages, a.free_spills),
        (b.alloc_fast_hits, b.alloc_refills, b.alloc_refill_pages, b.free_spills),
        "allocator counters diverged"
    );
    assert_eq!(a.ring_hop_hist, b.ring_hop_hist, "ring timing diverged");
    assert_eq!(a.to_json(&[]), b.to_json(&[]));
}

/// Concurrent allocation and frees across several actors must balance the
/// page ledger: every page is in exactly one of {global pool, an actor's
/// allocator cache, handed out}, and unregistering flushes caches back.
#[test]
fn concurrent_alloc_free_across_actors_leaks_no_pages() {
    let rt = SimRuntime::new(91);
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(2, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(dev, KernelConfig::default());
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        let baseline = k.free_page_count() + k.cached_page_count();
        let mut actors = Vec::new();
        let mut workers = Vec::new();
        for a in 0..4u32 {
            let reg = k.register_libfs(1000 + a, 1000 + a);
            actors.push(reg.actor);
            for t in 0..3u32 {
                let k2 = Arc::clone(&k);
                let actor = reg.actor;
                workers.push(trio_sim::spawn(&format!("a{a}t{t}"), move || {
                    let mut held: Vec<trio_nvm::PageId> = Vec::new();
                    for round in 0..40usize {
                        let n = 1 + (round * 7 + t as usize) % 8;
                        let node = Some((round + a as usize) % 2);
                        held.extend(k2.alloc_pages(actor, n, node).unwrap());
                        // Free in a different grouping than we allocated.
                        if round % 3 == 2 {
                            let give: Vec<_> = held.drain(..held.len() / 2).collect();
                            k2.free_pages(actor, &give).unwrap();
                        }
                    }
                    k2.free_pages(actor, &held).unwrap();
                }));
            }
        }
        for w in workers {
            w.join();
        }
        // Everything freed: pool + caches hold every page again.
        assert_eq!(
            k.free_page_count() + k.cached_page_count(),
            baseline,
            "ledger out of balance after concurrent alloc/free"
        );
        let snap = k.path_stats().snapshot();
        assert!(snap.alloc_fast_hits > 0, "caches never served a fast-path alloc: {snap:?}");
        // Refills take the registry lock once per batch, not once per page:
        // strictly fewer lock acquisitions than pages allocated.
        assert!(
            snap.registry_locks < snap.alloc_refill_pages,
            "lock per page defeats sharding: {snap:?}"
        );
        // Unregister flushes each actor's cache back to the global pool.
        for actor in actors {
            k.unregister(actor);
        }
        assert_eq!(k.cached_page_count(), 0, "unregister must flush caches");
        assert_eq!(k.free_page_count(), baseline, "pages leaked across unregister");
    });
    rt.run();
}

/// Truncate/re-extend churn must reach a steady state: every data page a
/// truncate frees parks in the actor's scrubbed allocator cache (or
/// spills back to the global pool past the high-water mark), and the
/// next extension allocates straight out of the cache. A leak anywhere
/// in the return→park→realloc cycle shows up as a shrinking ledger.
#[test]
fn truncate_extend_churn_recycles_pages_through_actor_cache() {
    let (dev, kernel, fs) = world(ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(55);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        let stats = Arc::clone(k.path_stats());
        let chunk = vec![0x5Cu8; 1 << 20];
        let reg = fs.register_write_buffer(&chunk).unwrap();
        let mut steady: Option<usize> = None;
        for round in 0..20u32 {
            let fd =
                fs.open("/churn", OpenFlags::CREATE | OpenFlags::WRONLY, Mode(0o666)).unwrap();
            for i in 0..2u64 {
                fs.pwrite_registered(fd, i * chunk.len() as u64, reg, 0, chunk.len()).unwrap();
            }
            fs.close(fd).unwrap();
            fs.truncate("/churn", 0).unwrap();
            let avail = k.free_page_count() + k.cached_page_count();
            match steady {
                // Round 0 pays for index pages and directory metadata;
                // every later round must come back to the same ledger.
                None => steady = Some(avail),
                Some(s) => assert_eq!(avail, s, "page leak by round {round}"),
            }
        }
        fs.unregister_write_buffer(reg).unwrap();
        let snap = stats.snapshot();
        assert!(snap.free_cached > 0, "truncate frees never reached the actor cache: {snap:?}");
        assert!(snap.free_spills > 0, "512-page frees must spill past the high-water mark: {snap:?}");
        assert!(snap.alloc_fast_hits > 0, "re-extension never hit the cache fast path: {snap:?}");
        assert_eq!(snap.payload_copies, 0, "registered churn writes must not copy payloads: {snap:?}");
    });
    rt.run();
    dev.take_sanitize_report(55).expect_clean("truncate/extend churn");
}

/// A delegated write shares one payload buffer across every per-node batch
/// and every retry: exactly one copy (`&[u8]` → `Arc<[u8]>`) per op, no
/// matter how many times faulted requests are re-enqueued.
#[test]
fn delegated_write_copies_payload_exactly_once_across_retries() {
    let (dev, kernel, fs) = world(ArckFsConfig::default());
    let rt = SimRuntime::new(33);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        k.delegation().start();
        let fd = fs.open("/f", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        let data = vec![0xC3u8; 64 * 1024];
        fs.pwrite(fd, 0, &data).unwrap(); // preallocate pages
        // Drop every other request: the op only completes via retries.
        k.delegation().inject_faults(0, 0, 2);
        let stats = Arc::clone(k.path_stats());
        let base = stats.snapshot();
        assert_eq!(fs.pwrite(fd, 0, &data).unwrap(), data.len());
        let snap = stats.snapshot().delta(&base);
        assert!(snap.deleg_retries >= 1, "drop injection produced no retries: {snap:?}");
        assert_eq!(
            snap.payload_copies, 1,
            "retries must re-enqueue the shared payload, not copy it: {snap:?}"
        );
        k.delegation().inject_faults(0, 0, 0);
        let mut buf = vec![0u8; data.len()];
        assert_eq!(fs.pread(fd, 0, &mut buf).unwrap(), buf.len());
        assert_eq!(buf, data, "retried write landed wrong bytes");
        fs.close(fd).unwrap();
        k.delegation().shutdown();
    });
    rt.run();
    // Dropped requests re-run their stores: the retried write's lines must
    // still go store, flush, fence in order.
    dev.take_sanitize_report(33).expect_clean("delegated write across retries");
}

/// A delegated 64 KiB write is one persist barrier on its worker: the
/// sixteen pages' `clwb`s are charged at the fence, with it, as one sim
/// point (DESIGN.md §2). Its exact scheduler-event count pins that, so
/// per-page sim points coming back fail here with a number, not as a
/// drift in host time: charged per page, the same write took 49 events.
/// The write reads the file's inode lock once (`with_mapped` hands the
/// read to the op body), which is one event fewer than the 33 it took
/// while the body read the lock a second time.
#[test]
fn delegated_64k_pwrite_takes_a_pinned_number_of_sim_events() {
    let (dev, kernel, fs) = world(ArckFsConfig::default());
    let rt = Arc::new(SimRuntime::new(40));
    let (k, rt2) = (Arc::clone(&kernel), Arc::clone(&rt));
    let seen = Arc::new(trio_sim::plock::Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    rt.spawn("main", move || {
        k.delegation().start();
        let fd = fs.open("/f", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        let data = vec![0x5Au8; 64 * 1024];
        fs.pwrite(fd, 0, &data).unwrap(); // allocate the pages
        let base = k.path_stats().snapshot();
        let e0 = rt2.events();
        assert_eq!(fs.pwrite(fd, 0, &data).unwrap(), data.len());
        let events = rt2.events() - e0;
        let snap = k.path_stats().snapshot().delta(&base);
        fs.close(fd).unwrap();
        k.delegation().shutdown();
        *seen2.lock() = Some((events, snap));
    });
    rt.run();
    let (events, snap) = seen.lock().take().expect("the writer ran");
    assert_eq!(snap.delegated_write_bytes, 64 * 1024, "{snap:?}");
    assert_eq!(events, 32, "scheduler events of one delegated 64 KiB pwrite");
    dev.take_sanitize_report(40).expect_clean("delegated 64 KiB pwrite");
}
