//! Cross-LibFS race detection on the NVM line level (DESIGN.md §13).
//!
//! The detector threads vector clocks through every `trio_sim::sync`
//! primitive (and, via the channels, the delegation rings); two accesses
//! to the same NVM cache line by *different actors* with no
//! happens-before edge abort the run naming both access sites. These
//! tests pin the three behaviours that matter:
//!
//! * genuinely unsynchronized cross-actor writes abort with a replayable
//!   diagnostic,
//! * every legal ordering construct (mutex hand-off, channel send/recv —
//!   the delegation-ring shape, a read-free read after a writer's release)
//!   suppresses the report,
//! * the real ArckFS data path, with delegation forced on, runs clean.
//!
//! Detection is opt-in per runtime (`enable_race_detection`) and per
//! device (`set_race_detector`), so the perf-sensitive suites pay nothing.

#![allow(clippy::disallowed_methods, reason = "the detector's worlds program the MMU directly")]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::{FileSystem, Mode, OpenFlags};
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{ActorId, DeviceConfig, NvmDevice, NvmHandle, PageId, PagePerm, Topology};
use trio_sim::sync::{SimChannel, SimMutex, SimRwLock};
use trio_sim::{work, RaceDetector, SimRuntime};

const PAGE: PageId = PageId(5);

/// A raw device with the race detector attached and `PAGE` mapped
/// writable for two separate actors (two "LibFSes" sharing a page).
fn shared_device() -> (Arc<NvmDevice>, NvmHandle, NvmHandle) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
    let rd = Arc::new(RaceDetector::new());
    assert!(dev.set_race_detector(rd));
    let (a, b) = (ActorId(1), ActorId(2));
    dev.mmu_map(a, PAGE, PagePerm::Write).unwrap();
    dev.mmu_map(b, PAGE, PagePerm::Write).unwrap();
    let ha = NvmHandle::new(Arc::clone(&dev), a);
    let hb = NvmHandle::new(Arc::clone(&dev), b);
    (dev, ha, hb)
}

#[test]
fn unsynchronized_cross_actor_writes_abort() {
    let rt = SimRuntime::new(0xACE5);
    rt.enable_race_detection();
    let (_dev, ha, hb) = shared_device();
    rt.spawn("libfs-a", move || {
        ha.write_untimed(PAGE, 0, b"aaaaaaaa").unwrap();
    });
    rt.spawn("libfs-b", move || {
        work(50);
        hb.write_untimed(PAGE, 0, b"bbbbbbbb").unwrap();
    });
    let err = catch_unwind(AssertUnwindSafe(|| rt.run())).expect_err("race must abort");
    let msg = err.downcast_ref::<String>().expect("string panic");
    assert!(msg.contains("data race on NVM page 5 cache line 0"), "{msg}");
    assert!(msg.contains("seed 0xace5"), "diagnostic carries the replay seed: {msg}");
}

#[test]
fn mutex_handoff_suppresses_the_report() {
    let rt = SimRuntime::new(1);
    rt.enable_race_detection();
    let (_dev, ha, hb) = shared_device();
    let lock = Arc::new(SimMutex::new(()));
    {
        let lock = Arc::clone(&lock);
        rt.spawn("libfs-a", move || {
            let _g = lock.lock();
            ha.write_untimed(PAGE, 0, b"aaaaaaaa").unwrap();
        });
    }
    rt.spawn("libfs-b", move || {
        work(50);
        let _g = lock.lock();
        hb.write_untimed(PAGE, 0, b"bbbbbbbb").unwrap();
    });
    rt.run(); // No panic: the mutex carries the happens-before edge.
}

#[test]
fn channel_handoff_orders_the_ring_shape() {
    // The delegation-ring pattern in miniature: the submitter writes its
    // buffer, sends a request over a channel; the worker receives and
    // touches the same lines. The per-message clock makes it ordered.
    let rt = SimRuntime::new(2);
    rt.enable_race_detection();
    let (_dev, ha, hb) = shared_device();
    let ring: Arc<SimChannel<u64>> = Arc::new(SimChannel::bounded(4));
    {
        let ring = Arc::clone(&ring);
        rt.spawn("submitter", move || {
            ha.write_untimed(PAGE, 0, b"payload!").unwrap();
            ring.send(1).unwrap();
        });
    }
    rt.spawn("worker", move || {
        let _req = ring.recv().unwrap();
        let mut buf = [0u8; 8];
        hb.read_untimed(PAGE, 0, &mut buf).unwrap();
        hb.write_untimed(PAGE, 0, b"response").unwrap();
    });
    rt.run(); // No panic: the message carries the submitter's clock.
}

/// A read free of the lock joins its race clock: an NVM write under the
/// write lock, then the other actor's read after a `read_free` that found
/// the lock free, is ordered. The same pair without that read, which is
/// what a `read_free` that joins no clock leaves, is a race.
#[test]
fn read_free_carries_the_writers_release_edge() {
    let pair = |read_free: bool| {
        let rt = SimRuntime::new(4);
        rt.enable_race_detection();
        let (_dev, ha, hb) = shared_device();
        let lock = Arc::new(SimRwLock::new(0u64));
        let l = Arc::clone(&lock);
        rt.spawn("libfs-a", move || {
            let mut g = l.write();
            ha.write_untimed(PAGE, 0, b"aaaaaaaa").unwrap();
            *g = 1;
        });
        rt.spawn("libfs-b", move || {
            work(50);
            if read_free {
                assert_eq!(lock.read_free(|v| *v), Some(1));
            }
            let mut buf = [0u8; 8];
            hb.read_untimed(PAGE, 0, &mut buf).unwrap();
        });
        catch_unwind(AssertUnwindSafe(|| rt.run()))
    };
    assert!(pair(true).is_ok(), "the read-free read orders the pair");
    let err = pair(false).expect_err("without the edge the pair races");
    let msg = err.downcast_ref::<String>().expect("string panic");
    assert!(msg.contains("data race on NVM page 5 cache line 0"), "{msg}");
}

#[test]
fn read_write_without_edge_also_aborts() {
    let rt = SimRuntime::new(3);
    rt.enable_race_detection();
    let (_dev, ha, hb) = shared_device();
    rt.spawn("writer", move || {
        ha.write_untimed(PAGE, 64, b"w").unwrap();
    });
    rt.spawn("reader", move || {
        work(10);
        let mut b = [0u8; 1];
        hb.read_untimed(PAGE, 64, &mut b).unwrap();
    });
    let err = catch_unwind(AssertUnwindSafe(|| rt.run())).expect_err("read-write race");
    let msg = err.downcast_ref::<String>().expect("string panic");
    assert!(msg.contains("cache line 1"), "{msg}");
}

#[test]
fn arckfs_delegated_data_path_runs_clean() {
    // The real §4.5 shape: 64 KiB client writes go through the delegation
    // rings (every access that large delegates), and 64 B direct stores
    // hit the same lines, so client-actor stores and kernel-side
    // completions interleave on the same file. With every edge clocked,
    // the whole path must be race-free — this is the "cross-LibFS race
    // detector" acceptance run.
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let rd = Arc::new(RaceDetector::new());
    assert!(dev.set_race_detector(rd));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::default());

    let rt = SimRuntime::new(0xD1CE);
    rt.enable_race_detection();
    let k = Arc::clone(&kernel);
    rt.spawn("client", move || {
        k.delegation().start();
        let fd = fs.open("/data", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        let block = vec![0x5Au8; 64 * 1024];
        for i in 0..16u64 {
            let off = i * block.len() as u64;
            fs.pwrite(fd, off, &block).unwrap(); // delegated
            fs.pwrite(fd, off, &block[..64]).unwrap(); // direct, same lines
        }
        let mut out = vec![0u8; 4096];
        assert_eq!(fs.pread(fd, 0, &mut out).unwrap(), 4096);
        let s = k.path_stats().snapshot();
        assert_eq!(s.delegated_write_bytes, 16 * block.len() as u64, "every block delegated");
        fs.close(fd).unwrap();
        k.delegation().shutdown();
    });
    rt.run();
}

/// Patrol-scrub poison accounting: `poisoned_lines()` (the lock-free
/// counter) must track the exact poison-set length under concurrent
/// `poison_line` / `clear_poison` / `scrub_page` traffic — the counter
/// and the set move under one lock hold, so no interleaving may let them
/// drift. Mid-flight probes are sound because the sim scheduler only
/// preempts at sim operations, never between the two back-to-back reads.
#[test]
fn poison_accounting_is_race_free() {
    use trio_nvm::{CACHE_LINE, PAGE_SIZE};
    use trio_sim::rng::SimRng;
    use trio_sim::work;

    const LINES: u64 = (PAGE_SIZE / CACHE_LINE) as u64;
    for seed in [0x9015_0A11u64, 0x9015_0A12, 0x9015_0A13] {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let pages: Vec<PageId> = (100..104).map(PageId).collect();
        let rt = SimRuntime::new(seed);
        for t in 0..3u64 {
            let dev = Arc::clone(&dev);
            let pages = pages.clone();
            let name = ["poisoner", "clearer", "scrubber"][t as usize];
            rt.spawn(name, move || {
                let mut rng = SimRng::seed_from_u64(seed ^ t);
                for _ in 0..400 {
                    let page = pages[rng.gen_range(pages.len() as u64) as usize];
                    match t {
                        0 => dev.poison_line(page, rng.gen_range(LINES) as u16),
                        1 => {
                            let _ = dev.clear_poison(page, rng.gen_range(LINES) as u16);
                        }
                        _ => {
                            let _ = dev.scrub_page(page);
                        }
                    }
                    // Counter and set agree at every observable point.
                    assert_eq!(dev.poisoned_lines(), dev.poison_set_len());
                    work(1 + rng.gen_range(40));
                }
            });
        }
        rt.run();
        // Quiesced: the counter, the set, and a per-page recount agree.
        assert_eq!(dev.poisoned_lines(), dev.poison_set_len());
        let recount: usize = pages.iter().map(|p| dev.page_poisoned_lines(*p).len()).sum();
        assert_eq!(dev.poisoned_lines(), recount, "seed {seed:#x}");
    }
}
