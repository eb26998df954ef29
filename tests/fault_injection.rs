//! Delegation-thread and media-error fault injection: stalled or wedged
//! delegation threads must never hang a client (deadline + retry with
//! backoff, then graceful degradation to direct access), and poisoned
//! cache lines must surface as `FsError`s — never panics — and be
//! repairable by full-line overwrites.

use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::{FileSystem, FsError, Mode, OpenFlags};
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{DeviceConfig, FaultPlan, NvmDevice, PathStatsSnapshot, Topology};
use trio_sim::plock::Mutex;
use trio_sim::rng::with_rng;
use trio_sim::{Nanos, SimRuntime, MILLIS, SECONDS};

fn world(cfg: ArckFsConfig) -> (Arc<NvmDevice>, Arc<KernelController>, Arc<ArckFs>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, cfg);
    (dev, kernel, fs)
}

/// Delegation threads randomly stall past the client deadline and drop
/// requests outright. Every access still completes correctly — retries
/// cover transient faults, and after the attempt budget the client falls
/// back to non-delegated direct access.
#[test]
fn delegated_io_survives_stalls_and_drops() {
    let (_, kernel, fs) = world(ArckFsConfig::default());
    let rt = SimRuntime::new(31);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        k.delegation().start();
        // Stall 1-in-3 requests by 20ms (far past the 5ms deadline); drop
        // 1-in-4 without ever replying.
        k.delegation().inject_faults(3, 20 * MILLIS, 4);
        let t0 = trio_sim::now();
        let fd = fs.open("/big", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        let chunk = 64 * 1024; // every access this large delegates
        for i in 0..8u64 {
            let block: Vec<u8> = (0..chunk).map(|b| (b as u64 + i) as u8).collect();
            assert_eq!(fs.pwrite(fd, i * chunk as u64, &block).unwrap(), chunk);
        }
        for i in 0..8u64 {
            let mut buf = vec![0u8; chunk];
            assert_eq!(fs.pread(fd, i * chunk as u64, &mut buf).unwrap(), chunk);
            let want: Vec<u8> = (0..chunk).map(|b| (b as u64 + i) as u8).collect();
            assert_eq!(buf, want, "chunk {i} corrupted under delegation faults");
        }
        fs.close(fd).unwrap();
        // Bounded completion: deadlines + fallback, not unbounded waiting.
        assert!(
            trio_sim::now() - t0 < 5 * SECONDS,
            "faulted delegation took unreasonably long"
        );
        k.delegation().shutdown();
    });
    rt.run();
}

/// With every request dropped, all delegated attempts time out and the
/// client degrades to direct access — still correct, never hung.
#[test]
fn fully_wedged_delegation_pool_degrades_to_direct_access() {
    let (_, kernel, fs) = world(ArckFsConfig::default());
    let rt = SimRuntime::new(32);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        k.delegation().start();
        k.delegation().inject_faults(0, 0, 1); // Drop 1-in-1: total wedge.
        let fd = fs.open("/w", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        let data = vec![0x5Au8; 64 * 1024];
        assert_eq!(fs.pwrite(fd, 0, &data).unwrap(), data.len());
        let mut buf = vec![0u8; 64 * 1024];
        assert_eq!(fs.pread(fd, 0, &mut buf).unwrap(), buf.len());
        assert_eq!(buf, data);
        fs.close(fd).unwrap();
        k.delegation().shutdown();
    });
    rt.run();
}

/// The pool's breaker is the only thing that sheds load: one fallback
/// leaves no mark on the file it served. A 64 KiB write falls back under
/// a total wedge, the pool heals before the breaker trips, and the same
/// file's next 64 KiB write is delegated again.
#[test]
fn a_fallback_does_not_pin_the_file_to_direct_access() {
    let (_, kernel, fs) = world(ArckFsConfig::default());
    let rt = SimRuntime::new(37);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        let pool = k.delegation();
        pool.start();
        let data = vec![0x3Cu8; 64 * 1024];
        let fd = fs.open("/f", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        pool.inject_faults(0, 0, 1); // Drop 1-in-1: total wedge.
        assert_eq!(fs.pwrite(fd, 0, &data).unwrap(), data.len());
        let s = pool.stats().snapshot();
        assert_eq!(s.deleg_fallbacks, 1, "the wedged write falls back: {s:?}");
        assert!(!pool.degraded(), "one failed op must not trip the breaker");
        pool.inject_faults(0, 0, 0);
        assert_eq!(fs.pwrite(fd, 0, &data).unwrap(), data.len());
        let grown = pool.stats().snapshot().delegated_write_bytes - s.delegated_write_bytes;
        assert_eq!(grown, data.len() as u64, "the healed pool serves the same file again");
        fs.close(fd).unwrap();
        pool.shutdown();
    });
    rt.run();
}

/// A poisoned cache line in a file's data page surfaces as
/// `FsError::Corrupted` on reads and partial overwrites; a store covering
/// the whole line repairs the media and normal service resumes.
#[test]
fn poisoned_line_faults_reads_and_full_overwrite_repairs() {
    let (dev, _, fs) = world(ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(33);
    rt.spawn("main", move || {
        trio_fsapi::write_file(&*fs, "/p", &vec![0xCCu8; 4096]).unwrap();
        let (_, _, data) = fs.debug_file_pages("/p").unwrap();
        let page = data[0].unwrap();
        dev.poison_line(page, 2); // Bytes 128..192.
        assert_eq!(dev.poisoned_lines(), 1);
        let fd = fs.open("/p", OpenFlags::RDWR, Mode(0o666)).unwrap();
        // Reads overlapping the poisoned line fault...
        let mut buf = [0u8; 64];
        assert_eq!(fs.pread(fd, 128, &mut buf).err(), Some(FsError::Corrupted));
        assert_eq!(fs.pread(fd, 100, &mut buf).err(), Some(FsError::Corrupted));
        // ...but lines outside it still read fine.
        assert_eq!(fs.pread(fd, 0, &mut buf).unwrap(), 64);
        assert!(buf.iter().all(|&b| b == 0xCC));
        // A partial store cannot repair (it would have to read-modify-write
        // the dead line) and faults too.
        assert_eq!(fs.pwrite(fd, 130, b"xy").err(), Some(FsError::Corrupted));
        // A store covering the whole line rewrites the media and repairs.
        assert_eq!(fs.pwrite(fd, 128, &[0xDDu8; 64]).unwrap(), 64);
        assert_eq!(dev.poisoned_lines(), 0);
        let mut buf = [0u8; 64];
        assert_eq!(fs.pread(fd, 128, &mut buf).unwrap(), 64);
        assert!(buf.iter().all(|&b| b == 0xDD));
        fs.close(fd).unwrap();
    });
    rt.run();
}

/// Media errors propagate through the delegation path as structured
/// faults: the delegation thread's access trips the poison, the client
/// receives `Corrupted` — no retry storm, no panic, no hang.
#[test]
fn poison_surfaces_through_delegated_reads() {
    let (dev, kernel, fs) = world(ArckFsConfig::default());
    let rt = SimRuntime::new(34);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        k.delegation().start();
        let len = 64 * 1024;
        trio_fsapi::write_file(&*fs, "/dp", &vec![0xEEu8; len]).unwrap();
        let (_, _, data) = fs.debug_file_pages("/dp").unwrap();
        dev.poison_line(data[3].unwrap(), 5);
        let fd = fs.open("/dp", OpenFlags::RDWR, Mode(0o666)).unwrap();
        let mut buf = vec![0u8; len]; // Delegated (64 KiB always is).
        assert_eq!(fs.pread(fd, 0, &mut buf).err(), Some(FsError::Corrupted));
        // Repair by rewriting the whole poisoned page (delegated write).
        assert_eq!(fs.pwrite(fd, 3 * 4096, &vec![0xEEu8; 4096]).unwrap(), 4096);
        assert_eq!(fs.pread(fd, 0, &mut buf).unwrap(), len);
        assert!(buf.iter().all(|&b| b == 0xEE));
        fs.close(fd).unwrap();
        k.delegation().shutdown();
    });
    rt.run();
}

/// Error paths release their resources: a delegated read that faults on a
/// poisoned line, and a delegated *write* whose unaligned head partially
/// overlaps a poisoned line (too narrow to repair it), both surface
/// `Corrupted` to the client — and neither leaks a grant window. The
/// revocable-grant table must drain to zero on every failure path, or a
/// retry storm would exhaust it.
#[test]
fn poison_mid_delegation_releases_grants() {
    let (dev, kernel, fs) = world(ArckFsConfig::default());
    let rt = SimRuntime::new(35);
    let k = Arc::clone(&kernel);
    rt.spawn("main", move || {
        k.delegation().start();
        let len = 64 * 1024;
        trio_fsapi::write_file(&*fs, "/g", &vec![0xA7u8; len]).unwrap();
        assert_eq!(k.delegation().grants().live(), 0, "setup leaked a grant");
        let (_, _, data) = fs.debug_file_pages("/g").unwrap();
        dev.poison_line(data[2].unwrap(), 7);

        let fd = fs.open("/g", OpenFlags::RDWR, Mode(0o666)).unwrap();
        // Delegated read over the dead line: typed error, no leak.
        let mut buf = vec![0u8; len];
        assert_eq!(fs.pread(fd, 0, &mut buf).err(), Some(FsError::Corrupted));
        assert_eq!(k.delegation().grants().live(), 0, "failed read leaked its grant");

        // Delegated write, unaligned by half a cache line: its head only
        // partially covers line 7 of page 2, so the store trips the
        // poison instead of repairing it.
        let evil_off = 2 * 4096 + 7 * 64 + 32;
        let r = fs.pwrite(fd, evil_off as u64, &vec![0x11u8; len]);
        assert_eq!(r.err(), Some(FsError::Corrupted), "partial-line store must fault");
        assert_eq!(k.delegation().grants().live(), 0, "failed write leaked its grant");

        // A delegated write is not atomic across its page runs: workers on
        // clean pages may finish before the faulting run reports, so the
        // failed write can land partially. Repair is a full rewrite — the
        // aligned full-line stores clear the poison — and service resumes.
        assert_eq!(fs.pwrite(fd, 0, &vec![0xA7u8; len]).unwrap(), len);
        assert_eq!(fs.pread(fd, 0, &mut buf).unwrap(), len);
        assert!(buf.iter().all(|&b| b == 0xA7));
        assert_eq!(k.delegation().grants().live(), 0);
        fs.close(fd).unwrap();
        k.delegation().shutdown();
    });
    rt.run();
}

/// What one [`silent_run`] observed on the two clocks' inputs.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Virtual time when the workload's last op returned.
    end: Nanos,
    /// The kernel's data-path counters at that moment.
    stats: PathStatsSnapshot,
    /// The main thread's next RNG draw.
    next_draw: u64,
}

/// Delegated 64 KiB writes and reads plus a create/rename/unlink churn at
/// a fixed seed. `crash_at` null-arms every hook before the first op:
/// rates of zero, a stall length that must stay unused, and a crash plan
/// at a point the run never reaches. Returns what it observed and the
/// persistence points the device counted.
fn silent_run(track_persistence: bool, crash_at: Option<u64>) -> (Observed, u64) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        track_persistence,
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::default());
    let seen = Arc::new(Mutex::new(None));
    let out = Arc::clone(&seen);
    let rt = SimRuntime::new(36);
    rt.spawn("main", move || {
        let pool = kernel.delegation();
        pool.start();
        if let Some(point) = crash_at {
            pool.inject_faults(0, 5 * MILLIS, 0);
            dev.arm_crash_plan(FaultPlan::crash_at_point(point).with_torn_store());
        }
        let chunk = 64 * 1024;
        let fd = fs.open("/big", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        for i in 0..8u64 {
            assert_eq!(fs.pwrite(fd, i * chunk as u64, &vec![i as u8; chunk]).unwrap(), chunk);
        }
        let mut buf = vec![0u8; chunk];
        for i in 0..8u64 {
            assert_eq!(fs.pread(fd, i * chunk as u64, &mut buf).unwrap(), chunk);
        }
        fs.close(fd).unwrap();
        fs.mkdir("/d", Mode(0o777)).unwrap();
        for i in 0..16 {
            let (from, to) = (format!("/d/f{i}"), format!("/d/g{i}"));
            trio_fsapi::write_file(&*fs, &from, b"churn").unwrap();
            fs.rename(&from, &to).unwrap();
            fs.unlink(&to).unwrap();
        }
        assert_eq!(dev.crash_plan_fired(), None, "the plan sits past the run's last point");
        let observed = Observed {
            end: trio_sim::now(),
            stats: kernel.path_stats().snapshot(),
            next_draw: with_rng(|r| r.next_u64()),
        };
        *out.lock() = Some((observed, dev.persistence_points()));
        pool.shutdown();
        // Delegated and direct writes, metadata churn: a clean persistence
        // order (vacuously so on the untracked device).
        dev.take_sanitize_report(36).expect_clean("silent_run");
    });
    rt.run();
    let observed = seen.lock().take().expect("main ran to completion");
    observed
}

/// The property the `faults` cargo feature used to stand in for: hooks
/// that are compiled in but not armed never touch the clock or the RNG
/// stream. Three runs of one seeded workload must agree on end time,
/// counters and next RNG draw: on a device without the persistence
/// tracker (no persistence hook executes at all), with the tracker and
/// nothing armed, and with every hook null-armed. A hook that consults an
/// arming parameter outside its guard, or a persistence hook that charges
/// time or draws at all, splits them. (A cost every run pays alike —
/// say a `work(1)` on the delegation pop path — is invisible to any
/// in-process comparison; verify.sh catches that one by `cmp`-ing the
/// regenerated `BENCH_datapath.json` with the committed ledger.)
#[test]
fn unarmed_hooks_touch_neither_clock_nor_rng() {
    let (untracked, no_points) = silent_run(false, None);
    let (tracked, points) = silent_run(true, None);
    assert!(points > 0 && no_points == 0, "only the tracked device counts points");
    let null_armed = silent_run(true, Some(points));
    assert_eq!(null_armed, (tracked, points), "null-armed hooks moved the clock, a counter or the RNG");
    assert_eq!(untracked, null_armed.0, "the tracker's unarmed hooks moved them");
}
