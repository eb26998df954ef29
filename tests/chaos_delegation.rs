//! Chaos sweep for delegation failure domains (DESIGN.md §16).
//!
//! Each iteration builds a fresh 2-node world with a small delegation
//! pool, arms a deterministic worker-kill plan (a request index drawn from
//! the iteration's seed, a kill point cycling with the iteration number),
//! optionally layers stall
//! injection on top, and drives three concurrent LibFS clients through
//! overlapping delegated writes and reads. The gates:
//!
//! - **No hangs**: the simulation's deadlock detector would panic if any
//!   client blocked forever; every op completes within its retry budget
//!   (or falls back to direct access) so `rt.run()` returns.
//! - **No lost or stale writes**: each client replays its write sequence
//!   against an in-DRAM model and the final file contents must match byte
//!   for byte — a straggling copy of a retried request applied after a
//!   newer overlapping write would diverge here.
//! - **Recovery**: every worker death is matched by a restart, and
//!   recovery latencies are recorded for the report. The client's retry
//!   is the one way a dead worker's request gets served again; the report
//!   counts those retries.
//!
//! Every iteration replays from its `(seed, iteration)` case alone
//! (`tests/common/campaign.rs`): a failure prints the line that replays
//! it. `TRIO_ITERS` sets the sweep width (default 500), and the sweep
//! writes its counters and recovery-latency percentiles to
//! `target/chaos_sweep-report.json`.

mod common;

use std::sync::Arc;

use arckfs::attack::{run_attack, Attack};
use arckfs::{ArckFs, ArckFsConfig};
use common::campaign::{self, Case, Tally};
use trio_fsapi::{read_file, write_file, FileSystem, Mode, OpenFlags};
use trio_kernel::registry::KernelEvent;
use trio_kernel::{KernelConfig, KernelController};
use trio_kernel::delegation::{WorkerKillPlan, WorkerKillPoint};
use trio_nvm::{DeviceConfig, NvmDevice, Topology};
use trio_sim::rng::SimRng;
use trio_sim::{work, RaceDetector, SimRuntime, MILLIS};

const CHAOS_SEED: u64 = 0xC4A0_05ED;
const CLIENTS: u64 = 3;
const OPS_PER_CLIENT: u64 = 6;
/// Large enough that every access delegates.
const CHUNK: usize = 64 * 1024;
/// Each client's file is 4 chunks; ops overwrite overlapping regions so
/// a stale re-applied request would clobber newer data and fail the
/// model check.
const REGIONS: u64 = 4;

fn world() -> (Arc<KernelController>, Vec<Arc<ArckFs>>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(2, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(
        dev,
        KernelConfig { delegation_threads_per_node: 2, ..KernelConfig::default() },
    );
    let fses = (0..CLIENTS)
        .map(|c| {
            ArckFs::mount(Arc::clone(&kernel), 1000 + c as u32, 1000, ArckFsConfig::default())
        })
        .collect();
    (kernel, fses)
}

/// One replayable chaos iteration: kill coordinates drawn from the case,
/// concurrent clients, per-client model check inside the sim, counters
/// collected after it drains.
fn chaos_one(case: Case) -> Tally {
    let mut rng = case.rng();
    // Kill coordinates: which pop of the global request stream dies, and
    // at which point in the worker's lifecycle. ~36 requests flow per
    // iteration (writes + readbacks), so an index in 0..24 nearly always
    // fires while traffic is still in flight.
    let kill_req = rng.gen_range(24);
    let kill_point = WorkerKillPoint::ALL[(case.iter % 3) as usize];
    let stall = case.iter % 2 == 1;

    let (kernel, fses) = world();
    let rt = SimRuntime::new(case.sub_seed());
    let k = Arc::clone(&kernel);
    // Each client draws its ops from a stream of its own, so what it
    // writes does not depend on how the clients interleave.
    let streams: Vec<SimRng> = fses.iter().map(|_| SimRng::seed_from_u64(rng.next_u64())).collect();
    rt.spawn("chaos-boot", move || {
        k.delegation().start();
        k.delegation().arm_worker_kill(WorkerKillPlan::kill_at(kill_req, kill_point));
        if stall {
            // Stalls past the 5ms base deadline force retries alongside
            // the kill — backpressure and death interleave.
            k.delegation().inject_faults(5, 8 * MILLIS, 0);
        }
        let handles: Vec<_> = fses
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(c, (fs, mut ops))| {
                trio_sim::spawn(&format!("chaos-client-{c}"), move || {
                    let path = format!("/chaos-{c}");
                    let fd = fs
                        .open(&path, OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666))
                        .unwrap();
                    // Base pass sizes the file so the final readback
                    // always covers every region.
                    let mut model = vec![c as u8; REGIONS as usize * CHUNK];
                    assert_eq!(fs.pwrite(fd, 0, &model).unwrap(), model.len());
                    // Half the ops go through a live grant window (the
                    // zero-copy registered-buffer lane), updated in place
                    // between ops — so every kill point and stall also
                    // fires while a grant is pinned, and a stale grant
                    // epoch re-applied late would diverge from the model.
                    let reg = fs.register_write_buffer(&model[..CHUNK]).unwrap();
                    for j in 0..OPS_PER_CLIENT {
                        let off = ops.gen_range(REGIONS) as usize * CHUNK;
                        let fill = ops.next_u64() as u8;
                        let block: Vec<u8> =
                            (0..CHUNK).map(|b| fill.wrapping_add(b as u8)).collect();
                        if j % 2 == 0 {
                            fs.update_write_buffer(reg, &block).unwrap();
                            assert_eq!(
                                fs.pwrite_registered(fd, off as u64, reg, 0, CHUNK).unwrap(),
                                CHUNK
                            );
                        } else {
                            assert_eq!(fs.pwrite(fd, off as u64, &block).unwrap(), CHUNK);
                        }
                        model[off..off + CHUNK].copy_from_slice(&block);
                    }
                    fs.unregister_write_buffer(reg).unwrap();
                    // Full readback through the (still chaotic) delegated
                    // read path: lost or stale-reapplied writes diverge.
                    let mut got = vec![0u8; model.len()];
                    assert_eq!(fs.pread(fd, 0, &mut got).unwrap(), got.len());
                    if got != model {
                        let first = got.iter().zip(&model).position(|(a, b)| a != b).unwrap();
                        let last = got
                            .iter()
                            .zip(&model)
                            .rposition(|(a, b)| a != b)
                            .unwrap();
                        panic!(
                            "client {c}: delegated state diverged from model; \
                             first diff @ {first} (got {:#x} want {:#x}), last diff @ {last} \
                             (got {:#x} want {:#x}), span {} bytes",
                            got[first],
                            model[first],
                            got[last],
                            model[last],
                            last - first + 1
                        );
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

    campaign::oracle_tail(&kernel, case);
    let s = kernel.delegation().stats().snapshot();
    assert_eq!(s.worker_deaths, s.worker_restarts, "a dead worker was never restarted");
    let recovery_ns = kernel.delegation().take_recovery_latencies();
    assert_eq!(
        recovery_ns.len() as u64,
        s.worker_deaths,
        "every death must record a recovery latency"
    );
    let mut t = Tally::default();
    t.add("worker_deaths", s.worker_deaths);
    t.add("worker_restarts", s.worker_restarts);
    t.add("retries", s.deleg_retries);
    t.add("fallbacks", s.deleg_fallbacks);
    t.add("degraded_enters", s.degraded_enters);
    t.add("degraded_exits", s.degraded_exits);
    t.samples("recovery_ns", recovery_ns);
    t
}

/// The sweep: `TRIO_ITERS` iterations (default 500) of [`chaos_one`].
#[test]
fn chaos_sweep_worker_kills_under_concurrent_traffic() {
    let t = campaign::seeded("chaos_sweep", CHAOS_SEED, 500, chaos_one);
    // The sweep must actually exercise the failure domain: kills fire in
    // nearly every iteration.
    let deaths = t.get("worker_deaths");
    assert!(
        deaths >= t.get("iterations") / 2,
        "sweep exercised too few kills: {deaths} deaths in {} iterations",
        t.get("iterations")
    );
    assert_eq!(deaths, t.get("worker_restarts"), "unrecovered worker deaths");
}

/// Replayability: the same case yields the same tally — counters and
/// recovery latencies. (The final state needs no digest: every client
/// asserts it equals its model, and the model is a function of the case.)
#[test]
fn chaos_iteration_is_deterministic_and_replayable() {
    campaign::assert_replays(CHAOS_SEED, &[0, 1, 5], chaos_one);
}

/// The campaign driver's failure path: a campaign whose iteration 3
/// panics still writes its report, with that iteration's replay line in
/// it, and then fails naming the same line.
#[test]
fn campaign_self_test_reports_a_failed_iteration_by_its_replay_line() {
    let line = "TRIO_SEED=7 TRIO_ITER=3 cargo test --release --test chaos_delegation \
                campaign_self_test: synthetic failure";
    let run = std::panic::catch_unwind(|| {
        campaign::run("campaign_self_test", 7, 0..5, |case| {
            if case.iter == 3 {
                panic!("synthetic failure");
            }
            Tally::default()
        })
    });
    let panic = run.expect_err("a failed iteration must fail the run");
    let msg = panic.downcast_ref::<String>().expect("the campaign driver's assertion message");
    assert!(msg.contains("1 of 5 iterations failed") && msg.contains(line), "{msg}");
    let report = std::fs::read_to_string("target/campaign_self_test-report.json").unwrap();
    assert!(report.contains("\"iterations\": 5") && report.contains(line), "{report}");
}

/// One client writes four chunks and reads them back, with `kill`
/// armed on the second pop (the first write proves the healthy path, the
/// second rides through death and recovery). Returns the kernel once the
/// sim has drained.
fn kill_point_run(seed: u64, kill: Option<WorkerKillPoint>) -> Arc<KernelController> {
    let (kernel, fses) = world();
    let rt = SimRuntime::new(seed);
    let k = Arc::clone(&kernel);
    let fs = Arc::clone(&fses[0]);
    rt.spawn("kill-point", move || {
        k.delegation().start();
        if let Some(point) = kill {
            k.delegation().arm_worker_kill(WorkerKillPlan::kill_at(1, point));
        }
        let fd = fs.open("/kp", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        for j in 0..4u64 {
            let block = vec![j as u8 + 1; CHUNK];
            assert_eq!(fs.pwrite(fd, j * CHUNK as u64, &block).unwrap(), CHUNK);
        }
        let mut got = vec![0u8; 4 * CHUNK];
        assert_eq!(fs.pread(fd, 0, &mut got).unwrap(), got.len());
        for j in 0..4usize {
            assert!(
                got[j * CHUNK..(j + 1) * CHUNK].iter().all(|&b| b == j as u8 + 1),
                "chunk {j} corrupted across a {kill:?} kill"
            );
        }
        fs.close(fd).unwrap();
        k.delegation().shutdown();
    });
    rt.run();
    kernel
}

/// Every kill point is survivable on its own, and recovery has one path:
/// against a fault-free twin of the same single-client run, the kill
/// costs exactly one extra pop — the client's one retry of the lost
/// batch. Nothing else re-sends it, no copy hits a revoked window, and
/// the op never falls back to direct access.
#[test]
fn each_kill_point_recovers_through_one_client_retry() {
    for (idx, point) in WorkerKillPoint::ALL.into_iter().enumerate() {
        let seed = 0xD1E + idx as u64;
        let twin = kill_point_run(seed, None).delegation().requests_served();
        let kernel = kill_point_run(seed, Some(point));
        assert_eq!(
            kernel.delegation().requests_served(),
            twin + 1,
            "{}: a kill must cost exactly the client's one re-sent batch",
            point.as_str()
        );
        let s = kernel.delegation().stats().snapshot();
        assert_eq!(
            (s.deleg_retries, s.deleg_fallbacks, s.grant_faults),
            (1, 0, 0),
            "{}: (retries, fallbacks, grant faults)",
            point.as_str()
        );
        assert_eq!(s.worker_deaths, 1, "{} kill never fired", point.as_str());
        assert_eq!(s.worker_restarts, 1, "{} kill never recovered", point.as_str());
        let events = kernel.take_events();
        assert!(
            events.iter().any(|e| matches!(e, KernelEvent::WorkerDied { .. })),
            "{}: no WorkerDied event",
            point.as_str()
        );
        assert!(
            events.iter().any(|e| matches!(e, KernelEvent::WorkerRestarted { .. })),
            "{}: no WorkerRestarted event",
            point.as_str()
        );
    }
}

/// A worker killed in the middle of reading payload bytes out of a live
/// grant window must not strand the grant: the pinned pass is unwound,
/// the op completes through the client's retry on a surviving worker, and
/// a subsequent in-place buffer update (epoch bump) plus write must land
/// the *new* bytes — a zombie pass applying the old epoch after that
/// point would be a stale-grant read.
#[test]
fn worker_death_mid_grant_read_leaves_no_stale_grant_state() {
    let (kernel, fses) = world();
    let rt = SimRuntime::new(0x6AA7);
    let k = Arc::clone(&kernel);
    let fs = Arc::clone(&fses[0]);
    rt.spawn("grant-kill", move || {
        k.delegation().start();
        let fd = fs.open("/grant-kill", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        let base = vec![0x11u8; 2 * CHUNK];
        assert_eq!(fs.pwrite(fd, 0, &base).unwrap(), base.len());
        let stats = Arc::clone(k.path_stats());
        let granted_base = stats.snapshot();

        let gen1 = vec![0xA1u8; CHUNK];
        let buf = fs.register_write_buffer(&gen1).unwrap();
        // The very next pop is the first batch of the granted write: the
        // worker dies while its pass is pinned to the grant.
        k.delegation().arm_worker_kill(WorkerKillPlan::kill_at(
            k.delegation().requests_served() + 1,
            WorkerKillPoint::MidPayload,
        ));
        assert_eq!(fs.pwrite_registered(fd, 0, buf, 0, CHUNK).unwrap(), CHUNK);

        // The grant survived the death; mutate it in place (epoch bump —
        // the update spins until every pinned pass drains) and write the
        // second region through the new epoch.
        let gen2 = vec![0xB2u8; CHUNK];
        fs.update_write_buffer(buf, &gen2).unwrap();
        assert_eq!(fs.pwrite_registered(fd, CHUNK as u64, buf, 0, CHUNK).unwrap(), CHUNK);
        fs.unregister_write_buffer(buf).unwrap();

        let mut got = vec![0u8; 2 * CHUNK];
        assert_eq!(fs.pread(fd, 0, &mut got).unwrap(), got.len());
        assert!(
            got[..CHUNK].iter().all(|&b| b == 0xA1),
            "region 0 lost or stale after a mid-grant-read worker death"
        );
        assert!(
            got[CHUNK..].iter().all(|&b| b == 0xB2),
            "region 1 carries a stale grant epoch"
        );
        fs.close(fd).unwrap();
        let granted = stats.snapshot().delta(&granted_base);
        assert_eq!(
            granted.payload_copies, 0,
            "granted ops must stay zero-copy across death and retry: {granted:?}"
        );
        k.delegation().shutdown();
    });
    rt.run();
    let s = kernel.delegation().stats().snapshot();
    assert_eq!(s.worker_deaths, 1, "the kill must fire during the granted pass");
    assert_eq!(s.worker_restarts, 1, "and be recovered");
}

/// Client retry racing a stalled first copy while the grant stays live:
/// stalls past the op deadline put two copies of the same granted
/// request in flight, both carrying the bytes of one op-window snapshot.
/// Once the op returns, the revocation barrier guarantees no straggler
/// still holds the old window — so an immediate epoch-bumped overwrite of
/// the same region must win and stay won.
#[test]
fn client_retry_racing_a_stalled_copy_applies_live_grant_once_for_good() {
    let (kernel, fses) = world();
    let rt = SimRuntime::new(0x6AA8);
    let k = Arc::clone(&kernel);
    let fs = Arc::clone(&fses[0]);
    rt.spawn("grant-race", move || {
        k.delegation().start();
        let fd = fs.open("/grant-race", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        let base = vec![0x22u8; CHUNK];
        assert_eq!(fs.pwrite(fd, 0, &base).unwrap(), base.len());

        let gen1 = vec![0xC3u8; CHUNK];
        let buf = fs.register_write_buffer(&gen1).unwrap();
        // Stall the next requests past the 5 ms base deadline: the client
        // retries while the stalled original is still queued — both
        // copies resolve the same live grant.
        k.delegation().inject_faults(5, 8 * MILLIS, 0);
        assert_eq!(fs.pwrite_registered(fd, 0, buf, 0, CHUNK).unwrap(), CHUNK);
        k.delegation().inject_faults(0, 0, 0);

        // Same region, new epoch: if the racing duplicate were applied
        // after this (stale-grant read), the readback would see 0xC3.
        let gen2 = vec![0xD4u8; CHUNK];
        fs.update_write_buffer(buf, &gen2).unwrap();
        assert_eq!(fs.pwrite_registered(fd, 0, buf, 0, CHUNK).unwrap(), CHUNK);
        fs.unregister_write_buffer(buf).unwrap();

        let mut got = vec![0u8; CHUNK];
        assert_eq!(fs.pread(fd, 0, &mut got).unwrap(), got.len());
        assert!(
            got.iter().all(|&b| b == 0xD4),
            "stale grant epoch re-applied after the racing retry resolved"
        );
        fs.close(fd).unwrap();
        k.delegation().shutdown();
    });
    rt.run();
    let s = kernel.delegation().stats().snapshot();
    assert!(
        s.deleg_retries >= 1,
        "the stall must force at least one client retry: {s:?}"
    );
    assert_eq!(s.worker_deaths, 0, "no kill armed: stalls only");
}

/// The quarantine lifecycle is its own failure domain: one LibFS
/// corrupts shared state, is quarantined, repaired, and re-admitted —
/// all *while* two other LibFSes keep issuing delegated writes to
/// adjacent files, with the cross-LibFS race detector armed and a worker
/// kill thrown in. Gates: the run is race-free (the detector would
/// abort), the offender completes the full lifecycle, and the bystander
/// files come through byte-perfect.
///
/// All namespace mutation (creates, file sizing — the dirent stores) is
/// serialized in the boot thread before the concurrent phase starts; the
/// bystanders then issue only in-place delegated overwrites, the
/// sanctioned lock-free sharing pattern, so every surviving cross-actor
/// access must be ordered by the kernel's clocked primitives.
#[test]
fn quarantine_repairs_and_readmits_under_live_delegated_traffic() {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        ..DeviceConfig::small()
    }));
    assert!(dev.set_race_detector(Arc::new(RaceDetector::new())));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let evil = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let auditor = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let writers: Vec<Arc<ArckFs>> = (0..2)
        .map(|c| {
            ArckFs::mount(Arc::clone(&kernel), 2000 + c, 2000, ArckFsConfig::default())
        })
        .collect();

    let rt = SimRuntime::new(0x0_B5E55ED);
    rt.enable_race_detection();
    let k = Arc::clone(&kernel);
    rt.spawn("quarantine-live", move || {
        k.delegation().start();

        // --- Setup, single-threaded: every dirent-touching operation
        // (creates, extensions) happens before any concurrency exists.
        let evil_actor = evil.actor();
        evil.mkdir("/dir", Mode(0o777)).unwrap();
        write_file(&*evil, "/dir/victim", &vec![7u8; CHUNK]).unwrap();
        evil.release_path("/dir").unwrap();
        let _ = auditor.readdir("/dir").unwrap();
        let _ = read_file(&*auditor, "/dir/victim").unwrap();
        // Re-acquire write grants (checkpointing the clean state)...
        let fd = evil.open("/dir/victim", OpenFlags::RDWR, Mode(0o666)).unwrap();
        evil.pwrite(fd, 0, &[7u8]).unwrap();
        evil.close(fd).unwrap();
        // ...and size each bystander file to its final extent.
        let staged: Vec<_> = writers
            .into_iter()
            .enumerate()
            .map(|(c, fs)| {
                let path = format!("/bystander-{c}");
                let fd =
                    fs.open(&path, OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
                let base = vec![c as u8; 3 * CHUNK];
                assert_eq!(fs.pwrite(fd, 0, &base).unwrap(), base.len());
                (c, fs, fd)
            })
            .collect();

        // --- Concurrent phase. One worker dies mid-traffic: watchdog
        // recovery and quarantine repair overlap, and both must stay
        // race-free.
        // Arm relative to the live pop counter: the staging writes above
        // fan out into a setup-dependent number of batches, so an absolute
        // index could land before the concurrent phase even starts.
        k.delegation().arm_worker_kill(WorkerKillPlan::kill_at(
            k.delegation().requests_served() + 3,
            WorkerKillPoint::MidPayload,
        ));
        let handles: Vec<_> = staged
            .into_iter()
            .map(|(c, fs, fd)| {
                trio_sim::spawn(&format!("bystander-{c}"), move || {
                    for j in 0..10u64 {
                        let block = vec![(c as u8) << 4 | j as u8; CHUNK];
                        assert_eq!(fs.pwrite(fd, (j % 3) * CHUNK as u64, &block).unwrap(), CHUNK);
                        work(MILLIS);
                    }
                    let mut got = vec![0u8; CHUNK];
                    for r in 0..3u64 {
                        assert_eq!(fs.pread(fd, r * CHUNK as u64, &mut got).unwrap(), CHUNK);
                        let want = got[0];
                        assert!(
                            got.iter().all(|&b| b == want),
                            "bystander {c}: region {r} torn by quarantine traffic"
                        );
                    }
                    fs.close(fd).unwrap();
                })
            })
            .collect();

        // The offender corrupts and releases; the auditor's remap detects
        // it, quarantines, repairs, and re-admits — all mid-traffic.
        work(2 * MILLIS);
        run_attack(&evil, Attack::IndexCycle, "/dir", "victim").unwrap();
        let _ = evil.release_path("/dir/victim");
        let _ = evil.release_path("/dir");
        let _ = auditor.readdir("/dir");
        let _ = read_file(&*auditor, "/dir/victim");

        for h in handles {
            h.join();
        }
        k.delegation().shutdown();

        let events = k.take_events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, KernelEvent::Quarantined { actor, .. } if *actor == evil_actor)),
            "offender must be quarantined"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, KernelEvent::Readmitted { actor } if *actor == evil_actor)),
            "offender must be repaired and re-admitted"
        );
        assert!(k.quarantined_actors().is_empty(), "nothing may stay quarantined");
        // Re-admission is real while the pool is still up.
        evil.create("/dir/after-readmit", Mode(0o666)).unwrap();
        evil.unlink("/dir/after-readmit").unwrap();
    });
    rt.run();
    let s = kernel.delegation().stats().snapshot();
    assert_eq!(s.worker_deaths, 1, "the armed kill must fire during the lifecycle");
    assert_eq!(s.worker_restarts, 1, "and recover");
}

/// Graceful degradation end to end: a fully wedged pool trips the
/// circuit breaker (visible in kernel stats, events, and the obs
/// timeline), direct access keeps ops flowing, and once the pool heals
/// the probe stream re-promotes delegation.
#[test]
fn degraded_mode_enters_and_recovers_visibly() {
    let (kernel, fses) = world();
    let rt = SimRuntime::new(0xDE6);
    let k = Arc::clone(&kernel);
    let fs = Arc::clone(&fses[0]);
    rt.spawn("degrade", move || {
        k.delegation().start();
        k.delegation().inject_faults(0, 0, 1); // Drop everything: wedge.
        let block = vec![0xABu8; CHUNK];
        // Every write goes to one file: each op exhausts its retry budget,
        // falls back to direct access and counts one consecutive pool
        // failure; the breaker opens on the third.
        let fd = fs.open("/deg", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        let wr = |j: u64| {
            assert_eq!(fs.pwrite(fd, (j % REGIONS) * CHUNK as u64, &block).unwrap(), CHUNK);
        };
        for op in 0..3 {
            assert!(!k.delegation().degraded(), "breaker opened after {op} failed ops");
            wr(op);
        }
        assert!(k.delegation().degraded(), "breaker must open on the third failed op");
        assert!(k.degraded_mode().active, "kernel stats must surface DegradedMode");
        // Degraded ops route direct and stay correct.
        for j in 0..8u64 {
            wr(j);
        }
        // Heal the pool; probe traffic (1 in 16 eligible ops) must
        // re-promote after enough successes.
        k.delegation().inject_faults(0, 0, 0);
        let mut probes = 0u64;
        while k.delegation().degraded() {
            wr(probes);
            probes += 1;
            assert!(probes <= 4096, "pool never recovered after faults were cleared");
        }
        fs.close(fd).unwrap();
        k.delegation().shutdown();
    });
    rt.run();

    let dm = kernel.degraded_mode();
    assert!(!dm.active, "pool must have re-promoted");
    assert_eq!(dm.enters, 1, "exactly one degraded episode");
    assert_eq!(dm.exits, 1, "exactly one recovery");
    let s = kernel.delegation().stats().snapshot();
    assert_eq!(s.degraded_enters, 1);
    assert_eq!(s.degraded_exits, 1);
    assert!(s.deleg_fallbacks >= 3, "fallbacks fed the breaker");
    let events = kernel.take_events();
    assert!(events.iter().any(|e| matches!(e, KernelEvent::DelegationDegraded)));
    assert!(events.iter().any(|e| matches!(e, KernelEvent::DelegationRecovered)));
    // The transition must be visible in the obs timeline as failover
    // spans (degraded-enter opens, degraded-exit closes).
    #[cfg(feature = "obs")]
    {
        let j = trio_obs::timeline_json("chaos-degraded");
        assert!(
            j.contains("\"stage\": \"failover\""),
            "degraded transitions missing from the obs timeline"
        );
    }
}
