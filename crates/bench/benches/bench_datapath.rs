//! Data-path smoke bench: the numbers behind `BENCH_datapath.json` and
//! the CI perf gate in `scripts/verify.sh`.
//!
//! Two quick, fully deterministic scenarios (fixed seed, virtual time):
//!
//! 1. **Delegated-write latency** — 64 KiB writes (always delegated) from
//!    a handful of threads over 8 nodes. Mean virtual ns per op is the
//!    gate metric: it moves whenever the batched submission path, the
//!    ring protocol, or the device model regress, and it is immune to
//!    host noise because it is simulated time.
//! 2. **Loaded multi-phase run** — three phases against one live kernel:
//!    the fig6(f) 4 KiB-write shape at one thread count (headline
//!    throughput), a delegated 64 KiB read phase (the read lane of the
//!    same grant-window machinery), and a truncate/re-extend churn phase
//!    that exercises the per-actor free-page cache. The final
//!    [`PathStats`] snapshot must show zero payload copies, checksummed
//!    bytes equal to delegated write bytes, delegated read traffic, and
//!    a live free cache.
//!
//! Output: human-readable lines on stdout, JSON to `$TRIO_BENCH_OUT`
//! (default `BENCH_datapath.json` in the current directory).

use std::sync::Arc;

use trio_bench::World;
use trio_fsapi::{FileSystem, Mode, OpenFlags};
use trio_workloads::fio::{Fio, FioOp};
use trio_workloads::{OpCount, Workload};

/// Truncate/re-extend churn: each thread repeatedly fills a private file
/// through a registered grant window (no payload bytes on submit), then
/// truncates it to zero. The truncate path parks the freed pages in the
/// actor's scrubbed allocator cache, and the next round's extension
/// allocates straight out of it — so a healthy run shows `free_cached`,
/// `free_spills`, and a fast-path allocator hit rate in the snapshot.
struct Churn {
    /// Bytes each round writes before truncating.
    file_bytes: u64,
    /// Fill-then-truncate rounds per thread.
    rounds: u32,
}

impl Workload for Churn {
    fn setup(&self, _fs: &dyn FileSystem, _threads: usize) {}

    fn run_thread(&self, fs: &dyn FileSystem, thread: usize) -> OpCount {
        let path = format!("/churn-{thread}");
        let chunk = vec![0x5Cu8; (1 << 20).min(self.file_bytes as usize)];
        let reg = fs.register_write_buffer(&chunk).expect("churn grant");
        let mut bytes = 0u64;
        for _ in 0..self.rounds {
            let fd = fs
                .open(&path, OpenFlags::CREATE | OpenFlags::WRONLY, Mode::RW)
                .expect("churn open");
            let mut off = 0u64;
            while off < self.file_bytes {
                let n = chunk.len().min((self.file_bytes - off) as usize);
                fs.pwrite_registered(fd, off, reg, 0, n).expect("churn write");
                off += n as u64;
            }
            bytes += off;
            fs.close(fd).expect("churn close");
            // Frees every data page; the kernel parks them in this
            // actor's allocator cache for the next round's extension.
            fs.truncate(&path, 0).expect("churn truncate");
        }
        fs.unregister_write_buffer(reg).expect("churn unregister");
        OpCount { ops: self.rounds as u64, bytes }
    }

    fn name(&self) -> String {
        "churn-truncate-extend".into()
    }
}

fn main() {
    println!("# Data-path smoke bench (virtual time, seed 42)");

    // Scenario 1: the gate metric.
    #[cfg(feature = "obs")]
    let obs_base = trio_obs::snapshot();
    let world = World::build("ArckFS", 8, 64 * 1024);
    let stats = world.path_stats().expect("ArckFS world has a kernel");
    let wl = Arc::new(Fio {
        op: FioOp::Write,
        block: 64 * 1024,
        file_bytes: 8 << 20,
        ops_per_thread: 128,
    });
    let threads = 8;
    let m = world.measure(wl, threads, 42);
    let deleg_snap = stats.snapshot();
    // Total thread-time over total ops = mean per-op latency.
    let deleg_write_ns_per_op = m.elapsed_ns as f64 * threads as f64 / m.ops as f64;
    println!("delegated 64KiB write      {deleg_write_ns_per_op:>10.0} ns/op ({} ops)", m.ops);
    println!("#   {}", deleg_snap.summary_line());
    assert!(
        deleg_snap.delegated_write_bytes > 0,
        "64 KiB writes must take the delegated path"
    );
    #[cfg(feature = "obs")]
    let obs_base = {
        let snap = trio_obs::snapshot();
        for line in snap.delta(&obs_base).table_lines() {
            println!("# obs {line}");
        }
        snap
    };

    // Scenario 2: three phases against one live kernel — loaded small
    // writes (fig6(f) shape at one rung), delegated 64 KiB reads, then
    // truncate/re-extend churn over the free-page cache.
    let world = World::build("ArckFS", 8, 128 * 1024);
    let stats = world.path_stats().expect("ArckFS world has a kernel");
    let threads = 112;
    let read_threads = 8;
    let phases: Vec<(Arc<dyn Workload>, usize)> = vec![
        (
            Arc::new(Fio { op: FioOp::Write, block: 4096, file_bytes: 4 << 20, ops_per_thread: 192 }),
            threads,
        ),
        // The read phase reuses the first 8 fio files prefilled above
        // (Fio::setup skips existing files), so every read is over a
        // fully mapped 4 MiB extent.
        (
            Arc::new(Fio {
                op: FioOp::Read,
                block: 64 * 1024,
                file_bytes: 4 << 20,
                ops_per_thread: 128,
            }),
            read_threads,
        ),
        (Arc::new(Churn { file_bytes: 4 << 20, rounds: 4 }), read_threads),
    ];
    let ms = world.measure_phases(phases, 42);
    let loaded_snap = stats.snapshot();
    let w4k_gib_s = ms[0].gib_per_sec();
    let deleg_read_ns_per_op = ms[1].elapsed_ns as f64 * read_threads as f64 / ms[1].ops as f64;
    println!("4KiB write @{threads}t, 8 nodes  {w4k_gib_s:>10.2} GiB/s");
    println!(
        "delegated 64KiB read       {deleg_read_ns_per_op:>10.0} ns/op ({} ops)",
        ms[1].ops
    );
    println!("churn @{read_threads}t                  {:>10.2} GiB moved", ms[2].bytes as f64 / (1u64 << 30) as f64);
    println!("#   {}", loaded_snap.summary_line());
    assert!(
        loaded_snap.delegated_read_bytes > 0,
        "64 KiB reads must take the delegated path"
    );
    assert!(
        loaded_snap.free_cached > 0,
        "churn truncates must park freed pages in the actor cache"
    );
    assert_eq!(
        loaded_snap.payload_copies, 0,
        "registered writes must not materialize payloads on the submit path"
    );
    assert_eq!(
        loaded_snap.checksummed_bytes, loaded_snap.delegated_write_bytes,
        "every delegated write byte must be checksummed inline"
    );
    // No fault is armed, so the failure-domain machinery must not fire:
    // a nonzero counter is the watchdog adding work to healthy I/O.
    assert_eq!(
        [
            loaded_snap.worker_deaths,
            loaded_snap.worker_restarts,
            loaded_snap.degraded_enters,
            loaded_snap.degraded_exits,
        ],
        [0; 4],
        "watchdog counters moved in a fault-free run: {loaded_snap:?}"
    );
    // Refills, frees, spills and grant churn run without the registry
    // control lock (DESIGN.md §20); the counter sums the hot sites only.
    assert!(
        loaded_snap.registry_locks <= 10,
        "registry_locks = {} on the data path (budget 10)",
        loaded_snap.registry_locks
    );

    let json = loaded_snap.to_json(&[
        ("delegated_write_ns_per_op", format!("{deleg_write_ns_per_op:.0}")),
        ("delegated_read_ns_per_op", format!("{deleg_read_ns_per_op:.0}")),
        ("w4k_112t_gib_s", format!("{w4k_gib_s:.3}")),
        ("gate_threads", threads.to_string()),
    ]);
    let out = std::env::var("TRIO_BENCH_OUT").unwrap_or_else(|_| "BENCH_datapath.json".into());
    std::fs::write(&out, format!("{json}\n")).expect("write bench json");
    println!("# wrote {out}");

    // With obs on, also print the per-stage latency table for scenario 2
    // (EXPERIMENTS.md's breakdown table comes from here) and leave the
    // timeline artifact behind (DESIGN.md §15): it must hold events and
    // cover at least the ring hop and the worker's service of a write.
    #[cfg(feature = "obs")]
    {
        use trio_obs::{OpKind, Stage};
        let snap = trio_obs::snapshot();
        for line in snap.delta(&obs_base).table_lines() {
            println!("# obs {line}");
        }
        assert!(trio_obs::events_recorded() > 0, "obs timeline has no events");
        for stage in [Stage::RingHop, Stage::WorkerService] {
            assert!(
                !snap.stage(OpKind::Write, stage).is_empty(),
                "obs timeline misses write/{}",
                stage.as_str()
            );
        }
        let path = trio_obs::dump_now("bench-datapath").expect("write obs timeline");
        println!("# wrote {}", path.display());
    }
}
