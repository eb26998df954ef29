//! Workload generators and the virtual-time measurement harness.
//!
//! Everything here is written against `trio_fsapi::FileSystem`, so the
//! same generator drives ArckFS, the customized LibFSes, and every
//! baseline. Workloads mirror the paper's §6.1: fio-style data
//! microbenchmarks, the FxMark metadata suite (Table 2), and Filebench
//! personalities (Table 4).

pub mod filebench;
pub mod fio;
pub mod fxmark;

use std::sync::Arc;

use trio_sim::plock::Mutex;
use trio_sim::sync::SimBarrier;
use trio_sim::{Nanos, SimRuntime};

/// Per-thread work result.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpCount {
    /// Operations completed.
    pub ops: u64,
    /// Payload bytes moved.
    pub bytes: u64,
}

impl OpCount {
    /// Accumulates another thread's counts.
    pub fn add(&mut self, o: OpCount) {
        self.ops += o.ops;
        self.bytes += o.bytes;
    }
}

/// Aggregate result of one measured run.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Virtual nanoseconds inside the measurement window.
    pub elapsed_ns: Nanos,
    /// Total operations across threads.
    pub ops: u64,
    /// Total payload bytes across threads.
    pub bytes: u64,
    /// Threads that ran.
    pub threads: usize,
}

impl Measurement {
    /// Operations per virtual microsecond (the paper's `ops/µs`).
    pub fn ops_per_usec(&self) -> f64 {
        self.ops as f64 / (self.elapsed_ns as f64 / 1_000.0)
    }

    /// Thousands of operations per virtual second (`Kops/sec`).
    pub fn kops_per_sec(&self) -> f64 {
        self.ops as f64 / (self.elapsed_ns as f64 / 1e9) / 1e3
    }

    /// GiB per virtual second.
    pub fn gib_per_sec(&self) -> f64 {
        self.bytes as f64 / (1u64 << 30) as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Mean virtual latency per op, µs.
    pub fn usec_per_op(&self) -> f64 {
        self.elapsed_ns as f64 / 1_000.0 / self.ops.max(1) as f64 * self.threads as f64
    }
}

/// Runs a measured multi-threaded phase on a fresh virtual-time runtime.
///
/// `setup` runs first on the harness sim-thread (start delegation pools,
/// build filesets); then `threads` workers are spawned, pinned round-robin
/// across `numa_nodes`, released together through a barrier, and their
/// virtual window is measured from the common release instant to the last
/// completion. `teardown` runs after the workers join (shut down pools so
/// the simulation can end).
pub fn run_parallel(
    seed: u64,
    threads: usize,
    numa_nodes: usize,
    setup: impl FnOnce() + Send + 'static,
    work: impl Fn(usize) -> OpCount + Send + Sync + 'static,
    teardown: impl FnOnce() + Send + 'static,
) -> Measurement {
    assert!(threads > 0);
    let rt = SimRuntime::new(seed);
    let out = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    rt.spawn("harness", move || {
        setup();
        let barrier = Arc::new(SimBarrier::new(threads));
        let work = Arc::new(work);
        let totals = Arc::new(Mutex::new(OpCount::default()));
        let start = Arc::new(Mutex::new(0u64));
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let barrier = Arc::clone(&barrier);
            let work = Arc::clone(&work);
            let totals = Arc::clone(&totals);
            let start = Arc::clone(&start);
            handles.push(trio_sim::spawn("worker", move || {
                trio_nvm::handle::set_home_node(i % numa_nodes.max(1));
                barrier.wait();
                *start.lock() = trio_sim::now(); // Same instant for all.
                let count = work(i);
                totals.lock().add(count);
            }));
        }
        for h in handles {
            h.join();
        }
        let (t0, t1) = (*start.lock(), trio_sim::now());
        let t = *totals.lock();
        // Mark the measured window in the obs flight recorder so a dumped
        // timeline shows which spans fell inside it.
        trio_obs::window_marker(t0, t1, threads as u64, t.ops);
        *out2.lock() =
            Some(Measurement { elapsed_ns: (t1 - t0).max(1), ops: t.ops, bytes: t.bytes, threads });
        teardown();
    });
    rt.run();
    let m = out.lock().take().expect("harness ran");
    m
}

/// A reusable multi-threaded workload: build the fileset once, then run
/// one closed loop per thread.
pub trait Workload: Send + Sync + 'static {
    /// Builds the fileset (runs once, on the harness thread, outside the
    /// measurement window) for a run with `threads` workers.
    fn setup(&self, fs: &dyn trio_fsapi::FileSystem, threads: usize);

    /// One thread's measured loop.
    fn run_thread(&self, fs: &dyn trio_fsapi::FileSystem, thread: usize) -> OpCount;

    /// Display name.
    fn name(&self) -> String;
}

/// Drives `workload` on `fs` with the standard harness. `prelude` runs
/// before setup (start delegation pools); `postlude` after the workers
/// join (shut them down).
pub fn drive(
    fs: Arc<dyn trio_fsapi::FileSystem>,
    workload: Arc<dyn Workload>,
    threads: usize,
    numa_nodes: usize,
    seed: u64,
    prelude: impl FnOnce() + Send + 'static,
    postlude: impl FnOnce() + Send + 'static,
) -> Measurement {
    let fs_setup = Arc::clone(&fs);
    let wl_setup = Arc::clone(&workload);
    run_parallel(
        seed,
        threads,
        numa_nodes,
        move || {
            prelude();
            wl_setup.setup(&*fs_setup, threads);
        },
        move |i| workload.run_thread(&*fs, i),
        postlude,
    )
}

/// Drives several workload phases back to back inside ONE virtual-time
/// runtime, returning one [`Measurement`] per phase.
///
/// Delegation pools cannot restart (`shutdown` closes the rings for
/// good), so any bench that wants to observe several workloads against
/// the same live kernel — e.g. a write phase, then a delegated-read
/// phase, then a free/realloc churn phase — must run them in a single
/// simulation. `prelude` runs once before the first phase's setup;
/// `postlude` once after the last phase's workers join. Each phase gets
/// its own barrier release and its own measured window.
pub fn drive_phases(
    fs: Arc<dyn trio_fsapi::FileSystem>,
    phases: Vec<(Arc<dyn Workload>, usize)>,
    numa_nodes: usize,
    seed: u64,
    prelude: impl FnOnce() + Send + 'static,
    postlude: impl FnOnce() + Send + 'static,
) -> Vec<Measurement> {
    assert!(!phases.is_empty());
    let rt = SimRuntime::new(seed);
    let out: Arc<Mutex<Vec<Measurement>>> = Arc::new(Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    rt.spawn("harness", move || {
        prelude();
        for (workload, threads) in phases {
            assert!(threads > 0);
            workload.setup(&*fs, threads);
            let barrier = Arc::new(SimBarrier::new(threads));
            let totals = Arc::new(Mutex::new(OpCount::default()));
            let start = Arc::new(Mutex::new(0u64));
            let mut handles = Vec::with_capacity(threads);
            for i in 0..threads {
                let barrier = Arc::clone(&barrier);
                let totals = Arc::clone(&totals);
                let start = Arc::clone(&start);
                let fs = Arc::clone(&fs);
                let workload = Arc::clone(&workload);
                handles.push(trio_sim::spawn("worker", move || {
                    trio_nvm::handle::set_home_node(i % numa_nodes.max(1));
                    barrier.wait();
                    *start.lock() = trio_sim::now(); // Same instant for all.
                    let count = workload.run_thread(&*fs, i);
                    totals.lock().add(count);
                }));
            }
            for h in handles {
                h.join();
            }
            let (t0, t1) = (*start.lock(), trio_sim::now());
            let t = *totals.lock();
            trio_obs::window_marker(t0, t1, threads as u64, t.ops);
            out2.lock().push(Measurement {
                elapsed_ns: (t1 - t0).max(1),
                ops: t.ops,
                bytes: t.bytes,
                threads,
            });
        }
        postlude();
    });
    rt.run();
    let ms = std::mem::take(&mut *out.lock());
    ms
}

/// Deterministic per-call pseudo-random index (cheap xorshift; workloads
/// needing real RNG use `trio_sim::rng`).
pub fn quick_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_math() {
        let m = Measurement { elapsed_ns: 1_000_000, ops: 2_000, bytes: 1 << 30, threads: 4 };
        assert!((m.ops_per_usec() - 2.0).abs() < 1e-9);
        assert!((m.kops_per_sec() - 2_000.0).abs() < 1e-6);
        assert!((m.gib_per_sec() - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn run_parallel_measures_window() {
        let m = run_parallel(
            1,
            4,
            1,
            || {},
            |_| {
                trio_sim::work(1_000);
                OpCount { ops: 10, bytes: 0 }
            },
            || {},
        );
        assert_eq!(m.ops, 40);
        // All four run 1000ns concurrently from the same start.
        assert!(m.elapsed_ns >= 1_000 && m.elapsed_ns < 2_000, "window={}", m.elapsed_ns);
    }

    #[test]
    fn quick_rand_is_deterministic() {
        let mut a = 42;
        let mut b = 42;
        for _ in 0..10 {
            assert_eq!(quick_rand(&mut a), quick_rand(&mut b));
        }
    }
}
