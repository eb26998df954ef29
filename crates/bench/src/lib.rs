//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every bench target builds *worlds* through [`World::build`]: a fresh
//! emulated device plus one file system under test, with matching
//! delegation-pool lifecycle closures for `trio_workloads::drive`. A world
//! is used for exactly one measurement point (one `(fs, threads)` cell of
//! a figure), keeping points independent and deterministic.
//!
//! Scaling: paper-scale byte sizes are divided by [`scale`] (default 16;
//! override with `TRIO_SCALE`). Benches print the scale in their header so
//! EXPERIMENTS.md can record the configuration alongside results.

use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig, FpFs, KvFs};
use trio_fsapi::FileSystem;
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{BandwidthModel, DeviceConfig, NvmDevice, Topology};
use trio_sim::plock::Mutex as PlMutex;
use trio_workloads::{drive, Measurement, Workload};

/// File systems a figure can put on its x-axis.
pub const ALL_FS: [&str; 10] = [
    "ext4",
    "ext4-RAID0",
    "PMFS",
    "NOVA",
    "WineFS",
    "OdinFS",
    "SplitFS",
    "Strata",
    "ArckFS-nd",
    "ArckFS",
];

/// The paper's figure-5/6 subset (kernel + userspace baselines + ArckFS).
pub const MAIN_FS: [&str; 8] =
    ["ext4", "PMFS", "NOVA", "WineFS", "OdinFS", "SplitFS", "ArckFS-nd", "ArckFS"];

/// Global byte-size scale divisor (paper sizes / scale).
pub fn scale() -> usize {
    std::env::var("TRIO_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(16)
}

/// Whether to run the full thread ladder (slower).
pub fn full_run() -> bool {
    std::env::var("TRIO_BENCH_FULL").map(|v| v == "1").unwrap_or(false)
}

/// Thread ladder for one-NUMA-node panels (paper: 1..28).
pub fn one_node_threads() -> Vec<usize> {
    if full_run() {
        vec![1, 2, 4, 8, 16, 28]
    } else {
        vec![1, 4, 16, 28]
    }
}

/// Thread ladder for eight-node panels (paper: 1..224).
pub fn eight_node_threads() -> Vec<usize> {
    if full_run() {
        vec![1, 2, 4, 8, 16, 28, 56, 112, 168, 224]
    } else {
        vec![1, 8, 28, 112, 224]
    }
}

/// A file system under test plus its lifecycle hooks.
pub struct World {
    /// The device (kept alive for inspection).
    pub dev: Arc<NvmDevice>,
    /// The Trio kernel controller, when the FS is Trio-based.
    pub kernel: Option<Arc<KernelController>>,
    /// The system under test.
    pub fs: Arc<dyn FileSystem>,
    /// NUMA nodes in the device.
    pub nodes: usize,
    /// OdinFS's delegation pool (baselines only).
    baseline_delegation: Option<Arc<trio_kernel::delegation::DelegationPool>>,
}

impl World {
    /// Builds a world for `fs_name` over `nodes` NUMA nodes with
    /// `pages_per_node` pages each.
    pub fn build(fs_name: &str, nodes: usize, pages_per_node: usize) -> World {
        let dev = Arc::new(NvmDevice::new(DeviceConfig {
            topology: Topology::new(nodes, pages_per_node),
            model: BandwidthModel::default(),
            track_persistence: false,
        }));
        match fs_name {
            "ArckFS" | "ArckFS-nd" | "KVFS" | "FPFS" | "ArckFS-tg" => {
                let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
                let cfg = if fs_name == "ArckFS-nd" {
                    ArckFsConfig::no_delegation()
                } else {
                    ArckFsConfig::default()
                };
                let arck = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, cfg);
                let fs: Arc<dyn FileSystem> = match fs_name {
                    "FPFS" => FpFs::new(arck),
                    _ => arck,
                };
                World { dev, kernel: Some(kernel), fs, nodes, baseline_delegation: None }
            }
            other => {
                let delegation = if other == "OdinFS" {
                    Some(Arc::new(trio_kernel::delegation::DelegationPool::new(
                        Arc::clone(&dev),
                        12,
                    )))
                } else {
                    None
                };
                let fs = trio_baselines::build(other, Arc::clone(&dev), delegation.clone());
                World { dev, kernel: None, fs, nodes, baseline_delegation: delegation }
            }
        }
    }

    /// The kernel's data-path counters (Trio-based worlds only). Grab the
    /// `Arc` before `measure` consumes the world, snapshot after.
    pub fn path_stats(&self) -> Option<Arc<trio_nvm::PathStats>> {
        self.kernel.as_ref().map(|k| Arc::clone(k.path_stats()))
    }

    /// Runs `workload` on this world with the right delegation lifecycle.
    pub fn measure(
        self,
        workload: Arc<dyn Workload>,
        threads: usize,
        seed: u64,
    ) -> Measurement {
        let nodes = self.nodes;
        let kernel = self.kernel.clone();
        let kernel2 = self.kernel.clone();
        let pool = self.baseline_delegation.clone();
        let pool2 = self.baseline_delegation.clone();
        drive(
            Arc::clone(&self.fs),
            workload,
            threads,
            nodes,
            seed,
            move || {
                if let Some(k) = &kernel {
                    let _ = k.delegation().start();
                }
                if let Some(p) = &pool {
                    let _ = p.start();
                }
            },
            move || {
                if let Some(k) = &kernel2 {
                    k.delegation().shutdown();
                }
                if let Some(p) = &pool2 {
                    p.shutdown();
                }
            },
        )
    }

    /// Runs several workload phases back to back on this world inside one
    /// simulation, with a single delegation-pool start/shutdown around the
    /// whole sequence (pools cannot restart). Returns one measurement per
    /// phase, in order.
    pub fn measure_phases(
        self,
        phases: Vec<(Arc<dyn Workload>, usize)>,
        seed: u64,
    ) -> Vec<Measurement> {
        let nodes = self.nodes;
        let kernel = self.kernel.clone();
        let kernel2 = self.kernel.clone();
        let pool = self.baseline_delegation.clone();
        let pool2 = self.baseline_delegation.clone();
        trio_workloads::drive_phases(
            Arc::clone(&self.fs),
            phases,
            nodes,
            seed,
            move || {
                if let Some(k) = &kernel {
                    let _ = k.delegation().start();
                }
                if let Some(p) = &pool {
                    let _ = p.start();
                }
            },
            move || {
                if let Some(k) = &kernel2 {
                    k.delegation().shutdown();
                }
                if let Some(p) = &pool2 {
                    p.shutdown();
                }
            },
        )
    }
}

/// Builds an ArckFS world returning the concrete LibFS (for KVFS/FPFS and
/// sharing benches that need the full API).
pub fn build_arckfs_world(
    nodes: usize,
    pages_per_node: usize,
    cfg: ArckFsConfig,
) -> (Arc<NvmDevice>, Arc<KernelController>, Arc<ArckFs>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(nodes, pages_per_node),
        model: BandwidthModel::default(),
        track_persistence: false,
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, cfg);
    (dev, kernel, fs)
}

/// Builds a KVFS view over a fresh ArckFS world.
pub fn build_kvfs_world(
    nodes: usize,
    pages_per_node: usize,
) -> (Arc<KernelController>, Arc<ArckFs>, Arc<KvFs>) {
    let (_, kernel, fs) = build_arckfs_world(nodes, pages_per_node, ArckFsConfig::default());
    // KvFs::new touches the FS; outside sim this is fine (setup-time).
    let kv = KvFs::new(Arc::clone(&fs), "/kv").expect("kv root");
    (kernel, fs, kv)
}

/// Result of a sharing-cost scenario (Table 3 / Figure 8).
#[derive(Clone, Copy, Debug)]
pub struct SharingResult {
    /// Virtual time of the measured window.
    pub elapsed_ns: u64,
    /// Total operations.
    pub ops: u64,
    /// Processes that shared them.
    pub procs: u64,
    /// Total bytes written.
    pub bytes: u64,
    /// Kernel-side phase breakdown.
    pub phases: trio_kernel::PhaseStats,
    /// LibFS aux-rebuild time.
    pub rebuild_ns: u64,
    /// Maps that kept the LibFS's aux state (DESIGN.md §22)…
    pub aux_reuses: u64,
    /// …and maps that rebuilt it from core state.
    pub aux_rebuilds: u64,
}

/// Who updates the shared object in a sharing scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sharers {
    /// Two untrusted LibFSes: every hand-over has a foreign writer in
    /// between (the paper's rows).
    Untrusted,
    /// Two processes of one trust group: one LibFS, no transfer.
    TrustGroup,
    /// One untrusted LibFS on its own, still unmapping after every op:
    /// every map is a re-map by the actor that last wrote.
    Sole,
}

impl SharingResult {
    /// GiB per virtual second.
    pub fn gib_per_sec(&self) -> f64 {
        self.bytes as f64 / (1u64 << 30) as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Mean µs per op (per process).
    pub fn usec_per_op(&self) -> f64 {
        self.elapsed_ns as f64 / 1_000.0 / (self.ops as f64 / self.procs as f64).max(1.0)
    }
}

/// Two untrusted processes concurrently writing 4 KiB blocks to one shared
/// file (Table 3's `4KB-write` rows). With `trust_group` both "processes"
/// share one LibFS (paper §3.2), eliminating the transfer cost.
pub fn run_sharing_write(file_bytes: u64, ops_per_proc: u64, trust_group: bool) -> SharingResult {
    use trio_fsapi::{Mode, OpenFlags};
    let pages_per_node = (file_bytes as usize / 4096 * 3).max(16 * 1024);
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, pages_per_node),
        model: BandwidthModel::default(),
        track_persistence: false,
    }));
    // The paper's 100 ms lease; only byte sizes scale.
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs_a = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let fs_b = if trust_group {
        Arc::clone(&fs_a) // Same LibFS: a trust group.
    } else {
        ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation())
    };
    let fs_a2 = Arc::clone(&fs_a);
    let kernel2 = Arc::clone(&kernel);
    let procs: Vec<Arc<ArckFs>> = vec![fs_a, fs_b];
    let m = trio_workloads::run_parallel(
        77,
        2,
        1,
        move || {
            // Proc A builds the shared file and releases it.
            let fd = fs_a2
                .open("/shared", OpenFlags::CREATE | OpenFlags::WRONLY, Mode(0o666))
                .expect("create shared");
            let chunk = vec![0u8; 1 << 20];
            let mut off = 0u64;
            while off < file_bytes {
                let n = chunk.len().min((file_bytes - off) as usize);
                fs_a2.pwrite(fd, off, &chunk[..n]).expect("prefill");
                off += n as u64;
            }
            fs_a2.close(fd).expect("close");
            fs_a2.release_path("/shared").expect("release");
            let _ = kernel2.take_phase_stats(); // Exclude setup from Fig 8.
        },
        move |i| {
            use trio_fsapi::FileSystem;
            let fs = &procs[i];
            let fd = fs.open("/shared", OpenFlags::RDWR, Mode(0o666)).expect("open shared");
            let block = vec![i as u8 + 1; 4096];
            let blocks = file_bytes / 4096;
            for k in 0..ops_per_proc {
                fs.pwrite(fd, (k % blocks) * 4096, &block).expect("shared write");
            }
            let _ = fs.close(fd);
            trio_workloads::OpCount { ops: ops_per_proc, bytes: ops_per_proc * 4096 }
        },
        || {},
    );
    SharingResult {
        elapsed_ns: m.elapsed_ns,
        ops: m.ops,
        procs: 2,
        bytes: m.bytes,
        phases: kernel.take_phase_stats(),
        rebuild_ns: 0,
        aux_reuses: 0,
        aux_rebuilds: 0,
    }
}

/// Two untrusted processes creating (and unlinking) empty files in a
/// shared directory pre-populated with `dir_files` entries, releasing the
/// directory after every operation (Table 3's `create` rows; the paper
/// stresses the unmap path the same way). [`Sharers::Sole`] runs the first
/// of them alone.
pub fn run_sharing_create(dir_files: usize, ops_per_proc: u64, sharers: Sharers) -> SharingResult {
    let trust_group = sharers == Sharers::TrustGroup;
    let procs_n = if sharers == Sharers::Sole { 1 } else { 2 };
    use trio_fsapi::{FileSystem, Mode};
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        model: BandwidthModel::default(),
        track_persistence: false,
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs_a = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let fs_b = if trust_group {
        Arc::clone(&fs_a)
    } else {
        ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation())
    };
    let fs_a2 = Arc::clone(&fs_a);
    let kernel2 = Arc::clone(&kernel);
    let rebuild_a = Arc::clone(&fs_a);
    let rebuild_b = Arc::clone(&fs_b);
    let procs: Vec<Arc<ArckFs>> = vec![fs_a, fs_b];
    let procs_after: Vec<Arc<ArckFs>> = procs.clone();
    let stats = Arc::clone(kernel.path_stats());
    let before = Arc::new(PlMutex::new(stats.snapshot()));
    let before2 = Arc::clone(&before);
    let stats2 = Arc::clone(&stats);
    let m = trio_workloads::run_parallel(
        78,
        procs_n,
        1,
        move || {
            fs_a2.mkdir("/shared", Mode(0o777)).expect("mkdir");
            for i in 0..dir_files {
                fs_a2.create(&format!("/shared/base-{i}"), Mode(0o666)).expect("seed");
            }
            fs_a2.release_path("/shared").expect("release");
            let _ = kernel2.take_phase_stats();
            let _ = rebuild_a.take_rebuild_ns();
            let _ = rebuild_b.take_rebuild_ns();
            *before2.lock() = stats2.snapshot();
        },
        move |i| {
            let fs = &procs[i];
            for k in 0..ops_per_proc {
                let name = format!("/shared/p{i}-tmp{k}");
                fs.create(&name, Mode(0o666)).expect("shared create");
                fs.unlink(&name).expect("shared unlink");
                // Unmap after each operation to stress the transfer path.
                if !trust_group {
                    let _ = fs.release_path("/shared");
                }
            }
            trio_workloads::OpCount { ops: ops_per_proc, bytes: 0 }
        },
        || {},
    );
    let rebuild_ns = procs_after[0].take_rebuild_ns()
        + if trust_group { 0 } else { procs_after[1].take_rebuild_ns() };
    let aux = stats.snapshot().delta(&before.lock());
    SharingResult {
        elapsed_ns: m.elapsed_ns,
        ops: m.ops,
        procs: procs_n as u64,
        bytes: m.bytes,
        phases: kernel.take_phase_stats(),
        rebuild_ns,
        aux_reuses: aux.aux_reuses,
        aux_rebuilds: aux.aux_rebuilds,
    }
}

/// The NOVA comparison rows of Table 3 (a kernel FS has no transfer cost).
pub fn run_sharing_nova(write_file_bytes: Option<u64>, dir_files: usize, ops_per_proc: u64) -> SharingResult {
    use trio_fsapi::{Mode, OpenFlags};
    let world = World::build("NOVA", 1, 64 * 1024);
    let fs = Arc::clone(&world.fs);
    let fs_setup = Arc::clone(&fs);
    let m = trio_workloads::run_parallel(
        79,
        2,
        1,
        move || match write_file_bytes {
            Some(fb) => {
                let fd = fs_setup
                    .open("/shared", OpenFlags::CREATE | OpenFlags::WRONLY, Mode(0o666))
                    .expect("create");
                let chunk = vec![0u8; 1 << 20];
                let mut off = 0u64;
                while off < fb {
                    let n = chunk.len().min((fb - off) as usize);
                    fs_setup.pwrite(fd, off, &chunk[..n]).expect("prefill");
                    off += n as u64;
                }
                fs_setup.close(fd).expect("close");
            }
            None => {
                fs_setup.mkdir("/shared", Mode(0o777)).expect("mkdir");
                for i in 0..dir_files {
                    fs_setup.create(&format!("/shared/base-{i}"), Mode(0o666)).expect("seed");
                }
            }
        },
        move |i| match write_file_bytes {
            Some(fb) => {
                let fd = fs.open("/shared", OpenFlags::RDWR, Mode(0o666)).expect("open");
                let block = vec![i as u8 + 1; 4096];
                let blocks = fb / 4096;
                for k in 0..ops_per_proc {
                    fs.pwrite(fd, (k % blocks) * 4096, &block).expect("write");
                }
                let _ = fs.close(fd);
                trio_workloads::OpCount { ops: ops_per_proc, bytes: ops_per_proc * 4096 }
            }
            None => {
                for k in 0..ops_per_proc {
                    let name = format!("/shared/p{i}-tmp{k}");
                    fs.create(&name, Mode(0o666)).expect("create");
                    fs.unlink(&name).expect("unlink");
                }
                trio_workloads::OpCount { ops: ops_per_proc, bytes: 0 }
            }
        },
        || {},
    );
    SharingResult {
        elapsed_ns: m.elapsed_ns,
        ops: m.ops,
        procs: 2,
        bytes: m.bytes,
        phases: trio_kernel::PhaseStats::default(),
        rebuild_ns: 0,
        aux_reuses: 0,
        aux_rebuilds: 0,
    }
}

/// Pretty-prints one figure row: `label` then `value` per column.
pub fn print_row(label: &str, values: &[f64], unit: &str) {
    print!("{label:<14}");
    for v in values {
        if *v >= 100.0 {
            print!(" {v:>9.0}");
        } else if *v >= 1.0 {
            print!(" {v:>9.2}");
        } else {
            print!(" {v:>9.3}");
        }
    }
    println!("   [{unit}]");
}

/// Prints a header row of thread counts.
pub fn print_thread_header(title: &str, threads: &[usize]) {
    println!("\n== {title} ==");
    print!("{:<14}", "fs \\ threads");
    for t in threads {
        print!(" {t:>9}");
    }
    println!();
}
