//! Worlds and rounds.
//!
//! A *round* is one fresh world (device, format, mounts, prefill, pool
//! start — the set-up), one closed-loop measured window in which every
//! client runs its seeded script once, and the checks after it. A run
//! repeats rounds with consecutive seeds for its time budget, so a run
//! sets up as many times as it measures.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::FileSystem;
use trio_kernel::delegation::DelegationPool;
use trio_kernel::{KernelConfig, KernelController, PhaseStats};
use trio_nvm::{
    BandwidthModel, DeviceConfig, NvmDevice, NvmHandle, PathStatsSnapshot, Topology, KERNEL_ACTOR,
};
use trio_sim::plock::Mutex;
use trio_sim::sync::SimBarrier;
use trio_sim::SimRuntime;

use crate::gen::{Blocks, Fileserver, Generator, MetaPrivate, Share2, Tenants, Varmail};
use crate::timed::{Span, TimedFs};

/// The fixed shape of one workload. Sizes are frozen here: the benchmark
/// reads no `TRIO_SCALE` or `TRIO_BENCH_FULL`.
pub struct Spec {
    pub name: &'static str,
    pub clients: usize,
    /// One LibFS mount per client (untrusted tenants) instead of one
    /// mount shared by all clients (threads of one process).
    pub mount_per_client: bool,
    pub nodes: usize,
    /// Track cache-line persistence and end with crash + recovery.
    pub durability: bool,
    /// What the paper (or EXPERIMENTS.md) reports for this shape, printed
    /// beside the reference pass's speed-ups.
    pub paper: &'static str,
}

/// 128 MiB a node: lazily backed, so only touched pages cost memory.
const PAGES_PER_NODE: usize = 32 << 10;

pub const SPECS: [Spec; 7] = [
    Spec {
        name: "stream64k",
        paper: "Fig. 5/6 large ops: ArckFS and OdinFS 3.1-25x NOVA; ArckFS >= OdinFS",
        clients: 8,
        mount_per_client: false,
        nodes: 8,
        durability: false,
    },
    Spec {
        name: "direct1k",
        paper: "Fig. 5 small ops: direct access 1.09-1.31x NOVA; ArckFS > OdinFS (no trap)",
        clients: 8,
        mount_per_client: false,
        nodes: 8,
        durability: false,
    },
    Spec {
        name: "meta_private",
        paper: "Fig. 5(d): open 1.6-5.6x, create 3.3-5.3x, delete 7.4-9.4x NOVA",
        clients: 8,
        mount_per_client: false,
        nodes: 8,
        durability: false,
    },
    Spec {
        name: "varmail16",
        paper: "Fig. 9 Varmail <=16 threads: 2.4-34.2x the baselines",
        clients: 16,
        mount_per_client: false,
        nodes: 8,
        durability: true,
    },
    Spec {
        name: "fileserver28",
        paper: "Fig. 9 Fileserver: ArckFS and OdinFS 1.1-27x the others, ArckFS on top",
        clients: 28,
        mount_per_client: false,
        nodes: 8,
        durability: false,
    },
    Spec {
        name: "share2",
        paper: "Table 3: 4KB-write 2MB 0.99x NOVA; create-100 with per-op unmap ~1/20x",
        clients: 2,
        mount_per_client: true,
        nodes: 1,
        durability: false,
    },
    Spec {
        name: "tenants32",
        paper: "beyond the paper (bench_megatenant): no published range",
        clients: 32,
        mount_per_client: true,
        nodes: 8,
        durability: false,
    },
];

/// The file system a round runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum FsKind {
    ArckFs,
    /// A `trio_baselines` model, by name (the reference pass).
    Baseline(&'static str),
}

/// Everything one round measured.
pub struct Round {
    pub setup_host_s: f64,
    pub window_host_s: f64,
    pub window_vns: u64,
    /// Timed calls, per client.
    pub spans: Vec<Vec<Span>>,
    /// Correctness checks made (audit, fsck, durability) and missed,
    /// the latter including stamp misses inside the window.
    pub checks: u64,
    pub misses: u64,
    /// Counter deltas over the window (ArckFS rounds only).
    pub path: Option<PathStatsSnapshot>,
    pub phases: PhaseStats,
    pub rebuild_vns: u64,
    pub sim_events: u64,
    pub sim_threads: u64,
    pub delegation_workers: u64,
    #[cfg(feature = "obs")]
    pub obs: trio_obs::ObsSnapshot,
}

struct World {
    dev: Arc<NvmDevice>,
    kernel: Option<Arc<KernelController>>,
    mounts: Vec<Arc<ArckFs>>,
    /// OdinFS's pool (the only baseline with one).
    baseline_pool: Option<Arc<DelegationPool>>,
    /// One untimed view per mount.
    raw: Vec<Arc<dyn FileSystem>>,
    /// One timed view per client.
    views: Vec<Arc<TimedFs>>,
}

impl World {
    fn build(spec: &Spec, kind: FsKind) -> World {
        let dev = Arc::new(NvmDevice::new(DeviceConfig {
            topology: Topology::new(spec.nodes, PAGES_PER_NODE),
            model: BandwidthModel::default(),
            track_persistence: spec.durability && kind == FsKind::ArckFs,
        }));
        let n_mounts = if spec.mount_per_client {
            spec.clients
        } else {
            1
        };
        match kind {
            FsKind::ArckFs => {
                let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
                let mounts: Vec<Arc<ArckFs>> = (0..n_mounts)
                    .map(|_| {
                        ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::default())
                    })
                    .collect();
                let views = (0..spec.clients)
                    .map(|c| {
                        let m = &mounts[c % n_mounts];
                        TimedFs::new(Arc::clone(m) as Arc<dyn FileSystem>, Some(Arc::clone(m)))
                    })
                    .collect();
                let raw = mounts
                    .iter()
                    .map(|m| Arc::clone(m) as Arc<dyn FileSystem>)
                    .collect();
                World {
                    dev,
                    kernel: Some(kernel),
                    mounts,
                    baseline_pool: None,
                    raw,
                    views,
                }
            }
            FsKind::Baseline(name) => {
                let pool =
                    (name == "OdinFS").then(|| Arc::new(DelegationPool::new(Arc::clone(&dev), 12)));
                let fs: Arc<dyn FileSystem> =
                    trio_baselines::build(name, Arc::clone(&dev), pool.clone());
                World {
                    dev,
                    kernel: None,
                    mounts: Vec::new(),
                    baseline_pool: pool,
                    raw: vec![Arc::clone(&fs); n_mounts],
                    views: (0..spec.clients)
                        .map(|_| TimedFs::new(Arc::clone(&fs), None))
                        .collect(),
                }
            }
        }
    }

    fn pool(&self) -> Option<&DelegationPool> {
        self.kernel
            .as_ref()
            .map(|k| k.delegation())
            .or(self.baseline_pool.as_deref())
    }
}

/// The generator of `spec` at `seed`. Op counts are frozen: each gives a
/// window of at least 2 000 timed calls.
fn generator(spec: &Spec, seed: u64, w: &World) -> Arc<dyn Generator> {
    let c = spec.clients;
    match spec.name {
        "stream64k" => Arc::new(Blocks::new(seed, c, 64 << 10, 16 << 20, 300)),
        "direct1k" => Arc::new(Blocks::new(seed, c, 1 << 10, 4 << 20, 1500)),
        "meta_private" => Arc::new(MetaPrivate::new(seed, c, 64, 250)),
        "varmail16" => Arc::new(Varmail::new(seed, c, 256, 48)),
        "fileserver28" => Arc::new(Fileserver::new(seed, c, 30)),
        "share2" => Arc::new(Share2::new(seed, w.views.clone(), 2 << 20, 100, 600)),
        "tenants32" => Arc::new(Tenants::new(seed, w.raw.clone(), 2, 64, 32)),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Runs one round of `spec` on `kind` with inputs made from `seed`.
pub fn run_round(spec: &'static Spec, kind: FsKind, seed: u64) -> Round {
    let t0 = Instant::now();
    let w = Arc::new(World::build(spec, kind));
    let gen = generator(spec, seed, &w);
    let rt = Arc::new(SimRuntime::new(seed));
    let out: Arc<Mutex<Option<Round>>> = Arc::new(Mutex::new(None));
    {
        let (w, gen, rt2, out) = (
            Arc::clone(&w),
            Arc::clone(&gen),
            Arc::clone(&rt),
            Arc::clone(&out),
        );
        rt.spawn("harness", move || {
            if let Some(p) = w.pool() {
                let _ = p.start();
            }
            gen.setup(&*w.raw[0], spec.clients);

            // Window-start marks: drop whatever set-up left in the
            // drain-style counters, snapshot the cumulative ones.
            for v in &w.views {
                v.take_spans();
            }
            let path0 = w.kernel.as_ref().map(|k| k.path_stats().snapshot());
            if let Some(k) = &w.kernel {
                let _ = k.take_phase_stats();
            }
            for m in &w.mounts {
                let _ = m.take_rebuild_ns();
            }
            #[cfg(feature = "obs")]
            let obs0 = trio_obs::snapshot();
            let events0 = rt2.events();
            let setup_host_s = t0.elapsed().as_secs_f64();

            let h0 = Instant::now();
            let barrier = Arc::new(SimBarrier::new(spec.clients));
            let start = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..spec.clients)
                .map(|i| {
                    let (w, gen, barrier, start) = (
                        Arc::clone(&w),
                        Arc::clone(&gen),
                        Arc::clone(&barrier),
                        Arc::clone(&start),
                    );
                    trio_sim::spawn("client", move || {
                        trio_nvm::handle::set_home_node(i % spec.nodes);
                        barrier.wait();
                        start.store(trio_sim::now(), Ordering::Relaxed); // Same instant for all.
                        gen.run_thread(&*w.views[i], i);
                    })
                })
                .collect();
            let sim_threads = handles.last().map_or(0, |h| h.tid() as u64 + 1);
            for h in handles {
                h.join();
            }
            let window_vns = trio_sim::now() - start.load(Ordering::Relaxed);
            let window_host_s = h0.elapsed().as_secs_f64();

            let sim_events = rt2.events() - events0;
            let path = w
                .kernel
                .as_ref()
                .zip(path0)
                .map(|(k, p0)| k.path_stats().snapshot().delta(&p0));
            let phases = w
                .kernel
                .as_ref()
                .map(|k| k.take_phase_stats())
                .unwrap_or_default();
            let rebuild_vns = w.mounts.iter().map(|m| m.take_rebuild_ns()).sum();
            #[cfg(feature = "obs")]
            let obs = trio_obs::snapshot().delta(&obs0);

            let (checks, audit_misses) = gen.audit(&w.raw);
            if let Some(p) = w.pool() {
                p.shutdown();
            }
            *out.lock() = Some(Round {
                setup_host_s,
                window_host_s,
                window_vns: window_vns.max(1),
                spans: w.views.iter().map(|v| v.take_spans()).collect(),
                checks,
                misses: audit_misses + gen.window_misses(),
                path,
                phases,
                rebuild_vns,
                sim_events,
                sim_threads,
                delegation_workers: w.pool().map_or(0, |p| p.worker_count() as u64),
                #[cfg(feature = "obs")]
                obs,
            });
        });
    }
    rt.run();
    let mut round = out
        .lock()
        .take()
        .expect("the harness sim-thread ran to its end");
    if w.kernel.is_some() {
        let (checks, misses) = recover_and_audit(&w, &gen, seed);
        round.checks += checks;
        round.misses += misses;
    }
    round
}

/// Every round ends as a machine that lost power would: crash the device
/// (with persistence tracking, every line not yet durable reverts;
/// without it nothing is lost), undo armed renames, recover the kernel
/// from core state alone, `fsck` the recovered tree, remount, and audit
/// it against what the generator saw acknowledged. `fsck` certifies a
/// tree only after recovery, when every page is the kernel's own.
fn recover_and_audit(w: &World, gen: &Arc<dyn Generator>, seed: u64) -> (u64, u64) {
    let jpairs: Vec<_> = w
        .mounts
        .iter()
        .flat_map(|m| m.journal_page_pairs())
        .collect();
    w.dev.crash();
    let kh = NvmHandle::new(Arc::clone(&w.dev), KERNEL_ACTOR);
    let recovered = arckfs::journal::Journal::recover_pairs(&kh, &jpairs)
        .ok()
        .and_then(|_| KernelController::recover(Arc::clone(&w.dev), KernelConfig::default()).ok());
    let Some(kernel) = recovered else {
        return (1, 1);
    };
    let fsck_bad = kernel.fsck().len() as u64;
    let fs: Arc<dyn FileSystem> = ArckFs::mount(kernel, 1000, 1000, ArckFsConfig::default());
    let out = Arc::new(Mutex::new((0, 0)));
    let rt = SimRuntime::new(seed);
    {
        let (gen, out) = (Arc::clone(gen), Arc::clone(&out));
        rt.spawn("remount-audit", move || *out.lock() = gen.audit(&[fs]));
    }
    rt.run();
    let (checks, misses) = *out.lock();
    (checks + 1, misses + fsck_bad)
}
