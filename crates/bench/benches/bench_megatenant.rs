//! Mega-tenant control-plane bench: the numbers behind
//! `BENCH_megatenant.json` and the scaling gate in `scripts/verify.sh`.
//!
//! One kernel, N independent LibFS instances (N = 8, 32, 128 — each its
//! own registered actor, *not* a trust group), every tenant working in a
//! private directory. Two measured phases per rung:
//!
//! 1. **Metadata churn** — create/unlink bursts, the pure control-plane
//!    traffic: every create allocates inos and dirent pages, every
//!    unlink frees them. This is the phase the scaling gate reads:
//!    per-tenant op rate at 128 tenants over the rate at 8 must stay
//!    near 1.0. The sharded provenance maps and lock-free allocator
//!    caches make each tenant's alloc/free private; the old single
//!    registry mutex serialized all of it (128 tenants → 1/16th the
//!    per-tenant rate).
//! 2. **Delegated-write burst** — 64 KiB writes through the rings.
//!    Reported as aggregate bandwidth, *not* gated on scaling: the
//!    worker pool is sized per NUMA node, so its capacity is fixed by
//!    the machine, not the tenant count. What the rung must show is
//!    `registry_locks ≈ 0` while 128 tenants hammer the grant table and
//!    allocator concurrently.
//!
//! Both phases are deterministic virtual time. Output: human-readable
//! lines on stdout, JSON to `$TRIO_BENCH_OUT` (default
//! `BENCH_megatenant.json` in the current directory).

use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::{FileSystem, Mode, OpenFlags};
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{BandwidthModel, DeviceConfig, NvmDevice, PathStatsSnapshot, Topology};
use trio_workloads::{run_parallel, Measurement, OpCount};

/// Tenant counts on the x-axis. The first and last anchor the scaling
/// gate; the middle rung is for the EXPERIMENTS.md curve.
const RUNGS: [usize; 3] = [8, 32, 128];

/// Create/unlink rounds per tenant in the metadata phase.
const META_FILES: usize = 60;
/// Delegated 64 KiB writes per tenant in the data phase.
const DATA_OPS: u64 = 8;

/// One rung's results.
struct Rung {
    n: usize,
    meta: Measurement,
    data: Measurement,
    snap: PathStatsSnapshot,
    /// Longest wait of any `map` on another tenant's write lease inside
    /// the two measured phases (gated: lease recall, DESIGN.md §21, keeps
    /// it in µs — at the start of phase 1 every tenant but one wants the
    /// root that the last set-up `mkdir` left write-leased).
    lease_wait_max_ns: u64,
    /// Lease-recall counters, set-up included.
    resilience: trio_kernel::quarantine::ResilienceSnapshot,
}

/// Runs one rung: a fresh kernel, `n` mounted LibFS instances, all
/// tenants concurrent. The per-tenant directories are created in the
/// setup window (root-directory handover is inherently serial — one
/// write lease — and not what this bench measures).
fn run_rung(n: usize) -> Rung {
    let nodes = 8;
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(nodes, 32 * 1024),
        model: BandwidthModel::default(),
        track_persistence: false,
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let stats = Arc::clone(kernel.path_stats());
    let tenants: Arc<Vec<Arc<ArckFs>>> = Arc::new(
        (0..n)
            .map(|_| ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::default()))
            .collect(),
    );

    // Phase 1: metadata churn, no delegation involved.
    let setup_tenants = Arc::clone(&tenants);
    let work_tenants = Arc::clone(&tenants);
    let k_setup = Arc::clone(&kernel);
    let meta = run_parallel(
        42 + n as u64,
        n,
        nodes,
        move || {
            for (i, fs) in setup_tenants.iter().enumerate() {
                fs.mkdir(&format!("/t{i}"), Mode(0o777)).expect("tenant mkdir");
            }
            // Phase timings are drain-style: drop what set-up accrued
            // (one thread drives every mount, so each `mkdir` sits out
            // the previous tenant's lease on the root).
            let _ = k_setup.take_phase_stats();
        },
        move |i| {
            let fs = &work_tenants[i];
            let mut ops = 0u64;
            for k in 0..META_FILES {
                let p = format!("/t{i}/f{k}");
                fs.create(&p, Mode(0o666)).expect("tenant create");
                ops += 1;
                if k % 2 == 0 {
                    fs.unlink(&p).expect("tenant unlink");
                    ops += 1;
                }
            }
            OpCount { ops, bytes: 0 }
        },
        || {},
    );

    // Phase 2: delegated-write burst through the rings.
    let work_tenants = Arc::clone(&tenants);
    let k_start = Arc::clone(&kernel);
    let k_stop = Arc::clone(&kernel);
    let data = run_parallel(
        4200 + n as u64,
        n,
        nodes,
        move || {
            let _ = k_start.delegation().start();
        },
        move |i| {
            let fs = &work_tenants[i];
            let block = vec![0xB5u8; 64 * 1024];
            let fd = fs
                .open(&format!("/t{i}/data"), OpenFlags::CREATE | OpenFlags::WRONLY, Mode(0o666))
                .expect("tenant data open");
            let mut bytes = 0u64;
            for k in 0..DATA_OPS {
                fs.pwrite(fd, k * block.len() as u64, &block).expect("tenant pwrite");
                bytes += block.len() as u64;
            }
            fs.close(fd).expect("tenant close");
            OpCount { ops: DATA_OPS, bytes }
        },
        move || {
            k_stop.delegation().shutdown();
        },
    );

    Rung {
        n,
        meta,
        data,
        snap: stats.snapshot(),
        lease_wait_max_ns: kernel.take_phase_stats().lease_wait_max_ns,
        resilience: kernel.resilience_stats().snapshot(),
    }
}

/// Ops per virtual second per tenant.
fn per_tenant_rate(m: &Measurement, n: usize) -> f64 {
    m.ops as f64 / (m.elapsed_ns as f64 / 1e9) / n as f64
}

fn main() {
    println!("# Mega-tenant control-plane bench (virtual time, {RUNGS:?} tenants)");

    let rungs: Vec<Rung> = RUNGS.iter().map(|n| run_rung(*n)).collect();
    for r in &rungs {
        let meta_rate = per_tenant_rate(&r.meta, r.n);
        let data_gib_s = r.data.bytes as f64 / (1u64 << 30) as f64
            / (r.data.elapsed_ns as f64 / 1e9);
        println!(
            "{:>4} tenants   metadata {meta_rate:>12.0} ops/s/tenant   delegated {data_gib_s:>7.2} GiB/s   ({} hot registry locks)",
            r.n, r.snap.registry_locks
        );
        println!("#   {}", r.snap.summary_line());
        assert_eq!(
            r.meta.ops,
            (META_FILES + META_FILES / 2) as u64 * r.n as u64,
            "every tenant completed its metadata script"
        );
        assert!(r.snap.delegated_write_bytes > 0, "64 KiB writes must delegate");
    }

    let first = &rungs[0];
    let last = &rungs[rungs.len() - 1];
    let scaling = per_tenant_rate(&last.meta, last.n) / per_tenant_rate(&first.meta, first.n);
    println!(
        "per-tenant metadata scaling {} -> {} tenants: {scaling:.3} (1.0 = perfectly linear)",
        first.n, last.n
    );
    let max_hot_locks = rungs.iter().map(|r| r.snap.registry_locks).max().unwrap_or(0);
    // DESIGN.md §20, §21: the hot-path registry-lock budget holds on every
    // rung, and when 127 tenants want the root the 128th holds, the recall
    // hands it over — no `map` in the measured phases waits a lease out
    // (1 ms; it was 100 ms). The window is the root hand-over: 2N maps
    // whose PTE writes each tenant does in its own page table, so the
    // per-tenant rate stays above 80 000 ops/s (882 before recall, 42 205
    // while the registry lock held the programming) and the scaling ratio
    // above 0.15 (0.0765 then). What is left of it is one verification of
    // `/` and an aux rebuild of it per tenant (EXPERIMENTS.md "Map convoy").
    let last_rate = per_tenant_rate(&last.meta, last.n);
    assert!(last_rate >= 80_000.0, "{last_rate:.0} metadata ops/s/tenant at {} tenants", last.n);
    assert!(scaling >= 0.15, "per-tenant metadata scaling {scaling:.3} from {} to {}", first.n, last.n);
    assert!(max_hot_locks <= 10, "{max_hot_locks} hot-path registry locks on one rung (budget 10)");
    assert!(last.resilience.recalls_honoured >= 1, "no lease recall honoured at {} tenants", last.n);
    assert!(
        last.lease_wait_max_ns <= 1_000_000,
        "a map waited {} ns on a lease at {} tenants",
        last.lease_wait_max_ns,
        last.n
    );
    // Every PTE allocation programs costs the tenant 1.28 µs, so a LibFS
    // maps about what it writes, cold buckets included (DESIGN.md §12).
    let written_pages = last.snap.delegated_write_bytes / trio_nvm::PAGE_SIZE as u64;
    println!(
        "pages mapped by allocation per page written at {} tenants: {:.2}",
        last.n,
        last.snap.alloc_mapped_pages as f64 / written_pages as f64
    );
    assert!(
        last.snap.alloc_mapped_pages <= 2 * written_pages,
        "allocation mapped {} pages to write {written_pages}",
        last.snap.alloc_mapped_pages
    );

    let json = last.snap.to_json(&[
        ("tenant_rungs", format!("[{}]", RUNGS.map(|n| n.to_string()).join(", "))),
        (
            "meta_ops_per_sec_per_tenant",
            format!(
                "[{}]",
                rungs
                    .iter()
                    .map(|r| format!("{:.0}", per_tenant_rate(&r.meta, r.n)))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
        ("scaling_8_to_128", format!("{scaling:.4}")),
        ("max_hot_registry_locks", max_hot_locks.to_string()),
        ("lease_wait_max_ns", last.lease_wait_max_ns.to_string()),
        ("recalls_posted", last.resilience.recalls_posted.to_string()),
        ("recalls_honoured", last.resilience.recalls_honoured.to_string()),
        ("recalls_expired", last.resilience.recalls_expired.to_string()),
    ]);
    let out = std::env::var("TRIO_BENCH_OUT").unwrap_or_else(|_| "BENCH_megatenant.json".into());
    std::fs::write(&out, format!("{json}\n")).expect("write bench json");
    println!("# wrote {out}");
}
