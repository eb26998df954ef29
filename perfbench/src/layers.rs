//! Metric assembly: the end-to-end figures a user of the file system
//! would see, and the per-layer figures that explain them. Layers are the
//! crate names. Each round's spans are reduced to figures; a run reports
//! means (virtual clock) or medians (host clock) over its rounds, and
//! counts as means per window.

use trio_nvm::{BandwidthModel, PathStatsSnapshot, RegistryLockSite};

use crate::probe::{probe, Probes};
use crate::timed::Op;
use crate::world::Round;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank `num/den` quantile of an ascending slice (0 when empty).
fn quantile(sorted: &[u64], num: usize, den: usize) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[((n * num).div_ceil(den)).clamp(1, n) - 1] as f64,
    }
}

fn mean(values: &[u64]) -> f64 {
    ratio(values.iter().sum::<u64>() as f64, values.len() as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// One round's timed calls, reduced to figures: a run keeps these, not
/// the spans, so its memory does not grow with its length.
pub struct Calls {
    pub calls: f64,
    pub failed: u64,
    /// Σ over clients of calls ÷ (the client's last return − the barrier).
    pub ops_per_vsec: f64,
    /// Mean latency of the middle half of the calls (interquartile mean).
    pub mid: f64,
    /// Mean latency of the slowest 1 % of the calls.
    pub tail: f64,
    pub p50: f64,
    pub p99: f64,
    /// Per op, indexed by `Op as usize`: calls, p50, p99.
    by_op: Vec<[f64; 3]>,
    /// Σ latency of all calls, and of `pread` + `pwrite` alone.
    sum_vns: f64,
    data_vns: f64,
    pub data_calls: f64,
    /// Σ time the device model charges for the payload bytes alone: one
    /// access latency plus the bytes at a node's peak bandwidth, local.
    /// (One uncontended thread is no floor: delegation fans a call out
    /// over several workers and beats it.)
    floor_vns: f64,
    pub window_vns: f64,
    /// Clients × window.
    client_vns: f64,
    pub host_s: f64,
}

impl Calls {
    pub fn of(r: &Round) -> Calls {
        let model = BandwidthModel::default();
        let start = r
            .spans
            .iter()
            .flatten()
            .map(|s| s.start_vns)
            .min()
            .unwrap_or(0);
        let mut all = Vec::new();
        let mut per_op = vec![Vec::new(); Op::Other as usize + 1];
        let mut c = Calls {
            calls: 0.0,
            failed: 0,
            ops_per_vsec: 0.0,
            mid: 0.0,
            tail: 0.0,
            p50: 0.0,
            p99: 0.0,
            by_op: Vec::new(),
            sum_vns: 0.0,
            data_vns: 0.0,
            data_calls: 0.0,
            floor_vns: 0.0,
            window_vns: r.window_vns as f64,
            client_vns: (r.window_vns * r.spans.len() as u64) as f64,
            host_s: r.window_host_s,
        };
        for client in &r.spans {
            let end = client.iter().map(|s| s.end_vns).max().unwrap_or(start);
            c.ops_per_vsec += ratio(client.len() as f64 * 1e9, (end - start) as f64);
            for s in client {
                all.push(s.vns());
                per_op[s.op as usize].push(s.vns());
                c.failed += !s.ok as u64;
                c.sum_vns += s.vns() as f64;
                if matches!(s.op, Op::Pread | Op::Pwrite) {
                    c.data_vns += s.vns() as f64;
                    c.data_calls += 1.0;
                    if s.bytes > 0 {
                        let (latency, peak) = match s.op {
                            Op::Pwrite => (model.write_latency_ns, model.node_write_bw),
                            _ => (model.read_latency_ns, model.node_read_bw),
                        };
                        c.floor_vns += latency as f64 + s.bytes as f64 / peak;
                    }
                }
            }
        }
        all.sort_unstable();
        let n = all.len();
        c.calls = n as f64;
        c.mid = mean(&all[n / 4..n - n / 4]);
        c.tail = mean(&all[n - n.div_ceil(100)..]);
        c.p50 = quantile(&all, 1, 2);
        c.p99 = quantile(&all, 99, 100);
        c.by_op = per_op
            .iter_mut()
            .map(|lat| {
                lat.sort_unstable();
                [
                    lat.len() as f64,
                    quantile(lat, 1, 2),
                    quantile(lat, 99, 100),
                ]
            })
            .collect();
        c
    }

    /// The figures the traced and the untraced pass are compared on (all
    /// virtual), then the window's host time.
    pub fn figures(&self) -> [f64; 8] {
        [
            self.calls,
            self.window_vns,
            self.p50,
            self.p99,
            self.ops_per_vsec,
            self.mid,
            self.tail,
            self.host_s,
        ]
    }
}

/// Mean over the rounds of one figure.
pub fn mean_of(calls: &[Calls], f: impl Fn(&Calls) -> f64) -> f64 {
    ratio(calls.iter().map(f).sum(), calls.len() as f64)
}

/// Median over the rounds of one figure.
pub fn median_of(calls: &[Calls], f: impl Fn(&Calls) -> f64) -> f64 {
    median(&mut calls.iter().map(f).collect::<Vec<_>>())
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// What a user of the file system sees (`--trace 0`): means over the
/// rounds on the virtual clock, medians on the host clock.
pub fn end_to_end(rounds: &[Round], calls: &[Calls]) -> Vec<Metric> {
    let mut setup: Vec<f64> = rounds.iter().map(|r| r.setup_host_s).collect();
    vec![
        m("ops_per_vsec", mean_of(calls, |c| c.ops_per_vsec), "ops/vs"),
        m("op_mid_vns", mean_of(calls, |c| c.mid), "vns"),
        m("op_tail_vns", mean_of(calls, |c| c.tail), "vns"),
        m("host_s", median_of(calls, |c| c.host_s), "s"),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
        m("setup_s", median(&mut setup), "s"),
    ]
}

/// The in-program stage totals of the traced rounds: Σ ns and span count
/// of `read` + `write` at each stage of
/// `syscall ⊃ ring-hop ⊃ worker-service ⊃ numa-transfer`, then the
/// verifier's walks.
#[derive(Default)]
pub struct Stages {
    pub sum: [f64; 4],
    pub count: [f64; 4],
    /// Ring hops per delegated call. A large call fans out over a node's
    /// workers and its hops run side by side, so of the time its hops
    /// sum to, one part in `fanout` lies on the call's own path.
    pub fanout: f64,
    pub walks: f64,
    pub walk_p50: f64,
    pub walk_p99: f64,
}

impl Stages {
    #[cfg(feature = "obs")]
    pub fn new(rounds: &[Round]) -> Stages {
        use trio_obs::{HistSnapshot, OpKind, Stage};
        let chain = [
            Stage::Syscall,
            Stage::RingHop,
            Stage::WorkerService,
            Stage::NumaTransfer,
        ];
        let mut s = Stages::default();
        let mut walks = HistSnapshot::default();
        for r in rounds {
            for (i, stage) in chain.iter().enumerate() {
                for kind in [OpKind::Read, OpKind::Write] {
                    let h = r.obs.stage(kind, *stage);
                    s.sum[i] += h.sum_ns as f64;
                    s.count[i] += h.count as f64;
                }
            }
            let h = r.obs.stage(OpKind::Verify, Stage::VerifierWalk);
            walks.count += h.count;
            walks.zero += h.zero;
            walks.sum_ns += h.sum_ns;
            for (acc, b) in walks.buckets.iter_mut().zip(h.buckets) {
                *acc += b;
            }
        }
        s.fanout = ratio(s.count[1], total(rounds, |p| p.adaptive_delegated)).max(1.0);
        s.walks = walks.count as f64;
        s.walk_p50 = walks.p50_ns() as f64;
        s.walk_p99 = walks.p99_ns() as f64;
        s
    }

    #[cfg(not(feature = "obs"))]
    pub fn new(_rounds: &[Round]) -> Stages {
        Stages::default()
    }

    /// Σ time stage `i` spends on the critical paths of the calls.
    pub fn on_path(&self, i: usize) -> f64 {
        match i {
            0 => self.sum[0],
            1..=3 => self.sum[i] / self.fanout,
            _ => 0.0,
        }
    }

    /// Self time of stage `i`: what it holds of the calls' paths beyond
    /// its child stage. The four self times add up to the syscall total
    /// unless one had to be held at 0 (hops that did not fully overlap).
    pub fn self_vns(&self, i: usize) -> f64 {
        (self.on_path(i) - self.on_path(i + 1)).max(0.0)
    }
}

/// Throughput of the reference pass on the two baselines.
pub struct Reference {
    pub nova_ops_per_vsec: f64,
    pub odinfs_ops_per_vsec: f64,
}

/// Reads one counter off a window's deltas.
type Counter = fn(&PathStatsSnapshot) -> u64;

/// Sums one counter of the window deltas over the rounds.
fn total(rounds: &[Round], f: impl Fn(&PathStatsSnapshot) -> u64) -> f64 {
    rounds
        .iter()
        .filter_map(|r| r.path.as_ref())
        .map(|p| f(p) as f64)
        .sum()
}

/// Where the time went, layer by layer (`--trace 1`). `trio-obs`'s two
/// pass-to-pass metrics are joined in by the runner, which owns both
/// passes.
pub fn per_layer(
    rounds: &[Round],
    calls: &[Calls],
    st: &Stages,
    reference: &Reference,
    probes: &Probes,
    events_recorded: u64,
) -> Vec<Metric> {
    let n = rounds.len() as f64;
    let per_window = |f: Counter| ratio(total(rounds, f), n);
    let mut out = Vec::new();

    // arckfs, at the fsapi boundary.
    let sum = |f: fn(&Calls) -> f64| calls.iter().map(f).sum::<f64>();
    for op in Op::NAMED {
        // Quantiles: the median round among those that made the call.
        let made: Vec<[f64; 3]> = calls
            .iter()
            .map(|c| c.by_op[op as usize])
            .filter(|o| o[0] > 0.0)
            .collect();
        let mid = |i: usize| median(&mut made.iter().map(|o| o[i]).collect::<Vec<_>>());
        out.push(m(
            format!("arckfs.{}_n", op.as_str()),
            mean_of(calls, |c| c.by_op[op as usize][0]),
            "count",
        ));
        out.push(m(format!("arckfs.{}_p50_vns", op.as_str()), mid(1), "vns"));
        out.push(m(format!("arckfs.{}_p99_vns", op.as_str()), mid(2), "vns"));
    }
    out.push(m(
        "arckfs.busy_share",
        ratio(sum(|c| c.sum_vns), sum(|c| c.client_vns)),
        "ratio",
    ));
    out.push(m(
        "arckfs.syscall_self_mean_vns",
        ratio(st.self_vns(0), st.count[0]),
        "vns",
    ));
    out.push(m(
        "arckfs.rebuild_vns",
        rounds.iter().map(|r| r.rebuild_vns as f64).sum::<f64>() / n,
        "vns",
    ));
    out.push(m(
        "arckfs.adaptive_direct",
        per_window(|s| s.adaptive_direct),
        "count",
    ));
    out.push(m(
        "arckfs.adaptive_delegated",
        per_window(|s| s.adaptive_delegated),
        "count",
    ));
    out.push(m(
        "arckfs.direct_read_bytes",
        per_window(|s| s.direct_read_bytes),
        "bytes",
    ));
    out.push(m(
        "arckfs.direct_write_bytes",
        per_window(|s| s.direct_write_bytes),
        "bytes",
    ));

    // trio-kernel: delegation, grants, allocator, control plane, handover.
    let counters: [(&str, Counter, &str); 24] = [
        ("deleg_requests", |s| s.deleg_requests, "count"),
        ("deleg_runs", |s| s.deleg_runs, "count"),
        ("deleg_retries", |s| s.deleg_retries, "count"),
        ("deleg_timeouts", |s| s.deleg_timeouts, "count"),
        ("deleg_fallbacks", |s| s.deleg_fallbacks, "count"),
        ("ring_backpressure", |s| s.ring_backpressure, "count"),
        ("payload_copies", |s| s.payload_copies, "count"),
        ("delegated_read_bytes", |s| s.delegated_read_bytes, "bytes"),
        (
            "delegated_write_bytes",
            |s| s.delegated_write_bytes,
            "bytes",
        ),
        ("checksummed_bytes", |s| s.checksummed_bytes, "bytes"),
        ("grant_registers", |s| s.grant_registers, "count"),
        ("grant_revokes", |s| s.grant_revokes, "count"),
        ("grant_faults", |s| s.grant_faults, "count"),
        ("alloc_fast_hits", |s| s.alloc_fast_hits, "count"),
        ("alloc_refills", |s| s.alloc_refills, "count"),
        ("alloc_refill_pages", |s| s.alloc_refill_pages, "count"),
        ("free_cached", |s| s.free_cached, "count"),
        ("free_spills", |s| s.free_spills, "count"),
        ("refill_retries", |s| s.refill_retries, "count"),
        ("registry_locks", |s| s.registry_locks, "count"),
        (
            "registry_map_site",
            |s| s.registry_lock_site(RegistryLockSite::Map),
            "count",
        ),
        (
            "registry_admin_site",
            |s| s.registry_lock_site(RegistryLockSite::Admin),
            "count",
        ),
        ("lease_retries", |s| s.lease_retries, "count"),
        ("events_dropped", |s| s.events_dropped, "count"),
    ];
    for (name, f, unit) in &counters {
        out.push(m(
            format!("trio-kernel.{name}"),
            ratio(total(rounds, f), n),
            unit,
        ));
    }
    // Ring-hop quantiles come from the kernel's own log-bucket histogram,
    // summed over the rounds (bucket midpoints, hence coarse).
    let mut hops = PathStatsSnapshot::default();
    for r in rounds.iter().filter_map(|r| r.path.as_ref()) {
        hops.ring_hop_zero += r.ring_hop_zero;
        for (acc, b) in hops.ring_hop_hist.iter_mut().zip(r.ring_hop_hist) {
            *acc += b;
        }
    }
    out.push(m(
        "trio-kernel.ring_hop_p50_vns",
        hops.ring_hop_p50_ns() as f64,
        "vns",
    ));
    out.push(m(
        "trio-kernel.ring_hop_p99_vns",
        hops.ring_hop_p99_ns() as f64,
        "vns",
    ));
    out.push(m(
        "trio-kernel.ring_wait_mean_vns",
        ratio(st.sum[1] - st.sum[2], st.count[1]),
        "vns",
    ));
    out.push(m(
        "trio-kernel.worker_self_mean_vns",
        ratio(st.sum[2] - st.sum[3], st.count[2]),
        "vns",
    ));
    let worker_vns: f64 = rounds
        .iter()
        .map(|r| (r.delegation_workers * r.window_vns) as f64)
        .sum();
    out.push(m(
        "trio-kernel.worker_busy_share",
        ratio(st.sum[2], worker_vns),
        "ratio",
    ));
    out.push(m(
        "trio-kernel.alloc_fast_hit_rate",
        ratio(
            total(rounds, |s| s.alloc_fast_hits),
            total(rounds, |s| s.alloc_fast_hits + s.alloc_refills),
        ),
        "ratio",
    ));
    let phase = |f: fn(&trio_kernel::PhaseStats) -> u64| {
        rounds.iter().map(|r| f(&r.phases) as f64).sum::<f64>() / n
    };
    out.push(m("trio-kernel.map_vns", phase(|p| p.map_ns), "vns"));
    out.push(m("trio-kernel.unmap_vns", phase(|p| p.unmap_ns), "vns"));
    out.push(m("trio-kernel.verify_vns", phase(|p| p.verify_ns), "vns"));
    out.push(m(
        "trio-kernel.checkpoint_vns",
        phase(|p| p.checkpoint_ns),
        "vns",
    ));

    out.push(m("trio-verifier.walks", st.walks / n, "count"));
    out.push(m("trio-verifier.walk_p50_vns", st.walk_p50, "vns"));
    out.push(m("trio-verifier.walk_p99_vns", st.walk_p99, "vns"));
    out.push(m(
        "trio-verifier.probe_dir160_vns",
        probe(probes, "verifier.dir160"),
        "vns",
    ));

    out.push(m(
        "trio-nvm.device_floor_vns",
        sum(|c| c.floor_vns) / n,
        "vns",
    ));
    out.push(m(
        "trio-nvm.sw_overhead_share",
        1.0 - ratio(sum(|c| c.floor_vns), sum(|c| c.sum_vns)),
        "ratio",
    ));
    out.push(m(
        "trio-nvm.numa_transfer_mean_vns",
        ratio(st.sum[3], st.count[3]),
        "vns",
    ));
    out.push(m(
        "trio-nvm.numa_transfer_share",
        ratio(st.on_path(3), st.sum[0]),
        "ratio",
    ));
    out.push(m(
        "trio-nvm.probe_read4k_vns",
        probe(probes, "nvm.read4k"),
        "vns",
    ));
    out.push(m(
        "trio-nvm.probe_write4k_vns",
        probe(probes, "nvm.write4k"),
        "vns",
    ));
    out.push(m(
        "trio-nvm.probe_write64k_remote_vns",
        probe(probes, "nvm.write64k_remote"),
        "vns",
    ));

    out.push(m(
        "trio-layout.probe_walk600_hns",
        probe(probes, "layout.walk600_hns"),
        "hns",
    ));
    out.push(m(
        "trio-layout.probe_dirent_codec_hns",
        probe(probes, "layout.dirent_codec_hns"),
        "hns",
    ));

    let events: f64 = rounds.iter().map(|r| r.sim_events as f64).sum();
    let host_ns: f64 = rounds.iter().map(|r| r.window_host_s * 1e9).sum();
    out.push(m("trio-sim.events", events / n, "count"));
    out.push(m(
        "trio-sim.host_ns_per_event",
        ratio(host_ns, events),
        "hns",
    ));
    out.push(m(
        "trio-sim.sim_threads",
        rounds.iter().map(|r| r.sim_threads as f64).sum::<f64>() / n,
        "count",
    ));

    let ours = mean_of(calls, |c| c.ops_per_vsec);
    out.push(m(
        "trio-baselines.nova_ops_per_vsec",
        reference.nova_ops_per_vsec,
        "ops/vs",
    ));
    out.push(m(
        "trio-baselines.odinfs_ops_per_vsec",
        reference.odinfs_ops_per_vsec,
        "ops/vs",
    ));
    out.push(m(
        "trio-baselines.speedup_vs_nova",
        ratio(ours, reference.nova_ops_per_vsec),
        "ratio",
    ));
    out.push(m(
        "trio-baselines.speedup_vs_odinfs",
        ratio(ours, reference.odinfs_ops_per_vsec),
        "ratio",
    ));

    // What the bench-side pread/pwrite spans hold beyond the in-program
    // stage self times: fd lookup and dispatch above the syscall span.
    let selfs: f64 = (0..4).map(|i| st.self_vns(i)).sum();
    out.push(m(
        "trio-obs.events_recorded",
        events_recorded as f64 / n,
        "count",
    ));
    out.push(m(
        "trio-obs.residual_share",
        ratio(sum(|c| c.data_vns) - selfs, sum(|c| c.data_vns)),
        "ratio",
    ));
    out
}
