//! `trio-perfbench`: one workload, one run.
//!
//! ```text
//! trio-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--rounds <n>] [--out <dir>]
//! ```
//!
//! A run repeats rounds (see [`world`]) with consecutive round seeds made
//! from `--seed` until `--seconds` of host time have passed, at least
//! three of them, or exactly `--rounds` of them. It prints every metric
//! by name and unit, one `@rounds` line with the virtual figures of each
//! round (the runner compares the traced and untraced passes on it), and
//! as its last line the result object of the benchmark contract.
//!
//! `--trace 0` is the untraced pass: the end-to-end metrics. `--trace 1`
//! needs a build with `--features obs` and gives the per-layer metrics;
//! it splits its time between traced rounds, one reference round each on
//! the NOVA and OdinFS models, and the probe pass, and writes
//! `trace-<workload>.json` into `--out`.

mod gen;
mod layers;
mod probe;
mod timed;
mod world;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{mean_of, median_of, Calls, Metric, Reference, Stages};
use world::{run_round, FsKind, Round, Spec, SPECS};

/// Rounds every run makes at least, so that medians have a middle.
const MIN_ROUNDS: usize = 3;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    rounds: Option<usize>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42u64, 8.0f64, 0u8);
    let (mut rounds, mut out) = (None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => trace = value.parse().map_err(|_| bad("0 or 1"))?,
            "--rounds" => rounds = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names = || SPECS.iter().map(|s| s.name).collect::<Vec<_>>().join(", ");
    let workload = workload.ok_or_else(|| format!("--workload is required: one of {}", names()))?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}: one of {}", names()))?;
    if !(seconds.is_finite() && seconds > 0.0) || trace > 1 || rounds == Some(0) {
        return Err("--seconds and --rounds must be positive, --trace 0 or 1".into());
    }
    if trace == 1 && !cfg!(feature = "obs") {
        return Err("--trace 1 needs a build with --features obs".into());
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        traced: trace == 1,
        rounds,
        out,
    })
}

/// Rounds of one run draw consecutive seeds from the run's own block.
fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(round as u64)
}

/// What a run keeps of its rounds: their counters, the figures of their
/// calls, and the spans of the last round alone (for the trace file).
struct Run {
    rounds: Vec<Round>,
    calls: Vec<Calls>,
    last_spans: Vec<Vec<timed::Span>>,
}

fn run_rounds(args: &Args, budget: Duration) -> Run {
    let deadline = Instant::now() + budget;
    let mut run = Run {
        rounds: Vec::new(),
        calls: Vec::new(),
        last_spans: Vec::new(),
    };
    loop {
        let mut round = run_round(
            args.spec,
            FsKind::ArckFs,
            round_seed(args.seed, run.rounds.len()),
        );
        run.calls.push(Calls::of(&round));
        run.last_spans = std::mem::take(&mut round.spans);
        run.rounds.push(round);
        let done = match args.rounds {
            Some(n) => run.rounds.len() >= n,
            None => run.rounds.len() >= MIN_ROUNDS && Instant::now() >= deadline,
        };
        if done {
            return run;
        }
    }
}

/// One named check of the run as a whole; a miss fails the run.
struct Check {
    what: &'static str,
    ok: bool,
}

/// The routing a workload is built to take, as seen by the counters.
fn routing_checks(spec: &Spec, rounds: &[Round]) -> Vec<Check> {
    let sum = |f: fn(&trio_nvm::PathStatsSnapshot) -> u64| -> u64 {
        rounds.iter().filter_map(|r| r.path.as_ref()).map(f).sum()
    };
    match spec.name {
        "direct1k" => vec![
            Check {
                what: "direct1k delegates no bytes",
                ok: sum(|s| s.delegated_read_bytes + s.delegated_write_bytes) == 0,
            },
            Check {
                what: "direct1k submits no delegation request",
                ok: sum(|s| s.deleg_requests) == 0,
            },
        ],
        "stream64k" => vec![
            Check {
                what: "stream64k moves no bytes directly",
                ok: sum(|s| s.direct_read_bytes + s.direct_write_bytes) == 0,
            },
            Check {
                what: "stream64k refills no allocator cache",
                ok: sum(|s| s.alloc_refills) == 0,
            },
        ],
        _ => Vec::new(),
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// `trace-<workload>.json`: the bench-side spans of the last traced round
/// (the window is span 0 and the parent of every call), the in-program
/// stage totals they are joined with, the self times, and the probes.
fn trace_json(
    args: &Args,
    window_vns: u64,
    spans: &[Vec<timed::Span>],
    st: &Stages,
    probes: &probe::Probes,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"workload\": \"{}\",", args.spec.name);
    let _ = writeln!(s, "  \"seed\": {},", args.seed);
    let start = spans
        .iter()
        .flatten()
        .map(|sp| sp.start_vns)
        .min()
        .unwrap_or(0);
    let _ = writeln!(
        s,
        "  \"window\": {{\"id\": 0, \"parent\": null, \"name\": \"window\", \"start_vns\": {start}, \"end_vns\": {}}},",
        start + window_vns
    );
    let _ = writeln!(s, "  \"spans\": [");
    let mut id = 0;
    let total: usize = spans.iter().map(Vec::len).sum();
    for (client, spans) in spans.iter().enumerate() {
        for sp in spans {
            id += 1;
            let _ = writeln!(
                s,
                "    {{\"id\": {id}, \"parent\": 0, \"client\": {client}, \"op\": \"{}\", \"start_vns\": {}, \"end_vns\": {}, \"bytes\": {}, \"ok\": {}}}{}",
                sp.op.as_str(),
                sp.start_vns,
                sp.end_vns,
                sp.bytes,
                sp.ok,
                if id == total { "" } else { "," }
            );
        }
    }
    let _ = writeln!(s, "  ],");
    let names = ["syscall", "ring-hop", "worker-service", "numa-transfer"];
    let stages: Vec<String> = (0..4)
        .map(|i| {
            format!(
                "    \"{}\": {{\"spans\": {}, \"sum_vns\": {}, \"self_vns\": {}}}",
                names[i],
                st.count[i],
                st.sum[i],
                st.self_vns(i)
            )
        })
        .collect();
    let _ = writeln!(s, "  \"stages\": {{\n{}\n  }},", stages.join(",\n"));
    let _ = writeln!(s, "  \"fanout\": {},", st.fanout);
    let probes: Vec<String> = probes
        .iter()
        .map(|(n, v)| format!("    \"{n}\": {v}"))
        .collect();
    let _ = writeln!(s, "  \"probes\": {{\n{}\n  }}", probes.join(",\n"));
    let _ = writeln!(s, "}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trio-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = args.spec;
    // The traced pass shares its time with the reference and probe passes.
    let budget = Duration::from_secs_f64(if args.traced {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    #[cfg(feature = "obs")]
    let events0 = trio_obs::events_recorded();
    let Run {
        rounds,
        calls,
        last_spans,
    } = run_rounds(&args, budget);
    #[cfg(feature = "obs")]
    let events_recorded = trio_obs::events_recorded() - events0;
    #[cfg(not(feature = "obs"))]
    let events_recorded = 0;

    let mut checks = routing_checks(spec, &rounds);
    let total_calls: f64 = calls.iter().map(|c| c.calls).sum();
    let mut attempted = total_calls as u64 + rounds.iter().map(|r| r.checks).sum::<u64>();
    let mut failed =
        calls.iter().map(|c| c.failed).sum::<u64>() + rounds.iter().map(|r| r.misses).sum::<u64>();

    let metrics = if args.traced {
        let st = Stages::new(&rounds);
        // The join of the two span sources: every timed pread/pwrite
        // opened exactly one in-program syscall span.
        checks.push(Check {
            what: "one in-program syscall span per timed data call",
            ok: st.count[0] == calls.iter().map(|c| c.data_calls).sum::<f64>(),
        });
        let reference_seed = round_seed(args.seed, 0);
        let mut reference = |name| {
            let r = run_round(spec, FsKind::Baseline(name), reference_seed);
            let c = Calls::of(&r);
            attempted += c.calls as u64 + r.checks;
            failed += c.failed + r.misses;
            c.ops_per_vsec
        };
        let reference = Reference {
            nova_ops_per_vsec: reference("NOVA"),
            odinfs_ops_per_vsec: reference("OdinFS"),
        };
        let probes = match probe::run() {
            Ok(p) => p,
            Err(layer) => {
                checks.push(Check {
                    what: layer,
                    ok: false,
                });
                Vec::new()
            }
        };
        for (name, value) in &probes {
            println!("probe {name} {value}");
        }
        println!("paper {}: {}", spec.name, spec.paper);
        let metrics = layers::per_layer(&rounds, &calls, &st, &reference, &probes, events_recorded);
        if let (Some(dir), Some(last)) = (&args.out, rounds.last()) {
            let path = dir.join(format!("trace-{}.json", spec.name));
            let trace = trace_json(&args, last.window_vns, &last_spans, &st, &probes);
            if let Err(e) = std::fs::write(&path, trace) {
                eprintln!("trio-perfbench: cannot write {}: {e}", path.display());
                return ExitCode::from(1);
            }
            println!("wrote {}", path.display());
        }
        metrics
    } else {
        layers::end_to_end(&rounds, &calls)
    };

    for c in &checks {
        attempted += 1;
        failed += !c.ok as u64;
        println!("check {} {}", if c.ok { "ok  " } else { "MISS" }, c.what);
    }
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "op_n {total_calls} calls in {} rounds; per round {} calls, p50 {} vns, p99 {} vns ({} calls beyond it)",
        rounds.len(),
        mean_of(&calls, |c| c.calls),
        median_of(&calls, |c| c.p50),
        median_of(&calls, |c| c.p99),
        mean_of(&calls, |c| c.calls) / 100.0
    );
    let per_round: Vec<String> = calls.iter().map(|c| format!("{:?}", c.figures())).collect();
    println!("@rounds [{}]", per_round.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}
