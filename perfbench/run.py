#!/usr/bin/env python3
"""The one command of BENCHMARK.json: build, pin, run, check.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
        One run of one workload, as the benchmark contract asks: the last
        line of standard output is the result object.
    python3 perfbench/run.py [--seed N] [--seconds S]
        Every workload, untraced then traced, and a summary.
    python3 perfbench/run.py --selfcheck [--seed N]
        Two sets of runs at one seed and one at the next seed, compared.

Every workload runs in a process of its own, pinned to the last CPU this
process may use: sim-threads are OS threads that run one at a time, so on
one CPU host time is a usable metric. Results and traces go to
`<target dir>/benchmark/`, where the target dir is `$CARGO_TARGET_DIR` or
`target/perfbench`. See README.md beside this file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TARGET = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / "target" / "perfbench").resolve()
OUT = TARGET / "benchmark"
# Rounds of the untraced reference a traced run is compared with, and of
# every run of --selfcheck (a fixed count makes virtual figures a pure
# function of the seed).
REFERENCE_ROUNDS = 3
SELFCHECK_ROUNDS = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the untraced and the traced (`obs`) program, each in its own
    target directory so neither build evicts the other. Returns their paths."""
    binaries = {}
    for name, features in (("plain", []), ("obs", ["--features", "obs"])):
        target = TARGET / f"perfbench-{name}"
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(HERE / "Cargo.toml"), "--target-dir", str(target), *features]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail(f"the {name} build failed")
        binaries[name] = target / "release" / "trio-perfbench"
    return binaries


def pin_cpu():
    """The last CPU this process may run on, or None where the host cannot pin."""
    try:
        return max(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None


def run_program(binary, args, cpu):
    """Runs one pinned process to its end; returns (its output lines, the
    result object of its last line, its per-round figures)."""
    env = dict(os.environ,
               # One malloc arena and a fixed mmap threshold: peak RSS then
               # neither grows with the number of rounds nor depends on which
               # sim-thread allocated first or on glibc's self-tuning.
               MALLOC_ARENA_MAX="1",
               MALLOC_MMAP_THRESHOLD_="131072",
               TRIO_OBS_TIMELINE=str(OUT / "obs-timeline.json"))
    pin = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE, text=True, env=env,
                          preexec_fn=pin)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{binary.name} {' '.join(args)} exited with {proc.returncode}")
    rounds = next((json.loads(l[len("@rounds "):]) for l in lines if l.startswith("@rounds ")), [])
    return lines, json.loads(lines[-1]), rounds


def run_workload(binaries, cpu, workload, seed, seconds, trace, rounds=None, quiet=False):
    """One run as the contract defines it; returns the result object."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(OUT)]
    if rounds:
        args += ["--rounds", str(rounds)]
    if trace == 0:
        lines, result, _ = run_program(binaries["plain"], args, cpu)
        expected = SPEC["end_to_end"]
    else:
        # End-to-end figures always come from the untraced program. Two short
        # untraced passes on the same round seeds say whether the program
        # repeats itself, and against them, what tracing changed.
        n = rounds or REFERENCE_ROUNDS
        plain_args = ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                      "--trace", "0", "--rounds", str(n)]
        _, _, plain = run_program(binaries["plain"], plain_args, cpu)
        _, _, again = run_program(binaries["plain"], plain_args, cpu)
        lines, result, traced = run_program(binaries["obs"], args, cpu)

        def vtime_delta(xs, ys):
            # Per round: seven virtual figures (calls, window, p50, p99,
            # rate, mid, tail), then the window's host seconds.
            return max(abs(x - y) / y for xr, yr in zip(xs, ys) for x, y in zip(xr[:7], yr[:7]))

        n = min(len(plain), len(traced))
        rerun = vtime_delta(again, plain)
        delta = vtime_delta(traced[:n], plain[:n])
        overhead = (statistics.median(r[7] for r in traced[:n])
                    / statistics.median(r[7] for r in plain[:n]) - 1)
        for name, value in (("trio-sim.rerun_vtime_delta", rerun),
                            ("trio-obs.trace_vtime_delta", delta),
                            ("trio-obs.trace_host_overhead", overhead)):
            result["metrics"][name] = {"value": value, "unit": "ratio"}
            lines.insert(-1, f"metric {name} {value} ratio")
        # Where the untraced program does not repeat itself, what tracing
        # does to virtual time cannot be told from what a rerun does.
        result["attempted"] += 1
        verdict, why = "ok  ", ""
        if rerun != 0:
            verdict, why = "unresolved", f" (two untraced passes differ by {rerun:.2%} themselves)"
        elif delta != 0:
            verdict = "MISS"
            result["failed"] += 1
            result["correct"] = False
        lines.insert(-1, f"check {verdict} tracing leaves virtual time alone{why}")
        expected = SPEC["per_layer"]
    want = {(m["name"], m["unit"]) for m in expected}
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    if want != got:
        fail(f"metrics differ from BENCHMARK.json: {sorted(want ^ got)}")
    if not quiet:
        for line in lines[:-1]:
            if not line.startswith("@rounds "):
                print(line)
        if cpu is None:
            print("pinned: false (host_s, setup_s and host-clock layer metrics are unresolved)")
    (OUT / f"result-{workload}-trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def clock_of(metric):
    """Which clock a metric reads: 'host' figures carry host noise."""
    host = ("host_s", "setup_s", "peak_rss_mb", "trio-sim.host_ns_per_event",
            "trio-obs.trace_host_overhead", "trio-layout.probe_dirent_codec_hns",
            "trio-layout.probe_walk600_hns")
    return "host" if metric in host else "virtual"


def run_all(binaries, cpu, seed, seconds):
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} --trace {trace}")
            result = run_workload(binaries, cpu, workload, seed, seconds, trace)
            print(f"correct {result['correct']}: {result['failed']} of {result['attempted']} failed")
            ok &= result["correct"]
    print(f"results in {OUT}")
    return ok


def selfcheck(binaries, cpu, seed):
    """Set A and set B at `seed`, set C at `seed + 1`, a fixed number of
    rounds each. Virtual figures must repeat exactly between A and B or have
    their spread printed; host figures are held to the bounds of
    BENCHMARK.json; C says how much a seed moves each figure."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    ok = True
    print(f"{'workload':<13} {'metric':<40} {'A':>14} {'B vs A':>12} {'seed+1 vs A':>12}  verdict")
    for workload in WORKLOADS:
        for trace in (0, 1):
            a, b, c = (run_workload(binaries, cpu, workload, s, 1, trace, SELFCHECK_ROUNDS, quiet=True)
                       for s in (seed, seed, seed + 1))
            ok &= a["correct"] and b["correct"] and c["correct"]
            for name, m in a["metrics"].items():
                va, vb, vc = (r["metrics"][name]["value"] for r in (a, b, c))
                rel = lambda v: (v - va) / abs(va) if va else float(v != va)
                worse = rel(vb) if better[name] == "lower" else -rel(vb)
                if clock_of(name) == "host":
                    if cpu is None:
                        verdict = "unresolved (unpinned)"
                    elif name in bounds:
                        within = worse <= bounds[name]
                        verdict = f"within {bounds[name]:.0%}" if within else f"OVER {bounds[name]:.0%}"
                        ok &= within
                    else:
                        verdict = "host clock, no bound"
                else:
                    verdict = "exact" if vb == va else f"spread {abs(rel(vb)):.3%}"
                    if name in bounds and abs(rel(vb)) > bounds[name]:
                        verdict += f" OVER {bounds[name]:.0%}"
                        ok = False
                print(f"{workload:<13} {name:<40} {va:>14.6g} {rel(vb):>+12.3%} {rel(vc):>+12.3%}  {verdict}")
            if not (a["correct"] and b["correct"] and c["correct"]):
                print(f"{workload:<13} --trace {trace}: a run reported failed operations or checks")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()

    binaries = build()
    OUT.mkdir(parents=True, exist_ok=True)
    cpu = pin_cpu()
    if args.selfcheck:
        ok = selfcheck(binaries, cpu, args.seed)
        print("selfcheck passed" if ok else "selfcheck FAILED")
    elif args.workload:
        result = run_workload(binaries, cpu, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        ok = True  # The result object itself says whether the run was correct.
    else:
        ok = run_all(binaries, cpu, args.seed, args.seconds)
    sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
