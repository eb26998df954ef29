#!/usr/bin/env bash
# Full verification gate: tier-1 tests widened to every crate's own suite
# (`--workspace`; tier-1 itself stays the root package's), the exhaustive
# crash-point sweep at the pinned seed, the fault campaigns, and the bench
# files regenerated and compared byte for byte with the committed ledger —
# one build throughout: the program measured is the program tested. Run
# from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

# Only one sim-thread runs at any instant (DESIGN.md §2), so a bench, which
# runs one simulation after another, gains nothing from a second CPU and
# pays a cross-CPU wake-up on every switch: the bench stages run on the
# last CPU of the current affinity, as perfbench's do, or unpinned where
# taskset cannot pin. The test legs and the campaigns run simulations side
# by side on their test threads and stay unpinned (EXPERIMENTS.md
# "Sim-thread hand-off").
sim_cpu=
if command -v taskset > /dev/null && affinity=$(taskset -cp $$ 2> /dev/null); then
    # "pid N's current affinity list: 0,2-5": the last number is the CPU.
    sim_cpu=${affinity##*[ ,-]}
    taskset -c "$sim_cpu" true 2> /dev/null || sim_cpu=
fi
if [ -z "$sim_cpu" ]; then
    echo "note: cannot pin with taskset here; the bench stages run unpinned."
fi

# Runs `cargo $@` after building what it runs: the build on every CPU, then
# the run pinned to $sim_cpu.
pinned_cargo() {
    cargo "$@" --no-run
    if [ -n "$sim_cpu" ]; then
        taskset -c "$sim_cpu" cargo "$@"
    else
        cargo "$@"
    fi
}

# Ledger gate (ROADMAP "same seed, same bytes"): runs bench $1 a second time
# (extra environment in $4...) and requires its JSON to equal the first
# run's, $2, and the committed $3, byte for byte. Virtual time is a function
# of the seed, so equality is the whole regression check: unarmed injection
# hooks, typestate tokens and an idle scrubber cost exactly nothing, and a
# PR that moves a figure regenerates $3 in the same change.
same_bytes_as_ledger() {
    local bench=$1 first=$2 ledger=$3
    shift 3
    (
        [ $# -eq 0 ] || export "$@"
        TRIO_BENCH_OUT="$first.again" pinned_cargo bench -q -p trio-bench --bench "$bench" > /dev/null
    )
    if ! cmp "$first" "$first.again"; then
        echo "FAIL: two runs of $bench differ; something the clock or the allocator sees is not a function of the seed." >&2
        exit 1
    fi
    rm -f "$first.again"
    if ! cmp "$first" "$ledger"; then
        echo "FAIL: $bench no longer writes the committed $ledger; regenerate it in this change if the move is meant." >&2
        exit 1
    fi
    echo "OK: $bench is byte-identical across two runs and to the committed $ledger."
}

# The release bench_datapath executable, built with extra cargo flags $@,
# as cargo reports it: its file name carries a hash nobody should hard-code.
bench_datapath_exe() {
    cargo bench -q -p trio-bench --bench bench_datapath --no-run --message-format=json "$@" \
        | sed -n 's/.*"executable":"\([^"]*\/bench_datapath-[^"]*\)".*/\1/p'
}

# How many symbols of executable $1 belong to trio-obs.
obs_symbols() {
    nm "$1" | grep -c trio_obs || true
}

# One line per gate: its title on the way in, the host seconds it took on
# the way out (the gate's own clock; EXPERIMENTS.md keeps a measured row).
# A stage given a ceiling in host seconds ($2) fails the gate when it takes
# longer, so a campaign that silently grows tenfold cannot go unnoticed.
stage() {
    end_stage
    stage_name=$1 stage_ceiling=${2:-} stage_t0=$SECONDS
    echo
    echo "== $1 =="
}

end_stage() {
    [ -n "${stage_name:-}" ] || return 0
    local spent=$((SECONDS - stage_t0))
    echo "-- ${stage_name}: ${spent} s"
    if [ -n "$stage_ceiling" ] && [ "$spent" -gt "$stage_ceiling" ]; then
        echo "FAIL: ${stage_name} took ${spent} s, over its ${stage_ceiling} s ceiling." >&2
        exit 1
    fi
}

stage "tier-1 over every crate, and the benchmark's build"
# Every oracle that needs no campaign-sized iteration count runs here, in
# the one build: the 408-point crash sweep (each point with the sanitizer's
# verdict; TRIO_ITER=<point> replays one), the sanitizer's mutation tests,
# the race detector, and the chaos / adversary / media campaigns at their
# default sizes.
cargo build --release
cargo test -q --workspace
# perfbench/ (BENCHMARK.json) is a workspace of its own that nothing above
# compiles: check it against the tree, untraced and traced, so a refactor
# that breaks the API it is frozen against fails here, not in the benchmark
# run. Read-only; writes only under target/.
for features in "" "--features obs"; do
    # shellcheck disable=SC2086
    cargo check --offline --manifest-path perfbench/Cargo.toml \
        --target-dir target/perfbench/check $features
done

stage "obs timelines, on parallel test threads and on one"
# Each SimRuntime owns its flight recorder (DESIGN.md §15), so a seeded
# run dumps the same timeline whatever runs beside it: the timeline tests
# pass under the default test threads and under --test-threads=1 alike.
cargo test -q --test obs_timeline
cargo test -q --test obs_timeline -- --test-threads=1

stage "clippy, all targets"
# --all-targets: rustc's `unexpected_cfgs` shows only where test targets
# are compiled, and a test gated on a feature nobody declares never runs.
# Eight project rules are clippy's (DESIGN.md §13): the disallowed types
# and methods of clippy.toml, the no-panic attributes of trio-kernel and
# trio-verifier, and the workspace `[lints]` table (`forbid(unsafe_code)`,
# and every `#[allow]` gives a reason).
cargo clippy --workspace --all-targets -- -D warnings

stage "xtask lint"
# The lexical pass keeps the three rules no compiler check expresses yet
# (DESIGN.md §13): no-payload-copy, hot-path-registry and layout-door. Must
# be clean on the workspace and must still flag every rule on its fixture
# crate. Zero cost when obs is off is not a lint rule: the obs stage below
# checks it on the built binary.
cargo xtask lint
if cargo xtask lint crates/xtask/fixtures/lint-fixture > /dev/null 2>&1; then
    echo "FAIL: xtask lint did not flag the rule-violating fixture." >&2
    exit 1
fi
echo "OK: fixture crate still trips the lint."

stage "non-test lines per crate (logged, not gated)"
# What a simplicity change is measured by: per crate, the lines of
# crates/*/src that carry code, up to each file's first #[cfg(test)].
cargo xtask lines

stage "typestate compile-fail fixture"
# Compiler-checked persistence ordering (DESIGN.md §18): clippy.toml's
# raw-publish entries (the clippy stage above) keep shipped library code on
# the typed Dirty -> Durable pipeline (persist_dirty is its one barrier,
# stage_publish_u64 its one commit word), and typestate-check proves that
# publish-before-persist fails to compile — with a type error, not
# incidentally. A missing flush or fence has no typed spelling at all.
# Both fixture checks build into target/fixtures.
cargo xtask typestate-check

stage "clippy compile-fail fixture"
# Each rule clippy took over bites: one clippy run over
# crates/xtask/fixtures/clippy-fixture, against the root clippy.toml
# (CLIPPY_CONF_DIR), must report each case at its marked line and nothing
# on the reasoned-allow twins, and every clippy.toml entry needs a case:
# clippy only warns about a path that stops resolving (a renamed method),
# even under -D warnings, and the entry then checks nothing.
cargo xtask clippy-check

stage "the other feature leg, --no-default-features"
# Everything but tests/obs_timeline.rs builds and passes with recording
# compiled out of trio-obs itself, and trio-obs's own off-state test checks
# that its entry points then record nothing.
cargo test -q --no-default-features -p trio-repro -p trio-obs

# The three campaigns below run on one campaign driver (tests/common/campaign.rs):
# TRIO_ITERS sizes each, every iteration ends on the MMU audit and the
# sanitizer's verdict, a failed iteration prints the one line that replays
# it — TRIO_SEED=… TRIO_ITER=… cargo test --release --test <target>
# <campaign> — and target/<campaign>-report.json keeps the counters and
# the failures.

# Ceiling 60 s: the stage measures 4–6 s warm on a busy 2-CPU container
# (EXPERIMENTS.md "A device that costs what it touches"); the same holds
# for the two campaigns after it.
stage "chaos campaign: worker kills under delegated traffic" 60
# Delegation failure domains (DESIGN.md §16): 500 iterations crossing
# worker-kill points (after-pop / mid-payload / before-reply) with
# multi-LibFS traffic and stall injection. The test asserts no hangs,
# model equivalence (no lost or stale writes), kills in at least half the
# iterations and every death recovered; the report carries the client
# retries that recovered them and recovery-latency percentiles.
TRIO_ITERS=500 cargo test -q --release --test chaos_delegation

stage "adversary campaign: 2k grammar corruptions" 60
# The corruption fuzzer (DESIGN.md §14) drives every mutation production
# through a hostile LibFS at a fixed seed: zero panics, zero hangs,
# victim model-equivalence, and quarantine→repair→re-admission on every
# confirmed violation; the report counts each production applied.
TRIO_ITERS=2000 cargo test -q --release --test adversary_fuzz

stage "media campaign: patrol routes + 500 seeded faults" 60
# Media-fault tolerance (DESIGN.md §19): the route-by-route patrol tests
# plus the seeded campaign — poison and silent rot injected under live
# delegated traffic, crash points planted inside the recovery repair. The
# campaign asserts metadata faults injected and all of them repaired, zero
# silent data loss and allocator conservation. The scrubber is opt-in
# (start_patrol), so the perf gate below doubles as the scrubber-idle
# 0.00%-delta check — no patrol thread exists unless a workload asks for one.
TRIO_ITERS=500 cargo test -q --release --test media_campaign

stage "obs: no trio_obs symbol when off, a flight-recorder timeline when on"
# Zero cost when off (DESIGN.md §15), proved on the binary: the obs-off
# release bench_datapath holds no trio_obs symbol, because trio-obs's
# recording entry points inline to nothing without its `record` feature.
# The obs-on build must hold some, so the check cannot pass vacuously.
off_exe=$(bench_datapath_exe)
on_exe=$(bench_datapath_exe --features obs)
test -x "$off_exe" && test -x "$on_exe"
off_symbols=$(obs_symbols "$off_exe")
on_symbols=$(obs_symbols "$on_exe")
if [ "$off_symbols" -ne 0 ]; then
    echo "FAIL: the obs-off bench_datapath holds $off_symbols trio_obs symbols." >&2
    exit 1
fi
if [ "$on_symbols" -eq 0 ]; then
    echo "FAIL: the obs-on bench_datapath holds no trio_obs symbol; the check above proves nothing." >&2
    exit 1
fi
echo "OK: trio_obs symbols in bench_datapath: 0 obs-off, $on_symbols obs-on."
# With the 'obs' feature on, bench_datapath leaves target/obs-timeline.json
# behind and asserts what it holds: events, and per-stage histograms
# covering at least the ring hop and the worker service stage
# (tests/obs_timeline.rs puts the same serializer through a real parser).
rm -f target/obs-timeline.json
TRIO_BENCH_OUT=/tmp/trio_obs_bench.$$ TRIO_SCALE=16 \
    pinned_cargo bench -p trio-bench --features obs --bench bench_datapath > /dev/null
rm -f /tmp/trio_obs_bench.$$
test -s target/obs-timeline.json

stage "data-path bench == committed ledger"
# Regenerate BENCH_datapath.json (virtual time: host noise cannot move it).
# What a regenerated ledger may say, the bench asserts beside the value:
# zero payload copies, every delegated byte checksummed inline, a live read
# lane, quiescent watchdog counters, registry_locks <= 10.
TRIO_BENCH_OUT=/tmp/trio_datapath.$$ TRIO_SCALE=16 \
    pinned_cargo bench -p trio-bench --bench bench_datapath
same_bytes_as_ledger bench_datapath /tmp/trio_datapath.$$ BENCH_datapath.json TRIO_SCALE=16
rm -f /tmp/trio_datapath.$$

stage "mega-tenant bench == committed ledger"
# DESIGN.md §20, §21: one kernel, N = {8, 32, 128} independent LibFS tenants
# doing metadata churn plus delegated writes; the bench asserts the
# registry-lock budget, the recall, the lease-wait bound and the
# per-tenant rate.
TRIO_BENCH_OUT=/tmp/trio_megatenant.$$ \
    pinned_cargo bench -p trio-bench --bench bench_megatenant
same_bytes_as_ledger bench_megatenant /tmp/trio_megatenant.$$ BENCH_megatenant.json
rm -f /tmp/trio_megatenant.$$

stage "sharing cost, Table 3 create-100 (logged, not gated)"
# DESIGN.md §22: the paper's row still rebuilds on every hand-over; the
# same loop run by one LibFS alone re-maps without rebuilding.
pinned_cargo bench -q -p trio-bench --bench table3_sharing | grep -E '^create, 100 files|sole writer'

stage "Fig. 5(d) create / delete, one thread (logged, not gated)"
# ROADMAP 5(c): the paper has ArckFS deleting 7.4–9.4× faster than NOVA;
# the rows below show how far the metadata path is from that.
pinned_cargo bench -q -p trio-bench --bench fig5_single_thread | sed -n '/^== (d)/,$p'

end_stage
echo
echo "verify.sh: all gates passed in $SECONDS s."
