//! The campaign driver: one replay key, one tally, one oracle tail and one
//! report behind every seeded campaign in `tests/` — the crash sweep and
//! the chaos, adversary and media campaigns. A campaign brings its world,
//! one iteration and its own end-of-run assertions; this module does the
//! rest:
//!
//! - **Replay key.** Iteration `iter` of campaign seed `seed` is a
//!   [`Case`], and everything random in it derives from
//!   [`Case::sub_seed`]. Three variables steer every campaign: `TRIO_SEED`
//!   and `TRIO_ITERS` replace a seeded campaign's seed and size, and
//!   `TRIO_ITER` runs one iteration of any campaign.
//! - **Failure = a replay line.** Each iteration runs under `catch_unwind`.
//!   A panic is recorded as `TRIO_SEED=… TRIO_ITER=… cargo test --release
//!   --test <target> <campaign>: <message>`, and the run goes on.
//! - **Report.** Counters summed over the iterations, sample series as
//!   p50 / p99, and the failures go to `target/<campaign>-report.json`;
//!   only then does [`run`] assert that nothing failed.

#![allow(
    dead_code,
    reason = "each test target compiles the whole module and uses its own part of it"
)]

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use trio_kernel::KernelController;
use trio_sim::metrics::{quoted, JsonObject};
use trio_sim::rng::SimRng;

/// One iteration's replay key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Case {
    /// The campaign seed.
    pub seed: u64,
    /// The iteration (for the crash sweep: the crash point).
    pub iter: u64,
}

impl Case {
    /// The iteration's own seed: the one derivation every campaign draws
    /// from, so neighbouring iterations see unrelated streams.
    pub fn sub_seed(self) -> u64 {
        self.seed ^ self.iter.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// A generator over [`Case::sub_seed`].
    pub fn rng(self) -> SimRng {
        SimRng::seed_from_u64(self.sub_seed())
    }
}

/// The environment that replays the case.
impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TRIO_SEED={} TRIO_ITER={}", self.seed, self.iter)
    }
}

/// What iterations observed: named counters, summed over a run, and named
/// sample series, reported as p50 / p99.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    counters: BTreeMap<String, u64>,
    samples: BTreeMap<String, Vec<u64>>,
    /// Renderings of what one iteration left behind: compared by
    /// [`assert_replays`], not carried into a run's total.
    state: Vec<String>,
}

impl Tally {
    /// Adds `n` to counter `name` (creating it at 0 + `n`).
    pub fn add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_owned()).or_default() += n;
    }

    /// Appends `values` to sample series `name`.
    pub fn samples(&mut self, name: &str, values: impl IntoIterator<Item = u64>) {
        self.samples.entry(name.to_owned()).or_default().extend(values);
    }

    /// Records a rendering of the iteration's end state for replay checks.
    pub fn state(&mut self, rendering: String) {
        self.state.push(rendering);
    }

    /// Counter `name`, 0 if nothing added to it.
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn merge(&mut self, other: Tally) {
        for (name, n) in other.counters {
            *self.counters.entry(name).or_default() += n;
        }
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }
}

/// A variable of the replay key, if set.
fn env(name: &str) -> Option<u64> {
    let v = std::env::var(name).ok()?;
    Some(v.parse().unwrap_or_else(|_| panic!("{name}={v} is not a u64")))
}

/// Runs a seeded campaign: iterations `0..TRIO_ITERS` (else `iters`) of
/// seed `TRIO_SEED` (else `seed`). See [`run`].
pub fn seeded(name: &str, seed: u64, iters: u64, iteration: impl Fn(Case) -> Tally) -> Tally {
    let seed = env("TRIO_SEED").unwrap_or(seed);
    run(name, seed, 0..env("TRIO_ITERS").unwrap_or(iters), iteration)
}

/// Runs `iteration` once per point of `domain` (only point `TRIO_ITER` when
/// that is set), records each panic as its replay line, writes
/// `target/<name>-report.json`, then asserts that no iteration failed.
/// `name` doubles as the replay line's test filter, so it must be part of
/// the calling test's name. Returns the summed tally, with `iterations`.
pub fn run(
    name: &str,
    seed: u64,
    domain: impl IntoIterator<Item = u64>,
    iteration: impl Fn(Case) -> Tally,
) -> Tally {
    let iters: Vec<u64> = match env("TRIO_ITER") {
        Some(iter) => vec![iter],
        None => domain.into_iter().collect(),
    };
    let mut total = Tally::default();
    let mut failures = Vec::new();
    for &iter in &iters {
        let case = Case { seed, iter };
        match catch_unwind(AssertUnwindSafe(|| iteration(case))) {
            Ok(tally) => total.merge(tally),
            Err(panic) => failures.push(format!(
                "{case} cargo test --release --test {} {name}: {}",
                env!("CARGO_CRATE_NAME"),
                message(&*panic)
            )),
        }
    }
    total.add("iterations", iters.len() as u64);
    let path = write_report(name, seed, &total, &failures);
    assert!(
        failures.is_empty(),
        "{} of {} iterations failed (report: {path}); first: {}",
        failures.len(),
        iters.len(),
        failures[0]
    );
    total
}

fn message(panic: &(dyn Any + Send)) -> &str {
    (panic.downcast_ref::<String>().map(String::as_str))
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("a panic without a message")
}

fn write_report(name: &str, seed: u64, total: &Tally, failures: &[String]) -> String {
    let mut w = JsonObject::new();
    w.field("campaign", quoted(name)).field("seed", seed);
    for (counter, n) in &total.counters {
        w.field(counter, n);
    }
    for (series, values) in &total.samples {
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = |q: usize| sorted.get(sorted.len().saturating_sub(1) * q / 100).copied();
        w.field(&format!("{series}_p50"), rank(50).unwrap_or(0))
            .field(&format!("{series}_p99"), rank(99).unwrap_or(0));
    }
    w.array("failures", failures.iter().map(|f| quoted(f)));
    let path = format!("target/{name}-report.json");
    std::fs::create_dir_all("target")
        .and_then(|()| std::fs::write(&path, w.finish() + "\n"))
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    path
}

/// The oracles every iteration ends on, asked of a quiescent kernel: its
/// page tables hold exactly what the books give each actor, and its
/// device's persistence order had no hazard (a device built without
/// `track_persistence` has no tracker and reports clean).
pub fn oracle_tail(kernel: &KernelController, case: Case) {
    let audit = kernel.audit_mmu_against_books();
    assert!(audit.is_clean(), "page tables disagree with the books: {audit:?}");
    kernel.device().take_sanitize_report(case.seed).expect_clean(&case.to_string());
}

/// Runs each iteration twice and requires equal tallies: everything an
/// iteration draws must come from its [`Case`].
pub fn assert_replays(seed: u64, iters: &[u64], iteration: impl Fn(Case) -> Tally) {
    for &iter in iters {
        let case = Case { seed, iter };
        assert_eq!(iteration(case), iteration(case), "{case}: the replay diverged");
    }
}
