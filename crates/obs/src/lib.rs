//! Op-level observability for the delegated data path (DESIGN.md §15).
//!
//! Three pieces, all dependency-free, kept per simulation in one
//! [`Recorder`] that each `SimRuntime` owns:
//!
//! * **Spans.** Every syscall-layer op draws a runtime-unique op id; the
//!   id rides the delegation ring inside [`DelegReq::op_id`] so the
//!   kernel workers and the verifier stamp their events with the op that
//!   caused them. Each span stage emits an open and a close [`event`].
//! * **Histograms.** Stage close records the span latency into a
//!   log-bucketed per-`(op kind, stage)` histogram. Percentile readout
//!   uses *geometric bucket midpoints* (`2^i·√2` for bucket
//!   `[2^i, 2^(i+1))`) — the unbiased point estimate for log-uniform
//!   samples — with an explicit zero-latency counter so 0 ns sim hops
//!   are never aliased with 1 ns ones.
//! * **Flight recorder.** A bounded ring of the last
//!   [`RECORDER_SLOTS`] events. On a delegation timeout, a delegation
//!   fallback, a verification violation, or a quarantine entry, the
//!   recorder auto-dumps a replayable JSON timeline to
//!   `target/obs-timeline.json` (override with `TRIO_OBS_TIMELINE`) —
//!   once per trigger kind per process, so a fuzz campaign cannot grind
//!   on file IO.
//!
//! A runtime runs one sim-thread at a time, so its recorder sees its
//! events in the schedule's order: a seeded run records the same timeline
//! whatever else runs in the process. Nothing is recorded outside a
//! sim-thread. Recording never charges virtual time, so enabling `obs`
//! cannot perturb the simulated schedule: a run with and without the
//! feature produces the same virtual timeline.
//!
//! The crate's one feature, `record`, is the one observability switch.
//! Without it every recording entry point (the op ids, [`now_ns`],
//! [`event`] / [`event_at`], [`record_latency`], [`trigger_dump`] and
//! [`window_marker`]) returns at once and is inlined at its call site, so
//! the compiler removes the call and an obs-off build carries no
//! `trio_obs` symbol. Consumers call their hooks unconditionally; each
//! consumer's `obs` feature only forwards to `record`.
//!
//! [`DelegReq::op_id`]: struct.DelegReq.html

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use trio_sim::metrics::{bucket_index, quantile_ns, quoted, JsonObject};
use trio_sim::plock::Mutex;
use trio_sim::{in_sim, now, SimRuntime};

/// Whether recording is compiled in (the `record` feature).
const ON: bool = cfg!(feature = "record");

// ---------------------------------------------------------------------------
// Vocabulary
// ---------------------------------------------------------------------------

/// What kind of operation a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Read = 0,
    Write = 1,
    /// Integrity verification (verifier walks run on the mapping path).
    Verify = 2,
    /// Harness bookkeeping (measurement-window markers).
    Harness = 3,
}

/// Number of [`OpKind`] variants (histogram array extent).
pub const KIND_COUNT: usize = 4;

/// Pipeline stage a span event belongs to. The delegation path reads
/// `syscall ⊃ (ring-hop ⊃ (worker-service ⊃ numa-transfer))`: the
/// ring-hop open is the submit, its close is the reply receipt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// LibFS syscall entry/exit (`pread`/`pwrite` in `crates/core`).
    Syscall = 0,
    /// Ring round trip: open = submit, close = reply received.
    RingHop = 1,
    /// Delegation worker servicing one request (dequeue → reply sent).
    WorkerService = 2,
    /// The worker's actual NVM extent access within the service.
    NumaTransfer = 3,
    /// One `Verifier::verify` walk.
    VerifierWalk = 4,
    /// Measured harness window (open at barrier release, close at join).
    Window = 5,
    /// One retry decision on the delegation/refill paths: open carries
    /// the attempt number in `actor` and the chosen backoff window (ns)
    /// in `aux`. Under `OpKind::Harness` with a real `node`, a lease wait
    /// (DESIGN.md §21): `actor` waits for LibFS `node` to yield; open
    /// carries the ino in `aux`, close the waited ns.
    Retry = 6,
    /// Failure-domain transition: worker death/restart and degraded-mode
    /// enter/exit. Open = failure observed, close = recovered.
    Failover = 7,
    /// One patrol-scrub pass over a page budget (DESIGN.md §19): open at
    /// pass start, close with pages scanned in `aux`.
    Scrub = 8,
    /// One media repair (superblock/journal twin rewrite, rollback route,
    /// or page migration): open = fault confirmed, close = repaired.
    Repair = 9,
}

/// Number of [`Stage`] variants (histogram array extent).
pub const STAGE_COUNT: usize = 10;

/// Span event phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    Open = 0,
    Close = 1,
}

impl OpKind {
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Verify => "verify",
            OpKind::Harness => "harness",
        }
    }

    fn from_index(i: usize) -> Option<OpKind> {
        [OpKind::Read, OpKind::Write, OpKind::Verify, OpKind::Harness].get(i).copied()
    }
}

impl Stage {
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Syscall => "syscall",
            Stage::RingHop => "ring-hop",
            Stage::WorkerService => "worker-service",
            Stage::NumaTransfer => "numa-transfer",
            Stage::VerifierWalk => "verifier-walk",
            Stage::Window => "window",
            Stage::Retry => "retry",
            Stage::Failover => "failover",
            Stage::Scrub => "scrub",
            Stage::Repair => "repair",
        }
    }

    fn from_index(i: usize) -> Option<Stage> {
        [
            Stage::Syscall,
            Stage::RingHop,
            Stage::WorkerService,
            Stage::NumaTransfer,
            Stage::VerifierWalk,
            Stage::Window,
            Stage::Retry,
            Stage::Failover,
            Stage::Scrub,
            Stage::Repair,
        ]
        .get(i)
        .copied()
    }
}

impl Phase {
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Open => "open",
            Phase::Close => "close",
        }
    }
}

// ---------------------------------------------------------------------------
// The recorder
// ---------------------------------------------------------------------------

/// Bounded event capacity: the recorder keeps the last this-many span
/// events and overwrites the oldest.
pub const RECORDER_SLOTS: usize = 4096;

/// One simulation's flight recorder, kept in its [`SimRuntime::slot`]: the
/// event ring, the stage histograms and the op-id counter. A clone is a
/// handle to the same recorder, readable after the runtime's `run`.
#[derive(Clone, Default)]
pub struct Recorder(Arc<Mutex<Log>>);

#[derive(Default)]
struct Log {
    /// The last [`RECORDER_SLOTS`] events; generation `g` sits at
    /// `g % RECORDER_SLOTS`.
    ring: Vec<EventRec>,
    /// Events recorded so far: the next event's generation.
    head: u64,
    hists: ObsSnapshot,
    /// The last op id drawn.
    last_op: u64,
}

/// Events recorded in this process across runtimes: perfbench reads it
/// around a series of runs, outside any one of them.
static EVENTS: AtomicU64 = AtomicU64::new(0);

/// Runs `f` on the calling sim-thread's recorder. Nothing is recorded
/// outside a sim-thread, or with recording compiled out (`None`).
#[inline]
fn with_log<R>(f: impl FnOnce(&mut Log) -> R) -> Option<R> {
    if !ON {
        return None;
    }
    trio_sim::runtime::with_slot(|r: &Recorder| f(&mut r.0.lock()))
}

/// The calling sim-thread's recorder (`None` outside a sim-thread).
#[inline]
pub fn recorder() -> Option<Recorder> {
    if !ON {
        return None;
    }
    trio_sim::runtime::with_slot(Recorder::clone)
}

impl Recorder {
    /// `rt`'s recorder.
    pub fn of(rt: &SimRuntime) -> Recorder {
        rt.slot::<Recorder>().clone()
    }

    /// Every stage histogram.
    pub fn snapshot(&self) -> ObsSnapshot {
        self.0.lock().hists.clone()
    }

    /// The events the ring holds, oldest first.
    pub fn events(&self) -> Vec<EventRec> {
        self.0.lock().events()
    }

    /// The replayable timeline as a JSON string: the ring's events oldest
    /// first, one per line, then the non-empty stage histograms.
    pub fn timeline_json(&self, trigger: &str) -> String {
        let log = self.0.lock();
        let mut w = JsonObject::new();
        w.field("trigger", quoted(trigger))
            .field("now_ns", now_ns())
            .field("events_recorded", log.head)
            .field("events_overwritten", log.head.saturating_sub(RECORDER_SLOTS as u64))
            .objects("events", log.events(), |o, e| {
                o.field("gen", e.generation)
                    .field("op", e.op_id)
                    .field("t_ns", e.t_ns)
                    .field("kind", quoted(e.kind.as_str()))
                    .field("stage", quoted(e.stage.as_str()))
                    .field("phase", quoted(e.phase.as_str()))
                    .field("actor", e.actor)
                    .field("node", e.node)
                    .field("aux", e.aux);
            })
            .object("stages", |o| {
                for (kind, stage, h) in log.hists.stages() {
                    o.object(&format!("{}/{}", kind.as_str(), stage.as_str()), |o| h.write_json(o));
                }
            });
        w.finish() + "\n"
    }

    /// Writes the timeline to [`timeline_path`] and returns the path. The
    /// write goes to a temp file first and renames into place, so a
    /// concurrent reader never sees a half-written artifact.
    pub fn dump(&self, trigger: &str) -> std::io::Result<PathBuf> {
        let path = timeline_path();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, self.timeline_json(trigger))?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

impl Log {
    fn push(&mut self, e: EventRec) {
        let i = (e.generation % RECORDER_SLOTS as u64) as usize;
        if i == self.ring.len() {
            self.ring.push(e);
        } else {
            self.ring[i] = e;
        }
        self.head += 1;
        EVENTS.fetch_add(1, Ordering::Relaxed);
    }

    fn events(&self) -> Vec<EventRec> {
        let mut evs = self.ring.clone();
        evs.rotate_left((self.head % RECORDER_SLOTS as u64) as usize);
        evs
    }
}

// ---------------------------------------------------------------------------
// Op ids
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

/// Draws a fresh op id, unique within the calling sim-thread's runtime
/// (ids start at 1; 0 means "none", and is what a caller outside a
/// sim-thread gets).
#[inline]
pub fn next_op_id() -> u64 {
    with_log(|l| {
        l.last_op += 1;
        l.last_op
    })
    .unwrap_or(0)
}

/// The op id of the span currently open on this thread (0 if none). Sim
/// threads are real OS threads, so the thread-local follows each
/// sim-thread exactly.
#[inline]
pub fn current_op() -> u64 {
    if !ON {
        return 0;
    }
    CURRENT_OP.with(|c| c.get())
}

/// Installs `op` as this thread's current op, returning the previous
/// value so nested spans can restore it.
#[inline]
pub fn set_current_op(op: u64) -> u64 {
    if !ON {
        return 0;
    }
    CURRENT_OP.with(|c| c.replace(op))
}

/// Virtual now, or 0 outside the simulation.
#[inline]
pub fn now_ns() -> u64 {
    if ON && in_sim() {
        now()
    } else {
        0
    }
}

// ---------------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------------

/// Log-bucket count: bucket `i` covers `[2^i, 2^(i+1))` ns, so 32 buckets
/// reach ~4.3 s — far past any delegation deadline.
pub const OBS_HIST_BUCKETS: usize = 32;

/// One `(kind, stage)` latency histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded at exactly 0 ns (below every log bucket).
    pub zero: u64,
    pub count: u64,
    pub sum_ns: u64,
    pub buckets: [u64; OBS_HIST_BUCKETS],
}

/// Records one span latency into the `(kind, stage)` histogram.
#[inline]
pub fn record_latency(kind: OpKind, stage: Stage, ns: u64) {
    with_log(|l| {
        let h = &mut l.hists.hists[kind as usize * STAGE_COUNT + stage as usize];
        h.count += 1;
        h.sum_ns += ns;
        if ns == 0 {
            h.zero += 1;
        } else {
            h.buckets[bucket_index(ns, OBS_HIST_BUCKETS)] += 1;
        }
    });
}

impl HistSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Counter-wise difference vs an earlier snapshot.
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        self.zip(earlier, u64::saturating_sub)
    }

    fn zip(&self, other: &HistSnapshot, f: fn(u64, u64) -> u64) -> HistSnapshot {
        HistSnapshot {
            zero: f(self.zero, other.zero),
            count: f(self.count, other.count),
            sum_ns: f(self.sum_ns, other.sum_ns),
            buckets: std::array::from_fn(|i| f(self.buckets[i], other.buckets[i])),
        }
    }

    /// Mean latency in ns (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// The `num/den` quantile via geometric bucket midpoints. The zero
    /// counter sits below bucket 0 as explicit value-0 mass.
    pub fn percentile_ns(&self, num: u64, den: u64) -> u64 {
        quantile_ns(self.zero, &self.buckets, num, den)
    }

    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(1, 2)
    }

    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99, 100)
    }

    pub fn p999_ns(&self) -> u64 {
        self.percentile_ns(999, 1000)
    }

    fn write_json(&self, o: &mut JsonObject) {
        o.field("count", self.count)
            .field("zero", self.zero)
            .field("mean_ns", self.mean_ns())
            .field("p50_ns", self.p50_ns())
            .field("p99_ns", self.p99_ns())
            .field("p999_ns", self.p999_ns());
    }
}

/// All `(kind, stage)` histograms of one recorder at one instant.
#[derive(Clone, Debug)]
pub struct ObsSnapshot {
    hists: Vec<HistSnapshot>, // KIND_COUNT × STAGE_COUNT, kind-major
}

impl Default for ObsSnapshot {
    fn default() -> Self {
        ObsSnapshot { hists: vec![HistSnapshot::default(); KIND_COUNT * STAGE_COUNT] }
    }
}

/// The calling sim-thread's stage histograms (all empty outside one).
pub fn snapshot() -> ObsSnapshot {
    with_log(|l| l.hists.clone()).unwrap_or_default()
}

impl ObsSnapshot {
    /// The histogram for one `(kind, stage)` pair.
    pub fn stage(&self, kind: OpKind, stage: Stage) -> &HistSnapshot {
        &self.hists[kind as usize * STAGE_COUNT + stage as usize]
    }

    /// Counter-wise difference vs an earlier snapshot.
    pub fn delta(&self, earlier: &ObsSnapshot) -> ObsSnapshot {
        let hists = self.hists.iter().zip(&earlier.hists).map(|(a, b)| a.delta(b)).collect();
        ObsSnapshot { hists }
    }

    /// Adds another recorder's counts (a bench's table over its runs).
    pub fn add(&mut self, other: &ObsSnapshot) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            *a = a.zip(b, u64::saturating_add);
        }
    }

    /// The non-empty histograms with their `(kind, stage)` key, kind-major.
    fn stages(&self) -> impl Iterator<Item = (OpKind, Stage, &HistSnapshot)> {
        self.hists.iter().enumerate().filter(|(_, h)| !h.is_empty()).filter_map(|(i, h)| {
            Some((OpKind::from_index(i / STAGE_COUNT)?, Stage::from_index(i % STAGE_COUNT)?, h))
        })
    }

    /// Human-readable per-stage lines (non-empty stages only), e.g.
    /// `write/ring-hop  n=512 p50=724ns p99=2896ns p999=5792ns mean=801ns`.
    pub fn table_lines(&self) -> Vec<String> {
        self.stages()
            .map(|(kind, stage, h)| {
                format!(
                    "{}/{}  n={} p50={}ns p99={}ns p999={}ns mean={}ns",
                    kind.as_str(),
                    stage.as_str(),
                    h.count,
                    h.p50_ns(),
                    h.p99_ns(),
                    h.p999_ns(),
                    h.mean_ns(),
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One flight-recorder event.
#[derive(Clone, Debug)]
pub struct EventRec {
    pub generation: u64,
    pub op_id: u64,
    pub t_ns: u64,
    pub actor: u64,
    pub node: u32,
    pub stage: Stage,
    pub kind: OpKind,
    pub phase: Phase,
    pub aux: u64,
}

/// Records one span event stamped with the current virtual time.
#[inline]
pub fn event(op_id: u64, kind: OpKind, stage: Stage, phase: Phase, actor: u64, node: u32, aux: u64) {
    event_at(now_ns(), op_id, kind, stage, phase, actor, node, aux);
}

/// Records one span event with an explicit timestamp (harness markers
/// backdate their window-open to the barrier-release instant).
#[allow(clippy::too_many_arguments, reason = "one argument per field of the recorded event")]
#[inline]
pub fn event_at(
    t_ns: u64,
    op_id: u64,
    kind: OpKind,
    stage: Stage,
    phase: Phase,
    actor: u64,
    node: u32,
    aux: u64,
) {
    with_log(|l| {
        let generation = l.head;
        l.push(EventRec { generation, op_id, t_ns, actor, node, stage, kind, phase, aux });
    });
}

/// Total events ever recorded in this process, over every runtime.
pub fn events_recorded() -> u64 {
    EVENTS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Timeline dump
// ---------------------------------------------------------------------------

/// Why a timeline was auto-dumped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    DelegationTimeout = 0,
    DelegationFallback = 1,
    Violation = 2,
    QuarantineEntry = 3,
}

impl Trigger {
    pub fn as_str(self) -> &'static str {
        match self {
            Trigger::DelegationTimeout => "delegation-timeout",
            Trigger::DelegationFallback => "delegation-fallback",
            Trigger::Violation => "violation",
            Trigger::QuarantineEntry => "quarantine-entry",
        }
    }
}

/// One dump-once latch per trigger kind, per process: the timeline lands
/// in one file per process, and a fuzz campaign must not grind on file IO
/// writing one timeline per iteration.
static DUMPED: [AtomicBool; 4] = [const { AtomicBool::new(false) }; 4];

/// Where the timeline lands: `$TRIO_OBS_TIMELINE`, else
/// `target/obs-timeline.json` under the workspace root (anchored at
/// compile time, so bench binaries running with a crate-local cwd still
/// write one well-known artifact).
pub fn timeline_path() -> PathBuf {
    if let Ok(p) = std::env::var("TRIO_OBS_TIMELINE") {
        return PathBuf::from(p);
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .unwrap_or_else(|| std::path::Path::new("."))
        .join("target")
        .join("obs-timeline.json")
}

/// Auto-dump entry point for the failure hooks: dumps the calling
/// sim-thread's recorder at most once per trigger kind per process,
/// swallowing IO errors — a failing dump must never take down the data
/// path.
#[inline]
pub fn trigger_dump(t: Trigger) -> Option<PathBuf> {
    let rec = recorder()?;
    if DUMPED[t as usize].swap(true, Ordering::Relaxed) {
        return None;
    }
    rec.dump(t.as_str()).ok()
}

/// Harness hook: marks one measured workload window `[start, end)` in
/// the recorder (`actor` = thread count, `aux` = ops completed).
#[inline]
pub fn window_marker(start_ns: u64, end_ns: u64, threads: u64, ops: u64) {
    event_at(start_ns, 0, OpKind::Harness, Stage::Window, Phase::Open, threads, u32::MAX, 0);
    event_at(end_ns, 0, OpKind::Harness, Stage::Window, Phase::Close, threads, u32::MAX, ops);
}

#[cfg(test)]
#[cfg(feature = "record")]
mod tests {
    use super::*;

    /// Runs `f` on a sim-thread of a fresh runtime; returns its recorder.
    fn in_runtime(f: impl FnOnce() + Send + 'static) -> Recorder {
        let rt = SimRuntime::new(1);
        rt.spawn("obs", f);
        rt.run();
        Recorder::of(&rt)
    }

    #[test]
    fn record_latency_separates_zero_from_one_ns() {
        let rec = in_runtime(|| {
            record_latency(OpKind::Verify, Stage::VerifierWalk, 0);
            record_latency(OpKind::Verify, Stage::VerifierWalk, 1);
            record_latency(OpKind::Verify, Stage::VerifierWalk, 1);
        });
        let snap = rec.snapshot();
        let h = snap.stage(OpKind::Verify, Stage::VerifierWalk);
        assert_eq!(h.zero, 1);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.count, 3);
        assert_eq!(snap.table_lines().len(), 1, "{:?}", snap.table_lines());
    }

    #[test]
    fn recorder_keeps_events_and_survives_wraparound() {
        let rec = in_runtime(|| {
            for i in 0..(RECORDER_SLOTS as u64 + 50) {
                event_at(i, 9, OpKind::Read, Stage::RingHop, Phase::Open, 7, 3, i);
            }
        });
        let evs = rec.events();
        assert_eq!(evs.len(), RECORDER_SLOTS);
        let gens: Vec<u64> = evs.iter().map(|e| e.generation).collect();
        assert_eq!(gens, (50..RECORDER_SLOTS as u64 + 50).collect::<Vec<_>>());
        for e in &evs {
            assert_eq!((e.t_ns, e.aux), (e.generation, e.generation));
            assert_eq!((e.op_id, e.actor, e.node), (9, 7, 3));
            assert_eq!((e.kind, e.stage, e.phase), (OpKind::Read, Stage::RingHop, Phase::Open));
        }
    }

    #[test]
    fn timeline_json_is_balanced_and_tagged() {
        let rec = in_runtime(|| {
            event(42, OpKind::Write, Stage::Syscall, Phase::Open, 1, 0, 4096);
            record_latency(OpKind::Write, Stage::Syscall, 512);
        });
        let j = rec.timeline_json("unit-test");
        assert!(j.contains("\"trigger\": \"unit-test\""));
        assert!(j.contains("\"events_recorded\": 1,"));
        assert!(j.contains("\"stage\": \"syscall\""));
        assert!(j.contains("write/syscall"));
        // Balanced braces/brackets outside strings — cheap structural
        // check; the integration test runs a real parser over this.
        let (mut brace, mut brack, mut in_str) = (0i64, 0i64, false);
        let mut prev = ' ';
        for c in j.chars() {
            match c {
                '"' if prev != '\\' => in_str = !in_str,
                '{' if !in_str => brace += 1,
                '}' if !in_str => brace -= 1,
                '[' if !in_str => brack += 1,
                ']' if !in_str => brack -= 1,
                _ => {}
            }
            prev = c;
        }
        assert_eq!(brace, 0);
        assert_eq!(brack, 0);
        assert!(!j.contains(",\n  ]"), "trailing comma before array close");
        assert!(!j.contains(",\n}}"), "trailing comma before object close");
    }

    #[test]
    fn op_ids_start_at_one_and_nesting_restores_previous() {
        in_runtime(|| {
            let a = next_op_id();
            assert_eq!(a, 1);
            let prev = set_current_op(a);
            assert_eq!(current_op(), a);
            let b = next_op_id();
            assert_eq!(b, 2);
            let inner_prev = set_current_op(b);
            assert_eq!(inner_prev, a);
            set_current_op(inner_prev);
            assert_eq!(current_op(), a);
            set_current_op(prev);
        });
        assert_eq!(next_op_id(), 0, "no op id outside a sim-thread");
    }
}

#[cfg(test)]
#[cfg(not(feature = "record"))]
mod off_tests {
    use super::*;

    #[test]
    fn recording_compiled_out_records_nothing() {
        let path = std::env::temp_dir().join(format!("trio-obs-off.{}.json", std::process::id()));
        std::env::set_var("TRIO_OBS_TIMELINE", &path);
        let rt = SimRuntime::new(1);
        rt.spawn("off", || {
            assert_eq!(next_op_id(), 0);
            assert_eq!(set_current_op(7), 0);
            assert_eq!(current_op(), 0);
            trio_sim::work(100);
            assert_eq!(now_ns(), 0, "virtual now is {} ns", now());
            event(1, OpKind::Write, Stage::Syscall, Phase::Open, 1, 0, 4096);
            event_at(5, 1, OpKind::Read, Stage::RingHop, Phase::Close, 1, 0, 9);
            record_latency(OpKind::Write, Stage::Syscall, 512);
            window_marker(1, 2, 3, 4);
            for t in [
                Trigger::DelegationTimeout,
                Trigger::DelegationFallback,
                Trigger::Violation,
                Trigger::QuarantineEntry,
            ] {
                assert_eq!(trigger_dump(t), None);
            }
            assert!(recorder().is_none());
            assert!(snapshot().hists.iter().all(HistSnapshot::is_empty));
        });
        rt.run();
        assert_eq!(events_recorded(), 0);
        let rec = Recorder::of(&rt);
        assert!(rec.events().is_empty());
        assert!(rec.snapshot().hists.iter().all(HistSnapshot::is_empty));
        assert!(!path.exists(), "an obs-off trigger_dump wrote {}", path.display());
    }
}
