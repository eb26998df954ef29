//! Op-level observability for the delegated data path (DESIGN.md §15).
//!
//! Three pieces, all dependency-free and lock-free on the record path:
//!
//! * **Spans.** Every syscall-layer op draws a process-unique op id; the
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
//!   [`RECORDER_SLOTS`] events, written with a seqlock-per-slot protocol
//!   (writers never block; a reader skips slots caught mid-write). On a
//!   delegation timeout, a delegation fallback, a verification
//!   violation, or a quarantine entry, the recorder auto-dumps a
//!   replayable JSON timeline to `target/obs-timeline.json` (override
//!   with `TRIO_OBS_TIMELINE`) — once per trigger kind per process, so a
//!   fuzz campaign cannot grind on file IO.
//!
//! Everything here records *real* work only through relaxed atomics and
//! never charges virtual time, so enabling `obs` cannot perturb the
//! simulated schedule: a run with and without the feature produces the
//! same virtual timeline.
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

use trio_sim::metrics::{bucket_index, quantile_ns, quoted, JsonObject};
use trio_sim::{in_sim, now};

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
// Op ids
// ---------------------------------------------------------------------------

static NEXT_OP: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CURRENT_OP: Cell<u64> = const { Cell::new(0) };
}

/// Draws a fresh process-unique op id (ids start at 1; 0 means "none").
#[inline]
pub fn next_op_id() -> u64 {
    if !ON {
        return 0;
    }
    NEXT_OP.fetch_add(1, Ordering::Relaxed) + 1
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

/// Virtual now, or 0 outside the simulation (the recorder still orders
/// events by generation, so non-sim events remain replayable).
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

trio_sim::counters! {
    /// One `(kind, stage)` latency histogram.
    struct AtomicHist => pub struct HistSnapshot {
        /// Samples recorded at exactly 0 ns (below every log bucket).
        zero,
        count,
        sum_ns,
        buckets: [OBS_HIST_BUCKETS],
    }
}

static HISTS: [[AtomicHist; STAGE_COUNT]; KIND_COUNT] =
    [const { [const { AtomicHist::new() }; STAGE_COUNT] }; KIND_COUNT];

/// Records one span latency into the `(kind, stage)` histogram.
#[inline]
pub fn record_latency(kind: OpKind, stage: Stage, ns: u64) {
    if !ON {
        return;
    }
    let h = &HISTS[kind as usize][stage as usize];
    h.count.fetch_add(1, Ordering::Relaxed);
    h.sum_ns.fetch_add(ns, Ordering::Relaxed);
    if ns == 0 {
        h.zero.fetch_add(1, Ordering::Relaxed);
    } else {
        h.buckets[bucket_index(ns, OBS_HIST_BUCKETS)].fetch_add(1, Ordering::Relaxed);
    }
}

impl HistSnapshot {
    pub fn is_empty(&self) -> bool {
        self.count == 0
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

/// All `(kind, stage)` histograms at one instant.
#[derive(Clone, Debug, Default)]
pub struct ObsSnapshot {
    hists: Vec<HistSnapshot>, // KIND_COUNT × STAGE_COUNT, kind-major
}

/// Captures every stage histogram (relaxed loads; exact once quiesced).
pub fn snapshot() -> ObsSnapshot {
    ObsSnapshot { hists: HISTS.iter().flatten().map(AtomicHist::snapshot).collect() }
}

impl ObsSnapshot {
    /// The histogram for one `(kind, stage)` pair.
    pub fn stage(&self, kind: OpKind, stage: Stage) -> &HistSnapshot {
        &self.hists[kind as usize * STAGE_COUNT + stage as usize]
    }

    /// Counter-wise difference vs an earlier snapshot.
    pub fn delta(&self, earlier: &ObsSnapshot) -> ObsSnapshot {
        let hists = self
            .hists
            .iter()
            .zip(earlier.hists.iter())
            .map(|(a, b)| a.delta(b))
            .collect();
        ObsSnapshot { hists }
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
// Flight recorder
// ---------------------------------------------------------------------------

/// Bounded event capacity: the recorder keeps the last this-many span
/// events and overwrites the oldest.
pub const RECORDER_SLOTS: usize = 4096;

/// One recorder slot: a per-slot seqlock (`seq` odd ⇒ a writer is mid
/// store; even and non-zero ⇒ stable, with generation `seq/2 - 1`) plus
/// the packed event words.
struct Slot {
    seq: AtomicU64,
    /// `[op_id, t_ns, actor, node<<32 | stage<<16 | kind<<8 | phase, aux]`
    words: [AtomicU64; 5],
}

#[allow(clippy::declare_interior_mutable_const, reason = "inline-const array seed")]
const SLOT_INIT: Slot =
    Slot { seq: AtomicU64::new(0), words: [const { AtomicU64::new(0) }; 5] };

static SLOTS: [Slot; RECORDER_SLOTS] = [SLOT_INIT; RECORDER_SLOTS];
static HEAD: AtomicU64 = AtomicU64::new(0);

/// One decoded flight-recorder event.
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
    if !ON {
        return;
    }
    let gen = HEAD.fetch_add(1, Ordering::Relaxed);
    let slot = &SLOTS[(gen % RECORDER_SLOTS as u64) as usize];
    slot.seq.store(2 * gen + 1, Ordering::Release);
    slot.words[0].store(op_id, Ordering::Relaxed);
    slot.words[1].store(t_ns, Ordering::Relaxed);
    slot.words[2].store(actor, Ordering::Relaxed);
    let packed = ((node as u64) << 32)
        | ((stage as u64) << 16)
        | ((kind as u64) << 8)
        | phase as u64;
    slot.words[3].store(packed, Ordering::Relaxed);
    slot.words[4].store(aux, Ordering::Relaxed);
    slot.seq.store(2 * gen + 2, Ordering::Release);
}

/// Total events ever recorded (events beyond [`RECORDER_SLOTS`] have
/// overwritten the oldest slots).
pub fn events_recorded() -> u64 {
    HEAD.load(Ordering::Relaxed)
}

/// Snapshot of every stable slot, oldest first. Slots caught mid-write
/// (or torn by a concurrent wrap-around) are skipped — the recorder is a
/// diagnostic, not a ledger.
pub fn collect_events() -> Vec<EventRec> {
    let mut out = Vec::new();
    for slot in SLOTS.iter() {
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            continue;
        }
        let words: Vec<u64> = slot.words.iter().map(|w| w.load(Ordering::Relaxed)).collect();
        let s2 = slot.seq.load(Ordering::Acquire);
        if s2 != s1 {
            continue;
        }
        let packed = words[3];
        let (Some(stage), Some(kind)) = (
            Stage::from_index((packed >> 16 & 0xffff) as usize),
            OpKind::from_index((packed >> 8 & 0xff) as usize),
        ) else {
            continue;
        };
        out.push(EventRec {
            generation: s1 / 2 - 1,
            op_id: words[0],
            t_ns: words[1],
            actor: words[2],
            node: (packed >> 32) as u32,
            stage,
            kind,
            phase: if packed & 0xff == 0 { Phase::Open } else { Phase::Close },
            aux: words[4],
        });
    }
    out.sort_by_key(|e| e.generation);
    out
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

/// The replayable timeline as a JSON string: the recorder's events oldest
/// first, one per line, then the non-empty stage histograms.
pub fn timeline_json(trigger: &str) -> String {
    let recorded = events_recorded();
    let mut w = JsonObject::new();
    w.field("trigger", quoted(trigger))
        .field("now_ns", now_ns())
        .field("events_recorded", recorded)
        .field("events_overwritten", recorded.saturating_sub(RECORDER_SLOTS as u64))
        .objects("events", collect_events(), |o, e| {
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
            for (kind, stage, h) in snapshot().stages() {
                o.object(&format!("{}/{}", kind.as_str(), stage.as_str()), |o| h.write_json(o));
            }
        });
    w.finish() + "\n"
}

/// Writes the timeline unconditionally (bench artifacts). Returns the
/// path written. The write goes to a temp file first and renames into
/// place, so a concurrent reader never sees a half-written artifact.
pub fn dump_now(trigger: &str) -> std::io::Result<PathBuf> {
    let path = timeline_path();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, timeline_json(trigger))?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Auto-dump entry point for the failure hooks: dumps at most once per
/// trigger kind per process (reset via [`reset`]), swallowing IO errors
/// — a failing dump must never take down the data path.
#[inline]
pub fn trigger_dump(t: Trigger) -> Option<PathBuf> {
    if !ON || DUMPED[t as usize].swap(true, Ordering::Relaxed) {
        return None;
    }
    dump_now(t.as_str()).ok()
}

/// Test/bench helper: zeroes the op-id counter, the recorder, every
/// histogram, and the dump-once latches, so two identical seeded runs in
/// one process dump identical timelines. Callers must be quiesced (no
/// concurrent spans).
pub fn reset() {
    NEXT_OP.store(0, Ordering::Relaxed);
    HEAD.store(0, Ordering::Relaxed);
    for slot in SLOTS.iter() {
        slot.seq.store(0, Ordering::Relaxed);
    }
    for kh in HISTS.iter() {
        for h in kh.iter() {
            h.zero.store(0, Ordering::Relaxed);
            h.count.store(0, Ordering::Relaxed);
            h.sum_ns.store(0, Ordering::Relaxed);
            for b in h.buckets.iter() {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
    for d in DUMPED.iter() {
        d.store(false, Ordering::Relaxed);
    }
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

    // The recorder and histograms are process globals, and `cargo test`
    // runs #[test] fns on concurrent threads: every test here must
    // tolerate foreign events, so assertions filter by a kind/stage pair
    // the test owns or use deltas.

    #[test]
    fn record_latency_separates_zero_from_one_ns() {
        let before = snapshot();
        record_latency(OpKind::Verify, Stage::VerifierWalk, 0);
        record_latency(OpKind::Verify, Stage::VerifierWalk, 1);
        record_latency(OpKind::Verify, Stage::VerifierWalk, 1);
        let d = snapshot().delta(&before);
        let h = d.stage(OpKind::Verify, Stage::VerifierWalk);
        assert_eq!(h.zero, 1);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.count, 3);
    }

    #[test]
    fn recorder_keeps_events_and_survives_wraparound() {
        let marker = 0xC0FFEE;
        for i in 0..(RECORDER_SLOTS as u64 + 50) {
            event_at(i, marker, OpKind::Read, Stage::RingHop, Phase::Open, 7, 3, i);
        }
        let evs: Vec<EventRec> =
            collect_events().into_iter().filter(|e| e.op_id == marker).collect();
        // The ring holds at most RECORDER_SLOTS events; ours may share it
        // with other tests' events, but the *newest* of ours must survive
        // and generations must be strictly increasing.
        assert!(!evs.is_empty());
        assert!(evs.len() <= RECORDER_SLOTS);
        for w in evs.windows(2) {
            assert!(w[0].generation < w[1].generation);
        }
        let last = evs.last().unwrap();
        assert_eq!(last.aux, RECORDER_SLOTS as u64 + 49);
        assert_eq!(last.node, 3);
        assert_eq!(last.actor, 7);
        assert_eq!(last.stage, Stage::RingHop);
        assert_eq!(last.kind, OpKind::Read);
    }

    #[test]
    fn timeline_json_is_balanced_and_tagged() {
        event(42, OpKind::Write, Stage::Syscall, Phase::Open, 1, 0, 4096);
        record_latency(OpKind::Write, Stage::Syscall, 512);
        let j = timeline_json("unit-test");
        assert!(j.contains("\"trigger\": \"unit-test\""));
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
    fn op_id_nesting_restores_previous() {
        let a = next_op_id();
        let prev = set_current_op(a);
        assert_eq!(current_op(), a);
        let b = next_op_id();
        assert!(b > a);
        let inner_prev = set_current_op(b);
        assert_eq!(inner_prev, a);
        set_current_op(inner_prev);
        assert_eq!(current_op(), a);
        set_current_op(prev);
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
        assert_eq!(next_op_id(), 0);
        assert_eq!(set_current_op(7), 0);
        assert_eq!(current_op(), 0);
        let rt = trio_sim::SimRuntime::new(1);
        rt.spawn("off", || {
            trio_sim::work(100);
            assert_eq!(now_ns(), 0, "virtual now is {} ns", now());
        });
        rt.run();
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
        assert_eq!(events_recorded(), 0);
        assert!(collect_events().is_empty());
        let snap = snapshot();
        assert!(snap.hists.iter().all(HistSnapshot::is_empty));
        assert!(!path.exists(), "an obs-off trigger_dump wrote {}", path.display());
    }
}
