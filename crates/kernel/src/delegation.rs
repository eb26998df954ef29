//! Opportunistic-delegation thread pool (paper §4.5, following OdinFS).
//!
//! (lint: hot-path — the delegated data path must never take the registry
//! lock; its event log and ring bookkeeping are all self-contained.)
//!
//! A fixed number of kernel *delegation threads* run per NUMA node. LibFSes
//! (and the OdinFS baseline) hand large accesses to them through
//! shared-memory rings — no kernel trap — and wait for completion. The
//! threads always access their own node's NVM (locality) and their fixed
//! count bounds the per-node concurrency, which is what prevents Optane's
//! bandwidth collapse. Large extents are split per node and served in
//! parallel, aggregating the bandwidth of all nodes.
//!
//! Submission is *batched*: one scatter-gather [`DelegReq`] per `(node,
//! fan-out slot)` carries node-contiguous runs of the extent. The slot only
//! *groups* runs into requests — it names no worker: every request goes to
//! whichever of the node's rings is next in the node's round-robin
//! (`ring_for`), so the chunks of one op reach distinct workers because
//! consecutive sends do, not because a slot is a ring. (One shared ring per
//! node, the work-conserving bound of any smarter dispatch, buys under 2 %:
//! EXPERIMENTS.md "Ring dispatch: not the bottleneck".) Write payloads
//! travel **by reference** as a revocable [`GrantRef`] window (DESIGN.md
//! §17): the client registers its buffer with the kernel's
//! [`crate::grant::GrantTable`] and the worker reads the bytes straight out
//! of the granted region during its one write pass into NVM — zero copies
//! on the submit path, and that same pass folds each byte into a streaming
//! checksum recorded in the page sidecars. Large single-node runs addition-
//! ally *fan out* across the node's worker slots in page-aligned chunks of
//! at least [`FANOUT_MIN_BYTES`], so one big op engages enough threads to
//! reach the node's concurrency sweet spot instead of crawling through a
//! single worker at `k = 1` efficiency. Completions come back tagged on a
//! per-op reply ring drawn from a pool, so steady-state ops allocate no
//! channels.
//!
//! Permission is enforced end-to-end: a delegation thread performs the
//! access *as the requesting actor*, so the MMU check still applies.
//!
//! # Failure domains (DESIGN.md §16)
//!
//! The pool is also a failure domain. Each worker carries a death flag;
//! [`DelegationPool::watchdog_scan`] (invoked from every client deadline
//! miss, and callable directly) reaps workers whose flag is set and
//! respawns each on its original ring. A dead worker's request is not
//! re-dispatched: the client's own retry, after its deadline, is the one
//! recovery path. A retried write is safe however much of the first copy
//! landed — every copy carries the bytes of one op-window snapshot, and
//! the op's revoke drains or refuses any copy before the op returns
//! (DESIGN.md §16). Under sustained failure or ring backpressure the pool
//! enters a [`DegradedMode`] that sheds delegation to direct access,
//! probing periodically so recovery re-promotes traffic. That breaker is
//! the pool's one load-shedding rule.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

use trio_nvm::{ActorId, NvmDevice, NvmHandle, PageId, PathStats, ProtError, PAGE_SIZE};
use trio_sim::plock::Mutex as PlMutex;
use trio_sim::sync::{RecvDeadline, SimChannel};
use trio_sim::{in_sim, now, now_or_zero, spawn, JoinHandle, Nanos};

use crate::grant::{GrantRef, GrantTable};
use crate::registry::KernelEvent;
use crate::retry::RetryPolicy;
use crate::shard::{EventRing, EVENT_RING_CAPACITY};

/// Reply-ring capacity. Must exceed the most completions an op can have in
/// flight (touched nodes × per-node fan-out × retry attempts), so a late
/// worker reply to an abandoned (timed-out) op never blocks the worker.
const REPLY_RING_CAP: usize = 512;

/// Capacity of each submission ring: ~5 ops of headroom per delegation
/// thread. A full ring counts as backpressure in [`PathStats`] before the
/// producer blocks.
const RING_CAPACITY: usize = 64;

/// Minimum bytes per fan-out chunk. A single-node run is split across the
/// node's worker slots only in page-aligned chunks at least this large:
/// big ops reach the concurrency the bandwidth model rewards (per-node
/// write efficiency peaks around 8–12 concurrent accessors), while small
/// ops — a lone 4 KiB write — stay whole and keep their one-hop latency.
/// Page alignment means no page ever has two workers writing it, which is
/// also what keeps the per-page checksum sidecars single-writer.
const FANOUT_MIN_BYTES: usize = 8192;

/// Hard ceiling on runs per request. The rings are shared memory, so a
/// hostile LibFS can enqueue arbitrary [`DelegReq`]s; the worker must
/// bound its own work regardless of what the client-side builder would
/// have produced.
const MAX_RUNS_PER_REQ: usize = 4096;

/// Hard ceiling on bytes per request. Reads allocate the reply buffer on
/// the delegation thread, so an unchecked read range is a kernel-side
/// allocation bomb.
const MAX_BYTES_PER_REQ: usize = 64 << 20;

/// Consecutive whole-op delegation failures that trip degraded mode.
const DEGRADE_AFTER_FAILURES: u64 = 3;

/// Consecutive backpressured submissions that trip degraded mode.
const DEGRADE_AFTER_BACKPRESSURE: u64 = 64;

/// Consecutive delegated successes that clear degraded mode.
const RECOVER_AFTER_SUCCESSES: u64 = 8;

/// While degraded, one in this many eligible ops is admitted as a probe
/// (its success is what eventually clears degraded mode).
const PROBE_EVERY: u64 = 16;

/// "No worker-kill plan armed" sentinel.
const KILL_UNSET: u64 = u64::MAX;

/// Worker-side admission check for one ring request. Everything here is
/// normally guaranteed by [`DelegationPool::build_batches`], but the ring
/// is writable by the (untrusted) client, so the worker re-validates:
/// run/byte ceilings, each run's one byte range (ordered, inside the grant
/// window for a write), and extent-capacity bounds. The MMU check still
/// runs per page during the access itself.
fn validate_req(req: &DelegReq) -> Result<(), ProtError> {
    if req.runs.is_empty() || req.runs.len() > MAX_RUNS_PER_REQ {
        return Err(ProtError::OutOfRange);
    }
    let window = req.grant.as_ref().map_or(usize::MAX, |g| g.len);
    let mut total: usize = 0;
    for run in &req.runs {
        let bytes = &run.payload;
        if run.pages.is_empty() || bytes.start > bytes.end || bytes.end > window {
            return Err(ProtError::OutOfRange);
        }
        let cap = run.pages.len() * PAGE_SIZE;
        let span = bytes.len();
        if run.start >= cap || span > cap - run.start {
            return Err(ProtError::OutOfRange);
        }
        total = total.checked_add(span).ok_or(ProtError::OutOfRange)?;
    }
    if total > MAX_BYTES_PER_REQ {
        return Err(ProtError::OutOfRange);
    }
    Ok(())
}

/// Tagged completion: `(request tag, result)`. Reads return the batch's
/// runs concatenated in submission order.
pub type DelegReply = (usize, Result<Option<Vec<u8>>, ProtError>);

/// One node-contiguous run inside a batched request.
#[derive(Clone)]
pub struct DelegRun {
    /// The run's pages, in extent order (all on the target node).
    pub pages: Vec<PageId>,
    /// Byte offset within the run at which the access starts.
    pub start: usize,
    /// The run's bytes: for a write, its range within the op's grant
    /// window; for a read, its place in the caller's buffer.
    pub payload: std::ops::Range<usize>,
}

/// One scatter-gather request: every run an extent access places on a
/// single node, served by one delegation thread in one ring hop.
#[derive(Clone)]
pub struct DelegReq {
    /// The requesting LibFS (MMU checks run against it).
    pub actor: ActorId,
    /// Observability op id of the syscall span this batch serves (0 when
    /// none — raw/hostile submissions, or the `obs` feature off). Workers
    /// echo it into their span events so a timeline can stitch the
    /// client-side submit to the worker-side service.
    pub op_id: u64,
    /// Node-contiguous runs, in extent order.
    pub runs: Vec<DelegRun>,
    /// For writes: the grant window holding the op's payload. Run payload
    /// ranges index *within* this window. The worker re-validates the
    /// grant (owner, epoch, bounds) on every dispatch and reads the bytes
    /// straight from the granted buffer — nothing is copied, and retries
    /// carry only this reference.
    pub grant: Option<GrantRef>,
    /// Which batch of the op this is; echoed in the reply.
    pub tag: usize,
    /// Completion ring (one per op, pooled).
    pub reply: Arc<SimChannel<DelegReply>>,
}

/// Why a deadline-bounded delegated access did not complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DelegationError {
    /// No reply arrived before the deadline (a delegation thread stalled,
    /// died, or dropped the request). The access may or may not have
    /// executed, wholly or in part; the caller falls back to direct access.
    /// For a write that is safe because the op's revoke has drained every
    /// copy, and the direct write puts the same bytes in the same place.
    Timeout,
    /// The delegated access executed and faulted.
    Fault(ProtError),
}

impl std::fmt::Display for DelegationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DelegationError::Timeout => write!(f, "delegation request timed out"),
            DelegationError::Fault(e) => write!(f, "delegated access faulted: {e}"),
        }
    }
}

/// Where inside request servicing a delegation worker is killed. The
/// three points cover how much of a request can land before its reply is
/// lost: `AfterPop` dies before any byte is applied, `MidPayload` dies
/// with the request partially applied, `BeforeReply` dies with everything
/// applied but the reply unsent. In each case the client's retry serves
/// the request again, whole.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerKillPoint {
    /// Immediately after popping the request off the ring.
    AfterPop = 0,
    /// After applying the first run of a multi-run payload.
    MidPayload = 1,
    /// After full application, before the reply send.
    BeforeReply = 2,
}

impl WorkerKillPoint {
    /// All kill points, in servicing order — chaos sweeps iterate this.
    pub const ALL: [WorkerKillPoint; 3] =
        [WorkerKillPoint::AfterPop, WorkerKillPoint::MidPayload, WorkerKillPoint::BeforeReply];

    pub fn as_str(self) -> &'static str {
        match self {
            WorkerKillPoint::AfterPop => "after-pop",
            WorkerKillPoint::MidPayload => "mid-payload",
            WorkerKillPoint::BeforeReply => "before-reply",
        }
    }

    /// Inverse of `as u8` (the armed point is stored in an atomic).
    pub fn from_index(i: u8) -> Option<WorkerKillPoint> {
        WorkerKillPoint::ALL.get(i as usize).copied()
    }
}

/// Declarative worker-death plan: kill the delegation worker servicing
/// the `at_request`-th popped request (0-based, counted across all
/// workers in pop order, which is deterministic under the sim) at the
/// given kill point. A chaos sweep replays a death from
/// `(seed, request, point)` alone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerKillPlan {
    /// Global pop index of the doomed request.
    pub at_request: u64,
    /// Where inside servicing the worker dies.
    pub point: WorkerKillPoint,
}

impl WorkerKillPlan {
    pub fn kill_at(at_request: u64, point: WorkerKillPoint) -> Self {
        WorkerKillPlan { at_request, point }
    }
}

/// Injectable delegation-thread faults. Always compiled, armed only by
/// [`DelegationPool::inject_faults`] and [`DelegationPool::arm_worker_kill`];
/// unarmed, a served request pays the `served` increment and three relaxed
/// loads, draws nothing from the RNG and charges no virtual time
/// (DESIGN.md §11).
///
/// Draws come from each delegation thread's own deterministic RNG
/// ([`trio_sim::rng`]), so a given `(seed, settings)` pair replays the same
/// stalls and drops; a kill is a one-shot [`WorkerKillPlan`] and draws
/// nothing. The rate fields are "one in N"; zero disables.
pub struct DelegationFaults {
    /// Stall one in N served requests by `stall_ns` of virtual time.
    stall_one_in: AtomicU64,
    /// Virtual nanoseconds a stalled request is delayed before serving.
    stall_ns: AtomicU64,
    /// Drop one in N requests without ever replying (a wedged thread).
    drop_one_in: AtomicU64,
    /// Requests popped so far, across all workers — the replay coordinate
    /// of an armed [`WorkerKillPlan`].
    served: AtomicU64,
    /// Pop index at which to kill the serving worker; `KILL_UNSET` off.
    kill_at_request: AtomicU64,
    /// The armed kill point (`WorkerKillPoint as u8`).
    kill_point: AtomicU8,
}

impl Default for DelegationFaults {
    fn default() -> Self {
        DelegationFaults {
            stall_one_in: AtomicU64::new(0),
            stall_ns: AtomicU64::new(0),
            drop_one_in: AtomicU64::new(0),
            served: AtomicU64::new(0),
            // 0 is a real pop index; "disarmed" must be the sentinel.
            kill_at_request: AtomicU64::new(KILL_UNSET),
            kill_point: AtomicU8::new(0),
        }
    }
}

impl DelegationFaults {
    /// Per-request kill decision, made right after the ring pop. The
    /// armed one-shot plan disarms itself when it fires so the client's
    /// retry is served instead of dying again.
    fn take_kill(&self) -> Option<WorkerKillPoint> {
        let n = self.served.fetch_add(1, Ordering::Relaxed);
        if self.kill_at_request.load(Ordering::Relaxed) == n {
            self.kill_at_request.store(KILL_UNSET, Ordering::Relaxed);
            return WorkerKillPoint::from_index(self.kill_point.load(Ordering::Relaxed));
        }
        None
    }
}

/// Client-side bookkeeping for one batch of an in-flight op.
struct Batch {
    node: usize,
    /// Fan-out slot within the node: which request of this op the run was
    /// grouped into. Not a route — `submit` sends every batch through
    /// `ring_for`'s per-node round-robin and never reads this.
    slot: usize,
    req: DelegReq,
    /// Bytes this batch moves — the unit the retry window is recomputed
    /// from (remaining work only, not the original op size).
    bytes: usize,
    /// Virtual submit time of the latest attempt, for the hop histogram.
    submitted: Nanos,
    done: bool,
}

/// One delegation worker's kernel-side health record. A killed worker sets
/// `died` and returns; its request is lost with it, and the client that
/// sent it retries after its deadline.
struct WorkerState {
    node: usize,
    /// Ring index within the node (stable across respawns).
    index: usize,
    ring: Arc<SimChannel<DelegReq>>,
    /// Set by a dying worker (the sim analogue of process exit — the
    /// watchdog's `waitpid`-equivalent ground truth).
    died: AtomicBool,
    /// Virtual time of death, for recovery-latency accounting.
    died_at: AtomicU64,
}

impl WorkerState {
    fn new(node: usize, index: usize, ring: Arc<SimChannel<DelegReq>>) -> Self {
        WorkerState {
            node,
            index,
            ring,
            died: AtomicBool::new(false),
            died_at: AtomicU64::new(0),
        }
    }

    /// Marks this worker dead. Called by the worker itself at a kill
    /// point.
    fn die(&self) {
        self.died_at.store(now_or_zero(), Ordering::Relaxed);
        self.died.store(true, Ordering::Release);
    }
}

/// Degradation state machine counters (all relaxed atomics; transitions
/// are serialized through `degraded`'s swap).
#[derive(Default)]
struct Health {
    consec_failures: AtomicU64,
    consec_successes: AtomicU64,
    backpressure_run: AtomicU64,
    degraded: AtomicBool,
    probe_tick: AtomicU64,
    enters: AtomicU64,
    exits: AtomicU64,
}

/// Snapshot of the pool's degradation state, surfaced through
/// [`crate::KernelController::degraded_mode`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradedMode {
    /// Whether the pool is currently shedding delegation to direct access.
    pub active: bool,
    /// Consecutive whole-op delegation failures observed.
    pub consecutive_failures: u64,
    /// Lifetime count of degraded-mode entries.
    pub enters: u64,
    /// Lifetime count of degraded-mode exits.
    pub exits: u64,
}

/// The pool; create once per device, start once per simulation.
pub struct DelegationPool {
    dev: Arc<NvmDevice>,
    rings: Vec<Vec<Arc<SimChannel<DelegReq>>>>,
    rr: Vec<AtomicUsize>,
    started: AtomicBool,
    shutting_down: AtomicBool,
    stats: Arc<PathStats>,
    reply_pool: PlMutex<Vec<Arc<SimChannel<DelegReply>>>>,
    /// One health record per worker, flattened node-major.
    workers: Vec<Arc<WorkerState>>,
    /// Live grant windows; shared with every worker for per-dispatch
    /// re-validation.
    grants: Arc<GrantTable>,
    health: Health,
    /// Where failure-domain events go: the controller's one event ring,
    /// or a private one for a pool built by [`DelegationPool::new`].
    events: Arc<EventRing>,
    /// Death-to-restart latencies observed by the watchdog, in virtual ns.
    recovery_ns: PlMutex<Vec<Nanos>>,
    faults: Arc<DelegationFaults>,
}

impl DelegationPool {
    /// Builds rings for `threads_per_node` delegation threads on each node
    /// (12 matches OdinFS's per-node writer pool), with private counters
    /// and a private event ring.
    pub fn new(dev: Arc<NvmDevice>, threads_per_node: usize) -> Self {
        let events = Arc::new(EventRing::new(EVENT_RING_CAPACITY));
        Self::with_stats(dev, threads_per_node, Arc::new(PathStats::new()), events)
    }

    /// Builds the pool with a shared counter sink and event ring.
    pub(crate) fn with_stats(
        dev: Arc<NvmDevice>,
        threads_per_node: usize,
        stats: Arc<PathStats>,
        events: Arc<EventRing>,
    ) -> Self {
        let nodes = dev.topology().nodes;
        let rings: Vec<Vec<Arc<SimChannel<DelegReq>>>> = (0..nodes)
            .map(|_| {
                (0..threads_per_node.max(1))
                    .map(|_| Arc::new(SimChannel::bounded(RING_CAPACITY)))
                    .collect()
            })
            .collect();
        let workers = rings
            .iter()
            .enumerate()
            .flat_map(|(node, node_rings)| {
                node_rings
                    .iter()
                    .enumerate()
                    .map(move |(i, ring)| Arc::new(WorkerState::new(node, i, Arc::clone(ring))))
            })
            .collect();
        let grants = Arc::new(GrantTable::new(Arc::clone(&stats)));
        DelegationPool {
            dev,
            rings,
            rr: (0..nodes).map(|_| AtomicUsize::new(0)).collect(),
            started: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            stats,
            reply_pool: PlMutex::new(Vec::new()),
            workers,
            grants,
            health: Health::default(),
            events,
            recovery_ns: PlMutex::new(Vec::new()),
            faults: Arc::new(DelegationFaults::default()),
        }
    }

    /// The pool's data-path counters.
    pub fn stats(&self) -> &Arc<PathStats> {
        &self.stats
    }

    /// The pool's grant-window table (buffer registration lives here).
    pub fn grants(&self) -> &GrantTable {
        &self.grants
    }

    /// Arms delegation-thread fault injection: stall one in
    /// `stall_one_in` requests by `stall_ns`, drop one in `drop_one_in`
    /// requests without replying. Zero rates disable the respective fault.
    pub fn inject_faults(&self, stall_one_in: u64, stall_ns: Nanos, drop_one_in: u64) {
        self.faults.stall_one_in.store(stall_one_in, Ordering::Relaxed);
        self.faults.stall_ns.store(stall_ns, Ordering::Relaxed);
        self.faults.drop_one_in.store(drop_one_in, Ordering::Relaxed);
    }

    /// Arms a one-shot worker-kill plan: the worker that pops the
    /// `plan.at_request`-th request (0-based, global pop order) dies at
    /// `plan.point`. The plan disarms when it fires, so the client's retry
    /// is served by a healthy worker.
    pub fn arm_worker_kill(&self, plan: WorkerKillPlan) {
        self.faults.kill_point.store(plan.point as u8, Ordering::Relaxed);
        self.faults.kill_at_request.store(plan.at_request, Ordering::Relaxed);
    }

    /// Requests popped so far across all workers (the replay coordinate
    /// of [`Self::arm_worker_kill`]).
    pub fn requests_served(&self) -> u64 {
        self.faults.served.load(Ordering::Relaxed)
    }

    /// Spawns the delegation sim-threads. Must be called from inside the
    /// simulation (e.g. the harness's main sim-thread). Returns their join
    /// handles; call [`DelegationPool::shutdown`] to let them exit.
    /// (Respawned workers' handles are not returned; the runtime joins
    /// them like any other sim thread.)
    pub fn start(&self) -> Vec<JoinHandle> {
        assert!(!self.started.swap(true, Ordering::SeqCst), "delegation pool already started");
        self.workers.iter().map(|ws| self.spawn_worker(Arc::clone(ws))).collect()
    }

    /// Spawns (or respawns) the sim-thread for one worker slot. The
    /// incarnation serves the slot's original ring, so requests queued
    /// behind a death are preserved.
    fn spawn_worker(&self, ws: Arc<WorkerState>) -> JoinHandle {
        let dev = Arc::clone(&self.dev);
        let stats = Arc::clone(&self.stats);
        let grants = Arc::clone(&self.grants);
        let faults = Arc::clone(&self.faults);
        spawn("delegation", move || {
            trio_nvm::handle::set_home_node(ws.node);
            while let Some(req) = ws.ring.recv() {
                let kill = faults.take_kill();
                if kill == Some(WorkerKillPoint::AfterPop) {
                    // Dies with nothing applied: the client's retry runs
                    // the request from scratch.
                    ws.die();
                    return;
                }
                let n = faults.stall_one_in.load(Ordering::Relaxed);
                if n != 0 && trio_sim::rng::with_rng(|r| r.one_in(n)) {
                    trio_sim::work(faults.stall_ns.load(Ordering::Relaxed));
                }
                let n = faults.drop_one_in.load(Ordering::Relaxed);
                if n != 0 && trio_sim::rng::with_rng(|r| r.one_in(n)) {
                    // A wedged thread: the request vanishes and no
                    // reply is ever sent. Clients must use the
                    // deadline-bounded entry points to survive this.
                    continue;
                }
                if let Err(e) = validate_req(&req) {
                    stats.record_deleg_rejected();
                    let _ = req.reply.send((req.tag, Err(e)));
                    continue;
                }
                let is_write = req.grant.is_some();
                // Grant admission runs on *every* dispatch — first send or
                // client retry — so a window whose
                // backing buffer was revoked, unregistered, or mutated
                // (epoch bumped) in the meantime faults here instead of
                // being read stale.
                let granted = match &req.grant {
                    Some(g) => match grants.resolve(req.actor, g) {
                        Ok(data) => Some(data),
                        Err(e) => {
                            stats.record_grant_fault();
                            let _ = req.reply.send((req.tag, Err(e)));
                            continue;
                        }
                    },
                    None => None,
                };
                let svc_t0 = crate::obs::worker_begin(req.op_id, is_write, ws.node, req.actor.0);
                let h = NvmHandle::new(Arc::clone(&dev), req.actor);
                let xfer_t0 = crate::obs::transfer_begin();
                let mut killed_mid = false;
                let mut result = match (&req.grant, &granted) {
                    (Some(gref), Some(buffer)) => {
                        // The worker's single pass over the granted bytes:
                        // read straight from the grant window, stream the
                        // checksum, store into NVM. No copy in between.
                        let window = &buffer[gref.start..gref.start + gref.len];
                        let mut r = Ok(None);
                        // Acked ⇒ durable: every run must yield a Durable
                        // witness (write_extent_hashed fences before
                        // returning) before the reply goes out below.
                        let mut durable_runs = 0usize;
                        for (i, run) in req.runs.iter().enumerate() {
                            let Some(data) = window.get(run.payload.clone()) else {
                                r = Err(ProtError::OutOfRange);
                                break;
                            };
                            match h.write_extent_hashed(&run.pages, run.start, data) {
                                Ok(proof) => {
                                    debug_assert_eq!(proof.witness().bytes(), data.len());
                                    durable_runs += 1;
                                }
                                Err(e) => {
                                    r = Err(e);
                                    break;
                                }
                            }
                            stats.record_checksummed_bytes(data.len());
                            if i == 0 && kill == Some(WorkerKillPoint::MidPayload) {
                                // Dies with the first run applied: the
                                // client's retry re-applies the same bytes.
                                killed_mid = true;
                                break;
                            }
                        }
                        if r.is_ok() && !killed_mid {
                            // Type-level form of the reply contract: an Ok
                            // reply is only sent once every run produced a
                            // durability witness.
                            debug_assert_eq!(durable_runs, req.runs.len());
                        }
                        r
                    }
                    _ => {
                        let total: usize = req.runs.iter().map(|r| r.payload.len()).sum();
                        let mut buf = vec![0u8; total];
                        let mut r = Ok(());
                        let mut off = 0;
                        for (i, run) in req.runs.iter().enumerate() {
                            let dst = &mut buf[off..off + run.payload.len()];
                            if let Err(e) = h.read_extent(&run.pages, run.start, dst) {
                                r = Err(e);
                                break;
                            }
                            off += dst.len();
                            if i == 0 && kill == Some(WorkerKillPoint::MidPayload) {
                                killed_mid = true;
                                break;
                            }
                        }
                        r.map(|()| Some(buf))
                    }
                };
                if killed_mid {
                    // The controller reaps a dead worker's grant pins so a
                    // pending revocation can still drain; the sim models
                    // that reap as an unpin on the death path.
                    if let Some(g) = &req.grant {
                        grants.unpin(g.grant_id);
                    }
                    ws.die();
                    return;
                }
                crate::obs::transfer_end(
                    req.op_id,
                    is_write,
                    ws.node,
                    req.actor.0,
                    req.runs.len() as u64,
                    xfer_t0,
                );
                crate::obs::worker_end(req.op_id, is_write, ws.node, req.actor.0, svc_t0);
                if let Some(g) = &req.grant {
                    // Post-pass re-check: the pass itself read a
                    // consistent snapshot, but if the submitter revoked
                    // or rewrote the grant while it ran, the contract is
                    // broken and the client must see a clean fault, not
                    // a success for bytes it no longer stands behind.
                    if result.is_ok() && !grants.is_current(g) {
                        stats.record_grant_fault();
                        result = Err(ProtError::GrantRevoked);
                    }
                    // Pin held since resolve: releasing it is what lets a
                    // waiting revocation complete — strictly after this
                    // pass's bytes (stale or not) are on media.
                    grants.unpin(g.grant_id);
                }
                if kill == Some(WorkerKillPoint::BeforeReply) {
                    // Dies with everything applied but the client still
                    // waiting: the client's retry applies the same bytes
                    // again, under the same live op window.
                    ws.die();
                    return;
                }
                let _ = req.reply.send((req.tag, result));
            }
        })
    }

    /// Watchdog pass over every worker: for each worker whose death flag is
    /// set (the sim analogue of a `waitpid` reap), respawns the worker on
    /// its original ring. Invoked from every client deadline miss — a dead
    /// worker is detected within one retry window — and callable directly
    /// by harnesses. Returns the number of deaths handled. The request the
    /// worker died with is not re-sent from here: its client re-submits it
    /// when its own deadline passes.
    ///
    /// Workers that are merely wedged (alive but not replying — the drop
    /// fault) are left alone: killing a live thread is not modelled, and
    /// the client-side deadline/fallback path already covers them.
    pub fn watchdog_scan(&self) -> usize {
        let mut deaths = 0;
        for ws in &self.workers {
            if !ws.died.load(Ordering::Acquire) {
                continue;
            }
            deaths += 1;
            self.stats.record_worker_death();
            crate::obs::worker_death(ws.node, ws.index as u64);
            self.push_event(KernelEvent::WorkerDied { node: ws.node, worker: ws.index });
            self.note_op_failure();
            if in_sim() && !self.shutting_down.load(Ordering::Relaxed) {
                ws.died.store(false, Ordering::Release);
                let _ = self.spawn_worker(Arc::clone(ws));
                self.stats.record_worker_restart();
                let rec = now().saturating_sub(ws.died_at.load(Ordering::Relaxed));
                self.recovery_ns.lock().push(rec);
                crate::obs::worker_restart(ws.node, ws.index as u64, rec);
                self.push_event(KernelEvent::WorkerRestarted { node: ws.node, worker: ws.index });
            }
        }
        deaths
    }

    // --- degradation state machine -------------------------------------

    fn note_op_success(&self) {
        self.health.consec_failures.store(0, Ordering::Relaxed);
        self.health.backpressure_run.store(0, Ordering::Relaxed);
        let ok = self.health.consec_successes.fetch_add(1, Ordering::Relaxed) + 1;
        if ok >= RECOVER_AFTER_SUCCESSES && self.health.degraded.swap(false, Ordering::Relaxed) {
            self.health.exits.fetch_add(1, Ordering::Relaxed);
            self.stats.record_degraded(false);
            crate::obs::degraded_exit();
            self.push_event(KernelEvent::DelegationRecovered);
        }
    }

    fn note_op_failure(&self) {
        self.health.consec_successes.store(0, Ordering::Relaxed);
        let bad = self.health.consec_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if bad >= DEGRADE_AFTER_FAILURES {
            self.enter_degraded(bad);
        }
    }

    fn note_backpressure(&self) {
        self.stats.record_ring_backpressure();
        let run = self.health.backpressure_run.fetch_add(1, Ordering::Relaxed) + 1;
        if run >= DEGRADE_AFTER_BACKPRESSURE {
            self.enter_degraded(self.health.consec_failures.load(Ordering::Relaxed));
        }
    }

    fn enter_degraded(&self, failures: u64) {
        if !self.health.degraded.swap(true, Ordering::Relaxed) {
            self.health.enters.fetch_add(1, Ordering::Relaxed);
            self.stats.record_degraded(true);
            crate::obs::degraded_enter(failures);
            self.push_event(KernelEvent::DelegationDegraded);
        }
    }

    /// Routing gate for the LibFS: while healthy every eligible op is
    /// admitted; while degraded only one in [`PROBE_EVERY`] is, as a
    /// probe whose success (a run of them) clears degraded mode.
    pub fn admit_delegated(&self) -> bool {
        if !self.health.degraded.load(Ordering::Relaxed) {
            return true;
        }
        self.health.probe_tick.fetch_add(1, Ordering::Relaxed).is_multiple_of(PROBE_EVERY)
    }

    /// Whether the pool is currently in degraded mode.
    pub fn degraded(&self) -> bool {
        self.health.degraded.load(Ordering::Relaxed)
    }

    /// Snapshot of the degradation state machine.
    pub fn degraded_mode(&self) -> DegradedMode {
        DegradedMode {
            active: self.health.degraded.load(Ordering::Relaxed),
            consecutive_failures: self.health.consec_failures.load(Ordering::Relaxed),
            enters: self.health.enters.load(Ordering::Relaxed),
            exits: self.health.exits.load(Ordering::Relaxed),
        }
    }

    /// Appends a failure-domain event (worker death/restart, degraded-mode
    /// transition) to the pool's event ring, surfacing overflow drops
    /// in the shared stats.
    fn push_event(&self, ev: KernelEvent) {
        if self.events.push(ev) {
            self.stats.record_event_dropped();
        }
    }

    /// Drains the death-to-restart latencies the watchdog observed.
    pub fn take_recovery_latencies(&self) -> Vec<Nanos> {
        std::mem::take(&mut *self.recovery_ns.lock())
    }

    /// Total worker slots (nodes × threads per node).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Whether [`DelegationPool::start`] ran.
    pub fn is_started(&self) -> bool {
        self.started.load(Ordering::SeqCst)
    }

    /// Closes all rings; delegation threads drain and exit. Suppresses
    /// watchdog respawns from this point on.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
        for node_rings in &self.rings {
            for ring in node_rings {
                ring.close();
            }
        }
    }

    /// Adversary/test hook: enqueue a raw, possibly malformed [`DelegReq`]
    /// on one of `node`'s rings, bypassing every client-side invariant —
    /// exactly what a hostile LibFS with ring access can do. The worker's
    /// [`validate_req`] admission check and the per-page MMU check are the
    /// only defenses that apply.
    pub fn submit_raw(&self, node: usize, req: DelegReq) -> Result<(), ProtError> {
        if node >= self.rings.len() {
            return Err(ProtError::OutOfRange);
        }
        self.stats.record_submission(req.runs.len());
        self.ring_for(node).send(req).map_err(|_| ProtError::NotMapped)
    }

    fn ring_for(&self, node: usize) -> &Arc<SimChannel<DelegReq>> {
        let i = self.rr[node].fetch_add(1, Ordering::Relaxed);
        let rings = &self.rings[node];
        &rings[i % rings.len()]
    }

    /// Grabs a pooled reply ring, or makes one sized so that even an
    /// abandoned op's stragglers fit without blocking a worker.
    fn take_reply(&self) -> Arc<SimChannel<DelegReply>> {
        if let Some(ch) = self.reply_pool.lock().pop() {
            return ch;
        }
        Arc::new(SimChannel::bounded(REPLY_RING_CAP))
    }

    /// Returns a reply ring to the pool. Callers may only do this when
    /// every submitted batch was received — an abandoned ring with
    /// stragglers in flight must be dropped instead, or a late reply
    /// would bleed into the next op. (Only the client sends, and each
    /// send gets at most one reply, so replies never exceed its own
    /// submissions.)
    fn put_reply(&self, ch: Arc<SimChannel<DelegReply>>) {
        debug_assert!(ch.is_empty());
        let mut pool = self.reply_pool.lock();
        if pool.len() < 256 {
            pool.push(ch);
        }
    }

    /// Splits `[start, start+len)` over `pages` into node-contiguous runs.
    /// Returns `(node, page_range, byte_range_within_extent)` tuples.
    #[allow(clippy::needless_range_loop)] // `pi` marks run boundaries
    fn split_runs(
        &self,
        pages: &[PageId],
        start: usize,
        len: usize,
    ) -> Vec<(usize, std::ops::Range<usize>, std::ops::Range<usize>)> {
        let topo = self.dev.topology();
        let mut runs = Vec::new();
        if len == 0 {
            return runs;
        }
        let first = start / PAGE_SIZE;
        let last = (start + len - 1) / PAGE_SIZE;
        let mut run_start_page = first;
        let mut run_node = topo.node_of(pages[first]);
        for pi in first..=last {
            let node = topo.node_of(pages[pi]);
            if node != run_node {
                runs.push(self.finish_run(run_node, run_start_page, pi, start, len));
                run_start_page = pi;
                run_node = node;
            }
        }
        runs.push(self.finish_run(run_node, run_start_page, last + 1, start, len));
        runs
    }

    fn finish_run(
        &self,
        node: usize,
        from_page: usize,
        to_page: usize,
        start: usize,
        len: usize,
    ) -> (usize, std::ops::Range<usize>, std::ops::Range<usize>) {
        let byte_from = start.max(from_page * PAGE_SIZE);
        let byte_to = (start + len).min(to_page * PAGE_SIZE);
        (node, from_page..to_page, byte_from..byte_to)
    }

    /// Groups the extent's runs into tagged batches, one per `(node,
    /// fan-out slot)`. Each node-contiguous run bigger than
    /// [`FANOUT_MIN_BYTES`] is additionally split into page-aligned chunks
    /// dealt round-robin into as many slots as the node has workers, so a
    /// single large op becomes several requests, which `ring_for` then
    /// spreads over the node's rings — several delegation threads serve it
    /// concurrently, and that is what lifts the node to the concurrency
    /// level its bandwidth model rewards. Small runs stay whole: one chunk,
    /// one hop.
    #[allow(clippy::too_many_arguments)]
    fn build_batches(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        len: usize,
        grant: Option<&GrantRef>,
        reply: &Arc<SimChannel<DelegReply>>,
    ) -> Vec<Batch> {
        let mut batches: Vec<Batch> = Vec::new();
        let mut next_slot: Vec<usize> = vec![0; self.rings.len()];
        for (node, prange, brange) in self.split_runs(pages, start, len) {
            let threads = self.rings[node].len();
            let chunks = (brange.len() / FANOUT_MIN_BYTES).clamp(1, threads);
            let run_pages = prange.len();
            let mut from_page = prange.start;
            for ci in 0..chunks {
                // Even page split: every page belongs to exactly one
                // chunk, so no two workers ever share a page.
                let to_page = prange.start + (run_pages * (ci + 1)) / chunks;
                if to_page == from_page {
                    continue;
                }
                let byte_from = brange.start.max(from_page * PAGE_SIZE);
                let byte_to = brange.end.min(to_page * PAGE_SIZE);
                let run = DelegRun {
                    // lint: allow(no-payload-copy) page-id list, not payload bytes
                    pages: pages[from_page..to_page].to_vec(),
                    start: byte_from - from_page * PAGE_SIZE,
                    payload: byte_from - start..byte_to - start,
                };
                let bytes = run.payload.len();
                let slot = next_slot[node];
                next_slot[node] = (slot + 1) % threads.max(1);
                from_page = to_page;
                match batches.iter_mut().find(|b| b.node == node && b.slot == slot) {
                    Some(b) => {
                        b.req.runs.push(run);
                        b.bytes += bytes;
                    }
                    None => batches.push(Batch {
                        node,
                        slot,
                        req: DelegReq {
                            actor,
                            op_id: crate::obs::current_op(),
                            runs: vec![run],
                            grant: grant.copied(),
                            tag: batches.len(),
                            reply: Arc::clone(reply),
                        },
                        bytes,
                        submitted: 0,
                        done: false,
                    }),
                }
            }
        }
        batches
    }

    /// Enqueues one batch, counting ring backpressure (which feeds the
    /// degradation state machine) and giving the watchdog a chance to
    /// clear a dead worker before blocking on a full ring. Fails only
    /// when the pool is shut down.
    fn submit(&self, batch: &mut Batch) -> Result<(), ProtError> {
        self.stats.record_submission(batch.req.runs.len());
        crate::obs::ring_submit(
            batch.req.op_id,
            batch.req.grant.is_some(),
            batch.node,
            batch.req.actor.0,
            batch.req.runs.len() as u64,
        );
        batch.submitted = now_or_zero();
        match self.ring_for(batch.node).try_send(batch.req.clone()) {
            Ok(()) => Ok(()),
            Err(req) => {
                self.note_backpressure();
                // The ring may be full because its worker died mid-queue:
                // reap and respawn before committing to a blocking send.
                self.watchdog_scan();
                self.ring_for(batch.node).send(req).map_err(|_| ProtError::NotMapped)
            }
        }
    }

    /// Core submit-and-collect loop shared by every entry point.
    ///
    /// Dispatches one batch per touched node, then waits for tagged
    /// completions. With a [`RetryPolicy`], each attempt waits one policy
    /// window — recomputed from the *remaining* (not yet completed)
    /// bytes, so retries of a partially-completed scatter-gather op get
    /// deadlines scaled to what is actually left — then runs a watchdog
    /// scan and re-enqueues only the still-pending batches (same shared
    /// payload — no copy), up to the policy's attempt budget. Without a
    /// policy it waits forever (the baseline-compatible blocking mode).
    /// `buf` receives scattered read data.
    ///
    /// This wrapper also feeds the degradation state machine and
    /// auto-dumps the obs flight recorder when the whole op times out.
    #[allow(clippy::too_many_arguments)]
    fn run_batches(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        len: usize,
        grant: Option<&GrantRef>,
        buf: Option<&mut [u8]>,
        policy: Option<&RetryPolicy>,
    ) -> Result<(), DelegationError> {
        let r = self.run_batches_inner(actor, pages, start, len, grant, buf, policy);
        match &r {
            Ok(()) => self.note_op_success(),
            Err(DelegationError::Timeout) => {
                self.note_op_failure();
                crate::obs::timeout_dump();
            }
            // Faults are the access's own outcome (permissions, bounds),
            // not delegation-infrastructure health.
            Err(DelegationError::Fault(_)) => {}
        }
        r
    }

    #[allow(clippy::too_many_arguments)]
    fn run_batches_inner(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        len: usize,
        grant: Option<&GrantRef>,
        mut buf: Option<&mut [u8]>,
        policy: Option<&RetryPolicy>,
    ) -> Result<(), DelegationError> {
        if len == 0 {
            return Ok(());
        }
        let reply = self.take_reply();
        let mut batches = self.build_batches(actor, pages, start, len, grant, &reply);
        let mut sent = 0u64;
        let mut received = 0u64;
        let mut fault: Option<ProtError> = None;
        let mut pending = batches.len();
        for b in batches.iter_mut() {
            match self.submit(b) {
                Ok(()) => sent += 1,
                Err(e) => {
                    fault = Some(e);
                    b.done = true;
                    pending -= 1;
                }
            }
        }
        // Deadlines need the virtual clock; outside the sim (where no
        // injected fault can fire either) waits degrade to blocking.
        let mut attempt = 0u32;
        'attempts: while pending > 0 {
            let deadline = match policy {
                Some(p) if in_sim() => {
                    let remaining: usize =
                        batches.iter().filter(|b| !b.done).map(|b| b.bytes).sum();
                    let window = p.window_ns(attempt, remaining);
                    if attempt > 0 {
                        crate::obs::retry_decision(
                            crate::obs::current_op(),
                            grant.is_some(),
                            attempt,
                            window,
                        );
                    }
                    Some(now() + window)
                }
                _ => None,
            };
            attempt += 1;
            while pending > 0 {
                let got = match deadline {
                    Some(d) => reply.recv_deadline(d),
                    None => match reply.recv() {
                        Some(v) => RecvDeadline::Ok(v),
                        None => RecvDeadline::Closed,
                    },
                };
                match got {
                    RecvDeadline::Ok((tag, result)) => {
                        received += 1;
                        let b = &mut batches[tag];
                        if b.done {
                            // Straggler from a retried attempt; already
                            // accounted for.
                            continue;
                        }
                        if in_sim() {
                            let hop = now().saturating_sub(b.submitted);
                            self.stats.record_ring_hop(hop);
                            crate::obs::ring_reply(
                                b.req.op_id,
                                b.req.grant.is_some(),
                                b.node,
                                b.req.actor.0,
                                hop,
                            );
                        }
                        b.done = true;
                        pending -= 1;
                        match result {
                            Ok(Some(data)) => {
                                if let Some(buf) = buf.as_deref_mut() {
                                    let mut off = 0;
                                    for run in &b.req.runs {
                                        let n = run.payload.len();
                                        buf[run.payload.clone()]
                                            .copy_from_slice(&data[off..off + n]);
                                        off += n;
                                    }
                                }
                            }
                            Ok(None) => {
                                if buf.is_some() {
                                    fault = Some(ProtError::NotMapped);
                                }
                            }
                            Err(e) => fault = Some(e),
                        }
                    }
                    RecvDeadline::Closed => {
                        fault = Some(ProtError::NotMapped);
                        break 'attempts;
                    }
                    RecvDeadline::TimedOut => {
                        self.stats.record_timeout();
                        // Timeouts only occur under a policy (deadlines
                        // are only set when one is present).
                        let budget = policy.map_or(1, |p| p.attempts());
                        if attempt >= budget {
                            break 'attempts;
                        }
                        // A dead worker may have taken one of our batches
                        // with it: reap and respawn, then re-enqueue
                        // whatever is still missing. This is the one
                        // recovery path. The shared payload rides along
                        // untouched, and a copy of a batch that is still
                        // in flight carries the same bytes for the same
                        // place.
                        self.watchdog_scan();
                        for b in batches.iter_mut().filter(|b| !b.done) {
                            self.stats.record_retry();
                            match self.submit(b) {
                                Ok(()) => sent += 1,
                                Err(e) => {
                                    fault = Some(e);
                                    b.done = true;
                                    pending -= 1;
                                }
                            }
                        }
                        continue 'attempts;
                    }
                }
            }
        }
        if received == sent {
            self.put_reply(reply);
        }
        match (fault, pending) {
            (Some(e), _) => Err(DelegationError::Fault(e)),
            (None, 0) => {
                self.stats.record_delegated_bytes(len, grant.is_some());
                Ok(())
            }
            (None, _) => Err(DelegationError::Timeout),
        }
    }

    /// Zero-copy delegated write of an extent: the payload is named by a
    /// [`GrantRef`] window (see [`Self::grants`]) and read by the workers
    /// straight from the granted buffer — no bytes move on the submit
    /// path. Batches are dispatched in parallel (fanned out across each
    /// node's workers for large runs), waiting (unbounded) for all
    /// completions. `gref.len` is the op's payload length.
    pub fn write_extent_granted(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        gref: GrantRef,
    ) -> Result<(), ProtError> {
        let op = self.grants.op_window(actor, &gref)?;
        let r = self.run_batches(actor, pages, start, op.len, Some(&op), None, None);
        self.grants.revoke(actor, op.grant_id);
        match r {
            Ok(()) => Ok(()),
            Err(DelegationError::Fault(e)) => Err(e),
            Err(DelegationError::Timeout) => Err(ProtError::NotMapped),
        }
    }

    /// Delegated read of an extent (unbounded wait).
    pub fn read_extent(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        buf: &mut [u8],
    ) -> Result<(), ProtError> {
        let len = buf.len();
        match self.run_batches(actor, pages, start, len, None, Some(buf), None) {
            Ok(()) => Ok(()),
            Err(DelegationError::Fault(e)) => Err(e),
            Err(DelegationError::Timeout) => Err(ProtError::NotMapped),
        }
    }

    /// Deadline-bounded zero-copy delegated write: like
    /// [`DelegationPool::write_extent_granted`] but every wait is bounded
    /// by the [`RetryPolicy`] instead of hanging on a stalled, wedged, or
    /// dead delegation thread. Each retry window is recomputed from the
    /// bytes still outstanding and runs a watchdog scan first; retries
    /// re-enqueue only the [`GrantRef`], and every dispatch re-resolves
    /// it. Outside the simulation there is no virtual clock (and no
    /// injected fault can fire), so this degrades to the blocking variant.
    pub fn try_write_extent_granted(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        gref: GrantRef,
        policy: &RetryPolicy,
    ) -> Result<(), DelegationError> {
        // The op dispatches an op-scoped child of `gref` and revokes it on
        // the way out: the revoke is a drain barrier, so when this returns
        // (success, fault, or timeout-then-fallback) no worker is still
        // reading the window — a straggling copy of a retried batch can
        // never re-apply stale bytes over whatever the caller writes next.
        let op = self.grants.op_window(actor, &gref).map_err(DelegationError::Fault)?;
        let r = self.run_batches(actor, pages, start, op.len, Some(&op), None, Some(policy));
        self.grants.revoke(actor, op.grant_id);
        r
    }

    /// Deadline-bounded delegated read; see
    /// [`DelegationPool::try_write_extent`]. On [`DelegationError::Timeout`]
    /// the buffer contents are unspecified (some runs may have landed).
    pub fn try_read_extent(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        buf: &mut [u8],
        policy: &RetryPolicy,
    ) -> Result<(), DelegationError> {
        let len = buf.len();
        self.run_batches(actor, pages, start, len, None, Some(buf), Some(policy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_point_round_trips_through_index() {
        for p in WorkerKillPoint::ALL {
            assert_eq!(WorkerKillPoint::from_index(p as u8), Some(p));
        }
        assert_eq!(WorkerKillPoint::from_index(3), None);
        let plan = WorkerKillPlan::kill_at(12, WorkerKillPoint::MidPayload);
        assert_eq!(plan.at_request, 12);
        assert_eq!(plan.point.as_str(), "mid-payload");
    }

    #[test]
    fn a_never_drained_event_log_drops_its_oldest_and_counts_it() {
        let dev = Arc::new(NvmDevice::new(trio_nvm::DeviceConfig::small()));
        let ring = Arc::new(EventRing::new(EVENT_RING_CAPACITY));
        let pool =
            DelegationPool::with_stats(dev, 1, Arc::new(PathStats::new()), Arc::clone(&ring));
        for worker in 0..=EVENT_RING_CAPACITY {
            pool.push_event(KernelEvent::WorkerDied { node: 0, worker });
        }
        let events = ring.drain();
        assert_eq!(events.len(), EVENT_RING_CAPACITY);
        assert!(matches!(events[0], KernelEvent::WorkerDied { worker: 1, .. }));
        assert_eq!(pool.stats().snapshot().events_dropped, 1);
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)]
    fn a_run_range_reversed_or_out_of_bounds_is_out_of_range() {
        let req = |payload: std::ops::Range<usize>, grant: Option<GrantRef>| DelegReq {
            actor: ActorId(1),
            op_id: 0,
            runs: vec![DelegRun { pages: vec![PageId(9)], start: 0, payload }],
            grant,
            tag: 0,
            reply: Arc::new(SimChannel::unbounded()),
        };
        let window = Some(GrantRef { grant_id: 1, start: 0, len: 128, epoch: 1 });
        assert_eq!(validate_req(&req(0..PAGE_SIZE, None)), Ok(()));
        assert_eq!(validate_req(&req(0..128, window)), Ok(()));
        // A reversed read range, a read range past its one page, and a
        // write range past its grant window.
        for (payload, grant) in [(64..32, None), (0..PAGE_SIZE + 1, None), (0..129, window)] {
            assert_eq!(validate_req(&req(payload, grant)), Err(ProtError::OutOfRange));
        }
    }
}
