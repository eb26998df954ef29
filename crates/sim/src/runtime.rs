//! The virtual-time scheduler.
//!
//! Sim-threads are real OS threads, but the scheduler guarantees that at
//! most one of them executes at any wall-clock instant. Control passes at
//! *sim points*: [`work`] (charge virtual CPU time), blocking inside a
//! [`crate::sync`] primitive, [`yield_now`], or thread exit. At each sim
//! point the scheduler selects the ready thread with the smallest
//! `(virtual_time, sequence)` key, making execution deterministic.

use std::{
    any::Any,
    cell::{Cell, RefCell},
    cmp::Reverse,
    collections::BinaryHeap,
    sync::atomic::{AtomicBool, AtomicU8, Ordering},
    sync::{Arc, OnceLock},
    thread::{self, Thread},
};

use crate::plock::{Mutex, MutexGuard};

use crate::race::{vc_join, VectorClock};
use crate::time::Nanos;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Inner>, usize)>> = const { RefCell::new(None) };
    /// How many [`crate::sync::SimRwLock::read_free`] bodies the calling
    /// thread is inside. A sim point there panics ([`ReadFreeScope`]).
    static READ_FREE_DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// The calling thread runs a read-free body until this drops. A read-free
/// read is validated only because no other sim-thread runs between its
/// check and its end, so every sim point (`advance` and the blocking
/// paths) refuses to run inside one.
pub(crate) struct ReadFreeScope(());

impl ReadFreeScope {
    pub(crate) fn enter() -> Self {
        READ_FREE_DEPTH.with(|d| d.set(d.get() + 1));
        ReadFreeScope(())
    }
}

impl Drop for ReadFreeScope {
    fn drop(&mut self) {
        READ_FREE_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// Panics at a sim point inside a read-free body.
fn assert_not_read_free() {
    assert_eq!(
        READ_FREE_DEPTH.with(Cell::get),
        0,
        "sim point inside SimRwLock::read_free: a validated read must not yield"
    );
}

/// Returns true when the calling OS thread is a sim-thread.
pub fn in_sim() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

fn with_current<R>(f: impl FnOnce(&Arc<Inner>, usize) -> R) -> R {
    CURRENT.with(|c| {
        let b = c.borrow();
        let (inner, tid) = b
            .as_ref()
            .expect("sim primitive used outside a sim-thread; wrap the code in SimRuntime::spawn");
        f(inner, *tid)
    })
}

/// Charges `ns` of virtual CPU time to the calling sim-thread.
///
/// Another thread whose virtual timestamp falls inside the charged interval
/// may be scheduled before this call returns; shared state must therefore be
/// accessed under a [`crate::sync`] lock across `work` calls, exactly like
/// real preemption.
///
/// # Panics
///
/// Panics when called outside a sim-thread.
pub fn work(ns: Nanos) {
    if ns == 0 {
        return;
    }
    with_current(|inner, tid| inner.advance(tid, ns));
}

/// Current virtual time of the calling sim-thread, in nanoseconds since the
/// simulation epoch.
///
/// # Panics
///
/// Panics when called outside a sim-thread.
pub fn now() -> Nanos {
    with_current(|inner, tid| inner.sched.lock().threads[tid].time)
}

/// [`now`] on a sim-thread, 0 anywhere else (set-up and tear-down code that
/// stamps or times something it also runs outside the simulation).
pub fn now_or_zero() -> Nanos {
    if in_sim() {
        now()
    } else {
        0
    }
}

/// Identifier of the calling sim-thread (dense, starting at 0 in spawn
/// order).
///
/// # Panics
///
/// Panics when called outside a sim-thread.
pub fn current_tid() -> usize {
    with_current(|_, tid| tid)
}

/// Reschedules the calling thread behind all other threads that share its
/// virtual timestamp.
pub fn yield_now() {
    with_current(|inner, tid| inner.advance(tid, 0));
}

/// Spawns a sim-thread from inside the simulation. The child starts at the
/// parent's current virtual time.
///
/// # Panics
///
/// Panics when called outside a sim-thread.
pub fn spawn<F>(name: &str, f: F) -> JoinHandle
where
    F: FnOnce() + Send + 'static,
{
    with_current(|inner, _| Inner::spawn_thread(inner, name, f))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RunState {
    /// In the ready queue (or about to run).
    Ready,
    /// Currently executing on its OS thread.
    Running,
    /// Waiting inside a synchronization primitive; not in the ready queue.
    Blocked,
    /// Closure returned (or unwound).
    Done,
}

/// One thread's hand-off point: an atomic flag and the OS thread that waits
/// on it. The flag says what the owner finds when it wakes; the park token
/// (`thread::park` / `Thread::unpark`) only wakes it, so a stale or spurious
/// wake-up re-reads the flag and parks again.
struct Park {
    flag: AtomicU8,
    /// Set once, under the sched lock, before anything can unpark this park.
    owner: OnceLock<Thread>,
}

const WAIT: u8 = 0;
const GO: u8 = 1;
const ABORT: u8 = 2;

impl Park {
    fn new() -> Self {
        Park { flag: AtomicU8::new(WAIT), owner: OnceLock::new() }
    }

    fn set_owner(&self, owner: Thread) {
        self.owner.set(owner).expect("a park has one owner");
    }

    /// Blocks the owner until unparked. Returns `true` when the simulation
    /// was aborted and the thread must unwind.
    fn park(&self) -> bool {
        loop {
            match self.flag.compare_exchange(GO, WAIT, Ordering::Acquire, Ordering::Acquire) {
                Ok(_) => return false,
                Err(ABORT) => return true,
                Err(_) => thread::park(),
            }
        }
    }

    fn unpark(&self) {
        // Go, unless the simulation already aborted (Go stays Go).
        let _ = self.flag.compare_exchange(WAIT, GO, Ordering::Release, Ordering::Relaxed);
        self.wake();
    }

    fn abort(&self) {
        self.flag.store(ABORT, Ordering::Release);
        self.wake();
    }

    fn wake(&self) {
        self.owner.get().expect("a park's owner is set before it is unparked").unpark();
    }
}

struct ThreadSlot {
    name: String,
    park: Arc<Park>,
    time: Nanos,
    state: RunState,
    join_waiters: Vec<usize>,
    os_handle: Option<thread::JoinHandle<()>>,
    /// Wake generation: bumped on every Blocked -> Ready transition so stale
    /// timed wake-ups (from [`Inner::block_current_timed`]) are discarded.
    gen: u64,
    /// Fault injection: set by [`JoinHandle::kill`]/[`SimRuntime::kill`]; the
    /// thread unwinds (cleanly, releasing its locks) at its next sim point.
    doomed: bool,
    /// Vector clock for race detection (empty unless
    /// [`SimRuntime::enable_race_detection`] was called). Indexed by tid;
    /// `vc[tid]` is this thread's own epoch, initialized to 1 lazily so
    /// fresh threads are never "covered" by a default clock.
    vc: Vec<u64>,
}

/// One pending wake-up: `(time, seq, tid, timed)`. `seq` is unique, so
/// the queue's order never looks past `(time, seq)`. A ready thread's entry
/// has `timed == None`; a timed wake-up (from
/// [`Inner::block_current_timed`]) carries the `gen` it was armed with, and
/// is stale, and skipped, once the thread's `gen` moved on.
type Wakeup = (Nanos, u64, usize, Option<u64>);

pub(crate) struct SchedState {
    threads: Vec<ThreadSlot>,
    /// Every pending wake-up, earliest `(time, seq)` first.
    wakeups: BinaryHeap<Reverse<Wakeup>>,
    seq: u64,
    live: usize,
    events: u64,
    panic_msg: Option<String>,
    finished: bool,
}

impl SchedState {
    /// Queues a wake-up of `tid` at `at` behind every earlier-queued one of
    /// the same time; `timed` as in [`Wakeup`].
    fn push(&mut self, at: Nanos, tid: usize, timed: Option<u64>) {
        let seq = self.seq;
        self.seq += 1;
        self.wakeups.push(Reverse((at, seq, tid, timed)));
    }
}

pub(crate) struct Inner {
    pub(crate) sched: Mutex<SchedState>,
    /// Where [`SimRuntime::run`]'s caller waits; [`Inner::finish`] unparks it.
    done: Park,
    seed: u64,
    /// Vector-clock maintenance switch (off by default: zero overhead on
    /// the sync primitives unless a test opts in).
    race: AtomicBool,
    /// [`SimRuntime::slot`]'s value, made on first use.
    slot: OnceLock<Box<dyn Any + Send + Sync>>,
}

/// Message used to unwind a sim-thread when the whole simulation aborts
/// (deadlock or a panic on another sim-thread).
const ABORT_MSG: &str = "trio-sim: simulation aborted";

/// Message used to unwind a sim-thread that was killed by fault injection.
/// Unlike [`ABORT_MSG`], this is a *clean* death: the rest of the simulation
/// keeps running, exactly like a LibFS process dying mid-operation.
const KILL_MSG: &str = "trio-sim: sim-thread killed by fault injection";

impl Inner {
    /// Unwinds the calling thread if it was marked for death. Called at sim
    /// points so a killed thread dies at a deterministic instruction
    /// boundary, releasing its locks through ordinary guard drops.
    fn check_doomed(self: &Arc<Self>, st: &mut MutexGuard<'_, SchedState>, tid: usize) {
        if st.threads[tid].doomed {
            // Clear the flag first: guard drops during the unwind re-enter
            // the scheduler (unlock hand-offs, time charges) and must not
            // re-panic.
            st.threads[tid].doomed = false;
            panic!("{KILL_MSG}");
        }
    }

    fn advance(self: &Arc<Self>, tid: usize, ns: Nanos) {
        assert_not_read_free();
        let mut st = self.sched.lock();
        self.check_doomed(&mut st, tid);
        st.events += 1;
        let t = st.threads[tid].time.saturating_add(ns);
        st.threads[tid].time = t;
        st.threads[tid].state = RunState::Ready;
        st.push(t, tid, None);
        self.dispatch_then_park(st, Some(tid));
    }

    /// Parks the calling thread without queueing it; some other thread must
    /// later call [`Inner::make_ready`] for it. Used by sync primitives.
    pub(crate) fn block_current(self: &Arc<Self>, tid: usize) {
        assert_not_read_free();
        let mut st = self.sched.lock();
        self.check_doomed(&mut st, tid);
        st.events += 1;
        st.threads[tid].state = RunState::Blocked;
        self.dispatch_then_park(st, Some(tid));
    }

    /// Like [`Inner::block_current`], but the thread also wakes on its own
    /// no later than virtual `deadline`. Whether it was notified or timed
    /// out is for the caller's predicate to decide (the primitive re-checks
    /// its state on resume, as with any wake-up).
    pub(crate) fn block_current_timed(self: &Arc<Self>, tid: usize, deadline: Nanos) {
        assert_not_read_free();
        let mut st = self.sched.lock();
        self.check_doomed(&mut st, tid);
        st.events += 1;
        st.threads[tid].state = RunState::Blocked;
        let gen = st.threads[tid].gen;
        let at = st.threads[tid].time.max(deadline);
        st.push(at, tid, Some(gen));
        self.dispatch_then_park(st, Some(tid));
    }

    /// Marks `tid` runnable no earlier than `at`. Must be called by the
    /// currently running thread (possibly via a sync primitive).
    pub(crate) fn make_ready(st: &mut SchedState, tid: usize, at: Nanos) {
        if st.threads[tid].state == RunState::Done || st.finished {
            // Abort/unwind path: guards dropped during teardown may try to
            // hand locks to threads that already retired.
            return;
        }
        debug_assert_eq!(st.threads[tid].state, RunState::Blocked, "waking a non-blocked thread");
        let t = st.threads[tid].time.max(at);
        st.threads[tid].time = t;
        st.threads[tid].state = RunState::Ready;
        st.threads[tid].gen += 1; // Invalidate any pending timed wake-up.
        st.push(t, tid, None);
    }

    /// Picks the next thread to run: the smallest `(time, seq)` wake-up.
    /// Timed wake-ups whose generation is stale — the thread was notified
    /// before its deadline — are discarded here.
    fn pop_next(st: &mut SchedState) -> Option<usize> {
        while let Some(Reverse((at, _, tid, timed))) = st.wakeups.pop() {
            let Some(gen) = timed else { return Some(tid) };
            if st.threads[tid].state == RunState::Blocked && st.threads[tid].gen == gen {
                // The timeout fires: wake the thread at its deadline.
                if st.threads[tid].time < at {
                    st.threads[tid].time = at;
                }
                st.threads[tid].gen += 1;
                return Some(tid);
            }
        }
        None
    }

    pub(crate) fn time_of(st: &SchedState, tid: usize) -> Nanos {
        st.threads[tid].time
    }

    /// Picks the earliest ready thread and transfers control to it. When
    /// `me` is `Some` and wins the pick, the call simply returns; otherwise
    /// the caller parks. `me = None` is used by the external `run()` entry.
    fn dispatch_then_park(self: &Arc<Self>, mut st: MutexGuard<'_, SchedState>, me: Option<usize>) {
        match Self::pop_next(&mut st) {
            Some(next) => {
                st.threads[next].state = RunState::Running;
                if me == Some(next) {
                    return;
                }
                let next_park = Arc::clone(&st.threads[next].park);
                let my_park = me.map(|m| Arc::clone(&st.threads[m].park));
                drop(st);
                next_park.unpark();
                if let Some(p) = my_park {
                    if p.park() {
                        panic!("{ABORT_MSG}");
                    }
                }
            }
            None => {
                if st.live > 0 && st.panic_msg.is_none() {
                    let stuck: Vec<String> = st
                        .threads
                        .iter()
                        .filter(|t| t.state == RunState::Blocked)
                        .map(|t| t.name.clone())
                        .collect();
                    st.panic_msg =
                        Some(format!("virtual-time deadlock; blocked sim-threads: {stuck:?}"));
                }
                self.finish(st, me);
            }
        }
    }

    /// Ends the simulation: aborts every parked thread and wakes `run()`'s
    /// caller.
    fn finish(self: &Arc<Self>, mut st: MutexGuard<'_, SchedState>, me: Option<usize>) {
        st.finished = true;
        let parks: Vec<Arc<Park>> = st
            .threads
            .iter()
            .filter(|t| t.state != RunState::Done)
            .map(|t| Arc::clone(&t.park))
            .collect();
        let panicked = st.panic_msg.is_some();
        drop(st);
        for p in &parks {
            p.abort();
        }
        self.done.unpark();
        if panicked && me.is_some() {
            panic!("{ABORT_MSG}");
        }
    }

    /// Called when a sim-thread's closure returns or unwinds.
    fn retire(self: &Arc<Self>, tid: usize, panic_msg: Option<String>) {
        let mut st = self.sched.lock();
        st.threads[tid].state = RunState::Done;
        st.live -= 1;
        // A kill-injected unwind is a *clean* death (the LibFS process went
        // away); joiners are released and the simulation continues.
        let panic_msg = panic_msg.filter(|m| !m.contains(KILL_MSG));
        if let Some(msg) = panic_msg {
            if !msg.contains("trio-sim: simulation aborted") {
                st.panic_msg.get_or_insert(msg);
            }
            return self.finish(st, None);
        }
        let end = st.threads[tid].time;
        let waiters = std::mem::take(&mut st.threads[tid].join_waiters);
        for w in waiters {
            Self::make_ready(&mut st, w, end);
        }
        if st.live == 0 {
            return self.finish(st, None);
        }
        self.dispatch_then_park(st, None);
    }

    fn spawn_thread<F>(inner: &Arc<Inner>, name: &str, f: F) -> JoinHandle
    where
        F: FnOnce() + Send + 'static,
    {
        let mut st = inner.sched.lock();
        assert!(!st.finished, "spawn on a finished SimRuntime");
        let tid = st.threads.len();
        let parent = CURRENT.with(|c| c.borrow().as_ref().map(|(_, me)| *me));
        let start_time = parent.map(|me| Inner::time_of(&st, me)).unwrap_or(0);
        // Spawn is a release edge: the child inherits everything the parent
        // has done so far, then the parent moves to a fresh epoch.
        let mut vc = Vec::new();
        if inner.race.load(Ordering::Relaxed) {
            if let Some(p) = parent {
                Self::vc_init(&mut st, p);
                vc = st.threads[p].vc.clone();
                st.threads[p].vc[p] += 1;
            }
            if vc.len() <= tid {
                vc.resize(tid + 1, 0);
            }
            vc[tid] = 1;
        }
        st.threads.push(ThreadSlot {
            name: format!("{name}-{tid}"),
            park: Arc::new(Park::new()),
            time: start_time,
            state: RunState::Ready,
            join_waiters: Vec::new(),
            os_handle: None,
            gen: 0,
            doomed: false,
            vc,
        });
        st.live += 1;
        st.push(start_time, tid, None);

        let park = Arc::clone(&st.threads[tid].park);
        let inner2 = Arc::clone(inner);
        let os_name = st.threads[tid].name.clone();
        let handle = thread::Builder::new()
            .name(os_name)
            .stack_size(256 * 1024)
            .spawn(move || {
                if park.park() {
                    return; // Aborted before first dispatch.
                }
                CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&inner2), tid)));
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                CURRENT.with(|c| *c.borrow_mut() = None);
                let panic_msg = result.err().map(|e| {
                    if let Some(s) = e.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = e.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "sim-thread panicked".to_string()
                    }
                });
                inner2.retire(tid, panic_msg);
            })
            .expect("failed to spawn sim-thread");
        // Under the sched lock, so no dispatch can unpark the thread first.
        st.threads[tid].park.set_owner(handle.thread().clone());
        st.threads[tid].os_handle = Some(handle);
        drop(st);
        JoinHandle { inner: Arc::clone(inner), tid }
    }
}

/// Handle to a spawned sim-thread; see [`SimRuntime::spawn`] and [`spawn`].
pub struct JoinHandle {
    inner: Arc<Inner>,
    tid: usize,
}

impl JoinHandle {
    /// Blocks the calling *sim-thread* (in virtual time) until the target
    /// thread finishes. The caller resumes no earlier than the target's
    /// final virtual timestamp.
    ///
    /// # Panics
    ///
    /// Panics when called outside a sim-thread; use [`SimRuntime::run`] to
    /// wait from the outside.
    pub fn join(self) {
        let me = current_tid();
        let inner = with_current(|i, _| Arc::clone(i));
        assert!(Arc::ptr_eq(&inner, &self.inner), "join across runtimes");
        let mut st = self.inner.sched.lock();
        if st.threads[self.tid].state == RunState::Done {
            let end = st.threads[self.tid].time;
            if end > st.threads[me].time {
                st.threads[me].time = end;
            }
            Inner::join_clock(&self.inner, &mut st, me, self.tid);
            return;
        }
        st.threads[self.tid].join_waiters.push(me);
        drop(st);
        self.inner.block_current(me);
        let mut st = self.inner.sched.lock();
        Inner::join_clock(&self.inner, &mut st, me, self.tid);
    }

    /// The sim-thread id of the target thread.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Fault injection: marks the target thread for death. The thread
    /// unwinds at its next sim point (a [`work`] charge, a blocking
    /// primitive, or a [`yield_now`]), releasing any locks it holds through
    /// ordinary guard drops — modelling a LibFS process killed
    /// mid-operation. Deterministic: the death lands on the same
    /// instruction boundary on every run. A thread blocked inside a
    /// primitive dies when it next resumes. No-op if the thread already
    /// finished.
    pub fn kill(&self) {
        let mut st = self.inner.sched.lock();
        if st.threads[self.tid].state != RunState::Done {
            st.threads[self.tid].doomed = true;
        }
    }
}

/// A deterministic virtual-time runtime; see the crate-level docs.
pub struct SimRuntime {
    inner: Arc<Inner>,
}

impl SimRuntime {
    /// Creates a runtime. `seed` feeds all per-thread RNGs ([`crate::rng`]).
    pub fn new(seed: u64) -> Self {
        SimRuntime {
            inner: Arc::new(Inner {
                sched: Mutex::new(SchedState {
                    threads: Vec::new(),
                    wakeups: BinaryHeap::new(),
                    seq: 0,
                    live: 0,
                    events: 0,
                    panic_msg: None,
                    finished: false,
                }),
                done: Park::new(),
                seed,
                race: AtomicBool::new(false),
                slot: OnceLock::new(),
            }),
        }
    }

    /// Turns on vector-clock maintenance for this runtime (spawn/join
    /// edges, [`crate::sync`] primitives, and the [`crate::race`] clock
    /// API). Off by default: without it every clock operation is a single
    /// relaxed load. Enable *before* spawning for full coverage; threads
    /// spawned earlier get a fresh clock lazily and appear unordered.
    pub fn enable_race_detection(&self) {
        self.inner.race.store(true, Ordering::Relaxed);
    }

    /// Spawns a sim-thread starting at virtual time 0 (or at the spawning
    /// sim-thread's current time when called from inside the simulation).
    pub fn spawn<F>(&self, name: &str, f: F) -> JoinHandle
    where
        F: FnOnce() + Send + 'static,
    {
        Inner::spawn_thread(&self.inner, name, f)
    }

    /// Runs the simulation to completion and returns the final virtual time
    /// (the maximum timestamp reached by any thread).
    ///
    /// # Panics
    ///
    /// Propagates the first sim-thread panic, and panics on virtual-time
    /// deadlock (every live thread blocked).
    pub fn run(&self) -> Nanos {
        let handles: Vec<thread::JoinHandle<()>>;
        {
            let mut st = self.inner.sched.lock();
            if st.live == 0 {
                st.finished = true;
            } else if !st.finished {
                self.inner.done.set_owner(thread::current());
                self.inner.dispatch_then_park(st, None);
                st = self.inner.sched.lock();
            }
            while !st.finished {
                drop(st);
                // `finish` sets `finished` before it unparks, so a wake-up
                // that finds it unset was a stale one.
                self.inner.done.park();
                st = self.inner.sched.lock();
            }
            handles = st.threads.iter_mut().filter_map(|t| t.os_handle.take()).collect();
        }
        for h in handles {
            let _ = h.join();
        }
        let st = self.inner.sched.lock();
        if let Some(msg) = &st.panic_msg {
            panic!("simulation failed: {msg}");
        }
        st.threads.iter().map(|t| t.time).max().unwrap_or(0)
    }

    /// Fault injection by thread id; see [`JoinHandle::kill`].
    pub fn kill(&self, tid: usize) {
        let mut st = self.inner.sched.lock();
        if tid < st.threads.len() && st.threads[tid].state != RunState::Done {
            st.threads[tid].doomed = true;
        }
    }

    /// Total scheduler events processed — a determinism fingerprint.
    pub fn events(&self) -> u64 {
        self.inner.sched.lock().events
    }

    /// The seed this runtime was created with.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// The runtime's one slot for state that a crate above this one keeps
    /// per simulation (trio-obs's flight recorder), made with `T::default()`
    /// on first use and dropped with the runtime. Its sim-threads reach it
    /// through [`with_slot`], anyone holding the runtime through this.
    ///
    /// # Panics
    ///
    /// Panics when the slot already holds a value of another type.
    pub fn slot<T: Any + Default + Send + Sync>(&self) -> &T {
        self.inner.slot()
    }
}

/// Runs `f` on the calling sim-thread's [`SimRuntime::slot`]; `None`
/// outside a sim-thread.
pub fn with_slot<T: Any + Default + Send + Sync, R>(f: impl FnOnce(&T) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(|(inner, _)| f(inner.slot())))
}

pub(crate) fn with_inner<R>(f: impl FnOnce(&Arc<Inner>, usize) -> R) -> R {
    with_current(f)
}

// ---------------------------------------------------------------------
// Vector-clock API (used by `sync` primitives and `race::RaceDetector`).
// Every function is a no-op / cheap default outside a sim-thread or when
// the runtime has not called `enable_race_detection`.
// ---------------------------------------------------------------------

/// Whether the calling sim-thread's runtime maintains vector clocks.
pub fn race_clocks_on() -> bool {
    in_sim() && with_current(|inner, _| inner.race.load(Ordering::Relaxed))
}

/// The calling thread's `(tid, epoch)` pair — the identity a memory access
/// is recorded under. Epochs start at 1.
pub fn clock_epoch() -> (usize, u64) {
    with_current(|inner, me| {
        let mut st = inner.sched.lock();
        Inner::vc_init(&mut st, me);
        (me, st.threads[me].vc[me])
    })
}

/// Whether the calling thread's clock already covers (happens-after) the
/// access `(tid, epoch)`.
pub fn clock_covers(tid: usize, epoch: u64) -> bool {
    with_current(|inner, me| {
        let st = inner.sched.lock();
        st.threads[me].vc.get(tid).copied().unwrap_or(0) >= epoch
    })
}

/// Acquire edge: joins `clock` into the calling thread's vector clock.
/// Everything the releasing thread did before its release now
/// happens-before everything this thread does next.
pub fn clock_acquire(clock: &VectorClock) {
    if !race_clocks_on() {
        return;
    }
    with_current(|inner, me| {
        let mut st = inner.sched.lock();
        Inner::vc_init(&mut st, me);
        vc_join(&mut st.threads[me].vc, &clock.0);
    });
}

/// Release edge: joins the calling thread's clock into `clock`, then
/// advances the caller's own epoch so later accesses are not covered by
/// this release.
pub fn clock_release(clock: &mut VectorClock) {
    if !race_clocks_on() {
        return;
    }
    with_current(|inner, me| {
        let mut st = inner.sched.lock();
        Inner::vc_init(&mut st, me);
        vc_join(&mut clock.0, &st.threads[me].vc);
        st.threads[me].vc[me] += 1;
    });
}

/// Release edge into a fresh clock — for message passing, where each
/// message carries the sender's clock at send time.
pub fn clock_release_snapshot() -> VectorClock {
    let mut c = VectorClock::new();
    clock_release(&mut c);
    c
}

/// Display name of sim-thread `tid` on the calling thread's runtime
/// (`"<spawn-name>-<tid>"`), or `"?"` if out of range.
pub fn thread_name(tid: usize) -> String {
    with_current(|inner, _| {
        let st = inner.sched.lock();
        st.threads.get(tid).map(|t| t.name.clone()).unwrap_or_else(|| "?".to_string())
    })
}

/// Seed of the calling sim-thread's runtime (for replay diagnostics).
pub fn current_seed() -> u64 {
    with_current(|inner, _| inner.seed())
}

impl Inner {
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    fn slot<T: Any + Default + Send + Sync>(&self) -> &T {
        let any = self.slot.get_or_init(|| Box::new(T::default()));
        any.downcast_ref().expect("a runtime's slot holds a value of another type")
    }

    /// Lazily initializes `tid`'s own vector-clock component (so enabling
    /// detection after threads were spawned still works).
    fn vc_init(st: &mut SchedState, tid: usize) {
        let vc = &mut st.threads[tid].vc;
        if vc.len() <= tid {
            vc.resize(tid + 1, 0);
        }
        if vc[tid] == 0 {
            vc[tid] = 1;
        }
    }

    /// Join is an acquire edge: the joiner inherits the target's final
    /// clock. No-op when race detection is off.
    fn join_clock(inner: &Arc<Inner>, st: &mut SchedState, me: usize, target: usize) {
        if !inner.race.load(Ordering::Relaxed) {
            return;
        }
        Self::vc_init(st, me);
        let tvc = std::mem::take(&mut st.threads[target].vc);
        vc_join(&mut st.threads[me].vc, &tvc);
        st.threads[target].vc = tvc;
    }

    /// Current virtual time of `tid`.
    pub(crate) fn now_of(&self, tid: usize) -> Nanos {
        self.sched.lock().threads[tid].time
    }

    /// Charges virtual CPU time to `tid` (no-op for zero).
    pub(crate) fn charge(self: &Arc<Self>, tid: usize, ns: Nanos) {
        if ns > 0 {
            self.advance(tid, ns);
        }
    }

    /// Makes `tid` runnable no earlier than `delay` after the current time
    /// of the running thread `me`. Used by sync primitives for hand-offs.
    pub(crate) fn wake_from(self: &Arc<Self>, me: usize, tid: usize, delay: Nanos) {
        let mut st = self.sched.lock();
        let t = Self::time_of(&st, me).saturating_add(delay);
        Self::make_ready(&mut st, tid, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn single_thread_accumulates_time() {
        let rt = SimRuntime::new(1);
        rt.spawn("t", || {
            work(100);
            work(250);
            assert_eq!(now(), 350);
        });
        assert_eq!(rt.run(), 350);
    }

    #[test]
    fn threads_interleave_by_virtual_time() {
        let rt = SimRuntime::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        rt.spawn("slow", move || {
            work(1_000);
            o1.lock().push("slow");
        });
        let o2 = Arc::clone(&order);
        rt.spawn("fast", move || {
            work(10);
            o2.lock().push("fast");
        });
        rt.run();
        assert_eq!(*order.lock(), vec!["fast", "slow"]);
    }

    #[test]
    fn run_returns_max_time() {
        let rt = SimRuntime::new(1);
        rt.spawn("a", || work(500));
        rt.spawn("b", || work(2_000));
        assert_eq!(rt.run(), 2_000);
    }

    #[test]
    fn nested_spawn_and_join() {
        let rt = SimRuntime::new(1);
        rt.spawn("parent", || {
            work(100);
            let child = spawn("child", || {
                work(400);
            });
            child.join();
            // Child started at 100 and worked 400.
            assert_eq!(now(), 500);
        });
        rt.run();
    }

    #[test]
    fn join_already_done_thread() {
        let rt = SimRuntime::new(1);
        rt.spawn("parent", || {
            let child = spawn("child", || work(50));
            work(500); // Child finishes at 50 while parent works.
            child.join();
            assert_eq!(now(), 500);
        });
        rt.run();
    }

    #[test]
    fn determinism_same_seed_same_events() {
        fn go() -> (Nanos, u64) {
            let rt = SimRuntime::new(7);
            let sum = Arc::new(AtomicU64::new(0));
            for i in 0..8u64 {
                let sum = Arc::clone(&sum);
                rt.spawn("w", move || {
                    for k in 0..20 {
                        work(10 + (i * 7 + k) % 13);
                        sum.fetch_add(i, Ordering::Relaxed);
                    }
                });
            }
            let t = rt.run();
            (t, rt.events())
        }
        assert_eq!(go(), go());
    }

    #[test]
    #[should_panic(expected = "simulation failed")]
    fn sim_thread_panic_propagates() {
        let rt = SimRuntime::new(1);
        rt.spawn("bad", || panic!("boom"));
        rt.spawn("good", || work(10));
        rt.run();
    }

    #[test]
    fn empty_runtime_runs() {
        let rt = SimRuntime::new(1);
        assert_eq!(rt.run(), 0);
    }

    #[test]
    fn yield_rotates_equal_time_threads() {
        let rt = SimRuntime::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for name in ["a", "b"] {
            let order = Arc::clone(&order);
            rt.spawn(name, move || {
                for _ in 0..2 {
                    order.lock().push(name);
                    yield_now();
                }
            });
        }
        rt.run();
        assert_eq!(*order.lock(), vec!["a", "b", "a", "b"]);
    }

    /// `(name, time)` at every step of four threads working uneven slices;
    /// when `nudge` is set, thread `b` sets its own OS park token first, so
    /// its next hand-off wakes once for nothing.
    fn hand_off_order(nudge: bool) -> (Vec<(&'static str, Nanos)>, u64) {
        let rt = SimRuntime::new(5);
        let order = Arc::new(Mutex::new(Vec::new()));
        for (name, slice) in [("a", 30), ("b", 20), ("c", 30), ("d", 50)] {
            let order = Arc::clone(&order);
            rt.spawn(name, move || {
                for k in 0..6 {
                    if nudge && name == "b" && k % 2 == 0 {
                        thread::current().unpark();
                    }
                    work(slice);
                    order.lock().push((name, now()));
                }
            });
        }
        rt.run();
        let order = order.lock().clone();
        (order, rt.events())
    }

    #[test]
    fn a_stale_park_token_does_not_reorder_the_hand_off() {
        let twin = hand_off_order(false);
        assert_eq!(twin.0.len(), 24);
        assert_eq!(hand_off_order(true), twin);
    }

    #[test]
    fn a_panic_aborts_parked_and_undispatched_threads_and_joins_them() {
        let rt = SimRuntime::new(1);
        // Every closure holds a clone; once `run` has joined every OS
        // thread, all of them have been dropped.
        let alive = Arc::new(());
        for name in ["x", "y"] {
            let alive = Arc::clone(&alive);
            rt.spawn(name, move || {
                let _alive = alive;
                work(10);
                work(1_000); // Parked here when the panic lands.
                unreachable!("an aborted thread never resumes");
            });
        }
        let alive2 = Arc::clone(&alive);
        rt.spawn("bad", move || {
            work(20);
            // Queued at 20 behind nobody, but the panic comes first.
            let alive = Arc::clone(&alive2);
            spawn("never", move || {
                let _alive = alive;
                unreachable!("never dispatched");
            });
            panic!("boom at 20");
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.run()))
            .expect_err("run must propagate the panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "simulation failed: boom at 20");
        assert_eq!(Arc::strong_count(&alive), 1, "an OS thread outlived run()");
        assert!(rt.inner.sched.lock().threads.iter().all(|t| t.os_handle.is_none()));
    }

    #[test]
    fn many_threads_park_cleanly() {
        let rt = SimRuntime::new(3);
        let count = Arc::new(AtomicU64::new(0));
        for _ in 0..64 {
            let count = Arc::clone(&count);
            rt.spawn("w", move || {
                work(17);
                count.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.run();
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }
}
