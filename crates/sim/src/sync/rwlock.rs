//! Virtual-time readers–writer lock: the one virtual lock of this crate.
//! [`crate::sync::SimMutex`] is its exclusive face.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

use crate::plock::{self as parking_lot, Mutex as PlMutex, RwLock as PlRwLock};

use crate::cost;
use crate::race::VectorClock;
use crate::runtime::{clock_acquire, clock_release, with_inner, ReadFreeScope};
use crate::time::Nanos;

struct VState {
    writer: Option<usize>,
    readers: u32,
    /// FIFO of `(tid, is_writer)` — fair queueing, with consecutive readers
    /// admitted as a batch.
    waiters: VecDeque<(usize, bool)>,
    /// Race-detection clock. One clock for the whole lock: releasing
    /// readers also join it, which adds a (harmless but imprecise) false
    /// ordering edge between sibling readers — see `crate::race` docs.
    clock: VectorClock,
}

/// A readers–writer lock accounted on the virtual clock.
///
/// Readers overlap in virtual time; writers are exclusive. Queueing is fair
/// FIFO (a waiting writer blocks later readers), so neither side starves —
/// mirroring the BRAVO-style locks ArckFS builds on (paper §4.5).
///
/// Every acquisition, shared or exclusive, blocking or not, goes through
/// one acquire path and every release through one hand-off (`admit`), with
/// one race clock per lock. A lock only ever taken exclusively is a FIFO
/// mutex: free implies no waiters, and a release hands ownership straight
/// to the head of the queue.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use trio_sim::{SimRuntime, sync::SimRwLock, work};
///
/// let rt = SimRuntime::new(0);
/// let l = Arc::new(SimRwLock::new(7u32));
/// for _ in 0..4 {
///     let l = Arc::clone(&l);
///     rt.spawn("r", move || {
///         let g = l.read();
///         work(100);
///         assert_eq!(*g, 7);
///     });
/// }
/// // Four overlapping 100ns readers finish in ~100ns, not 400.
/// assert!(rt.run() < 200);
/// ```
pub struct SimRwLock<T> {
    v: PlMutex<VState>,
    data: PlRwLock<T>,
    acquire_ns: Nanos,
    handoff_ns: Nanos,
}

impl<T> SimRwLock<T> {
    /// Creates a lock with the default cost model.
    pub fn new(data: T) -> Self {
        Self::with_costs(data, cost::LOCK_UNCONTENDED_NS, cost::LOCK_HANDOFF_NS)
    }

    /// Creates a lock with explicit acquire/hand-off costs.
    pub fn with_costs(data: T, acquire_ns: Nanos, handoff_ns: Nanos) -> Self {
        SimRwLock {
            v: PlMutex::new(VState {
                writer: None,
                readers: 0,
                waiters: VecDeque::new(),
                clock: VectorClock::new(),
            }),
            data: PlRwLock::new(data),
            acquire_ns,
            handoff_ns,
        }
    }

    /// Acquires shared access on the virtual clock. Outside a sim-thread
    /// this degrades to the plain storage lock.
    pub fn read(&self) -> SimRwLockReadGuard<'_, T> {
        let virtually_held = crate::in_sim() && self.acquire(false, true);
        SimRwLockReadGuard { lock: self, virtually_held, real: Some(self.data.read()) }
    }

    /// Acquires exclusive access on the virtual clock, blocking the calling
    /// sim-thread while contended.
    ///
    /// Outside a sim-thread (setup/teardown code) this degrades to the
    /// plain storage lock, asserting the virtual lock is free.
    pub fn write(&self) -> SimRwLockWriteGuard<'_, T> {
        let virtually_held = crate::in_sim();
        if virtually_held {
            self.acquire(true, true);
        } else {
            assert!(self.is_free(), "SimRwLock virtually held during non-sim access");
        }
        SimRwLockWriteGuard { lock: self, virtually_held, real: Some(self.data.write()) }
    }

    /// Attempts exclusive access without blocking: `None` if any sim-thread
    /// virtually holds or awaits the lock. A successful acquisition charges
    /// the uncontended cost; a failed one charges nothing (the probe models
    /// a single atomic read). Background maintenance (the patrol scrubber)
    /// uses this to stay strictly off any contended path.
    pub fn try_write(&self) -> Option<SimRwLockWriteGuard<'_, T>> {
        let virtually_held = crate::in_sim();
        let acquired = if virtually_held { self.acquire(true, false) } else { self.is_free() };
        acquired.then(|| SimRwLockWriteGuard {
            lock: self,
            virtually_held,
            real: Some(self.data.write()),
        })
    }

    /// A validated read, not an acquisition (seqlock-style): runs `f` on
    /// the data unless a sim-thread holds the lock exclusively, in which
    /// case it is `None` and the caller takes the lock instead. It succeeds
    /// beside readers and beside a queued writer. It joins the lock's race
    /// clock, so what the last writer did before its release happens-before
    /// what the caller does next. It takes no place in the queue, charges
    /// nothing and is no sim point: a relaxed load is free in this model.
    ///
    /// The read is validated only because no other sim-thread runs between
    /// the check and the end of `f`, so a sim point inside `f` panics.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use trio_sim::{SimRuntime, sync::SimRwLock, work};
    ///
    /// let rt = SimRuntime::new(0);
    /// let l = Arc::new(SimRwLock::new(7u32));
    /// let l2 = Arc::clone(&l);
    /// rt.spawn("writer", move || {
    ///     let _g = l2.write();
    ///     work(100);
    /// });
    /// rt.spawn("reader", move || {
    ///     assert_eq!(l.read_free(|v| *v), None); // the writer sits inside
    ///     work(200);
    ///     assert_eq!(l.read_free(|v| *v), Some(7));
    /// });
    /// rt.run();
    /// ```
    pub fn read_free<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        {
            let v = self.v.lock();
            if v.writer.is_some() {
                return None;
            }
            clock_acquire(&v.clock);
        }
        // Past the writer check nobody holds the storage lock exclusively;
        // blocking on it here would stall the whole scheduler.
        let data = self.data.try_read().expect("read_free: storage lock held past the writer check");
        let _scope = ReadFreeScope::enter();
        Some(f(&data))
    }

    /// Shared access from outside the simulation (setup, teardown,
    /// assertions after [`crate::SimRuntime::run`]).
    ///
    /// # Panics
    ///
    /// Panics if a sim-thread still virtually holds the lock.
    pub fn read_uncontended(&self) -> parking_lot::RwLockReadGuard<'_, T> {
        assert!(self.is_free(), "SimRwLock still virtually held");
        self.data.read()
    }

    /// Exclusive access from outside the simulation.
    ///
    /// # Panics
    ///
    /// Panics if a sim-thread still virtually holds the lock.
    pub fn write_uncontended(&self) -> parking_lot::RwLockWriteGuard<'_, T> {
        assert!(self.is_free(), "SimRwLock still virtually held");
        self.data.write()
    }

    /// Shared access off the virtual clock, whoever holds the lock: no
    /// charge, no place in the queue, no race-clock edge — for debug
    /// cross-checks inside the simulation, which must leave the timeline
    /// as a release build has it. Blocks the host thread while a sim-thread
    /// holds a write guard, so only for a lock whose write guards never
    /// live across a yield.
    pub fn peek(&self) -> parking_lot::RwLockReadGuard<'_, T> {
        self.data.read()
    }

    /// Mutable access through an exclusive reference (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    fn is_free(&self) -> bool {
        let v = self.v.lock();
        v.writer.is_none() && v.readers == 0
    }

    /// The one acquire path, shared or `exclusive`. A free lock with nobody
    /// queued is taken at the uncontended cost. Otherwise the caller joins
    /// the FIFO and sleeps until a release hands it the lock (`admit`), or,
    /// when it may not `wait`, gets `false` and pays nothing. Either way an
    /// acquisition joins the lock's race clock.
    fn acquire(&self, exclusive: bool, wait: bool) -> bool {
        with_inner(|inner, me| {
            let mut v = self.v.lock();
            if v.writer.is_none() && v.waiters.is_empty() && (!exclusive || v.readers == 0) {
                if exclusive {
                    v.writer = Some(me);
                } else {
                    v.readers += 1;
                }
                clock_acquire(&v.clock);
                drop(v);
                inner.charge(me, self.acquire_ns);
            } else if wait {
                v.waiters.push_back((me, exclusive));
                drop(v);
                // The releaser transfers ownership to us before waking us.
                inner.block_current(me);
                clock_acquire(&self.v.lock().clock);
            } else {
                return false;
            }
            true
        })
    }

    /// Admits the next batch of waiters: either one writer or a maximal run
    /// of consecutive readers. Called with the virtual state locked.
    fn admit(&self, v: &mut VState, me: usize) {
        with_inner(|inner, _| {
            match v.waiters.front() {
                Some(&(tid, true)) if v.readers == 0 && v.writer.is_none() => {
                    v.waiters.pop_front();
                    v.writer = Some(tid);
                    inner.wake_from(me, tid, self.handoff_ns);
                }
                Some(&(_, false)) if v.writer.is_none() => {
                    while let Some(&(tid, false)) = v.waiters.front() {
                        v.waiters.pop_front();
                        v.readers += 1;
                        inner.wake_from(me, tid, self.handoff_ns);
                    }
                }
                _ => {}
            }
        });
    }

    fn release_read(&self) {
        with_inner(|_, me| {
            let mut v = self.v.lock();
            debug_assert!(v.readers > 0);
            v.readers -= 1;
            clock_release(&mut v.clock);
            if v.readers == 0 {
                self.admit(&mut v, me);
            }
        });
    }

    fn release_write(&self) {
        with_inner(|_, me| {
            let mut v = self.v.lock();
            debug_assert_eq!(v.writer, Some(me));
            v.writer = None;
            clock_release(&mut v.clock);
            self.admit(&mut v, me);
        });
    }
}

/// Shared guard for [`SimRwLock`].
pub struct SimRwLockReadGuard<'a, T> {
    lock: &'a SimRwLock<T>,
    virtually_held: bool,
    real: Option<parking_lot::RwLockReadGuard<'a, T>>,
}

impl<T> Deref for SimRwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard alive")
    }
}

impl<T> Drop for SimRwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        self.real = None;
        if self.virtually_held {
            self.lock.release_read();
        }
    }
}

/// Exclusive guard for [`SimRwLock`].
pub struct SimRwLockWriteGuard<'a, T> {
    lock: &'a SimRwLock<T>,
    virtually_held: bool,
    real: Option<parking_lot::RwLockWriteGuard<'a, T>>,
}

impl<T> Deref for SimRwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.real.as_ref().expect("guard alive")
    }
}

impl<T> DerefMut for SimRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.real.as_mut().expect("guard alive")
    }
}

impl<T> Drop for SimRwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        self.real = None;
        if self.virtually_held {
            self.lock.release_write();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{work, SimRuntime};
    use std::sync::Arc;

    #[test]
    fn readers_overlap_writers_serialize() {
        // 4 readers of 100ns overlap; then 2 writers of 100ns serialize.
        let rt = SimRuntime::new(0);
        let l = Arc::new(SimRwLock::with_costs(0u64, 0, 0));
        for _ in 0..4 {
            let l = Arc::clone(&l);
            rt.spawn("r", move || {
                let _g = l.read();
                work(100);
            });
        }
        for _ in 0..2 {
            let l = Arc::clone(&l);
            rt.spawn("w", move || {
                work(150); // Arrive after the readers started.
                let mut g = l.write();
                work(100);
                *g += 1;
            });
        }
        let total = rt.run();
        // Readers end at 100; writer1 ends ~200, writer2 ends ~300.
        assert!((300..400).contains(&total), "total={total}");
        assert_eq!(*l.read_uncontended(), 2);
    }

    #[test]
    fn waiting_writer_blocks_later_readers() {
        let rt = SimRuntime::new(0);
        let l = Arc::new(SimRwLock::with_costs(Vec::new(), 0, 0));
        {
            let l = Arc::clone(&l);
            rt.spawn("r0", move || {
                let _g = l.read();
                work(1_000);
            });
        }
        {
            let l = Arc::clone(&l);
            rt.spawn("w", move || {
                work(10);
                let mut g = l.write();
                g.push("w");
            });
        }
        {
            let l = Arc::clone(&l);
            rt.spawn("r1", move || {
                work(20); // Arrives while the writer waits; must queue behind it.
                let g = l.read();
                assert_eq!(g.as_slice(), ["w"]);
            });
        }
        rt.run();
    }

    #[test]
    fn write_lock_gives_mutable_access() {
        let rt = SimRuntime::new(0);
        let l = Arc::new(SimRwLock::new(vec![1, 2]));
        let l2 = Arc::clone(&l);
        rt.spawn("w", move || {
            l2.write().push(3);
        });
        rt.run();
        assert_eq!(*l.read_uncontended(), vec![1, 2, 3]);
    }

    #[test]
    fn try_write_fails_under_a_reader_and_succeeds_after() {
        let rt = SimRuntime::new(0);
        let l = Arc::new(SimRwLock::with_costs(0u32, 0, 0));
        let l2 = Arc::clone(&l);
        rt.spawn("reader", move || {
            let _g = l2.read();
            work(1_000);
        });
        let l3 = Arc::clone(&l);
        rt.spawn("prober", move || {
            work(100); // Arrive while the reader sits inside.
            assert!(l3.try_write().is_none());
            assert_eq!(crate::now(), 100, "a failed probe charges nothing");
            work(2_000); // Past the reader's release.
            *l3.try_write().expect("free lock must try_write") = 7;
        });
        rt.run();
        assert_eq!(*l.read_uncontended(), 7);
    }

    #[test]
    fn read_free_is_refused_while_a_writer_holds_across_work() {
        let rt = SimRuntime::new(0);
        let l = Arc::new(SimRwLock::with_costs(0u32, 0, 0));
        let l2 = Arc::clone(&l);
        rt.spawn("writer", move || {
            let mut g = l2.write();
            work(1_000);
            *g = 1;
        });
        let l3 = Arc::clone(&l);
        rt.spawn("reader", move || {
            work(100); // Arrive while the writer sits inside.
            assert_eq!(l3.read_free(|v| *v), None);
            work(2_000); // Past the writer's release.
            assert_eq!(l3.read_free(|v| *v), Some(1));
        });
        rt.run();
    }

    #[test]
    fn read_free_succeeds_beside_readers_and_a_queued_writer() {
        let rt = SimRuntime::new(0);
        let l = Arc::new(SimRwLock::with_costs(5u32, 0, 0));
        let l2 = Arc::clone(&l);
        rt.spawn("reader", move || {
            let _g = l2.read();
            work(1_000);
        });
        let l3 = Arc::clone(&l);
        rt.spawn("writer", move || {
            work(10); // Queues behind the reader.
            *l3.write() = 6;
        });
        let l4 = Arc::clone(&l);
        rt.spawn("free", move || {
            work(100);
            // A reader inside and a writer queued: the data is still the
            // reader's, and `read` would have queued behind the writer.
            assert_eq!(l4.read_free(|v| *v), Some(5));
        });
        rt.run();
        assert_eq!(*l.read_uncontended(), 6);
    }

    #[test]
    fn read_free_charges_nothing_and_is_no_sim_point() {
        let run = |reads: usize| {
            let rt = SimRuntime::new(0);
            let l = Arc::new(SimRwLock::new(3u32));
            for _ in 0..2 {
                let l = Arc::clone(&l);
                rt.spawn("t", move || {
                    work(10);
                    let t0 = crate::now();
                    for _ in 0..reads {
                        assert_eq!(l.read_free(|v| *v), Some(3));
                    }
                    assert_eq!(crate::now(), t0);
                    work(10);
                });
            }
            (rt.run(), rt.events())
        };
        assert_eq!(run(100), run(0));
    }

    #[test]
    #[should_panic(expected = "sim point inside SimRwLock::read_free")]
    fn a_sim_point_inside_read_free_panics() {
        let rt = SimRuntime::new(0);
        let l = Arc::new(SimRwLock::new(0u8));
        rt.spawn("t", move || {
            l.read_free(|_| work(1));
        });
        rt.run();
    }

    #[test]
    #[should_panic(expected = "virtually held during non-sim access")]
    fn write_outside_sim_on_a_virtually_held_lock_panics() {
        let rt = SimRuntime::new(0);
        let l = Arc::new(SimRwLock::new(0u8));
        let l2 = Arc::clone(&l);
        // The guard is leaked, so the lock stays virtually held after the run.
        rt.spawn("leaker", move || std::mem::forget(l2.write()));
        rt.run();
        let _g = l.write();
    }
}
