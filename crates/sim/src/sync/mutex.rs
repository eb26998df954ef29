//! Virtual-time mutex: the exclusive face of [`SimRwLock`].

use std::ops::{Deref, DerefMut};

use crate::plock as parking_lot;
use crate::sync::{SimRwLock, SimRwLockWriteGuard};
use crate::time::Nanos;

/// A mutual-exclusion lock whose contention is accounted on the virtual
/// clock.
///
/// An uncontended acquisition charges a small fixed cost; a contended one
/// blocks the sim-thread until the holder releases, resuming no earlier than
/// the release timestamp plus a hand-off cost. Waiters are served FIFO,
/// which makes convoys deterministic.
///
/// It is a [`SimRwLock`] that only ever takes the exclusive half, so the
/// two share one waiter queue, one hand-off and one race clock per lock.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use trio_sim::{SimRuntime, sync::SimMutex, work};
///
/// let rt = SimRuntime::new(0);
/// let m = Arc::new(SimMutex::new(Vec::new()));
/// for i in 0..3u32 {
///     let m = Arc::clone(&m);
///     rt.spawn("t", move || {
///         let mut g = m.lock();
///         work(100); // hold the lock for 100 virtual ns
///         g.push(i);
///     });
/// }
/// rt.run();
/// assert_eq!(m.lock_uncontended().len(), 3);
/// ```
pub struct SimMutex<T>(SimRwLock<T>);

impl<T> SimMutex<T> {
    /// Creates a mutex with the default cost model
    /// ([`crate::cost::LOCK_UNCONTENDED_NS`], [`crate::cost::LOCK_HANDOFF_NS`]).
    pub fn new(data: T) -> Self {
        SimMutex(SimRwLock::new(data))
    }

    /// Creates a mutex with explicit acquire/hand-off costs — e.g. a cheap
    /// spinlock (KVFS, paper §5) versus a heavier queued lock.
    pub fn with_costs(data: T, acquire_ns: Nanos, handoff_ns: Nanos) -> Self {
        SimMutex(SimRwLock::with_costs(data, acquire_ns, handoff_ns))
    }

    /// Acquires the lock on the virtual clock ([`SimRwLock::write`]).
    pub fn lock(&self) -> SimMutexGuard<'_, T> {
        SimMutexGuard { mutex: self, guard: self.0.write() }
    }

    /// Attempts to acquire the lock without blocking
    /// ([`SimRwLock::try_write`]).
    pub fn try_lock(&self) -> Option<SimMutexGuard<'_, T>> {
        self.0.try_write().map(|guard| SimMutexGuard { mutex: self, guard })
    }

    /// Reads the payload without taking the lock, unless a sim-thread
    /// holds it ([`SimRwLock::read_free`]).
    pub fn read_free<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.0.read_free(f)
    }

    /// Accesses the payload from outside the simulation
    /// ([`SimRwLock::write_uncontended`]).
    pub fn lock_uncontended(&self) -> parking_lot::RwLockWriteGuard<'_, T> {
        self.0.write_uncontended()
    }

    /// Mutable access through an exclusive reference (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}

/// RAII guard for [`SimMutex`]; releasing it performs the virtual unlock.
pub struct SimMutexGuard<'a, T> {
    mutex: &'a SimMutex<T>,
    guard: SimRwLockWriteGuard<'a, T>,
}

impl<'a, T> SimMutexGuard<'a, T> {
    /// The mutex this guard holds, for [`crate::sync::SimCondvar::wait`]'s
    /// re-lock.
    pub(super) fn parent(&self) -> &'a SimMutex<T> {
        self.mutex
    }
}

impl<T> Deref for SimMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for SimMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plock::Mutex as PlMutex;
    use crate::{now, work, SimRuntime};
    use std::sync::Arc;

    #[test]
    fn serializes_critical_sections_in_virtual_time() {
        let rt = SimRuntime::new(0);
        let m = Arc::new(SimMutex::with_costs((), 0, 0));
        let ends = Arc::new(PlMutex::new(Vec::new()));
        for _ in 0..3 {
            let m = Arc::clone(&m);
            let ends = Arc::clone(&ends);
            rt.spawn("t", move || {
                let _g = m.lock();
                work(100);
                ends.lock().push(now());
            });
        }
        let total = rt.run();
        // Three 100ns critical sections must serialize: end times 100/200/300.
        assert_eq!(*ends.lock(), vec![100, 200, 300]);
        assert_eq!(total, 300);
    }

    #[test]
    fn fifo_ordering_under_contention() {
        let rt = SimRuntime::new(0);
        let m = Arc::new(SimMutex::with_costs(Vec::new(), 0, 0));
        for i in 0..5u32 {
            let m = Arc::clone(&m);
            rt.spawn("t", move || {
                work(10 * (i as u64 + 1)); // Arrive in order 0..5.
                let mut g = m.lock();
                work(1_000);
                g.push(i);
            });
        }
        rt.run();
        assert_eq!(*m.lock_uncontended(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn uncontended_cost_is_charged() {
        let rt = SimRuntime::new(0);
        let m = Arc::new(SimMutex::with_costs((), 70, 0));
        let m2 = Arc::clone(&m);
        rt.spawn("t", move || {
            let _g = m2.lock();
            assert_eq!(now(), 70);
        });
        rt.run();
    }

    #[test]
    fn lock_outside_sim_degrades_to_plain_lock() {
        let m = SimMutex::new(0u8);
        *m.lock() = 9;
        assert_eq!(*m.lock(), 9);
    }

    #[test]
    fn try_lock_fails_while_held_and_succeeds_after() {
        let rt = SimRuntime::new(0);
        let m = Arc::new(SimMutex::with_costs(0u32, 0, 0));
        let m2 = Arc::clone(&m);
        rt.spawn("holder", move || {
            let _g = m2.lock();
            work(1_000);
        });
        let m3 = Arc::clone(&m);
        rt.spawn("prober", move || {
            work(100); // Arrive while the holder sits inside.
            assert!(m3.try_lock().is_none());
            work(2_000); // Past the holder's release.
            let mut g = m3.try_lock().expect("free lock must try_lock");
            *g = 7;
        });
        rt.run();
        assert_eq!(*m.lock_uncontended(), 7);
    }

    #[test]
    fn contended_schedule_is_pinned() {
        use crate::sync::{SimCondvar, SimRwLock};
        // Six sim-threads under a fixed script: three lockers convoy on the
        // mutex and read the rwlock between holds, a prober polls with
        // `try_lock`, a waiter sleeps on the condvar until the setter (who
        // also takes the rwlock exclusively) flips the flag.
        let rt = SimRuntime::new(7);
        let state = Arc::new((SimMutex::new((0u32, false)), SimCondvar::new()));
        let rw = Arc::new(SimRwLock::new(0u64));
        let s = Arc::clone(&state);
        rt.spawn("waiter", move || {
            let (m, cv) = &*s;
            let mut g = m.lock();
            while !g.1 {
                g = cv.wait(g);
            }
            g.0 += 1;
            work(50);
        });
        for i in 0..3u64 {
            let (s, rw) = (Arc::clone(&state), Arc::clone(&rw));
            rt.spawn("locker", move || {
                work(10 * i);
                for _ in 0..3 {
                    let mut g = s.0.lock();
                    work(100);
                    g.0 += 1;
                    drop(g);
                    let r = rw.read();
                    work(40 + *r);
                }
            });
        }
        let s = Arc::clone(&state);
        rt.spawn("prober", move || {
            work(25);
            loop {
                if let Some(mut g) = s.0.try_lock() {
                    g.0 += 1;
                    break;
                }
                work(60);
            }
        });
        let (s, rw) = (Arc::clone(&state), Arc::clone(&rw));
        rt.spawn("setter", move || {
            work(500);
            let mut w = rw.write();
            work(80);
            *w += 1;
            drop(w);
            s.0.lock().1 = true;
            s.1.notify_one();
        });
        // Pinned from the schedule of the separate mutex this one replaced:
        // the same charges, wake-ups and scheduler events, by construction.
        assert_eq!(rt.run(), 2_685);
        assert_eq!(rt.events(), 92);
        assert_eq!(state.0.lock_uncontended().0, 11);
    }
}
