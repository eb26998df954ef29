//! Deterministic cross-actor race detection via vector clocks.
//!
//! The Trio threat model lets several untrusted LibFSes (and the kernel
//! walk) touch the same NVM pages directly — so "two actors race on a
//! cache line" is not a theoretical concern, it is the bug class the §4.4
//! ordering discipline exists to prevent. This module detects it
//! *deterministically*: the sim scheduler serializes all execution, so a
//! race here is not a lucky interleaving but a proven absence of a
//! happens-before edge between two accesses — on every run with the same
//! seed.
//!
//! # How the clocks flow
//!
//! Each sim-thread carries a vector clock (maintained by the runtime when
//! [`crate::SimRuntime::enable_race_detection`] is on). Edges:
//!
//! * **spawn** — release: the child inherits the parent's clock;
//! * **join** — acquire: the joiner inherits the target's final clock;
//! * **`sync` primitives** — every [`crate::sync::SimMutex`] /
//!   [`crate::sync::SimRwLock`] / [`crate::sync::SimCondvar`] /
//!   [`crate::sync::SimBarrier`] carries a clock that unlockers release
//!   into and lockers acquire from;
//! * **channels** — each message carries the sender's clock at send time,
//!   acquired by the receiver ([`crate::sync::SimChannel`]), which covers
//!   the delegation rings.
//!
//! A [`RaceDetector`] installed on the NVM device is then told about every
//! access, cache line by cache line. Two accesses to the same line by
//! *different actors*, at least one a write, with neither clock covering
//! the other, abort the run with both access sites (thread name, actor,
//! virtual time) and the seed to replay. Same-actor conflicts are not
//! races here: one LibFS racing itself is the FS's own locking bug and is
//! left to the ordinary (also deterministic) assertions.
//!
//! Known imprecision, chosen deliberately: `SimRwLock` keeps a single
//! clock, so two *readers* of the lock also appear ordered (a false
//! happens-before edge that can mask a racy pair each reader then touches
//! without writing). FastTrack-style read-share tracking would fix it at
//! complexity we don't need — the delegation and sharing protocols under
//! test synchronize via mutexes, channels, and barriers.

use crate::DetHashMap;

use crate::plock::Mutex as PlMutex;
use crate::runtime::{
    clock_covers, clock_epoch, current_seed, now, race_clocks_on, thread_name,
};
use crate::time::Nanos;

/// A happens-before timestamp: one logical-clock component per sim-thread.
///
/// Embedded in sync primitives and messages; the runtime keeps the
/// per-thread clocks. The default (all zeros) covers no access, because
/// thread epochs start at 1.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock(pub(crate) Vec<u64>);

impl VectorClock {
    /// An empty clock (covers nothing).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Pointwise max of `a` and `b`, into `a`.
pub(crate) fn vc_join(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (x, &y) in a.iter_mut().zip(b) {
        if y > *x {
            *x = y;
        }
    }
}

/// One recorded access to a cache line.
#[derive(Clone, Copy, Debug)]
struct Access {
    tid: usize,
    epoch: u64,
    actor: u64,
    at: Nanos,
    is_write: bool,
}

impl Access {
    fn site(&self) -> String {
        format!(
            "{} by actor {} on thread '{}' (tid {}) at {}ns",
            if self.is_write { "store" } else { "load" },
            self.actor,
            thread_name(self.tid),
            self.tid,
            self.at
        )
    }
}

/// Per-line access history: the last write plus all reads since it.
#[derive(Default)]
struct LineHist {
    write: Option<Access>,
    reads: Vec<Access>,
}

/// Cross-actor data-race detector over NVM cache lines.
///
/// Install on the device with `NvmDevice::set_race_detector` and turn on
/// clock maintenance with [`crate::SimRuntime::enable_race_detection`];
/// without the latter every access check is one boolean load. The device
/// reports accesses under its page-slot lock, so per line the detector
/// sees a deterministic order. A detected race panics — which the runtime
/// turns into a deterministic, replayable simulation failure.
#[derive(Default)]
pub struct RaceDetector {
    lines: PlMutex<DetHashMap<(u64, u16), LineHist>>,
}

impl RaceDetector {
    /// Creates an empty detector. Use one per `SimRuntime`: thread ids are
    /// per-runtime, so clocks from different runtimes are incomparable.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to `(page, line)` and aborts on a race. No-op for
    /// non-sim threads and for runtimes without race detection enabled.
    pub fn on_access(&self, page: u64, line: u16, is_write: bool, actor: u64) {
        if !race_clocks_on() {
            return;
        }
        let (tid, epoch) = clock_epoch();
        let me = Access { tid, epoch, actor, at: now(), is_write };
        let mut lines = self.lines.lock();
        let hist = lines.entry((page, line)).or_default();
        let conflicts =
            |prev: &Access| prev.actor != actor && !clock_covers(prev.tid, prev.epoch);
        if let Some(w) = &hist.write {
            if conflicts(w) {
                race_panic(page, line, *w, me);
            }
        }
        if is_write {
            for r in &hist.reads {
                if conflicts(r) {
                    race_panic(page, line, *r, me);
                }
            }
            hist.reads.clear();
            hist.write = Some(me);
        } else {
            // One remembered read per thread: a newer read by the same
            // thread covers the older one for any future conflict check.
            hist.reads.retain(|r| r.tid != tid);
            hist.reads.push(me);
        }
    }

    /// Number of cache lines with recorded history (test introspection).
    pub fn lines_tracked(&self) -> usize {
        self.lines.lock().len()
    }
}

fn race_panic(page: u64, line: u16, a: Access, b: Access) -> ! {
    panic!(
        "data race on NVM page {} cache line {}: {} is unsynchronized with {}; \
         replay with seed {:#x}",
        page,
        line,
        a.site(),
        b.site(),
        current_seed()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{clock_acquire, clock_release, clock_release_snapshot};
    use crate::{SimRuntime, work};
    use std::sync::Arc;

    #[test]
    fn vc_join_is_pointwise_max() {
        let mut a = vec![1, 5];
        vc_join(&mut a, &[3, 2, 7]);
        assert_eq!(a, vec![3, 5, 7]);
    }

    #[test]
    fn disabled_runtime_records_nothing() {
        let rt = SimRuntime::new(1);
        let d = Arc::new(RaceDetector::new());
        let d2 = Arc::clone(&d);
        rt.spawn("t", move || {
            d2.on_access(1, 0, true, 1);
        });
        rt.run();
        assert_eq!(d.lines_tracked(), 0);
    }

    #[test]
    fn unsynchronized_cross_actor_writes_race() {
        let rt = SimRuntime::new(1);
        rt.enable_race_detection();
        let d = Arc::new(RaceDetector::new());
        for actor in [1u64, 2u64] {
            let d = Arc::clone(&d);
            rt.spawn("libfs", move || {
                work(10);
                d.on_access(7, 3, true, actor);
            });
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.run()))
            .expect_err("race must abort the run");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("data race on NVM page 7 cache line 3"), "{msg}");
    }

    #[test]
    fn same_actor_concurrent_writes_are_exempt() {
        // Two threads of ONE LibFS: the detector only polices cross-actor
        // isolation; intra-actor ordering is the FS's own business.
        let rt = SimRuntime::new(1);
        rt.enable_race_detection();
        let d = Arc::new(RaceDetector::new());
        for _ in 0..2 {
            let d = Arc::clone(&d);
            rt.spawn("t", move || d.on_access(7, 3, true, 1));
        }
        rt.run();
    }

    #[test]
    fn release_acquire_orders_cross_actor_accesses() {
        // Actor 1 writes, releases a clock; actor 2 acquires it, writes.
        // The explicit edge makes the pair ordered: no race.
        let rt = SimRuntime::new(1);
        rt.enable_race_detection();
        let d = Arc::new(RaceDetector::new());
        let slot = Arc::new(PlMutex::new(None::<VectorClock>));
        {
            let (d, slot) = (Arc::clone(&d), Arc::clone(&slot));
            rt.spawn("a1", move || {
                d.on_access(9, 0, true, 1);
                *slot.lock() = Some(clock_release_snapshot());
            });
        }
        {
            let (d, slot) = (Arc::clone(&d), Arc::clone(&slot));
            rt.spawn("a2", move || {
                work(100); // Runs after a1 in virtual time.
                let c = slot.lock().take().expect("a1 released first");
                clock_acquire(&c);
                d.on_access(9, 0, true, 2);
            });
        }
        rt.run();
    }

    #[test]
    fn spawn_edge_orders_parent_then_child() {
        let rt = SimRuntime::new(1);
        rt.enable_race_detection();
        let d = Arc::new(RaceDetector::new());
        let d2 = Arc::clone(&d);
        rt.spawn("parent", move || {
            d2.on_access(4, 1, true, 1);
            let d3 = Arc::clone(&d2);
            crate::spawn("child", move || {
                d3.on_access(4, 1, true, 2); // Ordered by the spawn edge.
            });
        });
        rt.run();
    }

    #[test]
    fn join_edge_orders_child_then_parent() {
        let rt = SimRuntime::new(1);
        rt.enable_race_detection();
        let d = Arc::new(RaceDetector::new());
        let d2 = Arc::clone(&d);
        rt.spawn("parent", move || {
            let d3 = Arc::clone(&d2);
            let h = crate::spawn("child", move || {
                work(50);
                d3.on_access(5, 2, true, 2);
            });
            h.join();
            d2.on_access(5, 2, true, 1); // Ordered by the join edge.
        });
        rt.run();
    }

    #[test]
    fn read_read_is_never_a_race() {
        let rt = SimRuntime::new(1);
        rt.enable_race_detection();
        let d = Arc::new(RaceDetector::new());
        for actor in [1u64, 2u64] {
            let d = Arc::clone(&d);
            rt.spawn("r", move || d.on_access(2, 0, false, actor));
        }
        rt.run();
    }

    #[test]
    fn unsynchronized_read_write_races() {
        let rt = SimRuntime::new(1);
        rt.enable_race_detection();
        let d = Arc::new(RaceDetector::new());
        {
            let d = Arc::clone(&d);
            rt.spawn("reader", move || d.on_access(2, 0, false, 1));
        }
        {
            let d = Arc::clone(&d);
            rt.spawn("writer", move || {
                work(10);
                d.on_access(2, 0, true, 2);
            });
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.run()))
            .expect_err("read/write race must abort");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("load"), "{msg}");
        assert!(msg.contains("store"), "{msg}");
    }

    #[test]
    fn release_bumps_epoch_so_later_accesses_still_race() {
        // a1 writes, releases, then writes AGAIN (after the release). a2
        // acquires the released clock: the first write is covered, the
        // second is not — must still race.
        let rt = SimRuntime::new(1);
        rt.enable_race_detection();
        let d = Arc::new(RaceDetector::new());
        let slot = Arc::new(PlMutex::new(None::<VectorClock>));
        {
            let (d, slot) = (Arc::clone(&d), Arc::clone(&slot));
            rt.spawn("a1", move || {
                d.on_access(3, 0, true, 1);
                *slot.lock() = Some(clock_release_snapshot());
                d.on_access(3, 0, true, 1); // After the release.
            });
        }
        {
            let (d, slot) = (Arc::clone(&d), Arc::clone(&slot));
            rt.spawn("a2", move || {
                work(100);
                let c = slot.lock().take().unwrap();
                clock_acquire(&c);
                d.on_access(3, 0, true, 2);
            });
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.run()))
            .expect_err("post-release write must race");
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("data race"), "{msg}");
    }

    #[test]
    fn clock_release_into_existing_clock_accumulates() {
        let rt = SimRuntime::new(1);
        rt.enable_race_detection();
        let acc = Arc::new(PlMutex::new(VectorClock::new()));
        let a2 = Arc::clone(&acc);
        rt.spawn("t", move || {
            let mut c = a2.lock();
            clock_release(&mut c);
            let first = c.clone();
            clock_release(&mut c);
            assert_ne!(*c, first, "epoch must advance between releases");
        });
        rt.run();
    }
}
