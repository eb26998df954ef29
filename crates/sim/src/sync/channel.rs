//! Virtual-time message channel (MPMC).
//!
//! Models the shared-memory ring buffers used for delegation in
//! OdinFS/ArckFS (paper §4.5): producers block when the ring is full,
//! consumers block when it is empty, and each hop charges
//! [`crate::cost::RING_HOP_NS`] to the receiving side's wake-up time.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::plock::Mutex as PlMutex;

use crate::cost;
use crate::race::VectorClock;
use crate::runtime::{clock_acquire, clock_release_snapshot, with_inner, Inner};
use crate::time::Nanos;

/// Outcome of [`SimChannel::recv_deadline`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvDeadline<T> {
    /// A value arrived before the deadline.
    Ok(T),
    /// The channel was closed and drained.
    Closed,
    /// The virtual deadline passed with no value available.
    TimedOut,
}

struct Chan<T> {
    /// Each message carries the sender's vector clock at send time, so a
    /// receive is an acquire of everything the sender did first — this is
    /// what orders a delegated write against the client that requested it.
    /// The clock is empty (no allocation) when race detection is off.
    q: VecDeque<(T, VectorClock)>,
    cap: usize,
    send_waiters: VecDeque<usize>,
    recv_waiters: VecDeque<usize>,
    closed: bool,
}

impl<T> Chan<T> {
    /// Whether a send would block.
    fn full(&self) -> bool {
        self.cap != 0 && self.q.len() >= self.cap
    }

    /// Enqueues `v` under the sender's clock and wakes the longest-waiting
    /// receiver one ring hop later.
    fn push(&mut self, inner: &Arc<Inner>, me: usize, v: T) {
        self.q.push_back((v, clock_release_snapshot()));
        if let Some(r) = self.recv_waiters.pop_front() {
            inner.wake_from(me, r, cost::RING_HOP_NS);
        }
    }

    /// Dequeues the oldest item, wakes the longest-waiting sender one ring
    /// hop later, and acquires the item's send-time clock.
    fn pop(&mut self, inner: &Arc<Inner>, me: usize) -> Option<T> {
        let (item, clock) = self.q.pop_front()?;
        if let Some(s) = self.send_waiters.pop_front() {
            inner.wake_from(me, s, cost::RING_HOP_NS);
        }
        clock_acquire(&clock);
        Some(item)
    }
}

/// A multi-producer multi-consumer queue on the virtual clock.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use trio_sim::{SimRuntime, sync::SimChannel};
///
/// let rt = SimRuntime::new(0);
/// let ch = Arc::new(SimChannel::bounded(8));
/// let tx = Arc::clone(&ch);
/// rt.spawn("producer", move || {
///     for i in 0..4u32 {
///         tx.send(i).unwrap();
///     }
///     tx.close();
/// });
/// let rx = Arc::clone(&ch);
/// rt.spawn("consumer", move || {
///     let mut sum = 0;
///     while let Some(v) = rx.recv() {
///         sum += v;
///     }
///     assert_eq!(sum, 6);
/// });
/// rt.run();
/// ```
pub struct SimChannel<T> {
    state: PlMutex<Chan<T>>,
}

impl<T> SimChannel<T> {
    /// Creates an unbounded channel.
    pub fn unbounded() -> Self {
        Self::with_capacity(0)
    }

    /// Creates a bounded channel; `send` blocks while `cap` items queue.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero (rendezvous channels are not modelled).
    pub fn bounded(cap: usize) -> Self {
        assert!(cap > 0, "use unbounded() for an unbounded channel");
        Self::with_capacity(cap)
    }

    fn with_capacity(cap: usize) -> Self {
        SimChannel {
            state: PlMutex::new(Chan {
                q: VecDeque::new(),
                cap,
                send_waiters: VecDeque::new(),
                recv_waiters: VecDeque::new(),
                closed: false,
            }),
        }
    }

    /// Sends a value, blocking (in virtual time) while the channel is full.
    /// Returns the value back if the channel was closed.
    pub fn send(&self, v: T) -> Result<(), T> {
        enum Outcome {
            Sent,
            Closed,
            Retry,
        }
        let mut slot = Some(v);
        loop {
            let outcome = with_inner(|inner, me| {
                let mut st = self.state.lock();
                if st.closed {
                    return Outcome::Closed;
                }
                if !st.full() {
                    st.push(inner, me, slot.take().expect("send value present"));
                    return Outcome::Sent;
                }
                st.send_waiters.push_back(me);
                drop(st);
                inner.block_current(me);
                Outcome::Retry
            });
            match outcome {
                Outcome::Closed => return Err(slot.take().expect("send value present")),
                Outcome::Sent => return Ok(()),
                Outcome::Retry => continue,
            }
        }
    }

    /// Non-blocking send: enqueues if the ring has room, otherwise hands
    /// the value back as `Err` without blocking. Lets producers observe
    /// backpressure (a full delegation ring) instead of silently stalling.
    /// Closed channels also return `Err`.
    pub fn try_send(&self, v: T) -> Result<(), T> {
        with_inner(|inner, me| {
            let mut st = self.state.lock();
            if st.closed || st.full() {
                return Err(v);
            }
            st.push(inner, me, v);
            Ok(())
        })
    }

    /// Receives a value, blocking (in virtual time) while the channel is
    /// empty. Returns `None` once the channel is closed and drained.
    pub fn recv(&self) -> Option<T> {
        loop {
            let got = with_inner(|inner, me| {
                let mut st = self.state.lock();
                if let Some(item) = st.pop(inner, me) {
                    return Some(Some(item));
                }
                if st.closed {
                    return Some(None);
                }
                st.recv_waiters.push_back(me);
                drop(st);
                inner.block_current(me);
                None
            });
            if let Some(res) = got {
                return res;
            }
        }
    }

    /// Receives a value, giving up once the virtual clock reaches
    /// `deadline`. This is the primitive behind the delegation client's
    /// bounded waits: a stalled or dead server thread can no longer hang
    /// its clients.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use trio_sim::{now, SimRuntime, sync::{RecvDeadline, SimChannel}};
    ///
    /// let rt = SimRuntime::new(0);
    /// let ch = Arc::new(SimChannel::<u8>::unbounded());
    /// rt.spawn("c", move || {
    ///     assert_eq!(ch.recv_deadline(5_000), RecvDeadline::TimedOut);
    ///     assert_eq!(now(), 5_000);
    /// });
    /// rt.run();
    /// ```
    pub fn recv_deadline(&self, deadline: Nanos) -> RecvDeadline<T> {
        loop {
            let got = with_inner(|inner, me| {
                let mut st = self.state.lock();
                // A timeout wake-up leaves our waiter registration behind;
                // clear it so a later sender never tries to wake a thread
                // that already gave up.
                st.recv_waiters.retain(|&w| w != me);
                if let Some(item) = st.pop(inner, me) {
                    return Some(RecvDeadline::Ok(item));
                }
                if st.closed {
                    return Some(RecvDeadline::Closed);
                }
                if inner.now_of(me) >= deadline {
                    return Some(RecvDeadline::TimedOut);
                }
                st.recv_waiters.push_back(me);
                drop(st);
                inner.block_current_timed(me, deadline);
                None
            });
            if let Some(res) = got {
                return res;
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        with_inner(|inner, me| self.state.lock().pop(inner, me))
    }

    /// Closes the channel: pending items stay receivable, new sends fail,
    /// blocked threads wake.
    pub fn close(&self) {
        with_inner(|inner, me| {
            let mut st = self.state.lock();
            st.closed = true;
            let mut wake: Vec<usize> = st.send_waiters.drain(..).collect();
            wake.extend(st.recv_waiters.drain(..));
            drop(st);
            for tid in wake {
                inner.wake_from(me, tid, cost::CONDVAR_WAKE_NS);
            }
        });
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.state.lock().q.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{work, SimRuntime};
    use std::sync::Arc;

    #[test]
    fn fifo_delivery() {
        let rt = SimRuntime::new(0);
        let ch = Arc::new(SimChannel::unbounded());
        let tx = Arc::clone(&ch);
        rt.spawn("p", move || {
            for i in 0..10u32 {
                tx.send(i).unwrap();
                work(5);
            }
            tx.close();
        });
        let rx = Arc::clone(&ch);
        let out = Arc::new(PlMutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        rt.spawn("c", move || {
            while let Some(v) = rx.recv() {
                out2.lock().push(v);
            }
        });
        rt.run();
        assert_eq!(*out.lock(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_send_blocks_until_capacity() {
        let rt = SimRuntime::new(0);
        let ch = Arc::new(SimChannel::bounded(1));
        let tx = Arc::clone(&ch);
        rt.spawn("p", move || {
            tx.send(1u32).unwrap();
            tx.send(2).unwrap(); // Blocks until the consumer drains one.
            assert!(crate::now() >= 1_000);
        });
        let rx = Arc::clone(&ch);
        rt.spawn("c", move || {
            work(1_000);
            assert_eq!(rx.recv(), Some(1));
            assert_eq!(rx.recv(), Some(2));
        });
        rt.run();
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let rt = SimRuntime::new(0);
        let ch = Arc::new(SimChannel::<u8>::unbounded());
        let rx = Arc::clone(&ch);
        rt.spawn("c", move || {
            assert_eq!(rx.recv(), None);
        });
        let tx = Arc::clone(&ch);
        rt.spawn("p", move || {
            work(100);
            tx.close();
        });
        rt.run();
    }

    #[test]
    fn send_after_close_fails() {
        let rt = SimRuntime::new(0);
        let ch = Arc::new(SimChannel::<u8>::unbounded());
        let c = Arc::clone(&ch);
        rt.spawn("t", move || {
            c.close();
            assert_eq!(c.send(9), Err(9));
        });
        rt.run();
    }

    #[test]
    fn try_send_reports_full_ring() {
        let rt = SimRuntime::new(0);
        let ch = Arc::new(SimChannel::bounded(2));
        let c = Arc::clone(&ch);
        rt.spawn("t", move || {
            assert_eq!(c.try_send(1u32), Ok(()));
            assert_eq!(c.try_send(2), Ok(()));
            assert_eq!(c.try_send(3), Err(3)); // full, no block
            assert_eq!(c.recv(), Some(1));
            assert_eq!(c.try_send(3), Ok(()));
            c.close();
            assert_eq!(c.try_send(4), Err(4)); // closed
        });
        rt.run();
    }

    #[test]
    fn try_recv_does_not_block() {
        let rt = SimRuntime::new(0);
        let ch = Arc::new(SimChannel::<u8>::unbounded());
        let c = Arc::clone(&ch);
        rt.spawn("t", move || {
            assert_eq!(c.try_recv(), None);
            c.send(3).unwrap();
            assert_eq!(c.try_recv(), Some(3));
        });
        rt.run();
    }
}
