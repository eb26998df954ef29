//! Deterministic discrete-event simulation (DES) runtime.
//!
//! The Trio reproduction needs to evaluate file systems at the paper's scale
//! (224 threads, 8 NUMA nodes) on whatever host it runs on — including a
//! single-core container. This crate provides a cooperative, virtual-time
//! threading runtime: *sim-threads* are real OS threads, but exactly one is
//! runnable at any instant and the scheduler hands control to whichever
//! thread has the smallest virtual timestamp. Code running on sim-threads is
//! ordinary imperative Rust operating on ordinary shared data structures; it
//! expresses the passage of time explicitly via [`work`] (charge CPU cost)
//! and implicitly via the virtual-time synchronization primitives in
//! [`sync`].
//!
//! Properties:
//!
//! * **Deterministic.** Scheduling order is a pure function of the program
//!   and the seed: ties in virtual time are broken FIFO by a global sequence
//!   number, and all randomness flows from [`rng`].
//! * **Contention-faithful.** [`sync::SimMutex`] and friends implement
//!   virtual-time waiting: a thread that blocks resumes no earlier than the
//!   moment its predecessor releases the resource, so lock convoys and
//!   collapse under contention appear in the virtual timeline exactly as
//!   they would on real hardware.
//! * **Safe.** Shared payloads are protected by real locks ([`plock`], a
//!   self-contained `parking_lot`-style layer over `std::sync`) in addition
//!   to the virtual protocol, so the crate contains no `unsafe`.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use trio_sim::{SimRuntime, sync::SimMutex, work};
//!
//! let rt = SimRuntime::new(42);
//! let counter = Arc::new(SimMutex::new(0u64));
//! for _ in 0..4 {
//!     let counter = Arc::clone(&counter);
//!     rt.spawn("worker", move || {
//!         work(1_000); // charge 1 us of CPU time
//!         *counter.lock() += 1;
//!     });
//! }
//! rt.run();
//! assert_eq!(*counter.lock_uncontended(), 4);
//! ```

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "trio_sim::sync and the runtime are built on std's locks and threads"
)]

pub mod cost;
pub mod metrics;
pub mod plock;
pub mod race;
pub mod rng;
pub mod runtime;
pub mod sync;
pub mod time;

pub use race::{RaceDetector, VectorClock};
pub use runtime::{
    current_tid,
    in_sim,
    now,
    now_or_zero,
    spawn,
    work,
    yield_now,
    JoinHandle,
    SimRuntime,
};
pub use time::{Nanos, MICROS, MILLIS, SECONDS};

/// The hasher of every map in shipped code: std's SipHash under fixed keys.
/// `RandomState` draws fresh keys per map, so iteration order — and with it
/// anything a loop over a map does to the virtual clock or to a pool —
/// differs from one run to the next (clippy.toml, `no-random-state`).
pub type DetState = std::hash::BuildHasherDefault<std::hash::DefaultHasher>;
/// [`std::collections::HashMap`] whose iteration order is a function of its
/// history alone. Construct with `DetHashMap::default()`.
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, DetState>;
/// [`std::collections::HashSet`] counterpart of [`DetHashMap`].
pub type DetHashSet<K> = std::collections::HashSet<K, DetState>;
