//! Sharded, epoch-reclaimed control-plane structures (DESIGN.md §20).
//!
//! The kernel's provenance books used to live inside the single
//! `SimMutex<Registry>`, so every allocator refill batch, free, truncate
//! and patrol-scrub probe serialized on one global lock — 642 hot-path
//! acquisitions in `BENCH_datapath.json` before this module existed.
//! Three structures replace that:
//!
//! * [`ShardedMap`] — a fixed-fanout sharded hash map for page and ino
//!   provenance. Shards are [`SimMutex`]es, so every access is visible to
//!   the deterministic scheduler *and* the vector-clock race detector
//!   (the lock hand-off is the happens-before edge between the thread
//!   that frees a page and the thread that later reuses it). Keys are
//!   grouped in runs of consecutive ids per shard, so a batched refill
//!   (consecutive page ids) or a mount's ino grant touches one or two
//!   shard locks, not one per key.
//! * `EpochGc` (crate-private; the page allocator's) — epoch-based
//!   reclamation for freed pages. Readers that walk provenance outside the registry control lock (verifier walks,
//!   fsck, the patrol scrubber) hold an [`EpochPin`]; pages freed while
//!   any earlier-epoch pin is live sit in *limbo* — provenance intact,
//!   contents untouched — and only re-enter the allocator once every
//!   such pin has dropped. With no pins live (the steady state) limbo
//!   drains synchronously inside the free call, so the fast path is
//!   byte-for-byte the old behaviour. Limbo is volatile by design:
//!   recovery recomputes the free set from the committed tree, so a
//!   crash with pages in limbo simply recovers them as free.
//! * [`EventRing`] — the bounded drop-oldest replacement for the old
//!   unbounded `Registry::events` vec ("bounded by tests' appetite").
//!   Overflow increments a dropped counter surfaced through
//!   [`trio_nvm::PathStats`]; drain-on-read semantics are preserved.
//!
//! Lock ordering: shard locks and the GC lock are **leaves** under the
//! registry control lock — every method here takes and releases its own
//! locks and never calls back into the controller.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use trio_nvm::PageId;
use trio_sim::plock::Mutex as PlMutex;
use trio_sim::sync::SimMutex;
use trio_sim::DetHashMap;

use crate::alloc::PutBack;
use crate::registry::KernelEvent;

/// Shard fanout. Power of two; 64 shards keep per-shard occupancy low for
/// hundreds of tenants while the array itself stays cache-resident.
const SHARD_COUNT: usize = 64;

/// Consecutive ids per shard run (`1 << SHARD_RUN_BITS`). Allocator
/// refills hand out consecutive page ids and mounts grant consecutive
/// ino ranges, so a 192-page batch lands on at most two shards.
const SHARD_RUN_BITS: u64 = 8;

/// A sharded `u64 -> V` map with batch operations that take each touched
/// shard lock exactly once.
///
/// Batch operations are **not** atomic across shards: shards are visited
/// in ascending index order and each is locked independently. Call sites
/// that need multi-key atomicity with respect to a writer (verify,
/// rollback, reclaim) hold the registry control lock around their batch,
/// which serializes them against every other control-lock holder — the
/// same discipline the old single-map code had after it dropped the
/// registry between validation and parking.
pub struct ShardedMap<V: Copy> {
    shards: Box<[SimMutex<DetHashMap<u64, V>>]>,
}

impl<V: Copy> ShardedMap<V> {
    /// An empty map with the default fanout.
    pub fn new() -> Self {
        let shards: Vec<SimMutex<DetHashMap<u64, V>>> =
            (0..SHARD_COUNT).map(|_| SimMutex::new(DetHashMap::default())).collect();
        ShardedMap { shards: shards.into_boxed_slice() }
    }

    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        ((key >> SHARD_RUN_BITS) as usize) & (SHARD_COUNT - 1)
    }

    /// Point lookup.
    pub fn get(&self, key: u64) -> Option<V> {
        self.shards[self.shard_of(key)].lock().get(&key).copied()
    }

    /// Point insert; returns the previous value.
    pub fn insert(&self, key: u64, value: V) -> Option<V> {
        self.shards[self.shard_of(key)].lock().insert(key, value)
    }

    /// Point remove; returns the removed value.
    pub fn remove(&self, key: u64) -> Option<V> {
        self.shards[self.shard_of(key)].lock().remove(&key)
    }

    /// Groups `keys` by shard, preserving input order within each group.
    fn grouped(&self, keys: impl Iterator<Item = u64>) -> Vec<(usize, Vec<u64>)> {
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); SHARD_COUNT];
        for k in keys {
            buckets[self.shard_of(k)].push(k);
        }
        buckets.into_iter().enumerate().filter(|(_, b)| !b.is_empty()).collect()
    }

    /// Inserts every `(key, value)` pair, one lock per touched shard.
    pub fn insert_batch(&self, items: impl Iterator<Item = (u64, V)>) {
        let mut buckets: Vec<Vec<(u64, V)>> = vec![Vec::new(); SHARD_COUNT];
        for (k, v) in items {
            buckets[self.shard_of(k)].push((k, v));
        }
        for (i, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut shard = self.shards[i].lock();
            for (k, v) in bucket {
                shard.insert(k, v);
            }
        }
    }

    /// The current value of every key, in input order, one lock per
    /// touched shard.
    pub fn get_batch(&self, keys: &[u64]) -> Vec<Option<V>> {
        let mut out = vec![None; keys.len()];
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); SHARD_COUNT];
        for (i, k) in keys.iter().enumerate() {
            buckets[self.shard_of(*k)].push(i);
        }
        for (s, bucket) in buckets.iter().enumerate().filter(|(_, b)| !b.is_empty()) {
            let shard = self.shards[s].lock();
            for &i in bucket {
                out[i] = shard.get(&keys[i]).copied();
            }
        }
        out
    }

    /// Removes every key, one lock per touched shard.
    pub fn remove_batch(&self, keys: impl Iterator<Item = u64>) {
        for (i, bucket) in self.grouped(keys) {
            let mut shard = self.shards[i].lock();
            for k in bucket {
                shard.remove(&k);
            }
        }
    }

    /// Whether `pred` holds for the current value of every key, touching
    /// each shard once. The check is a read-only probe: like the old
    /// validate-then-park free path, the caller's later mutation is a
    /// separate step.
    pub fn all_match(
        &self,
        keys: impl Iterator<Item = u64>,
        pred: impl Fn(u64, Option<V>) -> bool,
    ) -> bool {
        for (i, bucket) in self.grouped(keys) {
            let shard = self.shards[i].lock();
            for k in bucket {
                if !pred(k, shard.get(&k).copied()) {
                    return false;
                }
            }
        }
        true
    }

    /// Every entry matching `pred`, in ascending key order (deterministic
    /// for iteration-order-sensitive callers like fsck).
    pub fn collect_filter(&self, mut pred: impl FnMut(u64, V) -> bool) -> Vec<(u64, V)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let s = shard.lock();
            out.extend(s.iter().filter(|(k, v)| pred(**k, **v)).map(|(k, v)| (*k, *v)));
        }
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Total entry count across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Copy> Default for ShardedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

/// One `put_back` batch waiting in limbo for the epochs ahead of it to
/// drain.
pub(crate) struct LimboBatch {
    /// The frames themselves.
    pub(crate) pages: Vec<PageId>,
    /// Where they settle once ripe.
    pub(crate) to: PutBack,
    /// Whether settling charges the scrub-and-unmap cost (frames that sat
    /// out a checkpoint pin paid it when they were deferred).
    pub(crate) charge: bool,
}

struct GcState {
    /// Advances on every deferred batch.
    epoch: u64,
    /// Live pins: pin id -> the epoch observed when the pin was taken.
    pins: DetHashMap<u64, u64>,
    /// Deferred batches in epoch order.
    limbo: VecDeque<(u64, LimboBatch)>,
}

/// Epoch-based reclamation for freed pages (DESIGN.md §20).
///
/// The single [`SimMutex`] makes pin/defer/reclaim deterministic and
/// hands the freeing thread's vector clock to whichever thread later
/// resets and reuses the frames.
pub(crate) struct EpochGc {
    state: SimMutex<GcState>,
    next_pin: AtomicU64,
    /// Lock-free mirror of the limbo page count, so hot paths can skip
    /// the reclaim call without taking the GC lock. A hint only: the
    /// authoritative state is under `state`.
    limbo_pages: AtomicU64,
}

impl EpochGc {
    /// A fresh GC domain at epoch zero.
    pub(crate) fn new() -> Self {
        EpochGc {
            state: SimMutex::new(GcState {
                epoch: 0,
                pins: DetHashMap::default(),
                limbo: VecDeque::new(),
            }),
            next_pin: AtomicU64::new(1),
            limbo_pages: AtomicU64::new(0),
        }
    }

    /// Whether any pages sit in limbo (relaxed hint; no lock).
    pub(crate) fn has_limbo(&self) -> bool {
        self.limbo_pages.load(Ordering::Relaxed) != 0
    }

    /// Pins the current epoch: pages deferred from now on stay in limbo
    /// until the returned guard drops. Readers that walk provenance
    /// outside the registry control lock take one of these so a frame
    /// they may still read cannot be scrubbed and re-granted mid-walk.
    pub(crate) fn pin(self: &Arc<Self>) -> EpochPin {
        let id = self.next_pin.fetch_add(1, Ordering::Relaxed);
        let mut st = self.state.lock();
        let epoch = st.epoch;
        st.pins.insert(id, epoch);
        EpochPin { gc: Arc::clone(self), id }
    }

    /// Defers `batch` to limbo at the current epoch and advances it.
    pub(crate) fn defer(&self, batch: LimboBatch) {
        if batch.pages.is_empty() {
            return;
        }
        let mut st = self.state.lock();
        let e = st.epoch;
        self.limbo_pages.fetch_add(batch.pages.len() as u64, Ordering::Relaxed);
        st.limbo.push_back((e, batch));
        st.epoch += 1;
    }

    /// Drains every limbo batch older than the oldest live pin (all of
    /// them when nothing is pinned), oldest first. The caller owns the
    /// returned pages.
    pub(crate) fn take_ripe(&self) -> Vec<LimboBatch> {
        let mut st = self.state.lock();
        let horizon = st.pins.values().copied().min().unwrap_or(u64::MAX);
        let mut out = Vec::new();
        while st.limbo.front().is_some_and(|(e, _)| *e < horizon) {
            out.extend(st.limbo.pop_front().map(|(_, batch)| batch));
        }
        let pages: usize = out.iter().map(|b| b.pages.len()).sum();
        self.limbo_pages.fetch_sub(pages as u64, Ordering::Relaxed);
        out
    }

    /// Pages currently parked in limbo (tests and the ledger audit).
    pub(crate) fn limbo_len(&self) -> usize {
        self.state.lock().limbo.iter().map(|(_, b)| b.pages.len()).sum()
    }

    fn unpin(&self, id: u64) {
        self.state.lock().pins.remove(&id);
    }
}

/// RAII epoch pin; dropping it releases the reclamation horizon. The next
/// free/alloc/gc call after the drop sweeps whatever the pin held back.
pub struct EpochPin {
    gc: Arc<EpochGc>,
    id: u64,
}

impl Drop for EpochPin {
    fn drop(&mut self) {
        self.gc.unpin(self.id);
    }
}

/// Bounded drop-oldest event buffer (the fix for the unbounded
/// `Registry::events` vec). Pushes past capacity evict the oldest entry
/// and count it; [`EventRing::drain`] keeps the old drain-on-read
/// semantics for tests.
pub struct EventRing {
    buf: PlMutex<VecDeque<KernelEvent>>,
    dropped: AtomicU64,
    capacity: usize,
}

/// Default event capacity: generous for every test drain cadence, small
/// enough that a never-drained production run stays bounded.
pub const EVENT_RING_CAPACITY: usize = 1024;

impl EventRing {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing { buf: PlMutex::new(VecDeque::new()), dropped: AtomicU64::new(0), capacity }
    }

    /// Appends an event, evicting the oldest past capacity. Returns true
    /// when an event was dropped (the caller surfaces that in stats).
    pub fn push(&self, ev: KernelEvent) -> bool {
        let mut buf = self.buf.lock();
        let mut dropped = false;
        while buf.len() >= self.capacity {
            buf.pop_front();
            dropped = true;
        }
        buf.push_back(ev);
        if dropped {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        dropped
    }

    /// Removes and returns everything buffered, oldest first.
    pub fn drain(&self) -> Vec<KernelEvent> {
        self.buf.lock().drain(..).collect()
    }

    /// Lifetime count of events evicted by overflow.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trio_nvm::ActorId;

    #[test]
    fn sharded_map_point_and_batch_ops() {
        let m: ShardedMap<u32> = ShardedMap::new();
        assert!(m.is_empty());
        m.insert(7, 70);
        assert_eq!(m.get(7), Some(70));
        m.insert_batch((0..600).map(|k| (k, k as u32)));
        assert_eq!(m.len(), 600); // key 7 overwritten, not duplicated
        assert!(m.all_match(0..600, |k, v| v == Some(k as u32)));
        assert!(!m.all_match(0..601, |_, v| v.is_some()));
        // Input order, across shards and with a miss in between.
        assert_eq!(m.get_batch(&[599, 600, 3, 300]), [Some(599), None, Some(3), Some(300)]);
        m.remove_batch(0..300);
        assert_eq!(m.len(), 300);
        let odd = m.collect_filter(|k, _| k % 2 == 1);
        assert_eq!(odd.len(), 150);
        assert!(odd.windows(2).all(|w| w[0].0 < w[1].0), "sorted for determinism");
        assert_eq!(m.remove(301), Some(301));
        assert_eq!(m.get(301), None);
    }

    #[test]
    fn consecutive_keys_share_shards() {
        let m: ShardedMap<u8> = ShardedMap::new();
        // A refill-sized run of consecutive keys touches at most two
        // shard runs — the property that keeps batch ops O(1) locks.
        let shards: std::collections::HashSet<usize> =
            (1000..1192).map(|k| m.shard_of(k)).collect();
        assert!(shards.len() <= 2, "192-key run hit {} shards", shards.len());
    }

    fn batch(page: u64, owner: u32) -> LimboBatch {
        LimboBatch { pages: vec![PageId(page)], to: PutBack::Cache(ActorId(owner)), charge: true }
    }

    #[test]
    fn epoch_gc_drains_immediately_without_pins() {
        let gc = Arc::new(EpochGc::new());
        gc.defer(batch(9, 1));
        assert_eq!(gc.limbo_len(), 1);
        let ripe = gc.take_ripe();
        assert_eq!(ripe.len(), 1);
        assert_eq!(ripe[0].pages, [PageId(9)]);
        assert_eq!(gc.limbo_len(), 0);
    }

    #[test]
    fn pin_holds_back_reclamation_until_dropped() {
        let gc = Arc::new(EpochGc::new());
        let pin = gc.pin();
        gc.defer(batch(4, 2));
        assert!(gc.take_ripe().is_empty(), "deferred at >= pinned epoch");
        // Batches deferred before the pin epoch stay conservative too.
        assert_eq!(gc.limbo_len(), 1);
        drop(pin);
        assert_eq!(gc.take_ripe().len(), 1);
    }

    #[test]
    fn older_pin_gates_younger_batches_only() {
        let gc = Arc::new(EpochGc::new());
        gc.defer(batch(1, 1)); // epoch 0
        let pin = gc.pin(); // epoch 1
        gc.defer(batch(2, 1)); // epoch 1
        let ripe = gc.take_ripe();
        assert_eq!(ripe.len(), 1, "pre-pin batch is ripe");
        assert_eq!(ripe[0].pages, [PageId(1)]);
        drop(pin);
        assert_eq!(gc.take_ripe().len(), 1);
    }

    #[test]
    fn event_ring_drops_oldest_and_counts() {
        let ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.push(KernelEvent::RolledBack { ino: i });
        }
        assert_eq!(ring.dropped(), 2);
        let drained = ring.drain();
        assert_eq!(
            drained,
            vec![
                KernelEvent::RolledBack { ino: 2 },
                KernelEvent::RolledBack { ino: 3 },
                KernelEvent::RolledBack { ino: 4 },
            ]
        );
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 2, "drain does not reset the counter");
    }
}
