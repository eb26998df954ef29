//! Cache-line persistence tracking, crash injection, and
//! persistence-order hazard detection.
//!
//! Every store records the *last-persisted* image of each cache line it
//! dirties, and the line walks a three-state machine:
//!
//! ```text
//!   store            flush             fence
//! ───────▶  Dirty  ────────▶ Flushed ────────▶ durable (dropped)
//!             ▲                  │ store
//!             └──────────────────┘  (StoreWhileFlushed hazard)
//! ```
//!
//! A line becomes durable only at the **fence** following its flush — a
//! `clwb` alone queues the write-back but guarantees nothing until the
//! next `sfence` retires. Injecting a crash restores every line that has
//! not reached the durable state to its pre-image, so both a missing
//! flush *and* a missing fence are caught by the crash-consistency
//! sweeps. (Earlier revisions treated a flushed line as durable at flush
//! time; that blind spot is exactly what this module now closes.)
//!
//! The tracker also numbers every *persistence point* (each recorded
//! store, each flush, and each fence) and can be armed with a
//! [`FaultPlan`]: once point `crash_at` is reached the tracker
//! **freezes** — later fences stop promoting flushed lines — so a
//! subsequent crash reverts the media to its durable state *as of that
//! point*. See [`crate::fault`] for the model.
//!
//! The tracker also records ordering [`Hazard`]s (the persistence-order
//! sanitizer, DESIGN.md §13): redundant flushes, stores into a
//! flushed-but-unfenced line, publications whose declared dependencies
//! are not yet durable, recovery-path reads of not-yet-durable lines, and
//! — at an explicit quiescence check — lines that never got their flush
//! or fence. Each hazard carries the persistence-point index at which it
//! was observed, so `(seed, point)` replays it exactly like a crash.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use trio_sim::plock::Mutex;
use trio_sim::{in_sim, rng::with_rng, DetHashMap};

use crate::fault::FaultPlan;
use crate::sanitize::{Hazard, HazardKind};
use crate::topology::{lines_covering, PageId, CACHE_LINE, PAGE_SIZE};

/// Sentinel for "no plan armed" / "plan never fired".
const UNSET: u64 = u64::MAX;

/// Where a tracked (not yet durable) line sits in the state machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LinePhase {
    /// Stored but not flushed: lost on any crash.
    Dirty,
    /// Flushed (`clwb`) but not fenced: still lost on a crash — the
    /// write-back has been queued, not retired.
    Flushed,
}

/// Pre-image and phase of one tracked cache line.
struct LineState {
    /// First-store-wins image of the line's last durable contents.
    preimage: [u8; CACHE_LINE],
    phase: LinePhase,
}

/// Pre-images and phases of all not-yet-durable cache lines.
#[derive(Default)]
pub struct PersistTracker {
    lines: Mutex<DetHashMap<(u64, u16), LineState>>,
    /// Persistence points observed so far (stores + flushes + fences).
    points: AtomicU64,
    /// Fences among those points.
    fences: AtomicU64,
    /// Point index at which to freeze durability; `UNSET` = disarmed.
    crash_at: AtomicU64,
    /// Once set, fences no longer promote flushed lines to durable.
    frozen: AtomicBool,
    /// Point at which the plan fired; `UNSET` until then.
    fired_at: AtomicU64,
    /// Torn-store mode of the armed plan (see [`FaultPlan::torn`]).
    torn: AtomicBool,
    /// Ordering hazards observed so far.
    hazards: Mutex<Vec<Hazard>>,
    /// When set, reads overlapping a not-yet-durable line are hazards:
    /// a recovery path is consuming data a crash could still take away.
    recovery_mode: AtomicBool,
}

impl PersistTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        let t = Self::default();
        t.crash_at.store(UNSET, Ordering::Relaxed);
        t.fired_at.store(UNSET, Ordering::Relaxed);
        t
    }

    /// Counts one persistence point, freezing if the armed plan's point is
    /// reached. Returns the index of the point just consumed.
    #[inline]
    fn point_tick(&self) -> u64 {
        let p = self.points.fetch_add(1, Ordering::Relaxed);
        if p == self.crash_at.load(Ordering::Relaxed) {
            self.frozen.store(true, Ordering::Relaxed);
            self.fired_at.store(p, Ordering::Relaxed);
        }
        p
    }

    #[inline]
    fn is_frozen(&self) -> bool {
        self.frozen.load(Ordering::Relaxed)
    }

    /// Records an ordering hazard, stamped with the index of the most
    /// recent persistence point (for event-coupled hazards that is the
    /// offending event itself; for quiescence/read checks it is the last
    /// event before the check).
    ///
    /// Nothing is recorded while frozen: the power failed at the frozen
    /// point, no later fence retires anything, so every later store to a
    /// staged line would look like `store-while-flushed` and every later
    /// publish like `publish-before-persist`. [`Self::drain_for_crash`]
    /// thaws the tracker, so recovery is checked again.
    fn hazard(&self, kind: HazardKind, page: u64, line: u16) {
        if self.is_frozen() {
            return;
        }
        let point = self.points.load(Ordering::Relaxed).saturating_sub(1);
        self.hazards.lock().push(Hazard { kind, page, line, point });
    }

    /// Arms a crash plan: durability freezes at persistence point
    /// `plan.crash_at`. Re-arming replaces the previous plan (only a plan
    /// that has not yet fired can be replaced meaningfully).
    pub fn arm(&self, plan: FaultPlan) {
        self.fired_at.store(UNSET, Ordering::Relaxed);
        self.torn.store(plan.torn, Ordering::Relaxed);
        self.crash_at.store(plan.crash_at, Ordering::Relaxed);
    }

    /// Persistence points observed so far.
    pub fn points_seen(&self) -> u64 {
        self.points.load(Ordering::Relaxed)
    }

    /// Fences observed so far.
    pub fn fences_seen(&self) -> u64 {
        self.fences.load(Ordering::Relaxed)
    }

    /// The point at which the armed plan fired, if it has.
    pub fn fired_at(&self) -> Option<u64> {
        match self.fired_at.load(Ordering::Relaxed) {
            UNSET => None,
            p => Some(p),
        }
    }

    /// Records pre-images for the lines of `page` covered by
    /// `[off, off+len)`, given the page's current (pre-store) contents.
    /// `current` is the page's written prefix, in whole lines: a line past
    /// it reads as zeros, so an empty `current` is an all-zero page.
    ///
    /// Counts one persistence point. Stores after a freeze still record
    /// pre-images (they will be reverted by the crash): for a line that was
    /// durable at freeze time, the page content at store time *is* its
    /// durable image, so first-store-wins capture remains correct.
    ///
    /// A store into a `Flushed` line demotes it back to `Dirty` (the
    /// queued write-back no longer covers the new bytes) and records a
    /// [`HazardKind::StoreWhileFlushed`] hazard.
    pub fn record_store(&self, page: PageId, off: usize, len: usize, current: &[u8]) {
        self.record_store_inner(page, off, len, current, None);
    }

    /// Like [`Self::record_store`], but with the store's actual bytes, so
    /// an armed torn-store plan firing at exactly this point can let an
    /// aligned 8-byte prefix of the store escape to media (the escaped
    /// words are patched into the pre-images the crash will restore).
    /// The data path uses this variant; metadata-free internal writes
    /// (rollback, page reset) keep the length-only form and never tear.
    pub fn record_store_data(&self, page: PageId, off: usize, data: &[u8], current: &[u8]) {
        self.record_store_inner(page, off, data.len(), current, Some(data));
    }

    fn record_store_inner(
        &self,
        page: PageId,
        off: usize,
        len: usize,
        current: &[u8],
        new_data: Option<&[u8]>,
    ) {
        debug_assert!(off + len <= PAGE_SIZE);
        if len == 0 {
            return;
        }
        let point = self.point_tick();
        let mut lines = self.lines.lock();
        for line in lines_covering(off, len) {
            match lines.entry((page.0, line as u16)) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    let mut img = [0u8; CACHE_LINE];
                    if let Some(cur) = current.get(line * CACHE_LINE..(line + 1) * CACHE_LINE) {
                        img.copy_from_slice(cur);
                    }
                    v.insert(LineState { preimage: img, phase: LinePhase::Dirty });
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    if o.get().phase == LinePhase::Flushed {
                        self.hazard(HazardKind::StoreWhileFlushed, page.0, line as u16);
                        o.get_mut().phase = LinePhase::Dirty;
                    }
                }
            }
        }
        if let Some(data) = new_data {
            if self.torn.load(Ordering::Relaxed)
                && self.fired_at.load(Ordering::Relaxed) == point
            {
                self.tear_store(&mut lines, page, off, data);
            }
        }
    }

    /// Realizes a torn store: a prefix of the crash-point store reached
    /// media before the cut, so those bytes are patched into the
    /// pre-images the crash will restore. The cut falls on an 8-byte
    /// *page-aligned* boundary — hardware store atomicity is address
    /// aligned, not store-relative — drawn from the sim RNG
    /// (deterministic per seed); outside the sim it falls at the middle
    /// boundary. A store confined to one aligned word never tears.
    fn tear_store(
        &self,
        lines: &mut DetHashMap<(u64, u16), LineState>,
        page: PageId,
        off: usize,
        data: &[u8],
    ) {
        let store_end = off + data.len();
        // Candidate cuts: aligned boundaries strictly inside the store.
        let first_cut = (off / 8 + 1) * 8;
        if first_cut >= store_end {
            return;
        }
        let cuts = (store_end - first_cut).div_ceil(8);
        let draw = if in_sim() { with_rng(|r| r.gen_range(cuts as u64)) } else { cuts as u64 / 2 };
        let (start, end) = (off, first_cut + 8 * draw as usize);
        debug_assert!(end < store_end && end.is_multiple_of(8));
        for line in lines_covering(start, end - start) {
            let Some(st) = lines.get_mut(&(page.0, line as u16)) else { continue };
            let lo = start.max(line * CACHE_LINE);
            let hi = end.min((line + 1) * CACHE_LINE);
            st.preimage[lo - line * CACHE_LINE..hi - line * CACHE_LINE]
                .copy_from_slice(&data[lo - off..hi - off]);
        }
    }

    /// Stages the lines covering `[off, off+len)` of `page` for the next
    /// fence (`clwb`). The lines stay non-durable until [`Self::fence`].
    ///
    /// Counts one persistence point. Flushing a clean (already durable)
    /// line is a no-op — range flushes legitimately cover clean lines —
    /// but re-flushing an already staged line is a
    /// [`HazardKind::RedundantFlush`] hazard.
    pub fn flush(&self, page: PageId, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        debug_assert!(off + len <= PAGE_SIZE);
        self.point_tick();
        let mut lines = self.lines.lock();
        for line in lines_covering(off, len) {
            if let Some(e) = lines.get_mut(&(page.0, line as u16)) {
                match e.phase {
                    LinePhase::Dirty => e.phase = LinePhase::Flushed,
                    LinePhase::Flushed => {
                        self.hazard(HazardKind::RedundantFlush, page.0, line as u16);
                    }
                }
            }
        }
    }

    /// Retires all staged write-backs (`sfence`): every `Flushed` line
    /// becomes durable and its pre-image is dropped. `Dirty` lines are
    /// untouched — a fence orders flushes, it does not replace them.
    ///
    /// Counts one persistence point. After a freeze the fence is a no-op
    /// on the durable set: the power failed at the frozen point, so this
    /// fence never retired anything.
    pub fn fence(&self) {
        self.point_tick();
        self.fences.fetch_add(1, Ordering::Relaxed);
        if self.is_frozen() {
            return;
        }
        self.lines.lock().retain(|_, e| e.phase != LinePhase::Flushed);
    }

    /// Number of not-yet-durable (would-be-lost) lines, dirty or staged.
    pub fn dirty_lines(&self) -> usize {
        self.lines.lock().len()
    }

    /// Takes all pre-images, leaving the tracker clean and disarmed. The
    /// device applies them to the page store to realize the crash. The
    /// result is sorted by `(page, offset)` so crash realization — and any
    /// report derived from it — is byte-identical across runs.
    pub fn drain_for_crash(&self) -> Vec<(PageId, usize, [u8; CACHE_LINE])> {
        let mut lines = self.lines.lock();
        let mut v: Vec<(PageId, usize, [u8; CACHE_LINE])> = lines
            .drain()
            .map(|((page, line), st)| (PageId(page), line as usize * CACHE_LINE, st.preimage))
            .collect();
        v.sort_unstable_by_key(|(p, off, _)| (p.0, *off));
        self.crash_at.store(UNSET, Ordering::Relaxed);
        self.frozen.store(false, Ordering::Relaxed);
        self.torn.store(false, Ordering::Relaxed);
        v
    }
}

/// Sanitizer surface: hazard collection, quiescence and recovery checks,
/// publication dependencies.
impl PersistTracker {
    /// Quiescence check: at a point where the workload claims everything
    /// it wrote is durable, any line still `Dirty` is a missing flush and
    /// any line still `Flushed` is a missing fence. Records one hazard
    /// per offending line; the lines themselves are left untouched.
    pub fn quiesce_check(&self) {
        let lines = self.lines.lock();
        let mut offenders: Vec<(u64, u16, LinePhase)> =
            lines.iter().map(|(&(p, l), e)| (p, l, e.phase)).collect();
        drop(lines);
        // Deterministic hazard order regardless of hash-map iteration.
        offenders.sort_unstable_by_key(|&(p, l, _)| (p, l));
        for (page, line, phase) in offenders {
            let kind = match phase {
                LinePhase::Dirty => HazardKind::MissingFlush,
                LinePhase::Flushed => HazardKind::MissingFence,
            };
            self.hazard(kind, page, line);
        }
    }

    /// Enters or leaves recovery mode. While set, reads overlapping a
    /// not-yet-durable line record [`HazardKind::ReadNotDurable`]: a
    /// recovery or observer path is consuming bytes that a crash at this
    /// instant would still revert.
    pub fn set_recovery_mode(&self, on: bool) {
        self.recovery_mode.store(on, Ordering::Relaxed);
    }

    /// Read-side check, called by the device on every read while recovery
    /// mode is armed.
    pub fn recovery_read_check(&self, page: PageId, off: usize, len: usize) {
        if len == 0 || !self.recovery_mode.load(Ordering::Relaxed) {
            return;
        }
        let lines = self.lines.lock();
        let mut bad: Vec<u16> = lines_covering(off, len)
            .map(|l| l as u16)
            .filter(|l| lines.contains_key(&(page.0, *l)))
            .collect();
        drop(lines);
        bad.sort_unstable();
        for line in bad {
            self.hazard(HazardKind::ReadNotDurable, page.0, line);
        }
    }

    /// Publication dependency check: every line covering `[off, off+len)`
    /// must already be durable (untracked). Records one
    /// [`HazardKind::PublishBeforePersist`] hazard per line that is not.
    pub fn assert_durable(&self, page: PageId, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let lines = self.lines.lock();
        let mut bad: Vec<u16> = lines_covering(off, len)
            .map(|l| l as u16)
            .filter(|l| lines.contains_key(&(page.0, *l)))
            .collect();
        drop(lines);
        bad.sort_unstable();
        for line in bad {
            self.hazard(HazardKind::PublishBeforePersist, page.0, line);
        }
    }

    /// Takes (and clears) all hazards observed so far.
    pub fn take_hazards(&self) -> Vec<Hazard> {
        std::mem::take(&mut *self.hazards.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_flush_fence_leaves_nothing_tracked() {
        let t = PersistTracker::new();
        t.record_store(PageId(3), 10, 100, &[]);
        assert_eq!(t.dirty_lines(), 2); // Lines 0 and 1 (bytes 10..110).
        t.flush(PageId(3), 0, 128);
        // Flushed but not fenced: still revertible.
        assert_eq!(t.dirty_lines(), 2);
        t.fence();
        assert_eq!(t.dirty_lines(), 0);
    }

    #[test]
    fn fence_without_flush_keeps_dirty_lines() {
        let t = PersistTracker::new();
        t.record_store(PageId(1), 0, 64, &[]);
        t.fence(); // No flush: the fence has nothing to retire.
        assert_eq!(t.dirty_lines(), 1);
    }

    #[test]
    fn preimage_is_first_store_wins() {
        let t = PersistTracker::new();
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 0xAA;
        t.record_store(PageId(1), 0, 8, &page);
        // A second store to the same line must not overwrite the pre-image.
        page[0] = 0xBB;
        t.record_store(PageId(1), 8, 8, &page);
        let drained = t.drain_for_crash();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].2[0], 0xAA);
    }

    #[test]
    fn store_into_flushed_line_demotes_it() {
        let t = PersistTracker::new();
        t.record_store(PageId(2), 0, 8, &[]);
        t.flush(PageId(2), 0, 8);
        // The store lands after the clwb was queued: the line must go back
        // to Dirty so the following fence does NOT make it durable.
        t.record_store(PageId(2), 8, 8, &[]);
        t.fence();
        assert_eq!(t.dirty_lines(), 1);
    }

    #[test]
    fn partial_flush_then_fence_keeps_other_lines() {
        let t = PersistTracker::new();
        t.record_store(PageId(0), 0, 256, &[]); // Lines 0..4.
        t.flush(PageId(0), 0, 64); // Only line 0.
        t.fence();
        assert_eq!(t.dirty_lines(), 3);
    }

    #[test]
    fn drain_is_sorted() {
        let t = PersistTracker::new();
        t.record_store(PageId(9), 128, 64, &[]);
        t.record_store(PageId(2), 0, 64, &[]);
        t.record_store(PageId(9), 0, 64, &[]);
        let d = t.drain_for_crash();
        let keys: Vec<(u64, usize)> = d.iter().map(|(p, off, _)| (p.0, *off)).collect();
        assert_eq!(keys, vec![(2, 0), (9, 0), (9, 128)]);
    }

    #[test]
    fn freeze_stops_fences_from_retiring() {
        let t = PersistTracker::new();
        t.arm(FaultPlan::crash_at_point(2));
        t.record_store(PageId(0), 0, 8, &[]); // point 0
        t.flush(PageId(0), 0, 8); // point 1
        t.fence(); // point 2 — plan fires *at* this fence, so the
                   // retirement itself is already lost.
        assert_eq!(t.fired_at(), Some(2));
        assert_eq!(t.dirty_lines(), 1);
        t.record_store(PageId(0), 64, 8, &[]); // point 3, still recorded
        t.flush(PageId(0), 64, 8); // point 4
        t.fence(); // point 5, no durable effect
        assert_eq!(t.dirty_lines(), 2);
        assert_eq!(t.points_seen(), 6);
    }

    #[test]
    fn torn_store_lets_an_aligned_prefix_escape() {
        // Outside the sim the split falls at the midpoint: a 32-byte
        // store at the crash point keeps chunks = 31/8 = 3, draw = 1,
        // escaped = 16 bytes.
        let t = PersistTracker::new();
        t.arm(FaultPlan::crash_at_point(0).with_torn_store());
        let page = vec![0x11u8; PAGE_SIZE];
        let data = [0x22u8; 32];
        t.record_store_data(PageId(1), 64, &data, &page); // point 0, fires
        let drained = t.drain_for_crash();
        assert_eq!(drained.len(), 1);
        let (p, off, img) = &drained[0];
        assert_eq!((p.0, *off), (1, 64));
        // First 16 bytes of the store escaped; the tail reverts.
        assert!(img[..16].iter().all(|&b| b == 0x22), "escaped prefix");
        assert!(img[16..48].iter().all(|&b| b == 0x11), "lost tail");
        assert!(img[48..].iter().all(|&b| b == 0x11), "untouched remainder");
    }

    #[test]
    fn torn_mode_never_tears_single_word_stores() {
        let t = PersistTracker::new();
        t.arm(FaultPlan::crash_at_point(0).with_torn_store());
        let page = vec![0x11u8; PAGE_SIZE];
        t.record_store_data(PageId(1), 0, &[0x22u8; 8], &page); // atomic
        let drained = t.drain_for_crash();
        assert!(drained[0].2[..8].iter().all(|&b| b == 0x11), "8-byte store is atomic");
    }

    #[test]
    fn torn_mode_only_fires_at_the_plan_point() {
        let t = PersistTracker::new();
        t.arm(FaultPlan::crash_at_point(0).with_torn_store());
        let page = vec![0x11u8; PAGE_SIZE];
        t.record_store_data(PageId(1), 0, &[0x22u8; 32], &page); // point 0, tears
        t.record_store_data(PageId(2), 0, &[0x33u8; 32], &page); // point 1, whole store lost
        let drained = t.drain_for_crash();
        assert_eq!(drained.len(), 2);
        assert!(drained[1].2[..32].iter().all(|&b| b == 0x11), "post-freeze store fully reverts");
    }

    #[test]
    fn fence_before_freeze_is_durable() {
        let t = PersistTracker::new();
        t.arm(FaultPlan::crash_at_point(3));
        t.record_store(PageId(0), 0, 8, &[]); // point 0
        t.flush(PageId(0), 0, 8); // point 1
        t.fence(); // point 2 — durable before the freeze
        t.record_store(PageId(0), 64, 8, &[]); // point 3 — freeze fires
        assert_eq!(t.fired_at(), Some(3));
        assert_eq!(t.dirty_lines(), 1);
    }

    mod sanitize {
        use super::*;
        use crate::sanitize::HazardKind;

        fn kinds(t: &PersistTracker) -> Vec<HazardKind> {
            t.take_hazards().into_iter().map(|h| h.kind).collect()
        }

        #[test]
        fn clean_protocol_records_no_hazards() {
            let t = PersistTracker::new();
            t.record_store(PageId(1), 0, 100, &[]);
            t.flush(PageId(1), 0, 100);
            t.fence();
            t.quiesce_check();
            assert!(kinds(&t).is_empty());
        }

        #[test]
        fn missing_flush_and_fence_flagged_at_quiesce() {
            let t = PersistTracker::new();
            t.record_store(PageId(1), 0, 8, &[]); // Never flushed.
            t.record_store(PageId(2), 0, 8, &[]);
            t.flush(PageId(2), 0, 8); // Flushed, never fenced.
            t.quiesce_check();
            assert_eq!(kinds(&t), vec![HazardKind::MissingFlush, HazardKind::MissingFence]);
        }

        #[test]
        fn redundant_flush_flagged() {
            let t = PersistTracker::new();
            t.record_store(PageId(1), 0, 8, &[]);
            t.flush(PageId(1), 0, 8);
            t.flush(PageId(1), 0, 8);
            assert_eq!(kinds(&t), vec![HazardKind::RedundantFlush]);
        }

        #[test]
        fn flushing_clean_lines_is_not_redundant() {
            let t = PersistTracker::new();
            t.record_store(PageId(1), 0, 8, &[]);
            // A range flush covering clean neighbours is normal.
            t.flush(PageId(1), 0, PAGE_SIZE);
            t.fence();
            assert!(kinds(&t).is_empty());
        }

        #[test]
        fn store_while_flushed_flagged() {
            let t = PersistTracker::new();
            t.record_store(PageId(1), 0, 8, &[]);
            t.flush(PageId(1), 0, 8);
            t.record_store(PageId(1), 8, 8, &[]);
            assert_eq!(kinds(&t), vec![HazardKind::StoreWhileFlushed]);
        }

        #[test]
        fn publish_dependency_checked() {
            let t = PersistTracker::new();
            t.record_store(PageId(5), 0, 8, &[]);
            t.assert_durable(PageId(5), 0, 8); // Dirty: hazard.
            t.flush(PageId(5), 0, 8);
            t.assert_durable(PageId(5), 0, 8); // Flushed, unfenced: hazard.
            t.fence();
            t.assert_durable(PageId(5), 0, 8); // Durable: clean.
            assert_eq!(
                kinds(&t),
                vec![HazardKind::PublishBeforePersist, HazardKind::PublishBeforePersist]
            );
        }

        #[test]
        fn recovery_reads_of_nondurable_lines_flagged() {
            let t = PersistTracker::new();
            t.record_store(PageId(7), 0, 8, &[]);
            t.recovery_read_check(PageId(7), 0, 8); // Mode off: clean.
            t.set_recovery_mode(true);
            t.recovery_read_check(PageId(7), 0, 8); // Dirty line: hazard.
            t.recovery_read_check(PageId(8), 0, 8); // Untracked: clean.
            t.set_recovery_mode(false);
            assert_eq!(kinds(&t), vec![HazardKind::ReadNotDurable]);
        }

        #[test]
        fn nothing_is_recorded_between_the_freeze_and_the_crash() {
            let t = PersistTracker::new();
            t.arm(FaultPlan::crash_at_point(2));
            t.record_store(PageId(1), 0, 8, &[]); // point 0
            t.flush(PageId(1), 0, 8); // point 1
            t.fence(); // point 2 — fires; the line stays Flushed for good
            t.record_store(PageId(1), 8, 8, &[]); // would be store-while-flushed
            t.assert_durable(PageId(1), 0, 8); // would be publish-before-persist
            t.quiesce_check();
            assert!(kinds(&t).is_empty());
            // The crash thaws the tracker: recovery's own stores are checked.
            t.drain_for_crash();
            t.record_store(PageId(1), 0, 8, &[]);
            t.flush(PageId(1), 0, 8);
            t.flush(PageId(1), 0, 8);
            assert_eq!(kinds(&t), vec![HazardKind::RedundantFlush]);
        }

        #[test]
        fn hazards_carry_replayable_points() {
            let t = PersistTracker::new();
            t.record_store(PageId(1), 0, 8, &[]); // point 0
            t.flush(PageId(1), 0, 8); // point 1
            t.flush(PageId(1), 0, 8); // point 2 — redundant
            let h = t.take_hazards();
            assert_eq!(h.len(), 1);
            assert_eq!(h[0].point, 2);
            assert_eq!(h[0].page, 1);
        }
    }
}
