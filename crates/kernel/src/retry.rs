//! Unified retry policy for the bounded-wait paths (DESIGN.md §16).
//!
//! PR 1 grew ad-hoc copies of the same idea — delegation deadlines that
//! double per attempt, allocation refills that failed on first
//! exhaustion. [`RetryPolicy`] replaces them with one declarative state
//! machine (the lease wait is not a retry but one deadline wait, §21):
//!
//! ```text
//!   attempt 0: window = base + remaining_bytes·per_byte      (+ jitter)
//!   attempt k: window = min(first · 2^k, cap)                (+ jitter)
//!   after `attempts` windows: give up (callers fall back / fail)
//! ```
//!
//! The window is recomputed from the *remaining* work each attempt, so a
//! partially-completed scatter-gather batch retries with a deadline
//! scaled to what is actually left, not the original request size. The
//! optional jitter is additive (never shrinks a window below the
//! deterministic baseline) and is drawn from the calling sim-thread's
//! own RNG, so a given seed replays the exact same schedule.

use trio_sim::rng::with_rng;
use trio_sim::{in_sim, Nanos};

/// Declarative deadline/backoff/budget policy shared by the delegation
/// submit path and the allocation refill path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Base window for a zero-byte request, in virtual ns.
    pub base_ns: Nanos,
    /// Additional window per byte of remaining work.
    pub per_byte_ns: Nanos,
    /// Total window budget: after this many windows the caller gives up.
    pub attempts: u32,
    /// Ceiling on the exponential growth. The cap bounds only the
    /// backoff, never the size-scaled first window — a huge request
    /// always gets at least its transfer-time deadline.
    pub cap_ns: Nanos,
    /// Add deterministic jitter (up to +12.5% of the window, drawn from
    /// the sim RNG) to de-synchronize retry herds. Ignored outside the
    /// simulation, where there is no virtual clock to jitter against.
    pub jitter: bool,
}

impl RetryPolicy {
    /// A policy with jitter on — the default for data-path deadlines.
    pub const fn new(base_ns: Nanos, per_byte_ns: Nanos, attempts: u32, cap_ns: Nanos) -> Self {
        RetryPolicy { base_ns, per_byte_ns, attempts, cap_ns, jitter: true }
    }

    /// Disables jitter (paths that must stay bit-identical to the
    /// pre-policy behaviour, e.g. the pool refill).
    pub const fn no_jitter(mut self) -> Self {
        self.jitter = false;
        self
    }

    /// The attempt budget, never less than one.
    pub fn attempts(&self) -> u32 {
        self.attempts.max(1)
    }

    /// The deterministic (jitter-free) window for `attempt` (0-based)
    /// with `remaining_bytes` of work left.
    fn base_window_ns(&self, attempt: u32, remaining_bytes: usize) -> Nanos {
        let first =
            self.base_ns.saturating_add(self.per_byte_ns.saturating_mul(remaining_bytes as u64));
        let scaled = first.saturating_mul(1u64.checked_shl(attempt.min(32)).unwrap_or(u64::MAX));
        scaled.min(self.cap_ns.max(first))
    }

    /// The window to wait for `attempt` (0-based), including jitter when
    /// enabled and inside the simulation.
    pub fn window_ns(&self, attempt: u32, remaining_bytes: usize) -> Nanos {
        let w = self.base_window_ns(attempt, remaining_bytes);
        if self.jitter && in_sim() && w > 0 {
            w.saturating_add(with_rng(|r| r.gen_range(w / 8 + 1)))
        } else {
            w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_scales_with_remaining_bytes_then_doubles() {
        let p = RetryPolicy::new(1_000, 2, 4, 1_000_000).no_jitter();
        assert_eq!(p.window_ns(0, 0), 1_000);
        assert_eq!(p.window_ns(0, 500), 2_000);
        assert_eq!(p.window_ns(1, 500), 4_000);
        assert_eq!(p.window_ns(2, 500), 8_000);
        // Less remaining work => smaller retry window (the satellite-2
        // fix: retries of a partially-completed batch scale down).
        assert!(p.window_ns(1, 100) < p.window_ns(1, 500));
    }

    #[test]
    fn cap_bounds_backoff_but_not_the_first_window() {
        let p = RetryPolicy::new(1_000, 0, 10, 4_000).no_jitter();
        assert_eq!(p.window_ns(0, 0), 1_000);
        assert_eq!(p.window_ns(1, 0), 2_000);
        assert_eq!(p.window_ns(2, 0), 4_000);
        assert_eq!(p.window_ns(3, 0), 4_000); // capped
        // A request whose transfer time exceeds the cap still gets its
        // full size-scaled window.
        let big = RetryPolicy::new(1_000, 8, 3, 4_000).no_jitter();
        assert_eq!(big.window_ns(0, 1 << 20), 1_000 + 8 * (1 << 20));
    }

    #[test]
    fn attempts_budget_never_zero() {
        assert_eq!(RetryPolicy::new(1, 0, 0, 1).attempts(), 1);
        assert_eq!(RetryPolicy::new(1, 0, 3, 1).attempts(), 3);
    }

    #[test]
    fn huge_attempt_counts_saturate_instead_of_overflowing() {
        let p = RetryPolicy::new(1 << 40, 0, u32::MAX, u64::MAX).no_jitter();
        assert_eq!(p.window_ns(u32::MAX, usize::MAX), u64::MAX);
    }

    #[test]
    fn jitter_is_additive_and_off_outside_sim() {
        // Outside the sim there is no RNG context: the window must be
        // exactly the deterministic base.
        let p = RetryPolicy::new(1_000, 0, 2, 10_000);
        assert!(p.jitter);
        assert_eq!(p.window_ns(0, 0), 1_000);
    }

    #[test]
    fn jitter_in_sim_stays_within_an_eighth() {
        let rt = trio_sim::SimRuntime::new(7);
        rt.spawn("t", || {
            let p = RetryPolicy::new(8_000, 0, 2, 64_000);
            for a in 0..3 {
                let base = p.base_window_ns(a, 0);
                let w = p.window_ns(a, 0);
                assert!(w >= base, "jitter never shrinks the window");
                assert!(w <= base + base / 8, "jitter bounded by +12.5%");
            }
        });
        rt.run();
    }
}
