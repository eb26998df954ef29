//! Deterministic fault injection: crash-point plans and crash reports.
//!
//! The crash-consistency story of the paper (§4.4) is only as credible as
//! the crash model behind it. This module defines the *fault plan* — a
//! declarative description of where the device should stop persisting — and
//! the *crash report* returned by [`crate::NvmDevice::crash`], which carries
//! enough information to replay the exact failure deterministically.
//!
//! # Persistence points
//!
//! A **persistence point** is any event that changes what would survive a
//! power loss: every store recorded by the persistence tracker, every
//! explicit cache-line flush, and every fence. Points are numbered from 0
//! in execution order; because the sim runtime is deterministic, point *k*
//! of a run names the same event on every run with the same seed.
//!
//! # Freeze semantics
//!
//! A plan armed with `crash_at = k` does not abort the workload at point
//! *k*. Instead the tracker *freezes*: fences after point *k* no longer
//! retire flushed lines into the durable set, while stores keep recording
//! pre-images. The workload then runs to completion, and a later
//! [`crate::NvmDevice::crash`] reverts every line that was not durable *as
//! of point k*. This yields exactly the media image a power cut at point
//! *k* would have left, without needing to unwind in-flight Rust call
//! stacks. (Durability advances at the **fence**, not the flush — a `clwb`
//! only queues the write-back — so a crash between flush and fence loses
//! the line, exactly as on real hardware.)
//!
//! # One build
//!
//! The hooks are in every build — the program the benches measure is the
//! program the crash sweep and the campaigns test — and inert until a test
//! arms them ([`crate::NvmDevice::arm_crash_plan`],
//! [`crate::NvmDevice::poison_line`], …). Unarmed, a hook is one relaxed
//! load or `fetch_add`: it never draws from the sim RNG and never charges
//! virtual time (DESIGN.md §11; `tests/fault_injection.rs` pins it).

use trio_sim::metrics::JsonObject;

use crate::topology::PageId;

/// Declarative crash plan: freeze durability at persistence point `crash_at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Index of the persistence point at which durability freezes.
    pub crash_at: u64,
    /// Torn-store mode: if the plan fires exactly at a *data store* point
    /// and that store spans more than one aligned 8-byte word, an aligned
    /// prefix of the store (length drawn from the sim RNG, so replayable
    /// from the seed) reaches media while the tail is lost. Models the
    /// platform's 8-byte-atomicity floor: nothing larger than one word
    /// persists atomically across a power cut.
    pub torn: bool,
}

impl FaultPlan {
    /// Plan a crash at persistence point `k` (0-based, execution order).
    pub fn crash_at_point(k: u64) -> Self {
        FaultPlan { crash_at: k, torn: false }
    }

    /// Same plan, with the torn 8-byte-store mode enabled.
    pub fn with_torn_store(mut self) -> Self {
        self.torn = true;
        self
    }
}

/// Structured result of [`crate::NvmDevice::crash`]: what the power cut
/// destroyed, and how to replay it. Test harnesses print this on failure so
/// a red run can be reproduced from the `(seed, point)` pair alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashReport {
    /// Cache lines reverted to their pre-store images.
    pub lost_lines: usize,
    /// Pages that lost at least one line, ascending, deduplicated.
    pub affected_pages: Vec<PageId>,
    /// Total persistence points observed before the crash.
    pub points_seen: u64,
    /// The plan point at which durability froze, if a plan fired.
    pub crash_point: Option<u64>,
}

impl CrashReport {
    /// JSON for CI artifacts; `crash_point` is `null` when no plan fired.
    pub fn to_json(&self) -> String {
        let mut w = JsonObject::new();
        w.field("lost_lines", self.lost_lines)
            .array("affected_pages", self.affected_pages.iter().map(|p| p.0))
            .field("points_seen", self.points_seen)
            .field("crash_point", self.crash_point.map_or("null".into(), |k| k.to_string()));
        w.finish()
    }
}

impl std::fmt::Display for CrashReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash report: {} cache lines reverted across {} pages",
            self.lost_lines,
            self.affected_pages.len()
        )?;
        if !self.affected_pages.is_empty() {
            let ids: Vec<String> =
                self.affected_pages.iter().map(|p| p.0.to_string()).collect();
            write!(f, " [{}]", ids.join(", "))?;
        }
        write!(f, "; {} persistence points seen", self.points_seen)?;
        match self.crash_point {
            Some(k) => write!(f, "; plan fired at point {k}"),
            None => write!(f, "; no fault plan armed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display_is_replayable() {
        let r = CrashReport {
            lost_lines: 3,
            affected_pages: vec![PageId(4), PageId(9)],
            points_seen: 120,
            crash_point: Some(57),
        };
        let s = r.to_string();
        assert!(s.contains("3 cache lines"));
        assert!(s.contains("[4, 9]"));
        assert!(s.contains("point 57"));
    }

    #[test]
    fn plan_constructor() {
        assert_eq!(FaultPlan::crash_at_point(7).crash_at, 7);
        assert!(!FaultPlan::crash_at_point(7).torn);
        assert!(FaultPlan::crash_at_point(7).with_torn_store().torn);
    }

    #[test]
    fn report_json_shape() {
        let r = CrashReport {
            lost_lines: 2,
            affected_pages: vec![PageId(4), PageId(9)],
            points_seen: 120,
            crash_point: Some(57),
        };
        assert_eq!(
            r.to_json(),
            "{\n  \"lost_lines\": 2,\n  \"affected_pages\": [4, 9],\n  \
             \"points_seen\": 120,\n  \"crash_point\": 57\n}"
        );
        let none = CrashReport {
            lost_lines: 0,
            affected_pages: Vec::new(),
            points_seen: 0,
            crash_point: None,
        };
        assert!(none.to_json().ends_with("\"crash_point\": null\n}"));
    }
}
