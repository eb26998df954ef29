//! Persistence-order sanitizer types: hazards and structured reports.
//!
//! Live wherever a persist tracker is (`DeviceConfig::track_persistence`).
//! Every hazard carries the persistence-point index of the fault engine —
//! the same `(seed, point)` pair that replays a crash replays a hazard.
//!
//! The tracker records hazards instead of panicking: a workload runs to
//! completion, then the harness collects a [`SanitizeReport`] and decides.
//! That keeps hazard detection composable with the crash sweeps (which
//! must run the workload to its end) and makes "the unmutated path is
//! report-clean" a positive assertion rather than the absence of a panic.
//!
//! # Serialization
//!
//! The workspace is dependency-free by policy, so instead of deriving
//! `serde::Serialize` the reports ([`SanitizeReport::to_json`],
//! [`crate::CrashReport::to_json`]) go through the workspace's one JSON
//! writer, [`trio_sim::metrics::JsonObject`];
//! [`SanitizeReport::expect_clean`] leaves the failing report under
//! `target/`.

use std::fmt;

use trio_sim::metrics::{quoted, JsonObject};

/// One persistence-ordering violation observed by the tracker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HazardKind {
    /// A line was still `Dirty` (never flushed) at a quiescence check.
    MissingFlush,
    /// A line was still `Flushed` (never fenced) at a quiescence check.
    MissingFence,
    /// A line already staged for write-back was flushed again before any
    /// fence — wasted `clwb` work, and usually a sign of confused
    /// flush bookkeeping.
    RedundantFlush,
    /// A store landed in a line between its flush and the fence — the
    /// queued write-back no longer covers the new bytes, so the code
    /// path's "flush then fence" reasoning is broken.
    StoreWhileFlushed,
    /// A publication (8-byte commit store) declared a dependency on a
    /// range that was not yet durable: readers can observe the commit
    /// before the data it commits.
    PublishBeforePersist,
    /// A recovery path read a line that is not yet durable: it is
    /// consuming bytes a crash at this instant would revert.
    ReadNotDurable,
}

impl HazardKind {
    /// Stable machine-readable name (used in JSON and diagnostics).
    pub fn as_str(self) -> &'static str {
        match self {
            HazardKind::MissingFlush => "missing-flush",
            HazardKind::MissingFence => "missing-fence",
            HazardKind::RedundantFlush => "redundant-flush",
            HazardKind::StoreWhileFlushed => "store-while-flushed",
            HazardKind::PublishBeforePersist => "publish-before-persist",
            HazardKind::ReadNotDurable => "read-not-durable",
        }
    }
}

impl fmt::Display for HazardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One hazard occurrence: what, where, and when (persistence point).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hazard {
    /// The violation class.
    pub kind: HazardKind,
    /// Page holding the offending cache line.
    pub page: u64,
    /// Cache-line index within the page.
    pub line: u16,
    /// Persistence point at which the hazard was observed. With the run's
    /// seed this replays the exact event (same numbering the fault
    /// engine's crash plans use).
    pub point: u64,
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on page {} line {} at persistence point {}",
            self.kind, self.page, self.line, self.point
        )
    }
}

/// The sanitizer's verdict on one run: the sim seed plus every hazard, in
/// observation order. Empty `hazards` means the run was sanitizer-clean.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Seed of the deterministic run that produced these hazards.
    pub seed: u64,
    /// All hazards observed, in persistence-point order.
    pub hazards: Vec<Hazard>,
}

impl SanitizeReport {
    /// `true` when no hazards were observed.
    pub fn is_clean(&self) -> bool {
        self.hazards.is_empty()
    }

    /// Hazards of one kind (mutation tests assert on exactly one class).
    pub fn of_kind(&self, kind: HazardKind) -> Vec<Hazard> {
        self.hazards.iter().copied().filter(|h| h.kind == kind).collect()
    }

    /// The harness verdict on an unmutated run: panics unless clean, with
    /// every hazard, `ctx` (the harness's replay key) and the path of the
    /// dumped JSON artifact in the message.
    #[track_caller]
    pub fn expect_clean(&self, ctx: &str) {
        if !self.is_clean() {
            let artifact = dump_artifact(&self.to_json()).ok();
            panic!(
                "persistence-order hazards in an unmutated run \
                 (artifact: {artifact:?}): {self}\n{ctx}"
            );
        }
    }

    /// JSON for CI artifacts: the seed and one object per hazard.
    pub fn to_json(&self) -> String {
        let mut w = JsonObject::new();
        w.field("seed", self.seed).objects("hazards", &self.hazards, |o, h| {
            o.field("kind", quoted(h.kind.as_str()))
                .field("page", h.page)
                .field("line", h.line)
                .field("point", h.point);
        });
        w.finish()
    }
}

impl fmt::Display for SanitizeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "sanitize report: clean (seed {:#x})", self.seed);
        }
        writeln!(
            f,
            "sanitize report: {} hazard(s), seed {:#x} — replay with (seed, point):",
            self.hazards.len(),
            self.seed
        )?;
        for h in &self.hazards {
            writeln!(f, "  {h}")?;
        }
        Ok(())
    }
}

/// Writes a JSON report to `target/sanitize-report.json` (relative to the
/// working directory, which for `cargo test` is the package root) so CI
/// uploads a replayable artifact instead of a truncated panic message.
/// Returns the path written; the caller, already on a failure path,
/// `ok()`s the error: a failed dump must not mask the test failure itself.
fn dump_artifact(json: &str) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("target");
    std::fs::create_dir_all(dir)?;
    let path = dir.join("sanitize-report.json");
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_shape() {
        let r = SanitizeReport {
            seed: 7,
            hazards: vec![
                Hazard { kind: HazardKind::MissingFence, page: 4, line: 2, point: 19 },
                Hazard { kind: HazardKind::RedundantFlush, page: 9, line: 0, point: 33 },
            ],
        };
        assert_eq!(
            r.to_json(),
            "{\n  \"seed\": 7,\n  \"hazards\": [\n    \
             {\"kind\": \"missing-fence\", \"page\": 4, \"line\": 2, \"point\": 19},\n    \
             {\"kind\": \"redundant-flush\", \"page\": 9, \"line\": 0, \"point\": 33}\n  ]\n}"
        );
    }

    #[test]
    fn clean_report() {
        let r = SanitizeReport { seed: 1, hazards: Vec::new() };
        assert!(r.is_clean());
        assert_eq!(r.to_json(), "{\n  \"seed\": 1,\n  \"hazards\": []\n}");
        assert!(r.to_string().contains("clean"));
    }

    #[test]
    fn display_lists_replay_pairs() {
        let r = SanitizeReport {
            seed: 0xA5,
            hazards: vec![Hazard {
                kind: HazardKind::PublishBeforePersist,
                page: 12,
                line: 3,
                point: 101,
            }],
        };
        let s = r.to_string();
        assert!(s.contains("publish-before-persist"));
        assert!(s.contains("point 101"));
        assert!(s.contains("0xa5"));
    }
}
