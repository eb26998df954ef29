//! Resilience counters for the adversarial containment path (DESIGN.md
//! §14): violations by kind, quarantine entries/exits, repair outcomes,
//! verification walk budgets hit, and how lease recalls ended (§21:
//! honoured by the holder, or left to expire). One [`ResilienceStats`] instance
//! lives in the kernel controller next to [`trio_nvm::PathStats`] so a
//! fuzz campaign (or an operator) can snapshot detection *and* repair
//! behaviour the same way benches snapshot the data path. Counters are
//! relaxed atomics and never charge virtual time.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use trio_layout::{superblock::SUPERBLOCK_PAGE, Ino};
use trio_nvm::{ActorId, PageId, PagePerm, RegistryLockSite, KERNEL_ACTOR};
use trio_verifier::{PageProvenance, RepairClass, Violation, VIOLATION_KINDS};

use crate::registry::{KernelEvent, QuarantineInfo, Registry};
use crate::KernelController;

/// Shared relaxed-atomic counters for detection, quarantine, and repair.
#[derive(Default)]
pub struct ResilienceStats {
    /// Violations seen, indexed like [`VIOLATION_KINDS`].
    by_kind: [AtomicU64; VIOLATION_KINDS.len()],
    /// Violations classified repairable / reject (repair-or-reject
    /// contract; sums to the total violation count).
    class_repairable: AtomicU64,
    class_reject: AtomicU64,
    /// Verification walks that hit an explicit budget (hostile graphs).
    walk_budget_hits: AtomicU64,
    /// LibFSes entering / leaving quarantine.
    quarantine_entries: AtomicU64,
    quarantine_exits: AtomicU64,
    /// Repair-pass outcomes per tainted file.
    repairs_clean: AtomicU64,
    repairs_rolled_back: AtomicU64,
    repairs_privatized: AtomicU64,
    /// Lease recalls (DESIGN.md §21), one per (holder, file): posted to
    /// the holder's recall page; ended by the holder letting go; ended by
    /// lease expiry with the mapper still waiting.
    recalls_posted: AtomicU64,
    recalls_honoured: AtomicU64,
    recalls_expired: AtomicU64,
}

impl ResilienceStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Records every violation in a failed report, by kind and class.
    pub fn record_violations(&self, violations: &[Violation]) {
        for v in violations {
            let kind = v.kind();
            if let Some(i) = VIOLATION_KINDS.iter().position(|k| *k == kind) {
                Self::bump(&self.by_kind[i]);
            }
            match v.repair_class() {
                RepairClass::Repairable => Self::bump(&self.class_repairable),
                RepairClass::Reject => Self::bump(&self.class_reject),
            }
        }
    }

    /// A verification walk hit its explicit budget.
    pub fn record_budget_hit(&self) {
        Self::bump(&self.walk_budget_hits);
    }

    /// A LibFS entered quarantine.
    pub fn record_quarantine_entry(&self) {
        Self::bump(&self.quarantine_entries);
    }

    /// A LibFS was re-admitted.
    pub fn record_quarantine_exit(&self) {
        Self::bump(&self.quarantine_exits);
    }

    /// One tainted file came out of the repair pass.
    pub fn record_repair(&self, outcome: RepairOutcome) {
        let c = match outcome {
            RepairOutcome::Clean => &self.repairs_clean,
            RepairOutcome::RolledBack => &self.repairs_rolled_back,
            RepairOutcome::Privatized => &self.repairs_privatized,
        };
        Self::bump(c);
    }

    /// A blocked mapper posted a new recall to a holder's page.
    pub fn record_recall_posted(&self) {
        Self::bump(&self.recalls_posted);
    }

    /// A write lease with mappers waiting on it ended: by the holder's
    /// own release (`honoured`), or by the kernel taking it away — at
    /// expiry, or with everything else a quarantined LibFS held.
    pub fn record_recall_end(&self, honoured: bool) {
        Self::bump(if honoured { &self.recalls_honoured } else { &self.recalls_expired });
    }

    /// Coherent-enough copy of every counter.
    pub fn snapshot(&self) -> ResilienceSnapshot {
        let mut by_kind = [0u64; VIOLATION_KINDS.len()];
        for (i, c) in self.by_kind.iter().enumerate() {
            by_kind[i] = c.load(Ordering::Relaxed);
        }
        ResilienceSnapshot {
            by_kind,
            class_repairable: self.class_repairable.load(Ordering::Relaxed),
            class_reject: self.class_reject.load(Ordering::Relaxed),
            walk_budget_hits: self.walk_budget_hits.load(Ordering::Relaxed),
            quarantine_entries: self.quarantine_entries.load(Ordering::Relaxed),
            quarantine_exits: self.quarantine_exits.load(Ordering::Relaxed),
            repairs_clean: self.repairs_clean.load(Ordering::Relaxed),
            repairs_rolled_back: self.repairs_rolled_back.load(Ordering::Relaxed),
            repairs_privatized: self.repairs_privatized.load(Ordering::Relaxed),
            recalls_posted: self.recalls_posted.load(Ordering::Relaxed),
            recalls_honoured: self.recalls_honoured.load(Ordering::Relaxed),
            recalls_expired: self.recalls_expired.load(Ordering::Relaxed),
        }
    }
}

/// What the repair pass did with one tainted file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Re-verification passed: the taint was stale, nothing to fix.
    Clean,
    /// Rolled back to the last verified checkpoint.
    RolledBack,
    /// No checkpoint existed; the file was expelled (privatized).
    Privatized,
}

/// Plain-value snapshot of [`ResilienceStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilienceSnapshot {
    /// Violation counts, indexed like [`VIOLATION_KINDS`].
    pub by_kind: [u64; VIOLATION_KINDS.len()],
    /// Violations classified repairable under the repair-or-reject contract.
    pub class_repairable: u64,
    /// Violations classified reject.
    pub class_reject: u64,
    /// Verification walks cut off by an explicit budget.
    pub walk_budget_hits: u64,
    /// Quarantine entries (one per offending LibFS containment).
    pub quarantine_entries: u64,
    /// Quarantine exits (re-admissions).
    pub quarantine_exits: u64,
    /// Repair outcomes.
    pub repairs_clean: u64,
    /// Files restored from checkpoint during repair.
    pub repairs_rolled_back: u64,
    /// Files privatized during repair.
    pub repairs_privatized: u64,
    /// Lease recalls posted to a holder's recall page.
    pub recalls_posted: u64,
    /// Recalled leases the holder let go of before expiry.
    pub recalls_honoured: u64,
    /// Recalled leases that ran to expiry and were revoked.
    pub recalls_expired: u64,
}

impl ResilienceSnapshot {
    /// Total violations recorded.
    pub fn total_violations(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    /// Hand-rolled JSON object (the workspace is dependency-free), in the
    /// style of `PathStatsSnapshot::to_json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"violations_by_kind\": {");
        let mut first = true;
        for (i, kind) in VIOLATION_KINDS.iter().enumerate() {
            if self.by_kind[i] == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{kind}\": {}", self.by_kind[i]));
        }
        out.push_str("},\n");
        let mut push = |k: &str, v: u64| {
            out.push_str(&format!("  \"{k}\": {v},\n"));
        };
        push("total_violations", self.total_violations());
        push("class_repairable", self.class_repairable);
        push("class_reject", self.class_reject);
        push("walk_budget_hits", self.walk_budget_hits);
        push("quarantine_entries", self.quarantine_entries);
        push("quarantine_exits", self.quarantine_exits);
        push("repairs_clean", self.repairs_clean);
        push("repairs_rolled_back", self.repairs_rolled_back);
        push("repairs_privatized", self.repairs_privatized);
        push("recalls_posted", self.recalls_posted);
        push("recalls_honoured", self.recalls_honoured);
        out.push_str(&format!("  \"recalls_expired\": {}\n", self.recalls_expired));
        out.push('}');
        out
    }
}

impl KernelController {
    /// Quarantines `offender` after a confirmed violation: strips its share
    /// of every file's mapping books, revokes all of its MMU grants
    /// wholesale, then restores only what it legitimately owns outright —
    /// its private pool pages and read access to the superblock — so its
    /// own journal and allocator keep working while it is contained. The
    /// files its unvetted writes may have touched become the tainted set;
    /// reads into them return `FsError::Quarantined` until the repair pass
    /// re-admits the actor (DESIGN.md §14).
    ///
    /// No-op when the offender is the kernel, unregistered (a departing
    /// actor is vetted by `unregister` itself), already quarantined, or
    /// when the kernel's own repair pass is what detected the violation.
    pub(crate) fn maybe_quarantine_locked(&self, reg: &mut Registry, offender: ActorId) {
        if reg.repairing
            || offender == KERNEL_ACTOR
            || !reg.actors.contains_key(&offender)
            || reg.quarantine.contains_key(&offender)
        {
            return;
        }
        let mut tainted: HashSet<Ino> = HashSet::new();
        let mut leases_ended: Vec<Ino> = Vec::new();
        for (ino, meta) in reg.files.iter_mut() {
            if meta.writer == Some(offender) {
                meta.writer = None;
                meta.lease_until = 0;
                meta.dirty_by = Some(offender);
                leases_ended.push(*ino);
            }
            meta.readers.remove(&offender);
            meta.mapped_pages.remove(&offender);
            if meta.dirty_by == Some(offender) {
                tainted.insert(*ino);
            }
        }
        for (ino, actor) in reg.pending_dirty.iter() {
            if *actor == offender {
                tainted.insert(*ino);
            }
        }
        // Mappers blocked on the offender's leases need not sit them out.
        for ino in leases_ended {
            self.end_lease_wait(reg, ino, offender, false);
        }
        self.device().revoke_actor(offender);
        // Its grant windows go with the MMU grants: a contained LibFS's
        // in-flight delegated writes must not keep reading its buffers.
        self.delegation().grants().revoke_actor(offender);
        let pool: Vec<PageId> = self
            .prov
            .collect_filter(|_, prov| prov == PageProvenance::AllocatedTo(offender))
            .into_iter()
            .map(|(p, _)| PageId(p))
            .collect();
        for p in pool {
            let _ = self.device().mmu_map(offender, p, PagePerm::Write);
        }
        let _ = self.device().mmu_map(offender, SUPERBLOCK_PAGE, PagePerm::Read);
        let _ = self.device().mmu_map(
            offender,
            trio_layout::superblock_replica_page(self.device().topology().total_pages()),
            PagePerm::Read,
        );
        let n = tainted.len();
        reg.quarantine_enter(offender, QuarantineInfo { tainted });
        self.quarantined_mirror.lock().insert(offender);
        self.push_event(KernelEvent::Quarantined { actor: offender, tainted: n });
        self.resilience_stats().record_quarantine_entry();
        crate::obs::quarantine_dump(offender.0);
        if self.config().auto_repair {
            self.repair_actor_locked(reg, offender);
        }
    }

    /// The repair pass for one quarantined LibFS: re-verifies every tainted
    /// file (rolling back or privatizing on failure, exactly like the
    /// verify-on-sharing path), then re-admits the actor. `reg.repairing`
    /// is set for the duration so failures inside the pass never re-enter
    /// quarantine.
    pub(crate) fn repair_actor_locked(&self, reg: &mut Registry, offender: ActorId) {
        let Some(info) = reg.quarantine_remove(offender) else {
            self.quarantined_mirror.lock().remove(&offender);
            return;
        };
        let mut tainted: Vec<Ino> = info.tainted.into_iter().collect();
        tainted.sort_unstable();
        reg.repairing = true;
        for ino in tainted {
            let dirty = reg.files.get(&ino).map(|m| m.dirty_by.is_some());
            let outcome = match dirty {
                // Expelled before the pass got here — damage stayed private.
                None => RepairOutcome::Privatized,
                // Rolled back (or never dirtied) since tainting: taint stale.
                Some(false) => RepairOutcome::Clean,
                Some(true) => {
                    if self.verify_file_locked(reg, ino) {
                        RepairOutcome::Clean
                    } else if reg.files.contains_key(&ino) {
                        RepairOutcome::RolledBack
                    } else {
                        RepairOutcome::Privatized
                    }
                }
            };
            self.resilience_stats().record_repair(outcome);
        }
        reg.repairing = false;
        self.quarantined_mirror.lock().remove(&offender);
        self.push_event(KernelEvent::Readmitted { actor: offender });
        self.resilience_stats().record_quarantine_exit();
    }

    /// Runs the repair pass for every quarantined LibFS and re-admits them,
    /// returning how many actors were repaired. With `auto_repair` on (the
    /// default) repair happens inline at detection and this returns 0; it
    /// is the manual-mode "background repair" hook.
    pub fn repair_quarantined(&self) -> usize {
        self.trap();
        let mut reg = self.reg_lock(RegistryLockSite::Quarantine);
        let mut actors: Vec<ActorId> = reg.quarantine.keys().copied().collect();
        actors.sort_unstable();
        for a in &actors {
            self.repair_actor_locked(&mut reg, *a);
        }
        actors.len()
    }

    /// Whether `actor` is currently quarantined.
    pub fn is_quarantined(&self, actor: ActorId) -> bool {
        self.quarantined_mirror.lock().contains(&actor)
    }

    /// Actors currently quarantined, sorted for deterministic tests.
    pub fn quarantined_actors(&self) -> Vec<ActorId> {
        let mut v: Vec<ActorId> = self.quarantined_mirror.lock().iter().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trio_layout::WalkError;

    #[test]
    fn violations_count_by_kind_and_class() {
        let s = ResilienceStats::new();
        s.record_violations(&[
            Violation::BadMode { raw: 0xFFFF },
            Violation::Structure(WalkError::IndexCycle(PageId(7))),
            Violation::Structure(WalkError::IndexCycle(PageId(7))),
        ]);
        let snap = s.snapshot();
        assert_eq!(snap.total_violations(), 3);
        assert_eq!(snap.class_repairable, 1);
        assert_eq!(snap.class_reject, 2);
        let structure_idx =
            VIOLATION_KINDS.iter().position(|k| *k == "structure").unwrap_or(usize::MAX);
        assert_eq!(snap.by_kind[structure_idx], 2);
    }

    #[test]
    fn json_shape() {
        let s = ResilienceStats::new();
        s.record_violations(&[Violation::BadName]);
        s.record_quarantine_entry();
        s.record_quarantine_exit();
        s.record_repair(RepairOutcome::RolledBack);
        s.record_budget_hit();
        s.record_recall_posted();
        s.record_recall_posted();
        s.record_recall_end(true);
        s.record_recall_end(false);
        let j = s.snapshot().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"recalls_posted\": 2,"));
        assert!(j.contains("\"recalls_honoured\": 1,"));
        assert!(j.ends_with("\"recalls_expired\": 1\n}"));
        assert!(j.contains("\"bad_name\": 1"));
        assert!(j.contains("\"quarantine_entries\": 1"));
        assert!(j.contains("\"repairs_rolled_back\": 1"));
        assert!(j.contains("\"walk_budget_hits\": 1"));
    }
}
