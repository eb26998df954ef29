//! Resilience counters for the adversarial containment path (DESIGN.md
//! §14): violations by kind, quarantine entries/exits, repair outcomes,
//! verification walk budgets hit, and how lease recalls ended (§21:
//! honoured by the holder, or left to expire). One [`ResilienceStats`] instance
//! lives in the kernel controller next to [`trio_nvm::PathStats`] so a
//! fuzz campaign (or an operator) can snapshot detection *and* repair
//! behaviour the same way benches snapshot the data path. Counters are
//! relaxed atomics and never charge virtual time.

use std::sync::atomic::{AtomicU64, Ordering};

use trio_layout::Ino;
use trio_nvm::{ActorId, PageId, PagePerm, RegistryLockSite, KERNEL_ACTOR};
use trio_sim::metrics::JsonObject;
use trio_sim::DetHashSet;
use trio_verifier::{PageProvenance, RepairClass, Violation, VIOLATION_KINDS};

use crate::mapping::GrantEnd;
use crate::registry::{KernelEvent, QuarantineInfo, Registry};
use crate::KernelController;

trio_sim::counters! {
    /// Shared relaxed-atomic counters for detection, quarantine, and repair.
    pub struct ResilienceStats => pub struct ResilienceSnapshot {
        /// Violations seen, indexed like [`VIOLATION_KINDS`].
        by_kind: [VIOLATION_KINDS.len()],
        /// Violations classified repairable under the repair-or-reject
        /// contract (with `class_reject`, sums to the total violation count).
        class_repairable,
        /// Violations classified reject.
        class_reject,
        /// Verification walks that hit an explicit budget (hostile graphs).
        walk_budget_hits,
        /// Quarantine entries (one per offending LibFS containment).
        quarantine_entries,
        /// Quarantine exits (re-admissions).
        quarantine_exits,
        /// Repair-pass outcomes per tainted file: re-verified clean.
        repairs_clean,
        /// Files restored from checkpoint during repair.
        repairs_rolled_back,
        /// Files privatized during repair.
        repairs_privatized,
        /// Lease recalls (DESIGN.md §21), one per (holder, file), posted to
        /// the holder's recall page.
        recalls_posted,
        /// Recalled leases the holder let go of before expiry.
        recalls_honoured,
        /// Recalled leases that ran to expiry with the mapper still waiting.
        recalls_expired,
    }
}

impl ResilienceStats {
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

impl ResilienceSnapshot {
    /// Total violations recorded.
    pub fn total_violations(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    /// JSON object: the non-zero violation kinds by name under
    /// `violations_by_kind`, their total, then one key per counter.
    pub fn to_json(&self) -> String {
        let mut w = JsonObject::new();
        self.visit(|name, v| {
            if name == "by_kind" {
                w.object("violations_by_kind", |o| {
                    for (kind, n) in VIOLATION_KINDS.iter().zip(self.by_kind) {
                        if n > 0 {
                            o.field(kind, n);
                        }
                    }
                });
                w.field("total_violations", self.total_violations());
            } else {
                w.value(name, v);
            }
        });
        w.finish()
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
        // Books and dirt through the one path every grant ends by (mappers
        // blocked on the offender's leases need not sit them out); the
        // tainted set is read off the marks, so it has the parents of what
        // the offender held for write in it too.
        self.end_grants_of(reg, offender, GrantEnd::Contained);
        let mut tainted: DetHashSet<Ino> = reg.dirt_of(offender).into_iter().collect();
        tainted.extend(reg.pending_dirty.iter().filter(|(_, a)| **a == offender).map(|(i, _)| *i));
        {
            let pt = self.page_table(offender);
            let ptes = pt.lock();
            ptes.revoke_all();
            for (p, _) in
                self.prov.collect_filter(|_, prov| prov == PageProvenance::AllocatedTo(offender))
            {
                let _ = ptes.remap(PageId(p), PagePerm::Write);
            }
            ptes.remap_superblock_window();
        }
        // Its grant windows go with the MMU grants: a contained LibFS's
        // in-flight delegated writes must not keep reading its buffers.
        self.delegation().grants().revoke_actor(offender);
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
            let outcome = match reg.files.contains_key(&ino).then(|| reg.vettable(ino)) {
                // Expelled before the pass got here — damage stayed private.
                None => RepairOutcome::Privatized,
                // Rolled back (or never dirtied) since tainting: taint stale.
                // Or in another LibFS's hands for write: the mark stays, and
                // whoever maps the file after that grant verifies it.
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
        assert!(j.contains("\"violations_by_kind\": {\"bad_name\": 1},"));
        assert!(j.contains("\"total_violations\": 1,"));
        assert!(j.contains("\"quarantine_entries\": 1"));
        assert!(j.contains("\"repairs_rolled_back\": 1"));
        assert!(j.contains("\"walk_budget_hits\": 1"));
    }
}
