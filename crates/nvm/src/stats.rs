//! Op-level data-path performance counters.
//!
//! One [`PathStats`] instance is shared by the kernel controller, its
//! delegation pool, and every mounted LibFS, so a bench can snapshot the
//! whole data path at once: how many bytes went through delegation vs
//! direct access, how often the adaptive policy picked each, how the ring
//! round-trip latency distributes, and how well the allocator fast path
//! is doing. Counters are relaxed atomics — the recording cost must stay
//! negligible next to the modeled media costs — and recording never
//! charges virtual time. The set is one [`trio_sim::counters!`]
//! declaration: a counter is named there and in its `record_*` method,
//! and a measured window is two snapshots and a `delta`.

use std::sync::atomic::{AtomicU64, Ordering};

use trio_sim::metrics::{bucket_index, quantile_ns, JsonObject};

/// Power-of-two histogram buckets for ring round-trip latency. Bucket `i`
/// covers `[2^i, 2^(i+1))` ns (zero-ns hops have their own dedicated
/// counter, so bucket 0 holds exactly the 1 ns hops); the last bucket is
/// open-ended. 24 buckets reach ~16 ms, far past the delegation deadline.
pub const HIST_BUCKETS: usize = 24;

/// Every call site that may take the kernel's registry control lock,
/// so a `registry_locks` regression is attributable to the path that
/// caused it instead of showing up as an anonymous aggregate (the
/// 450 → 642 regression this enum was written to diagnose was three
/// uninstrumented free/spill sites plus refill growth).
///
/// The headline `registry_locks` counter only counts the *hot* sites —
/// the ones on the steady-state alloc/free/truncate path that the perf
/// gate budgets. Control-plane sites (map, verify, register, scrub,
/// quarantine) are off the data path by design and tracked per-site
/// only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum RegistryLockSite {
    /// Allocator cache refill (hot; lock-free since the sharded refactor).
    AllocRefill,
    /// `free_pages` validation (hot; lock-free since the sharded refactor).
    Free,
    /// Cache high-water spill to the pools (hot; lock-free now).
    Spill,
    /// Truncate/unlink returning file pages whose provenance is still
    /// `InFile` (hot slow-path; the all-private fast path takes no lock).
    ReturnFile,
    /// Mapping a file into an actor.
    Map,
    /// Releasing a mapping.
    Release,
    /// Committing a shadow update.
    Commit,
    /// File reclaim (unlink of an adopted file).
    Reclaim,
    /// LibFS registration.
    Register,
    /// LibFS unregistration.
    Unregister,
    /// Administrative ops: setattr, update_root, ino grants.
    Admin,
    /// Full-tree fsck.
    Fsck,
    /// Patrol-scrub repair/migration (probe reads are lock-free).
    Scrub,
    /// Quarantine entry / repair / readmission.
    Quarantine,
}

impl RegistryLockSite {
    /// Number of distinct sites (array dimension).
    pub const COUNT: usize = 14;

    /// Every site, in counter-array order.
    pub const ALL: [RegistryLockSite; Self::COUNT] = [
        RegistryLockSite::AllocRefill,
        RegistryLockSite::Free,
        RegistryLockSite::Spill,
        RegistryLockSite::ReturnFile,
        RegistryLockSite::Map,
        RegistryLockSite::Release,
        RegistryLockSite::Commit,
        RegistryLockSite::Reclaim,
        RegistryLockSite::Register,
        RegistryLockSite::Unregister,
        RegistryLockSite::Admin,
        RegistryLockSite::Fsck,
        RegistryLockSite::Scrub,
        RegistryLockSite::Quarantine,
    ];

    /// Stable snake_case name (JSON key in `registry_lock_sites`).
    pub fn as_str(self) -> &'static str {
        match self {
            RegistryLockSite::AllocRefill => "alloc_refill",
            RegistryLockSite::Free => "free",
            RegistryLockSite::Spill => "spill",
            RegistryLockSite::ReturnFile => "return_file",
            RegistryLockSite::Map => "map",
            RegistryLockSite::Release => "release",
            RegistryLockSite::Commit => "commit",
            RegistryLockSite::Reclaim => "reclaim",
            RegistryLockSite::Register => "register",
            RegistryLockSite::Unregister => "unregister",
            RegistryLockSite::Admin => "admin",
            RegistryLockSite::Fsck => "fsck",
            RegistryLockSite::Scrub => "scrub",
            RegistryLockSite::Quarantine => "quarantine",
        }
    }

    /// Whether the site sits on the steady-state data path and therefore
    /// counts against the headline `registry_locks` budget.
    pub fn is_hot(self) -> bool {
        matches!(
            self,
            RegistryLockSite::AllocRefill
                | RegistryLockSite::Free
                | RegistryLockSite::Spill
                | RegistryLockSite::ReturnFile
        )
    }
}

trio_sim::counters! {
    /// Shared relaxed-atomic counters for the hot data path.
    pub struct PathStats => pub struct PathStatsSnapshot {
        // -- delegation client --
        delegated_read_bytes,
        delegated_write_bytes,
        direct_read_bytes,
        direct_write_bytes,
        /// Scatter-gather node-batches submitted to delegation rings.
        deleg_requests,
        /// Node-contiguous runs carried inside those batches.
        deleg_runs,
        /// Node-batches re-enqueued after a deadline miss.
        deleg_retries,
        /// Deadline misses observed by clients.
        deleg_timeouts,
        /// Whole ops that exhausted the attempt budget and went direct.
        deleg_fallbacks,
        /// Write-payload buffer materializations (one `Arc<[u8]>` per op on
        /// the zero-copy path; retries must not add to this).
        payload_copies,
        /// Submissions that found the ring full and had to block.
        ring_backpressure,
        /// Malformed / out-of-bounds delegation requests the workers refused
        /// to serve (hostile or corrupt run lists; see DESIGN.md §14).
        deleg_rejected,
        /// Payload bytes checksummed inline by a delegation worker's single
        /// write pass (DESIGN.md §17). On a healthy path this equals
        /// `delegated_write_bytes`: every delegated byte was hashed on its way
        /// into NVM, for free.
        checksummed_bytes,
        /// Grant windows registered (persistent buffer registrations and
        /// transient per-op grants alike).
        grant_registers,
        /// Grant windows revoked (completion, fallback, unregister, quarantine).
        grant_revokes,
        /// Requests refused because their grant was missing, foreign, revoked,
        /// or mutated mid-flight — the submitter broke the grant contract.
        grant_faults,
        /// Ring round-trip latency (submit → reply) histogram.
        ring_hop_hist: [HIST_BUCKETS],
        /// Ring hops measured at exactly 0 ns (same-instant reply in virtual
        /// time). Kept out of the log buckets so a zero-cost sim hop is never
        /// aliased with a 1 ns one.
        ring_hop_zero,
        // -- adaptive policy --
        /// Policy decisions that kept an eligible access on the direct path.
        adaptive_direct,
        /// Policy decisions that sent an access through delegation.
        adaptive_delegated,
        // -- kernel allocator --
        /// `alloc_pages` calls served entirely from the per-actor cache.
        alloc_fast_hits,
        /// Batch refills of a per-actor cache from the global pools.
        alloc_refills,
        /// Pages moved by those refills.
        alloc_refill_pages,
        /// Pages `alloc_pages` mapped to their new owner: the PTEs
        /// allocation programmed, whichever cache or pool supplied the frame.
        alloc_mapped_pages,
        /// Freed pages parked in the per-actor cache.
        free_cached,
        /// Freed pages spilled past the cache high-water mark to the pools.
        free_spills,
        /// Global registry lock acquisitions on the alloc/free path.
        registry_locks,
        /// Per-call-site registry lock acquisitions (attribution for the
        /// headline counter; indexed by [`RegistryLockSite`]).
        registry_lock_sites: [RegistryLockSite::COUNT],
        /// Kernel events evicted from the bounded event ring by overflow.
        events_dropped,
        // -- failure domains --
        /// Delegation workers observed dead by the watchdog.
        worker_deaths,
        /// Dead workers respawned by the watchdog.
        worker_restarts,
        /// Transitions into degraded (direct-access) mode.
        degraded_enters,
        /// Transitions back out of degraded mode.
        degraded_exits,
        /// Allocation-cache refills retried after transient exhaustion.
        refill_retries,
        /// Lease-wait retries on the mapping path.
        lease_retries,
        // -- LibFS auxiliary state (DESIGN.md §22) --
        /// Maps at which the LibFS kept the auxiliary state it had.
        aux_reuses,
        /// Maps at which it rebuilt the auxiliary state from core state.
        aux_rebuilds,
    }
}

impl PathStats {
    #[inline]
    fn bump(c: &AtomicU64, by: u64) {
        c.fetch_add(by, Ordering::Relaxed);
    }

    /// Bytes moved through the delegation path.
    #[inline]
    pub fn record_delegated_bytes(&self, bytes: usize, is_write: bool) {
        let c = if is_write { &self.delegated_write_bytes } else { &self.delegated_read_bytes };
        Self::bump(c, bytes as u64);
    }

    /// Bytes moved by direct (non-delegated) access.
    #[inline]
    pub fn record_direct_bytes(&self, bytes: usize, is_write: bool) {
        let c = if is_write { &self.direct_write_bytes } else { &self.direct_read_bytes };
        Self::bump(c, bytes as u64);
    }

    /// One scatter-gather node-batch carrying `runs` runs was submitted.
    #[inline]
    pub fn record_submission(&self, runs: usize) {
        Self::bump(&self.deleg_requests, 1);
        Self::bump(&self.deleg_runs, runs as u64);
    }

    /// A node-batch was re-enqueued after a deadline miss.
    #[inline]
    pub fn record_retry(&self) {
        Self::bump(&self.deleg_retries, 1);
    }

    /// A client-side deadline miss.
    #[inline]
    pub fn record_timeout(&self) {
        Self::bump(&self.deleg_timeouts, 1);
    }

    /// A whole op gave up on delegation and went direct.
    #[inline]
    pub fn record_fallback(&self) {
        Self::bump(&self.deleg_fallbacks, 1);
    }

    /// A write payload buffer was materialized (copied).
    #[inline]
    pub fn record_payload_copy(&self) {
        Self::bump(&self.payload_copies, 1);
    }

    /// A submission found its ring full.
    #[inline]
    pub fn record_ring_backpressure(&self) {
        Self::bump(&self.ring_backpressure, 1);
    }

    /// A delegation worker refused a malformed request.
    #[inline]
    pub fn record_deleg_rejected(&self) {
        Self::bump(&self.deleg_rejected, 1);
    }

    /// A delegation worker folded `bytes` payload bytes into the inline
    /// streaming checksum during its write pass.
    #[inline]
    pub fn record_checksummed_bytes(&self, bytes: usize) {
        Self::bump(&self.checksummed_bytes, bytes as u64);
    }

    /// A grant window was registered.
    #[inline]
    pub fn record_grant_register(&self) {
        Self::bump(&self.grant_registers, 1);
    }

    /// A grant window was revoked.
    #[inline]
    pub fn record_grant_revoke(&self) {
        Self::bump(&self.grant_revokes, 1);
    }

    /// A request was refused over a missing/foreign/revoked/stale grant.
    #[inline]
    pub fn record_grant_fault(&self) {
        Self::bump(&self.grant_faults, 1);
    }

    /// Ring round-trip (submit → reply) of `ns` nanoseconds.
    #[inline]
    pub fn record_ring_hop(&self, ns: u64) {
        if ns == 0 {
            Self::bump(&self.ring_hop_zero, 1);
            return;
        }
        Self::bump(&self.ring_hop_hist[bucket_index(ns, HIST_BUCKETS)], 1);
    }

    /// The adaptive policy routed an eligible access.
    #[inline]
    pub fn record_adaptive(&self, delegated: bool) {
        let c = if delegated { &self.adaptive_delegated } else { &self.adaptive_direct };
        Self::bump(c, 1);
    }

    /// `alloc_pages` served from the per-actor cache without touching the
    /// global pools or registry.
    #[inline]
    pub fn record_alloc_fast_hit(&self) {
        Self::bump(&self.alloc_fast_hits, 1);
    }

    /// A batch refill moved `pages` pages into a per-actor cache.
    #[inline]
    pub fn record_alloc_refill(&self, pages: usize) {
        Self::bump(&self.alloc_refills, 1);
        Self::bump(&self.alloc_refill_pages, pages as u64);
    }

    /// One `alloc_pages` call mapped `pages` pages to the caller.
    #[inline]
    pub fn record_alloc_mapped(&self, pages: usize) {
        Self::bump(&self.alloc_mapped_pages, pages as u64);
    }

    /// Freed pages parked in the cache / spilled to the global pools.
    #[inline]
    pub fn record_free(&self, cached: usize, spilled: usize) {
        Self::bump(&self.free_cached, cached as u64);
        Self::bump(&self.free_spills, spilled as u64);
    }

    /// The registry control lock was taken at `site`. Always attributed
    /// per-site; only hot (data-path) sites feed the headline
    /// `registry_locks` counter the perf gate budgets.
    #[inline]
    pub fn record_registry_lock_site(&self, site: RegistryLockSite) {
        Self::bump(&self.registry_lock_sites[site as usize], 1);
        if site.is_hot() {
            Self::bump(&self.registry_locks, 1);
        }
    }

    /// The bounded kernel event ring evicted its oldest entry.
    #[inline]
    pub fn record_event_dropped(&self) {
        Self::bump(&self.events_dropped, 1);
    }

    /// The watchdog confirmed a delegation worker dead.
    #[inline]
    pub fn record_worker_death(&self) {
        Self::bump(&self.worker_deaths, 1);
    }

    /// The watchdog respawned a dead worker.
    #[inline]
    pub fn record_worker_restart(&self) {
        Self::bump(&self.worker_restarts, 1);
    }

    /// The pool entered or left degraded (direct-access) mode.
    #[inline]
    pub fn record_degraded(&self, entered: bool) {
        let c = if entered { &self.degraded_enters } else { &self.degraded_exits };
        Self::bump(c, 1);
    }

    /// An allocation-cache refill was retried after exhaustion.
    #[inline]
    pub fn record_refill_retry(&self) {
        Self::bump(&self.refill_retries, 1);
    }

    /// A mapping-path lease wait was retried.
    #[inline]
    pub fn record_lease_retry(&self) {
        Self::bump(&self.lease_retries, 1);
    }

    /// A map reused the LibFS's auxiliary state, or rebuilt it.
    #[inline]
    pub fn record_aux(&self, reused: bool) {
        Self::bump(if reused { &self.aux_reuses } else { &self.aux_rebuilds }, 1);
    }
}

impl PathStatsSnapshot {
    /// Registry-lock acquisitions attributed to one call site.
    pub fn registry_lock_site(&self, site: RegistryLockSite) -> u64 {
        self.registry_lock_sites[site as usize]
    }

    /// Fraction of `alloc_pages` calls served from the per-actor cache.
    pub fn alloc_fast_hit_rate(&self) -> f64 {
        let total = self.alloc_fast_hits + self.alloc_refills;
        if total == 0 {
            0.0
        } else {
            self.alloc_fast_hits as f64 / total as f64
        }
    }

    /// Median ring hop latency (geometric bucket midpoint), in ns.
    pub fn ring_hop_p50_ns(&self) -> u64 {
        quantile_ns(self.ring_hop_zero, &self.ring_hop_hist, 1, 2)
    }

    /// 99th-percentile ring hop latency (geometric bucket midpoint), in ns.
    pub fn ring_hop_p99_ns(&self) -> u64 {
        quantile_ns(self.ring_hop_zero, &self.ring_hop_hist, 99, 100)
    }

    /// JSON object with one key per counter (the call sites by name under
    /// `registry_lock_sites`) plus the derived hit rate and ring-hop
    /// quantiles. Keys are stable; `extra` prepends caller context such as
    /// bench geometry, each value already JSON text.
    pub fn to_json(&self, extra: &[(&str, String)]) -> String {
        let mut w = JsonObject::new();
        for (k, v) in extra {
            w.field(k, v);
        }
        self.visit(|name, v| {
            if name == "registry_lock_sites" {
                w.object(name, |o| {
                    for site in RegistryLockSite::ALL {
                        o.field(site.as_str(), self.registry_lock_site(site));
                    }
                });
            } else {
                w.value(name, v);
            }
        });
        w.field("alloc_fast_hit_rate", format_args!("{:.4}", self.alloc_fast_hit_rate()));
        w.field("ring_hop_p50_ns", self.ring_hop_p50_ns());
        w.field("ring_hop_p99_ns", self.ring_hop_p99_ns());
        w.finish()
    }

    /// One-line human summary for bench footers.
    pub fn summary_line(&self) -> String {
        format!(
            "path: deleg {:.1} MiB w / {:.1} MiB r, direct {:.1} MiB w / {:.1} MiB r | \
             batches {} (runs {}), retries {}, fallbacks {}, backpressure {} | \
             ring p50/p99 {}/{} ns | alloc hit {:.0}%, registry locks {}",
            self.delegated_write_bytes as f64 / (1 << 20) as f64,
            self.delegated_read_bytes as f64 / (1 << 20) as f64,
            self.direct_write_bytes as f64 / (1 << 20) as f64,
            self.direct_read_bytes as f64 / (1 << 20) as f64,
            self.deleg_requests,
            self.deleg_runs,
            self.deleg_retries,
            self.deleg_fallbacks,
            self.ring_backpressure,
            self.ring_hop_p50_ns(),
            self.ring_hop_p99_ns(),
            self.alloc_fast_hit_rate() * 100.0,
            self.registry_locks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_roundtrip_through_snapshot() {
        let s = PathStats::new();
        s.record_delegated_bytes(4096, true);
        s.record_delegated_bytes(100, false);
        s.record_direct_bytes(64, true);
        s.record_submission(3);
        s.record_retry();
        s.record_timeout();
        s.record_fallback();
        s.record_payload_copy();
        s.record_checksummed_bytes(4096);
        s.record_grant_register();
        s.record_grant_register();
        s.record_grant_revoke();
        s.record_grant_fault();
        s.record_ring_backpressure();
        s.record_adaptive(true);
        s.record_adaptive(false);
        s.record_alloc_fast_hit();
        s.record_alloc_refill(64);
        s.record_alloc_mapped(16);
        s.record_free(10, 2);
        s.record_registry_lock_site(RegistryLockSite::AllocRefill); // hot: headline too
        s.record_registry_lock_site(RegistryLockSite::Fsck); // cold: site only
        s.record_event_dropped();
        s.record_worker_death();
        s.record_worker_restart();
        s.record_degraded(true);
        s.record_degraded(false);
        s.record_refill_retry();
        s.record_lease_retry();
        s.record_aux(true);
        s.record_aux(false);
        s.record_aux(false);
        let snap = s.snapshot();
        assert_eq!(snap.delegated_write_bytes, 4096);
        assert_eq!(snap.delegated_read_bytes, 100);
        assert_eq!(snap.direct_write_bytes, 64);
        assert_eq!(snap.deleg_requests, 1);
        assert_eq!(snap.deleg_runs, 3);
        assert_eq!(snap.deleg_retries, 1);
        assert_eq!(snap.deleg_timeouts, 1);
        assert_eq!(snap.deleg_fallbacks, 1);
        assert_eq!(snap.payload_copies, 1);
        assert_eq!(snap.checksummed_bytes, 4096);
        assert_eq!(snap.grant_registers, 2);
        assert_eq!(snap.grant_revokes, 1);
        assert_eq!(snap.grant_faults, 1);
        assert_eq!(snap.ring_backpressure, 1);
        assert_eq!(snap.adaptive_delegated, 1);
        assert_eq!(snap.adaptive_direct, 1);
        assert_eq!(snap.alloc_fast_hits, 1);
        assert_eq!(snap.alloc_refills, 1);
        assert_eq!(snap.alloc_refill_pages, 64);
        assert_eq!(snap.alloc_mapped_pages, 16);
        assert_eq!(snap.free_cached, 10);
        assert_eq!(snap.free_spills, 2);
        assert_eq!(snap.registry_locks, 1, "only the hot site feeds the headline counter");
        assert_eq!(snap.registry_lock_site(RegistryLockSite::AllocRefill), 1);
        assert_eq!(snap.registry_lock_site(RegistryLockSite::Fsck), 1);
        assert_eq!(snap.registry_lock_site(RegistryLockSite::Scrub), 0);
        assert_eq!(snap.events_dropped, 1);
        assert_eq!(snap.worker_deaths, 1);
        assert_eq!(snap.worker_restarts, 1);
        assert_eq!(snap.degraded_enters, 1);
        assert_eq!(snap.degraded_exits, 1);
        assert_eq!(snap.refill_retries, 1);
        assert_eq!(snap.lease_retries, 1);
        assert_eq!((snap.aux_reuses, snap.aux_rebuilds), (1, 2));
    }

    #[test]
    fn p50_and_hit_rate() {
        let s = PathStats::new();
        for _ in 0..3 {
            s.record_ring_hop(512); // bucket 9, midpoint 512·√2 = 724
        }
        s.record_ring_hop(100_000);
        assert_eq!(s.snapshot().ring_hop_p50_ns(), 724);
        for _ in 0..9 {
            s.record_alloc_fast_hit();
        }
        s.record_alloc_refill(64);
        let snap = s.snapshot();
        assert!((snap.alloc_fast_hit_rate() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn zero_ns_hops_do_not_alias_one_ns_hops() {
        let s = PathStats::new();
        s.record_ring_hop(0);
        s.record_ring_hop(0);
        s.record_ring_hop(1);
        let snap = s.snapshot();
        assert_eq!(snap.ring_hop_zero, 2);
        assert_eq!(snap.ring_hop_hist[0], 1);
    }
}
