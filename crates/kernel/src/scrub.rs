//! Patrol scrub, checksum-driven self-healing, and bad-page retirement
//! (DESIGN.md §19).
//!
//! The kernel is the only component allowed to rewrite media behind the
//! MMU's back, so it owns the background **patrol scrubber**: a budgeted
//! walk over the device that probes every page for the two media failure
//! modes — *poison* (a line the device refuses to read) and *rot* (bytes
//! that no longer hash to their recorded integrity sidecar) — and routes
//! each hit to the strongest repair the page's role allows:
//!
//! | page class                | route                                     |
//! |---------------------------|-------------------------------------------|
//! | superblock / replica      | twin repair under the kernel's `sb_lock`  |
//! | registered journal twin   | rewrite the bad copy from the good one,   |
//! |                           | under the shard lock (`try_lock`: an      |
//! |                           | armed in-flight rename is recovery's job) |
//! | `InFile` page             | re-verify the file: the I1–I4 walk now    |
//! |                           | rejects unreadable checksummed data, so   |
//! |                           | rollback restores the last checkpoint     |
//! | `AllocatedTo` (LibFS pool)| count only — the bytes may be live        |
//! |                           | unvetted file data the kernel must not    |
//! |                           | touch; retirement diverts the page when   |
//! |                           | it next flows through a free path         |
//! | free pool                 | durable scrub (`reset_page`)              |
//!
//! Rot with no replica and no checkpoint image (regular-file data) cannot
//! be healed; the scrubber **fences the page off** — marks every line
//! unreadable — so later reads fail loudly instead of returning wrong
//! bytes. Pages that keep faulting accumulate a per-page count; at
//! `RETIRE_FAULT_THRESHOLD` the page is *retired*:
//! pulled from the free pool, or migrated (content + sidecar moved to a
//! fresh page, index slot swung, mappings re-pointed) and then taken out
//! of circulation. The allocator's conservation ledger becomes
//! `free + cached + retired`. Retirement is volatile bookkeeping — a real
//! system persists a bad-block table; here a reboot re-learns faults from
//! fresh observations.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use trio_layout::{
    superblock::SUPERBLOCK_PAGE, superblock_replica_page, CoreFileType, IndexPageRef,
    SbHealth, SuperblockRef,
};
use trio_nvm::{ActorId, PageId, RegistryLockSite, CACHE_LINE, HIST_BUCKETS, KERNEL_ACTOR};
use trio_sim::metrics::{bucket_index, quantile_ns};
use trio_sim::sync::SimMutex;
use trio_sim::{now_or_zero, Nanos};
use trio_verifier::PageProvenance;

use crate::alloc::PutBack;
use crate::registry::Dirty;
use crate::KernelController;

/// Media-fault observations a page may accumulate before the patrol
/// scrubber retires it.
const RETIRE_FAULT_THRESHOLD: u32 = 3;

/// Pages one patrol pass probes when the caller names no budget (the
/// budget bounds background interference with the data path).
const SCRUB_BUDGET_PAGES: usize = 256;

/// One shard's registered journal mirror pair: the pages, their owner,
/// the shard lock shared with the LibFS (mutual exclusion against
/// arm/disarm), and the format knowledge the kernel borrows — a raw-image
/// body validator plus the number of leading lines the record occupies
/// (poison beyond them is dead bytes, not data loss).
#[derive(Clone)]
pub(crate) struct JournalTwin {
    pub(crate) actor: ActorId,
    pub(crate) primary: PageId,
    pub(crate) mirror: PageId,
    pub(crate) valid: fn(&[u8]) -> bool,
    pub(crate) used_lines: u16,
    pub(crate) slot: Arc<SimMutex<Option<(PageId, PageId)>>>,
}

/// What one [`KernelController::scrub_pass`] found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Pages probed this pass.
    pub scanned: u64,
    /// Poisoned lines observed (before repair).
    pub poison_lines: u64,
    /// Pages whose sidecar checksum no longer matched.
    pub rot_pages: u64,
    /// Superblock twin repairs (either copy rewritten or resynced).
    pub sb_repairs: u64,
    /// Journal twin copies rewritten from their healthy sibling.
    pub journal_repairs: u64,
    /// Files routed through verification (rollback on rejection).
    pub files_routed: u64,
    /// Free-pool pages durably scrubbed clean.
    pub pool_scrubs: u64,
    /// Provably-wrong pages fenced off (every line marked unreadable).
    pub fenced_off: u64,
    /// Pages migrated to a fresh frame before retirement.
    pub migrated: u64,
    /// Pages retired this pass.
    pub retired: u64,
    /// Faults with no healthy source left (both twins dead).
    pub unrecoverable: u64,
}

impl ScrubReport {
    /// Total media faults observed (poisoned lines + rotted pages).
    pub fn faults(&self) -> u64 {
        self.poison_lines + self.rot_pages
    }
}

trio_sim::counters! {
    /// Media-fault counters (DESIGN.md §19), the media companion to
    /// [`trio_nvm::PathStats`]: lifetime scrub/repair totals plus a log-2
    /// histogram of repair latencies. All relaxed atomics — the scrubber must
    /// never impose ordering on the data path.
    pub struct MediaStats => pub struct MediaStatsSnapshot {
        scrub_passes,
        pages_scanned,
        poison_lines_found,
        rot_pages_found,
        sb_repairs,
        journal_repairs,
        files_routed,
        pool_scrubs,
        pages_fenced_off,
        pages_migrated,
        pages_retired,
        unrecoverable,
        /// Repair latencies (0 ns shares bucket 0 with 1 ns).
        repair_hist: [HIST_BUCKETS],
    }
}

impl MediaStats {
    pub(crate) fn record_pass(&self, scanned: u64) {
        self.scrub_passes.fetch_add(1, Ordering::Relaxed);
        self.pages_scanned.fetch_add(scanned, Ordering::Relaxed);
    }

    pub(crate) fn record_faults(&self, poison_lines: u64, rot_pages: u64) {
        self.poison_lines_found.fetch_add(poison_lines, Ordering::Relaxed);
        self.rot_pages_found.fetch_add(rot_pages, Ordering::Relaxed);
    }

    /// Faults with nothing left to heal from: both twins dead, or dirent
    /// slots `recover` found under a poisoned line.
    pub(crate) fn record_unrecoverable(&self, n: u64) {
        self.unrecoverable.fetch_add(n, Ordering::Relaxed);
    }

    /// A frame left circulation for good.
    pub(crate) fn record_retired(&self) {
        self.record_repair(&self.pages_retired, 1);
    }

    pub(crate) fn record_repair(&self, counter: &AtomicU64, latency_ns: u64) {
        counter.fetch_add(1, Ordering::Relaxed);
        self.repair_hist[bucket_index(latency_ns, HIST_BUCKETS)].fetch_add(1, Ordering::Relaxed);
    }
}

impl MediaStatsSnapshot {
    /// Total repairs recorded in the latency histogram.
    pub fn repairs(&self) -> u64 {
        self.repair_hist.iter().sum()
    }

    /// Median repair latency (geometric bucket midpoint; 0 when no repair
    /// has been recorded), in ns.
    pub fn repair_p50_ns(&self) -> u64 {
        quantile_ns(0, &self.repair_hist, 1, 2)
    }

}

/// Handle to a running patrol daemon; stop it before the simulation runs
/// out of work (a patrol loop never finishes on its own).
pub struct PatrolHandle {
    stop: Arc<AtomicBool>,
    join: Option<trio_sim::JoinHandle>,
}

impl PatrolHandle {
    /// Signals the daemon and joins it (call from inside the simulation).
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            j.join();
        }
    }
}

impl KernelController {
    /// One budgeted patrol pass: probes `budget` pages starting at the
    /// persistent cursor (wrapping), repairs what it can, and reports.
    /// Safe to run concurrently with live traffic — every route takes the
    /// same locks the foreground paths do.
    pub fn scrub_pass(&self, budget: usize) -> ScrubReport {
        self.trap();
        let t0 = crate::obs::scrub_pass_begin();
        // Pin the reclamation epoch for the pass: the scrubber's provenance
        // probes race the allocator's epoch GC, and the pin keeps any page
        // the pass observes from being recycled out from under it.
        let _pin = self.alloc.epoch_pin();
        let total = self.dev.topology().total_pages();
        let budget = (budget.max(1) as u64).min(total);
        let start = self.scrub_cursor.fetch_add(budget, Ordering::Relaxed) % total;
        let mut rep = ScrubReport::default();
        for i in 0..budget {
            self.scrub_one(PageId((start + i) % total), &mut rep);
        }
        rep.scanned = budget;
        self.media.record_pass(budget);
        self.media.record_faults(rep.poison_lines, rep.rot_pages);
        crate::obs::scrub_pass_end(budget, rep.faults(), t0);
        rep
    }

    /// Spawns the patrol daemon: a low-priority sim-thread running
    /// [`KernelController::scrub_pass`] every `interval_ns` of virtual
    /// time (`budget` pages per pass; 0 means `SCRUB_BUDGET_PAGES`). Opt-in
    /// — nothing starts it implicitly, so workloads that never call this
    /// carry zero scrub overhead.
    pub fn start_patrol(self: &Arc<Self>, budget: usize, interval_ns: Nanos) -> PatrolHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let me = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let budget = if budget == 0 { SCRUB_BUDGET_PAGES } else { budget };
        let join = trio_sim::spawn("patrol-scrub", move || {
            while !flag.load(Ordering::SeqCst) {
                me.scrub_pass(budget);
                trio_sim::work(interval_ns.max(1));
            }
        });
        PatrolHandle { stop, join: Some(join) }
    }

    /// Lifetime media counters.
    pub fn media_stats(&self) -> &Arc<MediaStats> {
        &self.media
    }

    /// Pages taken out of circulation by retirement. Conservation under
    /// media faults: `free + cached + retired` plus the pages reachable
    /// from files accounts for every page.
    pub fn retired_page_count(&self) -> usize {
        self.alloc.retired_count()
    }

    /// Registers a journal mirror pair for patrol twin repair. Both pages
    /// must be pool pages of `actor` (`AllocatedTo`), and stay validated
    /// at repair time too — a hostile re-registration after freeing the
    /// pages cannot aim the repairer at someone else's data. `valid`
    /// judges a raw page image's record body; `used_lines` bounds the
    /// lines the record occupies (poison past them is dead bytes). `slot`
    /// is the shard's own lock, shared so repair excludes arm/disarm.
    pub fn register_journal_twin(
        &self,
        actor: ActorId,
        primary: PageId,
        mirror: PageId,
        valid: fn(&[u8]) -> bool,
        used_lines: u16,
        slot: Arc<SimMutex<Option<(PageId, PageId)>>>,
    ) -> trio_fsapi::FsResult<()> {
        self.trap();
        if primary == mirror {
            return Err(trio_fsapi::FsError::InvalidArgument);
        }
        // Provenance lives in the sharded maps now; no control lock needed.
        for p in [primary, mirror] {
            match self.prov.get(p.0) {
                Some(PageProvenance::AllocatedTo(a)) if a == actor => {}
                _ => return Err(trio_fsapi::FsError::PermissionDenied),
            }
        }
        let twin = JournalTwin { actor, primary, mirror, valid, used_lines, slot };
        let mut twins = self.journal_twins.lock();
        twins.insert(primary.0, twin.clone());
        twins.insert(mirror.0, twin);
        Ok(())
    }

    // -----------------------------------------------------------------
    // One page.
    // -----------------------------------------------------------------

    fn scrub_one(&self, page: PageId, rep: &mut ScrubReport) {
        let total = self.dev.topology().total_pages();
        if page == SUPERBLOCK_PAGE || page == superblock_replica_page(total) {
            self.scrub_superblock(page, rep);
            return;
        }
        if self.alloc.is_retired(page) {
            return;
        }
        let poison = self.dev.page_poisoned_lines(page);
        let rot = matches!(self.dev.page_csum_ok(page), Ok(Some(false)));
        if poison.is_empty() && !rot {
            // A historically flaky page that is clean right now is the
            // ideal retirement candidate — its contents can be moved
            // whole. (While faulty it can only be counted or fenced.)
            let faults = self.fault_counts.lock().get(&page.0).copied().unwrap_or(0);
            if faults >= RETIRE_FAULT_THRESHOLD {
                self.try_retire(page, rep);
            }
            return;
        }
        rep.poison_lines += poison.len() as u64;
        if rot {
            rep.rot_pages += 1;
        }
        let twin = self.journal_twins.lock().get(&page.0).cloned();
        if let Some(t) = twin {
            self.repair_journal_twin(&t, rep);
            self.note_page_fault(page, rep);
            return;
        }
        let prov = self.prov.get(page.0);
        match prov {
            Some(PageProvenance::InFile(ino)) => self.repair_file_page(page, ino, rep),
            Some(PageProvenance::AllocatedTo(_)) | Some(PageProvenance::Kernel) => {
                // A LibFS pool page may hold live, not-yet-verified file
                // data; the kernel must neither read nor rewrite it. The
                // owner sees poison as a typed error already; retirement
                // picks the page up when it next flows through a free
                // path. Rot is the exception: a valid sidecar proving the
                // bytes wrong would otherwise keep serving silently, so
                // fence the page off — loud beats wrong.
                if rot && self.dev.fence_off_page(page) > 0 {
                    rep.fenced_off += 1;
                    self.media.pages_fenced_off.fetch_add(1, Ordering::Relaxed);
                }
            }
            Some(PageProvenance::Free) | None => {
                let t0 = crate::obs::repair_begin(page.0);
                let t = now_or_zero();
                // lint: allow(page-table-door) the books give the frame to nobody
                if self.dev.reset_page(page).is_ok() {
                    rep.pool_scrubs += 1;
                    self.media
                        .record_repair(&self.media.pool_scrubs, now_or_zero().saturating_sub(t));
                }
                crate::obs::repair_end(page.0, 3, t0);
            }
        }
        self.note_page_fault(page, rep);
    }

    /// Superblock health: twin repair under the kernel's superblock write
    /// lock, plus durable zero-rewrites of poisoned lines outside the
    /// sealed record (line 0) — those bytes are dead, only the poison
    /// bookkeeping matters.
    fn scrub_superblock(&self, page: PageId, rep: &mut ScrubReport) {
        let poison = self.dev.page_poisoned_lines(page);
        let t = now_or_zero();
        let health = {
            let _g = self.sb_lock.lock();
            SuperblockRef::new(&self.kh).scrub()
        };
        let repaired = !matches!(health, Ok(SbHealth::Clean));
        if poison.is_empty() && !repaired {
            return;
        }
        let t0 = crate::obs::repair_begin(page.0);
        rep.poison_lines += poison.len() as u64;
        match health {
            Ok(SbHealth::Clean) => {}
            Ok(SbHealth::Degraded) | Err(_) => {
                // Neither copy validates (double fault): nothing to heal
                // from.
                rep.unrecoverable += 1;
                self.media.record_unrecoverable(1);
            }
            Ok(_) => {
                rep.sb_repairs += 1;
                self.media.record_repair(&self.media.sb_repairs, now_or_zero().saturating_sub(t));
            }
        }
        for line in poison {
            if line == 0 {
                continue; // The record line: `scrub()` above owns it.
            }
            let z = [0u8; CACHE_LINE];
            if let Ok(d) = self.kh.write_dirty(page, line as usize * CACHE_LINE, &z) {
                let _durable = self.kh.persist_dirty(d);
            }
        }
        crate::obs::repair_end(page.0, 0, t0);
    }

    /// Twin repair of a registered journal pair. The shard lock is
    /// `try_lock`ed: if a rename holds it the record is armed in-flight
    /// and crash recovery's `recover_pairs` owns that case; the scrubber
    /// simply comes back next pass.
    fn repair_journal_twin(&self, t: &JournalTwin, rep: &mut ScrubReport) {
        let Some(slot) = t.slot.try_lock() else {
            return;
        };
        if *slot != Some((t.primary, t.mirror)) {
            return;
        }
        // Re-validate provenance at repair time (see registration).
        for p in [t.primary, t.mirror] {
            match self.prov.get(p.0) {
                Some(PageProvenance::AllocatedTo(a)) if a == t.actor => {}
                _ => return,
            }
        }
        let (Ok(praw), Ok(mraw)) =
            (self.dev.snapshot_page(t.primary), self.dev.snapshot_page(t.mirror))
        else {
            return;
        };
        let p_pois = self.dev.page_poisoned_lines(t.primary);
        let m_pois = self.dev.page_poisoned_lines(t.mirror);
        let p_lost = p_pois.iter().any(|l| *l < t.used_lines);
        let m_lost = m_pois.iter().any(|l| *l < t.used_lines);
        let pok = !p_lost && (t.valid)(&praw);
        let mok = !m_lost && (t.valid)(&mraw);
        let t0 = crate::obs::repair_begin(t.primary.0);
        let tns = now_or_zero();
        let mut fixed = 0u64;
        match (pok, mok) {
            (true, _) => {
                // Primary is the healthy source (primary wins on a valid
                // divergence, matching the superblock's rule).
                if (!mok || !m_pois.is_empty() || praw != mraw)
                    && self.dev.restore_page(t.mirror, &praw).is_ok()
                {
                    fixed += 1;
                }
                if !p_pois.is_empty() && self.dev.restore_page(t.primary, &praw).is_ok() {
                    // Poison past the record: a self-rewrite of dead bytes.
                    fixed += 1;
                }
            }
            (false, true) => {
                if self.dev.restore_page(t.primary, &mraw).is_ok() {
                    fixed += 1;
                }
                if !m_pois.is_empty() && self.dev.restore_page(t.mirror, &mraw).is_ok() {
                    fixed += 1;
                }
            }
            (false, false) => {
                rep.unrecoverable += 1;
                self.media.record_unrecoverable(1);
            }
        }
        if fixed > 0 {
            rep.journal_repairs += fixed;
            for _ in 0..fixed {
                self.media
                    .record_repair(&self.media.journal_repairs, now_or_zero().saturating_sub(tns));
            }
        }
        crate::obs::repair_end(t.primary.0, 1, t0);
    }

    /// A faulty page inside a verified file: force the file back through
    /// verification attributed to the kernel (so no innocent LibFS is
    /// quarantined). Rejection rolls the file back to its checkpoint,
    /// whose `restore_page` rewrites repair the media. Rot that survives
    /// (regular-file data has no checkpoint image) is fenced off so reads
    /// fail loudly instead of returning wrong bytes.
    fn repair_file_page(&self, page: PageId, ino: trio_layout::Ino, rep: &mut ScrubReport) {
        let t0 = crate::obs::repair_begin(page.0);
        let tns = now_or_zero();
        {
            let mut reg = self.reg_lock(RegistryLockSite::Scrub);
            if self.prov.get(page.0) == Some(PageProvenance::InFile(ino)) {
                if let Some(meta) = reg.files.get_mut(&ino) {
                    if meta.dirty.is_clean() {
                        meta.dirty = Dirty::By(KERNEL_ACTOR);
                    }
                }
                let _clean = self.verify_file_locked(&mut reg, ino);
                rep.files_routed += 1;
                self.media
                    .record_repair(&self.media.files_routed, now_or_zero().saturating_sub(tns));
            }
        }
        if matches!(self.dev.page_csum_ok(page), Ok(Some(false)))
            && self.prov.get(page.0) == Some(PageProvenance::InFile(ino))
            && self.dev.fence_off_page(page) > 0
        {
            rep.fenced_off += 1;
            self.media.pages_fenced_off.fetch_add(1, Ordering::Relaxed);
        }
        crate::obs::repair_end(page.0, 2, t0);
    }

    // -----------------------------------------------------------------
    // Retirement.
    // -----------------------------------------------------------------

    /// Charges one fault observation against `page`; at the threshold the
    /// page is retired — straight out of the free pool, by migration for
    /// a clean regular-file data page, or pending (diverted on free) for
    /// everything the kernel cannot move.
    fn note_page_fault(&self, page: PageId, rep: &mut ScrubReport) {
        let count = {
            let mut counts = self.fault_counts.lock();
            let c = counts.entry(page.0).or_insert(0);
            *c = c.saturating_add(1);
            *c
        };
        if count < RETIRE_FAULT_THRESHOLD {
            return;
        }
        self.try_retire(page, rep);
    }

    /// Attempts to take a page past the fault threshold out of
    /// circulation: straight from the free pool, by migration for a clean
    /// regular-file data page, or pending (diverted on free) otherwise.
    fn try_retire(&self, page: PageId, rep: &mut ScrubReport) {
        // Never retire the superblock twins or a registered journal page:
        // their replication already tolerates the faults, and their
        // locations are architectural.
        if self.journal_twins.lock().contains_key(&page.0) || self.alloc.is_retired(page) {
            return;
        }
        if self.alloc.pull_if_free(page) {
            self.alloc.retire(page);
            rep.retired += 1;
            return;
        }
        if !self.try_migrate_file_page(page, rep) {
            self.alloc.retire_on_return(page);
        }
    }

    /// Migrates a clean regular-file data page to a fresh frame: contents
    /// and integrity sidecar move, the owning index slot swings to the new
    /// page, the checkpoint image of the touched index page is refreshed,
    /// and the old frame is retired. Only *quiescent* pages move — a LibFS
    /// caches page locations in its auxiliary state, so migrating under a
    /// live mapping would strand the client on the dead frame; mapped
    /// pages stay pending and are diverted on their next free/release.
    /// Released grants are ended first: their holders re-map anyway.
    fn try_migrate_file_page(&self, old: PageId, rep: &mut ScrubReport) -> bool {
        if self.dev.page_has_poison(old) {
            return false; // Lines are lost; there is nothing good to move.
        }
        let mut reg = self.reg_lock(RegistryLockSite::Scrub);
        let Some(PageProvenance::InFile(ino)) = self.prov.get(old.0) else {
            return false;
        };
        let Some(meta) = reg.files.get(&ino) else {
            return false;
        };
        if meta.ftype != CoreFileType::Regular {
            return false; // Directory pages are checkpoint-covered; divert on free.
        }
        // A released grant is nobody's live mapping: it goes, as it would
        // for any other mapper.
        let holders = meta.holders();
        self.end_released(&mut reg, ino, holders);
        let Some(meta) = reg.files.get(&ino) else {
            return false;
        };
        if meta.maps_page(old) {
            return false; // Live mapping: the owner's cached location must stay valid.
        }
        let Ok(pages) = self.current_pages(meta.dirent) else {
            return false;
        };
        // The owning index slot, from the walk's own position.
        let lp = pages.data_pages.iter().position(|p| *p == Some(old));
        let Some((ipage, slot)) = lp.and_then(|lp| pages.slot_of(lp)) else {
            return false;
        };
        // A fresh frame, same node preferred.
        let Some(fresh) = self.alloc.take_fresh(self.dev.topology().node_of(old)) else {
            return false; // Device full: keep serving from the flaky frame.
        };
        // The repair starts here and ends with the slot swung (or not).
        let t0 = crate::obs::repair_begin(old.0);
        let swung = self.dev.migrate_page(old, fresh).is_ok()
            && IndexPageRef::new(&self.kh, ipage).set_entry(slot, fresh.0).is_ok();
        crate::obs::repair_end(old.0, 4, t0);
        if !swung {
            self.alloc.put_back(&[fresh], PutBack::Pool);
            return false;
        }
        // The checkpoint's image of this index page still points at the
        // retired frame; refresh it so a later rollback restores the
        // migrated chain.
        if let Some(ck) = reg.files.get_mut(&ino).and_then(|m| m.checkpoint.as_mut()) {
            if let Some(image) = ck.images.iter_mut().find(|(p, _)| *p == ipage) {
                if let Ok(img) = self.dev.snapshot_page(ipage) {
                    image.1 = img;
                }
            }
        }
        // Provenance follows the move; no live mapping holds the old frame
        // (checked above), so no MMU surgery is needed.
        self.prov.remove(old.0);
        self.prov.insert(fresh.0, PageProvenance::InFile(ino));
        if let Some(meta) = reg.files.get_mut(&ino) {
            // Whoever indexed the old frame must index again.
            meta.bump_seq(None);
        }
        drop(reg);
        self.alloc.retire(old);
        rep.migrated += 1;
        rep.retired += 1;
        self.media.record_repair(&self.media.pages_migrated, 1);
        true
    }
}
