//! Undo journal for multi-step metadata operations (paper §4.4: "A few
//! complex operations, such as rename, require journaling. ArckFS uses
//! undo logs for simplicity").
//!
//! The journal is per-LibFS, sharded so concurrent renames on different
//! shards do not serialize (the paper makes journals per-CPU). Each shard
//! owns a **mirrored pair** of NVM pages from the LibFS's pool — a
//! poisoned or bit-rotted journal head would otherwise turn one armed
//! rename into unrecoverable metadata loss (DESIGN.md §19). Both copies
//! carry the same layout:
//!
//! | offset | field                                  |
//! |-------:|----------------------------------------|
//! |      0 | state: 0 idle, 1 armed                 |
//! |      8 | src dirent page                        |
//! |     16 | src slot                               |
//! |     24 | dst dirent page                        |
//! |     32 | dst slot                               |
//! |     40 | seahash over locations + image         |
//! |     64 | 256-byte pre-image of the src dirent   |
//!
//! Protocol (DESIGN.md §18 "Epochs"): persist the record body (locations,
//! image, checksum) on the primary and the mirror in one fence, then both
//! arm words in another, each checked against its own copy's body; disarm
//! both in one fence, checked against the move. Either-copy-armed
//! therefore implies both bodies durable and sealed, and undo is
//! idempotent, so a crash that keeps one arm (or disarm) word of the two
//! is harmless.
//! Recovery prefers the primary, falls back to the mirror on a poisoned
//! line or checksum mismatch, and rewrites the bad twin in place (the
//! full-line stores clear poison in the device model).

use std::sync::Arc;

use trio_layout::{DirentLoc, DirentRef, DIRENT_SIZE};
use trio_nvm::{
    checksum::checksum, Dirty, Durable, NvmHandle, PageId, ProtError, Span, Spans, CACHE_LINE,
    PAGE_SIZE,
};
use trio_sim::sync::SimMutex;

const OFF_STATE: usize = 0;
const OFF_SRC_PAGE: usize = 8;
const OFF_SRC_SLOT: usize = 16;
const OFF_DST_PAGE: usize = 24;
const OFF_DST_SLOT: usize = 32;
const OFF_CSUM: usize = 40;
const OFF_IMAGE: usize = 64;

const SHARDS: usize = 8;

/// Cache lines a journal record occupies (line 0 holds the header words,
/// the pre-image follows at [`OFF_IMAGE`]). Poison in later lines is dead
/// bytes, not record loss — the kernel's patrol scrubber uses this bound
/// when judging a registered twin.
pub const RECORD_LINES: u16 = ((OFF_IMAGE + DIRENT_SIZE).div_ceil(CACHE_LINE)) as u16;

/// One raw journal record as read back from a page (any validity).
#[derive(Clone)]
struct RawRecord {
    state: u64,
    src: DirentLoc,
    dst: DirentLoc,
    csum: u64,
    image: [u8; DIRENT_SIZE],
}

impl RawRecord {
    /// Whether the body checksum seals the locations + image.
    fn body_valid(&self) -> bool {
        self.csum == body_csum(&self.src, &self.dst, &self.image)
    }
}

/// Seahash over the four location words and the pre-image — the state
/// word is excluded (it flips on arm/disarm without resealing).
fn body_csum(src: &DirentLoc, dst: &DirentLoc, image: &[u8; DIRENT_SIZE]) -> u64 {
    let mut buf = [0u8; 32 + DIRENT_SIZE];
    buf[0..8].copy_from_slice(&src.page.0.to_le_bytes());
    buf[8..16].copy_from_slice(&(src.slot as u64).to_le_bytes());
    buf[16..24].copy_from_slice(&dst.page.0.to_le_bytes());
    buf[24..32].copy_from_slice(&(dst.slot as u64).to_le_bytes());
    buf[32..].copy_from_slice(image);
    checksum(&buf)
}

/// Validates a raw journal-page image (line 0 + pre-image lines) against
/// its body checksum — the format knowledge the kernel's patrol scrubber
/// borrows to judge which twin of a registered pair is still good. A
/// disarmed record with a sealed body is valid; a page whose seal does
/// not cover its locations + image is not. `raw` must be a full page.
pub fn record_media_ok(raw: &[u8]) -> bool {
    if raw.len() != PAGE_SIZE {
        return false;
    }
    let word = |off: usize| u64::from_le_bytes(raw[off..off + 8].try_into().unwrap_or([0; 8]));
    let src = DirentLoc { page: PageId(word(OFF_SRC_PAGE)), slot: word(OFF_SRC_SLOT) as usize };
    let dst = DirentLoc { page: PageId(word(OFF_DST_PAGE)), slot: word(OFF_DST_SLOT) as usize };
    let mut image = [0u8; DIRENT_SIZE];
    image.copy_from_slice(&raw[OFF_IMAGE..OFF_IMAGE + DIRENT_SIZE]);
    word(OFF_CSUM) == body_csum(&src, &dst, &image)
}

/// Reads a whole record; `Err` means the media faulted (poisoned line).
fn read_raw(h: &NvmHandle, page: PageId) -> Result<RawRecord, ProtError> {
    let state = h.read_u64(page, OFF_STATE)?;
    let src = DirentLoc {
        page: PageId(h.read_u64(page, OFF_SRC_PAGE)?),
        slot: h.read_u64(page, OFF_SRC_SLOT)? as usize,
    };
    let dst = DirentLoc {
        page: PageId(h.read_u64(page, OFF_DST_PAGE)?),
        slot: h.read_u64(page, OFF_DST_SLOT)? as usize,
    };
    let csum = h.read_u64(page, OFF_CSUM)?;
    let mut image = [0u8; DIRENT_SIZE];
    h.read_untimed(page, OFF_IMAGE, &mut image)?;
    Ok(RawRecord { state, src, dst, csum, image })
}

/// Stores one copy's record body (locations, image, seal), not yet
/// flushed.
fn store_body(
    h: &NvmHandle,
    page: PageId,
    src: DirentLoc,
    dst: DirentLoc,
    image: &[u8; DIRENT_SIZE],
    csum: u64,
) -> Result<Dirty<(Span, Span)>, ProtError> {
    // The five location/seal words are contiguous on line 0: store them
    // as one span so the line is written and flushed exactly once —
    // per-word store/flush pairs on a shared line are the
    // store-while-flushed / redundant-flush hazards the sanitizer flags.
    let img = h.write_dirty(page, OFF_IMAGE, image)?;
    let mut head = [0u8; OFF_CSUM + 8 - OFF_SRC_PAGE];
    for (i, word) in [src.page.0, src.slot as u64, dst.page.0, dst.slot as u64, csum]
        .into_iter()
        .enumerate()
    {
        head[i * 8..i * 8 + 8].copy_from_slice(&word.to_le_bytes());
    }
    Ok(img.and(h.write_dirty(page, OFF_SRC_PAGE, &head)?))
}

/// Rewrites a whole record (full line 0 + full image lines) with the
/// given state — the twin-repair primitive: full-line stores clear
/// poisoned lines, and the rewrite reseals the body in one pass.
fn rewrite_record(h: &NvmHandle, page: PageId, r: &RawRecord, state: u64) -> Result<(), ProtError> {
    let mut l0 = [0u8; CACHE_LINE];
    l0[OFF_STATE..OFF_STATE + 8].copy_from_slice(&state.to_le_bytes());
    l0[OFF_SRC_PAGE..OFF_SRC_PAGE + 8].copy_from_slice(&r.src.page.0.to_le_bytes());
    l0[OFF_SRC_SLOT..OFF_SRC_SLOT + 8].copy_from_slice(&(r.src.slot as u64).to_le_bytes());
    l0[OFF_DST_PAGE..OFF_DST_PAGE + 8].copy_from_slice(&r.dst.page.0.to_le_bytes());
    l0[OFF_DST_SLOT..OFF_DST_SLOT + 8].copy_from_slice(&(r.dst.slot as u64).to_le_bytes());
    let seal = body_csum(&r.src, &r.dst, &r.image);
    l0[OFF_CSUM..OFF_CSUM + 8].copy_from_slice(&seal.to_le_bytes());
    let a = h.write_dirty(page, 0, &l0)?;
    let b = h.write_dirty(page, OFF_IMAGE, &r.image)?;
    let _durable = h.persist_dirty(a.and(b));
    Ok(())
}

/// What [`Journal::recover_pairs`] did across one scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalRecovery {
    /// Armed renames undone.
    pub undone: usize,
    /// Journal copies rewritten from their healthy twin (poison cleared
    /// or bit rot resealed).
    pub repaired: usize,
    /// Armed records whose body validated on neither copy — media
    /// destroyed both twins; the rename is neither undone nor replayed.
    pub unrecoverable: usize,
}

/// A shard's lock + page-pair cell, shared with the kernel's patrol
/// scrubber at twin registration: the scrubber `try_lock`s it before a
/// twin repair, so repair and arm/disarm are mutually exclusive rather
/// than merely unlikely to collide.
pub type JournalShardSlot = Arc<SimMutex<Option<(PageId, PageId)>>>;

/// The sharded, mirrored undo journal.
pub struct Journal {
    /// `(primary, mirror)` per shard, once its first rename attached them.
    shards: Box<[JournalShardSlot]>,
}

impl Journal {
    /// Creates an empty journal; page pairs attach lazily per shard.
    pub fn new() -> Self {
        Journal { shards: (0..SHARDS).map(|_| Arc::new(SimMutex::new(None))).collect() }
    }

    /// The shard slots themselves (for twin registration with the kernel
    /// scrubber — see [`JournalShardSlot`]).
    pub fn shard_slots(&self) -> Vec<JournalShardSlot> {
        self.shards.iter().map(Arc::clone).collect()
    }

    /// All distinct pages currently backing the journal (for crash scans
    /// and corruption harnesses).
    pub fn pages(&self) -> Vec<PageId> {
        let mut out = Vec::new();
        for s in self.shards.iter() {
            if let Some((p, m)) = *s.lock() {
                out.extend([p, m]);
            }
        }
        out
    }

    /// The `(primary, mirror)` pairs currently attached.
    pub fn page_pairs(&self) -> Vec<(PageId, PageId)> {
        self.shards.iter().filter_map(|s| *s.lock()).collect()
    }

    /// Arms a rename record on both copies and returns a guard, with the
    /// durability witness of `with`: stores of the caller's that the
    /// record's bodies share a fence with (the destination's prepare).
    /// Dropping the guard undoes the rename unless [`JournalGuard::disarm`]
    /// ran; see there.
    ///
    /// Two fences: the bodies with `with`, then both arm words. Either copy
    /// armed therefore implies both bodies durable and sealed, so the arm
    /// words may land in either order. `with` is fenced on every path,
    /// failed ones included.
    ///
    /// `alloc` provides the shard's NVM pages on first use (called twice:
    /// primary, then mirror; the two must be distinct pages).
    #[allow(
        clippy::too_many_arguments,
        reason = "the record's fields, the fence it joins and its pages' source"
    )]
    pub fn begin_rename<'a, T: Spans>(
        &'a self,
        h: &NvmHandle,
        shard_hint: usize,
        src: DirentLoc,
        dst: DirentLoc,
        src_image: &[u8; DIRENT_SIZE],
        with: Dirty<T>,
        mut alloc: impl FnMut() -> Result<PageId, trio_fsapi::FsError>,
    ) -> Result<(JournalGuard<'a>, Durable<T>), trio_fsapi::FsError> {
        let slot = &self.shards[shard_hint % SHARDS];
        let mut guard = slot.lock();
        let pair = match *guard {
            Some(pair) => Ok(pair),
            None => alloc().and_then(|p| Ok(*guard.insert((p, alloc()?)))),
        };
        let csum = body_csum(&src, &dst, src_image);
        // Record bodies through the typestate pipeline: each copy's image,
        // location words and seal, fenced with `with`, and each arm word
        // checked against its own copy's witness (the other copy's arm
        // dirties that copy's line 0) — a record cannot go live before its
        // body is durable.
        let bodies = pair.and_then(|(p, m)| {
            debug_assert_ne!(p, m, "a journal shard needs two pages");
            let bp = store_body(h, p, src, dst, src_image, csum).map_err(fault)?;
            match store_body(h, m, src, dst, src_image, csum) {
                Ok(bm) => Ok(((p, m), bp.and(bm))),
                Err(e) => {
                    let _durable = h.persist_dirty(bp);
                    Err(fault(e))
                }
            }
        });
        let ((primary, mirror), bodies) = match bodies {
            Ok(b) => b,
            Err(e) => {
                let _durable = h.persist_dirty(with);
                return Err(e);
            }
        };
        let (with, bodies) = h.persist_dirty(with.and(bodies)).split();
        let (bp, bm) = bodies.split();
        // From here a failure drops the guard, which undoes what was armed.
        let rec = JournalGuard {
            h: h.clone(),
            primary,
            mirror,
            src,
            dst,
            image: *src_image,
            armed: true,
            _slot: guard,
        };
        let arm_p = h.stage_publish_u64(primary, OFF_STATE, 1, &bp).map_err(fault)?;
        match h.stage_publish_u64(mirror, OFF_STATE, 1, &bm) {
            Ok(arm_m) => {
                let _armed = h.persist_dirty(arm_p.and(arm_m));
                Ok((rec, with))
            }
            Err(e) => {
                let _armed = h.persist_dirty(arm_p);
                Err(fault(e))
            }
        }
    }

    /// Scans the journal page pairs of a crashed LibFS and undoes any
    /// armed rename: restores the src dirent pre-image and clears the dst
    /// dirent. Falls back to the mirror when the primary is poisoned or
    /// fails its body checksum, and rewrites the bad twin from the good
    /// one (media repair). Runs with a privileged (kernel) handle.
    pub fn recover_pairs(
        h: &NvmHandle,
        pairs: &[(PageId, PageId)],
    ) -> Result<JournalRecovery, ProtError> {
        let mut out = JournalRecovery::default();
        for &(primary, mirror) in pairs {
            let rp = read_raw(h, primary);
            let rm = read_raw(h, mirror);
            let armed =
                matches!(&rp, Ok(r) if r.state == 1) || matches!(&rm, Ok(r) if r.state == 1);
            if !armed {
                // Idle shard: twin-repair a poisoned copy so the journal
                // page stays usable (bit rot on an idle body is repaired
                // lazily by the next rename's body rewrite).
                match (&rp, &rm) {
                    (Ok(r), Err(_)) => {
                        rewrite_record(h, mirror, r, r.state)?;
                        out.repaired += 1;
                    }
                    (Err(_), Ok(r)) => {
                        rewrite_record(h, primary, r, r.state)?;
                        out.repaired += 1;
                    }
                    _ => {}
                }
                continue;
            }
            // Pick a sealed body: primary first, then the mirror.
            let p_good = rp.as_ref().ok().filter(|r| r.body_valid()).cloned();
            let m_good = rm.as_ref().ok().filter(|r| r.body_valid()).cloned();
            let Some(r) = p_good.clone().or(m_good.clone()) else {
                // Both twins destroyed: nothing trustworthy to undo from.
                out.unrecoverable += 1;
                continue;
            };
            // Undo order: clear dst first (it may alias a replaced file),
            // then restore src, then disarm. Disarming publishes against
            // the restore's Durable witness: the record cannot read as
            // idle while the src image could still be torn.
            DirentRef::new(h, r.dst).clear()?;
            let restored = DirentRef::new(h, r.src).restore_image(&r.image)?;
            if p_good.is_some() {
                let disarm = h.stage_publish_u64(primary, OFF_STATE, 0, &restored)?;
                let _disarmed = h.persist_dirty(disarm);
            } else {
                // Bad primary: full rewrite from the good twin repairs the
                // media and lands it disarmed in the same pass (ordered
                // after the fenced restore above).
                rewrite_record(h, primary, &r, 0)?;
                out.repaired += 1;
            }
            if m_good.is_some() {
                let _disarmed = h.persist_dirty(h.store_u64_dirty(mirror, OFF_STATE, 0)?);
            } else {
                rewrite_record(h, mirror, &r, 0)?;
                out.repaired += 1;
            }
            out.undone += 1;
        }
        Ok(out)
    }
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

/// Holds a journal shard armed. Disarm once the rename's core-state
/// mutations are durable; dropped armed, it undoes the rename.
pub struct JournalGuard<'a> {
    h: NvmHandle,
    primary: PageId,
    mirror: PageId,
    src: DirentLoc,
    dst: DirentLoc,
    image: [u8; DIRENT_SIZE],
    /// Whether dropping the guard still owes the undo.
    armed: bool,
    _slot: trio_sim::sync::SimMutexGuard<'a, Option<(PageId, PageId)>>,
}

impl JournalGuard<'_> {
    /// Marks the rename complete on both copies, in one fence, once the
    /// stores that moved the entry are durable: each state word is checked
    /// against `moved` as it is stored. A failed disarm leaves the record
    /// armed over a move that is durable: recovery would undo it.
    pub fn disarm<T: Spans>(mut self, moved: &Durable<T>) -> Result<(), ProtError> {
        self.armed = false;
        self.clear_state(moved)
    }

    /// The live twin of [`Journal::recover_pairs`]' undo, for a rename
    /// that fails after arming while its slots are still writable: clears
    /// the destination and restores the source's image (one fence), then
    /// disarms both copies (another). If a store here faults, the record
    /// stays armed until the shard's next rename rewrites it: a crash
    /// before then has recovery undo it (DESIGN.md §22 "A failed rename").
    pub fn undo(mut self) -> Result<(), ProtError> {
        self.undo_armed()
    }

    fn undo_armed(&mut self) -> Result<(), ProtError> {
        self.armed = false;
        let h = &self.h;
        let dst = DirentRef::new(h, self.dst).stage_clear()?;
        let put_back = match DirentRef::new(h, self.src).stage_image(&self.image) {
            Ok(src) => h.persist_dirty(dst.and(src)),
            Err(e) => {
                let _durable = h.persist_dirty(dst);
                return Err(e);
            }
        };
        self.clear_state(&put_back)
    }

    /// Disarms both copies' state words, each checked against `deps`, in
    /// one fence.
    fn clear_state<T: Spans>(&self, deps: &Durable<T>) -> Result<(), ProtError> {
        let h = &self.h;
        let p = h.stage_publish_u64(self.primary, OFF_STATE, 0, deps)?;
        match h.stage_publish_u64(self.mirror, OFF_STATE, 0, deps) {
            Ok(m) => {
                let _durable = h.persist_dirty(p.and(m));
                Ok(())
            }
            Err(e) => {
                let _durable = h.persist_dirty(p);
                Err(e)
            }
        }
    }

    /// Leaves the record armed as a crash would (the tests' power cut).
    #[cfg(test)]
    fn crash(mut self) {
        self.armed = false;
    }
}

impl Drop for JournalGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            // A fault here leaves the record armed until the shard's next
            // rename.
            let _ = self.undo_armed();
        }
    }
}

fn fault(e: ProtError) -> trio_fsapi::FsError {
    crate::libfs::ArckFs::fault(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trio_layout::{CoreFileType, DirentData, DirentRef};
    use trio_nvm::{ActorId, DeviceConfig, NvmDevice, PagePerm};

    fn setup() -> NvmHandle {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        for p in 1..20 {
            dev.mmu_map(ActorId(1), PageId(p), PagePerm::Write).unwrap();
        }
        NvmHandle::new(dev, ActorId(1))
    }

    /// No stores of the caller's to join the journal's first fence.
    fn none(h: &NvmHandle) -> Dirty<Vec<Span>> {
        h.dirty_spans(Vec::new())
    }

    /// Mirrored alloc: first call gets page 10, second page 11.
    fn paired_alloc() -> impl FnMut() -> Result<PageId, trio_fsapi::FsError> {
        let mut next = 10u64;
        move || {
            let p = PageId(next);
            next += 1;
            Ok(p)
        }
    }

    #[test]
    fn armed_record_roundtrip_and_recovery() {
        let h = setup();
        let j = Journal::new();
        // A live src dirent at (2, 0).
        let src = DirentLoc { page: PageId(2), slot: 0 };
        let dst = DirentLoc { page: PageId(3), slot: 1 };
        let d = DirentData::new(b"victim", CoreFileType::Regular, trio_fsapi::Mode::RW, 1, 1);
        let sref = DirentRef::new(&h, src);
        let w = sref.prepare(&d).unwrap();
        sref.publish(42, &w).unwrap();
        let image = sref.image().unwrap();

        let g = j.begin_rename(&h, 0, src, dst, &image, none(&h), paired_alloc()).unwrap().0;
        g.crash(); // With the record armed.

        // Simulate the half-done rename: dst published, src cleared.
        let dref = DirentRef::new(&h, dst);
        let mut d2 = d.clone();
        d2.name = b"moved".to_vec();
        let w2 = dref.prepare(&d2).unwrap();
        dref.publish(42, &w2).unwrap();
        sref.clear().unwrap();

        let rec = Journal::recover_pairs(&h, &j.page_pairs()).unwrap();
        assert_eq!(rec.undone, 1);
        assert_eq!(rec.unrecoverable, 0);
        // Undo restored the original world.
        assert_eq!(sref.load().unwrap().name_str(), Some("victim"));
        assert_eq!(sref.ino().unwrap(), 42);
        assert_eq!(dref.ino().unwrap(), 0);
        // Idempotent.
        assert_eq!(Journal::recover_pairs(&h, &j.page_pairs()).unwrap().undone, 0);
    }

    #[test]
    fn disarmed_record_is_ignored_by_recovery() {
        let h = setup();
        let j = Journal::new();
        let src = DirentLoc { page: PageId(2), slot: 0 };
        let dst = DirentLoc { page: PageId(3), slot: 0 };
        let image = [7u8; DIRENT_SIZE];
        let (g, w) = j.begin_rename(&h, 0, src, dst, &image, none(&h), paired_alloc()).unwrap();
        g.disarm(&w).unwrap();
        assert_eq!(Journal::recover_pairs(&h, &j.page_pairs()).unwrap().undone, 0);
        assert_eq!(j.pages(), vec![PageId(10), PageId(11)]);
        assert_eq!(j.page_pairs(), vec![(PageId(10), PageId(11))]);
    }

    #[test]
    fn poisoned_primary_recovers_from_mirror_and_repairs() {
        let h = setup();
        let dev = Arc::clone(h.device());
        let j = Journal::new();
        let src = DirentLoc { page: PageId(2), slot: 0 };
        let dst = DirentLoc { page: PageId(3), slot: 1 };
        let d = DirentData::new(b"victim", CoreFileType::Regular, trio_fsapi::Mode::RW, 1, 1);
        let sref = DirentRef::new(&h, src);
        let w = sref.prepare(&d).unwrap();
        sref.publish(42, &w).unwrap();
        let image = sref.image().unwrap();

        let g = j.begin_rename(&h, 0, src, dst, &image, none(&h), paired_alloc()).unwrap().0;
        g.crash(); // Armed.
        sref.clear().unwrap(); // Half-done rename.

        // Media kills the primary's record line AND an image line.
        dev.poison_line(PageId(10), 0);
        dev.poison_line(PageId(10), 2);

        let rec = Journal::recover_pairs(&h, &j.page_pairs()).unwrap();
        assert_eq!(rec.undone, 1);
        assert!(rec.repaired >= 1);
        assert_eq!(sref.load().unwrap().name_str(), Some("victim"));
        // The rewrite cleared the primary's poison.
        assert!(!dev.page_has_poison(PageId(10)));
        // And the repaired primary now recovers standalone.
        assert_eq!(Journal::recover_pairs(&h, &j.page_pairs()).unwrap().undone, 0);
    }

    /// A rename that fails after its destination's publish drops its
    /// guard: the guard undoes it while the slots are writable, so the
    /// record is not left armed over slots a later op may reuse, and every
    /// witness its stores were checked against held (the sanitizer).
    #[test]
    fn a_guard_dropped_after_the_destination_publish_undoes_the_rename() {
        let dev = Arc::new(NvmDevice::new(DeviceConfig {
            track_persistence: true,
            ..DeviceConfig::small()
        }));
        for p in 1..20 {
            dev.mmu_map(ActorId(1), PageId(p), PagePerm::Write).unwrap();
        }
        let h = NvmHandle::new(Arc::clone(&dev), ActorId(1));
        let j = Journal::new();
        let (src, dst) = (DirentLoc { page: PageId(2), slot: 0 }, DirentLoc { page: PageId(3), slot: 1 });
        let d = DirentData::new(b"victim", CoreFileType::Regular, trio_fsapi::Mode::RW, 1, 1);
        let (sref, dref) = (DirentRef::new(&h, src), DirentRef::new(&h, dst));
        let w = sref.prepare(&d).unwrap();
        sref.publish(42, &w).unwrap();
        let image = sref.image().unwrap();

        let mut moved = d.clone();
        moved.name = b"moved".to_vec();
        let prepared = dref.stage_prepare(&moved).unwrap();
        let (g, prepared) = j.begin_rename(&h, 0, src, dst, &image, prepared, paired_alloc()).unwrap();
        let _published = h.persist_dirty(dref.stage_publish(42, &prepared).unwrap());
        assert_eq!((sref.ino().unwrap(), dref.ino().unwrap()), (42, 42), "both live");
        drop(g); // The move failed here.

        assert_eq!(Journal::recover_pairs(&h, &j.page_pairs()).unwrap(), JournalRecovery::default());
        assert_eq!(sref.image().unwrap(), image);
        assert_eq!(dref.ino().unwrap(), 0);
        dev.sanitize_quiesce_check();
        dev.take_sanitize_report(0).expect_clean("guard dropped after the publish");
    }
}
