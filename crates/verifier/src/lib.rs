//! The Trio **integrity verifier** (paper §4.3).
//!
//! A trusted, standalone component that inspects the core state of a
//! *single file* when its write access transfers between LibFSes, checking
//! the four invariant families the paper defines:
//!
//! * **I1** — every field of the inode/dirent is valid and internally
//!   consistent: known file type, legal mode bits, legal name (no `/`, no
//!   NUL, not empty, within the 200-byte field, length byte consistent),
//!   no duplicate names under one directory, size consistent with the
//!   allocated extent.
//! * **I2** — the file's inode number, index pages, and data pages are
//!   *provenance-clean*: each page either already belonged to this file or
//!   was allocated to the LibFS being checked, and nothing is referenced
//!   twice (no cycles, no cross-file aliasing, no pointing at other files'
//!   pages or kernel pages).
//! * **I3** — the directory tree stays a connected tree: a directory that
//!   disappeared from its parent since the checkpoint must be genuinely
//!   gone (not still mapped, not still holding children) unless it was
//!   re-linked elsewhere (rename).
//! * **I4** — the cached permission bits in the inode match the kernel's
//!   shadow inode table (LibFSes can scribble on the cached copy; the
//!   shadow copy is ground truth).
//!
//! The verifier is deliberately *small* (the paper reports 457 LoC) because
//! ArckFS's core state is minimal; this reproduction keeps the same shape:
//! one pass over the dirent slot, one defensive walk of the index chain,
//! one scan of directory data pages, plus provenance lookups through the
//! [`ResourceView`] the kernel controller exposes.

// The whole crate is plain safe Rust over the typed NvmHandle API; the
// xtask lint (safety-comment rule) found zero unsafe blocks, and this
// attribute keeps it that way.
#![forbid(unsafe_code)]

pub(crate) mod obs;

use std::collections::HashSet;

use trio_fsapi::path::validate_name;
use trio_layout::{
    walk_file, CoreFileType, DirPage, DirSlot, DirentData, DirentLoc, DirentRef, FilePages, Ino,
    WalkError, ROOT_INO,
};
use trio_nvm::{ActorId, NvmHandle, PageId, ProtError, PAGE_SIZE};
use trio_sim::{cost, in_sim, work, DetHashMap, DetHashSet};

/// Where a page currently stands in the kernel's books.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageProvenance {
    /// Not allocated at all (free or reserved) — a file must not point here.
    Free,
    /// Allocated to a LibFS's pool, not yet part of any verified file.
    AllocatedTo(ActorId),
    /// Part of file `ino`'s verified core state.
    InFile(Ino),
    /// A kernel-owned page (superblock, reserved) — never valid in a file.
    Kernel,
}

/// Where an inode number currently stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InoProvenance {
    /// Never allocated — a dirent naming it is corruption.
    Unknown,
    /// Handed to a LibFS for future creates.
    AllocatedTo(ActorId),
    /// Live at a known dirent location.
    InUse(DirentLoc),
}

/// Ground-truth attributes from the kernel's shadow inode table (I4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowAttr {
    /// Permission bits.
    pub mode: trio_fsapi::Mode,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
}

/// The kernel-side knowledge the verifier reads (it has read access to the
/// controller's global bookkeeping, paper §4.3/I2).
pub trait ResourceView {
    /// Provenance of a page.
    fn page_provenance(&self, page: PageId) -> PageProvenance;

    /// Provenance of an inode number.
    fn ino_provenance(&self, ino: Ino) -> InoProvenance;

    /// Shadow attributes of an inode, if the kernel has adopted it.
    fn shadow_attr(&self, ino: Ino) -> Option<ShadowAttr>;

    /// Whether any LibFS currently maps the file `ino` (I3: deleted
    /// directories must not be).
    fn is_mapped(&self, ino: Ino) -> bool;
}

/// One concrete integrity violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// I1: the committed dirent's inode number changed or vanished.
    InoMismatch { expected: Ino, found: Ino },
    /// I1: unknown file-type tag.
    BadFileType { raw: u8 },
    /// I1: mode bits outside the valid mask.
    BadMode { raw: u16 },
    /// I1: illegal name (slash, NUL, empty, overlong, or length-byte lie).
    BadName,
    /// I1: two live entries under one directory share a name.
    DuplicateName { name: Vec<u8> },
    /// I1: recorded size exceeds the allocated extent.
    SizeBeyondExtent { size: u64, capacity: u64 },
    /// I1: directory entry-count field disagrees with the live entries.
    EntryCountMismatch { recorded: u64, actual: u64 },
    /// I2: structural damage in the index chain.
    Structure(WalkError),
    /// I2: a referenced page belongs to someone else (or nobody).
    ForeignPage { page: PageId, state: PageProvenance },
    /// Data integrity (DESIGN.md §17): a page whose delegated-write
    /// sidecar checksum is still recorded no longer hashes to it — the
    /// bytes rotted or were scribbled through a channel that bypassed the
    /// store path. Only pages with a *present* sidecar are checked; an
    /// ordinary store legitimately invalidates it.
    DataChecksumMismatch { page: PageId },
    /// I2: a child inode number was never allocated or is already live at a
    /// different location (double reference / fabricated ino).
    ForeignIno { ino: Ino },
    /// I2: the same inode number appears twice under this directory.
    DuplicateIno { ino: Ino },
    /// I3: a child directory vanished but is still mapped or still has
    /// pages/children.
    DisconnectedChild { ino: Ino },
    /// I4: cached permissions disagree with the shadow inode table.
    PermissionTampered { ino: Ino },
    /// The dirent slot itself could not be read (unmapped page, poisoned
    /// line). Distinct from a field mismatch: the attributes are
    /// *unreachable*, not wrong, and the cause says why.
    UnreadableAttr { ino: Ino, cause: ProtError },
    /// The verification walk hit its explicit entry budget before covering
    /// the whole structure — a hostile graph (entry bomb) was cut off.
    /// Anything past the budget is unvetted, so this always rejects.
    BudgetExceeded { entries_seen: u64 },
    /// Media fault on a data page (DESIGN.md §19): the page carries a
    /// recorded integrity sidecar but its bytes cannot be read back
    /// (poisoned line). Distinct from [`Violation::DataChecksumMismatch`]:
    /// the bytes are *gone*, not merely wrong. Silently skipping such a
    /// page would let verification pass a file whose checksummed contents
    /// are unreadable — the patrol scrubber routes files through this walk
    /// precisely to catch that.
    UnreadableData { page: PageId, cause: ProtError },
}

/// What repair can do about a violation: the **repair-or-reject** contract
/// (DESIGN.md §14). Every detected violation falls in one of two classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairClass {
    /// A field-level lie over intact structure — scrubbing the field back
    /// from ground truth (shadow table, live entry count, walked extent),
    /// as PR 1's `recover()` does, restores a model-equivalent state.
    Repairable,
    /// Structural or provenance damage (aliased pages, forged inos,
    /// cycles, unreadable slots, budget bombs): the state cannot be
    /// trusted field-by-field and must be rejected — rolled back to the
    /// last verified checkpoint, or privatized if none exists.
    Reject,
}

impl Violation {
    /// Classifies this violation under the repair-or-reject contract.
    pub fn repair_class(&self) -> RepairClass {
        match self {
            // Field lies over intact structure: ground truth exists.
            Violation::BadMode { .. }
            | Violation::PermissionTampered { .. }
            | Violation::EntryCountMismatch { .. }
            | Violation::SizeBeyondExtent { .. } => RepairClass::Repairable,
            // Everything structural, aliased, forged, or unreadable.
            Violation::InoMismatch { .. }
            | Violation::BadFileType { .. }
            | Violation::BadName
            | Violation::DuplicateName { .. }
            | Violation::Structure(_)
            | Violation::ForeignPage { .. }
            // Corrupt bytes have no field-level ground truth to scrub
            // back from — the only safe answer is the last checkpoint.
            | Violation::DataChecksumMismatch { .. }
            | Violation::ForeignIno { .. }
            | Violation::DuplicateIno { .. }
            | Violation::DisconnectedChild { .. }
            | Violation::UnreadableAttr { .. }
            | Violation::BudgetExceeded { .. }
            | Violation::UnreadableData { .. } => RepairClass::Reject,
        }
    }

    /// Stable short tag for counters and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::InoMismatch { .. } => "ino_mismatch",
            Violation::BadFileType { .. } => "bad_file_type",
            Violation::BadMode { .. } => "bad_mode",
            Violation::BadName => "bad_name",
            Violation::DuplicateName { .. } => "duplicate_name",
            Violation::SizeBeyondExtent { .. } => "size_beyond_extent",
            Violation::EntryCountMismatch { .. } => "entry_count_mismatch",
            Violation::Structure(_) => "structure",
            Violation::ForeignPage { .. } => "foreign_page",
            Violation::DataChecksumMismatch { .. } => "data_checksum_mismatch",
            Violation::ForeignIno { .. } => "foreign_ino",
            Violation::DuplicateIno { .. } => "duplicate_ino",
            Violation::DisconnectedChild { .. } => "disconnected_child",
            Violation::PermissionTampered { .. } => "permission_tampered",
            Violation::UnreadableAttr { .. } => "unreadable_attr",
            Violation::BudgetExceeded { .. } => "budget_exceeded",
            Violation::UnreadableData { .. } => "unreadable_data",
        }
    }
}

/// Every violation kind tag, in `Violation` declaration order — the fixed
/// index space for by-kind counters.
pub const VIOLATION_KINDS: [&str; 17] = [
    "ino_mismatch",
    "bad_file_type",
    "bad_mode",
    "bad_name",
    "duplicate_name",
    "size_beyond_extent",
    "entry_count_mismatch",
    "structure",
    "foreign_page",
    "data_checksum_mismatch",
    "foreign_ino",
    "duplicate_ino",
    "disconnected_child",
    "permission_tampered",
    "unreadable_attr",
    "budget_exceeded",
    "unreadable_data",
];

/// What the kernel asks the verifier to check.
pub struct VerifyRequest<'a> {
    /// The file's inode number.
    pub ino: Ino,
    /// Expected type (from the shadow/metadata at grant time).
    pub ftype: CoreFileType,
    /// The file's dirent slot (`None` for the root directory).
    pub dirent: Option<DirentLoc>,
    /// Head of the index chain as recorded in the dirent/superblock.
    pub first_index: u64,
    /// The LibFS whose write access is being released — pages allocated to
    /// it are acceptable new members of the file (I2).
    pub dirty_actor: ActorId,
    /// For directories: the child inodes present at checkpoint time (I3).
    pub checkpoint_children: Option<&'a HashSet<Ino>>,
    /// Upper bound on index pages (device size / geometry driven).
    pub max_index_pages: usize,
    /// Explicit budget on directory entries examined. A hostile directory
    /// graph cannot stretch verification past
    /// `max_index_pages + max_dir_entries` visits: the walk stops and a
    /// [`Violation::BudgetExceeded`] rejects the file.
    pub max_dir_entries: u64,
}

/// A live child entry discovered while verifying a directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChildEntry {
    /// Child inode.
    pub ino: Ino,
    /// Location of its dirent slot.
    pub loc: DirentLoc,
    /// Child type tag.
    pub ftype: CoreFileType,
    /// Child name.
    pub name: Vec<u8>,
    /// Cached mode bits in the child's inode (kernel may adopt them).
    pub mode: trio_fsapi::Mode,
    /// Cached uid.
    pub uid: u32,
    /// Cached gid.
    pub gid: u32,
    /// Child's recorded first index page.
    pub first_index: u64,
}

/// Verification outcome: violations plus the facts the kernel needs to
/// update its provenance after a pass.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// All violations found (empty ⇒ the file passes).
    pub violations: Vec<Violation>,
    /// The file's pages as walked (valid even with non-structural
    /// violations; empty on structural failure).
    pub pages: FilePages,
    /// Live children (directories only).
    pub children: Vec<ChildEntry>,
    /// Whether any explicit walk/scan budget was hit (hostile graph cut
    /// off early) — surfaced so the kernel can count budget events.
    pub budget_hit: bool,
}

impl VerifyReport {
    /// Whether the core state passed every check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The verifier component. Holds a privileged NVM handle (it is a trusted
/// userspace process with read access to everything).
pub struct Verifier {
    h: NvmHandle,
}

impl Verifier {
    /// Creates a verifier over a privileged handle.
    pub fn new(h: NvmHandle) -> Self {
        Verifier { h }
    }

    /// The one move rule (I2, I3): whether `ino` still lives at `loc`, the
    /// slot the kernel recorded for it. After a move it does not — the ino
    /// may be adopted at its new slot; after a link it does — the ino would
    /// be live twice. An unreadable slot holds nothing; the root lives in
    /// the superblock and never moves.
    pub fn still_at(&self, ino: Ino, loc: DirentLoc) -> bool {
        ino == ROOT_INO || DirentRef::new(&self.h, loc).ino() == Ok(ino)
    }

    /// Verifies one file's core state. Charges the verification CPU/NVM
    /// cost to the calling sim-thread (the kernel invokes this on the
    /// mapping path, so the requester pays — paper §6.5 measures exactly
    /// this latency).
    pub fn verify(&self, req: &VerifyRequest<'_>, view: &dyn ResourceView) -> VerifyReport {
        // Span guard: closes on every exit path, including the early
        // structure-walk rejection below.
        let _walk = crate::obs::walk_span(req.ino, req.dirty_actor.0);
        let mut report = VerifyReport::default();

        // --- Dirent-level I1/I4 -------------------------------------------------
        // The file's own slot is read once; the size checks below use it.
        let own = match req.dirent.map(|loc| DirentRef::new(&self.h, loc).load()) {
            Some(Ok(d)) => {
                self.check_own_dirent(req, &d, view, &mut report);
                Some(d)
            }
            // Not a field mismatch: the slot itself is unreadable. Report
            // what actually failed so repair can distinguish a poisoned
            // line from a forged field.
            Some(Err(cause)) => {
                report.violations.push(Violation::UnreadableAttr { ino: req.ino, cause });
                None
            }
            None => None,
        };

        // --- Structure walk (I2 core) -------------------------------------------
        let pages = match walk_file(&self.h, req.first_index, req.max_index_pages) {
            Ok(p) => p,
            Err(e) => {
                // A chain that exhausts the index-page bound is a hostile
                // graph cut off by budget, not just structural damage.
                if matches!(e, WalkError::ChainTooLong) {
                    report.budget_hit = true;
                }
                report.violations.push(Violation::Structure(e));
                return report;
            }
        };
        self.charge_walk(&pages);

        // --- Page provenance (I2) ------------------------------------------------
        for page in pages.all_pages() {
            match view.page_provenance(page) {
                PageProvenance::InFile(f) if f == req.ino => {}
                PageProvenance::AllocatedTo(a) if a == req.dirty_actor => {}
                state => report.violations.push(Violation::ForeignPage { page, state }),
            }
        }

        // --- Inline data integrity (sidecar checksums) ---------------------------
        // Delegated writes record a per-page streaming digest atomically
        // with the store (DESIGN.md §17); since the walk already visits
        // every data page, checking them here costs one extra hash per
        // page instead of a separate integrity traversal. A missing
        // sidecar proves nothing (ordinary stores invalidate it) — only a
        // present-but-wrong digest is corruption, and it always rejects.
        self.check_data_checksums(&pages, &mut report);

        // --- Directory contents (I1 names, I2 inos, I3) --------------------------
        if req.ftype == CoreFileType::Directory {
            self.check_directory(req, own.as_ref(), &pages, view, &mut report);
        } else if let Some(d) = &own {
            // Regular file: size vs extent.
            let cap = pages.capacity_bytes();
            if d.size > cap {
                report.violations.push(Violation::SizeBeyondExtent { size: d.size, capacity: cap });
            }
        }

        report.pages = pages;
        report
    }

    fn check_own_dirent(
        &self,
        req: &VerifyRequest<'_>,
        d: &DirentData,
        view: &dyn ResourceView,
        report: &mut VerifyReport,
    ) {
        if d.ino != req.ino {
            report.violations.push(Violation::InoMismatch { expected: req.ino, found: d.ino });
        }
        match d.ftype() {
            Some(t) if t == req.ftype => {}
            Some(_) | None => report.violations.push(Violation::BadFileType { raw: d.ftype_raw }),
        }
        if !d.mode.is_valid() {
            report.violations.push(Violation::BadMode { raw: d.mode.0 });
        }
        if name_is_bad(&d.name) {
            report.violations.push(Violation::BadName);
        }
        // I4: shadow table is ground truth for permissions.
        if let Some(shadow) = view.shadow_attr(req.ino) {
            if shadow.mode != d.mode || shadow.uid != d.uid || shadow.gid != d.gid {
                report.violations.push(Violation::PermissionTampered { ino: req.ino });
            }
        }
    }

    /// `own`: the directory's own dirent as [`Verifier::verify`] read it
    /// (`None` for the root, or when its slot was unreadable).
    fn check_directory(
        &self,
        req: &VerifyRequest<'_>,
        own: Option<&DirentData>,
        pages: &FilePages,
        view: &dyn ResourceView,
        report: &mut VerifyReport,
    ) {
        let mut names: DetHashMap<Vec<u8>, Ino> = DetHashMap::default();
        let mut inos: DetHashSet<Ino> = DetHashSet::default();
        let mut entries_seen: u64 = 0;
        // Slots the media would not give back: each may hold an entry the
        // writer is not to blame for losing.
        let mut unreadable: Vec<DirentLoc> = Vec::new();
        'scan: for page in pages.data_pages.iter().flatten() {
            let Ok(dir_page) = DirPage::load(&self.h, *page) else {
                continue; // No such page on the device: I2 flagged it above.
            };
            for slot in dir_page.slots() {
                let (loc, d, raw) = match slot {
                    DirSlot::Live(loc, d, raw) => (loc, d, raw),
                    DirSlot::Free(_) => continue,
                    // A media fault, not a forgery (DESIGN.md §14, §19).
                    DirSlot::Unreadable(loc, cause) => {
                        report.violations.push(Violation::UnreadableData { page: *page, cause });
                        unreadable.push(loc);
                        continue;
                    }
                };
                entries_seen += 1;
                if entries_seen > req.max_dir_entries {
                    // Hostile entry bomb: stop here, reject the file. The
                    // bound keeps verification time independent of how
                    // much garbage the LibFS can forge.
                    report.budget_hit = true;
                    report.violations.push(Violation::BudgetExceeded { entries_seen });
                    break 'scan;
                }
                if in_sim() {
                    work(cost::VERIFY_ENTRY_NS);
                }
                if DirentData::raw_name_len(raw) > trio_layout::MAX_NAME {
                    report.violations.push(Violation::BadName);
                }
                self.check_child_entry(req, &d, loc, view, &mut names, &mut inos, report);
            }
        }
        // Entry-count consistency (I1): every live entry counts, and each
        // unreadable slot may or may not have held one.
        // The root has no dirent: the kernel checks its count in the
        // superblock itself.
        let actual = report.children.len() as u64;
        if let Some(recorded) = own.map(|d| d.size) {
            if !(actual..=actual + unreadable.len() as u64).contains(&recorded) {
                report.violations.push(Violation::EntryCountMismatch { recorded, actual });
            }
        }
        // I3: children present at checkpoint but missing now must be truly gone.
        if let Some(ck) = req.checkpoint_children {
            // Ascending: the caller's hasher must not order the violations.
            let mut missing: Vec<Ino> = ck.iter().copied().filter(|c| !inos.contains(c)).collect();
            missing.sort_unstable();
            for child in missing {
                let disconnected = match view.ino_provenance(child) {
                    // Its recorded slot is one the media lost, not the writer.
                    InoProvenance::InUse(loc) if unreadable.contains(&loc) => false,
                    // Re-linked elsewhere, and the books have followed it.
                    InoProvenance::InUse(loc) if self.still_at(child, loc) => false,
                    // Freed, or moved to a slot the books have not seen yet:
                    // gone from here either way, so nobody may be using it.
                    _ => view.is_mapped(child),
                };
                if disconnected {
                    report.violations.push(Violation::DisconnectedChild { ino: child });
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_child_entry(
        &self,
        req: &VerifyRequest<'_>,
        d: &DirentData,
        loc: DirentLoc,
        view: &dyn ResourceView,
        names: &mut DetHashMap<Vec<u8>, Ino>,
        inos: &mut DetHashSet<Ino>,
        report: &mut VerifyReport,
    ) {
        let mut entry_ok = true;
        let ftype = match d.ftype() {
            Some(t) => t,
            None => {
                report.violations.push(Violation::BadFileType { raw: d.ftype_raw });
                entry_ok = false;
                CoreFileType::Regular
            }
        };
        if !d.mode.is_valid() {
            report.violations.push(Violation::BadMode { raw: d.mode.0 });
            entry_ok = false;
        }
        if name_is_bad(&d.name) {
            report.violations.push(Violation::BadName);
            entry_ok = false;
        } else if let Some(prev) = names.insert(d.name.clone(), d.ino) {
            let _ = prev;
            report.violations.push(Violation::DuplicateName { name: d.name.clone() });
            entry_ok = false;
        }
        if !inos.insert(d.ino) {
            report.violations.push(Violation::DuplicateIno { ino: d.ino });
            entry_ok = false;
        }
        // I2 on the child's inode number: the dirty actor's fresh ino, or one
        // the books place here — or placed at a slot that no longer holds it
        // (moved here).
        match view.ino_provenance(d.ino) {
            InoProvenance::AllocatedTo(a) if a == req.dirty_actor => {}
            InoProvenance::InUse(known) if known == loc || !self.still_at(d.ino, known) => {}
            // Never allocated, another LibFS's, or still live at its recorded
            // slot: a fabricated ino or a hard link.
            _ => {
                report.violations.push(Violation::ForeignIno { ino: d.ino });
                entry_ok = false;
            }
        }
        if entry_ok {
            report.children.push(ChildEntry {
                ino: d.ino,
                loc,
                ftype,
                name: d.name.clone(),
                mode: d.mode,
                uid: d.uid,
                gid: d.gid,
                first_index: d.first_index,
            });
        }
    }

    fn check_data_checksums(&self, pages: &FilePages, report: &mut VerifyReport) {
        let dev = self.h.device();
        for page in pages.data_pages.iter().flatten() {
            let want = match dev.page_csum(*page) {
                Ok(Some(w)) => w,
                // No sidecar: an ordinary store legitimately invalidated it.
                Ok(None) => continue,
                Err(cause) => {
                    report.violations.push(Violation::UnreadableData { page: *page, cause });
                    continue;
                }
            };
            let mut raw = vec![0u8; PAGE_SIZE];
            if let Err(cause) = self.h.read_untimed(*page, 0, &mut raw) {
                // Checksummed bytes that cannot be read back are lost, not
                // merely stale — reject rather than pass the file.
                report.violations.push(Violation::UnreadableData { page: *page, cause });
                continue;
            }
            if in_sim() {
                // Hashing rides the walk: one media read plus the digest
                // cost, no second traversal.
                dev.charge_transfer(dev.topology().node_of(*page), PAGE_SIZE, false, 0);
                work(cost::VERIFY_ENTRY_NS);
            }
            if trio_nvm::checksum::checksum(&raw) != want {
                report.violations.push(Violation::DataChecksumMismatch { page: *page });
            }
        }
    }

    fn charge_walk(&self, pages: &FilePages) {
        if !in_sim() {
            return;
        }
        let slots = pages.data_pages.len() as u64;
        work(slots * cost::VERIFY_INDEX_SLOT_NS);
        // Media cost of reading the index pages.
        let dev = self.h.device();
        for p in &pages.index_pages {
            dev.charge_transfer(dev.topology().node_of(*p), PAGE_SIZE, false, 0);
        }
    }
}

fn name_is_bad(name: &[u8]) -> bool {
    match std::str::from_utf8(name) {
        Ok(s) => validate_name(s).is_err(),
        Err(_) => true,
    }
}
