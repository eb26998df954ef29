//! Malicious-LibFS attack kit (paper §6.5).
//!
//! The paper stresses its integrity enforcement with eleven handcrafted
//! attacks by a malicious LibFS plus scripted corruptions emulating buggy
//! LibFSes. This module reproduces those attacks *using only the powers a
//! real malicious LibFS has*: raw stores through its own MMU-checked
//! [`trio_nvm::NvmHandle`] to pages it legitimately mapped. Every function
//! takes an [`ArckFs`] whose process is presumed hostile, performs the
//! corruption, and returns enough information for tests to assert both
//! detection and recovery.

use trio_fsapi::{FsResult, Mode};
use trio_layout::{CoreFileType, DirPage, DirentData, DirentLoc, DirentRef, IndexPageRef};
use trio_nvm::PageId;

use crate::libfs::ArckFs;

/// Which attack to run — mirrors the paper's list (§2.3.2, §6.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attack {
    /// 1. Memory-based exploitation: point an index entry at an address
    ///    outside the file (the paper's "pointers … point to the victim's
    ///    sensitive DRAM data"; here: an out-of-range / foreign page).
    PointerHijack,
    /// 2. Semantic: remove a non-empty directory, disconnecting files.
    RemoveNonEmptyDir,
    /// 3. Semantic: create a file name containing `/` to confuse victims.
    SlashInName,
    /// 4. Structural: create a loop within a file's index pages.
    IndexCycle,
    /// 5. Semantic: two files with the same name under one directory.
    DuplicateName,
    /// 6. Double-reference: a second dirent claiming an existing inode
    ///    (fabricated hard link).
    DoubleRefIno,
    /// 7. Fabricated inode number never allocated by the kernel.
    FabricatedIno,
    /// 8. Size lie: inflate the recorded size past the allocated extent.
    SizeLie,
    /// 9. Permission tampering: widen the cached mode bits (I4).
    ChmodTamper,
    /// 10. Entry-count lie: directory size field disagrees with entries.
    EntryCountLie,
    /// 11. Type confusion: rewrite a file's type tag to garbage.
    TypeConfusion,
}

/// All attacks, for exhaustive sweeps.
pub const ALL_ATTACKS: [Attack; 11] = [
    Attack::PointerHijack,
    Attack::RemoveNonEmptyDir,
    Attack::SlashInName,
    Attack::IndexCycle,
    Attack::DuplicateName,
    Attack::DoubleRefIno,
    Attack::FabricatedIno,
    Attack::SizeLie,
    Attack::ChmodTamper,
    Attack::EntryCountLie,
    Attack::TypeConfusion,
];

/// Runs `attack` against `dir_path` (a directory the malicious LibFS has
/// write-mapped, containing at least the file `victim`). Returns the inode
/// the kernel should end up flagging (the directory or the victim file).
pub fn run_attack(fs: &ArckFs, attack: Attack, dir_path: &str, victim: &str) -> FsResult<u64> {
    let victim_path = trio_fsapi::path::join(dir_path, victim);
    let (dir_loc, _dir_index, dir_data) = fs.debug_file_pages(dir_path)?;
    let (vic_loc, vic_index, _vic_data) = fs.debug_file_pages(&victim_path)?;
    let h = fs.handle();
    let dir_ino = match dir_loc {
        Some(loc) => DirentRef::new(h, loc).ino().map_err(ArckFs::fault)?,
        None => trio_layout::ROOT_INO,
    };
    let vic_loc = vic_loc.expect("victim has a dirent");
    let vic_ino = DirentRef::new(h, vic_loc).ino().map_err(ArckFs::fault)?;
    let free_slot = free_slot_in(fs, &dir_data)?;

    match attack {
        Attack::PointerHijack => {
            // Point the victim's first index slot at a page the file does
            // not own (here: the directory's own data page — a foreign
            // page in provenance terms; an out-of-range "DRAM" address is
            // caught even earlier by the defensive walk).
            let target = dir_data.iter().flatten().next().copied().expect("dir has a page");
            let ipage = *vic_index.first().expect("victim has an index page");
            IndexPageRef::new(h, ipage).set_entry(1, target.0).map_err(ArckFs::fault)?;
            Ok(vic_ino)
        }
        Attack::RemoveNonEmptyDir => {
            // Clear the (non-empty) victim *directory*'s dirent without
            // touching its children: they become disconnected (I3).
            DirentRef::new(h, vic_loc).clear().map_err(ArckFs::fault)?;
            Ok(dir_ino)
        }
        Attack::SlashInName => {
            let mut evil =
                DirentData::new(b"a/b", CoreFileType::Regular, Mode::RW, 0, 0);
            evil.ino = vic_ino + 1_000_000; // Also fabricated, but the name
                                            // check fires regardless.
            DirentRef::new(h, free_slot).link(&evil, evil.ino).map_err(ArckFs::fault)?;
            Ok(dir_ino)
        }
        Attack::IndexCycle => {
            let ipage = *vic_index.first().expect("victim has an index page");
            IndexPageRef::new(h, ipage).set_next(ipage.0).map_err(ArckFs::fault)?;
            Ok(vic_ino)
        }
        Attack::DuplicateName => {
            let dup = DirentRef::new(h, vic_loc).load().map_err(ArckFs::fault)?;
            let mut d2 = dup.clone();
            d2.first_index = 0;
            DirentRef::new(h, free_slot).link(&d2, vic_ino + 2_000_000).map_err(ArckFs::fault)?;
            Ok(dir_ino)
        }
        Attack::DoubleRefIno => {
            let d = DirentData::new(b"hardlink", CoreFileType::Regular, Mode::RW, 0, 0);
            // Same ino, twice.
            DirentRef::new(h, free_slot).link(&d, vic_ino).map_err(ArckFs::fault)?;
            Ok(dir_ino)
        }
        Attack::FabricatedIno => {
            let d = DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 0, 0);
            DirentRef::new(h, free_slot).link(&d, 987_654_321).map_err(ArckFs::fault)?;
            Ok(dir_ino)
        }
        Attack::SizeLie => {
            DirentRef::new(h, vic_loc).set_size(1 << 40).map_err(ArckFs::fault)?;
            Ok(vic_ino)
        }
        Attack::ChmodTamper => {
            let d = DirentRef::new(h, vic_loc).load().map_err(ArckFs::fault)?;
            DirentRef::new(h, vic_loc)
                .set_attr(Mode(0o777), d.ftype_raw, d.name.len() as u8)
                .map_err(ArckFs::fault)?;
            Ok(vic_ino)
        }
        Attack::EntryCountLie => {
            match dir_loc {
                Some(loc) => {
                    DirentRef::new(h, loc).set_size(9_999).map_err(ArckFs::fault)?
                }
                None => {
                    // Root's count lives in the kernel-owned superblock; a
                    // LibFS cannot even attempt this there (MMU blocks it),
                    // so lie about the victim subdirectory instead.
                    DirentRef::new(h, vic_loc).set_size(9_999).map_err(ArckFs::fault)?;
                    return Ok(vic_ino);
                }
            }
            Ok(dir_ino)
        }
        Attack::TypeConfusion => {
            let d = DirentRef::new(h, vic_loc).load().map_err(ArckFs::fault)?;
            DirentRef::new(h, vic_loc)
                .set_attr(d.mode, 0xEE, d.name.len() as u8)
                .map_err(ArckFs::fault)?;
            Ok(vic_ino)
        }
    }
}

/// Finds a free dirent slot in the directory's mapped data pages.
pub(crate) fn free_slot_in(fs: &ArckFs, dir_data: &[Option<PageId>]) -> FsResult<DirentLoc> {
    for page in dir_data.iter().flatten() {
        let page = DirPage::load(fs.handle(), *page).map_err(ArckFs::fault)?;
        if let Some(loc) = page.first_free() {
            return Ok(loc);
        }
    }
    Err(trio_fsapi::FsError::NoSpace)
}
