//! ArckFS **core state**: the explicitly-specified on-NVM data layout that
//! is *common knowledge* among every LibFS, the kernel controller, and the
//! integrity verifier (paper §3.2, §4.1).
//!
//! Everything in this crate is byte-exact: offsets are constants, values
//! are little-endian, and the 8-byte fields that commit operations are
//! updated with the device's atomic-persist primitive (§4.4). A LibFS may
//! build any *auxiliary* state it likes on top (radix trees, hash tables,
//! full-path indexes…), but it cannot change these formats — that is what
//! lets differently-customized LibFSes share files and lets the verifier
//! check them.
//!
//! The core state of one *file* (the unit of sharing and verification) is:
//!
//! * its 256-byte **dirent/inode slot** in the parent directory's data page
//!   (co-location, §4.1) — name, inode number, type, permissions, size, and
//!   the head of the index-page chain;
//! * its chain of **index pages** — 511 slots pointing at data pages plus a
//!   `next` pointer in the last slot;
//! * its **data pages** — raw bytes for regular files, arrays of sixteen
//!   dirent slots for directories.
//!
//! Page number 0 is the superblock, so `0` doubles as the null page
//! pointer, and inode number 0 marks a free/uncommitted dirent slot — the
//! creation protocol writes the whole slot with `ino = 0`, persists it,
//! then atomically publishes the real inode number.

#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "unit tests program the MMU directly")
)]

pub mod dirent;
pub mod head;
pub mod index;
pub mod superblock;
pub mod walk;

pub use dirent::{
    DirPage, DirSlot, DirentData, DirentLoc, DirentRef, DIRENTS_PER_PAGE, DIRENT_SIZE,
    MAX_NAME,
};
pub use head::FileHead;
pub use index::{chain_capacity, index_slot, IndexPageRef, ENTRIES_PER_INDEX};
pub use superblock::{superblock_replica_page, SbHealth, SuperblockRef};
pub use walk::{walk_file, FilePages, WalkError};

/// An inode number. `0` is "none"/free; [`ROOT_INO`] is the root directory.
pub type Ino = u64;

/// The root directory's inode number.
pub const ROOT_INO: Ino = 1;

/// On-disk file-type tags (field `ftype` of a dirent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreFileType {
    /// Regular file.
    Regular = 1,
    /// Directory.
    Directory = 2,
}

impl CoreFileType {
    /// Parses the on-media tag; anything else is corruption (check I1).
    pub fn from_raw(v: u8) -> Option<CoreFileType> {
        match v {
            1 => Some(CoreFileType::Regular),
            2 => Some(CoreFileType::Directory),
            _ => None,
        }
    }

    /// Conversion to the API-level type.
    pub fn to_fsapi(self) -> trio_fsapi::FileType {
        match self {
            CoreFileType::Regular => trio_fsapi::FileType::Regular,
            CoreFileType::Directory => trio_fsapi::FileType::Directory,
        }
    }
}
