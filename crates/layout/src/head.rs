//! Where a file's chain head and size live.
//!
//! Co-location (§4.1) puts every file's inode fields in its dirent slot in
//! the parent directory's data page — except the root's, which has no
//! parent: they live in the kernel-owned superblock. That is a format
//! decision, so it is made here, once, and not by each reader of it.

use trio_nvm::{NvmHandle, ProtError};

use crate::{DirentLoc, DirentRef, SuperblockRef};

/// The index-chain head and size of one file: in the superblock for the
/// root (`loc == None`), in the file's dirent slot for everyone else.
/// Stores go through [`SuperblockRef`] / [`DirentRef`] and cost what those
/// cost; the kernel serializes the superblock ones under its `sb_lock`.
#[derive(Clone, Copy)]
pub struct FileHead<'a> {
    h: &'a NvmHandle,
    loc: Option<DirentLoc>,
}

impl<'a> FileHead<'a> {
    /// The head of the file whose dirent is at `loc` (`None`: the root).
    pub fn new(h: &'a NvmHandle, loc: Option<DirentLoc>) -> Self {
        FileHead { h, loc }
    }

    /// Head of the index-page chain (0 = empty file).
    pub fn first_index(&self) -> Result<u64, ProtError> {
        match self.loc {
            Some(loc) => DirentRef::new(self.h, loc).first_index(),
            None => SuperblockRef::new(self.h).root_first_index(),
        }
    }

    /// Size in bytes (regular file) or live entries (directory).
    pub fn size(&self) -> Result<u64, ProtError> {
        match self.loc {
            Some(loc) => DirentRef::new(self.h, loc).size(),
            None => SuperblockRef::new(self.h).root_size(),
        }
    }

    /// Atomically publishes a new chain head.
    pub fn set_first_index(&self, page: u64) -> Result<(), ProtError> {
        match self.loc {
            Some(loc) => DirentRef::new(self.h, loc).set_first_index(page),
            None => SuperblockRef::new(self.h).set_root_first_index(page),
        }
    }

    /// Atomically updates the size.
    pub fn set_size(&self, size: u64) -> Result<(), ProtError> {
        match self.loc {
            Some(loc) => DirentRef::new(self.h, loc).set_size(size),
            None => SuperblockRef::new(self.h).set_root_size(size),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trio_nvm::{DeviceConfig, NvmDevice, PageId, KERNEL_ACTOR};

    #[test]
    fn root_fields_are_the_superblocks_and_a_files_its_dirents() {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let h = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
        SuperblockRef::new(&h).format(dev.topology().total_pages(), 2).unwrap();
        let root = FileHead::new(&h, None);
        root.set_first_index(9).unwrap();
        root.set_size(3).unwrap();
        assert_eq!(SuperblockRef::new(&h).root_first_index().unwrap(), 9);
        assert_eq!((root.first_index().unwrap(), root.size().unwrap()), (9, 3));

        let loc = DirentLoc { page: PageId(7), slot: 2 };
        let file = FileHead::new(&h, Some(loc));
        file.set_first_index(11).unwrap();
        file.set_size(4096).unwrap();
        assert_eq!(DirentRef::new(&h, loc).first_index().unwrap(), 11);
        assert_eq!((file.first_index().unwrap(), file.size().unwrap()), (11, 4096));
        assert_eq!(root.first_index().unwrap(), 9, "one file's head is not another's");
    }
}
