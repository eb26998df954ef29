//! Where a file's chain head and size live.
//!
//! Co-location (§4.1) puts every file's inode fields in its dirent slot in
//! the parent directory's data page — except the root's, which has no
//! parent: they live in the kernel-owned superblock. That is a format
//! decision, so it is made here, once, and not by each reader of it.

use trio_nvm::{NvmHandle, ProtError};

use crate::{CoreFileType, DirentLoc, DirentRef, Ino, SuperblockRef, DIRENT_SIZE, ROOT_INO};

/// The index-chain head and size of one file: in the superblock for the
/// root (`loc == None`), in the file's dirent slot for everyone else.
/// Stores go through [`SuperblockRef`] / [`DirentRef`] and cost what those
/// cost; the kernel serializes the superblock ones under its `sb_lock`
/// ([`Self::in_superblock`]).
#[derive(Clone, Copy)]
pub struct FileHead<'a> {
    h: &'a NvmHandle,
    loc: Option<DirentLoc>,
}

/// What a file's head says the file is ([`FileHead::load`]). The root's
/// says [`ROOT_INO`], a directory, and the superblock's chain head.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeadId {
    /// Inode number (0 = a free slot).
    pub ino: Ino,
    /// The file type, or the raw tag when it names none (check I1).
    pub ftype: Result<CoreFileType, u8>,
    /// Head of the index-page chain (0 = empty file).
    pub first_index: u64,
}

/// A head as [`FileHead::image`] took it, for [`FileHead::restore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HeadImage {
    /// The file's whole dirent slot.
    Slot(Box<[u8; DIRENT_SIZE]>),
    /// The root's superblock fields: (chain head, size).
    Root(u64, u64),
}

impl<'a> FileHead<'a> {
    /// The head of the file whose dirent is at `loc` (`None`: the root).
    pub fn new(h: &'a NvmHandle, loc: Option<DirentLoc>) -> Self {
        FileHead { h, loc }
    }

    /// Whether the head's stores go to the superblock.
    pub fn in_superblock(&self) -> bool {
        self.loc.is_none()
    }

    /// The one branch of the word accessors below: `d` on the dirent,
    /// `sb` on the superblock.
    fn pick<T>(&self, d: impl FnOnce(DirentRef) -> T, sb: impl FnOnce(SuperblockRef) -> T) -> T {
        match self.loc {
            Some(loc) => d(DirentRef::new(self.h, loc)),
            None => sb(SuperblockRef::new(self.h)),
        }
    }

    /// Head of the index-page chain (0 = empty file).
    pub fn first_index(&self) -> Result<u64, ProtError> {
        self.pick(|d| d.first_index(), |sb| sb.root_first_index())
    }

    /// Size in bytes (regular file) or live entries (directory).
    pub fn size(&self) -> Result<u64, ProtError> {
        self.pick(|d| d.size(), |sb| sb.root_size())
    }

    /// Atomically publishes a new chain head.
    pub fn set_first_index(&self, page: u64) -> Result<(), ProtError> {
        self.pick(|d| d.set_first_index(page), |sb| sb.set_root_first_index(page))
    }

    /// Atomically updates the size.
    pub fn set_size(&self, size: u64) -> Result<(), ProtError> {
        self.pick(|d| d.set_size(size), |sb| sb.set_root_size(size))
    }

    /// Trims the file to empty: no chain, then size 0.
    pub fn trim(&self) -> Result<(), ProtError> {
        self.set_first_index(0)?;
        self.set_size(0)
    }

    /// The file's identity: one untimed read of the whole slot, or of the
    /// superblock record.
    pub fn load(&self) -> Result<HeadId, ProtError> {
        let Some(loc) = self.loc else {
            let first_index = self.first_index()?;
            return Ok(HeadId { ino: ROOT_INO, ftype: Ok(CoreFileType::Directory), first_index });
        };
        let d = DirentRef::new(self.h, loc).load()?;
        let ftype = d.ftype().ok_or(d.ftype_raw);
        Ok(HeadId { ino: d.ino, ftype, first_index: d.first_index })
    }

    /// The head as it is now, to [`Self::restore`] later. `None` when the
    /// slot cannot be read: there is nothing to put back. A root field
    /// that cannot be read is taken as 0.
    pub fn image(&self) -> Option<HeadImage> {
        let Some(loc) = self.loc else {
            let first_index = self.first_index().unwrap_or(0);
            return Some(HeadImage::Root(first_index, self.size().unwrap_or(0)));
        };
        DirentRef::new(self.h, loc).image().ok().map(|b| HeadImage::Slot(Box::new(b)))
    }

    /// Puts an [`Self::image`] back, durably: the whole slot in one
    /// barrier, or both root fields (the second is stored even when the
    /// first fails; the first error is returned). A file's head never
    /// changes kind, so an image of the other kind is refused unwritten.
    pub fn restore(&self, img: &HeadImage) -> Result<(), ProtError> {
        match (self.loc, img) {
            (Some(at), HeadImage::Slot(b)) => DirentRef::new(self.h, at).restore_image(b).map(drop),
            (None, &HeadImage::Root(fi, n)) => self.set_first_index(fi).and(self.set_size(n)),
            _ => Err(ProtError::OutOfRange),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trio_fsapi::Mode;
    use trio_nvm::{DeviceConfig, NvmDevice, PageId, KERNEL_ACTOR};

    use crate::DirentData;

    #[test]
    fn root_fields_are_the_superblocks_and_a_files_its_dirents() {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let h = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
        SuperblockRef::new(&h).format(dev.topology().total_pages(), 2).unwrap();
        let root = FileHead::new(&h, None);
        assert!(root.in_superblock());
        root.set_first_index(9).unwrap();
        root.set_size(3).unwrap();
        assert_eq!(SuperblockRef::new(&h).root_first_index().unwrap(), 9);
        assert_eq!((root.first_index().unwrap(), root.size().unwrap()), (9, 3));
        let root_id = HeadId { ino: ROOT_INO, ftype: Ok(CoreFileType::Directory), first_index: 9 };
        assert_eq!(root.load().unwrap(), root_id);

        let loc = DirentLoc { page: PageId(7), slot: 2 };
        let file = FileHead::new(&h, Some(loc));
        assert!(!file.in_superblock());
        let d = DirentData::new(b"f", CoreFileType::Regular, Mode::RW, 0, 0);
        DirentRef::new(&h, loc).link(&d, 40).unwrap();
        file.set_first_index(11).unwrap();
        file.set_size(4096).unwrap();
        assert_eq!(DirentRef::new(&h, loc).first_index().unwrap(), 11);
        assert_eq!((file.first_index().unwrap(), file.size().unwrap()), (11, 4096));
        let file_id = HeadId { ino: 40, ftype: Ok(CoreFileType::Regular), first_index: 11 };
        assert_eq!(file.load().unwrap(), file_id);
        assert_eq!(root.first_index().unwrap(), 9, "one file's head is not another's");

        // Image, change, restore: each head gets its own fields back.
        let (root_img, file_img) = (root.image().unwrap(), file.image().unwrap());
        assert_eq!(root_img, HeadImage::Root(9, 3));
        assert_eq!(file_img, HeadImage::Slot(Box::new(DirentRef::new(&h, loc).image().unwrap())));
        root.trim().unwrap();
        file.trim().unwrap();
        assert_eq!((root.first_index().unwrap(), root.size().unwrap()), (0, 0));
        assert_eq!((file.first_index().unwrap(), file.size().unwrap()), (0, 0));
        assert_eq!(file.load().unwrap().ino, 40, "a trim keeps the file");
        assert_eq!(root.restore(&file_img), Err(ProtError::OutOfRange));
        assert_eq!(file.restore(&root_img), Err(ProtError::OutOfRange));
        root.restore(&root_img).unwrap();
        file.restore(&file_img).unwrap();
        assert_eq!(root.load().unwrap(), root_id);
        assert_eq!((file.first_index().unwrap(), file.size().unwrap()), (11, 4096));

        // An unreadable slot has no image; a root field reads as 0.
        dev.poison_line(PageId(7), 8);
        assert_eq!(file.image(), None);
        assert_eq!(file.load(), Err(ProtError::Poisoned));
        for page in [PageId(0), crate::superblock_replica_page(dev.topology().total_pages())] {
            dev.poison_line(page, 0);
        }
        assert_eq!(root.image(), Some(HeadImage::Root(0, 0)));
        assert_eq!(root.load(), Err(ProtError::Poisoned));
    }
}
