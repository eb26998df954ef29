//! Superblock format (device page 0) with a replicated twin.
//!
//! Byte layout (little-endian), identical on both copies:
//!
//! | offset | field                   |
//! |-------:|-------------------------|
//! |      0 | magic (`ARCKFS01`)      |
//! |      8 | total pages             |
//! |     16 | root: first index page  |
//! |     24 | root: live entry count  |
//! |     32 | root: mtime (virtual ns)|
//! |     40 | inode high-water mark   |
//! |     48 | seahash of bytes 0..48  |
//!
//! The whole record (fields + checksum) fits in cache line 0, so one
//! full-line store updates a copy atomically with respect to concurrent
//! readers (page stores run under the slot lock) and — on real PM — a
//! full-line write is what clears a poisoned line.
//!
//! **Replication (DESIGN.md §19).** The primary lives on page 0; a byte-
//! identical replica lives on the *last* device page (far from the
//! primary, reserved out of the allocator). Writers — only the kernel,
//! single-writer by the controller's superblock lock — update primary
//! first, then the replica. The checksum doubles as a consistency seal:
//! a reader that finds the primary poisoned, bit-rotted, or torn by a
//! crash falls back to the replica, which is stably old-consistent for
//! the whole primary-update window. The commit point of every update is
//! therefore the primary's fence: crash before it and the replica
//! restores the old record; crash after it and recovery resyncs the
//! replica from the new primary.
//!
//! The read path deliberately does **not** repair a bad primary in
//! place: a reader racing the single writer could otherwise resurrect
//! the old record over a freshly committed one. Durable repair is the
//! kernel's job — [`SuperblockRef::scrub`] under the controller's
//! superblock lock (patrol scrubber + recovery).
//!
//! A LibFS maps both copies read-only at mount; only the kernel
//! controller writes them. The root directory has no parent dirent, so
//! its inode fields live here (it is always a directory with mode 0o777,
//! uid/gid 0 in this reproduction).

use trio_nvm::{checksum::checksum, NvmHandle, PageId, ProtError, CACHE_LINE};

/// `b"ARCKFS01"` as a little-endian u64.
pub const MAGIC: u64 = u64::from_le_bytes(*b"ARCKFS01");

const OFF_MAGIC: usize = 0;
const OFF_TOTAL_PAGES: usize = 8;
const OFF_ROOT_FIRST_INDEX: usize = 16;
const OFF_ROOT_SIZE: usize = 24;
const OFF_ROOT_MTIME: usize = 32;
const OFF_NEXT_INO: usize = 40;
/// Seal over bytes `0..48`; lives in line 0 with the fields it covers so
/// a crash reverts field and seal together.
const OFF_CSUM: usize = 48;

/// The (primary) superblock page number.
pub const SUPERBLOCK_PAGE: PageId = PageId(0);

/// The replica page for a device of `total_pages`: the last page, as far
/// from the primary as the geometry allows. Reserved out of every
/// allocator pool at format/recovery time.
pub fn superblock_replica_page(total_pages: u64) -> PageId {
    PageId(total_pages.saturating_sub(1))
}

/// What [`SuperblockRef::scrub`] found (and did).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SbHealth {
    /// Both copies consistent and identical.
    Clean,
    /// Primary was poisoned/rotted/torn; rewritten from the replica.
    RepairedPrimary,
    /// Replica was poisoned/rotted/torn; rewritten from the primary.
    RepairedReplica,
    /// Both consistent but divergent (crash between the two writes);
    /// replica resynced from the newer primary.
    Resynced,
    /// Neither copy validates (unformatted device, or a double fault).
    Degraded,
}

/// Typed accessor over the replicated superblock.
#[derive(Clone)]
pub struct SuperblockRef<'a> {
    h: &'a NvmHandle,
}

fn get(buf: &[u8; CACHE_LINE], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().unwrap())
}

fn put(buf: &mut [u8; CACHE_LINE], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn sealed(buf: &[u8; CACHE_LINE]) -> bool {
    checksum(&buf[..OFF_CSUM]) == get(buf, OFF_CSUM)
}

impl<'a> SuperblockRef<'a> {
    /// Wraps a handle; no access is performed yet.
    pub fn new(h: &'a NvmHandle) -> Self {
        SuperblockRef { h }
    }

    /// The replica page on this handle's device.
    pub fn replica_page(&self) -> PageId {
        superblock_replica_page(self.h.device().topology().total_pages())
    }

    /// Reads one copy's record line. `Err` means the media itself faulted
    /// (poisoned line, unmapped page for an unprivileged reader).
    fn line0(&self, page: PageId) -> Result<[u8; CACHE_LINE], ProtError> {
        let mut buf = [0u8; CACHE_LINE];
        self.h.read_untimed(page, 0, &mut buf)?;
        Ok(buf)
    }

    /// Persists one full record line to one copy. The full-line store is
    /// what repairs a poisoned line in the device model.
    fn write_line0(&self, page: PageId, buf: &[u8; CACHE_LINE]) -> Result<(), ProtError> {
        let d = self.h.write_dirty(page, 0, buf)?;
        let _durable = self.h.persist_dirty(d);
        Ok(())
    }

    /// The best available record: primary if sealed, else replica if
    /// sealed, else (degraded — unformatted device or double fault) the
    /// raw primary, else the raw replica, else the primary's fault.
    fn best_line0(&self) -> Result<[u8; CACHE_LINE], ProtError> {
        let prim = self.line0(SUPERBLOCK_PAGE);
        if let Ok(b) = &prim {
            if sealed(b) {
                return Ok(*b);
            }
        }
        let rep = self.line0(self.replica_page());
        if let Ok(b) = &rep {
            if sealed(b) {
                return Ok(*b);
            }
        }
        match (prim, rep) {
            (Ok(b), _) => Ok(b),
            (Err(_), Ok(b)) => Ok(b),
            (Err(e), Err(_)) => Err(e),
        }
    }

    /// Fault-tolerant field read (see the module docs for the fallback
    /// ladder; no in-place repair on this path).
    fn read_word(&self, off: usize) -> Result<u64, ProtError> {
        Ok(get(&self.best_line0()?, off))
    }

    /// Read-modify-write of one field through both copies: reseal, then
    /// primary (the commit point), then replica. Callers in the kernel
    /// serialize through the controller's superblock lock; unprivileged
    /// actors fault on the first store.
    fn write_word(&self, off: usize, v: u64) -> Result<(), ProtError> {
        let mut buf = self.best_line0()?;
        put(&mut buf, off, v);
        let seal = checksum(&buf[..OFF_CSUM]);
        put(&mut buf, OFF_CSUM, seal);
        self.write_line0(SUPERBLOCK_PAGE, &buf)?;
        self.write_line0(self.replica_page(), &buf)
    }

    /// Repairs/resyncs the twin copies (kernel only, under the
    /// controller's superblock lock): the patrol scrubber's and the
    /// recovery path's entry point. Primary wins when both copies are
    /// sealed but divergent — the replica is always the older of the two.
    pub fn scrub(&self) -> Result<SbHealth, ProtError> {
        let prim = self.line0(SUPERBLOCK_PAGE).ok().filter(sealed);
        let rep = self.line0(self.replica_page()).ok().filter(sealed);
        match (prim, rep) {
            (Some(p), Some(r)) if p == r => Ok(SbHealth::Clean),
            (Some(p), Some(_)) => {
                self.write_line0(self.replica_page(), &p)?;
                Ok(SbHealth::Resynced)
            }
            (Some(p), None) => {
                self.write_line0(self.replica_page(), &p)?;
                Ok(SbHealth::RepairedReplica)
            }
            (None, Some(r)) => {
                self.write_line0(SUPERBLOCK_PAGE, &r)?;
                Ok(SbHealth::RepairedPrimary)
            }
            (None, None) => Ok(SbHealth::Degraded),
        }
    }

    /// Formats a fresh file system (kernel, at mkfs time): one sealed
    /// line-0 store per copy.
    pub fn format(&self, total_pages: u64, first_ino: u64) -> Result<(), ProtError> {
        let mut buf = [0u8; CACHE_LINE];
        put(&mut buf, OFF_MAGIC, MAGIC);
        put(&mut buf, OFF_TOTAL_PAGES, total_pages);
        put(&mut buf, OFF_ROOT_FIRST_INDEX, 0);
        put(&mut buf, OFF_ROOT_SIZE, 0);
        put(&mut buf, OFF_ROOT_MTIME, 0);
        put(&mut buf, OFF_NEXT_INO, first_ino);
        let seal = checksum(&buf[..OFF_CSUM]);
        put(&mut buf, OFF_CSUM, seal);
        self.write_line0(SUPERBLOCK_PAGE, &buf)?;
        self.write_line0(self.replica_page(), &buf)
    }

    /// Whether the magic matches a formatted file system.
    pub fn is_formatted(&self) -> Result<bool, ProtError> {
        Ok(self.read_word(OFF_MAGIC)? == MAGIC)
    }

    /// Total pages recorded at format time.
    pub fn total_pages(&self) -> Result<u64, ProtError> {
        self.read_word(OFF_TOTAL_PAGES)
    }

    /// Head of the root directory's index-page chain (0 = empty root).
    pub fn root_first_index(&self) -> Result<u64, ProtError> {
        self.read_word(OFF_ROOT_FIRST_INDEX)
    }

    /// Atomically publishes a new root index head.
    pub fn set_root_first_index(&self, page: u64) -> Result<(), ProtError> {
        self.write_word(OFF_ROOT_FIRST_INDEX, page)
    }

    /// Live entries in the root directory.
    pub fn root_size(&self) -> Result<u64, ProtError> {
        self.read_word(OFF_ROOT_SIZE)
    }

    /// Updates the root entry count.
    pub fn set_root_size(&self, n: u64) -> Result<(), ProtError> {
        self.write_word(OFF_ROOT_SIZE, n)
    }

    /// Root mtime (virtual ns).
    pub fn root_mtime(&self) -> Result<u64, ProtError> {
        self.read_word(OFF_ROOT_MTIME)
    }

    /// Updates the root mtime.
    pub fn set_root_mtime(&self, t: u64) -> Result<(), ProtError> {
        self.write_word(OFF_ROOT_MTIME, t)
    }

    /// Persisted inode high-water mark (kernel allocator).
    pub fn next_ino(&self) -> Result<u64, ProtError> {
        self.read_word(OFF_NEXT_INO)
    }

    /// Advances the inode high-water mark.
    pub fn set_next_ino(&self, v: u64) -> Result<(), ProtError> {
        self.write_word(OFF_NEXT_INO, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trio_nvm::{DeviceConfig, NvmDevice, KERNEL_ACTOR};

    #[test]
    fn format_and_read_back() {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let h = NvmHandle::new(dev, KERNEL_ACTOR);
        let sb = SuperblockRef::new(&h);
        assert!(!sb.is_formatted().unwrap());
        sb.format(4096, 2).unwrap();
        assert!(sb.is_formatted().unwrap());
        assert_eq!(sb.total_pages().unwrap(), 4096);
        assert_eq!(sb.root_first_index().unwrap(), 0);
        assert_eq!(sb.next_ino().unwrap(), 2);
        sb.set_root_first_index(17).unwrap();
        sb.set_root_size(3).unwrap();
        assert_eq!(sb.root_first_index().unwrap(), 17);
        assert_eq!(sb.root_size().unwrap(), 3);
        assert_eq!(sb.scrub().unwrap(), SbHealth::Clean);
    }

    #[test]
    fn unprivileged_actor_cannot_write_superblock() {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let kh = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
        SuperblockRef::new(&kh).format(4096, 2).unwrap();
        let uh = NvmHandle::new(Arc::clone(&dev), trio_nvm::ActorId(3));
        // Unmapped: cannot even read.
        assert!(SuperblockRef::new(&uh).is_formatted().is_err());
        dev.mmu_map(trio_nvm::ActorId(3), SUPERBLOCK_PAGE, trio_nvm::PagePerm::Read).unwrap();
        assert!(SuperblockRef::new(&uh).is_formatted().unwrap());
        assert!(SuperblockRef::new(&uh).set_root_size(9).is_err());
    }

    #[test]
    fn poisoned_primary_falls_back_to_replica_and_scrub_repairs() {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let h = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
        let sb = SuperblockRef::new(&h);
        sb.format(4096, 7).unwrap();
        sb.set_root_size(5).unwrap();
        dev.poison_line(SUPERBLOCK_PAGE, 0);
        // Reads survive on the replica.
        assert_eq!(sb.root_size().unwrap(), 5);
        assert_eq!(sb.next_ino().unwrap(), 7);
        // The kernel's scrub rewrites line 0, clearing the poison.
        assert_eq!(sb.scrub().unwrap(), SbHealth::RepairedPrimary);
        assert!(!dev.page_has_poison(SUPERBLOCK_PAGE));
        assert_eq!(sb.root_size().unwrap(), 5);
        assert_eq!(sb.scrub().unwrap(), SbHealth::Clean);
    }

    #[test]
    fn rotted_replica_detected_and_resealed() {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let h = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
        let sb = SuperblockRef::new(&h);
        sb.format(4096, 7).unwrap();
        let rep = sb.replica_page();
        dev.corrupt_for_test(rep, 24).unwrap(); // silent bit rot in root_size
        assert_eq!(sb.scrub().unwrap(), SbHealth::RepairedReplica);
        assert_eq!(sb.scrub().unwrap(), SbHealth::Clean);
        // A writer that finds a rotted replica heals it on the next seal.
        dev.corrupt_for_test(rep, 24).unwrap();
        sb.set_root_size(9).unwrap();
        assert_eq!(sb.scrub().unwrap(), SbHealth::Clean);
        assert_eq!(sb.root_size().unwrap(), 9);
    }
}
