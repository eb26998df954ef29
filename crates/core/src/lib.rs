//! **ArckFS** — the paper's POSIX-like userspace NVM file system on the
//! Trio architecture — plus the two customized LibFSes it enables:
//! **KVFS** (small-file get/set, §5) and **FPFS** (full-path indexing, §5).
//!
//! One [`ArckFs`] instance is one application's private LibFS. It owns all
//! file system *design* (paper §3.2): data structures, concurrency
//! control, crash-consistency mechanism — everything except the explicitly
//! shared core-state layout (`trio-layout`), access control
//! (`trio-kernel`), and integrity verification (`trio-verifier`).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use trio_fsapi::{FileSystem, Mode, OpenFlags};
//! use trio_kernel::{KernelConfig, KernelController};
//! use trio_nvm::{DeviceConfig, NvmDevice};
//!
//! let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
//! let kernel = KernelController::format(dev, KernelConfig::default());
//! let fs = arckfs::ArckFs::mount(kernel, 1000, 1000, arckfs::ArckFsConfig::no_delegation());
//!
//! let rt = trio_sim::SimRuntime::new(0);
//! let fs2 = Arc::clone(&fs);
//! rt.spawn("app", move || {
//!     fs2.mkdir("/docs", Mode::RWX).unwrap();
//!     let fd = fs2
//!         .open("/docs/a.txt", OpenFlags::CREATE | OpenFlags::RDWR, Mode::RW)
//!         .unwrap();
//!     fs2.pwrite(fd, 0, b"hello nvm").unwrap();
//!     let mut buf = [0u8; 9];
//!     fs2.pread(fd, 0, &mut buf).unwrap();
//!     assert_eq!(&buf, b"hello nvm");
//!     fs2.close(fd).unwrap();
//! });
//! rt.run();
//! ```

#![cfg_attr(
    test,
    allow(clippy::disallowed_methods, reason = "unit tests program the MMU directly, keep std sets")
)]

pub mod adversary;
pub mod attack;
pub mod dir_ops;
pub mod fd;
pub mod file_ops;
pub mod fpfs;
pub mod journal;
pub mod kvfs;
pub mod libfs;
pub mod node;
pub(crate) mod obs;
pub mod pool;

use std::sync::Arc;

use trio_fsapi::{
    DirEntry, Fd, FileSystem, FsError, FsResult, Mode, OpenFlags, SetAttr, Stat,
};
use trio_layout::CoreFileType;

pub use fpfs::FpFs;
pub use kvfs::KvFs;
pub use libfs::{ArckFs, ArckFsConfig};

impl FileSystem for ArckFs {
    fn open(&self, path: &str, flags: OpenFlags, mode: Mode) -> FsResult<Fd> {
        let comps = trio_fsapi::path::components(path)?;
        let node = if comps.is_empty() {
            Arc::clone(&self.root)
        } else {
            let dir = self.resolve_dir(&comps[..comps.len() - 1])?;
            let name = comps[comps.len() - 1];
            match self.lookup_child(&dir, name)? {
                Some(n) => {
                    if flags.contains(OpenFlags::CREATE) && flags.contains(OpenFlags::EXCL) {
                        return Err(FsError::Exists);
                    }
                    n
                }
                None if flags.contains(OpenFlags::CREATE) => {
                    match self.create_entry(&dir, name, CoreFileType::Regular, mode) {
                        Ok(n) => n,
                        // A concurrent creator won the race: reuse theirs.
                        Err(FsError::Exists) => {
                            self.lookup_child(&dir, name)?.ok_or(FsError::NotFound)?
                        }
                        Err(e) => return Err(e),
                    }
                }
                None => return Err(FsError::NotFound),
            }
        };
        if node.ftype == CoreFileType::Directory && flags.writable() {
            return Err(FsError::IsDir);
        }
        if flags.contains(OpenFlags::TRUNC) && node.ftype == CoreFileType::Regular {
            self.truncate_node(&node, 0)?;
        }
        Ok(self.fds.insert(fd::FdEntry { node, flags }))
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        // The one call that uses a file without going through
        // `with_mapped`: look at the recall page here too, so that a
        // recall of the file is parked on it before the pin goes.
        self.poll_recalls();
        let (e, idle) = self.fds.remove(fd)?;
        if idle {
            let _ = self.yield_node(&e.node, true);
        }
        Ok(())
    }

    fn pread(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let e = self.fds.get(fd)?;
        if !e.flags.readable() {
            return Err(FsError::BadFd);
        }
        if e.node.ftype != CoreFileType::Regular {
            return Err(FsError::IsDir);
        }
        self.pread_node(&e.node, off, buf)
    }

    fn pwrite(&self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        let e = self.fds.get(fd)?;
        if !e.flags.writable() {
            return Err(FsError::ReadOnly);
        }
        if e.node.ftype != CoreFileType::Regular {
            return Err(FsError::IsDir);
        }
        self.pwrite_node(&e.node, off, data)
    }

    fn create(&self, path: &str, mode: Mode) -> FsResult<()> {
        let (dir, name) = self.resolve_parent(path)?;
        self.create_entry(&dir, name, CoreFileType::Regular, mode).map(|_| ())
    }

    fn mkdir(&self, path: &str, mode: Mode) -> FsResult<()> {
        let (dir, name) = self.resolve_parent(path)?;
        self.create_entry(&dir, name, CoreFileType::Directory, mode).map(|_| ())
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let (dir, name) = self.resolve_parent(path)?;
        self.remove_entry(&dir, name, false)
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let (dir, name) = self.resolve_parent(path)?;
        self.remove_entry(&dir, name, true)
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let node = self.resolve_node(path)?;
        if node.ftype != CoreFileType::Directory {
            return Err(FsError::NotDir);
        }
        self.readdir_node(&node)
    }

    fn stat(&self, path: &str) -> FsResult<Stat> {
        let node = self.resolve_node(path)?;
        self.stat_node(&node)
    }

    fn fstat(&self, fd: Fd) -> FsResult<Stat> {
        let e = self.fds.get(fd)?;
        self.stat_node(&e.node)
    }

    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        self.rename_entry(src, dst)
    }

    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        let node = self.resolve_node(path)?;
        if node.ftype != CoreFileType::Regular {
            return Err(FsError::IsDir);
        }
        self.truncate_node(&node, size)
    }

    fn fsync(&self, _fd: Fd) -> FsResult<()> {
        // ArckFS persists synchronously (paper §4.1): nothing to do.
        Ok(())
    }

    fn setattr(&self, path: &str, attr: SetAttr) -> FsResult<()> {
        let node = self.resolve_node(path)?;
        // Permission changes are mediated by the kernel's shadow inode
        // table (I4). A file created purely by direct access may not have
        // been adopted by the kernel yet; an explicit map fixes that.
        match self.kernel.setattr(self.actor, node.ino, attr) {
            Err(FsError::NotFound) => {
                use trio_kernel::mapping::MapTarget;
                let target = node.place.read().loc.map_or(MapTarget::Root, MapTarget::Dirent);
                self.kernel.map(self.actor, target, true)?;
                self.kernel.setattr(self.actor, node.ino, attr)
            }
            other => other,
        }
    }

    fn register_write_buffer(&self, data: &[u8]) -> FsResult<u64> {
        // The one materialization: the buffer is shared with the kernel's
        // grant table here, once, and every pwrite_registered against it
        // moves no payload bytes at all.
        Ok(self.kernel.delegation().grants().register(self.actor, data.into()))
    }

    fn update_write_buffer(&self, buf: u64, data: &[u8]) -> FsResult<()> {
        self.kernel
            .delegation()
            .grants()
            .update(self.actor, buf, data.into())
            .map_err(Self::fault)
    }

    fn unregister_write_buffer(&self, buf: u64) -> FsResult<()> {
        if self.kernel.delegation().grants().revoke(self.actor, buf) {
            Ok(())
        } else {
            Err(FsError::InvalidArgument)
        }
    }

    fn pwrite_registered(
        &self,
        fd: Fd,
        off: u64,
        buf: u64,
        start: usize,
        len: usize,
    ) -> FsResult<usize> {
        let e = self.fds.get(fd)?;
        if !e.flags.writable() {
            return Err(FsError::ReadOnly);
        }
        if e.node.ftype != CoreFileType::Regular {
            return Err(FsError::IsDir);
        }
        let grants = self.kernel.delegation().grants();
        // Pre-flight window cut; the delegation workers re-validate it on
        // every dispatch. The snapshot serves the direct path (small
        // writes, delegation fallback) without re-materializing.
        let gref = grants.window(self.actor, buf, start, len).map_err(Self::fault)?;
        let snap = grants.data_of(self.actor, buf).map_err(Self::fault)?;
        self.pwrite_registered_node(&e.node, off, gref, &snap)
    }

    fn fs_name(&self) -> &'static str {
        if self.cfg.delegation {
            "ArckFS"
        } else {
            "ArckFS-nd"
        }
    }
}
