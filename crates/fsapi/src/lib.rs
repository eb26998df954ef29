//! Common file system interface shared by ArckFS, the customized LibFSes,
//! and every baseline file system in the reproduction.
//!
//! The central item is the [`FileSystem`] trait — a POSIX-like API at the
//! granularity the paper's workloads need (fio, FxMark, Filebench, LevelDB).
//! One trait object represents *one process's view* of a file system: for
//! ArckFS that is the per-application LibFS itself; for kernel baselines it
//! is a thin per-process wrapper (credentials + fd table) around the shared
//! kernel state. Workload generators are written against this trait only,
//! so every experiment runs unchanged on every file system.

pub mod error;
pub mod path;
pub mod types;

pub use error::{FsError, FsResult};
pub use types::{DirEntry, Fd, FileType, Mode, OpenFlags, SetAttr, Stat};

/// A process's view of a POSIX-like file system.
///
/// All methods are `&self`; implementations synchronize internally with
/// virtual-time locks so multi-threaded workloads contend realistically.
/// Paths are absolute, `/`-separated, UTF-8.
pub trait FileSystem: Send + Sync {
    /// Opens an existing file or directory (creating it when
    /// [`OpenFlags::CREATE`] is set) and returns a descriptor.
    fn open(&self, path: &str, flags: OpenFlags, mode: Mode) -> FsResult<Fd>;

    /// Releases a descriptor.
    fn close(&self, fd: Fd) -> FsResult<()>;

    /// Reads up to `buf.len()` bytes at byte offset `off`; returns the number
    /// of bytes read (0 at end of file).
    fn pread(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize>;

    /// Writes `data` at byte offset `off`, extending the file as needed;
    /// returns the number of bytes written.
    fn pwrite(&self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize>;

    /// Creates a regular file. Fails with [`FsError::Exists`] if the name is
    /// taken.
    fn create(&self, path: &str, mode: Mode) -> FsResult<()>;

    /// Creates a directory.
    fn mkdir(&self, path: &str, mode: Mode) -> FsResult<()>;

    /// Removes a regular file.
    fn unlink(&self, path: &str) -> FsResult<()>;

    /// Removes an *empty* directory.
    fn rmdir(&self, path: &str) -> FsResult<()>;

    /// Lists a directory.
    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>>;

    /// Stats a path.
    fn stat(&self, path: &str) -> FsResult<Stat>;

    /// Stats an open descriptor.
    fn fstat(&self, fd: Fd) -> FsResult<Stat>;

    /// Renames a file or directory. `dst` must not name an existing
    /// directory with children.
    fn rename(&self, src: &str, dst: &str) -> FsResult<()>;

    /// Truncates (or zero-extends) a file to `size` bytes.
    fn truncate(&self, path: &str, size: u64) -> FsResult<()>;

    /// Ensures previously written data for `fd` is persistent. ArckFS
    /// persists synchronously and treats this as a no-op (paper §4.1);
    /// page-cache baselines do real work here.
    fn fsync(&self, fd: Fd) -> FsResult<()>;

    /// Changes permission bits (routed to the trusted entity in Trio,
    /// paper §4.3/I4).
    fn setattr(&self, path: &str, attr: SetAttr) -> FsResult<()>;

    /// Registers `data` as a reusable **write-source buffer** and returns
    /// its handle. On Trio file systems this maps the buffer into a
    /// kernel grant window: subsequent [`Self::pwrite_registered`] calls
    /// name byte ranges of it instead of carrying payload bytes, so the
    /// delegation submit path moves nothing — the registration itself is
    /// the only copy, amortized over every write that reuses the buffer.
    /// File systems without zero-copy delegation return
    /// [`FsError::Unsupported`]; callers fall back to [`Self::pwrite`].
    fn register_write_buffer(&self, _data: &[u8]) -> FsResult<u64> {
        Err(FsError::Unsupported)
    }

    /// Replaces the contents of a registered write buffer. In-flight
    /// writes still reading the old contents are drained first (the grant
    /// epoch bumps), so no write ever observes a torn mix of old and new.
    fn update_write_buffer(&self, _buf: u64, _data: &[u8]) -> FsResult<()> {
        Err(FsError::Unsupported)
    }

    /// Unregisters a write buffer. A revocation barrier: when this
    /// returns, no in-flight write is still reading the buffer.
    fn unregister_write_buffer(&self, _buf: u64) -> FsResult<()> {
        Err(FsError::Unsupported)
    }

    /// Writes `len` bytes from byte `start` of registered buffer `buf` at
    /// file offset `off` — the zero-copy analogue of [`Self::pwrite`].
    fn pwrite_registered(
        &self,
        _fd: Fd,
        _off: u64,
        _buf: u64,
        _start: usize,
        _len: usize,
    ) -> FsResult<usize> {
        Err(FsError::Unsupported)
    }

    /// Short, stable identifier used in benchmark output (e.g. `"ArckFS"`).
    fn fs_name(&self) -> &'static str;
}

/// The customized key-value interface KVFS adds to ArckFS (paper §5):
/// whole-file get/set without file descriptors.
pub trait KeyValueFs: Send + Sync {
    /// Reads the whole file `name` (within the KV root directory) into
    /// `buf`; returns its length.
    fn kv_get(&self, name: &str, buf: &mut [u8]) -> FsResult<usize>;

    /// Creates-or-replaces the whole contents of file `name`.
    fn kv_set(&self, name: &str, data: &[u8]) -> FsResult<()>;

    /// Removes the file `name`.
    fn kv_del(&self, name: &str) -> FsResult<()>;
}

/// Convenience: writes an entire file at `path` through the generic API.
pub fn write_file(fs: &dyn FileSystem, path: &str, data: &[u8]) -> FsResult<()> {
    let fd = fs.open(path, OpenFlags::CREATE | OpenFlags::WRONLY | OpenFlags::TRUNC, Mode::RW)?;
    let res = fs.pwrite(fd, 0, data).map(|_| ());
    fs.close(fd)?;
    res
}

/// Convenience: reads an entire file at `path` through the generic API.
///
/// Reads in bounded chunks until EOF rather than trusting the stat size —
/// a corrupted (or concurrently truncated) size field must not drive a
/// giant allocation in the reader.
pub fn read_file(fs: &dyn FileSystem, path: &str) -> FsResult<Vec<u8>> {
    let fd = fs.open(path, OpenFlags::RDONLY, Mode::empty())?;
    let mut out = Vec::new();
    let mut chunk = vec![0u8; 1 << 20];
    loop {
        let n = match fs.pread(fd, out.len() as u64, &mut chunk) {
            Ok(n) => n,
            Err(e) => {
                let _ = fs.close(fd);
                return Err(e);
            }
        };
        if n == 0 {
            break;
        }
        out.extend_from_slice(&chunk[..n]);
    }
    fs.close(fd)?;
    Ok(out)
}
