//! Bench-side instrumentation: a [`FileSystem`] decorator that stamps
//! `trio_sim::now()` around every call.
//!
//! `now()` is not a sim point, so the decorator adds zero virtual cost:
//! the program under test sees only the generated calls. Each call leaves
//! one [`Span`] (client, op, start, end, bytes, ok) in memory; latencies,
//! per-op percentiles, failures and the trace file all derive from those.

use std::sync::Arc;

use arckfs::ArckFs;
use trio_fsapi::{DirEntry, Fd, FileSystem, FsResult, Mode, OpenFlags, SetAttr, Stat};
use trio_sim::plock::Mutex;

/// The `fsapi` calls reported by name; everything else is `Other`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    Pread,
    Pwrite,
    Open,
    Close,
    Create,
    Unlink,
    Rename,
    Stat,
    Fsync,
    /// mkdir / rmdir / readdir / fstat / truncate / setattr / release.
    Other,
}

impl Op {
    /// The ops that get their own `arckfs.<op>_*` per-layer metrics.
    pub const NAMED: [Op; 9] = [
        Op::Pread,
        Op::Pwrite,
        Op::Open,
        Op::Close,
        Op::Create,
        Op::Unlink,
        Op::Rename,
        Op::Stat,
        Op::Fsync,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Op::Pread => "pread",
            Op::Pwrite => "pwrite",
            Op::Open => "open",
            Op::Close => "close",
            Op::Create => "create",
            Op::Unlink => "unlink",
            Op::Rename => "rename",
            Op::Stat => "stat",
            Op::Fsync => "fsync",
            Op::Other => "other",
        }
    }
}

/// One timed call.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: Op,
    pub start_vns: u64,
    pub end_vns: u64,
    /// Payload bytes moved (`pread`/`pwrite` only).
    pub bytes: u32,
    pub ok: bool,
}

impl Span {
    pub fn vns(&self) -> u64 {
        self.end_vns - self.start_vns
    }
}

/// One client's view of the file system under test, timed.
pub struct TimedFs {
    inner: Arc<dyn FileSystem>,
    /// Set when the view is an ArckFS mount, for the sharing-protocol
    /// call the trait does not carry.
    arck: Option<Arc<ArckFs>>,
    spans: Mutex<Vec<Span>>,
}

impl TimedFs {
    pub fn new(inner: Arc<dyn FileSystem>, arck: Option<Arc<ArckFs>>) -> Arc<Self> {
        Arc::new(TimedFs {
            inner,
            arck,
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Drains this client's spans.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock())
    }

    /// Timed `ArckFs::release_path`; a kernel file system has nothing to
    /// hand over, so on a baseline this is neither called nor recorded.
    pub fn release_path(&self, path: &str) -> FsResult<()> {
        match &self.arck {
            Some(fs) => self.timed(Op::Other, || fs.release_path(path)),
            None => Ok(()),
        }
    }

    /// Times a call that moves no payload.
    fn timed<T>(&self, op: Op, call: impl FnOnce() -> FsResult<T>) -> FsResult<T> {
        self.timed_bytes(op, |_| 0, call)
    }

    /// Times a call; `bytes` reads the payload moved off its `Ok` value.
    fn timed_bytes<T>(
        &self,
        op: Op,
        bytes: impl FnOnce(&T) -> usize,
        call: impl FnOnce() -> FsResult<T>,
    ) -> FsResult<T> {
        let start_vns = trio_sim::now();
        let res = call();
        let end_vns = trio_sim::now();
        let moved = res.as_ref().map(bytes).unwrap_or(0);
        self.spans.lock().push(Span {
            op,
            start_vns,
            end_vns,
            bytes: moved as u32,
            ok: res.is_ok(),
        });
        res
    }
}

impl FileSystem for TimedFs {
    fn open(&self, path: &str, flags: OpenFlags, mode: Mode) -> FsResult<Fd> {
        self.timed(Op::Open, || self.inner.open(path, flags, mode))
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.timed(Op::Close, || self.inner.close(fd))
    }

    fn pread(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.timed_bytes(Op::Pread, |n| *n, || self.inner.pread(fd, off, buf))
    }

    fn pwrite(&self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        self.timed_bytes(Op::Pwrite, |n| *n, || self.inner.pwrite(fd, off, data))
    }

    fn create(&self, path: &str, mode: Mode) -> FsResult<()> {
        self.timed(Op::Create, || self.inner.create(path, mode))
    }

    fn mkdir(&self, path: &str, mode: Mode) -> FsResult<()> {
        self.timed(Op::Other, || self.inner.mkdir(path, mode))
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.timed(Op::Unlink, || self.inner.unlink(path))
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.timed(Op::Other, || self.inner.rmdir(path))
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.timed(Op::Other, || self.inner.readdir(path))
    }

    fn stat(&self, path: &str) -> FsResult<Stat> {
        self.timed(Op::Stat, || self.inner.stat(path))
    }

    fn fstat(&self, fd: Fd) -> FsResult<Stat> {
        self.timed(Op::Other, || self.inner.fstat(fd))
    }

    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        self.timed(Op::Rename, || self.inner.rename(src, dst))
    }

    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        self.timed(Op::Other, || self.inner.truncate(path, size))
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.timed(Op::Fsync, || self.inner.fsync(fd))
    }

    fn setattr(&self, path: &str, attr: SetAttr) -> FsResult<()> {
        self.timed(Op::Other, || self.inner.setattr(path, attr))
    }

    fn fs_name(&self) -> &'static str {
        self.inner.fs_name()
    }
}
