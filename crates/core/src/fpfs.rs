//! **FPFS** — the paper's second customized LibFS (§5): full-path
//! indexing for deep directory hierarchies.
//!
//! FPFS replaces the per-directory hash tables of ArckFS's auxiliary
//! state with one global table mapping a *full path* to the file's node,
//! eliminating the per-component walk. The core state is untouched, so
//! FPFS files are ordinary ArckFS files to every other LibFS and to the
//! verifier.
//!
//! As the paper notes, FPFS "cannot efficiently handle rename": moving a
//! directory invalidates every cached descendant path, which this
//! implementation handles by a prefix sweep of the global table.

use std::sync::Arc;

use trio_fsapi::{
    DirEntry, Fd, FileSystem, FsError, FsResult, Mode, OpenFlags, SetAttr, Stat,
};
use trio_layout::CoreFileType;
use trio_sim::sync::SimMutex;
use trio_sim::{cost, in_sim, work, DetHashMap};

use crate::libfs::ArckFs;
use crate::node::FileNode;

const SHARDS: usize = 64;

/// The customized full-path-indexing view over an [`ArckFs`] mount.
pub struct FpFs {
    fs: Arc<ArckFs>,
    #[allow(clippy::type_complexity, reason = "one sharded map, spelled out once")]
    table: Box<[SimMutex<DetHashMap<String, Arc<FileNode>>>]>,
}

impl FpFs {
    /// Wraps a mounted LibFS.
    pub fn new(fs: Arc<ArckFs>) -> Arc<Self> {
        Arc::new(FpFs { fs, table: (0..SHARDS).map(|_| SimMutex::new(DetHashMap::default())).collect() })
    }

    /// The underlying generic LibFS.
    pub fn inner(&self) -> &Arc<ArckFs> {
        &self.fs
    }

    fn shard(&self, path: &str) -> &SimMutex<DetHashMap<String, Arc<FileNode>>> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in path.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        &self.table[h as usize % SHARDS]
    }

    /// One global-table probe replaces the whole per-component walk.
    fn resolve(&self, path: &str) -> FsResult<Arc<FileNode>> {
        if in_sim() {
            work(cost::HASH_OP_NS);
        }
        if let Some(n) = self.shard(path).lock().get(path) {
            return Ok(Arc::clone(n));
        }
        let n = self.fs.resolve_node(path)?;
        self.shard(path).lock().insert(path.to_string(), Arc::clone(&n));
        Ok(n)
    }

    fn forget(&self, path: &str) {
        self.shard(path).lock().remove(path);
    }

    /// Drops every cached path under `prefix` (rename fallout — the
    /// operation FPFS deliberately does not optimize).
    fn forget_prefix(&self, prefix: &str) {
        let with_slash = format!("{}/", prefix.trim_end_matches('/'));
        for shard in self.table.iter() {
            shard.lock().retain(|k, _| k != prefix && !k.starts_with(&with_slash));
        }
    }

    /// Resolves the parent directory of `path` via the global table (one
    /// probe), falling back to a component walk on a miss.
    fn resolve_parent_fast<'p>(&self, path: &'p str) -> FsResult<(Arc<FileNode>, &'p str)> {
        let (dir_comps, name) = trio_fsapi::path::split_parent(path)?;
        if dir_comps.is_empty() {
            return Ok((Arc::clone(self.fs.root_node()), name));
        }
        let parent_path = &path[..path.len() - name.len() - 1];
        let parent_path = if parent_path.is_empty() { "/" } else { parent_path };
        let node = self.resolve(parent_path)?;
        if node.ftype != CoreFileType::Directory {
            return Err(FsError::NotDir);
        }
        Ok((node, name))
    }
}

impl FileSystem for FpFs {
    fn open(&self, path: &str, flags: OpenFlags, mode: Mode) -> FsResult<Fd> {
        // Fast path: a cached full-path hit skips the walk entirely.
        if !flags.contains(OpenFlags::CREATE) {
            if in_sim() {
                work(cost::HASH_OP_NS);
            }
            if let Some(n) = self.shard(path).lock().get(path) {
                return Ok(self.fs.open_node(Arc::clone(n), flags));
            }
        }
        let fd = self.fs.open(path, flags, mode)?;
        // Cache what open resolved/created.
        if let Ok(e) = self.fs.fd_node(fd) {
            self.shard(path).lock().insert(path.to_string(), e);
        }
        Ok(fd)
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.fs.close(fd)
    }

    fn pread(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        self.fs.pread(fd, off, buf)
    }

    fn pwrite(&self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        self.fs.pwrite(fd, off, data)
    }

    fn create(&self, path: &str, mode: Mode) -> FsResult<()> {
        let (dir, name) = self.resolve_parent_fast(path)?;
        let node = self.fs.create_entry(&dir, name, CoreFileType::Regular, mode)?;
        self.shard(path).lock().insert(path.to_string(), node);
        Ok(())
    }

    fn mkdir(&self, path: &str, mode: Mode) -> FsResult<()> {
        let (dir, name) = self.resolve_parent_fast(path)?;
        let node = self.fs.create_entry(&dir, name, CoreFileType::Directory, mode)?;
        self.shard(path).lock().insert(path.to_string(), node);
        Ok(())
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        let (dir, name) = self.resolve_parent_fast(path)?;
        self.forget(path);
        self.fs.remove_entry(&dir, name, false)
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        let (dir, name) = self.resolve_parent_fast(path)?;
        self.forget(path);
        self.fs.remove_entry(&dir, name, true)
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        let node = self.resolve(path)?;
        if node.ftype != CoreFileType::Directory {
            return Err(FsError::NotDir);
        }
        self.fs.readdir_node(&node)
    }

    fn stat(&self, path: &str) -> FsResult<Stat> {
        let node = self.resolve(path)?;
        match self.fs.stat_node(&node) {
            Err(FsError::NotFound) | Err(FsError::Stale) => {
                // Cached path went stale (unlinked/renamed elsewhere).
                self.forget(path);
                let node = self.fs.resolve_node(path)?;
                self.shard(path).lock().insert(path.to_string(), Arc::clone(&node));
                self.fs.stat_node(&node)
            }
            other => other,
        }
    }

    fn fstat(&self, fd: Fd) -> FsResult<Stat> {
        self.fs.fstat(fd)
    }

    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        // The inherited rename plus the expensive table sweep — FPFS's
        // documented weakness.
        self.fs.rename(src, dst)?;
        self.forget_prefix(src);
        self.forget_prefix(dst);
        Ok(())
    }

    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        let node = self.resolve(path)?;
        if node.ftype != CoreFileType::Regular {
            return Err(FsError::IsDir);
        }
        self.fs.truncate_node(&node, size)
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        self.fs.fsync(fd)
    }

    fn setattr(&self, path: &str, attr: SetAttr) -> FsResult<()> {
        self.fs.setattr(path, attr)
    }

    fn fs_name(&self) -> &'static str {
        "FPFS"
    }
}
