//! File-descriptor table.
//!
//! Sharded (the paper makes fd allocation per-CPU, §4.5) so open/close
//! scale across threads of one process — this is what keeps the MRPL/MRPH
//! open microbenchmarks linear.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use trio_fsapi::{Fd, FsError, FsResult, OpenFlags};
use trio_sim::sync::SimMutex;
use trio_sim::DetHashMap;

use crate::node::FileNode;

const FD_SHARDS: usize = 32;

/// One open descriptor.
#[derive(Clone)]
pub struct FdEntry {
    /// The file.
    pub node: Arc<FileNode>,
    /// Open flags (access mode checks).
    pub flags: OpenFlags,
}

/// The table.
pub struct FdTable {
    shards: Box<[SimMutex<DetHashMap<u32, FdEntry>>]>,
    next: AtomicU32,
}

impl FdTable {
    /// Empty table; fds start at 3 (0–2 are reserved by convention).
    pub fn new() -> Self {
        FdTable {
            shards: (0..FD_SHARDS).map(|_| SimMutex::new(DetHashMap::default())).collect(),
            next: AtomicU32::new(3),
        }
    }

    fn shard(&self, fd: u32) -> &SimMutex<DetHashMap<u32, FdEntry>> {
        &self.shards[fd as usize % FD_SHARDS]
    }

    /// Allocates a descriptor for `entry`, pinning its file's grant.
    pub fn insert(&self, entry: FdEntry) -> Fd {
        let fd = self.next.fetch_add(1, Ordering::Relaxed);
        entry.node.pin();
        self.shard(fd).lock().insert(fd, entry);
        Fd(fd)
    }

    /// Looks up a descriptor.
    pub fn get(&self, fd: Fd) -> FsResult<FdEntry> {
        self.shard(fd.0).lock().get(&fd.0).cloned().ok_or(FsError::BadFd)
    }

    /// Removes a descriptor. The flag says it was the file's last user
    /// with a lease recall parked on it: the caller owes the yield.
    pub fn remove(&self, fd: Fd) -> FsResult<(FdEntry, bool)> {
        let e = self.shard(fd.0).lock().remove(&fd.0).ok_or(FsError::BadFd)?;
        let idle = e.node.unpin();
        Ok((e, idle))
    }

    /// Open descriptor count (tests).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether no descriptors are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for FdTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trio_layout::CoreFileType;

    #[test]
    fn insert_get_remove() {
        let t = FdTable::new();
        let node = FileNode::new(7, CoreFileType::Regular, 1, None);
        let fd = t.insert(FdEntry { node, flags: OpenFlags::RDWR });
        assert!(fd.0 >= 3);
        assert_eq!(t.get(fd).unwrap().node.ino, 7);
        assert_eq!(t.len(), 1);
        assert_eq!(t.remove(fd).unwrap().0.node.ino, 7);
        assert_eq!(t.get(fd).err(), Some(FsError::BadFd));
        assert!(t.is_empty());
    }

    #[test]
    fn fds_are_unique() {
        let t = FdTable::new();
        let node = FileNode::new(7, CoreFileType::Regular, 1, None);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let fd = t.insert(FdEntry { node: Arc::clone(&node), flags: OpenFlags::RDONLY });
            assert!(seen.insert(fd));
        }
    }
}
