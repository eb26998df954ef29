//! The simulated VFS layer shared by every in-kernel baseline.
//!
//! FxMark (ATC '16, the paper's §6.4) attributes the baselines'
//! scalability ceilings to specific VFS structures; this chassis
//! reproduces exactly those:
//!
//! * **dcache** — sharded for lookups (reads scale), but inserts and
//!   removals take a *global* lock (creates/unlinks/renames across the
//!   whole FS serialize — why only MRPL/MRDL scale for the baselines);
//! * **per-dentry reference counts** — every open/close bumps an atomic
//!   on the dentry, so opening the *same* file from many threads (MRPH)
//!   convoys on one cache line;
//! * **per-inode `i_rwsem`** — shared for lookup/readdir/read, exclusive
//!   for create/unlink/rename/extend;
//! * **a global rename lock** (`s_vfs_rename_mutex`).

use std::sync::Arc;

use trio_sim::sync::{SimMutex, SimRwLock};
use trio_sim::{cost, in_sim, work, DetHashMap};

const DCACHE_SHARDS: usize = 64;

/// One cached dentry: the name→ino mapping plus its contended refcount.
pub struct Dentry {
    /// Target inode.
    pub ino: u64,
    /// The reference count every open touches (MRPH's bottleneck).
    pub refcount: SimMutex<u64>,
}

/// The chassis. One per mounted baseline.
pub struct VfsChassis {
    #[allow(clippy::type_complexity)]
    shards: Box<[SimRwLock<DetHashMap<(u64, String), Arc<Dentry>>>]>,
    /// Global dcache modification lock.
    pub dcache_mod: SimMutex<()>,
    /// Global rename lock.
    pub rename_lock: SimMutex<()>,
}

impl VfsChassis {
    /// Creates an empty chassis.
    pub fn new() -> Self {
        VfsChassis {
            shards: (0..DCACHE_SHARDS).map(|_| SimRwLock::new(DetHashMap::default())).collect(),
            dcache_mod: SimMutex::new(()),
            rename_lock: SimMutex::new(()),
        }
    }

    fn shard(&self, parent: u64, name: &str) -> &SimRwLock<DetHashMap<(u64, String), Arc<Dentry>>> {
        let mut h = parent ^ 0x9E37_79B9_7F4A_7C15;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        &self.shards[h as usize % DCACHE_SHARDS]
    }

    /// Path-walk step: dcache hit check (scales — read lock).
    pub fn lookup(&self, parent: u64, name: &str) -> Option<Arc<Dentry>> {
        if in_sim() {
            work(cost::DCACHE_LOOKUP_NS);
        }
        self.shard(parent, name).read().get(&(parent, name.to_string())).cloned()
    }

    /// Open-path step: bump the dentry refcount (the shared-file convoy).
    pub fn grab(&self, dentry: &Dentry) {
        let mut rc = dentry.refcount.lock();
        *rc += 1;
    }

    /// Close-path step.
    pub fn put(&self, dentry: &Dentry) {
        let mut rc = dentry.refcount.lock();
        *rc = rc.saturating_sub(1);
    }

    /// Insert a dentry (global modification lock — the create/unlink
    /// scalability ceiling). The hold time models the LRU/hash maintenance
    /// the real dcache does under its locks (FxMark's measured ceiling).
    pub fn insert(&self, parent: u64, name: &str, ino: u64) {
        let _g = self.dcache_mod.lock();
        if in_sim() {
            work(5 * cost::DCACHE_LOOKUP_NS);
        }
        self.shard(parent, name).write().insert(
            (parent, name.to_string()),
            Arc::new(Dentry { ino, refcount: SimMutex::new(0) }),
        );
    }

    /// Remove a dentry (global modification lock).
    pub fn remove(&self, parent: u64, name: &str) {
        let _g = self.dcache_mod.lock();
        if in_sim() {
            work(5 * cost::DCACHE_LOOKUP_NS);
        }
        self.shard(parent, name).write().remove(&(parent, name.to_string()));
    }
}

impl Default for VfsChassis {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trio_sim::SimRuntime;

    #[test]
    fn lookup_hits_after_insert() {
        let c = VfsChassis::new();
        c.insert(1, "a", 42);
        assert_eq!(c.lookup(1, "a").unwrap().ino, 42);
        assert!(c.lookup(1, "b").is_none());
        c.remove(1, "a");
        assert!(c.lookup(1, "a").is_none());
    }

    #[test]
    fn concurrent_lookups_scale_inserts_serialize() {
        // Lookups from many threads overlap in virtual time; inserts
        // convoy on the global modification lock.
        let rt = SimRuntime::new(0);
        let c = Arc::new(VfsChassis::new());
        c.insert(1, "hot", 9);
        for _ in 0..8 {
            let c = Arc::clone(&c);
            rt.spawn("reader", move || {
                for _ in 0..10 {
                    c.lookup(1, "hot").unwrap();
                }
            });
        }
        let read_time = rt.run();

        let rt = SimRuntime::new(0);
        let c = Arc::new(VfsChassis::new());
        for t in 0..8u64 {
            let c = Arc::clone(&c);
            rt.spawn("creator", move || {
                for i in 0..10u64 {
                    c.insert(1, &format!("f{t}-{i}"), t * 100 + i);
                }
            });
        }
        let insert_time = rt.run();
        assert!(
            insert_time > read_time * 3,
            "inserts ({insert_time}) should serialize vs lookups ({read_time})"
        );
    }
}
