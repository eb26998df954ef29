//! **KVFS** — the paper's first customized LibFS (§5).
//!
//! Target workload: many small files (mail spools, HPC checkpoints). The
//! customization replaces ArckFS's auxiliary state and interface while
//! using the *identical* core state, so KVFS files remain shareable with
//! and verifiable against any other LibFS:
//!
//! * `get`/`set`/`del` interfaces — no file descriptors to allocate or
//!   tear down;
//! * a fixed-size 8-slot page array instead of the radix tree (files are
//!   capped at [`KV_MAX_BYTES`] = 32 KiB);
//! * one cheap spinlock per file instead of the inode RW lock + range
//!   lock (contention on one small file is assumed rare).
//!
//! None of this required privileges or touched the kernel controller or
//! verifier — the point of Trio's unprivileged private customization.

use std::sync::Arc;

use trio_fsapi::{FsError, FsResult, KeyValueFs, Mode};
use trio_layout::{CoreFileType, DirentLoc, DirentRef, IndexPageRef};
use trio_nvm::{PageId, PAGE_SIZE};
use trio_sim::sync::SimMutex;
use trio_sim::{cost, in_sim, work, DetHashMap};

use crate::libfs::ArckFs;

/// Maximum KVFS file size (8 pages).
pub const KV_MAX_BYTES: usize = 8 * PAGE_SIZE;

const KV_PAGES: usize = KV_MAX_BYTES / PAGE_SIZE;
const SHARDS: usize = 64;

/// Spinlock costs: cheaper than the queued RW locks (paper: "a simple
/// spinlock to optimize for non-contended cases").
const SPIN_ACQ_NS: u64 = 8;
const SPIN_HANDOFF_NS: u64 = 40;

struct KvInner {
    len: usize,
    index_page: Option<PageId>,
    pages: [Option<PageId>; KV_PAGES],
}

struct KvNode {
    loc: DirentLoc,
    ino: trio_layout::Ino,
    lock: SimMutex<KvInner>,
}

/// The customized LibFS. Wraps an [`ArckFs`] mount for the control plane
/// (registration, pools, directory core-state writes) but keeps its own
/// private per-file auxiliary state and interface.
pub struct KvFs {
    fs: Arc<ArckFs>,
    dir: Arc<crate::node::FileNode>,
    dir_path: String,
    #[allow(clippy::type_complexity, reason = "one sharded map, spelled out once")]
    table: Box<[SimMutex<DetHashMap<String, Arc<KvNode>>>]>,
}

impl KvFs {
    /// Creates (or opens) the KV root directory `dir_path` on `fs` and
    /// returns the customized view.
    pub fn new(fs: Arc<ArckFs>, dir_path: &str) -> FsResult<Arc<Self>> {
        use trio_fsapi::FileSystem;
        match fs.mkdir(dir_path, Mode::RWX) {
            Ok(()) | Err(FsError::Exists) => {}
            Err(e) => return Err(e),
        }
        let dir = fs.resolve_node(dir_path)?;
        fs.ensure_mapped(&dir, true)?;
        Ok(Arc::new(KvFs {
            fs,
            dir,
            dir_path: dir_path.to_string(),
            table: (0..SHARDS).map(|_| SimMutex::new(DetHashMap::default())).collect(),
        }))
    }

    /// The KV root path.
    pub fn dir_path(&self) -> &str {
        &self.dir_path
    }

    fn shard(&self, name: &str) -> &SimMutex<DetHashMap<String, Arc<KvNode>>> {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        &self.table[h as usize % SHARDS]
    }

    /// Finds (building aux on demand) the KV node for `name`.
    fn node(&self, name: &str) -> FsResult<Option<Arc<KvNode>>> {
        if in_sim() {
            work(cost::HASH_OP_NS);
        }
        if let Some(n) = self.shard(name).lock().get(name) {
            return Ok(Some(Arc::clone(n)));
        }
        // Miss: consult the (shared) directory core state.
        let Some(fnode) = self.fs.lookup_child(&self.dir, name)? else {
            return Ok(None);
        };
        if fnode.ftype != CoreFileType::Regular {
            return Err(FsError::IsDir);
        }
        self.fs.ensure_mapped(&fnode, true)?;
        let g = fnode.inner.read();
        if g.data_pages.len() > KV_PAGES || g.size as usize > KV_MAX_BYTES {
            return Err(FsError::InvalidArgument); // Too big for KVFS.
        }
        let mut pages = [None; KV_PAGES];
        for (i, p) in g.data_pages.iter().enumerate() {
            pages[i] = *p;
        }
        let loc = fnode.place.read().loc.expect("kv files are non-root");
        let node = Arc::new(KvNode {
            loc,
            ino: fnode.ino,
            lock: SimMutex::with_costs(
                KvInner { len: g.size as usize, index_page: g.index_pages.first().copied(), pages },
                SPIN_ACQ_NS,
                SPIN_HANDOFF_NS,
            ),
        });
        self.shard(name).lock().insert(name.to_string(), Arc::clone(&node));
        Ok(Some(node))
    }

    /// Creates the file and its KV aux in one step.
    fn create(&self, name: &str) -> FsResult<Arc<KvNode>> {
        let fnode = self.fs.create_entry(&self.dir, name, CoreFileType::Regular, Mode::RW)?;
        let loc = fnode.place.read().loc.expect("created with a dirent");
        // KVFS maintains its own private aux for this file; drop the
        // generic view's cached node so a later POSIX-path access rebuilds
        // from core state instead of trusting a stale page index.
        self.fs.forget_node(fnode.ino);
        let node = Arc::new(KvNode {
            loc,
            ino: fnode.ino,
            lock: SimMutex::with_costs(
                KvInner { len: 0, index_page: None, pages: [None; KV_PAGES] },
                SPIN_ACQ_NS,
                SPIN_HANDOFF_NS,
            ),
        });
        self.shard(name).lock().insert(name.to_string(), Arc::clone(&node));
        Ok(node)
    }

    /// Whole-file write from offset 0 (replace semantics).
    fn set_inner(&self, node: &KvNode, data: &[u8]) -> FsResult<()> {
        let fs = &self.fs;
        let mut g = node.lock.lock();
        let need = data.len().div_ceil(PAGE_SIZE);
        // Grow through the same core-state format ArckFS uses.
        if g.index_page.is_none() && need > 0 {
            let ip = fs.pages.take(trio_nvm::handle::home_node())?;
            DirentRef::new(&fs.h, node.loc).set_first_index(ip.0).map_err(ArckFs::fault)?;
            g.index_page = Some(ip);
        }
        if let Some(ip) = g.index_page {
            let ipr = IndexPageRef::new(&fs.h, ip);
            for i in 0..need {
                if g.pages[i].is_none() {
                    let p = fs.pages.take(trio_nvm::handle::home_node())?;
                    ipr.set_entry(i, p.0).map_err(ArckFs::fault)?;
                    g.pages[i] = Some(p);
                }
            }
        }
        let pages: Vec<PageId> = g.pages[..need].iter().map(|p| p.expect("allocated")).collect();
        // The extent write's Durable witness gates the size publish: a
        // reader trusting `size` can never observe torn value bytes.
        let proof = fs.h.write_extent(&pages, 0, data).map_err(ArckFs::fault)?;
        g.len = data.len();
        let dref = DirentRef::new(&fs.h, node.loc);
        dref.set_size_durable(data.len() as u64, &proof).map_err(ArckFs::fault)?;
        Ok(())
    }

    /// `node`'s mapping was revoked under it: drops what was built on the
    /// lost grants — the KV aux and the generic view of the file (the
    /// rebuild in [`KvFs::node`] would trust its stale page index) — and
    /// takes the directory back. Its node may still say `Write` over a
    /// grant the kernel has ended, so a page of it is touched: the fault
    /// makes `with_mapped` drop the node, retained aux and all, and re-map.
    /// (Not dropped unasked: a sibling thread may have re-mapped it since.)
    fn recover_stale(&self, name: &str, node: &KvNode) -> FsResult<()> {
        self.shard(name).lock().remove(name);
        self.fs.forget_node(node.ino);
        self.fs.with_mapped(&self.dir, true, |fs| {
            DirentRef::new(&fs.h, node.loc).ino().map(drop).map_err(ArckFs::fault)
        })
    }

    fn get_inner(&self, node: &KvNode, buf: &mut [u8]) -> FsResult<usize> {
        let g = node.lock.lock();
        let n = g.len.min(buf.len());
        if n == 0 {
            return Ok(0);
        }
        let pages: Vec<PageId> =
            g.pages[..n.div_ceil(PAGE_SIZE)].iter().map(|p| p.expect("within len")).collect();
        self.fs.h.read_extent(&pages, 0, &mut buf[..n]).map_err(ArckFs::fault)?;
        Ok(n)
    }
}

impl KeyValueFs for KvFs {
    fn kv_get(&self, name: &str, buf: &mut [u8]) -> FsResult<usize> {
        for _ in 0..8 {
            let Some(node) = self.node(name)? else {
                return Err(FsError::NotFound);
            };
            match self.get_inner(&node, buf) {
                Err(FsError::Stale) => {
                    self.recover_stale(name, &node)?;
                    continue;
                }
                other => return other,
            }
        }
        Err(FsError::Stale)
    }

    fn kv_set(&self, name: &str, data: &[u8]) -> FsResult<()> {
        if data.len() > KV_MAX_BYTES {
            return Err(FsError::InvalidArgument);
        }
        for _ in 0..8 {
            let node = match self.node(name)? {
                Some(n) => n,
                None => self.create(name)?,
            };
            // Every KV file's dirent lives in the directory's pages and
            // `set_inner` writes it directly: the directory's gate keeps
            // its grant from being yielded to a lease recall (DESIGN.md
            // §21) half-way through.
            let res = {
                let _op = self.dir.gate.read();
                self.set_inner(&node, data)
            };
            match res {
                Err(FsError::Stale) => {
                    self.recover_stale(name, &node)?;
                    continue;
                }
                other => return other,
            }
        }
        Err(FsError::Stale)
    }

    fn kv_del(&self, name: &str) -> FsResult<()> {
        self.shard(name).lock().remove(name);
        self.fs.remove_entry(&self.dir, name, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trio_kernel::{KernelConfig, KernelController};
    use trio_nvm::{DeviceConfig, NvmDevice};
    use trio_sim::SimRuntime;

    fn world() -> (SimRuntime, Arc<ArckFs>) {
        let rt = SimRuntime::new(7);
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let kernel = KernelController::format(dev, KernelConfig::default());
        let fs = ArckFs::mount(kernel, 100, 100, crate::ArckFsConfig::no_delegation());
        (rt, fs)
    }

    #[test]
    fn set_get_roundtrip() {
        let (rt, fs) = world();
        rt.spawn("app", move || {
            let kv = KvFs::new(fs, "/kv").unwrap();
            kv.kv_set("alpha", b"value-1").unwrap();
            let mut buf = [0u8; 64];
            let n = kv.kv_get("alpha", &mut buf).unwrap();
            assert_eq!(&buf[..n], b"value-1");
            // Replace.
            kv.kv_set("alpha", b"v2").unwrap();
            let n = kv.kv_get("alpha", &mut buf).unwrap();
            assert_eq!(&buf[..n], b"v2");
        });
        rt.run();
    }

    #[test]
    fn large_values_up_to_cap() {
        let (rt, fs) = world();
        rt.spawn("app", move || {
            let kv = KvFs::new(fs, "/kv").unwrap();
            let data: Vec<u8> = (0..KV_MAX_BYTES).map(|i| (i % 251) as u8).collect();
            kv.kv_set("big", &data).unwrap();
            let mut buf = vec![0u8; KV_MAX_BYTES];
            assert_eq!(kv.kv_get("big", &mut buf).unwrap(), KV_MAX_BYTES);
            assert_eq!(buf, data);
            // Over the cap: refused.
            let over = vec![0u8; KV_MAX_BYTES + 1];
            assert_eq!(kv.kv_set("big", &over), Err(FsError::InvalidArgument));
        });
        rt.run();
    }

    #[test]
    fn delete_removes_core_state_too() {
        let (rt, fs) = world();
        rt.spawn("app", move || {
            use trio_fsapi::FileSystem;
            let fs2 = Arc::clone(&fs);
            let kv = KvFs::new(fs, "/kv").unwrap();
            kv.kv_set("gone", b"x").unwrap();
            kv.kv_del("gone").unwrap();
            let mut buf = [0u8; 8];
            assert_eq!(kv.kv_get("gone", &mut buf), Err(FsError::NotFound));
            // The generic API agrees: the file is gone from core state.
            assert_eq!(fs2.stat("/kv/gone"), Err(FsError::NotFound));
        });
        rt.run();
    }

    #[test]
    fn kvfs_files_visible_to_posix_interface() {
        let (rt, fs) = world();
        rt.spawn("app", move || {
            let fs2 = Arc::clone(&fs);
            let kv = KvFs::new(fs, "/kv").unwrap();
            kv.kv_set("shared", b"same core state").unwrap();
            // The same LibFS's POSIX path sees the identical bytes: KVFS is
            // auxiliary-state-only customization.
            let data = trio_fsapi::read_file(&*fs2, "/kv/shared").unwrap();
            assert_eq!(data, b"same core state");
        });
        rt.run();
    }
}
