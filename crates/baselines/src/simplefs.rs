//! The shared in-kernel baseline FS core.
//!
//! One implementation parameterized by [`FsProfile`]: directory tree and
//! inode attributes in kernel DRAM (as in the real systems' caches), file
//! *data* stored for real in emulated NVM pages, and every operation
//! charged according to the profile's trap/VFS/journal/allocator/data-path
//! structure. Multi-thread scalability emerges from the same locks the
//! real systems take; absolute costs come from `trio_sim::cost`.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use trio_fsapi::{
    DirEntry, Fd, FileSystem, FileType, FsError, FsResult, Mode, OpenFlags, SetAttr, Stat,
};
use trio_kernel::delegation::DelegationPool;
use trio_nvm::{NvmDevice, NvmHandle, PageId, PAGE_SIZE, KERNEL_ACTOR};
use trio_sim::sync::{SimMutex, SimRwLock};
use trio_sim::{cost, in_sim, now_or_zero, work, DetHashMap};

use crate::chassis::{Dentry, VfsChassis};
use crate::profile::{AllocModel, DataPath, FsProfile, JournalModel, NodePolicy};

const INODE_SHARDS: usize = 64;
const FD_SHARDS: usize = 32;
const ROOT: u64 = 1;

/// RAID0 submission-path cost per bio (dm-stripe request handling).
const RAID_SUBMIT_NS: u64 = 800;
/// Strata digestion batch: one IPC per this many log bytes.
const STRATA_DIGEST_BATCH: u64 = 1 << 20;
/// SplitFS relink syscall amortization: one trap per this many appends.
const SPLITFS_RELINK_EVERY: u64 = 64;

struct InodeData {
    ftype: FileType,
    size: u64,
    mode: Mode,
    uid: u32,
    gid: u32,
    mtime: u64,
    pages: Vec<PageId>,
    children: DetHashMap<String, u64>,
}

struct Inode {
    #[allow(dead_code)] // Diagnostic identity.
    ino: u64,
    rwsem: SimRwLock<InodeData>,
    /// NOVA/OdinFS per-inode log tail (serializes that inode's metadata
    /// and COW appends).
    log_tail: SimMutex<u64>,
}

#[derive(Clone)]
struct FdEntry {
    ino: u64,
    flags: OpenFlags,
    dentry: Option<Arc<Dentry>>,
}

/// A baseline file system instance (kernel-global; clones of the `Arc`
/// serve as per-process views).
pub struct BaselineFs {
    profile: FsProfile,
    h: NvmHandle,
    chassis: VfsChassis,
    #[allow(clippy::type_complexity)]
    inodes: Box<[SimRwLock<DetHashMap<u64, Arc<Inode>>>]>,
    next_ino: AtomicU64,
    journal_global: SimMutex<()>,
    alloc_global: SimMutex<()>,
    pools: Vec<SimMutex<Vec<PageId>>>,
    raid_lock: SimMutex<()>,
    fds: Box<[SimMutex<DetHashMap<u32, FdEntry>>]>,
    next_fd: AtomicU32,
    delegation: Option<Arc<DelegationPool>>,
    strata_log_bytes: AtomicU64,
    splitfs_appends: AtomicU64,
}

impl BaselineFs {
    /// Formats a baseline FS over `dev` with the given profile. For
    /// OdinFS pass the started delegation pool.
    pub fn format(
        dev: Arc<NvmDevice>,
        profile: FsProfile,
        delegation: Option<Arc<DelegationPool>>,
    ) -> Arc<Self> {
        let topo = dev.topology();
        let mut pools = Vec::with_capacity(topo.nodes);
        for node in 0..topo.nodes {
            let first = topo.first_page_of(node).0;
            let start = if node == 0 { 1 } else { first };
            pools.push(SimMutex::new(
                (start..first + topo.pages_per_node as u64).map(PageId).rev().collect(),
            ));
        }
        let fs = BaselineFs {
            h: NvmHandle::new(dev, KERNEL_ACTOR),
            chassis: VfsChassis::new(),
            inodes: (0..INODE_SHARDS).map(|_| SimRwLock::new(DetHashMap::default())).collect(),
            next_ino: AtomicU64::new(ROOT + 1),
            journal_global: SimMutex::new(()),
            alloc_global: SimMutex::new(()),
            pools,
            raid_lock: SimMutex::new(()),
            fds: (0..FD_SHARDS).map(|_| SimMutex::new(DetHashMap::default())).collect(),
            next_fd: AtomicU32::new(3),
            delegation,
            strata_log_bytes: AtomicU64::new(0),
            splitfs_appends: AtomicU64::new(0),
            profile,
        };
        fs.install_inode(ROOT, FileType::Directory, Mode(0o777), 0, 0);
        Arc::new(fs)
    }

    /// The profile in force.
    pub fn profile(&self) -> &FsProfile {
        &self.profile
    }

    // -----------------------------------------------------------------
    // Cost charging helpers.
    // -----------------------------------------------------------------

    fn trap(&self) {
        if in_sim() {
            work(cost::KERNEL_TRAP_NS);
        }
    }

    fn vfs_enter(&self) {
        self.trap();
        if in_sim() {
            work(cost::VFS_OVERHEAD_NS);
        }
    }

    /// Charges one metadata transaction according to the journal model.
    fn journal_txn(&self) {
        match self.profile.journal {
            JournalModel::Global => {
                let _g = self.journal_global.lock();
                if in_sim() {
                    work(cost::JOURNAL_TXN_NS);
                }
            }
            JournalModel::PerCpu => {
                if in_sim() {
                    work(cost::JOURNAL_TXN_NS);
                }
            }
            JournalModel::PerInodeLog => {
                if in_sim() {
                    work(cost::LOG_APPEND_NS);
                }
                // Plus the 64B persistent log entry.
                self.h.device().charge_transfer(0, 64, true, trio_nvm::handle::home_node());
            }
            JournalModel::OpLog => {
                // Strata: sequential log append + amortized digestion IPC.
                self.h.device().charge_transfer(0, 128, true, trio_nvm::handle::home_node());
                self.strata_amortize(128);
            }
        }
        if in_sim() {
            work(self.profile.metadata_extra_ns);
        }
    }

    fn strata_amortize(&self, bytes: u64) {
        let before = self.strata_log_bytes.fetch_add(bytes, Ordering::Relaxed);
        if before / STRATA_DIGEST_BATCH != (before + bytes) / STRATA_DIGEST_BATCH && in_sim() {
            // Digestion round: IPC to the trusted process plus the kernel
            // work to apply the batch (the data re-write is charged at
            // write time).
            work(cost::IPC_ROUNDTRIP_NS + 20 * cost::DIRENT_WORK_NS);
        }
    }

    // -----------------------------------------------------------------
    // Inode / page management.
    // -----------------------------------------------------------------

    fn install_inode(&self, ino: u64, ftype: FileType, mode: Mode, uid: u32, gid: u32) -> Arc<Inode> {
        let inode = Arc::new(Inode {
            ino,
            rwsem: SimRwLock::new(InodeData {
                ftype,
                size: 0,
                mode,
                uid,
                gid,
                mtime: now_or_zero(),
                pages: Vec::new(),
                children: DetHashMap::default(),
            }),
            log_tail: SimMutex::new(0),
        });
        self.inodes[ino as usize % INODE_SHARDS].write().insert(ino, Arc::clone(&inode));
        inode
    }

    fn inode(&self, ino: u64) -> FsResult<Arc<Inode>> {
        self.inodes[ino as usize % INODE_SHARDS]
            .read()
            .get(&ino)
            .cloned()
            .ok_or(FsError::NotFound)
    }

    fn drop_inode(&self, ino: u64) {
        self.inodes[ino as usize % INODE_SHARDS].write().remove(&ino);
    }

    fn placement_node(&self, lp: usize) -> usize {
        let nodes = self.pools.len();
        match self.profile.placement {
            NodePolicy::SingleNode => 0,
            NodePolicy::Raid0 => lp % nodes,
            NodePolicy::Striped => (lp / 16) % nodes,
        }
    }

    fn alloc_pages(&self, lps: std::ops::Range<usize>) -> FsResult<Vec<PageId>> {
        let _g = match self.profile.alloc {
            AllocModel::Global => Some(self.alloc_global.lock()),
            AllocModel::PerCpu => None,
        };
        if in_sim() {
            work(cost::ALLOCATOR_OP_NS);
        }
        let mut out = Vec::with_capacity(lps.len());
        for lp in lps {
            let node = self.placement_node(lp);
            let nodes = self.pools.len();
            let mut got = None;
            for i in 0..nodes {
                if let Some(p) = self.pools[(node + i) % nodes].lock().pop() {
                    got = Some(p);
                    break;
                }
            }
            out.push(got.ok_or(FsError::NoSpace)?);
        }
        Ok(out)
    }

    fn free_pages(&self, pages: &[PageId]) {
        let topo = self.h.device().topology();
        for p in pages {
            let _ = self.h.device().reset_page(*p);
            self.pools[topo.node_of(*p)].lock().push(*p);
        }
    }

    // -----------------------------------------------------------------
    // Path walking.
    // -----------------------------------------------------------------

    fn walk_dir(&self, comps: &[&str]) -> FsResult<u64> {
        let mut cur = ROOT;
        for c in comps {
            cur = self.lookup_step(cur, c)?;
            let inode = self.inode(cur)?;
            if inode.rwsem.read().ftype != FileType::Directory {
                return Err(FsError::NotDir);
            }
        }
        Ok(cur)
    }

    fn lookup_step(&self, parent: u64, name: &str) -> FsResult<u64> {
        if let Some(d) = self.chassis.lookup(parent, name) {
            return Ok(d.ino);
        }
        // Cold miss: read the directory (shared lock) and populate the
        // dcache (global modification lock — cold walks serialize).
        let dir = self.inode(parent)?;
        let g = dir.rwsem.read();
        if g.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        if in_sim() {
            work(cost::DIRENT_WORK_NS);
        }
        let ino = *g.children.get(name).ok_or(FsError::NotFound)?;
        drop(g);
        self.chassis.insert(parent, name, ino);
        Ok(ino)
    }

    fn resolve_parent<'p>(&self, path: &'p str) -> FsResult<(u64, &'p str)> {
        let (comps, name) = trio_fsapi::path::split_parent(path)?;
        Ok((self.walk_dir(&comps)?, name))
    }

    // -----------------------------------------------------------------
    // Data movement.
    // -----------------------------------------------------------------

    fn raid_gate(&self) {
        if self.profile.placement == NodePolicy::Raid0 {
            let _g = self.raid_lock.lock();
            if in_sim() {
                work(RAID_SUBMIT_NS);
            }
        }
    }

    fn read_data(&self, pages: &[PageId], start: usize, buf: &mut [u8]) -> FsResult<()> {
        self.raid_gate();
        let delegated = self.profile.data_path == DataPath::Delegated
            && buf.len() >= 32 * 1024
            && self.delegation.as_ref().map(|d| d.is_started()).unwrap_or(false);
        if delegated {
            self.delegation
                .as_ref()
                .expect("checked")
                .read_extent(KERNEL_ACTOR, pages, start, buf)
                .map_err(|_| FsError::InvalidArgument)?;
        } else {
            self.h.read_extent(pages, start, buf).map_err(|_| FsError::InvalidArgument)?;
        }
        Ok(())
    }

    fn write_data(&self, pages: &[PageId], start: usize, data: &[u8]) -> FsResult<()> {
        self.raid_gate();
        let delegated = self.profile.data_path == DataPath::Delegated
            && data.len() >= 256
            && self.delegation.as_ref().map(|d| d.is_started()).unwrap_or(false);
        if delegated {
            self.delegation
                .as_ref()
                .expect("checked")
                .write_extent(KERNEL_ACTOR, pages, start, data)
                .map_err(|_| FsError::InvalidArgument)?;
        } else {
            self.h.write_extent(pages, start, data).map_err(|_| FsError::InvalidArgument)?;
        }
        if self.profile.data_path == DataPath::LogStructured {
            // Strata writes the log first; the digestion re-write above is
            // the shared-area copy. Charge the log append too.
            self.h.device().charge_transfer(0, data.len(), true, trio_nvm::handle::home_node());
            self.strata_amortize(data.len() as u64);
        }
        Ok(())
    }

    fn charge_index_walk(&self) {
        if in_sim() {
            work(self.profile.index_depth as u64 * cost::INDEX_LEVEL_NS);
        }
    }

    // -----------------------------------------------------------------
    // Core ops shared by the trait impl.
    // -----------------------------------------------------------------

    fn do_create(&self, path: &str, mode: Mode, ftype: FileType) -> FsResult<u64> {
        let (parent, name) = self.resolve_parent(path)?;
        trio_fsapi::path::validate_name(name)?;
        let dir = self.inode(parent)?;
        let mut g = dir.rwsem.write();
        if g.children.contains_key(name) {
            return Err(FsError::Exists);
        }
        self.journal_txn();
        let ino = self.next_ino.fetch_add(1, Ordering::Relaxed);
        // Persist the new dirent + inode (64B-ish metadata write).
        self.h.device().charge_transfer(0, 128, true, trio_nvm::handle::home_node());
        g.children.insert(name.to_string(), ino);
        g.size = g.children.len() as u64;
        g.mtime = now_or_zero();
        drop(g);
        self.install_inode(ino, ftype, mode, 0, 0);
        self.chassis.insert(parent, name, ino);
        Ok(ino)
    }

    fn do_remove(&self, path: &str, want_dir: bool) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(path)?;
        let dir = self.inode(parent)?;
        let mut g = dir.rwsem.write();
        let ino = *g.children.get(name).ok_or(FsError::NotFound)?;
        let inode = self.inode(ino)?;
        let victim = inode.rwsem.read();
        match (victim.ftype, want_dir) {
            (FileType::Directory, false) => return Err(FsError::IsDir),
            (FileType::Regular, true) => return Err(FsError::NotDir),
            (FileType::Directory, true) if !victim.children.is_empty() => {
                return Err(FsError::NotEmpty)
            }
            _ => {}
        }
        let pages = victim.pages.clone();
        drop(victim);
        self.journal_txn();
        self.h.device().charge_transfer(0, 64, true, trio_nvm::handle::home_node());
        g.children.remove(name);
        g.size = g.children.len() as u64;
        drop(g);
        self.chassis.remove(parent, name);
        self.free_pages(&pages);
        self.drop_inode(ino);
        Ok(())
    }
}

impl FileSystem for BaselineFs {
    fn open(&self, path: &str, flags: OpenFlags, mode: Mode) -> FsResult<Fd> {
        self.vfs_enter();
        let comps = trio_fsapi::path::components(path)?;
        let (ino, dentry) = if comps.is_empty() {
            (ROOT, None)
        } else {
            let parent = self.walk_dir(&comps[..comps.len() - 1])?;
            let name = comps[comps.len() - 1];
            match self.lookup_step(parent, name) {
                Ok(i) => {
                    if flags.contains(OpenFlags::CREATE) && flags.contains(OpenFlags::EXCL) {
                        return Err(FsError::Exists);
                    }
                    let d = self.chassis.lookup(parent, name);
                    if let Some(d) = &d {
                        self.chassis.grab(d);
                    }
                    (i, d)
                }
                Err(FsError::NotFound) if flags.contains(OpenFlags::CREATE) => {
                    let i = self.do_create(path, mode, FileType::Regular)?;
                    (i, None)
                }
                Err(e) => return Err(e),
            }
        };
        let inode = self.inode(ino)?;
        {
            let g = inode.rwsem.read();
            if g.ftype == FileType::Directory && flags.writable() {
                return Err(FsError::IsDir);
            }
        }
        if flags.contains(OpenFlags::TRUNC) {
            drop(inode);
            self.truncate_ino(ino, 0)?;
        }
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.fds[fd as usize % FD_SHARDS].lock().insert(fd, FdEntry { ino, flags, dentry });
        Ok(Fd(fd))
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        self.trap();
        let e = self.fds[fd.0 as usize % FD_SHARDS].lock().remove(&fd.0).ok_or(FsError::BadFd)?;
        if let Some(d) = &e.dentry {
            self.chassis.put(d);
        }
        Ok(())
    }

    fn pread(&self, fd: Fd, off: u64, buf: &mut [u8]) -> FsResult<usize> {
        let e =
            self.fds[fd.0 as usize % FD_SHARDS].lock().get(&fd.0).cloned().ok_or(FsError::BadFd)?;
        if !e.flags.readable() {
            return Err(FsError::BadFd);
        }
        if self.profile.data_traps() {
            self.vfs_enter();
        }
        let inode = self.inode(e.ino)?;
        let g = inode.rwsem.read();
        if off >= g.size {
            return Ok(0);
        }
        let len = buf.len().min((g.size - off) as usize);
        self.charge_index_walk();
        let first = (off as usize) / PAGE_SIZE;
        let last = (off as usize + len - 1) / PAGE_SIZE;
        let pages = &g.pages[first..=last];
        self.read_data(pages, off as usize % PAGE_SIZE, &mut buf[..len])?;
        Ok(len)
    }

    fn pwrite(&self, fd: Fd, off: u64, data: &[u8]) -> FsResult<usize> {
        if data.is_empty() {
            return Ok(0);
        }
        let e =
            self.fds[fd.0 as usize % FD_SHARDS].lock().get(&fd.0).cloned().ok_or(FsError::BadFd)?;
        if !e.flags.writable() {
            return Err(FsError::ReadOnly);
        }
        let end = off + data.len() as u64;
        match self.profile.data_path {
            DataPath::Kernel | DataPath::Delegated | DataPath::LogStructured => self.vfs_enter(),
            DataPath::SplitUser => {
                // SplitFS: overwrites are pure userspace; appends relink
                // through ext4 with an amortized trap.
                let inode = self.inode(e.ino)?;
                let extends = end > inode.rwsem.read().size;
                if extends {
                    let n = self.splitfs_appends.fetch_add(1, Ordering::Relaxed);
                    if n.is_multiple_of(SPLITFS_RELINK_EVERY) {
                        self.vfs_enter();
                        self.journal_txn();
                    }
                }
            }
        }
        let inode = self.inode(e.ino)?;
        // NOVA-class systems serialize an inode's log appends.
        let _log = match self.profile.journal {
            JournalModel::PerInodeLog => Some(inode.log_tail.lock()),
            _ => None,
        };
        let needs_extend = {
            let g = inode.rwsem.read();
            end > g.size || end.div_ceil(PAGE_SIZE as u64) as usize > g.pages.len()
        };
        if needs_extend {
            let mut g = inode.rwsem.write();
            let need = end.div_ceil(PAGE_SIZE as u64) as usize;
            if need > g.pages.len() {
                let newp = self.alloc_pages(g.pages.len()..need)?;
                g.pages.extend(newp);
            }
            self.journal_txn();
            self.charge_index_walk();
            let first = (off as usize) / PAGE_SIZE;
            let last = (off as usize + data.len() - 1) / PAGE_SIZE;
            self.write_data(&g.pages[first..=last], off as usize % PAGE_SIZE, data)?;
            if end > g.size {
                g.size = end;
            }
            g.mtime = now_or_zero();
        } else {
            let g = inode.rwsem.read();
            self.charge_index_walk();
            let first = (off as usize) / PAGE_SIZE;
            let last = (off as usize + data.len() - 1) / PAGE_SIZE;
            self.write_data(&g.pages[first..=last], off as usize % PAGE_SIZE, data)?;
        }
        Ok(data.len())
    }

    fn create(&self, path: &str, mode: Mode) -> FsResult<()> {
        self.vfs_enter();
        self.do_create(path, mode, FileType::Regular).map(|_| ())
    }

    fn mkdir(&self, path: &str, mode: Mode) -> FsResult<()> {
        self.vfs_enter();
        self.do_create(path, mode, FileType::Directory).map(|_| ())
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        self.vfs_enter();
        self.do_remove(path, false)
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        self.vfs_enter();
        self.do_remove(path, true)
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<DirEntry>> {
        self.vfs_enter();
        let comps = trio_fsapi::path::components(path)?;
        let ino = self.walk_dir(&comps)?;
        let dir = self.inode(ino)?;
        let g = dir.rwsem.read();
        if g.ftype != FileType::Directory {
            return Err(FsError::NotDir);
        }
        if in_sim() {
            work(g.children.len() as u64 * cost::DIRENT_WORK_NS);
        }
        // Reading the on-media dirents.
        self.h.device().charge_transfer(
            0,
            g.children.len() * 64,
            false,
            trio_nvm::handle::home_node(),
        );
        let mut out: Vec<DirEntry> = g
            .children
            .iter()
            .map(|(n, i)| DirEntry {
                name: n.clone(),
                ino: *i,
                ftype: self
                    .inode(*i)
                    .map(|x| x.rwsem.read().ftype)
                    .unwrap_or(FileType::Regular),
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn stat(&self, path: &str) -> FsResult<Stat> {
        self.vfs_enter();
        let comps = trio_fsapi::path::components(path)?;
        let ino = if comps.is_empty() {
            ROOT
        } else {
            let parent = self.walk_dir(&comps[..comps.len() - 1])?;
            self.lookup_step(parent, comps[comps.len() - 1])?
        };
        let inode = self.inode(ino)?;
        let g = inode.rwsem.read();
        self.h.device().charge_transfer(0, 128, false, trio_nvm::handle::home_node());
        Ok(Stat {
            ino,
            ftype: g.ftype,
            size: g.size,
            mode: g.mode,
            uid: g.uid,
            gid: g.gid,
            mtime: g.mtime,
        })
    }

    fn fstat(&self, fd: Fd) -> FsResult<Stat> {
        let e =
            self.fds[fd.0 as usize % FD_SHARDS].lock().get(&fd.0).cloned().ok_or(FsError::BadFd)?;
        self.trap();
        let inode = self.inode(e.ino)?;
        let g = inode.rwsem.read();
        Ok(Stat {
            ino: e.ino,
            ftype: g.ftype,
            size: g.size,
            mode: g.mode,
            uid: g.uid,
            gid: g.gid,
            mtime: g.mtime,
        })
    }

    fn rename(&self, src: &str, dst: &str) -> FsResult<()> {
        self.vfs_enter();
        let _big = self.chassis.rename_lock.lock(); // s_vfs_rename_mutex.
        let (sp, sname) = self.resolve_parent(src)?;
        let (dp, dname) = self.resolve_parent(dst)?;
        trio_fsapi::path::validate_name(dname)?;
        // Take parent inode locks in ino order.
        let spi = self.inode(sp)?;
        let dpi = self.inode(dp)?;
        let (mut sg, mut dg);
        if sp == dp {
            sg = spi.rwsem.write();
            let ino = *sg.children.get(sname).ok_or(FsError::NotFound)?;
            self.journal_txn();
            if let Some(old) = sg.children.insert(dname.to_string(), ino) {
                let _ = old; // Rename-replace: old inode simply drops.
            }
            sg.children.remove(sname);
            sg.size = sg.children.len() as u64;
        } else {
            if sp < dp {
                sg = spi.rwsem.write();
                dg = dpi.rwsem.write();
            } else {
                dg = dpi.rwsem.write();
                sg = spi.rwsem.write();
            }
            let ino = *sg.children.get(sname).ok_or(FsError::NotFound)?;
            self.journal_txn();
            dg.children.insert(dname.to_string(), ino);
            dg.size = dg.children.len() as u64;
            sg.children.remove(sname);
            sg.size = sg.children.len() as u64;
        }
        self.h.device().charge_transfer(0, 128, true, trio_nvm::handle::home_node());
        self.chassis.remove(sp, sname);
        // Invalidate any stale destination dentry; the next lookup
        // repopulates it with the moved inode.
        self.chassis.remove(dp, dname);
        Ok(())
    }

    fn truncate(&self, path: &str, size: u64) -> FsResult<()> {
        self.vfs_enter();
        let comps = trio_fsapi::path::components(path)?;
        let parent = self.walk_dir(&comps[..comps.len() - 1])?;
        let ino = self.lookup_step(parent, comps[comps.len() - 1])?;
        self.truncate_ino(ino, size)
    }

    fn fsync(&self, _fd: Fd) -> FsResult<()> {
        self.trap();
        self.journal_txn();
        Ok(())
    }

    fn setattr(&self, path: &str, attr: SetAttr) -> FsResult<()> {
        self.vfs_enter();
        let comps = trio_fsapi::path::components(path)?;
        let parent = self.walk_dir(&comps[..comps.len() - 1])?;
        let ino = self.lookup_step(parent, comps[comps.len() - 1])?;
        let inode = self.inode(ino)?;
        let mut g = inode.rwsem.write();
        self.journal_txn();
        if let Some(m) = attr.mode {
            g.mode = m;
        }
        if let Some(u) = attr.uid {
            g.uid = u;
        }
        if let Some(gid) = attr.gid {
            g.gid = gid;
        }
        Ok(())
    }

    fn fs_name(&self) -> &'static str {
        self.profile.name
    }
}

impl BaselineFs {
    fn truncate_ino(&self, ino: u64, size: u64) -> FsResult<()> {
        let inode = self.inode(ino)?;
        let mut g = inode.rwsem.write();
        if g.ftype != FileType::Regular {
            return Err(FsError::IsDir);
        }
        self.journal_txn();
        let keep = (size as usize).div_ceil(PAGE_SIZE);
        if keep < g.pages.len() {
            let freed: Vec<PageId> = g.pages.split_off(keep);
            self.free_pages(&freed);
        } else if size > g.size {
            // Zero-extend: allocate (zeroed) pages eagerly, as ext4 would
            // on a DAX truncate-up with block allocation.
            let newp = self.alloc_pages(g.pages.len()..keep)?;
            g.pages.extend(newp);
        }
        // Zero the tail of the boundary page on shrink.
        if !size.is_multiple_of(PAGE_SIZE as u64) && keep <= g.pages.len() && keep > 0 {
            let from = (size % PAGE_SIZE as u64) as usize;
            let zeros = vec![0u8; PAGE_SIZE - from];
            let _ = self.h.write_untimed(g.pages[keep - 1], from, &zeros);
        }
        g.size = size;
        g.mtime = now_or_zero();
        Ok(())
    }
}
