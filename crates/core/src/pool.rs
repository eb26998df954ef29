//! LibFS-local resource pools.
//!
//! Allocation is the one control-plane interaction a LibFS cannot avoid,
//! so it is pooled: pages/inos come from the kernel controller a stripe
//! unit or an ino batch at a time and creates/appends are served from DRAM
//! in between (paper §4.5: per-CPU DRAM allocators; per-node here,
//! matching the NUMA-placement decisions striping needs).

use std::sync::Arc;

use trio_fsapi::{FsError, FsResult};
use trio_kernel::{KernelController, RetryPolicy};
use trio_layout::Ino;
use trio_nvm::{ActorId, PageId};
use trio_sim::sync::SimMutex;
use trio_sim::{in_sim, work};

/// Backoff for allocator-exhaustion refill retries: transient `NoSpace`
/// (another LibFS is between free and reuse, or the pools are momentarily
/// drained by a reclamation burst) deserves a brief wait before the
/// failure propagates to the syscall.
const REFILL_RETRY: RetryPolicy = RetryPolicy::new(50_000, 0, 3, 400_000).no_jitter();

/// Pages per stripe unit (16 × 4 KiB = 64 KiB): the unit file data is
/// placed in, and the least one refill asks the kernel for. Every page a
/// refill brings is mapped, at `MMU_PROGRAM_PAGE_NS` each, so the pool
/// asks for what the operation is short of and leaves over-fetching to the
/// kernel's per-actor cache, whose frames cost nothing until granted
/// (DESIGN.md §12).
pub(crate) const STRIPE_PAGES: usize = 16;

/// Page pool, one bucket per NUMA node.
pub struct PagePool {
    kernel: Arc<KernelController>,
    actor: ActorId,
    per_node: Vec<SimMutex<Vec<PageId>>>,
}

impl PagePool {
    /// Creates an empty pool.
    pub fn new(kernel: Arc<KernelController>, actor: ActorId) -> Self {
        let nodes = kernel.device().topology().nodes;
        PagePool {
            kernel,
            actor,
            per_node: (0..nodes).map(|_| SimMutex::new(Vec::new())).collect(),
        }
    }

    /// One kernel refill of at least `need` pages, a whole stripe unit if
    /// `need` is less. A device too full for the unit is asked again at
    /// once for exactly `need`; only an exact ask the kernel cannot meet is
    /// transient exhaustion, retried per [`REFILL_RETRY`].
    fn refill(&self, node: usize, need: usize) -> FsResult<Vec<PageId>> {
        let mut ask = need.max(STRIPE_PAGES);
        let mut attempt = 0u32;
        loop {
            match self.kernel.alloc_pages(self.actor, ask, Some(node)) {
                Err(FsError::NoSpace) if ask > need => ask = need,
                Err(FsError::NoSpace) if attempt + 1 < REFILL_RETRY.attempts() => {
                    let w = REFILL_RETRY.window_ns(attempt, 0);
                    self.kernel.delegation().stats().record_refill_retry();
                    crate::obs::refill_retry(attempt, w);
                    if in_sim() {
                        work(w);
                    }
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Takes one page on `node`.
    pub fn take(&self, node: usize) -> FsResult<PageId> {
        Ok(self.take_many(node, 1)?[0])
    }

    /// Takes one file page (an index page, or a data run of one page) on
    /// `node`. A dry bucket lends from a sibling before anyone traps: the
    /// caller's home bucket first, so the write that follows is local, then
    /// `home + 1, home + 2, …`; a sibling read dry costs nothing, and only
    /// the one that lends is locked. Only when every bucket is dry does it
    /// refill `node`.
    ///
    /// Runs of two or more pages, directory and journal pages keep strict
    /// placement (DESIGN.md §12 "Two layers"). A borrowed page stays
    /// `AllocatedTo(actor)`, and `put` / `put_many` send it back to the
    /// bucket of its own node.
    pub fn take_lone(&self, node: usize) -> FsResult<PageId> {
        Ok(self.take_from(node, 1, true)?[0])
    }

    /// Takes `n` pages on `node`, refilling from the kernel as needed.
    pub fn take_many(&self, node: usize, n: usize) -> FsResult<Vec<PageId>> {
        self.take_from(node, n, false)
    }

    /// The one take loop: `n` pages from `node`'s bucket, else one page a
    /// sibling lends (`lend`, lone takes only), else a refill. Refills run
    /// *outside* the pool lock so one thread's kernel trip (batched MMU
    /// programming) never convoys its siblings.
    fn take_from(&self, node: usize, n: usize, lend: bool) -> FsResult<Vec<PageId>> {
        debug_assert!(!lend || n == 1, "only a lone page is lent");
        let nodes = self.per_node.len();
        let node = node % nodes;
        loop {
            // The deficit must be computed under the same lock hold as the
            // availability check: a sibling's refill landing between two
            // separate acquisitions can push `have` past `n`, and
            // `n - have` would then underflow into an absurd ask that
            // drains the device.
            let have = {
                let mut pool = self.per_node[node].lock();
                if pool.len() >= n {
                    let at = pool.len() - n;
                    return Ok(pool.split_off(at));
                }
                pool.len()
            };
            if lend {
                let home = trio_nvm::handle::home_node() % nodes;
                let mut siblings = (0..nodes).map(|i| (home + i) % nodes).filter(|b| *b != node);
                if let Some(page) = siblings.find_map(|b| self.lend_from(b)) {
                    return Ok(vec![page]);
                }
            }
            let refill = self.refill(node, n - have)?;
            self.per_node[node].lock().extend(refill);
        }
    }

    /// One page from sibling bucket `b`, locked only if a read free of its
    /// lock shows it stocked (or a holder keeps it from being read).
    fn lend_from(&self, b: usize) -> Option<PageId> {
        #[allow(
            clippy::disallowed_methods,
            reason = "a length read with no sim point; a held bucket is locked as before"
        )]
        let dry = self.per_node[b].read_free(Vec::is_empty);
        if dry == Some(true) {
            return None;
        }
        self.per_node[b].lock().pop()
    }

    /// Returns an unused pool page (never linked into a file).
    pub fn put(&self, page: PageId) {
        let node = self.kernel.device().topology().node_of(page);
        self.per_node[node].lock().push(page);
    }

    /// Returns pool pages — unused, or recycled by the kernel from a
    /// deleted file — with one lock per bucket: each bucket ends exactly as
    /// one [`PagePool::put`] per page, in order, would leave it.
    pub fn put_many(&self, pages: &[PageId]) {
        let topo = self.kernel.device().topology();
        let mut by_node: Vec<Vec<PageId>> = vec![Vec::new(); self.per_node.len()];
        for p in pages {
            by_node[topo.node_of(*p)].push(*p);
        }
        for (bucket, new) in self.per_node.iter().zip(by_node) {
            if !new.is_empty() {
                bucket.lock().extend(new);
            }
        }
    }

    /// Whether `page` is pooled (tests).
    pub fn holds(&self, page: PageId) -> bool {
        let node = self.kernel.device().topology().node_of(page);
        self.per_node[node].lock().contains(&page)
    }

    /// Pooled page count (tests).
    pub fn len(&self) -> usize {
        self.per_node.iter().map(|p| p.lock().len()).sum()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hands every pooled page back to the kernel (shutdown). One batched
    /// call: the kernel's free path takes its registry lock per call, not
    /// per page, so merging the per-node buckets keeps shutdown O(1) locks.
    pub fn drain_to_kernel(&self) {
        let pages: Vec<PageId> =
            self.per_node.iter().flat_map(|pool| pool.lock().drain(..).collect::<Vec<_>>()).collect();
        if !pages.is_empty() {
            let _ = self.kernel.free_pages(self.actor, &pages);
        }
    }
}

/// Batched inode-number pool, sharded so creator threads do not convoy
/// (the paper makes these allocators per-CPU, §4.5).
pub struct InoPool {
    kernel: Arc<KernelController>,
    actor: ActorId,
    shards: Vec<SimMutex<Vec<Ino>>>,
}

const INO_SHARDS: usize = 16;

/// Inos one shard's refill asks the kernel for.
const INO_BATCH: u64 = 64;

impl InoPool {
    /// Creates an empty pool refilling [`INO_BATCH`] inos at a time per shard.
    pub fn new(kernel: Arc<KernelController>, actor: ActorId) -> Self {
        InoPool {
            kernel,
            actor,
            shards: (0..INO_SHARDS).map(|_| SimMutex::new(Vec::new())).collect(),
        }
    }

    fn shard(&self) -> &SimMutex<Vec<Ino>> {
        let i = if trio_sim::in_sim() { trio_sim::current_tid() } else { 0 };
        &self.shards[i % INO_SHARDS]
    }

    /// Takes one inode number.
    pub fn take(&self) -> FsResult<Ino> {
        let mut pool = self.shard().lock();
        if let Some(i) = pool.pop() {
            return Ok(i);
        }
        let refill = self.kernel.alloc_inos(self.actor, INO_BATCH)?;
        pool.extend(refill);
        Ok(pool.pop().expect("batch is non-empty"))
    }

    /// Returns an unused ino (failed create).
    pub fn put(&self, ino: Ino) {
        self.shard().lock().push(ino);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use trio_fsapi::write_file;
    use trio_kernel::KernelConfig;
    use trio_nvm::{DeviceConfig, NvmDevice};
    use trio_sim::sync::SimBarrier;
    use trio_sim::SimRuntime;

    use super::*;
    use crate::{ArckFs, ArckFsConfig};

    fn kernel_on(cfg: DeviceConfig) -> Arc<KernelController> {
        KernelController::format(Arc::new(NvmDevice::new(cfg)), KernelConfig::default())
    }

    /// A first 64 KiB write maps what it uses plus less than a stripe unit
    /// per bucket it touched, not a batch per bucket.
    #[test]
    fn cold_bucket_is_refilled_by_the_stripe_unit() {
        let kernel = kernel_on(DeviceConfig::eight_node(4096));
        let cfg = ArckFsConfig { delegation: false, ..ArckFsConfig::default() };
        let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, cfg);
        let rt = SimRuntime::new(21);
        rt.spawn("t", move || {
            write_file(&*fs, "/f", &vec![7u8; 64 * 1024]).unwrap();
            let pooled: Vec<usize> = fs.pages.per_node.iter().map(|b| b.lock().len()).collect();
            assert!(pooled.iter().all(|n| *n < STRIPE_PAGES), "a whole unit pooled: {pooled:?}");
            let mapped = kernel.path_stats().snapshot().alloc_mapped_pages as usize;
            // 16 data pages and the file's index page; root's index and dirent page.
            let used = 64 * 1024 / trio_nvm::PAGE_SIZE + 1 + 2;
            assert_eq!(mapped, used + fs.pages.len(), "a mapped page is in the file or the pool");
        });
        rt.run();
    }

    /// Sixteen threads meet at one empty bucket: each refills for itself,
    /// no page is handed out twice and none goes missing.
    #[test]
    fn herd_on_an_empty_bucket_conserves_pages() {
        let kernel = kernel_on(DeviceConfig::small());
        let reg = kernel.register_libfs(1000, 1000);
        let pool = Arc::new(PagePool::new(Arc::clone(&kernel), reg.actor));
        let rt = SimRuntime::new(22);
        rt.spawn("herd", move || {
            let barrier = Arc::new(SimBarrier::new(16));
            let takers: Vec<_> = (0..16)
                .map(|_| {
                    let (pool, barrier) = (Arc::clone(&pool), Arc::clone(&barrier));
                    let got = Arc::new(SimMutex::new(None));
                    let slot = Arc::clone(&got);
                    let h = trio_sim::spawn("taker", move || {
                        barrier.wait();
                        *slot.lock() = Some(pool.take(0).unwrap());
                    });
                    (h, got)
                })
                .collect();
            let mut taken = BTreeSet::new();
            for (h, got) in takers {
                h.join();
                assert!(taken.insert(got.lock().expect("took a page")), "a page handed out twice");
            }
            let idle = kernel.free_page_count()
                + kernel.cached_page_count()
                + kernel.limbo_page_count()
                + kernel.deferred_page_count()
                + kernel.retired_page_count();
            let total = kernel.device().topology().total_pages() as usize - 2;
            assert_eq!(idle + taken.len() + pool.len(), total, "pages not conserved");
        });
        rt.run();
    }

    /// Stocks `pool`'s bucket `node` with `n` pages granted by the kernel.
    fn stock(kernel: &KernelController, pool: &PagePool, node: usize, n: usize) {
        pool.put_many(&kernel.alloc_pages(pool.actor, n, Some(node)).unwrap());
    }

    /// What the kernel has mapped and refilled so far.
    fn traps(kernel: &KernelController) -> (u64, u64) {
        let s = kernel.path_stats().snapshot();
        (s.alloc_refills, s.alloc_mapped_pages)
    }

    /// A lone file page asked from a dry bucket comes from the caller's
    /// home bucket, then from the next sibling, and never traps.
    #[test]
    fn lone_page_borrows_home_then_next_sibling() {
        let kernel = kernel_on(DeviceConfig::eight_node(512));
        let reg = kernel.register_libfs(1000, 1000);
        let pool = PagePool::new(Arc::clone(&kernel), reg.actor);
        let rt = SimRuntime::new(24);
        rt.spawn("t", move || {
            trio_nvm::handle::set_home_node(2);
            let node_of = |p: PageId| kernel.device().topology().node_of(p);
            stock(&kernel, &pool, 2, 1);
            stock(&kernel, &pool, 3, 1);
            stock(&kernel, &pool, 7, 1);
            let before = traps(&kernel);
            assert_eq!(node_of(pool.take_lone(5).unwrap()), 2, "the home bucket lends first");
            assert_eq!(node_of(pool.take_lone(5).unwrap()), 3, "then home + 1");
            assert_eq!(node_of(pool.take_lone(2).unwrap()), 7, "the asked bucket is skipped");
            assert_eq!(traps(&kernel), before, "a borrow maps nothing");
            assert!(pool.is_empty());
            assert_eq!(node_of(pool.take_lone(4).unwrap()), 4, "a dry pool refills the asked node");
            assert_ne!(traps(&kernel), before);
        });
        rt.run();
    }

    /// A two-page run and a `take` (directory and journal pages) keep
    /// strict placement: a dry bucket refills its own node even while a
    /// sibling holds enough.
    #[test]
    fn runs_and_directory_pages_refill_their_own_node() {
        let kernel = kernel_on(DeviceConfig::eight_node(512));
        let reg = kernel.register_libfs(1000, 1000);
        let pool = PagePool::new(Arc::clone(&kernel), reg.actor);
        let rt = SimRuntime::new(25);
        rt.spawn("t", move || {
            trio_nvm::handle::set_home_node(2);
            let node_of = |p: PageId| kernel.device().topology().node_of(p);
            stock(&kernel, &pool, 2, 2 * STRIPE_PAGES);
            let (refills, mapped) = traps(&kernel);
            let run = pool.take_many(5, 2).unwrap();
            assert!(run.iter().all(|p| node_of(*p) == 5), "a run borrowed: {run:?}");
            assert_eq!(node_of(pool.take(6).unwrap()), 6, "a directory page borrowed");
            let after = traps(&kernel);
            assert_eq!(after.0, refills + 2, "one refill per dry node");
            assert_eq!(after.1, mapped + 2 * STRIPE_PAGES as u64, "a stripe unit per refill");
        });
        rt.run();
    }

    /// Sixteen lone-page takers meet at a dry bucket while one sibling
    /// holds half as many pages: no page is handed out twice, none goes
    /// missing, and the sibling's stock is spent before anyone traps.
    #[test]
    fn lone_page_herd_on_a_dry_bucket_conserves_pages() {
        let kernel = kernel_on(DeviceConfig::eight_node(512));
        let reg = kernel.register_libfs(1000, 1000);
        let pool = Arc::new(PagePool::new(Arc::clone(&kernel), reg.actor));
        let rt = SimRuntime::new(26);
        rt.spawn("herd", move || {
            stock(&kernel, &pool, 3, 8);
            let barrier = Arc::new(SimBarrier::new(16));
            let takers: Vec<_> = (0..16)
                .map(|_| {
                    let (pool, barrier) = (Arc::clone(&pool), Arc::clone(&barrier));
                    let got = Arc::new(SimMutex::new(None));
                    let slot = Arc::clone(&got);
                    let h = trio_sim::spawn("taker", move || {
                        barrier.wait();
                        *slot.lock() = Some(pool.take_lone(0).unwrap());
                    });
                    (h, got)
                })
                .collect();
            let mut taken = BTreeSet::new();
            for (h, got) in takers {
                h.join();
                assert!(taken.insert(got.lock().expect("took a page")), "a page handed out twice");
            }
            let topo = kernel.device().topology();
            assert_eq!(taken.iter().filter(|p| topo.node_of(**p) == 3).count(), 8);
            let idle = kernel.free_page_count()
                + kernel.cached_page_count()
                + kernel.limbo_page_count()
                + kernel.deferred_page_count()
                + kernel.retired_page_count();
            let total = topo.total_pages() as usize - 2;
            assert_eq!(idle + taken.len() + pool.len(), total, "pages not conserved");
        });
        rt.run();
    }

    /// `put_many` leaves every bucket as one `put` per page would: the
    /// later `take`s, which pop the top, hand out the same pages.
    #[test]
    fn put_many_is_n_puts() {
        let kernel = kernel_on(DeviceConfig::eight_node(512));
        let reg = kernel.register_libfs(1000, 1000);
        let (one_by_one, batched) =
            (PagePool::new(Arc::clone(&kernel), reg.actor), PagePool::new(kernel, reg.actor));
        // Interleaved nodes, out of page order, a page on a node twice.
        let pages: Vec<PageId> =
            [700, 5, 1030, 6, 3000, 701, 4, 1031].into_iter().map(PageId).collect();
        for p in &pages {
            one_by_one.put(*p);
        }
        batched.put_many(&pages);
        let buckets = |pool: &PagePool| -> Vec<Vec<PageId>> {
            pool.per_node.iter().map(|b| b.lock().clone()).collect()
        };
        assert_eq!(buckets(&batched), buckets(&one_by_one));
        assert_eq!(buckets(&batched)[0], [PageId(5), PageId(6), PageId(4)]);
    }

    /// The stripe-unit floor never turns an ask the device can meet into
    /// `NoSpace` or a backoff wait; an exact ask it cannot meet does both.
    #[test]
    fn near_full_device_serves_the_exact_ask() {
        let kernel = kernel_on(DeviceConfig::small());
        let hog = kernel.register_libfs(1000, 1000);
        let reg = kernel.register_libfs(1000, 1000);
        let pool = PagePool::new(Arc::clone(&kernel), reg.actor);
        let rt = SimRuntime::new(23);
        rt.spawn("t", move || {
            let left = STRIPE_PAGES - 1;
            kernel.alloc_pages(hog.actor, kernel.free_page_count() - left, Some(0)).unwrap();
            let retries = || kernel.path_stats().snapshot().refill_retries;
            pool.take(0).unwrap();
            assert_eq!((retries(), pool.len()), (0, 0));
            assert_eq!(pool.take_many(0, left).err(), Some(FsError::NoSpace));
            assert_eq!(retries(), u64::from(REFILL_RETRY.attempts()) - 1);
        });
        rt.run();
    }
}
