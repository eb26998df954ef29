//! LibFS-local resource pools.
//!
//! Allocation is the one control-plane interaction a LibFS cannot avoid,
//! so it is batched: the pool pulls pages/inos from the kernel controller
//! in chunks and serves creates/appends from DRAM thereafter (paper §4.5:
//! per-CPU DRAM allocators; per-node here, matching the NUMA-placement
//! decisions striping needs).

use std::sync::Arc;

use trio_fsapi::{FsError, FsResult};
use trio_kernel::{KernelController, RetryPolicy};
use trio_layout::Ino;
use trio_nvm::{ActorId, PageId};
use trio_sim::sync::SimMutex;
use trio_sim::{in_sim, work};

/// Backoff for allocator-exhaustion refill retries: transient `NoSpace`
/// (another LibFS is between free and reuse, or the pools are momentarily
/// drained by a reclamation burst) deserves a brief wait and a smaller
/// ask before the failure propagates to the syscall.
const REFILL_RETRY: RetryPolicy = RetryPolicy::new(50_000, 0, 3, 400_000).no_jitter();

/// Pages one refill asks the kernel for.
const PAGE_BATCH: usize = 64;

/// Batched page pool, one bucket per NUMA node.
pub struct PagePool {
    kernel: Arc<KernelController>,
    actor: ActorId,
    per_node: Vec<SimMutex<Vec<PageId>>>,
}

impl PagePool {
    /// Creates an empty pool refilling [`PAGE_BATCH`] pages at a time.
    pub fn new(kernel: Arc<KernelController>, actor: ActorId) -> Self {
        let nodes = kernel.device().topology().nodes;
        PagePool {
            kernel,
            actor,
            per_node: (0..nodes).map(|_| SimMutex::new(Vec::new())).collect(),
        }
    }

    /// One kernel refill, retrying transient exhaustion per
    /// [`REFILL_RETRY`]: each retry waits the policy window and halves
    /// the ask (a smaller batch can succeed where a full one cannot);
    /// never returns fewer than `need` pages.
    fn refill(&self, node: usize, need: usize) -> FsResult<Vec<PageId>> {
        let mut want = PAGE_BATCH.max(need);
        let mut attempt = 0u32;
        loop {
            match self.kernel.alloc_pages(self.actor, want, Some(node)) {
                Ok(pages) => return Ok(pages),
                Err(FsError::NoSpace) if attempt + 1 < REFILL_RETRY.attempts() => {
                    let w = REFILL_RETRY.window_ns(attempt, 0);
                    self.kernel.delegation().stats().record_refill_retry();
                    crate::obs::refill_retry(attempt, w);
                    if in_sim() {
                        work(w);
                    }
                    want = (want / 2).max(need).max(1);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Takes one page on `node` (refilling from the kernel as needed).
    /// Refills run *outside* the pool lock so one thread's kernel trip
    /// (batched MMU programming) never convoys its siblings.
    pub fn take(&self, node: usize) -> FsResult<PageId> {
        let node = node % self.per_node.len();
        if let Some(p) = self.per_node[node].lock().pop() {
            return Ok(p);
        }
        let refill = self.refill(node, 1)?;
        let mut pool = self.per_node[node].lock();
        pool.extend(refill);
        Ok(pool.pop().expect("batch is non-empty"))
    }

    /// Takes `n` pages on `node`.
    pub fn take_many(&self, node: usize, n: usize) -> FsResult<Vec<PageId>> {
        let node = node % self.per_node.len();
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
            let refill = self.refill(node, n - have)?;
            self.per_node[node].lock().extend(refill);
        }
    }

    /// Returns an unused pool page (never linked into a file).
    pub fn put(&self, page: PageId) {
        let node = self.kernel.device().topology().node_of(page);
        self.per_node[node].lock().push(page);
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
