//! The kernel's page allocator (DESIGN.md §12; lint: hot-path — this
//! module must never take the registry lock, and it knows nothing of files).
//!
//! Every frame but the superblock twins is in exactly one of six places:
//!
//! | place      | provenance       | leaves by                              |
//! |------------|------------------|----------------------------------------|
//! | a pool     | none (free)      | `alloc` refill/steal, `take_fresh`, `pull_if_free` |
//! | a cache    | `AllocatedTo(a)` | `alloc` fast hit, high-water spill, `forget_actor` |
//! | handed out | caller's         | [`PageAllocator::put_back`]            |
//! | deferred   | none             | [`PageAllocator::unpin`] of its last checkpoint pin |
//! | limbo      | as put back      | the last earlier [`EpochPin`] dropping |
//! | retired    | none             | never                                  |
//!
//! Pools are per NUMA node, LIFO. A cache belongs to one registered actor,
//! from [`PageAllocator::add_actor`] to [`PageAllocator::forget_actor`]; its
//! frames are scrubbed, mapped nowhere and already provenance-tagged, so
//! granting one is an MMU map and nothing else.
//!
//! **One way back.** `put_back` is the only code that decides where a
//! returning frame goes, in this order: *checkpoint-pinned* → deferred
//! until `unpin`; else *limbo* until every earlier `EpochPin` has dropped;
//! once ripe, *retirement-pending* → retired; else *scrubbed* and into its
//! owner's cache (spilling the cold end past the high-water mark) or its
//! node's pool. So "a freed frame is never re-granted under a live
//! `EpochPin`, while a checkpoint needs it, or after the patrol condemned
//! it" is a property of this one function.
//!
//! Locks (`pools`, `pins`, the caches, the GC state, `retirement`) are
//! leaves: nothing here calls out while holding one, except a refill, which
//! takes pool and provenance-shard locks under the one cache lock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use trio_fsapi::{FsError, FsResult};
use trio_nvm::{ActorId, NodeId, NvmDevice, PageId, PathStats};
use trio_sim::plock::Mutex as PlMutex;
use trio_sim::sync::SimMutex;
use trio_sim::{cost, in_sim, work, DetHashMap, DetHashSet};
use trio_verifier::PageProvenance;

use crate::scrub::MediaStats;
use crate::shard::{EpochGc, EpochPin, LimboBatch, ShardedMap};

/// Extra pages a cache refill stocks beyond the immediate request, so
/// subsequent `alloc` calls skip the pools entirely.
const ALLOC_CACHE_REFILL: usize = 192;

/// Cache size past which freed pages spill back to the pools.
const ALLOC_CACHE_HIGH_WATER: usize = 512;

/// Where a frame coming back settles once nothing holds it any more.
#[derive(Clone, Copy)]
pub(crate) enum PutBack {
    /// The actor's cache, still tagged `AllocatedTo` — or the pools, if
    /// the actor has unregistered by the time the frame is ripe.
    Cache(ActorId),
    /// Its node's pool.
    Pool,
}

struct ActorCache {
    per_node: Vec<Vec<PageId>>,
    total: usize,
}

/// Frames pinned by live checkpoints (page → pin count) and the frames put
/// back while pinned, which wait here for their last `unpin`.
#[derive(Default)]
struct PinState {
    pinned: DetHashMap<u64, u32>,
    deferred: Vec<PageId>,
}

/// Bad-page retirement (DESIGN.md §19; volatile — a reboot re-learns).
#[derive(Default)]
struct Retirement {
    /// Out of circulation for good.
    retired: DetHashSet<u64>,
    /// Condemned while in someone's hands; retired when next put back.
    pending: DetHashSet<u64>,
}

pub(crate) struct PageAllocator {
    dev: Arc<NvmDevice>,
    prov: Arc<ShardedMap<PageProvenance>>,
    stats: Arc<PathStats>,
    media: Arc<MediaStats>,
    pools: Vec<SimMutex<Vec<PageId>>>,
    caches: PlMutex<DetHashMap<ActorId, Arc<SimMutex<ActorCache>>>>,
    pins: SimMutex<PinState>,
    gc: Arc<EpochGc>,
    retirement: SimMutex<Retirement>,
    /// Lock-free mirror of `retirement.pending`'s size, so a reclaim with
    /// nothing condemned skips the `retirement` lock. Moves under it.
    condemned: AtomicUsize,
}

impl PageAllocator {
    /// Pools holding every page `in_use` does not claim, low page numbers
    /// on top; everything else empty. `stale` frames (a recovered device:
    /// allocated at crash time, never linked into the committed tree) are
    /// scrubbed first, so old bytes cannot surface in a fresh allocation.
    pub(crate) fn new(
        dev: Arc<NvmDevice>,
        prov: Arc<ShardedMap<PageProvenance>>,
        stats: Arc<PathStats>,
        media: Arc<MediaStats>,
        in_use: impl Fn(PageId) -> bool,
        stale: bool,
    ) -> Self {
        let topo = dev.topology();
        let pools = (0..topo.nodes)
            .map(|node| {
                let first = topo.first_page_of(node).0;
                #[allow(
                    clippy::disallowed_methods,
                    reason = "the allocator scrubs the frames it holds"
                )]
                let mut pool: Vec<PageId> = (first..first + topo.pages_per_node as u64)
                    .rev()
                    .map(PageId)
                    .filter(|p| !in_use(*p) && (!stale || dev.reset_page(*p).is_ok()))
                    .collect();
                pool.shrink_to_fit();
                SimMutex::new(pool)
            })
            .collect();
        PageAllocator {
            dev,
            prov,
            stats,
            media,
            pools,
            caches: PlMutex::new(DetHashMap::default()),
            pins: SimMutex::new(PinState::default()),
            gc: Arc::new(EpochGc::new()),
            retirement: SimMutex::new(Retirement::default()),
            condemned: AtomicUsize::new(0),
        }
    }

    /// Opens `actor`'s cache (registration).
    pub(crate) fn add_actor(&self, actor: ActorId) {
        let cache = ActorCache { per_node: vec![Vec::new(); self.pools.len()], total: 0 };
        self.caches.lock().insert(actor, Arc::new(SimMutex::new(cache)));
    }

    /// Closes `actor`'s cache (exit), flushing it to the pools. Limbo is
    /// drained first, while the cache can still take what is ripe; later
    /// ripenings find no cache and go to the pools.
    pub(crate) fn forget_actor(&self, actor: ActorId) {
        self.reclaim();
        let Some(cache) = self.caches.lock().remove(&actor) else {
            return;
        };
        let mut c = cache.lock();
        c.total = 0;
        let cached: Vec<PageId> = c.per_node.iter_mut().flat_map(std::mem::take).collect();
        drop(c);
        self.release_to_pools(&cached);
    }

    /// Whether `actor` is registered with the allocator (no virtual cost).
    pub(crate) fn knows(&self, actor: ActorId) -> bool {
        self.caches.lock().contains_key(&actor)
    }

    /// Takes `n` pages for `actor`, preferring `node`. They come back
    /// tagged `AllocatedTo(actor)`, zeroed and mapped nowhere.
    ///
    /// Fast hit: out of the actor's cache, touching neither pools nor
    /// provenance. Otherwise one refill pulls the remainder plus
    /// `ALLOC_CACHE_REFILL` extra pages from the preferred node's pool,
    /// steals the mandatory part from other nodes if that pool is dry, and
    /// rolls everything back if the device cannot cover the request.
    pub(crate) fn alloc(
        &self,
        actor: ActorId,
        n: usize,
        node: Option<NodeId>,
    ) -> FsResult<Vec<PageId>> {
        let cache =
            self.caches.lock().get(&actor).map(Arc::clone).ok_or(FsError::PermissionDenied)?;
        let topo = self.dev.topology();
        let nodes = self.pools.len();
        let start = node.unwrap_or(0).min(nodes - 1);
        // Ripe limbo pages belong in the pools/caches before any refill
        // judges them empty. The probe is a relaxed atomic — free on the
        // steady-state path, where limbo drained at defer time — and must
        // run before the cache lock below (settling parks into it).
        if self.gc.has_limbo() {
            self.reclaim();
        }
        let mut c = cache.lock();
        let have = c.per_node[start].len();
        if have >= n {
            c.total -= n;
            self.stats.record_alloc_fast_hit();
            return Ok(c.per_node[start].split_off(have - n));
        }
        let mut out = c.per_node[start].split_off(0);
        c.total -= have;
        let need = n - have;
        let mut fresh: Vec<PageId> = Vec::new();
        {
            let mut pool = self.pools[start].lock();
            // Stock extras only while the pool stays comfortably deep, so
            // small devices keep exact-allocation behaviour.
            let extra =
                if pool.len() > need + 4 * ALLOC_CACHE_REFILL { ALLOC_CACHE_REFILL } else { 0 };
            let take = (need + extra).min(pool.len());
            let at = pool.len() - take;
            fresh.extend(pool.drain(at..).rev());
        }
        // Preferred node dry: steal the mandatory remainder round-robin
        // (never extras — stolen pages would pollute the per-node cache).
        for i in 1..nodes {
            if fresh.len() >= need {
                break;
            }
            let mut pool = self.pools[(start + i) % nodes].lock();
            let at = pool.len() - (need - fresh.len()).min(pool.len());
            fresh.extend(pool.drain(at..).rev());
        }
        // Last resort: this actor's own cache on other nodes — those
        // pages are already granted, so using them beats failing.
        'harvest: while fresh.len() + out.len() < n {
            let before = out.len();
            for ni in (0..nodes).filter(|ni| *ni != start) {
                if let Some(p) = c.per_node[ni].pop() {
                    c.total -= 1;
                    out.push(p);
                    if fresh.len() + out.len() == n {
                        break 'harvest;
                    }
                }
            }
            if out.len() == before {
                break;
            }
        }
        if fresh.len() + out.len() < n {
            // Roll back: fresh pages never left the free state (untagged,
            // unmapped, unwritten) and go straight back to their pools;
            // harvested cache pages back to the cache.
            for p in fresh {
                self.pools[topo.node_of(p)].lock().push(p);
            }
            c.total += out.len();
            for p in out {
                c.per_node[topo.node_of(p)].push(p);
            }
            return Err(FsError::NoSpace);
        }
        // The drained pages are consecutive, so tagging them touches one
        // or two provenance-shard locks.
        self.prov.insert_batch(fresh.iter().map(|p| (p.0, PageProvenance::AllocatedTo(actor))));
        self.stats.record_alloc_refill(fresh.len());
        let extras = fresh.split_off((n - out.len()).min(fresh.len()));
        out.extend(fresh);
        c.total += extras.len();
        c.per_node[start].extend(extras);
        Ok(out)
    }

    /// The one way back (module docs). The caller has authorized the
    /// return and, for [`PutBack::Cache`], tagged the pages `AllocatedTo`
    /// that actor; nobody may use them after this call.
    pub(crate) fn put_back(&self, pages: &[PageId], to: PutBack) {
        // 1. A checkpoint still needs the frame as a rollback image: park
        // it until `unpin`. It is free as far as the books go, and its
        // unmap is charged now, so `unpin` charges nothing.
        let (pinned, loose): (Vec<PageId>, Vec<PageId>) = {
            let mut pins = self.pins.lock();
            let split = pages.iter().partition(|p| pins.pinned.contains_key(&p.0));
            pins.deferred.extend(&split.0);
            split
        };
        if !pinned.is_empty() {
            self.prov.remove_batch(pinned.iter().map(|p| p.0));
            if in_sim() {
                work(pinned.len() as u64 * cost::MMU_PROGRAM_PAGE_NS);
            }
        }
        if !loose.is_empty() {
            self.enter_limbo(LimboBatch { pages: loose, to, charge: true });
        }
    }

    /// Step 2. A verifier walk, fsck or patrol pass holding an [`EpochPin`] may
    /// still be reading the frames: contents and provenance stay put until
    /// every earlier pin has dropped. With none live — the steady state —
    /// `reclaim` settles this very batch before returning.
    fn enter_limbo(&self, batch: LimboBatch) {
        self.gc.defer(batch);
        self.reclaim();
    }

    /// Settles every ripe limbo batch. Runs after every defer, before
    /// refills, when an actor leaves and from the ledger counts, so limbo
    /// is only ever non-empty while a pin is actually held.
    pub(crate) fn reclaim(&self) {
        for batch in self.gc.take_ripe() {
            self.settle(batch);
        }
    }

    /// Steps 3–5. Ripe frames: retirement-pending ones leave circulation; the
    /// rest are scrubbed (dropping every mapping with the contents) and
    /// parked in their owner's cache, or in the pools.
    fn settle(&self, LimboBatch { pages, to, charge }: LimboBatch) {
        let (condemned, live): (Vec<PageId>, Vec<PageId>) =
            pages.into_iter().partition(|p| self.retire_if_pending(*p));
        if !condemned.is_empty() {
            self.prov.remove_batch(condemned.iter().map(|p| p.0));
        }
        if live.is_empty() {
            return;
        }
        let cache = match to {
            PutBack::Cache(actor) => self.caches.lock().get(&actor).map(Arc::clone),
            PutBack::Pool => None,
        };
        // A page the device refuses to scrub (out of range) is dropped,
        // never recycled: leaking it is safe, its contents would not be.
        #[allow(clippy::disallowed_methods, reason = "the allocator scrubs the frames it holds")]
        let scrubbed: Vec<PageId> =
            live.iter().copied().filter(|p| self.dev.reset_page(*p).is_ok()).collect();
        let pay = || {
            if charge && in_sim() {
                work(live.len() as u64 * cost::MMU_PROGRAM_PAGE_NS);
            }
        };
        let Some(cache) = cache else {
            pay();
            self.stats.record_free(0, scrubbed.len());
            return self.release_to_pools(&scrubbed);
        };
        let topo = self.dev.topology();
        let mut c = cache.lock();
        c.total += scrubbed.len();
        for p in scrubbed {
            c.per_node[topo.node_of(p)].push(p);
        }
        pay();
        let mut spill: Vec<PageId> = Vec::new();
        let mut excess = c.total.saturating_sub(ALLOC_CACHE_HIGH_WATER);
        for per_node in c.per_node.iter_mut() {
            // The cold end is the bottom of the LIFO.
            let k = excess.min(per_node.len());
            spill.extend(per_node.drain(..k));
            excess -= k;
        }
        c.total -= spill.len();
        drop(c);
        self.stats.record_free(live.len(), spill.len());
        if !spill.is_empty() {
            self.release_to_pools(&spill);
        }
    }

    /// Scrubbed, unmapped frames become free: provenance dropped, each
    /// pushed on its node's pool — unless the patrol condemned it while it
    /// sat in a cache.
    fn release_to_pools(&self, pages: &[PageId]) {
        self.prov.remove_batch(pages.iter().map(|p| p.0));
        let topo = self.dev.topology();
        for p in pages {
            if !self.retire_if_pending(*p) {
                self.pools[topo.node_of(*p)].lock().push(*p);
            }
        }
    }

    /// Pins checkpointed pages so rollback images stay restorable.
    pub(crate) fn pin(&self, pages: impl Iterator<Item = PageId>) {
        let mut pins = self.pins.lock();
        for p in pages {
            *pins.pinned.entry(p.0).or_insert(0) += 1;
        }
    }

    /// Drops one pin from each page; deferred frames nothing pins any more
    /// resume their way back at the limbo step, bound for the pools.
    pub(crate) fn unpin(&self, pages: impl Iterator<Item = PageId>) {
        let mut pins = self.pins.lock();
        for p in pages {
            if let Some(c) = pins.pinned.get_mut(&p.0) {
                *c -= 1;
                if *c == 0 {
                    pins.pinned.remove(&p.0);
                }
            }
        }
        let (ready, still): (Vec<PageId>, Vec<PageId>) = std::mem::take(&mut pins.deferred)
            .into_iter()
            .partition(|p| !pins.pinned.contains_key(&p.0));
        pins.deferred = still;
        drop(pins);
        if !ready.is_empty() {
            // `charge: false` keeps what an unpin cost before the carve-out
            // (nothing): `put_back` charged these frames when it deferred
            // them, and charging the checkpoint refresh that happens to
            // drop the last pin would bill one actor for another's free.
            self.enter_limbo(LimboBatch { pages: ready, to: PutBack::Pool, charge: false });
        }
    }

    /// Splits `pages` into those free to change hands now and those that
    /// must take [`PageAllocator::put_back`]: pinned by a checkpoint, or
    /// condemned by the patrol (which it retires). With nothing condemned
    /// the second check is one relaxed load.
    pub(crate) fn split_recyclable(&self, pages: Vec<PageId>) -> (Vec<PageId>, Vec<PageId>) {
        let (free, mut held): (Vec<PageId>, Vec<PageId>) = {
            let pins = self.pins.lock();
            pages.into_iter().partition(|p| !pins.pinned.contains_key(&p.0))
        };
        if self.condemned.load(Ordering::Relaxed) == 0 {
            return (free, held);
        }
        let r = self.retirement.lock();
        let (free, condemned): (Vec<PageId>, Vec<PageId>) =
            free.into_iter().partition(|p| !r.pending.contains(&p.0));
        held.extend(condemned);
        (free, held)
    }

    /// Pops one free frame, `near` node preferred (migration target). Give
    /// it back with `put_back(.., PutBack::Pool)` if it goes unused.
    pub(crate) fn take_fresh(&self, near: NodeId) -> Option<PageId> {
        let nodes = self.pools.len();
        (0..nodes).find_map(|i| self.pools[(near + i) % nodes].lock().pop())
    }

    /// Removes `page` from its pool if it is free; whether it was.
    pub(crate) fn pull_if_free(&self, page: PageId) -> bool {
        let mut pool = self.pools[self.dev.topology().node_of(page)].lock();
        let found = pool.iter().position(|p| *p == page);
        found.map(|at| pool.remove(at)).is_some()
    }

    /// Takes a frame the caller holds out of circulation (pulled from a
    /// pool, or migrated away from): scrubbed, never handed out again.
    pub(crate) fn retire(&self, page: PageId) {
        self.retire_on_return(page);
        self.retire_if_pending(page);
    }

    /// Condemns a frame that is in someone's hands: `put_back` retires it.
    pub(crate) fn retire_on_return(&self, page: PageId) {
        if self.retirement.lock().pending.insert(page.0) {
            self.condemned.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn is_retired(&self, page: PageId) -> bool {
        self.retirement.lock().retired.contains(&page.0)
    }

    fn retire_if_pending(&self, page: PageId) -> bool {
        let mut r = self.retirement.lock();
        if !r.pending.remove(&page.0) {
            return false;
        }
        self.condemned.fetch_sub(1, Ordering::Relaxed);
        let fresh = r.retired.insert(page.0);
        drop(r);
        #[allow(clippy::disallowed_methods, reason = "the allocator scrubs the frames it holds")]
        let _ = self.dev.reset_page(page);
        if fresh {
            self.media.record_retired();
        }
        true
    }

    /// Holds freed frames in limbo until the returned pin drops.
    pub(crate) fn epoch_pin(&self) -> EpochPin {
        self.gc.pin()
    }

    // The ledger: with the pages reachable from files and LibFS pools,
    // these five account for every frame. The first two settle ripe limbo
    // first, so they never under-count what a dropped pin was holding back.

    pub(crate) fn free_count(&self) -> usize {
        self.reclaim();
        self.pools.iter().map(|p| p.lock().len()).sum()
    }

    pub(crate) fn cached_count(&self) -> usize {
        self.reclaim();
        let caches: Vec<_> = self.caches.lock().values().map(Arc::clone).collect();
        caches.iter().map(|c| c.lock().total).sum()
    }

    pub(crate) fn limbo_count(&self) -> usize {
        self.gc.limbo_len()
    }

    pub(crate) fn deferred_count(&self) -> usize {
        self.pins.lock().deferred.len()
    }

    pub(crate) fn retired_count(&self) -> usize {
        self.retirement.lock().retired.len()
    }
}
