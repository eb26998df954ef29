//! The page-table door: every edit the kernel makes to an actor's PTEs,
//! under that actor's **page-table lock** (DESIGN.md §20).
//!
//! The registry lock holds the books — who is granted what — and the
//! page-table lock holds the PTE writes that carry the books out. No two
//! actors share a page table, so programming one address space never waits
//! for programming another; what the lock orders is the kernel's own edits
//! of *one* actor's table: `map` enters a grant in the books, takes the
//! grantee's page-table lock, and only then lets go of the registry, so
//! whoever ends that grant next (`settle`, under the registry) queues on
//! this lock behind the programming and unmaps *after* it — never before,
//! which would leave the actor holding pages the books no longer give it.
//!
//! Lock order: registry → page-table lock (one actor's at a time). A holder
//! never takes the registry. The lock itself costs no virtual time:
//! [`cost::MMU_PROGRAM_PAGE_NS`] is calibrated from the paper's end-to-end
//! Figure 8 and already contains the mm's own locking.
//!
//! `program` and `strip` write the PTEs that differ from what they are
//! asked for, and charge [`cost::MMU_PROGRAM_PAGE_NS`] for those alone: a
//! PTE that already holds the permission is not rewritten and needs no TLB
//! work, so a re-map after the holder's own release (whose grant kept its
//! PTEs, DESIGN.md §9 "Lazy release") pays for the dirent page only. The
//! comparison reads the actor's table, not the books: the two can
//! disagree — a page the books grant and the table lacks is DESIGN.md
//! §22's `missing`, and the table can hold a pool page the books call a
//! file's — and trusting the books would skip the very PTE whose absence
//! made the holder fault `Stale` and re-map, so that re-map would fault
//! again, forever.
//!
//! `NvmDevice::reset_page`, which wipes a frame's protections for *every*
//! actor, is not here: it belongs to the allocator and `reclaim_one`, who
//! call it on frames that are in nobody's grant any more, so there is no
//! per-actor programming for it to race with.

use std::sync::Arc;

use trio_layout::superblock::SUPERBLOCK_PAGE;
use trio_layout::superblock_replica_page;
use trio_nvm::{ActorId, NvmDevice, PageId, PagePerm, ProtError};
use trio_sim::plock::Mutex as PlMutex;
use trio_sim::sync::{SimMutex, SimMutexGuard};
use trio_sim::{cost, in_sim, work, DetHashMap, Nanos};
use trio_verifier::PageProvenance;

use crate::{KernelController, PhaseSlot};

/// What writing `pages` PTEs costs.
pub(crate) fn program_ns(pages: usize) -> Nanos {
    pages as u64 * cost::MMU_PROGRAM_PAGE_NS
}

fn new_lock() -> Arc<SimMutex<()>> {
    Arc::new(SimMutex::with_costs((), 0, 0))
}

/// The page-table lock of every registered actor, from `register_libfs` to
/// `unregister`. The map itself is behind a host mutex held for a lookup
/// only: no virtual time, not a scheduling point.
#[derive(Default)]
pub(crate) struct PageTableLocks(PlMutex<DetHashMap<ActorId, Arc<SimMutex<()>>>>);

impl PageTableLocks {
    pub(crate) fn add(&self, actor: ActorId) {
        self.0.lock().insert(actor, new_lock());
    }

    pub(crate) fn remove(&self, actor: ActorId) {
        self.0.lock().remove(&actor);
    }

    /// `actor`'s lock. An actor that is not registered gets one of its own:
    /// it is granted nothing any more, so its PTEs only ever go away, and
    /// unmaps commute.
    fn of(&self, actor: ActorId) -> Arc<SimMutex<()>> {
        self.0.lock().get(&actor).map_or_else(new_lock, Arc::clone)
    }
}

/// One actor's page table, not yet locked ([`KernelController::page_table`]).
pub(crate) struct PageTable<'k> {
    kernel: &'k KernelController,
    actor: ActorId,
    lock: Arc<SimMutex<()>>,
}

impl PageTable<'_> {
    /// Takes the page-table lock; the PTEs are the guard's to edit.
    pub(crate) fn lock(&self) -> PageTableGuard<'_> {
        PageTableGuard { kernel: self.kernel, actor: self.actor, _held: self.lock.lock() }
    }
}

/// One actor's locked page table.
pub(crate) struct PageTableGuard<'a> {
    kernel: &'a KernelController,
    actor: ActorId,
    _held: SimMutexGuard<'a, ()>,
}

impl PageTableGuard<'_> {
    fn dev(&self) -> &NvmDevice {
        self.kernel.device()
    }

    /// Spends the time `pages` PTE writes take, on the clock and in the
    /// phase `slot` picks.
    fn charge(&self, pages: usize, slot: PhaseSlot) {
        if in_sim() {
            work(program_ns(pages));
            self.kernel.charge_phase(slot, program_ns(pages));
        }
    }

    /// What the actor's table holds for `page` now.
    fn held(&self, page: PageId) -> Option<PagePerm> {
        self.dev().mmu_perm(self.actor, page).ok().flatten()
    }

    /// Figure 2 steps 2 and 9, and `commit`'s re-grant: writes the PTEs of
    /// a grant the books already hold — those that differ. The caller has
    /// checked every frame against the device range
    /// ([`KernelController::grant_frames`]), which is all `mmu_map` can fail
    /// on — so no grant is ever half programmed.
    ///
    /// The PTEs land at the *end* of the time they are charged for: the
    /// grantee cannot use the mapping before `map` returns either way, and
    /// it is the order in which an unmap that did not wait for this lock
    /// would be lost — so the tests can see the lock missing.
    pub(crate) fn program(&self, pages: &[PageId], perm: PagePerm) {
        let writes: Vec<PageId> =
            pages.iter().copied().filter(|p| self.held(*p) != Some(perm)).collect();
        self.charge(writes.len(), |p| &p.map_ns);
        for p in writes {
            let _ = self.dev().mmu_map(self.actor, p, perm);
        }
    }

    /// A grant's end (`settle`), or a released writer's dirent page
    /// (`release`): the PTEs go — except `keep`'s page, which falls back to
    /// that permission (another grant of the actor covers it). Writes, and
    /// charges, only the PTEs that differ.
    pub(crate) fn strip(
        &self,
        pages: impl IntoIterator<Item = PageId>,
        keep: Option<(PageId, PagePerm)>,
    ) {
        let mut n = 0;
        for p in pages {
            let want = keep.filter(|(page, _)| *page == p).map(|(_, perm)| perm);
            if self.held(p) == want {
                continue;
            }
            n += 1;
            let _ = match want {
                Some(perm) => self.dev().mmu_map(self.actor, p, perm),
                None => self.dev().mmu_unmap(self.actor, p).map(drop),
            };
        }
        self.charge(n, |p| &p.unmap_ns);
    }

    /// Clears whatever PTEs the actor still has on `pages`, free of charge:
    /// the unmap of a grant is paid for where the grant ends (`strip`), and
    /// what is swept here — residue on pages a verification just claimed, a
    /// deleted file's holders, a leaving actor's superblock window — is in
    /// the common case already gone.
    pub(crate) fn sweep(&self, pages: impl IntoIterator<Item = PageId>) {
        for p in pages {
            let _ = self.dev().mmu_unmap(self.actor, p);
        }
    }

    /// Writes one PTE outside any file grant (a pool page, the superblock
    /// window). Uncharged: each caller prices its own batch. Fails only for
    /// a frame outside the device.
    pub(crate) fn remap(&self, page: PageId, perm: PagePerm) -> Result<(), ProtError> {
        self.dev().mmu_map(self.actor, page, perm)
    }

    /// The read-only window every registered actor has on the superblock
    /// and its replica (so its fault-tolerant superblock reads work). Page
    /// 0 and the last page always exist, so this cannot fail; if it ever
    /// did the LibFS would merely lack superblock visibility.
    pub(crate) fn remap_superblock_window(&self) {
        for p in superblock_window(self.dev()) {
            let _ = self.remap(p, PagePerm::Read);
        }
    }

    /// Quarantine: every PTE the actor has, device-wide, in one sweep — no
    /// further store can land anywhere, not even on pages the books call
    /// clean.
    pub(crate) fn revoke_all(&self) {
        self.dev().revoke_actor(self.actor);
    }
}

/// The superblock and its replica.
pub(crate) fn superblock_window(dev: &NvmDevice) -> [PageId; 2] {
    [SUPERBLOCK_PAGE, superblock_replica_page(dev.topology().total_pages())]
}

impl KernelController {
    /// The door to `actor`'s PTEs: `page_table(actor).lock()` is the only
    /// way the kernel edits them (`cargo xtask lint`, rule
    /// `page-table-door`).
    pub(crate) fn page_table(&self, actor: ActorId) -> PageTable<'_> {
        PageTable { kernel: self, actor, lock: self.page_tables.of(actor) }
    }
}

/// What [`KernelController::audit_mmu_against_books`] found.
#[derive(Debug, Default)]
pub struct MmuAudit {
    /// PTEs beyond the books: the actor can touch the page and nothing —
    /// no grant of its in the books (a released one counts, at the
    /// permission its PTEs were given), no pool page, not the superblock
    /// window — says it may (or it can write where the books say read). The
    /// security direction: must be empty.
    pub excess: Vec<(ActorId, PageId, PagePerm)>,
    /// Pages a live (unreleased) file grant covers and the actor's page
    /// table lacks (or holds read-only under a write grant). Costs a
    /// `Stale` fault and a re-map, never correctness: DESIGN.md §22's
    /// neighbours.
    pub missing: usize,
}

/// `None < Read < Write`.
fn rank(perm: Option<PagePerm>) -> u8 {
    match perm {
        None => 0,
        Some(PagePerm::Read) => 1,
        Some(PagePerm::Write) => 2,
    }
}

impl KernelController {
    /// Test hook: compares every PTE on the device with what the books
    /// give its actor — the most any grant of the actor's in the books
    /// allows on the page, write on its pool pages (`AllocatedTo`), read on
    /// the superblock window while it is registered. Call it on a quiescent
    /// kernel: a grant between the books and its programming reads as
    /// `missing`.
    pub fn audit_mmu_against_books(&self) -> MmuAudit {
        let reg = self.reg_lock(trio_nvm::RegistryLockSite::Admin);
        // (actor, page) → (most any grant allows, most a live grant allows).
        let mut granted: DetHashMap<(ActorId, PageId), (PagePerm, Option<PagePerm>)> =
            DetHashMap::default();
        for (actor, perm, pages, released) in reg.files.values().flat_map(|m| m.grants()) {
            let live = (!released).then_some(perm);
            for p in pages {
                let slot = granted.entry((actor, *p)).or_insert((perm, live));
                if rank(Some(perm)) > rank(Some(slot.0)) {
                    slot.0 = perm;
                }
                if rank(live) > rank(slot.1) {
                    slot.1 = live;
                }
            }
        }
        let held = |actor, page| self.device().mmu_perm(actor, page).ok().flatten();
        let missing = granted
            .iter()
            .filter(|((actor, page), (_, live))| rank(held(*actor, *page)) < rank(*live))
            .count();
        let window = superblock_window(self.device());
        let allowed = |actor: ActorId, page: PageId| {
            if self.prov.get(page.0) == Some(PageProvenance::AllocatedTo(actor)) {
                return Some(PagePerm::Write);
            }
            let windowed = window.contains(&page) && reg.actors.contains_key(&actor);
            granted.get(&(actor, page)).map(|(any, _)| *any).or(windowed.then_some(PagePerm::Read))
        };
        let excess = self
            .device()
            .mappings()
            .into_iter()
            .filter(|(page, actor, perm)| rank(Some(*perm)) > rank(allowed(*actor, *page)))
            .map(|(page, actor, perm)| (actor, page, perm))
            .collect();
        MmuAudit { excess, missing }
    }
}
