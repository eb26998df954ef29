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
//! **One rule for every file-grant PTE.** An actor's PTE on a page carries
//! the most that any of its grants in the books allows there, live or
//! released ([`Registry::wants`], DESIGN.md §20). No protocol step decides
//! its own edits: wherever the books change — a `map`, a `commit`, a
//! `release`, a grant's end (`settle`), a file's reclamation, a
//! verification's verdict — the kernel asks the rule about the pages the
//! change touched and hands the answer to [`PageTableGuard::apply`]
//! ([`KernelController::reconcile`]). So a page two grants of one actor
//! cover — a child's dirent page in a directory it reads, two siblings'
//! dirents in one page — keeps what the other grant allows when one goes.
//!
//! `apply` writes only the PTEs that differ from the actor's table and
//! charges [`cost::MMU_PROGRAM_PAGE_NS`] for those alone — a PTE that grows
//! to `map_ns`, one that shrinks or goes to `unmap_ns`: a PTE that already
//! holds the permission needs no TLB work, so a re-map after the holder's
//! own release (whose grant kept its PTEs, DESIGN.md §9 "Lazy release")
//! pays for the dirent page only. It compares with the table, not with
//! what the books said before: trusting the books would skip the very PTE
//! whose absence made the holder fault `Stale` and re-map, so that re-map
//! would fault again, forever.
//!
//! What is not a grant is not the rule's: pool pages (`remap` at allocation
//! and quarantine, [`PageTableGuard::recycle`] at reclamation) and the
//! superblock window (from `register` to `unregister`).
//!
//! `NvmDevice::reset_page`, which wipes a frame's protections for *every*
//! actor, is the allocator's, called on frames it holds and nobody is
//! granted; outside `alloc.rs` the kernel reaches it only through here
//! (`page-table-door` in clippy.toml). `recycle` is the one scrub that changes a
//! frame's hands: the dead file's frames are in nobody's grant any more, so
//! the other actors' PTEs it drops have no programming to race with, and
//! the recycler's own PTE is this guard's to keep.

use std::sync::Arc;

use trio_layout::superblock::SUPERBLOCK_PAGE;
use trio_layout::superblock_replica_page;
use trio_nvm::{ActorId, NvmDevice, PageId, PagePerm, ProtError};
use trio_sim::plock::Mutex as PlMutex;
use trio_sim::sync::{SimMutex, SimMutexGuard};
use trio_sim::{cost, in_sim, work, DetHashMap, Nanos};
use trio_verifier::PageProvenance;

use crate::registry::Registry;
use crate::KernelController;

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

#[allow(
    clippy::disallowed_methods,
    reason = "the page-table door: a guard holds its actor's page-table lock"
)]
impl PageTableGuard<'_> {
    fn dev(&self) -> &NvmDevice {
        self.kernel.device()
    }

    /// What the actor's table holds for `page` now.
    fn held(&self, page: PageId) -> Option<PagePerm> {
        self.dev().mmu_perm(self.actor, page).ok().flatten()
    }

    fn write(&self, page: PageId, perm: Option<PagePerm>) {
        let _ = match perm {
            Some(perm) => self.dev().mmu_map(self.actor, page, perm),
            None => self.dev().mmu_unmap(self.actor, page).map(drop),
        };
    }

    /// Brings each of the pages to the permission beside it — what
    /// [`Registry::wants`] says, or `None` for the superblock window of an
    /// actor that leaves — writing and charging only the PTEs that differ.
    /// A grant's frames were checked against the device range before it
    /// entered the books ([`KernelController::grant_frames`]), which is all
    /// `mmu_map` can fail on, so no grant is ever half programmed.
    ///
    /// PTEs that shrink land at the start of the time charged, PTEs that
    /// grow at its *end*: the grantee cannot use a mapping before `map`
    /// returns either way, and it is the order in which an unmap that did
    /// not wait for this lock would be lost — so the tests can see the lock
    /// missing.
    pub(crate) fn apply(&self, wants: &[(PageId, Option<PagePerm>)]) {
        let mut grow = Vec::new();
        let mut shrunk = 0;
        for &(page, want) in wants {
            let held = self.held(page);
            if want > held {
                grow.push((page, want));
            } else if want < held {
                self.write(page, want);
                shrunk += 1;
            }
        }
        if in_sim() {
            work(program_ns(grow.len() + shrunk));
            self.kernel.charge_phase(|p| &p.map_ns, program_ns(grow.len()));
            self.kernel.charge_phase(|p| &p.unmap_ns, program_ns(shrunk));
        }
        for (page, want) in grow {
            self.write(page, want);
        }
    }

    /// Writes one PTE outside any file grant (a pool page, the superblock
    /// window). Uncharged: each caller prices its own batch. Fails only for
    /// a frame outside the device.
    pub(crate) fn remap(&self, page: PageId, perm: PagePerm) -> Result<(), ProtError> {
        self.dev().mmu_map(self.actor, page, perm)
    }

    /// Recycles a dead file's frames into the actor's pool (their
    /// provenance already says `AllocatedTo` the actor): each is scrubbed
    /// durably, in order, and loses every other actor's PTE. Only the
    /// actor's own PTEs that grow to Write are written and charged, in
    /// full and at the end, like [`PageTableGuard::apply`]'s: a pool page
    /// that stays with its owner costs nothing.
    pub(crate) fn recycle(&self, pages: &[PageId]) {
        let grow: Vec<PageId> = pages
            .iter()
            .copied()
            .filter(|p| {
                let held = self.dev().reset_page_sparing(*p, self.actor);
                held.is_ok_and(|held| held < Some(PagePerm::Write))
            })
            .collect();
        if in_sim() {
            work(program_ns(grow.len()));
            self.kernel.charge_phase(|p| &p.map_ns, program_ns(grow.len()));
        }
        for page in grow {
            self.write(page, Some(PagePerm::Write));
        }
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
    /// way the kernel edits them (clippy.toml, `page-table-door`).
    pub(crate) fn page_table(&self, actor: ActorId) -> PageTable<'_> {
        PageTable { kernel: self, actor, lock: self.page_tables.of(actor) }
    }

    /// The books changed on `pages` for `actor`: its PTEs there become what
    /// the rule says ([`Registry::wants`], then [`PageTableGuard::apply`]),
    /// under the registry. `map` and `commit` split the two, hand over hand,
    /// to program outside it.
    pub(crate) fn reconcile(
        &self,
        reg: &Registry,
        actor: ActorId,
        pages: impl IntoIterator<Item = PageId>,
    ) {
        self.page_table(actor).lock().apply(&reg.wants(actor, pages));
    }
}

/// What [`KernelController::audit_mmu_against_books`] found. Both halves
/// are empty on a quiescent kernel (`is_clean`).
#[derive(Debug, Default)]
pub struct MmuAudit {
    /// PTEs beyond the books: the actor can touch the page and nothing —
    /// no grant of its in the books, no pool page, not the superblock
    /// window — says it may (or it can write where the books say read). The
    /// security direction.
    pub excess: Vec<(ActorId, PageId, PagePerm)>,
    /// Pages the actor's grants in the books allow more on than its page
    /// table holds: a `Stale` fault and a re-map waiting to happen.
    pub missing: usize,
}

impl MmuAudit {
    /// Whether the page tables hold exactly what the books give.
    pub fn is_clean(&self) -> bool {
        self.excess.is_empty() && self.missing == 0
    }
}

impl KernelController {
    /// Test hook: compares every PTE on the device, and every page a grant
    /// covers, with what the books give the actor — [`Registry::wants`] on
    /// a grant's pages, write on its pool pages (`AllocatedTo`), read on
    /// the superblock window while it is registered. Call it on a quiescent
    /// kernel: a grant between the books and its programming reads as
    /// `missing`.
    pub fn audit_mmu_against_books(&self) -> MmuAudit {
        let reg = self.reg_lock(trio_nvm::RegistryLockSite::Admin);
        let mappings = self.device().mappings();
        let mut pages: DetHashMap<ActorId, Vec<PageId>> = DetHashMap::default();
        for m in reg.files.values() {
            for a in m.holders() {
                pages.entry(a).or_default().extend(m.grant_of(a).into_iter().flat_map(|g| g.1));
            }
        }
        for (page, actor, _) in &mappings {
            pages.entry(*actor).or_default().push(*page);
        }
        let wants: DetHashMap<(ActorId, PageId), Option<PagePerm>> = pages
            .into_iter()
            .flat_map(|(actor, pages)| {
                reg.wants(actor, pages).into_iter().map(move |(page, want)| ((actor, page), want))
            })
            .collect();
        let held = |actor, page| self.device().mmu_perm(actor, page).ok().flatten();
        let missing = wants.iter().filter(|((a, p), want)| held(*a, *p) < **want).count();
        let window = superblock_window(self.device());
        let allowed = |actor: ActorId, page: PageId| {
            if self.prov.get(page.0) == Some(PageProvenance::AllocatedTo(actor)) {
                return Some(PagePerm::Write);
            }
            let windowed = window.contains(&page) && reg.actors.contains_key(&actor);
            wants[&(actor, page)].max(windowed.then_some(PagePerm::Read))
        };
        let excess = mappings
            .into_iter()
            .filter(|(page, actor, perm)| Some(*perm) > allowed(*actor, *page))
            .map(|(page, actor, perm)| (actor, page, perm))
            .collect();
        MmuAudit { excess, missing }
    }
}
