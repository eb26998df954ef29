//! page-table-door fixture: the device's MMU interface, and a scrub that
//! drops every actor's PTEs, named outside `crates/kernel/src/pagetable.rs`
//! (and the allocator's `alloc.rs`). Each live site below must trip; the
//! grant table's `revoke_actor`, the door itself, the annotated site and
//! the test module stay clean.

impl Ctl {
    pub fn map_behind_the_lock(&self, actor: ActorId, page: PageId) {
        let _ = self.dev.mmu_map(actor, page, PagePerm::Write); // trips page-table-door
    }

    pub fn unmap_behind_the_lock(&self, actor: ActorId, page: PageId) {
        let _ = self.device().mmu_unmap(actor, page); // trips page-table-door
    }

    pub fn contain(&self, offender: ActorId) {
        self.device().revoke_actor(offender); // trips page-table-door
        // The grant table has a `revoke_actor` of its own: not a PTE in sight.
        self.delegation().grants().revoke_actor(offender);
    }

    pub fn scrub_behind_the_lock(&self, page: PageId) {
        let _ = self.device().reset_page(page); // trips page-table-door
    }

    pub fn through_the_door_is_clean(&self, actor: ActorId, wants: &[(PageId, Option<PagePerm>)]) {
        self.page_table(actor).lock().apply(wants);
    }

    pub fn annotated_is_clean(&self, actor: ActorId) {
        // lint: allow(page-table-door) fixture: boot-time identity map, no actor runs yet
        let _ = self.dev.mmu_map(actor, PageId(0), PagePerm::Read);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_program_the_device_directly() {
        dev.mmu_map(ActorId(1), PageId(3), PagePerm::Write).unwrap();
    }
}
