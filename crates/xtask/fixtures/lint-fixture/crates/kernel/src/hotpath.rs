//! Fixture for hot-path-registry: this module declares itself
//! lint: hot-path, so any registry control-lock acquisition below
//! must be flagged.

pub struct Ctl;

impl Ctl {
    pub fn refill_fast(&self) {
        let _fast = self.registry.lock(); // direct acquisition trips
        let _site = self.reg_lock(LockSite::AllocRefill); // wrapper trips too
        // lint: allow(hot-path-registry) cold admin path, off the perf gate
        let _cold = self.registry.lock();
        // lint: allow(hot-path-registry)
        let _bare = self.registry.lock(); // reported: an allow needs a reason
    }
}
