//! Page protection — the emulated MMU.
//!
//! Real Trio programs the hardware page table; here a per-page permission
//! record is checked on every [`crate::NvmHandle`] access. Only the kernel
//! controller holds the privileged [`crate::NvmDevice`] interface that can
//! change permissions, which is precisely the trust split the paper's
//! architecture relies on (§3.2 "Protected direct access").

/// An access-control principal: one LibFS instance (≈ one process or trust
/// group). Actor 0 is the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub u32);

/// The privileged kernel actor; bypasses permission checks (ring 0).
pub const KERNEL_ACTOR: ActorId = ActorId(0);

/// Page access permission, per actor. Ordered by what it allows:
/// `Read < Write` (and, as an `Option`, no mapping below both).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PagePerm {
    /// Mapped read-only.
    Read,
    /// Mapped read-write.
    Write,
}

/// Protection fault raised by the emulated MMU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtError {
    /// The page is not mapped for this actor.
    NotMapped,
    /// The page is mapped read-only and a write was attempted.
    ReadOnly,
    /// Page number beyond the device.
    OutOfRange,
    /// Misaligned atomic access.
    Misaligned,
    /// The accessed range overlaps a poisoned (uncorrectable media error)
    /// cache line. Real PM raises a machine check; the emulation surfaces a
    /// recoverable error instead so file systems can degrade gracefully.
    Poisoned,
    /// A delegation grant window was revoked, unmapped, or mutated while a
    /// request referencing it was in flight. The submitter broke the grant
    /// contract (DESIGN.md §17); the op fails cleanly instead of tearing.
    GrantRevoked,
}

impl std::fmt::Display for ProtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ProtError::NotMapped => "page fault: not mapped",
            ProtError::ReadOnly => "page fault: write to read-only mapping",
            ProtError::OutOfRange => "page beyond device capacity",
            ProtError::Misaligned => "misaligned atomic NVM access",
            ProtError::Poisoned => "media error: poisoned cache line",
            ProtError::GrantRevoked => "delegation grant revoked mid-flight",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ProtError {}

/// Per-page permission record. Most pages are mapped by zero or one actors,
/// so a small inline vector suffices.
#[derive(Default, Debug)]
pub struct PageProt {
    entries: Vec<(ActorId, PagePerm)>,
}

impl PageProt {
    /// No mappings: the record of a page nobody has mapped.
    pub const EMPTY: PageProt = PageProt { entries: Vec::new() };

    /// Grants (or upgrades/downgrades) `actor`'s permission.
    pub fn map(&mut self, actor: ActorId, perm: PagePerm) {
        match self.entries.iter_mut().find(|(a, _)| *a == actor) {
            Some(e) => e.1 = perm,
            None => self.entries.push((actor, perm)),
        }
    }

    /// Revokes `actor`'s mapping; returns whether one existed.
    pub fn unmap(&mut self, actor: ActorId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(a, _)| *a != actor);
        self.entries.len() != before
    }

    /// Permission check for a read or write by `actor`.
    pub fn check(&self, actor: ActorId, write: bool) -> Result<(), ProtError> {
        if actor == KERNEL_ACTOR {
            return Ok(());
        }
        match self.entries.iter().find(|(a, _)| *a == actor) {
            Some((_, PagePerm::Write)) => Ok(()),
            Some((_, PagePerm::Read)) if !write => Ok(()),
            Some((_, PagePerm::Read)) => Err(ProtError::ReadOnly),
            None => Err(ProtError::NotMapped),
        }
    }

    /// Current permission of `actor`, if mapped.
    pub fn perm_of(&self, actor: ActorId) -> Option<PagePerm> {
        self.entries.iter().find(|(a, _)| *a == actor).map(|(_, p)| *p)
    }

    /// Actors currently holding a write mapping (at most one under Trio's
    /// sharing policy; the type does not enforce that — the kernel does).
    pub fn writers(&self) -> impl Iterator<Item = ActorId> + '_ {
        self.entries.iter().filter(|(_, p)| *p == PagePerm::Write).map(|(a, _)| *a)
    }

    /// Every mapping, in the order the actors were first mapped.
    pub fn iter(&self) -> impl Iterator<Item = (ActorId, PagePerm)> + '_ {
        self.entries.iter().copied()
    }

    /// Number of mappings.
    pub fn mapping_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_bypasses_checks() {
        let p = PageProt::default();
        assert!(p.check(KERNEL_ACTOR, true).is_ok());
        assert_eq!(p.check(ActorId(5), false), Err(ProtError::NotMapped));
    }

    #[test]
    fn read_mapping_rejects_writes() {
        let mut p = PageProt::default();
        p.map(ActorId(1), PagePerm::Read);
        assert!(p.check(ActorId(1), false).is_ok());
        assert_eq!(p.check(ActorId(1), true), Err(ProtError::ReadOnly));
    }

    #[test]
    fn upgrade_and_unmap() {
        let mut p = PageProt::default();
        p.map(ActorId(1), PagePerm::Read);
        p.map(ActorId(1), PagePerm::Write);
        assert_eq!(p.perm_of(ActorId(1)), Some(PagePerm::Write));
        assert_eq!(p.mapping_count(), 1);
        assert!(p.unmap(ActorId(1)));
        assert!(!p.unmap(ActorId(1)));
        assert_eq!(p.check(ActorId(1), false), Err(ProtError::NotMapped));
    }

    #[test]
    fn writers_iterator() {
        let mut p = PageProt::default();
        p.map(ActorId(1), PagePerm::Read);
        p.map(ActorId(2), PagePerm::Write);
        let w: Vec<ActorId> = p.writers().collect();
        assert_eq!(w, vec![ActorId(2)]);
    }
}
