//! Revocable grant windows: the zero-copy delegation payload contract
//! (DESIGN.md §17).
//!
//! A submitting LibFS *registers* its source buffer with the kernel once,
//! receiving a grant id; each delegated write then carries only a
//! [`GrantRef`] — id, window, epoch — and the delegation worker reads the
//! payload straight out of the granted buffer during its single write pass
//! into NVM. Nothing is copied on the submit path: `payload_copies` is 0
//! by construction, not by amortization.
//!
//! The table is the trust boundary. Requests arrive over shared-memory
//! rings a hostile LibFS can write directly, so a worker re-validates the
//! grant on **every** dispatch — first sends and client retries alike —
//! checking existence, ownership, epoch, and window bounds before touching
//! a byte, and re-checks the epoch after its pass. A submitter that
//! mutates ([`GrantTable::update`] bumps the epoch), revokes, or
//! unregisters a granted region mid-flight gets a clean
//! [`ProtError::GrantRevoked`] instead of a torn write; a forged or
//! foreign id gets the same. Revocation is tied to every exit path: op
//! completion (transient grants), fallback-to-direct, LibFS unregister,
//! and quarantine all pull the grant, so a straggling copy of a retried
//! request can never read a buffer its owner has moved on from.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use trio_nvm::{ActorId, PathStats, ProtError};
use trio_sim::plock::Mutex as PlMutex;
use trio_sim::DetHashMap;

use crate::delegation::{DelegationError, DelegationPool};
use crate::retry::RetryPolicy;

/// A by-reference write payload: one window into a registered grant.
/// `epoch` pins the buffer *version* the submitter intended — a worker
/// serving this ref refuses it once the grant has been updated or revoked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GrantRef {
    /// Table id from [`GrantTable::register`].
    pub grant_id: u64,
    /// Window start within the granted buffer.
    pub start: usize,
    /// Window length (the op's payload length).
    pub len: usize,
    /// Grant epoch the window was cut from.
    pub epoch: u64,
}

struct GrantEntry {
    owner: ActorId,
    data: Arc<[u8]>,
    epoch: u64,
    /// In-flight worker passes currently reading this grant. A pass pins
    /// the grant at [`GrantTable::resolve`] and unpins after its post-pass
    /// epoch check; revocation drains pins before returning.
    pins: u32,
    /// Set the moment revocation (or an update) begins: new resolves fail
    /// immediately, and the revoker waits for `pins` to reach zero. This
    /// is what makes `revoke` a barrier — once it returns, no worker is
    /// reading the window and no further stale bytes can reach media.
    dying: bool,
}

/// Number of independent grant-table shards. Ids are handed out from one
/// atomic counter, so `id % GRANT_SHARDS` spreads concurrent registrants
/// uniformly; 16 shards keep 100+ tenants from serializing on one mutex
/// (lint: hot-path — this module must never take the registry lock).
const GRANT_SHARDS: usize = 16;

/// The kernel-side registry of live grant windows, sharded by grant id so
/// steady-state register/revoke traffic from many tenants never contends
/// on a single global lock.
pub struct GrantTable {
    next_id: AtomicU64,
    shards: [PlMutex<DetHashMap<u64, GrantEntry>>; GRANT_SHARDS],
    stats: Arc<PathStats>,
}

impl GrantTable {
    pub(crate) fn new(stats: Arc<PathStats>) -> Self {
        GrantTable {
            next_id: AtomicU64::new(1),
            shards: std::array::from_fn(|_| PlMutex::new(DetHashMap::default())),
            stats,
        }
    }

    fn shard_of(&self, id: u64) -> &PlMutex<DetHashMap<u64, GrantEntry>> {
        &self.shards[(id % GRANT_SHARDS as u64) as usize]
    }

    /// Registers `data` as a grant owned by `owner`; returns its id.
    /// The buffer itself is shared, not copied — whether materializing it
    /// cost a copy is the *caller's* story to account (a LibFS registering
    /// its long-lived I/O buffer pays nothing per op).
    pub fn register(&self, owner: ActorId, data: Arc<[u8]>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shard_of(id)
            .lock()
            .insert(id, GrantEntry { owner, data, epoch: 1, pins: 0, dying: false });
        self.stats.record_grant_register();
        id
    }

    /// One drain step while waiting for pinned passes: yields virtual time
    /// inside the simulation (workers make progress against the same
    /// clock), a scheduler hint outside it.
    fn drain_tick() {
        if trio_sim::in_sim() {
            trio_sim::work(200);
        } else {
            #[allow(
                clippy::disallowed_methods,
                reason = "bare scheduler hint on the non-sim drain path; nothing blocks, so there \
                          is no edge to track"
            )]
            std::thread::yield_now();
        }
    }

    /// Replaces the granted buffer (the submitter rewrote it). Bumps the
    /// epoch: refs cut from the old contents die with it, which is what
    /// turns a mutate-while-in-flight race into a clean fault. Like
    /// [`Self::revoke`], this is a barrier: in-flight passes pinned on the
    /// old contents are drained (new resolves failing meanwhile) before
    /// the swap lands, so once `update` returns no worker is still
    /// streaming the old bytes onto media.
    pub fn update(&self, owner: ActorId, id: u64, data: Arc<[u8]>) -> Result<(), ProtError> {
        let mut data = Some(data);
        loop {
            {
                let mut entries = self.shard_of(id).lock();
                let e = entries.get_mut(&id).ok_or(ProtError::GrantRevoked)?;
                if e.owner != owner {
                    return Err(ProtError::GrantRevoked);
                }
                e.dying = true;
                if e.pins == 0 {
                    // `data` is only consumed here, on the iteration that
                    // lands the swap; every retry leaves it in place.
                    if let Some(d) = data.take() {
                        e.data = d;
                    }
                    e.epoch += 1;
                    e.dying = false;
                    return Ok(());
                }
            }
            Self::drain_tick();
        }
    }

    /// Cuts a [`GrantRef`] window at the grant's current epoch. This is
    /// the client-side pre-flight check; the worker re-validates.
    pub fn window(
        &self,
        owner: ActorId,
        id: u64,
        start: usize,
        len: usize,
    ) -> Result<GrantRef, ProtError> {
        let entries = self.shard_of(id).lock();
        let e = entries.get(&id).ok_or(ProtError::GrantRevoked)?;
        if e.owner != owner {
            return Err(ProtError::GrantRevoked);
        }
        if start.checked_add(len).is_none_or(|end| end > e.data.len()) {
            return Err(ProtError::OutOfRange);
        }
        Ok(GrantRef { grant_id: id, start, len, epoch: e.epoch })
    }

    /// The granted bytes themselves (owner only) — the direct-access
    /// fallback path reads these when delegation is bypassed.
    pub fn data_of(&self, owner: ActorId, id: u64) -> Result<Arc<[u8]>, ProtError> {
        let entries = self.shard_of(id).lock();
        let e = entries.get(&id).ok_or(ProtError::GrantRevoked)?;
        if e.owner != owner {
            return Err(ProtError::GrantRevoked);
        }
        Ok(Arc::clone(&e.data))
    }

    /// Revokes one grant; returns whether it was live. Owner-checked: one
    /// LibFS cannot pull another's grants out from under its workers.
    ///
    /// Revocation is a **barrier**, not just a table delete. The grant is
    /// first marked dying — every subsequent [`Self::resolve`] (say, a
    /// client retry's copy still queued on a ring) faults with
    /// [`ProtError::GrantRevoked`] — and then the call waits for already-
    /// admitted passes to unpin. Once `revoke` returns, no worker holds a
    /// snapshot of the window: whatever a straggling duplicate wrote has
    /// already landed, strictly before anything the caller does next
    /// (direct fallback, the submitter's next overwrite), so a stale pass
    /// can never clobber newer bytes.
    pub fn revoke(&self, owner: ActorId, id: u64) -> bool {
        loop {
            {
                let mut entries = self.shard_of(id).lock();
                match entries.get_mut(&id) {
                    Some(e) if e.owner == owner => {
                        e.dying = true;
                        if e.pins == 0 {
                            entries.remove(&id);
                            self.stats.record_grant_revoke();
                            return true;
                        }
                    }
                    _ => return false,
                }
            }
            Self::drain_tick();
        }
    }

    /// Revokes every grant `actor` owns (unregister, quarantine), with the
    /// same drain-the-pins barrier as [`Self::revoke`]. Returns how many
    /// were pulled.
    pub fn revoke_actor(&self, actor: ActorId) -> usize {
        let mut pulled = 0;
        loop {
            let mut pinned = false;
            // Shard-at-a-time: each shard's lock is taken and released
            // independently, so a mass revocation never freezes the whole
            // table against unrelated tenants.
            for shard in &self.shards {
                let mut entries = shard.lock();
                entries.retain(|_, e| {
                    if e.owner != actor {
                        return true;
                    }
                    e.dying = true;
                    if e.pins == 0 {
                        pulled += 1;
                        self.stats.record_grant_revoke();
                        false
                    } else {
                        pinned = true;
                        true
                    }
                });
            }
            if !pinned {
                return pulled;
            }
            Self::drain_tick();
        }
    }

    /// Cuts an **op-scoped child grant** from `gref`: a fresh grant
    /// sharing the parent's buffer (an `Arc` clone — no bytes move) whose
    /// lifetime is exactly one delegated op. The submit path dispatches
    /// the child, and revokes it the moment the op returns; since
    /// revocation drains pinned passes, that revoke is the op's
    /// completion fence — no straggling copy of a retried batch can still
    /// be reading the window after the op has returned, even when the
    /// parent grant lives on for the next write.
    pub(crate) fn op_window(&self, actor: ActorId, gref: &GrantRef) -> Result<GrantRef, ProtError> {
        let data = {
            let entries = self.shard_of(gref.grant_id).lock();
            let e = entries.get(&gref.grant_id).ok_or(ProtError::GrantRevoked)?;
            if e.owner != actor || e.epoch != gref.epoch || e.dying {
                return Err(ProtError::GrantRevoked);
            }
            if gref.start.checked_add(gref.len).is_none_or(|end| end > e.data.len()) {
                return Err(ProtError::OutOfRange);
            }
            Arc::clone(&e.data)
        };
        let id = self.register(actor, data);
        Ok(GrantRef { grant_id: id, start: gref.start, len: gref.len, epoch: 1 })
    }

    /// Worker-side admission: full re-validation of `gref` as presented by
    /// the (untrusted) ring, returning a consistent snapshot of the
    /// granted buffer. Checks existence, ownership, epoch, and that the
    /// window fits the buffer. Runs on every dispatch — first send or
    /// client retry alike.
    ///
    /// A successful resolve **pins** the grant: the worker holds the pin
    /// across its media pass and must release it with [`Self::unpin`]
    /// after the post-pass epoch check. Revocation waits on that pin —
    /// the resolve→pass→unpin span is exactly the window a revoker is
    /// barred from completing in.
    pub fn resolve(&self, actor: ActorId, gref: &GrantRef) -> Result<Arc<[u8]>, ProtError> {
        let mut entries = self.shard_of(gref.grant_id).lock();
        let e = entries.get_mut(&gref.grant_id).ok_or(ProtError::GrantRevoked)?;
        if e.owner != actor || e.epoch != gref.epoch || e.dying {
            return Err(ProtError::GrantRevoked);
        }
        if gref.start.checked_add(gref.len).is_none_or(|end| end > e.data.len()) {
            return Err(ProtError::OutOfRange);
        }
        e.pins += 1;
        Ok(Arc::clone(&e.data))
    }

    /// Releases a pin taken by [`Self::resolve`]. Workers call this after
    /// the post-pass epoch check on every exit path — including simulated
    /// mid-pass deaths, where it models the controller reaping a dead
    /// worker's pins so a pending revocation can complete.
    pub(crate) fn unpin(&self, id: u64) {
        if let Some(e) = self.shard_of(id).lock().get_mut(&id) {
            e.pins = e.pins.saturating_sub(1);
        }
    }

    /// Post-pass re-check: is `gref` still the live epoch of a live grant?
    /// A worker that finds it is not reports [`ProtError::GrantRevoked`]
    /// even though its own (snapshot) pass completed — the submitter broke
    /// the contract mid-flight and must not believe the write succeeded.
    pub fn is_current(&self, gref: &GrantRef) -> bool {
        self.shard_of(gref.grant_id)
            .lock()
            .get(&gref.grant_id)
            .is_some_and(|e| e.epoch == gref.epoch && !e.dying)
    }

    /// Live grant count (tests / leak checks).
    pub fn live(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }
}

/// Compatibility entry points that take a plain byte slice. These sit
/// *outside* the zero-copy submit path (and outside its lint scope): they
/// materialize the payload into a **transient grant** — exactly one
/// accounted copy per op, shared untouched across every batch and retry —
/// and revoke it on the way out, success or not. Legacy
/// callers (the OdinFS baseline, hostile-endpoint tests, the LibFS's
/// unregistered-buffer fallback) keep their slice-based API; the fio hot
/// path uses registered buffers and never comes through here.
impl DelegationPool {
    /// Registers `data` as a one-op transient grant, counting the
    /// materialization against `payload_copies`.
    fn grant_transient(&self, actor: ActorId, data: &[u8]) -> GrantRef {
        self.stats().record_payload_copy();
        let shared: Arc<[u8]> = data.into();
        let len = shared.len();
        let id = self.grants().register(actor, shared);
        GrantRef { grant_id: id, start: 0, len, epoch: 1 }
    }

    /// Delegated write of an extent from a plain slice (unbounded wait).
    pub fn write_extent(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        data: &[u8],
    ) -> Result<(), ProtError> {
        let gref = self.grant_transient(actor, data);
        let r = self.write_extent_granted(actor, pages, start, gref);
        self.grants().revoke(actor, gref.grant_id);
        r
    }

    /// Deadline-bounded delegated write from a plain slice; the transient
    /// grant lives exactly as long as the op (retries included) and is
    /// revoked before any fallback-to-direct can run, so a late copy of a
    /// retried batch faults cleanly instead of re-reading a buffer the
    /// client has moved on from.
    pub fn try_write_extent(
        &self,
        actor: ActorId,
        pages: &[PageId],
        start: usize,
        data: &[u8],
        policy: &RetryPolicy,
    ) -> Result<(), DelegationError> {
        let gref = self.grant_transient(actor, data);
        let r = self.try_write_extent_granted(actor, pages, start, gref, policy);
        self.grants().revoke(actor, gref.grant_id);
        r
    }
}

use trio_nvm::PageId;

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> GrantTable {
        GrantTable::new(Arc::new(PathStats::new()))
    }

    #[test]
    fn register_window_resolve_roundtrip() {
        let t = table();
        let a = ActorId(1);
        let id = t.register(a, vec![7u8; 100].into());
        let gref = t.window(a, id, 10, 50).unwrap();
        assert_eq!(gref.epoch, 1);
        let data = t.resolve(a, &gref).unwrap();
        assert_eq!(&data[gref.start..gref.start + gref.len], &[7u8; 50][..]);
        assert!(t.is_current(&gref));
    }

    #[test]
    fn foreign_and_forged_grants_fault_cleanly() {
        let t = table();
        let id = t.register(ActorId(1), vec![0u8; 64].into());
        let gref = t.window(ActorId(1), id, 0, 64).unwrap();
        // Another actor presenting a stolen ref.
        assert_eq!(t.resolve(ActorId(2), &gref), Err(ProtError::GrantRevoked));
        // A forged id.
        let forged = GrantRef { grant_id: 999, start: 0, len: 8, epoch: 1 };
        assert_eq!(t.resolve(ActorId(2), &forged), Err(ProtError::GrantRevoked));
        // A window past the buffer end (overflow-safe).
        let oob = GrantRef { grant_id: id, start: usize::MAX, len: 2, epoch: 1 };
        assert_eq!(t.resolve(ActorId(1), &oob), Err(ProtError::OutOfRange));
    }

    #[test]
    fn update_bumps_epoch_and_kills_old_refs() {
        let t = table();
        let a = ActorId(3);
        let id = t.register(a, vec![1u8; 32].into());
        let old = t.window(a, id, 0, 32).unwrap();
        t.update(a, id, vec![2u8; 32].into()).unwrap();
        assert!(!t.is_current(&old));
        assert_eq!(t.resolve(a, &old), Err(ProtError::GrantRevoked));
        let fresh = t.window(a, id, 0, 32).unwrap();
        assert_eq!(fresh.epoch, 2);
        assert_eq!(t.resolve(a, &fresh).unwrap()[0], 2);
        // A foreign update is refused.
        assert_eq!(t.update(ActorId(4), id, vec![3u8; 8].into()), Err(ProtError::GrantRevoked));
    }

    #[test]
    fn revoke_is_a_barrier_against_pinned_passes() {
        let t = Arc::new(table());
        let a = ActorId(7);
        let id = t.register(a, vec![9u8; 16].into());
        let gref = t.window(a, id, 0, 16).unwrap();
        let _snap = t.resolve(a, &gref).unwrap(); // pins the grant
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (t2, done2) = (Arc::clone(&t), Arc::clone(&done));
        let h = std::thread::spawn(move || {
            assert!(t2.revoke(a, id), "the owner's revoke must land once drained");
            done2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(!done.load(Ordering::SeqCst), "revoke returned while a pass held a pin");
        // The dying grant is already dead to new arrivals.
        assert!(!t.is_current(&gref));
        assert_eq!(t.resolve(a, &gref), Err(ProtError::GrantRevoked));
        t.unpin(id);
        h.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        assert_eq!(t.live(), 0);
    }

    #[test]
    fn revoke_is_owner_checked_and_actor_wide() {
        let t = table();
        let a = ActorId(5);
        let id1 = t.register(a, vec![0u8; 8].into());
        let id2 = t.register(a, vec![0u8; 8].into());
        let other = t.register(ActorId(6), vec![0u8; 8].into());
        assert!(!t.revoke(ActorId(6), id1), "foreign revoke must not land");
        assert!(t.revoke(a, id1));
        assert!(!t.revoke(a, id1), "double revoke is a no-op");
        assert_eq!(t.revoke_actor(a), 1); // id2
        assert_eq!(t.live(), 1); // other actor's grant survives
        let _ = (id2, other);
    }
}
