//! Compile-fail fixture for the typestate persist pipeline (DESIGN.md
//! §18). `cargo xtask typestate-check` checks this crate once with no
//! features — the well-typed §4.4 protocol must compile — and once per
//! `hazard-*` feature, each of which encodes one persistence-ordering bug
//! class and must be rejected by the type checker (E0308). Together the
//! runs pin the tentpole claim: publish-before-persist, missing-flush and
//! missing-fence are not merely caught at runtime by the sanitizer, they
//! are unrepresentable in the typed API.

use trio_nvm::{NvmHandle, PageId, ProtError};

/// The well-typed §4.4 two-step commit: store → flush → fence → publish.
/// Always compiled; the no-feature `cargo check` run pins that the typed
/// pipeline imposes no extra ceremony on correct code.
pub fn well_typed_commit(h: &NvmHandle) -> Result<(), ProtError> {
    let dirty = h.write_dirty(PageId(3), 0, &[0xAB; 256])?;
    let flushed = h.flush_dirty(dirty);
    let durable = h.fence_flushed(flushed);
    h.publish_u64(PageId(3), 0, 42, &durable)
}

/// Joined witnesses: several stores, one flush each, one shared fence —
/// the rename-journal shape. Also always compiled.
pub fn well_typed_joined_commit(h: &NvmHandle) -> Result<(), ProtError> {
    let a = h.flush_dirty(h.write_dirty(PageId(3), 64, &[1u8; 64])?);
    let b = h.flush_dirty(h.store_u64_dirty(PageId(3), 0, 7)?);
    let both = h.fence_flushed(a.and(b));
    h.publish_u64(PageId(3), 8, 1, &both)
}

/// Several stores retired by one fence, one of them a commit word staged
/// against a witness fenced before it — the metadata ops' epoch shape
/// (DESIGN.md §18 "Epochs"). Also always compiled.
pub fn well_typed_staged_commit(h: &NvmHandle) -> Result<(), ProtError> {
    let prepared = h.persist_dirty(h.write_dirty(PageId(3), 0, &[0xAB; 256])?);
    let commit = h.stage_publish_u64(PageId(3), 0, 42, &prepared)?;
    let line = h.store_u64_dirty(PageId(4), 16, 1)?;
    let _retired = h.persist_dirty(commit.and(line));
    Ok(())
}

/// Hazard class 1: the commit word goes live against bytes that were
/// never persisted at all. The runtime sanitizer calls this
/// `publish-before-persist`; here the `Dirty` token simply is not a
/// `Durable` witness, so the publish must not type-check.
#[cfg(feature = "hazard-publish-before-persist")]
pub fn publish_before_persist(h: &NvmHandle) -> Result<(), ProtError> {
    let dirty = h.write_dirty(PageId(3), 0, &[0xAB; 256])?;
    h.publish_u64(PageId(3), 0, 42, &dirty) // E0308: Dirty is not Durable
}

/// Hazard class 2: flushed but never fenced — the write-backs may still
/// sit in the memory controller when the commit word lands. The runtime
/// sanitizer calls this `missing-fence`; here `Flushed` is not `Durable`.
#[cfg(feature = "hazard-missing-fence")]
pub fn missing_fence(h: &NvmHandle) -> Result<(), ProtError> {
    let dirty = h.write_dirty(PageId(3), 0, &[0xAB; 256])?;
    let flushed = h.flush_dirty(dirty);
    h.publish_u64(PageId(3), 0, 42, &flushed) // E0308: Flushed is not Durable
}

/// Hazard class 3: fencing without flushing — the fence retires nothing
/// because the lines were never staged. The runtime sanitizer calls this
/// `missing-flush`; here `fence_flushed` only accepts `Flushed`, so
/// skipping the flush step must not type-check.
#[cfg(feature = "hazard-missing-flush")]
pub fn missing_flush(h: &NvmHandle) -> Result<(), ProtError> {
    let dirty = h.write_dirty(PageId(3), 0, &[0xAB; 256])?;
    let durable = h.fence_flushed(dirty); // E0308: Dirty is not Flushed
    h.publish_u64(PageId(3), 0, 42, &durable)
}

/// Hazard class 1, staged: a commit word joined into a fence with the
/// bytes it commits, instead of after their own. Its store would land
/// before they are durable — `publish-before-persist` — so staging it
/// against the `Dirty` token must not type-check either.
#[cfg(feature = "hazard-stage-before-persist")]
pub fn stage_before_persist(h: &NvmHandle) -> Result<(), ProtError> {
    let dirty = h.write_dirty(PageId(3), 0, &[0xAB; 256])?;
    let commit = h.stage_publish_u64(PageId(3), 0, 42, &dirty)?; // E0308: Dirty is not Durable
    let _retired = h.persist_dirty(dirty.and(commit));
    Ok(())
}
