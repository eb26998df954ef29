//! Compile-fail fixture for the typestate persist pipeline (DESIGN.md
//! §18). `cargo xtask typestate-check` checks this crate once with no
//! features — the well-typed §4.4 protocol must compile — and once with
//! the `hazard-publish-before-persist` feature, which encodes the one
//! persistence-ordering bug class the typed API can still be asked to
//! write and must be rejected by the type checker (E0308). Together the
//! runs pin the claim: publish-before-persist is not merely caught at
//! runtime by the sanitizer, it is unrepresentable in the typed API. A
//! flush or fence left out has no typed spelling at all: `persist_dirty`,
//! the one way from `Dirty` to `Durable`, flushes and fences in one step.

use trio_nvm::{NvmHandle, PageId, ProtError};

/// The well-typed §4.4 two-step commit: store → persist → commit word →
/// persist. Always compiled; the no-feature `cargo check` run pins that
/// the typed pipeline imposes no extra ceremony on correct code.
pub fn well_typed_commit(h: &NvmHandle) -> Result<(), ProtError> {
    let prepared = h.persist_dirty(h.write_dirty(PageId(3), 0, &[0xAB; 256])?);
    let _committed = h.persist_dirty(h.stage_publish_u64(PageId(3), 0, 42, &prepared)?);
    Ok(())
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

/// The hazard class: a commit word joined into a fence with the bytes it
/// commits, instead of after their own. Its store would land before they
/// are durable — the runtime sanitizer calls this
/// `publish-before-persist` — so staging it against the `Dirty` token
/// must not type-check.
#[cfg(feature = "hazard-publish-before-persist")]
pub fn publish_before_persist(h: &NvmHandle) -> Result<(), ProtError> {
    let dirty = h.write_dirty(PageId(3), 0, &[0xAB; 256])?;
    let commit = h.stage_publish_u64(PageId(3), 0, 42, &dirty)?; // E0308: Dirty is not Durable
    let _retired = h.persist_dirty(dirty.and(commit));
    Ok(())
}
