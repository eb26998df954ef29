//! Compiler-checked persistence ordering (DESIGN.md §18).
//!
//! The §4.4 crash-consistency discipline — *prepare, persist, then
//! publish* — is a strict pipeline: stores dirty cache lines, `clwb`
//! stages them for write-back, `sfence` makes the staged lines durable,
//! and only then may a commit word that *depends* on those bytes go
//! live. The PR 3 sanitizer checks this dynamically, but only on paths a
//! test happens to drive. Following SquirrelFS (arXiv 2406.09649), this
//! module encodes the pipeline in the type system so the two hazard
//! classes the sanitizer most often catches — publish-before-persist and
//! missing-fence — are unrepresentable at compile time:
//!
//! ```text
//! write_dirty ─► Dirty<T> ─flush_dirty─► Flushed<T> ─fence_flushed─► Durable<T>
//!                                                                        │
//!                    publish_u64(page, off, v, &Durable<T>)  ◄────────────┘
//! ```
//!
//! * [`Dirty`] — bytes stored but not yet staged for write-back. Affine:
//!   the only way forward is [`crate::NvmHandle::flush_dirty`], which
//!   consumes it. `#[must_use]`: dropping one silently loses the proof
//!   obligation, so the compiler flags it.
//! * [`Flushed`] — staged by `clwb`, still not durable (write-backs may
//!   sit in the memory controller). Consumed by
//!   [`crate::NvmHandle::fence_flushed`].
//! * [`Durable`] — minted only at an `sfence`. The typed commit point
//!   [`crate::NvmHandle::publish_u64`] demands `&Durable<T>`, so a
//!   publish whose dependencies were never flushed or never fenced is a
//!   type error, not a runtime hazard.
//!
//! Tokens carry the byte ranges they witness via [`Spans`], so a tracked
//! device re-checks every typed publish against the per-cache-line
//! tracker: the runtime sanitizer stays the oracle that
//! the typestate encoding (and every `assume_durable` escape hatch) is
//! telling the truth. Token construction is private to `trio-nvm`;
//! outside code obtains them only from handle methods that perform the
//! matching hardware step, and clippy.toml disallows the untyped escape
//! hatches outside this crate (`raw-publish`).
//!
//! The types are cheap on the data path: a token is the range it
//! witnesses (or an empty marker for extent proofs), and a [`Flushed`]
//! one also carries the count of lines it staged; no heap, no `Drop`
//! impl. A pipeline method charges the same virtual time as the raw
//! `flush`/`fence` calls it replaces, but charges a range's `clwb`s at
//! the fence, with it, as one sim point (DESIGN.md §2).

#[cfg(debug_assertions)]
use trio_sim::Nanos;

use crate::topology::PageId;

/// One contiguous byte range `[off, off + len)` within a page — the unit
/// a persistence token witnesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Page holding the range.
    pub page: PageId,
    /// Byte offset within the page.
    pub off: usize,
    /// Length in bytes.
    pub len: usize,
}

impl Span {
    /// A span over `[off, off + len)` of `page`.
    pub fn new(page: PageId, off: usize, len: usize) -> Self {
        Span { page, off, len }
    }
}

/// Byte ranges a token witnesses, enumerable for the sanitizer's
/// publication-dependency check. Implemented for [`Span`], pairs (token
/// joins), and `Vec<Span>` (batched index updates).
pub trait Spans {
    /// Calls `f` once per witnessed `(page, off, len)` range.
    fn for_each(&self, f: &mut dyn FnMut(PageId, usize, usize));
}

impl Spans for Span {
    fn for_each(&self, f: &mut dyn FnMut(PageId, usize, usize)) {
        f(self.page, self.off, self.len)
    }
}

impl<A: Spans, B: Spans> Spans for (A, B) {
    fn for_each(&self, f: &mut dyn FnMut(PageId, usize, usize)) {
        self.0.for_each(f);
        self.1.for_each(f);
    }
}

impl<A: Spans> Spans for Option<A> {
    fn for_each(&self, f: &mut dyn FnMut(PageId, usize, usize)) {
        if let Some(a) = self {
            a.for_each(f)
        }
    }
}

impl Spans for Vec<Span> {
    fn for_each(&self, f: &mut dyn FnMut(PageId, usize, usize)) {
        for s in self {
            s.for_each(f)
        }
    }
}

/// Witness of a completed multi-page extent write
/// ([`crate::NvmHandle::write_extent`] / `write_extent_hashed`), which
/// stages each page for write-back and fences internally before
/// returning. Durability of the extent's bytes is established *by
/// construction* inside the call, so the proof enumerates no spans —
/// there is nothing left for the sanitizer to re-check — but the
/// `Durable<ExtentProof>` wrapper still lets later commit points demand
/// type-level evidence that the fence happened (e.g. a size publish after
/// a data write, or the delegation worker's acked-implies-durable reply
/// contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtentProof {
    bytes: usize,
}

impl ExtentProof {
    pub(crate) fn new(bytes: usize) -> Self {
        ExtentProof { bytes }
    }

    /// Bytes the fenced extent write covered.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl Spans for ExtentProof {
    fn for_each(&self, _f: &mut dyn FnMut(PageId, usize, usize)) {}
}

/// Bytes stored but not yet staged for write-back. A crash now reverts
/// them. Consume with [`crate::NvmHandle::flush_dirty`] (or
/// [`crate::NvmHandle::persist_dirty`] for flush + fence in one step).
#[must_use = "a Dirty token is a pending proof obligation: flush it (flush_dirty) \
              or the stored bytes may never become durable (hazard: missing-flush)"]
#[derive(Debug, PartialEq, Eq)]
pub struct Dirty<T>(T);

/// Bytes staged by `clwb` but not yet retired by `sfence`. A crash now
/// may or may not keep them. Consume with
/// [`crate::NvmHandle::fence_flushed`], which charges the staged lines'
/// `clwb`s together with the fence.
#[must_use = "a Flushed token is a pending proof obligation: fence it \
              (fence_flushed) or the staged lines may never become durable \
              (hazard: missing-fence)"]
#[derive(Debug, PartialEq, Eq)]
pub struct Flushed<T> {
    spans: T,
    /// Cache lines staged, still to be charged at the fence.
    lines: u64,
    /// Virtual time at staging: the fence checks that no sim point ran
    /// since, which is what makes its deferred `clwb` charge exact.
    #[cfg(debug_assertions)]
    staged_at: Nanos,
}

/// Witness that the carried ranges were flushed and then retired by an
/// `sfence`: the bytes survive any later crash. The typed commit point
/// [`crate::NvmHandle::publish_u64`] accepts only this.
#[derive(Debug, PartialEq, Eq)]
pub struct Durable<T>(T);

impl<T> Dirty<T> {
    pub(crate) fn new(t: T) -> Self {
        Dirty(t)
    }

    pub(crate) fn into_inner(self) -> T {
        self.0
    }

    /// Joins two dirty tokens: flush the pair with one `flush_dirty`.
    pub fn and<U>(self, other: Dirty<U>) -> Dirty<(T, U)> {
        Dirty((self.0, other.0))
    }

    /// [`Self::and`] with a token that a path may not have (a store it
    /// made only on some branch).
    pub fn and_some<U>(self, other: Option<Dirty<U>>) -> Dirty<(T, Option<U>)> {
        Dirty((self.0, other.map(|d| d.0)))
    }
}

impl<T> Flushed<T> {
    pub(crate) fn new(spans: T, lines: u64) -> Self {
        Flushed {
            spans,
            lines,
            #[cfg(debug_assertions)]
            staged_at: trio_sim::now_or_zero(),
        }
    }

    /// The witnessed ranges and the number of cache lines staged for them.
    pub(crate) fn into_parts(self) -> (T, u64) {
        (self.spans, self.lines)
    }

    /// When the earliest of the carried ranges was staged.
    #[cfg(debug_assertions)]
    pub(crate) fn staged_at(&self) -> Nanos {
        self.staged_at
    }

    /// Joins two flushed tokens: one fence retires both and charges the
    /// lines of both.
    pub fn and<U>(self, other: Flushed<U>) -> Flushed<(T, U)> {
        Flushed {
            spans: (self.spans, other.spans),
            lines: self.lines + other.lines,
            #[cfg(debug_assertions)]
            staged_at: self.staged_at.min(other.staged_at),
        }
    }
}

impl<T> Durable<T> {
    pub(crate) fn new(t: T) -> Self {
        Durable(t)
    }

    /// The witnessed ranges (read-only: durability is permanent, so the
    /// witness is freely reusable across many publishes).
    pub fn witness(&self) -> &T {
        &self.0
    }

    /// Joins two durability witnesses into one (for a publish that
    /// depends on separately fenced ranges).
    pub fn and<U>(self, other: Durable<U>) -> Durable<(T, U)> {
        Durable((self.0, other.0))
    }
}

impl<A, B> Durable<(A, B)> {
    /// The two witnesses one fence retired together: each half is as
    /// durable as the pair. A commit word that depends on one half alone
    /// is checked against that half only, so a store since the fence into
    /// a line of the other half (an arm word rewriting its record's line
    /// 0) is not mistaken for a dependency gone volatile.
    pub fn split(self) -> (Durable<A>, Durable<B>) {
        (Durable(self.0 .0), Durable(self.0 .1))
    }
}

impl<A> Durable<Option<A>> {
    /// The witness of a store a path may not have made.
    pub fn transpose(self) -> Option<Durable<A>> {
        self.0.map(Durable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_enumerate_joins() {
        let a = Span::new(PageId(1), 0, 64);
        let b = Span::new(PageId(2), 128, 8);
        let pair = (a, b);
        let mut seen = Vec::new();
        pair.for_each(&mut |p, o, l| seen.push((p, o, l)));
        assert_eq!(seen, vec![(PageId(1), 0, 64), (PageId(2), 128, 8)]);
    }

    #[test]
    fn extent_proof_is_empty_but_counts_bytes() {
        let p = ExtentProof::new(4096);
        assert_eq!(p.bytes(), 4096);
        let mut n = 0;
        p.for_each(&mut |_, _, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn vec_spans_enumerate_in_order() {
        let v = vec![Span::new(PageId(3), 0, 8), Span::new(PageId(3), 8, 8)];
        let mut seen = Vec::new();
        v.for_each(&mut |p, o, l| seen.push((p, o, l)));
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[1], (PageId(3), 8, 8));
    }
}
