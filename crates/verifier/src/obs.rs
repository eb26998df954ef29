//! The verifier's observability hook (DESIGN.md §15).
//!
//! One span per `Verifier::verify` walk. The walk inherits the op id of
//! whatever syscall span is current on this thread (verifier walks run
//! on the mapping path, inside the kernel's handling of a LibFS op); if
//! none is open it draws its own id so standalone walks still trace.
//! With recording compiled out of `trio-obs` the span inlines to nothing.

use trio_obs::{event, record_latency, OpKind, Phase, Stage};

/// Open verifier-walk span; closes when dropped, covering every exit
/// path of `verify` including early rejection.
pub(crate) struct WalkSpan {
    op: u64,
    t0: u64,
    actor: u32,
    ino: u64,
}

/// Opens a span for one verification walk of `ino`, dirtied by
/// `actor`.
#[inline]
pub(crate) fn walk_span(ino: u64, actor: u32) -> WalkSpan {
    let mut op = trio_obs::current_op();
    if op == 0 {
        op = trio_obs::next_op_id();
    }
    event(op, OpKind::Verify, Stage::VerifierWalk, Phase::Open, actor as u64, u32::MAX, ino);
    WalkSpan { op, t0: trio_obs::now_ns(), actor, ino }
}

impl Drop for WalkSpan {
    #[inline]
    fn drop(&mut self) {
        let ns = trio_obs::now_ns().saturating_sub(self.t0);
        let (op, actor) = (self.op, self.actor as u64);
        event(op, OpKind::Verify, Stage::VerifierWalk, Phase::Close, actor, u32::MAX, self.ino);
        record_latency(OpKind::Verify, Stage::VerifierWalk, ns);
    }
}
