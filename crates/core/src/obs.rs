//! The LibFS's observability hooks (DESIGN.md §15).
//!
//! The syscall layer opens one span per `pread`/`pwrite`; the span
//! installs its op id as the thread-current op so the kernel ring and
//! the delegation workers stamp their events with it, and the guard's
//! `Drop` closes the span on every exit path. Each hook is written once:
//! with recording compiled out of `trio-obs` every call below inlines to
//! nothing.

use trio_obs::{event, record_latency, trigger_dump, OpKind, Phase, Stage, Trigger};

#[inline]
fn kind(write: bool) -> OpKind {
    if write {
        OpKind::Write
    } else {
        OpKind::Read
    }
}

/// Open syscall-stage span; closes (and restores the previously
/// current op, so nested ops compose) when dropped.
pub(crate) struct SyscallSpan {
    op: u64,
    prev: u64,
    t0: u64,
    write: bool,
    actor: u32,
}

/// Opens a syscall span for one `pread`/`pwrite` (`bytes` = request
/// length, recorded as the open event's aux word).
#[inline]
pub(crate) fn syscall_span(write: bool, actor: u32, bytes: u64) -> SyscallSpan {
    let op = trio_obs::next_op_id();
    let prev = trio_obs::set_current_op(op);
    event(op, kind(write), Stage::Syscall, Phase::Open, actor as u64, u32::MAX, bytes);
    SyscallSpan { op, prev, t0: trio_obs::now_ns(), write, actor }
}

impl Drop for SyscallSpan {
    #[inline]
    fn drop(&mut self) {
        let ns = trio_obs::now_ns().saturating_sub(self.t0);
        let (op_kind, actor) = (kind(self.write), self.actor as u64);
        event(self.op, op_kind, Stage::Syscall, Phase::Close, actor, u32::MAX, ns);
        record_latency(op_kind, Stage::Syscall, ns);
        trio_obs::set_current_op(self.prev);
    }
}

/// A whole op abandoned delegation and fell back to direct access.
#[inline]
pub(crate) fn fallback_dump() {
    trigger_dump(Trigger::DelegationFallback);
}

/// The page pool hit allocator exhaustion and is backing off before
/// re-requesting a (smaller) refill.
#[inline]
pub(crate) fn refill_retry(attempt: u32, window_ns: u64) {
    let op = trio_obs::current_op();
    event(op, OpKind::Harness, Stage::Retry, Phase::Open, attempt as u64, u32::MAX, window_ns);
}
