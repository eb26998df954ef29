//! The kernel's observability hooks (DESIGN.md §15).
//!
//! The kernel's delegation path calls these hooks unconditionally. Each is
//! written once: with recording compiled out of `trio-obs` every call
//! inlines to nothing, so the hot path carries no `trio_obs` symbol.

use trio_obs::{event, event_at, record_latency, trigger_dump, OpKind, Phase, Stage, Trigger};

#[inline]
fn kind(write: bool) -> OpKind {
    if write {
        OpKind::Write
    } else {
        OpKind::Read
    }
}

/// Op id of the span currently open on this (sim) thread, stamped
/// into `DelegReq`s so workers attribute their events to the op.
pub(crate) use trio_obs::current_op;

/// A node-batch entered its delegation ring (`aux` = run count).
#[inline]
pub(crate) fn ring_submit(op: u64, write: bool, node: usize, actor: u32, runs: u64) {
    event(op, kind(write), Stage::RingHop, Phase::Open, actor as u64, node as u32, runs);
}

/// The client received the reply for a node-batch.
#[inline]
pub(crate) fn ring_reply(op: u64, write: bool, node: usize, actor: u32, hop_ns: u64) {
    event(op, kind(write), Stage::RingHop, Phase::Close, actor as u64, node as u32, hop_ns);
    record_latency(kind(write), Stage::RingHop, hop_ns);
}

/// A delegation worker dequeued a request; returns the service start
/// time for the matching [`worker_end`].
#[inline]
pub(crate) fn worker_begin(op: u64, write: bool, node: usize, actor: u32) -> u64 {
    event(op, kind(write), Stage::WorkerService, Phase::Open, actor as u64, node as u32, 0);
    trio_obs::now_ns()
}

/// The worker sent its reply.
#[inline]
pub(crate) fn worker_end(op: u64, write: bool, node: usize, actor: u32, t0: u64) {
    let ns = trio_obs::now_ns().saturating_sub(t0);
    event(op, kind(write), Stage::WorkerService, Phase::Close, actor as u64, node as u32, ns);
    record_latency(kind(write), Stage::WorkerService, ns);
}

/// The worker is about to touch NVM extents; returns the transfer
/// start time for the matching [`transfer_end`].
#[inline]
pub(crate) fn transfer_begin() -> u64 {
    trio_obs::now_ns()
}

/// The worker finished its NVM extent accesses (`runs` = run count).
/// The open event is stamped with the start, `t0`, but written only now,
/// so a worker killed mid-transfer leaves no half span.
#[inline]
pub(crate) fn transfer_end(op: u64, write: bool, node: usize, actor: u32, runs: u64, t0: u64) {
    let ns = trio_obs::now_ns().saturating_sub(t0);
    let (actor, node) = (actor as u64, node as u32);
    event_at(t0, op, kind(write), Stage::NumaTransfer, Phase::Open, actor, node, runs);
    event(op, kind(write), Stage::NumaTransfer, Phase::Close, actor, node, ns);
    record_latency(kind(write), Stage::NumaTransfer, ns);
}

/// A whole delegated op missed its deadline budget.
#[inline]
pub(crate) fn timeout_dump() {
    trigger_dump(Trigger::DelegationTimeout);
}

/// The mapping path detected an integrity violation on `ino`.
#[inline]
pub(crate) fn violation_dump(ino: u64) {
    let op = trio_obs::current_op();
    event(op, OpKind::Verify, Stage::VerifierWalk, Phase::Close, 0, u32::MAX, ino);
    trigger_dump(Trigger::Violation);
}

/// A LibFS instance entered quarantine.
#[inline]
pub(crate) fn quarantine_dump(actor: u32) {
    let op = trio_obs::current_op();
    event(op, OpKind::Verify, Stage::VerifierWalk, Phase::Close, actor as u64, u32::MAX, 0);
    trigger_dump(Trigger::QuarantineEntry);
}

/// A bounded op is entering retry `attempt` (1-based) with a backoff
/// window of `window_ns`.
#[inline]
pub(crate) fn retry_decision(op: u64, write: bool, attempt: u32, window_ns: u64) {
    event(op, kind(write), Stage::Retry, Phase::Open, attempt as u64, u32::MAX, window_ns);
}

/// Mapper `waiter` starts waiting on `holder`'s write lease of `ino`
/// (DESIGN.md §21). With [`lease_wait_end`] this is a span whose
/// `actor` is who waits and whose `node` is who must yield.
#[inline]
pub(crate) fn lease_wait_begin(waiter: u32, holder: u32, ino: u64) {
    let op = trio_obs::current_op();
    event(op, OpKind::Harness, Stage::Retry, Phase::Open, waiter as u64, holder, ino);
}

/// The wait is over after `waited_ns`: the holder let go, or the
/// lease ran out.
#[inline]
pub(crate) fn lease_wait_end(waiter: u32, holder: u32, waited_ns: u64) {
    let op = trio_obs::current_op();
    event(op, OpKind::Harness, Stage::Retry, Phase::Close, waiter as u64, holder, waited_ns);
    record_latency(OpKind::Harness, Stage::Retry, waited_ns);
}

/// The watchdog reaped a dead delegation worker.
#[inline]
pub(crate) fn worker_death(node: usize, worker: u64) {
    event(0, OpKind::Harness, Stage::Failover, Phase::Open, worker, node as u32, 0);
}

/// The watchdog respawned a dead worker `recovery_ns` after its death.
#[inline]
pub(crate) fn worker_restart(node: usize, worker: u64, recovery_ns: u64) {
    event(0, OpKind::Harness, Stage::Failover, Phase::Close, worker, node as u32, recovery_ns);
    record_latency(OpKind::Harness, Stage::Failover, recovery_ns);
}

/// The pool entered degraded mode after `failures` consecutive
/// failures. Distinguished from worker deaths by `actor == u64::MAX`.
#[inline]
pub(crate) fn degraded_enter(failures: u64) {
    event(0, OpKind::Harness, Stage::Failover, Phase::Open, u64::MAX, u32::MAX, failures);
}

/// The pool left degraded mode.
#[inline]
pub(crate) fn degraded_exit() {
    event(0, OpKind::Harness, Stage::Failover, Phase::Close, u64::MAX, u32::MAX, 0);
}

/// A patrol-scrub pass started; returns its start time for the
/// matching [`scrub_pass_end`].
#[inline]
pub(crate) fn scrub_pass_begin() -> u64 {
    event(0, OpKind::Verify, Stage::Scrub, Phase::Open, 0, u32::MAX, 0);
    trio_obs::now_ns()
}

/// The pass finished after scanning `pages`, finding `faults` media
/// faults (poisoned lines + rotted pages).
#[inline]
pub(crate) fn scrub_pass_end(pages: u64, faults: u64, t0: u64) {
    let ns = trio_obs::now_ns().saturating_sub(t0);
    event(0, OpKind::Verify, Stage::Scrub, Phase::Close, faults, u32::MAX, pages);
    record_latency(OpKind::Verify, Stage::Scrub, ns);
}

/// A media repair started on `page`; returns the start time for the
/// matching [`repair_end`].
#[inline]
pub(crate) fn repair_begin(page: u64) -> u64 {
    event(0, OpKind::Verify, Stage::Repair, Phase::Open, page, u32::MAX, 0);
    trio_obs::now_ns()
}

/// The repair on `page` completed (`route` encodes the repair route:
/// 0 superblock twin, 1 journal twin, 2 file rollback, 3 scrub/reset,
/// 4 migration).
#[inline]
pub(crate) fn repair_end(page: u64, route: u64, t0: u64) {
    let ns = trio_obs::now_ns().saturating_sub(t0);
    event(0, OpKind::Verify, Stage::Repair, Phase::Close, page, u32::MAX, route);
    record_latency(OpKind::Verify, Stage::Repair, ns);
}
