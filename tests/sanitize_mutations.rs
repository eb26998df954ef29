//! Mutation tests for the persistence-order sanitizer (DESIGN.md §13).
//!
//! Each test replays the §4.4 two-step commit protocol (prepare a dirent
//! slot image, then publish the ino) against a tracked device,
//! once correctly and once with a single step deleted — the classic NVM
//! bug classes the sanitizer exists to catch. The mutants must each be
//! flagged with the expected diagnostic and a replayable `(seed, point)`
//! pair; the unmutated protocol must produce a report with zero hazards
//! (a positive assertion, not just the absence of a panic).

use std::sync::Arc;

use trio_nvm::{
    ActorId, DeviceConfig, HazardKind, NvmDevice, NvmHandle, PageId, PagePerm, SanitizeReport,
    Span,
};

/// Fixed seed: diagnostics must replay, so every run uses the same one.
const SEED: u64 = 0x5A17_AB1E;
const PAGE: PageId = PageId(3);
const SLOT_LEN: usize = 256; // dirent-sized: four cache lines

fn world() -> (Arc<NvmDevice>, NvmHandle) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        track_persistence: true, // the sanitizer rides the persist tracker
        ..DeviceConfig::small()
    }));
    let actor = ActorId(7);
    dev.mmu_map(actor, PAGE, PagePerm::Write).unwrap();
    let h = NvmHandle::new(Arc::clone(&dev), actor);
    (dev, h)
}

/// The §4.4 protocol with optional single-step mutations, returning the
/// run's sanitize report. `drop_flush` / `drop_fence` / `early_publish`
/// each delete or reorder exactly one persistence step.
fn run_protocol(drop_flush: bool, drop_fence: bool, early_publish: bool) -> SanitizeReport {
    let (dev, h) = world();
    let image = [0xABu8; SLOT_LEN];
    h.write_untimed(PAGE, 0, &image).unwrap();
    if early_publish {
        // Publish the commit word before the image it commits is durable.
        h.publish_u64_raw(PAGE, 0, 42, &[(PAGE, 0, SLOT_LEN)]).unwrap();
    } else {
        if !drop_flush {
            h.flush(PAGE, 0, SLOT_LEN);
        }
        if !drop_fence {
            h.fence();
        }
        h.publish_u64_raw(PAGE, 0, 42, &[(PAGE, 0, SLOT_LEN)]).unwrap();
    }
    dev.sanitize_quiesce_check();
    dev.take_sanitize_report(SEED)
}

#[test]
fn unmutated_protocol_is_report_clean() {
    let report = run_protocol(false, false, false);
    assert!(report.is_clean(), "expected a clean report, got: {report}");
    assert_eq!(report.seed, SEED);
    assert!(report.to_json().ends_with("\"hazards\": []\n}"));
}

#[test]
fn dropped_flush_mutant_is_caught() {
    let report = run_protocol(true, false, false);
    // The fence retires nothing (the image lines were never flushed), so
    // quiescence finds them still Dirty. Note the publish's own
    // write_u64_persist made its dependency check pass for line 0 — lines
    // 1..3 of the slot carry the diagnostic.
    let hz = report.of_kind(HazardKind::MissingFlush);
    assert!(!hz.is_empty(), "dropped flush must surface missing-flush, got: {report}");
    assert!(hz.iter().all(|h| h.page == PAGE.0), "hazards name the slot page: {report}");
}

#[test]
fn dropped_fence_mutant_is_caught() {
    let (dev, h) = world();
    let image = [0xCDu8; SLOT_LEN];
    h.write_untimed(PAGE, 0, &image).unwrap();
    // lint: allow(flush-fence) deliberate dropped-fence mutant under test
    h.flush(PAGE, 0, SLOT_LEN);
    // Mutation: no fence, and commit via a plain store (the atomic-persist
    // helper would fence as a side effect and mask the bug).
    h.write_untimed(PAGE, 0, &42u64.to_le_bytes()).unwrap();
    dev.sanitize_quiesce_check();
    let report = dev.take_sanitize_report(SEED);
    let hz = report.of_kind(HazardKind::MissingFence);
    assert!(!hz.is_empty(), "dropped fence must surface missing-fence, got: {report}");
    // The commit store also landed in a line staged for write-back.
    assert!(
        !report.of_kind(HazardKind::StoreWhileFlushed).is_empty(),
        "store into a flushed line must surface store-while-flushed, got: {report}"
    );
}

#[test]
fn publish_before_persist_mutant_is_caught() {
    let report = run_protocol(false, false, true);
    let hz = report.of_kind(HazardKind::PublishBeforePersist);
    assert!(!hz.is_empty(), "early publish must surface publish-before-persist, got: {report}");
    assert_eq!(hz[0].page, PAGE.0);
    // JSON round-trip shape for the CI artifact.
    assert!(report.to_json().contains("\"kind\": \"publish-before-persist\""));
}

#[test]
fn diagnostics_replay_deterministically() {
    let a = run_protocol(true, false, false);
    let b = run_protocol(true, false, false);
    assert!(!a.is_clean());
    assert_eq!(a, b, "same seed, same mutant => byte-identical report");
    // Every hazard carries a concrete (seed, point) replay pair.
    for h in &a.hazards {
        assert_eq!(a.seed, SEED);
        assert!(h.point > 0, "hazard should carry a persistence point: {h}");
    }
}

#[test]
fn typed_pipeline_is_report_clean() {
    // The typestate pipeline (DESIGN.md §18) emits the same store/flush/
    // fence sequence as the hand-ordered protocol, so the sanitizer — kept
    // as the runtime oracle for the typed API — must agree it is clean.
    let (dev, h) = world();
    let image = [0xABu8; SLOT_LEN];
    let dirty = h.write_dirty(PAGE, 0, &image).unwrap();
    let durable = h.fence_flushed(h.flush_dirty(dirty));
    h.publish_u64(PAGE, 0, 42, &durable).unwrap();
    dev.sanitize_quiesce_check();
    let report = dev.take_sanitize_report(SEED);
    assert!(report.is_clean(), "typed pipeline must satisfy the oracle, got: {report}");
}

#[test]
fn typed_api_redundant_flush_mutant_is_caught() {
    // The typestate lattice orders publish after persist but does not (and
    // cannot cheaply) prove two witnesses cover disjoint lines — a doubled
    // flush of the same staged span still type-checks and must therefore
    // remain a *runtime* catch. This pins the sanitizer-as-oracle division
    // of labour: the mutant compiles, the oracle flags it.
    let (dev, h) = world();
    let image = [0xEEu8; SLOT_LEN];
    let first = h.write_dirty(PAGE, 0, &image).unwrap();
    let _staged = h.flush_dirty(first);
    // Mutation: re-describe the same bytes as a fresh span set and flush
    // again before any fence retires the first write-back.
    let again = h.dirty_spans(vec![Span::new(PAGE, 0, SLOT_LEN)]);
    let durable = h.fence_flushed(h.flush_dirty(again));
    h.publish_u64(PAGE, 0, 42, &durable).unwrap();
    dev.sanitize_quiesce_check();
    let report = dev.take_sanitize_report(SEED);
    assert!(
        !report.of_kind(HazardKind::RedundantFlush).is_empty(),
        "double flush of staged lines must surface redundant-flush, got: {report}"
    );
}

/// Coverage matrix: every hazard class the sanitizer knows must be pinned
/// either by a compile-fail fixture feature (the typestate API rejects it
/// statically; `cargo xtask typestate-check` proves the rejection) or by a
/// runtime mutant in this file. A new `HazardKind` without a row here
/// fails the exhaustiveness match below.
#[test]
fn every_hazard_class_is_statically_rejected_or_runtime_caught() {
    let fixture = {
        let p = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates/xtask/fixtures/typestate-fixture/src/lib.rs");
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
    };
    let statically_rejected = |feature: &str| {
        assert!(
            fixture.contains(&format!("feature = \"{feature}\"")),
            "typestate fixture lost its {feature} compile-fail case"
        );
    };
    for kind in [
        HazardKind::MissingFlush,
        HazardKind::MissingFence,
        HazardKind::RedundantFlush,
        HazardKind::StoreWhileFlushed,
        HazardKind::PublishBeforePersist,
        HazardKind::ReadNotDurable,
    ] {
        match kind {
            // Unrepresentable in the typed API: tokens encode the ordering.
            HazardKind::MissingFlush => statically_rejected("hazard-missing-flush"),
            HazardKind::MissingFence => statically_rejected("hazard-missing-fence"),
            HazardKind::PublishBeforePersist => {
                statically_rejected("hazard-publish-before-persist")
            }
            // Representable in the typed API: the sanitizer stays the oracle.
            HazardKind::RedundantFlush => { /* typed_api_redundant_flush_mutant_is_caught */ }
            HazardKind::StoreWhileFlushed => { /* dropped_fence_mutant_is_caught */ }
            HazardKind::ReadNotDurable => { /* recovery_read_of_volatile_line_is_caught */ }
        }
    }
}

#[test]
fn recovery_read_of_volatile_line_is_caught() {
    let (dev, h) = world();
    h.write_untimed(PAGE, 0, &[1u8; 64]).unwrap();
    // A recovery scan consuming bytes that a crash would revert.
    dev.set_recovery_mode(true);
    let mut buf = [0u8; 8];
    h.read_untimed(PAGE, 0, &mut buf).unwrap();
    dev.set_recovery_mode(false);
    let report = dev.take_sanitize_report(SEED);
    assert!(
        !report.of_kind(HazardKind::ReadNotDurable).is_empty(),
        "recovery read of a volatile line must surface read-not-durable, got: {report}"
    );
}
