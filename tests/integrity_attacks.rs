//! End-to-end metadata-integrity tests (paper §6.5): the eleven
//! handcrafted malicious-LibFS attacks, plus scripted random corruption
//! sweeps emulating buggy LibFSes. Every scenario must be *detected* on
//! the next cross-LibFS map and leave the victim with a consistent
//! (rolled-back) view.

#![allow(clippy::disallowed_methods, reason = "an attacking LibFS persists through the raw API")]

use std::sync::Arc;

use arckfs::attack::{run_attack, Attack, ALL_ATTACKS};
use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::{read_file, write_file, FileSystem, Mode, OpenFlags};
use trio_kernel::registry::KernelEvent;
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{DeviceConfig, NvmDevice, Topology};
use trio_sim::plock::Mutex;
use trio_sim::SimRuntime;

struct AttackWorld {
    kernel: Arc<KernelController>,
    evil: Arc<ArckFs>,
    victim: Arc<ArckFs>,
}

fn world() -> AttackWorld {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(dev, KernelConfig::default());
    let evil = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let victim = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    AttackWorld { kernel, evil, victim }
}

/// Builds the standard victim tree, hands it over once (clean verify),
/// then re-acquires write grants for the attacker (checkpointing the
/// clean state).
fn stage(w: &AttackWorld) {
    let evil = &w.evil;
    evil.mkdir("/dir", Mode(0o777)).unwrap();
    evil.mkdir("/dir/victim-sub", Mode(0o777)).unwrap();
    evil.create("/dir/victim-sub/inner", Mode(0o666)).unwrap();
    write_file(&**evil, "/dir/victim", &vec![7u8; 64 * 1024]).unwrap();
    evil.release_path("/dir").unwrap();
    let _ = w.victim.readdir("/dir").unwrap();
    let _ = read_file(&*w.victim, "/dir/victim").unwrap();
    let fd = evil.open("/dir/victim", OpenFlags::RDWR, Mode(0o666)).unwrap();
    evil.pwrite(fd, 0, &[7u8]).unwrap();
    evil.close(fd).unwrap();
    evil.create("/dir/warmup", Mode(0o666)).unwrap();
    evil.unlink("/dir/warmup").unwrap();
}

fn victim_remaps(w: &AttackWorld) -> Vec<KernelEvent> {
    let _ = w.evil.release_path("/dir/victim");
    let _ = w.evil.release_path("/dir");
    let _ = w.kernel.take_events();
    let _ = w.victim.readdir("/dir");
    let _ = read_file(&*w.victim, "/dir/victim");
    let _ = w.victim.stat("/dir/victim-sub");
    w.kernel.take_events()
}

#[test]
fn all_eleven_attacks_detected_and_recovered() {
    for attack in ALL_ATTACKS {
        let w = world();
        let rt = SimRuntime::new(99);
        let detected = Arc::new(Mutex::new((false, false)));
        let d2 = Arc::clone(&detected);
        let w = Arc::new(w);
        let w2 = Arc::clone(&w);
        rt.spawn("attack", move || {
            stage(&w2);
            let target = if attack == Attack::RemoveNonEmptyDir { "victim-sub" } else { "victim" };
            run_attack(&w2.evil, attack, "/dir", target).unwrap();
            let events = victim_remaps(&w2);
            let det = events.iter().any(|e| matches!(e, KernelEvent::CorruptionDetected { .. }));
            let rec = events.iter().any(|e| matches!(e, KernelEvent::RolledBack { .. }));
            *d2.lock() = (det, rec);
        });
        rt.run();
        let (det, rec) = *detected.lock();
        assert!(det, "{attack:?} must be detected");
        assert!(rec, "{attack:?} must be rolled back");
    }
}

#[test]
fn victim_sees_consistent_state_after_every_attack() {
    for attack in ALL_ATTACKS {
        let w = Arc::new(world());
        let rt = SimRuntime::new(7);
        let w2 = Arc::clone(&w);
        rt.spawn("attack", move || {
            stage(&w2);
            let target = if attack == Attack::RemoveNonEmptyDir { "victim-sub" } else { "victim" };
            run_attack(&w2.evil, attack, "/dir", target).unwrap();
            let _ = victim_remaps(&w2);
            // Whatever happened, the victim's view must now be walkable and
            // internally consistent: readdir agrees with per-entry stat.
            let entries = w2.victim.readdir("/dir").unwrap();
            for e in &entries {
                let p = format!("/dir/{}", e.name);
                let st = w2.victim.stat(&p).unwrap_or_else(|err| {
                    panic!("{attack:?}: stat({p}) failed after recovery: {err}")
                });
                assert_eq!(st.ino, e.ino, "{attack:?}: ino consistent for {p}");
            }
            // No duplicate names survive.
            let mut names: Vec<&String> = entries.iter().map(|e| &e.name).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), entries.len(), "{attack:?}: duplicate names persisted");
            // A readable victim file (if it survived) reads without error.
            if entries.iter().any(|e| e.name == "victim") {
                let _ = read_file(&*w2.victim, "/dir/victim").unwrap();
            }
        });
        rt.run();
    }
}

/// Every handcrafted attack must also drive the quarantine lifecycle end
/// to end: the offender is quarantined (mappings revoked, taint recorded),
/// background repair runs, and the offender is re-admitted — after which
/// the victim's view is consistent and nothing is left quarantined.
#[test]
fn all_eleven_attacks_quarantine_repair_and_readmit() {
    for attack in ALL_ATTACKS {
        let w = Arc::new(world());
        let rt = SimRuntime::new(41);
        let w2 = Arc::clone(&w);
        rt.spawn("attack", move || {
            let evil_actor = w2.evil.actor();
            stage(&w2);
            let target = if attack == Attack::RemoveNonEmptyDir { "victim-sub" } else { "victim" };
            run_attack(&w2.evil, attack, "/dir", target).unwrap();
            let events = victim_remaps(&w2);
            let quarantined = events
                .iter()
                .any(|e| matches!(e, KernelEvent::Quarantined { actor, .. } if *actor == evil_actor));
            let readmitted = events
                .iter()
                .any(|e| matches!(e, KernelEvent::Readmitted { actor } if *actor == evil_actor));
            assert!(quarantined, "{attack:?}: offender must be quarantined");
            assert!(readmitted, "{attack:?}: offender must be repaired and re-admitted");
            assert!(
                w2.kernel.quarantined_actors().is_empty(),
                "{attack:?}: no actor may remain quarantined after repair"
            );
            // Re-admission is real: the offender can operate again...
            w2.evil.create("/dir/after-readmit", Mode(0o666)).unwrap();
            w2.evil.unlink("/dir/after-readmit").unwrap();
            let _ = w2.evil.release_path("/dir");
            // ...and the victim's view stayed consistent throughout.
            let entries = w2.victim.readdir("/dir").unwrap();
            for e in &entries {
                let st = w2.victim.stat(&format!("/dir/{}", e.name)).unwrap();
                assert_eq!(st.ino, e.ino, "{attack:?}: ino consistent after re-admission");
            }
        });
        rt.run();
    }
}

/// Scripted corruption sweeps (the paper's automated buggy-LibFS scripts;
/// §6.5 reports 134 scenarios in total — here 8 offsets × 16 seeds = 128
/// random single-word corruptions of the directory page plus the 11
/// handcrafted attacks elsewhere in this file).
#[test]
fn random_corruption_sweep_never_reaches_the_victim_unvetted() {
    let mut detected_count = 0;
    let mut harmless_count = 0;
    for seed in 0..16u64 {
        for word in 0..8usize {
            let w = Arc::new(world());
            let rt = SimRuntime::new(seed);
            let w2 = Arc::clone(&w);
            let out = Arc::new(Mutex::new(false));
            let out2 = Arc::clone(&out);
            rt.spawn("fuzz", move || {
                stage(&w2);
                // Corrupt one 8-byte word of the victim's dirent slot with
                // a seed-derived value (a "buggy LibFS" scribble).
                let (dir_loc, _, dir_data) = w2.evil.debug_file_pages("/dir").unwrap();
                let _ = dir_loc;
                let (vic_loc, _, _) = w2.evil.debug_file_pages("/dir/victim").unwrap();
                let vic_loc = vic_loc.unwrap();
                let garbage = (seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (word as u64) << 48;
                let off = vic_loc.byte_off() + word * 8;
                w2.evil
                    .handle()
                    .write_untimed(vic_loc.page, off, &garbage.to_le_bytes())
                    .unwrap();
                w2.evil.handle().flush(vic_loc.page, off, 8);
                w2.evil.handle().fence();
                let _ = dir_data;
                let events = victim_remaps(&w2);
                *out2.lock() =
                    events.iter().any(|e| matches!(e, KernelEvent::CorruptionDetected { .. }));
                // Consistency must hold either way.
                let entries = w2.victim.readdir("/dir").unwrap();
                for e in &entries {
                    let _ = w2.victim.stat(&format!("/dir/{}", e.name));
                }
            });
            rt.run();
            if *out.lock() {
                detected_count += 1;
            } else {
                harmless_count += 1;
            }
        }
    }
    // Most random scribbles over (ino, first_index, size, attr, owner,
    // name) corrupt something detectable; a few land on reserved bytes or
    // happen to encode valid values — those must simply be harmless.
    assert!(
        detected_count >= 64,
        "expected most corruptions detected: {detected_count} detected, {harmless_count} harmless"
    );
}

/// The ghost-dirent script (§3.2: a write grant on a file maps the page of
/// its *parent* that holds its dirent writable). `evil` ends up with read
/// grants on `/` and `/dir` and the write grant on `/dir/a` alone, and
/// through it stores a fabricated entry — an ino nobody allocated — in a free
/// slot of `/dir`'s page. Returns `/dir`'s ino.
fn plant_ghost(w: &AttackWorld) -> u64 {
    use trio_layout::{CoreFileType, DirPage, DirentData, DirentRef};
    let evil = &w.evil;
    evil.mkdir("/dir", Mode(0o777)).unwrap();
    evil.create("/dir/a", Mode(0o666)).unwrap();
    evil.release_path("/dir").unwrap();
    evil.release_path("/").unwrap();
    // The hand-over: `/dir` is verified clean and checkpointed.
    assert_eq!(w.victim.readdir("/dir").unwrap().len(), 1);
    w.victim.release_path("/dir").unwrap();
    let fd = evil.open("/dir/a", OpenFlags::RDWR, Mode(0o666)).unwrap();
    evil.pwrite(fd, 0, b"mine").unwrap();
    evil.close(fd).unwrap();
    let dir_ino = evil.stat("/dir").unwrap().ino;
    assert_eq!(w.kernel.writer_of(dir_ino), None, "no write grant on the directory itself");
    let page = evil.debug_file_pages("/dir/a").unwrap().0.unwrap().page;
    let slot = DirPage::load(evil.handle(), page).unwrap().first_free().unwrap();
    let ghost = DirentData::new(b"ghost", CoreFileType::Regular, Mode::RW, 1000, 1000);
    let r = DirentRef::new(evil.handle(), slot);
    let prepared = r.prepare(&ghost).expect("the page is writable under the grant on `/dir/a`");
    r.publish(987_654_321, &prepared).unwrap();
    let _ = w.kernel.take_events();
    dir_ino
}

/// Whichever way the write grant on `/dir/a` ended, `/dir` must have been
/// vetted: the ghost detected, `/dir` rolled back, and nobody shown it.
fn assert_ghost_busted(events: &[KernelEvent], dir_ino: u64, reader: &ArckFs) {
    assert!(
        events.contains(&KernelEvent::RolledBack { ino: dir_ino })
            && events
                .iter()
                .any(|e| matches!(e, KernelEvent::CorruptionDetected { ino, .. } if *ino == dir_ino)),
        "the parent of a write-held file stays unverified until verified: {events:?}"
    );
    let names: Vec<String> = reader.readdir("/dir").unwrap().into_iter().map(|e| e.name).collect();
    assert_eq!(names, ["a"]);
}

#[test]
fn ghost_dirent_is_caught_when_the_grant_ends_by_unmount() {
    let w = Arc::new(world());
    let rt = SimRuntime::new(11);
    let w2 = Arc::clone(&w);
    rt.spawn("attack", move || {
        let dir_ino = plant_ghost(&w2);
        w2.evil.unmount();
        let events = w2.kernel.take_events();
        let fresh =
            ArckFs::mount(Arc::clone(&w2.kernel), 1000, 1000, ArckFsConfig::no_delegation());
        assert_ghost_busted(&events, dir_ino, &fresh);
    });
    rt.run();
}

#[test]
fn ghost_dirent_is_caught_when_the_grant_ends_by_quarantine() {
    let w = Arc::new(world());
    let rt = SimRuntime::new(12);
    let w2 = Arc::clone(&w);
    rt.spawn("attack", move || {
        let (evil, victim) = (&w2.evil, &w2.victim);
        write_file(&**evil, "/loud", &[7u8; 4096]).unwrap();
        evil.release_path("/loud").unwrap();
        assert_eq!(read_file(&**victim, "/loud").unwrap().len(), 4096);
        let dir_ino = plant_ghost(&w2);
        // A second, loud corruption elsewhere: `/loud`'s chain head points
        // off the device. The victim's map detects it and `evil` is
        // quarantined, which ends its grant on `/dir/a` — and re-admitted.
        let fd = evil.open("/loud", OpenFlags::RDWR, Mode(0o666)).unwrap();
        evil.pwrite(fd, 0, &[8u8]).unwrap();
        evil.close(fd).unwrap();
        let loud = evil.debug_file_pages("/loud").unwrap().0.unwrap();
        trio_layout::DirentRef::new(evil.handle(), loud).set_first_index(u64::MAX / 2).unwrap();
        evil.release_path("/loud").unwrap();
        let _ = read_file(&**victim, "/loud");
        let events = w2.kernel.take_events();
        let evil_actor = evil.actor();
        assert!(
            events.contains(&KernelEvent::Readmitted { actor: evil_actor }),
            "quarantined and repaired: {events:?}"
        );
        assert_ghost_busted(&events, dir_ino, victim);
    });
    rt.run();
}

#[test]
fn unmapped_pages_are_unreachable_to_attackers() {
    let w = Arc::new(world());
    let rt = SimRuntime::new(5);
    let w2 = Arc::clone(&w);
    rt.spawn("probe", move || {
        // Victim creates a private file the attacker never mapped.
        write_file(&*w2.victim, "/private", b"secret").unwrap();
        let (loc, _, data) = w2.victim.debug_file_pages("/private").unwrap();
        let page = data[0].unwrap();
        // The attacker's raw handle faults on both read and write.
        let mut buf = [0u8; 8];
        assert!(w2.evil.handle().read_untimed(page, 0, &mut buf).is_err());
        assert!(w2.evil.handle().write_untimed(page, 0, b"gotcha!!").is_err());
        let loc = loc.unwrap();
        assert!(w2.evil.handle().write_untimed(loc.page, loc.byte_off(), b"overwrt!").is_err());
    });
    rt.run();
}

/// Silent bit rot under a checksummed delegated extent (DESIGN.md §17).
///
/// Delegation workers record a streaming per-page digest in the page
/// sidecar atomically with the store; `corrupt_for_test` then flips one
/// data bit *without* touching the sidecar — the exact failure mode no
/// metadata invariant can see. The next verifier walk must catch it as
/// `data_checksum_mismatch` (Reject class: there is no field-level ground
/// truth to scrub rotten bytes back from), roll the file back to its
/// checkpoint, and hand the victim the checkpointed bytes, not the rot.
#[test]
fn silent_bit_rot_under_checksummed_extent_rejects_on_next_walk() {
    use trio_nvm::PageId;
    use trio_verifier::VIOLATION_KINDS;

    let dev = Arc::new(trio_nvm::NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    // Delegation stays ON: only delegated writes go through
    // `write_extent_hashed`, so this world is the one where sidecars exist.
    let evil = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::default());
    let victim = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::default());

    let rt = SimRuntime::new(0xB17_0707);
    let k = Arc::clone(&kernel);
    rt.spawn("bit-rot", move || {
        k.delegation().start();
        let checkpoint_img = vec![0x7Au8; 256 * 1024];

        // Round 1: delegated write, handover, clean victim map. This both
        // establishes the rollback checkpoint and proves intact sidecars
        // verify clean (the checksum walk must not false-positive).
        write_file(&*evil, "/victim", &checkpoint_img).unwrap();
        evil.release_path("/victim").unwrap();
        let _ = k.take_events();
        assert_eq!(read_file(&*victim, "/victim").unwrap(), checkpoint_img);
        assert!(
            !k.take_events()
                .iter()
                .any(|e| matches!(e, KernelEvent::CorruptionDetected { .. })),
            "intact checksummed extent must verify clean"
        );

        // Round 2: evil dirties the file again (fresh sidecars), releases,
        // and then one bit rots under the recorded digests.
        let fd = evil.open("/victim", OpenFlags::WRONLY, Mode(0o666)).unwrap();
        assert_eq!(evil.pwrite(fd, 0, &vec![0x5Bu8; 256 * 1024]).unwrap(), 256 * 1024);
        evil.close(fd).unwrap();
        evil.release_path("/victim").unwrap();
        let page = (0..dev.topology().total_pages())
            .map(PageId)
            .find(|p| matches!(dev.page_csum(*p), Ok(Some(_))))
            .expect("delegated write must leave sidecar digests");
        dev.corrupt_for_test(page, 1234).unwrap();

        // The victim's next map triggers the walk: detection, reject-class
        // accounting, rollback.
        let _ = k.take_events();
        let _ = read_file(&*victim, "/victim");
        let events = k.take_events();
        assert!(
            events.iter().any(|e| matches!(e, KernelEvent::CorruptionDetected { .. })),
            "bit rot under a sidecar digest must be detected: {events:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, KernelEvent::RolledBack { .. })),
            "checksum mismatch is reject-class: the file must roll back"
        );
        let snap = k.resilience_stats().snapshot();
        let idx =
            VIOLATION_KINDS.iter().position(|x| *x == "data_checksum_mismatch").unwrap();
        assert!(snap.by_kind[idx] >= 1, "violation must be counted under its own kind");
        assert!(snap.class_reject >= 1);
        // Checkpoints cover core state (index/dirent), not data images, so
        // rollback cannot un-rot the bytes — containment is the contract:
        // the dirty actor is quarantined and the rotten extent never
        // reaches the victim as verified state.
        assert!(
            events.iter().any(|e| matches!(e, KernelEvent::Quarantined { .. })),
            "reject-class corruption must quarantine the dirty actor: {events:?}"
        );
        k.delegation().shutdown();
    });
    rt.run();
}
