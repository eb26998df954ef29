//! Tests for the paper's `commit` call (§4.3) — re-checkpointing verified
//! state so rollback preserves it — and for whole-stack recovery flows.

use std::sync::Arc;

use arckfs::attack::{run_attack, Attack};
use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::{read_file, write_file, FileSystem, Mode, OpenFlags};
use trio_kernel::registry::KernelEvent;
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{DeviceConfig, NvmDevice, Topology};
use trio_sim::SimRuntime;

fn world() -> (Arc<KernelController>, Arc<ArckFs>, Arc<ArckFs>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(dev, KernelConfig::default());
    let a = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let b = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    (kernel, a, b)
}

#[test]
fn commit_preserves_later_work_across_rollback() {
    let (kernel, evil, victim) = world();
    let rt = SimRuntime::new(41);
    rt.spawn("t", move || {
        // Build and hand over a clean file.
        write_file(&*evil, "/f", b"checkpointed base").unwrap();
        evil.release_path("/f").unwrap();
        let _ = read_file(&*victim, "/f").unwrap();

        // Evil regains write access (kernel checkpoints "base"), makes a
        // LEGITIMATE change, and commits it (§4.3's commit call replaces
        // the checkpoint).
        let fd = evil.open("/f", OpenFlags::RDWR, Mode(0o666)).unwrap();
        evil.pwrite(fd, 0, b"COMMITTED workdone").unwrap();
        evil.close(fd).unwrap();
        evil.commit_path("/f").unwrap();

        // Then it corrupts the file and releases.
        run_attack(&evil, Attack::IndexCycle, "/", "f").unwrap();
        evil.release_path("/f").unwrap();

        // The victim's map detects the corruption; rollback must land on
        // the COMMITTED state, not the original base.
        let data = read_file(&*victim, "/f").unwrap();
        let events = kernel.take_events();
        assert!(events.iter().any(|e| matches!(e, KernelEvent::CorruptionDetected { .. })));
        assert!(events.iter().any(|e| matches!(e, KernelEvent::RolledBack { .. })));
        assert_eq!(&data[..9], b"COMMITTED", "commit point survived: {data:?}");
    });
    rt.run();
}

#[test]
fn commit_of_corrupted_state_is_refused() {
    let (_, evil, victim) = world();
    let rt = SimRuntime::new(42);
    rt.spawn("t", move || {
        write_file(&*evil, "/f", &vec![1u8; 8192]).unwrap();
        evil.release_path("/f").unwrap();
        let _ = read_file(&*victim, "/f").unwrap();
        let fd = evil.open("/f", OpenFlags::RDWR, Mode(0o666)).unwrap();
        evil.pwrite(fd, 0, &[2u8]).unwrap();
        evil.close(fd).unwrap();
        // Corrupt first, then try to launder it through commit.
        run_attack(&evil, Attack::SizeLie, "/", "f").unwrap();
        assert!(
            evil.commit_path("/f").is_err(),
            "commit must not bless corrupted core state"
        );
    });
    rt.run();
}

#[test]
fn lsm_database_survives_fs_level_crash() {
    // End-to-end: LevelDB-style store on ArckFS with persistence tracking;
    // crash after a batch of writes; recover the DB and check the data —
    // the FS's synchronous-persistence guarantee plus the DB's WAL.
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        track_persistence: true,
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs: Arc<dyn FileSystem> =
        ArckFs::mount(kernel, 1000, 1000, ArckFsConfig::no_delegation());

    let rt = SimRuntime::new(43);
    let fs2 = Arc::clone(&fs);
    rt.spawn("writer", move || {
        let db = trio_lsmkv::Db::open(
            fs2,
            "/db",
            trio_lsmkv::DbConfig { memtable_bytes: 8 * 1024, ..Default::default() },
        )
        .unwrap();
        for i in 0..120u32 {
            db.put(format!("k{i:03}").as_bytes(), format!("v{i}").as_bytes()).unwrap();
        }
        // Drop without clean shutdown.
    });
    rt.run();
    dev.crash();

    let rt = SimRuntime::new(44);
    rt.spawn("recover", move || {
        let db = trio_lsmkv::Db::recover(
            fs,
            "/db",
            trio_lsmkv::DbConfig { memtable_bytes: 8 * 1024, ..Default::default() },
        )
        .unwrap();
        for i in 0..120u32 {
            let got = db.get(format!("k{i:03}").as_bytes()).unwrap();
            assert_eq!(
                got.as_deref(),
                Some(format!("v{i}").as_bytes()),
                "k{i:03} survived the crash"
            );
        }
    });
    rt.run();
    dev.take_sanitize_report(43).expect_clean("lsm_database_survives_fs_level_crash");
}

/// Recovery on perfbench's geometry (8 nodes × 32 Ki pages, 512 chunks of
/// page slots) builds slots only where the file system stored: its scrub
/// of every free page finds an untouched page already clear, and a
/// remount adds only the chunks of the pages it maps.
#[test]
fn recovery_at_perfbench_geometry_builds_only_touched_slot_chunks() {
    let dev = Arc::new(NvmDevice::new(DeviceConfig::eight_node(32 << 10)));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs = ArckFs::mount(kernel, 1000, 1000, ArckFsConfig::no_delegation());
    let body = |i: usize| vec![i as u8 + 1; 3 * 4096 + 100];
    let rt = SimRuntime::new(46);
    rt.spawn("writer", move || {
        fs.mkdir("/d", Mode(0o777)).unwrap();
        for i in 0..8 {
            write_file(&*fs, &format!("/d/f{i}"), &body(i)).unwrap();
        }
    });
    rt.run();
    let written = dev.resident_slot_chunks();
    dev.crash();

    let kernel = KernelController::recover(Arc::clone(&dev), KernelConfig::default()).unwrap();
    assert!(kernel.fsck().is_empty(), "the recovered tree is clean");
    let recovered = dev.resident_slot_chunks();
    let fs = ArckFs::mount(kernel, 1000, 1000, ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(47);
    rt.spawn("reader", move || {
        for i in 0..8 {
            assert_eq!(read_file(&*fs, &format!("/d/f{i}")).unwrap(), body(i));
        }
    });
    rt.run();
    let remounted = dev.resident_slot_chunks();
    eprintln!("slot chunks: {written} written, {recovered} recovered, {remounted} remounted of 512");
    assert_eq!(recovered, written, "recovery's scrub of the free pages builds no chunk");
    assert!(written <= 16 && remounted <= 2 * written, "{remounted} of 512 chunks built");
}

/// A small file costs the bytes written into it (DESIGN.md §2, `trio-nvm`
/// row): at perfbench's geometry, 1 024 fsynced 1 KiB files keep about
/// their own size in device pages through a crash, recovery and a remount
/// that reads every one back. Whole pages would cost a 4 KiB data page and
/// a 4 KiB index page a file.
#[test]
fn small_files_cost_their_written_bytes_through_crash_and_remount() {
    const FILES: usize = 1024;
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        track_persistence: true,
        ..DeviceConfig::eight_node(32 << 10)
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs = ArckFs::mount(kernel, 1000, 1000, ArckFsConfig::no_delegation());
    let body = |i: usize| vec![(i % 251) as u8 + 1; 1024];
    let rt = SimRuntime::new(48);
    rt.spawn("writer", move || {
        fs.mkdir("/m", Mode(0o777)).unwrap();
        for i in 0..FILES {
            let flags = OpenFlags::CREATE | OpenFlags::WRONLY;
            let fd = fs.open(&format!("/m/f{i}"), flags, Mode::RW).unwrap();
            fs.pwrite(fd, 0, &body(i)).unwrap();
            fs.fsync(fd).unwrap();
            fs.close(fd).unwrap();
        }
    });
    rt.run();
    let written = dev.resident_page_bytes();
    dev.crash();

    let kernel = KernelController::recover(Arc::clone(&dev), KernelConfig::default()).unwrap();
    assert!(kernel.fsck().is_empty(), "the recovered tree is clean");
    let fs = ArckFs::mount(kernel, 1000, 1000, ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(49);
    rt.spawn("reader", move || {
        for i in 0..FILES {
            assert_eq!(read_file(&*fs, &format!("/m/f{i}")).unwrap(), body(i));
        }
    });
    rt.run();
    let remounted = dev.resident_page_bytes();
    eprintln!("page bytes: {written} written, {remounted} after the remount, {FILES} files");
    let bound = FILES * (3 << 10);
    assert!(written <= bound && remounted <= bound, "{written} / {remounted} > {bound}");
}

/// Core state is one format read one way (DESIGN.md §3): the verifier, a
/// LibFS rebuilding its aux, the kernel's checkpoint and the kernel's
/// recovery name the same children of the same directory — three pages of
/// it, with unlinked holes and a prepared slot whose ino was never
/// published.
#[test]
fn four_readers_of_a_directory_agree() {
    use std::collections::BTreeSet;
    use trio_layout::{CoreFileType, DirPage, DirentData, DirentRef, Ino};
    use trio_nvm::{ActorId, NvmHandle, PageId, KERNEL_ACTOR};
    use trio_verifier::{
        InoProvenance, PageProvenance, ResourceView, ShadowAttr, Verifier, VerifyRequest,
    };

    /// Everything on the device is the writer's fresh allocation: the
    /// verifier has nothing to object to but the bytes themselves.
    struct AllFresh(ActorId);
    impl ResourceView for AllFresh {
        fn page_provenance(&self, _: PageId) -> PageProvenance {
            PageProvenance::AllocatedTo(self.0)
        }
        fn ino_provenance(&self, _: Ino) -> InoProvenance {
            InoProvenance::AllocatedTo(self.0)
        }
        fn shadow_attr(&self, _: Ino) -> Option<ShadowAttr> {
            None
        }
        fn is_mapped(&self, _: Ino) -> bool {
            false
        }
    }

    let (kernel, a, b) = world();
    let dev = Arc::clone(kernel.device());
    let seen = Arc::new(trio_sim::plock::Mutex::new(None));
    let (k2, seen2) = (Arc::clone(&kernel), Arc::clone(&seen));
    let rt = SimRuntime::new(45);
    rt.spawn("t", move || {
        a.mkdir("/d", Mode(0o777)).unwrap();
        for i in 0..40 {
            write_file(&*a, &format!("/d/f{i:02}"), &[i as u8; 100]).unwrap();
        }
        a.mkdir("/d/sub", Mode(0o777)).unwrap();
        for i in [3, 17, 33] {
            a.unlink(&format!("/d/f{i:02}")).unwrap();
        }
        let (loc, _, data) = a.debug_file_pages("/d").unwrap();
        let first_index = DirentRef::new(a.handle(), loc.unwrap()).first_index().unwrap();
        let hole = DirPage::load(a.handle(), data[1].unwrap()).unwrap().first_free().unwrap();
        let pending = DirentData::new(b"pending", CoreFileType::Regular, Mode::RW, 1000, 1000);
        DirentRef::new(a.handle(), hole).prepare(&pending).unwrap();
        let d_ino = a.stat("/d").unwrap().ino;
        a.release_path("/d").unwrap();
        a.release_path("/").unwrap();

        // The LibFS (whose map makes the kernel verify and checkpoint).
        let listed: BTreeSet<Ino> = b.readdir("/d").unwrap().iter().map(|e| e.ino).collect();
        assert_eq!(listed.len(), 38);
        let checkpointed = k2.checkpoint_children(d_ino).expect("verified, so checkpointed");
        // The verifier.
        let req = VerifyRequest {
            ino: d_ino,
            ftype: CoreFileType::Directory,
            dirent: loc,
            first_index,
            dirty_actor: a.actor(),
            checkpoint_children: None,
            max_index_pages: 64,
            max_dir_entries: 1 << 16,
        };
        let report = Verifier::new(NvmHandle::new(Arc::clone(k2.device()), KERNEL_ACTOR))
            .verify(&req, &AllFresh(a.actor()));
        assert_eq!(report.violations, []);
        let verified: BTreeSet<Ino> = report.children.iter().map(|c| c.ino).collect();
        assert_eq!(verified, listed);
        assert_eq!(checkpointed.into_iter().collect::<BTreeSet<_>>(), listed);
        *seen2.lock() = Some((data, listed));
    });
    rt.run();
    let (data, listed) = seen.lock().take().unwrap();
    drop(kernel);

    // Recovery: the inos it holds live at a slot of one of `/d`'s pages.
    let recovered = KernelController::recover(dev, KernelConfig::default()).unwrap();
    let in_d = |loc: &trio_layout::DirentLoc| data.contains(&Some(loc.page));
    let live: BTreeSet<Ino> =
        recovered.live_dirents().into_iter().filter(|(_, loc)| in_d(loc)).map(|(i, _)| i).collect();
    assert_eq!(live, listed);
}
