//! Crash-consistency tests (paper §4.4): with cache-line persistence
//! tracking enabled, operations are interrupted by injected crashes and
//! the surviving core state must satisfy the LibFS's guarantees —
//! metadata ops are synchronous and atomic; data ops synchronous but
//! possibly partial; rename is journaled.

use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::{FileSystem, Mode, OpenFlags};
use trio_kernel::{KernelConfig, KernelController};
use trio_layout::{DirPage, DirentData, DirentLoc, DirentRef};
use trio_nvm::{DeviceConfig, NvmDevice, Topology};
use trio_sim::SimRuntime;

fn tracked_world() -> (Arc<NvmDevice>, Arc<KernelController>, Arc<ArckFs>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 32 * 1024),
        track_persistence: true,
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    (dev, kernel, fs)
}

/// Scans every committed dirent in `dir`'s data pages directly from core
/// state (what a post-crash verifier/LibFS rebuild would see).
fn scan_dir_core(
    fs: &ArckFs,
    dir: &str,
) -> Vec<(String, u64)> {
    let (_, _, data) = fs.debug_file_pages(dir).unwrap();
    let mut out = Vec::new();
    for page in data.iter().flatten() {
        let page = DirPage::load(fs.handle(), *page).unwrap();
        out.extend(page.live().map(|(_, d)| (String::from_utf8_lossy(&d.name).into_owned(), d.ino)));
    }
    out
}

#[test]
fn completed_creates_survive_a_crash() {
    let (dev, _, fs) = tracked_world();
    let rt = SimRuntime::new(1);
    let fs2 = Arc::clone(&fs);
    rt.spawn("t", move || {
        fs2.mkdir("/d", Mode(0o777)).unwrap();
        for i in 0..40 {
            fs2.create(&format!("/d/f{i:02}"), Mode(0o666)).unwrap();
        }
    });
    rt.run();
    // Crash: revert every unflushed line. Completed creates persisted
    // their dirents with the prepare/publish protocol, so all survive.
    let report = dev.crash();
    let rt = SimRuntime::new(2);
    let fs2 = Arc::clone(&fs);
    let found = Arc::new(trio_sim::plock::Mutex::new(Vec::new()));
    let f2 = Arc::clone(&found);
    rt.spawn("t", move || {
        *f2.lock() = scan_dir_core(&fs2, "/d");
    });
    rt.run();
    let names = found.lock();
    assert_eq!(names.len(), 40, "all committed creates survive: {names:?}\n{report}");
    dev.take_sanitize_report(1).expect_clean("completed_creates_survive_a_crash");
}

#[test]
fn torn_create_is_invisible_after_crash() {
    let (dev, _, fs) = tracked_world();
    let rt = SimRuntime::new(3);
    let fs2 = Arc::clone(&fs);
    let loc_out = Arc::new(trio_sim::plock::Mutex::new(None));
    let loc2 = Arc::clone(&loc_out);
    rt.spawn("t", move || {
        fs2.mkdir("/d", Mode(0o777)).unwrap();
        fs2.create("/d/committed", Mode(0o666)).unwrap();
        // Hand-build a torn create: prepare the slot (ino 0, persisted)
        // and then store the ino WITHOUT flushing — the crash window
        // between §4.4's two steps.
        let (_, _, data) = fs2.debug_file_pages("/d").unwrap();
        let page = data[0].unwrap();
        let loc = DirPage::load(fs2.handle(), page).unwrap().first_free().expect("free slot");
        let d = DirentData::new(b"torn", trio_layout::CoreFileType::Regular, Mode(0o666), 0, 0);
        DirentRef::new(fs2.handle(), loc).prepare(&d).unwrap();
        // Unflushed ino publication (the torn step).
        fs2.handle().write_untimed(loc.page, loc.byte_off(), &77777u64.to_le_bytes()).unwrap();
        *loc2.lock() = Some(loc);
    });
    rt.run();
    dev.crash();
    // After the crash the torn slot must read ino 0 (invisible), while the
    // committed file is intact.
    let rt = SimRuntime::new(4);
    let fs2 = Arc::clone(&fs);
    let loc = loc_out.lock().unwrap();
    rt.spawn("t", move || {
        let entries = scan_dir_core(&fs2, "/d");
        assert!(entries.iter().any(|(n, _)| n == "committed"));
        assert!(!entries.iter().any(|(n, _)| n == "torn"), "torn create leaked: {entries:?}");
        assert_eq!(DirentRef::new(fs2.handle(), loc).ino().unwrap(), 0);
    });
    rt.run();
    // The torn ino store is a line left dirty, which only a quiescence
    // check would call a hazard; the protocol steps around it are clean.
    dev.take_sanitize_report(3).expect_clean("torn_create_is_invisible_after_crash");
}

#[test]
fn data_writes_are_synchronous() {
    let (dev, _, fs) = tracked_world();
    let rt = SimRuntime::new(5);
    let fs2 = Arc::clone(&fs);
    rt.spawn("t", move || {
        let fd = fs2.open("/f", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        fs2.pwrite(fd, 0, &vec![0xABu8; 10_000]).unwrap();
        fs2.close(fd).unwrap();
    });
    rt.run();
    let report = dev.crash();
    // Completed pwrite: contents and size survive (no page cache).
    let rt = SimRuntime::new(6);
    let fs2 = Arc::clone(&fs);
    rt.spawn("t", move || {
        let data = trio_fsapi::read_file(&*fs2, "/f").unwrap();
        assert_eq!(data.len(), 10_000, "size must survive the crash\n{report}");
        assert!(data.iter().all(|&b| b == 0xAB), "contents must survive the crash\n{report}");
    });
    rt.run();
    dev.take_sanitize_report(5).expect_clean("data_writes_are_synchronous");
}

#[test]
fn rename_journal_recovers_the_half_done_move() {
    let (dev, _, fs) = tracked_world();
    let rt = SimRuntime::new(7);
    let fs2 = Arc::clone(&fs);
    rt.spawn("t", move || {
        fs2.mkdir("/d", Mode(0o777)).unwrap();
        trio_fsapi::write_file(&*fs2, "/d/victim", b"contents").unwrap();
        // Simulate the crash window inside rename: journal armed, dst
        // published, src cleared — then crash before disarm. Reuse the
        // journal machinery directly.
        let (_, _, data) = fs2.debug_file_pages("/d").unwrap();
        let page = data[0].unwrap();
        let src = DirentLoc { page, slot: 0 };
        let img = DirentRef::new(fs2.handle(), src).image().unwrap();
        let src_ino = DirentRef::new(fs2.handle(), src).ino().unwrap();
        // Destination: next free slot.
        let dst = DirPage::load(fs2.handle(), page).unwrap().first_free().unwrap();
        let jpair = (fs2.debug_take_pool_page(), fs2.debug_take_pool_page());
        let mut jpages = [jpair.0, jpair.1].into_iter().map(Ok);
        let journal = arckfs::journal::Journal::new();
        let (guard, _) = journal
            .begin_rename(fs2.handle(), 0, src, dst, &img, fs2.handle().dirty_spans(Vec::new()), || {
                jpages.next().unwrap()
            })
            .unwrap();
        // Half-done move, fully persisted, but journal still armed.
        let mut moved = DirentData::decode_bytes(&img);
        moved.name = b"moved".to_vec();
        let dref = DirentRef::new(fs2.handle(), dst);
        let w = dref.prepare(&moved).unwrap();
        dref.publish(src_ino, &w).unwrap();
        DirentRef::new(fs2.handle(), src).clear().unwrap();
        std::mem::forget(guard); // Crash before disarm.
        // Recovery undoes the rename from the journal.
        let undone =
            arckfs::journal::Journal::recover_pairs(fs2.handle(), &[jpair]).unwrap().undone;
        assert_eq!(undone, 1);
        assert_eq!(DirentRef::new(fs2.handle(), src).ino().unwrap(), src_ino);
        assert_eq!(DirentRef::new(fs2.handle(), dst).ino().unwrap(), 0);
    });
    rt.run();
    dev.take_sanitize_report(7).expect_clean("rename_journal_recovers_the_half_done_move");
}

#[test]
fn crash_loses_nothing_when_everything_is_flushed() {
    let (dev, _, fs) = tracked_world();
    let rt = SimRuntime::new(8);
    let fs2 = Arc::clone(&fs);
    rt.spawn("t", move || {
        fs2.mkdir("/a", Mode(0o777)).unwrap();
        trio_fsapi::write_file(&*fs2, "/a/x", b"12345").unwrap();
        fs2.rename("/a/x", "/a/y").unwrap();
        fs2.truncate("/a/y", 3).unwrap();
    });
    rt.run();
    let report = dev.crash(); // Dirty lines may exist (aux-ish scratch), but...
    let rt = SimRuntime::new(9);
    let fs2 = Arc::clone(&fs);
    rt.spawn("t", move || {
        // ...every completed, synchronous operation must be visible.
        let entries = scan_dir_core(&fs2, "/a");
        assert_eq!(entries.len(), 1, "exactly the renamed file survives\n{report}");
        assert_eq!(entries[0].0, "y", "rename must be durable\n{report}");
        assert_eq!(trio_fsapi::read_file(&*fs2, "/a/y").unwrap(), b"123", "truncate durable\n{report}");
    });
    rt.run();
    dev.take_sanitize_report(8).expect_clean("crash_loses_nothing_when_everything_is_flushed");
}

// ---------------------------------------------------------------------
// Recovery idempotence (fault-injection engine satellites): the rename
// undo journal must converge to the same state no matter how many times
// recovery runs — including when a crash interrupts recovery itself.
// ---------------------------------------------------------------------

/// Builds a world frozen in the §4.4 rename crash window: journal armed,
/// destination published, source cleared, disarm never reached. Returns
/// `(device, src_loc, dst_loc, journal_pair, victim_ino)`.
fn armed_rename_world(
    seed: u64,
) -> (Arc<NvmDevice>, DirentLoc, DirentLoc, (trio_nvm::PageId, trio_nvm::PageId), u64) {
    let (dev, _, fs) = tracked_world();
    let rt = SimRuntime::new(seed);
    let out = Arc::new(trio_sim::plock::Mutex::new(None));
    let (o2, fs2) = (Arc::clone(&out), Arc::clone(&fs));
    rt.spawn("setup", move || {
        fs2.mkdir("/d", Mode(0o777)).unwrap();
        trio_fsapi::write_file(&*fs2, "/d/victim", b"contents").unwrap();
        let (_, _, data) = fs2.debug_file_pages("/d").unwrap();
        let page = data[0].unwrap();
        let src = DirentLoc { page, slot: 0 };
        let img = DirentRef::new(fs2.handle(), src).image().unwrap();
        let src_ino = DirentRef::new(fs2.handle(), src).ino().unwrap();
        let dst = DirPage::load(fs2.handle(), page).unwrap().first_free().unwrap();
        let jpair = (fs2.debug_take_pool_page(), fs2.debug_take_pool_page());
        let mut jpages = [jpair.0, jpair.1].into_iter().map(Ok);
        let journal = arckfs::journal::Journal::new();
        let (guard, _) = journal
            .begin_rename(fs2.handle(), 0, src, dst, &img, fs2.handle().dirty_spans(Vec::new()), || {
                jpages.next().unwrap()
            })
            .unwrap();
        let mut moved = DirentData::decode_bytes(&img);
        moved.name = b"moved".to_vec();
        let dref = DirentRef::new(fs2.handle(), dst);
        let w = dref.prepare(&moved).unwrap();
        dref.publish(src_ino, &w).unwrap();
        DirentRef::new(fs2.handle(), src).clear().unwrap();
        std::mem::forget(guard); // Crash before disarm.
        *o2.lock() = Some((src, dst, jpair, src_ino));
    });
    rt.run();
    let (src, dst, jpair, src_ino) = out.lock().take().unwrap();
    (dev, src, dst, jpair, src_ino)
}

/// Running journal recovery twice is a no-op the second time: same
/// dirents, same journal page bytes, zero records undone.
#[test]
fn journal_recovery_is_idempotent() {
    use arckfs::journal::Journal;
    let (dev, src, dst, jpair, src_ino) = armed_rename_world(21);
    let kh = trio_nvm::NvmHandle::new(Arc::clone(&dev), trio_nvm::KERNEL_ACTOR);
    let journal = |dev: &NvmDevice| [jpair.0, jpair.1].map(|p| dev.snapshot_page(p).unwrap());
    assert_eq!(Journal::recover_pairs(&kh, &[jpair]).unwrap().undone, 1);
    assert_eq!(DirentRef::new(&kh, src).ino().unwrap(), src_ino);
    assert_eq!(DirentRef::new(&kh, dst).ino().unwrap(), 0);
    let dirents_after_first = dev.snapshot_page(src.page).unwrap();
    let journal_after_first = journal(&dev);
    // Second run: journal is disarmed; nothing changes.
    assert_eq!(Journal::recover_pairs(&kh, &[jpair]).unwrap().undone, 0);
    assert_eq!(dev.snapshot_page(src.page).unwrap(), dirents_after_first);
    assert_eq!(journal(&dev), journal_after_first);
    dev.take_sanitize_report(21).expect_clean("journal_recovery_is_idempotent");
}

/// Crashing at *every* persistence point inside journal recovery and then
/// recovering again always converges to the undone state — recovery is
/// re-runnable from any prefix of itself.
#[test]
fn crash_mid_journal_recovery_then_recover_again_converges() {
    use arckfs::journal::Journal;
    use trio_nvm::fault::FaultPlan;
    // Measure recovery's own persistence-point span on a throwaway world.
    let span = {
        let (dev, _, _, jpair, _) = armed_rename_world(22);
        let kh = trio_nvm::NvmHandle::new(Arc::clone(&dev), trio_nvm::KERNEL_ACTOR);
        let p0 = dev.persistence_points();
        Journal::recover_pairs(&kh, &[jpair]).unwrap();
        dev.persistence_points() - p0
    };
    assert!(span >= 3, "recovery should span several persistence points, got {span}");
    for k in 0..span {
        let (dev, src, dst, jpair, src_ino) = armed_rename_world(22);
        let kh = trio_nvm::NvmHandle::new(Arc::clone(&dev), trio_nvm::KERNEL_ACTOR);
        dev.arm_crash_plan(FaultPlan::crash_at_point(dev.persistence_points() + k));
        Journal::recover_pairs(&kh, &[jpair]).unwrap();
        let report = dev.crash();
        let undone = Journal::recover_pairs(&kh, &[jpair]).unwrap().undone;
        let s = DirentRef::new(&kh, src).ino().unwrap();
        let d = DirentRef::new(&kh, dst).ino().unwrap();
        assert_eq!(
            (s, d),
            (src_ino, 0),
            "recovery did not converge (crash at +{k}, second pass undid {undone})\n{report}"
        );
        dev.take_sanitize_report(22).expect_clean(&format!("crash at +{k}\n{report}"));
    }
}
