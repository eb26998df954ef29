//! Media-fault tolerance end to end (DESIGN.md §19): the kernel patrol
//! scrubber's repair routes, bad-page retirement with allocator
//! conservation, and the seeded replayable fault campaign the media gate
//! runs — poison and rot injected under live delegated traffic, plus
//! crash points planted inside the recovery repair path itself.
//!
//! The campaign runs on the shared campaign driver (`tests/common/campaign.rs`):
//! `TRIO_ITERS` sizes it (default 40; the gate runs 500), a failure prints
//! the line that replays it, and `target/media_fault_campaign-report.json`
//! keeps the counts.

mod common;

use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig};
use common::campaign::{self, Case, Tally};
use trio_fsapi::{read_file, write_file, FileSystem, FsError, Mode, OpenFlags};
use trio_kernel::{KernelConfig, KernelController};
use trio_layout::{superblock::SUPERBLOCK_PAGE, superblock_replica_page, SbHealth, SuperblockRef};
use trio_nvm::{
    DeviceConfig, FaultPlan, NvmDevice, NvmHandle, PageId, Topology, KERNEL_ACTOR, PAGE_SIZE,
};
use trio_sim::SimRuntime;

const PAGES: u64 = 16 * 1024;
const MEDIA_SEED: u64 = 0xC0FFEE;

fn world(cfg: ArckFsConfig) -> (Arc<NvmDevice>, Arc<KernelController>, Arc<ArckFs>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, PAGES as usize),
        track_persistence: true,
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(
        Arc::clone(&dev),
        KernelConfig { delegation_threads_per_node: 2, ..KernelConfig::default() },
    );
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, cfg);
    (dev, kernel, fs)
}

/// `free + cached + retired`: the allocator's conservation sum. Constant
/// across any amount of scrubbing, repair, migration, and retirement —
/// only file creation/deletion moves it.
fn accounted(kernel: &KernelController) -> usize {
    kernel.free_page_count() + kernel.cached_page_count() + kernel.retired_page_count()
}

// ---------------------------------------------------------------------
// Patrol routes, one by one.
// ---------------------------------------------------------------------

/// A poisoned free-pool page is durably scrubbed clean by the patrol.
#[test]
fn patrol_scrubs_poisoned_free_page() {
    let (dev, kernel, _fs) = world(ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0x51);
    rt.spawn("main", move || {
        let victim = PageId(PAGES - 7); // Deep in the free pool.
        dev.poison_line(victim, 5);
        let before = accounted(&kernel);
        let rep = kernel.scrub_pass(PAGES as usize);
        assert_eq!(rep.scanned, PAGES);
        assert!(rep.poison_lines >= 1, "patrol missed the poisoned line: {rep:?}");
        assert!(rep.pool_scrubs >= 1, "free-page route did not fire: {rep:?}");
        assert!(dev.page_poisoned_lines(victim).is_empty(), "poison survived the scrub");
        assert_eq!(accounted(&kernel), before, "scrub must not move the conservation sum");
        let snap = kernel.media_stats().snapshot();
        assert_eq!(snap.scrub_passes, 1);
        assert!(snap.poison_lines_found >= 1 && snap.pool_scrubs >= 1);
        assert!(snap.repairs() >= 1 && snap.repair_p50_ns() > 0);
    });
    rt.run();
}

/// Poison on either superblock copy is healed from its twin, under the
/// kernel's superblock lock, without disturbing service.
#[test]
fn patrol_twin_repairs_superblock() {
    let (dev, kernel, fs) = world(ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0x52);
    rt.spawn("main", move || {
        write_file(&*fs, "/keep", b"survives sb faults").unwrap();
        for victim in [SUPERBLOCK_PAGE, superblock_replica_page(PAGES)] {
            dev.poison_line(victim, 0);
            let rep = kernel.scrub_pass(PAGES as usize);
            assert!(rep.sb_repairs >= 1, "sb twin repair did not fire for {victim:?}: {rep:?}");
            assert!(dev.page_poisoned_lines(victim).is_empty(), "sb poison survived");
        }
        // Both copies are sealed and identical again.
        let kh = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
        assert_eq!(SuperblockRef::new(&kh).scrub(), Ok(SbHealth::Clean));
        assert_eq!(read_file(&*fs, "/keep").unwrap(), b"survives sb faults");
        assert_eq!(kernel.media_stats().snapshot().sb_repairs, 2);
    });
    rt.run();
}

/// A registered journal mirror pair heals from its healthy twin; the
/// repair takes the shard lock, so it can never interleave with a rename.
#[test]
fn patrol_twin_repairs_registered_journal_shard() {
    let (dev, kernel, fs) = world(ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0x53);
    rt.spawn("main", move || {
        fs.create("/a", Mode(0o666)).unwrap();
        fs.rename("/a", "/b").unwrap(); // Populates one journal shard.
        let registered = fs.register_journal_twins();
        assert!(registered >= 1, "no mirrored shard to register");
        let (primary, mirror) = fs
            .journal_page_pairs()
            .into_iter()
            .find_map(|(p, m)| m.map(|m| (p, m)))
            .expect("mirrored shard exists");
        for (victim, healthy) in [(primary, mirror), (mirror, primary)] {
            dev.poison_line(victim, 0); // Line 0 holds the record header.
            let rep = kernel.scrub_pass(PAGES as usize);
            assert!(
                rep.journal_repairs >= 1,
                "journal twin repair did not fire for {victim:?}: {rep:?}"
            );
            assert!(dev.page_poisoned_lines(victim).is_empty(), "journal poison survived");
            assert!(dev.page_poisoned_lines(healthy).is_empty());
        }
        // The repaired record still drives recovery (disarmed, 0 undone).
        let kh = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
        let pairs = fs.journal_page_pairs();
        arckfs::journal::Journal::recover_pairs(&kh, &pairs).unwrap();
        assert!(kernel.media_stats().snapshot().journal_repairs >= 2);
    });
    rt.run();
}

/// A media fault inside a verified file routes the file back through
/// verification: the kernel detects, rolls back, and the client sees a
/// typed error on the dead region — never silent wrong bytes.
#[test]
fn scrub_routes_file_fault_through_verification() {
    let (dev, kernel, fs) = world(ArckFsConfig::no_delegation());
    let reader = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0x54);
    rt.spawn("main", move || {
        write_file(&*fs, "/f", &vec![0xABu8; 3 * PAGE_SIZE]).unwrap();
        fs.release_path("/f").unwrap();
        // Cross-LibFS read verifies the file: provenance becomes InFile.
        assert_eq!(read_file(&*reader, "/f").unwrap().len(), 3 * PAGE_SIZE);
        let (_, _, data) = reader.debug_file_pages("/f").unwrap();
        let victim = data[1].unwrap();
        dev.poison_line(victim, 9);
        let rep = kernel.scrub_pass(PAGES as usize);
        assert!(rep.files_routed >= 1, "file route did not fire: {rep:?}");
        // Detected-unrepairable: the dead line answers loudly...
        let fd = reader.open("/f", OpenFlags::RDONLY, Mode(0)).unwrap();
        let mut buf = [0u8; 64];
        assert_eq!(
            reader.pread(fd, PAGE_SIZE as u64 + 9 * 64, &mut buf).err(),
            Some(FsError::Corrupted)
        );
        // ...while untouched pages still serve correct bytes.
        assert_eq!(reader.pread(fd, 0, &mut buf).unwrap(), 64);
        assert!(buf.iter().all(|&b| b == 0xAB));
        reader.close(fd).unwrap();
    });
    rt.run();
}

/// Silent rot under a delegated write's integrity sidecar is caught by
/// the checksum-verifying scrub and fenced off: reads fail loudly
/// instead of returning wrong bytes.
#[test]
fn scrub_detects_and_fences_silent_rot() {
    let (dev, kernel, fs) = world(ArckFsConfig::default());
    let rt = SimRuntime::new(0x55);
    rt.spawn("main", move || {
        kernel.delegation().start();
        let fd = fs.open("/rot", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        let data = vec![0x5Cu8; 64 * 1024]; // Delegated, hashed inline.
        assert_eq!(fs.pwrite(fd, 0, &data).unwrap(), data.len());
        let (_, _, pages) = fs.debug_file_pages("/rot").unwrap();
        let victim = pages[3].unwrap();
        // Flip a byte behind the sidecar's back: undetectable by reads.
        assert!(dev.rot_byte(victim, 1234), "delegated write must leave a sidecar");
        assert_eq!(dev.page_csum_ok(victim), Ok(Some(false)));
        let mut buf = [0u8; 64];
        assert_eq!(fs.pread(fd, 3 * PAGE_SIZE as u64 + 1216, &mut buf).unwrap(), 64); // Silent!
        // The patrol turns silent rot into loud, typed failure.
        let rep = kernel.scrub_pass(PAGES as usize);
        assert!(rep.rot_pages >= 1, "rot not detected: {rep:?}");
        assert!(rep.fenced_off >= 1, "rotted page not fenced off: {rep:?}");
        assert_eq!(
            fs.pread(fd, 3 * PAGE_SIZE as u64 + 1216, &mut buf).err(),
            Some(FsError::Corrupted)
        );
        fs.close(fd).unwrap();
        kernel.delegation().shutdown();
    });
    rt.run();
}

/// `/d` holding sixteen files `f00`..`f15` with these contents, all in
/// the sixteen slots of its first data page.
fn sixteen_files(fs: &ArckFs) {
    fs.mkdir("/d", Mode(0o777)).unwrap();
    for i in 0..16 {
        write_file(fs, &sixteen_path(i), &sixteen_bytes(i)).unwrap();
    }
}

fn sixteen_path(i: usize) -> String {
    format!("/d/f{i:02}")
}

fn sixteen_bytes(i: usize) -> Vec<u8> {
    vec![0x40 + i as u8; 3000 + 200 * i]
}

/// Cache line 21 of a directory page lies under slot 5 and no other.
const BAD_LINE: u16 = 21;
const BAD_SLOT: usize = 5;

/// A bad line under a directory found at mount time (no checkpoint
/// survives a restart, and nothing replicates a dirent): recovery keeps
/// the fifteen entries the media kept, zeroes the one slot — which heals
/// the line — and counts the loss where an operator looks for it, instead
/// of dropping the whole page and repairing the count to match.
#[test]
fn recover_salvages_a_directory_page_around_a_poisoned_line() {
    let (dev, kernel, fs) = world(ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0x59);
    let found = Arc::new(trio_sim::plock::Mutex::new(None));
    let (fs2, found2) = (Arc::clone(&fs), Arc::clone(&found));
    rt.spawn("setup", move || {
        sixteen_files(&fs2);
        let (_, _, dir_data) = fs2.debug_file_pages("/d").unwrap();
        let victim = (0..16)
            .map(|i| (i, fs2.debug_file_pages(&sixteen_path(i)).unwrap()))
            .find(|(_, (loc, _, _))| loc.unwrap().slot == BAD_SLOT)
            .map(|(i, (_, index, data))| (i, index.len() + data.len()))
            .expect("one file sits in the slot");
        *found2.lock() = Some((dir_data[0].unwrap(), victim));
    });
    rt.run();
    let (dir_page, (lost, lost_pages)) = found.lock().take().unwrap();
    drop(fs);
    drop(kernel);
    dev.crash();

    let check = |kernel: Arc<KernelController>, lost: Option<usize>| {
        assert_eq!(kernel.fsck(), [], "recovered tree must audit clean");
        assert_eq!(dev.poisoned_lines(), 0, "recovery leaves no bad line under a directory");
        let free = accounted(&kernel);
        let fs = ArckFs::mount(kernel, 1000, 1000, ArckFsConfig::no_delegation());
        let listed = fs.readdir("/d").unwrap().len();
        for i in 0..16 {
            match read_file(&*fs, &sixteen_path(i)) {
                Ok(bytes) => assert_eq!(bytes, sixteen_bytes(i), "{}", sixteen_path(i)),
                Err(e) => assert_eq!((Some(i), e), (lost, FsError::NotFound)),
            }
        }
        (listed, free)
    };
    let recover = || KernelController::recover(Arc::clone(&dev), KernelConfig::default()).unwrap();

    // Healthy media: all sixteen, nothing to count.
    let clean = recover();
    assert_eq!(clean.media_stats().snapshot().unrecoverable, 0);
    let (listed, free_clean) = check(clean, None);
    assert_eq!(listed, 16);

    // One bad line: one entry, its pages back in the pool, and a count.
    dev.poison_line(dir_page, BAD_LINE);
    let salvaged = recover();
    let counted = salvaged.media_stats().snapshot().unrecoverable;
    let (listed, free_salvaged) = check(salvaged, Some(lost));
    assert_eq!(listed, 15, "fifteen entries were intact on the media");
    assert_eq!(counted, 1, "the lost entry is counted, not papered over");
    assert_eq!(free_salvaged, free_clean + lost_pages, "only the lost file's pages came back");

    // Recovering what recovery left is a no-op.
    let image = dev.snapshot_page(dir_page).unwrap();
    let again = recover();
    assert_eq!(again.media_stats().snapshot().unrecoverable, 0);
    assert_eq!(dev.snapshot_page(dir_page).unwrap(), image);
    assert_eq!(check(again, Some(lost)), (15, free_salvaged));
}

/// The same bad line with the kernel up and `/d` checkpointed: the
/// verifier reports a media fault, not a forged entry count, so rollback
/// restores the page from the checkpoint image (which heals the line) and
/// the writer — who did nothing — is not quarantined.
#[test]
fn poisoned_dirent_line_at_hand_over_is_rolled_back_not_quarantined() {
    use trio_kernel::registry::KernelEvent as E;
    let (dev, kernel, writer) = world(ArckFsConfig::no_delegation());
    let reader = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0x5A);
    rt.spawn("main", move || {
        sixteen_files(&writer);
        for path in (0..16).map(sixteen_path).chain(["/d".into(), "/".into()]) {
            writer.release_path(&path).unwrap();
        }
        // Verified and checkpointed, sixteen children and all.
        assert_eq!(reader.readdir("/d").unwrap().len(), 16);
        reader.release_path("/d").unwrap();
        // The writer takes a file of `/d` back: its dirent page, which is
        // `/d`'s data page, is in the writer's hands again.
        let fd = writer.open(&sixteen_path(0), OpenFlags::RDWR, Mode(0o666)).unwrap();
        writer.pwrite(fd, 0, &sixteen_bytes(0)).unwrap();
        writer.close(fd).unwrap();
        let d_ino = writer.stat("/d").unwrap().ino;
        let (_, _, dir_data) = writer.debug_file_pages("/d").unwrap();
        writer.release_path(&sixteen_path(0)).unwrap();
        writer.release_path("/d").unwrap();
        let _ = kernel.take_events();

        dev.poison_line(dir_data[0].unwrap(), BAD_LINE);
        assert_eq!(reader.readdir("/d").unwrap().len(), 16);
        for i in 0..16 {
            assert_eq!(read_file(&*reader, &sixteen_path(i)).unwrap(), sixteen_bytes(i));
        }
        let events = kernel.take_events();
        assert!(events.contains(&E::RolledBack { ino: d_ino }), "{events:?}");
        assert!(!events.iter().any(|e| matches!(e, E::Quarantined { .. })), "{events:?}");
        assert!(!kernel.is_quarantined(writer.actor()), "a media fault is not a forgery");
        assert_eq!(dev.poisoned_lines(), 0, "the checkpoint image healed the line");
        let stats = kernel.resilience_stats().snapshot().to_json();
        assert!(stats.contains("\"violations_by_kind\": {\"unreadable_data\": 1},"), "{stats}");
    });
    rt.run();
}

// ---------------------------------------------------------------------
// Retirement.
// ---------------------------------------------------------------------

/// A free page that keeps faulting is retired: pulled from the pool,
/// never allocated again, with `free + cached + retired` conserved.
#[test]
fn repeat_offender_free_page_is_retired() {
    let (dev, kernel, _fs) = world(ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0x56);
    rt.spawn("main", move || {
        let victim = PageId(PAGES - 13);
        let before = accounted(&kernel);
        for round in 0..3 {
            dev.poison_line(victim, (round % 4) as u16);
            kernel.scrub_pass(PAGES as usize);
        }
        assert_eq!(kernel.retired_page_count(), 1, "third strike must retire");
        assert_eq!(accounted(&kernel), before, "retirement must conserve pages");
        assert!(dev.page_poisoned_lines(victim).is_empty());
        // Retired pages are skipped by later passes and stay retired.
        let rep = kernel.scrub_pass(PAGES as usize);
        assert_eq!(rep.retired, 0);
        assert_eq!(kernel.retired_page_count(), 1);
    });
    rt.run();
}

/// A regular file's data page that keeps faulting (and is repaired by its
/// owner in between) is migrated whole — contents and sidecar moved, the
/// index slot swung, mappings re-pointed — and the flaky frame retired,
/// all invisible to the client.
#[test]
fn flaky_file_data_page_is_migrated_then_retired() {
    let (dev, kernel, fs) = world(ArckFsConfig::no_delegation());
    let reader = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0x57);
    rt.spawn("main", move || {
        write_file(&*fs, "/m", &vec![0x3Eu8; 2 * PAGE_SIZE]).unwrap();
        // Share once so the pages are verified `InFile` core state — the
        // only provenance the kernel will migrate on its own authority.
        fs.release_path("/m").unwrap();
        assert_eq!(read_file(&*reader, "/m").unwrap().len(), 2 * PAGE_SIZE);
        let (_, _, pages) = fs.debug_file_pages("/m").unwrap();
        let victim = pages[1].unwrap();
        let fd = fs.open("/m", OpenFlags::RDWR, Mode(0o666)).unwrap();
        let before = accounted(&kernel);
        for _ in 0..3 {
            dev.poison_line(victim, 2);
            kernel.scrub_pass(PAGES as usize); // Observes the fault.
            // The owner's full-line store repairs the poison each time.
            assert_eq!(fs.pwrite(fd, PAGE_SIZE as u64 + 2 * 64, &[0x3E; 64]).unwrap(), 64);
        }
        // While the owner holds a live mapping the page must NOT move —
        // the LibFS caches its location in auxiliary state.
        let rep = kernel.scrub_pass(PAGES as usize);
        assert_eq!(rep.migrated, 0, "migrated under a live mapping: {rep:?}");
        // Quiesce: close the fd and hand the file back to core state.
        fs.close(fd).unwrap();
        fs.release_path("/m").unwrap();
        // Now the page is clean, quiescent, and past the threshold: migrate.
        let rep = kernel.scrub_pass(PAGES as usize);
        assert!(rep.migrated >= 1, "clean flaky page not migrated: {rep:?}");
        assert_eq!(kernel.retired_page_count(), 1);
        // Conserved: the fresh frame left the pool, the flaky one retired.
        assert_eq!(accounted(&kernel), before, "migration must conserve the sum");
        // A fresh mount rebuilds from core state and sees the new frame.
        let late =
            ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
        let (_, _, after) = late.debug_file_pages("/m").unwrap();
        assert_ne!(after[1].unwrap(), victim, "index slot must point at the fresh frame");
        // The client never noticed: same bytes, same size.
        let buf = read_file(&*late, "/m").unwrap();
        assert_eq!(buf.len(), 2 * PAGE_SIZE);
        assert!(buf.iter().all(|&b| b == 0x3E));
    });
    rt.run();
}

/// A grant its holder has released is nobody's live mapping (lazy release,
/// DESIGN.md §9): the patrol ends a reader's released grant on the flaky
/// page's file and migrates the page; the reader's next read re-maps and
/// gets the fresh frame.
#[test]
fn migration_goes_ahead_under_a_released_read_grant() {
    let (dev, kernel, fs) = world(ArckFsConfig::no_delegation());
    let reader = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0x59);
    rt.spawn("main", move || {
        write_file(&*fs, "/m", &vec![0x3Eu8; 2 * PAGE_SIZE]).unwrap();
        fs.release_path("/m").unwrap();
        assert_eq!(read_file(&*reader, "/m").unwrap().len(), 2 * PAGE_SIZE);
        let (_, _, pages) = fs.debug_file_pages("/m").unwrap();
        let victim = pages[1].unwrap();
        let fd = fs.open("/m", OpenFlags::RDWR, Mode(0o666)).unwrap();
        for _ in 0..3 {
            dev.poison_line(victim, 2);
            kernel.scrub_pass(PAGES as usize);
            assert_eq!(fs.pwrite(fd, PAGE_SIZE as u64 + 2 * 64, &[0x3E; 64]).unwrap(), 64);
        }
        fs.close(fd).unwrap();
        fs.release_path("/m").unwrap();
        // The reader's map vets the writer's work and ends its released
        // grant; then the reader lets go, and keeps its read PTEs.
        assert_eq!(read_file(&*reader, "/m").unwrap().len(), 2 * PAGE_SIZE);
        reader.release_path("/m").unwrap();
        let held = || dev.mmu_perm(reader.actor(), victim).unwrap();
        assert_eq!(held(), Some(trio_nvm::PagePerm::Read));
        let rep = kernel.scrub_pass(PAGES as usize);
        assert!(rep.migrated >= 1, "migration refused under a released grant: {rep:?}");
        assert_eq!(held(), None, "the released grant ended first");
        let buf = read_file(&*reader, "/m").unwrap();
        assert!(buf.len() == 2 * PAGE_SIZE && buf.iter().all(|&b| b == 0x3E));
        assert_ne!(reader.debug_file_pages("/m").unwrap().2[1], Some(victim));
        let audit = kernel.audit_mmu_against_books();
        assert!(audit.is_clean(), "page tables disagree with the books: {audit:?}");
    });
    rt.run();
}

/// A data page of a live pool-page file that the patrol condemned (poison
/// it cannot repair in a page that is not the kernel's) is retired when the
/// file's reclaim runs, not recycled into the unlinker's pool; every frame
/// is still in exactly one place. The file is small and the kernel has
/// never seen it, so its unlink waits in the LibFS's reclaim batch: until
/// the release of `/` flushes it, the frame is still the LibFS's, in no
/// pool.
#[test]
fn condemned_page_of_an_unlinked_file_is_retired_not_recycled() {
    let (dev, kernel, fs) = world(ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0x5A);
    rt.spawn("main", move || {
        write_file(&*fs, "/c", &vec![0x5Au8; 2 * PAGE_SIZE]).unwrap();
        let victim = fs.debug_file_pages("/c").unwrap().2[0].unwrap();
        dev.poison_line(victim, 5);
        for _ in 0..3 {
            kernel.scrub_pass(PAGES as usize);
        }
        assert_eq!(kernel.retired_page_count(), 0, "condemned, not yet retired");
        let retired = kernel.media_stats().snapshot().pages_retired;

        fs.unlink("/c").unwrap();
        assert!(!fs.debug_pool_holds(victim), "recycled before the batch ran");
        assert_eq!(kernel.media_stats().snapshot().pages_retired, retired, "retired at the unlink");
        assert_eq!(kernel.retired_page_count(), 0);
        fs.release_path("/").unwrap();
        assert!(!fs.debug_pool_holds(victim), "recycled into the pool");
        assert_eq!(kernel.media_stats().snapshot().pages_retired, retired + 1);
        assert_eq!(kernel.retired_page_count(), 1);
        assert_eq!(dev.mmu_perm(fs.actor(), victim).unwrap(), None, "recycled into the pool");
        // Handed out: the LibFS's pool and the root's chain, all its to write.
        let mappings = dev.mappings();
        let handed_out = mappings
            .iter()
            .filter(|(_, a, perm)| *a == fs.actor() && *perm == trio_nvm::PagePerm::Write)
            .count();
        assert!(mappings.iter().all(|(p, _, _)| *p != victim));
        let idle = kernel.free_page_count()
            + kernel.cached_page_count()
            + kernel.limbo_page_count()
            + kernel.deferred_page_count()
            + kernel.retired_page_count();
        assert_eq!(idle + handed_out, PAGES as usize - 2, "pages not conserved");
        let audit = kernel.audit_mmu_against_books();
        assert!(audit.is_clean(), "page tables disagree with the books: {audit:?}");
    });
    rt.run();
}

// ---------------------------------------------------------------------
// Crash points inside the repair path.
// ---------------------------------------------------------------------

/// Recovery's superblock twin repair is crash-idempotent: a crash planted
/// mid-repair leaves a state the next recovery repairs again, converging
/// to two sealed copies and a clean fsck.
#[test]
fn crash_inside_recovery_repair_is_idempotent() {
    for k in 0..6u64 {
        let (dev, kernel, fs) = world(ArckFsConfig::no_delegation());
        let rt = SimRuntime::new(0x58 + k);
        let fs2 = Arc::clone(&fs);
        rt.spawn("setup", move || {
            write_file(&*fs2, "/pin", b"acked and durable").unwrap();
        });
        rt.run();
        drop(fs);
        drop(kernel);
        dev.crash();
        // Fault the primary, then crash at the k-th store of the repair.
        dev.poison_line(SUPERBLOCK_PAGE, 0);
        dev.arm_crash_plan(FaultPlan::crash_at_point(k));
        let _ = KernelController::recover(Arc::clone(&dev), KernelConfig::default());
        dev.crash();
        // Second recovery with no plan must converge.
        let kernel2 = KernelController::recover(Arc::clone(&dev), KernelConfig::default())
            .unwrap_or_else(|e| panic!("re-recovery failed at crash point {k}: {e:?}"));
        assert!(kernel2.fsck().is_empty(), "fsck dirty after crash point {k}");
        let kh = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
        assert_eq!(SuperblockRef::new(&kh).scrub(), Ok(SbHealth::Clean), "crash point {k}");
        let fs2 = ArckFs::mount(kernel2, 1000, 1000, ArckFsConfig::no_delegation());
        assert_eq!(read_file(&*fs2, "/pin").unwrap(), b"acked and durable");
    }
}

// ---------------------------------------------------------------------
// The campaign.
// ---------------------------------------------------------------------

/// One seeded iteration: live delegated traffic, 1–3 injected media
/// faults, full-device patrol, then the verdicts.
fn campaign_iter(case: Case) -> Tally {
    let (seed, rng) = (case.sub_seed(), &mut case.rng());
    let (dev, kernel, fs) = world(ArckFsConfig::default());
    let mut t = Tally::default();

    // Traffic: a delegated hashed write, rename-journal activity, and a
    // shared (verified, InFile) file — every repair route armed.
    let payload = vec![(rng.next_u64() as u8) | 1; 64 * 1024];
    let (fs2, k2, payload2) = (Arc::clone(&fs), Arc::clone(&kernel), payload.clone());
    let rt = SimRuntime::new(seed);
    rt.spawn("traffic", move || {
        k2.delegation().start();
        let fd = fs2.open("/data", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        assert_eq!(fs2.pwrite(fd, 0, &payload2).unwrap(), payload2.len());
        fs2.close(fd).unwrap();
        fs2.create("/tmp0", Mode(0o666)).unwrap();
        fs2.rename("/tmp0", "/tmp1").unwrap();
        fs2.register_journal_twins();
        write_file(&*fs2, "/shared", &vec![0x77u8; 2 * PAGE_SIZE]).unwrap();
        fs2.release_path("/shared").unwrap();
        k2.delegation().shutdown();
    });
    rt.run();

    let reader = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(seed);
    rt.spawn("verify-share", move || {
        assert_eq!(read_file(&*reader, "/shared").unwrap().len(), 2 * PAGE_SIZE);
    });
    rt.run();

    // Fault injection, seeded and replayable.
    let jpair = fs.journal_page_pairs().into_iter().find_map(|(p, m)| m.map(|m| (p, m)));
    let (_, _, dpages) = fs.debug_file_pages("/data").unwrap();
    let mut meta_faults = 0u64;
    let mut data_faults = 0u64;
    // Single-fault discipline per replicated pair: dual-copy metadata
    // tolerates any one media fault at a time (the architecture's claim);
    // a double fault of both copies is beyond any replication scheme.
    for _ in 0..1 + rng.gen_range(3) {
        match rng.gen_range(6) {
            0 => {
                if dev.page_poisoned_lines(superblock_replica_page(PAGES)).is_empty() {
                    dev.poison_line(SUPERBLOCK_PAGE, 0);
                    meta_faults += 1;
                }
            }
            1 => {
                if dev.page_poisoned_lines(SUPERBLOCK_PAGE).is_empty() {
                    dev.poison_line(superblock_replica_page(PAGES), 0);
                    meta_faults += 1;
                }
            }
            2 => {
                if let Some((p, m)) = jpair {
                    let (victim, twin) = if rng.one_in(2) { (p, m) } else { (m, p) };
                    if dev.page_poisoned_lines(twin).is_empty() {
                        dev.poison_line(victim, 0);
                        meta_faults += 1;
                    }
                }
            }
            3 => {
                let i = rng.gen_range(dpages.len() as u64) as usize;
                if let Some(p) = dpages[i] {
                    dev.poison_line(p, rng.gen_range(64) as u16);
                    data_faults += 1;
                }
            }
            4 => {
                let i = rng.gen_range(dpages.len() as u64) as usize;
                if let Some(p) = dpages[i] {
                    if dev.rot_byte(p, rng.gen_range(PAGE_SIZE as u64) as usize) {
                        data_faults += 1;
                    }
                }
            }
            _ => {
                // A page deep in the free pool.
                dev.poison_line(PageId(PAGES - 2 - rng.gen_range(64)), rng.gen_range(64) as u16);
            }
        }
    }
    t.add("metadata_faults_injected", meta_faults);
    t.add("data_faults_injected", data_faults);

    // Patrol; two passes so fence-offs settle.
    let before = accounted(&kernel);
    let k4 = Arc::clone(&kernel);
    let rt = SimRuntime::new(seed);
    rt.spawn("patrol", move || {
        for _ in 0..2 {
            k4.scrub_pass(PAGES as usize);
        }
    });
    rt.run();
    assert_eq!(accounted(&kernel), before, "the patrol broke free + cached + retired");

    // Verdicts. Metadata: every injected fault must be repaired — both
    // superblock copies sealed and identical, journal twins poison-free
    // and still valid for recovery.
    let kh = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
    let mut meta_ok = true;
    if SuperblockRef::new(&kh).scrub() != Ok(SbHealth::Clean) {
        meta_ok = false;
    }
    if let Some((p, m)) = jpair {
        if !dev.page_poisoned_lines(p).is_empty() || !dev.page_poisoned_lines(m).is_empty() {
            meta_ok = false;
        }
        if arckfs::journal::Journal::recover_pairs(&kh, &[(p, Some(m))]).is_err() {
            meta_ok = false;
        }
    }
    assert!(meta_ok, "injected metadata fault survived the patrol");
    t.add("metadata_faults_repaired", meta_faults);

    // Data: acked bytes either read back exactly or fail loudly. Any
    // successful read returning wrong bytes is silent loss — the one
    // unforgivable outcome.
    let rt = SimRuntime::new(seed);
    let fs5 = Arc::clone(&fs);
    let loud = Arc::new(trio_sim::plock::Mutex::new(0u64));
    let loud2 = Arc::clone(&loud);
    rt.spawn("readback", move || {
        let fd = fs5.open("/data", OpenFlags::RDONLY, Mode(0)).unwrap();
        for (i, chunk) in payload.chunks(PAGE_SIZE).enumerate() {
            let mut buf = vec![0u8; chunk.len()];
            match fs5.pread(fd, (i * PAGE_SIZE) as u64, &mut buf) {
                Ok(_) => assert!(buf == chunk, "silent data loss: page {i} read back wrong bytes"),
                Err(_) => *loud2.lock() += 1,
            }
        }
        fs5.close(fd).unwrap();
    });
    rt.run();
    t.add("data_faults_loud", *loud.lock());

    // Persistence order of the traffic, the patrol's repairs and the
    // journal recovery above; the page tables against the books.
    campaign::oracle_tail(&kernel, case);
    t.add("pages_retired", kernel.retired_page_count() as u64);
    t
}

/// The seeded, replayable media-fault campaign (the media gate's 500
/// iterations run through here). Every injected metadata fault must be
/// detected and repaired; acked-durable data must never be silently
/// wrong; `free + cached + retired` must be conserved throughout.
#[test]
fn media_fault_campaign() {
    let t = campaign::seeded("media_fault_campaign", MEDIA_SEED, 40, campaign_iter);
    if t.get("iterations") > 1 {
        assert!(t.get("metadata_faults_injected") > 0, "the campaign injected no metadata fault");
    }
    assert_eq!(t.get("metadata_faults_repaired"), t.get("metadata_faults_injected"));
}

/// Replayability: the same case yields the same tally.
#[test]
fn media_iteration_is_deterministic_and_replayable() {
    campaign::assert_replays(MEDIA_SEED, &[0, 1, 2], campaign_iter);
}

/// The patrol daemon: `start_patrol` spawns a sim-thread that sweeps on
/// its own clock, heals faults injected while it runs, and joins cleanly
/// on `stop()`. Live traffic proceeds underneath it.
#[test]
fn patrol_daemon_heals_in_background() {
    let (dev, kernel, fs) = world(ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0x59);
    rt.spawn("main", move || {
        // Small budget: a full device sweep needs many passes, proving
        // the cursor persists across them.
        let patrol = kernel.start_patrol(1024, 10_000);
        write_file(&*fs, "/live", &vec![0x44u8; PAGE_SIZE]).unwrap();
        for i in 0..5u64 {
            dev.poison_line(PageId(PAGES - 3 - i), (i % 8) as u16);
            trio_sim::work(200_000); // Let a few passes elapse.
        }
        trio_sim::work(2_000_000);
        patrol.stop();
        let snap = kernel.media_stats().snapshot();
        assert!(snap.scrub_passes >= 16, "daemon barely ran: {snap:?}");
        assert_eq!(dev.poisoned_lines(), 0, "daemon left poison behind");
        assert_eq!(read_file(&*fs, "/live").unwrap(), vec![0x44u8; PAGE_SIZE]);
    });
    rt.run();
}
