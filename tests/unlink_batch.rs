//! The LibFS's unlink reclaim batch (DESIGN.md §21): a file of at most one
//! stripe unit (64 KiB) linked under its directory's current grant — a
//! file the kernel has never seen — waits in the batch with its chain
//! head, and one kernel trap reclaims 32 of them. A larger file is
//! reclaimed at its unlink. What waits must survive a crash: recovery
//! finds the queued chains' frames in no file and frees them.

use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::{write_file, FileSystem, Mode};
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{DeviceConfig, NvmDevice, NvmHandle, PageId, PagePerm, Topology, KERNEL_ACTOR};
use trio_sim::cost::KERNEL_TRAP_NS;
use trio_sim::SimRuntime;

const PAGES: usize = 16 * 1024;

fn world() -> (Arc<NvmDevice>, Arc<KernelController>, Arc<ArckFs>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, PAGES),
        track_persistence: true,
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    (dev, kernel, fs)
}

/// Virtual time `f` takes on the sim clock.
fn timed(f: impl FnOnce()) -> u64 {
    let t0 = trio_sim::now();
    f();
    trio_sim::now() - t0
}

/// `path`'s index and data pages.
fn chain(fs: &ArckFs, path: &str) -> Vec<PageId> {
    let (_, index, data) = fs.debug_file_pages(path).unwrap();
    index.into_iter().chain(data.into_iter().flatten()).collect()
}

/// Frames the kernel holds: free, cached, in limbo, deferred, retired.
fn idle(kernel: &KernelController) -> usize {
    kernel.free_page_count()
        + kernel.cached_page_count()
        + kernel.limbo_page_count()
        + kernel.deferred_page_count()
        + kernel.retired_page_count()
}

/// Frames mapped for write to `fs`: its pool, its files, its journal.
fn handed_out(dev: &NvmDevice, fs: &ArckFs) -> usize {
    dev.mappings()
        .iter()
        .filter(|(_, a, perm)| *a == fs.actor() && *perm == PagePerm::Write)
        .count()
}

/// A queued chain is still the LibFS's to write, and in no pool.
fn assert_queued(dev: &NvmDevice, fs: &ArckFs, pages: &[PageId]) {
    for p in pages {
        assert!(!fs.debug_pool_holds(*p), "{p:?} reclaimed at its unlink");
        assert_eq!(dev.mmu_perm(fs.actor(), *p).unwrap(), Some(PagePerm::Write), "{p:?}");
    }
}

/// 31 unlinks of fresh 1 KiB files cost what an empty file's unlink
/// costs: no trap. The 32nd carries the batch's one trap, and the pool
/// gets every queued page back without the kernel mapping a new one.
#[test]
fn small_fresh_unlinks_share_one_trap_in_32() {
    let (dev, kernel, fs) = world();
    let rt = SimRuntime::new(0xB1);
    rt.spawn("t", move || {
        // An empty fresh file's unlink, in a directory of the same depth,
        // then flushed by giving the directory back.
        fs.mkdir("/e", Mode::RWX).unwrap();
        fs.create("/e/x", Mode::RW).unwrap();
        let empty = timed(|| fs.unlink("/e/x").unwrap());
        fs.release_path("/e").unwrap();

        fs.mkdir("/m", Mode::RWX).unwrap();
        let chains: Vec<Vec<PageId>> = (0..32)
            .map(|i| {
                let path = format!("/m/f{i}");
                write_file(&*fs, &path, &[i as u8; 1024]).unwrap();
                chain(&fs, &path)
            })
            .collect();
        let mapped = kernel.path_stats().snapshot().alloc_mapped_pages;
        for (i, pages) in chains.iter().enumerate().take(31) {
            let unlink = timed(|| fs.unlink(&format!("/m/f{i}")).unwrap());
            assert_eq!(unlink, empty, "unlink {i}: {unlink} vns, an empty file's {empty}");
            assert_queued(&dev, &fs, pages);
        }
        let last = timed(|| fs.unlink("/m/f31").unwrap());
        assert!(last >= empty + KERNEL_TRAP_NS, "the 32nd unlink: {last} vns");
        for p in chains.iter().flatten() {
            assert!(fs.debug_pool_holds(*p), "{p:?} not back in the pool");
        }
        assert_eq!(kernel.path_stats().snapshot().alloc_mapped_pages, mapped);
    });
    rt.run();
}

/// The bound is one stripe unit: a fresh 64 KiB file waits in the batch,
/// a fresh 80 KiB one is reclaimed at its unlink.
#[test]
fn a_fresh_file_past_one_stripe_unit_is_reclaimed_at_its_unlink() {
    let (dev, _kernel, fs) = world();
    let rt = SimRuntime::new(0xB2);
    rt.spawn("t", move || {
        write_file(&*fs, "/unit", &vec![1u8; 64 << 10]).unwrap();
        write_file(&*fs, "/big", &vec![2u8; 80 << 10]).unwrap();
        let (unit, big) = (chain(&fs, "/unit"), chain(&fs, "/big"));
        fs.unlink("/unit").unwrap();
        assert_queued(&dev, &fs, &unit);
        let unlink = timed(|| fs.unlink("/big").unwrap());
        assert!(unlink >= KERNEL_TRAP_NS, "unlink of /big: {unlink} vns");
        for p in &big {
            assert!(fs.debug_pool_holds(*p), "{p:?} of /big not back in the pool");
        }
        assert_queued(&dev, &fs, &unit);
    });
    rt.run();
}

/// A crash with small files' chains still queued: the journal, the
/// kernel's recovery and fsck find a clean tree, and every frame is in
/// exactly one place — the queued chains' frames are free again.
#[test]
fn crash_with_small_chains_queued_recovers_clean_and_conserves_pages() {
    let (dev, kernel, fs) = world();
    let rt = SimRuntime::new(0xB3);
    let fs1 = Arc::clone(&fs);
    let d = Arc::clone(&dev);
    rt.spawn("t", move || {
        fs1.mkdir("/m", Mode::RWX).unwrap();
        for i in 0..8 {
            write_file(&*fs1, &format!("/m/f{i}"), &[i as u8; 1024]).unwrap();
        }
        // The journal's shard is allocated by a rename.
        fs1.rename("/m/f0", "/m/g0").unwrap();
        let mut queued = chain(&fs1, "/m/g0");
        fs1.unlink("/m/g0").unwrap();
        for i in 1..8 {
            let path = format!("/m/f{i}");
            queued.extend(chain(&fs1, &path));
            fs1.unlink(&path).unwrap();
        }
        assert_queued(&d, &fs1, &queued);
    });
    rt.run();
    let journal = fs.journal_page_pairs();
    drop((fs, kernel));
    dev.crash();

    let kh = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
    arckfs::journal::Journal::recover_pairs(&kh, &journal).unwrap();
    let kernel = KernelController::recover(Arc::clone(&dev), KernelConfig::default()).unwrap();
    assert!(kernel.fsck().is_empty(), "fsck after the crash: {:?}", kernel.fsck());
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    let rt = SimRuntime::new(0xB4);
    let d = Arc::clone(&dev);
    rt.spawn("t", move || {
        // Map `/` and `/m` for write: every frame of the tree is then
        // handed out to the new mount.
        fs.create("/y", Mode::RW).unwrap();
        fs.create("/m/x", Mode::RW).unwrap();
        assert_eq!(fs.readdir("/m").unwrap().len(), 1);
        // The superblock and its replica are no one's to write.
        assert_eq!(idle(&kernel) + handed_out(&d, &fs), PAGES - 2, "pages not conserved");
        let audit = kernel.audit_mmu_against_books();
        assert!(audit.is_clean(), "page tables disagree with the books: {audit:?}");
    });
    rt.run();
    dev.take_sanitize_report(0xB3)
        .expect_clean("crash_with_small_chains_queued_recovers_clean_and_conserves_pages");
}
