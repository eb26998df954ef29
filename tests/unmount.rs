//! Process-exit flows: `ArckFs::unmount` must return resources and force
//! verification of everything the departing process dirtied, so a
//! malicious process cannot leave corruption behind by exiting.

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
fn unmount_returns_pool_pages_to_the_kernel() {
    let (kernel, a, _) = world();
    let rt = SimRuntime::new(61);
    rt.spawn("t", move || {
        let before = kernel.free_page_count();
        write_file(&*a, "/f", &vec![1u8; 64 * 1024]).unwrap();
        assert!(kernel.free_page_count() < before);
        // Data, the file's index page, root's index and dirent page.
        let file_pages = 64 * 1024 / 4096 + 3;
        a.unmount();
        // Everything except the live file's pages is back.
        assert_eq!(kernel.free_page_count(), before - file_pages);
    });
    rt.run();
}

#[test]
fn exiting_process_cannot_leave_unvetted_corruption() {
    let (kernel, evil, victim) = world();
    let rt = SimRuntime::new(62);
    rt.spawn("t", move || {
        // Clean handoff + attacker re-acquires write grants.
        write_file(&*evil, "/dir-less-file", b"seed").unwrap();
        evil.mkdir("/d", Mode(0o777)).unwrap();
        write_file(&*evil, "/d/victim", &vec![5u8; 32 * 1024]).unwrap();
        evil.release_path("/d").unwrap();
        let _ = victim.readdir("/d").unwrap();
        let _ = read_file(&*victim, "/d/victim").unwrap();
        let fd = evil.open("/d/victim", OpenFlags::RDWR, Mode(0o666)).unwrap();
        evil.pwrite(fd, 0, &[5u8]).unwrap();
        evil.close(fd).unwrap();
        run_attack(&evil, Attack::IndexCycle, "/d", "victim").unwrap();
        // The attacker EXITS without releasing: unmount must trigger the
        // kernel's eager verification sweep.
        evil.unmount();
        let events = kernel.take_events();
        assert!(
            events.iter().any(|e| matches!(e, KernelEvent::CorruptionDetected { .. })),
            "unregister swept the dirty file: {events:?}"
        );
        assert!(events.iter().any(|e| matches!(e, KernelEvent::RolledBack { .. })));
        // The victim sees a consistent (restored) file with zero fuss.
        let data = read_file(&*victim, "/d/victim").unwrap();
        assert_eq!(data.len(), 32 * 1024);
    });
    rt.run();
}

#[test]
fn world_remains_usable_after_unmount() {
    let (kernel, a, b) = world();
    let rt = SimRuntime::new(63);
    rt.spawn("t", move || {
        a.mkdir("/x", Mode(0o777)).unwrap();
        write_file(&*a, "/x/f", b"before exit").unwrap();
        a.unmount();
        // B picks up where A left off.
        assert_eq!(read_file(&*b, "/x/f").unwrap(), b"before exit");
        write_file(&*b, "/x/g", b"after exit").unwrap();
        assert_eq!(b.readdir("/x").unwrap().len(), 2);
        // A's actor is gone: a fresh mount gets a new principal.
        let c = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
        assert_ne!(c.actor(), a.actor());
        assert_eq!(read_file(&*c, "/x/g").unwrap(), b"after exit");
    });
    rt.run();
}
