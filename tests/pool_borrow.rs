//! A dry pool bucket lends a lone file page from a sibling bucket before
//! it traps for a refill (DESIGN.md §12 "Two layers"): a file's index page
//! and a data run of one page may come from any bucket, the caller's home
//! first; directory pages and longer runs keep their node.

use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig};
use trio_fsapi::{write_file, FileSystem, Mode, OpenFlags};
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{DeviceConfig, NvmDevice};
use trio_sim::sync::SimBarrier;
use trio_sim::SimRuntime;

const CLIENTS: usize = 8;
const BOXES: usize = 16;
const CYCLES: usize = 24;
const MSG: usize = 1024;

fn world() -> (Arc<KernelController>, Arc<ArckFs>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig::eight_node(4096)));
    let kernel = KernelController::format(dev, KernelConfig::default());
    // Striped, as mounted by default; 1 KiB and 8 KiB writes never delegate.
    let cfg = ArckFsConfig { delegation: false, ..ArckFsConfig::default() };
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, cfg);
    (kernel, fs)
}

fn mapped(kernel: &KernelController) -> u64 {
    kernel.path_stats().snapshot().alloc_mapped_pages
}

/// Appends one 1 KiB message at `off` and syncs it.
fn deliver(fs: &ArckFs, path: &str, flags: OpenFlags, off: usize) {
    let fd = fs.open(path, flags, Mode::RW).unwrap();
    assert_eq!(fs.pwrite(fd, off as u64, &[7u8; MSG]).unwrap(), MSG);
    fs.fsync(fd).unwrap();
    fs.close(fd).unwrap();
}

/// The Varmail cycle on one mount: one thread on node 0 fills a private
/// directory per client, then one client per node deletes a mailbox,
/// creates it with a 1 KiB message and appends a second. Each new file's
/// index page and its one data page come from the pool; a client whose
/// home bucket is dry borrows them from the buckets the prefill and the
/// unlink batch's flushes stocked, so the window maps only what every
/// bucket together lacks. At the parent of this change, which refilled
/// every dry bucket, the window mapped 384 pages.
#[test]
fn varmail_cycles_borrow_before_they_refill() {
    let (kernel, fs) = world();
    let rt = SimRuntime::new(0xB0);
    rt.spawn("prefill", move || {
        let create = OpenFlags::CREATE | OpenFlags::WRONLY;
        for c in 0..CLIENTS {
            fs.mkdir(&format!("/v{c}"), Mode::RWX).unwrap();
            for b in 0..BOXES {
                deliver(&fs, &format!("/v{c}/mb{b:02}"), create, 0);
            }
        }
        let before = mapped(&kernel);
        let barrier = Arc::new(SimBarrier::new(CLIENTS));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (fs, barrier) = (Arc::clone(&fs), Arc::clone(&barrier));
                trio_sim::spawn("client", move || {
                    trio_nvm::handle::set_home_node(c);
                    barrier.wait();
                    for i in 0..CYCLES {
                        let path = format!("/v{c}/mb{:02}", (i * 7 + c) % BOXES);
                        fs.unlink(&path).unwrap();
                        deliver(&fs, &path, create, 0);
                        deliver(&fs, &path, OpenFlags::RDWR, MSG);
                    }
                })
            })
            .collect();
        for h in clients {
            h.join();
        }
        assert_eq!(mapped(&kernel) - before, 128, "pages the window mapped");
    });
    rt.run();
}

/// From a dry home bucket, a 1 KiB file borrows both its pages and maps
/// nothing, while a two-page run keeps its stripe node and a new
/// directory's pages come from a refill of the home node: a remote dirent
/// page would cost every later op in that directory.
#[test]
fn runs_and_directory_pages_keep_their_node() {
    let (kernel, fs) = world();
    let rt = SimRuntime::new(0xB2);
    rt.spawn("t", move || {
        let topo = kernel.device().topology();
        // Node 0's bucket keeps what its refills left over.
        write_file(&*fs, "/stock", &[1u8; MSG]).unwrap();
        trio_nvm::handle::set_home_node(5);
        let before = mapped(&kernel);
        write_file(&*fs, "/g", &[2u8; MSG]).unwrap();
        assert_eq!(mapped(&kernel), before, "a lone file page trapped");

        write_file(&*fs, "/r", &[3u8; 2 * 4096]).unwrap();
        let stripe_node = fs.stat("/r").unwrap().ino as usize % topo.nodes;
        let (_, _, data) = fs.debug_file_pages("/r").unwrap();
        assert!(data.iter().flatten().all(|p| topo.node_of(*p) == stripe_node), "a run borrowed");

        fs.mkdir("/d", Mode::RWX).unwrap();
        fs.create("/d/x", Mode::RW).unwrap();
        let (_, index, data) = fs.debug_file_pages("/d").unwrap();
        let pages: Vec<_> = index.into_iter().chain(data.into_iter().flatten()).collect();
        assert!(!pages.is_empty());
        assert!(pages.iter().all(|p| topo.node_of(*p) == 5), "a directory page borrowed");
    });
    rt.run();
}
