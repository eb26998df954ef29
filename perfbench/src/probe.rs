//! The probe pass: each layer's public functions, called directly inside
//! one small sim and timed with `trio_sim::now()` around the call. A
//! probe has no load and no neighbours, so it gives the cost of the layer
//! alone — the floor under the per-op figures of the workloads.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use trio_fsapi::{FsError, Mode};
use trio_kernel::mapping::MapTarget;
use trio_kernel::{KernelConfig, KernelController};
use trio_layout::{
    walk_file, CoreFileType, DirentData, DirentLoc, DirentRef, IndexPageRef, ROOT_INO,
};
use trio_nvm::{
    ActorId, BandwidthModel, DeviceConfig, NvmDevice, NvmHandle, PageId, Topology, KERNEL_ACTOR,
    PAGE_SIZE,
};
use trio_sim::plock::Mutex;
use trio_sim::SimRuntime;
use trio_verifier::{
    InoProvenance, PageProvenance, ResourceView, ShadowAttr, Verifier, VerifyRequest,
};

/// `(probe name, value)`; names ending in `_hns` are host nanoseconds,
/// all others virtual nanoseconds.
pub type Probes = Vec<(&'static str, f64)>;

/// Looks a probe up by name (0 when it did not run).
pub fn probe(probes: &Probes, name: &str) -> f64 {
    probes
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Virtual ns `f` takes.
fn vns<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = trio_sim::now();
    let out = f();
    ((trio_sim::now() - t0) as f64, out)
}

/// The verifier sees every page and ino as freshly allocated to the
/// actor whose directory it walks.
struct FreshView;

impl ResourceView for FreshView {
    fn page_provenance(&self, _p: PageId) -> PageProvenance {
        PageProvenance::AllocatedTo(ActorId(7))
    }
    fn ino_provenance(&self, _i: u64) -> InoProvenance {
        InoProvenance::AllocatedTo(ActorId(7))
    }
    fn shadow_attr(&self, _i: u64) -> Option<ShadowAttr> {
        None
    }
    fn is_mapped(&self, _i: u64) -> bool {
        false
    }
}

fn device(nodes: usize) -> Arc<NvmDevice> {
    Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(nodes, 4096),
        model: BandwidthModel::default(),
        track_persistence: false,
    }))
}

/// Raw device access: 4 KiB local read and write, 64 KiB remote write.
fn nvm_probes(out: &mut Probes) -> Result<(), FsError> {
    let dev = device(2);
    let h = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
    trio_nvm::handle::set_home_node(0);
    let mut buf = vec![0x5Au8; PAGE_SIZE];
    let local = PageId(8);
    out.push(("nvm.write4k", vns(|| h.write(local, 0, &buf)).0));
    out.push(("nvm.read4k", vns(|| h.read(local, 0, &mut buf)).0));
    let first_remote = dev.topology().first_page_of(1).0;
    let remote: Vec<PageId> = (first_remote..first_remote + 16).map(PageId).collect();
    let data = vec![0xA5u8; 16 * PAGE_SIZE];
    let (t, res) = vns(|| h.write_extent(&remote, 0, &data).map(|_| ()));
    res.map_err(|_| FsError::Corrupted)?;
    out.push(("nvm.write64k_remote", t));
    Ok(())
}

/// Core-state layout: a 600-page index walk and the dirent codec.
fn layout_probes(out: &mut Probes) -> Result<(), FsError> {
    let h = NvmHandle::new(device(1), KERNEL_ACTOR);
    let (ip1, ip2) = (PageId(10), PageId(11));
    let set = |ip, i: usize, page: u64| {
        IndexPageRef::new(&h, ip)
            .set_entry(i, page)
            .map_err(|_| FsError::Corrupted)
    };
    for i in 0..511 {
        set(ip1, i, 100 + i as u64)?;
    }
    IndexPageRef::new(&h, ip1)
        .set_next(ip2.0)
        .map_err(|_| FsError::Corrupted)?;
    for i in 0..89 {
        set(ip2, i, 700 + i as u64)?;
    }
    // Neither call charges virtual time, so both read the host clock.
    const WALKS: u32 = 200;
    let t0 = Instant::now();
    for _ in 0..WALKS {
        std::hint::black_box(walk_file(&h, ip1.0, 64)).map_err(|_| FsError::Corrupted)?;
    }
    out.push((
        "layout.walk600_hns",
        t0.elapsed().as_nanos() as f64 / WALKS as f64,
    ));

    let d = DirentData::new(
        b"some-file-name.dat",
        CoreFileType::Regular,
        Mode::RW,
        1000,
        1000,
    );
    const ITERS: u32 = 20_000;
    let t0 = Instant::now();
    for _ in 0..ITERS {
        let img = std::hint::black_box(&d).encode_bytes();
        std::hint::black_box(DirentData::decode_bytes(std::hint::black_box(&img)));
    }
    out.push((
        "layout.dirent_codec_hns",
        t0.elapsed().as_nanos() as f64 / ITERS as f64,
    ));
    Ok(())
}

/// One `Verifier::verify` over a 160-entry directory.
fn verifier_probe(out: &mut Probes) -> Result<(), FsError> {
    let dev = device(1);
    let h = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
    let bad = |_| FsError::Corrupted;
    let ip = PageId(5);
    for (slot, page) in (20..30u64).enumerate() {
        IndexPageRef::new(&h, ip)
            .set_entry(slot, page)
            .map_err(bad)?;
        for s in 0..16 {
            let idx = (page - 20) * 16 + s as u64;
            let d = DirentData::new(
                format!("entry-{idx:04}").as_bytes(),
                CoreFileType::Regular,
                Mode::RW,
                0,
                0,
            );
            let r = DirentRef::new(
                &h,
                DirentLoc {
                    page: PageId(page),
                    slot: s,
                },
            );
            let w = r.prepare(&d).map_err(bad)?;
            r.publish(1000 + idx, &w).map_err(bad)?;
        }
    }
    let own = DirentLoc {
        page: PageId(3),
        slot: 0,
    };
    let mut dd = DirentData::new(b"bigdir", CoreFileType::Directory, Mode::RWX, 0, 0);
    dd.first_index = ip.0;
    dd.size = 160;
    let r = DirentRef::new(&h, own);
    let w = r.prepare(&dd).map_err(bad)?;
    r.publish(999, &w).map_err(bad)?;
    r.set_first_index(ip.0).map_err(bad)?;
    r.set_size(160).map_err(bad)?;

    let verifier = Verifier::new(NvmHandle::new(dev, KERNEL_ACTOR));
    let no_checkpoint: HashSet<u64> = HashSet::new();
    let req = VerifyRequest {
        ino: 999,
        ftype: CoreFileType::Directory,
        dirent: Some(own),
        first_index: ip.0,
        dirty_actor: ActorId(7),
        checkpoint_children: Some(&no_checkpoint),
        max_index_pages: 64,
        max_dir_entries: 1 << 20,
    };
    let (t, report) = vns(|| verifier.verify(&req, &FreshView));
    if !report.ok() {
        return Err(FsError::Corrupted);
    }
    out.push(("verifier.dir160", t));
    Ok(())
}

/// The kernel's allocator and handover calls, and one delegated 64 KiB
/// extent each way through a started pool.
fn kernel_probes(out: &mut Probes) -> Result<(), FsError> {
    let kernel = KernelController::format(device(2), KernelConfig::default());
    let actor = kernel.register_libfs(1000, 1000).actor;
    trio_nvm::handle::set_home_node(0);
    let (t, cold) = vns(|| kernel.alloc_pages(actor, 16, Some(0)));
    out.push(("kernel.alloc_pages16_refill", t));
    let (t, warm) = vns(|| kernel.alloc_pages(actor, 16, Some(0)));
    out.push(("kernel.alloc_pages16_cached", t));
    let (cold, warm) = (cold?, warm?);

    let pool = kernel.delegation();
    let _ = pool.start();
    let grant = pool
        .grants()
        .register(actor, vec![0xC3u8; 16 * PAGE_SIZE].into());
    let gref = pool.grants().window(actor, grant, 0, 16 * PAGE_SIZE);
    let (t, wrote) = vns(|| gref.and_then(|g| pool.write_extent_granted(actor, &warm, 0, g)));
    out.push(("kernel.deleg_write64k", t));
    let mut buf = vec![0u8; 16 * PAGE_SIZE];
    let (t, read) = vns(|| pool.read_extent(actor, &warm, 0, &mut buf));
    out.push(("kernel.deleg_read64k", t));
    pool.shutdown();
    wrote.and(read).map_err(|_| FsError::Corrupted)?;

    out.push((
        "kernel.free_pages16",
        vns(|| kernel.free_pages(actor, &cold)).0,
    ));
    let (t, grant) = vns(|| kernel.map(actor, MapTarget::Root, true));
    out.push(("kernel.map_root_write", t));
    grant?;
    out.push((
        "kernel.commit_root",
        vns(|| kernel.commit(actor, ROOT_INO)).0,
    ));
    out.push((
        "kernel.release_root",
        vns(|| kernel.release(actor, ROOT_INO)).0,
    ));
    Ok(())
}

/// The probes of one layer.
type LayerProbes = fn(&mut Probes) -> Result<(), FsError>;

/// Runs every probe. `Err` names the layer whose probe failed.
pub fn run() -> Result<Probes, &'static str> {
    let out: Arc<Mutex<Result<Probes, &'static str>>> = Arc::new(Mutex::new(Ok(Vec::new())));
    let rt = SimRuntime::new(0);
    {
        let out = Arc::clone(&out);
        rt.spawn("probes", move || {
            let mut probes = Vec::new();
            let layers: [(&str, LayerProbes); 4] = [
                ("trio-nvm", nvm_probes),
                ("trio-layout", layout_probes),
                ("trio-verifier", verifier_probe),
                ("trio-kernel", kernel_probes),
            ];
            let failed = layers.iter().find(|(_, f)| f(&mut probes).is_err());
            *out.lock() = match failed {
                Some((layer, _)) => Err(layer),
                None => Ok(probes),
            };
        });
    }
    rt.run();
    let res = std::mem::replace(&mut *out.lock(), Ok(Vec::new()));
    res
}
