//! Microbenchmarks on the core data structures (wall-clock, no
//! simulation) — the ablation-level measurements behind DESIGN.md's
//! data-structure choices: dirent codec, directory hash table vs linear
//! scan, the defensive index walk, and the verifier itself.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use trio_fsapi::Mode;
use trio_layout::{
    walk_file, CoreFileType, DirentData, DirentLoc, DirentRef, IndexPageRef,
};
use trio_nvm::{ActorId, DeviceConfig, NvmDevice, NvmHandle, PageId, KERNEL_ACTOR};
use trio_verifier::{
    InoProvenance, PageProvenance, ResourceView, ShadowAttr, VerifyRequest, Verifier,
};

/// Times `op` for ~200 ms of wall clock (after a short warm-up) and
/// prints mean ns/op. Batched so `Instant::now` overhead stays negligible.
fn bench<R>(name: &str, mut op: impl FnMut() -> R) {
    const BATCH: u64 = 64;
    const TARGET_MS: u128 = 200;
    for _ in 0..BATCH {
        std::hint::black_box(op());
    }
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed().as_millis() < TARGET_MS {
        for _ in 0..BATCH {
            std::hint::black_box(op());
        }
        iters += BATCH;
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<28} {ns:>10.1} ns/op   ({iters} iters)");
}

fn dirent_codec() {
    let d = DirentData::new(b"some-file-name.dat", CoreFileType::Regular, Mode::RW, 1000, 1000);
    bench("dirent_encode", || d.encode_bytes());
    let img = d.encode_bytes();
    bench("dirent_decode", || DirentData::decode_bytes(&img));
}

fn dir_hash_table() {
    use arckfs::node::{DirAux, DirEntryAux};
    let aux = DirAux::new();
    for i in 0..1000 {
        aux.insert(DirEntryAux {
            name: format!("file-{i:05}"),
            ino: i + 10,
            loc: DirentLoc { page: PageId(1 + i / 16), slot: (i % 16) as usize },
            ftype: CoreFileType::Regular,
            linked: 1,
            node: Default::default(),
        });
    }
    let mut i = 0u64;
    bench("dir_hash_lookup_1000", || {
        i = (i + 7) % 1000;
        aux.lookup(&format!("file-{i:05}"))
    });
    bench("dir_hash_insert_remove", || {
        aux.insert(DirEntryAux {
            name: "transient".into(),
            ino: 5,
            loc: DirentLoc { page: PageId(1), slot: 0 },
            ftype: CoreFileType::Regular,
            linked: 1,
            node: Default::default(),
        });
        aux.remove("transient");
    });
}

fn index_walk() {
    let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
    let h = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
    // A 2-index-page file with 600 data pages.
    let ip1 = PageId(10);
    let ip2 = PageId(11);
    for i in 0..511usize {
        IndexPageRef::new(&h, ip1).set_entry(i, 100 + i as u64).unwrap();
    }
    IndexPageRef::new(&h, ip1).set_next(ip2.0).unwrap();
    for i in 0..89usize {
        IndexPageRef::new(&h, ip2).set_entry(i, 700 + i as u64).unwrap();
    }
    bench("walk_file_600_pages", || walk_file(&h, ip1.0, 64).unwrap());
}

struct BenchView;
impl ResourceView for BenchView {
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

fn verifier_speed() {
    let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
    let h = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
    // Build a 160-entry directory: index page 5 -> data pages 20..30.
    let ip = PageId(5);
    for (slot, page) in (20..30).enumerate() {
        IndexPageRef::new(&h, ip).set_entry(slot, page).unwrap();
        for s in 0..16 {
            let loc = DirentLoc { page: PageId(page), slot: s };
            let idx = (page - 20) * 16 + s as u64;
            let d = DirentData::new(
                format!("entry-{idx:04}").as_bytes(),
                CoreFileType::Regular,
                Mode::RW,
                0,
                0,
            );
            let r = DirentRef::new(&h, loc);
            let w = r.prepare(&d).unwrap();
            r.publish(1000 + idx, &w).unwrap();
        }
    }
    // The directory's own dirent.
    let own = DirentLoc { page: PageId(3), slot: 0 };
    let mut dd = DirentData::new(b"bigdir", CoreFileType::Directory, Mode::RWX, 0, 0);
    dd.first_index = ip.0;
    dd.size = 160;
    let r = DirentRef::new(&h, own);
    let w = r.prepare(&dd).unwrap();
    r.publish(999, &w).unwrap();
    r.set_first_index(ip.0).unwrap();
    r.set_size(160).unwrap();

    let verifier = Verifier::new(NvmHandle::new(dev, KERNEL_ACTOR));
    #[allow(clippy::disallowed_methods, reason = "an empty set; nothing iterates it")]
    let ck: HashSet<u64> = HashSet::new();
    bench("verify_dir_160_entries", || {
        let req = VerifyRequest {
            ino: 999,
            ftype: CoreFileType::Directory,
            dirent: Some(own),
            first_index: ip.0,
            dirty_actor: ActorId(7),
            checkpoint_children: Some(&ck),
            max_index_pages: 64,
            max_dir_entries: 1 << 20,
        };
        let rep = verifier.verify(&req, &BenchView);
        assert!(rep.ok(), "{:?}", rep.violations);
        rep
    });
}

fn path_stats_counters() {
    use trio_nvm::PathStats;
    let stats = PathStats::new();
    // The counters sit on every read/write; they must stay in the
    // few-nanosecond range or the "op-level observability is free" claim
    // in DESIGN.md §12 is wrong.
    bench("stats_record_direct_4k", || stats.record_direct_bytes(4096, true));
    bench("stats_record_deleg_4k", || {
        stats.record_delegated_bytes(4096, true);
        stats.record_submission(1);
    });
    let mut ns = 100u64;
    bench("stats_record_ring_hop", || {
        ns = ns.wrapping_mul(2862933555777941757).wrapping_add(3037000493) % 1_000_000;
        stats.record_ring_hop(ns)
    });
    bench("stats_snapshot", || stats.snapshot());
}

fn main() {
    println!("# Microbenchmarks: core data structures (mean over >=200ms each)");
    dirent_codec();
    dir_hash_table();
    index_walk();
    verifier_speed();
    path_stats_counters();
}
