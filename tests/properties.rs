//! Property-style tests on the core data structures and invariants, driven
//! by the in-tree deterministic RNG: the dirent codec, defensive index
//! walks over arbitrary bytes, the LSM store against a model, path parsing,
//! and simulator determinism. Every case derives from a printed seed, so a
//! failure reproduces by construction.

#![allow(
    clippy::disallowed_methods,
    reason = "property tests program the MMU directly and keep plain std sets"
)]

use std::collections::BTreeMap;
use std::sync::Arc;

use trio_layout::{walk_file, CoreFileType, DirentData, DirentLoc, DirentRef, WalkError};
use trio_nvm::{ActorId, DeviceConfig, NvmDevice, NvmHandle, PageId, PagePerm};
use trio_sim::rng::SimRng;

fn handle_rw() -> NvmHandle {
    let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
    for p in 1..64 {
        dev.mmu_map(ActorId(1), PageId(p), PagePerm::Write).unwrap();
    }
    NvmHandle::new(dev, ActorId(1))
}

/// A name over `[a-zA-Z0-9._-]`, 1..=max_len bytes.
fn gen_name(rng: &mut SimRng, max_len: usize) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
    let len = 1 + rng.gen_range(max_len as u64) as usize;
    (0..len).map(|_| CHARS[rng.gen_range(CHARS.len() as u64) as usize] as char).collect()
}

/// Encoding then decoding a dirent preserves every field (names within the
/// 200-byte core-state limit).
#[test]
fn dirent_codec_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0xD1E1);
    for case in 0..64 {
        let is_dir = rng.one_in(2);
        let mut d = DirentData::new(
            gen_name(&mut rng, 200).as_bytes(),
            if is_dir { CoreFileType::Directory } else { CoreFileType::Regular },
            trio_fsapi::Mode(rng.gen_range(0o7777) as u16),
            rng.next_u64() as u32,
            rng.next_u64() as u32,
        );
        d.ino = 1 + rng.gen_range(u64::MAX - 1);
        d.first_index = rng.gen_range(1 << 40);
        d.size = rng.gen_range(1 << 40);
        d.mtime = rng.next_u64();
        let img = d.encode_bytes();
        let back = DirentData::decode_bytes(&img);
        assert_eq!(back, d, "case {case}");
    }
}

/// The defensive walk never panics and never loops on arbitrary page
/// contents — it either returns pages or a structural error.
#[test]
fn walk_survives_arbitrary_index_bytes() {
    let mut rng = SimRng::seed_from_u64(0x3A1C);
    for case in 0..64 {
        let h = handle_rw();
        let words = rng.gen_range(512) as usize;
        for i in 0..words {
            h.write_untimed(PageId(2), i * 8, &rng.next_u64().to_le_bytes()).unwrap();
        }
        match walk_file(&h, 2, 32) {
            Ok(pages) => {
                // Any returned data page must be in range and unique.
                let mut seen = std::collections::HashSet::new();
                for p in pages.all_pages() {
                    assert!(p.0 < h.device().topology().total_pages(), "case {case}");
                    assert!(seen.insert(p.0), "case {case}: duplicate page");
                }
            }
            Err(WalkError::Fault(e)) => panic!("case {case}: no faults expected, got {e}"),
            Err(_) => {} // Structural rejection is the correct outcome.
        }
    }
}

/// Path parsing: joining a parent and validated name always re-parses to
/// the same components.
#[test]
fn path_join_components_roundtrip() {
    let mut rng = SimRng::seed_from_u64(0x9A70);
    for case in 0..64 {
        let n = 1 + rng.gen_range(7) as usize;
        let comps: Vec<String> = (0..n)
            .map(|_| loop {
                let s = gen_name(&mut rng, 20);
                if s != "." && s != ".." {
                    break s;
                }
            })
            .collect();
        let path = format!("/{}", comps.join("/"));
        let parsed = trio_fsapi::path::components(&path).unwrap();
        assert_eq!(parsed, comps, "case {case}");
        let (parent, name) = trio_fsapi::path::split_parent(&path).unwrap();
        assert_eq!(name, comps.last().unwrap().as_str(), "case {case}");
        assert_eq!(parent.len(), comps.len() - 1, "case {case}");
    }
}

/// The prepare/publish protocol makes the slot visible exactly when the ino
/// is published, with all fields intact.
#[test]
fn prepare_publish_protocol() {
    let mut rng = SimRng::seed_from_u64(0x9B11);
    for case in 0..64 {
        let name = gen_name(&mut rng, 32);
        let ino = 1 + rng.gen_range((1 << 48) - 1);
        let h = handle_rw();
        let loc = DirentLoc { page: PageId(3), slot: 5 };
        let d =
            DirentData::new(name.as_bytes(), CoreFileType::Regular, trio_fsapi::Mode::RW, 1, 1);
        let r = DirentRef::new(&h, loc);
        let w = r.prepare(&d).unwrap();
        assert_eq!(r.ino().unwrap(), 0, "case {case}");
        r.publish(ino, &w).unwrap();
        let back = r.load().unwrap();
        assert_eq!(back.ino, ino, "case {case}");
        assert_eq!(back.name, name.as_bytes().to_vec(), "case {case}");
    }
}

/// LSM store vs a model: arbitrary put/delete/get sequences agree with a
/// `BTreeMap` through flushes and compactions.
#[derive(Clone, Debug)]
enum LsmOp {
    Put(u8, Vec<u8>),
    Del(u8),
    Get(u8),
    Flush,
}

fn gen_lsm_op(rng: &mut SimRng) -> LsmOp {
    match rng.gen_range(4) {
        0 => {
            let mut v = vec![0u8; rng.gen_range(64) as usize];
            rng.fill_bytes(&mut v);
            LsmOp::Put(rng.next_u64() as u8, v)
        }
        1 => LsmOp::Del(rng.next_u64() as u8),
        2 => LsmOp::Get(rng.next_u64() as u8),
        _ => LsmOp::Flush,
    }
}

#[test]
fn lsm_matches_model() {
    let mut rng = SimRng::seed_from_u64(0x15A0);
    for case in 0..24 {
        let ops: Vec<LsmOp> =
            (0..1 + rng.gen_range(119) as usize).map(|_| gen_lsm_op(&mut rng)).collect();
        let dev = Arc::new(NvmDevice::new(DeviceConfig {
            topology: trio_nvm::Topology::new(1, 32 * 1024),
            ..DeviceConfig::small()
        }));
        let kernel =
            trio_kernel::KernelController::format(dev, trio_kernel::KernelConfig::default());
        let fs: Arc<dyn trio_fsapi::FileSystem> =
            arckfs::ArckFs::mount(kernel, 0, 0, arckfs::ArckFsConfig::no_delegation());
        let rt = trio_sim::SimRuntime::new(17);
        let failed = Arc::new(trio_sim::plock::Mutex::new(None::<String>));
        let f2 = Arc::clone(&failed);
        rt.spawn("lsm", move || {
            let db = trio_lsmkv::Db::open(
                fs,
                "/db",
                trio_lsmkv::DbConfig { memtable_bytes: 2048, ..Default::default() },
            )
            .unwrap();
            let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
            for op in &ops {
                match op {
                    LsmOp::Put(k, v) => {
                        db.put(&[*k], v).unwrap();
                        model.insert(vec![*k], v.clone());
                    }
                    LsmOp::Del(k) => {
                        db.delete(&[*k]).unwrap();
                        model.remove(&vec![*k]);
                    }
                    LsmOp::Get(k) => {
                        let got = db.get(&[*k]).unwrap();
                        let want = model.get(&vec![*k]).cloned();
                        if got != want {
                            *f2.lock() = Some(format!("get({k}): {got:?} != {want:?}"));
                            return;
                        }
                    }
                    LsmOp::Flush => db.flush().unwrap(),
                }
            }
            // Final sweep.
            for (k, v) in &model {
                let got = db.get(k).unwrap();
                if got.as_ref() != Some(v) {
                    *f2.lock() = Some(format!("final get({k:?}) mismatch"));
                    return;
                }
            }
        });
        rt.run();
        let err = failed.lock().take();
        assert!(err.is_none(), "case {case}: {}", err.unwrap_or_default());
    }
}

/// Simulator determinism: identical seeds and programs produce identical
/// virtual end-times and event counts.
#[test]
fn sim_is_deterministic() {
    fn run(seed: u64, workers: usize) -> (u64, u64) {
        let rt = trio_sim::SimRuntime::new(seed);
        let m = Arc::new(trio_sim::sync::SimMutex::new(0u64));
        for i in 0..workers {
            let m = Arc::clone(&m);
            rt.spawn("w", move || {
                for k in 0..20u64 {
                    trio_sim::work(10 + (i as u64 * 13 + k * 7) % 97);
                    *m.lock() += 1;
                    let r = trio_sim::rng::gen_range(50) + 1;
                    trio_sim::work(r);
                }
            });
        }
        let t = rt.run();
        (t, rt.events())
    }
    let mut rng = SimRng::seed_from_u64(0xDE7);
    for _ in 0..16 {
        let seed = rng.next_u64();
        let workers = 1 + rng.gen_range(7) as usize;
        assert_eq!(run(seed, workers), run(seed, workers), "seed {seed} workers {workers}");
    }
}
