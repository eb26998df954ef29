//! KVFS concurrency and customization-boundary tests.

use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig, KvFs};
use trio_fsapi::{FsError, KeyValueFs};
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::{DeviceConfig, NvmDevice, Topology};
use trio_sim::SimRuntime;

fn world() -> (SimRuntime, Arc<ArckFs>) {
    let rt = SimRuntime::new(51);
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 64 * 1024),
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(dev, KernelConfig::default());
    let fs = ArckFs::mount(kernel, 100, 100, ArckFsConfig::no_delegation());
    (rt, fs)
}

#[test]
fn concurrent_sets_to_distinct_keys_scale() {
    let (rt, fs) = world();
    rt.spawn("main", move || {
        let kv = KvFs::new(fs, "/kv").unwrap();
        let mut hs = Vec::new();
        for t in 0..8u64 {
            let kv = Arc::clone(&kv);
            hs.push(trio_sim::spawn("setter", move || {
                let val = vec![t as u8; 1024];
                for i in 0..40 {
                    kv.kv_set(&format!("t{t}-k{i}"), &val).unwrap();
                }
            }));
        }
        for h in hs {
            h.join();
        }
        // Everything readable with the right contents.
        let mut buf = vec![0u8; 2048];
        for t in 0..8u64 {
            for i in 0..40 {
                let n = kv.kv_get(&format!("t{t}-k{i}"), &mut buf).unwrap();
                assert_eq!(n, 1024);
                assert!(buf[..n].iter().all(|&b| b == t as u8));
            }
        }
    });
    rt.run();
}

#[test]
fn racing_sets_on_one_key_serialize_on_the_spinlock() {
    let (rt, fs) = world();
    rt.spawn("main", move || {
        let kv = KvFs::new(fs, "/kv").unwrap();
        kv.kv_set("hot", &[0u8; 512]).unwrap();
        let mut hs = Vec::new();
        for t in 0..4u64 {
            let kv = Arc::clone(&kv);
            hs.push(trio_sim::spawn("racer", move || {
                for _ in 0..25 {
                    kv.kv_set("hot", &vec![t as u8 + 1; 512]).unwrap();
                }
            }));
        }
        for h in hs {
            h.join();
        }
        // The final value is whole (one writer's bytes, not interleaved).
        let mut buf = vec![0u8; 1024];
        let n = kv.kv_get("hot", &mut buf).unwrap();
        assert_eq!(n, 512);
        let first = buf[0];
        assert!((1..=4).contains(&first));
        assert!(buf[..n].iter().all(|&b| b == first), "torn value: {:?}", &buf[..8]);
    });
    rt.run();
}

#[test]
fn shrinking_sets_shrink_the_file() {
    let (rt, fs) = world();
    rt.spawn("main", move || {
        let kv = KvFs::new(fs, "/kv").unwrap();
        kv.kv_set("k", &vec![1u8; 20_000]).unwrap();
        kv.kv_set("k", b"tiny").unwrap();
        let mut buf = vec![0u8; 64 * 1024];
        assert_eq!(kv.kv_get("k", &mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"tiny");
    });
    rt.run();
}

#[test]
fn oversized_values_rejected_cleanly() {
    let (rt, fs) = world();
    rt.spawn("main", move || {
        let kv = KvFs::new(fs, "/kv").unwrap();
        let too_big = vec![0u8; arckfs::kvfs::KV_MAX_BYTES + 1];
        assert_eq!(kv.kv_set("big", &too_big), Err(FsError::InvalidArgument));
        // Nothing half-created.
        let mut buf = [0u8; 8];
        assert_eq!(kv.kv_get("big", &mut buf), Err(FsError::NotFound));
    });
    rt.run();
}

/// A KVFS mount that loses its directory and a file at lease expiry (it
/// was idle; one thread drives both mounts, so it cannot honour the
/// recalls) must find its way back. Its directory node still says `Write`,
/// and so does the generic view of the file, which the KV aux is rebuilt
/// from: `set` used to trust both, fault eight times and return `Stale`.
#[test]
fn set_recovers_after_the_directory_was_taken_at_lease_expiry() {
    use trio_fsapi::FileSystem;
    let (rt, fs) = world();
    let other = ArckFs::mount(Arc::clone(fs.kernel()), 100, 100, ArckFsConfig::no_delegation());
    rt.spawn("main", move || {
        let kv = KvFs::new(fs, "/kv").unwrap();
        let mut val = "round 0".to_string();
        kv.kv_set("k", val.as_bytes()).unwrap();
        let mut buf = [0u8; 64];
        for round in 1..=2 {
            // B's maps wait A's leases out, revoke them and verify `/kv`
            // and the file.
            assert!(other.readdir("/kv").unwrap().iter().any(|e| e.name == "k"));
            assert_eq!(trio_fsapi::read_file(&*other, "/kv/k").unwrap(), val.as_bytes());
            other.release_path("/kv").unwrap();
            val = format!("round {round}, and longer than the last");
            kv.kv_set("k", val.as_bytes()).unwrap();
            let n = kv.kv_get("k", &mut buf).unwrap();
            assert_eq!(&buf[..n], val.as_bytes());
        }
    });
    rt.run();
}

/// KVFS writes dirents and file pages behind the generic view's back, and
/// the generic view is what honours lease recalls (DESIGN.md §21): another
/// mount listing the KV directory while three threads `set` in it must
/// find every hand-over verifiable, and no value is lost.
#[test]
fn recall_of_the_kv_directory_spares_sets_in_flight() {
    use trio_fsapi::FileSystem;
    let (rt, fs) = world();
    let kernel = Arc::clone(fs.kernel());
    let other = ArckFs::mount(Arc::clone(&kernel), 100, 100, ArckFsConfig::no_delegation());
    rt.spawn("main", move || {
        let kv = KvFs::new(fs, "/kv").unwrap();
        let mut hs = Vec::new();
        for t in 0..3u64 {
            let kv = Arc::clone(&kv);
            hs.push(trio_sim::spawn("setter", move || {
                for i in 0..60u64 {
                    // New keys and overwrites, one to three pages long.
                    let val = vec![(t * 60 + i) as u8; 1000 + (i as usize % 3) * 4096];
                    kv.kv_set(&format!("t{t}-k{}", i % 20), &val).unwrap();
                }
            }));
        }
        hs.push(trio_sim::spawn("lister", move || {
            for _ in 0..30 {
                other.readdir("/kv").unwrap();
                other.release_path("/kv").unwrap();
                trio_sim::work(20_000);
            }
        }));
        for h in hs {
            h.join();
        }
        let mut buf = vec![0u8; 16 * 1024];
        for t in 0..3u64 {
            for k in 0..20u64 {
                let i = 40 + k; // The last round that wrote key k.
                let n = kv.kv_get(&format!("t{t}-k{k}"), &mut buf).unwrap();
                assert_eq!(n, 1000 + (i as usize % 3) * 4096);
                assert!(buf[..n].iter().all(|&b| b == (t * 60 + i) as u8));
            }
        }
    });
    rt.run();
    // (The setters finish first; the lister's last recall finds the KVFS
    // mount idle and ends in a plain revocation at lease expiry.)
    use trio_kernel::registry::KernelEvent as E;
    let events = kernel.take_events();
    assert!(events.iter().all(|e| matches!(e, E::LeaseRevoked { .. })), "{events:?}");
    let r = kernel.resilience_stats().snapshot();
    assert!(r.total_violations() == 0 && r.recalls_honoured > 10, "{r:?}");
}
