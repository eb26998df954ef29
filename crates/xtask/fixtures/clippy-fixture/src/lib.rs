//! Must-fail fixture for `cargo xtask clippy-check`. Each rule that
//! clippy.toml and the lint attributes took over from the lexical pass trips
//! in `trips`, on a line whose trailing comment names text its diagnostic
//! must hold. A line without such a comment must draw none, so each case's
//! twin in `allowed`, under a reasoned `#[allow]`, stays clean.

// no-panic, as `trio-kernel` and `trio-verifier` declare it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::{HashMap, HashSet};
use trio_nvm::{ActorId, NvmDevice, NvmHandle, PageId, PagePerm};

pub fn trips(h: &NvmHandle, d: &NvmDevice, p: PageId, a: ActorId, x: Option<u8>) {
    let _ = std::sync::Mutex::new(0); // trips: `std::sync::Mutex`
    let _ = std::sync::RwLock::new(0); // trips: `std::sync::RwLock`
    let _ = std::sync::Condvar::new(); // trips: `std::sync::Condvar`
    let _ = std::sync::Barrier::new(1); // trips: `std::sync::Barrier`
    let _ = std::sync::mpsc::channel::<u8>(); // trips: `std::sync::mpsc::channel`
    let _ = std::sync::mpsc::sync_channel::<u8>(1); // trips: `std::sync::mpsc::sync_channel`
    let _ = std::thread::spawn(|| {}); // trips: `std::thread::spawn`
    std::thread::scope(|_| {}); // trips: `std::thread::scope`
    let _ = std::thread::Builder::new().spawn(|| {}); // trips: `std::thread::Builder::spawn`
    std::thread::sleep(std::time::Duration::ZERO); // trips: `std::thread::sleep`
    std::thread::yield_now(); // trips: `std::thread::yield_now`
    let _ = HashMap::<u8, u8>::new(); // trips: `std::collections::HashMap::new`
    let _ = HashMap::<u8, u8>::with_capacity(8); // trips: `std::collections::HashMap::with_capacity`
    let _ = HashSet::<u8>::new(); // trips: `std::collections::HashSet::new`
    let _ = HashSet::<u8>::with_capacity(8); // trips: `std::collections::HashSet::with_capacity`
    let _ = std::hash::RandomState::new(); // trips: `std::hash::RandomState`
    let _ = h.publish_u64_raw(p, 0, 1, &[]); // trips: `trio_nvm::NvmHandle::publish_u64_raw`
    let _ = h.assume_durable(p, 0, 8); // trips: `trio_nvm::NvmHandle::assume_durable`
    h.flush(p, 0, 8); // trips: `trio_nvm::NvmHandle::flush`
    h.fence(); // trips: `trio_nvm::NvmHandle::fence`
    d.flush(p, 0, 8); // trips: `trio_nvm::NvmDevice::flush`
    d.fence(); // trips: `trio_nvm::NvmDevice::fence`
    let _ = d.mmu_map(a, p, PagePerm::Read); // trips: `trio_nvm::NvmDevice::mmu_map`
    let _ = d.mmu_unmap(a, p); // trips: `trio_nvm::NvmDevice::mmu_unmap`
    let _ = d.revoke_actor(a); // trips: `trio_nvm::NvmDevice::revoke_actor`
    let _ = d.reset_page(p); // trips: `trio_nvm::NvmDevice::reset_page`
    let _ = d.reset_page_sparing(p, a); // trips: `trio_nvm::NvmDevice::reset_page_sparing`
    let _ = x.unwrap(); // trips: used `unwrap()`
    let _ = x.expect("some"); // trips: used `expect()`
    h.dirty_spans(Vec::new()); // trips: unused `trio_nvm::Dirty`
    #[allow(clippy::disallowed_methods)] // trips: without specifying a reason
    let _ = HashSet::<u8>::new();
    // `forbid` admits no allow, so this case has no twin.
    let _ = unsafe { std::mem::zeroed::<u8>() }; // trips: usage of an `unsafe` block
    panic!("never"); // trips: `panic` should not be present
}

#[allow(clippy::disallowed_types, clippy::disallowed_methods, reason = "twins of `trips`")]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "twins of `trips`")]
#[allow(unused_must_use, reason = "twin of the dropped `Dirty` in `trips`")]
pub fn allowed(h: &NvmHandle, d: &NvmDevice, p: PageId, a: ActorId, x: Option<u8>) {
    let _ = std::sync::Mutex::new(0);
    let _ = std::sync::RwLock::new(0);
    let _ = std::sync::Condvar::new();
    let _ = std::sync::Barrier::new(1);
    let _ = std::sync::mpsc::channel::<u8>();
    let _ = std::sync::mpsc::sync_channel::<u8>(1);
    let _ = std::thread::spawn(|| {});
    std::thread::scope(|_| {});
    let _ = std::thread::Builder::new().spawn(|| {});
    std::thread::sleep(std::time::Duration::ZERO);
    std::thread::yield_now();
    let _ = HashMap::<u8, u8>::new();
    let _ = HashMap::<u8, u8>::with_capacity(8);
    let _ = HashSet::<u8>::new();
    let _ = HashSet::<u8>::with_capacity(8);
    let _ = std::hash::RandomState::new();
    let _ = h.publish_u64_raw(p, 0, 1, &[]);
    let _ = h.assume_durable(p, 0, 8);
    h.flush(p, 0, 8);
    h.fence();
    d.flush(p, 0, 8);
    d.fence();
    let _ = d.mmu_map(a, p, PagePerm::Read);
    let _ = d.mmu_unmap(a, p);
    let _ = d.revoke_actor(a);
    let _ = d.reset_page(p);
    let _ = d.reset_page_sparing(p, a);
    let _ = x.unwrap();
    let _ = x.expect("some");
    h.dirty_spans(Vec::new());
    panic!("never");
}
