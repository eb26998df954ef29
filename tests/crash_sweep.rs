//! Exhaustive crash-point sweep (the fault-injection engine's tentpole
//! test): a fixed, seed-deterministic operation trace runs against a
//! tracked device once per persistence point; at each point `k` a
//! [`FaultPlan`] freezes durability, the device crashes, recovery runs
//! (LibFS rename-journal undo, then the kernel's tree walk), and the
//! recovered state must (a) pass the full I1–I4 `fsck` audit and (b) be
//! equivalent to a model file system — every operation that completed
//! before the freeze is fully visible, the one in-flight operation is
//! atomic-or-invisible (data writes: torn only at cache-line
//! granularity), and nothing later survives.
//!
//! The sweeps run on the shared campaign driver
//! (`tests/common/campaign.rs`) with the seed pinned and the crash point as
//! the iteration: a failure prints the `TRIO_SEED=… TRIO_ITER=<point>`
//! line that replays that one point, and every assertion message carries
//! the [`CrashReport`].

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use arckfs::{ArckFs, ArckFsConfig};
use common::campaign::{self, Case, Tally};
use trio_fsapi::{FileSystem, FileType, Mode, OpenFlags};
use trio_kernel::{KernelConfig, KernelController};
use trio_nvm::fault::FaultPlan;
use trio_nvm::{DeviceConfig, NvmDevice, NvmHandle, Topology, CACHE_LINE, KERNEL_ACTOR};
use trio_sim::plock::Mutex;
use trio_sim::rng::SimRng;
use trio_sim::SimRuntime;

/// Pinned sweep seed; change only together with EXPERIMENTS.md.
const SWEEP_SEED: u64 = 0xA5C3_5EED;

// ---------------------------------------------------------------------
// Operation trace: fixed op kinds (guaranteed coverage of create /
// overwrite / append / cross- and same-directory rename / unlink of
// empty and non-empty files), randomized payloads and offsets.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Mkdir(String),
    Create(String),
    Write { path: String, off: u64, data: Vec<u8> },
    Rename(String, String),
    Unlink(String),
    /// `release_path`: gives the grant back, flushing the unlink batch.
    Release(String),
}

fn blob(rng: &mut SimRng, min: usize, max: usize) -> Vec<u8> {
    let len = min + rng.gen_range((max - min) as u64 + 1) as usize;
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Deterministic trace; appends use the model size at generation time so
/// `Write.off` is always concrete.
fn gen_trace(seed: u64) -> Vec<Op> {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut sizes: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut ops = Vec::new();
    let write =
        |ops: &mut Vec<Op>, sizes: &mut BTreeMap<&'static str, u64>, rng: &mut SimRng,
         path: &'static str, off: u64, min: usize, max: usize| {
            let data = blob(rng, min, max);
            let end = off + data.len() as u64;
            let s = sizes.entry(path).or_insert(0);
            *s = (*s).max(end);
            ops.push(Op::Write { path: path.into(), off, data });
        };
    ops.push(Op::Mkdir("/a".into()));
    ops.push(Op::Mkdir("/b".into()));
    ops.push(Op::Create("/a/f0".into()));
    write(&mut ops, &mut sizes, &mut rng, "/a/f0", 0, 600, 1400);
    ops.push(Op::Create("/b/f1".into()));
    write(&mut ops, &mut sizes, &mut rng, "/b/f1", 0, 400, 900);
    ops.push(Op::Create("/a/f2".into()));
    let off = sizes["/a/f0"];
    write(&mut ops, &mut sizes, &mut rng, "/a/f0", off, 500, 1100); // append
    ops.push(Op::Rename("/a/f0".into(), "/b/g0".into())); // cross-dir
    sizes.insert("/b/g0", sizes["/a/f0"]);
    let off = rng.gen_range(200);
    write(&mut ops, &mut sizes, &mut rng, "/b/f1", off, 200, 400); // overwrite
    ops.push(Op::Unlink("/a/f2".into())); // empty file
    ops.push(Op::Create("/a/f3".into()));
    write(&mut ops, &mut sizes, &mut rng, "/a/f3", 0, 900, 1500);
    ops.push(Op::Rename("/b/f1".into(), "/a/g1".into()));
    sizes.insert("/a/g1", sizes["/b/f1"]);
    let off = rng.gen_range(sizes["/b/g0"] / 2);
    write(&mut ops, &mut sizes, &mut rng, "/b/g0", off, 300, 600);
    ops.push(Op::Create("/b/f4".into()));
    write(&mut ops, &mut sizes, &mut rng, "/b/f4", 0, 500, 900);
    ops.push(Op::Unlink("/a/g1".into())); // non-empty file
    let off = sizes["/a/f3"];
    write(&mut ops, &mut sizes, &mut rng, "/a/f3", off, 600, 1000); // append
    ops.push(Op::Rename("/a/f3".into(), "/a/g3".into())); // same-dir
    sizes.insert("/a/g3", sizes["/a/f3"]);
    ops.push(Op::Create("/a/f5".into()));
    write(&mut ops, &mut sizes, &mut rng, "/a/f5", 0, 700, 1200);
    ops.push(Op::Unlink("/b/f4".into()));
    let off = sizes["/b/g0"];
    write(&mut ops, &mut sizes, &mut rng, "/b/g0", off, 300, 700); // append
    // The unlinks of g1 and f4 wait in the LibFS's reclaim batch: the
    // release flushes it, so the kernel's reclaim of their chains runs
    // inside the trace.
    ops.push(Op::Release("/a".into()));
    ops
}

// ---------------------------------------------------------------------
// Model file system.
// ---------------------------------------------------------------------

#[derive(Clone, Debug, Default)]
struct Model {
    files: BTreeMap<String, Vec<u8>>,
    dirs: BTreeSet<String>,
}

impl Model {
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Mkdir(p) => {
                self.dirs.insert(p.clone());
            }
            Op::Create(p) => {
                self.files.insert(p.clone(), Vec::new());
            }
            Op::Write { path, off, data } => {
                let f = self.files.get_mut(path).expect("write target exists");
                let end = *off as usize + data.len();
                if f.len() < end {
                    f.resize(end, 0);
                }
                f[*off as usize..end].copy_from_slice(data);
            }
            Op::Rename(s, d) => {
                let v = self.files.remove(s).expect("rename source exists");
                self.files.insert(d.clone(), v);
            }
            Op::Unlink(p) => {
                self.files.remove(p).expect("unlink target exists");
            }
            Op::Release(_) => {}
        }
    }
}

fn touched(op: &Op) -> Vec<&str> {
    match op {
        Op::Mkdir(p) | Op::Create(p) | Op::Unlink(p) => vec![p],
        Op::Write { path, .. } => vec![path],
        Op::Rename(s, d) => vec![s, d],
        Op::Release(_) => vec![],
    }
}

// ---------------------------------------------------------------------
// World plumbing.
// ---------------------------------------------------------------------

fn world() -> (Arc<NvmDevice>, Arc<KernelController>, Arc<ArckFs>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(1, 4096),
        track_persistence: true,
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(Arc::clone(&dev), KernelConfig::default());
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::no_delegation());
    (dev, kernel, fs)
}

fn exec(fs: &ArckFs, op: &Op) {
    let r = match op {
        Op::Mkdir(p) => fs.mkdir(p, Mode(0o777)),
        Op::Create(p) => fs.create(p, Mode(0o666)),
        Op::Write { path, off, data } => (|| {
            let fd = fs.open(path, OpenFlags::RDWR, Mode::empty())?;
            fs.pwrite(fd, *off, data)?;
            fs.close(fd)
        })(),
        Op::Rename(s, d) => fs.rename(s, d),
        Op::Unlink(p) => fs.unlink(p),
        Op::Release(p) => fs.release_path(p),
    };
    r.unwrap_or_else(|e| panic!("op {op:?} failed: {e:?}"));
}

/// Runs the trace in a sim thread; returns how many ops fully completed
/// before the armed plan fired (== `ops.len()` if it never fired).
fn run_trace(dev: &Arc<NvmDevice>, fs: &Arc<ArckFs>, ops: &[Op], seed: u64) -> usize {
    let rt = SimRuntime::new(seed);
    let completed = Arc::new(Mutex::new(0usize));
    let (dev2, fs2, ops2, done) =
        (Arc::clone(dev), Arc::clone(fs), ops.to_vec(), Arc::clone(&completed));
    rt.spawn("ops", move || {
        for op in &ops2 {
            exec(&fs2, op);
            if dev2.crash_plan_fired().is_none() {
                *done.lock() += 1;
            }
        }
    });
    rt.run();
    let n = *completed.lock();
    n
}

/// Recursive directory walk through the public API; `None` marks a
/// directory, `Some(bytes)` a regular file's full contents.
fn readback(fs: &Arc<ArckFs>, seed: u64) -> BTreeMap<String, Option<Vec<u8>>> {
    let rt = SimRuntime::new(seed);
    let out = Arc::new(Mutex::new(BTreeMap::new()));
    let (fs2, out2) = (Arc::clone(fs), Arc::clone(&out));
    rt.spawn("walk", move || {
        let mut map = BTreeMap::new();
        let mut stack = vec![String::new()];
        while let Some(d) = stack.pop() {
            let dpath = if d.is_empty() { "/" } else { d.as_str() };
            for e in fs2.readdir(dpath).expect("readdir") {
                let full = format!("{d}/{}", e.name);
                match e.ftype {
                    FileType::Directory => {
                        map.insert(full.clone(), None);
                        stack.push(full);
                    }
                    FileType::Regular => {
                        let data = trio_fsapi::read_file(&*fs2, &full).expect("read");
                        map.insert(full, Some(data));
                    }
                }
            }
        }
        *out2.lock() = map;
    });
    rt.run();
    let map = out.lock().clone();
    map
}

// ---------------------------------------------------------------------
// Equivalence checking.
// ---------------------------------------------------------------------

/// Asserts `got` matches `old` or `new` on every `gran`-aligned chunk —
/// the torn-write granularity the device guarantees: cache lines
/// normally, 8 bytes when the torn-store fault mode is armed (an aligned
/// prefix of the in-flight store may escape to media).
fn check_chunkwise(ctx: &str, path: &str, got: &[u8], old: &[u8], new: &[u8], gran: usize) {
    let pad = |src: &[u8], i: usize, j: usize| -> Vec<u8> {
        (i..j).map(|x| src.get(x).copied().unwrap_or(0)).collect()
    };
    let mut c = 0;
    while c < got.len() {
        let end = (c + gran).min(got.len());
        let g = &got[c..end];
        let o = pad(old, c, end);
        let n = pad(new, c, end);
        assert!(
            g == o.as_slice() || g == n.as_slice(),
            "{path}: torn write chunk [{c}, {end}) matches neither the old \
             nor the new image\n{ctx}"
        );
        c = end;
    }
}

fn check_equiv(
    ctx: &str,
    durable: &Model,
    amb: Option<&Op>,
    rec: &BTreeMap<String, Option<Vec<u8>>>,
    gran: usize,
) {
    let amb_paths: BTreeSet<&str> = amb.map(touched).unwrap_or_default().into_iter().collect();
    // 1. Every durably created directory / file survives byte-for-byte.
    for d in &durable.dirs {
        if amb_paths.contains(d.as_str()) {
            continue;
        }
        assert_eq!(rec.get(d), Some(&None), "directory {d} lost or corrupted\n{ctx}");
    }
    for (f, want) in &durable.files {
        if amb_paths.contains(f.as_str()) {
            continue;
        }
        match rec.get(f) {
            Some(Some(got)) => assert_eq!(
                got, want,
                "file {f} content diverged (got {} bytes, want {})\n{ctx}",
                got.len(),
                want.len()
            ),
            other => panic!("file {f} lost after recovery (found {other:?})\n{ctx}"),
        }
    }
    // 2. Nothing not in the durable model survives (in-flight op aside):
    //    later ops' effects froze and must have been reverted.
    for p in rec.keys() {
        if amb_paths.contains(p.as_str()) {
            continue;
        }
        assert!(
            durable.dirs.contains(p) || durable.files.contains_key(p),
            "unexpected path {p} resurrected by recovery\n{ctx}"
        );
    }
    // 3. The in-flight operation is atomic-or-invisible.
    let Some(op) = amb else { return };
    match op {
        Op::Mkdir(p) => match rec.get(p) {
            None => {}
            Some(None) => {
                let prefix = format!("{p}/");
                assert!(
                    !rec.keys().any(|k| k.starts_with(&prefix)),
                    "half-made directory {p} has children\n{ctx}"
                );
            }
            Some(Some(_)) => panic!("in-flight mkdir {p} produced a regular file\n{ctx}"),
        },
        Op::Create(p) => match rec.get(p) {
            None => {}
            Some(Some(got)) => {
                assert!(got.is_empty(), "in-flight create {p} has content\n{ctx}")
            }
            Some(None) => panic!("in-flight create {p} produced a directory\n{ctx}"),
        },
        Op::Write { path, off, data } => {
            let old = durable.files.get(path).expect("write target durable");
            let new_len = old.len().max(*off as usize + data.len());
            let mut new = old.clone();
            new.resize(new_len, 0);
            new[*off as usize..*off as usize + data.len()].copy_from_slice(data);
            match rec.get(path) {
                Some(Some(got)) => {
                    assert!(
                        got.len() == old.len() || got.len() == new_len,
                        "in-flight write {path}: size {} is neither old {} nor new {}\n{ctx}",
                        got.len(),
                        old.len(),
                        new_len
                    );
                    check_chunkwise(ctx, path, got, old, &new, gran);
                }
                other => panic!("write target {path} vanished (found {other:?})\n{ctx}"),
            }
        }
        Op::Rename(s, d) => {
            let old = durable.files.get(s).expect("rename source durable");
            let at = |p: &str| match rec.get(p) {
                Some(Some(got)) => Some(got),
                Some(None) => panic!("rename endpoint {p} became a directory\n{ctx}"),
                None => None,
            };
            match (at(s), at(d)) {
                (Some(got), None) | (None, Some(got)) => assert_eq!(
                    got, old,
                    "in-flight rename {s}->{d}: surviving copy corrupted\n{ctx}"
                ),
                (Some(_), Some(_)) =>

                    panic!("in-flight rename {s}->{d}: both endpoints live (journal undo failed)\n{ctx}"),
                (None, None) => panic!("in-flight rename {s}->{d}: file lost entirely\n{ctx}"),
            }
        }
        Op::Unlink(p) => match rec.get(p) {
            None => {}
            Some(Some(got)) => assert_eq!(
                got,
                durable.files.get(p).expect("unlink target durable"),
                "in-flight unlink {p}: surviving copy corrupted\n{ctx}"
            ),
            Some(None) => panic!("in-flight unlink {p} left a directory\n{ctx}"),
        },
        // Changes no path: the checks above cover it.
        Op::Release(_) => {}
    }
}

// ---------------------------------------------------------------------
// One sweep iteration.
// ---------------------------------------------------------------------

/// Runs the trace with a crash armed at point `case.iter`, recovers,
/// audits, and checks model equivalence. With `torn` the crash also lets
/// an aligned 8-byte prefix of the in-flight data store escape to media,
/// so in-flight-write equivalence is checked at 8-byte rather than
/// cache-line granularity. The tally holds the crash report and the
/// recovered state, rendered for the byte-identical replay check.
fn sweep_one(case: Case, torn: bool) -> Tally {
    let (seed, k) = (case.seed, case.iter);
    let ops = gen_trace(seed);
    let (dev, _kernel, fs) = world();
    let plan = FaultPlan::crash_at_point(k);
    dev.arm_crash_plan(if torn { plan.with_torn_store() } else { plan });
    let completed = run_trace(&dev, &fs, &ops, seed);
    let jpairs = fs.journal_page_pairs();
    drop(fs);
    let report = dev.crash();
    let report_str = format!("{report}");
    let ctx =
        format!("seed={seed} crash_point={k} torn={torn} completed_ops={completed}\n{report_str}");

    // Recovery: LibFS journal undo first (it rewrites dirents the kernel
    // walk will read), then the kernel's provenance-rebuilding walk.
    // Recovery-mode read checks flag any recovery read of a line that is
    // not durable (i.e. one recovery itself dirtied and has not yet fenced
    // — a crash-idempotence bug). Twin-aware recovery (`recover_pairs`) is
    // the production path; the legacy single-copy scan stays covered by
    // crash_consistency.rs.
    dev.set_recovery_mode(true);
    let kh = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
    arckfs::journal::Journal::recover_pairs(&kh, &jpairs)
        .unwrap_or_else(|e| panic!("journal recovery failed: {e:?}\n{ctx}"));
    let kernel2 = KernelController::recover(Arc::clone(&dev), KernelConfig::default())
        .unwrap_or_else(|e| panic!("kernel recovery failed: {e:?}\n{ctx}"));
    let bad = kernel2.fsck();
    assert!(bad.is_empty(), "fsck found violations after recovery: {bad:?}\n{ctx}");
    dev.set_recovery_mode(false);

    let fs2 = ArckFs::mount(Arc::clone(&kernel2), 1000, 1000, ArckFsConfig::no_delegation());
    let rec = readback(&fs2, seed);
    let mut durable = Model::default();
    for op in &ops[..completed.min(ops.len())] {
        durable.apply(op);
    }
    check_equiv(&ctx, &durable, ops.get(completed), &rec, if torn { 8 } else { CACHE_LINE });

    // The sanitizer's verdict covers the trace up to the freeze (the
    // tracker records nothing between the freeze and the crash), then
    // recovery and the read-back mount.
    campaign::oracle_tail(&kernel2, case);
    let mut t = Tally::default();
    t.state(report_str);
    t.state(format!("{rec:?}"));
    t
}

/// Total persistence points of the unarmed trace (the sweep domain).
fn total_points(seed: u64) -> u64 {
    let ops = gen_trace(seed);
    let (dev, _kernel, fs) = world();
    let done = run_trace(&dev, &fs, &ops, seed);
    assert_eq!(done, ops.len(), "unarmed trace must complete");
    dev.persistence_points()
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[test]
fn exhaustive_crash_point_sweep() {
    let total = total_points(SWEEP_SEED);
    assert!(
        total >= 200,
        "trace too small for a meaningful sweep: {total} persistence points"
    );
    assert!(total <= 3000, "trace grew unexpectedly: {total} persistence points");
    println!("sweeping {total} crash points (seed={SWEEP_SEED:#x})");
    campaign::run("exhaustive_crash_point_sweep", SWEEP_SEED, 0..total, |c| sweep_one(c, false));
}

/// Torn-store pass (delegation failure domains, §16): at sampled crash
/// points the in-flight data store additionally tears at an aligned
/// 8-byte boundary before the crash. Recovery must still produce a
/// fsck-clean, model-equivalent state — with in-flight writes now only
/// 8-byte (not cache-line) atomic.
#[test]
fn torn_store_sweep_at_sampled_points() {
    const STRIDE: usize = 7;
    let total = total_points(SWEEP_SEED);
    println!("torn-store sweep over {total} crash points, stride {STRIDE}");
    let points = (0..total).step_by(STRIDE);
    campaign::run("torn_store_sweep", SWEEP_SEED, points, |c| sweep_one(c, true));
}

/// The unmutated trace must run to quiescence with zero hazards — the
/// positive "report-clean" half of the mutation tests.
#[test]
fn sanitized_unarmed_trace_is_report_clean() {
    let ops = gen_trace(SWEEP_SEED);
    let (dev, _kernel, fs) = world();
    let done = run_trace(&dev, &fs, &ops, SWEEP_SEED);
    assert_eq!(done, ops.len(), "unarmed trace must complete");
    drop(fs);
    dev.sanitize_quiesce_check();
    dev.take_sanitize_report(SWEEP_SEED).expect_clean("unarmed sweep trace at quiescence");
}

// ---------------------------------------------------------------------
// Delegated acked ⇒ durable (typestate witness, DESIGN.md §18).
// ---------------------------------------------------------------------

/// One registered-buffer delegated write per region; all the same size so
/// an acked prefix maps to a byte range.
const DELEG_CHUNK: usize = 64 * 1024;
const DELEG_WRITES: usize = 6;

/// Per-region fill byte; the base image is all-zero, so any torn mix of
/// old and new bytes inside an acked region is detectable.
fn deleg_fill(j: usize) -> u8 {
    0xA1 ^ (j as u8).wrapping_mul(0x3B)
}

fn delegated_world() -> (Arc<NvmDevice>, Arc<KernelController>, Arc<ArckFs>) {
    let dev = Arc::new(NvmDevice::new(DeviceConfig {
        topology: Topology::new(2, 32 * 1024),
        track_persistence: true,
        ..DeviceConfig::small()
    }));
    let kernel = KernelController::format(
        Arc::clone(&dev),
        KernelConfig { delegation_threads_per_node: 2, ..KernelConfig::default() },
    );
    let fs = ArckFs::mount(Arc::clone(&kernel), 1000, 1000, ArckFsConfig::default());
    (dev, kernel, fs)
}

/// Sizes `/deleg`, then drives [`DELEG_WRITES`] sequential registered-
/// buffer delegated writes. Returns how many acks the client observed
/// while the armed crash plan had not yet fired — sequential, so the
/// count is a prefix of the regions.
fn run_delegated_trace(
    dev: &Arc<NvmDevice>,
    kernel: &Arc<KernelController>,
    fs: &Arc<ArckFs>,
    seed: u64,
) -> usize {
    let rt = SimRuntime::new(seed);
    let acked = Arc::new(Mutex::new(0usize));
    let (dev2, k2, fs2, acked2) =
        (Arc::clone(dev), Arc::clone(kernel), Arc::clone(fs), Arc::clone(&acked));
    rt.spawn("deleg-ops", move || {
        k2.delegation().start();
        let fd = fs2.open("/deleg", OpenFlags::CREATE | OpenFlags::RDWR, Mode(0o666)).unwrap();
        let base = vec![0u8; DELEG_WRITES * DELEG_CHUNK];
        assert_eq!(fs2.pwrite(fd, 0, &base).unwrap(), base.len());
        let reg = fs2.register_write_buffer(&base[..DELEG_CHUNK]).unwrap();
        for j in 0..DELEG_WRITES {
            let block = vec![deleg_fill(j); DELEG_CHUNK];
            fs2.update_write_buffer(reg, &block).unwrap();
            let off = (j * DELEG_CHUNK) as u64;
            assert_eq!(fs2.pwrite_registered(fd, off, reg, 0, DELEG_CHUNK).unwrap(), DELEG_CHUNK);
            // The reply has been received; if the durability freeze has
            // not fired yet, every byte of region j must survive a crash.
            if dev2.crash_plan_fired().is_none() {
                *acked2.lock() += 1;
            }
        }
        fs2.unregister_write_buffer(reg).unwrap();
        fs2.close(fd).unwrap();
        k2.delegation().shutdown();
    });
    rt.run();
    let n = *acked.lock();
    n
}

/// One torn-store crash iteration against the delegated trace.
fn deleg_torn_one(case: Case) -> Tally {
    let k = case.iter;
    let (dev, kernel, fs) = delegated_world();
    dev.arm_crash_plan(FaultPlan::crash_at_point(k).with_torn_store());
    let acked = run_delegated_trace(&dev, &kernel, &fs, case.seed);
    let jpairs = fs.journal_page_pairs();
    drop(fs);
    drop(kernel);
    let report = dev.crash();
    let ctx = format!("seed={} crash_point={k} torn=true acked={acked}\n{report}", case.seed);

    let kh = NvmHandle::new(Arc::clone(&dev), KERNEL_ACTOR);
    arckfs::journal::Journal::recover_pairs(&kh, &jpairs)
        .unwrap_or_else(|e| panic!("journal recovery failed: {e:?}\n{ctx}"));
    let kernel2 = KernelController::recover(Arc::clone(&dev), KernelConfig::default())
        .unwrap_or_else(|e| panic!("kernel recovery failed: {e:?}\n{ctx}"));
    let bad = kernel2.fsck();
    assert!(bad.is_empty(), "fsck found violations after recovery: {bad:?}\n{ctx}");
    // The delegated write path up to the freeze, then recovery; the stores
    // the workers went on to make against a frozen tracker leave nothing.
    campaign::oracle_tail(&kernel2, case);

    if acked == 0 {
        return Tally::default(); // crash fired before any delegated ack — nothing to pin
    }
    // acked > 0 means the sizing base write completed pre-freeze, so the
    // file itself is durable and full-length.
    let fs2 = ArckFs::mount(kernel2, 1000, 1000, ArckFsConfig::no_delegation());
    let rec = readback(&fs2, case.seed);
    let got = match rec.get("/deleg") {
        Some(Some(data)) => data,
        other => panic!("/deleg lost after recovery (found {other:?})\n{ctx}"),
    };
    assert!(got.len() >= acked * DELEG_CHUNK, "acked regions truncated\n{ctx}");
    for j in 0..acked {
        let region = &got[j * DELEG_CHUNK..(j + 1) * DELEG_CHUNK];
        if let Some(i) = region.iter().position(|&b| b != deleg_fill(j)) {
            panic!(
                "acked delegated write {j} not fully durable after a torn-store \
                 crash: byte {i} is {:#x}, want {:#x} — the worker replied before \
                 its Durable witness\n{ctx}",
                region[i],
                deleg_fill(j)
            );
        }
    }
    Tally::default()
}

/// Acked ⇒ durable under the typestate API (DESIGN.md §18): the worker's
/// write pass must hold a `Durable<ExtentProof>` from `write_extent_hashed`
/// — stores flushed *and fenced* — before its reply is sent. Swept under
/// the torn-store fault mode, where an unfenced in-flight store may leak
/// an arbitrary aligned 8-byte prefix to media: if an ack ever preceded
/// the fence, some crash point in the sweep would surface a torn or
/// reverted region inside the acked prefix.
#[test]
fn delegated_acked_writes_survive_torn_store_crashes() {
    let total = {
        let (dev, kernel, fs) = delegated_world();
        let n = run_delegated_trace(&dev, &kernel, &fs, SWEEP_SEED);
        assert_eq!(n, DELEG_WRITES, "unarmed delegated trace must complete");
        // The delegated write path's persistence order, asked about once
        // over the whole unarmed trace.
        dev.sanitize_quiesce_check();
        dev.take_sanitize_report(SWEEP_SEED).expect_clean("unarmed delegated trace");
        dev.persistence_points()
    };
    // Each iteration rebuilds a 2-node world and runs full recovery, so
    // sample the domain.
    const POINTS: u64 = 16;
    let stride = (total / POINTS).max(1) as usize;
    println!("delegated torn-store sweep over {total} crash points, stride {stride}");
    campaign::run("delegated_acked_writes", SWEEP_SEED, (1..total).step_by(stride), deleg_torn_one);
}

/// The engine's replayability contract: the same `(seed, crash_point)`
/// pair yields a byte-identical crash report and recovered state.
#[test]
fn sweep_is_deterministic_and_replayable() {
    let total = total_points(SWEEP_SEED);
    let points = [1, total / 3, total / 2, total - 2];
    campaign::assert_replays(SWEEP_SEED, &points, |c| sweep_one(c, false));
    // The torn-store variant must replay identically too: the escaped
    // prefix length is drawn from the same deterministic plan state.
    campaign::assert_replays(SWEEP_SEED, &[total / 2], |c| sweep_one(c, true));
}
