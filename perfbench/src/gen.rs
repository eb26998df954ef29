//! The seven seeded load generators.
//!
//! Each implements [`trio_workloads::Workload`], takes the run seed, and
//! never unwraps: a call that returns `Err` is counted by the
//! [`crate::timed::TimedFs`] it went through, and a read that comes back
//! with the wrong stamp is counted here as a miss. Every generator keeps
//! a model of what it wrote, so that every call it issues is valid by
//! construction (no operation is expected to fail) and so that
//! [`Generator::audit`] can check the file system against the model after
//! the window — and, on `varmail16`, after a crash and recovery.
//!
//! Data is stamped: every block is filled with one repeated 64-bit word
//! that encodes (client, block, sequence number).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use trio_fsapi::{FileSystem, FileType, FsResult, Mode, OpenFlags};
use trio_sim::plock::Mutex;
use trio_sim::rng::SimRng;
use trio_workloads::{OpCount, Workload};

use crate::timed::TimedFs;

/// A [`Workload`] that can also check its own results.
pub trait Generator: Workload {
    /// Post-window audit against the model, on untimed views (one per
    /// mount; a single element for single-mount worlds). Returns
    /// `(checks made, checks missed)`.
    fn audit(&self, views: &[Arc<dyn FileSystem>]) -> (u64, u64);

    /// Stamp mismatches and short transfers seen inside the window (none
    /// for a generator whose window reads no data back).
    fn window_misses(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------
// Stamps
// ---------------------------------------------------------------------

fn stamp(client: usize, block: usize, seq: u32) -> u64 {
    ((client as u64) << 56) | ((block as u64 & 0xFF_FFFF) << 32) | seq as u64
}

fn fill(buf: &mut [u8], s: u64) {
    for w in buf.chunks_exact_mut(8) {
        w.copy_from_slice(&s.to_le_bytes());
    }
}

/// The stamp a buffer is uniformly filled with, if it is.
fn uniform(buf: &[u8]) -> Option<u64> {
    let first = buf.get(..8)?;
    buf.chunks_exact(8).all(|w| w == first).then(|| {
        let mut b = [0u8; 8];
        b.copy_from_slice(first);
        u64::from_le_bytes(b)
    })
}

/// True when `buf` is exactly the concatenation of `unit`-sized blocks
/// carrying `stamps` in order.
fn holds(buf: &[u8], unit: usize, stamps: &[u64]) -> bool {
    buf.len() == unit * stamps.len()
        && buf
            .chunks_exact(unit)
            .zip(stamps)
            .all(|(b, s)| uniform(b) == Some(*s))
}

fn client_rng(seed: u64, client: usize) -> SimRng {
    SimRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Reads a whole file of at most `cap` bytes through `fs`.
fn read_whole(fs: &dyn FileSystem, path: &str, cap: usize) -> FsResult<Vec<u8>> {
    let fd = fs.open(path, OpenFlags::RDONLY, Mode::empty())?;
    let mut buf = vec![0u8; cap];
    let n = fs.pread(fd, 0, &mut buf);
    fs.close(fd)?;
    buf.truncate(n?);
    Ok(buf)
}

/// Regular files under `dir`, recursively.
fn count_files(fs: &dyn FileSystem, dir: &str) -> FsResult<u64> {
    let mut n = 0;
    for e in fs.readdir(dir)? {
        let path = if dir == "/" {
            format!("/{}", e.name)
        } else {
            format!("{dir}/{}", e.name)
        };
        match e.ftype {
            FileType::Regular => n += 1,
            FileType::Directory => n += count_files(fs, &path)?,
        }
    }
    Ok(n)
}

/// Tally of audit checks.
#[derive(Default)]
struct Tally {
    checks: u64,
    misses: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) {
        self.checks += 1;
        self.misses += !ok as u64;
    }

    fn done(self) -> (u64, u64) {
        (self.checks, self.misses)
    }
}

// ---------------------------------------------------------------------
// stream64k / direct1k: random aligned block reads and overwrites
// ---------------------------------------------------------------------

/// Each client owns one preallocated file and issues a 50/50 seeded mix
/// of `pread`/`pwrite` of one block at random aligned offsets. With
/// 64 KiB blocks every op is delegated; with 1 KiB blocks none is.
pub struct Blocks {
    seed: u64,
    block: usize,
    file_bytes: usize,
    ops_per_client: u64,
    /// Per client: the sequence number last written to each block.
    seqs: Vec<Mutex<Vec<u32>>>,
    misses: AtomicU64,
}

impl Blocks {
    pub fn new(seed: u64, clients: usize, block: usize, file_bytes: usize, ops: u64) -> Self {
        Blocks {
            seed,
            block,
            file_bytes,
            ops_per_client: ops,
            seqs: (0..clients)
                .map(|_| Mutex::new(vec![1; file_bytes / block]))
                .collect(),
            misses: AtomicU64::new(0),
        }
    }

    fn path(client: usize) -> String {
        format!("/c{client}.dat")
    }
}

impl Workload for Blocks {
    fn setup(&self, fs: &dyn FileSystem, threads: usize) {
        let chunk_bytes = self.file_bytes.min(1 << 20);
        let mut chunk = vec![0u8; chunk_bytes];
        for t in 0..threads {
            let Ok(fd) = fs.open(
                &Self::path(t),
                OpenFlags::CREATE | OpenFlags::WRONLY,
                Mode::RW,
            ) else {
                continue; // The audit will miss the file.
            };
            for off in (0..self.file_bytes).step_by(chunk_bytes) {
                for (i, b) in chunk.chunks_exact_mut(self.block).enumerate() {
                    fill(b, stamp(t, off / self.block + i, 1));
                }
                let _ = fs.pwrite(fd, off as u64, &chunk);
            }
            let _ = fs.close(fd);
        }
    }

    fn run_thread(&self, fs: &dyn FileSystem, t: usize) -> OpCount {
        let mut rng = client_rng(self.seed, t);
        let mut seqs = self.seqs[t].lock();
        let mut buf = vec![0u8; self.block];
        let mut out = OpCount::default();
        let Ok(fd) = fs.open(&Self::path(t), OpenFlags::RDWR, Mode::RW) else {
            return out;
        };
        for _ in 0..self.ops_per_client {
            let blk = rng.gen_range(seqs.len() as u64) as usize;
            let off = (blk * self.block) as u64;
            let moved = if rng.one_in(2) {
                let n = fs.pread(fd, off, &mut buf);
                if n.is_ok() && uniform(&buf) != Some(stamp(t, blk, seqs[blk])) {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                n
            } else {
                seqs[blk] += 1;
                fill(&mut buf, stamp(t, blk, seqs[blk]));
                fs.pwrite(fd, off, &buf)
            };
            if let Ok(n) = moved {
                self.misses
                    .fetch_add((n != self.block) as u64, Ordering::Relaxed);
                out.bytes += n as u64;
            }
            out.ops += 1;
        }
        let _ = fs.close(fd);
        out.ops += 2;
        out
    }

    fn name(&self) -> String {
        format!("blocks-{}B", self.block)
    }
}

impl Generator for Blocks {
    fn audit(&self, views: &[Arc<dyn FileSystem>]) -> (u64, u64) {
        // The window's reads verified the stamps; here only the
        // population: one file per client, nothing else.
        let mut t = Tally::default();
        t.check(count_files(&*views[0], "/") == Ok(self.seqs.len() as u64));
        t.done()
    }

    fn window_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// meta_private (and the metadata rounds of tenants32)
// ---------------------------------------------------------------------

/// One slot of a client's name pool.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Slot {
    Absent,
    /// Present under its `a` name.
    A,
    /// Present under its `b` name (renamed).
    B,
}

/// A private directory holding a pool of empty files, and the seeded mix
/// of metadata calls over it. The model makes every call valid.
struct MetaDir {
    dir: String,
    slots: Vec<Slot>,
}

impl MetaDir {
    fn new(dir: String, pool: usize) -> Self {
        MetaDir {
            dir,
            slots: vec![Slot::Absent; pool],
        }
    }

    fn name(&self, i: usize, slot: Slot) -> String {
        format!(
            "{}/f{i:02}{}",
            self.dir,
            if slot == Slot::B { 'b' } else { 'a' }
        )
    }

    /// Creates every even slot, so the window starts on a half-full pool.
    fn prefill(&mut self, fs: &dyn FileSystem) {
        for i in (0..self.slots.len()).step_by(2) {
            if fs.create(&self.name(i, Slot::A), Mode::RW).is_ok() {
                self.slots[i] = Slot::A;
            }
        }
    }

    /// One seeded step: create an absent slot, or open+close / stat /
    /// rename / unlink a present one. Returns the calls issued.
    fn step(&mut self, fs: &dyn FileSystem, rng: &mut SimRng) -> u64 {
        let i = rng.gen_range(self.slots.len() as u64) as usize;
        let cur = self.slots[i];
        let path = self.name(i, cur);
        if cur == Slot::Absent {
            if fs.create(&path, Mode::RW).is_ok() {
                self.slots[i] = Slot::A;
            }
            return 1;
        }
        match rng.gen_range(10) {
            0..=2 => {
                if let Ok(fd) = fs.open(&path, OpenFlags::RDONLY, Mode::empty()) {
                    let _ = fs.close(fd);
                }
                2
            }
            3..=5 => {
                let _ = fs.stat(&path);
                1
            }
            6..=7 => {
                let next = if cur == Slot::A { Slot::B } else { Slot::A };
                if fs.rename(&path, &self.name(i, next)).is_ok() {
                    self.slots[i] = next;
                }
                1
            }
            _ => {
                if fs.unlink(&path).is_ok() {
                    self.slots[i] = Slot::Absent;
                }
                1
            }
        }
    }

    /// Every present name stats, and the directory holds `extra` files
    /// beyond the pool's.
    fn audit(&self, fs: &dyn FileSystem, extra: u64, t: &mut Tally) {
        let live = self.slots.iter().filter(|s| **s != Slot::Absent).count() as u64;
        t.check(count_files(fs, &self.dir) == Ok(live + extra));
        for (i, s) in self.slots.iter().enumerate() {
            if *s != Slot::Absent {
                t.check(fs.stat(&self.name(i, *s)).is_ok());
            }
        }
    }
}

/// 5-deep private directories, a 64-name pool each, metadata calls only.
pub struct MetaPrivate {
    seed: u64,
    steps_per_client: u64,
    dirs: Vec<Mutex<MetaDir>>,
}

impl MetaPrivate {
    const DEPTH: usize = 5;

    pub fn new(seed: u64, clients: usize, pool: usize, steps: u64) -> Self {
        let dirs = (0..clients)
            .map(|t| {
                let mut d = format!("/m{t}");
                for l in 1..Self::DEPTH {
                    d = format!("{d}/d{l}");
                }
                Mutex::new(MetaDir::new(d, pool))
            })
            .collect();
        MetaPrivate {
            seed,
            steps_per_client: steps,
            dirs,
        }
    }
}

impl Workload for MetaPrivate {
    fn setup(&self, fs: &dyn FileSystem, threads: usize) {
        for t in 0..threads {
            let mut d = self.dirs[t].lock();
            let parts: Vec<&str> = d.dir.split('/').skip(1).collect();
            for depth in 1..=parts.len() {
                let _ = fs.mkdir(&format!("/{}", parts[..depth].join("/")), Mode::RWX);
            }
            d.prefill(fs);
        }
    }

    fn run_thread(&self, fs: &dyn FileSystem, t: usize) -> OpCount {
        let mut rng = client_rng(self.seed, t);
        let mut d = self.dirs[t].lock();
        let ops = (0..self.steps_per_client)
            .map(|_| d.step(fs, &mut rng))
            .sum();
        OpCount { ops, bytes: 0 }
    }

    fn name(&self) -> String {
        "meta-private".into()
    }
}

impl Generator for MetaPrivate {
    fn audit(&self, views: &[Arc<dyn FileSystem>]) -> (u64, u64) {
        let mut t = Tally::default();
        for d in &self.dirs {
            d.lock().audit(&*views[0], 0, &mut t);
        }
        t.done()
    }
}

// ---------------------------------------------------------------------
// varmail16
// ---------------------------------------------------------------------

/// The Filebench mail cycle over private mailboxes of 1 KiB messages:
/// delete; create + append + fsync; open + read + append + fsync; open +
/// read. The model records, per mailbox, the stamps whose `fsync`
/// returned `Ok` — what must survive a crash.
pub struct Varmail {
    seed: u64,
    cycles_per_client: u64,
    /// Per client, per mailbox: acknowledged message stamps, in order.
    acked: Vec<Mutex<Vec<Vec<u64>>>>,
    misses: AtomicU64,
}

impl Varmail {
    const MSG: usize = 1024;

    pub fn new(seed: u64, clients: usize, boxes: usize, cycles: u64) -> Self {
        Varmail {
            seed,
            cycles_per_client: cycles,
            acked: (0..clients)
                .map(|_| Mutex::new(vec![Vec::new(); boxes]))
                .collect(),
            misses: AtomicU64::new(0),
        }
    }

    fn path(client: usize, mbox: usize) -> String {
        format!("/v{client}/mb{mbox:03}")
    }

    /// Appends one stamped message at `off` and syncs; `Some(stamp)` when
    /// both the write and the `fsync` were acknowledged.
    fn deliver(
        fs: &dyn FileSystem,
        path: &str,
        flags: OpenFlags,
        off: usize,
        s: u64,
    ) -> Option<u64> {
        let fd = fs.open(path, flags, Mode::RW).ok()?;
        let mut msg = [0u8; Self::MSG];
        fill(&mut msg, s);
        let wrote = fs.pwrite(fd, off as u64, &msg) == Ok(Self::MSG);
        let synced = fs.fsync(fd).is_ok();
        let _ = fs.close(fd);
        (wrote && synced).then_some(s)
    }

    fn check_box(&self, fs: &dyn FileSystem, path: &str, want: &[u64]) -> bool {
        matches!(read_whole(fs, path, 4 * Self::MSG), Ok(got) if holds(&got, Self::MSG, want))
    }
}

impl Workload for Varmail {
    fn setup(&self, fs: &dyn FileSystem, threads: usize) {
        let create = OpenFlags::CREATE | OpenFlags::WRONLY;
        for t in 0..threads {
            let _ = fs.mkdir(&format!("/v{t}"), Mode::RWX);
            let mut acked = self.acked[t].lock();
            for (i, a) in acked.iter_mut().enumerate() {
                a.extend(Self::deliver(
                    fs,
                    &Self::path(t, i),
                    create,
                    0,
                    stamp(t, i, 1),
                ));
            }
        }
    }

    fn run_thread(&self, fs: &dyn FileSystem, t: usize) -> OpCount {
        let mut rng = client_rng(self.seed, t);
        let mut acked = self.acked[t].lock();
        let mut seq = 1u32;
        let mut out = OpCount::default();
        for _ in 0..self.cycles_per_client {
            let i = rng.gen_range(acked.len() as u64) as usize;
            let path = Self::path(t, i);
            if fs.unlink(&path).is_ok() {
                acked[i].clear();
            }
            for flags in [OpenFlags::CREATE | OpenFlags::WRONLY, OpenFlags::RDWR] {
                seq += 1;
                let off = acked[i].len() * Self::MSG;
                acked[i].extend(Self::deliver(fs, &path, flags, off, stamp(t, i, seq)));
                if !self.check_box(fs, &path, &acked[i]) {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
            }
            // unlink, 2 x (open write fsync close), 2 x (open read close).
            out.ops += 15;
            out.bytes += 5 * Self::MSG as u64;
        }
        out
    }

    fn name(&self) -> String {
        "varmail".into()
    }
}

impl Generator for Varmail {
    fn audit(&self, views: &[Arc<dyn FileSystem>]) -> (u64, u64) {
        let fs = &*views[0];
        let mut t = Tally::default();
        let mut boxes = 0;
        for (c, acked) in self.acked.iter().enumerate() {
            for (i, want) in acked.lock().iter().enumerate() {
                t.check(self.check_box(fs, &Self::path(c, i), want));
                boxes += 1;
            }
        }
        t.check(count_files(fs, "/") == Ok(boxes));
        t.done()
    }

    fn window_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// fileserver28
// ---------------------------------------------------------------------

/// One live file of the file server: its id and 32 KiB chunk stamps.
struct ServedFile {
    id: u64,
    chunks: Vec<u64>,
}

struct ServerDir {
    files: Vec<ServedFile>,
    next_id: u64,
}

/// Private directories; a seeded mix of create + write 128 KiB, append
/// 32 KiB, read whole, and unlink over a population of 4 to 12 files.
pub struct Fileserver {
    seed: u64,
    steps_per_client: u64,
    dirs: Vec<Mutex<ServerDir>>,
    misses: AtomicU64,
}

impl Fileserver {
    const CHUNK: usize = 32 << 10;
    const NEW_CHUNKS: usize = 4;
    const MAX_CHUNKS: usize = 8;
    const MIN_FILES: usize = 4;
    const MAX_FILES: usize = 12;

    pub fn new(seed: u64, clients: usize, steps: u64) -> Self {
        Fileserver {
            seed,
            steps_per_client: steps,
            dirs: (0..clients)
                .map(|_| {
                    Mutex::new(ServerDir {
                        files: Vec::new(),
                        next_id: 0,
                    })
                })
                .collect(),
            misses: AtomicU64::new(0),
        }
    }

    fn path(client: usize, id: u64) -> String {
        format!("/s{client}/n{id}")
    }

    /// Writes `chunks` stamped chunks at chunk index `at`; returns the
    /// stamps the file system acknowledged.
    fn write_chunks(
        fs: &dyn FileSystem,
        client: usize,
        id: u64,
        flags: OpenFlags,
        at: usize,
        chunks: usize,
    ) -> Vec<u64> {
        let Ok(fd) = fs.open(&Self::path(client, id), flags, Mode::RW) else {
            return Vec::new();
        };
        let stamps: Vec<u64> = (at..at + chunks)
            .map(|c| stamp(client, id as usize * Self::MAX_CHUNKS + c, 1))
            .collect();
        let mut buf = vec![0u8; chunks * Self::CHUNK];
        for (b, s) in buf.chunks_exact_mut(Self::CHUNK).zip(&stamps) {
            fill(b, *s);
        }
        let wrote = fs.pwrite(fd, (at * Self::CHUNK) as u64, &buf) == Ok(buf.len());
        let _ = fs.close(fd);
        if wrote {
            stamps
        } else {
            Vec::new()
        }
    }

    fn create_file(fs: &dyn FileSystem, client: usize, d: &mut ServerDir) -> u64 {
        let id = d.next_id;
        d.next_id += 1;
        let flags = OpenFlags::CREATE | OpenFlags::WRONLY;
        let chunks = Self::write_chunks(fs, client, id, flags, 0, Self::NEW_CHUNKS);
        d.files.push(ServedFile { id, chunks });
        (Self::NEW_CHUNKS * Self::CHUNK) as u64
    }

    fn check_file(fs: &dyn FileSystem, client: usize, f: &ServedFile) -> bool {
        let cap = Self::MAX_CHUNKS * Self::CHUNK;
        matches!(
            read_whole(fs, &Self::path(client, f.id), cap),
            Ok(got) if holds(&got, Self::CHUNK, &f.chunks)
        )
    }
}

impl Workload for Fileserver {
    fn setup(&self, fs: &dyn FileSystem, threads: usize) {
        for t in 0..threads {
            let _ = fs.mkdir(&format!("/s{t}"), Mode::RWX);
            let mut d = self.dirs[t].lock();
            for _ in 0..(Self::MIN_FILES + Self::MAX_FILES) / 2 {
                Self::create_file(fs, t, &mut d);
            }
        }
    }

    fn run_thread(&self, fs: &dyn FileSystem, t: usize) -> OpCount {
        let mut rng = client_rng(self.seed, t);
        let mut d = self.dirs[t].lock();
        let mut out = OpCount::default();
        for _ in 0..self.steps_per_client {
            let pick = rng.gen_range(d.files.len() as u64) as usize;
            let action = match d.files.len() {
                n if n <= Self::MIN_FILES => 0,
                n if n >= Self::MAX_FILES => 3,
                _ => rng.gen_range(4),
            };
            match action {
                0 => {
                    out.bytes += Self::create_file(fs, t, &mut d);
                    out.ops += 3;
                }
                1 if d.files[pick].chunks.len() < Self::MAX_CHUNKS => {
                    let f = &mut d.files[pick];
                    let at = f.chunks.len();
                    f.chunks
                        .extend(Self::write_chunks(fs, t, f.id, OpenFlags::RDWR, at, 1));
                    out.bytes += Self::CHUNK as u64;
                    out.ops += 3;
                }
                1 | 2 => {
                    let f = &d.files[pick];
                    if !Self::check_file(fs, t, f) {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                    }
                    out.bytes += (f.chunks.len() * Self::CHUNK) as u64;
                    out.ops += 3;
                }
                _ => {
                    if fs.unlink(&Self::path(t, d.files[pick].id)).is_ok() {
                        d.files.swap_remove(pick);
                    }
                    out.ops += 1;
                }
            }
        }
        out
    }

    fn name(&self) -> String {
        "fileserver".into()
    }
}

impl Generator for Fileserver {
    fn audit(&self, views: &[Arc<dyn FileSystem>]) -> (u64, u64) {
        let fs = &*views[0];
        let mut t = Tally::default();
        let mut files = 0;
        for (c, d) in self.dirs.iter().enumerate() {
            for f in &d.lock().files {
                t.check(Self::check_file(fs, c, f));
                files += 1;
            }
        }
        t.check(count_files(fs, "/") == Ok(files));
        t.done()
    }

    fn window_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// share2
// ---------------------------------------------------------------------

/// Two untrusted mounts: 4 KiB writes to one shared file, interleaved 4:1
/// (a seeded 3 to 5 to 1) with create + unlink + `release_path` in one shared directory.
pub struct Share2 {
    seed: u64,
    rounds_per_client: u64,
    /// Entries the shared directory is seeded with (and must end with).
    dir_files: usize,
    /// The timed views, for the release call the trait does not carry.
    views: Vec<Arc<TimedFs>>,
    /// Per client: the sequence number it last wrote to each block
    /// (0 = never). The prefill is client 0's write number 1.
    seqs: Vec<Mutex<Vec<u32>>>,
}

impl Share2 {
    const BLOCK: usize = 4096;
    const FILE: &'static str = "/shared.dat";
    const DIR: &'static str = "/sd";
    const MEAN_WRITES: u64 = 4;

    pub fn new(
        seed: u64,
        views: Vec<Arc<TimedFs>>,
        file_bytes: usize,
        dir_files: usize,
        rounds: u64,
    ) -> Self {
        let blocks = file_bytes / Self::BLOCK;
        let seqs = (0..views.len())
            .map(|c| Mutex::new(vec![(c == 0) as u32; blocks]))
            .collect();
        Share2 {
            seed,
            rounds_per_client: rounds,
            dir_files,
            views,
            seqs,
        }
    }
}

impl Workload for Share2 {
    /// Runs on mount 0, which then hands both objects over.
    fn setup(&self, fs: &dyn FileSystem, _threads: usize) {
        let blocks = self.seqs[0].lock().len();
        if let Ok(fd) = fs.open(
            Self::FILE,
            OpenFlags::CREATE | OpenFlags::WRONLY,
            Mode(0o666),
        ) {
            let mut buf = vec![0u8; blocks * Self::BLOCK];
            for (i, b) in buf.chunks_exact_mut(Self::BLOCK).enumerate() {
                fill(b, stamp(0, i, 1));
            }
            let _ = fs.pwrite(fd, 0, &buf);
            let _ = fs.close(fd);
        }
        let _ = fs.mkdir(Self::DIR, Mode(0o777));
        for i in 0..self.dir_files {
            let _ = fs.create(&format!("{}/base-{i}", Self::DIR), Mode(0o666));
        }
        // Hand both objects over, so that the window starts with neither
        // client holding a lease.
        let _ = self.views[0].release_path(Self::FILE);
        let _ = self.views[0].release_path(Self::DIR);
    }

    fn run_thread(&self, fs: &dyn FileSystem, t: usize) -> OpCount {
        let mut rng = client_rng(self.seed, t);
        let mut seqs = self.seqs[t].lock();
        let mut buf = vec![0u8; Self::BLOCK];
        let mut out = OpCount::default();
        let Ok(fd) = fs.open(Self::FILE, OpenFlags::RDWR, Mode(0o666)) else {
            return out;
        };
        for k in 0..self.rounds_per_client {
            // 3 to 5 writes per directory round trip: 4:1 on average.
            let writes = Self::MEAN_WRITES - 1 + rng.gen_range(3);
            for _ in 0..writes {
                let blk = rng.gen_range(seqs.len() as u64) as usize;
                // Client 1 numbers its writes from 1 too; the client byte
                // of the stamp keeps them apart.
                seqs[blk] += 1;
                fill(&mut buf, stamp(t, blk, seqs[blk]));
                if fs.pwrite(fd, (blk * Self::BLOCK) as u64, &buf).is_ok() {
                    out.bytes += Self::BLOCK as u64;
                }
            }
            let name = format!("{}/p{t}-{k}", Self::DIR);
            let _ = fs.create(&name, Mode(0o666));
            let _ = fs.unlink(&name);
            let _ = self.views[t].release_path(Self::DIR);
            out.ops += writes + 3;
        }
        let _ = fs.close(fd);
        out.ops += 2;
        out
    }

    fn name(&self) -> String {
        "share2".into()
    }
}

impl Generator for Share2 {
    fn audit(&self, views: &[Arc<dyn FileSystem>]) -> (u64, u64) {
        let fs = &*views[0];
        let mut t = Tally::default();
        let last: Vec<Vec<u32>> = self.seqs.iter().map(|s| s.lock().clone()).collect();
        let blocks = last[0].len();
        match read_whole(fs, Self::FILE, blocks * Self::BLOCK) {
            // Each block carries the last write of one of the clients.
            Ok(got) if got.len() == blocks * Self::BLOCK => {
                for (i, b) in got.chunks_exact(Self::BLOCK).enumerate() {
                    let s = uniform(b);
                    t.check(
                        (0..last.len())
                            .any(|c| last[c][i] > 0 && s == Some(stamp(c, i, last[c][i]))),
                    );
                }
            }
            _ => t.check(false),
        }
        t.check(count_files(fs, Self::DIR) == Ok(self.dir_files as u64));
        t.done()
    }
}

// ---------------------------------------------------------------------
// tenants32
// ---------------------------------------------------------------------

/// One mount per client: rounds of private metadata steps, each followed
/// by a burst of 64 KiB writes to the tenant's data file.
pub struct Tenants {
    seed: u64,
    rounds: u32,
    meta_steps: u64,
    /// Untimed views, one per tenant, for setup through the right mount.
    mounts: Vec<Arc<dyn FileSystem>>,
    dirs: Vec<Mutex<MetaDir>>,
    /// Per tenant: the round that last wrote the data file (0 = never).
    written: Vec<AtomicU64>,
}

impl Tenants {
    const BLOCK: usize = 64 << 10;
    const BURST: usize = 8;

    pub fn new(
        seed: u64,
        mounts: Vec<Arc<dyn FileSystem>>,
        rounds: u32,
        meta_steps: u64,
        pool: usize,
    ) -> Self {
        Tenants {
            seed,
            rounds,
            meta_steps,
            dirs: (0..mounts.len())
                .map(|t| Mutex::new(MetaDir::new(format!("/t{t}"), pool)))
                .collect(),
            written: (0..mounts.len()).map(|_| AtomicU64::new(0)).collect(),
            mounts,
        }
    }

    fn data_path(t: usize) -> String {
        format!("/t{t}/data")
    }
}

impl Workload for Tenants {
    /// Each tenant makes its directory through its own mount and leaves
    /// it empty. (A pool prefilled here makes window calls fail: once the
    /// root has been handed on, a tenant's `create` lands, loses its
    /// mapping at the size update, is retried, and reports `Exists`.)
    fn setup(&self, _fs: &dyn FileSystem, threads: usize) {
        for t in 0..threads {
            let _ = self.mounts[t].mkdir(&format!("/t{t}"), Mode(0o777));
        }
    }

    fn run_thread(&self, fs: &dyn FileSystem, t: usize) -> OpCount {
        let mut rng = client_rng(self.seed, t);
        let mut d = self.dirs[t].lock();
        let mut buf = vec![0u8; Self::BLOCK];
        let mut out = OpCount::default();
        for round in 1..=self.rounds {
            out.ops += (0..self.meta_steps)
                .map(|_| d.step(fs, &mut rng))
                .sum::<u64>();
            let flags = OpenFlags::CREATE | OpenFlags::WRONLY;
            let Ok(fd) = fs.open(&Self::data_path(t), flags, Mode(0o666)) else {
                continue;
            };
            let mut all = true;
            for j in 0..Self::BURST {
                fill(&mut buf, stamp(t, j, round));
                all &= fs.pwrite(fd, (j * Self::BLOCK) as u64, &buf) == Ok(Self::BLOCK);
            }
            let _ = fs.close(fd);
            if all {
                self.written[t].store(round as u64, Ordering::Relaxed);
            }
            out.ops += Self::BURST as u64 + 2;
            out.bytes += (Self::BURST * Self::BLOCK) as u64;
        }
        out
    }

    fn name(&self) -> String {
        "tenants".into()
    }
}

impl Generator for Tenants {
    fn audit(&self, views: &[Arc<dyn FileSystem>]) -> (u64, u64) {
        let mut tally = Tally::default();
        for (t, d) in self.dirs.iter().enumerate() {
            let fs = &*views[t % views.len()];
            let round = self.written[t].load(Ordering::Relaxed) as u32;
            let want: Vec<u64> = (0..Self::BURST).map(|j| stamp(t, j, round)).collect();
            let got = read_whole(fs, &Self::data_path(t), Self::BURST * Self::BLOCK);
            tally.check(round > 0 && matches!(got, Ok(g) if holds(&g, Self::BLOCK, &want)));
            d.lock().audit(fs, 1, &mut tally);
        }
        tally.done()
    }
}
