//! A from-scratch LSM-tree key-value store in the LevelDB mould, running
//! entirely on the [`trio_fsapi::FileSystem`] trait.
//!
//! The paper's Table 5 evaluates LevelDB's `db_bench` over each file
//! system; what that workload exercises in the FS is LevelDB's file
//! footprint — sequential WAL appends with optional sync, SSTable
//! creation on memtable flush, compaction rewrites, and random reads of
//! SSTable blocks. This crate reproduces that footprint with a real
//! (correct, tested) LSM implementation:
//!
//! * an in-memory **memtable** (ordered map with tombstones),
//! * a **write-ahead log** with length-prefixed, checksummed records,
//! * immutable **SSTables** (sorted, with an in-memory index block and
//!   values fetched by `pread`),
//! * two-level **compaction** (L0 accumulates flushed memtables; when it
//!   fills, everything merges into a single sorted L1 run),
//! * a [`bench`] module driving the six `db_bench` workloads of Table 5.
//!
//! # Examples
//!
//! See `Db`'s method docs; end-to-end usage lives in `tests/` and the
//! `table5_leveldb` bench.

pub mod bench;
pub mod sstable;
pub mod wal;

use std::collections::BTreeMap;
use std::sync::Arc;

use trio_fsapi::{FileSystem, FsError, FsResult, Mode};
use trio_sim::sync::SimMutex;

use sstable::Table;
use wal::Wal;

/// FNV-32 checksum over key+value (shared by the WAL and SSTable record
/// formats).
pub(crate) fn wal_checksum(key: &[u8], value: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in key.iter().chain(value.iter()) {
        h = (h ^ b as u32).wrapping_mul(0x0100_0193);
    }
    h
}

/// Database tunables.
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// Memtable flush threshold in bytes (LevelDB default 4 MiB; scaled).
    pub memtable_bytes: usize,
    /// L0 tables that trigger a full compaction.
    pub l0_trigger: usize,
    /// `fsync` the WAL after every write (`fillsync`).
    pub sync_writes: bool,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig { memtable_bytes: 1 << 20, l0_trigger: 4, sync_writes: false }
    }
}

struct DbInner {
    mem: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    mem_bytes: usize,
    wal: Wal,
    l0: Vec<Table>,
    l1: Vec<Table>,
    next_table: u64,
}

/// The key-value store. Writers serialize on an internal lock (LevelDB's
/// single writer thread); reads share it briefly to snapshot the level
/// structure.
pub struct Db {
    fs: Arc<dyn FileSystem>,
    dir: String,
    cfg: DbConfig,
    inner: SimMutex<DbInner>,
}

impl Db {
    /// Opens (creating) a database under `dir`.
    pub fn open(fs: Arc<dyn FileSystem>, dir: &str, cfg: DbConfig) -> FsResult<Db> {
        match fs.mkdir(dir, Mode::RWX) {
            Ok(()) | Err(FsError::Exists) => {}
            Err(e) => return Err(e),
        }
        let wal = Wal::create(&*fs, &format!("{dir}/wal.log"))?;
        Ok(Db {
            inner: SimMutex::new(DbInner {
                mem: BTreeMap::new(),
                mem_bytes: 0,
                wal,
                l0: Vec::new(),
                l1: Vec::new(),
                next_table: 0,
            }),
            fs,
            dir: dir.to_string(),
            cfg,
        })
    }

    /// Inserts or replaces `key`.
    pub fn put(&self, key: &[u8], value: &[u8]) -> FsResult<()> {
        self.write(key, Some(value))
    }

    /// Deletes `key` (tombstone).
    pub fn delete(&self, key: &[u8]) -> FsResult<()> {
        self.write(key, None)
    }

    fn write(&self, key: &[u8], value: Option<&[u8]>) -> FsResult<()> {
        let mut g = self.inner.lock();
        g.wal.append(&*self.fs, key, value, self.cfg.sync_writes)?;
        let added = key.len() + value.map(|v| v.len()).unwrap_or(0) + 16;
        g.mem.insert(key.to_vec(), value.map(|v| v.to_vec()));
        g.mem_bytes += added;
        if g.mem_bytes >= self.cfg.memtable_bytes {
            self.flush_locked(&mut g)?;
        }
        Ok(())
    }

    /// Reads `key`.
    pub fn get(&self, key: &[u8]) -> FsResult<Option<Vec<u8>>> {
        let g = self.inner.lock();
        if let Some(v) = g.mem.get(key) {
            return Ok(v.clone());
        }
        for t in g.l0.iter().rev() {
            if let Some(v) = t.get(&*self.fs, key)? {
                return Ok(v);
            }
        }
        for t in &g.l1 {
            if t.covers(key) {
                if let Some(v) = t.get(&*self.fs, key)? {
                    return Ok(v);
                }
            }
        }
        Ok(None)
    }

    /// Forces a memtable flush (tests; `db_bench` relies on thresholds).
    pub fn flush(&self) -> FsResult<()> {
        let mut g = self.inner.lock();
        self.flush_locked(&mut g)
    }

    /// Current SSTable counts `(l0, l1)` — compaction observability.
    pub fn table_counts(&self) -> (usize, usize) {
        let g = self.inner.lock();
        (g.l0.len(), g.l1.len())
    }

    fn flush_locked(&self, g: &mut DbInner) -> FsResult<()> {
        if g.mem.is_empty() {
            return Ok(());
        }
        let id = g.next_table;
        g.next_table += 1;
        let path = format!("{}/sst-{id:06}.tbl", self.dir);
        let entries: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            std::mem::take(&mut g.mem).into_iter().collect();
        g.mem_bytes = 0;
        let table = Table::build(&*self.fs, &path, &entries)?;
        g.l0.push(table);
        g.wal.reset(&*self.fs)?;
        if g.l0.len() >= self.cfg.l0_trigger {
            self.compact_locked(g)?;
        }
        Ok(())
    }

    /// Merges every L0 table and the L1 run into one fresh sorted run,
    /// dropping tombstones (L1 is the bottom level).
    fn compact_locked(&self, g: &mut DbInner) -> FsResult<()> {
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        // Oldest first so newer tables overwrite.
        for t in &g.l1 {
            for (k, v) in t.scan(&*self.fs)? {
                merged.insert(k, v);
            }
        }
        for t in &g.l0 {
            for (k, v) in t.scan(&*self.fs)? {
                merged.insert(k, v);
            }
        }
        let live: Vec<(Vec<u8>, Option<Vec<u8>>)> =
            merged.into_iter().filter(|(_, v)| v.is_some()).collect();
        let id = g.next_table;
        g.next_table += 1;
        let path = format!("{}/sst-{id:06}.tbl", self.dir);
        let new_l1 = if live.is_empty() { None } else { Some(Table::build(&*self.fs, &path, &live)?) };
        for t in g.l0.drain(..).chain(g.l1.drain(..)) {
            t.remove(&*self.fs)?;
        }
        g.l1.extend(new_l1);
        Ok(())
    }

    /// Replays the WAL into a fresh memtable (crash recovery). SSTables
    /// are rediscovered by directory scan.
    pub fn recover(fs: Arc<dyn FileSystem>, dir: &str, cfg: DbConfig) -> FsResult<Db> {
        let db = Db::open(Arc::clone(&fs), dir, cfg)?;
        {
            let mut g = db.inner.lock();
            // Rediscover persisted tables (oldest-first into L0; their
            // relative order is the build order encoded in the name).
            let mut names: Vec<String> = fs
                .readdir(dir)?
                .into_iter()
                .map(|e| e.name)
                .filter(|n| n.starts_with("sst-"))
                .collect();
            names.sort();
            for n in &names {
                let path = format!("{dir}/{n}");
                let t = Table::load(&*fs, &path)?;
                g.l0.push(t);
            }
            if let Some(last) = names.last() {
                let id: u64 = last
                    .trim_start_matches("sst-")
                    .trim_end_matches(".tbl")
                    .parse()
                    .unwrap_or(0);
                g.next_table = id + 1;
            }
            // Replay intact WAL records into the memtable.
            let records = g.wal.replay(&*fs)?;
            for (k, v) in records {
                g.mem_bytes += k.len() + v.as_ref().map(|v| v.len()).unwrap_or(0) + 16;
                g.mem.insert(k, v);
            }
        }
        Ok(db)
    }
}
