//! Write-ahead log.
//!
//! Record format (little-endian):
//!
//! | field    | size | notes                          |
//! |----------|-----:|--------------------------------|
//! | klen     |    4 |                                |
//! | vlen     |    4 | `0xFFFF_FFFF` = tombstone      |
//! | checksum |    4 | FNV-32 over key+value          |
//! | key      | klen |                                |
//! | value    | vlen | absent for tombstones          |
//!
//! A record with a bad checksum or truncated body ends replay — the
//! standard torn-tail rule.

use trio_fsapi::{Fd, FileSystem, FsResult, Mode, OpenFlags};

/// Open WAL state.
pub struct Wal {
    path: String,
    fd: Fd,
    off: u64,
}

const TOMBSTONE: u32 = u32::MAX;

fn fnv32(parts: &[&[u8]]) -> u32 {
    debug_assert_eq!(parts.len(), 2);
    crate::wal_checksum(parts[0], parts[1])
}

impl Wal {
    /// Opens (creating) the log, appending after any existing records.
    pub fn create(fs: &dyn FileSystem, path: &str) -> FsResult<Wal> {
        let fd = fs.open(path, OpenFlags::CREATE | OpenFlags::RDWR, Mode::RW)?;
        let off = fs.fstat(fd)?.size;
        Ok(Wal { path: path.to_string(), fd, off })
    }

    /// Appends one record; optionally syncs.
    pub fn append(
        &mut self,
        fs: &dyn FileSystem,
        key: &[u8],
        value: Option<&[u8]>,
        sync: bool,
    ) -> FsResult<()> {
        let vlen = value.map(|v| v.len() as u32).unwrap_or(TOMBSTONE);
        let mut rec = Vec::with_capacity(12 + key.len() + value.map(|v| v.len()).unwrap_or(0));
        rec.extend_from_slice(&(key.len() as u32).to_le_bytes());
        rec.extend_from_slice(&vlen.to_le_bytes());
        rec.extend_from_slice(&fnv32(&[key, value.unwrap_or(&[])]).to_le_bytes());
        rec.extend_from_slice(key);
        if let Some(v) = value {
            rec.extend_from_slice(v);
        }
        fs.pwrite(self.fd, self.off, &rec)?;
        self.off += rec.len() as u64;
        if sync {
            fs.fsync(self.fd)?;
        }
        Ok(())
    }

    /// Truncates the log after a successful memtable flush.
    pub fn reset(&mut self, fs: &dyn FileSystem) -> FsResult<()> {
        fs.truncate(&self.path, 0)?;
        self.off = 0;
        Ok(())
    }

    /// Reads every intact record from the start (recovery).
    #[allow(
        clippy::type_complexity,
        reason = "a (key, value-or-tombstone) list; an alias would hide the tombstone"
    )]
    pub fn replay(&self, fs: &dyn FileSystem) -> FsResult<Vec<(Vec<u8>, Option<Vec<u8>>)>> {
        let size = fs.fstat(self.fd)?.size;
        let mut data = vec![0u8; size as usize];
        let mut done = 0;
        while (done as u64) < size {
            let n = fs.pread(self.fd, done as u64, &mut data[done..])?;
            if n == 0 {
                break;
            }
            done += n;
        }
        data.truncate(done);
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos + 12 <= data.len() {
            let klen = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4")) as usize;
            let vraw = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4"));
            let sum = u32::from_le_bytes(data[pos + 8..pos + 12].try_into().expect("4"));
            let vlen = if vraw == TOMBSTONE { 0 } else { vraw as usize };
            let body = pos + 12;
            if body + klen + vlen > data.len() {
                break; // Torn tail.
            }
            let key = &data[body..body + klen];
            let val = &data[body + klen..body + klen + vlen];
            if fnv32(&[key, val]) != sum {
                break; // Corrupt tail.
            }
            out.push((
                key.to_vec(),
                if vraw == TOMBSTONE { None } else { Some(val.to_vec()) },
            ));
            pos = body + klen + vlen;
        }
        Ok(out)
    }

    /// Bytes currently in the log.
    pub fn len(&self) -> u64 {
        self.off
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.off == 0
    }
}
