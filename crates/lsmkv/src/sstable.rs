//! Immutable sorted tables.
//!
//! On-media format: a sequence of records identical to the WAL's (klen,
//! vlen, checksum, key, value), written in ascending key order. At open
//! (or build) time the key index — `(key, value offset, vlen)` — is kept
//! in memory, like LevelDB's index block; `get` binary-searches the index
//! and `pread`s just the value, so point reads cost one small random read
//! on the file system under test.

use trio_fsapi::{FileSystem, FsResult, Mode, OpenFlags};

const TOMBSTONE: u32 = u32::MAX;

/// One immutable table.
pub struct Table {
    path: String,
    /// Sorted `(key, value_offset, vlen_raw)`.
    index: Vec<(Vec<u8>, u64, u32)>,
}

impl Table {
    /// Writes `entries` (sorted, as from a `BTreeMap`) to `path`.
    pub fn build(
        fs: &dyn FileSystem,
        path: &str,
        entries: &[(Vec<u8>, Option<Vec<u8>>)],
    ) -> FsResult<Table> {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "sorted input");
        let fd = fs.open(path, OpenFlags::CREATE | OpenFlags::WRONLY | OpenFlags::TRUNC, Mode::RW)?;
        let mut buf = Vec::with_capacity(1 << 16);
        let mut index = Vec::with_capacity(entries.len());
        let mut off = 0u64;
        for (k, v) in entries {
            let vlen_raw = v.as_ref().map(|v| v.len() as u32).unwrap_or(TOMBSTONE);
            let empty: &[u8] = &[];
            let vbytes = v.as_deref().unwrap_or(empty);
            let rec_start = off + buf.len() as u64;
            buf.extend_from_slice(&(k.len() as u32).to_le_bytes());
            buf.extend_from_slice(&vlen_raw.to_le_bytes());
            buf.extend_from_slice(&crate::wal_checksum(k, vbytes).to_le_bytes());
            buf.extend_from_slice(k);
            buf.extend_from_slice(vbytes);
            index.push((k.clone(), rec_start + 12 + k.len() as u64, vlen_raw));
            if buf.len() >= 1 << 16 {
                fs.pwrite(fd, off, &buf)?;
                off += buf.len() as u64;
                buf.clear();
            }
        }
        if !buf.is_empty() {
            fs.pwrite(fd, off, &buf)?;
        }
        fs.fsync(fd)?;
        fs.close(fd)?;
        Ok(Table { path: path.to_string(), index })
    }

    /// Opens an existing table, rebuilding the in-memory index from the
    /// file (recovery path).
    pub fn load(fs: &dyn FileSystem, path: &str) -> FsResult<Table> {
        let fd = fs.open(path, OpenFlags::RDONLY, Mode::empty())?;
        let size = fs.fstat(fd)?.size as usize;
        let mut data = vec![0u8; size];
        let mut done = 0;
        while done < size {
            let n = fs.pread(fd, done as u64, &mut data[done..])?;
            if n == 0 {
                break;
            }
            done += n;
        }
        fs.close(fd)?;
        data.truncate(done);
        let mut index = Vec::new();
        let mut pos = 0usize;
        while pos + 12 <= data.len() {
            let klen = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4")) as usize;
            let vraw = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4"));
            let vlen = if vraw == TOMBSTONE { 0 } else { vraw as usize };
            let body = pos + 12;
            if body + klen + vlen > data.len() {
                break;
            }
            let key = data[body..body + klen].to_vec();
            index.push((key, (body + klen) as u64, vraw));
            pos = body + klen + vlen;
        }
        Ok(Table { path: path.to_string(), index })
    }

    /// First/last key coverage test (L1 is non-overlapping).
    pub fn covers(&self, key: &[u8]) -> bool {
        match (self.index.first(), self.index.last()) {
            (Some(first), Some(last)) => key >= first.0.as_slice() && key <= last.0.as_slice(),
            _ => false,
        }
    }

    /// Point lookup: index binary search + one value `pread`.
    /// `Ok(Some(None))` is a tombstone hit.
    #[allow(
        clippy::type_complexity,
        reason = "the nested Option is the tombstone, documented above"
    )]
    pub fn get(&self, fs: &dyn FileSystem, key: &[u8]) -> FsResult<Option<Option<Vec<u8>>>> {
        let Ok(i) = self.index.binary_search_by(|(k, _, _)| k.as_slice().cmp(key)) else {
            return Ok(None);
        };
        let (_, voff, vraw) = &self.index[i];
        if *vraw == TOMBSTONE {
            return Ok(Some(None));
        }
        let fd = fs.open(&self.path, OpenFlags::RDONLY, Mode::empty())?;
        let mut val = vec![0u8; *vraw as usize];
        let mut done = 0;
        while done < val.len() {
            let n = fs.pread(fd, voff + done as u64, &mut val[done..])?;
            if n == 0 {
                break;
            }
            done += n;
        }
        fs.close(fd)?;
        Ok(Some(Some(val)))
    }

    /// Full scan (compaction input).
    #[allow(
        clippy::type_complexity,
        reason = "a (key, value-or-tombstone) list; an alias would hide the tombstone"
    )]
    pub fn scan(&self, fs: &dyn FileSystem) -> FsResult<Vec<(Vec<u8>, Option<Vec<u8>>)>> {
        let mut out = Vec::with_capacity(self.index.len());
        let fd = fs.open(&self.path, OpenFlags::RDONLY, Mode::empty())?;
        for (k, voff, vraw) in &self.index {
            if *vraw == TOMBSTONE {
                out.push((k.clone(), None));
                continue;
            }
            let mut val = vec![0u8; *vraw as usize];
            let mut done = 0;
            while done < val.len() {
                let n = fs.pread(fd, voff + done as u64, &mut val[done..])?;
                if n == 0 {
                    break;
                }
                done += n;
            }
            out.push((k.clone(), Some(val)));
        }
        fs.close(fd)?;
        Ok(out)
    }

    /// Deletes the backing file (post-compaction).
    pub fn remove(&self, fs: &dyn FileSystem) -> FsResult<()> {
        fs.unlink(&self.path)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}
