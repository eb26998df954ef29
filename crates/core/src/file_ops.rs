//! Regular-file data operations: read, write, truncate (paper §4.2).
//!
//! Reads take the inode lock shared plus a shared range lock; overwrites
//! of allocated ranges take the inode lock shared plus an exclusive range
//! lock (disjoint writers run in parallel); appends/extends/truncates take
//! the inode lock exclusive. Large transfers go through the delegation
//! pool (§4.5); small ones are direct loads/stores.

use std::collections::BTreeMap;
use std::sync::Arc;

use trio_fsapi::{FsError, FsResult};
use trio_kernel::delegation::DelegationError;
use trio_kernel::RetryPolicy;
use trio_layout::{chain_capacity, index_slot, DirentRef, IndexPageRef};
use trio_nvm::{PageId, PAGE_SIZE};
use trio_sim::{in_sim, now_or_zero};

use crate::libfs::ArckFs;
use crate::node::{FileNode, MapState, NodeInner};
use crate::pool::STRIPE_PAGES;

/// Accesses at/above this size always delegate.
const ADAPTIVE_DELEGATE_BYTES: usize = 64 * 1024;
/// Accesses below this size never delegate; in between, node load and
/// remoteness decide.
const ADAPTIVE_FLOOR_BYTES: usize = 4096;

/// The delegation retry policy (DESIGN.md §16): a 5 ms budget for one
/// delegated request, doubled per attempt up to a 40 ms backoff cap, three
/// attempts before falling back to direct access, and sim-RNG jitter so
/// synchronized clients don't retry in lockstep. The 8 ns per payload byte
/// is there because a saturated device legitimately takes ~4 ns/byte of
/// queueing per thread at full fan-in; without it, large ops at high
/// thread counts time out on healthy (merely busy) workers and the retries
/// collapse throughput. The pool recomputes the window from the
/// *remaining* bytes each attempt, so retries of a partially completed
/// batch get windows scaled to what is actually left.
const DELEGATION_RETRY: RetryPolicy =
    RetryPolicy::new(5 * trio_sim::MILLIS, 8, 3, 40 * trio_sim::MILLIS);

/// A write's payload source. `data` is always readable (the caller's
/// slice, or its snapshot of a registered buffer) and serves the direct
/// path; when `grant` is set, the delegation path submits the window by
/// reference instead of materializing the bytes.
pub(crate) struct WriteSrc<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) grant: Option<trio_kernel::GrantRef>,
}

impl ArckFs {
    /// Reads up to `buf.len()` bytes at `off`.
    pub(crate) fn pread_node(
        &self,
        node: &Arc<FileNode>,
        off: u64,
        buf: &mut [u8],
    ) -> FsResult<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let _span = crate::obs::syscall_span(false, self.actor.0, buf.len() as u64);
        self.with_mapped(node, false, |fs, g| {
            if off >= g.size {
                return Ok(0);
            }
            let len = buf.len().min((g.size - off) as usize);
            let _r = node.range.acquire(off, len as u64, false);
            fs.read_span(&g, off, &mut buf[..len])?;
            Ok(len)
        })
    }

    /// Writes `data` at `off`, extending the file as needed.
    pub(crate) fn pwrite_node(
        &self,
        node: &Arc<FileNode>,
        off: u64,
        data: &[u8],
    ) -> FsResult<usize> {
        self.pwrite_src(node, off, &WriteSrc { data, grant: None })
    }

    /// Zero-copy variant: `gref` names a window of a registered grant and
    /// is what the delegation path submits; `snap` is the client's own
    /// consistent snapshot of the granted buffer, used by the direct path
    /// (small writes, delegation fallback) without re-materializing.
    pub(crate) fn pwrite_registered_node(
        &self,
        node: &Arc<FileNode>,
        off: u64,
        gref: trio_kernel::GrantRef,
        snap: &[u8],
    ) -> FsResult<usize> {
        let data = snap.get(gref.start..gref.start + gref.len).ok_or(FsError::InvalidArgument)?;
        self.pwrite_src(node, off, &WriteSrc { data, grant: Some(gref) })
    }

    fn pwrite_src(&self, node: &Arc<FileNode>, off: u64, src: &WriteSrc<'_>) -> FsResult<usize> {
        let data = src.data;
        if data.is_empty() {
            return Ok(0);
        }
        let _span = crate::obs::syscall_span(true, self.actor.0, data.len() as u64);
        let len = data.len();
        self.with_mapped(node, true, |fs, g| {
            // Fast path: in-place overwrite of an allocated span — shared
            // inode lock, exclusive range lock (concurrent disjoint writes).
            if off + len as u64 <= g.size && fs.span_allocated(&g, off, len) {
                let _r = node.range.acquire(off, len as u64, true);
                fs.write_span(&g, off, src)?;
                return Ok(len);
            }
            // Slow path: append/extend — exclusive inode lock (paper: one
            // thread appends at a time).
            drop(g);
            let mut g = node.inner.write();
            if g.map != MapState::Write {
                return Err(FsError::Stale);
            }
            fs.ensure_span(node, &mut g, off, len)?;
            fs.write_span(&g, off, src)?;
            if off + len as u64 > g.size {
                g.size = off + len as u64;
                g.mtime = now_or_zero();
                fs.publish_size(node, &g)?;
            }
            Ok(len)
        })
    }

    /// Truncates (or sparsely extends) to `size`.
    pub(crate) fn truncate_node(&self, node: &Arc<FileNode>, size: u64) -> FsResult<()> {
        self.with_mapped(node, true, |fs, g| {
            drop(g);
            let mut g = node.inner.write();
            if g.map != MapState::Write {
                return Err(FsError::Stale);
            }
            let old = g.size;
            g.size = size;
            g.mtime = now_or_zero();
            fs.publish_size(node, &g)?;
            if size >= old {
                return Ok(()); // Sparse growth: holes read as zeros.
            }
            // Zero the partial tail of the boundary page so a later
            // re-extension reads zeros, then unlink whole pages beyond.
            let keep_pages = (size as usize).div_ceil(PAGE_SIZE);
            if !size.is_multiple_of(PAGE_SIZE as u64) {
                if let Some(Some(p)) = g.data_pages.get(keep_pages - 1) {
                    let from = (size % PAGE_SIZE as u64) as usize;
                    let zeros = vec![0u8; PAGE_SIZE - from];
                    self.h.write(*p, from, &zeros).map_err(Self::fault)?;
                }
            }
            let mut freed: Vec<PageId> = Vec::new();
            for lp in keep_pages..g.data_pages.len() {
                if let Some(p) = g.data_pages[lp].take() {
                    // Clear the index slot durably *before* the page can be
                    // reused by anyone else.
                    let (ipi, slot) = index_slot(lp);
                    IndexPageRef::new(&self.h, g.index_pages[ipi])
                        .set_entry(slot, 0)
                        .map_err(Self::fault)?;
                    freed.push(p);
                }
            }
            g.data_pages.truncate(keep_pages);
            if !freed.is_empty() {
                fs.kernel.return_file_pages(fs.actor, node.ino, &freed)?;
            }
            Ok(())
        })
    }

    // -----------------------------------------------------------------
    // Span helpers.
    // -----------------------------------------------------------------

    pub(crate) fn span_allocated(&self, g: &NodeInner, off: u64, len: usize) -> bool {
        let first = (off as usize) / PAGE_SIZE;
        let last = (off as usize + len - 1) / PAGE_SIZE;
        if last >= g.data_pages.len() {
            return false;
        }
        g.data_pages[first..=last].iter().all(|p| p.is_some())
    }

    /// Reads `[off, off+buf.len())`, filling holes with zeros, charging
    /// per contiguous run.
    pub(crate) fn read_span(&self, g: &NodeInner, off: u64, buf: &mut [u8]) -> FsResult<()> {
        let mut pos = 0usize;
        while pos < buf.len() {
            let abs = off as usize + pos;
            let lp = abs / PAGE_SIZE;
            let in_page = abs % PAGE_SIZE;
            if lp >= g.data_pages.len() || g.data_pages[lp].is_none() {
                let n = (PAGE_SIZE - in_page).min(buf.len() - pos);
                buf[pos..pos + n].fill(0);
                pos += n;
                continue;
            }
            // Maximal allocated run.
            let mut end_lp = lp;
            let last_needed = (off as usize + buf.len() - 1) / PAGE_SIZE;
            while end_lp < last_needed
                && end_lp + 1 < g.data_pages.len()
                && g.data_pages[end_lp + 1].is_some()
            {
                end_lp += 1;
            }
            let pages: Vec<PageId> = g.data_pages[lp..=end_lp]
                .iter()
                .map(|p| p.ok_or(FsError::InvalidArgument))
                .collect::<FsResult<_>>()?;
            let run_cap = pages.len() * PAGE_SIZE - in_page;
            let n = run_cap.min(buf.len() - pos);
            self.rw_extent_read(&pages, in_page, &mut buf[pos..pos + n])?;
            pos += n;
        }
        Ok(())
    }

    /// Writes the source at `off`; every page in the span must be
    /// allocated.
    pub(crate) fn write_span(&self, g: &NodeInner, off: u64, src: &WriteSrc<'_>) -> FsResult<()> {
        let first = (off as usize) / PAGE_SIZE;
        let last = (off as usize + src.data.len() - 1) / PAGE_SIZE;
        let pages: Vec<PageId> = g.data_pages[first..=last]
            .iter()
            .map(|p| p.ok_or(FsError::InvalidArgument))
            .collect::<FsResult<_>>()?;
        let in_page = (off as usize) % PAGE_SIZE;
        self.rw_extent_write(&pages, in_page, src)
    }

    /// Whether this access should go through delegation (paper §4.5, with
    /// a load-aware rule in place of the paper's fixed thresholds): huge
    /// accesses always delegate (multi-node aggregation plus bounded
    /// per-node concurrency both pay off), tiny ones never do (the ring
    /// round trip dominates), and mid-sized accesses delegate only when a
    /// target node's sampled load has reached the bandwidth-collapse knee —
    /// the regime delegation exists to prevent — or the access would cross
    /// sockets (the remote penalty exceeds the ring round trip). A pool in
    /// degraded mode sheds everything but its probes (DESIGN.md §16).
    fn route_delegated(&self, pages: &[PageId], len: usize, is_write: bool) -> bool {
        let pool = self.kernel.delegation();
        if !self.cfg.delegation || !pool.is_started() || !in_sim() || !pool.admit_delegated() {
            return false;
        }
        let delegate = 'decide: {
            if len >= ADAPTIVE_DELEGATE_BYTES {
                break 'decide true;
            }
            if len < ADAPTIVE_FLOOR_BYTES {
                break 'decide false;
            }
            let dev = self.kernel.device();
            let topo = dev.topology();
            let home = trio_nvm::handle::home_node();
            let knee = if is_write { self.write_knee } else { self.read_knee };
            let mut remote = false;
            let mut last_node = usize::MAX;
            for p in pages {
                let n = topo.node_of(*p);
                if n == last_node {
                    continue;
                }
                last_node = n;
                if dev.node_load_level(n, is_write) >= knee {
                    break 'decide true;
                }
                remote |= n != home;
            }
            remote
        };
        self.stats.record_adaptive(delegate);
        delegate
    }

    fn rw_extent_read(&self, pages: &[PageId], start: usize, buf: &mut [u8]) -> FsResult<()> {
        if self.route_delegated(pages, buf.len(), false) {
            // Deadline-bounded with retry-with-backoff (inside the pool):
            // a stalled, wedged, or dead delegation thread must never hang
            // the client. Each retry is round-robined onto a different
            // ring after a watchdog pass; a timed-out read only filled an
            // unspecified prefix, and re-reading is idempotent.
            let pool = self.kernel.delegation();
            match pool.try_read_extent(self.actor, pages, start, buf, &DELEGATION_RETRY) {
                Ok(()) => return Ok(()),
                Err(DelegationError::Fault(e)) => return Err(Self::fault(e)),
                // Graceful degradation: serve directly (correct, merely
                // slower and possibly remote) rather than fail or hang.
                Err(DelegationError::Timeout) => {
                    self.stats.record_fallback();
                    crate::obs::fallback_dump();
                }
            }
        }
        self.h.read_extent(pages, start, buf).map_err(Self::fault)?;
        self.stats.record_direct_bytes(buf.len(), false);
        Ok(())
    }

    fn rw_extent_write(&self, pages: &[PageId], start: usize, src: &WriteSrc<'_>) -> FsResult<()> {
        if self.route_delegated(pages, src.data.len(), true) {
            // Same protocol as reads. Retrying a possibly-executed write
            // is safe: every copy carries the bytes of one op-window
            // snapshot for the same place, and the op's revoke drains any
            // copy still in flight before the pool returns, so nothing
            // lands after the direct fallback below.
            let pool = self.kernel.delegation();
            // Registered buffers submit by reference (the grant window);
            // only the legacy slice path materializes a transient grant.
            let r = match src.grant {
                Some(gref) => pool.try_write_extent_granted(self.actor, pages, start, gref, &DELEGATION_RETRY),
                None => pool.try_write_extent(self.actor, pages, start, src.data, &DELEGATION_RETRY),
            };
            match r {
                Ok(()) => return Ok(()),
                Err(DelegationError::Fault(e)) => return Err(Self::fault(e)),
                Err(DelegationError::Timeout) => {
                    self.stats.record_fallback();
                    crate::obs::fallback_dump();
                }
            }
        }
        self.h.write_extent(pages, start, src.data).map_err(Self::fault)?;
        self.stats.record_direct_bytes(src.data.len(), true);
        Ok(())
    }

    /// NUMA node for logical page `lp` of file `ino`: striped across nodes
    /// in [`STRIPE_PAGES`] units with a per-file phase, or the caller's home
    /// node.
    ///
    /// The phase matters under load: identical workers sweeping their own
    /// files in lockstep (the fio pattern) would otherwise all sit on the
    /// same stripe position at the same instant, convoying onto one node
    /// while the other seven idle. Offsetting each file's stripe origin by
    /// its ino spreads the instantaneous load across every node while
    /// keeping each file's layout deterministic.
    fn placement_node(&self, ino: u64, lp: usize) -> usize {
        let nodes = self.kernel.device().topology().nodes;
        if self.cfg.stripe && nodes > 1 {
            (lp / STRIPE_PAGES + ino as usize) % nodes
        } else {
            trio_nvm::handle::home_node()
        }
    }

    /// Ensures pages exist covering `[off, off+len)`: grows the index
    /// chain, allocates data pages (striped), links them, and persists the
    /// links (the size field published afterwards is the commit point).
    pub(crate) fn ensure_span(
        &self,
        node: &Arc<FileNode>,
        g: &mut NodeInner,
        off: u64,
        len: usize,
    ) -> FsResult<()> {
        let last_lp = (off as usize + len - 1) / PAGE_SIZE;
        // 1. Index pages.
        while chain_capacity(g.index_pages.len()) <= last_lp {
            let ip = self.pages.take_lone(trio_nvm::handle::home_node())?;
            match g.index_pages.last() {
                Some(prev) => {
                    IndexPageRef::new(&self.h, *prev).set_next(ip.0).map_err(Self::fault)?;
                }
                None => {
                    // A node whose placement vanished (e.g. rebuilt after a
                    // fault from damaged core state) must error, not abort.
                    let loc = node.placement().loc.ok_or(FsError::Corrupted)?;
                    DirentRef::new(&self.h, loc).set_first_index(ip.0).map_err(Self::fault)?;
                }
            }
            g.index_pages.push(ip);
        }
        if g.data_pages.len() <= last_lp {
            g.data_pages.resize(last_lp + 1, None);
        }
        // 2. Data pages, grouped by placement node.
        let first_lp = (off as usize) / PAGE_SIZE;
        let missing: Vec<usize> =
            (first_lp..=last_lp).filter(|&lp| g.data_pages[lp].is_none()).collect();
        if missing.is_empty() {
            return Ok(());
        }
        // Ordered maps here and in step 3: iteration order decides which
        // node's kernel refill this thread reaches first and the order of
        // the transfer charges, so it must be a function of the input.
        let mut by_node: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &lp in &missing {
            by_node.entry(self.placement_node(node.ino, lp)).or_default().push(lp);
        }
        // A run of one page may be lent by a sibling bucket; a longer run
        // keeps its stripe node (DESIGN.md §12 "Two layers").
        for (nodeid, lps) in by_node {
            let pages = match lps.len() {
                1 => vec![self.pages.take_lone(nodeid)?],
                n => self.pages.take_many(nodeid, n)?,
            };
            for (lp, p) in lps.into_iter().zip(pages) {
                g.data_pages[lp] = Some(p);
            }
        }
        // 3. Persist the new index entries, batched per index page.
        let dev = self.kernel.device();
        let mut touched: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        for &lp in &missing {
            let p = g.data_pages[lp].expect("just allocated");
            let (ipi, slot) = index_slot(lp);
            IndexPageRef::new(&self.h, g.index_pages[ipi])
                .stage_entry(slot, p.0)
                .map_err(Self::fault)?;
            let e = touched.entry(ipi).or_insert((slot, slot));
            e.0 = e.0.min(slot);
            e.1 = e.1.max(slot);
        }
        // Typestate persist of the new entries: one coalesced span per
        // touched index page (same flush schedule as before — per-slot
        // spans would re-flush shared cache lines), one fence for all.
        let mut spans = Vec::with_capacity(touched.len());
        for (ipi, (lo, hi)) in touched {
            let span = IndexPageRef::new(&self.h, g.index_pages[ipi]).entries_span(lo, hi);
            dev.charge_transfer(
                dev.topology().node_of(span.page),
                span.len,
                true,
                trio_nvm::handle::home_node(),
            );
            spans.push(span);
        }
        let _links = self.h.persist_dirty(self.h.dirty_spans(spans));
        Ok(())
    }

    /// Publishes the size and mtime fields: one line, one fence.
    pub(crate) fn publish_size(&self, node: &Arc<FileNode>, g: &NodeInner) -> FsResult<()> {
        let loc = node.placement().loc.ok_or(FsError::Corrupted)?;
        DirentRef::new(&self.h, loc).set_size_mtime(g.size, g.mtime).map_err(Self::fault)
    }
}
