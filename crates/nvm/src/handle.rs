//! Unprivileged per-actor access handle.
//!
//! An [`NvmHandle`] is a LibFS's "virtual address space window" onto the
//! device: every access is checked against the MMU state for the handle's
//! actor. Threads declare their NUMA placement with [`set_home_node`];
//! accesses to other nodes pay the remote penalty.

use std::cell::Cell;
use std::sync::Arc;

use crate::device::NvmDevice;
use crate::prot::{ActorId, ProtError};
use crate::topology::{NodeId, PageId, PAGE_SIZE};
use crate::typestate::{Dirty, Durable, ExtentProof, Flushed, Span, Spans};

thread_local! {
    static HOME_NODE: Cell<NodeId> = const { Cell::new(0) };
}

/// Declares the calling thread's NUMA node (sticks for the thread's life).
pub fn set_home_node(node: NodeId) {
    HOME_NODE.with(|h| h.set(node));
}

/// The calling thread's NUMA node.
pub fn home_node() -> NodeId {
    HOME_NODE.with(|h| h.get())
}

/// A per-actor (per-LibFS) view of the device.
#[derive(Clone)]
pub struct NvmHandle {
    dev: Arc<NvmDevice>,
    actor: ActorId,
}

impl NvmHandle {
    /// Creates a handle for `actor`. Handing out a handle grants no access
    /// by itself — the MMU state does.
    pub fn new(dev: Arc<NvmDevice>, actor: ActorId) -> Self {
        NvmHandle { dev, actor }
    }

    /// The actor this handle authenticates as.
    pub fn actor(&self) -> ActorId {
        self.actor
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<NvmDevice> {
        &self.dev
    }

    /// Timed read within one page.
    pub fn read(&self, page: PageId, off: usize, buf: &mut [u8]) -> Result<(), ProtError> {
        self.dev.read(self.actor, home_node(), page, off, buf)
    }

    /// Timed write within one page.
    pub fn write(&self, page: PageId, off: usize, data: &[u8]) -> Result<(), ProtError> {
        self.dev.write(self.actor, home_node(), page, off, data)
    }

    /// Untimed read (callers charge per extent via [`NvmHandle::read_extent`]
    /// or deliberately model zero-cost cached access).
    pub fn read_untimed(&self, page: PageId, off: usize, buf: &mut [u8]) -> Result<(), ProtError> {
        self.dev.copy_from_page(self.actor, page, off, buf)
    }

    /// Untimed write.
    pub fn write_untimed(&self, page: PageId, off: usize, data: &[u8]) -> Result<(), ProtError> {
        self.dev.copy_to_page(self.actor, page, off, data)
    }

    /// 8-byte read.
    pub fn read_u64(&self, page: PageId, off: usize) -> Result<u64, ProtError> {
        self.dev.read_u64(self.actor, page, off)
    }

    /// 8-byte atomic durable store (§4.4 publication primitive).
    pub fn write_u64_persist(&self, page: PageId, off: usize, v: u64) -> Result<(), ProtError> {
        self.dev.write_u64_persist(self.actor, page, off, v)
    }

    // -----------------------------------------------------------------
    // Typestate persist pipeline (DESIGN.md §18): Dirty -> Flushed ->
    // Durable, with publish_u64 as the only dependent commit point.
    // Each method performs exactly the hardware step its raw predecessor
    // did — same stores, same clwb/sfence costs, same sanitizer events —
    // the tokens only add compile-time ordering evidence.
    // -----------------------------------------------------------------

    /// Untimed store returning a [`Dirty`] token for the written range —
    /// the entry point of the typestate pipeline.
    pub fn write_dirty(
        &self,
        page: PageId,
        off: usize,
        data: &[u8],
    ) -> Result<Dirty<Span>, ProtError> {
        self.dev.copy_to_page(self.actor, page, off, data)?;
        Ok(Dirty::new(Span::new(page, off, data.len())))
    }

    /// 8-byte store (no flush, no fence) returning its [`Dirty`] token:
    /// for protocols that batch several word stores under one flush/fence
    /// pair (e.g. the rename journal record).
    pub fn store_u64_dirty(
        &self,
        page: PageId,
        off: usize,
        v: u64,
    ) -> Result<Dirty<Span>, ProtError> {
        if !off.is_multiple_of(8) {
            return Err(ProtError::Misaligned);
        }
        self.write_dirty(page, off, &v.to_le_bytes())
    }

    /// Mints a [`Dirty`] token for ranges the caller already stored via
    /// [`Self::write`]/[`Self::write_untimed`] (e.g. a batch of index
    /// entries flushed as one coalesced range). Safe in the claiming
    /// direction: declaring clean bytes dirty only costs an extra
    /// write-back; the unsafe direction — claiming durability — stays
    /// gated behind the fence.
    pub fn dirty_spans(&self, spans: Vec<Span>) -> Dirty<Vec<Span>> {
        Dirty::new(spans)
    }

    /// `clwb` of every range the token carries, consuming [`Dirty`] into
    /// [`Flushed`]. One flush call per span: callers batching stores that
    /// share cache lines should carry one coalesced span (the sanitizer
    /// flags per-line re-flushes as `redundant-flush`).
    pub fn flush_dirty<T: Spans>(&self, d: Dirty<T>) -> Flushed<T> {
        let t = d.into_inner();
        t.for_each(&mut |page, off, len| self.dev.flush(page, off, len));
        Flushed::new(t)
    }

    /// `sfence`, consuming [`Flushed`] into a [`Durable`] witness. The
    /// fence is global: one call retires every staged line, so join
    /// tokens with [`Flushed::and`] rather than fencing per range.
    pub fn fence_flushed<T>(&self, f: Flushed<T>) -> Durable<T> {
        self.dev.fence();
        Durable::new(f.into_inner())
    }

    /// Flush + fence in one step (the common single-range persist).
    pub fn persist_dirty<T: Spans>(&self, d: Dirty<T>) -> Durable<T> {
        self.fence_flushed(self.flush_dirty(d))
    }

    /// [`Self::write_u64_persist`] as a dependent commit point: the typed
    /// §4.4 publication primitive. The store only type-checks with a
    /// [`Durable`] witness, so publish-before-persist, missing-flush and
    /// missing-fence are compile errors. On a tracked device every witnessed
    /// range is additionally re-checked against the persistence tracker —
    /// the runtime oracle that the token (or an [`Self::assume_durable`]
    /// escape) is truthful.
    pub fn publish_u64<T: Spans>(
        &self,
        page: PageId,
        off: usize,
        v: u64,
        deps: &Durable<T>,
    ) -> Result<(), ProtError> {
        self.dev.publish_u64_spans(self.actor, page, off, v, deps.witness())
    }

    /// Untyped escape hatch: [`Self::publish_u64`] with raw
    /// `(page, off, len)` dependency tuples and no compile-time evidence.
    /// Reserved for `trio-nvm` internals and test harnesses that
    /// deliberately construct hazards — clippy.toml disallows it elsewhere
    /// (`raw-publish`).
    pub fn publish_u64_raw(
        &self,
        page: PageId,
        off: usize,
        v: u64,
        deps: &[(PageId, usize, usize)],
    ) -> Result<(), ProtError> {
        self.dev.publish_u64(self.actor, page, off, v, deps)
    }

    /// Escape hatch minting a [`Durable`] witness from a *claim* instead
    /// of a fence — for ranges whose durability predates this process
    /// (e.g. a slot published in a previous mount). On a tracked device the
    /// claim is checked immediately: a forged witness records the same
    /// `publish-before-persist` hazard a raw early publish would.
    /// Disallowed by clippy.toml outside `trio-nvm` (`raw-publish`).
    pub fn assume_durable(&self, page: PageId, off: usize, len: usize) -> Durable<Span> {
        self.dev.sanitize_assert_durable(page, off, len);
        Durable::new(Span::new(page, off, len))
    }

    /// `clwb` + bookkeeping for a range. Raw half of the typestate
    /// pipeline — outside `trio-nvm`, use [`Self::flush_dirty`] (the
    /// clippy.toml's `raw-publish` entries enforce this).
    pub fn flush(&self, page: PageId, off: usize, len: usize) {
        self.dev.flush(page, off, len);
    }

    /// `sfence`. Raw half of the typestate pipeline — outside `trio-nvm`,
    /// use [`Self::fence_flushed`].
    pub fn fence(&self) {
        self.dev.fence();
    }

    /// Reads a byte range spanning `pages` (each holding `PAGE_SIZE` bytes
    /// of the extent, in order) starting at byte `start` within the extent.
    /// Charges the media cost once per node-contiguous run of pages, so a
    /// large sequential access costs `O(nodes)` scheduler events instead of
    /// `O(pages)`.
    pub fn read_extent(
        &self,
        pages: &[PageId],
        start: usize,
        buf: &mut [u8],
    ) -> Result<(), ProtError> {
        self.extent_op(pages, start, buf.len(), false, |page, off, pos, len, me, b: &mut [u8]| {
            me.dev.copy_from_page(me.actor, page, off, &mut b[pos..pos + len])
        }, buf)
    }

    /// Writes a byte range spanning `pages` starting at byte `start`.
    /// Data is flushed per page and fenced before returning
    /// (persistent-write model), so the returned [`Durable`] witness is
    /// minted by construction.
    pub fn write_extent(
        &self,
        pages: &[PageId],
        start: usize,
        data: &[u8],
    ) -> Result<Durable<ExtentProof>, ProtError> {
        let mut data_mut = data; // Only read; unified helper wants one buffer type.
        self.extent_op(
            pages,
            start,
            data.len(),
            true,
            |page, off, pos, len, me, b: &mut &[u8]| {
                me.dev.copy_to_page(me.actor, page, off, &b[pos..pos + len])?;
                me.dev.flush(page, off, len);
                Ok(())
            },
            &mut data_mut,
        )?;
        self.dev.fence();
        Ok(Durable::new(ExtentProof::new(data.len())))
    }

    /// [`Self::write_extent`] with inline streaming integrity (DESIGN.md
    /// §17): the one pass that moves each byte into NVM also folds it into
    /// a seahash-style checksum, and every segment that covers a whole page
    /// records its digest in the page's sidecar atomically with the store.
    /// Partial head/tail segments cannot vouch for bytes outside the write,
    /// so they invalidate the sidecar exactly as an ordinary store would.
    /// Used by delegation workers, where the payload arrives by grant
    /// reference and this is the only traversal the data ever gets.
    pub fn write_extent_hashed(
        &self,
        pages: &[PageId],
        start: usize,
        data: &[u8],
    ) -> Result<Durable<ExtentProof>, ProtError> {
        let mut data_mut = data;
        self.extent_op(
            pages,
            start,
            data.len(),
            true,
            |page, off, pos, len, me, b: &mut &[u8]| {
                let seg = &b[pos..pos + len];
                let csum =
                    (off == 0 && len == PAGE_SIZE).then(|| crate::checksum::checksum(seg));
                me.dev.copy_to_page_csum(me.actor, page, off, seg, csum)?;
                me.dev.flush(page, off, len);
                Ok(())
            },
            &mut data_mut,
        )?;
        self.dev.fence();
        Ok(Durable::new(ExtentProof::new(data.len())))
    }

    #[allow(clippy::needless_range_loop, reason = "`pi` also derives byte offsets")]
    fn extent_op<B: ?Sized>(
        &self,
        pages: &[PageId],
        start: usize,
        len: usize,
        is_write: bool,
        mut op: impl FnMut(PageId, usize, usize, usize, &Self, &mut B) -> Result<(), ProtError>,
        buf: &mut B,
    ) -> Result<(), ProtError> {
        if len == 0 {
            return Ok(());
        }
        if start + len > pages.len() * PAGE_SIZE {
            return Err(ProtError::OutOfRange);
        }
        let topo = self.dev.topology();
        let home = home_node();
        // Pass 1: charge once per node-contiguous run.
        let first_page = start / PAGE_SIZE;
        let last_page = (start + len - 1) / PAGE_SIZE;
        let mut run_node = topo.node_of(pages[first_page]);
        let mut run_bytes = 0usize;
        for pi in first_page..=last_page {
            let page_start = pi * PAGE_SIZE;
            let seg_start = start.max(page_start);
            let seg_end = (start + len).min(page_start + PAGE_SIZE);
            let node = topo.node_of(pages[pi]);
            if node != run_node {
                self.dev.charge_transfer(run_node, run_bytes, is_write, home);
                run_node = node;
                run_bytes = 0;
            }
            run_bytes += seg_end - seg_start;
        }
        self.dev.charge_transfer(run_node, run_bytes, is_write, home);
        // Pass 2: per-page copies (no timing).
        let mut pos = 0usize;
        for pi in first_page..=last_page {
            let page_start = pi * PAGE_SIZE;
            let seg_start = start.max(page_start);
            let seg_end = (start + len).min(page_start + PAGE_SIZE);
            let seg_len = seg_end - seg_start;
            op(pages[pi], seg_start - page_start, pos, seg_len, self, buf)?;
            pos += seg_len;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use crate::prot::PagePerm;

    fn setup() -> (Arc<NvmDevice>, NvmHandle) {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        let h = NvmHandle::new(Arc::clone(&dev), ActorId(1));
        (dev, h)
    }

    #[test]
    fn extent_roundtrip_across_pages() {
        let (dev, h) = setup();
        let pages = [PageId(10), PageId(11), PageId(12)];
        for p in pages {
            dev.mmu_map(ActorId(1), p, PagePerm::Write).unwrap();
        }
        let data: Vec<u8> = (0..9000).map(|i| (i % 251) as u8).collect();
        h.write_extent(&pages, 100, &data).unwrap();
        let mut out = vec![0u8; 9000];
        h.read_extent(&pages, 100, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn extent_out_of_range() {
        let (dev, h) = setup();
        dev.mmu_map(ActorId(1), PageId(0), PagePerm::Write).unwrap();
        let pages = [PageId(0)];
        let mut buf = [0u8; 16];
        assert_eq!(h.read_extent(&pages, PAGE_SIZE - 8, &mut buf), Err(ProtError::OutOfRange));
    }

    #[test]
    fn extent_respects_protection() {
        let (dev, h) = setup();
        let pages = [PageId(1), PageId(2)];
        dev.mmu_map(ActorId(1), pages[0], PagePerm::Write).unwrap();
        // pages[1] unmapped: the write must fault.
        let data = vec![3u8; PAGE_SIZE + 10];
        assert_eq!(h.write_extent(&pages, 0, &data), Err(ProtError::NotMapped));
    }

    #[test]
    fn hashed_extent_records_sidecars_on_full_pages_only() {
        let (dev, h) = setup();
        let pages = [PageId(20), PageId(21), PageId(22)];
        for p in pages {
            dev.mmu_map(ActorId(1), p, PagePerm::Write).unwrap();
        }
        // Start mid-page: head and tail are partial, the middle page full.
        let data: Vec<u8> = (0..2 * PAGE_SIZE).map(|i| (i % 241) as u8).collect();
        h.write_extent_hashed(&pages, 100, &data).unwrap();
        assert_eq!(dev.page_csum(pages[0]).unwrap(), None);
        let mid = &data[PAGE_SIZE - 100..2 * PAGE_SIZE - 100];
        assert_eq!(dev.page_csum(pages[1]).unwrap(), Some(crate::checksum::checksum(mid)));
        assert_eq!(dev.page_csum(pages[2]).unwrap(), None);
        // The data itself round-trips identically to the plain path.
        let mut out = vec![0u8; data.len()];
        h.read_extent(&pages, 100, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn home_node_tls_defaults_to_zero() {
        assert_eq!(home_node(), 0);
        set_home_node(3);
        assert_eq!(home_node(), 3);
        set_home_node(0);
    }

    #[test]
    fn empty_extent_is_noop() {
        let (_, h) = setup();
        let mut buf = [0u8; 0];
        h.read_extent(&[], 0, &mut buf).unwrap();
    }
}
