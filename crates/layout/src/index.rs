//! Index pages (paper §4.1, Figure 4).
//!
//! An index page is an array of 512 u64 slots. Slots `0..511` hold data
//! page numbers (0 = hole); slot 511 holds the next index page in the chain
//! (0 = end). Page numbers are device-global, so the kernel's provenance
//! checks (I2) can validate every slot.

use trio_nvm::{NvmHandle, PageId, ProtError, Span, PAGE_SIZE};

/// Data-page slots per index page (the 512th u64 is the `next` pointer).
pub const ENTRIES_PER_INDEX: usize = PAGE_SIZE / 8 - 1;

const NEXT_SLOT_OFF: usize = ENTRIES_PER_INDEX * 8;

/// Where logical data page `lp` sits in a file's index chain, as
/// `(index page, slot)`: slot `lp % ENTRIES_PER_INDEX` of the chain's
/// `lp / ENTRIES_PER_INDEX`-th index page.
pub const fn index_slot(lp: usize) -> (usize, usize) {
    (lp / ENTRIES_PER_INDEX, lp % ENTRIES_PER_INDEX)
}

/// How many logical data pages a chain of `index_pages` index pages holds.
pub const fn chain_capacity(index_pages: usize) -> usize {
    index_pages * ENTRIES_PER_INDEX
}

/// Typed accessor over one index page.
pub struct IndexPageRef<'a> {
    h: &'a NvmHandle,
    page: PageId,
}

impl<'a> IndexPageRef<'a> {
    /// Wraps an index page.
    pub fn new(h: &'a NvmHandle, page: PageId) -> Self {
        IndexPageRef { h, page }
    }

    /// Reads data-page slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= ENTRIES_PER_INDEX`.
    pub fn entry(&self, i: usize) -> Result<u64, ProtError> {
        assert!(i < ENTRIES_PER_INDEX);
        self.h.read_u64(self.page, i * 8)
    }

    /// Atomically publishes data-page slot `i` (appends commit this way).
    pub fn set_entry(&self, i: usize, v: u64) -> Result<(), ProtError> {
        assert!(i < ENTRIES_PER_INDEX);
        self.set_word(i * 8, v)
    }

    /// Stores data-page slot `i` without persisting it: one of a batch the
    /// caller flushes as [`Self::entries_span`] and fences once.
    pub fn stage_entry(&self, i: usize, v: u64) -> Result<(), ProtError> {
        assert!(i < ENTRIES_PER_INDEX);
        self.h.write_untimed(self.page, i * 8, &v.to_le_bytes())
    }

    /// The bytes of data-page slots `lo..=hi`, as one span to flush.
    pub fn entries_span(&self, lo: usize, hi: usize) -> Span {
        assert!(lo <= hi && hi < ENTRIES_PER_INDEX);
        Span::new(self.page, lo * 8, (hi - lo + 1) * 8)
    }

    /// Reads the next-index-page pointer.
    pub fn next(&self) -> Result<u64, ProtError> {
        self.h.read_u64(self.page, NEXT_SLOT_OFF)
    }

    /// Atomically publishes the next-index-page pointer.
    pub fn set_next(&self, v: u64) -> Result<(), ProtError> {
        self.set_word(NEXT_SLOT_OFF, v)
    }

    /// Stores and persists the word at `off`: one barrier.
    fn set_word(&self, off: usize, v: u64) -> Result<(), ProtError> {
        let _durable = self.h.persist_dirty(self.h.store_u64_dirty(self.page, off, v)?);
        Ok(())
    }

    /// Reads all 511 entries plus next in one bulk access (aux-state
    /// rebuild and verification path).
    pub fn load_all(&self) -> Result<(Vec<u64>, u64), ProtError> {
        let mut buf = [0u8; PAGE_SIZE];
        self.h.read_untimed(self.page, 0, &mut buf)?;
        let mut entries = Vec::with_capacity(ENTRIES_PER_INDEX);
        for i in 0..ENTRIES_PER_INDEX {
            entries.push(u64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().expect("8 bytes")));
        }
        let next = u64::from_le_bytes(buf[NEXT_SLOT_OFF..NEXT_SLOT_OFF + 8].try_into().expect("8"));
        Ok((entries, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trio_nvm::{ActorId, DeviceConfig, NvmDevice, PagePerm};

    fn handle() -> NvmHandle {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        dev.mmu_map(ActorId(1), PageId(3), PagePerm::Write).unwrap();
        NvmHandle::new(dev, ActorId(1))
    }

    #[test]
    fn geometry() {
        assert_eq!(ENTRIES_PER_INDEX, 511);
    }

    #[test]
    fn slot_geometry_crosses_an_index_page_boundary() {
        assert_eq!(index_slot(0), (0, 0));
        assert_eq!(index_slot(510), (0, 510));
        assert_eq!(index_slot(511), (1, 0));
        assert_eq!(index_slot(512), (1, 1));
        assert_eq!(chain_capacity(0), 0);
        assert_eq!(chain_capacity(1), 511);
        assert_eq!(chain_capacity(2), 1022);
        for lp in [510, 511, 512] {
            let (page, slot) = index_slot(lp);
            assert_eq!(chain_capacity(page) + slot, lp);
            assert!(chain_capacity(page + 1) > lp);
        }
    }

    #[test]
    fn entries_and_next_roundtrip() {
        let h = handle();
        let ip = IndexPageRef::new(&h, PageId(3));
        ip.set_entry(0, 100).unwrap();
        ip.set_entry(510, 200).unwrap();
        ip.set_next(77).unwrap();
        assert_eq!(ip.entry(0).unwrap(), 100);
        assert_eq!(ip.entry(510).unwrap(), 200);
        assert_eq!(ip.entry(1).unwrap(), 0);
        assert_eq!(ip.next().unwrap(), 77);
        let (entries, next) = ip.load_all().unwrap();
        assert_eq!(entries[0], 100);
        assert_eq!(entries[510], 200);
        assert_eq!(next, 77);
        // A staged batch: stored at once, persisted as one span.
        ip.stage_entry(3, 300).unwrap();
        ip.stage_entry(5, 500).unwrap();
        assert_eq!((ip.entry(3).unwrap(), ip.entry(5).unwrap()), (300, 500));
        assert_eq!(ip.entries_span(3, 5), Span::new(PageId(3), 24, 24));
    }

    #[test]
    #[should_panic]
    fn entry_511_is_not_a_data_slot() {
        let h = handle();
        let _ = IndexPageRef::new(&h, PageId(3)).entry(511);
    }
}
