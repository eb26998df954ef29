//! Index-chain traversal — shared by LibFS aux-state rebuilding, the kernel
//! controller's mapping path, and the integrity verifier.
//!
//! The walk is defensive: the chain being traversed may have been written
//! by a malicious LibFS, so it bounds its length, rejects out-of-range page
//! numbers, and detects cycles (attack #4 in the paper's §6.5 test suite
//! creates loops within a file's index pages).

use trio_nvm::{NvmHandle, PageId, ProtError};
use trio_sim::DetHashSet;

use crate::index::{index_slot, IndexPageRef, ENTRIES_PER_INDEX};

/// The pages making up one file's core state (excluding its dirent slot).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FilePages {
    /// Index pages in chain order.
    pub index_pages: Vec<PageId>,
    /// Data-page slots in logical order; `None` is a hole.
    pub data_pages: Vec<Option<PageId>>,
}

impl FilePages {
    /// All pages (index + live data), for mapping and provenance checks.
    pub fn all_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.index_pages.iter().copied().chain(self.data_pages.iter().filter_map(|p| *p))
    }

    /// Number of live data pages.
    pub fn live_data_pages(&self) -> usize {
        self.data_pages.iter().filter(|p| p.is_some()).count()
    }

    /// The index page and slot that hold logical data page `lp`
    /// ([`index_slot`]), or `None` past the chain.
    pub fn slot_of(&self, lp: usize) -> Option<(PageId, usize)> {
        let (page, slot) = index_slot(lp);
        self.index_pages.get(page).map(|p| (*p, slot))
    }

    /// Capacity in bytes covered by the data-page slots.
    pub fn capacity_bytes(&self) -> u64 {
        self.data_pages.len() as u64 * trio_nvm::PAGE_SIZE as u64
    }
}

/// Structural corruption found while walking a chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkError {
    /// An index `next` pointer or data slot names a page beyond the device.
    PageOutOfRange(PageId),
    /// The chain revisits an index page.
    IndexCycle(PageId),
    /// The same data page appears in two slots.
    DuplicateDataPage(PageId),
    /// The chain exceeds `max_index_pages` (runaway/corrupt).
    ChainTooLong,
    /// The walker itself lacks access (not corruption — caller's fault).
    Fault(ProtError),
}

impl From<ProtError> for WalkError {
    fn from(e: ProtError) -> Self {
        WalkError::Fault(e)
    }
}

/// Walks a file's index chain starting at `first_index` (0 ⇒ empty file),
/// returning its pages. `max_index_pages` bounds the walk.
pub fn walk_file(
    h: &NvmHandle,
    first_index: u64,
    max_index_pages: usize,
) -> Result<FilePages, WalkError> {
    let total = h.device().topology().total_pages();
    let mut out = FilePages::default();
    let mut seen_index = DetHashSet::default();
    let mut seen_data = DetHashSet::default();
    // Holes seen since the last live slot: pushed only when a live slot
    // follows, so `data_pages` ends at the allocated extent and never
    // holds (or reserves) a trailing run of holes.
    let mut holes = 0;
    let mut cur = first_index;
    while cur != 0 {
        if cur >= total {
            return Err(WalkError::PageOutOfRange(PageId(cur)));
        }
        let page = PageId(cur);
        if !seen_index.insert(cur) {
            return Err(WalkError::IndexCycle(page));
        }
        if out.index_pages.len() >= max_index_pages {
            return Err(WalkError::ChainTooLong);
        }
        out.index_pages.push(page);
        let (entries, next) = IndexPageRef::new(h, page).load_all()?;
        for (i, &e) in entries.iter().enumerate() {
            debug_assert!(i < ENTRIES_PER_INDEX);
            if e == 0 {
                holes += 1;
            } else {
                if e >= total {
                    return Err(WalkError::PageOutOfRange(PageId(e)));
                }
                if !seen_data.insert(e) || seen_index.contains(&e) {
                    return Err(WalkError::DuplicateDataPage(PageId(e)));
                }
                out.data_pages.extend(std::iter::repeat_n(None, holes));
                holes = 0;
                out.data_pages.push(Some(PageId(e)));
            }
        }
        cur = next;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trio_nvm::{ActorId, DeviceConfig, NvmDevice, PagePerm};

    fn handle() -> NvmHandle {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        for p in 1..64 {
            dev.mmu_map(ActorId(1), PageId(p), PagePerm::Write).unwrap();
        }
        NvmHandle::new(dev, ActorId(1))
    }

    #[test]
    fn empty_file_walks_to_nothing() {
        let h = handle();
        let fp = walk_file(&h, 0, 16).unwrap();
        assert!(fp.index_pages.is_empty());
        assert!(fp.data_pages.is_empty());
    }

    #[test]
    fn single_index_page_with_holes() {
        let h = handle();
        let ip = IndexPageRef::new(&h, PageId(2));
        ip.set_entry(0, 10).unwrap();
        ip.set_entry(2, 11).unwrap(); // Slot 1 is a hole.
        let fp = walk_file(&h, 2, 16).unwrap();
        assert_eq!(fp.index_pages, vec![PageId(2)]);
        assert_eq!(fp.data_pages, vec![Some(PageId(10)), None, Some(PageId(11))]);
        assert_eq!(fp.live_data_pages(), 2);
    }

    #[test]
    fn a_one_page_file_keeps_no_slot_buffer_for_its_trailing_holes() {
        let h = handle();
        IndexPageRef::new(&h, PageId(2)).set_entry(0, 10).unwrap();
        let fp = walk_file(&h, 2, 16).unwrap();
        assert_eq!(fp.data_pages, vec![Some(PageId(10))]);
        assert!(fp.data_pages.capacity() <= 8, "capacity {}", fp.data_pages.capacity());
    }

    #[test]
    fn chained_index_pages() {
        let h = handle();
        let ip1 = IndexPageRef::new(&h, PageId(2));
        ip1.set_entry(0, 10).unwrap();
        ip1.set_next(3).unwrap();
        let ip2 = IndexPageRef::new(&h, PageId(3));
        ip2.set_entry(0, 11).unwrap();
        let fp = walk_file(&h, 2, 16).unwrap();
        assert_eq!(fp.index_pages, vec![PageId(2), PageId(3)]);
        assert_eq!(fp.data_pages.len(), ENTRIES_PER_INDEX + 1);
        assert_eq!(fp.data_pages[ENTRIES_PER_INDEX], Some(PageId(11)));
        // The walk's own position names each slot: no re-read needed.
        assert_eq!(fp.slot_of(0), Some((PageId(2), 0)));
        assert_eq!(fp.slot_of(ENTRIES_PER_INDEX - 1), Some((PageId(2), ENTRIES_PER_INDEX - 1)));
        assert_eq!(fp.slot_of(ENTRIES_PER_INDEX), Some((PageId(3), 0)));
        assert_eq!(fp.slot_of(ENTRIES_PER_INDEX + 1), Some((PageId(3), 1)));
        assert_eq!(fp.slot_of(2 * ENTRIES_PER_INDEX), None);
    }

    #[test]
    fn detects_index_cycle() {
        let h = handle();
        IndexPageRef::new(&h, PageId(2)).set_next(3).unwrap();
        IndexPageRef::new(&h, PageId(3)).set_next(2).unwrap();
        assert_eq!(walk_file(&h, 2, 16), Err(WalkError::IndexCycle(PageId(2))));
    }

    #[test]
    fn detects_duplicate_data_page() {
        let h = handle();
        let ip = IndexPageRef::new(&h, PageId(2));
        ip.set_entry(0, 10).unwrap();
        ip.set_entry(1, 10).unwrap();
        assert_eq!(walk_file(&h, 2, 16), Err(WalkError::DuplicateDataPage(PageId(10))));
    }

    #[test]
    fn detects_out_of_range_pointer() {
        let h = handle();
        IndexPageRef::new(&h, PageId(2)).set_entry(0, 1 << 40).unwrap();
        assert!(matches!(walk_file(&h, 2, 16), Err(WalkError::PageOutOfRange(_))));
    }

    #[test]
    fn bounds_chain_length() {
        let h = handle();
        // 1 -> 2 -> 3 chain but allow only 2 index pages.
        IndexPageRef::new(&h, PageId(1)).set_next(2).unwrap();
        IndexPageRef::new(&h, PageId(2)).set_next(3).unwrap();
        assert_eq!(walk_file(&h, 1, 2), Err(WalkError::ChainTooLong));
    }

    #[test]
    fn data_page_equal_to_index_page_is_duplicate() {
        let h = handle();
        let ip = IndexPageRef::new(&h, PageId(2));
        ip.set_entry(0, 2).unwrap(); // Data slot points at the index page itself.
        assert_eq!(walk_file(&h, 2, 16), Err(WalkError::DuplicateDataPage(PageId(2))));
    }
}
