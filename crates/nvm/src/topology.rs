//! Device geometry: pages, cache lines, NUMA nodes.

/// Bytes per NVM page — the protection and allocation granule.
pub const PAGE_SIZE: usize = 4096;

/// Bytes per cache line — the persistence granule (`clwb`).
pub const CACHE_LINE: usize = 64;

/// Indices of the cache lines covering `[off, off + len)` of a page: the
/// lines a store dirties and a `clwb` of the range writes back. Empty
/// when `len` is 0.
pub(crate) fn lines_covering(off: usize, len: usize) -> std::ops::Range<usize> {
    let first = off / CACHE_LINE;
    if len == 0 {
        first..first
    } else {
        first..(off + len - 1) / CACHE_LINE + 1
    }
}

/// A NUMA node index.
pub type NodeId = usize;

/// A device-global page number.
///
/// Pages are striped contiguously within a node: page `p` lives on node
/// `p / pages_per_node`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Byte offset of this page from the start of the device.
    pub fn byte_offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }
}

/// NUMA geometry of the emulated device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Number of NUMA nodes with NVM attached.
    pub nodes: usize,
    /// NVM pages per node.
    pub pages_per_node: usize,
}

impl Topology {
    /// Creates a topology.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(nodes: usize, pages_per_node: usize) -> Self {
        assert!(nodes > 0 && pages_per_node > 0);
        Topology { nodes, pages_per_node }
    }

    /// Total pages in the device.
    pub fn total_pages(&self) -> u64 {
        (self.nodes * self.pages_per_node) as u64
    }

    /// The node a page lives on.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn node_of(&self, page: PageId) -> NodeId {
        assert!(page.0 < self.total_pages(), "page {page:?} out of range");
        (page.0 / self.pages_per_node as u64) as NodeId
    }

    /// The first page of `node`.
    pub fn first_page_of(&self, node: NodeId) -> PageId {
        assert!(node < self.nodes);
        PageId((node * self.pages_per_node) as u64)
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_mapping_is_contiguous() {
        let t = Topology::new(4, 100);
        assert_eq!(t.total_pages(), 400);
        assert_eq!(t.node_of(PageId(0)), 0);
        assert_eq!(t.node_of(PageId(99)), 0);
        assert_eq!(t.node_of(PageId(100)), 1);
        assert_eq!(t.node_of(PageId(399)), 3);
        assert_eq!(t.first_page_of(2), PageId(200));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_page_panics() {
        Topology::new(2, 10).node_of(PageId(20));
    }

    #[test]
    fn lines_covering_counts_a_straddled_boundary() {
        assert_eq!(lines_covering(0, 64), 0..1);
        assert_eq!(lines_covering(60, 8), 0..2);
        assert_eq!(lines_covering(64, 4096 - 64), 1..64);
        assert_eq!(lines_covering(100, 0).len(), 0);
        // 64 bytes from a mid-line offset touch two lines, not
        // `ceil(64 / 64)`.
        assert_eq!(lines_covering(32, 64).len(), 2);
    }

    #[test]
    fn capacity_math() {
        let t = Topology::new(2, 256);
        assert_eq!(t.capacity_bytes(), 2 * 256 * 4096);
        assert_eq!(PageId(3).byte_offset(), 3 * 4096);
    }
}
