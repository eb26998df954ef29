//! layout-door fixture: slot geometry re-typed above `trio-layout`
//! (`crates/{kernel,verifier,core}/src`). Each live site below must trip;
//! the reader, the annotated site and arithmetic that is not about slots
//! stay clean.

use trio_layout::{DirPage, DirentLoc, DIRENTS_PER_PAGE, DIRENT_SIZE};

pub fn hand_walk(raw: &[u8]) -> usize {
    raw.chunks_exact(DIRENT_SIZE).filter(|b| b[0] != 0).count() // trips layout-door
}

pub fn slot_loop(h: &Handle, page: u64) -> usize {
    let mut live = 0;
    for slot in 0..DIRENTS_PER_PAGE { // trips layout-door
        live += usize::from(h.read_u64(page, slot * DIRENT_SIZE) != 0);
    }
    live
}

pub fn size_word(h: &Handle, loc: DirentLoc) -> u64 {
    h.read_u64(loc.page, loc.byte_off() + 16) // trips layout-door
}

pub fn reader_is_clean(h: &Handle, page: u64) -> usize {
    DirPage::load(h, page).map_or(0, |p| p.live().count())
}

pub fn annotated_is_clean(loc: DirentLoc) -> (u64, usize, usize) {
    // lint: allow(layout-door) fixture: a forged witness names the slot's raw bytes
    (loc.page, loc.byte_off(), DIRENT_SIZE)
}

pub fn page_count_is_clean(entries: usize) -> usize {
    entries.div_ceil(DIRENTS_PER_PAGE)
}
