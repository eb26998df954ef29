//! Directory-entry/inode slots (co-located, paper §4.1).
//!
//! A directory's data pages each hold [`DIRENTS_PER_PAGE`] fixed-size
//! 256-byte slots. Each live slot is simultaneously the child's directory
//! entry *and* its inode — so `stat`, `create`, and `delete` need only the
//! parent directory's pages, and mapping those pages is what the MMU
//! enforces.
//!
//! Slot layout (little-endian):
//!
//! | offset | size | field                              |
//! |-------:|-----:|------------------------------------|
//! |      0 |    8 | inode number (0 = free slot)       |
//! |      8 |    8 | first index page (0 = empty file)  |
//! |     16 |    8 | size (bytes; dirs: live entries)   |
//! |     24 |    8 | mtime (virtual ns)                 |
//! |     32 |    8 | attr word: mode:16 type:8 nlen:8 … |
//! |     40 |    8 | uid:32 gid:32                      |
//! |     48 |    8 | reserved (generation)              |
//! |     56 |  200 | name bytes                         |
//!
//! The attr and owner words are single u64s so permission or name-length
//! changes are 8-byte-atomic; the inode number at offset 0 is the commit
//! point for creation (§4.4).

use trio_fsapi::Mode;
use trio_nvm::{Dirty, Durable, NvmHandle, PageId, ProtError, Span, Spans, CACHE_LINE, PAGE_SIZE};

use crate::{CoreFileType, Ino};

/// Bytes per dirent slot.
pub const DIRENT_SIZE: usize = 256;

/// Slots per 4 KiB directory data page.
pub const DIRENTS_PER_PAGE: usize = PAGE_SIZE / DIRENT_SIZE;

/// Maximum name length storable in a slot.
pub const MAX_NAME: usize = DIRENT_SIZE - OFF_NAME;

const OFF_INO: usize = 0;
const OFF_FIRST_INDEX: usize = 8;
const OFF_SIZE: usize = 16;
const OFF_MTIME: usize = 24;
const OFF_ATTR: usize = 32;
const OFF_OWNER: usize = 40;
#[allow(dead_code, reason = "names the reserved word so the slot map has no gap")]
const OFF_RESERVED: usize = 48;
const OFF_NAME: usize = 56;

/// Location of a dirent slot: `(directory data page, slot index)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DirentLoc {
    /// Directory data page holding the slot.
    pub page: PageId,
    /// Slot index within the page (`0..DIRENTS_PER_PAGE`).
    pub slot: usize,
}

impl DirentLoc {
    /// Byte offset of the slot within its page.
    pub fn byte_off(self) -> usize {
        self.slot * DIRENT_SIZE
    }
}

/// Decoded dirent/inode contents.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirentData {
    /// Inode number (0 = free slot).
    pub ino: Ino,
    /// First index page of the child (0 = no pages yet).
    pub first_index: u64,
    /// File size in bytes (directories: live entry count).
    pub size: u64,
    /// Modification time, virtual ns.
    pub mtime: u64,
    /// Permission bits.
    pub mode: Mode,
    /// Raw file-type tag (validated via [`CoreFileType::from_raw`]).
    pub ftype_raw: u8,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// File name (possibly invalid UTF-8/or containing `/` if corrupted —
    /// the verifier checks, so raw bytes are preserved).
    pub name: Vec<u8>,
}

impl DirentData {
    /// A fresh entry for `create`/`mkdir`, before the inode number is
    /// published.
    pub fn new(name: &[u8], ftype: CoreFileType, mode: Mode, uid: u32, gid: u32) -> Self {
        DirentData {
            ino: 0,
            first_index: 0,
            size: 0,
            mtime: 0,
            mode,
            ftype_raw: ftype as u8,
            uid,
            gid,
            name: name.to_vec(),
        }
    }

    /// Parsed file type, if the tag is valid.
    pub fn ftype(&self) -> Option<CoreFileType> {
        CoreFileType::from_raw(self.ftype_raw)
    }

    /// Name as UTF-8, if valid.
    pub fn name_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.name).ok()
    }

    /// Serializes the slot to its on-media image.
    pub fn encode_bytes(&self) -> [u8; DIRENT_SIZE] {
        let mut b = [0u8; DIRENT_SIZE];
        b[OFF_INO..OFF_INO + 8].copy_from_slice(&self.ino.to_le_bytes());
        b[OFF_FIRST_INDEX..OFF_FIRST_INDEX + 8].copy_from_slice(&self.first_index.to_le_bytes());
        b[OFF_SIZE..OFF_SIZE + 8].copy_from_slice(&self.size.to_le_bytes());
        b[OFF_MTIME..OFF_MTIME + 8].copy_from_slice(&self.mtime.to_le_bytes());
        let attr = attr_word(self.mode, self.ftype_raw, self.name.len() as u8);
        b[OFF_ATTR..OFF_ATTR + 8].copy_from_slice(&attr.to_le_bytes());
        let owner = (self.uid as u64) | ((self.gid as u64) << 32);
        b[OFF_OWNER..OFF_OWNER + 8].copy_from_slice(&owner.to_le_bytes());
        let n = self.name.len().min(MAX_NAME);
        b[OFF_NAME..OFF_NAME + n].copy_from_slice(&self.name[..n]);
        b
    }

    /// Parses an on-media slot image (shared knowledge — the verifier and
    /// any LibFS decode slots the same way).
    pub fn decode_bytes(b: &[u8; DIRENT_SIZE]) -> Self {
        let rd = |off: usize| u64::from_le_bytes(b[off..off + 8].try_into().expect("8 bytes"));
        let attr = rd(OFF_ATTR);
        let owner = rd(OFF_OWNER);
        let name_len = ((attr >> 24) & 0xFF) as usize;
        let name = b[OFF_NAME..OFF_NAME + name_len.min(MAX_NAME)].to_vec();
        DirentData {
            ino: rd(OFF_INO),
            first_index: rd(OFF_FIRST_INDEX),
            size: rd(OFF_SIZE),
            mtime: rd(OFF_MTIME),
            mode: Mode((attr & 0xFFFF) as u16),
            ftype_raw: ((attr >> 16) & 0xFF) as u8,
            uid: (owner & 0xFFFF_FFFF) as u32,
            gid: (owner >> 32) as u32,
            name,
        }
    }

    /// Raw name length recorded in the attr word even when it exceeds
    /// [`MAX_NAME`] (corruption detection needs the raw value).
    pub fn raw_name_len(b: &[u8; DIRENT_SIZE]) -> usize {
        let attr = u64::from_le_bytes(b[OFF_ATTR..OFF_ATTR + 8].try_into().expect("8 bytes"));
        ((attr >> 24) & 0xFF) as usize
    }
}

// Every stat word lies in the slot's first line.
const _: () = assert!(OFF_OWNER + 8 <= CACHE_LINE);

fn attr_word(mode: Mode, ftype: u8, name_len: u8) -> u64 {
    (mode.0 as u64) | ((ftype as u64) << 16) | ((name_len as u64) << 24)
}

/// Typed accessor for one dirent slot.
pub struct DirentRef<'a> {
    h: &'a NvmHandle,
    loc: DirentLoc,
}

impl<'a> DirentRef<'a> {
    /// Wraps a slot location.
    pub fn new(h: &'a NvmHandle, loc: DirentLoc) -> Self {
        DirentRef { h, loc }
    }

    /// Reads the inode number only (cheap liveness probe).
    pub fn ino(&self) -> Result<Ino, ProtError> {
        self.h.read_u64(self.loc.page, self.loc.byte_off() + OFF_INO)
    }

    /// Reads the whole slot's raw image (untimed).
    pub fn image(&self) -> Result<[u8; DIRENT_SIZE], ProtError> {
        let mut b = [0u8; DIRENT_SIZE];
        self.h.read_untimed(self.loc.page, self.loc.byte_off(), &mut b)?;
        Ok(b)
    }

    /// Reads and decodes the whole slot.
    pub fn load(&self) -> Result<DirentData, ProtError> {
        Ok(DirentData::decode_bytes(&self.image()?))
    }

    /// The slot's stat fields — every word but the name's — paying the
    /// media cost of the one line they lie in (a `stat`). Of the name only
    /// the bytes on that line are read; the rest decode as zeros.
    pub fn load_stat(&self) -> Result<DirentData, ProtError> {
        let mut b = [0u8; DIRENT_SIZE];
        self.h.read(self.loc.page, self.loc.byte_off(), &mut b[..CACHE_LINE])?;
        Ok(DirentData::decode_bytes(&b))
    }

    /// Stores a whole-slot image, not yet flushed. The store covers the
    /// slot's four cache lines whole, so it also repairs a poisoned line
    /// under it.
    pub fn stage_image(&self, img: &[u8; DIRENT_SIZE]) -> Result<Dirty<Span>, ProtError> {
        self.h.write_dirty(self.loc.page, self.loc.byte_off(), img)
    }

    /// [`Self::stage_image`] persisted: rollback putting a saved image
    /// back, recovery zeroing a lost slot.
    pub fn restore_image(&self, img: &[u8; DIRENT_SIZE]) -> Result<Durable<Span>, ProtError> {
        Ok(self.h.persist_dirty(self.stage_image(img)?))
    }

    /// Creation step 1 (§4.4), not yet flushed: writes the whole slot with
    /// `ino = 0`, so it stays invisible to readers. Its witness, once a
    /// fence retires it, is the only way to [`Self::publish`] the slot.
    pub fn stage_prepare(&self, data: &DirentData) -> Result<Dirty<Span>, ProtError> {
        let mut img = data.encode_bytes();
        img[OFF_INO..OFF_INO + 8].copy_from_slice(&0u64.to_le_bytes());
        self.stage_image(&img)
    }

    /// [`Self::stage_prepare`] persisted. The returned [`Durable`] witness
    /// is the only way to call [`Self::publish`] — publishing an
    /// unprepared slot does not type-check.
    pub fn prepare(&self, data: &DirentData) -> Result<Durable<Span>, ProtError> {
        Ok(self.h.persist_dirty(self.stage_prepare(data)?))
    }

    /// Creation step 2: atomically publishes the inode number, committing
    /// the entry. `prepared` is the durability witness from
    /// [`Self::prepare`] (or a join that includes it); on a tracked
    /// device the tracker re-checks every witnessed range.
    pub fn publish<T: Spans>(&self, ino: Ino, prepared: &Durable<T>) -> Result<(), ProtError> {
        let _published = self.h.persist_dirty(self.stage_publish(ino, prepared)?);
        Ok(())
    }

    /// Both creation steps: [`Self::prepare`] the slot with `data`, then
    /// [`Self::publish`] `ino` against prepare's witness — two persists,
    /// with the entry invisible until the second.
    pub fn link(&self, data: &DirentData, ino: Ino) -> Result<(), ProtError> {
        self.publish(ino, &self.prepare(data)?)
    }

    /// Creation step 2 for an op that retires it with other stores in one
    /// fence: the inode number's store, checked against `prepared` as it
    /// is made ([`NvmHandle::stage_publish_u64`]), and handed back not yet
    /// flushed.
    pub fn stage_publish<T: Spans>(
        &self,
        ino: Ino,
        prepared: &Durable<T>,
    ) -> Result<Dirty<Span>, ProtError> {
        debug_assert_ne!(ino, 0);
        self.h.stage_publish_u64(self.loc.page, self.loc.byte_off() + OFF_INO, ino, prepared)
    }

    /// Deletion: atomically clears the inode number; the slot becomes free.
    pub fn clear(&self) -> Result<(), ProtError> {
        let _cleared = self.h.persist_dirty(self.stage_clear()?);
        Ok(())
    }

    /// [`Self::clear`]'s store, not yet flushed: the slot reads as free
    /// from here on, and is free for good at the fence that retires it.
    pub fn stage_clear(&self) -> Result<Dirty<Span>, ProtError> {
        self.h.store_u64_dirty(self.loc.page, self.loc.byte_off() + OFF_INO, 0)
    }

    /// Atomically updates the size field.
    pub fn set_size(&self, size: u64) -> Result<(), ProtError> {
        self.set_word(OFF_SIZE, size)
    }

    /// Stores the size and mtime words, not yet flushed. They are adjacent
    /// in the slot's first line: one store, one line for the fence.
    pub fn stage_size_mtime(&self, size: u64, mtime: u64) -> Result<Dirty<Span>, ProtError> {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&size.to_le_bytes());
        b[8..].copy_from_slice(&mtime.to_le_bytes());
        self.h.write_dirty(self.loc.page, self.loc.byte_off() + OFF_SIZE, &b)
    }

    /// [`Self::stage_size_mtime`] persisted: one line, one fence.
    pub fn set_size_mtime(&self, size: u64, mtime: u64) -> Result<(), ProtError> {
        let _durable = self.h.persist_dirty(self.stage_size_mtime(size, mtime)?);
        Ok(())
    }

    /// [`Self::set_size`] as a dependent commit point: the size word only
    /// goes live against a [`Durable`] witness for the data it describes
    /// (e.g. an extent-write proof). Readers that trust `size` then never
    /// see bytes that could still be torn by a crash.
    pub fn set_size_durable<T: Spans>(
        &self,
        size: u64,
        data: &Durable<T>,
    ) -> Result<(), ProtError> {
        let off = self.loc.byte_off() + OFF_SIZE;
        let word = self.h.stage_publish_u64(self.loc.page, off, size, data)?;
        let _durable = self.h.persist_dirty(word);
        Ok(())
    }

    /// Atomically publishes a new index-chain head (first append/truncate
    /// to empty).
    pub fn set_first_index(&self, page: u64) -> Result<(), ProtError> {
        self.set_word(OFF_FIRST_INDEX, page)
    }

    /// Atomically rewrites the attr word (chmod — note the kernel's shadow
    /// table, not this cached copy, is the I4 ground truth).
    pub fn set_attr(&self, mode: Mode, ftype_raw: u8, name_len: u8) -> Result<(), ProtError> {
        self.set_word(OFF_ATTR, attr_word(mode, ftype_raw, name_len))
    }

    /// Stores and persists the slot's word at `off`: one barrier.
    fn set_word(&self, off: usize, v: u64) -> Result<(), ProtError> {
        let word = self.h.store_u64_dirty(self.loc.page, self.loc.byte_off() + off, v)?;
        let _durable = self.h.persist_dirty(word);
        Ok(())
    }

    /// Reads size.
    pub fn size(&self) -> Result<u64, ProtError> {
        self.h.read_u64(self.loc.page, self.loc.byte_off() + OFF_SIZE)
    }

    /// Reads the index-chain head.
    pub fn first_index(&self) -> Result<u64, ProtError> {
        self.h.read_u64(self.loc.page, self.loc.byte_off() + OFF_FIRST_INDEX)
    }
}

/// One slot of a directory data page, as [`DirPage`] read it.
pub enum DirSlot<'a> {
    /// A committed entry: where it is, what it decodes to, and its raw
    /// image (the decoder clamps what the verifier must see unclamped).
    Live(DirentLoc, DirentData, &'a [u8; DIRENT_SIZE]),
    /// Inode number 0: free, or prepared and not yet published.
    Free(DirentLoc),
    /// The media would not give the slot's bytes back.
    Unreadable(DirentLoc, ProtError),
}

/// One directory data page, read once: the only reader of a page of
/// dirent slots. Callers bring policy — what a live, a free and an
/// unreadable slot mean to them — not arithmetic.
///
/// The page is read whole. Only when that read answers
/// [`ProtError::Poisoned`] is it read again slot by slot, so that a bad
/// cache line costs the one dirent it lies under and not its fifteen
/// neighbours. Any other fault (the handle may not read the page at all)
/// is the caller's: `Err`, not sixteen unreadable slots.
pub struct DirPage {
    page: PageId,
    slots: Vec<[u8; DIRENT_SIZE]>,
    unreadable: [Option<ProtError>; DIRENTS_PER_PAGE],
}

impl DirPage {
    /// Reads `page` without charging virtual time (kernel, verifier).
    pub fn load(h: &NvmHandle, page: PageId) -> Result<DirPage, ProtError> {
        Self::read(h, page, false)
    }

    /// Reads `page` paying for one 4 KiB media read (a LibFS rebuilding
    /// its auxiliary state).
    pub fn load_timed(h: &NvmHandle, page: PageId) -> Result<DirPage, ProtError> {
        Self::read(h, page, true)
    }

    fn read(h: &NvmHandle, page: PageId, timed: bool) -> Result<DirPage, ProtError> {
        let mut slots = vec![[0u8; DIRENT_SIZE]; DIRENTS_PER_PAGE];
        let mut unreadable = [None; DIRENTS_PER_PAGE];
        let bytes = slots.as_flattened_mut();
        let whole = if timed { h.read(page, 0, bytes) } else { h.read_untimed(page, 0, bytes) };
        if let Err(e) = whole {
            if e != ProtError::Poisoned {
                return Err(e);
            }
            // (A timed read has paid for the page before it faults.)
            for (slot, b) in slots.iter_mut().enumerate() {
                unreadable[slot] = h.read_untimed(page, DirentLoc { page, slot }.byte_off(), b).err();
            }
        }
        Ok(DirPage { page, slots, unreadable })
    }

    /// Every slot of the page, in slot order.
    pub fn slots(&self) -> impl Iterator<Item = DirSlot<'_>> {
        self.slots.iter().zip(self.unreadable).enumerate().map(|(slot, (raw, bad))| {
            let loc = DirentLoc { page: self.page, slot };
            if let Some(cause) = bad {
                DirSlot::Unreadable(loc, cause)
            } else if raw[OFF_INO..OFF_INO + 8] == [0u8; 8] {
                DirSlot::Free(loc)
            } else {
                DirSlot::Live(loc, DirentData::decode_bytes(raw), raw)
            }
        })
    }

    /// The committed entries alone, for callers to whom a free and an
    /// unreadable slot are both "no entry here".
    pub fn live(&self) -> impl Iterator<Item = (DirentLoc, DirentData)> + '_ {
        self.slots().filter_map(|s| if let DirSlot::Live(loc, d, _) = s { Some((loc, d)) } else { None })
    }

    /// The first free slot, if the page has one.
    pub fn first_free(&self) -> Option<DirentLoc> {
        self.slots().find_map(|s| if let DirSlot::Free(loc) = s { Some(loc) } else { None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use trio_nvm::{ActorId, DeviceConfig, NvmDevice, PagePerm};

    fn handle() -> NvmHandle {
        let dev = Arc::new(NvmDevice::new(DeviceConfig::small()));
        dev.mmu_map(ActorId(1), PageId(7), PagePerm::Write).unwrap();
        NvmHandle::new(dev, ActorId(1))
    }

    #[test]
    fn sixteen_slots_per_page() {
        assert_eq!(DIRENTS_PER_PAGE, 16);
        assert_eq!(MAX_NAME, 200);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let d = DirentData {
            ino: 42,
            first_index: 9,
            size: 12345,
            mtime: 777,
            mode: Mode(0o640),
            ftype_raw: CoreFileType::Regular as u8,
            uid: 1000,
            gid: 2000,
            name: b"report.txt".to_vec(),
        };
        let h = handle();
        let loc = DirentLoc { page: PageId(7), slot: 3 };
        let r = DirentRef::new(&h, loc);
        let w = r.prepare(&d).unwrap();
        // Before publish the slot reads as free.
        assert_eq!(r.ino().unwrap(), 0);
        r.publish(42, &w).unwrap();
        let back = r.load().unwrap();
        assert_eq!(back, d);
        assert_eq!(back.ftype(), Some(CoreFileType::Regular));
        assert_eq!(back.name_str(), Some("report.txt"));
    }

    #[test]
    fn clear_frees_slot() {
        let h = handle();
        let loc = DirentLoc { page: PageId(7), slot: 0 };
        let r = DirentRef::new(&h, loc);
        let d = DirentData::new(b"x", CoreFileType::Directory, Mode::RWX, 0, 0);
        let w = r.prepare(&d).unwrap();
        r.publish(5, &w).unwrap();
        assert_eq!(r.ino().unwrap(), 5);
        r.clear().unwrap();
        assert_eq!(r.ino().unwrap(), 0);
    }

    #[test]
    fn atomic_field_updates() {
        let h = handle();
        let loc = DirentLoc { page: PageId(7), slot: 15 };
        let r = DirentRef::new(&h, loc);
        let d = DirentData::new(b"f", CoreFileType::Regular, Mode::RW, 1, 1);
        let w = r.prepare(&d).unwrap();
        r.publish(6, &w).unwrap();
        r.set_size(4096).unwrap();
        r.set_first_index(33).unwrap();
        r.set_size_mtime(8192, 99).unwrap();
        let back = r.load().unwrap();
        assert_eq!(back.size, 8192);
        assert_eq!(back.first_index, 33);
        assert_eq!(back.mtime, 99);
        assert_eq!(r.size().unwrap(), 8192);
        assert_eq!(r.first_index().unwrap(), 33);
    }

    #[test]
    fn the_stat_line_is_the_slot_but_its_name() {
        let h = handle();
        let r = put(&h, 6, 61, b"stat-me-past-the-first-line");
        r.set_size_mtime(77, 88).unwrap();
        let (mut full, line) = (r.load().unwrap(), r.load_stat().unwrap());
        assert_eq!((line.ino, line.size, line.mtime), (61, 77, 88));
        full.name[CACHE_LINE - OFF_NAME..].fill(0);
        assert_eq!(line, full);
    }

    /// Publishes `name` as ino `ino` in `slot` of page 7.
    fn put<'h>(h: &'h NvmHandle, slot: usize, ino: Ino, name: &[u8]) -> DirentRef<'h> {
        let r = DirentRef::new(h, DirentLoc { page: PageId(7), slot });
        let d = DirentData::new(name, CoreFileType::Regular, Mode::RW, 0, 0);
        let w = r.prepare(&d).unwrap();
        r.publish(ino, &w).unwrap();
        r
    }

    /// `(slot, ino)` of the live slots, the free slots, the unreadable ones.
    fn census(page: &DirPage) -> (Vec<(usize, Ino)>, Vec<usize>, Vec<usize>) {
        let (mut live, mut free, mut bad) = (Vec::new(), Vec::new(), Vec::new());
        for s in page.slots() {
            match s {
                DirSlot::Live(loc, d, raw) => {
                    assert_eq!(DirentData::decode_bytes(raw), d);
                    live.push((loc.slot, d.ino));
                }
                DirSlot::Free(loc) => free.push(loc.slot),
                DirSlot::Unreadable(loc, cause) => {
                    assert_eq!(cause, ProtError::Poisoned);
                    bad.push(loc.slot);
                }
            }
        }
        (live, free, bad)
    }

    #[test]
    fn dir_page_full_and_sparse() {
        let h = handle();
        for slot in [2, 9] {
            put(&h, slot, 100 + slot as u64, b"sparse");
        }
        // A prepared, unpublished slot is free to every reader.
        let r = DirentRef::new(&h, DirentLoc { page: PageId(7), slot: 4 });
        r.prepare(&DirentData::new(b"pending", CoreFileType::Regular, Mode::RW, 0, 0)).unwrap();
        let page = DirPage::load(&h, PageId(7)).unwrap();
        let (live, free, bad) = census(&page);
        assert_eq!(live, [(2, 102), (9, 109)]);
        assert_eq!(free.len(), 14);
        assert!(bad.is_empty());
        assert_eq!(page.first_free().unwrap().slot, 0);
        assert_eq!(page.live().map(|(loc, d)| (loc.slot, d.ino)).collect::<Vec<_>>(), live);

        for slot in 0..DIRENTS_PER_PAGE {
            put(&h, slot, 200 + slot as u64, b"full");
        }
        let page = DirPage::load_timed(&h, PageId(7)).unwrap();
        let (live, free, bad) = census(&page);
        assert_eq!(live, (0..16).map(|s| (s, 200 + s as u64)).collect::<Vec<_>>());
        assert!(free.is_empty() && bad.is_empty());
        assert_eq!(page.first_free(), None);
    }

    #[test]
    fn dir_page_keeps_garbage_for_the_verifier() {
        let h = handle();
        let r = put(&h, 3, 77, b"x");
        // A type tag nobody defines and a name length past the field.
        r.set_attr(Mode::RW, 0xEE, 250).unwrap();
        let page = DirPage::load(&h, PageId(7)).unwrap();
        let Some(DirSlot::Live(loc, d, raw)) = page.slots().nth(3) else {
            panic!("slot 3 is live");
        };
        assert_eq!((loc.slot, d.ino, d.ftype_raw, d.ftype()), (3, 77, 0xEE, None));
        assert_eq!(d.name.len(), MAX_NAME, "the decoder clamps");
        assert_eq!(DirentData::raw_name_len(raw), 250, "the raw image does not");
    }

    #[test]
    fn one_poisoned_line_costs_one_slot() {
        let h = handle();
        for slot in 0..DIRENTS_PER_PAGE {
            put(&h, slot, 300 + slot as u64, b"kept");
        }
        // Line 21 lies inside slot 5 (bytes 1344..1408 of 1280..1536).
        h.device().poison_line(PageId(7), 21);
        for page in [DirPage::load(&h, PageId(7)), DirPage::load_timed(&h, PageId(7))] {
            let (live, free, bad) = census(&page.unwrap());
            assert_eq!(bad, [5]);
            assert_eq!(live.len(), 15);
            assert!(live.iter().all(|(s, ino)| *s != 5 && *ino == 300 + *s as u64));
            assert!(free.is_empty());
        }
        // A whole-slot store heals the line; the slot reads as written.
        let lost = DirentRef::new(&h, DirentLoc { page: PageId(7), slot: 5 });
        assert_eq!(lost.image(), Err(ProtError::Poisoned));
        lost.restore_image(&[0; DIRENT_SIZE]).unwrap();
        assert_eq!(h.device().poisoned_lines(), 0);
        let (live, free, bad) = census(&DirPage::load(&h, PageId(7)).unwrap());
        assert_eq!((live.len(), free, bad), (15, vec![5], vec![]));
    }

    #[test]
    fn a_page_the_handle_cannot_read_is_an_error() {
        let h = handle();
        // Page 8 was never mapped for this actor: the fault is the
        // caller's, not sixteen unreadable slots.
        assert_eq!(DirPage::load(&h, PageId(8)).err(), Some(ProtError::NotMapped));
        assert_eq!(DirPage::load_timed(&h, PageId(8)).err(), Some(ProtError::NotMapped));
    }

    #[test]
    fn name_is_truncated_to_max() {
        let long = vec![b'a'; 300];
        let d = DirentData::new(&long, CoreFileType::Regular, Mode::RW, 0, 0);
        let h = handle();
        let r = DirentRef::new(&h, DirentLoc { page: PageId(7), slot: 1 });
        let w = r.prepare(&d).unwrap();
        r.publish(9, &w).unwrap();
        let back = r.load().unwrap();
        // name_len wraps at u8 (300 & 0xFF = 44); raw layout preserves the
        // mismatch for the verifier to flag rather than hiding it.
        assert!(back.name.len() <= MAX_NAME);
    }
}
