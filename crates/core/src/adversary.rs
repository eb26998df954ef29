//! Grammar-aware corruption fuzzer (DESIGN.md §14).
//!
//! Where [`crate::attack`] replays the paper's eleven handcrafted attacks,
//! this module *generates* them: a seeded fuzzer whose mutation grammar
//! knows the on-NVM structures — directory entries, index-page chains,
//! journal records, size/type/mode fields, page pointers — and applies
//! type-aware mutations (pointer swaps, cycles, aliases, truncations,
//! inflations, field-granular bit-flips) plus delegation-protocol attacks
//! (malformed, oversized, and replayed [`DelegReq`]s, hostile run lists).
//!
//! Every mutation goes through the powers a real malicious LibFS has: raw
//! stores through its own MMU-checked [`trio_nvm::NvmHandle`] to pages it
//! legitimately mapped, and its shared-memory ring endpoints. Nothing here
//! uses kernel privilege.
//!
//! Determinism: all randomness comes from a caller-supplied
//! [`trio_sim::rng::SimRng`], so any campaign finding is replayable from
//! its `(seed, iteration)` pair alone.

use std::sync::Arc;

use trio_fsapi::{FileSystem, FsError, FsResult, Mode};
use trio_kernel::delegation::{DelegReply, DelegReq, DelegRun};
use trio_kernel::grant::GrantRef;
use trio_layout::{CoreFileType, DirPage, DirentData, DirentLoc, DirentRef, IndexPageRef};
use trio_nvm::{PageId, PAGE_SIZE};
use trio_sim::rng::SimRng;
use trio_sim::sync::SimChannel;
use trio_sim::{in_sim, now};

use crate::attack::free_slot_in;
use crate::libfs::ArckFs;

/// One production of the corruption grammar. The first block mutates
/// directory entries, the second index-page chains, the third the LibFS's
/// own journal, the fourth the delegation ring protocol; then the medium,
/// and a move the kernel must not mistake for a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Field-granular bit-flip in a live dirent (ino, size, first_index,
    /// mode, type, or name-length field — picked at random).
    DirentFieldFlip,
    /// Clear a live dirent, disconnecting whatever it referenced.
    DirentClear,
    /// Forge a new dirent in a free slot: hostile name (`/`, empty, or
    /// garbage), fabricated or aliased ino, random type tag.
    DirentForge,
    /// Duplicate an existing dirent into a free slot (name or ino alias).
    DirentAlias,
    /// Inflate the recorded size far past the allocated extent.
    SizeInflate,
    /// Truncate the recorded size below the real content.
    SizeTruncate,
    /// Widen the cached mode bits (I4 tamper).
    ModeTamper,
    /// Rewrite the type tag to a random raw value.
    TypeConfuse,
    /// Swap two entries of an index page (reorders the extent).
    IndexSwap,
    /// Point an index page's `next` at itself or an earlier page.
    IndexCycle,
    /// Alias an index entry to a page the file does not own.
    IndexAlias,
    /// Zero an index entry or the `next` pointer mid-chain.
    IndexTruncate,
    /// Point an index entry beyond the device (wild pointer).
    IndexInflate,
    /// Scribble random bytes over the LibFS's own journal records.
    JournalScribble,
    /// Ring attack: a `DelegReq` whose run payload ranges reach past the
    /// grant window it references.
    DelegMalformedRun,
    /// Ring attack: a read whose run range asks the kernel thread to
    /// allocate far more than the run's pages can hold.
    DelegOversizedRead,
    /// Ring attack: submit the same (valid) request twice.
    DelegReplay,
    /// Ring attack: a request with a hostile, enormous run list.
    DelegRunBomb,
    /// Ring attack: a write referencing a forged grant — an id the kernel
    /// never issued (or a wild epoch), hoping a worker dereferences it.
    DelegGrantForge,
    /// Ring attack: a write referencing the LibFS's *own* grant after
    /// revoking or rewriting it — the stale-grant read attempt. Workers
    /// must fault it cleanly ([`trio_nvm::ProtError::GrantRevoked`]), never
    /// serve the old bytes.
    DelegGrantStale,
    /// Media production (the environment as adversary): poison one cache
    /// line of a victim data page, then let the victim read. Reads over
    /// the dead line must fail *typed* (`Corrupted`), never hand back
    /// garbage — and the innocent grant holder must never be quarantined
    /// for the medium's fault.
    MediaPoisonRead,
    /// Media production: silently flip a byte under an intact integrity
    /// sidecar (bit rot), then run a full patrol scrub pass. The scrubber
    /// must notice the checksum mismatch and fence the page so later reads
    /// fail loudly instead of returning rotten bytes. Skipped when the
    /// victim has no checksummed page (sidecars ride delegated writes).
    MediaRotScrub,
    /// Move the victim (a file the kernel knows) into a fresh subdirectory
    /// with the LibFS's own `rename`, then publish its ino back into the
    /// slot it left and restore the directory's entry count. The ino is now
    /// live at its recorded slot and at the new one: a link, not a move,
    /// whichever directory is verified first (DESIGN.md §14, the move rule).
    MoveForgeBack,
}

/// Every production, for exhaustive sweeps and uniform draws.
pub const ALL_MUTATIONS: [Mutation; 23] = [
    Mutation::DirentFieldFlip,
    Mutation::DirentClear,
    Mutation::DirentForge,
    Mutation::DirentAlias,
    Mutation::SizeInflate,
    Mutation::SizeTruncate,
    Mutation::ModeTamper,
    Mutation::TypeConfuse,
    Mutation::IndexSwap,
    Mutation::IndexCycle,
    Mutation::IndexAlias,
    Mutation::IndexTruncate,
    Mutation::IndexInflate,
    Mutation::JournalScribble,
    Mutation::DelegMalformedRun,
    Mutation::DelegOversizedRead,
    Mutation::DelegReplay,
    Mutation::DelegRunBomb,
    Mutation::DelegGrantForge,
    Mutation::DelegGrantStale,
    Mutation::MediaPoisonRead,
    Mutation::MediaRotScrub,
    Mutation::MoveForgeBack,
];

impl Mutation {
    /// Stable kind string for reports.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::DirentFieldFlip => "dirent_field_flip",
            Mutation::DirentClear => "dirent_clear",
            Mutation::DirentForge => "dirent_forge",
            Mutation::DirentAlias => "dirent_alias",
            Mutation::SizeInflate => "size_inflate",
            Mutation::SizeTruncate => "size_truncate",
            Mutation::ModeTamper => "mode_tamper",
            Mutation::TypeConfuse => "type_confuse",
            Mutation::IndexSwap => "index_swap",
            Mutation::IndexCycle => "index_cycle",
            Mutation::IndexAlias => "index_alias",
            Mutation::IndexTruncate => "index_truncate",
            Mutation::IndexInflate => "index_inflate",
            Mutation::JournalScribble => "journal_scribble",
            Mutation::DelegMalformedRun => "deleg_malformed_run",
            Mutation::DelegOversizedRead => "deleg_oversized_read",
            Mutation::DelegReplay => "deleg_replay",
            Mutation::DelegRunBomb => "deleg_run_bomb",
            Mutation::DelegGrantForge => "deleg_grant_forge",
            Mutation::DelegGrantStale => "deleg_grant_stale",
            Mutation::MediaPoisonRead => "media_poison_read",
            Mutation::MediaRotScrub => "media_rot_scrub",
            Mutation::MoveForgeBack => "move_forge_back",
        }
    }

    /// Uniform draw from the grammar.
    pub fn pick(rng: &mut SimRng) -> Mutation {
        ALL_MUTATIONS[rng.gen_range(ALL_MUTATIONS.len() as u64) as usize]
    }

    /// Whether this production can be indistinguishable from a legitimate
    /// write by the grant holder. Verify-on-sharing guarantees *metadata*
    /// integrity; an actor holding a write grant may legally truncate,
    /// reorder its own pages, or store valid field values — so harnesses
    /// must not demand byte-exact rollback content after these, only the
    /// structural invariants.
    pub fn legal_as_writer(self) -> bool {
        matches!(
            self,
            Mutation::DirentFieldFlip
                | Mutation::SizeTruncate
                | Mutation::IndexSwap
                | Mutation::IndexTruncate
        )
    }

    /// Whether this production models the *medium* failing rather than a
    /// hostile LibFS. Media faults are held to a different contract: reads
    /// over lost lines fail typed (never garbage), and the innocent grant
    /// holder is never quarantined for them.
    pub fn is_media(self) -> bool {
        matches!(self, Mutation::MediaPoisonRead | Mutation::MediaRotScrub)
    }
}

/// Applies one random production. See [`run_mutation`].
pub fn apply_random(
    fs: &ArckFs,
    rng: &mut SimRng,
    dir_path: &str,
    victim: &str,
) -> (Mutation, FsResult<String>) {
    let m = Mutation::pick(rng);
    (m, run_mutation(fs, rng, m, dir_path, victim))
}

/// Runs `m` against `dir_path` (a directory the malicious LibFS has
/// write-mapped, containing at least the file `victim`). `Ok(detail)`
/// means the corruption landed (the detail string is for reports);
/// `Err(_)` means it could not even be staged with the LibFS's own powers
/// (no free slot, structure too small, delegation pool not started) —
/// that is a skipped draw, not a defense failure.
pub fn run_mutation(
    fs: &ArckFs,
    rng: &mut SimRng,
    m: Mutation,
    dir_path: &str,
    victim: &str,
) -> FsResult<String> {
    let victim_path = trio_fsapi::path::join(dir_path, victim);
    let (dir_loc, _dir_index, dir_data) = fs.debug_file_pages(dir_path)?;
    let (vic_loc, vic_index, vic_data) = fs.debug_file_pages(&victim_path)?;
    let h = fs.handle();
    let vic_loc = vic_loc.ok_or(FsError::NotFound)?;
    let vic = DirentRef::new(h, vic_loc);

    match m {
        Mutation::DirentFieldFlip => {
            let d = vic.load().map_err(ArckFs::fault)?;
            let bit = rng.gen_range(64);
            let field = rng.gen_range(5);
            // The victim slot is already live (published in a previous
            // op), so its image really is durable — the adversary only
            // forges the witness, not the durability.
            #[allow(
                clippy::disallowed_methods,
                reason = "adversary mints a witness for an already-durable victim slot"
            )]
            // lint: allow(layout-door) the forged witness names the slot's raw bytes; no accessor hands out a span
            let slot = h.assume_durable(vic_loc.page, vic_loc.byte_off(), trio_layout::DIRENT_SIZE);
            match field {
                0 => vic.publish(d.ino ^ (1 << bit), &slot).map_err(ArckFs::fault)?,
                1 => vic.set_size(d.size ^ (1 << bit)).map_err(ArckFs::fault)?,
                2 => vic.set_first_index(d.first_index ^ (1 << bit)).map_err(ArckFs::fault)?,
                3 => vic
                    .set_attr(Mode(d.mode.0 ^ (1 << (bit % 16) as u16)), d.ftype_raw, d.name.len() as u8)
                    .map_err(ArckFs::fault)?,
                _ => vic
                    .set_attr(d.mode, d.ftype_raw, (d.name.len() as u8) ^ (1 << (bit % 8) as u8))
                    .map_err(ArckFs::fault)?,
            }
            Ok(format!("field {field} bit {bit} of {victim_path}"))
        }
        Mutation::DirentClear => {
            let loc = random_live_slot(fs, rng, &dir_data)?;
            DirentRef::new(h, loc).clear().map_err(ArckFs::fault)?;
            Ok(format!("cleared slot {}@{}", loc.slot, loc.page.0))
        }
        Mutation::DirentForge => {
            let free = free_slot_in(fs, &dir_data)?;
            let name: &[u8] = match rng.gen_range(4) {
                0 => b"a/b",
                1 => b"..",
                2 => b"\xff\xfe\x00garbage",
                _ => b"ghost",
            };
            let mut evil = DirentData::new(name, CoreFileType::Regular, Mode::RW, 0, 0);
            evil.ftype_raw = rng.next_u64() as u8;
            let ino = match rng.gen_range(3) {
                0 => 900_000_000 + rng.gen_range(1 << 20), // fabricated
                1 => vic.ino().map_err(ArckFs::fault)?,    // aliased
                _ => rng.next_u64() | 1,                   // wild
            };
            DirentRef::new(h, free).link(&evil, ino).map_err(ArckFs::fault)?;
            Ok(format!("forged ino {ino} name {:?}", String::from_utf8_lossy(name)))
        }
        Mutation::DirentAlias => {
            let src = random_live_slot(fs, rng, &dir_data)?;
            let free = free_slot_in(fs, &dir_data)?;
            let mut dup = DirentRef::new(h, src).load().map_err(ArckFs::fault)?;
            let same_name = rng.gen_range(2) == 0;
            if !same_name {
                dup.name = b"alias".to_vec();
            }
            let ino = dup.ino;
            DirentRef::new(h, free).link(&dup, ino).map_err(ArckFs::fault)?;
            Ok(format!("aliased ino {ino} (same_name={same_name})"))
        }
        Mutation::SizeInflate => {
            let bump = 1u64 << (20 + rng.gen_range(24));
            vic.set_size(bump).map_err(ArckFs::fault)?;
            Ok(format!("size -> {bump}"))
        }
        Mutation::SizeTruncate => {
            vic.set_size(rng.gen_range(8)).map_err(ArckFs::fault)?;
            Ok("size truncated".into())
        }
        Mutation::ModeTamper => {
            let d = vic.load().map_err(ArckFs::fault)?;
            vic.set_attr(Mode(0o7777), d.ftype_raw, d.name.len() as u8).map_err(ArckFs::fault)?;
            Ok("mode -> 7777".into())
        }
        Mutation::TypeConfuse => {
            let d = vic.load().map_err(ArckFs::fault)?;
            // Valid tags are 1 and 2; anything >= 3 is corruption (I1).
            let raw = 3 + (rng.next_u64() as u8 % 253);
            vic.set_attr(d.mode, raw, d.name.len() as u8).map_err(ArckFs::fault)?;
            Ok(format!("ftype_raw -> {raw:#x}"))
        }
        Mutation::IndexSwap => {
            let ipage = *vic_index.first().ok_or(FsError::NotFound)?;
            let r = IndexPageRef::new(h, ipage);
            let a = r.entry(1).map_err(ArckFs::fault)?;
            let b = r.entry(2).map_err(ArckFs::fault)?;
            r.set_entry(1, b).map_err(ArckFs::fault)?;
            r.set_entry(2, a).map_err(ArckFs::fault)?;
            Ok(format!("swapped entries 1<->2 of index page {}", ipage.0))
        }
        Mutation::IndexCycle => {
            if vic_index.is_empty() {
                return Err(FsError::NotFound);
            }
            let ipage = vic_index[rng.gen_range(vic_index.len() as u64) as usize];
            let target = vic_index[rng.gen_range(vic_index.len() as u64) as usize];
            IndexPageRef::new(h, ipage).set_next(target.0).map_err(ArckFs::fault)?;
            Ok(format!("index {} next -> {}", ipage.0, target.0))
        }
        Mutation::IndexAlias => {
            let ipage = *vic_index.first().ok_or(FsError::NotFound)?;
            // A page another verified file owns (the parent directory's
            // data page) — a guaranteed provenance violation. The evil
            // LibFS's *own* pool/journal pages would not do: pointing a
            // file it writes at pages it owns is exactly how legal file
            // growth looks, and entry 0 is a hole, i.e. legal truncation.
            let foreign = dir_data.iter().flatten().next().copied().ok_or(FsError::NotFound)?;
            IndexPageRef::new(h, ipage).set_entry(1, foreign.0).map_err(ArckFs::fault)?;
            Ok(format!("index entry -> foreign page {}", foreign.0))
        }
        Mutation::IndexTruncate => {
            let ipage = *vic_index.first().ok_or(FsError::NotFound)?;
            let r = IndexPageRef::new(h, ipage);
            if rng.gen_range(2) == 0 {
                r.set_next(0).map_err(ArckFs::fault)?;
            } else {
                r.set_entry(1, 0).map_err(ArckFs::fault)?;
            }
            Ok("index chain truncated".into())
        }
        Mutation::IndexInflate => {
            let ipage = *vic_index.first().ok_or(FsError::NotFound)?;
            let wild = u64::MAX - rng.gen_range(1 << 20);
            IndexPageRef::new(h, ipage).set_entry(1, wild).map_err(ArckFs::fault)?;
            Ok(format!("index entry -> wild {wild:#x}"))
        }
        Mutation::JournalScribble => {
            let pages = fs.journal_pages();
            if pages.is_empty() {
                return Err(FsError::NotFound);
            }
            let page = pages[rng.gen_range(pages.len() as u64) as usize];
            let off = (rng.gen_range((PAGE_SIZE - 16) as u64) as usize) & !7;
            let junk = rng.next_u64().to_le_bytes();
            h.write(page, off, &junk).map_err(ArckFs::fault)?;
            Ok(format!("journal page {} off {off}", page.0))
        }
        Mutation::DelegMalformedRun => {
            let page = fs.debug_take_pool_page();
            let grants = fs.kernel().delegation().grants();
            let data: Arc<[u8]> = vec![0xAB; 64].into();
            let id = grants.register(fs.actor(), data);
            let gref = GrantRef { grant_id: id, start: 0, len: 64, epoch: 1 };
            let req = |reply| DelegReq {
                actor: fs.actor(),
                op_id: 0,
                runs: vec![DelegRun {
                    pages: vec![page],
                    start: 0,
                    // Payload range reaches past the grant window.
                    payload: 32..(PAGE_SIZE * 2),
                }],
                grant: Some(gref),
                tag: 0,
                reply,
            };
            let r = submit_hostile(fs, rng, req, 1);
            grants.revoke(fs.actor(), id);
            r
        }
        Mutation::DelegOversizedRead => {
            let page = fs.debug_take_pool_page();
            let req = |reply| DelegReq {
                actor: fs.actor(),
                op_id: 0,
                runs: vec![DelegRun {
                    pages: vec![page],
                    start: 0,
                    // Allocation bomb: one page backing a gigabyte "read".
                    payload: 0..(1 << 30),
                }],
                grant: None,
                tag: 0,
                reply,
            };
            submit_hostile(fs, rng, req, 1)
        }
        Mutation::DelegReplay => {
            let page = fs.debug_take_pool_page();
            let grants = fs.kernel().delegation().grants();
            let data: Arc<[u8]> = vec![0x5A; 128].into();
            let id = grants.register(fs.actor(), data);
            let gref = GrantRef { grant_id: id, start: 0, len: 128, epoch: 1 };
            let req = |reply| DelegReq {
                actor: fs.actor(),
                op_id: 0,
                runs: vec![DelegRun { pages: vec![page], start: 0, payload: 0..128 }],
                grant: Some(gref),
                tag: 0,
                reply,
            };
            let r = submit_hostile(fs, rng, req, 2);
            grants.revoke(fs.actor(), id);
            r
        }
        Mutation::DelegRunBomb => {
            let page = fs.debug_take_pool_page();
            let run = DelegRun { pages: vec![page], start: 0, payload: 0..1 };
            let runs: Vec<DelegRun> = (0..10_000).map(|_| run.clone()).collect();
            let req = |reply| DelegReq {
                actor: fs.actor(),
                op_id: 0,
                runs: runs.clone(),
                grant: None,
                tag: 0,
                reply,
            };
            submit_hostile(fs, rng, req, 1)
        }
        Mutation::DelegGrantForge => {
            let page = fs.debug_take_pool_page();
            // An id the kernel never issued, or (half the time) an absurd
            // epoch on a plausible id — either way the worker must refuse
            // to dereference it.
            let gref = GrantRef {
                grant_id: 0x8000_0000_0000_0000 | rng.next_u64(),
                start: 0,
                len: 128,
                epoch: 1 + rng.gen_range(1 << 30),
            };
            let req = |reply| DelegReq {
                actor: fs.actor(),
                op_id: 0,
                runs: vec![DelegRun { pages: vec![page], start: 0, payload: 0..128 }],
                grant: Some(gref),
                tag: 0,
                reply,
            };
            submit_hostile(fs, rng, req, 1)
        }
        Mutation::DelegGrantStale => {
            let page = fs.debug_take_pool_page();
            let grants = fs.kernel().delegation().grants();
            let data: Arc<[u8]> = vec![0xEE; 128].into();
            let id = grants.register(fs.actor(), data);
            let gref = grants.window(fs.actor(), id, 0, 128).map_err(ArckFs::fault)?;
            // Invalidate the window before the workers see it: revoke the
            // grant outright, or rewrite it (epoch bump) — the two ways a
            // submitter can yank a buffer out from under its own request.
            let how = if rng.gen_range(2) == 0 {
                grants.revoke(fs.actor(), id);
                "revoked"
            } else {
                grants
                    .update(fs.actor(), id, vec![0x11; 128].into())
                    .map_err(ArckFs::fault)?;
                "rewritten"
            };
            let req = |reply| DelegReq {
                actor: fs.actor(),
                op_id: 0,
                runs: vec![DelegRun { pages: vec![page], start: 0, payload: 0..128 }],
                grant: Some(gref),
                tag: 0,
                reply,
            };
            let r = submit_hostile(fs, rng, req, 1);
            grants.revoke(fs.actor(), id);
            r.map(|s| format!("{s} ({how} grant)"))
        }
        Mutation::MediaPoisonRead => {
            let pages: Vec<PageId> = vic_data.iter().flatten().copied().collect();
            if pages.is_empty() {
                return Err(FsError::NotFound);
            }
            let page = pages[rng.gen_range(pages.len() as u64) as usize];
            let line = rng.gen_range((PAGE_SIZE / trio_nvm::CACHE_LINE) as u64) as u16;
            h.device().poison_line(page, line);
            Ok(format!("poisoned line {line} of data page {}", page.0))
        }
        Mutation::MediaRotScrub => {
            // Rot only bites where an integrity sidecar can catch it;
            // unchecksummed pages would rot silently, which is a modelled
            // non-goal, not a defense to exercise.
            let page = vic_data
                .iter()
                .flatten()
                .find(|p| matches!(h.device().page_csum(**p), Ok(Some(_))))
                .copied()
                .ok_or(FsError::NotFound)?;
            let off = rng.gen_range(PAGE_SIZE as u64) as usize;
            h.device().rot_byte(page, off);
            let total = h.device().topology().total_pages() as usize;
            let rep = fs.kernel().scrub_pass(total);
            Ok(format!(
                "rotted byte {off} of page {}; scrub saw {} rot, fenced {}",
                page.0, rep.rot_pages, rep.fenced_off
            ))
        }
        Mutation::MoveForgeBack => {
            // The entry count to restore lives in the parent's page; the
            // root's, in the kernel's superblock.
            let count = DirentRef::new(h, dir_loc.ok_or(FsError::InvalidArgument)?);
            let d = vic.load().map_err(ArckFs::fault)?;
            let dest = trio_fsapi::path::join(dir_path, "moved");
            fs.mkdir(&dest, Mode(0o777))?;
            fs.rename(&victim_path, &trio_fsapi::path::join(&dest, victim))?;
            vic.link(&d, d.ino).map_err(ArckFs::fault)?;
            let n = count.size().map_err(ArckFs::fault)?;
            count.set_size(n + 1).map_err(ArckFs::fault)?;
            Ok(format!("moved ino {} to {dest} and forged it back", d.ino))
        }
    }
}

/// Submits `copies` of a hostile request straight onto a delegation ring
/// (what a malicious LibFS with ring access can always do) and drains the
/// replies so no worker blocks. Returns the reply disposition.
fn submit_hostile(
    fs: &ArckFs,
    rng: &mut SimRng,
    build: impl Fn(Arc<SimChannel<DelegReply>>) -> DelegReq,
    copies: usize,
) -> FsResult<String> {
    let pool = fs.kernel().delegation();
    if !pool.is_started() || !in_sim() {
        return Err(FsError::InvalidArgument); // skipped: no rings to attack
    }
    let nodes = fs.handle().device().topology().nodes;
    let node = rng.gen_range(nodes.max(1) as u64) as usize;
    let reply: Arc<SimChannel<DelegReply>> = Arc::new(SimChannel::bounded(copies.max(1) * 2));
    for _ in 0..copies {
        pool.submit_raw(node, build(Arc::clone(&reply))).map_err(ArckFs::fault)?;
    }
    let mut rejected = 0usize;
    let mut served = 0usize;
    for _ in 0..copies {
        // A bounded wait: workers reply to every admitted request, but a
        // fuzz harness must never hang on a protocol attack.
        match reply.recv_deadline(now() + 50_000_000) {
            trio_sim::sync::RecvDeadline::Ok((_tag, Err(_))) => rejected += 1,
            trio_sim::sync::RecvDeadline::Ok((_tag, Ok(_))) => served += 1,
            _ => break,
        }
    }
    Ok(format!("node {node}: {served} served, {rejected} rejected of {copies}"))
}

/// Picks a random live dirent slot from the directory's data pages.
fn random_live_slot(fs: &ArckFs, rng: &mut SimRng, dir_data: &[Option<PageId>]) -> FsResult<DirentLoc> {
    let mut live = Vec::new();
    for page in dir_data.iter().flatten() {
        let page = DirPage::load(fs.handle(), *page).map_err(ArckFs::fault)?;
        live.extend(page.live().map(|(loc, _)| loc));
    }
    if live.is_empty() {
        return Err(FsError::NotFound);
    }
    Ok(live[rng.gen_range(live.len() as u64) as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammar_draw_is_deterministic() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..256 {
            assert_eq!(Mutation::pick(&mut a), Mutation::pick(&mut b));
        }
    }
}
