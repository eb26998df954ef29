//! Streaming data checksum for the delegated write path (DESIGN.md §17).
//!
//! A seahash-style construction: four 64-bit lanes absorb the input in
//! 8-byte words round-robin, each absorption followed by a multiply/xor
//! diffusion, and finalization folds the lanes plus the total length into
//! one 64-bit digest. The point is not cryptographic strength — a LibFS
//! that can forge checksums can already write the data pages — but cheap,
//! strong-enough corruption detection that a delegation worker can fold
//! into the single pass it already makes over the payload, so recording
//! per-page integrity costs no extra traversal (the verifier recomputes
//! and compares during its walk).
//!
//! Hand-rolled because the workspace is dependency-free; the construction
//! follows the published seahash design (ticki, 2016) without copying its
//! implementation.

/// Lane seeds (the seahash paper's defaults; any fixed odd constants work,
/// but using published ones makes the digest comparable across builds).
const SEED: [u64; 4] = [
    0x16f1_1fe8_9b0d_677c,
    0xb480_a793_d8e6_c86c,
    0x6fe2_e5aa_f078_ebc9,
    0x14f9_94a4_c525_9381,
];

/// The diffusion multiplier (a large odd constant with good bit mixing).
const PRIME: u64 = 0x6eed_0e9d_a4d9_4a4f;

/// One diffusion round: multiply, then xor-shift by a data-dependent
/// amount, then multiply again. Invertible (so no entropy is lost) and
/// avalanching (one flipped input bit flips ~half the output bits).
#[inline]
fn diffuse(mut x: u64) -> u64 {
    x = x.wrapping_mul(PRIME);
    let a = x >> 32;
    let b = x >> 60;
    x ^= a >> b;
    x.wrapping_mul(PRIME)
}

/// Incremental checksum state. Feed bytes in any chunking —
/// [`SeaHasher::write`] is associative over concatenation — and take the
/// digest with [`SeaHasher::finish`]. The digest depends on the byte
/// stream and its total length only, never on chunk boundaries, which is
/// what lets a delegation worker hash run-by-run while the verifier
/// re-hashes page-by-page.
#[derive(Clone, Debug)]
pub struct SeaHasher {
    lanes: [u64; 4],
    /// Which lane absorbs the next word.
    next: usize,
    /// Partial tail word (fewer than 8 bytes buffered).
    tail: u64,
    tail_len: usize,
    written: u64,
}

impl Default for SeaHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl SeaHasher {
    /// Fresh state with the default seeds.
    pub fn new() -> Self {
        SeaHasher { lanes: SEED, next: 0, tail: 0, tail_len: 0, written: 0 }
    }

    #[inline]
    fn absorb(&mut self, word: u64) {
        let lane = &mut self.lanes[self.next];
        *lane = diffuse(*lane ^ word);
        self.next = (self.next + 1) % 4;
    }

    /// Absorbs whole 32-byte blocks, one word into each lane per block,
    /// with the lanes held in locals; the stream must be at lane 0 with no
    /// tail buffered. The same words into the same lanes as four
    /// [`Self::absorb`] calls each, without the store and reload of
    /// `lanes[next]` between them. Returns what is left, under 32 bytes.
    fn absorb_blocks<'a>(&mut self, data: &'a [u8]) -> &'a [u8] {
        debug_assert!(self.next == 0 && self.tail_len == 0);
        let (blocks, rest) = data.as_chunks::<32>();
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for block in blocks {
            let (words, _) = block.as_chunks::<8>();
            a = diffuse(a ^ u64::from_le_bytes(words[0]));
            b = diffuse(b ^ u64::from_le_bytes(words[1]));
            c = diffuse(c ^ u64::from_le_bytes(words[2]));
            d = diffuse(d ^ u64::from_le_bytes(words[3]));
        }
        self.lanes = [a, b, c, d];
        rest
    }

    /// Absorbs `data` into the state.
    pub fn write(&mut self, data: &[u8]) {
        self.written += data.len() as u64;
        let mut rest = data;
        // Top up a partial tail word first.
        if self.tail_len > 0 {
            let need = 8 - self.tail_len;
            let take = need.min(rest.len());
            for (i, &b) in rest[..take].iter().enumerate() {
                self.tail |= (b as u64) << (8 * (self.tail_len + i));
            }
            self.tail_len += take;
            rest = &rest[take..];
            if self.tail_len < 8 {
                return;
            }
            let w = self.tail;
            self.tail = 0;
            self.tail_len = 0;
            self.absorb(w);
        }
        // Single words up to lane 0, then whole blocks, then single words.
        while self.next != 0 {
            let Some((word, after)) = rest.split_first_chunk::<8>() else { break };
            self.absorb(u64::from_le_bytes(*word));
            rest = after;
        }
        if self.next == 0 {
            rest = self.absorb_blocks(rest);
        }
        let (words, tail) = rest.as_chunks::<8>();
        for word in words {
            self.absorb(u64::from_le_bytes(*word));
        }
        for (i, &b) in tail.iter().enumerate() {
            self.tail |= (b as u64) << (8 * i);
        }
        self.tail_len = tail.len();
    }

    /// Finalizes: folds the lanes, the buffered tail, and the stream
    /// length into one digest. Non-consuming, so a caller can checkpoint
    /// a running hash (clone) and keep writing.
    pub fn finish(&self) -> u64 {
        let mut s = self.clone();
        if s.tail_len > 0 {
            let w = s.tail;
            s.absorb(w);
        }
        diffuse(
            s.lanes[0]
                ^ s.lanes[1]
                ^ s.lanes[2]
                ^ s.lanes[3]
                ^ s.written,
        )
    }
}

/// One-shot convenience: checksum of `data`.
pub fn checksum(data: &[u8]) -> u64 {
    let mut h = SeaHasher::new();
    h.write(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_length_sensitive() {
        assert_eq!(checksum(b"hello"), checksum(b"hello"));
        assert_ne!(checksum(b"hello"), checksum(b"hello\0"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        // All-zero pages of different lengths must differ (the length is
        // folded in, so a truncated page cannot alias a full one).
        assert_ne!(checksum(&[0u8; 4096]), checksum(&[0u8; 2048]));
    }

    #[test]
    fn chunking_never_changes_the_digest() {
        let data: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = checksum(&data);
        for chunk in [1usize, 3, 7, 8, 64, 4096, 9999] {
            let mut h = SeaHasher::new();
            for c in data.chunks(chunk) {
                h.write(c);
            }
            assert_eq!(h.finish(), whole, "chunk size {chunk} diverged");
        }
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let mut page = vec![0xA5u8; 4096];
        let clean = checksum(&page);
        for pos in [0usize, 1, 7, 8, 63, 64, 2048, 4095] {
            for bit in 0..8 {
                page[pos] ^= 1 << bit;
                assert_ne!(checksum(&page), clean, "flip at {pos}.{bit} undetected");
                page[pos] ^= 1 << bit;
            }
        }
        assert_eq!(checksum(&page), clean);
    }

    #[test]
    fn finish_is_a_checkpoint_not_a_terminator() {
        let mut h = SeaHasher::new();
        h.write(b"abc");
        let mid = h.finish();
        assert_eq!(mid, checksum(b"abc"));
        h.write(b"def");
        assert_eq!(h.finish(), checksum(b"abcdef"));
    }

    /// The one-word-at-a-time construction the digest is defined by: the
    /// `k`-th whole word of the stream goes into lane `k % 4`, the last
    /// partial word (zero-padded) into the next lane, then the fold.
    fn reference(stream: &[u8]) -> u64 {
        let mut lanes = SEED;
        let (words, tail) = stream.as_chunks::<8>();
        for (k, word) in words.iter().enumerate() {
            lanes[k % 4] = diffuse(lanes[k % 4] ^ u64::from_le_bytes(*word));
        }
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            let k = words.len() % 4;
            lanes[k] = diffuse(lanes[k] ^ u64::from_le_bytes(w));
        }
        diffuse(lanes[0] ^ lanes[1] ^ lanes[2] ^ lanes[3] ^ stream.len() as u64)
    }

    #[test]
    fn block_absorption_matches_the_one_word_reference() {
        // xorshift64: lengths, bytes and chunk sizes, the same every run.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..400 {
            // A lead of 0..40 bytes starts the bulk of the stream at every
            // lane and with every tail length buffered.
            let lead = (next() % 40) as usize;
            let len = lead + (next() % 9000) as usize;
            let stream: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let want = reference(&stream);
            assert_eq!(checksum(&stream), want, "one-shot, len {len}");
            let mut h = SeaHasher::new();
            h.write(&stream[..lead]);
            let mut rest = &stream[lead..];
            while !rest.is_empty() {
                let n = (1 + next() % 100) as usize;
                let n = if next() % 4 == 0 { n * 37 } else { n }.min(rest.len());
                h.write(&rest[..n]);
                rest = &rest[n..];
            }
            assert_eq!(h.finish(), want, "chunked, len {len}, lead {lead}");
        }
    }

    #[test]
    fn digests_on_media_do_not_change() {
        // Superblock and journal checksums are stored: these digests are
        // part of the media format.
        let pat: Vec<u8> = (0..10_000u32).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(checksum(&[0u8; 4096]), 0x7ad6_3487_02da_2905);
        assert_eq!(checksum(b"hello"), 0x0220_7565_1d74_6789);
        assert_eq!(checksum(&pat), 0x1915_0766_133e_29b7);
        assert_eq!(checksum(&pat[..4093]), 0x4ea8_62eb_6665_7246);
    }

    #[test]
    fn swapped_words_change_the_digest() {
        // Lane round-robin means word order matters even at 8-byte
        // granularity (a plain xor accumulator would miss this).
        let a: Vec<u8> = [1u64, 2u64].iter().flat_map(|w| w.to_le_bytes()).collect();
        let b: Vec<u8> = [2u64, 1u64].iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_ne!(checksum(&a), checksum(&b));
    }
}
