//! A streaming 64-bit checksum for application payloads.
//!
//! The `mpq-rpc` protocol carries a checksum of the payload
//! as an *end-to-end integrity witness*: packet protection already
//! authenticates each packet, the checksum additionally shows that
//! multipath reassembly delivered every byte, once, in order. It guards
//! against accidents, not adversaries, so it is built for speed:
//!
//! * **Word-wide, lane-parallel.** The input is read as little-endian
//!   64-bit words into four independent multiply-xorshift lanes — word
//!   `i` goes to lane `i % 4` — so the four multiplies of a 32-byte block
//!   overlap instead of forming one dependent chain over every byte (the
//!   construction of `mpquic-crypto`'s MAC, unkeyed).
//! * **Streaming.** [`Checksum64::update`] may be fed the input in any
//!   pieces; a carry of at most 31 bytes holds what does not yet fill a
//!   block, so the digest depends on the bytes alone, never on where the
//!   chunk boundaries fell.
//!
//! What it detects: every lane step is a bijection of the word it
//! absorbs and of the state it absorbs into, and the final fold is a
//! bijection of each lane and of the length. A change confined to one
//! lane — any single flipped bit, any single altered word — therefore
//! **always** changes the digest, and so does any change of length
//! (truncation, appended zeros): the zero padding of the last block
//! cannot alias real zeros because the length is folded in. Changes
//! touching several lanes at once (swapped words, reordered blocks) are
//! caught with hash-collision odds, 2⁻⁶⁴-ish for random damage. It is not
//! keyed and not collision resistant against someone choosing the bytes.

/// Independent lanes; a block is one word for each.
const LANES: usize = 4;
/// Bytes absorbed per round of all lanes.
const BLOCK: usize = 8 * LANES;
/// Where the final fold starts.
const SEED: u64 = 0xcbf2_9ce4_8422_2325;
/// What tells the lanes apart (π's fraction, as in Blowfish's P-array).
const LANE_SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
];

/// One multiply-xorshift step: for a fixed `h` a bijection of `word`, for
/// a fixed `word` a bijection of `h`.
#[inline(always)]
fn mix(h: u64, word: u64) -> u64 {
    let h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// SplitMix64 finalizer: every input bit reaches every output bit.
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Absorbs one block, word `i` into lane `i`. Words are little-endian by
/// definition, so the digest is the same on every target.
#[inline(always)]
fn absorb_block(lanes: &mut [u64; LANES], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let mut le = [0u8; 8];
        le.copy_from_slice(word);
        *lane = mix(*lane, u64::from_le_bytes(le));
    }
}

/// The running state of a checksum over a byte stream.
#[derive(Debug, Clone)]
pub struct Checksum64 {
    lanes: [u64; LANES],
    /// Input bytes not yet absorbed: the first `carried` of these.
    carry: [u8; BLOCK],
    /// Always below [`BLOCK`] between calls.
    carried: usize,
    /// Total input length so far.
    len: u64,
}

impl Default for Checksum64 {
    fn default() -> Checksum64 {
        Checksum64::new()
    }
}

impl Checksum64 {
    /// The state before any input.
    pub fn new() -> Checksum64 {
        Checksum64 {
            lanes: LANE_SEEDS,
            carry: [0u8; BLOCK],
            carried: 0,
            len: 0,
        }
    }

    /// The digest of `data` taken in one piece.
    pub fn of(data: &[u8]) -> u64 {
        let mut sum = Checksum64::new();
        sum.update(data);
        sum.finish()
    }

    /// Total bytes absorbed so far.
    pub fn absorbed(&self) -> u64 {
        self.len
    }

    /// Absorbs the next piece of the input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        if self.carried > 0 {
            // Top the carry up first; it is absorbed only once full.
            let room = &mut self.carry[self.carried..];
            let take = room.len().min(data.len());
            let (head, rest) = data.split_at(take);
            room[..take].copy_from_slice(head);
            self.carried += take;
            data = rest;
            if self.carried < BLOCK {
                return;
            }
            absorb_block(&mut self.lanes, &self.carry);
            self.carried = 0;
        }
        let mut blocks = data.chunks_exact(BLOCK);
        // A local copy keeps the lanes in registers across the loop.
        let mut lanes = self.lanes;
        for block in blocks.by_ref() {
            absorb_block(&mut lanes, block);
        }
        self.lanes = lanes;
        let tail = blocks.remainder();
        self.carry[..tail.len()].copy_from_slice(tail);
        self.carried = tail.len();
    }

    /// The digest of everything absorbed so far. Does not end the
    /// stream: more input may follow and `finish` may be called again.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if self.carried > 0 {
            // The 1..=31-byte tail rides as one more zero-padded block;
            // the length folded below keeps padding from aliasing zeros.
            let mut padded = [0u8; BLOCK];
            padded[..self.carried].copy_from_slice(&self.carry[..self.carried]);
            absorb_block(&mut lanes, &padded);
        }
        let mut acc = SEED;
        for lane in lanes {
            acc = mix(acc, lane);
        }
        avalanche(mix(acc, self.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 100 bytes: three whole blocks and a 4-byte tail.
    fn sample() -> Vec<u8> {
        (0..100u32).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn golden_digest_is_pinned_as_bytes() {
        // Pinned as bytes so a `from_ne_bytes` slip fails on a big-endian
        // target (CI runs this one under Miri for s390x).
        assert_eq!(
            Checksum64::of(&sample()).to_be_bytes(),
            [0xc8, 0x8a, 0x78, 0xb7, 0x49, 0xd6, 0xab, 0x87]
        );
        assert_eq!(
            Checksum64::of(b"").to_be_bytes(),
            [0xef, 0x19, 0xf9, 0xe7, 0x5f, 0xef, 0x2c, 0xa9]
        );
    }

    #[test]
    fn empty_input_and_empty_updates_agree() {
        let mut sum = Checksum64::new();
        let empty = sum.finish();
        sum.update(b"");
        sum.update(b"");
        assert_eq!(sum.finish(), empty);
        assert_eq!(Checksum64::of(b""), empty);
        assert_ne!(Checksum64::of(b"\0"), empty);
    }

    #[test]
    fn finish_does_not_end_the_stream() {
        let data = sample();
        let mut sum = Checksum64::new();
        sum.update(&data[..41]);
        assert_eq!(sum.finish(), Checksum64::of(&data[..41]));
        sum.update(&data[41..]);
        assert_eq!(sum.finish(), Checksum64::of(&data));
        assert_eq!(sum.absorbed(), 100);
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        let data = sample();
        let reference = Checksum64::of(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(
                    Checksum64::of(&flipped),
                    reference,
                    "flip of byte {byte} bit {bit} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn swapped_words_change_the_digest() {
        let data = sample();
        let reference = Checksum64::of(&data);
        let swap = |a: usize, b: usize| {
            let mut out = data.clone();
            for k in 0..8 {
                out.swap(a * 8 + k, b * 8 + k);
            }
            out
        };
        // Words 0 and 4 share lane 0; words 0 and 1 sit in neighbouring
        // lanes of one block; words 1 and 6 differ in lane and block.
        for (a, b) in [(0, 4), (4, 8), (0, 1), (2, 3), (1, 6), (5, 11)] {
            assert_ne!(data[a * 8..a * 8 + 8], data[b * 8..b * 8 + 8]);
            assert_ne!(
                Checksum64::of(&swap(a, b)),
                reference,
                "swapping words {a} and {b} went unnoticed"
            );
        }
    }

    #[test]
    fn length_changes_change_the_digest() {
        let data = sample();
        let reference = Checksum64::of(&data);
        // Appended zeros, including up to and past the block boundary
        // the padding would reach.
        let mut longer = data.clone();
        for _ in 0..40 {
            longer.push(0);
            assert_ne!(Checksum64::of(&longer), reference, "len {}", longer.len());
        }
        // Every truncation, including trailing zeros cut off a block.
        let mut seen = vec![reference];
        for cut in 0..data.len() {
            seen.push(Checksum64::of(&data[..cut]));
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), data.len() + 1, "two prefixes collided");
        let zeros = [0u8; 64];
        assert_ne!(Checksum64::of(&zeros[..32]), Checksum64::of(&zeros[..33]));
        assert_ne!(Checksum64::of(&zeros[..31]), Checksum64::of(&zeros[..32]));
    }

    #[test]
    fn one_byte_feeds_match_one_shot() {
        let data = sample();
        let mut sum = Checksum64::new();
        for byte in &data {
            sum.update(std::slice::from_ref(byte));
        }
        assert_eq!(sum.finish(), Checksum64::of(&data));
    }

    proptest! {
        /// The digest depends on the bytes, never on how they were cut.
        #[test]
        fn prop_digest_is_independent_of_chunking(
            data in proptest::collection::vec(any::<u8>(), 0..400),
            cuts in proptest::collection::vec(0usize..400, 0..24),
        ) {
            let mut points: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
            points.push(0);
            points.push(data.len());
            points.sort_unstable();
            let mut sum = Checksum64::new();
            for pair in points.windows(2) {
                // Repeated cut points feed empty pieces, on purpose.
                sum.update(&data[pair[0]..pair[1]]);
            }
            prop_assert_eq!(sum.finish(), Checksum64::of(&data));
            prop_assert_eq!(sum.absorbed(), data.len() as u64);
        }
    }
}
