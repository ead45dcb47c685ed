//! A toy authenticated cipher.
//!
//! **This is not real cryptography** — see the crate docs. Structure is
//! that of a stream-cipher AEAD: sealing XORs a key/nonce-derived keystream
//! into the plaintext and appends a 64-bit MAC computed over the
//! associated data (the packet's public header), the ciphertext and their
//! lengths. Opening checks that MAC and keeps the plaintext only if it
//! matches.
//!
//! Every packet pays this in both directions, so it is built to cost one
//! pass over the packet:
//!
//! * **Key schedule once.** [`Aead::new`] absorbs the 32-byte key under
//!   both domains (keystream, MAC); a packet absorbs only its 12-byte
//!   nonce on top of that state.
//! * **Lane-parallel MAC.** The ciphertext is read as little-endian 64-bit
//!   words into four independent multiply-xorshift lanes — word `i`
//!   goes to lane `i % 4` — so the multiplies of one 32-byte block
//!   overlap instead of forming one dependent chain over every byte. The
//!   lanes, the associated data and both lengths are folded into the
//!   8-byte tag at the end. Every fold step is a bijection of the value it
//!   absorbs, so a change confined to the associated data, to one length
//!   or to one lane always changes the tag; anything wider is detected
//!   with hash-collision odds. A toy: it resists accidents and the
//!   tampering the tests try, not an adversary.
//! * **One loop, no staging copy.** Each step of [`Aead::seal_in_place`]
//!   and [`Aead::open_into`] XORs one keystream word and absorbs the
//!   ciphertext word into its MAC lane, so the packet's bytes are read
//!   once. Seal works where the packet was encoded; open reads the
//!   ciphertext where it was received and decrypts it straight into a
//!   caller-owned buffer while it verifies, then, on a bad tag, zeroes
//!   what it wrote and truncates the buffer back. They are the one
//!   seal/open core; the allocating [`Aead::seal`], [`Aead::seal_into`]
//!   and [`Aead::open`] are thin wrappers over them.

use mpquic_util::DetRng;

/// Symmetric key.
pub type Key = [u8; 32];

/// MAC tag length in bytes (matches `mpquic_wire::AEAD_TAG_SIZE`).
pub const TAG_SIZE: usize = 8;

/// Errors from packet protection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// MAC verification failed: wrong key, wrong nonce, or tampering.
    AuthenticationFailed,
    /// Ciphertext shorter than the MAC tag.
    Truncated,
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::AuthenticationFailed => write!(f, "packet authentication failed"),
            CryptoError::Truncated => write!(f, "ciphertext shorter than tag"),
        }
    }
}

impl std::error::Error for CryptoError {}

/// Domain separator of the keystream seed.
const KEYSTREAM_DOMAIN: u64 = 0x5EA1;
/// Domain separator of the MAC seed.
const MAC_DOMAIN: u64 = 0x7A6;

/// FNV-1a 64-bit over a byte slice, continuing from `state`. Only the
/// 32-byte key (once per context) and the 12-byte nonce (once per packet
/// and domain) go through this byte-serial chain.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x100_0000_01b3);
    }
    state
}

/// The key half of a seed: FNV state after absorbing `key` under `domain`.
fn key_state(key: &Key, domain: u64) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325 ^ domain, key)
}

/// The per-packet half: absorbs `nonce` on top of a [`key_state`].
fn nonce_seed(key_state: u64, nonce: &[u8; 12]) -> u64 {
    avalanche(fnv1a(key_state, nonce))
}

/// SplitMix64 finalizer: every input bit reaches every output bit.
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent MAC lanes; a block is one word for each.
const LANES: usize = 4;
/// Bytes absorbed per round of all lanes.
const BLOCK: usize = 8 * LANES;
/// What tells the lanes apart: XORed into the per-packet MAC seed.
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

/// Up to eight bytes as a little-endian word, zero-padded.
#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    match <[u8; 8]>::try_from(bytes) {
        Ok(word) => u64::from_le_bytes(word),
        Err(_) => {
            let mut word = [0u8; 8];
            for (d, s) in word.iter_mut().zip(bytes) {
                *d = *s;
            }
            u64::from_le_bytes(word)
        }
    }
}

/// Absorbs one block, word `i` into lane `i`.
#[inline(always)]
fn absorb_block(lanes: &mut [u64; LANES], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        *lane = mix(*lane, le_word(word));
    }
}

/// A 1..=31-byte tail as one more block, zero-padded; the length folded
/// into the tag keeps padding from aliasing real zeros.
#[inline(always)]
fn padded(tail: &[u8]) -> [u8; BLOCK] {
    let mut block = [0u8; BLOCK];
    for (d, s) in block.iter_mut().zip(tail) {
        *d = *s;
    }
    block
}

/// One packet's seal or open: the keystream generator and the MAC
/// lanes, both seeded from the nonce, advanced together a word at a time.
struct Pass {
    keystream: DetRng,
    /// The per-packet MAC seed the lanes and the final fold start from.
    seed: u64,
    lanes: [u64; LANES],
}

impl Pass {
    /// Inlined: as a call it returns its seven words through memory,
    /// which made sealing a 1,350-byte packet about 5 % slower (x86-64
    /// micro-loop).
    #[inline(always)]
    fn new(aead: &Aead, nonce: &[u8; 12]) -> Pass {
        let seed = nonce_seed(aead.mac_key, nonce);
        Pass {
            keystream: DetRng::new(nonce_seed(aead.keystream_key, nonce)),
            seed,
            lanes: LANE_SEEDS.map(|lane| seed ^ lane),
        }
    }

    /// XORs the keystream into the first `len` bytes of a zero-padded
    /// tail block, one generator word for each word the tail reaches
    /// into (a partial word takes the low bytes of its generator word),
    /// and keeps the padding zero, which is what the MAC absorbs there.
    fn xor_tail(&mut self, block: [u8; BLOCK], len: usize) -> [u8; BLOCK] {
        let mut out = [0u8; BLOCK];
        let mut left = len;
        for (src, dst) in block.chunks_exact(8).zip(out.chunks_exact_mut(8)) {
            if left == 0 {
                break;
            }
            let mut key = self.keystream.next_u64();
            if left < 8 {
                key &= (1 << (8 * left)) - 1;
            }
            dst.copy_from_slice(&(le_word(src) ^ key).to_le_bytes());
            left = left.saturating_sub(8);
        }
        out
    }

    /// Folds the associated data, its length, the lanes and the
    /// ciphertext length into the tag.
    fn tag(self, aad: &[u8], ciphertext_len: usize) -> [u8; TAG_SIZE] {
        let mut acc = self.seed;
        for word in aad.chunks(8) {
            acc = mix(acc, le_word(word));
        }
        acc = mix(acc, aad.len() as u64);
        for lane in self.lanes {
            acc = mix(acc, lane);
        }
        acc = mix(acc, ciphertext_len as u64);
        avalanche(acc).to_le_bytes()
    }
}

/// An AEAD context bound to one key: the key schedule of both domains,
/// computed once. Build it where the key appears and keep it.
#[derive(Clone)]
pub struct Aead {
    /// [`key_state`] under [`KEYSTREAM_DOMAIN`].
    keystream_key: u64,
    /// [`key_state`] under [`MAC_DOMAIN`].
    mac_key: u64,
}

/// Redacting: the two states stand in for the key.
impl std::fmt::Debug for Aead {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Aead { key: .. }")
    }
}

impl Aead {
    /// Creates a context for `key`.
    pub fn new(key: Key) -> Aead {
        Aead {
            keystream_key: key_state(&key, KEYSTREAM_DOMAIN),
            mac_key: key_state(&key, MAC_DOMAIN),
        }
    }

    /// Encrypts `data` in place, authenticating it together with `aad`,
    /// and returns the tag the caller appends behind the ciphertext.
    pub fn seal_in_place(&self, nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> [u8; TAG_SIZE] {
        let mut pass = Pass::new(self, nonce);
        let mut blocks = data.chunks_exact_mut(BLOCK);
        for block in blocks.by_ref() {
            for (lane, word) in pass.lanes.iter_mut().zip(block.chunks_exact_mut(8)) {
                let sealed = le_word(word) ^ pass.keystream.next_u64();
                word.copy_from_slice(&sealed.to_le_bytes());
                *lane = mix(*lane, sealed);
            }
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            let sealed = pass.xor_tail(padded(tail), tail.len());
            absorb_block(&mut pass.lanes, &sealed);
            for (d, s) in tail.iter_mut().zip(sealed) {
                *d = s;
            }
        }
        pass.tag(aad, data.len())
    }

    /// Verifies `sealed` (`ciphertext || tag`) against `aad` where it
    /// lies and appends the decrypted plaintext to `out`, in one pass: a
    /// receiver opens straight out of its receive buffer into one it
    /// reuses. On a bad tag what was appended is zeroed and `out` is
    /// truncated back to the length it had, so it holds what it held
    /// before the call.
    pub fn open_into(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        let Some(split) = sealed.len().checked_sub(TAG_SIZE) else {
            return Err(CryptoError::Truncated);
        };
        let (ciphertext, tag) = sealed.split_at(split);
        let start = out.len();
        out.reserve(ciphertext.len());
        let mut pass = Pass::new(self, nonce);
        let mut blocks = ciphertext.chunks_exact(BLOCK);
        for block in blocks.by_ref() {
            let mut plain = [0u8; BLOCK];
            let words = block.chunks_exact(8).zip(plain.chunks_exact_mut(8));
            for (lane, (word, dst)) in pass.lanes.iter_mut().zip(words) {
                let sealed = le_word(word);
                *lane = mix(*lane, sealed);
                dst.copy_from_slice(&(sealed ^ pass.keystream.next_u64()).to_le_bytes());
            }
            out.extend_from_slice(&plain);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let sealed = padded(tail);
            absorb_block(&mut pass.lanes, &sealed);
            let plain = pass.xor_tail(sealed, tail.len());
            if let Some(plain) = plain.get(..tail.len()) {
                out.extend_from_slice(plain);
            }
        }
        let expected = pass.tag(aad, ciphertext.len());
        // Branch-free comparison; constant-time in spirit.
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            if let Some(opened) = out.get_mut(start..) {
                opened.fill(0);
            }
            out.truncate(start);
            return Err(CryptoError::AuthenticationFailed);
        }
        Ok(())
    }

    /// Encrypts `plaintext`, authenticating it together with `aad`.
    /// Returns `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_SIZE);
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// Like [`Aead::seal`], but appends `ciphertext || tag` to `out`.
    pub fn seal_into(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8], out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(plaintext);
        let Some(data) = out.get_mut(start..) else {
            return;
        };
        let tag = self.seal_in_place(nonce, aad, data);
        out.extend_from_slice(&tag);
    }

    /// Verifies and decrypts `ciphertext || tag`. Returns the plaintext.
    pub fn open(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::with_capacity(sealed.len().saturating_sub(TAG_SIZE));
        self.open_into(nonce, aad, sealed, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpquic_util::check::{self, check, CASES};

    fn key(b: u8) -> Key {
        [b; 32]
    }

    #[test]
    fn seal_open_round_trip() {
        let aead = Aead::new(key(1));
        let nonce = [7u8; 12];
        let sealed = aead.seal(&nonce, b"header", b"secret payload");
        assert_eq!(sealed.len(), 14 + TAG_SIZE);
        let opened = aead.open(&nonce, b"header", &sealed).unwrap();
        assert_eq!(opened, b"secret payload");
    }

    #[test]
    fn wrong_key_fails() {
        let sealed = Aead::new(key(1)).seal(&[0; 12], b"", b"data");
        assert_eq!(
            Aead::new(key(2)).open(&[0; 12], b"", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn wrong_nonce_fails() {
        let aead = Aead::new(key(3));
        let sealed = aead.seal(&[1; 12], b"", b"data");
        assert_eq!(
            aead.open(&[2; 12], b"", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tampered_aad_fails() {
        let aead = Aead::new(key(4));
        let sealed = aead.seal(&[0; 12], b"header-v1", b"data");
        assert_eq!(
            aead.open(&[0; 12], b"header-v2", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn tampered_ciphertext_fails() {
        let aead = Aead::new(key(5));
        let mut sealed = aead.seal(&[0; 12], b"h", b"some data here");
        sealed[3] ^= 0x40;
        assert_eq!(
            aead.open(&[0; 12], b"h", &sealed),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn truncated_rejected() {
        let aead = Aead::new(key(6));
        assert_eq!(
            aead.open(&[0; 12], b"", &[1, 2, 3]),
            Err(CryptoError::Truncated)
        );
    }

    #[test]
    fn empty_plaintext_works() {
        let aead = Aead::new(key(7));
        let sealed = aead.seal(&[9; 12], b"hdr", b"");
        assert_eq!(sealed.len(), TAG_SIZE);
        assert_eq!(aead.open(&[9; 12], b"hdr", &sealed).unwrap(), b"");
    }

    #[test]
    fn nonce_reuse_leaks_keystream_relation() {
        // Demonstrates WHY the paper worries about nonce reuse across
        // paths: two plaintexts sealed under the same (key, nonce) XOR to
        // the XOR of the plaintexts — a classic two-time pad.
        let aead = Aead::new(key(8));
        let nonce = [5u8; 12];
        let c1 = aead.seal(&nonce, b"", b"AAAAAAAA");
        let c2 = aead.seal(&nonce, b"", b"BBBBBBBB");
        let xored: Vec<u8> = c1.iter().zip(&c2).take(8).map(|(a, b)| a ^ b).collect();
        let expected: Vec<u8> = b"AAAAAAAA"
            .iter()
            .zip(b"BBBBBBBB")
            .map(|(a, b)| a ^ b)
            .collect();
        assert_eq!(xored, expected);
    }

    /// The two-pass construction the single pass replaced, kept as its
    /// oracle: seal XORs the keystream in, then MACs the ciphertext; open
    /// MACs the ciphertext, then XORs it out of place, writing nothing
    /// unless the tag verifies.
    impl Aead {
        /// XORs the keystream for `nonce` into `data`, a generator word
        /// at a time (a trailing partial word takes the low bytes of one
        /// more word).
        fn keystream_xor(&self, nonce: &[u8; 12], data: &mut [u8]) {
            let mut rng = DetRng::new(nonce_seed(self.keystream_key, nonce));
            let mut words = data.chunks_exact_mut(8);
            for word in words.by_ref() {
                let mixed = le_word(word) ^ rng.next_u64();
                word.copy_from_slice(&mixed.to_le_bytes());
            }
            let tail = words.into_remainder();
            if !tail.is_empty() {
                for (d, k) in tail.iter_mut().zip(rng.next_u64().to_le_bytes()) {
                    *d ^= k;
                }
            }
        }

        fn mac(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_SIZE] {
            let seed = nonce_seed(self.mac_key, nonce);
            let mut lanes = LANE_SEEDS.map(|lane| seed ^ lane);
            let mut blocks = ciphertext.chunks_exact(BLOCK);
            for block in blocks.by_ref() {
                absorb_block(&mut lanes, block);
            }
            let tail = blocks.remainder();
            if !tail.is_empty() {
                let mut padded = [0u8; BLOCK];
                padded[..tail.len()].copy_from_slice(tail);
                absorb_block(&mut lanes, &padded);
            }
            let mut acc = seed;
            for word in aad.chunks(8) {
                acc = mix(acc, le_word(word));
            }
            acc = mix(acc, aad.len() as u64);
            for lane in lanes {
                acc = mix(acc, lane);
            }
            acc = mix(acc, ciphertext.len() as u64);
            avalanche(acc).to_le_bytes()
        }

        fn seal_two_pass(&self, nonce: &[u8; 12], aad: &[u8], data: &mut [u8]) -> [u8; TAG_SIZE] {
            self.keystream_xor(nonce, data);
            self.mac(nonce, aad, data)
        }

        fn open_two_pass(
            &self,
            nonce: &[u8; 12],
            aad: &[u8],
            sealed: &[u8],
            out: &mut Vec<u8>,
        ) -> Result<(), CryptoError> {
            let Some(split) = sealed.len().checked_sub(TAG_SIZE) else {
                return Err(CryptoError::Truncated);
            };
            let (ciphertext, tag) = sealed.split_at(split);
            if self.mac(nonce, aad, ciphertext) != tag {
                return Err(CryptoError::AuthenticationFailed);
            }
            let start = out.len();
            out.extend_from_slice(ciphertext);
            self.keystream_xor(nonce, &mut out[start..]);
            Ok(())
        }
    }

    /// The seed derivation as it ran per packet before the key half was
    /// cached in [`Aead::new`]; the oracle below seeds from it, so the
    /// keystream tests also hold the cached key schedule to it.
    fn stream_seed(key: &Key, nonce: &[u8; 12], domain: u64) -> u64 {
        let mut h = fnv1a(0xcbf2_9ce4_8422_2325 ^ domain, key);
        h = fnv1a(h, nonce);
        let mut z = h;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The original byte-at-a-time keystream XOR, kept verbatim as the
    /// compatibility oracle for the word-at-a-time rewrite.
    fn keystream_xor_bytewise(k: &Key, nonce: &[u8; 12], data: &mut [u8]) {
        let mut rng = mpquic_util::DetRng::new(stream_seed(k, nonce, 0x5EA1));
        let mut ks = [0u8; 64];
        for chunk in data.chunks_mut(64) {
            let ks = &mut ks[..chunk.len()];
            rng.fill_bytes(ks);
            for (d, k) in chunk.iter_mut().zip(ks.iter()) {
                *d ^= k;
            }
        }
    }

    #[test]
    fn word_xor_keystream_is_byte_exact_with_old_impl() {
        // Every length across several 64-byte chunk boundaries, including
        // the 1..7-byte tails the word loop leaves to the remainder path.
        let k = key(0x5A);
        let aead = Aead::new(k);
        let nonce = [0x42u8; 12];
        for len in 0..=200usize {
            let plain: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31)).collect();
            let mut via_new = plain.clone();
            aead.keystream_xor(&nonce, &mut via_new);
            let mut via_old = plain.clone();
            keystream_xor_bytewise(&k, &nonce, &mut via_old);
            assert_eq!(via_new, via_old, "keystream diverged at len {len}");
        }
    }

    #[test]
    fn sealed_wire_bytes_unchanged_by_word_xor() {
        // Pin actual wire output: ciphertexts sealed before the rewrite
        // must still open, i.e. seal(open(x)) is stable across lengths.
        let aead = Aead::new(key(9));
        let nonce = [3u8; 12];
        let plaintext: Vec<u8> = (0..130u8).collect();
        let sealed = aead.seal(&nonce, b"hdr", &plaintext);
        let mut expected = plaintext.clone();
        keystream_xor_bytewise(&key(9), &nonce, &mut expected);
        assert_eq!(&sealed[..plaintext.len()], &expected[..]);
        assert_eq!(aead.open(&nonce, b"hdr", &sealed).unwrap(), plaintext);
    }

    /// A full-size packet: 14-byte header as AAD, 1,200-byte payload.
    fn sealed_packet() -> (Aead, [u8; 12], Vec<u8>, Vec<u8>) {
        let aead = Aead::new(key(0xC3));
        let nonce = [0x17u8; 12];
        let aad: Vec<u8> = (0..14u8).map(|i| i.wrapping_mul(37) ^ 0x80).collect();
        let plaintext: Vec<u8> = (0..1200usize).map(|i| (i * 7 + i / 251) as u8).collect();
        let sealed = aead.seal(&nonce, &aad, &plaintext);
        assert_eq!(sealed.len(), 1200 + TAG_SIZE);
        (aead, nonce, aad, sealed)
    }

    const REJECTED: Result<Vec<u8>, CryptoError> = Err(CryptoError::AuthenticationFailed);

    /// Step of the exhaustive loops: every case natively, a sample under
    /// Miri's interpreter (CI), where exhaustive would take minutes.
    fn stride(under_miri: usize) -> usize {
        if cfg!(miri) {
            under_miri
        } else {
            1
        }
    }

    #[test]
    fn every_bit_flip_in_a_full_size_packet_is_rejected() {
        let (aead, nonce, aad, sealed) = sealed_packet();
        assert!(aead.open(&nonce, &aad, &sealed).is_ok());
        // Ciphertext and tag.
        let mut forged = sealed.clone();
        for bit in (0..sealed.len() * 8).step_by(stride(61)) {
            forged[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                aead.open(&nonce, &aad, &forged),
                REJECTED,
                "sealed bit {bit}"
            );
            forged[bit / 8] ^= 1 << (bit % 8);
        }
        // Associated data.
        let mut forged_aad = aad.clone();
        for bit in 0..aad.len() * 8 {
            forged_aad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                aead.open(&nonce, &forged_aad, &sealed),
                REJECTED,
                "aad bit {bit}"
            );
            forged_aad[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn swapped_words_are_rejected_within_and_across_lanes() {
        let (aead, nonce, aad, sealed) = sealed_packet();
        let words = (sealed.len() - TAG_SIZE) / 8;
        assert_eq!(words, 150);
        for a in 0..words {
            // Word a + LANES shares a's lane; the others in reach do not.
            for b in (a + 1..words).take(2 * LANES + 1).chain([words - 1]) {
                let (x, y) = (a * 8, b * 8);
                if a == b || sealed[x..x + 8] == sealed[y..y + 8] {
                    continue;
                }
                let mut forged = sealed.clone();
                for i in 0..8 {
                    forged.swap(x + i, y + i);
                }
                assert_eq!(
                    aead.open(&nonce, &aad, &forged),
                    REJECTED,
                    "words {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn zero_padding_and_truncation_are_rejected() {
        // The MAC pads the last block with zeros, so only the folded
        // length tells `c || 0…0` from `c`: try both directions at every
        // tail length, keeping the tag.
        let aead = Aead::new(key(0x2D));
        let nonce = [9u8; 12];
        for len in (0..=72usize).step_by(stride(7)) {
            // Plaintext equal to the keystream encrypts to zeros: make the
            // last `zeros` ciphertext bytes zero.
            let mut keystream = vec![0u8; len];
            aead.keystream_xor(&nonce, &mut keystream);
            for zeros in 0..=len.min(33) {
                let mut plaintext = vec![0x5Au8; len];
                plaintext[len - zeros..].copy_from_slice(&keystream[len - zeros..]);
                let sealed = aead.seal(&nonce, b"hdr", &plaintext);
                let (ciphertext, tag) = sealed.split_at(len);
                assert!(ciphertext[len - zeros..].iter().all(|&b| b == 0));
                for cut in 1..=zeros {
                    let forged = [&ciphertext[..len - cut], tag].concat();
                    assert_eq!(
                        aead.open(&nonce, b"hdr", &forged),
                        REJECTED,
                        "{len} bytes - {cut} zeros"
                    );
                }
                for extra in [1, 7, 8, 9, 31, 32, 33] {
                    let forged = [ciphertext, &vec![0u8; extra][..], tag].concat();
                    assert_eq!(
                        aead.open(&nonce, b"hdr", &forged),
                        REJECTED,
                        "{len} bytes + {extra} zeros"
                    );
                }
            }
        }
    }

    #[test]
    fn a_byte_moved_across_the_aad_boundary_is_rejected() {
        let (aead, nonce, aad, sealed) = sealed_packet();
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_SIZE);
        // Last AAD byte becomes the first ciphertext byte...
        let (short_aad, moved) = aad.split_at(aad.len() - 1);
        let forged = [moved, ciphertext, tag].concat();
        assert_eq!(aead.open(&nonce, short_aad, &forged), REJECTED);
        // ...and the first ciphertext byte becomes the last AAD byte.
        let long_aad = [&aad[..], &ciphertext[..1]].concat();
        let forged = [&ciphertext[1..], tag].concat();
        assert_eq!(aead.open(&nonce, &long_aad, &forged), REJECTED);
    }

    #[test]
    fn every_tail_length_round_trips_through_every_entry_point() {
        let aead = Aead::new(key(0x11));
        let nonce = [4u8; 12];
        for len in 0..=200usize {
            let plaintext: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(13)).collect();
            let sealed = aead.seal(&nonce, b"header", &plaintext);
            assert_eq!(sealed.len(), len + TAG_SIZE);
            assert_eq!(aead.open(&nonce, b"header", &sealed).unwrap(), plaintext);

            // The core agrees with the wrappers byte for byte, and
            // `open_into` appends behind what `out` already holds.
            let mut in_place = plaintext.clone();
            let tag = aead.seal_in_place(&nonce, b"header", &mut in_place);
            in_place.extend_from_slice(&tag);
            assert_eq!(in_place, sealed, "len {len}");
            let mut out = b"kept".to_vec();
            aead.open_into(&nonce, b"header", &sealed, &mut out)
                .unwrap();
            assert_eq!(out, [&b"kept"[..], &plaintext].concat(), "len {len}");

            // A rejected packet writes nothing.
            let mut forged = sealed.clone();
            forged[len] ^= 1;
            let mut out = b"kept".to_vec();
            assert!(aead
                .open_into(&nonce, b"header", &forged, &mut out)
                .is_err());
            assert_eq!(out, b"kept");
        }
    }

    #[test]
    fn golden_tag_is_pinned_as_bytes() {
        // One (key, nonce, aad, plaintext) → sealed vector, as bytes: the
        // words are little-endian by definition, so this must hold on a
        // big-endian target too (CI runs it under s390x).
        let k: Key = std::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = std::array::from_fn(|i| 0xA0 + i as u8);
        let aad = b"mpquic golden aad";
        let plaintext: Vec<u8> = (0..77u8).collect();
        let sealed = Aead::new(k).seal(&nonce, aad, &plaintext);
        assert_eq!(sealed[..8], GOLDEN_CIPHERTEXT_HEAD);
        assert_eq!(sealed[77..], GOLDEN_TAG);
    }

    const GOLDEN_CIPHERTEXT_HEAD: [u8; 8] = [0x9c, 0x25, 0x96, 0x0b, 0x98, 0x21, 0xd1, 0xcb];
    const GOLDEN_TAG: [u8; 8] = [0xe3, 0x53, 0x98, 0xd9, 0x8c, 0x2f, 0x16, 0x38];

    #[test]
    fn debug_does_not_print_key_material() {
        let aead = Aead::new(key(0xAB));
        let shown = format!("{aead:?} {:#?}", aead);
        assert!(shown.starts_with("Aead { key: .. }"), "{shown}");
        assert!(!shown.contains(|c: char| c.is_ascii_digit()), "{shown}");
    }

    fn key_and_nonce(rng: &mut DetRng) -> (Key, [u8; 12]) {
        let mut k = [0u8; 32];
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut k);
        rng.fill_bytes(&mut nonce);
        (k, nonce)
    }

    #[test]
    fn prop_word_xor_matches_bytewise() {
        let gen = |rng: &mut DetRng| (key_and_nonce(rng), check::bytes(rng, 0..300));
        check(0xAEAD_0001, CASES, gen, |((k, nonce), mut data)| {
            let mut oracle = data.clone();
            Aead::new(k).keystream_xor(&nonce, &mut data);
            keystream_xor_bytewise(&k, &nonce, &mut oracle);
            assert_eq!(data, oracle);
        });
    }

    #[test]
    fn prop_round_trip() {
        let gen = |rng: &mut DetRng| {
            let (k, nonce) = key_and_nonce(rng);
            (
                k,
                nonce,
                check::bytes(rng, 0..64),
                check::bytes(rng, 0..512),
            )
        };
        check(0xAEAD_0002, CASES, gen, |(k, nonce, aad, plaintext)| {
            let aead = Aead::new(k);
            let sealed = aead.seal(&nonce, &aad, &plaintext);
            assert_eq!(sealed.len(), plaintext.len() + TAG_SIZE);
            let opened = aead.open(&nonce, &aad, &sealed).unwrap();
            assert_eq!(opened, plaintext);
        });
    }

    #[test]
    fn prop_bit_flip_detected() {
        let gen = |rng: &mut DetRng| {
            let (k, _) = key_and_nonce(rng);
            (
                k,
                check::bytes(rng, 1..64),
                rng.index(64),
                rng.next_below(8),
            )
        };
        check(
            0xAEAD_0003,
            CASES,
            gen,
            |(k, plaintext, flip_byte, flip_bit)| {
                let aead = Aead::new(k);
                let mut sealed = aead.seal(&[0; 12], b"aad", &plaintext);
                let idx = flip_byte % sealed.len();
                sealed[idx] ^= 1 << flip_bit;
                assert_eq!(
                    aead.open(&[0; 12], b"aad", &sealed),
                    Err(CryptoError::AuthenticationFailed)
                );
            },
        );
    }

    #[test]
    fn prop_single_pass_is_the_two_pass_cipher() {
        let gen = |rng: &mut DetRng| {
            let (k, nonce) = key_and_nonce(rng);
            (
                k,
                nonce,
                check::bytes(rng, 0..64),
                check::bytes(rng, 1350..1351),
            )
        };
        check(0xAEAD_0004, 32, gen, |(k, nonce, aad, plaintext)| {
            let aead = Aead::new(k);
            for len in (0..=300).chain([1350]) {
                let plaintext = &plaintext[..len];
                let mut single = plaintext.to_vec();
                let tag = aead.seal_in_place(&nonce, &aad, &mut single);
                let mut oracle = plaintext.to_vec();
                assert_eq!(
                    tag,
                    aead.seal_two_pass(&nonce, &aad, &mut oracle),
                    "len {len}"
                );
                assert_eq!(single, oracle, "len {len}");

                single.extend_from_slice(&tag);
                let mut opened = b"kept".to_vec();
                let mut expected = b"kept".to_vec();
                assert_eq!(
                    aead.open_into(&nonce, &aad, &single, &mut opened),
                    aead.open_two_pass(&nonce, &aad, &single, &mut expected),
                );
                assert_eq!(opened, expected, "len {len}");

                // A forged packet: both reject it, and neither keeps a byte.
                if let Some(last) = single.last_mut() {
                    *last ^= 0x80;
                }
                let mut opened = b"kept".to_vec();
                let mut expected = b"kept".to_vec();
                assert_eq!(
                    aead.open_into(&nonce, &aad, &single, &mut opened),
                    aead.open_two_pass(&nonce, &aad, &single, &mut expected),
                );
                assert_eq!(opened, expected, "len {len}");
            }
        });
    }

    #[test]
    fn a_forged_packet_leaves_out_as_it_was() {
        let (aead, nonce, aad, sealed) = sealed_packet();
        let ciphertext_bit = 8 * 600 + 3;
        let tag_bit = 8 * (sealed.len() - TAG_SIZE) + 5;
        for held in [&b""[..], b"earlier plaintext"] {
            for bit in [ciphertext_bit, tag_bit] {
                let mut forged = sealed.clone();
                forged[bit / 8] ^= 1 << (bit % 8);
                let mut out = held.to_vec();
                assert_eq!(
                    aead.open_into(&nonce, &aad, &forged, &mut out),
                    Err(CryptoError::AuthenticationFailed),
                    "bit {bit}"
                );
                assert_eq!(out, held, "bit {bit}");
            }
            let mut forged_aad = aad.clone();
            forged_aad[5] ^= 0x10;
            let mut out = held.to_vec();
            assert_eq!(
                aead.open_into(&nonce, &forged_aad, &sealed, &mut out),
                Err(CryptoError::AuthenticationFailed)
            );
            assert_eq!(out, held);
            // The same `out` still takes a genuine packet behind what it
            // held.
            aead.open_into(&nonce, &aad, &sealed, &mut out).unwrap();
            assert_eq!(&out[..held.len()], held);
            assert_eq!(out.len(), held.len() + sealed.len() - TAG_SIZE);
        }
    }
}
