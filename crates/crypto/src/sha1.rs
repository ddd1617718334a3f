//! SHA-1 as specified by RFC 3174 (reference \[12\] of the paper).
//!
//! The TPM v1.2 specification uses SHA-1 for every PCR extension
//! (`v_{t+1} <- H(v_t || m)`) and for the measurement of the Secure Loader
//! Block during `SKINIT`/`SENTER`. This module is a complete, incremental
//! implementation validated against the RFC 3174 / FIPS 180 test vectors.

use crate::digest::Digest;

/// Length in bytes of a SHA-1 digest.
pub const SHA1_DIGEST_LEN: usize = 20;

const BLOCK_LEN: usize = 64;

/// Incremental SHA-1 hasher.
///
/// # Example
///
/// ```
/// use sea_crypto::Sha1;
///
/// let d = Sha1::digest(b"abc");
/// assert_eq!(
///     d,
///     [
///         0xa9, 0x99, 0x3e, 0x36, 0x47, 0x06, 0x81, 0x6a, 0xba, 0x3e,
///         0x25, 0x71, 0x78, 0x50, 0xc2, 0x6c, 0x9c, 0xd0, 0xd8, 0x9d,
///     ]
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes (SHA-1 limits to 2^64 bits; a u64 byte
    /// count is more than sufficient for simulation workloads).
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a hasher in the RFC 3174 initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// One-shot SHA-1 of `data`, returning the fixed-size digest array.
    pub fn digest(data: &[u8]) -> [u8; SHA1_DIGEST_LEN] {
        let mut h = Sha1::new();
        h.update_bytes(data);
        h.finalize_fixed()
    }

    /// Absorbs `data` into the hash state.
    pub fn update_bytes(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while input.len() >= BLOCK_LEN {
            let (block, rest) = input.split_at(BLOCK_LEN);
            let mut b = [0u8; BLOCK_LEN];
            b.copy_from_slice(block);
            self.compress(&b);
            input = rest;
        }
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
    }

    /// Consumes the hasher, returning the digest as a fixed-size array.
    pub fn finalize_fixed(mut self) -> [u8; SHA1_DIGEST_LEN] {
        // The 0x80 terminator and zero padding, then the 64-bit bit
        // length in the last 8 bytes, spilling into a second block when
        // fewer than 9 bytes of this one are free.
        let bit_len = self.len.wrapping_mul(8);
        let used = self.buf_len;
        self.buf[used] = 0x80;
        self.buf[used + 1..].fill(0);
        if used >= BLOCK_LEN - 8 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0u8; BLOCK_LEN];
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; SHA1_DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let temp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = temp;
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

impl Digest for Sha1 {
    const OUTPUT_LEN: usize = SHA1_DIGEST_LEN;
    const BLOCK_LEN: usize = BLOCK_LEN;

    fn new() -> Self {
        Sha1::new()
    }

    fn update(&mut self, data: &[u8]) {
        self.update_bytes(data);
    }

    fn finalize(self) -> Vec<u8> {
        self.finalize_fixed().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc3174_test_vector_abc() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn rfc3174_test_vector_two_blocks() {
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn rfc3174_test_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha1::digest(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn padding_boundary_lengths_are_consistent() {
        // Message lengths straddling the 55/56-byte padding boundary
        // (where the length word no longer fits the current block) must
        // agree between incremental and one-shot computation, and all
        // differ from each other.
        let mut digests = Vec::new();
        for len in [54usize, 55, 56, 57, 63, 64, 65] {
            let data = vec![0x80u8; len];
            let mut h = Sha1::new();
            for b in &data {
                h.update_bytes(&[*b]);
            }
            let inc = h.finalize_fixed();
            assert_eq!(inc, Sha1::digest(&data), "len {len}");
            digests.push(inc);
        }
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j]);
            }
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_block_boundaries() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 128, 999, 1000] {
            let mut h = Sha1::new();
            h.update_bytes(&data[..split]);
            h.update_bytes(&data[split..]);
            assert_eq!(h.finalize_fixed(), Sha1::digest(&data), "split {split}");
        }
    }

    #[test]
    fn byte_at_a_time_matches_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Sha1::new();
        for b in data {
            h.update_bytes(&[*b]);
        }
        assert_eq!(h.finalize_fixed(), Sha1::digest(data));
    }

    #[test]
    fn every_padding_length_known_answer() {
        // Lengths 0..=130 put the 0x80 terminator and the length word at
        // every offset of one- and two-block finals. Each message is fed
        // whole and one byte at a time; the digests are folded into one
        // value recorded from the byte-at-a-time padding this hasher
        // first shipped with.
        let data: Vec<u8> = (0..=130u32).map(|i| (i * 37 + 11) as u8).collect();
        let mut fold = Sha1::new();
        for len in 0..=130 {
            let whole = Sha1::digest(&data[..len]);
            let mut h = Sha1::new();
            for b in &data[..len] {
                h.update_bytes(&[*b]);
            }
            assert_eq!(h.finalize_fixed(), whole, "len {len}");
            fold.update_bytes(&whole);
        }
        assert_eq!(
            hex(&fold.finalize_fixed()),
            "e692b3bd0a527de7772c57da8e1b06fc2894026c"
        );
    }

    #[test]
    fn digest_trait_agrees_with_inherent_api() {
        let via_trait = <Sha1 as Digest>::digest_oneshot(b"xyz");
        assert_eq!(via_trait.as_slice(), Sha1::digest(b"xyz").as_slice());
    }
}
