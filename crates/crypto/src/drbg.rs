//! Deterministic random bit generator (HMAC-DRBG, after NIST SP 800-90A).
//!
//! The simulated TPM's `TPM_GetRandom` command and its key-generation paths
//! draw from this generator. Determinism is a feature: every experiment in
//! the reproduction is replayable from a seed.

use crate::hmac::Hmac;
use crate::sha256::Sha256;

/// A deterministic HMAC-SHA-256 DRBG.
///
/// # Example
///
/// ```
/// use sea_crypto::Drbg;
///
/// let mut a = Drbg::new(b"seed");
/// let mut b = Drbg::new(b"seed");
/// assert_eq!(a.fill(16), b.fill(16));
/// let mut c = Drbg::new(b"other seed");
/// assert_ne!(a.fill(16), c.fill(16));
/// ```
#[derive(Debug, Clone)]
pub struct Drbg {
    key: Vec<u8>,
    value: Vec<u8>,
}

impl Drbg {
    /// Instantiates the DRBG from arbitrary seed material.
    pub fn new(seed: &[u8]) -> Self {
        let mut drbg = Drbg {
            key: vec![0u8; 32],
            value: vec![1u8; 32],
        };
        drbg.update(Some(seed));
        drbg
    }

    fn update(&mut self, provided: Option<&[u8]>) {
        let mut h = Hmac::<Sha256>::new(&self.key);
        h.update(&self.value);
        h.update(&[0x00]);
        if let Some(p) = provided {
            h.update(p);
        }
        self.key = h.finalize();
        self.value = Hmac::<Sha256>::mac(&self.key, &self.value);

        if let Some(p) = provided {
            let mut h = Hmac::<Sha256>::new(&self.key);
            h.update(&self.value);
            h.update(&[0x01]);
            h.update(p);
            self.key = h.finalize();
            self.value = Hmac::<Sha256>::mac(&self.key, &self.value);
        }
    }

    /// Fills `out` with the next pseudo-random bytes.
    ///
    /// The key is fixed for the whole call, so HMAC is keyed once and
    /// cloned per 32-byte block: a block costs two SHA-256
    /// compressions, one inner and one outer.
    fn fill_bytes(&mut self, out: &mut [u8]) {
        let keyed = Hmac::<Sha256>::new(&self.key);
        for block in out.chunks_mut(self.value.len()) {
            let mut h = keyed.clone();
            h.update(&self.value);
            self.value = h.finalize();
            block.copy_from_slice(&self.value[..block.len()]);
        }
        self.update(None);
    }

    /// Returns the next `n` pseudo-random bytes as a vector.
    pub fn fill(&mut self, n: usize) -> Vec<u8> {
        let mut v = vec![0u8; n];
        self.fill_bytes(&mut v);
        v
    }

    /// Returns a uniformly pseudo-random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_be_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;

    #[test]
    fn output_stream_known_answer() {
        // Fill lengths on both sides of the 32-byte HMAC block, a
        // checkpoint-sized draw, and every other way the state advances
        // (including an update with empty material), folded into one
        // SHA-1 recorded from the SP 800-90A reference loop that re-keys
        // HMAC for every block.
        let mut rng = Drbg::new(b"known answer seed");
        let mut fold = Sha1::new();
        for (i, n) in [0usize, 1, 16, 31, 32, 33, 64, 100, 13_800]
            .into_iter()
            .enumerate()
        {
            fold.update_bytes(&rng.fill(n));
            match i % 4 {
                0 => rng.update(Some(&[i as u8; 5])),
                1 => fold.update_bytes(&rng.next_u64().to_be_bytes()),
                2 => fold.update_bytes(&(rng.next_u64() % (1000 + i as u64)).to_be_bytes()),
                _ => rng.update(Some(b"")),
            }
        }
        assert_eq!(
            crate::to_hex(&fold.finalize_fixed()),
            "bc35758705cb93874ed9bc014c3616765b21cbe6"
        );
    }

    #[test]
    fn deterministic_from_seed() {
        let mut a = Drbg::new(b"tpm seed");
        let mut b = Drbg::new(b"tpm seed");
        assert_eq!(a.fill(100), b.fill(100));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Drbg::new(b"seed-a");
        let mut b = Drbg::new(b"seed-b");
        assert_ne!(a.fill(32), b.fill(32));
    }

    #[test]
    fn successive_outputs_differ() {
        let mut a = Drbg::new(b"seed");
        let x = a.fill(32);
        let y = a.fill(32);
        assert_ne!(x, y);
    }

    #[test]
    fn fill_spans_multiple_hmac_blocks() {
        let mut a = Drbg::new(b"seed");
        let long = a.fill(100);
        assert_eq!(long.len(), 100);
        // Not all identical bytes (sanity of generator output).
        assert!(long.windows(2).any(|w| w[0] != w[1]));
    }
}
