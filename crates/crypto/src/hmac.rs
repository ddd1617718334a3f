//! HMAC (RFC 2104) generic over any [`Digest`].
//!
//! Used for sealed-blob integrity protection in the TPM model and as the
//! core primitive of the [`crate::Drbg`] deterministic random generator.

use crate::digest::Digest;

/// Incremental HMAC computation over digest `D`.
///
/// Keying absorbs the ipad and opad blocks once and keeps both
/// midstates, so a keyed instance can be cloned per message: each MAC
/// then costs only the compressions of its message and of the outer
/// hash over the inner digest: one each for a message under 56 bytes,
/// such as a DRBG block.
///
/// # Example
///
/// ```
/// use sea_crypto::{Hmac, Sha1};
///
/// let tag = Hmac::<Sha1>::mac(b"key", b"message");
/// let mut h = Hmac::<Sha1>::new(b"key");
/// h.update(b"mess");
/// h.update(b"age");
/// assert_eq!(h.finalize(), tag);
/// ```
#[derive(Debug, Clone)]
pub struct Hmac<D: Digest> {
    inner: D,
    outer: D,
}

impl<D: Digest> Hmac<D> {
    /// Creates an HMAC instance keyed with `key`.
    ///
    /// Keys longer than the digest block size are first hashed, per
    /// RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut pad = vec![0u8; D::BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            let hashed = D::digest_oneshot(key);
            pad[..hashed.len()].copy_from_slice(&hashed);
        } else {
            pad[..key.len()].copy_from_slice(key);
        }

        pad.iter_mut().for_each(|b| *b ^= 0x36);
        let mut inner = D::new();
        inner.update(&pad);
        pad.iter_mut().for_each(|b| *b ^= 0x36 ^ 0x5c);
        let mut outer = D::new();
        outer.update(&pad);
        Hmac { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Consumes the instance and returns the MAC tag
    /// (`D::OUTPUT_LEN` bytes).
    pub fn finalize(self) -> Vec<u8> {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// One-shot HMAC of `message` under `key`.
    pub fn mac(key: &[u8], message: &[u8]) -> Vec<u8> {
        let mut h = Hmac::<D>::new(key);
        h.update(message);
        h.finalize()
    }

    /// Consumes the instance and compares its tag with `tag`
    /// (length check plus full scan).
    ///
    /// The simulator does not model micro-architectural timing channels,
    /// but the full-scan comparison documents intent and avoids trivially
    /// short-circuiting comparisons in security-relevant paths.
    pub fn verify_tag(self, tag: &[u8]) -> bool {
        let expected = self.finalize();
        if expected.len() != tag.len() {
            return false;
        }
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag) {
            diff |= a ^ b;
        }
        diff == 0
    }

    /// Whether `tag` is the MAC of `message` under `key`, compared as
    /// [`Hmac::verify_tag`] does.
    pub fn verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        let mut h = Self::new(key);
        h.update(message);
        h.verify_tag(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::Sha1;
    use crate::sha256::Sha256;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc2202_sha1_test_case_1() {
        let key = [0x0b; 20];
        let tag = Hmac::<Sha1>::mac(&key, b"Hi There");
        assert_eq!(hex(&tag), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_sha1_test_case_2() {
        let tag = Hmac::<Sha1>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn rfc2202_sha1_long_key() {
        // Test case 6: 80-byte key (longer than the 64-byte block).
        let key = [0xaa; 80];
        let tag = Hmac::<Sha1>::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(hex(&tag), "aa4ae5e15272d00e95705637ce8a3b55ed402112");
    }

    #[test]
    fn rfc4231_sha256_test_case_1() {
        let key = [0x0b; 20];
        let tag = Hmac::<Sha256>::mac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_sha256_test_case_2() {
        let tag = Hmac::<Sha256>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_sha256_test_case_3() {
        // 20-byte 0xaa key, 50 bytes of 0xdd data.
        let tag = Hmac::<Sha256>::mac(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_sha256_large_key_and_data() {
        // Test case 7: 131-byte key, long message.
        let key = [0xaa; 131];
        let msg = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = Hmac::<Sha256>::mac(&key, msg);
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let tag = Hmac::<Sha256>::mac(b"k", b"hello world");
        let mut h = Hmac::<Sha256>::new(b"k");
        h.update(b"hello");
        h.update(b" ");
        h.update(b"world");
        assert_eq!(h.finalize(), tag);
    }

    /// Tags under every key-length regime (empty, short, exactly one
    /// block, one byte past a block so the key is hashed first, long)
    /// over messages around the inner block boundary, fed whole, split,
    /// and through a clone of one keyed instance, folded into one SHA-1.
    fn known_answer_fold<D: Digest>() -> String {
        let mut fold = Sha1::new();
        for key_len in [0usize, 20, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 13 + 5) as u8).collect();
            let keyed = Hmac::<D>::new(&key);
            for msg_len in [0usize, 1, 55, 64, 65, 200] {
                let msg: Vec<u8> = (0..msg_len).map(|i| (i * 7 + 1) as u8).collect();
                let tag = Hmac::<D>::mac(&key, &msg);
                let (head, tail) = msg.split_at(msg_len / 2);
                let mut split = keyed.clone();
                split.update(head);
                split.update(tail);
                assert_eq!(split.finalize(), tag, "key {key_len} msg {msg_len}");
                fold.update_bytes(&tag);
            }
        }
        hex(&fold.finalize_fixed())
    }

    #[test]
    fn hmac_sha1_key_lengths_known_answer() {
        assert_eq!(
            known_answer_fold::<Sha1>(),
            "42c7d9bd606b3682f118fff3ae2cd3146ed98e20"
        );
    }

    #[test]
    fn hmac_sha256_key_lengths_known_answer() {
        assert_eq!(
            known_answer_fold::<Sha256>(),
            "7620b3d377a0e8dc8d33c96e32809292792f085a"
        );
    }

    #[test]
    fn verify_accepts_good_and_rejects_bad() {
        let tag = Hmac::<Sha1>::mac(b"k", b"m");
        assert!(Hmac::<Sha1>::verify(b"k", b"m", &tag));
        let mut bad = tag.clone();
        bad[0] ^= 1;
        assert!(!Hmac::<Sha1>::verify(b"k", b"m", &bad));
        assert!(!Hmac::<Sha1>::verify(b"k", b"m", &tag[..19]));
        assert!(!Hmac::<Sha1>::verify(b"other", b"m", &tag));
    }
}
