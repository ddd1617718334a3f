//! Privacy-CA certificates binding an AIK public key to a platform.
//!
//! In the TPM v1.2 deployment model the paper assumes, a platform's
//! Attestation Identity Key is vouched for by a privacy CA: the CA signs
//! a certificate over the AIK public key, and a remote verifier trusts a
//! quote only after walking that chain back to the CA root it was
//! provisioned with. [`AikCert`] is the minimal such certificate — a
//! platform identifier plus the serialized AIK public key, signed by the
//! CA — with a canonical byte encoding so verifiers can ingest it over
//! the wire.

use sea_crypto::{CryptoError, RsaPrivateKey, RsaPublicKey, Sha1, Sha1Digest, Signature};

/// Domain-separation tag mixed into every certificate digest.
const CERT_TAG: &[u8] = b"SEA_AIK_CERT_v1";

/// A privacy-CA certificate over one platform's AIK public key.
///
/// Certificates carry a validity bound (`not_after_ns`, virtual
/// nanoseconds): a verifier must refuse quotes chained to an expired
/// certificate even when its session-ticket cache would otherwise skip
/// the walk. `u64::MAX` means "never expires" — the posture of the
/// original, rotation-free fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AikCert {
    platform: u64,
    not_after_ns: u64,
    aik_bytes: Vec<u8>,
    signature: Signature,
}

impl AikCert {
    /// Issues a never-expiring certificate: the CA signs
    /// `SHA1(tag || platform || not_after || aik)`.
    ///
    /// # Panics
    ///
    /// Panics if the CA key is too small to sign a SHA-1 digest — a
    /// provisioning error, not a runtime condition.
    pub fn issue(ca: &RsaPrivateKey, platform: u64, aik: &RsaPublicKey) -> Self {
        Self::issue_expiring(ca, platform, aik, u64::MAX)
    }

    /// Issues a certificate valid through `not_after_ns` (inclusive).
    /// The expiry is bound into the signed digest, so it cannot be
    /// stripped or extended in transit.
    ///
    /// # Panics
    ///
    /// Panics if the CA key is too small to sign a SHA-1 digest — a
    /// provisioning error, not a runtime condition.
    pub fn issue_expiring(
        ca: &RsaPrivateKey,
        platform: u64,
        aik: &RsaPublicKey,
        not_after_ns: u64,
    ) -> Self {
        let aik_bytes = aik.to_bytes();
        let digest = Self::digest(platform, not_after_ns, &aik_bytes);
        let signature = ca
            .sign_pkcs1v15(&digest)
            .expect("privacy-CA key must be able to sign a SHA-1 digest");
        AikCert {
            platform,
            not_after_ns,
            aik_bytes,
            signature,
        }
    }

    /// The platform this certificate vouches for.
    pub fn platform(&self) -> u64 {
        self.platform
    }

    /// Whether the certificate is expired at `now_ns`.
    pub(crate) fn is_expired(&self, now_ns: u64) -> bool {
        now_ns > self.not_after_ns
    }

    /// Decodes the embedded AIK public key.
    ///
    /// # Errors
    ///
    /// Returns the decoding error if the embedded bytes are not a valid
    /// public-key encoding (possible for certificates parsed off the
    /// wire; `issue` always embeds a valid one).
    pub fn aik(&self) -> Result<RsaPublicKey, CryptoError> {
        RsaPublicKey::from_bytes(&self.aik_bytes)
    }

    /// Checks the CA signature over this certificate.
    pub fn verify(&self, ca: &RsaPublicKey) -> bool {
        let digest = Self::digest(self.platform, self.not_after_ns, &self.aik_bytes);
        ca.verify_pkcs1v15(&digest, &self.signature)
    }

    fn digest(platform: u64, not_after_ns: u64, aik_bytes: &[u8]) -> Sha1Digest {
        let mut h = Sha1::new();
        h.update_bytes(CERT_TAG);
        h.update_bytes(&platform.to_be_bytes());
        h.update_bytes(&not_after_ns.to_be_bytes());
        h.update_bytes(&(aik_bytes.len() as u32).to_be_bytes());
        h.update_bytes(aik_bytes);
        h.finalize_fixed()
    }

    /// Canonical encoding: platform (u64 BE), validity bound (u64 BE),
    /// then length-prefixed AIK bytes and signature bytes (u32 BE
    /// lengths).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.platform.to_be_bytes());
        out.extend_from_slice(&self.not_after_ns.to_be_bytes());
        for field in [&self.aik_bytes, &self.signature.0] {
            out.extend_from_slice(&(field.len() as u32).to_be_bytes());
            out.extend_from_slice(field);
        }
        out
    }

    /// Parses the canonical encoding, rejecting truncated input and
    /// trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidCiphertext`] on any structural
    /// defect; the signature itself is *not* checked here (use
    /// [`AikCert::verify`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        fn take<'a>(cursor: &mut &'a [u8], n: usize) -> Result<&'a [u8], CryptoError> {
            if cursor.len() < n {
                return Err(CryptoError::InvalidCiphertext);
            }
            let (head, rest) = cursor.split_at(n);
            *cursor = rest;
            Ok(head)
        }
        let mut cursor = bytes;
        let platform = u64::from_be_bytes(take(&mut cursor, 8)?.try_into().expect("eight bytes"));
        let not_after_ns =
            u64::from_be_bytes(take(&mut cursor, 8)?.try_into().expect("eight bytes"));
        let mut fields = Vec::with_capacity(2);
        for _ in 0..2 {
            let len =
                u32::from_be_bytes(take(&mut cursor, 4)?.try_into().expect("four bytes")) as usize;
            fields.push(take(&mut cursor, len)?.to_vec());
        }
        if !cursor.is_empty() {
            return Err(CryptoError::InvalidCiphertext);
        }
        let signature = Signature(fields.pop().expect("two fields"));
        let aik_bytes = fields.pop().expect("two fields");
        Ok(AikCert {
            platform,
            not_after_ns,
            aik_bytes,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_crypto::Drbg;

    fn keypair(seed: &[u8]) -> RsaPrivateKey {
        let mut rng = Drbg::new(seed);
        RsaPrivateKey::generate(512, &mut rng).expect("keygen")
    }

    #[test]
    fn issue_verify_roundtrip() {
        let ca = keypair(b"cert test ca");
        let aik = keypair(b"cert test aik");
        let cert = AikCert::issue(&ca, 42, aik.public_key());
        assert_eq!(cert.platform(), 42);
        assert!(cert.verify(ca.public_key()));
        assert_eq!(&cert.aik().expect("embedded key"), aik.public_key());

        let parsed = AikCert::from_bytes(&cert.to_bytes()).expect("parse");
        assert_eq!(parsed, cert);
        assert!(parsed.verify(ca.public_key()));
    }

    #[test]
    fn wrong_ca_and_tampered_fields_fail() {
        let ca = keypair(b"cert test ca");
        let other = keypair(b"cert test other ca");
        let aik = keypair(b"cert test aik");
        let cert = AikCert::issue(&ca, 7, aik.public_key());
        assert!(!cert.verify(other.public_key()));

        // Flipping any byte of the encoding must break verification or
        // parsing — the certificate binds every field it carries.
        let bytes = cert.to_bytes();
        for idx in [0, 8, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[idx] ^= 0x01;
            match AikCert::from_bytes(&bad) {
                Ok(parsed) => assert!(!parsed.verify(ca.public_key())),
                Err(e) => assert_eq!(e, CryptoError::InvalidCiphertext),
            }
        }
    }

    #[test]
    fn expiry_is_bound_into_the_signature() {
        let ca = keypair(b"cert test ca");
        let aik = keypair(b"cert test aik");
        let cert = AikCert::issue_expiring(&ca, 9, aik.public_key(), 1_000_000);
        assert_eq!(cert.not_after_ns, 1_000_000);
        assert!(!cert.is_expired(1_000_000), "bound is inclusive");
        assert!(cert.is_expired(1_000_001));
        assert!(cert.verify(ca.public_key()));

        // The bound survives the wire and cannot be extended: rewriting
        // the not_after field breaks the CA signature.
        let parsed = AikCert::from_bytes(&cert.to_bytes()).expect("parse");
        assert_eq!(parsed, cert);
        let mut stretched = cert.to_bytes();
        stretched[8..16].copy_from_slice(&u64::MAX.to_be_bytes());
        let forged = AikCert::from_bytes(&stretched).expect("structurally valid");
        assert_eq!(forged.not_after_ns, u64::MAX);
        assert!(!forged.verify(ca.public_key()));

        // Never-expiring issue() is the u64::MAX special case.
        assert_eq!(
            AikCert::issue(&ca, 9, aik.public_key()).not_after_ns,
            u64::MAX
        );
    }

    #[test]
    fn decoding_rejects_truncation_and_trailing_bytes() {
        let ca = keypair(b"cert test ca");
        let aik = keypair(b"cert test aik");
        let bytes = AikCert::issue(&ca, 1, aik.public_key()).to_bytes();
        for cut in [0, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(
                AikCert::from_bytes(&bytes[..cut]),
                Err(CryptoError::InvalidCiphertext),
                "cut at {cut}"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(
            AikCert::from_bytes(&padded),
            Err(CryptoError::InvalidCiphertext)
        );
    }
}
