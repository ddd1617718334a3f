//! Wire protocol of the certificate-authority PAL (§4.1).
//!
//! "We also use the architecture to protect the confidentiality of a
//! certificate authority's private signing key." The CA keypair is
//! generated *inside* a protected session, its private half is sealed to
//! the PAL's measurement, and signing happens inside later sessions —
//! the private key never exists in memory the OS can read.
//!
//! This is the paper's canonical PAL-Gen / PAL-Use pair: `Generate` is
//! the Gen session (ends with a Seal), `Sign` is the Use session (starts
//! with an Unseal; "this example would not require a subsequent seal,
//! since the unsealed key could simply be erased", §4.1).
//!
//! The executed-bytecode PAL [`crate::vm::vm_ca`] speaks this protocol.

use sea_crypto::{RsaPublicKey, Sha1, Signature};

/// A request to the CA PAL, encoded into the session input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaRequest {
    /// Generate the CA keypair; output is the encoded public key.
    Generate,
    /// Sign a certificate-signing request (arbitrary bytes); output is
    /// the signature.
    Sign(Vec<u8>),
}

impl CaRequest {
    /// Wire encoding passed as PAL input.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            CaRequest::Generate => vec![0x00],
            CaRequest::Sign(csr) => {
                let mut v = vec![0x01];
                v.extend_from_slice(csr);
                v
            }
        }
    }
}

/// Decodes a public key produced by a `Generate` session: the
/// [`RsaPublicKey::to_bytes`] encoding, so `None` for truncated fields,
/// trailing bytes, or a zero modulus or exponent.
pub fn decode_public_key(bytes: &[u8]) -> Option<RsaPublicKey> {
    RsaPublicKey::from_bytes(bytes).ok()
}

/// RSA modulus size for CA keys. 512 bits keeps simulated sessions fast;
/// the virtual-time cost of the Seal/Unseal is what the paper measures
/// and comes from the TPM timing model regardless.
pub(crate) const CA_KEY_BITS: usize = 512;

/// Verifies a CA signature produced by a `Sign` session.
pub fn verify_ca_signature(public: &RsaPublicKey, csr: &[u8], signature: &[u8]) -> bool {
    public.verify_pkcs1v15(&Sha1::digest(csr), &Signature(signature.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_crypto::{Drbg, RsaPrivateKey};

    #[test]
    fn public_key_encoding_roundtrip() {
        let key = RsaPrivateKey::generate(512, &mut Drbg::new(b"pk")).unwrap();
        let enc = key.public_key().to_bytes();
        assert_eq!(&decode_public_key(&enc).unwrap(), key.public_key());
        assert!(decode_public_key(b"junk").is_none());

        // Only the canonical encoding decodes: no trailing byte, and no
        // zero-valued (or empty) modulus or exponent field.
        let mut trailing = enc.clone();
        trailing.push(0);
        assert!(decode_public_key(&trailing).is_none(), "trailing byte");
        let (n_field, e_field) = enc.split_at(4 + key.public_key().modulus_len());
        for zero in [&[0, 0, 0, 1, 0][..], &[0, 0, 0, 0][..]] {
            assert!(decode_public_key(&[zero, e_field].concat()).is_none());
            assert!(decode_public_key(&[n_field, zero].concat()).is_none());
        }
    }
}
