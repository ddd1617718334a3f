//! TPM attestation: `TPM_Quote` structures and verification.
//!
//! §2.1.1: a quote is "essentially a digital signature on the current
//! platform state" under an Attestation Identity Key. The external
//! verifier checks the AIK signature, recomputes the PCR composite, and
//! decides whether the reported values correspond to a genuine late
//! launch of the expected PAL.

use sea_crypto::{RsaPrivateKey, RsaPublicKey, Sha1, Sha1Digest, Signature};

use crate::error::TpmError;
use crate::pcr::{PcrIndex, PcrValue};

/// What a quote reports: ordinary PCRs or a secure-execution PCR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuoteSource {
    /// A selection of ordinary PCRs with their values at quote time.
    Pcrs {
        /// The quoted PCR indices.
        selection: Vec<PcrIndex>,
        /// The corresponding values, in selection order.
        values: Vec<PcrValue>,
    },
    /// A secure-execution PCR (proposed hardware, §5.4.3). The handle is
    /// deliberately *not* part of the signed state: the identity of a PAL
    /// is its measurement chain, not which slot it happened to occupy.
    SePcr {
        /// The sePCR value at quote time.
        value: PcrValue,
    },
}

impl QuoteSource {
    /// Decodes the canonical encoding produced by `encode`.
    fn decode(bytes: &[u8]) -> Result<Self, TpmError> {
        match bytes.split_first() {
            Some((0x00, rest)) => {
                let n = *rest.first().ok_or(TpmError::InvalidBlob)? as usize;
                let mut selection = Vec::with_capacity(n);
                let mut values = Vec::with_capacity(n);
                let mut cursor = &rest[1..];
                for _ in 0..n {
                    if cursor.len() < 21 {
                        return Err(TpmError::InvalidBlob);
                    }
                    selection.push(PcrIndex(cursor[0]));
                    let digest: [u8; 20] = cursor[1..21].try_into().expect("20 bytes");
                    values.push(PcrValue(digest));
                    cursor = &cursor[21..];
                }
                if !cursor.is_empty() {
                    return Err(TpmError::InvalidBlob);
                }
                Ok(QuoteSource::Pcrs { selection, values })
            }
            Some((0x01, rest)) => {
                let digest: [u8; 20] = rest.try_into().map_err(|_| TpmError::InvalidBlob)?;
                Ok(QuoteSource::SePcr {
                    value: PcrValue(digest),
                })
            }
            _ => Err(TpmError::InvalidBlob),
        }
    }

    /// Canonical byte encoding covered by the quote signature.
    fn encode(&self) -> Vec<u8> {
        match self {
            QuoteSource::Pcrs { selection, values } => {
                let n =
                    u8::try_from(selection.len()).expect("Tpm::quote bounds the selection length");
                let mut out = vec![0x00, n];
                for (idx, val) in selection.iter().zip(values) {
                    out.push(idx.0);
                    out.extend_from_slice(val.as_bytes());
                }
                out
            }
            QuoteSource::SePcr { value } => {
                let mut out = vec![0x01];
                out.extend_from_slice(value.as_bytes());
                out
            }
        }
    }
}

/// A signed attestation of platform state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    source: QuoteSource,
    nonce: Vec<u8>,
    signature: Signature,
}

const QUOTE_TAG: &[u8] = b"TPM_QUOTE_v1";

/// Magic prefix of the canonical quote wire format.
pub const WIRE_QUOTE_MAGIC: [u8; 4] = *b"SEAQ";

/// Version of the canonical quote wire format. Bump on any change to
/// the field order or framing; a verifier must reject versions it does
/// not understand rather than guess.
pub const WIRE_QUOTE_VERSION: u16 = 2;

/// The digest an AIK signs for a quote.
pub(crate) fn quote_digest(source: &QuoteSource, nonce: &[u8]) -> Sha1Digest {
    let mut h = Sha1::new();
    h.update_bytes(QUOTE_TAG);
    h.update_bytes(&source.encode());
    h.update_bytes(&(nonce.len() as u32).to_be_bytes());
    h.update_bytes(nonce);
    h.finalize_fixed()
}

impl Quote {
    /// Assembles a quote from its parts (called by the TPM).
    pub(crate) fn new(source: QuoteSource, nonce: Vec<u8>, signature: Signature) -> Self {
        Quote {
            source,
            nonce,
            signature,
        }
    }

    /// The reported platform state.
    pub fn source(&self) -> &QuoteSource {
        &self.source
    }

    /// The verifier-supplied anti-replay nonce.
    pub fn nonce(&self) -> &[u8] {
        &self.nonce
    }

    /// The raw AIK signature.
    pub fn signature(&self) -> &Signature {
        &self.signature
    }

    /// Verifies the AIK signature over the reported state and nonce.
    ///
    /// This is only the *cryptographic* check; deciding whether the
    /// reported values correspond to a trusted PAL is the verifier's
    /// policy (see `sea-core`'s `Verifier`).
    pub fn verify_signature(&self, aik: &RsaPublicKey) -> bool {
        let digest = quote_digest(&self.source, &self.nonce);
        aik.verify_pkcs1v15(&digest, &self.signature)
    }

    /// Re-issues this quote over a fresh verifier nonce — the
    /// platform-side retry path. The reported state is unchanged (the
    /// sePCR value is whatever the session left it at); only the
    /// anti-replay nonce and the signature differ, so a verifier whose
    /// nonces are single-use can be answered again without replaying a
    /// consumed challenge. The caller supplies the signing AIK, which
    /// after a certificate rotation may be a newer generation than the
    /// one that signed the original quote.
    ///
    /// # Errors
    ///
    /// [`TpmError::InvalidBlob`] if the AIK is too small to sign a
    /// SHA-1 digest.
    pub fn reissue(&self, nonce: &[u8], aik: &RsaPrivateKey) -> Result<Quote, TpmError> {
        let nonce = nonce.to_vec();
        let signature = aik
            .sign_pkcs1v15(&quote_digest(&self.source, &nonce))
            .map_err(|_| TpmError::InvalidBlob)?;
        Ok(Quote {
            source: self.source.clone(),
            nonce,
            signature,
        })
    }

    /// Serializes the quote into the canonical wire format: what
    /// crosses the wire to a remote verifier. Layout (all lengths
    /// big-endian):
    ///
    /// ```text
    /// [0..4)   magic  "SEAQ"                      (WIRE_QUOTE_MAGIC)
    /// [4..6)   format version, u16                (WIRE_QUOTE_VERSION)
    /// then 3 length-prefixed fields, in this order:
    ///   u32 len ‖ source encoding   (tagged: 0x00 PCR selection, 0x01 sePCR)
    ///   u32 len ‖ nonce
    ///   u32 len ‖ AIK signature
    /// ```
    ///
    /// Trailing bytes after the last field are a framing error.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = WIRE_QUOTE_MAGIC.to_vec();
        out.extend_from_slice(&WIRE_QUOTE_VERSION.to_be_bytes());
        let src = self.source.encode();
        for part in [&src[..], &self.nonce, &self.signature.0] {
            out.extend_from_slice(&(part.len() as u32).to_be_bytes());
            out.extend_from_slice(part);
        }
        out
    }

    /// Deserializes a quote written by [`Quote::to_bytes`]. Structural
    /// validity only — authenticity comes from
    /// [`Quote::verify_signature`].
    ///
    /// # Errors
    ///
    /// [`TpmError::InvalidBlob`] for malformed input: wrong magic, an
    /// unsupported format version, a truncated field, trailing bytes,
    /// or an undecodable source encoding.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TpmError> {
        let rest = bytes
            .strip_prefix(&WIRE_QUOTE_MAGIC[..])
            .ok_or(TpmError::InvalidBlob)?;
        if rest.len() < 2 {
            return Err(TpmError::InvalidBlob);
        }
        let version = u16::from_be_bytes(rest[..2].try_into().expect("2 bytes"));
        if version != WIRE_QUOTE_VERSION {
            return Err(TpmError::InvalidBlob);
        }
        let mut cursor = &rest[2..];
        let mut next = || -> Result<Vec<u8>, TpmError> {
            if cursor.len() < 4 {
                return Err(TpmError::InvalidBlob);
            }
            let len = u32::from_be_bytes(cursor[..4].try_into().expect("4 bytes")) as usize;
            cursor = &cursor[4..];
            if cursor.len() < len {
                return Err(TpmError::InvalidBlob);
            }
            let part = cursor[..len].to_vec();
            cursor = &cursor[len..];
            Ok(part)
        };
        let src = next()?;
        let nonce = next()?;
        let signature = Signature(next()?);
        if !cursor.is_empty() {
            return Err(TpmError::InvalidBlob);
        }
        let source = QuoteSource::decode(&src)?;
        Ok(Quote {
            source,
            nonce,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_crypto::{Drbg, RsaPrivateKey};

    fn aik() -> RsaPrivateKey {
        RsaPrivateKey::generate(512, &mut Drbg::new(b"test aik")).unwrap()
    }

    fn sample_source() -> QuoteSource {
        QuoteSource::Pcrs {
            selection: vec![PcrIndex(17)],
            values: vec![PcrValue::ZERO],
        }
    }

    fn signed(aik: &RsaPrivateKey, source: QuoteSource, nonce: &[u8]) -> Quote {
        let digest = quote_digest(&source, nonce);
        let sig = aik.sign_pkcs1v15(&digest).unwrap();
        Quote::new(source, nonce.to_vec(), sig)
    }

    #[test]
    fn valid_quote_verifies() {
        let key = aik();
        let q = signed(&key, sample_source(), b"nonce-1");
        assert!(q.verify_signature(key.public_key()));
        assert_eq!(q.nonce(), b"nonce-1");
    }

    #[test]
    fn reissue_carries_state_under_a_fresh_nonce() {
        let key = aik();
        let q = signed(&key, sample_source(), b"nonce-1");
        let again = q.reissue(b"nonce-2", &key).expect("reissue");
        assert_eq!(again.source(), q.source());
        assert_eq!(again.nonce(), b"nonce-2");
        assert!(again.verify_signature(key.public_key()));
        // A different signing key produces a quote the original AIK
        // no longer verifies — the rotation case.
        let rotated = RsaPrivateKey::generate(512, &mut Drbg::new(b"rotated")).unwrap();
        let under_new_key = q.reissue(b"nonce-3", &rotated).expect("reissue");
        assert!(!under_new_key.verify_signature(key.public_key()));
        assert!(under_new_key.verify_signature(rotated.public_key()));
        // The wire roundtrip is unchanged.
        let parsed = Quote::from_bytes(&again.to_bytes()).expect("roundtrip");
        assert_eq!(parsed, again);
    }

    #[test]
    fn wrong_aik_rejected() {
        let key = aik();
        let other = RsaPrivateKey::generate(512, &mut Drbg::new(b"other")).unwrap();
        let q = signed(&key, sample_source(), b"nonce-1");
        assert!(!q.verify_signature(other.public_key()));
    }

    #[test]
    fn tampered_nonce_rejected() {
        let key = aik();
        let mut q = signed(&key, sample_source(), b"nonce-1");
        q.nonce = b"nonce-2".to_vec();
        assert!(!q.verify_signature(key.public_key()));
    }

    #[test]
    fn tampered_values_rejected() {
        let key = aik();
        let mut q = signed(&key, sample_source(), b"nonce-1");
        if let QuoteSource::Pcrs { values, .. } = &mut q.source {
            values[0] = PcrValue::MINUS_ONE;
        }
        assert!(!q.verify_signature(key.public_key()));
    }

    #[test]
    fn serialization_roundtrip_preserves_verifiability() {
        let key = aik();
        for source in [
            sample_source(),
            QuoteSource::SePcr {
                value: PcrValue::MINUS_ONE,
            },
            QuoteSource::Pcrs {
                selection: vec![PcrIndex(17), PcrIndex(18)],
                values: vec![PcrValue::ZERO, PcrValue::MINUS_ONE],
            },
        ] {
            let q = signed(&key, source, b"wire-nonce");
            let bytes = q.to_bytes();
            let back = Quote::from_bytes(&bytes).unwrap();
            assert_eq!(back, q);
            assert!(back.verify_signature(key.public_key()));
        }
    }

    #[test]
    fn deserialization_rejects_malformed_input() {
        assert!(Quote::from_bytes(b"").is_err());
        assert!(Quote::from_bytes(b"SEAQ").is_err());
        assert!(Quote::from_bytes(b"NOPEv1xxxx").is_err());
        let key = aik();
        let bytes = signed(&key, sample_source(), b"n").to_bytes();
        for cut in [5, bytes.len() / 2, bytes.len() - 1] {
            assert!(Quote::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing bytes are a framing error, not silently ignored.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(Quote::from_bytes(&padded).is_err());
        // A wire-tampered quote still parses (structure intact) but the
        // signature no longer verifies.
        let mut tampered = bytes.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 1;
        let parsed = Quote::from_bytes(&tampered).unwrap();
        assert!(!parsed.verify_signature(key.public_key()));
    }

    #[test]
    fn wire_format_has_versioned_header() {
        let key = aik();
        let q = signed(&key, sample_source(), b"n");
        let wire = q.to_bytes();
        assert_eq!(&wire[..4], b"SEAQ");
        assert_eq!(
            u16::from_be_bytes(wire[4..6].try_into().unwrap()),
            WIRE_QUOTE_VERSION
        );
        assert_eq!(Quote::from_bytes(&wire).unwrap(), q);
        // An unknown version is rejected outright, even with an intact
        // body: the verifier must not guess at framing.
        let mut future = wire;
        future[5] = 0x63;
        assert_eq!(
            Quote::from_bytes(&future).unwrap_err(),
            TpmError::InvalidBlob
        );
    }

    #[test]
    fn sepcr_and_pcr_sources_are_domain_separated() {
        // A PCR-source quote cannot be reinterpreted as a sePCR quote of
        // the same bytes: the encodings carry distinct tags.
        let a = QuoteSource::Pcrs {
            selection: vec![PcrIndex(0)],
            values: vec![PcrValue::ZERO],
        };
        let b = QuoteSource::SePcr {
            value: PcrValue::ZERO,
        };
        assert_ne!(quote_digest(&a, b"n"), quote_digest(&b, b"n"));
    }

    #[test]
    fn nonce_length_is_bound() {
        // Shifting bytes between nonce and state must change the digest.
        let s = QuoteSource::SePcr {
            value: PcrValue::ZERO,
        };
        assert_ne!(quote_digest(&s, b"ab"), quote_digest(&s, b"a"));
    }
}
