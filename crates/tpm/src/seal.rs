//! TPM sealed storage: the construction behind `TPM_Seal`/`TPM_Unseal`.
//!
//! §2.1.2 of the paper: "data can be encrypted using an asymmetric key
//! whose private component never leaves the TPM ... The TPM will only
//! unseal (decrypt) the data when the PCRs contain the same values
//! specified by the seal command."
//!
//! The model uses the standard hybrid construction real TPM stacks use:
//! a fresh symmetric key is RSA-OAEP-encrypted under the Storage Root Key
//! and the payload is stream-encrypted and MACed under keys derived from
//! it. The PCR *composite digest* at seal time is bound into the MAC, and
//! `TPM_Unseal` recomputes the composite from the live PCR bank before
//! releasing the plaintext.

use sea_crypto::{
    CryptoError, Drbg, Hmac, OaepLabel, RsaPrivateKey, RsaPublicKey, Sha1Digest, Sha256,
};

use crate::error::TpmError;
use crate::pcr::PcrIndex;

/// Length of the per-blob symmetric key. Sized to fit the OAEP capacity
/// of even the demo 512-bit SRK (`k − 2·hLen − 2 = 22` bytes).
const SYM_KEY_LEN: usize = 16;

/// The most PCR indices a sealed blob or a quote can record: both
/// selection encodings count them in one byte.
pub(crate) const MAX_SELECTION_LEN: usize = u8::MAX as usize;

/// What a sealed blob is bound to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SealSelection {
    /// Bound to a selection of ordinary PCRs.
    Pcrs(Vec<PcrIndex>),
    /// Bound to the sealing PAL's secure-execution PCR (§5.4.4): the blob
    /// records the *measurement-derived value*, not the handle, so the
    /// PAL can unseal under a different handle on its next execution.
    SePcr,
}

impl SealSelection {
    fn encode(&self) -> Vec<u8> {
        match self {
            SealSelection::Pcrs(idx) => {
                let n = u8::try_from(idx.len()).expect("Tpm::seal bounds the selection length");
                let mut out = vec![0x00, n];
                out.extend(idx.iter().map(|i| i.0));
                out
            }
            SealSelection::SePcr => vec![0x01],
        }
    }
}

/// An opaque blob produced by `TPM_Seal`.
///
/// The blob is bound to (a) the sealing TPM's SRK, (b) the PCR composite
/// at seal time, and (c) the seal "label" distinguishing ordinary from
/// sePCR-bound blobs. Any mismatch at unseal time yields
/// [`TpmError::WrongPcrState`] or [`TpmError::InvalidBlob`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    pub(crate) selection: SealSelection,
    pub(crate) composite: Sha1Digest,
    pub(crate) enc_key: Vec<u8>,
    pub(crate) ciphertext: Vec<u8>,
    pub(crate) mac: Vec<u8>,
}

impl SealedBlob {
    /// Size of the blob in bytes (for trace/bench reporting).
    pub fn byte_len(&self) -> usize {
        self.selection.encode().len()
            + self.composite.len()
            + self.enc_key.len()
            + self.ciphertext.len()
            + self.mac.len()
    }

    /// Whether this blob is bound to a sePCR rather than ordinary PCRs.
    pub fn is_sepcr_bound(&self) -> bool {
        self.selection == SealSelection::SePcr
    }

    /// The PCR indices this blob is bound to (empty for sePCR blobs).
    pub fn pcr_selection(&self) -> &[PcrIndex] {
        match &self.selection {
            SealSelection::Pcrs(v) => v,
            SealSelection::SePcr => &[],
        }
    }

    /// Serializes the blob for storage by the untrusted OS (disk,
    /// network, …). The format is length-prefixed and versioned; any
    /// mutation is caught either here or by the unseal-time MAC.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = b"SEALv1".to_vec();
        let sel = self.selection.encode();
        for part in [
            &sel[..],
            &self.composite[..],
            &self.enc_key,
            &self.ciphertext,
            &self.mac,
        ] {
            out.extend_from_slice(&(part.len() as u32).to_be_bytes());
            out.extend_from_slice(part);
        }
        out
    }

    /// Deserializes a blob written by [`SealedBlob::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`TpmError::InvalidBlob`] for malformed input: wrong magic, a
    /// truncated field, trailing bytes, or a selection whose length
    /// disagrees with its index count. Only the canonical encoding
    /// parses, so a parsed blob re-serializes to the input bytes.
    /// (Structural validity does not imply authenticity — that is the
    /// unseal-time MAC's job.)
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, TpmError> {
        let rest = bytes.strip_prefix(b"SEALv1").ok_or(TpmError::InvalidBlob)?;
        let mut cursor = rest;
        let mut next = || -> Result<Vec<u8>, TpmError> {
            let (len, rest) = cursor
                .split_first_chunk::<4>()
                .ok_or(TpmError::InvalidBlob)?;
            let (part, rest) = rest
                .split_at_checked(u32::from_be_bytes(*len) as usize)
                .ok_or(TpmError::InvalidBlob)?;
            cursor = rest;
            Ok(part.to_vec())
        };
        let sel_bytes = next()?;
        let composite_bytes = next()?;
        let enc_key = next()?;
        let ciphertext = next()?;
        let mac = next()?;
        if !cursor.is_empty() {
            return Err(TpmError::InvalidBlob);
        }

        let selection = match sel_bytes.split_first() {
            Some((0x00, [n, idx @ ..])) if idx.len() == usize::from(*n) => {
                SealSelection::Pcrs(idx.iter().map(|&i| PcrIndex(i)).collect())
            }
            Some((0x01, [])) => SealSelection::SePcr,
            _ => return Err(TpmError::InvalidBlob),
        };
        let composite: Sha1Digest = composite_bytes
            .try_into()
            .map_err(|_| TpmError::InvalidBlob)?;
        Ok(SealedBlob {
            selection,
            composite,
            enc_key,
            ciphertext,
            mac,
        })
    }
}

const OAEP_LABEL: &[u8] = b"TPM_SEAL";

fn derive(key: &[u8], purpose: &[u8]) -> Vec<u8> {
    Hmac::<Sha256>::mac(key, purpose)
}

/// XORs `data` with the keystream derived from `key`: encrypts on seal,
/// decrypts on unseal.
fn apply_keystream(key: &[u8], data: &[u8]) -> Vec<u8> {
    let mut out = Drbg::new(&derive(key, b"stream")).fill(data.len());
    out.iter_mut().zip(data).for_each(|(s, d)| *s ^= d);
    out
}

/// The blob's MAC state with every authenticated field absorbed in
/// order, selection ‖ composite ‖ ciphertext, without copying the
/// (checkpoint-sized) ciphertext into one message buffer.
fn blob_mac(
    key: &[u8],
    selection: &SealSelection,
    composite: &Sha1Digest,
    ciphertext: &[u8],
) -> Hmac<Sha256> {
    let mut h = Hmac::<Sha256>::new(&derive(key, b"mac"));
    h.update(&selection.encode());
    h.update(composite);
    h.update(ciphertext);
    h
}

/// Builds a sealed blob binding `data` to `composite` under the SRK's
/// public half.
pub(crate) fn seal_payload(
    srk_public: &RsaPublicKey,
    rng: &mut Drbg,
    selection: SealSelection,
    composite: Sha1Digest,
    data: &[u8],
) -> Result<SealedBlob, CryptoError> {
    let sym_key = rng.fill(SYM_KEY_LEN);
    let enc_key = srk_public.encrypt_oaep(&sym_key, &OaepLabel(OAEP_LABEL.to_vec()), rng)?;
    let ciphertext = apply_keystream(&sym_key, data);
    let mac = blob_mac(&sym_key, &selection, &composite, &ciphertext).finalize();
    Ok(SealedBlob {
        selection,
        composite,
        enc_key,
        ciphertext,
        mac,
    })
}

/// Opens a sealed blob, verifying its MAC and that `current_composite`
/// (recomputed by the caller from the live PCR bank or sePCR) matches
/// the composite recorded at seal time.
pub(crate) fn unseal_payload(
    srk: &RsaPrivateKey,
    blob: &SealedBlob,
    current_composite: &Sha1Digest,
) -> Result<Vec<u8>, TpmError> {
    let sym_key = srk
        .decrypt_oaep(&blob.enc_key, &OaepLabel(OAEP_LABEL.to_vec()))
        .map_err(|_| TpmError::InvalidBlob)?;
    if sym_key.len() != SYM_KEY_LEN {
        return Err(TpmError::InvalidBlob);
    }
    let mac = blob_mac(&sym_key, &blob.selection, &blob.composite, &blob.ciphertext);
    if !mac.verify_tag(&blob.mac) {
        return Err(TpmError::InvalidBlob);
    }
    // The integrity check passed, so the stored composite is authentic;
    // now enforce the sealed-storage policy.
    if &blob.composite != current_composite {
        return Err(TpmError::WrongPcrState);
    }
    Ok(apply_keystream(&sym_key, &blob.ciphertext))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_crypto::{to_hex, Sha1};

    fn srk() -> RsaPrivateKey {
        RsaPrivateKey::generate(512, &mut Drbg::new(b"test srk")).unwrap()
    }

    fn composite(tag: u8) -> Sha1Digest {
        let mut c = [0u8; 20];
        c[0] = tag;
        c
    }

    #[test]
    fn roundtrip() {
        let key = srk();
        let mut rng = Drbg::new(b"rng");
        let sel = SealSelection::Pcrs(vec![PcrIndex(17)]);
        let blob =
            seal_payload(key.public_key(), &mut rng, sel, composite(1), b"pal state").unwrap();
        let out = unseal_payload(&key, &blob, &composite(1)).unwrap();
        assert_eq!(out, b"pal state");
    }

    #[test]
    fn wrong_composite_is_policy_failure() {
        let key = srk();
        let mut rng = Drbg::new(b"rng");
        let blob = seal_payload(
            key.public_key(),
            &mut rng,
            SealSelection::Pcrs(vec![PcrIndex(17)]),
            composite(1),
            b"data",
        )
        .unwrap();
        assert_eq!(
            unseal_payload(&key, &blob, &composite(2)),
            Err(TpmError::WrongPcrState)
        );
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let key = srk();
        let mut rng = Drbg::new(b"rng");
        let mut blob = seal_payload(
            key.public_key(),
            &mut rng,
            SealSelection::SePcr,
            composite(1),
            b"data",
        )
        .unwrap();
        blob.ciphertext[0] ^= 1;
        assert_eq!(
            unseal_payload(&key, &blob, &composite(1)),
            Err(TpmError::InvalidBlob)
        );
    }

    #[test]
    fn tampered_composite_rejected_by_mac() {
        // An attacker cannot retarget a blob at a different platform
        // state by editing the recorded composite: the MAC covers it.
        let key = srk();
        let mut rng = Drbg::new(b"rng");
        let mut blob = seal_payload(
            key.public_key(),
            &mut rng,
            SealSelection::Pcrs(vec![PcrIndex(17)]),
            composite(1),
            b"data",
        )
        .unwrap();
        blob.composite = composite(2);
        assert_eq!(
            unseal_payload(&key, &blob, &composite(2)),
            Err(TpmError::InvalidBlob)
        );
    }

    #[test]
    fn wrong_srk_rejected() {
        let key = srk();
        let other = RsaPrivateKey::generate(512, &mut Drbg::new(b"other srk")).unwrap();
        let mut rng = Drbg::new(b"rng");
        let blob = seal_payload(
            key.public_key(),
            &mut rng,
            SealSelection::SePcr,
            composite(1),
            b"data",
        )
        .unwrap();
        assert_eq!(
            unseal_payload(&other, &blob, &composite(1)),
            Err(TpmError::InvalidBlob)
        );
    }

    #[test]
    fn selection_is_bound_into_mac() {
        // Rewriting a PCR-bound blob as sePCR-bound must fail even with a
        // matching composite value.
        let key = srk();
        let mut rng = Drbg::new(b"rng");
        let mut blob = seal_payload(
            key.public_key(),
            &mut rng,
            SealSelection::Pcrs(vec![PcrIndex(17)]),
            composite(1),
            b"data",
        )
        .unwrap();
        blob.selection = SealSelection::SePcr;
        assert_eq!(
            unseal_payload(&key, &blob, &composite(1)),
            Err(TpmError::InvalidBlob)
        );
    }

    #[test]
    fn large_payload_roundtrips() {
        // The hybrid construction has no size limit, unlike raw OAEP.
        let key = srk();
        let mut rng = Drbg::new(b"rng");
        let data: Vec<u8> = (0..10_000u32).map(|i| i as u8).collect();
        let blob = seal_payload(
            key.public_key(),
            &mut rng,
            SealSelection::SePcr,
            composite(1),
            &data,
        )
        .unwrap();
        assert_eq!(unseal_payload(&key, &blob, &composite(1)).unwrap(), data);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let key = srk();
        let mut rng = Drbg::new(b"rng");
        let blob = seal_payload(
            key.public_key(),
            &mut rng,
            SealSelection::SePcr,
            composite(1),
            b"",
        )
        .unwrap();
        assert_eq!(
            unseal_payload(&key, &blob, &composite(1)).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn serialization_roundtrip_both_flavours() {
        let key = srk();
        let mut rng = Drbg::new(b"rng");
        for sel in [
            SealSelection::Pcrs(vec![PcrIndex(17), PcrIndex(18)]),
            SealSelection::SePcr,
        ] {
            let blob =
                seal_payload(key.public_key(), &mut rng, sel, composite(3), b"payload").unwrap();
            let bytes = blob.to_bytes();
            let back = SealedBlob::from_bytes(&bytes).unwrap();
            assert_eq!(back, blob);
            // And it still unseals after the disk round trip.
            assert_eq!(
                unseal_payload(&key, &back, &composite(3)).unwrap(),
                b"payload"
            );
        }
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert_eq!(SealedBlob::from_bytes(b""), Err(TpmError::InvalidBlob));
        assert_eq!(
            SealedBlob::from_bytes(b"SEALv1"),
            Err(TpmError::InvalidBlob)
        );
        assert_eq!(
            SealedBlob::from_bytes(b"WRONGMAGIC..."),
            Err(TpmError::InvalidBlob)
        );
        // Truncation anywhere is caught.
        let key = srk();
        let mut rng = Drbg::new(b"rng");
        let blob = seal_payload(
            key.public_key(),
            &mut rng,
            SealSelection::SePcr,
            composite(1),
            b"data",
        )
        .unwrap();
        let bytes = blob.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                SealedBlob::from_bytes(&bytes[..cut]),
                Err(TpmError::InvalidBlob),
                "cut at {cut}"
            );
        }
        // So are bytes past the MAC: only the canonical encoding parses.
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            SealedBlob::from_bytes(&trailing),
            Err(TpmError::InvalidBlob)
        );
        // And a PCR selection carrying a byte past its `n` indices.
        let pcr_blob = seal_payload(
            key.public_key(),
            &mut rng,
            SealSelection::Pcrs(vec![PcrIndex(17), PcrIndex(18)]),
            composite(1),
            b"data",
        )
        .unwrap();
        let pcr_bytes = pcr_blob.to_bytes();
        let sel = [0x00, 2, 17, 18];
        let sel_field = [&(sel.len() as u32).to_be_bytes()[..], &sel].concat();
        assert!(pcr_bytes[6..].starts_with(&sel_field));
        let mut surplus = b"SEALv1".to_vec();
        surplus.extend_from_slice(&(sel.len() as u32 + 1).to_be_bytes());
        surplus.extend_from_slice(&sel);
        surplus.push(19);
        surplus.extend_from_slice(&pcr_bytes[6 + sel_field.len()..]);
        assert_eq!(SealedBlob::from_bytes(&surplus), Err(TpmError::InvalidBlob));
    }

    #[test]
    fn sealed_bytes_known_answer() {
        // Every byte a seal emits — OAEP-wrapped key, keystream, MAC —
        // for payloads around the 32-byte keystream block and one the
        // size of a durable checkpoint, under PCR, empty and sePCR
        // selections, folded into one SHA-1 recorded from the reference
        // construction (a fresh HMAC key per keystream block, MAC over a
        // concatenated copy of its input).
        let key = srk();
        let mut rng = Drbg::new(b"seal known answer");
        let mut fold = Sha1::new();
        for sel in [
            SealSelection::Pcrs(vec![PcrIndex(17), PcrIndex(18)]),
            SealSelection::Pcrs(vec![]),
            SealSelection::SePcr,
        ] {
            for n in [0usize, 1, 32, 13_800] {
                let data: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
                let c = composite(n as u8);
                let blob = seal_payload(key.public_key(), &mut rng, sel.clone(), c, &data).unwrap();
                assert_eq!(unseal_payload(&key, &blob, &c).unwrap(), data);
                fold.update_bytes(&blob.to_bytes());
            }
        }
        assert_eq!(
            to_hex(&fold.finalize_fixed()),
            "d769f0d9ff41d3f3a9f85787fdd0f65746deac29"
        );
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // The MAC must cover every field a stored blob carries: a flip
        // anywhere either breaks the encoding or fails the unseal-time
        // check, and never releases the plaintext.
        let key = srk();
        let mut rng = Drbg::new(b"rng");
        for sel in [
            SealSelection::Pcrs(vec![PcrIndex(17)]),
            SealSelection::Pcrs(vec![]),
            SealSelection::SePcr,
        ] {
            let blob = seal_payload(key.public_key(), &mut rng, sel, composite(1), b"pal").unwrap();
            let bytes = blob.to_bytes();
            let mut unsealed = 0;
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(parsed) = SealedBlob::from_bytes(&flipped) {
                    assert_eq!(
                        unseal_payload(&key, &parsed, &composite(1)),
                        Err(TpmError::InvalidBlob),
                        "bit {bit} of {:?}",
                        blob.selection
                    );
                    unsealed += 1;
                }
            }
            // Every bit of the composite, wrapped key, ciphertext and
            // MAC got past the parser to unseal.
            let fields =
                blob.composite.len() + blob.enc_key.len() + blob.ciphertext.len() + blob.mac.len();
            assert!(unsealed >= fields * 8, "{unsealed} of {:?}", blob.selection);
        }
    }

    #[test]
    fn blob_accessors() {
        let key = srk();
        let mut rng = Drbg::new(b"rng");
        let blob = seal_payload(
            key.public_key(),
            &mut rng,
            SealSelection::Pcrs(vec![PcrIndex(17), PcrIndex(18)]),
            composite(1),
            b"data",
        )
        .unwrap();
        assert!(!blob.is_sepcr_bound());
        assert_eq!(blob.pcr_selection(), &[PcrIndex(17), PcrIndex(18)]);
        assert!(blob.byte_len() > 4 + 20 + 32);
        let sepcr_blob = seal_payload(
            key.public_key(),
            &mut rng,
            SealSelection::SePcr,
            composite(1),
            b"data",
        )
        .unwrap();
        assert!(sepcr_blob.is_sepcr_bound());
        assert!(sepcr_blob.pcr_selection().is_empty());
    }
}
