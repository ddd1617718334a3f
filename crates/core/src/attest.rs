//! The external verifier — the relying party of the paper's *External
//! Verification* property (§3.1).
//!
//! A verifier holds the platform's public AIK (vouched for by a Privacy
//! CA, §2.1.1) and a notion of which PAL image it trusts. Given a quote
//! it checks, in order: the AIK signature, the anti-replay nonce, the PCR
//! selection, and finally that the reported measurement chain replays
//! exactly from the trusted image — distinguishing a genuine late launch
//! from a reboot (dynamic PCRs read −1), from different code, and from a
//! `SKILL`ed PAL (chain branded with the kill constant).

use std::error::Error;
use std::fmt;

use sea_crypto::{RsaPublicKey, Sha1, Sha1Digest};
use sea_hw::CpuVendor;
use sea_tpm::{PcrIndex, PcrValue, Quote, QuoteSource, SKILL_CONSTANT};

use crate::platform::SecurePlatform;

/// Why a quote was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The AIK signature over the quoted state failed.
    BadSignature,
    /// The quote's embedded nonce differs from the verifier's challenge
    /// (replay).
    NonceMismatch,
    /// The quote covers the wrong PCRs / wrong source kind for this
    /// verification flow.
    WrongSelection,
    /// PCR 17 reads −1: the platform rebooted and no late launch has
    /// happened since (§2.1.3's reboot/dynamic-reset distinction).
    PlatformRebooted,
    /// The chain replays from the trusted image *plus the kill constant*:
    /// the PAL was terminated by `SKILL` (§5.5).
    PalKilled,
    /// The reported measurement chain does not replay from the trusted
    /// image — different code ran.
    MeasurementMismatch,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::BadSignature => write!(f, "AIK signature invalid"),
            VerifyError::NonceMismatch => write!(f, "nonce mismatch (possible replay)"),
            VerifyError::WrongSelection => write!(f, "quote covers unexpected PCRs"),
            VerifyError::PlatformRebooted => {
                write!(f, "platform rebooted since last late launch")
            }
            VerifyError::PalKilled => write!(f, "PAL was terminated by SKILL"),
            VerifyError::MeasurementMismatch => {
                write!(f, "measurement chain does not match trusted PAL")
            }
        }
    }
}

impl Error for VerifyError {}

/// An external verifier bound to one platform AIK.
///
/// # Example
///
/// See the crate-level example in [`crate`].
#[derive(Debug, Clone)]
pub struct Verifier {
    aik: RsaPublicKey,
}

impl Verifier {
    /// Creates a verifier trusting `aik` (obtained out-of-band through
    /// the Privacy-CA certificate chain).
    pub fn new(aik: RsaPublicKey) -> Self {
        Verifier { aik }
    }

    /// The trusted AIK.
    pub fn aik(&self) -> &RsaPublicKey {
        &self.aik
    }

    /// Replays the expected PCR chain for `image` with optional
    /// runtime `extra_extends` (inputs the PAL measured via
    /// [`crate::PalCtx::measure_input`]).
    pub fn expected_chain(image: &[u8], extra_extends: &[Sha1Digest]) -> PcrValue {
        let mut v = PcrValue::ZERO.extended(&Sha1::digest(image));
        for m in extra_extends {
            v = v.extended(m);
        }
        v
    }

    fn check_envelope(&self, quote: &Quote, nonce: &[u8]) -> Result<(), VerifyError> {
        if !quote.verify_signature(&self.aik) {
            return Err(VerifyError::BadSignature);
        }
        if quote.nonce() != nonce {
            return Err(VerifyError::NonceMismatch);
        }
        Ok(())
    }

    fn classify(
        value: PcrValue,
        expected: PcrValue,
        image_chain: PcrValue,
    ) -> Result<(), VerifyError> {
        if value == expected {
            return Ok(());
        }
        if value == PcrValue::MINUS_ONE {
            return Err(VerifyError::PlatformRebooted);
        }
        if value == image_chain.extended(&SKILL_CONSTANT) {
            return Err(VerifyError::PalKilled);
        }
        Err(VerifyError::MeasurementMismatch)
    }

    /// Verifies a baseline (`SKINIT`/`SENTER`) attestation: the quote
    /// must cover PCR 17 (AMD) or PCRs 17+18 (Intel) and replay the
    /// trusted `image`'s chain.
    ///
    /// # Errors
    ///
    /// See [`VerifyError`].
    pub fn verify_legacy_quote(
        &self,
        quote: &Quote,
        nonce: &[u8],
        image: &[u8],
        vendor: CpuVendor,
        extra_extends: &[Sha1Digest],
    ) -> Result<(), VerifyError> {
        self.check_envelope(quote, nonce)?;
        let QuoteSource::Pcrs { selection, values } = quote.source() else {
            return Err(VerifyError::WrongSelection);
        };
        let image_chain = PcrValue::ZERO.extended(&Sha1::digest(image));
        match vendor {
            CpuVendor::Amd => {
                if selection.as_slice() != [PcrIndex(17)] || values.len() != 1 {
                    return Err(VerifyError::WrongSelection);
                }
                let expected = Self::expected_chain(image, extra_extends);
                Self::classify(values[0], expected, image_chain)
            }
            CpuVendor::Intel => {
                if selection.as_slice() != [PcrIndex(17), PcrIndex(18)] || values.len() != 2 {
                    return Err(VerifyError::WrongSelection);
                }
                // PCR 17 must hold the ACMod chain; PCR 18 the PAL chain.
                let acmod = SecurePlatform::expected_acmod_chain();
                if values[0] == PcrValue::MINUS_ONE {
                    return Err(VerifyError::PlatformRebooted);
                }
                if values[0] != acmod {
                    return Err(VerifyError::MeasurementMismatch);
                }
                let expected = Self::expected_chain(image, extra_extends);
                Self::classify(values[1], expected, image_chain)
            }
        }
    }

    /// Verifies a proposed-hardware attestation over a sePCR: the quote
    /// must be a sePCR quote whose chain replays the trusted `image`
    /// (plus any `extra_extends`).
    ///
    /// # Errors
    ///
    /// See [`VerifyError`].
    pub fn verify_sepcr_quote(
        &self,
        quote: &Quote,
        nonce: &[u8],
        image: &[u8],
        extra_extends: &[Sha1Digest],
    ) -> Result<(), VerifyError> {
        self.check_envelope(quote, nonce)?;
        let QuoteSource::SePcr { value } = quote.source() else {
            return Err(VerifyError::WrongSelection);
        };
        let image_chain = PcrValue::ZERO.extended(&Sha1::digest(image));
        let expected = Self::expected_chain(image, extra_extends);
        Self::classify(*value, expected, image_chain)
    }
}

/// A verifier-side trust policy over *many* PAL images: the whitelist a
/// relying party actually operates (per-service trusted builds).
///
/// # Example
///
/// ```
/// use sea_core::{TrustPolicy, Verifier};
/// use sea_crypto::{Drbg, RsaPrivateKey};
///
/// # fn main() -> Result<(), sea_crypto::CryptoError> {
/// let aik = RsaPrivateKey::generate(512, &mut Drbg::new(b"aik"))?;
/// let mut policy = TrustPolicy::new(Verifier::new(aik.public_key().clone()));
/// policy.trust("payroll", b"payroll PAL v3");
/// policy.trust("payroll", b"payroll PAL v3"); // idempotent
/// assert_eq!(policy.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TrustPolicy {
    verifier: Verifier,
    /// (service name, image digest) pairs currently trusted.
    trusted: Vec<(String, Sha1Digest, Vec<u8>)>,
}

impl TrustPolicy {
    /// Creates an empty policy over `verifier`'s AIK.
    pub fn new(verifier: Verifier) -> Self {
        TrustPolicy {
            verifier,
            trusted: Vec::new(),
        }
    }

    /// Adds `image` as a trusted build of `service`.
    pub fn trust(&mut self, service: &str, image: &[u8]) {
        let digest = Sha1::digest(image);
        if !self.trusted.iter().any(|(_, d, _)| *d == digest) {
            self.trusted
                .push((service.to_owned(), digest, image.to_vec()));
        }
    }

    /// Number of trusted builds.
    pub fn len(&self) -> usize {
        self.trusted.len()
    }

    /// Whether the policy trusts nothing.
    pub fn is_empty(&self) -> bool {
        self.trusted.is_empty()
    }

    /// Verifies a sePCR quote against the whole whitelist, returning the
    /// *service name* whose trusted build produced it.
    ///
    /// # Errors
    ///
    /// The most informative [`VerifyError`] encountered: if any image's
    /// check fails with something other than `MeasurementMismatch`
    /// (bad signature, replayed nonce, reboot), that error is returned;
    /// otherwise `MeasurementMismatch` — no trusted build matches.
    pub fn identify_sepcr_quote(
        &self,
        quote: &Quote,
        nonce: &[u8],
        extra_extends: &[Sha1Digest],
    ) -> Result<&str, VerifyError> {
        let mut last = VerifyError::MeasurementMismatch;
        for (service, _, image) in &self.trusted {
            match self
                .verifier
                .verify_sepcr_quote(quote, nonce, image, extra_extends)
            {
                Ok(()) => return Ok(service),
                Err(VerifyError::MeasurementMismatch) => {}
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enhanced::EnhancedSea;
    use crate::legacy::LegacySea;
    use crate::pal::{FnPal, PalLogic, PalOutcome};
    use crate::platform::SecurePlatform;
    use sea_hw::{CpuId, Platform};
    use sea_tpm::KeyStrength;

    fn legacy(p: Platform) -> LegacySea {
        LegacySea::new(SecurePlatform::new(p, KeyStrength::Demo512, b"attest")).unwrap()
    }

    #[test]
    fn legacy_amd_quote_verifies_end_to_end() {
        let mut sea = legacy(Platform::hp_dc5750());
        let mut pal = FnPal::new("trusted", |_| Ok(PalOutcome::Exit(vec![])));
        let image = pal.image();
        sea.run_session(&mut pal, b"").unwrap();
        let q = sea.quote(b"challenge").unwrap().value;
        let v = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
        assert_eq!(
            v.verify_legacy_quote(&q, b"challenge", &image, CpuVendor::Amd, &[]),
            Ok(())
        );
        // Wrong image is rejected as a mismatch.
        assert_eq!(
            v.verify_legacy_quote(&q, b"challenge", b"other image", CpuVendor::Amd, &[]),
            Err(VerifyError::MeasurementMismatch)
        );
        // Wrong nonce is a replay.
        assert_eq!(
            v.verify_legacy_quote(&q, b"stale", &image, CpuVendor::Amd, &[]),
            Err(VerifyError::NonceMismatch)
        );
    }

    #[test]
    fn legacy_intel_quote_checks_both_pcrs() {
        let mut sea = legacy(Platform::intel_tep());
        let mut pal = FnPal::new("trusted", |_| Ok(PalOutcome::Exit(vec![])));
        let image = pal.image();
        sea.run_session(&mut pal, b"").unwrap();
        let q = sea.quote(b"n").unwrap().value;
        let v = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
        assert_eq!(
            v.verify_legacy_quote(&q, b"n", &image, CpuVendor::Intel, &[]),
            Ok(())
        );
        // Interpreted as an AMD quote, the selection is wrong.
        assert_eq!(
            v.verify_legacy_quote(&q, b"n", &image, CpuVendor::Amd, &[]),
            Err(VerifyError::WrongSelection)
        );
    }

    #[test]
    fn reboot_detected_as_minus_one() {
        let mut sea = legacy(Platform::hp_dc5750());
        let mut pal = FnPal::new("trusted", |_| Ok(PalOutcome::Exit(vec![])));
        let image = pal.image();
        sea.run_session(&mut pal, b"").unwrap();
        sea.platform_mut().reboot();
        let q = sea.quote(b"n").unwrap().value;
        let v = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
        assert_eq!(
            v.verify_legacy_quote(&q, b"n", &image, CpuVendor::Amd, &[]),
            Err(VerifyError::PlatformRebooted)
        );
    }

    #[test]
    fn forged_aik_rejected() {
        let mut sea = legacy(Platform::hp_dc5750());
        let mut pal = FnPal::new("trusted", |_| Ok(PalOutcome::Exit(vec![])));
        let image = pal.image();
        sea.run_session(&mut pal, b"").unwrap();
        let q = sea.quote(b"n").unwrap().value;
        // A verifier trusting a *different* AIK rejects the signature.
        let other =
            sea_crypto::RsaPrivateKey::generate(512, &mut sea_crypto::Drbg::new(b"attacker key"))
                .unwrap();
        let v = Verifier::new(other.public_key().clone());
        assert_eq!(
            v.verify_legacy_quote(&q, b"n", &image, CpuVendor::Amd, &[]),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn software_cannot_fake_a_launch() {
        // Ring-0 code extends PCR 17 with the trusted PAL's hash WITHOUT
        // a late launch. Because PCR 17 post-reboot is −1 (not 0), the
        // resulting chain can never equal the launch chain.
        let mut sea = legacy(Platform::hp_dc5750());
        let pal = FnPal::new("trusted", |_| Ok(PalOutcome::Exit(vec![])));
        let image = pal.image();
        let digest = Sha1::digest(&image);
        sea.platform_mut()
            .tpm_mut()
            .unwrap()
            .extend(PcrIndex(17), &digest)
            .unwrap();
        let q = sea.quote(b"n").unwrap().value;
        let v = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
        assert_eq!(
            v.verify_legacy_quote(&q, b"n", &image, CpuVendor::Amd, &[]),
            Err(VerifyError::MeasurementMismatch)
        );
    }

    #[test]
    fn sepcr_quote_verifies_with_measured_inputs() {
        let platform =
            SecurePlatform::new(Platform::recommended(2), KeyStrength::Demo512, b"attest-e");
        let mut sea = EnhancedSea::new(platform).unwrap();
        let input_digest = Sha1::digest(b"config file v7");
        let mut pal = FnPal::new("measuring", move |ctx| {
            ctx.measure_input(&input_digest)?;
            Ok(PalOutcome::Exit(vec![]))
        });
        let image = pal.image();
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        sea.run_to_exit(&mut pal, id, CpuId(0)).unwrap();
        let q = sea.quote_and_free(id, b"n").unwrap().value;
        let v = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
        // Verifies only with the measured input in the expected chain.
        assert_eq!(
            v.verify_sepcr_quote(&q, b"n", &image, &[Sha1::digest(b"config file v7")]),
            Ok(())
        );
        assert_eq!(
            v.verify_sepcr_quote(&q, b"n", &image, &[]),
            Err(VerifyError::MeasurementMismatch)
        );
        // A legacy flow cannot consume a sePCR quote.
        assert_eq!(
            v.verify_legacy_quote(&q, b"n", &image, CpuVendor::Amd, &[]),
            Err(VerifyError::WrongSelection)
        );
    }

    #[test]
    fn expected_chain_replays_extends_in_order() {
        let a = Sha1::digest(b"a");
        let b = Sha1::digest(b"b");
        let ab = Verifier::expected_chain(b"img", &[a, b]);
        let ba = Verifier::expected_chain(b"img", &[b, a]);
        assert_ne!(ab, ba);
        assert_eq!(
            Verifier::expected_chain(b"img", &[]),
            PcrValue::ZERO.extended(&Sha1::digest(b"img"))
        );
    }

    #[test]
    fn skill_classification() {
        let image = b"victim";
        let chain = PcrValue::ZERO.extended(&Sha1::digest(image));
        let killed = chain.extended(&SKILL_CONSTANT);
        assert_eq!(
            Verifier::classify(killed, chain, chain),
            Err(VerifyError::PalKilled)
        );
    }

    #[test]
    fn trust_policy_identifies_the_service() {
        let platform =
            SecurePlatform::new(Platform::recommended(2), KeyStrength::Demo512, b"policy");
        let mut sea = EnhancedSea::new(platform).unwrap();
        let mut policy = TrustPolicy::new(Verifier::new(
            sea.platform().tpm().unwrap().aik_public().clone(),
        ));
        assert!(policy.is_empty());

        let mut payroll = FnPal::new("payroll-v3", |_| Ok(PalOutcome::Exit(vec![])));
        let mut backups = FnPal::new("backup-agent-v1", |_| Ok(PalOutcome::Exit(vec![])));
        policy.trust("payroll", &payroll.image());
        policy.trust("backups", &backups.image());
        policy.trust("payroll", &payroll.image()); // idempotent
        assert_eq!(policy.len(), 2);

        // Run the payroll PAL; the policy names the right service.
        let id = sea.slaunch(&mut payroll, b"", CpuId(0), None).unwrap();
        sea.run_to_exit(&mut payroll, id, CpuId(0)).unwrap();
        let q = sea.quote_and_free(id, b"n").unwrap().value;
        assert_eq!(policy.identify_sepcr_quote(&q, b"n", &[]), Ok("payroll"));
        // Wrong nonce reported as the informative error.
        assert_eq!(
            policy.identify_sepcr_quote(&q, b"stale", &[]),
            Err(VerifyError::NonceMismatch)
        );

        let id = sea.slaunch(&mut backups, b"", CpuId(1), None).unwrap();
        sea.run_to_exit(&mut backups, id, CpuId(1)).unwrap();
        let q = sea.quote_and_free(id, b"m").unwrap().value;
        assert_eq!(policy.identify_sepcr_quote(&q, b"m", &[]), Ok("backups"));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            VerifyError::BadSignature,
            VerifyError::NonceMismatch,
            VerifyError::WrongSelection,
            VerifyError::PlatformRebooted,
            VerifyError::PalKilled,
            VerifyError::MeasurementMismatch,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
