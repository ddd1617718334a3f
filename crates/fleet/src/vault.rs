//! Process-wide key vault for fleet provisioning.
//!
//! A 1000-platform fleet needs 1000 AIKs, a shared SRK, and a
//! privacy-CA root — and RSA key generation is by far the most
//! expensive operation in the simulator (milliseconds per key even at
//! the demo strength). The vault derives every key deterministically
//! from fixed seeds and caches it for the life of the process, so
//! repeated fleet runs (and the differential suite's byte-identity
//! sweeps) pay the generation cost once. Determinism is the point:
//! platform *i* has the same AIK in every run, shard layout, and
//! dispatch order.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use sea_crypto::{Drbg, RsaPrivateKey, RsaPublicKey};
use sea_hw::TpmKind;
use sea_tpm::Tpm;

use crate::cert::AikCert;

/// RSA modulus size for fleet keys (the workspace's demo strength).
const FLEET_KEY_BITS: usize = 512;

/// Deterministic, process-cached key material for a simulated fleet.
///
/// AIKs are keyed by `(platform, generation)`: generation 0 is the key
/// a platform is born with (and the one its vault TPM signs with);
/// higher generations exist for certificate-rotation churn, where a
/// platform re-enrolls under a fresh identity key mid-run.
pub struct KeyVault {
    ca: RsaPrivateKey,
    srk: RsaPrivateKey,
    aiks: Mutex<BTreeMap<(usize, u32), RsaPrivateKey>>,
}

static VAULT: OnceLock<KeyVault> = OnceLock::new();

fn derive_key(seed: &[u8]) -> RsaPrivateKey {
    RsaPrivateKey::generate(FLEET_KEY_BITS, &mut Drbg::new(seed))
        .expect("fleet key generation from a fixed seed cannot fail")
}

impl KeyVault {
    /// The process-wide vault, generating the CA root and shared SRK on
    /// first use.
    pub fn global() -> &'static KeyVault {
        VAULT.get_or_init(|| KeyVault {
            ca: derive_key(b"fleet/ca"),
            srk: derive_key(b"fleet/srk"),
            aiks: Mutex::new(BTreeMap::new()),
        })
    }

    /// The privacy-CA root public key (what verifiers are provisioned
    /// with).
    pub fn ca_public(&self) -> RsaPublicKey {
        self.ca.public_key().clone()
    }

    /// Platform `index`'s generation-0 AIK, derived from a
    /// per-platform seed and cached.
    pub fn aik(&self, index: usize) -> RsaPrivateKey {
        self.aik_generation(index, 0)
    }

    /// Platform `index`'s AIK at `generation`, derived from a
    /// per-`(platform, generation)` seed and cached. Generation 0 uses
    /// the original seed so pre-rotation key material is unchanged.
    pub fn aik_generation(&self, index: usize, generation: u32) -> RsaPrivateKey {
        let mut aiks = self.aiks.lock().expect("vault lock");
        aiks.entry((index, generation))
            .or_insert_with(|| {
                let mut seed = [b"fleet/aik/".as_slice(), &(index as u64).to_le_bytes()].concat();
                if generation > 0 {
                    seed.extend_from_slice(b"/gen/");
                    seed.extend_from_slice(&generation.to_le_bytes());
                }
                derive_key(&seed)
            })
            .clone()
    }

    /// The never-expiring privacy-CA certificate over platform
    /// `index`'s generation-0 AIK.
    pub fn certificate(&self, index: usize) -> AikCert {
        AikCert::issue(&self.ca, index as u64, self.aik(index).public_key())
    }

    /// A privacy-CA certificate over platform `index`'s AIK at
    /// `generation`, valid through `not_after_ns` (inclusive). This is
    /// the rotation path: churn provisions generation 0 with a finite
    /// bound, then re-enrolls generation 1 once it expires.
    pub fn certificate_generation(
        &self,
        index: usize,
        generation: u32,
        not_after_ns: u64,
    ) -> AikCert {
        AikCert::issue_expiring(
            &self.ca,
            index as u64,
            self.aik_generation(index, generation).public_key(),
            not_after_ns,
        )
    }

    /// A TPM for platform `index`, provisioned with the vault's shared
    /// SRK and the platform's AIK (proposed-hardware kind, so sePCR
    /// quotes are available).
    pub fn tpm(&self, index: usize) -> Tpm {
        Tpm::with_keys(
            TpmKind::FutureFast,
            self.srk.clone(),
            self.aik(index),
            &[b"fleet/tpm/".as_slice(), &(index as u64).to_le_bytes()].concat(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_and_distinct() {
        let vault = KeyVault::global();
        assert_eq!(vault.aik(3).public_key(), vault.aik(3).public_key());
        assert_ne!(vault.aik(0).public_key(), vault.aik(1).public_key());
        assert_eq!(vault.ca_public(), KeyVault::global().ca_public());
    }

    #[test]
    fn generations_are_distinct_and_generation_zero_is_the_original() {
        let vault = KeyVault::global();
        assert_eq!(
            vault.aik(4).public_key(),
            vault.aik_generation(4, 0).public_key()
        );
        assert_ne!(
            vault.aik_generation(4, 0).public_key(),
            vault.aik_generation(4, 1).public_key()
        );
        assert_ne!(
            vault.aik_generation(4, 1).public_key(),
            vault.aik_generation(5, 1).public_key()
        );
        let rotated = vault.certificate_generation(4, 1, 77);
        assert_eq!(rotated.platform(), 4);
        assert!(!rotated.is_expired(77) && rotated.is_expired(78));
        assert!(rotated.verify(&vault.ca_public()));
        assert_eq!(
            &rotated.aik().expect("embedded key"),
            vault.aik_generation(4, 1).public_key()
        );
    }

    #[test]
    fn certificates_verify_against_the_ca_root() {
        let vault = KeyVault::global();
        let cert = vault.certificate(5);
        assert_eq!(cert.platform(), 5);
        assert!(cert.verify(&vault.ca_public()));
        assert_eq!(
            &cert.aik().expect("embedded key"),
            vault.aik(5).public_key()
        );
    }

    #[test]
    fn tpms_carry_the_vault_identity() {
        let vault = KeyVault::global();
        let tpm = vault.tpm(2);
        assert_eq!(tpm.aik_public(), vault.aik(2).public_key());
        assert_eq!(tpm.srk_public(), vault.srk.public_key());
    }
}
