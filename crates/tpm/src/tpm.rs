//! The assembled TPM device.
//!
//! [`Tpm`] wires together the PCR bank, sealed storage, quoting, the
//! `TPM_HASH_*` interface driven by `SKINIT`, the proposed sePCR bank,
//! and the per-vendor timing model. Every command returns a [`Timed`]
//! value so callers account its cost on the virtual clock.

use sea_crypto::{Drbg, RsaPrivateKey, RsaPublicKey, Sha1, Sha1Digest};
use sea_hw::{CpuId, Layer, Obs, SimDuration, TpmKind};

use crate::error::TpmError;
use crate::nvram::Nvram;
use crate::pcr::{PcrBank, PcrIndex, PcrValue};
use crate::quote::{quote_digest, Quote, QuoteSource};
use crate::seal::{seal_payload, unseal_payload, SealSelection, SealedBlob, MAX_SELECTION_LEN};
use crate::sepcr::{SePcrBank, SePcrHandle};
use crate::timing::{TpmOp, TpmTimingModel};

/// A command result annotated with its virtual-time cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timed<T> {
    /// The command's result value.
    pub value: T,
    /// Virtual time the command occupied the TPM (and, for `TPM_HASH_*`,
    /// the LPC bus and issuing CPU).
    pub elapsed: SimDuration,
}

impl<T> Timed<T> {
    fn new(value: T, elapsed: SimDuration) -> Self {
        Timed { value, elapsed }
    }
}

/// Who is issuing a locality-sensitive command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Locality {
    /// Ordinary software (any ring) — cannot reset dynamic PCRs.
    Software,
    /// The CPU itself (`SKINIT`/`SENTER`/`SLAUNCH` microcode). The paper:
    /// "Only a hardware command from the CPU can reset PCR 17" (§2.1.3).
    Cpu,
}

/// RSA strength of the TPM's SRK and AIK.
///
/// Virtual-time costs come from [`TpmTimingModel`] regardless of the key
/// size, so tests can use [`KeyStrength::Demo512`] for speed while the
/// sealed-storage and attestation semantics stay fully real.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KeyStrength {
    /// 512-bit keys: fast test configuration.
    #[default]
    Demo512,
    /// 1024-bit keys.
    Standard1024,
    /// 2048-bit keys, as the TPM v1.2 specification mandates for the SRK.
    Spec2048,
}

impl KeyStrength {
    fn bits(self) -> usize {
        match self {
            KeyStrength::Demo512 => 512,
            KeyStrength::Standard1024 => 1024,
            KeyStrength::Spec2048 => 2048,
        }
    }
}

/// An in-progress `TPM_HASH_START … TPM_HASH_DATA … TPM_HASH_END`
/// sequence.
#[derive(Debug, Clone)]
struct HashSession {
    hasher: Sha1,
    bytes: usize,
}

/// The TPM device.
///
/// See the crate-level example for typical usage.
#[derive(Debug, Clone)]
pub struct Tpm {
    kind: TpmKind,
    pcrs: PcrBank,
    sepcrs: SePcrBank,
    srk: RsaPrivateKey,
    aik: RsaPrivateKey,
    rng: Drbg,
    noise: Drbg,
    timing: TpmTimingModel,
    nominal_timing: bool,
    hash_session: Option<HashSession>,
    armed_fault: Option<bool>,
    nvram: Nvram,
    obs: Obs,
}

impl Tpm {
    /// Creates a TPM of the given chip `kind`, generating fresh SRK and
    /// AIK keypairs deterministically from `seed`.
    ///
    /// The sePCR bank starts empty (baseline hardware); use
    /// [`Tpm::with_sepcrs`] for the proposed hardware.
    ///
    /// # Panics
    ///
    /// Panics for [`TpmKind::None`] — absent TPMs are represented by not
    /// constructing one.
    pub fn new(kind: TpmKind, strength: KeyStrength, seed: &[u8]) -> Self {
        let mut key_rng = Drbg::new(&[seed, b"/keys"].concat());
        let srk = RsaPrivateKey::generate(strength.bits(), &mut key_rng)
            .expect("valid key size by construction");
        let aik = RsaPrivateKey::generate(strength.bits(), &mut key_rng)
            .expect("valid key size by construction");
        Tpm {
            kind,
            pcrs: PcrBank::new(),
            sepcrs: SePcrBank::new(0),
            srk,
            aik,
            rng: Drbg::new(&[seed, b"/rng"].concat()),
            noise: Drbg::new(&[seed, b"/noise"].concat()),
            timing: TpmTimingModel::for_kind(kind),
            nominal_timing: false,
            hash_session: None,
            armed_fault: None,
            nvram: Nvram::new(seed),
            obs: Obs::null(),
        }
    }

    /// Creates a TPM with *pre-generated* SRK and AIK keypairs — the
    /// manufacture-time key-injection path.
    ///
    /// [`Tpm::new`] derives both keys from `seed`, which costs two RSA
    /// key generations per TPM; a fleet of a thousand simulated
    /// platforms would pay that thousands of times per sweep. Fleet
    /// provisioning generates each platform's identity once (see
    /// `sea-fleet`'s key vault), burns it in here, and reuses it across
    /// runs. `seed` still drives the RNG, noise, and NVRAM streams, so
    /// two TPMs with the same keys but different seeds remain
    /// distinguishable in their entropy output.
    ///
    /// # Panics
    ///
    /// Panics for [`TpmKind::None`], as [`Tpm::new`] does.
    pub fn with_keys(kind: TpmKind, srk: RsaPrivateKey, aik: RsaPrivateKey, seed: &[u8]) -> Self {
        assert!(
            kind.is_present(),
            "an absent TPM is represented by not constructing one"
        );
        Tpm {
            kind,
            pcrs: PcrBank::new(),
            sepcrs: SePcrBank::new(0),
            srk,
            aik,
            rng: Drbg::new(&[seed, b"/rng"].concat()),
            noise: Drbg::new(&[seed, b"/noise"].concat()),
            timing: TpmTimingModel::for_kind(kind),
            nominal_timing: false,
            hash_session: None,
            armed_fault: None,
            nvram: Nvram::new(seed),
            obs: Obs::null(),
        }
    }

    /// Installs the observability handle the timing model emits leaf
    /// spans through. The default is the null sink; bare-TPM benchmarks
    /// (Figure 3) install a recording sink here, while full platforms
    /// attribute TPM costs at the charge sites in `sea-core` instead —
    /// installing both would double-count.
    pub fn install_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Equips the TPM with `count` secure-execution PCRs (builder-style).
    pub fn with_sepcrs(mut self, count: u16) -> Self {
        self.sepcrs = SePcrBank::new(count);
        self
    }

    /// The chip model this TPM simulates.
    pub fn kind(&self) -> TpmKind {
        self.kind
    }

    /// The timing model in effect.
    pub fn timing(&self) -> &TpmTimingModel {
        &self.timing
    }

    /// Pins every command latency to the model's *mean* instead of
    /// sampling calibrated jitter.
    ///
    /// The concurrent session engine requires this: with jitter, a
    /// command's sampled cost depends on how many draws preceded it on
    /// the shared noise stream — i.e. on thread interleaving. Nominal
    /// timing makes each session's cost a pure function of that session,
    /// which is what makes parallel batches byte-identical to serial
    /// ones. Jitter stays on (the default) for the single-session
    /// experiments whose error bars Figure 3 reports.
    pub fn set_nominal_timing(&mut self, on: bool) {
        self.nominal_timing = on;
    }

    /// The public half of the Attestation Identity Key, which an external
    /// verifier obtains through the Privacy-CA certificate chain (§2.1.1).
    pub fn aik_public(&self) -> &RsaPublicKey {
        self.aik.public_key()
    }

    /// The public half of the Storage Root Key. Callers use it to
    /// establish transport sessions (§3.3) via
    /// [`crate::establish_transport`].
    pub fn srk_public(&self) -> &RsaPublicKey {
        self.srk.public_key()
    }

    /// TPM-side acceptance of a transport session: decrypts the
    /// session secret the caller produced with
    /// [`crate::establish_transport`] against this TPM's SRK.
    ///
    /// # Errors
    ///
    /// [`TpmError::InvalidBlob`] for secrets encrypted to another TPM or
    /// tampered in flight.
    pub fn accept_transport(
        &mut self,
        encrypted_secret: &[u8],
    ) -> Result<crate::transport::TransportEndpoint, TpmError> {
        crate::transport::accept(&self.srk, encrypted_secret)
    }

    /// Read-only view of the PCR bank.
    pub fn pcrs(&self) -> &PcrBank {
        &self.pcrs
    }

    /// Read-only view of the sePCR bank.
    pub fn sepcrs(&self) -> &SePcrBank {
        &self.sepcrs
    }

    /// Applies power-cycle semantics: static PCRs to zero, dynamic PCRs
    /// to −1, every sePCR back to Free with a zero chain, hash session
    /// dropped, pending injected faults cleared
    /// (a reboot un-wedges the chip). The NVRAM half — keys, monotonic
    /// counters, stored blobs — survives untouched; sealed blobs remain
    /// unsealable exactly when their PCR bindings are re-established.
    pub fn reboot(&mut self) {
        self.pcrs.reboot();
        self.sepcrs.platform_reset();
        self.hash_session = None;
        self.armed_fault = None;
    }

    /// Read-only view of the non-volatile storage.
    pub fn nvram(&self) -> &Nvram {
        &self.nvram
    }

    /// Mutable view of the non-volatile storage (counter bumps, blob
    /// writes by the platform's durable session engine).
    pub fn nvram_mut(&mut self) -> &mut Nvram {
        &mut self.nvram
    }

    /// Arms a one-shot injected transport fault: the next gated command
    /// fails with [`TpmError::TransportFault`] before the TPM processes
    /// anything, then the fault clears. Teardown paths (`sepcr_free`,
    /// `sepcr_skill`, `sepcr_rebind`) and the CPU-microcode `TPM_HASH_*`
    /// interface are deliberately not gated, so recovery can always
    /// complete.
    ///
    /// The gate fires *before* any timing-noise draw, so injected
    /// faults never perturb the sampled costs of the commands that do
    /// succeed — faulted and fault-free runs stay cost-identical
    /// command for command.
    pub fn arm_transport_fault(&mut self, retryable: bool) {
        self.armed_fault = Some(retryable);
    }

    /// Clears a pending injected transport fault, if any.
    pub fn disarm_transport_fault(&mut self) {
        self.armed_fault = None;
    }

    fn transport_gate(&mut self) -> Result<(), TpmError> {
        match self.armed_fault.take() {
            Some(retryable) => Err(TpmError::TransportFault { retryable }),
            None => Ok(()),
        }
    }

    fn cost(&mut self, op: TpmOp) -> SimDuration {
        let d = if self.nominal_timing {
            self.timing.mean(op)
        } else {
            self.timing.sample(op, &mut self.noise)
        };
        self.obs.leaf(Layer::Tpm, op.label(), d);
        d
    }

    // ---------------------------------------------------------------
    // Ordinary TPM v1.2 commands
    // ---------------------------------------------------------------

    /// `TPM_PCR_Read`.
    ///
    /// # Errors
    ///
    /// [`TpmError::PcrOutOfRange`] for indices ≥ 24.
    pub fn pcr_read(&mut self, index: PcrIndex) -> Result<Timed<PcrValue>, TpmError> {
        self.transport_gate()?;
        let v = self.pcrs.read(index)?;
        let cost = self.cost(TpmOp::PcrRead);
        Ok(Timed::new(v, cost))
    }

    /// `TPM_Extend`: `v ← SHA-1(v ‖ m)`.
    ///
    /// # Errors
    ///
    /// [`TpmError::PcrOutOfRange`] for indices ≥ 24.
    pub fn extend(
        &mut self,
        index: PcrIndex,
        measurement: &Sha1Digest,
    ) -> Result<Timed<PcrValue>, TpmError> {
        self.transport_gate()?;
        let v = self.pcrs.extend(index, measurement)?;
        let cost = self.cost(TpmOp::PcrExtend);
        Ok(Timed::new(v, cost))
    }

    /// `TPM_Seal`: binds `data` to the *current* values of `selection`.
    ///
    /// # Errors
    ///
    /// [`TpmError::PcrOutOfRange`] for a bad selection;
    /// [`TpmError::SelectionTooLong`] for more than 255 indices, which
    /// the blob encoding cannot record (refused before any randomness is
    /// drawn); [`TpmError::Crypto`] on internal failure.
    pub fn seal(
        &mut self,
        data: &[u8],
        selection: &[PcrIndex],
    ) -> Result<Timed<SealedBlob>, TpmError> {
        self.transport_gate()?;
        if selection.len() > MAX_SELECTION_LEN {
            return Err(TpmError::SelectionTooLong {
                len: selection.len(),
            });
        }
        let composite = self.pcrs.composite(selection)?;
        let blob = seal_payload(
            self.srk.public_key(),
            &mut self.rng,
            SealSelection::Pcrs(selection.to_vec()),
            composite,
            data,
        )?;
        let cost = self.cost(TpmOp::Seal);
        Ok(Timed::new(blob, cost))
    }

    /// `TPM_Unseal`: releases the plaintext only if the live PCR values
    /// still match the blob's recorded composite.
    ///
    /// # Errors
    ///
    /// [`TpmError::WrongPcrState`] on composite mismatch;
    /// [`TpmError::InvalidBlob`] for tampered or foreign blobs (including
    /// sePCR-bound blobs, which must go through [`Tpm::sepcr_unseal`]).
    pub fn unseal(&mut self, blob: &SealedBlob) -> Result<Timed<Vec<u8>>, TpmError> {
        self.transport_gate()?;
        if blob.is_sepcr_bound() {
            return Err(TpmError::InvalidBlob);
        }
        let current = self.pcrs.composite(blob.pcr_selection())?;
        let data = unseal_payload(&self.srk, blob, &current)?;
        let cost = self.cost(TpmOp::Unseal);
        Ok(Timed::new(data, cost))
    }

    /// `TPM_Quote`: signs the current values of `selection` and the
    /// verifier's `nonce` with the AIK. Whoever sends the quote to a
    /// remote verifier encodes it there with [`Quote::to_bytes`]; the
    /// verifier parses it with [`Quote::from_bytes`].
    ///
    /// # Errors
    ///
    /// [`TpmError::SelectionTooLong`] for more than 255 indices, which
    /// the quote encoding cannot record (refused before any other work,
    /// the transport included); [`TpmError::PcrOutOfRange`] for a bad
    /// selection.
    pub fn quote(
        &mut self,
        nonce: &[u8],
        selection: &[PcrIndex],
    ) -> Result<Timed<Quote>, TpmError> {
        if selection.len() > MAX_SELECTION_LEN {
            return Err(TpmError::SelectionTooLong {
                len: selection.len(),
            });
        }
        self.transport_gate()?;
        let values: Result<Vec<PcrValue>, TpmError> =
            selection.iter().map(|&i| self.pcrs.read(i)).collect();
        let source = QuoteSource::Pcrs {
            selection: selection.to_vec(),
            values: values?,
        };
        let sig = self.aik.sign_pkcs1v15(&quote_digest(&source, nonce))?;
        let cost = self.cost(TpmOp::Quote);
        Ok(Timed::new(Quote::new(source, nonce.to_vec(), sig), cost))
    }

    /// `TPM_GetRandom`.
    pub fn get_random(&mut self, bytes: usize) -> Timed<Vec<u8>> {
        let out = self.rng.fill(bytes);
        let blocks = bytes.max(1).div_ceil(128) as u64;
        let cost = self.cost(TpmOp::GetRandom128) * blocks;
        Timed::new(out, cost)
    }

    // ---------------------------------------------------------------
    // The TPM_HASH_* interface driven by SKINIT / SENTER
    // ---------------------------------------------------------------

    /// `TPM_HASH_START`: begins a hardware-initiated measurement. Resets
    /// the dynamic PCRs to zero — which is why "the only way to reset
    /// PCR 17 is by executing another SKINIT instruction" (§2.2.1).
    ///
    /// # Errors
    ///
    /// [`TpmError::LocalityDenied`] unless issued from [`Locality::Cpu`].
    pub fn hash_start(&mut self, locality: Locality) -> Result<Timed<()>, TpmError> {
        if locality != Locality::Cpu {
            return Err(TpmError::LocalityDenied);
        }
        self.pcrs.dynamic_reset();
        self.hash_session = Some(HashSession {
            hasher: Sha1::new(),
            bytes: 0,
        });
        Ok(Timed::new((), SimDuration::from_us(1)))
    }

    /// `TPM_HASH_DATA`: absorbs PAL/ACMod bytes. The cost reflects the
    /// LPC long wait cycles measured in Table 1 (~2.71 µs per byte on
    /// 2007 chips).
    ///
    /// # Errors
    ///
    /// [`TpmError::NoHashSession`] without a preceding `TPM_HASH_START`.
    pub fn hash_data(&mut self, data: &[u8]) -> Result<Timed<()>, TpmError> {
        let session = self.hash_session.as_mut().ok_or(TpmError::NoHashSession)?;
        session.hasher.update_bytes(data);
        session.bytes += data.len();
        let cost = self.timing.hash_time(data.len());
        Ok(Timed::new((), cost))
    }

    /// `TPM_HASH_END`: finalizes the measurement and extends it into
    /// PCR 17, returning the new PCR 17 value.
    ///
    /// # Errors
    ///
    /// [`TpmError::NoHashSession`] without a preceding `TPM_HASH_START`.
    pub fn hash_end(&mut self) -> Result<Timed<PcrValue>, TpmError> {
        let session = self.hash_session.take().ok_or(TpmError::NoHashSession)?;
        let digest = session.hasher.finalize_fixed();
        let v = self
            .pcrs
            .extend(PcrIndex(17), &digest)
            .expect("PCR 17 exists");
        Ok(Timed::new(v, SimDuration::from_us(1)))
    }

    // ---------------------------------------------------------------
    // Proposed sePCR commands (§5.4)
    // ---------------------------------------------------------------

    /// `SLAUNCH` measurement path: hashes the PAL image, allocates a free
    /// sePCR, extends the measurement into it, and binds it to `owner`.
    /// The cost is the full `TPM_HASH_*` stream of the image (the PAL is
    /// measured **once**, at launch — not on every context switch).
    ///
    /// # Errors
    ///
    /// [`TpmError::NoFreeSePcr`] when the bank is exhausted.
    pub fn slaunch_measure(
        &mut self,
        pal_image: &[u8],
        owner: CpuId,
    ) -> Result<Timed<SePcrHandle>, TpmError> {
        self.transport_gate()?;
        let measurement = Sha1::digest(pal_image);
        let handle = self.sepcrs.allocate(&measurement, owner)?;
        let cost = self.timing.hash_time(pal_image.len());
        Ok(Timed::new(handle, cost))
    }

    /// sePCR variant of `TPM_Extend`, owner-gated.
    ///
    /// # Errors
    ///
    /// [`TpmError::SePcrAccessDenied`] from a non-owner CPU;
    /// [`TpmError::SePcrWrongState`] outside Exclusive.
    pub fn sepcr_extend(
        &mut self,
        handle: SePcrHandle,
        cpu: CpuId,
        measurement: &Sha1Digest,
    ) -> Result<Timed<PcrValue>, TpmError> {
        self.transport_gate()?;
        let v = self.sepcrs.extend(handle, cpu, measurement)?;
        let cost = self.cost(TpmOp::PcrExtend);
        Ok(Timed::new(v, cost))
    }

    /// sePCR variant of `TPM_Seal` (§5.4.4): the blob binds to the
    /// sePCR's *value* (the PAL's measurement chain), so the PAL can
    /// unseal it in a future execution under a different handle.
    ///
    /// # Errors
    ///
    /// As for [`Tpm::sepcr_extend`], plus [`TpmError::Crypto`].
    pub fn sepcr_seal(
        &mut self,
        handle: SePcrHandle,
        cpu: CpuId,
        data: &[u8],
    ) -> Result<Timed<SealedBlob>, TpmError> {
        self.transport_gate()?;
        let value = self.sepcrs.read_exclusive(handle, cpu)?;
        let composite = sepcr_composite(&value);
        let blob = seal_payload(
            self.srk.public_key(),
            &mut self.rng,
            SealSelection::SePcr,
            composite,
            data,
        )?;
        let cost = self.cost(TpmOp::Seal);
        Ok(Timed::new(blob, cost))
    }

    /// sePCR variant of `TPM_Unseal`: releases the plaintext only if the
    /// invoking PAL's current sePCR chain matches the sealing chain.
    ///
    /// # Errors
    ///
    /// [`TpmError::InvalidBlob`] for non-sePCR blobs or tampering;
    /// [`TpmError::WrongPcrState`] if a different PAL tries to unseal.
    pub fn sepcr_unseal(
        &mut self,
        handle: SePcrHandle,
        cpu: CpuId,
        blob: &SealedBlob,
    ) -> Result<Timed<Vec<u8>>, TpmError> {
        self.transport_gate()?;
        if !blob.is_sepcr_bound() {
            return Err(TpmError::InvalidBlob);
        }
        let value = self.sepcrs.read_exclusive(handle, cpu)?;
        let composite = sepcr_composite(&value);
        let data = unseal_payload(&self.srk, blob, &composite)?;
        let cost = self.cost(TpmOp::Unseal);
        Ok(Timed::new(data, cost))
    }

    /// `SFREE` path: moves the PAL's sePCR to the Quote state (§5.5).
    ///
    /// # Errors
    ///
    /// As for [`Tpm::sepcr_extend`].
    pub fn sepcr_release_to_quote(
        &mut self,
        handle: SePcrHandle,
        cpu: CpuId,
    ) -> Result<Timed<()>, TpmError> {
        self.transport_gate()?;
        self.sepcrs.release_to_quote(handle, cpu)?;
        Ok(Timed::new((), SimDuration::from_us(1)))
    }

    /// `TPM_Quote` over a sePCR in the Quote state — invocable by
    /// *untrusted* code, which received the handle as PAL output (§5.4.3).
    ///
    /// # Errors
    ///
    /// [`TpmError::SePcrWrongState`] outside Quote.
    pub fn sepcr_quote(
        &mut self,
        handle: SePcrHandle,
        nonce: &[u8],
    ) -> Result<Timed<Quote>, TpmError> {
        self.transport_gate()?;
        let value = self.sepcrs.read_for_quote(handle)?;
        let source = QuoteSource::SePcr { value };
        let sig = self.aik.sign_pkcs1v15(&quote_digest(&source, nonce))?;
        let cost = self.cost(TpmOp::Quote);
        Ok(Timed::new(Quote::new(source, nonce.to_vec(), sig), cost))
    }

    /// `TPM_SEPCR_Free`: recycles a quoted sePCR (§5.4.3).
    ///
    /// # Errors
    ///
    /// [`TpmError::SePcrWrongState`] outside Quote.
    pub fn sepcr_free(&mut self, handle: SePcrHandle) -> Result<Timed<()>, TpmError> {
        self.sepcrs.free(handle)?;
        Ok(Timed::new((), SimDuration::from_us(1)))
    }

    /// `SKILL` path: extends the kill constant and frees the slot (§5.5).
    ///
    /// # Errors
    ///
    /// [`TpmError::SePcrWrongState`] outside Exclusive.
    pub fn sepcr_skill(&mut self, handle: SePcrHandle) -> Result<Timed<()>, TpmError> {
        self.sepcrs.skill(handle)?;
        let cost = self.cost(TpmOp::PcrExtend);
        Ok(Timed::new((), cost))
    }

    /// Hardware resume path: rebinds a suspended PAL's sePCR to the CPU
    /// about to resume it.
    ///
    /// # Errors
    ///
    /// [`TpmError::SePcrWrongState`] outside Exclusive.
    pub fn sepcr_rebind(&mut self, handle: SePcrHandle, cpu: CpuId) -> Result<(), TpmError> {
        self.sepcrs.rebind_owner(handle, cpu)
    }
}

/// Composite digest for a sePCR-bound seal: domain-separated from the
/// ordinary PCR composite.
fn sepcr_composite(value: &PcrValue) -> Sha1Digest {
    let mut h = Sha1::new();
    h.update_bytes(b"sePCR-composite");
    h.update_bytes(value.as_bytes());
    h.finalize_fixed()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpm() -> Tpm {
        Tpm::new(TpmKind::Broadcom, KeyStrength::Demo512, b"test tpm")
    }

    fn tpm_with_sepcrs(n: u16) -> Tpm {
        tpm().with_sepcrs(n)
    }

    #[test]
    fn seal_unseal_roundtrip_with_timing() {
        let mut t = tpm();
        t.extend(PcrIndex(17), &Sha1::digest(b"pal")).unwrap();
        let sealed = t.seal(b"secret", &[PcrIndex(17)]).unwrap();
        // Broadcom Seal ≈ 20 ms.
        assert!((sealed.elapsed.as_ms_f64() - 20.0).abs() < 5.0);
        let out = t.unseal(&sealed.value).unwrap();
        assert_eq!(out.value, b"secret");
        // Broadcom Unseal ≈ 905 ms.
        assert!((out.elapsed.as_ms_f64() - 905.0).abs() < 100.0);
    }

    #[test]
    fn unseal_fails_after_pcr_change() {
        let mut t = tpm();
        t.extend(PcrIndex(17), &Sha1::digest(b"pal")).unwrap();
        let sealed = t.seal(b"secret", &[PcrIndex(17)]).unwrap().value;
        t.extend(PcrIndex(17), &Sha1::digest(b"other code"))
            .unwrap();
        assert_eq!(t.unseal(&sealed).unwrap_err(), TpmError::WrongPcrState);
    }

    #[test]
    fn unseal_fails_after_reboot() {
        let mut t = tpm();
        t.hash_start(Locality::Cpu).unwrap();
        t.hash_data(b"pal image").unwrap();
        t.hash_end().unwrap();
        let sealed = t.seal(b"secret", &[PcrIndex(17)]).unwrap().value;
        t.reboot();
        // PCR 17 is now −1: composite differs.
        assert_eq!(t.unseal(&sealed).unwrap_err(), TpmError::WrongPcrState);
    }

    #[test]
    fn quote_roundtrip_and_verification() {
        let mut t = tpm();
        t.extend(PcrIndex(17), &Sha1::digest(b"pal")).unwrap();
        let q = t.quote(b"verifier nonce", &[PcrIndex(17)]).unwrap();
        // The verifier parses the bytes the platform sends.
        let parsed = Quote::from_bytes(&q.value.to_bytes()).unwrap();
        assert_eq!(parsed, q.value);
        assert!(parsed.verify_signature(t.aik_public()));
        assert!((q.elapsed.as_ms_f64() - 880.0).abs() < 100.0);
    }

    #[test]
    fn injected_keys_match_generated_identity() {
        // A TPM provisioned via key injection is indistinguishable, at
        // the attestation boundary, from one that generated the same
        // keys itself from the matching seed.
        let generated = tpm();
        let mut key_rng = Drbg::new(&[b"test tpm".as_slice(), b"/keys"].concat());
        let srk = RsaPrivateKey::generate(512, &mut key_rng).unwrap();
        let aik = RsaPrivateKey::generate(512, &mut key_rng).unwrap();
        assert_eq!(srk.public_key(), generated.srk_public());
        let mut injected = Tpm::with_keys(TpmKind::Broadcom, srk, aik, b"test tpm");
        assert_eq!(injected.aik_public(), generated.aik_public());
        injected
            .extend(PcrIndex(17), &Sha1::digest(b"pal"))
            .unwrap();
        let q = injected.quote(b"n", &[PcrIndex(17)]).unwrap().value;
        assert!(q.verify_signature(generated.aik_public()));
    }

    #[test]
    fn hash_interface_models_skinit() {
        let mut t = tpm();
        // Software cannot open the session (cannot reset PCR 17).
        assert_eq!(
            t.hash_start(Locality::Software).unwrap_err(),
            TpmError::LocalityDenied
        );
        assert_eq!(t.hash_data(b"x").unwrap_err(), TpmError::NoHashSession);
        assert_eq!(t.hash_end().unwrap_err(), TpmError::NoHashSession);

        t.hash_start(Locality::Cpu).unwrap();
        let pal = vec![0xAB; 64 * 1024];
        let data_cost = t.hash_data(&pal).unwrap().elapsed;
        // Table 1: 64 KB through a 2007 TPM ≈ 177.52 ms.
        assert!((data_cost.as_ms_f64() - 177.52).abs() < 0.2);
        let v = t.hash_end().unwrap().value;
        // PCR 17 = extend(0, SHA1(pal)).
        let expected = PcrValue::ZERO.extended(&Sha1::digest(&pal));
        assert_eq!(v, expected);
        assert_eq!(t.pcr_read(PcrIndex(17)).unwrap().value, expected);
    }

    #[test]
    fn hash_start_resets_all_dynamic_pcrs() {
        let mut t = tpm();
        t.extend(PcrIndex(20), &Sha1::digest(b"junk")).unwrap();
        t.hash_start(Locality::Cpu).unwrap();
        for i in 17..=23u8 {
            assert_eq!(t.pcr_read(PcrIndex(i)).unwrap().value, PcrValue::ZERO);
        }
        t.hash_end().unwrap();
    }

    #[test]
    fn get_random_is_timed_and_random() {
        let mut t = tpm();
        let a = t.get_random(128);
        let b = t.get_random(128);
        assert_ne!(a.value, b.value);
        assert_eq!(a.value.len(), 128);
        // Broadcom GetRandom-128B ≈ 25 ms (±2% calibrated jitter).
        assert!((a.elapsed.as_ms_f64() - 25.0).abs() < 3.0);
    }

    #[test]
    fn sepcr_seal_binds_to_measurement_not_handle() {
        let mut t = tpm_with_sepcrs(3);
        let pal = b"the same PAL image";
        // First execution: seal some state.
        let h1 = t.slaunch_measure(pal, CpuId(0)).unwrap().value;
        let blob = t
            .sepcr_seal(h1, CpuId(0), b"persistent state")
            .unwrap()
            .value;
        t.sepcr_release_to_quote(h1, CpuId(0)).unwrap();
        // Slot 0 stays in Quote state and slot 1 goes to a different PAL,
        // so the next launch of our PAL lands in a *different* slot.
        let h_other = t.slaunch_measure(b"other PAL", CpuId(1)).unwrap().value;
        // Second execution of the same PAL: different handle, same chain.
        let h2 = t.slaunch_measure(pal, CpuId(0)).unwrap().value;
        assert_ne!(h1, h2);
        let out = t.sepcr_unseal(h2, CpuId(0), &blob).unwrap().value;
        assert_eq!(out, b"persistent state");
        // The *other* PAL cannot unseal it: wrong measurement chain.
        assert_eq!(
            t.sepcr_unseal(h_other, CpuId(1), &blob).unwrap_err(),
            TpmError::WrongPcrState
        );
    }

    #[test]
    fn sepcr_blobs_and_pcr_blobs_do_not_cross() {
        let mut t = tpm_with_sepcrs(1);
        let h = t.slaunch_measure(b"pal", CpuId(0)).unwrap().value;
        let sepcr_blob = t.sepcr_seal(h, CpuId(0), b"a").unwrap().value;
        let pcr_blob = t.seal(b"b", &[PcrIndex(17)]).unwrap().value;
        assert_eq!(t.unseal(&sepcr_blob).unwrap_err(), TpmError::InvalidBlob);
        assert_eq!(
            t.sepcr_unseal(h, CpuId(0), &pcr_blob).unwrap_err(),
            TpmError::InvalidBlob
        );
    }

    #[test]
    fn sepcr_quote_lifecycle_and_verification() {
        let mut t = tpm_with_sepcrs(1);
        let pal = b"quoted PAL";
        let h = t.slaunch_measure(pal, CpuId(0)).unwrap().value;
        // Quote is not possible while Exclusive.
        assert!(t.sepcr_quote(h, b"n").is_err());
        t.sepcr_release_to_quote(h, CpuId(0)).unwrap();
        let q = t.sepcr_quote(h, b"n").unwrap().value;
        assert!(q.verify_signature(t.aik_public()));
        match q.source() {
            QuoteSource::SePcr { value } => {
                assert_eq!(*value, PcrValue::ZERO.extended(&Sha1::digest(pal)));
            }
            other => panic!("unexpected source {other:?}"),
        }
        t.sepcr_free(h).unwrap();
        assert_eq!(t.sepcrs().free_count(), 1);
    }

    #[test]
    fn slaunch_measure_cost_matches_hash_rate() {
        let mut t = tpm_with_sepcrs(1);
        let pal = vec![0u8; 64 * 1024];
        let timed = t.slaunch_measure(&pal, CpuId(0)).unwrap();
        assert!((timed.elapsed.as_ms_f64() - 177.52).abs() < 0.2);
    }

    #[test]
    fn sepcr_exhaustion_surfaces_no_free_error() {
        let mut t = tpm_with_sepcrs(1);
        t.slaunch_measure(b"a", CpuId(0)).unwrap();
        assert_eq!(
            t.slaunch_measure(b"b", CpuId(1)).unwrap_err(),
            TpmError::NoFreeSePcr
        );
    }

    #[test]
    fn reboot_clears_hash_session() {
        let mut t = tpm();
        t.hash_start(Locality::Cpu).unwrap();
        t.reboot();
        assert_eq!(t.hash_data(b"x").unwrap_err(), TpmError::NoHashSession);
    }

    #[test]
    fn reboot_frees_sepcrs_and_preserves_nvram() {
        let mut t = tpm_with_sepcrs(2);
        // One Exclusive, one Quote slot held across the power loss.
        let h0 = t.slaunch_measure(b"running", CpuId(0)).unwrap().value;
        let h1 = t.slaunch_measure(b"done", CpuId(1)).unwrap().value;
        t.sepcr_release_to_quote(h1, CpuId(1)).unwrap();
        // NVRAM carries a stored blob.
        t.nvram_mut().store_blob(1, b"journal bytes");

        t.reboot();

        // Volatile half: every sePCR slot is Free again; the old
        // handles confer nothing.
        assert_eq!(t.sepcrs().free_count(), 2);
        assert!(t.sepcr_extend(h0, CpuId(0), &Sha1::digest(b"x")).is_err());
        assert!(t.sepcr_quote(h1, b"nonce").is_err());
        // Persistent half: the blob survived.
        assert_eq!(t.nvram().read_blob(1), Some(&b"journal bytes"[..]));
    }

    #[test]
    fn sealed_blob_in_nvram_survives_reboot_and_unseals() {
        // The durable engine's checkpoint strategy end-to-end: seal to
        // the empty PCR selection (binds to nothing, so a reboot cannot
        // invalidate it), park the bytes in NVRAM, lose power, read the
        // blob back and unseal it on the rebooted TPM.
        let mut t = tpm();
        let sealed = t.seal(b"write-ahead journal", &[]).unwrap().value;
        t.nvram_mut().store_blob(2, &sealed.to_bytes());
        t.reboot();
        let raw = t.nvram().read_blob(2).expect("blob survives").to_vec();
        let blob = SealedBlob::from_bytes(&raw).unwrap();
        let opened = t.unseal(&blob).unwrap().value;
        assert_eq!(opened, b"write-ahead journal");
    }

    #[test]
    fn seal_refuses_selections_a_blob_cannot_record() {
        // Duplicates are legal in a selection, so its length alone can
        // outgrow the blob's one-byte index count. Unbounded, such a seal
        // would unseal in memory yet fail to load from its own bytes.
        let mut t = tpm();
        let mut fresh = tpm();
        let too_long: Vec<PcrIndex> = (0..256).map(|i| PcrIndex(i as u8 % 24)).collect();
        assert_eq!(
            t.seal(b"state", &too_long).unwrap_err(),
            TpmError::SelectionTooLong { len: 256 }
        );
        // Refused before any randomness was drawn: the next seal matches
        // one from a TPM that never saw the oversized request.
        let longest = &too_long[..MAX_SELECTION_LEN];
        let sealed = t.seal(b"state", longest).unwrap().value;
        assert_eq!(sealed, fresh.seal(b"state", longest).unwrap().value);
        let back = SealedBlob::from_bytes(&sealed.to_bytes()).unwrap();
        assert_eq!(back, sealed);
        assert_eq!(t.unseal(&back).unwrap().value, b"state");
    }

    #[test]
    fn quote_refuses_selections_its_wire_cannot_record() {
        // The quote encoding counts its indices in one byte too: an
        // unbounded 256-entry quote would be signed, then rejected by
        // `Quote::from_bytes` on the verifier's side.
        let mut t = tpm();
        let too_long: Vec<PcrIndex> = (0..256).map(|i| PcrIndex(i as u8 % 24)).collect();
        // Refused before the transport: an armed fault stays pending.
        t.arm_transport_fault(true);
        assert_eq!(
            t.quote(b"nonce", &too_long).unwrap_err(),
            TpmError::SelectionTooLong { len: 256 }
        );
        assert_eq!(
            t.pcr_read(PcrIndex(17)).unwrap_err(),
            TpmError::TransportFault { retryable: true }
        );
        let longest = &too_long[..MAX_SELECTION_LEN];
        let wire = t.quote(b"nonce", longest).unwrap().value.to_bytes();
        let parsed = Quote::from_bytes(&wire).unwrap();
        assert!(parsed.verify_signature(t.aik_public()));
        match parsed.source() {
            QuoteSource::Pcrs { selection, .. } => assert_eq!(selection, longest),
            other => panic!("expected a PCR quote, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_construction() {
        let a = Tpm::new(TpmKind::Infineon, KeyStrength::Demo512, b"seed");
        let b = Tpm::new(TpmKind::Infineon, KeyStrength::Demo512, b"seed");
        assert_eq!(a.aik_public(), b.aik_public());
    }

    #[test]
    fn transport_fault_is_one_shot_and_typed() {
        let mut t = tpm_with_sepcrs(2);
        t.arm_transport_fault(true);
        assert_eq!(
            t.pcr_read(PcrIndex(17)).unwrap_err(),
            TpmError::TransportFault { retryable: true }
        );
        // One-shot: the retry goes through.
        t.pcr_read(PcrIndex(17)).unwrap();
        t.arm_transport_fault(false);
        let err = t.slaunch_measure(b"pal", CpuId(0)).unwrap_err();
        assert_eq!(err, TpmError::TransportFault { retryable: false });
        assert!(!err.is_retryable());
        // The faulted SLAUNCH allocated nothing: no sePCR slot leaked.
        assert_eq!(t.sepcrs().free_count(), 2);
        // Teardown paths are never gated: SKILL always completes.
        let h = t.slaunch_measure(b"pal", CpuId(0)).unwrap().value;
        t.arm_transport_fault(true);
        t.sepcr_skill(h).unwrap();
        assert_eq!(t.sepcrs().free_count(), 2);
        // A reboot un-wedges the chip.
        t.arm_transport_fault(false);
        t.reboot();
        t.pcr_read(PcrIndex(17)).unwrap();
        // Disarm clears a pending fault without a reboot.
        t.arm_transport_fault(true);
        t.disarm_transport_fault();
        t.pcr_read(PcrIndex(17)).unwrap();
    }

    #[test]
    fn injected_faults_do_not_perturb_successful_command_costs() {
        // Satellite regression: the transport gate fires before any
        // timing-noise draw, so a jittered TPM that suffers faults must
        // charge the *same* sampled cost for each successful command as
        // an identical TPM that never faulted.
        let mut clean = tpm_with_sepcrs(2);
        let mut faulty = tpm_with_sepcrs(2);
        assert!(!clean.nominal_timing);
        let digest = Sha1::digest(b"m");

        let mut clean_costs = Vec::new();
        let mut faulty_costs = Vec::new();
        for i in 0..6u8 {
            // Interleave an injected fault before every other command on
            // the faulty TPM.
            if i % 2 == 0 {
                faulty.arm_transport_fault(true);
                assert!(faulty.extend(PcrIndex(17), &digest).is_err());
            }
            clean_costs.push(clean.extend(PcrIndex(17), &digest).unwrap().elapsed);
            faulty_costs.push(faulty.extend(PcrIndex(17), &digest).unwrap().elapsed);
            clean_costs.push(clean.seal(b"s", &[PcrIndex(17)]).unwrap().elapsed);
            faulty_costs.push(faulty.seal(b"s", &[PcrIndex(17)]).unwrap().elapsed);
        }
        assert_eq!(clean_costs, faulty_costs);
        // And the command *results* agree too (same PCR chain).
        assert_eq!(
            clean.pcr_read(PcrIndex(17)).unwrap().value,
            faulty.pcr_read(PcrIndex(17)).unwrap().value
        );
    }

    #[test]
    fn nominal_timing_and_fault_injection_compose() {
        // Same property with nominal timing pinned (the concurrent
        // engine's configuration): costs are means, faults or not.
        let mut t = tpm();
        t.set_nominal_timing(true);
        let digest = Sha1::digest(b"m");
        let before = t.extend(PcrIndex(17), &digest).unwrap().elapsed;
        t.arm_transport_fault(true);
        assert!(t.extend(PcrIndex(17), &digest).is_err());
        let after = t.extend(PcrIndex(17), &digest).unwrap().elapsed;
        assert_eq!(before, after);
        assert_eq!(after, t.timing().mean(TpmOp::PcrExtend));
    }
}
