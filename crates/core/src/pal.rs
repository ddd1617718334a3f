//! The PAL abstraction: Pieces of Application Logic.
//!
//! §3.1: "We focus on an execution model designed to execute small blocks
//! of code with the smallest possible TCB. We term each block of code a
//! Piece of Application Logic (PAL)."
//!
//! A PAL here is a [`PalLogic`] implementation: a canonical *image* (the
//! bytes that are measured — standing in for the compiled SLB the real
//! system loads) plus the simulated behaviour that runs inside the
//! protected session. The behaviour interacts with the trusted world
//! exclusively through [`PalCtx`]: sealing, unsealing, randomness,
//! measuring inputs, modelling compute time, and persisting state.

use sea_crypto::Sha1Digest;
use sea_hw::{CpuId, SimDuration};
use sea_tpm::{PcrIndex, SePcrHandle, SealedBlob, Tpm};

use crate::error::SeaError;

/// How a PAL invocation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PalOutcome {
    /// The PAL finished its task; the bytes are its output, handed to
    /// untrusted code after the protected session is torn down.
    Exit(Vec<u8>),
    /// The PAL voluntarily yields the CPU (`SYIELD`, proposed hardware
    /// only, §5.3.1) — e.g. to wait for data from disk or network. Its
    /// state stays protected; the OS resumes it later.
    Yield,
}

/// A Piece of Application Logic.
pub trait PalLogic {
    /// Human-readable PAL name.
    fn name(&self) -> &str;

    /// The canonical measured image. Two PALs are "the same code" to the
    /// attestation machinery exactly when their images are equal.
    fn image(&self) -> Vec<u8>;

    /// Runs (or resumes) the PAL inside a protected session.
    ///
    /// # Errors
    ///
    /// Implementations propagate [`SeaError`] from [`PalCtx`] operations
    /// or return [`SeaError::PalFailed`] for application-level failures.
    fn run(&mut self, ctx: &mut PalCtx<'_>) -> Result<PalOutcome, SeaError>;
}

/// A [`PalLogic`] built from a closure — the quickest way to define PALs
/// in examples and tests.
///
/// # Example
///
/// ```
/// use sea_core::{FnPal, PalLogic, PalOutcome};
/// use sea_hw::SimDuration;
///
/// let pal = FnPal::new("worker", |ctx| {
///     ctx.work(SimDuration::from_ms(1));
///     Ok(PalOutcome::Exit(vec![42]))
/// })
/// .with_image_size(64 * 1024); // pad the measured image to 64 KB
/// assert_eq!(pal.image().len(), 64 * 1024);
/// ```
pub struct FnPal<F> {
    name: String,
    image: Vec<u8>,
    f: F,
}

impl<F> FnPal<F>
where
    F: FnMut(&mut PalCtx<'_>) -> Result<PalOutcome, SeaError>,
{
    /// Creates a PAL with an image derived canonically from its name.
    pub fn new(name: &str, f: F) -> Self {
        let mut image = b"PAL-IMAGE:".to_vec();
        image.extend_from_slice(name.as_bytes());
        FnPal {
            name: name.to_owned(),
            image,
            f,
        }
    }

    /// Pads (or truncates) the measured image to exactly `len` bytes —
    /// used by the Table 1 benches that sweep PAL size.
    pub fn with_image_size(mut self, len: usize) -> Self {
        self.image.resize(len, 0x90); // x86 NOP sled, in spirit
        self
    }
}

impl<F> std::fmt::Debug for FnPal<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnPal")
            .field("name", &self.name)
            .field("image_len", &self.image.len())
            .finish_non_exhaustive()
    }
}

impl<F> PalLogic for FnPal<F>
where
    F: FnMut(&mut PalCtx<'_>) -> Result<PalOutcome, SeaError>,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn image(&self) -> Vec<u8> {
        self.image.clone()
    }

    fn run(&mut self, ctx: &mut PalCtx<'_>) -> Result<PalOutcome, SeaError> {
        (self.f)(ctx)
    }
}

/// How seal/unseal requests from the PAL are bound to its identity.
#[derive(Debug, Clone)]
pub(crate) enum SealBinding {
    /// Baseline: bound to the dynamic PCR(s) holding the PAL measurement
    /// (PCR 17 on AMD; 17 + 18 on Intel).
    Pcrs(Vec<PcrIndex>),
    /// Proposed: bound to the PAL's sePCR, addressed through the handle
    /// held by the CPU executing it.
    SePcr { handle: SePcrHandle, cpu: CpuId },
}

/// The PAL's window into the trusted world during one invocation.
///
/// Every operation's virtual-time cost is accumulated and folded into the
/// session's [`crate::SessionReport`].
pub struct PalCtx<'a> {
    tpm: Option<&'a mut Tpm>,
    binding: Option<SealBinding>,
    input: &'a [u8],
    state: Vec<u8>,
    pub(crate) seal_cost: SimDuration,
    pub(crate) unseal_cost: SimDuration,
    pub(crate) tpm_other_cost: SimDuration,
    pub(crate) work_done: SimDuration,
}

impl std::fmt::Debug for PalCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PalCtx")
            .field("input_len", &self.input.len())
            .field("state_len", &self.state.len())
            .field("work_done", &self.work_done)
            .finish_non_exhaustive()
    }
}

impl<'a> PalCtx<'a> {
    pub(crate) fn new(
        tpm: Option<&'a mut Tpm>,
        binding: Option<SealBinding>,
        input: &'a [u8],
        state: Vec<u8>,
    ) -> Self {
        PalCtx {
            tpm,
            binding,
            input,
            state,
            seal_cost: SimDuration::ZERO,
            unseal_cost: SimDuration::ZERO,
            tpm_other_cost: SimDuration::ZERO,
            work_done: SimDuration::ZERO,
        }
    }

    pub(crate) fn into_state(self) -> Vec<u8> {
        self.state
    }

    /// The input bytes untrusted code passed into this invocation.
    pub fn input(&self) -> &[u8] {
        self.input
    }

    /// The PAL's in-region persistent state (survives suspend/resume on
    /// proposed hardware; empty on every fresh baseline launch — baseline
    /// PALs persist state via [`PalCtx::seal`], which is exactly the
    /// overhead the paper measures).
    pub fn state(&self) -> &[u8] {
        &self.state
    }

    /// Replaces the persistent state.
    pub fn set_state(&mut self, state: Vec<u8>) {
        self.state = state;
    }

    /// Models `d` of application-specific compute.
    pub fn work(&mut self, d: SimDuration) {
        self.work_done += d;
    }

    fn require_tpm(&mut self) -> Result<(&mut Tpm, &SealBinding), SeaError> {
        match (&mut self.tpm, &self.binding) {
            (Some(tpm), Some(binding)) => Ok((tpm, binding)),
            _ => Err(SeaError::NoTpm),
        }
    }

    /// Seals `data` to this PAL's identity: only the same PAL (same
    /// measured image), launched through a genuine late launch, can
    /// unseal it — in this or any future session.
    ///
    /// # Errors
    ///
    /// [`SeaError::NoTpm`] on TPM-less platforms; [`SeaError::Tpm`] on
    /// TPM failure.
    pub fn seal(&mut self, data: &[u8]) -> Result<SealedBlob, SeaError> {
        let (tpm, binding) = self.require_tpm()?;
        let timed = match binding {
            SealBinding::Pcrs(selection) => tpm.seal(data, selection)?,
            SealBinding::SePcr { handle, cpu } => tpm.sepcr_seal(*handle, *cpu, data)?,
        };
        self.seal_cost += timed.elapsed;
        Ok(timed.value)
    }

    /// Unseals a blob previously sealed by this PAL.
    ///
    /// # Errors
    ///
    /// [`SeaError::Tpm`] with [`sea_tpm::TpmError::WrongPcrState`] if the
    /// blob belongs to different code, plus the variants of
    /// [`PalCtx::seal`].
    pub fn unseal(&mut self, blob: &SealedBlob) -> Result<Vec<u8>, SeaError> {
        let (tpm, binding) = self.require_tpm()?;
        let timed = match binding {
            SealBinding::Pcrs(_) => tpm.unseal(blob)?,
            SealBinding::SePcr { handle, cpu } => tpm.sepcr_unseal(*handle, *cpu, blob)?,
        };
        self.unseal_cost += timed.elapsed;
        Ok(timed.value)
    }

    /// Extends a measurement of this invocation's inputs into the PAL's
    /// measurement chain, making the inputs part of what attestations
    /// report.
    ///
    /// # Errors
    ///
    /// As for [`PalCtx::seal`].
    pub fn measure_input(&mut self, digest: &Sha1Digest) -> Result<(), SeaError> {
        let (tpm, binding) = self.require_tpm()?;
        let elapsed = match binding {
            SealBinding::Pcrs(selection) => {
                let target = *selection.last().expect("nonempty selection");
                tpm.extend(target, digest)?.elapsed
            }
            SealBinding::SePcr { handle, cpu } => tpm.sepcr_extend(*handle, *cpu, digest)?.elapsed,
        };
        self.tpm_other_cost += elapsed;
        Ok(())
    }

    /// Draws `n` random bytes from the TPM (`TPM_GetRandom`).
    ///
    /// # Errors
    ///
    /// [`SeaError::NoTpm`] on TPM-less platforms.
    pub fn random(&mut self, n: usize) -> Result<Vec<u8>, SeaError> {
        let tpm = self.tpm.as_deref_mut().ok_or(SeaError::NoTpm)?;
        let timed = tpm.get_random(n);
        self.tpm_other_cost += timed.elapsed;
        Ok(timed.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_hw::TpmKind;
    use sea_tpm::KeyStrength;

    fn tpm() -> Tpm {
        Tpm::new(TpmKind::Broadcom, KeyStrength::Demo512, b"palctx tpm").with_sepcrs(2)
    }

    #[test]
    fn fnpal_image_is_canonical_and_sizable() {
        let a = FnPal::new("x", |_| Ok(PalOutcome::Yield));
        let b = FnPal::new("x", |_| Ok(PalOutcome::Yield));
        assert_eq!(a.image(), b.image());
        assert_ne!(
            a.image(),
            FnPal::new("y", |_| Ok(PalOutcome::Yield)).image()
        );
        let sized = a.with_image_size(1000);
        assert_eq!(sized.image().len(), 1000);
        assert_eq!(sized.name(), "x");
    }

    #[test]
    fn ctx_work_and_state_accumulate() {
        let mut ctx = PalCtx::new(None, None, b"in", vec![9]);
        assert_eq!(ctx.input(), b"in");
        assert_eq!(ctx.state(), &[9]);
        ctx.work(SimDuration::from_ms(2));
        ctx.work(SimDuration::from_ms(3));
        assert_eq!(ctx.work_done, SimDuration::from_ms(5));
        ctx.set_state(vec![1, 2]);
        assert_eq!(ctx.into_state(), vec![1, 2]);
    }

    #[test]
    fn ctx_without_tpm_rejects_tpm_ops() {
        let mut ctx = PalCtx::new(None, None, b"", Vec::new());
        assert_eq!(ctx.seal(b"x").unwrap_err(), SeaError::NoTpm);
        assert_eq!(ctx.random(4).unwrap_err(), SeaError::NoTpm);
        assert_eq!(ctx.measure_input(&[0u8; 20]).unwrap_err(), SeaError::NoTpm);
    }

    #[test]
    fn legacy_binding_seals_to_pcrs() {
        let mut t = tpm();
        t.hash_start(sea_tpm::Locality::Cpu).unwrap();
        t.hash_data(b"the pal").unwrap();
        t.hash_end().unwrap();

        let blob;
        {
            let mut ctx = PalCtx::new(
                Some(&mut t),
                Some(SealBinding::Pcrs(vec![PcrIndex(17)])),
                b"",
                Vec::new(),
            );
            blob = ctx.seal(b"secret").unwrap();
            assert_eq!(ctx.unseal(&blob).unwrap(), b"secret");
            assert!(ctx.seal_cost > SimDuration::ZERO);
            assert!(ctx.unseal_cost > SimDuration::ZERO);
        }
        // After different code runs (PCR 17 re-extended), unseal fails.
        t.extend(PcrIndex(17), &sea_crypto::Sha1::digest(b"other"))
            .unwrap();
        let mut ctx2 = PalCtx::new(
            Some(&mut t),
            Some(SealBinding::Pcrs(vec![PcrIndex(17)])),
            b"",
            Vec::new(),
        );
        assert!(matches!(
            ctx2.unseal(&blob),
            Err(SeaError::Tpm(sea_tpm::TpmError::WrongPcrState))
        ));
    }

    #[test]
    fn sepcr_binding_seals_to_handle() {
        let mut t = tpm();
        let h = t.slaunch_measure(b"pal image", CpuId(0)).unwrap().value;
        let mut ctx = PalCtx::new(
            Some(&mut t),
            Some(SealBinding::SePcr {
                handle: h,
                cpu: CpuId(0),
            }),
            b"",
            Vec::new(),
        );
        let blob = ctx.seal(b"state").unwrap();
        assert!(blob.is_sepcr_bound());
        assert_eq!(ctx.unseal(&blob).unwrap(), b"state");
    }

    #[test]
    fn measure_input_changes_chain() {
        let mut t = tpm();
        let h = t.slaunch_measure(b"pal image", CpuId(0)).unwrap().value;
        let before = t.sepcrs().read_exclusive(h, CpuId(0)).unwrap();
        let mut ctx = PalCtx::new(
            Some(&mut t),
            Some(SealBinding::SePcr {
                handle: h,
                cpu: CpuId(0),
            }),
            b"",
            Vec::new(),
        );
        ctx.measure_input(&sea_crypto::Sha1::digest(b"input file"))
            .unwrap();
        assert!(ctx.tpm_other_cost > SimDuration::ZERO);
        drop(ctx);
        assert_ne!(t.sepcrs().read_exclusive(h, CpuId(0)).unwrap(), before);
    }

    #[test]
    fn random_draws_are_timed() {
        let mut t = tpm();
        let mut ctx = PalCtx::new(Some(&mut t), None, b"", Vec::new());
        let r = ctx.random(16).unwrap();
        assert_eq!(r.len(), 16);
        assert!(ctx.tpm_other_cost > SimDuration::ZERO);
    }
}
