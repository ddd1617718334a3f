//! [`SecurePlatform`]: a machine plus its TPM, with the late-launch
//! primitive both SEA generations build on.

use sea_crypto::Sha1;
use sea_hw::{
    CpuId, LateLaunchModel, Layer, Machine, Obs, PageRange, Platform, SimDuration, TpmKind,
};
use sea_tpm::{KeyStrength, Locality, PcrIndex, PcrValue, Tpm};

use crate::error::SeaError;

/// Synthetic stand-in for Intel's signed Authenticated Code Module. Its
/// ~10 KB transfer and signature check are folded into the platform's
/// calibrated fixed `SENTER` cost; only its measurement (→ PCR 17)
/// matters functionally.
const ACMOD_IMAGE: &[u8] = b"INTEL-ACMOD-SINIT-v1";

/// Outcome and cost breakdown of one late launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LateLaunch {
    /// CPU trusted-state initialization cost (< 10 µs, §4.3.1).
    pub cpu_init: SimDuration,
    /// PAL transfer + hashing cost (LPC/TPM on AMD; ACMod + CPU-side
    /// SHA-1 on Intel).
    pub transfer_hash: SimDuration,
    /// The PCR(s) now holding the launch measurement — `[17]` on AMD,
    /// `[17, 18]` on Intel — empty on TPM-less machines.
    pub measured_pcrs: Vec<PcrIndex>,
    /// Value of the PCR holding the *PAL* measurement, if a TPM exists.
    pub pal_pcr_value: Option<PcrValue>,
}

impl LateLaunch {
    /// Total late-launch latency (the quantity Table 1 reports).
    pub fn total(&self) -> SimDuration {
        self.cpu_init + self.transfer_hash
    }
}

/// A [`Machine`] with its (optional) TPM: the trusted computing base of
/// Figure 1.
#[derive(Debug, Clone)]
pub struct SecurePlatform {
    machine: Machine,
    tpm: Option<Tpm>,
}

impl SecurePlatform {
    /// Builds the platform, constructing a TPM of the platform's chip
    /// kind (with the platform's sePCR count) when one is installed.
    ///
    /// # Example
    ///
    /// ```
    /// use sea_core::SecurePlatform;
    /// use sea_hw::Platform;
    /// use sea_tpm::KeyStrength;
    ///
    /// let p = SecurePlatform::new(Platform::hp_dc5750(), KeyStrength::Demo512, b"seed");
    /// assert!(p.tpm().is_some());
    /// let tyan = SecurePlatform::new(Platform::tyan_n3600r(), KeyStrength::Demo512, b"seed");
    /// assert!(tyan.tpm().is_none());
    /// ```
    pub fn new(platform: Platform, strength: KeyStrength, seed: &[u8]) -> Self {
        let tpm = if platform.tpm_kind.is_present() {
            Some(Tpm::new(platform.tpm_kind, strength, seed).with_sepcrs(platform.sepcr_count))
        } else {
            None
        };
        SecurePlatform {
            machine: Machine::new(platform),
            tpm,
        }
    }

    /// Builds the platform around a *pre-provisioned* TPM — the fleet
    /// path, where per-platform identity keys are generated once by a
    /// key vault and injected via [`Tpm::with_keys`] instead of being
    /// re-derived on every construction.
    ///
    /// The TPM is re-equipped with the platform's sePCR count, so the
    /// proposed-hardware capability still follows the [`Platform`]
    /// preset exactly as in [`SecurePlatform::new`].
    pub fn with_tpm(platform: Platform, tpm: Tpm) -> Self {
        let tpm = tpm.with_sepcrs(platform.sepcr_count);
        SecurePlatform {
            machine: Machine::new(platform),
            tpm: Some(tpm),
        }
    }

    /// The live machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the live machine.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The TPM, if installed.
    pub fn tpm(&self) -> Option<&Tpm> {
        self.tpm.as_ref()
    }

    /// Mutable access to the TPM, if installed.
    pub fn tpm_mut(&mut self) -> Option<&mut Tpm> {
        self.tpm.as_mut()
    }

    /// The TPM or [`SeaError::NoTpm`].
    ///
    /// # Errors
    ///
    /// [`SeaError::NoTpm`] when the platform has no TPM.
    pub(crate) fn require_tpm(&mut self) -> Result<&mut Tpm, SeaError> {
        self.tpm.as_mut().ok_or(SeaError::NoTpm)
    }

    /// Splits the platform into machine and TPM views (for callers that
    /// need both mutably).
    pub(crate) fn parts_mut(&mut self) -> (&mut Machine, Option<&mut Tpm>) {
        (&mut self.machine, self.tpm.as_mut())
    }

    /// Installs the observability handle into the machine, through which
    /// every charge site in this crate attributes latency. Deliberately
    /// *not* installed into the TPM: on a full platform, TPM command
    /// costs are attributed at the caller's charge sites (where exact
    /// accounting against the clock is guaranteed); the TPM's own hook
    /// is for bare-chip benchmarks.
    pub fn install_obs(&mut self, obs: Obs) {
        self.machine.install_obs(obs);
    }

    /// Simulates a power cycle: machine state persists (memory is not
    /// modelled as cleared), the TPM applies reboot PCR semantics.
    pub fn reboot(&mut self) {
        if let Some(tpm) = &mut self.tpm {
            tpm.reboot();
        }
    }

    /// A full power loss and reboot: the machine rebuilds its volatile
    /// half ([`Machine::reset`] — CPUs, controller access-control table)
    /// and the TPM applies v1.2 platform-reset semantics (static PCRs
    /// → 0, dynamic → −1, every sePCR freed, lock and transient session
    /// state cleared; NVRAM untouched). Returns the reboot's virtual
    /// cost, already added to the machine clock.
    pub(crate) fn power_cycle(&mut self) -> SimDuration {
        let cost = self.machine.reset();
        if let Some(tpm) = &mut self.tpm {
            tpm.reboot();
        }
        cost
    }

    /// Pure cost model for a late launch of `image_len` bytes on this
    /// platform — the quantity swept by the Table 1 bench. Performs no
    /// state changes.
    pub fn late_launch_cost(&self, image_len: usize) -> SimDuration {
        match self.machine.platform().late_launch {
            LateLaunchModel::AmdSkinit { cpu_init } => {
                let transfer = match &self.tpm {
                    // SKINIT streams the SLB through the TPM, paying its
                    // LPC long wait cycles (~2.71 µs/B on 2007 chips).
                    Some(tpm) => tpm.timing().hash_time(image_len),
                    // No TPM: raw LPC transfer (~134.6 ns/B measured).
                    None => self.machine.lpc().transfer_time(image_len),
                };
                cpu_init + transfer
            }
            LateLaunchModel::IntelSenter {
                acmod_cost,
                cpu_hash_ns_per_byte,
            } => acmod_cost + SimDuration::from_ns_f64(image_len as f64 * cpu_hash_ns_per_byte),
        }
    }

    /// Executes a late launch (`SKINIT`/`SENTER`) of the image stored in
    /// `slb` (`image_len` bytes from its base):
    ///
    /// 1. programs DEV/MPT DMA protection over the region (§2.2.1),
    /// 2. reinitializes the CPU to the trusted state with interrupts off,
    /// 3. resets the dynamic PCRs and measures the image into PCR 17
    ///    (AMD) or PCRs 17+18 (Intel ACMod + PAL), and
    /// 4. advances the machine clock by the calibrated cost.
    ///
    /// # Errors
    ///
    /// [`SeaError::Hw`] for bad CPU/region; [`SeaError::NoTpm`] for
    /// `SENTER` without a TPM (the ACMod handshake requires one).
    pub fn late_launch(
        &mut self,
        cpu: CpuId,
        slb: PageRange,
        image_len: usize,
    ) -> Result<LateLaunch, SeaError> {
        if image_len > slb.byte_len() {
            return Err(SeaError::RegionTooSmall {
                needed: image_len,
                available: slb.byte_len(),
            });
        }
        let image = self.machine.memory().read_raw(slb.base_addr(), image_len)?;
        self.machine.controller_mut().set_dev(slb, true)?;
        self.machine.cpu_mut(cpu)?.enter_secure(slb.base_addr());

        let (launch, transfer_attr) = match self.machine.platform().late_launch {
            LateLaunchModel::AmdSkinit { cpu_init } => {
                let (transfer, pal_value, pcrs, attr) = match &mut self.tpm {
                    Some(tpm) => {
                        tpm.hash_start(Locality::Cpu)?;
                        let t = tpm.hash_data(&image)?.elapsed;
                        let v = tpm.hash_end()?.value;
                        (
                            t,
                            Some(v),
                            vec![PcrIndex(17)],
                            (Layer::Tpm, "tpm.hash_image"),
                        )
                    }
                    None => (
                        self.machine.lpc().transfer_time(image.len()),
                        None,
                        Vec::new(),
                        (Layer::Hw, "hw.lpc_transfer"),
                    ),
                };
                (
                    LateLaunch {
                        cpu_init,
                        transfer_hash: transfer,
                        measured_pcrs: pcrs,
                        pal_pcr_value: pal_value,
                    },
                    attr,
                )
            }
            LateLaunchModel::IntelSenter {
                acmod_cost,
                cpu_hash_ns_per_byte,
            } => {
                let tpm = self.tpm.as_mut().ok_or(SeaError::NoTpm)?;
                // ACMod: verified by the chipset, hashed into PCR 17.
                tpm.hash_start(Locality::Cpu)?;
                tpm.hash_data(ACMOD_IMAGE)?;
                tpm.hash_end()?;
                // The ACMod hashes the PAL on the main CPU and extends
                // only the 20-byte digest into PCR 18 (§4.3.2).
                let pal_digest = Sha1::digest(&image);
                let v = tpm.extend(PcrIndex(18), &pal_digest)?.value;
                (
                    LateLaunch {
                        cpu_init: SimDuration::ZERO,
                        transfer_hash: acmod_cost
                            + SimDuration::from_ns_f64(image.len() as f64 * cpu_hash_ns_per_byte),
                        measured_pcrs: vec![PcrIndex(17), PcrIndex(18)],
                        pal_pcr_value: Some(v),
                    },
                    (Layer::Hw, "hw.senter_acmod"),
                )
            }
        };
        // Charge the launch as attributed leaf spans whose sum is exactly
        // `launch.total()` — CPU trusted-state init on the hw layer, the
        // transfer+hash on whichever component dominated it.
        self.machine
            .charge(Layer::Hw, "hw.cpu_init", launch.cpu_init);
        self.machine
            .charge(transfer_attr.0, transfer_attr.1, launch.transfer_hash);
        Ok(launch)
    }

    /// Tears down a late-launch session: re-enables interrupts, clears
    /// the secure-execution CPU state, lifts the region's DMA protection.
    ///
    /// # Errors
    ///
    /// [`SeaError::Hw`] for a bad CPU or region.
    pub(crate) fn late_launch_exit(&mut self, cpu: CpuId, slb: PageRange) -> Result<(), SeaError> {
        self.machine.cpu_mut(cpu)?.leave_secure();
        self.machine.controller_mut().set_dev(slb, false)?;
        Ok(())
    }

    /// Whether this platform implements the paper's proposed hardware.
    pub fn supports_slaunch(&self) -> bool {
        self.machine.platform().supports_slaunch
    }

    /// Expected PCR-17 chain for an AMD launch of `image`, or the PCR-18
    /// chain on Intel — what a verifier should compare quotes against.
    pub fn expected_pal_chain(image: &[u8]) -> PcrValue {
        PcrValue::ZERO.extended(&Sha1::digest(image))
    }

    /// Expected PCR-17 chain on Intel platforms (the ACMod measurement).
    pub(crate) fn expected_acmod_chain() -> PcrValue {
        PcrValue::ZERO.extended(&Sha1::digest(ACMOD_IMAGE))
    }

    /// Convenience: does this platform's TPM chip match `kind`?
    pub fn tpm_kind(&self) -> TpmKind {
        self.machine.platform().tpm_kind
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_hw::{PageIndex, PhysAddr, Requester};

    fn platform(p: Platform) -> SecurePlatform {
        SecurePlatform::new(p, KeyStrength::Demo512, b"platform test")
    }

    fn stage_image(p: &mut SecurePlatform, range: PageRange, image: &[u8]) {
        p.machine_mut()
            .memory_mut()
            .write_raw(range.base_addr(), image)
            .unwrap();
    }

    #[test]
    fn table1_cost_model_amd_with_tpm() {
        let p = platform(Platform::hp_dc5750());
        let t = p.late_launch_cost(64 * 1024);
        assert!((t.as_ms_f64() - 177.52).abs() < 0.2, "got {t}");
        let t0 = p.late_launch_cost(0);
        assert!(t0.as_ms_f64() < 0.01, "0 KB should be ~0: {t0}");
    }

    #[test]
    fn table1_cost_model_amd_without_tpm() {
        let p = platform(Platform::tyan_n3600r());
        let t = p.late_launch_cost(64 * 1024);
        assert!((t.as_ms_f64() - 8.83).abs() < 0.05, "got {t}");
    }

    #[test]
    fn table1_cost_model_intel() {
        let p = platform(Platform::intel_tep());
        let t0 = p.late_launch_cost(0);
        assert!((t0.as_ms_f64() - 26.39).abs() < 0.01, "got {t0}");
        let t64 = p.late_launch_cost(64 * 1024);
        assert!((t64.as_ms_f64() - 34.35).abs() < 0.1, "got {t64}");
    }

    #[test]
    fn amd_late_launch_measures_into_pcr17() {
        let mut p = platform(Platform::hp_dc5750());
        let range = PageRange::new(PageIndex(8), 2);
        stage_image(&mut p, range, b"pal image bytes");
        let launch = p.late_launch(CpuId(0), range, 15).unwrap();
        assert_eq!(launch.measured_pcrs, vec![PcrIndex(17)]);
        let expected = SecurePlatform::expected_pal_chain(b"pal image bytes");
        assert_eq!(launch.pal_pcr_value, Some(expected));
        assert_eq!(
            p.tpm().unwrap().pcrs().read(PcrIndex(17)).unwrap(),
            expected
        );
        // CPU is in secure execution with interrupts off.
        let cpu = p.machine().cpu(CpuId(0)).unwrap();
        assert!(cpu.in_secure_exec());
        assert!(!cpu.interrupts_enabled());
        // DMA to the SLB is blocked by the DEV.
        assert!(p
            .machine()
            .dma_read(sea_hw::DeviceId(0), range.base_addr(), 4)
            .is_err());
        // Clock advanced by the launch cost.
        assert!(p.machine().now().as_ns() > 0);
    }

    #[test]
    fn intel_late_launch_measures_acmod_and_pal() {
        let mut p = platform(Platform::intel_tep());
        let range = PageRange::new(PageIndex(8), 2);
        stage_image(&mut p, range, b"pal");
        let launch = p.late_launch(CpuId(0), range, 3).unwrap();
        assert_eq!(launch.measured_pcrs, vec![PcrIndex(17), PcrIndex(18)]);
        let tpm = p.tpm().unwrap();
        assert_eq!(
            tpm.pcrs().read(PcrIndex(17)).unwrap(),
            SecurePlatform::expected_acmod_chain()
        );
        assert_eq!(
            tpm.pcrs().read(PcrIndex(18)).unwrap(),
            SecurePlatform::expected_pal_chain(b"pal")
        );
    }

    #[test]
    fn tpmless_launch_has_no_measurement() {
        let mut p = platform(Platform::tyan_n3600r());
        let range = PageRange::new(PageIndex(8), 2);
        stage_image(&mut p, range, b"pal");
        let launch = p.late_launch(CpuId(0), range, 3).unwrap();
        assert!(launch.measured_pcrs.is_empty());
        assert!(launch.pal_pcr_value.is_none());
    }

    #[test]
    fn exit_restores_cpu_and_dma() {
        let mut p = platform(Platform::hp_dc5750());
        let range = PageRange::new(PageIndex(8), 2);
        stage_image(&mut p, range, b"pal");
        p.late_launch(CpuId(0), range, 3).unwrap();
        p.late_launch_exit(CpuId(0), range).unwrap();
        assert!(!p.machine().cpu(CpuId(0)).unwrap().in_secure_exec());
        assert!(p
            .machine()
            .dma_read(sea_hw::DeviceId(0), range.base_addr(), 1)
            .is_ok());
    }

    #[test]
    fn oversized_image_rejected() {
        let mut p = platform(Platform::hp_dc5750());
        let range = PageRange::new(PageIndex(8), 1);
        assert!(matches!(
            p.late_launch(CpuId(0), range, 5000),
            Err(SeaError::RegionTooSmall { .. })
        ));
    }

    #[test]
    fn reboot_resets_dynamic_pcrs() {
        let mut p = platform(Platform::hp_dc5750());
        let range = PageRange::new(PageIndex(8), 1);
        stage_image(&mut p, range, b"pal");
        p.late_launch(CpuId(0), range, 3).unwrap();
        p.reboot();
        assert_eq!(
            p.tpm().unwrap().pcrs().read(PcrIndex(17)).unwrap(),
            PcrValue::MINUS_ONE
        );
    }

    #[test]
    fn power_cycle_clears_cpu_state_and_charges_reboot_cost() {
        let mut p = platform(Platform::hp_dc5750());
        let range = PageRange::new(PageIndex(8), 1);
        stage_image(&mut p, range, b"pal");
        p.late_launch(CpuId(0), range, 3).unwrap();
        let before = p.machine().now();
        let cost = p.power_cycle();
        assert_eq!(cost, sea_hw::RESET_REBOOT_COST);
        assert_eq!(p.machine().now(), before + cost);
        // Volatile machine state is rebuilt from scratch...
        assert!(!p.machine().cpu(CpuId(0)).unwrap().in_secure_exec());
        assert!(p
            .machine()
            .dma_read(sea_hw::DeviceId(0), range.base_addr(), 1)
            .is_ok());
        // ...and the TPM applied reboot semantics.
        assert_eq!(
            p.tpm().unwrap().pcrs().read(PcrIndex(17)).unwrap(),
            PcrValue::MINUS_ONE
        );
    }

    #[test]
    fn unchecked_memory_write_visible_to_cpu_read() {
        // Sanity of the staging helper used by higher layers.
        let mut p = platform(Platform::hp_dc5750());
        stage_image(&mut p, PageRange::new(PageIndex(4), 1), b"abc");
        let data = p
            .machine()
            .read(Requester::Cpu(CpuId(0)), PhysAddr(4 * 4096), 3)
            .unwrap();
        assert_eq!(data, b"abc");
    }
}
