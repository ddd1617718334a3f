//! Platform presets for every machine the paper measures, plus the
//! paper's recommended hardware.
//!
//! Calibration sources (all from the paper):
//!
//! * **Table 1** — `SKINIT`/`SENTER` latency vs PAL size on the
//!   HP dc5750 (AMD + Broadcom TPM), Tyan n3600R (AMD, no TPM) and the
//!   MPC ClientPro "TEP" (Intel + Atmel TPM). The fitted constants are:
//!   dc5750 ≈ 2708.7 ns/B (TPM long-wait dominated), Tyan ≈ 134.6 ns/B
//!   (bare LPC), TEP = 26.39 ms fixed ACMod cost + 121.45 ns/B of
//!   CPU-side SHA-1.
//! * **Table 2** — VM entry/exit: AMD 0.5580/0.5193 µs,
//!   Intel 0.4457/0.4491 µs.
//! * **§4.3** — machine inventory: 2.2 GHz Athlon64 X2 (dc5750), dual
//!   1.8 GHz dual-core Opterons (Tyan), 2.66 GHz Core 2 Duo (TEP).

use crate::time::SimDuration;
use crate::types::CpuId;

/// CPU vendor, selecting the late-launch flavour and VM-switch costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuVendor {
    /// AMD: `SKINIT`, Secure Virtual Machine (SVM), DEV protection.
    Amd,
    /// Intel: `SENTER` (GETSEC leaf), TXT, ACMod + MPT protection.
    Intel,
}

/// Which discrete TPM chip (if any) is soldered to the platform.
///
/// The actual per-command timing model lives in `sea-tpm`; this enum is
/// the platform-level name binding the two crates together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpmKind {
    /// Broadcom v1.2 TPM in the HP dc5750 (the paper's primary machine).
    Broadcom,
    /// Atmel v1.2 TPM in the Lenovo T60 laptop.
    AtmelT60,
    /// Atmel v1.2 TPM in the Intel TEP (different model than the T60's).
    AtmelTep,
    /// Infineon v1.2 TPM in an AMD workstation (best average performer).
    Infineon,
    /// A hypothetical future TPM operating at full LPC bus speed with a
    /// hardware-pipelined engine — used by the §5.7 speed-up ablation.
    FutureFast,
    /// No TPM installed (the Tyan n3600R configuration).
    None,
}

impl TpmKind {
    /// Whether a TPM chip is actually present.
    pub fn is_present(self) -> bool {
        self != TpmKind::None
    }
}

/// How this platform performs a late launch, with calibrated costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LateLaunchModel {
    /// AMD `SKINIT`: the CPU sends the whole SLB to the TPM, which hashes
    /// it (costs are therefore TPM-rate dominated; see `sea-tpm`).
    AmdSkinit {
        /// Time to put the CPU into the trusted state with protections
        /// enabled ("less than 10 µs", §4.3.1).
        cpu_init: SimDuration,
    },
    /// Intel `SENTER`: the chipset ships the ~10 KB ACMod to the TPM and
    /// verifies its signature (a fixed cost), then the ACMod hashes the
    /// PAL *on the main CPU* and extends only the 20-byte digest.
    IntelSenter {
        /// Fixed cost: ACMod transfer + TPM hashing + signature
        /// verification (26.39 ms measured for a 0 KB PAL).
        acmod_cost: SimDuration,
        /// CPU-side SHA-1 rate over the PAL (fitted 121.45 ns/B).
        cpu_hash_ns_per_byte: f64,
    },
}

/// VM entry/exit micro-costs (Table 2), used both as a baseline reference
/// and as the cost of the proposed `SLAUNCH` resume path (§5.7 argues the
/// proposed context switch should cost about a VM entry/exit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtTiming {
    /// Cost of VM entry (`VMRUN` / `VMRESUME`).
    pub vm_enter: SimDuration,
    /// Cost of VM exit.
    pub vm_exit: SimDuration,
}

impl VirtTiming {
    /// Table 2 row for AMD SVM (Tyan n3600R, 1.8 GHz Opteron).
    pub fn amd() -> Self {
        VirtTiming {
            vm_enter: SimDuration::from_ns(558),
            vm_exit: SimDuration::from_ns(519),
        }
    }

    /// Table 2 row for Intel TXT (MPC ClientPro 385, 2.66 GHz Core 2 Duo).
    pub fn intel() -> Self {
        VirtTiming {
            vm_enter: SimDuration::from_ns(446),
            vm_exit: SimDuration::from_ns(449),
        }
    }
}

/// A complete hardware platform description.
///
/// This is a passive configuration record (all fields public); the
/// [`crate::Machine`] instantiates live state from it.
///
/// # Example
///
/// ```
/// use sea_hw::{CpuVendor, Platform};
///
/// let p = Platform::hp_dc5750();
/// assert_eq!(p.vendor, CpuVendor::Amd);
/// assert_eq!(p.n_cpus, 2);
/// assert!(!p.supports_slaunch);
///
/// let rec = Platform::recommended(8);
/// assert!(rec.supports_slaunch);
/// assert_eq!(rec.n_cpus, 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable platform name, as used in the paper's tables.
    pub name: String,
    /// CPU vendor.
    pub vendor: CpuVendor,
    /// Core clock in GHz.
    pub cpu_ghz: f64,
    /// Number of CPU cores.
    pub n_cpus: u16,
    /// Installed memory in pages.
    pub mem_pages: u32,
    /// Which TPM chip is installed.
    pub tpm_kind: TpmKind,
    /// Effective LPC transfer cost with no TPM wait states (ns/byte).
    pub lpc_ns_per_byte: f64,
    /// Late-launch flavour and calibrated costs.
    pub late_launch: LateLaunchModel,
    /// VM entry/exit costs (Table 2).
    pub virt: VirtTiming,
    /// Whether this platform implements the paper's proposed `SLAUNCH`,
    /// access-control table, and sePCR extensions (§5).
    pub supports_slaunch: bool,
    /// Number of secure-execution PCRs, bounding concurrent PALs (§5.4).
    /// Zero on baseline hardware.
    pub sepcr_count: u16,
}

/// Effective LPC rate measured on the Tyan n3600R (8.82 ms / 64 KB).
pub(crate) const LPC_MEASURED_NS_PER_BYTE: f64 = 134.58;

/// Default installed memory: 16 Ki pages = 64 MiB (ample for PALs).
const DEFAULT_MEM_PAGES: u32 = 16 * 1024;

impl Platform {
    /// The paper's primary test machine: HP dc5750, 2.2 GHz AMD Athlon64
    /// X2 Dual Core 4200+, Broadcom v1.2 TPM.
    pub fn hp_dc5750() -> Self {
        Platform {
            name: "HP dc5750".to_owned(),
            vendor: CpuVendor::Amd,
            cpu_ghz: 2.2,
            n_cpus: 2,
            mem_pages: DEFAULT_MEM_PAGES,
            tpm_kind: TpmKind::Broadcom,
            lpc_ns_per_byte: LPC_MEASURED_NS_PER_BYTE,
            late_launch: LateLaunchModel::AmdSkinit {
                cpu_init: SimDuration::from_us(3),
            },
            virt: VirtTiming::amd(),
            supports_slaunch: false,
            sepcr_count: 0,
        }
    }

    /// Tyan n3600R server board, two 1.8 GHz dual-core Opterons, **no
    /// TPM** — isolates raw `SKINIT` cost from TPM wait states.
    pub fn tyan_n3600r() -> Self {
        Platform {
            name: "Tyan n3600R".to_owned(),
            vendor: CpuVendor::Amd,
            cpu_ghz: 1.8,
            n_cpus: 4,
            mem_pages: DEFAULT_MEM_PAGES,
            tpm_kind: TpmKind::None,
            lpc_ns_per_byte: LPC_MEASURED_NS_PER_BYTE,
            late_launch: LateLaunchModel::AmdSkinit {
                cpu_init: SimDuration::from_us(8),
            },
            virt: VirtTiming::amd(),
            supports_slaunch: false,
            sepcr_count: 0,
        }
    }

    /// MPC ClientPro Advantage 385 TXT Technology Enabling Platform:
    /// 2.66 GHz Core 2 Duo, Atmel v1.2 TPM, DQ965CO board.
    pub fn intel_tep() -> Self {
        Platform {
            name: "Intel TEP".to_owned(),
            vendor: CpuVendor::Intel,
            cpu_ghz: 2.66,
            n_cpus: 2,
            mem_pages: DEFAULT_MEM_PAGES,
            tpm_kind: TpmKind::AtmelTep,
            lpc_ns_per_byte: LPC_MEASURED_NS_PER_BYTE,
            late_launch: LateLaunchModel::IntelSenter {
                acmod_cost: SimDuration::from_ns(26_390_000),
                cpu_hash_ns_per_byte: 121.45,
            },
            virt: VirtTiming::intel(),
            supports_slaunch: false,
            sepcr_count: 0,
        }
    }

    /// The paper's *recommended* hardware (§5): `SLAUNCH`/`SYIELD`/
    /// `SFREE`/`SKILL`, a per-page × per-CPU access-control table,
    /// preemption timers, and a TPM with `sepcr_count` = 2 × cores
    /// secure-execution PCRs.
    pub fn recommended(n_cpus: u16) -> Self {
        assert!(n_cpus > 0, "a platform needs at least one CPU");
        Platform {
            name: format!("Recommended ({n_cpus}-core)"),
            vendor: CpuVendor::Amd,
            cpu_ghz: 2.2,
            n_cpus,
            mem_pages: DEFAULT_MEM_PAGES,
            tpm_kind: TpmKind::FutureFast,
            lpc_ns_per_byte: LPC_MEASURED_NS_PER_BYTE,
            late_launch: LateLaunchModel::AmdSkinit {
                cpu_init: SimDuration::from_us(3),
            },
            virt: VirtTiming::amd(),
            supports_slaunch: true,
            sepcr_count: n_cpus * 2,
        }
    }

    /// All CPU identifiers on this platform.
    pub fn cpu_ids(&self) -> impl Iterator<Item = CpuId> {
        (0..self.n_cpus).map(CpuId)
    }

    /// Overrides the installed memory size (builder-style).
    pub fn with_mem_pages(mut self, pages: u32) -> Self {
        self.mem_pages = pages;
        self
    }

    /// Overrides the number of sePCRs (builder-style); implies `SLAUNCH`
    /// support when nonzero.
    pub fn with_sepcr_count(mut self, count: u16) -> Self {
        self.sepcr_count = count;
        if count > 0 {
            self.supports_slaunch = true;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_inventory() {
        let dc = Platform::hp_dc5750();
        assert_eq!(dc.vendor, CpuVendor::Amd);
        assert!((dc.cpu_ghz - 2.2).abs() < 1e-9);
        assert_eq!(dc.tpm_kind, TpmKind::Broadcom);

        let tyan = Platform::tyan_n3600r();
        assert_eq!(tyan.tpm_kind, TpmKind::None);
        assert_eq!(tyan.n_cpus, 4);

        let tep = Platform::intel_tep();
        assert_eq!(tep.vendor, CpuVendor::Intel);
        assert!(matches!(
            tep.late_launch,
            LateLaunchModel::IntelSenter { .. }
        ));
    }

    #[test]
    fn baseline_platforms_lack_slaunch() {
        for p in [
            Platform::hp_dc5750(),
            Platform::tyan_n3600r(),
            Platform::intel_tep(),
        ] {
            assert!(!p.supports_slaunch, "{}", p.name);
            assert_eq!(p.sepcr_count, 0, "{}", p.name);
        }
    }

    #[test]
    fn recommended_platform_has_proposed_hardware() {
        let p = Platform::recommended(4);
        assert!(p.supports_slaunch);
        assert_eq!(p.sepcr_count, 8);
        assert_eq!(p.cpu_ids().count(), 4);
    }

    #[test]
    fn virt_timing_matches_table2() {
        let amd = VirtTiming::amd();
        assert_eq!(amd.vm_enter, SimDuration::from_ns(558));
        assert_eq!(amd.vm_exit, SimDuration::from_ns(519));
        let intel = VirtTiming::intel();
        assert_eq!(intel.vm_enter, SimDuration::from_ns(446));
        assert_eq!(intel.vm_exit, SimDuration::from_ns(449));
    }

    #[test]
    fn builder_overrides() {
        let p = Platform::hp_dc5750()
            .with_mem_pages(100)
            .with_sepcr_count(3);
        assert_eq!(p.mem_pages, 100);
        assert_eq!(p.sepcr_count, 3);
        assert!(p.supports_slaunch);
    }

    #[test]
    fn tpm_presence() {
        assert!(TpmKind::Broadcom.is_present());
        assert!(!TpmKind::None.is_present());
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn recommended_zero_cpus_panics() {
        let _ = Platform::recommended(0);
    }
}
