//! Per-vendor TPM command latencies, calibrated to Figure 3 and Table 1.
//!
//! The paper benchmarks five operations (PCR Extend, Seal, Quote, Unseal,
//! GetRandom-128B) on four v1.2 TPMs and reports (in prose and Figure 3):
//!
//! * the Broadcom TPM has the **fastest Seal (20.01 ms)** but the
//!   **slowest Quote and Unseal**;
//! * the Infineon TPM has the **best average performance** and an
//!   **Unseal of 390.98 ms**;
//! * switching Broadcom → Infineon saves **1132 ms** on a combined
//!   Quote + Unseal but adds **213 ms** of Seal overhead;
//! * Seal ranges over ≈20–500 ms and Unseal up to ≈900 ms across chips;
//! * the best-per-op composition gives a PAL Use floor of **579.37 ms**
//!   (177 ms SKINIT + 390.98 ms Infineon Unseal + 11.39 ms Broadcom
//!   Seal-of-small-state).
//!
//! The means below satisfy every one of those constraints simultaneously;
//! where Figure 3's exact bar heights are not recoverable from the text,
//! values were chosen to preserve the ordering and ratios (documented in
//! `EXPERIMENTS.md`).

use sea_crypto::Drbg;
use sea_hw::{SimDuration, TpmKind};

/// The TPM operations benchmarked in Figure 3, plus the hash interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpmOp {
    /// `TPM_Extend` — one PCR extension.
    PcrExtend,
    /// `TPM_Seal` under the 2048-bit SRK.
    Seal,
    /// `TPM_Quote` — AIK signature over a PCR composite.
    Quote,
    /// `TPM_Unseal` — SRK private decryption + PCR check.
    Unseal,
    /// `TPM_GetRandom` for 128 bytes.
    GetRandom128,
    /// `TPM_PCR_Read` (fast register read, not shown in Figure 3).
    PcrRead,
}

impl TpmOp {
    /// All Figure 3 operations, in the figure's x-axis order.
    pub const FIGURE3_OPS: [TpmOp; 5] = [
        TpmOp::PcrExtend,
        TpmOp::Seal,
        TpmOp::Quote,
        TpmOp::Unseal,
        TpmOp::GetRandom128,
    ];

    /// Display label as used in Figure 3.
    pub fn label(self) -> &'static str {
        match self {
            TpmOp::PcrExtend => "PCR Extend",
            TpmOp::Seal => "Seal",
            TpmOp::Quote => "Quote",
            TpmOp::Unseal => "Unseal",
            TpmOp::GetRandom128 => "GetRand 128B",
            TpmOp::PcrRead => "PCR Read",
        }
    }
}

/// Latency model for one TPM chip.
///
/// # Example
///
/// ```
/// use sea_tpm::{TpmOp, TpmTimingModel};
/// use sea_hw::TpmKind;
///
/// let broadcom = TpmTimingModel::for_kind(TpmKind::Broadcom);
/// let infineon = TpmTimingModel::for_kind(TpmKind::Infineon);
/// // Broadcom has the fastest Seal but the slowest Unseal (Figure 3).
/// assert!(broadcom.mean(TpmOp::Seal) < infineon.mean(TpmOp::Seal));
/// assert!(broadcom.mean(TpmOp::Unseal) > infineon.mean(TpmOp::Unseal));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpmTimingModel {
    extend_ms: f64,
    seal_ms: f64,
    quote_ms: f64,
    unseal_ms: f64,
    getrandom128_ms: f64,
    /// Effective `TPM_HASH_DATA` cost in ns per byte including LPC long
    /// wait cycles (Table 1: 2708.7 ns/B fitted for the Broadcom chip).
    hash_ns_per_byte: f64,
    /// Relative standard deviation applied to sampled latencies
    /// (Figure 3's error bars over 20 trials are small).
    rel_stddev: f64,
}

/// Fitted `SKINIT` hash rate with a 2007-era TPM attached (Table 1,
/// HP dc5750: 177.52 ms / 64 KiB).
pub(crate) const TPM_HASH_NS_PER_BYTE: f64 = 2708.68;

/// Hash rate of a future TPM running at full LPC bus speed (Table 1,
/// Tyan n3600R: 8.82 ms / 64 KiB): the paper suggests this "may be
/// representative of the performance of future TPMs".
pub(crate) const FAST_HASH_NS_PER_BYTE: f64 = 134.58;

impl TpmTimingModel {
    /// The calibrated model for a given chip.
    ///
    /// # Panics
    ///
    /// Panics for [`TpmKind::None`]: a missing TPM has no timing model.
    pub fn for_kind(kind: TpmKind) -> Self {
        let (extend, seal, quote, unseal, rand, hash) = match kind {
            // Broadcom (HP dc5750): fastest Seal, slowest Quote/Unseal.
            TpmKind::Broadcom => (22.0, 20.01, 880.0, 905.0, 25.0, TPM_HASH_NS_PER_BYTE),
            // Atmel in the Lenovo T60: slow Seal, mid Quote/Unseal.
            TpmKind::AtmelT60 => (12.0, 500.0, 700.0, 800.0, 30.0, TPM_HASH_NS_PER_BYTE),
            // Infineon: best average; Unseal 390.98 ms per the paper.
            TpmKind::Infineon => (8.0, 233.01, 262.0, 390.98, 15.0, TPM_HASH_NS_PER_BYTE),
            // Atmel in the Intel TEP (a different model than the T60's).
            TpmKind::AtmelTep => (25.0, 140.0, 600.0, 650.0, 40.0, TPM_HASH_NS_PER_BYTE),
            // Hypothetical future chip: bus-speed hashing, best-observed
            // command engine (Infineon-class RSA) — used by ablations.
            TpmKind::FutureFast => (8.0, 233.01, 262.0, 390.98, 15.0, FAST_HASH_NS_PER_BYTE),
            TpmKind::None => panic!("TpmKind::None has no timing model"),
        };
        TpmTimingModel {
            extend_ms: extend,
            seal_ms: seal,
            quote_ms: quote,
            unseal_ms: unseal,
            getrandom128_ms: rand,
            hash_ns_per_byte: hash,
            rel_stddev: 0.02,
        }
    }

    /// Mean latency of `op`.
    pub fn mean(&self, op: TpmOp) -> SimDuration {
        let ms = match op {
            TpmOp::PcrExtend => self.extend_ms,
            TpmOp::Seal => self.seal_ms,
            TpmOp::Quote => self.quote_ms,
            TpmOp::Unseal => self.unseal_ms,
            TpmOp::GetRandom128 => self.getrandom128_ms,
            TpmOp::PcrRead => 0.01,
        };
        SimDuration::from_ms_f64(ms)
    }

    /// Samples a latency for `op` with calibrated Gaussian jitter.
    pub fn sample(&self, op: TpmOp, noise: &mut Drbg) -> SimDuration {
        let mean_ms = self.mean(op).as_ms_f64();
        let ms = mean_ms * (1.0 + self.rel_stddev * gaussian(noise));
        SimDuration::from_ms_f64(ms.max(0.0))
    }

    /// `TPM_HASH_DATA` cost for `bytes` bytes (the `SKINIT` rate).
    pub fn hash_time(&self, bytes: usize) -> SimDuration {
        SimDuration::from_ns_f64(bytes as f64 * self.hash_ns_per_byte)
    }

    /// A model with every command `factor`× faster (the §5.7 "just make
    /// the TPM faster" ablation).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn sped_up(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "speed-up factor must be positive");
        TpmTimingModel {
            extend_ms: self.extend_ms / factor,
            seal_ms: self.seal_ms / factor,
            quote_ms: self.quote_ms / factor,
            unseal_ms: self.unseal_ms / factor,
            getrandom128_ms: self.getrandom128_ms / factor,
            hash_ns_per_byte: self.hash_ns_per_byte / factor,
            rel_stddev: self.rel_stddev,
        }
    }

    /// Average of the five Figure 3 operation means — the metric by which
    /// the paper calls the Infineon "the best average performance".
    #[cfg(test)]
    fn figure3_average(&self) -> SimDuration {
        let total: SimDuration = TpmOp::FIGURE3_OPS.iter().map(|&op| self.mean(op)).sum();
        total / 5
    }
}

/// Standard normal sample via Box–Muller over the deterministic DRBG.
fn gaussian(noise: &mut Drbg) -> f64 {
    let u1 = (noise.next_u64() as f64 + 1.0) / (u64::MAX as f64 + 2.0);
    let u2 = noise.next_u64() as f64 / u64::MAX as f64;
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> [TpmKind; 4] {
        [
            TpmKind::Broadcom,
            TpmKind::AtmelT60,
            TpmKind::Infineon,
            TpmKind::AtmelTep,
        ]
    }

    #[test]
    fn broadcom_fastest_seal_slowest_quote_unseal() {
        let broadcom = TpmTimingModel::for_kind(TpmKind::Broadcom);
        for kind in [TpmKind::AtmelT60, TpmKind::Infineon, TpmKind::AtmelTep] {
            let other = TpmTimingModel::for_kind(kind);
            assert!(
                broadcom.mean(TpmOp::Seal) < other.mean(TpmOp::Seal),
                "{kind:?}"
            );
            assert!(
                broadcom.mean(TpmOp::Quote) > other.mean(TpmOp::Quote),
                "{kind:?}"
            );
            assert!(
                broadcom.mean(TpmOp::Unseal) > other.mean(TpmOp::Unseal),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn infineon_best_average_and_exact_unseal() {
        let infineon = TpmTimingModel::for_kind(TpmKind::Infineon);
        assert!((infineon.mean(TpmOp::Unseal).as_ms_f64() - 390.98).abs() < 1e-6);
        for kind in [TpmKind::Broadcom, TpmKind::AtmelT60, TpmKind::AtmelTep] {
            let other = TpmTimingModel::for_kind(kind);
            assert!(
                infineon.figure3_average() < other.figure3_average(),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn broadcom_to_infineon_deltas_match_paper() {
        let b = TpmTimingModel::for_kind(TpmKind::Broadcom);
        let i = TpmTimingModel::for_kind(TpmKind::Infineon);
        let quote_unseal_delta = (b.mean(TpmOp::Quote) + b.mean(TpmOp::Unseal))
            - (i.mean(TpmOp::Quote) + i.mean(TpmOp::Unseal));
        assert!(
            (quote_unseal_delta.as_ms_f64() - 1132.0).abs() < 1.0,
            "got {quote_unseal_delta}"
        );
        let seal_delta = i.mean(TpmOp::Seal) - b.mean(TpmOp::Seal);
        assert!(
            (seal_delta.as_ms_f64() - 213.0).abs() < 0.5,
            "got {seal_delta}"
        );
    }

    #[test]
    fn hash_rate_reproduces_table1_endpoints() {
        let with_tpm = TpmTimingModel::for_kind(TpmKind::Broadcom);
        assert!((with_tpm.hash_time(64 * 1024).as_ms_f64() - 177.52).abs() < 0.1);
        let future = TpmTimingModel::for_kind(TpmKind::FutureFast);
        assert!((future.hash_time(64 * 1024).as_ms_f64() - 8.82).abs() < 0.05);
    }

    #[test]
    fn sampling_is_deterministic_and_near_mean() {
        let model = TpmTimingModel::for_kind(TpmKind::Broadcom);
        let mut a = Drbg::new(b"noise");
        let mut b = Drbg::new(b"noise");
        for _ in 0..20 {
            let sa = model.sample(TpmOp::Quote, &mut a);
            let sb = model.sample(TpmOp::Quote, &mut b);
            assert_eq!(sa, sb);
            let rel = (sa.as_ms_f64() - 880.0).abs() / 880.0;
            assert!(rel < 0.15, "sample {sa} too far from mean");
        }
    }

    #[test]
    fn sped_up_divides_every_cost() {
        let m = TpmTimingModel::for_kind(TpmKind::Broadcom);
        let fast = m.sped_up(10.0);
        for op in TpmOp::FIGURE3_OPS {
            let ratio = m.mean(op).as_ms_f64() / fast.mean(op).as_ms_f64();
            assert!((ratio - 10.0).abs() < 1e-6, "{op:?}");
        }
        assert!((fast.hash_ns_per_byte - m.hash_ns_per_byte / 10.0).abs() < 1e-9);
    }

    #[test]
    fn labels_are_figure3_labels() {
        assert_eq!(TpmOp::PcrExtend.label(), "PCR Extend");
        assert_eq!(TpmOp::GetRandom128.label(), "GetRand 128B");
    }

    #[test]
    fn all_models_have_positive_costs() {
        for kind in all_kinds() {
            let m = TpmTimingModel::for_kind(kind);
            for op in TpmOp::FIGURE3_OPS {
                assert!(m.mean(op) > SimDuration::ZERO, "{kind:?} {op:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "no timing model")]
    fn none_kind_panics() {
        let _ = TpmTimingModel::for_kind(TpmKind::None);
    }
}
