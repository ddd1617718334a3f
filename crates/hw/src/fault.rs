//! Deterministic fault injection for the hardware substrate.
//!
//! The paper's recommendations exist precisely because platforms
//! misbehave: TPM commands fail on the LPC bus, the memory controller
//! may deny an access the OS believed was granted, and the preemption
//! timer (§5.6) yanks a PAL off the CPU at an inconvenient moment. A
//! [`FaultPlan`] injects those events *deterministically*: every
//! decision is a pure function of `(plan seed, injection site, session
//! key, per-session sequence number)`, so the same plan replayed
//! against the same workload produces the same faults — on one worker
//! or sixteen, in any interleaving.
//!
//! The generator is the same xorshift64* tape the in-repo property-test
//! harness (`tests/common/`) uses, so a chaos test can hand a plan the
//! very bytes it is shrinking over.

use std::fmt;

use crate::time::SimDuration;

/// Virtual-time cost of a TPM command attempt that dies on the bus: an
/// aborted LPC round trip. Charged by the session engine whenever an
/// injected transport fault fires, so recovery overhead is visible in
/// the clock without depending on which command was interrupted.
pub const TRANSPORT_FAULT_COST: SimDuration = SimDuration::from_us(20);

/// One injected hardware misbehavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// A TPM command attempt failed on the LPC transport. Retryable
    /// faults model bus glitches; non-retryable ones model a wedged
    /// chip that only a reboot clears.
    TpmTransport {
        /// Whether retrying the command can succeed.
        retryable: bool,
    },
    /// The memory controller spuriously denied a legitimate page-table
    /// transition (modeled on a transient TOCTOU window in the
    /// controller's update queue).
    MemDenial,
    /// The PAL preemption timer (§5.6) expired early, forcing a
    /// suspend before the PAL's slice was actually used up.
    TimerExpiry,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::TpmTransport { retryable: true } => write!(f, "tpm-transport (retryable)"),
            FaultKind::TpmTransport { retryable: false } => write!(f, "tpm-transport (fatal)"),
            FaultKind::MemDenial => write!(f, "mem-denial"),
            FaultKind::TimerExpiry => write!(f, "timer-expiry"),
        }
    }
}

/// Where in the session lifecycle a fault roll happens. Mixed into the
/// tape seed so the decision streams at different sites are
/// independent.
const SITE_TPM: u64 = 0x7470_6d00; // "tpm\0"
const SITE_MEM: u64 = 0x6d65_6d00; // "mem\0"
const SITE_TIMER: u64 = 0x7469_6d72; // "timr"

/// Denominator for all fault rates: rates are expressed in parts per
/// 65536 so plans stay integral and reproducible.
pub const RATE_DENOM: u32 = 65536;

// ---------------------------------------------------------------------
// xorshift64* — identical constants to tests/common/mod.rs, so a chaos
// test's shrinking tape and the plan's injection stream share one
// algebra.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
pub(crate) struct XorShift {
    state: u64,
}

impl XorShift {
    pub(crate) fn new(seed: u64) -> Self {
        XorShift {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// The generator for one keyed roll of a seeded plan: the plan's
    /// `seed` and a per-plan `site` constant pick the stream, and the
    /// `key` (session, platform or epoch) and sequence number `seq` are
    /// mixed in through the generator itself so nearby pairs
    /// decorrelate. Every plan in this crate rolls through here, so
    /// their streams share one algebra and differ only by site.
    pub(crate) fn keyed(seed: u64, site: u64, key: u64, seq: u64) -> Self {
        let mut x = XorShift::new(seed ^ site.rotate_left(17));
        x.state ^= key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
        x.next_u64();
        x.state ^= seq.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(13);
        x.next_u64();
        x
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub(crate) fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A seeded, deterministic fault-injection plan.
///
/// Rates are parts per [`RATE_DENOM`]. A roll at a given `(site, key,
/// seq)` triple always produces the same answer for the same plan; the
/// session engine keys rolls by session (job index) and a per-session
/// sequence counter, never by wall state, which is what makes a faulted
/// run byte-identical across worker counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    tpm_rate: u32,
    mem_rate: u32,
    timer_rate: u32,
    fatal_ratio: u32,
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero: injects nothing
    /// until rates are configured.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            tpm_rate: 0,
            mem_rate: 0,
            timer_rate: 0,
            fatal_ratio: 0,
        }
    }

    /// The canonical no-fault plan.
    pub fn fault_free() -> Self {
        FaultPlan::new(0)
    }

    /// Sets the TPM transport-fault rate (parts per [`RATE_DENOM`],
    /// clamped).
    #[must_use]
    pub fn with_tpm_rate(mut self, rate: u32) -> Self {
        self.tpm_rate = rate.min(RATE_DENOM);
        self
    }

    /// Sets the spurious memory-denial rate (parts per [`RATE_DENOM`],
    /// clamped).
    #[must_use]
    pub fn with_mem_rate(mut self, rate: u32) -> Self {
        self.mem_rate = rate.min(RATE_DENOM);
        self
    }

    /// Sets the spurious preemption-timer-expiry rate (parts per
    /// [`RATE_DENOM`], clamped). The engine stops rolling for a session
    /// once it has suffered four spurious expiries, so every session
    /// makes progress.
    #[must_use]
    pub fn with_timer_rate(mut self, rate: u32) -> Self {
        self.timer_rate = rate.min(RATE_DENOM);
        self
    }

    /// Sets the fraction of injected TPM transport faults that are
    /// *fatal* rather than retryable (parts per [`RATE_DENOM`],
    /// clamped).
    #[must_use]
    pub fn with_fatal_ratio(mut self, ratio: u32) -> Self {
        self.fatal_ratio = ratio.min(RATE_DENOM);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Rolls for a TPM transport fault at `(key, seq)`. Returns the
    /// fault to inject, if any.
    pub fn roll_tpm_transport(&self, key: u64, seq: u64) -> Option<FaultKind> {
        if self.tpm_rate == 0 {
            return None;
        }
        let mut x = XorShift::keyed(self.seed, SITE_TPM, key, seq);
        if x.next_u32() % RATE_DENOM >= self.tpm_rate {
            return None;
        }
        let retryable = x.next_u32() % RATE_DENOM >= self.fatal_ratio;
        Some(FaultKind::TpmTransport { retryable })
    }

    /// Rolls for a spurious memory-controller denial at `(key, seq)`.
    pub fn roll_mem_denial(&self, key: u64, seq: u64) -> bool {
        self.mem_rate != 0
            && XorShift::keyed(self.seed, SITE_MEM, key, seq).next_u32() % RATE_DENOM
                < self.mem_rate
    }

    /// Rolls for a spurious preemption-timer expiry at `(key, seq)`.
    pub fn roll_timer_expiry(&self, key: u64, seq: u64) -> bool {
        self.timer_rate != 0
            && XorShift::keyed(self.seed, SITE_TIMER, key, seq).next_u32() % RATE_DENOM
                < self.timer_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic() {
        let a = FaultPlan::new(42)
            .with_tpm_rate(20000)
            .with_mem_rate(20000)
            .with_timer_rate(20000)
            .with_fatal_ratio(8000);
        let b = a.clone();
        for key in 0..8u64 {
            for seq in 0..64u64 {
                assert_eq!(
                    a.roll_tpm_transport(key, seq),
                    b.roll_tpm_transport(key, seq)
                );
                assert_eq!(a.roll_mem_denial(key, seq), b.roll_mem_denial(key, seq));
                assert_eq!(a.roll_timer_expiry(key, seq), b.roll_timer_expiry(key, seq));
            }
        }
    }

    #[test]
    fn zero_rate_never_fires_full_rate_always_fires() {
        let zero = FaultPlan::new(7);
        let full = FaultPlan::new(7)
            .with_tpm_rate(RATE_DENOM)
            .with_mem_rate(RATE_DENOM)
            .with_timer_rate(RATE_DENOM);
        for seq in 0..256u64 {
            assert_eq!(zero.roll_tpm_transport(0, seq), None);
            assert!(!zero.roll_mem_denial(0, seq));
            assert!(!zero.roll_timer_expiry(0, seq));
            assert!(full.roll_tpm_transport(0, seq).is_some());
            assert!(full.roll_mem_denial(0, seq));
            assert!(full.roll_timer_expiry(0, seq));
        }
    }

    #[test]
    fn fatal_ratio_extremes() {
        let all_fatal = FaultPlan::new(9)
            .with_tpm_rate(RATE_DENOM)
            .with_fatal_ratio(RATE_DENOM);
        let none_fatal = FaultPlan::new(9).with_tpm_rate(RATE_DENOM);
        for seq in 0..64u64 {
            assert_eq!(
                all_fatal.roll_tpm_transport(3, seq),
                Some(FaultKind::TpmTransport { retryable: false })
            );
            assert_eq!(
                none_fatal.roll_tpm_transport(3, seq),
                Some(FaultKind::TpmTransport { retryable: true })
            );
        }
    }

    #[test]
    fn sites_and_keys_decorrelate() {
        // At a middling rate, different keys must not produce identical
        // fault streams (that would mean the key is ignored).
        let plan = FaultPlan::new(1234).with_tpm_rate(RATE_DENOM / 2);
        let stream = |key: u64| -> Vec<bool> {
            (0..128)
                .map(|seq| plan.roll_tpm_transport(key, seq).is_some())
                .collect()
        };
        assert_ne!(stream(0), stream(1));
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn display_covers_all_kinds() {
        for (kind, needle) in [
            (
                FaultKind::TpmTransport { retryable: true },
                "tpm-transport (retryable)",
            ),
            (
                FaultKind::TpmTransport { retryable: false },
                "tpm-transport (fatal)",
            ),
            (FaultKind::MemDenial, "mem-denial"),
            (FaultKind::TimerExpiry, "timer-expiry"),
        ] {
            assert_eq!(kind.to_string(), needle);
        }
    }
}
