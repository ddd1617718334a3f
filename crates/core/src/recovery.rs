//! Retry and recovery policy for faulted sessions.
//!
//! The fault-injection substrate ([`sea_hw::FaultPlan`]) makes the
//! hardware stack misbehave in controlled, reproducible ways; this
//! module decides what the *software* does about it. A [`RetryPolicy`]
//! bounds how often a transient fault may be retried and how long the
//! OS backs off (in virtual time) between attempts. When the budget is
//! exhausted — or the fault is fatal to begin with — the recovery layer
//! tears the session down via `SKILL`, reclaiming its pages and sePCR
//! so the rest of the batch is unaffected (§5.5: "the ability to
//! terminate a misbehaving PAL without losing the work of every other
//! PAL on the platform").

use sea_hw::{HwError, SimDuration};
use sea_tpm::TpmError;

use crate::error::SeaError;

/// Bounded-retry policy with linear virtual-time backoff.
///
/// # Example
///
/// ```
/// use sea_core::RetryPolicy;
/// use sea_hw::SimDuration;
///
/// let policy = RetryPolicy::default();
/// assert_eq!(policy.max_retries(), 4);
/// // Backoff grows linearly with the attempt number.
/// assert_eq!(policy.backoff_for(2), policy.backoff_for(1) * 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_retries: u32,
    backoff: SimDuration,
}

impl Default for RetryPolicy {
    /// Four retries with a 50 µs base backoff — generous next to the
    /// ~1 µs context switch, negligible next to the ~9 ms launch.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            backoff: SimDuration::from_us(50),
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_retries` retries with `backoff` base
    /// delay (attempt *n* waits *n* × `backoff`).
    pub fn new(max_retries: u32, backoff: SimDuration) -> Self {
        RetryPolicy {
            max_retries,
            backoff,
        }
    }

    /// A policy that never retries: every fault is terminal.
    pub fn none() -> Self {
        RetryPolicy::new(0, SimDuration::ZERO)
    }

    /// Maximum number of retries after the initial attempt.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Base backoff duration.
    pub fn backoff(&self) -> SimDuration {
        self.backoff
    }

    /// Virtual-time backoff before retry number `attempt` (1-based).
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        self.backoff * attempt as u64
    }

    /// Whether `error` is worth retrying under this policy: transient
    /// TPM transport glitches and spurious memory-controller denials
    /// both clear on their own.
    /// Everything else — fatal transport faults, lifecycle violations,
    /// exhausted sePCR banks — is not retryable (saturation is handled
    /// by *degradation*, not retry).
    pub fn is_retryable(&self, error: &SeaError) -> bool {
        match error {
            SeaError::Tpm(e) => e.is_retryable(),
            SeaError::Hw(HwError::AccessDenied { .. }) => true,
            _ => false,
        }
    }

    /// Whether the sePCR bank is saturated — the signal to degrade to
    /// the legacy slow path rather than retry or kill.
    pub fn is_saturation(error: &SeaError) -> bool {
        matches!(error, SeaError::Tpm(TpmError::NoFreeSePcr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secb::PalLifecycle;
    use sea_hw::{CpuId, PageIndex, Requester};

    #[test]
    fn default_policy_bounds() {
        let p = RetryPolicy::default();
        assert_eq!(p.max_retries(), 4);
        assert_eq!(p.backoff(), SimDuration::from_us(50));
        assert_eq!(p.backoff_for(1), SimDuration::from_us(50));
        assert_eq!(p.backoff_for(3), SimDuration::from_us(150));
    }

    #[test]
    fn none_policy_never_waits() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_retries(), 0);
        assert_eq!(p.backoff_for(1), SimDuration::ZERO);
    }

    #[test]
    fn retryability_classification() {
        let p = RetryPolicy::default();
        assert!(p.is_retryable(&SeaError::Tpm(TpmError::TransportFault { retryable: true })));
        assert!(!p.is_retryable(&SeaError::Tpm(TpmError::LockHeld { holder: CpuId(1) })));
        assert!(p.is_retryable(&SeaError::Hw(HwError::AccessDenied {
            requester: Requester::Cpu(CpuId(0)),
            page: PageIndex(64),
        })));
        assert!(!p.is_retryable(&SeaError::Tpm(TpmError::TransportFault {
            retryable: false
        })));
        assert!(!p.is_retryable(&SeaError::Tpm(TpmError::NoFreeSePcr)));
        assert!(!p.is_retryable(&SeaError::WrongLifecycle {
            actual: PalLifecycle::Done,
            operation: "resume",
        }));
    }

    #[test]
    fn saturation_is_distinguished_from_faults() {
        assert!(RetryPolicy::is_saturation(&SeaError::Tpm(
            TpmError::NoFreeSePcr
        )));
        assert!(!RetryPolicy::is_saturation(&SeaError::Tpm(
            TpmError::TransportFault { retryable: true }
        )));
    }
}
