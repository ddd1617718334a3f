//! Client-side request lifecycle policy: retries, timeouts, backoff.
//!
//! The verifier decides whether a *quote* is trustworthy; the fleet's
//! relying-party client decides what to do when no decision arrives —
//! the wire was dropped, the platform was mid-reboot, the certificate
//! was mid-rotation. [`FleetPolicy`] is that client policy, composable
//! builder-style like `sea-core`'s `BatchPolicy`: per-attempt timeout,
//! bounded attempts, exponential backoff. [`RequestFate`] is the typed
//! terminal outcome of one request's whole lifecycle, as distinct from
//! the verifier's per-quote verdict.

use std::fmt;

/// The typed terminal outcome of one attestation request's lifecycle.
///
/// A fate is about the *request*, not any single wire: a request whose
/// first wire was dropped and whose re-quote was accepted is
/// `Retried`, even though the verifier only ever saw one (accepted)
/// quote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum RequestFate {
    /// Accepted on the first attempt.
    Verified,
    /// Accepted, but only after at least one retry.
    Retried,
    /// Accepted inside a TCB-rollout grace window — trusted, but on a
    /// build the incoming table has already superseded.
    Degraded,
    /// Terminally rejected by the verifier (a typed
    /// [`RejectReason`](crate::RejectReason) accompanies it).
    Rejected,
    /// Attempts exhausted without any verdict reaching the client.
    TimedOut,
}

impl RequestFate {
    /// Whether the fate represents an accepted attestation.
    pub fn is_accepted(&self) -> bool {
        matches!(
            self,
            RequestFate::Verified | RequestFate::Retried | RequestFate::Degraded
        )
    }
}

impl fmt::Display for RequestFate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestFate::Verified => write!(f, "verified"),
            RequestFate::Retried => write!(f, "retried"),
            RequestFate::Degraded => write!(f, "degraded"),
            RequestFate::Rejected => write!(f, "rejected"),
            RequestFate::TimedOut => write!(f, "timed-out"),
        }
    }
}

/// Composable retry/timeout/backoff policy for the fleet's
/// relying-party client.
///
/// # Example
///
/// ```
/// use sea_fleet::{run_fleet, FleetConfig, FleetPolicy};
///
/// // On a lossless network every first attempt is verified, so a
/// // retrying policy never retries.
/// let cfg = FleetConfig::new(2, 4).with_lifecycle(FleetPolicy::resilient());
/// let out = run_fleet(&cfg);
/// assert_eq!(out.accepted, 4);
/// assert_eq!(out.retries, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetPolicy {
    max_attempts: u32,
    timeout_ns: u64,
    backoff_base_ns: u64,
    backoff_cap_ns: u64,
}

impl FleetPolicy {
    /// The zero-resilience policy: one attempt, no timeout. This is the
    /// posture of the original churn-free fleet, and the default of
    /// [`FleetConfig`](crate::FleetConfig) — a plain-policy run is
    /// byte-identical to the pre-lifecycle pipeline.
    pub fn plain() -> Self {
        FleetPolicy {
            max_attempts: 1,
            timeout_ns: u64::MAX,
            backoff_base_ns: 0,
            backoff_cap_ns: 0,
        }
    }

    /// A retrying policy sized to the fleet's virtual network: 5ms
    /// per-attempt timeout (generously above one queued round trip),
    /// four attempts, 500µs base backoff doubling to an 8ms cap.
    pub fn resilient() -> Self {
        FleetPolicy {
            max_attempts: 4,
            timeout_ns: 5_000_000,
            backoff_base_ns: 500_000,
            backoff_cap_ns: 8_000_000,
        }
    }

    /// Overrides the total attempt budget (clamped to at least 1).
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Total attempts allowed per request (first send included).
    pub(crate) fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Per-attempt client timeout.
    pub(crate) fn timeout_ns(&self) -> u64 {
        self.timeout_ns
    }

    /// Backoff before retry number `retry` (1-based): exponential in
    /// the base, saturating at the cap.
    pub(crate) fn backoff_ns(&self, retry: u32) -> u64 {
        if self.backoff_base_ns == 0 || retry == 0 {
            return 0;
        }
        let factor = 1u64.checked_shl(retry - 1).unwrap_or(u64::MAX);
        self.backoff_base_ns
            .saturating_mul(factor)
            .min(self.backoff_cap_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_policy_is_single_shot() {
        let p = FleetPolicy::plain();
        assert_eq!(p.max_attempts(), 1);
        assert_eq!(p.timeout_ns(), u64::MAX);
        assert_eq!(p.backoff_ns(1), 0);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = FleetPolicy::resilient();
        assert_eq!(p.backoff_ns(0), 0);
        assert_eq!(p.backoff_ns(1), 500_000);
        assert_eq!(p.backoff_ns(2), 1_000_000);
        assert_eq!(p.backoff_ns(5), 8_000_000);
        assert_eq!(p.backoff_ns(6), 8_000_000, "capped");
        assert_eq!(p.backoff_ns(63), 8_000_000, "shift overflow saturates");
    }

    #[test]
    fn attempt_budget_clamps_to_one() {
        assert_eq!(FleetPolicy::plain().with_max_attempts(0).max_attempts(), 1);
    }

    #[test]
    fn fates_classify_acceptance_and_display() {
        for (fate, accepted, needle) in [
            (RequestFate::Verified, true, "verified"),
            (RequestFate::Retried, true, "retried"),
            (RequestFate::Degraded, true, "degraded"),
            (RequestFate::Rejected, false, "rejected"),
            (RequestFate::TimedOut, false, "timed-out"),
        ] {
            assert_eq!(fate.is_accepted(), accepted);
            assert_eq!(fate.to_string(), needle);
        }
    }
}
