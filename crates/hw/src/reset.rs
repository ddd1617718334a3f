//! Deterministic power-loss / platform-reset injection.
//!
//! The harshest event in the paper's threat model is a full platform
//! reset: every CPU register, every access-control-table entry, and
//! every in-flight PAL session vanishes, while NVRAM-resident TPM state
//! (EK/SRK, monotonic counters, sealed blobs) survives (§2.1.3,
//! §2.1.4). A [`ResetPlan`] injects such resets *deterministically*,
//! the same way [`crate::FaultPlan`] injects transient faults: every
//! decision is a pure function of `(plan seed, reset epoch, sequence
//! number)`, so a crashing run replays identically on one worker or
//! sixteen.
//!
//! Two triggers compose, most-specific first:
//!
//! * **Event cut** — [`ResetPlan::with_cut_after_events`] pins the
//!   power loss to an exact trace-event boundary. This is what the
//!   crash-point property test sweeps: cut at *every* boundary of a
//!   reference batch and prove recovery.
//! * **Rate rolls** — [`ResetPlan::roll_power_loss`] fires with
//!   probability `reset_rate / RATE_DENOM` per commit boundary, for the
//!   `crash_sweep` experiment's reset-rate axis.

use crate::fault::XorShift;
use crate::time::SimDuration;
use crate::RATE_DENOM;

/// Virtual-time cost of one platform reset: power loss through
/// firmware, POST, and OS handoff back to the batch driver. Charged to
/// the recovery timeline whenever a reset fires, so recovered-goodput
/// honestly pays for every reboot.
pub const RESET_REBOOT_COST: SimDuration = SimDuration::from_ms(150);

/// Injection-site constant mixed into the tape seed so the power-loss
/// decision stream is independent of the fault streams.
const SITE_RESET: u64 = 0x7273_7400; // "rst\0"

/// A seeded, deterministic power-loss plan.
///
/// Rate rolls are keyed by `(epoch, seq)` — the number of resets
/// already survived and a caller-chosen sequence number (the durable
/// engine uses the committing session's key) — never by wall state, so
/// a crashing batch replays identically at any worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResetPlan {
    seed: u64,
    reset_rate: u32,
    max_resets: u32,
    cut_after_events: Option<u64>,
}

impl ResetPlan {
    /// A plan with the given seed and no triggers configured: injects
    /// nothing until a rate or cut is set.
    pub fn new(seed: u64) -> Self {
        ResetPlan {
            seed,
            reset_rate: 0,
            max_resets: 8,
            cut_after_events: None,
        }
    }

    /// The canonical never-reset plan.
    pub fn reset_free() -> Self {
        ResetPlan::new(0)
    }

    /// Sets the per-commit-boundary power-loss rate (parts per
    /// [`RATE_DENOM`], clamped).
    #[must_use]
    pub fn with_reset_rate(mut self, rate: u32) -> Self {
        self.reset_rate = rate.min(RATE_DENOM);
        self
    }

    /// Caps how many resets the plan may fire in one batch, guaranteeing
    /// the recovery loop terminates (default 8).
    #[must_use]
    pub fn with_max_resets(mut self, budget: u32) -> Self {
        self.max_resets = budget;
        self
    }

    /// Cuts power once the machine trace has recorded `events` events
    /// in total. This fires at most once — it models yanking the cord
    /// at one exact point in the hardware's observable history.
    #[must_use]
    pub fn with_cut_after_events(mut self, events: u64) -> Self {
        self.cut_after_events = Some(events);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Maximum resets the plan may fire in one batch.
    pub fn max_resets(&self) -> u32 {
        self.max_resets
    }

    /// Whether the pinned event cut fires at a cumulative trace-event
    /// count of `events`.
    pub fn cut_due(&self, events: u64) -> bool {
        self.cut_after_events.is_some_and(|cut| events >= cut)
    }

    /// Rolls for a power loss at commit boundary `(epoch, seq)`, where
    /// `epoch` counts resets already survived. Returns `true` if the
    /// cord is yanked.
    pub fn roll_power_loss(&self, epoch: u64, seq: u64) -> bool {
        if self.reset_rate == 0 {
            return false;
        }
        XorShift::keyed(self.seed, SITE_RESET, epoch, seq).next_u32() % RATE_DENOM < self.reset_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic() {
        let a = ResetPlan::new(42).with_reset_rate(20000);
        let b = a.clone();
        for epoch in 0..4u64 {
            for seq in 0..64u64 {
                assert_eq!(a.roll_power_loss(epoch, seq), b.roll_power_loss(epoch, seq));
            }
        }
    }

    #[test]
    fn zero_rate_never_fires_full_rate_always_fires() {
        let zero = ResetPlan::new(7);
        let full = ResetPlan::new(7).with_reset_rate(RATE_DENOM);
        for seq in 0..256u64 {
            assert!(!zero.roll_power_loss(0, seq));
            assert!(full.roll_power_loss(0, seq));
        }
    }

    #[test]
    fn epochs_decorrelate() {
        // At a middling rate, different epochs must not produce
        // identical power-loss streams.
        let plan = ResetPlan::new(1234).with_reset_rate(RATE_DENOM / 2);
        let stream = |epoch: u64| -> Vec<bool> {
            (0..128)
                .map(|seq| plan.roll_power_loss(epoch, seq))
                .collect()
        };
        assert_ne!(stream(0), stream(1));
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn event_cut_fires_once_reached() {
        let plan = ResetPlan::reset_free().with_cut_after_events(5);
        assert!(!plan.cut_due(4));
        assert!(plan.cut_due(5));
        assert!(plan.cut_due(6));
        assert!(!ResetPlan::reset_free().cut_due(1_000_000));
    }

    #[test]
    fn budget_defaults_and_builders() {
        let plan = ResetPlan::new(1);
        assert_eq!(plan.max_resets(), 8);
        assert_eq!(plan.seed(), 1);
        let plan = plan.with_max_resets(2).with_reset_rate(RATE_DENOM * 2);
        assert_eq!(plan.max_resets(), 2);
        // Rates clamp to the denominator.
        assert!(plan.roll_power_loss(0, 0));
    }
}
