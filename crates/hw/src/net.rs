//! Deterministic network fault injection for the attestation wire.
//!
//! The fleet layer (`sea-fleet`) models the channel between a platform
//! and its remote verifier as a fixed 200µs one-way link. Real
//! networks are worse: wires get dropped, delayed, duplicated, and
//! reordered. A [`NetPlan`] injects those behaviors with the same
//! seeded-tape discipline as [`FaultPlan`](crate::FaultPlan): every
//! decision is a pure function of `(plan seed, injection site, request
//! key, attempt sequence)`, so a churned sweep replays byte-identically
//! on one shard or sixteen, under either executor, in any submission
//! order.
//!
//! The plan does not move bytes itself — it answers, for one
//! transmission, *when* (and whether, and how many times) the wire
//! arrives. [`NetPlan::deliveries`] returns the extra latency of every
//! copy the network delivers on top of the model's base one-way
//! latency; an empty list is a drop.

use std::fmt;

use crate::fault::{XorShift, RATE_DENOM};
use crate::time::SimDuration;

/// Default spread of an injected long delay: the extra latency rolled
/// for a *delayed* wire is uniform in `1..=spread`.
pub const NET_DELAY_SPREAD: SimDuration = SimDuration::from_us(500);

/// Default reorder window: a *reordered* wire picks up a small extra
/// latency in `1..=window`, enough to land behind its successors
/// without looking like a routing anomaly.
pub const NET_REORDER_WINDOW: SimDuration = SimDuration::from_us(60);

/// Default gap between the two copies of a duplicated wire.
pub const NET_DUPLICATE_GAP: SimDuration = SimDuration::from_us(40);

/// What the network decided to do with one transmitted wire. Purely
/// informational — [`NetPlan::deliveries`] already folds the decision
/// into arrival offsets — but useful for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetFault {
    /// The wire was dropped; no copy arrives.
    Dropped,
    /// The wire arrives once, late by the carried extra nanoseconds.
    Delayed(u64),
    /// The wire arrives twice: once on time, once after the carried
    /// gap in nanoseconds.
    Duplicated(u64),
    /// The wire picked up a small extra latency (nanoseconds) intended
    /// to land it behind later transmissions.
    Reordered(u64),
}

impl fmt::Display for NetFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetFault::Dropped => write!(f, "dropped"),
            NetFault::Delayed(ns) => write!(f, "delayed +{ns}ns"),
            NetFault::Duplicated(ns) => write!(f, "duplicated (+{ns}ns gap)"),
            NetFault::Reordered(ns) => write!(f, "reordered +{ns}ns"),
        }
    }
}

// Injection sites, mixed into the tape seed so the four decision
// streams are independent of each other and of `FaultPlan`'s sites.
const SITE_NET_DROP: u64 = 0x6e64_7270; // "ndrp"
const SITE_NET_DELAY: u64 = 0x6e64_6c79; // "ndly"
const SITE_NET_DUP: u64 = 0x6e64_7570; // "ndup"
const SITE_NET_ORD: u64 = 0x6e6f_7264; // "nord"

/// A seeded, deterministic network-fault plan for wire quotes.
///
/// Rates are parts per [`RATE_DENOM`], exactly like
/// [`FaultPlan`](crate::FaultPlan). Faults compose per transmission in
/// a fixed precedence: a dropped wire can be neither delayed nor
/// duplicated; a delayed wire is not additionally reordered (the long
/// delay subsumes the short one); duplication composes with either.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetPlan {
    seed: u64,
    drop_rate: u32,
    delay_rate: u32,
    dup_rate: u32,
    reorder_rate: u32,
    delay_spread_ns: u64,
    reorder_window_ns: u64,
    duplicate_gap_ns: u64,
}

impl NetPlan {
    /// A plan with the given seed and all rates zero: every wire
    /// arrives exactly once with no extra latency.
    pub fn new(seed: u64) -> Self {
        NetPlan {
            seed,
            drop_rate: 0,
            delay_rate: 0,
            dup_rate: 0,
            reorder_rate: 0,
            delay_spread_ns: NET_DELAY_SPREAD.as_ns(),
            reorder_window_ns: NET_REORDER_WINDOW.as_ns(),
            duplicate_gap_ns: NET_DUPLICATE_GAP.as_ns(),
        }
    }

    /// The canonical perfect network.
    pub fn lossless() -> Self {
        NetPlan::new(0)
    }

    /// Sets the drop rate (parts per [`RATE_DENOM`], clamped).
    #[must_use]
    pub fn with_drop_rate(mut self, rate: u32) -> Self {
        self.drop_rate = rate.min(RATE_DENOM);
        self
    }

    /// Sets the long-delay rate (parts per [`RATE_DENOM`], clamped).
    #[must_use]
    pub fn with_delay_rate(mut self, rate: u32) -> Self {
        self.delay_rate = rate.min(RATE_DENOM);
        self
    }

    /// Sets the duplication rate (parts per [`RATE_DENOM`], clamped).
    #[must_use]
    pub fn with_duplicate_rate(mut self, rate: u32) -> Self {
        self.dup_rate = rate.min(RATE_DENOM);
        self
    }

    /// Sets the reorder rate (parts per [`RATE_DENOM`], clamped).
    #[must_use]
    pub fn with_reorder_rate(mut self, rate: u32) -> Self {
        self.reorder_rate = rate.min(RATE_DENOM);
        self
    }

    /// Sets the spread of injected long delays (extra latency is
    /// uniform in `1..=spread`).
    #[must_use]
    pub fn with_delay_spread(mut self, spread: SimDuration) -> Self {
        self.delay_spread_ns = spread.as_ns().max(1);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if this plan can never perturb a delivery.
    pub fn is_lossless(&self) -> bool {
        self.drop_rate == 0 && self.delay_rate == 0 && self.dup_rate == 0 && self.reorder_rate == 0
    }

    fn rate_hit(&self, site: u64, key: u64, seq: u64, rate: u32) -> Option<XorShift> {
        if rate == 0 {
            return None;
        }
        let mut x = XorShift::keyed(self.seed, site, key, seq);
        if x.next_u32() % RATE_DENOM < rate {
            Some(x)
        } else {
            None
        }
    }

    /// The faults the network applies to transmission `(key, seq)`,
    /// in the plan's fixed precedence order. Empty means an on-time,
    /// single-copy delivery.
    pub fn roll_faults(&self, key: u64, seq: u64) -> Vec<NetFault> {
        if self
            .rate_hit(SITE_NET_DROP, key, seq, self.drop_rate)
            .is_some()
        {
            return vec![NetFault::Dropped];
        }
        let mut faults = Vec::new();
        if let Some(mut x) = self.rate_hit(SITE_NET_DELAY, key, seq, self.delay_rate) {
            faults.push(NetFault::Delayed(
                1 + x.next_u64() % self.delay_spread_ns.max(1),
            ));
        } else if let Some(mut x) = self.rate_hit(SITE_NET_ORD, key, seq, self.reorder_rate) {
            faults.push(NetFault::Reordered(
                1 + x.next_u64() % self.reorder_window_ns.max(1),
            ));
        }
        if self
            .rate_hit(SITE_NET_DUP, key, seq, self.dup_rate)
            .is_some()
        {
            faults.push(NetFault::Duplicated(self.duplicate_gap_ns));
        }
        faults
    }

    /// Arrival offsets (extra nanoseconds on top of the base one-way
    /// latency) for every copy of transmission `(key, seq)` the network
    /// delivers, sorted ascending. Empty means the wire was dropped.
    pub fn deliveries(&self, key: u64, seq: u64) -> Vec<u64> {
        let mut extra = 0u64;
        let mut copies = vec![];
        let mut dup_gap = None;
        for fault in self.roll_faults(key, seq) {
            match fault {
                NetFault::Dropped => return Vec::new(),
                NetFault::Delayed(ns) | NetFault::Reordered(ns) => extra += ns,
                NetFault::Duplicated(gap) => dup_gap = Some(gap),
            }
        }
        copies.push(extra);
        if let Some(gap) = dup_gap {
            copies.push(extra + gap);
        }
        copies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_delivers_exactly_once_on_time() {
        let plan = NetPlan::lossless();
        assert!(plan.is_lossless());
        for seq in 0..64u64 {
            assert_eq!(plan.deliveries(9, seq), vec![0]);
            assert!(plan.roll_faults(9, seq).is_empty());
        }
    }

    #[test]
    fn rolls_are_deterministic() {
        let a = NetPlan::new(0xC0FFEE)
            .with_drop_rate(9000)
            .with_delay_rate(9000)
            .with_duplicate_rate(9000)
            .with_reorder_rate(9000);
        let b = a.clone();
        for key in 0..8u64 {
            for seq in 0..32u64 {
                assert_eq!(a.deliveries(key, seq), b.deliveries(key, seq));
                assert_eq!(a.roll_faults(key, seq), b.roll_faults(key, seq));
            }
        }
    }

    #[test]
    fn full_drop_rate_drops_everything() {
        let plan = NetPlan::new(3).with_drop_rate(RATE_DENOM);
        for seq in 0..64u64 {
            assert!(plan.deliveries(0, seq).is_empty());
            assert_eq!(plan.roll_faults(0, seq), vec![NetFault::Dropped]);
        }
    }

    #[test]
    fn full_duplicate_rate_delivers_twice_with_gap() {
        let plan = NetPlan::new(3).with_duplicate_rate(RATE_DENOM);
        for seq in 0..64u64 {
            let copies = plan.deliveries(5, seq);
            assert_eq!(copies.len(), 2);
            assert_eq!(copies[1] - copies[0], NET_DUPLICATE_GAP.as_ns());
        }
    }

    #[test]
    fn delay_is_bounded_by_spread_and_nonzero() {
        let spread = SimDuration::from_us(10);
        let plan = NetPlan::new(11)
            .with_delay_rate(RATE_DENOM)
            .with_delay_spread(spread);
        let mut seen = std::collections::BTreeSet::new();
        for seq in 0..256u64 {
            let copies = plan.deliveries(2, seq);
            assert_eq!(copies.len(), 1);
            assert!(copies[0] >= 1 && copies[0] <= spread.as_ns());
            seen.insert(copies[0]);
        }
        // The jitter must actually vary (a constant delay is not a
        // fault model, it is a latency constant).
        assert!(seen.len() > 32);
    }

    #[test]
    fn reorder_jitter_is_smaller_than_delay_jitter_window() {
        let plan = NetPlan::new(17).with_reorder_rate(RATE_DENOM);
        for seq in 0..128u64 {
            let copies = plan.deliveries(4, seq);
            assert_eq!(copies.len(), 1);
            assert!(copies[0] >= 1 && copies[0] <= NET_REORDER_WINDOW.as_ns());
        }
    }

    #[test]
    fn drop_precedence_subsumes_everything_else() {
        let plan = NetPlan::new(23)
            .with_drop_rate(RATE_DENOM)
            .with_delay_rate(RATE_DENOM)
            .with_duplicate_rate(RATE_DENOM)
            .with_reorder_rate(RATE_DENOM);
        for seq in 0..32u64 {
            assert!(plan.deliveries(0, seq).is_empty());
        }
    }

    #[test]
    fn keys_decorrelate() {
        let plan = NetPlan::new(0xABCD).with_drop_rate(RATE_DENOM / 2);
        let stream = |key: u64| -> Vec<bool> {
            (0..128)
                .map(|seq| plan.deliveries(key, seq).is_empty())
                .collect()
        };
        assert_ne!(stream(0), stream(1));
        assert_ne!(stream(1), stream(2));
    }

    #[test]
    fn display_covers_all_faults() {
        for (fault, needle) in [
            (NetFault::Dropped, "dropped"),
            (NetFault::Delayed(5), "delayed"),
            (NetFault::Duplicated(5), "duplicated"),
            (NetFault::Reordered(5), "reordered"),
        ] {
            assert!(fault.to_string().contains(needle));
        }
    }
}
