//! Seeded platform churn and adversarial traffic for a fleet sweep.
//!
//! Service reality for an attestation fleet is not a static set of
//! well-behaved platforms: machines reboot mid-sweep, AIK certificates
//! expire and are re-enrolled, TCB tables roll forward while requests
//! are in flight, and the request stream carries adversarial wires. A
//! [`ChurnPlan`] decides all of it *deterministically*: every decision
//! is a pure function of `(plan seed, decision site, platform or
//! request id)` — never of shard layout, executor backend, worker
//! count, or submission order — so a churned
//! [`FleetOutcome`](crate::FleetOutcome) is byte-identical across every execution
//! shape, exactly like the platform-level `FaultPlan` and `ResetPlan`
//! it extends upward.
//!
//! Reboots reuse the hardware layer's reset machinery: the *whether*
//! roll goes through [`ResetPlan::roll_power_loss`] and the blackout
//! length is [`RESET_REBOOT_COST`], so fleet-level churn and
//! engine-level crash testing share one vocabulary.

use std::fmt;

use sea_hw::{NetPlan, ResetPlan, RATE_DENOM, RESET_REBOOT_COST};

// Decision sites, mixed into the seed so the churn streams are
// independent of each other and of NetPlan/FaultPlan sites.
const SITE_REBOOT_AT: u64 = 0x6362_7400; // "cbt\0" — reboot instant
const SITE_ROTATE: u64 = 0x6372_6f74; // "crot" — cert rotation
const SITE_REPLAY: u64 = 0x6172_706c; // "arpl" — adversary: replay
const SITE_STALE: u64 = 0x6173_746c; // "astl" — adversary: stale nonce
const SITE_FLIP: u64 = 0x6166_6c70; // "aflp" — adversary: bit flip
const SITE_FORGE: u64 = 0x6166_7267; // "afrg" — adversary: forged cert

/// SplitMix64 finalizer — the same mixer `sea-os`'s dispatcher uses.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One kind of adversarial wire interleaved into the request sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum AdversaryKind {
    /// An exact copy of an already-accepted wire, delivered again.
    Replay,
    /// A genuine quote answering a challenge long after its freshness
    /// window closed.
    StaleNonce,
    /// An honest wire with one seeded bit flipped in transit.
    BitFlip,
    /// A wire signed by a key the privacy CA never certified.
    ForgedCert,
}

impl fmt::Display for AdversaryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversaryKind::Replay => write!(f, "replay"),
            AdversaryKind::StaleNonce => write!(f, "stale-nonce"),
            AdversaryKind::BitFlip => write!(f, "bit-flip"),
            AdversaryKind::ForgedCert => write!(f, "forged-cert"),
        }
    }
}

/// A staged mid-run TCB-table push, as the churn plan schedules it.
/// The fleet turns this into a
/// [`TcbRollout`](crate::TcbRollout) marking the service build
/// `OutOfDate` at `tcb_version + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcbPush {
    /// Virtual time the new table is announced.
    pub at_ns: u64,
    /// Logical propagation groups (platform `p` is in group
    /// `p % groups`).
    pub groups: u64,
    /// Delay between successive groups seeing the table.
    pub group_delay_ns: u64,
    /// Stale-TCB grace window after arrival, during which `OutOfDate`
    /// builds are still accepted (degraded).
    pub grace_ns: u64,
}

/// A seeded, deterministic churn plan for one fleet sweep.
///
/// Composes four independent chaos dimensions, each off by default:
/// network faults (a [`NetPlan`]), mid-sweep platform reboots, AIK
/// certificate rotation with re-enrollment, and an adversarial wire
/// stream. [`ChurnPlan::calm`] is the identity plan — a calm run is
/// byte-identical to the pre-churn pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnPlan {
    seed: u64,
    net: NetPlan,
    reboot_rate: u32,
    reboot_window_ns: u64,
    rotation_rate: u32,
    rotation_at_ns: u64,
    re_enroll_delay_ns: u64,
    tcb_push: Option<TcbPush>,
    replay_rate: u32,
    stale_rate: u32,
    bitflip_rate: u32,
    forge_rate: u32,
}

impl ChurnPlan {
    /// A plan with the given seed and every chaos dimension off. The
    /// embedded network plan shares the seed (sites keep the streams
    /// independent).
    pub fn new(seed: u64) -> Self {
        ChurnPlan {
            seed,
            net: NetPlan::new(seed),
            reboot_rate: 0,
            reboot_window_ns: 2_000_000,
            rotation_rate: 0,
            rotation_at_ns: 1_000_000,
            re_enroll_delay_ns: 400_000,
            tcb_push: None,
            replay_rate: 0,
            stale_rate: 0,
            bitflip_rate: 0,
            forge_rate: 0,
        }
    }

    /// The canonical no-churn plan.
    pub fn calm() -> Self {
        ChurnPlan::new(0)
    }

    /// Replaces the embedded network-fault plan (builder-style).
    #[must_use]
    pub fn with_net(mut self, net: NetPlan) -> Self {
        self.net = net;
        self
    }

    /// Enables mid-sweep reboots: each platform reboots with
    /// probability `rate / RATE_DENOM`, at a seeded instant uniform in
    /// `1..=window_ns` (builder-style).
    #[must_use]
    pub fn with_reboots(mut self, rate: u32, window_ns: u64) -> Self {
        self.reboot_rate = rate.min(RATE_DENOM);
        self.reboot_window_ns = window_ns.max(1);
        self
    }

    /// Enables certificate rotation: each platform's generation-0
    /// certificate expires at `at_ns` with probability
    /// `rate / RATE_DENOM`, and its generation-1 certificate is
    /// re-enrolled `re_enroll_delay_ns` later (builder-style).
    #[must_use]
    pub fn with_rotation(mut self, rate: u32, at_ns: u64, re_enroll_delay_ns: u64) -> Self {
        self.rotation_rate = rate.min(RATE_DENOM);
        self.rotation_at_ns = at_ns;
        self.re_enroll_delay_ns = re_enroll_delay_ns;
        self
    }

    /// Schedules a staged mid-run TCB-table push (builder-style).
    #[must_use]
    pub fn with_tcb_push(mut self, push: TcbPush) -> Self {
        self.tcb_push = Some(push);
        self
    }

    /// Sets the adversarial-wire rates, each per honest request, parts
    /// per [`RATE_DENOM`] (builder-style).
    #[must_use]
    pub fn with_adversary(mut self, replay: u32, stale: u32, bitflip: u32, forge: u32) -> Self {
        self.replay_rate = replay.min(RATE_DENOM);
        self.stale_rate = stale.min(RATE_DENOM);
        self.bitflip_rate = bitflip.min(RATE_DENOM);
        self.forge_rate = forge.min(RATE_DENOM);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The embedded network-fault plan.
    pub fn net(&self) -> &NetPlan {
        &self.net
    }

    /// The scheduled TCB push, if any.
    pub fn tcb_push(&self) -> Option<TcbPush> {
        self.tcb_push
    }

    fn rate_roll(&self, site: u64, key: u64, rate: u32) -> bool {
        rate != 0
            && (mix64(self.seed ^ site.rotate_left(17) ^ mix64(key)) % RATE_DENOM as u64)
                < rate as u64
    }

    /// When (if ever) `platform` reboots mid-sweep. The *whether* roll
    /// goes through the hardware layer's [`ResetPlan`]; the instant is
    /// a seeded draw over the reboot window.
    fn reboot_instant(&self, platform: u64) -> Option<u64> {
        if self.reboot_rate == 0 {
            return None;
        }
        let decides = ResetPlan::new(self.seed)
            .with_reset_rate(self.reboot_rate)
            .roll_power_loss(platform, 0);
        if !decides {
            return None;
        }
        Some(
            1 + mix64(self.seed ^ SITE_REBOOT_AT.rotate_left(17) ^ mix64(platform))
                % self.reboot_window_ns,
        )
    }

    /// The earliest instant at or after `t_ns` when `platform` can
    /// transmit: a platform inside its reboot blackout
    /// (`[instant, instant + RESET_REBOOT_COST)`) transmits when the
    /// reboot finishes.
    pub(crate) fn available_at(&self, platform: u64, t_ns: u64) -> u64 {
        match self.reboot_instant(platform) {
            Some(r) if t_ns >= r && t_ns < r + RESET_REBOOT_COST.as_ns() => {
                r + RESET_REBOOT_COST.as_ns()
            }
            _ => t_ns,
        }
    }

    /// Whether (and when) `platform`'s certificate rotates:
    /// `(not_after_ns, re_enroll_at_ns)`.
    pub fn rotation_for(&self, platform: u64) -> Option<(u64, u64)> {
        if !self.rate_roll(SITE_ROTATE, platform, self.rotation_rate) {
            return None;
        }
        Some((
            self.rotation_at_ns,
            self.rotation_at_ns.saturating_add(self.re_enroll_delay_ns),
        ))
    }

    /// The adversarial wires to interleave alongside honest request
    /// `request`, in a fixed kind order.
    pub(crate) fn adversaries_for(&self, request: u64) -> Vec<AdversaryKind> {
        let mut kinds = Vec::new();
        if self.rate_roll(SITE_REPLAY, request, self.replay_rate) {
            kinds.push(AdversaryKind::Replay);
        }
        if self.rate_roll(SITE_STALE, request, self.stale_rate) {
            kinds.push(AdversaryKind::StaleNonce);
        }
        if self.rate_roll(SITE_FLIP, request, self.bitflip_rate) {
            kinds.push(AdversaryKind::BitFlip);
        }
        if self.rate_roll(SITE_FORGE, request, self.forge_rate) {
            kinds.push(AdversaryKind::ForgedCert);
        }
        kinds
    }

    /// Which bit a [`AdversaryKind::BitFlip`] wire has flipped, for a
    /// wire of `bits` total bits.
    pub fn bitflip_bit(&self, request: u64, bits: usize) -> usize {
        (mix64(self.seed ^ SITE_FLIP.rotate_left(31) ^ mix64(request)) % bits.max(1) as u64)
            as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churny() -> ChurnPlan {
        ChurnPlan::new(0xC0DE)
            .with_net(NetPlan::new(0xC0DE).with_drop_rate(8000))
            .with_reboots(RATE_DENOM / 2, 1_000_000)
            .with_rotation(RATE_DENOM / 2, 2_000_000, 300_000)
            .with_tcb_push(TcbPush {
                at_ns: 3_000_000,
                groups: 4,
                group_delay_ns: 100_000,
                grace_ns: 50_000,
            })
            .with_adversary(8000, 8000, 8000, 8000)
    }

    #[test]
    fn calm_plan_decides_nothing() {
        let calm = ChurnPlan::calm();
        for p in 0..32u64 {
            assert_eq!(calm.reboot_instant(p), None);
            assert_eq!(calm.available_at(p, 123), 123);
            assert_eq!(calm.rotation_for(p), None);
            assert!(calm.adversaries_for(p).is_empty());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_decorrelated() {
        let a = churny();
        let b = churny();
        let mut reboots = 0;
        let mut rotations = 0;
        let mut adversaries = 0;
        for p in 0..128u64 {
            assert_eq!(a.reboot_instant(p), b.reboot_instant(p));
            assert_eq!(a.rotation_for(p), b.rotation_for(p));
            assert_eq!(a.adversaries_for(p), b.adversaries_for(p));
            reboots += a.reboot_instant(p).is_some() as usize;
            rotations += a.rotation_for(p).is_some() as usize;
            adversaries += a.adversaries_for(p).len();
        }
        // At 50% rates over 128 draws, every dimension must fire some
        // but not all of the time.
        assert!(reboots > 16 && reboots < 112, "reboots = {reboots}");
        assert!(rotations > 16 && rotations < 112, "rotations = {rotations}");
        assert!(adversaries > 64, "adversaries = {adversaries}");
    }

    #[test]
    fn reboot_blackout_defers_transmission() {
        let plan = ChurnPlan::new(7).with_reboots(RATE_DENOM, 1_000);
        let p = 3u64;
        let r = plan.reboot_instant(p).expect("full rate always reboots");
        assert!((1..=1_000).contains(&r));
        let cost = RESET_REBOOT_COST.as_ns();
        assert_eq!(plan.available_at(p, r.saturating_sub(1)), r - 1);
        assert_eq!(plan.available_at(p, r), r + cost);
        assert_eq!(plan.available_at(p, r + cost - 1), r + cost);
        assert_eq!(plan.available_at(p, r + cost), r + cost);
    }

    #[test]
    fn rotation_carries_expiry_and_re_enrollment() {
        let plan = ChurnPlan::new(7).with_rotation(RATE_DENOM, 5_000, 1_000);
        assert_eq!(plan.rotation_for(9), Some((5_000, 6_000)));
        let never = ChurnPlan::new(7).with_rotation(0, 5_000, 1_000);
        assert_eq!(never.rotation_for(9), None);
    }

    #[test]
    fn bitflip_bit_is_in_range_and_varies() {
        let plan = churny();
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..64u64 {
            let bit = plan.bitflip_bit(r, 800);
            assert!(bit < 800);
            seen.insert(bit);
        }
        assert!(seen.len() > 16);
        assert_eq!(plan.bitflip_bit(0, 0), 0, "degenerate width clamps");
    }

    #[test]
    fn adversary_kinds_display() {
        for (kind, needle) in [
            (AdversaryKind::Replay, "replay"),
            (AdversaryKind::StaleNonce, "stale-nonce"),
            (AdversaryKind::BitFlip, "bit-flip"),
            (AdversaryKind::ForgedCert, "forged-cert"),
        ] {
            assert_eq!(kind.to_string(), needle);
        }
    }
}
