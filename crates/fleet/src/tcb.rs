//! Versioned TCB-status policy — the verifier's *freshness* dimension.
//!
//! Knowing that a quote replays a trusted build's measurement chain is
//! necessary but not sufficient: the build itself may have aged out.
//! DCAP-style attestation separates the two concerns with a signed,
//! versioned TCB-info structure whose per-component verdicts
//! (`UpToDate` / `OutOfDate` / `Revoked`) are evaluated by a relying
//! party *policy* — some deployments accept `OutOfDate` hardware, some
//! do not. This module models that split: [`TcbInfo`] is the versioned
//! table (image digest → status), [`TcbPolicy`] the composable policy
//! that turns a status into a [`TcbVerdict`].

use std::collections::BTreeMap;

/// The TCB status a table assigns to one trusted build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TcbStatus {
    /// The build is the current, fully patched one.
    UpToDate,
    /// The build is still trusted but superseded — a newer build fixes
    /// known (non-fatal) issues.
    OutOfDate,
    /// The build is revoked: a vulnerability makes its attestations
    /// worthless regardless of policy.
    Revoked,
}

/// A versioned table mapping PAL image digests to their TCB status.
///
/// The version is monotone: a verifier that has seen version *n* must
/// refuse to ingest an older table (rollback protection); this type
/// enforces that at [`TcbInfo::merge`] time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcbInfo {
    version: u32,
    entries: BTreeMap<[u8; 20], TcbStatus>,
}

impl TcbInfo {
    /// An empty table at `version`.
    pub fn new(version: u32) -> Self {
        TcbInfo {
            version,
            entries: BTreeMap::new(),
        }
    }

    /// Table version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Records `status` for the build with the given image digest
    /// (builder-style).
    pub fn with_status(mut self, image_digest: [u8; 20], status: TcbStatus) -> Self {
        self.entries.insert(image_digest, status);
        self
    }

    /// The status assigned to an image digest, if listed.
    pub fn status(&self, image_digest: &[u8; 20]) -> Option<TcbStatus> {
        self.entries.get(image_digest).copied()
    }

    /// Number of listed builds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no builds are listed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replaces this table with `newer`, refusing rollback.
    ///
    /// # Errors
    ///
    /// Returns the rejected table's version if it is older than the
    /// current one.
    pub fn merge(&mut self, newer: TcbInfo) -> Result<(), u32> {
        if newer.version < self.version {
            return Err(newer.version);
        }
        *self = newer;
        Ok(())
    }
}

/// A staged, mid-run push of a new [`TcbInfo`] table across a fleet.
///
/// Real TCB-info distribution is not atomic: the table reaches
/// different parts of the fleet at different times. A rollout models
/// that with *logical* propagation groups — platform `p` belongs to
/// group `p % groups`, and group `g` sees the new table from
/// `announced_ns + g * group_delay_ns`. Grouping is a pure function of
/// the platform id, never of shard layout or worker count, which is
/// what keeps a churned sweep byte-identical across execution shapes.
///
/// The rollout also carries a bounded *grace window*: for `grace_ns`
/// after the table reaches a platform's group, a build the new table
/// marks `OutOfDate` is still accepted (degraded) even under a strict
/// policy, so a fleet mid-update degrades gracefully instead of
/// cliff-rejecting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcbRollout {
    table: TcbInfo,
    announced_ns: u64,
    groups: u64,
    group_delay_ns: u64,
    grace_ns: u64,
}

impl TcbRollout {
    /// A rollout of `table` announced at `announced_ns`, propagating to
    /// `groups` logical groups one `group_delay_ns` apart, with a
    /// `grace_ns` stale-TCB grace window per group.
    pub fn new(
        table: TcbInfo,
        announced_ns: u64,
        groups: u64,
        group_delay_ns: u64,
        grace_ns: u64,
    ) -> Self {
        TcbRollout {
            table,
            announced_ns,
            groups: groups.max(1),
            group_delay_ns,
            grace_ns,
        }
    }

    /// The table being rolled out.
    pub fn table(&self) -> &TcbInfo {
        &self.table
    }

    /// When the new table reaches `platform`'s propagation group.
    fn arrival_ns(&self, platform: u64) -> u64 {
        self.announced_ns
            .saturating_add((platform % self.groups).saturating_mul(self.group_delay_ns))
    }

    /// Whether `platform` already sees the new table at `now_ns`.
    pub(crate) fn active_for(&self, platform: u64, now_ns: u64) -> bool {
        now_ns >= self.arrival_ns(platform)
    }

    /// Whether `now_ns` is inside `platform`'s stale-TCB grace window
    /// (the bounded span after arrival during which `OutOfDate` builds
    /// are still accepted, degraded).
    pub(crate) fn in_grace(&self, platform: u64, now_ns: u64) -> bool {
        self.active_for(platform, now_ns)
            && now_ns <= self.arrival_ns(platform).saturating_add(self.grace_ns)
    }
}

/// What a policy decides about one status lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TcbVerdict {
    /// Accepted; carries the status so relying parties can still
    /// surface "accepted, but out of date" to operators.
    Accepted(TcbStatus),
    /// Rejected: the build is superseded and the policy does not accept
    /// stale TCBs.
    OutOfDate,
    /// Rejected: the build is revoked (no policy accepts this).
    Revoked,
    /// Rejected: the build is not listed in the table.
    Unlisted,
}

/// A composable acceptance policy over [`TcbStatus`] lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcbPolicy {
    accept_out_of_date: bool,
}

impl TcbPolicy {
    /// The strictest policy: only listed, up-to-date builds pass.
    pub fn strict() -> Self {
        TcbPolicy {
            accept_out_of_date: false,
        }
    }

    /// Also accept `OutOfDate` builds (builder-style).
    pub fn accept_out_of_date(mut self, yes: bool) -> Self {
        self.accept_out_of_date = yes;
        self
    }

    /// Evaluates one status lookup. `Revoked` is terminal under every
    /// composition.
    pub(crate) fn evaluate(&self, status: Option<TcbStatus>) -> TcbVerdict {
        match status {
            Some(TcbStatus::UpToDate) => TcbVerdict::Accepted(TcbStatus::UpToDate),
            Some(TcbStatus::OutOfDate) if self.accept_out_of_date => {
                TcbVerdict::Accepted(TcbStatus::OutOfDate)
            }
            Some(TcbStatus::OutOfDate) => TcbVerdict::OutOfDate,
            Some(TcbStatus::Revoked) => TcbVerdict::Revoked,
            None => TcbVerdict::Unlisted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IMG: [u8; 20] = [7u8; 20];

    #[test]
    fn table_lookup_and_version() {
        let t = TcbInfo::new(3).with_status(IMG, TcbStatus::OutOfDate);
        assert_eq!(t.version(), 3);
        assert_eq!(t.status(&IMG), Some(TcbStatus::OutOfDate));
        assert_eq!(t.status(&[0u8; 20]), None);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn merge_refuses_rollback() {
        let mut t = TcbInfo::new(5);
        assert_eq!(t.merge(TcbInfo::new(4)), Err(4));
        assert_eq!(t.version(), 5);
        t.merge(TcbInfo::new(6).with_status(IMG, TcbStatus::Revoked))
            .unwrap();
        assert_eq!(t.version(), 6);
        assert_eq!(t.status(&IMG), Some(TcbStatus::Revoked));
    }

    #[test]
    fn revocation_is_terminal_under_every_policy() {
        for policy in [
            TcbPolicy::strict(),
            TcbPolicy::strict().accept_out_of_date(true),
        ] {
            assert_eq!(
                policy.evaluate(Some(TcbStatus::Revoked)),
                TcbVerdict::Revoked
            );
        }
    }

    #[test]
    fn rollout_propagates_by_logical_group_with_grace() {
        let table = TcbInfo::new(2).with_status(IMG, TcbStatus::OutOfDate);
        let r = TcbRollout::new(table, 1_000, 4, 100, 50);
        // Group = platform % 4; arrival staggers by 100ns per group.
        assert_eq!(r.arrival_ns(0), 1_000);
        assert_eq!(r.arrival_ns(5), 1_100);
        assert_eq!(r.arrival_ns(7), 1_300);
        assert!(!r.active_for(7, 1_299));
        assert!(r.active_for(7, 1_300));
        // Grace is a bounded, inclusive window after arrival.
        assert!(r.in_grace(7, 1_300));
        assert!(r.in_grace(7, 1_350));
        assert!(!r.in_grace(7, 1_351));
        assert!(!r.in_grace(7, 1_299), "grace cannot precede arrival");
        // Zero groups clamps to one (everything arrives together).
        let flat = TcbRollout::new(TcbInfo::new(2), 500, 0, 100, 0);
        assert_eq!(flat.arrival_ns(9), 500);
    }

    #[test]
    fn unlisted_is_rejected_under_every_policy() {
        for policy in [
            TcbPolicy::strict(),
            TcbPolicy::strict().accept_out_of_date(true),
        ] {
            assert_eq!(policy.evaluate(None), TcbVerdict::Unlisted);
        }
    }
}
