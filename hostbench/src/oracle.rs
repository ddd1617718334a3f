//! The correctness oracle's bookkeeping: checks counted against the
//! operations attempted, and the digest of a unit's virtual-time results.

use sea_crypto::{to_hex, Sha1};

/// Checks made on one unit: each is one attempted operation, failed
/// unless its condition held. The first few failures keep a reason.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Reasons for the first failures.
    pub reasons: Vec<String>,
}

impl Checks {
    /// Records one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(what());
            }
        }
    }

    /// Folds another unit's checks into these.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < 8 {
                self.reasons.push(r);
            }
        }
    }
}

/// SHA-1 over a canonical encoding of a unit's simulated results:
/// virtual times, quote bytes, tallies, fates and VM counters. A change
/// that only makes the simulator faster leaves it unchanged.
#[derive(Default)]
pub struct Digest(Sha1);

impl Digest {
    /// Absorbs an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.0.update_bytes(&v.to_le_bytes());
        self
    }

    /// Absorbs a length-prefixed byte string.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.u64(b.len() as u64);
        self.0.update_bytes(b);
        self
    }

    /// The digest as lowercase hex.
    pub fn hex(self) -> String {
        to_hex(&self.0.finalize_fixed())
    }
}

/// The virtual-time digests recorded for `workload` at the default seed,
/// one per input variant, read from `digests.json` beside this crate's
/// manifest (a flat JSON object of workload name to space-separated hex
/// digests); empty when none is recorded.
pub fn recorded_digests(workload: &str) -> Vec<String> {
    let table = include_str!("../digests.json");
    let key = format!("\"{workload}\"");
    let value = table.find(&key).and_then(|at| {
        let rest = &table[at + key.len()..];
        let rest = &rest[rest.find('"')? + 1..];
        Some(&rest[..rest.find('"')?])
    });
    value
        .unwrap_or_default()
        .split_whitespace()
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_failures_against_attempts() {
        let mut c = Checks::default();
        c.check(true, || unreachable!());
        c.check(false, || "bad".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
        assert_eq!(c.reasons, vec!["bad".to_string()]);
    }

    #[test]
    fn every_workload_has_a_recorded_digest() {
        for w in crate::WORKLOADS {
            let digests = recorded_digests(w);
            assert!(!digests.is_empty(), "{w}");
            for d in digests {
                assert!(
                    d.len() == 40 && d.bytes().all(|b| b.is_ascii_hexdigit()),
                    "{w}: {d}"
                );
            }
        }
        assert_eq!(
            recorded_digests("fleet_churn").len(),
            crate::fleet::VARIANTS
        );
        assert!(recorded_digests("no_such_workload").is_empty());
    }
}
