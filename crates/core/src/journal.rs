//! The write-ahead session journal — what makes a batch crash-consistent.
//!
//! A durable batch ([`crate::SessionEngine::run`] under a policy with
//! [`crate::BatchPolicy::with_durability`]) records each session's
//! progress as `intent → launched → terminal`:
//!
//! * **Intent** — a worker picked the job up; nothing irreversible yet.
//! * **Launched** — `SLAUNCH` succeeded; pages and a sePCR are bound.
//! * **Quoted** / **Degraded** — the session finished; its complete
//!   result (output, cost report, quote bytes) is in the record.
//!
//! At each terminal commit the whole journal is serialized, sealed to
//! the empty PCR selection (so a reboot can never invalidate the blob),
//! and parked in TPM NVRAM. After a power loss, recovery unseals the
//! blob and replays it: terminal records rebuild their
//! [`SessionResult`]s byte-for-byte; everything else — intent-only,
//! launched-but-torn, or never started — is relaunched.
//!
//! Killed sessions are deliberately **not** journaled. A kill is a pure
//! function of the fault plan and the session key, so relaunching a
//! killed session after a reset re-derives the identical
//! [`SessionResult::Killed`] — cheaper and safer than serializing
//! arbitrary error values into NVRAM. (The crash-point property test
//! proves the equivalence.)

use std::collections::BTreeMap;

use sea_hw::{CpuId, SimDuration};
use sea_tpm::Quote;

use crate::engine::{JobResult, SessionResult};
use crate::error::SeaError;
use crate::report::SessionReport;

/// Magic prefix of the serialized journal.
const MAGIC: &[u8; 6] = b"SJNLv1";

/// Progress record for one session, keyed by its batch index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// A worker owns the job; `SLAUNCH` has not succeeded yet.
    Intent,
    /// `SLAUNCH` succeeded; the session holds pages and a sePCR.
    Launched,
    /// Terminal: the session completed and was quoted.
    Quoted {
        /// The PAL's output.
        output: Vec<u8>,
        /// The session's cost breakdown.
        report: SessionReport,
        /// Virtual cost of the post-exit quote + free.
        quote_cost: SimDuration,
        /// The CPU (= worker) the session ran on.
        cpu: u16,
        /// The serialized attestation ([`Quote::to_bytes`]).
        quote: Vec<u8>,
        /// Injected faults retried along the way.
        retries: u32,
        /// Virtual time spent on fault handling and backoff.
        recovery_cost: SimDuration,
    },
    /// Terminal: the sePCR bank was saturated; the session completed on
    /// the legacy slow path without a sePCR-bound quote.
    Degraded {
        /// The PAL's output.
        output: Vec<u8>,
        /// The legacy session's cost breakdown.
        report: SessionReport,
    },
}

impl JournalEntry {
    /// Whether this record is terminal (the session need not re-run).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JournalEntry::Quoted { .. } | JournalEntry::Degraded { .. }
        )
    }
}

/// The batch's write-ahead journal: one [`JournalEntry`] per session
/// key, monotone per key (intent → launched → terminal).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionJournal {
    entries: BTreeMap<u64, JournalEntry>,
}

impl SessionJournal {
    /// An empty journal (fresh batch, or nothing recovered from NVRAM).
    pub fn new() -> Self {
        SessionJournal::default()
    }

    /// Number of sessions with any record.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no session has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The record for `key`, if any.
    pub fn entry(&self, key: u64) -> Option<&JournalEntry> {
        self.entries.get(&key)
    }

    /// Records that a worker owns session `key`. Never downgrades a
    /// later record (a relaunched session re-declares intent).
    pub fn record_intent(&mut self, key: u64) {
        self.entries.entry(key).or_insert(JournalEntry::Intent);
    }

    /// Records that session `key` launched. Never downgrades a terminal
    /// record.
    pub fn record_launched(&mut self, key: u64) {
        let e = self.entries.entry(key).or_insert(JournalEntry::Launched);
        if !e.is_terminal() {
            *e = JournalEntry::Launched;
        }
    }

    /// Commits a terminal record for `key` from the session's final
    /// result. [`SessionResult::Killed`] is intentionally not journaled
    /// (see the module docs); the entry stays non-terminal and the
    /// session re-derives its kill on relaunch.
    pub fn commit(&mut self, key: u64, result: &SessionResult) {
        let record = match result {
            SessionResult::Quoted {
                result,
                quote,
                retries,
                recovery_cost,
            } => JournalEntry::Quoted {
                output: result.output.clone(),
                report: result.report,
                quote_cost: result.quote_cost,
                cpu: result.cpu.0,
                quote: quote.to_bytes(),
                retries: *retries,
                recovery_cost: *recovery_cost,
            },
            SessionResult::Degraded { output, report, .. } => JournalEntry::Degraded {
                output: output.clone(),
                report: *report,
            },
            SessionResult::Killed { .. } => return,
            // Unknown future variants are conservatively treated as
            // non-durable: the session relaunches after a crash.
            #[allow(unreachable_patterns)]
            _ => return,
        };
        self.entries.insert(key, record);
    }

    /// Keys whose sessions were in flight — intent or launched, no
    /// terminal record — i.e. torn by the crash.
    pub fn torn(&self) -> Vec<u64> {
        self.entries
            .iter()
            .filter(|(_, e)| !e.is_terminal())
            .map(|(k, _)| *k)
            .collect()
    }

    /// Rebuilds the committed [`SessionResult`]s from the terminal
    /// records, in key order.
    ///
    /// # Errors
    ///
    /// [`SeaError::Tpm`] if a stored quote fails to parse.
    pub fn restore(&self) -> Result<Vec<(u64, SessionResult)>, SeaError> {
        let mut out = Vec::new();
        for (key, entry) in &self.entries {
            match entry {
                JournalEntry::Quoted {
                    output,
                    report,
                    quote_cost,
                    cpu,
                    quote,
                    retries,
                    recovery_cost,
                } => out.push((
                    *key,
                    SessionResult::Quoted {
                        result: JobResult {
                            output: output.clone(),
                            report: *report,
                            quote_cost: *quote_cost,
                            cpu: CpuId(*cpu),
                        },
                        quote: Quote::from_bytes(quote)?,
                        retries: *retries,
                        recovery_cost: *recovery_cost,
                    },
                )),
                JournalEntry::Degraded { output, report } => out.push((
                    *key,
                    SessionResult::Degraded {
                        job: *key as usize,
                        output: output.clone(),
                        report: *report,
                    },
                )),
                JournalEntry::Intent | JournalEntry::Launched => {}
            }
        }
        Ok(out)
    }

    /// Serializes the journal (the bytes the checkpoint seals).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.entries.len() as u32).to_be_bytes());
        for (key, entry) in &self.entries {
            out.extend_from_slice(&key.to_be_bytes());
            match entry {
                JournalEntry::Intent => out.push(0),
                JournalEntry::Launched => out.push(1),
                JournalEntry::Quoted {
                    output,
                    report,
                    quote_cost,
                    cpu,
                    quote,
                    retries,
                    recovery_cost,
                } => {
                    out.push(2);
                    put_bytes(&mut out, output);
                    put_report(&mut out, report);
                    out.extend_from_slice(&quote_cost.as_ns().to_be_bytes());
                    out.extend_from_slice(&cpu.to_be_bytes());
                    put_bytes(&mut out, quote);
                    out.extend_from_slice(&retries.to_be_bytes());
                    out.extend_from_slice(&recovery_cost.as_ns().to_be_bytes());
                }
                JournalEntry::Degraded { output, report } => {
                    out.push(3);
                    put_bytes(&mut out, output);
                    put_report(&mut out, report);
                }
            }
        }
        out
    }

    /// Parses a journal serialized by [`SessionJournal::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SeaError::JournalCorrupt`] for truncated or malformed input,
    /// including keys that are not strictly ascending: only the
    /// canonical encoding parses, so a repeated key cannot silently
    /// replace an earlier record.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SeaError> {
        let mut r = Reader { rest: bytes };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(SeaError::JournalCorrupt("bad magic"));
        }
        let count = r.u32()?;
        let mut entries = BTreeMap::new();
        for _ in 0..count {
            let key = r.u64()?;
            if entries
                .last_key_value()
                .is_some_and(|(&last, _)| key <= last)
            {
                return Err(SeaError::JournalCorrupt("keys out of order"));
            }
            let entry = match r.u8()? {
                0 => JournalEntry::Intent,
                1 => JournalEntry::Launched,
                2 => JournalEntry::Quoted {
                    output: r.bytes_field()?,
                    report: r.report()?,
                    quote_cost: r.duration()?,
                    cpu: r.u16()?,
                    quote: r.bytes_field()?,
                    retries: r.u32()?,
                    recovery_cost: r.duration()?,
                },
                3 => JournalEntry::Degraded {
                    output: r.bytes_field()?,
                    report: r.report()?,
                },
                _ => return Err(SeaError::JournalCorrupt("unknown record tag")),
            };
            entries.insert(key, entry);
        }
        if !r.rest.is_empty() {
            return Err(SeaError::JournalCorrupt("trailing bytes"));
        }
        Ok(SessionJournal { entries })
    }
}

fn put_bytes(out: &mut Vec<u8>, field: &[u8]) {
    out.extend_from_slice(&(field.len() as u32).to_be_bytes());
    out.extend_from_slice(field);
}

fn put_report(out: &mut Vec<u8>, report: &SessionReport) {
    for d in [
        report.late_launch,
        report.seal,
        report.unseal,
        report.quote,
        report.tpm_other,
        report.context_switch,
        report.pal_work,
    ] {
        out.extend_from_slice(&d.as_ns().to_be_bytes());
    }
}

/// A cursor over the bytes not yet parsed.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SeaError> {
        let (field, rest) = self
            .rest
            .split_at_checked(n)
            .ok_or(SeaError::JournalCorrupt("truncated"))?;
        self.rest = rest;
        Ok(field)
    }

    /// Reads a fixed-size field.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SeaError> {
        let (field, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(SeaError::JournalCorrupt("truncated"))?;
        self.rest = rest;
        Ok(*field)
    }

    fn u8(&mut self) -> Result<u8, SeaError> {
        Ok(u8::from_be_bytes(self.array()?))
    }

    fn u16(&mut self) -> Result<u16, SeaError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, SeaError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, SeaError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    fn duration(&mut self) -> Result<SimDuration, SeaError> {
        Ok(SimDuration::from_ns(self.u64()?))
    }

    fn bytes_field(&mut self) -> Result<Vec<u8>, SeaError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn report(&mut self) -> Result<SessionReport, SeaError> {
        Ok(SessionReport {
            late_launch: self.duration()?,
            seal: self.duration()?,
            unseal: self.duration()?,
            quote: self.duration()?,
            tpm_other: self.duration()?,
            context_switch: self.duration()?,
            pal_work: self.duration()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SessionReport {
        SessionReport {
            late_launch: SimDuration::from_us(10),
            pal_work: SimDuration::from_us(40),
            ..SessionReport::default()
        }
    }

    fn quoted(output: &[u8]) -> SessionResult {
        SessionResult::Quoted {
            result: JobResult {
                output: output.to_vec(),
                report: report(),
                quote_cost: SimDuration::from_us(880),
                cpu: CpuId(2),
            },
            quote: test_quote(),
            retries: 1,
            recovery_cost: SimDuration::from_us(70),
        }
    }

    fn test_quote() -> Quote {
        // A structurally valid quote via the TPM itself.
        let mut tpm = sea_tpm::Tpm::new(
            sea_hw::TpmKind::Infineon,
            sea_tpm::KeyStrength::Demo512,
            b"journal test",
        );
        tpm.quote(b"nonce", &[sea_tpm::PcrIndex(17)]).unwrap().value
    }

    #[test]
    fn lifecycle_is_monotone_per_key() {
        let mut j = SessionJournal::new();
        j.record_intent(3);
        assert_eq!(j.entry(3), Some(&JournalEntry::Intent));
        j.record_launched(3);
        assert_eq!(j.entry(3), Some(&JournalEntry::Launched));
        // Re-declaring intent after launch must not rewind.
        j.record_intent(3);
        assert_eq!(j.entry(3), Some(&JournalEntry::Launched));
        j.commit(3, &quoted(b"out"));
        assert!(j.entry(3).unwrap().is_terminal());
        // Nor may a relaunch record rewind a terminal.
        j.record_launched(3);
        assert!(j.entry(3).unwrap().is_terminal());
    }

    #[test]
    fn killed_results_are_not_journaled() {
        let mut j = SessionJournal::new();
        j.record_launched(5);
        j.commit(
            5,
            &SessionResult::Killed {
                job: 5,
                attempts: 5,
                error: SeaError::NoTpm,
                wasted: SimDuration::from_us(1),
            },
        );
        assert_eq!(j.entry(5), Some(&JournalEntry::Launched));
        assert_eq!(j.torn(), vec![5]);
    }

    #[test]
    fn roundtrip_preserves_everything_and_restores_results() {
        let mut j = SessionJournal::new();
        j.record_intent(0);
        j.record_launched(1);
        let q = quoted(b"alpha");
        j.commit(2, &q);
        j.commit(
            7,
            &SessionResult::Degraded {
                job: 7,
                output: b"slow path".to_vec(),
                report: report(),
            },
        );

        let bytes = j.to_bytes();
        let back = SessionJournal::from_bytes(&bytes).unwrap();
        assert_eq!(back, j);
        assert_eq!(back.torn(), vec![0, 1]);

        let restored = back.restore().unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored[0].0, 2);
        assert_eq!(restored[0].1, q);
        match &restored[1].1 {
            SessionResult::Degraded { job, output, .. } => {
                assert_eq!(*job, 7);
                assert_eq!(output, b"slow path");
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_inputs_are_rejected_not_panicked() {
        assert!(matches!(
            SessionJournal::from_bytes(b"NOPEv1\0\0\0\0"),
            Err(SeaError::JournalCorrupt("bad magic"))
        ));
        let mut good = SessionJournal::new();
        good.record_intent(1);
        let mut bytes = good.to_bytes();
        // Truncation mid-record.
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            SessionJournal::from_bytes(&bytes),
            Err(SeaError::JournalCorrupt(_))
        ));
        // Trailing garbage.
        let mut padded = good.to_bytes();
        padded.push(0xFF);
        assert!(matches!(
            SessionJournal::from_bytes(&padded),
            Err(SeaError::JournalCorrupt("trailing bytes"))
        ));
        // Unknown tag.
        let mut bad_tag = good.to_bytes();
        let last = bad_tag.len() - 1;
        bad_tag[last] = 9;
        assert!(matches!(
            SessionJournal::from_bytes(&bad_tag),
            Err(SeaError::JournalCorrupt("unknown record tag"))
        ));
        // A repeated key, and two records in descending order.
        let mut pair = SessionJournal::new();
        pair.record_intent(1);
        pair.record_launched(2);
        let pair_bytes = pair.to_bytes();
        let (head, records) = pair_bytes.split_at(MAGIC.len() + 4);
        let (first, second) = records.split_at(records.len() / 2);
        let mut duplicated = pair_bytes.clone();
        duplicated[head.len() + first.len()..][..8].copy_from_slice(&1u64.to_be_bytes());
        let swapped = [head, second, first].concat();
        for bytes in [duplicated, swapped] {
            assert!(matches!(
                SessionJournal::from_bytes(&bytes),
                Err(SeaError::JournalCorrupt("keys out of order"))
            ));
        }
        // Every proper prefix of a journal holding all four record kinds.
        let mut full = SessionJournal::new();
        full.record_intent(0);
        full.record_launched(1);
        full.commit(2, &quoted(b"alpha"));
        full.commit(
            7,
            &SessionResult::Degraded {
                job: 7,
                output: b"slow path".to_vec(),
                report: report(),
            },
        );
        let full_bytes = full.to_bytes();
        assert_eq!(SessionJournal::from_bytes(&full_bytes).unwrap(), full);
        for cut in 0..full_bytes.len() {
            assert!(
                matches!(
                    SessionJournal::from_bytes(&full_bytes[..cut]),
                    Err(SeaError::JournalCorrupt(_))
                ),
                "cut at {cut}"
            );
        }
        // The empty journal round-trips.
        let empty = SessionJournal::new();
        assert!(empty.is_empty());
        assert_eq!(
            SessionJournal::from_bytes(&empty.to_bytes()).unwrap().len(),
            0
        );
    }
}
