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
//! The journal persists as an append-only log under a small sealed
//! head, the shape Memoir (Parno et al., IEEE S&P 2011) gives state
//! that must survive crashes and resist rollback. At each terminal
//! commit, [`SessionJournal::checkpoint`] encodes only the records that
//! changed since the last checkpoint as one *frame*, appends it to the
//! log in TPM NVRAM ([`JOURNAL_LOG_NV_INDEX`]), extends a SHA-256 hash
//! chain over it, and seals a fixed-size *head* — format tag, log
//! length, chain head — to the empty PCR selection (so a reboot can
//! never invalidate it) at [`JOURNAL_NV_INDEX`]. A checkpoint therefore
//! costs the records it adds, not the ledger. After a power loss,
//! [`SessionJournal::recover`] unseals the head, checks the log against
//! it, and replays the frames: terminal records rebuild their
//! [`SessionResult`]s byte-for-byte; everything else — intent-only,
//! launched-but-torn, or never started — is relaunched.
//!
//! The log is neither keyed nor encrypted. Recovery relies on its
//! integrity, which the chain head gives because the seal's MAC
//! authenticates the head. Secrecy would add nothing: every byte the
//! journal holds (PAL outputs, quotes, cost reports) is already in the
//! untrusted OS's hands, and a head sealed to the empty selection
//! unseals for any platform software.
//!
//! Killed sessions are deliberately **not** journaled. A kill is a pure
//! function of the fault plan and the session key, so relaunching a
//! killed session after a reset re-derives the identical
//! [`SessionResult::Killed`] — cheaper and safer than serializing
//! arbitrary error values into NVRAM. (The crash-point property test
//! proves the equivalence.)

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use sea_crypto::Sha256;
use sea_hw::{CpuId, SimDuration};
use sea_tpm::{Quote, SealedBlob, Timed, Tpm};

use crate::engine::{JobResult, SessionResult, JOURNAL_LOG_NV_INDEX, JOURNAL_NV_INDEX};
use crate::error::SeaError;
use crate::report::SessionReport;

/// Magic prefix of the serialized journal.
const MAGIC: &[u8; 6] = b"SJNLv1";

/// Format tag of the sealed log head.
const HEAD_TAG: &[u8; 6] = b"SJNLh1";

/// Bytes of the sealed head's plaintext: tag, log length, chain head.
const HEAD_LEN: usize = HEAD_TAG.len() + 8 + 32;

/// Bytes of a frame's length prefix.
const FRAME_PREFIX: usize = 4;

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
    fn is_terminal(&self) -> bool {
        matches!(
            self,
            JournalEntry::Quoted { .. } | JournalEntry::Degraded { .. }
        )
    }
}

/// Where a journal's log ends: what the sealed head pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LogHead {
    /// Bytes of log pinned.
    len: u64,
    /// The hash chain over the pinned frames: all zeros for the empty
    /// log, then `SHA-256(chain ‖ frame)` per frame, length prefix
    /// included, so the chain also fixes where each frame ends.
    chain: [u8; 32],
}

impl LogHead {
    /// The head once `frame` is appended.
    fn extend(&self, frame: &[u8]) -> Result<LogHead, SeaError> {
        let len = u64::try_from(frame.len())
            .ok()
            .and_then(|n| self.len.checked_add(n))
            .ok_or(SeaError::JournalCorrupt("log length overflows"))?;
        let mut h = Sha256::new();
        h.update_bytes(&self.chain);
        h.update_bytes(frame);
        Ok(LogHead {
            len,
            chain: h.finalize_fixed(),
        })
    }

    /// The sealed plaintext: `HEAD_LEN` bytes whatever the log holds.
    fn to_bytes(self) -> Vec<u8> {
        [&HEAD_TAG[..], &self.len.to_be_bytes(), &self.chain].concat()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SeaError> {
        if bytes.len() != HEAD_LEN {
            return Err(SeaError::JournalCorrupt("bad head length"));
        }
        let mut r = Reader { rest: bytes };
        if r.array()? != *HEAD_TAG {
            return Err(SeaError::JournalCorrupt("bad head tag"));
        }
        Ok(LogHead {
            len: r.u64()?,
            chain: r.array()?,
        })
    }
}

/// The batch's write-ahead journal: one [`JournalEntry`] per session
/// key, monotone per key (intent → launched → terminal), plus where it
/// stands in its NVRAM log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionJournal {
    entries: BTreeMap<u64, JournalEntry>,
    /// Keys whose records changed since the last checkpoint: the next
    /// frame.
    dirty: BTreeSet<u64>,
    /// The log as of the last checkpoint or recovery.
    head: LogHead,
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
        if let Entry::Vacant(slot) = self.entries.entry(key) {
            slot.insert(JournalEntry::Intent);
            self.dirty.insert(key);
        }
    }

    /// Records that session `key` launched. Never downgrades a terminal
    /// record.
    pub fn record_launched(&mut self, key: u64) {
        let e = self.entries.entry(key).or_insert(JournalEntry::Intent);
        if matches!(e, JournalEntry::Intent) {
            *e = JournalEntry::Launched;
            self.dirty.insert(key);
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
        if self.entries.get(&key) != Some(&record) {
            self.entries.insert(key, record);
            self.dirty.insert(key);
        }
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

    /// Makes the records changed since the last checkpoint durable:
    /// appends them to the NVRAM log as one frame, then seals the new
    /// head to the empty PCR selection — one `TPM_Seal` of a fixed-size
    /// head, whatever the ledger holds. Returns the seal's virtual
    /// cost.
    ///
    /// # Errors
    ///
    /// [`SeaError::JournalCorrupt`] when the log in NVRAM is not the one
    /// this journal last checkpointed or recovered (its length is not
    /// the head's); [`SeaError::Tpm`] when the seal fails.
    pub fn checkpoint(&mut self, tpm: &mut Tpm) -> Result<SimDuration, SeaError> {
        let logged = tpm
            .nvram()
            .read_blob(JOURNAL_LOG_NV_INDEX)
            .map_or(0, <[u8]>::len);
        if u64::try_from(logged).ok() != Some(self.head.len) {
            return Err(SeaError::JournalCorrupt("log out of step with the journal"));
        }
        let frame = Self::encode_frame(
            self.dirty
                .iter()
                .filter_map(|key| self.entries.get(key).map(|entry| (*key, entry))),
        );
        let head = self.head.extend(&frame)?;
        // Write-ahead: the frame reaches NVRAM before the head that pins
        // it, so a power loss between the two leaves a torn append that
        // recovery drops.
        tpm.nvram_mut().append_blob(JOURNAL_LOG_NV_INDEX, &frame);
        // Seal to the empty PCR selection: the head must unseal on the
        // rebooted platform, whose PCRs have all reset.
        let sealed = tpm.seal(&head.to_bytes(), &[])?;
        tpm.nvram_mut()
            .store_blob(JOURNAL_NV_INDEX, &sealed.value.to_bytes());
        self.head = head;
        self.dirty.clear();
        Ok(sealed.elapsed)
    }

    /// Rebuilds the journal from NVRAM after a power loss: unseals the
    /// head (the one TPM command recovery issues), checks the log
    /// against it, and replays the frames it pins. `None` when no head
    /// was ever sealed, so nothing was unsealed: recovery then starts
    /// from an empty journal.
    ///
    /// Recovery replays exactly the frames the head pins. Bytes past
    /// them are accepted only when they form exactly one whole frame: a
    /// *torn append*, the state a power loss between a checkpoint's
    /// append and its seal leaves. They are dropped from NVRAM, so the
    /// next checkpoint continues from the head.
    ///
    /// # Errors
    ///
    /// [`SeaError::JournalCorrupt`] for a log shorter than its head
    /// (truncated or rolled back), frames that do not hash to the head's
    /// chain (a flipped bit, or a spliced, swapped or older-prefix log),
    /// anything past the head but one whole frame (a stale head), or a
    /// malformed head or frame; [`SeaError::Tpm`] when the head blob
    /// does not parse or unseal.
    pub fn recover(tpm: &mut Tpm) -> Result<Option<Timed<SessionJournal>>, SeaError> {
        let unsealed = match tpm.nvram().read_blob(JOURNAL_NV_INDEX) {
            Some(bytes) => {
                let blob = SealedBlob::from_bytes(bytes)?;
                let opened = tpm.unseal(&blob)?;
                Some((LogHead::from_bytes(&opened.value)?, opened.elapsed))
            }
            None => None,
        };
        let head = unsealed.map_or(LogHead::default(), |(head, _)| head);
        let mut log = tpm
            .nvram()
            .read_blob(JOURNAL_LOG_NV_INDEX)
            .map(<[u8]>::to_vec)
            .unwrap_or_default();
        let (pinned, torn) = usize::try_from(head.len)
            .ok()
            .and_then(|len| log.split_at_checked(len))
            .ok_or(SeaError::JournalCorrupt("log shorter than its head"))?;

        // Check before replaying: only frames the chain vouches for are
        // ever parsed as records.
        let mut frames = Vec::new();
        let mut chain = LogHead::default();
        let mut rest = pinned;
        while !rest.is_empty() {
            let (frame, next) = split_frame(rest)?;
            chain = chain.extend(frame)?;
            frames.push(frame);
            rest = next;
        }
        if chain != head {
            return Err(SeaError::JournalCorrupt("log does not match its head"));
        }
        if !torn.is_empty() && !matches!(split_frame(torn), Ok((_, []))) {
            return Err(SeaError::JournalCorrupt("stale head"));
        }
        let (pinned_len, torn) = (pinned.len(), !torn.is_empty());

        let mut journal = SessionJournal {
            head,
            ..SessionJournal::default()
        };
        for frame in frames {
            journal.entries.extend(Self::decode_frame(frame)?);
        }
        if torn {
            log.truncate(pinned_len);
            tpm.nvram_mut().store_blob(JOURNAL_LOG_NV_INDEX, &log);
        }
        Ok(unsealed.map(|(_, elapsed)| Timed {
            value: journal,
            elapsed,
        }))
    }

    /// Encodes records, keys strictly ascending, as one log frame: a
    /// `u32` byte length, then each record in the serialized journal's
    /// record encoding.
    pub fn encode_frame<'a>(records: impl IntoIterator<Item = (u64, &'a JournalEntry)>) -> Vec<u8> {
        let mut out = vec![0; FRAME_PREFIX];
        for (key, entry) in records {
            put_record(&mut out, key, entry);
        }
        let len = (out.len() - FRAME_PREFIX) as u32;
        out[..FRAME_PREFIX].copy_from_slice(&len.to_be_bytes());
        out
    }

    /// Parses one frame written by [`SessionJournal::encode_frame`] into
    /// its records.
    ///
    /// # Errors
    ///
    /// [`SeaError::JournalCorrupt`] for truncated or malformed input,
    /// trailing bytes, or keys that are not strictly ascending: only the
    /// canonical encoding parses, so a parsed frame re-encodes to its
    /// input.
    pub fn decode_frame(frame: &[u8]) -> Result<Vec<(u64, JournalEntry)>, SeaError> {
        let mut r = Reader { rest: frame };
        let len = r.u32()? as usize;
        let body = r.take(len)?;
        if !r.rest.is_empty() {
            return Err(SeaError::JournalCorrupt("trailing bytes"));
        }
        let mut r = Reader { rest: body };
        let mut records: Vec<(u64, JournalEntry)> = Vec::new();
        while !r.rest.is_empty() {
            records.push(r.record(records.last().map(|(key, _)| *key))?);
        }
        Ok(records)
    }

    /// Serializes the whole ledger (magic, record count, every record).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.entries.len() as u32).to_be_bytes());
        for (key, entry) in &self.entries {
            put_record(&mut out, *key, entry);
        }
        out
    }

    /// Parses a journal serialized by [`SessionJournal::to_bytes`]. None
    /// of its records is in a log yet, so the next checkpoint writes
    /// them all.
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
            let (key, entry) = r.record(entries.last_key_value().map(|(key, _)| *key))?;
            entries.insert(key, entry);
        }
        if !r.rest.is_empty() {
            return Err(SeaError::JournalCorrupt("trailing bytes"));
        }
        Ok(SessionJournal {
            dirty: entries.keys().copied().collect(),
            entries,
            head: LogHead::default(),
        })
    }
}

/// Splits the first whole frame, length prefix included, off `log`.
fn split_frame(log: &[u8]) -> Result<(&[u8], &[u8]), SeaError> {
    let (len, _) = log
        .split_first_chunk::<FRAME_PREFIX>()
        .ok_or(SeaError::JournalCorrupt("truncated frame"))?;
    usize::try_from(u32::from_be_bytes(*len))
        .ok()
        .and_then(|len| len.checked_add(FRAME_PREFIX))
        .and_then(|whole| log.split_at_checked(whole))
        .ok_or(SeaError::JournalCorrupt("truncated frame"))
}

/// Appends one record in the serialized journal's encoding: key, tag,
/// then the variant's fields.
fn put_record(out: &mut Vec<u8>, key: u64, entry: &JournalEntry) {
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
            put_bytes(out, output);
            put_report(out, report);
            out.extend_from_slice(&quote_cost.as_ns().to_be_bytes());
            out.extend_from_slice(&cpu.to_be_bytes());
            put_bytes(out, quote);
            out.extend_from_slice(&retries.to_be_bytes());
            out.extend_from_slice(&recovery_cost.as_ns().to_be_bytes());
        }
        JournalEntry::Degraded { output, report } => {
            out.push(3);
            put_bytes(out, output);
            put_report(out, report);
        }
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

    /// Reads one record. Only the canonical encoding parses, so its key
    /// must exceed `after`, the key of the record before it.
    fn record(&mut self, after: Option<u64>) -> Result<(u64, JournalEntry), SeaError> {
        let key = self.u64()?;
        if after.is_some_and(|last| key <= last) {
            return Err(SeaError::JournalCorrupt("keys out of order"));
        }
        let entry = match self.u8()? {
            0 => JournalEntry::Intent,
            1 => JournalEntry::Launched,
            2 => JournalEntry::Quoted {
                output: self.bytes_field()?,
                report: self.report()?,
                quote_cost: self.duration()?,
                cpu: self.u16()?,
                quote: self.bytes_field()?,
                retries: self.u32()?,
                recovery_cost: self.duration()?,
            },
            3 => JournalEntry::Degraded {
                output: self.bytes_field()?,
                report: self.report()?,
            },
            _ => return Err(SeaError::JournalCorrupt("unknown record tag")),
        };
        Ok((key, entry))
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

    fn degraded(job: usize, output: &[u8]) -> SessionResult {
        SessionResult::Degraded {
            job,
            output: output.to_vec(),
            report: report(),
        }
    }

    fn killed(job: usize) -> SessionResult {
        SessionResult::Killed {
            job,
            attempts: 5,
            error: SeaError::NoTpm,
            wasted: SimDuration::from_us(1),
        }
    }

    fn bare_tpm(seed: &[u8]) -> Tpm {
        Tpm::new(
            sea_hw::TpmKind::Infineon,
            sea_tpm::KeyStrength::Demo512,
            seed,
        )
    }

    fn test_quote() -> Quote {
        // A structurally valid quote via the TPM itself.
        bare_tpm(b"journal test")
            .quote(b"nonce", &[sea_tpm::PcrIndex(17)])
            .unwrap()
            .value
    }

    fn log_of(tpm: &Tpm) -> Vec<u8> {
        tpm.nvram()
            .read_blob(JOURNAL_LOG_NV_INDEX)
            .map(<[u8]>::to_vec)
            .unwrap_or_default()
    }

    fn head_of(tpm: &Tpm) -> Vec<u8> {
        tpm.nvram().read_blob(JOURNAL_NV_INDEX).unwrap().to_vec()
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
        j.commit(5, &killed(5));
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
        j.commit(7, &degraded(7, b"slow path"));

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
        // So must a frame's.
        for keys in [[1, 1], [2, 1]] {
            let frame = SessionJournal::encode_frame(keys.map(|key| (key, &JournalEntry::Intent)));
            assert!(matches!(
                SessionJournal::decode_frame(&frame),
                Err(SeaError::JournalCorrupt("keys out of order"))
            ));
        }
        // Every proper prefix of a journal holding all four record kinds.
        let mut full = SessionJournal::new();
        full.record_intent(0);
        full.record_launched(1);
        full.commit(2, &quoted(b"alpha"));
        full.commit(7, &degraded(7, b"slow path"));
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

    /// One step of a scripted durable batch.
    enum Op {
        Intent(u64),
        Launched(u64),
        Commit(u64, Box<SessionResult>),
        Checkpoint,
    }

    /// The equivalence and O(Δ) pins. After every checkpoint of a
    /// scripted batch — intents, launches, quoted and degraded
    /// terminals, a kill, an empty frame, and groups of one and three
    /// commits per checkpoint — recovery returns exactly the in-memory
    /// journal (so exactly the ledger the full-ledger checkpoint,
    /// `from_bytes(to_bytes())`, held); the sealed head's plaintext has
    /// the same length every time; and the log grows by exactly one
    /// frame prefix plus the encoded size of the records that changed.
    #[test]
    fn every_checkpoint_recovers_the_ledger_and_costs_its_delta() {
        use Op::*;
        let script = [
            Intent(0),
            Intent(1),
            Intent(2),
            Intent(3),
            Launched(0),
            Commit(0, Box::new(quoted(b"q0"))),
            Checkpoint,
            Launched(1),
            Launched(2),
            Commit(1, Box::new(degraded(1, b"d1"))),
            Checkpoint,
            // A group of three commits: the kill journals nothing.
            Commit(2, Box::new(killed(2))),
            Launched(3),
            Commit(3, Box::new(quoted(b"q3"))),
            Intent(4),
            Launched(4),
            Commit(4, Box::new(quoted(b"q4"))),
            Intent(5),
            Commit(5, Box::new(degraded(5, b"d5"))),
            Checkpoint,
            // The killed session relaunches: its records are unchanged,
            // so this checkpoint appends an empty frame.
            Intent(2),
            Launched(2),
            Checkpoint,
            Commit(2, Box::new(quoted(b"q2"))),
            Checkpoint,
        ];
        let mut tpm = bare_tpm(b"journal script");
        let mut journal = SessionJournal::new();
        let mut sealed = SessionJournal::new();
        let mut checkpoints = 0;
        for op in script {
            match op {
                Intent(key) => journal.record_intent(key),
                Launched(key) => journal.record_launched(key),
                Commit(key, result) => journal.commit(key, &result),
                Checkpoint => {
                    let delta: usize = journal
                        .entries
                        .iter()
                        .filter(|(key, entry)| sealed.entry(**key) != Some(entry))
                        .map(|(key, entry)| {
                            let mut record = Vec::new();
                            put_record(&mut record, *key, entry);
                            record.len()
                        })
                        .sum();
                    let before = log_of(&tpm).len();
                    journal.checkpoint(&mut tpm).unwrap();
                    checkpoints += 1;
                    let n = checkpoints;
                    assert_eq!(
                        log_of(&tpm).len() - before,
                        FRAME_PREFIX + delta,
                        "checkpoint {n}"
                    );
                    let head = SealedBlob::from_bytes(&head_of(&tpm)).unwrap();
                    assert_eq!(
                        tpm.unseal(&head).unwrap().value.len(),
                        HEAD_LEN,
                        "checkpoint {n}"
                    );
                    let recovered = SessionJournal::recover(&mut tpm).unwrap().unwrap().value;
                    assert_eq!(recovered, journal, "checkpoint {n}");
                    assert_eq!(
                        SessionJournal::from_bytes(&recovered.to_bytes()).unwrap(),
                        SessionJournal::from_bytes(&journal.to_bytes()).unwrap(),
                        "checkpoint {n}"
                    );
                    sealed = journal.clone();
                }
            }
        }
        assert_eq!(checkpoints, 5);
        assert_eq!(journal.restore().unwrap().len(), 6);
        assert!(journal.torn().is_empty());
    }

    /// A bare TPM holding a small journal checkpointed three times, with
    /// the journal, the sealed head and the log's length as of each
    /// checkpoint (oldest first).
    fn three_checkpoints(
        seed: &[u8],
        first_key: u64,
    ) -> (Tpm, Vec<(SessionJournal, Vec<u8>, usize)>) {
        let mut tpm = bare_tpm(seed);
        let mut journal = SessionJournal::new();
        let mut states = Vec::new();
        let k = first_key;
        let steps: [&dyn Fn(&mut SessionJournal); 3] = [
            &|j| {
                j.record_intent(k);
                j.record_intent(k + 1);
            },
            &|j| j.record_launched(k),
            &|j| {
                j.record_launched(k + 1);
                j.record_intent(k + 2);
            },
        ];
        for step in steps {
            step(&mut journal);
            journal.checkpoint(&mut tpm).unwrap();
            states.push((journal.clone(), head_of(&tpm), log_of(&tpm).len()));
        }
        (tpm, states)
    }

    fn assert_refused(tpm: &mut Tpm, head: &[u8], log: &[u8], what: &str) {
        tpm.nvram_mut().store_blob(JOURNAL_NV_INDEX, head);
        tpm.nvram_mut().store_blob(JOURNAL_LOG_NV_INDEX, log);
        match SessionJournal::recover(tpm) {
            Err(SeaError::JournalCorrupt(_)) => {}
            other => panic!("{what}: expected JournalCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn tampered_logs_and_stale_heads_are_refused_never_replayed() {
        let (mut tpm, states) = three_checkpoints(b"journal tamper", 0);
        let (journal, head, _) = states[2].clone();
        let log = log_of(&tpm);
        let ends: Vec<usize> = states.iter().map(|(_, _, end)| *end).collect();
        let frames = [&log[..ends[0]], &log[ends[0]..ends[1]], &log[ends[1]..]];

        for bit in 0..log.len() * 8 {
            let mut flipped = log.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_refused(&mut tpm, &head, &flipped, &format!("bit {bit} flipped"));
        }
        for cut in 0..log.len() {
            assert_refused(&mut tpm, &head, &log[..cut], &format!("truncated at {cut}"));
        }
        for &end in &ends[..2] {
            assert_refused(&mut tpm, &head, &log[..end], &format!("older prefix {end}"));
        }
        let swapped = [frames[0], frames[2], frames[1]].concat();
        assert_refused(&mut tpm, &head, &swapped, "frames 1 and 2 swapped");
        let (other, _) = three_checkpoints(b"journal tamper, other batch", 10);
        let other_log = log_of(&other);
        let other_frame = &other_log[..states[0].2];
        for i in 0..frames.len() {
            let mut spliced = frames.to_vec();
            spliced[i] = other_frame;
            let spliced = spliced.concat();
            assert_refused(&mut tpm, &head, &spliced, &format!("frame {i} spliced"));
        }
        // The head from two checkpoints earlier leaves two frames past
        // it: a stale head, not a torn append.
        assert_refused(
            &mut tpm,
            &states[0].1,
            &log,
            "head from two checkpoints earlier",
        );

        // Put back intact, the same NVRAM recovers in full.
        tpm.nvram_mut().store_blob(JOURNAL_NV_INDEX, &head);
        tpm.nvram_mut().store_blob(JOURNAL_LOG_NV_INDEX, &log);
        let recovered = SessionJournal::recover(&mut tpm).unwrap().unwrap();
        assert_eq!(recovered.value, journal);
        assert!(recovered.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn a_torn_append_recovers_the_checkpoint_before_it() {
        // Power lost between the last checkpoint's append and its seal:
        // NVRAM holds the whole log under the previous head.
        let (mut tpm, states) = three_checkpoints(b"journal torn", 0);
        let (before, head, end) = states[1].clone();
        tpm.nvram_mut().store_blob(JOURNAL_NV_INDEX, &head);
        let mut recovered = SessionJournal::recover(&mut tpm).unwrap().unwrap().value;
        assert_eq!(recovered, before);
        assert_eq!(log_of(&tpm).len(), end, "the torn frame is dropped");

        // The next checkpoint continues from the head, and a second
        // recovery returns it.
        recovered.record_launched(1);
        recovered.commit(0, &degraded(0, b"after the tear"));
        recovered.checkpoint(&mut tpm).unwrap();
        let again = SessionJournal::recover(&mut tpm).unwrap().unwrap().value;
        assert_eq!(again, recovered);

        // Power lost before the first seal: one frame and no head.
        // Nothing was sealed, so nothing is unsealed or replayed.
        let mut tpm = bare_tpm(b"journal torn first");
        let mut journal = SessionJournal::new();
        journal.record_intent(0);
        journal.checkpoint(&mut tpm).unwrap();
        tpm.nvram_mut().delete_blob(JOURNAL_NV_INDEX);
        assert!(SessionJournal::recover(&mut tpm).unwrap().is_none());
        assert!(log_of(&tpm).is_empty());
        // Two frames and no head are a stale state, not a tear.
        let mut fresh = SessionJournal::new();
        fresh.record_intent(0);
        fresh.checkpoint(&mut tpm).unwrap();
        fresh.record_launched(0);
        fresh.checkpoint(&mut tpm).unwrap();
        tpm.nvram_mut().delete_blob(JOURNAL_NV_INDEX);
        assert!(matches!(
            SessionJournal::recover(&mut tpm),
            Err(SeaError::JournalCorrupt("stale head"))
        ));
    }

    #[test]
    fn checkpoint_refuses_a_log_it_did_not_write() {
        let (mut tpm, _) = three_checkpoints(b"journal foreign", 0);
        let mut journal = SessionJournal::new();
        journal.record_intent(9);
        let log = log_of(&tpm);
        assert!(matches!(
            journal.checkpoint(&mut tpm),
            Err(SeaError::JournalCorrupt(_))
        ));
        assert_eq!(log_of(&tpm), log, "nothing appended");
    }
}
