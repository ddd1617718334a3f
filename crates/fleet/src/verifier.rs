//! The standalone remote verifier service.
//!
//! This module is the *relying party* side of the paper's External
//! Verification property (§3.1), built as a genuinely separate trust
//! domain: it imports **only `sea_crypto` and `std`** — no TPM, no
//! machine, no platform code. Everything it knows about quotes it knows
//! from the canonical wire format and from out-of-band provisioning
//! (the privacy-CA root, trusted build images, the TCB-info table). If
//! the platform and the verifier disagree about a byte, the quote is
//! rejected — there is no shared struct through which representation
//! assumptions could leak. `tests/verifier_differential.rs` pins this
//! module's independent constants and parser against the platform's.
//!
//! A [`VerifierService`] performs the full remote-attestation chain for
//! a fleet of platforms:
//!
//! 1. parse the wire quote (magic, version, framing);
//! 2. walk the AIK certificate chain to the privacy-CA root — or hit
//!    the per-AIK session-ticket cache from an earlier walk;
//! 3. verify the AIK signature over the quoted state and nonce;
//! 4. check nonce freshness against outstanding challenges (each nonce
//!    single-use; optionally bounded by a freshness window);
//! 5. replay the measurement chain against trusted builds, separating
//!    reboot (−1), `SKILL`ed PALs (kill-constant brand) and plain
//!    mismatches;
//! 6. evaluate the TCB-status policy over the matched build.
//!
//! Every decision carries a virtual-time cost so the fleet experiment
//! can model the verifier as a queueing server.

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use sea_crypto::{RsaPublicKey, Sha1, Sha1Digest, Signature};

use crate::cert::AikCert;
use crate::tcb::{TcbInfo, TcbPolicy, TcbRollout, TcbStatus, TcbVerdict};

// ---------------------------------------------------------------------------
// The verifier's independent copy of the platform's public constants.
//
// These are *protocol* constants, not shared code: the verifier derives
// them from the wire-format specification, and the differential suite
// asserts they equal the platform's. Importing them from `sea_tpm`
// would collapse the two trust domains this crate exists to separate.
// ---------------------------------------------------------------------------

/// Magic prefix of the quote wire format (spec: `SEAQ`).
const WIRE_MAGIC: [u8; 4] = *b"SEAQ";
/// The one wire-format version this verifier understands.
const WIRE_VERSION: u16 = 2;
/// Domain-separation tag under the quote signature.
const QUOTE_TAG: &[u8] = b"TPM_QUOTE_v1";
/// The value a `SKILL`ed PAL's chain is branded with (§5.5).
const SKILL_BRAND: Sha1Digest = [0x5B; 20];
/// The −1 value dynamic PCRs read after a reboot (§2.1.3).
const PCR_MINUS_ONE: Sha1Digest = [0xFF; 20];
/// The reset value a measurement chain starts from at late launch.
const CHAIN_ZERO: Sha1Digest = [0x00; 20];

/// Virtual cost of parsing and framing checks, per request.
const PARSE_COST_NS: u64 = 2_000;
/// Virtual cost of a full AIK certificate-chain walk (RSA verify).
const CERT_WALK_COST_NS: u64 = 150_000;
/// Virtual cost of a session-ticket cache hit replacing the walk.
const TICKET_HIT_COST_NS: u64 = 1_000;
/// Virtual cost of the quote signature verification (RSA verify).
const SIG_VERIFY_COST_NS: u64 = 50_000;
/// Virtual cost of the chain replay + TCB policy evaluation.
const POLICY_COST_NS: u64 = 500;
/// Virtual cost of rejecting a session that produced no quote at all.
const REJECT_MISSING_COST_NS: u64 = 500;

/// One SHA-1 extend step: `chain ← SHA1(chain ‖ measurement)`.
fn extend(chain: &Sha1Digest, measurement: &Sha1Digest) -> Sha1Digest {
    let mut h = Sha1::new();
    h.update_bytes(chain);
    h.update_bytes(measurement);
    h.finalize_fixed()
}

/// Replays the measurement chain a trusted `image` produces when late
/// launched and then fed `extra_extends` (inputs the PAL measured).
pub fn expected_chain(image: &[u8], extra_extends: &[Sha1Digest]) -> Sha1Digest {
    let mut chain = extend(&CHAIN_ZERO, &Sha1::digest(image));
    for m in extra_extends {
        chain = extend(&chain, m);
    }
    chain
}

/// The digest the AIK signs: `SHA1(tag ‖ source ‖ nonce_len ‖ nonce)`.
fn signed_digest(source_encoding: &[u8], nonce: &[u8]) -> Sha1Digest {
    let mut h = Sha1::new();
    h.update_bytes(QUOTE_TAG);
    h.update_bytes(source_encoding);
    h.update_bytes(&(nonce.len() as u32).to_be_bytes());
    h.update_bytes(nonce);
    h.finalize_fixed()
}

/// Why a session produced no quote at all — the platform-side outcome
/// kinds a verifier can be told about out of band. Typed so verdict
/// accounting cannot drift from the reject taxonomy the way a free-form
/// string could.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum MissingKind {
    /// The session fell back to the unmeasured legacy path.
    Degraded,
    /// The session was terminated by `SKILL` before quoting.
    Killed,
    /// The platform reported an outcome the verifier has no name for.
    Unknown,
}

impl fmt::Display for MissingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MissingKind::Degraded => write!(f, "degraded"),
            MissingKind::Killed => write!(f, "killed"),
            MissingKind::Unknown => write!(f, "unknown"),
        }
    }
}

/// Why the verifier rejected an attestation request. Every failure mode
/// is typed: operators triage `PalKilled` very differently from
/// `BadSignature`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The wire bytes do not start with the quote magic.
    BadMagic,
    /// The wire format version is not one this verifier understands.
    UnsupportedVersion(u16),
    /// A field extends past the end of the input.
    Truncated,
    /// Bytes follow the last field — a framing error.
    TrailingBytes,
    /// The source encoding inside the quote is malformed.
    MalformedSource,
    /// No AIK certificate is enrolled for the claimed platform.
    UnknownPlatform,
    /// The enrolled certificate's embedded AIK does not decode.
    BadAikEncoding,
    /// The certificate chain does not walk back to the privacy-CA root.
    BadCertChain,
    /// The enrolled certificate's validity bound has passed. Checked
    /// before the session-ticket cache, so a cached walk can never mask
    /// an expiry.
    CertExpired,
    /// The AIK signature over the quoted state and nonce failed.
    BadSignature,
    /// The quote's nonce matches no outstanding challenge.
    UnknownNonce,
    /// The quote's nonce was already consumed — a replay.
    ReplayedNonce,
    /// The challenge was answered outside the freshness window.
    StaleQuote,
    /// The quote covers ordinary PCRs where a sePCR attestation was
    /// required.
    WrongSource,
    /// The chain reads −1: the platform rebooted since late launch.
    PlatformRebooted,
    /// The chain carries the kill brand: the PAL was `SKILL`ed.
    PalKilled,
    /// The chain replays no trusted build.
    MeasurementMismatch,
    /// The matched build is superseded and policy rejects stale TCBs.
    TcbOutOfDate,
    /// The matched build is revoked.
    TcbRevoked,
    /// The matched build is not listed in the TCB table and policy
    /// requires listing.
    TcbUnlisted,
    /// The session produced no quote at all; carries the typed session
    /// outcome kind.
    MissingQuote(MissingKind),
}

impl RejectReason {
    /// Whether an honest client can plausibly succeed by re-quoting:
    /// transient identity/freshness failures (an expired or mid-rotation
    /// certificate, a timed-out challenge) heal on retry, while
    /// structural, measurement, and TCB failures are terminal.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            RejectReason::CertExpired
                | RejectReason::BadSignature
                | RejectReason::StaleQuote
                | RejectReason::UnknownNonce
        )
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::BadMagic => write!(f, "bad wire magic"),
            RejectReason::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            RejectReason::Truncated => write!(f, "truncated wire quote"),
            RejectReason::TrailingBytes => write!(f, "trailing bytes after quote"),
            RejectReason::MalformedSource => write!(f, "malformed quote source"),
            RejectReason::UnknownPlatform => write!(f, "no certificate for platform"),
            RejectReason::BadAikEncoding => write!(f, "certificate AIK does not decode"),
            RejectReason::BadCertChain => write!(f, "certificate chain invalid"),
            RejectReason::CertExpired => write!(f, "certificate expired"),
            RejectReason::BadSignature => write!(f, "AIK signature invalid"),
            RejectReason::UnknownNonce => write!(f, "nonce matches no challenge"),
            RejectReason::ReplayedNonce => write!(f, "nonce already consumed"),
            RejectReason::StaleQuote => write!(f, "quote outside freshness window"),
            RejectReason::WrongSource => write!(f, "quote covers unexpected source"),
            RejectReason::PlatformRebooted => write!(f, "platform rebooted since launch"),
            RejectReason::PalKilled => write!(f, "PAL was terminated by SKILL"),
            RejectReason::MeasurementMismatch => write!(f, "chain matches no trusted build"),
            RejectReason::TcbOutOfDate => write!(f, "TCB out of date"),
            RejectReason::TcbRevoked => write!(f, "TCB revoked"),
            RejectReason::TcbUnlisted => write!(f, "build not listed in TCB table"),
            RejectReason::MissingQuote(kind) => {
                write!(f, "session produced no quote ({kind})")
            }
        }
    }
}

impl Error for RejectReason {}

/// The verifier's own structural view of a parsed quote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedQuote {
    /// The raw source encoding (covered by the signature).
    pub source_encoding: Vec<u8>,
    /// The decoded source.
    pub source: ParsedSource,
    /// The embedded anti-replay nonce.
    pub nonce: Vec<u8>,
    /// The raw AIK signature bytes.
    pub signature: Vec<u8>,
}

/// What a parsed quote reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedSource {
    /// Ordinary PCRs: `(index, value)` pairs in selection order.
    Pcrs(Vec<(u8, Sha1Digest)>),
    /// A secure-execution PCR value.
    SePcr(Sha1Digest),
}

/// Parses the canonical wire format. Structural checks only — the
/// verifier's independent implementation of the framing spec.
///
/// # Errors
///
/// A typed [`RejectReason`] naming the first structural defect.
pub fn parse_wire(bytes: &[u8]) -> Result<ParsedQuote, RejectReason> {
    let rest = bytes
        .strip_prefix(&WIRE_MAGIC[..])
        .ok_or(RejectReason::BadMagic)?;
    if rest.len() < 2 {
        return Err(RejectReason::Truncated);
    }
    let version = u16::from_be_bytes(rest[..2].try_into().expect("2 bytes"));
    if version != WIRE_VERSION {
        return Err(RejectReason::UnsupportedVersion(version));
    }
    let mut cursor = &rest[2..];
    let mut next = || -> Result<Vec<u8>, RejectReason> {
        if cursor.len() < 4 {
            return Err(RejectReason::Truncated);
        }
        let len = u32::from_be_bytes(cursor[..4].try_into().expect("4 bytes")) as usize;
        cursor = &cursor[4..];
        if cursor.len() < len {
            return Err(RejectReason::Truncated);
        }
        let part = cursor[..len].to_vec();
        cursor = &cursor[len..];
        Ok(part)
    };
    let source_encoding = next()?;
    let nonce = next()?;
    let signature = next()?;
    if !cursor.is_empty() {
        return Err(RejectReason::TrailingBytes);
    }
    let source = parse_source(&source_encoding)?;
    Ok(ParsedQuote {
        source_encoding,
        source,
        nonce,
        signature,
    })
}

fn parse_source(bytes: &[u8]) -> Result<ParsedSource, RejectReason> {
    match bytes.split_first() {
        Some((0x00, rest)) => {
            let n = *rest.first().ok_or(RejectReason::MalformedSource)? as usize;
            let mut cursor = &rest[1..];
            let mut pcrs = Vec::with_capacity(n);
            for _ in 0..n {
                if cursor.len() < 21 {
                    return Err(RejectReason::MalformedSource);
                }
                let value: Sha1Digest = cursor[1..21].try_into().expect("20 bytes");
                pcrs.push((cursor[0], value));
                cursor = &cursor[21..];
            }
            if !cursor.is_empty() {
                return Err(RejectReason::MalformedSource);
            }
            Ok(ParsedSource::Pcrs(pcrs))
        }
        Some((0x01, rest)) => {
            let value: Sha1Digest = rest.try_into().map_err(|_| RejectReason::MalformedSource)?;
            Ok(ParsedSource::SePcr(value))
        }
        _ => Err(RejectReason::MalformedSource),
    }
}

/// A successful attestation: which platform attested to which trusted
/// service, and the TCB status the policy accepted it at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attestation {
    /// The attesting platform.
    pub platform: u64,
    /// Name of the trusted service whose build the chain replayed.
    pub service: String,
    /// The TCB status the build was accepted at.
    pub tcb: TcbStatus,
}

/// The verifier's decision on one request, with its virtual cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// The platform the request claimed to come from.
    pub platform: u64,
    /// Accepted attestation or the typed rejection.
    pub result: Result<Attestation, RejectReason>,
    /// Virtual service time spent reaching the decision.
    pub cost_ns: u64,
    /// Whether the AIK session-ticket cache replaced the cert walk.
    pub ticket_hit: bool,
    /// Whether the acceptance happened inside a TCB-rollout grace
    /// window — accepted, but on a build the incoming table has already
    /// superseded.
    pub degraded: bool,
}

/// A cached result of a certificate-chain walk, keyed by AIK
/// fingerprint: subsequent quotes under the same AIK skip the walk
/// until the ticket ages past the configured TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SessionTicket {
    issued_ns: u64,
}

/// One trusted build the verifier will accept chains from.
#[derive(Debug, Clone)]
struct TrustedBuild {
    service: String,
    image_digest: Sha1Digest,
    /// Chain after launch + measured inputs: what an honest run reads.
    expected: Sha1Digest,
    /// The launch chain branded with the kill constant.
    killed: Sha1Digest,
}

/// Running counters over a verifier's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifierStats {
    /// Requests processed (including missing-quote rejections).
    pub requests: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Full certificate-chain walks performed.
    pub cert_walks: u64,
    /// Session-ticket cache hits.
    pub ticket_hits: u64,
}

/// The remote verifier service for a fleet of platforms.
pub struct VerifierService {
    ca: RsaPublicKey,
    certs: BTreeMap<u64, AikCert>,
    builds: Vec<TrustedBuild>,
    tcb: TcbInfo,
    rollout: Option<TcbRollout>,
    policy: TcbPolicy,
    freshness_window_ns: u64,
    ticket_ttl_ns: u64,
    /// Outstanding challenges: `(platform, nonce) → issued_ns`.
    challenges: BTreeMap<(u64, Vec<u8>), u64>,
    /// Consumed nonces (replay detection outlives the challenge).
    spent: BTreeSet<(u64, Vec<u8>)>,
    tickets: BTreeMap<Sha1Digest, SessionTicket>,
    stats: VerifierStats,
}

impl VerifierService {
    /// A verifier trusting `ca` as its privacy-CA root, with an empty
    /// TCB table at version 0 and the strict policy.
    pub fn new(ca: RsaPublicKey) -> Self {
        VerifierService {
            ca,
            certs: BTreeMap::new(),
            builds: Vec::new(),
            tcb: TcbInfo::new(0),
            rollout: None,
            policy: TcbPolicy::strict(),
            freshness_window_ns: u64::MAX,
            ticket_ttl_ns: u64::MAX,
            challenges: BTreeMap::new(),
            spent: BTreeSet::new(),
            tickets: BTreeMap::new(),
            stats: VerifierStats::default(),
        }
    }

    /// Enrolls a platform's AIK certificate. The chain is walked lazily
    /// on the platform's first quote, not here.
    pub fn enroll(&mut self, cert: AikCert) {
        self.certs.insert(cert.platform(), cert);
    }

    /// Registers `image` as the trusted build of `service`, with the
    /// `extra_extends` an honest run measures into its chain.
    pub fn trust(&mut self, service: &str, image: &[u8], extra_extends: &[Sha1Digest]) {
        let image_chain = extend(&CHAIN_ZERO, &Sha1::digest(image));
        self.builds.push(TrustedBuild {
            service: service.to_owned(),
            image_digest: Sha1::digest(image),
            expected: expected_chain(image, extra_extends),
            killed: extend(&image_chain, &SKILL_BRAND),
        });
    }

    /// Ingests a newer TCB-info table, refusing rollback.
    ///
    /// # Errors
    ///
    /// Returns the rejected table's version if older than the current.
    pub fn ingest_tcb(&mut self, table: TcbInfo) -> Result<(), u32> {
        self.tcb.merge(table)
    }

    /// Begins a staged rollout of a new TCB table: each platform's
    /// logical propagation group switches to the rollout table at its
    /// own arrival time, with the rollout's grace window softening
    /// `OutOfDate` rejections just after the switch. Refuses rollback
    /// against the currently installed table.
    ///
    /// # Errors
    ///
    /// Returns the rejected table's version if older than the current.
    pub fn push_tcb(&mut self, rollout: TcbRollout) -> Result<(), u32> {
        if rollout.table().version() < self.tcb.version() {
            return Err(rollout.table().version());
        }
        self.rollout = Some(rollout);
        Ok(())
    }

    /// Replaces the TCB acceptance policy.
    pub fn set_policy(&mut self, policy: TcbPolicy) {
        self.policy = policy;
    }

    /// Bounds how long after `challenge` a quote stays acceptable.
    pub fn set_freshness_window_ns(&mut self, window: u64) {
        self.freshness_window_ns = window;
    }

    /// Bounds how long a session ticket replaces the certificate walk
    /// before the chain must be re-verified.
    pub fn set_ticket_ttl_ns(&mut self, ttl: u64) {
        self.ticket_ttl_ns = ttl;
    }

    /// Issues a challenge nonce to `platform` at virtual time
    /// `issued_ns`. A quote must echo an outstanding nonce exactly once.
    pub fn challenge(&mut self, platform: u64, nonce: &[u8], issued_ns: u64) {
        self.challenges
            .insert((platform, nonce.to_vec()), issued_ns);
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &VerifierStats {
        &self.stats
    }

    /// Rejects a session that produced no quote (degraded or killed on
    /// the platform side); `outcome` is the typed session outcome kind.
    pub fn reject_missing(&mut self, platform: u64, outcome: MissingKind) -> Verdict {
        self.stats.requests += 1;
        self.stats.rejected += 1;
        Verdict {
            platform,
            result: Err(RejectReason::MissingQuote(outcome)),
            cost_ns: REJECT_MISSING_COST_NS,
            ticket_hit: false,
            degraded: false,
        }
    }

    /// Runs the full remote-attestation chain over `wire` at virtual
    /// time `now_ns`, returning the decision and its cost.
    pub fn verify(&mut self, platform: u64, wire: &[u8], now_ns: u64) -> Verdict {
        let mut cost_ns = 0;
        let mut ticket_hit = false;
        let mut degraded = false;
        let result = self.verify_inner(
            platform,
            wire,
            now_ns,
            &mut cost_ns,
            &mut ticket_hit,
            &mut degraded,
        );
        self.stats.requests += 1;
        match &result {
            Ok(_) => self.stats.accepted += 1,
            Err(_) => self.stats.rejected += 1,
        }
        Verdict {
            platform,
            result,
            cost_ns,
            ticket_hit,
            degraded,
        }
    }

    fn verify_inner(
        &mut self,
        platform: u64,
        wire: &[u8],
        now_ns: u64,
        cost_ns: &mut u64,
        ticket_hit: &mut bool,
        degraded: &mut bool,
    ) -> Result<Attestation, RejectReason> {
        // 1. Structure.
        *cost_ns += PARSE_COST_NS;
        let parsed = parse_wire(wire)?;

        // 2. Certificate chain (or session-ticket cache). Expiry is
        // checked on every request — before the ticket cache, so a
        // cached walk can never serve past the certificate's bound.
        let cert = self
            .certs
            .get(&platform)
            .ok_or(RejectReason::UnknownPlatform)?
            .clone();
        if cert.is_expired(now_ns) {
            return Err(RejectReason::CertExpired);
        }
        let aik = cert.aik().map_err(|_| RejectReason::BadAikEncoding)?;
        let fingerprint = aik.fingerprint();
        let live_ticket = self
            .tickets
            .get(&fingerprint)
            .is_some_and(|t| now_ns.saturating_sub(t.issued_ns) <= self.ticket_ttl_ns);
        if live_ticket {
            *cost_ns += TICKET_HIT_COST_NS;
            *ticket_hit = true;
            self.stats.ticket_hits += 1;
        } else {
            *cost_ns += CERT_WALK_COST_NS;
            self.stats.cert_walks += 1;
            if !cert.verify(&self.ca) {
                return Err(RejectReason::BadCertChain);
            }
            self.tickets
                .insert(fingerprint, SessionTicket { issued_ns: now_ns });
        }

        // 3. Quote signature.
        *cost_ns += SIG_VERIFY_COST_NS;
        let digest = signed_digest(&parsed.source_encoding, &parsed.nonce);
        let signature = Signature(parsed.signature.clone());
        if !aik.verify_pkcs1v15(&digest, &signature) {
            return Err(RejectReason::BadSignature);
        }

        // 4. Nonce freshness: single-use, outstanding, inside window.
        let key = (platform, parsed.nonce.clone());
        if self.spent.contains(&key) {
            return Err(RejectReason::ReplayedNonce);
        }
        let issued_ns = self
            .challenges
            .remove(&key)
            .ok_or(RejectReason::UnknownNonce)?;
        self.spent.insert(key);
        if now_ns.saturating_sub(issued_ns) > self.freshness_window_ns {
            return Err(RejectReason::StaleQuote);
        }

        // 5. Chain replay against the trusted builds.
        let ParsedSource::SePcr(value) = parsed.source else {
            return Err(RejectReason::WrongSource);
        };
        let matched = self.builds.iter().find(|b| value == b.expected);
        let Some(build) = matched else {
            if value == PCR_MINUS_ONE {
                return Err(RejectReason::PlatformRebooted);
            }
            if self.builds.iter().any(|b| value == b.killed) {
                return Err(RejectReason::PalKilled);
            }
            return Err(RejectReason::MeasurementMismatch);
        };

        // 6. TCB-status policy, against whichever table has reached
        // this platform's propagation group.
        *cost_ns += POLICY_COST_NS;
        let rollout_active = self
            .rollout
            .as_ref()
            .is_some_and(|r| r.active_for(platform, now_ns));
        let status = if rollout_active {
            self.rollout
                .as_ref()
                .expect("rollout_active implies Some")
                .table()
                .status(&build.image_digest)
        } else {
            self.tcb.status(&build.image_digest)
        };
        let mut verdict = self.policy.evaluate(status);
        if verdict == TcbVerdict::OutOfDate
            && self
                .rollout
                .as_ref()
                .is_some_and(|r| r.in_grace(platform, now_ns))
        {
            // The superseding table only just reached this group: accept
            // the stale build, degraded, for the bounded grace window.
            verdict = TcbVerdict::Accepted(TcbStatus::OutOfDate);
            *degraded = true;
        }
        match verdict {
            TcbVerdict::Accepted(status) => Ok(Attestation {
                platform,
                service: build.service.clone(),
                tcb: status,
            }),
            TcbVerdict::OutOfDate => Err(RejectReason::TcbOutOfDate),
            TcbVerdict::Revoked => Err(RejectReason::TcbRevoked),
            TcbVerdict::Unlisted => Err(RejectReason::TcbUnlisted),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcb::TcbStatus;
    use sea_crypto::{Drbg, RsaPrivateKey};

    // These tests build quotes BY HAND from the wire-format spec, using
    // only sea-crypto — proving the verifier needs no platform code.

    fn key(seed: &[u8]) -> RsaPrivateKey {
        RsaPrivateKey::generate(512, &mut Drbg::new(seed)).expect("keygen")
    }

    fn encode_sepcr(value: &Sha1Digest) -> Vec<u8> {
        let mut out = vec![0x01];
        out.extend_from_slice(value);
        out
    }

    fn wire_quote(aik: &RsaPrivateKey, source: &[u8], nonce: &[u8]) -> Vec<u8> {
        let sig = aik
            .sign_pkcs1v15(&signed_digest(source, nonce))
            .expect("sign");
        let mut out = WIRE_MAGIC.to_vec();
        out.extend_from_slice(&WIRE_VERSION.to_be_bytes());
        for part in [source, nonce, &sig.0] {
            out.extend_from_slice(&(part.len() as u32).to_be_bytes());
            out.extend_from_slice(part);
        }
        out
    }

    struct Rig {
        verifier: VerifierService,
        aik: RsaPrivateKey,
        image: Vec<u8>,
    }

    fn rig() -> Rig {
        let ca = key(b"verifier test ca");
        let aik = key(b"verifier test aik");
        let image = b"trusted service image".to_vec();
        let mut verifier = VerifierService::new(ca.public_key().clone());
        verifier.enroll(AikCert::issue(&ca, 1, aik.public_key()));
        verifier.trust("svc", &image, &[]);
        verifier
            .ingest_tcb(TcbInfo::new(1).with_status(Sha1::digest(&image), TcbStatus::UpToDate))
            .expect("fresh table");
        Rig {
            verifier,
            aik,
            image,
        }
    }

    fn honest_wire(r: &Rig, nonce: &[u8]) -> Vec<u8> {
        wire_quote(&r.aik, &encode_sepcr(&expected_chain(&r.image, &[])), nonce)
    }

    #[test]
    fn honest_quote_accepted_and_ticket_cached() {
        let mut r = rig();
        r.verifier.challenge(1, b"n1", 0);
        r.verifier.challenge(1, b"n2", 0);
        let v1 = r.verifier.verify(1, &honest_wire(&r, b"n1"), 10);
        let att = v1.result.expect("accept");
        assert_eq!(att.service, "svc");
        assert_eq!(att.tcb, TcbStatus::UpToDate);
        assert!(!v1.ticket_hit);
        assert_eq!(
            v1.cost_ns,
            PARSE_COST_NS + CERT_WALK_COST_NS + SIG_VERIFY_COST_NS + POLICY_COST_NS
        );
        // Second quote under the same AIK hits the ticket cache.
        let v2 = r.verifier.verify(1, &honest_wire(&r, b"n2"), 20);
        assert!(v2.result.is_ok());
        assert!(v2.ticket_hit);
        assert_eq!(
            v2.cost_ns,
            PARSE_COST_NS + TICKET_HIT_COST_NS + SIG_VERIFY_COST_NS + POLICY_COST_NS
        );
        assert_eq!(r.verifier.stats().cert_walks, 1);
        assert_eq!(r.verifier.stats().ticket_hits, 1);
        assert_eq!(r.verifier.stats().accepted, 2);
    }

    #[test]
    fn expired_ticket_forces_certificate_rewalk() {
        let mut r = rig();
        r.verifier.set_ticket_ttl_ns(100);
        for nonce in [b"1", b"2", b"3"] {
            r.verifier.challenge(1, nonce, 0);
        }
        assert!(!r.verifier.verify(1, &honest_wire(&r, b"1"), 0).ticket_hit);
        // Inside the TTL the ticket still serves.
        assert!(r.verifier.verify(1, &honest_wire(&r, b"2"), 50).ticket_hit);
        // Past the TTL the chain is walked again and the ticket renewed.
        let v = r.verifier.verify(1, &honest_wire(&r, b"3"), 500);
        assert!(!v.ticket_hit);
        assert!(v.result.is_ok());
        assert_eq!(r.verifier.stats().cert_walks, 2);
    }

    #[test]
    fn nonce_is_single_use_and_window_bounded() {
        let mut r = rig();
        r.verifier.challenge(1, b"n", 0);
        let wire = honest_wire(&r, b"n");
        assert!(r.verifier.verify(1, &wire, 5).result.is_ok());
        // Replaying the same quote is rejected.
        assert_eq!(
            r.verifier.verify(1, &wire, 6).result,
            Err(RejectReason::ReplayedNonce)
        );
        // A nonce never challenged is unknown.
        assert_eq!(
            r.verifier.verify(1, &honest_wire(&r, b"x"), 7).result,
            Err(RejectReason::UnknownNonce)
        );
        // A challenge answered outside the window is stale.
        r.verifier.set_freshness_window_ns(100);
        r.verifier.challenge(1, b"late", 1_000);
        assert_eq!(
            r.verifier
                .verify(1, &honest_wire(&r, b"late"), 2_000)
                .result,
            Err(RejectReason::StaleQuote)
        );
    }

    #[test]
    fn structural_defects_are_typed() {
        let mut r = rig();
        r.verifier.challenge(1, b"n", 0);
        let wire = honest_wire(&r, b"n");
        assert_eq!(parse_wire(b"").unwrap_err(), RejectReason::BadMagic);
        assert_eq!(parse_wire(b"SEAQ").unwrap_err(), RejectReason::Truncated);
        let mut future = wire.clone();
        future[5] = 0x63;
        assert_eq!(
            parse_wire(&future).unwrap_err(),
            RejectReason::UnsupportedVersion(0x0063)
        );
        assert_eq!(
            parse_wire(&wire[..wire.len() - 1]).unwrap_err(),
            RejectReason::Truncated
        );
        let mut padded = wire.clone();
        padded.push(0);
        assert_eq!(
            parse_wire(&padded).unwrap_err(),
            RejectReason::TrailingBytes
        );
        // All surface through verify() too, with parse-only cost.
        let v = r.verifier.verify(1, &padded, 1);
        assert_eq!(v.result, Err(RejectReason::TrailingBytes));
        assert_eq!(v.cost_ns, PARSE_COST_NS);
    }

    #[test]
    fn identity_failures_are_typed() {
        let mut r = rig();
        r.verifier.challenge(1, b"n", 0);
        r.verifier.challenge(99, b"n", 0);
        // Unknown platform: no certificate enrolled.
        assert_eq!(
            r.verifier.verify(99, &honest_wire(&r, b"n"), 1).result,
            Err(RejectReason::UnknownPlatform)
        );
        // Quote signed by a different AIK than the certificate vouches.
        let mallory = key(b"verifier test mallory");
        let forged = wire_quote(
            &mallory,
            &encode_sepcr(&expected_chain(&r.image, &[])),
            b"n",
        );
        assert_eq!(
            r.verifier.verify(1, &forged, 1).result,
            Err(RejectReason::BadSignature)
        );
    }

    #[test]
    fn chain_states_classify_reboot_kill_and_mismatch() {
        let mut r = rig();
        for nonce in [b"a", b"b", b"c", b"d"] {
            r.verifier.challenge(1, nonce, 0);
        }
        // Reboot: dynamic PCRs read −1.
        let v = r.verifier.verify(
            1,
            &wire_quote(&r.aik, &encode_sepcr(&PCR_MINUS_ONE), b"a"),
            1,
        );
        assert_eq!(v.result, Err(RejectReason::PlatformRebooted));
        // SKILLed: launch chain branded with the kill constant.
        let launch = extend(&CHAIN_ZERO, &Sha1::digest(&r.image));
        let killed = extend(&launch, &SKILL_BRAND);
        let v = r
            .verifier
            .verify(1, &wire_quote(&r.aik, &encode_sepcr(&killed), b"b"), 1);
        assert_eq!(v.result, Err(RejectReason::PalKilled));
        // Unknown code.
        let other = expected_chain(b"evil image", &[]);
        let v = r
            .verifier
            .verify(1, &wire_quote(&r.aik, &encode_sepcr(&other), b"c"), 1);
        assert_eq!(v.result, Err(RejectReason::MeasurementMismatch));
        // Ordinary-PCR quote where a sePCR attestation is required.
        let pcr_src = [vec![0x00, 0x01, 17], expected_chain(&r.image, &[]).to_vec()].concat();
        let v = r.verifier.verify(1, &wire_quote(&r.aik, &pcr_src, b"d"), 1);
        assert_eq!(v.result, Err(RejectReason::WrongSource));
    }

    #[test]
    fn tcb_policy_gates_accepted_chains() {
        let mut r = rig();
        let digest = Sha1::digest(&r.image);
        for nonce in [b"1", b"2", b"3", b"4"] {
            r.verifier.challenge(1, nonce, 0);
        }
        // Out of date: strict policy rejects, tolerant accepts.
        r.verifier
            .ingest_tcb(TcbInfo::new(2).with_status(digest, TcbStatus::OutOfDate))
            .unwrap();
        assert_eq!(
            r.verifier.verify(1, &honest_wire(&r, b"1"), 1).result,
            Err(RejectReason::TcbOutOfDate)
        );
        r.verifier
            .set_policy(TcbPolicy::strict().accept_out_of_date(true));
        let att = r
            .verifier
            .verify(1, &honest_wire(&r, b"2"), 1)
            .result
            .unwrap();
        assert_eq!(att.tcb, TcbStatus::OutOfDate);
        // Revocation is terminal even under the tolerant policy.
        r.verifier
            .ingest_tcb(TcbInfo::new(3).with_status(digest, TcbStatus::Revoked))
            .unwrap();
        assert_eq!(
            r.verifier.verify(1, &honest_wire(&r, b"3"), 1).result,
            Err(RejectReason::TcbRevoked)
        );
        // Rollback to the old table is refused; verdict unchanged.
        assert_eq!(
            r.verifier
                .ingest_tcb(TcbInfo::new(1).with_status(digest, TcbStatus::UpToDate)),
            Err(1)
        );
        assert_eq!(
            r.verifier.verify(1, &honest_wire(&r, b"4"), 1).result,
            Err(RejectReason::TcbRevoked)
        );
    }

    #[test]
    fn missing_quote_rejection_counts() {
        let ca = key(b"verifier test ca");
        let mut v = VerifierService::new(ca.public_key().clone());
        let verdict = v.reject_missing(7, MissingKind::Degraded);
        assert_eq!(
            verdict.result,
            Err(RejectReason::MissingQuote(MissingKind::Degraded))
        );
        assert_eq!(verdict.cost_ns, REJECT_MISSING_COST_NS);
        assert_eq!(v.stats().requests, 1);
        assert_eq!(v.stats().rejected, 1);
    }

    #[test]
    fn expired_certificate_rejected_even_on_a_live_ticket() {
        let ca = key(b"verifier test ca");
        let aik = key(b"verifier test aik");
        let image = b"trusted service image".to_vec();
        let mut verifier = VerifierService::new(ca.public_key().clone());
        verifier.enroll(AikCert::issue_expiring(&ca, 1, aik.public_key(), 1_000));
        verifier.trust("svc", &image, &[]);
        verifier
            .ingest_tcb(TcbInfo::new(1).with_status(Sha1::digest(&image), TcbStatus::UpToDate))
            .expect("fresh table");
        let wire =
            |nonce: &[u8]| wire_quote(&aik, &encode_sepcr(&expected_chain(&image, &[])), nonce);
        verifier.challenge(1, b"a", 0);
        verifier.challenge(1, b"b", 0);
        verifier.challenge(1, b"c", 0);
        // Inside validity: accepted (inclusive bound), ticket cached.
        assert!(verifier.verify(1, &wire(b"a"), 500).result.is_ok());
        assert!(verifier.verify(1, &wire(b"b"), 1_000).result.is_ok());
        // Past the bound: the live ticket must NOT mask expiry.
        let v = verifier.verify(1, &wire(b"c"), 1_001);
        assert_eq!(v.result, Err(RejectReason::CertExpired));
        assert!(!v.ticket_hit);
        assert!(RejectReason::CertExpired.is_retryable());
        // Re-enrolling a fresh certificate heals the platform.
        verifier.enroll(AikCert::issue(&ca, 1, aik.public_key()));
        verifier.challenge(1, b"d", 1_002);
        assert!(verifier.verify(1, &wire(b"d"), 1_003).result.is_ok());
    }

    #[test]
    fn tcb_rollout_staggers_groups_and_grace_degrades() {
        let mut r = rig();
        let digest = Sha1::digest(&r.image);
        // New table marks the build OutOfDate; 2 groups, 1000ns apart,
        // 500ns grace. Platform 1 is group 1 → arrival at 11_000.
        r.verifier
            .push_tcb(TcbRollout::new(
                TcbInfo::new(2).with_status(digest, TcbStatus::OutOfDate),
                10_000,
                2,
                1_000,
                500,
            ))
            .expect("newer table");
        for nonce in [b"1", b"2", b"3"] {
            r.verifier.challenge(1, nonce, 0);
        }
        // Before the rollout reaches group 1: old table still rules.
        let v = r.verifier.verify(1, &honest_wire(&r, b"1"), 10_500);
        assert!(v.result.is_ok());
        assert!(!v.degraded);
        // Inside the grace window: accepted but degraded.
        let v = r.verifier.verify(1, &honest_wire(&r, b"2"), 11_400);
        assert_eq!(v.result.expect("grace accepts").tcb, TcbStatus::OutOfDate);
        assert!(v.degraded);
        // Past the grace window: strict policy rejects.
        let v = r.verifier.verify(1, &honest_wire(&r, b"3"), 11_501);
        assert_eq!(v.result, Err(RejectReason::TcbOutOfDate));
        // Rollback pushes are refused.
        assert_eq!(
            r.verifier
                .push_tcb(TcbRollout::new(TcbInfo::new(0), 0, 1, 0, 0)),
            Err(0)
        );
    }

    #[test]
    fn reject_reasons_display() {
        for r in [
            RejectReason::BadMagic,
            RejectReason::UnsupportedVersion(9),
            RejectReason::Truncated,
            RejectReason::TrailingBytes,
            RejectReason::MalformedSource,
            RejectReason::UnknownPlatform,
            RejectReason::BadAikEncoding,
            RejectReason::BadCertChain,
            RejectReason::BadSignature,
            RejectReason::UnknownNonce,
            RejectReason::ReplayedNonce,
            RejectReason::StaleQuote,
            RejectReason::WrongSource,
            RejectReason::PlatformRebooted,
            RejectReason::PalKilled,
            RejectReason::MeasurementMismatch,
            RejectReason::TcbOutOfDate,
            RejectReason::TcbRevoked,
            RejectReason::TcbUnlisted,
            RejectReason::CertExpired,
            RejectReason::MissingQuote(MissingKind::Degraded),
            RejectReason::MissingQuote(MissingKind::Killed),
            RejectReason::MissingQuote(MissingKind::Unknown),
        ] {
            assert!(!r.to_string().is_empty());
        }
    }
}
