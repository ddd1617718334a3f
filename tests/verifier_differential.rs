//! Verifier differential suite: the remote verifier pinned against the
//! platform stack it is forbidden to import.
//!
//! `sea_fleet::verifier` re-implements the attestation protocol — wire
//! framing, measurement-chain replay, the quote digest — from the spec,
//! using only `sea_crypto` (`scripts/ci.sh` greps the module to keep
//! platform types out). That independence is only worth anything if the
//! two implementations actually agree, so this suite replays
//! platform-emitted bytes through the remote verifier:
//!
//! * **Agreement**: the fleet verifier's expected chain equals
//!   `sea_core::Verifier`'s, and its wire parser accepts exactly the
//!   bytes `sea_tpm`'s quote serializer emits (and rejects the same
//!   malformed framings).
//! * **Typed verdicts**: honest sessions verify `Ok`; adversarial,
//!   degraded, and killed ones are rejected with the precise
//!   [`RejectReason`] each deserves.
//! * **Tamper evidence**: flipping any single bit of a wire quote
//!   flips the verdict to a rejection.
//! * **Fleet determinism**: a 1000-platform fleet produces a
//!   byte-identical [`sea_fleet::FleetOutcome`] at every shard count
//!   and under both dispatch policies' own re-runs — and a *churned*
//!   fleet (network faults, reboots, rotation, adversarial wires) stays
//!   byte-identical across shards, executors, and submission orders.
//! * **Boundary agreement**: the freshness-window edge (`== window`
//!   accepted, `window + 1` stale) behaves identically on the fleet
//!   verifier and on `sea_core::AttestationService`; the session-ticket
//!   TTL edge likewise on the fleet verifier.
//! * **Churn artifact**: the churn experiment is the suite's tenth
//!   artifact, validating under `suite --validate`.

use sea_bench::driver::{run_suite_serial, suite_json, validate_suite_json, SuiteConfig};
use sea_core::{
    AttestationService, BatchPolicy, ConcurrentJob, Executor, FnPal, PalOutcome, ProtocolError,
    RetryPolicy, SecurePlatform, SessionEngine, SessionResult, Slaunch, TrustPolicy, Verifier,
};
use sea_crypto::Sha1;
use sea_fleet::{
    expected_chain, parse_wire, run_fleet, run_fleet_with_submission, service_image, AdversaryKind,
    ChurnPlan, FleetConfig, FleetPolicy, KeyVault, MissingKind, ParsedSource, RejectReason,
    RequestFate, TcbInfo, TcbPolicy, TcbStatus, VerifierService, FLEET_SERVICE,
};
use sea_hw::{CpuId, FaultPlan, NetPlan, Obs, Platform, SimDuration, SimTime, RATE_DENOM};
use sea_os::DispatchPolicy;
use sea_tpm::{PcrIndex, Quote, QuoteSource, SKILL_CONSTANT};

/// Runs `jobs` sessions of PAL `name` on vault platform `index` and
/// returns the terminal session results. Mirrors the fleet's
/// per-platform execution: vault TPM, static job→CPU assignment, the
/// discrete-event backend, job-index nonces.
fn run_sessions(
    index: usize,
    name: &str,
    jobs: usize,
    platform: Platform,
    faults: Option<FaultPlan>,
    retry: Option<RetryPolicy>,
) -> Vec<SessionResult> {
    let workers = platform.n_cpus as usize;
    let secure = SecurePlatform::with_tpm(platform, KeyVault::global().tpm(index));
    let mut engine = SessionEngine::<Slaunch>::new(secure, workers).expect("pool fits platform");
    engine.set_fault_plan(Some(faults.unwrap_or_else(FaultPlan::fault_free)));
    let mut policy = BatchPolicy::plain().with_executor(Executor::DiscreteEvent);
    if let Some(retry) = retry {
        // Keyed sessions: saturation degrades and faults kill in-band
        // instead of surfacing as batch errors.
        policy = policy.with_retry(retry);
    }
    let batch: Vec<ConcurrentJob> = (0..jobs)
        .map(|i| {
            ConcurrentJob::new(
                Box::new(FnPal::new(name, move |ctx| {
                    ctx.work(SimDuration::from_us(50));
                    Ok(PalOutcome::Exit((i as u64).to_le_bytes().to_vec()))
                })),
                b"",
            )
        })
        .collect();
    engine.run(batch, &policy).expect("batch runs").sessions
}

/// Honest fleet-service sessions on vault platform `index`, as wire
/// bytes. Job `i` quotes nonce `i as u64` (little-endian) — the engine
/// convention the fleet's challenge bookkeeping relies on.
fn honest_wires(index: usize, jobs: usize) -> Vec<Vec<u8>> {
    run_sessions(
        index,
        FLEET_SERVICE,
        jobs,
        Platform::recommended(2),
        None,
        None,
    )
    .into_iter()
    .enumerate()
    .map(|(i, s)| match s {
        SessionResult::Quoted { quote, .. } => quote.to_bytes(),
        other => panic!("honest job {i} did not quote: {other:?}"),
    })
    .collect()
}

/// A verifier provisioned the way the fleet provisions one: CA root,
/// certificates for vault platforms `0..platforms`, the fleet-service
/// build trusted and listed `UpToDate` in a v1 TCB table.
fn provisioned(platforms: usize) -> VerifierService {
    let vault = KeyVault::global();
    let image = service_image();
    let mut v = VerifierService::new(vault.ca_public());
    v.trust(FLEET_SERVICE, &image, &[]);
    v.ingest_tcb(TcbInfo::new(1).with_status(Sha1::digest(&image), TcbStatus::UpToDate))
        .expect("fresh verifier accepts any table");
    for p in 0..platforms {
        v.enroll(vault.certificate(p));
    }
    v
}

fn nonce(i: u64) -> Vec<u8> {
    i.to_le_bytes().to_vec()
}

// ---------------------------------------------------------------------
// Agreement: two independent implementations, one protocol
// ---------------------------------------------------------------------

#[test]
fn verifier_reimplements_platform_chain_and_wire_format() {
    let image = service_image();

    // The measurement-chain replay agrees with the platform-side
    // verifier, with and without extra extends.
    let extra = Sha1::digest(b"vdiff/extra");
    assert_eq!(
        expected_chain(&image, &[])[..],
        Verifier::expected_chain(&image, &[]).as_bytes()[..]
    );
    assert_eq!(
        expected_chain(&image, &[extra])[..],
        Verifier::expected_chain(&image, &[extra]).as_bytes()[..]
    );

    // Platform-emitted wire bytes parse identically on both sides.
    let wires = honest_wires(0, 3);
    for (i, bytes) in wires.iter().enumerate() {
        let remote = parse_wire(bytes).expect("fleet parser accepts platform wire");
        let local = Quote::from_bytes(bytes).expect("platform parser accepts its own wire");
        assert_eq!(remote.nonce, nonce(i as u64), "engine nonce convention");
        assert_eq!(local.nonce(), &remote.nonce[..]);
        assert_eq!(local.signature().0, remote.signature);
        match (&remote.source, local.source()) {
            (ParsedSource::SePcr(d), QuoteSource::SePcr { value }) => {
                assert_eq!(&value.as_bytes()[..], &d[..]);
                assert_eq!(*d, expected_chain(&image, &[]));
            }
            other => panic!("parsers disagree on the source: {other:?}"),
        }
    }

    // Malformed framings reject on both sides — and the remote side
    // says precisely why.
    let wire = &wires[0];
    let mut bad_magic = wire.clone();
    bad_magic[0] ^= 0xFF;
    assert_eq!(parse_wire(&bad_magic), Err(RejectReason::BadMagic));
    assert!(Quote::from_bytes(&bad_magic).is_err());

    let mut bad_version = wire.clone();
    bad_version[4] = 0;
    bad_version[5] = 1;
    assert_eq!(
        parse_wire(&bad_version),
        Err(RejectReason::UnsupportedVersion(1))
    );
    assert!(Quote::from_bytes(&bad_version).is_err());

    let truncated = &wire[..wire.len() - 1];
    assert_eq!(parse_wire(truncated), Err(RejectReason::Truncated));
    assert!(Quote::from_bytes(truncated).is_err());

    let mut trailing = wire.clone();
    trailing.push(0);
    assert_eq!(parse_wire(&trailing), Err(RejectReason::TrailingBytes));
    assert!(Quote::from_bytes(&trailing).is_err());
}

// ---------------------------------------------------------------------
// Typed verdicts: honest Ok, everything else named
// ---------------------------------------------------------------------

#[test]
fn honest_sessions_verify_and_protocol_violations_reject_typed() {
    let mut v = provisioned(4);

    // Honest quotes are accepted with the full attestation.
    let wires = honest_wires(0, 2);
    for (i, w) in wires.iter().enumerate() {
        v.challenge(0, &nonce(i as u64), 0);
        let verdict = v.verify(0, w, 1_000_000);
        let att = verdict.result.expect("honest quote accepted");
        assert_eq!(att.platform, 0);
        assert_eq!(att.service, FLEET_SERVICE);
        assert_eq!(att.tcb, TcbStatus::UpToDate);
    }

    // Replaying an already-verified quote: its nonce is spent.
    let replay = v.verify(0, &wires[0], 2_000_000);
    assert_eq!(replay.result.unwrap_err(), RejectReason::ReplayedNonce);

    // A platform the verifier never enrolled.
    let unknown = v.verify(99, &wires[0], 0);
    assert_eq!(unknown.result.unwrap_err(), RejectReason::UnknownPlatform);

    // A valid quote nobody challenged for.
    let unchallenged = honest_wires(1, 1);
    let r = v.verify(1, &unchallenged[0], 0);
    assert_eq!(r.result.unwrap_err(), RejectReason::UnknownNonce);

    // A quote that arrives after the freshness window closes.
    let mut stale = provisioned(1);
    stale.set_freshness_window_ns(1_000);
    stale.challenge(0, &nonce(0), 0);
    let r = stale.verify(0, &wires[0], 1_000_000);
    assert_eq!(r.result.unwrap_err(), RejectReason::StaleQuote);
}

#[test]
fn adversarial_degraded_and_killed_sessions_reject_typed() {
    let image = service_image();
    let mut v = provisioned(4);

    // An unknown PAL image measures to a chain the verifier never
    // trusted.
    let rogue = run_sessions(2, "rogue-service", 1, Platform::recommended(2), None, None);
    let rogue_wire = match &rogue[0] {
        SessionResult::Quoted { quote, .. } => quote.to_bytes(),
        other => panic!("rogue session did not quote: {other:?}"),
    };
    v.challenge(2, &nonce(0), 0);
    let r = v.verify(2, &rogue_wire, 0);
    assert_eq!(r.result.unwrap_err(), RejectReason::MeasurementMismatch);

    // An adversary replaying the SKILL branding by hand: allocate the
    // trusted image's chain, extend the kill constant, quote it. The
    // signature is genuine — the chain itself convicts.
    let mut tpm = KeyVault::global().tpm(3).with_sepcrs(4);
    let handle = tpm
        .slaunch_measure(&image, CpuId(0))
        .expect("sePCR free")
        .value;
    tpm.sepcr_extend(handle, CpuId(0), &SKILL_CONSTANT)
        .expect("owner extends");
    tpm.sepcr_release_to_quote(handle, CpuId(0))
        .expect("release");
    let branded = tpm
        .sepcr_quote(handle, &nonce(0))
        .expect("quote")
        .value
        .to_bytes();
    v.challenge(3, &nonce(0), 0);
    let r = v.verify(3, &branded, 0);
    assert_eq!(r.result.unwrap_err(), RejectReason::PalKilled);

    // An ordinary-PCR quote is signed platform state, but not secure
    // execution.
    let legacy = tpm
        .quote(&nonce(1), &[PcrIndex(17)])
        .expect("pcr quote")
        .value
        .to_bytes();
    v.challenge(3, &nonce(1), 0);
    let r = v.verify(3, &legacy, 0);
    assert_eq!(r.result.unwrap_err(), RejectReason::WrongSource);

    // Degraded sessions (sePCR bank saturated, legacy slow path) carry
    // no sePCR quote; the fleet reports them as missing, typed.
    let degraded = run_sessions(
        0,
        FLEET_SERVICE,
        3,
        Platform::recommended(2).with_sepcr_count(1),
        None,
        Some(RetryPolicy::new(0, SimDuration::ZERO)),
    );
    assert!(
        degraded
            .iter()
            .any(|s| matches!(s, SessionResult::Degraded { .. })),
        "no session degraded: {degraded:?}"
    );
    // The slow path is a monolithic late launch of the degraded PAL's
    // own, and its report says so.
    for s in &degraded {
        if let SessionResult::Degraded { report, .. } = s {
            assert!(report.late_launch > SimDuration::ZERO, "{report:?}");
        }
    }
    let r = v.reject_missing(0, MissingKind::Degraded);
    assert_eq!(
        r.result.unwrap_err(),
        RejectReason::MissingQuote(MissingKind::Degraded)
    );

    // Killed sessions (fatal fault, SKILL teardown) likewise.
    let lethal = FaultPlan::new(0xDEAD)
        .with_tpm_rate(RATE_DENOM / 2)
        .with_fatal_ratio(RATE_DENOM);
    let killed = run_sessions(
        1,
        FLEET_SERVICE,
        8,
        Platform::recommended(2),
        Some(lethal),
        Some(RetryPolicy::new(0, SimDuration::ZERO)),
    );
    assert!(
        killed
            .iter()
            .any(|s| matches!(s, SessionResult::Killed { .. })),
        "no session killed: {killed:?}"
    );
    let r = v.reject_missing(1, MissingKind::Killed);
    assert_eq!(
        r.result.unwrap_err(),
        RejectReason::MissingQuote(MissingKind::Killed)
    );
}

#[test]
fn tcb_status_policy_gates_otherwise_valid_quotes() {
    let image = service_image();
    let wires = honest_wires(0, 3);

    // The build ages out: OutOfDate rejects under the strict policy...
    let mut v = provisioned(1);
    v.ingest_tcb(TcbInfo::new(2).with_status(Sha1::digest(&image), TcbStatus::OutOfDate))
        .expect("newer table");
    v.challenge(0, &nonce(0), 0);
    let r = v.verify(0, &wires[0], 0);
    assert_eq!(r.result.unwrap_err(), RejectReason::TcbOutOfDate);

    // ...but a tolerant policy accepts it and says what it accepted.
    v.set_policy(TcbPolicy::strict().accept_out_of_date(true));
    v.challenge(0, &nonce(1), 0);
    let att = v.verify(0, &wires[1], 0).result.expect("tolerated");
    assert_eq!(att.tcb, TcbStatus::OutOfDate);

    // Revocation is terminal under every policy composition.
    v.ingest_tcb(TcbInfo::new(3).with_status(Sha1::digest(&image), TcbStatus::Revoked))
        .expect("newer table");
    v.challenge(0, &nonce(2), 0);
    let r = v.verify(0, &wires[2], 0);
    assert_eq!(r.result.unwrap_err(), RejectReason::TcbRevoked);

    // A table rollback is refused outright.
    assert_eq!(v.ingest_tcb(TcbInfo::new(1)), Err(1));
}

// ---------------------------------------------------------------------
// Tamper evidence: one bit is enough
// ---------------------------------------------------------------------

#[test]
fn every_single_bit_flip_is_rejected() {
    let wire = honest_wires(0, 1).remove(0);
    let mut v = provisioned(1);
    v.challenge(0, &nonce(0), 0);

    for byte in 0..wire.len() {
        for bit in 0..8 {
            let mut tampered = wire.clone();
            tampered[byte] ^= 1 << bit;
            let verdict = v.verify(0, &tampered, 0);
            assert!(
                verdict.result.is_err(),
                "flipping bit {bit} of byte {byte} still verified"
            );
        }
    }

    // The pristine wire still verifies: the challenge survived every
    // tampered attempt (none of them could legitimately spend it).
    let verdict = v.verify(0, &wire, 0);
    assert!(verdict.result.is_ok(), "{:?}", verdict.result);
}

// ---------------------------------------------------------------------
// Fleet determinism at scale, and the ninth artifact
// ---------------------------------------------------------------------

#[test]
fn thousand_platform_fleet_is_byte_identical_across_shards_and_dispatch() {
    // 250 requests keep debug crypto affordable; the fleet itself is
    // 1000 enrolled platforms (1000 AIKs, 1000 cert chains at the
    // verifier). Round-robin lands each request on its own platform, so
    // every verification walks the certificate chain.
    let base = run_fleet(&FleetConfig::new(1000, 250));
    assert_eq!(base.requests.len(), 250);
    assert_eq!(base.accepted, 250);
    assert_eq!(base.rejected, 0);
    assert_eq!(base.cert_walks, 250);
    assert_eq!(base.ticket_hits, 0);

    // Shard layout is pure bookkeeping: the outcome — every request's
    // wire bytes, verdict, and virtual timestamp — is byte-identical.
    let sharded = run_fleet(&FleetConfig::new(1000, 250).with_shards(64));
    assert_eq!(sharded, base);

    // The hashed dispatcher orders requests differently; its outcome
    // must be equally shard-invariant.
    let hashed = FleetConfig::new(1000, 250).with_policy(DispatchPolicy::Hashed { seed: 0xD15 });
    let h1 = run_fleet(&hashed.clone().with_shards(1));
    let h32 = run_fleet(&hashed.with_shards(32));
    assert_eq!(h1, h32);
    assert_eq!(h1.accepted, 250);
    // Hashing collides some platforms, so tickets actually serve.
    assert!(h1.ticket_hits > 0);
    assert_eq!(h1.cert_walks + h1.ticket_hits, 250);
}

#[test]
fn fleet_outcome_is_executor_invariant() {
    let des = run_fleet(&FleetConfig::new(6, 18));
    let tp = run_fleet(&FleetConfig::new(6, 18).with_executor(Executor::ThreadPool));
    assert_eq!(des, tp);
}

#[test]
fn churn_is_the_tenth_suite_artifact_and_validates() {
    let arts = run_suite_serial(&SuiteConfig::smoke());
    assert_eq!(arts.len(), 11);
    assert_eq!(arts[8].name, "Fleet");
    assert!(arts[8].rendered.contains("goodput/s"));
    assert_eq!(arts[9].name, "Churn");
    assert!(arts[9].rendered.contains("goodput/s"));
    assert!(arts[9].metrics.total_virtual_ns > 0);
    assert_eq!(arts[10].name, "VM");
    assert!(arts[10].rendered.contains("speedup"));

    let text = suite_json(&arts, true);
    validate_suite_json(&text).expect("suite JSON with the churn artifact validates");
    assert!(text.contains("\"fleet\""), "fleet seed missing: {text}");
    assert!(text.contains("\"churn\""), "churn seed missing: {text}");
}

// ---------------------------------------------------------------------
// Boundary agreement: acceptance-window edges on both implementations
// ---------------------------------------------------------------------

#[test]
fn freshness_window_edge_agrees_on_both_verifiers() {
    const WINDOW_NS: u64 = 1_000_000;
    let vault = KeyVault::global();
    let wire = honest_wires(0, 1).remove(0);
    let quote = Quote::from_bytes(&wire).expect("own wire parses");

    // Fleet verifier: a wire arriving exactly at issued + window is
    // accepted; one nanosecond later it is stale.
    let mut v = provisioned(1);
    v.set_freshness_window_ns(WINDOW_NS);
    v.challenge(0, &nonce(0), 0);
    let at_edge = v.verify(0, &wire, WINDOW_NS);
    assert!(at_edge.result.is_ok(), "{:?}", at_edge.result);
    let late = quote
        .reissue(&nonce(1), &vault.aik(0))
        .expect("vault key signs")
        .to_bytes();
    v.challenge(0, &nonce(1), 0);
    let past_edge = v.verify(0, &late, WINDOW_NS + 1);
    assert_eq!(past_edge.result.unwrap_err(), RejectReason::StaleQuote);

    // Platform-side protocol service: same `>` semantics at the same
    // edge, per its own clock type.
    let policy = TrustPolicy::new(Verifier::new(vault.tpm(0).aik_public().clone()));
    let mut service = AttestationService::new(policy, SimDuration::from_ns(WINDOW_NS), b"boundary");
    service.policy_mut().trust(FLEET_SERVICE, &service_image());
    let t0 = SimTime::from_ns(0);
    let c = service.issue(t0);
    let answer = quote.reissue(c.nonce(), &vault.aik(0)).expect("signs");
    assert_eq!(
        service.consume(&answer, t0 + SimDuration::from_ns(WINDOW_NS)),
        Ok(FLEET_SERVICE.to_owned()),
        "exactly at the window is fresh on the platform side too"
    );
    let c2 = service.issue(t0);
    let answer2 = quote.reissue(c2.nonce(), &vault.aik(0)).expect("signs");
    assert_eq!(
        service.consume(&answer2, t0 + SimDuration::from_ns(WINDOW_NS + 1)),
        Err(ProtocolError::ChallengeExpired)
    );
}

#[test]
fn ticket_ttl_edge_hits_then_walks() {
    const TTL_NS: u64 = 500_000;
    let vault = KeyVault::global();
    let wire = honest_wires(0, 1).remove(0);
    let quote = Quote::from_bytes(&wire).expect("own wire parses");
    let mut v = provisioned(1);
    v.set_ticket_ttl_ns(TTL_NS);

    // First verification walks the chain and mints a ticket at t=0.
    v.challenge(0, &nonce(0), 0);
    let first = v.verify(0, &wire, 0);
    assert!(first.result.is_ok());
    assert!(!first.ticket_hit);

    // A ticket used exactly at its TTL still serves...
    let w1 = quote.reissue(&nonce(1), &vault.aik(0)).expect("signs");
    v.challenge(0, &nonce(1), 0);
    let at_edge = v.verify(0, &w1.to_bytes(), TTL_NS);
    assert!(at_edge.result.is_ok());
    assert!(at_edge.ticket_hit, "exactly at the TTL is a hit");

    // ...one nanosecond past it, the chain is walked again (and a
    // fresh ticket minted).
    let w2 = quote.reissue(&nonce(2), &vault.aik(0)).expect("signs");
    v.challenge(0, &nonce(2), 0);
    let past_edge = v.verify(0, &w2.to_bytes(), TTL_NS + 1);
    assert!(past_edge.result.is_ok());
    assert!(!past_edge.ticket_hit, "past the TTL walks the chain");
    assert_eq!(v.stats().cert_walks, 2);
    assert_eq!(v.stats().ticket_hits, 1);
}

// ---------------------------------------------------------------------
// Churn: lossy delivery properties and fleet-level byte-identity
// ---------------------------------------------------------------------

/// A churn plan heavy on duplication and reordering, with replayed,
/// bit-flipped, and forged adversarial wires riding along.
fn lossy_churn(seed: u64) -> ChurnPlan {
    ChurnPlan::new(seed)
        .with_net(
            NetPlan::new(seed)
                .with_drop_rate(6_000)
                .with_delay_rate(10_000)
                .with_duplicate_rate(16_000)
                .with_reorder_rate(16_000),
        )
        .with_adversary(16_000, 0, 16_000, 16_000)
}

#[test]
fn duplicated_and_reordered_delivery_never_double_counts() {
    // The property, at 1 and 4 workers on both executors: every request
    // resolves to exactly one typed fate, duplicate wire copies are
    // rejected at the verifier (never re-resolved), and no replayed
    // single-use nonce is ever accepted.
    for workers in [1u16, 4] {
        let cfg = FleetConfig::new(3, 10)
            .with_cpus(workers)
            .with_churn(lossy_churn(0x10_55))
            .with_lifecycle(FleetPolicy::resilient().with_max_attempts(8));
        let des = run_fleet(&cfg);
        let tp = run_fleet(&cfg.clone().with_executor(Executor::ThreadPool));
        assert_eq!(des, tp, "executor-invariant at {workers} workers");

        // Exactly one outcome per request id — no double resolution.
        let mut seen: Vec<u64> = des.requests.iter().map(|r| r.request).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
        assert_eq!(des.accepted + des.rejected + des.timed_out, 10);

        // Duplicated copies reached the verifier and were rejected
        // there (wire-level), without disturbing the fate-level counts.
        assert!(
            des.stats.requests > des.requests.iter().map(|r| r.attempts as u64).sum::<u64>()
                || des.stats.rejected > 0,
            "the lossy plan should have produced extra wire traffic"
        );

        // Replayed nonces never verify.
        for adv in des
            .adversarial
            .iter()
            .filter(|a| a.kind == AdversaryKind::Replay)
        {
            assert_eq!(
                adv.verdict.clone().unwrap_err(),
                RejectReason::ReplayedNonce
            );
        }
    }
}

#[test]
fn churned_fleet_is_byte_identical_across_shards_executors_and_orders() {
    let churn = lossy_churn(0xC1_44)
        .with_reboots(RATE_DENOM / 4, 400_000)
        .with_rotation(RATE_DENOM / 3, 2_000_000, 600_000);
    let cfg = FleetConfig::new(16, 32)
        .with_churn(churn)
        .with_lifecycle(FleetPolicy::resilient().with_max_attempts(6));

    let base = run_fleet(&cfg);
    assert_eq!(base.requests.len(), 32);
    for shards in [4usize, 16] {
        assert_eq!(
            run_fleet(&cfg.clone().with_shards(shards)),
            base,
            "shards = {shards}"
        );
    }
    assert_eq!(
        run_fleet(&cfg.clone().with_executor(Executor::ThreadPool)),
        base,
        "executor backend"
    );
    let mut permuted: Vec<u64> = (0..32).rev().collect();
    permuted.swap(3, 17);
    permuted.swap(0, 31);
    assert_eq!(
        run_fleet_with_submission(&cfg, &permuted, Obs::null()),
        base,
        "submission permutation"
    );
}

#[test]
fn every_adversarial_wire_is_rejected_with_a_typed_reason() {
    // A finite freshness window lets the stale-nonce adversary exist;
    // it is generous enough that honest (even retried) wires stay
    // fresh.
    let churn = ChurnPlan::new(0xAD_17)
        .with_net(NetPlan::new(0xAD_17).with_delay_rate(10_000))
        .with_adversary(
            RATE_DENOM / 2,
            RATE_DENOM / 2,
            RATE_DENOM / 2,
            RATE_DENOM / 2,
        );
    let cfg = FleetConfig::new(4, 16)
        .with_churn(churn)
        .with_lifecycle(FleetPolicy::resilient())
        .with_freshness_window_ns(50_000_000);
    let out = run_fleet(&cfg);

    assert_eq!(out.accepted, 16, "honest traffic unharmed");
    assert!(!out.adversarial.is_empty());
    assert_eq!(out.adversarial_rejected, out.adversarial.len());
    let mut kinds_seen = std::collections::BTreeSet::new();
    for adv in &out.adversarial {
        kinds_seen.insert(adv.kind);
        let reason = adv.verdict.clone().expect_err("adversarial wire rejected");
        match adv.kind {
            AdversaryKind::Replay => assert_eq!(reason, RejectReason::ReplayedNonce),
            AdversaryKind::StaleNonce => assert_eq!(reason, RejectReason::StaleQuote),
            AdversaryKind::ForgedCert => assert_eq!(reason, RejectReason::BadSignature),
            AdversaryKind::BitFlip => {} // typed, but flip-position-dependent
            _ => {}
        }
    }
    assert_eq!(kinds_seen.len(), 4, "all four attack kinds fired");
    // Fates stay typed under attack.
    assert!(out
        .requests
        .iter()
        .all(|r| r.fate == RequestFate::Verified || r.fate == RequestFate::Retried));
}
