//! Sharded fleet execution with remote verification and a churn-
//! tolerant client lifecycle.
//!
//! A fleet is many simulated platforms — each a full [`SessionEngine`]
//! on its own [`SecurePlatform`] — fed attestation requests by a
//! deterministic [`Dispatcher`] and checked by one remote
//! [`VerifierService`]. The pipeline has three phases, each of which is
//! a pure function of the configuration:
//!
//! 1. **Dispatch**: request *r* goes to platform `assign(r)` — a pure
//!    function of *r*, so submission order is irrelevant.
//! 2. **Execute**: shard *s* runs the platforms with `p % shards == s`,
//!    one OS thread per shard. Within a platform, the engine's static
//!    job→CPU assignment and virtual-time accounting make completion
//!    times independent of the executor backend and host scheduling.
//! 3. **Verify**: completions merge through an [`EventQueue`] keyed by
//!    `(event time, id)` — the fleet-level routing point — and drain
//!    through a *request lifecycle* loop: each request's wire crosses a
//!    [`NetPlan`](sea_hw::NetPlan)-faulted network (drop / delay /
//!    duplicate / reorder),
//!    the verifier runs as a single queueing server in virtual time,
//!    and the client side retries per a [`FleetPolicy`] (bounded
//!    attempts, per-attempt timeout, exponential backoff). Retries
//!    re-quote under a *fresh* nonce — the verifier's single-use-nonce
//!    rule is never weakened to accommodate them.
//!
//! Churn — mid-sweep reboots, certificate rotation + re-enrollment,
//! staged TCB pushes, and adversarial wires — comes from a seeded
//! [`ChurnPlan`]; every decision is a pure function of the plan and a
//! platform or request id. Because every phase is deterministic,
//! [`FleetOutcome`] is byte-identical across shard counts, dispatch
//! submission orders, and executor backends — which
//! `tests/verifier_differential.rs` pins for a 1000-platform fleet and
//! for churned sweeps.
//!
//! One modeling simplification: a client timeout races against a
//! wire's *arrival* at the verifier, not against verifier service
//! completion — a wire that arrives before the deadline is decided
//! even if the verifier's queue pushes the verdict past it.

use sea_core::{
    BatchPolicy, ConcurrentJob, Executor, FnPal, PalLogic, PalOutcome, SecurePlatform,
    SessionEngine, SessionResult, Slaunch,
};
use sea_hw::{EventQueue, FaultPlan, Obs, Platform, SimDuration, SimTime};
use sea_os::{DispatchPolicy, Dispatcher};
use sea_tpm::Quote;

use crate::churn::{AdversaryKind, ChurnPlan};
use crate::policy::{FleetPolicy, RequestFate};
use crate::tcb::{TcbInfo, TcbRollout, TcbStatus};
use crate::vault::KeyVault;
use crate::verifier::{Attestation, MissingKind, RejectReason, VerifierService, VerifierStats};

/// Name of the one trusted service every fleet platform runs. One name
/// means one PAL image, hence one trusted build at the verifier.
pub const FLEET_SERVICE: &str = "fleet-service";

/// Virtual one-way network transit from a platform to the verifier.
pub const NETWORK_RTT_NS: u64 = 200_000;

/// AIK generation used to sign forged-certificate adversarial wires —
/// a key the privacy CA never certified.
const ROGUE_GENERATION: u32 = u32::MAX;

/// Nonce suffix marking the stale-nonce adversary's challenge (outside
/// the retry-attempt suffix space).
const STALE_MARKER: u32 = 0xFFFF_FFFE;

/// Nonce suffix used by forged wires (never issued as a challenge).
const FORGE_MARKER: u32 = 0xFFFF_FFFD;

/// The measured image of the fleet service PAL (what the verifier is
/// provisioned to trust).
pub fn service_image() -> Vec<u8> {
    FnPal::new(FLEET_SERVICE, |_| Ok(PalOutcome::Exit(Vec::new()))).image()
}

/// Per-request PAL compute time: deterministic jitter over the request
/// id so the dispatcher's choice of platform never changes the work.
fn request_work(request: u64) -> SimDuration {
    SimDuration::from_us(25 * (1 + request % 5))
}

/// Configuration of one fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetConfig {
    /// Number of simulated platforms.
    pub platforms: usize,
    /// CPUs (and engine workers) per platform.
    pub cpus_per_platform: u16,
    /// Total attestation requests dispatched across the fleet.
    pub requests: usize,
    /// OS threads the platform set is sharded over.
    pub shards: usize,
    /// How requests map to platforms.
    pub policy: DispatchPolicy,
    /// Engine executor backend for every platform.
    pub executor: Executor,
    /// Version of the TCB table the verifier is provisioned with.
    pub tcb_version: u32,
    /// Client-side retry/timeout/backoff policy.
    pub lifecycle: FleetPolicy,
    /// Seeded churn: network faults, reboots, rotation, adversaries.
    pub churn: ChurnPlan,
    /// Verifier challenge-freshness window (quotes answering older
    /// challenges are `StaleQuote`-rejected).
    pub freshness_window_ns: u64,
    /// Verifier AIK session-ticket TTL.
    pub ticket_ttl_ns: u64,
}

impl FleetConfig {
    /// A fleet of `platforms` handling `requests`, single-sharded,
    /// round-robin dispatched, on the discrete-event backend, with the
    /// calm churn plan and the plain (single-shot) client policy — a
    /// default run is byte-identical to the pre-lifecycle pipeline.
    pub fn new(platforms: usize, requests: usize) -> Self {
        assert!(platforms > 0, "a fleet needs at least one platform");
        FleetConfig {
            platforms,
            cpus_per_platform: 2,
            requests,
            shards: 1,
            policy: DispatchPolicy::RoundRobin,
            executor: Executor::DiscreteEvent,
            tcb_version: 1,
            lifecycle: FleetPolicy::plain(),
            churn: ChurnPlan::calm(),
            freshness_window_ns: u64::MAX,
            ticket_ttl_ns: u64::MAX,
        }
    }

    /// Overrides the shard count (builder-style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard");
        self.shards = shards;
        self
    }

    /// Overrides the dispatch policy (builder-style).
    pub fn with_policy(mut self, policy: DispatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the executor backend (builder-style).
    pub fn with_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// Overrides the per-platform CPU count (builder-style).
    pub fn with_cpus(mut self, cpus: u16) -> Self {
        assert!(cpus > 0, "a platform needs at least one CPU");
        self.cpus_per_platform = cpus;
        self
    }

    /// Overrides the client lifecycle policy (builder-style).
    pub fn with_lifecycle(mut self, lifecycle: FleetPolicy) -> Self {
        self.lifecycle = lifecycle;
        self
    }

    /// Overrides the churn plan (builder-style).
    pub fn with_churn(mut self, churn: ChurnPlan) -> Self {
        self.churn = churn;
        self
    }

    /// Overrides the verifier freshness window (builder-style).
    pub fn with_freshness_window_ns(mut self, window: u64) -> Self {
        self.freshness_window_ns = window;
        self
    }

    /// Overrides the verifier ticket TTL (builder-style).
    pub fn with_ticket_ttl_ns(mut self, ttl: u64) -> Self {
        self.ticket_ttl_ns = ttl;
        self
    }
}

/// One request's journey through the fleet, in resolution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// The request id.
    pub request: u64,
    /// The platform the dispatcher assigned it to.
    pub platform: usize,
    /// Virtual time the platform finished the session and emitted its
    /// quote (or failed).
    pub completed_ns: u64,
    /// Virtual time the request's fate settled (last verdict, terminal
    /// rejection, or final timeout).
    pub verified_ns: u64,
    /// Attestation latency from platform completion to settlement:
    /// transit + verifier queueing + service + any retries/backoff.
    pub latency_ns: u64,
    /// Whether the settling wire hit the verifier's AIK session-ticket
    /// cache.
    pub ticket_hit: bool,
    /// The exact wire bytes of the *first* attempt, when the platform
    /// produced a quote (kept for tamper-property tests).
    pub wire: Option<Vec<u8>>,
    /// The last verifier decision the client saw, if any verdict
    /// arrived at all (a fully timed-out request has `None`).
    pub verdict: Option<Result<Attestation, RejectReason>>,
    /// The typed terminal outcome of the whole lifecycle.
    pub fate: RequestFate,
    /// Attempts sent (1 = no retries).
    pub attempts: u32,
}

/// One adversarial wire's outcome, in verification order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversaryOutcome {
    /// The honest request the wire rode alongside.
    pub request: u64,
    /// The platform the wire claimed to be from.
    pub platform: usize,
    /// What kind of attack the wire was.
    pub kind: AdversaryKind,
    /// Virtual time the verifier finished deciding.
    pub verified_ns: u64,
    /// The verifier's decision — `Err` for every sound verifier.
    pub verdict: Result<Attestation, RejectReason>,
}

/// The complete, deterministic result of a fleet run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetOutcome {
    /// Per-request outcomes in fate-resolution order.
    pub requests: Vec<RequestOutcome>,
    /// Requests whose fate is accepted (verified, retried, degraded).
    pub accepted: usize,
    /// Requests terminally rejected by the verifier.
    pub rejected: usize,
    /// Requests whose attempt budget ran out without a settled verdict.
    pub timed_out: usize,
    /// Requests accepted inside a TCB-rollout grace window.
    pub degraded: usize,
    /// Total retry sends across all requests.
    pub retries: u64,
    /// Adversarial wires interleaved into the sweep, with verdicts.
    pub adversarial: Vec<AdversaryOutcome>,
    /// Adversarial wires the verifier rejected (all of them, for a
    /// sound verifier — pinned by tests).
    pub adversarial_rejected: usize,
    /// Certificate-chain walks the verifier performed.
    pub cert_walks: u64,
    /// AIK session-ticket cache hits.
    pub ticket_hits: u64,
    /// The verifier's full wire-level counters (includes duplicate and
    /// adversarial traffic, unlike the fate-level counts above).
    pub stats: VerifierStats,
    /// Virtual wall time: when the last request's fate settled.
    pub wall_ns: u64,
}

impl FleetOutcome {
    /// Attestation latencies, ascending.
    pub fn latencies_sorted_ns(&self) -> Vec<u64> {
        let mut l: Vec<u64> = self.requests.iter().map(|r| r.latency_ns).collect();
        l.sort_unstable();
        l
    }

    /// Accepted attestations per virtual second of fleet wall time.
    pub fn goodput_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.accepted as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// What one platform reports upward to the fleet-level merge.
struct Completion {
    request: u64,
    platform: usize,
    completed_ns: u64,
    /// The session's quote, or the typed reason there is none.
    quote: Result<Quote, MissingKind>,
    nonce: Vec<u8>,
}

/// Runs the per-platform batch and computes virtual completion times
/// from the engine's static job→CPU assignment (job *i* on CPU
/// `i % workers`, sequential per CPU).
fn run_platform(
    cfg: &FleetConfig,
    platform: usize,
    requests: &[u64],
    obs: &Obs,
) -> Vec<Completion> {
    let workers = cfg.cpus_per_platform as usize;
    let mut secure = SecurePlatform::with_tpm(
        Platform::recommended(cfg.cpus_per_platform),
        KeyVault::global().tpm(platform),
    );
    secure.install_obs(obs.clone());
    let mut engine =
        SessionEngine::<Slaunch>::new(secure, workers).expect("workers fit the platform");
    engine.set_fault_plan(Some(FaultPlan::fault_free()));
    let jobs: Vec<ConcurrentJob> = requests
        .iter()
        .map(|&r| {
            ConcurrentJob::new(
                Box::new(FnPal::new(FLEET_SERVICE, move |ctx| {
                    ctx.work(request_work(r));
                    Ok(PalOutcome::Exit(r.to_le_bytes().to_vec()))
                })),
                b"",
            )
        })
        .collect();
    let out = engine
        .run(jobs, &BatchPolicy::plain().with_executor(cfg.executor))
        .expect("plain fleet batch runs");

    let mut cpu_busy = vec![SimDuration::ZERO; workers];
    out.sessions
        .into_iter()
        .enumerate()
        .map(|(job, session)| {
            let cpu = job % workers;
            cpu_busy[cpu] += session.cost();
            let quote = match session {
                SessionResult::Quoted { quote, .. } => Ok(quote),
                SessionResult::Degraded { .. } => Err(MissingKind::Degraded),
                SessionResult::Killed { .. } => Err(MissingKind::Killed),
                _ => Err(MissingKind::Unknown),
            };
            Completion {
                request: requests[job],
                platform,
                completed_ns: cpu_busy[cpu].as_ns(),
                quote,
                nonce: (job as u64).to_le_bytes().to_vec(),
            }
        })
        .collect()
}

/// Events flowing through the fleet-level lifecycle queue. The event
/// id carries the request id for `Deliver`/`Timeout`; `ReEnroll` and
/// `Adversary` live in disjoint id ranges above the request space.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    /// A wire (or a missing-quote report) arriving at the verifier.
    Deliver {
        attempt: u32,
        wire: Result<Vec<u8>, MissingKind>,
    },
    /// The client-side per-attempt deadline.
    Timeout { attempt: u32 },
    /// A rotated platform's generation-1 certificate re-enrolling.
    ReEnroll { platform: usize },
    /// An adversarial wire arriving at the verifier.
    Adversary {
        request: u64,
        kind: AdversaryKind,
        wire: Vec<u8>,
    },
}

/// Per-request client lifecycle state.
struct Life {
    platform: usize,
    completed_ns: u64,
    nonce0: Vec<u8>,
    quote0: Result<Quote, MissingKind>,
    /// Attempts sent so far.
    attempts: u32,
    /// The attempt the client currently waits on (0-based).
    current: u32,
    /// Virtual time of the most recent send.
    last_send_ns: u64,
    last_verdict: Option<Result<Attestation, RejectReason>>,
    last_ticket_hit: bool,
    resolved: bool,
    /// Whether the churn plan interleaves a replay attack on this
    /// request (fires once, after acceptance).
    wants_replay: bool,
}

/// The nonce for attempt `attempt` of a request whose engine-issued
/// nonce is `nonce0`: attempt 0 keeps the engine nonce, retries append
/// the attempt number so every attempt consumes a distinct single-use
/// challenge.
fn attempt_nonce(nonce0: &[u8], attempt: u32) -> Vec<u8> {
    let mut n = nonce0.to_vec();
    if attempt > 0 {
        n.extend_from_slice(&attempt.to_le_bytes());
    }
    n
}

/// A nonce in the adversary marker space (outside any retry attempt).
fn marker_nonce(nonce0: &[u8], marker: u32) -> Vec<u8> {
    let mut n = nonce0.to_vec();
    n.extend_from_slice(&marker.to_le_bytes());
    n
}

/// The AIK generation platform `p` signs with at virtual time `t`:
/// generation 1 once its rotation re-enrollment has landed, else 0.
fn generation_at(churn: &ChurnPlan, platform: usize, t_ns: u64) -> u32 {
    match churn.rotation_for(platform as u64) {
        Some((_, re_enroll_at)) if t_ns >= re_enroll_at => 1,
        _ => 0,
    }
}

/// Runs the fleet: dispatch, sharded execution, fleet-level merge,
/// lifecycle-driven remote verification. See the module docs for the
/// determinism argument.
pub fn run_fleet(cfg: &FleetConfig) -> FleetOutcome {
    run_fleet_with_obs(cfg, Obs::null())
}

/// [`run_fleet`] with an observability handle installed into every
/// platform: session lifecycle spans and layer charges from all shards
/// land in one recording.
pub fn run_fleet_with_obs(cfg: &FleetConfig, obs: Obs) -> FleetOutcome {
    let ids: Vec<u64> = (0..cfg.requests as u64).collect();
    run_fleet_with_submission(cfg, &ids, obs)
}

/// [`run_fleet_with_obs`] with an explicit submission order:
/// `submission` must be a permutation of `0..cfg.requests`. The
/// outcome is byte-identical for every permutation (pinned by tests) —
/// dispatch assignment is a pure function of the request id and the
/// per-platform batches are canonicalized.
pub fn run_fleet_with_submission(cfg: &FleetConfig, submission: &[u64], obs: Obs) -> FleetOutcome {
    assert_eq!(
        submission.len(),
        cfg.requests,
        "submission must cover every request exactly once"
    );
    let dispatcher = Dispatcher::new(cfg.platforms, cfg.policy);
    let per_platform = dispatcher.partition(submission);

    // Sharded execution: shard s owns platforms p with p % shards == s.
    let shards = cfg.shards.min(cfg.platforms).max(1);
    let mut completions: Vec<Option<Vec<Completion>>> = Vec::new();
    completions.resize_with(cfg.platforms, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                let per_platform = &per_platform;
                let obs = &obs;
                scope.spawn(move || {
                    (shard..cfg.platforms)
                        .step_by(shards)
                        .map(|p| (p, run_platform(cfg, p, &per_platform[p], obs)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (p, done) in handle.join().expect("shard thread") {
                completions[p] = Some(done);
            }
        }
    });

    // Provision the verifier out-of-band: CA root, per-platform AIK
    // certificates (expiring ones for rotation-churned platforms), the
    // one trusted build, the TCB table (plus any staged rollout), and
    // acceptance windows.
    let vault = KeyVault::global();
    let mut verifier = VerifierService::new(vault.ca_public());
    let image = service_image();
    verifier.trust(FLEET_SERVICE, &image, &[]);
    verifier
        .ingest_tcb(
            TcbInfo::new(cfg.tcb_version)
                .with_status(sea_crypto::Sha1::digest(&image), TcbStatus::UpToDate),
        )
        .expect("fresh verifier accepts any table");
    verifier.set_freshness_window_ns(cfg.freshness_window_ns);
    verifier.set_ticket_ttl_ns(cfg.ticket_ttl_ns);
    if let Some(push) = cfg.churn.tcb_push() {
        let table = TcbInfo::new(cfg.tcb_version + 1)
            .with_status(sea_crypto::Sha1::digest(&image), TcbStatus::OutOfDate);
        verifier
            .push_tcb(TcbRollout::new(
                table,
                push.at_ns,
                push.groups,
                push.group_delay_ns,
                push.grace_ns,
            ))
            .expect("pushed table is newer than provisioned");
    }

    // Event-id ranges: requests, then re-enrollments, then adversaries.
    let nreq = cfg.requests as u64;
    let re_enroll_id = |p: usize| nreq + p as u64;
    let adversary_id = |r: u64, k: u32| nreq + cfg.platforms as u64 + r * 4 + k as u64;

    let mut queue: EventQueue<Ev> = EventQueue::new();
    for p in 0..cfg.platforms {
        match cfg.churn.rotation_for(p as u64) {
            Some((not_after_ns, re_enroll_at)) => {
                verifier.enroll(vault.certificate_generation(p, 0, not_after_ns));
                queue.schedule(
                    SimTime::from_ns(re_enroll_at),
                    re_enroll_id(p),
                    Ev::ReEnroll { platform: p },
                );
            }
            None => verifier.enroll(vault.certificate(p)),
        }
    }

    // Fleet-level merge: completions from every shard become lifecycle
    // state, indexed by request id.
    let mut lives: Vec<Option<Life>> = Vec::new();
    lives.resize_with(cfg.requests, || None);
    for done in completions.into_iter().flatten() {
        for c in done {
            lives[c.request as usize] = Some(Life {
                platform: c.platform,
                completed_ns: c.completed_ns,
                nonce0: c.nonce,
                quote0: c.quote,
                attempts: 0,
                current: 0,
                last_send_ns: 0,
                last_verdict: None,
                last_ticket_hit: false,
                resolved: false,
                wants_replay: false,
            });
        }
    }
    let mut lives: Vec<Life> = lives
        .into_iter()
        .map(|l| l.expect("every request id has a completion"))
        .collect();

    // Sends one attempt of one request: issues the challenge, derives
    // the wire (attempt 0 reuses the engine's quote; retries re-quote
    // under a fresh nonce with the platform's current-generation AIK),
    // pushes the network's delivery schedule and the client deadline,
    // and — on the first attempt — the request's adversarial riders.
    let dispatch_attempt = |queue: &mut EventQueue<Ev>,
                            verifier: &mut VerifierService,
                            life: &mut Life,
                            request: u64,
                            send_at_ns: u64| {
        let send = cfg.churn.available_at(life.platform as u64, send_at_ns);
        let attempt = life.current;
        life.attempts += 1;
        life.last_send_ns = send;
        match &life.quote0 {
            Err(kind) => {
                // A failed session has nothing to transmit; the report
                // is a control-plane message, delivered exactly once.
                queue.schedule(
                    SimTime::from_ns(send + NETWORK_RTT_NS),
                    request,
                    Ev::Deliver {
                        attempt,
                        wire: Err(*kind),
                    },
                );
            }
            Ok(quote) => {
                let nonce = attempt_nonce(&life.nonce0, attempt);
                verifier.challenge(life.platform as u64, &nonce, send);
                let wire = if attempt == 0 {
                    quote.to_bytes()
                } else {
                    let aik = vault.aik_generation(
                        life.platform,
                        generation_at(&cfg.churn, life.platform, send),
                    );
                    quote
                        .reissue(&nonce, &aik)
                        .expect("vault key signs")
                        .to_bytes()
                };
                for extra in cfg.churn.net().deliveries(request, attempt as u64) {
                    queue.schedule(
                        SimTime::from_ns(send + NETWORK_RTT_NS + extra),
                        request,
                        Ev::Deliver {
                            attempt,
                            wire: Ok(wire.clone()),
                        },
                    );
                }
                if cfg.lifecycle.timeout_ns() != u64::MAX {
                    queue.schedule(
                        SimTime::from_ns(send.saturating_add(cfg.lifecycle.timeout_ns())),
                        request,
                        Ev::Timeout { attempt },
                    );
                }
                if attempt == 0 {
                    for kind in cfg.churn.adversaries_for(request) {
                        match kind {
                            AdversaryKind::Replay => life.wants_replay = true,
                            AdversaryKind::StaleNonce => {
                                // Needs a finite freshness window to be
                                // distinguishable from an honest wire.
                                if cfg.freshness_window_ns == u64::MAX {
                                    continue;
                                }
                                let stale = marker_nonce(&life.nonce0, STALE_MARKER);
                                verifier.challenge(life.platform as u64, &stale, send);
                                let at = send
                                    .saturating_add(cfg.freshness_window_ns)
                                    .saturating_add(1 + NETWORK_RTT_NS);
                                let aik = vault.aik_generation(
                                    life.platform,
                                    generation_at(&cfg.churn, life.platform, at),
                                );
                                let wire = quote
                                    .reissue(&stale, &aik)
                                    .expect("vault key signs")
                                    .to_bytes();
                                queue.schedule(
                                    SimTime::from_ns(at),
                                    adversary_id(request, 1),
                                    Ev::Adversary {
                                        request,
                                        kind,
                                        wire,
                                    },
                                );
                            }
                            AdversaryKind::BitFlip => {
                                let mut flipped = quote.to_bytes();
                                let bit = cfg.churn.bitflip_bit(request, flipped.len() * 8);
                                flipped[bit / 8] ^= 1 << (bit % 8);
                                queue.schedule(
                                    SimTime::from_ns(send + NETWORK_RTT_NS),
                                    adversary_id(request, 2),
                                    Ev::Adversary {
                                        request,
                                        kind,
                                        wire: flipped,
                                    },
                                );
                            }
                            AdversaryKind::ForgedCert => {
                                let rogue = vault.aik_generation(life.platform, ROGUE_GENERATION);
                                let wire = quote
                                    .reissue(&marker_nonce(&life.nonce0, FORGE_MARKER), &rogue)
                                    .expect("rogue key signs")
                                    .to_bytes();
                                queue.schedule(
                                    SimTime::from_ns(send + NETWORK_RTT_NS),
                                    adversary_id(request, 3),
                                    Ev::Adversary {
                                        request,
                                        kind,
                                        wire,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
    };

    // First attempt of every request, in request-id order (the order is
    // irrelevant to the outcome — event times and ids decide — but
    // fixing it keeps the queue's FIFO tiebreak submission-invariant).
    for (r, life) in lives.iter_mut().enumerate() {
        let at = life.completed_ns;
        dispatch_attempt(&mut queue, &mut verifier, life, r as u64, at);
    }

    // The verifier as a single queueing server in virtual time, driving
    // each request's client lifecycle to a typed fate.
    let mut requests = Vec::with_capacity(cfg.requests);
    let mut adversarial = Vec::new();
    let mut verifier_free_ns = 0u64;
    let resolve = |life: &mut Life,
                   requests: &mut Vec<RequestOutcome>,
                   request: u64,
                   fate: RequestFate,
                   settled_ns: u64| {
        life.resolved = true;
        requests.push(RequestOutcome {
            request,
            platform: life.platform,
            completed_ns: life.completed_ns,
            verified_ns: settled_ns,
            latency_ns: settled_ns.saturating_sub(life.completed_ns),
            ticket_hit: life.last_ticket_hit,
            wire: life.quote0.as_ref().ok().map(Quote::to_bytes),
            verdict: life.last_verdict.clone(),
            fate,
            attempts: life.attempts,
        });
    };
    while let Some(event) = queue.pop() {
        match event.payload {
            Ev::Deliver { attempt, wire } => {
                let r = event.id;
                let life = &mut lives[r as usize];
                let arrival = event.at.as_ns();
                let start = verifier_free_ns.max(arrival);
                let verdict = match &wire {
                    Err(kind) => verifier.reject_missing(life.platform as u64, *kind),
                    Ok(bytes) => verifier.verify(life.platform as u64, bytes, start),
                };
                verifier_free_ns = start + verdict.cost_ns;
                // Late or duplicate wires (an abandoned attempt, or a
                // second copy after the first resolved) count at the
                // verifier but never re-resolve the request's fate.
                if life.resolved || attempt != life.current {
                    continue;
                }
                life.last_verdict = Some(verdict.result.clone());
                life.last_ticket_hit = verdict.ticket_hit;
                match &verdict.result {
                    Ok(_) => {
                        let fate = if verdict.degraded {
                            RequestFate::Degraded
                        } else if attempt > 0 {
                            RequestFate::Retried
                        } else {
                            RequestFate::Verified
                        };
                        resolve(life, &mut requests, r, fate, verifier_free_ns);
                        if life.wants_replay {
                            if let Ok(bytes) = &wire {
                                queue.schedule(
                                    SimTime::from_ns(verifier_free_ns + NETWORK_RTT_NS),
                                    adversary_id(r, 0),
                                    Ev::Adversary {
                                        request: r,
                                        kind: AdversaryKind::Replay,
                                        wire: bytes.clone(),
                                    },
                                );
                            }
                        }
                    }
                    Err(reason)
                        if reason.is_retryable()
                            && life.attempts < cfg.lifecycle.max_attempts() =>
                    {
                        life.current += 1;
                        let backoff = cfg.lifecycle.backoff_ns(life.current);
                        let at = verifier_free_ns + NETWORK_RTT_NS + backoff;
                        dispatch_attempt(&mut queue, &mut verifier, life, r, at);
                    }
                    Err(_) => {
                        resolve(
                            life,
                            &mut requests,
                            r,
                            RequestFate::Rejected,
                            verifier_free_ns,
                        );
                    }
                }
            }
            Ev::Timeout { attempt } => {
                let r = event.id;
                let life = &mut lives[r as usize];
                if life.resolved || attempt != life.current {
                    continue;
                }
                if life.attempts < cfg.lifecycle.max_attempts() {
                    life.current += 1;
                    let at = event.at.as_ns() + cfg.lifecycle.backoff_ns(life.current);
                    dispatch_attempt(&mut queue, &mut verifier, life, r, at);
                } else {
                    resolve(
                        life,
                        &mut requests,
                        r,
                        RequestFate::TimedOut,
                        event.at.as_ns(),
                    );
                }
            }
            Ev::ReEnroll { platform } => {
                verifier.enroll(vault.certificate_generation(platform, 1, u64::MAX));
            }
            Ev::Adversary {
                request,
                kind,
                wire,
            } => {
                let platform = lives[request as usize].platform;
                let arrival = event.at.as_ns();
                let start = verifier_free_ns.max(arrival);
                let verdict = verifier.verify(platform as u64, &wire, start);
                verifier_free_ns = start + verdict.cost_ns;
                adversarial.push(AdversaryOutcome {
                    request,
                    platform,
                    kind,
                    verified_ns: verifier_free_ns,
                    verdict: verdict.result,
                });
            }
        }
    }

    // A lossy network with an infinite client timeout can strand a
    // request without any event left to settle it: close those out as
    // timed out at their last send.
    for (r, life) in lives.iter_mut().enumerate() {
        if !life.resolved {
            let settled = life.last_send_ns;
            resolve(
                life,
                &mut requests,
                r as u64,
                RequestFate::TimedOut,
                settled,
            );
        }
    }

    let stats = *verifier.stats();
    FleetOutcome {
        wall_ns: requests.iter().map(|r| r.verified_ns).max().unwrap_or(0),
        accepted: requests.iter().filter(|r| r.fate.is_accepted()).count(),
        rejected: requests
            .iter()
            .filter(|r| r.fate == RequestFate::Rejected)
            .count(),
        timed_out: requests
            .iter()
            .filter(|r| r.fate == RequestFate::TimedOut)
            .count(),
        degraded: requests
            .iter()
            .filter(|r| r.fate == RequestFate::Degraded)
            .count(),
        retries: requests.iter().map(|r| (r.attempts - 1) as u64).sum(),
        adversarial_rejected: adversarial.iter().filter(|a| a.verdict.is_err()).count(),
        adversarial,
        cert_walks: stats.cert_walks,
        ticket_hits: stats.ticket_hits,
        stats,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::TcbPush;
    use crate::tcb::TcbStatus;
    use sea_hw::{NetPlan, RATE_DENOM};

    #[test]
    fn small_fleet_attests_end_to_end() {
        let out = run_fleet(&FleetConfig::new(3, 9));
        assert_eq!(out.requests.len(), 9);
        assert_eq!(out.accepted, 9);
        assert_eq!(out.rejected, 0);
        assert_eq!(out.timed_out, 0);
        assert_eq!(out.retries, 0);
        assert!(out.adversarial.is_empty());
        // One cert walk per platform, the rest served from tickets.
        assert_eq!(out.cert_walks, 3);
        assert_eq!(out.ticket_hits, 6);
        assert!(out.wall_ns > 0);
        assert!(out.goodput_per_sec() > 0.0);
        for r in &out.requests {
            assert_eq!(r.fate, RequestFate::Verified);
            assert_eq!(r.attempts, 1);
            let verdict = r.verdict.as_ref().expect("a verdict arrived");
            let att = verdict.as_ref().expect("honest fleet accepted");
            assert_eq!(att.service, FLEET_SERVICE);
            assert_eq!(att.tcb, TcbStatus::UpToDate);
            assert_eq!(att.platform, r.platform as u64);
            assert!(r.verified_ns > r.completed_ns);
            assert_eq!(r.latency_ns, r.verified_ns - r.completed_ns);
        }
    }

    #[test]
    fn round_robin_and_hashed_dispatch_both_complete() {
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::Hashed { seed: 7 },
        ] {
            let out = run_fleet(&FleetConfig::new(4, 8).with_policy(policy));
            assert_eq!(out.accepted, 8);
        }
    }

    #[test]
    fn outcome_is_identical_across_shard_counts() {
        let base = run_fleet(&FleetConfig::new(5, 10));
        for shards in [2, 3, 5, 8] {
            let sharded = run_fleet(&FleetConfig::new(5, 10).with_shards(shards));
            assert_eq!(sharded, base, "shards = {shards}");
        }
    }

    #[test]
    fn outcome_is_identical_across_submission_orders() {
        let cfg = FleetConfig::new(3, 8);
        let base = run_fleet(&cfg);
        let mut reversed: Vec<u64> = (0..8).rev().collect();
        assert_eq!(
            run_fleet_with_submission(&cfg, &reversed, Obs::null()),
            base
        );
        reversed.swap(0, 3);
        assert_eq!(
            run_fleet_with_submission(&cfg, &reversed, Obs::null()),
            base
        );
    }

    #[test]
    fn latencies_are_sorted_and_complete() {
        let out = run_fleet(&FleetConfig::new(2, 6));
        let lat = out.latencies_sorted_ns();
        assert_eq!(lat.len(), 6);
        assert!(lat.windows(2).all(|w| w[0] <= w[1]));
        // Every latency includes at least the network transit.
        assert!(lat[0] >= NETWORK_RTT_NS);
    }

    #[test]
    fn goodput_is_zero_on_zero_wall_time() {
        // Regression: zero elapsed virtual time must not divide by
        // zero (or return NaN/inf) even with accepted requests.
        let out = FleetOutcome {
            requests: Vec::new(),
            accepted: 3,
            rejected: 0,
            timed_out: 0,
            degraded: 0,
            retries: 0,
            adversarial: Vec::new(),
            adversarial_rejected: 0,
            cert_walks: 0,
            ticket_hits: 0,
            stats: VerifierStats::default(),
            wall_ns: 0,
        };
        assert_eq!(out.goodput_per_sec(), 0.0);
        assert!(out.goodput_per_sec().is_finite());
    }

    #[test]
    fn dropped_wires_are_retried_to_acceptance() {
        let cfg = FleetConfig::new(3, 12)
            .with_churn(
                ChurnPlan::new(0xD00D).with_net(NetPlan::new(0xD00D).with_drop_rate(20_000)),
            )
            .with_lifecycle(FleetPolicy::resilient().with_max_attempts(8));
        let out = run_fleet(&cfg);
        assert_eq!(out.accepted, 12, "every request eventually lands");
        assert!(out.retries > 0, "a 30% drop rate over 12 wires retries");
        assert!(out
            .requests
            .iter()
            .any(|r| r.fate == RequestFate::Retried && r.attempts > 1));
        // Retried requests pay transit + backoff: latency grows.
        let retried = out
            .requests
            .iter()
            .find(|r| r.fate == RequestFate::Retried)
            .expect("some retry");
        assert!(retried.latency_ns > NETWORK_RTT_NS);
    }

    #[test]
    fn total_loss_times_out_with_typed_fates() {
        let cfg = FleetConfig::new(2, 4)
            .with_churn(ChurnPlan::new(1).with_net(NetPlan::new(1).with_drop_rate(RATE_DENOM)))
            .with_lifecycle(FleetPolicy::resilient().with_max_attempts(2));
        let out = run_fleet(&cfg);
        assert_eq!(out.accepted, 0);
        assert_eq!(out.timed_out, 4);
        assert_eq!(out.retries, 4, "each request burned both attempts");
        for r in &out.requests {
            assert_eq!(r.fate, RequestFate::TimedOut);
            assert_eq!(r.verdict, None, "no verdict ever reached the client");
            assert_eq!(r.attempts, 2);
        }
    }

    #[test]
    fn tcb_push_inside_grace_degrades_instead_of_rejecting() {
        let cfg = FleetConfig::new(2, 6).with_churn(ChurnPlan::new(3).with_tcb_push(TcbPush {
            at_ns: 0,
            groups: 1,
            group_delay_ns: 0,
            grace_ns: u64::MAX,
        }));
        let out = run_fleet(&cfg);
        assert_eq!(out.accepted, 6);
        assert_eq!(out.degraded, 6, "all accepted inside the grace window");
        assert!(out.requests.iter().all(|r| r.fate == RequestFate::Degraded));
    }

    #[test]
    fn churned_outcome_is_identical_across_shards_and_submissions() {
        let churn = ChurnPlan::new(0xBEEF)
            .with_net(
                NetPlan::new(0xBEEF)
                    .with_drop_rate(8_000)
                    .with_delay_rate(8_000)
                    .with_duplicate_rate(8_000)
                    .with_reorder_rate(8_000),
            )
            .with_reboots(RATE_DENOM / 4, 500_000)
            .with_adversary(20_000, 0, 20_000, 20_000);
        let cfg = FleetConfig::new(4, 12)
            .with_churn(churn)
            .with_lifecycle(FleetPolicy::resilient());
        let base = run_fleet(&cfg);
        assert_eq!(run_fleet(&cfg.clone().with_shards(4)), base);
        let rev: Vec<u64> = (0..12).rev().collect();
        assert_eq!(run_fleet_with_submission(&cfg, &rev, Obs::null()), base);
        // Sound verifier: every adversarial wire rejected, typed.
        assert!(!base.adversarial.is_empty());
        assert_eq!(base.adversarial_rejected, base.adversarial.len());
    }
}
