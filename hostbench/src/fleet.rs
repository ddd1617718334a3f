//! `fleet_churn`: one `run_fleet` per unit over eight platforms on two
//! shards, under network faults, reboots, certificate rotation, a TCB
//! push and the four adversarial wire streams.

use sea_core::engine::Slaunch;
use sea_core::{
    BatchPolicy, ConcurrentJob, Executor, FnPal, PalOutcome, SecurePlatform, SessionEngine,
    SessionResult,
};
use sea_fleet::{
    run_fleet, service_image, AdversaryKind, ChurnPlan, FleetConfig, FleetOutcome, FleetPolicy,
    KeyVault, RequestFate, RequestOutcome, TcbInfo, TcbPush, TcbRollout, TcbStatus,
    VerifierService, FLEET_SERVICE, NETWORK_RTT_NS,
};
use sea_hw::{FaultPlan, NetPlan, Platform, SimDuration, RATE_DENOM};
use sea_os::{DispatchPolicy, Dispatcher};
use sea_tpm::Quote;

use crate::oracle::{Checks, Digest};
use crate::trace::Tracer;
use crate::{Rng, UnitResult, Workload};

/// Platforms per fleet.
const PLATFORMS: usize = 8;
/// OS threads the platforms are sharded over (the host has two cores).
const SHARDS: usize = 2;
/// Attestation requests per fleet run.
const REQUESTS: usize = 256;
/// Churn intensity, parts per [`RATE_DENOM`]: moderate, so that every
/// fault family fires in every run while honest requests still settle.
const INTENSITY: u32 = RATE_DENOM / 8;
/// Verifier challenge-freshness window.
const FRESHNESS_NS: u64 = 100_000_000;
/// Verifier session-ticket TTL.
const TICKET_TTL_NS: u64 = 50_000_000;
/// Attempts a client makes per request.
const MAX_ATTEMPTS: u32 = 6;
/// AIK generation the forged-certificate stream signs with: one the
/// privacy CA never certified.
const ROGUE_GENERATION: u32 = u32::MAX;
/// AIK generation a platform re-enrolls with after rotation.
const ROTATED_GENERATION: u32 = 1;
/// Nonce suffix of the stale-nonce stream.
const STALE_MARKER: u32 = 0xFFFF_FFFE;
/// Nonce suffix of the forged-certificate stream.
const FORGE_MARKER: u32 = 0xFFFF_FFFD;
/// Churn plans a run cycles through, unit by unit, all drawn from the
/// seed: one plan's fleet run can take 10% more host time than
/// another's, so a run that averages several lets the seed move its
/// figures less.
pub const VARIANTS: usize = 8;

/// The workload's seeded fleet configurations, one per variant.
pub struct FleetChurn {
    cfgs: Vec<FleetConfig>,
    /// The variant the next unit runs.
    next: usize,
}

/// The churn every fault family of which fires within one fleet run.
fn churn_plan(seed: u64) -> ChurnPlan {
    ChurnPlan::new(seed)
        .with_net(
            NetPlan::new(seed)
                .with_drop_rate(INTENSITY / 2)
                .with_delay_rate(INTENSITY)
                .with_duplicate_rate(INTENSITY / 2)
                .with_reorder_rate(INTENSITY / 2),
        )
        .with_reboots(INTENSITY / 4, 4_000_000_000)
        .with_rotation(INTENSITY / 4, 1_500_000_000, 1_000_000)
        .with_adversary(INTENSITY / 2, INTENSITY / 2, INTENSITY / 2, INTENSITY / 2)
        // Announced mid-run (a fleet run spans about 0.3 to 4.3 virtual
        // seconds), so that requests settle on both sides of it.
        .with_tcb_push(TcbPush {
            at_ns: 2_500_000_000,
            groups: 4,
            group_delay_ns: 100_000_000,
            grace_ns: 10_000_000_000,
        })
}

/// The virtual PAL work of request `r`, as the fleet's service PAL
/// charges it.
fn request_work(r: u64) -> SimDuration {
    SimDuration::from_us(25 * (1 + r % 5))
}

fn fate_code(f: RequestFate) -> u64 {
    match f {
        RequestFate::Verified => 1,
        RequestFate::Retried => 2,
        RequestFate::Degraded => 3,
        RequestFate::Rejected => 4,
        _ => 5,
    }
}

fn attempt_nonce(nonce0: &[u8], suffix: u32) -> Vec<u8> {
    [nonce0, &suffix.to_le_bytes()].concat()
}

impl FleetChurn {
    /// The variant of the next unit; advances the cycle.
    fn next_variant(&mut self) -> usize {
        let v = self.next;
        self.next = (v + 1) % VARIANTS;
        v
    }

    /// Replays each platform's construction and session batch on the
    /// unit's inputs, checking that the batch quotes the wires the run
    /// produced (`by_id` holds the run's outcomes by request id).
    fn replay_platforms(cfg: &FleetConfig, t: &mut Tracer, by_id: &[Option<&RequestOutcome>]) {
        let ids: Vec<u64> = (0..cfg.requests as u64).collect();
        let per_platform = Dispatcher::new(cfg.platforms, cfg.policy).partition(&ids);
        for (p, requests) in per_platform.iter().enumerate() {
            let platform = t.time("hw.platform_new", || {
                SecurePlatform::with_tpm(
                    Platform::recommended(cfg.cpus_per_platform),
                    KeyVault::global().tpm(p),
                )
            });
            let engine = t.time("core.engine.new", || {
                SessionEngine::<Slaunch>::new(platform, cfg.cpus_per_platform as usize)
            });
            let Ok(mut engine) = engine else { continue };
            engine.set_fault_plan(Some(FaultPlan::fault_free()));
            let jobs = requests
                .iter()
                .map(|&r| {
                    let pal = FnPal::new(FLEET_SERVICE, move |ctx| {
                        ctx.work(request_work(r));
                        Ok(PalOutcome::Exit(r.to_le_bytes().to_vec()))
                    });
                    ConcurrentJob::new(Box::new(pal), Vec::new())
                })
                .collect();
            let policy = BatchPolicy::plain().with_executor(cfg.executor);
            let Ok(batch) = t.time("core.engine.run", || engine.run(jobs, &policy)) else {
                continue;
            };
            let same = batch.sessions.iter().zip(requests).all(|(s, &r)| {
                let wire = by_id
                    .get(r as usize)
                    .copied()
                    .flatten()
                    .and_then(|o| o.wire.as_ref());
                matches!(s, SessionResult::Quoted { quote, .. } if wire == Some(&quote.to_bytes()))
            });
            if !same {
                eprintln!("hostbench: fleet replay of platform {p} quoted other wires");
            }
        }
    }

    /// Replays the fleet's public calls on the unit's inputs: each
    /// platform's construction and session batch, every re-quote the
    /// retries and adversarial streams needed, and the verifier over
    /// every wire the run produced.
    fn replay(cfg: &FleetConfig, t: &mut Tracer, out: &FleetOutcome) {
        let vault = KeyVault::global();
        let mut by_id: Vec<Option<&RequestOutcome>> = vec![None; cfg.requests];
        for r in &out.requests {
            if let Some(slot) = by_id.get_mut(r.request as usize) {
                *slot = Some(r);
            }
        }
        // On a thread of its own, as `run_fleet` runs its shards: a
        // platform's 64 MiB comes from that thread's allocator arena, and
        // building it from the main thread's arena costs about twice as
        // much, which would overstate the layer.
        std::thread::scope(|scope| {
            scope
                .spawn(|| Self::replay_platforms(cfg, t, &by_id))
                .join()
                .expect("replay thread");
        });

        let mut verifier = VerifierService::new(vault.ca_public());
        let image = service_image();
        verifier.trust(FLEET_SERVICE, &image, &[]);
        let digest = sea_crypto::Sha1::digest(&image);
        let _ = verifier
            .ingest_tcb(TcbInfo::new(cfg.tcb_version).with_status(digest, TcbStatus::UpToDate));
        verifier.set_freshness_window_ns(cfg.freshness_window_ns);
        verifier.set_ticket_ttl_ns(cfg.ticket_ttl_ns);
        if let Some(push) = cfg.churn.tcb_push() {
            let table = TcbInfo::new(cfg.tcb_version + 1).with_status(digest, TcbStatus::OutOfDate);
            let _ = verifier.push_tcb(TcbRollout::new(
                table,
                push.at_ns,
                push.groups,
                push.group_delay_ns,
                push.grace_ns,
            ));
        }
        for p in 0..cfg.platforms {
            match cfg.churn.rotation_for(p as u64) {
                Some((not_after, _)) => {
                    verifier.enroll(vault.certificate_generation(p, 0, not_after))
                }
                None => verifier.enroll(vault.certificate(p)),
            }
        }

        let mut verify = |t: &mut Tracer, p: usize, wire: &[u8], nonce: &[u8], at: u64| {
            verifier.challenge(p as u64, nonce, at);
            let open = t.begin("fleet.verify");
            let v = verifier.verify(p as u64, wire, at + NETWORK_RTT_NS);
            let name = match (&v.result, v.ticket_hit) {
                (Err(_), _) => "fleet.verify.reject",
                (Ok(_), true) => "fleet.verify.ticket",
                (Ok(_), false) => "fleet.verify.walk",
            };
            t.end_as(open, name);
        };
        let mut honest: Vec<_> = out.requests.iter().collect();
        honest.sort_by_key(|r| (r.verified_ns, r.request));
        for r in honest {
            let Some(wire) = &r.wire else { continue };
            let Ok(quote) = Quote::from_bytes(wire) else {
                continue;
            };
            let nonce0 = quote.nonce().to_vec();
            verify(t, r.platform, wire, &nonce0, r.completed_ns);
            for attempt in 1..r.attempts {
                let aik = vault.aik_generation(r.platform, 0);
                let nonce = attempt_nonce(&nonce0, attempt);
                let _ = t.time("fleet.reissue", || quote.reissue(&nonce, &aik));
            }
        }
        for a in &out.adversarial {
            let outcome = by_id.get(a.request as usize).copied().flatten();
            let Some(wire) = outcome.and_then(|o| o.wire.as_ref()) else {
                continue;
            };
            let Ok(quote) = Quote::from_bytes(wire) else {
                continue;
            };
            let nonce0 = quote.nonce().to_vec();
            let (wire, nonce) = match a.kind {
                AdversaryKind::BitFlip => {
                    let mut flipped = wire.clone();
                    let bit = cfg.churn.bitflip_bit(a.request, flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    (flipped, nonce0)
                }
                AdversaryKind::StaleNonce | AdversaryKind::ForgedCert => {
                    let (marker, generation) = if a.kind == AdversaryKind::ForgedCert {
                        (FORGE_MARKER, ROGUE_GENERATION)
                    } else {
                        (STALE_MARKER, 0)
                    };
                    let aik = vault.aik_generation(a.platform, generation);
                    let nonce = attempt_nonce(&nonce0, marker);
                    match t.time("fleet.reissue", || quote.reissue(&nonce, &aik)) {
                        Ok(q) => (q.to_bytes(), nonce),
                        Err(_) => continue,
                    }
                }
                _ => (wire.clone(), nonce0),
            };
            verify(t, a.platform, &wire, &nonce, a.verified_ns);
        }
    }
}

/// A unit's fleet run with the variant it ran.
type FleetUnit = (usize, FleetOutcome);

impl Workload for FleetChurn {
    const THREADS: usize = SHARDS;
    // The shards run side by side (parallel efficiency ~0.95).
    const BUSY_THREADS: usize = SHARDS;
    type Outcome = FleetUnit;

    fn check(&self, (variant, out): FleetUnit) -> UnitResult {
        let mut c = Checks::default();
        let mut d = Digest::default();
        d.u64(out.wall_ns)
            .u64(out.accepted as u64)
            .u64(out.rejected as u64)
            .u64(out.timed_out as u64)
            .u64(out.degraded as u64)
            .u64(out.retries)
            .u64(out.cert_walks)
            .u64(out.ticket_hits)
            .bytes(format!("{:?}", out.stats).as_bytes());
        let requests = self.cfgs[variant].requests;
        c.check(out.requests.len() == requests, || {
            format!("{} of {requests} requests settled", out.requests.len())
        });
        for r in &out.requests {
            d.u64(r.request)
                .u64(r.platform as u64)
                .u64(r.completed_ns)
                .u64(r.verified_ns)
                .u64(fate_code(r.fate))
                .u64(u64::from(r.attempts))
                .u64(u64::from(r.ticket_hit))
                .bytes(r.wire.as_deref().unwrap_or_default());
            c.check(r.fate.is_accepted() && r.wire.is_some(), || {
                format!("honest request {} ended {:?}", r.request, r.fate)
            });
        }
        for a in &out.adversarial {
            d.u64(a.request)
                .u64(a.platform as u64)
                .bytes(a.kind.to_string().as_bytes())
                .u64(a.verified_ns)
                .bytes(format!("{:?}", a.verdict.as_ref().err()).as_bytes());
            c.check(a.verdict.is_err(), || {
                format!(
                    "adversarial {} wire on request {} accepted",
                    a.kind, a.request
                )
            });
        }
        UnitResult {
            variant,
            virtual_ns: out.wall_ns,
            quoted: out.requests.iter().filter(|r| r.wire.is_some()).count() as u64,
            verified: out.accepted as u64,
            digest: d.hex(),
            checks: c,
        }
    }

    fn setup(seed: u64, t: &mut Tracer) -> Self {
        // Warm the process-wide key vault: the CA root and shared SRK,
        // then every platform's AIK generations (born, rotated, rogue)
        // and certificate. Its first use otherwise lands in a unit.
        let open = t.begin("fleet.vault");
        let vault = t.time("crypto.keygen", KeyVault::global);
        for p in 0..PLATFORMS {
            for generation in [0, ROTATED_GENERATION, ROGUE_GENERATION] {
                t.time("crypto.keygen", || vault.aik_generation(p, generation));
            }
            std::hint::black_box(vault.certificate(p));
        }
        t.end(open);

        // Round-robin dispatch gives every platform the same load at
        // every seed; the seed drives the churn.
        let mut rng = Rng::new(seed);
        let cfgs = (0..VARIANTS)
            .map(|_| {
                FleetConfig::new(PLATFORMS, REQUESTS)
                    .with_shards(SHARDS)
                    .with_executor(Executor::DiscreteEvent)
                    .with_policy(DispatchPolicy::RoundRobin)
                    .with_lifecycle(FleetPolicy::resilient().with_max_attempts(MAX_ATTEMPTS))
                    .with_churn(churn_plan(rng.next_u64()))
                    .with_freshness_window_ns(FRESHNESS_NS)
                    .with_ticket_ttl_ns(TICKET_TTL_NS)
            })
            .collect();
        FleetChurn { cfgs, next: 0 }
    }

    fn unit(&mut self) -> FleetUnit {
        let v = self.next_variant();
        (v, run_fleet(&self.cfgs[v]))
    }

    fn traced_unit(&mut self, t: &mut Tracer) -> (FleetUnit, u64) {
        // One shard, so that the replayed parts are a subset of the real
        // call's single-threaded work (the outcome is identical at any
        // shard count).
        let v = self.next_variant();
        let serial = FleetConfig {
            shards: 1,
            ..self.cfgs[v].clone()
        };
        let root = t.begin_unit();
        let real = t.begin("fleet.run");
        let out = run_fleet(&serial);
        t.end(real);
        if t.is_on() {
            t.begin_replay(real);
            Self::replay(&serial, t, &out);
            t.end_replay();
        }
        let host_ns = t.end_unit(root);

        t.count("hw.platform_new.count", PLATFORMS as f64);
        t.count("fleet.wires", out.stats.requests as f64);
        t.count("fleet.cert_walks", out.cert_walks as f64);
        t.count("fleet.ticket_hits", out.ticket_hits as f64);
        t.count("fleet.retries", out.retries as f64);
        t.count("fleet.adversarial", out.adversarial.len() as f64);
        t.count("fleet.accepted", out.accepted as f64);
        let quoted = out.requests.iter().filter(|r| r.wire.is_some()).count();
        t.count("core.engine.launched", REQUESTS as f64);
        t.count("core.engine.quoted", quoted as f64);
        ((v, out), host_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_serial_traced_run_reproduces_the_sharded_digest() {
        let mut w = FleetChurn::setup(7, &mut Tracer::off());
        let plain = crate::checked_unit(&mut w);
        assert_eq!(plain.checks.failed, 0, "{:?}", plain.checks.reasons);
        let mut again = FleetChurn::setup(7, &mut Tracer::off());
        let (traced, _) = again.traced_unit(&mut Tracer::on());
        let traced = again.check(traced);
        assert_eq!((traced.variant, traced.digest), (0, plain.digest));
    }

    #[test]
    fn units_cycle_through_the_variants_and_repeat() {
        let mut w = FleetChurn::setup(7, &mut Tracer::off());
        let first: Vec<UnitResult> = (0..VARIANTS).map(|_| crate::checked_unit(&mut w)).collect();
        for (v, r) in first.iter().enumerate() {
            assert_eq!(
                (r.variant, r.checks.failed),
                (v, 0),
                "{:?}",
                r.checks.reasons
            );
        }
        assert_ne!(first[0].digest, first[1].digest);
        let again = crate::checked_unit(&mut w);
        assert_eq!((again.variant, again.digest), (0, first[0].digest.clone()));
    }

    #[test]
    fn oracle_rejects_an_accepted_adversarial_wire() {
        let w = FleetChurn::setup(7, &mut Tracer::off());
        let mut out = run_fleet(&w.cfgs[0]);
        assert!(
            !out.adversarial.is_empty(),
            "the churn plan injects adversaries"
        );
        let honest = out.requests[0].verdict.clone().expect("settled");
        out.adversarial[0].verdict = honest;
        assert_eq!(w.check((0, out)).checks.failed, 1);
    }
}
