//! `pal_sessions`: the four paper PALs as bytecode, one thread-pool
//! batch per unit on a fresh two-CPU platform.

use std::sync::{Arc, Mutex};

use sea_core::engine::{Slaunch, Stepped};
use sea_core::{
    BatchOutcome, BatchPolicy, ConcurrentJob, Executor, JobResult, PalCtx, PalLogic, PalOutcome,
    SeaError, SecurePlatform, SessionEngine, SessionResult, Verifier, VmPal, VmStats,
};
use sea_crypto::{Sha1, Sha1Digest};
use sea_hw::{CpuId, Platform, SimDuration};
use sea_pals::vm::{
    ca_image, factoring_image, rootkit_image, ssh_image, vm_ca, vm_factoring, vm_rootkit, vm_ssh,
};
use sea_pals::{decode_factors, decode_public_key, verify_ca_signature, CaRequest, PersistMode};
use sea_pals::{RootkitVerdict, SshRequest};
use sea_tpm::{KeyStrength, Tpm};

use crate::oracle::{Checks, Digest};
use crate::trace::Tracer;
use crate::{Rng, UnitResult, Workload};

/// Worker threads of the pool (the host has two cores).
const WORKERS: usize = 2;
/// Trial-division candidates per execution quantum: each factoring
/// session yields and resumes a few times.
const QUANTUM: u64 = 8_192;
/// Factoring jobs per unit; most of the unit's host time.
const FACTORING_JOBS: usize = 12;
/// Factoring jobs worker 0 takes besides the CA and SSH sessions.
const FACTORING_ON_WORKER_0: usize = 3;
/// Rootkit scans per worker (the shorter queue gets more, so that the
/// two queues interleave into one batch).
const ROOTKIT_SCANS: usize = 2;
/// Smallest prime factors are drawn from this range, so every seed's
/// trial-division loops have nearly the same length.
const SMALL_FACTOR: std::ops::Range<u64> = 100_000..101_000;
/// Cofactors are drawn from this range, above every small factor.
const LARGE_FACTOR: std::ops::Range<u64> = 200_000..210_000;
/// Kernel images the rootkit scans choose from.
const KERNELS: usize = 4;
/// Kernel images the rootkit PAL whitelists (the first ones).
const WHITELISTED: usize = 3;
/// Size of one kernel text snapshot.
const KERNEL_BYTES: usize = 4096;

/// Which PAL program a job runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Ssh,
    Ca,
    Factoring(u64),
    Rootkit,
}

impl Kind {
    /// Trace counts of the host ns and the instructions this PAL's
    /// sessions spent in the VM.
    fn vm_counts(self) -> (&'static str, &'static str) {
        match self {
            Kind::Ssh => ("vm.ns.ssh", "vm.retired.ssh"),
            Kind::Ca => ("vm.ns.ca", "vm.retired.ca"),
            Kind::Factoring(_) => ("vm.ns.factoring", "vm.retired.factoring"),
            Kind::Rootkit => ("vm.ns.rootkit", "vm.retired.rootkit"),
        }
    }
}

/// What the oracle expects of a job's output.
#[derive(Debug, Clone)]
enum Expect {
    /// A one-byte verdict.
    Byte(u8),
    /// An encoded CA public key.
    CaPublic,
    /// A signature over `csr` under the key job `gen` output.
    CaSignature { gen: usize, csr: Vec<u8> },
    /// The two prime factors of `n`.
    Factors(u64),
}

/// One session of the unit's batch.
struct Job {
    /// Index into the unit's PAL objects; sessions that share state
    /// (enroll then verify, generate then sign) share one.
    pal: usize,
    input: Vec<u8>,
    expect: Expect,
    /// The measured image and extra measurements the quote must show.
    image: Arc<Vec<u8>>,
    extends: Vec<Sha1Digest>,
}

/// The workload's inputs and provisioned state.
pub struct PalSessions {
    tpm: Tpm,
    verifier: Verifier,
    pals: Vec<Kind>,
    jobs: Vec<Job>,
    kernels: Vec<Vec<u8>>,
}

/// A PAL shared between the sessions of one unit, so that a later
/// session sees the sealed state an earlier one left and the benchmark
/// can read the VM counters after the batch.
struct SharedPal {
    name: String,
    pal: Arc<Mutex<VmPal>>,
}

impl PalLogic for SharedPal {
    fn name(&self) -> &str {
        &self.name
    }

    fn image(&self) -> Vec<u8> {
        self.pal.lock().expect("PAL lock").image()
    }

    fn run(&mut self, ctx: &mut PalCtx<'_>) -> Result<PalOutcome, SeaError> {
        self.pal.lock().expect("PAL lock").run(ctx)
    }
}

fn is_prime(n: u64) -> bool {
    n >= 2
        && (2..)
            .take_while(|d| d * d <= n)
            .all(|d| !n.is_multiple_of(d))
}

fn prime_in(rng: &mut Rng, range: std::ops::Range<u64>) -> u64 {
    loop {
        let c = range.start + rng.below(range.end - range.start);
        if is_prime(c) {
            return c;
        }
    }
}

impl PalSessions {
    fn build(&self, kind: Kind) -> VmPal {
        match kind {
            Kind::Ssh => vm_ssh(),
            Kind::Ca => vm_ca(),
            Kind::Factoring(n) => vm_factoring(n, QUANTUM, PersistMode::InRegion),
            Kind::Rootkit => {
                let whitelist: Vec<&[u8]> = self.kernels[..WHITELISTED]
                    .iter()
                    .map(Vec::as_slice)
                    .collect();
                vm_rootkit(&whitelist)
            }
        }
    }

    fn platform(&self) -> SecurePlatform {
        SecurePlatform::with_tpm(Platform::recommended(WORKERS as u16), self.tpm.clone())
    }

    /// Runs one unit's batch on the thread pool and returns it with the
    /// PALs' VM counters.
    fn batch(&self) -> Result<(BatchOutcome, Vec<VmStats>), SeaError> {
        let pals: Vec<Arc<Mutex<VmPal>>> = self
            .pals
            .iter()
            .map(|&k| Arc::new(Mutex::new(self.build(k))))
            .collect();
        let mut engine = SessionEngine::<Slaunch>::new(self.platform(), WORKERS)?
            .with_executor(Executor::ThreadPool);
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                let pal = Arc::clone(&pals[j.pal]);
                let name = pal.lock().expect("PAL lock").name().to_string();
                ConcurrentJob::new(Box::new(SharedPal { name, pal }), j.input.clone())
            })
            .collect();
        let out = engine.run(
            jobs,
            &BatchPolicy::plain().with_executor(Executor::ThreadPool),
        )?;
        let stats = pals
            .iter()
            .map(|p| p.lock().expect("PAL lock").stats())
            .collect();
        Ok((out, stats))
    }
}

/// A unit's batch with the PALs' VM counters.
type PalOutcomes = Result<(BatchOutcome, Vec<VmStats>), SeaError>;

impl Workload for PalSessions {
    const THREADS: usize = WORKERS;
    // The pool's two workers overlap little (parallel efficiency ~0.5).
    const BUSY_THREADS: usize = 1;
    type Outcome = PalOutcomes;

    /// Checks every session and digests the unit's simulated results.
    fn check(&self, out: PalOutcomes) -> UnitResult {
        let mut c = Checks::default();
        let (out, stats) = match out {
            Ok(done) => done,
            Err(e) => {
                c.check(false, || format!("batch failed: {e}"));
                return UnitResult::failed(c);
            }
        };
        let mut d = Digest::default();
        d.u64(out.wall.as_ns());
        let (mut quoted, mut verified) = (0, 0);
        c.check(out.sessions.len() == self.jobs.len(), || {
            format!("{} of {} sessions", out.sessions.len(), self.jobs.len())
        });
        for (i, (job, session)) in self.jobs.iter().zip(&out.sessions).enumerate() {
            let SessionResult::Quoted { result, quote, .. } = session else {
                c.check(false, || format!("job {i} not quoted: {session:?}"));
                continue;
            };
            quoted += 1;
            d.bytes(&result.output)
                .bytes(&quote.to_bytes())
                .u64(session.cost().as_ns());
            let nonce = (i as u64).to_le_bytes();
            let attested = self
                .verifier
                .verify_sepcr_quote(quote, &nonce, &job.image, &job.extends)
                .is_ok();
            verified += u64::from(attested);
            c.check(attested, || format!("job {i}: quote does not verify"));
            let out_ok = match &job.expect {
                Expect::Byte(b) => result.output == [*b],
                Expect::CaPublic => decode_public_key(&result.output).is_some(),
                Expect::CaSignature { gen, csr } => match &out.sessions[*gen] {
                    SessionResult::Quoted { result: g, .. } => decode_public_key(&g.output)
                        .is_some_and(|key| verify_ca_signature(&key, csr, &result.output)),
                    _ => false,
                },
                Expect::Factors(n) => decode_factors(&result.output)
                    .is_some_and(|(p, q)| p > 1 && q > 1 && p.checked_mul(q) == Some(*n)),
            };
            c.check(out_ok, || {
                format!("job {i}: wrong output {:?}", result.output)
            });
        }
        for s in &stats {
            for v in [
                s.retired,
                s.blocks_executed,
                s.blocks_decoded,
                s.chain_hits,
                s.cache_lookups,
                s.dispatch_gas,
                s.total_gas,
            ] {
                d.u64(v);
            }
        }
        UnitResult {
            variant: 0,
            virtual_ns: out.wall.as_ns(),
            quoted,
            verified,
            digest: d.hex(),
            checks: c,
        }
    }

    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let tpm = t.time("crypto.keygen", || {
            Tpm::new(
                Platform::recommended(WORKERS as u16).tpm_kind,
                KeyStrength::Demo512,
                b"hostbench/pal_sessions",
            )
        });
        let verifier = Verifier::new(tpm.aik_public().clone());
        let mut rng = Rng::new(seed);
        let kernels: Vec<Vec<u8>> = (0..KERNELS).map(|_| rng.bytes(KERNEL_BYTES)).collect();
        let passwords: Vec<Vec<u8>> = (0..WORKERS).map(|_| rng.bytes(12)).collect();
        let csr = rng.bytes(64);

        let mut pals = Vec::new();
        let mut queues: Vec<Vec<Job>> = (0..WORKERS).map(|_| Vec::new()).collect();
        let ssh = Arc::new(ssh_image());
        let ca = Arc::new(ca_image());
        let whitelist: Vec<&[u8]> = kernels[..WHITELISTED].iter().map(Vec::as_slice).collect();
        let rootkit = Arc::new(rootkit_image(&whitelist));
        let add = |pals: &mut Vec<Kind>, kind: Kind| {
            pals.push(kind);
            pals.len() - 1
        };
        let job = |pal, input, expect, image: &Arc<Vec<u8>>| Job {
            pal,
            input,
            expect,
            image: Arc::clone(image),
            extends: Vec::new(),
        };

        // Every PAL that draws on the TPM's shared random stream (CA key
        // generation, SSH salts and seals) runs on worker 0, in index
        // order, so that the draws and hence the outputs repeat exactly.
        let ca_pal = add(&mut pals, Kind::Ca);
        let gen_at = queues[0].len() * WORKERS;
        queues[0].push(job(
            ca_pal,
            CaRequest::Generate.to_bytes(),
            Expect::CaPublic,
            &ca,
        ));
        queues[0].push(job(
            ca_pal,
            CaRequest::Sign(csr.clone()).to_bytes(),
            Expect::CaSignature {
                gen: gen_at,
                csr: csr.clone(),
            },
            &ca,
        ));
        // Enroll each password, accept it, reject a near miss.
        for pw in &passwords {
            let pal = add(&mut pals, Kind::Ssh);
            let mut wrong = pw.clone();
            wrong[0] ^= 0x01;
            queues[0].push(job(
                pal,
                SshRequest::Enroll(pw.clone()).to_bytes(),
                Expect::Byte(1),
                &ssh,
            ));
            queues[0].push(job(
                pal,
                SshRequest::Verify(pw.clone()).to_bytes(),
                Expect::Byte(1),
                &ssh,
            ));
            queues[0].push(job(
                pal,
                SshRequest::Verify(wrong).to_bytes(),
                Expect::Byte(0),
                &ssh,
            ));
        }
        // Factoring, the bulk of the unit, mostly on worker 1.
        for f in 0..FACTORING_JOBS {
            let p = prime_in(&mut rng, SMALL_FACTOR);
            let q = prime_in(&mut rng, LARGE_FACTOR);
            let n = p * q;
            let pal = add(&mut pals, Kind::Factoring(n));
            let image = Arc::new(factoring_image(n, QUANTUM, PersistMode::InRegion));
            let w = usize::from(f >= FACTORING_ON_WORKER_0);
            queues[w].push(job(pal, Vec::new(), Expect::Factors(n), &image));
        }
        // Rootkit scans even the queues out: whitelisted kernels, one
        // outside the whitelist, and a whitelisted kernel with one byte
        // patched.
        let mut patched = kernels[0].clone();
        let at = rng.below(KERNEL_BYTES as u64) as usize;
        patched[at] ^= 0x80;
        let scans = [
            (kernels[1].clone(), RootkitVerdict::Clean),
            (kernels[KERNELS - 1].clone(), RootkitVerdict::Tampered),
            (kernels[2].clone(), RootkitVerdict::Clean),
            (patched, RootkitVerdict::Tampered),
        ];
        let mut scans = scans.iter().cycle();
        let mut scan = |pals: &mut Vec<Kind>| {
            let (snapshot, verdict) = scans.next().expect("cycle");
            let pal = add(pals, Kind::Rootkit);
            Job {
                extends: vec![Sha1::digest(snapshot)],
                ..job(
                    pal,
                    snapshot.clone(),
                    Expect::Byte(verdict.to_byte()),
                    &rootkit,
                )
            }
        };
        for queue in &mut queues {
            for _ in 0..ROOTKIT_SCANS {
                queue.push(scan(&mut pals));
            }
        }
        let len = queues.iter().map(Vec::len).max().unwrap_or(0);
        for queue in &mut queues {
            while queue.len() < len {
                queue.push(scan(&mut pals));
            }
        }
        let mut queues: Vec<_> = queues.into_iter().map(Vec::into_iter).collect();
        let jobs: Vec<Job> = (0..len * WORKERS)
            .map(|i| queues[i % WORKERS].next().expect("equal queues"))
            .collect();

        let me = PalSessions {
            tpm,
            verifier,
            pals,
            jobs,
            kernels,
        };
        // Warm the program builders (and the allocator) before timing.
        for &kind in &me.pals {
            std::hint::black_box(me.build(kind));
        }
        me
    }

    fn unit(&mut self) -> PalOutcomes {
        self.batch()
    }

    fn traced_unit(&mut self, t: &mut Tracer) -> (PalOutcomes, u64) {
        let root = t.begin_unit();
        let mut pals: Vec<VmPal> = self
            .pals
            .iter()
            .map(|&k| t.time("pals.build", || self.build(k)))
            .collect();
        let platform = t.time("hw.platform_new", || self.platform());
        let engine = t.time("core.engine.new", || {
            SessionEngine::<Slaunch>::new(platform, WORKERS)
                .map(|e| e.with_executor(Executor::ThreadPool))
        });
        let mut sessions = Vec::with_capacity(self.jobs.len());
        let mut busy = [SimDuration::ZERO; WORKERS];
        let run = engine.and_then(|engine| {
            for (i, job) in self.jobs.iter().enumerate() {
                let pal = &mut pals[job.pal];
                let before = pal.stats().retired;
                let cpu = CpuId((i % WORKERS) as u16);
                let open = t.begin("core.engine.launch");
                let launched = engine.launch(pal, &job.input, cpu, i);
                t.end(open);
                let mut session = launched?;
                let mut vm_ns = 0;
                let sealed = loop {
                    let open = t.begin("core.vm.run");
                    let stepped = session.step();
                    vm_ns += t.end(open);
                    match stepped? {
                        Stepped::Exited(s) => break s,
                        Stepped::Yielded(y) => {
                            let open = t.begin("core.vm.run");
                            let resumed = y.resume();
                            vm_ns += t.end(open);
                            session = resumed?;
                        }
                    }
                };
                let nonce = (i as u64).to_le_bytes();
                let (result, quote): (JobResult, _) =
                    t.time("tpm.quote", || sealed.quote_and_free(&nonce))?;
                let session = SessionResult::Quoted {
                    result,
                    quote,
                    retries: 0,
                    recovery_cost: SimDuration::ZERO,
                };
                busy[i % WORKERS] += session.cost();
                sessions.push(session);
                let (ns_key, insn_key) = self.pals[job.pal].vm_counts();
                t.count(ns_key, vm_ns as f64);
                t.count(insn_key, (pal.stats().retired - before) as f64);
            }
            Ok(())
        });
        let host_ns = t.end_unit(root);

        let stats: Vec<VmStats> = pals.iter().map(VmPal::stats).collect();
        record_vm_counts(t, &stats);
        t.count("hw.platform_new.count", 1.0);
        t.count("core.engine.launched", self.jobs.len() as f64);
        t.count("core.engine.quoted", sessions.len() as f64);
        let out = run.map(|()| {
            let wall = busy.iter().copied().max().unwrap_or(SimDuration::ZERO);
            (
                BatchOutcome {
                    sessions,
                    cpu_busy: busy.to_vec(),
                    wall,
                    resets: 0,
                    committed: Vec::new(),
                    relaunched: Vec::new(),
                    recovery_latency: SimDuration::ZERO,
                    journal_overhead: SimDuration::ZERO,
                },
                stats,
            )
        });
        (out, host_ns)
    }
}

/// Records the unit's summed VM counters.
fn record_vm_counts(t: &mut Tracer, stats: &[VmStats]) {
    let sum = |f: fn(&VmStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    t.count("core.vm.retired", sum(|s| s.retired));
    t.count("core.vm.blocks_executed", sum(|s| s.blocks_executed));
    t.count("core.vm.blocks_decoded", sum(|s| s.blocks_decoded));
    t.count("core.vm.chain_hits", sum(|s| s.chain_hits));
    t.count("core.vm.cache_lookups", sum(|s| s.cache_lookups));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_tpm::Quote;

    fn quoted(out: &mut BatchOutcome, i: usize) -> (&mut JobResult, &mut Quote) {
        match &mut out.sessions[i] {
            SessionResult::Quoted { result, quote, .. } => (result, quote),
            other => panic!("job {i} not quoted: {other:?}"),
        }
    }

    #[test]
    fn oracle_rejects_a_tampered_output_and_a_flipped_quote_bit() {
        let w = PalSessions::setup(7, &mut Tracer::off());
        let (out, stats) = w.batch().expect("batch runs");
        let clean = w.check(Ok((out.clone(), stats.clone())));
        assert_eq!(clean.checks.failed, 0, "{:?}", clean.checks.reasons);

        for i in 0..out.sessions.len() {
            let mut bad = out.clone();
            quoted(&mut bad, i).0.output[0] ^= 0x01;
            let r = w.check(Ok((bad, stats.clone())));
            assert!(r.checks.failed > 0, "tampered output of job {i} passed");
        }

        let mut bad = out.clone();
        let quote = quoted(&mut bad, 0).1;
        let mut wire = quote.to_bytes();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        *quote = Quote::from_bytes(&wire).expect("a flipped signature bit still parses");
        let r = w.check(Ok((bad, stats)));
        assert_eq!(r.checks.failed, 1, "{:?}", r.checks.reasons);
        assert_eq!(r.verified, clean.verified - 1);
    }

    #[test]
    fn units_of_one_seed_digest_alike_on_every_path() {
        let mut a = PalSessions::setup(7, &mut Tracer::off());
        let mut b = PalSessions::setup(7, &mut Tracer::off());
        let first = crate::checked_unit(&mut a);
        assert_eq!(first.checks.failed, 0, "{:?}", first.checks.reasons);
        assert_eq!(crate::checked_unit(&mut b).digest, first.digest);
        assert_eq!(crate::checked_unit(&mut a).digest, first.digest);
        let (traced, _) = a.traced_unit(&mut Tracer::on());
        assert_eq!(a.check(traced).digest, first.digest);
        let mut other = PalSessions::setup(8, &mut Tracer::off());
        assert_ne!(crate::checked_unit(&mut other).digest, first.digest);
    }
}
