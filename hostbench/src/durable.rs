//! `durable_batch`: one crash-consistent batch of cheap sessions per
//! unit on a fresh 16-vCPU platform, on the discrete-event executor.
//! Every commit seals the whole write-ahead journal into TPM NVRAM.

use sea_core::engine::{Slaunch, JOURNAL_NV_INDEX};
use sea_core::{
    BatchOutcome, BatchPolicy, ConcurrentJob, Executor, FnPal, PalLogic, PalOutcome, RetryPolicy,
    SeaError, SecurePlatform, SessionEngine, SessionJournal, SessionResult, Verifier,
};
use sea_hw::{CpuId, FaultPlan, Platform, ResetPlan, SimDuration, TraceEvent, RATE_DENOM};
use sea_tpm::{KeyStrength, SealedBlob, Tpm};

use crate::oracle::{Checks, Digest};
use crate::trace::Tracer;
use crate::{Rng, UnitResult, Workload};

/// Virtual CPUs (and DES workers) of the platform.
const CPUS: u16 = 16;
/// Sessions per batch; the journal's seal cost grows with its square.
const JOBS: usize = 128;
/// Virtual work of one session.
const WORK: SimDuration = SimDuration::from_us(40);
/// Per-commit power-loss rate of the tape: high enough that every seed
/// spends its whole reboot budget within the first commits, so that
/// every unit exercises recovery and relaunches nearly the same number
/// of sessions whatever the seed.
const RESET_RATE: u32 = RATE_DENOM / 4;
/// Reboots one batch suffers.
const MAX_RESETS: u32 = 2;
/// Name (and so measured image) of every session's PAL.
const PAL_NAME: &str = "durable-job";

fn pal(i: usize) -> FnPal<impl FnMut(&mut sea_core::PalCtx<'_>) -> Result<PalOutcome, SeaError>> {
    FnPal::new(PAL_NAME, move |ctx| {
        ctx.work(WORK);
        Ok(PalOutcome::Exit((i as u64).to_le_bytes().to_vec()))
    })
}

/// The workload's provisioned state and seeded power-loss tape.
pub struct DurableBatch {
    tpm: Tpm,
    verifier: Verifier,
    image: Vec<u8>,
    tape: ResetPlan,
}

impl DurableBatch {
    fn platform(&self) -> SecurePlatform {
        SecurePlatform::with_tpm(Platform::recommended(CPUS), self.tpm.clone())
    }

    fn engine(platform: SecurePlatform) -> Result<SessionEngine<Slaunch>, SeaError> {
        let mut engine = SessionEngine::<Slaunch>::new(platform, CPUS as usize)?
            .with_executor(Executor::DiscreteEvent);
        engine.set_fault_plan(Some(FaultPlan::fault_free()));
        Ok(engine)
    }

    fn policy(&self) -> BatchPolicy {
        BatchPolicy::plain()
            .with_retry(RetryPolicy::default())
            .with_durability(self.tape.clone())
            .with_group_commit(1)
            .with_executor(Executor::DiscreteEvent)
    }

    fn jobs() -> Vec<ConcurrentJob> {
        (0..JOBS)
            .map(|i| ConcurrentJob::new(Box::new(pal(i)), Vec::new()))
            .collect()
    }

    /// Runs one batch on `engine`, returning it with the number of
    /// relaunches the platform's trace recorded.
    fn run(
        engine: Result<SessionEngine<Slaunch>, SeaError>,
        policy: &BatchPolicy,
    ) -> Result<(BatchOutcome, u64), SeaError> {
        let mut engine = engine?;
        let out = engine.run(Self::jobs(), policy)?;
        let relaunches = engine
            .into_inner()
            .platform()
            .machine()
            .trace()
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::SessionRelaunched { .. }))
            .count() as u64;
        Ok((out, relaunches))
    }

    /// Replays the batch's public calls on the same inputs: a launch on
    /// a spare engine for every launch the batch made (relaunches
    /// included), then the journal's commit sequence (committed keys,
    /// one recovery per reset, then the relaunched keys), each commit
    /// serialized, sealed and stored as the engine's commit gate does.
    /// Replayed sessions are torn down with `SKILL` rather than quoted:
    /// the batch signs its quotes in cohorts, which a one-at-a-time
    /// replay would overstate.
    fn replay(
        t: &mut Tracer,
        spare: &SessionEngine<Slaunch>,
        tpm: &mut Tpm,
        out: &BatchOutcome,
        launches: u64,
    ) -> Result<(), SeaError> {
        for n in 0..launches as usize {
            let i = n % JOBS;
            let mut logic = pal(i);
            let cpu = CpuId((i % CPUS as usize) as u16);
            let session = t.time("core.engine.launch", || {
                spare.launch(&mut logic, &[], cpu, n)
            })?;
            session.kill()?;
        }

        let order: Vec<u64> = if out.resets == 0 {
            (0..JOBS as u64).collect()
        } else {
            out.committed
                .iter()
                .chain(&out.relaunched)
                .copied()
                .collect()
        };
        let recover_after = if out.resets == 0 {
            usize::MAX
        } else {
            out.committed.len()
        };
        let mut wal = SessionJournal::new();
        for (n, &key) in order.iter().enumerate() {
            if n == recover_after {
                for _ in 0..out.resets {
                    let opened = t.time("tpm.unseal", || {
                        let bytes = tpm.nvram().read_blob(JOURNAL_NV_INDEX).map(<[u8]>::to_vec);
                        match bytes {
                            Some(b) => Ok(Some(tpm.unseal(&SealedBlob::from_bytes(&b)?)?.value)),
                            None => Ok::<_, SeaError>(None),
                        }
                    })?;
                    if let Some(bytes) = opened {
                        wal = t.time("core.journal.from_bytes", || {
                            SessionJournal::from_bytes(&bytes)
                        })?;
                    }
                }
            }
            let session = &out.sessions[key as usize];
            t.time("core.journal.commit", || {
                wal.record_intent(key);
                wal.record_launched(key);
                wal.commit(key, session);
            });
            let bytes = t.time("core.journal.to_bytes", || wal.to_bytes());
            t.count("tpm.seal.bytes", bytes.len() as f64);
            let sealed = t.time("tpm.seal", || tpm.seal(&bytes, &[]))?;
            t.time("tpm.nvram_store", || {
                tpm.nvram_mut()
                    .store_blob(JOURNAL_NV_INDEX, &sealed.value.to_bytes())
            });
            t.count("core.journal.commits", 1.0);
        }
        Ok(())
    }
}

/// A unit's batch with the relaunches its platform's trace recorded.
type DurableOutcome = Result<(BatchOutcome, u64), SeaError>;

impl Workload for DurableBatch {
    const THREADS: usize = 1;
    const BUSY_THREADS: usize = 1;
    type Outcome = DurableOutcome;

    fn check(&self, out: DurableOutcome) -> UnitResult {
        let mut c = Checks::default();
        let (out, _) = match out {
            Ok(done) => done,
            Err(e) => {
                c.check(false, || format!("batch failed: {e}"));
                return UnitResult::failed(c);
            }
        };
        let quoted = out.quoted() as u64;
        c.check(quoted == JOBS as u64, || {
            format!("{quoted} of {JOBS} quoted")
        });
        if out.resets > 0 {
            let (k, r) = (out.committed.len(), out.relaunched.len());
            c.check(k + r == JOBS, || {
                format!("committed {k} + relaunched {r} != {JOBS}")
            });
        }
        let mut d = Digest::default();
        d.u64(out.wall.as_ns())
            .u64(u64::from(out.resets))
            .u64(out.recovery_latency.as_ns())
            .u64(out.journal_overhead.as_ns());
        for key in out.committed.iter().chain(&out.relaunched) {
            d.u64(*key);
        }
        let mut verified = 0;
        for (i, s) in out.sessions.iter().enumerate() {
            let SessionResult::Quoted { result, quote, .. } = s else {
                c.check(false, || format!("job {i} not quoted: {s:?}"));
                continue;
            };
            d.bytes(&result.output)
                .bytes(&quote.to_bytes())
                .u64(s.cost().as_ns());
            c.check(result.output == (i as u64).to_le_bytes(), || {
                format!("job {i} output {:?}", result.output)
            });
            let ok = self
                .verifier
                .verify_sepcr_quote(quote, &(i as u64).to_le_bytes(), &self.image, &[])
                .is_ok();
            verified += u64::from(ok);
            c.check(ok, || format!("job {i}: quote does not verify"));
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
                Platform::recommended(CPUS).tpm_kind,
                KeyStrength::Demo512,
                b"hostbench/durable_batch",
            )
        });
        let tape = ResetPlan::new(Rng::new(seed).next_u64())
            .with_reset_rate(RESET_RATE)
            .with_max_resets(MAX_RESETS);
        DurableBatch {
            verifier: Verifier::new(tpm.aik_public().clone()),
            image: pal(0).image(),
            tpm,
            tape,
        }
    }

    fn unit(&mut self) -> DurableOutcome {
        Self::run(Self::engine(self.platform()), &self.policy())
    }

    fn traced_unit(&mut self, t: &mut Tracer) -> (DurableOutcome, u64) {
        // Made before the unit starts and dropped after it ends: the
        // replay's own platform and TPM.
        let mut spare = t
            .is_on()
            .then(|| (Self::engine(self.platform()), self.tpm.clone()));
        let policy = self.policy();

        let root = t.begin_unit();
        let platform = t.time("hw.platform_new", || self.platform());
        let engine = t.time("core.engine.new", || Self::engine(platform));
        let real = t.begin("core.engine.run");
        let out = Self::run(engine, &policy);
        t.end(real);
        let mut replayed = Ok(());
        if let (Some((Ok(engine), tpm)), Ok((batch, relaunches))) = (spare.as_mut(), &out) {
            t.begin_replay(real);
            replayed = Self::replay(t, engine, tpm, batch, JOBS as u64 + relaunches);
            t.end_replay();
        }
        let host_ns = t.end_unit(root);
        drop(spare);

        t.count("hw.platform_new.count", 1.0);
        if let Ok((batch, relaunches)) = &out {
            t.count("core.journal.resets", f64::from(batch.resets));
            t.count("core.journal.relaunched", *relaunches as f64);
            t.count("core.engine.launched", (JOBS as u64 + relaunches) as f64);
            t.count("core.engine.quoted", batch.quoted() as f64);
        }
        if let Err(e) = replayed {
            eprintln!("hostbench: durable_batch replay failed: {e}");
        }
        (out, host_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_units_reproduce_the_untraced_digest() {
        let mut w = DurableBatch::setup(7, &mut Tracer::off());
        let plain = crate::checked_unit(&mut w);
        assert_eq!(plain.checks.failed, 0, "{:?}", plain.checks.reasons);
        let mut t = Tracer::on();
        let (traced, host_ns) = w.traced_unit(&mut t);
        assert_eq!(w.check(traced).digest, plain.digest);
        let p = t.profile(t.units());
        assert_eq!(p.self_ns.values().sum::<i64>(), p.host_ns as i64);
        assert!(host_ns > 0 && p.count("core.journal.commits") == JOBS as f64);
    }
}
