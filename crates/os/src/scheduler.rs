//! Multiprogramming PALs with legacy work — the concurrency experiment.
//!
//! §4.2: on baseline hardware "the late launch operation requires all
//! but one of the processors to be in a special idle state. As a result,
//! most of the computer's processing power and responsiveness vanish for
//! over a second during PAL execution."
//!
//! §5 (Figure 4): the proposed hardware runs "an arbitrary number of
//! mutually-untrusting PALs alongside an untrusted legacy OS", each on
//! one core, context-switched at VM-entry cost.
//!
//! [`Scheduler`] implements the proposed-hardware schedule (least-loaded
//! CPU assignment over an [`EnhancedSea`]); [`LegacyBatch`] implements
//! the baseline whole-platform-stall schedule. Both report the same
//! [`ScheduleOutcome`] so the `concurrency` bench can compare legacy
//! CPU time available under each.

use sea_core::{EnhancedSea, LegacySea, PalId, PalLogic, PalStep, SessionReport};
use sea_hw::{CpuId, SimDuration, SimTime};

use crate::error::OsError;

/// What a scheduling run produced and consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleOutcome {
    /// Wall-clock (virtual) length of the schedule.
    pub wall: SimDuration,
    /// CPU time consumed executing PALs (including their overheads).
    pub pal_busy: SimDuration,
    /// CPU time burned in the baseline's forced-idle state (zero on the
    /// proposed hardware).
    pub stalled: SimDuration,
    /// CPU time left over for legacy OS + applications within `horizon`.
    pub legacy_available: SimDuration,
    /// Outputs of the completed PALs, in job order.
    pub outputs: Vec<Vec<u8>>,
    /// Per-job cost reports, in job order.
    pub reports: Vec<SessionReport>,
}

impl ScheduleOutcome {
    /// Fraction of total CPU time (cores × horizon) left for legacy
    /// work, in `[0, 1]`.
    pub fn legacy_utilization(&self, n_cpus: u16, horizon: SimDuration) -> f64 {
        let total = horizon.as_ns().saturating_mul(n_cpus as u64);
        if total == 0 {
            return 0.0;
        }
        self.legacy_available.as_ns() as f64 / total as f64
    }
}

struct Job {
    logic: Box<dyn PalLogic>,
    input: Vec<u8>,
    id: Option<PalId>,
    needs_resume: bool,
    output: Option<Vec<u8>>,
}

/// Least-loaded-CPU scheduler over the proposed hardware.
///
/// Jobs are stepped round-robin; every SEA operation's virtual-time cost
/// is attributed to the CPU it ran on, and independent PALs on different
/// CPUs overlap — so the schedule's wall time is the *longest per-CPU
/// timeline*, not the sum. Any SEA failure aborts the run.
pub struct Scheduler {
    sea: EnhancedSea,
    jobs: Vec<Job>,
    preemption_timer: Option<SimDuration>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

impl Scheduler {
    /// Wraps an [`EnhancedSea`] runtime.
    pub fn new(sea: EnhancedSea) -> Self {
        Scheduler {
            sea,
            jobs: Vec::new(),
            preemption_timer: None,
        }
    }

    /// Sets the preemption timer the OS installs for every PAL.
    pub fn set_preemption_timer(&mut self, timer: Option<SimDuration>) {
        self.preemption_timer = timer;
    }

    /// Queues a PAL job.
    pub fn add_job(&mut self, logic: Box<dyn PalLogic>, input: &[u8]) {
        self.jobs.push(Job {
            logic,
            input: input.to_vec(),
            id: None,
            needs_resume: false,
            output: None,
        });
    }

    /// The wrapped runtime (e.g. for post-run attestation).
    pub fn sea(&self) -> &EnhancedSea {
        &self.sea
    }

    /// Mutable access to the wrapped runtime.
    pub fn sea_mut(&mut self) -> &mut EnhancedSea {
        &mut self.sea
    }

    /// Runs every queued job to completion, then accounts legacy CPU
    /// time within `horizon` (which must be at least the schedule's
    /// wall time).
    ///
    /// # Errors
    ///
    /// [`OsError::NothingToRun`] with an empty queue; SEA failures
    /// propagate as [`OsError::Sea`].
    pub fn run_all(&mut self, horizon: SimDuration) -> Result<ScheduleOutcome, OsError> {
        if self.jobs.is_empty() {
            return Err(OsError::NothingToRun);
        }
        let n_cpus = self.sea.platform().machine().platform().n_cpus;
        let mut busy = vec![SimDuration::ZERO; n_cpus as usize];

        let mut remaining = self.jobs.len();
        while remaining > 0 {
            for job in self.jobs.iter_mut() {
                if job.output.is_some() {
                    continue;
                }
                // Pick the least-loaded CPU.
                let cpu = CpuId(
                    busy.iter()
                        .enumerate()
                        .min_by_key(|(_, b)| **b)
                        .map(|(i, _)| i as u16)
                        .ok_or(OsError::SchedulerInternal("scheduler has no CPUs"))?,
                );
                let before = self.sea.platform().machine().now();
                let id = match job.id {
                    None => {
                        let id = self.sea.slaunch(
                            job.logic.as_mut(),
                            &job.input,
                            cpu,
                            self.preemption_timer,
                        )?;
                        job.id = Some(id);
                        id
                    }
                    Some(id) => {
                        if job.needs_resume {
                            self.sea.resume(id, cpu)?;
                            job.needs_resume = false;
                        }
                        id
                    }
                };
                let step = self.sea.step(job.logic.as_mut(), id)?;
                let elapsed = self.sea.platform().machine().now().duration_since(before);
                busy[cpu.0 as usize] += elapsed;
                match step {
                    PalStep::Exited { output } => {
                        job.output = Some(output);
                        remaining -= 1;
                        // The OS recycles the sePCR immediately; callers
                        // wanting an attestation should quote through
                        // `sea_mut()` before the job is re-run.
                        self.sea.release_sepcr(id)?;
                    }
                    PalStep::Yielded => {
                        job.needs_resume = true;
                    }
                }
            }
        }

        let wall = busy.iter().copied().max().unwrap_or(SimDuration::ZERO);
        let pal_busy: SimDuration = busy.iter().copied().sum();
        let horizon = horizon.max(wall);
        let legacy_available =
            SimDuration::from_ns(horizon.as_ns() * n_cpus as u64 - pal_busy.as_ns());

        let mut outputs = Vec::with_capacity(self.jobs.len());
        let mut reports = Vec::with_capacity(self.jobs.len());
        for job in &self.jobs {
            outputs.push(
                job.output
                    .clone()
                    .ok_or(OsError::SchedulerInternal("job finished without an output"))?,
            );
            let id = job
                .id
                .ok_or(OsError::SchedulerInternal("job finished without a launch"))?;
            reports.push(self.sea.report(id)?);
        }
        Ok(ScheduleOutcome {
            wall,
            pal_busy,
            stalled: SimDuration::ZERO,
            legacy_available,
            outputs,
            reports,
        })
    }
}

/// The baseline schedule: PAL sessions run one at a time, and each one
/// stalls every other core for its whole duration (§4.2).
pub struct LegacyBatch {
    sea: LegacySea,
    jobs: Vec<(Box<dyn PalLogic>, Vec<u8>)>,
}

impl std::fmt::Debug for LegacyBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LegacyBatch")
            .field("jobs", &self.jobs.len())
            .finish_non_exhaustive()
    }
}

impl LegacyBatch {
    /// Wraps a [`LegacySea`] runtime.
    pub fn new(sea: LegacySea) -> Self {
        LegacyBatch {
            sea,
            jobs: Vec::new(),
        }
    }

    /// Queues a PAL job.
    pub fn add_job(&mut self, logic: Box<dyn PalLogic>, input: &[u8]) {
        self.jobs.push((logic, input.to_vec()));
    }

    /// The wrapped runtime.
    pub fn sea(&self) -> &LegacySea {
        &self.sea
    }

    /// Runs every queued session back-to-back and accounts the cost to
    /// the whole platform within `horizon`.
    ///
    /// # Errors
    ///
    /// [`OsError::NothingToRun`] with an empty queue; SEA failures
    /// propagate.
    pub fn run_all(&mut self, horizon: SimDuration) -> Result<ScheduleOutcome, OsError> {
        if self.jobs.is_empty() {
            return Err(OsError::NothingToRun);
        }
        let n_cpus = self.sea.platform().machine().platform().n_cpus as u64;
        let start: SimTime = self.sea.platform().machine().now();
        let mut outputs = Vec::new();
        let mut reports = Vec::new();
        for (logic, input) in &mut self.jobs {
            let result = self.sea.run_session(logic.as_mut(), input)?;
            outputs.push(result.output.unwrap_or_default());
            reports.push(result.report);
        }
        let wall = self.sea.platform().machine().now().duration_since(start);
        let horizon = horizon.max(wall);
        // During sessions, one core runs the PAL and the others idle.
        let pal_busy = wall;
        let stalled = SimDuration::from_ns(wall.as_ns() * (n_cpus - 1));
        let legacy_available =
            SimDuration::from_ns(horizon.as_ns() * n_cpus - pal_busy.as_ns() - stalled.as_ns());
        Ok(ScheduleOutcome {
            wall,
            pal_busy,
            stalled,
            legacy_available,
            outputs,
            reports,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_core::{
        BatchPolicy, ConcurrentJob, FnPal, PalOutcome, SecurePlatform, SessionEngine,
        SessionResult, Slaunch,
    };
    use sea_hw::Platform;
    use sea_tpm::KeyStrength;

    fn make_pal(n: usize, work_ms: u64) -> Box<dyn PalLogic + Send> {
        Box::new(
            FnPal::new(&format!("job-{n}"), move |ctx| {
                ctx.work(SimDuration::from_ms(work_ms));
                Ok(PalOutcome::Exit(vec![n as u8]))
            })
            .with_image_size(4096),
        )
    }

    fn enhanced(n_cpus: u16) -> EnhancedSea {
        EnhancedSea::new(SecurePlatform::new(
            Platform::recommended(n_cpus),
            KeyStrength::Demo512,
            b"sched",
        ))
        .unwrap()
    }

    #[test]
    fn empty_queue_is_an_error() {
        let mut s = Scheduler::new(enhanced(2));
        assert_eq!(
            s.run_all(SimDuration::from_secs(1)),
            Err(OsError::NothingToRun)
        );
    }

    #[test]
    fn jobs_spread_across_cpus() {
        let mut s = Scheduler::new(enhanced(4));
        for i in 0..4 {
            s.add_job(make_pal(i, 100), b"");
        }
        let out = s.run_all(SimDuration::from_secs(1)).unwrap();
        assert_eq!(out.outputs, vec![vec![0], vec![1], vec![2], vec![3]]);
        // Four ~100 ms jobs on four CPUs: wall ≈ one job, not four.
        assert!(out.wall < SimDuration::from_ms(150), "wall {}", out.wall);
        assert!(out.pal_busy > SimDuration::from_ms(380));
        assert_eq!(out.stalled, SimDuration::ZERO);
    }

    #[test]
    fn legacy_available_accounts_horizon() {
        let mut s = Scheduler::new(enhanced(2));
        s.add_job(make_pal(0, 100), b"");
        let horizon = SimDuration::from_secs(1);
        let out = s.run_all(horizon).unwrap();
        // 2 CPUs × 1 s − ~100 ms of PAL time.
        let legacy_ms = out.legacy_available.as_ms_f64();
        assert!((legacy_ms - 1895.0).abs() < 20.0, "got {legacy_ms}");
        let util = out.legacy_utilization(2, horizon);
        assert!(util > 0.93 && util < 0.96, "util {util}");
    }

    #[test]
    fn yielding_jobs_complete_over_multiple_rounds() {
        let mut s = Scheduler::new(enhanced(2));
        for i in 0..3 {
            let mut steps_left = 3u8;
            s.add_job(
                Box::new(FnPal::new(&format!("multi-{i}"), move |ctx| {
                    ctx.work(SimDuration::from_ms(1));
                    steps_left -= 1;
                    if steps_left == 0 {
                        Ok(PalOutcome::Exit(vec![i]))
                    } else {
                        Ok(PalOutcome::Yield)
                    }
                })),
                b"",
            );
        }
        let out = s.run_all(SimDuration::from_ms(100)).unwrap();
        assert_eq!(out.outputs, vec![vec![0], vec![1], vec![2]]);
        // Each job: 2 yields + 2 resumes worth of switches in its report.
        for r in &out.reports {
            assert!(r.context_switch > SimDuration::ZERO);
            assert_eq!(r.pal_work, SimDuration::from_ms(3));
        }
    }

    #[test]
    fn legacy_batch_stalls_other_cores() {
        let platform = SecurePlatform::new(Platform::hp_dc5750(), KeyStrength::Demo512, b"batch");
        let mut batch = LegacyBatch::new(LegacySea::new(platform).unwrap());
        for i in 0..2 {
            batch.add_job(make_pal(i, 10), b"");
        }
        let horizon = SimDuration::from_secs(2);
        let out = batch.run_all(horizon).unwrap();
        assert_eq!(out.outputs.len(), 2);
        // Each session ≈ SKINIT(4 KB ≈ 11 ms) + 10 ms work ≈ 21 ms.
        assert!(out.wall > SimDuration::from_ms(40));
        // The second core lost exactly the wall duration.
        assert_eq!(out.stalled, out.wall);
        assert!(out.legacy_available < SimDuration::from_ns(horizon.as_ns() * 2));
    }

    #[test]
    fn scheduler_outputs_equal_session_engine_batch() {
        // The cooperative scheduler and the session engine agree
        // byte-for-byte on what the PALs produced and what each
        // session cost.
        let mut coop = Scheduler::new(enhanced(4));
        let mut jobs = Vec::new();
        for i in 0..6 {
            coop.add_job(make_pal(i, 20), b"");
            jobs.push(ConcurrentJob::new(make_pal(i, 20), Vec::new()));
        }
        let c = coop.run_all(SimDuration::from_secs(1)).unwrap();
        let platform =
            SecurePlatform::new(Platform::recommended(4), KeyStrength::Demo512, b"sched");
        let mut engine = SessionEngine::<Slaunch>::new(platform, 4).unwrap();
        let e = engine.run(jobs, &BatchPolicy::plain()).unwrap();
        assert_eq!(e.sessions.len(), c.outputs.len());
        for ((output, report), session) in c.outputs.iter().zip(&c.reports).zip(&e.sessions) {
            let SessionResult::Quoted { result, .. } = session else {
                panic!("plain batch session not quoted: {session:?}");
            };
            assert_eq!(output, &result.output);
            assert_eq!(report.pal_work, result.report.pal_work);
            assert_eq!(report.late_launch, result.report.late_launch);
        }
    }

    #[test]
    fn enhanced_beats_baseline_on_legacy_throughput() {
        // The §4.4/§5.7 punchline as a test: same PAL workload, same
        // horizon — the proposed hardware leaves more CPU for legacy.
        let horizon = SimDuration::from_secs(2);

        let mut sched = Scheduler::new(enhanced(2));
        for i in 0..4 {
            sched.add_job(make_pal(i, 10), b"");
        }
        let e = sched.run_all(horizon).unwrap();

        let platform = SecurePlatform::new(Platform::hp_dc5750(), KeyStrength::Demo512, b"cmp");
        let mut batch = LegacyBatch::new(LegacySea::new(platform).unwrap());
        for i in 0..4 {
            batch.add_job(make_pal(i, 10), b"");
        }
        let b = batch.run_all(horizon).unwrap();

        assert!(
            e.legacy_available > b.legacy_available,
            "enhanced {} vs baseline {}",
            e.legacy_available,
            b.legacy_available
        );
    }
}
