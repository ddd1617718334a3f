//! The per-session drive state machine shared by both executors.
//!
//! The retired `drive_plain`/`drive_recovered` functions walked a job
//! through its lifecycle with nested loops, which only a dedicated OS
//! thread could execute: the control state between two architecture
//! operations lived on that thread's stack. [`SessionDriver`] reifies
//! that control state as an explicit machine over the same typestate
//! lifecycle (`Launched → Stepping → Sealed`, Figure 6), advanced **one
//! architecture operation per call** — which is exactly the granularity
//! a discrete-event executor needs to interleave many sessions on one
//! OS thread, and which the thread-pool executor simply drives in a
//! tight loop.
//!
//! The operation order is the contract: launch (retrying in place, or
//! degrading on saturation) → step/resume to exit (a faulted resume
//! retries the resume, a faulted step retries the step) → report →
//! quote (retrying in place), with exhaustion killing the session in
//! the same advance as the failed operation. The golden differential
//! suite pins this order byte-for-byte against the pre-refactor
//! recordings.

use sea_hw::{CpuId, Layer, Obs, SimDuration, TraceEvent, TRANSPORT_FAULT_COST};
use sea_tpm::TpmError;

use crate::engine::{Architecture, ConcurrentJob, JobResult, SessionResult};
use crate::enhanced::PalStep;
use crate::error::SeaError;
use crate::journal::SessionJournal;
use crate::locks::{lock, OrderedLock};
use crate::recovery::RetryPolicy;
use crate::report::SessionReport;

/// Deterministic virtual cost of handling one injected fault of the
/// given error class, as charged to the faulted session's CPU. (The
/// fault substrate also advances the shared machine clock; this local
/// accounting is what flows into per-CPU busy time and wall time, and
/// is a pure function of the error — never of the machine clock.)
fn fault_handling_cost(error: &SeaError) -> SimDuration {
    match error {
        SeaError::Tpm(TpmError::TransportFault { .. }) => TRANSPORT_FAULT_COST,
        _ => SimDuration::ZERO,
    }
}

/// Builds the in-band record of a session death.
fn killed(index: usize, retries: u32, error: SeaError, wasted: SimDuration) -> SessionResult {
    SessionResult::Killed {
        job: index,
        attempts: retries + 1,
        error,
        wasted,
    }
}

/// Records a retry: the backoff leaf and counter are emitted *before*
/// taking the engine lock — the leaf lands on the session's own track
/// (owned by exactly one worker, ordered by its per-track sequence)
/// and counters are order-insensitive, so neither needs the lock. Only
/// the [`TraceEvent::SessionRetried`] record mutates shared state and
/// still serializes on it. (Backoff burns CPU-local time, never the
/// shared machine clock, so it is not a `Machine::charge`.)
fn record_retry<A: Architecture>(
    rt: &OrderedLock<A::Runtime>,
    obs: &Obs,
    key: u64,
    attempt: u32,
    backoff: SimDuration,
) {
    obs.leaf_on(key, Layer::Core, "recovery.backoff", backoff);
    obs.add("core.retries", 1);
    let mut guard = lock(rt);
    let machine = A::platform_mut(&mut guard).machine_mut();
    let now = machine.now();
    machine.trace_mut().record(
        now,
        TraceEvent::SessionRetried {
            session: key,
            attempt,
        },
    );
}

/// What one [`SessionDriver::advance`] call did.
pub(crate) enum DriveStep {
    /// One architecture operation executed; the session continues.
    /// `local_cost` is the CPU-local virtual time the operation charged
    /// outside the shared machine clock (fault handling + retry
    /// backoff; zero on clean operations) — the discrete-event executor
    /// adds it to the session's next event time.
    Running {
        /// CPU-local charge of the operation (backoff + fault cost).
        local_cost: SimDuration,
    },
    /// The session reached a terminal: a typed [`SessionResult`], or an
    /// infrastructure error the batch must surface.
    Terminal(Result<SessionResult, SeaError>),
}

/// Lifecycle position between two operations. Mirrors the typestate
/// stages ([`crate::engine::Launched`] / [`crate::engine::Stepping`] /
/// [`crate::engine::Sealed`]) as runtime data, because a recovery
/// driver must be able to *re-enter* the same stage after a faulted
/// transition — which a move-based typestate cannot express without
/// giving the handle back on error.
enum Phase<A: Architecture> {
    /// Awaiting (or retrying) the launch.
    Launch,
    /// Launched: awaiting a step.
    Step(A::Live),
    /// Yielded: awaiting (or retrying) the resume.
    Resume(A::Live),
    /// Exited: awaiting the cost report.
    Report(A::Live),
    /// Reported: awaiting (or retrying) the attestation.
    Quote(A::Live),
    /// Terminal already returned.
    Done,
}

/// One job's drive through the session lifecycle, advanced one
/// architecture operation at a time.
pub(crate) struct SessionDriver<A: Architecture> {
    index: usize,
    cpu: CpuId,
    job: ConcurrentJob,
    /// `Some` ⇒ keyed (recovered) driving with this retry policy;
    /// `None` ⇒ the plain fast path (unkeyed, errors surface).
    policy: Option<RetryPolicy>,
    phase: Phase<A>,
    retries: u32,
    recovery_cost: SimDuration,
    output: Vec<u8>,
    report: Option<SessionReport>,
}

impl<A: Architecture> SessionDriver<A> {
    /// A driver at the launch edge for batch job `index` on `cpu`.
    pub(crate) fn new(
        index: usize,
        cpu: CpuId,
        job: ConcurrentJob,
        policy: Option<RetryPolicy>,
    ) -> Self {
        SessionDriver {
            index,
            cpu,
            job,
            policy,
            phase: Phase::Launch,
            retries: 0,
            recovery_cost: SimDuration::ZERO,
            output: Vec::new(),
            report: None,
        }
    }

    /// The job's batch index (also its session key and CPU-assignment
    /// seed).
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    /// Whether the *next* operation drives the TPM (the quote). The
    /// discrete-event executor arbitrates these through its TPM arbiter
    /// instead of running them back to back.
    pub(crate) fn needs_tpm(&self) -> bool {
        matches!(self.phase, Phase::Quote(_))
    }

    /// Reclaims the job (for relaunch after a torn epoch). Only
    /// meaningful once the driver is terminal or before it started.
    pub(crate) fn into_job(self) -> ConcurrentJob {
        self.job
    }

    fn key(&self) -> Option<u64> {
        self.policy.map(|_| self.index as u64)
    }

    /// Applies the retry policy to one failed attempt. On a retryable
    /// error with budget left: consumes a retry, charges the
    /// fault-handling cost plus backoff, records the retry, and returns
    /// `Some(local_cost)` (caller stays in the same phase). Otherwise
    /// charges the handling cost and returns `None` (caller kills the
    /// session).
    fn try_absorb(
        &mut self,
        rt: &OrderedLock<A::Runtime>,
        obs: &Obs,
        error: &SeaError,
    ) -> Option<SimDuration> {
        let policy = self.policy.expect("absorb only runs on keyed drives");
        let key = self.index as u64;
        if policy.is_retryable(error) && self.retries < policy.max_retries() {
            self.retries += 1;
            let backoff = policy.backoff_for(self.retries);
            let local = fault_handling_cost(error) + backoff;
            self.recovery_cost += local;
            record_retry::<A>(rt, obs, key, self.retries, backoff);
            Some(local)
        } else {
            self.recovery_cost += fault_handling_cost(error);
            None
        }
    }

    /// Kills the live session and returns the in-band death record (or
    /// the kill's own infrastructure error).
    fn kill_and_finish(
        &mut self,
        rt: &OrderedLock<A::Runtime>,
        mut live: A::Live,
        error: SeaError,
    ) -> DriveStep {
        let key = self.index as u64;
        if let Err(e) = A::kill(rt, &mut live, key) {
            return DriveStep::Terminal(Err(e));
        }
        DriveStep::Terminal(Ok(killed(
            self.index,
            self.retries,
            error,
            self.recovery_cost,
        )))
    }

    /// Executes exactly one architecture operation and moves the
    /// machine to its next phase.
    ///
    /// `journal` is `Some` exactly in the durable mode; it receives the
    /// write-ahead `launched` record in the same advance as the
    /// successful launch.
    pub(crate) fn advance(
        &mut self,
        rt: &OrderedLock<A::Runtime>,
        obs: &Obs,
        journal: Option<&OrderedLock<SessionJournal>>,
    ) -> DriveStep {
        let key = self.key();
        match std::mem::replace(&mut self.phase, Phase::Done) {
            Phase::Launch => {
                let error =
                    match A::launch(rt, &mut *self.job.logic, &self.job.input, self.cpu, key) {
                        Ok(live) => {
                            if let Some(journal) = journal {
                                lock(journal).record_launched(self.index as u64);
                            }
                            self.phase = Phase::Step(live);
                            return DriveStep::Running {
                                local_cost: SimDuration::ZERO,
                            };
                        }
                        Err(e) => e,
                    };
                if key.is_none() {
                    // Plain fast path: errors surface to the batch.
                    return DriveStep::Terminal(Err(error));
                }
                if RetryPolicy::is_saturation(&error) {
                    // Graceful degradation: the session bank is full,
                    // not faulty.
                    let degraded = A::degrade(
                        rt,
                        &mut *self.job.logic,
                        &self.job.input,
                        self.cpu,
                        self.index as u64,
                    );
                    return DriveStep::Terminal(degraded.map(|(output, report)| {
                        SessionResult::Degraded {
                            job: self.index,
                            output,
                            report,
                        }
                    }));
                }
                if let Some(local_cost) = self.try_absorb(rt, obs, &error) {
                    self.phase = Phase::Launch;
                    return DriveStep::Running { local_cost };
                }
                // No kill to issue — the faulted launch rolled its
                // pages back — but the death is still a recovery
                // decision, so the trace pairs the injected fault with
                // a kill like every other path.
                {
                    let mut guard = lock(rt);
                    let machine = A::platform_mut(&mut guard).machine_mut();
                    let now = machine.now();
                    machine.trace_mut().record(
                        now,
                        TraceEvent::SessionKilled {
                            session: self.index as u64,
                        },
                    );
                }
                DriveStep::Terminal(Ok(killed(
                    self.index,
                    self.retries,
                    error,
                    self.recovery_cost,
                )))
            }

            Phase::Step(mut live) => match A::step(rt, &mut live, &mut *self.job.logic, key) {
                Ok(PalStep::Exited { output }) => {
                    self.output = output;
                    self.phase = Phase::Report(live);
                    DriveStep::Running {
                        local_cost: SimDuration::ZERO,
                    }
                }
                Ok(PalStep::Yielded) => {
                    self.phase = Phase::Resume(live);
                    DriveStep::Running {
                        local_cost: SimDuration::ZERO,
                    }
                }
                Err(error) if key.is_none() => DriveStep::Terminal(Err(error)),
                Err(error) => {
                    if let Some(local_cost) = self.try_absorb(rt, obs, &error) {
                        self.phase = Phase::Step(live);
                        return DriveStep::Running { local_cost };
                    }
                    self.kill_and_finish(rt, live, error)
                }
            },

            Phase::Resume(mut live) => match A::resume(rt, &mut live, self.cpu, key) {
                Ok(()) => {
                    self.phase = Phase::Step(live);
                    DriveStep::Running {
                        local_cost: SimDuration::ZERO,
                    }
                }
                Err(error) if key.is_none() => DriveStep::Terminal(Err(error)),
                Err(error) => {
                    // A faulted resume retries in place: the SECB stays
                    // `Suspend`.
                    if let Some(local_cost) = self.try_absorb(rt, obs, &error) {
                        self.phase = Phase::Resume(live);
                        return DriveStep::Running { local_cost };
                    }
                    self.kill_and_finish(rt, live, error)
                }
            },

            Phase::Report(live) => match A::report(rt, &live) {
                Ok(report) => {
                    self.report = Some(report);
                    self.phase = Phase::Quote(live);
                    DriveStep::Running {
                        local_cost: SimDuration::ZERO,
                    }
                }
                // Both modes surface report failures: the session
                // exited, so this is infrastructure, not a fault roll.
                Err(error) => DriveStep::Terminal(Err(error)),
            },

            Phase::Quote(mut live) => {
                // Deterministic per-job nonce: ties the quote to the
                // batch index.
                let nonce = (self.index as u64).to_le_bytes();
                match A::quote(rt, &mut live, &nonce, key) {
                    Ok(quote) => DriveStep::Terminal(Ok(SessionResult::Quoted {
                        result: JobResult {
                            output: std::mem::take(&mut self.output),
                            report: self.report.take().expect("report precedes quote"),
                            quote_cost: quote.elapsed,
                            cpu: self.cpu,
                        },
                        quote: quote.value,
                        retries: self.retries,
                        recovery_cost: self.recovery_cost,
                    })),
                    Err(error) if key.is_none() => DriveStep::Terminal(Err(error)),
                    Err(error) => {
                        // A faulted quote leaves the sePCR in the Quote
                        // state, so it can be retried; on exhaustion
                        // the kill path frees the slot without an
                        // attestation.
                        if let Some(local_cost) = self.try_absorb(rt, obs, &error) {
                            self.phase = Phase::Quote(live);
                            return DriveStep::Running { local_cost };
                        }
                        self.kill_and_finish(rt, live, error)
                    }
                }
            }

            Phase::Done => DriveStep::Terminal(Err(SeaError::EngineFault(
                "advance called on a terminal session driver",
            ))),
        }
    }

    /// Drives the session to its terminal in one call (the thread-pool
    /// executor's whole-job loop).
    pub(crate) fn run_to_terminal(
        &mut self,
        rt: &OrderedLock<A::Runtime>,
        obs: &Obs,
        journal: Option<&OrderedLock<SessionJournal>>,
    ) -> Result<SessionResult, SeaError> {
        loop {
            if let DriveStep::Terminal(result) = self.advance(rt, obs, journal) {
                return result;
            }
        }
    }
}
