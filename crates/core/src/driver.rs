//! The per-session drive state machine shared by both executors.
//!
//! The retired `drive_plain`/`drive_recovered` functions walked a job
//! through its lifecycle with nested loops, which only a dedicated OS
//! thread could execute: the control state between two session
//! operations lived on that thread's stack. [`SessionDriver`] reifies
//! that control state as an explicit machine over the same typestate
//! lifecycle (`Launched → Stepping → Sealed`, Figure 6), advanced **one
//! session operation per call** — which is exactly the granularity a
//! discrete-event executor needs to interleave many sessions on one OS
//! thread, and which the thread-pool executor simply drives in a tight
//! loop. Each operation is one call into [`crate::EnhancedSea`]'s keyed
//! lifecycle under one hold of the engine lock.
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

use crate::engine::{ConcurrentJob, JobResult, RuntimeLock, SessionResult};
use crate::enhanced::{PalId, PalStep};
use crate::error::SeaError;
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
fn record_retry(rt: &RuntimeLock, obs: &Obs, key: u64, attempt: u32, backoff: SimDuration) {
    obs.leaf_on(key, Layer::Core, "recovery.backoff", backoff);
    obs.add("core.retries", 1);
    rt.lock().sea.record(TraceEvent::SessionRetried {
        session: key,
        attempt,
    });
}

/// What one [`SessionDriver::advance`] call did.
pub(crate) enum DriveStep {
    /// One session operation executed; the session continues.
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

/// A clean operation: the session continues at no CPU-local cost.
const CLEAN: DriveStep = DriveStep::Running {
    local_cost: SimDuration::ZERO,
};

/// Lifecycle position between two operations. Mirrors the typestate
/// stages ([`crate::engine::Launched`] / [`crate::engine::Stepping`] /
/// [`crate::engine::Sealed`]) as runtime data, because a recovery
/// driver must be able to *re-enter* the same stage after a faulted
/// transition — which a move-based typestate cannot express without
/// giving the handle back on error. The exited session's output and
/// report travel in the phases that need them.
enum Phase {
    /// Awaiting (or retrying) the launch.
    Launch,
    /// Launched: awaiting a step.
    Step(PalId),
    /// Yielded: awaiting (or retrying) the resume.
    Resume(PalId),
    /// Exited with `output`: awaiting the cost report.
    Report {
        /// The exited session.
        live: PalId,
        /// The PAL's output.
        output: Vec<u8>,
    },
    /// Reported: awaiting (or retrying) the attestation.
    Quote {
        /// The exited session.
        live: PalId,
        /// The PAL's output.
        output: Vec<u8>,
        /// The session's cost breakdown.
        report: SessionReport,
    },
    /// Terminal already returned.
    Done,
}

/// One job's drive through the session lifecycle, advanced one
/// session operation at a time.
pub(crate) struct SessionDriver {
    index: usize,
    cpu: CpuId,
    job: ConcurrentJob,
    /// `Some` ⇒ keyed (recovered) driving with this retry policy;
    /// `None` ⇒ the plain fast path (unkeyed, errors surface).
    policy: Option<RetryPolicy>,
    phase: Phase,
    retries: u32,
    recovery_cost: SimDuration,
}

impl SessionDriver {
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
        matches!(self.phase, Phase::Quote { .. })
    }

    /// Reclaims the job (for relaunch after a torn epoch). Only
    /// meaningful once the driver is terminal or before it started.
    pub(crate) fn into_job(self) -> ConcurrentJob {
        self.job
    }

    /// Applies `policy` to one failed attempt. On a retryable error
    /// with budget left: consumes a retry, charges the fault-handling
    /// cost plus backoff, records the retry, and returns
    /// `Some(local_cost)` (caller stays in the same phase). Otherwise
    /// charges the handling cost and returns `None` (caller kills the
    /// session).
    fn try_absorb(
        &mut self,
        policy: RetryPolicy,
        rt: &RuntimeLock,
        obs: &Obs,
        error: &SeaError,
    ) -> Option<SimDuration> {
        if policy.is_retryable(error) && self.retries < policy.max_retries() {
            self.retries += 1;
            let backoff = policy.backoff_for(self.retries);
            let local = fault_handling_cost(error) + backoff;
            self.recovery_cost += local;
            record_retry(rt, obs, self.index as u64, self.retries, backoff);
            Some(local)
        } else {
            self.recovery_cost += fault_handling_cost(error);
            None
        }
    }

    /// Handles a failed operation on the live session `live`. The plain
    /// fast path surfaces the error. A recovered drive re-enters `retry`
    /// (the same phase) while its budget lasts, and otherwise kills the
    /// session and returns the in-band death record (or the kill's own
    /// infrastructure error).
    fn fault(
        &mut self,
        rt: &RuntimeLock,
        obs: &Obs,
        live: PalId,
        error: SeaError,
        retry: Phase,
    ) -> DriveStep {
        let Some(policy) = self.policy else {
            return DriveStep::Terminal(Err(error));
        };
        if let Some(local_cost) = self.try_absorb(policy, rt, obs, &error) {
            self.phase = retry;
            return DriveStep::Running { local_cost };
        }
        let kill = rt.lock().sea.kill_session(live, self.index as u64);
        DriveStep::Terminal(
            kill.map(|()| killed(self.index, self.retries, error, self.recovery_cost)),
        )
    }

    /// Executes exactly one session operation and moves the machine to
    /// its next phase, taking the engine lock once per operation. In a
    /// durable batch the write-ahead `launched` record is written under
    /// the same lock hold as the successful launch.
    pub(crate) fn advance(&mut self, rt: &RuntimeLock, obs: &Obs) -> DriveStep {
        let key = self.policy.map(|_| self.index as u64);
        match std::mem::replace(&mut self.phase, Phase::Done) {
            Phase::Launch => {
                let logic = &mut *self.job.logic;
                let launched = rt.lock().launch(logic, &self.job.input, self.cpu, key);
                let error = match launched {
                    Ok(live) => {
                        self.phase = Phase::Step(live);
                        return CLEAN;
                    }
                    Err(e) => e,
                };
                let Some(policy) = self.policy else {
                    // Plain fast path: errors surface to the batch.
                    return DriveStep::Terminal(Err(error));
                };
                if RetryPolicy::is_saturation(&error) {
                    // Graceful degradation: the session bank is full,
                    // not faulty.
                    let degraded = rt.lock().sea.fallback_keyed(
                        &mut *self.job.logic,
                        &self.job.input,
                        self.cpu,
                        self.index as u64,
                    );
                    return DriveStep::Terminal(degraded.map(|done| SessionResult::Degraded {
                        job: self.index,
                        output: done.output,
                        report: done.report,
                    }));
                }
                if let Some(local_cost) = self.try_absorb(policy, rt, obs, &error) {
                    self.phase = Phase::Launch;
                    return DriveStep::Running { local_cost };
                }
                // No kill to issue — the faulted launch rolled its
                // pages back — but the death is still a recovery
                // decision, so the trace pairs the injected fault with
                // a kill like every other path.
                rt.lock().sea.record(TraceEvent::SessionKilled {
                    session: self.index as u64,
                });
                DriveStep::Terminal(Ok(killed(
                    self.index,
                    self.retries,
                    error,
                    self.recovery_cost,
                )))
            }

            Phase::Step(live) => {
                let step = rt.lock().sea.step_keyed(&mut *self.job.logic, live, key);
                match step {
                    Ok(PalStep::Exited { output }) => {
                        self.phase = Phase::Report { live, output };
                        CLEAN
                    }
                    Ok(PalStep::Yielded) => {
                        self.phase = Phase::Resume(live);
                        CLEAN
                    }
                    Err(error) => self.fault(rt, obs, live, error, Phase::Step(live)),
                }
            }

            Phase::Resume(live) => {
                let resumed = rt.lock().sea.resume_keyed(live, self.cpu, key);
                match resumed {
                    Ok(()) => {
                        self.phase = Phase::Step(live);
                        CLEAN
                    }
                    // A faulted resume retries in place: the SECB stays
                    // `Suspend`.
                    Err(error) => self.fault(rt, obs, live, error, Phase::Resume(live)),
                }
            }

            Phase::Report { live, output } => {
                let report = rt.lock().sea.report(live);
                match report {
                    Ok(report) => {
                        self.phase = Phase::Quote {
                            live,
                            output,
                            report,
                        };
                        CLEAN
                    }
                    // Both modes surface report failures: the session
                    // exited, so this is infrastructure, not a fault
                    // roll.
                    Err(error) => DriveStep::Terminal(Err(error)),
                }
            }

            Phase::Quote {
                live,
                output,
                report,
            } => {
                // Deterministic per-job nonce: ties the quote to the
                // batch index.
                let nonce = (self.index as u64).to_le_bytes();
                let quoted = rt.lock().sea.quote_and_free_keyed(live, &nonce, key);
                match quoted {
                    Ok(quote) => DriveStep::Terminal(Ok(SessionResult::Quoted {
                        result: JobResult {
                            output,
                            report,
                            quote_cost: quote.elapsed,
                            cpu: self.cpu,
                        },
                        quote: quote.value,
                        retries: self.retries,
                        recovery_cost: self.recovery_cost,
                    })),
                    // A faulted quote leaves the sePCR in the Quote
                    // state, so it can be retried; on exhaustion the
                    // kill path frees the slot without an attestation.
                    Err(error) => {
                        let retry = Phase::Quote {
                            live,
                            output,
                            report,
                        };
                        self.fault(rt, obs, live, error, retry)
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
        rt: &RuntimeLock,
        obs: &Obs,
    ) -> Result<SessionResult, SeaError> {
        loop {
            if let DriveStep::Terminal(result) = self.advance(rt, obs) {
                return result;
            }
        }
    }
}
