//! The discrete-event executor: simulated CPUs on one OS thread.
//!
//! Where [`crate::threadpool`] assigns each simulated CPU a real OS
//! thread — capping how much hardware one process can model at the
//! host's core count — this backend replaces threads with *virtual
//! CPUs* stepped by a deterministic event queue
//! ([`sea_hw::EventQueue`]). Each event advances one session by exactly
//! one architecture operation ([`SessionDriver::advance`]); the
//! operation's machine-clock charge (plus any CPU-local retry backoff)
//! becomes the virtual-time gap to the session's next event. Ordering
//! is structural, not lock-enforced:
//!
//! * events fire in `(time, session id)` order, FIFO at exact ties —
//!   the tie-break contract pinned by `tests/proptest_invariants.rs`;
//! * the TPM command gate is the per-CPU-lane arbiter
//!   ([`ShardedTpmArbiter`], whose grant order `sea-tpm`'s differential
//!   test pins to its reference, [`sea_tpm::EventOrderedTpmLock`]): a quote
//!   occupies the TPM for its virtual duration, contending quotes are
//!   granted by `(request time, CPU)` instead of by whichever OS
//!   thread takes the runtime lock first, and each grant carries its
//!   request stamp so the queueing delay is charged to `tpm.gate`
//!   lock-wait;
//! * journal commit gates run at the committing session's terminal
//!   event, in event order.
//!
//! With one virtual CPU the event timeline degenerates to the serial
//! schedule, so the executor is byte-identical to the one-worker thread
//! pool *including the machine trace* — the golden differential suite
//! pins this. At higher CPU counts every session-level output (results,
//! quotes, per-CPU busy time, wall time) remains byte-identical to the
//! thread pool because those quantities are interleaving-invariant by
//! the engine's determinism contract.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use sea_hw::{CpuClockDomain, CpuId, EventQueue, Layer, Obs, SharedClock, SimDuration, SimTime};
use sea_tpm::ShardedTpmArbiter;

use crate::driver::{DriveStep, SessionDriver};
use crate::engine::{Architecture, Attempt, ConcurrentJob, WorkerMode};
use crate::error::SeaError;
use crate::locks::{lock, OrderedLock};

/// One scheduled cause on the virtual timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Begin the named virtual CPU's next queued job.
    Start { cpu: usize },
    /// Advance the session currently on the virtual CPU by one
    /// operation.
    Op { cpu: usize },
    /// The TPM command holding the arbiter completes: release and
    /// re-arbitrate.
    Release { cpu: usize },
}

/// Per-virtual-CPU state: the jobs still queued and the session in
/// flight.
struct VirtualCpu<A: Architecture> {
    queue: VecDeque<(usize, ConcurrentJob)>,
    current: Option<SessionDriver<A>>,
    domain: CpuClockDomain,
}

/// Runs one epoch of the batch on `workers` virtual CPUs driven by the
/// event queue. Same contract as the thread-pool
/// [`crate::threadpool::run_epoch`]: per-job attempts indexed by job,
/// plus each virtual CPU's busy time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_epoch<A: Architecture>(
    workers: usize,
    n_jobs: usize,
    pending: Vec<(usize, ConcurrentJob)>,
    rt: &Arc<OrderedLock<A::Runtime>>,
    obs: &Obs,
    clock: &Arc<SharedClock>,
    epoch: SimTime,
    mode: WorkerMode<'_>,
) -> Result<(Vec<Option<Attempt>>, Vec<SimDuration>), SeaError> {
    let mut cpus: Vec<VirtualCpu<A>> = (0..workers)
        .map(|_| VirtualCpu {
            queue: VecDeque::new(),
            current: None,
            domain: CpuClockDomain::at(Arc::clone(clock), epoch),
        })
        .collect();
    // Jobs keep their static assignment (job i → virtual CPU
    // i % workers) in every epoch, matching the thread pool.
    for (i, job) in pending {
        cpus[i % workers].queue.push_back((i, job));
    }

    let mut attempts: Vec<Option<Attempt>> = (0..n_jobs).map(|_| None).collect();
    let mut events: EventQueue<Ev> = EventQueue::new();
    let mut tpm_gate = ShardedTpmArbiter::new();

    // The virtual timeline starts at zero each epoch; only its ordering
    // matters (busy/wall accounting uses intrinsic costs, exactly as
    // the thread pool does).
    for (k, vcpu) in cpus.iter_mut().enumerate() {
        if let Some(&(i, _)) = vcpu.queue.front() {
            events.schedule(SimTime::ZERO, i as u64, Ev::Start { cpu: k });
        }
    }

    /// Machine-clock reading for op-duration measurement.
    fn machine_now<A: Architecture>(rt: &OrderedLock<A::Runtime>) -> SimTime {
        A::platform(&lock(rt)).machine().now()
    }

    while let Some(event) = events.pop() {
        let t = event.at;
        match event.payload {
            Ev::Start { cpu } => {
                let Some((i, job)) = cpus[cpu].queue.pop_front() else {
                    continue;
                };
                if let WorkerMode::Durable(ctx) = &mode {
                    if ctx.crashed.load(Ordering::SeqCst) {
                        // The platform is already dark; this job never
                        // started (and charges no busy time).
                        attempts[i] = Some(Attempt::Torn(job));
                        if let Some(&(next, _)) = cpus[cpu].queue.front() {
                            events.schedule(t, next as u64, Ev::Start { cpu });
                        }
                        continue;
                    }
                    lock(ctx.journal).record_intent(i as u64);
                }
                let (policy, journaled) = match &mode {
                    WorkerMode::Plain => (None, false),
                    WorkerMode::Recovered { retry } => (Some(*retry), false),
                    WorkerMode::Durable(ctx) => (Some(ctx.retry), true),
                };
                cpus[cpu].current = Some(SessionDriver::<A>::new(
                    i,
                    CpuId(cpu as u16),
                    job,
                    policy,
                    journaled,
                ));
                events.schedule(t, i as u64, Ev::Op { cpu });
            }

            Ev::Op { cpu } => {
                let cpu_id = CpuId(cpu as u16);
                let index = match &cpus[cpu].current {
                    Some(driver) => driver.index(),
                    None => continue,
                };
                let gated = cpus[cpu].current.as_ref().is_some_and(|d| d.needs_tpm());
                if gated && tpm_gate.holder() != Some(cpu_id) {
                    // Arbitrate: file the request at this event's time;
                    // if the TPM is free the best-stamped waiter wins.
                    tpm_gate.request(t, cpu_id);
                    match tpm_gate.grant() {
                        Some(winner) if winner.cpu == cpu_id => {} // proceed below
                        Some(winner) => {
                            // Another CPU's earlier request wins; run
                            // its pending command now. Ours stays
                            // queued for a later grant.
                            let w = winner.cpu.0 as usize;
                            if let Some(d) = &cpus[w].current {
                                events.schedule(t, d.index() as u64, Ev::Op { cpu: w });
                            }
                            continue;
                        }
                        None => continue, // held: wait for the release
                    }
                }

                let journal = match &mode {
                    WorkerMode::Durable(ctx) => Some(ctx.journal),
                    _ => None,
                };
                let before = machine_now::<A>(rt);
                let step = cpus[cpu]
                    .current
                    .as_mut()
                    .expect("op event only fires with a session in flight")
                    .advance(rt, obs, journal);
                let elapsed = machine_now::<A>(rt).duration_since(before);
                let local = match &step {
                    DriveStep::Running { local_cost } => *local_cost,
                    DriveStep::Terminal(_) => SimDuration::ZERO,
                };
                let done_at = t + elapsed + local;
                // Contention attribution, in virtual time: every op
                // holds the runtime lock for its machine-clock charge.
                // (Lock stats live outside the snapshot — see
                // `sea_hw::RecordingSink::lock_stats` — so this cannot
                // perturb snapshot parity with the thread pool, whose
                // host-clock waits are unmeterable in virtual time.)
                obs.lock_event("core.runtime", Layer::Core, SimDuration::ZERO, elapsed);
                if gated {
                    // The grant kept its request stamp: the gap from
                    // request to this grant is pure arbiter queueing,
                    // charged as `tpm.gate` lock-wait; the command then
                    // holds the TPM until `done_at`.
                    let requested = tpm_gate.granted().map(|g| g.requested).unwrap_or(t);
                    obs.lock_event(
                        "tpm.gate",
                        Layer::Tpm,
                        t.duration_since(requested),
                        elapsed + local,
                    );
                    // The command occupied the TPM for its virtual
                    // duration; free it when that interval ends.
                    events.schedule(done_at, index as u64, Ev::Release { cpu });
                }

                match step {
                    DriveStep::Running { .. } => {
                        events.schedule(done_at, index as u64, Ev::Op { cpu });
                    }
                    DriveStep::Terminal(result) => {
                        let driver = cpus[cpu].current.take().expect("terminal session exists");
                        let i = driver.index();
                        let attempt = match &mode {
                            WorkerMode::Plain | WorkerMode::Recovered { .. } => {
                                if let Ok(r) = &result {
                                    cpus[cpu].domain.advance(r.cost());
                                }
                                Attempt::Done(result)
                            }
                            WorkerMode::Durable(ctx) => {
                                let session = result?;
                                let attempt = ctx.commit_gate::<A>(
                                    rt,
                                    obs,
                                    i as u64,
                                    session,
                                    driver.into_job(),
                                )?;
                                if let Attempt::Committed(s) | Attempt::Volatile(s, _) = &attempt {
                                    cpus[cpu].domain.advance(s.cost());
                                }
                                attempt
                            }
                        };
                        cpus[cpu].domain.publish();
                        attempts[i] = Some(attempt);
                        if let Some(&(next, _)) = cpus[cpu].queue.front() {
                            events.schedule(done_at, next as u64, Ev::Start { cpu });
                        }
                    }
                }
            }

            Ev::Release { cpu } => {
                let _ = tpm_gate.release(CpuId(cpu as u16));
                if let Some(winner) = tpm_gate.grant() {
                    let w = winner.cpu.0 as usize;
                    if let Some(d) = &cpus[w].current {
                        events.schedule(t, d.index() as u64, Ev::Op { cpu: w });
                    } else {
                        // The winner's session ended between request
                        // and grant (killed at another op); hand the
                        // grant back.
                        let _ = tpm_gate.release(winner.cpu);
                    }
                }
            }
        }
    }

    let busy = cpus.iter().map(|c| c.domain.busy()).collect();
    Ok((attempts, busy))
}
