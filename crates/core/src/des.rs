//! The discrete-event executor: simulated CPUs on one OS thread.
//!
//! Where [`crate::threadpool`] assigns each simulated CPU a real OS
//! thread — capping how much hardware one process can model at the
//! host's core count — this backend replaces threads with *virtual
//! CPUs* stepped by a deterministic event queue
//! ([`sea_hw::EventQueue`]). Each event advances one session by exactly
//! one session operation ([`SessionDriver::advance`]); the
//! operation's machine-clock charge (plus any CPU-local retry backoff)
//! becomes the virtual-time gap to the session's next event. Ordering
//! is structural, not lock-enforced:
//!
//! * events fire in `(time, session id)` order, FIFO at exact ties —
//!   the tie-break contract pinned by `tests/proptest_invariants.rs`;
//! * the TPM command gate is the per-CPU-lane arbiter
//!   ([`ShardedTpmArbiter`], whose grant order `sea-tpm` pins to a
//!   recorded reference stream): a quote occupies the TPM for its
//!   virtual duration, contending quotes are granted by `(request
//!   time, CPU)` instead of by whichever OS thread takes the engine
//!   lock first, and each grant carries its request stamp so the
//!   queueing delay is charged to `tpm.gate` lock-wait;
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

use sea_hw::{CpuId, EventQueue, Layer, Obs, SimDuration, SimTime};
use sea_tpm::ShardedTpmArbiter;

use crate::driver::{DriveStep, SessionDriver};
use crate::engine::{Attempt, ConcurrentJob, RuntimeLock, WorkerMode};
use crate::error::SeaError;

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

/// Per-virtual-CPU state: the jobs still queued, the session in
/// flight, and the busy time of the sessions already finished.
struct VirtualCpu {
    queue: VecDeque<(usize, ConcurrentJob)>,
    current: Option<SessionDriver>,
    busy: SimDuration,
}

/// Runs one epoch of the batch on `workers` virtual CPUs driven by the
/// event queue. Same contract as the thread-pool
/// [`crate::threadpool::run_epoch`]: per-job attempts indexed by job,
/// plus each virtual CPU's busy time.
pub(crate) fn run_epoch(
    workers: usize,
    n_jobs: usize,
    pending: Vec<(usize, ConcurrentJob)>,
    rt: &RuntimeLock,
    obs: &Obs,
    mode: WorkerMode,
) -> Result<(Vec<Option<Attempt>>, Vec<SimDuration>), SeaError> {
    let mut cpus: Vec<VirtualCpu> = (0..workers)
        .map(|_| VirtualCpu {
            queue: VecDeque::new(),
            current: None,
            busy: SimDuration::ZERO,
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
    fn machine_now(rt: &RuntimeLock) -> SimTime {
        rt.lock().sea.platform().machine().now()
    }

    while let Some(event) = events.pop() {
        let t = event.at;
        match event.payload {
            Ev::Start { cpu } => {
                let Some((i, job)) = cpus[cpu].queue.pop_front() else {
                    continue;
                };
                match mode.start(rt, i, CpuId(cpu as u16), job) {
                    Ok(driver) => {
                        cpus[cpu].current = Some(driver);
                        events.schedule(t, i as u64, Ev::Op { cpu });
                    }
                    Err(job) => {
                        attempts[i] = Some(Attempt::Torn(job));
                        if let Some(&(next, _)) = cpus[cpu].queue.front() {
                            events.schedule(t, next as u64, Ev::Start { cpu });
                        }
                    }
                }
            }

            Ev::Op { cpu } => {
                let cpu_id = CpuId(cpu as u16);
                // The driver leaves its slot for the op and goes back on
                // every path that does not end the session.
                let Some(mut driver) = cpus[cpu].current.take() else {
                    continue;
                };
                let index = driver.index();
                let gated = driver.needs_tpm();
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
                            cpus[cpu].current = Some(driver);
                            let w = winner.cpu.0 as usize;
                            if let Some(d) = &cpus[w].current {
                                events.schedule(t, d.index() as u64, Ev::Op { cpu: w });
                            }
                            continue;
                        }
                        None => {
                            // Held: wait for the release.
                            cpus[cpu].current = Some(driver);
                            continue;
                        }
                    }
                }

                let before = machine_now(rt);
                let step = driver.advance(rt, obs);
                let elapsed = machine_now(rt).duration_since(before);
                let local = match &step {
                    DriveStep::Running { local_cost } => *local_cost,
                    DriveStep::Terminal(_) => SimDuration::ZERO,
                };
                let done_at = t + elapsed + local;
                // Contention attribution, in virtual time: every op
                // holds the engine lock for its machine-clock charge.
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
                        cpus[cpu].current = Some(driver);
                        events.schedule(done_at, index as u64, Ev::Op { cpu });
                    }
                    DriveStep::Terminal(result) => {
                        let (attempt, busy) = mode.finish(rt, obs, driver, result)?;
                        cpus[cpu].busy += busy;
                        attempts[index] = Some(attempt);
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

    let busy = cpus.iter().map(|c| c.busy).collect();
    Ok((attempts, busy))
}
