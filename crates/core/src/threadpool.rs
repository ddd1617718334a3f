//! The thread-pool executor: one OS thread per simulated CPU.
//!
//! This is the engine's original backend, now one of two
//! [`crate::engine::Executor`] choices: worker *k* plays CPU *k*,
//! drives its statically-assigned jobs ([`SessionDriver`] run to
//! terminal in a tight loop), and determinism is *enforced* — per-job
//! costs are intrinsic, per-CPU busy time folds into the shared
//! timeline via an atomic max, the TPM serializes on lock contention —
//! rather than structural as in [`crate::des`].
//!
//! This module is the only place in `sea-core` allowed to spawn OS
//! threads (scripts/ci.sh greps for strays).

use std::sync::atomic::Ordering;
use std::sync::Arc;

use sea_hw::{CpuClockDomain, CpuId, Obs, SharedClock, SimDuration, SimTime};

use crate::driver::SessionDriver;
use crate::engine::{Architecture, Attempt, ConcurrentJob, WorkerMode};
use crate::error::SeaError;
use crate::locks::{lock, OrderedLock};

/// Drives one worker's statically-assigned jobs on CPU `k` under the
/// epoch's mode. Returns per-job attempts plus the CPU's accumulated
/// virtual busy time.
#[allow(clippy::type_complexity)]
fn batch_worker<A: Architecture>(
    k: usize,
    assigned: Vec<(usize, ConcurrentJob)>,
    rt: &OrderedLock<A::Runtime>,
    obs: &Obs,
    clock: &Arc<SharedClock>,
    epoch: SimTime,
    mode: WorkerMode<'_>,
) -> Result<(Vec<(usize, Attempt)>, SimDuration), SeaError> {
    let cpu = CpuId(k as u16);
    let mut domain = CpuClockDomain::at(Arc::clone(clock), epoch);
    let mut results = Vec::with_capacity(assigned.len());
    for (i, job) in assigned {
        match mode {
            WorkerMode::Plain => {
                let mut driver = SessionDriver::<A>::new(i, cpu, job, None, false);
                let result = driver.run_to_terminal(rt, obs, None);
                if let Ok(r) = &result {
                    domain.advance(r.cost());
                }
                domain.publish();
                results.push((i, Attempt::Done(result)));
            }
            WorkerMode::Recovered { retry } => {
                let mut driver = SessionDriver::<A>::new(i, cpu, job, Some(retry), false);
                let result = driver.run_to_terminal(rt, obs, None);
                if let Ok(r) = &result {
                    domain.advance(r.cost());
                }
                domain.publish();
                results.push((i, Attempt::Done(result)));
            }
            WorkerMode::Durable(ctx) => {
                let key = i as u64;
                if ctx.crashed.load(Ordering::SeqCst) {
                    // The platform is already dark; this job never
                    // started.
                    results.push((i, Attempt::Torn(job)));
                    continue;
                }
                lock(ctx.journal).record_intent(key);
                let mut driver = SessionDriver::<A>::new(i, cpu, job, Some(ctx.retry), true);
                let session = driver.run_to_terminal(rt, obs, Some(ctx.journal))?;
                let attempt = ctx.commit_gate::<A>(rt, obs, key, session, driver.into_job())?;
                if let Attempt::Committed(s) | Attempt::Volatile(s, _) = &attempt {
                    domain.advance(s.cost());
                }
                domain.publish();
                results.push((i, attempt));
            }
        }
    }
    Ok((results, domain.busy()))
}

/// Runs one epoch of the batch across `workers` scoped OS threads.
/// Returns the per-job attempts (indexed by job) and each CPU's busy
/// time for the epoch.
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
    // Jobs keep their static assignment (job i → worker/CPU
    // i % workers) in every epoch.
    let mut per_worker: Vec<Vec<(usize, ConcurrentJob)>> =
        (0..workers).map(|_| Vec::new()).collect();
    for (i, job) in pending {
        per_worker[i % workers].push((i, job));
    }

    let mut attempts: Vec<Option<Attempt>> = (0..n_jobs).map(|_| None).collect();
    let mut busy = vec![SimDuration::ZERO; workers];
    std::thread::scope(|scope| -> Result<(), SeaError> {
        let handles: Vec<_> = per_worker
            .into_iter()
            .enumerate()
            .map(|(k, assigned)| {
                let rt = Arc::clone(rt);
                let clock = Arc::clone(clock);
                scope.spawn(move || batch_worker::<A>(k, assigned, &rt, obs, &clock, epoch, mode))
            })
            .collect();
        for (k, handle) in handles.into_iter().enumerate() {
            let (results, worker_busy) = handle
                .join()
                .map_err(|_| SeaError::EngineFault("worker thread panicked"))??;
            busy[k] += worker_busy;
            for (i, attempt) in results {
                attempts[i] = Some(attempt);
            }
        }
        Ok(())
    })?;
    Ok((attempts, busy))
}
