//! The thread-pool executor: one OS thread per simulated CPU.
//!
//! This is the engine's original backend, now one of two
//! [`crate::engine::Executor`] choices: worker *k* plays CPU *k* and
//! drives its statically-assigned jobs (a
//! [`SessionDriver`](crate::driver::SessionDriver) run to terminal in
//! a tight loop). Determinism is *enforced* — per-job costs are
//! intrinsic, each worker sums its own busy time, and the engine lock
//! serializes every TPM command — rather than structural as in
//! [`crate::des`].
//!
//! This module is the only place in `sea-core` allowed to spawn OS
//! threads (scripts/ci.sh greps for strays).

use sea_hw::{CpuId, Obs, SimDuration};

use crate::engine::{Attempt, ConcurrentJob, RuntimeLock, WorkerMode};
use crate::error::SeaError;

/// Drives one worker's statically-assigned jobs on CPU `k` under the
/// epoch's mode. Returns per-job attempts plus the CPU's accumulated
/// virtual busy time.
#[allow(clippy::type_complexity)]
fn batch_worker(
    k: usize,
    assigned: Vec<(usize, ConcurrentJob)>,
    rt: &RuntimeLock,
    obs: &Obs,
    mode: WorkerMode,
) -> Result<(Vec<(usize, Attempt)>, SimDuration), SeaError> {
    let cpu = CpuId(k as u16);
    let mut busy = SimDuration::ZERO;
    let mut results = Vec::with_capacity(assigned.len());
    for (i, job) in assigned {
        let attempt = match mode.start(rt, i, cpu, job) {
            Ok(mut driver) => {
                let result = driver.run_to_terminal(rt, obs);
                let (attempt, charged) = mode.finish(rt, obs, driver, result)?;
                busy += charged;
                attempt
            }
            Err(job) => Attempt::Torn(job),
        };
        results.push((i, attempt));
    }
    Ok((results, busy))
}

/// Runs one epoch of the batch across `workers` scoped OS threads.
/// Returns the per-job attempts (indexed by job) and each CPU's busy
/// time for the epoch.
pub(crate) fn run_epoch(
    workers: usize,
    n_jobs: usize,
    pending: Vec<(usize, ConcurrentJob)>,
    rt: &RuntimeLock,
    obs: &Obs,
    mode: WorkerMode,
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
            .map(|(k, assigned)| scope.spawn(move || batch_worker(k, assigned, rt, obs, mode)))
            .collect();
        for (k, handle) in handles.into_iter().enumerate() {
            let (results, worker_busy) = handle
                .join()
                .map_err(|_| SeaError::EngineFault("worker thread panicked"))??;
            busy[k] = worker_busy;
            for (i, attempt) in results {
                attempts[i] = Some(attempt);
            }
        }
        Ok(())
    })?;
    Ok((attempts, busy))
}
