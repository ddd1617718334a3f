//! Differential oracle between the two execution backends.
//!
//! `SessionEngine` runs every batch path on either real OS threads
//! ([`Executor::ThreadPool`]) or virtual CPUs stepped by a
//! deterministic event queue ([`Executor::DiscreteEvent`]). The
//! engine's determinism contract says the backends are
//! interchangeable: per-job costs are intrinsic, fault rolls are a pure
//! function of `(plan, session key, operation order)`, quotes bind
//! sePCR values rather than slots, and per-CPU busy time folds through
//! the same atomic-max timeline. This suite replays each existing
//! integration scenario — fault chaos, crash-point cuts, observability
//! snapshots — on both backends and asserts the outputs are
//! **byte-identical**:
//!
//! * at equal worker counts (1, 4, and 64), the entire
//!   [`BatchOutcome`] for plain and fault-recovered batches, and the
//!   per-session results for durable batches (the committed/relaunched
//!   split of a mid-batch crash is the one thing host interleaving may
//!   legitimately move on the thread pool);
//! * serially, the **machine trace** too — with one CPU the event
//!   timeline degenerates to the serial schedule, so the discrete-event
//!   backend must reproduce the thread pool's trace byte for byte;
//! * recording-sink snapshots (spans, counters, histograms) across
//!   backends *and* worker counts;
//! * the acceptance scenario: a durable batch on 1024 virtual CPUs in
//!   one process, quotes byte-identical to the 4-worker thread-pool
//!   run, with the discrete-event schedule reproducible run to run
//!   down to the trace.

use sea_core::{
    BatchOutcome, BatchPolicy, ConcurrentJob, Executor, FnPal, PalOutcome, RetryPolicy,
    SecurePlatform, SessionEngine, SessionResult, Slaunch,
};
use sea_hw::{CpuId, FaultPlan, Obs, ObsSnapshot, Platform, ResetPlan, SimDuration, RATE_DENOM};
use sea_tpm::KeyStrength;

const JOBS: usize = 16;
const DIFF_SEED: u64 = 0xD1FF;

/// Worker counts the differential sweeps cover. 64 exceeds most hosts'
/// core counts — the thread pool still runs it (threads just share
/// cores), which is exactly the regime the event queue replaces.
const WORKER_COUNTS: [usize; 3] = [1, 4, 64];

fn engine(n_cpus: u16, workers: usize, executor: Executor) -> SessionEngine<Slaunch> {
    let platform = SecurePlatform::new(
        Platform::recommended(n_cpus),
        KeyStrength::Demo512,
        b"exec-diff",
    );
    SessionEngine::new(platform, workers)
        .expect("pool fits platform")
        .with_executor(executor)
}

/// The chaos-style plan: hot transient faults plus a fatal fraction,
/// so retries, backoff, and kills are all on the differential surface.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(DIFF_SEED)
        .with_tpm_rate(9000)
        .with_mem_rate(3000)
        .with_timer_rate(3000)
        .with_fatal_ratio(RATE_DENOM / 8)
}

/// The crash-style plan: transient-only, so every session survives to
/// a commit and the cut decides its fate.
fn transient_plan() -> FaultPlan {
    FaultPlan::new(DIFF_SEED)
        .with_tpm_rate(6000)
        .with_mem_rate(6000)
        .with_timer_rate(6000)
        .with_fatal_ratio(0)
}

/// Restartable yield-twice jobs (step state in the PAL's region, so
/// relaunched sessions replay from step one).
fn batch() -> Vec<ConcurrentJob> {
    (0..JOBS)
        .map(|i| {
            ConcurrentJob::new(
                Box::new(FnPal::new(&format!("diff-{i}"), move |ctx| {
                    ctx.work(SimDuration::from_us(40 * (1 + (i as u64 % 4))));
                    let done = ctx.state().first().copied().unwrap_or(0) + 1;
                    ctx.set_state(vec![done]);
                    if done == 3 {
                        Ok(PalOutcome::Exit(i.to_le_bytes().to_vec()))
                    } else {
                        Ok(PalOutcome::Yield)
                    }
                })),
                b"",
            )
        })
        .collect()
}

/// Runs one configuration and returns the outcome plus the machine
/// trace dump.
fn run(
    n_cpus: u16,
    workers: usize,
    executor: Executor,
    faults: Option<FaultPlan>,
    policy: &BatchPolicy,
) -> (BatchOutcome, String) {
    let mut pool = engine(n_cpus, workers, executor);
    pool.set_fault_plan(faults);
    let out = pool.run(batch(), policy).expect("differential batch runs");
    let sea = pool.into_inner();
    let mut trace = String::new();
    for (t, e) in sea.platform().machine().trace().iter() {
        trace.push_str(&format!("{} {e:?}\n", t.as_ns()));
    }
    (out, trace)
}

/// Clears the worker-assignment field for cross-worker-count
/// comparisons.
fn normalize(mut sessions: Vec<SessionResult>) -> Vec<SessionResult> {
    for s in &mut sessions {
        if let SessionResult::Quoted { result, .. } = s {
            result.cpu = CpuId(0);
        }
    }
    sessions
}

/// Fault chaos on both backends: at every worker count the entire
/// outcome — sessions (same static CPU assignment), per-CPU busy time,
/// wall clock, tallies — is byte-identical.
#[test]
fn chaos_batch_agrees_across_executors_at_every_worker_count() {
    let policy = BatchPolicy::plain().with_retry(RetryPolicy::default());
    for workers in WORKER_COUNTS {
        let (threads, _) = run(
            64,
            workers,
            Executor::ThreadPool,
            Some(chaos_plan()),
            &policy,
        );
        let (des, _) = run(
            64,
            workers,
            Executor::DiscreteEvent,
            Some(chaos_plan()),
            &policy,
        );
        assert!(
            threads
                .sessions
                .iter()
                .any(|s| matches!(s, SessionResult::Quoted { retries, .. } if *retries > 0)),
            "chaos plan never bit at {workers} workers"
        );
        assert_eq!(
            threads, des,
            "chaos outcome diverged across executors at {workers} workers"
        );
    }
}

/// Plain fault-free batches agree the same way.
#[test]
fn plain_batch_agrees_across_executors_at_every_worker_count() {
    for workers in WORKER_COUNTS {
        let (threads, _) = run(
            64,
            workers,
            Executor::ThreadPool,
            None,
            &BatchPolicy::plain(),
        );
        let (des, _) = run(
            64,
            workers,
            Executor::DiscreteEvent,
            None,
            &BatchPolicy::plain(),
        );
        assert_eq!(
            threads, des,
            "plain outcome diverged across executors at {workers} workers"
        );
    }
}

/// Serially the timelines coincide exactly: the one-worker machine
/// trace — every TPM command, range protection, secure enter/leave,
/// with timestamps — is byte-identical across backends.
#[test]
fn serial_machine_trace_is_byte_identical_across_executors() {
    let policy = BatchPolicy::plain().with_retry(RetryPolicy::default());
    let (_, thread_trace) = run(4, 1, Executor::ThreadPool, Some(chaos_plan()), &policy);
    let (_, des_trace) = run(4, 1, Executor::DiscreteEvent, Some(chaos_plan()), &policy);
    assert!(!thread_trace.is_empty(), "serial batch must leave a trace");
    assert_eq!(
        thread_trace, des_trace,
        "serial machine trace diverged across executors"
    );
}

/// Crash-point cuts: yank the cord after a fixed number of trace
/// events under both backends. Serially the whole outcome and trace
/// must coincide; at higher worker counts the per-session results must
/// (which sessions had committed when the plug was pulled is the one
/// interleaving-dependent quantity on the thread pool).
#[test]
fn crash_point_cuts_agree_across_executors() {
    // Total event count of the crash-free run bounds the cut range.
    let recovering = BatchPolicy::plain().with_retry(RetryPolicy::default());
    let (_, reference_trace) = run(
        4,
        1,
        Executor::ThreadPool,
        Some(transient_plan()),
        &recovering,
    );
    let total = reference_trace.lines().count() as u64;
    assert!(total > 8, "reference run too quiet to cut against");

    for cut in [1, total / 3, total / 2, total - 1] {
        let durable = BatchPolicy::plain()
            .with_retry(RetryPolicy::default())
            .with_durability(ResetPlan::reset_free().with_cut_after_events(cut));
        let (t1, t1_trace) = run(4, 1, Executor::ThreadPool, Some(transient_plan()), &durable);
        let (d1, d1_trace) = run(
            4,
            1,
            Executor::DiscreteEvent,
            Some(transient_plan()),
            &durable,
        );
        assert_eq!(t1, d1, "serial cut {cut}: outcome diverged");
        assert_eq!(t1_trace, d1_trace, "serial cut {cut}: trace diverged");

        for workers in [4, 64] {
            let (tw, _) = run(
                64,
                workers,
                Executor::ThreadPool,
                Some(transient_plan()),
                &durable,
            );
            let (dw, _) = run(
                64,
                workers,
                Executor::DiscreteEvent,
                Some(transient_plan()),
                &durable,
            );
            assert_eq!(
                tw.sessions, dw.sessions,
                "cut {cut} at {workers} workers: sessions diverged"
            );
            assert_eq!(
                normalize(t1.sessions.clone()),
                normalize(tw.sessions),
                "cut {cut}: worker count leaked into session results"
            );
        }
    }
}

/// Observability snapshots — spans, counters, layer histograms — are
/// byte-identical across backends and worker counts for the recovered
/// chaos batch.
#[test]
fn observability_snapshots_agree_across_executors() {
    fn snapshot(workers: usize, executor: Executor) -> ObsSnapshot {
        let mut platform =
            SecurePlatform::new(Platform::recommended(8), KeyStrength::Demo512, b"exec-diff");
        let (obs, sink) = Obs::recording();
        platform.install_obs(obs);
        let mut pool = SessionEngine::<Slaunch>::new(platform, workers)
            .expect("pool fits")
            .with_executor(executor);
        pool.set_fault_plan(Some(chaos_plan()));
        pool.run(
            batch(),
            &BatchPolicy::plain().with_retry(RetryPolicy::default()),
        )
        .expect("batch runs");
        sink.snapshot()
    }

    let reference = snapshot(1, Executor::ThreadPool);
    assert!(
        reference.counter("core.retries") > 0,
        "chaos plan never bit"
    );
    for workers in [1, 4, 8] {
        for executor in [Executor::ThreadPool, Executor::DiscreteEvent] {
            assert_eq!(
                reference,
                snapshot(workers, executor),
                "snapshot diverged at {workers} workers on {executor:?}"
            );
        }
    }
}

/// The discrete-event schedule is reproducible run to run even where
/// the thread pool's is not: at 64 virtual CPUs the full outcome *and*
/// the machine trace of a faulted durable batch come back byte-identical.
#[test]
fn des_schedule_is_deterministic_at_64_virtual_cpus() {
    let durable = BatchPolicy::plain()
        .with_retry(RetryPolicy::default())
        .with_durability(
            ResetPlan::new(DIFF_SEED)
                .with_reset_rate(RATE_DENOM / 4)
                .with_max_resets(2),
        );
    let (a, a_trace) = run(
        64,
        64,
        Executor::DiscreteEvent,
        Some(transient_plan()),
        &durable,
    );
    let (b, b_trace) = run(
        64,
        64,
        Executor::DiscreteEvent,
        Some(transient_plan()),
        &durable,
    );
    assert!(a.resets >= 1, "reset plan must pull the plug");
    assert_eq!(a, b, "discrete-event outcome not reproducible");
    assert_eq!(a_trace, b_trace, "discrete-event trace not reproducible");
}

/// Acceptance: one process models a 1024-virtual-CPU platform running
/// a durable faulted batch — far past any host's core count — and
/// every worker-count-invariant output (quotes byte for byte, outputs,
/// reports, retry counts) matches the 4-worker thread-pool run on the
/// same platform. The discrete-event replay itself is byte-identical
/// run to run, ledger and trace included.
#[test]
fn acceptance_durable_batch_on_1024_virtual_cpus() {
    let durable = BatchPolicy::plain()
        .with_retry(RetryPolicy::default())
        .with_durability(
            ResetPlan::new(DIFF_SEED)
                .with_reset_rate(RATE_DENOM / 4)
                .with_max_resets(2),
        );
    let (threads, _) = run(
        1024,
        4,
        Executor::ThreadPool,
        Some(transient_plan()),
        &durable,
    );
    let (des, des_trace) = run(
        1024,
        1024,
        Executor::DiscreteEvent,
        Some(transient_plan()),
        &durable,
    );
    assert_eq!(des.sessions.len(), JOBS);
    assert_eq!(des.quoted(), threads.quoted());
    assert_eq!(
        normalize(threads.sessions.clone()),
        normalize(des.sessions.clone()),
        "1024-vCPU results diverged from the thread pool's"
    );
    for (i, (t, d)) in threads.sessions.iter().zip(&des.sessions).enumerate() {
        if let (SessionResult::Quoted { quote: tq, .. }, SessionResult::Quoted { quote: dq, .. }) =
            (t, d)
        {
            assert_eq!(tq, dq, "session {i}: quote bytes diverged");
        }
    }
    // With 16 jobs on 1024 CPUs every session runs on its own virtual
    // CPU; the assignment stays `i % workers`.
    for (i, s) in des.sessions.iter().enumerate() {
        if let SessionResult::Quoted { result, .. } = s {
            assert_eq!(result.cpu, CpuId(i as u16), "session {i} on wrong vCPU");
        }
    }
    let (again, again_trace) = run(
        1024,
        1024,
        Executor::DiscreteEvent,
        Some(transient_plan()),
        &durable,
    );
    assert_eq!(des, again, "1024-vCPU ledger not reproducible");
    assert_eq!(des_trace, again_trace, "1024-vCPU trace not reproducible");
}
