//! Determinism regression tests for the concurrent session engine.
//!
//! The contract under test: running the paper's experiments — and raw
//! PAL batches — across a worker pool produces **byte-identical**
//! results to running them serially, at any worker count. Costs are
//! intrinsic to each job (the engine pins the TPM to nominal timing),
//! assignment is static, and results are collected in job-index order,
//! so thread interleaving must never leak into an output.

use sea_bench::driver::{run_suite_parallel, run_suite_serial, SuiteConfig};
use sea_core::{
    BatchPolicy, ConcurrentJob, FnPal, PalOutcome, RetryPolicy, SecurePlatform, SessionEngine,
    SessionResult, Slaunch,
};
use sea_hw::{CpuId, FaultPlan, Platform, SimDuration};
use sea_tpm::KeyStrength;

// ---------------------------------------------------------------------
// Experiment suite: serial vs 4-worker parallel, byte for byte
// ---------------------------------------------------------------------

#[test]
fn suite_serial_and_parallel_are_byte_identical() {
    let cfg = SuiteConfig::smoke();
    let serial = run_suite_serial(&cfg);
    let parallel = run_suite_parallel(&cfg, 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name);
        assert_eq!(
            s.rendered.as_bytes(),
            p.rendered.as_bytes(),
            "{} diverged between serial and parallel runs",
            s.name
        );
    }
    // The two ISSUE-mandated artifacts are in the suite and non-trivial.
    let table1 = serial.iter().find(|a| a.name == "Table 1").unwrap();
    let figure2 = serial.iter().find(|a| a.name == "Figure 2").unwrap();
    assert!(table1.rendered.contains("177.52"));
    assert!(figure2.rendered.contains("PAL Use"));
}

// ---------------------------------------------------------------------
// Concurrent engine: 16 workers vs 1 worker, identical batch results
// ---------------------------------------------------------------------

fn batch(n: usize) -> Vec<ConcurrentJob> {
    (0..n)
        .map(|i| {
            let work = SimDuration::from_us(10 * (1 + (i as u64 % 5)));
            ConcurrentJob::new(
                Box::new(FnPal::new(&format!("det-{i}"), move |ctx| {
                    ctx.work(work);
                    Ok(PalOutcome::Exit(i.to_le_bytes().to_vec()))
                })),
                b"",
            )
        })
        .collect()
}

fn run(workers: usize, jobs: usize) -> Vec<(Vec<u8>, SimDuration)> {
    let platform = SecurePlatform::new(
        Platform::recommended(16),
        KeyStrength::Demo512,
        b"determinism",
    );
    let mut sea = SessionEngine::<Slaunch>::new(platform, workers).expect("pool fits");
    let out = sea
        .run(batch(jobs), &BatchPolicy::plain())
        .expect("batch runs");
    out.sessions
        .into_iter()
        .map(|s| match s {
            SessionResult::Quoted { result, .. } => {
                (result.output, result.report.total() + result.quote_cost)
            }
            other => panic!("plain batch must quote every session, got {other:?}"),
        })
        .collect()
}

#[test]
fn sixteen_worker_batch_matches_serial_batch() {
    let serial = run(1, 32);
    let parallel = run(16, 32);
    assert_eq!(serial, parallel);
}

// ---------------------------------------------------------------------
// Recovery layer: serial vs parallel under the same fault tape
// ---------------------------------------------------------------------

fn run_recovered(workers: usize, jobs: usize, plan: FaultPlan) -> Vec<SessionResult> {
    let platform = SecurePlatform::new(
        Platform::recommended(16),
        KeyStrength::Demo512,
        b"determinism",
    );
    let mut sea = SessionEngine::<Slaunch>::new(platform, workers).expect("pool fits");
    sea.set_fault_plan(Some(plan));
    let out = sea
        .run(
            batch(jobs),
            &BatchPolicy::plain().with_retry(RetryPolicy::default()),
        )
        .expect("batch runs");
    // Which CPU a job landed on is a function of the worker count, not
    // of the recovery outcome — normalize it before comparing.
    out.sessions
        .into_iter()
        .map(|mut s| {
            if let SessionResult::Quoted { result, .. } = &mut s {
                result.cpu = CpuId(0);
            }
            s
        })
        .collect()
}

/// Satellite: the differential test. Fault decisions are keyed by the
/// job's batch index and a per-session roll counter — never by thread
/// interleaving — so a serial run and a 4-worker run of the same batch
/// under the same fault tape must retry, degrade, and kill *the same
/// sessions with the same outcomes*.
#[test]
fn recovery_outcomes_identical_serial_vs_parallel_under_same_fault_tape() {
    for (seed, tpm_rate, fatal_ratio) in [
        (3, 5000, 0),
        (9, 9000, sea_hw::RATE_DENOM / 4),
        (21, 15_000, sea_hw::RATE_DENOM),
    ] {
        let plan = || {
            FaultPlan::new(seed)
                .with_tpm_rate(tpm_rate)
                .with_mem_rate(3000)
                .with_timer_rate(3000)
                .with_fatal_ratio(fatal_ratio)
        };
        let serial = run_recovered(1, 16, plan());
        let parallel = run_recovered(4, 16, plan());
        assert_eq!(
            serial, parallel,
            "recovery outcomes diverged for seed {seed}"
        );
    }
}
