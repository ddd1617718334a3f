//! Golden differential suite for the batch engine.
//!
//! The `durable_*` files under `tests/golden/` were recorded from the
//! engine as it stood *before* the unified `SessionEngine` refactor:
//! one pinned-seed faulted + reset batch, dumped session by session
//! (outputs, reports, quotes, retry counts, terminal variants) at one
//! worker and at four, plus the full platform ledger (reset history,
//! recovery latency, journal overhead, wall time, machine trace) for
//! the serial run, where host interleaving cannot perturb it. The
//! `plain_*` and `recovered_*` files extend the oracle to the other two
//! batch paths — fault-free and faulted-with-retries — with ledgers at
//! both worker counts (those paths never reset, so their ledgers are
//! deterministic even at four workers; only the serial ledgers carry
//! the machine trace).
//!
//! Every test replays its scenario on **both** executors — the
//! thread-pool backend and the discrete-event backend — and asserts
//! each reproduces the same recording **byte-identically**. Any drift
//! in fault rolls, retry accounting, journal commit gates, quote bytes,
//! clock folding, or event-queue scheduling shows up as a diff against
//! the recording, not as a silent behavior change.
//!
//! Set `SEA_GOLDEN_REGEN=1` to re-record (only after deliberately
//! changing engine semantics — the diff is the review artifact).

use sea_core::{
    BatchOutcome, BatchPolicy, ConcurrentJob, Executor, FnPal, PalOutcome, RetryPolicy,
    SecurePlatform, SessionEngine, SessionResult, Slaunch,
};
use sea_hw::{FaultPlan, Platform, ResetPlan, SimDuration, RATE_DENOM};
use sea_tpm::KeyStrength;

const JOBS: usize = 12;
const GOLDEN_SEED: u64 = 0x601D;

/// Both backends, thread pool first (the historical recording source).
const EXECUTORS: [Executor; 2] = [Executor::ThreadPool, Executor::DiscreteEvent];

fn fault_plan() -> FaultPlan {
    FaultPlan::new(GOLDEN_SEED)
        .with_tpm_rate(9000)
        .with_mem_rate(3000)
        .with_timer_rate(3000)
        .with_fatal_ratio(RATE_DENOM / 8)
}

fn reset_plan() -> ResetPlan {
    ResetPlan::new(GOLDEN_SEED)
        .with_reset_rate(RATE_DENOM / 4)
        .with_max_resets(2)
}

/// Restartable yield-twice jobs: step state lives in the PAL's region
/// (evaporates on reset), so relaunched sessions replay from step one.
fn batch() -> Vec<ConcurrentJob> {
    (0..JOBS)
        .map(|i| {
            ConcurrentJob::new(
                Box::new(FnPal::new(&format!("gold-{i}"), move |ctx| {
                    ctx.work(SimDuration::from_us(25 * (1 + (i as u64 % 5))));
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

/// The three recorded batch paths.
#[derive(Clone, Copy)]
enum Scenario {
    /// Fault-free, no retries, no journal.
    Plain,
    /// The golden fault tape absorbed by the default retry policy.
    Recovered,
    /// Faults plus the golden power-loss tape through the journal.
    Durable,
}

impl Scenario {
    fn policy(self) -> BatchPolicy {
        match self {
            Scenario::Plain => BatchPolicy::plain(),
            Scenario::Recovered => BatchPolicy::plain().with_retry(RetryPolicy::default()),
            Scenario::Durable => BatchPolicy::plain()
                .with_retry(RetryPolicy::default())
                .with_durability(reset_plan()),
        }
    }

    fn faults(self) -> Option<FaultPlan> {
        match self {
            Scenario::Plain => None,
            Scenario::Recovered | Scenario::Durable => Some(fault_plan()),
        }
    }
}

/// Runs the pinned scenario on the given backend and returns the
/// outcome plus a dump of the machine trace (only recorded serially,
/// where it is deterministic under both executors).
fn run(workers: usize, executor: Executor, scenario: Scenario) -> (BatchOutcome, String) {
    let platform = SecurePlatform::new(Platform::recommended(4), KeyStrength::Demo512, b"golden");
    let mut pool = SessionEngine::<Slaunch>::new(platform, workers)
        .expect("pool fits platform")
        .with_executor(executor);
    pool.set_fault_plan(scenario.faults());
    let out = pool
        .run(batch(), &scenario.policy())
        .expect("golden batch runs");
    let sea = pool.into_inner();
    let mut trace = String::new();
    for (t, e) in sea.platform().machine().trace().iter() {
        trace.push_str(&format!("{} {e:?}\n", t.as_ns()));
    }
    (out, trace)
}

/// Per-session dump: everything worker-count-invariant (the CPU a job
/// lands on is `i % workers`, so it is fixed *per worker count* and the
/// recordings at different counts legitimately differ in that field).
fn dump_sessions(sessions: &[SessionResult]) -> String {
    let mut s = String::new();
    for (i, r) in sessions.iter().enumerate() {
        s.push_str(&format!("== session {i} ==\n{r:#?}\n"));
    }
    s
}

/// Platform ledger: reset history and clock folding. The machine trace
/// rides along only in the serial recordings; at four workers the
/// thread pool's trace order depends on host interleaving (the
/// discrete-event backend's does not, but the recordings must hold for
/// both).
fn dump_ledger(out: &BatchOutcome, trace: Option<&str>) -> String {
    let busy: Vec<u64> = out.cpu_busy.iter().map(|d| d.as_ns()).collect();
    let mut s = format!(
        "resets={}\ncommitted={:?}\nrelaunched={:?}\nrecovery_latency_ns={}\n\
         journal_overhead_ns={}\nwall_ns={}\ncpu_busy_ns={busy:?}\n",
        out.resets,
        out.committed,
        out.relaunched,
        out.recovery_latency.as_ns(),
        out.journal_overhead.as_ns(),
        out.wall.as_ns(),
    );
    if let Some(trace) = trace {
        s.push_str(&format!("== trace ==\n{trace}"));
    }
    s
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Checks (or, under `SEA_GOLDEN_REGEN=1`, records) one golden file.
/// Recording happens only from the thread-pool replay — the historical
/// source of every recording; the discrete-event replay must then match
/// the freshly-recorded bytes too.
fn check(name: &str, executor: Executor, actual: &str) {
    let path = golden_path(name);
    if std::env::var("SEA_GOLDEN_REGEN").is_ok() && executor == Executor::ThreadPool {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir tests/golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e} (SEA_GOLDEN_REGEN=1 to record)",
            name
        )
    });
    assert_eq!(
        actual, expected,
        "{name}: {executor:?} output diverged from the recording"
    );
}

/// One scenario at one worker count, replayed on both backends against
/// the same recordings. `ledger_trace` records the machine trace into
/// the ledger (serial runs only); `ledger` can be off entirely (the
/// durable split at four workers is interleaving-dependent on the
/// thread pool).
fn golden_case(prefix: &str, workers: usize, scenario: Scenario, ledger: bool, trace: bool) {
    for executor in EXECUTORS {
        let (out, trace_dump) = run(workers, executor, scenario);
        check(
            &format!("{prefix}_sessions.txt"),
            executor,
            &dump_sessions(&out.sessions),
        );
        if ledger {
            let trace = trace.then_some(trace_dump.as_str());
            check(
                &format!("{prefix}_ledger.txt"),
                executor,
                &dump_ledger(&out, trace),
            );
        }
    }
}

#[test]
fn golden_faulted_reset_batch_one_worker() {
    let (out, _) = run(1, Executor::ThreadPool, Scenario::Durable);
    assert!(out.resets >= 1, "golden plan must pull the plug");
    golden_case("durable_w1", 1, Scenario::Durable, true, true);
}

#[test]
fn golden_faulted_reset_batch_four_workers() {
    golden_case("durable_w4", 4, Scenario::Durable, false, false);
}

#[test]
fn golden_plain_batch_one_worker() {
    golden_case("plain_w1", 1, Scenario::Plain, true, true);
}

#[test]
fn golden_plain_batch_four_workers() {
    golden_case("plain_w4", 4, Scenario::Plain, true, false);
}

#[test]
fn golden_recovered_batch_one_worker() {
    let (out, _) = run(1, Executor::ThreadPool, Scenario::Recovered);
    assert!(
        out.sessions
            .iter()
            .any(|s| matches!(s, SessionResult::Quoted { retries, .. } if *retries > 0)),
        "golden fault tape must force at least one retry"
    );
    golden_case("recovered_w1", 1, Scenario::Recovered, true, true);
}

#[test]
fn golden_recovered_batch_four_workers() {
    golden_case("recovered_w4", 4, Scenario::Recovered, true, false);
}

/// The recordings must agree wherever worker count cannot matter: same
/// terminal variant, output, report, quote, and retry count per session
/// — only the CPU field may differ.
#[test]
fn golden_recordings_agree_across_worker_counts() {
    let read = |name: &str| {
        std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"))
    };
    if std::env::var("SEA_GOLDEN_REGEN").is_ok() {
        return; // files may be mid-rewrite
    }
    // `cpu: CpuId(n)` pretty-prints across three lines; drop them all.
    let strip_cpu = |s: String| {
        let mut kept = Vec::new();
        let mut skip = 0usize;
        for l in s.lines() {
            if skip > 0 {
                skip -= 1;
                continue;
            }
            if l.trim_start().starts_with("cpu:") {
                skip = 2;
                continue;
            }
            kept.push(l);
        }
        kept.join("\n")
    };
    for prefix in ["durable", "plain", "recovered"] {
        assert_eq!(
            strip_cpu(read(&format!("{prefix}_w1_sessions.txt"))),
            strip_cpu(read(&format!("{prefix}_w4_sessions.txt"))),
            "{prefix}: worker count leaked into worker-count-invariant session data"
        );
    }
}
