//! The experiment suite driver: every paper artifact rendered to a
//! string **and** aggregated into structured metrics, runnable serially
//! or across a worker pool with **byte-identical** output either way.
//!
//! Each experiment is self-contained — it builds its own platform and
//! TPMs from fixed seeds, plus its own recording observability sink —
//! so the unit of parallelism is the whole artifact. Jobs are assigned
//! statically (job *i* → worker *i* mod `workers`) and collected in
//! job-index order, which makes [`run_suite_parallel`] byte-identical
//! to [`run_suite_serial`] at any worker count: no shared mutable state
//! crosses a thread boundary, so the interleaving cannot leak into the
//! rendered text or the metrics.
//!
//! Alongside the plain-text report, [`suite_json`] serializes the
//! structured rows as the versioned `BENCH_suite.json` artifact
//! (schema: [`SUITE_SCHEMA_VERSION`]), which [`validate_suite_json`]
//! checks — CI fails if the file is missing, unparseable, or its
//! per-layer attribution stops summing to each experiment's total.
//!
//! The `suite` binary drives this module; `tests/parallel_determinism.rs`
//! and `tests/observability.rs` assert the byte-identity contract.

use sea_hw::{Layer, Obs, SimDuration};
use sea_tpm::TpmOp;

use crate::experiments::{
    churn_sweep, crash_sweep, fault_sweep, figure2, figure3, figure3_tpms, fleet_sweep, scale,
    table1, table2, throughput, vm_dispatch, vm_quotes_identical_across_executors, ChurnPoint,
    CrashSweepPoint, FaultSweepPoint, Figure2Bar, Figure3Cell, FleetPoint, ScalePoint, Table1Row,
    ThroughputPoint, VmPoint, CHURN_PLATFORMS, CHURN_SEED, CRASH_SWEEP_SEED, FAULT_SWEEP_SEED,
    FLEET_SEED, FLEET_SHARDS, PAL_SIZES, SCALE_SEED,
};
use crate::format::{ms, render_table, us};
use crate::json::Json;
use crate::metrics::ExperimentMetrics;

/// Figure 2 session runs used by the full-size suite (the binary's 100).
pub const FIGURE2_RUNS: usize = 100;
/// Figure 3 trials used by the full-size suite (the paper's 20).
pub const FIGURE3_TRIALS: usize = 20;
/// Worker counts the throughput artifact sweeps.
pub const THROUGHPUT_CORES: [usize; 4] = [1, 2, 4, 8];
/// TPM-transport fault rates the fault-sweep artifact sweeps
/// (per-roll probability numerators over [`sea_hw::RATE_DENOM`]).
pub const FAULT_SWEEP_RATES: [u32; 5] = [0, 1000, 4000, 8000, 16_000];
/// Worker threads the fault-sweep artifact uses.
pub const FAULT_SWEEP_WORKERS: usize = 4;
/// Power-loss rates the crash-sweep artifact sweeps (per-commit
/// probability numerators over [`sea_hw::RATE_DENOM`]).
pub const CRASH_SWEEP_RATES: [u32; 4] = [0, 4000, 16_000, 32_000];
/// Worker threads the crash-sweep artifact uses. One worker keeps the
/// rendered table byte-identical run to run: with more, which sessions
/// had already committed when the plug is pulled depends on host thread
/// interleaving, so the committed/relaunched split (never the final
/// results) could vary between runs.
pub const CRASH_SWEEP_WORKERS: usize = 1;
/// Virtual-CPU counts the scale artifact sweeps on the discrete-event
/// executor — the largest far past any host's physical core count.
pub const SCALE_CPUS: [usize; 5] = [4, 16, 64, 256, 1024];
/// Fleet sizes (platform counts) the fleet artifact sweeps.
pub const FLEET_PLATFORMS: [usize; 4] = [1, 4, 16, 64];
/// Churn intensities the churn artifact sweeps (parts per
/// [`sea_hw::RATE_DENOM`]; every fault family scales with the
/// intensity — see [`crate::experiments::churn_plan`]).
pub const CHURN_RATES: [u32; 4] = [0, 2000, 8000, 20_000];

/// Schema version of the `BENCH_suite.json` artifact. Bump on any
/// field rename/removal; additions are backward-compatible.
pub const SUITE_SCHEMA_VERSION: u64 = 1;

/// How much work the suite gives each artifact; shrink it for tests.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Figure 2 session runs to average over.
    pub figure2_runs: usize,
    /// Figure 3 trials per TPM × operation cell.
    pub figure3_trials: usize,
    /// Sessions per batch in the throughput sweep.
    pub throughput_jobs: usize,
    /// Sessions per batch in the fault sweep.
    pub fault_jobs: usize,
    /// Sessions per batch in the crash sweep.
    pub crash_jobs: usize,
    /// Sessions per batch in the virtual-CPU scale sweep.
    pub scale_jobs: usize,
    /// Attestation requests per fleet in the fleet sweep.
    pub fleet_requests: usize,
    /// Attestation requests per fleet in the churn sweep.
    pub churn_requests: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            figure2_runs: FIGURE2_RUNS,
            figure3_trials: FIGURE3_TRIALS,
            throughput_jobs: 16,
            fault_jobs: 16,
            crash_jobs: 16,
            scale_jobs: 2048,
            fleet_requests: 512,
            churn_requests: 128,
        }
    }
}

impl SuiteConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        SuiteConfig {
            figure2_runs: 2,
            figure3_trials: 3,
            throughput_jobs: 8,
            fault_jobs: 8,
            crash_jobs: 8,
            scale_jobs: 256,
            fleet_requests: 32,
            churn_requests: 16,
        }
    }
}

/// One paper artifact: the rendered plain-text table/figure plus the
/// structured metrics aggregated from its instrumented run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Artifact name ("Table 1", "Figure 2", ...).
    pub name: String,
    /// The rendered plain-text table/figure.
    pub rendered: String,
    /// Per-layer latency attribution, counters, and experiment inputs.
    pub metrics: ExperimentMetrics,
}

type Job = (
    &'static str,
    Box<dyn FnOnce() -> (String, ExperimentMetrics) + Send>,
);

/// Runs one experiment under a fresh recording sink and aggregates the
/// snapshot, tagging the metrics with the experiment's integer inputs.
fn observed<T>(
    run: impl FnOnce(Obs) -> T,
    render: impl FnOnce(&T) -> String,
    scalars: &[(&'static str, u64)],
) -> (String, ExperimentMetrics) {
    let (obs, sink) = Obs::recording();
    let data = run(obs);
    let mut metrics =
        ExperimentMetrics::from_snapshot(&sink.snapshot()).with_locks(&sink.lock_stats());
    for &(name, value) in scalars {
        metrics = metrics.with_scalar(name, value);
    }
    (render(&data), metrics)
}

fn suite_jobs(cfg: &SuiteConfig) -> Vec<Job> {
    let SuiteConfig {
        figure2_runs,
        figure3_trials,
        throughput_jobs,
        fault_jobs,
        crash_jobs,
        scale_jobs,
        fleet_requests,
        churn_requests,
    } = *cfg;
    vec![
        (
            "Table 1",
            Box::new(|| observed(table1, |rows| render_table1_rows(rows), &[])),
        ),
        (
            "Table 2",
            // Table 2 reads the virtualization cost model without
            // executing anything, so its attribution is legitimately
            // all-zero.
            Box::new(|| (render_table2(), ExperimentMetrics::default())),
        ),
        (
            "Figure 2",
            Box::new(move || {
                observed(
                    |obs| figure2(figure2_runs, obs),
                    |bars| render_figure2_bars(bars, figure2_runs),
                    &[("runs", figure2_runs as u64)],
                )
            }),
        ),
        (
            "Figure 3",
            Box::new(move || {
                observed(
                    |obs| figure3(figure3_trials, obs),
                    |cells| render_figure3_cells(cells, figure3_trials),
                    &[("trials", figure3_trials as u64)],
                )
            }),
        ),
        (
            "Throughput",
            Box::new(move || {
                let work = SimDuration::from_ms(10);
                observed(
                    |obs| throughput(&THROUGHPUT_CORES, throughput_jobs, work, obs),
                    |points| render_throughput_points(points, throughput_jobs, work),
                    &[("jobs", throughput_jobs as u64), ("work_ns", work.as_ns())],
                )
            }),
        ),
        (
            "Fault sweep",
            Box::new(move || {
                let work = SimDuration::from_ms(10);
                observed(
                    |obs| {
                        fault_sweep(
                            &FAULT_SWEEP_RATES,
                            fault_jobs,
                            work,
                            FAULT_SWEEP_WORKERS,
                            obs,
                        )
                    },
                    |points| {
                        render_fault_sweep_points(points, fault_jobs, work, FAULT_SWEEP_WORKERS)
                    },
                    &[
                        ("jobs", fault_jobs as u64),
                        ("workers", FAULT_SWEEP_WORKERS as u64),
                        ("seed", FAULT_SWEEP_SEED),
                    ],
                )
            }),
        ),
        (
            "Crash sweep",
            Box::new(move || {
                let work = SimDuration::from_ms(10);
                observed(
                    |obs| {
                        crash_sweep(
                            &CRASH_SWEEP_RATES,
                            crash_jobs,
                            work,
                            CRASH_SWEEP_WORKERS,
                            obs,
                        )
                    },
                    |points| {
                        render_crash_sweep_points(points, crash_jobs, work, CRASH_SWEEP_WORKERS)
                    },
                    &[
                        ("jobs", crash_jobs as u64),
                        ("workers", CRASH_SWEEP_WORKERS as u64),
                        ("seed", CRASH_SWEEP_SEED),
                    ],
                )
            }),
        ),
        (
            "Scale",
            Box::new(move || {
                let work = SimDuration::from_ms(10);
                observed(
                    |obs| scale(&SCALE_CPUS, scale_jobs, work, obs),
                    |points| render_scale_points(points, scale_jobs, work),
                    &[
                        ("jobs", scale_jobs as u64),
                        ("work_ns", work.as_ns()),
                        ("seed", SCALE_SEED),
                    ],
                )
            }),
        ),
        (
            "Fleet",
            Box::new(move || {
                observed(
                    |obs| fleet_sweep(&FLEET_PLATFORMS, fleet_requests, obs),
                    |points| render_fleet_points(points, fleet_requests),
                    &[
                        ("requests", fleet_requests as u64),
                        ("shards", FLEET_SHARDS as u64),
                        ("seed", FLEET_SEED),
                    ],
                )
            }),
        ),
        (
            "Churn",
            Box::new(move || {
                observed(
                    |obs| churn_sweep(&CHURN_RATES, churn_requests, obs),
                    |points| render_churn_points(points, churn_requests),
                    &[
                        ("requests", churn_requests as u64),
                        ("platforms", CHURN_PLATFORMS as u64),
                        ("seed", CHURN_SEED),
                    ],
                )
            }),
        ),
        (
            "VM",
            Box::new(|| {
                let identical = vm_quotes_identical_across_executors();
                observed(
                    vm_dispatch,
                    |points| render_vm_points(points, identical),
                    &[("executors_identical", identical as u64)],
                )
            }),
        ),
    ]
}

/// Runs every suite artifact in order on the calling thread.
pub fn run_suite_serial(cfg: &SuiteConfig) -> Vec<Artifact> {
    suite_jobs(cfg)
        .into_iter()
        .map(|(name, f)| {
            let (rendered, metrics) = f();
            Artifact {
                name: name.to_string(),
                rendered,
                metrics,
            }
        })
        .collect()
}

/// Runs the same artifacts across `workers` threads. Output — rendered
/// text and metrics alike — is byte-identical to [`run_suite_serial`]:
/// assignment is static (job *i* → worker *i* mod `workers`), results
/// are collected by job index, and every artifact records into its own
/// sink.
///
/// # Panics
///
/// Panics if a worker thread panics (an experiment itself failed).
pub fn run_suite_parallel(cfg: &SuiteConfig, workers: usize) -> Vec<Artifact> {
    let jobs = suite_jobs(cfg);
    let n = jobs.len();
    let workers = workers.clamp(1, n);
    let mut per_worker: Vec<Vec<(usize, Job)>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        per_worker[i % workers].push((i, job));
    }
    let mut slots: Vec<Option<Artifact>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .map(|assigned| {
                s.spawn(move || {
                    assigned
                        .into_iter()
                        .map(|(i, (name, f))| {
                            let (rendered, metrics) = f();
                            (
                                i,
                                Artifact {
                                    name: name.to_string(),
                                    rendered,
                                    metrics,
                                },
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, artifact) in h.join().expect("suite worker panicked") {
                slots[i] = Some(artifact);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every job ran"))
        .collect()
}

/// The artifact's hottest lock class — the per-class row with the
/// largest total virtual wait, ties broken by class name so the line
/// is deterministic. `None` when the experiment recorded no lock
/// events at all.
fn hottest_lock(m: &ExperimentMetrics) -> Option<&crate::metrics::LockRow> {
    m.locks
        .iter()
        .max_by(|a, b| a.wait_ns.cmp(&b.wait_ns).then(b.class.cmp(&a.class)))
}

/// Joins rendered artifacts into the one-document suite report. Each
/// artifact is followed by its hottest lock class (largest total
/// virtual wait), so contention regressions are visible in the
/// human-readable report without opening `BENCH_suite.json`.
pub fn render_suite(artifacts: &[Artifact]) -> String {
    let mut out = String::new();
    for (i, a) in artifacts.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&"=".repeat(72));
        out.push('\n');
        out.push_str(&a.rendered);
        if let Some(l) = hottest_lock(&a.metrics) {
            out.push_str(&format!(
                "\nHottest lock: {} ({}) — {} acquisitions, {} ms waited, {} ms held\n",
                l.class,
                l.layer,
                l.acquisitions,
                ms(l.wait_ns as f64 / 1e6),
                ms(l.hold_ns as f64 / 1e6),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// BENCH_suite.json: the machine-readable suite artifact
// ---------------------------------------------------------------------

fn experiment_json(a: &Artifact) -> Json {
    let m = &a.metrics;
    let layers = Json::Obj(
        Layer::ALL
            .iter()
            .zip(m.layer_ns)
            .map(|(l, ns)| (l.as_str().to_string(), Json::UInt(ns)))
            .collect(),
    );
    Json::Obj(vec![
        ("name".to_string(), Json::Str(a.name.clone())),
        (
            "total_virtual_ns".to_string(),
            Json::UInt(m.total_virtual_ns),
        ),
        ("layers_ns".to_string(), layers),
        ("spans".to_string(), Json::UInt(m.spans)),
        ("leaf_spans".to_string(), Json::UInt(m.leaf_spans)),
        (
            "scalars".to_string(),
            Json::Obj(
                m.scalars
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::UInt(v)))
                    .collect(),
            ),
        ),
        (
            "counters".to_string(),
            Json::Obj(
                m.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                    .collect(),
            ),
        ),
        ("lock_wait_ns".to_string(), Json::UInt(m.lock_wait_ns())),
        ("lock_hold_ns".to_string(), Json::UInt(m.lock_hold_ns())),
        (
            "locks".to_string(),
            Json::Obj(
                m.locks
                    .iter()
                    .map(|l| {
                        (
                            l.class.clone(),
                            Json::Obj(vec![
                                ("layer".to_string(), Json::Str(l.layer.clone())),
                                ("acquisitions".to_string(), Json::UInt(l.acquisitions)),
                                ("wait_ns".to_string(), Json::UInt(l.wait_ns)),
                                ("hold_ns".to_string(), Json::UInt(l.hold_ns)),
                                (
                                    "wait_buckets".to_string(),
                                    Json::Arr(
                                        l.wait_buckets.iter().map(|&b| Json::UInt(b)).collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Serializes the suite's structured rows as the versioned
/// `BENCH_suite.json` document. Deterministic: the same artifacts (and
/// smoke flag) always produce the same bytes, at any worker count.
///
/// See `EXPERIMENTS.md` ("The BENCH_suite.json artifact") for the
/// schema.
pub fn suite_json(artifacts: &[Artifact], smoke: bool) -> String {
    Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("minimal-tcb/bench-suite".to_string()),
        ),
        (
            "schema_version".to_string(),
            Json::UInt(SUITE_SCHEMA_VERSION),
        ),
        ("smoke".to_string(), Json::Bool(smoke)),
        (
            "seeds".to_string(),
            Json::Obj(vec![
                ("fault_sweep".to_string(), Json::UInt(FAULT_SWEEP_SEED)),
                ("crash_sweep".to_string(), Json::UInt(CRASH_SWEEP_SEED)),
                ("scale".to_string(), Json::UInt(SCALE_SEED)),
                ("fleet".to_string(), Json::UInt(FLEET_SEED)),
                ("churn".to_string(), Json::UInt(CHURN_SEED)),
            ]),
        ),
        (
            "experiments".to_string(),
            Json::Arr(artifacts.iter().map(experiment_json).collect()),
        ),
    ])
    .render()
}

/// Validates a `BENCH_suite.json` document: parses it, checks the
/// schema version, and re-derives every experiment's
/// `total_virtual_ns` from its per-layer attribution.
///
/// # Errors
///
/// Returns a message describing the first failure: unparseable JSON, a
/// missing/mismatched field, or an attribution that does not sum.
pub fn validate_suite_json(text: &str) -> Result<(), String> {
    let doc = crate::json::parse(text)?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != SUITE_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} != supported {SUITE_SCHEMA_VERSION}"
        ));
    }
    doc.get("smoke")
        .and_then(Json::as_bool)
        .ok_or("missing smoke flag")?;
    doc.get("seeds").ok_or("missing seeds")?;
    let experiments = doc
        .get("experiments")
        .and_then(Json::as_array)
        .ok_or("missing experiments array")?;
    if experiments.is_empty() {
        return Err("experiments array is empty".to_string());
    }
    for e in experiments {
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or("experiment missing name")?;
        let total = e
            .get("total_virtual_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{name}: missing total_virtual_ns"))?;
        let layers = e
            .get("layers_ns")
            .ok_or_else(|| format!("{name}: missing layers_ns"))?;
        let mut sum = 0u64;
        for layer in Layer::ALL {
            sum += layers
                .get(layer.as_str())
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: missing layers_ns.{}", layer.as_str()))?;
        }
        if sum != total {
            return Err(format!(
                "{name}: layers_ns sums to {sum} but total_virtual_ns is {total}"
            ));
        }
        // Lock attribution sums the same way layers_ns does: the
        // per-class rows must re-derive the experiment's totals.
        let lock_wait = e
            .get("lock_wait_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{name}: missing lock_wait_ns"))?;
        let lock_hold = e
            .get("lock_hold_ns")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{name}: missing lock_hold_ns"))?;
        let locks = e
            .get("locks")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{name}: missing locks object"))?;
        let (mut wait_sum, mut hold_sum) = (0u64, 0u64);
        for (class, row) in locks {
            wait_sum += row
                .get("wait_ns")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: locks.{class} missing wait_ns"))?;
            hold_sum += row
                .get("hold_ns")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: locks.{class} missing hold_ns"))?;
            let acquisitions = row
                .get("acquisitions")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{name}: locks.{class} missing acquisitions"))?;
            let bucket_count: u64 = row
                .get("wait_buckets")
                .and_then(Json::as_array)
                .ok_or_else(|| format!("{name}: locks.{class} missing wait_buckets"))?
                .iter()
                .map(|b| b.as_u64().unwrap_or(0))
                .sum();
            if bucket_count != acquisitions {
                return Err(format!(
                    "{name}: locks.{class} wait_buckets count {bucket_count} != \
                     acquisitions {acquisitions}"
                ));
            }
        }
        if wait_sum != lock_wait {
            return Err(format!(
                "{name}: locks wait_ns sums to {wait_sum} but lock_wait_ns is {lock_wait}"
            ));
        }
        if hold_sum != lock_hold {
            return Err(format!(
                "{name}: locks hold_ns sums to {hold_sum} but lock_hold_ns is {lock_hold}"
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Per-artifact renderers (shared by the suite and the one-shot binaries)
// ---------------------------------------------------------------------

/// Renders Table 1 exactly as the `table1` binary prints it.
pub fn render_table1() -> String {
    render_table1_rows(&table1(Obs::null()))
}

/// Renders already-measured Table 1 rows.
fn render_table1_rows(data: &[Table1Row]) -> String {
    let mut out = String::from(
        "Table 1: SKINIT and SENTER benchmarks (ms)\n(paper values in parentheses)\n\n",
    );
    let mut rows = Vec::new();
    for row in data {
        let mut cells = vec![
            if row.tpm_present { "Yes" } else { "No" }.to_string(),
            row.system.clone(),
        ];
        for (m, p) in row.measured_ms.iter().zip(&row.paper_ms) {
            cells.push(format!("{} ({})", ms(*m), ms(*p)));
        }
        rows.push(cells);
    }
    let headers: Vec<String> = ["TPM", "System"]
        .into_iter()
        .map(String::from)
        .chain(PAL_SIZES.iter().map(|s| format!("{} KB", s / 1024)))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    out.push_str(&render_table(&header_refs, &rows));
    out.push_str(
        "\nKey findings reproduced: the TPM's LPC long wait cycles slow a 64 KB\n\
         SKINIT ~20x (177.5 ms vs 8.8 ms); Intel's fixed ~26 ms ACMod cost beats\n\
         AMD's TPM-rate hashing for PALs larger than ~10 KB.\n",
    );
    out
}

/// Renders Table 2 exactly as the `table2` binary prints it.
pub fn render_table2() -> String {
    let mut out = String::from("Table 2: VM Entry / VM Exit (µs), paper values in parentheses\n\n");
    let rows: Vec<Vec<String>> = table2()
        .into_iter()
        .map(|r| {
            vec![
                r.system,
                format!("{} ({})", us(r.vm_enter_us), us(r.paper_enter_us)),
                format!("{} ({})", us(r.vm_exit_us), us(r.paper_exit_us)),
            ]
        })
        .collect();
    out.push_str(&render_table(&["System", "VM Enter", "VM Exit"], &rows));
    out.push_str(
        "\nThese sub-microsecond costs are what §5.7 argues a PAL context switch\n\
         should cost on the proposed hardware — versus 200-1000 ms today.\n",
    );
    out
}

/// Renders Figure 2 (table + terminal bar chart) as the `figure2`
/// binary prints it.
pub fn render_figure2(runs: usize) -> String {
    render_figure2_bars(&figure2(runs, Obs::null()), runs)
}

/// Renders already-measured Figure 2 bars.
fn render_figure2_bars(bars: &[Figure2Bar], runs: usize) -> String {
    let mut out =
        format!("Figure 2: SEA session overheads on HP dc5750 (avg of {runs} runs, ms)\n\n");
    let rows: Vec<Vec<String>> = bars
        .iter()
        .map(|b| {
            vec![
                b.label.clone(),
                ms(b.skinit_ms),
                ms(b.seal_ms),
                ms(b.unseal_ms),
                ms(b.quote_ms),
                ms(b.total_ms),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &["Session", "SKINIT", "Seal", "Unseal", "Quote", "Total"],
        &rows,
    ));

    // A terminal rendition of the stacked bars.
    out.push_str("\n  (1 char ≈ 20 ms)\n");
    for b in bars {
        let seg = |v: f64, c: char| c.to_string().repeat((v / 20.0).round() as usize);
        out.push_str(&format!(
            "  {:>8} |{}{}{}{}| {:.0} ms\n",
            b.label,
            seg(b.skinit_ms, 'S'),
            seg(b.seal_ms, 's'),
            seg(b.unseal_ms, 'U'),
            seg(b.quote_ms, 'Q'),
            b.total_ms
        ));
    }
    out.push_str("\n  S = SKINIT  s = Seal  U = Unseal  Q = Quote\n");
    out.push_str(
        "\nPaper's reading reproduced: storing state for later use costs ~200 ms\n\
         (PAL Gen); accessing, modifying and re-storing it costs over a second\n\
         (PAL Use) — all of it dead time for the whole platform.\n",
    );
    out
}

/// Renders Figure 3 exactly as the `figure3` binary prints it.
pub fn render_figure3(trials: usize) -> String {
    render_figure3_cells(&figure3(trials, Obs::null()), trials)
}

/// Renders already-measured Figure 3 cells.
fn render_figure3_cells(cells: &[Figure3Cell], trials: usize) -> String {
    let mut out = format!("Figure 3: TPM benchmarks, mean ± stddev over {trials} trials (ms)\n\n");
    let tpms: Vec<&str> = figure3_tpms().iter().map(|(_, l)| *l).collect();

    let mut rows = Vec::new();
    for op in TpmOp::FIGURE3_OPS {
        let mut row = vec![op.label().to_string()];
        for tpm in &tpms {
            let c = cells
                .iter()
                .find(|c| c.tpm == *tpm && c.op == op.label())
                .expect("cell exists");
            row.push(format!("{:7.2} ±{:5.2}", c.mean_ms, c.stddev_ms));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("TPM Operation")
        .chain(tpms.iter().copied())
        .collect();
    out.push_str(&render_table(&headers, &rows));
    out.push_str(
        "\nOrdering constraints from the paper, all reproduced:\n\
         - Broadcom: fastest Seal (~20 ms) but slowest Quote and Unseal;\n\
         - Infineon: best average, Unseal ≈ 391 ms;\n\
         - Broadcom→Infineon saves ~1132 ms on Quote+Unseal, costs +213 ms Seal;\n\
         - best-per-op composition still leaves PAL Use ≈ 579 ms (§4.3.3).\n",
    );
    out
}

/// Renders the concurrent-engine throughput sweep: aggregate PAL
/// throughput vs core count on the proposed hardware.
pub fn render_throughput(worker_counts: &[usize], jobs: usize, work: SimDuration) -> String {
    render_throughput_points(
        &throughput(worker_counts, jobs, work, Obs::null()),
        jobs,
        work,
    )
}

/// Renders already-measured throughput points.
fn render_throughput_points(points: &[ThroughputPoint], jobs: usize, work: SimDuration) -> String {
    let mut out = format!(
        "Throughput: {jobs} PAL sessions ({work} of work each) on the proposed\n\
         hardware's concurrent engine, virtual time, by core count\n\n"
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workers.to_string(),
                ms(p.wall_ms),
                ms(p.aggregate_ms),
                format!("{:.2}", p.per_sec),
                format!("{:.2}x", p.speedup),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "cores",
            "wall (ms)",
            "aggregate (ms)",
            "sessions/s",
            "speedup",
        ],
        &rows,
    ));
    out.push_str(
        "\nEach core runs its own PAL beside the others (per-PAL sePCRs, §5.4):\n\
         aggregate virtual work is constant while wall time divides by the core\n\
         count. Baseline hardware would serialize the whole batch (§4.2).\n",
    );
    out
}

/// Renders the fault sweep: goodput vs injected fault rate under the
/// recovery layer's default retry policy.
pub fn render_fault_sweep(rates: &[u32], jobs: usize, work: SimDuration, workers: usize) -> String {
    render_fault_sweep_points(
        &fault_sweep(rates, jobs, work, workers, Obs::null()),
        jobs,
        work,
        workers,
    )
}

/// Renders already-measured fault-sweep points.
fn render_fault_sweep_points(
    points: &[FaultSweepPoint],
    jobs: usize,
    work: SimDuration,
    workers: usize,
) -> String {
    let mut out = format!(
        "Fault sweep: {jobs} PAL sessions ({work} of work each) on {workers} cores\n\
         under injected hardware faults, default retry policy, virtual time\n\n"
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}%", p.rate as f64 * 100.0 / sea_hw::RATE_DENOM as f64),
                p.quoted.to_string(),
                p.killed.to_string(),
                p.retries.to_string(),
                ms(p.wall_ms),
                format!("{:.2}", p.goodput_per_sec),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "fault rate",
            "quoted",
            "killed",
            "retries",
            "wall (ms)",
            "goodput/s",
        ],
        &rows,
    ));
    out.push_str(
        "\nTransient faults are absorbed by bounded retries (wall time grows,\n\
         goodput sags); the fatal fraction SKILLs its session (§5.5) without\n\
         taking the batch down. Every sweep point replays the same seeded\n\
         fault tape, so this table is byte-identical run to run.\n",
    );
    out
}

/// Renders the crash sweep: goodput vs injected power-loss rate under
/// the crash-consistent durable engine.
pub fn render_crash_sweep(rates: &[u32], jobs: usize, work: SimDuration, workers: usize) -> String {
    render_crash_sweep_points(
        &crash_sweep(rates, jobs, work, workers, Obs::null()),
        jobs,
        work,
        workers,
    )
}

/// Renders already-measured crash-sweep points.
fn render_crash_sweep_points(
    points: &[CrashSweepPoint],
    jobs: usize,
    work: SimDuration,
    workers: usize,
) -> String {
    let mut out = format!(
        "Crash sweep: {jobs} PAL sessions ({work} of work each) on {workers} cores\n\
         under injected power losses, journaled NVRAM checkpoints, virtual time\n\n"
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}%", p.rate as f64 * 100.0 / sea_hw::RATE_DENOM as f64),
                p.resets.to_string(),
                p.committed.to_string(),
                p.relaunched.to_string(),
                p.quoted.to_string(),
                ms(p.recovery_ms),
                ms(p.journal_ms),
                ms(p.wall_ms),
                format!("{:.2}", p.goodput_per_sec),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "loss rate",
            "resets",
            "committed",
            "relaunched",
            "quoted",
            "recovery (ms)",
            "journal (ms)",
            "wall (ms)",
            "goodput/s",
        ],
        &rows,
    ));
    out.push_str(
        "\nEvery terminal session commits to a sealed journal in TPM NVRAM; a\n\
         power loss reboots the platform (static PCRs to zero, dynamic to -1,\n\
         every sePCR freed) and the batch resumes from the journal — committed\n\
         results survive, torn sessions relaunch. Same seeded loss tape every\n\
         run, so this table is byte-identical run to run.\n",
    );
    out
}

/// Renders the virtual-CPU scale sweep: durable-batch goodput vs
/// platform width on the discrete-event executor.
pub fn render_scale(cpu_counts: &[usize], jobs: usize, work: SimDuration) -> String {
    render_scale_points(&scale(cpu_counts, jobs, work, Obs::null()), jobs, work)
}

/// Renders already-measured scale points.
fn render_scale_points(points: &[ScalePoint], jobs: usize, work: SimDuration) -> String {
    let mut out = format!(
        "Scale: {jobs} durable attested sessions ({work} of work each) on the\n\
         discrete-event executor, virtual time, by virtual-CPU count\n\n"
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.cpus.to_string(),
                p.resets.to_string(),
                p.committed.to_string(),
                p.relaunched.to_string(),
                p.quoted.to_string(),
                ms(p.wall_ms),
                ms(p.aggregate_ms),
                format!("{:.2}x", p.speedup),
                format!("{:.2}", p.goodput_per_sec),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "vCPUs",
            "resets",
            "committed",
            "relaunched",
            "quoted",
            "wall (ms)",
            "aggregate (ms)",
            "speedup",
            "goodput/s",
        ],
        &rows,
    ));
    out.push_str(
        "\nEach point models the whole platform — CPUs, TPM arbitration, journal\n\
         commits, injected power losses — as one event-ordered timeline on a\n\
         single OS thread, so the widest machine here is a thousand virtual\n\
         CPUs on any host. The schedule is structural: every column, including\n\
         the committed/relaunched split, is byte-identical run to run.\n",
    );
    out
}

/// Renders the fleet sweep: attestation goodput and latency
/// percentiles vs fleet size, platforms quoting to the remote verifier.
pub fn render_fleet(platform_counts: &[usize], requests: usize) -> String {
    render_fleet_points(
        &fleet_sweep(platform_counts, requests, Obs::null()),
        requests,
    )
}

/// Renders already-measured fleet points.
fn render_fleet_points(points: &[FleetPoint], requests: usize) -> String {
    let mut out = format!(
        "Fleet: {requests} attestation requests hash-dispatched across a\n\
         sharded platform fleet, quoted on-platform, and decided by the\n\
         remote verifier service, by fleet size\n\n"
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.platforms.to_string(),
                p.accepted.to_string(),
                p.rejected.to_string(),
                p.cert_walks.to_string(),
                p.ticket_hits.to_string(),
                ms(p.wall_ms),
                ms(p.p50_ms),
                ms(p.p95_ms),
                ms(p.p99_ms),
                format!("{:.2}", p.goodput_per_sec),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "platforms",
            "accepted",
            "rejected",
            "cert walks",
            "ticket hits",
            "wall (ms)",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "goodput/s",
        ],
        &rows,
    ));
    out.push_str(
        "\nEvery request runs a full attested session on its platform and is\n\
         checked end to end by the verifier: wire-quote parse, AIK certificate\n\
         walk (amortized by session tickets after the first quote per\n\
         platform), signature verify, nonce freshness, measurement-chain\n\
         replay, TCB policy. Latency spans quote emission to verdict. The\n\
         whole sweep is byte-identical at any shard count.\n",
    );
    out
}

/// Renders the churn sweep: request fates, retry cost, and adversarial
/// rejection vs churn intensity.
pub fn render_churn(intensities: &[u32], requests: usize) -> String {
    render_churn_points(&churn_sweep(intensities, requests, Obs::null()), requests)
}

/// Renders the VM dispatch experiment: the four paper PALs as executed
/// bytecode, block chaining on vs off, plus the cross-executor quote
/// pin.
pub fn render_vm(executors_identical: bool) -> String {
    render_vm_points(&vm_dispatch(Obs::null()), executors_identical)
}

/// Renders already-measured VM dispatch points.
fn render_vm_points(points: &[VmPoint], executors_identical: bool) -> String {
    let mut out = String::from(
        "VM: the paper's PALs as measured bytecode on the proposed hardware,\n\
         direct block chaining vs block-cache lookup on every dispatch,\n\
         virtual time\n\n",
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.pal.clone(),
                p.sessions.to_string(),
                p.retired.to_string(),
                p.blocks.to_string(),
                p.chain_hits.to_string(),
                p.chained_dispatch_ns.to_string(),
                p.lookup_dispatch_ns.to_string(),
                format!("{:.2}x", p.dispatch_speedup),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "PAL",
            "sessions",
            "retired",
            "blocks",
            "chain hits",
            "chained (ns)",
            "lookup (ns)",
            "modelled speedup",
        ],
        &rows,
    ));

    // A terminal rendition of the dispatch-speedup bars.
    out.push_str("\n  dispatch speedup, modelled gas (1 char = 0.25x)\n");
    for p in points {
        out.push_str(&format!(
            "  {:>22} |{}| {:.2}x\n",
            p.pal,
            "#".repeat((p.dispatch_speedup / 0.25).round() as usize),
            p.dispatch_speedup
        ));
    }
    out.push_str(&format!(
        "\nQuotes byte-identical across 1/4-worker thread pools and the\n\
         discrete-event executor: {}\n",
        if executors_identical { "yes" } else { "NO" }
    ));
    out.push_str(
        "\nEach PAL's measured identity is the SHA-1 of its serialized bytecode;\n\
         gas retires to the virtual clock at every translation-block boundary.\n\
         Chaining patches a block's successor in directly, skipping the block-\n\
         cache lookup — same retired instructions, same outputs, cheaper\n\
         dispatch. Loop-heavy PALs (factoring) benefit most.\n",
    );
    out
}

/// Renders already-measured churn points.
fn render_churn_points(points: &[ChurnPoint], requests: usize) -> String {
    let mut out = format!(
        "Churn: {requests} attestation requests across a fleet of {CHURN_PLATFORMS}\n\
         platforms under seeded churn — dropped/delayed/duplicated/reordered\n\
         wires, mid-sweep reboots, certificate rotation + re-enrollment, a\n\
         staged TCB push, and adversarial traffic — by churn intensity\n\
         (parts per 65536)\n\n"
    );
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.intensity.to_string(),
                p.accepted.to_string(),
                p.rejected.to_string(),
                p.timed_out.to_string(),
                p.degraded.to_string(),
                p.retries.to_string(),
                format!("{}/{}", p.adversarial_rejected, p.adversarial),
                format!("{:.2}%", p.wire_rejection_rate * 100.0),
                ms(p.wall_ms),
                ms(p.p95_ms),
                format!("{:.2}", p.goodput_per_sec),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &[
            "churn",
            "accepted",
            "rejected",
            "timed out",
            "degraded",
            "retries",
            "adv rej",
            "wire rej",
            "wall (ms)",
            "p95 (ms)",
            "goodput/s",
        ],
        &rows,
    ));
    out.push_str(
        "\nEach request's lifecycle — per-attempt timeout, bounded retries with\n\
         exponential backoff, re-quoting under fresh nonces — runs against the\n\
         remote verifier with finite nonce-freshness and session-ticket\n\
         windows, so every row's accepted/rejected/timed-out split is a typed\n\
         request fate. \"adv rej\" counts adversarial wires (replay,\n\
         stale-nonce, bit-flip, forged-cert) the verifier turned away over\n\
         those injected; the verifier accepts none of them. \"wire rej\" is\n\
         the verifier's rejection share across all wires it saw. The whole\n\
         sweep is byte-identical at any shard count, worker count,\n\
         submission order, and executor backend.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_every_artifact_in_order() {
        let arts = run_suite_serial(&SuiteConfig::smoke());
        let names: Vec<&str> = arts.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "Table 1",
                "Table 2",
                "Figure 2",
                "Figure 3",
                "Throughput",
                "Fault sweep",
                "Crash sweep",
                "Scale",
                "Fleet",
                "Churn",
                "VM"
            ]
        );
        for a in &arts {
            assert!(!a.rendered.is_empty(), "{} rendered nothing", a.name);
        }
        // Every executing experiment carries a non-trivial attribution
        // whose layers sum to its total (Table 2 only reads a cost
        // model, so its attribution is all-zero by design).
        for a in &arts {
            let m = &a.metrics;
            assert_eq!(
                m.layer_ns.iter().sum::<u64>(),
                m.total_virtual_ns,
                "{}: layers do not sum",
                a.name
            );
            if a.name != "Table 2" {
                assert!(m.total_virtual_ns > 0, "{}: no attribution", a.name);
                assert!(m.leaf_spans > 0, "{}: no leaf spans", a.name);
            }
        }
        // The concurrent artifacts surface their engine counters.
        let crash = arts.iter().find(|a| a.name == "Crash sweep").unwrap();
        assert!(
            crash
                .metrics
                .counters
                .iter()
                .any(|(k, _)| k == "journal.commits"),
            "{:?}",
            crash.metrics.counters
        );
        // The human-readable report surfaces each artifact's hottest
        // lock class, deterministically.
        let report = render_suite(&arts);
        assert!(report.contains("Hottest lock: "), "{report}");
        assert_eq!(report, render_suite(&arts));
    }

    #[test]
    fn parallel_suite_is_byte_identical_to_serial() {
        let cfg = SuiteConfig::smoke();
        let serial = run_suite_serial(&cfg);
        for workers in [2, 4, 16] {
            let par = run_suite_parallel(&cfg, workers);
            assert_eq!(serial, par, "diverged at {workers} workers");
        }
        let par3 = run_suite_parallel(&cfg, 3);
        assert_eq!(render_suite(&serial), render_suite(&par3));
        // The machine-readable artifact is byte-identical too.
        assert_eq!(suite_json(&serial, true), suite_json(&par3, true));
    }

    #[test]
    fn suite_json_validates_and_breaks_loudly() {
        let arts = run_suite_serial(&SuiteConfig::smoke());
        let text = suite_json(&arts, true);
        validate_suite_json(&text).expect("fresh suite JSON validates");
        // Unparseable and schema-violating documents are rejected.
        assert!(validate_suite_json("not json").is_err());
        assert!(validate_suite_json("{}").is_err());
        let wrong_version = text.replace("\"schema_version\": 1", "\"schema_version\": 999");
        assert!(validate_suite_json(&wrong_version).is_err());
        // A total that stops summing is caught.
        let broken = text.replace("\"total_virtual_ns\": 0", "\"total_virtual_ns\": 12345");
        assert!(validate_suite_json(&broken).is_err());
    }

    #[test]
    fn renderers_match_experiment_content() {
        let t1 = render_table1();
        assert!(t1.contains("64 KB") && t1.contains("177.52"), "{t1}");
        let tp = render_throughput(&[1, 2], 4, SimDuration::from_ms(5));
        assert!(tp.contains("2.00x"), "{tp}");
        let fs = render_fault_sweep(&[0, 8000], 4, SimDuration::from_ms(2), 2);
        assert!(fs.contains("0.00%") && fs.contains("12.21%"), "{fs}");
        assert!(fs.contains("goodput/s"), "{fs}");
        let cs = render_crash_sweep(&[0], 4, SimDuration::from_ms(2), 2);
        assert!(
            cs.contains("recovery (ms)") && cs.contains("journal (ms)"),
            "{cs}"
        );
        let fl = render_fleet(&[2], 4);
        assert!(fl.contains("cert walks") && fl.contains("p99 (ms)"), "{fl}");
        let ch = render_churn(&[0, 16_000], 8);
        assert!(
            ch.contains("goodput/s") && ch.contains("adv rej") && ch.contains("wire rej"),
            "{ch}"
        );
    }

    #[test]
    fn vm_artifact_shows_chaining_speedup() {
        let points = vm_dispatch(Obs::null());
        assert_eq!(points.len(), 4);
        for p in &points {
            assert!(p.retired > 0, "{p:?}");
            assert!(
                p.dispatch_speedup > 1.0,
                "{}: chaining showed no dispatch speedup: {p:?}",
                p.pal
            );
        }
        // The loop-heavy PAL chains on nearly every dispatch.
        let factoring = points
            .iter()
            .find(|p| p.pal == "distributed-factoring")
            .unwrap();
        assert!(
            factoring.chain_hits * 10 > factoring.blocks * 9,
            "{factoring:?}"
        );
        let rendered = render_vm_points(&points, true);
        assert!(
            rendered.contains("speedup") && rendered.contains("yes"),
            "{rendered}"
        );
    }

    #[test]
    fn vm_quotes_pin_across_executors() {
        assert!(vm_quotes_identical_across_executors());
    }
}
