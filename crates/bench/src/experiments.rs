//! The experiments: one function per table/figure, returning structured
//! data the binaries print and the tests assert against.
//!
//! Every experiment that executes sessions takes an [`Obs`] handle that
//! receives its span stream; pass [`Obs::null`] to run it uninstrumented.

use sea_core::{
    BatchPolicy, ConcurrentJob, EnhancedSea, Executor, FnPal, LegacySea, PalLogic, PalOutcome,
    RetryPolicy, SecurePlatform, SessionEngine, SessionReport, SessionResult,
};
use sea_hw::{
    CpuId, FaultPlan, Obs, PageIndex, PageRange, Platform, ResetPlan, SimDuration, TpmKind,
};
use sea_os::{LegacyBatch, Scheduler};
use sea_tpm::{KeyStrength, PcrIndex, Quote, Tpm, TpmOp, TpmTimingModel};

/// The PAL sizes Table 1 sweeps (bytes).
pub const PAL_SIZES: [usize; 6] = [0, 4 * 1024, 8 * 1024, 16 * 1024, 32 * 1024, 64 * 1024];

fn platform(p: Platform, seed: &[u8]) -> SecurePlatform {
    SecurePlatform::new(p, KeyStrength::Demo512, seed)
}

// ---------------------------------------------------------------------
// Table 1: late-launch latency vs PAL size
// ---------------------------------------------------------------------

/// One Table 1 row: a platform's late-launch latency across PAL sizes.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Platform name as in the paper.
    pub system: String,
    /// Whether a TPM is present (the row's first column in the paper).
    pub tpm_present: bool,
    /// Measured (simulated) latencies in ms, one per [`PAL_SIZES`] entry.
    pub measured_ms: Vec<f64>,
    /// The paper's published values in ms.
    pub paper_ms: Vec<f64>,
}

/// Reproduces Table 1 by *executing* a late launch of each size on each
/// of the paper's three machines and reading the virtual clock.
///
/// `obs` is installed into every platform it builds, so each late
/// launch's charges (CPU init plus the measurement transfer/hash) land
/// in the span stream.
pub fn table1(obs: Obs) -> Vec<Table1Row> {
    let configs: [(Platform, bool, [f64; 6]); 3] = [
        (
            Platform::hp_dc5750(),
            true,
            [0.00, 11.94, 22.98, 45.05, 89.21, 177.52],
        ),
        (
            Platform::tyan_n3600r(),
            false,
            [0.01, 0.56, 1.11, 2.21, 4.41, 8.82],
        ),
        (
            Platform::intel_tep(),
            true,
            [26.39, 26.88, 27.38, 28.37, 30.46, 34.35],
        ),
    ];
    configs
        .into_iter()
        .map(|(p, tpm_present, paper)| {
            let system = p.name.clone();
            let measured_ms = PAL_SIZES
                .iter()
                .map(|&size| {
                    // Fresh platform per point: late launch mutates PCRs.
                    let mut sp = platform(p.clone(), b"table1");
                    sp.install_obs(obs.clone());
                    let pages = ((size as u32).div_ceil(4096)).max(1);
                    let range = PageRange::new(PageIndex(8), pages);
                    let image = vec![0x90u8; size];
                    sp.machine_mut()
                        .memory_mut()
                        .write_raw(range.base_addr(), &image)
                        .expect("staging fits");
                    let launch = sp
                        .late_launch(CpuId(0), range, size)
                        .expect("late launch succeeds");
                    launch.total().as_ms_f64()
                })
                .collect();
            Table1Row {
                system,
                tpm_present,
                measured_ms,
                paper_ms: paper.to_vec(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 2: VM entry/exit
// ---------------------------------------------------------------------

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Vendor/system label.
    pub system: String,
    /// Measured VM-entry cost (µs).
    pub vm_enter_us: f64,
    /// Measured VM-exit cost (µs).
    pub vm_exit_us: f64,
    /// Paper's VM-entry (µs).
    pub paper_enter_us: f64,
    /// Paper's VM-exit (µs).
    pub paper_exit_us: f64,
}

/// Reproduces Table 2 from the platform virtualization cost model.
pub fn table2() -> Vec<Table2Row> {
    [
        (
            Platform::tyan_n3600r(),
            "AMD SVM (Tyan n3600R)",
            0.5580,
            0.5193,
        ),
        (
            Platform::intel_tep(),
            "Intel TXT (MPC ClientPro 385)",
            0.4457,
            0.4491,
        ),
    ]
    .into_iter()
    .map(|(p, label, pe, px)| Table2Row {
        system: label.to_string(),
        vm_enter_us: p.virt.vm_enter.as_us_f64(),
        vm_exit_us: p.virt.vm_exit.as_us_f64(),
        paper_enter_us: pe,
        paper_exit_us: px,
    })
    .collect()
}

// ---------------------------------------------------------------------
// Figure 2: PAL Gen / PAL Use / Quote overhead breakdown
// ---------------------------------------------------------------------

/// One Figure 2 bar: a session type's overhead, broken into the stacked
/// components the figure shows.
#[derive(Debug, Clone)]
pub struct Figure2Bar {
    /// Bar label ("PAL Gen", "PAL Use", "Quote").
    pub label: String,
    /// SKINIT component (ms).
    pub skinit_ms: f64,
    /// Seal component (ms).
    pub seal_ms: f64,
    /// Unseal component (ms).
    pub unseal_ms: f64,
    /// Quote component (ms).
    pub quote_ms: f64,
    /// Total overhead (ms).
    pub total_ms: f64,
}

impl Figure2Bar {
    fn from_report(label: &str, r: &SessionReport, quote: SimDuration) -> Self {
        Figure2Bar {
            label: label.to_string(),
            skinit_ms: r.late_launch.as_ms_f64(),
            seal_ms: r.seal.as_ms_f64(),
            unseal_ms: r.unseal.as_ms_f64(),
            quote_ms: quote.as_ms_f64(),
            total_ms: (r.overhead() + quote).as_ms_f64(),
        }
    }
}

/// Reproduces Figure 2: generic PAL Gen and PAL Use sessions on the HP
/// dc5750, averaged over `runs` runs, plus the standalone Quote cost.
///
/// `obs` is installed into the one platform it runs every session on:
/// each session emits a `session.legacy` frame bracketing its charged
/// leaves, and the snapshot's total equals the machine clock's advance
/// exactly.
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn figure2(runs: usize, obs: Obs) -> Vec<Figure2Bar> {
    assert!(runs > 0, "need at least one run");
    let mut sp = platform(Platform::hp_dc5750(), b"figure2");
    sp.install_obs(obs);
    let mut sea = LegacySea::new(sp).expect("platform fits");

    let mut gen_total = SessionReport::default();
    let mut use_total = SessionReport::default();
    let mut quote_total = SimDuration::ZERO;

    for _ in 0..runs {
        // PAL Gen: generate state, seal it, exit (§4.1).
        let mut holder = None;
        {
            let h = &mut holder;
            let mut gen = FnPal::new("generic", move |ctx| {
                *h = Some(ctx.seal(b"generated application state")?);
                Ok(PalOutcome::Exit(vec![]))
            })
            .with_image_size(64 * 1024);
            let r = sea.run_session(&mut gen, b"").expect("gen session");
            gen_total = gen_total.merged(&r.report);
        }
        let blob = holder.expect("gen sealed state");

        // PAL Use: unseal previous state, modify, reseal, exit.
        let mut use_pal = FnPal::new("generic", move |ctx| {
            let mut state = ctx.unseal(&blob)?;
            state.reverse();
            let _ = ctx.seal(&state)?;
            Ok(PalOutcome::Exit(vec![]))
        })
        .with_image_size(64 * 1024);
        let r = sea.run_session(&mut use_pal, b"").expect("use session");
        use_total = use_total.merged(&r.report);

        // Quote: the attestation the OS generates afterwards.
        quote_total += sea.quote(b"fig2").expect("quote").elapsed;
    }

    let scale = |r: &SessionReport| SessionReport {
        late_launch: r.late_launch / runs as u64,
        seal: r.seal / runs as u64,
        unseal: r.unseal / runs as u64,
        quote: r.quote / runs as u64,
        tpm_other: r.tpm_other / runs as u64,
        context_switch: r.context_switch / runs as u64,
        pal_work: r.pal_work / runs as u64,
    };
    let gen = scale(&gen_total);
    let use_r = scale(&use_total);
    let quote_avg = quote_total / runs as u64;

    vec![
        Figure2Bar::from_report("PAL Gen", &gen, SimDuration::ZERO),
        Figure2Bar::from_report("PAL Use", &use_r, SimDuration::ZERO),
        Figure2Bar {
            label: "Quote".to_string(),
            skinit_ms: 0.0,
            seal_ms: 0.0,
            unseal_ms: 0.0,
            quote_ms: quote_avg.as_ms_f64(),
            total_ms: quote_avg.as_ms_f64(),
        },
    ]
}

// ---------------------------------------------------------------------
// Figure 3: TPM microbenchmarks
// ---------------------------------------------------------------------

/// One Figure 3 measurement: a TPM chip × operation cell.
#[derive(Debug, Clone)]
pub struct Figure3Cell {
    /// TPM label as in the figure's legend.
    pub tpm: String,
    /// Operation label as on the figure's x-axis.
    pub op: String,
    /// Mean latency over the trials (ms).
    pub mean_ms: f64,
    /// Standard deviation over the trials (ms).
    pub stddev_ms: f64,
}

/// The four TPMs of Figure 3, with their legend labels.
pub(crate) fn figure3_tpms() -> Vec<(TpmKind, &'static str)> {
    vec![
        (TpmKind::AtmelT60, "T60 Atmel"),
        (TpmKind::Broadcom, "Broadcom"),
        (TpmKind::Infineon, "Infineon"),
        (TpmKind::AtmelTep, "TEP Atmel"),
    ]
}

/// Reproduces Figure 3 by *executing* each TPM command `trials` times
/// (the paper uses 20) against each chip's simulator and collecting
/// mean ± stddev.
///
/// `obs` is installed directly into each bare TPM (there is no full
/// platform here, so the chip's own `cost()` choke point is the
/// attribution site): every command lands as a `tpm.*` leaf and the
/// snapshot's total equals the sum of the commands' elapsed times
/// exactly.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn figure3(trials: usize, obs: Obs) -> Vec<Figure3Cell> {
    assert!(trials > 0, "need at least one trial");
    let mut out = Vec::new();
    for (kind, label) in figure3_tpms() {
        let mut tpm = Tpm::new(kind, KeyStrength::Demo512, b"figure3");
        tpm.install_obs(obs.clone());
        for op in TpmOp::FIGURE3_OPS {
            let samples: Vec<f64> = (0..trials)
                .map(|i| run_tpm_op(&mut tpm, op, i).as_ms_f64())
                .collect();
            let s = crate::stats::Summary::of(&samples);
            out.push(Figure3Cell {
                tpm: label.to_string(),
                op: op.label().to_string(),
                mean_ms: s.mean,
                stddev_ms: s.stddev,
            });
        }
    }
    out
}

fn run_tpm_op(tpm: &mut Tpm, op: TpmOp, i: usize) -> SimDuration {
    let digest = sea_crypto::Sha1::digest(&i.to_le_bytes());
    match op {
        TpmOp::PcrExtend => tpm.extend(PcrIndex(17), &digest).expect("extend").elapsed,
        TpmOp::Seal => {
            tpm.seal(b"benchmark state", &[PcrIndex(17)])
                .expect("seal")
                .elapsed
        }
        TpmOp::Quote => {
            tpm.quote(b"bench nonce", &[PcrIndex(17)])
                .expect("quote")
                .elapsed
        }
        TpmOp::Unseal => {
            let blob = tpm
                .seal(b"benchmark state", &[PcrIndex(17)])
                .expect("seal")
                .value;
            tpm.unseal(&blob).expect("unseal").elapsed
        }
        TpmOp::GetRandom128 => tpm.get_random(128).elapsed,
        TpmOp::PcrRead => tpm.pcr_read(PcrIndex(17)).expect("read").elapsed,
    }
}

// ---------------------------------------------------------------------
// §5.7 impact: context-switch cost, baseline vs proposed
// ---------------------------------------------------------------------

/// The §5.7 comparison.
#[derive(Debug, Clone)]
pub struct ImpactReport {
    /// Baseline cost to context-switch *into* a PAL (SKINIT + Unseal), ms.
    pub baseline_switch_in_ms: f64,
    /// Baseline cost to context-switch *out* (Seal), ms.
    pub baseline_switch_out_ms: f64,
    /// Proposed cost of a full suspend + resume pair, µs.
    pub proposed_pair_us: f64,
    /// Improvement factor (baseline in+out over proposed pair).
    pub improvement: f64,
}

/// Measures the §5.7 comparison with real sessions on both runtimes.
pub fn impact() -> ImpactReport {
    // Baseline: a PAL Use session's overhead decomposes into switch-in
    // (SKINIT + Unseal) and switch-out (Seal).
    let bars = figure2(10, Obs::null());
    let use_bar = &bars[1];
    let switch_in = use_bar.skinit_ms + use_bar.unseal_ms;
    let switch_out = use_bar.seal_ms;

    // Proposed: one real SYIELD + resume pair.
    let mut sea =
        EnhancedSea::new(platform(Platform::recommended(2), b"impact")).expect("proposed platform");
    let mut first = true;
    let mut pal = FnPal::new("switcher", move |_| {
        if first {
            first = false;
            Ok(PalOutcome::Yield)
        } else {
            Ok(PalOutcome::Exit(vec![]))
        }
    });
    let id = sea.slaunch(&mut pal, b"", CpuId(0), None).expect("launch");
    let done = sea.run_to_exit(&mut pal, id, CpuId(0)).expect("run");
    let pair_us = done.report.context_switch.as_us_f64();

    ImpactReport {
        baseline_switch_in_ms: switch_in,
        baseline_switch_out_ms: switch_out,
        proposed_pair_us: pair_us,
        improvement: (switch_in + switch_out) * 1000.0 / pair_us,
    }
}

// ---------------------------------------------------------------------
// Concurrency: legacy throughput under PAL load
// ---------------------------------------------------------------------

/// One point of the concurrency experiment.
#[derive(Debug, Clone)]
pub struct ConcurrencyPoint {
    /// Number of PAL jobs in the batch.
    pub n_pals: usize,
    /// Legacy CPU time available on baseline hardware (ms).
    pub baseline_legacy_ms: f64,
    /// CPU time burned in forced idle on baseline hardware (ms).
    pub baseline_stalled_ms: f64,
    /// Legacy CPU time available on proposed hardware (ms).
    pub enhanced_legacy_ms: f64,
}

/// Runs `n_pals ∈ pal_counts` PAL jobs (each `work_ms` of useful work,
/// with seal/unseal state like the paper's generic PALs) on both
/// architectures with `n_cpus` cores over `horizon`, and reports the
/// legacy CPU time each leaves.
pub fn concurrency(
    n_cpus: u16,
    pal_counts: &[usize],
    work_ms: u64,
    horizon: SimDuration,
) -> Vec<ConcurrencyPoint> {
    pal_counts
        .iter()
        .map(|&n| {
            // Proposed.
            let mut sched = Scheduler::new(
                EnhancedSea::new(platform(Platform::recommended(n_cpus), b"conc"))
                    .expect("platform"),
            );
            for i in 0..n {
                sched.add_job(job(i, work_ms), b"");
            }
            let e = sched.run_all(horizon).expect("schedule");

            // Baseline (same core count for fairness).
            let mut base = Platform::hp_dc5750();
            base.n_cpus = n_cpus;
            let mut batch =
                LegacyBatch::new(LegacySea::new(platform(base, b"conc-b")).expect("sea"));
            for i in 0..n {
                batch.add_job(job(i, work_ms), b"");
            }
            let b = batch.run_all(horizon).expect("batch");

            ConcurrencyPoint {
                n_pals: n,
                baseline_legacy_ms: b.legacy_available.as_ms_f64(),
                baseline_stalled_ms: b.stalled.as_ms_f64(),
                enhanced_legacy_ms: e.legacy_available.as_ms_f64(),
            }
        })
        .collect()
}

fn job(i: usize, work_ms: u64) -> Box<dyn PalLogic> {
    Box::new(
        FnPal::new(&format!("job-{i}"), move |ctx| {
            let state = ctx.random(16)?;
            let blob = ctx.seal(&state)?;
            let back = ctx.unseal(&blob)?;
            debug_assert_eq!(back, state);
            ctx.work(SimDuration::from_ms(work_ms));
            Ok(PalOutcome::Exit(vec![]))
        })
        .with_image_size(16 * 1024),
    )
}

// ---------------------------------------------------------------------
// Responsiveness: PAL service latency under random load (§4.2)
// ---------------------------------------------------------------------

/// One point of the responsiveness experiment.
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Mean request inter-arrival time (ms).
    pub interarrival_ms: f64,
    /// Baseline mean / p95 response (ms).
    pub baseline_mean_ms: f64,
    /// Baseline 95th-percentile response (ms).
    pub baseline_p95_ms: f64,
    /// Proposed mean response (ms).
    pub proposed_mean_ms: f64,
    /// Proposed 95th-percentile response (ms).
    pub proposed_p95_ms: f64,
}

/// Measures PAL-service response times under Poisson load.
///
/// The per-request service times are *measured*, not assumed: one real
/// PAL-Use session on the baseline (`LegacySea`) and one real
/// launch+step on the proposed hardware (`EnhancedSea`), both including
/// `work_ms` of application work. The queueing simulation in
/// `sea-os::simulate_service` then serves a seeded arrival trace —
/// baseline as a single whole-platform server, proposed with one server
/// per core.
pub fn latency(
    n_cpus: u16,
    interarrival_ms: &[u64],
    work_ms: u64,
    horizon: SimDuration,
) -> Vec<LatencyPoint> {
    use sea_os::{simulate_service, ArrivalTrace};

    // Measure the baseline per-request service time: a real PAL-Use
    // session (SKINIT + Unseal + work + Seal).
    let mut legacy = LegacySea::new(platform(Platform::hp_dc5750(), b"latency-l")).expect("sea");
    let mut holder = None;
    {
        let h = &mut holder;
        let mut gen = FnPal::new("svc", move |ctx| {
            *h = Some(ctx.seal(b"svc state")?);
            Ok(PalOutcome::Exit(vec![]))
        })
        .with_image_size(16 * 1024);
        legacy.run_session(&mut gen, b"").expect("gen");
    }
    let blob = holder.expect("sealed");
    let mut use_pal = FnPal::new("svc", move |ctx| {
        let state = ctx.unseal(&blob)?;
        ctx.work(SimDuration::from_ms(work_ms));
        let _ = ctx.seal(&state)?;
        Ok(PalOutcome::Exit(vec![]))
    })
    .with_image_size(16 * 1024);
    let baseline_service = legacy
        .run_session(&mut use_pal, b"")
        .expect("use")
        .report
        .total();

    // Measure the proposed per-request service time: launch + run with
    // in-region state.
    let mut enhanced =
        EnhancedSea::new(platform(Platform::recommended(n_cpus), b"latency-e")).expect("sea");
    let mut epal = FnPal::new("svc-e", move |ctx| {
        ctx.work(SimDuration::from_ms(work_ms));
        Ok(PalOutcome::Exit(vec![]))
    })
    .with_image_size(16 * 1024);
    let id = enhanced
        .slaunch(&mut epal, b"", CpuId(0), None)
        .expect("launch");
    let done = enhanced.run_to_exit(&mut epal, id, CpuId(0)).expect("run");
    let proposed_service = done.report.total();

    interarrival_ms
        .iter()
        .map(|&ia| {
            let trace = ArrivalTrace::poisson(
                horizon,
                SimDuration::from_ms(ia),
                format!("latency-{ia}").as_bytes(),
            );
            let b = simulate_service(&trace, 1, baseline_service);
            let p = simulate_service(&trace, n_cpus as usize, proposed_service);
            LatencyPoint {
                interarrival_ms: ia as f64,
                baseline_mean_ms: b.mean.as_ms_f64(),
                baseline_p95_ms: b.p95.as_ms_f64(),
                proposed_mean_ms: p.mean.as_ms_f64(),
                proposed_p95_ms: p.p95.as_ms_f64(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablation: "just make the TPM and bus faster" (§5.7 alternative)
// ---------------------------------------------------------------------

/// One point of the TPM speed-up ablation.
#[derive(Debug, Clone)]
pub struct FastTpmPoint {
    /// TPM/bus speed-up factor relative to the Broadcom baseline.
    pub speedup: f64,
    /// Resulting baseline context-switch cost (switch-in + switch-out), µs.
    pub baseline_switch_us: f64,
    /// The proposed hardware's switch pair for comparison, µs.
    pub proposed_pair_us: f64,
}

/// Sweeps TPM speed-up factors and evaluates the baseline context-switch
/// cost (SKINIT + Unseal + Seal) under each, against the proposed
/// hardware's constant VM-scale cost.
pub fn ablation_fast_tpm(factors: &[f64]) -> Vec<FastTpmPoint> {
    let base = TpmTimingModel::for_kind(TpmKind::Broadcom);
    let proposed_pair_us = {
        let p = Platform::recommended(2);
        (p.virt.vm_enter + p.virt.vm_exit).as_us_f64()
    };
    factors
        .iter()
        .map(|&f| {
            let m = base.sped_up(f);
            let skinit = m.hash_time(64 * 1024);
            let switch_cost = skinit + m.mean(TpmOp::Unseal) + m.mean(TpmOp::Seal);
            FastTpmPoint {
                speedup: f,
                baseline_switch_us: switch_cost.as_us_f64(),
                proposed_pair_us,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablation: hash-on-TPM (AMD) vs hash-on-CPU (Intel), §4.3.2
// ---------------------------------------------------------------------

/// One point of the hash-placement ablation.
#[derive(Debug, Clone)]
pub struct HashPlacementPoint {
    /// PAL size in bytes.
    pub size: usize,
    /// AMD strategy: stream the whole PAL through the TPM (ms).
    pub amd_ms: f64,
    /// Intel strategy: fixed ACMod cost + CPU-side hashing (ms).
    pub intel_ms: f64,
    /// Footnote-4 two-part PAL on AMD: tiny measured loader + CPU-side
    /// hashing of the rest (ms).
    pub two_part_ms: f64,
}

/// Sweeps PAL sizes under the three launch-measurement strategies the
/// paper discusses, exposing the AMD/Intel crossover and the two-part
/// PAL optimization.
pub fn ablation_hash_placement(sizes: &[usize]) -> Vec<HashPlacementPoint> {
    let amd = platform(Platform::hp_dc5750(), b"hp-amd");
    let intel = platform(Platform::intel_tep(), b"hp-intel");
    // Footnote 4: a fixed 1 KB loader is measured via the TPM, the rest
    // is hashed on the CPU at Intel's fitted rate.
    const LOADER: usize = 1024;
    const CPU_HASH_NS_PER_BYTE: f64 = 121.45;
    sizes
        .iter()
        .map(|&size| {
            let two_part = amd.late_launch_cost(LOADER.min(size))
                + SimDuration::from_ns_f64(
                    size.saturating_sub(LOADER) as f64 * CPU_HASH_NS_PER_BYTE,
                );
            HashPlacementPoint {
                size,
                amd_ms: amd.late_launch_cost(size).as_ms_f64(),
                intel_ms: intel.late_launch_cost(size).as_ms_f64(),
                two_part_ms: two_part.as_ms_f64(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablation: sePCR capacity vs concurrent PALs (§5.4)
// ---------------------------------------------------------------------

/// One point of the sePCR-capacity ablation.
#[derive(Debug, Clone)]
pub struct SePcrPoint {
    /// Number of sePCRs in the TPM.
    pub sepcrs: u16,
    /// PALs whose launch succeeded.
    pub launched: usize,
    /// PALs whose launch failed with `NoFreeSePcr`.
    pub rejected: usize,
}

/// Attempts to hold `attempted` PALs live simultaneously under varying
/// sePCR bank sizes; the success count is capped by the bank, exactly as
/// §5.4 predicts ("the number of sePCRs ... establishes the limit for
/// the number of concurrently executing PALs").
pub fn ablation_sepcr(attempted: usize, bank_sizes: &[u16]) -> Vec<SePcrPoint> {
    bank_sizes
        .iter()
        .map(|&k| {
            let p = Platform::recommended(2).with_sepcr_count(k);
            let mut sea = EnhancedSea::new(platform(p, b"sepcr")).expect("platform");
            let mut launched = 0;
            let mut rejected = 0;
            for i in 0..attempted {
                let mut pal = FnPal::new(&format!("concurrent-{i}"), |_| Ok(PalOutcome::Yield));
                match sea.slaunch(&mut pal, b"", CpuId(0), None) {
                    Ok(id) => {
                        launched += 1;
                        // Suspend it so the CPU is free but the sePCR
                        // stays Exclusive (the PAL is still live).
                        sea.step(&mut pal, id).expect("yield step");
                    }
                    Err(_) => rejected += 1,
                }
            }
            SePcrPoint {
                sepcrs: k,
                launched,
                rejected,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Concurrent engine: aggregate PAL throughput vs core count
// ---------------------------------------------------------------------

/// One point of the throughput-vs-core-count sweep.
#[derive(Debug, Clone)]
pub struct ThroughputPoint {
    /// Worker threads = simulated CPUs running PAL sessions.
    pub workers: usize,
    /// Sessions completed.
    pub jobs: usize,
    /// Virtual wall time of the batch (ms).
    pub wall_ms: f64,
    /// Sum of every session's virtual cost (ms) — the one-core wall time.
    pub aggregate_ms: f64,
    /// Sessions completed per virtual second of wall time.
    pub per_sec: f64,
    /// Parallel speedup over one core.
    pub speedup: f64,
}

/// Aggregate PAL throughput vs core count on the proposed hardware:
/// pushes `jobs` identical sessions (launch, then `work` of PAL
/// computation, then attestation) through a plain-policy
/// [`SessionEngine`] batch at each worker count. §5.4's
/// per-PAL sePCRs and the access-control table are what let the sessions
/// overlap; the baseline hardware of §4.2 would serialize them at
/// `aggregate_ms` regardless of core count.
///
/// `obs` is installed into each sweep point's engine. Per-layer totals
/// and counters are additive, so the aggregated metrics are invariant
/// to worker interleaving even though this path's sessions are unkeyed.
pub fn throughput(
    worker_counts: &[usize],
    jobs: usize,
    work: SimDuration,
    obs: Obs,
) -> Vec<ThroughputPoint> {
    worker_counts
        .iter()
        .map(|&w| {
            let mut p = platform(Platform::recommended(w as u16), b"throughput");
            p.install_obs(obs.clone());
            let mut sea =
                SessionEngine::<sea_core::Slaunch>::new(p, w).expect("pool fits platform");
            let batch: Vec<ConcurrentJob> = (0..jobs)
                .map(|i| {
                    ConcurrentJob::new(
                        Box::new(FnPal::new(&format!("tp-{i}"), move |ctx| {
                            ctx.work(work);
                            Ok(PalOutcome::Exit(i.to_le_bytes().to_vec()))
                        })),
                        b"",
                    )
                })
                .collect();
            let out = sea.run(batch, &BatchPolicy::plain()).expect("batch runs");
            ThroughputPoint {
                workers: w,
                jobs,
                wall_ms: out.wall.as_ms_f64(),
                aggregate_ms: out.aggregate().as_ms_f64(),
                per_sec: out.throughput_per_sec(),
                speedup: out.speedup(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fault sweep: goodput vs injected fault rate under the recovery layer
// ---------------------------------------------------------------------

/// The seed every fault-sweep batch derives its fault tape from, so the
/// sweep is reproducible run to run.
pub const FAULT_SWEEP_SEED: u64 = 0xFA17;

/// Of the TPM transport faults injected at each sweep point, 1 in 8 is
/// fatal (non-retryable); the rest clear on retry.
pub const FAULT_SWEEP_FATAL_RATIO: u32 = sea_hw::RATE_DENOM / 8;

/// One point of the goodput-vs-fault-rate sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepPoint {
    /// Per-roll fault probability numerator (denominator
    /// [`sea_hw::RATE_DENOM`]).
    pub rate: u32,
    /// Sessions in the batch.
    pub jobs: usize,
    /// Sessions that completed with a quote.
    pub quoted: usize,
    /// Sessions killed after exhausting their retry budget.
    pub killed: usize,
    /// Total retries absorbed across the batch.
    pub retries: u32,
    /// Virtual wall time of the batch (ms).
    pub wall_ms: f64,
    /// Completed sessions per virtual second of wall time.
    pub goodput_per_sec: f64,
}

/// Goodput vs injected fault rate: pushes `jobs` identical sessions
/// through [`SessionEngine::run`] under a retrying policy at each TPM-transport
/// fault rate (per-roll probability `rate`/[`sea_hw::RATE_DENOM`],
/// memory-denial and timer-expiry rates at half that), under the default
/// [`RetryPolicy`]. Every batch replays the same deterministic fault
/// tape ([`FAULT_SWEEP_SEED`]), so the sweep is reproducible and
/// worker-count invariant. Transient faults cost retries (goodput decays
/// roughly linearly); the fatal fraction ([`FAULT_SWEEP_FATAL_RATIO`])
/// kills sessions outright, so completions drop as the rate climbs —
/// but the batch always finishes and every sePCR comes back.
///
/// `obs` is installed into each sweep point's engine: sessions are
/// keyed (batch index = track), so retries surface as
/// `recovery.backoff` leaves and `core.retries` counts on the faulted
/// session's own track.
pub(crate) fn fault_sweep(
    rates: &[u32],
    jobs: usize,
    work: SimDuration,
    workers: usize,
    obs: Obs,
) -> Vec<FaultSweepPoint> {
    rates
        .iter()
        .map(|&rate| {
            let mut p = platform(Platform::recommended(workers as u16), b"fault-sweep");
            p.install_obs(obs.clone());
            let mut sea =
                SessionEngine::<sea_core::Slaunch>::new(p, workers).expect("pool fits platform");
            sea.set_fault_plan(Some(
                FaultPlan::new(FAULT_SWEEP_SEED)
                    .with_tpm_rate(rate)
                    .with_mem_rate(rate / 2)
                    .with_timer_rate(rate / 2)
                    .with_fatal_ratio(FAULT_SWEEP_FATAL_RATIO),
            ));
            let batch: Vec<ConcurrentJob> = (0..jobs)
                .map(|i| {
                    ConcurrentJob::new(
                        Box::new(FnPal::new(&format!("fs-{i}"), move |ctx| {
                            ctx.work(work);
                            Ok(PalOutcome::Exit(i.to_le_bytes().to_vec()))
                        })),
                        b"",
                    )
                })
                .collect();
            let out = sea
                .run(
                    batch,
                    &BatchPolicy::plain().with_retry(RetryPolicy::default()),
                )
                .expect("batch runs");
            let retries = out
                .sessions
                .iter()
                .map(|s| match s {
                    SessionResult::Quoted { retries, .. } => *retries,
                    _ => 0,
                })
                .sum();
            FaultSweepPoint {
                rate,
                jobs,
                quoted: out.quoted(),
                killed: out.killed(),
                retries,
                wall_ms: out.wall.as_ms_f64(),
                goodput_per_sec: out.goodput_per_sec(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Crash sweep: goodput vs power-loss rate under the durable engine
// ---------------------------------------------------------------------

/// The seed every crash-sweep batch derives its power-loss tape from, so
/// the sweep is reproducible run to run.
pub const CRASH_SWEEP_SEED: u64 = 0x0C0FFEE;

/// Reset budget per sweep point: the durable engine stops pulling the
/// plug after this many reboots so every batch terminates.
pub const CRASH_SWEEP_MAX_RESETS: u32 = 4;

/// One point of the goodput-vs-power-loss-rate sweep.
#[derive(Debug, Clone)]
pub struct CrashSweepPoint {
    /// Per-commit power-loss probability numerator (denominator
    /// [`sea_hw::RATE_DENOM`]).
    pub rate: u32,
    /// Sessions in the batch.
    pub jobs: usize,
    /// Sessions that completed with a quote.
    pub quoted: usize,
    /// Platform resets survived.
    pub resets: u32,
    /// Sessions restored from the sealed NVRAM journal after the last
    /// reset (their results survived the power loss).
    pub committed: usize,
    /// Sessions relaunched from scratch after the last reset (torn or
    /// volatile at the moment the plug was pulled).
    pub relaunched: usize,
    /// Virtual time spent rebooting and replaying the journal (ms).
    pub recovery_ms: f64,
    /// Virtual time spent sealing journal checkpoints to NVRAM (ms).
    pub journal_ms: f64,
    /// Virtual wall time of the batch (ms).
    pub wall_ms: f64,
    /// Completed sessions per virtual second of wall time.
    pub goodput_per_sec: f64,
}

/// Goodput vs injected power-loss rate: pushes `jobs` identical sessions
/// through [`SessionEngine::run`] under a durable policy at each per-commit
/// power-loss probability (`rate`/[`sea_hw::RATE_DENOM`]), capped at
/// [`CRASH_SWEEP_MAX_RESETS`] reboots. Every batch replays the same
/// deterministic power-loss tape ([`CRASH_SWEEP_SEED`]); the final
/// session results are interleaving-invariant, and with a single worker
/// the whole sweep — resets, committed/relaunched splits, recovery
/// accounting — is byte-identical run to run. Each reset costs a reboot
/// ([`sea_hw::RESET_REBOOT_COST`]) plus a journal replay; sessions that
/// had committed to the sealed NVRAM journal keep their results, the
/// rest relaunch — so goodput decays with the rate but the batch always
/// finishes with every session quoted.
///
/// `obs` is installed into each sweep point's engine: journal
/// checkpoints and reboot recovery land on the platform-wide track
/// ([`sea_hw::PLATFORM_TRACK`]) as `journal.seal`/`journal.unseal`
/// leaves plus `journal.*` counters.
pub fn crash_sweep(
    rates: &[u32],
    jobs: usize,
    work: SimDuration,
    workers: usize,
    obs: Obs,
) -> Vec<CrashSweepPoint> {
    rates
        .iter()
        .map(|&rate| {
            let mut p = platform(Platform::recommended(workers as u16), b"crash-sweep");
            p.install_obs(obs.clone());
            let mut sea =
                SessionEngine::<sea_core::Slaunch>::new(p, workers).expect("pool fits platform");
            sea.set_fault_plan(Some(FaultPlan::fault_free()));
            let plan = ResetPlan::new(CRASH_SWEEP_SEED)
                .with_reset_rate(rate)
                .with_max_resets(CRASH_SWEEP_MAX_RESETS);
            let batch: Vec<ConcurrentJob> = (0..jobs)
                .map(|i| {
                    ConcurrentJob::new(
                        Box::new(FnPal::new(&format!("cs-{i}"), move |ctx| {
                            ctx.work(work);
                            Ok(PalOutcome::Exit(i.to_le_bytes().to_vec()))
                        })),
                        b"",
                    )
                })
                .collect();
            let out = sea
                .run(
                    batch,
                    &BatchPolicy::plain()
                        .with_retry(RetryPolicy::default())
                        .with_durability(plan),
                )
                .expect("batch runs");
            CrashSweepPoint {
                rate,
                jobs,
                quoted: out.quoted(),
                resets: out.resets,
                committed: out.committed.len(),
                relaunched: out.relaunched.len(),
                recovery_ms: out.recovery_latency.as_ms_f64(),
                journal_ms: out.journal_overhead.as_ms_f64(),
                wall_ms: out.wall.as_ms_f64(),
                goodput_per_sec: out.goodput_per_sec(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Scale: virtual-CPU counts past any host's physical cores
// ---------------------------------------------------------------------

/// The seed of the scale sweep's power-loss tape.
pub const SCALE_SEED: u64 = 0x5CA1E;

/// Per-commit power-loss rate the scale sweep injects (numerator over
/// [`sea_hw::RATE_DENOM`]).
pub const SCALE_RESET_RATE: u32 = sea_hw::RATE_DENOM / 64;

/// Reboot cap of the scale sweep's reset plan.
pub const SCALE_MAX_RESETS: u32 = 2;

/// One point of the platform-scale sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Virtual CPUs modeled (= engine workers under the event queue).
    pub cpus: usize,
    /// Sessions in the batch.
    pub jobs: usize,
    /// Sessions that completed with a quote.
    pub quoted: usize,
    /// Platform reboots the power-loss tape forced.
    pub resets: u32,
    /// Sessions restored from the sealed journal across all reboots.
    pub committed: usize,
    /// Sessions relaunched after losing uncommitted work.
    pub relaunched: usize,
    /// Virtual wall time of the batch (ms).
    pub wall_ms: f64,
    /// Sum of every session's virtual cost (ms) — the one-CPU wall time.
    pub aggregate_ms: f64,
    /// Parallel speedup over one CPU.
    pub speedup: f64,
    /// Completed sessions per virtual second of wall time.
    pub goodput_per_sec: f64,
}

/// Durable-batch goodput vs platform width, far past the host's core
/// count: pushes `jobs` identical attested sessions through a
/// crash-consistent [`SessionEngine`] batch on the **discrete-event
/// executor** ([`Executor::DiscreteEvent`]) at each virtual-CPU count —
/// the thread-pool backend would need one OS thread per simulated CPU
/// and so caps out at the host. Every point replays the same power-loss
/// tape ([`SCALE_SEED`]), and because the event queue's schedule is
/// structural, the *whole* ledger — resets, the committed/relaunched
/// split, recovery accounting — is byte-identical run to run at every
/// width (the thread pool can promise that only at one worker).
///
/// `obs` is installed into each sweep point's engine: journal
/// checkpoints and reboot recovery land on [`sea_hw::PLATFORM_TRACK`]
/// exactly as in the crash sweep.
pub fn scale(cpu_counts: &[usize], jobs: usize, work: SimDuration, obs: Obs) -> Vec<ScalePoint> {
    cpu_counts
        .iter()
        .map(|&cpus| {
            let mut p = platform(Platform::recommended(cpus as u16), b"scale");
            p.install_obs(obs.clone());
            let mut sea =
                SessionEngine::<sea_core::Slaunch>::new(p, cpus).expect("pool fits platform");
            sea.set_fault_plan(Some(FaultPlan::fault_free()));
            let plan = ResetPlan::new(SCALE_SEED)
                .with_reset_rate(SCALE_RESET_RATE)
                .with_max_resets(SCALE_MAX_RESETS);
            let batch: Vec<ConcurrentJob> = (0..jobs)
                .map(|i| {
                    ConcurrentJob::new(
                        Box::new(FnPal::new(&format!("sc-{i}"), move |ctx| {
                            ctx.work(work);
                            Ok(PalOutcome::Exit(i.to_le_bytes().to_vec()))
                        })),
                        b"",
                    )
                })
                .collect();
            let out = sea
                .run(
                    batch,
                    &BatchPolicy::plain()
                        .with_retry(RetryPolicy::default())
                        .with_durability(plan)
                        .with_executor(Executor::DiscreteEvent),
                )
                .expect("batch runs");
            ScalePoint {
                cpus,
                jobs,
                quoted: out.quoted(),
                resets: out.resets,
                committed: out.committed.len(),
                relaunched: out.relaunched.len(),
                wall_ms: out.wall.as_ms_f64(),
                aggregate_ms: out.aggregate().as_ms_f64(),
                speedup: out.speedup(),
                goodput_per_sec: out.goodput_per_sec(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Fleet: sharded platforms vs a remote verifier service
// ---------------------------------------------------------------------

/// Seed of the fleet sweep's hashed dispatch policy.
pub const FLEET_SEED: u64 = 0xF1EE7;

/// OS threads (shards) the fleet sweep runs each fleet over. The
/// outcome is byte-identical at any shard count; this just bounds host
/// threads.
pub const FLEET_SHARDS: usize = 4;

/// One point of the fleet-attestation sweep.
#[derive(Debug, Clone)]
pub struct FleetPoint {
    /// Platforms in the fleet.
    pub platforms: usize,
    /// Attestation requests dispatched across the fleet.
    pub requests: usize,
    /// Requests the remote verifier accepted.
    pub accepted: usize,
    /// Requests the remote verifier rejected.
    pub rejected: usize,
    /// AIK certificate-chain walks the verifier performed.
    pub cert_walks: u64,
    /// AIK session-ticket cache hits at the verifier.
    pub ticket_hits: u64,
    /// Virtual wall time until the last verdict (ms).
    pub wall_ms: f64,
    /// Median attestation latency, quote emission to verdict (ms).
    pub p50_ms: f64,
    /// 95th-percentile attestation latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile attestation latency (ms).
    pub p99_ms: f64,
    /// Accepted attestations per virtual second of fleet wall time.
    pub goodput_per_sec: f64,
}

/// Fleet-scale attestation: goodput and latency percentiles vs fleet
/// size. Each point hash-dispatches ([`FLEET_SEED`]) `requests`
/// attestation requests across a fleet of [`sea_fleet`] platforms,
/// runs every platform's sessions to a wire quote, and drains the
/// completions through the remote [`sea_fleet::VerifierService`] —
/// certificate walks, session tickets, nonce freshness, TCB policy and
/// all. Deterministic at every fleet size and shard count.
///
/// `obs` is installed into every platform in every fleet: session spans
/// and layer charges from all shards land in one recording.
pub(crate) fn fleet_sweep(platform_counts: &[usize], requests: usize, obs: Obs) -> Vec<FleetPoint> {
    platform_counts
        .iter()
        .map(|&platforms| {
            let cfg = sea_fleet::FleetConfig::new(platforms, requests)
                .with_shards(FLEET_SHARDS)
                .with_policy(sea_os::DispatchPolicy::Hashed { seed: FLEET_SEED });
            let out = sea_fleet::run_fleet_with_obs(&cfg, obs.clone());
            let lat = out.latencies_sorted_ns();
            let pct = |p: f64| {
                if lat.is_empty() {
                    0.0
                } else {
                    crate::stats::percentile_sorted(&lat, p) as f64 / 1e6
                }
            };
            FleetPoint {
                platforms,
                requests,
                accepted: out.accepted,
                rejected: out.rejected,
                cert_walks: out.cert_walks,
                ticket_hits: out.ticket_hits,
                wall_ms: out.wall_ns as f64 / 1e6,
                p50_ms: pct(0.50),
                p95_ms: pct(0.95),
                p99_ms: pct(0.99),
                goodput_per_sec: out.goodput_per_sec(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Churn: the fleet under network faults, reboots, rotation, adversaries
// ---------------------------------------------------------------------

/// Seed of the churn sweep: one seed derives the network fault plan,
/// reboot/rotation draws, adversarial schedule, and dispatch hashing.
pub const CHURN_SEED: u64 = 0xC7A05;

/// Platforms in the churn sweep's fleet.
pub const CHURN_PLATFORMS: usize = 8;

/// Verifier nonce-freshness window for the churn sweep. Finite (unlike
/// the calm fleet sweep's unbounded window) so stale-nonce adversarial
/// wires are actually distinguishable from honest retries, yet roomy
/// enough that backed-off honest re-quotes stay fresh.
pub const CHURN_FRESHNESS_NS: u64 = 100_000_000;

/// Session-ticket TTL for the churn sweep's verifier.
pub const CHURN_TICKET_TTL_NS: u64 = 50_000_000;

/// One point of the churn sweep: the fleet at one churn intensity.
#[derive(Debug, Clone)]
pub struct ChurnPoint {
    /// Churn intensity, parts per [`sea_hw::RATE_DENOM`]; the network,
    /// reboot, rotation, and adversary rates all scale with it.
    pub intensity: u32,
    /// Attestation requests dispatched across the fleet.
    pub requests: usize,
    /// Requests whose fate is accepted (verified, retried, degraded).
    pub accepted: usize,
    /// Requests terminally rejected by the verifier.
    pub rejected: usize,
    /// Requests that exhausted their attempt budget without a verdict.
    pub timed_out: usize,
    /// Accepted requests that rode a TCB-rollout grace window.
    pub degraded: usize,
    /// Total retry wires sent beyond each request's first attempt.
    pub retries: u64,
    /// Adversarial wires injected alongside the honest traffic.
    pub adversarial: usize,
    /// Adversarial wires the verifier rejected (must equal
    /// `adversarial`: the verifier never accepts forged traffic).
    pub adversarial_rejected: usize,
    /// Share of all wires reaching the verifier that it rejected
    /// (adversarial traffic included, unlike the fate counts).
    pub wire_rejection_rate: f64,
    /// Virtual wall time until the last verdict (ms).
    pub wall_ms: f64,
    /// Median request latency, first send to settlement (ms).
    pub p50_ms: f64,
    /// 95th-percentile latency (ms).
    pub p95_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// Accepted attestations per virtual second of fleet wall time.
    pub goodput_per_sec: f64,
}

/// The [`ChurnPlan`](sea_fleet::ChurnPlan) the churn sweep runs at one
/// intensity: every fault family scales with `intensity` from a calm
/// plan at 0, and any nonzero intensity also stages a mid-run TCB push
/// with a bounded grace window.
pub fn churn_plan(intensity: u32) -> sea_fleet::ChurnPlan {
    let plan = sea_fleet::ChurnPlan::new(CHURN_SEED)
        .with_net(
            sea_hw::NetPlan::new(CHURN_SEED)
                .with_drop_rate(intensity / 2)
                .with_delay_rate(intensity)
                .with_duplicate_rate(intensity / 2)
                .with_reorder_rate(intensity / 2),
        )
        .with_reboots(intensity / 4, 1_000_000)
        .with_rotation(intensity / 4, 2_000_000, 500_000)
        .with_adversary(intensity / 2, intensity / 2, intensity / 2, intensity / 2);
    if intensity == 0 {
        plan
    } else {
        // Announced mid-run (the sweep's fleets run for hundreds of
        // virtual milliseconds), propagating group by group, with a
        // bounded grace window sized to outlast the rest of the run:
        // requests settled before the push verify cleanly, later ones
        // are accepted degraded rather than cut off wholesale.
        plan.with_tcb_push(sea_fleet::TcbPush {
            at_ns: 200_000_000,
            groups: 4,
            group_delay_ns: 50_000_000,
            grace_ns: 10_000_000_000,
        })
    }
}

/// Churn tolerance: request fates, retry cost, and adversarial
/// rejection vs churn intensity. Each point runs [`CHURN_PLATFORMS`]
/// platforms under [`churn_plan`] with a resilient
/// [`FleetPolicy`](sea_fleet::FleetPolicy) and finite verifier
/// freshness/ticket windows, then charts how goodput degrades and what
/// share of wire traffic the verifier turns away. Deterministic at
/// every intensity, shard count, and executor.
///
/// `obs` is installed into every platform in every fleet.
pub(crate) fn churn_sweep(intensities: &[u32], requests: usize, obs: Obs) -> Vec<ChurnPoint> {
    intensities
        .iter()
        .map(|&intensity| {
            let cfg = sea_fleet::FleetConfig::new(CHURN_PLATFORMS, requests)
                .with_shards(FLEET_SHARDS)
                .with_policy(sea_os::DispatchPolicy::Hashed { seed: CHURN_SEED })
                .with_lifecycle(sea_fleet::FleetPolicy::resilient().with_max_attempts(6))
                .with_churn(churn_plan(intensity))
                .with_freshness_window_ns(CHURN_FRESHNESS_NS)
                .with_ticket_ttl_ns(CHURN_TICKET_TTL_NS);
            let out = sea_fleet::run_fleet_with_obs(&cfg, obs.clone());
            let lat = out.latencies_sorted_ns();
            let pct = |p: f64| {
                if lat.is_empty() {
                    0.0
                } else {
                    crate::stats::percentile_sorted(&lat, p) as f64 / 1e6
                }
            };
            ChurnPoint {
                intensity,
                requests,
                accepted: out.accepted,
                rejected: out.rejected,
                timed_out: out.timed_out,
                degraded: out.degraded,
                retries: out.retries,
                adversarial: out.adversarial.len(),
                adversarial_rejected: out.adversarial_rejected,
                wire_rejection_rate: out.stats.rejected as f64 / out.stats.requests.max(1) as f64,
                wall_ms: out.wall_ns as f64 / 1e6,
                p50_ms: pct(0.50),
                p95_ms: pct(0.95),
                p99_ms: pct(0.99),
                goodput_per_sec: out.goodput_per_sec(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// VM: the measured PAL bytecode VM — direct block chaining vs lookup
// ---------------------------------------------------------------------

/// Prime factor *p* of the semiprime the VM factoring workload cracks.
pub const VM_FACTOR_P: u64 = 65_519;
/// Prime factor *q* of the semiprime the VM factoring workload cracks.
pub const VM_FACTOR_Q: u64 = 65_521;
/// Trial-division candidates per execution quantum in the VM factoring
/// workload — sized so the session suspends and resumes several times.
pub const VM_FACTOR_QUANTUM: u64 = 8_192;

/// One point of the VM dispatch experiment: a paper PAL's canonical
/// workload executed as measured bytecode twice — once with direct
/// block chaining, once forced through the block-cache lookup on every
/// dispatch — on the proposed hardware's session engine.
#[derive(Debug, Clone)]
pub struct VmPoint {
    /// PAL name (also its measured identity's program).
    pub pal: String,
    /// Sessions the workload ran.
    pub sessions: usize,
    /// Instructions retired (identical in both runs by construction).
    pub retired: u64,
    /// Translation blocks dispatched.
    pub blocks: u64,
    /// Dispatches served through a patched chain edge (chained run).
    pub chain_hits: u64,
    /// Virtual ns spent on dispatch + decode with chaining on.
    pub chained_dispatch_ns: u64,
    /// Virtual ns spent on dispatch + decode with chaining off.
    pub lookup_dispatch_ns: u64,
    /// `lookup_dispatch_ns / chained_dispatch_ns`.
    pub dispatch_speedup: f64,
}

/// Drives `pal` through `inputs` as one attested session each on a
/// fresh proposed-hardware platform, returning the session outputs.
/// The per-invocation block cache resets between sessions; the PAL's
/// slot state and cumulative [`sea_core::VmStats`] carry across them,
/// which is exactly what the multi-session workloads (SSH enroll →
/// verify, CA generate → sign) need.
fn run_vm_workload(pal: &mut sea_core::VmPal, inputs: &[Vec<u8>], obs: Obs) -> Vec<Vec<u8>> {
    let mut p = platform(Platform::recommended(2), b"vm");
    p.install_obs(obs);
    let mut sea = EnhancedSea::new(p).expect("proposed platform");
    inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let id = sea.slaunch(pal, input, CpuId(0), None).expect("launch");
            let done = sea.run_to_exit(pal, id, CpuId(0)).expect("run");
            let nonce = (i as u64).to_le_bytes();
            sea.quote_and_free(id, &nonce).expect("quote");
            done.output
        })
        .collect()
}

/// One bench workload: `(name, constructor, session inputs)`.
type VmWorkload = (&'static str, Box<dyn Fn() -> sea_core::VmPal>, Vec<Vec<u8>>);

/// The four paper PALs as bench workloads.
fn vm_workloads() -> Vec<VmWorkload> {
    use sea_pals::vm::{vm_ca, vm_factoring, vm_rootkit, vm_ssh};
    use sea_pals::{CaRequest, PersistMode, SshRequest};
    let kernel = vec![0xC3u8; 4096];
    let other = vec![0x90u8; 4096];
    vec![
        (
            "ssh-password",
            Box::new(vm_ssh),
            vec![
                SshRequest::Enroll(b"correct horse".to_vec()).to_bytes(),
                SshRequest::Verify(b"correct horse".to_vec()).to_bytes(),
                SshRequest::Verify(b"battery staple".to_vec()).to_bytes(),
            ],
        ),
        (
            "certificate-authority",
            Box::new(vm_ca),
            vec![
                CaRequest::Generate.to_bytes(),
                CaRequest::Sign(b"vm bench csr".to_vec()).to_bytes(),
            ],
        ),
        (
            "distributed-factoring",
            Box::new(move || {
                vm_factoring(
                    VM_FACTOR_P * VM_FACTOR_Q,
                    VM_FACTOR_QUANTUM,
                    PersistMode::InRegion,
                )
            }),
            vec![Vec::new()],
        ),
        (
            "rootkit-detector",
            {
                let kernel = kernel.clone();
                Box::new(move || vm_rootkit(&[&kernel, &other]))
            },
            vec![kernel],
        ),
    ]
}

/// Runs each paper PAL's canonical workload as executed bytecode twice
/// — chaining on, then chaining off — and reports what direct block
/// chaining saves in dispatch gas. Outputs and retired-instruction
/// counts are asserted identical between the two runs (chaining is a
/// dispatch optimization, never a semantic one), so the speedup column
/// measures dispatch alone.
///
/// `obs` is installed into every platform the runs use.
pub(crate) fn vm_dispatch(obs: Obs) -> Vec<VmPoint> {
    vm_workloads()
        .into_iter()
        .map(|(name, make, inputs)| {
            let mut chained = make();
            let chained_out = run_vm_workload(&mut chained, &inputs, obs.clone());
            let c = chained.stats();

            let mut lookup = make().with_chaining(false);
            let lookup_out = run_vm_workload(&mut lookup, &inputs, obs.clone());
            let l = lookup.stats();

            assert_eq!(chained_out, lookup_out, "{name}: chaining changed outputs");
            assert_eq!(c.retired, l.retired, "{name}: chaining changed execution");
            assert_eq!(l.chain_hits, 0, "{name}: disabled chaining still chained");

            VmPoint {
                pal: name.to_string(),
                sessions: inputs.len(),
                retired: c.retired,
                blocks: c.blocks_executed,
                chain_hits: c.chain_hits,
                chained_dispatch_ns: c.dispatch_gas,
                lookup_dispatch_ns: l.dispatch_gas,
                dispatch_speedup: l.dispatch_gas as f64 / c.dispatch_gas.max(1) as f64,
            }
        })
        .collect()
}

/// Cross-executor pin for the VM artifact: a batch of four VM PALs
/// (one session each) run through the session engine on the one- and
/// four-worker thread pools and the discrete-event executor. Returns
/// whether every job's attestation quote was byte-identical across all
/// three schedules — the engine's determinism contract extended to
/// executed bytecode.
pub fn vm_quotes_identical_across_executors() -> bool {
    use sea_pals::vm::{vm_ca, vm_factoring, vm_rootkit, vm_ssh};
    use sea_pals::{CaRequest, PersistMode, SshRequest};
    let batch = || -> Vec<ConcurrentJob> {
        let kernel = vec![0xC3u8; 4096];
        vec![
            ConcurrentJob::new(
                Box::new(vm_ssh()),
                SshRequest::Enroll(b"pw".to_vec()).to_bytes(),
            ),
            ConcurrentJob::new(Box::new(vm_ca()), CaRequest::Generate.to_bytes()),
            ConcurrentJob::new(
                Box::new(vm_factoring(65_519 * 3, 4_096, PersistMode::InRegion)),
                b"",
            ),
            ConcurrentJob::new(Box::new(vm_rootkit(&[&kernel])), kernel.clone()),
        ]
    };
    let quotes = |workers: usize, executor: Executor| -> Vec<Quote> {
        let mut sea = SessionEngine::<sea_core::Slaunch>::new(
            platform(Platform::recommended(workers as u16), b"vm-exec"),
            workers,
        )
        .expect("pool fits platform")
        .with_executor(executor);
        let out = sea
            .run(
                batch(),
                &BatchPolicy::plain().with_retry(RetryPolicy::default()),
            )
            .expect("batch runs");
        out.sessions
            .into_iter()
            .map(|s| match s {
                SessionResult::Quoted { quote, .. } => quote,
                other => panic!("VM session did not quote: {other:?}"),
            })
            .collect()
    };
    let reference = quotes(1, Executor::ThreadPool);
    quotes(4, Executor::ThreadPool) == reference && quotes(4, Executor::DiscreteEvent) == reference
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_matches_paper() {
        let rows = table1(Obs::null());
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.measured_ms.len(), PAL_SIZES.len());
            // Monotone in PAL size.
            for w in row.measured_ms.windows(2) {
                assert!(w[1] >= w[0], "{}: not monotone", row.system);
            }
            // Endpoint within 2% of the paper (64 KB column).
            let m = row.measured_ms[5];
            let p = row.paper_ms[5];
            assert!((m - p).abs() / p < 0.02, "{}: {m} vs {p}", row.system);
        }
        // TPM slows SKINIT ~20× (dc5750 vs Tyan at 64 KB).
        let ratio = rows[0].measured_ms[5] / rows[1].measured_ms[5];
        assert!(ratio > 15.0 && ratio < 25.0, "ratio {ratio}");
        // Intel beats AMD-with-TPM for large PALs but loses for small.
        assert!(rows[2].measured_ms[5] < rows[0].measured_ms[5]);
        assert!(rows[2].measured_ms[1] > rows[0].measured_ms[1]);
    }

    #[test]
    fn table2_matches_paper_within_rounding() {
        for row in table2() {
            assert!(
                (row.vm_enter_us - row.paper_enter_us).abs() < 0.02,
                "{row:?}"
            );
            assert!((row.vm_exit_us - row.paper_exit_us).abs() < 0.02, "{row:?}");
        }
    }

    #[test]
    fn figure2_shape_matches_paper() {
        let bars = figure2(5, Obs::null());
        let (gen, use_bar, quote) = (&bars[0], &bars[1], &bars[2]);
        // PAL Gen ≈ 200 ms: SKINIT + Seal, no Unseal.
        assert!((gen.total_ms - 197.5).abs() < 15.0, "gen {}", gen.total_ms);
        assert!(gen.unseal_ms < 1.0);
        // PAL Use > 1 s, dominated by Unseal.
        assert!(use_bar.total_ms > 1000.0, "use {}", use_bar.total_ms);
        assert!(use_bar.unseal_ms > use_bar.skinit_ms);
        // Quote is several hundred ms.
        assert!(quote.quote_ms > 700.0 && quote.quote_ms < 1100.0);
    }

    #[test]
    fn figure3_reproduces_ordering_constraints() {
        let cells = figure3(20, Obs::null());
        let get = |tpm: &str, op: &str| -> f64 {
            cells
                .iter()
                .find(|c| c.tpm == tpm && c.op == op)
                .unwrap_or_else(|| panic!("missing {tpm}/{op}"))
                .mean_ms
        };
        // Broadcom: fastest Seal, slowest Quote and Unseal.
        for other in ["T60 Atmel", "Infineon", "TEP Atmel"] {
            assert!(get("Broadcom", "Seal") < get(other, "Seal"));
            assert!(get("Broadcom", "Quote") > get(other, "Quote"));
            assert!(get("Broadcom", "Unseal") > get(other, "Unseal"));
        }
        // Infineon Unseal ≈ 390.98 ms.
        assert!((get("Infineon", "Unseal") - 390.98).abs() < 25.0);
        // Error bars exist but are small (≤ ~5% of mean).
        for c in &cells {
            assert!(c.stddev_ms >= 0.0);
            assert!(c.stddev_ms < c.mean_ms * 0.12, "{c:?}");
        }
    }

    #[test]
    fn impact_is_about_six_orders_of_magnitude() {
        let r = impact();
        assert!(r.baseline_switch_in_ms > 1000.0, "{r:?}");
        assert!(r.baseline_switch_out_ms > 10.0, "{r:?}");
        assert!(r.proposed_pair_us < 3.0, "{r:?}");
        assert!(
            r.improvement > 1e5 && r.improvement < 1e7,
            "improvement {}",
            r.improvement
        );
    }

    #[test]
    fn concurrency_enhanced_always_wins() {
        let points = concurrency(4, &[1, 4], 10, SimDuration::from_secs(20));
        for p in &points {
            assert!(
                p.enhanced_legacy_ms > p.baseline_legacy_ms,
                "n={} enhanced {} vs baseline {}",
                p.n_pals,
                p.enhanced_legacy_ms,
                p.baseline_legacy_ms
            );
            assert!(p.baseline_stalled_ms > 0.0);
        }
        // More PALs → bigger baseline loss.
        assert!(points[1].baseline_stalled_ms > points[0].baseline_stalled_ms);
    }

    #[test]
    fn latency_collapse_under_load_reproduced() {
        let points = latency(4, &[5000, 1500], 5, SimDuration::from_secs(60));
        for p in &points {
            // Proposed responses stay ~ms-scale; baseline is >1 s even
            // unloaded (the session itself exceeds a second).
            assert!(p.baseline_mean_ms > 1000.0, "{p:?}");
            assert!(p.proposed_mean_ms < 50.0, "{p:?}");
        }
        // Under heavier load (arrivals ~1.5 s apart vs ~1.25 s service),
        // the baseline queue amplifies the gap further.
        assert!(points[1].baseline_p95_ms > points[0].baseline_p95_ms);
    }

    #[test]
    fn fast_tpm_cannot_reach_proposed_costs() {
        let points = ablation_fast_tpm(&[1.0, 10.0, 100.0, 1000.0]);
        for p in &points {
            assert!(
                p.baseline_switch_us > p.proposed_pair_us * 10.0,
                "even {}x TPM gives {} µs vs {} µs",
                p.speedup,
                p.baseline_switch_us,
                p.proposed_pair_us
            );
        }
        // Monotone improvement with speed-up, of course.
        for w in points.windows(2) {
            assert!(w[1].baseline_switch_us < w[0].baseline_switch_us);
        }
    }

    #[test]
    fn hash_placement_crossover_near_10kb() {
        let sizes: Vec<usize> = (0..=64).map(|k| k * 1024).collect();
        let points = ablation_hash_placement(&sizes);
        // Small PALs: AMD wins. Large PALs: Intel wins.
        assert!(points[1].amd_ms < points[1].intel_ms);
        assert!(points[64].intel_ms < points[64].amd_ms);
        // Crossover between 8 KB and 12 KB (paper: ACMod ≈ 10 KB).
        let crossover = points
            .windows(2)
            .find(|w| w[0].amd_ms <= w[0].intel_ms && w[1].amd_ms > w[1].intel_ms)
            .map(|w| w[1].size)
            .expect("crossover exists");
        assert!(
            (8 * 1024..=12 * 1024).contains(&crossover),
            "crossover at {crossover}"
        );
        // The two-part trick beats plain AMD for large PALs.
        assert!(points[64].two_part_ms < points[64].amd_ms / 10.0);
    }

    #[test]
    fn throughput_scales_with_core_count() {
        let points = throughput(&[1, 2, 4], 8, SimDuration::from_ms(50), Obs::null());
        // One core is the serial baseline by definition.
        assert!((points[0].speedup - 1.0).abs() < 1e-9, "{points:?}");
        assert!((points[0].wall_ms - points[0].aggregate_ms).abs() < 1e-9);
        // Identical jobs, nominal costs: aggregate work is invariant.
        for p in &points[1..] {
            assert!(
                (p.aggregate_ms - points[0].aggregate_ms).abs() < 1e-6,
                "{p:?}"
            );
        }
        // Perfectly balanced batch → near-linear scaling.
        assert!(points[1].speedup > 1.9, "{points:?}");
        assert!(points[2].speedup > 3.9, "{points:?}");
        assert!(points[2].per_sec > points[1].per_sec && points[1].per_sec > points[0].per_sec);
    }

    #[test]
    fn sepcr_bank_caps_concurrency() {
        let points = ablation_sepcr(8, &[1, 2, 4, 8, 16]);
        for p in &points {
            assert_eq!(p.launched, (p.sepcrs as usize).min(8), "{p:?}");
            assert_eq!(p.launched + p.rejected, 8);
        }
    }

    #[test]
    fn crash_sweep_recovers_every_session() {
        let points = crash_sweep(
            &[0, sea_hw::RATE_DENOM / 3],
            8,
            SimDuration::from_ms(2),
            4,
            Obs::null(),
        );
        // Reset-free: no reboots, no recovery time, full goodput.
        assert_eq!(points[0].resets, 0, "{points:?}");
        assert_eq!(points[0].quoted, 8);
        assert_eq!(points[0].recovery_ms, 0.0);
        assert_eq!((points[0].committed, points[0].relaunched), (0, 0));
        // Checkpointing itself costs TPM time even without a crash.
        assert!(points[0].journal_ms > 0.0, "{points:?}");
        // Plug-pulling: at least one reboot within the budget, yet the
        // batch still finishes with every session quoted.
        let stressed = &points[1];
        assert!(
            stressed.resets >= 1 && stressed.resets <= CRASH_SWEEP_MAX_RESETS,
            "{stressed:?}"
        );
        assert_eq!(stressed.quoted, 8, "{stressed:?}");
        assert_eq!(stressed.committed + stressed.relaunched, 8, "{stressed:?}");
        // Each reboot shows up on the clock, so goodput sags.
        assert!(
            stressed.recovery_ms >= stressed.resets as f64 * sea_hw::RESET_REBOOT_COST.as_ms_f64(),
            "{stressed:?}"
        );
        assert!(
            stressed.goodput_per_sec < points[0].goodput_per_sec,
            "{points:?}"
        );
    }

    #[test]
    fn scale_sweep_holds_at_a_thousand_cpus() {
        // The 1024 width runs twice: the second pass is the
        // determinism probe at the bottom.
        let points = scale(&[1, 1024, 1024], 256, SimDuration::from_ms(1), Obs::null());
        for p in &points {
            // Every session quoted, every reset accounted for.
            assert_eq!(p.quoted, p.jobs, "{p:?}");
            assert!(p.resets <= SCALE_MAX_RESETS, "{p:?}");
            if p.resets > 0 {
                assert_eq!(p.committed + p.relaunched, p.jobs, "{p:?}");
            } else {
                assert_eq!((p.committed, p.relaunched), (0, 0), "{p:?}");
            }
        }
        // The power-loss tape must actually pull the plug somewhere.
        assert!(points.iter().any(|p| p.resets > 0), "{points:?}");
        // Final sessions are width-invariant, so the aggregate virtual
        // compute is too.
        for p in &points[1..] {
            assert!(
                (p.aggregate_ms - points[0].aggregate_ms).abs() < 1e-6,
                "{p:?}"
            );
        }
        // Adding virtual CPUs never makes the batch slower.
        for w in points.windows(2) {
            assert!(w[1].wall_ms <= w[0].wall_ms + 1e-9, "{w:?}");
        }
        // The event queue's schedule is structural: the whole ledger —
        // including the committed/relaunched crash split — reproduces
        // byte-identically even at 1024 virtual CPUs.
        assert_eq!(format!("{:?}", points[1]), format!("{:?}", points[2]));
    }

    #[test]
    fn fleet_sweep_accepts_everything_and_scales() {
        let points = fleet_sweep(&[1, 4], 8, Obs::null());
        assert_eq!(points.len(), 2);
        for p in &points {
            // An honest fleet is accepted wholesale.
            assert_eq!(p.accepted, p.requests, "{p:?}");
            assert_eq!(p.rejected, 0, "{p:?}");
            // One certificate walk per platform the dispatcher used;
            // every other quote rides a session ticket.
            assert_eq!(p.cert_walks + p.ticket_hits, p.requests as u64, "{p:?}");
            assert!(p.cert_walks <= p.platforms as u64, "{p:?}");
            assert!(p.p50_ms <= p.p95_ms && p.p95_ms <= p.p99_ms, "{p:?}");
            assert!(p.goodput_per_sec > 0.0, "{p:?}");
        }
        // A single platform forces exactly one certificate walk.
        assert_eq!(points[0].cert_walks, 1, "{points:?}");
        // More platforms never make the fleet slower overall.
        assert!(points[1].wall_ms <= points[0].wall_ms + 1e-9, "{points:?}");
    }

    #[test]
    fn churn_sweep_baseline_is_clean_and_chaos_is_contained() {
        let points = churn_sweep(&[0, 20_000], 12, Obs::null());
        assert_eq!(points.len(), 2);
        // Intensity 0 is the honest fleet: no retries, no adversaries,
        // nothing rejected, everything verified first try.
        let calm = &points[0];
        assert_eq!(calm.accepted, 12, "{calm:?}");
        assert_eq!(calm.rejected + calm.timed_out, 0, "{calm:?}");
        assert_eq!(calm.retries, 0, "{calm:?}");
        assert_eq!(calm.adversarial, 0, "{calm:?}");
        assert_eq!(calm.wire_rejection_rate, 0.0, "{calm:?}");
        // Under heavy churn the lifecycle works for its acceptances,
        // and every forged wire is turned away.
        let rough = &points[1];
        assert_eq!(
            rough.accepted + rough.rejected + rough.timed_out,
            12,
            "{rough:?}"
        );
        assert!(rough.retries > 0, "{rough:?}");
        // The honest fleet substantially survives: retries and the
        // TCB-push grace window keep churn from zeroing acceptance.
        assert!(rough.accepted >= 9, "{rough:?}");
        assert!(rough.degraded > 0, "{rough:?}");
        assert!(rough.adversarial > 0, "{rough:?}");
        assert_eq!(rough.adversarial_rejected, rough.adversarial, "{rough:?}");
        assert!(rough.wire_rejection_rate > 0.0, "{rough:?}");
        assert!(rough.p50_ms <= rough.p95_ms && rough.p95_ms <= rough.p99_ms);
    }

    #[test]
    fn fault_sweep_degrades_gracefully() {
        let points = fault_sweep(
            &[0, 2000, 12_000],
            8,
            SimDuration::from_ms(2),
            4,
            Obs::null(),
        );
        // Fault-free: everything quoted, no retries, no kills.
        assert_eq!(points[0].quoted, 8, "{points:?}");
        assert_eq!(points[0].killed, 0);
        assert_eq!(points[0].retries, 0);
        // Every batch completes: no session is unaccounted for.
        for p in &points {
            assert_eq!(p.quoted + p.killed, p.jobs, "{p:?}");
            assert!(p.goodput_per_sec >= 0.0);
        }
        // Faults cost retries and/or kills, and goodput never improves
        // as the rate climbs.
        let stressed = &points[2];
        assert!(stressed.retries > 0 || stressed.killed > 0, "{stressed:?}");
        assert!(
            stressed.goodput_per_sec <= points[0].goodput_per_sec,
            "{points:?}"
        );
    }
}
