//! Host-time benchmark of the minimal-TCB simulator.
//!
//! ```text
//! hostbench --workload <pal_sessions|durable_batch|fleet_churn> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop with one client: the next *unit* (one
//! batch, or one fleet run) starts when the previous one has finished,
//! and every unit repeats the inputs derived from `--seed` (a workload
//! whose work moves with the seed cycles through a few input variants,
//! all derived from it). Every unit is checked by the correctness oracle
//! after it is timed, and the digest of its simulated results must
//! repeat across the run's units of the same variant.
//!
//! With `--trace 0` the run reports the end-to-end metrics, its times
//! at reference speed (see [`calib`]): every unit and every set-up is
//! bracketed by a fixed calibration kernel, so that the host's drift in
//! speed cancels out of them. With
//! `--trace 1` it runs the units through finer public calls with spans
//! around each call into a layer and reports the per-layer metrics.
//! Spans (traced runs), and every unit's host time, raw and at
//! reference speed, with the kernel's times, the tail percentile and its
//! sample count (untraced runs), are written to
//! `.bench_out/`. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed`, `metrics`.

mod calib;
mod durable;
mod fleet;
mod oracle;
mod pal;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use sea_core::engine::{Slaunch, Stepped};
use sea_core::{FnPal, PalOutcome, SeaError, SecurePlatform, SessionEngine};
use sea_hw::{CpuId, Platform};
use sea_tpm::{KeyStrength, Tpm};

use calib::{at_reference, Calibration};
use oracle::Checks;
use stats::median;
use trace::{Tracer, UnitProfile, ROOT};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["pal_sessions", "durable_batch", "fleet_churn"];

/// The seed whose virtual-time digests `digests.json` records.
const DEFAULT_SEED: u64 = 1;
/// Set-up samples per run: this process's own, then fresh child
/// processes' spread evenly over the timed phase (the key vault is
/// process-wide, so only a new process pays its set-up again).
const SETUP_SAMPLES: usize = 15;
/// Samples required beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;
/// Timed units a run holds at least, so that p95 keeps [`TAIL_BEYOND`]
/// samples beyond it even on a slow host (a 40 s run of the slowest
/// workload, `durable_batch`, holds 220 to 450): a run whose tail fell
/// back to p90 would read apart from the others.
const MIN_UNITS: usize = 200;
/// Bound on the session-capacity probe, so that it ends even once the
/// allocator no longer runs out.
const CAPACITY_CAP: usize = 50_000;

/// A SplitMix64 stream: every input a workload uses is drawn from it.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6873_7462_656e_6368)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// What one unit produced, as the oracle saw it.
pub struct UnitResult {
    /// Which of the workload's input variants the unit ran.
    pub variant: usize,
    /// Virtual wall time the unit simulated.
    pub virtual_ns: u64,
    /// Sessions that ended with a quote.
    pub quoted: u64,
    /// Quotes (or fleet requests) a verifier accepted.
    pub verified: u64,
    /// Digest of the unit's simulated results.
    pub digest: String,
    /// The oracle's checks.
    pub checks: Checks,
}

impl UnitResult {
    /// A unit that produced nothing to check further.
    pub fn failed(checks: Checks) -> Self {
        UnitResult {
            variant: 0,
            virtual_ns: 0,
            quoted: 0,
            verified: 0,
            digest: String::new(),
            checks,
        }
    }
}

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Host threads the untraced unit runs on.
    const THREADS: usize;
    /// Threads the unit keeps busy at once, on which the calibration
    /// kernel runs beside it: a unit that keeps one thread busy speeds
    /// up and slows down with the host like a one-thread kernel does.
    const BUSY_THREADS: usize;
    /// What one unit returns for the oracle to check.
    type Outcome;
    /// Provisions keys, warms lazy state and derives the inputs from
    /// `seed`; set-up spans go to `t`.
    fn setup(seed: u64, t: &mut Tracer) -> Self;
    /// Runs one unit as a user of the layers would, untraced.
    fn unit(&mut self) -> Self::Outcome;
    /// Runs the same unit through finer public calls, with spans when
    /// `t` is on; returns the outcome and the unit's host ns.
    fn traced_unit(&mut self, t: &mut Tracer) -> (Self::Outcome, u64);
    /// The oracle: checks a unit's outcome and digests its simulated
    /// results. Runs outside the timed unit.
    fn check(&self, out: Self::Outcome) -> UnitResult;
}

/// Runs and checks one untraced unit.
#[cfg(test)]
pub fn checked_unit<W: Workload>(w: &mut W) -> UnitResult {
    let out = w.unit();
    w.check(out)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A metric as printed: value and unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Totals of the oracle over a run.
struct Oracle {
    checks: Checks,
    /// The digests recorded for the default seed, by input variant.
    recorded: Option<Vec<String>>,
    /// The run's first digest of each input variant.
    seen: BTreeMap<usize, String>,
}

impl Oracle {
    fn new(args: &Args) -> Self {
        Oracle {
            checks: Checks::default(),
            recorded: (args.seed == DEFAULT_SEED).then(|| oracle::recorded_digests(&args.workload)),
            seen: BTreeMap::new(),
        }
    }

    /// Folds in one unit: its checks, plus one check on its digest, which
    /// must equal the recorded one at the default seed and else the
    /// run's first of the same variant.
    fn absorb(&mut self, r: UnitResult) {
        let reference = match &self.recorded {
            Some(recorded) => recorded.get(r.variant).cloned().unwrap_or_default(),
            None => self
                .seen
                .entry(r.variant)
                .or_insert_with(|| r.digest.clone())
                .clone(),
        };
        self.checks.check(reference == r.digest, || {
            format!(
                "digest {} of variant {} differs from {reference:?}",
                r.digest, r.variant
            )
        });
        self.checks.absorb(r.checks);
    }
}

fn main() {
    let code = match parse_args() {
        Ok(args) => match args.workload.as_str() {
            "pal_sessions" => run::<pal::PalSessions>(&args),
            "durable_batch" => run::<durable::DurableBatch>(&args),
            _ => run::<fleet::FleetChurn>(&args),
        },
        Err(e) => {
            eprintln!("hostbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Times one set-up in a fresh process: seconds at reference speed, and
/// raw.
fn setup_in_child(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--setup-probe", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("set-up probe exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let times: Vec<f64> = text
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("set-up probe printed no time: {e}"))?;
    match times[..] {
        [secs, raw] => Ok((secs, raw)),
        _ => Err(format!("set-up probe printed {text:?}")),
    }
}

/// Host seconds of one set-up at reference speed, with the raw seconds.
fn timed_setup<W: Workload>(seed: u64, cal: &mut Calibration) -> (W, f64, f64) {
    let before = cal.sample_ms(1);
    let start = Instant::now();
    let w = W::setup(seed, &mut Tracer::off());
    let raw = start.elapsed().as_secs_f64();
    (w, at_reference(raw, before, cal.sample_ms(1)), raw)
}

fn run<W: Workload>(args: &Args) -> i32 {
    if args.setup_probe {
        let (w, secs, raw) = timed_setup::<W>(args.seed, &mut Calibration::new(1));
        std::hint::black_box(w);
        println!("{secs} {raw}");
        return 0;
    }
    let outcome = if args.trace {
        traced::<W>(args)
    } else {
        untraced::<W>(args)
    };
    match outcome {
        Ok((oracle, metrics)) => {
            let c = &oracle.checks;
            for r in &c.reasons {
                eprintln!("hostbench: oracle: {r}");
            }
            println!("{}", result_json(c, &metrics));
            0
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            1
        }
    }
}

/// The end-to-end run: set-up, then closed-loop units for the run time
/// and at least [`MIN_UNITS`] of them.
fn untraced<W: Workload>(args: &Args) -> Result<(Oracle, Metrics), String> {
    let mut cal = Calibration::new(W::BUSY_THREADS);
    let (mut w, setup, raw_setup) = timed_setup::<W>(args.seed, &mut cal);
    let (mut setups, mut raw_setups) = (vec![setup], vec![raw_setup]);

    let mut oracle = Oracle::new(args);
    let (mut raw_ms, mut kernel_ms) = (vec![], vec![]);
    let (mut secs, mut quoted, mut verified, mut virt) = (vec![], vec![], vec![], vec![]);
    let budget = Duration::from_secs_f64(args.seconds);
    let phase = Instant::now();
    let mut before = cal.sample_ms(W::BUSY_THREADS);
    while phase.elapsed() < budget || setups.len() < SETUP_SAMPLES || secs.len() < MIN_UNITS {
        // Between units, never inside one.
        let due = budget.mul_f64(setups.len() as f64 / SETUP_SAMPLES as f64);
        if setups.len() < SETUP_SAMPLES && phase.elapsed() >= due {
            let (setup, raw_setup) = setup_in_child(args)?;
            setups.push(setup);
            raw_setups.push(raw_setup);
            before = cal.sample_ms(W::BUSY_THREADS);
            continue;
        }
        let t = Instant::now();
        let out = w.unit();
        let host = t.elapsed().as_secs_f64();
        let after = cal.sample_ms(W::BUSY_THREADS);
        secs.push(at_reference(host, before, after));
        raw_ms.push(host * 1e3);
        kernel_ms.push((before + after) / 2.0);
        before = after;
        let r = w.check(out);
        quoted.push(r.quoted as f64);
        verified.push(r.verified as f64);
        virt.push(r.virtual_ns as f64 / 1e9);
        oracle.absorb(r);
    }

    let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
    let tail = stats::tail(&ms, TAIL_BEYOND).ok_or(format!(
        "only {} units in {} s: too few for a tail",
        ms.len(),
        args.seconds
    ))?;
    let rss = stats::peak_rss_mib().ok_or("no VmHWM in /proc/self/status")? - cal.resident_mib();
    eprintln!(
        "hostbench: {} seed {}: {} units; unit_tail_ms is p{} with {} samples beyond it",
        args.workload, args.seed, tail.samples, tail.percentile, tail.beyond
    );
    let list = |v: &[f64], digits: usize| {
        v.iter()
            .map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    write_out(
        &format!("units-{}-{}.json", args.workload, args.seed),
        &format!(
            "{{\"unit_tail_percentile\": {}, \"samples_beyond\": {}, \"ref_ms\": {}, \"setup_s\": [{}], \"raw_setup_s\": [{}], \"unit_ms\": [{}], \"raw_unit_ms\": [{}], \"kernel_ms\": [{}]}}\n",
            tail.percentile,
            tail.beyond,
            calib::REF_MS,
            list(&setups, 6),
            list(&raw_setups, 6),
            list(&ms, 3),
            list(&raw_ms, 3),
            list(&kernel_ms, 3),
        ),
    )?;
    let mut m = Metrics::new();
    let mut put = |k: &str, v: f64, unit| {
        m.insert(k.to_string(), (v, unit));
    };
    put("setup_s", median(&setups), "s");
    // Closed-loop throughput: work over the time the units took at
    // reference speed. A total, not a median, so that one unit more or
    // less on either side of the median does not step it.
    let busy: f64 = secs.iter().sum();
    let rate = |work: &[f64]| work.iter().sum::<f64>() / busy;
    put("sessions_per_s", rate(&quoted), "1/s");
    put("verified_per_s", rate(&verified), "1/s");
    put("virtual_s_per_host_s", rate(&virt), "ratio");
    put("unit_p50_ms", median(&ms), "ms");
    put("unit_tail_ms", tail.value, "ms");
    put("peak_rss_mib", rss, "MiB");
    Ok((oracle, m))
}

/// Writes `name` under `.bench_out/` in the working directory.
fn write_out(name: &str, contents: &str) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(name), contents).map_err(|e| format!("writing {name}: {e}"))
}

/// Launches cheap sessions on one engine until the platform's page
/// allocator refuses a launch, and returns how many were quoted.
fn session_capacity() -> Result<f64, String> {
    let tpm = Tpm::new(
        Platform::recommended(1).tpm_kind,
        KeyStrength::Demo512,
        b"hostbench/capacity",
    );
    let platform = SecurePlatform::with_tpm(Platform::recommended(1), tpm);
    let engine = SessionEngine::<Slaunch>::new(platform, 1).map_err(|e| e.to_string())?;
    for i in 0..CAPACITY_CAP {
        let mut pal = FnPal::new("capacity", |_| Ok(PalOutcome::Exit(Vec::new())));
        let session = match engine.launch(&mut pal, &[], CpuId(0), i) {
            Ok(s) => s,
            Err(SeaError::RegionTooSmall { .. }) => return Ok(i as f64),
            Err(e) => return Err(format!("capacity probe: {e}")),
        };
        let step = session.step().map_err(|e| e.to_string())?;
        let Stepped::Exited(sealed) = step else {
            return Err("capacity probe PAL yielded".into());
        };
        sealed
            .quote_and_free(&(i as u64).to_le_bytes())
            .map_err(|e| e.to_string())?;
    }
    Ok(CAPACITY_CAP as f64)
}

/// The per-layer run: real units, then traced units and untraced units
/// of the traced path in turn, then the capacity probe.
fn traced<W: Workload>(args: &Args) -> Result<(Oracle, Metrics), String> {
    let mut t = Tracer::on();
    let root = t.begin_unit();
    let mut w = W::setup(args.seed, &mut t);
    t.end_unit(root);
    let setup = t.profile(1);

    let mut oracle = Oracle::new(args);
    let mut off = Tracer::off();
    let (mut real_ns, mut off_ns, mut profiles) = (vec![], vec![], vec![]);
    let budget = Duration::from_secs_f64(args.seconds);
    let phase = Instant::now();
    // The real units run first, in the process state an untraced run
    // measures them in: replays leave the allocator in another.
    while phase.elapsed() < budget / 3 || real_ns.len() < 3 {
        let start = Instant::now();
        let out = w.unit();
        real_ns.push(start.elapsed().as_nanos() as f64);
        oracle.absorb(w.check(out));
    }
    while phase.elapsed() < budget || profiles.len() < 3 {
        let (out, _) = w.traced_unit(&mut t);
        profiles.push(t.profile(t.units()));
        oracle.absorb(w.check(out));

        let (out, host) = w.traced_unit(&mut off);
        off_ns.push(host as f64);
        oracle.absorb(w.check(out));
    }
    let capacity = session_capacity()?;
    write_out(
        &format!("spans-{}-{}.jsonl", args.workload, args.seed),
        &t.to_jsonl(),
    )?;

    let m = layer_metrics(
        W::THREADS as f64,
        &setup,
        &profiles,
        &real_ns,
        &off_ns,
        capacity,
    );
    Ok((oracle, m))
}

/// Per-layer metrics: medians over the traced units of per-unit values.
/// A `.ns` metric is the self time, in host ns per unit, of the spans of
/// that name (`tpm.seal.ns` per checkpoint, `core.vm.ns_per_insn.*` per
/// retired instruction); set-up metrics come from the set-up's spans. A
/// layer a workload never calls reads 0.
fn layer_metrics(
    threads: f64,
    setup: &UnitProfile,
    units: &[UnitProfile],
    real_ns: &[f64],
    off_ns: &[f64],
    capacity: f64,
) -> Metrics {
    let med = |f: &dyn Fn(&UnitProfile) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let host = |p: &UnitProfile| p.host_ns as f64;
    let journal = |p: &UnitProfile| {
        [
            "core.journal.commit",
            "core.journal.to_bytes",
            "core.journal.from_bytes",
            "tpm.seal",
            "tpm.unseal",
            "tpm.nvram_store",
        ]
        .iter()
        .map(|n| p.ns(n))
        .sum::<f64>()
    };

    let mut m = Metrics::new();
    let mut put = |k: &str, v: f64, unit: &'static str| {
        m.insert(k.to_string(), (v, unit));
    };
    for name in [
        "hw.platform_new",
        "pals.build",
        "core.vm.run",
        "core.engine.launch",
        "tpm.quote",
        "tpm.unseal",
        "tpm.nvram_store",
        "core.journal.commit",
        "core.journal.to_bytes",
        "core.journal.from_bytes",
        "fleet.verify.walk",
        "fleet.verify.ticket",
        "fleet.verify.reject",
        "fleet.reissue",
    ] {
        put(&format!("{name}.ns"), med(&|p| p.ns(name)), "ns");
    }
    put(
        "hw.platform_new.count",
        med(&|p| p.count("hw.platform_new.count")),
        "count",
    );
    put(
        "hw.platform_new.share",
        med(&|p| ratio(p.ns("hw.platform_new"), host(p))),
        "fraction",
    );
    put("crypto.keygen.ns", setup.ns("crypto.keygen"), "ns");
    put("fleet.vault.ns", setup.ns("fleet.vault"), "ns");

    for pal in ["ssh", "ca", "factoring", "rootkit"] {
        let (ns, insns) = (format!("vm.ns.{pal}"), format!("vm.retired.{pal}"));
        put(
            &format!("core.vm.ns_per_insn.{pal}"),
            med(&|p| ratio(p.count(&ns), p.count(&insns))),
            "ns",
        );
    }
    for c in [
        "retired",
        "blocks_executed",
        "blocks_decoded",
        "chain_hits",
        "cache_lookups",
    ] {
        let key = format!("core.vm.{c}");
        put(&key, med(&|p| p.count(&key)), "count");
    }
    put(
        "core.vm.chain_hit_ratio",
        med(&|p| {
            let hits = p.count("core.vm.chain_hits");
            ratio(hits, hits + p.count("core.vm.cache_lookups"))
        }),
        "fraction",
    );
    put(
        "core.vm.share",
        med(&|p| ratio(p.ns("core.vm.run"), host(p))),
        "fraction",
    );
    put(
        "core.vm.insns_per_s",
        med(&|p| ratio(p.count("core.vm.retired"), p.ns("core.vm.run") / 1e9)),
        "1/s",
    );

    put(
        "core.engine.run.ns",
        med(&|p| p.ns("core.engine.new") + p.ns("core.engine.run")),
        "ns",
    );
    put("core.engine.unattributed.ns", med(&|p| p.ns(ROOT)), "ns");
    put(
        "core.engine.parallel_efficiency",
        ratio(med(&host), threads * median(real_ns)),
        "fraction",
    );
    put(
        "core.engine.useful_ratio",
        med(&|p| {
            ratio(
                p.count("core.engine.quoted"),
                p.count("core.engine.launched"),
            )
        }),
        "fraction",
    );
    put("core.engine.session_capacity", capacity, "count");

    put(
        "tpm.seal.ns",
        med(&|p| ratio(p.ns("tpm.seal"), p.count("core.journal.commits"))),
        "ns",
    );
    put(
        "tpm.seal.bytes",
        med(&|p| p.count("tpm.seal.bytes")),
        "bytes",
    );
    for c in ["commits", "resets", "relaunched"] {
        let key = format!("core.journal.{c}");
        put(&key, med(&|p| p.count(&key)), "count");
    }
    put(
        "core.journal.share",
        med(&|p| ratio(journal(p), host(p))),
        "fraction",
    );

    for c in [
        "wires",
        "cert_walks",
        "ticket_hits",
        "retries",
        "adversarial",
    ] {
        let key = format!("fleet.{c}");
        put(&key, med(&|p| p.count(&key)), "count");
    }
    put(
        "fleet.useful_ratio",
        med(&|p| ratio(p.count("fleet.accepted"), p.count("fleet.wires"))),
        "fraction",
    );
    put("fleet.unattributed.ns", med(&|p| p.ns("fleet.run")), "ns");

    put("bench.unit_traced.ns", med(&host), "ns");
    put("bench.trace_overhead.ns", med(&host) - median(off_ns), "ns");
    m
}

/// The result line.
fn result_json(c: &Checks, metrics: &Metrics) -> String {
    let mut body = String::new();
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        c.failed == 0 && c.attempted > 0,
        c.attempted.max(1),
        c.failed,
    )
}
