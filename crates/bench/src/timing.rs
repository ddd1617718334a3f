//! A dependency-free wall-clock micro-benchmark harness built on
//! [`std::time::Instant`], used by the `benches/` targets (which set
//! `harness = false`).
//!
//! Unlike the experiment binaries — which report *virtual* time and are
//! byte-for-byte deterministic — these measure what the simulator itself
//! costs to run on the host, so the numbers are inherently noisy. The
//! harness therefore reports order statistics (median and p95) rather
//! than a mean, and supports a *smoke mode* (`SEA_BENCH_SMOKE=1`) that
//! runs each benchmark a handful of times just to prove it executes;
//! CI uses smoke mode so the tier-1 script stays fast.

use std::time::{Duration, Instant};

/// Wall-clock budget spent sampling one benchmark in full mode.
const SAMPLE_BUDGET: Duration = Duration::from_millis(1500);
/// Wall-clock budget spent warming up one benchmark in full mode.
const WARMUP_BUDGET: Duration = Duration::from_millis(200);
/// Sample-count ceiling in full mode.
const MAX_SAMPLES: usize = 200;
/// Sample count in smoke mode.
const SMOKE_SAMPLES: usize = 3;

/// True when `SEA_BENCH_SMOKE` is set to anything but `0`/empty, asking
/// for the cheapest run that still exercises every benchmark body.
pub fn smoke_mode() -> bool {
    std::env::var("SEA_BENCH_SMOKE")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Order statistics over one benchmark's timed iterations.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Benchmark name as printed.
    pub name: String,
    /// Per-iteration wall-clock samples, sorted ascending.
    pub samples: Vec<Duration>,
}

impl Timing {
    /// The p-th percentile (0.0..=1.0) by nearest-rank on the sorted
    /// sample vector (the harness's one percentile definition).
    pub fn percentile(&self, p: f64) -> Duration {
        crate::stats::percentile_sorted(&self.samples, p)
    }

    /// Median (p50) iteration time.
    pub fn median(&self) -> Duration {
        self.percentile(0.50)
    }

    /// 95th-percentile iteration time.
    pub fn p95(&self) -> Duration {
        self.percentile(0.95)
    }

    /// Fastest observed iteration.
    pub fn min(&self) -> Duration {
        self.samples[0]
    }
}

/// Renders a duration with a unit chosen for a 3-significant-digit-ish
/// reading (ns / µs / ms / s).
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Times `f` repeatedly and prints one aligned report line:
/// median, p95, min, and sample count. Returns the samples for callers
/// (e.g. throughput post-processing).
///
/// In full mode the function warms up for `WARMUP_BUDGET`, then
/// samples until `SAMPLE_BUDGET` or `MAX_SAMPLES` is reached; smoke
/// mode runs one warmup and `SMOKE_SAMPLES` timed iterations.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Timing {
    let smoke = smoke_mode();

    // Warmup: fill caches, fault pages, let the first allocation happen.
    if smoke {
        std::hint::black_box(f());
    } else {
        let start = Instant::now();
        while start.elapsed() < WARMUP_BUDGET {
            std::hint::black_box(f());
        }
    }

    let (budget, cap) = if smoke {
        (Duration::MAX, SMOKE_SAMPLES)
    } else {
        (SAMPLE_BUDGET, MAX_SAMPLES)
    };
    let mut samples = Vec::new();
    let run_start = Instant::now();
    while samples.len() < cap {
        let t0 = Instant::now();
        std::hint::black_box(f());
        samples.push(t0.elapsed());
        if run_start.elapsed() >= budget {
            break;
        }
    }
    samples.sort_unstable();
    let timing = Timing {
        name: name.to_string(),
        samples,
    };
    println!(
        "{:<32} median {:>10}   p95 {:>10}   min {:>10}   n={}",
        timing.name,
        fmt_duration(timing.median()),
        fmt_duration(timing.p95()),
        fmt_duration(timing.min()),
        timing.samples.len(),
    );
    timing
}

/// Prints a section header separating benchmark groups.
pub fn group(title: &str) {
    println!("\n== {title} ==");
}

/// Derives MiB/s throughput from a per-iteration byte count and a
/// median iteration time.
pub fn mib_per_sec(bytes: usize, median: Duration) -> f64 {
    let secs = median.as_secs_f64();
    if secs == 0.0 {
        f64::INFINITY
    } else {
        bytes as f64 / (1 << 20) as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing_of(mut samples: Vec<u64>) -> Timing {
        samples.sort_unstable();
        Timing {
            name: "t".into(),
            samples: samples.into_iter().map(Duration::from_nanos).collect(),
        }
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let t = timing_of((1..=100).collect());
        assert_eq!(t.min(), Duration::from_nanos(1));
        assert_eq!(t.median(), Duration::from_nanos(51));
        assert_eq!(t.p95(), Duration::from_nanos(95));
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let t = timing_of(vec![7]);
        assert_eq!(t.min(), t.median());
        assert_eq!(t.median(), t.p95());
    }

    #[test]
    fn duration_formatting_picks_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(999)), "999 ns");
        assert_eq!(fmt_duration(Duration::from_nanos(1500)), "1.50 µs");
        assert_eq!(fmt_duration(Duration::from_micros(2500)), "2.50 ms");
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "1.500 s");
    }

    #[test]
    fn throughput_math() {
        let mib = mib_per_sec(1 << 20, Duration::from_secs(1));
        assert!((mib - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bench_smoke_runs_bounded_iterations() {
        // Force smoke behaviour irrespective of the environment by
        // checking the sample cap math only.
        let t = bench("unit-test-noop", || 1 + 1);
        assert!(!t.samples.is_empty());
        assert!(t.samples.len() <= MAX_SAMPLES);
    }
}
