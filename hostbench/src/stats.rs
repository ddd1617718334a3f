//! Order statistics and process-memory readings used by the reports.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentiles tried, highest first, in tenths of a percent
/// (integer so that ranks carry no rounding error).
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// A tail reading: the highest percentile of [`TAIL_LADDER`] that has at
/// least `min_beyond` samples strictly beyond its nearest-rank position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen.
    pub percentile: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Samples in all.
    pub samples: usize,
}

/// Picks the tail percentile for `values`; `None` when even the median
/// has fewer than `min_beyond` samples beyond it.
pub fn tail(values: &[f64], min_beyond: usize) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&p| {
        // Nearest rank: the smallest rank r with r >= p‰ of n.
        let rank = (p * n).div_ceil(1000).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= min_beyond).then(|| Tail {
            percentile: p as f64 / 10.0,
            value: v[rank - 1],
            beyond,
            samples: n,
        })
    })
}

/// Parses the peak resident set (`VmHWM`, in KiB) out of the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kib)
}

/// This process's peak resident memory in MiB, if the kernel reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_chosen_percentile() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values, 10).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));

        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&values, 10).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 190.0, 10));

        // 199 samples: p95 leaves only 9 beyond, so p90 is the tail.
        let values: Vec<f64> = (1..=199).map(f64::from).collect();
        let t = tail(&values, 10).unwrap();
        assert_eq!((t.percentile, t.beyond), (90.0, 19));
        assert_eq!(t.samples, 199);
    }

    #[test]
    fn tail_is_none_below_twenty_samples() {
        let values: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&values, 10), None);
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&values, 10).unwrap().percentile, 50.0);
    }

    #[test]
    fn vm_hwm_parses_from_proc_status_text() {
        let status =
            "Name:\thostbench\nVmPeak:\t  300000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 1000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn this_process_reports_its_peak_rss() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
