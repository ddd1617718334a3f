//! One-shot reproduction report: runs every experiment and prints a
//! compact paper-vs-measured summary. The per-experiment binaries give
//! full detail; this is the "does the reproduction hold?" overview.

use sea_bench::{
    ablation_fast_tpm, ablation_hash_placement, ablation_sepcr, concurrency, figure2, figure3,
    impact, latency, table1, table2,
};
use sea_hw::{Obs, SimDuration};
use sea_tpm::TpmOp;

fn check(label: &str, ok: bool, detail: String) -> bool {
    println!("  [{}] {label}: {detail}", if ok { "ok" } else { "!!" });
    ok
}

fn main() {
    println!("minimal-tcb reproduction report\n===============================\n");
    let mut all_ok = true;

    println!("Table 1 — late launch vs PAL size:");
    let t1 = table1(Obs::null());
    for row in &t1 {
        let m = row.measured_ms[5];
        let p = row.paper_ms[5];
        all_ok &= check(
            &row.system,
            (m - p).abs() / p < 0.02,
            format!("64 KB: {m:.2} ms (paper {p:.2} ms)"),
        );
    }

    println!("\nTable 2 — VM entry/exit:");
    for row in table2() {
        all_ok &= check(
            &row.system,
            (row.vm_enter_us - row.paper_enter_us).abs() < 0.02,
            format!(
                "enter {:.4} µs (paper {:.4}), exit {:.4} µs (paper {:.4})",
                row.vm_enter_us, row.paper_enter_us, row.vm_exit_us, row.paper_exit_us
            ),
        );
    }

    println!("\nFigure 2 — session overheads (HP dc5750):");
    let bars = figure2(20, Obs::null());
    all_ok &= check(
        "PAL Gen ≈ 200 ms",
        (bars[0].total_ms - 197.5).abs() < 15.0,
        format!("{:.2} ms", bars[0].total_ms),
    );
    all_ok &= check(
        "PAL Use > 1 s",
        bars[1].total_ms > 1000.0,
        format!("{:.2} ms", bars[1].total_ms),
    );

    println!("\nFigure 3 — TPM microbenchmarks:");
    let cells = figure3(20, Obs::null());
    let get = |tpm: &str, op: TpmOp| {
        cells
            .iter()
            .find(|c| c.tpm == tpm && c.op == op.label())
            .map(|c| c.mean_ms)
            .unwrap_or(f64::NAN)
    };
    all_ok &= check(
        "Broadcom fastest Seal",
        get("Broadcom", TpmOp::Seal) < get("Infineon", TpmOp::Seal),
        format!("{:.2} ms", get("Broadcom", TpmOp::Seal)),
    );
    all_ok &= check(
        "Infineon Unseal ≈ 391 ms",
        (get("Infineon", TpmOp::Unseal) - 390.98).abs() < 25.0,
        format!("{:.2} ms", get("Infineon", TpmOp::Unseal)),
    );

    println!("\n§5.7 — context-switch impact:");
    let r = impact();
    all_ok &= check(
        "≈ six orders of magnitude",
        r.improvement > 1e5 && r.improvement < 1e7,
        format!(
            "{:.2} ms + {:.2} ms → {:.2} µs ({:.1e}x)",
            r.baseline_switch_in_ms, r.baseline_switch_out_ms, r.proposed_pair_us, r.improvement
        ),
    );

    println!("\nConcurrency & responsiveness:");
    let conc = concurrency(4, &[4], 10, SimDuration::from_secs(20));
    all_ok &= check(
        "proposed hardware frees legacy CPU time",
        conc[0].enhanced_legacy_ms > conc[0].baseline_legacy_ms,
        format!(
            "+{:.0} ms recovered over 20 s",
            conc[0].enhanced_legacy_ms - conc[0].baseline_legacy_ms
        ),
    );
    let lat = latency(4, &[5000], 5, SimDuration::from_secs(60));
    all_ok &= check(
        "service latency collapses",
        lat[0].proposed_mean_ms < 50.0 && lat[0].baseline_mean_ms > 1000.0,
        format!(
            "{:.0} ms → {:.1} ms mean response",
            lat[0].baseline_mean_ms, lat[0].proposed_mean_ms
        ),
    );

    println!("\nAblations:");
    let fast = ablation_fast_tpm(&[1000.0]);
    all_ok &= check(
        "1000x TPM still ≫ proposed",
        fast[0].baseline_switch_us > fast[0].proposed_pair_us * 100.0,
        format!(
            "{:.0} µs vs {:.2} µs",
            fast[0].baseline_switch_us, fast[0].proposed_pair_us
        ),
    );
    let sizes: Vec<usize> = (0..=16).map(|k| k * 1024).collect();
    let hp = ablation_hash_placement(&sizes);
    let crossover = hp
        .windows(2)
        .find(|w| w[0].amd_ms <= w[0].intel_ms && w[1].amd_ms > w[1].intel_ms)
        .map(|w| w[1].size);
    all_ok &= check(
        "AMD/Intel crossover ≈ 10 KB",
        matches!(crossover, Some(c) if (8 * 1024..=12 * 1024).contains(&c)),
        format!("{:?} bytes", crossover),
    );
    let sepcr = ablation_sepcr(8, &[4]);
    all_ok &= check(
        "sePCR bank caps concurrency",
        sepcr[0].launched == 4 && sepcr[0].rejected == 4,
        format!(
            "{} launched / {} rejected with 4 sePCRs",
            sepcr[0].launched, sepcr[0].rejected
        ),
    );

    println!(
        "\n{}",
        if all_ok {
            "ALL REPRODUCTION CHECKS PASSED"
        } else {
            "SOME CHECKS FAILED — see above"
        }
    );
    std::process::exit(if all_ok { 0 } else { 1 });
}
