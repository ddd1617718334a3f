//! Distributed-computing worker: where should intermediate state live?
//!
//! ```text
//! cargo run --example distributed_factoring
//! ```
//!
//! The same factoring job (the paper's SETI@Home-style workload, §4.1)
//! runs twice: on baseline hardware, sealing its progress to the TPM
//! between quanta, and on the proposed hardware, keeping progress in its
//! protected pages across `SYIELD`. The overhead ratio between the two
//! runs is §5.7's argument rendered as an application.

use minimal_tcb::core::{EnhancedSea, LegacySea, SecurePlatform, SessionReport};
use minimal_tcb::hw::{CpuId, Platform};
use minimal_tcb::pals::vm::vm_factoring;
use minimal_tcb::pals::{decode_factors, PersistMode};
use minimal_tcb::tpm::KeyStrength;

const N: u64 = 104_729 * 104_723; // product of two five-digit primes
const QUANTUM: u64 = 20_000; // candidate divisors per scheduling quantum

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== distributed factoring: n = {N} ==\n");

    // ---- Baseline: progress sealed to the TPM every quantum ----
    let platform = SecurePlatform::new(
        Platform::hp_dc5750(),
        KeyStrength::Demo512,
        b"factor-legacy",
    );
    let mut legacy = LegacySea::new(platform)?;
    let mut worker = vm_factoring(N, QUANTUM, PersistMode::TpmSeal);
    let mut total = SessionReport::default();
    let mut sessions = 0u32;
    let factors = loop {
        sessions += 1;
        let r = legacy.run_session(&mut worker, b"")?;
        total = total.merged(&r.report);
        if let Some(f) = decode_factors(&r.output.unwrap_or_default()) {
            break f;
        }
    };
    println!("baseline (TPM-sealed progress):");
    println!("  factors: {} x {}", factors.0, factors.1);
    println!("  sessions: {sessions}");
    println!("  totals:   {total}");
    let baseline_overhead = total.overhead();

    // ---- Proposed: progress lives in protected pages ----
    let platform = SecurePlatform::new(
        Platform::recommended(2),
        KeyStrength::Demo512,
        b"factor-enhanced",
    );
    let mut enhanced = EnhancedSea::new(platform)?;
    let mut worker = vm_factoring(N, QUANTUM, PersistMode::InRegion);
    let id = enhanced.slaunch(&mut worker, b"", CpuId(0), None)?;
    let done = enhanced.run_to_exit(&mut worker, id, CpuId(0))?;
    let factors2 = decode_factors(&done.output).expect("factors found");
    println!("\nproposed (in-region progress across SYIELD):");
    println!("  factors: {} x {}", factors2.0, factors2.1);
    println!("  totals:   {}", done.report);
    assert_eq!(factors, factors2);

    let proposed_overhead = done.report.overhead();
    println!(
        "\narchitectural overhead: {} -> {} ({:.0}x less)",
        baseline_overhead,
        proposed_overhead,
        baseline_overhead.as_ns() as f64 / proposed_overhead.as_ns().max(1) as f64
    );
    println!(
        "identical useful work ({} vs {}) — the difference is pure architecture.",
        total.pal_work, done.report.pal_work
    );
    Ok(())
}
