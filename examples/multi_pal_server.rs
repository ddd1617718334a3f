//! Multiprogramming PALs alongside legacy work (Figure 4).
//!
//! ```text
//! cargo run --example multi_pal_server
//! ```
//!
//! A server hosts several security-sensitive services as PALs — password
//! checks, CA signatures, integrity scans — while legacy work keeps the
//! remaining CPU time. On baseline hardware every PAL session freezes
//! the whole machine; on the proposed hardware PALs and the legacy OS
//! run concurrently (§5's goal). The example prints the legacy CPU time
//! each architecture leaves on the table.

use minimal_tcb::core::{EnhancedSea, FnPal, LegacySea, PalLogic, PalOutcome, SecurePlatform};
use minimal_tcb::hw::{CpuId, Platform, SimDuration};
use minimal_tcb::os::{LegacyBatch, Scheduler};
use minimal_tcb::pals::vm::vm_ssh;
use minimal_tcb::pals::SshRequest;
use minimal_tcb::tpm::KeyStrength;

const N_CPUS: u16 = 4;
const HORIZON: SimDuration = SimDuration::from_secs(5);

fn service_pal(name: &str, work_ms: u64) -> Box<dyn PalLogic> {
    Box::new(
        FnPal::new(name, move |ctx| {
            ctx.work(SimDuration::from_ms(work_ms));
            let token = ctx.random(8)?;
            Ok(PalOutcome::Exit(token))
        })
        .with_image_size(16 * 1024),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== multi-PAL server: {N_CPUS} cores, {HORIZON} horizon ==\n");

    // ---- Proposed hardware: Scheduler over EnhancedSea ----
    let platform = SecurePlatform::new(
        Platform::recommended(N_CPUS),
        KeyStrength::Demo512,
        b"server",
    );
    let mut scheduler = Scheduler::new(EnhancedSea::new(platform)?);
    scheduler.set_preemption_timer(Some(SimDuration::from_ms(10)));

    // A realistic mix: one real SSH-password PAL plus synthetic services.
    let mut ssh = vm_ssh();
    // Enroll first (single session, outside the measured batch).
    {
        let sea = scheduler.sea_mut();
        let id = sea.slaunch(
            &mut ssh,
            &SshRequest::Enroll(b"correct horse battery staple".to_vec()).to_bytes(),
            CpuId(0),
            None,
        )?;
        sea.run_to_exit(&mut ssh, id, CpuId(0))?;
        sea.quote_and_free(id, b"enroll")?;
    }
    scheduler.add_job(
        Box::new(ssh),
        &SshRequest::Verify(b"correct horse battery staple".to_vec()).to_bytes(),
    );
    for i in 0..6 {
        scheduler.add_job(service_pal(&format!("service-{i}"), 20), b"");
    }
    let enhanced = scheduler.run_all(HORIZON)?;

    println!("proposed hardware (concurrent PALs, Figure 4):");
    println!("  schedule wall time: {}", enhanced.wall);
    println!("  PAL cpu time:       {}", enhanced.pal_busy);
    println!("  stalled cpu time:   {}", enhanced.stalled);
    println!(
        "  legacy cpu time:    {} ({:.1}% of capacity)\n",
        enhanced.legacy_available,
        100.0 * enhanced.legacy_utilization(N_CPUS, HORIZON)
    );

    // ---- Baseline hardware: every session stalls the platform ----
    // Same core count as the proposed machine for a fair comparison.
    let mut baseline_platform = Platform::hp_dc5750();
    baseline_platform.n_cpus = N_CPUS;
    let platform = SecurePlatform::new(baseline_platform, KeyStrength::Demo512, b"server-legacy");
    let mut batch = LegacyBatch::new(LegacySea::new(platform)?);
    batch.add_job(
        Box::new(vm_ssh()),
        &SshRequest::Enroll(b"correct horse battery staple".to_vec()).to_bytes(),
    );
    for i in 0..6 {
        batch.add_job(service_pal(&format!("service-{i}"), 20), b"");
    }
    let baseline = batch.run_all(HORIZON)?;

    println!("baseline hardware (whole-platform stalls, §4.2):");
    println!("  schedule wall time: {}", baseline.wall);
    println!("  PAL cpu time:       {}", baseline.pal_busy);
    println!("  stalled cpu time:   {}", baseline.stalled);
    println!(
        "  legacy cpu time:    {} ({:.1}% of capacity)\n",
        baseline.legacy_available,
        100.0 * baseline.legacy_utilization(N_CPUS, HORIZON)
    );

    println!(
        "legacy throughput recovered by the proposed hardware: {}",
        enhanced.legacy_available - baseline.legacy_available
    );
    Ok(())
}
