//! Capstone: a full system day in the life.
//!
//! ```text
//! cargo run --example full_system
//! ```
//!
//! Boots a measured platform, multiprograms the paper's application PALs
//! alongside legacy work on the recommended hardware, ships a serialized
//! attestation across a simulated network to a remote verifier, and lets
//! a ring-0 adversary probe every isolation boundary along the way.

use minimal_tcb::core::{EnhancedSea, FnPal, PalLogic, PalOutcome, SecurePlatform, Verifier};
use minimal_tcb::hw::{CpuId, Machine, Platform, SimDuration};
use minimal_tcb::os::{Adversary, Scheduler};
use minimal_tcb::pals::vm::{vm_rootkit, vm_ssh};
use minimal_tcb::pals::SshRequest;
use minimal_tcb::tpm::{EventLog, KeyStrength, PcrIndex, Quote};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== full system walkthrough ==\n");

    // 1. Power on: measured boot fills the static PCRs.
    let platform_desc = Platform::recommended(4);
    let mut sp = SecurePlatform::new(platform_desc.clone(), KeyStrength::Demo512, b"full");
    *sp.machine_mut() = Machine::builder(platform_desc).device("NIC").build();
    let mut boot_log = EventLog::new();
    {
        let tpm = sp.tpm_mut().unwrap();
        boot_log.measure(tpm, PcrIndex(0), "BIOS", b"bios-1.0")?;
        boot_log.measure(tpm, PcrIndex(4), "bootloader", b"loader-2.1")?;
        boot_log.measure(tpm, PcrIndex(8), "kernel", b"kernel-5.5")?;
    }
    println!(
        "boot: {} components measured into static PCRs",
        boot_log.events().len()
    );

    // 2. The OS multiprograms security services as PALs.
    let mut sea = EnhancedSea::new(sp)?;

    // Keep one attested PAL outside the batch so we can walk its quote
    // across the "network".
    let mut audited = FnPal::new("audited-service", |ctx| {
        ctx.work(SimDuration::from_ms(3));
        Ok(PalOutcome::Exit(b"audit ok".to_vec()))
    });
    let audited_image = audited.image();
    let id = sea.slaunch(&mut audited, b"", CpuId(0), None)?;

    // The adversary probes while it runs.
    let adv = Adversary::new();
    let blocked = [
        adv.read_pal_memory(&mut sea, id, CpuId(1)).was_blocked(),
        adv.dma_read_pal_memory(&mut sea, id, minimal_tcb::hw::DeviceId(0))
            .was_blocked(),
        adv.hijack_sepcr(&mut sea, id, CpuId(2)).was_blocked(),
    ];
    println!(
        "adversary probes while the PAL runs: {}/{} blocked",
        blocked.iter().filter(|b| **b).count(),
        blocked.len()
    );

    // One more probe through the traced path, so the denial lands in
    // the hardware event log.
    let pal_base = sea.secb(id)?.pages().base_addr();
    let _ = sea.platform_mut().machine_mut().read_traced(
        minimal_tcb::hw::Requester::Cpu(CpuId(1)),
        pal_base,
        16,
    );

    let done = sea.run_to_exit(&mut audited, id, CpuId(0))?;
    println!(
        "audited service output: {:?}",
        String::from_utf8_lossy(&done.output)
    );

    // 3. Untrusted code generates the attestation and serializes it.
    let quote = sea.quote_and_free(id, b"remote-challenge")?.value;
    let wire: Vec<u8> = quote.to_bytes();
    println!("attestation serialized: {} bytes over the wire", wire.len());

    // 4. The remote verifier, holding only the AIK and the trusted
    //    image, reconstructs and checks it.
    let verifier = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
    let received = Quote::from_bytes(&wire)?;
    verifier.verify_sepcr_quote(&received, b"remote-challenge", &audited_image, &[])?;
    println!("remote verifier: ACCEPTED\n");

    // 5. Meanwhile, batch services share the machine with legacy work.
    let mut sched = Scheduler::new(sea);
    sched.set_preemption_timer(Some(SimDuration::from_ms(5)));
    let kernel = b"kernel-5.5".to_vec();
    sched.add_job(Box::new(vm_rootkit(&[&kernel])), &kernel);
    sched.add_job(
        Box::new(vm_ssh()),
        &SshRequest::Enroll(b"hunter2".to_vec()).to_bytes(),
    );
    for i in 0..4 {
        sched.add_job(
            Box::new(FnPal::new(&format!("svc-{i}"), move |ctx| {
                ctx.work(SimDuration::from_ms(8));
                Ok(PalOutcome::Exit(vec![i]))
            })),
            b"",
        );
    }
    let horizon = SimDuration::from_secs(2);
    let out = sched.run_all(horizon)?;
    println!(
        "scheduler: {} PAL jobs done, wall {}, stalls {}",
        out.outputs.len(),
        out.wall,
        out.stalled
    );
    println!(
        "legacy work kept {:.1}% of a {}-core machine during it all",
        100.0 * out.legacy_utilization(4, horizon),
        4
    );

    // 6. Denial events are visible in the hardware trace.
    let denials = sched
        .sea()
        .platform()
        .machine()
        .trace()
        .filtered(|e| matches!(e, minimal_tcb::hw::TraceEvent::AccessDenied { .. }))
        .count();
    println!("hardware trace retained {denials} recorded denial(s)");
    Ok(())
}
