//! Cross-crate integration tests: complete workflows spanning the
//! hardware substrate, TPM, SEA runtimes, OS, applications, and external
//! verification.

use minimal_tcb::core::{
    EnhancedSea, FnPal, LegacySea, PalLogic, PalOutcome, SecurePlatform, Verifier,
};
use minimal_tcb::hw::{CpuId, CpuVendor, Platform, SimDuration};
use minimal_tcb::os::Scheduler;
use minimal_tcb::pals::vm::{vm_ca, vm_factoring, vm_rootkit, vm_ssh};
use minimal_tcb::pals::{
    decode_factors, decode_public_key, verify_ca_signature, CaRequest, PersistMode, RootkitVerdict,
    SshRequest,
};
use minimal_tcb::tpm::KeyStrength;

fn legacy(p: Platform, seed: &[u8]) -> LegacySea {
    LegacySea::new(SecurePlatform::new(p, KeyStrength::Demo512, seed)).unwrap()
}

fn enhanced(n: u16, seed: &[u8]) -> EnhancedSea {
    EnhancedSea::new(SecurePlatform::new(
        Platform::recommended(n),
        KeyStrength::Demo512,
        seed,
    ))
    .unwrap()
}

#[test]
fn full_ca_lifecycle_with_external_verification() {
    // The paper's CA scenario, end to end: key generation, certificate
    // signing, and an attestation that convinces a remote verifier the
    // genuine CA PAL (and nothing else) handled the key.
    let mut sea = legacy(Platform::hp_dc5750(), b"e2e-ca");
    let mut ca = vm_ca();
    let ca_image = ca.image();

    let gen = sea
        .run_session(&mut ca, &CaRequest::Generate.to_bytes())
        .unwrap();
    let public = decode_public_key(&gen.output.unwrap()).unwrap();

    let csr = b"CN=relying.party".to_vec();
    let sign = sea
        .run_session(&mut ca, &CaRequest::Sign(csr.clone()).to_bytes())
        .unwrap();
    let signature = sign.output.unwrap();
    assert!(verify_ca_signature(&public, &csr, &signature));

    // Remote verification of the platform state.
    let quote = sea.quote(b"ca-challenge").unwrap().value;
    let verifier = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
    verifier
        .verify_legacy_quote(&quote, b"ca-challenge", &ca_image, CpuVendor::Amd, &[])
        .unwrap();

    // Figure 2 economics held throughout.
    assert!(gen.report.seal.as_ms_f64() > 10.0);
    assert!(sign.report.unseal.as_ms_f64() > 300.0);
}

#[test]
fn same_pal_identity_across_both_architectures() {
    // A blob sealed under the baseline cannot leak to a *different* PAL
    // on the proposed hardware, but the measurement chains of the same
    // image agree between architectures, so verifiers share trust roots.
    let image = FnPal::new("shared", |_| Ok(PalOutcome::Yield)).image();
    let legacy_chain = SecurePlatform::expected_pal_chain(&image);
    let enhanced_chain = Verifier::expected_chain(&image, &[]);
    assert_eq!(legacy_chain, enhanced_chain);
}

#[test]
fn factoring_agrees_across_architectures() {
    const N: u64 = 293 * 307;
    // Baseline.
    let mut sea_l = legacy(Platform::hp_dc5750(), b"e2e-fact");
    let mut w1 = vm_factoring(N, 50, PersistMode::TpmSeal);
    let f1 = loop {
        let r = sea_l.run_session(&mut w1, b"").unwrap();
        if let Some(f) = decode_factors(&r.output.unwrap_or_default()) {
            break f;
        }
    };
    // Proposed.
    let mut sea_e = enhanced(2, b"e2e-fact");
    let mut w2 = vm_factoring(N, 50, PersistMode::InRegion);
    let id = sea_e.slaunch(&mut w2, b"", CpuId(0), None).unwrap();
    let done = sea_e.run_to_exit(&mut w2, id, CpuId(0)).unwrap();
    let f2 = decode_factors(&done.output).unwrap();

    assert_eq!(f1, (293, 307));
    assert_eq!(f1, f2);
}

#[test]
fn scheduler_runs_heterogeneous_pal_mix() {
    let mut sched = Scheduler::new(enhanced(4, b"e2e-mix"));
    sched.set_preemption_timer(Some(SimDuration::from_ms(50)));

    let kernel = b"production kernel".to_vec();
    sched.add_job(Box::new(vm_rootkit(&[&kernel])), &kernel);
    sched.add_job(
        Box::new(vm_factoring(97 * 89, 40, PersistMode::InRegion)),
        b"",
    );
    sched.add_job(
        Box::new(vm_ssh()),
        &SshRequest::Enroll(b"pw".to_vec()).to_bytes(),
    );
    for i in 0..3 {
        sched.add_job(
            Box::new(FnPal::new(&format!("filler-{i}"), move |ctx| {
                ctx.work(SimDuration::from_ms(5));
                Ok(PalOutcome::Exit(vec![i]))
            })),
            b"",
        );
    }

    let out = sched.run_all(SimDuration::from_secs(5)).unwrap();
    assert_eq!(out.outputs.len(), 6);
    assert_eq!(
        RootkitVerdict::from_byte(out.outputs[0][0]),
        Some(RootkitVerdict::Clean)
    );
    assert_eq!(decode_factors(&out.outputs[1]), Some((89, 97)));
    assert_eq!(out.outputs[2], vec![1]); // enrollment succeeded
    assert_eq!(out.stalled, SimDuration::ZERO);
}

#[test]
fn sealed_data_survives_reboot_only_with_relaunch() {
    // Seal under a launched PAL, reboot the platform, relaunch the same
    // PAL: unseal succeeds because the measurement chain is recreated.
    let mut sea = legacy(Platform::hp_dc5750(), b"e2e-reboot");
    let mut holder = None;
    {
        let h = &mut holder;
        let mut pal = FnPal::new("durable", move |ctx| {
            *h = Some(ctx.seal(b"survives reboots")?);
            Ok(PalOutcome::Exit(vec![]))
        });
        sea.run_session(&mut pal, b"").unwrap();
    }
    let blob = holder.unwrap();

    sea.platform_mut().reboot();

    // Without a launch, the OS cannot unseal (PCR 17 reads −1).
    let direct = sea.platform_mut().tpm_mut().unwrap().unseal(&blob);
    assert!(direct.is_err());

    // A genuine relaunch of the same PAL can.
    let mut pal = FnPal::new("durable", move |ctx| {
        Ok(PalOutcome::Exit(ctx.unseal(&blob)?))
    });
    let r = sea.run_session(&mut pal, b"").unwrap();
    assert_eq!(r.output, Some(b"survives reboots".to_vec()));
}

#[test]
fn intel_and_amd_flows_both_complete() {
    for p in [Platform::hp_dc5750(), Platform::intel_tep()] {
        let vendor = p.vendor;
        let mut sea = legacy(p, b"e2e-vendor");
        let mut pal = FnPal::new("portable", |ctx| {
            let blob = ctx.seal(b"vendor-neutral")?;
            assert_eq!(ctx.unseal(&blob)?, b"vendor-neutral");
            Ok(PalOutcome::Exit(vec![]))
        });
        let image = pal.image();
        sea.run_session(&mut pal, b"").unwrap();
        let q = sea.quote(b"n").unwrap().value;
        let verifier = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
        verifier
            .verify_legacy_quote(&q, b"n", &image, vendor, &[])
            .unwrap();
    }
}

#[test]
fn artifacts_survive_wire_and_disk_serialization() {
    // The untrusted OS stores sealed blobs on disk and ships quotes over
    // the network as raw bytes; everything must survive the round trip.
    let mut sea = enhanced(2, b"e2e-wire");
    let mut holder = None;
    {
        let h = &mut holder;
        let mut pal = FnPal::new("persister", move |ctx| {
            *h = Some(ctx.seal(b"disk-bound state")?);
            Ok(PalOutcome::Exit(vec![]))
        });
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        sea.run_to_exit(&mut pal, id, CpuId(0)).unwrap();
        let quote = sea.quote_and_free(id, b"wire-nonce").unwrap().value;

        // Quote across the "network".
        let wire = quote.to_bytes();
        let received = minimal_tcb::tpm::Quote::from_bytes(&wire).unwrap();
        let verifier = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
        verifier
            .verify_sepcr_quote(&received, b"wire-nonce", &pal.image(), &[])
            .unwrap();
    }
    // Blob across the "disk".
    let blob = holder.unwrap();
    let stored = blob.to_bytes();
    let restored = minimal_tcb::tpm::SealedBlob::from_bytes(&stored).unwrap();
    let mut again = FnPal::new("persister", move |ctx| {
        Ok(PalOutcome::Exit(ctx.unseal(&restored)?))
    });
    let id = sea.slaunch(&mut again, b"", CpuId(1), None).unwrap();
    let done = sea.run_to_exit(&mut again, id, CpuId(1)).unwrap();
    assert_eq!(done.output, b"disk-bound state");
}

#[test]
fn pioneer_comparator_fails_where_sea_succeeds() {
    // §7: software-based attestation (Pioneer) cannot tolerate moderate
    // network latency — while SEA's TPM-rooted quote is latency-immune.
    use minimal_tcb::core::{
        forged_duration, honest_duration, pioneer_checksum, PioneerResponse, PioneerVerdict,
        PioneerVerifier,
    };
    let memory: Vec<u8> = (0..2048u32).map(|i| i as u8).collect();
    let wan = PioneerVerifier::new(memory.clone(), SimDuration::from_ms(50));
    let ch = wan.challenge(b"e2e", 10_000);
    let forged = PioneerResponse {
        checksum: pioneer_checksum(&memory, &ch),
        observed: forged_duration(&ch) + SimDuration::from_ms(2),
    };
    // Timing-based attestation accepts the forger at WAN latency...
    assert_eq!(wan.verify(&ch, &forged), PioneerVerdict::Accepted);
    let _ = honest_duration(&ch);

    // ...while the SEA quote from the same "distance" still verifies
    // correctly and rejects impostors, because its trust is a signature,
    // not a stopwatch.
    let mut sea = enhanced(2, b"e2e-pioneer");
    let mut pal = FnPal::new("latency-immune", |_| Ok(PalOutcome::Exit(vec![])));
    let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
    sea.run_to_exit(&mut pal, id, CpuId(0)).unwrap();
    let quote = sea.quote_and_free(id, b"n").unwrap().value;
    let verifier = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
    assert!(verifier
        .verify_sepcr_quote(&quote, b"n", &pal.image(), &[])
        .is_ok());
    assert!(verifier
        .verify_sepcr_quote(&quote, b"n", b"impostor image", &[])
        .is_err());
}

#[test]
fn enhanced_overhead_orders_of_magnitude_below_baseline() {
    // The repository's headline claim, asserted at integration level:
    // same PAL, same work, both architectures.
    let work = SimDuration::from_ms(2);
    let make = || {
        let mut yields = 3u8;
        FnPal::new("compare", move |ctx| {
            ctx.work(SimDuration::from_ms(2));
            let blob = ctx.seal(b"step state")?;
            let _ = ctx.unseal(&blob)?;
            if yields == 0 {
                Ok(PalOutcome::Exit(vec![]))
            } else {
                yields -= 1;
                Ok(PalOutcome::Yield)
            }
        })
        .with_image_size(64 * 1024)
    };
    let _ = work;

    // Baseline: each "yield" is a whole fresh session.
    let mut sea_l = legacy(Platform::hp_dc5750(), b"cmp");
    let mut total_overhead = SimDuration::ZERO;
    let mut pal = make();
    for _ in 0..4 {
        let r = sea_l.run_session(&mut pal, b"").unwrap();
        total_overhead += r.report.overhead();
        if r.output.is_some() {
            break;
        }
    }

    // Proposed.
    let mut sea_e = enhanced(2, b"cmp");
    let mut pal = make();
    let id = sea_e.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
    let done = sea_e.run_to_exit(&mut pal, id, CpuId(0)).unwrap();
    // The proposed run still seals (the PAL chose to), so compare only
    // the architectural part: late launch + context switches.
    let arch_overhead = done.report.late_launch + done.report.context_switch;

    assert!(
        total_overhead.as_ns() > arch_overhead.as_ns() * 100,
        "baseline {} vs proposed architectural {}",
        total_overhead,
        arch_overhead
    );
}
