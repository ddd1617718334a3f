//! The paper's three security properties (§3.1), tested against the
//! threat model's ring-0 + DMA adversary (§3.2): Isolation, Secure
//! Initialization, External Verification.

use minimal_tcb::core::{
    EnhancedSea, FnPal, LegacySea, PalLogic, PalOutcome, SeaError, SecurePlatform, Verifier,
    VerifyError,
};
use minimal_tcb::crypto::Sha1;
use minimal_tcb::hw::{
    CpuId, CpuVendor, DeviceId, HwError, Machine, PageRange, Platform, Requester, SimTime,
};
use minimal_tcb::os::{Adversary, AttackOutcome};
use minimal_tcb::tpm::{KeyStrength, Locality, PcrIndex, Quote, ShardedTpmArbiter, TpmError};

fn enhanced_with_nic(seed: &[u8]) -> EnhancedSea {
    let platform = Platform::recommended(2);
    let mut sp = SecurePlatform::new(platform.clone(), KeyStrength::Demo512, seed);
    *sp.machine_mut() = Machine::builder(platform).device("rogue NIC").build();
    EnhancedSea::new(sp).unwrap()
}

// ----------------------------------------------------------------
// Property 1: Isolation
// ----------------------------------------------------------------

#[test]
fn isolation_holds_through_entire_lifecycle() {
    let mut sea = enhanced_with_nic(b"iso");
    let adv = Adversary::new();
    let mut pal = FnPal::new("victim", |ctx| {
        if ctx.state().is_empty() {
            ctx.set_state(b"live secret".to_vec());
            Ok(PalOutcome::Yield)
        } else {
            Ok(PalOutcome::Exit(vec![]))
        }
    });
    let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();

    // Execute state.
    assert!(adv.read_pal_memory(&mut sea, id, CpuId(1)).was_blocked());
    assert!(adv
        .write_pal_memory(&mut sea, id, CpuId(1), b"x")
        .was_blocked());
    assert!(adv
        .dma_read_pal_memory(&mut sea, id, DeviceId(0))
        .was_blocked());
    assert!(adv.hijack_sepcr(&mut sea, id, CpuId(1)).was_blocked());

    // Suspend state: nothing — not even the former CPU — may touch it.
    sea.step(&mut pal, id).unwrap();
    for cpu in [CpuId(0), CpuId(1)] {
        assert!(adv.read_pal_memory(&mut sea, id, cpu).was_blocked());
    }
    assert!(adv
        .dma_read_pal_memory(&mut sea, id, DeviceId(0))
        .was_blocked());

    // Resumed on the other CPU: old CPU remains locked out.
    sea.resume(id, CpuId(1)).unwrap();
    assert!(adv.read_pal_memory(&mut sea, id, CpuId(0)).was_blocked());
    assert!(adv.double_resume(&mut sea, id, CpuId(0)).was_blocked());

    // Exit: pages public again but scrubbed of the secret.
    sea.step(&mut pal, id).unwrap();
    match adv.read_pal_memory(&mut sea, id, CpuId(0)) {
        AttackOutcome::Succeeded(bytes) => {
            let needle = b"live secret";
            assert!(!bytes.windows(needle.len()).any(|w| w == needle));
        }
        AttackOutcome::Blocked => panic!("released pages should be open"),
    }
}

#[test]
fn baseline_dev_blocks_dma_into_slb() {
    // Baseline isolation is DMA-only (the paper's point): program the
    // DEV over a region and check the device is excluded while CPUs are
    // not — the gap SLAUNCH's access-control table closes.
    let platform = Platform::hp_dc5750();
    let mut machine = Machine::builder(platform).device("rogue NIC").build();
    let slb = PageRange::new(minimal_tcb::hw::PageIndex(16), 16);
    machine.controller_mut().set_dev(slb, true).unwrap();
    assert!(matches!(
        machine.dma_read(DeviceId(0), slb.base_addr(), 64),
        Err(HwError::AccessDenied { .. })
    ));
    // Any CPU can still read: baseline hardware cannot stop a malicious
    // OS on another core, only DMA devices.
    assert!(machine
        .read(Requester::Cpu(CpuId(1)), slb.base_addr(), 64)
        .is_ok());
}

#[test]
fn concurrent_pals_cannot_read_each_other() {
    let mut sea = enhanced_with_nic(b"iso-pair");
    let mut a = FnPal::new("pal-a", |ctx| {
        ctx.set_state(b"alpha secret".to_vec());
        Ok(PalOutcome::Yield)
    });
    let mut b = FnPal::new("pal-b", |ctx| {
        ctx.set_state(b"bravo secret".to_vec());
        Ok(PalOutcome::Yield)
    });
    let ia = sea.slaunch(&mut a, b"", CpuId(0), None).unwrap();
    let ib = sea.slaunch(&mut b, b"", CpuId(1), None).unwrap();
    let ra = sea.secb(ia).unwrap().pages();
    let rb = sea.secb(ib).unwrap().pages();
    // Mutually untrusting PALs (Figure 4): each is fenced from the other.
    assert!(sea
        .platform()
        .machine()
        .read(Requester::Cpu(CpuId(1)), ra.base_addr(), 8)
        .is_err());
    assert!(sea
        .platform()
        .machine()
        .read(Requester::Cpu(CpuId(0)), rb.base_addr(), 8)
        .is_err());
    // And their sePCR chains are independent.
    assert_ne!(sea.secb(ia).unwrap().sepcr(), sea.secb(ib).unwrap().sepcr());
}

// ----------------------------------------------------------------
// Property 2: Secure Initialization
// ----------------------------------------------------------------

#[test]
fn software_cannot_reset_dynamic_pcrs() {
    let mut sp = SecurePlatform::new(Platform::hp_dc5750(), KeyStrength::Demo512, b"init");
    let tpm = sp.tpm_mut().unwrap();
    // Ring-0 software addressing the TPM directly cannot open the hash
    // interface that resets PCR 17.
    assert_eq!(
        tpm.hash_start(Locality::Software).unwrap_err(),
        TpmError::LocalityDenied
    );
}

#[test]
fn forged_launch_chain_never_matches() {
    // The adversary extends the victim image's hash into PCR 17 from
    // software (legal) — but the chain starts from −1, not 0, so no
    // verifier accepts it. This is the crux of secure initialization.
    let mut sea = enhanced_with_nic(b"forge");
    let adv = Adversary::new();
    let (legit, forged) = adv.forge_measurement(&mut sea, b"victim image").unwrap();
    assert_ne!(legit, forged);
}

#[test]
fn resume_without_prior_measurement_impossible() {
    // The Measured Flag is honored only when pages are NONE, and pages
    // reach NONE only through a measured SLAUNCH followed by a suspend.
    // An OS-forged "resume" of an unlaunched PAL has no SECB in the
    // runtime and no protected pages, so there is nothing to resume.
    let mut sea = enhanced_with_nic(b"mf");
    let err = sea
        .resume(minimal_tcb::core::PalId(7), CpuId(0))
        .unwrap_err();
    assert!(matches!(err, SeaError::NoSuchPal(7)));
}

#[test]
fn skinit_measures_what_is_actually_in_memory() {
    // Secure initialization measures the *memory contents*, not the
    // OS's claims: corrupt the staged image and the measurement changes.
    let mut sea = LegacySea::new(SecurePlatform::new(
        Platform::hp_dc5750(),
        KeyStrength::Demo512,
        b"measure",
    ))
    .unwrap();
    let mut pal = FnPal::new("honest", |_| Ok(PalOutcome::Exit(vec![])));
    let image = pal.image();
    let r = sea.run_session(&mut pal, b"").unwrap();
    assert_eq!(
        r.launch.pal_pcr_value.unwrap(),
        SecurePlatform::expected_pal_chain(&image)
    );
}

// ----------------------------------------------------------------
// Property 3: External Verification
// ----------------------------------------------------------------

#[test]
fn verifier_rejects_all_forgery_classes() {
    let mut sea = LegacySea::new(SecurePlatform::new(
        Platform::hp_dc5750(),
        KeyStrength::Demo512,
        b"verify",
    ))
    .unwrap();
    let mut pal = FnPal::new("trusted", |_| Ok(PalOutcome::Exit(vec![])));
    let image = pal.image();
    sea.run_session(&mut pal, b"").unwrap();
    let quote = sea.quote(b"fresh-nonce").unwrap().value;
    let verifier = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());

    // Genuine quote accepted.
    assert_eq!(
        verifier.verify_legacy_quote(&quote, b"fresh-nonce", &image, CpuVendor::Amd, &[]),
        Ok(())
    );
    // Replay with stale nonce.
    assert_eq!(
        verifier.verify_legacy_quote(&quote, b"old-nonce", &image, CpuVendor::Amd, &[]),
        Err(VerifyError::NonceMismatch)
    );
    // Claiming a different PAL ran.
    assert_eq!(
        verifier.verify_legacy_quote(&quote, b"fresh-nonce", b"imposter", CpuVendor::Amd, &[]),
        Err(VerifyError::MeasurementMismatch)
    );
}

#[test]
fn skilled_pal_cannot_attest_as_healthy() {
    // Kill a PAL, then relaunch it and check its fresh quote is clean
    // while the in-flight identity of the killed instance is gone — a
    // killed PAL's sePCR was branded and freed, never quoted.
    let mut sea = enhanced_with_nic(b"skill");
    let mut pal = FnPal::new("flaky", |_| Ok(PalOutcome::Yield));
    let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
    sea.step(&mut pal, id).unwrap();
    sea.skill(id).unwrap();
    // No attestation path exists for the killed instance.
    assert!(sea.quote_and_free(id, b"n").is_err());
}

#[test]
fn quote_from_virtual_environment_fails_verification() {
    // The paper's external-verification requirement: a PAL executed "in
    // a malicious, e.g., virtual, environment" (§3.1) must be
    // distinguishable. Model: the attacker runs the PAL logic outside
    // any launch and quotes whatever PCR 17 happens to hold.
    let mut sp = SecurePlatform::new(Platform::hp_dc5750(), KeyStrength::Demo512, b"vm");
    let image = FnPal::new("real-pal", |_| Ok(PalOutcome::Exit(vec![]))).image();
    // Attacker-extends PCR 17 from the post-boot value.
    let digest = Sha1::digest(&image);
    sp.tpm_mut().unwrap().extend(PcrIndex(17), &digest).unwrap();
    let quote = Quote::from_wire(
        &sp.tpm_mut()
            .unwrap()
            .quote(b"nonce", &[PcrIndex(17)])
            .unwrap()
            .value,
    )
    .unwrap();
    let verifier = Verifier::new(sp.tpm().unwrap().aik_public().clone());
    assert_eq!(
        verifier.verify_legacy_quote(&quote, b"nonce", &image, CpuVendor::Amd, &[]),
        Err(VerifyError::MeasurementMismatch)
    );
}

#[test]
fn sealed_blobs_opaque_to_the_os() {
    // The OS custodian holds sealed blobs; it learns nothing and cannot
    // tamper undetected.
    let mut sea = LegacySea::new(SecurePlatform::new(
        Platform::hp_dc5750(),
        KeyStrength::Demo512,
        b"blob",
    ))
    .unwrap();
    let secret = b"super secret value".to_vec();
    let mut holder = None;
    {
        let h = &mut holder;
        let s = secret.clone();
        let mut pal = FnPal::new("sealer", move |ctx| {
            *h = Some(ctx.seal(&s)?);
            Ok(PalOutcome::Exit(vec![]))
        });
        sea.run_session(&mut pal, b"").unwrap();
    }
    let blob = holder.unwrap();

    // Confidentiality: the plaintext is not in the blob.
    let serialized = format!("{blob:?}").into_bytes();
    assert!(!serialized
        .windows(secret.len())
        .any(|w| w == secret.as_slice()));

    // Binding: a different PAL replaying the blob is refused.
    let blob2 = blob.clone();
    let mut wrong_pal = FnPal::new("other", move |ctx| match ctx.unseal(&blob2) {
        Err(SeaError::Tpm(TpmError::WrongPcrState)) => Ok(PalOutcome::Exit(vec![1])),
        other => panic!("expected policy failure, got {other:?}"),
    });
    let r = sea.run_session(&mut wrong_pal, b"").unwrap();
    assert_eq!(r.output, Some(vec![1]));
}

#[test]
fn toctou_footnote3_load_time_attestation_limit() {
    // Footnote 3 of the paper: "If the code accepts input parameters and
    // contains a vulnerability, it may be possible to overwrite some of
    // the code after measurement and before execution completes. This is
    // a well-known time-of-check, time-of-use problem with load-time
    // attestation." Demonstrate it: a PAL with an input-handling bug
    // behaves attacker-controlled, yet its quote verifies — the
    // attestation speaks only to what was *loaded*.
    let mut sea = LegacySea::new(SecurePlatform::new(
        Platform::hp_dc5750(),
        KeyStrength::Demo512,
        b"toctou",
    ))
    .unwrap();
    // The "vulnerability": input longer than 8 bytes overwrites the
    // PAL's dispatch logic (simulated as a behavioural hijack).
    let mut vulnerable = FnPal::new("audited-but-buggy", |ctx| {
        if ctx.input().len() > 8 {
            // Attacker-controlled behaviour after the overflow.
            return Ok(PalOutcome::Exit(b"EXFILTRATED".to_vec()));
        }
        Ok(PalOutcome::Exit(b"normal".to_vec()))
    });
    let image = vulnerable.image();
    let r = sea
        .run_session(&mut vulnerable, b"AAAAAAAAAAAAAAAA")
        .unwrap();
    // Hijacked output...
    assert_eq!(r.output, Some(b"EXFILTRATED".to_vec()));
    // ...but the attestation still verifies: load-time measurement
    // cannot see it. The defense the paper points to is PAL smallness
    // ("the relatively small size of the PAL may facilitate ... formal
    // analysis", §3.2) — not the measurement mechanism.
    let quote = sea.quote(b"toctou-nonce").unwrap().value;
    let verifier = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
    assert_eq!(
        verifier.verify_legacy_quote(&quote, b"toctou-nonce", &image, CpuVendor::Amd, &[]),
        Ok(())
    );
    // A PAL that *measures its inputs* closes the gap: the verifier sees
    // exactly which input drove the run.
    let evil_input = b"AAAAAAAAAAAAAAAA".to_vec();
    let input_copy = evil_input.clone();
    let mut measuring = FnPal::new("input-measuring", move |ctx| {
        let digest = Sha1::digest(ctx.input());
        ctx.measure_input(&digest)?;
        if ctx.input().len() > 8 {
            return Ok(PalOutcome::Exit(b"EXFILTRATED".to_vec()));
        }
        Ok(PalOutcome::Exit(b"normal".to_vec()))
    });
    let m_image = measuring.image();
    sea.run_session(&mut measuring, &evil_input).unwrap();
    let quote = sea.quote(b"n2").unwrap().value;
    // Verifying against "ran with empty input" now FAILS...
    assert!(verifier
        .verify_legacy_quote(
            &quote,
            b"n2",
            &m_image,
            CpuVendor::Amd,
            &[Sha1::digest(b"")]
        )
        .is_err());
    // ...and succeeds only with the true (oversized) input visible.
    assert_eq!(
        verifier.verify_legacy_quote(
            &quote,
            b"n2",
            &m_image,
            CpuVendor::Amd,
            &[Sha1::digest(&input_copy)]
        ),
        Ok(())
    );
}

#[test]
fn tpm_lock_serializes_multi_cpu_access() {
    // The §5.4.5 hardware arbiter: one CPU holds the TPM at a time, a
    // contending CPU waits for the holder's release.
    let mut arbiter = ShardedTpmArbiter::new();
    arbiter.request(SimTime::ZERO, CpuId(0));
    assert_eq!(arbiter.grant().map(|g| g.cpu), Some(CpuId(0)));
    arbiter.request(SimTime::from_ns(5), CpuId(1));
    assert_eq!(arbiter.grant(), None);
    assert_eq!(
        arbiter.release(CpuId(1)).unwrap_err(),
        TpmError::LockHeld { holder: CpuId(0) }
    );
    arbiter.release(CpuId(0)).unwrap();
    assert_eq!(arbiter.grant().map(|g| g.cpu), Some(CpuId(1)));
}
