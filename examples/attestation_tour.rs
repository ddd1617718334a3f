//! A tour of attestation: trusted boot vs minimal-TCB PALs, plus the
//! TPM transport session that keeps the south bridge out of the TCB.
//!
//! ```text
//! cargo run --example attestation_tour
//! ```
//!
//! §2.1.1 of the paper describes attestation "as originally envisioned":
//! the verifier must assess *every* component loaded since boot. This
//! example builds that full chain, then contrasts it with attesting one
//! PAL — the paper's whole motivation — and finally demonstrates the
//! §3.3 transport session detecting a malicious bus.

use minimal_tcb::core::{EnhancedSea, FnPal, PalLogic, PalOutcome, SecurePlatform, Verifier};
use minimal_tcb::crypto::Drbg;
use minimal_tcb::hw::{CpuId, Platform};
use minimal_tcb::tpm::KeyStrength;
use minimal_tcb::tpm::{establish_transport, EventLog, PcrIndex, QuoteSource};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== attestation tour ==\n");

    // ---- Act 1: trusted boot (the original vision) ----
    let mut sp = SecurePlatform::new(Platform::recommended(2), KeyStrength::Demo512, b"tour");
    let mut log = EventLog::new();
    {
        let tpm = sp.tpm_mut().unwrap();
        log.measure(tpm, PcrIndex(0), "BIOS", b"AMIBIOS 08.00.15")?;
        log.measure(tpm, PcrIndex(4), "bootloader", b"GRUB 0.97-29")?;
        log.measure(tpm, PcrIndex(8), "kernel", b"vmlinuz-2.6.23 + 214 modules")?;
        log.measure(
            tpm,
            PcrIndex(8),
            "init system + config",
            b"sysvinit, 382 rc scripts",
        )?;
    }
    let quote = sp
        .tpm_mut()
        .unwrap()
        .quote(b"boot-nonce", &[PcrIndex(0), PcrIndex(4), PcrIndex(8)])?
        .value;
    println!("trusted boot attestation:");
    println!(
        "  log entries the verifier must individually judge: {}",
        log.events().len()
    );
    for e in log.events() {
        println!("    - {} (PCR {})", e.description, e.pcr.0);
    }
    let ok = quote.verify_signature(sp.tpm().unwrap().aik_public());
    let matches = match quote.source() {
        QuoteSource::Pcrs { selection, values } => log.matches(
            &selection
                .iter()
                .copied()
                .zip(values.iter().copied())
                .collect::<Vec<_>>(),
        ),
        _ => false,
    };
    println!("  signature valid: {ok}; log replays: {matches}");
    println!(
        "  ...but \"trusted\" still hinges on auditing a BIOS, a bootloader,\n\
         a multi-million-line kernel, and every config file. (§1: \"securing\n\
         applications has become a daunting task.\")\n"
    );

    // ---- Act 2: one PAL, one measurement ----
    let mut sea = EnhancedSea::new(sp)?;
    let mut pal = FnPal::new("tiny-signer", |ctx| {
        let sig_key = ctx.random(16)?;
        let _ = ctx.seal(&sig_key)?;
        Ok(PalOutcome::Exit(b"signed".to_vec()))
    });
    let image = pal.image();
    let id = sea.slaunch(&mut pal, b"", CpuId(0), None)?;
    sea.run_to_exit(&mut pal, id, CpuId(0))?;
    let quote = sea.quote_and_free(id, b"pal-nonce")?.value;
    let verifier = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
    verifier.verify_sepcr_quote(&quote, b"pal-nonce", &image, &[])?;
    println!("minimal-TCB attestation:");
    println!(
        "  components the verifier must judge: 1 (a {}-byte PAL image)",
        image.len()
    );
    println!("  external verifier: ACCEPTED — regardless of the OS's state\n");

    // ---- Act 3: the transport session vs the south bridge ----
    println!("transport session (why Figure 1 excludes the south bridge):");
    let mut rng = Drbg::new(b"session entropy");
    let srk_pub = sea.platform().tpm().unwrap().srk_public().clone();
    let (mut pal_end, enc_secret) = establish_transport(&srk_pub, &mut rng)?;
    let mut tpm_end = sea
        .platform_mut()
        .tpm_mut()
        .unwrap()
        .accept_transport(&enc_secret)?;

    let cmd = pal_end.protect(b"TPM_Extend(sePCR, input-hash)");
    println!(
        "  command delivered intact: {:?}",
        tpm_end.open(&cmd).is_ok()
    );

    let mut tampered = pal_end.protect(b"TPM_Seal(key material)");
    tampered.payload[4] ^= 0x40; // the south bridge flips a bit in flight
    println!(
        "  south-bridge tampering detected: {:?}",
        tpm_end.open(&tampered).is_err()
    );
    let replay = cmd.clone();
    println!(
        "  replayed command rejected: {:?}",
        tpm_end.open(&replay).is_err()
    );
    Ok(())
}
