//! Kernel rootkit detection with an attestable verdict.
//!
//! ```text
//! cargo run --example rootkit_detector
//! ```
//!
//! The detector PAL scans kernel-text snapshots on the paper's proposed
//! hardware. Because the snapshot digest is extended into the PAL's
//! sePCR, the final quote proves to a *remote* verifier both that the
//! genuine detector ran and which snapshot it judged — even though the
//! kernel being scanned is exactly the software we do not trust.

use minimal_tcb::core::{EnhancedSea, PalLogic, SecurePlatform, Verifier};
use minimal_tcb::crypto::Sha1;
use minimal_tcb::hw::{CpuId, Platform};
use minimal_tcb::pals::vm::vm_rootkit;
use minimal_tcb::pals::RootkitVerdict;
use minimal_tcb::tpm::KeyStrength;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== attestable rootkit detection ==\n");

    let good_kernel = b"vmlinuz-2.6.23: sys_call_table[...] intact".to_vec();
    let mut rooted_kernel = good_kernel.clone();
    rooted_kernel.extend_from_slice(b" // sys_call_table[59] -> evil_execve");

    let platform = SecurePlatform::new(
        Platform::recommended(2),
        KeyStrength::Demo512,
        b"rootkit-demo",
    );
    let mut sea = EnhancedSea::new(platform)?;
    let verifier = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());

    let mut detector = vm_rootkit(&[&good_kernel]);
    let detector_image = detector.image();

    for (label, snapshot) in [
        ("clean boot", &good_kernel),
        ("after infection", &rooted_kernel),
    ] {
        let id = sea.slaunch(&mut detector, snapshot, CpuId(0), None)?;
        let done = sea.run_to_exit(&mut detector, id, CpuId(0))?;
        let verdict = RootkitVerdict::from_byte(done.output[0]).expect("valid verdict");
        println!("scan ({label}): {verdict:?}");
        println!("  session cost: {}", done.report);

        // Untrusted code generates the attestation; the remote verifier
        // checks the detector identity AND the scanned snapshot.
        let quote = sea.quote_and_free(id, b"scan-nonce")?;
        let binding = [Sha1::digest(snapshot)];
        verifier.verify_sepcr_quote(&quote.value, b"scan-nonce", &detector_image, &binding)?;
        println!("  attestation bound to this exact snapshot: ACCEPTED");

        // Verification against a *different* snapshot fails — the OS
        // cannot substitute a clean snapshot's verdict for a dirty one.
        let wrong = [Sha1::digest(b"some other snapshot")];
        assert!(verifier
            .verify_sepcr_quote(&quote.value, b"scan-nonce", &detector_image, &wrong)
            .is_err());
        println!("  attestation replay with swapped snapshot: REJECTED\n");
    }
    Ok(())
}
