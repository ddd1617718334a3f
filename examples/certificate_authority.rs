//! A certificate authority whose signing key never leaves the TCB.
//!
//! ```text
//! cargo run --example certificate_authority
//! ```
//!
//! Reproduces the paper's CA application (§4.1): a Gen session creates
//! the keypair and seals the private half; Use sessions unseal, sign a
//! CSR, and erase. The printed per-session overheads are the Figure 2
//! story told through a real application.

use minimal_tcb::core::{LegacySea, SecurePlatform};
use minimal_tcb::hw::Platform;
use minimal_tcb::pals::vm::vm_ca;
use minimal_tcb::pals::{decode_public_key, verify_ca_signature, CaRequest};
use minimal_tcb::tpm::KeyStrength;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== certificate authority inside the minimal TCB ==\n");

    let platform = SecurePlatform::new(Platform::hp_dc5750(), KeyStrength::Demo512, b"ca-demo");
    let mut sea = LegacySea::new(platform)?;
    let mut ca = vm_ca();

    // Gen session: create + seal the CA key.
    let gen = sea.run_session(&mut ca, &CaRequest::Generate.to_bytes())?;
    let public =
        decode_public_key(&gen.output.expect("public key output")).expect("well-formed public key");
    println!("key generation session (PAL Gen):");
    println!("  {}", gen.report);
    println!("  CA public key: {} bits\n", public.modulus_bits());

    // Use sessions: sign three CSRs.
    for name in ["CN=alice.example", "CN=bob.example", "CN=carol.example"] {
        let csr = name.as_bytes().to_vec();
        let result = sea.run_session(&mut ca, &CaRequest::Sign(csr.clone()).to_bytes())?;
        let sig = result.output.expect("signature output");
        assert!(verify_ca_signature(&public, &csr, &sig));
        println!("signed {name} (PAL Use):");
        println!("  {}", result.report);
    }

    println!(
        "\nNote the per-signature overhead: every Use session pays a full\n\
         SKINIT plus a TPM Unseal — close to 1 s of overhead for ~5 ms of signing.\n\
         This is exactly the impracticality §4 of the paper demonstrates."
    );

    // The signing key itself was never observable: only sealed blobs
    // crossed the untrusted world.
    let tampered = verify_ca_signature(&public, b"CN=mallory.example", b"forged");
    assert!(!tampered);
    println!("forged signature rejected: OK");
    Ok(())
}
