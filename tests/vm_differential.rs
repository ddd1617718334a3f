//! Differential suite: the executed-bytecode PALs pinned against
//! recorded outputs.
//!
//! The four VM programs in `sea_pals::vm` replaced native-Rust PALs that
//! spoke the same protocol. Before those were deleted, their outputs on
//! this suite's fixed inputs were recorded; the constants below are that
//! recording, and every program must still reproduce it byte for byte on
//! identically seeded platforms:
//!
//! * **SSH**: enroll/verify-good/verify-bad/verify-empty outputs.
//! * **CA**: the generated public key *and* the CSR signature — the
//!   program draws 32 TPM bytes and seeds a DRBG with them, so the key
//!   material itself is a function of the platform seed.
//! * **Factoring**: the factors and the session shape — the number of
//!   in-region yields (proposed hardware) and of seal-resume sessions
//!   (baseline hardware) — plus the trivial pair for a prime.
//! * **Rootkit**: verdict bytes on a clean and a tampered snapshot, and
//!   the attestation layer tells the program apart from a second build
//!   that trusts another whitelist: each quote verifies only against its
//!   own image.
//! * **Errors**: every malformed or premature request is rejected.

use minimal_tcb::core::{
    EnhancedSea, LegacySea, PalLogic, PalStep, SecurePlatform, TrustPolicy, Verifier, VerifyError,
    VmPal,
};
use minimal_tcb::crypto::Sha1;
use minimal_tcb::hw::{CpuId, Platform};
use minimal_tcb::pals::vm::{ca_program, vm_ca, vm_factoring, vm_rootkit, vm_ssh};
use minimal_tcb::pals::{
    decode_factors, decode_public_key, verify_ca_signature, CaRequest, PersistMode, SshRequest,
};
use minimal_tcb::tpm::KeyStrength;

/// SSH outputs for enroll, verify-good, verify-bad and verify-empty.
const SSH_OUTPUTS: [&[u8]; 4] = [&[1], &[1], &[0], &[0]];

/// The CA's `Generate` output on the `vmdiff-ca` platform: length-prefixed
/// 512-bit `n`, then length-prefixed `e` = 65537.
const CA_PUBLIC_KEY: &str = "00000040\
    e29bbe24ccf9425ac4ac561e9775071a93ea2b1b3f548c5cf2f395b93065575a\
    e7e16620e6a6e49cb5966765ef45a91e7cb64ad02778aa2e038559f88d8d34c7\
    00000003010001";

/// The CA's signature over [`CA_CSR`] with that key.
const CA_SIGNATURE: &str = "\
    dad897cf1d1fcd9c10a953e5d5b766e846077f9d0b48cbfa9b471c8ff7439d44\
    544b7664c1ef2ea59ee0c5ff60c3bbd123618c14265e1a6eee460f680a41fd54";

const CA_CSR: &[u8] = b"CN=differential.example";

/// The factoring output for 101 × 103: `p` then `q`, u64 LE each.
const FACTORS_10403: &str = "6500000000000000 6700000000000000";

/// In-region yields before 10403 factors at 10 candidates per quantum.
const IN_REGION_YIELDS: u32 = 9;

/// Late-launch sessions before 10403 factors at 40 candidates per
/// sealed quantum.
const SEALED_SESSIONS: u32 = 3;

/// The factoring output for the prime 10007: the trivial pair (1, n).
const PRIME_PAIR_10007: &str = "0100000000000000 1727000000000000";

/// Rootkit verdict bytes for the clean and the tampered snapshot.
const ROOTKIT_VERDICTS: [u8; 2] = [1, 0];

/// Decodes a recorded hex constant (spaces allowed between bytes).
fn unhex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn legacy(seed: &[u8]) -> LegacySea {
    LegacySea::new(SecurePlatform::new(
        Platform::hp_dc5750(),
        KeyStrength::Demo512,
        seed,
    ))
    .unwrap()
}

fn enhanced(seed: &[u8]) -> EnhancedSea {
    EnhancedSea::new(SecurePlatform::new(
        Platform::recommended(2),
        KeyStrength::Demo512,
        seed,
    ))
    .unwrap()
}

/// Runs one legacy session and returns the output (None on yield).
fn run(sea: &mut LegacySea, pal: &mut dyn PalLogic, input: &[u8]) -> Option<Vec<u8>> {
    sea.run_session(pal, input).unwrap().output
}

#[test]
fn ssh_outputs_are_byte_equal() {
    // One platform seed throughout: the salt is the TPM DRBG's next draw,
    // so the sealed record is the recorded one too.
    let mut sea = legacy(b"vmdiff-ssh");
    let mut prog = vm_ssh();

    let requests = [
        SshRequest::Enroll(b"correct horse".to_vec()),
        SshRequest::Verify(b"correct horse".to_vec()),
        SshRequest::Verify(b"battery staple".to_vec()),
        SshRequest::Verify(Vec::new()),
    ];
    for (req, want) in requests.iter().zip(SSH_OUTPUTS) {
        let out = run(&mut sea, &mut prog, &req.to_bytes());
        assert_eq!(out.as_deref(), Some(want), "output diverges on {req:?}");
    }
}

#[test]
fn ca_key_material_and_signatures_are_byte_equal() {
    // RSAGEN seeds a DRBG with its 32-byte RANDOM draw: same platform
    // seed → same TPM stream → the *same RSA key*, so the public key and
    // the signature must match the recording, not merely cross-verify.
    let mut sea = legacy(b"vmdiff-ca");
    let mut prog = vm_ca();

    let public_bytes = run(&mut sea, &mut prog, &CaRequest::Generate.to_bytes()).unwrap();
    assert_eq!(public_bytes, unhex(CA_PUBLIC_KEY), "public key diverges");
    let public = decode_public_key(&public_bytes).expect("valid public key");
    assert_eq!(public.modulus_bits(), 512);

    let sig = run(
        &mut sea,
        &mut prog,
        &CaRequest::Sign(CA_CSR.to_vec()).to_bytes(),
    )
    .unwrap();
    assert_eq!(sig, unhex(CA_SIGNATURE), "signature diverges");
    assert!(verify_ca_signature(&public, CA_CSR, &sig));
}

#[test]
fn factoring_agrees_on_factors_and_session_shape() {
    const N: u64 = 101 * 103;
    const QUANTUM: u64 = 10;

    // Proposed hardware, in-region persistence: the recorded factors
    // after the recorded number of SYIELDs.
    let drive = |mut pal: VmPal| -> (Vec<u8>, u32) {
        let mut sea = enhanced(b"vmdiff-fact");
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        let mut yields = 0u32;
        loop {
            match sea.step(&mut pal, id).unwrap() {
                PalStep::Exited { output } => return (output, yields),
                PalStep::Yielded => {
                    yields += 1;
                    sea.resume(id, CpuId(0)).unwrap();
                }
            }
        }
    };
    let (out, yields) = drive(vm_factoring(N, QUANTUM, PersistMode::InRegion));
    assert_eq!(out, unhex(FACTORS_10403), "in-region output diverges");
    assert_eq!(decode_factors(&out), Some((101, 103)));
    assert_eq!(yields, IN_REGION_YIELDS, "yield count diverges");

    // Baseline hardware, TPM-sealed persistence: the recorded factors
    // after the recorded number of full late-launch sessions.
    let mut sea = legacy(b"vmdiff-fact-seal");
    let mut pal = vm_factoring(N, 40, PersistMode::TpmSeal);
    let mut sessions = 0u32;
    let out = loop {
        sessions += 1;
        assert!(sessions < 100, "runaway factoring loop");
        let out = run(&mut sea, &mut pal, b"").expect("baseline PALs always exit");
        if decode_factors(&out).is_some() {
            break out;
        }
    };
    assert_eq!(out, unhex(FACTORS_10403), "sealed output diverges");
    assert_eq!(sessions, SEALED_SESSIONS, "session count diverges");

    // Prime n: the trivial pair, in one quantum.
    let (out, yields) = drive(vm_factoring(10007, 20_000, PersistMode::InRegion));
    assert_eq!(out, unhex(PRIME_PAIR_10007), "prime output diverges");
    assert_eq!(decode_factors(&out), Some((1, 10007)));
    assert_eq!(yields, 0);
}

#[test]
fn rootkit_verdicts_agree_and_identities_differ() {
    let kernel = b"production kernel text".to_vec();
    let mut rooted = kernel.clone();
    rooted.extend_from_slice(b" + hook");

    // Verdicts match the recording on clean and tampered snapshots, for
    // the program and for a second build that also trusts another
    // kernel. Each build's quote verifies against its own image (with
    // the snapshot digest as the extra extend) and is rejected as a
    // measurement mismatch against the other's: a different whitelist
    // *is different code* to the attestation machinery.
    let drive = |pal: &mut VmPal, snapshot: &[u8]| {
        let mut sea = enhanced(b"vmdiff-rk");
        let id = sea.slaunch(pal, snapshot, CpuId(0), None).unwrap();
        let done = sea.run_to_exit(pal, id, CpuId(0)).unwrap();
        let quote = sea.quote_and_free(id, b"rk-nonce").unwrap().value;
        let verifier = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
        (done.output, quote, verifier)
    };

    let mut prog = vm_rootkit(&[&kernel]);
    let mut other = vm_rootkit(&[&kernel, b"another trusted kernel"]);
    assert_ne!(prog.image(), other.image());
    for (snapshot, verdict) in [&kernel, &rooted].into_iter().zip(ROOTKIT_VERDICTS) {
        let (out_p, quote_p, verifier) = drive(&mut prog, snapshot);
        let (out_o, quote_o, _) = drive(&mut other, snapshot);
        assert_eq!(out_p, vec![verdict], "verdict diverges");
        assert_eq!(out_o, vec![verdict], "second build's verdict diverges");

        let extends = [Sha1::digest(snapshot)];
        verifier
            .verify_sepcr_quote(&quote_p, b"rk-nonce", &prog.image(), &extends)
            .expect("program quote verifies against its image");
        verifier
            .verify_sepcr_quote(&quote_o, b"rk-nonce", &other.image(), &extends)
            .expect("second build's quote verifies against its image");
        assert_eq!(
            verifier.verify_sepcr_quote(&quote_p, b"rk-nonce", &other.image(), &extends),
            Err(VerifyError::MeasurementMismatch),
            "program quote must not pass as the second build"
        );
        assert_eq!(
            verifier.verify_sepcr_quote(&quote_o, b"rk-nonce", &prog.image(), &extends),
            Err(VerifyError::MeasurementMismatch),
            "second build's quote must not pass as the program"
        );
        // The quote binds the scanned snapshot: another snapshot's
        // digest does not verify.
        assert!(verifier
            .verify_sepcr_quote(
                &quote_p,
                b"rk-nonce",
                &prog.image(),
                &[Sha1::digest(b"other snapshot")]
            )
            .is_err());

        // A whitelist trusting both builds names each correctly.
        let mut policy = TrustPolicy::new(verifier);
        policy.trust("rootkit-one-kernel", &prog.image());
        policy.trust("rootkit-two-kernels", &other.image());
        assert_eq!(
            policy.identify_sepcr_quote(&quote_p, b"rk-nonce", &extends),
            Ok("rootkit-one-kernel")
        );
        assert_eq!(
            policy.identify_sepcr_quote(&quote_o, b"rk-nonce", &extends),
            Ok("rootkit-two-kernels")
        );
    }
}

#[test]
fn error_surfaces_agree() {
    // Every request the recording saw rejected, the program rejects —
    // checked on fresh platforms so no earlier session masks a failure.
    type Mk = fn() -> VmPal;
    let cases: [(Mk, Vec<u8>, &str); 7] = [
        (vm_ssh, Vec::new(), "ssh: empty request"),
        (vm_ssh, vec![0x07, 1, 2], "ssh: unknown tag"),
        (
            vm_ssh,
            SshRequest::Verify(b"x".to_vec()).to_bytes(),
            "ssh: verify before enroll",
        ),
        (vm_ca, Vec::new(), "ca: empty request"),
        (vm_ca, vec![0x02], "ca: unknown tag"),
        (vm_ca, vec![0x00, 0xFF], "ca: generate with payload"),
        (
            vm_ca,
            CaRequest::Sign(b"csr".to_vec()).to_bytes(),
            "ca: sign before generate",
        ),
    ];
    for (mk, input, what) in cases {
        let mut prog = mk();
        let result = legacy(b"vmdiff-err").run_session(&mut prog, &input);
        assert!(result.is_err(), "{what}: program accepted");
    }
}

#[test]
fn vm_identity_is_the_serialized_bytecode() {
    // The measured chain of a VM PAL is a pure function of the bytes the
    // interpreter executes: re-assembling the program reproduces it, the
    // PAL's name does not enter it, and another program under the same
    // name measures differently.
    let prog = vm_ssh();
    assert_eq!(prog.image(), vm_ssh().image(), "assembly is deterministic");
    assert_eq!(&prog.image()[..4], b"SVM1");
    assert_eq!(prog.image(), prog.program().serialize());
    let renamed = VmPal::new("renamed", prog.program().clone());
    assert_eq!(
        Verifier::expected_chain(&renamed.image(), &[]),
        Verifier::expected_chain(&prog.image(), &[]),
        "the name is not part of the identity"
    );
    let impostor = VmPal::new(prog.name(), ca_program());
    assert_ne!(
        Verifier::expected_chain(&impostor.image(), &[]),
        Verifier::expected_chain(&prog.image(), &[]),
        "attestation must distinguish the builds"
    );
}
