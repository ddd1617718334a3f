//! The paper's four PALs as executed bytecode.
//!
//! Each program speaks its application's wire protocol (the request
//! encodings and output formats in the crate root), and its measured
//! image is the serialized bytecode the VM executes —
//! `PalLogic::image()` is [`sea_core::Program::serialize`], so the
//! sePCR chain and every quote commit to the actual instructions.
//!
//! Register conventions inside every program: `r0` = input buffer
//! (length-prefixed), `r1` = input length, `r2` = heap base, `r3` =
//! state buffer (0 when empty), `r4` = seal-slot occupancy mask,
//! `r15` = the constant 1. Application trap codes: 1 = malformed
//! request, 2 = required sealed blob missing, 3 = corrupt sealed or
//! in-region state.

use sea_core::vm::Program;
use sea_core::VmPal;
use sea_crypto::{Sha1, Sha1Digest};

use super::asm::Asm;
use crate::ca::CA_KEY_BITS;
use crate::factoring::PersistMode;

/// Emits the canonical byte-copy loop: `r_cnt` bytes from `mem[r_src]`
/// to `mem[r_dst]`, clobbering all three cursors and `r_tmp`. Labels
/// must be unique per call site. Assumes `r15 == 1`.
fn copy_loop(
    a: &mut Asm,
    head: &'static str,
    done: &'static str,
    r_src: u8,
    r_dst: u8,
    r_cnt: u8,
    r_tmp: u8,
) {
    a.label(head)
        .jz(r_cnt, done)
        .ld8(r_tmp, r_src, 0)
        .st8(r_dst, 0, r_tmp)
        .addi(r_src, r_src, 1)
        .addi(r_dst, r_dst, 1)
        .sub(r_cnt, r_cnt, 15)
        .jmp(head);
    a.label(done);
}

/// Emits the constant-time 20-byte digest comparison: OR-accumulates
/// byte XORs of `mem[r_a]` vs `mem[r_b]` into `r_diff` (0 iff equal).
/// Clobbers both cursors, `r_tmp`, `r_tmp2`, and `r_len`.
#[allow(clippy::too_many_arguments)]
fn digest_compare(
    a: &mut Asm,
    head: &'static str,
    done: &'static str,
    r_a: u8,
    r_b: u8,
    r_diff: u8,
    r_len: u8,
    r_tmp: u8,
    r_tmp2: u8,
) {
    a.movi(r_len, 20).movi(r_diff, 0);
    a.label(head)
        .jz(r_len, done)
        .ld8(r_tmp, r_a, 0)
        .ld8(r_tmp2, r_b, 0)
        .xor(r_tmp, r_tmp, r_tmp2)
        .or(r_diff, r_diff, r_tmp)
        .addi(r_a, r_a, 1)
        .addi(r_b, r_b, 1)
        .sub(r_len, r_len, 15)
        .jmp(head);
    a.label(done);
}

/// The SSH password program: tag `0x00` enrolls (draws a 16-byte salt,
/// hashes salt ‖ password, seals `salt ‖ digest` into slot 0, outputs
/// `[1]`), tag `0x01` verifies (unseals the record, recomputes the
/// salted digest of the attempt, constant-time compares, outputs `[1]`
/// or `[0]`).
fn ssh_program() -> Program {
    let mut a = Asm::new();
    // Heap layout: record (len ‖ salt ‖ digest) at r2..r2+44, hash
    // buffer (len ‖ salt ‖ password) at r2+48, output at r2+104.
    a.movi(15, 1)
        .jz(1, "malformed")
        .ld8(5, 0, 8)
        .jz(5, "enroll")
        .sub(6, 5, 15)
        .jz(6, "verify");
    a.label("malformed").trap(1);

    a.label("enroll")
        .sub(8, 1, 15) // r8 = password length
        .addi(11, 2, 48) // r11 = hash buffer
        .addi(12, 2, 56) // r12 = salt (inside the hash buffer)
        .movi(9, 16)
        .random(12, 9)
        .addi(13, 8, 16)
        .st64(11, 0, 13) // hash buffer length = 16 + pwlen
        .addi(6, 0, 9) // password source (past the tag byte)
        .addi(7, 2, 72) // password destination
        .mov(5, 8);
    copy_loop(&mut a, "e_cp", "e_cp_done", 6, 7, 5, 9);
    a.addi(10, 2, 24) // digest lands directly inside the record
        .hash(10, 11)
        .ld64(9, 12, 0) // salt → record (two aligned words)
        .st64(2, 8, 9)
        .ld64(9, 12, 8)
        .st64(2, 16, 9)
        .movi(9, 36)
        .st64(2, 0, 9) // record length = 16 + 20
        .seal(2, 0)
        .st64(11, 0, 15) // output [1]
        .st8(11, 8, 15)
        .exit(11);

    a.label("verify")
        .and(6, 4, 15)
        .jz(6, "no_record")
        .unseal(2, 0) // record at r2
        .ld64(6, 2, 0)
        .movi(7, 36)
        .sub(8, 6, 7)
        .jnz(8, "corrupt")
        .sub(8, 1, 15) // attempt length
        .addi(11, 2, 48) // hash buffer
        .addi(13, 8, 16)
        .st64(11, 0, 13)
        .ld64(9, 2, 8) // salt from the record → hash buffer
        .st64(2, 56, 9)
        .ld64(9, 2, 16)
        .st64(2, 64, 9)
        .addi(6, 0, 9) // attempt source
        .addi(7, 2, 72) // attempt destination
        .mov(5, 8);
    copy_loop(&mut a, "v_cp", "v_cp_done", 6, 7, 5, 9);
    // Candidate digest overwrites the hash buffer head (the source is
    // copied out before the digest is written).
    a.hash(11, 11).mov(6, 11).addi(7, 2, 24);
    digest_compare(&mut a, "v_cmp", "v_cmp_done", 6, 7, 10, 9, 12, 13);
    a.addi(11, 2, 104) // output buffer
        .st64(11, 0, 15)
        .jz(10, "match")
        .movi(12, 0)
        .st8(11, 8, 12)
        .exit(11);
    a.label("match").st8(11, 8, 15).exit(11);
    a.label("no_record").trap(2);
    a.label("corrupt").trap(3);
    a.finish()
}

/// The certificate-authority program: tag `0x00` (exactly) generates —
/// 32 bytes of TPM randomness seed an RSA keygen, the private key is
/// sealed into slot 0 and the encoded public key is the output; tag
/// `0x01` signs — the key is unsealed, the CSR hashed, and the PKCS#1
/// v1.5 signature is the output.
pub fn ca_program() -> Program {
    let mut a = Asm::new();
    a.movi(15, 1)
        .jz(1, "malformed")
        .ld8(5, 0, 8)
        .jnz(5, "not_gen")
        .sub(6, 1, 15) // Generate carries no payload
        .jz(6, "generate")
        .jmp("malformed");
    a.label("not_gen").sub(6, 5, 15).jz(6, "sign");
    a.label("malformed").trap(1);

    a.label("generate")
        .movi(6, 32)
        .random(2, 6) // 32-byte seed at the heap base
        .addi(10, 2, 32) // private key after the seed
        .rsagen(10, 2, CA_KEY_BITS as u32)
        .seal(10, 0)
        .ld64(7, 10, 0) // place the public key after the private
        .addi(11, 10, 8)
        .add(11, 11, 7)
        .rsapub(11, 10)
        .exit(11);

    a.label("sign")
        .and(6, 4, 15)
        .jz(6, "no_key")
        .unseal(2, 0) // private key at the heap base
        .sub(8, 1, 15) // CSR length
        .ld64(7, 2, 0) // CSR buffer after the key
        .addi(11, 2, 8)
        .add(11, 11, 7)
        .st64(11, 0, 8)
        .addi(5, 0, 9) // CSR source (past the tag byte)
        .addi(6, 11, 8)
        .mov(9, 8);
    copy_loop(&mut a, "s_cp", "s_cp_done", 5, 6, 9, 12);
    a.mov(13, 6) // digest after the CSR copy (r6 = end cursor)
        .hash(13, 11)
        .addi(14, 13, 24)
        .rsasign(14, 2, 13)
        .exit(14);
    a.label("no_key").trap(2);
    a.finish()
}

/// The distributed-factoring program. `n` and the per-quantum candidate
/// budget live in the data segment (they are *part of the measured
/// image*, so sealed progress is bound to this exact job); the
/// current candidate persists per `mode` — as 8-byte in-region state
/// across `SYIELD`, or TPM-sealed in slot 0 across full sessions.
///
/// # Panics
///
/// Panics if `n < 4` or `candidates_per_quantum == 0`.
fn factoring_program(n: u64, candidates_per_quantum: u64, mode: PersistMode) -> Program {
    assert!(n >= 4, "nothing to factor");
    assert!(candidates_per_quantum > 0, "quantum must make progress");
    let mut a = Asm::new();
    a.data(&n.to_le_bytes());
    a.data(&candidates_per_quantum.to_le_bytes());
    // r5 = n, r6 = quantum (loaded while r6 is still 0 and usable as a
    // zero base register), r7 = candidate, r12 = tested this quantum.
    a.ld64(5, 6, 0).ld64(6, 6, 8).movi(15, 1);
    match mode {
        PersistMode::InRegion => {
            a.jnz(3, "have_state").movi(7, 2).jmp("search");
            a.label("have_state")
                .ld64(8, 3, 0)
                .movi(9, 8)
                .sub(10, 8, 9)
                .jnz(10, "corrupt")
                .ld64(7, 3, 8)
                .jmp("search");
        }
        PersistMode::TpmSeal => {
            a.and(8, 4, 15).jnz(8, "have_blob").movi(7, 2).jmp("search");
            a.label("have_blob")
                .unseal(2, 0)
                .ld64(8, 2, 0)
                .movi(9, 8)
                .sub(10, 8, 9)
                .jnz(10, "corrupt")
                .ld64(7, 2, 8)
                .jmp("search");
        }
    }
    a.label("search").movi(12, 0);
    a.label("s_loop").jlt(12, 6, "s_body");
    // Quantum exhausted: persist the next untested candidate.
    a.movi(9, 8).st64(2, 0, 9).st64(2, 8, 7);
    match mode {
        PersistMode::InRegion => {
            a.yield_(2);
        }
        PersistMode::TpmSeal => {
            // Baseline hardware: seal progress and exit empty — the
            // next quantum is a fresh late launch.
            a.seal(2, 0)
                .movi(9, 0)
                .st64(2, 32, 9)
                .addi(10, 2, 32)
                .exit(10);
        }
    }
    // The primality cutoff `candidate² > n`, without overflow:
    // `n / candidate < candidate`.
    a.label("s_body")
        .divu(13, 5, 7)
        .jlt(13, 7, "prime")
        .remu(14, 5, 7)
        .jz(14, "found")
        .addi(7, 7, 1)
        .addi(12, 12, 1)
        .jmp("s_loop");
    a.label("prime").movi(13, 1).mov(14, 5).jmp("emit");
    a.label("found").mov(13, 7).divu(14, 5, 7);
    a.label("emit")
        .movi(9, 16)
        .st64(2, 0, 9)
        .st64(2, 8, 13)
        .st64(2, 16, 14)
        .exit(2);
    a.label("corrupt").trap(3);
    a.finish()
}

/// The rootkit-detector program. The whitelist of known-good kernel
/// digests is the data segment — part of the measured image, so a
/// detector trusting different kernels *is different code* to the
/// attestation machinery. Hashes the input snapshot, measures the
/// digest into the attestation chain, scans the whitelist with a
/// constant-time compare, and outputs the verdict byte.
fn rootkit_program(whitelist: &[Sha1Digest]) -> Program {
    let mut a = Asm::new();
    let mut seg = (whitelist.len() as u64).to_le_bytes().to_vec();
    for d in whitelist {
        seg.extend_from_slice(d);
    }
    a.data(&seg);
    a.movi(15, 1)
        .mov(5, 2) // snapshot digest at the heap base
        .hash(5, 0)
        .measure(5)
        .ld64(6, 7, 0) // whitelist count (r7 still 0)
        .movi(7, 8); // whitelist cursor
    a.label("scan").jz(6, "tampered").mov(9, 5).mov(10, 7);
    digest_compare(&mut a, "cmp", "cmp_done", 9, 10, 11, 8, 12, 13);
    a.jz(11, "clean").addi(7, 7, 20).sub(6, 6, 15).jmp("scan");
    a.label("clean").movi(9, 1).jmp("emit");
    a.label("tampered").movi(9, 0);
    a.label("emit")
        .st64(2, 32, 15) // output (len 1) at r2+32, clear of the digest
        .st8(2, 40, 9)
        .addi(10, 2, 32)
        .exit(10);
    a.finish()
}

/// The executed-bytecode SSH password PAL.
pub fn vm_ssh() -> VmPal {
    VmPal::new("ssh-password", ssh_program())
}

/// The measured image of [`vm_ssh`].
pub fn ssh_image() -> Vec<u8> {
    ssh_program().serialize()
}

/// The executed-bytecode certificate-authority PAL.
pub fn vm_ca() -> VmPal {
    VmPal::new("certificate-authority", ca_program())
}

/// The measured image of [`vm_ca`].
pub fn ca_image() -> Vec<u8> {
    ca_program().serialize()
}

/// The executed-bytecode factoring PAL for one job configuration.
///
/// # Panics
///
/// Panics if `n < 4` or `candidates_per_quantum == 0`.
pub fn vm_factoring(n: u64, candidates_per_quantum: u64, mode: PersistMode) -> VmPal {
    VmPal::new(
        "distributed-factoring",
        factoring_program(n, candidates_per_quantum, mode),
    )
}

/// The measured image of [`vm_factoring`] for the same configuration.
pub fn factoring_image(n: u64, candidates_per_quantum: u64, mode: PersistMode) -> Vec<u8> {
    factoring_program(n, candidates_per_quantum, mode).serialize()
}

/// The executed-bytecode rootkit detector trusting exactly the given
/// kernel images.
pub fn vm_rootkit(known_good_kernels: &[&[u8]]) -> VmPal {
    let digests: Vec<Sha1Digest> = known_good_kernels.iter().map(|k| Sha1::digest(k)).collect();
    vm_rootkit_from_digests(digests)
}

/// The executed-bytecode rootkit detector from precomputed digests.
fn vm_rootkit_from_digests(whitelist: Vec<Sha1Digest>) -> VmPal {
    VmPal::new("rootkit-detector", rootkit_program(&whitelist))
}

/// The measured image of [`vm_rootkit`] for the same whitelist.
pub fn rootkit_image(known_good_kernels: &[&[u8]]) -> Vec<u8> {
    let digests: Vec<Sha1Digest> = known_good_kernels.iter().map(|k| Sha1::digest(k)).collect();
    rootkit_program(&digests).serialize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode_factors, decode_public_key, verify_ca_signature, CaRequest, SshRequest};
    use sea_core::{EnhancedSea, LegacySea, PalLogic, PalStep, SecurePlatform};
    use sea_hw::{CpuId, Platform, SimDuration};
    use sea_tpm::KeyStrength;

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

    #[test]
    fn images_are_serialized_bytecode() {
        for image in [
            ssh_image(),
            ca_image(),
            factoring_image(10403, 10, PersistMode::InRegion),
            rootkit_image(&[b"kernel"]),
        ] {
            assert_eq!(&image[..4], b"SVM1");
            assert!(sea_core::Program::parse(&image).is_ok());
        }
    }

    #[test]
    fn ssh_enroll_then_verify() {
        let mut sea = legacy(b"vm-ssh");
        let mut pal = vm_ssh();
        let r = sea
            .run_session(
                &mut pal,
                &SshRequest::Enroll(b"hunter2".to_vec()).to_bytes(),
            )
            .unwrap();
        assert_eq!(r.output, Some(vec![1]));
        assert!(pal.slot(0).is_some(), "record sealed into slot 0");

        let good = sea
            .run_session(
                &mut pal,
                &SshRequest::Verify(b"hunter2".to_vec()).to_bytes(),
            )
            .unwrap();
        assert_eq!(good.output, Some(vec![1]));
        // Verify sessions unseal but never reseal.
        assert!(good.report.unseal > SimDuration::ZERO);
        assert_eq!(good.report.seal, SimDuration::ZERO);
        let bad = sea
            .run_session(
                &mut pal,
                &SshRequest::Verify(b"letmein".to_vec()).to_bytes(),
            )
            .unwrap();
        assert_eq!(bad.output, Some(vec![0]));
    }

    #[test]
    fn ssh_enroll_then_verify_enhanced() {
        let mut sea = enhanced(b"vm-ssh-e");
        let mut pal = vm_ssh();
        let enroll = SshRequest::Enroll(b"pw".to_vec()).to_bytes();
        let id = sea.slaunch(&mut pal, &enroll, CpuId(0), None).unwrap();
        let done = sea.run_to_exit(&mut pal, id, CpuId(0)).unwrap();
        assert_eq!(done.output, vec![1]);
        sea.quote_and_free(id, b"n").unwrap();

        let verify = SshRequest::Verify(b"pw".to_vec()).to_bytes();
        let id = sea.slaunch(&mut pal, &verify, CpuId(1), None).unwrap();
        let done = sea.run_to_exit(&mut pal, id, CpuId(1)).unwrap();
        assert_eq!(done.output, vec![1]);
    }

    #[test]
    fn ssh_empty_password_is_enrollable_and_distinct() {
        let mut sea = legacy(b"vm-ssh-empty");
        let mut pal = vm_ssh();
        let enrolled = sea
            .run_session(&mut pal, &SshRequest::Enroll(Vec::new()).to_bytes())
            .unwrap();
        assert_eq!(enrolled.output, Some(vec![1]));
        let good = sea
            .run_session(&mut pal, &SshRequest::Verify(Vec::new()).to_bytes())
            .unwrap();
        assert_eq!(good.output, Some(vec![1]));
        let bad = sea
            .run_session(&mut pal, &SshRequest::Verify(b"a".to_vec()).to_bytes())
            .unwrap();
        assert_eq!(bad.output, Some(vec![0]));
    }

    #[test]
    fn ssh_error_paths_trap() {
        let mut sea = legacy(b"vm-ssh-err");
        let mut pal = vm_ssh();
        assert!(sea.run_session(&mut pal, b"").is_err(), "empty request");
        assert!(sea.run_session(&mut pal, &[0x07]).is_err(), "bad tag");
        assert!(
            sea.run_session(&mut pal, &SshRequest::Verify(b"x".to_vec()).to_bytes())
                .is_err(),
            "verify before enroll"
        );
    }

    #[test]
    fn ca_generate_then_sign() {
        let mut sea = legacy(b"vm-ca");
        let mut pal = vm_ca();
        let r = sea
            .run_session(&mut pal, &CaRequest::Generate.to_bytes())
            .unwrap();
        // Gen session: Seal but no Unseal (Figure 2's PAL Gen shape).
        assert!(r.report.seal > SimDuration::ZERO);
        assert_eq!(r.report.unseal, SimDuration::ZERO);
        let public = decode_public_key(&r.output.unwrap()).expect("valid public key");
        assert!(pal.slot(0).is_some(), "private key sealed into slot 0");

        let csr = b"CN=example.org";
        let r = sea
            .run_session(&mut pal, &CaRequest::Sign(csr.to_vec()).to_bytes())
            .unwrap();
        // Use session: Unseal but no re-Seal (§4.1).
        assert!(r.report.unseal > SimDuration::ZERO);
        assert_eq!(r.report.seal, SimDuration::ZERO);
        let sig = r.output.unwrap();
        assert!(verify_ca_signature(&public, csr, &sig));
        assert!(!verify_ca_signature(&public, b"CN=evil.org", &sig));
    }

    #[test]
    fn ca_rejects_malformed_and_unkeyed() {
        let mut sea = legacy(b"vm-ca-err");
        let mut pal = vm_ca();
        assert!(sea.run_session(&mut pal, b"").is_err(), "empty request");
        // Generate with a payload is malformed.
        assert!(sea.run_session(&mut pal, &[0x00, 0xFF]).is_err());
        assert!(sea.run_session(&mut pal, &[0x02]).is_err());
        assert!(sea
            .run_session(&mut pal, &CaRequest::Sign(b"csr".to_vec()).to_bytes())
            .is_err());
    }

    #[test]
    fn factoring_in_region_yields_to_factors() {
        let mut sea = enhanced(b"vm-fact");
        let mut pal = vm_factoring(101 * 103, 10, PersistMode::InRegion);
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        let done = sea.run_to_exit(&mut pal, id, CpuId(0)).unwrap();
        assert_eq!(decode_factors(&done.output), Some((101, 103)));
        // Progress stays in the region across SYIELD: suspend/resume
        // cycles, and no TPM sealing at all.
        assert!(done.report.context_switch > SimDuration::ZERO);
        assert_eq!(done.report.seal, SimDuration::ZERO);
        assert_eq!(done.report.unseal, SimDuration::ZERO);
    }

    #[test]
    fn factoring_tpm_seal_spans_sessions() {
        let mut sea = legacy(b"vm-fact-seal");
        let mut pal = vm_factoring(101 * 103, 40, PersistMode::TpmSeal);
        let mut sessions = 0;
        let factors = loop {
            sessions += 1;
            let r = sea.run_session(&mut pal, b"").unwrap();
            let out = r.output.expect("baseline PALs always exit");
            if let Some(f) = decode_factors(&out) {
                break f;
            }
            assert!(pal.slot(0).is_some(), "progress sealed between sessions");
            // Every non-final session pays for a Seal; every session
            // after the first pays for an Unseal.
            assert!(r.report.seal > SimDuration::ZERO);
            if sessions > 1 {
                assert!(r.report.unseal > SimDuration::ZERO);
            }
            assert!(sessions < 100, "runaway");
        };
        assert_eq!(factors, (101, 103));
        assert!(sessions >= 3, "work split across sessions");
    }

    #[test]
    fn factoring_prime_reports_trivial_pair() {
        let mut sea = enhanced(b"vm-fact-prime");
        let mut pal = vm_factoring(10007, 10_000, PersistMode::InRegion);
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        let done = sea.run_to_exit(&mut pal, id, CpuId(0)).unwrap();
        assert_eq!(decode_factors(&done.output), Some((1, 10007)));
    }

    #[test]
    fn factoring_image_is_job_specific() {
        let a = factoring_image(10403, 10, PersistMode::InRegion);
        let b = factoring_image(10405, 10, PersistMode::InRegion);
        let c = factoring_image(10403, 11, PersistMode::InRegion);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn factoring_even_n_factors_at_once() {
        // The first candidate divides: the first quantum exits with the
        // factors, without a single yield.
        let mut sea = enhanced(b"vm-fact-even");
        let mut pal = vm_factoring(1000, 5, PersistMode::InRegion);
        let id = sea.slaunch(&mut pal, b"", CpuId(0), None).unwrap();
        match sea.step(&mut pal, id).unwrap() {
            PalStep::Exited { output } => assert_eq!(decode_factors(&output), Some((2, 500))),
            PalStep::Yielded => panic!("an even n must factor in the first quantum"),
        }
    }

    #[test]
    #[should_panic(expected = "nothing to factor")]
    fn factoring_tiny_n_panics() {
        let _ = vm_factoring(3, 10, PersistMode::InRegion);
    }

    #[test]
    #[should_panic(expected = "quantum must make progress")]
    fn factoring_zero_quantum_panics() {
        let _ = vm_factoring(100, 0, PersistMode::InRegion);
    }

    #[test]
    fn rootkit_verdicts() {
        let kernel = b"known good kernel".to_vec();
        let mut rooted = kernel.clone();
        rooted.extend_from_slice(b" + evil hook");

        let mut sea = enhanced(b"vm-rk");
        let mut det = vm_rootkit(&[&kernel]);
        let id = sea.slaunch(&mut det, &kernel, CpuId(0), None).unwrap();
        let done = sea.run_to_exit(&mut det, id, CpuId(0)).unwrap();
        assert_eq!(done.output, vec![1]);
        sea.quote_and_free(id, b"n").unwrap();

        let id = sea.slaunch(&mut det, &rooted, CpuId(0), None).unwrap();
        let done = sea.run_to_exit(&mut det, id, CpuId(0)).unwrap();
        assert_eq!(done.output, vec![0]);
    }

    #[test]
    fn rootkit_whitelist_is_measured_code() {
        let a = rootkit_image(&[b"kernel-a"]);
        let b = rootkit_image(&[b"kernel-b"]);
        assert_ne!(a, b);
        let pal = vm_rootkit(&[b"kernel-a"]);
        assert_eq!(pal.image(), a);
    }
}
