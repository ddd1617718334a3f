//! Property-based tests over the cryptographic substrate: algebraic laws
//! of the bignum engine, hash/HMAC consistency, and RSA/sealing
//! roundtrips under arbitrary inputs. Driven by the in-repo harness in
//! `common` (xorshift tapes + greedy shrinking) — no external crates.

mod common;

use common::{check, prop_assert, prop_assert_eq, prop_assert_ne};
use minimal_tcb::crypto::{
    BigUint, CryptoError, Drbg, Hmac, OaepLabel, RsaPrivateKey, RsaPublicKey, Sha1, Sha256,
    Signature,
};

/// Case count for the plain bignum/hash properties (matches the original
/// `ProptestConfig::with_cases(64)`).
const CASES: usize = 64;

/// Case count for the RSA properties (original: 16; a fixed key is used
/// so keygen does not dominate).
const RSA_CASES: usize = 16;

fn big(bytes: Vec<u8>) -> BigUint {
    BigUint::from_bytes_be(&bytes)
}

#[test]
fn add_is_commutative_and_associative() {
    check("add_is_commutative_and_associative", CASES, |t| {
        let a = big(t.bytes(0, 48));
        let b = big(t.bytes(0, 48));
        let c = big(t.bytes(0, 48));
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
        Ok(())
    });
}

#[test]
fn add_sub_roundtrip() {
    check("add_sub_roundtrip", CASES, |t| {
        let a = big(t.bytes(0, 48));
        let b = big(t.bytes(0, 48));
        let sum = &a + &b;
        prop_assert_eq!(sum.checked_sub(&b).unwrap(), a);
        Ok(())
    });
}

#[test]
fn mul_distributes_over_add() {
    check("mul_distributes_over_add", CASES, |t| {
        let a = big(t.bytes(0, 32));
        let b = big(t.bytes(0, 32));
        let c = big(t.bytes(0, 32));
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        Ok(())
    });
}

#[test]
fn division_identity() {
    check("division_identity", CASES, |t| {
        let n = big(t.bytes(0, 64));
        let d = big(t.bytes(1, 40));
        if d.is_zero() {
            return Ok(()); // prop_assume!(!d.is_zero())
        }
        let (q, r) = n.divrem(&d);
        prop_assert!(r < d);
        prop_assert_eq!(&(&q * &d) + &r, n);
        Ok(())
    });
}

#[test]
fn shifts_are_mul_div_by_powers_of_two() {
    check("shifts_are_mul_div_by_powers_of_two", CASES, |t| {
        let v = big(t.bytes(0, 32));
        let bits = t.range(0, 100);
        let shifted = v.shl_bits(bits);
        let pow = BigUint::one().shl_bits(bits);
        prop_assert_eq!(&shifted, &(&v * &pow));
        prop_assert_eq!(&shifted >> bits, v);
        Ok(())
    });
}

#[test]
fn bytes_roundtrip() {
    check("bytes_roundtrip", CASES, |t| {
        let n = big(t.bytes(0, 64));
        prop_assert_eq!(BigUint::from_bytes_be(&n.to_bytes_be()), n);
        Ok(())
    });
}

#[test]
fn modexp_product_law() {
    check("modexp_product_law", CASES, |t| {
        // b^(e1+e2) == b^e1 * b^e2 (mod m)
        let b = big(t.bytes(1, 16));
        let e1 = t.range(0, 50) as u32;
        let e2 = t.range(0, 50) as u32;
        let mut m = big(t.bytes(2, 16));
        if m.is_zero() || m.is_one() {
            m = BigUint::from_u64(7);
        }
        let lhs = b.modexp(&BigUint::from_u64((e1 + e2) as u64), &m);
        let rhs_a = b.modexp(&BigUint::from_u64(e1 as u64), &m);
        let rhs_b = b.modexp(&BigUint::from_u64(e2 as u64), &m);
        prop_assert_eq!(lhs, (&rhs_a * &rhs_b).rem_ref(&m));
        Ok(())
    });
}

#[test]
fn modexp_matches_square_and_multiply_reference() {
    check("modexp_matches_square_and_multiply_reference", CASES, |t| {
        // Moduli of up to 33 limbs, odd and even; exponents of up to
        // 2,104 bits, so every exponentiation path is reached; bases at
        // or above the modulus, so the entry reduction runs too.
        let mut m = big(t.bytes(1, 8 * 33 + 1));
        if m.bit_len() < 2 {
            m = BigUint::from_u64(2);
        }
        if m.is_even() == t.bool() {
            m = &m + &BigUint::one();
        }
        let e = big(t.bytes(0, 264));
        let b = &m + &big(t.bytes(0, 8 * 34));
        let mut reference = BigUint::one();
        for i in (0..e.bit_len()).rev() {
            reference = reference.mul_ref(&reference).rem_ref(&m);
            if e.bit(i) {
                reference = reference.mul_ref(&b).rem_ref(&m);
            }
        }
        prop_assert_eq!(b.modexp(&e, &m), reference);
        Ok(())
    });
}

#[test]
fn mod_inverse_is_inverse() {
    check("mod_inverse_is_inverse", CASES, |t| {
        let a = big(t.bytes(1, 16));
        let m = big(t.bytes(2, 16));
        if m.is_zero() || m.is_one() {
            return Ok(()); // prop_assume!
        }
        if let Some(inv) = a.mod_inverse(&m) {
            prop_assert_eq!((&a * &inv).rem_ref(&m), BigUint::one());
            prop_assert!(inv < m);
        }
        Ok(())
    });
}

#[test]
fn sha1_incremental_equals_oneshot() {
    check("sha1_incremental_equals_oneshot", CASES, |t| {
        let data = t.bytes(0, 512);
        let split = t.range(0, 512).min(data.len());
        let mut h = Sha1::new();
        h.update_bytes(&data[..split]);
        h.update_bytes(&data[split..]);
        prop_assert_eq!(h.finalize_fixed(), Sha1::digest(&data));
        Ok(())
    });
}

#[test]
fn sha256_incremental_equals_oneshot() {
    check("sha256_incremental_equals_oneshot", CASES, |t| {
        let data = t.bytes(0, 512);
        let mut points: Vec<usize> = t
            .vec(0, 4, |t| t.range(0, 512))
            .into_iter()
            .map(|s| s.min(data.len()))
            .collect();
        points.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for p in points {
            h.update_bytes(&data[prev..p]);
            prev = p;
        }
        h.update_bytes(&data[prev..]);
        prop_assert_eq!(h.finalize_fixed(), Sha256::digest(&data));
        Ok(())
    });
}

#[test]
fn hmac_verifies_own_tags_and_rejects_bitflips() {
    check("hmac_verifies_own_tags_and_rejects_bitflips", CASES, |t| {
        let key = t.bytes(0, 80);
        let msg = t.bytes(0, 128);
        let flip_byte = t.range(0, 20);
        let flip_bit = t.range(0, 8) as u8;
        let tag = Hmac::<Sha1>::mac(&key, &msg);
        prop_assert!(Hmac::<Sha1>::verify(&key, &msg, &tag));
        let mut bad = tag.clone();
        let idx = flip_byte % bad.len();
        bad[idx] ^= 1 << flip_bit;
        prop_assert!(!Hmac::<Sha1>::verify(&key, &msg, &bad));
        Ok(())
    });
}

#[test]
fn drbg_is_deterministic_and_seed_sensitive() {
    check("drbg_is_deterministic_and_seed_sensitive", CASES, |t| {
        let seed = t.bytes(1, 32);
        let n = t.range(1, 128);
        let a = Drbg::new(&seed).fill(n);
        let b = Drbg::new(&seed).fill(n);
        prop_assert_eq!(&a, &b);
        let mut other_seed = seed.clone();
        other_seed[0] ^= 1;
        let c = Drbg::new(&other_seed).fill(n);
        prop_assert_ne!(a, c);
        Ok(())
    });
}

#[test]
fn biguint_agrees_with_native_u128() {
    check("biguint_agrees_with_native_u128", CASES, |t| {
        // Differential check of every arithmetic op against native
        // 128-bit integers on word-sized operands.
        let a = t.u64();
        let b = t.u64();
        let (ba, bb) = (BigUint::from_u64(a), BigUint::from_u64(b));
        let (wa, wb) = (a as u128, b as u128);

        prop_assert_eq!((&ba + &bb).to_bytes_be(), be(wa + wb));
        prop_assert_eq!((&ba * &bb).to_bytes_be(), be(wa * wb));
        if a >= b {
            prop_assert_eq!(ba.checked_sub(&bb).unwrap().to_bytes_be(), be(wa - wb));
        } else {
            prop_assert!(ba.checked_sub(&bb).is_none());
        }
        if b != 0 {
            let (q, r) = ba.divrem(&bb);
            prop_assert_eq!(q.to_bytes_be(), be(wa / wb));
            prop_assert_eq!(r.to_bytes_be(), be(wa % wb));
        }
        prop_assert_eq!(ba.gcd(&bb).to_bytes_be(), be(gcd_u128(wa, wb)));
        prop_assert_eq!(ba.bit_len() as u32, 64 - a.leading_zeros());
        Ok(())
    });
}

// RSA properties use a fixed key (keygen per-case would dominate) with
// tape-driven payloads.

#[test]
fn rsa_oaep_roundtrips_arbitrary_payloads() {
    check("rsa_oaep_roundtrips_arbitrary_payloads", RSA_CASES, |t| {
        let payload = t.bytes(0, 22);
        let label = OaepLabel(t.bytes(0, 16));
        let rng_seed = t.u64();
        let key = test_key();
        let mut rng = Drbg::new(&rng_seed.to_le_bytes());
        let ct = key
            .public_key()
            .encrypt_oaep(&payload, &label, &mut rng)
            .unwrap();
        prop_assert_eq!(key.decrypt_oaep(&ct, &label).unwrap(), payload);
        Ok(())
    });
}

#[test]
fn rsa_signature_binds_digest() {
    check("rsa_signature_binds_digest", RSA_CASES, |t| {
        let msg_a = t.bytes(0, 64);
        let msg_b = t.bytes(0, 64);
        let key = test_key();
        let da = Sha1::digest(&msg_a);
        let db = Sha1::digest(&msg_b);
        let sig = key.sign_pkcs1v15(&da).unwrap();
        prop_assert!(key.public_key().verify_pkcs1v15(&da, &sig));
        if da != db {
            prop_assert!(!key.public_key().verify_pkcs1v15(&db, &sig));
        }
        Ok(())
    });
}

#[test]
fn rsa_signature_rejects_tampered_message() {
    check("rsa_signature_rejects_tampered_message", RSA_CASES, |t| {
        let msg = t.bytes(1, 64);
        let key = test_key();
        let sig = key.sign_pkcs1v15(&Sha1::digest(&msg)).unwrap();
        // Flip one bit of the message: its digest must stop verifying.
        let mut tampered = msg.clone();
        let byte = t.range(0, tampered.len());
        let bit = t.range(0, 8) as u8;
        tampered[byte] ^= 1 << bit;
        prop_assert!(!key
            .public_key()
            .verify_pkcs1v15(&Sha1::digest(&tampered), &sig));
        Ok(())
    });
}

#[test]
fn rsa_signature_rejects_tampered_signature() {
    check("rsa_signature_rejects_tampered_signature", RSA_CASES, |t| {
        let msg = t.bytes(0, 64);
        let key = test_key();
        let digest = Sha1::digest(&msg);
        let sig = key.sign_pkcs1v15(&digest).unwrap();
        // Flip one bit of the signature itself.
        let mut bytes = sig.0.clone();
        let byte = t.range(0, bytes.len());
        let bit = t.range(0, 8) as u8;
        bytes[byte] ^= 1 << bit;
        prop_assert!(!key.public_key().verify_pkcs1v15(&digest, &Signature(bytes)));
        Ok(())
    });
}

#[test]
fn rsa_signature_rejects_wrong_key() {
    check("rsa_signature_rejects_wrong_key", RSA_CASES, |t| {
        let msg = t.bytes(0, 64);
        let digest = Sha1::digest(&msg);
        let sig = test_key().sign_pkcs1v15(&digest).unwrap();
        prop_assert!(!other_key().public_key().verify_pkcs1v15(&digest, &sig));
        Ok(())
    });
}

#[test]
fn rsa_signature_rejects_truncated_signature() {
    check(
        "rsa_signature_rejects_truncated_signature",
        RSA_CASES,
        |t| {
            let msg = t.bytes(0, 64);
            let key = test_key();
            let digest = Sha1::digest(&msg);
            let sig = key.sign_pkcs1v15(&digest).unwrap();
            // Any strict prefix — including the empty one — must fail.
            let keep = t.range(0, sig.0.len());
            let truncated = Signature(sig.0[..keep].to_vec());
            prop_assert!(!key.public_key().verify_pkcs1v15(&digest, &truncated));
            Ok(())
        },
    );
}

#[test]
fn untrusted_public_keys_verify_and_encrypt_without_panicking() {
    // Public keys arrive from untrusted bytes (AIK certificates, the CA
    // PAL's output). Whatever `from_bytes` accepts — moduli too short
    // for a PKCS#1 v1.5 encoding or OAEP included — must give a verdict
    // or a typed error, never a panic, and must be the key's one
    // canonical encoding: it re-encodes to exactly the input bytes.
    check(
        "untrusted_public_keys_verify_and_encrypt_without_panicking",
        CASES,
        |t| {
            let mut n = t.bytes(0, 80);
            let mut e = t.bytes(0, 5);
            // Sometimes write a field non-canonically, zero-prefixed.
            match t.range(0, 4) {
                0 => n.insert(0, 0),
                1 => e.insert(0, 0),
                _ => {}
            }
            let mut encoded = Vec::new();
            for part in [&n, &e] {
                encoded.extend_from_slice(&(part.len() as u32).to_be_bytes());
                encoded.extend_from_slice(part);
            }
            let Ok(key) = RsaPublicKey::from_bytes(&encoded) else {
                return Ok(());
            };
            prop_assert_eq!(key.to_bytes(), encoded);
            let k = key.modulus_len();
            let digest = Sha1::digest(&t.bytes(0, 16));
            let sig = Signature((0..k).map(|_| t.byte()).collect());
            let payload = t.bytes(0, 24);
            let seed = t.u64().to_le_bytes();
            let verdict = std::panic::catch_unwind(|| {
                let verified = key.verify_pkcs1v15(&digest, &sig);
                let _ = key.encrypt_oaep(&payload, &OaepLabel::default(), &mut Drbg::new(&seed));
                verified
            })
            .map_err(|_| format!("panicked on a {k}-byte modulus"))?;
            if k < 46 {
                prop_assert!(!verdict, "a {k}-byte modulus verified a signature");
            }
            Ok(())
        },
    );
}

// CRT differential properties: the accelerated signing path must be
// byte-for-byte indistinguishable from the plain d-exponent path, and
// every tampered-parameter route must refuse rather than emit a
// Bellcore-leakable signature.

#[test]
fn crt_signing_matches_plain_exponent_path() {
    check("crt_signing_matches_plain_exponent_path", RSA_CASES, |t| {
        let msg = t.bytes(0, 64);
        let digest = Sha1::digest(&msg);
        let crt_key = test_key();
        prop_assert!(crt_key.has_crt());
        // Serialization drops the factorization, so the round-tripped
        // key signs through the plain full-size exponent — a built-in
        // differential oracle for the CRT path.
        let plain_key = RsaPrivateKey::from_bytes(&crt_key.to_bytes()).unwrap();
        prop_assert!(!plain_key.has_crt());
        let via_crt = crt_key.sign_pkcs1v15(&digest).unwrap();
        let via_d = plain_key.sign_pkcs1v15(&digest).unwrap();
        prop_assert_eq!(via_crt.0, via_d.0);
        Ok(())
    });
}

#[test]
fn tampered_crt_factors_are_rejected_on_attach() {
    check(
        "tampered_crt_factors_are_rejected_on_attach",
        RSA_CASES,
        |t| {
            let key = RsaPrivateKey::from_bytes(&test_key().to_bytes()).unwrap();
            // Arbitrary 16-byte "factors" multiply to at most 256 bits,
            // never the 512-bit modulus, so re-arming must always refuse.
            let p = big(t.bytes(1, 16));
            let q = big(t.bytes(2, 16));
            let err = key.with_crt(p, q).unwrap_err();
            prop_assert!(matches!(err, CryptoError::CrtParamsInvalid));
            Ok(())
        },
    );
}

#[test]
fn faulted_crt_exponent_withholds_signatures() {
    check(
        "faulted_crt_exponent_withholds_signatures",
        RSA_CASES,
        |t| {
            let msg = t.bytes(0, 64);
            let digest = Sha1::digest(&msg);
            // A corrupted half-exponentiation would leak a factor of n if
            // released (the Bellcore attack); signing must withhold the
            // signature instead.
            let key = test_key().with_faulted_crt();
            let err = key.sign_pkcs1v15(&digest).unwrap_err();
            prop_assert!(matches!(err, CryptoError::CrtFault));
            Ok(())
        },
    );
}

fn test_key() -> RsaPrivateKey {
    use std::sync::OnceLock;
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| RsaPrivateKey::generate(512, &mut Drbg::new(b"proptest key")).unwrap())
        .clone()
}

fn other_key() -> RsaPrivateKey {
    use std::sync::OnceLock;
    static KEY: OnceLock<RsaPrivateKey> = OnceLock::new();
    KEY.get_or_init(|| RsaPrivateKey::generate(512, &mut Drbg::new(b"proptest other key")).unwrap())
        .clone()
}

fn be(v: u128) -> Vec<u8> {
    let raw = v.to_be_bytes();
    let first = raw.iter().position(|&b| b != 0).unwrap_or(raw.len());
    raw[first..].to_vec()
}

fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}
