//! RSA key generation, signatures, and encryption.
//!
//! The TPM v1.2 operations the paper benchmarks all bottom out in RSA with
//! the 2048-bit Storage Root Key (Seal/Unseal) or an Attestation Identity
//! Key (Quote). This module provides:
//!
//! * [`RsaPrivateKey::generate`] — Miller–Rabin key generation with public
//!   exponent 65537,
//! * PKCS#1-v1.5-style signatures ([`RsaPrivateKey::sign_pkcs1v15`] /
//!   [`RsaPublicKey::verify_pkcs1v15`]) used for `TPM_Quote`, and
//! * OAEP-style encryption ([`RsaPublicKey::encrypt_oaep`] /
//!   [`RsaPrivateKey::decrypt_oaep`]) used for `TPM_Seal`/`TPM_Unseal`.
//!
//! The padding formats follow the structure of PKCS#1 v2.1 (EMSA-PKCS1-v1_5
//! and EME-OAEP with MGF1-SHA-1) closely enough that every security-relevant
//! behaviour — deterministic signatures over digests, randomized
//! non-malleable encryption, integrity-checked decryption — is real.

//!
//! Private-key operations use the Chinese Remainder Theorem when the prime
//! factorization is available (always, for generated keys): two half-size
//! exponentiations over `p` and `q` replace one full-size exponentiation,
//! each through a Montgomery context built for that operation. CRT
//! results are checked against the public exponent before release (a
//! Bellcore-style fault on either half yields [`CryptoError::CrtFault`],
//! never a forgeable signature), so CRT and non-CRT paths are
//! byte-identical on every input.

use crate::bignum::{BigUint, Montgomery};
use crate::digest::Digest;
use crate::drbg::Drbg;
use crate::error::CryptoError;
use crate::prime::generate_prime;
use crate::sha1::{Sha1, SHA1_DIGEST_LEN};

/// DER prefix for a SHA-1 `DigestInfo` (PKCS#1 v1.5 signature encoding).
const SHA1_DIGEST_INFO_PREFIX: [u8; 15] = [
    0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14,
];

/// Smallest modulus, in bytes, that holds an EMSA-PKCS1-v1_5 encoding of
/// a SHA-1 digest: the `DigestInfo` plus at least 11 bytes of padding.
const MIN_PKCS1_V15_LEN: usize = SHA1_DIGEST_INFO_PREFIX.len() + SHA1_DIGEST_LEN + 11;

/// Writes the key encoding both key types share: each field as a 4-byte
/// big-endian length, then its minimal big-endian bytes.
fn encode_fields(fields: &[&BigUint]) -> Vec<u8> {
    let mut out = Vec::new();
    for field in fields {
        let bytes = field.to_bytes_be();
        out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Reads exactly `N` fields written by [`encode_fields`]. Only the
/// canonical encoding is accepted, so a decoded key re-encodes to its
/// input: a field must be nonempty and start with a nonzero byte (which
/// also rules out a zero value), and no bytes may trail the last field.
fn decode_fields<const N: usize>(bytes: &[u8]) -> Result<[BigUint; N], CryptoError> {
    let mut rest = bytes;
    let mut fields = Vec::with_capacity(N);
    for _ in 0..N {
        let (len, tail) = rest
            .split_first_chunk::<4>()
            .ok_or(CryptoError::InvalidCiphertext)?;
        let len = u32::from_be_bytes(*len) as usize;
        if tail.len() < len {
            return Err(CryptoError::InvalidCiphertext);
        }
        let (field, tail) = tail.split_at(len);
        if field.first().is_none_or(|&b| b == 0) {
            return Err(CryptoError::InvalidCiphertext);
        }
        fields.push(BigUint::from_bytes_be(field));
        rest = tail;
    }
    if !rest.is_empty() {
        return Err(CryptoError::InvalidCiphertext);
    }
    fields
        .try_into()
        .map_err(|_| CryptoError::InvalidCiphertext)
}

/// An RSA signature (big-endian, exactly the modulus length).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature(pub Vec<u8>);

/// Optional OAEP label, bound into the ciphertext integrity check.
///
/// The TPM model uses the label to bind sealed blobs to their purpose
/// (e.g. `b"SEAL"`), so a blob produced for one purpose cannot be decrypted
/// in the context of another.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OaepLabel(pub Vec<u8>);

/// The public half of an RSA keypair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

/// Chinese-Remainder-Theorem acceleration parameters for a private key.
///
/// Kept alongside `d` when the factorization of `n` is known; every
/// private-key operation then runs as two half-size exponentiations
/// (`dp = d mod p-1`, `dq = d mod q-1`) recombined via Garner's formula
/// with `qinv = q^-1 mod p`.
#[derive(Clone)]
struct CrtParams {
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

impl CrtParams {
    /// Derives CRT parameters from `d` and the factors of `n`; `None` if
    /// the factors are degenerate (`<= 1`, or `q` not invertible mod `p`).
    fn derive(d: &BigUint, p: BigUint, q: BigUint) -> Option<CrtParams> {
        let one = BigUint::one();
        let pm1 = p.checked_sub(&one)?;
        let qm1 = q.checked_sub(&one)?;
        if pm1.is_zero() || qm1.is_zero() {
            return None;
        }
        let dp = d.rem_ref(&pm1);
        let dq = d.rem_ref(&qm1);
        let qinv = q.mod_inverse(&p)?;
        Some(CrtParams { p, q, dp, dq, qinv })
    }
}

/// An RSA private key (with its embedded public half).
#[derive(Clone)]
pub struct RsaPrivateKey {
    public: RsaPublicKey,
    d: BigUint,
    /// CRT acceleration; `None` for keys restored from the serialized
    /// `(n, e, d)` form, which fall back to the full-size exponentiation.
    crt: Option<CrtParams>,
}

impl std::fmt::Debug for RsaPrivateKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print the private exponent.
        f.debug_struct("RsaPrivateKey")
            .field("modulus_bits", &self.public.n.bit_len())
            .finish_non_exhaustive()
    }
}

impl RsaPublicKey {
    /// Constructs a public key from modulus `n` and exponent `e`.
    pub fn new(n: BigUint, e: BigUint) -> Self {
        RsaPublicKey { n, e }
    }

    /// Modulus size in bytes (k in PKCS#1 terms).
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Modulus size in bits.
    pub fn modulus_bits(&self) -> usize {
        self.n.bit_len()
    }

    /// The raw public modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// A stable fingerprint of the key (SHA-1 of `n || e`), used by the
    /// attestation verifier to identify AIKs.
    pub fn fingerprint(&self) -> [u8; SHA1_DIGEST_LEN] {
        let mut h = Sha1::new();
        h.update_bytes(&self.n.to_bytes_be());
        h.update_bytes(&self.e.to_bytes_be());
        h.finalize_fixed()
    }

    /// Serializes the key as length-prefixed `n` then `e` (big-endian) —
    /// the encoding AIK certificates embed.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_fields(&[&self.n, &self.e])
    }

    /// Deserializes a key written by [`RsaPublicKey::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidCiphertext`] for malformed or
    /// non-canonical input (truncated fields, trailing bytes, a field
    /// with a leading zero byte, or a zero modulus/exponent).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let [n, e] = decode_fields(bytes)?;
        Ok(RsaPublicKey { n, e })
    }

    /// Raw RSA public operation `m^e mod n`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::ValueOutOfRange`] if `m >= n`.
    fn raw_encrypt(&self, m: &BigUint) -> Result<BigUint, CryptoError> {
        if m >= &self.n {
            return Err(CryptoError::ValueOutOfRange);
        }
        Ok(m.modexp(&self.e, &self.n))
    }

    /// Verifies a PKCS#1-v1.5-style SHA-1 signature over `digest`.
    ///
    /// `digest` must be the 20-byte SHA-1 digest of the signed message.
    /// A key too small to hold the encoded digest verifies nothing, just
    /// as [`RsaPrivateKey::sign_pkcs1v15`] refuses to sign with one.
    pub fn verify_pkcs1v15(&self, digest: &[u8; SHA1_DIGEST_LEN], sig: &Signature) -> bool {
        let k = self.modulus_len();
        if k < MIN_PKCS1_V15_LEN || sig.0.len() != k {
            return false;
        }
        let s = BigUint::from_bytes_be(&sig.0);
        let em_int = match self.raw_encrypt(&s) {
            Ok(v) => v,
            Err(_) => return false,
        };
        let em = em_int.to_bytes_be_padded(k);
        em == emsa_pkcs1_v15_encode(digest, k)
    }

    /// Encrypts `plaintext` with OAEP-style padding under `label`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MessageTooLong`] if the plaintext exceeds
    /// `k - 2*hLen - 2` bytes for this key size.
    pub fn encrypt_oaep(
        &self,
        plaintext: &[u8],
        label: &OaepLabel,
        rng: &mut Drbg,
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        let h_len = SHA1_DIGEST_LEN;
        if k < 2 * h_len + 2 {
            return Err(CryptoError::InvalidKeySize {
                bits: self.modulus_bits(),
            });
        }
        let max = k - 2 * h_len - 2;
        if plaintext.len() > max {
            return Err(CryptoError::MessageTooLong {
                len: plaintext.len(),
                max,
            });
        }

        // EME-OAEP encoding: EM = 0x00 || maskedSeed || maskedDB
        let l_hash = Sha1::digest(&label.0);
        let mut db = vec![0u8; k - h_len - 1];
        db[..h_len].copy_from_slice(&l_hash);
        let msg_start = db.len() - plaintext.len();
        db[msg_start - 1] = 0x01;
        db[msg_start..].copy_from_slice(plaintext);

        let seed = rng.fill(h_len);
        let db_mask = mgf1::<Sha1>(&seed, db.len());
        for (b, m) in db.iter_mut().zip(&db_mask) {
            *b ^= m;
        }
        let seed_mask = mgf1::<Sha1>(&db, h_len);
        let masked_seed: Vec<u8> = seed.iter().zip(&seed_mask).map(|(s, m)| s ^ m).collect();

        let mut em = Vec::with_capacity(k);
        em.push(0x00);
        em.extend_from_slice(&masked_seed);
        em.extend_from_slice(&db);

        let m_int = BigUint::from_bytes_be(&em);
        let c = self.raw_encrypt(&m_int)?;
        Ok(c.to_bytes_be_padded(k))
    }
}

impl RsaPrivateKey {
    /// Generates a fresh keypair with an `bits`-bit modulus and public
    /// exponent 65537, drawing randomness from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeySize`] for `bits < 128` or odd
    /// sizes, and [`CryptoError::PrimeGenerationFailed`] if prime search
    /// does not converge (practically impossible).
    ///
    /// # Example
    ///
    /// ```
    /// use sea_crypto::{Drbg, RsaPrivateKey};
    ///
    /// # fn main() -> Result<(), sea_crypto::CryptoError> {
    /// let key = RsaPrivateKey::generate(512, &mut Drbg::new(b"seed"))?;
    /// assert_eq!(key.public_key().modulus_bits(), 512);
    /// # Ok(())
    /// # }
    /// ```
    pub fn generate(bits: usize, rng: &mut Drbg) -> Result<Self, CryptoError> {
        if bits < 128 || !bits.is_multiple_of(2) {
            return Err(CryptoError::InvalidKeySize { bits });
        }
        let e = BigUint::from_u64(65_537);
        let one = BigUint::one();
        loop {
            let p = generate_prime(bits / 2, rng)?;
            let q = generate_prime(bits / 2, rng)?;
            if p == q {
                continue;
            }
            let n = p.mul_ref(&q);
            debug_assert_eq!(n.bit_len(), bits);
            let phi = p
                .checked_sub(&one)
                .expect("a generated prime is above 1")
                .mul_ref(&q.checked_sub(&one).expect("a generated prime is above 1"));
            if !phi.gcd(&e).is_one() {
                continue;
            }
            let d = e.mod_inverse(&phi).expect("gcd checked above");
            let crt = CrtParams::derive(&d, p, q);
            debug_assert!(crt.is_some(), "distinct odd primes always derive");
            return Ok(RsaPrivateKey {
                public: RsaPublicKey { n, e },
                d,
                crt,
            });
        }
    }

    /// The public half of this keypair.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Serializes the key to bytes (length-prefixed `n`, `e`, `d`) —
    /// used to place keys in TPM sealed storage. The output contains the
    /// private exponent; treat it as secret.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode_fields(&[&self.public.n, &self.public.e, &self.d])
    }

    /// Deserializes a key written by [`RsaPrivateKey::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidCiphertext`] for malformed or
    /// non-canonical input (truncated fields, trailing bytes, a field
    /// with a leading zero byte, or a zero `n`, `e` or `d`).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let [n, e, d] = decode_fields(bytes)?;
        Ok(RsaPrivateKey {
            public: RsaPublicKey { n, e },
            d,
            crt: None,
        })
    }

    /// Whether this key carries CRT acceleration parameters.
    ///
    /// Generated keys always do; keys restored by
    /// [`RsaPrivateKey::from_bytes`] do not (the serialized form carries
    /// only `(n, e, d)`) until re-armed with [`RsaPrivateKey::with_crt`].
    pub fn has_crt(&self) -> bool {
        self.crt.is_some()
    }

    /// Attaches CRT acceleration parameters derived from the prime
    /// factors of the modulus.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::CrtParamsInvalid`] if `p * q != n` or the
    /// factors are degenerate (so a tampered factor can never silently
    /// corrupt future signatures).
    pub fn with_crt(mut self, p: BigUint, q: BigUint) -> Result<Self, CryptoError> {
        if p.mul_ref(&q) != self.public.n {
            return Err(CryptoError::CrtParamsInvalid);
        }
        let crt = CrtParams::derive(&self.d, p, q).ok_or(CryptoError::CrtParamsInvalid)?;
        self.crt = Some(crt);
        Ok(self)
    }

    /// Test hook: corrupts the stored CRT exponent `dp` in place, modeling
    /// a hardware fault in one exponentiation half. Used by the fault-path
    /// suites to prove the Bellcore check withholds the bad signature.
    #[doc(hidden)]
    pub fn with_faulted_crt(mut self) -> Self {
        if let Some(crt) = &mut self.crt {
            crt.dp = crt.dp.add_ref(&BigUint::one());
        }
        self
    }

    /// Runs the CRT private operation `c^d mod n` via Garner recombination
    /// and verifies the result against the public exponent before release.
    fn crt_private_op(&self, crt: &CrtParams, c: &BigUint) -> Result<BigUint, CryptoError> {
        let m1 = Montgomery::new(&crt.p).modexp(&c.rem_ref(&crt.p), &crt.dp);
        let m2 = Montgomery::new(&crt.q).modexp(&c.rem_ref(&crt.q), &crt.dq);
        // h = qinv * (m1 - m2) mod p, lifting m1 by p to avoid underflow.
        let m2p = m2.rem_ref(&crt.p);
        let diff = m1
            .add_ref(&crt.p)
            .checked_sub(&m2p)
            .expect("m2p < p <= m1 + p")
            .rem_ref(&crt.p);
        let h = crt.qinv.mul_ref(&diff).rem_ref(&crt.p);
        let s = m2.add_ref(&h.mul_ref(&crt.q));
        // Bellcore fault check: a fault in either half-exponentiation
        // would leak a factor of n if the bad signature were released, so
        // re-apply the public exponent and withhold on mismatch.
        if s.modexp(&self.public.e, &self.public.n) != *c {
            return Err(CryptoError::CrtFault);
        }
        Ok(s)
    }

    /// Raw RSA private operation `c^d mod n`, via CRT when the key carries
    /// factorization parameters (byte-identical to the full-size path).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::ValueOutOfRange`] if `c >= n`, and
    /// [`CryptoError::CrtFault`] if a CRT result fails the public-exponent
    /// consistency check.
    fn raw_decrypt(&self, c: &BigUint) -> Result<BigUint, CryptoError> {
        if c >= &self.public.n {
            return Err(CryptoError::ValueOutOfRange);
        }
        match &self.crt {
            Some(crt) => self.crt_private_op(crt, c),
            None => Ok(c.modexp(&self.d, &self.public.n)),
        }
    }

    /// Signs a 20-byte SHA-1 `digest` with PKCS#1-v1.5-style encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeySize`] if the modulus is too small
    /// to hold the encoded digest.
    pub fn sign_pkcs1v15(&self, digest: &[u8; SHA1_DIGEST_LEN]) -> Result<Signature, CryptoError> {
        let k = self.public.modulus_len();
        if k < MIN_PKCS1_V15_LEN {
            return Err(CryptoError::InvalidKeySize {
                bits: self.public.modulus_bits(),
            });
        }
        let em = emsa_pkcs1_v15_encode(digest, k);
        let m = BigUint::from_bytes_be(&em);
        let s = self.raw_decrypt(&m)?;
        Ok(Signature(s.to_bytes_be_padded(k)))
    }

    /// Decrypts an OAEP-style ciphertext produced by
    /// [`RsaPublicKey::encrypt_oaep`] under the same `label`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidCiphertext`] if the ciphertext has the
    /// wrong length, fails the OAEP integrity check, or was encrypted under
    /// a different label or key.
    pub fn decrypt_oaep(
        &self,
        ciphertext: &[u8],
        label: &OaepLabel,
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        let h_len = SHA1_DIGEST_LEN;
        if ciphertext.len() != k || k < 2 * h_len + 2 {
            return Err(CryptoError::InvalidCiphertext);
        }
        let c = BigUint::from_bytes_be(ciphertext);
        let m = self
            .raw_decrypt(&c)
            .map_err(|_| CryptoError::InvalidCiphertext)?;
        let em = m.to_bytes_be_padded(k);

        if em[0] != 0x00 {
            return Err(CryptoError::InvalidCiphertext);
        }
        let masked_seed = &em[1..1 + h_len];
        let masked_db = &em[1 + h_len..];

        let seed_mask = mgf1::<Sha1>(masked_db, h_len);
        let seed: Vec<u8> = masked_seed
            .iter()
            .zip(&seed_mask)
            .map(|(s, m)| s ^ m)
            .collect();
        let db_mask = mgf1::<Sha1>(&seed, masked_db.len());
        let db: Vec<u8> = masked_db.iter().zip(&db_mask).map(|(b, m)| b ^ m).collect();

        let l_hash = Sha1::digest(&label.0);
        if db[..h_len] != l_hash {
            return Err(CryptoError::InvalidCiphertext);
        }
        // Find the 0x01 separator after the padding zeros.
        let mut idx = h_len;
        while idx < db.len() && db[idx] == 0x00 {
            idx += 1;
        }
        if idx >= db.len() || db[idx] != 0x01 {
            return Err(CryptoError::InvalidCiphertext);
        }
        Ok(db[idx + 1..].to_vec())
    }
}

/// EMSA-PKCS1-v1_5 encoding of a SHA-1 digest into `k` bytes.
fn emsa_pkcs1_v15_encode(digest: &[u8; SHA1_DIGEST_LEN], k: usize) -> Vec<u8> {
    let t_len = SHA1_DIGEST_INFO_PREFIX.len() + SHA1_DIGEST_LEN;
    debug_assert!(k >= MIN_PKCS1_V15_LEN);
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xFF);
    em.push(0x00);
    em.extend_from_slice(&SHA1_DIGEST_INFO_PREFIX);
    em.extend_from_slice(digest);
    em
}

/// MGF1 mask generation (PKCS#1 §B.2.1) over digest `D`.
fn mgf1<D: Digest>(seed: &[u8], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut counter: u32 = 0;
    while out.len() < len {
        let mut h = D::new();
        h.update(seed);
        h.update(&counter.to_be_bytes());
        out.extend_from_slice(&h.finalize());
        counter += 1;
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_key() -> RsaPrivateKey {
        RsaPrivateKey::generate(512, &mut Drbg::new(b"rsa test key")).unwrap()
    }

    #[test]
    fn generate_rejects_bad_sizes() {
        let mut rng = Drbg::new(b"x");
        assert!(matches!(
            RsaPrivateKey::generate(64, &mut rng),
            Err(CryptoError::InvalidKeySize { bits: 64 })
        ));
        assert!(matches!(
            RsaPrivateKey::generate(513, &mut rng),
            Err(CryptoError::InvalidKeySize { bits: 513 })
        ));
    }

    #[test]
    fn raw_roundtrip() {
        let key = test_key();
        let m = BigUint::from_u64(0xdead_beef);
        let c = key.public_key().raw_encrypt(&m).unwrap();
        assert_ne!(c, m);
        assert_eq!(key.raw_decrypt(&c).unwrap(), m);
    }

    #[test]
    fn raw_rejects_oversized_operand() {
        let key = test_key();
        let too_big = key.public_key().modulus().clone();
        assert_eq!(
            key.public_key().raw_encrypt(&too_big),
            Err(CryptoError::ValueOutOfRange)
        );
        assert_eq!(key.raw_decrypt(&too_big), Err(CryptoError::ValueOutOfRange));
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        let digest = Sha1::digest(b"a PCR composite");
        let sig = key.sign_pkcs1v15(&digest).unwrap();
        assert!(key.public_key().verify_pkcs1v15(&digest, &sig));
    }

    #[test]
    fn verify_rejects_wrong_digest() {
        let key = test_key();
        let sig = key.sign_pkcs1v15(&Sha1::digest(b"message")).unwrap();
        assert!(!key
            .public_key()
            .verify_pkcs1v15(&Sha1::digest(b"other"), &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let key = test_key();
        let digest = Sha1::digest(b"message");
        let mut sig = key.sign_pkcs1v15(&digest).unwrap();
        sig.0[10] ^= 0x01;
        assert!(!key.public_key().verify_pkcs1v15(&digest, &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let key = test_key();
        let other = RsaPrivateKey::generate(512, &mut Drbg::new(b"other key")).unwrap();
        let digest = Sha1::digest(b"message");
        let sig = key.sign_pkcs1v15(&digest).unwrap();
        assert!(!other.public_key().verify_pkcs1v15(&digest, &sig));
    }

    #[test]
    fn verify_rejects_wrong_length_signature() {
        let key = test_key();
        let digest = Sha1::digest(b"message");
        let sig = key.sign_pkcs1v15(&digest).unwrap();
        let short = Signature(sig.0[1..].to_vec());
        assert!(!key.public_key().verify_pkcs1v15(&digest, &short));
    }

    #[test]
    fn oaep_roundtrip() {
        let key = test_key();
        let mut rng = Drbg::new(b"oaep rng");
        let label = OaepLabel(b"SEAL".to_vec());
        let pt = b"secret PAL state";
        let ct = key.public_key().encrypt_oaep(pt, &label, &mut rng).unwrap();
        assert_eq!(key.decrypt_oaep(&ct, &label).unwrap(), pt);
    }

    #[test]
    fn oaep_roundtrip_empty_plaintext() {
        let key = test_key();
        let mut rng = Drbg::new(b"oaep rng");
        let label = OaepLabel::default();
        let ct = key
            .public_key()
            .encrypt_oaep(b"", &label, &mut rng)
            .unwrap();
        assert_eq!(key.decrypt_oaep(&ct, &label).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn oaep_is_randomized() {
        let key = test_key();
        let mut rng = Drbg::new(b"oaep rng");
        let label = OaepLabel::default();
        let c1 = key
            .public_key()
            .encrypt_oaep(b"m", &label, &mut rng)
            .unwrap();
        let c2 = key
            .public_key()
            .encrypt_oaep(b"m", &label, &mut rng)
            .unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn oaep_rejects_wrong_label() {
        let key = test_key();
        let mut rng = Drbg::new(b"oaep rng");
        let ct = key
            .public_key()
            .encrypt_oaep(b"m", &OaepLabel(b"SEAL".to_vec()), &mut rng)
            .unwrap();
        assert_eq!(
            key.decrypt_oaep(&ct, &OaepLabel(b"QUOTE".to_vec())),
            Err(CryptoError::InvalidCiphertext)
        );
    }

    #[test]
    fn oaep_rejects_tampered_ciphertext() {
        let key = test_key();
        let mut rng = Drbg::new(b"oaep rng");
        let label = OaepLabel::default();
        let mut ct = key
            .public_key()
            .encrypt_oaep(b"m", &label, &mut rng)
            .unwrap();
        let last = ct.len() - 1;
        ct[last] ^= 1;
        assert_eq!(
            key.decrypt_oaep(&ct, &label),
            Err(CryptoError::InvalidCiphertext)
        );
    }

    #[test]
    fn oaep_rejects_message_too_long() {
        let key = test_key();
        let mut rng = Drbg::new(b"oaep rng");
        let k = key.public_key().modulus_len();
        let max = k - 2 * SHA1_DIGEST_LEN - 2;
        let too_long = vec![0u8; max + 1];
        assert!(matches!(
            key.public_key()
                .encrypt_oaep(&too_long, &OaepLabel::default(), &mut rng),
            Err(CryptoError::MessageTooLong { .. })
        ));
        // Boundary: exactly max bytes must succeed.
        let fits = vec![0u8; max];
        assert!(key
            .public_key()
            .encrypt_oaep(&fits, &OaepLabel::default(), &mut rng)
            .is_ok());
    }

    #[test]
    fn oaep_rejects_wrong_length_ciphertext() {
        let key = test_key();
        assert_eq!(
            key.decrypt_oaep(b"short", &OaepLabel::default()),
            Err(CryptoError::InvalidCiphertext)
        );
    }

    #[test]
    fn fingerprint_is_stable_and_key_specific() {
        let key = test_key();
        assert_eq!(
            key.public_key().fingerprint(),
            key.public_key().fingerprint()
        );
        let other = RsaPrivateKey::generate(512, &mut Drbg::new(b"other")).unwrap();
        assert_ne!(
            key.public_key().fingerprint(),
            other.public_key().fingerprint()
        );
    }

    #[test]
    fn debug_hides_private_exponent() {
        let key = test_key();
        let s = format!("{key:?}");
        assert!(s.contains("modulus_bits"));
        assert!(!s.contains(&format!("{:x}", key.d)));
    }

    #[test]
    fn key_serialization_roundtrip() {
        let key = test_key();
        let bytes = key.to_bytes();
        let back = RsaPrivateKey::from_bytes(&bytes).unwrap();
        assert_eq!(back.public_key(), key.public_key());
        // The restored key signs interchangeably with the original.
        let digest = Sha1::digest(b"payload");
        let sig = back.sign_pkcs1v15(&digest).unwrap();
        assert!(key.public_key().verify_pkcs1v15(&digest, &sig));
    }

    #[test]
    fn key_deserialization_rejects_garbage() {
        assert!(RsaPrivateKey::from_bytes(b"").is_err());
        assert!(RsaPrivateKey::from_bytes(&[0xff; 3]).is_err());
        assert!(RsaPrivateKey::from_bytes(&[0, 0, 0, 200, 1]).is_err());
        // All-zero parts rejected.
        let mut zeros = Vec::new();
        for _ in 0..3 {
            zeros.extend_from_slice(&1u32.to_be_bytes());
            zeros.push(0);
        }
        assert!(RsaPrivateKey::from_bytes(&zeros).is_err());
        // One trailing byte after a well-formed key.
        let mut trailing = test_key().to_bytes();
        trailing.push(0);
        assert!(RsaPrivateKey::from_bytes(&trailing).is_err());
        // A leading zero byte on n, e or d writes the same key
        // non-canonically; both key types refuse it.
        let key = test_key();
        let fields = [
            key.public.n.to_bytes_be(),
            key.public.e.to_bytes_be(),
            key.d.to_bytes_be(),
        ];
        let encode = |parts: &[Vec<u8>]| {
            let mut out = Vec::new();
            for part in parts {
                out.extend_from_slice(&(part.len() as u32).to_be_bytes());
                out.extend_from_slice(part);
            }
            out
        };
        assert_eq!(encode(&fields), key.to_bytes());
        assert_eq!(encode(&fields[..2]), key.public_key().to_bytes());
        for i in 0..3 {
            let mut parts = fields.clone();
            parts[i].insert(0, 0);
            assert_eq!(
                RsaPrivateKey::from_bytes(&encode(&parts)).unwrap_err(),
                CryptoError::InvalidCiphertext
            );
            if i < 2 {
                assert_eq!(
                    RsaPublicKey::from_bytes(&encode(&parts[..2])).unwrap_err(),
                    CryptoError::InvalidCiphertext
                );
            }
        }
    }

    #[test]
    fn generated_keys_carry_crt_and_restored_keys_do_not() {
        let key = test_key();
        assert!(key.has_crt());
        let restored = RsaPrivateKey::from_bytes(&key.to_bytes()).unwrap();
        assert!(!restored.has_crt());
    }

    #[test]
    fn crt_signature_matches_full_exponentiation() {
        let key = test_key();
        // The serialized form drops the factors, so the restored key runs
        // the classic full-size path — a differential oracle for CRT.
        let classic = RsaPrivateKey::from_bytes(&key.to_bytes()).unwrap();
        for msg in [b"quote".as_slice(), b"", b"composite pcr state"] {
            let digest = Sha1::digest(msg);
            assert_eq!(
                key.sign_pkcs1v15(&digest).unwrap(),
                classic.sign_pkcs1v15(&digest).unwrap()
            );
        }
    }

    #[test]
    fn crt_decrypt_matches_full_exponentiation() {
        let key = test_key();
        let classic = RsaPrivateKey::from_bytes(&key.to_bytes()).unwrap();
        let c = BigUint::from_u64(0x0fee_d5ea_0000_0001);
        assert_eq!(
            key.raw_decrypt(&c).unwrap(),
            classic.raw_decrypt(&c).unwrap()
        );
    }

    #[test]
    fn with_crt_rearms_a_restored_key() {
        let key = test_key();
        let crt = key.crt.clone().unwrap();
        let rearmed = RsaPrivateKey::from_bytes(&key.to_bytes())
            .unwrap()
            .with_crt(crt.p, crt.q)
            .unwrap();
        assert!(rearmed.has_crt());
        let digest = Sha1::digest(b"rearmed");
        assert_eq!(
            rearmed.sign_pkcs1v15(&digest).unwrap(),
            key.sign_pkcs1v15(&digest).unwrap()
        );
    }

    #[test]
    fn with_crt_rejects_tampered_factors() {
        let key = test_key();
        let crt = key.crt.clone().unwrap();
        let two = BigUint::from_u64(2);
        // p+2 no longer multiplies to n.
        let bad_p = crt.p.add_ref(&two);
        let stripped = RsaPrivateKey::from_bytes(&key.to_bytes()).unwrap();
        assert_eq!(
            stripped.clone().with_crt(bad_p, crt.q.clone()).err(),
            Some(CryptoError::CrtParamsInvalid)
        );
        // Degenerate split 1 * n == n is rejected too.
        assert_eq!(
            stripped
                .with_crt(BigUint::one(), key.public_key().modulus().clone())
                .err(),
            Some(CryptoError::CrtParamsInvalid)
        );
    }

    #[test]
    fn faulted_crt_half_is_detected_not_released() {
        let key = test_key().with_faulted_crt();
        let digest = Sha1::digest(b"faulted");
        assert_eq!(
            key.sign_pkcs1v15(&digest).err(),
            Some(CryptoError::CrtFault)
        );
    }

    #[test]
    fn keys_signatures_and_oaep_known_answer() {
        // Generated keys, CRT and restored-key (full-`d`) signatures, and
        // OAEP ciphertexts under a fixed DRBG, each folded into a SHA-1
        // recorded from the bit-at-a-time square-and-multiply kernel.
        let mut keys = Sha1::new();
        let mut sigs = Sha1::new();
        let mut cts = Sha1::new();
        let fold = |h: &mut Sha1, bytes: &[u8]| {
            h.update_bytes(&(bytes.len() as u32).to_be_bytes());
            h.update_bytes(bytes);
        };
        for (bits, seed) in [
            (512, b"known answer 512".as_slice()),
            (1024, b"known answer 1024"),
        ] {
            let key = RsaPrivateKey::generate(bits, &mut Drbg::new(seed)).unwrap();
            fold(&mut keys, &key.to_bytes());
            let restored = RsaPrivateKey::from_bytes(&key.to_bytes()).unwrap();
            for msg in [b"".as_slice(), b"quote", b"composite pcr state"] {
                let digest = Sha1::digest(msg);
                let sig = key.sign_pkcs1v15(&digest).unwrap();
                assert_eq!(restored.sign_pkcs1v15(&digest).unwrap(), sig);
                fold(&mut sigs, &sig.0);
            }
            let mut rng = Drbg::new(b"known answer oaep");
            let label = OaepLabel(b"SEAL".to_vec());
            for pt in [b"".as_slice(), b"secret PAL state"] {
                let ct = key.public_key().encrypt_oaep(pt, &label, &mut rng).unwrap();
                assert_eq!(key.decrypt_oaep(&ct, &label).unwrap(), pt);
                assert_eq!(restored.decrypt_oaep(&ct, &label).unwrap(), pt);
                fold(&mut cts, &ct);
            }
        }
        let hex = |h: Sha1| crate::to_hex(&h.finalize_fixed());
        assert_eq!(hex(keys), "20595f1c97eee0d654284d9dee5c7e8e1fb72862");
        assert_eq!(hex(sigs), "c2352255511896eaf72519e867fd0f97de30acbb");
        assert_eq!(hex(cts), "e583bf6c15918fccef9121fd76fe2d8ea2c2286f");
    }

    #[test]
    fn mgf1_deterministic_and_length_exact() {
        let a = mgf1::<Sha1>(b"seed", 45);
        let b = mgf1::<Sha1>(b"seed", 45);
        assert_eq!(a, b);
        assert_eq!(a.len(), 45);
        assert_ne!(mgf1::<Sha1>(b"seed2", 45), a);
    }
}
