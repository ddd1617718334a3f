//! # sea-crypto
//!
//! From-scratch cryptographic substrate for the minimal-TCB reproduction of
//! McCune et al., *"How Low Can You Go? Recommendations for
//! Hardware-Supported Minimal TCB Code Execution"* (ASPLOS 2008).
//!
//! The TPM is part of the system under study in that paper: its `Seal`,
//! `Unseal` and `Quote` commands are 2048-bit RSA operations, and its PCRs
//! are SHA-1 hash chains ([RFC 3174], cited as reference \[12\] in the
//! paper). To reproduce the system faithfully, this crate implements the
//! whole stack with no external cryptography crates:
//!
//! * [`Sha1`] — the hash the TPM v1.2 specification uses for PCR extension
//!   and PAL measurement.
//! * [`Sha256`] — used by the sealed-storage key-derivation path.
//! * [`Hmac`] — generic MAC over any [`Digest`], used for sealed-blob
//!   integrity and the deterministic random-bit generator.
//! * [`BigUint`] — arbitrary-precision unsigned integers with Montgomery
//!   modular exponentiation, powering RSA.
//! * [`RsaPrivateKey`] / [`RsaPublicKey`] — key generation (Miller–Rabin),
//!   PKCS#1-v1.5-style signatures (TPM `Quote`) and OAEP-style encryption
//!   (TPM `Seal`/`Unseal`).
//! * [`Drbg`] — a deterministic HMAC-DRBG used as the TPM's random number
//!   generator (`TPM_GetRandom`) and for reproducible key generation.
//!
//! # Example
//!
//! ```
//! use sea_crypto::{Drbg, RsaPrivateKey, Sha1};
//!
//! # fn main() -> Result<(), sea_crypto::CryptoError> {
//! let mut rng = Drbg::new(b"example seed");
//! let key = RsaPrivateKey::generate(512, &mut rng)?;
//! let digest = Sha1::digest(b"a PAL measurement");
//! let sig = key.sign_pkcs1v15(&digest)?;
//! assert!(key.public_key().verify_pkcs1v15(&digest, &sig));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod bignum;
mod digest;
mod drbg;
mod error;
mod hex;
mod hmac;
mod prime;
mod rsa;
mod sha1;
mod sha256;

pub use bignum::BigUint;
pub use digest::Digest;
pub use drbg::Drbg;
pub use error::CryptoError;
pub use hex::to_hex;
pub use hmac::Hmac;
pub use rsa::{OaepLabel, RsaPrivateKey, RsaPublicKey, Signature};
pub use sha1::{Sha1, SHA1_DIGEST_LEN};
pub use sha256::{Sha256, SHA256_DIGEST_LEN};

/// Convenience alias for 20-byte SHA-1 digests, the measurement unit of the
/// TPM v1.2 specification used throughout the paper.
pub type Sha1Digest = [u8; SHA1_DIGEST_LEN];
