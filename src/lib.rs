//! # minimal-tcb
//!
//! A comprehensive Rust reproduction of McCune, Parno, Perrig, Reiter,
//! and Seshadri, *"How Low Can You Go? Recommendations for
//! Hardware-Supported Minimal TCB Code Execution"* (ASPLOS 2008).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`crypto`] — from-scratch SHA-1/SHA-256/HMAC/bignum/RSA/DRBG (the
//!   TPM's cryptography is part of the system under study).
//! * [`hw`] — virtual-time hardware: CPUs, memory, the north-bridge
//!   memory controller (baseline DEV plus the paper's proposed per-page
//!   × per-CPU access-control table), LPC bus, and platform presets for
//!   every machine the paper measures.
//! * [`tpm`] — a functional TPM v1.2 with calibrated per-vendor timing
//!   (Figure 3 / Table 1) and the proposed sePCR extension (§5.4).
//! * [`core`] — the Secure Execution Architecture itself:
//!   [`core::LegacySea`] (today's hardware: SKINIT + TPM sealing),
//!   [`core::EnhancedSea`] (proposed: SLAUNCH/SECB/SYIELD/SFREE/SKILL),
//!   and the external [`core::Verifier`].
//! * [`os`] — the untrusted OS: PAL scheduler, baseline batch, and the
//!   threat model's ring-0 [`os::Adversary`].
//! * [`pals`] — the paper's four applications: rootkit detector,
//!   distributed factoring, certificate authority, SSH passwords.
//! * [`fleet`] — fleet-scale attestation: sharded simulated platforms
//!   behind a deterministic dispatcher, checked by a standalone remote
//!   verifier service (certificate walks, nonce freshness, TCB-status
//!   policy).
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system
//! inventory, and `EXPERIMENTS.md` for the paper-vs-measured record of
//! every table and figure. Runnable demos live in `examples/`.
//!
//! # Example
//!
//! ```
//! use minimal_tcb::core::{EnhancedSea, FnPal, PalOutcome, SecurePlatform};
//! use minimal_tcb::hw::{CpuId, Platform};
//! use minimal_tcb::tpm::KeyStrength;
//!
//! # fn main() -> Result<(), minimal_tcb::core::SeaError> {
//! let platform = SecurePlatform::new(Platform::recommended(2), KeyStrength::Demo512, b"hi");
//! let mut sea = EnhancedSea::new(platform)?;
//! let mut pal = FnPal::new("hi", |_| Ok(PalOutcome::Exit(b"minimal TCB".to_vec())));
//! let id = sea.slaunch(&mut pal, b"", CpuId(0), None)?;
//! let done = sea.run_to_exit(&mut pal, id, CpuId(0))?;
//! assert_eq!(done.output, b"minimal TCB");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use sea_core as core;
pub use sea_crypto as crypto;
pub use sea_fleet as fleet;
pub use sea_hw as hw;
pub use sea_os as os;
pub use sea_pals as pals;
pub use sea_tpm as tpm;
