//! # sea-tpm
//!
//! A functional Trusted Platform Module (v1.2-style) for the minimal-TCB
//! reproduction of McCune et al., *"How Low Can You Go?"* (ASPLOS 2008).
//!
//! The paper identifies the TPM as the dominant performance bottleneck of
//! minimal-TCB execution on 2007 hardware: `Seal`/`Unseal`/`Quote` are
//! 2048-bit RSA operations on a low-cost chip (Figure 3), and the TPM's
//! LPC wait states stretch `SKINIT` to ~177 ms for a 64 KB PAL (Table 1).
//! This crate models both the *function* and the *cost*:
//!
//! * [`Tpm`] — PCR bank with static/dynamic PCRs and v1.2 reset semantics,
//!   [`Tpm::seal`]/[`Tpm::unseal`] (hybrid RSA-OAEP + stream encryption
//!   bound to a PCR composite), [`Tpm::quote`] (AIK signature over the
//!   composite and a nonce), [`Tpm::get_random`], and the
//!   `TPM_HASH_START/DATA/END` interface `SKINIT` drives.
//! * [`TpmTimingModel`] — per-vendor command latencies calibrated to
//!   Figure 3 (Broadcom, Infineon, two Atmels) with the measured
//!   long-wait hash rates of Table 1.
//! * [`SePcrBank`] — the paper's *proposed* secure-execution PCRs (§5.4)
//!   with the Free → Exclusive → Quote → Free life cycle, owner
//!   enforcement, `SKILL` constant-extension, and sePCR-bound
//!   seal/unseal/quote.
//! * [`ShardedTpmArbiter`] — the proposed hardware arbitration for
//!   multi-CPU TPM access (§5.4.5) as a virtual-time gate with one
//!   request line per CPU, which grants in `(request time, CPU id)`
//!   order and is the TPM gate of the discrete-event executor.
//!
//! Every command returns a [`Timed`] result carrying the virtual-time
//! cost, which callers add to their [`sea_hw::SimClock`].
//!
//! # Example
//!
//! ```
//! use sea_tpm::{KeyStrength, PcrIndex, Tpm};
//! use sea_hw::TpmKind;
//!
//! # fn main() -> Result<(), sea_tpm::TpmError> {
//! let mut tpm = Tpm::new(TpmKind::Broadcom, KeyStrength::Demo512, b"seed");
//! let m = sea_crypto::Sha1::digest(b"my PAL");
//! tpm.extend(PcrIndex(17), &m)?;
//! let blob = tpm.seal(b"secret", &[PcrIndex(17)])?.value;
//! let out = tpm.unseal(&blob)?.value;
//! assert_eq!(out, b"secret");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boot;
mod error;
mod lock;
mod nvram;
mod pcr;
mod quote;
mod seal;
mod sepcr;
mod sepcr_set;
mod timing;
mod tpm;
mod transport;

pub use boot::{BootEvent, EventLog, SecureBootOutcome, SecureBootPolicy};
pub use error::TpmError;
pub use lock::{ShardedTpmArbiter, TpmGrant};
pub use nvram::Nvram;
pub use pcr::{PcrBank, PcrIndex, PcrValue, DYNAMIC_PCR_FIRST, DYNAMIC_PCR_LAST, NUM_PCRS};
pub use quote::{Quote, QuoteSource, WIRE_QUOTE_MAGIC, WIRE_QUOTE_VERSION};
pub use seal::SealedBlob;
pub use sepcr::{SePcrBank, SePcrHandle, SePcrState, SKILL_CONSTANT};
pub use sepcr_set::{SePcrSetBank, SePcrSetHandle};
pub use timing::{TpmOp, TpmTimingModel};
pub use tpm::{KeyStrength, Locality, Timed, Tpm};
pub use transport::{establish as establish_transport, SealedMessage, TransportEndpoint};
