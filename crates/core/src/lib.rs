//! # sea-core
//!
//! The Secure Execution Architecture (SEA) of McCune et al., *"How Low
//! Can You Go? Recommendations for Hardware-Supported Minimal TCB Code
//! Execution"* (ASPLOS 2008) — the paper's primary contribution,
//! implemented over the `sea-hw` and `sea-tpm` substrates.
//!
//! SEA executes a *Piece of Application Logic* (PAL) while trusting only
//! the CPU, memory, memory controller, and TPM. This crate provides both
//! generations of the architecture the paper analyzes:
//!
//! * [`LegacySea`] — SEA on **today's** (2007) hardware: suspend the
//!   untrusted OS, `SKINIT`/`SENTER` the PAL, protect cross-invocation
//!   state with `TPM_Seal`/`TPM_Unseal`, resume the OS. This is the
//!   system whose overheads Figure 2 and Table 1 measure: ~200 ms for a
//!   state-generating PAL and >1 s for a state-using PAL, with every
//!   other CPU forcibly idled.
//! * [`EnhancedSea`] — SEA on the paper's **recommended** hardware (§5):
//!   `SLAUNCH` launches a PAL described by a [`Secb`], the memory
//!   controller's access-control table isolates its pages, `SYIELD` and
//!   the preemption timer context-switch it at VM-entry cost (~0.6 µs,
//!   §5.7 — six orders of magnitude cheaper), sePCRs give every
//!   concurrent PAL its own measurement chain, and `SFREE`/`SKILL`
//!   retire it.
//! * [`Verifier`] — the external relying party: checks AIK signatures,
//!   replays expected measurement chains, and distinguishes genuine late
//!   launches from reboots, `SKILL`ed PALs, and impostors.
//!
//! # Example
//!
//! ```
//! use sea_core::{EnhancedSea, FnPal, PalLogic, PalOutcome, SecurePlatform, Verifier};
//! use sea_hw::{CpuId, Platform, SimDuration};
//! use sea_tpm::KeyStrength;
//!
//! # fn main() -> Result<(), sea_core::SeaError> {
//! let platform = SecurePlatform::new(Platform::recommended(2), KeyStrength::Demo512, b"demo");
//! let mut sea = EnhancedSea::new(platform)?;
//!
//! let mut pal = FnPal::new("hello-pal", |ctx| {
//!     ctx.work(SimDuration::from_us(50));
//!     Ok(PalOutcome::Exit(b"hello from the TCB".to_vec()))
//! });
//!
//! let id = sea.slaunch(&mut pal, b"", CpuId(0), None)?;
//! let done = sea.run_to_exit(&mut pal, id, CpuId(0))?;
//! assert_eq!(done.output, b"hello from the TCB");
//!
//! // Untrusted code produces the attestation; an external verifier
//! // accepts it.
//! let quote = sea.quote_and_free(id, b"nonce")?;
//! let verifier = Verifier::new(sea.platform().tpm().unwrap().aik_public().clone());
//! assert!(verifier
//!     .verify_sepcr_quote(&quote.value, b"nonce", &pal.image(), &[])
//!     .is_ok());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod attest;
mod des;
mod driver;
pub mod engine;
mod enhanced;
mod error;
mod journal;
mod legacy;
pub mod locks;
mod pal;
mod pioneer;
mod platform;
mod protocol;
mod recovery;
mod report;
mod secb;
mod threadpool;
pub mod vm;

pub use attest::{TrustPolicy, Verifier, VerifyError};
pub use engine::{
    Architecture, BatchOutcome, BatchPolicy, ConcurrentJob, Executor, JobResult, Session,
    SessionEngine, SessionResult, SessionTally, Slaunch, Stepped, JOURNAL_NV_INDEX,
};
pub use enhanced::{EnhancedSea, PalDone, PalId, PalStep};
pub use error::SeaError;
pub use journal::{JournalEntry, SessionJournal};
pub use legacy::{LegacySea, LegacySessionResult};
pub use locks::{Held, LockRank, OrderedLock};
pub use pal::{FnPal, PalCtx, PalLogic, PalOutcome};
pub use pioneer::{
    checksum as pioneer_checksum, forged_duration, honest_duration, PioneerChallenge,
    PioneerResponse, PioneerVerdict, PioneerVerifier, ATTACKER_SLOWDOWN,
};
pub use platform::{LateLaunch, SecurePlatform};
pub use protocol::{AttestationService, Challenge, ProtocolError};
pub use recovery::RetryPolicy;
pub use report::SessionReport;
pub use secb::{InterruptPolicy, PalLifecycle, Secb};
pub use vm::{Insn, Program, VmPal, VmStats};
