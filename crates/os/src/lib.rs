//! # sea-os
//!
//! The *untrusted* operating system of the minimal-TCB reproduction of
//! McCune et al., *"How Low Can You Go?"* (ASPLOS 2008).
//!
//! §5's requirement: "the untrusted OS retain\[s\] the role of the
//! resource manager". This crate plays that role:
//!
//! * [`Scheduler`] — multiprograms PALs and legacy work across CPUs on
//!   the proposed hardware, and [`LegacyBatch`] — the baseline
//!   whole-platform-stall execution — together reproducing the paper's
//!   concurrency argument (§4.2/§4.4 vs §5.7). Neither recovers from
//!   faults: [`sea_core::SessionEngine`] is the one session driver that
//!   retries, degrades and kills sessions (under
//!   [`sea_core::BatchPolicy::with_retry`]).
//! * [`Adversary`] — the threat model's ring-0 attacker (§3.2): reads and
//!   writes PAL memory, mounts DMA attacks from peripherals, forges
//!   measurements, and replays launches; every attack returns whether
//!   the hardware let it through.
//!
//! PAL placement is not this crate's job: `SLAUNCH` and the legacy
//! fallback place PAL regions with [`sea_core::EnhancedSea`]'s own
//! region allocator, which reuses the regions released PALs leave
//! behind — the "discontiguous physical memory" §5.2.2 says the OS must
//! cope with.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod dispatch;
mod error;
mod scheduler;
mod workload;

pub use adversary::{Adversary, AttackOutcome};
pub use dispatch::{DispatchPolicy, Dispatcher};
pub use error::OsError;
pub use scheduler::{LegacyBatch, ScheduleOutcome, Scheduler};
pub use workload::{simulate_service, ArrivalTrace, ResponseStats};
