//! # sea-os
//!
//! The *untrusted* operating system of the minimal-TCB reproduction of
//! McCune et al., *"How Low Can You Go?"* (ASPLOS 2008).
//!
//! §5's requirement: "the untrusted OS retain\[s\] the role of the
//! resource manager". This crate plays that role:
//!
//! * [`PageAllocator`] — allocates physical pages to PALs and copes with
//!   the discontiguous memory that PAL protection creates ("supporting
//!   the execution of PALs requires the OS to cope with discontiguous
//!   physical memory", §5.2.2).
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
//! # Example
//!
//! ```
//! use sea_os::PageAllocator;
//! use sea_hw::{PageIndex, PageRange};
//!
//! let mut alloc = PageAllocator::new(PageRange::new(PageIndex(64), 64));
//! let a = alloc.alloc(10).unwrap();
//! let b = alloc.alloc(10).unwrap();
//! assert!(!a.overlaps(&b));
//! alloc.free(a).unwrap();
//! assert_eq!(alloc.free_pages(), 54);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod alloc;
mod dispatch;
mod error;
mod scheduler;
mod workload;

pub use adversary::{Adversary, AttackOutcome};
pub use alloc::PageAllocator;
pub use dispatch::{DispatchPolicy, Dispatcher};
pub use error::OsError;
pub use scheduler::{LegacyBatch, ScheduleOutcome, Scheduler};
pub use workload::{simulate_service, ArrivalTrace, ResponseStats};
