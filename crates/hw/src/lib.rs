//! # sea-hw
//!
//! Hardware substrate for the minimal-TCB reproduction of McCune et al.,
//! *"How Low Can You Go?"* (ASPLOS 2008).
//!
//! The paper's minimal TCB is "the CPU, the memory, and the interface
//! between them" (the north bridge / memory controller), plus the TPM for
//! practical reasons (Figure 1). This crate models exactly those
//! components, plus the LPC bus that connects the TPM, with a deterministic
//! *virtual-time* cost model calibrated to the paper's measurements:
//!
//! * [`SimClock`] / [`SimTime`] / [`SimDuration`] — nanosecond-resolution
//!   virtual time. Nothing in the simulator consults wall-clock time.
//! * [`Memory`] — page-granular physical memory.
//! * [`MemoryController`] — both the *baseline* DMA protection (AMD's
//!   Device Exclusion Vector / Intel's Memory Protection Table, §2.2) and
//!   the paper's *proposed* per-page × per-CPU access-control table with
//!   the `ALL → CPUᵢ → NONE` state machine of Figure 5(b).
//! * [`Cpu`] — per-core state including the proposed PAL preemption timer,
//!   with VM-entry/exit microcosts (Table 2).
//! * [`LpcBus`] — the low-pin-count bus (16.67 MB/s peak) whose long wait
//!   cycles dominate `SKINIT` latency (Table 1).
//! * [`Platform`] — presets for the machines whose late launch the paper
//!   measures (HP dc5750, Tyan n3600R, Intel TEP) and for the paper's
//!   *recommended* hardware.
//! * [`Machine`] — the assembled platform with checked memory access paths
//!   for CPUs and DMA devices.
//!
//! # Example
//!
//! ```
//! use sea_hw::{Machine, Platform, CpuId, Requester, PhysAddr};
//!
//! let mut machine = Machine::new(Platform::hp_dc5750());
//! let cpu0 = Requester::Cpu(CpuId(0));
//! machine
//!     .write(cpu0, PhysAddr(0x1000), b"hello")
//!     .expect("unprotected memory is writable by any CPU");
//! let data = machine.read(cpu0, PhysAddr(0x1000), 5).unwrap();
//! assert_eq!(data, b"hello");
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod controller;
mod cpu;
mod error;
mod event;
mod fault;
mod lpc;
mod machine;
mod memory;
mod net;
mod obs;
mod platform;
mod reset;
mod time;
mod trace;
mod types;

pub use controller::{MemoryController, PageAccess};
pub use cpu::{Cpu, CpuExecState};
pub use error::HwError;
pub use event::{Event, EventQueue};
pub use fault::{FaultKind, FaultPlan, RATE_DENOM, TRANSPORT_FAULT_COST};
pub use lpc::LpcBus;
pub use machine::{Device, Machine, MachineBuilder};
pub use memory::Memory;
pub use net::NetPlan;
pub use obs::{
    check_well_nested, Layer, LayerHistogram, LockStats, Obs, ObsSnapshot, RecordingSink, Sink,
    SpanKind, SpanRecord, HISTOGRAM_BUCKETS, PLATFORM_TRACK,
};
pub use platform::{CpuVendor, LateLaunchModel, Platform, TpmKind, VirtTiming};
pub use reset::{ResetPlan, RESET_REBOOT_COST};
pub use time::{SimClock, SimDuration, SimTime};
pub use trace::{Trace, TraceEvent};
pub use types::{
    AccessKind, CpuId, CpuMask, DeviceId, PageIndex, PageRange, PhysAddr, Requester, MAX_CPUS,
    PAGE_SIZE,
};
