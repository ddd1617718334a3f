//! # sea-bench
//!
//! The experiment harness: one function per table/figure of McCune et
//! al., *"How Low Can You Go?"* (ASPLOS 2008), each returning structured
//! data that (a) the `src/bin/*` binaries print as paper-style tables
//! and (b) the unit tests assert reproduces the paper's *shape* — who is
//! fastest/slowest, linear scaling, crossovers, orders of magnitude.
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 — SKINIT/SENTER latency vs PAL size |
//! | `table2` | Table 2 — VM entry/exit |
//! | `figure2` | Figure 2 — PAL Gen / PAL Use / Quote breakdown |
//! | `figure3` | Figure 3 — TPM microbenchmarks across four chips |
//! | `impact` | §5.7 — context-switch cost, baseline vs proposed |
//! | `concurrency` | §4.2/§4.4 vs §5 — platform throughput under PAL load |
//! | `ablation_fast_tpm` | §5.7 alternative — just speed the TPM/bus up |
//! | `ablation_hash_placement` | §4.3.2 — hash-on-TPM vs hash-on-CPU |
//! | `ablation_sepcr` | §5.4 — concurrency limit vs sePCR count |
//! | `fault_sweep` | recovery layer — goodput vs injected fault rate |
//! | `crash_sweep` | durable engine — goodput vs injected power-loss rate |
//! | `scale` | discrete-event executor — durable batches on up to 1024 virtual CPUs |
//! | `fleet` | fleet-scale attestation — goodput and latency percentiles vs fleet size |

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod driver;
pub mod experiments;
pub mod format;
mod json;
mod metrics;
mod stats;
pub mod timing;

pub use experiments::*;
