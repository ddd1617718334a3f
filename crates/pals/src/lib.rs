//! # sea-pals
//!
//! The four SEA applications of §4.1 of McCune et al., *"How Low Can You
//! Go?"* (ASPLOS 2008), implemented as PALs over the `sea-core` API:
//!
//! > "We implemented a kernel rootkit detector and a distributed
//! > factoring program that use our architecture to provide isolation
//! > and integrity protection. We also use the architecture to protect
//! > the confidentiality of a certificate authority's private signing
//! > key, and to secure an SSH server's password handling routines."
//!
//! Each application is a program for the measured PAL VM
//! ([`sea_core::VmPal`]), built by the constructors in [`vm`]; its
//! attested identity is the hash of the serialized bytecode the
//! interpreter executes. [`vm::vm_rootkit`] hashes a kernel-text snapshot
//! against a whitelist baked into its data segment, [`vm::vm_factoring`]
//! is the resumable trial-division worker (the paper's SETI@Home
//! analogy), [`vm::vm_ca`] generates and wields an RSA signing key
//! entirely inside the TCB, and [`vm::vm_ssh`] checks login attempts
//! against a sealed salted digest. The crate root holds each
//! application's wire protocol: the request encodings the untrusted
//! caller sends ([`CaRequest`], [`SshRequest`]) and the decoders for the
//! outputs ([`decode_public_key`], [`decode_factors`], [`RootkitVerdict`]).
//!
//! Every PAL works under both [`sea_core::LegacySea`] and
//! [`sea_core::EnhancedSea`]; the performance difference between those
//! two runs *is* the paper's argument.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

mod ca;
mod factoring;
mod rootkit;
mod ssh;
pub mod vm;

pub use ca::{decode_public_key, verify_ca_signature, CaRequest};
pub use factoring::{decode_factors, PersistMode};
pub use rootkit::RootkitVerdict;
pub use ssh::SshRequest;
