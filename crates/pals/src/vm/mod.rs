//! The paper's PALs as executed bytecode for the measured PAL VM.
//!
//! A small label-based assembler over the `sea_core::vm` ISA builds
//! them: the program constructors here assemble the four §4.1
//! applications into [`sea_core::VmPal`]s whose measured image is the
//! serialized bytecode itself. The `vm_differential` integration suite
//! pins each program's outputs, key material, signatures and session
//! shape to recorded bytes.

mod asm;
mod programs;

pub use programs::{
    ca_image, ca_program, factoring_image, rootkit_image, ssh_image, vm_ca, vm_factoring,
    vm_rootkit, vm_ssh,
};
