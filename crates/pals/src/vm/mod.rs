//! The paper's PALs as executed bytecode for the measured PAL VM.
//!
//! [`Asm`] is a small label-based assembler over the `sea_core::vm`
//! ISA; the program constructors here assemble the four §4.1
//! applications into [`sea_core::VmPal`]s whose measured image is the
//! serialized bytecode itself. The `vm_differential` integration suite
//! pins each program's outputs, key material, signatures and session
//! shape to recorded bytes.

mod asm;
mod programs;

pub use asm::Asm;
pub use programs::{
    ca_image, ca_program, factoring_image, factoring_program, rootkit_image, rootkit_program,
    ssh_image, ssh_program, vm_ca, vm_factoring, vm_rootkit, vm_rootkit_from_digests, vm_ssh,
};
