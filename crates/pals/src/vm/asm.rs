//! A small label-based assembler for the PAL VM.
//!
//! Emission order is program order; branch targets are named labels
//! resolved by [`Asm::finish`]. Registers are plain `u8` indices into
//! the VM's 16-register file (see [`sea_core::VmPal`] for the entry
//! conventions: `r0` input buffer, `r1` input length, `r2` heap base,
//! `r3` state buffer or 0, `r4` seal-slot occupancy mask).

use std::collections::HashMap;

use sea_core::vm::{op, Insn, Program};

/// Builds a [`Program`] instruction by instruction.
///
/// Branches may name labels that are only defined later; [`finish`]
/// resolves every fixup and panics on a label that was never placed —
/// assembling happens at PAL-construction time, so a dangling label is
/// a programming error, not an input error.
///
/// [`finish`]: Asm::finish
#[derive(Debug, Default)]
pub(crate) struct Asm {
    insns: Vec<Insn>,
    fixups: Vec<(usize, &'static str)>,
    labels: HashMap<&'static str, u32>,
    data: Vec<u8>,
}

impl Asm {
    /// A fresh, empty program.
    pub(crate) fn new() -> Self {
        Asm::default()
    }

    fn emit(&mut self, op: u8, a: u8, b: u8, c: u8, imm: u32) -> &mut Self {
        self.insns.push(Insn { op, a, b, c, imm });
        self
    }

    fn branch(&mut self, op: u8, a: u8, b: u8, target: &'static str) -> &mut Self {
        self.fixups.push((self.insns.len(), target));
        self.emit(op, a, b, 0, 0)
    }

    /// Defines `label` at the current instruction index.
    ///
    /// # Panics
    ///
    /// Panics if the label was already placed.
    pub(crate) fn label(&mut self, name: &'static str) -> &mut Self {
        let here = self.insns.len() as u32;
        assert!(
            self.labels.insert(name, here).is_none(),
            "label {name:?} placed twice"
        );
        self
    }

    /// Appends `bytes` to the data segment, returning their address.
    pub(crate) fn data(&mut self, bytes: &[u8]) -> u32 {
        let at = self.data.len() as u32;
        self.data.extend_from_slice(bytes);
        at
    }

    /// `rd = imm`.
    pub(crate) fn movi(&mut self, rd: u8, imm: u32) -> &mut Self {
        self.emit(op::MOVI, rd, 0, 0, imm)
    }

    /// `rd = ra`.
    pub(crate) fn mov(&mut self, rd: u8, ra: u8) -> &mut Self {
        self.emit(op::MOV, rd, ra, 0, 0)
    }

    /// `rd = ra + rb` (wrapping).
    pub(crate) fn add(&mut self, rd: u8, ra: u8, rb: u8) -> &mut Self {
        self.emit(op::ADD, rd, ra, rb, 0)
    }

    /// `rd = ra - rb` (wrapping).
    pub(crate) fn sub(&mut self, rd: u8, ra: u8, rb: u8) -> &mut Self {
        self.emit(op::SUB, rd, ra, rb, 0)
    }

    /// `rd = ra / rb` (traps on zero divisor).
    pub(crate) fn divu(&mut self, rd: u8, ra: u8, rb: u8) -> &mut Self {
        self.emit(op::DIVU, rd, ra, rb, 0)
    }

    /// `rd = ra % rb` (traps on zero divisor).
    pub(crate) fn remu(&mut self, rd: u8, ra: u8, rb: u8) -> &mut Self {
        self.emit(op::REMU, rd, ra, rb, 0)
    }

    /// `rd = ra & rb`.
    pub(crate) fn and(&mut self, rd: u8, ra: u8, rb: u8) -> &mut Self {
        self.emit(op::AND, rd, ra, rb, 0)
    }

    /// `rd = ra | rb`.
    pub(crate) fn or(&mut self, rd: u8, ra: u8, rb: u8) -> &mut Self {
        self.emit(op::OR, rd, ra, rb, 0)
    }

    /// `rd = ra ^ rb`.
    pub(crate) fn xor(&mut self, rd: u8, ra: u8, rb: u8) -> &mut Self {
        self.emit(op::XOR, rd, ra, rb, 0)
    }

    /// `rd = ra + imm` (wrapping).
    pub(crate) fn addi(&mut self, rd: u8, ra: u8, imm: u32) -> &mut Self {
        self.emit(op::ADDI, rd, ra, 0, imm)
    }

    /// `rd = mem[ra + off]` (one byte, zero-extended).
    pub(crate) fn ld8(&mut self, rd: u8, ra: u8, off: u32) -> &mut Self {
        self.emit(op::LD8, rd, ra, 0, off)
    }

    /// `rd = mem[ra + off .. +8]` (u64 LE).
    pub(crate) fn ld64(&mut self, rd: u8, ra: u8, off: u32) -> &mut Self {
        self.emit(op::LD64, rd, ra, 0, off)
    }

    /// `mem[ra + off] = rb as u8`.
    pub(crate) fn st8(&mut self, ra: u8, off: u32, rb: u8) -> &mut Self {
        self.emit(op::ST8, ra, rb, 0, off)
    }

    /// `mem[ra + off .. +8] = rb` (u64 LE).
    pub(crate) fn st64(&mut self, ra: u8, off: u32, rb: u8) -> &mut Self {
        self.emit(op::ST64, ra, rb, 0, off)
    }

    /// Unconditional jump to `target`.
    pub(crate) fn jmp(&mut self, target: &'static str) -> &mut Self {
        self.branch(op::JMP, 0, 0, target)
    }

    /// Jump to `target` if `ra == 0`.
    pub(crate) fn jz(&mut self, ra: u8, target: &'static str) -> &mut Self {
        self.branch(op::JZ, ra, 0, target)
    }

    /// Jump to `target` if `ra != 0`.
    pub(crate) fn jnz(&mut self, ra: u8, target: &'static str) -> &mut Self {
        self.branch(op::JNZ, ra, 0, target)
    }

    /// Jump to `target` if `ra < rb` (unsigned).
    pub(crate) fn jlt(&mut self, ra: u8, rb: u8, target: &'static str) -> &mut Self {
        self.branch(op::JLT, ra, rb, target)
    }

    /// Abort with application trap code `code`.
    pub(crate) fn trap(&mut self, code: u32) -> &mut Self {
        self.emit(op::TRAP, 0, 0, 0, code)
    }

    /// Draw `r_len` random bytes at `mem[r_dst]`.
    pub(crate) fn random(&mut self, r_dst: u8, r_len: u8) -> &mut Self {
        self.emit(op::RANDOM, r_dst, r_len, 0, 0)
    }

    /// Seal the length-prefixed buffer at `mem[r_src]` into `slot`.
    pub(crate) fn seal(&mut self, r_src: u8, slot: u32) -> &mut Self {
        self.emit(op::SEAL, r_src, 0, 0, slot)
    }

    /// Unseal `slot` as a length-prefixed buffer at `mem[r_dst]`.
    pub(crate) fn unseal(&mut self, r_dst: u8, slot: u32) -> &mut Self {
        self.emit(op::UNSEAL, r_dst, 0, 0, slot)
    }

    /// Extend the 20-byte digest at `mem[ra]` into the measurement
    /// chain.
    pub(crate) fn measure(&mut self, ra: u8) -> &mut Self {
        self.emit(op::MEASURE, ra, 0, 0, 0)
    }

    /// Persist the length-prefixed buffer at `mem[ra]` as in-region
    /// state and yield.
    pub(crate) fn yield_(&mut self, ra: u8) -> &mut Self {
        self.emit(op::YIELD, ra, 0, 0, 0)
    }

    /// Exit with the length-prefixed buffer at `mem[ra]` as output.
    pub(crate) fn exit(&mut self, ra: u8) -> &mut Self {
        self.emit(op::EXIT, ra, 0, 0, 0)
    }

    /// SHA-1 the length-prefixed buffer at `mem[r_src]`, writing 20 raw
    /// digest bytes at `mem[r_dst]`.
    pub(crate) fn hash(&mut self, r_dst: u8, r_src: u8) -> &mut Self {
        self.emit(op::HASH, r_dst, r_src, 0, 0)
    }

    /// Generate a `bits`-bit RSA key from the 32-byte seed at
    /// `mem[r_seed]`, serialized length-prefixed at `mem[r_dst]`.
    pub(crate) fn rsagen(&mut self, r_dst: u8, r_seed: u8, bits: u32) -> &mut Self {
        self.emit(op::RSAGEN, r_dst, r_seed, 0, bits)
    }

    /// Encode the public half of the length-prefixed private key at
    /// `mem[r_key]`, length-prefixed at `mem[r_dst]`.
    pub(crate) fn rsapub(&mut self, r_dst: u8, r_key: u8) -> &mut Self {
        self.emit(op::RSAPUB, r_dst, r_key, 0, 0)
    }

    /// PKCS#1 v1.5-sign the 20-byte digest at `mem[r_digest]` with the
    /// length-prefixed private key at `mem[r_key]`, signature
    /// length-prefixed at `mem[r_dst]`.
    pub(crate) fn rsasign(&mut self, r_dst: u8, r_key: u8, r_digest: u8) -> &mut Self {
        self.emit(op::RSASIGN, r_dst, r_key, r_digest, 0)
    }

    /// Resolves all fixups and produces the program.
    ///
    /// # Panics
    ///
    /// Panics if a branch names a label that was never placed.
    pub(crate) fn finish(mut self) -> Program {
        for (at, target) in &self.fixups {
            let dest = *self
                .labels
                .get(target)
                .unwrap_or_else(|| panic!("undefined label {target:?}"));
            self.insns[*at].imm = dest;
        }
        Program::new(self.insns, self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_core::vm::op;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut a = Asm::new();
        a.label("top")
            .movi(5, 1)
            .jnz(5, "ahead")
            .jmp("top")
            .label("ahead")
            .trap(0);
        let p = a.finish();
        assert_eq!(p.insns()[1].imm, 3, "forward branch to 'ahead'");
        assert_eq!(p.insns()[2].imm, 0, "backward branch to 'top'");
    }

    #[test]
    fn data_returns_addresses_in_emission_order() {
        let mut a = Asm::new();
        assert_eq!(a.data(b"abcd"), 0);
        assert_eq!(a.data(b"xy"), 4);
        a.trap(0);
        assert_eq!(a.finish().data(), b"abcdxy");
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn dangling_label_panics() {
        let mut a = Asm::new();
        a.jmp("nowhere");
        a.finish();
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn duplicate_label_panics() {
        let mut a = Asm::new();
        a.label("x").label("x");
    }

    #[test]
    fn store_field_encoding_matches_isa() {
        let mut a = Asm::new();
        a.st64(2, 8, 9).ld64(6, 3, 16);
        let p = a.finish();
        // ST64: a = base register, b = source register.
        assert_eq!(
            (p.insns()[0].op, p.insns()[0].a, p.insns()[0].b),
            (op::ST64, 2, 9)
        );
        assert_eq!(p.insns()[0].imm, 8);
        // LD64: a = destination register, b = base register.
        assert_eq!(
            (p.insns()[1].op, p.insns()[1].a, p.insns()[1].b),
            (op::LD64, 6, 3)
        );
        assert_eq!(p.insns()[1].imm, 16);
    }
}
