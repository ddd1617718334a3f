//! A minimal measured bytecode VM for PALs.
//!
//! The paper's central promise is that an attestation names *the code
//! that actually ran*. A closure PAL ([`crate::FnPal`]) measures a
//! name-derived byte string and charges its runtime as a modelled
//! constant — fine for timing experiments, but its identity is a
//! stand-in. This module closes that gap: a PAL is a register-based
//! bytecode *program*, [`PalLogic::image`] is the canonical serialized
//! form of that program, and the sePCR chain (and thus every quote)
//! commits to the hash of the bytes the interpreter executes. Flip one
//! bit of the program and the measured identity moves.
//!
//! # The ISA
//!
//! Sixteen 64-bit registers, a bounded [`MEM_SIZE`]-byte scratch
//! memory, and fixed 8-byte instructions `[op, a, b, c, imm:u32 LE]`.
//! The opcode space (see [`op`]) splits into three groups:
//!
//! * **Arithmetic / logic / data movement** — `MOVI`, `MOV`, `ADD`,
//!   `SUB`, `MUL`, `DIVU`, `REMU`, `AND`, `OR`, `XOR`, `SHL`, `SHR`,
//!   `ADDI`, `LD8`/`LD64`, `ST8`/`ST64` (wrapping arithmetic; division
//!   by zero traps; loads/stores are bounds-checked against
//!   [`MEM_SIZE`]).
//! * **Control flow** — `JMP`, `JZ`, `JNZ`, `JLT` (absolute instruction
//!   index targets) and `TRAP`.
//! * **Hypercalls** — each maps 1:1 onto a [`PalCtx`] operation:
//!   `RANDOM`, `SEAL`, `UNSEAL`, `MEASURE`, `YIELD`, `EXIT`, plus the
//!   in-TCB compute primitives `HASH`, `RSAGEN`, `RSAPUB`, `RSASIGN`
//!   that the paper's CA and SSH PALs need.
//!
//! # Decode → block cache → dispatch, with direct chaining
//!
//! The interpreter never re-decodes hot code. Execution proceeds in
//! *translation blocks*: straight-line runs of instructions ending at a
//! terminator (branch, `TRAP`, `YIELD`, `EXIT`, or the end of the code
//! segment). The first visit to a pc decodes and validates the block
//! (costed at [`DECODE_GAS_PER_INSN`] per instruction) and installs it
//! in a per-invocation cache; later visits pay only a cache lookup
//! ([`LOOKUP_DISPATCH_GAS`]). With chaining enabled (the default), a
//! block's terminal branch additionally *patches* each successor edge
//! with the successor's block id the first time it is taken, so the hot
//! loop skips even the lookup and pays [`CHAIN_DISPATCH_GAS`] — the
//! classic direct-chaining discipline of binary translators.
//!
//! The cache and every chain link are discarded at the start of each
//! invocation. Cross-invocation warmth would make a resumed (or
//! crash-recovered and re-executed) session cheaper than the original
//! run, and the crash-consistency machinery demands that a session's
//! cost be a pure function of its inputs — not of how many times the
//! host happened to re-enter it.
//!
//! # Gas → `SimDuration`
//!
//! Every retired instruction charges *gas* (1 gas = 1 virtual
//! nanosecond); dispatch, decode, and hypercall marshalling charge on
//! top. The schedule of charges is deterministic: same program, same
//! input, same state, same slots, same chaining mode — same gas, charge
//! for charge.
//!
//! The host loop does one bookkeeping step per block, not one per
//! instruction: decode sums a block's base gas, and dispatch retires the
//! whole block and charges that sum at block entry. A trap in mid-block
//! un-charges the instructions after the trapping one, and a block the
//! budget runs out inside runs one instruction at a time, so every
//! charge lands as if made per instruction. Accrued gas is flushed into
//! [`PalCtx::work`] once, on whichever way `run` returns. That is
//! equivalent to flushing at every block boundary, because
//! [`PalCtx::work`] only sums into the session's work, which is read
//! after `run` returns: virtual-time attribution, DES scheduling, and
//! crash-point sweeps see VM execution exactly as they saw modelled
//! work.

use sea_crypto::{Drbg, RsaPrivateKey, Sha1};
use sea_hw::SimDuration;
use sea_tpm::SealedBlob;

use crate::error::SeaError;
use crate::pal::{PalCtx, PalLogic, PalOutcome};

/// Bytes of scratch memory a program may address (data segment, input,
/// state, and heap all live inside this window).
pub const MEM_SIZE: usize = 65_536;

/// General-purpose 64-bit registers.
pub const NUM_REGS: usize = 16;

/// Sealed-blob slots a program may address with `SEAL`/`UNSEAL`. The
/// untrusted host custodies the blobs between sessions; the slot
/// occupancy bitmask is visible to the program in `r4` at entry.
pub const NUM_SLOTS: usize = 8;

/// Retired-instruction budget per invocation; exceeding it traps. A
/// backstop against runaway programs, far above any real PAL here.
pub const INSN_BUDGET: u64 = 5_000_000;

/// Gas charged to dispatch through the block cache (a lookup that hits,
/// or the lookup preceding a decode miss).
pub const LOOKUP_DISPATCH_GAS: u64 = 12;

/// Gas charged to dispatch through a patched chain edge — the
/// direct-chained fast path.
pub const CHAIN_DISPATCH_GAS: u64 = 2;

/// Gas charged per instruction to decode and validate a block on its
/// first visit.
pub const DECODE_GAS_PER_INSN: u64 = 6;

/// The serialized-program magic ("SEA VM v1").
pub const PROGRAM_MAGIC: [u8; 4] = *b"SVM1";

/// Opcode values. Grouped: `0x01..=0x16` arithmetic/memory/control,
/// `0x20..=0x25` hypercalls onto [`PalCtx`], `0x30..=0x33` in-TCB
/// compute primitives.
pub mod op {
    /// `rd = imm` (zero-extended).
    pub const MOVI: u8 = 0x01;
    /// `rd = ra`.
    pub const MOV: u8 = 0x02;
    /// `rd = ra + rb` (wrapping).
    pub const ADD: u8 = 0x03;
    /// `rd = ra - rb` (wrapping).
    pub const SUB: u8 = 0x04;
    /// `rd = ra * rb` (wrapping).
    pub const MUL: u8 = 0x05;
    /// `rd = ra / rb` (unsigned; traps on zero divisor).
    pub const DIVU: u8 = 0x06;
    /// `rd = ra % rb` (unsigned; traps on zero divisor).
    pub const REMU: u8 = 0x07;
    /// `rd = ra & rb`.
    pub const AND: u8 = 0x08;
    /// `rd = ra | rb`.
    pub const OR: u8 = 0x09;
    /// `rd = ra ^ rb`.
    pub const XOR: u8 = 0x0A;
    /// `rd = ra << (rb & 63)`.
    pub const SHL: u8 = 0x0B;
    /// `rd = ra >> (rb & 63)` (logical).
    pub const SHR: u8 = 0x0C;
    /// `rd = ra + imm` (wrapping; imm zero-extended).
    pub const ADDI: u8 = 0x0D;
    /// `rd = mem[ra + imm]` (one byte, zero-extended).
    pub const LD8: u8 = 0x0E;
    /// `rd = mem[ra + imm .. +8]` (u64 little-endian).
    pub const LD64: u8 = 0x0F;
    /// `mem[ra + imm] = rb as u8`.
    pub const ST8: u8 = 0x10;
    /// `mem[ra + imm .. +8] = rb` (u64 little-endian).
    pub const ST64: u8 = 0x11;
    /// Unconditional jump to instruction index `imm`.
    pub const JMP: u8 = 0x12;
    /// Jump to `imm` if `ra == 0`.
    pub const JZ: u8 = 0x13;
    /// Jump to `imm` if `ra != 0`.
    pub const JNZ: u8 = 0x14;
    /// Jump to `imm` if `ra < rb` (unsigned).
    pub const JLT: u8 = 0x15;
    /// Abort with application trap code `imm`.
    pub const TRAP: u8 = 0x16;
    /// Hypercall: draw `rb` random bytes from the TPM and store them at
    /// `mem[ra..]` ([`crate::PalCtx::random`]).
    pub const RANDOM: u8 = 0x20;
    /// Hypercall: seal the length-prefixed buffer at `mem[ra]` to this
    /// PAL's identity, storing the blob in slot `imm`
    /// ([`crate::PalCtx::seal`]).
    pub const SEAL: u8 = 0x21;
    /// Hypercall: unseal slot `imm` and write the plaintext as a
    /// length-prefixed buffer at `mem[ra]` (traps if the slot is empty;
    /// [`crate::PalCtx::unseal`]).
    pub const UNSEAL: u8 = 0x22;
    /// Hypercall: extend the 20-byte digest at `mem[ra]` into the PAL's
    /// measurement chain ([`crate::PalCtx::measure_input`]).
    pub const MEASURE: u8 = 0x23;
    /// Hypercall: persist the length-prefixed buffer at `mem[ra]` as
    /// in-region state and yield the CPU (`SYIELD`).
    pub const YIELD: u8 = 0x24;
    /// Hypercall: exit with the length-prefixed buffer at `mem[ra]` as
    /// output. In-region state is relinquished (cleared).
    pub const EXIT: u8 = 0x25;
    /// SHA-1 of the length-prefixed buffer at `mem[rb]`, 20 raw bytes
    /// written at `mem[ra]`.
    pub const HASH: u8 = 0x30;
    /// RSA key generation: `imm`-bit key from the 32-byte DRBG seed at
    /// `mem[rb]`, private key serialized length-prefixed at `mem[ra]`.
    pub const RSAGEN: u8 = 0x31;
    /// Encode the public half of the length-prefixed private key at
    /// `mem[rb]` as `RsaPublicKey::to_bytes` does (length-prefixed
    /// result at `mem[ra]`).
    pub const RSAPUB: u8 = 0x32;
    /// PKCS#1 v1.5 signature: private key length-prefixed at `mem[rb]`,
    /// 20-byte digest at `mem[rc]`, signature length-prefixed at
    /// `mem[ra]`.
    pub const RSASIGN: u8 = 0x33;
}

/// One fixed-width instruction: `[op, a, b, c, imm:u32 LE]` on the
/// wire. Field roles depend on the opcode (see [`op`]); register fields
/// must be `< `[`NUM_REGS`] or the block decoder traps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Insn {
    /// Opcode (one of the [`op`] constants).
    pub op: u8,
    /// First register field (usually the destination).
    pub a: u8,
    /// Second register field.
    pub b: u8,
    /// Third register field.
    pub c: u8,
    /// Immediate: literal value, memory offset, jump target (absolute
    /// instruction index), seal-slot index, or trap code.
    pub imm: u32,
}

impl Insn {
    /// Serialized instruction width in bytes.
    pub const SIZE: usize = 8;

    /// Serializes to the 8-byte wire form.
    pub fn encode(&self) -> [u8; 8] {
        let i = self.imm.to_le_bytes();
        [self.op, self.a, self.b, self.c, i[0], i[1], i[2], i[3]]
    }

    /// Decodes the 8-byte wire form.
    pub fn decode(bytes: &[u8; 8]) -> Insn {
        Insn {
            op: bytes[0],
            a: bytes[1],
            b: bytes[2],
            c: bytes[3],
            imm: u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        }
    }
}

/// A VM program: code plus a read-only data segment loaded at address 0
/// of scratch memory. The serialized form *is* the measured image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    insns: Vec<Insn>,
    data: Vec<u8>,
}

impl Program {
    /// Builds a program from instructions and a data segment.
    pub fn new(insns: Vec<Insn>, data: Vec<u8>) -> Self {
        Program { insns, data }
    }

    /// The code segment.
    pub fn insns(&self) -> &[Insn] {
        &self.insns
    }

    /// The data segment (loaded at scratch address 0).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// The canonical serialized form — the bytes that are measured:
    /// [`PROGRAM_MAGIC`], instruction count (u32 LE), data length
    /// (u32 LE), the instructions, the data.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.insns.len() * Insn::SIZE + self.data.len());
        out.extend_from_slice(&PROGRAM_MAGIC);
        out.extend_from_slice(&(self.insns.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.data.len() as u32).to_le_bytes());
        for insn in &self.insns {
            out.extend_from_slice(&insn.encode());
        }
        out.extend_from_slice(&self.data);
        out
    }

    /// Parses a serialized program.
    ///
    /// # Errors
    ///
    /// [`SeaError::PalFailed`] for a bad magic, a truncated body, or
    /// trailing bytes. Opcode validity is *not* checked here — invalid
    /// instructions trap when (and only when) execution reaches them,
    /// so a parsed image round-trips byte-for-byte.
    pub fn parse(bytes: &[u8]) -> Result<Self, SeaError> {
        let bad = |msg: &str| SeaError::PalFailed(format!("vm image: {msg}"));
        if bytes.len() < 12 || bytes[..4] != PROGRAM_MAGIC {
            return Err(bad("missing SVM1 magic"));
        }
        let n_insns = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        let data_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        let code_end = 12
            + n_insns
                .checked_mul(Insn::SIZE)
                .ok_or_else(|| bad("oversized"))?;
        let total = code_end
            .checked_add(data_len)
            .ok_or_else(|| bad("oversized"))?;
        if bytes.len() != total {
            return Err(bad("truncated or trailing bytes"));
        }
        // `code_end - 12` is a whole number of instructions, so the
        // remainder is empty.
        let (code, _) = bytes[12..code_end].as_chunks::<{ Insn::SIZE }>();
        let insns = code.iter().map(Insn::decode).collect();
        Ok(Program {
            insns,
            data: bytes[code_end..].to_vec(),
        })
    }
}

/// Execution counters for one [`VmPal`], accumulated across
/// invocations until [`VmPal::reset_stats`]. Everything is an integer,
/// derived from the deterministic instruction stream — byte-identical
/// run to run, so the bench suite can chart them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Instructions retired.
    pub retired: u64,
    /// Translation blocks executed (dispatches).
    pub blocks_executed: u64,
    /// Blocks decoded (cache misses).
    pub blocks_decoded: u64,
    /// Dispatches served through a patched chain edge.
    pub chain_hits: u64,
    /// Dispatches served through a block-cache lookup.
    pub cache_lookups: u64,
    /// Gas spent on dispatch and decode alone.
    pub dispatch_gas: u64,
    /// Total gas charged (dispatch + decode + execution + marshalling).
    pub total_gas: u64,
}

impl VmStats {
    /// Adds one invocation's counters to these.
    fn absorb(&mut self, s: &VmStats) {
        self.retired += s.retired;
        self.blocks_executed += s.blocks_executed;
        self.blocks_decoded += s.blocks_decoded;
        self.chain_hits += s.chain_hits;
        self.cache_lookups += s.cache_lookups;
        self.dispatch_gas += s.dispatch_gas;
        self.total_gas += s.total_gas;
    }
}

/// A decoded translation block: `[start, end)` instruction indices,
/// with its terminator (if any, a copy of the instruction at `end - 1`),
/// the summed base gas of all its instructions, and direct-chain edges
/// patched in as successors get resolved.
#[derive(Debug, Clone, Copy)]
struct Block {
    start: u32,
    end: u32,
    term: Option<Insn>,
    /// [`gas_of`] the whole block, charged at block entry.
    gas: u64,
    /// `edges[0]` = taken / unconditional successor, `edges[1]` =
    /// fallthrough successor; patched with block ids under chaining.
    edges: [Option<u32>; 2],
}

/// A PAL whose behaviour *is* a bytecode program: the measured image is
/// the serialized program, so the sePCR chain and every quote commit to
/// the code the interpreter executes.
///
/// Register file at entry: `r0` = address of the length-prefixed input
/// buffer, `r1` = input length, `r2` = heap base, `r3` = address of the
/// length-prefixed in-region state buffer (0 when state is empty),
/// `r4` = seal-slot occupancy bitmask, `r5..r15` = 0. A
/// "length-prefixed buffer" is a u64 LE length at the address followed
/// by that many payload bytes.
#[derive(Debug, Clone)]
pub struct VmPal {
    name: String,
    program: Program,
    slots: Vec<Option<SealedBlob>>,
    chain: bool,
    stats: VmStats,
}

impl VmPal {
    /// Wraps a program as a PAL. Chaining starts enabled.
    pub fn new(name: &str, program: Program) -> Self {
        VmPal {
            name: name.to_owned(),
            program,
            slots: vec![None; NUM_SLOTS],
            chain: true,
            stats: VmStats::default(),
        }
    }

    /// Enables or disables direct block chaining (builder-style). With
    /// chaining off every dispatch pays the cache-lookup cost — the
    /// ablation the bench suite charts.
    pub fn with_chaining(mut self, on: bool) -> Self {
        self.chain = on;
        self
    }

    /// The wrapped program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Execution counters accumulated so far.
    pub fn stats(&self) -> VmStats {
        self.stats
    }

    /// Zeroes the execution counters.
    pub fn reset_stats(&mut self) {
        self.stats = VmStats::default();
    }

    /// The sealed blob custodied in `slot`, if any. The host is the
    /// untrusted custodian: it cannot read the plaintext, only hand the
    /// blob back to the same measured program.
    pub fn slot(&self, slot: usize) -> Option<&SealedBlob> {
        self.slots.get(slot).and_then(Option::as_ref)
    }
}

#[cold]
fn trap(pc: u32, msg: &str) -> SeaError {
    SeaError::PalFailed(format!("vm trap: {msg} at pc {pc}"))
}

#[cold]
fn load_trap(pc: u32, addr: u64, n: usize) -> SeaError {
    trap(pc, &format!("load of {n} bytes at {addr} out of bounds"))
}

/// Rounds `n` up to the next multiple of 8 (buffer alignment in scratch
/// memory).
fn align8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

/// Decodes and validates the straight-line block starting at `pc`:
/// known opcodes, register fields in range. Returns the block extent
/// and its summed base gas. Kept out of line: it runs once per block per
/// invocation, and inlined it crowds the dispatch loop's registers.
#[inline(never)]
fn decode_block(insns: &[Insn], pc: u32) -> Result<Block, SeaError> {
    let mut idx = pc as usize;
    let block = |end: usize, term: Option<Insn>| Block {
        start: pc,
        end: end as u32,
        term,
        gas: gas_of(&insns[pc as usize..end]),
        edges: [None, None],
    };
    loop {
        let Some(insn) = insns.get(idx) else {
            // Fell off the end of the code segment without a
            // terminator: still a valid block, but executing past its
            // last instruction traps.
            return Ok(block(idx, None));
        };
        let known = matches!(insn.op, 0x01..=0x16 | 0x20..=0x25 | 0x30..=0x33);
        if !known {
            return Err(trap(
                idx as u32,
                &format!("invalid opcode {:#04x}", insn.op),
            ));
        }
        if insn.a as usize >= NUM_REGS || insn.b as usize >= NUM_REGS || insn.c as usize >= NUM_REGS
        {
            return Err(trap(idx as u32, "register field out of range"));
        }
        idx += 1;
        let terminator = matches!(
            insn.op,
            op::JMP | op::JZ | op::JNZ | op::JLT | op::TRAP | op::YIELD | op::EXIT
        );
        if terminator {
            return Ok(block(idx, Some(*insn)));
        }
    }
}

/// Base gas of one retired instruction (hypercalls add marshalling gas
/// on top, at the call site).
fn base_gas(opcode: u8) -> u64 {
    match opcode {
        op::MUL => 3,
        op::DIVU | op::REMU => 20,
        op::LD8 | op::LD64 | op::ST8 | op::ST64 => 2,
        _ => 1,
    }
}

/// Summed base gas of a run of instructions.
fn gas_of(insns: &[Insn]) -> u64 {
    insns.iter().map(|i| base_gas(i.op)).sum()
}

/// Gas charged for RSA key generation: the CA application's modelled
/// 150 ms in-PAL keygen, flat because the host's keygen time varies from
/// key to key and virtual time must not.
const RSAGEN_GAS: u64 = 150_000_000;
/// Gas charged for a PKCS#1 v1.5 signature: the modelled 5 ms.
const RSASIGN_GAS: u64 = 5_000_000;
/// Gas charged to derive and encode a public key.
const RSAPUB_GAS: u64 = 1_000;
/// Fixed marshalling gas per hypercall, before the per-byte part.
const HYPERCALL_GAS: u64 = 20;
/// Largest key `RSAGEN` generates, in bits: the TPM model's largest key
/// (`KeyStrength::Spec2048`). Keygen host time grows 4–5× from 512 to
/// 1,024 bits and 7–10× from 1,024 to 2,048 bits (medians over 41 seeds
/// on a 2-CPU Xeon host: about 20 ms at 1,024 bits, 130–190 ms at 2,048)
/// while the gas is flat, so an unbounded size could stall the host far
/// beyond anything [`INSN_BUDGET`] bounds.
const RSA_MAX_BITS: usize = 2048;
/// Longest private key `RSAPUB` and `RSASIGN` parse: a serialized
/// [`RSA_MAX_BITS`] key (three 4-byte length prefixes, `n` and `d` of at
/// most 256 bytes each, and the 3-byte exponent 65537).
const RSA_MAX_KEY_BYTES: usize = 3 * 4 + 2 * (RSA_MAX_BITS / 8) + 3;

struct Machine<'m> {
    mem: &'m mut [u8],
    regs: [u64; NUM_REGS],
}

impl Machine<'_> {
    fn load(&self, pc: u32, addr: u64, n: usize) -> Result<&[u8], SeaError> {
        let a = usize::try_from(addr).unwrap_or(usize::MAX);
        if a.checked_add(n).is_none_or(|end| end > self.mem.len()) {
            return Err(load_trap(pc, addr, n));
        }
        Ok(&self.mem[a..a + n])
    }

    /// Loads the `N` bytes at `addr` as an array, trapping exactly as
    /// [`Machine::load`] does when they are not all in memory.
    fn load_array<const N: usize>(&self, pc: u32, addr: u64) -> Result<[u8; N], SeaError> {
        let a = usize::try_from(addr).unwrap_or(usize::MAX);
        match self.mem.get(a..).and_then(<[u8]>::first_chunk::<N>) {
            Some(bytes) => Ok(*bytes),
            None => Err(load_trap(pc, addr, N)),
        }
    }

    fn store(&mut self, pc: u32, addr: u64, bytes: &[u8]) -> Result<(), SeaError> {
        let a = usize::try_from(addr).unwrap_or(usize::MAX);
        let n = bytes.len();
        if a.checked_add(n).is_none_or(|end| end > self.mem.len()) {
            return Err(trap(
                pc,
                &format!("store of {n} bytes at {addr} out of bounds"),
            ));
        }
        self.mem[a..a + n].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads the length-prefixed buffer at `addr` (u64 LE length, then
    /// payload), copying the payload out so destinations may overlap.
    fn load_buf(&self, pc: u32, addr: u64, what: &str) -> Result<Vec<u8>, SeaError> {
        let len = u64::from_le_bytes(self.load_array(pc, addr)?);
        if len > MEM_SIZE as u64 {
            return Err(trap(
                pc,
                &format!("{what} buffer length {len} exceeds memory"),
            ));
        }
        Ok(self.load(pc, addr.wrapping_add(8), len as usize)?.to_vec())
    }

    /// Writes a length-prefixed buffer at `addr`.
    fn store_buf(&mut self, pc: u32, addr: u64, payload: &[u8]) -> Result<(), SeaError> {
        self.store(pc, addr, &(payload.len() as u64).to_le_bytes())?;
        self.store(pc, addr.wrapping_add(8), payload)
    }

    /// Parses the length-prefixed private key at `addr`, refusing one
    /// longer than [`RSA_MAX_KEY_BYTES`] before parsing it.
    fn load_rsa_key(&self, pc: u32, addr: u64) -> Result<RsaPrivateKey, SeaError> {
        let bytes = self.load_buf(pc, addr, "rsa key")?;
        if bytes.len() > RSA_MAX_KEY_BYTES {
            return Err(trap(pc, "rsa key longer than a 2048-bit key"));
        }
        RsaPrivateKey::from_bytes(&bytes).map_err(|_| trap(pc, "corrupt rsa key"))
    }
}

impl PalLogic for VmPal {
    fn name(&self) -> &str {
        &self.name
    }

    fn image(&self) -> Vec<u8> {
        self.program.serialize()
    }

    fn run(&mut self, ctx: &mut PalCtx<'_>) -> Result<PalOutcome, SeaError> {
        let insns = self.program.insns.as_slice();

        // --- memory image: data segment, input, state, heap ---------
        let mut mem = vec![0u8; MEM_SIZE];
        let data_len = self.program.data.len();
        let in_base = align8(data_len);
        let input = ctx.input().to_vec();
        let state = ctx.state().to_vec();
        let after_input = in_base + 8 + input.len();
        let st_base = if state.is_empty() {
            0
        } else {
            align8(after_input)
        };
        let after_state = if state.is_empty() {
            after_input
        } else {
            st_base + 8 + state.len()
        };
        let heap = align8(after_state);
        if data_len > MEM_SIZE || heap > MEM_SIZE {
            return Err(trap(0, "data + input + state exceed scratch memory"));
        }
        mem[..data_len].copy_from_slice(&self.program.data);
        let mut m = Machine {
            mem: &mut mem,
            regs: [0; NUM_REGS],
        };
        m.store_buf(0, in_base as u64, &input)?;
        if !state.is_empty() {
            m.store_buf(0, st_base as u64, &state)?;
        }
        m.regs[0] = in_base as u64;
        m.regs[1] = input.len() as u64;
        m.regs[2] = heap as u64;
        m.regs[3] = st_base as u64;
        m.regs[4] = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .fold(0u64, |mask, (i, _)| mask | (1 << i));

        // --- translation-block cache: fresh every invocation --------
        // Cross-invocation warmth would make a recovered re-execution
        // cheaper than the original run and break the determinism the
        // crash sweeps pin.
        let mut blocks: Vec<Block> = Vec::new();
        let mut index: Vec<Option<u32>> = vec![None; insns.len()];

        let slots = self.slots.as_mut_slice();
        let chain_on = self.chain;
        // This invocation's counters. A chain hit bumps only
        // `s.chain_hits`; its block count and dispatch gas are added on
        // exit. `s.retired` is what the budget counts. Instruction gas
        // and hypercall gas accrue apart from `s.dispatch_gas`, and all
        // three sum into `s.total_gas` on exit.
        let mut s = VmStats::default();
        let mut gas: u64 = 0;
        let mut call_gas: u64 = 0;
        let mut pc: u32 = 0;
        // The successor of the block just run, if its edge is patched,
        // and that edge: `(block, 0 taken | 1 fallthrough)`.
        let mut chained: Option<u32> = None;
        let mut came_by: Option<(u32, usize)> = None;

        let result = 'run: loop {
            // --- dispatch ------------------------------------------
            let bid = match chained {
                Some(bid) => {
                    s.chain_hits += 1;
                    bid
                }
                None => {
                    s.dispatch_gas += LOOKUP_DISPATCH_GAS;
                    s.cache_lookups += 1;
                    if pc as usize > insns.len() {
                        break 'run Err(trap(pc, "jump target out of range"));
                    }
                    let bid = match index.get(pc as usize).copied().flatten() {
                        Some(bid) => bid,
                        None => {
                            let blk = match decode_block(insns, pc) {
                                Ok(blk) => blk,
                                Err(e) => break 'run Err(e),
                            };
                            s.dispatch_gas += DECODE_GAS_PER_INSN * u64::from(blk.end - blk.start);
                            s.blocks_decoded += 1;
                            let bid = blocks.len() as u32;
                            blocks.push(blk);
                            if let Some(slot) = index.get_mut(pc as usize) {
                                *slot = Some(bid);
                            }
                            bid
                        }
                    };
                    // With chaining on, the edge just taken was unpatched.
                    if let (true, Some((from, edge))) = (chain_on, came_by) {
                        blocks[from as usize].edges[edge] = Some(bid);
                    }
                    s.blocks_executed += 1;
                    bid
                }
            };
            let blk = &blocks[bid as usize];
            let (start, end) = (blk.start, blk.end);
            let block = &insns[start as usize..end as usize];

            // --- retire and charge the whole block at entry ---------
            let room = INSN_BUDGET - s.retired;
            if block.len() as u64 > room {
                let ((retired, charged), e) =
                    run_past_budget(&mut m, block, start, room, ctx, slots, &mut call_gas);
                s.retired += retired;
                gas += charged;
                break 'run Err(e);
            }
            s.retired += block.len() as u64;
            gas += blk.gas;

            // --- execute the body ----------------------------------
            let body = &block[..block.len() - usize::from(blk.term.is_some())];
            for (idx, &i) in (start..).zip(body) {
                if let Err(e) = step(&mut m, i, idx, ctx, slots, &mut call_gas) {
                    // Un-charge the instructions after the trapping one.
                    let rest = &block[(idx - start) as usize + 1..];
                    s.retired -= rest.len() as u64;
                    gas -= gas_of(rest);
                    break 'run Err(e);
                }
            }
            let Some(t) = blk.term else {
                // Only a block that ends at the code end has no
                // terminator.
                break 'run Err(trap(end, "execution fell off the code end"));
            };

            // --- terminator ----------------------------------------
            let taken = match t.op {
                op::JMP => true,
                op::JZ => m.regs[t.a as usize] == 0,
                op::JNZ => m.regs[t.a as usize] != 0,
                op::JLT => m.regs[t.a as usize] < m.regs[t.b as usize],
                _ => break 'run leave(&m, t, end - 1, ctx, &mut call_gas),
            };
            let (target, edge) = if taken { (t.imm, 0) } else { (end, 1) };
            // Edges are patched only with chaining on.
            chained = blk.edges[edge];
            came_by = Some((bid, edge));
            pc = target;
        };

        // --- every exit: write the counters and gas back once --------
        s.blocks_executed += s.chain_hits;
        s.dispatch_gas += CHAIN_DISPATCH_GAS * s.chain_hits;
        s.total_gas = s.dispatch_gas + gas + call_gas;
        self.stats.absorb(&s);
        ctx.work(SimDuration::from_ns(s.total_gas));
        result
    }
}

/// Runs a block inside which the budget runs out, one instruction at a
/// time: the `room` instructions that still fit, then the one that
/// exceeds the budget, which retires, is charged, and traps — unless an
/// earlier one traps first. Returns the instructions retired and their
/// base gas, with the trap.
#[cold]
fn run_past_budget(
    m: &mut Machine<'_>,
    block: &[Insn],
    start: u32,
    room: u64,
    ctx: &mut PalCtx<'_>,
    slots: &mut [Option<SealedBlob>],
    call_gas: &mut u64,
) -> ((u64, u64), SeaError) {
    let ran = |n: usize| (n as u64, gas_of(&block[..n]));
    // `room < block.len()`, so the instructions that fit all precede
    // the block's last one and none is a terminator.
    for (idx, &i) in (start..).zip(&block[..room as usize]) {
        if let Err(e) = step(m, i, idx, ctx, slots, call_gas) {
            return (ran((idx - start) as usize + 1), e);
        }
    }
    let pc = start + room as u32;
    (
        ran(room as usize + 1),
        trap(pc, "instruction budget exhausted"),
    )
}

/// Executes one block-body instruction at `pc` (a body never holds a
/// terminator). Arithmetic and memory run inline; hypercalls and
/// compute primitives go out of line.
#[inline(always)]
fn step(
    m: &mut Machine<'_>,
    i: Insn,
    pc: u32,
    ctx: &mut PalCtx<'_>,
    slots: &mut [Option<SealedBlob>],
    call_gas: &mut u64,
) -> Result<(), SeaError> {
    let (ra, rb, rc) = (i.a as usize, i.b as usize, i.c as usize);
    match i.op {
        op::MOVI => m.regs[ra] = u64::from(i.imm),
        op::MOV => m.regs[ra] = m.regs[rb],
        op::ADD => m.regs[ra] = m.regs[rb].wrapping_add(m.regs[rc]),
        op::SUB => m.regs[ra] = m.regs[rb].wrapping_sub(m.regs[rc]),
        op::MUL => m.regs[ra] = m.regs[rb].wrapping_mul(m.regs[rc]),
        op::DIVU | op::REMU => {
            let d = m.regs[rc];
            if d == 0 {
                return Err(trap(pc, "division by zero"));
            }
            m.regs[ra] = if i.op == op::DIVU {
                m.regs[rb] / d
            } else {
                m.regs[rb] % d
            };
        }
        op::AND => m.regs[ra] = m.regs[rb] & m.regs[rc],
        op::OR => m.regs[ra] = m.regs[rb] | m.regs[rc],
        op::XOR => m.regs[ra] = m.regs[rb] ^ m.regs[rc],
        op::SHL => m.regs[ra] = m.regs[rb] << (m.regs[rc] & 63),
        op::SHR => m.regs[ra] = m.regs[rb] >> (m.regs[rc] & 63),
        op::ADDI => m.regs[ra] = m.regs[rb].wrapping_add(u64::from(i.imm)),
        op::LD8 => {
            let addr = m.regs[rb].wrapping_add(u64::from(i.imm));
            m.regs[ra] = u64::from(m.load(pc, addr, 1)?[0]);
        }
        op::LD64 => {
            let addr = m.regs[rb].wrapping_add(u64::from(i.imm));
            m.regs[ra] = u64::from_le_bytes(m.load_array(pc, addr)?);
        }
        op::ST8 => {
            let addr = m.regs[ra].wrapping_add(u64::from(i.imm));
            m.store(pc, addr, &[m.regs[rb] as u8])?;
        }
        op::ST64 => {
            let addr = m.regs[ra].wrapping_add(u64::from(i.imm));
            m.store(pc, addr, &m.regs[rb].to_le_bytes())?;
        }
        _ => return hypercall(m, i, pc, ctx, slots, call_gas),
    }
    Ok(())
}

/// Executes one hypercall or compute primitive at `pc`, adding its
/// marshalling or compute gas to `gas` at the point the model charges
/// it (some charge before a step that can still fail).
#[inline(never)]
fn hypercall(
    m: &mut Machine<'_>,
    i: Insn,
    pc: u32,
    ctx: &mut PalCtx<'_>,
    slots: &mut [Option<SealedBlob>],
    gas: &mut u64,
) -> Result<(), SeaError> {
    let (ra, rb, rc) = (i.a as usize, i.b as usize, i.c as usize);
    match i.op {
        op::RANDOM => {
            let n = m.regs[rb];
            if n > MEM_SIZE as u64 {
                return Err(trap(pc, "random draw exceeds memory"));
            }
            let bytes = ctx.random(n as usize)?;
            m.store(pc, m.regs[ra], &bytes)?;
            *gas += HYPERCALL_GAS + n;
        }
        op::SEAL => {
            let slot = i.imm as usize;
            if slot >= NUM_SLOTS {
                return Err(trap(pc, "seal slot out of range"));
            }
            let payload = m.load_buf(pc, m.regs[ra], "seal")?;
            *gas += HYPERCALL_GAS + payload.len() as u64;
            slots[slot] = Some(ctx.seal(&payload)?);
        }
        op::UNSEAL => {
            let slot = i.imm as usize;
            let blob = slots
                .get(slot)
                .and_then(Option::as_ref)
                .ok_or_else(|| trap(pc, "unseal of empty slot"))?;
            let payload = ctx.unseal(blob)?;
            *gas += HYPERCALL_GAS + payload.len() as u64;
            m.store_buf(pc, m.regs[ra], &payload)?;
        }
        op::MEASURE => {
            let digest: [u8; 20] = m.load_array(pc, m.regs[ra])?;
            ctx.measure_input(&digest)?;
            *gas += HYPERCALL_GAS + 20;
        }
        op::HASH => {
            let src = m.load_buf(pc, m.regs[rb], "hash")?;
            *gas += 60 + 2 * src.len() as u64;
            m.store(pc, m.regs[ra], &Sha1::digest(&src))?;
        }
        op::RSAGEN => {
            if i.imm as usize > RSA_MAX_BITS {
                return Err(trap(pc, "rsa key size over 2048 bits"));
            }
            let seed = m.load(pc, m.regs[rb], 32)?.to_vec();
            let mut rng = Drbg::new(&seed);
            let key = RsaPrivateKey::generate(i.imm as usize, &mut rng)
                .map_err(|_| trap(pc, "rsa keygen failed"))?;
            *gas += RSAGEN_GAS;
            m.store_buf(pc, m.regs[ra], &key.to_bytes())?;
        }
        op::RSAPUB => {
            let key = m.load_rsa_key(pc, m.regs[rb])?;
            *gas += RSAPUB_GAS;
            m.store_buf(pc, m.regs[ra], &key.public_key().to_bytes())?;
        }
        op::RSASIGN => {
            let key = m.load_rsa_key(pc, m.regs[rb])?;
            let digest: [u8; 20] = m.load_array(pc, m.regs[rc])?;
            *gas += RSASIGN_GAS;
            let sig = key
                .sign_pkcs1v15(&digest)
                .map_err(|_| trap(pc, "rsa signing failed"))?;
            m.store_buf(pc, m.regs[ra], &sig.0)?;
        }
        // decode_block validated the opcode, and only branches, TRAP,
        // YIELD and EXIT end a block.
        _ => unreachable!("a block body holds only known non-terminators"),
    }
    Ok(())
}

/// Executes a block's `TRAP`, `YIELD` or `EXIT` terminator at `pc`: the
/// ways a run ends without a fault.
#[cold]
fn leave(
    m: &Machine<'_>,
    t: Insn,
    pc: u32,
    ctx: &mut PalCtx<'_>,
    gas: &mut u64,
) -> Result<PalOutcome, SeaError> {
    match t.op {
        op::TRAP => Err(trap(pc, &format!("application trap code {}", t.imm))),
        op::YIELD => {
            let state = m.load_buf(pc, m.regs[t.a as usize], "yield state")?;
            *gas += HYPERCALL_GAS + state.len() as u64;
            ctx.set_state(state);
            Ok(PalOutcome::Yield)
        }
        op::EXIT => {
            let out = m.load_buf(pc, m.regs[t.a as usize], "exit output")?;
            *gas += HYPERCALL_GAS + out.len() as u64;
            ctx.set_state(Vec::new());
            Ok(PalOutcome::Exit(out))
        }
        // decode_block ends a block only at a branch or one of these.
        _ => unreachable!("a block terminator is a branch, TRAP, YIELD or EXIT"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_hw::{CpuId, TpmKind};
    use sea_tpm::{KeyStrength, Tpm};

    fn i(op: u8, a: u8, b: u8, c: u8, imm: u32) -> Insn {
        Insn { op, a, b, c, imm }
    }

    /// out[0] = 7: movi r5,7; build exit buf at heap (r2).
    fn exit7() -> Program {
        Program::new(
            vec![
                i(op::MOVI, 5, 0, 0, 7),
                i(op::MOVI, 6, 0, 0, 1),
                i(op::ST64, 2, 6, 0, 0),
                i(op::ST8, 2, 5, 0, 8),
                i(op::EXIT, 2, 0, 0, 0),
            ],
            Vec::new(),
        )
    }

    /// Sums 1..=n (n from imm) with a loop, exits the 8-byte LE sum.
    fn sum_loop(n: u32) -> Program {
        Program::new(
            vec![
                i(op::MOVI, 5, 0, 0, 0), // 0: acc
                i(op::MOVI, 6, 0, 0, 1), // 1: k = 1
                i(op::MOVI, 7, 0, 0, n), // 2: n
                i(op::MOVI, 8, 0, 0, 1), // 3: const 1
                i(op::JLT, 7, 6, 0, 8),  // 4: while !(n < k)
                i(op::ADD, 5, 5, 6, 0),  // 5: acc += k
                i(op::ADD, 6, 6, 8, 0),  // 6: k += 1
                i(op::JMP, 0, 0, 0, 4),  // 7: loop
                i(op::MOVI, 9, 0, 0, 8), // 8: exit: len 8
                i(op::ST64, 2, 9, 0, 0),
                i(op::ST64, 2, 5, 0, 8),
                i(op::EXIT, 2, 0, 0, 0),
            ],
            Vec::new(),
        )
    }

    fn run(pal: &mut VmPal, input: &[u8], state: Vec<u8>) -> Result<PalOutcome, SeaError> {
        let mut ctx = PalCtx::new(None, None, input, state);
        pal.run(&mut ctx)
    }

    #[test]
    fn image_is_serialized_program_and_round_trips() {
        let p = sum_loop(10);
        let pal = VmPal::new("sum", p.clone());
        let image = pal.image();
        assert_eq!(&image[..4], b"SVM1");
        assert_eq!(Program::parse(&image).unwrap(), p);
        assert!(Program::parse(&image[..image.len() - 1]).is_err());
        assert!(Program::parse(b"XXXX").is_err());
    }

    #[test]
    fn straight_line_program_exits() {
        let mut pal = VmPal::new("seven", exit7());
        assert_eq!(
            run(&mut pal, b"", Vec::new()).unwrap(),
            PalOutcome::Exit(vec![7])
        );
    }

    #[test]
    fn loop_computes_and_chains() {
        let mut pal = VmPal::new("sum", sum_loop(100));
        let out = run(&mut pal, b"", Vec::new()).unwrap();
        assert_eq!(out, PalOutcome::Exit(5050u64.to_le_bytes().to_vec()));
        let s = pal.stats();
        assert!(s.chain_hits > 90, "hot loop should chain: {s:?}");
        assert!(s.blocks_decoded <= 4, "{s:?}");
        assert_eq!(s.blocks_executed, s.chain_hits + s.cache_lookups);
    }

    #[test]
    fn chain_disabled_same_result_more_dispatch_gas() {
        let mut a = VmPal::new("sum", sum_loop(64));
        let mut b = VmPal::new("sum", sum_loop(64)).with_chaining(false);
        let ra = run(&mut a, b"", Vec::new()).unwrap();
        let rb = run(&mut b, b"", Vec::new()).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(b.stats().chain_hits, 0);
        assert_eq!(a.stats().retired, b.stats().retired);
        assert!(
            b.stats().dispatch_gas > a.stats().dispatch_gas,
            "chaining must reduce dispatch gas: {:?} vs {:?}",
            a.stats(),
            b.stats()
        );
    }

    #[test]
    fn gas_is_deterministic_across_invocations() {
        let mut a = VmPal::new("sum", sum_loop(50));
        let mut ctx1 = PalCtx::new(None, None, b"", Vec::new());
        a.run(&mut ctx1).unwrap();
        let first = (a.stats(), ctx1.work_done);
        a.reset_stats();
        let mut ctx2 = PalCtx::new(None, None, b"", Vec::new());
        a.run(&mut ctx2).unwrap();
        // The block cache is rebuilt every invocation, so a re-run is
        // charge-for-charge identical — no cross-invocation warmth.
        assert_eq!((a.stats(), ctx2.work_done), first);
        assert_eq!(
            SimDuration::from_ns(a.stats().total_gas),
            ctx2.work_done,
            "all gas flushes into ctx.work"
        );
    }

    /// Runs `p` once on a TPM-less context and returns all the model
    /// sees: the result, the seven counters, and the virtual time
    /// charged to the context.
    fn observe(p: &Program, chain: bool) -> (Result<PalOutcome, SeaError>, VmStats, SimDuration) {
        let mut pal = VmPal::new("probe", p.clone()).with_chaining(chain);
        let mut ctx = PalCtx::new(None, None, b"", Vec::new());
        let result = pal.run(&mut ctx);
        (result, pal.stats(), ctx.work_done)
    }

    /// The charge schedule on every way out of `run`, chaining on and
    /// off: result, all seven counters (retired, blocks executed,
    /// blocks decoded, chain hits, cache lookups, dispatch gas, total
    /// gas) and the work charged, which is always the total gas.
    #[test]
    fn charge_schedule_is_pinned_on_every_exit_path() {
        let p = |insns: Vec<Insn>| Program::new(insns, Vec::new());
        let trap_at = |pc: u32, msg: &str| format!("Err(PalFailed(\"vm trap: {msg} at pc {pc}\"))");
        let budget = "instruction budget exhausted";
        // (case, program, result, counters with chaining on, and off)
        type Counters = [u64; 7];
        let cases: Vec<(&str, Program, String, Counters, Counters)> = vec![
            (
                "exit",
                exit7(),
                "Ok(Exit([7]))".into(),
                [5, 1, 1, 0, 1, 42, 70],
                [5, 1, 1, 0, 1, 42, 70],
            ),
            (
                "yield",
                p(vec![
                    i(op::MOVI, 5, 0, 0, 1),
                    i(op::ST64, 2, 5, 0, 0),
                    i(op::MOVI, 6, 0, 0, 5),
                    i(op::ST8, 2, 6, 0, 8),
                    i(op::YIELD, 2, 0, 0, 0),
                ]),
                "Ok(Yield)".into(),
                [5, 1, 1, 0, 1, 42, 70],
                [5, 1, 1, 0, 1, 42, 70],
            ),
            (
                "trap",
                p(vec![i(op::MOVI, 5, 0, 0, 1), i(op::TRAP, 0, 0, 0, 42)]),
                trap_at(1, "application trap code 42"),
                [2, 1, 1, 0, 1, 24, 26],
                [2, 1, 1, 0, 1, 24, 26],
            ),
            (
                "divu by zero mid-block",
                p(vec![
                    i(op::MOVI, 5, 0, 0, 1),
                    i(op::DIVU, 5, 5, 6, 0),
                    i(op::MUL, 7, 5, 5, 0),
                    i(op::EXIT, 2, 0, 0, 0),
                ]),
                trap_at(1, "division by zero"),
                [2, 1, 1, 0, 1, 36, 57],
                [2, 1, 1, 0, 1, 36, 57],
            ),
            (
                "ld64 out of range mid-block",
                p(vec![
                    i(op::MOVI, 5, 0, 0, 1),
                    i(op::LD64, 6, 5, 0, 0xFFFF),
                    i(op::DIVU, 7, 5, 5, 0),
                    i(op::ST64, 2, 6, 0, 0),
                    i(op::EXIT, 2, 0, 0, 0),
                ]),
                trap_at(1, "load of 8 bytes at 65536 out of bounds"),
                [2, 1, 1, 0, 1, 42, 45],
                [2, 1, 1, 0, 1, 42, 45],
            ),
            (
                "st64 out of range",
                p(vec![i(op::MOVI, 5, 0, 0, 9), i(op::ST64, 5, 5, 0, 0xFFFF)]),
                trap_at(1, "store of 8 bytes at 65544 out of bounds"),
                [2, 1, 1, 0, 1, 24, 27],
                [2, 1, 1, 0, 1, 24, 27],
            ),
            (
                "off the code end",
                p(vec![i(op::MOVI, 5, 0, 0, 1), i(op::ADD, 5, 5, 5, 0)]),
                trap_at(2, "execution fell off the code end"),
                [2, 1, 1, 0, 1, 24, 26],
                [2, 1, 1, 0, 1, 24, 26],
            ),
            (
                "invalid opcode",
                p(vec![
                    i(op::MOVI, 5, 0, 0, 1),
                    i(op::JNZ, 5, 0, 0, 3),
                    i(op::TRAP, 0, 0, 0, 1),
                    i(op::MOVI, 6, 0, 0, 2),
                    i(0x40, 0, 0, 0, 0),
                ]),
                trap_at(4, "invalid opcode 0x40"),
                [2, 1, 1, 0, 2, 36, 38],
                [2, 1, 1, 0, 2, 36, 38],
            ),
            (
                "register field 16",
                p(vec![
                    i(op::MOVI, 5, 0, 0, 1),
                    i(op::JMP, 0, 0, 0, 3),
                    i(op::TRAP, 0, 0, 0, 1),
                    i(op::ADD, 5, 5, 16, 0),
                ]),
                trap_at(3, "register field out of range"),
                [2, 1, 1, 0, 2, 36, 38],
                [2, 1, 1, 0, 2, 36, 38],
            ),
            (
                "jump past the code end",
                p(vec![i(op::MOVI, 5, 0, 0, 1), i(op::JMP, 0, 0, 0, 10)]),
                trap_at(10, "jump target out of range"),
                [2, 1, 1, 0, 2, 36, 38],
                [2, 1, 1, 0, 2, 36, 38],
            ),
            (
                "jump to the code end",
                p(vec![i(op::MOVI, 5, 0, 0, 1), i(op::JMP, 0, 0, 0, 2)]),
                trap_at(2, "execution fell off the code end"),
                [2, 2, 2, 0, 2, 36, 38],
                [2, 2, 2, 0, 2, 36, 38],
            ),
            (
                "jmp 0 spin",
                p(vec![i(op::JMP, 0, 0, 0, 0)]),
                trap_at(0, budget),
                [
                    5_000_001, 5_000_001, 1, 4_999_999, 2, 10_000_028, 15_000_029,
                ],
                [
                    5_000_001, 5_000_001, 1, 0, 5_000_001, 60_000_018, 65_000_019,
                ],
            ),
            (
                // 5,000,000 is not a multiple of 3: the budget runs out
                // inside a block, at its terminator.
                "three-instruction loop out of budget",
                p(vec![
                    i(op::ADD, 5, 5, 6, 0),
                    i(op::ADD, 6, 6, 5, 0),
                    i(op::JMP, 0, 0, 0, 0),
                ]),
                trap_at(2, budget),
                [5_000_001, 1_666_667, 1, 1_666_665, 2, 3_333_372, 8_333_373],
                [
                    5_000_001, 1_666_667, 1, 0, 1_666_667, 20_000_022, 25_000_023,
                ],
            ),
            (
                // Seven instructions of mixed gas, entered through an
                // eight-instruction first block: the budget runs out
                // at pc 5, before the block's terminator.
                "mixed-gas loop out of budget mid-block",
                p(vec![
                    i(op::MOVI, 6, 0, 0, 3),
                    i(op::DIVU, 5, 7, 6, 0), // 1: loop head
                    i(op::MUL, 8, 5, 6, 0),
                    i(op::LD64, 9, 2, 0, 0),
                    i(op::ST8, 2, 9, 0, 8),
                    i(op::ADD, 7, 7, 8, 0),
                    i(op::ADDI, 10, 10, 0, 1),
                    i(op::JMP, 0, 0, 0, 1),
                ]),
                trap_at(5, budget),
                [5_000_001, 714_286, 2, 714_283, 3, 1_428_692, 22_857_271],
                [5_000_001, 714_286, 2, 0, 714_286, 8_571_522, 30_000_101],
            ),
            (
                "hypercall fails mid-block",
                p(vec![
                    i(op::MOVI, 5, 0, 0, 4),
                    i(op::RANDOM, 2, 5, 0, 0),
                    i(op::MOVI, 6, 0, 0, 1),
                    i(op::EXIT, 2, 0, 0, 0),
                ]),
                "Err(NoTpm)".into(),
                [2, 1, 1, 0, 1, 36, 38],
                [2, 1, 1, 0, 1, 36, 38],
            ),
            (
                "both branch edges",
                sum_loop(10),
                "Ok(Exit([55, 0, 0, 0, 0, 0, 0, 0]))".into(),
                [49, 22, 4, 17, 5, 172, 251],
                [49, 22, 4, 0, 22, 342, 421],
            ),
        ];
        for (name, program, result, on, off) in &cases {
            for (chain, want) in [(true, on), (false, off)] {
                let (got, s, work) = observe(program, chain);
                let counters = [
                    s.retired,
                    s.blocks_executed,
                    s.blocks_decoded,
                    s.chain_hits,
                    s.cache_lookups,
                    s.dispatch_gas,
                    s.total_gas,
                ];
                let case = format!("{name}, chaining {chain}");
                assert_eq!(&format!("{got:?}"), result, "{case}");
                assert_eq!(&counters, want, "{case}");
                assert_eq!(work, SimDuration::from_ns(want[6]), "{case}");
            }
        }
    }

    /// Serializes a private key from raw parts, as `to_bytes` would.
    fn crafted_key(n: &[u8], e: &[u8], d: &[u8]) -> Vec<u8> {
        let mut key = Vec::new();
        for part in [n, e, d] {
            key.extend_from_slice(&(part.len() as u32).to_be_bytes());
            key.extend_from_slice(part);
        }
        key
    }

    #[test]
    fn rsa_hypercalls_refuse_oversized_keys_up_front() {
        // Keygen above 2,048 bits would run for seconds or forever on
        // flat gas; it traps before any keygen starts.
        for bits in [4_096, 0xFFFF_FFFE] {
            let p = Program::new(vec![i(op::RSAGEN, 2, 5, 0, bits)], Vec::new());
            let err = run(&mut VmPal::new("gen", p), b"", Vec::new()).unwrap_err();
            assert_eq!(err, trap(0, "rsa key size over 2048 bits"));
        }
        // A key as long as a serialized 2,048-bit one is parsed; one
        // byte longer is refused by both key hypercalls before parsing.
        let max = crafted_key(&[0xFF; 256], &[1, 0, 1], &[0x7F; 256]);
        assert_eq!(max.len(), RSA_MAX_KEY_BYTES);
        let long = crafted_key(&[0xFF; 257], &[1, 0, 1], &[0x7F; 256]);
        for (key, opcode) in [
            (&max, op::RSAPUB),
            (&long, op::RSAPUB),
            (&long, op::RSASIGN),
        ] {
            let mut data = (key.len() as u64).to_le_bytes().to_vec();
            data.extend_from_slice(key);
            let p = Program::new(vec![i(opcode, 2, 5, 6, 0), i(op::EXIT, 2, 0, 0, 0)], data);
            let got = run(&mut VmPal::new("key", p), b"", Vec::new());
            if key.len() > RSA_MAX_KEY_BYTES {
                assert_eq!(got, Err(trap(0, "rsa key longer than a 2048-bit key")));
            } else {
                // The encoded public half: length-prefixed `n` and `e`.
                assert!(matches!(got, Ok(PalOutcome::Exit(enc)) if enc.len() == 4 + 256 + 4 + 3));
            }
        }
    }

    /// SplitMix64: the seeded stream behind the arbitrary-program corpus.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn bytes(&mut self, max_len: u64) -> Vec<u8> {
            let len = self.below(max_len + 1);
            (0..len).map(|_| self.next() as u8).collect()
        }
    }

    const KNOWN_OPS: [u8; 32] = [
        0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F,
        0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16, 0x20, 0x21, 0x22, 0x23, 0x24, 0x25, 0x30, 0x31,
        0x32, 0x33,
    ];

    /// An arbitrary program: opcodes mostly known but sometimes any byte,
    /// register fields sometimes up to 20, and `imm` mostly a forward
    /// jump target (up to one past the code end) or a small literal,
    /// rarely any target (so a loop can form) or any value at all.
    fn arbitrary_program(r: &mut Mix) -> Program {
        let len = 1 + r.below(24) as u32;
        let insns = (0..len)
            .map(|pc| {
                let op = match r.below(32) {
                    0 => r.next() as u8,
                    1..=4 => KNOWN_OPS[21 + r.below(11) as usize],
                    _ => KNOWN_OPS[r.below(21) as usize],
                };
                let mut reg = || {
                    if r.below(64) == 0 {
                        r.below(21) as u8
                    } else {
                        r.below(16) as u8
                    }
                };
                let (a, b, c) = (reg(), reg(), reg());
                let imm = match r.below(64) {
                    0..=31 => pc + 1 + r.below(u64::from(len - pc)) as u32,
                    32..=55 => r.below(64) as u32,
                    56..=61 => r.below(u64::from(len)) as u32,
                    _ => r.next() as u32,
                };
                Insn { op, a, b, c, imm }
            })
            .collect();
        Program::new(insns, r.bytes(64))
    }

    /// The VM is total over arbitrary images: every run ends in `Exit`,
    /// `Yield` or a typed error, the counters stay consistent, and the
    /// two dispatch modes differ only in dispatch gas. The digest folds
    /// every run's result, counters, work and state, so the corpus also
    /// pins the charge schedule.
    #[test]
    fn arbitrary_programs_run_totally_and_pin_the_schedule() {
        let mut r = Mix(20_080_317);
        let mut digest = Sha1::new();
        for case in 0..400 {
            let program = arbitrary_program(&mut r);
            let input = r.bytes(64);
            let state = r.bytes(32);
            let mut seen = Vec::new();
            for chain in [true, false] {
                let mut pal = VmPal::new("arbitrary", program.clone()).with_chaining(chain);
                let mut ctx = PalCtx::new(None, None, &input, state.clone());
                let result = pal.run(&mut ctx);
                let (s, work) = (pal.stats(), ctx.work_done);
                let end_state = ctx.into_state();
                let why = format!("case {case}, chaining {chain}: {result:?} {s:?}");
                assert!(
                    matches!(
                        result,
                        Ok(_) | Err(SeaError::PalFailed(_) | SeaError::NoTpm)
                    ),
                    "{why}"
                );
                assert_eq!(SimDuration::from_ns(s.total_gas), work, "{why}");
                // Every dispatch is a chain hit or a lookup; only a lookup
                // that fails (bad target, or a block that fails to decode)
                // leaves no block executed.
                let failed_dispatch = matches!(&result, Err(SeaError::PalFailed(m))
                    if ["jump target out of range", "invalid opcode", "register field"]
                        .iter()
                        .any(|cause| m.contains(cause)));
                assert_eq!(
                    s.blocks_executed + u64::from(failed_dispatch),
                    s.chain_hits + s.cache_lookups,
                    "{why}"
                );
                digest.update_bytes(
                    format!("{result:?} {s:?} {} {end_state:?}\n", work.as_ns()).as_bytes(),
                );
                seen.push((result, s.retired, s.total_gas - s.dispatch_gas, end_state));
            }
            assert_eq!(seen[0], seen[1], "case {case}: dispatch modes disagree");
        }
        let hex: String = digest
            .finalize_fixed()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, "996b0b42d1c0c29fc463eca597b8277f8cb738c4");
    }

    #[test]
    fn yield_persists_state_and_resume_sees_it() {
        // First call: state empty (r3 = 0) → yield byte 5. Resume:
        // state present → exit the state payload.
        let p = Program::new(
            vec![
                i(op::JNZ, 3, 0, 0, 6),   // 0: state present → 6
                i(op::MOVI, 5, 0, 0, 1),  // 1
                i(op::ST64, 2, 5, 0, 0),  // 2
                i(op::MOVI, 6, 0, 0, 5),  // 3
                i(op::ST8, 2, 6, 0, 8),   // 4
                i(op::YIELD, 2, 0, 0, 0), // 5
                i(op::EXIT, 3, 0, 0, 0),  // 6: exit the state buffer
            ],
            Vec::new(),
        );
        let mut pal = VmPal::new("yielder", p);
        let mut ctx = PalCtx::new(None, None, b"", Vec::new());
        assert_eq!(pal.run(&mut ctx).unwrap(), PalOutcome::Yield);
        let state = ctx.into_state();
        assert_eq!(state, vec![5]);
        let mut ctx2 = PalCtx::new(None, None, b"", state);
        assert_eq!(pal.run(&mut ctx2).unwrap(), PalOutcome::Exit(vec![5]));
        // EXIT relinquishes in-region state.
        assert!(ctx2.into_state().is_empty());
    }

    #[test]
    fn seal_unseal_round_trip_through_slots() {
        // Seal the input; on the next invocation (slot occupied, bit 0
        // of r4 set) unseal it and exit the plaintext.
        let p = Program::new(
            vec![
                i(op::MOVI, 5, 0, 0, 1),
                i(op::AND, 5, 4, 5, 0),  // r5 = slot-0 bit
                i(op::JNZ, 5, 0, 0, 8),  // occupied → unseal path
                i(op::SEAL, 0, 0, 0, 0), // seal the input buffer
                i(op::MOVI, 6, 0, 0, 0), // exit empty
                i(op::ST64, 2, 6, 0, 0),
                i(op::EXIT, 2, 0, 0, 0),
                i(op::TRAP, 0, 0, 0, 9),   // 7: unreachable
                i(op::UNSEAL, 2, 0, 0, 0), // 8
                i(op::EXIT, 2, 0, 0, 0),
            ],
            Vec::new(),
        );
        let mut tpm = Tpm::new(TpmKind::Broadcom, KeyStrength::Demo512, b"vm test").with_sepcrs(2);
        let mut pal = VmPal::new("sealer", p);
        let image = pal.image();
        let handle = tpm.slaunch_measure(&image, CpuId(0)).unwrap().value;
        let binding = crate::pal::SealBinding::SePcr {
            handle,
            cpu: CpuId(0),
        };
        let mut ctx = PalCtx::new(Some(&mut tpm), Some(binding.clone()), b"secret", Vec::new());
        assert_eq!(pal.run(&mut ctx).unwrap(), PalOutcome::Exit(Vec::new()));
        drop(ctx);
        assert!(pal.slot(0).is_some());
        let mut ctx2 = PalCtx::new(Some(&mut tpm), Some(binding), b"", Vec::new());
        assert_eq!(
            pal.run(&mut ctx2).unwrap(),
            PalOutcome::Exit(b"secret".to_vec())
        );
    }

    #[test]
    fn tpm_ops_without_tpm_propagate_no_tpm() {
        let p = Program::new(
            vec![
                i(op::MOVI, 5, 0, 0, 4),
                i(op::RANDOM, 2, 5, 0, 0),
                i(op::TRAP, 0, 0, 0, 0),
            ],
            Vec::new(),
        );
        let err = run(&mut VmPal::new("rng", p), b"", Vec::new()).unwrap_err();
        assert_eq!(err, SeaError::NoTpm);
    }

    #[test]
    fn hash_matches_sha1() {
        // Hash the input buffer (already length-prefixed at r0), write
        // the digest, exit it as a 20-byte output.
        let p = Program::new(
            vec![
                i(op::MOVI, 5, 0, 0, 20),
                i(op::ST64, 2, 5, 0, 0), // out len = 20
                i(op::ADDI, 6, 2, 0, 8), // digest dst = heap + 8
                i(op::HASH, 6, 0, 0, 0),
                i(op::EXIT, 2, 0, 0, 0),
            ],
            Vec::new(),
        );
        let out = run(&mut VmPal::new("hash", p), b"abc", Vec::new()).unwrap();
        assert_eq!(out, PalOutcome::Exit(Sha1::digest(b"abc").to_vec()));
    }

    #[test]
    fn data_segment_loads_at_address_zero() {
        let p = Program::new(
            vec![
                i(op::MOVI, 5, 0, 0, 0),
                i(op::LD64, 6, 5, 0, 0), // r6 = data[0..8]
                i(op::MOVI, 7, 0, 0, 8),
                i(op::ST64, 2, 7, 0, 0),
                i(op::ST64, 2, 6, 0, 8),
                i(op::EXIT, 2, 0, 0, 0),
            ],
            0xDEAD_BEEF_u64.to_le_bytes().to_vec(),
        );
        let out = run(&mut VmPal::new("data", p), b"", Vec::new()).unwrap();
        assert_eq!(
            out,
            PalOutcome::Exit(0xDEAD_BEEF_u64.to_le_bytes().to_vec())
        );
    }
}
