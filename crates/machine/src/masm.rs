//! The macro-assembler boundary between the single-pass compiler and its
//! target backends.
//!
//! Every production baseline compiler surveyed by the paper is structured
//! around a *macro-assembler*: the translation strategy (one forward pass
//! driven by abstract interpretation) is written once against a set of
//! semantic operations — "load this value-stack slot", "store this value
//! tag", "branch to this label", "call this function" — and each target ISA
//! provides its own expansion of those operations into machine code. That
//! separation is what lets one compiler design serve many ISAs.
//!
//! [`Masm`] is this reproduction's macro-assembler trait. It exposes exactly
//! the operations the single-pass compiler in `crates/core` needs, and no
//! more. Two backends implement it:
//!
//! * the virtual-ISA [`crate::asm::Assembler`], which produces a
//!   [`crate::asm::CodeBuffer`] of [`MachInst`]s executed by the
//!   CPU simulator — the measurement path; and
//! * [`crate::x64_masm::X64Masm`], which expands the same
//!   operations into real x86-64 machine bytes with its own label patching,
//!   source map, and runtime relocations — the demonstration that the
//!   emission side of the design is conventional.
//!
//! Operations that key engine-side metadata (calls and probes) return an
//! opaque *site index*: the virtual backend returns the instruction index,
//! the x86-64 backend the byte offset of the emitted sequence. The compiler
//! stores those indices in its call-site/probe-site/stackmap tables without
//! interpreting them.

use crate::asm::{Assembler, CodeBuffer};
use crate::inst::{
    AluOp, CmpOp, ConvOp, FAluOp, FCmpOp, FUnOp, Label, MachInst, TrapCode, UnOp, Width,
};
use crate::reg::{AnyReg, FReg, Reg};
use crate::values::ValueTag;

/// Which code-emission backend an engine configuration uses.
///
/// The virtual ISA is the only backend the CPU simulator can *execute*; the
/// x86-64 backend emits real machine bytes (for code-size figures and
/// encoding validation) but cannot run them here, because the offline
/// environment provides no way to map executable pages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum CodeBackend {
    /// Emit virtual-ISA instructions into a [`CodeBuffer`] (executable by
    /// the simulator). The default.
    #[default]
    VirtualIsa,
    /// Emit real x86-64 machine bytes through
    /// [`crate::x64_masm::X64Masm`].
    X64,
}

/// Appends a `(position, bytecode offset)` entry to a source map,
/// collapsing marks at the same code position (the latest mark wins, so
/// empty ranges vanish).
///
/// Both backends record their source maps through this helper; the
/// cross-backend differential tests rely on the collapse behaviour being
/// identical so the two maps carry the same bytecode-offset sequence.
pub fn push_source_mark<P: PartialEq>(map: &mut Vec<(P, u32)>, at: P, offset: u32) {
    if let Some(last) = map.last_mut() {
        if last.0 == at {
            last.1 = offset;
            return;
        }
    }
    map.push((at, offset));
}

/// The macro-assembler operations the single-pass compiler emits through.
///
/// Implementations are *append-only* forward emitters with forward-reference
/// label patching, mirroring how real baseline compilers patch relative
/// displacements. See the module docs for the backend contract.
pub trait Masm {
    /// The finished-code type this backend produces.
    type Output;

    // ---- Labels and positions ------------------------------------------

    /// Allocates a fresh, unbound label.
    fn new_label(&mut self) -> Label;

    /// Allocates a label already bound to the current position.
    fn new_bound_label(&mut self) -> Label {
        let label = self.new_label();
        self.bind(label);
        label
    }

    /// Binds a label to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    fn bind(&mut self, label: Label);

    /// Records that code emitted from here on originates from the Wasm
    /// bytecode offset `offset` (the source map used for stack traces,
    /// instrumentation, and tier-down).
    fn mark_source(&mut self, offset: u32);

    /// The number of macro operations emitted so far (a backend-independent
    /// instruction count for compile statistics).
    fn num_insts(&self) -> usize;

    /// The current emission position, in the same units as the site indices
    /// this backend returns from calls and probes (instruction index for the
    /// virtual ISA, byte offset for byte-level backends). Code emitted next
    /// starts here; OSR entry stubs record this as their entry point.
    fn position(&self) -> usize;

    /// The size of the code emitted so far, in bytes (estimated for the
    /// virtual ISA, exact for byte-level backends).
    fn code_size(&self) -> usize;

    /// Finishes emission, resolving all labels.
    ///
    /// # Panics
    ///
    /// Panics if any allocated label was never bound; a compiler bug.
    fn finish(self) -> Self::Output;

    // ---- Moves, slots, and tags ----------------------------------------

    /// Loads an integer immediate into a GPR.
    fn mov_imm(&mut self, dst: Reg, imm: i64);
    /// Loads raw IEEE-754 bits into an FPR.
    fn fmov_imm(&mut self, dst: FReg, bits: u64);
    /// Register-to-register move between GPRs.
    fn mov(&mut self, dst: Reg, src: Reg);
    /// Register-to-register move between FPRs.
    fn fmov(&mut self, dst: FReg, src: FReg);
    /// Loads a value-stack slot (relative to the frame base) into a register.
    fn load_slot(&mut self, dst: AnyReg, slot: u32);
    /// Stores a register into a value-stack slot.
    fn store_slot(&mut self, slot: u32, src: AnyReg);
    /// Stores an immediate directly into a value-stack slot.
    fn store_slot_imm(&mut self, slot: u32, imm: i64);
    /// Stores a value tag for a slot (the dynamic cost the paper's tag
    /// optimizations eliminate).
    fn store_tag(&mut self, slot: u32, tag: ValueTag);

    // ---- Arithmetic ----------------------------------------------------

    /// Three-address integer ALU operation.
    fn alu(&mut self, op: AluOp, width: Width, dst: Reg, a: Reg, b: Reg);
    /// Integer ALU operation with an immediate right operand (the paper's
    /// immediate-mode instruction selection).
    fn alu_imm(&mut self, op: AluOp, width: Width, dst: Reg, a: Reg, imm: i64);
    /// Single-operand integer operation.
    fn unop(&mut self, op: UnOp, width: Width, dst: Reg, src: Reg);
    /// Integer comparison producing 0/1.
    fn cmp(&mut self, op: CmpOp, width: Width, dst: Reg, a: Reg, b: Reg);
    /// Integer comparison against an immediate.
    fn cmp_imm(&mut self, op: CmpOp, width: Width, dst: Reg, a: Reg, imm: i64);
    /// Three-address floating-point operation.
    fn falu(&mut self, op: FAluOp, width: Width, dst: FReg, a: FReg, b: FReg);
    /// Single-operand floating-point operation.
    fn funop(&mut self, op: FUnOp, width: Width, dst: FReg, src: FReg);
    /// Floating-point comparison producing 0/1 in a GPR.
    fn fcmp(&mut self, op: FCmpOp, width: Width, dst: Reg, a: FReg, b: FReg);
    /// Numeric conversion (register banks are determined by the conversion).
    fn convert(&mut self, op: ConvOp, dst: AnyReg, src: AnyReg);
    /// Integer select: `dst = if cond != 0 { if_true } else { if_false }`.
    fn select(&mut self, dst: Reg, cond: Reg, if_true: Reg, if_false: Reg);
    /// Floating-point select.
    fn fselect(&mut self, dst: FReg, cond: Reg, if_true: FReg, if_false: FReg);

    // ---- Linear memory and globals -------------------------------------

    /// Load from linear memory: `width` bytes at `[addr + offset]`,
    /// optionally sign-extended, into a `dst_width` destination value.
    fn mem_load(
        &mut self,
        dst: AnyReg,
        addr: Reg,
        offset: u32,
        width: u32,
        signed: bool,
        dst_width: Width,
    );
    /// Store `width` bytes of `src` to linear memory at `[addr + offset]`.
    fn mem_store(&mut self, src: AnyReg, addr: Reg, offset: u32, width: u32);
    /// `memory.size` in pages.
    fn memory_size(&mut self, dst: Reg);
    /// `memory.grow` by a page delta.
    fn memory_grow(&mut self, dst: Reg, delta: Reg);
    /// Reads a global into a register.
    fn global_get(&mut self, dst: AnyReg, index: u32);
    /// Writes a register into a global.
    fn global_set(&mut self, index: u32, src: AnyReg);

    // ---- Control flow --------------------------------------------------

    /// Unconditional jump.
    fn jump(&mut self, target: Label);
    /// Conditional branch on a register being non-zero (or zero if negated).
    fn br_if(&mut self, cond: Reg, target: Label, negate: bool);
    /// Multi-way branch (jump table).
    fn br_table(&mut self, index: Reg, targets: Vec<Label>, default: Label);
    /// Direct call; returns the call's site index for engine metadata.
    fn call(&mut self, func_index: u32) -> usize;
    /// Indirect call through a table; returns the call's site index.
    fn call_indirect(&mut self, type_index: u32, table_index: u32, index: Reg) -> usize;
    /// Unconditional trap.
    fn trap(&mut self, code: TrapCode);
    /// Return from the function (results already stored per the calling
    /// convention).
    fn ret(&mut self);

    // ---- Metering ------------------------------------------------------

    /// Deduct `amount` fuel from the instance budget, trapping with
    /// [`TrapCode::OutOfFuel`] on exhaustion. A no-op when the executing
    /// instance has no fuel limit.
    fn fuel_check(&mut self, amount: u64);
    /// Poll the engine epoch, trapping with [`TrapCode::Interrupted`] once it
    /// passes the instance deadline. A no-op without a deadline.
    fn epoch_check(&mut self);

    // ---- Probes --------------------------------------------------------

    /// Unoptimized probe (runtime lookup); returns the probe's site index.
    fn probe_runtime(&mut self, probe_id: u32) -> usize;
    /// Optimized direct-call probe; returns the probe's site index.
    fn probe_direct(&mut self, probe_id: u32) -> usize;
    /// Fully intrinsified counter probe; returns the probe's site index.
    fn probe_counter(&mut self, counter_id: u32) -> usize;
    /// Optimized probe passing the top-of-stack value directly; returns the
    /// probe's site index.
    fn probe_tos(&mut self, probe_id: u32, src: AnyReg) -> usize;
}

/// The virtual-ISA backend: every macro operation is exactly one
/// [`MachInst`], and site indices are instruction indices — the engine uses
/// them to resume execution after calls and probes.
impl Masm for Assembler {
    type Output = CodeBuffer;

    fn new_label(&mut self) -> Label {
        Assembler::new_label(self)
    }

    fn bind(&mut self, label: Label) {
        Assembler::bind(self, label)
    }

    fn mark_source(&mut self, offset: u32) {
        Assembler::mark_source(self, offset)
    }

    fn num_insts(&self) -> usize {
        self.len()
    }

    fn position(&self) -> usize {
        self.len()
    }

    fn code_size(&self) -> usize {
        Assembler::code_size(self)
    }

    fn finish(self) -> CodeBuffer {
        Assembler::finish(self)
    }

    fn mov_imm(&mut self, dst: Reg, imm: i64) {
        self.emit(MachInst::MovImm { dst, imm });
    }

    fn fmov_imm(&mut self, dst: FReg, bits: u64) {
        self.emit(MachInst::FMovImm { dst, bits });
    }

    fn mov(&mut self, dst: Reg, src: Reg) {
        self.emit(MachInst::Mov { dst, src });
    }

    fn fmov(&mut self, dst: FReg, src: FReg) {
        self.emit(MachInst::FMov { dst, src });
    }

    fn load_slot(&mut self, dst: AnyReg, slot: u32) {
        self.emit(MachInst::LoadSlot { dst, slot });
    }

    fn store_slot(&mut self, slot: u32, src: AnyReg) {
        self.emit(MachInst::StoreSlot { slot, src });
    }

    fn store_slot_imm(&mut self, slot: u32, imm: i64) {
        self.emit(MachInst::StoreSlotImm { slot, imm });
    }

    fn store_tag(&mut self, slot: u32, tag: ValueTag) {
        self.emit(MachInst::StoreTag { slot, tag });
    }

    fn alu(&mut self, op: AluOp, width: Width, dst: Reg, a: Reg, b: Reg) {
        self.emit(MachInst::Alu { op, width, dst, a, b });
    }

    fn alu_imm(&mut self, op: AluOp, width: Width, dst: Reg, a: Reg, imm: i64) {
        self.emit(MachInst::AluImm { op, width, dst, a, imm });
    }

    fn unop(&mut self, op: UnOp, width: Width, dst: Reg, src: Reg) {
        self.emit(MachInst::Unop { op, width, dst, src });
    }

    fn cmp(&mut self, op: CmpOp, width: Width, dst: Reg, a: Reg, b: Reg) {
        self.emit(MachInst::Cmp { op, width, dst, a, b });
    }

    fn cmp_imm(&mut self, op: CmpOp, width: Width, dst: Reg, a: Reg, imm: i64) {
        self.emit(MachInst::CmpImm { op, width, dst, a, imm });
    }

    fn falu(&mut self, op: FAluOp, width: Width, dst: FReg, a: FReg, b: FReg) {
        self.emit(MachInst::FAlu { op, width, dst, a, b });
    }

    fn funop(&mut self, op: FUnOp, width: Width, dst: FReg, src: FReg) {
        self.emit(MachInst::FUnop { op, width, dst, src });
    }

    fn fcmp(&mut self, op: FCmpOp, width: Width, dst: Reg, a: FReg, b: FReg) {
        self.emit(MachInst::FCmp { op, width, dst, a, b });
    }

    fn convert(&mut self, op: ConvOp, dst: AnyReg, src: AnyReg) {
        self.emit(MachInst::Convert { op, dst, src });
    }

    fn select(&mut self, dst: Reg, cond: Reg, if_true: Reg, if_false: Reg) {
        self.emit(MachInst::Select { dst, cond, if_true, if_false });
    }

    fn fselect(&mut self, dst: FReg, cond: Reg, if_true: FReg, if_false: FReg) {
        self.emit(MachInst::FSelect { dst, cond, if_true, if_false });
    }

    fn mem_load(
        &mut self,
        dst: AnyReg,
        addr: Reg,
        offset: u32,
        width: u32,
        signed: bool,
        dst_width: Width,
    ) {
        self.emit(MachInst::MemLoad { dst, addr, offset, width, signed, dst_width });
    }

    fn mem_store(&mut self, src: AnyReg, addr: Reg, offset: u32, width: u32) {
        self.emit(MachInst::MemStore { src, addr, offset, width });
    }

    fn memory_size(&mut self, dst: Reg) {
        self.emit(MachInst::MemorySize { dst });
    }

    fn memory_grow(&mut self, dst: Reg, delta: Reg) {
        self.emit(MachInst::MemoryGrow { dst, delta });
    }

    fn global_get(&mut self, dst: AnyReg, index: u32) {
        self.emit(MachInst::GlobalGet { dst, index });
    }

    fn global_set(&mut self, index: u32, src: AnyReg) {
        self.emit(MachInst::GlobalSet { index, src });
    }

    fn jump(&mut self, target: Label) {
        self.emit(MachInst::Jump { target });
    }

    fn br_if(&mut self, cond: Reg, target: Label, negate: bool) {
        self.emit(MachInst::BrIf { cond, target, negate });
    }

    fn br_table(&mut self, index: Reg, targets: Vec<Label>, default: Label) {
        Assembler::br_table(self, index, &targets, default);
    }

    fn call(&mut self, func_index: u32) -> usize {
        self.emit(MachInst::Call { func_index })
    }

    fn call_indirect(&mut self, type_index: u32, table_index: u32, index: Reg) -> usize {
        self.emit(MachInst::CallIndirect { type_index, table_index, index })
    }

    fn trap(&mut self, code: TrapCode) {
        self.emit(MachInst::Trap { code });
    }

    fn ret(&mut self) {
        self.emit(MachInst::Return);
    }

    fn fuel_check(&mut self, amount: u64) {
        self.emit(MachInst::FuelCheck { amount });
    }

    fn epoch_check(&mut self) {
        self.emit(MachInst::EpochCheck);
    }

    fn probe_runtime(&mut self, probe_id: u32) -> usize {
        self.emit(MachInst::ProbeRuntime { probe_id })
    }

    fn probe_direct(&mut self, probe_id: u32) -> usize {
        self.emit(MachInst::ProbeDirect { probe_id })
    }

    fn probe_counter(&mut self, counter_id: u32) -> usize {
        self.emit(MachInst::ProbeCounter { counter_id })
    }

    fn probe_tos(&mut self, probe_id: u32, src: AnyReg) -> usize {
        self.emit(MachInst::ProbeTosValue { probe_id, src })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a backend through one shape of every operation class.
    fn exercise<M: Masm>(mut m: M) -> M {
        let r1 = Reg(1);
        let r2 = Reg(2);
        let f1 = FReg(1);
        let f2 = FReg(2);
        m.mark_source(0);
        m.mov_imm(r1, 7);
        m.fmov_imm(f1, 1.5f64.to_bits());
        m.mov(r2, r1);
        m.fmov(f2, f1);
        m.load_slot(AnyReg::Gpr(r1), 0);
        m.store_slot(1, AnyReg::Fpr(f1));
        m.store_slot_imm(2, -1);
        m.store_tag(2, ValueTag::I64);
        m.alu(AluOp::Add, Width::W32, r1, r1, r2);
        m.alu_imm(AluOp::Shl, Width::W64, r1, r2, 3);
        m.unop(UnOp::Eqz, Width::W32, r1, r2);
        m.cmp(CmpOp::LtS, Width::W64, r1, r1, r2);
        m.cmp_imm(CmpOp::Eq, Width::W32, r1, r2, 5);
        m.falu(FAluOp::Mul, Width::W64, f1, f1, f2);
        m.funop(FUnOp::Sqrt, Width::W32, f1, f2);
        m.fcmp(FCmpOp::Le, Width::W64, r1, f1, f2);
        m.convert(ConvOp::F64ConvertI32S, AnyReg::Fpr(f1), AnyReg::Gpr(r1));
        m.select(r1, r2, r1, r2);
        m.fselect(f1, r1, f1, f2);
        m.mem_load(AnyReg::Gpr(r1), r2, 4, 4, true, Width::W64);
        m.mem_store(AnyReg::Gpr(r1), r2, 4, 2);
        m.memory_size(r1);
        m.memory_grow(r1, r2);
        m.global_get(AnyReg::Gpr(r1), 0);
        m.global_set(0, AnyReg::Gpr(r1));
        let skip = m.new_label();
        m.br_if(r1, skip, true);
        let loop_top = m.new_bound_label();
        m.mark_source(9);
        let c = m.call(3);
        let ci = m.call_indirect(0, 0, r1);
        assert!(ci >= c, "site indices advance monotonically");
        m.probe_runtime(0);
        m.probe_direct(1);
        m.probe_counter(2);
        m.probe_tos(3, AnyReg::Gpr(r1));
        m.fuel_check(4);
        m.epoch_check();
        m.jump(loop_top);
        m.bind(skip);
        let end = m.new_label();
        m.br_table(r1, vec![skip, loop_top], end);
        m.bind(end);
        m.trap(TrapCode::Unreachable);
        m.ret();
        assert!(m.num_insts() > 0);
        assert!(m.code_size() > 0);
        m
    }

    #[test]
    fn virtual_backend_emits_one_inst_per_operation() {
        let asm = exercise(Assembler::new());
        // Virtual backend: macro ops map 1:1 onto MachInsts.
        let code = Masm::finish(asm);
        assert_eq!(code.len(), 38);
        assert!(code.source_map().len() == 2);
    }

    #[test]
    fn backend_default_is_virtual() {
        assert_eq!(CodeBackend::default(), CodeBackend::VirtualIsa);
    }
}
