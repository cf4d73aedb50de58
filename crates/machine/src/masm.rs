//! The macro-assembler boundary between the compilers and their target
//! backends.
//!
//! Every production baseline compiler surveyed by the paper is structured
//! around a *macro-assembler*: the translation strategy (one forward pass
//! driven by abstract interpretation) is written once against a set of
//! semantic operations — "load this value-stack slot", "store this value
//! tag", "branch to this label", "call this function" — and each target ISA
//! provides its own expansion of those operations into machine code. That
//! separation is what lets one compiler design serve many ISAs.
//!
//! [`Masm`] is this reproduction's macro-assembler trait, and its vocabulary
//! is the virtual instruction set itself: the operation *is* the
//! [`MachInst`], handed to [`Masm::emit`], so the list of operations is
//! written once (the enum) and expanded once per backend. Two backends
//! implement it:
//!
//! * the virtual-ISA [`crate::asm::Assembler`], which appends the
//!   instruction to a [`CodeBuffer`] executed by the CPU simulator — the
//!   measurement path; and
//! * [`crate::x64_masm::X64Masm`], which expands the same
//!   instruction into real x86-64 machine bytes with its own label patching,
//!   source map, and runtime relocations — the demonstration that the
//!   emission side of the design is conventional.
//!
//! A finished [`CodeBuffer`] is therefore a complete recording of the calls
//! that produced it, and [`reemit`] replays one into another backend: that
//! is how the engine gets x86-64 bytes without translating a function twice.
//!
//! [`Masm::emit`] returns an opaque *site index*: the virtual backend
//! returns the instruction index, the x86-64 backend the byte offset of the
//! emitted sequence. The compilers store the indices of calls and probes in
//! their call-site/probe-site/stackmap tables without interpreting them.

use crate::asm::CodeBuffer;
use crate::inst::{Label, MachInst};
use crate::reg::Reg;

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
/// Both backends record their source maps through this helper; [`reemit`]
/// relies on the collapse behaviour being identical, so that replaying the
/// marks a virtual buffer kept yields the map a direct emission would have.
pub fn push_source_mark<P: PartialEq>(map: &mut Vec<(P, u32)>, at: P, offset: u32) {
    if let Some(last) = map.last_mut() {
        if last.0 == at {
            last.1 = offset;
            return;
        }
    }
    map.push((at, offset));
}

/// The macro-assembler the compilers emit through.
///
/// Implementations are *append-only* forward emitters with forward-reference
/// label patching, mirroring how real baseline compilers patch relative
/// displacements. See the module docs for the backend contract.
pub trait Masm {
    /// The finished-code type this backend produces.
    type Output;

    /// Allocates a fresh, unbound label. Every backend numbers its labels
    /// from zero in allocation order, so a label names the same place in
    /// either backend's output.
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
    /// [`Masm::emit`] returns (instruction index for the virtual ISA, byte
    /// offset for byte-level backends). Code emitted next starts here; OSR
    /// entry stubs record this as their entry point.
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

    /// Emits one operation and returns its site index: where its expansion
    /// starts, in [`Masm::position`] units.
    ///
    /// A [`MachInst::BrTable`] names its targets out of line; emit it through
    /// [`Masm::br_table`].
    fn emit(&mut self, inst: MachInst) -> usize;

    /// Multi-way branch (jump table).
    fn br_table(&mut self, index: Reg, targets: &[Label], default: Label);
}

/// Emits finished virtual code again through a fresh backend `M`, replaying
/// the calls that produced `code`: the labels by id, each instruction in
/// order (a `br_table` with its targets out of the buffer's pool), every
/// label bound and every source mark placed where the buffer recorded it.
/// The output equals what the compiler that produced `code` would have
/// emitted through `M` directly.
pub fn reemit<M: Masm + Default>(code: &CodeBuffer) -> M::Output {
    let mut masm = M::default();
    let mut binds: Vec<Label> = code.label_targets().iter().map(|_| masm.new_label()).collect();
    binds.sort_unstable_by_key(|&label| code.target(label));
    let mut binds = binds.into_iter().peekable();
    let mut marks = code.source_map().iter().peekable();
    // One step past the last instruction: labels and marks may sit at the end.
    for at in 0..=code.len() {
        while let Some(label) = binds.next_if(|&label| code.target(label) == at) {
            masm.bind(label);
        }
        if let Some(&(_, offset)) = marks.next_if(|&&(index, _)| index as usize == at) {
            masm.mark_source(offset);
        }
        match code.insts().get(at) {
            Some(&MachInst::BrTable { index, targets, default }) => {
                masm.br_table(index, code.table(targets), default)
            }
            Some(&inst) => {
                masm.emit(inst);
            }
            None => {}
        }
    }
    masm.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::inst::{AluOp, CmpOp, ConvOp, FAluOp, FCmpOp, FUnOp, TrapCode, UnOp, Width};
    use crate::reg::{AnyReg, FReg};
    use crate::values::ValueTag;
    use crate::x64_masm::X64Masm;

    /// Drives a backend through one shape of every operation.
    fn exercise<M: Masm>(mut m: M) -> M::Output {
        use MachInst::*;
        let r1 = Reg(1);
        let r2 = Reg(2);
        let f1 = FReg(1);
        let f2 = FReg(2);
        let (w32, w64) = (Width::W32, Width::W64);
        m.mark_source(0);
        for inst in [
            MovImm { dst: r1, imm: 7 },
            FMovImm { dst: f1, bits: 1.5f64.to_bits() },
            Mov { dst: r2, src: r1 },
            FMov { dst: f2, src: f1 },
            LoadSlot { dst: AnyReg::Gpr(r1), slot: 0 },
            StoreSlot { slot: 1, src: AnyReg::Fpr(f1) },
            StoreSlotImm { slot: 2, imm: -1 },
            StoreTag { slot: 2, tag: ValueTag::I64 },
            Alu { op: AluOp::Add, width: w32, dst: r1, a: r1, b: r2 },
            AluImm { op: AluOp::Shl, width: w64, dst: r1, a: r2, imm: 3 },
            Unop { op: UnOp::Eqz, width: w32, dst: r1, src: r2 },
            Cmp { op: CmpOp::LtS, width: w64, dst: r1, a: r1, b: r2 },
            CmpImm { op: CmpOp::Eq, width: w32, dst: r1, a: r2, imm: 5 },
            FAlu { op: FAluOp::Mul, width: w64, dst: f1, a: f1, b: f2 },
            FUnop { op: FUnOp::Sqrt, width: w32, dst: f1, src: f2 },
            FCmp { op: FCmpOp::Le, width: w64, dst: r1, a: f1, b: f2 },
            Convert { op: ConvOp::F64ConvertI32S, dst: AnyReg::Fpr(f1), src: AnyReg::Gpr(r1) },
            Select { dst: r1, cond: r2, if_true: r1, if_false: r2 },
            FSelect { dst: f1, cond: r1, if_true: f1, if_false: f2 },
            MemLoad { dst: AnyReg::Gpr(r1), addr: r2, offset: 4, width: 4, signed: true, dst_width: w64 },
            MemStore { src: AnyReg::Gpr(r1), addr: r2, offset: 4, width: 2 },
            MemorySize { dst: r1 },
            MemoryGrow { dst: r1, delta: r2 },
            GlobalGet { dst: AnyReg::Gpr(r1), index: 0 },
            GlobalSet { index: 0, src: AnyReg::Gpr(r1) },
        ] {
            m.emit(inst);
        }
        let skip = m.new_label();
        m.emit(BrIf { cond: r1, target: skip, negate: true });
        let loop_top = m.new_bound_label();
        m.mark_source(9);
        let c = m.emit(Call { func_index: 3 });
        let ci = m.emit(CallIndirect { type_index: 0, table_index: 0, index: r1 });
        assert!(ci > c, "site indices advance with the code");
        for inst in [
            ProbeRuntime { probe_id: 0 },
            ProbeDirect { probe_id: 1 },
            ProbeCounter { counter_id: 2 },
            ProbeTosValue { probe_id: 3, src: AnyReg::Gpr(r1) },
            FuelCheck { amount: 4 },
            EpochCheck,
            Jump { target: loop_top },
        ] {
            m.emit(inst);
        }
        m.bind(skip);
        let end = m.new_label();
        m.br_table(r1, &[skip, loop_top], end);
        m.bind(end);
        m.emit(Trap { code: TrapCode::Unreachable });
        m.mark_source(12);
        m.emit(Return);
        // A label and a mark past the last instruction.
        m.new_bound_label();
        m.mark_source(13);
        assert_eq!(m.num_insts(), 38);
        assert!(m.code_size() > 0);
        m.finish()
    }

    #[test]
    fn reemission_equals_direct_emission_on_both_backends() {
        let virt = exercise(Assembler::new());
        assert_eq!(virt.len(), 38);
        assert_eq!(virt.source_map().len(), 4);
        assert_eq!(reemit::<Assembler>(&virt), virt);
        assert_eq!(reemit::<X64Masm>(&virt), exercise(X64Masm::new()));
    }

    #[test]
    fn backend_default_is_virtual() {
        assert_eq!(CodeBackend::default(), CodeBackend::VirtualIsa);
    }
}
