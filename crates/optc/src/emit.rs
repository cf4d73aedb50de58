//! Emission: allocated SSA → any [`Masm`] backend.
//!
//! Everything flows through the same macro-assembler trait the baseline
//! compiler uses, so the optimizing tier serves the virtual ISA (the
//! executable backend) and x86-64 (real machine bytes) from one emitter —
//! the fix for the old slot-promotion pass, which could only rewrite
//! virtual-ISA instruction buffers.
//!
//! Frame layout (slots relative to the frame base):
//!
//! ```text
//! [ locals ][ interp operand region* ][ spill slots ][ call arg zone ]
//! ```
//!
//! `*` only present when the function has runtime/direct probe sites, whose
//! observable frames (and tier-down) need the interpreter's layout.
//! Call arguments are passed at the *top* of the frame — the engine reads
//! the zone's base from the call-site metadata, so the callee's frame never
//! overlaps the caller's live spill slots.
//!
//! Control-flow edges move each argument into its target parameter's
//! location with a parallel-move resolver: moves whose destination is still
//! read by a pending move wait, and cycles are broken through the reserved
//! cycle scratch of the affected bank. Reference-typed stores also store
//! the slot's value tag, which is the optimizing tier's entire GC contract
//! (references never live in registers).

use crate::ir::{Edge, Effect, FuncIr, Inst, Node, Terminator, ValueId};
use crate::regalloc::{
    Allocation, Loc, SCRATCH2_FPR, SCRATCH2_GPR, SCRATCH3_GPR, SCRATCH_FPR, SCRATCH_GPR,
};
use machine::inst::{Label, MachInst, Width};
use machine::lower::OpClass;
use machine::masm::Masm;
use machine::reg::{AnyReg, FReg, Reg};
use machine::values::ValueTag;
use spc::{CallSiteInfo, CompileStats, CompiledCode, JitProbeSite, StackmapTable};
use std::collections::HashMap;
use wasm::types::ValueType;

use crate::ir::BlockId;
use crate::regalloc::SCRATCH3_FPR;

/// A move source: a location or a rematerialized constant.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MSrc {
    Const(u64),
    L(Loc),
}

/// One pending parallel move.
#[derive(Debug, Clone, Copy)]
struct PMove {
    dst: Loc,
    src: MSrc,
    ty: ValueType,
}

struct Emitter<'a, M: Masm> {
    masm: M,
    ir: &'a FuncIr,
    alloc: &'a Allocation,
    /// The label of every laid-out block, indexed by [`BlockId`].
    labels: Vec<Option<Label>>,
    argzone_base: u32,
    call_sites: HashMap<usize, CallSiteInfo>,
    probe_sites: HashMap<usize, JitProbeSite>,
    tag_stores: u32,
}

/// Emits `ir` through `masm` and assembles the engine-facing artifact.
pub fn emit<M: Masm>(
    masm: M,
    ir: &FuncIr,
    alloc: &Allocation,
    order: &[BlockId],
    wasm_bytes: u32,
) -> CompiledCode<M::Output> {
    // The call argument zone sits at the very top of the frame.
    let mut argzone = 0u32;
    for &b in order {
        for inst in &ir.blocks[b.index()].insts {
            if let Inst::Call { args, results, .. } | Inst::CallIndirect { args, results, .. } =
                inst
            {
                argzone = argzone.max(args.len().max(results.len()) as u32);
            }
        }
    }
    let argzone_base = alloc.spill_base + alloc.num_spill_slots;
    let num_results = ir.result_types.len() as u32;
    let frame_slots = (argzone_base + argzone).max(num_results);

    let mut e = Emitter {
        masm,
        ir,
        alloc,
        labels: vec![None; ir.blocks.len()],
        argzone_base,
        call_sites: HashMap::new(),
        probe_sites: HashMap::new(),
        tag_stores: 0,
    };
    for &b in order {
        let label = e.masm.new_label();
        e.labels[b.index()] = Some(label);
    }
    e.masm.mark_source(0);
    // The loop-body offset each OSR entry block serves, indexed by block.
    let mut osr_blocks: Vec<Option<u32>> = vec![None; ir.blocks.len()];
    for site in &ir.osr_sites {
        osr_blocks[site.entry.index()] = Some(site.offset);
    }
    let mut osr_entries = HashMap::new();
    for (i, &b) in order.iter().enumerate() {
        let next = order.get(i + 1).copied();
        if let Some(offset) = osr_blocks[b.index()] {
            osr_entries.insert(offset, e.masm.position());
        }
        e.emit_block(b, next);
    }

    let stats = CompileStats {
        wasm_bytes,
        machine_insts: e.masm.num_insts() as u32,
        code_size_bytes: e.masm.code_size() as u32,
        tag_stores: e.tag_stores,
        ..CompileStats::default()
    };
    let code = e.masm.finish();
    CompiledCode {
        func_index: ir.func_index,
        code,
        stackmaps: StackmapTable::default(),
        call_sites: e.call_sites,
        probe_sites: e.probe_sites,
        osr_entries,
        num_results,
        num_locals: ir.num_locals() as u32,
        frame_slots,
        stats,
    }
}

const GPR_SCRATCHES: [Reg; 3] = [SCRATCH_GPR, SCRATCH2_GPR, SCRATCH3_GPR];
const FPR_SCRATCHES: [FReg; 2] = [SCRATCH_FPR, SCRATCH2_FPR];

impl<'a, M: Masm> Emitter<'a, M> {
    fn loc(&self, v: ValueId) -> Option<Loc> {
        self.alloc.loc(self.ir, v)
    }

    fn label(&self, b: BlockId) -> Label {
        self.labels[b.index()].expect("branch targets are laid-out blocks")
    }

    fn src_of(&self, v: ValueId) -> MSrc {
        if let Some(bits) = self.ir.as_const(v) {
            return MSrc::Const(bits);
        }
        MSrc::L(self.loc(v).expect("used value has a location"))
    }

    fn store_tag(&mut self, slot: u32, ty: ValueType) {
        self.masm.emit(MachInst::StoreTag { slot, tag: ValueTag::for_type(ty) });
        self.tag_stores += 1;
    }

    /// Copies slot `src` to slot `dst` through the bank's shuttle scratch
    /// and re-tags the destination — the one place the spill-area tagging
    /// contract lives (see DESIGN.md, "The optimizing tier").
    fn copy_slot(&mut self, dst: u32, src: u32, ty: ValueType) {
        let scratch = if ty.is_float() {
            AnyReg::Fpr(SCRATCH_FPR)
        } else {
            AnyReg::Gpr(SCRATCH_GPR)
        };
        self.masm.emit(MachInst::LoadSlot { dst: scratch, slot: src });
        self.masm.emit(MachInst::StoreSlot { slot: dst, src: scratch });
        self.store_tag(dst, ty);
    }

    /// Materializes an integer operand into a register; `which` picks the
    /// scratch used if the value is spilled or constant.
    fn use_gpr(&mut self, v: ValueId, which: usize) -> Reg {
        match self.src_of(v) {
            MSrc::Const(bits) => {
                let s = GPR_SCRATCHES[which];
                self.masm.emit(MachInst::MovImm { dst: s, imm: bits as i64 });
                s
            }
            MSrc::L(Loc::Reg(AnyReg::Gpr(r))) => r,
            MSrc::L(Loc::Reg(AnyReg::Fpr(_))) => unreachable!("bank mismatch"),
            MSrc::L(Loc::Slot(slot)) => {
                let s = GPR_SCRATCHES[which];
                self.masm.emit(MachInst::LoadSlot { dst: AnyReg::Gpr(s), slot });
                s
            }
        }
    }

    fn use_fpr(&mut self, v: ValueId, which: usize) -> FReg {
        match self.src_of(v) {
            MSrc::Const(bits) => {
                let s = FPR_SCRATCHES[which];
                self.masm.emit(MachInst::FMovImm { dst: s, bits });
                s
            }
            MSrc::L(Loc::Reg(AnyReg::Fpr(r))) => r,
            MSrc::L(Loc::Reg(AnyReg::Gpr(_))) => unreachable!("bank mismatch"),
            MSrc::L(Loc::Slot(slot)) => {
                let s = FPR_SCRATCHES[which];
                self.masm.emit(MachInst::LoadSlot { dst: AnyReg::Fpr(s), slot });
                s
            }
        }
    }

    fn use_any(&mut self, v: ValueId, which: usize) -> AnyReg {
        if self.ir.ty(v).is_float() {
            AnyReg::Fpr(self.use_fpr(v, which.min(1)))
        } else {
            AnyReg::Gpr(self.use_gpr(v, which))
        }
    }

    /// The register to compute an integer definition into, plus the slot to
    /// store it to afterwards (for spilled or discarded results).
    fn def_gpr(&self, v: ValueId) -> (Reg, Option<u32>) {
        match self.loc(v) {
            Some(Loc::Reg(AnyReg::Gpr(r))) => (r, None),
            Some(Loc::Reg(AnyReg::Fpr(_))) => unreachable!("bank mismatch"),
            Some(Loc::Slot(s)) => (SCRATCH_GPR, Some(s)),
            // Dead (but trapping, so executed) definition.
            None => (SCRATCH_GPR, None),
        }
    }

    fn def_fpr(&self, v: ValueId) -> (FReg, Option<u32>) {
        match self.loc(v) {
            Some(Loc::Reg(AnyReg::Fpr(r))) => (r, None),
            Some(Loc::Reg(AnyReg::Gpr(_))) => unreachable!("bank mismatch"),
            Some(Loc::Slot(s)) => (SCRATCH_FPR, Some(s)),
            None => (SCRATCH_FPR, None),
        }
    }

    fn def_any(&self, v: ValueId) -> (AnyReg, Option<u32>) {
        if self.ir.ty(v).is_float() {
            let (r, s) = self.def_fpr(v);
            (AnyReg::Fpr(r), s)
        } else {
            let (r, s) = self.def_gpr(v);
            (AnyReg::Gpr(r), s)
        }
    }

    fn finish_def(&mut self, v: ValueId, computed: AnyReg, spill: Option<u32>) {
        if let Some(slot) = spill {
            self.masm.emit(MachInst::StoreSlot { slot, src: computed });
            // Every spill-slot write re-tags the slot: spill slots are
            // reused across values of different types (and sit where older
            // frames left their tags), so an untagged store could leave a
            // stale `Ref` tag over integer bits for the GC's tag scan to
            // misread as a root.
            self.store_tag(slot, self.ir.ty(v));
        }
    }

    // ---- Blocks ---------------------------------------------------------

    fn emit_block(&mut self, b: BlockId, next: Option<BlockId>) {
        let label = self.label(b);
        self.masm.bind(label);
        if b == self.ir.entry() {
            self.emit_prologue(b);
        }
        let block = &self.ir.blocks[b.index()];
        for inst in &block.insts {
            self.emit_inst(inst);
        }
        self.emit_terminator(&block.term, next);
    }

    /// Loads live frame-defined parameters (function entry or OSR entry)
    /// from their frame slots into their allocated locations. Parameters
    /// spilled to their own home slot cost nothing.
    fn emit_prologue(&mut self, block: BlockId) {
        let ir = self.ir;
        for (i, &p) in ir.blocks[block.index()].params.iter().enumerate() {
            if self.ir.resolve(p) != p {
                continue;
            }
            let slot = i as u32;
            match self.loc(p) {
                None => {}
                Some(Loc::Reg(dst)) => {
                    self.masm.emit(MachInst::LoadSlot { dst, slot });
                }
                Some(Loc::Slot(s)) if s == slot => {}
                Some(Loc::Slot(s)) => {
                    let ty = self.ir.ty(p);
                    self.copy_slot(s, slot, ty);
                }
            }
        }
    }

    // ---- Instructions ---------------------------------------------------

    fn emit_inst(&mut self, inst: &Inst) {
        match inst {
            Inst::Def(v) => {
                let v = *v;
                if self.ir.resolve(v) != v {
                    return;
                }
                self.emit_def(v);
            }
            Inst::MemStore {
                value,
                addr,
                offset,
                width,
                src_offset,
            } => {
                let rv = self.use_any(*value, 0);
                let ra = self.use_gpr(*addr, 1);
                self.masm.mark_source(*src_offset);
                self.masm.emit(MachInst::MemStore {
                    src: rv,
                    addr: ra,
                    offset: *offset,
                    width: *width,
                });
            }
            Inst::GlobalSet { index, value } => {
                let rv = self.use_any(*value, 0);
                self.masm.emit(MachInst::GlobalSet { index: *index, src: rv });
            }
            Inst::Call {
                offset,
                callee,
                args,
                results,
            } => {
                self.masm.mark_source(*offset);
                self.store_call_args(args);
                let site = self.masm.emit(MachInst::Call { func_index: *callee });
                self.call_sites.insert(
                    site,
                    CallSiteInfo {
                        callee_slot_base: self.argzone_base,
                    },
                );
                self.load_call_results(results);
            }
            Inst::CallIndirect {
                offset,
                type_index,
                table_index,
                index,
                args,
                results,
            } => {
                self.masm.mark_source(*offset);
                self.store_call_args(args);
                let ri = self.use_gpr(*index, 0);
                let site = self.masm.emit(MachInst::CallIndirect {
                    type_index: *type_index,
                    table_index: *table_index,
                    index: ri,
                });
                self.call_sites.insert(
                    site,
                    CallSiteInfo {
                        callee_slot_base: self.argzone_base,
                    },
                );
                self.load_call_results(results);
            }
            Inst::ProbeCounter {
                counter_id,
                offset,
                height,
            } => {
                let site = self.masm.emit(MachInst::ProbeCounter { counter_id: *counter_id });
                self.probe_sites.insert(
                    site,
                    JitProbeSite {
                        offset: *offset,
                        operand_height: *height,
                    },
                );
            }
            Inst::ProbeTos {
                probe_id,
                value,
                offset,
                height,
            } => {
                let src = match value {
                    Some(v) => self.use_any(*v, 0),
                    None => AnyReg::Gpr(SCRATCH_GPR),
                };
                let site = self.masm.emit(MachInst::ProbeTosValue { probe_id: *probe_id, src });
                self.probe_sites.insert(
                    site,
                    JitProbeSite {
                        offset: *offset,
                        operand_height: *height,
                    },
                );
            }
            Inst::ProbeFlush {
                probe_id,
                runtime,
                offset,
                height,
                flush,
            } => {
                // Materialize the interpreter frame: values and tags, so
                // frame accessors (and a tier-down) see a canonical frame.
                for &(slot, v) in flush {
                    let ty = self.ir.ty(v);
                    match self.src_of(v) {
                        MSrc::Const(bits) => {
                            self.masm.emit(MachInst::StoreSlotImm { slot, imm: bits as i64 });
                            self.store_tag(slot, ty);
                        }
                        MSrc::L(Loc::Reg(r)) => {
                            self.masm.emit(MachInst::StoreSlot { slot, src: r });
                            self.store_tag(slot, ty);
                        }
                        MSrc::L(Loc::Slot(s)) if s == slot => self.store_tag(slot, ty),
                        MSrc::L(Loc::Slot(s)) => self.copy_slot(slot, s, ty),
                    }
                }
                let site = if *runtime {
                    self.masm.emit(MachInst::ProbeRuntime { probe_id: *probe_id })
                } else {
                    self.masm.emit(MachInst::ProbeDirect { probe_id: *probe_id })
                };
                self.probe_sites.insert(
                    site,
                    JitProbeSite {
                        offset: *offset,
                        operand_height: *height,
                    },
                );
            }
            Inst::FuelCheck { offset, amount } => {
                self.masm.mark_source(*offset);
                self.masm.emit(MachInst::FuelCheck { amount: *amount });
            }
            Inst::EpochCheck { offset } => {
                self.masm.mark_source(*offset);
                self.masm.emit(MachInst::EpochCheck);
            }
        }
    }

    fn emit_def(&mut self, v: ValueId) {
        let node = self.ir.nodes[v.index()].clone();
        // Anchor trapping defs in the source map *before* their operand
        // loads: only the trapping instruction itself can exit here, so the
        // pending mark resolves to it, and a trap's pc maps back to the wasm
        // offset the frontend recorded.
        if node.effect() == Effect::Trapping {
            if let Some(offset) = self.ir.src_offset(v) {
                self.masm.mark_source(offset);
            }
        }
        match node {
            // Constants rematerialize at uses; params and call results are
            // defined elsewhere.
            Node::Const(_) | Node::Param { .. } | Node::CallResult => {}
            Node::Op { class, args } => self.emit_op(v, class, args),
            Node::Select {
                cond,
                if_true,
                if_false,
            } => {
                let rc = self.use_gpr(cond, 0);
                if self.ir.ty(v).is_float() {
                    let ra = self.use_fpr(if_true, 0);
                    let rb = self.use_fpr(if_false, 1);
                    let (dst, spill) = self.def_fpr(v);
                    self.masm.emit(MachInst::FSelect { dst, cond: rc, if_true: ra, if_false: rb });
                    self.finish_def(v, AnyReg::Fpr(dst), spill);
                } else {
                    let ra = self.use_gpr(if_true, 1);
                    let rb = self.use_gpr(if_false, 2);
                    let (dst, spill) = self.def_gpr(v);
                    self.masm.emit(MachInst::Select { dst, cond: rc, if_true: ra, if_false: rb });
                    self.finish_def(v, AnyReg::Gpr(dst), spill);
                }
            }
            Node::MemLoad {
                addr,
                offset,
                width,
                signed,
                dst_width,
            } => {
                let ra = self.use_gpr(addr, 0);
                let (dst, spill) = self.def_any(v);
                self.masm.emit(MachInst::MemLoad {
                    dst,
                    addr: ra,
                    offset,
                    width,
                    signed,
                    dst_width,
                });
                self.finish_def(v, dst, spill);
            }
            Node::MemorySize => {
                let (dst, spill) = self.def_gpr(v);
                self.masm.emit(MachInst::MemorySize { dst });
                self.finish_def(v, AnyReg::Gpr(dst), spill);
            }
            Node::MemoryGrow { delta } => {
                let rd = self.use_gpr(delta, 1);
                let (dst, spill) = self.def_gpr(v);
                self.masm.emit(MachInst::MemoryGrow { dst, delta: rd });
                self.finish_def(v, AnyReg::Gpr(dst), spill);
            }
            Node::GlobalGet { index } => {
                let (dst, spill) = self.def_any(v);
                self.masm.emit(MachInst::GlobalGet { dst, index });
                self.finish_def(v, dst, spill);
            }
            Node::OsrSlot { index } => {
                // A dead slot read has no location and loads nothing.
                if self.loc(v).is_none() {
                    return;
                }
                let (dst, spill) = self.def_any(v);
                self.masm.emit(MachInst::LoadSlot { dst, slot: index });
                self.finish_def(v, dst, spill);
            }
        }
    }

    fn emit_op(&mut self, v: ValueId, class: OpClass, args: [ValueId; 2]) {
        // Immediate-mode selection: integer ops with a constant right
        // operand, exactly the baseline's ISEL rule.
        if let OpClass::Alu(_, width) | OpClass::Cmp(_, width) = class {
            if let Some(bits) = self.ir.as_const(args[1]) {
                let imm = bits as i64;
                let fits = match width {
                    Width::W32 => true,
                    Width::W64 => (i32::MIN as i64..=i32::MAX as i64).contains(&imm),
                };
                if fits && self.ir.as_const(args[0]).is_none() {
                    let ra = self.use_gpr(args[0], 0);
                    let (dst, spill) = self.def_gpr(v);
                    self.masm.emit(match class {
                        OpClass::Alu(op, width) => MachInst::AluImm { op, width, dst, a: ra, imm },
                        OpClass::Cmp(op, width) => MachInst::CmpImm { op, width, dst, a: ra, imm },
                        _ => unreachable!("matched above"),
                    });
                    self.finish_def(v, AnyReg::Gpr(dst), spill);
                    return;
                }
            }
        }
        match class {
            OpClass::Alu(op, w) => {
                let ra = self.use_gpr(args[0], 0);
                let rb = self.use_gpr(args[1], 1);
                let (dst, spill) = self.def_gpr(v);
                self.masm.emit(MachInst::Alu { op, width: w, dst, a: ra, b: rb });
                self.finish_def(v, AnyReg::Gpr(dst), spill);
            }
            OpClass::Cmp(op, w) => {
                let ra = self.use_gpr(args[0], 0);
                let rb = self.use_gpr(args[1], 1);
                let (dst, spill) = self.def_gpr(v);
                self.masm.emit(MachInst::Cmp { op, width: w, dst, a: ra, b: rb });
                self.finish_def(v, AnyReg::Gpr(dst), spill);
            }
            OpClass::Unop(op, w) => {
                let ra = self.use_gpr(args[0], 0);
                let (dst, spill) = self.def_gpr(v);
                self.masm.emit(MachInst::Unop { op, width: w, dst, src: ra });
                self.finish_def(v, AnyReg::Gpr(dst), spill);
            }
            OpClass::FAlu(op, w) => {
                let ra = self.use_fpr(args[0], 0);
                let rb = self.use_fpr(args[1], 1);
                let (dst, spill) = self.def_fpr(v);
                self.masm.emit(MachInst::FAlu { op, width: w, dst, a: ra, b: rb });
                self.finish_def(v, AnyReg::Fpr(dst), spill);
            }
            OpClass::FUnop(op, w) => {
                let ra = self.use_fpr(args[0], 0);
                let (dst, spill) = self.def_fpr(v);
                self.masm.emit(MachInst::FUnop { op, width: w, dst, src: ra });
                self.finish_def(v, AnyReg::Fpr(dst), spill);
            }
            OpClass::FCmp(op, w) => {
                let ra = self.use_fpr(args[0], 0);
                let rb = self.use_fpr(args[1], 1);
                let (dst, spill) = self.def_gpr(v);
                self.masm.emit(MachInst::FCmp { op, width: w, dst, a: ra, b: rb });
                self.finish_def(v, AnyReg::Gpr(dst), spill);
            }
            OpClass::Convert(op) => {
                let src = if class.operand_type().is_float() {
                    AnyReg::Fpr(self.use_fpr(args[0], 0))
                } else {
                    AnyReg::Gpr(self.use_gpr(args[0], 0))
                };
                let (dst, spill) = self.def_any(v);
                self.masm.emit(MachInst::Convert { op, dst, src });
                self.finish_def(v, dst, spill);
            }
        }
    }

    fn store_call_args(&mut self, args: &[ValueId]) {
        for (i, &a) in args.iter().enumerate() {
            let slot = self.argzone_base + i as u32;
            let ty = self.ir.ty(a);
            // The callee boundary is a GC point: the tag walk must see
            // reference arguments — and must not misread stale tags under
            // non-reference ones — so every store below re-tags its slot.
            match self.src_of(a) {
                MSrc::Const(bits) => {
                    self.masm.emit(MachInst::StoreSlotImm { slot, imm: bits as i64 });
                    self.store_tag(slot, ty);
                }
                MSrc::L(Loc::Reg(r)) => {
                    self.masm.emit(MachInst::StoreSlot { slot, src: r });
                    self.store_tag(slot, ty);
                }
                MSrc::L(Loc::Slot(s)) => self.copy_slot(slot, s, ty),
            }
        }
    }

    fn load_call_results(&mut self, results: &[ValueId]) {
        for (j, &r) in results.iter().enumerate() {
            let slot = self.argzone_base + j as u32;
            let ty = self.ir.ty(r);
            match self.loc(r) {
                // Dead result: the callee wrote it; nobody reads it.
                None => {}
                Some(Loc::Reg(dst)) => {
                    self.masm.emit(MachInst::LoadSlot { dst, slot });
                }
                Some(Loc::Slot(s)) => self.copy_slot(s, slot, ty),
            }
        }
    }

    // ---- Terminators and parallel moves ---------------------------------

    fn edge_moves(&self, edge: &Edge) -> Vec<PMove> {
        let params = &self.ir.blocks[edge.target.index()].params;
        debug_assert_eq!(params.len(), edge.args.len());
        let mut moves = Vec::new();
        for (&p, &a) in params.iter().zip(&edge.args) {
            let p = self.ir.resolve(p);
            let Some(dst) = self.loc(p) else { continue };
            let src = self.src_of(a);
            if src == MSrc::L(dst) {
                continue;
            }
            moves.push(PMove {
                dst,
                src,
                ty: self.ir.ty(p),
            });
        }
        moves
    }

    fn emit_move(&mut self, m: &PMove) {
        let inst = match (m.dst, m.src) {
            (Loc::Reg(AnyReg::Gpr(dst)), MSrc::Const(bits)) => {
                MachInst::MovImm { dst, imm: bits as i64 }
            }
            (Loc::Reg(AnyReg::Fpr(dst)), MSrc::Const(bits)) => MachInst::FMovImm { dst, bits },
            (Loc::Reg(AnyReg::Gpr(dst)), MSrc::L(Loc::Reg(AnyReg::Gpr(src)))) => {
                MachInst::Mov { dst, src }
            }
            (Loc::Reg(AnyReg::Fpr(dst)), MSrc::L(Loc::Reg(AnyReg::Fpr(src)))) => {
                MachInst::FMov { dst, src }
            }
            (Loc::Reg(dst), MSrc::L(Loc::Slot(slot))) => MachInst::LoadSlot { dst, slot },
            (Loc::Slot(slot), MSrc::Const(bits)) => MachInst::StoreSlotImm { slot, imm: bits as i64 },
            (Loc::Slot(slot), MSrc::L(Loc::Reg(src))) => MachInst::StoreSlot { slot, src },
            (Loc::Slot(d), MSrc::L(Loc::Slot(s))) => return self.copy_slot(d, s, m.ty),
            (Loc::Reg(_), MSrc::L(Loc::Reg(_))) => unreachable!("bank mismatch"),
        };
        self.masm.emit(inst);
        if let Loc::Slot(slot) = m.dst {
            self.store_tag(slot, m.ty);
        }
    }

    /// Emits a set of parallel moves, breaking cycles through the reserved
    /// cycle scratches.
    fn emit_parallel_moves(&mut self, mut pending: Vec<PMove>) {
        while !pending.is_empty() {
            let mut progress = true;
            while progress {
                progress = false;
                let mut i = 0;
                while i < pending.len() {
                    let dst = pending[i].dst;
                    let blocked = pending
                        .iter()
                        .enumerate()
                        .any(|(j, m)| j != i && m.src == MSrc::L(dst));
                    if blocked {
                        i += 1;
                    } else {
                        let m = pending.remove(i);
                        self.emit_move(&m);
                        progress = true;
                    }
                }
            }
            if pending.is_empty() {
                break;
            }
            // Cycle: every destination is still read. Park the contents of
            // one destination in the cycle scratch and redirect its readers.
            let d0 = pending[0].dst;
            let reader_ty = pending
                .iter()
                .find(|m| m.src == MSrc::L(d0))
                .map(|m| m.ty)
                .expect("a blocked move has a reader");
            let hold = if reader_ty.is_float() {
                AnyReg::Fpr(SCRATCH3_FPR)
            } else {
                AnyReg::Gpr(SCRATCH3_GPR)
            };
            self.masm.emit(match d0 {
                Loc::Reg(AnyReg::Gpr(src)) => {
                    let AnyReg::Gpr(dst) = hold else { unreachable!() };
                    MachInst::Mov { dst, src }
                }
                Loc::Reg(AnyReg::Fpr(src)) => {
                    let AnyReg::Fpr(dst) = hold else { unreachable!() };
                    MachInst::FMov { dst, src }
                }
                Loc::Slot(slot) => MachInst::LoadSlot { dst: hold, slot },
            });
            for m in pending.iter_mut() {
                if m.src == MSrc::L(d0) {
                    m.src = MSrc::L(Loc::Reg(hold));
                }
            }
        }
    }

    fn emit_edge(&mut self, edge: &Edge, next: Option<BlockId>) {
        let moves = self.edge_moves(edge);
        self.emit_parallel_moves(moves);
        if Some(edge.target) != next {
            let label = self.label(edge.target);
            self.masm.emit(MachInst::Jump { target: label });
        }
    }

    fn emit_terminator(&mut self, term: &Terminator, next: Option<BlockId>) {
        match term {
            Terminator::Jump(edge) => self.emit_edge(edge, next),
            Terminator::Branch {
                cond,
                then_edge,
                else_edge,
                ..
            } => {
                let then_moves = self.edge_moves(then_edge);
                let else_moves = self.edge_moves(else_edge);
                let rc = self.use_gpr(*cond, 0);
                let then_label = self.label(then_edge.target);
                let else_label = self.label(else_edge.target);
                let br_if = |target, negate| MachInst::BrIf { cond: rc, target, negate };
                let jump = |target| MachInst::Jump { target };
                match (then_moves.is_empty(), else_moves.is_empty()) {
                    (true, true) => {
                        if Some(else_edge.target) == next {
                            self.masm.emit(br_if(then_label, false));
                        } else if Some(then_edge.target) == next {
                            self.masm.emit(br_if(else_label, true));
                        } else {
                            self.masm.emit(br_if(then_label, false));
                            self.masm.emit(jump(else_label));
                        }
                    }
                    (true, false) => {
                        self.masm.emit(br_if(then_label, false));
                        self.emit_parallel_moves(else_moves);
                        if Some(else_edge.target) != next {
                            self.masm.emit(jump(else_label));
                        }
                    }
                    (false, true) => {
                        self.masm.emit(br_if(else_label, true));
                        self.emit_parallel_moves(then_moves);
                        if Some(then_edge.target) != next {
                            self.masm.emit(jump(then_label));
                        }
                    }
                    (false, false) => {
                        // Put the fall-through successor's moves last so no
                        // jump to the very next block is emitted.
                        let stub = self.masm.new_label();
                        if Some(else_edge.target) == next {
                            self.masm.emit(br_if(stub, true));
                            self.emit_parallel_moves(then_moves);
                            self.masm.emit(jump(then_label));
                            self.masm.bind(stub);
                            self.emit_parallel_moves(else_moves);
                        } else {
                            self.masm.emit(br_if(stub, false));
                            self.emit_parallel_moves(else_moves);
                            self.masm.emit(jump(else_label));
                            self.masm.bind(stub);
                            self.emit_parallel_moves(then_moves);
                            if Some(then_edge.target) != next {
                                self.masm.emit(jump(then_label));
                            }
                        }
                    }
                }
            }
            Terminator::BrTable {
                index,
                targets,
                default,
            } => {
                let ri = self.use_gpr(*index, 0);
                // Identical edges (same target, same arguments — common in
                // large tables) share one adaptation stub, and each edge's
                // move list is computed exactly once.
                let mut stubs: Vec<(Label, Edge, Vec<PMove>)> = Vec::new();
                let mut resolve = |this: &mut Self, e: &Edge| -> Label {
                    let moves = this.edge_moves(e);
                    if moves.is_empty() {
                        return this.label(e.target);
                    }
                    if let Some((label, _, _)) = stubs.iter().find(|(_, se, _)| se == e) {
                        return *label;
                    }
                    let stub = this.masm.new_label();
                    stubs.push((stub, e.clone(), moves));
                    stub
                };
                let mut table = Vec::with_capacity(targets.len());
                for e in targets {
                    table.push(resolve(self, e));
                }
                let default_label = resolve(self, default);
                self.masm.br_table(ri, &table, default_label);
                for (stub, edge, moves) in stubs {
                    self.masm.bind(stub);
                    self.emit_parallel_moves(moves);
                    let label = self.label(edge.target);
                    self.masm.emit(MachInst::Jump { target: label });
                }
            }
            Terminator::Return(values) => {
                let mut moves = Vec::new();
                let mut in_place = Vec::new();
                for (i, &v) in values.iter().enumerate() {
                    let dst = Loc::Slot(i as u32);
                    let src = self.src_of(v);
                    let ty = self.ir.result_types[i];
                    if src != MSrc::L(dst) {
                        // The slot store below re-tags the result slot.
                        moves.push(PMove { dst, src, ty });
                    } else {
                        in_place.push((i as u32, ty));
                    }
                }
                self.emit_parallel_moves(moves);
                for (slot, ty) in in_place {
                    self.store_tag(slot, ty);
                }
                self.masm.emit(MachInst::Return);
            }
            Terminator::Trap { code, offset } => {
                self.masm.mark_source(*offset);
                self.masm.emit(MachInst::Trap { code: *code });
            }
        }
    }
}
