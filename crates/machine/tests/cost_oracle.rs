//! The cost oracle: `CostModel::inst_cost` is the specification of what an
//! instruction costs, and `Cpu::run` — which charges inside its one dispatch
//! instead of calling it — must agree with it on every variant.

use machine::asm::Assembler;
use machine::cost::{CostModel, CycleCounter};
use machine::cpu::{Cpu, CpuState, ExecContext, Meter};
use machine::inst::{
    AluOp, CmpOp, ConvOp, FAluOp, FCmpOp, FUnOp, Label, LabelRange, MachInst, TrapCode, UnOp,
    Width,
};
use machine::masm::Masm;
use machine::memory::{LinearMemory, Table};
use machine::reg::{AnyReg, FReg, Reg};
use machine::values::{GlobalSlot, ValueStack, ValueTag, WasmValue};
use std::collections::HashSet;
use wasm::types::Limits;

/// A model in which no two operations cost the same, so charging an
/// instruction under the wrong field cannot go unnoticed.
fn distinct_costs() -> CostModel {
    let mut n = 100;
    let mut next = || {
        n += 1;
        n
    };
    CostModel {
        mov: next(),
        alu: next(),
        mul: next(),
        div: next(),
        falu: next(),
        fdiv: next(),
        fsqrt: next(),
        convert: next(),
        select: next(),
        slot_load: next(),
        slot_store: next(),
        tag_store: next(),
        mem_load: next(),
        mem_store: next(),
        global: next(),
        memory_size: next(),
        memory_grow: next(),
        jump: next(),
        branch: next(),
        br_table: next(),
        call: next(),
        call_indirect: next(),
        host_call: next(),
        ret: next(),
        trap: next(),
        probe_runtime: next(),
        probe_direct: next(),
        probe_counter: next(),
        probe_tos: next(),
        fuel_check: next(),
        epoch_check: next(),
        interp_dispatch: next(),
        interp_imm: next(),
        interp_control: next(),
        interp_call_setup: next(),
    }
}

/// `Label(0)` is bound one past the end of every buffer [`charged`] builds.
const END: Label = Label(0);

/// A representative of the variant declared after `inst`'s. The `match` is
/// exhaustive on purpose: a new `MachInst` variant does not compile until it
/// has an arm here, which is what puts it on the chain the oracle walks.
fn successor(inst: &MachInst) -> Option<MachInst> {
    use MachInst::*;
    let (r, f) = (Reg(1), FReg(1));
    let (w, any) = (Width::W64, AnyReg::Gpr(r));
    Some(match inst {
        Nop => MovImm { dst: r, imm: 7 },
        MovImm { .. } => FMovImm { dst: f, bits: 1.5f64.to_bits() },
        FMovImm { .. } => Mov { dst: r, src: Reg(2) },
        Mov { .. } => FMov { dst: f, src: FReg(2) },
        FMov { .. } => LoadSlot { dst: any, slot: 1 },
        LoadSlot { .. } => StoreSlot { slot: 1, src: AnyReg::Fpr(f) },
        StoreSlot { .. } => StoreSlotImm { slot: 2, imm: -1 },
        StoreSlotImm { .. } => StoreTag { slot: 2, tag: ValueTag::I64 },
        StoreTag { .. } => Alu { op: AluOp::Add, width: w, dst: r, a: r, b: Reg(2) },
        Alu { .. } => AluImm { op: AluOp::Add, width: Width::W32, dst: r, a: r, imm: -5 },
        AluImm { .. } => Unop { op: UnOp::Popcnt, width: w, dst: r, src: r },
        Unop { .. } => Cmp { op: CmpOp::LtS, width: w, dst: r, a: r, b: Reg(2) },
        Cmp { .. } => CmpImm { op: CmpOp::GeU, width: Width::W32, dst: r, a: r, imm: -1 },
        CmpImm { .. } => FAlu { op: FAluOp::Add, width: w, dst: f, a: f, b: FReg(2) },
        FAlu { .. } => FUnop { op: FUnOp::Neg, width: w, dst: f, src: f },
        FUnop { .. } => FCmp { op: FCmpOp::Le, width: w, dst: r, a: f, b: FReg(2) },
        FCmp { .. } => Convert { op: ConvOp::F64ConvertI32S, dst: AnyReg::Fpr(f), src: any },
        Convert { .. } => Select { dst: r, cond: r, if_true: Reg(2), if_false: Reg(3) },
        Select { .. } => FSelect { dst: f, cond: r, if_true: FReg(2), if_false: FReg(3) },
        FSelect { .. } => MemLoad {
            dst: any,
            addr: r,
            offset: 4,
            width: 2,
            signed: true,
            dst_width: w,
        },
        MemLoad { .. } => MemStore { src: any, addr: r, offset: 4, width: 4 },
        MemStore { .. } => MemorySize { dst: r },
        MemorySize { .. } => MemoryGrow { dst: r, delta: r },
        MemoryGrow { .. } => GlobalGet { dst: any, index: 0 },
        GlobalGet { .. } => GlobalSet { index: 0, src: any },
        GlobalSet { .. } => Jump { target: END },
        Jump { .. } => BrIf { cond: r, target: END, negate: false },
        BrIf { .. } => BrTable {
            index: r,
            targets: LabelRange { start: 0, len: 0 },
            default: END,
        },
        BrTable { .. } => Call { func_index: 3 },
        Call { .. } => CallIndirect { type_index: 0, table_index: 0, index: r },
        CallIndirect { .. } => ProbeRuntime { probe_id: 1 },
        ProbeRuntime { .. } => ProbeDirect { probe_id: 1 },
        ProbeDirect { .. } => ProbeCounter { counter_id: 1 },
        ProbeCounter { .. } => ProbeTosValue { probe_id: 1, src: any },
        ProbeTosValue { .. } => FuelCheck { amount: 9 },
        FuelCheck { .. } => EpochCheck,
        EpochCheck => Trap { code: TrapCode::Unreachable },
        Trap { .. } => Return,
        Return => return None,
    })
}

/// The instructions to check for one variant: the operations whose cost is
/// not the variant's alone are expanded into each of their cost classes.
fn cost_classes(inst: MachInst) -> Vec<MachInst> {
    use MachInst::*;
    match inst {
        Alu { width, dst, a, b, .. } => {
            AluOp::ALL.map(|op| Alu { op, width, dst, a, b }).to_vec()
        }
        AluImm { width, dst, a, imm, .. } => {
            AluOp::ALL.map(|op| AluImm { op, width, dst, a, imm }).to_vec()
        }
        FAlu { width, dst, a, b, .. } => {
            [FAluOp::Add, FAluOp::Div].map(|op| FAlu { op, width, dst, a, b }).to_vec()
        }
        FUnop { width, dst, src, .. } => {
            [FUnOp::Neg, FUnOp::Sqrt].map(|op| FUnop { op, width, dst, src }).to_vec()
        }
        other => vec![other],
    }
}

/// The cycles `cpu` charges for running a buffer holding only `inst`.
fn charged(cpu: &Cpu, inst: MachInst) -> u64 {
    let mut asm = Assembler::new();
    assert_eq!(asm.new_label(), END);
    asm.emit(inst);
    asm.bind(END);
    let code = asm.finish();

    let mut values = ValueStack::with_capacity(16);
    let mut memory = LinearMemory::new(Limits::at_least(1));
    let mut globals = vec![GlobalSlot::from_value(WasmValue::I64(11))];
    let mut tables = vec![Table::new(Limits::at_least(1))];
    // Non-zero operands everywhere, so the division arms divide.
    let mut state = CpuState { gprs: [3; 14], fprs: [2.0f64.to_bits(); 16] };
    let mut ctx = ExecContext {
        values: &mut values,
        frame_base: 0,
        memory: Some(&mut memory),
        globals: &mut globals,
        tables: &mut tables,
        meter: Meter::off(),
    };
    let mut cycles = CycleCounter::new();
    cpu.run(&mut state, &code, 0, &mut ctx, &mut cycles);
    cycles.total()
}

#[test]
fn every_variant_is_charged_what_inst_cost_specifies() {
    let cost = distinct_costs();
    let cpu = Cpu::new(cost.clone());
    let mut seen = HashSet::new();
    let mut next = Some(MachInst::Nop);
    while let Some(inst) = next {
        assert!(seen.insert(std::mem::discriminant(&inst)), "{inst} is on the chain twice");
        for case in cost_classes(inst) {
            assert_eq!(charged(&cpu, case), cost.inst_cost(&case), "{case}");
        }
        next = successor(&inst);
    }
    // The sub-cases above really are different cost classes.
    let alu = |op| MachInst::Alu { op, width: Width::W32, dst: Reg(0), a: Reg(0), b: Reg(0) };
    let classes: HashSet<u64> =
        [AluOp::Add, AluOp::Mul, AluOp::RemU].map(|op| cost.inst_cost(&alu(op))).into();
    assert_eq!(classes.len(), 3);
}

#[test]
fn a_trapping_instruction_is_charged_before_it_traps() {
    let cost = distinct_costs();
    let cpu = Cpu::new(cost.clone());
    let div = MachInst::AluImm { op: AluOp::DivU, width: Width::W32, dst: Reg(1), a: Reg(1), imm: 0 };
    assert_eq!(charged(&cpu, div), cost.div);
}
