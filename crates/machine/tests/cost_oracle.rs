//! The simulator's oracles. `CostModel::inst_cost` is the specification of
//! what an instruction costs, and `Cpu::run` — which charges inside its one
//! dispatch instead of calling it — must agree with it on every variant and
//! every form it executes separately. The shared evaluators in `ops` are the
//! specification of what an integer instruction or memory access computes,
//! and each of those forms must agree with them too.

use machine::asm::Assembler;
use machine::cost::{CostModel, CycleCounter};
use machine::cpu::{Cpu, CpuState, ExecContext, Exit, Meter};
use machine::inst::{
    AluOp, CmpOp, ConvOp, FAluOp, FCmpOp, FUnOp, Label, LabelRange, MachInst, TrapCode, UnOp,
    Width,
};
use machine::masm::Masm;
use machine::memory::{LinearMemory, Table};
use machine::ops;
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

/// `Label(0)` is bound one past the end of every buffer [`run_one`] builds.
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

const WIDTHS: [Width; 2] = [Width::W32, Width::W64];

/// `r1` and `f1`: one register of each bank.
const BANKS: [AnyReg; 2] = [AnyReg::Gpr(Reg(1)), AnyReg::Fpr(FReg(1))];

/// Every access width a linear-memory instruction can name.
const ACCESS_WIDTHS: [u32; 4] = [1, 2, 4, 8];

/// The instructions to check for one variant: every form the simulator
/// executes as a variant of its own — each integer operation and compare at
/// each width in both operand forms, each register bank, each memory-access
/// shape, each `negate` — and each cost class of the floating-point
/// operations.
fn cost_classes(inst: MachInst) -> Vec<MachInst> {
    use MachInst::*;
    match inst {
        Alu { dst, a, b, .. } => WIDTHS
            .iter()
            .flat_map(|&width| AluOp::ALL.map(|op| Alu { op, width, dst, a, b }))
            .collect(),
        AluImm { dst, a, imm, .. } => WIDTHS
            .iter()
            .flat_map(|&width| AluOp::ALL.map(|op| AluImm { op, width, dst, a, imm }))
            .collect(),
        Cmp { dst, a, b, .. } => WIDTHS
            .iter()
            .flat_map(|&width| CmpOp::ALL.map(|op| Cmp { op, width, dst, a, b }))
            .collect(),
        CmpImm { dst, a, imm, .. } => WIDTHS
            .iter()
            .flat_map(|&width| CmpOp::ALL.map(|op| CmpImm { op, width, dst, a, imm }))
            .collect(),
        FAlu { width, dst, a, b, .. } => {
            [FAluOp::Add, FAluOp::Div].map(|op| FAlu { op, width, dst, a, b }).to_vec()
        }
        FUnop { width, dst, src, .. } => {
            [FUnOp::Neg, FUnOp::Sqrt].map(|op| FUnop { op, width, dst, src }).to_vec()
        }
        LoadSlot { slot, .. } => BANKS.map(|dst| LoadSlot { dst, slot }).to_vec(),
        StoreSlot { slot, .. } => BANKS.map(|src| StoreSlot { slot, src }).to_vec(),
        GlobalGet { index, .. } => BANKS.map(|dst| GlobalGet { dst, index }).to_vec(),
        GlobalSet { index, .. } => BANKS.map(|src| GlobalSet { index, src }).to_vec(),
        MemLoad { addr, offset, .. } => load_shapes()
            .map(|(dst, width, signed, dst_width)| MemLoad {
                dst,
                addr,
                offset,
                width,
                signed,
                dst_width,
            })
            .collect(),
        MemStore { addr, offset, .. } => store_shapes()
            .map(|(src, width)| MemStore { src, addr, offset, width })
            .collect(),
        BrIf { cond, target, .. } => {
            [false, true].map(|negate| BrIf { cond, target, negate }).to_vec()
        }
        other => vec![other],
    }
}

/// Every (destination, width, signed, destination width) a load can name,
/// into `r1` or `f1`.
fn load_shapes() -> impl Iterator<Item = (AnyReg, u32, bool, Width)> {
    BANKS.into_iter().flat_map(|dst| {
        ACCESS_WIDTHS.into_iter().flat_map(move |width| {
            [false, true].into_iter().flat_map(move |signed| {
                WIDTHS.into_iter().map(move |dst_width| (dst, width, signed, dst_width))
            })
        })
    })
}

/// Every (source, width) a store can name, from `r1` or `f1`.
fn store_shapes() -> impl Iterator<Item = (AnyReg, u32)> {
    [AnyReg::Gpr(Reg(1)), AnyReg::Fpr(FReg(1))]
        .into_iter()
        .flat_map(|src| ACCESS_WIDTHS.map(|width| (src, width)))
}

/// Runs a buffer holding only `inst` (with [`END`] bound after it) from
/// `state` against `memory` and returns how it exited, the registers it left
/// and its cycles.
fn run_one(cpu: &Cpu, inst: MachInst, mut state: CpuState, memory: &mut LinearMemory) -> (Exit, CpuState, u64) {
    let mut asm = Assembler::new();
    assert_eq!(asm.new_label(), END);
    asm.emit(inst);
    asm.bind(END);
    let code = asm.finish();
    let mut values = ValueStack::with_capacity(16);
    let mut globals = vec![GlobalSlot::from_value(WasmValue::I64(11))];
    let mut tables = vec![Table::new(Limits::at_least(1))];
    let mut ctx = ExecContext {
        values: &mut values,
        frame_base: 0,
        memory: Some(memory),
        globals: &mut globals,
        tables: &mut tables,
        meter: Meter::off(),
    };
    let mut cycles = CycleCounter::new();
    let exit = cpu.run(&mut state, &code, 0, &mut ctx, &mut cycles);
    (exit, state, cycles.total())
}

/// The cycles `cpu` charges for running a buffer holding only `inst`.
fn charged(cpu: &Cpu, inst: MachInst) -> u64 {
    // Non-zero operands everywhere, so the division arms divide.
    let state = CpuState { gprs: [3; 14], fprs: [2.0f64.to_bits(); 16] };
    run_one(cpu, inst, state, &mut LinearMemory::new(Limits::at_least(1))).2
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

// ---- The semantics oracle ----------------------------------------------------
//
// The simulator executes each integer operation, compare and access shape as
// a variant of its own. `ops::eval_alu`, `ops::eval_cmp` and
// `ops::extend_loaded` (with `LinearMemory::load`/`store`) are the one
// definition of what they compute, shared with the interpreter and the
// constant folders; every form must agree with them bit for bit, traps
// included, on the operands where the forms differ.

/// Edge operands: zero, one, all ones, both sign bits alone and sign-extended,
/// both maxima, shift counts at and past both widths, and junk in the upper
/// half of a 32-bit operand.
const EDGES: [u64; 16] = [
    0,
    1,
    u64::MAX,
    i32::MIN as u32 as u64,
    i32::MIN as i64 as u64,
    i64::MIN as u64,
    i32::MAX as u64,
    i64::MAX as u64,
    u32::MAX as u64,
    31,
    32,
    33,
    63,
    64,
    65,
    0xDEAD_BEEF_0000_0007,
];

/// Registers holding `a` in `r1` and `b` in `r2`, `f1`/`f2` likewise.
fn operands(a: u64, b: u64) -> CpuState {
    let mut state = CpuState::new();
    (state[Reg(1)], state[Reg(2)], state[FReg(1)], state[FReg(2)]) = (a, b, a, b);
    state
}

/// What a one-instruction buffer that computes `expected` into `dst` must
/// do: run off its end with the value there, or trap at its only pc.
fn assert_computes(inst: MachInst, a: u64, b: u64, expected: Result<u64, TrapCode>) {
    let cpu = Cpu::default();
    let mut memory = LinearMemory::new(Limits::at_least(1));
    let (exit, state, _) = run_one(&cpu, inst, operands(a, b), &mut memory);
    match expected {
        Ok(value) => {
            assert_eq!(exit, Exit::Return, "{inst} on {a:#x}, {b:#x}");
            assert_eq!(state[Reg(3)], value, "{inst} on {a:#x}, {b:#x}");
        }
        Err(code) => assert_eq!(exit, Exit::Trap { code, at: 0 }, "{inst} on {a:#x}, {b:#x}"),
    }
}

#[test]
fn every_integer_form_computes_what_the_evaluators_define() {
    let (dst, a, b) = (Reg(3), Reg(1), Reg(2));
    for width in WIDTHS {
        for (x, y) in EDGES.iter().flat_map(|&x| EDGES.map(|y| (x, y))) {
            for op in AluOp::ALL {
                let expected = ops::eval_alu(op, width, x, y);
                assert_computes(MachInst::Alu { op, width, dst, a, b }, x, y, expected);
                let imm = MachInst::AluImm { op, width, dst, a, imm: y as i64 };
                assert_computes(imm, x, 0, expected);
            }
            for op in CmpOp::ALL {
                let expected = Ok(ops::eval_cmp(op, width, x, y));
                assert_computes(MachInst::Cmp { op, width, dst, a, b }, x, y, expected);
                let imm = MachInst::CmpImm { op, width, dst, a, imm: y as i64 };
                assert_computes(imm, x, 0, expected);
            }
        }
    }
}

#[test]
fn every_access_shape_moves_what_the_memory_defines() {
    let cpu = Cpu::default();
    let mut memory = LinearMemory::new(Limits::at_least(1));
    for (i, value) in EDGES.iter().enumerate() {
        memory.store(8 * i as u32, 0, 8, *value).unwrap();
    }
    let size = memory.size_bytes() as u32;
    let addr = Reg(2);
    // Every edge value's bytes, aligned and not, and the last bytes of memory.
    let addresses = (0..EDGES.len() as u32).flat_map(|i| [8 * i, 8 * i + 3]).chain([size - 8]);
    for (dst, width, signed, dst_width) in load_shapes() {
        let load = MachInst::MemLoad { dst, addr, offset: 4, width, signed, dst_width };
        for at in addresses.clone() {
            let mut state = CpuState::new();
            state[addr] = at as u64;
            let expected = memory.load(at, 4, width).map(|raw| ops::extend_loaded(raw, width, signed, dst_width));
            let (exit, after, _) = run_one(&cpu, load, state, &mut memory);
            match expected {
                Ok(value) => {
                    assert_eq!(exit, Exit::Return, "{load} at {at}");
                    assert_eq!(after.read(dst), value, "{load} at {at}");
                }
                Err(code) => assert_eq!(exit, Exit::Trap { code, at: 0 }, "{load} at {at}"),
            }
        }
    }
    for (src, width) in store_shapes() {
        let store = MachInst::MemStore { src, addr, offset: 4, width };
        for (&value, at) in EDGES.iter().cycle().zip(addresses.clone()) {
            let mut state = operands(value, 0);
            state[addr] = at as u64;
            let mut expected = memory.clone();
            let trap = expected.store(at, 4, width, value).err();
            let (exit, _, _) = run_one(&cpu, store, state, &mut memory);
            match trap {
                None => assert_eq!(exit, Exit::Return, "{store} of {value:#x} at {at}"),
                Some(code) => assert_eq!(exit, Exit::Trap { code, at: 0 }, "{store} at {at}"),
            }
            assert_eq!(memory.bytes(), expected.bytes(), "{store} of {value:#x} at {at}");
        }
    }
}

#[test]
fn a_conditional_branch_is_taken_exactly_when_its_condition_says() {
    let cpu = Cpu::default();
    for negate in [false, true] {
        for cond in EDGES {
            let mut asm = Assembler::new();
            let skip = asm.new_label();
            asm.emit(MachInst::BrIf { cond: Reg(1), target: skip, negate });
            asm.emit(MachInst::MovImm { dst: Reg(3), imm: 1 });
            asm.bind(skip);
            let code = asm.finish();
            let mut state = operands(cond, 0);
            let (mut values, mut memory) = (ValueStack::with_capacity(1), LinearMemory::new(Limits::at_least(0)));
            let mut ctx = ExecContext {
                values: &mut values,
                frame_base: 0,
                memory: Some(&mut memory),
                globals: &mut [],
                tables: &mut [],
                meter: Meter::off(),
            };
            cpu.run(&mut state, &code, 0, &mut ctx, &mut CycleCounter::new());
            let taken = state[Reg(3)] == 0;
            assert_eq!(taken, (cond != 0) != negate, "negate {negate}, cond {cond:#x}");
        }
    }
}
