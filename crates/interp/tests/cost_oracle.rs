//! The interpreter's cost oracle: `machine::lower::classify` plus the
//! `CostModel` are the specification of what a Wasm instruction costs in the
//! in-place interpreter, and `Interpreter::run` — which charges from a
//! per-opcode table built once in `Interpreter::new` — must agree with them
//! on every opcode. The expectations below are written out from the
//! `CostModel` fields, never read back from the interpreter.

use interp::{Interpreter, NoProbes, PreparedFunction};
use interp::sidetable::build_sidetable;
use machine::cost::{CostModel, CycleCounter};
use machine::cpu::{ExecContext, Exit, Meter};
use machine::inst::{AluOp, FAluOp, FUnOp, TrapCode};
use machine::lower::{classify, OpClass};
use machine::memory::{LinearMemory, Table};
use machine::values::{GlobalSlot, ValueStack, WasmValue};
use std::collections::HashSet;
use std::sync::Arc;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, Limits, ValueType};

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

/// One frame to execute: a body, the frame's locals, and the operands
/// already on its stack when execution starts at offset zero.
struct Case {
    results: Vec<ValueType>,
    locals: Vec<WasmValue>,
    operands: Vec<WasmValue>,
    code: Vec<u8>,
    /// Where in `code` the frame starts executing.
    start_ip: usize,
    /// Whether `code` is a complete, valid body (ends in `end`) whose
    /// sidetable validation writes; a bare instruction runs against an empty
    /// sidetable and returns by falling off the end.
    structured: bool,
}

impl Case {
    /// A bare instruction sequence: no trailing `end`, no results.
    fn bare(code: CodeBuilder, operands: &[WasmValue]) -> Case {
        Case {
            results: vec![],
            locals: vec![],
            operands: operands.to_vec(),
            code: code.into_raw_bytes(),
            start_ip: 0,
            structured: false,
        }
    }

    /// A complete body. It has to validate, so it opens with constants
    /// pushing `operands`; the frame starts past them, operands in place, and
    /// what `build` emits is all that is charged.
    fn body(results: &[ValueType], build: &dyn Fn(&mut CodeBuilder), operands: &[WasmValue]) -> Case {
        let mut code = CodeBuilder::new();
        for operand in operands {
            match *operand {
                WasmValue::I32(v) => code.i32_const(v),
                WasmValue::I64(v) => code.i64_const(v),
                WasmValue::F32(v) => code.f32_const(v),
                WasmValue::F64(v) => code.f64_const(v),
                other => panic!("no constant pushes {other:?}"),
            };
        }
        let start_ip = code.len();
        build(&mut code);
        Case {
            results: results.to_vec(),
            locals: vec![],
            operands: operands.to_vec(),
            code: code.finish(),
            start_ip,
            structured: true,
        }
    }

    fn with_locals(mut self, locals: &[WasmValue]) -> Case {
        self.locals = locals.to_vec();
        self
    }
}

/// Runs `case` under `cost` and returns the exit and the cycles charged.
fn charged(cost: &CostModel, case: Case) -> (Exit, u64) {
    let local_types: Vec<ValueType> = case.locals.iter().map(|v| v.value_type()).collect();
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(1));
    b.add_global(
        wasm::types::GlobalType::mutable(ValueType::I64),
        wasm::module::ConstExpr::I64(5),
    );
    let callee = b.add_func(FuncType::new(vec![], vec![]), vec![], CodeBuilder::new().finish());
    assert_eq!(callee, 0);
    let func = b.add_func(
        FuncType::new(local_types.clone(), case.results.clone()),
        vec![],
        case.code.clone(),
    );
    let module = b.finish();
    let prepared = PreparedFunction {
        func_index: func,
        num_params: local_types.len() as u32,
        num_results: case.results.len() as u32,
        local_types,
        max_stack: 8,
        sidetable: if case.structured {
            build_sidetable(&module, func).expect("structured body")
        } else {
            Arc::default()
        },
        body_len: case.code.len() as u32,
        fuel: Arc::default(),
    };

    let mut values = ValueStack::with_capacity(64);
    for (slot, value) in case.locals.iter().chain(&case.operands).enumerate() {
        values.write_value(slot, *value);
    }
    values.set_sp(case.locals.len() + case.operands.len());
    let mut memory = LinearMemory::new(Limits::at_least(1));
    let mut globals = vec![GlobalSlot::from_value(WasmValue::I64(5))];
    let mut tables: Vec<Table> = vec![];
    let mut cycles = CycleCounter::new();
    let mut ctx = ExecContext {
        values: &mut values,
        frame_base: 0,
        memory: Some(&mut memory),
        globals: &mut globals,
        tables: &mut tables,
        meter: Meter::default(),
    };
    let exit = Interpreter::new(cost.clone()).run(
        &module,
        &prepared,
        case.start_ip,
        &mut ctx,
        &mut NoProbes,
        &mut cycles,
    );
    (exit, cycles.total())
}

/// What the operation itself costs, by class — the specification the
/// interpreter's table is built from.
fn class_cost(cost: &CostModel, class: OpClass) -> u64 {
    match class {
        OpClass::Alu(AluOp::Mul, _) => cost.mul,
        OpClass::Alu(op, _) if op.is_division() => cost.div,
        OpClass::Alu(..) | OpClass::Unop(..) | OpClass::Cmp(..) => cost.alu,
        OpClass::FAlu(FAluOp::Div, _) => cost.fdiv,
        OpClass::FUnop(FUnOp::Sqrt, _) => cost.fsqrt,
        OpClass::FAlu(..) | OpClass::FUnop(..) | OpClass::FCmp(..) => cost.falu,
        OpClass::Convert(..) => cost.convert,
    }
}

/// Operands of `ty` on which no classified operation traps.
fn benign_operands(ty: ValueType) -> [WasmValue; 2] {
    match ty {
        ValueType::I32 => [WasmValue::I32(7), WasmValue::I32(3)],
        ValueType::I64 => [WasmValue::I64(7), WasmValue::I64(3)],
        ValueType::F32 => [WasmValue::F32(7.0), WasmValue::F32(3.0)],
        ValueType::F64 => [WasmValue::F64(7.0), WasmValue::F64(3.0)],
        other => panic!("no classified operation takes {other:?}"),
    }
}

#[test]
fn every_classified_opcode_costs_what_classify_and_the_model_say() {
    let cost = distinct_costs();
    let mut classified = 0;
    for &op in Opcode::ALL {
        let Some(class) = classify(op) else { continue };
        classified += 1;
        let arity = class.arity();
        let mut code = CodeBuilder::new();
        code.op(op);
        let operands = benign_operands(class.operand_type());
        let (exit, cycles) = charged(&cost, Case::bare(code, &operands[..arity]));
        assert_eq!(exit, Exit::Return, "{op}");
        assert_eq!(
            cycles,
            cost.interp_dispatch
                + arity as u64 * cost.slot_load
                + class_cost(&cost, class)
                + cost.slot_store
                + cost.tag_store,
            "{op}"
        );
    }
    assert!(classified > 120, "classify accepts the arithmetic opcodes ({classified})");
}

#[test]
fn a_trapping_operation_pays_its_loads_and_itself_but_no_store() {
    let cost = distinct_costs();
    let mut code = CodeBuilder::new();
    code.op(Opcode::I32DivU);
    let (exit, cycles) =
        charged(&cost, Case::bare(code, &[WasmValue::I32(1), WasmValue::I32(0)]));
    assert_eq!(exit, Exit::Trap { code: TrapCode::DivisionByZero, at: 0 });
    assert_eq!(cycles, cost.interp_dispatch + 2 * cost.slot_load + cost.div);

    let mut code = CodeBuilder::new();
    code.op(Opcode::Nop).op(Opcode::I32TruncF64S);
    let (exit, cycles) = charged(&cost, Case::bare(code, &[WasmValue::F64(f64::NAN)]));
    assert_eq!(
        exit,
        Exit::Trap { code: TrapCode::InvalidConversionToInteger, at: 1 }
    );
    assert_eq!(cycles, 2 * cost.interp_dispatch + cost.slot_load + cost.convert);
}

/// A non-classified scenario: the opcodes it exercises, the frame, the
/// expected exit and the expected cycles.
struct Scenario {
    name: &'static str,
    covers: Vec<Opcode>,
    case: Case,
    exit: Exit,
    cycles: u64,
}

fn scenarios(c: &CostModel) -> Vec<Scenario> {
    use WasmValue::{F64, I32, I64};
    let d = c.interp_dispatch;
    let imm = c.interp_imm;
    let push = c.slot_store + c.tag_store;
    // The function-level `end`, then falling off the body with no results.
    let end = d + c.interp_control;
    let result_copy = c.slot_load + c.slot_store + c.tag_store;
    let branch_copy = c.slot_load + c.slot_store;
    let bare = |build: &dyn Fn(&mut CodeBuilder), operands: &[WasmValue]| {
        let mut code = CodeBuilder::new();
        build(&mut code);
        Case::bare(code, operands)
    };
    let body = Case::body;
    let trap = |code, at| Exit::Trap { code, at };
    let mut all = vec![
        Scenario {
            name: "nop and drop are dispatch only",
            covers: vec![Opcode::Nop, Opcode::Drop],
            case: bare(&|b| { b.nop().drop_(); }, &[I32(1)]),
            exit: Exit::Return,
            cycles: 2 * d,
        },
        Scenario {
            name: "unreachable traps after dispatch",
            covers: vec![Opcode::Unreachable],
            case: bare(&|b| { b.unreachable(); }, &[]),
            exit: trap(TrapCode::Unreachable, 0),
            cycles: d,
        },
        Scenario {
            name: "block, loop and end",
            covers: vec![Opcode::Block, Opcode::Loop, Opcode::End],
            case: body(
                &[],
                &|b| { b.block(BlockType::Empty).loop_(BlockType::Empty).end().end(); },
                &[],
            ),
            exit: Exit::Return,
            cycles: 2 * (d + c.interp_control + imm) + 2 * (d + c.interp_control) + end,
        },
        Scenario {
            name: "local.get",
            covers: vec![Opcode::LocalGet],
            case: bare(&|b| { b.local_get(0); }, &[]).with_locals(&[I64(9)]),
            exit: Exit::Return,
            cycles: d + imm + c.slot_load + push,
        },
        Scenario {
            name: "local.set and local.tee",
            covers: vec![Opcode::LocalSet, Opcode::LocalTee],
            case: bare(&|b| { b.local_tee(0).local_set(0); }, &[I64(4)]).with_locals(&[I64(9)]),
            exit: Exit::Return,
            cycles: 2 * (d + imm + c.slot_load + push),
        },
        Scenario {
            name: "global.get and global.set",
            covers: vec![Opcode::GlobalGet, Opcode::GlobalSet],
            case: bare(&|b| { b.global_get(0).global_set(0); }, &[]),
            exit: Exit::Return,
            cycles: (d + imm + c.global + push) + (d + imm + c.global + c.slot_load),
        },
        Scenario {
            name: "constant pushes",
            covers: vec![
                Opcode::I32Const,
                Opcode::I64Const,
                Opcode::F32Const,
                Opcode::F64Const,
                Opcode::RefFunc,
                Opcode::RefNull,
            ],
            case: bare(
                &|b| {
                    b.i32_const(-1)
                        .i64_const(1 << 40)
                        .f32_const(1.5)
                        .f64_const(2.5)
                        .ref_func(0)
                        .ref_null(ValueType::FuncRef);
                },
                &[],
            ),
            exit: Exit::Return,
            cycles: 6 * (d + imm + push),
        },
        Scenario {
            name: "ref.is_null",
            covers: vec![Opcode::RefIsNull],
            case: bare(&|b| { b.op(Opcode::RefIsNull); }, &[WasmValue::ExternRef(None)]),
            exit: Exit::Return,
            cycles: d + c.slot_load + c.alu + push,
        },
        Scenario {
            name: "select keeps or replaces at one price",
            covers: vec![Opcode::Select],
            case: bare(&|b| { b.select().i32_const(8).i32_const(0).select(); }, &[I32(1), I32(2), I32(1)]),
            exit: Exit::Return,
            cycles: 2 * (d + 3 * c.slot_load + c.select + c.slot_store) + 2 * (d + imm + push),
        },
        Scenario {
            name: "typed select decodes its type vector",
            covers: vec![Opcode::SelectT],
            case: bare(&|b| { b.select_t(&[ValueType::I32]); }, &[I32(1), I32(2), I32(0)]),
            exit: Exit::Return,
            cycles: d + imm + 3 * c.slot_load + c.select + c.slot_store,
        },
        Scenario {
            name: "memory.size",
            covers: vec![Opcode::MemorySize],
            case: bare(&|b| { b.memory_size(); }, &[]),
            exit: Exit::Return,
            cycles: d + imm + push + c.memory_size,
        },
        Scenario {
            name: "memory.grow",
            covers: vec![Opcode::MemoryGrow],
            case: bare(&|b| { b.memory_grow(); }, &[I32(1)]),
            exit: Exit::Return,
            cycles: d + c.slot_load + c.memory_grow + push,
        },
        Scenario {
            name: "an out-of-bounds load pays dispatch and its memarg only",
            covers: vec![],
            case: bare(&|b| { b.mem(Opcode::I64Load, 3, 0); }, &[I32(-8)]),
            exit: trap(TrapCode::MemoryOutOfBounds, 0),
            cycles: d + 2 * imm,
        },
        Scenario {
            name: "an out-of-bounds store pays dispatch and its memarg only",
            covers: vec![],
            case: bare(&|b| { b.mem(Opcode::I32Store, 2, 0); }, &[I32(-4), I32(1)]),
            exit: trap(TrapCode::MemoryOutOfBounds, 0),
            cycles: d + 2 * imm,
        },
        Scenario {
            name: "if with a true condition falls into the then arm; else jumps to end",
            covers: vec![Opcode::If, Opcode::Else],
            case: body(
                &[],
                &|b| { b.if_(BlockType::Empty).nop().else_().unreachable().end(); },
                &[I32(1)],
            ),
            exit: Exit::Return,
            cycles: (d + c.slot_load + c.branch + imm)
                + d
                + (d + c.interp_control + c.jump)
                + (d + c.interp_control)
                + end,
        },
        Scenario {
            name: "if with a false condition takes the sidetable to the else arm",
            covers: vec![Opcode::If],
            case: body(
                &[],
                &|b| { b.if_(BlockType::Empty).unreachable().else_().nop().end(); },
                &[I32(0)],
            ),
            exit: Exit::Return,
            cycles: (d + c.slot_load + c.branch + imm) + d + (d + c.interp_control) + end,
        },
        Scenario {
            name: "else carries the then arm's result over the else arm",
            covers: vec![Opcode::Else],
            case: body(
                &[ValueType::I32],
                &|b| {
                    b.if_(BlockType::Value(ValueType::I32))
                        .i32_const(1)
                        .else_()
                        .i32_const(2)
                        .end();
                },
                &[I32(1)],
            ),
            exit: Exit::Return,
            // The value is already at the label's base: no copy on the jump.
            cycles: (d + c.slot_load + c.branch + imm)
                + (d + imm + push)
                + (d + c.interp_control + c.jump)
                + (d + c.interp_control)
                + end
                + result_copy,
        },
        Scenario {
            name: "br_if untaken",
            covers: vec![Opcode::BrIf],
            case: body(&[], &|b| { b.br_if(0); }, &[I32(0)]),
            exit: Exit::Return,
            cycles: (d + c.slot_load + c.branch + imm) + end,
        },
        Scenario {
            name: "br_if taken, moving one value down to the label",
            covers: vec![Opcode::BrIf],
            case: body(&[ValueType::I32], &|b| { b.br_if(0).unreachable(); }, &[I32(5), I32(6), I32(1)]),
            exit: Exit::Return,
            cycles: (d + c.slot_load + c.branch + imm) + branch_copy + end + result_copy,
        },
        Scenario {
            name: "br",
            covers: vec![Opcode::Br],
            case: body(&[], &|b| { b.block(BlockType::Empty).br(0).unreachable().end(); }, &[]),
            exit: Exit::Return,
            cycles: (d + c.interp_control + imm)
                + (d + c.jump + imm)
                + (d + c.interp_control)
                + end,
        },
        Scenario {
            name: "br_table, in range and defaulted",
            covers: vec![Opcode::BrTable],
            case: body(
                &[],
                &|b| {
                    b.block(BlockType::Empty)
                        .i32_const(0)
                        .br_table(&[0], 1)
                        .end()
                        .i32_const(9)
                        .br_table(&[0], 0);
                },
                &[],
            ),
            exit: Exit::Return,
            cycles: (d + c.interp_control + imm)
                + 2 * (d + imm + push)
                + 2 * (d + c.slot_load + c.br_table)
                + (d + c.interp_control)
                + end,
        },
        Scenario {
            name: "return copies the results down",
            covers: vec![Opcode::Return],
            case: body(&[ValueType::I32], &|b| { b.return_(); }, &[I32(5), I32(6)]),
            exit: Exit::Return,
            cycles: d + c.jump + result_copy,
        },
        Scenario {
            name: "call exits after decoding the callee",
            covers: vec![Opcode::Call],
            case: bare(&|b| { b.nop().call(0); }, &[]),
            exit: Exit::Call { func_index: 0, site: 1, resume: 3 },
            cycles: d + (d + imm + c.interp_call_setup),
        },
        Scenario {
            name: "call_indirect pops the element index and exits",
            covers: vec![Opcode::CallIndirect],
            case: bare(&|b| { b.call_indirect(0, 0); }, &[I32(3)]),
            exit: Exit::CallIndirect {
                type_index: 0,
                table_index: 0,
                entry_index: 3,
                site: 0,
                resume: 3,
            },
            cycles: d + 2 * imm + c.slot_load + c.interp_call_setup,
        },
    ];
    // Every load and store, each with an operand of its own type.
    for &op in Opcode::ALL.iter().filter(|op| op.is_memory_access()) {
        use wasm::opcode::OpSignature;
        let (operands, cycles) = match op.signature() {
            OpSignature::Load(_) => {
                (vec![I32(16)], d + 2 * imm + c.slot_load + c.mem_load + push)
            }
            OpSignature::Store(ty) => {
                let value = match ty {
                    ValueType::I32 => I32(-2),
                    ValueType::I64 => I64(-2),
                    ValueType::F32 => WasmValue::F32(0.5),
                    _ => F64(0.5),
                };
                (vec![I32(16), value], d + 2 * imm + 2 * c.slot_load + c.mem_store)
            }
            other => panic!("{op} is a memory access with signature {other:?}"),
        };
        all.push(Scenario {
            name: "load or store",
            covers: vec![op],
            case: bare(&|b| { b.mem(op, 0, 4); }, &operands),
            exit: Exit::Return,
            cycles,
        });
    }
    all
}

#[test]
fn every_other_opcode_charges_what_its_arm_is_specified_to() {
    let cost = distinct_costs();
    let mut covered: HashSet<Opcode> = HashSet::new();
    for scenario in scenarios(&cost) {
        let Scenario { name, covers, case, exit, cycles } = scenario;
        let (got_exit, got_cycles) = charged(&cost, case);
        assert_eq!(got_exit, exit, "{name} ({covers:?})");
        assert_eq!(got_cycles, cycles, "{name} ({covers:?})");
        covered.extend(covers);
    }
    // Between them the two oracles walk the whole opcode space: an opcode
    // added to `Opcode::ALL` fails here until it has a specified cost.
    for &op in Opcode::ALL {
        assert!(
            classify(op).is_some() || covered.contains(&op),
            "{op} has no cost expectation"
        );
    }
}

#[test]
fn the_default_model_charges_the_same_shape() {
    // The oracle's distinct model and the shipped one go through the same
    // table builder; spot-check the shipped numbers on the hottest arms.
    let cost = CostModel::default();
    let mut code = CodeBuilder::new();
    code.local_get(0).i32_const(1).op(Opcode::I32Add).local_set(0);
    let (exit, cycles) =
        charged(&cost, Case::bare(code, &[]).with_locals(&[WasmValue::I32(41)]));
    assert_eq!(exit, Exit::Return);
    // local.get 4+1+2+2+2, i32.const 4+1+2+2, i32.add 4+2·2+1+2+2, local.set 4+1+2+2+2.
    assert_eq!(cycles, 11 + 9 + 13 + 11);
}
