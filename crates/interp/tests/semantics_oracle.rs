//! The interpreter's semantics oracle: every value opcode and every load and
//! store, run as a one-instruction body on edge operands, must compute what
//! the shared definitions say — `OpClass::evaluate` (through `classify`) for
//! the value operations, `LinearMemory::load`/`store` plus the load's sign or
//! zero extension for the memory accesses. `Interpreter::run` gives most of
//! these opcodes an arm of their own, so a wrong operation, width, extension
//! or access size in one arm fails here and nowhere else.

use interp::{Interpreter, NoProbes, PreparedFunction};
use machine::cost::CycleCounter;
use machine::cpu::{ExecContext, Exit, Meter};
use machine::inst::{TrapCode, Width};
use machine::lower::classify;
use machine::memory::LinearMemory;
use machine::ops;
use machine::values::{ValueStack, ValueTag, WasmValue};
use std::sync::Arc;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::module::Module;
use wasm::opcode::{OpSignature, Opcode};
use wasm::types::{FuncType, Limits, ValueType};

/// A module whose one function's body is `op` alone (no trailing `end`, so
/// the frame returns by falling off it), memory access immediates included.
fn one_instruction(op: Opcode, offset: u32) -> (Module, PreparedFunction) {
    let mut code = CodeBuilder::new();
    if op.is_memory_access() {
        code.mem(op, 0, offset);
    } else {
        code.op(op);
    }
    let code = code.into_raw_bytes();
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(1));
    let func = b.add_func(FuncType::new(vec![], vec![]), vec![], code.clone());
    let prepared = PreparedFunction {
        func_index: func,
        num_params: 0,
        num_results: 0,
        local_types: vec![],
        max_stack: 4,
        sidetable: Arc::default(),
        body_len: code.len() as u32,
        fuel: Arc::default(),
    };
    (b.finish(), prepared)
}

/// Runs the frame with `operands` on its stack; returns the exit and the
/// stack it leaves.
fn run(
    (module, prepared): &(Module, PreparedFunction),
    operands: &[WasmValue],
    memory: &mut LinearMemory,
) -> (Exit, ValueStack) {
    let mut values = ValueStack::with_capacity(8);
    for (slot, value) in operands.iter().enumerate() {
        values.write_value(slot, *value);
    }
    values.set_sp(operands.len());
    let mut cycles = CycleCounter::new();
    let mut ctx = ExecContext {
        values: &mut values,
        frame_base: 0,
        memory: Some(memory),
        globals: &mut [],
        tables: &mut [],
        meter: Meter::default(),
    };
    let exit =
        Interpreter::default().run(module, prepared, 0, &mut ctx, &mut NoProbes, &mut cycles);
    (exit, values)
}

/// Integer edge operands: zero, one, minus one, both types' extremes, and
/// shift counts at and past both widths.
const INTEGERS: [i64; 13] = [
    0,
    1,
    -1,
    i32::MIN as i64,
    i32::MAX as i64,
    i64::MIN,
    i64::MAX,
    31,
    32,
    33,
    63,
    64,
    65,
];

/// Float edge operands: both zeros, a NaN, both infinities, and values a
/// conversion can truncate or overflows on.
const FLOATS: [f64; 9] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.5,
    -2.5,
    3e9,
    -1e19,
];

fn edge_operands(ty: ValueType) -> Vec<WasmValue> {
    match ty {
        ValueType::I32 => INTEGERS.iter().map(|&v| WasmValue::I32(v as i32)).collect(),
        ValueType::I64 => INTEGERS.iter().map(|&v| WasmValue::I64(v)).collect(),
        ValueType::F32 => FLOATS.iter().map(|&v| WasmValue::F32(v as f32)).collect(),
        ValueType::F64 => FLOATS.iter().map(|&v| WasmValue::F64(v)).collect(),
        other => panic!("no classified operation takes {other:?}"),
    }
}

#[test]
fn every_value_opcode_computes_what_evaluate_says() {
    let mut memory = LinearMemory::new(Limits::at_least(1));
    let mut cases = 0;
    for &op in Opcode::ALL {
        let Some(class) = classify(op) else { continue };
        let frame = one_instruction(op, 0);
        let edges = edge_operands(class.operand_type());
        let tag = ValueTag::for_type(class.result_type());
        let pairs: Vec<Vec<WasmValue>> = match class.arity() {
            1 => edges.iter().map(|&a| vec![a]).collect(),
            _ => edges
                .iter()
                .flat_map(|&a| edges.iter().map(move |&b| vec![a, b]))
                .collect(),
        };
        for operands in pairs {
            let bits: Vec<u64> = operands.iter().map(WasmValue::to_bits).collect();
            let (exit, values) = run(&frame, &operands, &mut memory);
            match class.evaluate(&bits) {
                Ok(expected) => {
                    assert_eq!(exit, Exit::Return, "{op} {operands:?}");
                    assert_eq!(values.sp(), 1, "{op} {operands:?}: one result");
                    assert_eq!(
                        (values.read(0), values.tag(0)),
                        (expected, tag),
                        "{op} {operands:?}"
                    );
                }
                Err(code) => {
                    assert_eq!(
                        exit,
                        Exit::Trap { code, at: 0 },
                        "{op} {operands:?}"
                    )
                }
            }
            cases += 1;
        }
    }
    assert!(cases > 5000, "{cases} cases");
}

/// Bytes no two neighbours of which are equal, half with the top bit set, so
/// a wrong width, offset or extension reads or writes something visible.
fn patterned_memory() -> LinearMemory {
    let mut memory = LinearMemory::new(Limits::at_least(1));
    let pattern: Vec<u8> = (0..memory.size_bytes())
        .map(|i| (i * 37 + 0x81) as u8)
        .collect();
    memory.init(0, &pattern).unwrap();
    memory
}

/// `(address, memarg offset)` for an access of `width` bytes: aligned,
/// unaligned (through the offset), ending on the last byte, one byte past
/// the end, and an address plus offset that overflows 32 bits.
fn addresses(size: u32, width: u32) -> [(u32, u32); 5] {
    [
        (64, 0),
        (61, 6),
        (size - width - 1, 1),
        (size - width + 1, 0),
        (u32::MAX, u32::MAX),
    ]
}

/// The loads that sign-extend; every other load zero-extends.
const SIGNED_LOADS: [Opcode; 5] = [
    Opcode::I32Load8S,
    Opcode::I32Load16S,
    Opcode::I64Load8S,
    Opcode::I64Load16S,
    Opcode::I64Load32S,
];

fn int_width(ty: ValueType) -> Width {
    match ty {
        ValueType::I32 | ValueType::F32 => Width::W32,
        _ => Width::W64,
    }
}

#[test]
fn every_load_reads_and_extends_what_linear_memory_holds() {
    let reference = patterned_memory();
    let size = reference.size_bytes() as u32;
    let mut loads = 0;
    for &op in Opcode::ALL {
        let OpSignature::Load(ty) = op.signature() else {
            continue;
        };
        let width = op.access_width().expect("a load has a width");
        let signed = SIGNED_LOADS.contains(&op);
        for (addr, offset) in addresses(size, width) {
            let mut memory = patterned_memory();
            let frame = one_instruction(op, offset);
            let (exit, values) = run(&frame, &[WasmValue::I32(addr as i32)], &mut memory);
            match reference.load(addr, offset, width) {
                Ok(raw) => {
                    let expected = ops::extend_loaded(raw, width, signed, int_width(ty));
                    assert_eq!(exit, Exit::Return, "{op} at {addr}+{offset}");
                    assert_eq!(
                        (values.read(0), values.tag(0), values.sp()),
                        (expected, ValueTag::for_type(ty), 1),
                        "{op} at {addr}+{offset}"
                    );
                }
                Err(code) => assert_eq!(
                    exit,
                    Exit::Trap { code, at: 0 },
                    "{op} at {addr}+{offset}"
                ),
            }
            assert!(
                memory.bytes() == reference.bytes(),
                "{op} at {addr}+{offset} wrote memory"
            );
        }
        loads += 1;
    }
    assert_eq!(loads, 14);
}

#[test]
fn every_store_writes_what_linear_memory_stores() {
    let size = patterned_memory().size_bytes() as u32;
    // Every byte differs from its neighbours and from the memory pattern's.
    let bits = 0xF1E2_D3C4_B5A6_9788u64;
    let mut stores = 0;
    for &op in Opcode::ALL {
        let OpSignature::Store(ty) = op.signature() else {
            continue;
        };
        let width = op.access_width().expect("a store has a width");
        let value = match ty {
            ValueType::I32 => WasmValue::I32(bits as i32),
            ValueType::I64 => WasmValue::I64(bits as i64),
            ValueType::F32 => WasmValue::F32(f32::from_bits(bits as u32)),
            ValueType::F64 => WasmValue::F64(f64::from_bits(bits)),
            other => panic!("{op} stores {other:?}"),
        };
        for (addr, offset) in addresses(size, width) {
            let mut memory = patterned_memory();
            let mut expected = patterned_memory();
            let frame = one_instruction(op, offset);
            let (exit, _) = run(&frame, &[WasmValue::I32(addr as i32), value], &mut memory);
            match expected.store(addr, offset, width, value.to_bits()) {
                Ok(()) => assert_eq!(exit, Exit::Return, "{op} at {addr}+{offset}"),
                Err(code) => assert_eq!(
                    exit,
                    Exit::Trap { code, at: 0 },
                    "{op} at {addr}+{offset}"
                ),
            }
            assert!(
                memory.bytes() == expected.bytes(),
                "{op} at {addr}+{offset}: memory differs"
            );
        }
        stores += 1;
    }
    assert_eq!(stores, 9);
}

#[test]
fn a_trapping_access_reports_memory_out_of_bounds() {
    // The reference's trap code, spelled out once: the comparisons above take
    // it from `LinearMemory`, so a change there would move both sides.
    let mut memory = patterned_memory();
    let frame = one_instruction(Opcode::I64Load, 0);
    let (exit, _) = run(&frame, &[WasmValue::I32(-4)], &mut memory);
    assert_eq!(
        exit,
        Exit::Trap {
            code: TrapCode::MemoryOutOfBounds,
            at: 0
        }
    );
}
