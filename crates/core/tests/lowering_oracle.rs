//! The baseline compiler's integer arms, held to `classify`.
//!
//! The compile loop gives every integer ALU, compare and unary opcode an arm
//! of its own, with the operation and width written out as constants;
//! `machine::lower::classify` is the specification those arms must agree
//! with, and `OpClass::evaluate` the one definition of what folding
//! computes. For every opcode `classify` maps to `Alu`, `Cmp` or `Unop`,
//! this compiles the three operand shapes the arms treat differently under
//! `allopt` — both operands in registers, a constant right operand inside
//! and outside the 32-bit immediate range, every operand constant — and
//! checks the emitted operation, width and form, and the folded bits; under
//! `nok` it checks that no immediate form is selected.

use machine::inst::{MachInst, Width};
use machine::lower::{classify, OpClass};
use spc::{CompiledFunction, CompilerOptions, ProbeSites, SinglePassCompiler};
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{FuncType, ValueType};
use wasm::validate::validate;

/// The opcodes with an arm of their own, with their class.
fn integer_opcodes() -> Vec<(Opcode, OpClass)> {
    let ops: Vec<_> = Opcode::ALL
        .iter()
        .filter_map(|&op| match classify(op) {
            Some(class @ (OpClass::Alu(..) | OpClass::Cmp(..) | OpClass::Unop(..))) => {
                Some((op, class))
            }
            _ => None,
        })
        .collect();
    // 15 ALU operations, 10 compares and 6 or 7 unary operations per width.
    assert_eq!(ops.len(), 63, "classify's integer opcodes");
    ops
}

fn width_of(class: OpClass) -> Width {
    match class {
        OpClass::Alu(_, w) | OpClass::Cmp(_, w) | OpClass::Unop(_, w) => w,
        _ => unreachable!("integer classes only"),
    }
}

fn operand_type(class: OpClass) -> ValueType {
    match width_of(class) {
        Width::W32 => ValueType::I32,
        Width::W64 => ValueType::I64,
    }
}

/// Pushes `value` as a constant of type `ty`.
fn push_const(c: &mut CodeBuilder, ty: ValueType, value: i64) {
    match ty {
        ValueType::I32 => c.i32_const(value as i32),
        _ => c.i64_const(value),
    };
}

/// `value` as the compiler keeps a constant of type `ty`: an `i32`
/// zero-extended.
fn bits(ty: ValueType, value: i64) -> u64 {
    match ty {
        ValueType::I32 => value as i32 as u32 as u64,
        _ => value as u64,
    }
}

/// Compiles `f(params) -> result { code; op }` under `options`.
fn compile(
    options: CompilerOptions,
    op: Opcode,
    class: OpClass,
    params: usize,
    code: impl FnOnce(&mut CodeBuilder),
) -> CompiledFunction {
    let ty = operand_type(class);
    let mut c = CodeBuilder::new();
    code(&mut c);
    c.op(op);
    let mut b = ModuleBuilder::new();
    let f = b.add_func(
        FuncType::new(vec![ty; params], vec![class.result_type()]),
        vec![],
        c.finish(),
    );
    let module = b.finish();
    let info = validate(&module).expect("valid");
    SinglePassCompiler::new(options)
        .compile(&module, f, &info.funcs[0], &ProbeSites::none())
        .unwrap_or_else(|e| panic!("{op}: {e}"))
}

/// The integer operations the compiled code performs: its `Alu`, `AluImm`,
/// `Cmp`, `CmpImm` and `Unop` instructions.
fn operations(code: &CompiledFunction) -> Vec<MachInst> {
    code.code
        .insts()
        .iter()
        .filter(|inst| {
            matches!(
                inst,
                MachInst::Alu { .. }
                    | MachInst::AluImm { .. }
                    | MachInst::Cmp { .. }
                    | MachInst::CmpImm { .. }
                    | MachInst::Unop { .. }
            )
        })
        .copied()
        .collect()
}

/// True if `inst` is `class` in register form.
fn is_register_form(inst: &MachInst, class: OpClass) -> bool {
    match (*inst, class) {
        (MachInst::Alu { op, width, .. }, OpClass::Alu(o, w)) => (op, width) == (o, w),
        (MachInst::Cmp { op, width, .. }, OpClass::Cmp(o, w)) => (op, width) == (o, w),
        (MachInst::Unop { op, width, .. }, OpClass::Unop(o, w)) => (op, width) == (o, w),
        _ => false,
    }
}

/// True if `inst` is `class` in immediate form with `imm`.
fn is_immediate_form(inst: &MachInst, class: OpClass, expected: i64) -> bool {
    match (*inst, class) {
        (MachInst::AluImm { op, width, imm, .. }, OpClass::Alu(o, w)) => {
            (op, width, imm) == (o, w, expected)
        }
        (MachInst::CmpImm { op, width, imm, .. }, OpClass::Cmp(o, w)) => {
            (op, width, imm) == (o, w, expected)
        }
        _ => false,
    }
}

#[test]
fn register_operands_lower_to_classify_s_operation_and_width() {
    for (op, class) in integer_opcodes() {
        let arity = class.arity();
        let code = compile(CompilerOptions::allopt(), op, class, arity, |c| {
            for local in 0..arity as u32 {
                c.local_get(local);
            }
        });
        let emitted = operations(&code);
        assert!(
            emitted.len() == 1 && is_register_form(&emitted[0], class),
            "{op}: expected {class:?} in register form, emitted {emitted:?}"
        );
    }
}

#[test]
fn a_constant_right_operand_is_an_immediate_only_inside_the_32_bit_range() {
    for (op, class) in integer_opcodes() {
        if class.arity() != 2 {
            continue;
        }
        let ty = operand_type(class);
        let mut values = vec![7, -1, i32::MIN as i64, i32::MAX as i64];
        if ty == ValueType::I64 {
            values.extend([i32::MAX as i64 + 1, i32::MIN as i64 - 1, 1 << 40, i64::MIN]);
        }
        for k in values {
            let inside = ty == ValueType::I32 || i32::try_from(k).is_ok();
            for options in [CompilerOptions::allopt(), CompilerOptions::nok()] {
                let immediates = options.instruction_selection;
                let code = compile(options, op, class, 1, |c| {
                    c.local_get(0);
                    push_const(c, ty, k);
                });
                let emitted = operations(&code);
                let ok = match emitted.as_slice() {
                    [inst] if inside && immediates => {
                        is_immediate_form(inst, class, bits(ty, k) as i64)
                    }
                    [inst] => is_register_form(inst, class),
                    _ => false,
                };
                assert!(
                    ok,
                    "{op} with right operand {k} (inside the range: {inside}, immediates on: \
                     {immediates}): emitted {emitted:?}"
                );
            }
        }
    }
}

#[test]
fn constant_operands_fold_to_evaluate_s_bits_unless_it_traps() {
    let mut folded = 0;
    let mut kept = 0;
    for (op, class) in integer_opcodes() {
        let ty = operand_type(class);
        let (min, max) = match ty {
            ValueType::I32 => (i32::MIN as i64, i32::MAX as i64),
            _ => (i64::MIN, i64::MAX),
        };
        let pairs = [
            (7, 3),
            (-9, 31),
            (min, -1),
            (5, 0),
            (max, 2),
            (0, -7),
            (0x1234_5678, 33),
        ];
        for (a, b) in pairs {
            let operands = [bits(ty, a), bits(ty, b)];
            let operands = &operands[..class.arity()];
            let code = compile(CompilerOptions::allopt(), op, class, 0, |c| {
                push_const(c, ty, a);
                if class.arity() == 2 {
                    push_const(c, ty, b);
                }
            });
            let emitted = operations(&code);
            match class.evaluate(operands) {
                Ok(result) => {
                    folded += 1;
                    let stored = code.code.insts().iter().any(|inst| {
                        matches!(*inst, MachInst::StoreSlotImm { slot: 0, imm } if imm == result as i64)
                    });
                    assert!(
                        emitted.is_empty() && stored && code.stats.constants_folded == 1,
                        "{op} {operands:?}: expected a fold to {result:#x}, emitted {:?}",
                        code.code.insts()
                    );
                }
                Err(trap) => {
                    kept += 1;
                    assert!(
                        emitted.len() == 1 && is_register_form(&emitted[0], class),
                        "{op} {operands:?} traps ({trap:?}), so it must be emitted: {emitted:?}"
                    );
                    assert_eq!(code.stats.constants_folded, 0, "{op} {operands:?}");
                }
            }
        }
    }
    // Division and remainder by zero, and `INT_MIN / -1`, at both widths.
    assert_eq!(kept, 10, "trapping operand pairs");
    assert!(folded > 400, "{folded} folds");
}
