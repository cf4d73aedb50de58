//! Opcode-coverage accounting for the conformance subsystem.
//!
//! [`exhaustive_module`] builds a deterministic, trap-free module whose
//! `main` export executes (or at least encodes, for dead-path instructions
//! like `unreachable`) **every opcode the engine implements**, folding every
//! produced value into an `i32` checksum. [`opcode_census`] counts the
//! opcodes actually present in a module's bodies. Together they make the
//! fuzzer's coverage claim checkable: the census of the generated corpus plus
//! the exhaustive module must equal [`Opcode::ALL`] exactly — no silent holes
//! in what the differential tests exercise.

use std::collections::BTreeMap;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::module::ConstExpr;
use wasm::opcode::Opcode;
use wasm::reader::BytecodeReader;
use wasm::types::{BlockType, FuncType, GlobalType, Limits, ValueType};
use wasm::Module;

/// Counts how often each opcode occurs across all function bodies.
///
/// Unknown bytes terminate the walk of that body (they cannot occur in
/// modules produced by the builder, decoder, or WAT frontend).
pub fn opcode_census(module: &Module) -> BTreeMap<u8, u32> {
    let mut census = BTreeMap::new();
    for func in &module.funcs {
        for instr in BytecodeReader::new(&func.code).map_while(Result::ok) {
            *census.entry(instr.op.to_byte()).or_insert(0) += 1;
        }
    }
    census
}

/// The opcodes in [`Opcode::ALL`] missing from `census`.
pub fn missing_opcodes(census: &BTreeMap<u8, u32>) -> Vec<Opcode> {
    Opcode::ALL
        .iter()
        .copied()
        .filter(|op| !census.contains_key(&op.to_byte()))
        .collect()
}

/// Folds the i32 on top of the stack into the checksum accumulator (local 0).
fn fold32(c: &mut CodeBuilder) {
    c.local_get(0).op(Opcode::I32Add).local_set(0);
}

/// Folds an i64 via `i32.wrap_i64`.
fn fold64(c: &mut CodeBuilder) {
    c.op(Opcode::I32WrapI64);
    fold32(c);
}

/// Folds an f32 via `i32.reinterpret_f32`.
fn fold_f32(c: &mut CodeBuilder) {
    c.op(Opcode::I32ReinterpretF32);
    fold32(c);
}

/// Folds an f64 via `i64.reinterpret_f64`.
fn fold_f64(c: &mut CodeBuilder) {
    c.op(Opcode::I64ReinterpretF64);
    fold64(c);
}

/// Builds the module whose `main` export covers the full opcode set.
///
/// `main: [] -> [i32]` executes deterministically, never traps, and returns
/// an i32 checksum, so it slots directly into the cross-tier differential
/// harness. The function index space is: 0 = `add` (also reachable through
/// the table at slot 1), 1 = `main`.
pub fn exhaustive_module() -> Module {
    let mut b = ModuleBuilder::new();
    let mem = b.add_memory(Limits::bounded(1, 2));
    let table = b.add_table(ValueType::FuncRef, Limits::at_least(4));
    let g_i32 = b.add_global(GlobalType::mutable(ValueType::I32), ConstExpr::I32(11));
    let g_i64 = b.add_global(GlobalType::mutable(ValueType::I64), ConstExpr::I64(-7));
    let g_f32 = b.add_global(GlobalType::mutable(ValueType::F32), ConstExpr::F32(0.5));
    let g_f64 = b.add_global(GlobalType::mutable(ValueType::F64), ConstExpr::F64(2.5));
    let g_ref = b.add_global(
        GlobalType::mutable(ValueType::ExternRef),
        ConstExpr::RefNull(ValueType::ExternRef),
    );

    let binop_ty = FuncType::new(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32]);
    let binop_index = b.add_type(binop_ty.clone());

    // add(a, b) = a + b, via an explicit `return`.
    let add = {
        let mut c = CodeBuilder::new();
        c.local_get(0).local_get(1).op(Opcode::I32Add).return_();
        b.add_func(binop_ty, vec![], c.finish())
    };

    let mut c = CodeBuilder::new();
    // Locals of main: 0 = i32 accumulator, 1 = i32 scratch.

    // ---- Control flow ---------------------------------------------------
    c.nop();
    c.block(BlockType::Empty).end();
    // if/else with a dead `unreachable` in the never-taken arm.
    c.i32_const(0)
        .if_(BlockType::Empty)
        .unreachable()
        .else_()
        .nop()
        .end();
    // br with a value out of a block.
    c.block(BlockType::Value(ValueType::I32)).i32_const(9).br(0).end();
    fold32(&mut c);
    // Loop with a taken backedge and a br_if exit.
    c.i32_const(3).local_set(1);
    c.block(BlockType::Empty)
        .loop_(BlockType::Empty)
        .local_get(1)
        .op(Opcode::I32Eqz)
        .br_if(1)
        .local_get(1)
        .i32_const(1)
        .op(Opcode::I32Sub)
        .local_set(1)
        .br(0)
        .end()
        .end();
    // br_table selecting the default target.
    c.block(BlockType::Empty)
        .block(BlockType::Empty)
        .i32_const(1)
        .br_table(&[0], 1)
        .end()
        .end();
    // Calls, direct and indirect (table slot 1 holds `add`).
    c.i32_const(30).i32_const(12).call(add);
    fold32(&mut c);
    c.i32_const(7).i32_const(5).i32_const(1).call_indirect(binop_index, table);
    fold32(&mut c);

    // ---- Parametric & variables ----------------------------------------
    c.i32_const(99).drop_();
    c.i32_const(3).i32_const(4).i32_const(1).select();
    fold32(&mut c);
    c.i64_const(5).i64_const(6).i32_const(0).select_t(&[ValueType::I64]);
    fold64(&mut c);
    c.i32_const(17).local_tee(1);
    fold32(&mut c);
    c.global_get(g_i32);
    fold32(&mut c);
    c.i32_const(21).global_set(g_i32);
    c.global_get(g_i64);
    fold64(&mut c);
    c.i64_const(8).global_set(g_i64);
    c.global_get(g_f32);
    fold_f32(&mut c);
    c.f32_const(1.25).global_set(g_f32);
    c.global_get(g_f64);
    fold_f64(&mut c);
    c.f64_const(-3.5).global_set(g_f64);

    // ---- Memory ---------------------------------------------------------
    c.i32_const(8).i32_const(-123).mem(Opcode::I32Store, 2, 0);
    c.i32_const(16).i64_const(-4567).mem(Opcode::I64Store, 3, 0);
    c.i32_const(24).f32_const(1.5).mem(Opcode::F32Store, 2, 0);
    c.i32_const(32).f64_const(-2.25).mem(Opcode::F64Store, 3, 0);
    c.i32_const(40).i32_const(0x1FF).mem(Opcode::I32Store8, 0, 0);
    c.i32_const(42).i32_const(0x1FFFF).mem(Opcode::I32Store16, 1, 0);
    c.i32_const(48).i64_const(0x2FF).mem(Opcode::I64Store8, 0, 0);
    c.i32_const(50).i64_const(0x2FFFF).mem(Opcode::I64Store16, 1, 0);
    c.i32_const(56).i64_const(0x0002_FFFF_FFFF).mem(Opcode::I64Store32, 2, 2);
    for (op, addr) in [
        (Opcode::I32Load, 8),
        (Opcode::I32Load8S, 40),
        (Opcode::I32Load8U, 40),
        (Opcode::I32Load16S, 42),
        (Opcode::I32Load16U, 42),
    ] {
        c.i32_const(addr).mem(op, 0, 0);
        fold32(&mut c);
    }
    for (op, addr) in [
        (Opcode::I64Load, 16),
        (Opcode::I64Load8S, 48),
        (Opcode::I64Load8U, 48),
        (Opcode::I64Load16S, 50),
        (Opcode::I64Load16U, 50),
        (Opcode::I64Load32S, 56),
        (Opcode::I64Load32U, 56),
    ] {
        c.i32_const(addr).mem(op, 0, 2);
        fold64(&mut c);
    }
    c.i32_const(24).mem(Opcode::F32Load, 2, 0);
    fold_f32(&mut c);
    c.i32_const(32).mem(Opcode::F64Load, 3, 0);
    fold_f64(&mut c);
    c.memory_size();
    fold32(&mut c);
    c.i32_const(1).memory_grow();
    fold32(&mut c);

    // ---- Integer comparisons -------------------------------------------
    c.i32_const(0).op(Opcode::I32Eqz);
    fold32(&mut c);
    for op in [
        Opcode::I32Eq,
        Opcode::I32Ne,
        Opcode::I32LtS,
        Opcode::I32LtU,
        Opcode::I32GtS,
        Opcode::I32GtU,
        Opcode::I32LeS,
        Opcode::I32LeU,
        Opcode::I32GeS,
        Opcode::I32GeU,
    ] {
        c.i32_const(-3).i32_const(4).op(op);
        fold32(&mut c);
    }
    c.i64_const(1).op(Opcode::I64Eqz);
    fold32(&mut c);
    for op in [
        Opcode::I64Eq,
        Opcode::I64Ne,
        Opcode::I64LtS,
        Opcode::I64LtU,
        Opcode::I64GtS,
        Opcode::I64GtU,
        Opcode::I64LeS,
        Opcode::I64LeU,
        Opcode::I64GeS,
        Opcode::I64GeU,
    ] {
        c.i64_const(-30).i64_const(40).op(op);
        fold32(&mut c);
    }
    for op in [
        Opcode::F32Eq,
        Opcode::F32Ne,
        Opcode::F32Lt,
        Opcode::F32Gt,
        Opcode::F32Le,
        Opcode::F32Ge,
    ] {
        c.f32_const(1.5).f32_const(-2.5).op(op);
        fold32(&mut c);
    }
    for op in [
        Opcode::F64Eq,
        Opcode::F64Ne,
        Opcode::F64Lt,
        Opcode::F64Gt,
        Opcode::F64Le,
        Opcode::F64Ge,
    ] {
        c.f64_const(3.5).f64_const(3.5).op(op);
        fold32(&mut c);
    }

    // ---- Integer arithmetic --------------------------------------------
    for op in [Opcode::I32Clz, Opcode::I32Ctz, Opcode::I32Popcnt] {
        c.i32_const(0x00F0_0F00).op(op);
        fold32(&mut c);
    }
    for op in [
        Opcode::I32Add,
        Opcode::I32Sub,
        Opcode::I32Mul,
        Opcode::I32DivS,
        Opcode::I32DivU,
        Opcode::I32RemS,
        Opcode::I32RemU,
        Opcode::I32And,
        Opcode::I32Or,
        Opcode::I32Xor,
        Opcode::I32Shl,
        Opcode::I32ShrS,
        Opcode::I32ShrU,
        Opcode::I32Rotl,
        Opcode::I32Rotr,
    ] {
        c.i32_const(-1234).i32_const(7).op(op);
        fold32(&mut c);
    }
    for op in [Opcode::I64Clz, Opcode::I64Ctz, Opcode::I64Popcnt] {
        c.i64_const(0x0F0F_0000_FF00_0000).op(op);
        fold64(&mut c);
    }
    for op in [
        Opcode::I64Add,
        Opcode::I64Sub,
        Opcode::I64Mul,
        Opcode::I64DivS,
        Opcode::I64DivU,
        Opcode::I64RemS,
        Opcode::I64RemU,
        Opcode::I64And,
        Opcode::I64Or,
        Opcode::I64Xor,
        Opcode::I64Shl,
        Opcode::I64ShrS,
        Opcode::I64ShrU,
        Opcode::I64Rotl,
        Opcode::I64Rotr,
    ] {
        c.i64_const(-987654321).i64_const(13).op(op);
        fold64(&mut c);
    }

    // ---- Float arithmetic ----------------------------------------------
    for op in [
        Opcode::F32Abs,
        Opcode::F32Neg,
        Opcode::F32Ceil,
        Opcode::F32Floor,
        Opcode::F32Trunc,
        Opcode::F32Nearest,
        Opcode::F32Sqrt,
    ] {
        c.f32_const(6.25).op(op);
        fold_f32(&mut c);
    }
    for op in [
        Opcode::F32Add,
        Opcode::F32Sub,
        Opcode::F32Mul,
        Opcode::F32Div,
        Opcode::F32Min,
        Opcode::F32Max,
        Opcode::F32Copysign,
    ] {
        c.f32_const(-1.5).f32_const(0.25).op(op);
        fold_f32(&mut c);
    }
    for op in [
        Opcode::F64Abs,
        Opcode::F64Neg,
        Opcode::F64Ceil,
        Opcode::F64Floor,
        Opcode::F64Trunc,
        Opcode::F64Nearest,
        Opcode::F64Sqrt,
    ] {
        c.f64_const(12.5).op(op);
        fold_f64(&mut c);
    }
    for op in [
        Opcode::F64Add,
        Opcode::F64Sub,
        Opcode::F64Mul,
        Opcode::F64Div,
        Opcode::F64Min,
        Opcode::F64Max,
        Opcode::F64Copysign,
    ] {
        c.f64_const(-7.5).f64_const(2.0).op(op);
        fold_f64(&mut c);
    }

    // ---- Conversions ----------------------------------------------------
    c.i64_const(0x1_2345_6789).op(Opcode::I32WrapI64);
    fold32(&mut c);
    c.f32_const(-2.75).op(Opcode::I32TruncF32S);
    fold32(&mut c);
    c.f32_const(2.75).op(Opcode::I32TruncF32U);
    fold32(&mut c);
    c.f64_const(-3.25).op(Opcode::I32TruncF64S);
    fold32(&mut c);
    c.f64_const(3.25).op(Opcode::I32TruncF64U);
    fold32(&mut c);
    c.i32_const(-42).op(Opcode::I64ExtendI32S);
    fold64(&mut c);
    c.i32_const(-42).op(Opcode::I64ExtendI32U);
    fold64(&mut c);
    c.f32_const(-100.5).op(Opcode::I64TruncF32S);
    fold64(&mut c);
    c.f32_const(100.5).op(Opcode::I64TruncF32U);
    fold64(&mut c);
    c.f64_const(-1e6).op(Opcode::I64TruncF64S);
    fold64(&mut c);
    c.f64_const(1e6).op(Opcode::I64TruncF64U);
    fold64(&mut c);
    c.i32_const(-9).op(Opcode::F32ConvertI32S);
    fold_f32(&mut c);
    c.i32_const(9).op(Opcode::F32ConvertI32U);
    fold_f32(&mut c);
    c.i64_const(-11).op(Opcode::F32ConvertI64S);
    fold_f32(&mut c);
    c.i64_const(11).op(Opcode::F32ConvertI64U);
    fold_f32(&mut c);
    c.f64_const(0.125).op(Opcode::F32DemoteF64);
    fold_f32(&mut c);
    c.i32_const(-13).op(Opcode::F64ConvertI32S);
    fold_f64(&mut c);
    c.i32_const(13).op(Opcode::F64ConvertI32U);
    fold_f64(&mut c);
    c.i64_const(-15).op(Opcode::F64ConvertI64S);
    fold_f64(&mut c);
    c.i64_const(15).op(Opcode::F64ConvertI64U);
    fold_f64(&mut c);
    c.f32_const(0.75).op(Opcode::F64PromoteF32);
    fold_f64(&mut c);
    // Reinterpretations in the "from integer" direction (the float-to-int
    // direction is what the fold helpers use throughout).
    c.i32_const(0x3F80_0000).op(Opcode::F32ReinterpretI32);
    fold_f32(&mut c);
    c.i64_const(0x3FF0_0000_0000_0000).op(Opcode::F64ReinterpretI64);
    fold_f64(&mut c);

    // ---- Sign extensions ------------------------------------------------
    c.i32_const(0x1280).op(Opcode::I32Extend8S);
    fold32(&mut c);
    c.i32_const(0x1_8000).op(Opcode::I32Extend16S);
    fold32(&mut c);
    c.i64_const(0x1280).op(Opcode::I64Extend8S);
    fold64(&mut c);
    c.i64_const(0x1_8000).op(Opcode::I64Extend16S);
    fold64(&mut c);
    c.i64_const(0x1_8000_0000).op(Opcode::I64Extend32S);
    fold64(&mut c);

    // ---- References -----------------------------------------------------
    c.ref_null(ValueType::ExternRef).op(Opcode::RefIsNull);
    fold32(&mut c);
    c.ref_null(ValueType::FuncRef).op(Opcode::RefIsNull);
    fold32(&mut c);
    c.ref_func(add).op(Opcode::RefIsNull);
    fold32(&mut c);
    c.ref_null(ValueType::ExternRef).global_set(g_ref);

    // Return the checksum.
    c.local_get(0);

    let main = b.add_func(
        FuncType::new(vec![], vec![ValueType::I32]),
        vec![ValueType::I32, ValueType::I32],
        c.finish(),
    );
    b.export_func("main", main);
    b.export_memory("mem", mem);
    b.add_elem(table, ConstExpr::I32(1), vec![add]);
    b.add_data(mem, ConstExpr::I32(0), (0u8..64).collect());
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_module_validates_and_covers_every_opcode() {
        let module = exhaustive_module();
        wasm::validate::validate(&module).expect("validates");
        let census = opcode_census(&module);
        let missing = missing_opcodes(&census);
        assert!(missing.is_empty(), "missing opcodes: {missing:?}");
    }

    #[test]
    fn exhaustive_module_runs_identically_on_every_config() {
        use engine::{Engine, Imports, Instrumentation};
        let module = exhaustive_module();
        let mut results = Vec::new();
        for config in crate::runner::all_configs() {
            let name = config.name.clone();
            let engine = Engine::new(config);
            let mut instance = engine
                .instantiate(&module, Imports::new(), Instrumentation::none())
                .unwrap_or_else(|e| panic!("[{name}] instantiate: {e}"));
            let r = engine
                .call_export(&mut instance, "main", &[])
                .unwrap_or_else(|e| panic!("[{name}] trap: {e}"));
            results.push((name, r[0]));
        }
        let (first_name, first) = results[0].clone();
        for (name, value) in &results {
            assert_eq!(value, &first, "{name} disagrees with {first_name}");
        }
    }

    #[test]
    fn exhaustive_module_roundtrips_through_wat() {
        let module = exhaustive_module();
        let bytes = wasm::encode::encode(&module);
        let text = wasm::wat::print::print_module(&module);
        let reparsed = wasm::wat::parse_module(&text)
            .unwrap_or_else(|e| panic!("{}\n{text}", e.describe(&text)));
        assert_eq!(bytes, wasm::encode::encode(&reparsed), "byte-identical round trip");
    }
}
