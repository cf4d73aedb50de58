//! Coverage-guided property-based differential testing.
//!
//! Randomly generated programs must (1) validate, (2) round-trip
//! encode → decode → WAT-print → WAT-parse → re-encode **byte-identically**,
//! and (3) produce identical results — including identical traps — under
//! every execution configuration. The generator's reach is *accounted
//! for*: [`generator_registry`] declares the opcodes it can emit, a census
//! proves the corpus actually emits them, and together with the conformance
//! crate's exhaustive module the census covers the engine's entire
//! implemented opcode set (see `opcode_coverage_is_complete`).

mod common;
/// The optimizing tier's previous per-value bookkeeping, kept as a reference.
#[path = "../crates/optc/tests/oracle/mod.rs"]
mod optc_oracle;

use engine::EngineConfig;
use machine::values::WasmValue;
use machine::TrapCode;
use proptest::prelude::*;
use spc::CompilerOptions;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, Limits, ValueType};

/// One step of a generated program. Every step consumes the single i32 on
/// the stack and leaves exactly one i32, so every generated program
/// validates by construction.
#[derive(Debug, Clone)]
enum Step {
    Const(i32),
    Param(u8),
    Binop(u8),
    Unop(u8),
    Cmp(u8),
    StoreLocal,
    LoadLocal,
    I64Round(u8, i64),
    F32Round(u8),
    F64Round(u8),
    Mem(u8, u16),
    If(i32),
    Block(i32),
    BrTable,
    Call,
    Select(i32),
    DeadArm(i32),
}

const BINOPS: [Opcode; 12] = [
    Opcode::I32Add,
    Opcode::I32Sub,
    Opcode::I32Mul,
    Opcode::I32And,
    Opcode::I32Or,
    Opcode::I32Xor,
    Opcode::I32Shl,
    Opcode::I32ShrS,
    Opcode::I32ShrU,
    Opcode::I32Rotl,
    Opcode::I32DivS,
    Opcode::I32RemU,
];
const UNOPS: [Opcode; 6] = [
    Opcode::I32Eqz,
    Opcode::I32Clz,
    Opcode::I32Ctz,
    Opcode::I32Popcnt,
    Opcode::I32Extend8S,
    Opcode::I32Extend16S,
];
const CMPS: [Opcode; 10] = [
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
];
const I64OPS: [Opcode; 8] = [
    Opcode::I64Add,
    Opcode::I64Mul,
    Opcode::I64Xor,
    Opcode::I64Rotl,
    Opcode::I64ShrU,
    Opcode::I64Sub,
    Opcode::I64Or,
    Opcode::I64And,
];
const F32OPS: [Opcode; 6] = [
    Opcode::F32Add,
    Opcode::F32Sub,
    Opcode::F32Mul,
    Opcode::F32Abs,
    Opcode::F32Neg,
    Opcode::F32Sqrt,
];
const F64OPS: [Opcode; 8] = [
    Opcode::F64Add,
    Opcode::F64Sub,
    Opcode::F64Mul,
    Opcode::F64Div,
    Opcode::F64Min,
    Opcode::F64Max,
    Opcode::F64Floor,
    Opcode::F64Nearest,
];
/// (store, load) pairs used by `Step::Mem`.
const MEMOPS: [(Opcode, Opcode); 4] = [
    (Opcode::I32Store, Opcode::I32Load),
    (Opcode::I32Store8, Opcode::I32Load8U),
    (Opcode::I32Store16, Opcode::I32Load16S),
    (Opcode::I32Store, Opcode::I32Load16U),
];

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<i32>().prop_map(Step::Const),
        (0u8..2).prop_map(Step::Param),
        (0u8..12).prop_map(Step::Binop),
        (0u8..6).prop_map(Step::Unop),
        (0u8..10).prop_map(Step::Cmp),
        Just(Step::StoreLocal),
        Just(Step::LoadLocal),
        (0u8..8).prop_map(|i| Step::I64Round(i, 0x9E3779B97F4A7C15u64 as i64)),
        (0u8..6).prop_map(Step::F32Round),
        (0u8..8).prop_map(Step::F64Round),
        any::<u32>().prop_map(|v| Step::Mem((v >> 16) as u8, v as u16)),
        any::<i32>().prop_map(Step::If),
        any::<i32>().prop_map(Step::Block),
        Just(Step::BrTable),
        Just(Step::Call),
        any::<i32>().prop_map(Step::Select),
        any::<i32>().prop_map(Step::DeadArm),
    ]
}

/// Every opcode the generator can emit, for coverage accounting.
fn generator_registry() -> Vec<Opcode> {
    let mut ops = vec![
        // Frame plumbing emitted by the steps and function scaffolding.
        Opcode::LocalGet,
        Opcode::LocalSet,
        Opcode::LocalTee,
        Opcode::I32Const,
        Opcode::I64Const,
        Opcode::F32Const,
        Opcode::F64Const,
        Opcode::End,
        Opcode::Block,
        Opcode::If,
        Opcode::Else,
        Opcode::Br,
        Opcode::BrIf,
        Opcode::BrTable,
        Opcode::Call,
        Opcode::Drop,
        Opcode::Select,
        Opcode::Return,
        // Conversions used by the typed rounds.
        Opcode::I64ExtendI32S,
        Opcode::I32WrapI64,
        Opcode::F32ConvertI32S,
        Opcode::I32ReinterpretF32,
        Opcode::F64ConvertI32S,
        Opcode::I64ReinterpretF64,
    ];
    ops.extend(BINOPS);
    ops.extend(UNOPS);
    ops.extend(CMPS);
    ops.extend(I64OPS);
    ops.extend(F32OPS);
    ops.extend(F64OPS);
    for (s, l) in MEMOPS {
        ops.push(s);
        ops.push(l);
    }
    ops.sort_by_key(|op| op.to_byte());
    ops.dedup();
    ops
}

/// Adds the trap-free helper `Step::Call` targets: h(x) = (x * 3) xor
/// 0x5A5A5A5A, via an early return on zero so `return` stays in the
/// generated opcode set.
fn add_helper(b: &mut ModuleBuilder) -> u32 {
    let mut c = CodeBuilder::new();
    c.local_get(0)
        .if_(BlockType::Empty)
        .else_()
        .i32_const(0)
        .return_()
        .end()
        .local_get(0)
        .i32_const(3)
        .op(Opcode::I32Mul)
        .i32_const(0x5A5A5A5A)
        .op(Opcode::I32Xor);
    b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![],
        c.finish(),
    )
}

/// Builds a module whose exported `f(i32, i32) -> i32` applies the steps to a
/// running accumulator (local 2 is scratch). The module always validates.
fn build_program(steps: &[Step]) -> wasm::Module {
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(1));
    let helper = add_helper(&mut b);
    let mut c = CodeBuilder::new();
    c.local_get(0);
    emit_steps(&mut c, steps, helper);
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32],
        c.finish(),
    );
    b.export_func("f", f);
    b.finish()
}

/// Emits the step sequence: consumes the single i32 on the stack, leaves
/// exactly one i32.
fn emit_steps(c: &mut CodeBuilder, steps: &[Step], helper: u32) {
    for step in steps {
        match step {
            Step::Const(v) => {
                c.i32_const(*v).op(Opcode::I32Add);
            }
            Step::Param(p) => {
                c.local_get(u32::from(*p)).op(Opcode::I32Xor);
            }
            Step::Binop(which) => {
                c.local_get(1).op(BINOPS[usize::from(*which) % BINOPS.len()]);
            }
            Step::Unop(which) => {
                c.op(UNOPS[usize::from(*which) % UNOPS.len()]);
            }
            Step::Cmp(which) => {
                c.local_get(1).op(CMPS[usize::from(*which) % CMPS.len()]);
            }
            Step::StoreLocal => {
                c.local_tee(2);
            }
            Step::LoadLocal => {
                c.drop_().local_get(2);
            }
            Step::I64Round(which, k) => {
                // Widen, mix at 64 bits, narrow back — bit-exact.
                c.op(Opcode::I64ExtendI32S)
                    .i64_const(*k)
                    .op(I64OPS[usize::from(*which) % I64OPS.len()])
                    .op(Opcode::I32WrapI64);
            }
            Step::F32Round(which) => {
                let op = F32OPS[usize::from(*which) % F32OPS.len()];
                c.op(Opcode::F32ConvertI32S);
                if matches!(op, Opcode::F32Add | Opcode::F32Sub | Opcode::F32Mul) {
                    c.f32_const(1.5);
                }
                c.op(op).op(Opcode::I32ReinterpretF32);
            }
            Step::F64Round(which) => {
                let op = F64OPS[usize::from(*which) % F64OPS.len()];
                c.op(Opcode::F64ConvertI32S);
                if !matches!(op, Opcode::F64Floor | Opcode::F64Nearest) {
                    c.f64_const(-2.5);
                }
                c.op(op).op(Opcode::I64ReinterpretF64).op(Opcode::I32WrapI64);
            }
            Step::Mem(which, addr) => {
                let (store, load) = MEMOPS[usize::from(*which) % MEMOPS.len()];
                let addr = u32::from(*addr) % 60_000;
                c.local_set(2)
                    .i32_const(addr as i32)
                    .local_get(2)
                    .mem(store, 0, 0)
                    .i32_const(addr as i32)
                    .mem(load, 0, 4)
                    .local_get(2)
                    .op(Opcode::I32Add);
            }
            Step::If(k) => {
                c.local_tee(2)
                    .if_(BlockType::Value(ValueType::I32))
                    .i32_const(*k)
                    .else_()
                    .local_get(2)
                    .i32_const(1)
                    .op(Opcode::I32Or)
                    .end();
            }
            Step::Block(k) => {
                c.local_set(2)
                    .block(BlockType::Value(ValueType::I32))
                    .local_get(2)
                    .local_get(2)
                    .br_if(0)
                    .drop_()
                    .i32_const(*k)
                    .end();
            }
            Step::BrTable => {
                c.local_set(2)
                    .block(BlockType::Value(ValueType::I32))
                    .block(BlockType::Empty)
                    .block(BlockType::Empty)
                    .local_get(2)
                    .i32_const(3)
                    .op(Opcode::I32And)
                    .br_table(&[0, 1], 1)
                    .end()
                    .local_get(2)
                    .i32_const(7)
                    .op(Opcode::I32Add)
                    .br(1)
                    .end()
                    .local_get(2)
                    .i32_const(11)
                    .op(Opcode::I32Xor)
                    .end();
            }
            Step::Call => {
                c.call(helper);
            }
            Step::Select(k) => {
                c.i32_const(*k).local_get(1).select();
            }
            Step::DeadArm(k) => {
                // One arm stores a constant into the scratch local and
                // leaves by `br` or `return` directly before the `else` /
                // `end` the other path is headed for; that path then reads
                // the scratch local, which it never wrote. A compiler that
                // carries the dead arm's view of the local past the label
                // reads the constant instead. The low bits of `k` pick the
                // shape: `if`/`else` or nested blocks, `br` or `return`.
                let leave = |c: &mut CodeBuilder| {
                    c.i32_const(*k).local_set(2);
                    if k & 2 == 0 {
                        c.br(1);
                    } else {
                        c.local_get(2).return_();
                    }
                };
                let odd = |c: &mut CodeBuilder| {
                    c.local_get(2).i32_const(1).op(Opcode::I32And);
                };
                c.local_set(2).block(BlockType::Empty);
                if k & 1 == 0 {
                    odd(c);
                    c.if_(BlockType::Empty);
                    leave(c);
                    c.else_().local_get(2).i32_const(1).op(Opcode::I32Add).local_set(2).end();
                } else {
                    c.block(BlockType::Empty);
                    odd(c);
                    c.br_if(0);
                    leave(c);
                    c.end().local_get(2).i32_const(1).op(Opcode::I32Add).local_set(2);
                }
                c.end().local_get(2);
            }
        }
    }
}

fn run(
    config: EngineConfig,
    module: &wasm::Module,
    a: i32,
    b: i32,
) -> Result<WasmValue, TrapCode> {
    common::run_export_checksum(config, module, "f", &[WasmValue::I32(a), WasmValue::I32(b)])
}

/// Like [`build_program`] but the step sequence becomes a *loop body*: the
/// accumulator is carried around a real wasm back edge `iters` times. Every
/// iteration crosses the loop-head meter-check site, so under a forced OSR
/// threshold the frame is replaced mid-loop — steps that trap, touch memory,
/// or open their own nested blocks all run partly interpreted (or baseline)
/// and partly in optimizing-tier code.
fn build_looped_program(steps: &[Step], iters: i32) -> wasm::Module {
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(1));
    let helper = add_helper(&mut b);
    // Locals: 2 params, scratch (2) for the steps, counter (3), acc (4).
    let mut c = CodeBuilder::new();
    c.i32_const(iters)
        .local_set(3)
        .local_get(0)
        .local_set(4)
        .block(BlockType::Empty)
        .loop_(BlockType::Empty)
        .local_get(4);
    // Each step is depth-self-contained (it opens and closes its own
    // blocks), so the body nests inside the loop unchanged.
    emit_steps(&mut c, steps, helper);
    c.local_set(4)
        .local_get(3)
        .i32_const(1)
        .op(Opcode::I32Sub)
        .local_tee(3)
        .op(Opcode::I32Eqz)
        .br_if(1)
        .br(0)
        .end()
        .end()
        .local_get(4);
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32, ValueType::I32, ValueType::I32],
        c.finish(),
    );
    b.export_func("f", f);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_programs_agree_across_tiers(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        a in any::<i32>(),
        b in any::<i32>(),
    ) {
        let module = build_program(&steps);
        // Validation must accept every generated program.
        wasm::validate::validate(&module).expect("generated program validates");
        // The sorted sidetable and fuel plan answer like ordered maps.
        common::assert_lookups_match_reference(&module, "generated program");
        // The optimizing tier's dense passes decide what the ones they
        // replaced decided.
        optc_oracle::check_module(&module, "generated program");

        let reference = run(EngineConfig::interpreter("int"), &module, a, b);
        for options in [
            CompilerOptions::allopt(),
            CompilerOptions::nok(),
            CompilerOptions::nomr(),
            CompilerOptions::with_tagging(spc::TagStrategy::None, "notags"),
            CompilerOptions::with_tagging(spc::TagStrategy::Eager, "eager"),
        ] {
            let name = options.name.clone();
            let got = run(EngineConfig::baseline(&name, options), &module, a, b);
            prop_assert_eq!(
                &got, &reference,
                "configuration {} disagrees with the interpreter", name
            );
        }
        let opt = run(EngineConfig::optimizing("opt"), &module, a, b);
        prop_assert_eq!(&opt, &reference, "optimizing tier disagrees");
    }

    #[test]
    fn generated_programs_roundtrip_and_agree_across_the_matrix(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        a in any::<i32>(),
        b in any::<i32>(),
    ) {
        let module = build_program(&steps);
        wasm::validate::validate(&module).expect("generated program validates");

        // encode → decode → WAT-print → WAT-parse → re-encode, byte-identical.
        let bytes = wasm::encode::encode(&module);
        let decoded = wasm::decode::decode(&bytes).expect("decodes");
        let text = wasm::wat::print::print_module(&decoded);
        let reparsed = match wasm::wat::parse_module(&text) {
            Ok(m) => m,
            Err(e) => return Err(format!("{}\n{text}", e.describe(&text))),
        };
        prop_assert_eq!(
            &bytes,
            &wasm::encode::encode(&reparsed),
            "WAT round trip must be byte-identical:\n{}",
            text
        );

        // The whole execution matrix agrees, traps included, and the
        // re-parsed module behaves identically to the original.
        let reference = run(EngineConfig::interpreter("int"), &module, a, b);
        for config in conform::runner::all_configs() {
            let name = config.name.clone();
            let got = run(config, &reparsed, a, b);
            prop_assert_eq!(&got, &reference, "configuration {} diverges", name);
        }
    }

    #[test]
    fn generated_programs_agree_on_fuel_across_the_matrix(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        a in any::<i32>(),
        b in any::<i32>(),
        budget in 1u64..400,
    ) {
        let module = build_program(&steps);
        wasm::validate::validate(&module).expect("generated program validates");

        // Under a randomized fuel budget every configuration agrees on the
        // complete observable outcome: the result (or trap — out-of-fuel
        // included) AND the exact fuel consumed at that point. Small budgets
        // land mid-program, so this pins the charge sites themselves, not
        // just the totals.
        let args = [WasmValue::I32(a), WasmValue::I32(b)];
        let reference = common::run_export_fueled(
            EngineConfig::interpreter("int"),
            &module,
            "f",
            &args,
            budget,
        );
        if reference.0 == Err(TrapCode::OutOfFuel) {
            prop_assert_eq!(reference.1, budget, "exhaustion consumes the whole budget");
        }
        for config in conform::runner::all_configs() {
            let name = config.name.clone();
            let got = common::run_export_fueled(config, &module, "f", &args, budget);
            prop_assert_eq!(
                &got, &reference,
                "configuration {} diverges under a fuel budget of {}", name, budget
            );
        }
    }

    #[test]
    fn generated_programs_compile_identically_on_both_masm_backends(
        steps in proptest::collection::vec(step_strategy(), 1..40),
        a in any::<i32>(),
        b in any::<i32>(),
    ) {
        let module = build_program(&steps);
        let info = wasm::validate::validate(&module).expect("generated program validates");
        let compiler = spc::SinglePassCompiler::new(CompilerOptions::allopt());
        let probes = spc::ProbeSites::none();
        let defined: u32 = 1; // index of `f` in the defined-function space
        let func_index = module.num_imported_funcs() + defined;
        let virt = compiler
            .compile(&module, func_index, &info.funcs[defined as usize], &probes)
            .expect("virtual-ISA backend compiles");
        let x64 = compiler
            .compile_with(
                machine::x64_masm::X64Masm::new(),
                &module,
                func_index,
                &info.funcs[defined as usize],
                &probes,
            )
            .expect("x86-64 backend compiles");

        // The virtual code re-emitted through the x86-64 backend — how the
        // engine gets its bytes — is the direct compile, exactly: bytes,
        // label targets, source map, relocations and macro-op count.
        prop_assert_eq!(virt.stats.machine_insts, x64.stats.machine_insts);
        prop_assert_eq!(
            &machine::masm::reemit::<machine::x64_masm::X64Masm>(&virt.code),
            &x64.code
        );
        prop_assert!(x64.code.code_size() > 0);

        // And the virtual-ISA code still executes to the interpreter's
        // checksum.
        let reference = run(EngineConfig::interpreter("int"), &module, a, b);
        let jit = run(EngineConfig::baseline("allopt", CompilerOptions::allopt()), &module, a, b);
        prop_assert_eq!(jit, reference);
    }
}

proptest! {
    // Forcing OSR compiles the optimizing tier for every case×config pair,
    // so this arm runs fewer cases than the plain differential tests.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On-stack replacement must be semantically invisible: generated loop
    /// kernels — whose bodies trap, touch memory, and open nested control —
    /// produce identical results and traps whether the whole run stays in
    /// one tier or the frame is replaced at the first back edge.
    #[test]
    fn generated_hot_loops_agree_under_forced_osr(
        steps in proptest::collection::vec(step_strategy(), 1..16),
        a in any::<i32>(),
        b in any::<i32>(),
        iters in 1i32..24,
    ) {
        let module = build_looped_program(&steps, iters);
        wasm::validate::validate(&module).expect("generated loop validates");
        common::assert_lookups_match_reference(&module, "generated loop");
        optc_oracle::check_module(&module, "generated loop");
        let reference = run(EngineConfig::interpreter("int"), &module, a, b);
        for config in conform::runner::all_configs() {
            let name = config.name.clone();
            let got = run(config.with_osr(0), &module, a, b);
            prop_assert_eq!(
                &got, &reference,
                "configuration {} diverges under forced OSR", name
            );
        }
    }
}

/// Coverage accounting: the generated corpus provably exercises everything
/// [`generator_registry`] declares, and together with the conformance
/// crate's exhaustive module it covers the engine's whole opcode set.
#[test]
fn opcode_coverage_is_complete() {
    use proptest::test_runner::TestRng;

    let mut census = std::collections::BTreeMap::new();
    let mut rng = TestRng::deterministic();
    let strategy = proptest::collection::vec(step_strategy(), 1..40);
    for _ in 0..128 {
        let steps = strategy.generate(&mut rng);
        let module = build_program(&steps);
        for (byte, count) in conform::coverage::opcode_census(&module) {
            *census.entry(byte).or_insert(0u32) += count;
        }
    }

    // The generator emits everything it claims to emit.
    let missing_from_registry: Vec<Opcode> = generator_registry()
        .into_iter()
        .filter(|op| !census.contains_key(&op.to_byte()))
        .collect();
    assert!(
        missing_from_registry.is_empty(),
        "generator registry opcodes never emitted: {missing_from_registry:?}"
    );

    // Together with the exhaustive conformance module, the corpus covers the
    // engine's entire implemented opcode set.
    for (byte, count) in conform::coverage::opcode_census(&conform::coverage::exhaustive_module()) {
        *census.entry(byte).or_insert(0) += count;
    }
    let missing = conform::coverage::missing_opcodes(&census);
    assert!(missing.is_empty(), "opcodes never exercised: {missing:?}");
}

/// The exhaustive module itself satisfies the fuzzer's round-trip and
/// cross-matrix invariants.
#[test]
fn exhaustive_module_satisfies_the_fuzz_invariants() {
    let module = conform::coverage::exhaustive_module();
    wasm::validate::validate(&module).expect("validates");
    let bytes = wasm::encode::encode(&module);
    let decoded = wasm::decode::decode(&bytes).expect("decodes");
    let text = wasm::wat::print::print_module(&decoded);
    let reparsed =
        wasm::wat::parse_module(&text).unwrap_or_else(|e| panic!("{}", e.describe(&text)));
    assert_eq!(bytes, wasm::encode::encode(&reparsed));

    let mut results = Vec::new();
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let r = common::run_export_checksum(config, &reparsed, "main", &[])
            .unwrap_or_else(|e| panic!("[{name}] trap: {e}"));
        results.push((name, r));
    }
    for (name, value) in &results {
        assert_eq!(value, &results[0].1, "{name} diverges");
    }
}
