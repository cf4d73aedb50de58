//! End-to-end coverage for `EngineConfig::with_lazy_compile(true)`:
//! functions are compiled at their first call rather than at instantiation,
//! and the run metrics attribute the deferred compile time accordingly.

mod common;

use engine::{Engine, EngineConfig, Imports, Instrumentation};
use machine::values::WasmValue;
use spc::CompilerOptions;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{FuncType, ValueType};
use wasm::Module;

/// A module with three defined functions: an exported `main` that calls
/// `helper`, and a `cold` function nothing ever calls.
fn three_function_module() -> Module {
    let mut b = ModuleBuilder::new();
    let helper = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![],
        {
            let mut c = CodeBuilder::new();
            c.local_get(0).i32_const(2).op(Opcode::I32Mul);
            c.finish()
        },
    );
    let main = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], {
        let mut c = CodeBuilder::new();
        c.i32_const(21).call(helper);
        c.finish()
    });
    let _cold = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], {
        let mut c = CodeBuilder::new();
        c.i32_const(-1);
        c.finish()
    });
    b.export_func("main", main);
    b.finish()
}

#[test]
fn lazy_compile_defers_compilation_to_first_call() {
    let module = three_function_module();
    let config =
        EngineConfig::baseline("spc-lazy", CompilerOptions::allopt()).with_lazy_compile(true);
    let engine = Engine::new(config);
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("instantiates");

    // Nothing is compiled at instantiation under a lazy configuration.
    assert_eq!(instance.metrics.functions_compiled, 0);
    assert_eq!(instance.metrics.compile_wall.as_nanos(), 0);
    assert_eq!(instance.metrics.lazy_compile_wall.as_nanos(), 0);
    assert_eq!(instance.metrics.compiled_wasm_bytes, 0);
    for defined in 0..3 {
        assert!(
            instance.compiled_code(defined).is_none(),
            "function {defined} must not be compiled before its first call"
        );
    }

    // The first call compiles exactly the functions on the call path.
    let result = engine
        .call_export(&mut instance, "main", &[])
        .expect("main runs");
    assert_eq!(result, vec![WasmValue::I32(42)]);
    assert_eq!(
        instance.metrics.functions_compiled, 2,
        "main and helper are compiled on demand"
    );
    assert!(instance.compiled_code(0).is_some(), "helper was called");
    assert!(instance.compiled_code(1).is_some(), "main was called");
    assert!(
        instance.compiled_code(2).is_none(),
        "the cold function stays uncompiled"
    );

    // The deferred compile time shows up in the metrics, outside setup and
    // outside the eager-compile bucket: lazy work is accounted separately.
    assert_eq!(
        instance.metrics.compile_wall.as_nanos(),
        0,
        "a lazy configuration never compiles eagerly"
    );
    assert!(instance.metrics.lazy_compile_wall.as_nanos() > 0);
    assert_eq!(
        instance.metrics.total_compile_wall(),
        instance.metrics.lazy_compile_wall
    );
    assert!(instance.metrics.compiled_wasm_bytes > 0);

    // A second call does not recompile anything.
    let compile_wall_after_first = instance.metrics.lazy_compile_wall;
    engine
        .call_export(&mut instance, "main", &[])
        .expect("main runs again");
    assert_eq!(instance.metrics.functions_compiled, 2);
    assert_eq!(instance.metrics.lazy_compile_wall, compile_wall_after_first);
}

/// The deferred-compilation confounder must never change results: every
/// configuration in the shared matrix computes the same value. Both backends
/// execute the same code (`the_backend_changes_no_executed_instruction`).
#[test]
fn lazy_and_eager_agree_across_the_tier_backend_matrix() {
    let module = three_function_module();
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let r = common::run_export(config, &module, "main", &[])
            .unwrap_or_else(|e| panic!("[{name}] trap: {e}"));
        assert_eq!(r, vec![WasmValue::I32(42)], "[{name}]");
    }
}

#[test]
fn eager_configuration_compiles_everything_at_instantiation() {
    let module = three_function_module();
    let config = EngineConfig::baseline("spc-eager", CompilerOptions::allopt());
    assert_eq!(config.schedule.instantiation_tier(), Some(engine::CompileTier::Baseline));
    let engine = Engine::new(config);
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("instantiates");
    assert_eq!(instance.metrics.functions_compiled, 3);
    assert!(instance.metrics.compile_wall.as_nanos() > 0);
    assert_eq!(
        instance.metrics.lazy_compile_wall.as_nanos(),
        0,
        "an eager configuration has no deferred compiles"
    );
    assert!(
        instance.metrics.setup_wall >= instance.metrics.compile_wall,
        "eager compilation happens inside instantiation"
    );
    assert!(instance.compiled_code(2).is_some(), "even the cold function");
    let result = engine
        .call_export(&mut instance, "main", &[])
        .expect("main runs");
    assert_eq!(result, vec![WasmValue::I32(42)]);
    assert_eq!(instance.metrics.functions_compiled, 3, "no recompilation");
}

/// Laziness is a start, not an axis of its own: a lazy baseline
/// configuration is the tiered one whose threshold is 0, and where there is
/// nothing compiled at instantiation to defer (an interpreter, a tiered
/// configuration) asking for laziness builds the same configuration.
#[test]
fn laziness_is_a_start_not_an_axis() {
    let allopt = CompilerOptions::allopt;
    assert_eq!(
        EngineConfig::baseline("spc", allopt()).with_lazy_compile(true),
        EngineConfig::tiered("spc", 0, allopt()),
    );
    let interpreter = EngineConfig::interpreter("jsc-int");
    assert_eq!(interpreter.clone().with_lazy_compile(true), interpreter);
    let tiered_opt = EngineConfig::tiered("tiered-opt", 0, allopt()).with_opt_tier(1);
    assert_eq!(tiered_opt.clone().with_lazy_compile(true), tiered_opt);
}

/// `helper` doubles its argument, `main` calls it three times
/// (`helper(helper(helper(5)))` = 40), and `cold` is never called.
fn schedule_module() -> Module {
    let mut b = ModuleBuilder::new();
    let helper = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![],
        {
            let mut c = CodeBuilder::new();
            c.local_get(0).i32_const(2).op(Opcode::I32Mul);
            c.finish()
        },
    );
    let main = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], {
        let mut c = CodeBuilder::new();
        c.i32_const(5).call(helper).call(helper).call(helper);
        c.finish()
    });
    let _cold = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], {
        let mut c = CodeBuilder::new();
        c.i32_const(-1);
        c.finish()
    });
    b.export_func("main", main);
    b.finish()
}

/// Every configuration built outside the tests, by the same builder calls as
/// where it is built, labelled `source/name`: the conformance matrix, the
/// rows of Figs. 10 and 13, the examples, and the benchmark's adapter
/// (`benchmark/src/sut.rs`).
fn configurations_in_use() -> Vec<(String, EngineConfig)> {
    let profiles = spc::all_profiles();
    let profile = |name: &str| {
        profiles.iter().find(|p| p.name == name).expect("profile exists").options.clone()
    };
    let allopt = CompilerOptions::allopt;
    let tagging = |tagging| CompilerOptions { tagging, ..allopt() };
    let mut examples = vec![
        EngineConfig::interpreter("wizeng-int"),
        EngineConfig::baseline("wizeng-spc", allopt()),
        EngineConfig::optimizing("optimizing"),
        EngineConfig::baseline("value tags (wizard)", tagging(spc::TagStrategy::OnDemand)),
        EngineConfig::baseline("stackmaps (liftoff)", tagging(spc::TagStrategy::Stackmaps)),
        EngineConfig::baseline(
            "jit",
            CompilerOptions { probe_mode: spc::ProbeMode::Runtime, ..allopt() },
        ),
        EngineConfig::baseline("optjit", allopt()),
    ];
    examples.extend(profiles.iter().map(|p| EngineConfig::baseline(p.name, p.options.clone())));
    let sources: Vec<(&str, Vec<EngineConfig>)> = vec![
        ("conform", conform::runner::all_configs()),
        (
            "fig10",
            vec![
                EngineConfig::interpreter("wizeng-int"),
                EngineConfig::interpreter("wasm3"),
                EngineConfig::interpreter("iwasm-int"),
                EngineConfig::interpreter("jsc-int"),
                EngineConfig::baseline("wizeng-spc", profile("wizeng-spc")),
                EngineConfig::baseline("v8-liftoff", profile("v8-liftoff")),
                EngineConfig::baseline("sm-base", profile("sm-base")),
                EngineConfig::baseline("wasmer-base", profile("wasmer-base")),
                EngineConfig::baseline("wazero", profile("wazero")),
                EngineConfig::baseline("wasm-now", profile("wasm-now")),
                EngineConfig::baseline("iwasm-fjit", CompilerOptions::nok()),
                EngineConfig::baseline("jsc-bbq", profile("v8-liftoff")).with_lazy_compile(true),
                EngineConfig::tiered("wizeng-tiered", 4, allopt()),
                EngineConfig::optimizing("wasmtime-cranelift"),
                EngineConfig::optimizing("wasmer-cranelift"),
                EngineConfig::optimizing("jsc-omg").with_lazy_compile(true),
                EngineConfig::optimizing("turbofan-like"),
                EngineConfig::optimizing("wavm-aot"),
            ],
        ),
        (
            "fig13",
            vec![
                EngineConfig::baseline("spc", allopt()),
                EngineConfig::optimizing("opt"),
                EngineConfig::interpreter("int"),
                EngineConfig::tiered("tiered-opt", 0, allopt()).with_opt_tier(1),
            ],
        ),
        ("examples", examples),
        (
            "benchmark",
            vec![
                EngineConfig::interpreter("bench-int"),
                EngineConfig::baseline("bench-spc", allopt()),
                EngineConfig::baseline("bench-spc", allopt())
                    .with_backend(engine::CodeBackend::X64)
                    .with_compile_workers(1),
                EngineConfig::optimizing("bench-opt").with_compile_workers(2),
                EngineConfig::tiered("bench-tiered", 2, allopt()).with_opt_tier(8).with_osr(1000),
                EngineConfig::baseline("bench-spc", allopt()).with_metering(),
                EngineConfig::baseline("lazy", allopt()).with_lazy_compile(true),
                EngineConfig::baseline("lazy-x64", allopt())
                    .with_lazy_compile(true)
                    .with_backend(engine::CodeBackend::X64),
                EngineConfig::tiered("opt", 1, allopt()).with_opt_tier(2),
            ],
        ),
    ];
    sources
        .into_iter()
        .flat_map(|(source, configs)| {
            configs.into_iter().map(move |c| (format!("{source}/{}", c.name), c))
        })
        .collect()
}

/// `config`'s schedule on [`schedule_module`]: the slots each tier holds
/// after instantiation, then after each of four calls of `main` the slots,
/// `tiered_up_functions` and `exec_cycles`.
fn schedule_row(config: &EngineConfig) -> String {
    use engine::CompileTier;
    let module = schedule_module();
    let engine = Engine::new(config.clone());
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("instantiates");
    let slots = |instance: &engine::Instance| {
        let published = |tier| {
            (0..3u32)
                .filter(|&d| instance.artifact().artifact_for(d, tier).is_some())
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!("b[{}] o[{}]", published(CompileTier::Baseline), published(CompileTier::Opt))
    };
    let mut row = slots(&instance);
    for _ in 0..4 {
        let result = engine.call_export(&mut instance, "main", &[]).expect("main runs");
        assert_eq!(result, vec![WasmValue::I32(40)], "{}", config.name);
        let m = &instance.metrics;
        row += &format!(" | {} up{} c{}", slots(&instance), m.tiered_up_functions, m.exec_cycles);
    }
    row
}

/// What each configuration in use compiles at instantiation, which tier each
/// call then runs in (read from the published slots, the deferred compiles
/// and the simulated cycles), and which configurations share a cache key
/// half: each row names the first configuration with its
/// `compile_fingerprint` (`c=`) and its `opt_fingerprint` (`o=`).
#[test]
fn every_configuration_in_use_keeps_its_tier_schedule() {
    let configs = configurations_in_use();
    let first_sharing = |fingerprint: fn(&EngineConfig) -> u64, config: &EngineConfig| {
        let fp = fingerprint(config);
        let (label, _) = configs.iter().find(|(_, c)| fingerprint(c) == fp).expect("itself");
        label.clone()
    };
    let table: Vec<String> = configs
        .iter()
        .map(|(label, config)| {
            format!(
                "{label}: {} c={} o={}",
                schedule_row(config),
                first_sharing(EngineConfig::compile_fingerprint, config),
                first_sharing(EngineConfig::opt_fingerprint, config),
            )
        })
        .collect();
    let expected: Vec<&str> = SCHEDULES.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    for (got, want) in table.iter().zip(&expected) {
        assert_eq!(got, want);
    }
    assert_eq!(table.len(), expected.len(), "{table:#?}");
}

/// The table `every_configuration_in_use_keeps_its_tier_schedule` pins.
const SCHEDULES: &str = "
conform/conf-int: b[] o[] | b[] o[] up0 c346 | b[] o[] up0 c692 | b[] o[] up0 c1038 | b[] o[] up0 c1384 c=conform/conf-int o=conform/conf-int
conform/conf-spc: b[0,1,2] o[] | b[0,1,2] o[] up0 c204 | b[0,1,2] o[] up0 c408 | b[0,1,2] o[] up0 c612 | b[0,1,2] o[] up0 c816 c=conform/conf-spc o=conform/conf-int
conform/conf-lazy: b[] o[] | b[0,1] o[] up2 c204 | b[0,1] o[] up2 c408 | b[0,1] o[] up2 c612 | b[0,1] o[] up2 c816 c=conform/conf-spc o=conform/conf-int
conform/conf-tiered: b[] o[] | b[0] o[] up1 c316 | b[0] o[] up1 c572 | b[0,1] o[] up2 c776 | b[0,1] o[] up2 c980 c=conform/conf-tiered o=conform/conf-int
conform/conf-opt: b[] o[] | b[0] o[0] up2 c282 | b[0,1] o[0] up3 c474 | b[0,1] o[0,1] up4 c678 | b[0,1] o[0,1] up4 c882 c=conform/conf-tiered o=conform/conf-opt
fig10/wizeng-int: b[] o[] | b[] o[] up0 c346 | b[] o[] up0 c692 | b[] o[] up0 c1038 | b[] o[] up0 c1384 c=conform/conf-int o=conform/conf-int
fig10/wasm3: b[] o[] | b[] o[] up0 c346 | b[] o[] up0 c692 | b[] o[] up0 c1038 | b[] o[] up0 c1384 c=conform/conf-int o=conform/conf-int
fig10/iwasm-int: b[] o[] | b[] o[] up0 c346 | b[] o[] up0 c692 | b[] o[] up0 c1038 | b[] o[] up0 c1384 c=conform/conf-int o=conform/conf-int
fig10/jsc-int: b[] o[] | b[] o[] up0 c346 | b[] o[] up0 c692 | b[] o[] up0 c1038 | b[] o[] up0 c1384 c=conform/conf-int o=conform/conf-int
fig10/wizeng-spc: b[0,1,2] o[] | b[0,1,2] o[] up0 c204 | b[0,1,2] o[] up0 c408 | b[0,1,2] o[] up0 c612 | b[0,1,2] o[] up0 c816 c=conform/conf-spc o=conform/conf-int
fig10/v8-liftoff: b[0,1,2] o[] | b[0,1,2] o[] up0 c194 | b[0,1,2] o[] up0 c388 | b[0,1,2] o[] up0 c582 | b[0,1,2] o[] up0 c776 c=fig10/v8-liftoff o=conform/conf-int
fig10/sm-base: b[0,1,2] o[] | b[0,1,2] o[] up0 c194 | b[0,1,2] o[] up0 c388 | b[0,1,2] o[] up0 c582 | b[0,1,2] o[] up0 c776 c=fig10/sm-base o=conform/conf-int
fig10/wasmer-base: b[0,1,2] o[] | b[0,1,2] o[] up0 c197 | b[0,1,2] o[] up0 c394 | b[0,1,2] o[] up0 c591 | b[0,1,2] o[] up0 c788 c=fig10/wasmer-base o=conform/conf-int
fig10/wazero: b[0,1,2] o[] | b[0,1,2] o[] up0 c198 | b[0,1,2] o[] up0 c396 | b[0,1,2] o[] up0 c594 | b[0,1,2] o[] up0 c792 c=fig10/wazero o=conform/conf-int
fig10/wasm-now: b[0,1,2] o[] | b[0,1,2] o[] up0 c194 | b[0,1,2] o[] up0 c388 | b[0,1,2] o[] up0 c582 | b[0,1,2] o[] up0 c776 c=fig10/wasm-now o=conform/conf-int
fig10/iwasm-fjit: b[0,1,2] o[] | b[0,1,2] o[] up0 c208 | b[0,1,2] o[] up0 c416 | b[0,1,2] o[] up0 c624 | b[0,1,2] o[] up0 c832 c=fig10/iwasm-fjit o=conform/conf-int
fig10/jsc-bbq: b[] o[] | b[0,1] o[] up2 c194 | b[0,1] o[] up2 c388 | b[0,1] o[] up2 c582 | b[0,1] o[] up2 c776 c=fig10/v8-liftoff o=conform/conf-int
fig10/wizeng-tiered: b[] o[] | b[] o[] up0 c346 | b[0] o[] up1 c632 | b[0] o[] up1 c888 | b[0] o[] up1 c1144 c=conform/conf-tiered o=conform/conf-int
fig10/wasmtime-cranelift: b[] o[0,1,2] | b[] o[0,1,2] up0 c204 | b[] o[0,1,2] up0 c408 | b[] o[0,1,2] up0 c612 | b[] o[0,1,2] up0 c816 c=fig10/wasmtime-cranelift o=conform/conf-opt
fig10/wasmer-cranelift: b[] o[0,1,2] | b[] o[0,1,2] up0 c204 | b[] o[0,1,2] up0 c408 | b[] o[0,1,2] up0 c612 | b[] o[0,1,2] up0 c816 c=fig10/wasmtime-cranelift o=conform/conf-opt
fig10/jsc-omg: b[] o[] | b[] o[0,1] up2 c204 | b[] o[0,1] up2 c408 | b[] o[0,1] up2 c612 | b[] o[0,1] up2 c816 c=fig10/wasmtime-cranelift o=conform/conf-opt
fig10/turbofan-like: b[] o[0,1,2] | b[] o[0,1,2] up0 c204 | b[] o[0,1,2] up0 c408 | b[] o[0,1,2] up0 c612 | b[] o[0,1,2] up0 c816 c=fig10/wasmtime-cranelift o=conform/conf-opt
fig10/wavm-aot: b[] o[0,1,2] | b[] o[0,1,2] up0 c204 | b[] o[0,1,2] up0 c408 | b[] o[0,1,2] up0 c612 | b[] o[0,1,2] up0 c816 c=fig10/wasmtime-cranelift o=conform/conf-opt
fig13/spc: b[0,1,2] o[] | b[0,1,2] o[] up0 c204 | b[0,1,2] o[] up0 c408 | b[0,1,2] o[] up0 c612 | b[0,1,2] o[] up0 c816 c=conform/conf-spc o=conform/conf-int
fig13/opt: b[] o[0,1,2] | b[] o[0,1,2] up0 c204 | b[] o[0,1,2] up0 c408 | b[] o[0,1,2] up0 c612 | b[] o[0,1,2] up0 c816 c=fig10/wasmtime-cranelift o=conform/conf-opt
fig13/int: b[] o[] | b[] o[] up0 c346 | b[] o[] up0 c692 | b[] o[] up0 c1038 | b[] o[] up0 c1384 c=conform/conf-int o=conform/conf-int
fig13/tiered-opt: b[] o[] | b[0,1] o[0] up3 c196 | b[0,1] o[0,1] up4 c400 | b[0,1] o[0,1] up4 c604 | b[0,1] o[0,1] up4 c808 c=conform/conf-tiered o=conform/conf-opt
examples/wizeng-int: b[] o[] | b[] o[] up0 c346 | b[] o[] up0 c692 | b[] o[] up0 c1038 | b[] o[] up0 c1384 c=conform/conf-int o=conform/conf-int
examples/wizeng-spc: b[0,1,2] o[] | b[0,1,2] o[] up0 c204 | b[0,1,2] o[] up0 c408 | b[0,1,2] o[] up0 c612 | b[0,1,2] o[] up0 c816 c=conform/conf-spc o=conform/conf-int
examples/optimizing: b[] o[0,1,2] | b[] o[0,1,2] up0 c204 | b[] o[0,1,2] up0 c408 | b[] o[0,1,2] up0 c612 | b[] o[0,1,2] up0 c816 c=fig10/wasmtime-cranelift o=conform/conf-opt
examples/value tags (wizard): b[0,1,2] o[] | b[0,1,2] o[] up0 c204 | b[0,1,2] o[] up0 c408 | b[0,1,2] o[] up0 c612 | b[0,1,2] o[] up0 c816 c=conform/conf-spc o=conform/conf-int
examples/stackmaps (liftoff): b[0,1,2] o[] | b[0,1,2] o[] up0 c194 | b[0,1,2] o[] up0 c388 | b[0,1,2] o[] up0 c582 | b[0,1,2] o[] up0 c776 c=examples/stackmaps (liftoff) o=conform/conf-int
examples/jit: b[0,1,2] o[] | b[0,1,2] o[] up0 c204 | b[0,1,2] o[] up0 c408 | b[0,1,2] o[] up0 c612 | b[0,1,2] o[] up0 c816 c=examples/jit o=conform/conf-int
examples/optjit: b[0,1,2] o[] | b[0,1,2] o[] up0 c204 | b[0,1,2] o[] up0 c408 | b[0,1,2] o[] up0 c612 | b[0,1,2] o[] up0 c816 c=conform/conf-spc o=conform/conf-int
examples/wizeng-spc: b[0,1,2] o[] | b[0,1,2] o[] up0 c204 | b[0,1,2] o[] up0 c408 | b[0,1,2] o[] up0 c612 | b[0,1,2] o[] up0 c816 c=conform/conf-spc o=conform/conf-int
examples/wazero: b[0,1,2] o[] | b[0,1,2] o[] up0 c198 | b[0,1,2] o[] up0 c396 | b[0,1,2] o[] up0 c594 | b[0,1,2] o[] up0 c792 c=fig10/wazero o=conform/conf-int
examples/wasm-now: b[0,1,2] o[] | b[0,1,2] o[] up0 c194 | b[0,1,2] o[] up0 c388 | b[0,1,2] o[] up0 c582 | b[0,1,2] o[] up0 c776 c=fig10/wasm-now o=conform/conf-int
examples/wasmer-base: b[0,1,2] o[] | b[0,1,2] o[] up0 c197 | b[0,1,2] o[] up0 c394 | b[0,1,2] o[] up0 c591 | b[0,1,2] o[] up0 c788 c=fig10/wasmer-base o=conform/conf-int
examples/v8-liftoff: b[0,1,2] o[] | b[0,1,2] o[] up0 c194 | b[0,1,2] o[] up0 c388 | b[0,1,2] o[] up0 c582 | b[0,1,2] o[] up0 c776 c=fig10/v8-liftoff o=conform/conf-int
examples/sm-base: b[0,1,2] o[] | b[0,1,2] o[] up0 c194 | b[0,1,2] o[] up0 c388 | b[0,1,2] o[] up0 c582 | b[0,1,2] o[] up0 c776 c=fig10/sm-base o=conform/conf-int
benchmark/bench-int: b[] o[] | b[] o[] up0 c346 | b[] o[] up0 c692 | b[] o[] up0 c1038 | b[] o[] up0 c1384 c=conform/conf-int o=conform/conf-int
benchmark/bench-spc: b[0,1,2] o[] | b[0,1,2] o[] up0 c204 | b[0,1,2] o[] up0 c408 | b[0,1,2] o[] up0 c612 | b[0,1,2] o[] up0 c816 c=conform/conf-spc o=conform/conf-int
benchmark/bench-spc: b[0,1,2] o[] | b[0,1,2] o[] up0 c204 | b[0,1,2] o[] up0 c408 | b[0,1,2] o[] up0 c612 | b[0,1,2] o[] up0 c816 c=conform/conf-spc o=conform/conf-int
benchmark/bench-opt: b[] o[0,1,2] | b[] o[0,1,2] up0 c204 | b[] o[0,1,2] up0 c408 | b[] o[0,1,2] up0 c612 | b[] o[0,1,2] up0 c816 c=fig10/wasmtime-cranelift o=conform/conf-opt
benchmark/bench-tiered: b[] o[] | b[0] o[] up1 c316 | b[0] o[] up1 c572 | b[0,1] o[0] up3 c772 | b[0,1] o[0] up3 c964 c=benchmark/bench-tiered o=benchmark/bench-tiered
benchmark/bench-spc: b[0,1,2] o[] | b[0,1,2] o[] up0 c210 | b[0,1,2] o[] up0 c420 | b[0,1,2] o[] up0 c630 | b[0,1,2] o[] up0 c840 c=benchmark/bench-spc o=conform/conf-int
benchmark/lazy: b[] o[] | b[0,1] o[] up2 c204 | b[0,1] o[] up2 c408 | b[0,1] o[] up2 c612 | b[0,1] o[] up2 c816 c=conform/conf-spc o=conform/conf-int
benchmark/lazy-x64: b[] o[] | b[0,1] o[] up2 c204 | b[0,1] o[] up2 c408 | b[0,1] o[] up2 c612 | b[0,1] o[] up2 c816 c=conform/conf-spc o=conform/conf-int
benchmark/opt: b[] o[] | b[0] o[0] up2 c282 | b[0,1] o[0] up3 c474 | b[0,1] o[0,1] up4 c678 | b[0,1] o[0,1] up4 c882 c=conform/conf-tiered o=conform/conf-opt
";
