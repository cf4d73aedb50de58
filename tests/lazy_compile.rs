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
    assert!(!config.lazy_compile);
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
