//! Differential determinism tests for the parallel compile pipeline: at any
//! worker count, over all three suites, in both compiling tiers and (for the
//! baseline) both backends, the pipeline must produce artifacts
//! byte-identical to the serial path — same virtual-ISA instructions, label
//! targets, source maps, stackmaps, call/probe metadata, and (under the
//! x86-64 backend) the same real machine bytes. A module that fails to
//! compile reports the same error at every worker count: the serial path's.
//!
//! This is the property that makes the rest of the subsystem sound: because
//! each function's compilation is a pure function of immutable inputs, code
//! compiled on an instantiate-time worker or on an execution thread (its own
//! or another instance's) is interchangeable, and a publication race between
//! them is harmless.

use engine::pipeline::{compile_eager, CompileTier, CompiledModule};
use engine::{CodeBackend, Engine, EngineConfig, EngineError, Imports, Instrumentation, Telemetry};
use spc::CompilerOptions;
use suites::Scale;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::types::{BlockType, FuncType, ValueType};

/// Compiles every function of `module` under `config` and returns the filled
/// artifact.
fn compile_all(config: &EngineConfig, module: &wasm::Module) -> CompiledModule {
    let artifact = CompiledModule::build(module.clone()).expect("suite modules validate");
    compile_eager(config, &artifact, &Instrumentation::none(), &Telemetry::disabled())
        .expect("suite modules compile");
    assert_eq!(
        artifact.compiled_count(),
        artifact.num_defined() as usize,
        "eager compilation fills every slot"
    );
    artifact
}

/// Asserts that two fully-compiled artifacts' `tier` code is byte-identical.
fn assert_identical(a: &CompiledModule, b: &CompiledModule, tier: CompileTier, what: &str) {
    assert_eq!(a.num_defined(), b.num_defined());
    for defined in 0..a.num_defined() {
        let fa = a.artifact_for(defined, tier).unwrap();
        let fb = b.artifact_for(defined, tier).unwrap();
        // The executable virtual-ISA artifact: instructions, label targets,
        // source map (CodeBuffer equality covers all three), stackmaps, and
        // the engine metadata keyed off site indices.
        assert_eq!(fa.function.code, fb.function.code, "{what}: code of function {defined}");
        assert_eq!(
            fa.function.stackmaps, fb.function.stackmaps,
            "{what}: stackmaps of function {defined}"
        );
        assert_eq!(
            fa.function.call_sites, fb.function.call_sites,
            "{what}: call sites of function {defined}"
        );
        assert_eq!(
            fa.function.probe_sites, fb.function.probe_sites,
            "{what}: probe sites of function {defined}"
        );
        assert_eq!(fa.function.frame_slots, fb.function.frame_slots);
        assert_eq!(fa.function.stats, fb.function.stats);
        assert_eq!(fa.machine_bytes, fb.machine_bytes, "{what}: function {defined}");
        // The real x86-64 encoding, when the backend emitted one (X64Code
        // equality covers bytes, label targets, source map, relocations).
        assert_eq!(
            fa.x64_code, fb.x64_code,
            "{what}: x86-64 bytes of function {defined}"
        );
    }
}

fn config_for(backend: CodeBackend, workers: usize) -> EngineConfig {
    EngineConfig::baseline("determinism", CompilerOptions::allopt())
        .with_backend(backend)
        .with_compile_workers(workers)
}

#[test]
fn parallel_compilation_is_byte_identical_across_worker_counts() {
    for backend in [CodeBackend::VirtualIsa, CodeBackend::X64] {
        for suite in suites::all_suites(Scale::Test) {
            for item in &suite.items {
                let serial = compile_all(&config_for(backend, 1), &item.module);
                for workers in [2, 8] {
                    let parallel = compile_all(&config_for(backend, workers), &item.module);
                    let what = format!(
                        "{:?} {}/{} at {workers} workers",
                        backend, suite.name, item.name
                    );
                    assert_identical(&serial, &parallel, CompileTier::Baseline, &what);
                }
            }
        }
    }
}

/// The optimizing tier's eager path — the one `load-opt-par` times — at 2
/// and 8 workers against 1.
#[test]
fn optimizing_compilation_is_byte_identical_across_worker_counts() {
    let config = |workers| EngineConfig::optimizing("determinism-opt").with_compile_workers(workers);
    for suite in suites::all_suites(Scale::Test) {
        for item in &suite.items {
            let serial = compile_all(&config(1), &item.module);
            for workers in [2, 8] {
                let parallel = compile_all(&config(workers), &item.module);
                let what = format!("opt {}/{} at {workers} workers", suite.name, item.name);
                assert_identical(&serial, &parallel, CompileTier::Opt, &what);
            }
        }
    }
}

#[test]
fn pipeline_serial_path_matches_direct_compiler_invocation() {
    // The 1-worker pipeline is the reference for the parallel test above;
    // anchor it to the compiler invoked directly, the way the pre-pipeline
    // engine did.
    let options = CompilerOptions::allopt();
    let config = config_for(CodeBackend::VirtualIsa, 1);
    for suite in suites::all_suites(Scale::Test) {
        for item in &suite.items {
            let artifact = compile_all(&config, &item.module);
            let info = wasm::validate::validate(&item.module).unwrap();
            for defined in 0..artifact.num_defined() {
                let func_index = item.module.defined_to_func_index(defined);
                let direct = spc::SinglePassCompiler::new(options.clone())
                    .compile(
                        &item.module,
                        func_index,
                        &info.funcs[defined as usize],
                        &spc::ProbeSites::none(),
                    )
                    .unwrap();
                let piped = artifact.code(defined).unwrap();
                assert_eq!(
                    direct.code, piped.code,
                    "{}/{} function {defined}",
                    suite.name, item.name
                );
            }
        }
    }
}

/// A module whose defined functions 1 and 2 validate but do not compile
/// without multi-value: function 1 is large and fails at a multi-value block
/// near its end, function 2 is small and fails at its first instruction.
/// Functions 0 and 3 compile.
fn two_late_and_early_compile_errors() -> wasm::Module {
    let mut b = ModuleBuilder::new();
    let pair = b.add_type(FuncType::new(vec![], vec![ValueType::I32, ValueType::I32]));
    let unit = || FuncType::new(vec![], vec![]);
    let multi_value_block = |c: &mut CodeBuilder| {
        c.block(BlockType::Func(pair))
            .i32_const(1)
            .i32_const(2)
            .end()
            .drop_()
            .drop_();
    };
    let mut c = CodeBuilder::new();
    c.nop();
    b.add_func(unit(), vec![], c.finish());
    let mut c = CodeBuilder::new();
    for _ in 0..10_000 {
        c.i32_const(1).drop_();
    }
    multi_value_block(&mut c);
    b.add_func(unit(), vec![], c.finish());
    let mut c = CodeBuilder::new();
    multi_value_block(&mut c);
    b.add_func(unit(), vec![], c.finish());
    let mut c = CodeBuilder::new();
    c.nop();
    b.add_func(unit(), vec![], c.finish());
    b.finish()
}

/// Eager compilation reports the lowest-indexed failing function's error —
/// the one the serial path meets first — at every worker count, although on
/// more than one worker the small function 2 fails long before the large
/// function 1 does.
#[test]
fn eager_compilation_reports_the_lowest_indexed_error_at_every_worker_count() {
    let module = two_late_and_early_compile_errors();
    let options = CompilerOptions {
        multi_value: false,
        ..CompilerOptions::allopt()
    };
    let compile_error = |workers: usize| {
        let config =
            EngineConfig::baseline("lowest-error", options.clone()).with_compile_workers(workers);
        match Engine::new(config).instantiate(&module, Imports::new(), Instrumentation::none()) {
            Err(EngineError::Compile(e)) => e,
            Err(other) => panic!("{workers} workers: refused for another reason: {other}"),
            Ok(_) => panic!("{workers} workers: instantiated"),
        }
    };
    let serial = compile_error(1);
    let info = wasm::validate::validate(&module).expect("multi-value validates");
    let early = spc::SinglePassCompiler::new(options.clone())
        .compile(&module, 2, &info.funcs[2], &spc::ProbeSites::none())
        .expect_err("function 2 fails alone");
    assert!(
        serial.offset > early.offset,
        "the serial error is function 1's, near its end: {serial} against {early}"
    );
    for workers in [1, 2, 8] {
        for run in 0..20 {
            assert_eq!(compile_error(workers), serial, "{workers} workers, run {run}");
        }
    }
}
