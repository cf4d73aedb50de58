//! Differential determinism tests for the parallel compile pipeline: at any
//! worker count, over all three suites, in both compiling tiers and (for the
//! baseline) both backends, the pipeline must produce artifacts
//! byte-identical to the serial path — same virtual-ISA instructions, label
//! targets, source maps, stackmaps, call/probe metadata, and (under the
//! x86-64 backend) the same real machine bytes.
//!
//! This is the property that makes the rest of the subsystem sound: because
//! each function's compilation is a pure function of immutable inputs, code
//! compiled on an instantiate-time worker or on an execution thread (its own
//! or another instance's) is interchangeable, and a publication race between
//! them is harmless.

use engine::pipeline::{compile_eager, CompileTier, CompiledModule};
use engine::{CodeBackend, EngineConfig, Instrumentation, Telemetry};
use spc::CompilerOptions;
use suites::Scale;

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
