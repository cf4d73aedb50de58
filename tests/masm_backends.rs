//! Differential testing of the two `Masm` backends.
//!
//! Both compilers emit exclusively through the macro-assembler trait, and
//! the engine gets its x86-64 bytes by re-emitting the finished virtual code
//! (`machine::masm::reemit`) instead of compiling a second time. The direct
//! compile through `X64Masm` is the reference that path is held to: for every
//! function of all three synthetic suites, in both tiers, the re-emission of
//! the virtual code must equal it exactly — bytes, label targets, source map,
//! runtime relocations and operation count — and the two compiles must agree
//! on the backend-independent call/probe metadata. This is also the test that
//! promotes the x86-64 encoder from demo to backend: it must compile every
//! function without panicking. And it holds the converse:
//! `the_backend_changes_no_executed_instruction` checks that selecting the
//! x86-64 backend leaves every executed instruction and its metadata alone,
//! which is why no other test runs an x86-64 configuration.

use engine::pipeline::{compile_function, eager_tier, CompileTier};
use engine::{CodeBackend, Engine, EngineConfig, Imports, Instrumentation};
use machine::masm::reemit;
use machine::values::WasmValue;
use machine::x64_masm::{X64Code, X64Masm};
use optc::OptimizingCompiler;
use spc::{
    CompiledCode, CompiledFunction, CompilerOptions, ProbeKind, ProbeMode, ProbeSite, ProbeSites,
    SinglePassCompiler,
};
use suites::{all_suites, BenchmarkItem, Scale};
use wasm::validate::{validate, FuncInfo};
use wasm::Module;

/// One function compiled by one compiler through both backends.
type BothBackends = (CompiledFunction, CompiledCode<X64Code>);

/// Compiles every defined function of `module` through both backends with
/// `compile`, holds the re-emission of the virtual code to the direct x86-64
/// compile, and cross-checks the backend-independent metadata. Returns the
/// number of functions compared.
fn compare_backends(
    module: &Module,
    compile: impl Fn(&Module, u32, &FuncInfo) -> BothBackends,
) -> usize {
    let info = validate(module).expect("module validates");
    for defined in 0..module.funcs.len() as u32 {
        let func_index = module.defined_to_func_index(defined);
        let (virt, x64) = compile(module, func_index, &info.funcs[defined as usize]);

        // The virtual code is a complete recording of the translation:
        // replayed into the x86-64 backend it is the direct compile, exactly.
        assert_eq!(
            reemit::<X64Masm>(&virt.code),
            x64.code,
            "function {func_index}: re-emission equals the direct x86-64 compile"
        );
        assert_eq!(virt.stats.machine_insts, x64.stats.machine_insts);
        assert_eq!(virt.frame_slots, x64.frame_slots);
        assert_eq!(virt.num_locals, x64.num_locals);

        // Call, probe and OSR metadata: same sites with the same payloads.
        let mut v_calls: Vec<u32> =
            virt.call_sites.values().map(|c| c.callee_slot_base).collect();
        let mut x_calls: Vec<u32> =
            x64.call_sites.values().map(|c| c.callee_slot_base).collect();
        v_calls.sort_unstable();
        x_calls.sort_unstable();
        assert_eq!(v_calls, x_calls, "call-site metadata agrees");
        let mut v_probes: Vec<(u32, u32)> = virt
            .probe_sites
            .values()
            .map(|p| (p.offset, p.operand_height))
            .collect();
        let mut x_probes: Vec<(u32, u32)> = x64
            .probe_sites
            .values()
            .map(|p| (p.offset, p.operand_height))
            .collect();
        v_probes.sort_unstable();
        x_probes.sort_unstable();
        assert_eq!(v_probes, x_probes, "probe-site metadata agrees");
        assert_eq!(virt.stackmaps.len(), x64.stackmaps.len());
        let mut v_osr: Vec<u32> = virt.osr_entries.keys().copied().collect();
        let mut x_osr: Vec<u32> = x64.osr_entries.keys().copied().collect();
        v_osr.sort_unstable();
        x_osr.sort_unstable();
        assert_eq!(v_osr, x_osr, "the same loops have OSR entries");

        // The x86-64 backend produced real bytes and kept its labels and
        // metadata keys (byte offsets) inside them.
        if !virt.code.is_empty() {
            assert!(x64.code.code_size() > 0, "non-empty code on both backends");
        }
        let size = x64.code.code_size();
        assert!(x64.code.label_targets().iter().all(|&target| target <= size));
        for &site in x64.call_sites.keys().chain(x64.probe_sites.keys()) {
            assert!(site < size, "site index inside the code");
        }
        assert!(x64.osr_entries.values().all(|&entry| entry < size));
    }
    module.funcs.len()
}

/// The baseline compiler under `options`, seen through both backends.
fn baseline<'a>(
    options: CompilerOptions,
    probes: &'a ProbeSites,
) -> impl Fn(&Module, u32, &FuncInfo) -> BothBackends + 'a {
    let compiler = SinglePassCompiler::new(options);
    move |module, func_index, info| {
        let virt = compiler.compile(module, func_index, info, probes);
        let x64 = compiler.compile_with(X64Masm::new(), module, func_index, info, probes);
        (virt.expect("virtual-ISA backend compiles"), x64.expect("x86-64 backend compiles"))
    }
}

/// The optimizing compiler, plain or with metering and OSR entries, seen
/// through both backends.
fn optimizing(metered_osr: bool) -> impl Fn(&Module, u32, &FuncInfo) -> BothBackends {
    let compiler = OptimizingCompiler::default().with_metering(metered_osr).with_osr(metered_osr);
    let probes = ProbeSites::none();
    move |module, func_index, info| {
        let virt = compiler.compile(module, func_index, info, &probes, None);
        let x64 = compiler.compile_with(X64Masm::new(), module, func_index, info, &probes, None);
        (virt.expect("virtual-ISA backend compiles"), x64.expect("x86-64 backend compiles"))
    }
}

#[test]
fn x64_backend_compiles_all_three_suites() {
    let probes = ProbeSites::none();
    let mut functions = 0;
    for suite in all_suites(Scale::Test) {
        for item in &suite.items {
            let compared = compare_backends(&item.module, baseline(CompilerOptions::allopt(), &probes));
            assert_eq!(compared, compare_backends(&item.module, optimizing(false)));
            assert_eq!(compared, compare_backends(&item.module, optimizing(true)));
            functions += compared;
        }
    }
    assert!(functions >= 78, "every line item has at least its entry function");
}

#[test]
fn the_pipeline_encodes_x64_from_the_code_it_publishes() {
    // Under the x86-64 backend each compiler runs once per (function, tier):
    // the artifact's bytes are the re-emission of the very code it executes.
    let config = EngineConfig::tiered("x64", 1, CompilerOptions::allopt())
        .with_backend(CodeBackend::X64);
    let probes = ProbeSites::none();
    for suite in all_suites(Scale::Test) {
        for item in &suite.items {
            let module = &item.module;
            let info = validate(module).expect("module validates");
            for defined in 0..module.funcs.len() as u32 {
                for tier in [CompileTier::Baseline, CompileTier::Opt] {
                    let func_index = module.defined_to_func_index(defined);
                    let finfo = &info.funcs[defined as usize];
                    let artifact =
                        compile_function(&config, tier, module, func_index, finfo, &probes, None)
                            .expect("suite functions compile");
                    let x64 = reemit::<X64Masm>(&artifact.function.code);
                    assert_eq!(artifact.machine_bytes, x64.code_size() as u64);
                    assert_eq!(
                        artifact.x64_code,
                        Some(x64),
                        "{}/{} function {func_index} in {tier:?}",
                        suite.name,
                        item.name
                    );
                }
            }
        }
    }
}

#[test]
fn backends_agree_under_probes_and_tag_strategies() {
    // A small function with known instruction offsets, probed at three
    // sites with three probe kinds — exercising the probe expansions, tag
    // stores, and immediate forms of both backends.
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::opcode::Opcode;
    use wasm::types::{FuncType, ValueType};
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    // Offsets: 0 = local.get, 2 = i32.const, 4 = i32.add, 5 = local.tee, ...
    c.local_get(0)
        .i32_const(5)
        .op(Opcode::I32Add)
        .local_tee(0)
        .drop_()
        .local_get(0);
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![],
        c.finish(),
    );
    b.export_func("f", f);
    let module = b.finish();

    let mut probes = ProbeSites::none();
    probes.insert(0, ProbeSite { probe_id: 0, kind: ProbeKind::Generic });
    probes.insert(2, ProbeSite { probe_id: 1, kind: ProbeKind::Counter { counter_id: 1 } });
    probes.insert(4, ProbeSite { probe_id: 2, kind: ProbeKind::TopOfStack });
    for options in [
        CompilerOptions::allopt(),
        CompilerOptions {
            probe_mode: ProbeMode::Runtime,
            ..CompilerOptions::allopt()
        },
        CompilerOptions::with_tagging(spc::TagStrategy::Eager, "eager"),
        CompilerOptions::with_tagging(spc::TagStrategy::Stackmaps, "maps"),
        CompilerOptions::nok(),
    ] {
        assert_eq!(compare_backends(&module, baseline(options, &probes)), 1);
    }
}

/// Why no test needs to *execute* an x86-64 configuration: selecting the
/// backend changes nothing the engine runs. For every function of the three
/// suites, in the baseline tier plain and metered, the optimizing tier, and
/// the optimizing tier with metering and OSR entries, the pipeline's
/// artifact under [`CodeBackend::X64`] carries exactly the virtual code and
/// engine metadata of the [`CodeBackend::VirtualIsa`] one; only the measured
/// size and the re-emitted bytes differ. This is what lets the shared configuration
/// matrix (`conform::runner::all_configs`) hold no x86-64 rows, and it fails
/// the day a compile starts depending on the backend.
#[test]
fn the_backend_changes_no_executed_instruction() {
    let configs = [
        EngineConfig::baseline("spc", CompilerOptions::allopt()),
        EngineConfig::baseline("spc-metered", CompilerOptions::allopt()).with_metering(),
        EngineConfig::optimizing("opt"),
        EngineConfig::optimizing("opt-metered-osr").with_metering().with_osr(0),
    ];
    let probes = ProbeSites::none();
    let mut compared = 0;
    for config in configs {
        let tier = eager_tier(&config);
        let x64_config = config.clone().with_backend(CodeBackend::X64);
        for suite in all_suites(Scale::Test) {
            for item in &suite.items {
                let (module, item_name) = (&item.module, format!("{}/{}", suite.name, item.name));
                let info = validate(module).expect("module validates");
                for defined in 0..module.funcs.len() as u32 {
                    let func_index = module.defined_to_func_index(defined);
                    let finfo = &info.funcs[defined as usize];
                    let compile = |config| {
                        compile_function(config, tier, module, func_index, finfo, &probes, None)
                            .expect("suite functions compile")
                            .function
                    };
                    let (virt, x64) = (compile(&config), compile(&x64_config));
                    let at = format!("{}: {item_name} function {func_index}", config.name);
                    assert_eq!(virt.code, x64.code, "{at}: code");
                    assert_eq!(virt.stackmaps, x64.stackmaps, "{at}: stackmaps");
                    assert_eq!(virt.call_sites, x64.call_sites, "{at}: call sites");
                    assert_eq!(virt.probe_sites, x64.probe_sites, "{at}: probe sites");
                    assert_eq!(virt.osr_entries, x64.osr_entries, "{at}: OSR entries");
                    assert_eq!(virt.frame_slots, x64.frame_slots, "{at}: frame slots");
                    assert_eq!(virt.stats, x64.stats, "{at}: stats");
                    compared += 1;
                }
            }
        }
    }
    assert!(compared >= 4 * 78, "every line item has at least its entry function");
}

#[test]
fn x64_backend_selection_preserves_execution_checksums() {
    // Selecting the x86-64 backend changes what the code-size metrics
    // measure, never what executes: checksums must match the interpreter.
    let run = |config: EngineConfig, item: &BenchmarkItem| -> WasmValue {
        let engine = Engine::new(config);
        let mut instance = engine
            .instantiate(&item.module, Imports::new(), Instrumentation::none())
            .expect("instantiates");
        engine
            .call_export(&mut instance, BenchmarkItem::ENTRY, &[])
            .expect("runs")[0]
    };
    for item in &suites::ostrich::suite(Scale::Test).items {
        let reference = run(EngineConfig::interpreter("int"), item);
        let x64_backend = run(
            EngineConfig::baseline("spc-x64", CompilerOptions::allopt())
                .with_backend(CodeBackend::X64),
            item,
        );
        assert_eq!(
            x64_backend, reference,
            "{}: x64-backend config must execute identically",
            item.name
        );
    }
}

#[test]
fn x64_backend_reports_larger_real_code_sizes() {
    // Real encodings are strictly positive and differ from the virtual
    // ISA's estimates, which is the point of per-backend size reporting.
    let item = &suites::libsodium::suite(Scale::Test).items[0];
    let measure = |backend: CodeBackend| -> u64 {
        let engine = Engine::new(
            EngineConfig::baseline("spc", CompilerOptions::allopt()).with_backend(backend),
        );
        let instance = engine
            .instantiate(&item.module, Imports::new(), Instrumentation::none())
            .expect("instantiates");
        instance.metrics.compiled_machine_bytes
    };
    let virtual_bytes = measure(CodeBackend::VirtualIsa);
    let x64_bytes = measure(CodeBackend::X64);
    assert!(virtual_bytes > 0);
    assert!(x64_bytes > 0);
    assert_ne!(
        virtual_bytes, x64_bytes,
        "real encodings are measured, not the estimate"
    );
}
