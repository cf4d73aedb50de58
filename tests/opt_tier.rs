//! Integration tests for the SSA optimizing tier: whole-suite agreement
//! with the lower tiers, the cycle-reduction claim `fig13_opt_tier` prints,
//! and the Masm-generality of the tier (real x86-64 sizes under the x64
//! backend).

mod common;

use engine::{CodeBackend, Engine, EngineConfig, Imports, Instrumentation};
use spc::CompilerOptions;
use suites::Scale;

/// Every suite item computes the same checksum in the optimizing tier as in
/// the interpreter and the baseline tier, and the optimizing tier executes
/// at least 20% fewer simulated cycles than the baseline on at least two of
/// the three suites (this is the gate; `fig13_opt_tier` only prints).
#[test]
fn opt_tier_agrees_with_lower_tiers_and_cuts_cycles() {
    let interp = Engine::new(EngineConfig::interpreter("int"));
    let baseline = Engine::new(EngineConfig::baseline("spc", CompilerOptions::allopt()));
    let opt = Engine::new(EngineConfig::optimizing("opt"));

    let mut wins = 0;
    for suite in suites::all_suites(Scale::Test) {
        let mut baseline_cycles = 0u64;
        let mut opt_cycles = 0u64;
        for item in &suite.items {
            let run = |engine: &Engine| {
                let mut instance = engine
                    .instantiate(&item.module, Imports::new(), Instrumentation::none())
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", suite.name, item.name));
                let r = engine
                    .call_export(&mut instance, "main", &[])
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", suite.name, item.name));
                (r, instance.metrics.exec_cycles)
            };
            let (ri, _) = run(&interp);
            let (rb, cb) = run(&baseline);
            let (ro, co) = run(&opt);
            assert_eq!(ri, rb, "{}/{}", suite.name, item.name);
            assert_eq!(ri, ro, "{}/{}", suite.name, item.name);
            baseline_cycles += cb;
            opt_cycles += co;
        }
        assert!(
            opt_cycles < baseline_cycles,
            "{}: opt {} vs baseline {}",
            suite.name,
            opt_cycles,
            baseline_cycles
        );
        if opt_cycles * 10 <= baseline_cycles * 8 {
            wins += 1;
        }
    }
    assert!(wins >= 2, "opt must be >=20% faster on at least 2 of 3 suites");
}

/// The optimizing tier emits through the `Masm` boundary, so the x86-64
/// backend reports real encoded bytes for optimized code — and the virtual
/// and x64 runs execute identically (execution is always virtual-ISA).
#[test]
fn opt_tier_serves_both_backends() {
    let virt = Engine::new(EngineConfig::optimizing("opt"));
    let x64 = Engine::new(EngineConfig::optimizing("opt-x64").with_backend(CodeBackend::X64));
    let suite = suites::polybench::suite(Scale::Test);
    for item in suite.items.iter().take(6) {
        let run = |engine: &Engine| {
            let mut instance = engine
                .instantiate(&item.module, Imports::new(), Instrumentation::none())
                .unwrap();
            let r = engine.call_export(&mut instance, "main", &[]).unwrap();
            (r, instance.metrics.exec_cycles, instance.metrics.compiled_machine_bytes)
        };
        let (rv, cv, bytes_virtual) = run(&virt);
        let (rx, cx, bytes_x64) = run(&x64);
        assert_eq!(rv, rx, "{}", item.name);
        assert_eq!(cv, cx, "execution is backend-independent ({})", item.name);
        assert!(bytes_virtual > 0 && bytes_x64 > 0, "{}", item.name);
        assert_ne!(
            bytes_virtual, bytes_x64,
            "x64 sizes are real encodings, not the virtual estimate ({})",
            item.name
        );
    }
}

/// Promotion through all three tiers mid-workload: the three-tier engine
/// returns the same fib value on every call while the function climbs
/// interpreter → baseline → optimizing.
#[test]
fn three_tier_promotion_is_seamless_mid_workload() {
    let module = common::fib_module();
    let config = EngineConfig::tiered("t3", 1, CompilerOptions::allopt()).with_opt_tier(3);
    let engine = Engine::new(config);
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .unwrap();
    for _ in 0..6 {
        let r = engine
            .call_export(&mut instance, "fib", &[machine::values::WasmValue::I32(12)])
            .unwrap();
        assert_eq!(r, vec![machine::values::WasmValue::I32(144)]);
    }
    assert_eq!(instance.artifact().opt_compiled_count(), 1);
    assert!(instance.metrics.opt_exec_cycles > 0);
    assert!(instance.metrics.tiered_up_functions >= 2);
}

/// The optimizing tier keeps a loop-carried value in one register all the
/// way round its loop (DESIGN.md, "Liveness and intervals"), so the back
/// edge of `gemm`'s innermost loop — the jump to the loop header's label,
/// after which nothing of the edge remains to move — is not preceded by a
/// register move. Without same-position reuse and lifetime holes it read
/// `Addi.32 r8, r6, #1; mov r6, r8; mov r7, r10; jmp L5`.
#[test]
fn gemm_inner_loop_back_edge_carries_no_register_move() {
    use machine::inst::MachInst;

    let suite = suites::polybench::suite(Scale::Default);
    let item = suite.items.iter().find(|i| i.name == "gemm").expect("PolyBench has gemm");
    let module = &item.module;
    let kernel = module.exported_func("kernel").expect("gemm exports its kernel");
    let info = wasm::validate::validate(module).expect("gemm validates");
    let defined = (kernel - module.num_imported_funcs()) as usize;
    let compiled = optc::OptimizingCompiler::default()
        .compile(module, kernel, &info.funcs[defined], &spc::ProbeSites::none(), None)
        .expect("gemm's kernel compiles");
    let code = &compiled.code;
    // Back edges: jumps to a label bound at or before the jump. The
    // innermost loop's is the one spanning the fewest instructions.
    let back_edge = (0..code.len())
        .filter_map(|pc| match code.insts()[pc] {
            MachInst::Jump { target } if code.target(target) <= pc => Some((pc - code.target(target), pc)),
            _ => None,
        })
        .min()
        .map(|(_, pc)| pc)
        .unwrap_or_else(|| panic!("no back edge in\n{}", code.disassemble()));
    let moves = code.insts()[..back_edge]
        .iter()
        .rev()
        .take_while(|inst| matches!(inst, MachInst::Mov { .. } | MachInst::FMov { .. }))
        .count();
    assert_eq!(moves, 0, "{moves} register move(s) before the back edge at {back_edge}\n{}", code.disassemble());
}
