//! FIG 13 (beyond the paper): the optimizing tier.
//!
//! The paper frames the baseline compiler's value by contrast with the
//! optimizing tiers production engines tier up into. This figure measures
//! that other side of the axis for this reproduction's SSA-based optimizing
//! compiler (`crates/optc`):
//!
//! 1. **Execution cycles** across the three suites for the interpreter, the
//!    baseline compiler, and the optimizing tier, relative to the baseline.
//!    That the optimizing tier agrees with the lower tiers item by item and
//!    executes at least 20% fewer cycles than the baseline on at least two
//!    suites is `tests/opt_tier.rs`; the totals are pinned by
//!    `tests/sim_cycles_golden.rs`.
//! 2. **Compile time and code size** on both macro-assembler backends: the
//!    optimizing tier pays a multiple of the baseline's compile time and
//!    both tiers report real x86-64 byte sizes under the x64 backend,
//!    because the optimizing tier emits through the same `Masm` boundary.
//!    The ratio is also split at a function-size threshold, and the
//!    optimizing tier's time is split by pass — each pass timed from outside
//!    through `optc`'s public pass functions, fastest of three per function.
//! 3. **Profile-guided layout**: the three-tier engine (whose optimizing
//!    compiles see the branch monitor's profile) against an eagerly-compiled
//!    optimizing engine (which compiles before any profile exists), probe
//!    configuration held equal.

use bench::{measure_all, print_suite_table, summarize_by_suite, Instrument};
use engine::pipeline::compile_function;
use engine::{CodeBackend, CompileTier, EngineConfig};
use optc::{emit, frontend, layout, opt, regalloc};
use spc::{CompilerOptions, ProbeMode, ProbeSites};
use std::time::Instant;

/// The optimizing tier's passes, in pipeline order (`regalloc` is
/// `regalloc::allocate`; the four in the middle are `opt::optimize`'s).
const PASSES: [&str; 8] =
    ["frontend", "fold", "simplify_params", "cse", "dce", "layout", "regalloc", "emit"];

/// Functions with bodies shorter than this are "small" in the split
/// compile-time ratio. The suites' bodies are at most 296 bytes with a
/// median of 65; this puts about a third of the code on the large side.
const SIZE_THRESHOLD: usize = 128;

/// Seconds per pass for one compilation of one function, each pass timed
/// around its public entry point exactly as `OptimizingCompiler::compile`
/// sequences them.
fn time_passes(module: &wasm::Module, func_index: u32, info: &wasm::validate::FuncInfo) -> [f64; 8] {
    let mut t = [0f64; 8];
    let mut timed = |pass: usize, start: Instant| t[pass] += start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut ir = frontend::build(
        module,
        func_index,
        info,
        &ProbeSites::none(),
        ProbeMode::Optimized,
        false,
        false,
    )
    .expect("suite bodies build");
    timed(0, start);
    let mut reachable = ir.reachable();
    for _ in 0..3 {
        let start = Instant::now();
        opt::fold(&mut ir, &reachable);
        timed(1, start);
        let start = Instant::now();
        let edges = ir.edge_index();
        let a = opt::simplify_params(&mut ir, &edges);
        timed(2, start);
        let start = Instant::now();
        opt::cse(&mut ir, &edges.reachable);
        timed(3, start);
        let start = Instant::now();
        let b = opt::dce(&mut ir, &edges);
        timed(4, start);
        if !a && !b {
            break;
        }
        reachable = edges.reachable;
    }
    let start = Instant::now();
    let order = layout::layout(&ir, &interp::profile::FuncProfile::empty());
    timed(5, start);
    let start = Instant::now();
    let alloc = regalloc::allocate(&ir, &order);
    timed(6, start);
    let start = Instant::now();
    let code = emit::emit(machine::asm::Assembler::new(), &ir, &alloc, &order, 0);
    timed(7, start);
    std::hint::black_box(code);
    t
}

/// The fastest of three runs of `f`, in seconds.
fn fastest_of_3(mut f: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

fn main() {
    let scale = bench::scale_from_args();
    bench::print_header(
        "Figure 13 (beyond the paper)",
        "The optimizing tier: cycles, compile time, and code size vs interpreter and baseline",
    );

    let interp = measure_all(&EngineConfig::interpreter("int"), scale, Instrument::None);
    let baseline = measure_all(
        &EngineConfig::baseline("spc", CompilerOptions::allopt()),
        scale,
        Instrument::None,
    );
    let opt = measure_all(&EngineConfig::optimizing("opt"), scale, Instrument::None);

    // ---- Execution cycles ------------------------------------------------
    println!("\nExecution cycles relative to the baseline tier (lower is better):");
    let rows: Vec<(&'static str, Vec<bench::SuiteSummary>)> = {
        let int_rows = summarize_by_suite(&interp, |m| m.exec_cycles as f64);
        let base_rows = summarize_by_suite(&baseline, |m| m.exec_cycles as f64);
        let opt_rows = summarize_by_suite(&opt, |m| m.exec_cycles as f64);
        int_rows
            .iter()
            .zip(&base_rows)
            .zip(&opt_rows)
            .map(|(((suite, i), (_, b)), (_, o))| {
                (
                    *suite,
                    vec![
                        bench::SuiteSummary {
                            mean: i.mean / b.mean,
                            min: i.min / b.min.max(1.0),
                            max: i.max / b.max.max(1.0),
                        },
                        bench::SuiteSummary {
                            mean: 1.0,
                            min: 1.0,
                            max: 1.0,
                        },
                        bench::SuiteSummary {
                            mean: o.mean / b.mean,
                            min: o.min / b.min.max(1.0),
                            max: o.max / b.max.max(1.0),
                        },
                    ],
                )
            })
            .collect()
    };
    print_suite_table(
        &["interp".to_string(), "baseline".to_string(), "opt".to_string()],
        &rows,
    );

    // ---- Compile time and code size per backend --------------------------
    println!("\nCompile time and code size (both tiers, both backends):");
    for backend in [CodeBackend::VirtualIsa, CodeBackend::X64] {
        let base_cfg = EngineConfig::baseline("spc", CompilerOptions::allopt()).with_backend(backend);
        let opt_cfg = EngineConfig::optimizing("opt").with_backend(backend);
        let b = measure_all(&base_cfg, scale, Instrument::None);
        let o = measure_all(&opt_cfg, scale, Instrument::None);
        let sum_wall = |items: &[bench::ItemMeasurement]| -> f64 {
            items.iter().map(|m| m.compile_wall.as_secs_f64() * 1e3).sum()
        };
        let sum_bytes = |items: &[bench::ItemMeasurement]| -> u64 {
            items.iter().map(|m| m.compiled_machine_bytes).sum()
        };
        println!(
            "  {backend:?}: baseline {:>8.2} ms, {:>8} bytes | opt {:>8.2} ms, {:>8} bytes | compile-time ratio {:>5.2}x",
            sum_wall(&b),
            sum_bytes(&b),
            sum_wall(&o),
            sum_bytes(&o),
            sum_wall(&o) / sum_wall(&b).max(1e-9),
        );
    }

    // ---- Where the optimizing tier's compile time goes --------------------
    // Per function, fastest of three: the whole compile in both tiers
    // (bucketed by body size) and each optimizing pass on its own.
    let opt_cfg = EngineConfig::optimizing("opt");
    let base_cfg = EngineConfig::baseline("spc", CompilerOptions::allopt());
    let mut pass_secs = [0f64; 8];
    // (optimizing seconds, baseline seconds, functions) below and from the
    // size threshold.
    let mut by_size = [(0f64, 0f64, 0usize); 2];
    for suite in suites::all_suites(scale) {
        for item in &suite.items {
            let module = &item.module;
            let info = wasm::validate::validate(module).expect("suite modules validate");
            for (defined, decl) in module.funcs.iter().enumerate() {
                let func_index = module.defined_to_func_index(defined as u32);
                let func_info = &info.funcs[defined];
                let mut best = [f64::MAX; 8];
                for _ in 0..3 {
                    let t = time_passes(module, func_index, func_info);
                    for (b, t) in best.iter_mut().zip(t) {
                        *b = b.min(t);
                    }
                }
                for (total, b) in pass_secs.iter_mut().zip(best) {
                    *total += b;
                }
                let whole = |config: &EngineConfig, tier| {
                    fastest_of_3(|| {
                        let compiled = compile_function(
                            config,
                            tier,
                            module,
                            func_index,
                            func_info,
                            &ProbeSites::none(),
                            None,
                        );
                        std::hint::black_box(compiled.expect("suite bodies compile"));
                    })
                };
                let bucket = &mut by_size[(decl.code.len() >= SIZE_THRESHOLD) as usize];
                bucket.0 += whole(&opt_cfg, CompileTier::Opt);
                bucket.1 += whole(&base_cfg, CompileTier::Baseline);
                bucket.2 += 1;
            }
        }
    }
    println!("\nOptimizing-tier compile time by pass (virtual ISA, fastest of 3 per function):");
    let pass_total: f64 = pass_secs.iter().sum();
    for (name, secs) in PASSES.iter().zip(pass_secs) {
        println!("  {name:<16} {:>8.3} ms  {:>5.1}%", secs * 1e3, 100.0 * secs / pass_total);
    }
    println!("Compile-time ratio by function size (fastest of 3 per function):");
    for ((opt_secs, base_secs, funcs), label) in
        by_size.into_iter().zip([format!("< {SIZE_THRESHOLD} B"), format!(">= {SIZE_THRESHOLD} B")])
    {
        let ratio = opt_secs / base_secs.max(1e-12);
        println!(
            "  {label:<9} {funcs:>4} functions: baseline {:>7.3} ms | opt {:>7.3} ms | ratio {ratio:>5.2}x",
            base_secs * 1e3,
            opt_secs * 1e3
        );
    }

    // ---- Profile-guided layout -------------------------------------------
    // Both configurations carry the branch monitor (so probe overhead is
    // identical) and both run their *second* call in the optimizing tier;
    // only the three-tier engine's promotion compiles see a profile (the
    // first call ran in the baseline tier and fed the monitor).
    println!("\nProfile-guided layout (second call in the optimizing tier, monitor attached):");
    let second_call_cycles = |config: &EngineConfig| -> u64 {
        let mut total = 0u64;
        for suite in suites::all_suites(scale) {
            for item in &suite.items {
                let engine = engine::Engine::new(config.clone());
                let monitor = engine::Instrumentation::branch_monitor(&item.module);
                let mut instance = engine
                    .instantiate(&item.module, engine::Imports::new(), monitor)
                    .expect("instantiates");
                engine
                    .call_export(&mut instance, suites::BenchmarkItem::ENTRY, &[])
                    .expect("first call");
                let before = instance.metrics.exec_cycles;
                engine
                    .call_export(&mut instance, suites::BenchmarkItem::ENTRY, &[])
                    .expect("second call");
                total += instance.metrics.exec_cycles - before;
            }
        }
        total
    };
    // Baseline on call 1 (collecting the profile), optimizing on call 2.
    let profiled = second_call_cycles(
        &EngineConfig::tiered("tiered-opt", 0, CompilerOptions::allopt())
            .with_opt_tier(1)
            .with_lazy_compile(true),
    );
    // Optimizing from call 1: the opt compile ran before any observation.
    let unprofiled = second_call_cycles(&EngineConfig::optimizing("opt"));
    println!("  profile-guided layout: {profiled:>12} cycles");
    println!("  static (bytecode) layout: {unprofiled:>9} cycles");
    println!(
        "  layout effect: {:+.2}% cycles",
        100.0 * (profiled as f64 / unprofiled as f64 - 1.0)
    );
}
