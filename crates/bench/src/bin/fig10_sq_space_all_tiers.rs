//! Fig. 10 — the larger SQ-space covering 18 execution-tier configurations:
//! interpreters, baseline compilers, optimizing compilers, ahead-of-time
//! translation, and tiered combinations.
//!
//! Following the paper's methodology, each engine configuration E is
//! characterized by its *setup speed* (module bytes per second of
//! instantiation time, using the `Mnop`/`m0` adjustment to separate VM
//! startup from per-module processing) and its *adjusted speedup* over
//! Wizard-INT (using the early-return `m0` variant to remove setup effects
//! from execution measurements).

use bench::Instrument;
use engine::{Engine, EngineConfig, Imports, Instrumentation};
use spc::CompilerOptions;
use std::time::Duration;
use suites::{all_suites, early_return_variant, nop_module, BenchmarkItem};
use wasm::Module;

fn configurations() -> Vec<(&'static str, EngineConfig)> {
    let profiles = spc::all_profiles();
    let profile = |name: &str| {
        profiles
            .iter()
            .find(|p| p.name == name)
            .expect("profile exists")
            .options
            .clone()
    };
    vec![
        // Interpreters.
        ("interpreter", EngineConfig::interpreter("wizeng-int")),
        ("interpreter", EngineConfig::interpreter("wasm3")),
        ("interpreter", EngineConfig::interpreter("iwasm-int")),
        ("interpreter", EngineConfig::interpreter("jsc-int")),
        // Baseline compilers.
        (
            "baseline",
            EngineConfig::baseline("wizeng-spc", profile("wizeng-spc")),
        ),
        (
            "baseline",
            EngineConfig::baseline("v8-liftoff", profile("v8-liftoff")),
        ),
        ("baseline", EngineConfig::baseline("sm-base", profile("sm-base"))),
        (
            "baseline",
            EngineConfig::baseline("wasmer-base", profile("wasmer-base")),
        ),
        ("baseline", EngineConfig::baseline("wazero", profile("wazero"))),
        ("baseline", EngineConfig::baseline("wasm-now", profile("wasm-now"))),
        (
            "baseline",
            EngineConfig::baseline("iwasm-fjit", CompilerOptions::nok()),
        ),
        (
            "baseline",
            EngineConfig::baseline("jsc-bbq", profile("v8-liftoff")).with_lazy_compile(true),
        ),
        // Tiered (interpreter first, baseline when hot).
        (
            "tiered",
            EngineConfig::tiered("wizeng-tiered", 4, CompilerOptions::allopt()),
        ),
        // Optimizing compilers.
        ("optimizing", EngineConfig::optimizing("wasmtime-cranelift")),
        ("optimizing", EngineConfig::optimizing("wasmer-cranelift")),
        (
            "optimizing",
            EngineConfig::optimizing("jsc-omg").with_lazy_compile(true),
        ),
        ("optimizing", EngineConfig::optimizing("turbofan-like")),
        // Ahead-of-time: optimizing, eager, validation and full compile up front.
        ("aot", EngineConfig::optimizing("wavm-aot")),
    ]
}

/// `item`'s execution cycles under `config` minus those of its early-return
/// variant `m0` instantiated by `engine`: what `main` costs beyond setup.
fn adjusted_cycles(
    config: &EngineConfig,
    engine: &Engine,
    item: &BenchmarkItem,
    m0: &Module,
) -> u64 {
    let exec = bench::measure_item(config, item, Instrument::None).exec_cycles;
    let mut inst0 = engine
        .instantiate(m0, Imports::new(), Instrumentation::none())
        .expect("m0 instantiates");
    engine
        .call_export(&mut inst0, BenchmarkItem::ENTRY, &[])
        .expect("m0 runs");
    exec.saturating_sub(inst0.metrics.exec_cycles)
}

/// A line item, its early-return variant `m0`, and its adjusted cycles under
/// the interpreter (the reference every configuration's speedup is over).
type Prepared<'a> = (&'a BenchmarkItem, Module, f64);

/// `config`'s setup speed in MB/s and its mean adjusted speedup.
fn measure_tier(config: &EngineConfig, items: &[Prepared]) -> (f64, f64) {
    // VM startup baseline: instantiate the smallest possible module.
    let nop = nop_module();
    let engine = Engine::new(config.clone());
    let mut startup = Duration::ZERO;
    for _ in 0..5 {
        let inst = engine
            .instantiate(&nop, Imports::new(), Instrumentation::none())
            .expect("Mnop instantiates");
        startup += inst.metrics.setup_wall;
    }
    let startup = startup / 5;

    let mut total_bytes = 0f64;
    let mut total_setup = 0f64;
    let mut speedups = Vec::new();
    for (item, m0, reference) in items {
        // Setup time: instantiate the early-return variant (m0), which
        // does all per-module processing but almost no execution.
        let inst0 = engine
            .instantiate(m0, Imports::new(), Instrumentation::none())
            .expect("m0 instantiates");
        let setup = inst0
            .metrics
            .setup_wall
            .checked_sub(startup)
            .unwrap_or(Duration::ZERO);
        total_bytes += item.encoded_size() as f64;
        total_setup += setup.as_secs_f64();
        speedups.push(reference / adjusted_cycles(config, &engine, item, m0).max(1) as f64);
    }
    let setup_mb_per_s = (total_bytes / 1e6) / total_setup.max(1e-9);
    (setup_mb_per_s, speedups.iter().sum::<f64>() / speedups.len() as f64)
}

fn main() {
    bench::print_header(
        "Figure 10",
        "SQ-space for 18 Wasm execution configurations (setup MB/s vs adjusted speedup over Wizard-INT)",
    );
    println!(
        "{:<18} {:<12} {:>14} {:>22}",
        "engine", "kind", "setup (MB/s)", "adjusted speedup (x)"
    );
    println!("{:-<70}", "");
    let suites = all_suites(bench::scale_from_args());
    let interp = EngineConfig::interpreter("wizeng-int");
    let interp_engine = Engine::new(interp.clone());
    let items: Vec<Prepared> = suites
        .iter()
        .flat_map(|suite| &suite.items)
        .map(|item| {
            let m0 = early_return_variant(&item.module);
            let reference = adjusted_cycles(&interp, &interp_engine, item, &m0).max(1) as f64;
            (item, m0, reference)
        })
        .collect();
    let mut speedups = Vec::new();
    for (kind, config) in configurations() {
        let (setup_mb_per_s, speedup) = measure_tier(&config, &items);
        println!("{:<18} {:<12} {setup_mb_per_s:>14.2} {speedup:>22.2}", config.name, kind);
        speedups.push((kind, speedup));
    }
    println!();
    println!("Expected shape (paper): interpreters have the fastest setup and a hard");
    println!("performance ceiling (~1x); baseline compilers cluster together around 10x;");
    println!("optimizing tiers are another 2-3x faster but an order of magnitude slower to");
    println!("set up; ahead-of-time translation has the slowest setup of all.");

    // Simple consistency check when run as a smoke test.
    let mean_speedup = |kind: &str| {
        let of_kind: Vec<f64> =
            speedups.iter().filter(|(k, _)| *k == kind).map(|(_, s)| *s).collect();
        of_kind.iter().sum::<f64>() / of_kind.len() as f64
    };
    if mean_speedup("baseline") < mean_speedup("interpreter") {
        eprintln!("warning: baseline tier did not outperform interpreters; check cost model");
    }
}
