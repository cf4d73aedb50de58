//! Golden simulated-cycle totals.
//!
//! Host-speed work on the simulator loop (`machine::Cpu::run`) must not move
//! a single simulated cycle: the cycles are the paper's execution-time axis,
//! and a faster loop that charges differently is a different experiment. The
//! constants below are the summed `exec_cycles` of every suite item's `main`
//! at `Scale::Test`, recorded on the commit before that loop was rebuilt. A change that
//! alters emitted code or the cost model on purpose re-records them in the
//! same commit and says why; a change to the loop never does.

use engine::{CodeBackend, Engine, EngineConfig, Imports, Instrumentation};
use spc::CompilerOptions;
use suites::Scale;

/// Baseline-only runs (`allopt`), per suite.
const BASELINE: [(&str, u64); 3] =
    [("polybench", 318_339), ("libsodium", 6_846_625), ("ostrich", 2_971_870)];

/// Optimizing-only runs, per suite.
const OPTIMIZING: [(&str, u64); 3] =
    [("polybench", 229_896), ("libsodium", 4_044_064), ("ostrich", 1_938_107)];

fn assert_golden(config: EngineConfig, golden: &[(&str, u64)]) {
    let name = config.name.clone();
    let engine = Engine::new(config);
    let measured: Vec<(&str, u64)> = suites::all_suites(Scale::Test)
        .iter()
        .map(|suite| {
            let total = suite
                .items
                .iter()
                .map(|item| {
                    let mut instance = engine
                        .instantiate(&item.module, Imports::new(), Instrumentation::none())
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", suite.name, item.name));
                    engine
                        .call_export(&mut instance, "main", &[])
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", suite.name, item.name));
                    instance.metrics.exec_cycles
                })
                .sum();
            (suite.name, total)
        })
        .collect();
    assert_eq!(measured, golden, "simulated cycles moved under `{name}`");
}

#[test]
fn baseline_tier_cycles_are_pinned_on_both_backends() {
    let spc = |name| EngineConfig::baseline(name, CompilerOptions::allopt());
    assert_golden(spc("spc"), &BASELINE);
    assert_golden(spc("spc-x64").with_backend(CodeBackend::X64), &BASELINE);
}

#[test]
fn optimizing_tier_cycles_are_pinned_on_both_backends() {
    assert_golden(EngineConfig::optimizing("opt"), &OPTIMIZING);
    assert_golden(EngineConfig::optimizing("opt-x64").with_backend(CodeBackend::X64), &OPTIMIZING);
}
