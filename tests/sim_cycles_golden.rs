//! Golden simulated-cycle totals.
//!
//! Host-speed work on the execution loops (`machine::Cpu::run`,
//! `interp::Interpreter::run`) must not move a single simulated cycle: the
//! cycles are the paper's execution-time axis, and a faster loop that charges
//! differently is a different experiment. The constants below are sums over
//! every suite item's `main` at `Scale::Test`, each recorded on the commit
//! before the loop it pins was rebuilt. A change that alters emitted code or
//! the cost model on purpose re-records them in the same commit and says
//! why; a change to a loop never does.

use engine::{CodeBackend, Engine, EngineConfig, Imports, Instance, Instrumentation};
use machine::values::WasmValue;
use spc::CompilerOptions;
use suites::Scale;
use wasm::Module;

/// Baseline-only runs (`allopt`), per suite.
const BASELINE: [(&str, u64); 3] =
    [("polybench", 318_339), ("libsodium", 6_846_625), ("ostrich", 2_971_870)];

/// Optimizing-only runs, per suite.
const OPTIMIZING: [(&str, u64); 3] =
    [("polybench", 229_896), ("libsodium", 4_044_064), ("ostrich", 1_938_107)];

/// Interpreter-only runs, per suite.
const INTERPRETER: [(&str, u64); 3] =
    [("polybench", 2_556_419), ("libsodium", 86_397_920), ("ostrich", 19_733_149)];

/// Interpreter-only runs with the meter armed (`with_metering()` and a fuel
/// budget no item exhausts), per suite: cycles, then fuel consumed.
const INTERPRETER_METERED: [(&str, [u64; 2]); 3] = [
    ("polybench", [2_576_801, 222_404]),
    ("libsodium", [86_814_601, 7_723_305]),
    ("ostrich", [19_968_764, 1_700_901]),
];

/// Interpreter-only runs under the branch monitor, per suite: cycles, probe
/// firings, and a digest of every site's taken / not-taken counts.
const INTERPRETER_BRANCH_MONITOR: [(&str, [u64; 3]); 3] = [
    ("polybench", [3_114_614, 10_149, 5410014539913577350]),
    ("libsodium", [97_853_430, 208_282, 2984834632366574811]),
    ("ostrich", [26_211_654, 117_791, 3024342606777719025]),
];

/// Interpreter-only runs under per-function counters, per suite: cycles,
/// probe firings, and a digest of the counter values.
const INTERPRETER_FUNCTION_COUNTERS: [(&str, [u64; 3]); 3] = [
    ("polybench", [2_561_039, 84, 4108714287720086896]),
    ("libsodium", [86_404_355, 117, 3746415178569811932]),
    ("ostrich", [19_734_964, 33, 18084444964559276652]),
];

const FUEL_BUDGET: u64 = 1 << 40;

/// Runs `main` of every suite item under `config` and sums, per suite, a row
/// of the item's `exec_cycles` followed by whatever `observe` reads off the
/// finished instance and `main`'s results.
fn measure(
    config: EngineConfig,
    instrument: fn(&Module) -> Instrumentation,
    fuel: Option<u64>,
    observe: fn(&Module, &Instance, &[WasmValue]) -> Vec<u64>,
) -> Vec<(&'static str, Vec<u64>)> {
    let engine = Engine::new(config);
    suites::all_suites(Scale::Test)
        .iter()
        .map(|suite| {
            let mut totals: Vec<u64> = Vec::new();
            for item in &suite.items {
                let mut instance = engine
                    .instantiate(&item.module, Imports::new(), instrument(&item.module))
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", suite.name, item.name));
                if let Some(fuel) = fuel {
                    instance.set_fuel(fuel);
                }
                let results = engine
                    .call_export(&mut instance, "main", &[])
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", suite.name, item.name));
                let mut row = vec![instance.metrics.exec_cycles];
                row.extend(observe(&item.module, &instance, &results));
                totals.resize(row.len(), 0);
                for (total, value) in totals.iter_mut().zip(row) {
                    *total = total.wrapping_add(value);
                }
            }
            (suite.name, totals)
        })
        .collect()
}

fn assert_rows<const N: usize>(measured: Vec<(&str, Vec<u64>)>, golden: &[(&str, [u64; N])]) {
    let golden: Vec<(&str, Vec<u64>)> = golden.iter().map(|(s, row)| (*s, row.to_vec())).collect();
    assert_eq!(measured, golden);
}

fn assert_golden(config: EngineConfig, golden: &[(&str, u64)]) {
    let name = config.name.clone();
    let measured: Vec<(&str, u64)> =
        measure(config, |_| Instrumentation::none(), None, |_, _, _| vec![])
            .into_iter()
            .map(|(suite, row)| (suite, row[0]))
            .collect();
    assert_eq!(measured, golden, "simulated cycles moved under `{name}`");
}

#[test]
fn baseline_tier_cycles_are_pinned_on_both_backends() {
    let spc = |name| EngineConfig::baseline(name, CompilerOptions::allopt());
    assert_golden(spc("spc"), &BASELINE);
    assert_golden(spc("spc-x64").with_backend(CodeBackend::X64), &BASELINE);

    // Source maps are compile-time metadata: code compiled without them
    // executes the same cycles and returns the same checksums.
    let checksums = |config| {
        measure(config, |_| Instrumentation::none(), None, |_, _, results| {
            vec![results[0].to_bits()]
        })
    };
    let no_debug = CompilerOptions { debug_metadata: false, ..CompilerOptions::allopt() };
    assert_eq!(
        checksums(EngineConfig::baseline("spc-nodebug", no_debug)),
        checksums(spc("spc")),
        "`debug_metadata` changed what non-trapping code executes"
    );
}

#[test]
fn optimizing_tier_cycles_are_pinned_on_both_backends() {
    assert_golden(EngineConfig::optimizing("opt"), &OPTIMIZING);
    assert_golden(EngineConfig::optimizing("opt-x64").with_backend(CodeBackend::X64), &OPTIMIZING);
}

#[test]
fn interpreter_cycles_are_pinned() {
    assert_golden(EngineConfig::interpreter("int"), &INTERPRETER);
}

#[test]
fn metered_interpreter_cycles_and_fuel_are_pinned() {
    let measured = measure(
        EngineConfig::interpreter("int-metered").with_metering(),
        |_| Instrumentation::none(),
        Some(FUEL_BUDGET),
        |_, instance, _| vec![instance.fuel_consumed().expect("fuel is armed")],
    );
    assert_rows(measured, &INTERPRETER_METERED);
}

#[test]
fn interpreter_probe_firings_are_pinned() {
    let branches = measure(
        EngineConfig::interpreter("int-branches"),
        Instrumentation::branch_monitor,
        None,
        |module, instance, _| {
            let monitor = &instance.instrumentation;
            let mut digest = wasm::hash::Fnv64::new();
            for defined in 0..module.funcs.len() as u32 {
                let func = module.defined_to_func_index(defined);
                let sites = monitor.sites_for(func);
                let mut offsets: Vec<u32> = sites.iter().map(|(&offset, _)| offset).collect();
                offsets.sort_unstable();
                for offset in offsets {
                    let (taken, not_taken) = monitor
                        .branch_monitor_data()
                        .profile(func, offset)
                        .map_or((0, 0), |p| (p.taken, p.not_taken));
                    digest.write_u32(func).write_u32(offset).write_u64(taken).write_u64(not_taken);
                }
            }
            vec![monitor.total_firings(), digest.finish()]
        },
    );
    assert_rows(branches, &INTERPRETER_BRANCH_MONITOR);

    let counters = measure(
        EngineConfig::interpreter("int-counters"),
        Instrumentation::function_counters,
        None,
        |_, instance, _| {
            let monitor = &instance.instrumentation;
            let mut digest = wasm::hash::Fnv64::new();
            for &count in monitor.counters() {
                digest.write_u64(count);
            }
            vec![monitor.total_firings(), digest.finish()]
        },
    );
    assert_rows(counters, &INTERPRETER_FUNCTION_COUNTERS);
}
