//! Golden simulated-cycle totals.
//!
//! Host-speed work on the execution loops (`machine::Cpu::run`,
//! `interp::Interpreter::run`) must not move a single simulated cycle: the
//! cycles are the paper's execution-time axis, and a faster loop that charges
//! differently is a different experiment. The constants below are sums over
//! every suite item's `main` at `Scale::Test`, each recorded on the commit
//! before the loop it pins was rebuilt. The rows that run optimized code
//! (`OPTIMIZING`, `OPTIMIZING_METERED` and `BASELINE_OSR`, whose frames enter
//! it) were re-recorded when `optc`'s register allocator began keeping
//! loop-carried values in one register. A change that alters emitted code or
//! the cost model on purpose re-records them in the same commit and says
//! why; a change to a loop never does.

use engine::{Engine, EngineConfig, Imports, Instance, Instrumentation, Telemetry};
use machine::values::WasmValue;
use spc::CompilerOptions;
use suites::Scale;
use wasm::Module;

/// Baseline-only runs (`allopt`), per suite.
const BASELINE: [(&str, u64); 3] =
    [("polybench", 318_339), ("libsodium", 6_846_625), ("ostrich", 2_971_870)];

/// Optimizing-only runs, per suite.
const OPTIMIZING: [(&str, u64); 3] =
    [("polybench", 216_069), ("libsodium", 3_280_484), ("ostrich", 1_744_659)];

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

/// Baseline-only runs with the meter armed, per suite: cycles, then fuel.
const BASELINE_METERED: [(&str, [u64; 2]); 3] = [
    ("polybench", [338_721, 222_404]),
    ("libsodium", [7_263_306, 7_723_305]),
    ("ostrich", [3_207_485, 1_700_901]),
];

/// Optimizing-only runs with the meter armed, per suite: cycles, then fuel.
const OPTIMIZING_METERED: [(&str, [u64; 2]); 3] = [
    ("polybench", [236_451, 222_404]),
    ("libsodium", [3_697_165, 7_723_305]),
    ("ostrich", [1_980_274, 1_700_901]),
];

/// Back-edge count at which [`BASELINE_OSR`]'s frames transfer: a handful of
/// warm-up trips stay in baseline code, every real kernel loop crosses it.
const OSR_THRESHOLD: u32 = 100;

/// Baseline-only runs with `with_osr(OSR_THRESHOLD)`, per suite: cycles, then
/// OSR transitions (the engine's `engine.osr_entries` counter).
const BASELINE_OSR: [(&str, [u64; 2]); 3] = [
    ("polybench", [273_630, 35]),
    ("libsodium", [3_376_648, 53]),
    ("ostrich", [1_770_973, 17]),
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

/// Runs `main` of every suite item on `engine` and sums, per suite, a row of
/// the item's `exec_cycles` followed by whatever `observe` reads off the
/// finished instance and `main`'s results.
fn measure(
    engine: &Engine,
    instrument: fn(&Module) -> Instrumentation,
    fuel: Option<u64>,
    mut observe: impl FnMut(&Module, &Instance, &[WasmValue]) -> Vec<u64>,
) -> Vec<(&'static str, Vec<u64>)> {
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
        measure(&Engine::new(config), |_| Instrumentation::none(), None, |_, _, _| vec![])
            .into_iter()
            .map(|(suite, row)| (suite, row[0]))
            .collect();
    assert_eq!(measured, golden, "simulated cycles moved under `{name}`");
}

/// The baseline tier's cycles. Both backends run the same virtual code, so
/// one run pins both: `tests/masm_backends.rs::
/// the_backend_changes_no_executed_instruction` holds the x86-64 backend's
/// executed code equal to this one's.
#[test]
fn baseline_tier_cycles_are_pinned_on_both_backends() {
    let spc = |name| EngineConfig::baseline(name, CompilerOptions::allopt());
    assert_golden(spc("spc"), &BASELINE);

    // Source maps are compile-time metadata: code compiled without them
    // executes the same cycles and returns the same checksums.
    let checksums = |config| {
        measure(&Engine::new(config), |_| Instrumentation::none(), None, |_, _, results| {
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

/// The optimizing tier's cycles, which pin both backends for the same reason
/// as [`baseline_tier_cycles_are_pinned_on_both_backends`]'s.
#[test]
fn optimizing_tier_cycles_are_pinned_on_both_backends() {
    assert_golden(EngineConfig::optimizing("opt"), &OPTIMIZING);
}

#[test]
fn interpreter_cycles_are_pinned() {
    assert_golden(EngineConfig::interpreter("int"), &INTERPRETER);
}

/// Runs every suite item under the metering variant of `config` with a
/// budget no item exhausts: cycles and fuel per suite, each item's results
/// checked against the unmetered baseline tier's.
fn measure_metered(config: EngineConfig) -> Vec<(&'static str, Vec<u64>)> {
    let unmetered = Engine::new(EngineConfig::baseline("spc", CompilerOptions::allopt()));
    measure(
        &Engine::new(config.with_metering()),
        |_| Instrumentation::none(),
        Some(FUEL_BUDGET),
        |module, instance, results| {
            assert_eq!(results, run_main(&unmetered, module), "metering changed a result");
            vec![instance.fuel_consumed().expect("fuel is armed")]
        },
    )
}

/// `main`'s results for `module` on a fresh instance of `engine`.
fn run_main(engine: &Engine, module: &Module) -> Vec<WasmValue> {
    let mut instance = engine
        .instantiate(module, Imports::new(), Instrumentation::none())
        .expect("suite modules instantiate");
    engine.call_export(&mut instance, "main", &[]).expect("suite items run")
}

#[test]
fn metered_interpreter_cycles_and_fuel_are_pinned() {
    assert_rows(measure_metered(EngineConfig::interpreter("int-metered")), &INTERPRETER_METERED);
}

/// What metering costs compiled code, and that it charges what the
/// interpreter charges: every tier emits its checks from the same per-block
/// cost table, so the fuel columns are the interpreter's, and in the baseline
/// tier — the one a serving host keeps tenants in — the fused check sequences
/// cost at most 15 % over unmetered code on every suite.
#[test]
fn metered_compiled_tiers_are_pinned_and_charge_the_interpreters_fuel() {
    let spc = EngineConfig::baseline("spc-metered", CompilerOptions::allopt());
    assert_rows(measure_metered(spc), &BASELINE_METERED);
    assert_rows(measure_metered(EngineConfig::optimizing("opt-metered")), &OPTIMIZING_METERED);

    for (i, (suite, [_, fuel])) in INTERPRETER_METERED.into_iter().enumerate() {
        assert!(fuel > 0, "{suite} consumed no fuel");
        assert_eq!(BASELINE_METERED[i].1[1], fuel, "{suite}: baseline fuel diverged");
        assert_eq!(OPTIMIZING_METERED[i].1[1], fuel, "{suite}: optimizing fuel diverged");
        let (metered, unmetered) = (BASELINE_METERED[i].1[0], BASELINE[i].1);
        assert!(
            metered * 100 <= unmetered * 115,
            "{suite}: baseline metering overhead above 15% ({metered} vs {unmetered})"
        );
    }
}

/// Every suite item calls `main` once, so call-count tier-up never fires and
/// only a back-edge trigger reaches the optimizing tier: with OSR armed the
/// same single call must spend at least 15 % fewer cycles than [`BASELINE`]
/// on at least two suites, return the same results item by item, and really
/// transfer.
#[test]
fn baseline_osr_cycles_and_transitions_are_pinned() {
    let spc = |name| EngineConfig::baseline(name, CompilerOptions::allopt());
    let never_osr = Engine::new(spc("spc"));
    let telemetry = Telemetry::enabled();
    let transitions = || {
        telemetry.metrics().expect("telemetry enabled").counter("engine.osr_entries").get()
    };
    let mut counted = 0;
    let measured = measure(
        &Engine::new(spc("spc-osr").with_osr(OSR_THRESHOLD)).with_telemetry(telemetry.clone()),
        |_| Instrumentation::none(),
        None,
        |module, _, results| {
            assert_eq!(results, run_main(&never_osr, module), "OSR changed a result");
            let entered = transitions() - counted;
            counted += entered;
            vec![entered]
        },
    );
    assert_rows(measured, &BASELINE_OSR);

    let wins = BASELINE
        .iter()
        .zip(&BASELINE_OSR)
        .filter(|((_, never_osr), (_, [osr, _]))| osr * 100 <= never_osr * 85)
        .count();
    assert!(wins >= 2, "OSR must cut >= 15% of baseline cycles on at least 2 of 3 suites");
    assert!(BASELINE_OSR.iter().any(|(_, [_, entries])| *entries > 0), "no frame transferred");
}

#[test]
fn interpreter_probe_firings_are_pinned() {
    let branches = measure(
        &Engine::new(EngineConfig::interpreter("int-branches")),
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
        &Engine::new(EngineConfig::interpreter("int-counters")),
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
