//! Differential testing across execution tiers.
//!
//! Every benchmark line item is executed by the in-place interpreter, by the
//! baseline compiler in its optimization and tagging configurations, by the
//! six production design profiles, by the optimizing tier, and by the tiered
//! configuration. All of them must produce exactly the same checksum — the
//! strongest end-to-end statement that the compilers are semantics-preserving.

mod common;

use engine::{CodeBackend, Engine, EngineConfig, Imports, Instrumentation};
use machine::inst::TrapCode;
use machine::values::WasmValue;
use spc::CompilerOptions;
use suites::{all_suites, BenchmarkItem, Scale};

fn run_item(config: EngineConfig, item: &BenchmarkItem) -> Result<WasmValue, String> {
    common::run_export_checksum(config, &item.module, BenchmarkItem::ENTRY, &[])
        .map_err(|e| format!("{}/{}: trap: {e}", item.suite, item.name))
}

fn reference_results() -> Vec<(String, WasmValue)> {
    let mut out = Vec::new();
    for suite in all_suites(Scale::Test) {
        for item in &suite.items {
            let value = run_item(EngineConfig::interpreter("wizeng-int"), item)
                .unwrap_or_else(|e| panic!("{e}"));
            out.push((format!("{}/{}", item.suite, item.name), value));
        }
    }
    out
}

/// Runs every suite item under `config` and holds each checksum to the
/// interpreter's in `reference` ([`reference_results`]).
fn check_config_against_interpreter(reference: &[(String, WasmValue)], config: &EngineConfig) {
    let name = &config.name;
    let items = all_suites(Scale::Test).into_iter().flat_map(|suite| suite.items);
    for ((item_name, expected), item) in reference.iter().zip(items) {
        let got = run_item(config.clone(), &item).unwrap_or_else(|e| panic!("[{name}] {e}"));
        assert_eq!(&got, expected, "[{name}] {item_name} disagrees with the interpreter");
    }
}

#[test]
fn baseline_allopt_matches_interpreter_on_all_78_items() {
    let config = EngineConfig::baseline("wizeng-spc", CompilerOptions::allopt());
    check_config_against_interpreter(&reference_results(), &config);
}

#[test]
fn baseline_optimization_ablations_match_interpreter() {
    let reference = reference_results();
    for options in CompilerOptions::figure4_configs() {
        let config = EngineConfig::baseline(&options.name, options.clone());
        check_config_against_interpreter(&reference, &config);
    }
}

#[test]
fn value_tag_configurations_match_interpreter() {
    let reference = reference_results();
    for options in CompilerOptions::figure5_configs() {
        let config = EngineConfig::baseline(&options.name, options.clone());
        check_config_against_interpreter(&reference, &config);
    }
}

#[test]
fn production_design_profiles_match_interpreter() {
    let reference = reference_results();
    for profile in spc::all_profiles() {
        let config = EngineConfig::baseline(profile.name, profile.options.clone());
        check_config_against_interpreter(&reference, &config);
    }
}

#[test]
fn optimizing_tier_matches_interpreter() {
    check_config_against_interpreter(&reference_results(), &EngineConfig::optimizing("optimizing"));
}

/// The two `float_nbody` items finish at `Scale::Default` (what the figure
/// binaries' `--full` runs): their velocity sums reach ~1e10 there, and the
/// checksum's clamp must keep `i32.trunc_f64_s` in range.
#[test]
fn float_nbody_items_finish_at_default_scale_in_both_compiled_tiers() {
    let ostrich = suites::ostrich::suite(Scale::Default);
    for name in ["nbody", "lavamd"] {
        let item = ostrich.items.iter().find(|i| i.name == name).expect("ostrich has the item");
        let baseline = run_item(EngineConfig::baseline("spc", CompilerOptions::allopt()), item)
            .unwrap_or_else(|e| panic!("[spc] {e}"));
        let optimizing =
            run_item(EngineConfig::optimizing("opt"), item).unwrap_or_else(|e| panic!("[opt] {e}"));
        assert_eq!(baseline, optimizing, "ostrich/{name} at default scale");
    }
}

#[test]
fn tiered_engine_matches_interpreter() {
    let config = EngineConfig::tiered("tiered", 1, CompilerOptions::allopt());
    check_config_against_interpreter(&reference_results(), &config);
}

/// The shared matrix agrees with the interpreter on every suite item, for
/// both backends: they execute the same code
/// (`tests/masm_backends.rs::the_backend_changes_no_executed_instruction`).
#[test]
fn tier_backend_matrix_agrees_on_all_suite_items() {
    let reference = reference_results();
    for config in conform::runner::all_configs() {
        check_config_against_interpreter(&reference, &config);
    }
}

/// Every entry of the shared matrix is an execution no other entry repeats:
/// none selects the x86-64 backend (which only re-measures the code its
/// virtual-ISA sibling runs), and no two differ in their name alone.
#[test]
fn the_matrix_is_distinct_executions() {
    let configs = conform::runner::all_configs();
    for config in &configs {
        assert_eq!(config.backend, CodeBackend::VirtualIsa, "[{}]", config.name);
    }
    let unnamed: Vec<EngineConfig> =
        configs.iter().map(|c| EngineConfig { name: String::new(), ..c.clone() }).collect();
    for (i, a) in unnamed.iter().enumerate() {
        for (j, b) in unnamed.iter().enumerate().skip(i + 1) {
            assert_ne!(a, b, "{} repeats {}", configs[j].name, configs[i].name);
        }
    }
}

#[test]
fn lazy_compilation_matches_eager() {
    let suites = all_suites(Scale::Test);
    let item = &suites[0].items[0];
    let eager = run_item(
        EngineConfig::baseline("eager", CompilerOptions::allopt()),
        item,
    )
    .unwrap();
    let lazy = run_item(
        EngineConfig::baseline("lazy", CompilerOptions::allopt()).with_lazy_compile(true),
        item,
    )
    .unwrap();
    assert_eq!(eager, lazy);
}

#[test]
fn execution_cycles_show_the_expected_tier_ordering() {
    // The interpreter must execute many more cycles than baseline-compiled
    // code, which in turn should not beat the optimizing tier. Checked on a
    // compute-heavy item so the ordering is unambiguous.
    let suites = all_suites(Scale::Test);
    let item = suites[1]
        .items
        .iter()
        .find(|i| i.name == "chacha20")
        .expect("chacha20 exists");

    let cycles_for = |config: EngineConfig| {
        let engine = Engine::new(config);
        let mut instance = engine
            .instantiate(&item.module, Imports::new(), Instrumentation::none())
            .unwrap();
        engine
            .call_export(&mut instance, BenchmarkItem::ENTRY, &[])
            .unwrap();
        instance.metrics.exec_cycles
    };

    let interp = cycles_for(EngineConfig::interpreter("wizeng-int"));
    let baseline = cycles_for(EngineConfig::baseline("wizeng-spc", CompilerOptions::allopt()));
    let optimizing = cycles_for(EngineConfig::optimizing("optimizing"));
    assert!(
        interp > baseline * 3,
        "interpreter ({interp}) should be much slower than baseline ({baseline})"
    );
    assert!(
        optimizing <= baseline,
        "optimizing tier ({optimizing}) should not be slower than baseline ({baseline})"
    );
}

/// A label whose fall-through is unreachable is entered only by branches,
/// and every branch arrives in canonical memory state. What the dead path
/// knew — local 1 cached as the constant 99 — must not survive past the
/// `end` or `else` it dies at: with local 1 preset to 11, the paths that
/// skip the store read 11.
#[test]
fn dead_fallthrough_state_does_not_leak_past_labels() {
    // How the arm that stores 99 leaves: each makes the code up to the next
    // `end`/`else` unreachable.
    let exits = ["br 1", "local.get 1 return", "i32.const 0 br_table 1 1"];
    let mut configs = conform::runner::all_configs();
    for options in CompilerOptions::figure4_configs()
        .into_iter()
        .chain(CompilerOptions::figure5_configs())
    {
        configs.push(EngineConfig::baseline(&options.name, options.clone()));
    }
    for exit in exits {
        let at_end = format!(
            "block block
               local.get 0 i32.const 5 i32.gt_u br_if 0
               i32.const 99 local.set 1 {exit}
             end
             local.get 1 return
             end"
        );
        let at_else = format!(
            "block
               local.get 0 i32.const 5 i32.gt_u
               if
                 local.get 1 return
               else
                 i32.const 99 local.set 1 {exit}
               end
             end"
        );
        let at_else_from_then = format!(
            "block
               local.get 0 i32.const 5 i32.le_u
               if
                 i32.const 99 local.set 1 {exit}
               else
                 local.get 1 return
               end
             end"
        );
        for body in [at_end, at_else, at_else_from_then] {
            let src = format!(
                "(module (func (export \"f\") (param i32) (result i32) (local i32)
                   i32.const 11 local.set 1
                   {body}
                   local.get 1))"
            );
            let module = wasm::wat::parse_module(&src).unwrap_or_else(|e| panic!("{}", e.describe(&src)));
            for config in &configs {
                for (arg, expected) in [(7, 11), (3, 99)] {
                    let got = common::run_export(config.clone(), &module, "f", &[WasmValue::I32(arg)]);
                    assert_eq!(
                        got,
                        Ok(vec![WasmValue::I32(expected)]),
                        "[{}] f({arg}) leaving by `{exit}` in:\n{body}",
                        config.name
                    );
                }
            }
        }
    }
}

/// A loop-header parameter that is live into an in-loop merge, where the
/// block branching to both names the merge *before* the header
/// (`br_table $M $L`). Here `$x` holds the header's `$acc` across the `if`,
/// whose arms need every register; the arm laid out after the merge (the
/// `else` arm by default, the colder one once the branch monitor's profile
/// biases the layout) is a predecessor placed after the last read of `$x`,
/// so only liveness keeps `$x`'s register from being handed out there. A
/// liveness that subtracts the header's parameters from what the *merge*
/// needs loses `$x` in that arm.
#[test]
fn header_parameter_stays_live_through_a_late_predecessor_of_an_in_loop_merge() {
    // Twelve products live at once, then folded: more than the eleven
    // allocatable registers.
    let heavy = |k: i32| {
        let mut s = String::new();
        for i in 0..12 {
            s += &format!("local.get $n i32.const {} i32.mul ", k + 2 * i);
        }
        s + &"i32.xor ".repeat(11)
    };
    let src = format!(
        "(module (func (export \"f\") (param $n i32) (param $sel i32) (result i32)
           (local $acc i32) (local $x i32) (local $y i32)
           loop $L
             local.get $acc local.set $x
             local.get $acc i32.const 1 i32.add local.set $acc
             block $M
               local.get $n local.get $sel i32.and
               if {} local.set $y else {} local.set $y end
               local.get $n i32.const 1 i32.sub local.set $n
               local.get $n i32.const 7 i32.and
               br_table $M $L
             end
             local.get $x local.get $y i32.add local.get $acc i32.add local.set $acc
             local.get $n i32.const 0 i32.gt_s
             br_if $L
           end
           local.get $acc))",
        heavy(3),
        heavy(5)
    );
    let module = wasm::wat::parse_module(&src).unwrap_or_else(|e| panic!("{}", e.describe(&src)));
    // `sel` 0 always takes the else arm and -1 the then arm on odd `n`: the
    // early calls (which the lower tiers run, feeding the monitor) decide
    // which arm the optimizing tier's layout moves behind the merge, the
    // later calls take both.
    for warmup in [0, -1, 1] {
        let calls = [(40, warmup), (41, warmup), (40, 1), (57, -1), (64, 0), (-3, 1)];
        let run = |config: EngineConfig| -> Vec<Result<Vec<WasmValue>, machine::TrapCode>> {
            let engine = Engine::new(config);
            let mut instance = engine
                .instantiate(&module, Imports::new(), Instrumentation::branch_monitor(&module))
                .expect("module instantiates");
            calls
                .iter()
                .map(|&(n, sel)| {
                    engine.call_export(&mut instance, "f", &[WasmValue::I32(n), WasmValue::I32(sel)])
                })
                .collect()
        };
        let expected = run(EngineConfig::interpreter("reference"));
        let mut configs = conform::runner::all_configs();
        configs.push(EngineConfig::optimizing("optimizing"));
        for config in configs {
            let name = config.name.clone();
            assert_eq!(run(config), expected, "[{name}] warm-up sel {warmup}");
        }
    }
}

/// A module may import one host function under two function indices. Both
/// must resolve to the *same* host closure (the second call sees the state
/// the first left), and the import after them must still reach its own.
#[test]
fn a_host_function_imported_twice_is_one_function_behind_two_indices() {
    let src = r#"
        (module
          (import "env" "inc" (func $inc_a (param i32) (result i32)))
          (import "env" "inc" (func $inc_b (param i32) (result i32)))
          (import "env" "dbl" (func $dbl (param i32) (result i32)))
          (func (export "f") (param $n i32) (result i32)
            local.get $n call $inc_a call $inc_b call $dbl))
    "#;
    let module = wasm::wat::parse_module(src).unwrap_or_else(|e| panic!("{}", e.describe(src)));
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let engine = Engine::new(config);
        // `inc` adds one more each time it runs: 1, then 2, then 3, ...
        let mut step = 0;
        let imports = Imports::new()
            .func("env", "inc", move |_, args| {
                step += 1;
                Ok(vec![WasmValue::I32(args[0].unwrap_i32() + step)])
            })
            .func("env", "dbl", |_, args| Ok(vec![WasmValue::I32(args[0].unwrap_i32() * 2)]));
        let mut instance = engine
            .instantiate(&module, imports, Instrumentation::none())
            .unwrap_or_else(|e| panic!("[{name}] {e}"));
        // The matrix tiers up after one and two calls.
        for call in 0..6 {
            let got = engine.call_export(&mut instance, "f", &[WasmValue::I32(5)]);
            let expected = (5 + (2 * call + 1) + (2 * call + 2)) * 2;
            assert_eq!(got, Ok(vec![WasmValue::I32(expected)]), "[{name}] call {call}");
        }
    }
}

/// A host function's results are checked against the import's signature, not
/// just counted: compiled code knows the result slot by its declared type and
/// the collector scans it by tag, so a value of another type must never land
/// there. Every tier reports the mismatch as the same `HostError` trap.
#[test]
fn a_host_function_returning_the_wrong_type_traps_host_error() {
    let src = r#"
        (module
          (import "env" "int" (func $int (result i32)))
          (import "env" "ref" (func $ref (result externref)))
          (func (export "int") (result i32) call $int)
          (func (export "ref") (result i32) call $ref ref.is_null))
    "#;
    let module = wasm::wat::parse_module(src).unwrap_or_else(|e| panic!("{}", e.describe(src)));
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let engine = Engine::new(config);
        let imports = Imports::new()
            .func("env", "int", |_, _| Ok(vec![WasmValue::I64(7)]))
            .func("env", "ref", |_, _| Ok(vec![WasmValue::I32(7)]));
        let mut instance = engine
            .instantiate(&module, imports, Instrumentation::none())
            .unwrap_or_else(|e| panic!("[{name}] {e}"));
        // The matrix tiers up after one and two calls.
        for call in 0..4 {
            for export in ["int", "ref"] {
                let got = engine.call_export(&mut instance, export, &[]);
                assert_eq!(got, Err(TrapCode::HostError), "[{name}] {export}, call {call}");
            }
        }
    }
}

/// The same check at the other side of the boundary: arguments a host passes
/// to `Engine::call` are checked against the callee's parameter types, not
/// just counted. An `i32` written to an `i64` slot would read back with stale
/// upper bits, and an `i32` in an `externref` slot is a forged host handle.
/// Every tier refuses both with `HostError`, and the instance still serves a
/// well-typed call afterwards.
#[test]
fn mistyped_call_arguments_trap_host_error() {
    let src = r#"
        (module
          (func (export "inc") (param i64) (result i64)
            local.get 0 i64.const 1 i64.add)
          (func (export "null") (param externref) (result i32)
            local.get 0 ref.is_null))
    "#;
    let module = wasm::wat::parse_module(src).unwrap_or_else(|e| panic!("{}", e.describe(src)));
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let engine = Engine::new(config);
        let mut instance = engine
            .instantiate(&module, Imports::new(), Instrumentation::none())
            .unwrap_or_else(|e| panic!("[{name}] {e}"));
        // The matrix tiers up after one and two calls.
        for call in 0..4 {
            for (export, arg) in [("inc", WasmValue::I32(-1)), ("null", WasmValue::I32(7))] {
                let got = engine.call_export(&mut instance, export, &[arg]);
                assert_eq!(got, Err(TrapCode::HostError), "[{name}] {export}, call {call}");
            }
            assert_eq!(
                engine.call_export(&mut instance, "inc", &[WasmValue::I64(-1)]),
                Ok(vec![WasmValue::I64(0)]),
                "[{name}] call {call}"
            );
            assert_eq!(
                engine.call_export(&mut instance, "null", &[WasmValue::ExternRef(None)]),
                Ok(vec![WasmValue::I32(1)]),
                "[{name}] call {call}"
            );
        }
    }
}

/// Instantiation evaluates segment offsets trusting them to be `i32`; that
/// trust is the validator's to establish. A module whose data or element
/// offset has another type round-trips the binary format, and every
/// configuration must refuse it with a validation error (it used to validate
/// and then panic in `MemoryImage::build`).
#[test]
fn a_mistyped_segment_offset_is_a_validation_error_not_a_panic() {
    use wasm::builder::ModuleBuilder;
    use wasm::module::ConstExpr;
    use wasm::types::Limits;
    let mut data = ModuleBuilder::new();
    data.add_memory(Limits::at_least(1));
    data.add_data(0, ConstExpr::I64(0), vec![1, 2, 3]);
    let mut elem = ModuleBuilder::new();
    elem.add_table(wasm::types::ValueType::FuncRef, Limits::at_least(1));
    elem.add_elem(0, ConstExpr::F64(0.0), vec![]);
    for (kind, built) in [("data", data.finish()), ("element", elem.finish())] {
        let module = wasm::decode::decode(&wasm::encode::encode(&built))
            .unwrap_or_else(|e| panic!("{kind}: the module round-trips: {e}"));
        for config in conform::runner::all_configs() {
            let name = config.name.clone();
            match Engine::new(config).instantiate(&module, Imports::new(), Instrumentation::none()) {
                Err(engine::EngineError::Validate(e)) => {
                    assert!(e.message.contains("type mismatch"), "[{name}] {kind}: {e}")
                }
                Err(other) => panic!("[{name}] {kind}: refused for another reason: {other}"),
                Ok(_) => panic!("[{name}] {kind}: instantiated"),
            }
        }
    }
}

/// Per-function counters are numbered by *defined* index, so an imported
/// function shifts them against the function-space index a firing reports.
/// The interpreter and `ProbeMode::Runtime` code fire through the frame
/// accessor, intrinsified code increments the site's own cell: all of them
/// must land in the same cell.
#[test]
fn function_counters_agree_across_tiers_behind_an_imported_function() {
    let src = r#"
        (module
          (import "env" "nop" (func $nop))
          (func $leaf call $nop)
          (func (export "main") call $leaf call $leaf call $leaf))
    "#;
    let module = wasm::wat::parse_module(src).unwrap_or_else(|e| panic!("{}", e.describe(src)));
    let runtime_probes = CompilerOptions {
        probe_mode: spc::ProbeMode::Runtime,
        ..CompilerOptions::allopt()
    };
    let mut configs = conform::runner::all_configs();
    configs.push(EngineConfig::baseline("spc-runtime-probes", runtime_probes));
    for config in configs {
        let name = config.name.clone();
        let engine = Engine::new(config);
        let imports = Imports::new().func("env", "nop", |_, _| Ok(vec![]));
        let mut instance = engine
            .instantiate(&module, imports, Instrumentation::function_counters(&module))
            .unwrap_or_else(|e| panic!("[{name}] {e}"));
        assert_eq!(engine.call_export(&mut instance, "main", &[]), Ok(vec![]), "[{name}]");
        assert_eq!(instance.instrumentation.counters(), &[3, 1], "[{name}] [leaf, main]");
    }
}
