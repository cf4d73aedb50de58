//! FIG 18 (beyond the paper): symbolicated trap diagnostics.
//!
//! A production engine owes its embedder a usable answer to "what just
//! crashed?" — a backtrace of `(function, name, bytecode offset)` frames —
//! and that answer must not depend on which tier happened to be executing
//! when the trap fired. This figure gates two properties of the
//! diagnostics subsystem:
//!
//! 1. **Equivalence** — a battery of trap workloads (call chains,
//!    `call_indirect` dispatch failures, mid-loop traps, deep recursion)
//!    runs under the full tier×backend matrix, each configuration both
//!    plain and with OSR forced at every loop back edge. Every run of a
//!    workload must produce the *identical* backtrace (frames compare by
//!    function, name, and offset; the executing tier is recorded but
//!    excluded).
//! 2. **Symbolication** — the workloads carry `name` sections lowered from
//!    their WAT `$identifiers`; at least 90% of all backtrace frames across
//!    the battery must resolve to a debug name.
//!
//! Diagnostics are compile-time (source-map) metadata, so non-trapping
//! execution does not pay for them: `tests/sim_cycles_golden.rs` asserts that
//! `debug_metadata` on and off execute identical cycles over the three suites.

use bench::{print_header, BenchReport};
use engine::{
    Engine, EngineConfig, Imports, Instrumentation, ResourceLimits, TrapInfo,
};
use machine::values::WasmValue;
use wasm::Module;

/// One trap workload: a named module, an entry point, and arguments that
/// make it trap deterministically.
struct TrapWorkload {
    label: &'static str,
    module: Module,
    entry: &'static str,
    args: Vec<WasmValue>,
    /// A call-depth ceiling for the recursion workload (the depth check is
    /// tier-independent; the default value-stack capacity check is not).
    call_depth: Option<usize>,
}

fn parse(label: &str, text: &str) -> Module {
    wasm::wat::parse_module(text).unwrap_or_else(|e| panic!("{label}: {e:?}"))
}

fn workloads() -> Vec<TrapWorkload> {
    let chain = r#"
        (module $chain
          (func $div (param $a i32) (param $b i32) (result i32)
            local.get $a local.get $b i32.div_s)
          (func $middle (param $n i32) (result i32)
            local.get $n i32.const 0 call $div)
          (func $main (export "main") (param $n i32) (result i32)
            local.get $n call $middle))
    "#;
    let dispatch = r#"
        (module $dispatch
          (type $binop (func (param i32 i32) (result i32)))
          (type $nullary (func (result i32)))
          (table 10 funcref)
          (elem (offset (i32.const 0)) func $add $answer)
          (func $add (type $binop) local.get 0 local.get 1 i32.add)
          (func $answer (type $nullary) i32.const 42)
          (func $route (export "route") (param $which i32) (param $a i32) (param $b i32) (result i32)
            local.get $a local.get $b local.get $which
            call_indirect (type $binop)))
    "#;
    let hot = r#"
        (module $hot
          (func $kernel (export "kernel") (param $n i32) (result i32)
            (local $acc i32)
            block
              loop
                local.get $n
                i32.eqz
                br_if 1
                local.get $acc
                i32.const 1000
                local.get $n
                i32.const 1
                i32.sub
                i32.div_s
                i32.add
                local.set $acc
                local.get $n
                i32.const 1
                i32.sub
                local.set $n
                br 0
              end
            end
            local.get $acc))
    "#;
    let deep = r#"
        (module $deep
          (func $spin (export "spin") (param $n i32) (result i32)
            local.get $n i32.const 1 i32.add call $spin))
    "#;
    vec![
        TrapWorkload {
            label: "call-chain div-by-zero",
            module: parse("chain", chain),
            entry: "main",
            args: vec![WasmValue::I32(7)],
            call_depth: None,
        },
        TrapWorkload {
            label: "call_indirect signature mismatch",
            module: parse("dispatch", dispatch),
            entry: "route",
            args: vec![WasmValue::I32(1), WasmValue::I32(3), WasmValue::I32(4)],
            call_depth: None,
        },
        TrapWorkload {
            label: "call_indirect uninitialized element",
            module: parse("dispatch", dispatch),
            entry: "route",
            args: vec![WasmValue::I32(7), WasmValue::I32(3), WasmValue::I32(4)],
            call_depth: None,
        },
        TrapWorkload {
            label: "call_indirect out of bounds",
            module: parse("dispatch", dispatch),
            entry: "route",
            args: vec![WasmValue::I32(10), WasmValue::I32(3), WasmValue::I32(4)],
            call_depth: None,
        },
        TrapWorkload {
            label: "mid-loop trap after 10k back edges",
            module: parse("hot", hot),
            entry: "kernel",
            args: vec![WasmValue::I32(10_000)],
            call_depth: None,
        },
        TrapWorkload {
            label: "deep recursion (stack exhaustion)",
            module: parse("deep", deep),
            entry: "spin",
            args: vec![WasmValue::I32(0)],
            call_depth: Some(100),
        },
    ]
}

/// Runs one workload under `config` and returns the trap diagnostics.
fn run_trap(config: EngineConfig, w: &TrapWorkload) -> TrapInfo {
    let config = match w.call_depth {
        Some(depth) => config.with_limits(ResourceLimits {
            call_depth: Some(depth),
            ..ResourceLimits::unlimited()
        }),
        None => config,
    };
    let engine = Engine::new(config);
    let mut instance = engine
        .instantiate(&w.module, Imports::new(), Instrumentation::none())
        .expect("workload instantiates");
    let result = engine.call_export(&mut instance, w.entry, &w.args);
    assert!(result.is_err(), "{}: workload must trap", w.label);
    instance
        .last_trap()
        .cloned()
        .unwrap_or_else(|| panic!("{}: no diagnostics captured", w.label))
}

fn main() {
    print_header(
        "Figure 18 (beyond the paper)",
        "Trap diagnostics: cross-tier backtrace equivalence and symbolication",
    );
    // The trap battery is fixed-size: the report keeps the "default" config.
    let mut report = BenchReport::new("fig18");

    let configs = conform::runner::all_configs();
    let battery = workloads();
    let mut mismatches = 0usize;
    let mut runs = 0usize;
    let mut frames_total = 0usize;
    let mut frames_named = 0usize;
    println!("\nBacktrace equivalence over {} configurations (plain + forced OSR):", configs.len());
    for w in &battery {
        let reference = run_trap(EngineConfig::interpreter("fig18-ref"), w);
        frames_total += reference.backtrace.frames().len();
        frames_named += reference
            .backtrace
            .frames()
            .iter()
            .filter(|f| f.name.is_some())
            .count();
        let mut workload_mismatches = 0usize;
        for config in &configs {
            for variant in [config.clone(), config.clone().with_osr(0)] {
                runs += 1;
                if run_trap(variant, w) != reference {
                    workload_mismatches += 1;
                }
            }
        }
        mismatches += workload_mismatches;
        println!(
            "  {:<38} {:>2} frames (+{} truncated)  {}",
            w.label,
            reference.backtrace.frames().len(),
            reference.backtrace.truncated(),
            if workload_mismatches == 0 { "identical" } else { "DIVERGED" },
        );
    }
    let coverage = frames_named as f64 / frames_total.max(1) as f64;
    println!(
        "\nsymbolication: {frames_named}/{frames_total} frames named ({:.1}%)",
        coverage * 100.0
    );
    report.metric("matrix_configs", configs.len() as f64);
    report.metric("trap_workloads", battery.len() as f64);
    report.metric("equivalence_runs", runs as f64);
    report.metric("equivalence_mismatches", mismatches as f64);
    report.metric("symbolication_coverage", coverage);

    let pass = mismatches == 0 && coverage >= 0.90 && runs > 0;
    report.metric("pass", if pass { 1.0 } else { 0.0 });
    report.write();
    println!();
    if mismatches > 0 {
        println!("FAIL: {mismatches} of {runs} runs produced a diverging backtrace");
        std::process::exit(1);
    }
    if coverage < 0.90 {
        println!("FAIL: symbolication coverage {:.1}% < 90%", coverage * 100.0);
        std::process::exit(1);
    }
    println!("PASS");
}
