//! Integration tests for tier transfer (Fig. 2's frame compatibility) and
//! garbage collection with tags vs. stackmaps (Section IV-C).

mod common;

use common::fib_module;
use engine::{Engine, EngineConfig, Heap, Imports, Instrumentation, TrapReason};
use machine::values::WasmValue;
use spc::{CompilerOptions, TagStrategy};
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::module::ConstExpr;
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, GlobalType, ValueType};

#[test]
fn recursive_calls_agree_across_tiers() {
    let module = fib_module();
    let mut results = Vec::new();
    for config in [
        EngineConfig::interpreter("int"),
        EngineConfig::baseline("jit", CompilerOptions::allopt()),
        EngineConfig::optimizing("opt"),
        EngineConfig::tiered("tiered", 3, CompilerOptions::allopt()),
        EngineConfig::tiered("tiered-opt", 2, CompilerOptions::allopt()).with_opt_tier(5),
    ] {
        let engine = Engine::new(config);
        let mut instance = engine
            .instantiate(&module, Imports::new(), Instrumentation::none())
            .unwrap();
        let r = engine
            .call_export(&mut instance, "fib", &[WasmValue::I32(15)])
            .unwrap();
        results.push(r[0]);
    }
    assert!(results.iter().all(|r| *r == WasmValue::I32(610)), "{results:?}");
}

#[test]
fn tiered_engine_compiles_only_hot_functions() {
    let module = fib_module();
    let engine = Engine::new(EngineConfig::tiered("tiered", 5, CompilerOptions::allopt()));
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .unwrap();

    // A cold call stays in the interpreter (fib(1) makes a single call).
    engine
        .call_export(&mut instance, "fib", &[WasmValue::I32(1)])
        .unwrap();
    assert!(instance.compiled_code(0).is_none(), "not hot yet");

    // Recursion makes the function hot; it tiers up mid-workload and the JIT
    // frames interoperate with the interpreter frames already on the stack.
    let r = engine
        .call_export(&mut instance, "fib", &[WasmValue::I32(12)])
        .unwrap();
    assert_eq!(r, vec![WasmValue::I32(144)]);
    assert!(instance.compiled_code(0).is_some(), "tiered up");
    assert!(instance.call_count(0) > 5);
    assert!(instance.metrics.functions_compiled == 1);
}

#[test]
fn stack_overflow_is_a_trap_not_a_crash() {
    // Infinite recursion must produce a structured stack-exhaustion trap.
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.local_get(0).call(0);
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![],
        c.finish(),
    );
    b.export_func("loop_forever", f);
    let module = b.finish();
    for config in [
        EngineConfig::interpreter("int"),
        EngineConfig::baseline("jit", CompilerOptions::allopt()),
    ] {
        let err = common::run_export(config, &module, "loop_forever", &[WasmValue::I32(0)])
            .unwrap_err();
        assert_eq!(err, TrapReason::StackOverflow);
        assert_eq!(err.wast_message(), "call stack exhausted");
    }
}

/// The value stack is backed on demand up to a fixed capacity. Frames of 200
/// locals exhaust that capacity long before the call-depth limit does: a
/// recursion that fits returns, one that does not traps, in every tier.
#[test]
fn wide_frames_grow_the_value_stack_up_to_its_capacity() {
    // f(n) = n == 0 ? 0 : f(n - 1) + 1
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.local_get(0)
        .if_(BlockType::Value(ValueType::I32))
        .local_get(0)
        .i32_const(1)
        .op(Opcode::I32Sub)
        .call(0)
        .i32_const(1)
        .op(Opcode::I32Add)
        .else_()
        .i32_const(0)
        .end();
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I64; 200],
        c.finish(),
    );
    b.export_func("f", f);
    let module = b.finish();
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let engine = Engine::new(config);
        let mut instance = engine
            .instantiate(&module, Imports::new(), Instrumentation::none())
            .unwrap();
        // 250 frames of ~200 slots fit in the 64 Ki-slot stack, 1000 do not;
        // after the trap the same instance still runs.
        for (depth, expected) in [
            (250, Ok(vec![WasmValue::I32(250)])),
            (1000, Err(machine::TrapCode::StackOverflow)),
            (250, Ok(vec![WasmValue::I32(250)])),
        ] {
            let got = engine.call_export(&mut instance, "f", &[WasmValue::I32(depth)]);
            assert_eq!(got, expected, "[{name}] f({depth})");
        }
    }
}

/// Every trap cause surfaces as the same structured [`TrapReason`] from every
/// execution configuration — the engine result carries the cause, not a
/// string to scrape.
#[test]
fn trap_reasons_are_structured_and_tier_independent() {
    let module = wasm::wat::parse_module(
        r#"(module
             (memory 1)
             (table 2 funcref)
             (func (export "div0") (result i32)
               i32.const 1
               i32.const 0
               i32.div_s)
             (func (export "overflow") (result i32)
               i32.const -2147483648
               i32.const -1
               i32.div_s)
             (func (export "oob") (result i32)
               i32.const 65536
               i32.load)
             (func (export "boom") unreachable)
             (func (export "badconv") (result i32)
               f32.const nan
               i32.trunc_f32_s)
             (func (export "nullcall")
               i32.const 0
               call_indirect))"#,
    )
    .expect("parses");
    wasm::validate::validate(&module).expect("validates");
    let cases: &[(&str, TrapReason)] = &[
        ("div0", TrapReason::DivisionByZero),
        ("overflow", TrapReason::IntegerOverflow),
        ("oob", TrapReason::MemoryOutOfBounds),
        ("boom", TrapReason::Unreachable),
        ("badconv", TrapReason::InvalidConversionToInteger),
        ("nullcall", TrapReason::NullTableEntry),
    ];
    for config in conform::runner::all_configs() {
        for (export, expected) in cases {
            let err = common::run_export(config.clone(), &module, export, &[])
                .expect_err("must trap");
            assert_eq!(err, *expected, "[{}] {export}", config.name);
        }
    }
}

/// Tier-up is invisible: the same invocation must produce identical results
/// and identical [`TrapReason`]s before, during, and after every promotion —
/// interpreter → baseline → optimizing — including traps raised mid-way
/// through execution (after observable side effects like `memory.grow`).
#[test]
fn results_and_traps_are_identical_before_and_after_tier_up() {
    let module = wasm::wat::parse_module(
        r#"(module
             (memory 1)
             (func (export "sum") (param i32) (result i32)
               (local i32)
               block
                 loop
                   local.get 0
                   i32.eqz
                   br_if 1
                   local.get 1
                   local.get 0
                   i32.add
                   local.set 1
                   local.get 0
                   i32.const 1
                   i32.sub
                   local.set 0
                   br 0
                 end
               end
               local.get 1)
             (func (export "trap_mid") (param i32) (result i32)
               ;; grows memory (observable), then traps iff the argument is 0.
               i32.const 1
               memory.grow
               drop
               i32.const 100
               local.get 0
               i32.div_u)
             (func (export "oob_after_work") (param i32) (result i32)
               ;; a loop of real work, then a load that goes out of bounds
               ;; once the parameter pushes the address past the memory.
               local.get 0
               i32.const 65536
               i32.mul
               i32.load))"#,
    )
    .expect("parses");
    wasm::validate::validate(&module).expect("validates");

    // Reference behaviour from the interpreter.
    let int_engine = Engine::new(EngineConfig::interpreter("int"));
    let mut int_instance = int_engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .unwrap();

    // Three-tier engine with low thresholds: across ten repetitions every
    // function is interpreted, then baseline-compiled, then optimized.
    let config = EngineConfig::tiered("tiered-opt", 2, CompilerOptions::allopt()).with_opt_tier(4);
    let engine = Engine::new(config);
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .unwrap();

    for round in 0..10 {
        for (export, arg) in [
            ("sum", 25),
            ("trap_mid", 7),
            ("trap_mid", 0),
            ("oob_after_work", 0),
            ("oob_after_work", 3),
        ] {
            let expected = int_engine.call_export(&mut int_instance, export, &[WasmValue::I32(arg)]);
            let actual = engine.call_export(&mut instance, export, &[WasmValue::I32(arg)]);
            match (&expected, &actual) {
                (Ok(e), Ok(a)) => assert_eq!(e, a, "round {round}: {export}({arg})"),
                (Err(e), Err(a)) => assert_eq!(e, a, "round {round}: {export}({arg})"),
                other => panic!("round {round}: {export}({arg}) diverged: {other:?}"),
            }
        }
    }
    // All three exports were promoted twice (interp→baseline, baseline→opt)
    // and the optimizing compiles are accounted in their own buckets.
    assert!(
        instance.metrics.tiered_up_functions >= 6,
        "expected 2 promotions per function: {:?}",
        instance.metrics
    );
    assert!(
        instance.metrics.opt_compile_wall > std::time::Duration::ZERO,
        "{:?}",
        instance.metrics
    );
    assert!(
        instance.metrics.opt_exec_cycles > 0,
        "the later rounds must have executed optimizing-tier code: {:?}",
        instance.metrics
    );
    assert!(instance.metrics.opt_exec_cycles <= instance.metrics.exec_cycles);
    assert_eq!(instance.artifact().opt_compiled_count(), 3);
}

/// A module that keeps references alive in locals and globals across calls
/// while allocating garbage.
fn gc_module() -> wasm::Module {
    let mut b = ModuleBuilder::new();
    let alloc = b.import_func(
        "host",
        "alloc",
        FuncType::new(vec![ValueType::I32], vec![ValueType::ExternRef]),
    );
    let live_check = b.import_func(
        "host",
        "live",
        FuncType::new(vec![], vec![ValueType::I32]),
    );
    let g = b.add_global(
        GlobalType::mutable(ValueType::ExternRef),
        ConstExpr::RefNull(ValueType::ExternRef),
    );
    let mut c = CodeBuilder::new();
    // Two garbage allocations first, then one kept in a local and one kept in
    // a global. Collections are triggered at the later call sites, where the
    // garbage is unreachable from any frame slot, local, or global.
    c.i32_const(30).call(alloc).drop_();
    c.i32_const(40).call(alloc).drop_();
    c.i32_const(10).call(alloc).local_set(1);
    c.i32_const(20).call(alloc).global_set(g);
    // Another call so the GC (triggered at call sites) can run with the live
    // refs only reachable from the frame and the global.
    c.call(live_check);
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::ExternRef],
        c.finish(),
    );
    b.export_func("churn", f);
    b.finish()
}

fn run_gc(strategy: TagStrategy) -> (u64, u64, i32) {
    let module = gc_module();
    let options = CompilerOptions {
        tagging: strategy,
        ..CompilerOptions::allopt()
    };
    let engine = Engine::new(EngineConfig::baseline("gc-test", options));
    let imports = Imports::new()
        .func("host", "alloc", |heap, args| {
            Ok(vec![WasmValue::ExternRef(Some(
                heap.alloc(args[0].unwrap_i32() as u64),
            ))])
        })
        .func("host", "live", |heap, _| {
            Ok(vec![WasmValue::I32(heap.live_count() as i32)])
        });
    let mut instance = engine
        .instantiate(&module, imports, Instrumentation::none())
        .unwrap();
    // Collect aggressively: every call site with at least one live object.
    instance.heap = Heap::with_threshold(1);
    let live_at_end = engine
        .call_export(&mut instance, "churn", &[WasmValue::I32(0)])
        .unwrap()[0];
    (
        instance.heap.collections(),
        instance.heap.total_freed(),
        match live_at_end {
            WasmValue::I32(v) => v,
            _ => -1,
        },
    )
}

#[test]
fn gc_keeps_exactly_the_live_objects_with_value_tags() {
    let (collections, freed, live) = run_gc(TagStrategy::OnDemand);
    assert!(collections > 0, "the heap threshold forces collections");
    assert!(freed >= 1, "garbage allocations are reclaimed");
    assert_eq!(live, 2, "the local-held and global-held objects survive");
}

#[test]
fn gc_keeps_exactly_the_live_objects_with_stackmaps() {
    let (collections, freed, live) = run_gc(TagStrategy::Stackmaps);
    assert!(collections > 0);
    assert!(freed >= 1);
    assert_eq!(live, 2);
}

#[test]
fn branch_monitor_counts_match_across_tiers() {
    // The same branchy program must report identical branch profiles — and
    // return the same result — whether probes fire from the interpreter,
    // from runtime-call probes in JIT code, from runtime-call probes that
    // tier the frame down to the interpreter (deopt), or from intrinsified
    // probes.
    let suite = suites::ostrich::suite(suites::Scale::Test);
    let item = suite.items.iter().find(|i| i.name == "bfs").unwrap();
    let runtime_probes = CompilerOptions {
        probe_mode: spc::ProbeMode::Runtime,
        ..CompilerOptions::allopt()
    };
    let mut observations = Vec::new();
    for config in [
        EngineConfig::interpreter("int"),
        EngineConfig::baseline("jit", runtime_probes.clone()),
        EngineConfig::baseline("jit-deopt", runtime_probes).with_deopt_on_probe(),
        EngineConfig::baseline("optjit", CompilerOptions::allopt()),
    ] {
        let name = config.name.clone();
        let engine = Engine::new(config);
        let monitor = Instrumentation::branch_monitor(&item.module);
        let mut instance = engine.instantiate(&item.module, Imports::new(), monitor).unwrap();
        let result = engine.call_export(&mut instance, "main", &[]).unwrap();
        let observed = instance.instrumentation.branch_monitor_data().total_observations();
        observations.push((name, result, observed));
    }
    let (_, int_result, int_observed) = &observations[0];
    assert!(*int_observed > 0);
    for (name, result, observed) in &observations[1..] {
        assert_eq!(int_observed, observed, "int vs {name}: branch observations");
        assert_eq!(int_result, result, "int vs {name}: main's result");
    }
}
