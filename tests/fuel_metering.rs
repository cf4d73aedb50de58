//! Fuel metering and preemption across the tier matrix.
//!
//! Three claims anchor the multi-tenant layer: (1) fuel consumption is
//! bit-identical in every execution configuration, *including* runs that
//! tier up mid-execution; (2) a runaway loop is preemptible via the epoch
//! protocol in interpreted and compiled code; (3) tenant resource ceilings
//! bind at `memory.grow` and at instantiation. The conformance corpus
//! (`crates/conform/scripts/fuel_metering.wast`) states exact budgets; this
//! file exercises the engine-level machinery the scripts cannot reach.

mod common;

use engine::{Engine, EngineConfig, Imports, Instrumentation, ResourceLimits};
use machine::inst::TrapCode;
use machine::values::WasmValue;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, Limits, ValueType};
use wasm::Module;

/// driver(k, n): calls worker(n) `k` times and sums the results. With the
/// tiered configurations' low thresholds the worker is interpreted first,
/// then baseline-compiled, then promoted to the optimizing tier — all within
/// a single driver invocation, so one call burns fuel across three tiers.
fn tier_up_module() -> Module {
    let mut b = ModuleBuilder::new();
    // worker(n): count down, returning the number of iterations.
    let worker = {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .loop_(BlockType::Empty)
            .local_get(0)
            .op(Opcode::I32Eqz)
            .br_if(1)
            .local_get(0)
            .i32_const(1)
            .op(Opcode::I32Sub)
            .local_set(0)
            .local_get(1)
            .i32_const(1)
            .op(Opcode::I32Add)
            .local_set(1)
            .br(0)
            .end()
            .end()
            .local_get(1);
        b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![ValueType::I32],
            c.finish(),
        )
    };
    // driver(k, n): sum of k worker(n) calls.
    let driver = {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .loop_(BlockType::Empty)
            .local_get(0)
            .op(Opcode::I32Eqz)
            .br_if(1)
            .local_get(0)
            .i32_const(1)
            .op(Opcode::I32Sub)
            .local_set(0)
            .local_get(2)
            .local_get(1)
            .call(worker)
            .op(Opcode::I32Add)
            .local_set(2)
            .br(0)
            .end()
            .end()
            .local_get(2);
        b.add_func(
            FuncType::new(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32]),
            vec![ValueType::I32],
            c.finish(),
        )
    };
    b.export_func("driver", driver);
    b.finish()
}

/// An exported `spin` that loops forever, next to a well-behaved `ok`, so a
/// preempted instance can prove it is still usable afterwards.
fn infinite_loop_module() -> Module {
    let mut b = ModuleBuilder::new();
    let spin = {
        let mut c = CodeBuilder::new();
        c.loop_(BlockType::Empty).br(0).end();
        b.add_func(FuncType::new(vec![], vec![]), vec![], c.finish())
    };
    let ok = {
        let mut c = CodeBuilder::new();
        c.i32_const(7);
        b.add_func(
            FuncType::new(vec![], vec![ValueType::I32]),
            vec![],
            c.finish(),
        )
    };
    b.export_func("spin", spin);
    b.export_func("ok", ok);
    b.finish()
}

/// A module with an unbounded declared memory and a `grow` export.
fn grow_module() -> Module {
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(1));
    let grow = {
        let mut c = CodeBuilder::new();
        c.local_get(0).memory_grow();
        b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![],
            c.finish(),
        )
    };
    b.export_func("grow", grow);
    b.finish()
}

/// Fuel consumption is identical in every configuration even when the run
/// tiers up mid-execution: the tiered configurations promote the worker from
/// interpreter to baseline to optimizing code *during* the driver call, and
/// still consume exactly what the interpreter-only configuration consumes.
#[test]
fn fuel_is_deterministic_under_mid_execution_tier_up() {
    let module = tier_up_module();
    let args = [WasmValue::I32(10), WasmValue::I32(25)];

    // Ample budget: every config agrees on (result, consumed).
    let (reference, reference_fuel) = common::run_export_fueled(
        EngineConfig::interpreter("int-ref"),
        &module,
        "driver",
        &args,
        1_000_000,
    );
    assert_eq!(reference, Ok(vec![WasmValue::I32(250)]));
    assert!(reference_fuel > 0);
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let (result, fuel) =
            common::run_export_fueled(config, &module, "driver", &args, 1_000_000);
        assert_eq!(result, reference, "[{name}] result diverges");
        assert_eq!(fuel, reference_fuel, "[{name}] fuel diverges");
    }

    // Starve the run mid-way: every config traps OutOfFuel having consumed
    // exactly the budget — the same trap at the same point, even though the
    // tiered configs cross tier boundaries while burning it.
    let starved = reference_fuel / 2;
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let (result, fuel) =
            common::run_export_fueled(config, &module, "driver", &args, starved);
        assert_eq!(result, Err(TrapCode::OutOfFuel), "[{name}]");
        assert_eq!(fuel, starved, "[{name}] exhaustion must consume the whole budget");
    }

    // One unit short of the true cost also traps; the exact cost succeeds.
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let (result, _) =
            common::run_export_fueled(config.clone(), &module, "driver", &args, reference_fuel - 1);
        assert_eq!(result, Err(TrapCode::OutOfFuel), "[{name}]");
        let (result, fuel) =
            common::run_export_fueled(config, &module, "driver", &args, reference_fuel);
        assert_eq!(result, reference, "[{name}]");
        assert_eq!(fuel, reference_fuel, "[{name}]");
    }
}

/// A supervisor thread bumping the engine epoch preempts an infinite loop —
/// in the interpreter and in baseline-compiled code — and the instance
/// remains usable afterwards. The baseline run covers both macro-assembler
/// backends: they execute the same code
/// (`tests/masm_backends.rs::the_backend_changes_no_executed_instruction`).
#[test]
fn epoch_preemption_stops_an_infinite_loop_on_both_backends() {
    let module = infinite_loop_module();
    for config in [
        EngineConfig::interpreter("int").with_metering(),
        EngineConfig::baseline("spc", spc::CompilerOptions::allopt()).with_metering(),
    ] {
        let name = config.name.clone();
        let engine = Engine::new(config);
        let mut instance = engine
            .instantiate(&module, Imports::new(), Instrumentation::none())
            .expect("instantiates");
        instance.set_epoch_deadline(engine.epoch().load(Ordering::Relaxed) + 1);

        let epoch = Arc::clone(engine.epoch());
        let supervisor = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            epoch.fetch_add(1, Ordering::Relaxed);
        });
        let code = engine
            .call_export(&mut instance, "spin", &[])
            .expect_err("the loop must be preempted");
        supervisor.join().expect("supervisor thread");
        assert_eq!(code, TrapCode::Interrupted, "[{name}]");

        // The tenant is interrupted, not poisoned: clearing the deadline
        // makes the instance callable again.
        instance.clear_epoch_deadline();
        let out = engine
            .call_export(&mut instance, "ok", &[])
            .expect("runs after preemption");
        assert_eq!(out, vec![WasmValue::I32(7)], "[{name}]");
    }
}

/// The epoch is also observed at call boundaries, so deeply recursive code
/// that never loops is preemptible too.
#[test]
fn epoch_preemption_binds_at_call_boundaries() {
    let module = common::fib_module();
    let engine = Engine::new(EngineConfig::default());
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("instantiates");
    // Deadline already reached: the very first nested call traps. fib(20)
    // unmetered would make tens of thousands of calls.
    instance.set_epoch_deadline(0);
    engine.increment_epoch();
    let code = engine
        .call_export(&mut instance, "fib", &[WasmValue::I32(20)])
        .expect_err("preempted at a call boundary");
    assert_eq!(code, TrapCode::Interrupted);
}

/// Tenant memory ceilings bind at `memory.grow` in every configuration, even
/// when the module declares an unbounded memory.
#[test]
fn memory_grow_respects_tenant_limits_in_every_config() {
    let module = grow_module();
    let limits = ResourceLimits {
        memory_pages: Some(3),
        table_elements: None,
        call_depth: None,
    };
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let engine = Engine::new(config.with_limits(limits));
        let mut instance = engine
            .instantiate(&module, Imports::new(), Instrumentation::none())
            .expect("instantiates");
        let mut grow = |delta: i32| {
            engine
                .call_export(&mut instance, "grow", &[WasmValue::I32(delta)])
                .expect("grow never traps")[0]
        };
        assert_eq!(grow(1), WasmValue::I32(1), "[{name}] 1 -> 2 pages");
        assert_eq!(grow(1), WasmValue::I32(2), "[{name}] 2 -> 3 pages");
        assert_eq!(grow(1), WasmValue::I32(-1), "[{name}] ceiling reached");
        assert_eq!(grow(0), WasmValue::I32(3), "[{name}] size unchanged");
    }
}

/// A declared memory minimum above the tenant ceiling is refused at
/// instantiation, before any code runs.
#[test]
fn oversized_declared_minimum_fails_instantiation() {
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(8));
    let module = b.finish();
    let engine = Engine::new(EngineConfig::default().with_limits(ResourceLimits {
        memory_pages: Some(2),
        table_elements: None,
        call_depth: None,
    }));
    let err = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect_err("minimum above the ceiling");
    assert!(err.to_string().contains("tenant limit"), "{err}");
}

/// Arming no fuel keeps execution unmetered even under a metering
/// configuration, and re-arming restores the full budget.
#[test]
fn fuel_is_opt_in_and_rearmable() {
    let module = tier_up_module();
    let engine = Engine::new(EngineConfig::default().with_metering());
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("instantiates");
    let args = [WasmValue::I32(2), WasmValue::I32(5)];
    // Unarmed: runs to completion, nothing recorded.
    assert!(engine.call_export(&mut instance, "driver", &args).is_ok());
    assert_eq!(instance.fuel_remaining(), None);
    assert_eq!(instance.fuel_consumed(), None);
    // Armed: consumption is recorded; re-arming resets the budget.
    instance.set_fuel(10_000);
    assert!(engine.call_export(&mut instance, "driver", &args).is_ok());
    let consumed = instance.fuel_consumed().expect("armed");
    assert!(consumed > 0 && consumed < 10_000);
    instance.set_fuel(10_000);
    assert_eq!(instance.fuel_consumed(), Some(0));
}
