//! On-stack replacement: a hot loop inside a *single* activation must be
//! transferred mid-loop into optimizing-tier code, and the transfer must be
//! semantically invisible — results, traps, and fuel accounting are
//! bit-identical to a run that never transitions.
//!
//! Call-count tier-up can never help a module whose entire runtime is one
//! long-running call; these tests pin the fix: the back-edge hotness counter
//! piggybacking on the fused meter-check sites fires, the optimizing
//! artifact is compiled, and the running frame jumps into the published code
//! at the loop's OSR entry.

mod common;

use common::{run_export, run_export_fueled};
use conform::runner::all_configs;
use engine::{CompileTier, Engine, EngineConfig, Imports, Instrumentation};
use machine::values::WasmValue;
use spc::CompilerOptions;
use telemetry::{EventKind, Telemetry};
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, ValueType};
use wasm::Module;

/// `hot(n)`: an LCG checksum loop — `n` iterations of multiply/add state
/// updates with live values across the back edge, returning the checksum.
fn hot_loop_module() -> Module {
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.block(BlockType::Empty)
        .loop_(BlockType::Empty)
        .local_get(0)
        .op(Opcode::I32Eqz)
        .br_if(1)
        .local_get(1)
        .i32_const(1103515245)
        .op(Opcode::I32Mul)
        .i32_const(12345)
        .op(Opcode::I32Add)
        .local_get(0)
        .op(Opcode::I32Xor)
        .local_set(1)
        .local_get(0)
        .i32_const(1)
        .op(Opcode::I32Sub)
        .local_set(0)
        .br(0)
        .end()
        .end()
        .local_get(1);
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32],
        c.finish(),
    );
    b.export_func("hot", f);
    b.finish()
}

/// `work(n)`: loops `n` times accumulating, then divides by local 2 — zero —
/// so the loop always ends in an `integer divide by zero` trap. The trap
/// happens *after* OSR has transferred the frame, proving trap identity
/// survives the transition.
fn trapping_loop_module() -> Module {
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.block(BlockType::Empty)
        .loop_(BlockType::Empty)
        .local_get(0)
        .op(Opcode::I32Eqz)
        .br_if(1)
        .local_get(1)
        .local_get(0)
        .op(Opcode::I32Add)
        .local_set(1)
        .local_get(0)
        .i32_const(1)
        .op(Opcode::I32Sub)
        .local_set(0)
        .br(0)
        .end()
        .end()
        .local_get(1)
        .local_get(2)
        .op(Opcode::I32DivS);
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32, ValueType::I32],
        c.finish(),
    );
    b.export_func("work", f);
    b.finish()
}

/// The reference checksum, from a plain interpreter run.
fn reference_checksum(module: &Module, n: i32) -> Vec<WasmValue> {
    run_export(
        EngineConfig::interpreter("osr-ref"),
        module,
        "hot",
        &[WasmValue::I32(n)],
    )
    .expect("reference run completes")
}

/// Calls `hot(200_000)` once under `config` with OSR at the first back edge:
/// the one activation must return the interpreter's checksum, and must have
/// reached the optimizing tier (compiled and executed) within that call.
fn assert_one_call_osrs_into_optimized_code(config: EngineConfig) {
    let module = hot_loop_module();
    let expected = reference_checksum(&module, 200_000);
    let engine = Engine::new(config.with_osr(0));
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("module instantiates");
    let results = engine
        .call_export(&mut instance, "hot", &[WasmValue::I32(200_000)])
        .expect("hot loop completes");
    assert_eq!(results, expected, "OSR changed the checksum");
    assert_eq!(
        instance.artifact().opt_compiled_count(),
        1,
        "the hot loop was not opt-compiled within one call"
    );
    assert!(instance.artifact().artifact_for(0, CompileTier::Opt).is_some());
    assert!(
        instance.metrics.opt_exec_cycles > 0,
        "the activation never executed optimizing-tier code"
    );
}

/// A single long-running call under a tiered config whose *call* threshold
/// is unreachable must still reach the optimizing tier: the back-edge
/// counter fires, the opt artifact is compiled, and the live interpreter
/// frame is replaced mid-loop.
#[test]
fn osr_promotes_a_single_hot_call_from_the_interpreter() {
    let config = EngineConfig::tiered("osr-int", u32::MAX, CompilerOptions::allopt());
    assert_one_call_osrs_into_optimized_code(config);
}

/// OSR also replaces *baseline* frames: under an eager baseline-only config
/// with OSR enabled, the loop starts in single-pass code and ends in the
/// optimizing tier, mid-activation (reached by OSR, not by call-count
/// promotion).
#[test]
fn osr_promotes_a_hot_call_out_of_baseline_code() {
    let config = EngineConfig::baseline("osr-base", CompilerOptions::allopt());
    assert_one_call_osrs_into_optimized_code(config);
}

/// With the threshold set far above the iteration count, the counter never
/// fires: no opt compilation, same checksum.
#[test]
fn a_cold_loop_stays_below_the_osr_threshold() {
    let module = hot_loop_module();
    let expected = reference_checksum(&module, 50);
    let config = EngineConfig::tiered("osr-cold", u32::MAX, CompilerOptions::allopt())
        .with_osr(1_000_000);
    let engine = Engine::new(config);
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("module instantiates");
    let results = engine
        .call_export(&mut instance, "hot", &[WasmValue::I32(50)])
        .expect("loop completes");
    assert_eq!(results, expected);
    assert_eq!(instance.artifact().opt_compiled_count(), 0);
    assert_eq!(instance.metrics.opt_exec_cycles, 0);
}

/// OSR forced at every back edge (threshold 0) must be bit-identical to
/// never-OSR under *every* execution configuration: same results for the
/// checksum kernel, same `TrapReason` for the trapping kernel.
#[test]
fn forced_osr_is_bit_identical_across_the_config_matrix() {
    let hot = hot_loop_module();
    let trapping = trapping_loop_module();
    for config in all_configs() {
        let name = config.name.clone();
        let base_hot = run_export(config.clone(), &hot, "hot", &[WasmValue::I32(10_000)]);
        let osr_hot = run_export(
            config.clone().with_osr(0),
            &hot,
            "hot",
            &[WasmValue::I32(10_000)],
        );
        assert_eq!(base_hot, osr_hot, "[{name}] checksum diverged under forced OSR");

        let base_trap = run_export(config.clone(), &trapping, "work", &[WasmValue::I32(10_000)]);
        let osr_trap = run_export(
            config.clone().with_osr(0),
            &trapping,
            "work",
            &[WasmValue::I32(10_000)],
        );
        assert!(base_trap.is_err(), "[{name}] kernel must trap");
        assert_eq!(base_trap, osr_trap, "[{name}] trap diverged under forced OSR");
    }
}

/// Deterministic metering survives OSR: the fuel consumed by a metered run
/// is identical whether or not the activation transitions tiers mid-loop,
/// and out-of-fuel fires at the same point.
#[test]
fn fuel_accounting_is_identical_with_and_without_osr() {
    let module = hot_loop_module();
    for config in all_configs() {
        let name = config.name.clone();
        // Plenty of fuel: both runs complete; consumption must match.
        let (base, base_fuel) = run_export_fueled(
            config.clone(),
            &module,
            "hot",
            &[WasmValue::I32(20_000)],
            u64::MAX / 2,
        );
        let (osr, osr_fuel) = run_export_fueled(
            config.clone().with_osr(0),
            &module,
            "hot",
            &[WasmValue::I32(20_000)],
            u64::MAX / 2,
        );
        assert_eq!(base, osr, "[{name}] results diverged under metering");
        assert_eq!(base_fuel, osr_fuel, "[{name}] fuel consumption diverged");

        // Starve the loop mid-way: the exhaustion trap must be identical.
        let (base, base_fuel) = run_export_fueled(
            config.clone(),
            &module,
            "hot",
            &[WasmValue::I32(20_000)],
            base_fuel / 2,
        );
        let (osr, osr_fuel) = run_export_fueled(
            config.clone().with_osr(0),
            &module,
            "hot",
            &[WasmValue::I32(20_000)],
            osr_fuel / 2,
        );
        assert_eq!(base, osr, "[{name}] out-of-fuel diverged");
        assert_eq!(base_fuel, osr_fuel, "[{name}] exhaustion fuel diverged");
    }
}

/// OSR transitions are observable: the trace ring records an `OsrEnter`
/// event and the metrics registry counts it.
#[test]
fn osr_transitions_are_visible_in_telemetry() {
    let module = hot_loop_module();
    let config = EngineConfig::tiered("osr-tel", u32::MAX, CompilerOptions::allopt()).with_osr(0);
    let engine = Engine::new(config).with_telemetry(Telemetry::enabled());
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("module instantiates");
    engine
        .call_export(&mut instance, "hot", &[WasmValue::I32(100_000)])
        .expect("hot loop completes");
    let rings = engine.telemetry().drain();
    let osr_events: Vec<_> = rings
        .iter()
        .flat_map(|(_, events, _)| events)
        .filter(|e| matches!(e.kind, EventKind::OsrEnter { .. }))
        .collect();
    assert!(!osr_events.is_empty(), "no OsrEnter event was recorded");
    let snapshot = engine
        .telemetry()
        .metrics()
        .expect("telemetry enabled")
        .snapshot();
    let entries = snapshot
        .counters
        .iter()
        .find(|(name, _)| name.as_str() == "engine.osr_entries")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert_eq!(entries as usize, osr_events.len());
}
