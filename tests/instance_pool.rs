//! Pool differential: a recycled instance is indistinguishable from a cold
//! one.
//!
//! `InstancePool::checkout`'s warm path runs the same instance initializer
//! `Engine::instantiate` ends with — memory, globals and tables built fresh,
//! execution state cleared, the start function run — so it must produce
//! *exactly* the state a cold instantiation would: results bit-identical,
//! trap reasons identical, across the full conformance matrix.
//! The nastiest case is deliberate: a request that runs out of fuel halfway
//! through a loop of memory writes checks a dirty, trapped instance back in,
//! and the next occupant must still observe pristine state. A start function
//! that reads a host import, and a tenant memory ceiling a request grew up
//! to, must come out of a warm checkout as they do out of a cold one.

mod common;

use engine::{
    Engine, EngineConfig, Imports, Instance, InstancePool, Instrumentation, ResourceLimits,
};
use machine::inst::TrapCode;
use machine::values::WasmValue;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::module::ConstExpr;
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, GlobalType, Limits, ValueType};
use wasm::Module;

/// A module whose observable behavior depends on every kind of instance
/// state a warm checkout must reinitialize:
///
/// * `main: [] -> [i32]` folds the first 32 bytes of memory into a checksum
///   while *overwriting* them, mixes in a mutable global (also updated), and
///   routes the final add through `call_indirect` — so a second call on the
///   same instance returns a different number, and any state the checkout
///   missed shifts the checksum;
/// * `burn: [] -> []` scribbles an increasing counter into memory forever —
///   under a fuel budget it traps `OutOfFuel` mid-write, leaving the
///   instance maximally dirty;
/// * `boom: [] -> []` clobbers memory and hits `unreachable`, for the
///   trap-reason comparison.
fn stateful_module() -> Module {
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::bounded(1, 2));
    b.add_data(0, ConstExpr::I32(0), (1u8..=32).collect());
    b.add_global(GlobalType::mutable(ValueType::I32), ConstExpr::I32(7));
    b.add_table(ValueType::FuncRef, Limits::bounded(1, 1));
    let add_ty = b.add_type(FuncType::new(
        vec![ValueType::I32, ValueType::I32],
        vec![ValueType::I32],
    ));
    let add = {
        let mut c = CodeBuilder::new();
        c.local_get(0).local_get(1).op(Opcode::I32Add);
        b.add_func(
            FuncType::new(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32]),
            vec![],
            c.finish(),
        )
    };
    b.add_elem(0, ConstExpr::I32(0), vec![add]);
    let main = {
        // locals: 0 = i, 1 = sum
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .loop_(BlockType::Empty)
            .local_get(0)
            .i32_const(32)
            .op(Opcode::I32GeS)
            .br_if(1)
            // sum += mem[i]
            .local_get(1)
            .local_get(0)
            .mem(Opcode::I32Load, 2, 0)
            .op(Opcode::I32Add)
            .local_set(1)
            // mem[i] = sum (dirties what the next call reads)
            .local_get(0)
            .local_get(1)
            .mem(Opcode::I32Store, 2, 0)
            .local_get(0)
            .i32_const(4)
            .op(Opcode::I32Add)
            .local_set(0)
            .br(0)
            .end()
            .end()
            // sum += g0; g0 = sum
            .local_get(1)
            .global_get(0)
            .op(Opcode::I32Add)
            .local_set(1)
            .local_get(1)
            .global_set(0)
            // return add(sum, 3) through the table
            .local_get(1)
            .i32_const(3)
            .i32_const(0)
            .call_indirect(add_ty, 0);
        b.add_func(
            FuncType::new(vec![], vec![ValueType::I32]),
            vec![ValueType::I32, ValueType::I32],
            c.finish(),
        )
    };
    let burn = {
        let mut c = CodeBuilder::new();
        c.loop_(BlockType::Empty)
            .i32_const(0)
            .local_get(0)
            .mem(Opcode::I32Store, 2, 0)
            .local_get(0)
            .i32_const(1)
            .op(Opcode::I32Add)
            .local_set(0)
            .br(0)
            .end();
        b.add_func(
            FuncType::new(vec![], vec![]),
            vec![ValueType::I32],
            c.finish(),
        )
    };
    let boom = {
        let mut c = CodeBuilder::new();
        c.i32_const(0)
            .i32_const(-1)
            .mem(Opcode::I32Store, 2, 0)
            .unreachable();
        b.add_func(FuncType::new(vec![], vec![]), vec![], c.finish())
    };
    b.export_func("main", main);
    b.export_func("burn", burn);
    b.export_func("boom", boom);
    b.finish()
}

/// The differential itself, per configuration: cold results and trap
/// reasons versus a pooled instance recycled through progressively dirtier
/// checkins, including mid-loop `OutOfFuel` and epoch-deadline
/// `Interrupted` traps.
#[test]
fn pooled_reset_matches_cold_instantiation_in_every_config() {
    let module = stateful_module();
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let config = config.with_metering();

        // Cold references, from throwaway instances.
        let cold_first = common::run_export(config.clone(), &module, "main", &[])
            .unwrap_or_else(|e| panic!("[{name}] cold main trapped: {e}"));
        let cold_engine = Engine::new(config.clone());
        let mut cold = cold_engine
            .instantiate(&module, Imports::new(), Instrumentation::none())
            .expect("cold instantiation");
        let first = cold_engine.call_export(&mut cold, "main", &[]).unwrap();
        let second = cold_engine.call_export(&mut cold, "main", &[]).unwrap();
        assert_eq!(first, cold_first, "[{name}] cold runs are deterministic");
        assert_ne!(
            first, second,
            "[{name}] the workload must be stateful or this test proves nothing"
        );
        let cold_boom = cold_engine
            .call_export(&mut cold, "boom", &[])
            .expect_err("boom traps");

        let pool = InstancePool::new(Engine::new(config), module.clone(), 4)
            .unwrap_or_else(|e| panic!("[{name}] pool: {e}"));

        // Round 1: recycled construction instance equals cold.
        {
            let mut inst = pool.checkout().unwrap();
            assert!(inst.was_warm(), "[{name}]");
            let got = pool.engine().call_export(&mut inst, "main", &[]).unwrap();
            assert_eq!(got, cold_first, "[{name}] warm result diverges from cold");
            // Dirty it further before checkin.
            pool.engine().call_export(&mut inst, "main", &[]).unwrap();
        }

        // Round 2: previous occupant ran twice; reset still restores.
        {
            let mut inst = pool.checkout().unwrap();
            assert!(inst.was_warm(), "[{name}]");
            let got = pool.engine().call_export(&mut inst, "main", &[]).unwrap();
            assert_eq!(got, cold_first, "[{name}] reset missed dirty state");
            // Check in mid-trap: boom clobbers memory then hits
            // unreachable, and the trap reason must match the cold one.
            let trap = pool
                .engine()
                .call_export(&mut inst, "boom", &[])
                .expect_err("boom traps");
            assert_eq!(trap, cold_boom, "[{name}] trap codes diverge");
            assert_eq!(trap, TrapCode::Unreachable, "[{name}]");
        }

        // Round 3: a fuel-starved burn leaves memory mid-scribble.
        {
            let mut inst = pool.checkout().unwrap();
            assert!(inst.was_warm(), "[{name}]");
            inst.set_fuel(500);
            let trap = pool
                .engine()
                .call_export(&mut inst, "burn", &[])
                .expect_err("burn must exhaust its budget");
            assert_eq!(trap, TrapCode::OutOfFuel, "[{name}]");
            assert_eq!(inst.fuel_remaining(), Some(0), "[{name}]");
            // The scribble really happened: mem[0] is no longer 0x04030201.
            assert_ne!(
                inst.memory().expect("has memory").load(0, 0, 4).unwrap(),
                0x0403_0201,
                "[{name}] burn must dirty memory before trapping"
            );
        }

        // Round 4: after the dirty trapped checkin, still bit-identical to
        // cold — and the fuel arming did not leak into the next occupant.
        {
            let mut inst = pool.checkout().unwrap();
            assert!(inst.was_warm(), "[{name}]");
            assert_eq!(inst.fuel_remaining(), None, "[{name}] fuel arming leaked");
            let got = pool.engine().call_export(&mut inst, "main", &[]).unwrap();
            assert_eq!(
                got, cold_first,
                "[{name}] reset after OutOfFuel diverges from cold"
            );
        }

        // Round 5: an epoch-deadline interrupt also leaves memory
        // mid-scribble — the same dirty-checkin shape as OutOfFuel, but the
        // trap arrives from the shared epoch, not the instance's budget.
        {
            let mut inst = pool.checkout().unwrap();
            assert!(inst.was_warm(), "[{name}]");
            inst.set_epoch_deadline(pool.engine().epoch().load(Ordering::Relaxed) + 1);
            let epoch = Arc::clone(pool.engine().epoch());
            let supervisor = std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                epoch.fetch_add(1, Ordering::Relaxed);
            });
            let trap = pool
                .engine()
                .call_export(&mut inst, "burn", &[])
                .expect_err("burn must be preempted");
            supervisor.join().expect("supervisor thread");
            assert_eq!(trap, TrapCode::Interrupted, "[{name}]");
            assert_ne!(
                inst.memory().expect("has memory").load(0, 0, 4).unwrap(),
                0x0403_0201,
                "[{name}] burn must dirty memory before the interrupt"
            );
        }

        // Round 6: the interrupted, dirty checkin resets bit-identically,
        // and the deadline arming did not leak — the epoch is still past
        // the old deadline, so a leak would re-trap `main` immediately.
        {
            let mut inst = pool.checkout().unwrap();
            assert!(inst.was_warm(), "[{name}]");
            let got = pool
                .engine()
                .call_export(&mut inst, "main", &[])
                .unwrap_or_else(|e| {
                    panic!("[{name}] deadline arming leaked into the next occupant: {e}")
                });
            assert_eq!(
                got, cold_first,
                "[{name}] reset after Interrupted diverges from cold"
            );
        }

        let stats = pool.stats();
        assert_eq!(stats.warm_checkouts, 6, "[{name}]");
        assert_eq!(stats.cold_checkouts, 0, "[{name}]");
    }
}

/// The checkout results themselves agree across the whole matrix: every
/// configuration's pooled instance computes the same checksum.
#[test]
fn pooled_checksums_agree_across_the_matrix() {
    let module = stateful_module();
    let mut reference: Option<Vec<WasmValue>> = None;
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let pool = InstancePool::new(Engine::new(config), module.clone(), 2)
            .unwrap_or_else(|e| panic!("[{name}] pool: {e}"));
        for _ in 0..3 {
            let mut inst = pool.checkout().unwrap();
            let got = pool.engine().call_export(&mut inst, "main", &[]).unwrap();
            match &reference {
                Some(r) => assert_eq!(&got, r, "[{name}] diverges from the matrix"),
                None => reference = Some(got),
            }
        }
    }
}

/// `max_idle == 0` is honoured: the construction-time instance only surfaces
/// errors, nothing is ever parked, so checkout → drop → checkout is cold
/// both times (with `stats` agreeing) and still bit-identical to a cold
/// instantiate.
#[test]
fn a_pool_that_parks_nothing_serves_every_checkout_cold() {
    let module = stateful_module();
    let config = engine::EngineConfig::default();
    let cold_first = common::run_export(config.clone(), &module, "main", &[]).unwrap();

    let pool = InstancePool::new(Engine::new(config), module, 0).expect("pool builds");
    assert_eq!(pool.stats().idle, 0, "the first instance is not parked");
    for round in 0..2 {
        let mut inst = pool.checkout().unwrap();
        assert!(!inst.was_warm(), "round {round}");
        let got = pool.engine().call_export(&mut inst, "main", &[]).unwrap();
        assert_eq!(got, cold_first, "round {round}: diverges from a cold instantiate");
        drop(inst);
        assert_eq!(pool.stats().idle, 0, "round {round}: the checkin is dropped");
    }
    let stats = pool.stats();
    assert_eq!((stats.warm_checkouts, stats.cold_checkouts), (0, 2));
}

/// Asserts that `warm` holds exactly `cold`'s state, field by field: memory
/// size and bytes, every global, every table's size and entries.
fn assert_same_state(warm: &Instance, cold: &Instance) {
    let module = cold.module();
    match (warm.memory(), cold.memory()) {
        (Some(w), Some(c)) => {
            assert_eq!(w.size_pages(), c.size_pages(), "memory size");
            assert!(w.bytes() == c.bytes(), "memory bytes differ");
        }
        (w, c) => assert_eq!(w.is_some(), c.is_some(), "memory presence"),
    }
    for g in 0..module.num_globals() {
        assert_eq!(warm.global_value(g), cold.global_value(g), "global {g}");
    }
    assert_eq!(warm.global_value(module.num_globals()), None, "extra global");
    for t in 0..module.num_tables() {
        let (w, c) = (warm.table(t).expect("warm table"), cold.table(t).expect("cold table"));
        // Every entry, and the first index past the end: equal sizes.
        for e in 0.. {
            assert_eq!(w.get(e), c.get(e), "table {t} entry {e}");
            if c.get(e).is_err() {
                break;
            }
        }
    }
    assert!(warm.table(module.num_tables()).is_none(), "extra table");
}

/// A warm checkout of an instance a request dirtied is, field by field, a
/// fresh cold instance.
#[test]
fn a_dirty_warm_checkout_equals_a_fresh_cold_instance() {
    let module = stateful_module();
    let engine = Engine::new(EngineConfig::default());
    let cold = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("instantiates");
    let pool = InstancePool::new(engine, module, 1).expect("pool builds");
    {
        let mut inst = pool.checkout().unwrap();
        pool.engine().call_export(&mut inst, "main", &[]).unwrap();
        assert_ne!(
            inst.memory().unwrap().bytes(),
            cold.memory().unwrap().bytes(),
            "main dirties memory"
        );
        assert_ne!(inst.global_value(0), cold.global_value(0), "main dirties the global");
    }
    let inst = pool.checkout().unwrap();
    assert!(inst.was_warm());
    assert_same_state(&inst, &cold);
    assert!(inst.metrics.cache_hit, "a warm checkout counts as a warm path");
}

/// A module whose start function stores the imported `env.next()` in its
/// one global.
fn seeded_module() -> Module {
    let mut b = ModuleBuilder::new();
    let next = b.import_func("env", "next", FuncType::new(vec![], vec![ValueType::I32]));
    b.add_global(GlobalType::mutable(ValueType::I32), ConstExpr::I32(-1));
    let mut c = CodeBuilder::new();
    c.call(next).global_set(0);
    let start = b.add_func(FuncType::new(vec![], vec![]), vec![], c.finish());
    b.set_start(start);
    b.finish()
}

/// A warm checkout runs the start function again, as a cold instantiation
/// does: a start that reads a host import (a seed, a clock, a counter) sees
/// a fresh value on every checkout, not the first request's forever.
#[test]
fn a_warm_checkout_reruns_the_start_function() {
    let module = seeded_module();
    let counter = Arc::new(AtomicU32::new(0));
    let imports = move || {
        let counter = Arc::clone(&counter);
        Imports::new().func("env", "next", move |_, _| {
            Ok(vec![WasmValue::I32(counter.fetch_add(1, Ordering::Relaxed) as i32)])
        })
    };
    let engine = Engine::new(EngineConfig::default());
    for expected in 0..3 {
        let cold = engine
            .instantiate(&module, imports(), Instrumentation::none())
            .expect("instantiates");
        assert_eq!(cold.global_value(0), Some(WasmValue::I32(expected)), "cold {expected}");
    }
    // Construction instantiates once more: its start reads 3.
    let pool =
        InstancePool::with_imports(engine, module, Box::new(imports), 1).expect("pool builds");
    for expected in 4..7 {
        let inst = pool.checkout().unwrap();
        assert!(inst.was_warm());
        assert_eq!(inst.global_value(0), Some(WasmValue::I32(expected)), "warm {expected}");
    }
}

/// A module with an unbounded memory whose first bytes a data segment sets:
/// `grow: [i32] -> [i32]` is `memory.grow`, and `dirty: [] -> []` writes the
/// first word of pages 0 and 1.
fn growable_module() -> Module {
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(1));
    b.add_data(0, ConstExpr::I32(0), vec![1, 2, 3, 4]);
    let mut c = CodeBuilder::new();
    c.local_get(0).memory_grow();
    let grow = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![],
        c.finish(),
    );
    let mut c = CodeBuilder::new();
    c.i32_const(0)
        .i32_const(-1)
        .mem(Opcode::I32Store, 2, 0)
        .i32_const(65_536)
        .i32_const(-1)
        .mem(Opcode::I32Store, 2, 0);
    let dirty = b.add_func(FuncType::new(vec![], vec![]), vec![], c.finish());
    b.export_func("grow", grow);
    b.export_func("dirty", dirty);
    b.finish()
}

/// A tenant memory ceiling survives a warm checkout: a request that grew the
/// memory to the ceiling and dirtied it leaves the next occupant at the
/// declared minimum with pristine bytes, still unable to grow past the
/// ceiling.
#[test]
fn a_warm_checkout_keeps_the_tenant_memory_ceiling() {
    let module = growable_module();
    let limits = ResourceLimits {
        memory_pages: Some(2),
        ..ResourceLimits::unlimited()
    };
    let engine = Engine::new(EngineConfig::default().with_limits(limits));
    let cold = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("instantiates");
    let pool = InstancePool::new(engine, module, 1).expect("pool builds");
    let grow = |inst: &mut Instance, delta: i32| {
        pool.engine()
            .call_export(inst, "grow", &[WasmValue::I32(delta)])
            .expect("grow never traps")[0]
    };
    {
        let mut inst = pool.checkout().unwrap();
        assert_eq!(grow(&mut inst, 1), WasmValue::I32(1), "1 -> 2 pages");
        pool.engine().call_export(&mut inst, "dirty", &[]).unwrap();
        assert_eq!(grow(&mut inst, 1), WasmValue::I32(-1), "ceiling reached");
    }
    let mut inst = pool.checkout().unwrap();
    assert!(inst.was_warm());
    assert_same_state(&inst, &cold);
    assert_eq!(inst.memory().unwrap().size_pages(), 1, "back at the declared minimum");
    assert_eq!(grow(&mut inst, 2), WasmValue::I32(-1), "still capped at 2 pages");
    assert_eq!(grow(&mut inst, 1), WasmValue::I32(1), "1 -> 2 pages");
    assert_eq!(grow(&mut inst, 1), WasmValue::I32(-1), "ceiling reached again");
}
