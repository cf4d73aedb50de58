//! Pool-reset differential: a recycled instance is indistinguishable from a
//! cold one.
//!
//! The snapshot-instantiation contract is that `InstancePool::checkout`'s
//! warm path (memcpy-reset to the captured image) produces *exactly* the
//! state a cold instantiation would — results bit-identical, trap reasons
//! identical — across the full tier×backend conformance matrix. The nastiest
//! case is deliberate: a request that runs out of fuel halfway through a
//! loop of memory writes checks a dirty, trapped instance back in, and the
//! next occupant must still observe pristine state.

mod common;

use engine::{Engine, Imports, InstancePool, Instrumentation};
use machine::inst::TrapCode;
use machine::values::WasmValue;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::module::ConstExpr;
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, GlobalType, Limits, ValueType};
use wasm::Module;

/// A module whose observable behavior depends on every kind of instance
/// state a reset must restore:
///
/// * `main: [] -> [i32]` folds the first 32 bytes of memory into a checksum
///   while *overwriting* them, mixes in a mutable global (also updated), and
///   routes the final add through `call_indirect` — so a second call on the
///   same instance returns a different number, and any state the reset
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
    for config in common::all_tier_backend_configs() {
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
            let dirty = inst.capture_image();
            assert_ne!(
                dirty.memory().expect("has memory").load(0, 0, 4).unwrap(),
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
            let dirty = inst.capture_image();
            assert_ne!(
                dirty.memory().expect("has memory").load(0, 0, 4).unwrap(),
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
    for config in common::all_tier_backend_configs() {
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

/// `max_idle == 0` is honoured: the construction-time instance only provides
/// the image, nothing is ever parked, so checkout → drop → checkout is cold
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

/// The snapshot image itself is faithful: capture → restore round-trips the
/// exact bytes, and `MemoryImage::build` (used by both instantiation and
/// pooling) equals what instantiation produced.
#[test]
fn capture_image_round_trips_through_reset() {
    let module = stateful_module();
    let engine = Engine::new(engine::EngineConfig::default());
    let mut inst = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("instantiates");
    let pristine = inst.capture_image();
    engine.call_export(&mut inst, "main", &[]).unwrap();
    let dirty = inst.capture_image();
    assert_ne!(
        pristine.memory().unwrap().bytes(),
        dirty.memory().unwrap().bytes(),
        "main dirties memory"
    );
    inst.reset_from_image(&pristine, 0);
    let restored = inst.capture_image();
    assert_eq!(
        pristine.memory().unwrap().bytes(),
        restored.memory().unwrap().bytes()
    );
    assert_eq!(pristine.globals().len(), restored.globals().len());
    for (a, b) in pristine.globals().iter().zip(restored.globals()) {
        assert_eq!(a.value(), b.value());
    }
    assert!(inst.metrics.cache_hit, "a reset counts as a warm path");
}
