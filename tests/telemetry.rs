//! End-to-end tests for the telemetry layer: concurrent cache-counter
//! accuracy, sampling-profiler attribution in every executing tier, trace
//! coverage of the serving request lifecycle, one event per trap, and the
//! zero-cost contract of a disabled handle.

mod common;
#[path = "common/json.rs"]
mod json;

use common::fib_module;
use conform::runner::all_configs;
use engine::{
    CodeCache, Engine, EngineConfig, EngineError, Imports, Instrumentation, ResourceLimits,
    Telemetry, TrapInfo,
};
use machine::values::WasmValue;
use machine::TrapCode;
use serve::deadline::EpochTicker;
use serve::{Request, RequestStatus, Server, ServerConfig};
use spc::CompilerOptions;
use std::sync::Arc;
use std::time::Duration;
use telemetry::{EventKind, Tier};
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, ValueType};
use wasm::Module;

/// A module whose exported `main` returns `seed` — distinct seeds produce
/// distinct module bodies, hence distinct cache keys.
fn const_module(seed: i32) -> Module {
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.i32_const(seed);
    let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
    b.export_func("main", f);
    b.finish()
}

/// `hot(n)` spins an LCG countdown loop; `main` calls a cold helper once and
/// then `hot`. Function indices are (cold, hot, main) = (0, 1, 2).
fn hot_loop_module(iters: i32) -> Module {
    let mut b = ModuleBuilder::new();
    let cold = {
        let mut c = CodeBuilder::new();
        c.local_get(0).i32_const(3).op(Opcode::I32Mul);
        b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![],
            c.finish(),
        )
    };
    let hot = {
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
            .local_set(1)
            .local_get(0)
            .i32_const(1)
            .op(Opcode::I32Sub)
            .local_set(0)
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
    let main = {
        let mut c = CodeBuilder::new();
        c.i32_const(7)
            .call(cold)
            .i32_const(iters)
            .call(hot)
            .op(Opcode::I32Add);
        b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish())
    };
    b.export_func("main", main);
    b.finish()
}

#[test]
fn concurrent_cache_counters_stay_exact() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 8;
    let modules: Vec<Module> = (0..3).map(|i| const_module(100 + i)).collect();
    let cache = Arc::new(CodeCache::new());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let modules = &modules;
            scope.spawn(move || {
                let engine =
                    Engine::new(EngineConfig::baseline("cached", CompilerOptions::allopt()))
                        .with_code_cache(cache);
                for round in 0..ROUNDS {
                    // Walk the modules in a thread-dependent order so hits
                    // and misses interleave across threads.
                    let module = &modules[(t + round) % modules.len()];
                    let mut instance = engine
                        .instantiate(module, Imports::new(), Instrumentation::none())
                        .expect("instantiates");
                    engine
                        .call_export(&mut instance, "main", &[])
                        .expect("runs");
                }
            });
        }
    });

    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses,
        (THREADS * ROUNDS) as u64,
        "every instantiation is exactly one lookup"
    );
    assert_eq!(
        stats.entries,
        modules.len() as u64,
        "one entry per distinct module under one configuration"
    );
    // Each distinct module misses at least once (first compile), and the
    // remaining lookups can only be hits or racing first-compile misses.
    assert!(stats.misses >= modules.len() as u64);
    assert!(stats.hits > 0, "warm instantiations actually hit");
}

/// Calls `main` of `module` until the profiler holds at least 8 samples, in
/// each of the three executing tiers, and checks that ≥ 90 % of them land on
/// function `hot` (the `kernel`) and that it tops the profile in the
/// configuration's tier. A tier's samples are the same on both backends,
/// because both execute the same code
/// (`tests/masm_backends.rs::the_backend_changes_no_executed_instruction`).
fn assert_profiler_attributes(module: &Module, hot: u32, kernel: &str) {
    const MIN_SAMPLES: u64 = 8;
    for (config, expected_tier) in [
        (EngineConfig::interpreter("int"), Tier::Interp),
        (EngineConfig::baseline("spc", CompilerOptions::allopt()), Tier::Baseline),
        (EngineConfig::optimizing("opt"), Tier::Opt),
    ] {
        let name = config.name.clone();
        let engine = Engine::new(config.with_metering()).with_telemetry(Telemetry::enabled());
        let ticker = EpochTicker::start(Arc::clone(engine.epoch()), Duration::from_micros(150));
        let mut instance = engine
            .instantiate(module, Imports::new(), Instrumentation::none())
            .expect("instantiates");
        let profiler = engine.telemetry().profiler().expect("telemetry is enabled");
        let mut calls = 0usize;
        while profiler.total_samples() < MIN_SAMPLES && calls < 400 {
            instance.set_fuel(u64::MAX / 2);
            engine
                .call_export(&mut instance, "main", &[])
                .unwrap_or_else(|e| panic!("{name}: {kernel} module traps: {e}"));
            calls += 1;
        }
        drop(ticker);
        let total = profiler.total_samples();
        assert!(
            total >= MIN_SAMPLES,
            "{name}: only {total} samples after {calls} calls"
        );
        let share = profiler.share(hot);
        assert!(
            share >= 0.9,
            "{name}: {kernel} share {:.1}% < 90% over {total} samples",
            share * 100.0
        );
        let top = profiler.snapshot().into_iter().next().expect("has samples");
        assert_eq!(top.func, hot, "{name}: top function is the {kernel}");
        assert_eq!(top.tier, expected_tier, "{name}: samples land in the executing tier");
    }
}

/// The hot loop's samples, in every executing tier (see
/// [`assert_profiler_attributes`] for why one backend covers both).
#[test]
fn profiler_attributes_the_hot_loop_across_tiers_and_backends() {
    assert_profiler_attributes(&hot_loop_module(120_000), 1, "hot loop");
}

/// `rec` burns all its time in branchy recursion — no loops anywhere, so
/// the in-loop meter-check sampling sites never fire. Function indices are
/// (cold, rec, main) = (0, 1, 2).
fn deep_recursion_module(depth: i32) -> Module {
    let mut b = ModuleBuilder::new();
    let cold = {
        let mut c = CodeBuilder::new();
        c.local_get(0).i32_const(3).op(Opcode::I32Mul);
        b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![],
            c.finish(),
        )
    };
    // rec(n) = n < 2 ? n : rec(n-1) + rec(n-2)  (Fibonacci call tree)
    let rec = 1;
    let rec = {
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .i32_const(2)
            .op(Opcode::I32LtS)
            .if_(BlockType::Value(ValueType::I32))
            .local_get(0)
            .else_()
            .local_get(0)
            .i32_const(1)
            .op(Opcode::I32Sub)
            .call(rec)
            .local_get(0)
            .i32_const(2)
            .op(Opcode::I32Sub)
            .call(rec)
            .op(Opcode::I32Add)
            .end();
        b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![],
            c.finish(),
        )
    };
    let main = {
        let mut c = CodeBuilder::new();
        c.i32_const(7)
            .call(cold)
            .i32_const(depth)
            .call(rec)
            .op(Opcode::I32Add);
        b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish())
    };
    b.export_func("main", main);
    b.finish()
}

/// Regression for the frame-exit sampling path: a kernel with *no* loop
/// back-edges must still attribute its time to the recursive hot function,
/// because returns and call boundaries are sample points too.
#[test]
fn profiler_attributes_deep_recursion_without_back_edges() {
    assert_profiler_attributes(&deep_recursion_module(21), 1, "recursive kernel");
}

#[test]
fn serving_batch_traces_the_request_lifecycle() {
    let telemetry = Telemetry::enabled();
    let mut server = Server::new(
        ServerConfig {
            workers: 2,
            telemetry: telemetry.clone(),
            ..ServerConfig::default()
        },
        EngineConfig::baseline("spc", CompilerOptions::allopt()),
    );
    let apps = [
        server
            .register_app("a", "main", const_module(11))
            .expect("registers"),
        server
            .register_app("b", "main", const_module(22))
            .expect("registers"),
    ];
    let requests: Vec<Request> = (0..8).map(|i| Request::to_app(apps[i % 2])).collect();
    let results = server.run(requests);
    assert!(results.iter().all(|r| matches!(r.status, RequestStatus::Ok(_))));

    let rings = telemetry.drain();
    let mut compile_ends = 0;
    let mut cache_lookups = 0;
    let mut checkouts = 0;
    let (mut enqueued, mut started, mut finished, mut finished_ok) = (0, 0, 0, 0);
    for (_, events, _) in &rings {
        for event in events {
            match event.kind {
                EventKind::CompileEnd { .. } => compile_ends += 1,
                EventKind::CacheLookup { .. } => cache_lookups += 1,
                EventKind::PoolCheckout { .. } => checkouts += 1,
                EventKind::ServeEnqueue { .. } => enqueued += 1,
                EventKind::ServeStart { .. } => started += 1,
                EventKind::ServeFinish { ok, .. } => {
                    finished += 1;
                    finished_ok += ok as u32;
                }
                _ => {}
            }
        }
    }
    assert!(compile_ends >= 1, "the apps' compiles are traced");
    assert_eq!(checkouts, 8, "one pool checkout per request");
    assert_eq!((enqueued, started, finished), (8, 8, 8));
    assert_eq!(finished_ok, 8);
    assert_eq!(telemetry.dropped_events(), 0);

    let metrics = telemetry.metrics().expect("enabled").snapshot();
    let counter = |name: &str| {
        metrics
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(counter("serve.requests"), 8);
    assert_eq!(counter("serve.trapped"), 0);
    assert_eq!(
        counter("pool.warm_checkouts") + counter("pool.cold_checkouts"),
        8
    );
    assert_eq!(
        cache_lookups,
        2 + counter("pool.cold_checkouts"),
        "one cache lookup per instantiation: each app's registration and each cold checkout"
    );
    let request_us = metrics
        .histograms
        .iter()
        .find(|(n, _)| n == "serve.request_us")
        .map(|(_, h)| h.clone())
        .expect("request latency histogram exists");
    assert_eq!(request_us.count, 8);

    // The drained events render into Chrome trace JSON with the serve spans.
    let trace = telemetry::trace::chrome_trace(&rings);
    assert!(trace.contains("serve r0"));
    assert!(trace.contains("pool checkout"));
    // ... and the rendering is well-formed trace-event JSON: a `traceEvents`
    // array of events with a known phase ("C" is the counter an overflowed
    // ring reports its dropped events with) and, metadata aside, a timestamp.
    let doc = json::parse_json(&trace).expect("chrome trace is well-formed JSON");
    let events = doc
        .get("traceEvents")
        .and_then(json::JsonValue::as_array)
        .expect("traceEvents array");
    assert!(events.len() >= 8, "at least one event per request is rendered");
    for event in events {
        let phase = event.get("ph").and_then(json::JsonValue::as_str).expect("string `ph`");
        assert!(matches!(phase, "M" | "X" | "i" | "B" | "E" | "C"), "unknown phase {phase:?}");
        let ts = event.get("ts").and_then(json::JsonValue::as_number);
        assert!(phase == "M" || ts.is_some(), "{event:?} has no numeric `ts`");
    }
}

/// `main` calls `middle` calls `div`, which divides by zero: a trap inside
/// an instruction three frames deep. Function indices are (div, middle,
/// main) = (0, 1, 2); `spin` (3) recurses until a call-depth limit stops it.
const TRAPS: &str = r#"
    (module
      (func $div (param i32 i32) (result i32) local.get 0 local.get 1 i32.div_s)
      (func $middle (param i32) (result i32) local.get 0 i32.const 0 call $div)
      (func $main (export "main") (param i32) (result i32) local.get 0 call $middle)
      (func $spin (export "spin") (param i32) (result i32)
        local.get 0 i32.const 1 i32.add call $spin))
"#;

/// The trap events `engine`'s sink holds (`Trap`, `FuelExhausted`,
/// `EpochInterrupt`), drained, and its `engine.traps.*` counters.
fn trap_telemetry(engine: &Engine) -> (Vec<EventKind>, Vec<(String, u64)>) {
    let events = engine.telemetry().drain().into_iter().flat_map(|(_, events, _)| events);
    let traps = events.map(|e| e.kind).filter(|kind| {
        use EventKind::{EpochInterrupt, FuelExhausted, Trap};
        matches!(kind, Trap { .. } | FuelExhausted | EpochInterrupt)
    });
    let metrics = engine.telemetry().metrics().expect("enabled").snapshot();
    let counters = metrics.counters.into_iter().filter(|(n, _)| n.starts_with("engine.traps."));
    (traps.collect(), counters.collect())
}

/// Every trapping call emits exactly one event and counts once under its
/// reason: a `Trap` event names the innermost frame of the backtrace the
/// instance keeps and the stack's true depth, whether the trap fired inside
/// an instruction (in every execution of the matrix), at a call boundary or
/// in a start function; fuel exhaustion and interruption have events of
/// their own.
#[test]
fn every_trap_emits_one_event_naming_its_innermost_frame() {
    let traps = wasm::wat::parse_module(TRAPS).expect("trap module parses");
    // The one event and the one count a trap with these diagnostics leaves.
    let assert_reported = |engine: &Engine, trap: &TrapInfo, what: &str| {
        let expected = match trap.reason {
            TrapCode::OutOfFuel => EventKind::FuelExhausted,
            TrapCode::Interrupted => EventKind::EpochInterrupt,
            reason => {
                let top = &trap.backtrace.frames()[0];
                EventKind::Trap {
                    reason: reason.wast_message(),
                    func: top.func_index,
                    offset: top.offset,
                    depth: trap.backtrace.depth() as u32,
                }
            }
        };
        let counter = format!("engine.traps.{}", trap.reason.slug());
        assert_eq!(trap_telemetry(engine), (vec![expected], vec![(counter, 1)]), "{what}");
    };
    let start = |config: EngineConfig, module: &Module| {
        let engine = Engine::new(config).with_telemetry(Telemetry::enabled());
        let instance = engine
            .instantiate(module, Imports::new(), Instrumentation::none())
            .expect("instantiates");
        (engine, instance)
    };

    for config in all_configs() {
        let name = config.name.clone();
        let (engine, mut instance) = start(config, &traps);
        let result = engine.call_export(&mut instance, "main", &[WasmValue::I32(7)]);
        assert_eq!(result, Err(TrapCode::DivisionByZero), "{name}");
        let trap = instance.last_trap().expect("diagnostics captured");
        assert_eq!(trap.backtrace.frames()[0].func_index, 0, "{name}: `div` is innermost");
        assert_eq!(trap.backtrace.depth(), 3, "{name}");
        assert_reported(&engine, trap, &name);
    }

    let limits = ResourceLimits { call_depth: Some(100), ..ResourceLimits::unlimited() };
    let spc = EngineConfig::baseline("spc", CompilerOptions::allopt());
    let (engine, mut instance) = start(spc.clone().with_limits(limits), &traps);
    let result = engine.call_export(&mut instance, "spin", &[WasmValue::I32(0)]);
    assert_eq!(result, Err(TrapCode::StackOverflow));
    let trap = instance.last_trap().expect("diagnostics captured");
    assert_eq!(trap.backtrace.depth(), 100, "the call that would be the 101st frame traps");
    assert_reported(&engine, trap, "stack exhaustion");

    // A start function that traps fails the instantiation, which leaves no
    // instance to ask: its event must match the diagnostics of the same
    // function called as an export.
    let boom = |start: &str| {
        let text = format!(r#"(module (func $boom (export "boom") nop unreachable) {start})"#);
        wasm::wat::parse_module(&text).expect("parses")
    };
    let (engine, mut instance) = start(spc.clone(), &boom(""));
    assert_eq!(engine.call_export(&mut instance, "boom", &[]), Err(TrapCode::Unreachable));
    let expected = instance.last_trap().expect("diagnostics captured").clone();
    assert_eq!(expected.backtrace.depth(), 1);
    assert_reported(&engine, &expected, "the start function called as an export");
    let engine = Engine::new(spc.clone()).with_telemetry(Telemetry::enabled());
    let err = engine.instantiate(&boom("(start $boom)"), Imports::new(), Instrumentation::none());
    assert!(matches!(err, Err(EngineError::Start(TrapCode::Unreachable))), "{err:?}");
    assert_reported(&engine, &expected, "a trapping start function");

    let (engine, mut instance) = start(spc.clone().with_metering(), &fib_module());
    instance.set_fuel(100);
    let result = engine.call_export(&mut instance, "fib", &[WasmValue::I32(20)]);
    assert_eq!(result, Err(TrapCode::OutOfFuel));
    assert_reported(&engine, instance.last_trap().expect("captured"), "out of fuel");

    let (engine, mut instance) = start(spc, &traps);
    instance.set_epoch_deadline(0);
    let result = engine.call_export(&mut instance, "main", &[WasmValue::I32(7)]);
    assert_eq!(result, Err(TrapCode::Interrupted));
    assert_reported(&engine, instance.last_trap().expect("captured"), "interrupted");
}

/// Events and samples charge zero simulated cycles: a traced engine whose
/// profiler is really being fed (a ticker moves the epoch, so the sample
/// sites fire) spends exactly the cycles of an untraced one, call by call,
/// in every tier.
#[test]
fn disabled_telemetry_leaves_execution_cycles_untouched() {
    const MIN_SAMPLES: u64 = 8;
    let module = fib_module();
    for config in [
        EngineConfig::interpreter("int"),
        EngineConfig::baseline("spc", CompilerOptions::allopt()),
        EngineConfig::optimizing("opt"),
    ] {
        let name = config.name.clone();
        // Metering exercises the same check sites the sampler piggybacks on.
        let start = |telemetry: Telemetry| {
            let engine = Engine::new(config.clone().with_metering()).with_telemetry(telemetry);
            let instance = engine
                .instantiate(&module, Imports::new(), Instrumentation::none())
                .expect("instantiates");
            (engine, instance)
        };
        let call = |engine: &Engine, instance: &mut engine::Instance| {
            let before = instance.metrics.exec_cycles;
            instance.set_fuel(u64::MAX / 2);
            let result = engine
                .call_export(instance, "fib", &[WasmValue::I32(15)])
                .expect("runs");
            (result, instance.metrics.exec_cycles - before)
        };

        let (plain_engine, mut plain_instance) = start(Telemetry::disabled());
        let plain = call(&plain_engine, &mut plain_instance);

        let (engine, mut instance) = start(Telemetry::enabled());
        let ticker = EpochTicker::start(Arc::clone(engine.epoch()), Duration::from_micros(150));
        let profiler = engine.telemetry().profiler().expect("telemetry is enabled");
        let mut calls = 0usize;
        while profiler.total_samples() < MIN_SAMPLES && calls < 400 {
            assert_eq!(
                call(&engine, &mut instance),
                plain,
                "{name}: telemetry charges zero simulated cycles (call {calls})"
            );
            calls += 1;
        }
        drop(ticker);
        let total = profiler.total_samples();
        assert!(total >= MIN_SAMPLES, "{name}: only {total} samples after {calls} calls");
    }
}
