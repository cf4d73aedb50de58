//! End-to-end tests for the compilation-pipeline subsystem: the keyed code
//! cache (shared compiled modules across instantiations), multi-worker
//! eager compilation through the engine, concurrent lazy / tier-up
//! publication into one shared artifact, and the `EngineConfig`-plumbed GC
//! heap threshold.

mod common;

use common::fib_module;
use engine::{
    CacheKey, CodeCache, CompileTier, CompiledModule, Engine, EngineConfig, Imports, Instance,
    Instrumentation,
};
use machine::values::WasmValue;
use spc::{CompilerOptions, TagStrategy};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;
use suites::Scale;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::types::{FuncType, ValueType};
use wasm::Module;

#[test]
fn warm_instantiation_compiles_exactly_once_and_shares_the_artifact() {
    let module = fib_module();
    let cache = Arc::new(CodeCache::new());
    let engine = Engine::new(EngineConfig::baseline("cached", CompilerOptions::allopt()))
        .with_code_cache(Arc::clone(&cache));

    // Cold: miss, full compile.
    let mut cold = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .unwrap();
    assert!(!cold.metrics.cache_hit);
    assert_eq!(cold.metrics.functions_compiled, 1);
    assert!(cold.metrics.compile_wall > Duration::ZERO);
    assert_eq!((cache.hits(), cache.misses()), (0, 1));

    // Warm: hit, zero compiles, the very same artifact.
    let mut warm = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .unwrap();
    assert!(warm.metrics.cache_hit);
    assert_eq!(
        warm.metrics.functions_compiled, 0,
        "the same module under the same config compiles exactly once"
    );
    assert_eq!(warm.metrics.total_compile_wall(), Duration::ZERO);
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
    assert_eq!(cache.len(), 1);
    assert!(
        Arc::ptr_eq(cold.artifact(), warm.artifact()),
        "both instances execute one shared copy of the compiled code"
    );

    // Both instances run, independently and correctly.
    let a = engine.call_export(&mut cold, "fib", &[WasmValue::I32(12)]).unwrap();
    let b = engine.call_export(&mut warm, "fib", &[WasmValue::I32(12)]).unwrap();
    assert_eq!(a, vec![WasmValue::I32(144)]);
    assert_eq!(a, b);
}

#[test]
fn cache_distinguishes_configurations_and_instrumentation() {
    let module = fib_module();
    let cache = Arc::new(CodeCache::new());
    let allopt = Engine::new(EngineConfig::baseline("a", CompilerOptions::allopt()))
        .with_code_cache(Arc::clone(&cache));
    let notags = Engine::new(EngineConfig::baseline(
        "b",
        CompilerOptions::with_tagging(TagStrategy::None, "notags"),
    ))
    .with_code_cache(Arc::clone(&cache));

    allopt
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .unwrap();
    let i2 = notags
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .unwrap();
    assert!(!i2.metrics.cache_hit, "different options fingerprint differently");
    assert_eq!(cache.len(), 2);

    // Instrumentation is baked into code, so probed instantiations get
    // their own entry…
    let probed = allopt
        .instantiate(&module, Imports::new(), Instrumentation::branch_monitor(&module))
        .unwrap();
    assert!(!probed.metrics.cache_hit);
    assert_eq!(cache.len(), 3);
    // …and an identically-probed one shares it.
    let probed_again = allopt
        .instantiate(&module, Imports::new(), Instrumentation::branch_monitor(&module))
        .unwrap();
    assert!(probed_again.metrics.cache_hit);
}

/// `main() = k`, as a fresh value per call.
fn const_module(k: i32) -> Module {
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.i32_const(k);
    let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
    b.export_func("main", f);
    b.finish()
}

/// The key holds a 64-bit hash and the cache is shared across tenants, so a
/// hit must confirm the artifact was built from the module asked for. An
/// artifact of module B filed under module A's key — what a hash collision
/// produces — is a miss for A: A compiles its own code and B's entry stays.
#[test]
fn a_colliding_entry_is_a_miss_not_someone_elses_code() {
    let (a, b) = (const_module(41), const_module(42));
    let config = EngineConfig::baseline("cached", CompilerOptions::allopt());
    let cache = Arc::new(CodeCache::new());
    let engine = Engine::new(config.clone()).with_code_cache(Arc::clone(&cache));
    let key_of_a = CacheKey::for_instantiation(&config, &a, &Instrumentation::none());
    let artifact_of_b = Arc::new(CompiledModule::build(b.clone()).unwrap());
    cache.insert(key_of_a, Arc::clone(&artifact_of_b));

    let mut instance = engine
        .instantiate(&a, Imports::new(), Instrumentation::none())
        .unwrap();
    assert!(!instance.metrics.cache_hit);
    assert_eq!(instance.metrics.functions_compiled, 1);
    assert_eq!((cache.hits(), cache.misses()), (0, 1));
    assert_eq!(
        engine.call_export(&mut instance, "main", &[]).unwrap(),
        vec![WasmValue::I32(41)],
        "A runs A's code"
    );
    assert!(
        Arc::ptr_eq(&cache.lookup(&key_of_a, &b).expect("resident"), &artifact_of_b),
        "the resident entry was not replaced"
    );

    // The engine looks up exactly the key `for_instantiation` computes: with
    // A's own artifact filed under it, A hits.
    let cache = Arc::new(CodeCache::new());
    let engine = Engine::new(config).with_code_cache(Arc::clone(&cache));
    cache.insert(key_of_a, Arc::new(CompiledModule::build(a.clone()).unwrap()));
    let hit = engine
        .instantiate(&a, Imports::new(), Instrumentation::none())
        .unwrap();
    assert!(hit.metrics.cache_hit);
}

/// A module's memoized hash follows its contents: editing through
/// `make_mut` changes the key, and equal contents reached any other way —
/// two separate decodes of one binary — share one entry.
#[test]
fn edits_change_the_key_and_equal_contents_share_an_entry() {
    let config = EngineConfig::baseline("cached", CompilerOptions::allopt());
    let cache = Arc::new(CodeCache::new());
    let engine = Engine::new(config.clone()).with_code_cache(Arc::clone(&cache));
    let key = |m: &Module| CacheKey::for_instantiation(&config, m, &Instrumentation::none());
    let main = |module: &Module| {
        let mut instance = engine
            .instantiate(module, Imports::new(), Instrumentation::none())
            .unwrap();
        let result = engine.call_export(&mut instance, "main", &[]).unwrap();
        (instance.metrics.cache_hit, result)
    };

    let mut module = const_module(7);
    let before = key(&module);
    assert_eq!(main(&module), (false, vec![WasmValue::I32(7)]));
    assert_eq!(main(&module), (true, vec![WasmValue::I32(7)]));

    // `i32.const 7` → `i32.const 8`, in place.
    module.make_mut().funcs[0].code[1] = 8;
    assert_ne!(key(&module), before, "the edit is visible in the key");
    assert_eq!(main(&module), (false, vec![WasmValue::I32(8)]));
    assert_eq!(cache.len(), 2);

    let bytes = wasm::encode::encode(&module);
    let (one, two) = (wasm::decode::decode(&bytes).unwrap(), wasm::decode::decode(&bytes).unwrap());
    assert!(!Module::ptr_eq(&one, &two));
    assert_eq!(main(&one), (true, vec![WasmValue::I32(8)]), "a decoded copy of a cached module hits");
    assert_eq!(main(&two), (true, vec![WasmValue::I32(8)]));
    assert_eq!(cache.len(), 2);
}

/// Baseline-only and opt-enabled configurations must never share a cached
/// artifact: the optimizing tier's code slots are part of the artifact, so
/// aliasing them would hand optimizing-tier code to an engine that never
/// asked for it (and vice versa).
#[test]
fn cache_keys_separate_baseline_and_opt_artifacts() {
    let module = fib_module();
    let cache = Arc::new(CodeCache::new());
    let tiered = EngineConfig::tiered("t", 2, CompilerOptions::allopt());
    let with_opt = tiered.clone().with_opt_tier(4);
    let plain_engine = Engine::new(tiered).with_code_cache(Arc::clone(&cache));
    let opt_engine = Engine::new(with_opt.clone()).with_code_cache(Arc::clone(&cache));

    let mut plain = plain_engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .unwrap();
    let mut opt = opt_engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .unwrap();
    assert!(!opt.metrics.cache_hit, "the opt axis is part of the key");
    assert_eq!(cache.len(), 2, "two distinct artifacts");
    assert!(
        !Arc::ptr_eq(plain.artifact(), opt.artifact()),
        "baseline and opt artifacts never alias"
    );

    // Drive both engines past every threshold; only the opt engine's
    // artifact may ever hold optimizing-tier code.
    for _ in 0..8 {
        let a = plain_engine.call_export(&mut plain, "fib", &[WasmValue::I32(10)]).unwrap();
        let b = opt_engine.call_export(&mut opt, "fib", &[WasmValue::I32(10)]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, vec![WasmValue::I32(55)]);
    }
    assert_eq!(plain.artifact().opt_compiled_count(), 0);
    assert_eq!(opt.artifact().opt_compiled_count(), 1);

    // A second opt-enabled engine over the same cache shares the opt
    // artifact (including the already-promoted code).
    let warm = Engine::new(with_opt)
        .with_code_cache(Arc::clone(&cache))
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .unwrap();
    assert!(warm.metrics.cache_hit);
    assert!(Arc::ptr_eq(warm.artifact(), opt.artifact()));
    assert_eq!(cache.len(), 2);
}

/// Several threads run one lazily compiled artifact at once — what `serve`
/// does with two workers. Every compile after instantiation happens on the
/// thread that needs the code, so threads that reach an empty slot together
/// all compile it; exactly one publishes, the others' code is dropped, and
/// only the publisher accounts the compile. The barrier releases the threads
/// into their first call of `main` together, so every slot starts out raced.
#[test]
fn concurrent_lazy_publication_fills_each_slot_once_and_accounts_it_once() {
    const THREADS: usize = 4;
    const CALLS: usize = 4;
    let configs = [
        EngineConfig::baseline("lazy", CompilerOptions::allopt()).with_lazy_compile(true),
        EngineConfig::tiered("three-tier", 1, CompilerOptions::allopt()).with_opt_tier(2),
    ];
    for suite in suites::all_suites(Scale::Test) {
        let item = &suite.items[0];
        // `main` may keep state in memory between calls, so the reference is
        // the interpreter's result for each call in turn.
        let interpreter = Engine::new(EngineConfig::interpreter("int"));
        let mut reference = interpreter
            .instantiate(&item.module, Imports::new(), Instrumentation::none())
            .unwrap();
        let expected: Vec<_> = (0..CALLS)
            .map(|_| interpreter.call_export(&mut reference, "main", &[]).unwrap())
            .collect();
        for config in &configs {
            let label = format!("{}/{} under {}", suite.name, item.name, config.name);
            let cache = Arc::new(CodeCache::new());
            let engine = Engine::new(config.clone()).with_code_cache(Arc::clone(&cache));
            // The entry is resident before any thread starts, so every
            // thread's instantiation hits it; lazily, nothing is compiled yet.
            let first = engine
                .instantiate(&item.module, Imports::new(), Instrumentation::none())
                .unwrap();
            assert_eq!(first.artifact().compiled_count(), 0, "{label}");
            let barrier = Barrier::new(THREADS);
            let instances: Vec<Instance> = thread::scope(|scope| {
                let workers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        let engine = engine.clone();
                        let (barrier, expected, label) = (&barrier, &expected, &label);
                        scope.spawn(move || {
                            let mut instance = engine
                                .instantiate(&item.module, Imports::new(), Instrumentation::none())
                                .unwrap();
                            barrier.wait();
                            for (call, expected) in expected.iter().enumerate() {
                                let result = engine.call_export(&mut instance, "main", &[]).unwrap();
                                assert_eq!(&result, expected, "{label}, call {call}");
                            }
                            instance
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().unwrap()).collect()
            });

            let artifact = first.artifact();
            assert_eq!(cache.len(), 1, "{label}");
            for instance in &instances {
                assert!(instance.metrics.cache_hit, "{label}");
                assert!(Arc::ptr_eq(instance.artifact(), artifact), "{label}: one shared artifact");
            }
            let baseline_filled = (0..artifact.num_defined())
                .filter(|&d| artifact.artifact_for(d, CompileTier::Baseline).is_some())
                .count();
            let published = baseline_filled + artifact.opt_compiled_count();
            assert!(baseline_filled > 0, "{label}: main was compiled");
            if config.tier.uses_opt_tier() {
                assert!(artifact.opt_compiled_count() > 0, "{label}: main was promoted");
            }
            let accounted: u32 = instances.iter().map(|i| i.metrics.functions_compiled).sum();
            assert_eq!(
                accounted as usize, published,
                "{label}: a compile that loses the publication race is dropped and unaccounted"
            );
            let tiered_up: u32 = instances.iter().map(|i| i.metrics.tiered_up_functions).sum();
            assert_eq!(tiered_up, accounted, "{label}: every compile here was deferred");
        }
    }
}

#[test]
fn multi_worker_instantiation_runs_all_suites_correctly() {
    // The engine-level parallel path: instantiate with a worker pool and
    // check results and metrics against the serial path, per suite item.
    let serial = Engine::new(EngineConfig::baseline("w1", CompilerOptions::allopt()));
    let parallel = Engine::new(
        EngineConfig::baseline("w4", CompilerOptions::allopt()).with_compile_workers(4),
    );
    for suite in suites::all_suites(Scale::Test) {
        for item in &suite.items {
            let mut a = serial
                .instantiate(&item.module, Imports::new(), Instrumentation::none())
                .unwrap();
            let mut b = parallel
                .instantiate(&item.module, Imports::new(), Instrumentation::none())
                .unwrap();
            assert_eq!(a.metrics.functions_compiled, b.metrics.functions_compiled);
            assert_eq!(a.metrics.compiled_machine_bytes, b.metrics.compiled_machine_bytes);
            assert_eq!(a.metrics.compiled_wasm_bytes, b.metrics.compiled_wasm_bytes);
            assert_eq!(a.metrics.tag_stores_emitted, b.metrics.tag_stores_emitted);
            let ra = serial.call_export(&mut a, "main", &[]).unwrap();
            let rb = parallel.call_export(&mut b, "main", &[]).unwrap();
            assert_eq!(ra, rb, "{}/{}", suite.name, item.name);
            assert_eq!(a.metrics.exec_cycles, b.metrics.exec_cycles);
        }
    }
}

/// A module whose exported `churn` allocates `n` short-lived host objects
/// through an imported allocator, then reports the live count.
fn alloc_module() -> Module {
    let mut b = ModuleBuilder::new();
    let alloc = b.import_func(
        "host",
        "alloc",
        FuncType::new(vec![ValueType::I32], vec![ValueType::ExternRef]),
    );
    let live = b.import_func("host", "live", FuncType::new(vec![], vec![ValueType::I32]));
    let mut c = CodeBuilder::new();
    // for i in 0..8 { drop(alloc(i)) } — every allocation is garbage by the
    // next call site; then ask the host how many objects survived.
    for i in 0..8 {
        c.i32_const(i).call(alloc).drop_();
    }
    c.call(live);
    let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
    b.export_func("churn", f);
    b.finish()
}

fn run_churn(config: EngineConfig) -> (u64, i32) {
    let imports = Imports::new()
        .func("host", "alloc", |heap, args| {
            Ok(vec![WasmValue::ExternRef(Some(
                heap.alloc(args[0].unwrap_i32() as u64),
            ))])
        })
        .func("host", "live", |heap, _| {
            Ok(vec![WasmValue::I32(heap.live_count() as i32)])
        });
    let engine = Engine::new(config);
    let mut instance = engine
        .instantiate(&alloc_module(), imports, Instrumentation::none())
        .unwrap();
    let live = engine.call_export(&mut instance, "churn", &[]).unwrap()[0];
    (
        instance.heap.collections(),
        match live {
            WasmValue::I32(v) => v,
            _ => -1,
        },
    )
}

#[test]
fn gc_threshold_flows_from_config_and_defers_collection() {
    let base = EngineConfig::baseline("gc", CompilerOptions::allopt());
    // Threshold 0 (the default): collection is never requested.
    let (collections, live) = run_churn(base.clone());
    assert_eq!(collections, 0);
    assert_eq!(live, 8, "nothing was ever reclaimed");
    // A threshold higher than the allocation count also defers every
    // collection.
    let (collections, live) = run_churn(base.clone().with_gc_threshold(100));
    assert_eq!(collections, 0, "a high threshold defers collection");
    assert_eq!(live, 8);
    // A low threshold kicks in once enough objects are live and reclaims
    // the garbage.
    let (collections, live) = run_churn(base.with_gc_threshold(3));
    assert!(collections > 0, "a low threshold triggers collection");
    assert!(live < 8, "short-lived allocations were reclaimed");
}
