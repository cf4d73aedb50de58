//! Multi-tenant conformance: deterministic fuel across the full execution
//! matrix, and tenant resource ceilings enforced identically in every
//! configuration.

use conform::runner::{all_configs, run_script};
use conform::script::parse_script;
use engine::{CodeCache, Engine, EngineConfig, Imports, Instrumentation, ResourceLimits, TrapReason};
use machine::values::WasmValue;
use std::sync::Arc;
use wasm::wat;

/// Every fuel-using corpus script must consume the *same* fuel, action by
/// action, in all five configurations — the core determinism claim of the
/// metering design (one cost table, one plan, three tiers).
#[test]
fn fuel_consumption_is_identical_across_the_matrix() {
    let corpus = conform::load_corpus();
    let fueled: Vec<_> = corpus.iter().filter(|s| s.uses_fuel()).collect();
    assert!(
        !fueled.is_empty(),
        "the corpus must contain fuel-metering scripts"
    );
    let configs = all_configs();
    for script in fueled {
        let reference = run_script(script, &configs[0]);
        assert!(
            reference.is_pass(),
            "[{}] {:#?}",
            configs[0].name,
            reference.failures
        );
        assert!(
            !reference.fuel.is_empty(),
            "{}: no fuel consumption recorded",
            script.name
        );
        for config in &configs[1..] {
            let outcome = run_script(script, config);
            assert!(
                outcome.is_pass(),
                "[{}] {:#?}",
                config.name,
                outcome.failures
            );
            assert_eq!(
                outcome.fuel, reference.fuel,
                "{}: fuel consumption diverged between {} and {}",
                script.name, configs[0].name, config.name
            );
        }
    }
}

/// A tenant memory ceiling below the module's declared maximum tightens
/// `memory.grow` identically in every configuration, and a declared minimum
/// above the ceiling fails instantiation.
#[test]
fn tenant_memory_ceiling_binds_in_every_config() {
    let script = parse_script(
        "tenant-memory",
        r#"
        (module
          (memory 1 10)
          (func (export "grow") (param i32) (result i32)
            local.get 0
            memory.grow)
          (func (export "size") (result i32)
            memory.size))
        (assert_return (invoke "grow" (i32.const 1)) (i32.const 1))
        (assert_return (invoke "grow" (i32.const 1)) (i32.const -1))
        (assert_return (invoke "size") (i32.const 2))
        "#,
    )
    .expect("parses");
    let limits = ResourceLimits {
        memory_pages: Some(2),
        table_elements: None,
        call_depth: None,
    };
    for config in all_configs() {
        let outcome = run_script(&script, &config.clone().with_limits(limits));
        assert!(
            outcome.is_pass(),
            "[{}] {:#?}",
            config.name,
            outcome.failures
        );
    }
    // Declared minimum above the ceiling: instantiation is refused.
    let module = wat::parse_module("(module (memory 5 10))").expect("parses");
    for config in all_configs() {
        let engine = Engine::new(config.clone().with_limits(limits));
        let err = engine
            .instantiate(&module, Imports::new(), Instrumentation::none())
            .err()
            .unwrap_or_else(|| panic!("[{}] instantiation must fail", config.name));
        assert!(
            err.to_string().contains("tenant limit"),
            "[{}] {err}",
            config.name
        );
    }
}

/// A tenant call-depth ceiling converts deep recursion into the stack
/// exhaustion trap at the same depth in every configuration.
#[test]
fn tenant_call_depth_ceiling_binds_in_every_config() {
    let script = parse_script(
        "tenant-depth",
        r#"
        (module
          (func $down (export "down") (param i32) (result i32)
            local.get 0
            i32.eqz
            if (result i32)
              i32.const 0
            else
              local.get 0
              i32.const 1
              i32.sub
              call $down
            end))
        (assert_return (invoke "down" (i32.const 20)) (i32.const 0))
        (assert_trap (invoke "down" (i32.const 500)) "call stack exhausted")
        "#,
    )
    .expect("parses");
    let limits = ResourceLimits {
        memory_pages: None,
        table_elements: None,
        call_depth: Some(50),
    };
    for config in all_configs() {
        let outcome = run_script(&script, &config.clone().with_limits(limits));
        assert!(
            outcome.is_pass(),
            "[{}] {:#?}",
            config.name,
            outcome.failures
        );
    }
}

/// Engines sharing one code cache share compiled artifacts between tenants
/// whose configurations emit the same code, across differing execution
/// knobs.
#[test]
fn tenants_on_one_cache_share_compiled_artifacts() {
    let cache = Arc::new(CodeCache::new());
    let tenant = |config: EngineConfig| Engine::new(config).with_code_cache(Arc::clone(&cache));
    let module = wat::parse_module(
        r#"(module (func (export "f") (result i32) i32.const 7))"#,
    )
    .expect("parses");

    // Tenant A: plain default config. Tenant B: same code-affecting axes,
    // different execution ceilings. Both metered tenants (C, D) share a
    // *different* cache entry — metering changes emitted code.
    let a = tenant(EngineConfig::default());
    let b = tenant(EngineConfig::default().with_limits(ResourceLimits {
        memory_pages: Some(1),
        table_elements: None,
        call_depth: Some(10),
    }));
    let c = tenant(EngineConfig::default().with_metering());
    let d = tenant(EngineConfig::default().with_metering());

    let run = |engine: &Engine, fuel: Option<u64>| {
        let mut instance = engine
            .instantiate(&module, Imports::new(), Instrumentation::none())
            .expect("instantiates");
        if let Some(f) = fuel {
            instance.set_fuel(f);
        }
        let out = engine
            .call_export(&mut instance, "f", &[])
            .expect("runs");
        assert_eq!(out, vec![WasmValue::I32(7)]);
        (instance.metrics.cache_hit, instance.fuel_consumed())
    };

    assert_eq!(run(&a, None), (false, None), "tenant A compiles");
    assert_eq!(run(&b, None), (true, None), "tenant B reuses A's artifact");
    let (hit_c, fuel_c) = run(&c, Some(100));
    assert!(!hit_c, "metered code is a different cache entry");
    assert_eq!(fuel_c, Some(1), "one unit: the single i32.const");
    let (hit_d, fuel_d) = run(&d, Some(100));
    assert!(hit_d, "tenant D reuses C's metered artifact");
    assert_eq!(fuel_d, Some(1));
    assert_eq!(cache.len(), 2, "two code shapes, four tenants");
    assert_eq!(cache.hits(), 2);
}

/// Out-of-fuel surfaces as the structured `TrapReason::OutOfFuel` through
/// the engine's trap plumbing.
#[test]
fn out_of_fuel_is_a_structured_trap_reason() {
    let module = wat::parse_module(
        r#"(module (func (export "burn") (result i32)
              i32.const 1 i32.const 2 i32.add))"#,
    )
    .expect("parses");
    for config in all_configs() {
        let engine = Engine::new(config.clone().with_metering());
        let mut instance = engine
            .instantiate(&module, Imports::new(), Instrumentation::none())
            .expect("instantiates");
        instance.set_fuel(1);
        let code = engine
            .call_export(&mut instance, "burn", &[])
            .expect_err("must run out of fuel");
        assert_eq!(code, TrapReason::OutOfFuel, "[{}]", config.name);
        assert!(TrapReason::OutOfFuel.matches_wast("all fuel consumed"));
        assert_eq!(instance.fuel_remaining(), Some(0), "[{}]", config.name);
        assert_eq!(instance.fuel_consumed(), Some(1), "[{}]", config.name);
    }
}
