//! A Wasm→Wasm call is a frame push: once a call tree has run once, making
//! 64 calls allocates exactly as often as making one, in every execution.
//! Calls to the host are not covered: the import below is never called, and
//! such a call still allocates its arguments and results `Vec`s.
//!
//! `fan(n)` makes `n` calls to a leaf with 13 locals, alternating a direct
//! `call` and a `call_indirect` through the table. After warm-up calls that
//! settle every function in its final tier, `fan(64)` must allocate as many
//! times as `fan(1)` (counted by the global allocator `scaling.rs` uses), and
//! return what the interpreter returns. What a call tree allocates once — the
//! results it hands back — is the same for both; a per-call allocation (a
//! register file per JIT frame, a boxed frame, a hashed lookup that grows)
//! makes the counts differ by at least 63.

#[path = "../crates/optc/tests/counting/mod.rs"]
mod counting;

use counting::{counted, Counts, TURN};
use engine::{Engine, Imports, Instrumentation};
use machine::values::WasmValue;
use wasm::Module;

/// The function 0 import is never called: it only puts the defined functions
/// behind an import in the index space, as a WASI-style module has them.
const FAN: &str = r#"
(module
  (type $leaf_t (func (param i32) (result i32)))
  (import "env" "unused" (func $unused (param i32) (result i32)))
  (table 1 funcref)
  (elem (offset (i32.const 0)) func $leaf)
  (func $leaf (type $leaf_t) (param $x i32) (result i32)
    (local $a i32) (local $b i64) (local $c f32) (local $d f64)
    (local $e i32) (local $f i64) (local $g f32) (local $h f64)
    (local $i i32) (local $j i64) (local $k i32) (local $l i32)
    (local.set $a (i32.mul (local.get $x) (i32.const 3)))
    (local.set $b (i64.extend_i32_u (local.get $a)))
    (local.set $e (i32.wrap_i64 (i64.add (local.get $b) (local.get $f))))
    (local.set $k (i32.add (local.get $e) (local.get $i)))
    (i32.add (local.get $k) (i32.add (local.get $l) (i32.const 1))))
  (func (export "fan") (param $n i32) (result i32)
    (local $i i32) (local $acc i32)
    (block $done
      (loop $next
        (br_if $done (i32.ge_u (local.get $i) (local.get $n)))
        (local.set $acc
          (i32.add
            (local.get $acc)
            (if (result i32) (i32.and (local.get $i) (i32.const 1))
              (then (call_indirect (type $leaf_t) (local.get $i) (i32.const 0)))
              (else (call $leaf (local.get $i))))))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $next)))
    (local.get $acc)))
"#;

/// Enough calls of `fan(64)` that `fan` reaches its last tier in every
/// execution of the matrix (the three-tier one promotes on the third call)
/// and the leaf reaches it on the first.
const WARM_UP_CALLS: usize = 3;

fn fan(engine: &Engine, instance: &mut engine::Instance, n: i32) -> Vec<WasmValue> {
    engine
        .call_export(instance, "fan", &[WasmValue::I32(n)])
        .expect("fan returns")
}

/// What a call allocated: how often, and the bytes in all, at once and at
/// most in one request.
fn describe(c: &Counts) -> String {
    format!(
        "{} allocations, {} B total, {} B peak, {} B largest",
        c.allocations, c.total, c.peak, c.largest
    )
}

#[test]
fn after_warm_up_a_call_allocates_nothing_in_every_execution() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let module: Module = wasm::wat::parse_module(FAN).expect("parses");
    let mut results = Vec::new();
    let mut counts = Vec::new();
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let engine = Engine::new(config);
        let imports = Imports::new().func("env", "unused", |_, args| Ok(args.to_vec()));
        let mut instance = engine
            .instantiate(&module, imports, Instrumentation::none())
            .expect("instantiates");
        for _ in 0..WARM_UP_CALLS {
            fan(&engine, &mut instance, 64);
        }
        let (one, one_counts) = counted(|| fan(&engine, &mut instance, 1));
        let (many, many_counts) = counted(|| fan(&engine, &mut instance, 64));
        counts.push((name.clone(), describe(&one_counts), describe(&many_counts)));
        results.push((name, one, many));
    }
    for (name, one, many) in &counts {
        assert_eq!(one, many, "{name}: fan(1) against fan(64) (all executions: {counts:?})");
    }
    // The first configuration is the interpreter.
    let (_, ref_one, ref_many) = &results[0];
    for (name, one, many) in &results {
        assert_eq!((one, many), (ref_one, ref_many), "{name}: results equal the interpreter's");
    }
}
