//! FIG 15 (beyond the paper): the serving harness end to end.
//!
//! Two experiments, driving the `serve` crate's worker/pool/deadline stack
//! rather than bare engines:
//!
//! 1. **Cold vs. warm instantiation latency** — for every line item of the
//!    three suites, time the pool's cold path (full instantiation, code cache
//!    hot) against its warm path (snapshot reset: memcpy
//!    memory/globals/tables, scrub the value stack's high-water region) and
//!    report p50/p99 of both. The gate requires warm p50 ≥ 5× faster than
//!    cold p50: the snapshot image must actually buy something over
//!    re-running segment initialization.
//!
//! 2. **Failure accounting and the flight recorder** — a mixed batch where
//!    every third request traps: the engine's per-reason counters, the
//!    symbolicated diagnostics on every failed request, and the access log
//!    written out as the run's artifact.
//!
//! Throughput across worker counts is perfbench's (`serve.scale_2w`, the
//! `serve-warm` workload); that a batch is dealt `request_id % workers` is
//! asserted by `serve`'s unit tests.
//!
//! Run with `--full` for paper-sized workloads; the default is the smoke
//! scale used by CI.

use bench::{percentile, print_header, scale_from_args};
use engine::{Engine, EngineConfig, InstancePool};
use serve::{Request, Server, ServerConfig};
use spc::CompilerOptions;
use std::time::Instant;
use suites::BenchmarkItem;

/// Warm checkouts sampled per line item in part 1.
const WARM_SAMPLES: usize = 8;
/// Cold instantiations sampled per line item in part 1.
const COLD_SAMPLES: usize = 4;

fn engine_config() -> EngineConfig {
    EngineConfig::baseline("wizeng-spc", CompilerOptions::allopt())
}

fn main() {
    let scale = scale_from_args();
    print_header(
        "FIG 15 (beyond the paper)",
        "Concurrent serving: instance pooling, snapshot resets, failure accounting",
    );
    let suites = suites::all_suites(scale);
    let mut failures = Vec::new();

    // ---- Part 1: cold vs. warm instantiation through the pool ------------
    println!("\n[1] instantiation latency, pool cold path vs. snapshot reset:");
    let mut cold_us = Vec::new();
    let mut warm_us = Vec::new();
    for suite in &suites {
        for item in &suite.items {
            let engine = Engine::new(engine_config());
            let pool = InstancePool::new(engine, item.module.clone(), 1)
                .expect("suite modules instantiate");
            // Cold path: the pool is drained (one instance checked out and
            // held), so every further checkout is a full instantiation. The
            // code cache is not attached here, matching what a miss costs;
            // fig11 already characterizes the cache-hit discount.
            let held = pool.checkout().expect("first checkout");
            // Hold every cold instance until the end of the sampling loop —
            // dropping one mid-loop would park it and turn the next
            // checkout warm.
            let mut held_cold = Vec::with_capacity(COLD_SAMPLES);
            for _ in 0..COLD_SAMPLES {
                let start = Instant::now();
                let cold = pool.checkout().expect("cold checkout");
                cold_us.push(start.elapsed().as_secs_f64() * 1e6);
                assert!(!cold.was_warm(), "drained pool falls back to cold");
                held_cold.push(cold);
            }
            // max_idle = 1: exactly one instance parks for the warm loop.
            drop(held_cold);
            drop(held);
            // Warm path: one parked instance, checkout = reset. Dirty it
            // each round so the reset always has real work to undo.
            for _ in 0..WARM_SAMPLES {
                let start = Instant::now();
                let mut warm = pool.checkout().expect("warm checkout");
                warm_us.push(start.elapsed().as_secs_f64() * 1e6);
                assert!(warm.was_warm(), "parked instance resets warm");
                pool.engine()
                    .call_export(&mut warm, BenchmarkItem::ENTRY, &[])
                    .expect("suite item runs");
            }
        }
    }
    // Nearest-rank p99 of fewer than 100 samples degenerates to the max —
    // fail loudly if the sampling loops ever shrink below that.
    assert!(
        cold_us.len() >= 100 && warm_us.len() >= 100,
        "p99 gate needs >= 100 samples, got {} cold / {} warm",
        cold_us.len(),
        warm_us.len()
    );
    let (cold_p50, cold_p99) = (percentile(&cold_us, 50.0), percentile(&cold_us, 99.0));
    let (warm_p50, warm_p99) = (percentile(&warm_us, 50.0), percentile(&warm_us, 99.0));
    let warm_speedup = cold_p50 / warm_p50.max(1e-9);
    println!(
        "{:<6} | {:>10} | {:>10}\n{:-<6}-+-{:-<10}-+-{:-<10}",
        "path", "p50 (us)", "p99 (us)", "", "", ""
    );
    println!("{:<6} | {cold_p50:>10.1} | {cold_p99:>10.1}", "cold");
    println!("{:<6} | {warm_p50:>10.1} | {warm_p99:>10.1}", "warm");
    println!("warm p50 speedup: {warm_speedup:.1}x");
    if warm_speedup < 5.0 {
        failures.push(format!(
            "warm p50 speedup {warm_speedup:.2}x < 5.0x over cold instantiation"
        ));
    }

    // ---- Part 2: failure accounting and the flight recorder --------------
    // A serving layer is judged by how it reports failure, so the figure
    // exercises one: a mixed batch where every third request hits a
    // div-by-zero app. Trap totals come from the engine's per-reason
    // counters, every failed request must carry symbolicated diagnostics,
    // and the flight recorder's access log is written out as the run's
    // artifact.
    println!("\n[2] failure accounting and the flight recorder:");
    let telemetry = telemetry::Telemetry::enabled();
    let mut server = Server::new(
        ServerConfig {
            workers: 2,
            telemetry: telemetry.clone(),
            ..ServerConfig::default()
        },
        engine_config(),
    );
    let boom_module = wasm::wat::parse_module(
        r#"
        (module $boom
          (func $divide (param $n i32) (result i32)
            local.get $n i32.const 0 i32.div_s)
          (func $main (export "main") (param $n i32) (result i32)
            local.get $n call $divide))
        "#,
    )
    .expect("boom module parses");
    let quick_module = wasm::wat::parse_module(
        r#"(module $quick (func $main (export "main") (param $n i32) (result i32)
             local.get $n i32.const 2 i32.mul))"#,
    )
    .expect("quick module parses");
    let boom = server
        .register_app("boom", "main", boom_module)
        .expect("boom registers");
    let quick = server
        .register_app("quick", "main", quick_module)
        .expect("quick registers");
    let batch: Vec<Request> = (0..12)
        .map(|i| {
            Request::to_app(if i % 3 == 0 { boom } else { quick })
                .with_args(vec![machine::values::WasmValue::I32(i)])
        })
        .collect();
    let total = batch.len();
    let results = server.run(batch);
    let trapped: Vec<_> = results.iter().filter(|r| !r.status.is_ok()).collect();
    for r in &trapped {
        let trap = r.trap.as_ref().expect("failed requests carry diagnostics");
        assert!(
            trap.backtrace.frames().iter().all(|f| f.name.is_some()),
            "request {}: backtrace must symbolicate",
            r.request_id
        );
    }
    let div_traps = telemetry
        .metrics()
        .expect("metrics registry")
        .snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "engine.traps.division_by_zero")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    let dump = server.flight_recorder().dump();
    std::fs::write("ACCESS_LOG_fig15.jsonl", &dump).expect("access log written");
    println!(
        "{total} requests: {} trapped (engine counted {div_traps} div-by-zero), \
         {} access-log lines -> ACCESS_LOG_fig15.jsonl",
        trapped.len(),
        dump.lines().count(),
    );
    if trapped.len() != 4 || div_traps != 4 {
        failures.push(format!(
            "expected 4 div-by-zero failures, saw {} trapped / {div_traps} counted",
            trapped.len()
        ));
    }

    if failures.is_empty() {
        println!("\nGATES PASS: warm p50 {warm_speedup:.1}x >= 5x, 4 of {total} requests trapped and were counted");
    } else {
        for f in &failures {
            println!("GATE FAIL: {f}");
        }
        std::process::exit(1);
    }
}
