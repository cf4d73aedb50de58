//! FIG 11 (beyond the paper): the keyed code cache at serving scale.
//!
//! **Cold vs. warm instantiation** over the three suites — instantiate every
//! module twice against a shared keyed code cache and compare instantiation
//! latency (each item's fastest time over a few rounds, every round on an
//! empty cache). The warm pass skips validation, preparation, and compilation
//! (the cache hit is observable in the metrics), which is the serve-many-
//! requests scenario the cache exists for. Gate: on every suite warm takes at
//! most half of cold (warm / cold ≤ 0.5).
//!
//! Eager-compile scaling over worker counts is perfbench's
//! (`engine.compile_eager.speedup_2w.*`, `engine.load.mb_per_s.*` on the
//! 1.5 MiB corpus); that the output is identical at every worker count is
//! `tests/parallel_determinism.rs`.
//!
//! Run with `--full` for paper-sized workloads; the default is the smoke
//! scale used by CI.

use bench::{print_header, scale_from_args, summarize};
use engine::{CacheStats, CodeCache, Engine, EngineConfig, Imports, Instrumentation};
use spc::CompilerOptions;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of the cold/warm instantiation experiment.
const ROUNDS: usize = 5;

/// The gate on each suite's warm / cold ratio: a hit skips validation, preparation
/// and compilation, so it must cost at most this share of doing them.
const MAX_WARM_OVER_COLD: f64 = 0.5;

fn main() {
    let scale = scale_from_args();
    print_header(
        "FIG 11 (beyond the paper)",
        "Keyed code cache: cold vs. warm instantiation",
    );
    let suites = suites::all_suites(scale);

    println!(
        "\ncold vs. warm instantiation latency (shared keyed cache, fastest of {ROUNDS}):"
    );
    println!(
        "{:<12} | {:>12} | {:>12} | {:>8}",
        "suite", "cold (us)", "warm (us)", "ratio"
    );
    println!("{:-<12}-+-{:-<12}-+-{:-<12}-+-{:-<8}", "", "", "", "");
    // A cold instantiation happens once per cache, so each round starts an
    // empty one; every item keeps its fastest cold and fastest warm time.
    let mut cold_us: Vec<Vec<f64>> =
        suites.iter().map(|s| vec![f64::INFINITY; s.len()]).collect();
    let mut warm_us = cold_us.clone();
    let mut stats = CacheStats::default();
    let mut items_deduped = 0u32;
    let mut traps_total = 0u64;
    for round in 0..ROUNDS {
        let cache = Arc::new(CodeCache::new());
        let engine = Engine::new(EngineConfig::baseline("wizeng-spc", CompilerOptions::allopt()))
            .with_code_cache(Arc::clone(&cache));
        for (s, suite) in suites.iter().enumerate() {
            for (i, item) in suite.items.iter().enumerate() {
                let start = Instant::now();
                let cold = engine
                    .instantiate(&item.module, Imports::new(), Instrumentation::none())
                    .expect("cold instantiation");
                cold_us[s][i] = cold_us[s][i].min(start.elapsed().as_secs_f64() * 1e6);
                // Both timings allocate with no other instance alive: a
                // second value stack and linear memory beside live ones come
                // from fresh pages and fault them in, which is the
                // allocator's cost, not the cache's.
                let (cold_hit, cold_hits) = (cold.metrics.cache_hit, cache.hits());
                drop(cold);

                let start = Instant::now();
                let mut warm = engine
                    .instantiate(&item.module, Imports::new(), Instrumentation::none())
                    .expect("warm instantiation");
                warm_us[s][i] = warm_us[s][i].min(start.elapsed().as_secs_f64() * 1e6);
                assert!(warm.metrics.cache_hit, "second instantiation hits the cache");
                assert_eq!(
                    warm.metrics.functions_compiled, 0,
                    "a warm instantiation compiles nothing"
                );
                assert_eq!(cache.hits(), cold_hits + 1, "the warm lookup counted as a hit");
                if round > 0 {
                    continue;
                }
                // Some generated line items encode to byte-identical
                // modules; content hashing dedupes them, so even a first
                // instantiation can hit. Count rather than forbid it.
                if cold_hit {
                    items_deduped += 1;
                }
                // Execute the warm instance once: cache-served code must run
                // the suite cleanly, and RunMetrics' trap accounting proves
                // it — a suite item that starts trapping fails the run, not
                // just its checksum.
                engine
                    .call_export(&mut warm, suites::BenchmarkItem::ENTRY, &[])
                    .expect("cache-served instance executes");
                traps_total += warm.metrics.traps;
            }
        }
        stats = cache.stats();
    }
    let mut over_gate = Vec::new();
    for (s, suite) in suites.iter().enumerate() {
        let cold = summarize(&cold_us[s]);
        let warm = summarize(&warm_us[s]);
        let warm_over_cold = warm.mean / cold.mean.max(1e-9);
        println!(
            "{:<12} | {:>12.1} | {:>12.1} | {:>7.1}x",
            suite.name,
            cold.mean,
            warm.mean,
            cold.mean / warm.mean.max(1e-9),
        );
        if warm_over_cold > MAX_WARM_OVER_COLD {
            over_gate.push(suite.name);
        }
    }
    assert_eq!(traps_total, 0, "suite execution must be trap-free");
    println!(
        "\ncache: {} unique modules, {} hits, {} misses, {} KiB resident code \
         ({items_deduped} line items were byte-identical to an earlier one)",
        stats.entries,
        stats.hits,
        stats.misses,
        stats.resident_machine_bytes / 1024,
    );
    if !over_gate.is_empty() {
        println!(
            "FAIL: warm instantiation above {MAX_WARM_OVER_COLD}x cold on {over_gate:?}"
        );
        std::process::exit(1);
    }
    println!("PASS: warm instantiation at most {MAX_WARM_OVER_COLD}x cold on every suite");
}
