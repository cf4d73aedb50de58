//! FIG 16 (beyond the paper): the telemetry layer end to end.
//!
//! Two experiments over the observability stack, each with a gate:
//!
//! 1. **Serving trace** — a fig15-style batch through the `serve` stack with
//!    a shared telemetry sink attached; asserts the trace actually covers
//!    the request lifecycle (compile, cache, pool checkout, serve
//!    enqueue/start/finish) and writes the Chrome trace-event JSON to
//!    `TRACE_fig16.json` (load it at `chrome://tracing` or ui.perfetto.dev).
//!
//! 2. **Profiler attribution** — a module with one hot loop and one cold
//!    helper, run under every tier × backend with an epoch ticker driving
//!    the sampling profiler. The gate requires ≥ 90% of samples to land on
//!    the hot function in every configuration, and the dominant tier label
//!    to match the configuration's tier.
//!
//! What telemetry costs is not measured here: events and samples charge zero
//! simulated cycles, which `tests/telemetry.rs` asserts exactly in all three
//! tiers, and the wall-clock cost is perfbench's `telemetry.on_over_off` and
//! `telemetry.emit_ns`.

use bench::print_header;
use engine::{CodeBackend, Engine, EngineConfig, Imports, Instrumentation, Telemetry};
use serve::deadline::EpochTicker;
use serve::{Request, RequestStatus, Server, ServerConfig};
use spc::CompilerOptions;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;
use telemetry::EventKind;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, ValueType};
use wasm::Module;

/// Far above the hot loop's cost, so nothing traps.
const AMPLE_FUEL: u64 = u64::MAX / 2;
/// Countdown iterations of the hot loop per `main` call in part 2.
const HOT_ITERS: i32 = 200_000;
/// Part 2 keeps calling `main` until the profiler holds this many samples.
const MIN_SAMPLES: u64 = 24;
/// ... but gives up (and fails the gate) after this many calls.
const MAX_CALLS: usize = 400;

fn tier_configs() -> [(&'static str, EngineConfig); 3] {
    [
        ("int", EngineConfig::interpreter("int")),
        ("spc", EngineConfig::baseline("spc", CompilerOptions::allopt())),
        ("opt", EngineConfig::optimizing("opt")),
    ]
}

/// `cold(n)` does one multiply; `hot(n)` runs an LCG countdown loop `n`
/// times; `main()` calls both and returns the checksum. Function indices are
/// (cold, hot, main) = (0, 1, 2).
fn profile_module() -> Module {
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
        // local 0 = n (countdown), local 1 = acc.
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
            .i32_const(HOT_ITERS)
            .call(hot)
            .op(Opcode::I32Add);
        b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish())
    };
    b.export_func("main", main);
    b.finish()
}

const HOT_FUNC: u32 = 1;

fn main() {
    print_header(
        "FIG 16 (beyond the paper)",
        "Telemetry: trace coverage and profiler attribution",
    );
    let mut failures = Vec::new();

    // ---- Part 1: trace coverage through the serving stack ----------------
    println!("\n[1] request-lifecycle trace through the serving stack:");
    let telemetry = Telemetry::enabled();
    let mut server = Server::new(
        ServerConfig {
            workers: 2,
            telemetry: telemetry.clone(),
            ..ServerConfig::default()
        },
        EngineConfig::baseline("wizeng-spc", CompilerOptions::allopt()),
    );
    let suites = suites::all_suites(suites::Scale::Test);
    let mut apps = Vec::new();
    for item in suites.iter().flat_map(|s| s.items.iter()).take(6) {
        apps.push(
            server
                .register_app(&item.name, suites::BenchmarkItem::ENTRY, item.module.clone())
                .expect("suite modules register"),
        );
    }
    let requests: Vec<Request> = (0..apps.len() * 3)
        .map(|i| Request::to_app(apps[i % apps.len()]))
        .collect();
    let total = requests.len();
    let results = server.run(requests);
    assert!(results.iter().all(|r| matches!(r.status, RequestStatus::Ok(_))));

    let rings = telemetry.drain();
    let mut compile_ends = 0u64;
    let mut cache_lookups = 0u64;
    let mut pool_checkouts = 0u64;
    let (mut enq, mut started, mut finished) = (0u64, 0u64, 0u64);
    for (_, events, _) in &rings {
        for event in events {
            match event.kind {
                EventKind::CompileEnd { .. } => compile_ends += 1,
                EventKind::CacheLookup { .. } => cache_lookups += 1,
                EventKind::PoolCheckout { .. } => pool_checkouts += 1,
                EventKind::ServeEnqueue { .. } => enq += 1,
                EventKind::ServeStart { .. } => started += 1,
                EventKind::ServeFinish { .. } => finished += 1,
                _ => {}
            }
        }
    }
    println!(
        "{} rings, {} compile spans, {} cache lookups, {} pool checkouts, \
         {enq}/{started}/{finished} requests enqueued/started/finished, {} dropped",
        rings.len(),
        compile_ends,
        cache_lookups,
        pool_checkouts,
        telemetry.dropped_events(),
    );
    for (label, value, minimum) in [
        ("compile spans", compile_ends, 1),
        ("cache lookups", cache_lookups, 1),
        ("pool checkouts", pool_checkouts, total as u64),
        ("serve enqueues", enq, total as u64),
        ("serve starts", started, total as u64),
        ("serve finishes", finished, total as u64),
    ] {
        if value < minimum {
            failures.push(format!("trace covers {value} {label}, expected >= {minimum}"));
        }
    }
    // Per-ring drop counts: a lossy ring means the end of that thread's
    // burst is missing from TRACE_fig16.json, so name the offender.
    for (label, _, dropped) in &rings {
        if *dropped > 0 {
            println!("  ring '{label}' dropped {dropped} events (trace is lossy)");
        }
    }
    let trace_json = telemetry::trace::chrome_trace(&rings);
    std::fs::write("TRACE_fig16.json", &trace_json).expect("trace file writes");
    println!("trace: TRACE_fig16.json ({} bytes)", trace_json.len());

    // ---- Part 2: sampling-profiler attribution across tiers and backends -
    println!("\n[2] epoch-profiler attribution of a hot loop (>= 90% required):");
    println!(
        "{:<6} | {:<6} | {:>8} | {:>9} | {:<8}",
        "tier", "backend", "samples", "hot share", "top tier"
    );
    println!("{:-<6}-+-{:-<6}-+-{:-<8}-+-{:-<9}-+-{:-<8}", "", "", "", "", "");
    let module = profile_module();
    for (tier, config) in &tier_configs() {
        let expected_tier = match *tier {
            "int" => telemetry::Tier::Interp,
            "spc" => telemetry::Tier::Baseline,
            _ => telemetry::Tier::Opt,
        };
        for (backend_label, backend) in [("virt", CodeBackend::VirtualIsa), ("x64", CodeBackend::X64)]
        {
            let config = config.clone().with_metering().with_backend(backend);
            let engine = Engine::new(config)
                .with_telemetry(Telemetry::enabled())
                .with_epoch(Arc::new(AtomicU64::new(0)));
            let ticker =
                EpochTicker::start(Arc::clone(engine.epoch()), Duration::from_micros(150));
            let mut instance = engine
                .instantiate(&module, Imports::new(), Instrumentation::none())
                .expect("profile module instantiates");
            let profiler = || engine.telemetry().profiler().expect("telemetry enabled");
            let mut calls = 0usize;
            while profiler().total_samples() < MIN_SAMPLES && calls < MAX_CALLS {
                instance.set_fuel(AMPLE_FUEL);
                engine
                    .call_export(&mut instance, "main", &[])
                    .expect("profile module runs");
                calls += 1;
            }
            drop(ticker);
            let samples = profiler().total_samples();
            let hot_share = profiler().share(HOT_FUNC);
            let top = profiler().snapshot().into_iter().next();
            let top_tier = top.map(|e| e.tier.label()).unwrap_or("-");
            println!(
                "{tier:<6} | {backend_label:<6} | {samples:>8} | {:>8.1}% | {top_tier:<8}",
                hot_share * 100.0
            );
            if samples < MIN_SAMPLES {
                failures.push(format!(
                    "{tier}/{backend_label}: only {samples} samples after {calls} calls"
                ));
            } else if hot_share < 0.90 {
                failures.push(format!(
                    "{tier}/{backend_label}: hot-loop share {:.1}% < 90%",
                    hot_share * 100.0
                ));
            } else if top_tier != expected_tier.label() {
                failures.push(format!(
                    "{tier}/{backend_label}: dominant samples in tier {top_tier}, expected {}",
                    expected_tier.label()
                ));
            }
        }
    }

    if failures.is_empty() {
        println!("\nGATES PASS: trace covers the lifecycle, profiler attributes >= 90%");
    } else {
        for f in &failures {
            println!("GATE FAIL: {f}");
        }
        std::process::exit(1);
    }
}
