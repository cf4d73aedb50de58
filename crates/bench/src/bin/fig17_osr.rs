//! FIG 17 (beyond the paper): on-stack replacement into the optimizing tier.
//!
//! Call-count tier-up is blind to the single-call shape every suite line
//! item has: `main` is called exactly once, so a baseline-tier engine whose
//! promotion trigger lives at call boundaries runs the whole kernel in
//! baseline code no matter how hot its loops get. OSR fixes that — the
//! loop-back-edge hotness counter (riding the fused meter-check sites)
//! triggers the opt compile and the running frame transfers mid-loop.
//!
//! The figure measures exactly that repair, per suite:
//!
//! 1. **never-OSR** — the eager baseline configuration; one call per item,
//!    promotion never fires.
//! 2. **OSR** — the same configuration with a back-edge threshold armed;
//!    the same single call tiers up mid-activation.
//!
//! Checksums are cross-checked item by item (the binary doubles as a
//! whole-suite OSR differential), OSR transition counts come from the
//! telemetry counter the engine publishes, and the acceptance gate requires
//! the OSR run to spend at least 15% fewer simulated execution cycles than
//! never-OSR on at least 2 of the 3 suites.

use bench::{measure_item, print_header, BenchReport, Instrument, ItemMeasurement};
use engine::{Engine, EngineConfig, Imports, Instrumentation, Telemetry};
use spc::CompilerOptions;
use suites::BenchmarkItem;

/// Loop iterations a back edge must see before the transfer. High enough
/// that a handful of warm-up trips stay in baseline code, low enough that
/// every real kernel loop crosses it almost immediately.
const OSR_THRESHOLD: u32 = 100;

fn never_osr_config() -> EngineConfig {
    EngineConfig::baseline("spc", CompilerOptions::allopt())
}

fn osr_config() -> EngineConfig {
    EngineConfig::baseline("spc-osr", CompilerOptions::allopt()).with_osr(OSR_THRESHOLD)
}

/// Measures one item under the OSR configuration with telemetry attached,
/// returning the measurement plus the number of OSR transitions the
/// engine's counter recorded for that single call.
fn measure_item_osr(item: &BenchmarkItem) -> (ItemMeasurement, u64) {
    let measurement = measure_item(&osr_config(), item, Instrument::None);
    let engine = Engine::new(osr_config()).with_telemetry(Telemetry::enabled());
    let mut instance = engine
        .instantiate(&item.module, Imports::new(), Instrumentation::none())
        .expect("suite modules instantiate");
    engine
        .call_export(&mut instance, BenchmarkItem::ENTRY, &[])
        .expect("suite item runs");
    let osr_entries = engine
        .telemetry()
        .metrics()
        .expect("telemetry enabled")
        .snapshot()
        .counters
        .iter()
        .find(|(name, _)| name == "engine.osr_entries")
        .map(|(_, value)| *value)
        .unwrap_or(0);
    (measurement, osr_entries)
}

fn main() {
    let scale = bench::scale_from_args();
    print_header(
        "Figure 17 (beyond the paper)",
        "On-stack replacement: single-call hot loops reach the optimizing tier mid-activation",
    );
    let mut report = BenchReport::new("fig17");
    report.config(bench::scale_label(scale));

    let mut base: Vec<ItemMeasurement> = Vec::new();
    let mut osr: Vec<ItemMeasurement> = Vec::new();
    let mut entries_by_item: Vec<(&'static str, u64)> = Vec::new();
    let mut checksum_mismatches = 0usize;
    for suite in suites::all_suites(scale) {
        for item in &suite.items {
            let b = measure_item(&never_osr_config(), item, Instrument::None);
            let (o, entries) = measure_item_osr(item);
            if b.checksum != o.checksum {
                eprintln!(
                    "CHECKSUM MISMATCH {}/{}: {} vs {}",
                    b.suite, b.name, b.checksum, o.checksum
                );
                checksum_mismatches += 1;
            }
            entries_by_item.push((b.suite, entries));
            base.push(b);
            osr.push(o);
        }
    }
    let osr_entries_total: u64 = entries_by_item.iter().map(|(_, n)| n).sum();

    println!("\nSingle-call execution cycles, never-OSR baseline vs. OSR (threshold {OSR_THRESHOLD}):");
    println!(
        "{:<10} | {:>14} | {:>14} | {:>8} | {:>8}",
        "suite", "never-OSR", "OSR", "win", "entries"
    );
    println!(
        "{:-<10}-+-{:-<14}-+-{:-<14}-+-{:-<8}-+-{:-<8}",
        "", "", "", "", ""
    );
    let mut suites_with_win = Vec::new();
    for suite in ["polybench", "libsodium", "ostrich"] {
        let total = |items: &[ItemMeasurement]| -> u64 {
            items
                .iter()
                .filter(|m| m.suite == suite)
                .map(|m| m.exec_cycles)
                .sum()
        };
        let entries: u64 = entries_by_item
            .iter()
            .filter(|(s, _)| *s == suite)
            .map(|(_, n)| n)
            .sum();
        let b = total(&base);
        let o = total(&osr);
        let reduction = 100.0 * (1.0 - o as f64 / b as f64);
        println!(
            "{suite:<10} | {b:>14} | {o:>14} | {reduction:>6.1}% | {entries:>8}"
        );
        report.metric(&format!("{suite}.never_osr_cycles"), b as f64);
        report.metric(&format!("{suite}.osr_cycles"), o as f64);
        report.metric(&format!("{suite}.osr_reduction_pct"), reduction);
        // The gate: OSR must beat call-boundary-only tier-up by >= 15%.
        if o as f64 <= b as f64 * 0.85 {
            suites_with_win.push(suite);
        }
    }
    println!("\ntotal OSR transitions across the sweep: {osr_entries_total}");

    report.metric("osr_threshold", OSR_THRESHOLD as f64);
    report.metric("osr_entries_total", osr_entries_total as f64);
    report.metric("suites_with_15pct_win", suites_with_win.len() as f64);
    report.metric(
        "pass",
        if checksum_mismatches == 0 && suites_with_win.len() >= 2 && osr_entries_total > 0 {
            1.0
        } else {
            0.0
        },
    );
    report.write();
    println!();
    if checksum_mismatches > 0 {
        println!("FAIL: {checksum_mismatches} checksum mismatches between never-OSR and OSR");
        std::process::exit(1);
    }
    if osr_entries_total == 0 {
        println!("FAIL: the sweep never performed a single OSR transition");
        std::process::exit(1);
    }
    println!(
        "OSR ≥15% fewer cycles than never-OSR on {} of 3 suites ({:?})",
        suites_with_win.len(),
        suites_with_win
    );
    if suites_with_win.len() < 2 {
        println!("FAIL: the acceptance gate requires at least 2 suites");
        std::process::exit(1);
    }
    println!("PASS");
}
