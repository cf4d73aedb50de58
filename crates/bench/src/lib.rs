//! Shared measurement harness for the figure-reproduction binaries.
//!
//! Each `fig*` binary in `src/bin/` regenerates one table or figure of the
//! paper. They all share the machinery here: run every line item of every
//! suite under an engine configuration, collect execution cycles (the
//! reproduction's "execution time"), wall-clock setup and compile time, and
//! aggregate per suite with the same average / min / max presentation the
//! paper's bar charts use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use engine::{Engine, EngineConfig, Imports, Instrumentation};
use std::time::Duration;
use suites::{BenchmarkItem, Scale};

/// The measurement of one line item under one engine configuration.
#[derive(Debug, Clone)]
pub struct ItemMeasurement {
    /// Suite the item belongs to.
    pub suite: &'static str,
    /// Line-item name.
    pub name: String,
    /// Simulated execution cycles of `main`.
    pub exec_cycles: u64,
    /// Wall-clock instantiation time (validation, preparation, eager
    /// compilation, segments).
    pub setup_wall: Duration,
    /// Total wall-clock compilation time (eager plus lazy/tier-up; see
    /// [`engine::RunMetrics::total_compile_wall`]).
    pub compile_wall: Duration,
    /// Wasm bytes compiled.
    pub compiled_wasm_bytes: u64,
    /// Machine-code bytes produced by the configuration's backend (the
    /// virtual ISA's estimate, or real encodings under the x86-64 backend).
    pub compiled_machine_bytes: u64,
    /// Size of the module binary in bytes.
    pub module_bytes: u64,
    /// Probe firings observed, when instrumentation was attached.
    pub probe_firings: u64,
}

/// How to instrument a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instrument {
    /// No instrumentation.
    None,
    /// Attach the branch monitor to all conditional branches.
    BranchMonitor,
}

/// Runs one item under `config` and collects its measurement.
///
/// # Panics
///
/// Panics if the module fails to instantiate or traps — benchmark items are
/// expected to run successfully under every configuration.
pub fn measure_item(
    config: &EngineConfig,
    item: &BenchmarkItem,
    instrument: Instrument,
) -> ItemMeasurement {
    let engine = Engine::new(config.clone());
    let instrumentation = match instrument {
        Instrument::None => Instrumentation::none(),
        Instrument::BranchMonitor => Instrumentation::branch_monitor(&item.module),
    };
    let mut instance = engine
        .instantiate(&item.module, Imports::new(), instrumentation)
        .unwrap_or_else(|e| panic!("{}/{} failed to instantiate under {}: {e}", item.suite, item.name, config.name));
    engine
        .call_export(&mut instance, BenchmarkItem::ENTRY, &[])
        .unwrap_or_else(|e| panic!("{}/{} trapped under {}: {e}", item.suite, item.name, config.name));
    ItemMeasurement {
        suite: item.suite,
        name: item.name.clone(),
        exec_cycles: instance.metrics.exec_cycles,
        setup_wall: instance.metrics.setup_wall,
        compile_wall: instance.metrics.total_compile_wall(),
        compiled_wasm_bytes: instance.metrics.compiled_wasm_bytes,
        compiled_machine_bytes: instance.metrics.compiled_machine_bytes,
        module_bytes: item.encoded_size() as u64,
        probe_firings: instance.instrumentation.total_firings(),
    }
}

/// Runs every line item of every suite under `config`.
pub fn measure_all(
    config: &EngineConfig,
    scale: Scale,
    instrument: Instrument,
) -> Vec<ItemMeasurement> {
    let mut out = Vec::new();
    for suite in suites::all_suites(scale) {
        for item in &suite.items {
            out.push(measure_item(config, item, instrument));
        }
    }
    out
}

/// The per-suite summary statistic used by the paper's bar charts: the
/// average over line items plus the minimum and maximum line item.
#[derive(Debug, Clone, Copy)]
pub struct SuiteSummary {
    /// Mean of the per-item values.
    pub mean: f64,
    /// Minimum per-item value.
    pub min: f64,
    /// Maximum per-item value.
    pub max: f64,
}

/// Summarizes a per-item metric over one suite.
///
/// # Panics
///
/// Panics on an empty slice — a suite with no line items is a harness bug,
/// not a value to average.
pub fn summarize(values: &[f64]) -> SuiteSummary {
    assert!(!values.is_empty(), "cannot summarize an empty suite");
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    SuiteSummary { mean, min, max }
}

/// Groups per-item ratios by suite (preserving the suite order of
/// [`suites::all_suites`]) and returns `(suite name, summary)` rows.
pub fn summarize_by_suite(
    items: &[ItemMeasurement],
    ratio: impl Fn(&ItemMeasurement) -> f64,
) -> Vec<(&'static str, SuiteSummary)> {
    let mut rows = Vec::new();
    for suite_name in ["polybench", "libsodium", "ostrich"] {
        let values: Vec<f64> = items
            .iter()
            .filter(|m| m.suite == suite_name)
            .map(&ratio)
            .collect();
        if !values.is_empty() {
            rows.push((suite_name, summarize(&values)));
        }
    }
    rows
}

/// Pairs measurements of the same items under two configurations (by suite
/// and name) and applies `f` to each pair.
pub fn paired<'a>(
    a: &'a [ItemMeasurement],
    b: &'a [ItemMeasurement],
) -> impl Iterator<Item = (&'a ItemMeasurement, &'a ItemMeasurement)> {
    a.iter().zip(b.iter()).inspect(|(x, y)| {
        debug_assert_eq!(x.name, y.name, "measurement vectors must align");
    })
}

/// The scale the figure binaries run at by default. `--full` switches to the
/// paper-sized workloads.
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--full") {
        Scale::Default
    } else {
        Scale::Test
    }
}

/// Formats a figure header the binaries print before their tables.
pub fn print_header(figure: &str, description: &str) {
    println!("==========================================================");
    println!("{figure}: {description}");
    println!("(suites: polybench=28, libsodium=39, ostrich=11 line items)");
    println!("==========================================================");
}

/// Prints a per-suite summary table with one column group per configuration.
pub fn print_suite_table(configs: &[String], rows: &[(&'static str, Vec<SuiteSummary>)]) {
    print!("{:<12}", "suite");
    for c in configs {
        print!(" | {c:^26}");
    }
    println!();
    print!("{:-<12}", "");
    for _ in configs {
        print!("-+-{:-<26}", "");
    }
    println!();
    for (suite, summaries) in rows {
        print!("{suite:<12}");
        for s in summaries {
            print!(
                " | {:>7.2} [{:>7.2},{:>8.2}]",
                s.mean, s.min, s.max
            );
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc::CompilerOptions;

    #[test]
    fn summarize_computes_mean_min_max() {
        let s = summarize(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-9);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
    }

    #[test]
    #[should_panic(expected = "cannot summarize an empty suite")]
    fn summarize_of_empty_input_panics() {
        summarize(&[]);
    }

    #[test]
    fn measure_one_item_produces_sane_numbers() {
        let suite = suites::polybench::suite(Scale::Test);
        let item = &suite.items[0];
        let interp = measure_item(
            &EngineConfig::interpreter("wizeng-int"),
            item,
            Instrument::None,
        );
        let jit = measure_item(
            &EngineConfig::baseline("wizeng-spc", CompilerOptions::allopt()),
            item,
            Instrument::None,
        );
        assert!(interp.exec_cycles > jit.exec_cycles);
        assert!(jit.compile_wall > Duration::ZERO);
        assert_eq!(interp.compile_wall, Duration::ZERO);
        assert!(jit.compiled_wasm_bytes > 0);
        assert!(interp.module_bytes > 100);
    }

    #[test]
    fn branch_monitor_instrumentation_fires() {
        let suite = suites::ostrich::suite(Scale::Test);
        let item = suite.items.iter().find(|i| i.name == "bfs").unwrap();
        let m = measure_item(
            &EngineConfig::interpreter("wizeng-int"),
            item,
            Instrument::BranchMonitor,
        );
        assert!(m.probe_firings > 0, "branch monitor observed branches");
    }
}
