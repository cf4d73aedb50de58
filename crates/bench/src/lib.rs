//! Shared measurement harness for the figure-reproduction binaries.
//!
//! Each `fig*` binary in `src/bin/` regenerates one table or figure of the
//! paper. They all share the machinery here: run every line item of every
//! suite under an engine configuration, collect execution cycles (the
//! reproduction's "execution time"), wall-clock setup and compile time, and
//! aggregate per suite with the same average / min / max presentation the
//! paper's bar charts use. A per-suite table is a list of [`Column`]s, each a
//! per-item metric over a run [`paired`] with a reference run. Figs. 4–7
//! compute their tables here ([`speedup_over_interpreter`], [`value_tags`],
//! [`probe_overhead`], [`baseline_exec_time`]), so a test reads the numbers
//! the binaries print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use engine::{Engine, EngineConfig, Imports, Instrumentation};
use spc::{CompilerOptions, ProbeMode};
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
fn summarize(values: &[f64]) -> SuiteSummary {
    assert!(!values.is_empty(), "cannot summarize an empty suite");
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    SuiteSummary { mean, min, max }
}

/// Pairs measurements of the same items under two configurations, item by
/// item.
///
/// # Panics
///
/// Panics, in every build, if the two runs do not list the same items in the
/// same order.
pub fn paired<'a>(
    a: &'a [ItemMeasurement],
    b: &'a [ItemMeasurement],
) -> impl Iterator<Item = (&'a ItemMeasurement, &'a ItemMeasurement)> {
    assert_eq!(a.len(), b.len(), "measurement vectors must align");
    a.iter().zip(b).inspect(|(x, y)| {
        assert!(x.suite == y.suite && x.name == y.name, "measurement vectors must align");
    })
}

/// `a`'s execution cycles over `b`'s.
pub fn cycles_over(a: &ItemMeasurement, b: &ItemMeasurement) -> f64 {
    a.exec_cycles as f64 / b.exec_cycles.max(1) as f64
}

/// One column of a per-suite figure table: a configuration's name and one
/// summary per suite, in [`suites::SUITES`] order.
#[derive(Debug, Clone)]
pub struct Column {
    /// The configuration's name, printed as the column heading.
    pub name: String,
    /// One summary per suite, in [`suites::SUITES`] order.
    pub suites: Vec<SuiteSummary>,
}

impl Column {
    /// Summarizes `metric(reference item, run item)` over the items of `run`
    /// paired with `reference` (see [`paired`]).
    pub fn new(
        name: impl Into<String>,
        reference: &[ItemMeasurement],
        run: &[ItemMeasurement],
        metric: impl Fn(&ItemMeasurement, &ItemMeasurement) -> f64,
    ) -> Column {
        Column::from_values(name, paired(reference, run).map(|(r, m)| (r.suite, metric(r, m))))
    }

    /// Summarizes per-item `(suite, value)` pairs by suite.
    ///
    /// # Panics
    ///
    /// Panics if a suite of [`suites::SUITES`] has no value.
    pub fn from_values<'a>(
        name: impl Into<String>,
        values: impl IntoIterator<Item = (&'a str, f64)>,
    ) -> Column {
        let values: Vec<(&str, f64)> = values.into_iter().collect();
        let summary = |suite: &str| {
            let of_suite: Vec<f64> =
                values.iter().filter(|(s, _)| *s == suite).map(|(_, v)| *v).collect();
            summarize(&of_suite)
        };
        let suites = suites::SUITES.iter().map(|(suite, _)| summary(suite)).collect();
        Column { name: name.into(), suites }
    }
}

/// Fig. 4: execution-time speedup of each `figure4_configs` configuration
/// over the interpreter.
pub fn speedup_over_interpreter(scale: Scale) -> Vec<Column> {
    let interp = measure_all(&EngineConfig::interpreter("wizeng-int"), scale, Instrument::None);
    CompilerOptions::figure4_configs()
        .into_iter()
        .map(|options| {
            let name = options.name.clone();
            let jit = measure_all(&EngineConfig::baseline(&name, options), scale, Instrument::None);
            Column::new(name, &interp, &jit, cycles_over)
        })
        .collect()
}

/// Fig. 5: execution time of each `figure5_configs` tagging configuration
/// relative to the first, `notags`.
pub fn value_tags(scale: Scale) -> Vec<Column> {
    let configs = CompilerOptions::figure5_configs();
    let notags = measure_all(
        &EngineConfig::baseline("notags", configs[0].clone()),
        scale,
        Instrument::None,
    );
    configs
        .into_iter()
        .skip(1)
        .map(|options| {
            let name = options.name.clone();
            let run = measure_all(&EngineConfig::baseline(&name, options), scale, Instrument::None);
            Column::new(name, &notags, &run, |notags, m| cycles_over(m, notags))
        })
        .collect()
}

/// Fig. 6: the branch monitor's added execution time under `int`, `jit`
/// (runtime probes) and `optjit` (intrinsified probes), over the
/// interpreter's uninstrumented time; then `jit`'s and `optjit`'s over the
/// uninstrumented JIT's, summarized over all items.
pub fn probe_overhead(scale: Scale) -> (Vec<Column>, Vec<(&'static str, SuiteSummary)>) {
    let interp = EngineConfig::interpreter("wizeng-int");
    let interp_plain = measure_all(&interp, scale, Instrument::None);
    let interp_mon = measure_all(&interp, scale, Instrument::BranchMonitor);
    let jit_options =
        CompilerOptions { probe_mode: ProbeMode::Runtime, ..CompilerOptions::allopt() };
    let jit_plain = measure_all(
        &EngineConfig::baseline("wizeng-spc", CompilerOptions::allopt()),
        scale,
        Instrument::None,
    );
    let jit_mon =
        measure_all(&EngineConfig::baseline("jit", jit_options), scale, Instrument::BranchMonitor);
    let optjit_mon = measure_all(
        &EngineConfig::baseline("optjit", CompilerOptions::allopt()),
        scale,
        Instrument::BranchMonitor,
    );
    let added = |base: &ItemMeasurement, with: &ItemMeasurement| {
        with.exec_cycles as f64 - base.exec_cycles as f64
    };
    let table = [
        ("int", &interp_plain, &interp_mon),
        ("jit", &jit_plain, &jit_mon),
        ("optjit", &jit_plain, &optjit_mon),
    ]
    .into_iter()
    .map(|(name, plain, monitored)| {
        let overheads = paired(&interp_plain, plain).zip(paired(plain, monitored)).map(
            |((ibase, _), (base, with))| {
                (ibase.suite, added(base, with) / ibase.exec_cycles.max(1) as f64)
            },
        );
        Column::from_values(name, overheads)
    })
    .collect();
    let vs_jit = [("jit", &jit_mon), ("optjit", &optjit_mon)]
        .into_iter()
        .map(|(name, monitored)| {
            let ratios: Vec<f64> = paired(&jit_plain, monitored)
                .map(|(base, with)| added(base, with) / base.exec_cycles.max(1) as f64)
                .collect();
            (name, summarize(&ratios))
        })
        .collect();
    (table, vs_jit)
}

/// Fig. 7: execution time of the five other design profiles relative to
/// Wizard-SPC.
pub fn baseline_exec_time(scale: Scale) -> Vec<Column> {
    profile_columns(scale, |wizard, m| cycles_over(m, wizard)).1
}

/// Measures Wizard-SPC (the first of [`spc::all_profiles`]) and returns that
/// run with one column per other profile of `metric(wizard item, item)`.
pub fn profile_columns(
    scale: Scale,
    metric: impl Fn(&ItemMeasurement, &ItemMeasurement) -> f64,
) -> (Vec<ItemMeasurement>, Vec<Column>) {
    let profiles = spc::all_profiles();
    let wizard = measure_all(
        &EngineConfig::baseline("wizeng-spc", profiles[0].options.clone()),
        scale,
        Instrument::None,
    );
    let columns = profiles[1..]
        .iter()
        .map(|profile| {
            let run = measure_all(
                &EngineConfig::baseline(profile.name, profile.options.clone()),
                scale,
                Instrument::None,
            );
            Column::new(profile.name, &wizard, &run, &metric)
        })
        .collect();
    (wizard, columns)
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
    let counts: Vec<String> =
        suites::SUITES.iter().map(|(name, items)| format!("{name}={items}")).collect();
    println!("==========================================================");
    println!("{figure}: {description}");
    println!("(suites: {} line items)", counts.join(", "));
    println!("==========================================================");
}

/// Prints a per-suite summary table with one column group per column.
pub fn print_suite_table(columns: &[Column]) {
    print!("{:<12}", "suite");
    for c in columns {
        print!(" | {:^26}", c.name);
    }
    println!();
    print!("{:-<12}", "");
    for _ in columns {
        print!("-+-{:-<26}", "");
    }
    println!();
    for (row, (suite, _)) in suites::SUITES.iter().enumerate() {
        print!("{suite:<12}");
        for s in columns.iter().map(|c| c.suites[row]) {
            print!(" | {:>7.2} [{:>7.2},{:>8.2}]", s.mean, s.min, s.max);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(suite: &'static str, name: &str, exec_cycles: u64) -> ItemMeasurement {
        ItemMeasurement {
            suite,
            name: name.to_string(),
            exec_cycles,
            setup_wall: Duration::ZERO,
            compile_wall: Duration::ZERO,
            compiled_wasm_bytes: 0,
            compiled_machine_bytes: 0,
            module_bytes: 0,
            probe_firings: 0,
        }
    }

    /// One item per suite, in reverse [`suites::SUITES`] order, with
    /// `cycles[i]` for the item of the `i`th suite.
    fn run(cycles: [u64; 3]) -> Vec<ItemMeasurement> {
        suites::SUITES.iter().zip(cycles).rev().map(|((suite, _), c)| item(suite, "x", c)).collect()
    }

    #[test]
    fn a_column_summarizes_the_metric_per_suite_in_suites_order() {
        let reference = run([10, 20, 40]);
        let column = Column::new("c", &reference, &run([20, 60, 40]), |r, m| cycles_over(m, r));
        assert_eq!(column.name, "c");
        let means: Vec<f64> = column.suites.iter().map(|s| s.mean).collect();
        assert_eq!(means, [2.0, 3.0, 1.0], "metric(reference, item), rows in suites::SUITES order");
        let column = Column::new("c", &reference, &run([20, 60, 40]), cycles_over);
        assert_eq!(column.suites[0].mean, 0.5, "the first argument is the reference item");
    }

    #[test]
    #[should_panic(expected = "measurement vectors must align")]
    fn a_column_refuses_runs_that_list_different_items() {
        let mut other = run([1, 1, 1]);
        other[1].name = "y".to_string();
        Column::new("c", &run([1, 1, 1]), &other, cycles_over);
    }

    #[test]
    #[should_panic(expected = "measurement vectors must align")]
    fn a_column_refuses_runs_that_list_items_in_different_suites() {
        let mut other = run([1, 1, 1]);
        other.swap(0, 2);
        Column::new("c", &run([1, 1, 1]), &other, cycles_over);
    }

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
