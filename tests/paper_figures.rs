//! The per-suite tables of Figs. 4, 5 and 7 at test scale, pinned to the
//! two decimals their binaries print. Each table is computed by the same
//! `bench` function the figure binary prints, from simulated cycles only,
//! so a change to generated code or to the cost model that moves a printed
//! cell fails here.

use bench::Column;
use suites::Scale;

/// Per column: its name and, per suite in `suites::SUITES` order, the
/// printed `mean min max`.
type Golden = [(&'static str, [&'static str; 3])];

const FIG04: [(&str, [&str; 3]); 5] = [
    ("allopt", ["7.83 7.40 8.58", "11.91 9.62 14.09", "7.49 5.82 11.49"]),
    ("nok", ["7.09 6.61 7.56", "10.56 8.42 12.49", "6.82 5.37 10.38"]),
    ("nokfold", ["7.83 7.40 8.58", "11.91 9.62 14.09", "7.49 5.82 11.49"]),
    ("noisel", ["7.13 6.62 7.56", "10.56 8.42 12.49", "6.86 5.47 10.38"]),
    ("nomr", ["6.64 6.12 7.12", "9.07 7.85 10.18", "6.50 5.69 8.94"]),
];

const FIG05: [(&str, [&str; 3]); 5] = [
    ("eagertags", ["2.20 2.11 2.31", "2.99 2.55 3.41", "2.15 1.86 2.93"]),
    ("eagertags-o", ["2.08 2.03 2.15", "2.63 2.31 2.95", "2.01 1.74 2.57"]),
    ("eagertags-l", ["1.12 1.09 1.16", "1.36 1.24 1.46", "1.14 1.09 1.36"]),
    ("on-demand", ["1.00 1.00 1.00", "1.00 1.00 1.00", "1.00 1.00 1.00"]),
    ("lazytags", ["1.00 1.00 1.00", "1.00 1.00 1.00", "1.00 1.00 1.00"]),
];

const FIG07: [(&str, [&str; 3]); 5] = [
    ("wazero", ["1.28 1.24 1.34", "1.43 1.37 1.51", "1.24 1.11 1.39"]),
    ("wasm-now", ["1.00 1.00 1.00", "1.00 1.00 1.00", "1.00 1.00 1.00"]),
    ("wasmer-base", ["1.28 1.23 1.34", "1.43 1.37 1.51", "1.23 1.09 1.39"]),
    ("v8-liftoff", ["1.00 1.00 1.00", "1.00 1.00 1.00", "1.00 1.00 1.00"]),
    ("sm-base", ["1.00 1.00 1.00", "1.00 1.00 1.00", "1.00 1.00 1.00"]),
];

fn assert_table(figure: &str, columns: &[Column], golden: &Golden) {
    let printed: Vec<(&str, Vec<String>)> = columns
        .iter()
        .map(|c| {
            let cells = c.suites.iter().map(|s| format!("{:.2} {:.2} {:.2}", s.mean, s.min, s.max));
            (c.name.as_str(), cells.collect())
        })
        .collect();
    let golden: Vec<(&str, Vec<String>)> =
        golden.iter().map(|(name, cells)| (*name, cells.map(String::from).to_vec())).collect();
    assert_eq!(printed, golden, "{figure}: columns of per-suite `mean min max`");
}

#[test]
fn fig04_speedups_over_the_interpreter_are_pinned() {
    assert_table("Fig. 4", &bench::speedup_over_interpreter(Scale::Test), &FIG04);
}

#[test]
fn fig05_tagging_costs_over_notags_are_pinned() {
    assert_table("Fig. 5", &bench::value_tags(Scale::Test), &FIG05);
}

#[test]
fn fig07_profile_exec_times_over_wizard_spc_are_pinned() {
    assert_table("Fig. 7", &bench::baseline_exec_time(Scale::Test), &FIG07);
}
