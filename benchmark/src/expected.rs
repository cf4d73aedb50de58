//! Reference outputs of the suite items: `expected/suites-{test,default}.tsv`.
//!
//! The files are committed, so a run compares against a fixed answer and not
//! against whatever the tiers agree on today. `--regen-expected` rewrites
//! them from the interpreter and refuses unless all eight tier×backend
//! configurations give the same outcome for every item.

use crate::sut::{self, Outcome, Scale};
use std::collections::BTreeMap;
use std::path::Path;

const TEST_TSV: &str = include_str!("../expected/suites-test.tsv");
const DEFAULT_TSV: &str = include_str!("../expected/suites-default.tsv");

/// Suite items whose default-scale build traps (`IntegerOverflow`, in every
/// tier): default-scale workloads run their test-scale build instead. See
/// README "Defects found".
pub const TRAPPING_AT_DEFAULT: [&str; 2] = ["ostrich/nbody", "ostrich/lavamd"];

fn file_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "suites-test.tsv",
        Scale::Default => "suites-default.tsv",
    }
}

fn render(outcome: &Outcome) -> String {
    match outcome {
        Ok(value) => value.to_string(),
        Err(trap) => format!("trap:{trap}"),
    }
}

fn parse(text: &str) -> BTreeMap<String, Outcome> {
    text.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (name, value) = line
                .split_once('\t')
                .expect("expected/*.tsv: name<TAB>outcome");
            let outcome = match value.strip_prefix("trap:") {
                Some(trap) => Err(trap.to_string()),
                None => Ok(value
                    .parse::<i32>()
                    .expect("expected/*.tsv: an i32 or trap:<reason>")),
            };
            (name.to_string(), outcome)
        })
        .collect()
}

/// The committed outcome of every suite item at `scale`.
pub fn outcomes(scale: Scale) -> BTreeMap<String, Outcome> {
    parse(match scale {
        Scale::Test => TEST_TSV,
        Scale::Default => DEFAULT_TSV,
    })
}

/// The items a workload at `scale` runs, each with its committed outcome.
/// At default scale the two trapping items are swapped for their test-scale
/// builds, so every op of every workload succeeds.
pub fn items(scale: Scale) -> Vec<(sut::Item, Outcome)> {
    let expected = outcomes(scale);
    let test_items = sut::suite_items(Scale::Test);
    let test_expected = outcomes(Scale::Test);
    sut::suite_items(scale)
        .into_iter()
        .zip(test_items)
        .map(|(item, test_item)| {
            let swap = scale == Scale::Default && TRAPPING_AT_DEFAULT.contains(&item.name.as_str());
            let (item, table) = if swap {
                (test_item, &test_expected)
            } else {
                (item, &expected)
            };
            let outcome = table
                .get(&item.name)
                .unwrap_or_else(|| {
                    panic!(
                        "no expected outcome for {}; run --regen-expected",
                        item.name
                    )
                })
                .clone();
            (item, outcome)
        })
        .collect()
}

/// Rewrites both files under `dir`; errors name the first disagreeing item.
pub fn regenerate(dir: &Path) -> Result<(), String> {
    for scale in [Scale::Test, Scale::Default] {
        let mut text = String::from(
            "# item<TAB>checksum of main, or trap:<reason>. Written by `perfbench --regen-expected`\n\
             # from the interpreter; all 8 tier x backend configurations agreed on every row.\n",
        );
        for item in sut::suite_items(scale) {
            let mut outcomes = sut::matrix().into_iter().map(|(label, config)| {
                let engine = sut::engine(config);
                let outcome = sut::instantiate(&engine, &item.module)
                    .and_then(|mut instance| sut::call_i32(&engine, &mut instance, sut::ENTRY));
                (label, outcome)
            });
            let (_, reference) = outcomes
                .next()
                .expect("the matrix starts with the interpreter");
            for (label, outcome) in outcomes {
                if outcome != reference {
                    return Err(format!(
                        "{}: {label} gives {} but the interpreter gives {}",
                        item.name,
                        render(&outcome),
                        render(&reference)
                    ));
                }
            }
            text.push_str(&format!("{}\t{}\n", item.name, render(&reference)));
        }
        let path = dir.join(file_name(scale));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_files_cover_all_78_items_and_record_the_default_scale_traps() {
        for scale in [Scale::Test, Scale::Default] {
            let table = outcomes(scale);
            assert_eq!(table.len(), 78);
            for item in sut::suite_items(scale) {
                assert!(table.contains_key(&item.name), "{}", item.name);
            }
        }
        assert!(outcomes(Scale::Test).values().all(Result::is_ok));
        let default = outcomes(Scale::Default);
        for name in TRAPPING_AT_DEFAULT {
            assert_eq!(default[name], Err("IntegerOverflow".to_string()));
        }
        assert_eq!(
            default.values().filter(|o| o.is_err()).count(),
            TRAPPING_AT_DEFAULT.len()
        );
        // The workloads never see a trapping item.
        assert!(items(Scale::Default)
            .iter()
            .all(|(_, outcome)| outcome.is_ok()));
    }

    #[test]
    fn the_interpreter_reproduces_the_test_scale_file() {
        let engine = sut::engine(sut::interpreter());
        for (item, expected) in items(Scale::Test) {
            let mut instance = sut::instantiate(&engine, &item.module).expect("instantiates");
            assert_eq!(
                sut::call_i32(&engine, &mut instance, sut::ENTRY),
                expected,
                "{}",
                item.name
            );
        }
    }
}
