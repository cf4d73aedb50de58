//! Sidetable and fuel-plan lookups against ordered reference maps.
//!
//! `Sidetable` and `FuelPlan` store their entries as offset-sorted vectors
//! and answer by binary search. This file rebuilds, for every function the
//! repository ships — the three benchmark suites and every module of the
//! conformance corpus — what a `BTreeMap` keyed by offset would hold, from a
//! walk of the body that shares no code with the validator that writes both
//! tables, and requires the two to agree at every offset of every body
//! (`tests/proptest_differential.rs` runs the same check over its generated
//! programs). The tables checked are the ones the engine runs from
//! (`validate(module)` → `FuncInfo`), and the standalone entry points
//! `build_sidetable` / `FuelPlan::build` must return equal ones. That the
//! stored offsets are strictly increasing is `debug_assert!`ed where the
//! tables are finished, which this file exercises on the same functions.

mod common;

use conform::script::{Command, ModuleForm};
use suites::Scale;

#[test]
fn suite_functions_look_up_like_ordered_maps() {
    let mut functions = 0;
    for suite in suites::all_suites(Scale::Test) {
        for item in &suite.items {
            common::assert_lookups_match_reference(
                &item.module,
                &format!("{}/{}", suite.name, item.name),
            );
            functions += item.module.funcs.len();
        }
    }
    assert!(functions > 78, "every suite item contributes functions ({functions})");
}

#[test]
fn conformance_corpus_functions_look_up_like_ordered_maps() {
    let mut modules = 0;
    for script in conform::load_corpus() {
        for (command, _) in &script.commands {
            let Command::Module(form) = command else { continue };
            let module = match form {
                ModuleForm::Text(expr) => wasm::wat::lower::module_from_sexpr(expr).ok(),
                ModuleForm::Binary(bytes) => wasm::decode::decode(bytes).ok(),
                ModuleForm::Quote(text) => wasm::wat::parse_module(text).ok(),
            };
            // Only validated bodies reach the builders in the engine.
            let Some(module) = module.filter(|m| wasm::validate::validate(m).is_ok()) else {
                continue;
            };
            common::assert_lookups_match_reference(&module, &script.name);
            modules += 1;
        }
    }
    assert!(modules >= 30, "most corpus scripts instantiate a valid module ({modules})");
}
