//! `opt::optimize` stops at its fixpoint: one more round of every pass after
//! it changes no block, node or resolution. That is why its stopping rule
//! (`opt::another_round`) gives the code a rule that ran one round more
//! would give — a round that changes nothing leaves the same IR, and after
//! it every pass reports that nothing changed. Checked on every function of
//! the three suites at both scales and of the conformance crate's exhaustive
//! module, built plain and with metering and OSR armed.

use optc::{frontend, opt};
use spc::{ProbeMode, ProbeSites};
use suites::Scale;
use wasm::validate::validate;
use wasm::Module;

fn check_module(module: &Module, what: &str) {
    let info = validate(module).unwrap_or_else(|e| panic!("{what}: {e:?}"));
    for defined in 0..module.funcs.len() as u32 {
        let func_index = module.defined_to_func_index(defined);
        for (variant, metering, osr) in [("plain", false, false), ("metering + OSR", true, true)] {
            let what = format!("{what} function {func_index} ({variant})");
            let mut ir = frontend::build(
                module,
                func_index,
                &info.funcs[defined as usize],
                &ProbeSites::none(),
                ProbeMode::Optimized,
                metering,
                osr,
            )
            .unwrap_or_else(|e| panic!("{what}: {e:?}"));
            opt::optimize(&mut ir);
            let optimized = ir.clone();

            let reachable = ir.reachable();
            opt::fold(&mut ir, &reachable);
            let edges = ir.edge_index();
            opt::simplify_params(&mut ir, &edges);
            opt::cse(&mut ir, &edges.reachable);
            opt::dce(&mut ir, &edges);
            assert_eq!(ir.blocks, optimized.blocks, "{what}: blocks after one more round");
            assert_eq!(ir.nodes, optimized.nodes, "{what}: nodes after one more round");
            assert_eq!(ir.resolved, optimized.resolved, "{what}: resolution after one more round");
        }
    }
}

#[test]
fn one_more_round_changes_no_suite_function() {
    for scale in [Scale::Test, Scale::Default] {
        for suite in suites::all_suites(scale) {
            for item in &suite.items {
                check_module(&item.module, &format!("{}/{} {scale:?}", suite.name, item.name));
            }
        }
    }
}

#[test]
fn one_more_round_changes_nothing_in_the_exhaustive_module() {
    check_module(&conform::coverage::exhaustive_module(), "exhaustive module");
}
