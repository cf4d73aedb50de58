//! The rebuilt per-value bookkeeping against the implementation it replaced
//! (see `oracle/mod.rs`): every function of the three suites at both scales
//! and of the conformance crate's exhaustive module, under every compiler
//! variant. The generated programs of `tests/proptest_differential.rs` run
//! the same check from the root package.

mod oracle;

use suites::Scale;

#[test]
fn suites_match_the_reference_at_both_scales() {
    for scale in [Scale::Test, Scale::Default] {
        for suite in suites::all_suites(scale) {
            for item in &suite.items {
                oracle::check_module(&item.module, &format!("{}/{} {scale:?}", suite.name, item.name));
            }
        }
    }
}

#[test]
fn exhaustive_module_matches_the_reference() {
    oracle::check_module(&conform::coverage::exhaustive_module(), "exhaustive module");
}

/// The shape the shipped fixpoint got wrong (see the marked correction in
/// `oracle/mod.rs`): a `br_table` inside a loop whose edge list names an
/// in-loop merge before the loop header, with a header parameter (`$x`
/// holds `$acc`'s) live into the merge.
#[test]
fn merge_before_header_in_a_br_table_matches_the_corrected_reference() {
    let src = r#"(module (func (export "f") (param $n i32) (param $sel i32) (result i32)
        (local $acc i32) (local $x i32) (local $y i32)
        loop $L
          local.get $acc local.set $x
          local.get $acc i32.const 1 i32.add local.set $acc
          block $M
            local.get $n i32.const 1 i32.and
            if
              local.get $n i32.const 3 i32.mul local.set $y
            else
              local.get $n i32.const 5 i32.mul local.get $sel i32.xor local.set $y
            end
            local.get $n i32.const 1 i32.sub local.set $n
            local.get $n i32.const 7 i32.and
            br_table $M $L
          end
          local.get $x local.get $y i32.add local.get $acc i32.add local.set $acc
          local.get $n i32.const 0 i32.gt_s
          br_if $L
        end
        local.get $acc))"#;
    let module = wasm::wat::parse_module(src).unwrap_or_else(|e| panic!("{}", e.describe(src)));
    oracle::check_module(&module, "merge before header");
}
