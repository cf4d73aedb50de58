//! Fig. 4 — execution-time speedup of Wizard-SPC over Wizard-INT for the
//! optimization-ablation configurations (allopt, nok, nokfold, noisel, nomr).
//!
//! For every benchmark line item, main execution time is measured in
//! simulated cycles under the in-place interpreter and under each compiler
//! configuration; the figure reports per-suite average / min / max speedups
//! (higher is better).

fn main() {
    let scale = bench::scale_from_args();
    bench::print_header(
        "Figure 4",
        "Execution time speedup of Wizard-SPC over Wizard-INT (1x = same speed, up is better)",
    );
    bench::print_suite_table(&bench::speedup_over_interpreter(scale));
    println!();
    println!("Each cell: mean speedup [min, max] across the suite's line items.");
    println!("Expected shape (paper): 5x-28x overall; `nok` hurts most, then `nomr`;");
    println!("`nokfold` and `noisel` are small but measurable.");
}
