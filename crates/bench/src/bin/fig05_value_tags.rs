//! Fig. 5 — execution time of the value-tag configurations relative to a
//! configuration with tags disabled entirely (`notags`).
//!
//! Configurations: eagertags, eagertags-o (operands only), eagertags-l
//! (locals only), on-demand (the default), lazytags. Lower is better;
//! 1.0 means no overhead over `notags`.

fn main() {
    let scale = bench::scale_from_args();
    bench::print_header(
        "Figure 5",
        "Execution time of tagging configurations relative to notags (1.0 = no overhead, lower is better)",
    );
    bench::print_suite_table(&bench::value_tags(scale));
    println!();
    println!("Expected shape (paper): eager tagging costs ~2.4x-3.3x, mostly from operand");
    println!("stack tags; on-demand is within a few percent of notags; lazytags is");
    println!("marginally better still.");
}
