//! Fig. 7 — execution time of the other five baseline-compiler design
//! profiles relative to Wizard-SPC (1.0 = same speed, lower is better).

fn main() {
    let scale = bench::scale_from_args();
    bench::print_header(
        "Figure 7",
        "Relative execution time over Wizard-SPC for other baseline compilers (lower is better)",
    );
    bench::print_suite_table(&bench::baseline_exec_time(scale));
    println!();
    println!("Expected shape (paper): differences come from constant tracking and register");
    println!("allocation; wazero (no constants, single-register) produces the slowest code,");
    println!("the MR+K+ISEL engines cluster near Wizard-SPC.");
}
