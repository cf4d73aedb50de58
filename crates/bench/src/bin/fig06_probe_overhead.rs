//! Fig. 6 — overhead of the branch monitor under three configurations:
//! `int` (interpreter probes), `jit` (baseline compiler, unoptimized runtime
//! probes), and `optjit` (baseline compiler, intrinsified probes).
//!
//! Overhead is reported the way the paper does: the increase in main
//! execution time normalized to the *interpreter's* uninstrumented execution
//! time (0.0 = free, 1.0 = doubles the interpreter's time). The renormalized
//! JIT-relative numbers are printed as well.

fn main() {
    let scale = bench::scale_from_args();
    bench::print_header(
        "Figure 6",
        "Branch-monitor probe overhead relative to interpreter execution time (lower is better)",
    );
    let (table, vs_jit) = bench::probe_overhead(scale);
    bench::print_suite_table(&table);

    println!();
    println!("Renormalized to JIT execution time (the paper's in-text numbers):");
    for (name, s) in vs_jit {
        println!(
            "  {name:<8} overhead vs JIT: mean {:.2}x  [min {:.2}, max {:.2}]",
            s.mean, s.min, s.max
        );
    }
    println!();
    println!("Expected shape (paper): int imposes ~20-49% of interpreter time; jit is");
    println!("similar or slightly lower; optjit reduces the overhead by roughly 10x.");
}
