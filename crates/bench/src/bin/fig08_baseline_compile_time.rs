//! Fig. 8 — compilation time per byte of Wasm code, relative to Wizard-SPC
//! (1.0 = same speed, lower is better).
//!
//! Compile time is real wall-clock time spent by this reproduction's
//! compiler under each design profile, normalized per input byte, exactly as
//! the paper computes it.

use bench::{measure_all, print_suite_table, summarize, summarize_by_suite, Instrument};
use engine::{CodeBackend, EngineConfig};

fn compile_time_per_byte(m: &bench::ItemMeasurement) -> f64 {
    m.compile_wall.as_secs_f64() / m.compiled_wasm_bytes.max(1) as f64
}

fn main() {
    let scale = bench::scale_from_args();
    bench::print_header(
        "Figure 8",
        "Relative compilation time per byte over Wizard-SPC (lower is better)",
    );

    let profiles = spc::all_profiles();
    let wizard = measure_all(
        &EngineConfig::baseline("wizeng-spc", profiles[0].options.clone()),
        scale,
        Instrument::None,
    );

    let mut config_names = Vec::new();
    let mut per_suite: Vec<(&'static str, Vec<bench::SuiteSummary>)> =
        vec![("polybench", vec![]), ("libsodium", vec![]), ("ostrich", vec![])];
    for profile in profiles.iter().skip(1) {
        let run = measure_all(
            &EngineConfig::baseline(profile.name, profile.options.clone()),
            scale,
            Instrument::None,
        );
        for (suite_row, suite_name) in per_suite
            .iter_mut()
            .zip(["polybench", "libsodium", "ostrich"])
        {
            let ratios: Vec<f64> = bench::paired(&wizard, &run)
                .filter(|(a, _)| a.suite == suite_name)
                .map(|(a, b)| compile_time_per_byte(b) / compile_time_per_byte(a).max(1e-12))
                .collect();
            suite_row.1.push(summarize(&ratios));
        }
        config_names.push(profile.name.to_string());
    }
    print_suite_table(&config_names, &per_suite);
    println!();
    println!("Expected shape (paper): wazero is ~3x-4x slower to compile (it lowers through");
    println!("an internal representation first); engines without debug metadata or stackmap");
    println!("bookkeeping compile faster than those with it.");

    // Per-backend code size: the same single-pass translation as each
    // macro-assembler backend encodes it, in machine-code bytes per Wasm
    // byte. The virtual ISA reports its per-instruction size estimate; the
    // x86-64 backend reports the real bytes of that same code.
    println!();
    println!("Code size per backend (machine bytes / Wasm byte, mean [min, max]):");
    let mut backend_names = Vec::new();
    let mut backend_rows: Vec<(&'static str, Vec<bench::SuiteSummary>)> =
        vec![("polybench", vec![]), ("libsodium", vec![]), ("ostrich", vec![])];
    // The `wizard` measurements above already used the (default)
    // virtual-ISA backend, so only the x86-64 run needs to be measured.
    let x64 = measure_all(
        &EngineConfig::baseline("wizeng-spc", profiles[0].options.clone())
            .with_backend(CodeBackend::X64),
        scale,
        Instrument::None,
    );
    for (label, run) in [("virtual-isa", &wizard), ("x86-64", &x64)] {
        let rows = summarize_by_suite(run, |m| {
            m.compiled_machine_bytes as f64 / m.compiled_wasm_bytes.max(1) as f64
        });
        for (suite, summary) in rows {
            let row = backend_rows
                .iter_mut()
                .find(|(name, _)| *name == suite)
                .expect("summarize_by_suite only yields known suites");
            row.1.push(summary);
        }
        backend_names.push(label.to_string());
    }
    print_suite_table(&backend_names, &backend_rows);
}
