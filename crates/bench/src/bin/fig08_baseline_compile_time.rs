//! Fig. 8 — compilation time per byte of Wasm code, relative to Wizard-SPC
//! (1.0 = same speed, lower is better).
//!
//! Compile time is real wall-clock time spent by this reproduction's
//! compiler under each design profile, normalized per input byte, exactly as
//! the paper computes it.

use bench::{measure_all, print_suite_table, Column, Instrument};
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
    let (wizard, columns) = bench::profile_columns(scale, |wizard, m| {
        compile_time_per_byte(m) / compile_time_per_byte(wizard).max(1e-12)
    });
    print_suite_table(&columns);
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
    // The `wizard` measurements above already used the (default)
    // virtual-ISA backend, so only the x86-64 run needs to be measured.
    let x64 = measure_all(
        &EngineConfig::baseline("wizeng-spc", spc::all_profiles()[0].options.clone())
            .with_backend(CodeBackend::X64),
        scale,
        Instrument::None,
    );
    let columns = [("virtual-isa", &wizard), ("x86-64", &x64)].map(|(label, run)| {
        Column::from_values(
            label,
            run.iter().map(|m| {
                (m.suite, m.compiled_machine_bytes as f64 / m.compiled_wasm_bytes.max(1) as f64)
            }),
        )
    });
    print_suite_table(&columns);
}
