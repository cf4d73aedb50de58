//! Golden fingerprints of the emitted code.
//!
//! `sim_cycles_golden` pins what compiled code *costs*; this pins what it
//! *is*. Host-speed work inside a compiler (denser tables, a different
//! liveness algorithm, fewer allocations) must emit the same code byte for
//! byte: one FNV-64 per suite × tier configuration × backend, over every
//! function's instructions, label targets and source map (virtual ISA) or
//! encoded bytes, label targets and source map (x86-64). The constants were
//! recorded on the commit before `crates/optc`'s per-value tables were
//! rebuilt; the ostrich column was re-recorded when `kernels::float_nbody`'s
//! checksum clamp moved from ±1e12 to ±2e9 (two `f64.const` immediates in
//! `nbody` and `lavamd`). A change that alters emitted code on purpose
//! re-records them in the same commit and says why.

use engine::pipeline::{compile_eager, eager_tier, CompiledModule};
use engine::{CodeBackend, EngineConfig, Instrumentation, Telemetry};
use spc::CompilerOptions;
use std::fmt::Write;
use suites::Scale;
use wasm::hash::Fnv64;

/// `[polybench, libsodium, ostrich]` under the virtual ISA, then x86-64.
const BASELINE: [[u64; 3]; 2] = [
    [10002865938135910655, 17992246959432371854, 7302844858125960169],
    [6562456469761732238, 3694336332734202439, 3907002617903006398],
];
const OPTIMIZING: [[u64; 3]; 2] = [
    [817102482682522967, 16592313056520201500, 3968628933390030862],
    [6520124582979842499, 2116337800240009993, 8614270974264394967],
];
const OPTIMIZING_METERED_OSR: [[u64; 3]; 2] = [
    [11092981574256478440, 17069174271440329983, 7642494053093763704],
    [14927526550151217056, 7020461335078141775, 5834570076964857730],
];

/// One fingerprint per suite: every function of every item, compiled eagerly
/// under `config`.
fn fingerprints(config: &EngineConfig) -> [u64; 3] {
    let tier = eager_tier(config);
    let mut out = [0u64; 3];
    for (slot, suite) in out.iter_mut().zip(suites::all_suites(Scale::Test)) {
        let mut h = Fnv64::new();
        let mut text = String::new();
        for item in &suite.items {
            let artifact = CompiledModule::build(item.module.clone()).expect("suite modules validate");
            compile_eager(config, &artifact, &Instrumentation::none(), &Telemetry::disabled())
                .expect("suite modules compile");
            for defined in 0..artifact.num_defined() {
                let compiled = artifact.artifact_for(defined, tier).expect("eager fills every slot");
                match (config.backend, &compiled.x64_code) {
                    (CodeBackend::X64, Some(x64)) => {
                        h.write(x64.bytes());
                        for &target in x64.label_targets() {
                            h.write_u64(target as u64);
                        }
                        for &(at, offset) in x64.source_map() {
                            h.write_u64(at as u64).write_u32(offset);
                        }
                    }
                    _ => {
                        let code = &compiled.function.code;
                        // `MachInst` has no byte form; its `Debug` text names
                        // every field of every instruction.
                        text.clear();
                        for inst in code.insts() {
                            writeln!(text, "{inst:?}").expect("writing to a String");
                        }
                        h.write(text.as_bytes());
                        for &target in code.label_targets() {
                            h.write_u32(target);
                        }
                        for &(at, offset) in code.source_map() {
                            h.write_u32(at).write_u32(offset);
                        }
                        h.write_u32(compiled.function.frame_slots);
                    }
                }
            }
        }
        *slot = h.finish();
    }
    out
}

fn assert_golden(config: EngineConfig, golden: &[[u64; 3]; 2]) {
    let name = config.name.clone();
    let measured = [
        fingerprints(&config.clone().with_backend(CodeBackend::VirtualIsa)),
        fingerprints(&config.with_backend(CodeBackend::X64)),
    ];
    assert_eq!(&measured, golden, "emitted code changed under `{name}`");
}

#[test]
fn baseline_code_is_pinned_on_both_backends() {
    assert_golden(EngineConfig::baseline("spc", CompilerOptions::allopt()), &BASELINE);
}

#[test]
fn optimizing_code_is_pinned_on_both_backends() {
    assert_golden(EngineConfig::optimizing("opt"), &OPTIMIZING);
}

#[test]
fn metered_osr_optimizing_code_is_pinned_on_both_backends() {
    assert_golden(
        EngineConfig::optimizing("opt-metered-osr").with_metering().with_osr(1),
        &OPTIMIZING_METERED_OSR,
    );
}
