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
//! `nbody` and `lavamd`). The two optimizing rows were re-recorded when
//! `optc`'s register allocator began keeping loop-carried values in one
//! register (lifetime holes, two-way hints, same-position reuse). A change
//! that alters emitted code on purpose re-records them in the same commit and
//! says why.

use engine::pipeline::{compile_eager, compile_function, CompiledModule};
use engine::{CodeBackend, CompileTier, EngineConfig, Instrumentation, Telemetry};
use spc::{CompilerOptions, ProbeSites};
use std::fmt::Write;
use suites::Scale;
use wasm::hash::Fnv64;

/// `[polybench, libsodium, ostrich]` under the virtual ISA, then x86-64.
const BASELINE: [[u64; 3]; 2] = [
    [10002865938135910655, 17992246959432371854, 7302844858125960169],
    [6562456469761732238, 3694336332734202439, 3907002617903006398],
];
const OPTIMIZING: [[u64; 3]; 2] = [
    [13601915450428945111, 12726342877247172151, 3288438751014425777],
    [17234123348909779147, 2457210309527431337, 15750317991488106433],
];
const OPTIMIZING_METERED_OSR: [[u64; 3]; 2] = [
    [9082211503835839920, 2232922988224280575, 10004248036621756287],
    [8450182034714589525, 3721236198582278444, 16095256448974717011],
];

/// One fingerprint per suite: every function of every item, compiled eagerly
/// under `config`.
fn fingerprints(config: &EngineConfig) -> [u64; 3] {
    let tier = config.schedule.instantiation_tier().expect("compiles at instantiation");
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

/// `[polybench, libsodium, ostrich, exhaustive module]` under the virtual ISA
/// for every distinct baseline option set of `figure4_configs`,
/// `figure5_configs` and `all_profiles` (named after the first
/// configuration with those options), then `allopt` with metering and with
/// OSR armed. Recorded on the commit before the baseline compiler's abstract
/// state became sparse and its integer opcodes got an arm each.
const BASELINE_SHAPES: [(&str, [u64; 4]); 17] = [
    ("allopt", [14818437920602472657, 17752713840510601129, 13070080770803710742, 11245250605371751166]),
    ("nok", [10133372273497176946, 6445389169569404540, 3701226973462136122, 10177121772849794726]),
    ("nokfold", [14818437920602472657, 17752713840510601129, 13070080770803710742, 1195060106962245807]),
    ("noisel", [18386728611020612982, 17228871944392872762, 15757218170248259701, 7307556542296742038]),
    ("nomr", [3008186044747086404, 2287039534860611158, 14004028298817606494, 2143533894754486969]),
    ("notags", [5238872177641829787, 2661139778737481792, 1706827685482964910, 13087446513789388234]),
    ("eagertags", [15160321858451661918, 16953162609815391506, 9315878385342820209, 388801504524174835]),
    ("eagertags-o", [6992649511308591505, 13640315704289746448, 15417260184350511159, 11713968925020209228]),
    ("eagertags-l", [6300761906658752970, 4231361188217762766, 6763365094182378214, 14311774555596318516]),
    ("lazytags", [14818437920602472657, 17752713840510601129, 13070080770803710742, 770180567952421023]),
    ("wazero", [15943694020292839157, 17702212080496656411, 8134512614215818531, 358312031629213039]),
    ("wasm-now", [9571466536257765230, 9701878077823688063, 4428921182756292271, 13068670711293954554]),
    ("wasmer-base", [2581795523926010669, 3615184317290800880, 15576000507233273002, 6909728396916163190]),
    ("v8-liftoff", [767767667423027603, 6124460960895168206, 4846892871371341808, 6636205819095365418]),
    ("sm-base", [14826153843749081198, 16722370719274925545, 6680478350514237801, 9908785418178559861]),
    ("allopt+metering", [533970322582012445, 14732242967036916540, 5367894456903858320, 1559778863979229043]),
    ("allopt+osr", [1615503007954594223, 4755164955322983329, 17338920334941661980, 11435331812465810605]),
];

/// The baseline configurations [`BASELINE_SHAPES`] pins, in its order.
fn baseline_shape_configs() -> Vec<EngineConfig> {
    let candidates = CompilerOptions::figure4_configs()
        .into_iter()
        .chain(CompilerOptions::figure5_configs())
        .chain(spc::all_profiles().into_iter().map(|p| CompilerOptions { name: p.name.to_string(), ..p.options }));
    let mut distinct: Vec<CompilerOptions> = Vec::new();
    for options in candidates {
        let same = |o: &CompilerOptions| CompilerOptions { name: options.name.clone(), ..o.clone() } == options;
        if !distinct.iter().any(same) {
            distinct.push(options);
        }
    }
    let mut configs: Vec<EngineConfig> =
        distinct.into_iter().map(|o| EngineConfig::baseline(&o.name.clone(), o)).collect();
    configs.push(EngineConfig::baseline("allopt+metering", CompilerOptions::allopt()).with_metering());
    configs.push(EngineConfig::baseline("allopt+osr", CompilerOptions::allopt()).with_osr(1));
    configs
}

/// One fingerprint per input module set: every function compiled by the
/// baseline tier under `config`, one at a time, hashing its instructions,
/// label targets, source map, frame size, call sites, stackmaps and
/// statistics — or the compile error, for a configuration that refuses a
/// function (multi-value off).
fn baseline_shape_fingerprints(config: &EngineConfig) -> [u64; 4] {
    let mut inputs: Vec<Vec<wasm::Module>> = suites::all_suites(Scale::Test)
        .into_iter()
        .map(|suite| suite.items.into_iter().map(|item| item.module).collect())
        .collect();
    inputs.push(vec![conform::coverage::exhaustive_module()]);
    let mut out = [0u64; 4];
    for (slot, modules) in out.iter_mut().zip(&inputs) {
        let mut h = Fnv64::new();
        let mut text = String::new();
        for module in modules {
            let info = wasm::validate::validate(module).expect("inputs validate");
            for (defined, func_info) in info.funcs.iter().enumerate() {
                let func_index = module.defined_to_func_index(defined as u32);
                text.clear();
                match compile_function(
                    config,
                    CompileTier::Baseline,
                    module,
                    func_index,
                    func_info,
                    &ProbeSites::none(),
                    None,
                ) {
                    Ok(artifact) => {
                        let f = &artifact.function;
                        for inst in f.code.insts() {
                            writeln!(text, "{inst:?}").expect("writing to a String");
                        }
                        let mut calls: Vec<_> = f.call_sites.iter().collect();
                        calls.sort_unstable_by_key(|&(site, _)| *site);
                        writeln!(text, "{:?}", f.code.label_targets()).expect("writing to a String");
                        writeln!(text, "{:?}", f.code.source_map()).expect("writing to a String");
                        writeln!(text, "{} {calls:?}", f.frame_slots).expect("writing to a String");
                        writeln!(text, "{:?}", f.stackmaps).expect("writing to a String");
                        writeln!(text, "{:?}", f.stats).expect("writing to a String");
                    }
                    Err(e) => writeln!(text, "error: {e}").expect("writing to a String"),
                }
                h.write(text.as_bytes());
            }
        }
        *slot = h.finish();
    }
    out
}

#[test]
fn every_baseline_option_set_emits_pinned_code() {
    let measured: Vec<(String, [u64; 4])> = baseline_shape_configs()
        .iter()
        .map(|config| (config.name.clone(), baseline_shape_fingerprints(config)))
        .collect();
    let golden: Vec<(String, [u64; 4])> =
        BASELINE_SHAPES.iter().map(|&(name, row)| (name.to_string(), row)).collect();
    assert_eq!(measured, golden, "baseline code changed under at least one option set");
}
