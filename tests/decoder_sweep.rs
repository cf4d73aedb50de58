//! Truncation and substitution sweep over the decoder's whole vocabulary.
//!
//! `conform::coverage::exhaustive_module()` encodes every opcode the engine
//! implements, so its bodies hold every immediate shape `BytecodeReader::next`
//! decodes. Each body is cut at every length and has every byte replaced by
//! each of a small fixed set of values; every mutant is validated and, when
//! it validates (it is then a new well-formed program), compiled by both
//! compilers. The only acceptable outcomes are an `Err` or success: a panic
//! anywhere fails the test, and the whole sweep runs on a 256 KiB stack so
//! recursion that would only overflow on a production-sized body overflows
//! here. Deterministic — no seed, no sampling; the positions are dealt to two
//! threads only to halve the wall time of a debug build.

use optc::OptimizingCompiler;
use spc::{CompilerOptions, ProbeMode, ProbeSites, SinglePassCompiler};
use std::panic::{catch_unwind, AssertUnwindSafe};
use wasm::validate::{validate, validate_func};
use wasm::Module;

/// What one position's byte is replaced with (besides `byte ^ 1`): `end`,
/// the empty block type, `i32`, a LEB continuation byte, and both extremes.
const SUBSTITUTIONS: [u8; 6] = [0x00, 0x0b, 0x40, 0x7f, 0x80, 0xff];

const WORKERS: usize = 2;

/// Validates `module`'s function `func_index` with its body replaced by
/// `body` and compiles it in both tiers if it validates. Returns whether it
/// validated.
fn check(module: &Module, defined: usize, func_index: u32, body: Vec<u8>) -> bool {
    let mut mutant = module.clone();
    mutant.make_mut().funcs[defined].code = body;
    let Ok(info) = validate_func(&mutant, func_index) else { return false };
    let none = ProbeSites::none();
    SinglePassCompiler::new(CompilerOptions::allopt())
        .compile(&mutant, func_index, &info, &none)
        .expect("a validated body compiles in the baseline tier");
    OptimizingCompiler::new(ProbeMode::Optimized)
        .compile(&mutant, func_index, &info, &none, None)
        .expect("a validated body compiles in the optimizing tier");
    true
}

/// The sweep over the byte positions `worker`, `worker + WORKERS`, …:
/// mutants tried, mutants that validated, and the ones that panicked.
fn sweep(module: &Module, worker: usize) -> (usize, usize, Vec<String>) {
    let (mut mutants, mut validated, mut panics) = (0usize, 0usize, Vec::new());
    for defined in 0..module.funcs.len() {
        let func_index = module.defined_to_func_index(defined as u32);
        let original = &module.funcs[defined].code;
        let positions = || (worker..original.len()).step_by(WORKERS);
        let truncations = positions().map(|len| (format!("cut at {len}"), original[..len].to_vec()));
        let substitutions = positions().flat_map(|at| {
            let flipped = original[at] ^ 1;
            SUBSTITUTIONS.into_iter().chain([flipped]).filter(move |&b| b != original[at]).map(move |b| {
                let mut body = original.clone();
                body[at] = b;
                (format!("byte {at} = {b:#04x}"), body)
            })
        });
        for (what, body) in truncations.chain(substitutions) {
            mutants += 1;
            match catch_unwind(AssertUnwindSafe(|| check(module, defined, func_index, body))) {
                Ok(ok) => validated += ok as usize,
                Err(_) => panics.push(format!("func {func_index}, {what}")),
            }
        }
    }
    (mutants, validated, panics)
}

#[test]
fn no_truncation_or_substitution_of_the_exhaustive_bodies_panics() {
    let module = &conform::coverage::exhaustive_module();
    validate(module).expect("the unmutated module validates");
    let (mut mutants, mut validated, mut panics) = (0, 0, Vec::new());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|worker| {
                let small_stack = std::thread::Builder::new().stack_size(256 << 10);
                small_stack.spawn_scoped(scope, move || sweep(module, worker)).expect("spawn")
            })
            .collect();
        for worker in workers {
            let (tried, ok, panicked) = worker.join().expect("the sweep itself does not panic");
            mutants += tried;
            validated += ok;
            panics.extend(panicked);
        }
    });
    println!("decoder sweep: {mutants} mutants, {validated} validated and compiled in both tiers");
    assert!(panics.is_empty(), "{} mutants panicked:\n{}", panics.len(), panics.join("\n"));
    assert!(validated > 0, "no mutant validated: the compile half of the sweep never ran");
}
