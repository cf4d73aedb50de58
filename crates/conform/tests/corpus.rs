//! Runs the checked-in conformance corpus under every execution
//! configuration, and demonstrates that the corpus catches divergences: a
//! deliberately broken build must fail it.

use conform::runner::{all_configs, run_script, run_script_mutated};
use conform::script::Command;
use wasm::Opcode;

#[test]
fn corpus_has_at_least_thirty_scripts_with_real_assertions() {
    let corpus = conform::load_corpus();
    assert!(
        corpus.len() >= 30,
        "corpus must hold at least 30 scripts, found {}",
        corpus.len()
    );
    for script in &corpus {
        let asserts = script
            .commands
            .iter()
            .filter(|(c, _)| {
                matches!(
                    c,
                    Command::AssertReturn { .. }
                        | Command::AssertTrap { .. }
                        | Command::AssertInvalid { .. }
                        | Command::AssertMalformed { .. }
                )
            })
            .count();
        assert!(asserts > 0, "{} has no assertions", script.name);
    }
}

/// Every assertion holds under each configuration; the virtual-ISA rows cover
/// the x86-64 backend (`the_backend_changes_no_executed_instruction`).
#[test]
fn corpus_passes_on_every_tier_and_backend() {
    let corpus = conform::load_corpus();
    let configs = all_configs();
    let mut total = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for config in &configs {
        for script in &corpus {
            let outcome = run_script(script, config);
            total += outcome.passed;
            failures.extend(outcome.failures);
        }
    }
    assert!(
        failures.is_empty(),
        "{} conformance failures:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(total > 300, "suspiciously few assertions ran: {total}");
}

/// Forcing on-stack replacement at every loop back edge must be invisible:
/// every script still passes under every configuration, with exactly the
/// same assertion count and — for fueled scripts — exactly the same
/// per-action fuel consumption as the plain run. A frame that jumps from
/// the interpreter (or baseline code) into the optimizing tier mid-loop may
/// not change a single observable.
#[test]
fn corpus_is_bit_identical_with_osr_forced_at_every_back_edge() {
    let corpus = conform::load_corpus();
    let mut failures: Vec<String> = Vec::new();
    for config in all_configs() {
        let osr_config = config.clone().with_osr(0);
        for script in &corpus {
            let base = run_script(script, &config);
            let osr = run_script(script, &osr_config);
            failures.extend(osr.failures.iter().cloned());
            if base.passed != osr.passed {
                failures.push(format!(
                    "{}[{}]: {} assertions passed without OSR, {} with",
                    script.name, config.name, base.passed, osr.passed
                ));
            }
            if base.fuel != osr.fuel {
                failures.push(format!(
                    "{}[{}]: fuel diverged under OSR: {:?} vs {:?}",
                    script.name, config.name, base.fuel, osr.fuel
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} OSR conformance failures:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every `assert_trap` in the corpus produces a symbolicated backtrace, and
/// that backtrace is identical under every execution configuration (the
/// executing tier is recorded per frame but excluded from equality). This is
/// the corpus-wide form of the targeted differentials in
/// `tests/backtrace.rs`: whatever trap shapes the corpus exercises —
/// arithmetic, memory, `call_indirect` dispatch, fuel exhaustion — the
/// diagnostics may not depend on how the code executed.
#[test]
fn corpus_trap_backtraces_agree_across_the_matrix() {
    let corpus = conform::load_corpus();
    let configs = all_configs();
    let reference = &configs[0];
    let mut traps_seen = 0usize;
    for script in &corpus {
        let expected = run_script(script, reference).traps;
        traps_seen += expected.len();
        for config in &configs[1..] {
            let got = run_script(script, config).traps;
            assert_eq!(
                expected, got,
                "{}[{}]: trap backtraces diverged from [{}]",
                script.name, config.name, reference.name
            );
        }
    }
    assert!(
        traps_seen >= 10,
        "suspiciously few assert_traps produced diagnostics: {traps_seen}"
    );
}

/// The corpus must be able to *catch* a miscompile: rewrite `i32.div_s` into
/// `i32.div_u` (the shape of a classic signedness bug) in every module and
/// require that the corpus reports failures under a JIT configuration.
#[test]
fn corpus_catches_a_deliberately_broken_build() {
    let corpus = conform::load_corpus();
    let break_divs = |m: &mut wasm::Module| {
        for func in &mut m.make_mut().funcs {
            // Opcode bytes are position-dependent; a blind byte sweep could
            // corrupt immediates. div_s has no immediates and the corpus
            // modules keep constants small, so rewriting opcode positions
            // found by a proper bytecode walk is the honest approach.
            let positions: Vec<usize> = wasm::reader::BytecodeReader::new(&func.code)
                .map_while(Result::ok)
                .filter(|instr| instr.op == Opcode::I32DivS)
                .map(|instr| instr.offset)
                .collect();
            for at in positions {
                func.code[at] = Opcode::I32DivU.to_byte();
            }
        }
    };
    let config = &all_configs()[1]; // baseline eager, virtual ISA
    let mut failures = 0usize;
    for script in &corpus {
        failures += run_script_mutated(script, config, Some(&break_divs))
            .failures
            .len();
    }
    assert!(
        failures > 0,
        "a build with i32.div_s miscompiled to div_u must fail the corpus"
    );
}

/// Every conformance script's text modules round-trip byte-identically
/// through print → parse → encode.
#[test]
fn corpus_modules_roundtrip_through_the_printer() {
    use conform::script::ModuleForm;
    for script in conform::load_corpus() {
        for (command, _) in &script.commands {
            let Command::Module(ModuleForm::Text(expr)) = command else {
                continue;
            };
            let module = wasm::wat::lower::module_from_sexpr(expr)
                .unwrap_or_else(|e| panic!("{}: {e}", script.name));
            let bytes = wasm::encode::encode(&module);
            let text = wasm::wat::print::print_module(&module);
            let reparsed = wasm::wat::parse_module(&text)
                .unwrap_or_else(|e| panic!("{}: {}\n{text}", script.name, e.describe(&text)));
            assert_eq!(
                bytes,
                wasm::encode::encode(&reparsed),
                "{}: round trip diverged",
                script.name
            );
        }
    }
}
