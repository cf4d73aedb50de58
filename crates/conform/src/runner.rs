//! Executing conformance scripts against engine configurations.
//!
//! [`all_configs`] is the canonical matrix every conformance artifact runs
//! under: the five distinct executions the engine has. They are the in-place
//! interpreter, the baseline compiler eagerly and lazily, the two-tier
//! (interpreter → baseline) configuration, and the three-tier configuration
//! that promotes hot functions through the SSA-based optimizing compiler. A
//! script passes only when every assertion holds under every configuration —
//! the strongest statement that the decoder, text frontend, validator, and
//! all execution tiers agree.
//!
//! There is no x86-64 row. [`EngineConfig::backend`] selects how a compiled
//! function's bytes are *measured*, not what runs: the pipeline compiles
//! once and re-emits the finished virtual code through `X64Masm`, and every
//! configuration executes the virtual code on the simulator. An x86-64 row
//! would repeat its sibling instruction for instruction;
//! `tests/masm_backends.rs::the_backend_changes_no_executed_instruction`
//! holds that invariant for every suite function instead.
//!
//! The three-tier configuration uses low thresholds (baseline after 1 call,
//! optimizing after 2) so repeated `assert_return`s in a script exercise
//! every promotion boundary: the same invocation runs interpreted, then
//! baseline-compiled, then optimized, and must agree each time.

use crate::script::{Action, Command, ModuleForm, Script};
use engine::{Engine, EngineConfig, Imports, Instance, Instrumentation, TrapInfo};
use machine::inst::TrapCode;
use machine::values::WasmValue;
use spc::CompilerOptions;
use wasm::wat;
use wasm::Module;

/// The five execution configurations the conformance corpus runs under.
pub fn all_configs() -> Vec<EngineConfig> {
    vec![
        EngineConfig::interpreter("conf-int"),
        EngineConfig::baseline("conf-spc", CompilerOptions::allopt()),
        EngineConfig::baseline("conf-lazy", CompilerOptions::allopt()).with_lazy_compile(true),
        EngineConfig::tiered("conf-tiered", 2, CompilerOptions::allopt()),
        EngineConfig::tiered("conf-opt", 1, CompilerOptions::allopt()).with_opt_tier(2),
    ]
}

/// The result of running one script under one configuration.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Assertions that held.
    pub passed: usize,
    /// Human-readable descriptions of everything that failed.
    pub failures: Vec<String>,
    /// Fuel consumed by each action executed while a `(fuel N)` budget was
    /// armed, in script order. Deterministic metering means this vector is
    /// identical across every configuration in [`all_configs`] — the
    /// conformance tests assert exactly that.
    pub fuel: Vec<u64>,
    /// The diagnostics of every `assert_trap` that trapped as expected, in
    /// script order. Backtrace equality ignores the executing tier, so —
    /// like [`Outcome::fuel`] — this vector is identical across every
    /// configuration in [`all_configs`], and the conformance tests assert
    /// exactly that.
    pub traps: Vec<TrapInfo>,
}

impl Outcome {
    /// True when nothing failed.
    pub fn is_pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `script` under `config`.
pub fn run_script(script: &Script, config: &EngineConfig) -> Outcome {
    run_script_mutated(script, config, None)
}

/// Runs `script` under `config`, applying `mutate` to every module before
/// instantiation.
///
/// The mutation hook exists to *prove the harness can catch divergences*: a
/// deliberately broken module (say, `i32.div_s` rewritten to `i32.div_u` —
/// the shape of a real historical miscompile) must make the corpus fail.
pub fn run_script_mutated(
    script: &Script,
    config: &EngineConfig,
    mutate: Option<&dyn Fn(&mut Module)>,
) -> Outcome {
    // A script with a `(fuel N)` directive runs under the metering variant
    // of the configuration: without check sequences in the compiled tiers,
    // the budget would never be consumed.
    let config = if script.uses_fuel() && !config.metering {
        config.clone().with_metering()
    } else {
        config.clone()
    };
    let config = &config;
    let engine = Engine::new(config.clone());
    let mut outcome = Outcome::default();
    let mut current: Option<Instance> = None;
    // The armed fuel budget: re-applied before every action so each action
    // records its own consumption in `outcome.fuel`.
    let mut budget: Option<u64> = None;
    let ctx = |offset: usize| format!("{}[{}] (+{offset})", script.name, config.name);

    for (command, offset) in &script.commands {
        if let Some(b) = budget {
            if let Some(instance) = current.as_mut() {
                if matches!(
                    command,
                    Command::Invoke(_) | Command::AssertReturn { .. } | Command::AssertTrap { .. }
                ) {
                    instance.set_fuel(b);
                }
            }
        }
        match command {
            Command::Fuel(n) => {
                budget = Some(*n);
                outcome.passed += 1;
            }
            Command::Module(form) => match build_module(form) {
                Ok(mut module) => {
                    if let Some(f) = mutate {
                        f(&mut module);
                    }
                    match engine.instantiate(&module, Imports::new(), Instrumentation::none()) {
                        Ok(instance) => {
                            current = Some(instance);
                            outcome.passed += 1;
                        }
                        Err(e) => {
                            // Do not leave a stale instance behind: later
                            // assertions must fail with "no module
                            // instantiated" instead of silently running
                            // against the previous module.
                            current = None;
                            outcome
                                .failures
                                .push(format!("{}: instantiation failed: {e}", ctx(*offset)));
                        }
                    }
                }
                Err(e) => {
                    current = None;
                    outcome
                        .failures
                        .push(format!("{}: module build failed: {e}", ctx(*offset)));
                }
            },
            Command::Invoke(action) => {
                match invoke(&engine, &mut current, action) {
                    Ok(_) => outcome.passed += 1,
                    Err(e) => outcome
                        .failures
                        .push(format!("{}: invoke {}: {e}", ctx(*offset), action.func)),
                }
            }
            Command::AssertReturn { action, expected } => {
                match invoke(&engine, &mut current, action) {
                    Ok(results) => {
                        let matches = results.len() == expected.len()
                            && expected.iter().zip(&results).all(|(e, a)| e.matches(a));
                        if matches {
                            outcome.passed += 1;
                        } else {
                            outcome.failures.push(format!(
                                "{}: {} returned {results:?}, expected {expected:?}",
                                ctx(*offset),
                                action.func
                            ));
                        }
                    }
                    Err(e) => outcome.failures.push(format!(
                        "{}: {} trapped unexpectedly: {e}",
                        ctx(*offset),
                        action.func
                    )),
                }
            }
            Command::AssertTrap { action, message } => {
                match invoke(&engine, &mut current, action) {
                    Ok(results) => outcome.failures.push(format!(
                        "{}: {} returned {results:?}, expected trap \"{message}\"",
                        ctx(*offset),
                        action.func
                    )),
                    Err(Invocation::Trap(reason)) => {
                        if reason.matches_wast(message) {
                            outcome.passed += 1;
                            if let Some(info) =
                                current.as_ref().and_then(Instance::last_trap)
                            {
                                outcome.traps.push(info.clone());
                            }
                        } else {
                            outcome.failures.push(format!(
                                "{}: {} trapped with \"{reason}\", expected \"{message}\"",
                                ctx(*offset),
                                action.func
                            ));
                        }
                    }
                    Err(e) => outcome
                        .failures
                        .push(format!("{}: {}: {e}", ctx(*offset), action.func)),
                }
            }
            Command::AssertInvalid { module, message } => match build_module(module) {
                Ok(module) => match wasm::validate::validate(&module) {
                    Err(e) => {
                        if e.message.contains(message) {
                            outcome.passed += 1;
                        } else {
                            outcome.failures.push(format!(
                                "{}: invalid for the wrong reason: got \"{}\", expected \"{message}\"",
                                ctx(*offset),
                                e.message
                            ));
                        }
                    }
                    Ok(_) => outcome.failures.push(format!(
                        "{}: module validated but should be invalid (\"{message}\")",
                        ctx(*offset)
                    )),
                },
                Err(e) => outcome.failures.push(format!(
                    "{}: assert_invalid module failed to build: {e}",
                    ctx(*offset)
                )),
            },
            Command::AssertMalformed { module, message } => match build_module(module) {
                Err(_) => outcome.passed += 1,
                Ok(_) => outcome.failures.push(format!(
                    "{}: module parsed but should be malformed (\"{message}\")",
                    ctx(*offset)
                )),
            },
        }
        // Record how much of the armed budget the action consumed; the trap
        // case records the full budget (exhaustion clamps remaining to 0).
        if budget.is_some()
            && matches!(
                command,
                Command::Invoke(_) | Command::AssertReturn { .. } | Command::AssertTrap { .. }
            )
        {
            if let Some(consumed) = current.as_ref().and_then(Instance::fuel_consumed) {
                outcome.fuel.push(consumed);
            }
        }
    }
    outcome
}

/// Why an invocation failed.
#[derive(Debug)]
enum Invocation {
    /// No module is instantiated.
    NoInstance,
    /// The export does not exist.
    NoExport,
    /// Execution trapped.
    Trap(TrapCode),
}

impl std::fmt::Display for Invocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Invocation::NoInstance => write!(f, "no module instantiated"),
            Invocation::NoExport => write!(f, "export not found"),
            Invocation::Trap(code) => write!(f, "trap: {code}"),
        }
    }
}

fn invoke(
    engine: &Engine,
    current: &mut Option<Instance>,
    action: &Action,
) -> Result<Vec<WasmValue>, Invocation> {
    let instance = current.as_mut().ok_or(Invocation::NoInstance)?;
    if instance.module().exported_func(&action.func).is_none() {
        return Err(Invocation::NoExport);
    }
    engine
        .call_export(instance, &action.func, &action.args)
        .map_err(Invocation::Trap)
}

/// Builds the module of a `(module …)` command.
fn build_module(form: &ModuleForm) -> Result<Module, String> {
    match form {
        ModuleForm::Text(expr) => wat::lower::module_from_sexpr(expr).map_err(|e| e.to_string()),
        ModuleForm::Binary(bytes) => wasm::decode::decode(bytes).map_err(|e| e.to_string()),
        ModuleForm::Quote(text) => wat::parse_module(text).map_err(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::parse_script;

    #[test]
    fn a_small_script_passes_everywhere() {
        let script = parse_script(
            "smoke",
            r#"
            (module
              (func (export "add") (param i32 i32) (result i32)
                local.get 0
                local.get 1
                i32.add)
              (func (export "div") (param i32 i32) (result i32)
                local.get 0
                local.get 1
                i32.div_s))
            (assert_return (invoke "add" (i32.const 2) (i32.const 40)) (i32.const 42))
            (assert_trap (invoke "div" (i32.const 1) (i32.const 0)) "integer divide by zero")
            (assert_trap (invoke "div" (i32.const -2147483648) (i32.const -1)) "integer overflow")
            "#,
        )
        .expect("parses");
        for config in all_configs() {
            let outcome = run_script(&script, &config);
            assert!(
                outcome.is_pass(),
                "[{}] {:#?}",
                config.name,
                outcome.failures
            );
            assert_eq!(outcome.passed, 4);
        }
    }

    #[test]
    fn failures_are_reported_not_panicked() {
        let script = parse_script(
            "bad",
            r#"
            (module (func (export "one") (result i32) i32.const 1))
            (assert_return (invoke "one") (i32.const 2))
            (assert_trap (invoke "one") "unreachable")
            (assert_return (invoke "missing") (i32.const 0))
            "#,
        )
        .expect("parses");
        let outcome = run_script(&script, &EngineConfig::interpreter("int"));
        assert_eq!(outcome.passed, 1, "only the module command passes");
        assert_eq!(outcome.failures.len(), 3);
    }

    #[test]
    fn failed_instantiation_clears_the_current_instance() {
        // The second module is invalid; assertions after it must not run
        // against the first module.
        let script = parse_script(
            "stale",
            r#"
            (module (func (export "f") (result i32) i32.const 1))
            (assert_return (invoke "f") (i32.const 1))
            (module (func (export "f") (result i32) nop))
            (assert_return (invoke "f") (i32.const 1))
            "#,
        )
        .expect("parses");
        let outcome = run_script(&script, &EngineConfig::interpreter("int"));
        assert_eq!(outcome.passed, 2, "first module + first assert");
        assert_eq!(outcome.failures.len(), 2, "bad module AND the stale assert both fail");
        assert!(
            outcome.failures[1].contains("no module instantiated"),
            "{:?}",
            outcome.failures
        );
    }

    #[test]
    fn a_broken_module_mutation_is_caught() {
        let script = parse_script(
            "divergence",
            r#"
            (module (func (export "half") (param i32) (result i32)
              local.get 0
              i32.const 2
              i32.div_s))
            (assert_return (invoke "half" (i32.const -7)) (i32.const -3))
            "#,
        )
        .expect("parses");
        // Healthy build: passes.
        let config = EngineConfig::default();
        assert!(run_script(&script, &config).is_pass());
        // "Historical miscompile": signed division emitted as unsigned.
        let break_divs = |m: &mut Module| {
            for func in &mut m.make_mut().funcs {
                for b in &mut func.code {
                    if *b == wasm::Opcode::I32DivS.to_byte() {
                        *b = wasm::Opcode::I32DivU.to_byte();
                    }
                }
            }
        };
        let outcome = run_script_mutated(&script, &config, Some(&break_divs));
        assert!(!outcome.is_pass(), "the corpus must catch the divergence");
    }
}
