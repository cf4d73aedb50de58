//! Parsing of wast-style assertion scripts.
//!
//! A script is a sequence of top-level s-expressions interpreted as commands:
//!
//! * `(module …)` — instantiate a fresh module (text form), `(module binary
//!   "…")` (raw bytes), or `(module quote "…")` (text assembled from string
//!   fragments);
//! * `(invoke "f" const*)` — call an export, discarding the result;
//! * `(assert_return (invoke …) const*)` — call and compare results
//!   bit-exactly, with `nan:canonical` / `nan:arithmetic` patterns;
//! * `(assert_trap (invoke …) "message")` — call and match the trap cause
//!   against the spec-style message via [`machine::inst::TrapCode`];
//! * `(assert_invalid (module …) "message")` — the module must fail
//!   validation with a message containing the given fragment;
//! * `(assert_malformed (module quote|binary …) "message")` — the text must
//!   fail to parse / the bytes must fail to decode;
//! * `(fuel N)` — arm a fuel budget of `N` units, re-armed before every
//!   later action (a reproduction extension for metering conformance).

use machine::values::WasmValue;
use wasm::wat::sexpr::{parse_all, Sexpr};
use wasm::wat::{num, WatError};

/// How a `(module …)` command supplies its module.
#[derive(Debug, Clone)]
pub enum ModuleForm {
    /// A textual `(module …)` s-expression, lowered by the WAT frontend.
    Text(Sexpr),
    /// `(module binary "…")`: raw bytes for the binary decoder.
    Binary(Vec<u8>),
    /// `(module quote "…")`: text assembled from fragments, re-parsed from
    /// scratch (used by `assert_malformed`).
    Quote(String),
}

/// An `(invoke "name" const*)` action.
#[derive(Debug, Clone)]
pub struct Action {
    /// The exported function to call.
    pub func: String,
    /// Constant arguments.
    pub args: Vec<WasmValue>,
}

/// An expected result of an `assert_return`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExpectedValue {
    /// An exact value, compared bit-for-bit (floats included).
    Exact(WasmValue),
    /// Any canonical 32-bit NaN (payload exactly the quiet bit, either sign).
    CanonicalNan32,
    /// Any arithmetic 32-bit NaN (quiet bit set, any payload).
    ArithmeticNan32,
    /// Any canonical 64-bit NaN.
    CanonicalNan64,
    /// Any arithmetic 64-bit NaN.
    ArithmeticNan64,
}

impl ExpectedValue {
    /// Whether `actual` satisfies this expectation.
    pub fn matches(&self, actual: &WasmValue) -> bool {
        match (self, actual) {
            (ExpectedValue::Exact(WasmValue::F32(e)), WasmValue::F32(a)) => {
                e.to_bits() == a.to_bits()
            }
            (ExpectedValue::Exact(WasmValue::F64(e)), WasmValue::F64(a)) => {
                e.to_bits() == a.to_bits()
            }
            (ExpectedValue::Exact(e), a) => e == a,
            (ExpectedValue::CanonicalNan32, WasmValue::F32(a)) => {
                a.to_bits() & 0x7FFF_FFFF == 0x7FC0_0000
            }
            (ExpectedValue::ArithmeticNan32, WasmValue::F32(a)) => {
                a.to_bits() & 0x7FC0_0000 == 0x7FC0_0000
            }
            (ExpectedValue::CanonicalNan64, WasmValue::F64(a)) => {
                a.to_bits() & 0x7FFF_FFFF_FFFF_FFFF == 0x7FF8_0000_0000_0000
            }
            (ExpectedValue::ArithmeticNan64, WasmValue::F64(a)) => {
                a.to_bits() & 0x7FF8_0000_0000_0000 == 0x7FF8_0000_0000_0000
            }
            _ => false,
        }
    }
}

/// One script command.
#[derive(Debug, Clone)]
pub enum Command {
    /// `(fuel N)`: arm a fuel budget of `N` units, re-armed before every
    /// subsequent action so each records its own consumption. The runner
    /// switches the engine configuration to metering when a script contains
    /// this directive.
    Fuel(u64),
    /// Instantiate a module; it becomes the target of later actions.
    Module(ModuleForm),
    /// Call an export, requiring it not to trap.
    Invoke(Action),
    /// Call an export and compare its results.
    AssertReturn {
        /// The call.
        action: Action,
        /// The expected results, in order.
        expected: Vec<ExpectedValue>,
    },
    /// Call an export and require a trap with a matching cause.
    AssertTrap {
        /// The call.
        action: Action,
        /// The spec-style trap message.
        message: String,
    },
    /// Require the module to fail validation.
    AssertInvalid {
        /// The module under test.
        module: ModuleForm,
        /// A fragment the validation error must contain.
        message: String,
    },
    /// Require the module to fail parsing/decoding.
    AssertMalformed {
        /// The module under test.
        module: ModuleForm,
        /// The expected (informational) message.
        message: String,
    },
}

/// A parsed conformance script.
#[derive(Debug, Clone)]
pub struct Script {
    /// A display name (usually the file stem).
    pub name: String,
    /// The commands with their source offsets.
    pub commands: Vec<(Command, usize)>,
}

impl Script {
    /// True when the script contains a `(fuel N)` directive, which makes the
    /// runner execute it under a metering configuration.
    pub fn uses_fuel(&self) -> bool {
        self.commands
            .iter()
            .any(|(c, _)| matches!(c, Command::Fuel(_)))
    }
}

/// Parses a script from wast source.
///
/// # Errors
///
/// Returns a [`WatError`] for unknown commands or malformed constants.
pub fn parse_script(name: &str, src: &str) -> Result<Script, WatError> {
    let exprs = parse_all(src)?;
    let mut commands = Vec::new();
    for expr in &exprs {
        let offset = expr.offset();
        let kw = expr
            .keyword()
            .ok_or_else(|| WatError::new("expected a script command", offset))?;
        let items = expr.as_list().expect("keyword implies list");
        let command = match kw {
            "fuel" => {
                let arg = items
                    .get(1)
                    .and_then(Sexpr::as_atom)
                    .ok_or_else(|| WatError::new("fuel needs a budget literal", offset))?;
                Command::Fuel(
                    num::parse_int(arg, 64).map_err(|m| WatError::new(m, offset))? as u64,
                )
            }
            "module" => Command::Module(parse_module_form(expr)?),
            "invoke" => Command::Invoke(parse_action(expr)?),
            "assert_return" => {
                let action = parse_action(
                    items
                        .get(1)
                        .ok_or_else(|| WatError::new("assert_return needs an action", offset))?,
                )?;
                let mut expected = Vec::new();
                for e in &items[2..] {
                    expected.push(parse_expected(e)?);
                }
                Command::AssertReturn { action, expected }
            }
            "assert_trap" => Command::AssertTrap {
                action: parse_action(
                    items
                        .get(1)
                        .ok_or_else(|| WatError::new("assert_trap needs an action", offset))?,
                )?,
                message: expect_string(items.get(2), offset)?,
            },
            "assert_invalid" => Command::AssertInvalid {
                module: parse_module_form(
                    items
                        .get(1)
                        .ok_or_else(|| WatError::new("assert_invalid needs a module", offset))?,
                )?,
                message: expect_string(items.get(2), offset)?,
            },
            "assert_malformed" => Command::AssertMalformed {
                module: parse_module_form(
                    items
                        .get(1)
                        .ok_or_else(|| WatError::new("assert_malformed needs a module", offset))?,
                )?,
                message: expect_string(items.get(2), offset)?,
            },
            other => {
                return Err(WatError::new(
                    format!("unsupported script command `{other}`"),
                    offset,
                ))
            }
        };
        commands.push((command, offset));
    }
    Ok(Script {
        name: name.to_string(),
        commands,
    })
}

fn expect_string(expr: Option<&Sexpr>, offset: usize) -> Result<String, WatError> {
    expr.and_then(Sexpr::as_name)
        .ok_or_else(|| WatError::new("expected a string literal", offset))
}

fn parse_module_form(expr: &Sexpr) -> Result<ModuleForm, WatError> {
    let items = expr
        .as_list()
        .filter(|l| l.first().and_then(Sexpr::as_atom) == Some("module"))
        .ok_or_else(|| WatError::new("expected (module ...)", expr.offset()))?;
    // Skip an optional module id.
    let mut i = 1;
    if items.get(i).and_then(Sexpr::as_atom).is_some_and(|a| a.starts_with('$')) {
        i += 1;
    }
    match items.get(i).and_then(Sexpr::as_atom) {
        Some("binary") => {
            let mut bytes = Vec::new();
            for item in &items[i + 1..] {
                bytes.extend_from_slice(item.as_str_bytes().ok_or_else(|| {
                    WatError::new("(module binary ...) takes strings", item.offset())
                })?);
            }
            Ok(ModuleForm::Binary(bytes))
        }
        Some("quote") => {
            let mut text = String::new();
            for item in &items[i + 1..] {
                let fragment = item.as_name().ok_or_else(|| {
                    WatError::new("(module quote ...) takes strings", item.offset())
                })?;
                text.push_str(&fragment);
                text.push(' ');
            }
            Ok(ModuleForm::Quote(format!("(module {text})")))
        }
        _ => Ok(ModuleForm::Text(expr.clone())),
    }
}

fn parse_action(expr: &Sexpr) -> Result<Action, WatError> {
    let items = expr
        .as_list()
        .filter(|l| l.first().and_then(Sexpr::as_atom) == Some("invoke"))
        .ok_or_else(|| WatError::new("expected (invoke ...)", expr.offset()))?;
    let func = items
        .get(1)
        .and_then(Sexpr::as_name)
        .ok_or_else(|| WatError::new("invoke needs a function name", expr.offset()))?;
    let mut args = Vec::new();
    for arg in &items[2..] {
        args.push(parse_const(arg)?);
    }
    Ok(Action { func, args })
}

/// Parses a `(t.const v)` argument into a concrete value.
fn parse_const(expr: &Sexpr) -> Result<WasmValue, WatError> {
    match parse_expected(expr)? {
        ExpectedValue::Exact(v) => Ok(v),
        _ => Err(WatError::new(
            "nan patterns are only allowed in expected results",
            expr.offset(),
        )),
    }
}

fn parse_expected(expr: &Sexpr) -> Result<ExpectedValue, WatError> {
    let items = expr
        .as_list()
        .ok_or_else(|| WatError::new("expected (t.const v)", expr.offset()))?;
    let kw = items.first().and_then(Sexpr::as_atom).unwrap_or("");
    let offset = expr.offset();
    let arg = items
        .get(1)
        .and_then(Sexpr::as_atom)
        .ok_or_else(|| WatError::new(format!("{kw} needs a literal"), offset))?;
    let exact = |v: WasmValue| Ok(ExpectedValue::Exact(v));
    match kw {
        "i32.const" => exact(WasmValue::I32(
            num::parse_int(arg, 32).map_err(|m| WatError::new(m, offset))? as u32 as i32,
        )),
        "i64.const" => exact(WasmValue::I64(
            num::parse_int(arg, 64).map_err(|m| WatError::new(m, offset))? as i64,
        )),
        "f32.const" => match arg {
            "nan:canonical" => Ok(ExpectedValue::CanonicalNan32),
            "nan:arithmetic" => Ok(ExpectedValue::ArithmeticNan32),
            _ => exact(WasmValue::F32(f32::from_bits(
                num::parse_f32(arg).map_err(|m| WatError::new(m, offset))?,
            ))),
        },
        "f64.const" => match arg {
            "nan:canonical" => Ok(ExpectedValue::CanonicalNan64),
            "nan:arithmetic" => Ok(ExpectedValue::ArithmeticNan64),
            _ => exact(WasmValue::F64(f64::from_bits(
                num::parse_f64(arg).map_err(|m| WatError::new(m, offset))?,
            ))),
        },
        "ref.null" => match arg {
            "func" | "funcref" => exact(WasmValue::FuncRef(None)),
            _ => exact(WasmValue::ExternRef(None)),
        },
        other => Err(WatError::new(
            format!("unsupported constant `{other}`"),
            offset,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_commands() {
        let script = parse_script(
            "t",
            r#"
            (module (func (export "f") (result i32) i32.const 1))
            (assert_return (invoke "f") (i32.const 1))
            (assert_trap (invoke "f" (i32.const 0)) "integer divide by zero")
            (assert_invalid (module (func (result i32) nop)) "underflow")
            (assert_malformed (module quote "(func") "unbalanced")
            (invoke "f")
            "#,
        )
        .expect("parses");
        assert_eq!(script.commands.len(), 6);
        assert!(matches!(script.commands[0].0, Command::Module(ModuleForm::Text(_))));
        match &script.commands[1].0 {
            Command::AssertReturn { action, expected } => {
                assert_eq!(action.func, "f");
                assert_eq!(expected, &[ExpectedValue::Exact(WasmValue::I32(1))]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fuel_directive_parses() {
        let script = parse_script(
            "fueled",
            r#"
            (fuel 1000)
            (module (func (export "f") (result i32) i32.const 1))
            (assert_return (invoke "f") (i32.const 1))
            "#,
        )
        .expect("parses");
        assert!(script.uses_fuel());
        assert!(matches!(script.commands[0].0, Command::Fuel(1000)));
        let plain = parse_script("plain", r#"(module)"#).expect("parses");
        assert!(!plain.uses_fuel());
    }

    #[test]
    fn nan_patterns_and_binary_modules() {
        let script = parse_script(
            "t",
            r#"
            (module binary "\00asm\01\00\00\00")
            (assert_return (invoke "f") (f64.const nan:canonical) (f32.const nan:arithmetic))
            "#,
        )
        .expect("parses");
        match &script.commands[0].0 {
            Command::Module(ModuleForm::Binary(bytes)) => {
                assert_eq!(bytes, b"\0asm\x01\0\0\0");
            }
            other => panic!("{other:?}"),
        }
        match &script.commands[1].0 {
            Command::AssertReturn { expected, .. } => {
                assert_eq!(
                    expected,
                    &[ExpectedValue::CanonicalNan64, ExpectedValue::ArithmeticNan32]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn expected_value_matching() {
        assert!(ExpectedValue::Exact(WasmValue::F32(-0.0)).matches(&WasmValue::F32(-0.0)));
        assert!(!ExpectedValue::Exact(WasmValue::F32(-0.0)).matches(&WasmValue::F32(0.0)));
        assert!(ExpectedValue::CanonicalNan64.matches(&WasmValue::F64(f64::NAN)));
        assert!(ExpectedValue::ArithmeticNan64.matches(&WasmValue::F64(f64::NAN)));
        assert!(!ExpectedValue::CanonicalNan64.matches(&WasmValue::F64(1.0)));
        assert!(
            ExpectedValue::ArithmeticNan32
                .matches(&WasmValue::F32(f32::from_bits(0x7FC0_0001))),
            "payload NaNs are arithmetic"
        );
        assert!(!ExpectedValue::CanonicalNan32.matches(&WasmValue::F32(f32::from_bits(0x7FC0_0001))));
    }
}
