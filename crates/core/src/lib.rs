//! `spc` — the single-pass ("baseline") WebAssembly compiler, the paper's
//! primary contribution.
//!
//! The compiler translates Wasm bytecode to the virtual target ISA in one
//! forward pass using abstract interpretation (no IR), performing forward
//! register allocation, constant tracking and folding, branch folding,
//! immediate-mode instruction selection, and value-tag optimization along the
//! way. It integrates with the in-place interpreter by sharing the tagged
//! value stack and frame layout, supports flexible instrumentation through
//! probes, and can be configured to reproduce the designs of the six
//! production baseline compilers studied in the paper (see [`profiles`]).
//!
//! Module map:
//!
//! * [`options`] — feature axes ([`CompilerOptions`], [`TagStrategy`],
//!   [`ProbeMode`]) and the Fig. 4 / Fig. 5 configurations;
//! * [`abstract_state`] — the abstract value stack and register bindings;
//! * [`compiler`] — the single-pass compiler itself;
//! * [`stackmap`] — per-call-site GC metadata for the stackmap strategy;
//! * [`instrument`] — compile-time probe descriptions;
//! * [`profiles`] — the six baseline-compiler design profiles (Fig. 3).
//!
//! # Examples
//!
//! ```
//! use spc::{CompilerOptions, ProbeSites, SinglePassCompiler};
//! use wasm::builder::{CodeBuilder, ModuleBuilder};
//! use wasm::opcode::Opcode;
//! use wasm::types::{FuncType, ValueType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ModuleBuilder::new();
//! let mut code = CodeBuilder::new();
//! code.local_get(0).i32_const(1).op(Opcode::I32Add);
//! let f = b.add_func(
//!     FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
//!     vec![],
//!     code.finish(),
//! );
//! let module = b.finish();
//! let info = wasm::validate::validate(&module)?;
//!
//! let compiler = SinglePassCompiler::new(CompilerOptions::allopt());
//! let compiled = compiler.compile(&module, f, &info.funcs[0], &ProbeSites::none())?;
//! println!("{}", compiled.code.disassemble());
//! assert!(compiled.stats.immediate_selections > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstract_state;
pub mod compiler;
pub mod instrument;
pub mod options;
pub mod profiles;
pub mod stackmap;

pub use compiler::{
    CallSiteInfo, CompileError, CompileStats, CompiledCode, CompiledFunction, JitProbeSite,
    SinglePassCompiler,
};
pub use instrument::{ProbeKind, ProbeSite, ProbeSites};
pub use options::{CompilerOptions, ProbeMode, TagStrategy};
pub use profiles::{all_profiles, BaselineProfile};
pub use stackmap::{Stackmap, StackmapTable};
