//! WebAssembly substrate: module representation, binary format, and validation.
//!
//! This crate is the foundation of the baseline-compiler study. It provides:
//!
//! * [`types`] — value types, signatures, limits, and block types;
//! * [`opcode`] — the opcode set with immediate-shape and signature metadata;
//! * [`leb`], [`reader`], [`writer`] — binary primitives shared by everything
//!   that touches bytecode (decoder, encoder, interpreter, compilers);
//! * [`module`] — the in-memory [`module::Module`], with function bodies kept
//!   as raw bytecode so execution tiers can work *in place*;
//! * [`builder`] — programmatic construction of modules and bodies;
//! * [`decode`] / [`encode`] — the `.wasm` binary format;
//! * [`names`] — the `name` custom section, parsed (tolerantly) into typed
//!   function/local name maps the engine symbolicates trap backtraces with;
//! * [`hash`] — stable FNV-1a content hashing behind
//!   [`module::Module::content_hash`], the engine's code-cache key primitive;
//! * [`validate`] — the forward abstract-interpretation validator whose
//!   algorithm the single-pass compiler reuses, and whose one walk of each
//!   body also writes the two tables below;
//! * [`sidetable`] / [`fuel`] — the in-place interpreter's branch table and
//!   the fuel-charging schedule all tiers share (the data types; the
//!   validator fills them);
//! * [`wat`] — the text-format frontend (`.wat` → [`module::Module`]) and the
//!   canonical printer whose output round-trips byte-identically.
//!
//! # Examples
//!
//! Build, encode, decode, and validate a small module:
//!
//! ```
//! use wasm::builder::{CodeBuilder, ModuleBuilder};
//! use wasm::opcode::Opcode;
//! use wasm::types::{FuncType, ValueType};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ModuleBuilder::new();
//! let mut code = CodeBuilder::new();
//! code.local_get(0).local_get(1).op(Opcode::I32Add);
//! let add = b.add_func(
//!     FuncType::new(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32]),
//!     vec![],
//!     code.finish(),
//! );
//! b.export_func("add", add);
//! let module = b.finish();
//!
//! let bytes = wasm::encode::encode(&module);
//! let decoded = wasm::decode::decode(&bytes)?;
//! let info = wasm::validate::validate(&decoded)?;
//! assert_eq!(info.funcs[0].max_stack, 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod decode;
pub mod encode;
pub mod fuel;
pub mod hash;
pub mod leb;
pub mod module;
pub mod names;
pub mod opcode;
pub mod reader;
pub mod sidetable;
pub mod types;
pub mod validate;
pub mod wat;
pub mod writer;

pub use module::{Module, ModuleData};
pub use opcode::Opcode;
pub use types::{BlockType, FuncType, GlobalType, Limits, ValueType};
