//! `wasm-baseline` — umbrella crate for the reproduction of
//! *"Whose Baseline Compiler is it Anyway?"* (CGO 2024).
//!
//! This crate re-exports the workspace members so examples, integration
//! tests, and downstream users can depend on a single crate:
//!
//! * [`wasm`] — module representation, binary format, validator;
//! * [`machine`] — virtual target ISA, assembler, cost model, CPU simulator;
//! * [`interp`] — the in-place interpreter and probe interface;
//! * [`spc`] — the single-pass baseline compiler (the paper's contribution);
//! * [`optc`] — the optimizing tier;
//! * [`engine`] — the multi-tier engine, GC, monitors, and metrics;
//! * [`suites`] — the synthetic PolyBenchC / Libsodium / Ostrich suites.
//!
//! See `README.md` for a quickstart and `DESIGN.md` / `EXPERIMENTS.md` for
//! the reproduction methodology and results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use engine;
pub use interp;
pub use machine;
pub use optc;
pub use spc;
pub use suites;
pub use wasm;
