//! Execution substrate for the baseline-compiler study: a virtual target ISA,
//! assembler, cycle cost model, CPU simulator, and the tagged value stack,
//! linear memory, and tables shared by every execution tier.
//!
//! The paper's compilers emit x86-64 and run on hardware; this reproduction
//! substitutes a virtual register machine whose emitted code is *actually
//! executed* by [`cpu::Cpu`] against the same runtime objects the interpreter
//! uses, with execution time measured in simulated cycles from a single
//! [`cost::CostModel`]. See DESIGN.md for why this preserves the paper's
//! relative results.
//!
//! Module map:
//!
//! * [`reg`] — general-purpose and floating-point registers;
//! * [`inst`] — the instruction set, including value-tag stores and probes;
//! * [`asm`] — forward-patching assembler and finished [`asm::CodeBuffer`]s
//!   with bytecode source maps;
//! * [`ops`] — scalar semantics shared by interpreter, CPU, and constant
//!   folding;
//! * [`masm`] — the [`masm::Masm`] macro-assembler trait that separates the
//!   single-pass translation strategy from target encoding, implemented by
//!   the virtual-ISA assembler and by the x86-64 backend;
//! * [`lower`] — classification of Wasm opcodes into machine operations;
//! * [`values`] — tagged 64-bit slots, the value stack, and globals;
//! * [`memory`] — linear memory and tables;
//! * [`cost`] — the cycle cost model;
//! * [`cpu`] — the resumable CPU simulator, which executes a
//!   [`asm::CodeBuffer`] through its pre-decoded op stream (`predecode`,
//!   private), the [`cpu::ExecContext`] a frame runs against, and the
//!   [`cpu::Exit`] both executors return to the engine;
//! * [`x64`] — a byte-level x86-64 instruction encoder;
//! * [`x64_masm`] — the x86-64 [`masm::Masm`] backend built on that encoder,
//!   emitting real machine bytes with label patching, a source map, and
//!   runtime relocations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod cost;
pub mod cpu;
pub mod inst;
pub mod lower;
pub mod masm;
pub mod memory;
pub mod ops;
mod predecode;
pub mod reg;
pub mod values;
pub mod x64;
pub mod x64_masm;

pub use asm::{Assembler, CodeBuffer};
pub use masm::{CodeBackend, Masm};
pub use cost::{CostModel, CycleCounter};
pub use cpu::{Cpu, CpuState, ExecContext, Exit, Meter, ProbeExit};
pub use inst::{Label, MachInst, TrapCode, Width};
pub use memory::{LinearMemory, Table};
pub use reg::{AnyReg, FReg, Reg};
pub use x64_masm::{X64Code, X64Masm};
pub use values::{GlobalSlot, ValueStack, ValueTag, WasmValue};
