//! Interpreter tiers for the baseline-compiler study.
//!
//! * [`interp`] — the **in-place interpreter** (the reproduction's
//!   Wizard-INT): executes original bytecode over the tagged value stack
//!   using a per-function [`sidetable`] for control transfers.
//! * [`probe`] — the instrumentation interface (probes, frame accessors)
//!   shared by the interpreter and JIT-compiled code.
//! * [`profile`] — execution profiles the lower tiers export to the
//!   optimizing tier (branch bias for profile-guided block layout).
//!
//! The interpreter is a resumable frame executor: it stops a frame with the
//! same [`machine::cpu::Exit`] the CPU simulator returns, its positions
//! bytecode offsets, and the engine drives calls and returns so execution
//! can cross tiers at any call boundary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod interp;
pub mod probe;
pub mod profile;
pub mod sidetable;

pub use interp::{prepare, Interpreter, PreparedFunction};
pub use probe::{FrameAccessor, NoProbes, ProbeSink};
pub use profile::{BranchSummary, FuncProfile};
pub use sidetable::{BranchEntry, Sidetable};
