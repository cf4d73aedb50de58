//! The multi-tier WebAssembly engine tying the reproduction together.
//!
//! An [`Engine`] is created from an [`EngineConfig`] naming its execution
//! tier(s): the in-place interpreter, the single-pass baseline compiler (in
//! any of the paper's configurations or the six production design profiles),
//! the optimizing tier, or a tiered combination with hotness-based tier-up;
//! it is a handle, and its clones share one runtime. Instantiating a module
//! produces an [`Instance`] holding the shared tagged value stack, linear
//! memory, globals, tables, the host GC [`gc::Heap`], attached
//! [`monitor::Instrumentation`], and [`RunMetrics`] recording setup time,
//! compile time, and executed cycles — the raw measurements behind the
//! paper's figures. The immutable side of an instance — module, validation
//! output, sidetables, and compiled code — lives in a shared
//! [`pipeline::CompiledModule`] artifact: eager compilation can shard across
//! scoped worker threads ([`EngineConfig::compile_workers`]), every later
//! compile (lazy first call, tier-up, OSR) runs on the executing thread that
//! needs the code — compile time is application time — and a
//! [`cache::CodeCache`] lets repeated instantiations of the same module skip
//! compilation entirely.
//!
//! One module per concern: [`engine`] (the handle, instantiation, the two
//! public calls), `instance` (an instance's state), `exec` (the frame
//! executor: interpreter and JIT frames on one value stack), `tierup` (tier
//! choice, tier-up, OSR), [`gc`] (the heap and its roots), [`trap`]
//! (backtraces), [`pipeline`] and [`cache`] (compiled artifacts), [`pool`]
//! and [`image`] (instance reuse), [`monitor`] and [`config`].
//!
//! # Examples
//!
//! ```
//! use engine::{Engine, EngineConfig, Imports, Instrumentation};
//! use machine::values::WasmValue;
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
//! let engine = Engine::new(EngineConfig::default());
//! let mut instance = engine.instantiate(&module, Imports::new(), Instrumentation::none())?;
//! let result = engine.call_export(&mut instance, "add", &[WasmValue::I32(2), WasmValue::I32(40)])?;
//! assert_eq!(result, vec![WasmValue::I32(42)]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod engine;
mod exec;
pub mod gc;
pub mod image;
mod instance;
pub mod monitor;
pub mod pipeline;
pub mod pool;
mod tierup;
pub mod trap;

pub use cache::{CacheKey, CacheStats, CodeCache};
pub use config::{EngineConfig, ResourceLimits, Start, TierSchedule};
pub use machine::masm::CodeBackend;
pub use engine::{Engine, EngineError, HostFunc, Imports, Instance, RunMetrics};
pub use gc::{Heap, HostObject};
pub use image::MemoryImage;
pub use monitor::{BranchMonitor, BranchProfile, Instrumentation};
pub use pipeline::{CompileTier, CompiledArtifact, CompiledModule};
pub use pool::{InstancePool, PoolStats, PooledInstance};
pub use telemetry::Telemetry;
pub use trap::{Backtrace, Frame, FrameTierTag, TrapInfo, TrapReason};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a thread panicked while holding it.
/// Sound for this crate's two locks (the code cache's map and the pool's idle
/// list) because each critical section is one map lookup or insert, one
/// `clear`, one `pop`/`push` or a read: none leaves the data half-written, so
/// a panic inside one poisons nothing but the flag.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
