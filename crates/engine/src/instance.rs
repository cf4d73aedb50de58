//! An instance's mutable runtime state, the host imports it is built from,
//! the errors building one can raise, and its metrics.

use crate::gc::Heap;
use crate::monitor::Instrumentation;
use crate::pipeline::CompiledModule;
use crate::trap::TrapInfo;
use machine::cpu::CpuState;
use machine::inst::TrapCode;
use machine::memory::{LinearMemory, Table};
use machine::values::{GlobalSlot, ValueStack, ValueTag, WasmValue};
use spc::CompiledFunction;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use wasm::module::Module;
use wasm::types::ValueType;

/// A host (imported) function. `Send` so instances (and with them, instance
/// pools) can move between serving workers.
pub type HostFunc =
    Box<dyn FnMut(&mut Heap, &[WasmValue]) -> Result<Vec<WasmValue>, TrapCode> + Send>;

/// Host imports provided at instantiation, keyed by `(module, name)`.
#[derive(Default)]
pub struct Imports {
    pub(crate) funcs: HashMap<(String, String), HostFunc>,
}

impl Imports {
    /// No imports.
    pub fn new() -> Imports {
        Imports::default()
    }

    /// Provides a host function for `(module, name)`.
    pub fn func(
        mut self,
        module: &str,
        name: &str,
        f: impl FnMut(&mut Heap, &[WasmValue]) -> Result<Vec<WasmValue>, TrapCode> + Send + 'static,
    ) -> Imports {
        self.funcs
            .insert((module.to_string(), name.to_string()), Box::new(f));
        self
    }
}

impl fmt::Debug for Imports {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Imports").field("funcs", &self.funcs.len()).finish()
    }
}

/// Errors produced while building an instance.
#[derive(Debug)]
pub enum EngineError {
    /// Validation failed.
    Validate(wasm::validate::ValidateError),
    /// Compilation failed.
    Compile(spc::CompileError),
    /// Instantiation failed (missing import, bad segment, ...).
    Instantiate(String),
    /// Execution of the start function trapped.
    Start(TrapCode),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Validate(e) => write!(f, "{e}"),
            EngineError::Compile(e) => write!(f, "{e}"),
            EngineError::Instantiate(msg) => write!(f, "instantiation error: {msg}"),
            EngineError::Start(code) => write!(f, "start function trapped: {code}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Timing and counting data for one instance, in the units the paper's
/// figures use: wall-clock time for setup/compilation (real work done by this
/// reproduction's compilers) and simulated cycles for execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunMetrics {
    /// Wall-clock time spent in instantiation (validation, preparation,
    /// eager compilation, segment initialization).
    pub setup_wall: Duration,
    /// Time spent compiling eagerly at instantiation time, summed over the
    /// per-function compile durations. With one compile worker (the
    /// default) this is wall-clock time inside instantiation; with more it
    /// is aggregate compile CPU time across the workers, which can exceed
    /// [`RunMetrics::setup_wall`] while the elapsed compilation wall-clock
    /// (part of `setup_wall`) shrinks.
    pub compile_wall: Duration,
    /// Wall-clock time this instance's executing thread spent compiling
    /// after instantiation in the *baseline* tier: the lazy first-call and
    /// tier-up compiles it published (a compile that lost the publication
    /// race to another instance's is dropped and accounted nowhere). Kept
    /// separate from [`RunMetrics::compile_wall`] so the deferred-compilation
    /// confounder is visible; sum everything via
    /// [`RunMetrics::total_compile_wall`] when only the total matters.
    pub lazy_compile_wall: Duration,
    /// Wall-clock time spent in the optimizing compiler on this instance's
    /// behalf — eager (optimizing-only configurations) and tier-up promotion
    /// compiles alike. The optimizing tier is expected to be an order of
    /// magnitude slower to run than the baseline compiler; this bucket makes
    /// that cost visible next to the cycles it buys
    /// ([`RunMetrics::opt_exec_cycles`]).
    pub opt_compile_wall: Duration,
    /// True if instantiation reused a shared artifact from the engine's
    /// [`CodeCache`](crate::CodeCache) instead of validating, preparing, and compiling — the
    /// observable form of a warm instantiation.
    pub cache_hit: bool,
    /// Bytes of Wasm function bodies compiled.
    pub compiled_wasm_bytes: u64,
    /// Bytes of machine code produced by the configured
    /// [`crate::CodeBackend`]: the virtual ISA's per-instruction estimate, or real
    /// encoded bytes when the x86-64 backend is selected.
    pub compiled_machine_bytes: u64,
    /// Functions compiled.
    pub functions_compiled: u32,
    /// Simulated cycles of execution ("main execution time").
    pub exec_cycles: u64,
    /// The subset of [`RunMetrics::exec_cycles`] spent executing
    /// optimizing-tier code.
    pub opt_exec_cycles: u64,
    /// Functions whose code was installed *after* instantiation on this
    /// instance's behalf: lazy first-call compiles, interpreter→baseline
    /// tier-ups, and baseline→optimizing promotions each count once.
    pub tiered_up_functions: u32,
    /// Value-tag store instructions emitted by the compiler.
    pub tag_stores_emitted: u64,
}

impl RunMetrics {
    /// Total wall-clock compile time attributed to this instance, eager plus
    /// deferred (lazy / tier-up) plus the optimizing tier.
    pub fn total_compile_wall(&self) -> Duration {
        self.compile_wall + self.lazy_compile_wall + self.opt_compile_wall
    }
}

/// One live, runnable instance of a module under a specific engine
/// configuration.
///
/// The instance owns only *mutable runtime state* — value stack, linear
/// memory, globals, tables, heap, call counts, instrumentation data, and
/// metrics. Everything immutable (the module, validation output, sidetables,
/// and compiled code) lives in the shared [`CompiledModule`] artifact, so
/// many instances of the same module can share one copy of the compiled
/// code across threads.
pub struct Instance {
    pub(crate) artifact: Arc<CompiledModule>,
    pub(crate) call_counts: Vec<u32>,
    /// Per-function loop back-edge counts, incremented by the OSR hook at
    /// the fused meter-check sites, and empty unless the configuration arms
    /// OSR. Like [`Instance::call_counts`], this is earned tier state: a
    /// warm pool checkout keeps it.
    pub(crate) osr_counts: Vec<u32>,
    pub(crate) memory: Option<LinearMemory>,
    pub(crate) globals: Vec<GlobalSlot>,
    pub(crate) tables: Vec<Table>,
    pub(crate) values: ValueStack,
    /// One register file per call depth, for the JIT frames of the next
    /// call tree (see `exec::CallStack`): kept between calls, so a warm
    /// call backs none.
    pub(crate) registers: Vec<CpuState>,
    /// The host garbage-collected heap.
    pub heap: Heap,
    /// Attached instrumentation (monitors and probe registry).
    pub instrumentation: Instrumentation,
    /// One entry per distinct imported `(module, name)`.
    pub(crate) host_funcs: Vec<HostFunc>,
    /// Imported function index → its entry in `host_funcs`.
    pub(crate) host_slots: Vec<usize>,
    /// Remaining fuel, when fuel metering is armed via
    /// [`Instance::set_fuel`]. `None` runs unmetered even under a metering
    /// configuration (the compiled check sequences become no-ops).
    pub(crate) fuel: Option<u64>,
    /// The fuel budget [`Instance::set_fuel`] last armed, so
    /// [`Instance::fuel_consumed`] can report spend without the caller
    /// keeping the initial number around.
    pub(crate) initial_fuel: u64,
    /// Epoch deadline: execution traps with [`TrapCode::Interrupted`] once
    /// the engine's shared epoch counter reaches this value.
    pub(crate) epoch_deadline: Option<u64>,
    /// Diagnostics for the most recent trap: the classified reason plus the
    /// symbolicated cross-tier backtrace captured when it fired.
    pub(crate) last_trap: Option<TrapInfo>,
    /// Accumulated metrics.
    pub metrics: RunMetrics,
}

impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("funcs", &self.module().num_funcs())
            .field("compiled", &self.artifact.compiled_count())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl Instance {
    /// The instantiated module.
    pub fn module(&self) -> &Module {
        self.artifact.module()
    }

    /// The shared compilation artifact this instance executes from.
    pub fn artifact(&self) -> &Arc<CompiledModule> {
        &self.artifact
    }

    /// The compiled code for a defined function, if it has been compiled.
    pub fn compiled_code(&self, defined_index: u32) -> Option<&CompiledFunction> {
        self.artifact.code(defined_index)
    }

    /// The number of times each defined function has been called.
    pub fn call_count(&self, defined_index: u32) -> u32 {
        self.call_counts.get(defined_index as usize).copied().unwrap_or(0)
    }

    /// Read a global's current value by index.
    pub fn global_value(&self, index: u32) -> Option<WasmValue> {
        self.globals.get(index as usize).map(|g| g.value())
    }

    /// Arms deterministic fuel metering with a budget of `fuel` units.
    ///
    /// Requires an engine configuration built with
    /// [`EngineConfig::with_metering`](crate::EngineConfig::with_metering):
    /// without it no tier contains check sequences and the budget is never
    /// consumed. When the budget runs out, execution traps with
    /// [`TrapCode::OutOfFuel`] at the same instruction in every tier.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = Some(fuel);
        self.initial_fuel = fuel;
    }

    /// Remaining fuel, or `None` if fuel metering was never armed.
    pub fn fuel_remaining(&self) -> Option<u64> {
        self.fuel
    }

    /// Fuel consumed since the last [`Instance::set_fuel`], or `None` if
    /// fuel metering was never armed.
    pub fn fuel_consumed(&self) -> Option<u64> {
        self.fuel.map(|remaining| self.initial_fuel - remaining)
    }

    /// Sets the epoch deadline: execution traps with
    /// [`TrapCode::Interrupted`] at the next check site (loop back-edge or
    /// call boundary) once the engine's shared epoch counter reaches
    /// `deadline`. Requires a metering configuration for in-loop checks;
    /// call-boundary checks work regardless.
    pub fn set_epoch_deadline(&mut self, deadline: u64) {
        self.epoch_deadline = Some(deadline);
    }

    /// Clears the epoch deadline so execution can resume after an
    /// interruption.
    pub fn clear_epoch_deadline(&mut self) {
        self.epoch_deadline = None;
    }

    /// Diagnostics for the most recent trap on this instance, if any call
    /// has trapped since instantiation (or the last warm pool checkout). The engine
    /// captures these for *every* trapping call — including fuel exhaustion
    /// and epoch interruption — at the moment the trap fires, so the
    /// backtrace reflects the live activation stack.
    pub fn last_trap(&self) -> Option<&TrapInfo> {
        self.last_trap.as_ref()
    }

    /// The instance's linear memory, if the module declares one.
    pub fn memory(&self) -> Option<&LinearMemory> {
        self.memory.as_ref()
    }

    /// A table by index.
    pub fn table(&self, index: u32) -> Option<&Table> {
        self.tables.get(index as usize)
    }

    /// The values of `types` in consecutive slots from `base`, read by their
    /// static types: a tier need not have stored their tags.
    pub(crate) fn read_values(&self, base: usize, types: &[ValueType]) -> Vec<WasmValue> {
        types
            .iter()
            .zip(base..)
            .map(|(&ty, slot)| WasmValue::from_bits(self.values.read(slot), ValueTag::for_type(ty)))
            .collect()
    }
}
