//! The multi-tier engine: instances, the frame executor, and metrics.
//!
//! The engine owns the pieces the paper's Wizard engine owns: module loading
//! and validation, per-function preparation (sidetables), tier selection and
//! compilation (baseline or optimizing), the shared tagged value stack,
//! linear memory/globals/tables, the host GC heap, instrumentation, and the
//! unified execution driver that lets interpreter frames and JIT frames call
//! each other freely (tier-up happens at function entry once a function gets
//! hot; tier-down to the interpreter can happen when a probe fires in JIT
//! code). Both executors stop a frame with the same [`Exit`]; an activation
//! keeps its resume and call-site positions in its tier's own coordinates,
//! and only a trap's frame walk maps them to bytecode offsets.
//!
//! An [`Engine`] is a handle (one [`Arc`]) to everything immutable the
//! runtime needs, built once by [`Engine::new`]: the configuration, the cost
//! model, both executors, the optional [`CodeCache`] (shared artifacts
//! across instantiations), the epoch and the telemetry sink. Clones share
//! all of it; an [`Instance`] holds only mutable runtime state.
//!
//! Compilation itself lives in [`crate::pipeline`]: every instance holds an
//! immutable, shareable [`CompiledModule`] artifact behind an [`Arc`].
//! Code is compiled at instantiation ([`pipeline::compile_eager`]) or on the
//! executing thread at the call boundary or OSR poll that needs it
//! (`Engine::ensure_compiled`) — nowhere else.

use crate::cache::{CacheKey, CodeCache};
use crate::config::{EngineConfig, TierPolicy};
use crate::gc::{scan_roots_via_stackmaps, scan_roots_via_tags, Heap, StackmapFrame};
use crate::image::MemoryImage;
use crate::monitor::Instrumentation;
use crate::pipeline::{self, CompileTier, CompiledArtifact, CompiledModule};
use crate::trap::{Backtrace, Frame, TrapInfo};
use interp::interp::Interpreter;
use interp::probe::{FrameAccessor, ProbeSink};
use machine::cost::{CostModel, CycleCounter};
use machine::cpu::{Cpu, CpuState, EpochSampler, ExecContext, Exit, Meter, OsrHook, ProbeExit};
use machine::inst::TrapCode;
use machine::memory::{LinearMemory, Table};
use machine::values::{GlobalSlot, ValueStack, ValueTag, WasmValue};
use spc::CompiledFunction;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{EventKind, Telemetry};
use wasm::module::{ImportKind, Module};

/// A host (imported) function. `Send` so instances (and with them, instance
/// pools) can move between serving workers.
pub type HostFunc =
    Box<dyn FnMut(&mut Heap, &[WasmValue]) -> Result<Vec<WasmValue>, TrapCode> + Send>;

/// Host imports provided at instantiation, keyed by `(module, name)`.
#[derive(Default)]
pub struct Imports {
    funcs: HashMap<(String, String), HostFunc>,
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
    /// [`CodeCache`] instead of validating, preparing, and compiling — the
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

/// Whether a compilation ran at instantiation time or after it, which
/// decides the [`RunMetrics`] bucket its wall-clock time lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompileTiming {
    Eager,
    Deferred,
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
    artifact: Arc<CompiledModule>,
    call_counts: Vec<u32>,
    /// Per-function loop back-edge counts, incremented by the OSR hook at
    /// the fused meter-check sites. Like [`Instance::call_counts`], this is
    /// earned tier state: a warm pool checkout keeps it.
    osr_counts: Vec<u32>,
    memory: Option<LinearMemory>,
    globals: Vec<GlobalSlot>,
    tables: Vec<Table>,
    values: ValueStack,
    /// The host garbage-collected heap.
    pub heap: Heap,
    /// Attached instrumentation (monitors and probe registry).
    pub instrumentation: Instrumentation,
    /// One entry per distinct imported `(module, name)`.
    host_funcs: Vec<HostFunc>,
    /// Imported function index → its entry in `host_funcs`.
    host_slots: Vec<usize>,
    /// Remaining fuel, when fuel metering is armed via
    /// [`Instance::set_fuel`]. `None` runs unmetered even under a metering
    /// configuration (the compiled check sequences become no-ops).
    fuel: Option<u64>,
    /// The fuel budget [`Instance::set_fuel`] last armed, so
    /// [`Instance::fuel_consumed`] can report spend without the caller
    /// keeping the initial number around.
    initial_fuel: u64,
    /// Epoch deadline: execution traps with [`TrapCode::Interrupted`] once
    /// the engine's shared epoch counter reaches this value.
    epoch_deadline: Option<u64>,
    /// Diagnostics for the most recent trap: the classified reason plus the
    /// symbolicated cross-tier backtrace captured when it fired.
    last_trap: Option<TrapInfo>,
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
}

enum FrameTier {
    Interp,
    // The register file is boxed so interpreter activations stay small. The
    // compile tier is pinned per activation: a frame keeps running the code
    // it started in even if a higher tier publishes mid-activation.
    Jit {
        cpu: Box<CpuState>,
        tier: CompileTier,
    },
}

impl FrameTier {
    fn jit_tier(&self) -> Option<CompileTier> {
        match self {
            FrameTier::Interp => None,
            FrameTier::Jit { tier, .. } => Some(*tier),
        }
    }
}

struct Activation {
    func_index: u32,
    defined_index: u32,
    frame_base: usize,
    num_results: u32,
    frame_slots: u32,
    tier: FrameTier,
    /// Where the frame continues when it next runs. Like `site`, a position
    /// in the frame's tier's own coordinates: a bytecode offset in the
    /// interpreter, an instruction index into compiled code.
    resume: usize,
    /// One declined OSR poll is absorbed before the next can fire, so a
    /// loop whose transition is pending (or was refused) always makes a
    /// full iteration of progress between polls.
    osr_skip: bool,
    /// OSR permanently disabled for this activation (no entry for the loop,
    /// compile failure, or a frame that cannot grow to the optimized size).
    osr_off: bool,
    /// Position of the call instruction this frame last suspended at. This
    /// is the frame's position in a backtrace while a callee runs — and
    /// where traps raised *at the call boundary itself* (stack exhaustion,
    /// epoch interruption in `push_frame`, indirect-call dispatch failures,
    /// host errors) are attributed.
    site: usize,
}

/// The engine: a configuration plus the machinery to instantiate and run
/// modules under it.
///
/// An `Engine` is a handle to one runtime built once by [`Engine::new`]:
/// clones share everything — the configuration, the executors, the attached
/// [`CodeCache`], the epoch counter and the telemetry sink — which is how a
/// serving setup runs every app and every worker thread on one engine.
/// Tenants with different configurations share compiled code by attaching
/// one cache to several engines
/// (`Engine::new(config).with_code_cache(Arc::clone(&cache))`). There is no
/// compile pool to share: a function is compiled by the thread that
/// instantiates or first needs it.
#[derive(Debug, Clone)]
pub struct Engine(Arc<EngineInner>);

#[derive(Debug, Clone)]
struct EngineInner {
    config: EngineConfig,
    /// [`EngineConfig::compile_fingerprint`] and
    /// [`EngineConfig::opt_fingerprint`] of `config`, computed once: the
    /// configuration never changes after construction and every
    /// instantiation's [`CacheKey`] carries both.
    compile_fingerprint: u64,
    opt_fingerprint: u64,
    cache: Option<Arc<CodeCache>>,
    /// The epoch counter for preemption: a supervisor thread bumping it
    /// preempts every instance with an armed deadline at its next check
    /// site.
    epoch: Arc<AtomicU64>,
    /// The engine's telemetry handle. Disabled by default (one never-taken
    /// branch per site).
    telemetry: Telemetry,
    /// The cycle cost model every configuration runs under, and the two
    /// executors built once from it and borrowed by every call (the CPU
    /// derives its cost tables when it is built). The engine itself charges
    /// the call-boundary costs.
    cost: CostModel,
    interp: Interpreter,
    cpu: Cpu,
}

impl Engine {
    /// Creates an engine with the given configuration and telemetry off;
    /// [`Engine::with_telemetry`] attaches a sink.
    pub fn new(config: EngineConfig) -> Engine {
        let cost = CostModel::default();
        Engine(Arc::new(EngineInner {
            interp: Interpreter::new(cost.clone()),
            cpu: Cpu::new(cost.clone()),
            cost,
            compile_fingerprint: config.compile_fingerprint(),
            opt_fingerprint: config.opt_fingerprint(),
            config,
            cache: None,
            epoch: Arc::new(AtomicU64::new(0)),
            telemetry: Telemetry::disabled(),
        }))
    }

    /// [`CacheKey::for_instantiation`] under this engine's configuration,
    /// with the two configuration fingerprints read back, not recomputed.
    fn cache_key(&self, module: &Module, instrumentation: &Instrumentation) -> CacheKey {
        CacheKey {
            content_hash: module.content_hash(),
            options_fingerprint: self.0.compile_fingerprint,
            backend: self.0.config.backend,
            instrumentation_fingerprint: instrumentation.fingerprint(),
            opt_fingerprint: self.0.opt_fingerprint,
        }
    }

    /// Attaches a shared code cache: instantiations look up the
    /// (content-hash, options-fingerprint, backend, instrumentation) key and
    /// reuse the whole compiled artifact on a hit, skipping validation,
    /// preparation, and compilation. Call it before the engine is cloned:
    /// on a shared handle it builds a separate engine.
    pub fn with_code_cache(mut self, cache: Arc<CodeCache>) -> Engine {
        Arc::make_mut(&mut self.0).cache = Some(cache);
        self
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.0.config
    }

    /// The attached code cache, if any.
    pub fn code_cache(&self) -> Option<&Arc<CodeCache>> {
        self.0.cache.as_ref()
    }

    /// Attaches a telemetry handle: [`Telemetry::enabled`] for a sink of the
    /// engine's own, or a clone of another handle to share the sink behind
    /// it — the way a serving stack collects the engine's and its own events
    /// into one trace. The handle is not part of the configuration (nor of
    /// [`EngineConfig::compile_fingerprint`]): telemetry observes execution
    /// without changing the code any tier emits and charges no simulated
    /// cycles, so traced and untraced engines share cache entries. Like
    /// [`Engine::with_code_cache`], call it before the engine is cloned.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Engine {
        Arc::make_mut(&mut self.0).telemetry = telemetry;
        self
    }

    /// The engine's telemetry handle (disabled unless one was attached).
    pub fn telemetry(&self) -> &Telemetry {
        &self.0.telemetry
    }

    /// The engine's epoch counter. Clone the [`Arc`] to bump it from a
    /// supervisor thread.
    pub fn epoch(&self) -> &Arc<AtomicU64> {
        &self.0.epoch
    }

    /// Advances the epoch by one, preempting every instance whose deadline
    /// is now reached at its next check site.
    pub fn increment_epoch(&self) {
        self.0.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Instantiates a module: validates, prepares, optionally compiles
    /// eagerly, initializes memory/globals/tables and segments, and runs the
    /// start function.
    ///
    /// # Errors
    ///
    /// Returns an error if validation, compilation, import resolution, or
    /// segment initialization fails, or if the start function traps.
    pub fn instantiate(
        &self,
        module: &Module,
        imports: Imports,
        instrumentation: Instrumentation,
    ) -> Result<Instance, EngineError> {
        let setup_start = Instant::now();

        // Obtain the shared artifact: from the code cache when attached (a
        // hit skips validation, preparation, and all compilation), freshly
        // built otherwise.
        let mut cache_hit = false;
        let artifact: Arc<CompiledModule> = match &self.0.cache {
            Some(cache) => {
                let key = self.cache_key(module, &instrumentation);
                let found = match cache.lookup(&key, module) {
                    Some(shared) => {
                        cache_hit = true;
                        shared
                    }
                    None => {
                        let built = Arc::new(CompiledModule::build(module.clone())?);
                        cache.insert(key, Arc::clone(&built));
                        built
                    }
                };
                if self.0.telemetry.is_enabled() {
                    self.0
                        .telemetry
                        .emit(EventKind::CacheLookup { hit: cache_hit });
                    if let Some(metrics) = self.0.telemetry.metrics() {
                        metrics
                            .counter(if cache_hit { "cache.hits" } else { "cache.misses" })
                            .inc();
                    }
                }
                found
            }
            None => Arc::new(CompiledModule::build(module.clone())?),
        };

        // Resolve host imports: each distinct `(module, name)` is taken from
        // `imports` once, and a later import of the same key shares its slot.
        let mut imports = imports;
        let mut host_funcs = Vec::new();
        let mut host_slots = Vec::new();
        let mut resolved: HashMap<(&str, &str), usize> = HashMap::new();
        for import in &module.imports {
            if let ImportKind::Func(_) = import.kind {
                let slot = *resolved
                    .entry((import.module.as_str(), import.name.as_str()))
                    .or_insert(host_funcs.len());
                if slot == host_funcs.len() {
                    let key = (import.module.clone(), import.name.clone());
                    host_funcs.push(imports.funcs.remove(&key).ok_or_else(|| {
                        EngineError::Instantiate(format!(
                            "missing import {}.{}",
                            import.module, import.name
                        ))
                    })?);
                }
                host_slots.push(slot);
            }
        }

        // Eager compilation, sharded across the configured worker count.
        // Slots already published into a cached artifact are skipped, so a
        // warm instantiation compiles nothing and only the instance that
        // actually compiled a function accounts its time.
        let mut metrics = RunMetrics {
            cache_hit,
            ..RunMetrics::default()
        };
        let needs_eager = !self.0.config.lazy_compile
            && !matches!(self.0.config.tier, TierPolicy::InterpreterOnly);
        if needs_eager {
            let published = pipeline::compile_eager(
                &self.0.config,
                &artifact,
                &instrumentation,
                &self.0.telemetry,
            )
            .map_err(EngineError::Compile)?;
            let tier = pipeline::eager_tier(&self.0.config);
            for defined in published {
                let compiled = artifact
                    .artifact_for(defined, tier)
                    .expect("published function has an artifact");
                account_compile(&mut metrics, compiled, CompileTiming::Eager, tier);
            }
        }

        // Everything `initialize` writes starts empty here.
        let num_defined = module.funcs.len();
        let mut instance = Instance {
            artifact,
            call_counts: vec![0; num_defined],
            osr_counts: vec![0; num_defined],
            memory: None,
            globals: Vec::new(),
            tables: Vec::new(),
            values: ValueStack::default(),
            heap: Heap::default(),
            instrumentation,
            host_funcs,
            host_slots,
            fuel: None,
            initial_fuel: 0,
            epoch_deadline: None,
            last_trap: None,
            metrics: RunMetrics::default(),
        };
        self.initialize(&mut instance, metrics, Some(setup_start))?;
        Ok(instance)
    }

    /// Writes `instance`'s initial state: the one initializer behind both
    /// [`Engine::instantiate`] and a warm [`crate::InstancePool`] checkout.
    ///
    /// Memory, globals and tables are built fresh by [`MemoryImage::build`],
    /// which clamps the declared limits to the tenant's resource ceilings
    /// (so `memory.grow` can never exceed the tenant budget). The value
    /// stack's dirtied region is scrubbed, the host heap is replaced, fuel,
    /// deadline and trap are cleared, and `metrics` is installed, with
    /// [`RunMetrics::setup_wall`] measured from `setup_start` when one is
    /// given. Then the start function runs, exactly as on a cold
    /// instantiation.
    ///
    /// Kept, because it is earned rather than initial: the artifact's
    /// published code, call and OSR counts, instrumentation, host functions
    /// and the value stack's allocation, so a recycled instance stays in its
    /// tier. Tier choice never changes results — the conformance matrix's
    /// invariant, which `tests/instance_pool.rs` re-proves against cold
    /// instantiation directly.
    pub(crate) fn initialize(
        &self,
        instance: &mut Instance,
        metrics: RunMetrics,
        setup_start: Option<Instant>,
    ) -> Result<(), EngineError> {
        let (memory, globals, tables) =
            MemoryImage::build(instance.module(), &self.0.config.limits)?.into_parts();
        instance.memory = memory;
        instance.globals = globals;
        instance.tables = tables;
        instance.values.reset();
        instance.heap = Heap::with_threshold(self.0.config.gc_threshold);
        instance.fuel = None;
        instance.initial_fuel = 0;
        instance.epoch_deadline = None;
        instance.last_trap = None;
        instance.metrics = metrics;
        if let Some(setup_start) = setup_start {
            instance.metrics.setup_wall = setup_start.elapsed();
        }
        if let Some(start) = instance.module().start {
            self.call(instance, start, &[]).map_err(EngineError::Start)?;
        }
        Ok(())
    }

    /// Calls an exported function by name.
    ///
    /// # Errors
    ///
    /// Returns the trap that terminated execution, or `HostError` if the
    /// export does not exist.
    pub fn call_export(
        &self,
        instance: &mut Instance,
        name: &str,
        args: &[WasmValue],
    ) -> Result<Vec<WasmValue>, TrapCode> {
        let func_index = instance
            .module()
            .exported_func(name)
            .ok_or(TrapCode::HostError)?;
        self.call(instance, func_index, args)
    }

    /// Calls a function by index with the given arguments.
    ///
    /// # Errors
    ///
    /// Returns the trap that terminated execution.
    pub fn call(
        &self,
        instance: &mut Instance,
        func_index: u32,
        args: &[WasmValue],
    ) -> Result<Vec<WasmValue>, TrapCode> {
        if instance.module().is_imported_func(func_index) {
            return Err(TrapCode::HostError);
        }
        let num_results = instance
            .module()
            .func_type(func_index)
            .map(|t| t.results.clone())
            .ok_or(TrapCode::HostError)?;

        let frame_base = 0usize;
        let mut cycles = CycleCounter::new();
        let exec_result = self.run_call(instance, func_index, args, frame_base, &mut cycles);
        instance.metrics.exec_cycles += cycles.total();
        if self.0.telemetry.is_enabled() {
            if let Err(code) = &exec_result {
                self.0.telemetry.emit(match code {
                    TrapCode::OutOfFuel => EventKind::FuelExhausted,
                    TrapCode::Interrupted => EventKind::EpochInterrupt,
                    code => {
                        // `run_call` captured the diagnostics as the stack
                        // unwound; the event carries the innermost frame.
                        let top = instance
                            .last_trap
                            .as_ref()
                            .and_then(|t| t.backtrace.frames().first());
                        EventKind::Trap {
                            reason: code.wast_message(),
                            func: top.map_or(0, |f| f.func_index),
                            offset: top.map_or(0, |f| f.offset),
                            depth: instance
                                .last_trap
                                .as_ref()
                                .map_or(0, |t| t.backtrace.depth() as u32),
                        }
                    }
                });
            }
        }
        exec_result?;
        // Read results from the frame base.
        let out = num_results
            .iter()
            .enumerate()
            .map(|(i, &ty)| {
                WasmValue::from_bits(
                    instance.values.read(frame_base + i),
                    ValueTag::for_type(ty),
                )
            })
            .collect();
        Ok(out)
    }

    // ---- Internal machinery -------------------------------------------------

    /// Compiles `defined` for `tier` in the execution thread unless it is
    /// already published. Metrics follow the publisher: the compile is
    /// accounted to this instance only when this call installed the code —
    /// when another instance sharing the artifact got there first (the slot
    /// was full, or it won the publication race and this call's code was
    /// dropped), nothing is accounted here.
    fn ensure_compiled(
        &self,
        instance: &mut Instance,
        defined: u32,
        tier: CompileTier,
    ) -> Result<(), spc::CompileError> {
        let func_index = instance.artifact.module().defined_to_func_index(defined);
        let probes = instance.instrumentation.sites_for(func_index);
        let profile = match tier {
            CompileTier::Opt => instance.instrumentation.func_profile(func_index),
            CompileTier::Baseline => None,
        };
        let published = pipeline::compile_slot(
            &self.0.telemetry,
            &self.0.config,
            &instance.artifact,
            defined,
            tier,
            &probes,
            profile,
        )?;
        if published {
            let compiled = instance
                .artifact
                .artifact_for(defined, tier)
                .expect("just published");
            account_compile(&mut instance.metrics, compiled, CompileTiming::Deferred, tier);
            self.0.telemetry.emit(EventKind::TierUp {
                func: func_index,
                tier: pipeline::tier_label(Some(tier)),
            });
        }
        Ok(())
    }

    /// Decides the tier for a new activation of `defined`: counts the call,
    /// picks the tier the policy wants at that count, and compiles it here
    /// (a lazy first call, a tier-up or a promotion) unless it is published.
    fn choose_tier(
        &self,
        instance: &mut Instance,
        defined: u32,
    ) -> Result<Option<CompileTier>, TrapCode> {
        instance.call_counts[defined as usize] =
            instance.call_counts[defined as usize].saturating_add(1);
        let want: Option<CompileTier> = match &self.0.config.tier {
            TierPolicy::InterpreterOnly => None,
            TierPolicy::BaselineOnly(_) => Some(CompileTier::Baseline),
            TierPolicy::OptimizingOnly => Some(CompileTier::Opt),
            TierPolicy::Tiered {
                threshold,
                opt_threshold,
                ..
            } => {
                let calls = instance.call_counts[defined as usize];
                match opt_threshold {
                    Some(ot) if calls > *ot => Some(CompileTier::Opt),
                    _ if calls > *threshold => Some(CompileTier::Baseline),
                    _ => None,
                }
            }
        };
        let Some(want_tier) = want else {
            return Ok(None);
        };
        if instance.artifact.artifact_for(defined, want_tier).is_none() {
            self.ensure_compiled(instance, defined, want_tier)
                .map_err(|_| TrapCode::HostError)?;
        }
        Ok(Some(want_tier))
    }

    fn push_frame(
        &self,
        instance: &mut Instance,
        func_index: u32,
        frame_base: usize,
        init_locals_from_args: Option<&[WasmValue]>,
        depth: usize,
    ) -> Result<Activation, TrapCode> {
        let defined = func_index
            .checked_sub(instance.module().num_imported_funcs())
            .ok_or(TrapCode::HostError)?;
        let max_depth = self
            .0
            .config
            .limits
            .call_depth
            .unwrap_or(EngineConfig::MAX_CALL_DEPTH)
            .min(EngineConfig::MAX_CALL_DEPTH);
        if depth >= max_depth {
            return Err(TrapCode::StackOverflow);
        }
        // The call boundary is a preemption point in every tier: functions
        // that recurse instead of looping still observe the epoch.
        if let Some(deadline) = instance.epoch_deadline {
            if self.0.epoch.load(Ordering::Relaxed) >= deadline {
                return Err(TrapCode::Interrupted);
            }
        }
        let jit_tier = self.choose_tier(instance, defined)?;
        // The artifact is immutable and behind an `Arc`, so a cheap handle
        // clone sidesteps simultaneous-borrow gymnastics with the mutable
        // value stack below.
        let artifact = Arc::clone(&instance.artifact);
        let prepared = artifact.prepared(defined);
        let num_params = prepared.num_params as usize;
        let num_results = prepared.num_results;
        let frame_slots = match jit_tier {
            Some(tier) => artifact
                .code_for(defined, tier)
                .map(|c| c.frame_slots)
                .unwrap_or(prepared.frame_slots()),
            None => prepared.frame_slots(),
        };
        if !instance.values.reserve(frame_base + frame_slots as usize) {
            return Err(TrapCode::StackOverflow);
        }

        // Arguments (when provided by the host; Wasm callers already wrote
        // them into place), then default-initialized declared locals.
        if let Some(args) = init_locals_from_args {
            // Compiled code addresses its parameters by their static types
            // and the collector scans them by tag: arguments of other types
            // than the callee declares are a host error, like `call_host`'s
            // results.
            let params = prepared.local_types.iter().take(num_params).copied();
            if !args.iter().map(WasmValue::value_type).eq(params) {
                return Err(TrapCode::HostError);
            }
            for (i, arg) in args.iter().enumerate() {
                instance.values.write_value(frame_base + i, *arg);
            }
        } else {
            // Ensure parameter tags are present even if the caller's tier
            // does not store tags (e.g. a notags baseline configuration):
            // the callee's locals have static types.
            for (i, ty) in prepared.local_types.iter().enumerate().take(num_params) {
                instance
                    .values
                    .set_tag(frame_base + i, ValueTag::for_type(*ty));
            }
        }
        for (i, ty) in prepared.local_types.iter().enumerate().skip(num_params) {
            instance
                .values
                .write_value(frame_base + i, WasmValue::default_for(*ty));
        }

        let tier = match jit_tier {
            Some(tier) => FrameTier::Jit {
                cpu: Box::new(CpuState::new()),
                tier,
            },
            None => FrameTier::Interp,
        };
        // The value-stack pointer covers the locals for interpreter frames
        // (operands are pushed as it executes) and the whole frame for JIT
        // frames (slots are addressed statically).
        let sp = if jit_tier.is_some() {
            frame_base + frame_slots as usize
        } else {
            frame_base + prepared.num_locals() as usize
        };
        instance.values.set_sp(sp);
        Ok(Activation {
            func_index,
            defined_index: defined,
            frame_base,
            num_results,
            frame_slots,
            tier,
            resume: 0,
            osr_skip: false,
            osr_off: false,
            site: 0,
        })
    }

    fn run_call(
        &self,
        instance: &mut Instance,
        func_index: u32,
        args: &[WasmValue],
        frame_base: usize,
        cycles: &mut CycleCounter,
    ) -> Result<(), TrapCode> {
        let mut stack: Vec<Activation> = Vec::new();
        let mut trap_at: Option<usize> = None;
        let result = self.run_frames(
            instance,
            func_index,
            args,
            frame_base,
            cycles,
            &mut stack,
            &mut trap_at,
        );
        if let Err(code) = result {
            // The stack is still live here — the frame walk sees exactly the
            // activations that existed when the trap fired.
            self.record_trap(instance, &stack, code, trap_at);
        }
        result
    }

    /// Captures diagnostics for a trap that unwound [`Engine::run_frames`]:
    /// walks the (still-live) activation stack into a symbolicated
    /// [`Backtrace`], stores the [`TrapInfo`] on the instance, and bumps the
    /// per-reason telemetry counter.
    ///
    /// The top frame's position is `trap_at` when the trap came from
    /// *executing* an instruction; traps raised at a call boundary (stack
    /// exhaustion, `push_frame` epoch interruption, indirect-call dispatch
    /// failures, host errors) have no executing instruction, so the top
    /// frame reports the call site it was suspended at.
    ///
    /// This is the one place positions become bytecode offsets: a frame's
    /// position is already one in the interpreter, and compiled code maps
    /// its instruction index through the source map (0 when the code was
    /// compiled without one).
    fn record_trap(
        &self,
        instance: &mut Instance,
        stack: &[Activation],
        code: TrapCode,
        mut trap_at: Option<usize>,
    ) {
        let names = instance.module().name_section();
        let mut frames = Vec::with_capacity(stack.len());
        for act in stack.iter().rev() {
            let position = trap_at.take().unwrap_or(act.site);
            let offset = match act.tier {
                FrameTier::Interp => position as u32,
                FrameTier::Jit { tier, .. } => instance
                    .artifact
                    .code_for(act.defined_index, tier)
                    .and_then(|compiled| compiled.code.source_offset(position))
                    .unwrap_or(0),
            };
            frames.push(Frame {
                func_index: act.func_index,
                name: names.func_name(act.func_index).map(str::to_string),
                offset,
                tier: pipeline::tier_label(act.tier.jit_tier()),
            });
        }
        if self.0.telemetry.is_enabled() {
            if let Some(metrics) = self.0.telemetry.metrics() {
                metrics.counter(&format!("engine.traps.{}", code.slug())).inc();
            }
        }
        instance.last_trap = Some(TrapInfo {
            reason: code,
            backtrace: Backtrace::from_frames(frames),
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn run_frames(
        &self,
        instance: &mut Instance,
        func_index: u32,
        args: &[WasmValue],
        frame_base: usize,
        cycles: &mut CycleCounter,
        stack: &mut Vec<Activation>,
        trap_at: &mut Option<usize>,
    ) -> Result<(), TrapCode> {
        // The shared parts, bound once: the loop below reads them as
        // directly as it would an engine held by value.
        let EngineInner {
            interp,
            cpu,
            cost,
            config,
            epoch,
            telemetry,
            ..
        } = &*self.0;
        let root = self.push_frame(instance, func_index, frame_base, Some(args), 0)?;
        stack.push(root);
        // An owned handle to the shared artifact lets the executor borrow
        // module/code immutably while the instance's runtime state is
        // borrowed mutably.
        let artifact = Arc::clone(&instance.artifact);
        // Sampling-profiler state for this call tree: execution loops poll
        // the shared epoch at their existing check sites and report the
        // current (function, tier) once per tick — `last_sample_epoch` is
        // what makes a tick yield one sample, not one per site.
        let mut last_sample_epoch = epoch.load(Ordering::Relaxed);

        while let Some(act) = stack.last_mut() {
            let defined = act.defined_index;
            // Run the top frame until it exits, attributing the cycles of
            // optimizing-tier frames to their own metrics bucket.
            let cycles_before = cycles.total();
            let frame_tier = act.tier.jit_tier();
            let sample_func = act.func_index;
            let sample_tier = pipeline::tier_label(frame_tier);
            let (exit, compiled) = {
                let Instance {
                    memory,
                    globals,
                    tables,
                    values,
                    instrumentation,
                    fuel,
                    epoch_deadline,
                    osr_counts,
                    ..
                } = instance;
                let mut record_sample =
                    |_offset: u32| telemetry.record_sample(sample_func, sample_tier);
                let sampler = telemetry.is_enabled().then(|| EpochSampler {
                    epoch: epoch.as_ref(),
                    last: &mut last_sample_epoch,
                    record: &mut record_sample,
                });
                // The OSR hook rides the same fused meter-check sites.
                // Optimizing-tier frames never poll — they are already where
                // OSR would take them.
                let osr = match config.osr_threshold {
                    Some(threshold)
                        if !act.osr_off && frame_tier != Some(CompileTier::Opt) =>
                    {
                        Some(OsrHook {
                            plan: &artifact.prepared(defined).fuel,
                            count: &mut osr_counts[defined as usize],
                            threshold,
                            skip_once: &mut act.osr_skip,
                        })
                    }
                    _ => None,
                };
                let mut ctx = ExecContext {
                    values,
                    frame_base: act.frame_base,
                    memory: memory.as_mut(),
                    globals,
                    tables,
                    meter: Meter {
                        fuel: fuel.as_mut(),
                        epoch: epoch_deadline.map(|d| (epoch.as_ref(), d)),
                        sampler,
                        osr,
                    },
                };
                match &mut act.tier {
                    FrameTier::Interp => {
                        let exit = interp.run(
                            artifact.module(),
                            artifact.prepared(defined),
                            act.resume,
                            &mut ctx,
                            instrumentation,
                            cycles,
                        );
                        (exit, None)
                    }
                    FrameTier::Jit { cpu: cpu_state, tier } => {
                        let code = artifact
                            .code_for(defined, *tier)
                            .expect("JIT frame has compiled code");
                        (cpu.run(cpu_state, &code.code, act.resume, &mut ctx, cycles), Some(code))
                    }
                }
            };
            if frame_tier == Some(CompileTier::Opt) {
                instance.metrics.opt_exec_cycles += cycles.total() - cycles_before;
            }
            // Frame exits (returns, calls, probes) are sample points too, so
            // recursion-heavy code with no loop back-edges still attributes
            // its time.
            if telemetry.is_enabled() {
                let now = epoch.load(Ordering::Relaxed);
                if now != last_sample_epoch {
                    last_sample_epoch = now;
                    telemetry.record_sample(sample_func, sample_tier);
                }
            }

            match exit {
                Exit::Return => {
                    let finished = stack.pop().expect("active frame");
                    let result_end = finished.frame_base + finished.num_results as usize;
                    let frame_end = finished.frame_base + finished.frame_slots as usize;
                    instance.values.clear_range(result_end, frame_end.min(instance.values.capacity()));
                    match stack.last_mut() {
                        None => {
                            instance.values.set_sp(result_end);
                            return Ok(());
                        }
                        Some(parent) => {
                            cycles.charge(cost.ret);
                            match parent.tier {
                                FrameTier::Interp => {
                                    instance.values.set_sp(result_end);
                                }
                                FrameTier::Jit { .. } => {
                                    instance
                                        .values
                                        .set_sp(parent.frame_base + parent.frame_slots as usize);
                                }
                            }
                        }
                    }
                }
                Exit::Call { func_index: callee, site, resume } => {
                    // Where the caller stands in a backtrace while the callee
                    // runs, and where it continues once the callee returns.
                    act.site = site;
                    act.resume = resume;
                    self.dispatch_call(instance, &artifact, stack, callee, cost.call, cycles)?;
                }
                Exit::CallIndirect {
                    type_index,
                    table_index,
                    entry_index,
                    site,
                    resume,
                } => {
                    // Set the backtrace position before the dispatch checks:
                    // table-bounds, null-entry, and signature traps below all
                    // belong to this `call_indirect` instruction.
                    act.site = site;
                    act.resume = resume;
                    let table = instance
                        .tables
                        .get(table_index as usize)
                        .ok_or(TrapCode::TableOutOfBounds)?;
                    let callee = table
                        .get(entry_index)?
                        .ok_or(TrapCode::NullTableEntry)?;
                    let module = artifact.module();
                    let expected = module
                        .types
                        .get(type_index as usize)
                        .ok_or(TrapCode::IndirectCallTypeMismatch)?;
                    if module.func_type(callee) != Some(expected) {
                        return Err(TrapCode::IndirectCallTypeMismatch);
                    }
                    let call = cost.call_indirect;
                    self.dispatch_call(instance, &artifact, stack, callee, call, cycles)?;
                }
                Exit::Probe { probe, resume } => {
                    act.resume = resume;
                    // Only compiled code exits for a probe: the interpreter
                    // fires its own.
                    if let Some(code) = compiled {
                        self.handle_jit_probe(instance, act, code, probe);
                    }
                }
                Exit::Osr { offset, resume } => {
                    act.resume = resume;
                    self.handle_osr(instance, act, offset);
                }
                Exit::Trap { code, at } => {
                    *trap_at = Some(at);
                    return Err(code);
                }
            }
        }
        Ok(())
    }

    /// Transfers control from the top frame, suspended at its call site, to
    /// `callee` — everything a call instruction does once its callee is
    /// known. The callee's frame starts where the caller's call-site
    /// metadata says (compiled code) or at the arguments on top of the stack
    /// (the interpreter); `cost` is charged; then a host function runs in
    /// place and the caller's stack pointer is restored, and a Wasm function
    /// gets a new frame.
    fn dispatch_call(
        &self,
        instance: &mut Instance,
        artifact: &CompiledModule,
        stack: &mut Vec<Activation>,
        callee: u32,
        cost: u64,
        cycles: &mut CycleCounter,
    ) -> Result<(), TrapCode> {
        let sig = artifact.module().func_type(callee).ok_or(TrapCode::HostError)?;
        let caller = stack.last().expect("a frame made the call");
        // Where the callee's frame starts, and where the caller's stack
        // pointer stands once a host callee has returned in place: compiled
        // code keeps its whole frame, the interpreter its operands.
        let (callee_base, sp_after_host) = match caller.tier.jit_tier() {
            Some(tier) => {
                let site = artifact
                    .code_for(caller.defined_index, tier)
                    .and_then(|c| c.call_sites.get(&caller.site))
                    .ok_or(TrapCode::HostError)?;
                (
                    caller.frame_base + site.callee_slot_base as usize,
                    caller.frame_base + caller.frame_slots as usize,
                )
            }
            None => {
                let base = instance.values.sp() - sig.params.len();
                (base, base + sig.results.len())
            }
        };
        cycles.charge(cost);
        self.maybe_collect(instance, stack);
        if artifact.module().is_imported_func(callee) {
            self.call_host(instance, callee, callee_base, cycles)?;
            instance.values.set_sp(sp_after_host);
        } else {
            let child = self.push_frame(instance, callee, callee_base, None, stack.len())?;
            stack.push(child);
        }
        Ok(())
    }

    /// Handles an OSR poll from a hot loop in an interpreter or baseline
    /// frame: when optimizing-tier code for the function is published and
    /// has an entry stub for this loop, the running activation is
    /// transferred to it mid-loop; otherwise it is compiled here, on the
    /// polling thread, and the current tier resumes at the check site (which
    /// consumed nothing, so re-executing it is correct — and the loop-head
    /// check of the optimized code runs instead after a transfer, keeping
    /// fuel and epoch accounting bit-identical to a never-OSR run). The
    /// caller has already pointed the frame back at that check site.
    fn handle_osr(&self, instance: &mut Instance, act: &mut Activation, offset: u32) {
        let defined = act.defined_index;
        if instance.artifact.artifact_for(defined, CompileTier::Opt).is_none() {
            // Not compiled yet: compile it and guarantee a full loop
            // iteration of progress before the next poll.
            act.osr_skip = true;
            if self.ensure_compiled(instance, defined, CompileTier::Opt).is_err() {
                // The optimizing compiler rejected the function; the
                // current tier is always correct, so just stop polling.
                act.osr_off = true;
            }
            return;
        }
        let (entry, frame_slots) = {
            let code = instance
                .artifact
                .code_for(defined, CompileTier::Opt)
                .expect("artifact published");
            match code.osr_entries.get(&offset) {
                Some(&entry) => (entry, code.frame_slots),
                None => {
                    // No stub for this loop (its header was optimized away,
                    // or the code predates OSR in a shared artifact).
                    act.osr_off = true;
                    return;
                }
            }
        };
        let frame_end = act.frame_base + frame_slots as usize;
        if !instance.values.reserve(frame_end) {
            // The optimized frame does not fit where this activation sits;
            // keep running the current tier rather than overflowing.
            act.osr_off = true;
            return;
        }
        // The frame only grows (the allocator reserves the interpreter
        // operand region whenever OSR entries exist). Clear the newly
        // exposed slots so the GC's tag scan never reads stale tags, then
        // hand the frame to the entry stub, which rebuilds the loop
        // header's state from the interpreter-layout slots below.
        let sp_before = instance.values.sp();
        if frame_end > sp_before {
            instance.values.clear_range(sp_before, frame_end);
        }
        instance.values.set_sp(frame_end);
        act.frame_slots = frame_slots;
        act.tier = FrameTier::Jit {
            cpu: Box::new(CpuState::new()),
            tier: CompileTier::Opt,
        };
        act.resume = entry;
        if self.0.telemetry.is_enabled() {
            self.0.telemetry.emit(EventKind::OsrEnter { func: act.func_index, offset });
            if let Some(metrics) = self.0.telemetry.metrics() {
                metrics.counter("engine.osr_entries").inc();
            }
        }
    }

    /// Handles a probe that fired in `code`, the compiled code the top frame
    /// runs, which the caller has already pointed past the probe
    /// instruction. A probe that needs its site names the instruction's
    /// position, and `code`'s probe-site table maps it to the bytecode
    /// offset and operand height.
    fn handle_jit_probe(
        &self,
        instance: &mut Instance,
        act: &mut Activation,
        code: &CompiledFunction,
        probe: ProbeExit,
    ) {
        let func_index = act.func_index;
        let probed = |site: usize| {
            code.probe_sites
                .get(&site)
                .map(|m| (m.offset, m.operand_height))
                .unwrap_or((0, 0))
        };
        match probe {
            ProbeExit::Counter { counter_id } => {
                instance.instrumentation.increment_counter(counter_id);
            }
            ProbeExit::TosValue { site, bits } => {
                // The value's type is whatever the top of stack was; the
                // branch monitor only needs zero/non-zero, so i64 suffices.
                instance.instrumentation.fire_with_value(
                    func_index,
                    probed(site).0,
                    WasmValue::I64(bits as i64),
                );
            }
            ProbeExit::Frame { site } => {
                let (offset, operand_height) = probed(site);
                let num_locals =
                    instance.artifact.prepared(act.defined_index).num_locals() as usize;
                let sp_before = instance.values.sp();
                instance
                    .values
                    .set_sp(act.frame_base + num_locals + operand_height as usize);
                if self.0.config.deopt_on_probe {
                    // Tier-down: the frame state is flushed at runtime probes,
                    // so the interpreter can take over in place. The probe is
                    // NOT fired here — the interpreter will fire it when it
                    // re-executes the probed instruction.
                    act.tier = FrameTier::Interp;
                    act.resume = offset as usize;
                    return;
                }
                let Instance {
                    values,
                    instrumentation,
                    ..
                } = instance;
                let mut accessor =
                    FrameAccessor::new(values, act.frame_base, num_locals, func_index, offset);
                instrumentation.fire(&mut accessor);
                instance.values.set_sp(sp_before);
            }
        }
    }

    fn call_host(
        &self,
        instance: &mut Instance,
        callee: u32,
        callee_base: usize,
        cycles: &mut CycleCounter,
    ) -> Result<(), TrapCode> {
        cycles.charge(self.0.cost.host_call);
        let sig = instance
            .module()
            .func_type(callee)
            .cloned()
            .ok_or(TrapCode::HostError)?;
        let args: Vec<WasmValue> = sig
            .params
            .iter()
            .enumerate()
            .map(|(i, &ty)| {
                WasmValue::from_bits(
                    instance.values.read(callee_base + i),
                    ValueTag::for_type(ty),
                )
            })
            .collect();
        let Instance {
            host_funcs,
            host_slots,
            heap,
            ..
        } = instance;
        let f = host_slots
            .get(callee as usize)
            .and_then(|&slot| host_funcs.get_mut(slot))
            .ok_or(TrapCode::HostError)?;
        let results = f(heap, &args)?;
        // Both compilers know the result slots statically by the import's
        // signature and the collector scans them by tag: a host function that
        // returns other types than it was declared with is a host error.
        if !results.iter().map(WasmValue::value_type).eq(sig.results.iter().copied()) {
            return Err(TrapCode::HostError);
        }
        for (i, value) in results.iter().enumerate() {
            instance.values.write_value(callee_base + i, *value);
        }
        Ok(())
    }

    fn maybe_collect(&self, instance: &mut Instance, stack: &[Activation]) {
        if !instance.heap.should_collect() {
            return;
        }
        let roots = self.collect_roots(instance, stack);
        instance.heap.collect(&roots);
    }

    fn collect_roots(&self, instance: &Instance, stack: &[Activation]) -> Vec<u32> {
        let uses_stackmaps = self
            .0
            .config
            .baseline_options()
            .map(|o| o.tagging.uses_stackmaps())
            .unwrap_or(false);
        if uses_stackmaps {
            let mut frames = Vec::new();
            for act in stack {
                if let FrameTier::Jit { tier, .. } = &act.tier {
                    if let Some(compiled) = instance.artifact.code_for(act.defined_index, *tier) {
                        // The frame is paused at its call site.
                        // Optimizing-tier frames publish their references
                        // through tagged slots instead of stackmaps; their
                        // (empty) tables contribute nothing here and the tag
                        // scan below picks the roots up.
                        frames.push(StackmapFrame {
                            compiled,
                            frame_base: act.frame_base,
                            call_inst_index: act.site,
                        });
                    }
                }
            }
            let mut roots = scan_roots_via_stackmaps(&instance.values, &frames);
            // Interpreter frames and globals still use tags.
            roots.extend(scan_roots_via_tags(&instance.values));
            roots.extend(global_roots(&instance.globals));
            roots.sort_unstable();
            roots.dedup();
            roots
        } else {
            let mut roots = scan_roots_via_tags(&instance.values);
            roots.extend(global_roots(&instance.globals));
            roots.sort_unstable();
            roots.dedup();
            roots
        }
    }
}

/// Attributes one published compilation to an instance's metrics, in the
/// bucket matching when and in which tier it ran.
fn account_compile(
    metrics: &mut RunMetrics,
    compiled: &CompiledArtifact,
    timing: CompileTiming,
    tier: CompileTier,
) {
    match (tier, timing) {
        (CompileTier::Opt, _) => metrics.opt_compile_wall += compiled.compile_wall,
        (CompileTier::Baseline, CompileTiming::Eager) => {
            metrics.compile_wall += compiled.compile_wall
        }
        (CompileTier::Baseline, CompileTiming::Deferred) => {
            metrics.lazy_compile_wall += compiled.compile_wall
        }
    }
    if timing == CompileTiming::Deferred {
        metrics.tiered_up_functions += 1;
    }
    metrics.compiled_wasm_bytes += compiled.function.stats.wasm_bytes as u64;
    metrics.compiled_machine_bytes += compiled.machine_bytes;
    metrics.tag_stores_emitted += compiled.function.stats.tag_stores as u64;
    metrics.functions_compiled += 1;
}

fn global_roots(globals: &[GlobalSlot]) -> Vec<u32> {
    globals
        .iter()
        .filter(|g| g.tag == ValueTag::Ref && g.bits != machine::values::NULL_REF_BITS)
        .map(|g| g.bits as u32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_engine_is_one_arc_and_its_clones_share_cache_epoch_and_telemetry() {
        assert_eq!(std::mem::size_of::<Engine>(), std::mem::size_of::<usize>());
        let engine = Engine::new(EngineConfig::default())
            .with_code_cache(Arc::new(CodeCache::new()))
            .with_telemetry(Telemetry::enabled());
        let clone = engine.clone();
        assert!(Arc::ptr_eq(
            engine.code_cache().expect("attached"),
            clone.code_cache().expect("attached")
        ));
        assert!(Arc::ptr_eq(engine.epoch(), clone.epoch()));
        clone.increment_epoch();
        assert_eq!(engine.epoch().load(Ordering::Relaxed), 1);
        engine.telemetry().emit(EventKind::FuelExhausted);
        clone.telemetry().emit(EventKind::EpochInterrupt);
        let drained = engine.telemetry().drain();
        let kinds: Vec<&EventKind> = drained
            .iter()
            .flat_map(|(_, events, _)| events)
            .map(|e| &e.kind)
            .collect();
        assert_eq!(
            kinds,
            [&EventKind::FuelExhausted, &EventKind::EpochInterrupt]
        );
    }
}
