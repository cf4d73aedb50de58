//! The engine handle: instantiation and the two public calls.
//!
//! An [`Engine`] is a handle (one [`Arc`]) to everything immutable the
//! runtime needs, built once by [`Engine::new`]: the configuration, the cost
//! model, both executors, the optional [`CodeCache`] (shared artifacts
//! across instantiations), the epoch and the telemetry sink. Clones share
//! all of it; an [`Instance`] holds only mutable runtime state.
//!
//! The rest of what the paper's Wizard engine owns is one module each:
//! instance state (`instance`), the frame executor that lets interpreter
//! and JIT frames call each other freely (`exec`), tier choice, tier-up and
//! on-stack replacement (`tierup`), root scanning for the host GC heap
//! ([`crate::gc`]) and trap diagnostics ([`crate::trap`]).
//!
//! Compilation itself lives in [`crate::pipeline`]: every instance holds an
//! immutable, shareable [`CompiledModule`] artifact behind an [`Arc`].
//! Code is compiled at instantiation ([`pipeline::compile_eager`]) or on the
//! executing thread at the call boundary or OSR poll that needs it
//! (`Engine::ensure_compiled`) — nowhere else.

use crate::cache::{CacheKey, CodeCache};
use crate::config::EngineConfig;
use crate::gc::Heap;
use crate::image::MemoryImage;
use crate::monitor::Instrumentation;
use crate::pipeline::{self, CompiledModule};
use crate::tierup::{account_compile, CompileTiming};
use interp::interp::Interpreter;
use machine::cost::CostModel;
use machine::cpu::Cpu;
use machine::inst::TrapCode;
use machine::values::{ValueStack, WasmValue};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{EventKind, Telemetry};
use wasm::module::{ImportKind, Module};

pub use crate::instance::{EngineError, HostFunc, Imports, Instance, RunMetrics};

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
pub struct Engine(pub(crate) Arc<EngineInner>);

#[derive(Debug, Clone)]
pub(crate) struct EngineInner {
    pub(crate) config: EngineConfig,
    /// [`EngineConfig::compile_fingerprint`] and
    /// [`EngineConfig::opt_fingerprint`] of `config`, computed once: the
    /// configuration never changes after construction and every
    /// instantiation's [`CacheKey`] carries both.
    pub(crate) compile_fingerprint: u64,
    pub(crate) opt_fingerprint: u64,
    pub(crate) cache: Option<Arc<CodeCache>>,
    /// The epoch counter for preemption: a supervisor thread bumping it
    /// preempts every instance with an armed deadline at its next check
    /// site.
    pub(crate) epoch: Arc<AtomicU64>,
    /// The engine's telemetry handle. Disabled by default (one never-taken
    /// branch per site).
    pub(crate) telemetry: Telemetry,
    /// The cycle cost model every configuration runs under, and the two
    /// executors built once from it and borrowed by every call (the CPU
    /// derives its cost tables when it is built). The engine itself charges
    /// the call-boundary costs.
    pub(crate) cost: CostModel,
    pub(crate) interp: Interpreter,
    pub(crate) cpu: Cpu,
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
                self.0.telemetry.emit(EventKind::CacheLookup { hit: cache_hit });
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
        if let Some(tier) = self.0.config.schedule.instantiation_tier() {
            let published = pipeline::compile_eager(
                &self.0.config,
                &artifact,
                &instrumentation,
                &self.0.telemetry,
            )
            .map_err(EngineError::Compile)?;
            for defined in published {
                account_compile(&mut metrics, &artifact, defined, tier, CompileTiming::Eager);
            }
        }

        // Everything `initialize` writes starts empty here.
        let num_defined = module.funcs.len();
        let mut instance = Instance {
            artifact,
            call_counts: vec![0; num_defined],
            // Only the OSR hook counts back edges.
            osr_counts: match self.0.config.osr_threshold {
                Some(_) => vec![0; num_defined],
                None => Vec::new(),
            },
            memory: None,
            globals: Vec::new(),
            tables: Vec::new(),
            values: ValueStack::default(),
            registers: Vec::new(),
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
    /// (so `memory.grow` can never exceed the tenant budget); a recycled
    /// instance's memory keeps its allocation, zeroed. The value
    /// stack's dirtied region is scrubbed, the host heap is replaced, fuel,
    /// deadline and trap are cleared, and `metrics` is installed, with
    /// [`RunMetrics::setup_wall`] measured from `setup_start` when one is
    /// given. Then the start function runs, exactly as on a cold
    /// instantiation.
    ///
    /// Kept, because it is earned rather than initial: the artifact's
    /// published code, call and OSR counts, instrumentation, host functions
    /// and the allocations of the value stack and the memory, so a recycled
    /// instance stays in its tier. Tier choice never changes results — the
    /// conformance matrix's invariant, which `tests/instance_pool.rs`
    /// re-proves against cold instantiation directly.
    pub(crate) fn initialize(
        &self,
        instance: &mut Instance,
        metrics: RunMetrics,
        setup_start: Option<Instant>,
    ) -> Result<(), EngineError> {
        let previous = instance.memory.take();
        let (memory, globals, tables) =
            MemoryImage::build_reusing(instance.module(), &self.0.config.limits, previous)?
                .into_parts();
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
        let artifact = Arc::clone(&instance.artifact);
        let sig = artifact.module().func_type(func_index).ok_or(TrapCode::HostError)?;
        self.run_call(instance, &artifact, func_index, args)?;
        // The root frame returned its results at its base.
        Ok(instance.read_values(0, &sig.results))
    }
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
        engine.telemetry().emit(EventKind::CacheLookup { hit: true });
        clone.telemetry().emit(EventKind::CacheLookup { hit: false });
        let drained = engine.telemetry().drain();
        let kinds: Vec<&EventKind> = drained
            .iter()
            .flat_map(|(_, events, _)| events)
            .map(|e| &e.kind)
            .collect();
        assert_eq!(
            kinds,
            [&EventKind::CacheLookup { hit: true }, &EventKind::CacheLookup { hit: false }]
        );
    }
}
