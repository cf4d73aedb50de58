//! The compilation pipeline: shared compiled-module artifacts and the one
//! compile-and-publish step, run in exactly two places.
//!
//! The paper's central observation is that single-pass baseline compilation
//! is cheap, *per-function-independent* work, and that compile time is
//! application time. This module exploits the first and honours the second:
//!
//! * [`CompiledModule`] is the immutable compilation artifact of one module
//!   under one engine configuration — validation output, per-function
//!   sidetables, and one atomically-published code slot per defined
//!   function and tier. It is `Send + Sync` and held by every [`Instance`]
//!   behind an [`Arc`](std::sync::Arc), so any number of instances (and
//!   threads) share one copy of the compiled code. The mutable runtime state
//!   (value stack, memory, globals, heap, metrics) stays in the instance.
//! * [`compile_eager`] spreads instantiate-time compilation across
//!   [`EngineConfig::compile_workers`] workers, which take the functions
//!   from one shared cursor (largest first when there are several). Each
//!   function's compilation reads only immutable inputs, so the output is
//!   byte-identical at any worker count (differentially tested in
//!   `tests/parallel_determinism.rs`).
//! * Every compile after instantiation — a lazy first call, a tier-up, an
//!   OSR request — runs on the executing thread, in the engine's
//!   `ensure_compiled`, at the call boundary or OSR poll that needs the
//!   code. Nothing compiles off-thread, so which tier an activation runs in
//!   is a function of the instance's own call and back-edge counts, never of
//!   thread timing, and simulated cycles repeat exactly.
//!
//! Both places go through `compile_slot`, which publishes into the shared
//! artifact's [`OnceLock`] slot: first writer wins, a loser's code is dropped,
//! and only the publisher accounts the compile to its instance's metrics.
//!
//! [`Instance`]: crate::engine::Instance
//! [`EngineConfig::compile_workers`]: crate::config::EngineConfig

use crate::config::EngineConfig;
use crate::engine::EngineError;
use interp::interp::{prepare, PreparedFunction};
use interp::profile::FuncProfile;
use machine::masm::{reemit, CodeBackend};
use machine::x64_masm::{X64Code, X64Masm};
use spc::{CompileError, CompiledFunction, ProbeSites, SinglePassCompiler};
use std::cmp::Reverse;
use std::fmt;
use telemetry::{EventKind, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};
use wasm::module::Module;
use wasm::validate::{validate, FuncInfo, ModuleInfo};

use crate::monitor::Instrumentation;

/// The finished compilation of one function plus the bookkeeping the engine
/// publishes alongside it.
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    /// The executable virtual-ISA code and its engine metadata.
    pub function: CompiledFunction,
    /// Machine-code size in bytes as measured by the configured backend
    /// (real encodings under [`CodeBackend::X64`], the virtual ISA's
    /// per-instruction estimate otherwise).
    pub machine_bytes: u64,
    /// Wall-clock time this function took to compile, wherever the
    /// compilation ran (an instantiate-time worker, or the execution thread
    /// on a lazy first call, tier-up or OSR request).
    pub compile_wall: Duration,
    /// The real x86-64 encoding of `function.code`, kept when the
    /// configuration selects [`CodeBackend::X64`] so code-size metrics and
    /// determinism tests can inspect actual bytes.
    pub x64_code: Option<X64Code>,
}

/// One per-function publication slot: empty until the first compilation of
/// the function completes, then filled exactly once for the artifact's
/// lifetime.
type Slot = OnceLock<CompiledArtifact>;

/// Which compiler produces a compilation artifact. Each tier has its own
/// publication slot per function, so a module can hold baseline and
/// optimized code side by side and the engine picks per activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompileTier {
    /// The single-pass baseline compiler.
    Baseline,
    /// The SSA-based optimizing compiler (`crates/optc`).
    Opt,
}

/// The immutable, shareable compilation artifact of one module: everything
/// about a module that does not change as instances run.
///
/// Construction validates the module — the one walk each body gets before it
/// runs or compiles, which also writes its sidetable and fuel plan — and pairs
/// every defined function's tables with its frame metadata. Each table exists
/// once: [`PreparedFunction`] and [`FuncInfo`] share it. Code slots start
/// empty and are filled by eager compilation at instantiation or by the
/// executing thread afterwards; publication is atomic and idempotent (first
/// writer wins — and every baseline writer produces identical bytes, since
/// compilation is a pure function of the slot's immutable inputs).
pub struct CompiledModule {
    module: Module,
    info: ModuleInfo,
    prepared: Vec<PreparedFunction>,
    slots: Vec<Slot>,
    opt_slots: Vec<Slot>,
}

impl fmt::Debug for CompiledModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledModule")
            .field("funcs", &self.slots.len())
            .field("compiled", &self.compiled_count())
            .field("opt_compiled", &self.opt_compiled_count())
            .finish()
    }
}

impl CompiledModule {
    /// Validates `module` and prepares every defined function, producing an
    /// artifact with all code slots empty. Validation is the only step that
    /// reads bytecode: preparing a function assembles what it left in `info`,
    /// and a later compile of the function is the body's second reading.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Validate`] if validation fails.
    pub fn build(module: Module) -> Result<CompiledModule, EngineError> {
        let info = validate(&module).map_err(EngineError::Validate)?;
        let prepared = (0..module.funcs.len() as u32)
            .map(|defined| {
                let func_index = module.defined_to_func_index(defined);
                prepare(&module, func_index, &info.funcs[defined as usize])
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(EngineError::Validate)?;
        let slots = (0..module.funcs.len()).map(|_| Slot::new()).collect();
        let opt_slots = (0..module.funcs.len()).map(|_| Slot::new()).collect();
        Ok(CompiledModule {
            module,
            info,
            prepared,
            slots,
            opt_slots,
        })
    }

    /// The module this artifact was compiled from.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The validation metadata of one defined function.
    pub(crate) fn func_info(&self, defined: u32) -> &FuncInfo {
        &self.info.funcs[defined as usize]
    }

    /// The prepared (sidetable + frame layout) form of one defined function.
    pub fn prepared(&self, defined: u32) -> &PreparedFunction {
        &self.prepared[defined as usize]
    }

    /// The number of defined functions.
    pub fn num_defined(&self) -> u32 {
        self.slots.len() as u32
    }

    fn slots_for(&self, tier: CompileTier) -> &[Slot] {
        match tier {
            CompileTier::Baseline => &self.slots,
            CompileTier::Opt => &self.opt_slots,
        }
    }

    /// The published baseline artifact of a defined function, if compiled.
    pub fn artifact(&self, defined: u32) -> Option<&CompiledArtifact> {
        self.artifact_for(defined, CompileTier::Baseline)
    }

    /// The published artifact of a defined function in `tier`, if compiled.
    pub fn artifact_for(&self, defined: u32, tier: CompileTier) -> Option<&CompiledArtifact> {
        self.slots_for(tier).get(defined as usize)?.get()
    }

    /// The published executable baseline code of a defined function.
    pub fn code(&self, defined: u32) -> Option<&CompiledFunction> {
        self.artifact(defined).map(|a| &a.function)
    }

    /// The published executable code of a defined function in `tier`.
    pub fn code_for(&self, defined: u32, tier: CompileTier) -> Option<&CompiledFunction> {
        self.artifact_for(defined, tier).map(|a| &a.function)
    }

    /// Atomically publishes a compilation of `defined` in `tier`. Returns
    /// `true` if this call installed the artifact and `false` if another
    /// compilation won the race (the artifact is dropped). First writer
    /// wins; baseline artifacts are byte-identical, and racing
    /// optimizing-tier artifacts may differ in block layout (profiles are
    /// per-instance) but never in semantics.
    fn publish_for(&self, defined: u32, tier: CompileTier, artifact: CompiledArtifact) -> bool {
        self.slots_for(tier)[defined as usize].set(artifact).is_ok()
    }

    /// How many defined functions have published code in any tier.
    pub fn compiled_count(&self) -> usize {
        self.slots
            .iter()
            .zip(&self.opt_slots)
            .filter(|(b, o)| b.get().is_some() || o.get().is_some())
            .count()
    }

    /// How many defined functions have published optimizing-tier code.
    pub fn opt_compiled_count(&self) -> usize {
        self.opt_slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// Total wall-clock compile time published into this artifact so far,
    /// across every thread and tier that contributed.
    pub fn total_compile_wall(&self) -> Duration {
        self.slots
            .iter()
            .chain(&self.opt_slots)
            .filter_map(|s| s.get())
            .map(|a| a.compile_wall)
            .sum()
    }

    /// Machine-code bytes published into this artifact so far, across both
    /// tiers (the per-entry term of a code cache's resident size).
    pub fn machine_bytes(&self) -> u64 {
        self.slots
            .iter()
            .chain(&self.opt_slots)
            .filter_map(|s| s.get())
            .map(|a| a.machine_bytes)
            .sum()
    }
}

/// The tier label telemetry events, profiler samples and backtrace frames
/// carry: the compile tier whose code runs, or the interpreter for `None`.
pub(crate) fn tier_label(jit: Option<CompileTier>) -> telemetry::Tier {
    match jit {
        None => telemetry::Tier::Interp,
        Some(CompileTier::Baseline) => telemetry::Tier::Baseline,
        Some(CompileTier::Opt) => telemetry::Tier::Opt,
    }
}

/// The telemetry label for a code backend.
fn telemetry_backend(backend: CodeBackend) -> telemetry::Backend {
    match backend {
        CodeBackend::VirtualIsa => telemetry::Backend::VirtualIsa,
        CodeBackend::X64 => telemetry::Backend::X64,
    }
}

/// Compiles one defined function under `config` in `tier` — the single pure
/// step the whole pipeline is built from. Reads only immutable inputs, so it
/// can run on any thread; the result is deterministic in (module, function,
/// options, probes, backend, tier, profile). `profile` feeds the optimizing
/// tier's block layout and is ignored by the baseline tier.
///
/// # Errors
///
/// Returns the compiler's error for invalid or unsupported input.
pub fn compile_function(
    config: &EngineConfig,
    tier: CompileTier,
    module: &Module,
    func_index: u32,
    info: &FuncInfo,
    probes: &ProbeSites,
    profile: Option<&FuncProfile>,
) -> Result<CompiledArtifact, CompileError> {
    let (options, osr) = (&config.schedule.options, config.osr_threshold.is_some());
    let start = Instant::now();
    let function = match tier {
        // The optimizing compiler lowers probes the way the baseline tier
        // does, so instrumentation counts stay tier-independent.
        CompileTier::Opt => optc::OptimizingCompiler::new(options.probe_mode)
            .with_metering(config.metering)
            .with_osr(osr)
            .compile(module, func_index, info, probes, profile)?,
        CompileTier::Baseline => SinglePassCompiler::borrowing(options)
            .with_metering(config.metering)
            .with_osr(osr)
            .compile(module, func_index, info, probes)?,
    };
    // The compile-time metric covers exactly the work that produced the
    // executable artifact; the backend encoding below is measured
    // separately so an x86-64-backend run stays comparable.
    let compile_wall = start.elapsed();
    // Backend selection: with the x86-64 backend the finished virtual code
    // is encoded as real machine bytes, so the code-size metric reports
    // actual encodings. Execution still runs the virtual-ISA code — the
    // simulator cannot execute raw bytes. The compiler ran once, whatever
    // the tier: its code is the recording `reemit` replays into `X64Masm`.
    let (machine_bytes, x64_code) = match config.backend {
        CodeBackend::X64 => {
            let x64 = reemit::<X64Masm>(&function.code);
            (x64.code_size() as u64, Some(x64))
        }
        CodeBackend::VirtualIsa => (function.stats.code_size_bytes as u64, None),
    };
    Ok(CompiledArtifact {
        function,
        machine_bytes,
        compile_wall,
        x64_code,
    })
}

/// Compiles `defined` into its `tier` slot unless it is already published:
/// the one compile-and-publish step, shared by [`compile_eager`]'s workers
/// and the engine's `ensure_compiled`. Returns whether this call published
/// new code — `false` when the slot was already full or another thread won
/// the publication race.
///
/// Every compile, successful or not, is one `CompileEnd` event; the sink
/// derives the `compile.*` metrics from it.
pub(crate) fn compile_slot(
    telemetry: &Telemetry,
    config: &EngineConfig,
    artifact: &CompiledModule,
    defined: u32,
    tier: CompileTier,
    probes: &ProbeSites,
    profile: Option<&FuncProfile>,
) -> Result<bool, CompileError> {
    if artifact.artifact_for(defined, tier).is_some() {
        return Ok(false);
    }
    let module = artifact.module();
    let func_index = module.defined_to_func_index(defined);
    let info = artifact.func_info(defined);
    let result = compile_function(config, tier, module, func_index, info, probes, profile);
    telemetry.emit(EventKind::CompileEnd {
        func: func_index,
        tier: tier_label(Some(tier)),
        backend: telemetry_backend(config.backend),
        ok: result.is_ok(),
        wasm_bytes: module.func_decl(func_index).map_or(0, |decl| decl.code.len()) as u32,
        machine_bytes: result.as_ref().map_or(0, |c| c.machine_bytes.min(u32::MAX.into()) as u32),
        dur_us: result.as_ref().map_or(0, |c| c.compile_wall.as_micros() as u64),
    });
    Ok(artifact.publish_for(defined, tier, result?))
}

/// Eagerly compiles every uncompiled function of `artifact` in the tier
/// [`TierSchedule::instantiation_tier`] names (nothing when it names none),
/// sharing the work across [`EngineConfig::compile_workers`] threads: each
/// worker takes the next function from a shared cursor until none is left.
/// With more than one worker the functions are ordered by body size, largest
/// first, so the ones still compiling when the others run out are small; one
/// worker is the calling thread, in index order. Already-published slots — a warm
/// code-cache hit — are skipped, which is what makes repeated instantiation
/// under a shared cache compile exactly once; with nothing left to compile
/// no thread is spawned.
///
/// Returns the defined indices this call published, in ascending order, so
/// the caller can attribute their compile time to its metrics.
///
/// # Errors
///
/// Returns the compile error of the lowest-indexed failing function,
/// independent of worker count.
///
/// [`EngineConfig::compile_workers`]: crate::config::EngineConfig
/// [`TierSchedule::instantiation_tier`]: crate::config::TierSchedule::instantiation_tier
pub fn compile_eager(
    config: &EngineConfig,
    artifact: &CompiledModule,
    instrumentation: &Instrumentation,
    telemetry: &Telemetry,
) -> Result<Vec<u32>, CompileError> {
    let Some(tier) = config.schedule.instantiation_tier() else {
        return Ok(Vec::new());
    };
    let mut pending: Vec<u32> = (0..artifact.num_defined())
        .filter(|&defined| artifact.artifact_for(defined, tier).is_none())
        .collect();
    if pending.is_empty() {
        return Ok(Vec::new());
    }
    let workers = config.compile_workers.max(1).min(pending.len());
    if workers > 1 {
        // A stable sort: bodies of one size stay in index order.
        let funcs = &artifact.module().funcs;
        pending.sort_by_key(|&defined| Reverse(funcs[defined as usize].code.len()));
    }
    let (pending, next) = (&pending, &AtomicUsize::new(0));
    // One worker's loop. A failure does not stop it: the error to report is
    // the lowest-indexed one, which may still be ahead of the cursor.
    let drain = move || {
        let (mut published, mut first_error) = (Vec::new(), None);
        let take = || pending.get(next.fetch_add(1, Ordering::Relaxed));
        while let Some(&defined) = take() {
            let func_index = artifact.module().defined_to_func_index(defined);
            let probes = instrumentation.sites_for(func_index);
            match compile_slot(telemetry, config, artifact, defined, tier, &probes, None) {
                Ok(true) => published.push(defined),
                Ok(false) => {}
                Err(e) => keep_lowest(&mut first_error, defined, e),
            }
        }
        (published, first_error)
    };
    type Drained = (Vec<u32>, Option<(u32, CompileError)>);
    let results: Vec<Drained> = if workers > 1 {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    // Named, so every instantiation's worker `w` reports into
                    // the same telemetry ring.
                    thread::Builder::new()
                        .name(format!("compile-{w}"))
                        .spawn_scoped(scope, drain)
                        .expect("spawn eager compile worker")
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        })
    } else {
        // One worker is the calling thread.
        vec![drain()]
    };
    let mut published = Vec::new();
    let mut first_error = None;
    for (indices, error) in results {
        published.extend(indices);
        if let Some((defined, e)) = error {
            keep_lowest(&mut first_error, defined, e);
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }
    published.sort_unstable();
    Ok(published)
}

/// Keeps in `first` whichever of it and `defined`'s error names the lower
/// function.
fn keep_lowest(first: &mut Option<(u32, CompileError)>, defined: u32, e: CompileError) {
    if first.as_ref().is_none_or(|(d, _)| defined < *d) {
        *first = Some((defined, e));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spc::CompilerOptions;
    use std::sync::Arc;
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::opcode::Opcode;
    use wasm::types::{FuncType, ValueType};

    /// The artifact chain the pipeline shares across threads must be
    /// `Send + Sync`; this is the audit the subsystem's design rests on.
    #[test]
    fn artifact_chain_is_send_and_sync() {
        fn check<T: Send + Sync>() {}
        check::<Module>();
        check::<ModuleInfo>();
        check::<PreparedFunction>();
        check::<CompiledFunction>();
        check::<CompiledArtifact>();
        check::<CompiledModule>();
        check::<Arc<CompiledModule>>();
        check::<EngineConfig>();
        check::<Instrumentation>();
        check::<crate::cache::CodeCache>();
    }

    fn small_module(funcs: u32) -> Module {
        let mut b = ModuleBuilder::new();
        for i in 0..funcs {
            let mut c = CodeBuilder::new();
            c.local_get(0).i32_const(i as i32 + 1).op(Opcode::I32Add);
            b.add_func(
                FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
                vec![],
                c.finish(),
            );
        }
        b.finish()
    }

    #[test]
    fn build_prepares_every_function_with_empty_slots() {
        let artifact = CompiledModule::build(small_module(3)).unwrap();
        assert_eq!(artifact.num_defined(), 3);
        assert_eq!(artifact.compiled_count(), 0);
        assert!(artifact.code(0).is_none());
        assert_eq!(artifact.prepared(1).num_params, 1);
        assert_eq!(artifact.total_compile_wall(), Duration::ZERO);
    }

    #[test]
    fn publish_is_first_writer_wins() {
        let config = EngineConfig::baseline("t", CompilerOptions::allopt());
        let artifact = CompiledModule::build(small_module(1)).unwrap();
        let compile = || {
            let (telemetry, probes) = (Telemetry::disabled(), ProbeSites::none());
            compile_slot(&telemetry, &config, &artifact, 0, CompileTier::Baseline, &probes, None)
        };
        assert!(compile().unwrap());
        assert!(!compile().unwrap(), "second compile of the same slot publishes nothing");
        assert_eq!(artifact.compiled_count(), 1);
        assert!(artifact.total_compile_wall() > Duration::ZERO);
    }

    #[test]
    fn eager_compilation_is_identical_at_any_worker_count() {
        let module = small_module(7);
        let config = EngineConfig::baseline("t", CompilerOptions::allopt());
        let serial = CompiledModule::build(module.clone()).unwrap();
        let published =
            compile_eager(&config, &serial, &Instrumentation::none(), &Telemetry::disabled()).unwrap();
        assert_eq!(published, vec![0, 1, 2, 3, 4, 5, 6]);
        for workers in [2, 3, 8, 64] {
            let config = config.clone().with_compile_workers(workers);
            let parallel = CompiledModule::build(module.clone()).unwrap();
            let published =
                compile_eager(&config, &parallel, &Instrumentation::none(), &Telemetry::disabled()).unwrap();
            assert_eq!(published, vec![0, 1, 2, 3, 4, 5, 6], "{workers} workers");
            for defined in 0..7 {
                assert_eq!(
                    serial.code(defined).unwrap().code,
                    parallel.code(defined).unwrap().code,
                    "function {defined} must be byte-identical at {workers} workers"
                );
            }
        }
    }
}
