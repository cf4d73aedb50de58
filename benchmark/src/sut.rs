//! The adapter: the one file that names the system under test.
//!
//! Every other file of the benchmark reaches the repository's crates through
//! the re-exports and functions here, so a refactor of the public API (an
//! `Engine` handle, `Arc<Module>`, a hash taken at decode) changes this file
//! and nothing else. `README.md` lists the surface.

use std::sync::Arc;
use std::time::Duration;

pub use engine::{CompileTier, Engine, EngineConfig, InstancePool};
pub use serve::{RequestResult, Server};
pub use suites::Scale;
pub use telemetry::Telemetry;
pub use wasm::builder::{CodeBuilder, ModuleBuilder};
pub use wasm::module::{ConstExpr, Module};
pub use wasm::opcode::Opcode;
pub use wasm::types::{BlockType, FuncType, GlobalType, Limits, ValueType};

use engine::{
    CacheKey, CodeBackend, CodeCache, CompiledArtifact, Imports, Instance, Instrumentation,
    MemoryImage, PooledInstance, TrapReason,
};
use interp::PreparedFunction;
use machine::values::WasmValue;
use serve::{Request, RequestStatus};
use spc::CompilerOptions;
use wasm::validate::ModuleInfo;

// ---- wasm -------------------------------------------------------------------

/// `wasm::decode::decode`.
pub fn decode(bytes: &[u8]) -> Result<Module, String> {
    wasm::decode::decode(bytes).map_err(|e| e.to_string())
}

/// `wasm::encode::encode`.
pub fn encode(module: &Module) -> Vec<u8> {
    wasm::encode::encode(module)
}

/// `wasm::validate::validate`.
pub fn validate(module: &Module) -> Result<ModuleInfo, String> {
    wasm::validate::validate(module).map_err(|e| e.to_string())
}

/// `Module::content_hash`.
pub fn content_hash(module: &Module) -> u64 {
    module.content_hash()
}

/// `FuelPlan::build` over every body; returns the charge sites planned.
pub fn fuel_plans(module: &Module) -> usize {
    module
        .funcs
        .iter()
        .map(|f| {
            wasm::fuel::FuelPlan::build(&f.code)
                .expect("validated body")
                .num_charges()
        })
        .sum()
}

/// Defined functions of `module`.
pub fn num_defined(module: &Module) -> u32 {
    module.funcs.len() as u32
}

/// Bytes of function bodies in `module`.
pub fn code_bytes(module: &Module) -> usize {
    module.total_code_bytes()
}

// ---- interp -----------------------------------------------------------------

/// `interp::sidetable::build_sidetable` for one defined function; returns
/// the entries built.
pub fn build_sidetable(module: &Module, defined: u32) -> usize {
    let func_index = module.defined_to_func_index(defined);
    interp::sidetable::build_sidetable(module, func_index)
        .expect("validated body")
        .len()
}

/// `interp::prepare` for one defined function.
pub fn prepare(module: &Module, info: &ModuleInfo, defined: u32) -> PreparedFunction {
    let func_index = module.defined_to_func_index(defined);
    interp::prepare(module, func_index, &info.funcs[defined as usize]).expect("validated body")
}

// ---- engine configurations --------------------------------------------------

/// The interpreter: reference for every result the benchmark checks.
pub fn interpreter() -> EngineConfig {
    EngineConfig::interpreter("bench-int")
}

/// Baseline `allopt`, virtual-ISA backend only.
pub fn baseline() -> EngineConfig {
    EngineConfig::baseline("bench-spc", CompilerOptions::allopt())
}

/// Baseline `allopt` with real x86-64 emission on `workers` eager-compile
/// threads: `load-baseline` with one.
pub fn baseline_x64(workers: usize) -> EngineConfig {
    baseline()
        .with_backend(CodeBackend::X64)
        .with_compile_workers(workers)
}

/// The optimizing tier on `workers` eager-compile threads: `load-opt-par`.
pub fn optimizing(workers: usize) -> EngineConfig {
    EngineConfig::optimizing("bench-opt").with_compile_workers(workers)
}

/// Three tiers with OSR and synchronous compiles: `tiered-run`.
pub fn tiered() -> EngineConfig {
    EngineConfig::tiered("bench-tiered", 2, CompilerOptions::allopt())
        .with_opt_tier(8)
        .with_osr(1000)
}

/// Baseline `allopt` with fuel and epoch checks compiled in: `serve-warm`.
pub fn metered() -> EngineConfig {
    baseline().with_metering()
}

/// The eight tier×backend configurations reference outputs must agree on
/// (the conformance matrix), interpreter first, each with its name.
pub fn matrix() -> Vec<(String, EngineConfig)> {
    let allopt = CompilerOptions::allopt;
    let configs = vec![
        EngineConfig::interpreter("int"),
        EngineConfig::baseline("spc", allopt()),
        EngineConfig::baseline("spc-x64", allopt()).with_backend(CodeBackend::X64),
        EngineConfig::baseline("lazy", allopt()).with_lazy_compile(true),
        EngineConfig::baseline("lazy-x64", allopt())
            .with_lazy_compile(true)
            .with_backend(CodeBackend::X64),
        EngineConfig::tiered("tiered", 2, allopt()),
        EngineConfig::tiered("opt", 1, allopt()).with_opt_tier(2),
        EngineConfig::tiered("opt-x64", 1, allopt())
            .with_opt_tier(2)
            .with_backend(CodeBackend::X64),
    ];
    configs
        .into_iter()
        .map(|config| (config.name.clone(), config))
        .collect()
}

// ---- engine -----------------------------------------------------------------

/// `Engine::new`.
pub fn engine(config: EngineConfig) -> Engine {
    Engine::new(config)
}

/// `Engine::new(..).with_code_cache(..)`.
pub fn cached_engine(config: EngineConfig, cache: &Arc<CodeCache>) -> Engine {
    Engine::new(config).with_code_cache(Arc::clone(cache))
}

/// `Engine::new(..).with_telemetry(..)`: the engine reports into `telemetry`.
pub fn engine_with_telemetry(config: EngineConfig, telemetry: &Telemetry) -> Engine {
    Engine::new(config).with_telemetry(telemetry.clone())
}

/// The value of counter `name` in `telemetry`'s registry.
pub fn telemetry_counter(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry
        .metrics()
        .map_or(0, |metrics| metrics.counter(name).get())
}

/// `CodeCache::new`.
pub fn code_cache() -> Arc<CodeCache> {
    Arc::new(CodeCache::new())
}

/// `(hits, misses)` of `cache`.
pub fn cache_counts(cache: &CodeCache) -> (u64, u64) {
    (cache.hits(), cache.misses())
}

/// `Engine::instantiate` with no imports and no instrumentation.
pub fn instantiate(engine: &Engine, module: &Module) -> Result<Instance, String> {
    engine
        .instantiate(module, Imports::new(), Instrumentation::none())
        .map_err(|e| e.to_string())
}

/// How an exported `[] -> [i32]` entry ended: its value, or the trap's
/// name as `expected/*.tsv` spells it.
pub type Outcome = Result<i32, String>;

fn outcome(result: Result<Vec<WasmValue>, machine::inst::TrapCode>) -> Outcome {
    match result {
        Ok(values) => match values.first() {
            Some(WasmValue::I32(v)) => Ok(*v),
            other => Err(format!("unexpected result {other:?}")),
        },
        Err(code) => Err(format!("{:?}", TrapReason::from(code))),
    }
}

fn request_outcome(status: &RequestStatus) -> Outcome {
    match status {
        RequestStatus::Ok(values) => outcome(Ok(values.clone())),
        RequestStatus::Trapped(reason) => Err(format!("{reason:?}")),
        RequestStatus::Rejected(message) => Err(format!("rejected: {message}")),
    }
}

/// `Engine::call_export` of a `[] -> [i32]` entry.
pub fn call_i32(engine: &Engine, instance: &mut Instance, entry: &str) -> Outcome {
    outcome(engine.call_export(instance, entry, &[]))
}

/// `Engine::call_export` of a `[] -> []` entry; true if it returned.
pub fn call_unit(engine: &Engine, instance: &mut Instance, entry: &str) -> bool {
    engine.call_export(instance, entry, &[]).is_ok()
}

/// Simulated cycles `instance` has executed since instantiation or reset.
pub fn exec_cycles(instance: &Instance) -> u64 {
    instance.metrics.exec_cycles
}

/// What `RunMetrics` says one instance's tiering did: functions installed
/// after instantiation (tier-ups and promotions) and the wall-clock of the
/// compiles behind them.
pub fn tierup_stats(instance: &Instance) -> (u32, Duration) {
    let m = &instance.metrics;
    (
        m.tiered_up_functions,
        m.lazy_compile_wall + m.opt_compile_wall,
    )
}

/// True if `instance` was served from the code cache.
pub fn was_cache_hit(instance: &Instance) -> bool {
    instance.metrics.cache_hit
}

/// Machine-code bytes compiled on behalf of `instance`, and a hash of the
/// emitted x86-64 bytes where that backend is on: what the benchmark compares
/// between repetitions to catch a nondeterministic compiler.
pub fn code_fingerprint(instance: &Instance) -> (u64, u64) {
    let artifact = instance.artifact();
    let mut hash = wasm::hash::Fnv64::new();
    for defined in 0..artifact.num_defined() {
        for tier in [CompileTier::Baseline, CompileTier::Opt] {
            if let Some(code) = artifact.artifact_for(defined, tier) {
                hash.write_u64(code.machine_bytes);
                if let Some(x64) = &code.x64_code {
                    hash.write(x64.bytes());
                }
            }
        }
    }
    (artifact.machine_bytes(), hash.finish())
}

/// `CacheKey::for_instantiation` with no instrumentation; returns the
/// content-hash half so the call cannot be optimized away.
pub fn cache_key(config: &EngineConfig, module: &Module) -> u64 {
    CacheKey::for_instantiation(config, module, &Instrumentation::none()).content_hash
}

/// `MemoryImage::build` under `config`'s limits; returns the globals built.
pub fn build_image(config: &EngineConfig, module: &Module) -> usize {
    MemoryImage::build(module, &config.limits)
        .expect("image builds")
        .globals()
        .len()
}

/// `pipeline::compile_function` with no probes and no profile.
pub fn compile_function(
    config: &EngineConfig,
    tier: CompileTier,
    module: &Module,
    info: &ModuleInfo,
    defined: u32,
) -> CompiledArtifact {
    let func_index = module.defined_to_func_index(defined);
    engine::pipeline::compile_function(
        config,
        tier,
        module,
        func_index,
        &info.funcs[defined as usize],
        &spc::ProbeSites::default(),
        None,
    )
    .expect("validated function compiles")
}

/// `InstancePool::new` keeping one idle instance.
pub fn pool(engine: Engine, module: &Module) -> Result<Arc<InstancePool>, String> {
    InstancePool::new(engine, module.clone(), 1).map_err(|e| e.to_string())
}

/// `InstancePool::checkout`.
pub fn checkout(pool: &Arc<InstancePool>) -> PooledInstance {
    pool.checkout().expect("pooled module instantiates")
}

/// `InstancePool::engine`.
pub fn pool_engine(pool: &InstancePool) -> &Engine {
    pool.engine()
}

/// `(warm, cold)` checkouts `pool` has served.
pub fn pool_checkouts(pool: &InstancePool) -> (u64, u64) {
    let stats = pool.stats();
    (stats.warm_checkouts, stats.cold_checkouts)
}

// ---- serve ------------------------------------------------------------------

/// `Server::new` with `workers` workers over `config`; `telemetry` is the
/// sink every app's engine and the serving layer report into.
pub fn server(workers: usize, config: EngineConfig, telemetry: Telemetry) -> Server {
    let server_config = serve::ServerConfig {
        workers,
        telemetry,
        ..serve::ServerConfig::default()
    };
    Server::new(server_config, config)
}

/// `Server::register_app` with the suites' entry name.
pub fn register_app(server: &mut Server, name: &str, module: Module) -> Result<usize, String> {
    server
        .register_app(name, suites::BenchmarkItem::ENTRY, module)
        .map_err(|e| e.to_string())
}

/// A fuel budget no suite item exhausts; armed so the metering path runs.
const FUEL: u64 = u64::MAX / 2;

/// A request with fuel and a wall-clock deadline armed, as a tenant's would
/// be.
pub fn request(app: usize) -> Request {
    Request::to_app(app)
        .with_fuel(FUEL)
        .with_deadline(Duration::from_secs(5))
}

/// `Server::run`.
pub fn run_batch(server: &Server, requests: Vec<Request>) -> Vec<RequestResult> {
    server.run(requests)
}

/// What the server reports about one request.
pub struct Served {
    /// The app it went to.
    pub app: usize,
    /// Its result, or why there is none.
    pub outcome: Outcome,
    /// `service_wall`: checkout + execution, as the server timed it.
    pub latency: Duration,
    /// Simulated cycles executed.
    pub cycles: u64,
    /// Served by a pool reset, not a cold instantiation.
    pub warm: bool,
    /// The call trapped (fuel and deadline traps included).
    pub trapped: bool,
    /// The request never ran.
    pub rejected: bool,
}

/// Reads a [`RequestResult`].
pub fn served(result: &RequestResult) -> Served {
    Served {
        app: result.app,
        outcome: request_outcome(&result.status),
        latency: result.service_wall,
        cycles: result.exec_cycles,
        warm: result.warm,
        trapped: matches!(result.status, RequestStatus::Trapped(_)),
        rejected: matches!(result.status, RequestStatus::Rejected(_)),
    }
}

/// `access_log::render_line`.
pub fn render_access_log(result: &RequestResult, app_name: &str) -> String {
    serve::access_log::render_line(result, Some(app_name))
}

/// `Telemetry::emit` of a representative event on `telemetry`.
pub fn emit_event(telemetry: &Telemetry, n: u32) {
    telemetry.emit(telemetry::EventKind::CacheLookup { hit: n & 1 == 0 });
}

// ---- suites -----------------------------------------------------------------

/// One suite line item.
#[derive(Debug, Clone)]
pub struct Item {
    /// `"<suite>/<name>"`.
    pub name: String,
    /// The generated module.
    pub module: Module,
}

/// `suites::all_suites` flattened in suite order (78 items).
pub fn suite_items(scale: Scale) -> Vec<Item> {
    suites::all_suites(scale)
        .into_iter()
        .flat_map(|suite| {
            suite.items.into_iter().map(move |item| Item {
                name: format!("{}/{}", suite.name, item.name),
                module: item.module,
            })
        })
        .collect()
}

/// `suites::nop_module`: the paper's `Mnop`, for the fixed cost of a call.
pub fn nop_module() -> Module {
    suites::nop_module()
}

/// The entry every suite item and the nop module export.
pub const ENTRY: &str = suites::BenchmarkItem::ENTRY;
