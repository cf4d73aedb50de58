//! Instance pooling: a warm checkout is an instantiation on a recycled
//! instance.
//!
//! A serving workload instantiates the same module for every request. With a
//! [`CodeCache`](crate::CodeCache) the *code* side of that is already free;
//! what a fresh [`Instance`] still costs is its allocations — value stack,
//! host functions, call counts — and the tier it has not yet earned. An
//! [`InstancePool`] keeps those: it parks instances between requests and
//! hands a parked one out through the engine's instance initializer, the
//! same one [`Engine::instantiate`] ends with. Memory, globals and tables
//! are built fresh, execution state is cleared, and the start function runs
//! again, so a warm checkout starts from exactly the state a cold one does —
//! a start function that reads a host import included.
//!
//! The checkout path is deliberately *initialize-on-checkout*, not
//! reset-on-checkin: a finished request checks its instance back in as-is
//! (dirty memory, half-consumed fuel, a trapped stack — whatever the request
//! left behind), and the next checkout pays the initialization. That keeps
//! checkin O(1) on the request's critical path and means an instance
//! abandoned mid-trap (say, [`OutOfFuel`](machine::inst::TrapCode::OutOfFuel)
//! with scribbled-on memory) needs no special handling.
//!
//! What a checkout deliberately *keeps* is tier warmth: call and OSR counts,
//! instrumentation data, and published compiled code survive, so a pooled
//! instance that tiered up stays tiered up. Tier choice never changes
//! results — the conformance matrix's core invariant — and the pool
//! differential tests re-prove it by diffing recycled instances against cold
//! ones across every configuration.

use crate::engine::{Engine, EngineError, Imports, Instance, RunMetrics};
use crate::monitor::Instrumentation;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use telemetry::EventKind;
use wasm::module::Module;

/// Builds the imports for one instantiation. [`Imports`] itself is not
/// `Clone` (host functions are boxed closures), so the pool re-invokes this
/// factory whenever it has to fall back to a cold instantiation.
pub type ImportsFactory = Box<dyn Fn() -> Imports + Send + Sync>;

/// A point-in-time snapshot of an [`InstancePool`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Instances currently parked in the pool.
    pub idle: u64,
    /// Checkouts served by initializing a recycled instance.
    pub warm_checkouts: u64,
    /// Checkouts that had to instantiate from scratch (pool was empty).
    pub cold_checkouts: u64,
}

/// A pool of recycled [`Instance`]s of one module under one [`Engine`].
///
/// Construction performs one cold instantiation and parks the instance
/// (unless `max_idle` is 0). [`InstancePool::checkout`] then serves
/// requests: pop + initialize when an idle instance exists, cold instantiate
/// when the pool is empty (concurrency above the idle count).
/// Checked-out instances ride in a [`PooledInstance`] guard that returns
/// them on drop; at most `max_idle` are retained.
pub struct InstancePool {
    engine: Engine,
    module: Module,
    imports: ImportsFactory,
    idle: Mutex<Vec<Instance>>,
    max_idle: usize,
    warm_checkouts: AtomicU64,
    cold_checkouts: AtomicU64,
    /// Label carried on this pool's telemetry events (the serving layer
    /// sets it to the app index).
    label: AtomicU32,
}

impl fmt::Debug for InstancePool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InstancePool")
            .field("max_idle", &self.max_idle)
            .field("stats", &self.stats())
            .finish()
    }
}

impl InstancePool {
    /// Creates a pool for a module with no imports, retaining at most
    /// `max_idle` parked instances. Performs the first (cold) instantiation
    /// eagerly so construction surfaces instantiation errors.
    pub fn new(
        engine: Engine,
        module: Module,
        max_idle: usize,
    ) -> Result<Arc<InstancePool>, EngineError> {
        InstancePool::with_imports(engine, module, Box::new(Imports::new), max_idle)
    }

    /// Like [`InstancePool::new`], but instantiating with imports built by
    /// `imports` (re-invoked per cold instantiation).
    pub fn with_imports(
        engine: Engine,
        module: Module,
        imports: ImportsFactory,
        max_idle: usize,
    ) -> Result<Arc<InstancePool>, EngineError> {
        let first = engine.instantiate(&module, imports(), Instrumentation::none())?;
        // A pool with `max_idle == 0` never parks anything, the first
        // instance included: it only surfaces errors, and every checkout is
        // cold.
        let idle = if max_idle == 0 { Vec::new() } else { vec![first] };
        Ok(Arc::new(InstancePool {
            engine,
            module,
            imports,
            idle: Mutex::new(idle),
            max_idle,
            warm_checkouts: AtomicU64::new(0),
            cold_checkouts: AtomicU64::new(0),
            label: AtomicU32::new(0),
        }))
    }

    /// Sets the label carried on this pool's telemetry events (serving
    /// layers use the app index).
    pub fn set_label(&self, label: u32) {
        self.label.store(label, Ordering::Relaxed);
    }

    /// The engine instances in this pool execute under.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Checks out an instance: warm (pop a recycled instance and initialize
    /// it, start function included) when one is parked, cold (full
    /// instantiation) otherwise. The returned guard checks the instance back
    /// in on drop.
    ///
    /// # Errors
    ///
    /// Returns an error if instantiation fails or the start function traps;
    /// a recycled instance whose start traps is dropped, not parked.
    pub fn checkout(self: &Arc<Self>) -> Result<PooledInstance, EngineError> {
        let recycled = crate::lock(&self.idle).pop();
        let (instance, warm) = match recycled {
            Some(mut instance) => {
                self.warm_checkouts.fetch_add(1, Ordering::SeqCst);
                // A warm checkout is a cache-hit instantiation.
                let metrics = RunMetrics {
                    cache_hit: true,
                    ..RunMetrics::default()
                };
                self.engine.initialize(&mut instance, metrics, None)?;
                (instance, true)
            }
            None => {
                self.cold_checkouts.fetch_add(1, Ordering::SeqCst);
                let instance = self.engine.instantiate(
                    &self.module,
                    (self.imports)(),
                    Instrumentation::none(),
                )?;
                (instance, false)
            }
        };
        let telemetry = self.engine.telemetry();
        if telemetry.is_enabled() {
            let app = self.label.load(Ordering::Relaxed);
            telemetry.emit(EventKind::PoolCheckout { app, warm });
            if let Some(metrics) = telemetry.metrics() {
                metrics
                    .counter(if warm { "pool.warm_checkouts" } else { "pool.cold_checkouts" })
                    .inc();
            }
        }
        Ok(PooledInstance {
            instance: Some(instance),
            pool: Arc::clone(self),
            warm,
        })
    }

    /// Parks an instance as-is (no reset — the next checkout pays it), or
    /// drops it if `max_idle` are already parked.
    fn checkin(&self, instance: Instance) {
        let mut idle = crate::lock(&self.idle);
        if idle.len() < self.max_idle {
            idle.push(instance);
        }
    }

    /// Snapshots the pool's counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            idle: crate::lock(&self.idle).len() as u64,
            warm_checkouts: self.warm_checkouts.load(Ordering::SeqCst),
            cold_checkouts: self.cold_checkouts.load(Ordering::SeqCst),
        }
    }
}

/// A checked-out instance that returns itself to the pool when dropped.
/// Dereferences to [`Instance`], so callers arm fuel/deadlines and invoke
/// exports exactly as on an owned instance.
pub struct PooledInstance {
    instance: Option<Instance>,
    pool: Arc<InstancePool>,
    warm: bool,
}

impl PooledInstance {
    /// True if this checkout was served by a recycled instance rather than
    /// a full instantiation.
    pub fn was_warm(&self) -> bool {
        self.warm
    }
}

impl fmt::Debug for PooledInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledInstance")
            .field("warm", &self.warm)
            .field("instance", &self.instance)
            .finish()
    }
}

impl Deref for PooledInstance {
    type Target = Instance;
    fn deref(&self) -> &Instance {
        self.instance.as_ref().expect("instance present until drop")
    }
}

impl DerefMut for PooledInstance {
    fn deref_mut(&mut self) -> &mut Instance {
        self.instance.as_mut().expect("instance present until drop")
    }
}

impl Drop for PooledInstance {
    fn drop(&mut self) {
        if let Some(instance) = self.instance.take() {
            self.pool.checkin(instance);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use machine::values::WasmValue;
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::module::ConstExpr;
    use wasm::opcode::Opcode;
    use wasm::types::{FuncType, GlobalType, Limits, ValueType};

    /// A module whose `bump` export increments `mem[0]` and a mutable
    /// global, returning the new memory counter — so recycled state is
    /// observable if a checkout ever fails to scrub it.
    fn counter_module() -> Module {
        let mut b = ModuleBuilder::new();
        b.add_memory(Limits::bounded(1, 2));
        b.add_global(GlobalType::mutable(ValueType::I32), ConstExpr::I32(100));
        let mut c = CodeBuilder::new();
        c.i32_const(0)
            .i32_const(0)
            .mem(Opcode::I32Load, 2, 0)
            .i32_const(1)
            .op(Opcode::I32Add)
            .mem(Opcode::I32Store, 2, 0)
            .global_get(0)
            .i32_const(1)
            .op(Opcode::I32Add)
            .global_set(0)
            .i32_const(0)
            .mem(Opcode::I32Load, 2, 0);
        let f = b.add_func(
            FuncType::new(vec![], vec![ValueType::I32]),
            vec![],
            c.finish(),
        );
        b.export_func("bump", f);
        b.finish()
    }

    fn bump(pool: &Arc<InstancePool>, instance: &mut PooledInstance) -> Vec<WasmValue> {
        pool.engine()
            .call_export(&mut *instance, "bump", &[])
            .expect("bump runs")
    }

    #[test]
    fn warm_checkout_starts_from_the_initial_state() {
        let pool = InstancePool::new(Engine::new(EngineConfig::default()), counter_module(), 4)
            .expect("pool builds");
        // First checkout recycles the construction-time instance: warm.
        let mut a = pool.checkout().unwrap();
        assert!(a.was_warm());
        assert_eq!(bump(&pool, &mut a), vec![WasmValue::I32(1)]);
        assert_eq!(
            bump(&pool, &mut a),
            vec![WasmValue::I32(2)],
            "state persists within a checkout"
        );
        assert_eq!(a.global_value(0), Some(WasmValue::I32(102)));
        drop(a);
        // The recycled instance comes back rewound: counter restarts at 1.
        let mut b = pool.checkout().unwrap();
        assert!(b.was_warm());
        assert_eq!(b.global_value(0), Some(WasmValue::I32(100)), "global rewound");
        assert_eq!(bump(&pool, &mut b), vec![WasmValue::I32(1)], "memory rewound");
    }

    #[test]
    fn empty_pool_falls_back_to_cold_instantiation() {
        let pool = InstancePool::new(Engine::new(EngineConfig::default()), counter_module(), 8)
            .expect("pool builds");
        let a = pool.checkout().unwrap();
        let b = pool.checkout().unwrap();
        assert!(a.was_warm(), "construction parks one instance");
        assert!(!b.was_warm(), "second concurrent checkout is cold");
        let stats = pool.stats();
        assert_eq!((stats.warm_checkouts, stats.cold_checkouts, stats.idle), (1, 1, 0));
        drop(a);
        drop(b);
        assert_eq!(pool.stats().idle, 2, "both instances parked on drop");
        let c = pool.checkout().unwrap();
        assert!(c.was_warm());
    }

    #[test]
    fn a_panic_while_the_idle_list_is_locked_leaves_the_pool_serving() {
        let pool = InstancePool::new(Engine::new(EngineConfig::default()), counter_module(), 2)
            .expect("pool builds");
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _idle = crate::lock(&pool.idle);
                panic!("a thread dies holding the pool's lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(pool.idle.is_poisoned());
        let mut a = pool.checkout().expect("checkout after the panic");
        assert!(a.was_warm(), "the parked instance is still there");
        assert_eq!(bump(&pool, &mut a), vec![WasmValue::I32(1)]);
        drop(a);
        assert_eq!(pool.stats().idle, 1, "checkin still parks");
    }

    #[test]
    fn max_idle_caps_retained_instances() {
        let pool = InstancePool::new(Engine::new(EngineConfig::default()), counter_module(), 1)
            .expect("pool builds");
        let a = pool.checkout().unwrap();
        let b = pool.checkout().unwrap();
        drop(a);
        drop(b);
        assert_eq!(pool.stats().idle, 1, "overflow instance dropped, not parked");
    }
}
