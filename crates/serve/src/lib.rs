//! The concurrent serving harness: many requests, one engine, zero setup
//! on the hot path.
//!
//! This crate is the embedder the engine crates have been building toward:
//! a request driver in the shape of a multi-tenant function-as-a-service
//! server. A [`Server`] hosts a set of *apps* (modules registered up
//! front), and [`Server::run`] executes a batch of [`Request`]s against
//! them across scoped worker threads. A batch arrives whole, so dispatch is
//! a partition, not a queue: request `id` goes to worker `id % workers`,
//! each worker serves its share in order and returns its results through
//! its join handle, and the scope's join is the batch barrier (a worker
//! panic is re-raised on the caller). The other moving parts, each its own
//! module, are the classic serving idioms:
//!
//! * [`deadline`] — wall-clock budgets lowered onto the engine's epoch
//!   preemption: a ticker thread advances the shared epoch, a
//!   [`deadline::TimeoutList`] converts budgets to epoch deadlines, and the
//!   engine interrupts itself at the next check site;
//! * [`access_log`] — every retired request becomes one structured JSON
//!   line (latency, fuel, pool/cache behaviour, deadline overshoot for
//!   interrupted requests, symbolicated trap diagnostics on failure), and
//!   a bounded [`access_log::FlightRecorder`] ring retains the most recent
//!   lines for dumping on demand;
//! * instance pooling lives in the engine crate
//!   ([`engine::InstancePool`]): each app's instances are recycled, so a
//!   warm request pays the engine's instance initializer (fresh memory,
//!   globals and tables, then the start function) instead of a full
//!   instantiation.
//!
//! Every app runs on one [`engine::Engine`], built by [`Server::new`]: its
//! [`engine::CodeCache`] means repeated instantiations never recompile, and
//! its epoch is the one the ticker advances.
//!
//! Per-request isolation is the multi-tenant contract from PR 6: fuel
//! budgets meter deterministic work, epoch deadlines bound wall-clock time,
//! and every request observes a freshly initialized instance regardless of
//! what the previous occupant did — including trapping halfway through a
//! memory write.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access_log;
pub mod deadline;

use access_log::FlightRecorder;
use deadline::{EpochTicker, TimeoutList};
use engine::{CodeCache, Engine, EngineConfig, EngineError, InstancePool, TrapInfo, TrapReason};
use machine::values::WasmValue;
use std::panic;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use telemetry::{EventKind, Telemetry};
use wasm::module::Module;

/// Instances each app's pool retains between requests. A worker holds one
/// instance at a time, so the cap only discards instances on a server with
/// more workers than this.
const MAX_IDLE_PER_APP: usize = 8;

/// Sizing and pacing knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// The epoch tick period — the granularity at which deadlines are
    /// enforced.
    pub epoch_granularity: Duration,
    /// Telemetry handle shared by the server's engine and the serving layer
    /// itself: compile, cache, pool, and request events all land in one
    /// trace. Disabled by default.
    pub telemetry: Telemetry,
    /// Access-log lines the flight recorder retains
    /// ([`Server::flight_recorder`]); the oldest are overwritten beyond
    /// this.
    pub flight_recorder_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            epoch_granularity: Duration::from_millis(1),
            telemetry: Telemetry::disabled(),
            flight_recorder_capacity: 256,
        }
    }
}

/// One unit of work: which app to invoke and under what limits.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index returned by [`Server::register_app`].
    pub app: usize,
    /// Arguments for the app's entry point.
    pub args: Vec<WasmValue>,
    /// Deterministic work budget ([`engine::Instance::set_fuel`]); requires
    /// a metering engine configuration to be enforced.
    pub fuel: Option<u64>,
    /// Wall-clock budget, enforced via epoch preemption.
    pub deadline: Option<Duration>,
}

impl Request {
    /// A request against `app` with no arguments and no limits.
    pub fn to_app(app: usize) -> Request {
        Request {
            app,
            args: Vec::new(),
            fuel: None,
            deadline: None,
        }
    }

    /// Sets the fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Request {
        self.fuel = Some(fuel);
        self
    }

    /// Sets the wall-clock budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Request {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the entry-point arguments.
    pub fn with_args(mut self, args: Vec<WasmValue>) -> Request {
        self.args = args;
        self
    }
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestStatus {
    /// The entry point returned normally.
    Ok(Vec<WasmValue>),
    /// Execution trapped — including [`TrapReason::OutOfFuel`] (budget
    /// exhausted) and [`TrapReason::Interrupted`] (deadline passed).
    Trapped(TrapReason),
    /// The request never executed (unknown app, instantiation failure).
    Rejected(String),
}

impl RequestStatus {
    /// True for [`RequestStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, RequestStatus::Ok(_))
    }
}

/// The outcome and measurements of one served request.
#[derive(Debug, Clone)]
pub struct RequestResult {
    /// Position of the request in the batch passed to [`Server::run`].
    pub request_id: usize,
    /// The app it targeted.
    pub app: usize,
    /// The worker thread that served it.
    pub worker: usize,
    /// How it ended.
    pub status: RequestStatus,
    /// True if the instance was a recycled one from the pool rather than a
    /// cold instantiation.
    pub warm: bool,
    /// Time to obtain a ready instance (initializing a recycled instance
    /// when warm, a full instantiation when cold).
    pub instantiate_wall: Duration,
    /// Total service time: checkout + execution.
    pub service_wall: Duration,
    /// Simulated execution cycles the request consumed — the repo's
    /// deterministic "execution time" unit, comparable across runs and
    /// immune to host scheduling noise.
    pub exec_cycles: u64,
    /// Fuel consumed, when a budget was armed.
    pub fuel_consumed: Option<u64>,
    /// How many whole epochs past its deadline the request retired
    /// (`Some(0)` = in the deadline tick itself); `None` when no deadline
    /// was armed or it completed in time. Cooperative preemption bounds
    /// this at roughly one epoch plus the time to the next check site.
    pub deadline_overshoot_epochs: Option<u64>,
    /// The symbolicated trap diagnostics when the request trapped: reason
    /// plus a cross-tier backtrace of `(function, name, bytecode offset)`
    /// frames.
    pub trap: Option<TrapInfo>,
}

impl RequestResult {
    /// True if the request's deadline passed before it retired (it was —
    /// or was about to be — interrupted): exactly when it has an overshoot.
    pub fn deadline_expired(&self) -> bool {
        self.deadline_overshoot_epochs.is_some()
    }
}

struct App {
    name: String,
    entry: String,
    pool: Arc<InstancePool>,
}

struct Work {
    id: usize,
    request: Request,
}

/// A multi-app serving harness over one engine.
pub struct Server {
    server_config: ServerConfig,
    engine: Engine,
    /// Held for its `Drop`, which stops the ticker thread with the server.
    _ticker: EpochTicker,
    timeouts: TimeoutList,
    recorder: FlightRecorder,
    apps: Vec<App>,
}

impl Server {
    /// Creates a server with no apps. Every app registered later runs on one
    /// engine built here from `engine_config`, with a fresh [`CodeCache`],
    /// the server's telemetry and an epoch ticker on the engine's epoch.
    pub fn new(server_config: ServerConfig, engine_config: EngineConfig) -> Server {
        let engine = Engine::new(engine_config)
            .with_code_cache(Arc::new(CodeCache::new()))
            .with_telemetry(server_config.telemetry.clone());
        let ticker =
            EpochTicker::start(Arc::clone(engine.epoch()), server_config.epoch_granularity);
        // The ticker's period, not the configured one: the ticker clamps it.
        let timeouts = TimeoutList::new(Arc::clone(engine.epoch()), ticker.granularity());
        let recorder = FlightRecorder::new(server_config.flight_recorder_capacity);
        Server {
            server_config,
            engine,
            _ticker: ticker,
            timeouts,
            recorder,
            apps: Vec::new(),
        }
    }

    /// Registers an app and returns its index for [`Request::to_app`].
    /// Every app is pooled: its [`InstancePool`] instantiates once eagerly,
    /// so broken modules fail here, not mid-batch, and each later request
    /// gets a parked instance re-initialized as a cold one would be, its
    /// start function run again.
    pub fn register_app(
        &mut self,
        name: &str,
        entry: &str,
        module: Module,
    ) -> Result<usize, EngineError> {
        let pool = InstancePool::new(self.engine.clone(), module, MAX_IDLE_PER_APP)?;
        pool.set_label(self.apps.len() as u32);
        self.apps.push(App {
            name: name.to_string(),
            entry: entry.to_string(),
            pool,
        });
        Ok(self.apps.len() - 1)
    }

    /// The name an app was registered under.
    fn app_name(&self, app: usize) -> Option<&str> {
        self.apps.get(app).map(|a| a.name.as_str())
    }

    /// The flight recorder: the most recent requests' access-log lines,
    /// dumpable on demand via [`access_log::FlightRecorder::dump`].
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Executes a batch: request `id` is dealt to worker `id % workers`,
    /// each worker serves its share in order on a scoped thread, and the
    /// batch is complete when every worker has been joined. Results come
    /// back in request order regardless of completion order.
    pub fn run(&self, requests: Vec<Request>) -> Vec<RequestResult> {
        let workers = self.server_config.workers.max(1);
        let total = requests.len();
        let mut shares: Vec<Vec<Work>> = (0..workers)
            .map(|_| Vec::with_capacity(total.div_ceil(workers)))
            .collect();
        for (id, request) in requests.into_iter().enumerate() {
            self.server_config.telemetry.emit(EventKind::ServeEnqueue {
                request: id as u32,
                app: request.app as u32,
            });
            shares[id % workers].push(Work { id, request });
        }
        let mut out = Vec::with_capacity(total);
        thread::scope(|scope| {
            let handles: Vec<_> = shares
                .into_iter()
                .enumerate()
                .map(|(worker, share)| {
                    // Named, so that batch after batch a worker's events land
                    // in one telemetry ring (one timeline per worker).
                    thread::Builder::new()
                        .name(format!("serve-worker-{worker}"))
                        .spawn_scoped(scope, move || {
                            share
                                .into_iter()
                                .map(|work| self.serve_one(worker, work))
                                .collect::<Vec<_>>()
                        })
                        .expect("spawn serve worker")
                })
                .collect();
            for handle in handles {
                out.extend(handle.join().unwrap_or_else(|payload| panic::resume_unwind(payload)));
            }
        });
        debug_assert_eq!(out.len(), total);
        out.sort_by_key(|r| r.request_id);
        out
    }

    /// Serves one request and appends its access-log line to the flight
    /// recorder.
    fn serve_one(&self, worker: usize, work: Work) -> RequestResult {
        let result = self.execute(worker, work);
        let app_name = self.app_name(result.app);
        self.recorder.record(access_log::render_line(&result, app_name));
        result
    }

    fn execute(&self, worker: usize, work: Work) -> RequestResult {
        let Work { id, request } = work;
        let reject = |message: String| RequestResult {
            request_id: id,
            app: request.app,
            worker,
            status: RequestStatus::Rejected(message),
            warm: false,
            instantiate_wall: Duration::ZERO,
            service_wall: Duration::ZERO,
            exec_cycles: 0,
            fuel_consumed: None,
            deadline_overshoot_epochs: None,
            trap: None,
        };
        let Some(app) = self.apps.get(request.app) else {
            return reject(format!("unknown app index {}", request.app));
        };
        let start = Instant::now();
        let mut instance = match app.pool.checkout() {
            Ok(instance) => instance,
            Err(e) => return reject(format!("instantiation failed: {e}")),
        };
        let instantiate_wall = start.elapsed();
        if let Some(fuel) = request.fuel {
            instance.set_fuel(fuel);
        }
        let deadline_epoch = request.deadline.map(|budget| self.timeouts.arm(budget));
        if let Some(deadline_epoch) = deadline_epoch {
            instance.set_epoch_deadline(deadline_epoch);
        }
        let outcome = self
            .engine
            .call_export(&mut instance, &app.entry, &request.args);
        let service_wall = start.elapsed();
        let deadline_overshoot_epochs = deadline_epoch.and_then(|d| self.timeouts.retire(d));
        let trap = if outcome.is_err() {
            instance.last_trap().cloned()
        } else {
            None
        };
        let saturate = |n: u64| u32::try_from(n).unwrap_or(u32::MAX);
        self.server_config.telemetry.emit(EventKind::ServeFinish {
            request: id as u32,
            app: request.app as u32,
            ok: outcome.is_ok(),
            dur_us: service_wall.as_micros() as u64,
            instantiate_us: saturate(instantiate_wall.as_micros() as u64),
            exec_cycles: instance.metrics.exec_cycles,
            fuel: instance.fuel_consumed(),
            deadline_overshoot: deadline_overshoot_epochs.map(saturate),
        });
        RequestResult {
            request_id: id,
            app: request.app,
            worker,
            status: match outcome {
                Ok(values) => RequestStatus::Ok(values),
                Err(code) => RequestStatus::Trapped(code),
            },
            warm: instance.was_warm(),
            instantiate_wall,
            service_wall,
            exec_cycles: instance.metrics.exec_cycles,
            fuel_consumed: instance.fuel_consumed(),
            deadline_overshoot_epochs,
            trap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::module::ConstExpr;
    use wasm::opcode::Opcode;
    use wasm::types::{FuncType, Limits, ValueType};

    /// `main: [] -> [i32]` increments `mem[0]` and returns it — so any
    /// cross-request state leak shows up as a result other than 1.
    fn counter_module() -> Module {
        let mut b = ModuleBuilder::new();
        b.add_memory(Limits::bounded(1, 2));
        b.add_data(0, ConstExpr::I32(8), vec![0x2A]);
        let mut c = CodeBuilder::new();
        c.i32_const(0)
            .i32_const(0)
            .mem(Opcode::I32Load, 2, 0)
            .i32_const(1)
            .op(Opcode::I32Add)
            .mem(Opcode::I32Store, 2, 0)
            .i32_const(0)
            .mem(Opcode::I32Load, 2, 0);
        let f = b.add_func(
            FuncType::new(vec![], vec![ValueType::I32]),
            vec![],
            c.finish(),
        );
        b.export_func("main", f);
        b.finish()
    }

    /// `main: [i32] -> [i32]` doubles its argument.
    fn doubler_module() -> Module {
        let mut b = ModuleBuilder::new();
        let mut c = CodeBuilder::new();
        c.local_get(0).local_get(0).op(Opcode::I32Add);
        let f = b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![],
            c.finish(),
        );
        b.export_func("main", f);
        b.finish()
    }

    #[test]
    fn instances_and_results_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<engine::Instance>();
        assert_send::<RequestResult>();
        assert_send::<Request>();
    }

    #[test]
    fn a_batch_runs_isolated_across_workers() {
        let mut server = Server::new(
            ServerConfig {
                workers: 3,
                ..ServerConfig::default()
            },
            EngineConfig::default(),
        );
        let counter = server.register_app("counter", "main", counter_module()).unwrap();
        let doubler = server.register_app("doubler", "main", doubler_module()).unwrap();
        assert_eq!(server.apps.len(), 2);
        assert_eq!(server.app_name(counter), Some("counter"));

        let mut requests = Vec::new();
        for i in 0..12 {
            if i % 2 == 0 {
                requests.push(Request::to_app(counter));
            } else {
                requests.push(
                    Request::to_app(doubler).with_args(vec![WasmValue::I32(i)]),
                );
            }
        }
        let results = server.run(requests);
        assert_eq!(results.len(), 12);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.request_id, i, "results in request order");
            if i % 2 == 0 {
                assert_eq!(
                    r.status,
                    RequestStatus::Ok(vec![WasmValue::I32(1)]),
                    "every counter request sees pristine memory (request {i})"
                );
            } else {
                assert_eq!(
                    r.status,
                    RequestStatus::Ok(vec![WasmValue::I32(2 * i as i32)]),
                    "doubler request {i}"
                );
            }
            assert!(r.exec_cycles > 0, "simulated cycles recorded");
            assert_eq!(r.worker, i % 3, "request {i} is dealt to worker id % workers");
        }
        // Pool accounting: every checkout was either warm or cold.
        let stats = server.apps[counter].pool.stats();
        assert_eq!(stats.warm_checkouts + stats.cold_checkouts, 6);
        assert!(stats.warm_checkouts >= 1, "the parked first instance was reused");
        // Cache accounting: one miss per app's first instantiation; every
        // cold fallback checkout afterwards hit.
        let cache = server
            .engine
            .code_cache()
            .expect("the server attaches one")
            .stats();
        assert_eq!(cache.entries, 2);
        assert_eq!(cache.misses, 2);
        let cold_fallbacks: u64 = server
            .apps
            .iter()
            .map(|a| a.pool.stats().cold_checkouts)
            .sum();
        assert_eq!(cache.hits, cold_fallbacks);

        // A batch smaller than the worker count leaves one worker an empty
        // share; the deal is still `id % workers`.
        let results = server.run(vec![Request::to_app(counter), Request::to_app(counter)]);
        assert_eq!(results.len(), 2);
        for (i, r) in results.iter().enumerate() {
            assert_eq!((r.request_id, r.worker), (i, i));
            assert_eq!(r.status, RequestStatus::Ok(vec![WasmValue::I32(1)]));
        }
    }

    #[test]
    fn worker_rings_are_reused_across_batches() {
        let telemetry = Telemetry::enabled();
        let mut server = Server::new(
            ServerConfig {
                workers: 2,
                telemetry: telemetry.clone(),
                ..ServerConfig::default()
            },
            EngineConfig::default(),
        );
        let counter = server.register_app("counter", "main", counter_module()).unwrap();
        for _ in 0..50 {
            let results = server.run((0..8).map(|_| Request::to_app(counter)).collect());
            assert!(results.iter().all(|r| r.status.is_ok()));
        }
        // The calling thread's ring plus one per worker, however many times
        // the workers were respawned — and every request's events are there.
        let rings = telemetry.drain();
        assert!(rings.len() <= 3, "{} rings after 50 batches of 2 workers", rings.len());
        let count = |wanted: fn(&EventKind) -> bool| {
            rings.iter().flat_map(|(_, events, _)| events).filter(|e| wanted(&e.kind)).count()
        };
        assert_eq!(count(|k| matches!(k, EventKind::ServeEnqueue { .. })), 400);
        assert_eq!(count(|k| matches!(k, EventKind::ServeFinish { .. })), 400);
        assert_eq!(count(|k| matches!(k, EventKind::PoolCheckout { .. })), 400);
        assert_eq!(telemetry.dropped_events(), 0);
        for w in 0..2 {
            let label = format!("serve-worker-{w}");
            assert!(rings.iter().any(|(name, _, _)| *name == label), "no ring named {label}");
        }
    }

    #[test]
    fn unknown_apps_are_rejected_not_panicked() {
        let server = Server::new(ServerConfig::default(), EngineConfig::default());
        let results = server.run(vec![Request::to_app(7)]);
        assert_eq!(results.len(), 1);
        assert!(
            matches!(&results[0].status, RequestStatus::Rejected(m) if m.contains("unknown app")),
            "got {:?}",
            results[0].status
        );
        assert!(!results[0].status.is_ok());
    }

    #[test]
    fn an_empty_batch_is_fine() {
        let mut server = Server::new(ServerConfig::default(), EngineConfig::default());
        server.register_app("counter", "main", counter_module()).unwrap();
        assert!(server.run(Vec::new()).is_empty());
        assert_eq!(
            server.timeouts.ticks_for(Duration::from_secs(1)),
            1000,
            "the default tick is 1 ms"
        );
    }

    #[test]
    fn deadlines_are_armed_at_the_ticker_granularity() {
        for configured in [Duration::from_micros(10), Duration::ZERO] {
            let server = Server::new(
                ServerConfig {
                    epoch_granularity: configured,
                    ..ServerConfig::default()
                },
                EngineConfig::default(),
            );
            assert_eq!(
                server.timeouts.ticks_for(Duration::from_millis(1)),
                10,
                "a 1 ms budget is ten 100 µs ticks (configured {configured:?})"
            );
        }
    }
}
