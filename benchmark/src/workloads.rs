//! The seven workloads. Each is a closed loop driven by the calling thread:
//! the next op starts when the previous one has returned.
//!
//! A workload is built from the seed (its *fixture*: generated inputs,
//! references, warm pools and caches — what `setup_s` times) and then asked
//! for repetitions. A repetition runs every input once, times each op from
//! outside, and checks each result against a reference that does not come
//! from the code being timed.

use crate::corpus::{self, CorpusModule};
use crate::expected;
use crate::rng::Rng;
use crate::sut::{self, Engine, InstancePool, Module, Outcome, Scale, Server};
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Latency of each op, ns.
    pub op_ns: Vec<u64>,
    /// Wall-clock of the whole batch, ns, where the ops were sent as one
    /// batch and their latencies are the server's own; `None` where the
    /// client timed each op itself.
    pub batch_ns: Option<u64>,
    /// Ops that errored, trapped, were rejected or returned a wrong value.
    pub failed: u64,
    /// Simulated cycles of every call made, checked or timed.
    pub sim_cycles: u64,
    /// Fingerprint of the machine code compiled during the repetition (0
    /// where none is).
    pub code_fingerprint: u64,
}

impl Rep {
    /// Records one op and whether `got` is what the reference says.
    fn record(&mut self, ns: u64, input: &str, got: &Outcome, expected: &Outcome) {
        self.op_ns.push(ns);
        self.check(input, got, expected);
    }

    /// Counts a result that differs from its reference as a failed op, and
    /// says which input it was (the first few times).
    fn check(&mut self, input: &str, got: &Outcome, expected: &Outcome) {
        if got != expected {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED {input}: got {got:?}, expected {expected:?}");
            }
        }
    }

    /// Time the client spent on the ops, ns: the batch wall-clock, or the
    /// sum of the op latencies. Excludes reference checks and pool checkouts
    /// that are not part of an op.
    pub fn busy_ns(&self) -> u64 {
        self.batch_ns.unwrap_or_else(|| self.op_ns.iter().sum())
    }

    /// Ops per second of client time.
    pub fn ops_per_s(&self) -> f64 {
        self.op_ns.len() as f64 / (self.busy_ns() as f64 / 1e9)
    }

    fn fold_code(&mut self, (bytes, hash): (u64, u64)) {
        self.code_fingerprint = self.code_fingerprint.rotate_left(7) ^ bytes ^ hash;
    }
}

/// A built workload.
pub trait Workload {
    /// Runs every input once. Spans go to `tracer`; a disabled tracer makes
    /// this the end-to-end measurement.
    fn rep(&mut self, tracer: &mut Tracer) -> Rep;
}

/// Builds the fixture of workload `name` for `seed`.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "load-baseline" => Box::new(Load::new(seed, sut::baseline_x64(1))),
        "load-opt-par" => Box::new(Load::new(seed, sut::optimizing(2))),
        "coldstart-cached" => Box::new(Coldstart::new(seed)),
        "exec-interp" => Box::new(Exec::new(seed, Scale::Test, vec![sut::interpreter()])),
        "exec-jit" => Box::new(Exec::new(
            seed,
            Scale::Default,
            vec![sut::baseline(), sut::optimizing(1)],
        )),
        "tiered-run" => Box::new(Tiered::new(seed)),
        "serve-warm" => Box::new(Serve::new(seed, 1, sut::Telemetry::disabled())),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

// Streams of the seed, one per use.
const ORDER_STREAM: u64 = 1;

fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    Rng::new(seed, ORDER_STREAM).shuffle(&mut items);
    items
}

/// The interpreter's result of `entry` on a fresh instance of each module:
/// the reference for generated modules, computed without any compiler.
fn interpreter_reference(modules: &[Module], entry: &str) -> Vec<Outcome> {
    let engine = sut::engine(sut::interpreter());
    modules
        .iter()
        .map(|module| {
            let mut instance = sut::instantiate(&engine, module)?;
            sut::call_i32(&engine, &mut instance, entry)
        })
        .collect()
}

fn decode_all(corpus: &[CorpusModule]) -> Vec<Module> {
    corpus
        .iter()
        .map(|m| sut::decode(&m.bytes).expect("generated modules decode"))
        .collect()
}

// ---- load-baseline, load-opt-par --------------------------------------------

/// op = `decode(bytes)` + `Engine::instantiate` of one corpus module.
struct Load {
    engine: Engine,
    corpus: Vec<(CorpusModule, Outcome)>,
}

impl Load {
    fn new(seed: u64, config: sut::EngineConfig) -> Load {
        let corpus = corpus::generate(seed);
        let reference = interpreter_reference(&decode_all(&corpus), corpus::CHECK);
        Load {
            engine: sut::engine(config),
            corpus: shuffled(corpus.into_iter().zip(reference).collect(), seed),
        }
    }
}

impl Workload for Load {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        for (module, expected) in &self.corpus {
            tracer.next_op();
            let op = tracer.begin("op.load");
            let start = Instant::now();
            let decoded = tracer.span("wasm.decode", || sut::decode(&module.bytes));
            let instance = tracer.span("engine.instantiate", || {
                decoded.and_then(|m| sut::instantiate(&self.engine, &m))
            });
            let ns = start.elapsed().as_nanos() as u64;
            tracer.end(op);
            // Off the clock: `check` calls every function, so its result
            // vouches for all the code the op just compiled.
            let got = instance.and_then(|mut instance| {
                let got = tracer.span("check.call", || {
                    sut::call_i32(&self.engine, &mut instance, corpus::CHECK)
                });
                rep.sim_cycles += sut::exec_cycles(&instance);
                rep.fold_code(sut::code_fingerprint(&instance));
                got
            });
            rep.record(ns, &module.name, &got, expected);
        }
        rep
    }
}

// ---- coldstart-cached ---------------------------------------------------------

/// op = `Engine::instantiate` against a warm code cache + one `main` call.
struct Coldstart {
    engine: Engine,
    modules: Vec<(String, Module, Outcome)>,
}

/// Passes over the 24 modules in one repetition: 1008 ops, so the p99 of a
/// repetition has ten samples beyond it.
const COLDSTART_PASSES: usize = 42;

impl Coldstart {
    fn new(seed: u64) -> Coldstart {
        let corpus = corpus::generate(seed);
        let modules = decode_all(&corpus);
        let reference = interpreter_reference(&modules, corpus::MAIN);
        let engine = sut::cached_engine(sut::baseline(), &sut::code_cache());
        for module in &modules {
            sut::instantiate(&engine, module).expect("generated modules instantiate");
        }
        let named = corpus
            .into_iter()
            .zip(modules)
            .zip(reference)
            .map(|((c, m), r)| (c.name, m, r))
            .collect();
        Coldstart {
            engine,
            modules: shuffled(named, seed),
        }
    }
}

impl Workload for Coldstart {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        for _ in 0..COLDSTART_PASSES {
            for (name, module, expected) in &self.modules {
                tracer.next_op();
                let op = tracer.begin("op.coldstart");
                let start = Instant::now();
                let instance = tracer.span("engine.instantiate", || {
                    sut::instantiate(&self.engine, module)
                });
                let got = instance.and_then(|mut instance| {
                    let got = tracer.span("engine.call", || {
                        sut::call_i32(&self.engine, &mut instance, corpus::MAIN)
                    });
                    rep.sim_cycles += sut::exec_cycles(&instance);
                    // A miss would mean the op compiled: not this workload.
                    if sut::was_cache_hit(&instance) {
                        got
                    } else {
                        Err("cache miss".into())
                    }
                });
                let ns = start.elapsed().as_nanos() as u64;
                tracer.end(op);
                rep.record(ns, name, &got, expected);
            }
        }
        rep
    }
}

// ---- exec-interp, exec-jit ----------------------------------------------------

/// op = `call_export("main")` of one suite item on an instance checked out
/// of a warm pool (the checkout is off the clock).
struct Exec {
    /// One pass per engine configuration; each pass runs every item.
    passes: Vec<Vec<(String, Arc<InstancePool>, Outcome)>>,
}

impl Exec {
    fn new(seed: u64, scale: Scale, configs: Vec<sut::EngineConfig>) -> Exec {
        let items = shuffled(expected::items(scale), seed);
        let passes = configs
            .into_iter()
            .map(|config| {
                let engine = sut::engine(config);
                items
                    .iter()
                    .map(|(item, outcome)| {
                        let pool = sut::pool(engine.clone(), &item.module)
                            .expect("suite items instantiate");
                        (item.name.clone(), pool, outcome.clone())
                    })
                    .collect()
            })
            .collect();
        Exec { passes }
    }
}

impl Workload for Exec {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        for pass in &self.passes {
            for (name, pool, expected) in pass {
                tracer.next_op();
                let mut instance = tracer.span("engine.pool.checkout", || sut::checkout(pool));
                let op = tracer.begin("op.exec");
                let start = Instant::now();
                let got = sut::call_i32(sut::pool_engine(pool), &mut instance, sut::ENTRY);
                let ns = start.elapsed().as_nanos() as u64;
                tracer.end(op);
                rep.record(ns, name, &got, expected);
                rep.sim_cycles += sut::exec_cycles(&instance);
            }
        }
        rep
    }
}

// ---- tiered-run ---------------------------------------------------------------

/// op = cold `instantiate` + `main` of one default-scale item under
/// three-tier execution with OSR. No background compiler: compiles happen
/// on the calling thread, which puts them on the clock and makes the cycle
/// count repeat exactly.
struct Tiered {
    engine: Engine,
    items: Vec<(sut::Item, Outcome)>,
}

impl Tiered {
    fn new(seed: u64) -> Tiered {
        Tiered {
            engine: sut::engine(sut::tiered()),
            items: shuffled(expected::items(Scale::Default), seed),
        }
    }
}

impl Workload for Tiered {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        for (item, expected) in &self.items {
            tracer.next_op();
            let op = tracer.begin("op.tiered");
            let start = Instant::now();
            let instance = tracer.span("engine.instantiate", || {
                sut::instantiate(&self.engine, &item.module)
            });
            let got = instance.and_then(|mut instance| {
                let got = tracer.span("engine.call", || {
                    sut::call_i32(&self.engine, &mut instance, sut::ENTRY)
                });
                rep.sim_cycles += sut::exec_cycles(&instance);
                rep.fold_code(sut::code_fingerprint(&instance));
                got
            });
            let ns = start.elapsed().as_nanos() as u64;
            tracer.end(op);
            rep.record(ns, &item.name, &got, expected);
        }
        rep
    }
}

// ---- serve-warm ---------------------------------------------------------------

/// Requests per app in one batch.
pub const REQUESTS_PER_APP: usize = 14;

/// op = one request to a `serve::Server` hosting the 78 test-scale items.
/// Latency per request is the server's own `service_wall` (checkout + call);
/// throughput is requests over the wall-clock of `Server::run`, which also
/// holds what the server adds around them.
pub struct Serve {
    server: Server,
    expected: Vec<Outcome>,
    names: Vec<String>,
    /// App index of each request of a batch, in send order.
    order: Vec<usize>,
    /// With one worker a request can never find its app's pool empty, so a
    /// cold checkout is a failure; with more it is expected now and then.
    cold_is_failure: bool,
}

impl Serve {
    /// A server with `workers` workers and every item registered (one cold
    /// instantiation each, so every pool is warm from the first request).
    pub fn new(seed: u64, workers: usize, telemetry: sut::Telemetry) -> Serve {
        let mut server = sut::server(workers, sut::metered(), telemetry);
        let (mut expected, mut names) = (Vec::new(), Vec::new());
        for (item, outcome) in expected::items(Scale::Test) {
            sut::register_app(&mut server, &item.name, item.module).expect("suite items register");
            expected.push(outcome);
            names.push(item.name);
        }
        let order = (0..REQUESTS_PER_APP)
            .flat_map(|_| 0..expected.len())
            .collect();
        Serve {
            server,
            expected,
            names,
            order: shuffled(order, seed),
            cold_is_failure: workers == 1,
        }
    }

    /// The registered app names, by app index.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Sends one batch; returns the repetition and the raw results.
    pub fn batch(&mut self, tracer: &mut Tracer) -> (Rep, Vec<sut::RequestResult>) {
        let mut rep = Rep::default();
        let requests: Vec<_> = self.order.iter().map(|&app| sut::request(app)).collect();
        tracer.next_op();
        let start = Instant::now();
        let results = tracer.span("serve.run", || sut::run_batch(&self.server, requests));
        rep.batch_ns = Some(start.elapsed().as_nanos() as u64);
        for result in &results {
            let served = sut::served(result);
            rep.op_ns.push(served.latency.as_nanos() as u64);
            let cold = self.cold_is_failure && !served.warm;
            let got = if cold {
                Err("cold checkout".into())
            } else {
                served.outcome
            };
            rep.check(&self.names[served.app], &got, &self.expected[served.app]);
            rep.sim_cycles += served.cycles;
        }
        rep.failed += (self.order.len() - results.len()) as u64;
        (rep, results)
    }
}

impl Workload for Serve {
    fn rep(&mut self, tracer: &mut Tracer) -> Rep {
        self.batch(tracer).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workloads_are_refused() {
        assert!(build("no-such-workload", 1).is_err());
    }

    #[test]
    fn a_repetition_of_each_workload_succeeds_and_repeats_its_counts() {
        for spec in &crate::metrics::WORKLOADS {
            let mut workload = build(spec.name, 3).expect("builds");
            let mut tracer = Tracer::disabled();
            let first = workload.rep(&mut tracer);
            let second = workload.rep(&mut tracer);
            assert!(!first.op_ns.is_empty(), "{}", spec.name);
            assert_eq!(first.failed, 0, "{}", spec.name);
            assert!(first.sim_cycles > 0, "{}", spec.name);
            assert_eq!(first.sim_cycles, second.sim_cycles, "{}", spec.name);
            assert_eq!(
                first.code_fingerprint, second.code_fingerprint,
                "{}",
                spec.name
            );
            assert_eq!(first.op_ns.len(), second.op_ns.len(), "{}", spec.name);
        }
    }

    #[test]
    fn suite_workload_cycles_do_not_depend_on_the_seed() {
        let cycles = |seed| {
            build("exec-interp", seed)
                .unwrap()
                .rep(&mut Tracer::disabled())
                .sim_cycles
        };
        assert_eq!(cycles(1), cycles(2));
    }

    #[test]
    fn tracing_a_repetition_records_a_span_per_layer_call() {
        let mut workload = build("coldstart-cached", 1).expect("builds");
        let mut tracer = Tracer::enabled();
        let rep = workload.rep(&mut tracer);
        let totals = tracer.totals(0);
        let ops = rep.op_ns.len() as u64;
        assert_eq!(totals["op.coldstart"].count, ops);
        assert_eq!(totals["engine.instantiate"].count, ops);
        assert_eq!(totals["engine.call"].count, ops);
        assert!(totals["op.coldstart"].self_ns < totals["op.coldstart"].total_ns);
    }
}
