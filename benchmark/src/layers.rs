//! The layer profile of the traced run: every per-layer metric, from spans
//! around calls into each crate's public functions.
//!
//! Where an end-to-end op is one opaque call (`Engine::instantiate`), the
//! profile performs the stages by hand — decode, validate, prepare per
//! function, compile per function per tier and backend, image build — so
//! each has a span, and reports how much of the opaque call the stages
//! account for. The profile is the same whichever workload is being traced;
//! only `trace.overhead_share` belongs to the workload.

use crate::corpus;
use crate::expected;
use crate::sut::{self, CompileTier, Outcome, Scale};
use crate::trace::{Total, Tracer};
use crate::workloads::{Rep, Serve};
use std::collections::BTreeMap;
use std::time::Duration;

/// Metric values of one round, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Everything the profile needs that does not change between rounds.
pub struct Inputs {
    seed: u64,
    corpus: Vec<corpus::CorpusModule>,
    test_items: Vec<(sut::Item, Outcome)>,
    default_items: Vec<(sut::Item, Outcome)>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        Inputs {
            seed,
            corpus: corpus::generate(seed),
            test_items: expected::items(Scale::Test),
            default_items: expected::items(Scale::Default),
        }
    }
}

/// Ops attempted and failed while profiling: every result is checked here
/// too.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
}

impl Checked {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add_rep(&mut self, rep: &Rep) {
        self.attempted += rep.op_ns.len() as u64;
        self.failed += rep.failed;
    }
}

fn ns(totals: &BTreeMap<&'static str, Total>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64)
}

fn mean_us(totals: &BTreeMap<&'static str, Total>, name: &str) -> f64 {
    totals
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64 / 1000.0)
}

/// One round: every layer measured once. Spans are appended to `tracer`.
pub fn round(inputs: &Inputs, tracer: &mut Tracer, checked: &mut Checked) -> Values {
    let mut values = Values::new();
    compile_side(inputs, tracer, checked, &mut values);
    execution_side(inputs, tracer, checked, &mut values);
    serving_side(inputs, tracer, checked, &mut values);
    values
}

/// Folds a round into the best-so-far values: times keep their minimum and
/// rates their maximum, the same best-of rule as the end-to-end metrics.
pub fn fold_best(best: &mut Values, round: Values) {
    for (name, value) in round {
        let better = crate::metrics::PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
            .better;
        best.entry(name)
            .and_modify(|b| *b = crate::stats::best(&[*b, value], better))
            .or_insert(value);
    }
}

// ---- wasm, interp, spc, optc, machine (emission), engine (load) ---------------

fn compile_side(inputs: &Inputs, tracer: &mut Tracer, checked: &mut Checked, values: &mut Values) {
    let from = tracer.len();
    let spc = sut::baseline();
    let spc_x64 = sut::baseline_x64(1);
    let opt = sut::optimizing(1);
    let engines = [
        ("engine.instantiate.cold", sut::engine(sut::baseline_x64(1))),
        (
            "engine.instantiate.spc_2w",
            sut::engine(sut::baseline_x64(2)),
        ),
        ("engine.instantiate.opt_1w", sut::engine(sut::optimizing(1))),
        ("engine.instantiate.opt_2w", sut::engine(sut::optimizing(2))),
    ];
    let cache = sut::code_cache();
    let cached = sut::cached_engine(sut::baseline(), &cache);

    let (mut bytes, mut code_bytes, mut funcs) = (0usize, 0usize, 0u32);
    let (mut spc_machine_bytes, mut opt_machine_bytes) = (0u64, 0u64);
    for m in &inputs.corpus {
        tracer.next_op();
        bytes += m.bytes.len();
        let module = tracer
            .span("wasm.decode", || sut::decode(&m.bytes))
            .expect("generated modules decode");
        let info = tracer
            .span("wasm.validate", || sut::validate(&module))
            .expect("generated modules validate");
        std::hint::black_box(tracer.span("wasm.fuel_plan", || sut::fuel_plans(&module)));
        let clone = tracer.span("wasm.module_clone", || module.clone());
        drop(clone);
        std::hint::black_box(tracer.span("wasm.content_hash", || sut::content_hash(&module)));
        std::hint::black_box(tracer.span("engine.cache_key", || sut::cache_key(&spc, &module)));
        std::hint::black_box(tracer.span("engine.image_build", || sut::build_image(&spc, &module)));
        code_bytes += sut::code_bytes(&module);
        funcs += sut::num_defined(&module);
        for defined in 0..sut::num_defined(&module) {
            std::hint::black_box(tracer.span("interp.sidetable", || {
                sut::build_sidetable(&module, defined)
            }));
            std::hint::black_box(
                tracer.span("interp.prepare", || sut::prepare(&module, &info, defined)),
            );
            std::hint::black_box(tracer.span("spc.compile", || {
                sut::compile_function(&spc, CompileTier::Baseline, &module, &info, defined)
            }));
            spc_machine_bytes += tracer
                .span("spc.compile_x64", || {
                    sut::compile_function(&spc_x64, CompileTier::Baseline, &module, &info, defined)
                })
                .machine_bytes;
            opt_machine_bytes += tracer
                .span("optc.compile", || {
                    sut::compile_function(&opt, CompileTier::Opt, &module, &info, defined)
                })
                .machine_bytes;
        }
        for (span, engine) in &engines {
            checked.check(
                tracer
                    .span(span, || sut::instantiate(engine, &module))
                    .is_ok(),
            );
        }
        // First instantiation fills the cache off the clock; the second is
        // the warm one.
        sut::instantiate(&cached, &module).expect("generated modules instantiate");
        let warm = tracer.span("engine.instantiate.cache_warm", || {
            sut::instantiate(&cached, &module)
        });
        checked.check(warm.is_ok_and(|instance| sut::was_cache_hit(&instance)));
    }

    let totals = tracer.totals(from);
    let per_byte = |name: &str| ns(&totals, name) / bytes as f64;
    let modules = inputs.corpus.len() as u64;
    values.insert("wasm.bytes", bytes as f64);
    values.insert("wasm.funcs", f64::from(funcs));
    values.insert("wasm.decode.ns_per_byte", per_byte("wasm.decode"));
    values.insert("wasm.validate.ns_per_byte", per_byte("wasm.validate"));
    values.insert("wasm.fuel_plan.ns_per_byte", per_byte("wasm.fuel_plan"));
    values.insert(
        "wasm.module_clone.ns_per_byte",
        per_byte("wasm.module_clone"),
    );
    values.insert(
        "wasm.content_hash.ns_per_byte",
        per_byte("wasm.content_hash"),
    );
    values.insert("interp.sidetable.ns_per_byte", per_byte("interp.sidetable"));
    values.insert("interp.prepare.ns_per_byte", per_byte("interp.prepare"));
    values.insert("spc.compile.ns_per_byte", per_byte("spc.compile"));
    values.insert("spc.compile_x64.ns_per_byte", per_byte("spc.compile_x64"));
    values.insert("optc.compile.ns_per_byte", per_byte("optc.compile"));
    values.insert(
        "machine.x64_emit.ns_per_byte",
        per_byte("spc.compile_x64") - per_byte("spc.compile"),
    );
    values.insert(
        "spc.code_bytes_per_wasm_byte",
        spc_machine_bytes as f64 / code_bytes as f64,
    );
    values.insert(
        "optc.code_bytes_per_wasm_byte",
        opt_machine_bytes as f64 / code_bytes as f64,
    );
    values.insert("engine.cache_key.us", mean_us(&totals, "engine.cache_key"));
    values.insert(
        "engine.image_build.us",
        mean_us(&totals, "engine.image_build"),
    );
    values.insert(
        "engine.instantiate.cold_us",
        mean_us(&totals, "engine.instantiate.cold"),
    );
    values.insert(
        "engine.instantiate.cache_warm_us",
        mean_us(&totals, "engine.instantiate.cache_warm"),
    );
    // What `instantiate` does on a cold miss, stage by stage: clone the
    // module, validate, prepare every function, compile every function,
    // build the memory image.
    let by_hand = [
        "wasm.module_clone",
        "wasm.validate",
        "interp.prepare",
        "spc.compile_x64",
        "engine.image_build",
    ]
    .iter()
    .map(|name| ns(&totals, name))
    .sum::<f64>();
    values.insert(
        "engine.instantiate.accounted_share",
        by_hand / ns(&totals, "engine.instantiate.cold"),
    );
    let mb_per_s = |instantiate: &str| {
        bytes as f64 / 1e6 / ((ns(&totals, "wasm.decode") + ns(&totals, instantiate)) / 1e9)
    };
    values.insert(
        "engine.load.mb_per_s.spc",
        mb_per_s("engine.instantiate.cold"),
    );
    values.insert(
        "engine.load.mb_per_s.opt",
        mb_per_s("engine.instantiate.opt_2w"),
    );
    values.insert(
        "engine.compile_eager.speedup_2w.spc",
        ns(&totals, "engine.instantiate.cold") / ns(&totals, "engine.instantiate.spc_2w"),
    );
    values.insert(
        "engine.compile_eager.speedup_2w.opt",
        ns(&totals, "engine.instantiate.opt_1w") / ns(&totals, "engine.instantiate.opt_2w"),
    );
    // Every lookup but the one that filled the cache must hit.
    let (hits, misses) = sut::cache_counts(&cache);
    values.insert(
        "engine.cache.hit_share",
        hits as f64 / (hits + misses - modules).max(1) as f64,
    );
}

// ---- interp (dispatch), machine (simulator), engine (pool, call, tier-up) -----

/// Runs `main` of every item on pooled instances under `config`; returns the
/// cycles executed. Spans: `engine.pool.checkout`, and `call_span` per call.
fn pooled_pass(
    items: &[(sut::Item, Outcome)],
    config: sut::EngineConfig,
    call_span: &'static str,
    tracer: &mut Tracer,
    checked: &mut Checked,
    checkouts: &mut (u64, u64),
) -> u64 {
    let engine = sut::engine(config);
    let mut cycles = 0;
    for (item, expected) in items {
        tracer.next_op();
        let pool = sut::pool(engine.clone(), &item.module).expect("suite items instantiate");
        let mut instance = tracer.span("engine.pool.checkout", || sut::checkout(&pool));
        let got = tracer.span(call_span, || {
            sut::call_i32(&engine, &mut instance, sut::ENTRY)
        });
        checked.check(got == *expected);
        cycles += sut::exec_cycles(&instance);
        drop(instance);
        let (warm, cold) = sut::pool_checkouts(&pool);
        checkouts.0 += warm;
        checkouts.1 += cold;
    }
    cycles
}

fn execution_side(
    inputs: &Inputs,
    tracer: &mut Tracer,
    checked: &mut Checked,
    values: &mut Values,
) {
    let from = tracer.len();
    let mut checkouts = (0, 0);
    let interp_cycles = pooled_pass(
        &inputs.test_items,
        sut::interpreter(),
        "interp.dispatch",
        tracer,
        checked,
        &mut checkouts,
    );
    let spc_cycles = pooled_pass(
        &inputs.default_items,
        sut::baseline(),
        "machine.sim.spc",
        tracer,
        checked,
        &mut checkouts,
    );
    let opt_cycles = pooled_pass(
        &inputs.default_items,
        sut::optimizing(1),
        "machine.sim.opt",
        tracer,
        checked,
        &mut checkouts,
    );

    // The fixed cost of a call: the paper's Mnop, called many times on one
    // instance.
    const NOP_CALLS: u32 = 2000;
    let engine = sut::engine(sut::baseline());
    let nop = sut::nop_module();
    let mut instance = sut::instantiate(&engine, &nop).expect("the nop module instantiates");
    tracer.span("engine.call.nop", || {
        for _ in 0..NOP_CALLS {
            std::hint::black_box(sut::call_unit(&engine, &mut instance, sut::ENTRY));
        }
    });

    // Tier-up and OSR, counted by an engine whose telemetry is on (telemetry
    // charges no simulated cycles and these are counts, not times).
    let telemetry = sut::Telemetry::enabled();
    let engine = sut::engine_with_telemetry(sut::tiered(), &telemetry);
    let (mut tiered_up, mut tierup_wall) = (0u32, Duration::ZERO);
    for (item, expected) in &inputs.default_items {
        tracer.next_op();
        let got = tracer.span("engine.tiered.op", || {
            sut::instantiate(&engine, &item.module).and_then(|mut instance| {
                let got = sut::call_i32(&engine, &mut instance, sut::ENTRY);
                let (functions, wall) = sut::tierup_stats(&instance);
                tiered_up += functions;
                tierup_wall += wall;
                got
            })
        });
        checked.check(got == *expected);
    }

    let totals = tracer.totals(from);
    let per_kcycle = |name: &str, cycles: u64| ns(&totals, name) / (cycles as f64 / 1000.0);
    values.insert("interp.cycles", interp_cycles as f64);
    values.insert(
        "interp.dispatch.ns_per_kcycle",
        per_kcycle("interp.dispatch", interp_cycles),
    );
    values.insert("spc.cycles", spc_cycles as f64);
    values.insert("optc.cycles", opt_cycles as f64);
    values.insert(
        "optc.cycles_over_spc",
        opt_cycles as f64 / spc_cycles as f64,
    );
    values.insert(
        "machine.sim.ns_per_kcycle.spc",
        per_kcycle("machine.sim.spc", spc_cycles),
    );
    values.insert(
        "machine.sim.ns_per_kcycle.opt",
        per_kcycle("machine.sim.opt", opt_cycles),
    );
    values.insert(
        "machine.sim.cycles_per_us",
        (spc_cycles + opt_cycles) as f64
            / ((ns(&totals, "machine.sim.spc") + ns(&totals, "machine.sim.opt")) / 1000.0),
    );
    values.insert(
        "engine.pool.checkout_warm_us",
        mean_us(&totals, "engine.pool.checkout"),
    );
    values.insert(
        "engine.pool.warm_share",
        checkouts.0 as f64 / (checkouts.0 + checkouts.1).max(1) as f64,
    );
    values.insert(
        "engine.call.fixed_us",
        ns(&totals, "engine.call.nop") / f64::from(NOP_CALLS) / 1000.0,
    );
    values.insert("engine.tierup.count", f64::from(tiered_up));
    values.insert(
        "engine.tierup.compile_ms",
        tierup_wall.as_secs_f64() * 1000.0,
    );
    values.insert(
        "engine.osr.count",
        sut::telemetry_counter(&telemetry, "engine.osr_entries") as f64,
    );
}

// ---- serve, telemetry ---------------------------------------------------------

/// Timed batches per server configuration. Ratios between configurations
/// compare the best batch of each: single batches, taken seconds apart on
/// this host, differ by more than the effects being measured.
const BATCHES: usize = 3;

/// One warm-up batch, then [`BATCHES`] timed ones; returns the timed
/// repetitions, and the results of the first (whose spans go to `tracer`).
fn batches(
    mut serve: Serve,
    tracer: &mut Tracer,
    checked: &mut Checked,
) -> (Vec<Rep>, Vec<sut::RequestResult>, Serve) {
    serve.batch(&mut Tracer::disabled());
    let (first, results) = serve.batch(tracer);
    let mut reps = vec![first];
    reps.extend((1..BATCHES).map(|_| serve.batch(&mut Tracer::disabled()).0));
    for rep in &reps {
        checked.add_rep(rep);
    }
    (reps, results, serve)
}

fn best_rate(reps: &[Rep]) -> f64 {
    reps.iter().map(Rep::ops_per_s).fold(0.0, f64::max)
}

fn serving_side(inputs: &Inputs, tracer: &mut Tracer, checked: &mut Checked, values: &mut Values) {
    let from = tracer.len();
    // One worker, telemetry off: the serve-warm configuration.
    let one = Serve::new(inputs.seed, 1, sut::Telemetry::disabled());
    let (reps_1w, results, one) = batches(one, tracer, checked);
    let latencies_us: Vec<f64> = reps_1w[0]
        .op_ns
        .iter()
        .map(|&ns| ns as f64 / 1000.0)
        .collect();
    let served: Vec<_> = results.iter().map(sut::served).collect();
    let requests = served.len() as f64;
    values.insert("serve.requests", requests);
    values.insert(
        "serve.trapped",
        served.iter().filter(|s| s.trapped).count() as f64,
    );
    values.insert(
        "serve.rejected",
        served.iter().filter(|s| s.rejected).count() as f64,
    );
    values.insert(
        "serve.request_p99_us",
        crate::stats::percentile(&latencies_us, 99.0),
    );
    // With one worker the requests run one after another, so what a batch
    // took beyond the sum of its requests' own service times is what the
    // server adds around them: spawning and joining the worker, the queue
    // hand-off, collecting results, rendering and recording the access log.
    let overhead_ns = reps_1w
        .iter()
        .map(|rep| rep.busy_ns().saturating_sub(rep.op_ns.iter().sum()))
        .min()
        .expect("at least one batch");
    values.insert("serve.overhead_us", overhead_ns as f64 / requests / 1000.0);

    tracer.span("serve.access_log.render", || {
        for (result, served) in results.iter().zip(&served) {
            std::hint::black_box(sut::render_access_log(result, &one.names()[served.app]));
        }
    });
    drop(one);

    let two = Serve::new(inputs.seed, 2, sut::Telemetry::disabled());
    let reps_2w = batches(two, &mut Tracer::disabled(), checked).0;
    // Telemetry on: every engine, pool and the serving layer emit into one
    // sink (a few thousand events per batch; its rings hold 65536 a thread).
    let on = Serve::new(inputs.seed, 1, sut::Telemetry::enabled());
    let reps_on = batches(on, &mut Tracer::disabled(), checked).0;

    const EMITS: u32 = 50_000;
    let sink = sut::Telemetry::enabled();
    tracer.span("telemetry.emit", || {
        for n in 0..EMITS {
            sut::emit_event(&sink, n);
        }
    });

    let totals = tracer.totals(from);
    values.insert(
        "serve.access_log.render_us",
        ns(&totals, "serve.access_log.render") / requests / 1000.0,
    );
    values.insert("serve.scale_2w", best_rate(&reps_2w) / best_rate(&reps_1w));
    values.insert(
        "telemetry.on_over_off",
        best_rate(&reps_on) / best_rate(&reps_1w),
    );
    values.insert(
        "telemetry.emit_ns",
        ns(&totals, "telemetry.emit") / f64::from(EMITS),
    );
}

/// How long one round takes on this host, roughly: callers use it to decide
/// whether another round fits their time budget.
pub const ROUND_ESTIMATE: Duration = Duration::from_secs(8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_keeps_the_best_of_each_direction() {
        let mut best = Values::new();
        fold_best(
            &mut best,
            Values::from([("wasm.decode.ns_per_byte", 2.0), ("serve.scale_2w", 1.2)]),
        );
        fold_best(
            &mut best,
            Values::from([("wasm.decode.ns_per_byte", 1.5), ("serve.scale_2w", 1.1)]),
        );
        assert_eq!(best["wasm.decode.ns_per_byte"], 1.5);
        assert_eq!(best["serve.scale_2w"], 1.2);
    }
}
