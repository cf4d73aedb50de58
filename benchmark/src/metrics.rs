//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! and per-layer metrics. `BENCHMARK.json` at the repository root says the
//! same thing to the driver; a test below holds the two together.

use crate::stats::Better;

/// `run_seconds` of `BENCHMARK.json`: what the driver passes as `--seconds`.
/// Long enough that a run all but always sees the host at full speed for a
/// second or two (it slows by 20–60% for up to ten seconds at a time).
pub const RUN_SECONDS: u32 = 16;

/// `--seconds` when a person does not give it: every workload in ~90 s.
pub const DEFAULT_SECONDS: u32 = 10;

/// One workload and the reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "load-baseline",
        why: "decode + instantiate of 1.5 MiB of generated Wasm, baseline tier with x86-64 emission, 1 worker, no cache: compile speed where fixed costs vanish; runs no compiled code on the clock",
    },
    WorkloadSpec {
        name: "load-opt-par",
        why: "same op under the optimizing tier on 2 compile workers: optc does ~11x the work per byte and the threaded eager-compile path is live",
    },
    WorkloadSpec {
        name: "coldstart-cached",
        why: "instantiate against a warm shared code cache plus one cheap call: cache key, memory image and instance allocation only; bypasses every compiler",
    },
    WorkloadSpec {
        name: "exec-interp",
        why: "main of the 78 suite items at test scale in the interpreter on pooled instances: the dispatch loop does all the work, the CPU simulator none",
    },
    WorkloadSpec {
        name: "exec-jit",
        why: "main of the 78 items at default scale on eagerly compiled code, baseline pass then optimizing pass: the simulator loop does all the work, the interpreter none; code quality shows in sim_cycles",
    },
    WorkloadSpec {
        name: "tiered-run",
        why: "cold instantiate + main per default-scale item under interpreter->baseline->optimizing tiering with OSR and synchronous compiles: the only workload with tier-up machinery on the clock",
    },
    WorkloadSpec {
        name: "serve-warm",
        why: "1092 short requests per batch over 78 metered apps on a 1-worker server with fuel and deadlines armed: pool reset, call entry, queue hand-off and access log carry weight that long loops hide",
    },
];

/// An end-to-end metric: what a user of the system pays.
pub struct EndToEndSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may get worse.
    pub bound: f64,
    /// `--compare` demands equality instead of applying `bound`: the value
    /// is a count the program makes, identical for equal seeds.
    pub exact: bool,
}

pub const END_TO_END: [EndToEndSpec; 6] = [
    EndToEndSpec {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        exact: false,
    },
    EndToEndSpec {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
        exact: false,
    },
    EndToEndSpec {
        name: "op_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEndSpec {
        name: "sim_cycles",
        unit: "cycles",
        better: Better::Lower,
        bound: 0.02,
        exact: true,
    },
    EndToEndSpec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEndSpec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
];

/// A per-layer metric of the traced run. No bound: it explains, it does not
/// gate.
pub struct LayerSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerSpec {
    LayerSpec { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [LayerSpec; 52] = [
    layer("wasm.decode.ns_per_byte", "ns/B", Lower),
    layer("wasm.validate.ns_per_byte", "ns/B", Lower),
    layer("wasm.fuel_plan.ns_per_byte", "ns/B", Lower),
    layer("wasm.module_clone.ns_per_byte", "ns/B", Lower),
    layer("wasm.content_hash.ns_per_byte", "ns/B", Lower),
    layer("wasm.bytes", "B", Higher),
    layer("wasm.funcs", "count", Higher),
    layer("interp.sidetable.ns_per_byte", "ns/B", Lower),
    layer("interp.prepare.ns_per_byte", "ns/B", Lower),
    layer("interp.dispatch.ns_per_kcycle", "ns/kcycle", Lower),
    layer("interp.cycles", "cycles", Lower),
    layer("spc.compile.ns_per_byte", "ns/B", Lower),
    layer("spc.compile_x64.ns_per_byte", "ns/B", Lower),
    layer("spc.code_bytes_per_wasm_byte", "B/B", Lower),
    layer("spc.cycles", "cycles", Lower),
    layer("optc.compile.ns_per_byte", "ns/B", Lower),
    layer("optc.code_bytes_per_wasm_byte", "B/B", Lower),
    layer("optc.cycles", "cycles", Lower),
    layer("optc.cycles_over_spc", "ratio", Lower),
    layer("machine.x64_emit.ns_per_byte", "ns/B", Lower),
    layer("machine.sim.ns_per_kcycle.spc", "ns/kcycle", Lower),
    layer("machine.sim.ns_per_kcycle.opt", "ns/kcycle", Lower),
    layer("machine.sim.cycles_per_us", "cycles/us", Higher),
    layer("engine.load.mb_per_s.spc", "MB/s", Higher),
    layer("engine.load.mb_per_s.opt", "MB/s", Higher),
    layer("engine.compile_eager.speedup_2w.spc", "ratio", Higher),
    layer("engine.compile_eager.speedup_2w.opt", "ratio", Higher),
    layer("engine.cache_key.us", "us", Lower),
    layer("engine.cache.hit_share", "ratio", Higher),
    layer("engine.image_build.us", "us", Lower),
    layer("engine.instantiate.cold_us", "us", Lower),
    layer("engine.instantiate.cache_warm_us", "us", Lower),
    layer("engine.instantiate.accounted_share", "ratio", Higher),
    layer("engine.pool.checkout_warm_us", "us", Lower),
    layer("engine.pool.warm_share", "ratio", Higher),
    layer("engine.call.fixed_us", "us", Lower),
    layer("engine.tierup.count", "count", Lower),
    layer("engine.osr.count", "count", Lower),
    layer("engine.tierup.compile_ms", "ms", Lower),
    layer("serve.overhead_us", "us", Lower),
    layer("serve.access_log.render_us", "us", Lower),
    layer("serve.scale_2w", "ratio", Higher),
    layer("serve.request_p99_us", "us", Lower),
    layer("serve.requests", "count", Higher),
    layer("serve.trapped", "count", Lower),
    layer("serve.rejected", "count", Lower),
    layer("telemetry.on_over_off", "ratio", Higher),
    layer("telemetry.emit_ns", "ns", Lower),
    layer("host.cpu_s", "s", Lower),
    layer("host.runqueue_wait_s", "s", Lower),
    layer("host.nonvoluntary_ctxt_switches", "count", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// The end-to-end spec named `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEndSpec> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn spelled(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_follow_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(END_TO_END
            .iter()
            .all(|m| unit_ok(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    /// `BENCHMARK.json` is what the driver reads; it must say what this file
    /// says.
    #[test]
    fn benchmark_json_matches_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        assert!(text.len() <= 64 << 10);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(f64::from(RUN_SECONDS))
        );

        let list = |key: &str| doc.get(key).and_then(Value::as_arr).unwrap().to_vec();
        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Value::as_f64).unwrap();
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    bound,
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    spelled(m.better).into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, expected);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), spelled(m.better).into()))
            .collect();
        assert_eq!(layers, expected);
    }
}
