//! Deadline enforcement through the serving harness.
//!
//! A request with a wall-clock budget must come back `Interrupted` — not
//! hang, not get killed externally — and it must do so promptly: within the
//! epoch granularity (plus scheduling slack) of its deadline. The mechanism
//! is cooperative (the engine checks the epoch at loop back-edges and call
//! boundaries), so the test drives it across the execution matrix to
//! prove every code path carries the checks. Requests without deadlines, or
//! with generous ones, must be unaffected.

#[path = "common/json.rs"]
mod json;

use json::{parse_json, JsonValue};
use machine::values::WasmValue;
use serve::{Request, RequestStatus, Server, ServerConfig};
use std::time::Duration;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::types::{BlockType, FuncType, ValueType};
use wasm::Module;

/// `main: [] -> [i32]` loops forever (the runaway tenant).
fn spin_module() -> Module {
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.loop_(BlockType::Empty).br(0).end().i32_const(0);
    let f = b.add_func(
        FuncType::new(vec![], vec![ValueType::I32]),
        vec![],
        c.finish(),
    );
    b.export_func("main", f);
    b.finish()
}

/// `main: [] -> [i32]` returns immediately (the well-behaved tenant).
fn quick_module() -> Module {
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.i32_const(11);
    let f = b.add_func(
        FuncType::new(vec![], vec![ValueType::I32]),
        vec![],
        c.finish(),
    );
    b.export_func("main", f);
    b.finish()
}

/// A runaway loop is interrupted within an epoch-granularity bound, in
/// every execution configuration.
#[test]
fn runaway_requests_are_interrupted_within_the_granularity_bound() {
    let granularity = Duration::from_millis(2);
    let deadline = Duration::from_millis(20);
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let mut server = Server::new(
            ServerConfig {
                workers: 1,
                epoch_granularity: granularity,
                ..ServerConfig::default()
            },
            config.with_metering(),
        );
        let spin = server.register_app("spin", "main", spin_module()).unwrap();
        let started = std::time::Instant::now();
        let results = server.run(vec![Request::to_app(spin).with_deadline(deadline)]);
        let elapsed = started.elapsed();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(
            r.status,
            RequestStatus::Trapped(engine::TrapReason::Interrupted),
            "[{name}] a runaway request must be preempted"
        );
        assert!(r.deadline_expired(), "[{name}] the timeout list saw it expire");
        // The overshoot is measured in whole epochs past the deadline and
        // bounded by the enforcement mechanism itself: the engine traps at
        // the first check site after the deadline epoch, so the request
        // retires within one granularity of its deadline plus scheduling
        // slack — never "whenever the loop felt like stopping".
        let overshoot = r
            .deadline_overshoot_epochs
            .unwrap_or_else(|| panic!("[{name}] an interrupted request must record its overshoot"));
        let slack_epochs = (Duration::from_millis(500).as_nanos()
            / granularity.as_nanos().max(1)) as u64;
        assert!(
            overshoot <= 1 + slack_epochs,
            "[{name}] retired {overshoot} epochs past its deadline"
        );
        // Lower bound: the interrupt cannot fire before the armed number of
        // ticks has elapsed... minus one granularity, because the first tick
        // may already be partially spent when the deadline is armed.
        assert!(
            r.service_wall + granularity >= deadline,
            "[{name}] interrupted after {:?}, before the {deadline:?} budget",
            r.service_wall
        );
        // Upper bound: enforcement is granular, not instant — one tick past
        // the deadline plus generous scheduling slack for a loaded CI host.
        // The point is "tens of milliseconds", not "whenever the batch
        // happens to end".
        let slack = Duration::from_millis(500);
        assert!(
            elapsed < deadline + granularity + slack,
            "[{name}] interrupt took {elapsed:?}, way past deadline {deadline:?}"
        );
    }
}

/// Deadlines are per-request isolation, not collective punishment: in a
/// mixed batch the runaway request is interrupted while well-behaved
/// requests (with and without deadlines) complete normally — and the
/// interrupted request's recycled instance serves later requests fine. So
/// does the instance of a request whose arguments have the wrong types: it
/// traps `HostError` at the call boundary and is checked back in.
#[test]
fn mixed_batches_only_interrupt_the_runaway() {
    let mut server = Server::new(
        ServerConfig {
            workers: 2,
            epoch_granularity: Duration::from_millis(2),
            ..ServerConfig::default()
        },
        engine::EngineConfig::baseline("spc", spc::CompilerOptions::allopt()).with_metering(),
    );
    let spin = server.register_app("spin", "main", spin_module()).unwrap();
    let quick = server.register_app("quick", "main", quick_module()).unwrap();
    let inc = wasm::wat::parse_module(
        r#"(module (func (export "main") (param i64) (result i64)
             local.get 0 i64.const 1 i64.add))"#,
    )
    .expect("inc module parses");
    let inc = server.register_app("inc", "main", inc).unwrap();
    let requests = vec![
        Request::to_app(quick).with_deadline(Duration::from_secs(60)),
        Request::to_app(spin).with_deadline(Duration::from_millis(15)),
        Request::to_app(quick),
        // Reuses the instance the interrupted spin checked back in (same
        // app pool), proving an interrupt does not poison the pool.
        Request::to_app(spin).with_deadline(Duration::from_millis(15)),
        Request::to_app(quick).with_deadline(Duration::from_secs(60)),
        // An `i32` for an `i64` parameter. Requests 5 and 7 are dealt to the
        // same worker, so 7 runs after 5 has checked its instance back in.
        Request::to_app(inc).with_args(vec![WasmValue::I32(-1)]),
        Request::to_app(quick),
        Request::to_app(inc).with_args(vec![WasmValue::I64(41)]),
    ];
    let results = server.run(requests.clone());
    assert_eq!(results.len(), 8);
    for (i, expect_ok) in [(0usize, true), (1, false), (2, true), (3, false), (4, true), (6, true)] {
        let r = &results[i];
        if expect_ok {
            assert_eq!(
                r.status,
                RequestStatus::Ok(vec![WasmValue::I32(11)]),
                "request {i}"
            );
            assert!(!r.deadline_expired(), "request {i}");
            assert_eq!(r.deadline_overshoot_epochs, None, "request {i}");
        } else {
            assert_eq!(
                r.status,
                RequestStatus::Trapped(engine::TrapReason::Interrupted),
                "request {i}"
            );
            assert!(r.deadline_expired(), "request {i}");
            assert!(r.deadline_overshoot_epochs.is_some(), "request {i}");
        }
    }
    assert_eq!(
        results[5].status,
        RequestStatus::Trapped(engine::TrapReason::HostError),
        "mistyped arguments never reach the callee's frame"
    );
    assert_eq!(results[7].status, RequestStatus::Ok(vec![WasmValue::I64(42)]));
    assert!(results[7].warm, "the refused request's instance went back to the pool");
    // Of the four deadlined requests, two expired and two retired in time.
    let deadlined = |expired: bool| {
        let requests = requests.iter().zip(&results);
        requests.filter(|(q, r)| q.deadline.is_some() && r.deadline_expired() == expired).count()
    };
    assert_eq!(deadlined(true), 2);
    assert_eq!(deadlined(false), 2, "undeadlined requests are neither");
}

/// A budget too long to count in epoch ticks is no deadline at all: a
/// `Duration::MAX` request on a loop that runs past 5 ms (many 1 ms ticks)
/// retires `Ok`, not `Interrupted`.
#[test]
fn an_unbounded_deadline_never_interrupts() {
    let mut server = Server::new(
        ServerConfig { workers: 1, ..ServerConfig::default() },
        engine::EngineConfig::baseline("spc", spc::CompilerOptions::allopt()).with_metering(),
    );
    let countdown = wasm::wat::parse_module(
        r#"(module (func (export "main") (param i32) (result i32)
             loop local.get 0 i32.const 1 i32.sub local.tee 0 br_if 0 end local.get 0))"#,
    )
    .expect("countdown module parses");
    let countdown = server.register_app("countdown", "main", countdown).unwrap();
    // Longer loops until one request has run 5 ms.
    let mut iterations = 1 << 16;
    loop {
        let request = Request::to_app(countdown)
            .with_args(vec![WasmValue::I32(iterations)])
            .with_deadline(Duration::MAX);
        let r = &server.run(vec![request])[0];
        assert_eq!(
            r.status,
            RequestStatus::Ok(vec![WasmValue::I32(0)]),
            "{iterations} iterations after {:?}",
            r.service_wall
        );
        assert!(!r.deadline_expired());
        if r.service_wall >= Duration::from_millis(5) {
            break;
        }
        assert!(iterations < 1 << 30, "{iterations} iterations ran under 5 ms");
        iterations *= 4;
    }
}

/// Parses one access-log line and checks it against the `serve::access_log`
/// schema.
fn parse_access_log_line(line: &str) -> Result<JsonValue, String> {
    let doc = parse_json(line)?;
    for field in ["request", "app", "worker", "latency_us", "instantiate_us", "exec_cycles"] {
        if doc.get(field).and_then(JsonValue::as_number).is_none() {
            return Err(format!("missing numeric field {field:?}"));
        }
    }
    for field in ["warm", "deadline_expired"] {
        if !matches!(doc.get(field), Some(JsonValue::Bool(_))) {
            return Err(format!("missing boolean field {field:?}"));
        }
    }
    for field in ["fuel_consumed", "deadline_overshoot_epochs"] {
        match doc.get(field) {
            Some(JsonValue::Null | JsonValue::Number(_)) => {}
            _ => return Err(format!("field {field:?} must be a number or null")),
        }
    }
    let status = doc
        .get("status")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field \"status\"")?;
    match status {
        "ok" => {}
        "rejected" => {
            doc.get("reject_reason")
                .and_then(JsonValue::as_str)
                .ok_or("rejected record missing string \"reject_reason\"")?;
        }
        "trap" => {
            let trap = doc
                .get("trap")
                .filter(|t| t.as_object().is_some())
                .ok_or("trap record missing object field \"trap\"")?;
            trap.get("reason")
                .and_then(JsonValue::as_str)
                .ok_or("trap missing string field \"reason\"")?;
            let frames = trap
                .get("frames")
                .and_then(JsonValue::as_array)
                .ok_or("trap missing array field \"frames\"")?;
            for (i, frame) in frames.iter().enumerate() {
                for field in ["func", "offset"] {
                    if frame.get(field).and_then(JsonValue::as_number).is_none() {
                        return Err(format!("frame {i} missing numeric field {field:?}"));
                    }
                }
                if frame.get("tier").and_then(JsonValue::as_str).is_none() {
                    return Err(format!("frame {i} missing string field \"tier\""));
                }
                match frame.get("name") {
                    Some(JsonValue::Null | JsonValue::String(_)) => {}
                    _ => return Err(format!("frame {i}: \"name\" must be a string or null")),
                }
            }
        }
        other => return Err(format!("unknown status {other:?}")),
    }
    Ok(doc)
}

/// Every retired request lands in the flight recorder as one JSON
/// access-log line: successes with latency and warmth, fuel-starved
/// requests with their consumption, interrupted requests with their
/// deadline overshoot, and traps with the symbolicated backtrace. The ring
/// is bounded, and the `serve.deadline_overshoot` histogram records every
/// expiry.
#[test]
fn the_flight_recorder_captures_structured_access_log_lines() {
    let telemetry = telemetry::Telemetry::enabled();
    let mut server = Server::new(
        ServerConfig {
            workers: 1,
            epoch_granularity: Duration::from_millis(2),
            telemetry: telemetry.clone(),
            flight_recorder_capacity: 3,
        },
        engine::EngineConfig::baseline("spc", spc::CompilerOptions::allopt()).with_metering(),
    );
    let boom_text = r#"
        (module $app
          (func $inner (result i32)
            i32.const 1
            i32.const 0
            i32.div_s)
          (func $boom (export "main") (result i32)
            call $inner))
    "#;
    let boom = wasm::wat::parse_module(boom_text).expect("boom module parses");
    let quick = server.register_app("quick", "main", quick_module()).unwrap();
    let spin = server.register_app("spin", "main", spin_module()).unwrap();
    let boom = server.register_app("boom", "main", boom).unwrap();
    let results = server.run(vec![
        Request::to_app(quick),
        Request::to_app(quick),
        Request::to_app(boom),
        Request::to_app(spin).with_fuel(1_000),
        Request::to_app(spin).with_deadline(Duration::from_millis(10)),
    ]);
    assert_eq!(results.len(), 5);

    // The trapped request's result carries the symbolicated diagnostics.
    let trap = results[2].trap.as_ref().expect("trap diagnostics captured");
    assert_eq!(trap.reason, engine::TrapReason::DivisionByZero);
    let names: Vec<Option<&str>> = trap
        .backtrace
        .frames()
        .iter()
        .map(|f| f.name.as_deref())
        .collect();
    assert_eq!(names, [Some("inner"), Some("boom")]);

    // The ring retained only the 3 most recent of the 5 lines.
    let recorder = server.flight_recorder();
    assert_eq!(recorder.recorded(), 5);
    assert_eq!(recorder.len(), 3);
    let dump = recorder.dump();
    let lines: Vec<&str> = dump.lines().collect();
    assert_eq!(lines.len(), 3);
    // Line 0: the div-by-zero trap, backtrace symbolicated from the name
    // section, app resolved to its registered name.
    assert!(lines[0].contains("\"request\":2,\"app\":2,\"app_name\":\"boom\""), "{}", lines[0]);
    assert!(lines[0].contains("\"status\":\"trap\""), "{}", lines[0]);
    assert!(
        lines[0].contains("\"reason\":\"integer divide by zero\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("\"name\":\"inner\""), "{}", lines[0]);
    // Line 1: fuel exhaustion with the exact consumption.
    assert!(lines[1].contains("\"request\":3"), "{}", lines[1]);
    assert!(lines[1].contains("\"reason\":\"all fuel consumed\""), "{}", lines[1]);
    assert!(lines[1].contains("\"fuel_consumed\":1000"), "{}", lines[1]);
    // Line 2: the interrupted request records a concrete overshoot.
    assert!(lines[2].contains("\"request\":4"), "{}", lines[2]);
    assert!(lines[2].contains("\"reason\":\"interrupt\""), "{}", lines[2]);
    assert!(lines[2].contains("\"deadline_expired\":true"), "{}", lines[2]);
    assert!(
        !lines[2].contains("\"deadline_overshoot_epochs\":null"),
        "{}",
        lines[2]
    );

    // The overshoot histogram saw exactly the one expired deadline.
    let snapshot = telemetry.metrics().expect("metrics registry").snapshot();
    let overshoot = snapshot
        .histograms
        .iter()
        .find(|(name, _)| name.as_str() == "serve.deadline_overshoot")
        .map(|(_, h)| h.clone())
        .expect("serve.deadline_overshoot histogram recorded");
    assert_eq!(overshoot.count, 1);
    // ... and the engine counted each of the three failures under its reason.
    for reason in ["division_by_zero", "out_of_fuel", "interrupted"] {
        let name = format!("engine.traps.{reason}");
        let count = snapshot.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(count, Some(1), "{name}");
    }

    // Every line parses as JSON in the access-log schema. One more batch
    // pushes an `ok` and a `rejected` line through the ring, so the two
    // dumps between them hold every status the schema names.
    server.run(vec![Request::to_app(quick), Request::to_app(99)]);
    let later = recorder.dump();
    let records: Vec<JsonValue> = dump
        .lines()
        .chain(later.lines().skip(1))
        .map(|line| parse_access_log_line(line).unwrap_or_else(|e| panic!("{e}: {line}")))
        .collect();
    let statuses: Vec<_> =
        records.iter().map(|r| r.get("status").and_then(JsonValue::as_str)).collect();
    assert_eq!(statuses, ["trap", "trap", "trap", "ok", "rejected"].map(Some));
    let frames = records[0].get("trap").and_then(|t| t.get("frames"));
    assert_eq!(frames.and_then(JsonValue::as_array).map(<[_]>::len), Some(2), "{}", lines[0]);
    let overshoot = records[2].get("deadline_overshoot_epochs");
    assert!(overshoot.and_then(JsonValue::as_number).is_some(), "{}", lines[2]);
}

/// Fuel budgets ride the same request path: a starved request traps
/// `OutOfFuel` deterministically (same consumption in every tier), and the
/// pool hands the next request a freshly-armed-free instance.
#[test]
fn fuel_budgets_bind_per_request_across_the_matrix() {
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let mut server = Server::new(
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            config.with_metering(),
        );
        let spin = server.register_app("spin", "main", spin_module()).unwrap();
        let results = server.run(vec![
            Request::to_app(spin).with_fuel(1_000),
            Request::to_app(spin).with_fuel(1_000),
        ]);
        for r in &results {
            assert_eq!(
                r.status,
                RequestStatus::Trapped(engine::TrapReason::OutOfFuel),
                "[{name}] request {}",
                r.request_id
            );
            assert_eq!(
                r.fuel_consumed,
                Some(1_000),
                "[{name}] exhaustion consumes exactly the budget"
            );
            assert!(!r.deadline_expired(), "[{name}] no deadline was armed");
        }
    }
}
