//! The structured access log and the flight recorder.
//!
//! Every request a [`Server`](crate::Server) retires is rendered as one
//! line of JSON — the *access log* — carrying the request's outcome,
//! latency, fuel consumption, cache/pool behaviour, deadline overshoot
//! (for interrupted requests), and, when it trapped, the full symbolicated
//! backtrace from the engine's trap diagnostics. Lines are self-contained
//! and append-friendly: a serving run's log is readable with `grep` and a
//! JSON parser, no schema registry required.
//!
//! The [`FlightRecorder`] keeps the most recent `capacity` lines in a
//! bounded ring so that when a serving process misbehaves, the last moments
//! before the report are dumpable on demand — the same idea as an aircraft
//! flight recorder: always on, fixed cost, overwritten continuously. The
//! JSON is assembled by hand (the workspace is offline and carries no
//! serialization dependency), mirroring `telemetry::trace`.

use crate::{RequestResult, RequestStatus};
use engine::TrapInfo;
use std::collections::VecDeque;
use std::sync::Mutex;
use telemetry::escape_json;

/// Renders an optional count as a JSON value (`null` when absent).
fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Renders a trap's diagnostics — reason and symbolicated frames — as a
/// JSON object.
fn render_trap(trap: &TrapInfo) -> String {
    let frames: Vec<String> = trap
        .backtrace
        .frames()
        .iter()
        .map(|f| {
            let name = f
                .name
                .as_deref()
                .map_or_else(|| "null".to_string(), |n| format!("\"{}\"", escape_json(n)));
            format!(
                "{{\"func\":{},\"name\":{name},\"offset\":{},\"tier\":\"{}\"}}",
                f.func_index,
                f.offset,
                f.tier.label()
            )
        })
        .collect();
    format!(
        "{{\"reason\":\"{}\",\"frames\":[{}],\"truncated\":{}}}",
        escape_json(&trap.reason.to_string()),
        frames.join(","),
        trap.backtrace.truncated()
    )
}

/// Renders one retired request as a single access-log line (no trailing
/// newline). The schema is flat and stable:
///
/// ```json
/// {"request":0,"app":0,"app_name":"counter","worker":1,"status":"ok",
///  "latency_us":412,"instantiate_us":9,"exec_cycles":1088,"warm":true,
///  "fuel_consumed":null,"deadline_expired":false,
///  "deadline_overshoot_epochs":null,"trap":null,"reject_reason":null}
/// ```
///
/// `status` is `"ok"`, `"trap"`, or `"rejected"`; `trap` carries the
/// symbolicated backtrace object for trapped requests;
/// `deadline_overshoot_epochs` is set (possibly zero) exactly when the
/// request retired past its armed deadline.
pub fn render_line(result: &RequestResult, app_name: Option<&str>) -> String {
    let (status, trap, reject) = match &result.status {
        RequestStatus::Ok(_) => ("ok", "null".to_string(), "null".to_string()),
        RequestStatus::Trapped(reason) => (
            "trap",
            result.trap.as_ref().map_or_else(
                // Diagnostics should always accompany a trap; degrade to the
                // bare reason rather than lying with an empty backtrace.
                || format!("{{\"reason\":\"{}\",\"frames\":[],\"truncated\":0}}", escape_json(&reason.to_string())),
                render_trap,
            ),
            "null".to_string(),
        ),
        RequestStatus::Rejected(message) => (
            "rejected",
            "null".to_string(),
            format!("\"{}\"", escape_json(message)),
        ),
    };
    let app_name = app_name.map_or_else(|| "null".to_string(), |n| format!("\"{}\"", escape_json(n)));
    format!(
        "{{\"request\":{},\"app\":{},\"app_name\":{app_name},\"worker\":{},\"status\":\"{status}\",\
         \"latency_us\":{},\"instantiate_us\":{},\"exec_cycles\":{},\"warm\":{},\
         \"fuel_consumed\":{},\"deadline_expired\":{},\"deadline_overshoot_epochs\":{},\
         \"trap\":{trap},\"reject_reason\":{reject}}}",
        result.request_id,
        result.app,
        result.worker,
        result.service_wall.as_micros(),
        result.instantiate_wall.as_micros(),
        result.exec_cycles,
        result.warm,
        opt_u64(result.fuel_consumed),
        result.deadline_expired(),
        opt_u64(result.deadline_overshoot_epochs),
    )
}

/// A bounded ring of the most recent access-log lines.
///
/// Recording is O(1) and drops the oldest line once `capacity` is reached;
/// [`FlightRecorder::dump`] returns the retained lines oldest-first as a
/// JSON-lines document. The total number of lines ever recorded is kept so
/// a dump declares how much history was overwritten.
pub struct FlightRecorder {
    inner: Mutex<RecorderInner>,
    capacity: usize,
}

struct RecorderInner {
    lines: VecDeque<String>,
    recorded: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` lines (minimum 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Mutex::new(RecorderInner {
                lines: VecDeque::with_capacity(capacity),
                recorded: 0,
            }),
            capacity,
        }
    }

    /// Appends one line, evicting the oldest when full.
    pub fn record(&self, line: String) {
        let mut inner = self.inner.lock().expect("flight recorder lock");
        if inner.lines.len() == self.capacity {
            inner.lines.pop_front();
        }
        inner.lines.push_back(line);
        inner.recorded += 1;
    }

    /// Lines currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("flight recorder lock").lines.len()
    }

    /// True when nothing has been recorded (or everything was evicted —
    /// impossible, eviction only happens on insert).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lines ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("flight recorder lock").recorded
    }

    /// The retained lines, oldest first, as a JSON-lines document (one
    /// record per line, trailing newline).
    pub fn dump(&self) -> String {
        let inner = self.inner.lock().expect("flight recorder lock");
        let mut out = String::new();
        for line in &inner.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::{Backtrace, Frame, FrameTierTag, TrapReason};
    use std::time::Duration;

    fn base_result() -> RequestResult {
        RequestResult {
            request_id: 3,
            app: 1,
            worker: 0,
            status: RequestStatus::Ok(vec![]),
            warm: true,
            instantiate_wall: Duration::from_micros(9),
            service_wall: Duration::from_micros(412),
            exec_cycles: 1088,
            fuel_consumed: None,
            deadline_overshoot_epochs: None,
            trap: None,
        }
    }

    #[test]
    fn ok_requests_render_flat_records() {
        let line = render_line(&base_result(), Some("counter"));
        assert!(line.starts_with("{\"request\":3,\"app\":1,\"app_name\":\"counter\""));
        assert!(line.contains("\"status\":\"ok\""));
        assert!(line.contains("\"latency_us\":412"));
        assert!(line.contains("\"fuel_consumed\":null"));
        assert!(line.contains("\"trap\":null"));
        assert!(line.ends_with("\"reject_reason\":null}"));
    }

    #[test]
    fn trapped_requests_carry_the_symbolicated_backtrace() {
        let mut result = base_result();
        result.status = RequestStatus::Trapped(TrapReason::DivisionByZero);
        result.trap = Some(TrapInfo {
            reason: TrapReason::DivisionByZero,
            backtrace: Backtrace::from_frames(vec![Frame {
                func_index: 2,
                name: Some("div".to_string()),
                offset: 9,
                tier: FrameTierTag::Opt,
            }]),
        });
        let line = render_line(&result, Some("calc"));
        assert!(line.contains("\"status\":\"trap\""));
        assert!(line.contains(
            "\"trap\":{\"reason\":\"integer divide by zero\",\"frames\":[{\"func\":2,\"name\":\"div\",\"offset\":9,\"tier\":\"opt\"}],\"truncated\":0}"
        ));
    }

    #[test]
    fn interrupted_requests_record_their_overshoot() {
        let mut result = base_result();
        result.status = RequestStatus::Trapped(TrapReason::Interrupted);
        result.deadline_overshoot_epochs = Some(1);
        let line = render_line(&result, None);
        assert!(line.contains("\"app_name\":null"));
        assert!(line.contains("\"deadline_expired\":true"));
        assert!(line.contains("\"deadline_overshoot_epochs\":1"));
    }

    #[test]
    fn rejected_requests_escape_their_message() {
        let mut result = base_result();
        result.status = RequestStatus::Rejected("unknown \"app\" index 7".to_string());
        let line = render_line(&result, None);
        assert!(line.contains("\"status\":\"rejected\""));
        assert!(line.contains("\"reject_reason\":\"unknown \\\"app\\\" index 7\""));
    }

    #[test]
    fn the_flight_recorder_is_a_bounded_ring() {
        let recorder = FlightRecorder::new(3);
        assert!(recorder.is_empty());
        for i in 0..5 {
            recorder.record(format!("{{\"request\":{i}}}"));
        }
        assert_eq!(recorder.len(), 3);
        assert_eq!(recorder.recorded(), 5);
        let dump = recorder.dump();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(
            lines,
            ["{\"request\":2}", "{\"request\":3}", "{\"request\":4}"],
            "oldest lines are evicted, retained lines stay in order"
        );
        assert!(dump.ends_with('\n'));
    }
}
