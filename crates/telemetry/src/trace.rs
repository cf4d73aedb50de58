//! Chrome trace-event JSON export.
//!
//! Turns drained event rings into the trace-event format that `chrome://
//! tracing` and Perfetto load directly: one `"M"` (metadata) record naming
//! each ring's thread, `"X"` (complete-span) records for events that carry
//! their own duration (compile end, serve finish), and `"i"` (instant)
//! records for everything else. Timestamps are the sink-relative
//! microsecond clock events were recorded with, so per-worker timelines line
//! up on a shared axis.
//!
//! The JSON is assembled by hand — the workspace is offline and carries no
//! serialization dependency; the format is shallow enough that an escape
//! helper and `format!` are the whole encoder.

use crate::event::{EventKind, TraceEvent};

/// Escapes a string for inclusion in a JSON string literal — the one
/// escaper every hand-assembled JSON writer in the workspace uses.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The `name` and `args` fragments for one event, plus its span duration if
/// it closes one.
fn render(kind: &EventKind) -> (String, String, Option<u64>) {
    match kind {
        EventKind::CompileEnd { func, tier, backend, ok, wasm_bytes, machine_bytes, dur_us } => (
            format!("compile f{func} {}", tier.label()),
            format!(
                "{{\"func\":{func},\"tier\":\"{}\",\"backend\":\"{}\",\"ok\":{ok},\"wasm_bytes\":{wasm_bytes},\"machine_bytes\":{machine_bytes}}}",
                tier.label(),
                backend.label()
            ),
            Some(*dur_us),
        ),
        EventKind::CacheLookup { hit } => (
            format!("cache {}", if *hit { "hit" } else { "miss" }),
            format!("{{\"hit\":{hit}}}"),
            None,
        ),
        EventKind::TierUp { func, tier } => (
            format!("tier-up f{func} -> {}", tier.label()),
            format!("{{\"func\":{func},\"tier\":\"{}\"}}", tier.label()),
            None,
        ),
        EventKind::Trap { reason, func, offset, depth, .. } => (
            format!("trap f{func}"),
            format!(
                "{{\"reason\":\"{}\",\"func\":{func},\"offset\":{offset},\"depth\":{depth}}}",
                escape_json(reason)
            ),
            None,
        ),
        EventKind::PoolCheckout { app, warm } => (
            format!("pool checkout {}", if *warm { "warm" } else { "cold" }),
            format!("{{\"app\":{app},\"warm\":{warm}}}"),
            None,
        ),
        EventKind::ServeEnqueue { request, app } => (
            format!("enqueue r{request}"),
            format!("{{\"request\":{request},\"app\":{app}}}"),
            None,
        ),
        EventKind::ServeFinish { request, app, ok, dur_us, .. } => (
            format!("serve r{request}"),
            format!("{{\"request\":{request},\"app\":{app},\"ok\":{ok}}}"),
            Some(*dur_us),
        ),
        EventKind::OsrEnter { func, offset } => (
            format!("osr f{func} @{offset}"),
            format!("{{\"func\":{func},\"offset\":{offset}}}"),
            None,
        ),
        EventKind::Sample { func, tier } => (
            format!("sample f{func}"),
            format!("{{\"func\":{func},\"tier\":\"{}\"}}", tier.label()),
            None,
        ),
    }
}

/// Renders drained rings as a Chrome trace-event JSON document.
///
/// `rings` is `(thread label, events, dropped)` per ring, as produced by
/// [`crate::Telemetry::drain`]. All rings share `pid` 1; each ring becomes
/// one `tid` with an `"M"` thread-name record so viewers show the label.
///
/// A ring that overflowed (nonzero `dropped`) gets a `"C"` counter record
/// named `events dropped`, so a lossy trace declares its loss on the ring's
/// own timeline instead of silently truncating the end of a burst.
pub fn chrome_trace(rings: &[(String, Vec<TraceEvent>, u64)]) -> String {
    let mut records = Vec::new();
    for (tid0, (label, events, dropped)) in rings.iter().enumerate() {
        let tid = tid0 + 1;
        records.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            escape_json(label)
        ));
        if *dropped > 0 {
            let ts = events.last().map(|e| e.t_us).unwrap_or(0);
            records.push(format!(
                "{{\"ph\":\"C\",\"name\":\"events dropped\",\"cat\":\"engine\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\"args\":{{\"dropped\":{dropped}}}}}",
            ));
        }
        for event in events {
            let (name, args, dur) = render(&event.kind);
            let record = match dur {
                // A span's end-event timestamp is its close; the trace format
                // wants the open, so back the start out of the duration.
                Some(dur_us) => format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"engine\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"dur\":{dur_us},\"args\":{args}}}",
                    escape_json(&name),
                    event.t_us.saturating_sub(dur_us),
                ),
                None => format!(
                    "{{\"ph\":\"i\",\"name\":\"{}\",\"cat\":\"engine\",\"pid\":1,\"tid\":{tid},\"ts\":{},\"s\":\"t\",\"args\":{args}}}",
                    escape_json(&name),
                    event.t_us,
                ),
            };
            records.push(record);
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&records.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Backend, Tier};

    #[test]
    fn spans_instants_and_thread_names_render() {
        let rings = vec![
            (
                "worker-0".to_string(),
                vec![
                    TraceEvent {
                        t_us: 40,
                        kind: EventKind::CompileEnd {
                            func: 2,
                            tier: Tier::Baseline,
                            backend: Backend::X64,
                            ok: true,
                            wasm_bytes: 10,
                            machine_bytes: 64,
                            dur_us: 15,
                        },
                    },
                    TraceEvent { t_us: 50, kind: EventKind::CacheLookup { hit: true } },
                ],
                0,
            ),
            (
                "worker-1".to_string(),
                vec![TraceEvent {
                    t_us: 90,
                    kind: EventKind::ServeFinish {
                        request: 3,
                        app: 1,
                        ok: true,
                        dur_us: 30,
                        instantiate_us: 4,
                        exec_cycles: 120,
                        fuel: None,
                        deadline_overshoot: Some(0),
                    },
                }],
                0,
            ),
        ];
        let json = chrome_trace(&rings);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"name\":\"worker-0\""));
        assert!(json.contains("\"name\":\"worker-1\""));
        // The compile span opens at 40 - 15 = 25.
        assert!(json.contains("\"ph\":\"X\",\"name\":\"compile f2 baseline\",\"cat\":\"engine\",\"pid\":1,\"tid\":1,\"ts\":25,\"dur\":15"));
        assert!(json.contains("\"ph\":\"i\",\"name\":\"cache hit\""));
        assert!(json.contains("\"ph\":\"X\",\"name\":\"serve r3\",\"cat\":\"engine\",\"pid\":1,\"tid\":2,\"ts\":60,\"dur\":30"));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn every_event_kind_renders_without_panicking() {
        let kinds = [
            EventKind::CompileEnd {
                func: 1,
                tier: Tier::Opt,
                backend: Backend::VirtualIsa,
                ok: false,
                wasm_bytes: 1,
                machine_bytes: 2,
                dur_us: 3,
            },
            EventKind::CacheLookup { hit: false },
            EventKind::TierUp { func: 4, tier: Tier::Baseline },
            EventKind::Trap {
                reason: "integer divide by zero",
                slug: "division_by_zero",
                func: 2,
                offset: 9,
                depth: 3,
            },
            EventKind::PoolCheckout { app: 0, warm: false },
            EventKind::ServeEnqueue { request: 0, app: 0 },
            EventKind::ServeFinish {
                request: 0,
                app: 0,
                ok: false,
                dur_us: 9,
                instantiate_us: 1,
                exec_cycles: 2,
                fuel: Some(3),
                deadline_overshoot: None,
            },
            EventKind::OsrEnter { func: 3, offset: 17 },
            EventKind::Sample { func: 2, tier: Tier::Interp },
        ];
        let events: Vec<TraceEvent> =
            kinds.iter().map(|&kind| TraceEvent { t_us: 100, kind }).collect();
        let json = chrome_trace(&[("main".to_string(), events, 0)]);
        // One record per event plus the thread-name metadata record.
        assert_eq!(json.matches("\"ph\":").count(), kinds.len() + 1);
        assert!(json.contains("integer divide by zero"));
    }

    #[test]
    fn an_overflowed_ring_declares_its_loss_in_the_trace() {
        let events = vec![TraceEvent { t_us: 75, kind: EventKind::CacheLookup { hit: false } }];
        let json = chrome_trace(&[
            ("quiet".to_string(), events.clone(), 0),
            ("lossy".to_string(), events, 41),
        ]);
        // Only the lossy ring gets a counter record, stamped at its last
        // event's timestamp and carrying the overflow count.
        assert_eq!(json.matches("\"ph\":\"C\"").count(), 1);
        assert!(json.contains(
            "\"ph\":\"C\",\"name\":\"events dropped\",\"cat\":\"engine\",\"pid\":1,\"tid\":2,\"ts\":75,\"args\":{\"dropped\":41}"
        ));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
