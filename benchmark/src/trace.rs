//! Spans around the benchmark's calls into each layer.
//!
//! The tracer lives in the benchmark, not in the program: a span is opened
//! before a call into a crate and closed when it returns. Spans stay in
//! memory until the run ends, then become per-layer totals and a Chrome
//! trace. A disabled tracer costs one branch per call, which is how the
//! end-to-end runs and the traced runs share one code path.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed or open span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the span that was open when this one began.
    parent: Option<usize>,
    /// The operation (module load, item run, request batch) it belongs to.
    op: u64,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A recording tracer.
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::disabled()
        }
    }

    /// Starts the next operation; spans opened from now on carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes a span. Spans close in the reverse of the order they opened.
    pub fn end(&mut self, id: SpanId) {
        if let Some(index) = id.0 {
            self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans must nest");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let result = f();
        self.end(id);
        result
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Drops the spans recorded after the first `len`, so a repetition that
    /// is not the one reported does not stay in memory.
    pub fn truncate(&mut self, len: usize) {
        debug_assert!(self.open.is_empty());
        self.spans.truncate(len);
    }

    /// Per-name totals over the spans from index `from` on.
    pub fn totals(&self, from: usize) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans[from..] {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate().skip(from) {
            let duration = span.end_ns - span.start_ns;
            let total = totals.entry(span.name).or_default();
            total.count += 1;
            total.total_ns += duration;
            total.self_ns += duration.saturating_sub(child_ns[index]);
        }
        totals
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                Value::obj([
                    ("name", Value::str(span.name)),
                    ("cat", Value::str(span.name.split('.').next().unwrap_or(""))),
                    ("ph", Value::str("X")),
                    ("ts", Value::Num(span.start_ns as f64 / 1000.0)),
                    (
                        "dur",
                        Value::Num((span.end_ns - span.start_ns) as f64 / 1000.0),
                    ),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::Num(index as f64)),
                            ("op", Value::Num(span.op as f64)),
                            (
                                "parent",
                                span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::str("ns")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::enabled();
        t.next_op();
        let outer = t.begin("engine.instantiate");
        spin(200);
        let inner = t.begin("wasm.validate");
        spin(300);
        t.end(inner);
        let inner = t.begin("wasm.validate");
        spin(100);
        t.end(inner);
        t.end(outer);
        let totals = t.totals(0);
        let outer = totals["engine.instantiate"];
        let inner = totals["wasm.validate"];
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 200_000 && inner.total_ns >= 400_000);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("wasm.decode", || 7), 7);
        assert_eq!(t.len(), 0);
        assert!(t.totals(0).is_empty());
    }

    #[test]
    fn chrome_trace_carries_parent_and_op() {
        let mut t = Tracer::enabled();
        t.next_op();
        let a = t.begin("serve.run");
        t.span("serve.access_log.render", || ());
        t.end(a);
        let trace = t.chrome_trace();
        let text = trace.encode();
        let parsed = crate::json::parse(&text).expect("trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("events");
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(child.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(child.get("cat").and_then(Value::as_str), Some("serve"));
        let args = child.get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(args.get("op").and_then(Value::as_f64), Some(1.0));
        t.truncate(0);
        assert_eq!(t.len(), 0);
    }
}
