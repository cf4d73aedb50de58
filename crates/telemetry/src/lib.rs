//! Engine-wide observability: structured tracing, a metrics registry, and
//! the aggregation side of the epoch-driven sampling profiler.
//!
//! The crate is a *leaf* — it depends on nothing in the workspace, so every
//! layer (machine, interp, engine, serve, bench) can report into it without
//! dependency cycles. The engine threads one [`Telemetry`] handle through
//! execution, the compilation pipeline, the code cache, instance pools, and
//! the serving layer; everything those layers can say about themselves is a
//! typed [`EventKind`].
//!
//! Three pillars:
//!
//! - **Structured tracing** — each thread that emits events gets its own
//!   bounded [`EventRing`]; [`Telemetry::drain`] collects the
//!   rings and [`chrome_trace`] renders them as Chrome trace-event JSON, so
//!   a whole serving run opens in Perfetto as per-worker timelines.
//! - **Metrics** — a [`MetricsRegistry`] of named atomic counters and
//!   log₂-bucketed histograms, read back with [`MetricsRegistry::snapshot`].
//!   The engine counts traps per reason here (`engine.traps.<slug>`, named
//!   by `TrapCode::slug`), with cache hits and misses, pool checkouts and
//!   OSR entries.
//! - **Sampling profile** — the engine's execution loops report the current
//!   (function, tier) whenever the shared epoch advances; the [`Profiler`]
//!   aggregates those samples into per-function×tier counts.
//!
//! # The zero-cost-when-disabled contract
//!
//! A disabled handle ([`Telemetry::disabled`], also the `Default`) holds no
//! sink: every `emit` is one `Option` test on a `None` that never changes,
//! and the engine additionally gates its event construction on
//! [`Telemetry::is_enabled`]. Nothing in this crate ever charges simulated
//! cycles — enabling telemetry must not perturb the deterministic
//! `exec_cycles` measurements the paper's figures are built on
//! (`tests/telemetry.rs` asserts exactly that, in all three tiers).
//!
//! # Example
//!
//! ```
//! use telemetry::{EventKind, Telemetry, Tier};
//!
//! let telemetry = Telemetry::enabled();
//! telemetry.emit(EventKind::CacheLookup { hit: false });
//! telemetry.record_sample(3, Tier::Baseline);
//! if let Some(metrics) = telemetry.metrics() {
//!     metrics.counter("requests").inc();
//! }
//! let trace = telemetry.chrome_trace();
//! assert!(trace.contains("cache miss"));
//! assert_eq!(telemetry.profiler().unwrap().total_samples(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod metrics;
mod profile;
mod ring;
pub mod trace;

pub use event::{Backend, EventKind, Tier, TraceEvent};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use profile::{ProfileEntry, Profiler};
pub use ring::EventRing;
pub use trace::{chrome_trace, escape_json};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default per-thread ring capacity, in events.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Locks `mutex`, recovering the guard if a thread panicked while holding it.
/// Sound for the metrics registry's maps, the ring registry and the
/// profile's counts because each critical section is one map lookup or
/// insert, one `push`, one counter bump or a read: none leaves the data
/// half-written, so a panic inside one poisons nothing but the flag.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Distinguishes sinks in the thread-local ring registry: a thread can emit
/// into several engines' sinks over its lifetime.
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's rings, keyed by sink id. Small linear scan — a thread
    /// rarely talks to more than a couple of live sinks.
    static RINGS: RefCell<Vec<(u64, Arc<EventRing>)>> = const { RefCell::new(Vec::new()) };
}

/// The shared collection point behind an enabled [`Telemetry`] handle.
///
/// Owns the ring registry (one ring per emitting thread; a thread registering
/// under the name of one that has exited adopts its ring), the metrics
/// registry, the sampling profile, and the monotonic clock events are
/// stamped with.
pub struct TelemetrySink {
    id: u64,
    start: Instant,
    ring_capacity: usize,
    rings: Mutex<Vec<Arc<EventRing>>>,
    metrics: MetricsRegistry,
    profiler: Profiler,
}

impl std::fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySink")
            .field("id", &self.id)
            .field("ring_capacity", &self.ring_capacity)
            .finish_non_exhaustive()
    }
}

impl TelemetrySink {
    fn new(ring_capacity: usize) -> TelemetrySink {
        TelemetrySink {
            id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
            start: Instant::now(),
            ring_capacity,
            rings: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::new(),
            profiler: Profiler::new(),
        }
    }

    /// Microseconds since the sink was created — the clock every event is
    /// stamped with.
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn emit(&self, kind: EventKind) {
        let event = TraceEvent { t_us: self.now_us(), kind };
        RINGS.with(|cell| {
            let mut local = cell.borrow_mut();
            if let Some((_, ring)) = local.iter().find(|(id, _)| *id == self.id) {
                ring.push(event);
                return;
            }
            // First event from this thread into this sink: register a ring.
            // Entries whose sink has dropped its registry (our clone is the
            // last Arc) are dead weight — clear them while we're here.
            local.retain(|(_, ring)| Arc::strong_count(ring) > 1);
            let thread = std::thread::current();
            let label = thread
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("{:?}", thread.id()));
            // A ring only the registry still holds belonged to a thread that
            // has exited (its thread-local clone is gone). A thread of the
            // same name — a worker respawned for the next batch — takes it
            // over, buffered events and `dropped` count included, so the
            // registry holds one ring per worker, not one per spawn.
            let mut rings = lock(&self.rings);
            let orphan = rings
                .iter()
                .find(|ring| ring.label() == label && Arc::strong_count(ring) == 1);
            let ring = match orphan {
                Some(ring) => Arc::clone(ring),
                None => {
                    let ring = Arc::new(EventRing::new(label, self.ring_capacity));
                    rings.push(Arc::clone(&ring));
                    ring
                }
            };
            drop(rings);
            ring.push(event);
            local.push((self.id, ring));
        });
    }

    fn drain(&self) -> Vec<(String, Vec<TraceEvent>, u64)> {
        let rings = lock(&self.rings);
        rings
            .iter()
            .map(|ring| {
                let mut events = Vec::with_capacity(ring.len());
                ring.drain_into(&mut events);
                (ring.label().to_string(), events, ring.dropped())
            })
            .collect()
    }

    fn dropped_events(&self) -> u64 {
        lock(&self.rings)
            .iter()
            .map(|ring| ring.dropped())
            .sum()
    }
}

/// A cheap, cloneable handle to a telemetry sink — or to nothing.
///
/// The engine, pipeline, pool, and serving layers all hold one of these.
/// Clones share the same sink, so a serving stack with one `Telemetry`
/// threaded through it produces a single coherent trace. The default handle
/// is disabled: emitting through it is a no-op behind one branch.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<TelemetrySink>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.sink {
            Some(sink) => f.debug_tuple("Telemetry").field(sink).finish(),
            None => f.write_str("Telemetry(disabled)"),
        }
    }
}

impl Telemetry {
    /// The no-op handle: every operation is a branch on `None`.
    pub fn disabled() -> Telemetry {
        Telemetry { sink: None }
    }

    /// A handle with a fresh sink and [`DEFAULT_RING_CAPACITY`] rings.
    pub fn enabled() -> Telemetry {
        Telemetry::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A handle with a fresh sink whose per-thread rings hold
    /// `ring_capacity` events.
    pub fn with_ring_capacity(ring_capacity: usize) -> Telemetry {
        Telemetry { sink: Some(Arc::new(TelemetrySink::new(ring_capacity))) }
    }

    /// True when a sink is attached. Hot paths use this to skip event
    /// construction entirely.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records `kind` into this thread's ring (no-op when disabled).
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        if let Some(sink) = &self.sink {
            sink.emit(kind);
        }
    }

    /// Records one profiler sample of `func` running in `tier`, both in the
    /// aggregate profile and as a timeline event (no-op when disabled).
    #[inline]
    pub fn record_sample(&self, func: u32, tier: Tier) {
        if let Some(sink) = &self.sink {
            sink.profiler.record(func, tier);
            sink.emit(EventKind::Sample { func, tier });
        }
    }

    /// The sink's metrics registry, when enabled.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.sink.as_deref().map(|sink| &sink.metrics)
    }

    /// The sink's sampling profile, when enabled.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.sink.as_deref().map(|sink| &sink.profiler)
    }

    /// Moves every buffered event out of every ring, as
    /// `(thread label, events, dropped)` triples ordered by ring
    /// registration; `dropped` is that ring's cumulative overflow count, so
    /// consumers can tell a quiet ring from a saturated one. Empty when
    /// disabled. Rings stay registered and keep collecting.
    pub fn drain(&self) -> Vec<(String, Vec<TraceEvent>, u64)> {
        self.sink.as_deref().map(TelemetrySink::drain).unwrap_or_default()
    }

    /// Drains all rings and renders them as Chrome trace-event JSON.
    pub fn chrome_trace(&self) -> String {
        trace::chrome_trace(&self.drain())
    }

    /// Total events discarded across all rings because a ring was full
    /// (0 when disabled).
    pub fn dropped_events(&self) -> u64 {
        self.sink.as_deref().map(TelemetrySink::dropped_events).unwrap_or(0)
    }

    /// Microseconds since the sink was created; 0 when disabled. Event
    /// producers that measure spans (serve, compile) use this clock so their
    /// `dur_us` fields line up with ring timestamps.
    pub fn now_us(&self) -> u64 {
        self.sink.as_deref().map(TelemetrySink::now_us).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.emit(EventKind::FuelExhausted);
        t.record_sample(0, Tier::Interp);
        assert!(t.drain().is_empty());
        assert!(t.metrics().is_none());
        assert!(t.profiler().is_none());
        assert_eq!(t.dropped_events(), 0);
        assert_eq!(t.now_us(), 0);
        assert_eq!(format!("{t:?}"), "Telemetry(disabled)");
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Telemetry::enabled();
        let u = t.clone();
        u.emit(EventKind::CacheLookup { hit: true });
        t.emit(EventKind::CacheLookup { hit: false });
        if let Some(m) = u.metrics() {
            m.counter("c").inc();
        }
        assert_eq!(t.metrics().unwrap().counter("c").get(), 1);
        let drained = t.drain();
        // Same thread → both events land in one ring, in order.
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].1.len(), 2);
        assert_eq!(drained[0].1[0].kind, EventKind::CacheLookup { hit: true });
        assert!(u.drain().iter().all(|(_, events, _)| events.is_empty()), "drain moved them out");
    }

    #[test]
    fn each_emitting_thread_gets_its_own_labelled_ring() {
        let t = Telemetry::enabled();
        t.emit(EventKind::FuelExhausted);
        let worker = {
            let t = t.clone();
            std::thread::Builder::new()
                .name("emitter".to_string())
                .spawn(move || {
                    for _ in 0..5 {
                        t.emit(EventKind::EpochInterrupt);
                    }
                })
                .unwrap()
        };
        worker.join().unwrap();
        let drained = t.drain();
        assert_eq!(drained.len(), 2);
        let named: Vec<&str> = drained.iter().map(|(label, _, _)| label.as_str()).collect();
        assert!(named.contains(&"emitter"), "rings carry thread names: {named:?}");
        let by_worker = drained.iter().find(|(label, _, _)| label == "emitter").unwrap();
        assert_eq!(by_worker.1.len(), 5);
    }

    #[test]
    fn a_respawned_thread_adopts_the_ring_its_namesake_left() {
        let t = Telemetry::with_ring_capacity(8);
        let emit_from = |name: &str, events: usize| {
            let t = t.clone();
            std::thread::Builder::new()
                .name(name.to_string())
                .spawn(move || (0..events).for_each(|_| t.emit(EventKind::EpochInterrupt)))
                .unwrap()
        };
        for _ in 0..4 {
            emit_from("worker-0", 6).join().unwrap();
        }
        // 24 events through one 8-slot ring: the loss is counted on the ring
        // every incarnation shared, and a different name gets its own.
        emit_from("worker-1", 1).join().unwrap();
        let drained = t.drain();
        assert_eq!(drained.len(), 2, "one ring per name, not per spawn");
        assert_eq!((drained[0].0.as_str(), drained[0].1.len(), drained[0].2), ("worker-0", 8, 16));
        assert_eq!((drained[1].0.as_str(), drained[1].1.len(), drained[1].2), ("worker-1", 1, 0));
    }

    #[test]
    fn a_ring_whose_thread_is_alive_is_not_adopted() {
        let t = Telemetry::enabled();
        let (registered, wait_registered) = std::sync::mpsc::channel();
        let (release, wait_release) = std::sync::mpsc::channel::<()>();
        let spawn = |body: Box<dyn FnOnce() + Send>| {
            std::thread::Builder::new().name("twin".to_string()).spawn(body).unwrap()
        };
        let first = {
            let t = t.clone();
            spawn(Box::new(move || {
                t.emit(EventKind::FuelExhausted);
                registered.send(()).unwrap();
                wait_release.recv().unwrap();
                t.emit(EventKind::FuelExhausted);
            }))
        };
        wait_registered.recv().unwrap();
        let second = {
            let t = t.clone();
            spawn(Box::new(move || t.emit(EventKind::EpochInterrupt)))
        };
        second.join().unwrap();
        release.send(()).unwrap();
        first.join().unwrap();
        let mut sizes: Vec<usize> = t.drain().iter().map(|(_, events, _)| events.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, [1, 2], "two live threads of one name never share a ring");
    }

    #[test]
    fn a_panic_while_the_ring_registry_is_locked_leaves_the_sink_tracing() {
        let t = Telemetry::enabled();
        let sink = t.sink.as_deref().expect("enabled");
        t.emit(EventKind::FuelExhausted);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _rings = lock(&sink.rings);
                panic!("a thread dies holding the ring registry's lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(sink.rings.is_poisoned());
        // A new thread still registers a ring; drain and the loss count read.
        std::thread::scope(|s| {
            s.spawn(|| t.emit(EventKind::EpochInterrupt));
        });
        let sizes: Vec<usize> = t.drain().iter().map(|(_, events, _)| events.len()).collect();
        assert_eq!(sizes, [1, 1]);
        assert_eq!(t.dropped_events(), 0);
    }

    #[test]
    fn two_sinks_on_one_thread_stay_separate() {
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        a.emit(EventKind::CacheLookup { hit: true });
        b.emit(EventKind::FuelExhausted);
        b.emit(EventKind::FuelExhausted);
        let da = a.drain();
        let db = b.drain();
        assert_eq!(da.iter().map(|(_, e, _)| e.len()).sum::<usize>(), 1);
        assert_eq!(db.iter().map(|(_, e, _)| e.len()).sum::<usize>(), 2);
        assert_eq!(da[0].1[0].kind, EventKind::CacheLookup { hit: true });
    }

    #[test]
    fn timestamps_are_monotonic_and_sample_events_hit_both_paths() {
        let t = Telemetry::enabled();
        t.record_sample(7, Tier::Opt);
        t.record_sample(7, Tier::Opt);
        t.record_sample(2, Tier::Interp);
        assert_eq!(t.profiler().unwrap().total_samples(), 3);
        assert!(t.profiler().unwrap().share(7) > 0.6);
        let drained = t.drain();
        let events = &drained[0].1;
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert!(matches!(events[0].kind, EventKind::Sample { func: 7, tier: Tier::Opt }));
    }
}
