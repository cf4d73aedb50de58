//! The metrics registry: named counters and log-bucketed histograms, all
//! plain atomics on the update path.
//!
//! Handles ([`Counter`], [`Histogram`]) are cheap `Arc` clones of the
//! registered instrument, so hot paths look a name up once and then update
//! lock-free. [`MetricsRegistry::snapshot`] captures a point-in-time view.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Log₂ histogram buckets: values land in bucket `bit_length(value)`, so
/// bucket `i > 0` covers `[2^(i-1), 2^i)` and bucket 0 holds zeros.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A log₂-bucketed histogram of `u64` samples (latencies in µs, fuel units,
/// byte counts). Recording is a handful of relaxed atomic updates; exact
/// percentiles are traded for fixed memory and lock-freedom — a percentile
/// query answers with its bucket's upper bound.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

/// The bucket a value lands in: its bit length (0 for 0).
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        let core = &*self.0;
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let core = &*self.0;
        let count = core.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: core.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                core.min.load(Ordering::Relaxed)
            },
            max: core.max.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| core.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket sample counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// The `p`-th percentile (0–100), answered as the upper bound of the
    /// bucket containing that rank — an overestimate by at most 2×, the
    /// resolution log bucketing buys its fixed footprint with. The true
    /// min/max are tracked exactly and clamp the answer.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let upper = if i == 0 { 0 } else { (1u64 << (i - 1)).saturating_mul(2) - 1 };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A named collection of instruments.
///
/// Names are registered on first use; looking up an existing name returns a
/// handle to the same instrument, so independent call sites incrementing
/// `"serve.requests"` share one counter.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        crate::lock(&self.counters)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        crate::lock(&self.histograms)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Captures every instrument's current value, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: crate::lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: crate::lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time view of a whole [`MetricsRegistry`], ready to serialize.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruments_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(2);
        reg.counter("a").inc();
        assert_eq!(reg.counter("a").get(), 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters, vec![("a".to_string(), 3)]);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);

        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let (name, hs) = &snap.histograms[0];
        assert_eq!(name, "lat");
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1106);
        assert_eq!((hs.min, hs.max), (1, 1000));
        // p50 of [1,2,3,100,1000] has rank 3 → the bucket of 3 ([2,4)).
        assert_eq!(hs.percentile(50.0), 3);
        // p100 lands in 1000's bucket [512, 1024), clamped to max.
        assert_eq!(hs.percentile(100.0), 1000);
        assert_eq!(hs.percentile(0.0), 1, "clamped to true min");
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        let reg = MetricsRegistry::new();
        reg.histogram("h");
        let snap = reg.snapshot();
        let hs = &snap.histograms[0].1;
        assert_eq!((hs.count, hs.min, hs.max), (0, 0, 0));
        assert_eq!(hs.percentile(99.0), 0);
    }

    /// Poisons `mutex`: a thread takes its guard and panics.
    fn poison<T: Send>(mutex: &Mutex<T>) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = crate::lock(mutex);
                panic!("a thread dies holding the lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(mutex.is_poisoned());
    }

    #[test]
    fn a_panic_while_the_counters_are_locked_leaves_the_registry_counting() {
        let reg = MetricsRegistry::new();
        reg.counter("a").inc();
        poison(&reg.counters);
        reg.counter("a").inc();
        reg.counter("b").inc();
        assert_eq!(reg.snapshot().counters, vec![("a".to_string(), 2), ("b".to_string(), 1)]);
    }

    #[test]
    fn a_panic_while_the_histograms_are_locked_leaves_the_registry_recording() {
        let reg = MetricsRegistry::new();
        reg.histogram("lat").record(3);
        poison(&reg.histograms);
        reg.histogram("lat").record(5);
        let snap = reg.snapshot();
        assert_eq!((snap.histograms[0].0.as_str(), snap.histograms[0].1.count), ("lat", 2));
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let reg = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("hits");
                    let h = reg.histogram("lat");
                    for i in 0..1000 {
                        c.inc();
                        h.record(i);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("hits").get(), 4000);
        assert_eq!(reg.histogram("lat").count(), 4000);
    }
}
