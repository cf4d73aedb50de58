//! The sampling profiler's aggregation side: per-(function, tier) sample
//! counts.
//!
//! Samples are *driven* by the epoch machinery in the engine — every time an
//! execution loop notices the shared epoch advanced, it reports the function
//! and tier it is currently in. This module only aggregates: a sample is one
//! `HashMap` bump under a mutex, which is fine because samples arrive at
//! epoch granularity (≥100µs), not per instruction.

use crate::event::Tier;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Aggregated sampling profile over every activation a sink observed.
#[derive(Debug, Default)]
pub struct Profiler {
    samples: Mutex<HashMap<(u32, Tier), u64>>,
    total: AtomicU64,
}

/// One row of a profile: a (function, tier) bucket and its sample count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Function index (module function space).
    pub func: u32,
    /// Tier the samples were taken in.
    pub tier: Tier,
    /// Samples attributed to this bucket.
    pub samples: u64,
}

impl Profiler {
    /// An empty profile.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Records one sample of `func` executing in `tier`.
    pub fn record(&self, func: u32, tier: Tier) {
        *crate::lock(&self.samples)
            .entry((func, tier))
            .or_insert(0) += 1;
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far, across all buckets.
    pub fn total_samples(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Every bucket, hottest first (ties broken by function then tier for
    /// deterministic reports).
    pub fn snapshot(&self) -> Vec<ProfileEntry> {
        let mut rows: Vec<ProfileEntry> = crate::lock(&self.samples)
            .iter()
            .map(|(&(func, tier), &samples)| ProfileEntry { func, tier, samples })
            .collect();
        rows.sort_by(|a, b| {
            b.samples
                .cmp(&a.samples)
                .then(a.func.cmp(&b.func))
                .then(a.tier.cmp(&b.tier))
        });
        rows
    }

    /// Fraction of all samples attributed to `func` (any tier), in `[0, 1]`.
    pub fn share(&self, func: u32) -> f64 {
        let total = self.total_samples();
        if total == 0 {
            return 0.0;
        }
        let hits: u64 = crate::lock(&self.samples)
            .iter()
            .filter(|&(&(f, _), _)| f == func)
            .map(|(_, &n)| n)
            .sum();
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_by_function_and_tier() {
        let p = Profiler::new();
        for _ in 0..9 {
            p.record(3, Tier::Opt);
        }
        p.record(3, Tier::Baseline);
        p.record(7, Tier::Interp);
        assert_eq!(p.total_samples(), 11);
        let rows = p.snapshot();
        assert_eq!(rows[0], ProfileEntry { func: 3, tier: Tier::Opt, samples: 9 });
        assert_eq!(rows.len(), 3);
        assert!((p.share(3) - 10.0 / 11.0).abs() < 1e-12);
        assert_eq!(p.share(99), 0.0);
    }

    #[test]
    fn a_panic_while_the_counts_are_locked_leaves_the_profile_sampling() {
        let p = Profiler::new();
        p.record(1, Tier::Interp);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _samples = crate::lock(&p.samples);
                panic!("a thread dies holding the profile's lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(p.samples.is_poisoned());
        p.record(1, Tier::Interp);
        assert_eq!(p.snapshot(), vec![ProfileEntry { func: 1, tier: Tier::Interp, samples: 2 }]);
        assert_eq!(p.share(1), 1.0);
    }

    #[test]
    fn empty_profile_reports_gracefully() {
        let p = Profiler::new();
        assert_eq!(p.snapshot(), vec![]);
        assert_eq!(p.share(0), 0.0);
    }
}
