//! Multi-tenant engine registry: shared code, isolated budgets.
//!
//! A serving host runs many tenants, each with its own [`EngineConfig`]
//! (tier policy, metering, resource ceilings). Tenants whose configurations
//! emit the *same code* — identical
//! [`compile_fingerprint`](EngineConfig::compile_fingerprint), backend, and
//! optimizing-tier axis — should share compiled artifacts instead of each
//! paying compilation and memory for their own copy. [`MultiEngine`] is that
//! registry: it hands out [`Engine`]s wired to one shared [`CodeCache`] and
//! one shared epoch counter, so
//!
//! - two tenants instantiating the same module under code-compatible
//!   configurations hit the cache the second time (the [`crate::CacheKey`] already
//!   disambiguates every code-affecting axis, including metering), while
//! - each tenant keeps its own *execution* knobs — fuel budget, epoch
//!   deadline, memory/table/call-depth ceilings — which never affect emitted
//!   code and therefore never fragment the cache, and
//! - one supervisor call ([`MultiEngine::increment_epoch`]) preempts every
//!   tenant with an armed deadline, across all engines the registry built.

use crate::cache::CodeCache;
use crate::config::EngineConfig;
use crate::engine::Engine;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The registry key: every axis of a configuration that affects emitted
/// code. Configurations agreeing on all three produce byte-identical
/// artifacts and may share cache entries (the per-module [`crate::CacheKey`]
/// repeats these axes, so even engines handed out for *different* fingerprints
/// can share one cache safely — the map below exists for bookkeeping and the
/// [`MultiEngine::num_code_groups`] metric, not for correctness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CodeGroup {
    compile_fingerprint: u64,
    backend: machine::masm::CodeBackend,
    opt_fingerprint: u64,
}

/// A registry handing out [`Engine`]s that share one [`CodeCache`] and one
/// epoch counter across tenants (see the module docs).
#[derive(Debug, Default)]
pub struct MultiEngine {
    cache: Arc<CodeCache>,
    epoch: Arc<AtomicU64>,
    /// Distinct code groups observed, for introspection/metrics.
    groups: Mutex<Vec<CodeGroup>>,
}

impl MultiEngine {
    /// An empty registry with a fresh shared cache and epoch counter.
    pub fn new() -> MultiEngine {
        MultiEngine::default()
    }

    /// Builds a tenant engine under `config`, wired to the registry's shared
    /// code cache and epoch counter. Engines for code-compatible
    /// configurations share compiled artifacts automatically; engines for
    /// differing configurations coexist in the same cache under different
    /// keys.
    pub fn engine(&self, config: EngineConfig) -> Engine {
        let engine = Engine::new(config)
            .with_code_cache(Arc::clone(&self.cache))
            .with_epoch(Arc::clone(&self.epoch));
        let group = CodeGroup {
            compile_fingerprint: engine.compile_fingerprint,
            backend: engine.config().backend,
            opt_fingerprint: engine.opt_fingerprint,
        };
        let mut groups = self.groups.lock().expect("group registry poisoned");
        if !groups.contains(&group) {
            groups.push(group);
        }
        drop(groups);
        engine
    }

    /// The shared code cache (e.g. to read hit/miss counters).
    pub fn code_cache(&self) -> &Arc<CodeCache> {
        &self.cache
    }

    /// The shared epoch counter.
    pub fn epoch(&self) -> &Arc<AtomicU64> {
        &self.epoch
    }

    /// Advances the shared epoch, preempting every tenant instance with a
    /// reached deadline at its next check site (loop back-edge or call
    /// boundary) — across all engines this registry has built.
    pub fn increment_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// How many distinct code groups (sets of code-compatible
    /// configurations) this registry has handed engines out for.
    pub fn num_code_groups(&self) -> usize {
        self.groups.lock().expect("group registry poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResourceLimits;
    use spc::CompilerOptions;

    #[test]
    fn code_compatible_tenants_land_in_one_group() {
        let multi = MultiEngine::new();
        let a = EngineConfig::baseline("tenant-a", CompilerOptions::allopt());
        // Execution-only differences: same code group.
        let b = EngineConfig::baseline("tenant-b", CompilerOptions::allopt())
            .with_limits(ResourceLimits {
                memory_pages: Some(4),
                table_elements: None,
                call_depth: Some(100),
            })
            .with_lazy_compile(true);
        let _ea = multi.engine(a);
        let _eb = multi.engine(b);
        assert_eq!(multi.num_code_groups(), 1);
        // Metering changes emitted code: a second group.
        let c = EngineConfig::baseline("tenant-c", CompilerOptions::allopt()).with_metering();
        let _ec = multi.engine(c);
        assert_eq!(multi.num_code_groups(), 2);
    }

    #[test]
    fn engines_share_cache_and_epoch() {
        let multi = MultiEngine::new();
        let e1 = multi.engine(EngineConfig::default());
        let e2 = multi.engine(EngineConfig::default());
        assert!(Arc::ptr_eq(
            e1.code_cache().expect("wired"),
            e2.code_cache().expect("wired")
        ));
        assert!(Arc::ptr_eq(e1.epoch(), e2.epoch()));
        multi.increment_epoch();
        assert_eq!(e1.epoch().load(Ordering::Relaxed), 1);
        assert_eq!(e2.epoch().load(Ordering::Relaxed), 1);
    }
}
