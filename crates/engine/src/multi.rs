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
use std::sync::Arc;

/// A registry handing out [`Engine`]s that share one [`CodeCache`] and one
/// epoch counter across tenants (see the module docs).
#[derive(Debug, Default)]
pub struct MultiEngine {
    cache: Arc<CodeCache>,
    epoch: Arc<AtomicU64>,
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
        Engine::new(config)
            .with_code_cache(Arc::clone(&self.cache))
            .with_epoch(Arc::clone(&self.epoch))
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

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResourceLimits;
    use crate::engine::Imports;
    use crate::monitor::Instrumentation;
    use spc::CompilerOptions;
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::types::FuncType;

    #[test]
    fn code_compatible_tenants_share_one_cache_entry() {
        let multi = MultiEngine::new();
        let mut b = ModuleBuilder::new();
        b.add_func(FuncType::new(vec![], vec![]), vec![], CodeBuilder::new().finish());
        let module = b.finish();
        let instantiate = |config: EngineConfig| {
            multi
                .engine(config)
                .instantiate(&module, Imports::new(), Instrumentation::none())
                .expect("instantiates");
            multi.code_cache().len()
        };
        let a = EngineConfig::baseline("tenant-a", CompilerOptions::allopt());
        // Execution-only differences: the same code, one entry.
        let b = EngineConfig::baseline("tenant-b", CompilerOptions::allopt())
            .with_limits(ResourceLimits {
                memory_pages: Some(4),
                table_elements: None,
                call_depth: Some(100),
            })
            .with_lazy_compile(true);
        assert_eq!(instantiate(a), 1);
        assert_eq!(instantiate(b), 1);
        // Metering changes emitted code: a second entry.
        let c = EngineConfig::baseline("tenant-c", CompilerOptions::allopt()).with_metering();
        assert_eq!(instantiate(c), 2);
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
