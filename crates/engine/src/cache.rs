//! The keyed code cache: share compiled modules across instantiations.
//!
//! The serve-many-requests scenario instantiates the same module over and
//! over — exactly the workload where recompiling (or even revalidating) per
//! instance is pure waste. A [`CodeCache`] maps a [`CacheKey`] to the shared
//! [`CompiledModule`] artifact, so a warm instantiation skips validation,
//! preparation, and compilation entirely and only builds the instance's
//! mutable runtime state.
//!
//! The key covers every input that affects emitted code:
//!
//! * the module's *content* ([`Module::content_hash`] — stable FNV-1a over
//!   the binary encoding, so it is independent of how the in-memory value
//!   was produced);
//! * a fingerprint of the compiler-relevant configuration
//!   ([`EngineConfig::compile_fingerprint`] — tier policy and every
//!   [`CompilerOptions`](spc::CompilerOptions) axis, but *not* labels like
//!   the configuration name or execution-only knobs like the tier-up
//!   threshold);
//! * the code [`CodeBackend`];
//! * a fingerprint of the attached instrumentation
//!   ([`Instrumentation::fingerprint`]), because probes are baked into
//!   generated code.
//!
//! Computing the key costs the same for every module size: a [`Module`] is
//! an immutable shared value that hashes its contents once and hands the
//! memo to every clone, and an [`Engine`](crate::engine::Engine) computes
//! its two configuration fingerprints when it is built. What remains per
//! lookup is the instrumentation fingerprint and a map probe.
//!
//! One cache can serve several engines
//! (`Engine::new(config).with_code_cache(Arc::clone(&cache))`): tenants whose
//! configurations differ only in execution knobs (resource ceilings,
//! thresholds, lazy compilation) share entries, because those knobs are not
//! in the key. The content hash is 64 bits and one cache serves every module
//! of every tenant, so the key alone does not decide a hit:
//! [`CodeCache::lookup`] also takes the module and returns the resident
//! artifact only if it was built from that module — the same allocation in
//! the steady state (the artifact keeps the handle it was built from), equal
//! contents otherwise. An artifact of a different module under the same key
//! is a miss; the caller compiles its own, and [`CodeCache::insert`] leaves
//! the resident entry where it is.

use crate::config::EngineConfig;
use crate::monitor::Instrumentation;
use crate::pipeline::CompiledModule;
use machine::masm::CodeBackend;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wasm::module::Module;

/// The lookup key of one cached [`CompiledModule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`Module::content_hash`] of the module.
    pub content_hash: u64,
    /// [`EngineConfig::compile_fingerprint`] of the configuration.
    pub options_fingerprint: u64,
    /// The macro-assembler backend code is emitted through.
    pub backend: CodeBackend,
    /// [`Instrumentation::fingerprint`] of the attached instrumentation.
    pub instrumentation_fingerprint: u64,
    /// [`EngineConfig::opt_fingerprint`] — the optimizing-tier axis. `0`
    /// for configurations without an optimizing tier, the optimizing
    /// pipeline's fingerprint otherwise, so baseline-only and opt-enabled
    /// artifacts never alias.
    pub opt_fingerprint: u64,
}

impl CacheKey {
    /// Computes the key for instantiating `module` under `config` with
    /// `instrumentation` attached.
    pub fn for_instantiation(
        config: &EngineConfig,
        module: &Module,
        instrumentation: &Instrumentation,
    ) -> CacheKey {
        CacheKey {
            content_hash: module.content_hash(),
            options_fingerprint: config.compile_fingerprint(),
            backend: config.backend,
            instrumentation_fingerprint: instrumentation.fingerprint(),
            opt_fingerprint: config.opt_fingerprint(),
        }
    }
}

/// A point-in-time snapshot of a [`CodeCache`]'s observable state, cheap to
/// embed in per-instance metrics so serving harnesses can report cache
/// behavior without holding a handle to the cache itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cached artifacts.
    pub entries: u64,
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Machine-code bytes resident across all entries, counting every
    /// published tier. Grows as lazy/tier-up compilations publish into
    /// cached artifacts, so two snapshots bracket the code produced between
    /// them.
    pub resident_machine_bytes: u64,
}

/// A thread-safe map from [`CacheKey`] to the shared compiled-module
/// artifact, with hit/miss counters.
///
/// The cache holds [`Arc`]s, so entries stay alive while any instance uses
/// them; lazily-compiled functions published into a cached artifact are
/// visible to every past and future instantiation sharing it.
#[derive(Debug, Default)]
pub struct CodeCache {
    entries: Mutex<HashMap<CacheKey, Arc<CompiledModule>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CodeCache {
    /// Creates an empty cache.
    pub fn new() -> CodeCache {
        CodeCache::default()
    }

    /// Looks up the artifact of `module` under `key`, counting the outcome
    /// as a hit or miss. An entry built from a different module (a
    /// content-hash collision) is a miss.
    pub fn lookup(&self, key: &CacheKey, module: &Module) -> Option<Arc<CompiledModule>> {
        let resident = crate::lock(&self.entries).get(key).cloned();
        // Compared outside the lock: equality of two separately decoded
        // copies walks the module.
        match resident {
            Some(artifact) if artifact.module() == module => {
                self.hits.fetch_add(1, Ordering::SeqCst);
                Some(artifact)
            }
            _ => {
                self.misses.fetch_add(1, Ordering::SeqCst);
                None
            }
        }
    }

    /// Inserts the artifact for a key, unless one is already resident (the
    /// first artifact stays: instances hold it, and a colliding module must
    /// not evict it).
    pub fn insert(&self, key: CacheKey, artifact: Arc<CompiledModule>) {
        crate::lock(&self.entries).entry(key).or_insert(artifact);
    }

    /// The number of cached artifacts.
    pub fn len(&self) -> usize {
        crate::lock(&self.entries).len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::SeqCst)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::SeqCst)
    }

    /// Drops every cached artifact (counters are preserved).
    pub fn clear(&self) {
        crate::lock(&self.entries).clear();
    }

    /// Machine-code bytes resident across all cached artifacts (every
    /// published tier of every entry). Computed on demand: artifacts gain
    /// code as lazy and tier-up compilations publish, so a stored total
    /// would go stale.
    fn resident_machine_bytes(&self) -> u64 {
        crate::lock(&self.entries)
            .values()
            .map(|artifact| artifact.machine_bytes())
            .sum()
    }

    /// Snapshots entries, hit/miss counters, and resident code size at once.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len() as u64,
            hits: self.hits(),
            misses: self.misses(),
            resident_machine_bytes: self.resident_machine_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ResourceLimits;
    use crate::engine::{Engine, Imports};
    use machine::masm::CodeBackend;
    use spc::{CompilerOptions, TagStrategy};
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::types::FuncType;

    fn module(body_const: i32) -> Module {
        let mut b = ModuleBuilder::new();
        let mut c = CodeBuilder::new();
        // A conditional branch so the branch monitor attaches a probe.
        c.block(wasm::BlockType::Empty)
            .i32_const(body_const)
            .br_if(0)
            .end()
            .i32_const(body_const);
        let f = b.add_func(
            FuncType::new(vec![], vec![wasm::ValueType::I32]),
            vec![],
            c.finish(),
        );
        b.export_func("main", f);
        b.finish()
    }

    #[test]
    fn key_separates_every_axis() {
        let m1 = module(1);
        let base = EngineConfig::baseline("a", CompilerOptions::allopt());
        let key = |config: &EngineConfig, m: &Module| {
            CacheKey::for_instantiation(config, m, &Instrumentation::none())
        };
        let k = key(&base, &m1);
        assert_eq!(k, key(&base, &m1), "keys are deterministic");
        // Same semantics, different label: the key must not change.
        let renamed = EngineConfig::baseline("b", CompilerOptions::allopt());
        assert_eq!(k, key(&renamed, &m1), "configuration names are not semantic");
        // Different module content.
        assert_ne!(k, key(&base, &module(2)));
        // Different compiler options.
        let notags = EngineConfig::baseline(
            "a",
            CompilerOptions::with_tagging(TagStrategy::None, "notags"),
        );
        assert_ne!(k, key(&notags, &m1));
        // Different backend.
        let x64 = base.clone().with_backend(CodeBackend::X64);
        assert_ne!(k, key(&x64, &m1));
        // The optimizing tier is its own key axis.
        let opt = base.clone().with_opt_tier(4);
        assert_ne!(k, key(&opt, &m1), "opt-enabled artifacts never alias baseline ones");
        // Different instrumentation.
        let probed = CacheKey::for_instantiation(&base, &m1, &Instrumentation::branch_monitor(&m1));
        assert_ne!(k, probed);
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let cache = CodeCache::new();
        let m = module(3);
        let config = EngineConfig::default();
        let key = CacheKey::for_instantiation(&config, &m, &Instrumentation::none());
        assert!(cache.lookup(&key, &m).is_none());
        assert!(cache.is_empty());
        let artifact = Arc::new(CompiledModule::build(m.clone()).unwrap());
        cache.insert(key, Arc::clone(&artifact));
        assert_eq!(cache.len(), 1);
        let found = cache.lookup(&key, &m).expect("cached");
        assert!(Arc::ptr_eq(&found, &artifact), "the artifact itself is shared");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.clear();
        assert!(cache.lookup(&key, &m).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn lookup_confirms_the_module_and_insert_keeps_the_resident_entry() {
        let cache = CodeCache::new();
        let (a, b) = (module(3), module(4));
        let config = EngineConfig::default();
        let key = CacheKey::for_instantiation(&config, &a, &Instrumentation::none());
        // An artifact of `b` filed under `a`'s key, as a hash collision would.
        let of_b = Arc::new(CompiledModule::build(b.clone()).unwrap());
        cache.insert(key, Arc::clone(&of_b));
        assert!(cache.lookup(&key, &a).is_none(), "not a's artifact");
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(key, Arc::new(CompiledModule::build(a).unwrap()));
        let resident = cache.lookup(&key, &b).expect("b's artifact is still resident");
        assert!(Arc::ptr_eq(&resident, &of_b));
        // A separately built copy of the same contents is the same module.
        assert!(cache.lookup(&key, &module(4)).is_some());
    }

    #[test]
    fn a_panic_while_the_map_is_locked_leaves_the_cache_serving() {
        let cache = CodeCache::new();
        let config = EngineConfig::default();
        let key_of = |m: &Module| CacheKey::for_instantiation(&config, m, &Instrumentation::none());
        let m = module(6);
        let key = key_of(&m);
        cache.insert(key, Arc::new(CompiledModule::build(m.clone()).unwrap()));
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _entries = crate::lock(&cache.entries);
                panic!("a thread dies holding the cache's lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(cache.entries.is_poisoned());
        assert!(cache.lookup(&key, &m).is_some(), "the resident entry still hits");
        let other = module(7);
        cache.insert(key_of(&other), Arc::new(CompiledModule::build(other).unwrap()));
        assert_eq!(cache.stats().entries, 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn code_compatible_tenants_share_one_cache_entry() {
        let cache = Arc::new(CodeCache::new());
        let m = module(5);
        let instantiate = |config: EngineConfig| {
            Engine::new(config)
                .with_code_cache(Arc::clone(&cache))
                .instantiate(&m, Imports::new(), Instrumentation::none())
                .expect("instantiates");
            cache.len()
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
}
