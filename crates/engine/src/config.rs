//! Engine configurations: which execution tier(s) to use and how.
//!
//! A configuration corresponds to one "engine configuration E" of the paper's
//! Section VI: a specific tier (or tier combination) with its own setup and
//! execution characteristics. The Fig. 10 experiment instantiates many of
//! these side by side.

use machine::masm::CodeBackend;
use spc::{CompilerOptions, ProbeMode, TagStrategy};
use wasm::hash::Fnv64;

/// Which execution tier(s) a configuration uses.
#[derive(Debug, Clone, PartialEq)]
pub enum TierPolicy {
    /// Execute everything in the in-place interpreter.
    InterpreterOnly,
    /// Execute everything in baseline-compiled code with the given compiler
    /// configuration.
    BaselineOnly(CompilerOptions),
    /// Execute everything in optimizing-compiled code.
    OptimizingOnly,
    /// Start in the interpreter, tier up a function to baseline code once it
    /// has been called `threshold` times, and — when `opt_threshold` is set
    /// — promote it again to the optimizing tier once it has been called
    /// that many times.
    Tiered {
        /// Number of calls before a function is baseline-compiled.
        threshold: u32,
        /// Number of calls before a function is promoted to the optimizing
        /// tier (`None` disables the third tier).
        opt_threshold: Option<u32>,
        /// Baseline compiler configuration used for hot functions.
        baseline: CompilerOptions,
    },
}

impl TierPolicy {
    /// True if this policy can ever run optimizing-compiled code.
    pub fn uses_opt_tier(&self) -> bool {
        matches!(
            self,
            TierPolicy::OptimizingOnly
                | TierPolicy::Tiered {
                    opt_threshold: Some(_),
                    ..
                }
        )
    }
}

/// Per-tenant resource ceilings enforced by the engine regardless of what a
/// module's own type section declares.
///
/// Limits compose with the module's declared limits by taking the minimum:
/// a module asking for an unbounded memory under a 16-page tenant limit gets
/// a memory that refuses to grow past 16 pages, and a module whose declared
/// minimum already exceeds a ceiling fails instantiation. The call-depth
/// ceiling caps [`EngineConfig::MAX_CALL_DEPTH`] the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum linear-memory size in 64 KiB pages (`None` = unlimited).
    pub memory_pages: Option<u32>,
    /// Maximum table size in elements (`None` = unlimited).
    pub table_elements: Option<u32>,
    /// Maximum call depth (`None` = use [`EngineConfig::MAX_CALL_DEPTH`]).
    pub call_depth: Option<usize>,
}

impl ResourceLimits {
    /// No ceilings: modules get exactly what they declare.
    pub fn unlimited() -> ResourceLimits {
        ResourceLimits {
            memory_pages: None,
            table_elements: None,
            call_depth: None,
        }
    }
}

impl Default for ResourceLimits {
    fn default() -> ResourceLimits {
        ResourceLimits::unlimited()
    }
}

/// A complete engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Configuration name (used in reports and figures).
    pub name: String,
    /// The tier policy.
    pub tier: TierPolicy,
    /// Compile functions lazily at first call instead of eagerly at
    /// instantiation (a confounding factor the paper calls out in Fig. 10).
    pub lazy_compile: bool,
    /// When JIT code fires a probe, transfer the frame back to the
    /// interpreter (tier-down / deopt) instead of continuing in JIT code.
    pub deopt_on_probe: bool,
    /// Which macro-assembler backend a compiled function's bytes come from.
    ///
    /// Execution always runs virtual-ISA code (the simulator cannot execute
    /// real machine bytes in this offline environment); selecting
    /// [`CodeBackend::X64`] additionally encodes each compiled function's
    /// virtual code through the x86-64 backend (`machine::masm::reemit` —
    /// the compiler still runs once) so [`crate::RunMetrics`] reports *real*
    /// encoded machine-code bytes instead of the virtual ISA's estimate.
    pub backend: CodeBackend,
    /// How many worker threads eager (instantiate-time) compilation shards
    /// across. `1` (the default) compiles on the calling thread; any higher count
    /// produces byte-identical code, since each function's compilation reads
    /// only immutable inputs (see [`crate::pipeline`]).
    pub compile_workers: usize,
    /// The host GC heap's collection threshold: a collection is requested at
    /// the next safe point once this many objects are live. `0` (the
    /// default) never requests collection — matching the seed behaviour
    /// where instances started with an inert heap — so GC-sensitive callers
    /// opt in explicitly.
    pub gc_threshold: usize,
    /// Thread deterministic fuel accounting and epoch-check sites through
    /// every execution tier. Metering changes the code the compiling tiers
    /// emit (fuel/epoch check sequences at block headers), so it is folded
    /// into [`EngineConfig::compile_fingerprint`]; runs with metering
    /// disabled pay nothing.
    pub metering: bool,
    /// Per-tenant resource ceilings (memory pages, table elements, call
    /// depth) enforced at instantiation and at `memory.grow`.
    pub limits: ResourceLimits,
    /// Loop back-edge count after which a running activation is transferred
    /// mid-loop into optimizing-tier code (on-stack replacement). `None`
    /// disables OSR; `Some(0)` requests the transition at the very first
    /// back edge. The counter piggybacks on the fused fuel/epoch meter-check
    /// sites, so interpreter and baseline hot loops pay no extra cold-path
    /// branch. Independent of the call-count promotion in
    /// [`TierPolicy::Tiered`]: OSR rescues hot *loops* the call counter is
    /// blind to. Enabling OSR changes the code both compiling tiers emit
    /// (loop-head poll sites in baseline code, entry stubs in optimized
    /// code), so the *enablement bit* — never the threshold value — is
    /// folded into [`EngineConfig::compile_fingerprint`] and
    /// [`EngineConfig::opt_fingerprint`].
    pub osr_threshold: Option<u32>,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig::baseline("wizeng-spc", CompilerOptions::allopt())
    }
}

impl EngineConfig {
    /// Call depth at which every configuration traps with a stack overflow;
    /// [`ResourceLimits::call_depth`] can only lower it.
    pub const MAX_CALL_DEPTH: usize = 10_000;

    /// The settings every constructor starts from: eager compilation, one
    /// compile worker, virtual-ISA backend, and every opt-in feature off.
    fn with_tier(name: &str, tier: TierPolicy) -> EngineConfig {
        EngineConfig {
            name: name.to_string(),
            tier,
            lazy_compile: false,
            deopt_on_probe: false,
            backend: CodeBackend::VirtualIsa,
            compile_workers: 1,
            gc_threshold: 0,
            metering: false,
            limits: ResourceLimits::unlimited(),
            osr_threshold: None,
        }
    }

    /// An interpreter-only configuration (the reproduction's Wizard-INT).
    pub fn interpreter(name: &str) -> EngineConfig {
        EngineConfig::with_tier(name, TierPolicy::InterpreterOnly)
    }

    /// A baseline-compiler-only configuration with the given options.
    pub fn baseline(name: &str, options: CompilerOptions) -> EngineConfig {
        EngineConfig::with_tier(name, TierPolicy::BaselineOnly(options))
    }

    /// An optimizing-compiler-only configuration.
    pub fn optimizing(name: &str) -> EngineConfig {
        EngineConfig::with_tier(name, TierPolicy::OptimizingOnly)
    }

    /// A two-tier configuration: interpreter first, baseline when hot.
    pub fn tiered(name: &str, threshold: u32, baseline: CompilerOptions) -> EngineConfig {
        let tier = TierPolicy::Tiered {
            threshold,
            opt_threshold: None,
            baseline,
        };
        EngineConfig::with_tier(name, tier).with_lazy_compile(true)
    }

    /// Adds the optimizing tier on top of this configuration: functions
    /// called more than `opt_threshold` times are recompiled by the
    /// SSA-based optimizing compiler (`crates/optc`) and promoted at their
    /// next activation. A [`EngineConfig::tiered`] configuration becomes
    /// three-tier (interpreter → baseline → optimizing); a baseline
    /// configuration becomes baseline-then-optimizing. Interpreter-only and
    /// optimizing-only configurations are unchanged.
    pub fn with_opt_tier(mut self, opt_threshold: u32) -> EngineConfig {
        self.tier = match self.tier {
            TierPolicy::Tiered {
                threshold,
                baseline,
                ..
            } => TierPolicy::Tiered {
                threshold,
                opt_threshold: Some(opt_threshold),
                baseline,
            },
            TierPolicy::BaselineOnly(baseline) => TierPolicy::Tiered {
                threshold: 0,
                opt_threshold: Some(opt_threshold),
                baseline,
            },
            other => other,
        };
        self
    }

    /// Marks this configuration as compiling lazily at first call.
    pub fn with_lazy_compile(mut self, lazy: bool) -> EngineConfig {
        self.lazy_compile = lazy;
        self
    }

    /// Enables tier-down to the interpreter when probes fire in JIT code.
    pub fn with_deopt_on_probe(mut self) -> EngineConfig {
        self.deopt_on_probe = true;
        self
    }

    /// Selects the macro-assembler backend the compiling tiers emit through
    /// (see [`EngineConfig::backend`]).
    pub fn with_backend(mut self, backend: CodeBackend) -> EngineConfig {
        self.backend = backend;
        self
    }

    /// Shards eager (instantiate-time) compilation across `workers` threads
    /// (see [`EngineConfig::compile_workers`]).
    pub fn with_compile_workers(mut self, workers: usize) -> EngineConfig {
        self.compile_workers = workers.max(1);
        self
    }

    /// Sets the host GC heap's collection threshold (see
    /// [`EngineConfig::gc_threshold`]).
    pub fn with_gc_threshold(mut self, threshold: usize) -> EngineConfig {
        self.gc_threshold = threshold;
        self
    }

    /// Enables deterministic fuel accounting and epoch-based preemption in
    /// every tier (see [`EngineConfig::metering`]).
    pub fn with_metering(mut self) -> EngineConfig {
        self.metering = true;
        self
    }

    /// Sets per-tenant resource ceilings (see [`EngineConfig::limits`]).
    pub fn with_limits(mut self, limits: ResourceLimits) -> EngineConfig {
        self.limits = limits;
        self
    }

    /// Enables on-stack replacement: after `threshold` back edges of any one
    /// loop, the running activation is transferred mid-loop into
    /// optimizing-tier code (see [`EngineConfig::osr_threshold`]). `0` means
    /// the first back edge already requests the transition. Has no effect on
    /// [`TierPolicy::OptimizingOnly`] configurations, which never run a
    /// lower tier.
    pub fn with_osr(mut self, threshold: u32) -> EngineConfig {
        self.osr_threshold = Some(threshold);
        self
    }

    /// A stable fingerprint of the *compiler-options* axes that affect the
    /// code the compiling tiers emit: the tier policy, the metering flag and
    /// each [`CompilerOptions`] feature axis. Labels (the configuration and
    /// options names) and execution-only knobs (call-depth limit, laziness,
    /// tier-up threshold, GC threshold, worker count) are
    /// deliberately excluded — configurations differing only in those
    /// produce byte-identical code and may share a cache entry. The
    /// [`EngineConfig::backend`] is *not* folded in either: it is its own
    /// axis of the cache key (see [`crate::cache::CacheKey`]), so pair this
    /// fingerprint with the backend when keying anything by it.
    pub fn compile_fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        // Metering changes emitted code in every compiling tier (fuel/epoch
        // check sequences at block headers), so it is a code-affecting axis.
        h.write_bool(self.metering);
        // So does enabling OSR (loop-head poll sites in baseline code); the
        // threshold value itself only decides *when* a transition happens.
        h.write_bool(self.osr_threshold.is_some());
        match &self.tier {
            TierPolicy::InterpreterOnly => {
                h.write_u8(0);
            }
            TierPolicy::BaselineOnly(options) => {
                h.write_u8(1);
                fold_options(&mut h, options);
            }
            TierPolicy::OptimizingOnly => {
                h.write_u8(2);
            }
            TierPolicy::Tiered { baseline, .. } => {
                h.write_u8(3);
                fold_options(&mut h, baseline);
            }
        }
        h.finish()
    }

    /// A stable fingerprint of the optimizing-tier axis: `0` when this
    /// configuration never runs the optimizing compiler, the optimizing
    /// pipeline's own fingerprint otherwise. Its own [`crate::cache::CacheKey`]
    /// field, so artifacts built with and without the optimizing tier never
    /// alias (their opt code slots differ). The promotion *threshold* is
    /// deliberately excluded: it decides when code is produced, not what
    /// code.
    pub fn opt_fingerprint(&self) -> u64 {
        // OSR reaches the optimizing tier without a call-count promotion
        // policy, and OSR-enabled opt code differs (entry stubs, reserved
        // interpreter operand region), so both axes fold in here.
        if self.tier.uses_opt_tier() || self.osr_threshold.is_some() {
            let mut h = Fnv64::new();
            h.write_u64(optc::OptimizingCompiler::pipeline_fingerprint())
                .write_bool(self.osr_threshold.is_some());
            h.finish()
        } else {
            0
        }
    }

    /// The baseline compiler options of this configuration, if any tier uses
    /// the baseline compiler.
    pub fn baseline_options(&self) -> Option<&CompilerOptions> {
        match &self.tier {
            TierPolicy::BaselineOnly(o) => Some(o),
            TierPolicy::Tiered { baseline, .. } => Some(baseline),
            _ => None,
        }
    }
}

/// Folds every semantic [`CompilerOptions`] axis (not the display name) into
/// a fingerprint. Each axis changes the code the baseline compiler emits
/// (held by `every_folded_axis_changes_emitted_code` below), with one
/// documented exception: `extra_lowering_pass` emits identical code but
/// lengthens the compile, and a cached artifact carries its functions'
/// `compile_wall` — a configuration that models the slower compiler must not
/// be handed the timings of one that does not.
fn fold_options(h: &mut Fnv64, options: &CompilerOptions) {
    h.write_bool(options.multi_register)
        .write_bool(options.track_constants)
        .write_bool(options.constant_folding)
        .write_bool(options.instruction_selection)
        .write_u8(match options.tagging {
            TagStrategy::None => 0,
            TagStrategy::Eager => 1,
            TagStrategy::EagerOperandsOnly => 2,
            TagStrategy::EagerLocalsOnly => 3,
            TagStrategy::OnDemand => 4,
            TagStrategy::Lazy => 5,
            TagStrategy::Stackmaps => 6,
        })
        .write_bool(options.multi_value)
        .write_u8(match options.probe_mode {
            ProbeMode::Runtime => 0,
            ProbeMode::Optimized => 1,
        })
        .write_bool(options.extra_lowering_pass)
        .write_bool(options.debug_metadata);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Instrumentation;
    use crate::pipeline::{self, CompileTier};
    use machine::asm::CodeBuffer;

    #[test]
    fn constructors_set_tiers() {
        let i = EngineConfig::interpreter("wizeng-int");
        assert_eq!(i.tier, TierPolicy::InterpreterOnly);
        assert!(i.baseline_options().is_none());

        let b = EngineConfig::baseline("spc", CompilerOptions::allopt());
        assert!(matches!(b.tier, TierPolicy::BaselineOnly(_)));
        assert_eq!(b.baseline_options().unwrap().name, "allopt");

        let t = EngineConfig::tiered("tiered", 10, CompilerOptions::allopt());
        assert!(t.lazy_compile);
        assert!(t.baseline_options().is_some());

        let o = EngineConfig::optimizing("opt");
        assert!(matches!(o.tier, TierPolicy::OptimizingOnly));
    }

    #[test]
    fn builder_modifiers() {
        let c = EngineConfig::interpreter("jsc-int-like").with_lazy_compile(true);
        assert!(c.lazy_compile);
        let d = EngineConfig::default().with_deopt_on_probe();
        assert!(d.deopt_on_probe);
        assert_eq!(d.backend, CodeBackend::VirtualIsa);
        let x = EngineConfig::default().with_backend(CodeBackend::X64);
        assert_eq!(x.backend, CodeBackend::X64);
    }

    #[test]
    fn pipeline_knobs_default_off_and_build() {
        let d = EngineConfig::default();
        assert_eq!(d.compile_workers, 1);
        assert_eq!(d.gc_threshold, 0);
        let c = EngineConfig::default().with_compile_workers(8).with_gc_threshold(64);
        assert_eq!(c.compile_workers, 8);
        assert_eq!(c.gc_threshold, 64);
        assert_eq!(
            EngineConfig::default().with_compile_workers(0).compile_workers,
            1,
            "at least one worker"
        );
    }

    #[test]
    fn compile_fingerprint_tracks_code_affecting_axes_only() {
        let base = EngineConfig::baseline("a", CompilerOptions::allopt());
        let fp = base.compile_fingerprint();
        // Non-semantic differences keep the fingerprint.
        assert_eq!(fp, EngineConfig::baseline("z", CompilerOptions::allopt()).compile_fingerprint());
        assert_eq!(fp, base.clone().with_lazy_compile(true).compile_fingerprint());
        assert_eq!(fp, base.clone().with_compile_workers(8).compile_fingerprint());
        assert_eq!(fp, base.clone().with_gc_threshold(10).compile_fingerprint());
        // The backend is deliberately NOT part of this fingerprint — it is a
        // separate axis of the cache key.
        assert_eq!(fp, base.clone().with_backend(CodeBackend::X64).compile_fingerprint());
        // Resource limits are execution-only: they never change emitted code.
        assert_eq!(
            fp,
            base.clone()
                .with_limits(ResourceLimits {
                    memory_pages: Some(4),
                    table_elements: Some(8),
                    call_depth: Some(100),
                })
                .compile_fingerprint()
        );
        // Metering changes emitted code, so it changes the fingerprint.
        assert_ne!(fp, base.clone().with_metering().compile_fingerprint());
        // Code-affecting differences change it.
        assert_ne!(fp, EngineConfig::baseline("a", CompilerOptions::nok()).compile_fingerprint());
        assert_ne!(fp, EngineConfig::interpreter("a").compile_fingerprint());
        assert_ne!(fp, EngineConfig::optimizing("a").compile_fingerprint());
        // Tiered with the same baseline options differs only by tier tag.
        let tiered = EngineConfig::tiered("a", 10, CompilerOptions::allopt());
        assert_ne!(fp, tiered.compile_fingerprint());
        assert_eq!(
            tiered.compile_fingerprint(),
            EngineConfig::tiered("b", 99, CompilerOptions::allopt()).compile_fingerprint(),
            "the tier-up threshold does not affect emitted code"
        );
    }

    /// What `config`'s baseline tier emits for every function of `module`
    /// with the branch monitor attached: the code, or the compile error.
    fn emitted(config: &EngineConfig, module: &wasm::Module) -> Vec<Result<CodeBuffer, String>> {
        let info = wasm::validate::validate(module).unwrap();
        let probes = Instrumentation::branch_monitor(module);
        (0..module.funcs.len() as u32)
            .map(|defined| {
                let func_index = module.defined_to_func_index(defined);
                pipeline::compile_function(
                    config,
                    CompileTier::Baseline,
                    module,
                    func_index,
                    &info.funcs[defined as usize],
                    &probes.sites_for(func_index),
                    None,
                )
                .map(|artifact| artifact.function.code)
                .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// The audit behind the cache key: every axis `compile_fingerprint` folds
    /// changes what the baseline compiler emits for the opcode-exhaustive
    /// module, so no two configurations are kept apart in the cache for
    /// nothing. The exceptions are listed, not hidden.
    #[test]
    fn every_folded_axis_changes_emitted_code() {
        let flip = |edit: fn(&mut CompilerOptions)| {
            let mut options = CompilerOptions::allopt();
            edit(&mut options);
            EngineConfig::baseline("flipped", options)
        };
        let base = EngineConfig::baseline("base", CompilerOptions::allopt());
        let exhaustive = conform::coverage::exhaustive_module();
        // The exhaustive module is single-value throughout; the multi-value
        // axis decides whether this one compiles at all.
        let two_results: wasm::Module =
            wasm::wat::parse_module("(module (func (result i32 i32) i32.const 1 i32.const 2))")
                .unwrap();
        let cases: Vec<(&str, EngineConfig, &wasm::Module)> = vec![
            ("metering", base.clone().with_metering(), &exhaustive),
            ("osr", base.clone().with_osr(100), &exhaustive),
            ("multi_register", flip(|o| o.multi_register = false), &exhaustive),
            ("track_constants", flip(|o| o.track_constants = false), &exhaustive),
            ("constant_folding", flip(|o| o.constant_folding = false), &exhaustive),
            ("instruction_selection", flip(|o| o.instruction_selection = false), &exhaustive),
            ("tagging: none", flip(|o| o.tagging = TagStrategy::None), &exhaustive),
            ("tagging: eager", flip(|o| o.tagging = TagStrategy::Eager), &exhaustive),
            (
                "tagging: eager operands",
                flip(|o| o.tagging = TagStrategy::EagerOperandsOnly),
                &exhaustive,
            ),
            (
                "tagging: eager locals",
                flip(|o| o.tagging = TagStrategy::EagerLocalsOnly),
                &exhaustive,
            ),
            ("tagging: lazy", flip(|o| o.tagging = TagStrategy::Lazy), &exhaustive),
            ("tagging: stackmaps", flip(|o| o.tagging = TagStrategy::Stackmaps), &exhaustive),
            ("multi_value", flip(|o| o.multi_value = false), &two_results),
            ("probe_mode", flip(|o| o.probe_mode = ProbeMode::Runtime), &exhaustive),
            ("debug_metadata", flip(|o| o.debug_metadata = false), &exhaustive),
        ];
        for (axis, flipped, module) in &cases {
            assert_ne!(base.compile_fingerprint(), flipped.compile_fingerprint(), "{axis}");
            assert_ne!(emitted(&base, module), emitted(flipped, module), "{axis} emits the same code");
        }
        // The one timing-only axis (see `fold_options`): same code, longer
        // compile, and the artifact records the compile time.
        let slow = flip(|o| o.extra_lowering_pass = true);
        assert_ne!(base.compile_fingerprint(), slow.compile_fingerprint());
        assert_eq!(emitted(&base, &exhaustive), emitted(&slow, &exhaustive));
        // The tier tag is the policy's identity, not a code axis: a tiered
        // configuration's baseline code is the baseline-only configuration's.
        let tiered = EngineConfig::tiered("tiered", 10, CompilerOptions::allopt());
        assert_ne!(base.compile_fingerprint(), tiered.compile_fingerprint());
        assert_eq!(emitted(&base, &exhaustive), emitted(&tiered, &exhaustive));
    }

    #[test]
    fn with_opt_tier_extends_tiered_and_baseline_policies() {
        let t = EngineConfig::tiered("t", 2, CompilerOptions::allopt()).with_opt_tier(5);
        match &t.tier {
            TierPolicy::Tiered {
                threshold,
                opt_threshold,
                ..
            } => {
                assert_eq!(*threshold, 2);
                assert_eq!(*opt_threshold, Some(5));
            }
            other => panic!("{other:?}"),
        }
        assert!(t.tier.uses_opt_tier());

        let b = EngineConfig::baseline("b", CompilerOptions::allopt()).with_opt_tier(3);
        match &b.tier {
            TierPolicy::Tiered {
                threshold,
                opt_threshold,
                ..
            } => {
                assert_eq!(*threshold, 0, "baseline from the first call");
                assert_eq!(*opt_threshold, Some(3));
            }
            other => panic!("{other:?}"),
        }

        let i = EngineConfig::interpreter("i").with_opt_tier(3);
        assert_eq!(i.tier, TierPolicy::InterpreterOnly, "interpreter unchanged");
        assert!(!EngineConfig::tiered("t", 2, CompilerOptions::allopt())
            .tier
            .uses_opt_tier());
        assert!(EngineConfig::optimizing("o").tier.uses_opt_tier());
    }

    #[test]
    fn metering_and_limits_default_off() {
        let d = EngineConfig::default();
        assert!(!d.metering);
        assert_eq!(d.limits, ResourceLimits::unlimited());
        let m = EngineConfig::default().with_metering().with_limits(ResourceLimits {
            memory_pages: Some(16),
            table_elements: None,
            call_depth: Some(64),
        });
        assert!(m.metering);
        assert_eq!(m.limits.memory_pages, Some(16));
        assert_eq!(m.limits.call_depth, Some(64));
    }

    #[test]
    fn opt_fingerprint_separates_the_opt_axis() {
        let plain = EngineConfig::tiered("t", 2, CompilerOptions::allopt());
        let with_opt = plain.clone().with_opt_tier(5);
        assert_eq!(plain.opt_fingerprint(), 0);
        assert_ne!(with_opt.opt_fingerprint(), 0);
        assert_eq!(
            with_opt.opt_fingerprint(),
            plain.clone().with_opt_tier(99).opt_fingerprint(),
            "the promotion threshold does not affect emitted code"
        );
        assert_eq!(
            with_opt.opt_fingerprint(),
            EngineConfig::optimizing("o").opt_fingerprint()
        );
        // The baseline axis is unchanged by adding the optimizing tier.
        assert_eq!(plain.compile_fingerprint(), with_opt.compile_fingerprint());
    }
}
