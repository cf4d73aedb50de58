//! Compiler options: the feature axes of the paper's Fig. 3 and the
//! optimization / tagging configurations evaluated in Figs. 4–6.

/// How the compiler makes garbage-collection roots findable in frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagStrategy {
    /// No tags and no stackmaps: the host does no precise GC (wazero,
    /// wasm-now, wasmer-base in the paper's Fig. 3).
    None,
    /// Store value tags for every slot write at every instruction — the
    /// worst-case configuration, "exactly as an interpreter would do".
    Eager,
    /// Eagerly store tags for operand-stack slots only.
    EagerOperandsOnly,
    /// Eagerly store tags for local slots only.
    EagerLocalsOnly,
    /// Store tags on demand: only across observable points (calls, traps,
    /// probes), tracked by the abstract state. Wizard-SPC's default.
    OnDemand,
    /// Like on-demand, but locals are never tagged at runtime; the stack
    /// walker reconstructs their tags from the function's local declarations.
    Lazy,
    /// No dynamic tags; emit per-call-site stackmaps instead (v8-liftoff and
    /// sm-base).
    Stackmaps,
}

impl TagStrategy {
    /// True if this strategy ever emits dynamic tag stores.
    pub fn uses_tags(self) -> bool {
        !matches!(self, TagStrategy::None | TagStrategy::Stackmaps)
    }

    /// True if this strategy emits stackmap metadata.
    pub fn uses_stackmaps(self) -> bool {
        self == TagStrategy::Stackmaps
    }
}

/// How probes are compiled into JIT code (the Fig. 6 configurations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeMode {
    /// Call into the runtime, which looks up the probes attached at the site
    /// and fires them through a frame accessor (the unoptimized `jit`
    /// configuration).
    Runtime,
    /// Statically determine the attached probes and emit direct calls,
    /// intrinsifying counter probes and top-of-stack probes (`optjit`).
    Optimized,
}

/// All single-pass compiler options.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerOptions {
    /// Human-readable name of this configuration (used in reports).
    pub name: String,
    /// Allow one register to cache more than one slot ("multiple register
    /// allocation", the `MR` feature). Disabling is the paper's `nomr`.
    pub multi_register: bool,
    /// Track constants in abstract values (`K`). Disabling is `nok`.
    pub track_constants: bool,
    /// Fold constant expressions and branches at compile time (`KF`).
    /// Disabling is `nokfold`.
    pub constant_folding: bool,
    /// Select immediate-mode instructions when an operand is a known
    /// constant (`ISEL`). Disabling is `noisel`.
    pub instruction_selection: bool,
    /// How GC roots are made findable.
    pub tagging: TagStrategy,
    /// Support multi-value blocks and functions (`MV`).
    pub multi_value: bool,
    /// How probes are compiled.
    pub probe_mode: ProbeMode,
    /// Perform an extra internal lowering pass before code generation,
    /// modelling engines (wazero) that translate to an intermediate form.
    pub extra_lowering_pass: bool,
    /// Record a bytecode source map entry per instruction (full-fidelity
    /// debugging / tier transfer). Engines without baseline debugging
    /// support skip this.
    pub debug_metadata: bool,
}

impl Default for CompilerOptions {
    /// The default configuration is Wizard-SPC's `allopt`.
    fn default() -> CompilerOptions {
        CompilerOptions::allopt()
    }
}

impl CompilerOptions {
    /// `allopt`: every optimization enabled, on-demand tagging (Wizard-SPC's
    /// default configuration).
    pub fn allopt() -> CompilerOptions {
        CompilerOptions {
            name: "allopt".to_string(),
            multi_register: true,
            track_constants: true,
            constant_folding: true,
            instruction_selection: true,
            tagging: TagStrategy::OnDemand,
            multi_value: true,
            probe_mode: ProbeMode::Optimized,
            extra_lowering_pass: false,
            debug_metadata: true,
        }
    }

    /// `nok`: abstract values do not track constants (disables folding and
    /// immediate selection too, since both depend on constant tracking).
    pub fn nok() -> CompilerOptions {
        CompilerOptions {
            name: "nok".to_string(),
            track_constants: false,
            constant_folding: false,
            instruction_selection: false,
            ..CompilerOptions::allopt()
        }
    }

    /// `nokfold`: constants are tracked but never folded.
    pub fn nokfold() -> CompilerOptions {
        CompilerOptions {
            name: "nokfold".to_string(),
            constant_folding: false,
            ..CompilerOptions::allopt()
        }
    }

    /// `noisel`: no immediate-mode instruction selection.
    pub fn noisel() -> CompilerOptions {
        CompilerOptions {
            name: "noisel".to_string(),
            instruction_selection: false,
            ..CompilerOptions::allopt()
        }
    }

    /// `nomr`: a register can cache at most one slot at a time.
    pub fn nomr() -> CompilerOptions {
        CompilerOptions {
            name: "nomr".to_string(),
            multi_register: false,
            ..CompilerOptions::allopt()
        }
    }

    /// A configuration identical to `allopt` except for the tagging strategy
    /// (the Fig. 5 configurations).
    pub fn with_tagging(strategy: TagStrategy, name: &str) -> CompilerOptions {
        CompilerOptions {
            name: name.to_string(),
            tagging: strategy,
            ..CompilerOptions::allopt()
        }
    }

    /// The Fig. 4 optimization-ablation configurations, in presentation order.
    pub fn figure4_configs() -> Vec<CompilerOptions> {
        vec![
            CompilerOptions::allopt(),
            CompilerOptions::nok(),
            CompilerOptions::nokfold(),
            CompilerOptions::noisel(),
            CompilerOptions::nomr(),
        ]
    }

    /// The Fig. 5 value-tag configurations, in presentation order. The
    /// baseline `notags` configuration comes first.
    pub fn figure5_configs() -> Vec<CompilerOptions> {
        vec![
            CompilerOptions::with_tagging(TagStrategy::None, "notags"),
            CompilerOptions::with_tagging(TagStrategy::Eager, "eagertags"),
            CompilerOptions::with_tagging(TagStrategy::EagerOperandsOnly, "eagertags-o"),
            CompilerOptions::with_tagging(TagStrategy::EagerLocalsOnly, "eagertags-l"),
            CompilerOptions::with_tagging(TagStrategy::OnDemand, "on-demand"),
            CompilerOptions::with_tagging(TagStrategy::Lazy, "lazytags"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_allopt() {
        let d = CompilerOptions::default();
        assert_eq!(d.name, "allopt");
        assert!(d.multi_register && d.track_constants && d.constant_folding);
        assert_eq!(d.tagging, TagStrategy::OnDemand);
    }

    #[test]
    fn ablation_configs_disable_one_axis_each() {
        assert!(!CompilerOptions::nok().track_constants);
        assert!(CompilerOptions::nokfold().track_constants);
        assert!(!CompilerOptions::nokfold().constant_folding);
        assert!(!CompilerOptions::noisel().instruction_selection);
        assert!(CompilerOptions::noisel().track_constants);
        assert!(!CompilerOptions::nomr().multi_register);
        assert_eq!(CompilerOptions::figure4_configs().len(), 5);
    }

    #[test]
    fn tag_strategy_classification() {
        assert!(!TagStrategy::None.uses_tags());
        assert!(!TagStrategy::Stackmaps.uses_tags());
        assert!(TagStrategy::Stackmaps.uses_stackmaps());
        assert!(TagStrategy::Eager.uses_tags());
        assert!(TagStrategy::OnDemand.uses_tags());
        assert!(!TagStrategy::OnDemand.uses_stackmaps());
    }

    #[test]
    fn figure5_configs_cover_all_strategies() {
        let configs = CompilerOptions::figure5_configs();
        assert_eq!(configs.len(), 6);
        assert_eq!(configs[0].name, "notags");
        assert!(configs.iter().any(|c| c.tagging == TagStrategy::Lazy));
        assert!(configs.iter().any(|c| c.tagging == TagStrategy::EagerOperandsOnly));
    }
}
