//! Monitors and the probe registry.
//!
//! A *monitor* is user code that instruments a module as it is loaded
//! (Section IV-D of the paper). The engine exposes the same probe interface
//! to both tiers: the interpreter consults the registry at every instruction
//! of a function that has probes attached, while the baseline compiler bakes the attached probes into generated code
//! and routes firings back here.
//!
//! The built-in [`BranchMonitor`] reproduces the paper's Fig. 6 workload: it
//! attaches a top-of-stack probe to every conditional branch and counts how
//! often each branch is taken and not taken.

use interp::probe::{FrameAccessor, ProbeSink};
use interp::profile::FuncProfile;
use machine::values::WasmValue;
use spc::{ProbeKind, ProbeSite, ProbeSites};
use std::collections::HashMap;
use wasm::module::Module;
use wasm::opcode::Opcode;
use wasm::reader::BytecodeReader;

/// Per-site taken / not-taken counts collected by the branch monitor — the
/// same struct the optimizing tier reads them from.
pub use interp::profile::BranchSummary as BranchProfile;

/// The branch monitor: profiles the outcome of every conditional branch.
/// Counts are kept per function, in the [`FuncProfile`] form the optimizing
/// tier consumes, so a promotion looks its function's profile up.
#[derive(Debug, Clone, Default)]
pub struct BranchMonitor {
    funcs: HashMap<u32, FuncProfile>,
    observations: u64,
}

impl BranchMonitor {
    /// Records one observation of the branch at `(func, offset)`.
    pub fn record(&mut self, func: u32, offset: u32, condition: bool) {
        self.funcs.entry(func).or_default().record(offset, condition, 1);
        self.observations += 1;
    }

    /// The profile of one branch site.
    pub fn profile(&self, func: u32, offset: u32) -> Option<&BranchProfile> {
        self.funcs.get(&func)?.site(offset)
    }

    /// Total observations across all sites.
    pub fn total_observations(&self) -> u64 {
        self.observations
    }

    /// The number of distinct branch sites observed.
    pub fn site_count(&self) -> usize {
        self.funcs.values().map(FuncProfile::len).sum()
    }
}

/// The kinds of instrumentation the engine supports out of the box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MonitorKind {
    /// No instrumentation.
    None,
    /// The branch monitor.
    Branch,
    /// A global instruction/site counter (fully intrinsifiable).
    Counter,
}

/// The engine's probe registry: which sites are instrumented in which
/// function, plus the monitors receiving the firings.
///
/// Implements [`ProbeSink`] so the interpreter (and the engine's handling of
/// JIT probe exits) can fire probes without knowing which monitors exist.
#[derive(Debug, Clone)]
pub struct Instrumentation {
    sites: HashMap<u32, ProbeSites>,
    kind: MonitorKind,
    branch: BranchMonitor,
    counters: Vec<u64>,
}

impl Default for Instrumentation {
    fn default() -> Instrumentation {
        Instrumentation::none()
    }
}

impl Instrumentation {
    /// No instrumentation at all.
    pub fn none() -> Instrumentation {
        Instrumentation {
            sites: HashMap::new(),
            kind: MonitorKind::None,
            branch: BranchMonitor::default(),
            counters: Vec::new(),
        }
    }

    /// Attaches the branch monitor to every conditional branch (`br_if`,
    /// `if`, `br_table`) in every defined function of `module`.
    pub fn branch_monitor(module: &Module) -> Instrumentation {
        let mut sites: HashMap<u32, ProbeSites> = HashMap::new();
        let mut next_probe = 0u32;
        for defined in 0..module.funcs.len() as u32 {
            let func_index = module.defined_to_func_index(defined);
            let decl = module.func_decl(func_index).expect("defined function");
            let mut func_sites = ProbeSites::none();
            for instr in BytecodeReader::new(&decl.code).map_while(Result::ok) {
                if matches!(instr.op, Opcode::BrIf | Opcode::If | Opcode::BrTable) {
                    func_sites.insert(
                        instr.offset as u32,
                        ProbeSite {
                            probe_id: next_probe,
                            kind: ProbeKind::TopOfStack,
                        },
                    );
                    next_probe += 1;
                }
            }
            if !func_sites.is_empty() {
                sites.insert(func_index, func_sites);
            }
        }
        Instrumentation {
            sites,
            kind: MonitorKind::Branch,
            branch: BranchMonitor::default(),
            counters: Vec::new(),
        }
    }

    /// Attaches an intrinsifiable counter probe at the start of every
    /// defined function (a simple call-count monitor).
    pub fn function_counters(module: &Module) -> Instrumentation {
        let mut sites: HashMap<u32, ProbeSites> = HashMap::new();
        let count = module.funcs.len();
        for defined in 0..count as u32 {
            let func_index = module.defined_to_func_index(defined);
            let mut func_sites = ProbeSites::none();
            func_sites.insert(
                0,
                ProbeSite {
                    probe_id: defined,
                    kind: ProbeKind::Counter {
                        counter_id: defined,
                    },
                },
            );
            sites.insert(func_index, func_sites);
        }
        Instrumentation {
            sites,
            kind: MonitorKind::Counter,
            branch: BranchMonitor::default(),
            counters: vec![0; count],
        }
    }

    /// True if no probes are attached anywhere.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The probe sites attached to `func_index` (for the compiler).
    pub fn sites_for(&self, func_index: u32) -> ProbeSites {
        self.sites.get(&func_index).cloned().unwrap_or_default()
    }

    /// The branch monitor's collected data.
    pub fn branch_monitor_data(&self) -> &BranchMonitor {
        &self.branch
    }

    /// The branch profile of one function for the optimizing tier (see
    /// [`interp::profile`]): every site the branch monitor has observed in
    /// `func_index`, as taken/not-taken counts keyed by bytecode offset.
    /// `None` when nothing was observed there (no branch monitor attached, or
    /// no branch executed yet) — the optimizing tier then lays blocks out in
    /// bytecode order.
    pub fn func_profile(&self, func_index: u32) -> Option<&FuncProfile> {
        self.branch.funcs.get(&func_index)
    }

    /// The counter values of a counter monitor.
    pub fn counters(&self) -> &[u64] {
        &self.counters
    }

    /// Total probe firings observed (all monitors).
    pub fn total_firings(&self) -> u64 {
        self.branch.total_observations() + self.counters.iter().sum::<u64>()
    }

    /// A stable fingerprint of the probe sites this instrumentation attaches
    /// — the part that is baked into generated code and therefore belongs in
    /// the code-cache key. Monitors with the same sites but different
    /// accumulated data fingerprint equal (the data lives outside the code);
    /// iteration order is normalized by sorting, so the value is independent
    /// of `HashMap` ordering.
    pub fn fingerprint(&self) -> u64 {
        let mut h = wasm::hash::Fnv64::new();
        let mut funcs: Vec<u32> = self.sites.keys().copied().collect();
        funcs.sort_unstable();
        for func in funcs {
            h.write_u32(func);
            let sites = &self.sites[&func];
            let mut entries: Vec<(u32, ProbeSite)> =
                sites.iter().map(|(&offset, &site)| (offset, site)).collect();
            entries.sort_unstable_by_key(|(offset, _)| *offset);
            for (offset, site) in entries {
                h.write_u32(offset);
                h.write_u32(site.probe_id);
                match site.kind {
                    ProbeKind::Generic => {
                        h.write_u8(0);
                    }
                    ProbeKind::Counter { counter_id } => {
                        h.write_u8(1).write_u32(counter_id);
                    }
                    ProbeKind::TopOfStack => {
                        h.write_u8(2);
                    }
                }
            }
        }
        h.finish()
    }
}

impl ProbeSink for Instrumentation {
    fn has_probes_in(&self, func_index: u32) -> bool {
        self.sites.contains_key(&func_index)
    }

    fn has_probe(&self, func_index: u32, offset: u32) -> bool {
        self.sites
            .get(&func_index)
            .map(|s| s.get(offset).is_some())
            .unwrap_or(false)
    }

    fn fire(&mut self, frame: &mut FrameAccessor<'_>) {
        let func = frame.func_index();
        let offset = frame.offset();
        match self.kind {
            MonitorKind::Branch => {
                // An empty operand stack reads as a false condition.
                let value = frame.top_of_stack().unwrap_or(WasmValue::I32(0));
                self.fire_with_value(func, offset, value);
            }
            MonitorKind::Counter => {
                // The cell is the site's own: the one intrinsified code
                // increments. (`func` is a function-space index, the cells
                // are numbered by defined index.)
                let site = self.sites.get(&func).and_then(|s| s.get(offset));
                if let Some(ProbeKind::Counter { counter_id }) = site.map(|s| s.kind) {
                    self.increment_counter(counter_id);
                }
            }
            MonitorKind::None => {}
        }
    }

    fn fire_with_value(&mut self, func: u32, offset: u32, value: WasmValue) {
        match self.kind {
            MonitorKind::Branch => {
                let condition = match value {
                    WasmValue::I32(v) => v != 0,
                    WasmValue::I64(v) => v != 0,
                    _ => false,
                };
                self.branch.record(func, offset, condition);
            }
            MonitorKind::Counter => {
                // Value-carrying firings still count as one observation.
                if let Some(c) = self.counters.get_mut(0) {
                    *c += 1;
                }
            }
            MonitorKind::None => {}
        }
    }

    fn increment_counter(&mut self, counter_id: u32) {
        if let Some(c) = self.counters.get_mut(counter_id as usize) {
            *c += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::types::{BlockType, FuncType, ValueType};

    fn branchy_module() -> Module {
        let mut b = ModuleBuilder::new();
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .local_get(0)
            .br_if(0)
            .local_get(0)
            .if_(BlockType::Empty)
            .nop()
            .end()
            .end();
        let f = b.add_func(FuncType::new(vec![ValueType::I32], vec![]), vec![], c.finish());
        b.export_func("f", f);
        b.finish()
    }

    #[test]
    fn branch_monitor_attaches_to_conditional_branches() {
        let module = branchy_module();
        let instr = Instrumentation::branch_monitor(&module);
        assert!(!instr.is_empty());
        let sites = instr.sites_for(0);
        assert_eq!(sites.len(), 2, "one br_if and one if");
        assert!(instr.sites_for(99).is_empty());
    }

    #[test]
    fn branch_monitor_records_outcomes() {
        let mut m = BranchMonitor::default();
        m.record(0, 4, true);
        m.record(0, 4, true);
        m.record(0, 4, false);
        m.record(1, 8, false);
        assert_eq!(m.profile(0, 4).unwrap().taken, 2);
        assert_eq!(m.profile(0, 4).unwrap().not_taken, 1);
        assert_eq!(m.total_observations(), 4);
        assert_eq!(m.site_count(), 2);
        assert!(m.profile(2, 0).is_none());
    }

    #[test]
    fn instrumentation_routes_value_firings() {
        let module = branchy_module();
        let mut instr = Instrumentation::branch_monitor(&module);
        instr.fire_with_value(0, 4, WasmValue::I32(1));
        instr.fire_with_value(0, 4, WasmValue::I32(0));
        instr.fire_with_value(0, 4, WasmValue::I64(5));
        let data = instr.branch_monitor_data();
        assert_eq!(data.profile(0, 4).unwrap().taken, 2);
        assert_eq!(data.profile(0, 4).unwrap().not_taken, 1);
        assert_eq!(instr.total_firings(), 3);
    }

    #[test]
    fn counter_monitor_counts() {
        let module = branchy_module();
        let mut instr = Instrumentation::function_counters(&module);
        assert!(instr.has_probes_in(0));
        assert!(!instr.has_probes_in(1));
        assert!(instr.has_probe(0, 0));
        assert!(!instr.has_probe(0, 3));
        instr.increment_counter(0);
        instr.increment_counter(0);
        assert_eq!(instr.counters(), &[2]);
        assert_eq!(instr.total_firings(), 2);
    }

    #[test]
    fn fingerprint_reflects_sites_not_data() {
        let module = branchy_module();
        let a = Instrumentation::branch_monitor(&module);
        let mut b = Instrumentation::branch_monitor(&module);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same sites, same fingerprint");
        b.fire_with_value(0, 4, WasmValue::I32(1));
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "accumulated monitor data is not part of the generated code"
        );
        assert_ne!(a.fingerprint(), Instrumentation::none().fingerprint());
        assert_ne!(
            a.fingerprint(),
            Instrumentation::function_counters(&module).fingerprint(),
            "different probe kinds fingerprint differently"
        );
    }

    #[test]
    fn empty_instrumentation_has_no_probes() {
        let instr = Instrumentation::none();
        assert!(instr.is_empty());
        assert!(!instr.has_probes_in(0));
        assert!(!instr.has_probe(0, 0));
        assert_eq!(instr.total_firings(), 0);
    }
}
