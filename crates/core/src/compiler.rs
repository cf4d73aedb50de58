//! The single-pass ("baseline") compiler.
//!
//! The compiler makes exactly one forward pass over the bytecode, mirroring
//! the validation algorithm: an abstract value stack tracks, for every local
//! and operand slot, whether its value is in memory, in a register, or a
//! compile-time constant (see [`crate::abstract_state`]). Code is emitted
//! instruction by instruction; there is no intermediate representation.
//!
//! All emission flows through the [`Masm`] macro-assembler trait, which
//! separates this translation strategy from target encoding: the same
//! compiler drives both the virtual-ISA
//! [`machine::asm::Assembler`] (whose [`CodeBuffer`] the CPU
//! simulator executes) and the x86-64 backend
//! ([`machine::x64_masm::X64Masm`]), which emits real machine bytes. This is
//! the structure every production baseline compiler surveyed by the paper
//! uses to serve multiple ISAs from one compiler design.
//!
//! Within straight-line code the compiler performs the optimizations the
//! paper attributes to abstract interpretation: forward register allocation
//! (with optional multi-register sharing), constant tracking and folding,
//! branch folding, immediate-mode instruction selection, redundant-spill
//! avoidance, and value-tag elision. At control-flow boundaries the abstract
//! state is flushed to the canonical "everything in its home slot" state —
//! the "spill the rest" snapshot strategy described in Section III — which
//! keeps merges O(1) and immune to JIT bombs.
//!
//! Calls, traps, and probes are *observable points*: live values (and,
//! depending on the [`TagStrategy`], their tags) are written to the value
//! stack there, which is what makes the paper's on-demand tagging nearly
//! free in straight-line code.

use crate::abstract_state::{AbstractState, Loc, SCRATCH_GPR};
use crate::instrument::{ProbeKind, ProbeSites};
use crate::options::{CompilerOptions, ProbeMode, TagStrategy};
use crate::stackmap::{Stackmap, StackmapTable};
use machine::asm::{Assembler, CodeBuffer};
use machine::inst::{CmpOp, Label, MachInst, TrapCode, Width};
use machine::lower::{classify, OpClass};
use machine::masm::Masm;
use machine::reg::AnyReg;
use machine::values::{ValueTag, NULL_REF_BITS};
use wasm::fuel::FuelPlan;
use wasm::module::Module;
use wasm::opcode::{OpSignature, Opcode};
use wasm::reader::{BytecodeReader, Imm, Instr};
use wasm::types::{BlockType, ValueType};
use wasm::validate::FuncInfo;
use std::collections::HashMap;
use std::fmt;

/// Information the engine needs about one call site in compiled code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSiteInfo {
    /// Frame-relative slot index where the callee's frame begins (its first
    /// argument slot).
    pub callee_slot_base: u32,
}

/// Information the engine needs about one probe site in compiled code: the
/// original bytecode offset and the operand stack height there, so a frame
/// accessor (or a tier-down to the interpreter) can reconstruct the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitProbeSite {
    /// Bytecode offset of the probed instruction.
    pub offset: u32,
    /// Operand stack height at the probe.
    pub operand_height: u32,
}

/// Statistics about one compilation, used by the benchmark harnesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Bytes of Wasm bytecode compiled.
    pub wasm_bytes: u32,
    /// Number of machine instructions emitted (macro operations for
    /// byte-level backends).
    pub machine_insts: u32,
    /// Machine-code size in bytes (estimated for the virtual ISA, exact for
    /// byte-level backends).
    pub code_size_bytes: u32,
    /// Value-tag stores emitted.
    pub tag_stores: u32,
    /// Operations evaluated at compile time.
    pub constants_folded: u32,
    /// Conditional branches folded away.
    pub branches_folded: u32,
    /// Immediate-mode instructions selected.
    pub immediate_selections: u32,
    /// Register spills emitted.
    pub spills: u32,
}

/// The output of compiling one function through a [`Masm`] backend: the
/// backend's finished code plus the backend-independent metadata the engine
/// needs. Call/probe/stackmap keys are the backend's *site indices*
/// (instruction indices for the virtual ISA, byte offsets for x86-64).
#[derive(Debug, Clone)]
pub struct CompiledCode<T> {
    /// The function's index in the function index space.
    pub func_index: u32,
    /// The emitted code.
    pub code: T,
    /// Per-call-site stackmaps (only when [`TagStrategy::Stackmaps`]).
    pub stackmaps: StackmapTable,
    /// Metadata for every call instruction, keyed by site index.
    pub call_sites: HashMap<usize, CallSiteInfo>,
    /// Metadata for every probe instruction, keyed by site index.
    pub probe_sites: HashMap<usize, JitProbeSite>,
    /// OSR entry stubs, keyed by *wasm loop-body-start offset* → the code
    /// position (site-index units) where the stub begins. Only the optimizing
    /// tier emits entries; baseline code leaves this empty.
    pub osr_entries: HashMap<u32, usize>,
    /// Number of results.
    pub num_results: u32,
    /// Number of local slots (params + declared locals).
    pub num_locals: u32,
    /// Total frame size in slots (locals + maximum operand height).
    pub frame_slots: u32,
    /// Compilation statistics.
    pub stats: CompileStats,
}

/// The output of compiling one function for the virtual ISA — the executable
/// backend every engine configuration runs on.
pub type CompiledFunction = CompiledCode<CodeBuffer>;

/// An error produced during compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// Bytecode offset of the problem.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compile error at +{}: {}", self.offset, self.message)
    }
}

impl std::error::Error for CompileError {}

/// The single-pass compiler. Cheap to construct; holds only options.
#[derive(Debug, Clone, Default)]
pub struct SinglePassCompiler {
    options: CompilerOptions,
    metering: bool,
    osr: bool,
}

impl SinglePassCompiler {
    /// Creates a compiler with the given options.
    pub fn new(options: CompilerOptions) -> SinglePassCompiler {
        SinglePassCompiler {
            options,
            metering: false,
            osr: false,
        }
    }

    /// Enables or disables fuel metering: when on, the compiler bakes
    /// `fuel_check` / `epoch_check` sequences into the code at the offsets of
    /// the function's [`FuelPlan`], mirroring the interpreter's schedule.
    pub fn with_metering(mut self, metering: bool) -> SinglePassCompiler {
        self.metering = metering;
        self
    }

    /// Enables or disables OSR poll sites: when on, every loop-body start
    /// carries a source mark and (when metering is off) an `epoch_check`, so
    /// the executing CPU can poll the back-edge hotness counter there. Under
    /// metering the existing fused fuel check already polls at those sites,
    /// so only the source mark is added.
    pub fn with_osr(mut self, osr: bool) -> SinglePassCompiler {
        self.osr = osr;
        self
    }

    /// The compiler's options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// Compiles one defined function for the virtual ISA.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed bodies or unsupported features (e.g.
    /// multi-value signatures when the `MV` feature is disabled).
    pub fn compile(
        &self,
        module: &Module,
        func_index: u32,
        info: &FuncInfo,
        probes: &ProbeSites,
    ) -> Result<CompiledFunction, CompileError> {
        self.compile_with(Assembler::new(), module, func_index, info, probes)
    }

    /// Compiles one defined function through an arbitrary [`Masm`] backend.
    ///
    /// The translation strategy — one forward pass, abstract interpretation,
    /// the straight-line optimizations — is identical for every backend;
    /// only the expansion of each semantic operation differs.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed bodies or unsupported features.
    pub fn compile_with<M: Masm>(
        &self,
        masm: M,
        module: &Module,
        func_index: u32,
        info: &FuncInfo,
        probes: &ProbeSites,
    ) -> Result<CompiledCode<M::Output>, CompileError> {
        let decl = module.func_decl(func_index).ok_or(CompileError {
            offset: 0,
            message: format!("function {func_index} has no body"),
        })?;
        let sig = module.func_type(func_index).ok_or(CompileError {
            offset: 0,
            message: format!("function {func_index} has no signature"),
        })?;
        if !self.options.multi_value && sig.results.len() > 1 {
            return Err(CompileError {
                offset: 0,
                message: "multi-value results are not supported by this configuration".to_string(),
            });
        }
        // Engines that lower through an internal form first (wazero) pay for
        // extra passes over the code before emitting anything.
        if self.options.extra_lowering_pass {
            for _ in 0..2 {
                let mut lowered = Vec::with_capacity(decl.code.len());
                let mut r = BytecodeReader::new(&decl.code);
                loop {
                    let pc = r.pc();
                    let Some(instr) = r.next() else { break };
                    let instr =
                        instr.map_err(|e| CompileError { offset: pc, message: e.to_string() })?;
                    lowered.push((instr.op, pc as u32));
                }
                std::hint::black_box(&lowered);
            }
        }

        let local_types = module
            .func_local_types(func_index)
            .expect("checked above: function has a body");
        // The plan validation wrote, consulted only when something rides it.
        let fuel = (self.metering || self.osr).then_some(&*info.fuel);
        let mut fc = FuncCompiler {
            module,
            options: &self.options,
            probes,
            fuel,
            metering: self.metering,
            osr: self.osr,
            num_locals: local_types.len(),
            num_results: sig.results.len() as u32,
            results: sig.results.clone(),
            asm: masm,
            state: AbstractState::new(&local_types, self.options.multi_register),
            ctrl: Vec::new(),
            stackmaps: StackmapTable::default(),
            call_sites: HashMap::new(),
            probe_sites: HashMap::new(),
            stats: CompileStats {
                wasm_bytes: decl.code.len() as u32,
                ..CompileStats::default()
            },
        };
        fc.compile_body(&decl.code)?;
        let stats = CompileStats {
            machine_insts: fc.asm.num_insts() as u32,
            code_size_bytes: fc.asm.code_size() as u32,
            ..fc.stats
        };
        let code = fc.asm.finish();
        Ok(CompiledCode {
            func_index,
            code,
            stackmaps: fc.stackmaps,
            call_sites: fc.call_sites,
            probe_sites: fc.probe_sites,
            osr_entries: HashMap::new(),
            num_results: sig.results.len() as u32,
            num_locals: local_types.len() as u32,
            frame_slots: local_types.len() as u32 + info.max_stack,
            stats,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlKind {
    Func,
    Block,
    Loop,
    If,
    Else,
}

#[derive(Debug, Clone)]
struct CtrlFrame {
    kind: CtrlKind,
    end_label: Label,
    else_label: Option<Label>,
    start_label: Option<Label>,
    label_base: usize,
    params: Vec<ValueType>,
    results: Vec<ValueType>,
    unreachable: bool,
}

struct FuncCompiler<'a, M: Masm> {
    module: &'a Module,
    options: &'a CompilerOptions,
    probes: &'a ProbeSites,
    fuel: Option<&'a FuelPlan>,
    metering: bool,
    osr: bool,
    num_locals: usize,
    num_results: u32,
    results: Vec<ValueType>,
    asm: M,
    state: AbstractState,
    ctrl: Vec<CtrlFrame>,
    stackmaps: StackmapTable,
    call_sites: HashMap<usize, CallSiteInfo>,
    probe_sites: HashMap<usize, JitProbeSite>,
    stats: CompileStats,
}

impl<'a, M: Masm> FuncCompiler<'a, M> {
    fn error(&self, offset: usize, message: impl Into<String>) -> CompileError {
        CompileError {
            offset,
            message: message.into(),
        }
    }

    fn unreachable_now(&self) -> bool {
        self.ctrl.last().map(|f| f.unreachable).unwrap_or(false)
    }

    fn compile_body(&mut self, code: &[u8]) -> Result<(), CompileError> {
        let func_end = self.asm.new_label();
        self.ctrl.push(CtrlFrame {
            kind: CtrlKind::Func,
            end_label: func_end,
            else_label: None,
            start_label: None,
            label_base: 0,
            params: Vec::new(),
            results: self.results.clone(),
            unreachable: false,
        });

        let mut reader = BytecodeReader::new(code);
        while !self.ctrl.is_empty() {
            let offset = reader.pc();
            let instr = match reader.next() {
                Some(instr) => instr.map_err(|e| self.error(offset, e.to_string()))?,
                None => return Err(self.error(offset, "body ended with open control constructs")),
            };
            if self.options.debug_metadata {
                self.asm.mark_source(offset as u32);
            }
            if !self.unreachable_now() {
                // Metering first, probes second: the same order every tier
                // uses, so a fuel trap fires before a probe at the same site.
                // One fused check per site: the loop-head epoch poll rides
                // the region's fuel decrement (a zero-amount check at the
                // rare loop head whose region charges nothing).
                let (charge, epoch_site) = match self.fuel {
                    Some(plan) => (plan.charge_at(offset as u32), plan.epoch_check_at(offset as u32)),
                    None => (None, false),
                };
                if self.osr && epoch_site && !self.options.debug_metadata {
                    // The OSR poll resolves its wasm offset through the
                    // source map, so loop-body starts need an exact mark even
                    // without debug metadata.
                    self.asm.mark_source(offset as u32);
                }
                if self.metering && (charge.is_some() || epoch_site) {
                    self.asm.emit(MachInst::FuelCheck { amount: charge.unwrap_or(0) });
                } else if self.osr && epoch_site {
                    // Metering off: the loop head still needs a poll site for
                    // the back-edge hotness counter. An `epoch_check` against
                    // a meter without a deadline is a no-op apart from the
                    // OSR poll.
                    self.asm.emit(MachInst::EpochCheck);
                }
                if let Some(site) = self.probes.get(offset as u32) {
                    self.emit_probe(*site, offset as u32);
                }
            }
            self.compile_instruction(instr)?;
        }
        if !reader.is_at_end() {
            return Err(self.error(reader.pc(), "trailing bytes after final end"));
        }
        Ok(())
    }

    // ---- Code-generation helpers -------------------------------------------

    fn tag_of(&self, ty: ValueType) -> ValueTag {
        ValueTag::for_type(ty)
    }

    fn emit_tag(&mut self, slot: usize) {
        let tag = self.tag_of(self.state.slot(slot).ty);
        self.asm.emit(MachInst::StoreTag { slot: slot as u32, tag });
        self.state.set_tag_in_memory(slot, true);
        self.stats.tag_stores += 1;
    }

    fn eager_tag_on_write(&mut self, slot: usize) {
        let is_local = slot < self.num_locals;
        let emit = match self.options.tagging {
            TagStrategy::Eager => true,
            TagStrategy::EagerOperandsOnly => !is_local,
            TagStrategy::EagerLocalsOnly => is_local,
            _ => false,
        };
        if emit {
            self.emit_tag(slot);
        }
    }

    /// Emits a store of `slot`'s current value into its home memory slot if
    /// it is not already there, leaving its location unchanged.
    fn materialize_to_memory(&mut self, slot: usize) {
        let s = *self.state.slot(slot);
        if s.in_memory {
            return;
        }
        match s.loc {
            Loc::Const(c) => {
                self.asm.emit(MachInst::StoreSlotImm { slot: slot as u32, imm: c as i64 });
            }
            Loc::Reg(r) => {
                self.asm.emit(MachInst::StoreSlot { slot: slot as u32, src: r });
            }
            Loc::Memory => {}
        }
        self.state.mark_in_memory(slot);
    }

    fn flush_values(&mut self) {
        for slot in 0..self.state.len() {
            self.materialize_to_memory(slot);
        }
    }

    /// Flush at a control-flow boundary: values go to memory and the state
    /// becomes the canonical memory state. Tags are not needed here (no GC
    /// can observe a branch), so their stored-ness is preserved.
    fn flush_for_control(&mut self) {
        self.flush_values();
        self.state.reset_to_memory(true);
    }

    /// At a label the fall-through does not reach: the code after it is
    /// entered only by branches, which all arrive in canonical memory state,
    /// so whatever the dead path had cached in registers, knew as constants
    /// or had stored as tags never happened on the paths that do arrive.
    /// Emits nothing.
    fn forget_dead_path(&mut self) {
        self.state.reset_to_memory(false);
    }

    /// Flush at an observable point (call, probe): values go to memory and,
    /// depending on the tagging strategy, tags are written. Returns the
    /// reference slots for a stackmap when that strategy is in use.
    fn flush_for_observation(&mut self) -> Option<Vec<u32>> {
        self.flush_values();
        match self.options.tagging {
            TagStrategy::None => None,
            TagStrategy::Stackmaps => {
                let refs = self
                    .state
                    .iter()
                    .filter(|(_, s)| s.ty.is_reference())
                    .map(|(i, _)| i as u32)
                    .collect();
                Some(refs)
            }
            TagStrategy::Lazy => {
                for slot in self.num_locals..self.state.len() {
                    if !self.state.slot(slot).tag_in_memory {
                        self.emit_tag(slot);
                    }
                }
                None
            }
            _ => {
                for slot in 0..self.state.len() {
                    if !self.state.slot(slot).tag_in_memory {
                        self.emit_tag(slot);
                    }
                }
                None
            }
        }
    }

    fn spill_reg(&mut self, reg: AnyReg) {
        let slots = self.state.slots_in_reg(reg).to_vec();
        for slot in slots {
            if !self.state.slot(slot as usize).in_memory {
                self.asm.emit(MachInst::StoreSlot { slot, src: reg });
                self.state.mark_in_memory(slot as usize);
                self.stats.spills += 1;
            }
        }
        self.state.clear_reg(reg);
    }

    fn alloc_reg(&mut self, float: bool, pinned: &[AnyReg]) -> AnyReg {
        if let Some(r) = self.state.free_reg(float) {
            return r;
        }
        loop {
            let victim = self.state.evict_candidate(float);
            if pinned.contains(&victim) {
                continue;
            }
            self.spill_reg(victim);
            return victim;
        }
    }

    /// Ensures the value of `slot` is in a register and returns it.
    fn ensure_in_reg(&mut self, slot: usize, pinned: &[AnyReg]) -> AnyReg {
        let s = *self.state.slot(slot);
        match s.loc {
            Loc::Reg(r) => r,
            Loc::Const(c) => {
                let float = s.ty.is_float();
                let r = self.alloc_reg(float, pinned);
                match r {
                    AnyReg::Gpr(g) => {
                        self.asm.emit(MachInst::MovImm { dst: g, imm: c as i64 });
                    }
                    AnyReg::Fpr(f) => {
                        self.asm.emit(MachInst::FMovImm { dst: f, bits: c });
                    }
                }
                self.state
                    .set_slot(slot, Loc::Reg(r), s.in_memory, s.tag_in_memory);
                r
            }
            Loc::Memory => {
                let float = s.ty.is_float();
                let r = self.alloc_reg(float, pinned);
                self.asm.emit(MachInst::LoadSlot { dst: r, slot: slot as u32 });
                self.state.set_slot(slot, Loc::Reg(r), true, s.tag_in_memory);
                r
            }
        }
    }

    fn push_result(&mut self, ty: ValueType, loc: Loc) {
        let slot = self.state.push(ty, loc);
        self.eager_tag_on_write(slot);
    }

    // ---- Control flow -------------------------------------------------------

    fn block_signature(
        &self,
        offset: usize,
        bt: BlockType,
    ) -> Result<(Vec<ValueType>, Vec<ValueType>), CompileError> {
        let (params, results) = bt
            .resolve(&self.module.types)
            .ok_or_else(|| self.error(offset, "bad block type"))?;
        if !self.options.multi_value && (results.len() > 1 || !params.is_empty()) {
            return Err(self.error(
                offset,
                "multi-value block types are not supported by this configuration",
            ));
        }
        Ok((params, results))
    }

    fn branch_target(&self, depth: u32) -> Option<(Label, usize, usize)> {
        let len = self.ctrl.len();
        if depth as usize >= len {
            return None;
        }
        let frame = &self.ctrl[len - 1 - depth as usize];
        if frame.kind == CtrlKind::Loop {
            Some((
                frame.start_label.expect("loop has a start label"),
                frame.label_base,
                frame.params.len(),
            ))
        } else {
            Some((frame.end_label, frame.label_base, frame.results.len()))
        }
    }

    fn dirty_locals(&self) -> Vec<usize> {
        (0..self.num_locals)
            .filter(|&i| !self.state.slot(i).in_memory)
            .collect()
    }

    /// True if jumping directly to a label with the current state would be
    /// wrong (values not in their expected home slots).
    fn needs_branch_adaptation(&self, label_base: usize, arity: usize) -> bool {
        if !self.dirty_locals().is_empty() {
            return true;
        }
        let height = self.state.height();
        for i in 0..arity {
            let src = self.num_locals + height - arity + i;
            let dst = self.num_locals + label_base + i;
            let slot = self.state.slot(src);
            if src != dst || !slot.in_memory {
                return true;
            }
        }
        false
    }

    /// Emits the stores needed so that the state at the branch target (the
    /// canonical memory state with `arity` values at `label_base`) holds.
    /// Does not modify the abstract state, so it is safe to emit on a
    /// conditional side path.
    fn emit_branch_adaptation(&mut self, label_base: usize, arity: usize) {
        for local in self.dirty_locals() {
            let s = *self.state.slot(local);
            match s.loc {
                Loc::Const(c) => {
                    self.asm.emit(MachInst::StoreSlotImm { slot: local as u32, imm: c as i64 });
                }
                Loc::Reg(r) => {
                    self.asm.emit(MachInst::StoreSlot { slot: local as u32, src: r });
                }
                Loc::Memory => {}
            }
        }
        let height = self.state.height();
        for i in 0..arity {
            let src = self.num_locals + height - arity + i;
            let dst = (self.num_locals + label_base + i) as u32;
            let s = *self.state.slot(src);
            match s.loc {
                Loc::Const(c) => {
                    self.asm.emit(MachInst::StoreSlotImm { slot: dst, imm: c as i64 });
                }
                Loc::Reg(r) => {
                    self.asm.emit(MachInst::StoreSlot { slot: dst, src: r });
                }
                Loc::Memory => {
                    if src as u32 != dst {
                        let scratch = AnyReg::Gpr(SCRATCH_GPR);
                        self.asm.emit(MachInst::LoadSlot { dst: scratch, slot: src as u32 });
                        self.asm.emit(MachInst::StoreSlot { slot: dst, src: scratch });
                    }
                }
            }
        }
    }

    fn mark_unreachable(&mut self) {
        let label_base = self.ctrl.last().map(|f| f.label_base).unwrap_or(0);
        self.state.truncate_operands(label_base);
        if let Some(frame) = self.ctrl.last_mut() {
            frame.unreachable = true;
        }
    }

    fn emit_return(&mut self) {
        let arity = self.num_results as usize;
        let height = self.state.height();
        for i in 0..arity {
            let src = self.num_locals + height - arity + i;
            let dst = i as u32;
            let s = *self.state.slot(src);
            match s.loc {
                Loc::Const(c) => {
                    self.asm.emit(MachInst::StoreSlotImm { slot: dst, imm: c as i64 });
                }
                Loc::Reg(r) => {
                    self.asm.emit(MachInst::StoreSlot { slot: dst, src: r });
                }
                Loc::Memory => {
                    let scratch = AnyReg::Gpr(SCRATCH_GPR);
                    self.asm.emit(MachInst::LoadSlot { dst: scratch, slot: src as u32 });
                    self.asm.emit(MachInst::StoreSlot { slot: dst, src: scratch });
                }
            }
            if self.options.tagging.uses_tags() {
                let tag = self.tag_of(self.results[i]);
                self.asm.emit(MachInst::StoreTag { slot: dst, tag });
                self.stats.tag_stores += 1;
            }
        }
        self.asm.emit(MachInst::Return);
    }

    fn emit_probe(&mut self, site: crate::instrument::ProbeSite, offset: u32) {
        let meta = JitProbeSite {
            offset,
            operand_height: self.state.height() as u32,
        };
        let site_index = match (self.options.probe_mode, site.kind) {
            (ProbeMode::Optimized, ProbeKind::Counter { counter_id }) => {
                self.asm.emit(MachInst::ProbeCounter { counter_id })
            }
            (ProbeMode::Optimized, ProbeKind::TopOfStack) => {
                let src = if self.state.height() > 0 {
                    let top = self.state.operand_index(0);
                    self.ensure_in_reg(top, &[])
                } else {
                    AnyReg::Gpr(SCRATCH_GPR)
                };
                self.asm.emit(MachInst::ProbeTosValue { probe_id: site.probe_id, src })
            }
            (ProbeMode::Optimized, ProbeKind::Generic) => {
                self.flush_for_observation();
                self.asm.emit(MachInst::ProbeDirect { probe_id: site.probe_id })
            }
            (ProbeMode::Runtime, _) => {
                self.flush_for_observation();
                self.asm.emit(MachInst::ProbeRuntime { probe_id: site.probe_id })
            }
        };
        self.probe_sites.insert(site_index, meta);
    }

    // ---- Instruction compilation --------------------------------------------

    fn compile_instruction(&mut self, instr: Instr<'_>) -> Result<(), CompileError> {
        let Instr { offset, op, imm, .. } = instr;
        // In unreachable code only track control nesting.
        if self.unreachable_now()
            && !matches!(op, Opcode::Block | Opcode::Loop | Opcode::If | Opcode::Else | Opcode::End)
        {
            return Ok(());
        }

        match (op, imm) {
            (Opcode::Nop, _) => {}
            (Opcode::Unreachable, _) => {
                self.asm.emit(MachInst::Trap { code: TrapCode::Unreachable });
                self.mark_unreachable();
            }
            (Opcode::Block | Opcode::Loop | Opcode::If, Imm::Block(bt)) => {
                let (params, results) = self.block_signature(offset, bt)?;
                let dead = self.unreachable_now();

                let mut cond_reg = None;
                if op == Opcode::If && !dead {
                    let cond = self.state.operand_index(0);
                    cond_reg = Some(self.ensure_in_reg(cond, &[]));
                    self.state.pop();
                }
                if !dead {
                    self.flush_for_control();
                }
                let label_base = if dead {
                    self.ctrl.last().map(|f| f.label_base).unwrap_or(0)
                } else {
                    self.state.height() - params.len()
                };
                let end_label = self.asm.new_label();
                let (start_label, else_label) = match op {
                    Opcode::Loop => (Some(self.asm.new_bound_label()), None),
                    Opcode::If => {
                        let else_label = self.asm.new_label();
                        if let Some(rc) = cond_reg {
                            self.asm.emit(MachInst::BrIf {
                                cond: rc.as_gpr().expect("condition is an integer"),
                                target: else_label,
                                negate: true,
                            });
                        }
                        (None, Some(else_label))
                    }
                    _ => (None, None),
                };
                self.ctrl.push(CtrlFrame {
                    kind: match op {
                        Opcode::Block => CtrlKind::Block,
                        Opcode::Loop => CtrlKind::Loop,
                        _ => CtrlKind::If,
                    },
                    end_label,
                    else_label,
                    start_label,
                    label_base,
                    params,
                    results,
                    unreachable: dead,
                });
            }
            (Opcode::Else, _) => {
                let was_reachable = !self.unreachable_now();
                if was_reachable {
                    self.flush_for_control();
                } else {
                    self.forget_dead_path();
                }
                let frame = self.ctrl.last_mut().expect("else inside an if");
                if was_reachable {
                    let end = frame.end_label;
                    self.asm.emit(MachInst::Jump { target: end });
                }
                let frame = self.ctrl.last_mut().expect("else inside an if");
                if let Some(else_label) = frame.else_label.take() {
                    self.asm.bind(else_label);
                }
                frame.kind = CtrlKind::Else;
                // The else branch starts from the state captured at the `if`:
                // canonical memory with the params on the operand stack.
                let (label_base, params, parent_dead) = {
                    let len = self.ctrl.len();
                    let frame = &self.ctrl[len - 1];
                    let parent_dead = len >= 2 && self.ctrl[len - 2].unreachable;
                    (frame.label_base, frame.params.clone(), parent_dead)
                };
                if !parent_dead {
                    self.state.truncate_operands(label_base);
                    for ty in params {
                        self.state.push(ty, Loc::Memory);
                    }
                    self.ctrl.last_mut().expect("else").unreachable = false;
                } else {
                    self.ctrl.last_mut().expect("else").unreachable = true;
                }
            }
            (Opcode::End, _) => {
                let was_reachable = !self.unreachable_now();
                if was_reachable {
                    self.flush_for_control();
                } else {
                    self.forget_dead_path();
                }
                let frame = self.ctrl.pop().expect("end matches a construct");
                if let Some(else_label) = frame.else_label {
                    self.asm.bind(else_label);
                }
                self.asm.bind(frame.end_label);
                let parent_dead = self.ctrl.last().map(|f| f.unreachable).unwrap_or(false);
                if !parent_dead {
                    self.state.truncate_operands(frame.label_base);
                    for &ty in &frame.results {
                        self.state.push(ty, Loc::Memory);
                    }
                }
                if self.ctrl.is_empty() {
                    // Function epilogue.
                    if was_reachable || !parent_dead {
                        self.emit_return();
                    }
                }
            }
            (Opcode::Br, Imm::Index(depth)) => {
                let (label, base, arity) = self
                    .branch_target(depth)
                    .ok_or_else(|| self.error(offset, "bad branch depth"))?;
                self.emit_branch_adaptation(base, arity);
                self.asm.emit(MachInst::Jump { target: label });
                self.mark_unreachable();
            }
            (Opcode::BrIf, Imm::Index(depth)) => {
                let cond = self.state.operand_index(0);
                let cond_state = *self.state.slot(cond);
                if self.options.constant_folding {
                    if let Some(c) = cond_state.constant() {
                        self.state.pop();
                        self.stats.branches_folded += 1;
                        if c != 0 {
                            let (label, base, arity) = self
                                .branch_target(depth)
                                .ok_or_else(|| self.error(offset, "bad branch depth"))?;
                            self.emit_branch_adaptation(base, arity);
                            self.asm.emit(MachInst::Jump { target: label });
                            self.mark_unreachable();
                        }
                        return Ok(());
                    }
                }
                let rc = self.ensure_in_reg(cond, &[]);
                self.state.pop();
                let (label, base, arity) = self
                    .branch_target(depth)
                    .ok_or_else(|| self.error(offset, "bad branch depth"))?;
                let rc = rc.as_gpr().expect("condition is an integer");
                if self.needs_branch_adaptation(base, arity) {
                    let skip = self.asm.new_label();
                    self.asm.emit(MachInst::BrIf { cond: rc, target: skip, negate: true });
                    self.emit_branch_adaptation(base, arity);
                    self.asm.emit(MachInst::Jump { target: label });
                    self.asm.bind(skip);
                } else {
                    self.asm.emit(MachInst::BrIf { cond: rc, target: label, negate: false });
                }
            }
            (Opcode::BrTable, Imm::Table(table)) => {
                let index = self.state.operand_index(0);
                let ri = self.ensure_in_reg(index, &[]);
                self.state.pop();
                // Everything must be in memory on every outgoing edge.
                self.flush_values();
                let mut stubs = Vec::with_capacity(table.len());
                let mut resolved = Vec::with_capacity(table.len() + 1);
                for depth in table.targets_and_default() {
                    let target = self
                        .branch_target(depth)
                        .ok_or_else(|| self.error(offset, "bad branch depth"))?;
                    let stub = self.asm.new_label();
                    resolved.push((stub, target));
                    if resolved.len() <= table.len() {
                        stubs.push(stub);
                    }
                }
                let default_stub = resolved.last().expect("at least the default").0;
                self.asm.br_table(
                    ri.as_gpr().expect("index is an integer"),
                    &stubs,
                    default_stub,
                );
                for (stub, (label, base, arity)) in resolved {
                    self.asm.bind(stub);
                    self.emit_branch_adaptation(base, arity);
                    self.asm.emit(MachInst::Jump { target: label });
                }
                self.mark_unreachable();
            }
            (Opcode::Return, _) => {
                self.emit_return();
                self.mark_unreachable();
            }
            (Opcode::Call, Imm::Index(callee)) => {
                let sig = self
                    .module
                    .func_type(callee)
                    .cloned()
                    .ok_or_else(|| self.error(offset, format!("unknown callee {callee}")))?;
                if !self.options.multi_value && sig.results.len() > 1 {
                    return Err(self.error(offset, "multi-value call not supported"));
                }
                if !self.options.debug_metadata {
                    // Calls always need a source-map anchor for stack traces.
                    self.asm.mark_source(offset as u32);
                }
                let refs = self.flush_for_observation();
                let callee_slot_base =
                    (self.num_locals + self.state.height() - sig.params.len()) as u32;
                let site_index = self.asm.emit(MachInst::Call { func_index: callee });
                self.call_sites
                    .insert(site_index, CallSiteInfo { callee_slot_base });
                if let Some(ref_slots) = refs {
                    self.stackmaps.push(Stackmap {
                        inst_index: site_index,
                        ref_slots,
                    });
                }
                for _ in 0..sig.params.len() {
                    self.state.pop();
                }
                for &ty in &sig.results {
                    let slot = self.state.push(ty, Loc::Memory);
                    self.state.set_tag_in_memory(slot, true);
                }
            }
            (Opcode::CallIndirect, Imm::CallIndirect { type_index, table_index }) => {
                let sig = self
                    .module
                    .types
                    .get(type_index as usize)
                    .cloned()
                    .ok_or_else(|| self.error(offset, format!("unknown type {type_index}")))?;
                if !self.options.multi_value && sig.results.len() > 1 {
                    return Err(self.error(offset, "multi-value call not supported"));
                }
                if !self.options.debug_metadata {
                    self.asm.mark_source(offset as u32);
                }
                let index = self.state.operand_index(0);
                let ri = self.ensure_in_reg(index, &[]);
                self.state.pop();
                let refs = self.flush_for_observation();
                let callee_slot_base =
                    (self.num_locals + self.state.height() - sig.params.len()) as u32;
                let site_index = self.asm.emit(MachInst::CallIndirect {
                    type_index,
                    table_index,
                    index: ri.as_gpr().expect("table index is an integer"),
                });
                self.call_sites
                    .insert(site_index, CallSiteInfo { callee_slot_base });
                if let Some(ref_slots) = refs {
                    self.stackmaps.push(Stackmap {
                        inst_index: site_index,
                        ref_slots,
                    });
                }
                for _ in 0..sig.params.len() {
                    self.state.pop();
                }
                for &ty in &sig.results {
                    let slot = self.state.push(ty, Loc::Memory);
                    self.state.set_tag_in_memory(slot, true);
                }
            }
            (Opcode::Drop, _) => {
                self.state.pop();
            }
            (Opcode::Select | Opcode::SelectT, _) => self.compile_select(),
            (Opcode::LocalGet, Imm::Index(index)) => self.compile_local_get(index as usize),
            (Opcode::LocalSet | Opcode::LocalTee, Imm::Index(index)) => {
                self.compile_local_set(index as usize, op == Opcode::LocalTee);
            }
            (Opcode::GlobalGet, Imm::Index(index)) => {
                let ty = self
                    .module
                    .global_type(index)
                    .ok_or_else(|| self.error(offset, format!("unknown global {index}")))?
                    .value_type;
                let dst = self.alloc_reg(ty.is_float(), &[]);
                self.asm.emit(MachInst::GlobalGet { dst, index });
                self.push_result(ty, Loc::Reg(dst));
            }
            (Opcode::GlobalSet, Imm::Index(index)) => {
                let top = self.state.operand_index(0);
                let src = self.ensure_in_reg(top, &[]);
                self.state.pop();
                self.asm.emit(MachInst::GlobalSet { index, src });
            }
            (Opcode::I32Const, Imm::I32(v)) => self.compile_const(ValueType::I32, v as u32 as u64),
            (Opcode::I64Const, Imm::I64(v)) => self.compile_const(ValueType::I64, v as u64),
            (Opcode::F32Const, Imm::F32(v)) => {
                self.compile_const(ValueType::F32, v.to_bits() as u64);
            }
            (Opcode::F64Const, Imm::F64(v)) => self.compile_const(ValueType::F64, v.to_bits()),
            (Opcode::RefNull, Imm::Ref(ty)) => self.compile_const(ty, NULL_REF_BITS),
            (Opcode::RefFunc, Imm::Index(index)) => {
                self.compile_const(ValueType::FuncRef, index as u64);
            }
            (Opcode::RefIsNull, _) => {
                let top = self.state.operand_index(0);
                let r = self.ensure_in_reg(top, &[]);
                self.state.pop();
                let dst = self.alloc_reg(false, &[r]);
                self.asm.emit(MachInst::CmpImm {
                    op: CmpOp::Eq,
                    width: Width::W64,
                    dst: dst.as_gpr().expect("gpr"),
                    a: r.as_gpr().expect("references live in GPRs"),
                    imm: -1,
                });
                self.push_result(ValueType::I32, Loc::Reg(dst));
            }
            (Opcode::MemorySize, _) => {
                let dst = self.alloc_reg(false, &[]);
                self.asm.emit(MachInst::MemorySize { dst: dst.as_gpr().expect("gpr") });
                self.push_result(ValueType::I32, Loc::Reg(dst));
            }
            (Opcode::MemoryGrow, _) => {
                let top = self.state.operand_index(0);
                let delta = self.ensure_in_reg(top, &[]);
                self.state.pop();
                let dst = self.alloc_reg(false, &[delta]);
                self.asm.emit(MachInst::MemoryGrow {
                    dst: dst.as_gpr().expect("gpr"),
                    delta: delta.as_gpr().expect("gpr"),
                });
                self.push_result(ValueType::I32, Loc::Reg(dst));
            }
            (_, Imm::Mem(memarg)) => self.compile_memory_access(op, memarg.offset),
            _ => {
                let class = classify(op)
                    .ok_or_else(|| self.error(offset, format!("unhandled opcode {op}")))?;
                self.compile_classified(op, class);
            }
        }
        Ok(())
    }

    fn compile_const(&mut self, ty: ValueType, bits: u64) {
        if self.options.track_constants {
            self.push_result(ty, Loc::Const(bits));
        } else {
            let dst = self.alloc_reg(ty.is_float(), &[]);
            match dst {
                AnyReg::Gpr(g) => {
                    self.asm.emit(MachInst::MovImm { dst: g, imm: bits as i64 });
                }
                AnyReg::Fpr(f) => {
                    self.asm.emit(MachInst::FMovImm { dst: f, bits });
                }
            }
            self.push_result(ty, Loc::Reg(dst));
        }
    }

    fn compile_local_get(&mut self, index: usize) {
        let s = *self.state.slot(index);
        match s.loc {
            Loc::Const(c) if self.options.track_constants => {
                self.push_result(s.ty, Loc::Const(c));
            }
            Loc::Reg(r) if self.state.can_share(r) => {
                self.push_result(s.ty, Loc::Reg(r));
            }
            Loc::Reg(r) => {
                let dst = self.alloc_reg(s.ty.is_float(), &[r]);
                self.emit_move_between(dst, r);
                self.push_result(s.ty, Loc::Reg(dst));
            }
            Loc::Const(_) | Loc::Memory => {
                let dst = self.alloc_reg(s.ty.is_float(), &[]);
                self.asm.emit(MachInst::LoadSlot { dst, slot: index as u32 });
                if self.options.multi_register {
                    // The register now caches the local as well.
                    self.state.share(dst, index);
                }
                self.push_result(s.ty, Loc::Reg(dst));
            }
        }
    }

    fn emit_move_between(&mut self, dst: AnyReg, src: AnyReg) {
        self.asm.emit(match (dst, src) {
            (AnyReg::Gpr(dst), AnyReg::Gpr(src)) => MachInst::Mov { dst, src },
            (AnyReg::Fpr(dst), AnyReg::Fpr(src)) => MachInst::FMov { dst, src },
            _ => unreachable!("register banks match the type"),
        });
    }

    fn compile_local_set(&mut self, index: usize, is_tee: bool) {
        let top = self.state.operand_index(0);
        let s = *self.state.slot(top);
        match s.loc {
            Loc::Const(c) if self.options.track_constants => {
                self.state.set_slot(index, Loc::Const(c), false, false);
            }
            Loc::Reg(r) => {
                if is_tee && !self.options.multi_register {
                    let dst = self.alloc_reg(s.ty.is_float(), &[r]);
                    self.emit_move_between(dst, r);
                    self.state.set_slot(index, Loc::Reg(dst), false, false);
                } else {
                    self.state.set_slot(index, Loc::Reg(r), false, false);
                }
            }
            Loc::Const(_) | Loc::Memory => {
                let r = self.ensure_in_reg(top, &[]);
                self.state.set_slot(index, Loc::Reg(r), false, false);
            }
        }
        if !is_tee {
            self.state.pop();
        }
        self.eager_tag_on_write(index);
    }

    fn compile_select(&mut self) {
        let cond = self.state.operand_index(0);
        let b = self.state.operand_index(1);
        let a = self.state.operand_index(2);
        let ty = self.state.slot(a).ty;
        let rc = self.ensure_in_reg(cond, &[]);
        let rb = self.ensure_in_reg(b, &[rc]);
        let ra = self.ensure_in_reg(a, &[rc, rb]);
        self.state.pop();
        self.state.pop();
        self.state.pop();
        let dst = self.alloc_reg(ty.is_float(), &[ra, rb, rc]);
        let cond = rc.as_gpr().expect("condition is an integer");
        self.asm.emit(match (dst, ra, rb) {
            (AnyReg::Gpr(dst), AnyReg::Gpr(if_true), AnyReg::Gpr(if_false)) => {
                MachInst::Select { dst, cond, if_true, if_false }
            }
            (AnyReg::Fpr(dst), AnyReg::Fpr(if_true), AnyReg::Fpr(if_false)) => {
                MachInst::FSelect { dst, cond, if_true, if_false }
            }
            _ => unreachable!("select operands share one register bank"),
        });
        self.push_result(ty, Loc::Reg(dst));
    }

    fn compile_memory_access(&mut self, op: Opcode, mem_offset: u32) {
        let width = op.access_width().expect("memory access has a width");
        match op.signature() {
            OpSignature::Load(result) => {
                let addr = self.state.operand_index(0);
                let ra = self.ensure_in_reg(addr, &[]);
                self.state.pop();
                let dst = self.alloc_reg(result.is_float(), &[ra]);
                let signed = matches!(
                    op,
                    Opcode::I32Load8S
                        | Opcode::I32Load16S
                        | Opcode::I64Load8S
                        | Opcode::I64Load16S
                        | Opcode::I64Load32S
                );
                let dst_width = if result == ValueType::I32 || result == ValueType::F32 {
                    Width::W32
                } else {
                    Width::W64
                };
                self.asm.emit(MachInst::MemLoad {
                    dst,
                    addr: ra.as_gpr().expect("address is an integer"),
                    offset: mem_offset,
                    width,
                    signed,
                    dst_width,
                });
                self.push_result(result, Loc::Reg(dst));
            }
            OpSignature::Store(_) => {
                let value = self.state.operand_index(0);
                let addr = self.state.operand_index(1);
                let rv = self.ensure_in_reg(value, &[]);
                let ra = self.ensure_in_reg(addr, &[rv]);
                self.state.pop();
                self.state.pop();
                self.asm.emit(MachInst::MemStore {
                    src: rv,
                    addr: ra.as_gpr().expect("address is an integer"),
                    offset: mem_offset,
                    width,
                });
            }
            _ => unreachable!("memory access opcodes have load/store signatures"),
        }
    }

    fn compile_classified(&mut self, _op: Opcode, class: OpClass) {
        let arity = class.arity();
        let result_ty = class.result_type();

        // Constant folding: evaluate side-effect-free operations at compile
        // time when every operand is a known constant.
        if self.options.constant_folding && self.options.track_constants {
            let all_const = (0..arity)
                .all(|d| self.state.slot(self.state.operand_index(d)).constant().is_some());
            if all_const {
                let mut operands = [0u64; 2];
                for d in 0..arity {
                    // operand_index(0) is the top (last operand).
                    operands[arity - 1 - d] =
                        self.state.slot(self.state.operand_index(d)).constant().unwrap();
                }
                if let Ok(bits) = class.evaluate(&operands[..arity]) {
                    for _ in 0..arity {
                        self.state.pop();
                    }
                    self.stats.constants_folded += 1;
                    self.push_result(result_ty, Loc::Const(bits));
                    return;
                }
                // Evaluation would trap at runtime: fall through and emit the
                // real instruction so the trap happens during execution.
            }
        }

        // Immediate-mode instruction selection for integer ops whose right
        // operand is a known constant.
        if self.options.instruction_selection && arity == 2 {
            if let OpClass::Alu(_, width) | OpClass::Cmp(_, width) = class {
                let rhs = self.state.operand_index(0);
                let lhs = self.state.operand_index(1);
                if let Some(c) = self.state.slot(rhs).constant() {
                    let imm = c as i64;
                    let fits = match width {
                        Width::W32 => true,
                        Width::W64 => imm >= i32::MIN as i64 && imm <= i32::MAX as i64,
                    };
                    if fits && self.state.slot(lhs).constant().is_none() {
                        let ra = self.ensure_in_reg(lhs, &[]);
                        self.state.pop();
                        self.state.pop();
                        let dst = self.alloc_reg(false, &[ra]);
                        let a = ra.as_gpr().expect("integer operand");
                        let d = dst.as_gpr().expect("integer result");
                        self.asm.emit(match class {
                            OpClass::Alu(op, width) => MachInst::AluImm { op, width, dst: d, a, imm },
                            OpClass::Cmp(op, width) => MachInst::CmpImm { op, width, dst: d, a, imm },
                            _ => unreachable!("matched above"),
                        });
                        self.stats.immediate_selections += 1;
                        self.push_result(result_ty, Loc::Reg(dst));
                        return;
                    }
                }
            }
        }

        // General path: operands in registers, emit a three-address op.
        let mut operand_regs = [AnyReg::Gpr(SCRATCH_GPR); 2];
        for d in (0..arity).rev() {
            // Ensure deeper operands first so pinning covers already-ensured ones.
            let idx = self.state.operand_index(d);
            let pinned: Vec<AnyReg> = operand_regs[..(arity - 1 - d)].to_vec();
            operand_regs[arity - 1 - d] = self.ensure_in_reg(idx, &pinned);
        }
        // operand_regs[0] = first (deepest) operand, [1] = second.
        for _ in 0..arity {
            self.state.pop();
        }
        let dst = self.alloc_reg(result_ty.is_float(), &operand_regs[..arity]);
        match class {
            OpClass::Alu(op, width) => {
                self.asm.emit(MachInst::Alu {
                    op,
                    width,
                    dst: dst.as_gpr().expect("gpr"),
                    a: operand_regs[0].as_gpr().expect("gpr"),
                    b: operand_regs[1].as_gpr().expect("gpr"),
                });
            }
            OpClass::Cmp(op, width) => {
                self.asm.emit(MachInst::Cmp {
                    op,
                    width,
                    dst: dst.as_gpr().expect("gpr"),
                    a: operand_regs[0].as_gpr().expect("gpr"),
                    b: operand_regs[1].as_gpr().expect("gpr"),
                });
            }
            OpClass::Unop(op, width) => {
                self.asm.emit(MachInst::Unop {
                    op,
                    width,
                    dst: dst.as_gpr().expect("gpr"),
                    src: operand_regs[0].as_gpr().expect("gpr"),
                });
            }
            OpClass::FAlu(op, width) => {
                self.asm.emit(MachInst::FAlu {
                    op,
                    width,
                    dst: dst.as_fpr().expect("fpr"),
                    a: operand_regs[0].as_fpr().expect("fpr"),
                    b: operand_regs[1].as_fpr().expect("fpr"),
                });
            }
            OpClass::FUnop(op, width) => {
                self.asm.emit(MachInst::FUnop {
                    op,
                    width,
                    dst: dst.as_fpr().expect("fpr"),
                    src: operand_regs[0].as_fpr().expect("fpr"),
                });
            }
            OpClass::FCmp(op, width) => {
                self.asm.emit(MachInst::FCmp {
                    op,
                    width,
                    dst: dst.as_gpr().expect("gpr"),
                    a: operand_regs[0].as_fpr().expect("fpr"),
                    b: operand_regs[1].as_fpr().expect("fpr"),
                });
            }
            OpClass::Convert(op) => {
                self.asm.emit(MachInst::Convert { op, dst, src: operand_regs[0] });
            }
        }
        self.push_result(result_ty, Loc::Reg(dst));
    }
}
