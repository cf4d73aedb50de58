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
//! keeps merges O(1) and immune to JIT bombs: a label carries no snapshot,
//! and because the abstract state lists only the slots that depart from the
//! canonical state, a flush, a reset or a branch's adaptation costs what the
//! code since the last boundary cached or dirtied, never the number of
//! locals. A function with 50 000 locals it never writes compiles its
//! merges as fast as one with 50.
//!
//! The compile loop dispatches once per instruction: every integer
//! operation, compare, load and store has its own arm with its operation,
//! width and types as constants, so only float arithmetic and conversions go
//! through [`classify`]. Folding evaluates with the one
//! [`OpClass::evaluate`]. Nothing in the loop allocates per instruction:
//! block signatures are borrowed from the module, and a `br_table` reuses
//! the previous table's buffers.
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
use machine::inst::{AluOp, CmpOp, Label, MachInst, TrapCode, UnOp, Width};
use machine::lower::{classify, OpClass};
use machine::masm::Masm;
use machine::reg::{AnyReg, FReg, Reg};
use machine::values::{ValueTag, NULL_REF_BITS};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use wasm::fuel::FuelPlan;
use wasm::module::Module;
use wasm::opcode::Opcode;
use wasm::reader::{BytecodeReader, Imm, Instr};
use wasm::types::{BlockType, FuncType, ValueType};
use wasm::validate::FuncInfo;

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

/// The single-pass compiler. Cheap to construct; holds only options, owned
/// or borrowed.
#[derive(Debug, Clone, Default)]
pub struct SinglePassCompiler<'o> {
    options: Cow<'o, CompilerOptions>,
    metering: bool,
    osr: bool,
}

impl SinglePassCompiler<'static> {
    /// Creates a compiler with the given options.
    pub fn new(options: CompilerOptions) -> SinglePassCompiler<'static> {
        SinglePassCompiler {
            options: Cow::Owned(options),
            metering: false,
            osr: false,
        }
    }
}

impl<'o> SinglePassCompiler<'o> {
    /// Creates a compiler that reads `options` in place, for a caller that
    /// compiles each function with options it already holds.
    pub fn borrowing(options: &'o CompilerOptions) -> SinglePassCompiler<'o> {
        SinglePassCompiler {
            options: Cow::Borrowed(options),
            metering: false,
            osr: false,
        }
    }

    /// Enables or disables fuel metering: when on, the compiler bakes
    /// `fuel_check` / `epoch_check` sequences into the code at the offsets of
    /// the function's [`FuelPlan`], mirroring the interpreter's schedule.
    pub fn with_metering(mut self, metering: bool) -> SinglePassCompiler<'o> {
        self.metering = metering;
        self
    }

    /// Enables or disables OSR poll sites: when on, every loop-body start
    /// carries a source mark and (when metering is off) an `epoch_check`, so
    /// the executing CPU can poll the back-edge hotness counter there. Under
    /// metering the existing fused fuel check already polls at those sites,
    /// so only the source mark is added.
    pub fn with_osr(mut self, osr: bool) -> SinglePassCompiler<'o> {
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
        let body_len = module.func_decl(func_index).map_or(0, |decl| decl.code.len());
        self.compile_with(Assembler::for_body(body_len), module, func_index, info, probes)
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

        let state = AbstractState::new(
            &sig.params,
            &decl.locals,
            info.max_stack as usize,
            self.options.multi_register,
        );
        let num_locals = state.num_locals();
        // The plan validation wrote, consulted only when something rides it.
        let fuel = (self.metering || self.osr).then_some(&*info.fuel);
        // The reference-typed locals a stackmap lists at every call.
        let ref_locals = if self.options.tagging.uses_stackmaps() {
            (0..num_locals).filter(|&i| state.slot(i).ty.is_reference()).map(|i| i as u32).collect()
        } else {
            Vec::new()
        };
        let mut fc = FuncCompiler {
            module,
            options: &self.options,
            probes,
            fuel,
            metering: self.metering,
            osr: self.osr,
            num_locals,
            eager_local_tags: matches!(
                self.options.tagging,
                TagStrategy::Eager | TagStrategy::EagerLocalsOnly
            ),
            eager_operand_tags: matches!(
                self.options.tagging,
                TagStrategy::Eager | TagStrategy::EagerOperandsOnly
            ),
            results: &sig.results,
            ref_locals,
            asm: masm,
            state,
            ctrl: Vec::with_capacity(16),
            table_stubs: Vec::new(),
            table_targets: Vec::new(),
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
            num_locals: num_locals as u32,
            frame_slots: num_locals as u32 + info.max_stack,
            stats,
        })
    }
}

/// An open control construct.
#[derive(Debug, Clone, Copy)]
struct CtrlFrame<'a> {
    end_label: Label,
    /// The label the `if` jumps to when its condition is false, until the
    /// `else` (or `end`) binds it.
    else_label: Option<Label>,
    /// Where a branch to this construct goes: the loop head, or the end.
    branch_label: Label,
    /// How many values such a branch carries: the loop's parameters, or the
    /// construct's results.
    branch_arity: usize,
    label_base: usize,
    params: &'a [ValueType],
    results: &'a [ValueType],
    unreachable: bool,
}

/// A one-element block signature, borrowed for the whole compile.
fn single(ty: ValueType) -> &'static [ValueType] {
    match ty {
        ValueType::I32 => &[ValueType::I32],
        ValueType::I64 => &[ValueType::I64],
        ValueType::F32 => &[ValueType::F32],
        ValueType::F64 => &[ValueType::F64],
        ValueType::FuncRef => &[ValueType::FuncRef],
        ValueType::ExternRef => &[ValueType::ExternRef],
    }
}

/// The integer type of an operation width.
fn int_type(width: Width) -> ValueType {
    match width {
        Width::W32 => ValueType::I32,
        Width::W64 => ValueType::I64,
    }
}

/// Emits the store that puts a value held in `loc` into home slot `slot`
/// (nothing for a value already in memory).
fn store_to_slot<M: Masm>(asm: &mut M, slot: u32, loc: Loc) {
    match loc {
        Loc::Const(c) => {
            asm.emit(MachInst::StoreSlotImm { slot, imm: c as i64 });
        }
        Loc::Reg(src) => {
            asm.emit(MachInst::StoreSlot { slot, src });
        }
        Loc::Memory => {}
    }
}

/// What a call instruction calls.
enum Callee {
    /// A function by index.
    Direct(u32),
    /// The table entry at the index on top of the stack, checked against a
    /// signature.
    Indirect { type_index: u32, table_index: u32 },
}

/// Where the registers of an integer binary operation come from, once
/// folding and immediate selection have had their say.
enum IntOperands {
    /// Folded to a constant, which is already pushed.
    Folded,
    /// `dst = a op imm`.
    Imm { dst: Reg, a: Reg, imm: i64 },
    /// `dst = a op b`.
    Regs { dst: Reg, a: Reg, b: Reg },
}

struct FuncCompiler<'a, M: Masm> {
    module: &'a Module,
    options: &'a CompilerOptions,
    probes: &'a ProbeSites,
    fuel: Option<&'a FuelPlan>,
    metering: bool,
    osr: bool,
    num_locals: usize,
    /// Whether a write to a local, or to an operand, stores its tag at once.
    eager_local_tags: bool,
    eager_operand_tags: bool,
    results: &'a [ValueType],
    ref_locals: Vec<u32>,
    asm: M,
    state: AbstractState,
    ctrl: Vec<CtrlFrame<'a>>,
    /// A `br_table`'s stubs and targets, kept across tables so that each one
    /// reuses the last one's buffers.
    table_stubs: Vec<Label>,
    table_targets: Vec<(Label, usize, usize)>,
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

    /// The compile loop: one decoded instruction at a time, in order.
    fn compile_body(&mut self, code: &[u8]) -> Result<(), CompileError> {
        let func_end = self.asm.new_label();
        self.ctrl.push(CtrlFrame {
            end_label: func_end,
            else_label: None,
            branch_label: func_end,
            branch_arity: self.results.len(),
            label_base: 0,
            params: &[],
            results: self.results,
            unreachable: false,
        });

        let probed = !self.probes.is_empty();
        let mut reader = BytecodeReader::new(code);
        while !self.ctrl.is_empty() {
            let offset = reader.pc();
            // Matched rather than converted with `map_err(..)?`: the
            // conversion re-packed the decoded `Imm` through the stack, and
            // reading it back stalled on the stores (a tenth of the compile).
            let instr = match reader.next() {
                Some(Ok(instr)) => instr,
                Some(Err(e)) => return Err(self.error(offset, e.to_string())),
                None => return Err(self.error(offset, "body ended with open control constructs")),
            };
            if self.options.debug_metadata {
                self.asm.mark_source(offset as u32);
            }
            if self.unreachable_now() {
                // In unreachable code only track control nesting.
                if matches!(instr.op, Opcode::Block | Opcode::Loop | Opcode::If | Opcode::Else | Opcode::End) {
                    self.compile_instruction(instr)?;
                }
            } else {
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
                if probed {
                    if let Some(site) = self.probes.get(offset as u32) {
                        self.emit_probe(*site, offset as u32);
                    }
                }
                self.compile_instruction(instr)?;
            }
        }
        if !reader.is_at_end() {
            return Err(self.error(reader.pc(), "trailing bytes after final end"));
        }
        Ok(())
    }

    // ---- Code-generation helpers -------------------------------------------

    fn emit_tag(&mut self, slot: usize) {
        let tag = ValueTag::for_type(self.state.slot(slot).ty);
        self.asm.emit(MachInst::StoreTag { slot: slot as u32, tag });
        self.state.set_tag_in_memory(slot, true);
        self.stats.tag_stores += 1;
    }

    fn eager_tag_on_write(&mut self, slot: usize) {
        let eager = if slot < self.num_locals { self.eager_local_tags } else { self.eager_operand_tags };
        if eager {
            self.emit_tag(slot);
        }
    }

    /// Stores every value whose home slot is stale, leaving locations
    /// unchanged.
    fn flush_values(&mut self) {
        let asm = &mut self.asm;
        self.state.flush(|slot, loc| store_to_slot(asm, slot as u32, loc));
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
        let locals = match self.options.tagging {
            TagStrategy::None => return None,
            TagStrategy::Stackmaps => {
                let operands = (self.num_locals..self.state.len())
                    .filter(|&slot| self.state.slot(slot).ty.is_reference())
                    .map(|slot| slot as u32);
                return Some(self.ref_locals.iter().copied().chain(operands).collect());
            }
            // The stack walker reconstructs locals' tags from the
            // declarations.
            TagStrategy::Lazy => false,
            _ => true,
        };
        let (asm, stats) = (&mut self.asm, &mut self.stats);
        self.state.store_tags(locals, |slot, ty| {
            asm.emit(MachInst::StoreTag { slot: slot as u32, tag: ValueTag::for_type(ty) });
            stats.tag_stores += 1;
        });
        None
    }

    fn spill_reg(&mut self, reg: AnyReg) {
        let (asm, stats) = (&mut self.asm, &mut self.stats);
        self.state.spill(reg, |slot| {
            asm.emit(MachInst::StoreSlot { slot: slot as u32, src: reg });
            stats.spills += 1;
        });
    }

    /// A free GPR, evicting one not in `pinned` if none is free.
    fn alloc_gpr(&mut self, pinned: &[AnyReg]) -> Reg {
        if let Some(r) = self.state.free_gpr() {
            return r;
        }
        loop {
            let victim = self.state.evict_gpr();
            if !pinned.contains(&AnyReg::Gpr(victim)) {
                self.spill_reg(AnyReg::Gpr(victim));
                return victim;
            }
        }
    }

    /// A free FPR, evicting one not in `pinned` if none is free.
    fn alloc_fpr(&mut self, pinned: &[AnyReg]) -> FReg {
        if let Some(r) = self.state.free_fpr() {
            return r;
        }
        loop {
            let victim = self.state.evict_fpr();
            if !pinned.contains(&AnyReg::Fpr(victim)) {
                self.spill_reg(AnyReg::Fpr(victim));
                return victim;
            }
        }
    }

    fn alloc_reg(&mut self, float: bool, pinned: &[AnyReg]) -> AnyReg {
        if float {
            AnyReg::Fpr(self.alloc_fpr(pinned))
        } else {
            AnyReg::Gpr(self.alloc_gpr(pinned))
        }
    }

    /// Ensures the value of an integer or reference slot is in a GPR and
    /// returns it. A slot's register bank follows its type, so such a slot
    /// is never cached in an FPR.
    fn ensure_gpr(&mut self, slot: usize, pinned: &[AnyReg]) -> Reg {
        let loc = self.state.slot(slot).loc();
        if let Loc::Reg(AnyReg::Gpr(r)) = loc {
            return r;
        }
        let in_memory = self.state.slot(slot).in_memory;
        let tagged = self.state.tag_in_memory(slot);
        match loc {
            Loc::Const(c) => {
                let r = self.alloc_gpr(pinned);
                self.asm.emit(MachInst::MovImm { dst: r, imm: c as i64 });
                self.state.set_slot(slot, Loc::Reg(AnyReg::Gpr(r)), in_memory, tagged);
                r
            }
            _ => {
                debug_assert_eq!(loc, Loc::Memory, "an integer slot in an FPR");
                let r = self.alloc_gpr(pinned);
                self.asm.emit(MachInst::LoadSlot { dst: AnyReg::Gpr(r), slot: slot as u32 });
                self.state.set_slot(slot, Loc::Reg(AnyReg::Gpr(r)), true, tagged);
                r
            }
        }
    }

    /// Ensures the value of a float slot is in an FPR and returns it.
    fn ensure_fpr(&mut self, slot: usize, pinned: &[AnyReg]) -> FReg {
        let loc = self.state.slot(slot).loc();
        if let Loc::Reg(AnyReg::Fpr(f)) = loc {
            return f;
        }
        let in_memory = self.state.slot(slot).in_memory;
        let tagged = self.state.tag_in_memory(slot);
        match loc {
            Loc::Const(bits) => {
                let f = self.alloc_fpr(pinned);
                self.asm.emit(MachInst::FMovImm { dst: f, bits });
                self.state.set_slot(slot, Loc::Reg(AnyReg::Fpr(f)), in_memory, tagged);
                f
            }
            _ => {
                debug_assert_eq!(loc, Loc::Memory, "a float slot in a GPR");
                let f = self.alloc_fpr(pinned);
                self.asm.emit(MachInst::LoadSlot { dst: AnyReg::Fpr(f), slot: slot as u32 });
                self.state.set_slot(slot, Loc::Reg(AnyReg::Fpr(f)), true, tagged);
                f
            }
        }
    }

    /// Ensures the value of `slot` is in a register of its type's bank and
    /// returns it.
    fn ensure_in_reg(&mut self, slot: usize, pinned: &[AnyReg]) -> AnyReg {
        if self.state.slot(slot).ty.is_float() {
            AnyReg::Fpr(self.ensure_fpr(slot, pinned))
        } else {
            AnyReg::Gpr(self.ensure_gpr(slot, pinned))
        }
    }

    /// Copies `src` into a newly allocated register of the same bank.
    fn copy_to_new_reg(&mut self, src: AnyReg) -> AnyReg {
        match src {
            AnyReg::Gpr(src) => {
                let dst = self.alloc_gpr(&[AnyReg::Gpr(src)]);
                self.asm.emit(MachInst::Mov { dst, src });
                AnyReg::Gpr(dst)
            }
            AnyReg::Fpr(src) => {
                let dst = self.alloc_fpr(&[AnyReg::Fpr(src)]);
                self.asm.emit(MachInst::FMov { dst, src });
                AnyReg::Fpr(dst)
            }
        }
    }

    #[inline(always)]
    fn push_result(&mut self, ty: ValueType, loc: Loc) {
        let slot = self.state.push(ty, loc);
        self.eager_tag_on_write(slot);
    }

    // ---- Control flow -------------------------------------------------------

    fn block_signature(
        &self,
        offset: usize,
        bt: BlockType,
    ) -> Result<(&'a [ValueType], &'a [ValueType]), CompileError> {
        let module = self.module;
        let (params, results): (&'a [ValueType], &'a [ValueType]) = match bt {
            BlockType::Empty => (&[], &[]),
            BlockType::Value(ty) => (&[], single(ty)),
            BlockType::Func(index) => {
                let ty = module
                    .types
                    .get(index as usize)
                    .ok_or_else(|| self.error(offset, "bad block type"))?;
                (&ty.params, &ty.results)
            }
        };
        if !self.options.multi_value && (results.len() > 1 || !params.is_empty()) {
            return Err(self.error(
                offset,
                "multi-value block types are not supported by this configuration",
            ));
        }
        Ok((params, results))
    }

    /// The label, label base and arity of a branch `depth` constructs out.
    fn branch_target(&self, offset: usize, depth: u32) -> Result<(Label, usize, usize), CompileError> {
        let frame = self
            .ctrl
            .len()
            .checked_sub(1 + depth as usize)
            .map(|index| &self.ctrl[index])
            .ok_or_else(|| self.error(offset, "bad branch depth"))?;
        Ok((frame.branch_label, frame.label_base, frame.branch_arity))
    }

    /// True if jumping directly to a label with the current state would be
    /// wrong (values not in their expected home slots).
    fn needs_branch_adaptation(&self, label_base: usize, arity: usize) -> bool {
        if self.state.dirty_locals().next().is_some() {
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
        for (local, loc) in self.state.dirty_locals() {
            store_to_slot(&mut self.asm, local as u32, loc);
        }
        let height = self.state.height();
        for i in 0..arity {
            let src = self.num_locals + height - arity + i;
            let dst = (self.num_locals + label_base + i) as u32;
            match self.state.slot(src).loc() {
                Loc::Memory => {
                    if src as u32 != dst {
                        let scratch = AnyReg::Gpr(SCRATCH_GPR);
                        self.asm.emit(MachInst::LoadSlot { dst: scratch, slot: src as u32 });
                        self.asm.emit(MachInst::StoreSlot { slot: dst, src: scratch });
                    }
                }
                loc => store_to_slot(&mut self.asm, dst, loc),
            }
        }
    }

    /// A branch that is always taken: adapt, jump, and the rest is dead.
    fn emit_branch(&mut self, offset: usize, depth: u32) -> Result<(), CompileError> {
        let (label, base, arity) = self.branch_target(offset, depth)?;
        self.emit_branch_adaptation(base, arity);
        self.asm.emit(MachInst::Jump { target: label });
        self.mark_unreachable();
        Ok(())
    }

    fn mark_unreachable(&mut self) {
        let label_base = self.ctrl.last().map(|f| f.label_base).unwrap_or(0);
        self.state.truncate_operands(label_base);
        if let Some(frame) = self.ctrl.last_mut() {
            frame.unreachable = true;
        }
    }

    fn emit_return(&mut self) {
        let arity = self.results.len();
        let height = self.state.height();
        for i in 0..arity {
            let src = self.num_locals + height - arity + i;
            let dst = i as u32;
            match self.state.slot(src).loc() {
                Loc::Memory => {
                    let scratch = AnyReg::Gpr(SCRATCH_GPR);
                    self.asm.emit(MachInst::LoadSlot { dst: scratch, slot: src as u32 });
                    self.asm.emit(MachInst::StoreSlot { slot: dst, src: scratch });
                }
                loc => store_to_slot(&mut self.asm, dst, loc),
            }
            if self.options.tagging.uses_tags() {
                let tag = ValueTag::for_type(self.results[i]);
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

    /// One instruction, dispatched once on its opcode: every integer
    /// operation, load and store has an arm of its own with its operation,
    /// width and types as constants. Float arithmetic and conversions share
    /// the last arm, which classifies them.
    ///
    /// Inlined into the compile loop by force, for the reason
    /// `BytecodeReader::next` is: passed by reference, the decoded `Imm` is
    /// read back with loads that stall on the stores that just wrote it.
    #[inline(always)]
    fn compile_instruction(&mut self, instr: Instr<'_>) -> Result<(), CompileError> {
        let Instr { offset, op, imm, .. } = instr;

        macro_rules! alu {
            ($op:ident, $width:ident) => {
                self.compile_alu(AluOp::$op, Width::$width)
            };
        }
        macro_rules! cmp {
            ($op:ident, $width:ident) => {
                self.compile_cmp(CmpOp::$op, Width::$width)
            };
        }
        macro_rules! unop {
            ($op:ident, $width:ident) => {
                self.compile_unop(UnOp::$op, Width::$width)
            };
        }
        macro_rules! load {
            ($memarg:expr, $result:ident, $width:literal, $signed:literal) => {
                self.compile_load(ValueType::$result, $width, $signed, $memarg.offset)
            };
        }
        macro_rules! store {
            ($memarg:expr, $width:literal) => {
                self.compile_store($width, $memarg.offset)
            };
        }

        // Matching on a reference leaves the immediates where the decoder
        // put them; moved into a tuple they are re-packed through the stack.
        match (op, &imm) {
            (Opcode::Nop, _) => {}
            (Opcode::Unreachable, _) => {
                self.asm.emit(MachInst::Trap { code: TrapCode::Unreachable });
                self.mark_unreachable();
            }
            (Opcode::Block | Opcode::Loop | Opcode::If, &Imm::Block(bt)) => {
                self.compile_block(offset, op, bt)?;
            }
            (Opcode::Else, _) => self.compile_else(offset)?,
            (Opcode::End, _) => self.compile_end(offset)?,
            (Opcode::Br, &Imm::Index(depth)) => self.emit_branch(offset, depth)?,
            (Opcode::BrIf, &Imm::Index(depth)) => self.compile_br_if(offset, depth)?,
            (Opcode::BrTable, &Imm::Table(table)) => {
                let index = self.state.operand_index(0);
                let ri = self.ensure_gpr(index, &[]);
                self.state.pop();
                // Everything must be in memory on every outgoing edge.
                self.flush_values();
                let mut stubs = std::mem::take(&mut self.table_stubs);
                let mut targets = std::mem::take(&mut self.table_targets);
                stubs.clear();
                targets.clear();
                for depth in table.targets_and_default() {
                    targets.push(self.branch_target(offset, depth)?);
                    stubs.push(self.asm.new_label());
                }
                if let Some((&default_stub, cases)) = stubs.split_last() {
                    self.asm.br_table(ri, cases, default_stub);
                }
                for (&stub, &(label, base, arity)) in stubs.iter().zip(&targets) {
                    self.asm.bind(stub);
                    self.emit_branch_adaptation(base, arity);
                    self.asm.emit(MachInst::Jump { target: label });
                }
                self.table_stubs = stubs;
                self.table_targets = targets;
                self.mark_unreachable();
            }
            (Opcode::Return, _) => {
                self.emit_return();
                self.mark_unreachable();
            }
            (Opcode::Call, &Imm::Index(callee)) => {
                let module = self.module;
                let sig = module
                    .func_type(callee)
                    .ok_or_else(|| self.error(offset, format!("unknown callee {callee}")))?;
                self.compile_call(offset, sig, Callee::Direct(callee))?;
            }
            (Opcode::CallIndirect, &Imm::CallIndirect { type_index, table_index }) => {
                let module = self.module;
                let sig = module
                    .types
                    .get(type_index as usize)
                    .ok_or_else(|| self.error(offset, format!("unknown type {type_index}")))?;
                self.compile_call(offset, sig, Callee::Indirect { type_index, table_index })?;
            }
            (Opcode::Drop, _) => {
                self.state.pop();
            }
            (Opcode::Select | Opcode::SelectT, _) => self.compile_select(),
            (Opcode::LocalGet, &Imm::Index(index)) => self.compile_local_get(index as usize),
            (Opcode::LocalSet | Opcode::LocalTee, &Imm::Index(index)) => {
                self.compile_local_set(index as usize, op == Opcode::LocalTee);
            }
            (Opcode::GlobalGet, &Imm::Index(index)) => {
                let ty = self
                    .module
                    .global_type(index)
                    .ok_or_else(|| self.error(offset, format!("unknown global {index}")))?
                    .value_type;
                let dst = self.alloc_reg(ty.is_float(), &[]);
                self.asm.emit(MachInst::GlobalGet { dst, index });
                self.push_result(ty, Loc::Reg(dst));
            }
            (Opcode::GlobalSet, &Imm::Index(index)) => {
                let top = self.state.operand_index(0);
                let src = self.ensure_in_reg(top, &[]);
                self.state.pop();
                self.asm.emit(MachInst::GlobalSet { index, src });
            }
            (Opcode::I32Const, &Imm::I32(v)) => self.compile_const(ValueType::I32, v as u32 as u64),
            (Opcode::I64Const, &Imm::I64(v)) => self.compile_const(ValueType::I64, v as u64),
            (Opcode::F32Const, &Imm::F32(v)) => {
                self.compile_const(ValueType::F32, v.to_bits() as u64);
            }
            (Opcode::F64Const, &Imm::F64(v)) => self.compile_const(ValueType::F64, v.to_bits()),
            (Opcode::RefNull, &Imm::Ref(ty)) => self.compile_const(ty, NULL_REF_BITS),
            (Opcode::RefFunc, &Imm::Index(index)) => {
                self.compile_const(ValueType::FuncRef, index as u64);
            }
            (Opcode::RefIsNull, _) => {
                let top = self.state.operand_index(0);
                let a = self.ensure_gpr(top, &[]);
                self.state.pop();
                let dst = self.alloc_gpr(&[AnyReg::Gpr(a)]);
                self.asm.emit(MachInst::CmpImm { op: CmpOp::Eq, width: Width::W64, dst, a, imm: -1 });
                self.push_result(ValueType::I32, Loc::Reg(AnyReg::Gpr(dst)));
            }
            (Opcode::MemorySize, _) => {
                let dst = self.alloc_gpr(&[]);
                self.asm.emit(MachInst::MemorySize { dst });
                self.push_result(ValueType::I32, Loc::Reg(AnyReg::Gpr(dst)));
            }
            (Opcode::MemoryGrow, _) => {
                let top = self.state.operand_index(0);
                let delta = self.ensure_gpr(top, &[]);
                self.state.pop();
                let dst = self.alloc_gpr(&[AnyReg::Gpr(delta)]);
                self.asm.emit(MachInst::MemoryGrow { dst, delta });
                self.push_result(ValueType::I32, Loc::Reg(AnyReg::Gpr(dst)));
            }
            (Opcode::I32Load, &Imm::Mem(m)) => load!(m, I32, 4, false),
            (Opcode::I64Load, &Imm::Mem(m)) => load!(m, I64, 8, false),
            (Opcode::F32Load, &Imm::Mem(m)) => load!(m, F32, 4, false),
            (Opcode::F64Load, &Imm::Mem(m)) => load!(m, F64, 8, false),
            (Opcode::I32Load8S, &Imm::Mem(m)) => load!(m, I32, 1, true),
            (Opcode::I32Load8U, &Imm::Mem(m)) => load!(m, I32, 1, false),
            (Opcode::I32Load16S, &Imm::Mem(m)) => load!(m, I32, 2, true),
            (Opcode::I32Load16U, &Imm::Mem(m)) => load!(m, I32, 2, false),
            (Opcode::I64Load8S, &Imm::Mem(m)) => load!(m, I64, 1, true),
            (Opcode::I64Load8U, &Imm::Mem(m)) => load!(m, I64, 1, false),
            (Opcode::I64Load16S, &Imm::Mem(m)) => load!(m, I64, 2, true),
            (Opcode::I64Load16U, &Imm::Mem(m)) => load!(m, I64, 2, false),
            (Opcode::I64Load32S, &Imm::Mem(m)) => load!(m, I64, 4, true),
            (Opcode::I64Load32U, &Imm::Mem(m)) => load!(m, I64, 4, false),
            (Opcode::I32Store | Opcode::F32Store | Opcode::I64Store32, &Imm::Mem(m)) => store!(m, 4),
            (Opcode::I64Store | Opcode::F64Store, &Imm::Mem(m)) => store!(m, 8),
            (Opcode::I32Store8 | Opcode::I64Store8, &Imm::Mem(m)) => store!(m, 1),
            (Opcode::I32Store16 | Opcode::I64Store16, &Imm::Mem(m)) => store!(m, 2),
            (Opcode::I32Eqz, _) => unop!(Eqz, W32),
            (Opcode::I32Clz, _) => unop!(Clz, W32),
            (Opcode::I32Ctz, _) => unop!(Ctz, W32),
            (Opcode::I32Popcnt, _) => unop!(Popcnt, W32),
            (Opcode::I32Extend8S, _) => unop!(Extend8S, W32),
            (Opcode::I32Extend16S, _) => unop!(Extend16S, W32),
            (Opcode::I32Eq, _) => cmp!(Eq, W32),
            (Opcode::I32Ne, _) => cmp!(Ne, W32),
            (Opcode::I32LtS, _) => cmp!(LtS, W32),
            (Opcode::I32LtU, _) => cmp!(LtU, W32),
            (Opcode::I32GtS, _) => cmp!(GtS, W32),
            (Opcode::I32GtU, _) => cmp!(GtU, W32),
            (Opcode::I32LeS, _) => cmp!(LeS, W32),
            (Opcode::I32LeU, _) => cmp!(LeU, W32),
            (Opcode::I32GeS, _) => cmp!(GeS, W32),
            (Opcode::I32GeU, _) => cmp!(GeU, W32),
            (Opcode::I32Add, _) => alu!(Add, W32),
            (Opcode::I32Sub, _) => alu!(Sub, W32),
            (Opcode::I32Mul, _) => alu!(Mul, W32),
            (Opcode::I32DivS, _) => alu!(DivS, W32),
            (Opcode::I32DivU, _) => alu!(DivU, W32),
            (Opcode::I32RemS, _) => alu!(RemS, W32),
            (Opcode::I32RemU, _) => alu!(RemU, W32),
            (Opcode::I32And, _) => alu!(And, W32),
            (Opcode::I32Or, _) => alu!(Or, W32),
            (Opcode::I32Xor, _) => alu!(Xor, W32),
            (Opcode::I32Shl, _) => alu!(Shl, W32),
            (Opcode::I32ShrS, _) => alu!(ShrS, W32),
            (Opcode::I32ShrU, _) => alu!(ShrU, W32),
            (Opcode::I32Rotl, _) => alu!(Rotl, W32),
            (Opcode::I32Rotr, _) => alu!(Rotr, W32),
            (Opcode::I64Eqz, _) => unop!(Eqz, W64),
            (Opcode::I64Clz, _) => unop!(Clz, W64),
            (Opcode::I64Ctz, _) => unop!(Ctz, W64),
            (Opcode::I64Popcnt, _) => unop!(Popcnt, W64),
            (Opcode::I64Extend8S, _) => unop!(Extend8S, W64),
            (Opcode::I64Extend16S, _) => unop!(Extend16S, W64),
            (Opcode::I64Extend32S, _) => unop!(Extend32S, W64),
            (Opcode::I64Eq, _) => cmp!(Eq, W64),
            (Opcode::I64Ne, _) => cmp!(Ne, W64),
            (Opcode::I64LtS, _) => cmp!(LtS, W64),
            (Opcode::I64LtU, _) => cmp!(LtU, W64),
            (Opcode::I64GtS, _) => cmp!(GtS, W64),
            (Opcode::I64GtU, _) => cmp!(GtU, W64),
            (Opcode::I64LeS, _) => cmp!(LeS, W64),
            (Opcode::I64LeU, _) => cmp!(LeU, W64),
            (Opcode::I64GeS, _) => cmp!(GeS, W64),
            (Opcode::I64GeU, _) => cmp!(GeU, W64),
            (Opcode::I64Add, _) => alu!(Add, W64),
            (Opcode::I64Sub, _) => alu!(Sub, W64),
            (Opcode::I64Mul, _) => alu!(Mul, W64),
            (Opcode::I64DivS, _) => alu!(DivS, W64),
            (Opcode::I64DivU, _) => alu!(DivU, W64),
            (Opcode::I64RemS, _) => alu!(RemS, W64),
            (Opcode::I64RemU, _) => alu!(RemU, W64),
            (Opcode::I64And, _) => alu!(And, W64),
            (Opcode::I64Or, _) => alu!(Or, W64),
            (Opcode::I64Xor, _) => alu!(Xor, W64),
            (Opcode::I64Shl, _) => alu!(Shl, W64),
            (Opcode::I64ShrS, _) => alu!(ShrS, W64),
            (Opcode::I64ShrU, _) => alu!(ShrU, W64),
            (Opcode::I64Rotl, _) => alu!(Rotl, W64),
            (Opcode::I64Rotr, _) => alu!(Rotr, W64),
            _ => {
                let class = classify(op)
                    .ok_or_else(|| self.error(offset, format!("unhandled opcode {op}")))?;
                self.compile_classified(class);
            }
        }
        Ok(())
    }

    fn compile_block(&mut self, offset: usize, op: Opcode, bt: BlockType) -> Result<(), CompileError> {
        let (params, results) = self.block_signature(offset, bt)?;
        let dead = self.unreachable_now();

        let mut cond = None;
        if op == Opcode::If && !dead {
            let top = self.state.operand_index(0);
            cond = Some(self.ensure_gpr(top, &[]));
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
        let (branch_label, branch_arity, else_label) = match op {
            Opcode::Loop => (self.asm.new_bound_label(), params.len(), None),
            Opcode::If => {
                let else_label = self.asm.new_label();
                if let Some(cond) = cond {
                    self.asm.emit(MachInst::BrIf { cond, target: else_label, negate: true });
                }
                (end_label, results.len(), Some(else_label))
            }
            _ => (end_label, results.len(), None),
        };
        self.ctrl.push(CtrlFrame {
            end_label,
            else_label,
            branch_label,
            branch_arity,
            label_base,
            params,
            results,
            unreachable: dead,
        });
        Ok(())
    }

    fn compile_else(&mut self, offset: usize) -> Result<(), CompileError> {
        let was_reachable = !self.unreachable_now();
        if was_reachable {
            self.flush_for_control();
        } else {
            self.forget_dead_path();
        }
        let len = self.ctrl.len();
        let parent_dead = len >= 2 && self.ctrl[len - 2].unreachable;
        let Some(frame) = self.ctrl.last_mut() else {
            return Err(self.error(offset, "else outside an if"));
        };
        let (end, else_label) = (frame.end_label, frame.else_label.take());
        let (label_base, params) = (frame.label_base, frame.params);
        // The else branch starts from the state captured at the `if`:
        // canonical memory with the params on the operand stack.
        frame.unreachable = parent_dead;
        if was_reachable {
            self.asm.emit(MachInst::Jump { target: end });
        }
        if let Some(else_label) = else_label {
            self.asm.bind(else_label);
        }
        if !parent_dead {
            self.state.truncate_operands(label_base);
            for &ty in params {
                self.state.push(ty, Loc::Memory);
            }
        }
        Ok(())
    }

    fn compile_end(&mut self, offset: usize) -> Result<(), CompileError> {
        let was_reachable = !self.unreachable_now();
        if was_reachable {
            self.flush_for_control();
        } else {
            self.forget_dead_path();
        }
        let frame = self.ctrl.pop().ok_or_else(|| self.error(offset, "end outside a construct"))?;
        if let Some(else_label) = frame.else_label {
            self.asm.bind(else_label);
        }
        self.asm.bind(frame.end_label);
        let parent_dead = self.unreachable_now();
        if !parent_dead {
            self.state.truncate_operands(frame.label_base);
            for &ty in frame.results {
                self.state.push(ty, Loc::Memory);
            }
        }
        if self.ctrl.is_empty() {
            // Function epilogue.
            if was_reachable || !parent_dead {
                self.emit_return();
            }
        }
        Ok(())
    }

    fn compile_br_if(&mut self, offset: usize, depth: u32) -> Result<(), CompileError> {
        let cond = self.state.operand_index(0);
        if self.options.constant_folding {
            if let Some(c) = self.state.slot(cond).constant() {
                self.state.pop();
                self.stats.branches_folded += 1;
                if c != 0 {
                    self.emit_branch(offset, depth)?;
                }
                return Ok(());
            }
        }
        let cond = self.ensure_gpr(cond, &[]);
        self.state.pop();
        let (label, base, arity) = self.branch_target(offset, depth)?;
        if self.needs_branch_adaptation(base, arity) {
            let skip = self.asm.new_label();
            self.asm.emit(MachInst::BrIf { cond, target: skip, negate: true });
            self.emit_branch_adaptation(base, arity);
            self.asm.emit(MachInst::Jump { target: label });
            self.asm.bind(skip);
        } else {
            self.asm.emit(MachInst::BrIf { cond, target: label, negate: false });
        }
        Ok(())
    }

    /// A call: flush for observation, record the site, replace the
    /// arguments with the results.
    fn compile_call(&mut self, offset: usize, sig: &FuncType, callee: Callee) -> Result<(), CompileError> {
        if !self.options.multi_value && sig.results.len() > 1 {
            return Err(self.error(offset, "multi-value call not supported"));
        }
        if !self.options.debug_metadata {
            // Calls always need a source-map anchor for stack traces.
            self.asm.mark_source(offset as u32);
        }
        let inst = match callee {
            Callee::Direct(func_index) => MachInst::Call { func_index },
            Callee::Indirect { type_index, table_index } => {
                let top = self.state.operand_index(0);
                let index = self.ensure_gpr(top, &[]);
                self.state.pop();
                MachInst::CallIndirect { type_index, table_index, index }
            }
        };
        let refs = self.flush_for_observation();
        let callee_slot_base = (self.num_locals + self.state.height() - sig.params.len()) as u32;
        let site_index = self.asm.emit(inst);
        self.call_sites.insert(site_index, CallSiteInfo { callee_slot_base });
        if let Some(ref_slots) = refs {
            self.stackmaps.push(Stackmap { inst_index: site_index, ref_slots });
        }
        for _ in 0..sig.params.len() {
            self.state.pop();
        }
        for &ty in &sig.results {
            let slot = self.state.push(ty, Loc::Memory);
            self.state.set_tag_in_memory(slot, true);
        }
        Ok(())
    }

    fn compile_const(&mut self, ty: ValueType, bits: u64) {
        if self.options.track_constants {
            self.push_result(ty, Loc::Const(bits));
        } else if ty.is_float() {
            let dst = self.alloc_fpr(&[]);
            self.asm.emit(MachInst::FMovImm { dst, bits });
            self.push_result(ty, Loc::Reg(AnyReg::Fpr(dst)));
        } else {
            let dst = self.alloc_gpr(&[]);
            self.asm.emit(MachInst::MovImm { dst, imm: bits as i64 });
            self.push_result(ty, Loc::Reg(AnyReg::Gpr(dst)));
        }
    }

    fn compile_local_get(&mut self, index: usize) {
        let (ty, loc) = (self.state.slot(index).ty, self.state.slot(index).loc());
        match loc {
            Loc::Const(c) if self.options.track_constants => {
                self.push_result(ty, Loc::Const(c));
            }
            Loc::Reg(r) if self.state.can_share(r) => {
                self.push_result(ty, Loc::Reg(r));
            }
            Loc::Reg(r) => {
                let dst = self.copy_to_new_reg(r);
                self.push_result(ty, Loc::Reg(dst));
            }
            Loc::Const(_) | Loc::Memory => {
                let dst = self.alloc_reg(ty.is_float(), &[]);
                self.asm.emit(MachInst::LoadSlot { dst, slot: index as u32 });
                if self.options.multi_register {
                    // The register now caches the local as well.
                    self.state.share(dst, index);
                }
                self.push_result(ty, Loc::Reg(dst));
            }
        }
    }

    fn compile_local_set(&mut self, index: usize, is_tee: bool) {
        let top = self.state.operand_index(0);
        match self.state.slot(top).loc() {
            Loc::Const(c) if self.options.track_constants => {
                self.state.set_slot(index, Loc::Const(c), false, false);
            }
            Loc::Reg(r) => {
                let r = if is_tee && !self.options.multi_register { self.copy_to_new_reg(r) } else { r };
                self.state.set_slot(index, Loc::Reg(r), false, false);
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
        let cond = self.ensure_gpr(cond, &[]);
        let pinned = AnyReg::Gpr(cond);
        let (inst, dst) = if ty.is_float() {
            let if_false = self.ensure_fpr(b, &[pinned]);
            let if_true = self.ensure_fpr(a, &[pinned, AnyReg::Fpr(if_false)]);
            self.state.truncate_operands(self.state.height() - 3);
            let dst = self.alloc_fpr(&[AnyReg::Fpr(if_true), AnyReg::Fpr(if_false), pinned]);
            (MachInst::FSelect { dst, cond, if_true, if_false }, AnyReg::Fpr(dst))
        } else {
            let if_false = self.ensure_gpr(b, &[pinned]);
            let if_true = self.ensure_gpr(a, &[pinned, AnyReg::Gpr(if_false)]);
            self.state.truncate_operands(self.state.height() - 3);
            let dst = self.alloc_gpr(&[AnyReg::Gpr(if_true), AnyReg::Gpr(if_false), pinned]);
            (MachInst::Select { dst, cond, if_true, if_false }, AnyReg::Gpr(dst))
        };
        self.asm.emit(inst);
        self.push_result(ty, Loc::Reg(dst));
    }

    /// A load of `width` bytes producing `result`, sign-extended if `signed`.
    fn compile_load(&mut self, result: ValueType, width: u32, signed: bool, offset: u32) {
        let top = self.state.operand_index(0);
        let addr = self.ensure_gpr(top, &[]);
        self.state.pop();
        let dst = self.alloc_reg(result.is_float(), &[AnyReg::Gpr(addr)]);
        let dst_width = if result == ValueType::I32 || result == ValueType::F32 {
            Width::W32
        } else {
            Width::W64
        };
        self.asm.emit(MachInst::MemLoad { dst, addr, offset, width, signed, dst_width });
        self.push_result(result, Loc::Reg(dst));
    }

    /// A store of the low `width` bytes of the value on top of the stack.
    fn compile_store(&mut self, width: u32, offset: u32) {
        let value = self.state.operand_index(0);
        let addr = self.state.operand_index(1);
        let src = self.ensure_in_reg(value, &[]);
        let addr = self.ensure_gpr(addr, &[src]);
        self.state.pop();
        self.state.pop();
        self.asm.emit(MachInst::MemStore { src, addr, offset, width });
    }

    /// Constant folding: when the top `N` operands are known constants and
    /// `class` does not trap on them, replaces them with the result and
    /// returns true.
    fn try_fold<const N: usize>(&mut self, class: OpClass, result: ValueType) -> bool {
        if !(self.options.constant_folding && self.options.track_constants) {
            return false;
        }
        let mut operands = [0u64; N];
        // Depth 0 is the top of the stack: the last operand.
        for (depth, operand) in operands.iter_mut().rev().enumerate() {
            match self.state.slot(self.state.operand_index(depth)).constant() {
                Some(c) => *operand = c,
                None => return false,
            }
        }
        // An operation that would trap is emitted, so the trap happens
        // during execution.
        let Ok(bits) = class.evaluate(&operands) else {
            return false;
        };
        for _ in 0..N {
            self.state.pop();
        }
        self.stats.constants_folded += 1;
        self.push_result(result, Loc::Const(bits));
        true
    }

    /// The operands and destination of an integer binary operation: folded
    /// away, with a constant right operand as an immediate, or in registers.
    fn int_binary_operands(&mut self, class: OpClass, width: Width, result: ValueType) -> IntOperands {
        if self.try_fold::<2>(class, result) {
            return IntOperands::Folded;
        }
        let rhs = self.state.operand_index(0);
        let lhs = self.state.operand_index(1);
        if self.options.instruction_selection && self.state.slot(lhs).constant().is_none() {
            if let Some(c) = self.state.slot(rhs).constant() {
                let imm = c as i64;
                if width == Width::W32 || i32::try_from(imm).is_ok() {
                    let a = self.ensure_gpr(lhs, &[]);
                    self.state.pop();
                    self.state.pop();
                    let dst = self.alloc_gpr(&[AnyReg::Gpr(a)]);
                    self.stats.immediate_selections += 1;
                    return IntOperands::Imm { dst, a, imm };
                }
            }
        }
        let a = self.ensure_gpr(lhs, &[]);
        let b = self.ensure_gpr(rhs, &[AnyReg::Gpr(a)]);
        self.state.pop();
        self.state.pop();
        let dst = self.alloc_gpr(&[AnyReg::Gpr(a), AnyReg::Gpr(b)]);
        IntOperands::Regs { dst, a, b }
    }

    fn compile_alu(&mut self, op: AluOp, width: Width) {
        let result = int_type(width);
        let (inst, dst) = match self.int_binary_operands(OpClass::Alu(op, width), width, result) {
            IntOperands::Folded => return,
            IntOperands::Imm { dst, a, imm } => (MachInst::AluImm { op, width, dst, a, imm }, dst),
            IntOperands::Regs { dst, a, b } => (MachInst::Alu { op, width, dst, a, b }, dst),
        };
        self.asm.emit(inst);
        self.push_result(result, Loc::Reg(AnyReg::Gpr(dst)));
    }

    fn compile_cmp(&mut self, op: CmpOp, width: Width) {
        let result = ValueType::I32;
        let (inst, dst) = match self.int_binary_operands(OpClass::Cmp(op, width), width, result) {
            IntOperands::Folded => return,
            IntOperands::Imm { dst, a, imm } => (MachInst::CmpImm { op, width, dst, a, imm }, dst),
            IntOperands::Regs { dst, a, b } => (MachInst::Cmp { op, width, dst, a, b }, dst),
        };
        self.asm.emit(inst);
        self.push_result(result, Loc::Reg(AnyReg::Gpr(dst)));
    }

    fn compile_unop(&mut self, op: UnOp, width: Width) {
        // eqz produces an i32 boolean whatever its operand width.
        let result = if op == UnOp::Eqz { ValueType::I32 } else { int_type(width) };
        if self.try_fold::<1>(OpClass::Unop(op, width), result) {
            return;
        }
        let top = self.state.operand_index(0);
        let src = self.ensure_gpr(top, &[]);
        self.state.pop();
        let dst = self.alloc_gpr(&[AnyReg::Gpr(src)]);
        self.asm.emit(MachInst::Unop { op, width, dst, src });
        self.push_result(result, Loc::Reg(AnyReg::Gpr(dst)));
    }

    /// Float arithmetic, float compares and conversions, by class (an
    /// integer class goes to its own compile function).
    fn compile_classified(&mut self, class: OpClass) {
        let result = class.result_type();
        let (inst, dst) = match class {
            OpClass::Alu(op, width) => return self.compile_alu(op, width),
            OpClass::Cmp(op, width) => return self.compile_cmp(op, width),
            OpClass::Unop(op, width) => return self.compile_unop(op, width),
            OpClass::FAlu(op, width) => {
                if self.try_fold::<2>(class, result) {
                    return;
                }
                let (a, b) = self.float_operands();
                let dst = self.alloc_fpr(&[AnyReg::Fpr(a), AnyReg::Fpr(b)]);
                (MachInst::FAlu { op, width, dst, a, b }, AnyReg::Fpr(dst))
            }
            OpClass::FCmp(op, width) => {
                if self.try_fold::<2>(class, result) {
                    return;
                }
                let (a, b) = self.float_operands();
                let dst = self.alloc_gpr(&[AnyReg::Fpr(a), AnyReg::Fpr(b)]);
                (MachInst::FCmp { op, width, dst, a, b }, AnyReg::Gpr(dst))
            }
            OpClass::FUnop(op, width) => {
                if self.try_fold::<1>(class, result) {
                    return;
                }
                let top = self.state.operand_index(0);
                let src = self.ensure_fpr(top, &[]);
                self.state.pop();
                let dst = self.alloc_fpr(&[AnyReg::Fpr(src)]);
                (MachInst::FUnop { op, width, dst, src }, AnyReg::Fpr(dst))
            }
            OpClass::Convert(op) => {
                if self.try_fold::<1>(class, result) {
                    return;
                }
                let top = self.state.operand_index(0);
                let src = self.ensure_in_reg(top, &[]);
                self.state.pop();
                let dst = self.alloc_reg(result.is_float(), &[src]);
                (MachInst::Convert { op, dst, src }, dst)
            }
        };
        self.asm.emit(inst);
        self.push_result(result, Loc::Reg(dst));
    }

    /// The two float operands on top of the stack in registers, popped.
    fn float_operands(&mut self) -> (FReg, FReg) {
        let rhs = self.state.operand_index(0);
        let lhs = self.state.operand_index(1);
        let a = self.ensure_fpr(lhs, &[]);
        let b = self.ensure_fpr(rhs, &[AnyReg::Fpr(a)]);
        self.state.pop();
        self.state.pop();
        (a, b)
    }
}
