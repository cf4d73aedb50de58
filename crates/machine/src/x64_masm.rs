//! The x86-64 [`Masm`] backend: real machine bytes for both compilers.
//!
//! This module promotes the byte-level encoder in [`crate::x64`] from a
//! demonstration to a first-class backend. [`Masm::emit`] expands every
//! [`MachInst`] — one exhaustive `match` — into a concrete x86-64
//! instruction sequence, with its own forward-reference label patching (rel32
//! displacements recorded as fixups and patched at `finish`, exactly as the
//! virtual assembler patches instruction indices) and its own byte-offset
//! source map.
//!
//! # Runtime contract
//!
//! The emitted code follows the same frame discipline as the virtual ISA:
//!
//! * **R14 is the value-frame pointer (VFP).** Each frame slot occupies
//!   [`SLOT_SIZE`] bytes: the 64-bit value at `[r14 + slot*16]` and the value
//!   tag byte at `[r14 + slot*16 + 8]` — the boxed slot layout of the paper's
//!   tagged value stack.
//! * **RAX is the macro-assembler scratch.** It is the image of the virtual
//!   scratch register `r0`, which the register allocator never assigns to a
//!   value, so macro expansions may clobber it freely. XMM0 plays the same
//!   role for the float bank. Expansions that need RCX (shift counts) or RDX
//!   (division) preserve them with push/pop.
//! * **The linear-memory base is cached in the frame header** at
//!   `[r14 - 8]`; memory accesses add it to the zero-extended 32-bit address
//!   and rely on guard pages for bounds checks, as production engines do.
//! * **Engine transfers are relocated calls.** Calls, indirect calls,
//!   probes, `memory.size`/`grow`, and global accesses emit a `call rel32`
//!   whose displacement is left for the engine to patch; each is recorded in
//!   [`X64Code::runtime_refs`] with its [`RuntimeOp`]. Traps are `ud2` sites
//!   recorded the same way. Two argument registers suffice because the
//!   compiler flushes all live state to the frame before observable points:
//!   a single value travels in RAX.
//!
//! The site index [`Masm::emit`] returns is the byte offset of the start of
//! the emitted sequence.

use crate::inst::{
    AluOp, CmpOp, ConvOp, FAluOp, FCmpOp, FUnOp, Label, MachInst, TrapCode, UnOp, Width,
};
use crate::masm::Masm;
use crate::reg::{AnyReg, FReg, Reg};
use crate::x64::{Cond, Gpr, Grp1, ShiftOp, SseOp, X64Assembler, Xmm};

/// The value-frame pointer register.
pub const VFP: Gpr = Gpr::R14;
/// The macro-assembler scratch GPR (the image of virtual `r0`).
pub const SCRATCH: Gpr = Gpr::Rax;
/// The macro-assembler scratch XMM register (the image of virtual `f0`).
pub const FSCRATCH: Xmm = Xmm(0);
/// Bytes per value-stack slot: a 64-bit value plus its tag byte, padded.
pub const SLOT_SIZE: i32 = 16;
/// Frame-header displacement of the cached linear-memory base pointer.
pub const MEMBASE_DISP: i32 = -8;

/// Maps a virtual general-purpose register to its x86-64 image.
///
/// The mapping is injective: the 14 virtual GPRs cover every architectural
/// register except RSP (the machine stack) and R14 (the VFP). Virtual `r0`
/// maps to RAX, which doubles as the macro-assembler scratch — safe because
/// the register allocator never assigns `r0` to a value.
pub fn gpr_map(r: Reg) -> Gpr {
    const MAP: [Gpr; 14] = [
        Gpr::Rax,
        Gpr::Rcx,
        Gpr::Rdx,
        Gpr::Rbx,
        Gpr::Rsi,
        Gpr::Rdi,
        Gpr::R8,
        Gpr::R9,
        Gpr::R10,
        Gpr::R11,
        Gpr::R12,
        Gpr::R13,
        Gpr::R15,
        Gpr::Rbp,
    ];
    MAP[r.index()]
}

/// Maps a virtual floating-point register to its XMM image (the identity).
pub fn fpr_map(f: FReg) -> Xmm {
    Xmm(f.0)
}

/// Byte displacement of a slot's value within the frame.
pub fn slot_disp(slot: u32) -> i32 {
    slot as i32 * SLOT_SIZE
}

/// Byte displacement of a slot's tag byte within the frame.
pub fn tag_disp(slot: u32) -> i32 {
    slot_disp(slot) + 8
}

/// What a relocated runtime transfer does, recorded per call site so the
/// engine (or a linker) can patch the displacement to the right stub.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeOp {
    /// Direct Wasm call.
    Call {
        /// Callee function index.
        func_index: u32,
    },
    /// Indirect Wasm call; the table element index travels in RAX.
    CallIndirect {
        /// Expected signature (type index).
        type_index: u32,
        /// Table to index.
        table_index: u32,
    },
    /// `memory.size`; result in RAX.
    MemorySize,
    /// `memory.grow`; delta in RAX, result in RAX.
    MemoryGrow,
    /// Global read; result in RAX.
    GlobalGet {
        /// Global index.
        index: u32,
    },
    /// Global write; value in RAX.
    GlobalSet {
        /// Global index.
        index: u32,
    },
    /// Unoptimized probe (runtime lookup).
    ProbeRuntime {
        /// Probe site id.
        probe_id: u32,
    },
    /// Optimized direct-call probe.
    ProbeDirect {
        /// Probe site id.
        probe_id: u32,
    },
    /// Intrinsified counter probe.
    ProbeCounter {
        /// Counter id.
        counter_id: u32,
    },
    /// Optimized top-of-stack probe; the value travels in RAX.
    ProbeTos {
        /// Probe site id.
        probe_id: u32,
    },
    /// A conversion with no single-instruction x86-64 encoding
    /// (the unsigned 64-bit float/int cases); value in RAX.
    ConvertHelper {
        /// The conversion performed by the helper.
        op: ConvOp,
    },
    /// Fuel decrement-and-check; traps out of line on exhaustion.
    FuelCheck {
        /// Fuel units deducted by this check.
        amount: u64,
    },
    /// Epoch poll; traps out of line when the deadline has passed.
    EpochCheck,
    /// A trap site (`ud2`).
    Trap {
        /// The trap reason.
        code: TrapCode,
    },
}

/// One relocated engine transfer in the emitted code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeRef {
    /// Byte offset of the rel32 displacement to patch (or of the `ud2` for
    /// traps).
    pub patch_offset: usize,
    /// What the transfer does.
    pub op: RuntimeOp,
}

/// Finished x86-64 machine code plus the metadata the engine needs.
///
/// Equality compares the encoded bytes and all metadata, so `==` means
/// byte-identical output — what the pipeline's determinism tests check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct X64Code {
    bytes: Vec<u8>,
    label_targets: Vec<usize>,
    source_map: Vec<(usize, u32)>,
    runtime_refs: Vec<RuntimeRef>,
    num_insts: usize,
}

impl X64Code {
    /// The machine-code bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The size of the code in bytes.
    pub fn code_size(&self) -> usize {
        self.bytes.len()
    }

    /// The number of macro operations that produced this code.
    pub fn num_insts(&self) -> usize {
        self.num_insts
    }

    /// The resolved label targets (byte offsets), indexed by label id.
    pub fn label_targets(&self) -> &[usize] {
        &self.label_targets
    }

    /// Resolves a label to its byte offset.
    pub fn target(&self, label: Label) -> usize {
        self.label_targets[label.0 as usize]
    }

    /// The (byte offset, bytecode offset) source map, sorted by byte offset.
    pub fn source_map(&self) -> &[(usize, u32)] {
        &self.source_map
    }

    /// The relocated engine transfers, in emission order.
    pub fn runtime_refs(&self) -> &[RuntimeRef] {
        &self.runtime_refs
    }

    /// Recomputes the Wasm bytecode offset for a machine-code byte offset.
    pub fn source_offset(&self, byte_offset: usize) -> Option<u32> {
        match self
            .source_map
            .binary_search_by_key(&byte_offset, |&(i, _)| i)
        {
            Ok(i) => Some(self.source_map[i].1),
            Err(0) => None,
            Err(i) => Some(self.source_map[i - 1].1),
        }
    }
}

/// The x86-64 macro-assembler.
#[derive(Debug, Clone, Default)]
pub struct X64Masm {
    asm: X64Assembler,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>,
    source_map: Vec<(usize, u32)>,
    runtime_refs: Vec<RuntimeRef>,
    num_insts: usize,
}

impl X64Masm {
    /// Creates an empty x86-64 macro-assembler.
    pub fn new() -> X64Masm {
        X64Masm::default()
    }

    /// Emits a jmp/jcc displacement fixup: patches immediately for bound
    /// labels, defers unbound ones.
    fn branch_to(&mut self, disp_offset: usize, label: Label) {
        match self.labels[label.0 as usize] {
            Some(target) => self.asm.patch_rel32(disp_offset, target),
            None => self.fixups.push((disp_offset, label)),
        }
    }

    /// Emits `call rel32` with a zero displacement and records a runtime
    /// relocation for it.
    fn runtime_call(&mut self, op: RuntimeOp) {
        self.asm.call(0);
        let patch_offset = self.asm.offset() - 4;
        self.runtime_refs.push(RuntimeRef { patch_offset, op });
    }

    /// Loads `map(a)` into the scratch, applies `f`, and stores the scratch
    /// into `map(dst)` — the canonical three-address-to-two-address shape.
    fn via_scratch(&mut self, w: bool, dst: Reg, a: Reg, f: impl FnOnce(&mut X64Assembler)) {
        self.asm.mov_rr_w(w, SCRATCH, gpr_map(a));
        f(&mut self.asm);
        self.asm.mov_rr_w(w, gpr_map(dst), SCRATCH);
    }

    /// `setcc` + zero-extend the scratch, then store it into `map(dst)`.
    fn set_result(&mut self, cond: Cond, dst: Reg) {
        self.asm.setcc(cond, SCRATCH);
        self.asm.movzx_r8(SCRATCH, SCRATCH);
        self.asm.mov_rr_w(false, gpr_map(dst), SCRATCH);
    }

    /// The signed/unsigned division expansion. The divisor is spilled to the
    /// machine stack so arbitrary register assignments (including RDX) work;
    /// RDX is preserved around the sequence.
    fn div_sequence(
        &mut self,
        op: AluOp,
        w: bool,
        dst: Reg,
        a: Reg,
        divisor: impl FnOnce(&mut X64Assembler),
    ) {
        let signed = matches!(op, AluOp::DivS | AluOp::RemS);
        let rem = matches!(op, AluOp::RemS | AluOp::RemU);
        self.asm.push_r(Gpr::Rdx);
        divisor(&mut self.asm);
        self.asm.mov_rr_w(w, SCRATCH, gpr_map(a));
        if signed {
            self.asm.cqo(w);
        } else {
            self.asm.grp1_rr(Grp1::Xor, false, Gpr::Rdx, Gpr::Rdx);
        }
        self.asm.div_at_rsp(signed, w);
        if rem {
            self.asm.mov_rr_w(w, SCRATCH, Gpr::Rdx);
        }
        self.asm.add_rsp_i8(8);
        self.asm.pop_r(Gpr::Rdx);
        self.asm.mov_rr_w(w, gpr_map(dst), SCRATCH);
    }

    /// The shift/rotate expansion: count in CL, which is preserved.
    fn shift_sequence(&mut self, op: ShiftOp, w: bool, dst: Reg, a: Reg, b: Reg) {
        self.asm.push_r(Gpr::Rcx);
        self.asm.mov_rr_w(w, SCRATCH, gpr_map(a));
        self.asm.mov_rr_w(w, Gpr::Rcx, gpr_map(b));
        self.asm.shift_cl(op, w, SCRATCH);
        self.asm.pop_r(Gpr::Rcx);
        self.asm.mov_rr_w(w, gpr_map(dst), SCRATCH);
    }

    /// Computes `base + zero-extended 32-bit address` into the scratch and
    /// returns the displacement to use for the access. A memarg offset that
    /// fits a positive disp32 is folded into the addressing mode; larger
    /// offsets (Wasm allows up to 2^32 - 1) are added to the scratch in
    /// i32-safe chunks, since x86-64 sign-extends disp32.
    fn memory_address(&mut self, addr: Reg, offset: u32) -> i32 {
        self.asm.mov_rr_w(false, SCRATCH, gpr_map(addr));
        self.asm.grp1_rm(Grp1::Add, true, SCRATCH, VFP, MEMBASE_DISP);
        if offset <= i32::MAX as u32 {
            return offset as i32;
        }
        let mut remaining = offset;
        while remaining > 0 {
            let chunk = remaining.min(i32::MAX as u32);
            self.asm.grp1_ri(Grp1::Add, true, SCRATCH, chunk as i32);
            remaining -= chunk;
        }
        0
    }
}

fn shift_op_of(op: AluOp) -> Option<ShiftOp> {
    match op {
        AluOp::Shl => Some(ShiftOp::Shl),
        AluOp::ShrS => Some(ShiftOp::Sar),
        AluOp::ShrU => Some(ShiftOp::Shr),
        AluOp::Rotl => Some(ShiftOp::Rol),
        AluOp::Rotr => Some(ShiftOp::Ror),
        _ => None,
    }
}

fn grp1_of(op: AluOp) -> Option<Grp1> {
    match op {
        AluOp::Add => Some(Grp1::Add),
        AluOp::Sub => Some(Grp1::Sub),
        AluOp::And => Some(Grp1::And),
        AluOp::Or => Some(Grp1::Or),
        AluOp::Xor => Some(Grp1::Xor),
        _ => None,
    }
}

fn cond_of(op: CmpOp) -> Cond {
    match op {
        CmpOp::Eq => Cond::Eq,
        CmpOp::Ne => Cond::Ne,
        CmpOp::LtS => Cond::Lt,
        CmpOp::LtU => Cond::Below,
        CmpOp::GtS => Cond::Gt,
        CmpOp::GtU => Cond::Above,
        CmpOp::LeS => Cond::Le,
        CmpOp::LeU => Cond::BelowEq,
        CmpOp::GeS => Cond::Ge,
        CmpOp::GeU => Cond::AboveEq,
    }
}

fn is_w64(width: Width) -> bool {
    width == Width::W64
}

fn fits_i32(imm: i64) -> bool {
    imm >= i32::MIN as i64 && imm <= i32::MAX as i64
}

impl Masm for X64Masm {
    type Output = X64Code;

    fn new_label(&mut self) -> Label {
        let label = Label(self.labels.len() as u32);
        self.labels.push(None);
        label
    }

    fn bind(&mut self, label: Label) {
        let at = self.asm.offset();
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label {label} bound twice");
        *slot = Some(at);
    }

    fn mark_source(&mut self, offset: u32) {
        crate::masm::push_source_mark(&mut self.source_map, self.asm.offset(), offset);
    }

    fn num_insts(&self) -> usize {
        self.num_insts
    }

    fn position(&self) -> usize {
        self.asm.offset()
    }

    fn code_size(&self) -> usize {
        self.asm.offset()
    }

    fn finish(mut self) -> X64Code {
        for (disp_offset, label) in std::mem::take(&mut self.fixups) {
            let target = self.labels[label.0 as usize]
                .unwrap_or_else(|| panic!("label {label} was never bound"));
            self.asm.patch_rel32(disp_offset, target);
        }
        let label_targets = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, t)| t.unwrap_or_else(|| panic!("label L{i} was never bound")))
            .collect();
        X64Code {
            bytes: self.asm.bytes().to_vec(),
            label_targets,
            source_map: self.source_map,
            runtime_refs: self.runtime_refs,
            num_insts: self.num_insts,
        }
    }

    /// # Panics
    ///
    /// Panics on a [`MachInst::BrTable`]: its targets live in a label pool
    /// this backend does not keep, so it is emitted through
    /// [`Masm::br_table`].
    fn emit(&mut self, inst: MachInst) -> usize {
        self.num_insts += 1;
        let site = self.asm.offset();
        match inst {
            MachInst::Nop => {}
            MachInst::MovImm { dst, imm } => {
                if fits_i32(imm) {
                    self.asm.mov_ri32(gpr_map(dst), imm as i32);
                } else {
                    self.asm.mov_ri64(gpr_map(dst), imm);
                }
            }
            MachInst::FMovImm { dst, bits } => {
                self.asm.mov_ri64(SCRATCH, bits as i64);
                self.asm.movq_xr(true, fpr_map(dst), SCRATCH);
            }
            MachInst::Mov { dst, src } => self.asm.mov_rr(gpr_map(dst), gpr_map(src)),
            MachInst::FMov { dst, src } => self.asm.movaps_rr(fpr_map(dst), fpr_map(src)),
            MachInst::LoadSlot { dst, slot } => match dst {
                AnyReg::Gpr(r) => self.asm.load_rm(gpr_map(r), VFP, slot_disp(slot)),
                AnyReg::Fpr(f) => self.asm.movs_rm(true, fpr_map(f), VFP, slot_disp(slot)),
            },
            MachInst::StoreSlot { slot, src } => match src {
                AnyReg::Gpr(r) => self.asm.store_mr(VFP, slot_disp(slot), gpr_map(r)),
                AnyReg::Fpr(f) => self.asm.movs_mr(true, VFP, slot_disp(slot), fpr_map(f)),
            },
            MachInst::StoreSlotImm { slot, imm } => {
                if fits_i32(imm) {
                    self.asm.store_mi32(true, VFP, slot_disp(slot), imm as i32);
                } else {
                    self.asm.mov_ri64(SCRATCH, imm);
                    self.asm.store_mr(VFP, slot_disp(slot), SCRATCH);
                }
            }
            MachInst::StoreTag { slot, tag } => {
                self.asm.store_tag_byte(VFP, tag_disp(slot), tag as u8)
            }
            MachInst::Alu { op, width, dst, a, b } => self.alu(op, width, dst, a, b),
            MachInst::AluImm { op, width, dst, a, imm } => self.alu_imm(op, width, dst, a, imm),
            MachInst::Unop { op, width, dst, src } => self.unop(op, width, dst, src),
            MachInst::Cmp { op, width, dst, a, b } => {
                self.asm.grp1_rr(Grp1::Cmp, is_w64(width), gpr_map(a), gpr_map(b));
                self.set_result(cond_of(op), dst);
            }
            MachInst::CmpImm { op, width, dst, a, imm } => {
                let w = is_w64(width);
                if fits_i32(imm) {
                    self.asm.grp1_ri(Grp1::Cmp, w, gpr_map(a), imm as i32);
                } else {
                    self.asm.mov_ri64(SCRATCH, imm);
                    self.asm.grp1_rr(Grp1::Cmp, w, gpr_map(a), SCRATCH);
                }
                self.set_result(cond_of(op), dst);
            }
            MachInst::FAlu { op, width, dst, a, b } => self.falu(op, width, dst, a, b),
            MachInst::FUnop { op, width, dst, src } => self.funop(op, width, dst, src),
            MachInst::FCmp { op, width, dst, a, b } => self.fcmp(op, width, dst, a, b),
            MachInst::Convert { op, dst, src } => self.convert(op, dst, src),
            MachInst::Select { dst, cond, if_true, if_false } => {
                self.asm.mov_rr(SCRATCH, gpr_map(if_false));
                let rc = gpr_map(cond);
                self.asm.test_rr(false, rc, rc);
                self.asm.cmovcc(Cond::Ne, true, SCRATCH, gpr_map(if_true));
                self.asm.mov_rr(gpr_map(dst), SCRATCH);
            }
            MachInst::FSelect { dst, cond, if_true, if_false } => {
                self.asm.movaps_rr(FSCRATCH, fpr_map(if_false));
                let rc = gpr_map(cond);
                self.asm.test_rr(false, rc, rc);
                let disp = self.asm.jcc(Cond::Eq, 0);
                self.asm.movaps_rr(FSCRATCH, fpr_map(if_true));
                let after = self.asm.offset();
                self.asm.patch_rel32(disp, after);
                self.asm.movaps_rr(fpr_map(dst), FSCRATCH);
            }
            MachInst::MemLoad { dst, addr, offset, width, signed, dst_width } => {
                self.mem_load(dst, addr, offset, width, signed, dst_width)
            }
            MachInst::MemStore { src, addr, offset, width } => {
                self.mem_store(src, addr, offset, width)
            }
            MachInst::MemorySize { dst } => {
                self.runtime_call(RuntimeOp::MemorySize);
                self.asm.mov_rr_w(false, gpr_map(dst), SCRATCH);
            }
            MachInst::MemoryGrow { dst, delta } => {
                self.asm.mov_rr_w(false, SCRATCH, gpr_map(delta));
                self.runtime_call(RuntimeOp::MemoryGrow);
                self.asm.mov_rr_w(false, gpr_map(dst), SCRATCH);
            }
            MachInst::GlobalGet { dst, index } => {
                self.runtime_call(RuntimeOp::GlobalGet { index });
                match dst {
                    AnyReg::Gpr(r) => self.asm.mov_rr(gpr_map(r), SCRATCH),
                    AnyReg::Fpr(f) => self.asm.movq_xr(true, fpr_map(f), SCRATCH),
                }
            }
            MachInst::GlobalSet { index, src } => {
                match src {
                    AnyReg::Gpr(r) => self.asm.mov_rr(SCRATCH, gpr_map(r)),
                    AnyReg::Fpr(f) => self.asm.movq_rx(true, SCRATCH, fpr_map(f)),
                }
                self.runtime_call(RuntimeOp::GlobalSet { index });
            }
            MachInst::Jump { target } => {
                let disp = self.asm.jmp(0);
                self.branch_to(disp, target);
            }
            MachInst::BrIf { cond, target, negate } => {
                let rc = gpr_map(cond);
                self.asm.test_rr(false, rc, rc);
                let cc = if negate { Cond::Eq } else { Cond::Ne };
                let disp = self.asm.jcc(cc, 0);
                self.branch_to(disp, target);
            }
            MachInst::BrTable { .. } => {
                panic!("{inst} names its targets out of line: emit it through Masm::br_table")
            }
            MachInst::Call { func_index } => self.runtime_call(RuntimeOp::Call { func_index }),
            MachInst::CallIndirect { type_index, table_index, index } => {
                self.asm.mov_rr_w(false, SCRATCH, gpr_map(index));
                self.runtime_call(RuntimeOp::CallIndirect { type_index, table_index });
            }
            MachInst::ProbeRuntime { probe_id } => {
                self.runtime_call(RuntimeOp::ProbeRuntime { probe_id })
            }
            MachInst::ProbeDirect { probe_id } => {
                self.runtime_call(RuntimeOp::ProbeDirect { probe_id })
            }
            MachInst::ProbeCounter { counter_id } => {
                self.runtime_call(RuntimeOp::ProbeCounter { counter_id })
            }
            MachInst::ProbeTosValue { probe_id, src } => {
                match src {
                    AnyReg::Gpr(r) => self.asm.mov_rr(SCRATCH, gpr_map(r)),
                    AnyReg::Fpr(f) => self.asm.movq_rx(true, SCRATCH, fpr_map(f)),
                }
                self.runtime_call(RuntimeOp::ProbeTos { probe_id });
            }
            MachInst::FuelCheck { amount } => self.runtime_call(RuntimeOp::FuelCheck { amount }),
            MachInst::EpochCheck => self.runtime_call(RuntimeOp::EpochCheck),
            MachInst::Trap { code } => {
                self.runtime_refs.push(RuntimeRef {
                    patch_offset: site,
                    op: RuntimeOp::Trap { code },
                });
                self.asm.ud2();
            }
            MachInst::Return => self.asm.ret(),
        }
        site
    }

    fn br_table(&mut self, index: Reg, targets: &[Label], default: Label) {
        self.num_insts += 1;
        // A compare-and-branch chain: compact and patchable without an
        // embedded table (baseline compilers use this shape for small
        // tables).
        let ri = gpr_map(index);
        for (i, &target) in targets.iter().enumerate() {
            self.asm.grp1_ri(Grp1::Cmp, false, ri, i as i32);
            let disp = self.asm.jcc(Cond::Eq, 0);
            self.branch_to(disp, target);
        }
        let disp = self.asm.jmp(0);
        self.branch_to(disp, default);
    }
}

/// The expansions too long to sit in [`Masm::emit`]'s `match`.
impl X64Masm {
    /// Three-address integer ALU operation.
    fn alu(&mut self, op: AluOp, width: Width, dst: Reg, a: Reg, b: Reg) {
        let w = is_w64(width);
        if let Some(g) = grp1_of(op) {
            let rb = gpr_map(b);
            self.via_scratch(w, dst, a, |asm| asm.grp1_rr(g, w, SCRATCH, rb));
        } else if op == AluOp::Mul {
            let rb = gpr_map(b);
            self.via_scratch(w, dst, a, |asm| asm.imul_rr(w, SCRATCH, rb));
        } else if let Some(s) = shift_op_of(op) {
            self.shift_sequence(s, w, dst, a, b);
        } else {
            let rb = gpr_map(b);
            self.div_sequence(op, w, dst, a, |asm| asm.push_r(rb));
        }
    }

    /// Integer ALU operation with an immediate right operand.
    fn alu_imm(&mut self, op: AluOp, width: Width, dst: Reg, a: Reg, imm: i64) {
        let w = is_w64(width);
        if let Some(g) = grp1_of(op) {
            if fits_i32(imm) {
                self.via_scratch(w, dst, a, |asm| asm.grp1_ri(g, w, SCRATCH, imm as i32));
            } else {
                // Spill the wide immediate; `op scratch, [rsp]`.
                self.asm.mov_ri64(SCRATCH, imm);
                self.asm.push_r(SCRATCH);
                self.via_scratch(w, dst, a, |asm| asm.grp1_rm(g, w, SCRATCH, Gpr::Rsp, 0));
                self.asm.add_rsp_i8(8);
            }
        } else if op == AluOp::Mul {
            let ra = gpr_map(a);
            if fits_i32(imm) {
                self.asm.imul_rri(w, SCRATCH, ra, imm as i32);
            } else {
                // Commutative: materialize the wide immediate in the
                // scratch and multiply by the register operand.
                self.asm.mov_ri64(SCRATCH, imm);
                self.asm.imul_rr(w, SCRATCH, ra);
            }
            self.asm.mov_rr_w(w, gpr_map(dst), SCRATCH);
        } else if let Some(s) = shift_op_of(op) {
            // Shift counts are taken modulo the width, so truncation is the
            // correct semantics here.
            let mask = if w { 63 } else { 31 };
            self.via_scratch(w, dst, a, |asm| {
                asm.shift_ri(s, w, SCRATCH, (imm as u8) & mask)
            });
        } else if fits_i32(imm) {
            self.div_sequence(op, w, dst, a, |asm| asm.push_i32(imm as i32));
        } else {
            // The scratch is still free inside the divisor stage (the
            // dividend is loaded afterwards), so stage the wide divisor
            // through it.
            self.div_sequence(op, w, dst, a, |asm| {
                asm.mov_ri64(SCRATCH, imm);
                asm.push_r(SCRATCH);
            });
        }
    }

    /// Single-operand integer operation.
    fn unop(&mut self, op: UnOp, width: Width, dst: Reg, src: Reg) {
        let w = is_w64(width);
        let rs = gpr_map(src);
        match op {
            UnOp::Eqz => {
                self.asm.test_rr(w, rs, rs);
                self.set_result(Cond::Eq, dst);
                return;
            }
            UnOp::Clz => self.asm.lzcnt(w, SCRATCH, rs),
            UnOp::Ctz => self.asm.tzcnt(w, SCRATCH, rs),
            UnOp::Popcnt => self.asm.popcnt(w, SCRATCH, rs),
            UnOp::Extend8S => self.asm.movsx_r8(w, SCRATCH, rs),
            UnOp::Extend16S => self.asm.movsx_r16(w, SCRATCH, rs),
            UnOp::Extend32S => self.asm.movsxd(SCRATCH, rs),
        }
        self.asm.mov_rr_w(w, gpr_map(dst), SCRATCH);
    }

    /// Three-address floating-point operation.
    fn falu(&mut self, op: FAluOp, width: Width, dst: FReg, a: FReg, b: FReg) {
        let d = is_w64(width);
        let sse = match op {
            FAluOp::Add => Some(SseOp::Add),
            FAluOp::Sub => Some(SseOp::Sub),
            FAluOp::Mul => Some(SseOp::Mul),
            FAluOp::Div => Some(SseOp::Div),
            FAluOp::Min => Some(SseOp::Min),
            FAluOp::Max => Some(SseOp::Max),
            FAluOp::Copysign => None,
        };
        if let Some(sse) = sse {
            self.asm.movaps_rr(FSCRATCH, fpr_map(a));
            self.asm.sse_op(sse, d, FSCRATCH, fpr_map(b));
            self.asm.movaps_rr(fpr_map(dst), FSCRATCH);
            return;
        }
        // copysign(a, b) = (a & !sign_bit) | (b & sign_bit), via the GPR
        // scratch; the sign mask is staged on the machine stack.
        let w = d;
        let bits = if d { 63 } else { 31 };
        self.asm.movq_rx(w, SCRATCH, fpr_map(b));
        self.asm.shift_ri(ShiftOp::Shr, w, SCRATCH, bits);
        self.asm.shift_ri(ShiftOp::Shl, w, SCRATCH, bits);
        self.asm.push_r(SCRATCH);
        self.asm.movq_rx(w, SCRATCH, fpr_map(a));
        self.asm.shift_ri(ShiftOp::Shl, w, SCRATCH, 1);
        self.asm.shift_ri(ShiftOp::Shr, w, SCRATCH, 1);
        self.asm.grp1_rm(Grp1::Or, w, SCRATCH, Gpr::Rsp, 0);
        self.asm.add_rsp_i8(8);
        self.asm.movq_xr(w, fpr_map(dst), SCRATCH);
    }

    /// Single-operand floating-point operation.
    fn funop(&mut self, op: FUnOp, width: Width, dst: FReg, src: FReg) {
        let d = is_w64(width);
        let bits = if d { 63 } else { 31 };
        match op {
            FUnOp::Abs => {
                self.asm.movq_rx(d, SCRATCH, fpr_map(src));
                self.asm.shift_ri(ShiftOp::Shl, d, SCRATCH, 1);
                self.asm.shift_ri(ShiftOp::Shr, d, SCRATCH, 1);
                self.asm.movq_xr(d, fpr_map(dst), SCRATCH);
            }
            FUnOp::Neg => {
                self.asm.movq_rx(d, SCRATCH, fpr_map(src));
                self.asm.btc_ri(d, SCRATCH, bits);
                self.asm.movq_xr(d, fpr_map(dst), SCRATCH);
            }
            FUnOp::Sqrt => self.asm.sse_op(SseOp::Sqrt, d, fpr_map(dst), fpr_map(src)),
            // roundsd immediates: 0 = nearest-even, 1 = down, 2 = up,
            // 3 = toward zero.
            FUnOp::Nearest => self.asm.rounds(d, fpr_map(dst), fpr_map(src), 0),
            FUnOp::Floor => self.asm.rounds(d, fpr_map(dst), fpr_map(src), 1),
            FUnOp::Ceil => self.asm.rounds(d, fpr_map(dst), fpr_map(src), 2),
            FUnOp::Trunc => self.asm.rounds(d, fpr_map(dst), fpr_map(src), 3),
        }
    }

    /// Floating-point comparison producing 0/1 in a GPR.
    fn fcmp(&mut self, op: FCmpOp, width: Width, dst: Reg, a: FReg, b: FReg) {
        let d = is_w64(width);
        // cmpsd/cmpss produce an all-ones/zero mask with Wasm's NaN
        // semantics (EQ/LT/LE false on NaN, NEQ true); GT/GE swap operands.
        let (first, second, pred) = match op {
            FCmpOp::Eq => (a, b, 0),
            FCmpOp::Lt => (a, b, 1),
            FCmpOp::Le => (a, b, 2),
            FCmpOp::Ne => (a, b, 4),
            FCmpOp::Gt => (b, a, 1),
            FCmpOp::Ge => (b, a, 2),
        };
        self.asm.movaps_rr(FSCRATCH, fpr_map(first));
        self.asm.cmps(d, FSCRATCH, fpr_map(second), pred);
        self.asm.movq_rx(false, SCRATCH, FSCRATCH);
        self.asm.grp1_ri(Grp1::And, false, SCRATCH, 1);
        self.asm.mov_rr_w(false, gpr_map(dst), SCRATCH);
    }

    /// Numeric conversion.
    fn convert(&mut self, op: ConvOp, dst: AnyReg, src: AnyReg) {
        use ConvOp::*;
        let gdst = dst.as_gpr().map(gpr_map);
        let xdst = dst.as_fpr().map(fpr_map);
        let gsrc = src.as_gpr().map(gpr_map);
        let xsrc = src.as_fpr().map(fpr_map);
        match op {
            I32WrapI64 => self.asm.mov_rr_w(false, gdst.unwrap(), gsrc.unwrap()),
            I64ExtendI32S => self.asm.movsxd(gdst.unwrap(), gsrc.unwrap()),
            I64ExtendI32U => self.asm.mov_rr_w(false, gdst.unwrap(), gsrc.unwrap()),
            I32TruncF32S => self.asm.cvtt_f2i(false, false, gdst.unwrap(), xsrc.unwrap()),
            I32TruncF64S => self.asm.cvtt_f2i(true, false, gdst.unwrap(), xsrc.unwrap()),
            I32TruncF32U | I32TruncF64U => {
                // Truncate through the 64-bit form, then take the low half.
                let double = op == I32TruncF64U;
                self.asm.cvtt_f2i(double, true, SCRATCH, xsrc.unwrap());
                self.asm.mov_rr_w(false, gdst.unwrap(), SCRATCH);
            }
            I64TruncF32S => self.asm.cvtt_f2i(false, true, gdst.unwrap(), xsrc.unwrap()),
            I64TruncF64S => self.asm.cvtt_f2i(true, true, gdst.unwrap(), xsrc.unwrap()),
            I64TruncF32U | I64TruncF64U => {
                self.asm.movq_rx(true, SCRATCH, xsrc.unwrap());
                self.runtime_call(RuntimeOp::ConvertHelper { op });
                self.asm.mov_rr(gdst.unwrap(), SCRATCH);
            }
            F32ConvertI32S => self.asm.cvt_i2f(false, false, xdst.unwrap(), gsrc.unwrap()),
            F64ConvertI32S => self.asm.cvt_i2f(true, false, xdst.unwrap(), gsrc.unwrap()),
            F32ConvertI32U | F64ConvertI32U => {
                // Zero-extend, then convert from 64 bits (always in range).
                let double = op == F64ConvertI32U;
                self.asm.mov_rr_w(false, SCRATCH, gsrc.unwrap());
                self.asm.cvt_i2f(double, true, xdst.unwrap(), SCRATCH);
            }
            F32ConvertI64S => self.asm.cvt_i2f(false, true, xdst.unwrap(), gsrc.unwrap()),
            F64ConvertI64S => self.asm.cvt_i2f(true, true, xdst.unwrap(), gsrc.unwrap()),
            F32ConvertI64U | F64ConvertI64U => {
                self.asm.mov_rr(SCRATCH, gsrc.unwrap());
                self.runtime_call(RuntimeOp::ConvertHelper { op });
                self.asm.movq_xr(true, xdst.unwrap(), SCRATCH);
            }
            F32DemoteF64 => self.asm.cvt_f2f(false, xdst.unwrap(), xsrc.unwrap()),
            F64PromoteF32 => self.asm.cvt_f2f(true, xdst.unwrap(), xsrc.unwrap()),
            I32ReinterpretF32 => self.asm.movq_rx(false, gdst.unwrap(), xsrc.unwrap()),
            I64ReinterpretF64 => self.asm.movq_rx(true, gdst.unwrap(), xsrc.unwrap()),
            F32ReinterpretI32 => self.asm.movq_xr(false, xdst.unwrap(), gsrc.unwrap()),
            F64ReinterpretI64 => self.asm.movq_xr(true, xdst.unwrap(), gsrc.unwrap()),
        }
    }

    /// Load from linear memory.
    fn mem_load(
        &mut self,
        dst: AnyReg,
        addr: Reg,
        offset: u32,
        width: u32,
        signed: bool,
        dst_width: Width,
    ) {
        let disp = self.memory_address(addr, offset);
        match dst {
            AnyReg::Fpr(f) => self.asm.movs_rm(width == 8, fpr_map(f), SCRATCH, disp),
            AnyReg::Gpr(r) => {
                let rd = gpr_map(r);
                let w = is_w64(dst_width);
                match (width, signed) {
                    (1, false) => self.asm.movzx_rm8(rd, SCRATCH, disp),
                    (1, true) => self.asm.movsx_rm8(w, rd, SCRATCH, disp),
                    (2, false) => self.asm.movzx_rm16(rd, SCRATCH, disp),
                    (2, true) => self.asm.movsx_rm16(w, rd, SCRATCH, disp),
                    (4, true) if w => self.asm.movsxd_rm(rd, SCRATCH, disp),
                    (4, _) => self.asm.load_rm_w(false, rd, SCRATCH, disp),
                    _ => self.asm.load_rm_w(true, rd, SCRATCH, disp),
                }
            }
        }
    }

    /// Store to linear memory.
    fn mem_store(&mut self, src: AnyReg, addr: Reg, offset: u32, width: u32) {
        // The source must be read before the scratch is clobbered — it never
        // is RAX (the allocator does not hand out virtual r0), so computing
        // the address first is safe.
        let disp = self.memory_address(addr, offset);
        match src {
            AnyReg::Fpr(f) => self.asm.movs_mr(width == 8, SCRATCH, disp, fpr_map(f)),
            AnyReg::Gpr(r) => {
                let rs = gpr_map(r);
                match width {
                    1 => self.asm.store_mr8(SCRATCH, disp, rs),
                    2 => self.asm.store_mr16(SCRATCH, disp, rs),
                    4 => self.asm.store_mr_w(false, SCRATCH, disp, rs),
                    _ => self.asm.store_mr_w(true, SCRATCH, disp, rs),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::NUM_GPRS;

    #[test]
    fn gpr_map_is_injective_and_avoids_reserved() {
        let mut seen = Vec::new();
        for i in 0..NUM_GPRS as u8 {
            let g = gpr_map(Reg(i));
            assert_ne!(g, Gpr::Rsp, "the stack pointer is never allocatable");
            assert_ne!(g, VFP, "the frame register is never allocatable");
            assert!(!seen.contains(&g), "mapping must be injective");
            seen.push(g);
        }
        assert_eq!(gpr_map(Reg(0)), SCRATCH, "virtual r0 is the scratch image");
    }

    #[test]
    fn forward_labels_patch_to_byte_offsets() {
        let mut m = X64Masm::new();
        let skip = m.new_label();
        m.emit(MachInst::BrIf { cond: Reg(1), target: skip, negate: true });
        m.emit(MachInst::MovImm { dst: Reg(1), imm: 7 });
        m.bind(skip);
        m.emit(MachInst::Return);
        let code = m.finish();
        let target = code.target(skip);
        // The branch lands exactly on the mov's end / ret.
        assert_eq!(target + 1, code.code_size());
        // test ecx,ecx (2) + jz rel32 (6): displacement covers the 7-byte mov.
        assert_eq!(&code.bytes()[..8], &[0x85, 0xC9, 0x0F, 0x84, 0x07, 0x00, 0x00, 0x00]);
    }

    #[test]
    fn backward_jump_has_negative_displacement() {
        let mut m = X64Masm::new();
        let top = m.new_bound_label();
        m.emit(MachInst::Jump { target: top });
        let code = m.finish();
        assert_eq!(code.target(top), 0);
        // jmp rel32 back over its own 5 bytes.
        assert_eq!(code.bytes(), &[0xE9, 0xFB, 0xFF, 0xFF, 0xFF]);
    }

    #[test]
    fn runtime_transfers_are_recorded() {
        let mut m = X64Masm::new();
        let call_site = m.emit(MachInst::Call { func_index: 3 });
        m.emit(MachInst::Trap { code: TrapCode::Unreachable });
        m.emit(MachInst::Return);
        let code = m.finish();
        assert_eq!(call_site, 0);
        assert_eq!(code.runtime_refs().len(), 2);
        assert_eq!(code.runtime_refs()[0].op, RuntimeOp::Call { func_index: 3 });
        assert_eq!(code.runtime_refs()[0].patch_offset, 1);
        assert!(matches!(
            code.runtime_refs()[1].op,
            RuntimeOp::Trap { code: TrapCode::Unreachable }
        ));
        // call rel32, ud2, ret.
        assert_eq!(code.bytes(), &[0xE8, 0, 0, 0, 0, 0x0F, 0x0B, 0xC3]);
    }

    #[test]
    fn source_map_tracks_byte_offsets() {
        let mut m = X64Masm::new();
        m.mark_source(0);
        m.emit(MachInst::MovImm { dst: Reg(1), imm: 1 }); // 7 bytes
        m.mark_source(5);
        m.mark_source(6); // collapses with the previous mark
        m.emit(MachInst::Return);
        let code = m.finish();
        assert_eq!(code.source_map(), &[(0, 0), (7, 6)]);
        assert_eq!(code.source_offset(0), Some(0));
        assert_eq!(code.source_offset(7), Some(6));
        assert_eq!(code.source_offset(3), Some(0));
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics_at_finish() {
        let mut m = X64Masm::new();
        let l = m.new_label();
        m.emit(MachInst::Jump { target: l });
        let _ = m.finish();
    }

    #[test]
    fn huge_memarg_offsets_avoid_negative_disp32() {
        let load = |offset| MachInst::MemLoad {
            dst: AnyReg::Gpr(Reg(1)),
            addr: Reg(2),
            offset,
            width: 4,
            signed: false,
            dst_width: Width::W32,
        };
        let mut m = X64Masm::new();
        m.emit(load(0x8000_0000));
        m.emit(MachInst::Return);
        let code = m.finish();
        let b = code.bytes();
        // x86-64 sign-extends disp32, so the 2 GiB offset must be added to
        // the address in i32-safe chunks (0x7FFFFFFF + 1) with disp 0:
        // add rax, 0x7FFFFFFF; add rax, 1.
        assert!(b.windows(7).any(|w| w == [0x48, 0x81, 0xC0, 0xFF, 0xFF, 0xFF, 0x7F]));
        assert!(b.windows(7).any(|w| w == [0x48, 0x81, 0xC0, 0x01, 0x00, 0x00, 0x00]));
        // And small offsets fold into the displacement untouched.
        let mut m = X64Masm::new();
        m.emit(load(0x10));
        m.emit(MachInst::Return);
        let small = m.finish();
        assert!(small.bytes().windows(4).any(|w| w == [0x10, 0x00, 0x00, 0x00]));
    }

    #[test]
    fn division_preserves_rdx_and_uses_stack_divisor() {
        let mut m = X64Masm::new();
        m.emit(MachInst::Alu { op: AluOp::DivS, width: Width::W64, dst: Reg(3), a: Reg(1), b: Reg(2) });
        let code = m.finish();
        let b = code.bytes();
        assert_eq!(b[0], 0x52, "push rdx first");
        assert_eq!(b[1], 0x52, "divisor (rdx-mapped r2) pushed");
        assert!(b.windows(4).any(|w| w == [0x48, 0xF7, 0x3C, 0x24]), "idiv qword [rsp]");
        assert!(b.windows(1).any(|w| w == [0x5A]), "pop rdx");
    }
}
