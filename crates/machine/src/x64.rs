//! A byte-level x86-64 instruction encoder.
//!
//! The reproduction executes the virtual ISA in a simulator, but real baseline
//! compilers emit concrete machine bytes. This module encodes the x86-64
//! subset a baseline compiler needs — register moves, immediates, loads and
//! stores off a frame register, the group-1 ALU forms, multiplies, divides,
//! shifts, `setcc`/`cmovcc`, zero/sign extensions, the scalar SSE operations,
//! conversions, conditional jumps, calls, and returns — with correct
//! REX/ModRM/SIB encoding, verified byte-for-byte against reference
//! encodings in the tests. The [`crate::x64_masm::X64Masm`] macro-assembler
//! backend expands the compiler's semantic operations into these encodings.
//! The emitted code is never *executed* here because the offline environment
//! provides no way to map executable pages.

/// An x86-64 general-purpose register (the 16 architectural GPRs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Gpr {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Gpr {
    fn low3(self) -> u8 {
        (self as u8) & 0x7
    }

    fn high_bit(self) -> u8 {
        ((self as u8) >> 3) & 1
    }
}

/// An x86-64 SSE register (XMM0–XMM15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xmm(pub u8);

impl Xmm {
    fn low3(self) -> u8 {
        self.0 & 0x7
    }

    fn high_bit(self) -> u8 {
        (self.0 >> 3) & 1
    }
}

/// The group-1 ALU operations (`add`, `or`, `and`, `sub`, `xor`, `cmp`),
/// which share their ModRM `/n` extension and opcode layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Grp1 {
    Add = 0,
    Or = 1,
    And = 4,
    Sub = 5,
    Xor = 6,
    Cmp = 7,
}

impl Grp1 {
    /// The `op r/m, r` opcode (the MR form).
    fn mr_opcode(self) -> u8 {
        (self as u8) * 8 + 0x01
    }

    /// The `op r, r/m` opcode (the RM form).
    fn rm_opcode(self) -> u8 {
        (self as u8) * 8 + 0x03
    }
}

/// The shift/rotate operations of the `D3`/`C1` group, by ModRM extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum ShiftOp {
    Rol = 0,
    Ror = 1,
    Shl = 4,
    Shr = 5,
    Sar = 7,
}

/// Scalar SSE arithmetic (`addsd`, `subsd`, ... and their `ss` forms), by
/// opcode byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum SseOp {
    Sqrt = 0x51,
    Add = 0x58,
    Mul = 0x59,
    Sub = 0x5C,
    Min = 0x5D,
    Div = 0x5E,
    Max = 0x5F,
}

/// Condition codes for `Jcc` / `SETcc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Cond {
    Eq = 0x4,
    Ne = 0x5,
    Lt = 0xC,
    Ge = 0xD,
    Le = 0xE,
    Gt = 0xF,
    Below = 0x2,
    AboveEq = 0x3,
    BelowEq = 0x6,
    Above = 0x7,
}

/// An append-only x86-64 machine code buffer.
#[derive(Debug, Clone, Default)]
pub struct X64Assembler {
    bytes: Vec<u8>,
}

impl X64Assembler {
    /// Creates an empty assembler.
    pub fn new() -> X64Assembler {
        X64Assembler::default()
    }

    /// The bytes emitted so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The code emitted so far, moved out of the assembler.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The current offset (used as a branch-target anchor).
    pub fn offset(&self) -> usize {
        self.bytes.len()
    }

    fn rex(&mut self, w: bool, reg: u8, rm: u8) {
        let rex = 0x40 | ((w as u8) << 3) | (reg << 2) | rm;
        if rex != 0x40 || w {
            self.bytes.push(rex);
        }
    }

    fn rex_always(&mut self, w: bool, reg: u8, rm: u8) {
        self.bytes.push(0x40 | ((w as u8) << 3) | (reg << 2) | rm);
    }

    fn modrm(&mut self, md: u8, reg: u8, rm: u8) {
        self.bytes.push((md << 6) | (reg << 3) | rm);
    }

    /// `mov dst, imm32` (sign-extended to 64 bits via the C7 form).
    pub fn mov_ri32(&mut self, dst: Gpr, imm: i32) {
        self.rex_always(true, 0, dst.high_bit());
        self.bytes.push(0xC7);
        self.modrm(0b11, 0, dst.low3());
        self.bytes.extend_from_slice(&imm.to_le_bytes());
    }

    /// `movabs dst, imm64`.
    pub fn mov_ri64(&mut self, dst: Gpr, imm: i64) {
        self.rex_always(true, 0, dst.high_bit());
        self.bytes.push(0xB8 + dst.low3());
        self.bytes.extend_from_slice(&imm.to_le_bytes());
    }

    /// `mov dst, src` (64-bit register move).
    pub fn mov_rr(&mut self, dst: Gpr, src: Gpr) {
        self.mov_rr_w(true, dst, src);
    }

    /// `mov dst, [base + disp32]` (64-bit load).
    pub fn load_rm(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        self.load_rm_w(true, dst, base, disp);
    }

    /// `mov [base + disp32], src` (64-bit store).
    pub fn store_mr(&mut self, base: Gpr, disp: i32, src: Gpr) {
        self.store_mr_w(true, base, disp, src);
    }

    /// `jcc rel32`; returns the offset of the displacement for later patching.
    pub fn jcc(&mut self, cond: Cond, rel: i32) -> usize {
        self.bytes.push(0x0F);
        self.bytes.push(0x80 | cond as u8);
        let at = self.bytes.len();
        self.bytes.extend_from_slice(&rel.to_le_bytes());
        at
    }

    /// `jmp rel32`; returns the offset of the displacement for later patching.
    pub fn jmp(&mut self, rel: i32) -> usize {
        self.bytes.push(0xE9);
        let at = self.bytes.len();
        self.bytes.extend_from_slice(&rel.to_le_bytes());
        at
    }

    /// Patches a previously emitted rel32 displacement so it targets `target`.
    pub fn patch_rel32(&mut self, disp_offset: usize, target: usize) {
        let next = disp_offset + 4;
        let rel = target as i64 - next as i64;
        self.bytes[disp_offset..disp_offset + 4]
            .copy_from_slice(&(rel as i32).to_le_bytes());
    }

    /// `call rel32`.
    pub fn call(&mut self, rel: i32) {
        self.bytes.push(0xE8);
        self.bytes.extend_from_slice(&rel.to_le_bytes());
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.bytes.push(0xC3);
    }

    /// `mov byte [base + disp32], imm8` — the encoding a value-tag store uses.
    pub fn store_tag_byte(&mut self, base: Gpr, disp: i32, tag: u8) {
        self.rex(false, 0, base.high_bit());
        self.bytes.push(0xC6);
        self.mem_operand(0, base, disp);
        self.bytes.push(tag);
    }

    // ---- Addressing helpers ---------------------------------------------

    /// Emits a `[base + disp32]` memory operand (mod=10) for `reg`.
    fn mem_operand(&mut self, reg: u8, base: Gpr, disp: i32) {
        self.modrm(0b10, reg, base.low3());
        if base.low3() == 4 {
            // RSP/R12 need a SIB byte.
            self.bytes.push(0x24);
        }
        self.bytes.extend_from_slice(&disp.to_le_bytes());
    }

    // ---- Stack operations -----------------------------------------------

    /// `push r64`.
    pub fn push_r(&mut self, reg: Gpr) {
        if reg.high_bit() != 0 {
            self.bytes.push(0x41);
        }
        self.bytes.push(0x50 + reg.low3());
    }

    /// `pop r64`.
    pub fn pop_r(&mut self, reg: Gpr) {
        if reg.high_bit() != 0 {
            self.bytes.push(0x41);
        }
        self.bytes.push(0x58 + reg.low3());
    }

    /// `push imm32` (sign-extended to 64 bits).
    pub fn push_i32(&mut self, imm: i32) {
        self.bytes.push(0x68);
        self.bytes.extend_from_slice(&imm.to_le_bytes());
    }

    /// `add rsp, imm8` (used to drop a pushed temporary).
    pub fn add_rsp_i8(&mut self, imm: i8) {
        self.bytes.extend_from_slice(&[0x48, 0x83, 0xC4, imm as u8]);
    }

    // ---- Width-parameterized moves and ALU forms ------------------------

    /// `mov dst, src` with explicit width (`w = true` for 64-bit; the 32-bit
    /// form zero-extends, as x86-64 always does).
    pub fn mov_rr_w(&mut self, w: bool, dst: Gpr, src: Gpr) {
        self.rex(w, src.high_bit(), dst.high_bit());
        self.bytes.push(0x89);
        self.modrm(0b11, src.low3(), dst.low3());
    }

    /// `mov dst, [base + disp32]` with explicit width.
    pub fn load_rm_w(&mut self, w: bool, dst: Gpr, base: Gpr, disp: i32) {
        self.rex(w, dst.high_bit(), base.high_bit());
        self.bytes.push(0x8B);
        self.mem_operand(dst.low3(), base, disp);
    }

    /// `mov [base + disp32], src` with explicit width.
    pub fn store_mr_w(&mut self, w: bool, base: Gpr, disp: i32, src: Gpr) {
        self.rex(w, src.high_bit(), base.high_bit());
        self.bytes.push(0x89);
        self.mem_operand(src.low3(), base, disp);
    }

    /// `mov byte [base + disp32], src8`. A REX prefix is always emitted so
    /// SIL/DIL/SPL/BPL encode as byte registers.
    pub fn store_mr8(&mut self, base: Gpr, disp: i32, src: Gpr) {
        self.rex_always(false, src.high_bit(), base.high_bit());
        self.bytes.push(0x88);
        self.mem_operand(src.low3(), base, disp);
    }

    /// `mov word [base + disp32], src16`.
    pub fn store_mr16(&mut self, base: Gpr, disp: i32, src: Gpr) {
        self.bytes.push(0x66);
        self.rex(false, src.high_bit(), base.high_bit());
        self.bytes.push(0x89);
        self.mem_operand(src.low3(), base, disp);
    }

    /// `mov qword|dword [base + disp32], imm32` (sign-extended when `w`).
    pub fn store_mi32(&mut self, w: bool, base: Gpr, disp: i32, imm: i32) {
        self.rex(w, 0, base.high_bit());
        self.bytes.push(0xC7);
        self.mem_operand(0, base, disp);
        self.bytes.extend_from_slice(&imm.to_le_bytes());
    }

    /// Group-1 ALU `op dst, src` (register forms).
    pub fn grp1_rr(&mut self, op: Grp1, w: bool, dst: Gpr, src: Gpr) {
        self.rex(w, src.high_bit(), dst.high_bit());
        self.bytes.push(op.mr_opcode());
        self.modrm(0b11, src.low3(), dst.low3());
    }

    /// Group-1 ALU `op dst, imm32`.
    pub fn grp1_ri(&mut self, op: Grp1, w: bool, dst: Gpr, imm: i32) {
        self.rex(w, 0, dst.high_bit());
        self.bytes.push(0x81);
        self.modrm(0b11, op as u8, dst.low3());
        self.bytes.extend_from_slice(&imm.to_le_bytes());
    }

    /// Group-1 ALU `op dst, [base + disp32]`.
    pub fn grp1_rm(&mut self, op: Grp1, w: bool, dst: Gpr, base: Gpr, disp: i32) {
        self.rex(w, dst.high_bit(), base.high_bit());
        self.bytes.push(op.rm_opcode());
        self.mem_operand(dst.low3(), base, disp);
    }

    /// `imul dst, src`.
    pub fn imul_rr(&mut self, w: bool, dst: Gpr, src: Gpr) {
        self.rex(w, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0xAF]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `imul dst, src, imm32`.
    pub fn imul_rri(&mut self, w: bool, dst: Gpr, src: Gpr, imm: i32) {
        self.rex(w, dst.high_bit(), src.high_bit());
        self.bytes.push(0x69);
        self.modrm(0b11, dst.low3(), src.low3());
        self.bytes.extend_from_slice(&imm.to_le_bytes());
    }

    /// Shift/rotate `op dst, cl`.
    pub fn shift_cl(&mut self, op: ShiftOp, w: bool, dst: Gpr) {
        self.rex(w, 0, dst.high_bit());
        self.bytes.push(0xD3);
        self.modrm(0b11, op as u8, dst.low3());
    }

    /// Shift/rotate `op dst, imm8`.
    pub fn shift_ri(&mut self, op: ShiftOp, w: bool, dst: Gpr, imm: u8) {
        self.rex(w, 0, dst.high_bit());
        self.bytes.push(0xC1);
        self.modrm(0b11, op as u8, dst.low3());
        self.bytes.push(imm);
    }

    /// `cqo` (`w = true`) / `cdq`: sign-extend RAX into RDX ahead of a
    /// signed division.
    pub fn cqo(&mut self, w: bool) {
        if w {
            self.bytes.push(0x48);
        }
        self.bytes.push(0x99);
    }

    /// `idiv`/`div` with the divisor spilled at `[rsp]`.
    pub fn div_at_rsp(&mut self, signed: bool, w: bool) {
        if w {
            self.bytes.push(0x48);
        }
        self.bytes.push(0xF7);
        // mod=00, rm=100 (SIB), base=RSP: `[rsp]` with no displacement.
        self.modrm(0b00, if signed { 7 } else { 6 }, 0b100);
        self.bytes.push(0x24);
    }

    /// `test a, b`.
    pub fn test_rr(&mut self, w: bool, a: Gpr, b: Gpr) {
        self.rex(w, b.high_bit(), a.high_bit());
        self.bytes.push(0x85);
        self.modrm(0b11, b.low3(), a.low3());
    }

    /// `setcc dst8`. A REX prefix is always emitted so SIL/DIL/SPL/BPL
    /// encode as byte registers.
    pub fn setcc(&mut self, cond: Cond, dst: Gpr) {
        self.rex_always(false, 0, dst.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0x90 | cond as u8]);
        self.modrm(0b11, 0, dst.low3());
    }

    /// `cmovcc dst, src`.
    pub fn cmovcc(&mut self, cond: Cond, w: bool, dst: Gpr, src: Gpr) {
        self.rex(w, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0x40 | cond as u8]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    // ---- Extensions and bit counts --------------------------------------

    /// `movzx dst, src8` (REX always, for SIL/DIL/SPL/BPL).
    pub fn movzx_r8(&mut self, dst: Gpr, src: Gpr) {
        self.rex_always(false, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0xB6]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `movsx dst, src8` with explicit destination width.
    pub fn movsx_r8(&mut self, w: bool, dst: Gpr, src: Gpr) {
        self.rex_always(w, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0xBE]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `movsx dst, src16` with explicit destination width.
    pub fn movsx_r16(&mut self, w: bool, dst: Gpr, src: Gpr) {
        self.rex(w, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0xBF]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `movsxd dst, src32` (64-bit destination).
    pub fn movsxd(&mut self, dst: Gpr, src: Gpr) {
        self.rex_always(true, dst.high_bit(), src.high_bit());
        self.bytes.push(0x63);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `movzx dst, byte [base + disp32]`.
    pub fn movzx_rm8(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        self.rex(false, dst.high_bit(), base.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0xB6]);
        self.mem_operand(dst.low3(), base, disp);
    }

    /// `movzx dst, word [base + disp32]`.
    pub fn movzx_rm16(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        self.rex(false, dst.high_bit(), base.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0xB7]);
        self.mem_operand(dst.low3(), base, disp);
    }

    /// `movsx dst, byte [base + disp32]` with explicit destination width.
    pub fn movsx_rm8(&mut self, w: bool, dst: Gpr, base: Gpr, disp: i32) {
        self.rex(w, dst.high_bit(), base.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0xBE]);
        self.mem_operand(dst.low3(), base, disp);
    }

    /// `movsx dst, word [base + disp32]` with explicit destination width.
    pub fn movsx_rm16(&mut self, w: bool, dst: Gpr, base: Gpr, disp: i32) {
        self.rex(w, dst.high_bit(), base.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0xBF]);
        self.mem_operand(dst.low3(), base, disp);
    }

    /// `movsxd dst, dword [base + disp32]`.
    pub fn movsxd_rm(&mut self, dst: Gpr, base: Gpr, disp: i32) {
        self.rex_always(true, dst.high_bit(), base.high_bit());
        self.bytes.push(0x63);
        self.mem_operand(dst.low3(), base, disp);
    }

    /// `popcnt` (0xB8), `lzcnt` (0xBD), or `tzcnt` (0xBC): `F3 0F op /r`.
    fn f3_bitcount(&mut self, opcode: u8, w: bool, dst: Gpr, src: Gpr) {
        self.bytes.push(0xF3);
        self.rex(w, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, opcode]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `popcnt dst, src`.
    pub fn popcnt(&mut self, w: bool, dst: Gpr, src: Gpr) {
        self.f3_bitcount(0xB8, w, dst, src);
    }

    /// `lzcnt dst, src`.
    pub fn lzcnt(&mut self, w: bool, dst: Gpr, src: Gpr) {
        self.f3_bitcount(0xBD, w, dst, src);
    }

    /// `tzcnt dst, src`.
    pub fn tzcnt(&mut self, w: bool, dst: Gpr, src: Gpr) {
        self.f3_bitcount(0xBC, w, dst, src);
    }

    /// `btc dst, imm8` — complement one bit (sign-bit flips for `f64.neg`).
    pub fn btc_ri(&mut self, w: bool, dst: Gpr, bit: u8) {
        self.rex(w, 0, dst.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0xBA]);
        self.modrm(0b11, 7, dst.low3());
        self.bytes.push(bit);
    }

    /// `ud2` — the canonical trap instruction.
    pub fn ud2(&mut self) {
        self.bytes.extend_from_slice(&[0x0F, 0x0B]);
    }

    // ---- Scalar SSE ------------------------------------------------------

    /// `movaps dst, src` (full-register XMM copy).
    pub fn movaps_rr(&mut self, dst: Xmm, src: Xmm) {
        self.rex(false, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0x28]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `movsd`/`movss dst, [base + disp32]` (`double = true` for `sd`).
    pub fn movs_rm(&mut self, double: bool, dst: Xmm, base: Gpr, disp: i32) {
        self.bytes.push(if double { 0xF2 } else { 0xF3 });
        self.rex(false, dst.high_bit(), base.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0x10]);
        self.mem_operand(dst.low3(), base, disp);
    }

    /// `movsd`/`movss [base + disp32], src`.
    pub fn movs_mr(&mut self, double: bool, base: Gpr, disp: i32, src: Xmm) {
        self.bytes.push(if double { 0xF2 } else { 0xF3 });
        self.rex(false, src.high_bit(), base.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0x11]);
        self.mem_operand(src.low3(), base, disp);
    }

    /// Scalar SSE arithmetic `op dst, src` (`addsd`, `mulss`, `sqrtsd`, ...).
    pub fn sse_op(&mut self, op: SseOp, double: bool, dst: Xmm, src: Xmm) {
        self.bytes.push(if double { 0xF2 } else { 0xF3 });
        self.rex(false, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, op as u8]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `cmpsd`/`cmpss dst, src, pred` — compare to an all-ones/zero mask.
    pub fn cmps(&mut self, double: bool, dst: Xmm, src: Xmm, pred: u8) {
        self.bytes.push(if double { 0xF2 } else { 0xF3 });
        self.rex(false, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0xC2]);
        self.modrm(0b11, dst.low3(), src.low3());
        self.bytes.push(pred);
    }

    /// `roundsd`/`roundss dst, src, mode` (SSE4.1).
    pub fn rounds(&mut self, double: bool, dst: Xmm, src: Xmm, mode: u8) {
        self.bytes.push(0x66);
        self.rex(false, dst.high_bit(), src.high_bit());
        self.bytes
            .extend_from_slice(&[0x0F, 0x3A, if double { 0x0B } else { 0x0A }]);
        self.modrm(0b11, dst.low3(), src.low3());
        self.bytes.push(mode);
    }

    /// `cvttsd2si`/`cvttss2si dst, src` (truncating float-to-int).
    pub fn cvtt_f2i(&mut self, double: bool, w: bool, dst: Gpr, src: Xmm) {
        self.bytes.push(if double { 0xF2 } else { 0xF3 });
        self.rex(w, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0x2C]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `cvtsi2sd`/`cvtsi2ss dst, src` (int-to-float).
    pub fn cvt_i2f(&mut self, double: bool, w: bool, dst: Xmm, src: Gpr) {
        self.bytes.push(if double { 0xF2 } else { 0xF3 });
        self.rex(w, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0x2A]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `cvtsd2ss`/`cvtss2sd dst, src` (`to_double` selects the result type).
    pub fn cvt_f2f(&mut self, to_double: bool, dst: Xmm, src: Xmm) {
        // The prefix names the *source* format.
        self.bytes.push(if to_double { 0xF3 } else { 0xF2 });
        self.rex(false, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0x5A]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `movq`/`movd dst_xmm, src_gpr`.
    pub fn movq_xr(&mut self, w: bool, dst: Xmm, src: Gpr) {
        self.bytes.push(0x66);
        self.rex(w, dst.high_bit(), src.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0x6E]);
        self.modrm(0b11, dst.low3(), src.low3());
    }

    /// `movq`/`movd dst_gpr, src_xmm`.
    pub fn movq_rx(&mut self, w: bool, dst: Gpr, src: Xmm) {
        self.bytes.push(0x66);
        self.rex(w, src.high_bit(), dst.high_bit());
        self.bytes.extend_from_slice(&[0x0F, 0x7E]);
        self.modrm(0b11, src.low3(), dst.low3());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mov_immediate_encodings() {
        let mut a = X64Assembler::new();
        a.mov_ri32(Gpr::Rax, 7);
        assert_eq!(a.bytes(), &[0x48, 0xC7, 0xC0, 0x07, 0x00, 0x00, 0x00]);

        let mut a = X64Assembler::new();
        a.mov_ri32(Gpr::R12, -1);
        assert_eq!(a.bytes(), &[0x49, 0xC7, 0xC4, 0xFF, 0xFF, 0xFF, 0xFF]);

        let mut a = X64Assembler::new();
        a.mov_ri64(Gpr::Rcx, 0x1122334455667788);
        assert_eq!(
            a.bytes(),
            &[0x48, 0xB9, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
        );
    }

    #[test]
    fn register_moves_and_alu() {
        let mut a = X64Assembler::new();
        a.mov_rr(Gpr::Rbx, Gpr::Rax);
        assert_eq!(a.bytes(), &[0x48, 0x89, 0xC3]);

        let mut a = X64Assembler::new();
        a.grp1_rr(Grp1::Add, true, Gpr::Rax, Gpr::R9);
        assert_eq!(a.bytes(), &[0x4C, 0x01, 0xC8]);

        let mut a = X64Assembler::new();
        a.grp1_rr(Grp1::Sub, true, Gpr::Rdx, Gpr::Rcx);
        assert_eq!(a.bytes(), &[0x48, 0x29, 0xCA]);

        let mut a = X64Assembler::new();
        a.grp1_ri(Grp1::Add, true, Gpr::Rsi, 64);
        assert_eq!(a.bytes(), &[0x48, 0x81, 0xC6, 0x40, 0x00, 0x00, 0x00]);

        let mut a = X64Assembler::new();
        a.grp1_rr(Grp1::Cmp, true, Gpr::Rax, Gpr::Rbx);
        assert_eq!(a.bytes(), &[0x48, 0x39, 0xD8]);
    }

    #[test]
    fn loads_and_stores_off_frame_register() {
        // mov rax, [r14 + 0x10] — loading a value-stack slot off VFP (r14).
        let mut a = X64Assembler::new();
        a.load_rm(Gpr::Rax, Gpr::R14, 0x10);
        assert_eq!(a.bytes(), &[0x49, 0x8B, 0x86, 0x10, 0x00, 0x00, 0x00]);

        // mov [r14 + 0x18], rbx — spilling to the value stack.
        let mut a = X64Assembler::new();
        a.store_mr(Gpr::R14, 0x18, Gpr::Rbx);
        assert_eq!(a.bytes(), &[0x49, 0x89, 0x9E, 0x18, 0x00, 0x00, 0x00]);

        // RSP-based addressing requires a SIB byte.
        let mut a = X64Assembler::new();
        a.load_rm(Gpr::Rcx, Gpr::Rsp, 8);
        assert_eq!(a.bytes(), &[0x48, 0x8B, 0x8C, 0x24, 0x08, 0x00, 0x00, 0x00]);
    }

    #[test]
    fn tag_store_byte_encoding() {
        // mov byte [r14 + 0x21], 5 — a value tag store.
        let mut a = X64Assembler::new();
        a.store_tag_byte(Gpr::R14, 0x21, 5);
        assert_eq!(a.bytes(), &[0x41, 0xC6, 0x86, 0x21, 0x00, 0x00, 0x00, 0x05]);

        // Low register needs no REX prefix.
        let mut a = X64Assembler::new();
        a.store_tag_byte(Gpr::Rdi, 4, 1);
        assert_eq!(a.bytes(), &[0xC6, 0x87, 0x04, 0x00, 0x00, 0x00, 0x01]);
    }

    #[test]
    fn stack_and_width_parameterized_forms() {
        let mut a = X64Assembler::new();
        a.push_r(Gpr::Rdx);
        a.push_r(Gpr::R12);
        a.pop_r(Gpr::Rdx);
        assert_eq!(a.bytes(), &[0x52, 0x41, 0x54, 0x5A]);

        let mut a = X64Assembler::new();
        a.push_i32(7);
        a.add_rsp_i8(8);
        assert_eq!(a.bytes(), &[0x68, 0x07, 0x00, 0x00, 0x00, 0x48, 0x83, 0xC4, 0x08]);

        // 32-bit register move has no REX for low registers.
        let mut a = X64Assembler::new();
        a.mov_rr_w(false, Gpr::Rcx, Gpr::Rax);
        assert_eq!(a.bytes(), &[0x89, 0xC1]);

        let mut a = X64Assembler::new();
        a.grp1_rr(Grp1::Xor, false, Gpr::Rdx, Gpr::Rdx);
        assert_eq!(a.bytes(), &[0x31, 0xD2]);

        let mut a = X64Assembler::new();
        a.grp1_ri(Grp1::Cmp, false, Gpr::Rcx, 3);
        assert_eq!(a.bytes(), &[0x81, 0xF9, 0x03, 0x00, 0x00, 0x00]);

        let mut a = X64Assembler::new();
        a.grp1_rm(Grp1::Or, true, Gpr::Rax, Gpr::Rsp, 0);
        assert_eq!(a.bytes(), &[0x48, 0x0B, 0x84, 0x24, 0x00, 0x00, 0x00, 0x00]);
    }

    #[test]
    fn multiply_divide_and_shift_sequences() {
        let mut a = X64Assembler::new();
        a.imul_rr(true, Gpr::Rax, Gpr::Rcx);
        assert_eq!(a.bytes(), &[0x48, 0x0F, 0xAF, 0xC1]);

        let mut a = X64Assembler::new();
        a.imul_rri(false, Gpr::Rax, Gpr::Rcx, 10);
        assert_eq!(a.bytes(), &[0x69, 0xC1, 0x0A, 0x00, 0x00, 0x00]);

        let mut a = X64Assembler::new();
        a.shift_cl(ShiftOp::Shl, true, Gpr::Rax);
        a.shift_ri(ShiftOp::Sar, false, Gpr::Rcx, 5);
        assert_eq!(a.bytes(), &[0x48, 0xD3, 0xE0, 0xC1, 0xF9, 0x05]);

        let mut a = X64Assembler::new();
        a.cqo(true);
        a.div_at_rsp(true, true);
        assert_eq!(a.bytes(), &[0x48, 0x99, 0x48, 0xF7, 0x3C, 0x24]);
        let mut a = X64Assembler::new();
        a.div_at_rsp(false, false);
        assert_eq!(a.bytes(), &[0xF7, 0x34, 0x24]);
    }

    #[test]
    fn flags_extensions_and_bit_counts() {
        let mut a = X64Assembler::new();
        a.test_rr(false, Gpr::Rax, Gpr::Rax);
        a.setcc(Cond::Eq, Gpr::Rax);
        a.movzx_r8(Gpr::Rax, Gpr::Rax);
        assert_eq!(a.bytes(), &[0x85, 0xC0, 0x40, 0x0F, 0x94, 0xC0, 0x40, 0x0F, 0xB6, 0xC0]);

        let mut a = X64Assembler::new();
        a.cmovcc(Cond::Ne, true, Gpr::Rax, Gpr::R9);
        assert_eq!(a.bytes(), &[0x49, 0x0F, 0x45, 0xC1]);

        let mut a = X64Assembler::new();
        a.popcnt(true, Gpr::Rax, Gpr::Rcx);
        a.lzcnt(false, Gpr::Rax, Gpr::Rcx);
        a.tzcnt(false, Gpr::Rax, Gpr::Rcx);
        assert_eq!(
            a.bytes(),
            &[0xF3, 0x48, 0x0F, 0xB8, 0xC1, 0xF3, 0x0F, 0xBD, 0xC1, 0xF3, 0x0F, 0xBC, 0xC1]
        );

        let mut a = X64Assembler::new();
        a.movsxd(Gpr::Rax, Gpr::Rcx);
        a.btc_ri(true, Gpr::Rax, 63);
        assert_eq!(a.bytes(), &[0x48, 0x63, 0xC1, 0x48, 0x0F, 0xBA, 0xF8, 0x3F]);

        let mut a = X64Assembler::new();
        a.ud2();
        assert_eq!(a.bytes(), &[0x0F, 0x0B]);
    }

    #[test]
    fn scalar_sse_encodings() {
        let mut a = X64Assembler::new();
        a.movaps_rr(Xmm(1), Xmm(2));
        assert_eq!(a.bytes(), &[0x0F, 0x28, 0xCA]);

        let mut a = X64Assembler::new();
        a.sse_op(SseOp::Add, true, Xmm(0), Xmm(1));
        a.sse_op(SseOp::Mul, false, Xmm(0), Xmm(1));
        assert_eq!(a.bytes(), &[0xF2, 0x0F, 0x58, 0xC1, 0xF3, 0x0F, 0x59, 0xC1]);

        // movsd xmm1, [r14 + 0x20] — loading a slot off the frame register.
        let mut a = X64Assembler::new();
        a.movs_rm(true, Xmm(1), Gpr::R14, 0x20);
        assert_eq!(a.bytes(), &[0xF2, 0x41, 0x0F, 0x10, 0x8E, 0x20, 0x00, 0x00, 0x00]);

        let mut a = X64Assembler::new();
        a.cmps(true, Xmm(0), Xmm(3), 1);
        assert_eq!(a.bytes(), &[0xF2, 0x0F, 0xC2, 0xC3, 0x01]);

        let mut a = X64Assembler::new();
        a.rounds(true, Xmm(1), Xmm(2), 3);
        assert_eq!(a.bytes(), &[0x66, 0x0F, 0x3A, 0x0B, 0xCA, 0x03]);

        let mut a = X64Assembler::new();
        a.cvtt_f2i(true, true, Gpr::Rax, Xmm(1));
        a.cvt_i2f(true, true, Xmm(1), Gpr::Rax);
        assert_eq!(
            a.bytes(),
            &[0xF2, 0x48, 0x0F, 0x2C, 0xC1, 0xF2, 0x48, 0x0F, 0x2A, 0xC8]
        );

        let mut a = X64Assembler::new();
        a.movq_rx(true, Gpr::Rax, Xmm(0));
        a.movq_xr(true, Xmm(0), Gpr::Rax);
        assert_eq!(
            a.bytes(),
            &[0x66, 0x48, 0x0F, 0x7E, 0xC0, 0x66, 0x48, 0x0F, 0x6E, 0xC0]
        );
    }

    #[test]
    fn control_flow_and_patching() {
        let mut a = X64Assembler::new();
        a.ret();
        assert_eq!(a.bytes(), &[0xC3]);

        let mut a = X64Assembler::new();
        a.call(0x10);
        assert_eq!(a.bytes(), &[0xE8, 0x10, 0x00, 0x00, 0x00]);

        // Forward jump patched to land on the ret.
        let mut a = X64Assembler::new();
        let disp = a.jmp(0);
        a.mov_ri32(Gpr::Rax, 1);
        let target = a.offset();
        a.ret();
        a.patch_rel32(disp, target);
        // jmp is 5 bytes; mov is 7 bytes; so rel = 7.
        assert_eq!(&a.bytes()[..5], &[0xE9, 0x07, 0x00, 0x00, 0x00]);

        // Conditional jump encoding.
        let mut a = X64Assembler::new();
        a.jcc(Cond::Eq, -6);
        assert_eq!(a.bytes(), &[0x0F, 0x84, 0xFA, 0xFF, 0xFF, 0xFF]);
        let mut a = X64Assembler::new();
        a.jcc(Cond::Lt, 2);
        assert_eq!(a.bytes(), &[0x0F, 0x8C, 0x02, 0x00, 0x00, 0x00]);
    }
}
