//! The simulator's pre-decoded op stream.
//!
//! [`MachInst`] is what the compilers emit and what the cost model, the
//! x86-64 re-emission and the code goldens read. It is written once and
//! retired many times, and as an execution format it makes every common
//! instruction pay twice: an `Alu` carries its operation and width as data,
//! so retiring one dispatches on the variant and then again on the operation
//! — the worst-predicted branch in the loop — and a branch looks its label
//! up in the buffer's label table every time it is taken.
//!
//! [`translate`] rewrites a finished buffer into [`Op`]s whose variant alone
//! says what to do, one op per instruction at the same index, so every pc
//! the engine holds (call and probe sites, source maps, OSR resume points,
//! backtraces) means the same thing in both. It
//!
//! * gives each integer ALU operation and compare its own variant per width
//!   and operand form (division and remainder share one trapping variant per
//!   form — they are rare and dear);
//! * splits slot loads and stores, moves and global accesses by register
//!   bank;
//! * resolves `Jump`/`BrIf` labels to pcs and folds `negate` into the
//!   variant;
//! * gives every linear-memory access shape the compilers emit its own
//!   variant, read and written at a fixed width.
//!
//! Every other instruction keeps the fields execution reads in a variant of
//! its own; a probe drops its site id, since the engine finds the site by
//! pc. The
//! integer variants evaluate through [`crate::ops`] with the operation and
//! width as constants, so the semantics are still defined in one place.
//!
//! Then [`fuse`] replaces the commonest groups of two or three adjacent ops
//! with one op that retires them all (a *superinstruction*). The fused op
//! takes the first member's index and the ops at the next indices stay as
//! translated, so the index space is unchanged. Execution enters a buffer
//! only at pc 0, after a call or probe (neither of which fuses) and at label
//! targets, and no later member of a group is a label target, so no entry
//! lands on a kept op. A meter check may lead a group: it exits for OSR and
//! traps at its own pc, the group's, before any later member runs.
//! [`crate::asm::CodeBuffer`] translates on its first execution and keeps
//! the result beside its instructions.

use crate::asm::CodeBuffer;
use crate::inst::{
    AluOp, CmpOp, ConvOp, FAluOp, FCmpOp, FUnOp, Label, LabelRange, MachInst, TrapCode, UnOp,
    Width,
};
use crate::reg::{AnyReg, FReg, Reg};
use crate::values::ValueTag;

/// One pre-decoded instruction. The tuple variants are the integer ALU and
/// compare forms, `(dst, a, b)` or `(dst, a, imm)`, named operation, form
/// (`R`egister or `I`mmediate) and width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    AddR32(Reg, Reg, Reg),
    AddR64(Reg, Reg, Reg),
    AddI32(Reg, Reg, i64),
    AddI64(Reg, Reg, i64),
    SubR32(Reg, Reg, Reg),
    SubR64(Reg, Reg, Reg),
    SubI32(Reg, Reg, i64),
    SubI64(Reg, Reg, i64),
    MulR32(Reg, Reg, Reg),
    MulR64(Reg, Reg, Reg),
    MulI32(Reg, Reg, i64),
    MulI64(Reg, Reg, i64),
    AndR32(Reg, Reg, Reg),
    AndR64(Reg, Reg, Reg),
    AndI32(Reg, Reg, i64),
    AndI64(Reg, Reg, i64),
    OrR32(Reg, Reg, Reg),
    OrR64(Reg, Reg, Reg),
    OrI32(Reg, Reg, i64),
    OrI64(Reg, Reg, i64),
    XorR32(Reg, Reg, Reg),
    XorR64(Reg, Reg, Reg),
    XorI32(Reg, Reg, i64),
    XorI64(Reg, Reg, i64),
    ShlR32(Reg, Reg, Reg),
    ShlR64(Reg, Reg, Reg),
    ShlI32(Reg, Reg, i64),
    ShlI64(Reg, Reg, i64),
    ShrSR32(Reg, Reg, Reg),
    ShrSR64(Reg, Reg, Reg),
    ShrSI32(Reg, Reg, i64),
    ShrSI64(Reg, Reg, i64),
    ShrUR32(Reg, Reg, Reg),
    ShrUR64(Reg, Reg, Reg),
    ShrUI32(Reg, Reg, i64),
    ShrUI64(Reg, Reg, i64),
    RotlR32(Reg, Reg, Reg),
    RotlR64(Reg, Reg, Reg),
    RotlI32(Reg, Reg, i64),
    RotlI64(Reg, Reg, i64),
    RotrR32(Reg, Reg, Reg),
    RotrR64(Reg, Reg, Reg),
    RotrI32(Reg, Reg, i64),
    RotrI64(Reg, Reg, i64),
    /// Division or remainder, register form.
    Div { op: AluOp, width: Width, dst: Reg, a: Reg, b: Reg },
    /// Division or remainder, immediate form.
    DivImm { op: AluOp, width: Width, dst: Reg, a: Reg, imm: i64 },
    EqR32(Reg, Reg, Reg),
    EqR64(Reg, Reg, Reg),
    EqI32(Reg, Reg, i64),
    EqI64(Reg, Reg, i64),
    NeR32(Reg, Reg, Reg),
    NeR64(Reg, Reg, Reg),
    NeI32(Reg, Reg, i64),
    NeI64(Reg, Reg, i64),
    LtSR32(Reg, Reg, Reg),
    LtSR64(Reg, Reg, Reg),
    LtSI32(Reg, Reg, i64),
    LtSI64(Reg, Reg, i64),
    LtUR32(Reg, Reg, Reg),
    LtUR64(Reg, Reg, Reg),
    LtUI32(Reg, Reg, i64),
    LtUI64(Reg, Reg, i64),
    GtSR32(Reg, Reg, Reg),
    GtSR64(Reg, Reg, Reg),
    GtSI32(Reg, Reg, i64),
    GtSI64(Reg, Reg, i64),
    GtUR32(Reg, Reg, Reg),
    GtUR64(Reg, Reg, Reg),
    GtUI32(Reg, Reg, i64),
    GtUI64(Reg, Reg, i64),
    LeSR32(Reg, Reg, Reg),
    LeSR64(Reg, Reg, Reg),
    LeSI32(Reg, Reg, i64),
    LeSI64(Reg, Reg, i64),
    LeUR32(Reg, Reg, Reg),
    LeUR64(Reg, Reg, Reg),
    LeUI32(Reg, Reg, i64),
    LeUI64(Reg, Reg, i64),
    GeSR32(Reg, Reg, Reg),
    GeSR64(Reg, Reg, Reg),
    GeSI32(Reg, Reg, i64),
    GeSI64(Reg, Reg, i64),
    GeUR32(Reg, Reg, Reg),
    GeUR64(Reg, Reg, Reg),
    GeUI32(Reg, Reg, i64),
    GeUI64(Reg, Reg, i64),

    // Moves, slots and globals, by register bank.
    MovImm { dst: Reg, imm: i64 },
    FMovImm { dst: FReg, bits: u64 },
    Mov { dst: Reg, src: Reg },
    FMov { dst: FReg, src: FReg },
    LoadSlot { dst: Reg, slot: u32 },
    FLoadSlot { dst: FReg, slot: u32 },
    StoreSlot { slot: u32, src: Reg },
    FStoreSlot { slot: u32, src: FReg },
    StoreSlotImm { slot: u32, imm: i64 },
    StoreTag { slot: u32, tag: ValueTag },
    GlobalGet { dst: Reg, index: u32 },
    FGlobalGet { dst: FReg, index: u32 },
    GlobalSet { index: u32, src: Reg },
    FGlobalSet { index: u32, src: FReg },

    // Linear memory, one variant per access shape the compilers emit:
    // access width, then how the loaded bytes extend into the register.
    /// 1 byte, zero-extended (at either destination width).
    Load8U { dst: Reg, addr: Reg, offset: u32 },
    /// 1 byte, sign-extended to 32 bits.
    Load8S32 { dst: Reg, addr: Reg, offset: u32 },
    /// 1 byte, sign-extended to 64 bits.
    Load8S64 { dst: Reg, addr: Reg, offset: u32 },
    /// 2 bytes, zero-extended.
    Load16U { dst: Reg, addr: Reg, offset: u32 },
    /// 2 bytes, sign-extended to 32 bits.
    Load16S32 { dst: Reg, addr: Reg, offset: u32 },
    /// 2 bytes, sign-extended to 64 bits.
    Load16S64 { dst: Reg, addr: Reg, offset: u32 },
    /// 4 bytes, zero-extended (and `i32.load`, where the sign is moot).
    Load32U { dst: Reg, addr: Reg, offset: u32 },
    /// 4 bytes, sign-extended to 64 bits.
    Load32S64 { dst: Reg, addr: Reg, offset: u32 },
    /// 8 bytes.
    Load64 { dst: Reg, addr: Reg, offset: u32 },
    /// 4 bytes into a floating-point register.
    FLoad32 { dst: FReg, addr: Reg, offset: u32 },
    /// 8 bytes into a floating-point register.
    FLoad64 { dst: FReg, addr: Reg, offset: u32 },
    Store8 { src: Reg, addr: Reg, offset: u32 },
    Store16 { src: Reg, addr: Reg, offset: u32 },
    Store32 { src: Reg, addr: Reg, offset: u32 },
    Store64 { src: Reg, addr: Reg, offset: u32 },
    FStore32 { src: FReg, addr: Reg, offset: u32 },
    FStore64 { src: FReg, addr: Reg, offset: u32 },
    /// Any other load, exactly as emitted.
    MemLoad { dst: AnyReg, addr: Reg, offset: u32, width: u32, signed: bool, dst_width: Width },
    /// Any other store, exactly as emitted.
    MemStore { src: AnyReg, addr: Reg, offset: u32, width: u32 },

    // Branches, to resolved pcs.
    Jump { target: u32 },
    /// `BrIf` without `negate`: taken when `cond` is non-zero.
    BrNz { cond: Reg, target: u32 },
    /// `BrIf` with `negate`: taken when `cond` is zero.
    BrZ { cond: Reg, target: u32 },

    // The rest, as emitted.
    Nop,
    Unop { op: UnOp, width: Width, dst: Reg, src: Reg },
    FAlu { op: FAluOp, width: Width, dst: FReg, a: FReg, b: FReg },
    FUnop { op: FUnOp, width: Width, dst: FReg, src: FReg },
    FCmp { op: FCmpOp, width: Width, dst: Reg, a: FReg, b: FReg },
    Convert { op: ConvOp, dst: AnyReg, src: AnyReg },
    Select { dst: Reg, cond: Reg, if_true: Reg, if_false: Reg },
    FSelect { dst: FReg, cond: Reg, if_true: FReg, if_false: FReg },
    MemorySize { dst: Reg },
    MemoryGrow { dst: Reg, delta: Reg },
    BrTable { index: Reg, targets: LabelRange, default: Label },
    Call { func_index: u32 },
    CallIndirect { type_index: u32, table_index: u32, index: Reg },
    ProbeRuntime,
    ProbeDirect,
    ProbeCounter { counter_id: u32 },
    ProbeTosValue { src: AnyReg },
    FuelCheck { amount: u64 },
    EpochCheck,
    Trap { code: TrapCode },
    Return,

    // Fused groups (see [`fuse`]): each retires the instruction at its own
    // index and then the next one or two, whose fields carry a `2` or a `3`.
    // An `i32` immediate is a 32-bit operation's or a 64-bit rotate's (see
    // [`imm32`]); a meter check's amount fits a `u32` or the check is not
    // fused.
    StoreSlot2 { slot: u32, src: Reg, slot2: u32, src2: Reg },
    LoadSlot2 { dst: Reg, slot: u32, dst2: Reg, slot2: u32 },
    AddI32StoreSlot { dst: Reg, a: Reg, imm: i32, slot2: u32, src2: Reg },
    XorR32RotlI32 { dst: Reg, a: Reg, b: Reg, dst2: Reg, a2: Reg, imm2: i32 },
    MulI32Load32U { dst: Reg, a: Reg, imm: i32, dst2: Reg, addr2: Reg, offset2: u32 },
    GeUR32BrNz { dst: Reg, a: Reg, b: Reg, cond2: Reg, target2: u32 },
    GeUI32BrNz { dst: Reg, a: Reg, imm: i32, cond2: Reg, target2: u32 },
    StoreSlotJump { slot: u32, src: Reg, target2: u32 },
    AddI32Jump { dst: Reg, a: Reg, imm: i32, target2: u32 },
    AddR32XorR32RotlI32 { dst: Reg, a: Reg, b: Reg, dst2: Reg, a2: Reg, b2: Reg, dst3: Reg, a3: Reg, imm3: i32 },
    StoreSlot2Jump { slot: u32, src: Reg, slot2: u32, src2: Reg, target3: u32 },
    LoadSlot2GeUR32 { dst: Reg, slot: u32, dst2: Reg, slot2: u32, dst3: Reg, a3: Reg, b3: Reg },
    BrNzLoadSlot2 { cond: Reg, target: u32, dst2: Reg, slot2: u32, dst3: Reg, slot3: u32 },
    XorR32MulI32RotlI32 { dst: Reg, a: Reg, b: Reg, dst2: Reg, a2: Reg, imm2: i32, dst3: Reg, a3: Reg, imm3: i32 },
    SubR32AddI32Jump { dst: Reg, a: Reg, b: Reg, dst2: Reg, a2: Reg, imm2: i32, target3: u32 },
    XorR64RotlI64MulR64 { dst: Reg, a: Reg, b: Reg, dst2: Reg, a2: Reg, imm2: i32, dst3: Reg, a3: Reg, b3: Reg },
    AddR64RotlI64 { dst: Reg, a: Reg, b: Reg, dst2: Reg, a2: Reg, imm2: i32 },
    MovImmXorR64 { dst: Reg, imm: i64, dst2: Reg, a2: Reg, b2: Reg },
    AddR32LoadSlot { dst: Reg, a: Reg, b: Reg, dst2: Reg, slot2: u32 },
    FuelCheckLoadSlot2 { amount: u32, dst2: Reg, slot2: u32, dst3: Reg, slot3: u32 },
}

// Fetched once per dispatch, and no larger than a `MachInst`.
const _: () = assert!(std::mem::size_of::<Op>() <= 16);

/// A register-form constructor: `(dst, a, b)`.
type RegForm = fn(Reg, Reg, Reg) -> Op;
/// An immediate-form constructor: `(dst, a, imm)`.
type ImmForm = fn(Reg, Reg, i64) -> Op;

/// The `[32-bit, 64-bit]` register and immediate forms of an integer ALU
/// operation; `None` for division and remainder, which share [`Op::Div`]
/// and [`Op::DivImm`].
fn alu_forms(op: AluOp) -> Option<([RegForm; 2], [ImmForm; 2])> {
    use Op::*;
    Some(match op {
        AluOp::Add => ([AddR32, AddR64], [AddI32, AddI64]),
        AluOp::Sub => ([SubR32, SubR64], [SubI32, SubI64]),
        AluOp::Mul => ([MulR32, MulR64], [MulI32, MulI64]),
        AluOp::And => ([AndR32, AndR64], [AndI32, AndI64]),
        AluOp::Or => ([OrR32, OrR64], [OrI32, OrI64]),
        AluOp::Xor => ([XorR32, XorR64], [XorI32, XorI64]),
        AluOp::Shl => ([ShlR32, ShlR64], [ShlI32, ShlI64]),
        AluOp::ShrS => ([ShrSR32, ShrSR64], [ShrSI32, ShrSI64]),
        AluOp::ShrU => ([ShrUR32, ShrUR64], [ShrUI32, ShrUI64]),
        AluOp::Rotl => ([RotlR32, RotlR64], [RotlI32, RotlI64]),
        AluOp::Rotr => ([RotrR32, RotrR64], [RotrI32, RotrI64]),
        AluOp::DivS | AluOp::DivU | AluOp::RemS | AluOp::RemU => return None,
    })
}

/// The `[32-bit, 64-bit]` register and immediate forms of a compare.
fn cmp_forms(op: CmpOp) -> ([RegForm; 2], [ImmForm; 2]) {
    use Op::*;
    match op {
        CmpOp::Eq => ([EqR32, EqR64], [EqI32, EqI64]),
        CmpOp::Ne => ([NeR32, NeR64], [NeI32, NeI64]),
        CmpOp::LtS => ([LtSR32, LtSR64], [LtSI32, LtSI64]),
        CmpOp::LtU => ([LtUR32, LtUR64], [LtUI32, LtUI64]),
        CmpOp::GtS => ([GtSR32, GtSR64], [GtSI32, GtSI64]),
        CmpOp::GtU => ([GtUR32, GtUR64], [GtUI32, GtUI64]),
        CmpOp::LeS => ([LeSR32, LeSR64], [LeSI32, LeSI64]),
        CmpOp::LeU => ([LeUR32, LeUR64], [LeUI32, LeUI64]),
        CmpOp::GeS => ([GeSR32, GeSR64], [GeSI32, GeSI64]),
        CmpOp::GeU => ([GeUR32, GeUR64], [GeUI32, GeUI64]),
    }
}

/// The form of `forms` for `width`.
fn at_width<T: Copy>(width: Width, forms: [T; 2]) -> T {
    match width {
        Width::W32 => forms[0],
        Width::W64 => forms[1],
    }
}

/// The specialized variant of a load, if its shape has one. A shape is the
/// access width and what [`crate::ops::extend_loaded`] does with the bytes,
/// so shapes that extend alike share a variant.
fn load(dst: AnyReg, addr: Reg, offset: u32, width: u32, signed: bool, dst_width: Width) -> Option<Op> {
    use Width::{W32, W64};
    Some(match (dst, width, signed, dst_width) {
        (AnyReg::Gpr(dst), 1, false, _) => Op::Load8U { dst, addr, offset },
        (AnyReg::Gpr(dst), 1, true, W32) => Op::Load8S32 { dst, addr, offset },
        (AnyReg::Gpr(dst), 1, true, W64) => Op::Load8S64 { dst, addr, offset },
        (AnyReg::Gpr(dst), 2, false, _) => Op::Load16U { dst, addr, offset },
        (AnyReg::Gpr(dst), 2, true, W32) => Op::Load16S32 { dst, addr, offset },
        (AnyReg::Gpr(dst), 2, true, W64) => Op::Load16S64 { dst, addr, offset },
        (AnyReg::Gpr(dst), 4, false, _) | (AnyReg::Gpr(dst), 4, true, W32) => {
            Op::Load32U { dst, addr, offset }
        }
        (AnyReg::Gpr(dst), 4, true, W64) => Op::Load32S64 { dst, addr, offset },
        (AnyReg::Gpr(dst), 8, _, W64) => Op::Load64 { dst, addr, offset },
        (AnyReg::Fpr(dst), 4, false, _) | (AnyReg::Fpr(dst), 4, true, W32) => {
            Op::FLoad32 { dst, addr, offset }
        }
        (AnyReg::Fpr(dst), 8, _, W64) => Op::FLoad64 { dst, addr, offset },
        _ => return None,
    })
}

/// The specialized variant of a store, if its width has one.
fn store(src: AnyReg, addr: Reg, offset: u32, width: u32) -> Option<Op> {
    Some(match (src, width) {
        (AnyReg::Gpr(src), 1) => Op::Store8 { src, addr, offset },
        (AnyReg::Gpr(src), 2) => Op::Store16 { src, addr, offset },
        (AnyReg::Gpr(src), 4) => Op::Store32 { src, addr, offset },
        (AnyReg::Gpr(src), 8) => Op::Store64 { src, addr, offset },
        (AnyReg::Fpr(src), 4) => Op::FStore32 { src, addr, offset },
        (AnyReg::Fpr(src), 8) => Op::FStore64 { src, addr, offset },
        _ => return None,
    })
}

/// Translates every instruction of `code`, in order, then [`fuse`]s groups.
///
/// # Panics
///
/// Panics if a `Jump` or `BrIf` names a label the buffer never bound, as
/// executing it would (the assembler refuses to finish such a buffer).
pub(crate) fn translate(code: &CodeBuffer) -> Box<[Op]> {
    let pc = |label| code.target(label) as u32;
    let mut ops: Vec<Op> = code
        .insts()
        .iter()
        .map(|&inst| match inst {
            MachInst::Alu { op, width, dst, a, b } => match alu_forms(op) {
                Some((reg, _)) => at_width(width, reg)(dst, a, b),
                None => Op::Div { op, width, dst, a, b },
            },
            MachInst::AluImm { op, width, dst, a, imm } => match alu_forms(op) {
                Some((_, with_imm)) => at_width(width, with_imm)(dst, a, imm),
                None => Op::DivImm { op, width, dst, a, imm },
            },
            MachInst::Cmp { op, width, dst, a, b } => at_width(width, cmp_forms(op).0)(dst, a, b),
            MachInst::CmpImm { op, width, dst, a, imm } => {
                at_width(width, cmp_forms(op).1)(dst, a, imm)
            }
            MachInst::MovImm { dst, imm } => Op::MovImm { dst, imm },
            MachInst::FMovImm { dst, bits } => Op::FMovImm { dst, bits },
            MachInst::Mov { dst, src } => Op::Mov { dst, src },
            MachInst::FMov { dst, src } => Op::FMov { dst, src },
            MachInst::LoadSlot { dst: AnyReg::Gpr(dst), slot } => Op::LoadSlot { dst, slot },
            MachInst::LoadSlot { dst: AnyReg::Fpr(dst), slot } => Op::FLoadSlot { dst, slot },
            MachInst::StoreSlot { slot, src: AnyReg::Gpr(src) } => Op::StoreSlot { slot, src },
            MachInst::StoreSlot { slot, src: AnyReg::Fpr(src) } => Op::FStoreSlot { slot, src },
            MachInst::StoreSlotImm { slot, imm } => Op::StoreSlotImm { slot, imm },
            MachInst::StoreTag { slot, tag } => Op::StoreTag { slot, tag },
            MachInst::GlobalGet { dst: AnyReg::Gpr(dst), index } => Op::GlobalGet { dst, index },
            MachInst::GlobalGet { dst: AnyReg::Fpr(dst), index } => Op::FGlobalGet { dst, index },
            MachInst::GlobalSet { index, src: AnyReg::Gpr(src) } => Op::GlobalSet { index, src },
            MachInst::GlobalSet { index, src: AnyReg::Fpr(src) } => Op::FGlobalSet { index, src },
            MachInst::MemLoad { dst, addr, offset, width, signed, dst_width } => {
                load(dst, addr, offset, width, signed, dst_width)
                    .unwrap_or(Op::MemLoad { dst, addr, offset, width, signed, dst_width })
            }
            MachInst::MemStore { src, addr, offset, width } => store(src, addr, offset, width)
                .unwrap_or(Op::MemStore { src, addr, offset, width }),
            MachInst::Jump { target } => Op::Jump { target: pc(target) },
            MachInst::BrIf { cond, target, negate: false } => Op::BrNz { cond, target: pc(target) },
            MachInst::BrIf { cond, target, negate: true } => Op::BrZ { cond, target: pc(target) },
            MachInst::Nop => Op::Nop,
            MachInst::Unop { op, width, dst, src } => Op::Unop { op, width, dst, src },
            MachInst::FAlu { op, width, dst, a, b } => Op::FAlu { op, width, dst, a, b },
            MachInst::FUnop { op, width, dst, src } => Op::FUnop { op, width, dst, src },
            MachInst::FCmp { op, width, dst, a, b } => Op::FCmp { op, width, dst, a, b },
            MachInst::Convert { op, dst, src } => Op::Convert { op, dst, src },
            MachInst::Select { dst, cond, if_true, if_false } => {
                Op::Select { dst, cond, if_true, if_false }
            }
            MachInst::FSelect { dst, cond, if_true, if_false } => {
                Op::FSelect { dst, cond, if_true, if_false }
            }
            MachInst::MemorySize { dst } => Op::MemorySize { dst },
            MachInst::MemoryGrow { dst, delta } => Op::MemoryGrow { dst, delta },
            MachInst::BrTable { index, targets, default } => {
                Op::BrTable { index, targets, default }
            }
            MachInst::Call { func_index } => Op::Call { func_index },
            MachInst::CallIndirect { type_index, table_index, index } => {
                Op::CallIndirect { type_index, table_index, index }
            }
            MachInst::ProbeRuntime { .. } => Op::ProbeRuntime,
            MachInst::ProbeDirect { .. } => Op::ProbeDirect,
            MachInst::ProbeCounter { counter_id } => Op::ProbeCounter { counter_id },
            MachInst::ProbeTosValue { src, .. } => Op::ProbeTosValue { src },
            MachInst::FuelCheck { amount } => Op::FuelCheck { amount },
            MachInst::EpochCheck => Op::EpochCheck,
            MachInst::Trap { code } => Op::Trap { code },
            MachInst::Return => Op::Return,
        })
        .collect();
    fuse(&mut ops, code.label_targets());
    ops.into_boxed_slice()
}

/// Replaces, left to right, each group of adjacent ops that [`fused`]
/// knows with its fused op at the first one's index, trying three ops before
/// two. No later member of a group is a label target, where execution may
/// enter. The later ops stay where they are, so every index keeps its
/// meaning; a chain groups greedily, so four `StoreSlot`s and a `Jump` become
/// a pair, its kept second op, a triple and its two kept ops.
fn fuse(ops: &mut [Op], label_targets: &[u32]) {
    let mut targeted = vec![false; ops.len() + 1];
    for &target in label_targets {
        targeted[target as usize] = true;
    }
    let mut i = 0;
    while i < ops.len() {
        // The op at `i` and the next ones up to a label target, at most three.
        let open = 1 + (i + 1..ops.len().min(i + 3)).take_while(|&k| !targeted[k]).count();
        match fused(&ops[i..i + open]) {
            Some((op, len)) => {
                ops[i] = op;
                i += len;
            }
            None => i += 1,
        }
    }
}

/// An immediate kept in a fused op's 32 bits. Only a 32-bit operation's
/// immediate or a 64-bit rotate's count is kept so: the first never reads its
/// high half and the second reads its count modulo 64, so the value the
/// evaluator sees after `imm as u64` is unchanged.
fn imm32(imm: i64) -> i32 {
    imm as i32
}

/// The op that retires the first three of `ops`, or failing that the first
/// two, and how many it retires, if they are one of the groups commonest in
/// the code the tiers emit (DESIGN.md, "Fused groups").
///
/// No group calls, probes, traps by design, returns or dispatches through a
/// table, so the pc after a member is never one the engine resumes at. A
/// meter check may lead a group and only lead it: its OSR exit resumes at its
/// own pc, which is the group's index, before any fuel is charged, and its
/// traps report that pc, so a group led by one exits exactly as the check
/// alone does.
fn fused(ops: &[Op]) -> Option<(Op, usize)> {
    use Op::*;
    let triple = match *ops {
        [AddR32(dst, a, b), XorR32(dst2, a2, b2), RotlI32(dst3, a3, imm3), ..] => {
            AddR32XorR32RotlI32 { dst, a, b, dst2, a2, b2, dst3, a3, imm3: imm32(imm3) }
        }
        [StoreSlot { slot, src }, StoreSlot { slot: slot2, src: src2 }, Jump { target: target3 }, ..] => {
            StoreSlot2Jump { slot, src, slot2, src2, target3 }
        }
        [LoadSlot { dst, slot }, LoadSlot { dst: dst2, slot: slot2 }, GeUR32(dst3, a3, b3), ..] => {
            LoadSlot2GeUR32 { dst, slot, dst2, slot2, dst3, a3, b3 }
        }
        [BrNz { cond, target }, LoadSlot { dst: dst2, slot: slot2 }, LoadSlot { dst: dst3, slot: slot3 }, ..] => {
            BrNzLoadSlot2 { cond, target, dst2, slot2, dst3, slot3 }
        }
        [XorR32(dst, a, b), MulI32(dst2, a2, imm2), RotlI32(dst3, a3, imm3), ..] => {
            XorR32MulI32RotlI32 { dst, a, b, dst2, a2, imm2: imm32(imm2), dst3, a3, imm3: imm32(imm3) }
        }
        [SubR32(dst, a, b), AddI32(dst2, a2, imm2), Jump { target: target3 }, ..] => {
            SubR32AddI32Jump { dst, a, b, dst2, a2, imm2: imm32(imm2), target3 }
        }
        [XorR64(dst, a, b), RotlI64(dst2, a2, imm2), MulR64(dst3, a3, b3), ..] => {
            XorR64RotlI64MulR64 { dst, a, b, dst2, a2, imm2: imm32(imm2), dst3, a3, b3 }
        }
        [FuelCheck { amount }, LoadSlot { dst: dst2, slot: slot2 }, LoadSlot { dst: dst3, slot: slot3 }, ..]
            if u32::try_from(amount).is_ok() =>
        {
            FuelCheckLoadSlot2 { amount: amount as u32, dst2, slot2, dst3, slot3 }
        }
        _ => return fused_pair(ops).map(|op| (op, 2)),
    };
    Some((triple, 3))
}

/// The op that retires the first two of `ops`, if they are one of the pairs
/// [`fused`] knows.
fn fused_pair(ops: &[Op]) -> Option<Op> {
    use Op::*;
    Some(match *ops {
        [StoreSlot { slot, src }, StoreSlot { slot: slot2, src: src2 }, ..] => {
            StoreSlot2 { slot, src, slot2, src2 }
        }
        [LoadSlot { dst, slot }, LoadSlot { dst: dst2, slot: slot2 }, ..] => {
            LoadSlot2 { dst, slot, dst2, slot2 }
        }
        [AddI32(dst, a, imm), StoreSlot { slot: slot2, src: src2 }, ..] => {
            AddI32StoreSlot { dst, a, imm: imm32(imm), slot2, src2 }
        }
        [XorR32(dst, a, b), RotlI32(dst2, a2, imm2), ..] => {
            XorR32RotlI32 { dst, a, b, dst2, a2, imm2: imm32(imm2) }
        }
        [MulI32(dst, a, imm), Load32U { dst: dst2, addr: addr2, offset: offset2 }, ..] => {
            MulI32Load32U { dst, a, imm: imm32(imm), dst2, addr2, offset2 }
        }
        [GeUR32(dst, a, b), BrNz { cond: cond2, target: target2 }, ..] => {
            GeUR32BrNz { dst, a, b, cond2, target2 }
        }
        [GeUI32(dst, a, imm), BrNz { cond: cond2, target: target2 }, ..] => {
            GeUI32BrNz { dst, a, imm: imm32(imm), cond2, target2 }
        }
        [StoreSlot { slot, src }, Jump { target: target2 }, ..] => StoreSlotJump { slot, src, target2 },
        [AddI32(dst, a, imm), Jump { target: target2 }, ..] => {
            AddI32Jump { dst, a, imm: imm32(imm), target2 }
        }
        [AddR64(dst, a, b), RotlI64(dst2, a2, imm2), ..] => {
            AddR64RotlI64 { dst, a, b, dst2, a2, imm2: imm32(imm2) }
        }
        [MovImm { dst, imm }, XorR64(dst2, a2, b2), ..] => MovImmXorR64 { dst, imm, dst2, a2, b2 },
        [AddR32(dst, a, b), LoadSlot { dst: dst2, slot: slot2 }, ..] => {
            AddR32LoadSlot { dst, a, b, dst2, slot2 }
        }
        _ => return None,
    })
}

// The list of fused groups, shared with the simulator's oracle tests.
#[cfg(test)]
#[path = "../tests/fused/mod.rs"]
mod fused_groups;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::masm::Masm;

    fn translated(insts: &[MachInst]) -> Vec<Op> {
        let mut asm = Assembler::new();
        let end = asm.new_label();
        for &inst in insts {
            asm.emit(inst);
        }
        asm.bind(end);
        translate(&asm.finish()).into_vec()
    }

    #[test]
    fn one_op_per_instruction_with_labels_resolved_to_pcs() {
        let (r, end) = (Reg(1), Label(0));
        let ops = translated(&[
            MachInst::Nop,
            MachInst::BrIf { cond: r, target: end, negate: false },
            MachInst::BrIf { cond: r, target: end, negate: true },
            MachInst::Jump { target: end },
        ]);
        assert_eq!(
            ops,
            [
                Op::Nop,
                Op::BrNz { cond: r, target: 4 },
                Op::BrZ { cond: r, target: 4 },
                Op::Jump { target: 4 },
            ]
        );
    }

    #[test]
    fn every_integer_operation_gets_its_own_variant_per_width_and_form() {
        let (d, a, b) = (Reg(1), Reg(2), Reg(3));
        let mut forms = 0;
        let mut distinct = std::collections::HashSet::new();
        for width in [Width::W32, Width::W64] {
            for op in AluOp::ALL {
                let ops = translated(&[
                    MachInst::Alu { op, width, dst: d, a, b },
                    MachInst::AluImm { op, width, dst: d, a, imm: 5 },
                ]);
                if op.is_division() {
                    assert_eq!(ops[0], Op::Div { op, width, dst: d, a, b });
                    assert_eq!(ops[1], Op::DivImm { op, width, dst: d, a, imm: 5 });
                } else {
                    forms += 2;
                    distinct.extend(ops.iter().map(std::mem::discriminant));
                }
            }
            for op in CmpOp::ALL {
                let ops = translated(&[
                    MachInst::Cmp { op, width, dst: d, a, b },
                    MachInst::CmpImm { op, width, dst: d, a, imm: 5 },
                ]);
                forms += 2;
                distinct.extend(ops.iter().map(std::mem::discriminant));
            }
        }
        assert_eq!(forms, 2 * 2 * (11 + CmpOp::ALL.len()));
        assert_eq!(distinct.len(), forms, "two forms share a variant");
    }

    #[test]
    fn every_emitted_access_shape_is_specialized() {
        let (r, f, addr) = (AnyReg::Gpr(Reg(1)), AnyReg::Fpr(FReg(1)), Reg(2));
        let (w32, w64) = (Width::W32, Width::W64);
        // What the two compilers emit for the Wasm loads and stores.
        for (dst, width, signed, dst_width) in [
            (r, 4, false, w32),
            (r, 8, false, w64),
            (f, 4, false, w32),
            (f, 8, false, w64),
            (r, 1, true, w32),
            (r, 1, false, w32),
            (r, 2, true, w32),
            (r, 2, false, w32),
            (r, 1, true, w64),
            (r, 1, false, w64),
            (r, 2, true, w64),
            (r, 2, false, w64),
            (r, 4, true, w64),
            (r, 4, false, w64),
        ] {
            let shape = format!("{dst} {width} {signed} {dst_width:?}");
            assert!(load(dst, addr, 0, width, signed, dst_width).is_some(), "{shape}");
        }
        for (src, width) in [(r, 1), (r, 2), (r, 4), (r, 8), (f, 4), (f, 8)] {
            assert!(store(src, addr, 0, width).is_some(), "{src} {width}");
        }
        // Anything else runs as emitted.
        let odd = MachInst::MemLoad { dst: f, addr, offset: 0, width: 1, signed: true, dst_width: w64 };
        assert!(matches!(translated(&[odd])[0], Op::MemLoad { .. }));
    }

    /// Translates `insts`, binding a label before each index in `labels`.
    fn translated_with_labels(insts: &[MachInst], labels: &[usize]) -> Vec<Op> {
        let mut asm = Assembler::new();
        let end = asm.new_label();
        for (i, &inst) in insts.iter().enumerate() {
            if labels.contains(&i) {
                asm.new_bound_label();
            }
            asm.emit(inst);
        }
        asm.bind(end);
        translate(&asm.finish()).into_vec()
    }

    fn op(inst: MachInst) -> Op {
        translated(&[inst])[0]
    }

    fn store_slot(slot: u32) -> MachInst {
        MachInst::StoreSlot { slot, src: AnyReg::Gpr(Reg(slot as u8)) }
    }

    fn load_slot(slot: u32) -> MachInst {
        MachInst::LoadSlot { dst: AnyReg::Gpr(Reg(slot as u8)), slot }
    }

    fn fuel(amount: u64) -> MachInst {
        MachInst::FuelCheck { amount }
    }

    /// One ARX round: `r3 = r1 + r2; r1 = r3 ^ r2; r2 = rotl(r1, 7)`.
    fn arx() -> [MachInst; 3] {
        let (r1, r2, r3, w) = (Reg(1), Reg(2), Reg(3), Width::W32);
        [
            MachInst::Alu { op: AluOp::Add, width: w, dst: r3, a: r1, b: r2 },
            MachInst::Alu { op: AluOp::Xor, width: w, dst: r1, a: r3, b: r2 },
            MachInst::AluImm { op: AluOp::Rotl, width: w, dst: r2, a: r1, imm: 7 },
        ]
    }

    #[test]
    fn a_fused_op_keeps_the_later_ops_and_a_chain_groups_from_the_left() {
        let jump = MachInst::Jump { target: Label(0) };
        let ops = translated(&[store_slot(1), store_slot(2), store_slot(3), store_slot(4), jump]);
        assert_eq!(
            ops,
            [
                Op::StoreSlot2 { slot: 1, src: Reg(1), slot2: 2, src2: Reg(2) },
                Op::StoreSlot { slot: 2, src: Reg(2) },
                Op::StoreSlot2Jump { slot: 3, src: Reg(3), slot2: 4, src2: Reg(4), target3: 5 },
                Op::StoreSlot { slot: 4, src: Reg(4) },
                Op::Jump { target: 5 },
            ]
        );
    }

    #[test]
    fn triples_are_tried_first_so_two_arx_rounds_are_two_ops() {
        let round = arx();
        let ops = translated(&[round, round].concat());
        assert!(matches!(ops[0], Op::AddR32XorR32RotlI32 { .. }), "{:?}", ops[0]);
        assert!(matches!(ops[3], Op::AddR32XorR32RotlI32 { .. }), "{:?}", ops[3]);
        // The kept members are the plain ops.
        assert_eq!(ops[1..3], [op(round[1]), op(round[2])]);
        assert_eq!(ops[4..6], [op(round[1]), op(round[2])]);
    }

    #[test]
    fn a_label_on_any_later_member_blocks_the_group() {
        let round = arx();
        let plain: Vec<Op> = round.iter().map(|&inst| op(inst)).collect();
        // On the first member it blocks nothing.
        assert!(matches!(translated_with_labels(&round, &[0])[0], Op::AddR32XorR32RotlI32 { .. }));
        // On the second it leaves the first alone, and the rest may pair.
        let ops = translated_with_labels(&round, &[1]);
        assert_eq!(ops[0], plain[0]);
        assert!(matches!(ops[1], Op::XorR32RotlI32 { .. }), "{:?}", ops[1]);
        // On the third it falls back to the pair, or here to nothing.
        assert_eq!(translated_with_labels(&round, &[2]), plain);
        let jump = MachInst::Jump { target: Label(0) };
        let ops = translated_with_labels(&[store_slot(1), store_slot(2), jump], &[2]);
        assert_eq!(ops[0], Op::StoreSlot2 { slot: 1, src: Reg(1), slot2: 2, src2: Reg(2) });
        assert_eq!(ops[2], Op::Jump { target: 3 });
        let ops = translated_with_labels(&[store_slot(1), store_slot(2), jump], &[1]);
        assert_eq!(ops[0], Op::StoreSlot { slot: 1, src: Reg(1) });
        assert_eq!(ops[1], Op::StoreSlotJump { slot: 2, src: Reg(2), target2: 3 });
    }

    #[test]
    fn a_meter_check_only_leads_a_group_and_only_with_a_32_bit_amount() {
        let max = u32::MAX as u64;
        let ops = translated(&[fuel(max), load_slot(1), load_slot(2)]);
        assert_eq!(
            ops[0],
            Op::FuelCheckLoadSlot2 { amount: u32::MAX, dst2: Reg(1), slot2: 1, dst3: Reg(2), slot3: 2 }
        );
        // With one load after it, it is not a group at all.
        assert_eq!(translated(&[fuel(9), load_slot(1)])[0], Op::FuelCheck { amount: 9 });
        // An amount over 32 bits stays unfused, and the loads pair.
        let ops = translated(&[fuel(max + 1), load_slot(1), load_slot(2)]);
        assert_eq!(ops[0], Op::FuelCheck { amount: max + 1 });
        assert_eq!(ops[1], Op::LoadSlot2 { dst: Reg(1), slot: 1, dst2: Reg(2), slot2: 2 });
        // A meter check is never a later member.
        let ops = translated(&[load_slot(1), fuel(3), load_slot(2), load_slot(3)]);
        assert_eq!(ops[0], Op::LoadSlot { dst: Reg(1), slot: 1 });
        assert!(matches!(ops[1], Op::FuelCheckLoadSlot2 { .. }), "{:?}", ops[1]);
    }

    /// One instruction of every form the translation gives a variant of its
    /// own (and of some it does not), the exits included.
    fn every_form() -> Vec<MachInst> {
        use MachInst::*;
        let (r, f, w) = (Reg(1), FReg(1), Width::W64);
        let (gpr, fpr) = (AnyReg::Gpr(r), AnyReg::Fpr(f));
        let end = Label(0);
        let mut forms = vec![
            Nop,
            MovImm { dst: r, imm: 1 },
            FMovImm { dst: f, bits: 0 },
            Mov { dst: r, src: r },
            FMov { dst: f, src: f },
            StoreSlotImm { slot: 1, imm: 1 },
            StoreTag { slot: 1, tag: ValueTag::I32 },
            Jump { target: end },
            BrIf { cond: r, target: end, negate: false },
            BrIf { cond: r, target: end, negate: true },
            Unop { op: UnOp::Popcnt, width: w, dst: r, src: r },
            FAlu { op: FAluOp::Add, width: w, dst: f, a: f, b: f },
            FUnop { op: FUnOp::Neg, width: w, dst: f, src: f },
            FCmp { op: FCmpOp::Le, width: w, dst: r, a: f, b: f },
            Convert { op: ConvOp::F64ConvertI32S, dst: fpr, src: gpr },
            Select { dst: r, cond: r, if_true: r, if_false: r },
            FSelect { dst: f, cond: r, if_true: f, if_false: f },
            MemorySize { dst: r },
            MemoryGrow { dst: r, delta: r },
            FuelCheck { amount: 1 },
            Call { func_index: 0 },
            CallIndirect { type_index: 0, table_index: 0, index: r },
            ProbeRuntime { probe_id: 0 },
            ProbeDirect { probe_id: 0 },
            ProbeCounter { counter_id: 0 },
            ProbeTosValue { probe_id: 0, src: gpr },
            EpochCheck,
            BrTable { index: r, targets: LabelRange { start: 0, len: 0 }, default: end },
            Trap { code: TrapCode::Unreachable },
            Return,
        ];
        for reg in [gpr, fpr] {
            forms.extend([
                LoadSlot { dst: reg, slot: 1 },
                StoreSlot { slot: 1, src: reg },
                GlobalGet { dst: reg, index: 0 },
                GlobalSet { index: 0, src: reg },
            ]);
            for width in [1, 2, 4, 8] {
                forms.push(MemStore { src: reg, addr: r, offset: 0, width });
                for (signed, dst_width) in [(false, Width::W32), (false, w), (true, Width::W32), (true, w)] {
                    forms.push(MemLoad { dst: reg, addr: r, offset: 0, width, signed, dst_width });
                }
            }
        }
        for width in [Width::W32, w] {
            for op in AluOp::ALL {
                forms.extend([Alu { op, width, dst: r, a: r, b: r }, AluImm { op, width, dst: r, a: r, imm: 3 }]);
            }
            for op in CmpOp::ALL {
                forms.extend([Cmp { op, width, dst: r, a: r, b: r }, CmpImm { op, width, dst: r, a: r, imm: 3 }]);
            }
        }
        forms
    }

    /// Exits to the engine, and dispatches through a table: no group holds one.
    fn is_exit(inst: &MachInst) -> bool {
        use MachInst::*;
        matches!(
            inst,
            Call { .. }
                | CallIndirect { .. }
                | ProbeRuntime { .. }
                | ProbeDirect { .. }
                | ProbeCounter { .. }
                | ProbeTosValue { .. }
                | EpochCheck
                | BrTable { .. }
                | Trap { .. }
                | Return
        )
    }

    #[test]
    fn exactly_the_listed_groups_fuse_and_none_holds_an_exit() {
        use std::collections::HashSet;
        use std::mem::discriminant;
        let groups = fused_groups::groups();
        let listed: HashSet<Vec<_>> =
            groups.iter().map(|group| group.iter().map(|&inst| discriminant(&op(inst))).collect()).collect();
        assert_eq!(listed.len(), groups.len(), "a shape is listed twice");
        // One instruction per variant, from every form and every listed member.
        let mut forms: Vec<(MachInst, Op)> = Vec::new();
        for inst in every_form().into_iter().chain(groups.iter().flatten().copied()) {
            let op = op(inst);
            if !forms.iter().any(|(_, seen)| discriminant(seen) == discriminant(&op)) {
                forms.push((inst, op));
            }
        }
        let mut fusing = HashSet::new();
        let mut check = |members: &[(MachInst, Op)]| {
            let ops: Vec<Op> = members.iter().map(|&(_, op)| op).collect();
            if fused(&ops).is_some_and(|(_, len)| len == ops.len()) {
                let insts: Vec<String> = members.iter().map(|(inst, _)| inst.to_string()).collect();
                assert!(!members.iter().any(|(inst, _)| is_exit(inst)), "{insts:?}");
                let meter = |(inst, _): &(MachInst, Op)| matches!(inst, MachInst::FuelCheck { .. });
                assert!(!members[1..].iter().any(meter), "a meter check is a later member: {insts:?}");
                fusing.insert(ops.iter().map(discriminant).collect::<Vec<_>>());
            }
        };
        for &a in &forms {
            for &b in &forms {
                check(&[a, b]);
                for &c in &forms {
                    check(&[a, b, c]);
                }
            }
        }
        assert_eq!(fusing, listed, "the fused groups and the list differ");
    }
}
