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
//! Then [`fuse`] replaces the commonest adjacent pairs with one op that
//! retires both (a *superinstruction*). The fused op takes the first
//! instruction's index and the op at the next index stays as translated, so
//! the index space is unchanged. Execution enters a buffer only at pc 0,
//! after a call or probe (neither of which fuses) and at label targets, and
//! no pair fuses into a label target, so no entry lands on the kept op.
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

    // Fused pairs (see [`fuse`]): each retires the instruction at its own
    // index and then the next one, whose fields carry a `2`. An immediate
    // is a 32-bit operation's, and those read only its low 32 bits, so it
    // is kept as an `i32`.
    StoreSlot2 { slot: u32, src: Reg, slot2: u32, src2: Reg },
    LoadSlot2 { dst: Reg, slot: u32, dst2: Reg, slot2: u32 },
    Mov2 { dst: Reg, src: Reg, dst2: Reg, src2: Reg },
    AddI32StoreSlot { dst: Reg, a: Reg, imm: i32, slot2: u32, src2: Reg },
    AddI32Mov { dst: Reg, a: Reg, imm: i32, dst2: Reg, src2: Reg },
    XorR32RotlI32 { dst: Reg, a: Reg, b: Reg, dst2: Reg, a2: Reg, imm2: i32 },
    MulI32Load32U { dst: Reg, a: Reg, imm: i32, dst2: Reg, addr2: Reg, offset2: u32 },
    GeUR32BrNz { dst: Reg, a: Reg, b: Reg, cond2: Reg, target2: u32 },
    GeUI32BrNz { dst: Reg, a: Reg, imm: i32, cond2: Reg, target2: u32 },
    StoreSlotJump { slot: u32, src: Reg, target2: u32 },
    MovJump { dst: Reg, src: Reg, target2: u32 },
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

/// Translates every instruction of `code`, in order, then [`fuse`]s pairs.
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

/// Replaces, left to right, each pair of adjacent ops that [`fused`] knows
/// with its fused op at the first one's index, unless the second op is a
/// label target, where execution may enter. The second op stays where it
/// is, so every index keeps its meaning; a chain pairs greedily, so three
/// `StoreSlot`s become a fused op, the kept second op and a plain third.
fn fuse(ops: &mut [Op], label_targets: &[u32]) {
    let mut targeted = vec![false; ops.len() + 1];
    for &target in label_targets {
        targeted[target as usize] = true;
    }
    let mut i = 0;
    while i + 1 < ops.len() {
        match fused(ops[i], ops[i + 1]).filter(|_| !targeted[i + 1]) {
            Some(op) => {
                ops[i] = op;
                i += 2;
            }
            None => i += 1,
        }
    }
}

/// The op that retires `first` and then `second`, if the pair is one of the
/// commonest in the code both compilers emit (DESIGN.md, "Fused pairs").
/// None of them calls, probes, meters, traps by design or returns, so no
/// pc the engine resumes at falls inside one.
fn fused(first: Op, second: Op) -> Option<Op> {
    use Op::*;
    // A 32-bit operation's immediate; its high half is never read.
    let imm32 = |imm: i64| imm as i32;
    Some(match (first, second) {
        (StoreSlot { slot, src }, StoreSlot { slot: slot2, src: src2 }) => {
            StoreSlot2 { slot, src, slot2, src2 }
        }
        (LoadSlot { dst, slot }, LoadSlot { dst: dst2, slot: slot2 }) => {
            LoadSlot2 { dst, slot, dst2, slot2 }
        }
        (Mov { dst, src }, Mov { dst: dst2, src: src2 }) => Mov2 { dst, src, dst2, src2 },
        (AddI32(dst, a, imm), StoreSlot { slot: slot2, src: src2 }) => {
            AddI32StoreSlot { dst, a, imm: imm32(imm), slot2, src2 }
        }
        (AddI32(dst, a, imm), Mov { dst: dst2, src: src2 }) => {
            AddI32Mov { dst, a, imm: imm32(imm), dst2, src2 }
        }
        (XorR32(dst, a, b), RotlI32(dst2, a2, imm2)) => {
            XorR32RotlI32 { dst, a, b, dst2, a2, imm2: imm32(imm2) }
        }
        (MulI32(dst, a, imm), Load32U { dst: dst2, addr: addr2, offset: offset2 }) => {
            MulI32Load32U { dst, a, imm: imm32(imm), dst2, addr2, offset2 }
        }
        (GeUR32(dst, a, b), BrNz { cond: cond2, target: target2 }) => {
            GeUR32BrNz { dst, a, b, cond2, target2 }
        }
        (GeUI32(dst, a, imm), BrNz { cond: cond2, target: target2 }) => {
            GeUI32BrNz { dst, a, imm: imm32(imm), cond2, target2 }
        }
        (StoreSlot { slot, src }, Jump { target: target2 }) => StoreSlotJump { slot, src, target2 },
        (Mov { dst, src }, Jump { target: target2 }) => MovJump { dst, src, target2 },
        _ => return None,
    })
}

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

    fn store_slot(slot: u32) -> MachInst {
        MachInst::StoreSlot { slot, src: AnyReg::Gpr(Reg(slot as u8)) }
    }

    #[test]
    fn no_pair_fuses_into_a_label_target() {
        let mut asm = Assembler::new();
        asm.emit(store_slot(1));
        asm.new_bound_label();
        asm.emit(store_slot(2));
        asm.emit(store_slot(3));
        let ops = translate(&asm.finish());
        assert_eq!(
            ops[..],
            [
                Op::StoreSlot { slot: 1, src: Reg(1) },
                Op::StoreSlot2 { slot: 2, src: Reg(2), slot2: 3, src2: Reg(3) },
                Op::StoreSlot { slot: 3, src: Reg(3) },
            ]
        );
    }

    #[test]
    fn a_fused_op_keeps_the_second_op_and_a_chain_pairs_from_the_left() {
        let ops = translated(&[store_slot(1), store_slot(2), store_slot(3)]);
        assert_eq!(
            ops,
            [
                Op::StoreSlot2 { slot: 1, src: Reg(1), slot2: 2, src2: Reg(2) },
                Op::StoreSlot { slot: 2, src: Reg(2) },
                Op::StoreSlot { slot: 3, src: Reg(3) },
            ]
        );
    }

    #[test]
    fn no_pair_includes_an_exit_or_a_meter() {
        let (r, any) = (Reg(1), AnyReg::Gpr(Reg(1)));
        let w32 = Width::W32;
        // The halves of every fused pair.
        let halves = [
            store_slot(1),
            MachInst::LoadSlot { dst: any, slot: 1 },
            MachInst::Mov { dst: r, src: Reg(2) },
            MachInst::AluImm { op: AluOp::Add, width: w32, dst: r, a: r, imm: 1 },
            MachInst::Alu { op: AluOp::Xor, width: w32, dst: r, a: r, b: r },
            MachInst::AluImm { op: AluOp::Rotl, width: w32, dst: r, a: r, imm: 7 },
            MachInst::AluImm { op: AluOp::Mul, width: w32, dst: r, a: r, imm: 4 },
            MachInst::MemLoad { dst: any, addr: r, offset: 0, width: 4, signed: false, dst_width: w32 },
            MachInst::Cmp { op: CmpOp::GeU, width: w32, dst: r, a: r, b: r },
            MachInst::CmpImm { op: CmpOp::GeU, width: w32, dst: r, a: r, imm: 9 },
            MachInst::BrIf { cond: r, target: Label(0), negate: false },
            MachInst::Jump { target: Label(0) },
        ];
        let exits = [
            MachInst::Call { func_index: 0 },
            MachInst::CallIndirect { type_index: 0, table_index: 0, index: r },
            MachInst::ProbeRuntime { probe_id: 0 },
            MachInst::ProbeDirect { probe_id: 0 },
            MachInst::ProbeCounter { counter_id: 0 },
            MachInst::ProbeTosValue { probe_id: 0, src: any },
            MachInst::FuelCheck { amount: 1 },
            MachInst::EpochCheck,
            MachInst::BrTable { index: r, targets: LabelRange { start: 0, len: 0 }, default: Label(0) },
            MachInst::Trap { code: TrapCode::Unreachable },
            MachInst::Return,
        ];
        let op = |inst| translated(&[inst])[0];
        let mut pairs = 0;
        for first in halves.iter().chain(&exits) {
            for second in halves.iter().chain(&exits) {
                let fusable = fused(op(*first), op(*second)).is_some();
                pairs += fusable as usize;
                if exits.contains(first) || exits.contains(second) {
                    assert!(!fusable, "{first}; {second}");
                }
            }
        }
        assert_eq!(pairs, 11, "every fused pair is among the halves");
    }
}
