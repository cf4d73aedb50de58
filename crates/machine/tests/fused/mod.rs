//! The one list of the instruction groups the simulator fuses into a single
//! op. `predecode`'s unit tests require exactly these shapes to fuse and no
//! other, and `cost_oracle.rs` runs each of them fused and unfused, so a
//! group missing here fails the first and an arm the list names but the
//! simulator no longer fuses fails it too.

use machine::inst::{AluOp, CmpOp, Label, MachInst, Width};
use machine::reg::Reg;

/// Where every branch of a group goes: both users bind `Label(0)` one past
/// the end of the code they build.
pub const END: Label = Label(0);

/// One representative of every fused group, triples first. A later member
/// reads what an earlier one wrote wherever it reads a register, and a
/// branch tests an operand or an earlier result, so members that ran out of
/// order or not at all leave different registers.
pub fn groups() -> Vec<Vec<MachInst>> {
    use MachInst::*;
    let (r1, r2, r3) = (Reg(1), Reg(2), Reg(3));
    let w = Width::W32;
    let alu = |op, dst, a, b| Alu { op, width: w, dst, a, b };
    let alu_imm = |op, dst, a, imm| AluImm { op, width: w, dst, a, imm };
    let alu64 = |op, dst, a, b| Alu { op, width: Width::W64, dst, a, b };
    let alu64_imm = |op, dst, a, imm| AluImm { op, width: Width::W64, dst, a, imm };
    let load_slot = |dst: Reg, slot| LoadSlot { dst: dst.into(), slot };
    let store_slot = |slot, src: Reg| StoreSlot { slot, src: src.into() };
    let ge_u = Cmp { op: CmpOp::GeU, width: w, dst: r3, a: r1, b: r2 };
    let br_nz = BrIf { cond: r3, target: END, negate: false };
    let jump = Jump { target: END };
    let fuel = FuelCheck { amount: 7 };
    vec![
        vec![alu(AluOp::Add, r3, r1, r2), alu(AluOp::Xor, r1, r3, r2), alu_imm(AluOp::Rotl, r2, r1, 7)],
        vec![alu(AluOp::Xor, r3, r1, r2), alu_imm(AluOp::Mul, r3, r3, -5), alu_imm(AluOp::Rotl, r1, r3, 13)],
        vec![alu(AluOp::Sub, r3, r1, r2), alu_imm(AluOp::Add, r1, r3, 1), jump],
        vec![alu64(AluOp::Xor, r3, r1, r2), alu64_imm(AluOp::Rotl, r1, r3, 27), alu64(AluOp::Mul, r2, r1, r3)],
        vec![store_slot(1, r1), store_slot(1, r2), jump],
        vec![load_slot(r1, 1), load_slot(r2, 2), ge_u],
        vec![BrIf { cond: r1, target: END, negate: false }, load_slot(r3, 1), load_slot(r1, 3)],
        vec![fuel, load_slot(r1, 1), load_slot(r1, 3)],
        vec![store_slot(1, r1), store_slot(2, r2)],
        vec![load_slot(r1, 1), load_slot(r2, 2)],
        vec![alu_imm(AluOp::Add, r1, r1, 1), store_slot(3, r1)],
        vec![alu(AluOp::Xor, r3, r1, r2), alu_imm(AluOp::Rotl, r3, r3, 7)],
        vec![
            alu_imm(AluOp::Mul, r3, r1, 4),
            MemLoad { dst: r2.into(), addr: r3, offset: 4, width: 4, signed: false, dst_width: w },
        ],
        vec![ge_u, br_nz],
        vec![CmpImm { op: CmpOp::GeU, width: w, dst: r3, a: r1, imm: 9 }, br_nz],
        vec![store_slot(2, r1), jump],
        vec![alu_imm(AluOp::Add, r1, r1, -1), jump],
        vec![alu64(AluOp::Add, r3, r1, r2), alu64_imm(AluOp::Rotl, r1, r3, 31)],
        vec![MovImm { dst: r3, imm: -7 }, alu64(AluOp::Xor, r1, r1, r3)],
        vec![alu(AluOp::Add, r3, r1, r2), load_slot(r1, 3)],
    ]
}
