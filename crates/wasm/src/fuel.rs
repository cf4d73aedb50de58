//! Deterministic fuel accounting: the per-opcode cost table and the static
//! per-function [`FuelPlan`].
//!
//! Fuel is the engine's unit of metered work. Every execution tier — the
//! in-place interpreter, the single-pass baseline compiler, and the SSA
//! optimizing tier — consumes fuel according to the *same* plan computed here,
//! so a fuel-limited run traps at the identical bytecode offset with the
//! identical fuel count no matter which tier (or mix of tiers) executed it.
//! The plan is computed once per function, during validation: the rules below
//! are one per-instruction step (`PlanBuilder::step`) that [`crate::validate`]
//! calls from its own walk of the body, and no tier walks the body again for it.
//! The step sees only what the decoder's `next` yields of an instruction —
//! its opcode, its offset and where its immediates end.
//!
//! # The plan
//!
//! A function body is partitioned into *charge regions*: maximal straight-line
//! runs of instructions that are always executed together. A region's total
//! cost is charged up front at the region's first bytecode offset. Region
//! boundaries are placed so that every possible entry point into the body —
//! function entry, loop back-edge targets, `else` arms, `end` join points,
//! fall-through past a conditional branch, and resumption after a call — is
//! the start of a region. That makes the charge schedule independent of which
//! paths execute: each tier simply charges the region cost whenever control
//! reaches the region's start offset.
//!
//! Concretely, a region is flushed:
//!
//! * **before** `loop`, `else`, and `end` tokens (their offsets are branch
//!   anchors), and
//! * **after** `loop`, `if`, `else`, `end`, `br`, `br_if`, `br_table`,
//!   `return`, `unreachable`, `call`, and `call_indirect` (control may enter
//!   or resume right after them).
//!
//! Zero-cost regions are dropped from the plan.
//!
//! The plan also records *epoch check* offsets: the body-start offset of every
//! `loop`, i.e. the target of its back-edges. Tiers do not emit a separate
//! poll there — the epoch check is fused into the charge-site fuel check
//! (a site that is an epoch offset but charges nothing gets a zero-amount
//! check). Since every cycle through a program executes at least one branch,
//! every cycle passes a charge region's start, so the fused checks (plus the
//! engine's uniform check at call entry) observe preemption requests on every
//! trip around any loop.

use crate::opcode::Opcode;
use crate::reader::{BytecodeReader, ReadError};

/// The fuel cost of one opcode.
///
/// Structural tokens that never do work at runtime cost zero; calls and
/// `memory.grow` are weighted above ordinary instructions. The exact values
/// are an engine-internal contract: what matters for conformance is that all
/// tiers derive charges from this one table.
pub fn fuel_cost(op: Opcode) -> u64 {
    match op {
        // Structural tokens: block shape only, no runtime work.
        Opcode::Block | Opcode::Loop | Opcode::End | Opcode::Else | Opcode::Nop => 0,
        // Calls pay for frame setup in addition to the callee's own fuel.
        Opcode::Call => 5,
        Opcode::CallIndirect => 6,
        // Growing memory is by far the most expensive single instruction.
        Opcode::MemoryGrow => 100,
        _ => 1,
    }
}

/// One meter-check site of a [`FuelPlan`]: an offset where a charge region
/// starts, the epoch is polled, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeterSite {
    /// The bytecode offset of the site.
    pub offset: u32,
    /// True at a loop-body start, where the epoch is polled.
    pub epoch_check: bool,
    /// The fuel to charge on reaching the site; zero at a loop-body start
    /// whose region charges nothing.
    pub charge: u64,
}

/// A static fuel-charging schedule for one function body.
///
/// Built once per function — by [`crate::validate`], as it walks the body,
/// into [`FuncInfo::fuel`](crate::validate::FuncInfo::fuel) — and shared by
/// all tiers: the interpreter consults it per instruction offset, while the
/// baseline and optimizing compilers bake `fuel_check` / `epoch_check`
/// sequences into the generated code at the recorded offsets.
///
/// The sites are stored in one vector sorted by strictly increasing offset —
/// the order a forward walk discovers them in — and found by binary search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuelPlan {
    sites: Vec<MeterSite>,
}

impl FuelPlan {
    /// Computes the charge schedule for `code` (a function body's bytecode,
    /// after local declarations) on its own. The engine never calls this:
    /// validation drives the same per-instruction step from its own walk and
    /// leaves the plan in [`FuncInfo::fuel`](crate::validate::FuncInfo::fuel).
    pub fn build(code: &[u8]) -> Result<FuelPlan, ReadError> {
        let mut builder = PlanBuilder::default();
        for instr in BytecodeReader::new(code) {
            let instr = instr?;
            builder.step(instr.op, instr.offset as u32, instr.end as u32);
        }
        Ok(builder.finish(code.len() as u32))
    }

    /// The site at `offset`, appended if the last site lies before it. A
    /// forward walk only ever names the newest site or one past it, which is
    /// what keeps `sites` sorted without sorting.
    fn site_mut(&mut self, offset: u32) -> &mut MeterSite {
        let last = self.sites.last().map(|site| site.offset);
        debug_assert!(last.is_none_or(|last| last <= offset), "sites are built in offset order");
        if last != Some(offset) {
            self.sites.push(MeterSite { offset, epoch_check: false, charge: 0 });
        }
        self.sites.last_mut().expect("a site was just ensured")
    }

    /// The meter-check site at `offset`, if control reaching `offset` must
    /// charge fuel or poll the epoch: one lookup for both questions.
    #[inline]
    pub fn site_at(&self, offset: u32) -> Option<MeterSite> {
        let index = self.sites.binary_search_by_key(&offset, |site| site.offset).ok()?;
        Some(self.sites[index])
    }

    /// The fuel to charge when control reaches `offset`, if any.
    pub fn charge_at(&self, offset: u32) -> Option<u64> {
        self.site_at(offset).map(|site| site.charge).filter(|&charge| charge > 0)
    }

    /// True when `offset` is a loop-body start where the epoch is polled.
    pub fn epoch_check_at(&self, offset: u32) -> bool {
        self.site_at(offset).is_some_and(|site| site.epoch_check)
    }

    /// Number of distinct charge regions.
    pub fn num_charges(&self) -> usize {
        self.sites.iter().filter(|site| site.charge > 0).count()
    }

    /// Number of epoch poll sites.
    pub fn num_epoch_checks(&self) -> usize {
        self.sites.iter().filter(|site| site.epoch_check).count()
    }

    /// Sum of all region charges: the fuel a straight-line execution of every
    /// region exactly once would consume.
    pub fn total_cost(&self) -> u64 {
        self.sites.iter().map(|site| site.charge).sum()
    }

    /// True when the plan charges nothing and polls nothing.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

/// A [`FuelPlan`] under construction: the sites closed so far and the charge
/// region still open. Whoever walks the body — the validator, or
/// [`FuelPlan::build`] — calls `step` once per instruction, in order.
#[derive(Debug, Default)]
pub(crate) struct PlanBuilder {
    plan: FuelPlan,
    region_start: u32,
    pending: u64,
}

impl PlanBuilder {
    /// Accounts for the instruction `op` at `offset` whose immediates end at
    /// `after`.
    pub(crate) fn step(&mut self, op: Opcode, offset: u32, after: u32) {
        // These offsets are branch anchors: close the running region so a
        // jump landing here never skips (or double-pays) a charge.
        if matches!(op, Opcode::Loop | Opcode::Else | Opcode::End) {
            self.flush(offset);
        }
        self.pending += fuel_cost(op);
        match op {
            Opcode::Loop => {
                // Back-edges target the body start: poll the epoch there.
                self.flush(after);
                self.plan.site_mut(after).epoch_check = true;
            }
            Opcode::If
            | Opcode::Else
            | Opcode::End
            | Opcode::Br
            | Opcode::BrIf
            | Opcode::BrTable
            | Opcode::Return
            | Opcode::Unreachable
            | Opcode::Call
            | Opcode::CallIndirect => self.flush(after),
            _ => {}
        }
    }

    /// Closes the last region at `end`, the length of the body.
    pub(crate) fn finish(mut self, end: u32) -> FuelPlan {
        self.flush(end);
        self.plan
    }

    fn flush(&mut self, next: u32) {
        if self.pending > 0 {
            self.plan.site_mut(self.region_start).charge += self.pending;
        }
        self.pending = 0;
        self.region_start = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CodeBuilder;
    use crate::types::ValueType;

    #[test]
    fn structural_opcodes_are_free() {
        for op in [
            Opcode::Block,
            Opcode::Loop,
            Opcode::End,
            Opcode::Else,
            Opcode::Nop,
        ] {
            assert_eq!(fuel_cost(op), 0, "{op:?} should be free");
        }
        assert!(fuel_cost(Opcode::Call) > fuel_cost(Opcode::I32Add));
        assert!(fuel_cost(Opcode::MemoryGrow) > fuel_cost(Opcode::Call));
    }

    #[test]
    fn straight_line_body_is_one_region_at_offset_zero() {
        // i32.const 1 ; i32.const 2 ; i32.add ; end
        let mut c = CodeBuilder::new();
        c.i32_const(1).i32_const(2).op(Opcode::I32Add);
        let code = c.finish();
        let plan = FuelPlan::build(&code).unwrap();
        assert_eq!(plan.num_charges(), 1);
        // const + const + add = 3; the trailing `end` is free.
        assert_eq!(plan.charge_at(0), Some(3));
        assert_eq!(plan.num_epoch_checks(), 0);
        assert_eq!(plan.total_cost(), 3);
    }

    #[test]
    fn loop_body_start_is_a_charge_region_and_epoch_site() {
        // loop ; br 0 ; end ; end
        let code = vec![
            Opcode::Loop.to_byte(),
            0x40, // empty block type
            Opcode::Br.to_byte(),
            0x00,
            Opcode::End.to_byte(),
            Opcode::End.to_byte(),
        ];
        let plan = FuelPlan::build(&code).unwrap();
        // Loop body starts at offset 2 (after the opcode and block type).
        assert!(plan.epoch_check_at(2));
        assert_eq!(plan.charge_at(2), Some(1), "br costs 1, charged at body start");
        assert_eq!(plan.num_epoch_checks(), 1);
    }

    #[test]
    fn if_arms_charge_independently() {
        // local.get 0 ; if ; i32.const 1 ; drop ; else ; i32.const 2 ; drop ; end ; end
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .if_(crate::types::BlockType::Empty)
            .i32_const(1)
            .drop_()
            .else_()
            .i32_const(2)
            .drop_()
            .end();
        let code = c.finish();
        let plan = FuelPlan::build(&code).unwrap();
        // Region 1: local.get + if (charged before the branch decides).
        assert_eq!(plan.charge_at(0), Some(2));
        // Then-arm and else-arm each form their own two-cost region.
        let arms: Vec<u64> = plan
            .sites
            .iter()
            .filter(|site| site.offset != 0)
            .map(|site| site.charge)
            .collect();
        assert_eq!(arms.len(), 2);
        assert!(arms.iter().all(|&c| c == 2));
    }

    #[test]
    fn region_resumes_after_calls() {
        // call 0 ; i32.const 7 ; drop ; end
        let mut c = CodeBuilder::new();
        c.call(0).i32_const(7).drop_();
        let code = c.finish();
        let plan = FuelPlan::build(&code).unwrap();
        assert_eq!(plan.num_charges(), 2);
        assert_eq!(plan.charge_at(0), Some(fuel_cost(Opcode::Call)));
        // The post-call region starts right after the call's immediate.
        assert_eq!(plan.total_cost(), fuel_cost(Opcode::Call) + 2);
    }

    #[test]
    fn dead_code_after_br_gets_its_own_region() {
        // block ; br 0 ; i32.const 9 ; drop ; end ; end
        let mut c = CodeBuilder::new();
        c.block(crate::types::BlockType::Empty);
        c.br(0).i32_const(9).drop_().end();
        let code = c.finish();
        let plan = FuelPlan::build(&code).unwrap();
        // The entry region ends right after the br (block 0 + br 1 = 1).
        assert_eq!(plan.charge_at(0), Some(1));
        // The dead region (const + drop, starting at offset 4) exists in the
        // plan but no tier ever reaches its start offset, so it is never
        // charged at runtime.
        assert_eq!(plan.charge_at(4), Some(2));
        assert_eq!(plan.total_cost(), 3);
    }

    #[test]
    fn sites_are_sorted_and_merge_a_poll_with_its_charge() {
        // loop ; loop ; i32.const 1 ; drop ; br 0 ; end ; end ; end
        let mut c = CodeBuilder::new();
        c.loop_(crate::types::BlockType::Empty)
            .loop_(crate::types::BlockType::Empty)
            .i32_const(1)
            .drop_()
            .br(0)
            .end()
            .end();
        let plan = FuelPlan::build(&c.finish()).unwrap();
        assert!(plan.sites.windows(2).all(|w| w[0].offset < w[1].offset), "{:?}", plan.sites);
        // The outer body start (offset 2) only polls; the inner one (offset
        // 4) polls and charges const + drop + br in the same site.
        assert_eq!(plan.site_at(2), Some(MeterSite { offset: 2, epoch_check: true, charge: 0 }));
        assert_eq!(plan.charge_at(2), None);
        assert_eq!(plan.site_at(4), Some(MeterSite { offset: 4, epoch_check: true, charge: 3 }));
        assert_eq!(plan.site_at(3), None);
        assert_eq!((plan.num_charges(), plan.num_epoch_checks()), (1, 2));
    }

    #[test]
    fn empty_and_trivial_bodies() {
        let plan = FuelPlan::build(&[]).unwrap();
        assert!(plan.is_empty());
        let plan = FuelPlan::build(&[Opcode::End.to_byte()]).unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan, FuelPlan::default());
    }

    #[test]
    fn plan_offsets_align_with_reader_walk() {
        // Every charge offset must be a valid instruction boundary.
        let mut c = CodeBuilder::new();
        c.local_get(0);
        c.if_(crate::types::BlockType::Empty);
        c.i32_const(1).drop_();
        c.end();
        c.block(crate::types::BlockType::Value(ValueType::I32));
        c.i32_const(3);
        c.end();
        c.drop_();
        let code = c.finish();
        let plan = FuelPlan::build(&code).unwrap();
        let mut boundaries: std::collections::BTreeSet<u32> =
            BytecodeReader::new(&code).map(|instr| instr.unwrap().offset as u32).collect();
        boundaries.insert(code.len() as u32);
        for site in &plan.sites {
            assert!(boundaries.contains(&site.offset), "site at non-boundary {}", site.offset);
        }
    }
}
