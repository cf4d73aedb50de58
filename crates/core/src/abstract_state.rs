//! The abstract state of the single-pass compiler.
//!
//! Following the paper's Section III, the compiler abstractly interprets the
//! bytecode: every local variable and operand stack slot has an *abstract
//! value* recording where the value currently lives (its home memory slot, a
//! register, or a compile-time constant), whether its home slot in the value
//! stack is up to date, and whether its value tag has been written. Register
//! allocation is a by-product: bindings from registers to the slots they
//! cache are tracked here, and "multiple register allocation" (the `MR`
//! feature) is simply allowing one register to cache several slots.

use machine::reg::{AnyReg, FReg, Reg, NUM_FPRS, NUM_GPRS};
use wasm::types::ValueType;

/// Index of the general-purpose scratch register reserved for code
/// generation sequences (never allocated to a slot).
pub const SCRATCH_GPR: Reg = Reg(0);
/// Index of the floating-point scratch register.
pub const SCRATCH_FPR: FReg = FReg(0);

/// Where a slot's current value lives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loc {
    /// Only in its home slot in the value stack.
    Memory,
    /// In a register (possibly also in memory — see `in_memory`).
    Reg(AnyReg),
    /// A compile-time constant (raw slot bits).
    Const(u64),
}

/// The abstract value of one local or operand slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotState {
    /// The slot's static type.
    pub ty: ValueType,
    /// Where the value currently lives.
    pub loc: Loc,
    /// True if the home memory slot holds the current value.
    pub in_memory: bool,
    /// True if the value tag for this slot has been stored.
    pub tag_in_memory: bool,
}

impl SlotState {
    fn in_memory(ty: ValueType) -> SlotState {
        SlotState {
            ty,
            loc: Loc::Memory,
            in_memory: true,
            tag_in_memory: true,
        }
    }

    /// The register caching this slot, if any.
    pub fn reg(&self) -> Option<AnyReg> {
        match self.loc {
            Loc::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// The constant value of this slot, if known.
    pub fn constant(&self) -> Option<u64> {
        match self.loc {
            Loc::Const(c) => Some(c),
            _ => None,
        }
    }
}

/// The complete abstract state: locals, the abstract operand stack, and
/// register bindings.
#[derive(Debug, Clone)]
pub struct AbstractState {
    slots: Vec<SlotState>,
    num_locals: usize,
    gpr_slots: Vec<Vec<u32>>,
    fpr_slots: Vec<Vec<u32>>,
    next_gpr: usize,
    next_fpr: usize,
    multi_register: bool,
}

impl AbstractState {
    /// Creates the state at function entry: every local is in memory with its
    /// tag stored (parameters by the caller, declared locals by the
    /// prologue), and the operand stack is empty.
    pub fn new(local_types: &[ValueType], multi_register: bool) -> AbstractState {
        AbstractState {
            slots: local_types.iter().map(|&t| SlotState::in_memory(t)).collect(),
            num_locals: local_types.len(),
            gpr_slots: vec![Vec::new(); NUM_GPRS],
            fpr_slots: vec![Vec::new(); NUM_FPRS],
            next_gpr: 1,
            next_fpr: 1,
            multi_register,
        }
    }

    /// The number of local slots.
    pub fn num_locals(&self) -> usize {
        self.num_locals
    }

    /// The current operand stack height.
    pub fn height(&self) -> usize {
        self.slots.len() - self.num_locals
    }

    /// The total number of live slots (locals + operands).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the operand stack is empty.
    pub fn is_empty(&self) -> bool {
        self.height() == 0
    }

    /// The state of a slot (locals first, then operands).
    pub fn slot(&self, index: usize) -> &SlotState {
        &self.slots[index]
    }

    /// Iterates over all live slots with their indices.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &SlotState)> {
        self.slots.iter().enumerate()
    }

    /// The slot index of the operand `depth` positions from the top
    /// (0 = top of stack).
    pub fn operand_index(&self, depth: usize) -> usize {
        self.slots.len() - 1 - depth
    }

    // ---- Mutation ----------------------------------------------------------

    /// Pushes an operand slot with the given type and location; returns its
    /// slot index.
    pub fn push(&mut self, ty: ValueType, loc: Loc) -> usize {
        let index = self.slots.len();
        let state = SlotState {
            ty,
            loc,
            in_memory: matches!(loc, Loc::Memory),
            tag_in_memory: false,
        };
        self.slots.push(state);
        if let Loc::Reg(r) = loc {
            self.bind(r, index as u32);
        }
        index
    }

    /// Pops the top operand slot, releasing any register binding.
    ///
    /// # Panics
    ///
    /// Panics if the operand stack is empty (a compiler bug: validation
    /// guarantees balanced stacks).
    pub fn pop(&mut self) -> SlotState {
        assert!(self.height() > 0, "abstract operand stack underflow");
        let index = self.slots.len() - 1;
        let state = self.slots.pop().expect("non-empty");
        if let Loc::Reg(r) = state.loc {
            self.unbind(r, index as u32);
        }
        state
    }

    /// Overwrites a slot's abstract value, maintaining register bindings.
    pub fn set_slot(&mut self, index: usize, loc: Loc, in_memory: bool, tag_in_memory: bool) {
        if let Loc::Reg(old) = self.slots[index].loc {
            self.unbind(old, index as u32);
        }
        if let Loc::Reg(new) = loc {
            self.bind(new, index as u32);
        }
        let ty = self.slots[index].ty;
        self.slots[index] = SlotState {
            ty,
            loc,
            in_memory,
            tag_in_memory,
        };
    }

    /// Marks a slot's home memory as up to date.
    pub fn mark_in_memory(&mut self, index: usize) {
        self.slots[index].in_memory = true;
    }

    /// Marks a slot's tag as stored / not stored.
    pub fn set_tag_in_memory(&mut self, index: usize, stored: bool) {
        self.slots[index].tag_in_memory = stored;
    }

    /// Truncates the operand stack to `height` operands (used at control-flow
    /// boundaries and in unreachable code), releasing register bindings.
    pub fn truncate_operands(&mut self, height: usize) {
        while self.height() > height {
            self.pop();
        }
    }

    /// Resets every slot to the canonical "in memory" state (used after the
    /// compiler has flushed at a control-flow boundary). Tags' stored state
    /// is conservatively cleared unless `keep_tags` is set.
    pub fn reset_to_memory(&mut self, keep_tags: bool) {
        for slot in &mut self.slots {
            slot.loc = Loc::Memory;
            slot.in_memory = true;
            if !keep_tags {
                slot.tag_in_memory = false;
            }
        }
        for list in &mut self.gpr_slots {
            list.clear();
        }
        for list in &mut self.fpr_slots {
            list.clear();
        }
    }

    // ---- Register bindings -------------------------------------------------

    /// The slots currently cached by `reg`.
    pub fn slots_in_reg(&self, reg: AnyReg) -> &[u32] {
        match reg {
            AnyReg::Gpr(r) => &self.gpr_slots[r.index()],
            AnyReg::Fpr(r) => &self.fpr_slots[r.index()],
        }
    }

    /// True if `reg` may cache an additional slot under the current
    /// multi-register policy.
    pub fn can_share(&self, reg: AnyReg) -> bool {
        self.multi_register || self.slots_in_reg(reg).is_empty()
    }

    fn bind(&mut self, reg: AnyReg, slot: u32) {
        let list = match reg {
            AnyReg::Gpr(r) => &mut self.gpr_slots[r.index()],
            AnyReg::Fpr(r) => &mut self.fpr_slots[r.index()],
        };
        if !list.contains(&slot) {
            list.push(slot);
        }
    }

    fn unbind(&mut self, reg: AnyReg, slot: u32) {
        let list = match reg {
            AnyReg::Gpr(r) => &mut self.gpr_slots[r.index()],
            AnyReg::Fpr(r) => &mut self.fpr_slots[r.index()],
        };
        list.retain(|&s| s != slot);
    }

    /// Adds an additional binding of `slot` to `reg` (multi-register sharing).
    pub fn share(&mut self, reg: AnyReg, slot: usize) {
        self.bind(reg, slot as u32);
        self.slots[slot].loc = Loc::Reg(reg);
    }

    /// Finds a free allocatable register of the requested bank, or `None` if
    /// all are occupied. Allocation is first-fit from the low registers, as
    /// production baseline compilers do, which also leaves the high registers
    /// free for the optimizing tier's slot promotion.
    pub fn free_reg(&mut self, float: bool) -> Option<AnyReg> {
        if float {
            for index in 1..NUM_FPRS {
                if self.fpr_slots[index].is_empty() {
                    return Some(AnyReg::Fpr(FReg(index as u8)));
                }
            }
            None
        } else {
            for index in 1..NUM_GPRS {
                if self.gpr_slots[index].is_empty() {
                    return Some(AnyReg::Gpr(Reg(index as u8)));
                }
            }
            None
        }
    }

    /// Picks a register to evict when none are free (round robin over the
    /// allocatable registers).
    pub fn evict_candidate(&mut self, float: bool) -> AnyReg {
        if float {
            let index = self.next_fpr;
            self.next_fpr = 1 + (self.next_fpr % (NUM_FPRS - 1));
            AnyReg::Fpr(FReg(index as u8))
        } else {
            let index = self.next_gpr;
            self.next_gpr = 1 + (self.next_gpr % (NUM_GPRS - 1));
            AnyReg::Gpr(Reg(index as u8))
        }
    }

    /// Removes all bindings of `reg` and returns the slots it cached.
    pub fn clear_reg(&mut self, reg: AnyReg) -> Vec<u32> {
        let list = match reg {
            AnyReg::Gpr(r) => std::mem::take(&mut self.gpr_slots[r.index()]),
            AnyReg::Fpr(r) => std::mem::take(&mut self.fpr_slots[r.index()]),
        };
        for &slot in &list {
            let s = &mut self.slots[slot as usize];
            if s.loc == Loc::Reg(reg) {
                s.loc = Loc::Memory;
            }
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> AbstractState {
        AbstractState::new(&[ValueType::I32, ValueType::F64], true)
    }

    #[test]
    fn initial_state_has_locals_in_memory() {
        let s = state();
        assert_eq!(s.num_locals(), 2);
        assert_eq!(s.height(), 0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 2);
        assert!(s.slot(0).in_memory && s.slot(0).tag_in_memory);
        assert_eq!(s.slot(1).ty, ValueType::F64);
        assert_eq!(s.slot(0).loc, Loc::Memory);
    }

    #[test]
    fn push_pop_tracks_bindings() {
        let mut s = state();
        let r = s.free_reg(false).unwrap();
        let slot = s.push(ValueType::I32, Loc::Reg(r));
        assert_eq!(s.height(), 1);
        assert_eq!(s.slots_in_reg(r), &[slot as u32]);
        assert_eq!(s.slot(slot).reg(), Some(r));
        assert!(!s.slot(slot).in_memory);
        let popped = s.pop();
        assert_eq!(popped.reg(), Some(r));
        assert!(s.slots_in_reg(r).is_empty());
        assert_eq!(s.height(), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn pop_empty_operand_stack_panics() {
        let mut s = state();
        s.pop();
    }

    #[test]
    fn constants_are_tracked() {
        let mut s = state();
        let slot = s.push(ValueType::I32, Loc::Const(42));
        assert_eq!(s.slot(slot).constant(), Some(42));
        assert_eq!(s.slot(slot).reg(), None);
        assert!(!s.slot(slot).in_memory);
    }

    #[test]
    fn sharing_respects_multi_register_policy() {
        let mut multi = AbstractState::new(&[ValueType::I32], true);
        let r = multi.free_reg(false).unwrap();
        multi.set_slot(0, Loc::Reg(r), true, true);
        assert!(multi.can_share(r), "MR allows a second slot in the register");
        let op = multi.push(ValueType::I32, Loc::Memory);
        multi.share(r, op);
        assert_eq!(multi.slots_in_reg(r).len(), 2);

        let mut single = AbstractState::new(&[ValueType::I32], false);
        let r = single.free_reg(false).unwrap();
        single.set_slot(0, Loc::Reg(r), true, true);
        assert!(!single.can_share(r), "single-register mode forbids sharing");
    }

    #[test]
    fn free_reg_exhaustion_and_eviction() {
        let mut s = AbstractState::new(&[], true);
        let mut regs = Vec::new();
        while let Some(r) = s.free_reg(false) {
            let slot = s.push(ValueType::I32, Loc::Reg(r));
            regs.push((r, slot));
            if regs.len() > 32 {
                panic!("free_reg never exhausted");
            }
        }
        assert_eq!(regs.len(), NUM_GPRS - 1, "scratch register is not allocatable");
        let victim = s.evict_candidate(false);
        assert!(victim.as_gpr().is_some());
        assert_ne!(victim.as_gpr().unwrap(), SCRATCH_GPR);
        let cached = s.clear_reg(victim);
        assert_eq!(cached.len(), 1);
        assert_eq!(s.slot(cached[0] as usize).loc, Loc::Memory);
    }

    #[test]
    fn float_and_int_banks_are_independent() {
        let mut s = AbstractState::new(&[], true);
        let g = s.free_reg(false).unwrap();
        let f = s.free_reg(true).unwrap();
        assert!(!g.is_float());
        assert!(f.is_float());
        s.push(ValueType::I64, Loc::Reg(g));
        s.push(ValueType::F64, Loc::Reg(f));
        assert_eq!(s.slots_in_reg(g).len(), 1);
        assert_eq!(s.slots_in_reg(f).len(), 1);
    }

    #[test]
    fn reset_to_memory_clears_bindings() {
        let mut s = state();
        let r = s.free_reg(false).unwrap();
        s.push(ValueType::I32, Loc::Reg(r));
        s.push(ValueType::I32, Loc::Const(7));
        s.reset_to_memory(false);
        assert_eq!(s.slot(2).loc, Loc::Memory);
        assert_eq!(s.slot(3).loc, Loc::Memory);
        assert!(s.slot(2).in_memory);
        assert!(!s.slot(2).tag_in_memory);
        assert!(s.slots_in_reg(r).is_empty());

        s.reset_to_memory(true);
        // keep_tags does not reset already-false flags to true.
        assert!(!s.slot(2).tag_in_memory);
    }

    #[test]
    fn truncate_operands_releases_registers() {
        let mut s = state();
        let r = s.free_reg(false).unwrap();
        s.push(ValueType::I32, Loc::Reg(r));
        s.push(ValueType::I32, Loc::Const(1));
        s.push(ValueType::I32, Loc::Memory);
        s.truncate_operands(1);
        assert_eq!(s.height(), 1);
        assert_eq!(s.slots_in_reg(r), &[2u32], "remaining operand keeps its register");
        s.truncate_operands(0);
        assert!(s.slots_in_reg(r).is_empty());
    }

    #[test]
    fn operand_index_from_top() {
        let mut s = state();
        s.push(ValueType::I32, Loc::Const(1));
        s.push(ValueType::I32, Loc::Const(2));
        assert_eq!(s.operand_index(0), 3);
        assert_eq!(s.operand_index(1), 2);
        assert_eq!(s.slot(s.operand_index(0)).constant(), Some(2));
    }
}
