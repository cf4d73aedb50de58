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
//!
//! The state is *sparse*. A slot in its home memory with its tag stored is in
//! the canonical state, the one every control-flow boundary returns to, and
//! nothing lists it. What departs from that state is listed: the slots cached
//! in a register or known as a constant, the subset of those whose home slot
//! is stale, and the slots whose tag is unstored — a set per kind for the
//! locals, a watermark per kind for the operands. Flushes, resets and branch
//! adaptation walk those lists in ascending slot order, so their cost follows
//! what the code since the last boundary touched, not the size of the frame:
//! a function with 50 000 locals that it never writes pays nothing for them
//! at a merge. Forgetting every tag (at a label only branches reach) is one
//! counter bump; the next walk over tags reads the forgotten slots once.

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

/// The end of a register's binding list.
const NONE: u32 = u32::MAX;

/// Both register banks in one index space: GPRs first, then FPRs.
const NUM_REGS: usize = NUM_GPRS + NUM_FPRS;
/// The allocatable GPRs (all but the scratch register) as bits of that space.
const ALLOCATABLE_GPRS: u32 = ((1 << NUM_GPRS) - 1) & !1;
/// The allocatable FPRs, as bits of the FPR bank alone.
const ALLOCATABLE_FPRS: u32 = ((1 << NUM_FPRS) - 1) & !1;

fn reg_index(reg: AnyReg) -> usize {
    match reg {
        AnyReg::Gpr(r) => r.index(),
        AnyReg::Fpr(f) => NUM_GPRS + f.index(),
    }
}

/// Where a slot's value is, in the one byte [`SlotState`] keeps for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Memory,
    Reg,
    Const,
}

/// A register as a [`SlotState`] keeps it: its index, plus 0x100 for an FPR.
fn encode_reg(reg: AnyReg) -> u64 {
    match reg {
        AnyReg::Gpr(r) => r.0 as u64,
        AnyReg::Fpr(f) => 0x100 | f.0 as u64,
    }
}

fn decode_reg(value: u64) -> AnyReg {
    if value & 0x100 == 0 {
        AnyReg::Gpr(Reg(value as u8))
    } else {
        AnyReg::Fpr(FReg(value as u8))
    }
}

/// The abstract value of one local or operand slot, in 16 bytes: a frame's
/// locals are all written when the state is created, whether the body uses
/// them or not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotState {
    /// A constant's bits, or a register's encoding, as `kind` says.
    value: u64,
    /// The tag generation in which this slot's tag was last stored; the tag
    /// is stored while that is the state's current generation.
    tag_stored: u32,
    kind: Kind,
    /// The slot's static type.
    pub ty: ValueType,
    /// True if the home memory slot holds the current value.
    pub in_memory: bool,
}

/// A tag generation no state reaches: the mark of an unstored tag.
const UNSTORED: u32 = u32::MAX;

impl SlotState {
    #[inline(always)]
    fn new(ty: ValueType, loc: Loc, in_memory: bool, tag_stored: u32) -> SlotState {
        let (kind, value) = match loc {
            Loc::Memory => (Kind::Memory, 0),
            Loc::Reg(r) => (Kind::Reg, encode_reg(r)),
            Loc::Const(c) => (Kind::Const, c),
        };
        SlotState {
            value,
            tag_stored,
            kind,
            ty,
            in_memory,
        }
    }

    /// Where the value currently lives.
    #[inline]
    pub fn loc(&self) -> Loc {
        match self.kind {
            Kind::Memory => Loc::Memory,
            Kind::Reg => Loc::Reg(decode_reg(self.value)),
            Kind::Const => Loc::Const(self.value),
        }
    }

    /// The register caching this slot, if any.
    fn reg(&self) -> Option<AnyReg> {
        (self.kind == Kind::Reg).then(|| decode_reg(self.value))
    }

    /// The constant value of this slot, if known.
    #[inline]
    pub fn constant(&self) -> Option<u64> {
        (self.kind == Kind::Const).then_some(self.value)
    }
}

/// A slot's neighbours in the binding list of the register caching it.
#[derive(Debug, Clone, Copy)]
struct Link {
    prev: u32,
    next: u32,
}

const UNLINKED: Link = Link {
    prev: NONE,
    next: NONE,
};

/// A set of local indices: a bit per local, plus a bit per 64 locals saying
/// which words are non-zero, so walking or clearing the set costs its
/// members plus one word per 4 096 locals — nothing at all when it is empty.
#[derive(Debug, Clone, Default)]
struct LocalSet {
    /// A bit per local, then the summary: a bit per word of those.
    bits: Vec<u64>,
    words: usize,
    len: usize,
}

impl LocalSet {
    fn new(locals: usize) -> LocalSet {
        let words = locals.div_ceil(64);
        LocalSet {
            bits: vec![0; words + words.div_ceil(64)],
            words,
            len: 0,
        }
    }

    #[inline]
    fn insert(&mut self, local: usize) {
        let (w, bit) = (local / 64, 1 << (local % 64));
        if self.bits[w] & bit == 0 {
            self.bits[w] |= bit;
            self.bits[self.words + w / 64] |= 1 << (w % 64);
            self.len += 1;
        }
    }

    #[inline]
    fn remove(&mut self, local: usize) {
        let (w, bit) = (local / 64, 1 << (local % 64));
        if self.bits[w] & bit != 0 {
            self.bits[w] &= !bit;
            if self.bits[w] == 0 {
                self.bits[self.words + w / 64] &= !(1 << (w % 64));
            }
            self.len -= 1;
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The least member at or above `from`.
    fn next_from(&self, from: usize) -> Option<usize> {
        let (words, summary) = self.bits.split_at(self.words);
        let w = from / 64;
        let bits = words.get(w)? & (!0 << (from % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        let w = w + 1;
        let mut s = w / 64;
        let mut above = summary.get(s)? & (!0 << (w % 64));
        while above == 0 {
            s += 1;
            above = *summary.get(s)?;
        }
        let w = s * 64 + above.trailing_zeros() as usize;
        Some(w * 64 + words[w].trailing_zeros() as usize)
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let first = if self.is_empty() {
            None
        } else {
            self.next_from(0)
        };
        std::iter::successors(first, |&local| self.next_from(local + 1))
    }

    fn clear(&mut self) {
        if self.is_empty() {
            return;
        }
        let (words, summary) = self.bits.split_at_mut(self.words);
        for (s, above) in summary.iter_mut().enumerate() {
            let mut bits = std::mem::take(above);
            while bits != 0 {
                words[s * 64 + bits.trailing_zeros() as usize] = 0;
                bits &= bits - 1;
            }
        }
        self.len = 0;
    }
}

/// The complete abstract state: locals, the abstract operand stack, and
/// register bindings.
///
/// What departs from the canonical state is listed per local in a bitset,
/// and bounded per operand by a watermark: below
/// `clean_below`, `flushed_below` and `tagged_below`, every operand is in
/// memory, has its home slot up to date, and has its tag stored. Operands
/// are pushed and popped at the top, so a watermark only ever has to come
/// down to the slot a change touched, and a walk over the operands starts
/// at the watermark: it reads the operands pushed since the last walk.
#[derive(Debug, Clone)]
pub struct AbstractState {
    slots: Vec<SlotState>,
    num_locals: usize,
    /// Locals whose value is in a register or a known constant.
    cached_locals: LocalSet,
    /// Locals whose home memory is stale: a subset of `cached_locals`.
    dirty_locals: LocalSet,
    /// Locals whose tag is unstored, unless `locals_forgotten`, when every
    /// local's `tag_stored` must be read.
    untagged_locals: LocalSet,
    locals_forgotten: bool,
    clean_below: usize,
    flushed_below: usize,
    tagged_below: usize,
    tag_generation: u32,
    /// Each slot's links in its register's binding list, read only while
    /// the slot is bound.
    links: Vec<Link>,
    /// First and last slot bound to each register, in binding order.
    heads: [u32; NUM_REGS],
    tails: [u32; NUM_REGS],
    /// One bit per register that caches at least one slot.
    occupied: u32,
    next_gpr: usize,
    next_fpr: usize,
    multi_register: bool,
}

impl AbstractState {
    /// Creates the state at function entry for a function with `params` and
    /// the grouped `(count, type)` local declarations `declared`: every local
    /// is in memory with its tag stored (parameters by the caller, declared
    /// locals by the prologue), and the operand stack is empty.
    /// `max_operands` is the deepest operand stack the body reaches.
    pub fn new(
        params: &[ValueType],
        declared: &[(u32, ValueType)],
        max_operands: usize,
        multi_register: bool,
    ) -> AbstractState {
        let num_locals = params.len()
            + declared
                .iter()
                .map(|&(count, _)| count as usize)
                .sum::<usize>();
        let canonical = |ty| SlotState::new(ty, Loc::Memory, true, 0);
        let mut slots = Vec::with_capacity(num_locals + max_operands);
        slots.extend(params.iter().map(|&ty| canonical(ty)));
        for &(count, ty) in declared {
            slots.resize(slots.len() + count as usize, canonical(ty));
        }
        AbstractState {
            slots,
            num_locals,
            cached_locals: LocalSet::new(num_locals),
            dirty_locals: LocalSet::new(num_locals),
            untagged_locals: LocalSet::new(num_locals),
            locals_forgotten: false,
            clean_below: num_locals,
            flushed_below: num_locals,
            tagged_below: num_locals,
            tag_generation: 0,
            links: vec![UNLINKED; num_locals + max_operands],
            heads: [NONE; NUM_REGS],
            tails: [NONE; NUM_REGS],
            occupied: 0,
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
    #[inline]
    pub fn slot(&self, index: usize) -> &SlotState {
        &self.slots[index]
    }

    /// True if the value tag of a slot has been stored.
    pub fn tag_in_memory(&self, index: usize) -> bool {
        self.slots[index].tag_stored == self.tag_generation
    }

    /// The slot index of the operand `depth` positions from the top
    /// (0 = top of stack).
    #[inline]
    pub fn operand_index(&self, depth: usize) -> usize {
        self.slots.len() - 1 - depth
    }

    /// The locals whose home memory is stale, ascending, with where their
    /// values are.
    pub fn dirty_locals(&self) -> impl Iterator<Item = (usize, Loc)> + '_ {
        self.dirty_locals
            .iter()
            .map(|local| (local, self.slots[local].loc()))
    }

    // ---- Mutation ----------------------------------------------------------

    /// Pushes an operand slot with the given type and location; returns its
    /// slot index.
    ///
    /// Inlined by force, like [`AbstractState::set_slot`]: built in the
    /// caller's registers, `loc` is stored field by field, where passed by
    /// reference it is read back in one 16-byte load that stalls on the
    /// narrower stores that just wrote it.
    #[inline(always)]
    pub fn push(&mut self, ty: ValueType, loc: Loc) -> usize {
        let index = self.slots.len();
        self.slots
            .push(SlotState::new(ty, loc, loc == Loc::Memory, UNSTORED));
        if let Loc::Reg(r) = loc {
            self.bind(r, index);
        }
        index
    }

    /// Pops the top operand slot, releasing any register binding.
    ///
    /// # Panics
    ///
    /// Panics if the operand stack is empty (a compiler bug: validation
    /// guarantees balanced stacks).
    #[inline]
    pub fn pop(&mut self) {
        assert!(self.height() > 0, "abstract operand stack underflow");
        let index = self.slots.len() - 1;
        let top = &self.slots[index];
        if top.kind == Kind::Reg {
            self.unbind(decode_reg(top.value), index);
        }
        self.slots.truncate(index);
        self.clean_below = self.clean_below.min(index);
        self.flushed_below = self.flushed_below.min(index);
        self.tagged_below = self.tagged_below.min(index);
    }

    /// Overwrites a slot's abstract value, maintaining register bindings.
    #[inline(always)]
    pub fn set_slot(&mut self, index: usize, loc: Loc, in_memory: bool, tag_in_memory: bool) {
        if let Some(old) = self.slots[index].reg() {
            self.unbind(old, index);
        }
        if let Loc::Reg(new) = loc {
            self.bind(new, index);
        }
        let tag_stored = if tag_in_memory {
            self.tag_generation
        } else {
            UNSTORED
        };
        self.slots[index] = SlotState::new(self.slots[index].ty, loc, in_memory, tag_stored);
        if index < self.num_locals {
            if loc == Loc::Memory {
                self.cached_locals.remove(index);
            } else {
                self.cached_locals.insert(index);
            }
            if in_memory {
                self.dirty_locals.remove(index);
            } else {
                self.dirty_locals.insert(index);
            }
            if tag_in_memory {
                self.untagged_locals.remove(index);
            } else {
                self.untagged_locals.insert(index);
            }
        } else {
            if loc != Loc::Memory {
                self.clean_below = self.clean_below.min(index);
            }
            if !in_memory {
                self.flushed_below = self.flushed_below.min(index);
            }
            if !tag_in_memory {
                self.tagged_below = self.tagged_below.min(index);
            }
        }
    }

    /// Marks a slot's tag as stored / not stored.
    pub fn set_tag_in_memory(&mut self, index: usize, stored: bool) {
        let is_local = index < self.num_locals;
        if stored {
            self.slots[index].tag_stored = self.tag_generation;
            if is_local {
                self.untagged_locals.remove(index);
            }
        } else {
            self.slots[index].tag_stored = UNSTORED;
            if is_local {
                self.untagged_locals.insert(index);
            } else {
                self.tagged_below = self.tagged_below.min(index);
            }
        }
    }

    /// Truncates the operand stack to `height` operands (used at control-flow
    /// boundaries and in unreachable code), releasing register bindings.
    pub fn truncate_operands(&mut self, height: usize) {
        while self.height() > height {
            self.pop();
        }
    }

    /// Marks every stale home slot up to date, calling `store` with each one
    /// and where its value is, in ascending slot order.
    pub fn flush(&mut self, mut store: impl FnMut(usize, Loc)) {
        for local in self.dirty_locals.iter() {
            store(local, self.slots[local].loc());
            self.slots[local].in_memory = true;
        }
        self.dirty_locals.clear();
        for (slot, s) in self.slots.iter_mut().enumerate().skip(self.flushed_below) {
            if !s.in_memory {
                store(slot, s.loc());
                s.in_memory = true;
            }
        }
        self.flushed_below = self.slots.len();
    }

    /// Marks the tag of every operand stored — and of every local too, with
    /// `locals` — calling `store` with each slot whose tag was not, in
    /// ascending slot order.
    pub fn store_tags(&mut self, locals: bool, mut store: impl FnMut(usize, ValueType)) {
        let generation = self.tag_generation;
        if locals {
            if self.locals_forgotten {
                for (local, s) in self.slots[..self.num_locals].iter_mut().enumerate() {
                    if s.tag_stored != generation {
                        store(local, s.ty);
                        s.tag_stored = generation;
                    }
                }
                self.locals_forgotten = false;
            } else {
                for local in self.untagged_locals.iter() {
                    store(local, self.slots[local].ty);
                    self.slots[local].tag_stored = generation;
                }
            }
            self.untagged_locals.clear();
        }
        for (slot, s) in self.slots.iter_mut().enumerate().skip(self.tagged_below) {
            if s.tag_stored != generation {
                store(slot, s.ty);
                s.tag_stored = generation;
            }
        }
        self.tagged_below = self.slots.len();
    }

    /// Resets every slot to the canonical "in memory" state (used after the
    /// compiler has flushed at a control-flow boundary). Tags' stored state
    /// is conservatively cleared unless `keep_tags` is set.
    pub fn reset_to_memory(&mut self, keep_tags: bool) {
        for local in self.cached_locals.iter() {
            let s = &mut self.slots[local];
            s.kind = Kind::Memory;
            s.in_memory = true;
        }
        self.cached_locals.clear();
        self.dirty_locals.clear();
        for s in &mut self.slots[self.clean_below..] {
            s.kind = Kind::Memory;
            s.in_memory = true;
        }
        self.clean_below = self.slots.len();
        self.flushed_below = self.slots.len();
        let mut occupied = std::mem::take(&mut self.occupied);
        while occupied != 0 {
            let r = occupied.trailing_zeros() as usize;
            self.heads[r] = NONE;
            self.tails[r] = NONE;
            occupied &= occupied - 1;
        }
        if !keep_tags {
            // Every tag stored so far belongs to an older generation now.
            self.tag_generation += 1;
            self.locals_forgotten = true;
            self.untagged_locals.clear();
            self.tagged_below = self.num_locals;
        }
    }

    // ---- Register bindings -------------------------------------------------

    /// True if `reg` may cache an additional slot under the current
    /// multi-register policy.
    #[inline]
    pub fn can_share(&self, reg: AnyReg) -> bool {
        self.multi_register || self.occupied & (1 << reg_index(reg)) == 0
    }

    #[inline]
    fn bind(&mut self, reg: AnyReg, slot: usize) {
        let r = reg_index(reg);
        let tail = self.tails[r];
        if slot >= self.links.len() {
            // Deeper than the validator's operand height: never, but cheap.
            self.links.resize(slot + 1, UNLINKED);
        }
        self.links[slot] = Link {
            prev: tail,
            next: NONE,
        };
        if tail == NONE {
            self.heads[r] = slot as u32;
        } else {
            self.links[tail as usize].next = slot as u32;
        }
        self.tails[r] = slot as u32;
        self.occupied |= 1 << r;
    }

    #[inline]
    fn unbind(&mut self, reg: AnyReg, slot: usize) {
        let r = reg_index(reg);
        let Link { prev, next } = self.links[slot];
        if prev == NONE {
            self.heads[r] = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if next == NONE {
            self.tails[r] = prev;
        } else {
            self.links[next as usize].prev = prev;
        }
        if self.heads[r] == NONE {
            self.occupied &= !(1 << r);
        }
    }

    /// Adds an additional binding of `slot` to `reg` (multi-register sharing).
    /// The slot must not be cached in a register already.
    pub fn share(&mut self, reg: AnyReg, slot: usize) {
        self.bind(reg, slot);
        let s = &mut self.slots[slot];
        s.kind = Kind::Reg;
        s.value = encode_reg(reg);
        if slot < self.num_locals {
            self.cached_locals.insert(slot);
        } else {
            self.clean_below = self.clean_below.min(slot);
        }
    }

    /// Finds a free allocatable GPR, or `None` if all are occupied.
    /// Allocation is first-fit from the low registers, as production baseline
    /// compilers do, which also leaves the high registers free for the
    /// optimizing tier's slot promotion.
    #[inline]
    pub fn free_gpr(&self) -> Option<Reg> {
        let free = !self.occupied & ALLOCATABLE_GPRS;
        (free != 0).then(|| Reg(free.trailing_zeros() as u8))
    }

    /// Finds a free allocatable FPR, first-fit like [`AbstractState::free_gpr`].
    #[inline]
    pub fn free_fpr(&self) -> Option<FReg> {
        let free = !(self.occupied >> NUM_GPRS) & ALLOCATABLE_FPRS;
        (free != 0).then(|| FReg(free.trailing_zeros() as u8))
    }

    /// Picks a GPR to evict when none are free (round robin over the
    /// allocatable registers).
    pub fn evict_gpr(&mut self) -> Reg {
        let index = self.next_gpr;
        self.next_gpr = 1 + (self.next_gpr % (NUM_GPRS - 1));
        Reg(index as u8)
    }

    /// Picks an FPR to evict when none are free (round robin).
    pub fn evict_fpr(&mut self) -> FReg {
        let index = self.next_fpr;
        self.next_fpr = 1 + (self.next_fpr % (NUM_FPRS - 1));
        FReg(index as u8)
    }

    /// Frees `reg`: calls `store` with each slot it caches whose home memory
    /// is stale, in binding order, then leaves every slot it cached in
    /// memory.
    pub fn spill(&mut self, reg: AnyReg, mut store: impl FnMut(usize)) {
        let r = reg_index(reg);
        let mut next = self.heads[r];
        while next != NONE {
            let slot = next as usize;
            next = self.links[slot].next;
            let s = &mut self.slots[slot];
            if !s.in_memory {
                store(slot);
                s.in_memory = true;
            }
            s.kind = Kind::Memory;
            if slot < self.num_locals {
                self.dirty_locals.remove(slot);
                self.cached_locals.remove(slot);
            }
        }
        self.heads[r] = NONE;
        self.tails[r] = NONE;
        self.occupied &= !(1 << r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> AbstractState {
        AbstractState::new(&[ValueType::I32, ValueType::F64], &[], 8, true)
    }

    fn gpr(s: &AbstractState) -> AnyReg {
        AnyReg::Gpr(s.free_gpr().unwrap())
    }

    /// The slots `reg` caches, in binding order.
    fn bound(s: &AbstractState, reg: AnyReg) -> Vec<usize> {
        let head = s.heads[reg_index(reg)];
        std::iter::successors((head != NONE).then_some(head as usize), |&slot| {
            let next = s.links[slot].next;
            (next != NONE).then_some(next as usize)
        })
        .collect()
    }

    #[test]
    fn initial_state_has_locals_in_memory() {
        let s = state();
        assert_eq!(s.num_locals(), 2);
        assert_eq!(s.height(), 0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 2);
        assert!(s.slot(0).in_memory && s.tag_in_memory(0));
        assert_eq!(s.slot(1).ty, ValueType::F64);
        assert_eq!(s.slot(0).loc(), Loc::Memory);
        assert_eq!(s.dirty_locals().count(), 0);
    }

    #[test]
    fn push_pop_tracks_bindings() {
        let mut s = state();
        let r = gpr(&s);
        let slot = s.push(ValueType::I32, Loc::Reg(r));
        assert_eq!(s.height(), 1);
        assert_eq!(bound(&s, r), [slot]);
        assert_eq!(s.slot(slot).loc(), Loc::Reg(r));
        assert!(!s.slot(slot).in_memory);
        s.pop();
        assert!(bound(&s, r).is_empty());
        assert_eq!(s.free_gpr(), r.as_gpr(), "a popped register is free again");
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
        let mut multi = AbstractState::new(&[ValueType::I32], &[], 1, true);
        let r = gpr(&multi);
        multi.set_slot(0, Loc::Reg(r), true, true);
        assert!(
            multi.can_share(r),
            "MR allows a second slot in the register"
        );
        let op = multi.push(ValueType::I32, Loc::Memory);
        multi.share(r, op);
        assert_eq!(bound(&multi, r), [0, op]);

        let mut single = AbstractState::new(&[], &[(1, ValueType::I32)], 1, false);
        let r = gpr(&single);
        single.set_slot(0, Loc::Reg(r), true, true);
        assert!(!single.can_share(r), "single-register mode forbids sharing");
    }

    #[test]
    fn rebinding_a_slot_moves_it_to_the_end_of_the_binding_order() {
        let mut s = AbstractState::new(&[ValueType::I32], &[(1, ValueType::I32)], 2, true);
        let r = gpr(&s);
        s.set_slot(0, Loc::Reg(r), false, false);
        s.set_slot(1, Loc::Reg(r), false, false);
        let op = s.push(ValueType::I32, Loc::Reg(r));
        s.set_slot(0, Loc::Reg(r), false, false);
        assert_eq!(bound(&s, r), [1, op, 0]);
        let mut stored = Vec::new();
        s.spill(r, |slot| stored.push(slot));
        assert_eq!(stored, [1, op, 0], "a spill stores in binding order");
        assert!((0..s.len()).all(|i| s.slot(i).loc() == Loc::Memory && s.slot(i).in_memory));
    }

    #[test]
    fn free_reg_exhaustion_and_eviction() {
        let mut s = AbstractState::new(&[], &[], 32, true);
        let mut regs = Vec::new();
        while let Some(r) = s.free_gpr() {
            let slot = s.push(ValueType::I32, Loc::Reg(AnyReg::Gpr(r)));
            regs.push((r, slot));
            assert!(regs.len() <= 32, "free_gpr never exhausted");
        }
        assert_eq!(
            regs.len(),
            NUM_GPRS - 1,
            "scratch register is not allocatable"
        );
        let victim = s.evict_gpr();
        assert_ne!(victim, SCRATCH_GPR);
        let mut stored = Vec::new();
        s.spill(AnyReg::Gpr(victim), |slot| stored.push(slot));
        assert_eq!(stored.len(), 1);
        assert_eq!(s.slot(stored[0]).loc(), Loc::Memory);
        assert_eq!(s.free_gpr(), Some(victim));
    }

    #[test]
    fn float_and_int_banks_are_independent() {
        let mut s = AbstractState::new(&[], &[], 2, true);
        let g = AnyReg::Gpr(s.free_gpr().unwrap());
        let f = AnyReg::Fpr(s.free_fpr().unwrap());
        assert!(!g.is_float());
        assert!(f.is_float());
        s.push(ValueType::I64, Loc::Reg(g));
        s.push(ValueType::F64, Loc::Reg(f));
        assert_eq!(bound(&s, g).len(), 1);
        assert_eq!(bound(&s, f).len(), 1);
        assert_ne!(s.free_fpr(), f.as_fpr());
        assert_ne!(s.free_gpr(), g.as_gpr());
    }

    #[test]
    fn reset_to_memory_clears_bindings() {
        let mut s = state();
        let r = gpr(&s);
        s.push(ValueType::I32, Loc::Reg(r));
        s.push(ValueType::I32, Loc::Const(7));
        s.reset_to_memory(false);
        assert_eq!(s.slot(2).loc(), Loc::Memory);
        assert_eq!(s.slot(3).loc(), Loc::Memory);
        assert!(s.slot(2).in_memory);
        assert!(!s.tag_in_memory(2));
        assert!(!s.tag_in_memory(0), "forgetting tags covers the locals too");
        assert!(bound(&s, r).is_empty());

        s.reset_to_memory(true);
        // keep_tags does not reset already-false flags to true.
        assert!(!s.tag_in_memory(2));
    }

    #[test]
    fn flush_and_tag_walks_visit_slots_in_ascending_order() {
        let mut s =
            AbstractState::new(&[], &[(150, ValueType::I32), (50, ValueType::F64)], 4, true);
        let r = gpr(&s);
        s.set_slot(150, Loc::Const(1), false, false);
        s.set_slot(3, Loc::Reg(r), false, false);
        s.set_slot(70, Loc::Reg(r), true, true);
        let op = s.push(ValueType::I32, Loc::Const(2));
        assert_eq!(
            s.dirty_locals().map(|(slot, _)| slot).collect::<Vec<_>>(),
            [3, 150]
        );
        let mut stored = Vec::new();
        s.flush(|slot, loc| stored.push((slot, loc)));
        assert_eq!(
            stored,
            [(3, Loc::Reg(r)), (150, Loc::Const(1)), (op, Loc::Const(2))]
        );
        assert_eq!(s.dirty_locals().count(), 0);
        assert_eq!(
            s.slot(70).loc(),
            Loc::Reg(r),
            "a flush leaves values where they are"
        );

        let mut tagged = Vec::new();
        s.store_tags(true, |slot, _| tagged.push(slot));
        assert_eq!(tagged, [3, 150, op]);
        s.reset_to_memory(false);
        s.set_tag_in_memory(5, true);
        let second = s.push(ValueType::I32, Loc::Memory);
        s.set_tag_in_memory(second, true);
        let mut tagged = Vec::new();
        s.store_tags(false, |slot, _| tagged.push(slot));
        assert_eq!(tagged, [op], "forgotten operand tags, without the locals'");
        let mut tagged = Vec::new();
        s.store_tags(true, |slot, _| tagged.push(slot));
        assert_eq!(
            tagged,
            (0..200).filter(|&slot| slot != 5).collect::<Vec<_>>()
        );
        s.store_tags(true, |slot, _| panic!("slot {slot} stored twice"));
    }

    #[test]
    fn local_sets_walk_members_across_summary_words() {
        let mut set = LocalSet::new(70_001);
        for slot in [0, 63, 64, 4095, 4096, 9000, 70_000] {
            set.insert(slot);
        }
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            [0, 63, 64, 4095, 4096, 9000, 70_000]
        );
        assert_eq!(set.next_from(65), Some(4095));
        set.remove(4095);
        set.remove(4096);
        assert_eq!(set.next_from(65), Some(9000));
        assert_eq!(set.len, 5);
        set.clear();
        assert_eq!(set.iter().next(), None);
        assert!(set.bits.iter().all(|&w| w == 0));
    }

    #[test]
    fn truncate_operands_releases_registers() {
        let mut s = state();
        let r = gpr(&s);
        s.push(ValueType::I32, Loc::Reg(r));
        s.push(ValueType::I32, Loc::Const(1));
        s.push(ValueType::I32, Loc::Memory);
        s.truncate_operands(1);
        assert_eq!(s.height(), 1);
        assert_eq!(bound(&s, r), [2], "remaining operand keeps its register");
        s.truncate_operands(0);
        assert!(bound(&s, r).is_empty());
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
