//! Linear-scan register allocation over the full machine register file.
//!
//! The baseline compiler's forward allocator gives registers up at every
//! control-flow boundary; this allocator assigns each SSA value one location
//! — a register or a frame slot — for its *entire* live range, computed by a
//! classic backward liveness pass over the block layout followed by a
//! linear scan with furthest-end eviction. Loop-carried values therefore
//! stay in registers across iterations, which is where the optimizing
//! tier's cycle win over the baseline comes from.
//!
//! The register file is split between allocatable registers and a small
//! reserved scratch set the emitter uses to materialize constants, shuttle
//! spilled operands, and break parallel-move cycles:
//!
//! * GPRs: `r1..=r11` allocatable; `r0`, `r12`, `r13` reserved (the same
//!   `r0` the baseline reserves, plus two operand scratches — a `select`
//!   can need three simultaneous memory operands).
//! * FPRs: `f1..=f13` allocatable; `f0`, `f14`, `f15` reserved.
//!
//! Reference-typed values are deliberately never allocated to registers:
//! they live in tagged frame slots so the garbage collector's tag scan sees
//! every root without stackmaps (see DESIGN.md, "The optimizing tier").

use crate::ir::{BlockId, FuncIr, Inst, Node, ValueId};
use machine::reg::{AnyReg, FReg, Reg};

/// The general-purpose scratch used to shuttle slot values (the same
/// register the baseline reserves).
pub const SCRATCH_GPR: Reg = Reg(0);
/// Second general-purpose scratch (second memory operand of an
/// instruction).
pub const SCRATCH2_GPR: Reg = Reg(12);
/// Third general-purpose scratch (third memory operand of a `select`; also
/// the parallel-move cycle breaker).
pub const SCRATCH3_GPR: Reg = Reg(13);
/// The floating-point shuttle scratch.
pub const SCRATCH_FPR: FReg = FReg(0);
/// Second floating-point scratch.
pub const SCRATCH2_FPR: FReg = FReg(14);
/// Floating-point parallel-move cycle breaker.
pub const SCRATCH3_FPR: FReg = FReg(15);

const ALLOC_GPRS: std::ops::RangeInclusive<u8> = 1..=11;
const ALLOC_FPRS: std::ops::RangeInclusive<u8> = 1..=13;

/// Where a value lives for its whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// A machine register.
    Reg(AnyReg),
    /// A frame slot (relative to the frame base).
    Slot(u32),
}

/// The allocation result.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Location of every allocated (live, non-constant) value, indexed by
    /// [`ValueId`]; `None` for the rest.
    pub locs: Vec<Option<Loc>>,
    /// First frame slot of the spill area.
    pub spill_base: u32,
    /// Number of spill slots used.
    pub num_spill_slots: u32,
}

impl Allocation {
    /// The location of `v` (after resolution), if it has one. Constants and
    /// dead values have none.
    pub fn loc(&self, ir: &FuncIr, v: ValueId) -> Option<Loc> {
        self.locs[ir.resolve(v).index()]
    }
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    value: ValueId,
    start: u32,
    end: u32,
    float: bool,
    reference: bool,
    /// Entry-block parameter index, for the home-slot optimization.
    entry_param: Option<u32>,
}

/// "None" in the dense `u32` tables below.
const NONE: u32 = u32::MAX;

/// What the allocator records about one value while it walks the layout.
#[derive(Debug, Clone, Copy)]
struct Range {
    /// Defining position; [`NONE`] for values no laid-out block defines
    /// (constants, aliased values, dead code).
    start: u32,
    /// Last position the value is needed at.
    end: u32,
    /// Defining block ([`NONE`] like `start`).
    def_block: u32,
    /// Entry-block parameter index, for the home-slot optimization.
    entry_param: Option<u32>,
    /// Whether any instruction or terminator reads the value.
    used: bool,
    /// Head of the value's chain in [`Ranges::exposed`], or [`NONE`].
    exposed: u32,
}

/// The per-value table plus the list of upward-exposed uses the liveness
/// walk starts from.
struct Ranges<'a> {
    ir: &'a FuncIr,
    of: Vec<Range>,
    /// Every `(value, block)` where the block reads the value but does not
    /// define it, as `(block, next link of the same value)`.
    exposed: Vec<(BlockId, u32)>,
}

impl Ranges<'_> {
    /// Records the definition of `v` at position `p` of block `b`.
    fn define(&mut self, v: ValueId, b: BlockId, p: u32) {
        let range = &mut self.of[v.index()];
        let allocatable = self.ir.resolve(v) == v && !matches!(self.ir.nodes[v.index()], Node::Const(_));
        if allocatable && range.start == NONE {
            (range.start, range.end, range.def_block) = (p, p, b.0);
        }
    }

    /// Records a read of `v` at position `p` of block `b`.
    fn read(&mut self, v: ValueId, b: BlockId, p: u32) {
        let v = self.ir.resolve(v);
        if matches!(self.ir.nodes[v.index()], Node::Const(_)) {
            return;
        }
        let range = &mut self.of[v.index()];
        range.used = true;
        range.end = range.end.max(p);
        // A block's reads are recorded together, so the head of the chain
        // tells whether this block is already on it.
        let listed = range.exposed != NONE && self.exposed[range.exposed as usize].0 == b;
        if range.def_block != b.0 && !listed {
            self.exposed.push((b, range.exposed));
            range.exposed = self.exposed.len() as u32 - 1;
        }
    }
}

/// The spill slots handed out so far and the last position each is occupied
/// to. A spill takes the lowest-index slot that is free before it starts, so
/// slots are reused as tightly as a scan of every slot would reuse them —
/// but a spill does not cost a scan: the slots' ends sit in the leaves of a
/// min-tree, where each node holds the smallest end below it, and the lowest
/// free slot is one walk from the root. (An evicted value's spill asks with
/// its own, earlier start, so the answer is not monotone in time.)
#[derive(Debug, Default)]
struct SpillSlots {
    /// The tree, in heap order from index 1; the leaves are the second half,
    /// one per slot, and leaves past the last slot hold [`NONE`], which no
    /// start exceeds.
    tree: Vec<u32>,
    /// Slots handed out.
    len: usize,
}

impl SpillSlots {
    /// The number of slots handed out.
    fn len(&self) -> usize {
        self.len
    }

    /// Occupies, until `end`, the lowest-index slot whose occupant ended
    /// before `start` — or a new slot if none has — and returns its index.
    fn take(&mut self, start: u32, end: u32) -> usize {
        let leaves = self.tree.len() / 2;
        let slot = if leaves > 0 && self.tree[1] < start {
            let mut node = 1;
            while node < leaves {
                node = if self.tree[2 * node] < start { 2 * node } else { 2 * node + 1 };
            }
            node - leaves
        } else {
            if self.len == leaves {
                self.grow();
            }
            self.len += 1;
            self.len - 1
        };
        let leaves = self.tree.len() / 2;
        let mut node = leaves + slot;
        self.tree[node] = end;
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
        slot
    }

    /// Doubles the number of leaves, keeping every slot's end.
    fn grow(&mut self) {
        let old = self.tree.len() / 2;
        let leaves = (2 * old).max(1);
        let mut tree = vec![NONE; 2 * leaves];
        tree[leaves..leaves + old].copy_from_slice(&self.tree[old..]);
        for node in (1..leaves).rev() {
            tree[node] = tree[2 * node].min(tree[2 * node + 1]);
        }
        self.tree = tree;
    }
}

/// Allocates every live value of `ir` to a register or spill slot. `order`
/// is the block layout ([`crate::layout::layout`]): every reachable block
/// once.
pub fn allocate(ir: &FuncIr, order: &[BlockId]) -> Allocation {
    // ---- Positions -------------------------------------------------------
    // Each block gets [start, end] positions; params define at start, each
    // instruction takes one position, the terminator the last.
    let mut block_start = vec![0u32; ir.blocks.len()];
    let mut block_end = vec![0u32; ir.blocks.len()];
    let mut pos = 0u32;
    for &b in order {
        block_start[b.index()] = pos;
        pos += 1; // params
        pos += ir.blocks[b.index()].insts.len() as u32;
        block_end[b.index()] = pos; // terminator position
        pos += 1;
    }

    // ---- Definitions and reads -------------------------------------------
    let unknown = Range {
        start: NONE,
        end: 0,
        def_block: NONE,
        entry_param: None,
        used: false,
        exposed: NONE,
    };
    let mut ranges = Ranges {
        ir,
        of: vec![unknown; ir.nodes.len()],
        exposed: Vec::new(),
    };
    for &b in order {
        let block = &ir.blocks[b.index()];
        let s = block_start[b.index()];
        for (i, &p) in block.params.iter().enumerate() {
            ranges.define(p, b, s);
            if b == ir.entry() && ir.resolve(p) == p {
                ranges.of[p.index()].entry_param = Some(i as u32);
            }
        }
        for (offset, inst) in block.insts.iter().enumerate() {
            let p = s + 1 + offset as u32;
            inst.for_each_use(&ir.nodes, |v| ranges.read(v, b, p));
            for_each_def(inst, |d| ranges.define(d, b, p));
        }
        block.term.for_each_use(|v| ranges.read(v, b, block_end[b.index()]));
    }

    // ---- Liveness --------------------------------------------------------
    // A value read in a block that does not define it is live into that
    // block, so it is live out of every predecessor — its range reaches the
    // predecessor's end — and, unless the predecessor defines it, live into
    // the predecessor too. One backward walk per value from its exposed
    // reads to its definition finds every block it is live out of. No
    // live-in set is ever materialized: `visited[b] == v` says the walk for
    // value `v` has been through block `b`, and the walks run one value at a
    // time. A parameter is defined by its block, so its walk stops there,
    // and nothing is ever taken out of what *another* successor of a
    // predecessor needs (the per-edge parameter rule, DESIGN.md).
    let edges = ir.edge_index();
    let Ranges {
        of: mut ranges,
        exposed,
        ..
    } = ranges;
    let mut visited = vec![NONE; ir.blocks.len()];
    let mut walk: Vec<BlockId> = Vec::new();
    for (v, range) in ranges.iter_mut().enumerate() {
        let mut link = range.exposed;
        while link != NONE {
            let (b, next) = exposed[link as usize];
            visited[b.index()] = v as u32;
            walk.push(b);
            link = next;
        }
        while let Some(b) = walk.pop() {
            for &(pred, _) in edges.incoming(b) {
                range.end = range.end.max(block_end[pred.index()]);
                if range.def_block != pred.0 && visited[pred.index()] != v as u32 {
                    visited[pred.index()] = v as u32;
                    walk.push(pred);
                }
            }
        }
    }

    // ---- Intervals -------------------------------------------------------
    let mut intervals: Vec<Interval> = Vec::new();
    for (v, range) in ranges.iter().enumerate() {
        // Dead call results and dead trapping defs get no location; the
        // emitter computes them into a scratch.
        let is_param = matches!(ir.nodes[v], Node::Param { .. });
        if range.start == NONE || (!range.used && !is_param) {
            continue;
        }
        let ty = ir.types[v];
        intervals.push(Interval {
            value: ValueId(v as u32),
            start: range.start,
            end: range.end,
            float: ty.is_float(),
            reference: ty.is_reference(),
            entry_param: range.entry_param,
        });
    }
    intervals.sort_by_key(|iv| (iv.start, iv.value));

    // ---- Allocation hints: a parameter prefers its first argument's
    // register, which coalesces loop-carried moves. -----------------------
    let mut hints: Vec<Option<ValueId>> = vec![None; ir.nodes.len()];
    for &b in order {
        ir.blocks[b.index()].term.for_each_edge(|e| {
            let params = &ir.blocks[e.target.index()].params;
            for (&p, &a) in params.iter().zip(&e.args) {
                hints[ir.resolve(p).index()].get_or_insert(ir.resolve(a));
            }
        });
    }

    // ---- Linear scan -----------------------------------------------------
    let mut locs: Vec<Option<Loc>> = vec![None; ir.nodes.len()];
    let mut free_gprs: Vec<Reg> = ALLOC_GPRS.rev().map(Reg).collect();
    let mut free_fprs: Vec<FReg> = ALLOC_FPRS.rev().map(FReg).collect();
    // (end, value, reg) of currently live register-resident intervals.
    let mut active: Vec<(u32, ValueId, AnyReg)> = Vec::new();
    // Spill slots are reused once their occupant's range has ended.
    // OSR entry stubs read the interpreter operand region as their move
    // sources, and the engine requires the optimized frame to cover the
    // interpreter frame it replaces, so reserve that region as well when any
    // OSR site exists.
    let spill_base = ir.num_locals() as u32
        + if ir.has_flush_probes || !ir.osr_sites.is_empty() {
            ir.max_stack
        } else {
            0
        };
    let mut slots = SpillSlots::default();
    let spill = |iv: &Interval, slots: &mut SpillSlots, locs: &mut [Option<Loc>]| {
        // Function parameters already live in their home slots; reuse them
        // unless probe flushes could overwrite them mid-function.
        if let Some(i) = iv.entry_param {
            if !ir.has_flush_probes {
                locs[iv.value.index()] = Some(Loc::Slot(i));
                return;
            }
        }
        let slot = slots.take(iv.start, iv.end);
        locs[iv.value.index()] = Some(Loc::Slot(spill_base + slot as u32));
    };

    for iv in &intervals {
        // Expire finished intervals.
        active.retain(|&(e, _, reg)| {
            if e < iv.start {
                match reg {
                    AnyReg::Gpr(r) => free_gprs.push(r),
                    AnyReg::Fpr(r) => free_fprs.push(r),
                }
                false
            } else {
                true
            }
        });
        if iv.reference {
            spill(iv, &mut slots, &mut locs);
            continue;
        }
        // Hint: take the first incoming argument's register when free.
        let hinted: Option<AnyReg> = hints[iv.value.index()]
            .and_then(|h| locs[ir.resolve(h).index()])
            .and_then(|l| match l {
                Loc::Reg(r) => Some(r),
                Loc::Slot(_) => None,
            });
        let reg: Option<AnyReg> = if iv.float {
            match hinted {
                Some(AnyReg::Fpr(h)) if free_fprs.contains(&h) => {
                    free_fprs.retain(|r| *r != h);
                    Some(AnyReg::Fpr(h))
                }
                _ => free_fprs.pop().map(AnyReg::Fpr),
            }
        } else {
            match hinted {
                Some(AnyReg::Gpr(h)) if free_gprs.contains(&h) => {
                    free_gprs.retain(|r| *r != h);
                    Some(AnyReg::Gpr(h))
                }
                _ => free_gprs.pop().map(AnyReg::Gpr),
            }
        };
        match reg {
            Some(reg) => {
                locs[iv.value.index()] = Some(Loc::Reg(reg));
                active.push((iv.end, iv.value, reg));
            }
            None => {
                // Pressure: evict the same-bank active interval that ends
                // furthest away if it outlasts this one, else spill this one.
                let victim = active
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, _, r))| r.is_float() == iv.float)
                    .max_by_key(|(_, (e, _, _))| *e)
                    .map(|(i, _)| i);
                match victim {
                    Some(vi) if active[vi].0 > iv.end => {
                        let (vend, vval, vreg) = active.remove(vi);
                        // The victim's slot must be free from its *definition*
                        // (where the emitter stores spilled values), not from
                        // the eviction point — a slot vacated in between
                        // would overlap the victim's real slot lifetime.
                        let vrange = &ranges[vval.index()];
                        let victim_iv = Interval {
                            value: vval,
                            start: vrange.start,
                            end: vend,
                            float: iv.float,
                            reference: false,
                            entry_param: vrange.entry_param,
                        };
                        spill(&victim_iv, &mut slots, &mut locs);
                        locs[iv.value.index()] = Some(Loc::Reg(vreg));
                        active.push((iv.end, iv.value, vreg));
                    }
                    _ => spill(iv, &mut slots, &mut locs),
                }
            }
        }
    }

    Allocation {
        locs,
        spill_base,
        num_spill_slots: slots.len() as u32,
    }
}

/// Calls `f` for every value an instruction defines.
fn for_each_def(inst: &Inst, mut f: impl FnMut(ValueId)) {
    match inst {
        Inst::Def(v) => f(*v),
        Inst::Call { results, .. } | Inst::CallIndirect { results, .. } => {
            results.iter().for_each(|&r| f(r));
        }
        _ => {}
    }
}

/// Debug check: the terminator of `block` only branches to blocks whose
/// parameter count matches the edge's argument count.
#[cfg(debug_assertions)]
pub fn check_edges(ir: &FuncIr) {
    let reach = ir.reachable();
    for (bi, block) in ir.blocks.iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        block.term.for_each_edge(|e| {
            debug_assert_eq!(
                e.args.len(),
                ir.blocks[e.target.index()].params.len(),
                "edge b{bi} -> {} arity mismatch\n{}",
                e.target,
                ir.display()
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frontend, layout, opt};
    use interp::profile::FuncProfile;
    use spc::{ProbeMode, ProbeSites};
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::opcode::Opcode;
    use wasm::types::{BlockType, FuncType, ValueType};
    use wasm::validate::validate;

    fn alloc_of(
        params: Vec<ValueType>,
        results: Vec<ValueType>,
        code: CodeBuilder,
    ) -> (FuncIr, Vec<BlockId>, Allocation) {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(FuncType::new(params, results), vec![], code.finish());
        let module = b.finish();
        let info = validate(&module).unwrap();
        let mut ir = frontend::build(
            &module,
            f,
            &info.funcs[0],
            &ProbeSites::none(),
            ProbeMode::Optimized,
            false,
            false,
        )
        .unwrap();
        opt::optimize(&mut ir);
        let order = layout::layout(&ir, &FuncProfile::empty());
        let alloc = allocate(&ir, &order);
        (ir, order, alloc)
    }

    #[test]
    fn loop_carried_locals_get_registers() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .loop_(BlockType::Empty)
            .local_get(0)
            .op(Opcode::I32Eqz)
            .br_if(1)
            .local_get(1)
            .local_get(0)
            .op(Opcode::I32Add)
            .local_set(1)
            .local_get(0)
            .i32_const(1)
            .op(Opcode::I32Sub)
            .local_set(0)
            .br(0)
            .end()
            .end()
            .local_get(1);
        let (ir, _, alloc) = alloc_of(
            vec![ValueType::I32, ValueType::I32],
            vec![ValueType::I32],
            c,
        );
        // Every allocated value is in a register: tiny function, no
        // pressure.
        assert!(alloc.locs.iter().any(Option::is_some));
        for (v, loc) in alloc.locs.iter().enumerate() {
            assert!(
                matches!(loc, None | Some(Loc::Reg(_))),
                "v{v} spilled with no pressure: {loc:?}\n{}",
                ir.display()
            );
        }
        assert_eq!(alloc.num_spill_slots, 0);
    }

    #[test]
    fn distinct_live_values_get_distinct_registers() {
        let mut c = CodeBuilder::new();
        // Keep 5 values alive simultaneously.
        c.local_get(0)
            .local_get(0)
            .i32_const(1)
            .op(Opcode::I32Add)
            .local_get(0)
            .i32_const(2)
            .op(Opcode::I32Add)
            .local_get(0)
            .i32_const(3)
            .op(Opcode::I32Add)
            .op(Opcode::I32Mul)
            .op(Opcode::I32Mul)
            .op(Opcode::I32Mul);
        let (ir, order, alloc) = alloc_of(vec![ValueType::I32], vec![ValueType::I32], c);
        // Walk positions: at any definition the registers of live values are
        // unique. A cheap proxy: values whose intervals overlap share no
        // register. Recompute intervals via a second allocate call is
        // overkill; instead assert no two *simultaneously used* operands
        // alias. The multiplications use distinct operands:
        let _ = order;
        let reg_count = alloc
            .locs
            .iter()
            .filter(|l| matches!(l, Some(Loc::Reg(_))))
            .count();
        assert!(reg_count >= 4, "{:?}\n{}", alloc.locs, ir.display());
    }

    /// The tree hands out exactly the slots a scan of every slot's end would:
    /// the lowest-index one free before the start, else a new one — also
    /// when a start goes back in time, as an evicted value's does.
    #[test]
    fn spill_slots_match_a_scan_of_every_slot() {
        let mut slots = SpillSlots::default();
        let mut ends: Vec<u32> = Vec::new();
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % bound) as u32
        };
        for clock in 0..5_000u32 {
            // Mostly forward in time, sometimes back.
            let start = clock.saturating_sub(next(4) * next(200));
            let end = start + next(300);
            let expected = match ends.iter().position(|&e| e < start) {
                Some(i) => i,
                None => {
                    ends.push(0);
                    ends.len() - 1
                }
            };
            ends[expected] = end;
            assert_eq!(slots.take(start, end), expected, "spill {clock}: [{start}, {end}]");
        }
        assert_eq!(slots.len(), ends.len());
        assert!(ends.len() > 16, "the walk never grew the tree: {} slots", ends.len());
    }

    #[test]
    fn reference_values_stay_in_slots() {
        let mut c = CodeBuilder::new();
        c.local_get(0).op(Opcode::RefIsNull);
        let (_, _, alloc) = alloc_of(vec![ValueType::ExternRef], vec![ValueType::I32], c);
        let has_slot_ref = alloc
            .locs
            .iter()
            .any(|l| matches!(l, Some(Loc::Slot(_))));
        assert!(has_slot_ref, "{:?}", alloc.locs);
    }
}
