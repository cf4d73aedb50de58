//! The optimizing tier's per-value bookkeeping as it was before it went
//! dense — the reference the rebuilt passes are held to.
//!
//! `allocate`, `simplify_params` and `dce` below are the previous
//! implementations moved here verbatim (hash-set liveness fixpoint, one
//! `HashMap<usize, Vec<Vec<ValueId>>>` of copied edge arguments per pass and
//! round, reachability recomputed per pass) — but for one marked correction
//! to the fixpoint's per-edge parameter rule. [`check_module`] compiles every
//! function of a module through both and asserts the same IR after
//! `optimize` and the same location for every value. It lives in a
//! directory module so the root package's generated-program tests can run
//! it too (`#[path]`).

#![allow(dead_code)] // each including test uses its own subset

use interp::profile::FuncProfile;
use optc::ir::{BlockId, Effect, FuncIr, Inst, Node, Terminator, ValueId};
use optc::regalloc::Loc;
use optc::{frontend, layout, opt, regalloc};
use machine::reg::{AnyReg, FReg, Reg};
use spc::{ProbeMode, ProbeSites};
use std::collections::{HashMap, HashSet};
use wasm::module::Module;
use wasm::validate::validate;

const ALLOC_GPRS: std::ops::RangeInclusive<u8> = 1..=11;
const ALLOC_FPRS: std::ops::RangeInclusive<u8> = 1..=13;

/// The reference allocation result.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Location of every allocated (live, non-constant) value.
    pub locs: HashMap<ValueId, Loc>,
    /// First frame slot of the spill area.
    pub spill_base: u32,
    /// Number of spill slots used.
    pub num_spill_slots: u32,
}

// ---- Reference register allocator (verbatim) ---------------------------------

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

/// Allocates every live value of `ir` (in `order` layout) to a register or
/// spill slot.
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

    // ---- Liveness --------------------------------------------------------
    let mut live_in: Vec<HashSet<ValueId>> = vec![HashSet::new(); ir.blocks.len()];
    loop {
        let mut changed = false;
        for &b in order.iter().rev() {
            let block = &ir.blocks[b.index()];
            let mut live: HashSet<ValueId> = HashSet::new();
            // The one departure from the code as it shipped, which removed
            // the target's parameters from the running union — so an edge
            // to a loop header listed after an edge to an in-loop merge
            // dropped a header parameter the merge still needs, and the
            // value's register could be handed out in a predecessor laid
            // out later (`tests/differential.rs` has the miscompile). A
            // target's parameters come off that target's contribution only.
            block.term.for_each_edge(|e| {
                let params: HashSet<ValueId> =
                    ir.blocks[e.target.index()].params.iter().map(|&p| ir.resolve(p)).collect();
                live.extend(live_in[e.target.index()].difference(&params));
            });
            block.term.for_each_use(|v| {
                live.insert(ir.resolve(v));
            });
            for inst in block.insts.iter().rev() {
                for_each_def(inst, |d| {
                    live.remove(&ir.resolve(d));
                });
                inst.for_each_use(&ir.nodes, |v| {
                    if !matches!(ir.node(v), Node::Const(_)) {
                        live.insert(ir.resolve(v));
                    }
                });
            }
            for &p in &block.params {
                live.remove(&ir.resolve(p));
            }
            if live != live_in[b.index()] {
                live_in[b.index()] = live;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // ---- Intervals -------------------------------------------------------
    let mut start: HashMap<ValueId, u32> = HashMap::new();
    let mut end: HashMap<ValueId, u32> = HashMap::new();
    let mut entry_param: HashMap<ValueId, u32> = HashMap::new();
    let mut used: HashSet<ValueId> = HashSet::new();

    for &b in order {
        let bi = b.index();
        let block = &ir.blocks[bi];
        let s = block_start[bi];
        let e = block_end[bi];
        for (i, &p) in block.params.iter().enumerate() {
            if ir.resolve(p) != p {
                continue;
            }
            start.entry(p).or_insert(s);
            end.entry(p).or_insert(s);
            if b == ir.entry() {
                entry_param.insert(p, i as u32);
            }
        }
        // Live-out extension: anything live into a successor survives to the
        // end of this block.
        block.term.for_each_edge(|edge| {
            for v in &live_in[edge.target.index()] {
                let entry = end.entry(*v).or_insert(e);
                *entry = (*entry).max(e);
            }
        });
        for (offset, inst) in block.insts.iter().enumerate() {
            let p = s + 1 + offset as u32;
            inst.for_each_use(&ir.nodes, |v| {
                let v = ir.resolve(v);
                if matches!(ir.node(v), Node::Const(_)) {
                    return;
                }
                used.insert(v);
                let entry = end.entry(v).or_insert(p);
                *entry = (*entry).max(p);
            });
            for_each_def(inst, |d| {
                if ir.resolve(d) != d || matches!(ir.nodes[d.index()], Node::Const(_)) {
                    return;
                }
                start.entry(d).or_insert(p);
                end.entry(d).or_insert(p);
            });
        }
        block.term.for_each_use(|v| {
            let v = ir.resolve(v);
            if matches!(ir.node(v), Node::Const(_)) {
                return;
            }
            used.insert(v);
            let entry = end.entry(v).or_insert(e);
            *entry = (*entry).max(e);
        });
    }

    let mut intervals: Vec<Interval> = Vec::new();
    for (&v, &s) in &start {
        // Dead call results and dead trapping defs get no location; the
        // emitter computes them into a scratch.
        let is_param = matches!(ir.nodes[v.index()], Node::Param { .. });
        if !used.contains(&v) && !is_param {
            continue;
        }
        let ty = ir.types[v.index()];
        intervals.push(Interval {
            value: v,
            start: s,
            end: *end.get(&v).unwrap_or(&s),
            float: ty.is_float(),
            reference: ty.is_reference(),
            entry_param: entry_param.get(&v).copied(),
        });
    }
    intervals.sort_by_key(|iv| (iv.start, iv.value));

    // ---- Allocation hints: a parameter prefers its first argument's
    // register, which coalesces loop-carried moves. -----------------------
    let mut hints: HashMap<ValueId, ValueId> = HashMap::new();
    for &b in order {
        ir.blocks[b.index()].term.for_each_edge(|e| {
            let params = &ir.blocks[e.target.index()].params;
            for (&p, &a) in params.iter().zip(&e.args) {
                let p = ir.resolve(p);
                let a = ir.resolve(a);
                hints.entry(p).or_insert(a);
            }
        });
    }

    // ---- Linear scan -----------------------------------------------------
    let mut locs: HashMap<ValueId, Loc> = HashMap::new();
    let mut free_gprs: Vec<Reg> = ALLOC_GPRS.rev().map(Reg).collect();
    let mut free_fprs: Vec<FReg> = ALLOC_FPRS.rev().map(FReg).collect();
    // (end, value, reg) of currently live register-resident intervals.
    let mut active: Vec<(u32, ValueId, AnyReg)> = Vec::new();
    // Spill slots: last position each slot is occupied to, for reuse.
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
    let mut slot_ends: Vec<u32> = Vec::new();
    let spill = |iv: &Interval, slot_ends: &mut Vec<u32>, locs: &mut HashMap<ValueId, Loc>| {
        // Function parameters already live in their home slots; reuse them
        // unless probe flushes could overwrite them mid-function.
        if let Some(i) = iv.entry_param {
            if !ir.has_flush_probes {
                locs.insert(iv.value, Loc::Slot(i));
                return;
            }
        }
        let slot = match slot_ends.iter().position(|&e| e < iv.start) {
            Some(i) => {
                slot_ends[i] = iv.end;
                i
            }
            None => {
                slot_ends.push(iv.end);
                slot_ends.len() - 1
            }
        };
        locs.insert(iv.value, Loc::Slot(spill_base + slot as u32));
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
            spill(iv, &mut slot_ends, &mut locs);
            continue;
        }
        // Hint: take the first incoming argument's register when free.
        let hinted: Option<AnyReg> = hints
            .get(&iv.value)
            .and_then(|h| locs.get(&ir.resolve(*h)))
            .and_then(|l| match l {
                Loc::Reg(r) => Some(*r),
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
                locs.insert(iv.value, Loc::Reg(reg));
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
                        let victim_iv = Interval {
                            value: vval,
                            start: start[&vval],
                            end: vend,
                            float: iv.float,
                            reference: false,
                            entry_param: entry_param.get(&vval).copied(),
                        };
                        spill(&victim_iv, &mut slot_ends, &mut locs);
                        locs.insert(iv.value, Loc::Reg(vreg));
                        active.push((iv.end, iv.value, vreg));
                    }
                    _ => spill(iv, &mut slot_ends, &mut locs),
                }
            }
        }
    }

    Allocation {
        locs,
        spill_base,
        num_spill_slots: slot_ends.len() as u32,
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

// ---- Reference passes (verbatim) ---------------------------------------------

/// The reference pass pipeline: the shipped `fold` and `cse` around the
/// reference `simplify_params` and `dce`, each pass computing reachability
/// for itself as it used to.
pub fn optimize(ir: &mut FuncIr) {
    for _ in 0..3 {
        let reachable = ir.reachable();
        opt::fold(ir, &reachable);
        let a = simplify_params(ir);
        let reachable = ir.reachable();
        opt::cse(ir, &reachable);
        let b = dce(ir);
        if !a && !b {
            break;
        }
    }
}

/// Removes block parameters whose incoming arguments all resolve to the
/// same value (trivial phis), aliasing the parameter to it. Returns whether
/// anything changed.
#[allow(clippy::needless_range_loop)] // blocks are mutated while indexed
pub fn simplify_params(ir: &mut FuncIr) -> bool {
    let mut changed = false;
    loop {
        let reachable = ir.reachable();
        // Incoming resolved argument vectors per target block.
        let mut incoming: HashMap<usize, Vec<Vec<ValueId>>> = HashMap::new();
        for (bi, block) in ir.blocks.iter().enumerate() {
            if !reachable[bi] {
                continue;
            }
            block.term.for_each_edge(|e| {
                let args = e.args.iter().map(|&a| ir.resolve(a)).collect();
                incoming.entry(e.target.index()).or_default().push(args);
            });
        }
        let mut round = false;
        for bi in 0..ir.blocks.len() {
            // The entry block's parameters are the function's ABI: never
            // touched.
            if !reachable[bi] || bi == ir.entry().index() {
                continue;
            }
            let Some(edges) = incoming.get(&bi) else {
                continue;
            };
            let params = ir.blocks[bi].params.clone();
            for (pi, &p) in params.iter().enumerate() {
                if ir.resolve(p) != p {
                    continue;
                }
                // The unique incoming value, ignoring self-references
                // (back edges passing the parameter to itself).
                let mut unique: Option<ValueId> = None;
                let mut trivial = true;
                for args in edges {
                    let a = args[pi];
                    if a == p {
                        continue;
                    }
                    match unique {
                        None => unique = Some(a),
                        Some(u) if u == a => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    if let Some(u) = unique {
                        ir.alias(p, u);
                        round = true;
                    }
                }
            }
        }
        if !round {
            break;
        }
        changed = true;
    }
    changed
}

/// Dead-code elimination: removes pure definitions nobody uses, then prunes
/// dead and aliased block parameters together with their edge arguments.
/// Returns whether anything changed.
#[allow(clippy::needless_range_loop)] // blocks are mutated while indexed
pub fn dce(ir: &mut FuncIr) -> bool {
    let reachable = ir.reachable();

    // Liveness over values: roots are required instructions and terminator
    // operands; a live parameter makes its incoming edge arguments live.
    let mut live: HashSet<ValueId> = HashSet::new();
    let mut worklist: Vec<ValueId> = Vec::new();
    let mark = |live: &mut HashSet<ValueId>, worklist: &mut Vec<ValueId>, v: ValueId| {
        if live.insert(v) {
            worklist.push(v);
        }
    };
    // Incoming edges per block for param → arg propagation.
    let mut incoming: HashMap<usize, Vec<Vec<ValueId>>> = HashMap::new();
    for (bi, block) in ir.blocks.iter().enumerate() {
        if !reachable[bi] {
            continue;
        }
        block.term.for_each_edge(|e| {
            incoming
                .entry(e.target.index())
                .or_default()
                .push(e.args.clone());
        });
    }
    for (bi, block) in ir.blocks.iter().enumerate() {
        if !reachable[bi] {
            continue;
        }
        for inst in &block.insts {
            if inst.is_required(&ir.nodes) {
                inst.for_each_use(&ir.nodes, |v| {
                    mark(&mut live, &mut worklist, ir.resolve(v))
                });
                // Live calls keep their used results via the results' own
                // uses; nothing to do here.
            }
        }
        match &block.term {
            Terminator::Branch { cond, .. } => mark(&mut live, &mut worklist, ir.resolve(*cond)),
            Terminator::BrTable { index, .. } => {
                mark(&mut live, &mut worklist, ir.resolve(*index))
            }
            Terminator::Return(values) => {
                for &v in values {
                    mark(&mut live, &mut worklist, ir.resolve(v));
                }
            }
            Terminator::Jump(_) | Terminator::Trap { .. } => {}
        }
    }
    while let Some(v) = worklist.pop() {
        match ir.nodes[v.index()].clone() {
            Node::Param { block, index } => {
                if let Some(edges) = incoming.get(&block.index()) {
                    for args in edges {
                        if let Some(&a) = args.get(index as usize) {
                            mark(&mut live, &mut worklist, ir.resolve(a));
                        }
                    }
                }
            }
            node => node.for_each_arg(|a| mark(&mut live, &mut worklist, ir.resolve(a))),
        }
    }

    let mut changed = false;

    // Drop aliased and dead pure definitions.
    for bi in 0..ir.blocks.len() {
        if !reachable[bi] {
            continue;
        }
        let nodes = &ir.nodes;
        let resolved = &ir.resolved;
        let before = ir.blocks[bi].insts.len();
        ir.blocks[bi].insts.retain(|inst| match inst {
            Inst::Def(v) => {
                if resolved[v.index()] != *v {
                    return false;
                }
                match nodes[v.index()] {
                    // Constants are rematerialized at use sites.
                    Node::Const(_) => false,
                    _ => live.contains(v) || nodes[v.index()].effect() != Effect::Pure,
                }
            }
            _ => true,
        });
        changed |= ir.blocks[bi].insts.len() != before;
    }

    // Prune dead or aliased parameters and the matching edge arguments.
    let mut keep: HashMap<usize, Vec<bool>> = HashMap::new();
    for bi in 0..ir.blocks.len() {
        if !reachable[bi] || bi == ir.entry().index() {
            continue;
        }
        let mask: Vec<bool> = ir.blocks[bi]
            .params
            .iter()
            .map(|&p| ir.resolve(p) == p && live.contains(&p))
            .collect();
        if mask.iter().any(|k| !k) {
            keep.insert(bi, mask);
        }
    }
    if !keep.is_empty() {
        changed = true;
        for (bi, mask) in &keep {
            let mut kept = Vec::new();
            for (i, &p) in ir.blocks[*bi].params.iter().enumerate() {
                if mask[i] {
                    kept.push(p);
                }
            }
            // Re-index the surviving parameters.
            for (new_index, &p) in kept.iter().enumerate() {
                if let Node::Param { index, .. } = &mut ir.nodes[p.index()] {
                    *index = new_index as u32;
                }
            }
            ir.blocks[*bi].params = kept;
        }
        for bi in 0..ir.blocks.len() {
            if !reachable[bi] {
                continue;
            }
            ir.blocks[bi].term.for_each_edge_mut(|e| {
                if let Some(mask) = keep.get(&e.target.index()) {
                    let mut i = 0;
                    e.args.retain(|_| {
                        let k = mask[i];
                        i += 1;
                        k
                    });
                }
            });
        }
    }
    changed
}


// ---- The comparison ---------------------------------------------------------

/// The compiler configurations whose IR differs: plain, metered (fuel and
/// epoch checks are immovable instructions), OSR (entry blocks are roots
/// outside the graph and reserve the operand region), and runtime probes at
/// every site the engine's branch monitor instruments (`has_flush_probes`
/// moves `spill_base` and disables home slots).
const VARIANTS: [(&str, bool, bool, bool); 4] = [
    ("default", false, false, false),
    ("metering", true, false, false),
    ("osr", false, true, false),
    ("runtime-probes", false, false, true),
];

/// Compiles every function of `module` under each variant through the
/// shipped passes and the reference ones and asserts they agree: the same
/// IR after `optimize`, and the same `loc(v)` for every value, `spill_base`
/// and `num_spill_slots` out of `allocate`.
pub fn check_module(module: &Module, what: &str) {
    let info = validate(module).unwrap_or_else(|e| panic!("{what}: {e:?}"));
    let branch_monitor = engine::Instrumentation::branch_monitor(module);
    for defined in 0..module.funcs.len() as u32 {
        let func_index = module.defined_to_func_index(defined);
        for (variant, metering, osr, probes) in VARIANTS {
            let what = format!("{what} function {func_index} ({variant})");
            let (sites, mode) = if probes {
                (branch_monitor.sites_for(func_index), ProbeMode::Runtime)
            } else {
                (ProbeSites::none(), ProbeMode::Optimized)
            };
            let built = frontend::build(
                module,
                func_index,
                &info.funcs[defined as usize],
                &sites,
                mode,
                metering,
                osr,
            )
            .unwrap_or_else(|e| panic!("{what}: {e:?}"));

            let mut ir = built.clone();
            opt::optimize(&mut ir);
            let mut reference = built;
            optimize(&mut reference);
            assert_eq!(ir.blocks, reference.blocks, "{what}: blocks after optimize");
            assert_eq!(ir.nodes, reference.nodes, "{what}: nodes after optimize");
            assert_eq!(ir.resolved, reference.resolved, "{what}: resolution after optimize");

            let order = layout::layout(&ir, &FuncProfile::empty());
            check_allocation(&ir, &order, &what);
            // A second layout — the reverse of every choice the first made
            // where the profile has a say — moves merges ahead of their
            // predecessors, which is where interval ends come from liveness
            // and not from a later read.
            let mut flipped = FuncProfile::empty();
            for block in &ir.blocks {
                if let Terminator::Branch { offset, natural_then, .. } = &block.term {
                    flipped.record(*offset, !*natural_then, 100);
                }
            }
            let order = layout::layout(&ir, &flipped);
            check_allocation(&ir, &order, &format!("{what}, flipped layout"));
        }
    }
}

/// Asserts the shipped `allocate` and the reference agree on `ir` laid out
/// in `order`.
pub fn check_allocation(ir: &FuncIr, order: &[BlockId], what: &str) {
    let shipped = regalloc::allocate(ir, order);
    let reference = allocate(ir, order);
    assert_eq!(shipped.spill_base, reference.spill_base, "{what}: spill_base");
    assert_eq!(shipped.num_spill_slots, reference.num_spill_slots, "{what}: num_spill_slots");
    for v in (0..ir.nodes.len() as u32).map(ValueId) {
        assert_eq!(
            shipped.loc(ir, v),
            reference.locs.get(&ir.resolve(v)).copied(),
            "{what}: location of {v}\n{}",
            ir.display()
        );
    }
}
