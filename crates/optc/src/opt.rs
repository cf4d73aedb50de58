//! The optimization pipeline: constant folding, branch folding, trivial
//! block-parameter removal (copy propagation across merges), local common
//! subexpression and redundant-load elimination, and dead-code elimination.
//!
//! All passes communicate through [`FuncIr::resolved`] aliasing: a pass that
//! proves two values equal redirects one to the other, and later passes (and
//! the emitter) read through [`FuncIr::resolve`]. Nothing ever rewrites use
//! lists, which keeps every pass linear and simple.
//!
//! Semantics guardrails, shared with the baseline compiler and interpreter:
//!
//! * folding evaluates through the one
//!   [`OpClass::evaluate`](machine::lower::OpClass::evaluate) table all
//!   tiers use, so folded results are bit-identical to execution;
//! * an operation whose folding would *trap* is left in place so the trap
//!   still happens at runtime;
//! * trapping operations (division, checked conversions, memory loads) are
//!   never dead-code-eliminated — a dropped result does not drop the trap —
//!   but two identical ones can share a result;
//! * loads are only shared within a block and are invalidated by stores,
//!   `memory.grow`, and calls; global reads likewise by writes and calls.

use crate::ir::{BlockId, EdgeIndex, Effect, FuncIr, Inst, Node, Terminator, ValueId};
use std::collections::hash_map::{Entry, HashMap};

/// Runs the full pass pipeline to a (bounded) fixpoint.
pub fn optimize(ir: &mut FuncIr) {
    // Each round enables the next: folding a branch exposes trivial params,
    // removing params exposes constants, and so on. Three rounds reach the
    // fixpoint on everything the test corpus contains; more never hurts
    // correctness, only compile time.
    let mut reachable = ir.reachable();
    for _ in 0..3 {
        fold(ir, &reachable);
        // Folding a branch is the only thing that changes the graph, so one
        // index serves the rest of the round and the next round's folding.
        let edges = ir.edge_index();
        let a = simplify_params(ir, &edges);
        cse(ir, &edges.reachable);
        let b = dce(ir, &edges);
        if !a && !b {
            break;
        }
        reachable = edges.reachable;
    }
}

/// A node with all value operands resolved, for structural comparison.
fn resolved_node(ir: &FuncIr, v: ValueId) -> Node {
    let mut node = ir.nodes[ir.resolve(v).index()].clone();
    match &mut node {
        Node::Op { args, .. } => {
            args[0] = ir.resolve(args[0]);
            args[1] = ir.resolve(args[1]);
        }
        Node::Select {
            cond,
            if_true,
            if_false,
        } => {
            *cond = ir.resolve(*cond);
            *if_true = ir.resolve(*if_true);
            *if_false = ir.resolve(*if_false);
        }
        Node::MemLoad { addr, .. } => *addr = ir.resolve(*addr),
        Node::MemoryGrow { delta } => *delta = ir.resolve(*delta),
        _ => {}
    }
    node
}

/// Constant folding over values and branch folding over terminators, in the
/// blocks `reachable` marks.
#[allow(clippy::needless_range_loop)] // blocks are mutated while indexed
pub fn fold(ir: &mut FuncIr, reachable: &[bool]) {
    for bi in 0..ir.blocks.len() {
        if !reachable[bi] {
            continue;
        }
        for ii in 0..ir.blocks[bi].insts.len() {
            let Inst::Def(v) = ir.blocks[bi].insts[ii] else {
                continue;
            };
            if ir.resolve(v) != v {
                continue;
            }
            match resolved_node(ir, v) {
                Node::Op { class, args } => {
                    let arity = class.arity();
                    let mut operands = [0u64; 2];
                    let mut all_const = true;
                    for (i, slot) in operands.iter_mut().enumerate().take(arity) {
                        match ir.as_const(args[i]) {
                            Some(bits) => *slot = bits,
                            None => {
                                all_const = false;
                                break;
                            }
                        }
                    }
                    if all_const {
                        // A folding that would trap stays in the code so the
                        // trap happens during execution, like the baseline.
                        if let Ok(bits) = class.evaluate(&operands[..arity]) {
                            ir.nodes[v.index()] = Node::Const(bits);
                        }
                    }
                }
                Node::Select {
                    cond,
                    if_true,
                    if_false,
                } => {
                    if let Some(c) = ir.as_const(cond) {
                        ir.alias(v, if c != 0 { if_true } else { if_false });
                    }
                }
                _ => {}
            }
        }
        // Branch folding: a constant condition turns the conditional into a
        // jump; the untaken side goes unreachable and is pruned from layout.
        let folded = match &ir.blocks[bi].term {
            Terminator::Branch {
                cond,
                then_edge,
                else_edge,
                ..
            } => ir.as_const(*cond).map(|c| {
                if c != 0 {
                    then_edge.clone()
                } else {
                    else_edge.clone()
                }
            }),
            _ => None,
        };
        if let Some(edge) = folded {
            ir.blocks[bi].term = Terminator::Jump(edge);
        }
    }
}

/// Removes block parameters whose incoming arguments all resolve to the
/// same value (trivial phis), aliasing the parameter to it. Returns whether
/// anything changed.
pub fn simplify_params(ir: &mut FuncIr, edges: &EdgeIndex) -> bool {
    let mut changed = false;
    // Every decision of a round reads the resolution state the round started
    // with, so the aliases it finds are applied together at its end.
    let mut aliases: Vec<(ValueId, ValueId)> = Vec::new();
    loop {
        for (bi, block) in ir.blocks.iter().enumerate() {
            // The entry block's parameters are the function's ABI: never
            // touched.
            if !edges.reachable[bi] || bi == ir.entry().index() {
                continue;
            }
            let incoming = edges.incoming(BlockId(bi as u32));
            for (pi, &p) in block.params.iter().enumerate() {
                if ir.resolve(p) != p {
                    continue;
                }
                // The unique incoming value, ignoring self-references
                // (back edges passing the parameter to itself).
                let mut unique: Option<ValueId> = None;
                let mut trivial = true;
                for &(pred, ordinal) in incoming {
                    let a = ir.resolve(ir.blocks[pred.index()].term.edge(ordinal).args[pi]);
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
                if let (true, Some(u)) = (trivial, unique) {
                    aliases.push((p, u));
                }
            }
        }
        if aliases.is_empty() {
            break;
        }
        for (p, u) in aliases.drain(..) {
            ir.alias(p, u);
        }
        changed = true;
    }
    changed
}

/// Local (per-block) value numbering: shares pure and trapping computations,
/// redundant loads, global reads, and `memory.size` results, with store /
/// grow / call invalidation, in the blocks `reachable` marks.
///
/// What a block has computed so far is looked up by resolved node, in one of
/// three tables by what can kill an entry: nothing (the pure and trapping
/// operations), anything that writes memory (loads and `memory.size`), and
/// anything that writes globals (global reads). A definition costs one hash
/// lookup however long the block is; a linear scan of everything available
/// made one block of N distinct definitions cost N²/2 comparisons.
#[allow(clippy::needless_range_loop)] // blocks are mutated while indexed
pub fn cse(ir: &mut FuncIr, reachable: &[bool]) {
    let (mut pure, mut memory, mut globals) = (HashMap::new(), HashMap::new(), HashMap::new());
    for bi in 0..ir.blocks.len() {
        if !reachable[bi] {
            continue;
        }
        for table in [&mut pure, &mut memory, &mut globals] {
            forget(table);
        }
        for ii in 0..ir.blocks[bi].insts.len() {
            match ir.blocks[bi].insts[ii].clone() {
                Inst::Def(v) => {
                    if ir.resolve(v) != v {
                        continue;
                    }
                    let node = resolved_node(ir, v);
                    if node.effect() == Effect::Effectful {
                        // memory.grow: kills loads and sizes, keeps globals.
                        forget(&mut memory);
                        continue;
                    }
                    let table = match node {
                        Node::Const(_) | Node::Param { .. } | Node::CallResult => continue,
                        Node::MemLoad { .. } | Node::MemorySize => &mut memory,
                        Node::GlobalGet { .. } => &mut globals,
                        _ => &mut pure,
                    };
                    match table.entry(node) {
                        Entry::Occupied(prev) => ir.alias(v, *prev.get()),
                        Entry::Vacant(slot) => {
                            slot.insert(v);
                        }
                    }
                }
                Inst::MemStore { .. } => forget(&mut memory),
                Inst::GlobalSet { index, .. } => {
                    globals.remove(&Node::GlobalGet { index });
                }
                Inst::Call { .. } | Inst::CallIndirect { .. } => {
                    forget(&mut memory);
                    forget(&mut globals);
                }
                Inst::ProbeCounter { .. }
                | Inst::ProbeTos { .. }
                | Inst::ProbeFlush { .. }
                | Inst::FuelCheck { .. }
                | Inst::EpochCheck { .. } => {}
            }
        }
    }
}

/// Empties one of [`cse`]'s tables in time proportional to what it held.
/// Clearing a hash table touches every bucket, so a table that grew far past
/// its contents — many loads, then a store after each load — is dropped
/// instead.
fn forget(table: &mut HashMap<Node, ValueId>) {
    if table.capacity() > 64 && table.capacity() > 4 * table.len() {
        *table = HashMap::new();
    } else {
        table.clear();
    }
}

/// Dead-code elimination: removes pure definitions nobody uses, then prunes
/// dead and aliased block parameters together with their edge arguments.
/// Returns whether anything changed.
#[allow(clippy::needless_range_loop)] // blocks are mutated while indexed
pub fn dce(ir: &mut FuncIr, edges: &EdgeIndex) -> bool {
    let reachable = &edges.reachable;

    // Liveness over values: roots are required instructions and terminator
    // operands; a live parameter makes its incoming edge arguments live.
    let mut live = vec![false; ir.nodes.len()];
    let mut worklist: Vec<ValueId> = Vec::new();
    let mark = |live: &mut [bool], worklist: &mut Vec<ValueId>, v: ValueId| {
        let v = ir.resolve(v);
        if !std::mem::replace(&mut live[v.index()], true) {
            worklist.push(v);
        }
    };
    for (bi, block) in ir.blocks.iter().enumerate() {
        if !reachable[bi] {
            continue;
        }
        for inst in &block.insts {
            // A live call keeps its used results via the results' own uses.
            if inst.is_required(&ir.nodes) {
                inst.for_each_use(&ir.nodes, |v| mark(&mut live, &mut worklist, v));
            }
        }
        match &block.term {
            Terminator::Branch { cond, .. } => mark(&mut live, &mut worklist, *cond),
            Terminator::BrTable { index, .. } => mark(&mut live, &mut worklist, *index),
            Terminator::Return(values) => {
                for &v in values {
                    mark(&mut live, &mut worklist, v);
                }
            }
            Terminator::Jump(_) | Terminator::Trap { .. } => {}
        }
    }
    while let Some(v) = worklist.pop() {
        match &ir.nodes[v.index()] {
            Node::Param { block, index } => {
                for &(pred, ordinal) in edges.incoming(*block) {
                    let args = &ir.blocks[pred.index()].term.edge(ordinal).args;
                    if let Some(&a) = args.get(*index as usize) {
                        mark(&mut live, &mut worklist, a);
                    }
                }
            }
            node => node.for_each_arg(|a| mark(&mut live, &mut worklist, a)),
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
                    _ => live[v.index()] || nodes[v.index()].effect() != Effect::Pure,
                }
            }
            _ => true,
        });
        changed |= ir.blocks[bi].insts.len() != before;
    }

    // Prune dead or aliased parameters and the matching edge arguments: the
    // arguments first, while the targets still list the parameters they
    // belong to. The entry block's parameters are the ABI and all stay.
    let kept = |resolved: &[ValueId], p: ValueId| resolved[p.index()] == p && live[p.index()];
    for bi in 0..ir.blocks.len() {
        if !reachable[bi] {
            continue;
        }
        let mut term = std::mem::replace(&mut ir.blocks[bi].term, Terminator::Return(Vec::new()));
        term.for_each_edge_mut(|e| {
            if e.target != ir.entry() {
                let mut params = ir.blocks[e.target.index()].params.iter();
                e.args.retain(|_| params.next().is_none_or(|&p| kept(&ir.resolved, p)));
            }
        });
        ir.blocks[bi].term = term;
    }
    for bi in 0..ir.blocks.len() {
        if !reachable[bi] || bi == ir.entry().index() {
            continue;
        }
        let FuncIr {
            blocks,
            nodes,
            resolved,
            ..
        } = ir;
        let params = &mut blocks[bi].params;
        let before = params.len();
        params.retain(|&p| kept(resolved, p));
        if params.len() != before {
            changed = true;
            // Re-index the surviving parameters.
            for (new_index, &p) in params.iter().enumerate() {
                if let Node::Param { index, .. } = &mut nodes[p.index()] {
                    *index = new_index as u32;
                }
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;
    use machine::inst::AluOp;
    use machine::lower::OpClass;
    use spc::{ProbeMode, ProbeSites};
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::opcode::Opcode;
    use wasm::types::{BlockType, FuncType, ValueType};
    use wasm::validate::validate;

    fn build_opt(
        params: Vec<ValueType>,
        results: Vec<ValueType>,
        code: CodeBuilder,
    ) -> FuncIr {
        let mut b = ModuleBuilder::new();
        b.add_memory(wasm::types::Limits::at_least(1));
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
        optimize(&mut ir);
        ir
    }

    fn count_ops(ir: &FuncIr, pred: impl Fn(&OpClass) -> bool) -> usize {
        let reach = ir.reachable();
        ir.blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| reach[*i])
            .flat_map(|(_, b)| &b.insts)
            .filter(|inst| match inst {
                Inst::Def(v) => matches!(ir.node(*v), Node::Op { class, .. } if pred(class)),
                _ => false,
            })
            .count()
    }

    #[test]
    fn constants_fold_to_a_single_return() {
        let mut c = CodeBuilder::new();
        c.i32_const(2).i32_const(3).op(Opcode::I32Mul).i32_const(4).op(Opcode::I32Add);
        let ir = build_opt(vec![], vec![ValueType::I32], c);
        assert_eq!(count_ops(&ir, |_| true), 0, "{}", ir.display());
        match &ir.blocks[0].term {
            Terminator::Return(values) => assert_eq!(ir.as_const(values[0]), Some(10)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trapping_fold_is_left_in_place() {
        let mut c = CodeBuilder::new();
        c.i32_const(1).i32_const(0).op(Opcode::I32DivS).drop_().i32_const(9);
        let ir = build_opt(vec![], vec![ValueType::I32], c);
        assert_eq!(
            count_ops(&ir, |cl| matches!(cl, OpClass::Alu(AluOp::DivS, _))),
            1,
            "division by zero must survive folding AND dce:\n{}",
            ir.display()
        );
    }

    #[test]
    fn dead_pure_code_is_removed() {
        let mut c = CodeBuilder::new();
        // add is dropped: pure, removable. The local.get survives as a value
        // but has no instruction.
        c.local_get(0).local_get(0).op(Opcode::I32Add).drop_().i32_const(5);
        let ir = build_opt(vec![ValueType::I32], vec![ValueType::I32], c);
        assert_eq!(count_ops(&ir, |_| true), 0, "{}", ir.display());
    }

    #[test]
    fn redundant_loads_are_shared_within_a_block() {
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .mem(Opcode::I32Load, 2, 0)
            .local_get(0)
            .mem(Opcode::I32Load, 2, 0)
            .op(Opcode::I32Add);
        let ir = build_opt(vec![ValueType::I32], vec![ValueType::I32], c);
        let loads = {
            let reach = ir.reachable();
            ir.blocks
                .iter()
                .enumerate()
                .filter(|(i, _)| reach[*i])
                .flat_map(|(_, b)| &b.insts)
                .filter(|inst| {
                    matches!(inst, Inst::Def(v) if matches!(ir.node(*v), Node::MemLoad { .. })
                        && ir.resolve(*v) == *v)
                })
                .count()
        };
        assert_eq!(loads, 1, "{}", ir.display());
    }

    #[test]
    fn stores_invalidate_loads() {
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .mem(Opcode::I32Load, 2, 0)
            .local_get(0)
            .local_get(1)
            .mem(Opcode::I32Store, 2, 0)
            .local_get(0)
            .mem(Opcode::I32Load, 2, 0)
            .op(Opcode::I32Add);
        let ir = build_opt(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32], c);
        let reach = ir.reachable();
        let loads = ir
            .blocks
            .iter()
            .enumerate()
            .filter(|(i, _)| reach[*i])
            .flat_map(|(_, b)| &b.insts)
            .filter(|inst| {
                matches!(inst, Inst::Def(v) if matches!(ir.node(*v), Node::MemLoad { .. })
                    && ir.resolve(*v) == *v)
            })
            .count();
        assert_eq!(loads, 2, "the store kills the first load:\n{}", ir.display());
    }

    #[test]
    fn constant_branches_fold_away() {
        let mut c = CodeBuilder::new();
        c.i32_const(1)
            .if_(BlockType::Value(ValueType::I32))
            .i32_const(11)
            .else_()
            .i32_const(22)
            .end();
        let ir = build_opt(vec![], vec![ValueType::I32], c);
        let reach = ir.reachable();
        for (bi, block) in ir.blocks.iter().enumerate() {
            if reach[bi] {
                assert!(
                    !matches!(block.term, Terminator::Branch { .. }),
                    "{}",
                    ir.display()
                );
            }
        }
    }

    #[test]
    fn trivial_params_vanish() {
        // A block whose merge receives the same local from both arms.
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .if_(BlockType::Empty)
            .nop()
            .else_()
            .nop()
            .end()
            .local_get(1);
        let ir = build_opt(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32], c);
        let reach = ir.reachable();
        for (bi, block) in ir.blocks.iter().enumerate() {
            if reach[bi] && bi != 0 {
                assert!(
                    block.params.is_empty(),
                    "all params are trivial here:\n{}",
                    ir.display()
                );
            }
        }
    }
}
