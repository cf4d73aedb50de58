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
use std::collections::hash_map::{Entry, HashMap, RandomState};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// The most rounds [`optimize`] runs on one function.
const MAX_ROUNDS: usize = 3;

/// Runs the full pass pipeline to a (bounded) fixpoint.
pub fn optimize(ir: &mut FuncIr) {
    let mut reachable = ir.reachable();
    for round in 1.. {
        let folded_late = fold(ir, &reachable);
        // Folding a branch is the only thing that changes the graph, so one
        // index serves the rest of the round and the next round's folding.
        let edges = ir.edge_index();
        let to_const = simplify_params(ir, &edges);
        let shared = cse(ir, &edges.reachable);
        dce(ir, &edges);
        if !another_round(round, folded_late, to_const, shared) {
            break;
        }
        reachable = edges.reachable;
    }
}

/// Whether [`optimize`] runs another round after `rounds` of them, given
/// the last round's reports: [`fold`] folded a value after a block it had
/// visited read it, [`simplify_params`] aliased a parameter to a constant,
/// or [`cse`] shared a value that an edge passes or that a definition it
/// had visited read.
///
/// Each report is the one way its pass can give an earlier pass — or
/// itself, in a block it visited first — something new to read; anything
/// else a pass changes is read by the passes after it in the same round.
/// `fold`'s constants, selects and branch folds are seen by the rest of the
/// round, a parameter aliased to a non-constant only helps `cse`, which runs
/// after `simplify_params`, and what `dce` drops — dead or aliased
/// definitions, constants (rematerialized at their uses) and dead or aliased
/// parameters — no pass reads. A round after one that reported nothing
/// would change nothing, so it is not run.
pub fn another_round(rounds: usize, folded_late: bool, to_const: bool, shared: bool) -> bool {
    rounds < MAX_ROUNDS && (folded_late || to_const || shared)
}

/// What `a` stands for, if it is an alias. This is the only way a block
/// reads a value defined in a block numbered after it: the frontend numbers
/// a merge block before the blocks of its construct, and passes the values
/// it receives as parameters, which [`simplify_params`] may alias to them.
/// So a pass that walks blocks in order reads a value it has not visited
/// yet only through an alias.
fn through_alias(ir: &FuncIr, a: ValueId) -> Option<ValueId> {
    let r = ir.resolve(a);
    (r != a).then_some(r)
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
/// blocks `reachable` marks. Returns whether it folded a value that a block
/// it had already visited read (through an alias) before it was a constant,
/// which only the next round's `fold` can use.
#[allow(clippy::needless_range_loop)] // blocks are mutated while indexed
pub fn fold(ir: &mut FuncIr, reachable: &[bool]) -> bool {
    // What was read through an alias while not a constant.
    let mut unfolded = Vec::new();
    let mut note = |ir: &FuncIr, a: ValueId| {
        if let Some(r) = through_alias(ir, a).filter(|&r| ir.as_const(r).is_none()) {
            unfolded.push(r);
        }
    };
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
            ir.nodes[v.index()].for_each_arg(|a| note(ir, a));
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
        if let Terminator::Branch { cond, .. } = ir.blocks[bi].term {
            note(ir, cond);
        }
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
    unfolded.iter().any(|&v| ir.as_const(v).is_some())
}

/// Removes block parameters whose incoming arguments all resolve to the
/// same value (trivial phis), aliasing the parameter to it. Returns whether
/// a parameter now stands for a constant, which [`fold`] can use.
pub fn simplify_params(ir: &mut FuncIr, edges: &EdgeIndex) -> bool {
    let mut to_const = false;
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
            to_const |= ir.as_const(p).is_some();
        }
    }
    to_const
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
/// made one block of N distinct definitions cost N²/2 comparisons. Returns
/// whether it shared a value that an edge passes, which can make the
/// edge's parameter trivial for [`simplify_params`], or that a definition
/// it had already visited read through an alias, whose node the next
/// round's `cse` sees change.
///
/// The tables hash with a folded multiply keyed once per process: load offsets
/// and global indices come from the module's bytes, so an unkeyed hash
/// would let a module choose keys that collide. The pass only looks keys
/// up and never iterates a table, so its result cannot depend on the key.
#[allow(clippy::needless_range_loop)] // blocks are mutated while indexed
pub fn cse(ir: &mut FuncIr, reachable: &[bool]) -> bool {
    let (mut pure, mut memory, mut globals) =
        (Table::default(), Table::default(), Table::default());
    let mut shared = Vec::new();
    // What was read through an alias.
    let mut read = Vec::new();
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
                    ir.nodes[v.index()].for_each_arg(|a| read.extend(through_alias(ir, a)));
                    match table.entry(node) {
                        Entry::Occupied(prev) => {
                            ir.alias(v, *prev.get());
                            shared.push(v);
                        }
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
    !shared.is_empty()
        && (read.iter().any(|&v| ir.resolve(v) != v) || an_edge_passes(ir, reachable, &shared))
}

/// Whether an edge out of a block `reachable` marks passes an argument that
/// resolves through one of `values`.
fn an_edge_passes(ir: &FuncIr, reachable: &[bool], values: &[ValueId]) -> bool {
    let mut marked = vec![false; ir.nodes.len()];
    for v in values {
        marked[v.index()] = true;
    }
    let through = |mut v: ValueId| loop {
        if marked[v.index()] {
            return true;
        }
        let next = ir.resolved[v.index()];
        if next == v {
            return false;
        }
        v = next;
    };
    let mut passes = false;
    for (bi, block) in ir.blocks.iter().enumerate() {
        if reachable[bi] {
            block
                .term
                .for_each_edge(|e| passes |= e.args.iter().any(|&a| through(a)));
        }
    }
    passes
}

/// One of [`cse`]'s tables: the first value of each resolved node.
type Table = HashMap<Node, ValueId, FoldHash>;

/// Empties one of [`cse`]'s tables in time proportional to what it held.
/// Clearing a hash table touches every bucket, so a table that grew far past
/// its contents — many loads, then a store after each load — is dropped
/// instead.
fn forget(table: &mut Table) {
    if table.capacity() > 64 && table.capacity() > 4 * table.len() {
        *table = Table::default();
    } else {
        table.clear();
    }
}

/// A folded-multiply hash keyed once per process: each word written is
/// XORed into the state, which is then multiplied by a constant to 128 bits
/// and the two halves XORed. SipHash, the standard library's default, cost
/// [`cse`] about twice as much on the benchmark corpus.
#[derive(Clone, Copy)]
struct FoldHash {
    state: u64,
}

impl Default for FoldHash {
    fn default() -> FoldHash {
        static KEY: OnceLock<u64> = OnceLock::new();
        let key = *KEY.get_or_init(|| RandomState::new().build_hasher().finish());
        FoldHash { state: key }
    }
}

impl BuildHasher for FoldHash {
    type Hasher = FoldHash;

    fn build_hasher(&self) -> FoldHash {
        *self
    }
}

impl Hasher for FoldHash {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        // The fractional part of the golden ratio, as in Fibonacci hashing.
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let full = u128::from(self.state ^ n) * u128::from(K);
        self.state = (full as u64) ^ ((full >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// Dead-code elimination: removes pure definitions nobody uses, then prunes
/// dead and aliased block parameters together with their edge arguments.
#[allow(clippy::needless_range_loop)] // blocks are mutated while indexed
pub fn dce(ir: &mut FuncIr, edges: &EdgeIndex) {
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

    // Drop aliased and dead pure definitions.
    for bi in 0..ir.blocks.len() {
        if !reachable[bi] {
            continue;
        }
        let nodes = &ir.nodes;
        let resolved = &ir.resolved;
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
            // Re-index the surviving parameters.
            for (new_index, &p) in params.iter().enumerate() {
                if let Node::Param { index, .. } = &mut nodes[p.index()] {
                    *index = new_index as u32;
                }
            }
        }
    }
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

    /// Both edges into the block's merge pass `local 1`, which the block
    /// assigns: the constant 5 on either path. Only once `simplify_params`
    /// has aliased the merge's parameter to it can `fold` add 1 to it, so
    /// `simplify_params` has to ask for another round.
    #[test]
    fn a_parameter_aliased_to_a_constant_folds_in_the_next_round() {
        let mut c = CodeBuilder::new();
        c.i32_const(5)
            .local_set(1)
            .block(BlockType::Empty)
            .local_get(0)
            .br_if(0)
            .local_get(1)
            .local_set(1)
            .end()
            .local_get(1)
            .i32_const(1)
            .op(Opcode::I32Add);
        let ir = build_opt(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32], c);
        assert_eq!(count_ops(&ir, |_| true), 0, "{}", ir.display());
    }

    /// The block's merge gets the first of two equal loads from its
    /// fall-through and the second from its `br_if`: only once `cse` has
    /// shared them is the merge's parameter trivial, so `cse` has to ask for
    /// another round.
    #[test]
    fn a_shared_edge_argument_lets_its_parameter_go_in_the_next_round() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Value(ValueType::I32))
            .local_get(0)
            .mem(Opcode::I32Load, 2, 0)
            .local_get(0)
            .mem(Opcode::I32Load, 2, 0)
            .local_get(1)
            .br_if(0)
            .drop_()
            .end();
        let ir = build_opt(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32], c);
        let reach = ir.reachable();
        for (bi, block) in ir.blocks.iter().enumerate() {
            if reach[bi] && bi != 0 {
                assert!(block.params.is_empty(), "{}", ir.display());
            }
        }
    }

    /// `x = a + 1` is computed in the inner block's merge (block 2) and
    /// read, as `local 3`, in the outer block's merge (block 1), which
    /// `fold` visits first. `a` is the constant 5 only once the first round
    /// has aliased the inner merge's parameter to it, so `x` folds in the
    /// second round after its reader was visited, and `fold` has to ask for
    /// a third.
    #[test]
    fn a_fold_in_a_later_block_reaches_an_earlier_one_in_the_next_round() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .block(BlockType::Empty)
            .i32_const(5)
            .local_set(2)
            .end()
            .local_get(2)
            .i32_const(1)
            .op(Opcode::I32Add)
            .local_set(3)
            .end()
            .local_get(3)
            .i32_const(2)
            .op(Opcode::I32Mul);
        let ir = build_opt(vec![ValueType::I32; 4], vec![ValueType::I32], c);
        assert_eq!(count_ops(&ir, |_| true), 0, "{}", ir.display());
    }

    /// In the inner block's merge (block 2), `x = s + n` reads a `select`
    /// of `m` that folds in the second round, which makes `x` equal to the
    /// earlier `w = m + n`. The outer block's merge (block 1), which `cse`
    /// visits first, multiplies each of them by `n` through parameters the
    /// first round aliased and pruned: the two products are one value only
    /// once `x` is shared with `w`, so `cse` has to ask for a third round.
    #[test]
    fn a_share_in_a_later_block_reaches_an_earlier_one_in_the_next_round() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .block(BlockType::Empty)
            .i32_const(1)
            .local_set(2)
            .end()
            .local_get(0)
            .local_get(1)
            .op(Opcode::I32Add)
            .local_set(3)
            .local_get(0)
            .local_get(1)
            .local_get(2)
            .select()
            .local_get(1)
            .op(Opcode::I32Add)
            .local_set(4)
            .end()
            .local_get(4)
            .local_get(1)
            .op(Opcode::I32Mul)
            .local_get(3)
            .local_get(1)
            .op(Opcode::I32Mul)
            .op(Opcode::I32Add);
        let ir = build_opt(vec![ValueType::I32; 5], vec![ValueType::I32], c);
        let muls = count_ops(&ir, |cl| matches!(cl, OpClass::Alu(AluOp::Mul, _)));
        assert_eq!(muls, 1, "{}", ir.display());
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
