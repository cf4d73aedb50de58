//! The SSA intermediate representation of the optimizing tier.
//!
//! The IR is block-parameter-form SSA (the style of Cranelift and MLIR):
//! instead of phi instructions, every merge block declares *parameters* and
//! every incoming edge passes *arguments*. The frontend creates one
//! parameter per live operand-stack entry and per local the merge's
//! construct assigns; the optimizer then deletes the parameters whose
//! arguments agree, which is exactly the removal of trivial phis.
//!
//! Values are immutable and typed. A value's defining [`Node`] is either
//! *pure* (recomputable, removable), *trapping* (read-only but observable —
//! loads, division, checked conversions — which must never be removed or
//! reordered past each other, because eliminating one would eliminate its
//! trap), or *effectful* (`memory.grow`). Stores, calls, and probes are
//! block [`Inst`]s, which keeps every side effect in program order; calls
//! define their results as opaque nodes.
//!
//! The representation deliberately stays close to what [`machine`]'s
//! virtual ISA can express: operations are classified with the same
//! [`OpClass`] table the baseline compiler and the interpreter share, so the
//! optimizer's constant folder evaluates with bit-exact identical semantics
//! to both executing tiers.

use machine::inst::{TrapCode, Width};
use machine::lower::OpClass;
use std::collections::HashMap;
use std::fmt;
use wasm::types::ValueType;

/// A value in the SSA graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// The value's index into the function's value tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block's index into the function's block table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// What defines a value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// The `index`-th parameter of `block` (a phi).
    Param {
        /// The block declaring the parameter.
        block: BlockId,
        /// Position within the block's parameter list.
        index: u32,
    },
    /// A compile-time constant (raw 64-bit slot bits).
    Const(u64),
    /// A classified pure-or-trapping operation (the shared [`OpClass`]
    /// table). Unary operations use only `args[0]`.
    Op {
        /// The operation.
        class: OpClass,
        /// Operand values (`args[1]` is ignored for unary classes).
        args: [ValueId; 2],
    },
    /// `select`: `cond != 0 ? if_true : if_false`.
    Select {
        /// Condition (i32).
        cond: ValueId,
        /// Value when the condition is non-zero.
        if_true: ValueId,
        /// Value when the condition is zero.
        if_false: ValueId,
    },
    /// A linear-memory load (trapping).
    MemLoad {
        /// Address value (i32).
        addr: ValueId,
        /// Constant byte offset.
        offset: u32,
        /// Access width in bytes.
        width: u32,
        /// Sign-extend the loaded integer.
        signed: bool,
        /// Destination width.
        dst_width: Width,
    },
    /// `memory.size` (pure but order-sensitive across `memory.grow`).
    MemorySize,
    /// `memory.grow` (effectful).
    MemoryGrow {
        /// Page delta (i32).
        delta: ValueId,
    },
    /// A global read (order-sensitive across writes and calls).
    GlobalGet {
        /// Global index.
        index: u32,
    },
    /// A result of a call instruction (opaque; defined by the [`Inst`]).
    CallResult,
    /// The value of interpreter-layout frame slot `index` at an OSR entry
    /// (see [`OsrSite`]). Defined only in OSR entry blocks, where the frame
    /// still holds the replaced lower-tier frame's state; the slot index is
    /// part of the node so parameter pruning can never lose the mapping.
    OsrSlot {
        /// Interpreter frame-slot index (locals, then operand stack).
        index: u32,
    },
}

/// How a node interacts with the effect order of its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Freely removable and shareable.
    Pure,
    /// Observable only through a possible trap: must not be removed, but two
    /// identical instances can share one result.
    Trapping,
    /// A real side effect: never removed, never shared.
    Effectful,
}

impl Node {
    /// The node's effect class.
    pub fn effect(&self) -> Effect {
        match self {
            Node::Op { class, .. } => {
                if class.can_trap() {
                    Effect::Trapping
                } else {
                    Effect::Pure
                }
            }
            Node::MemLoad { .. } => Effect::Trapping,
            Node::MemoryGrow { .. } => Effect::Effectful,
            // Reads of mutable state: removable when unused (a dead read has
            // no observable effect), but CSE must respect intervening writes.
            Node::MemorySize | Node::GlobalGet { .. } => Effect::Pure,
            Node::Param { .. }
            | Node::Const(_)
            | Node::Select { .. }
            | Node::CallResult
            | Node::OsrSlot { .. } => Effect::Pure,
        }
    }

    /// Calls `f` for every value operand of the node.
    pub fn for_each_arg(&self, mut f: impl FnMut(ValueId)) {
        match self {
            Node::Op { class, args } => {
                f(args[0]);
                if class.arity() == 2 {
                    f(args[1]);
                }
            }
            Node::Select {
                cond,
                if_true,
                if_false,
            } => {
                f(*cond);
                f(*if_true);
                f(*if_false);
            }
            Node::MemLoad { addr, .. } => f(*addr),
            Node::MemoryGrow { delta } => f(*delta),
            Node::Param { .. }
            | Node::Const(_)
            | Node::MemorySize
            | Node::GlobalGet { .. }
            | Node::CallResult
            | Node::OsrSlot { .. } => {}
        }
    }
}

/// A side-effecting (or value-defining) instruction in a block's ordered
/// instruction list.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Defines `0` from its [`Node`]. Pure and trapping nodes live here so
    /// the block preserves the order of every possible trap.
    Def(ValueId),
    /// A linear-memory store.
    MemStore {
        /// Stored value.
        value: ValueId,
        /// Address value (i32).
        addr: ValueId,
        /// Constant byte offset.
        offset: u32,
        /// Access width in bytes.
        width: u32,
        /// Bytecode offset of the store (source-map anchor: a bounds trap
        /// here must symbolicate to the store instruction).
        src_offset: u32,
    },
    /// A global write.
    GlobalSet {
        /// Global index.
        index: u32,
        /// Stored value.
        value: ValueId,
    },
    /// A direct call.
    Call {
        /// Bytecode offset (source-map anchor for stack traces).
        offset: u32,
        /// Callee function index.
        callee: u32,
        /// Argument values, in signature order.
        args: Vec<ValueId>,
        /// Result values this call defines ([`Node::CallResult`]).
        results: Vec<ValueId>,
    },
    /// An indirect call through a table.
    CallIndirect {
        /// Bytecode offset.
        offset: u32,
        /// Expected signature (type index).
        type_index: u32,
        /// Table index.
        table_index: u32,
        /// Dynamic element index value.
        index: ValueId,
        /// Argument values, in signature order.
        args: Vec<ValueId>,
        /// Result values this call defines.
        results: Vec<ValueId>,
    },
    /// An intrinsified counter probe.
    ProbeCounter {
        /// Counter id.
        counter_id: u32,
        /// Bytecode offset of the probed instruction.
        offset: u32,
        /// Operand-stack height at the probe.
        height: u32,
    },
    /// An optimized top-of-stack probe. `value` is `None` when the operand
    /// stack is empty at the site.
    ProbeTos {
        /// Probe site id.
        probe_id: u32,
        /// The top-of-stack value, if any.
        value: Option<ValueId>,
        /// Bytecode offset of the probed instruction.
        offset: u32,
        /// Operand-stack height at the probe.
        height: u32,
    },
    /// A runtime or direct-call probe. These sites are *observable frames*:
    /// the interpreter frame layout must be reconstructable (for frame
    /// accessors and tier-down), so `flush` lists every `(slot, value)` pair
    /// the emitter must store before the probe — current locals at their
    /// local slots and operand-stack values at `num_locals + position`.
    ProbeFlush {
        /// Probe site id.
        probe_id: u32,
        /// True for a runtime-lookup probe, false for a direct-call probe.
        runtime: bool,
        /// Bytecode offset of the probed instruction.
        offset: u32,
        /// Operand-stack height at the probe.
        height: u32,
        /// `(frame slot, value)` pairs to store before the probe.
        flush: Vec<(u32, ValueId)>,
    },
    /// A fuel decrement-and-check for one charge region. Placed at the
    /// region's first bytecode offset; never moved or merged by passes.
    FuelCheck {
        /// Bytecode offset of the charge region's start.
        offset: u32,
        /// Fuel units deducted.
        amount: u64,
    },
    /// An epoch poll at a loop-body start.
    EpochCheck {
        /// Bytecode offset of the loop body.
        offset: u32,
    },
}

impl Inst {
    /// Calls `f` for every value this instruction *uses* (not defines).
    pub fn for_each_use(&self, nodes: &[Node], mut f: impl FnMut(ValueId)) {
        match self {
            Inst::Def(v) => nodes[v.index()].for_each_arg(f),
            Inst::MemStore { value, addr, .. } => {
                f(*value);
                f(*addr);
            }
            Inst::GlobalSet { value, .. } => f(*value),
            Inst::Call { args, .. } => args.iter().for_each(|&a| f(a)),
            Inst::CallIndirect { index, args, .. } => {
                f(*index);
                args.iter().for_each(|&a| f(a));
            }
            Inst::ProbeCounter { .. } => {}
            Inst::ProbeTos { value, .. } => {
                if let Some(v) = value {
                    f(*v)
                }
            }
            Inst::ProbeFlush { flush, .. } => flush.iter().for_each(|&(_, v)| f(v)),
            Inst::FuelCheck { .. } | Inst::EpochCheck { .. } => {}
        }
    }

    /// True if the instruction must be kept even when no value it defines is
    /// used.
    pub fn is_required(&self, nodes: &[Node]) -> bool {
        match self {
            Inst::Def(v) => nodes[v.index()].effect() != Effect::Pure,
            _ => true,
        }
    }
}

/// One control-flow edge: a target block and the arguments passed to its
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    /// The successor block.
    pub target: BlockId,
    /// Arguments, one per target parameter.
    pub args: Vec<ValueId>,
}

/// How a block ends.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional transfer.
    Jump(Edge),
    /// Two-way conditional transfer. `offset` is the bytecode offset of the
    /// originating branch, the key into the branch profile.
    Branch {
        /// Condition value (non-zero takes `then_edge`).
        cond: ValueId,
        /// Bytecode offset of the branch (profile key).
        offset: u32,
        /// True if the `then` side is the bytecode-order successor (an `if`'s
        /// then-arm); false when the `else` side is (a `br_if`'s
        /// continuation). The layout uses this when no profile is available.
        natural_then: bool,
        /// Edge taken when the condition is non-zero.
        then_edge: Edge,
        /// Edge taken when the condition is zero.
        else_edge: Edge,
    },
    /// Multi-way transfer (jump table).
    BrTable {
        /// Index value.
        index: ValueId,
        /// Per-index edges.
        targets: Vec<Edge>,
        /// Out-of-range edge.
        default: Edge,
    },
    /// Return from the function with the given results.
    Return(Vec<ValueId>),
    /// Unconditional trap.
    Trap {
        /// The trap reason.
        code: TrapCode,
        /// Bytecode offset of the trapping instruction (source-map anchor).
        offset: u32,
    },
}

impl Terminator {
    /// Calls `f` for every outgoing edge.
    pub fn for_each_edge(&self, mut f: impl FnMut(&Edge)) {
        match self {
            Terminator::Jump(e) => f(e),
            Terminator::Branch {
                then_edge,
                else_edge,
                ..
            } => {
                f(then_edge);
                f(else_edge);
            }
            Terminator::BrTable {
                targets, default, ..
            } => {
                targets.iter().for_each(&mut f);
                f(default);
            }
            Terminator::Return(_) | Terminator::Trap { .. } => {}
        }
    }

    /// The outgoing edge with the given ordinal — its position in
    /// [`Terminator::for_each_edge`]'s visiting order, which is how an
    /// [`EdgeIndex`] names it.
    ///
    /// # Panics
    ///
    /// Panics if the terminator has no such edge.
    pub fn edge(&self, ordinal: u32) -> &Edge {
        match (self, ordinal) {
            (Terminator::Jump(e), 0) => e,
            (Terminator::Branch { then_edge, .. }, 0) => then_edge,
            (Terminator::Branch { else_edge, .. }, 1) => else_edge,
            (Terminator::BrTable { targets, default, .. }, i) if i as usize <= targets.len() => {
                targets.get(i as usize).unwrap_or(default)
            }
            _ => panic!("edge ordinal {ordinal} out of range"),
        }
    }

    /// Like [`Terminator::for_each_edge`] but with mutable access.
    pub fn for_each_edge_mut(&mut self, mut f: impl FnMut(&mut Edge)) {
        match self {
            Terminator::Jump(e) => f(e),
            Terminator::Branch {
                then_edge,
                else_edge,
                ..
            } => {
                f(then_edge);
                f(else_edge);
            }
            Terminator::BrTable {
                targets, default, ..
            } => {
                targets.iter_mut().for_each(&mut f);
                f(default);
            }
            Terminator::Return(_) | Terminator::Trap { .. } => {}
        }
    }

    /// Calls `f` for every value the terminator uses directly (conditions,
    /// indices, return values, and edge arguments).
    pub fn for_each_use(&self, mut f: impl FnMut(ValueId)) {
        match self {
            Terminator::Jump(_) | Terminator::Trap { .. } => {}
            Terminator::Branch { cond, .. } => f(*cond),
            Terminator::BrTable { index, .. } => f(*index),
            Terminator::Return(values) => values.iter().for_each(|&v| f(v)),
        }
        self.for_each_edge(|e| e.args.iter().for_each(|&a| f(a)));
    }
}

/// A basic block: parameters, an ordered instruction list, and a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The block's parameter values (phis).
    pub params: Vec<ValueId>,
    /// Instructions in program order.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

impl Block {
    fn new() -> Block {
        Block {
            params: Vec::new(),
            insts: Vec::new(),
            // Placeholder until the frontend seals the block.
            term: Terminator::Trap {
                code: TrapCode::Unreachable,
                offset: 0,
            },
        }
    }
}

/// One on-stack-replacement entry point: a loop whose body start can be
/// entered mid-activation from an interpreter-layout frame.
///
/// The frame-state mapping is the [`Inst::ProbeFlush`] interp-layout
/// contract run in reverse: the loop header's parameters were created in
/// exactly interpreter frame-slot order (locals, then operand stack), so
/// parameter `k` is reconstructed from frame slot `k`. The emitter turns
/// each site into an entry stub of parallel moves followed by a jump to the
/// header.
#[derive(Debug, Clone)]
pub struct OsrSite {
    /// Bytecode offset of the loop-body start (the back-edge target, and the
    /// offset the shared fuel plan records as an epoch-check site).
    pub offset: u32,
    /// The OSR entry block: a real block whose parameters are defined by
    /// the interpreter-layout frame (parameter `k` holds frame slot `k` at
    /// the body start — the emitter loads them exactly like the function
    /// entry's prologue) and whose terminator jumps to the loop header with
    /// those parameters as edge arguments. Making the entry a true second
    /// predecessor of the header keeps every downstream pass honest:
    /// parameter simplification cannot alias a loop-invariant local to its
    /// pre-loop definition, and the register allocator sees the edge moves.
    pub entry: BlockId,
}

/// The control-flow edges of a function indexed by *target*: which blocks
/// are reachable, and for each of them every incoming edge as a
/// `(predecessor, ordinal)` pair, where the ordinal selects the edge within
/// the predecessor's terminator ([`Terminator::edge`]).
///
/// This is the one predecessor structure of the tier — parameter
/// simplification, dead-code elimination and the register allocator's
/// liveness all read it. It is a flat (CSR) array: its size is blocks +
/// edges no matter how many arguments the edges carry, and it names edges
/// instead of copying their argument lists, so it stays valid while passes
/// alias values and prune arguments. Only folding a branch (which removes
/// an edge) invalidates it.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    /// Whether each block is reachable from the entry or an OSR entry.
    pub reachable: Vec<bool>,
    /// `incoming[starts[b]..starts[b + 1]]` are block `b`'s incoming edges.
    starts: Vec<u32>,
    incoming: Vec<(BlockId, u32)>,
}

impl EdgeIndex {
    /// The edges into `block` from reachable predecessors, ordered by
    /// predecessor and then by ordinal.
    pub fn incoming(&self, block: BlockId) -> &[(BlockId, u32)] {
        let b = block.index();
        &self.incoming[self.starts[b] as usize..self.starts[b + 1] as usize]
    }
}

/// The SSA form of one function, plus the frame facts emission needs.
#[derive(Debug, Clone)]
pub struct FuncIr {
    /// The function's index in the function index space.
    pub func_index: u32,
    /// Blocks; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// Defining node of each value.
    pub nodes: Vec<Node>,
    /// Type of each value.
    pub types: Vec<ValueType>,
    /// Resolution table: `resolved[v]` is the value `v` now stands for
    /// (union-find without ranks; follow until fixpoint via
    /// [`FuncIr::resolve`]). Copy propagation, CSE, and parameter removal
    /// all redirect values here instead of rewriting every use.
    pub resolved: Vec<ValueId>,
    /// Local slot types (parameters followed by declared locals).
    pub local_types: Vec<ValueType>,
    /// Result types.
    pub result_types: Vec<ValueType>,
    /// Maximum operand-stack height (from validation; sizes the interpreter
    /// frame region when the function has observable probe frames).
    pub max_stack: u32,
    /// True if any probe site requires the interpreter frame layout to be
    /// materialized (see [`Inst::ProbeFlush`]).
    pub has_flush_probes: bool,
    /// On-stack-replacement entry points, one per reachable `loop` (only
    /// populated when the compiler has OSR enabled).
    pub osr_sites: Vec<OsrSite>,
    /// Bytecode offset of each *trapping* value, keyed by the defining
    /// [`ValueId`]. Kept out of [`Node`] so CSE equality is untouched:
    /// two identical trapping nodes still unify, and the survivor (the
    /// first in program order, which is the one that traps in every tier)
    /// keeps its own entry. Value ids are stable across every pass, so the
    /// table never needs rewriting.
    src_offsets: HashMap<u32, u32>,
}

impl FuncIr {
    /// Creates an empty function with an entry block.
    pub fn new(
        func_index: u32,
        local_types: Vec<ValueType>,
        result_types: Vec<ValueType>,
        max_stack: u32,
    ) -> FuncIr {
        FuncIr {
            func_index,
            blocks: vec![Block::new()],
            nodes: Vec::new(),
            types: Vec::new(),
            resolved: Vec::new(),
            local_types,
            result_types,
            max_stack,
            has_flush_probes: false,
            osr_sites: Vec::new(),
            src_offsets: HashMap::new(),
        }
    }

    /// Records the bytecode offset of a trapping value (see `src_offsets`).
    pub fn set_src_offset(&mut self, v: ValueId, offset: u32) {
        self.src_offsets.insert(v.0, offset);
    }

    /// The bytecode offset of a trapping value, if one was recorded.
    pub fn src_offset(&self, v: ValueId) -> Option<u32> {
        self.src_offsets.get(&v.0).copied()
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Number of local slots.
    pub fn num_locals(&self) -> usize {
        self.local_types.len()
    }

    /// Creates a new value of type `ty` defined by `node`.
    pub fn add_value(&mut self, node: Node, ty: ValueType) -> ValueId {
        let id = ValueId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.types.push(ty);
        self.resolved.push(id);
        id
    }

    /// Creates a new block.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::new());
        id
    }

    /// Appends a parameter of type `ty` to `block` and returns its value.
    pub fn add_param(&mut self, block: BlockId, ty: ValueType) -> ValueId {
        let index = self.blocks[block.index()].params.len() as u32;
        let v = self.add_value(Node::Param { block, index }, ty);
        self.blocks[block.index()].params.push(v);
        v
    }

    /// Follows the resolution chain of `v` to its representative.
    pub fn resolve(&self, mut v: ValueId) -> ValueId {
        while self.resolved[v.index()] != v {
            v = self.resolved[v.index()];
        }
        v
    }

    /// Redirects `from` to stand for `to`.
    pub fn alias(&mut self, from: ValueId, to: ValueId) {
        let to = self.resolve(to);
        let from = self.resolve(from);
        if from != to {
            self.resolved[from.index()] = to;
        }
    }

    /// The type of a value (after resolution).
    pub fn ty(&self, v: ValueId) -> ValueType {
        self.types[self.resolve(v).index()]
    }

    /// The defining node of a value (after resolution).
    pub fn node(&self, v: ValueId) -> &Node {
        &self.nodes[self.resolve(v).index()]
    }

    /// The constant bits of a value, if it resolves to a constant.
    pub fn as_const(&self, v: ValueId) -> Option<u64> {
        match self.node(v) {
            Node::Const(bits) => Some(*bits),
            _ => None,
        }
    }

    /// The blocks reachable from the entry, in no particular order.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry()];
        seen[self.entry().index()] = true;
        // OSR entry blocks are entered from outside the graph (a running
        // lower-tier frame jumps in), so they are roots alongside the
        // function entry.
        for site in &self.osr_sites {
            if !seen[site.entry.index()] {
                seen[site.entry.index()] = true;
                stack.push(site.entry);
            }
        }
        while let Some(b) = stack.pop() {
            self.blocks[b.index()].term.for_each_edge(|e| {
                if !seen[e.target.index()] {
                    seen[e.target.index()] = true;
                    stack.push(e.target);
                }
            });
        }
        seen
    }

    /// Builds the [`EdgeIndex`] of the current graph.
    pub fn edge_index(&self) -> EdgeIndex {
        let reachable = self.reachable();
        let mut starts = vec![0u32; self.blocks.len() + 1];
        let reachable_blocks = || self.blocks.iter().enumerate().filter(|(bi, _)| reachable[*bi]);
        for (_, block) in reachable_blocks() {
            block.term.for_each_edge(|e| starts[e.target.index() + 1] += 1);
        }
        for b in 0..self.blocks.len() {
            starts[b + 1] += starts[b];
        }
        let mut incoming = vec![(self.entry(), 0u32); starts[self.blocks.len()] as usize];
        let mut next = starts.clone();
        for (bi, block) in reachable_blocks() {
            let mut ordinal = 0u32;
            block.term.for_each_edge(|e| {
                let slot = &mut next[e.target.index()];
                incoming[*slot as usize] = (BlockId(bi as u32), ordinal);
                *slot += 1;
                ordinal += 1;
            });
        }
        EdgeIndex {
            reachable,
            starts,
            incoming,
        }
    }

    /// Renders the IR as a human-readable listing (debugging aid).
    pub fn display(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let reachable = self.reachable();
        for (bi, block) in self.blocks.iter().enumerate() {
            if !reachable[bi] {
                continue;
            }
            let params: Vec<String> = block
                .params
                .iter()
                .map(|p| format!("{}: {:?}", p, self.types[p.index()]))
                .collect();
            let _ = writeln!(out, "b{bi}({}):", params.join(", "));
            for inst in &block.insts {
                match inst {
                    Inst::Def(v) => {
                        let rv = self.resolve(*v);
                        let _ = writeln!(out, "  {v} = {:?}", self.nodes[rv.index()]);
                    }
                    other => {
                        let _ = writeln!(out, "  {other:?}");
                    }
                }
            }
            let _ = writeln!(out, "  {:?}", block.term);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::inst::AluOp;

    #[test]
    fn values_blocks_and_resolution() {
        let mut ir = FuncIr::new(0, vec![ValueType::I32], vec![ValueType::I32], 4);
        let a = ir.add_param(ir.entry(), ValueType::I32);
        let c = ir.add_value(Node::Const(7), ValueType::I32);
        let sum = ir.add_value(
            Node::Op {
                class: OpClass::Alu(AluOp::Add, Width::W32),
                args: [a, c],
            },
            ValueType::I32,
        );
        assert_eq!(ir.ty(sum), ValueType::I32);
        assert_eq!(ir.as_const(c), Some(7));
        assert_eq!(ir.as_const(sum), None);
        // Aliasing redirects resolution transitively.
        let copy = ir.add_value(Node::Const(0), ValueType::I32);
        ir.alias(copy, sum);
        assert_eq!(ir.resolve(copy), sum);
        let copy2 = ir.add_value(Node::Const(0), ValueType::I32);
        ir.alias(copy2, copy);
        assert_eq!(ir.resolve(copy2), sum);
    }

    #[test]
    fn effects_classify_nodes() {
        let div = Node::Op {
            class: OpClass::Alu(AluOp::DivS, Width::W32),
            args: [ValueId(0), ValueId(1)],
        };
        assert_eq!(div.effect(), Effect::Trapping);
        let add = Node::Op {
            class: OpClass::Alu(AluOp::Add, Width::W32),
            args: [ValueId(0), ValueId(1)],
        };
        assert_eq!(add.effect(), Effect::Pure);
        assert_eq!(
            Node::MemLoad {
                addr: ValueId(0),
                offset: 0,
                width: 4,
                signed: false,
                dst_width: Width::W32
            }
            .effect(),
            Effect::Trapping
        );
        assert_eq!(Node::MemoryGrow { delta: ValueId(0) }.effect(), Effect::Effectful);
        assert_eq!(Node::MemorySize.effect(), Effect::Pure);
        assert_eq!(Node::Const(1).effect(), Effect::Pure);
    }

    #[test]
    fn reachability_skips_orphan_blocks() {
        let mut ir = FuncIr::new(0, vec![], vec![], 0);
        let b1 = ir.add_block();
        let _orphan = ir.add_block();
        ir.blocks[0].term = Terminator::Jump(Edge {
            target: b1,
            args: vec![],
        });
        ir.blocks[b1.index()].term = Terminator::Return(vec![]);
        let reachable = ir.reachable();
        assert_eq!(reachable, vec![true, true, false]);
        assert!(ir.display().contains("b1"));
        assert!(!ir.display().contains("b2("));
    }

    #[test]
    fn edge_index_names_every_reachable_incoming_edge() {
        // b0 -br_table-> [b1, b2, b1], default b2; b1 -> b2; b3 (orphan) -> b2.
        let mut ir = FuncIr::new(0, vec![], vec![], 0);
        let index = ir.add_value(Node::Const(0), ValueType::I32);
        let (b1, b2, b3) = (ir.add_block(), ir.add_block(), ir.add_block());
        let to = |target| Edge {
            target,
            args: vec![],
        };
        ir.blocks[0].term = Terminator::BrTable {
            index,
            targets: vec![to(b1), to(b2), to(b1)],
            default: to(b2),
        };
        ir.blocks[b1.index()].term = Terminator::Jump(to(b2));
        ir.blocks[b2.index()].term = Terminator::Return(vec![]);
        ir.blocks[b3.index()].term = Terminator::Jump(to(b2));
        let edges = ir.edge_index();
        assert_eq!(edges.reachable, ir.reachable());
        assert_eq!(edges.incoming(ir.entry()), &[]);
        assert_eq!(edges.incoming(b1), &[(BlockId(0), 0), (BlockId(0), 2)]);
        assert_eq!(edges.incoming(b2), &[(BlockId(0), 1), (BlockId(0), 3), (b1, 0)]);
        assert_eq!(edges.incoming(b3), &[]);
        for b in [b1, b2] {
            for &(pred, ordinal) in edges.incoming(b) {
                assert_eq!(ir.blocks[pred.index()].term.edge(ordinal).target, b);
            }
        }
    }
}
