//! The wasm → SSA frontend.
//!
//! One forward pass over the validated bytecode builds the CFG and SSA form
//! simultaneously, using the same control-stack discipline as validation and
//! the interpreter's sidetable construction: every structured construct
//! knows its merge point up front, so forward branches resolve immediately
//! and only loop headers need (block-parameter) phis for values that might
//! change around the back edge.
//!
//! A merge block takes one parameter per operand-stack entry it receives and
//! one per local its construct assigns: before lowering, one walk of the
//! body records, for every `block`/`loop`/`if`, the sorted list of locals
//! that it or a construct nested in it writes with `local.set` or
//! `local.tee`. A local outside that list holds the value it
//! had at construct entry on every edge into the merge, so it keeps that
//! value without a parameter. The lists are sparse — a construct costs its
//! own writes, not the function's local count — so compile time and memory
//! grow with the body, whatever the locals. The optimizer's trivial-parameter
//! removal then deletes every parameter whose incoming arguments agree,
//! which recovers precise SSA without any dominance computation here.
//!
//! With OSR armed every construct carries every local instead: an OSR entry
//! arrives mid-function, where a value computed before the loop does not
//! exist, so the loop header must take each frame slot as a parameter.
//!
//! Probe sites are lowered exactly as the baseline compiler lowers them
//! (same kinds, same flush discipline at runtime/direct probes), so
//! instrumentation observes identical firings from optimized code.

use crate::ir::{Edge, Effect, FuncIr, Inst, Node, OsrSite, Terminator, ValueId};
use machine::inst::{CmpOp, TrapCode, Width};
use machine::lower::{classify, OpClass};
use machine::values::NULL_REF_BITS;
use spc::{CompileError, ProbeKind, ProbeMode, ProbeSites};
use wasm::fuel::FuelPlan;
use wasm::module::Module;
use wasm::opcode::{OpSignature, Opcode};
use wasm::reader::{BytecodeReader, Imm, Instr};
use wasm::types::ValueType;
use wasm::validate::FuncInfo;

use crate::ir::BlockId;
use std::ops::Range;

/// Which locals each construct's merge blocks carry as parameters: for every
/// `block`, `loop` and `if` of a body, in bytecode order, the sorted locals
/// it or a construct nested in it assigns.
struct Carried {
    /// Every construct's list, back to back.
    locals: Vec<u32>,
    /// Construct `k`'s list is `locals[lists[k]]`. `None` when every
    /// construct carries every local, and `locals` is `0..num_locals`.
    lists: Option<Vec<Range<usize>>>,
}

impl Carried {
    /// Every construct carries every local: what an OSR entry needs.
    fn every_local(num_locals: usize) -> Carried {
        Carried {
            locals: (0..num_locals as u32).collect(),
            lists: None,
        }
    }

    /// Walks `code` once and lists each construct's assigned locals.
    ///
    /// `deepest[x]` counts the open constructs whose list already has `x`.
    /// Those are always the outermost ones, so a write adds `x` only to the
    /// lists past that count — every push is one element of output, and no
    /// construct does work for the locals it never writes.
    fn assigned(code: &[u8], num_locals: usize) -> Result<Carried, CompileError> {
        let mut locals = Vec::new();
        let mut lists = Vec::new();
        // The open constructs, outermost first: their index and list so far.
        let mut open: Vec<(usize, Vec<u32>)> = Vec::new();
        let mut spare: Vec<Vec<u32>> = Vec::new();
        let mut deepest = vec![0u32; num_locals];
        let mut reader = BytecodeReader::new(code);
        loop {
            let offset = reader.pc();
            let Some(instr) = reader.next() else { break };
            let Instr { op, imm, .. } = instr.map_err(|e| CompileError {
                offset,
                message: e.to_string(),
            })?;
            match (op, imm) {
                (Opcode::Block | Opcode::Loop | Opcode::If, _) => {
                    open.push((lists.len(), spare.pop().unwrap_or_default()));
                    lists.push(0..0);
                }
                (Opcode::LocalSet | Opcode::LocalTee, Imm::Index(x)) => {
                    let have = deepest.get_mut(x as usize).ok_or_else(|| CompileError {
                        offset,
                        message: format!("unknown local {x}"),
                    })?;
                    for (_, list) in &mut open[*have as usize..] {
                        list.push(x);
                    }
                    *have = open.len() as u32;
                }
                (Opcode::End, _) => {
                    // The function body's own `end` closes no construct.
                    if let Some((k, mut list)) = open.pop() {
                        for &x in &list {
                            deepest[x as usize] = open.len() as u32;
                        }
                        list.sort_unstable();
                        lists[k] = locals.len()..locals.len() + list.len();
                        locals.append(&mut list);
                        spare.push(list);
                    }
                }
                _ => {}
            }
        }
        Ok(Carried {
            locals,
            lists: Some(lists),
        })
    }

    /// Where construct `k`'s list sits in `locals`.
    fn list(&self, k: usize) -> Range<usize> {
        match &self.lists {
            Some(lists) => lists[k].clone(),
            None => 0..self.locals.len(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlKind {
    Func,
    Block,
    Loop,
    If,
    Else,
}

/// Where a branch at some depth lands.
enum Dest {
    /// Branching to the function label returns.
    Return,
    /// A jump to `target`, passing the `carried` locals plus the operand
    /// stack up to `base` plus the top `arity` values.
    Edge {
        target: BlockId,
        carried: Range<usize>,
        base: usize,
        arity: usize,
    },
}

struct Frame {
    kind: CtrlKind,
    /// Created in unreachable code: owns no blocks, tracks nesting only.
    dead: bool,
    is_func: bool,
    /// The merge (end) block. Meaningless when `dead` or `is_func`.
    merge: BlockId,
    /// The loop header, for `Loop` frames.
    header: Option<BlockId>,
    /// The else arm's block, for `If` frames.
    else_block: Option<BlockId>,
    else_taken: bool,
    /// Operand-stack height below the construct's own values.
    label_base: usize,
    /// Number of block parameters.
    num_params: usize,
    /// Number of block results.
    num_results: usize,
    /// The locals the construct's merge blocks carry, as a range of
    /// [`Carried::locals`].
    carried: Range<usize>,
    /// State at the `if` (after popping the condition), for the else arm:
    /// the carried locals' values and the operand stack.
    snapshot: Option<(Vec<ValueId>, Vec<ValueId>)>,
    unreachable: bool,
}

struct Builder<'a> {
    module: &'a Module,
    probes: &'a ProbeSites,
    probe_mode: ProbeMode,
    fuel: Option<&'a FuelPlan>,
    osr: bool,
    ir: FuncIr,
    current: BlockId,
    locals: Vec<ValueId>,
    stack: Vec<ValueId>,
    ctrl: Vec<Frame>,
    carried: Carried,
    /// Constructs opened so far: the next one's index into `carried`.
    constructs: usize,
    /// Bytecode offset of the instruction being lowered; [`Builder::def`]
    /// records it for trapping nodes so the emitter can anchor them in the
    /// source map.
    cur_offset: u32,
}

/// Builds the SSA form of one validated function. With `metering`, the
/// fuel checks of `info.fuel` — the plan validation wrote — are inserted at
/// their offsets.
///
/// # Errors
///
/// Returns an error for malformed bodies (validation normally rejects these
/// first).
pub fn build(
    module: &Module,
    func_index: u32,
    info: &FuncInfo,
    probes: &ProbeSites,
    probe_mode: ProbeMode,
    metering: bool,
    osr: bool,
) -> Result<FuncIr, CompileError> {
    let decl = module.func_decl(func_index).ok_or(CompileError {
        offset: 0,
        message: format!("function {func_index} has no body"),
    })?;
    let sig = module.func_type(func_index).ok_or(CompileError {
        offset: 0,
        message: format!("function {func_index} has no signature"),
    })?;
    let local_types = module
        .func_local_types(func_index)
        .expect("checked above: function has a body");
    let num_params = sig.params.len();

    let mut ir = FuncIr::new(
        func_index,
        local_types.clone(),
        sig.results.clone(),
        info.max_stack,
    );
    // Parameters are entry-block parameters (the engine wrote them into the
    // frame's first slots); declared locals start as their default constants,
    // which feeds the constant folder directly.
    let entry = ir.entry();
    let mut locals = Vec::with_capacity(local_types.len());
    for (i, &ty) in local_types.iter().enumerate() {
        if i < num_params {
            locals.push(ir.add_param(entry, ty));
        } else {
            locals.push(ir.add_value(Node::Const(default_bits(ty)), ty));
        }
    }

    let carried = if osr {
        Carried::every_local(locals.len())
    } else {
        Carried::assigned(&decl.code, locals.len())?
    };
    let mut b = Builder {
        module,
        probes,
        probe_mode,
        fuel: metering.then_some(&*info.fuel),
        osr,
        ir,
        current: entry,
        locals,
        stack: Vec::new(),
        ctrl: Vec::new(),
        carried,
        constructs: 0,
        cur_offset: 0,
    };
    b.ctrl.push(Frame {
        kind: CtrlKind::Func,
        dead: false,
        is_func: true,
        merge: entry,
        header: None,
        else_block: None,
        else_taken: false,
        label_base: 0,
        num_params: 0,
        num_results: sig.results.len(),
        carried: 0..0,
        snapshot: None,
        unreachable: false,
    });
    b.run(&decl.code)?;
    Ok(b.ir)
}

/// Raw slot bits of a type's default value.
fn default_bits(ty: ValueType) -> u64 {
    if ty.is_reference() {
        NULL_REF_BITS
    } else {
        0
    }
}

impl<'a> Builder<'a> {
    fn error(&self, offset: usize, message: impl Into<String>) -> CompileError {
        CompileError {
            offset,
            message: message.into(),
        }
    }

    fn unreachable_now(&self) -> bool {
        self.ctrl.last().map(|f| f.unreachable).unwrap_or(false)
    }

    fn pop(&mut self) -> ValueId {
        self.stack.pop().expect("validated stack is never empty here")
    }

    fn push(&mut self, v: ValueId) {
        self.stack.push(v);
    }

    fn push_const(&mut self, bits: u64, ty: ValueType) {
        let c = self.ir.add_value(Node::Const(bits), ty);
        self.push(c);
    }

    fn set_term(&mut self, term: Terminator) {
        self.ir.blocks[self.current.index()].term = term;
    }

    fn push_inst(&mut self, inst: Inst) {
        self.ir.blocks[self.current.index()].insts.push(inst);
    }

    fn def(&mut self, node: Node, ty: ValueType) -> ValueId {
        let trapping = node.effect() == Effect::Trapping;
        let v = self.ir.add_value(node, ty);
        if trapping {
            self.ir.set_src_offset(v, self.cur_offset);
        }
        self.push_inst(Inst::Def(v));
        v
    }

    /// The edge arguments for a transfer to a merge point at `base` with
    /// `arity` transferred values: the current values of the `carried`
    /// locals, the untouched stack below `base`, and the top `arity` values.
    fn edge_args(&self, carried: Range<usize>, base: usize, arity: usize) -> Vec<ValueId> {
        let carried = &self.carried.locals[carried];
        let mut args = Vec::with_capacity(carried.len() + base + arity);
        args.extend(carried.iter().map(|&x| self.locals[x as usize]));
        args.extend_from_slice(&self.stack[..base]);
        args.extend_from_slice(&self.stack[self.stack.len() - arity..]);
        args
    }

    /// Creates a merge block with parameters for the `carried` locals, the
    /// stack below `base`, and `tys` transferred values.
    fn make_merge(&mut self, carried: Range<usize>, base: usize, tys: &[ValueType]) -> BlockId {
        let block = self.ir.add_block();
        for &x in &self.carried.locals[carried] {
            let ty = self.ir.local_types[x as usize];
            self.ir.add_param(block, ty);
        }
        for p in 0..base {
            let ty = self.ir.ty(self.stack[p]);
            self.ir.add_param(block, ty);
        }
        for &ty in tys {
            self.ir.add_param(block, ty);
        }
        block
    }

    /// Continues lowering at a merge block: the `carried` locals and the
    /// stack are its params; every other local keeps its value.
    fn adopt_merge_state(&mut self, block: BlockId, carried: Range<usize>) {
        let params = &self.ir.blocks[block.index()].params;
        let carried = &self.carried.locals[carried];
        for (&x, &p) in carried.iter().zip(params) {
            self.locals[x as usize] = p;
        }
        self.stack.clear();
        self.stack.extend_from_slice(&params[carried.len()..]);
        self.current = block;
    }

    fn branch_target(&self, depth: u32) -> Option<Dest> {
        let len = self.ctrl.len();
        if depth as usize >= len {
            return None;
        }
        let frame = &self.ctrl[len - 1 - depth as usize];
        if frame.is_func {
            return Some(Dest::Return);
        }
        if frame.kind == CtrlKind::Loop {
            Some(Dest::Edge {
                target: frame.header.expect("loop has a header"),
                carried: frame.carried.clone(),
                base: frame.label_base,
                arity: frame.num_params,
            })
        } else {
            Some(Dest::Edge {
                target: frame.merge,
                carried: frame.carried.clone(),
                base: frame.label_base,
                arity: frame.num_results,
            })
        }
    }

    /// The edge for a resolved destination, materializing a dedicated
    /// return block for branches to the function label.
    fn dest_edge(&mut self, dest: &Dest) -> Edge {
        match dest {
            Dest::Return => {
                let n = self.ir.result_types.len();
                let results = self.stack[self.stack.len() - n..].to_vec();
                let block = self.ir.add_block();
                self.ir.blocks[block.index()].term = Terminator::Return(results);
                Edge {
                    target: block,
                    args: vec![],
                }
            }
            Dest::Edge {
                target,
                carried,
                base,
                arity,
            } => Edge {
                target: *target,
                args: self.edge_args(carried.clone(), *base, *arity),
            },
        }
    }

    /// The edge a branch at `offset` to the label `depth` frames out takes.
    fn branch_edge(&mut self, depth: u32, offset: usize) -> Result<Edge, CompileError> {
        let dest = self
            .branch_target(depth)
            .ok_or_else(|| self.error(offset, "bad branch depth"))?;
        Ok(self.dest_edge(&dest))
    }

    fn mark_unreachable(&mut self) {
        let base = self.ctrl.last().map(|f| f.label_base).unwrap_or(0);
        self.stack.truncate(base);
        if let Some(frame) = self.ctrl.last_mut() {
            frame.unreachable = true;
        }
    }

    fn emit_return(&mut self) {
        let n = self.ir.result_types.len();
        let results = self.stack[self.stack.len() - n..].to_vec();
        self.set_term(Terminator::Return(results));
    }

    fn emit_probe(&mut self, site: spc::ProbeSite, offset: u32) {
        let height = self.stack.len() as u32;
        match (self.probe_mode, site.kind) {
            (ProbeMode::Optimized, ProbeKind::Counter { counter_id }) => {
                self.push_inst(Inst::ProbeCounter {
                    counter_id,
                    offset,
                    height,
                });
            }
            (ProbeMode::Optimized, ProbeKind::TopOfStack) => {
                let value = self.stack.last().copied();
                self.push_inst(Inst::ProbeTos {
                    probe_id: site.probe_id,
                    value,
                    offset,
                    height,
                });
            }
            (ProbeMode::Optimized, ProbeKind::Generic) | (ProbeMode::Runtime, _) => {
                // Observable frame: the interpreter layout must hold, for
                // frame accessors and tier-down.
                let mut flush = Vec::with_capacity(self.locals.len() + self.stack.len());
                for (i, &v) in self.locals.iter().enumerate() {
                    flush.push((i as u32, v));
                }
                let num_locals = self.locals.len() as u32;
                for (p, &v) in self.stack.iter().enumerate() {
                    flush.push((num_locals + p as u32, v));
                }
                self.ir.has_flush_probes = true;
                self.push_inst(Inst::ProbeFlush {
                    probe_id: site.probe_id,
                    runtime: self.probe_mode == ProbeMode::Runtime,
                    offset,
                    height,
                    flush,
                });
            }
        }
    }

    fn run(&mut self, code: &[u8]) -> Result<(), CompileError> {
        let mut reader = BytecodeReader::new(code);
        while !self.ctrl.is_empty() {
            let offset = reader.pc();
            let instr = match reader.next() {
                Some(instr) => instr.map_err(|e| self.error(offset, e.to_string()))?,
                None => return Err(self.error(offset, "body ended with open control constructs")),
            };
            if !self.unreachable_now() {
                // Metering first, probes second — the tier-uniform order.
                // `self.current` is the merge/header block that branch
                // targets land in, so back-edges re-execute these checks.
                if let Some(plan) = self.fuel {
                    // One fused check per site, exactly like the baseline
                    // tier: the loop-head epoch poll rides the region's
                    // fuel decrement.
                    let charge = plan.charge_at(offset as u32);
                    if charge.is_some() || plan.epoch_check_at(offset as u32) {
                        self.push_inst(Inst::FuelCheck {
                            offset: offset as u32,
                            amount: charge.unwrap_or(0),
                        });
                    }
                }
                if let Some(site) = self.probes.get(offset as u32) {
                    self.emit_probe(*site, offset as u32);
                }
            }
            self.lower(instr)?;
        }
        if !reader.is_at_end() {
            return Err(self.error(reader.pc(), "trailing bytes after final end"));
        }
        Ok(())
    }

    fn lower(&mut self, instr: Instr<'_>) -> Result<(), CompileError> {
        let Instr { offset, op, imm, end } = instr;
        // In unreachable code only track control nesting, like validation.
        if self.unreachable_now()
            && !matches!(
                op,
                Opcode::Block | Opcode::Loop | Opcode::If | Opcode::Else | Opcode::End
            )
        {
            return Ok(());
        }
        self.cur_offset = offset as u32;

        match (op, imm) {
            (Opcode::Nop, _) => {}
            (Opcode::Unreachable, _) => {
                self.set_term(Terminator::Trap {
                    code: TrapCode::Unreachable,
                    offset: offset as u32,
                });
                self.mark_unreachable();
            }
            (Opcode::Block | Opcode::Loop | Opcode::If, Imm::Block(bt)) => {
                let (params, results) = bt
                    .resolve(&self.module.types)
                    .ok_or_else(|| self.error(offset, "bad block type"))?;
                let carried = self.carried.list(self.constructs);
                self.constructs += 1;
                let dead = self.unreachable_now();
                if dead {
                    self.ctrl.push(Frame {
                        kind: match op {
                            Opcode::Block => CtrlKind::Block,
                            Opcode::Loop => CtrlKind::Loop,
                            _ => CtrlKind::If,
                        },
                        dead: true,
                        is_func: false,
                        merge: self.current,
                        header: None,
                        else_block: None,
                        else_taken: false,
                        label_base: 0,
                        num_params: params.len(),
                        num_results: results.len(),
                        carried,
                        snapshot: None,
                        unreachable: true,
                    });
                    return Ok(());
                }

                let cond = if op == Opcode::If { Some(self.pop()) } else { None };
                let base = self.stack.len() - params.len();
                let merge = self.make_merge(carried.clone(), base, results);
                let mut frame = Frame {
                    kind: match op {
                        Opcode::Block => CtrlKind::Block,
                        Opcode::Loop => CtrlKind::Loop,
                        _ => CtrlKind::If,
                    },
                    dead: false,
                    is_func: false,
                    merge,
                    header: None,
                    else_block: None,
                    else_taken: false,
                    label_base: base,
                    num_params: params.len(),
                    num_results: results.len(),
                    carried: carried.clone(),
                    snapshot: None,
                    unreachable: false,
                };
                match op {
                    Opcode::Loop => {
                        let header = self.make_merge(carried.clone(), base, params);
                        let args = self.edge_args(carried.clone(), base, params.len());
                        self.set_term(Terminator::Jump(Edge {
                            target: header,
                            args,
                        }));
                        self.adopt_merge_state(header, carried);
                        frame.header = Some(header);
                        if self.osr {
                            // `end` is right past the blocktype, i.e. the body
                            // start the fuel plan records as this loop's
                            // epoch-check site. The header params were
                            // created in interpreter frame-slot order (locals,
                            // then operand stack below and at the loop
                            // params), so the OSR entry declares one
                            // parameter per frame slot and hands them to the
                            // header unchanged.
                            let header_params =
                                self.ir.blocks[header.index()].params.clone();
                            let entry = self.ir.add_block();
                            let args: Vec<ValueId> = header_params
                                .iter()
                                .enumerate()
                                .map(|(k, &p)| {
                                    let ty = self.ir.ty(p);
                                    let v = self.ir.add_value(
                                        Node::OsrSlot { index: k as u32 },
                                        ty,
                                    );
                                    self.ir.blocks[entry.index()]
                                        .insts
                                        .push(Inst::Def(v));
                                    v
                                })
                                .collect();
                            self.ir.blocks[entry.index()].term =
                                Terminator::Jump(Edge {
                                    target: header,
                                    args,
                                });
                            self.ir.osr_sites.push(OsrSite {
                                offset: end as u32,
                                entry,
                            });
                        }
                    }
                    Opcode::If => {
                        let entry_values = self.carried.locals[carried]
                            .iter()
                            .map(|&x| self.locals[x as usize])
                            .collect();
                        frame.snapshot = Some((entry_values, self.stack.clone()));
                        let then_block = self.ir.add_block();
                        let else_block = self.ir.add_block();
                        self.set_term(Terminator::Branch {
                            cond: cond.expect("if pops a condition"),
                            offset: offset as u32,
                            natural_then: true,
                            then_edge: Edge {
                                target: then_block,
                                args: vec![],
                            },
                            else_edge: Edge {
                                target: else_block,
                                args: vec![],
                            },
                        });
                        self.current = then_block;
                        frame.else_block = Some(else_block);
                    }
                    _ => {}
                }
                self.ctrl.push(frame);
            }
            (Opcode::Else, _) => {
                let frame = self.ctrl.last_mut().expect("else inside an if");
                if frame.dead {
                    frame.kind = CtrlKind::Else;
                    frame.else_taken = true;
                    return Ok(());
                }
                let was_reachable = !frame.unreachable;
                let (merge, carried, base, num_results) =
                    (frame.merge, frame.carried.clone(), frame.label_base, frame.num_results);
                if was_reachable {
                    let args = self.edge_args(carried.clone(), base, num_results);
                    self.set_term(Terminator::Jump(Edge {
                        target: merge,
                        args,
                    }));
                }
                let frame = self.ctrl.last_mut().expect("else inside an if");
                frame.kind = CtrlKind::Else;
                frame.else_taken = true;
                frame.unreachable = false;
                let else_block = frame.else_block.expect("if created an else block");
                let (entry_values, entry_stack) =
                    frame.snapshot.as_ref().expect("if saved a snapshot");
                // Only the carried locals can have changed in the then-arm.
                for (&x, &v) in self.carried.locals[carried].iter().zip(entry_values) {
                    self.locals[x as usize] = v;
                }
                self.stack.clone_from(entry_stack);
                self.current = else_block;
            }
            (Opcode::End, _) => {
                let frame = self.ctrl.pop().expect("end matches a construct");
                if frame.dead {
                    return Ok(());
                }
                let was_reachable = !frame.unreachable;
                if frame.is_func {
                    if was_reachable {
                        self.emit_return();
                    }
                    return Ok(());
                }
                if was_reachable {
                    let args =
                        self.edge_args(frame.carried.clone(), frame.label_base, frame.num_results);
                    self.set_term(Terminator::Jump(Edge {
                        target: frame.merge,
                        args,
                    }));
                }
                // An `if` without an `else`: the false edge flows straight to
                // the merge with the state captured at the `if` (validation
                // guarantees params == results here).
                if frame.kind == CtrlKind::If && !frame.else_taken {
                    let else_block = frame.else_block.expect("if created an else block");
                    let (mut args, entry_stack) = frame.snapshot.expect("if saved a snapshot");
                    args.extend_from_slice(&entry_stack);
                    self.ir.blocks[else_block.index()].term = Terminator::Jump(Edge {
                        target: frame.merge,
                        args,
                    });
                }
                self.adopt_merge_state(frame.merge, frame.carried);
            }
            (Opcode::Br, Imm::Index(depth)) => {
                let dest = self
                    .branch_target(depth)
                    .ok_or_else(|| self.error(offset, "bad branch depth"))?;
                match dest {
                    Dest::Return => self.emit_return(),
                    dest => {
                        let edge = self.dest_edge(&dest);
                        self.set_term(Terminator::Jump(edge));
                    }
                }
                self.mark_unreachable();
            }
            (Opcode::BrIf, Imm::Index(depth)) => {
                let cond = self.pop();
                let then_edge = self.branch_edge(depth, offset)?;
                let cont = self.ir.add_block();
                self.set_term(Terminator::Branch {
                    cond,
                    offset: offset as u32,
                    natural_then: false,
                    then_edge,
                    else_edge: Edge {
                        target: cont,
                        args: vec![],
                    },
                });
                self.current = cont;
            }
            (Opcode::BrTable, Imm::Table(table)) => {
                let index = self.pop();
                let targets = table
                    .targets()
                    .map(|depth| self.branch_edge(depth, offset))
                    .collect::<Result<Vec<Edge>, CompileError>>()?;
                let default = self.branch_edge(table.default(), offset)?;
                self.set_term(Terminator::BrTable {
                    index,
                    targets,
                    default,
                });
                self.mark_unreachable();
            }
            (Opcode::Return, _) => {
                self.emit_return();
                self.mark_unreachable();
            }
            (Opcode::Call, Imm::Index(callee)) => {
                let module = self.module;
                let sig = module
                    .func_type(callee)
                    .ok_or_else(|| self.error(offset, format!("unknown callee {callee}")))?;
                let split = self.stack.len() - sig.params.len();
                let args = self.stack.split_off(split);
                let results: Vec<ValueId> = sig
                    .results
                    .iter()
                    .map(|&ty| self.ir.add_value(Node::CallResult, ty))
                    .collect();
                self.stack.extend_from_slice(&results);
                self.push_inst(Inst::Call {
                    offset: offset as u32,
                    callee,
                    args,
                    results,
                });
            }
            (Opcode::CallIndirect, Imm::CallIndirect { type_index, table_index }) => {
                let module = self.module;
                let sig = module
                    .types
                    .get(type_index as usize)
                    .ok_or_else(|| self.error(offset, format!("unknown type {type_index}")))?;
                let index = self.pop();
                let split = self.stack.len() - sig.params.len();
                let args = self.stack.split_off(split);
                let results: Vec<ValueId> = sig
                    .results
                    .iter()
                    .map(|&ty| self.ir.add_value(Node::CallResult, ty))
                    .collect();
                self.stack.extend_from_slice(&results);
                self.push_inst(Inst::CallIndirect {
                    offset: offset as u32,
                    type_index,
                    table_index,
                    index,
                    args,
                    results,
                });
            }
            (Opcode::Drop, _) => {
                self.pop();
            }
            (Opcode::Select | Opcode::SelectT, _) => {
                let cond = self.pop();
                let if_false = self.pop();
                let if_true = self.pop();
                let ty = self.ir.ty(if_true);
                let v = self.def(
                    Node::Select {
                        cond,
                        if_true,
                        if_false,
                    },
                    ty,
                );
                self.push(v);
            }
            (Opcode::LocalGet, Imm::Index(index)) => self.push(self.locals[index as usize]),
            (Opcode::LocalSet | Opcode::LocalTee, Imm::Index(index)) => {
                let v = *self.stack.last().expect("validated");
                self.locals[index as usize] = v;
                if op == Opcode::LocalSet {
                    self.pop();
                }
            }
            (Opcode::GlobalGet, Imm::Index(index)) => {
                let ty = self
                    .module
                    .global_type(index)
                    .ok_or_else(|| self.error(offset, format!("unknown global {index}")))?
                    .value_type;
                let v = self.def(Node::GlobalGet { index }, ty);
                self.push(v);
            }
            (Opcode::GlobalSet, Imm::Index(index)) => {
                let value = self.pop();
                self.push_inst(Inst::GlobalSet { index, value });
            }
            (Opcode::I32Const, Imm::I32(v)) => self.push_const(v as u32 as u64, ValueType::I32),
            (Opcode::I64Const, Imm::I64(v)) => self.push_const(v as u64, ValueType::I64),
            (Opcode::F32Const, Imm::F32(v)) => {
                self.push_const(v.to_bits() as u64, ValueType::F32);
            }
            (Opcode::F64Const, Imm::F64(v)) => self.push_const(v.to_bits(), ValueType::F64),
            (Opcode::RefNull, Imm::Ref(ty)) => self.push_const(NULL_REF_BITS, ty),
            (Opcode::RefFunc, Imm::Index(index)) => {
                self.push_const(index as u64, ValueType::FuncRef);
            }
            (Opcode::RefIsNull, _) => {
                let r = self.pop();
                let null = self
                    .ir
                    .add_value(Node::Const(NULL_REF_BITS), ValueType::I64);
                let v = self.def(
                    Node::Op {
                        class: OpClass::Cmp(CmpOp::Eq, Width::W64),
                        args: [r, null],
                    },
                    ValueType::I32,
                );
                self.push(v);
            }
            (Opcode::MemorySize, _) => {
                let v = self.def(Node::MemorySize, ValueType::I32);
                self.push(v);
            }
            (Opcode::MemoryGrow, _) => {
                let delta = self.pop();
                let v = self.def(Node::MemoryGrow { delta }, ValueType::I32);
                self.push(v);
            }
            (_, Imm::Mem(memarg)) => {
                let width = op.access_width().expect("memory access has a width");
                match op.signature() {
                    OpSignature::Load(result) => {
                        let addr = self.pop();
                        let signed = matches!(
                            op,
                            Opcode::I32Load8S
                                | Opcode::I32Load16S
                                | Opcode::I64Load8S
                                | Opcode::I64Load16S
                                | Opcode::I64Load32S
                        );
                        let dst_width = if result == ValueType::I32 || result == ValueType::F32 {
                            Width::W32
                        } else {
                            Width::W64
                        };
                        let v = self.def(
                            Node::MemLoad {
                                addr,
                                offset: memarg.offset,
                                width,
                                signed,
                                dst_width,
                            },
                            result,
                        );
                        self.push(v);
                    }
                    OpSignature::Store(_) => {
                        let value = self.pop();
                        let addr = self.pop();
                        self.push_inst(Inst::MemStore {
                            value,
                            addr,
                            offset: memarg.offset,
                            width,
                            src_offset: offset as u32,
                        });
                    }
                    _ => unreachable!("memory access opcodes have load/store signatures"),
                }
            }
            _ => {
                let class = classify(op)
                    .ok_or_else(|| self.error(offset, format!("unhandled opcode {op}")))?;
                let mut args = [ValueId(0); 2];
                if class.arity() == 2 {
                    args[1] = self.pop();
                    args[0] = self.pop();
                } else {
                    args[0] = self.pop();
                    args[1] = args[0];
                }
                let v = self.def(Node::Op { class, args }, class.result_type());
                self.push(v);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::types::{BlockType, FuncType};
    use wasm::validate::validate;

    fn build_ir(
        params: Vec<ValueType>,
        results: Vec<ValueType>,
        locals: Vec<ValueType>,
        code: CodeBuilder,
    ) -> FuncIr {
        build_ir_osr(params, results, locals, code, false)
    }

    fn build_ir_osr(
        params: Vec<ValueType>,
        results: Vec<ValueType>,
        locals: Vec<ValueType>,
        code: CodeBuilder,
        osr: bool,
    ) -> FuncIr {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(FuncType::new(params, results), locals, code.finish());
        let module = b.finish();
        let info = validate(&module).unwrap();
        build(
            &module,
            f,
            &info.funcs[0],
            &ProbeSites::none(),
            ProbeMode::Optimized,
            false,
            osr,
        )
        .unwrap()
    }

    /// Ten `i32` locals, the first a parameter.
    fn ten_locals(code: CodeBuilder, osr: bool) -> FuncIr {
        build_ir_osr(vec![ValueType::I32], vec![], vec![ValueType::I32; 9], code, osr)
    }

    /// The arguments of `block`'s jump.
    fn jump_args(ir: &FuncIr, block: u32) -> &[ValueId] {
        match &ir.blocks[block as usize].term {
            Terminator::Jump(edge) => &edge.args,
            other => panic!("b{block} ends in {other:?}\n{}", ir.display()),
        }
    }

    // Blocks are numbered as the frontend creates them: the entry is b0, a
    // construct's merge comes next, then a loop's header and OSR entry or
    // an `if`'s then and else blocks.

    #[test]
    fn a_block_that_writes_nothing_merges_no_locals() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty).local_get(4).drop_().end();
        let ir = ten_locals(c, false);
        assert!(ir.blocks[1].params.is_empty(), "{}", ir.display());
        assert!(jump_args(&ir, 0).is_empty(), "{}", ir.display());
    }

    fn loop_writing_local_3() -> CodeBuilder {
        let mut c = CodeBuilder::new();
        c.loop_(BlockType::Empty)
            .local_get(3)
            .i32_const(1)
            .op(Opcode::I32Add)
            .local_tee(3)
            .br_if(0)
            .end();
        c
    }

    #[test]
    fn a_loop_header_takes_only_the_locals_the_loop_writes() {
        let ir = ten_locals(loop_writing_local_3(), false);
        assert_eq!(ir.blocks[2].params.len(), 1, "{}", ir.display());
        assert_eq!(jump_args(&ir, 0).len(), 1, "{}", ir.display());
        assert!(ir.osr_sites.is_empty());
    }

    #[test]
    fn with_osr_armed_a_loop_header_takes_every_frame_slot() {
        let ir = ten_locals(loop_writing_local_3(), true);
        assert_eq!(ir.blocks[2].params.len(), 10, "{}", ir.display());
        let [site] = &ir.osr_sites[..] else {
            panic!("one loop, one OSR entry: {:?}", ir.osr_sites)
        };
        let entry = site.entry.0;
        let slots: Vec<_> = ir.blocks[entry as usize]
            .insts
            .iter()
            .map(|inst| match inst {
                Inst::Def(v) => ir.nodes[v.index()].clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        let expected: Vec<_> = (0..10).map(|index| Node::OsrSlot { index }).collect();
        assert_eq!(slots, expected);
        assert_eq!(jump_args(&ir, entry).len(), 10, "{}", ir.display());
    }

    #[test]
    fn a_write_in_an_inner_block_is_carried_by_the_outer_merge() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .block(BlockType::Empty)
            .i32_const(5)
            .local_set(7)
            .end()
            .end();
        let ir = ten_locals(c, false);
        let (outer, inner) = (&ir.blocks[1], &ir.blocks[2]);
        assert_eq!((outer.params.len(), inner.params.len()), (1, 1), "{}", ir.display());
        // The inner merge falls through to the outer one with its parameter.
        assert_eq!(jump_args(&ir, 2), &inner.params[..], "{}", ir.display());
    }

    #[test]
    fn an_if_without_else_passes_the_entry_value_on_the_else_edge() {
        let mut c = CodeBuilder::new();
        c.local_get(0).if_(BlockType::Empty).i32_const(7).local_set(1).end();
        let ir = ten_locals(c, false);
        assert_eq!(ir.blocks[1].params.len(), 1, "{}", ir.display());
        // The then-arm passes what it wrote; the else edge passes local 1's
        // value at the `if`: its default, zero.
        let then_args = jump_args(&ir, 2);
        let else_args = jump_args(&ir, 3);
        assert_eq!(then_args.len(), 1);
        assert_eq!(ir.as_const(then_args[0]), Some(7), "{}", ir.display());
        assert_eq!(else_args.len(), 1);
        assert_eq!(ir.as_const(else_args[0]), Some(0), "{}", ir.display());
    }

    #[test]
    fn straight_line_builds_one_block() {
        let mut c = CodeBuilder::new();
        c.local_get(0).i32_const(2).op(Opcode::I32Add);
        let ir = build_ir(vec![ValueType::I32], vec![ValueType::I32], vec![], c);
        assert_eq!(ir.reachable().iter().filter(|r| **r).count(), 1);
        match &ir.blocks[0].term {
            Terminator::Return(values) => assert_eq!(values.len(), 1),
            other => panic!("expected return, got {other:?}"),
        }
    }

    #[test]
    fn loop_creates_a_header_with_params() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .loop_(BlockType::Empty)
            .local_get(0)
            .op(Opcode::I32Eqz)
            .br_if(1)
            .local_get(0)
            .i32_const(1)
            .op(Opcode::I32Sub)
            .local_set(0)
            .br(0)
            .end()
            .end()
            .local_get(0);
        let ir = build_ir(vec![ValueType::I32], vec![ValueType::I32], vec![], c);
        // The loop header has a parameter for the local.
        let has_loop_params = ir
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| i != 0 && !b.params.is_empty());
        assert!(has_loop_params, "{}", ir.display());
    }

    #[test]
    fn if_without_else_flows_to_merge() {
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .if_(BlockType::Empty)
            .i32_const(7)
            .local_set(0)
            .end()
            .local_get(0);
        let ir = build_ir(vec![ValueType::I32], vec![ValueType::I32], vec![], c);
        // Every reachable block is terminated (no placeholder traps except
        // real ones).
        let reach = ir.reachable();
        for (i, block) in ir.blocks.iter().enumerate() {
            if reach[i] {
                if let Terminator::Trap {
                    code: TrapCode::Unreachable,
                    ..
                } = &block.term
                {
                    panic!("unterminated reachable block b{i}:\n{}", ir.display())
                }
            }
        }
    }

    #[test]
    fn dead_code_is_skipped() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .br(0)
            .i32_const(1)
            .i32_const(2)
            .op(Opcode::I32Add)
            .drop_()
            .end();
        let ir = build_ir(vec![], vec![], vec![], c);
        // The dead add was never lowered.
        assert!(
            !ir.nodes.iter().any(|n| matches!(
                n,
                Node::Op {
                    class: OpClass::Alu(machine::inst::AluOp::Add, _),
                    ..
                }
            )),
            "{}",
            ir.display()
        );
    }

    #[test]
    fn declared_locals_default_to_constants() {
        let mut c = CodeBuilder::new();
        c.local_get(1);
        let ir = build_ir(
            vec![ValueType::I32],
            vec![ValueType::I64],
            vec![ValueType::I64],
            c,
        );
        match &ir.blocks[0].term {
            Terminator::Return(values) => {
                assert_eq!(ir.as_const(values[0]), Some(0));
            }
            other => panic!("expected return, got {other:?}"),
        }
    }
}
