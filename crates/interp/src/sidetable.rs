//! Sidetable construction for the in-place interpreter.
//!
//! The in-place interpreter executes the original bytecode without rewriting
//! it, so it needs somewhere to find, for every branch, the target bytecode
//! offset and how to fix up the operand stack when the branch is taken. That
//! metadata is the *sidetable* (the `STP` of the paper's Fig. 2), built in a
//! single forward pass that mirrors validation's control-stack discipline:
//! every forward label's branches are recorded as fixups and resolved when
//! the construct's `end` is reached, so construction is one walk of the code
//! plus one sort of the branch entries into offset order.

use wasm::module::Module;
use wasm::opcode::{OpSignature, Opcode};
use wasm::reader::BytecodeReader;
use wasm::types::BlockType;

/// One branch resolution: where to jump and how to adjust the operand stack.
///
/// Taking the branch copies the top `arity` operand slots down to
/// `label_base` (the operand height of the target label) and continues at
/// `target_ip`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEntry {
    /// Bytecode offset to continue at.
    pub target_ip: u32,
    /// Operand-stack height (in slots above the locals) of the target label.
    pub label_base: u32,
    /// Number of values the label receives.
    pub arity: u32,
}

/// The per-function sidetable.
///
/// Entries are keyed by the bytecode offset of the branching instruction and
/// stored in vectors sorted by strictly increasing offset; a lookup is a
/// binary search. The entries of all `br_table`s share one pool, each
/// table's slice located by a `(offset, start, len)` record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sidetable {
    branches: Vec<(u32, BranchEntry)>,
    tables: Vec<TableRef>,
    table_entries: Vec<BranchEntry>,
}

/// Where one `br_table`'s entries sit in [`Sidetable::table_entries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableRef {
    offset: u32,
    start: u32,
    len: u32,
}

impl Sidetable {
    /// The branch entry for the `br`, `br_if`, `if`, or `else` at `offset`.
    #[inline]
    pub fn branch(&self, offset: u32) -> Option<&BranchEntry> {
        let index = self.branches.binary_search_by_key(&offset, |(at, _)| *at).ok()?;
        Some(&self.branches[index].1)
    }

    /// The entries for the `br_table` at `offset`: one per target followed by
    /// the default.
    pub fn br_table(&self, offset: u32) -> Option<&[BranchEntry]> {
        let index = self.tables.binary_search_by_key(&offset, |table| table.offset).ok()?;
        let TableRef { start, len, .. } = self.tables[index];
        self.table_entries.get(start as usize..(start + len) as usize)
    }

    /// Total number of entries (for size accounting).
    pub fn len(&self) -> usize {
        self.branches.len() + self.table_entries.len()
    }

    /// True if the function has no control transfers at all.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty() && self.table_entries.is_empty()
    }
}

/// An error encountered while building a sidetable. Validation normally runs
/// first, so these indicate either unvalidated input or an engine bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SidetableError {
    /// Bytecode offset of the problem.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for SidetableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sidetable error at +{}: {}", self.offset, self.message)
    }
}

impl std::error::Error for SidetableError {}

#[derive(Debug)]
struct CtrlFrame {
    is_loop: bool,
    label_base: u32,
    params: u32,
    results: u32,
    /// First instruction of a loop body (branch target for loops).
    start_ip: u32,
    /// `br`/`br_if` offsets waiting for this frame's `end`.
    branch_fixups: Vec<u32>,
    /// `br_table` entries (indices into the entry pool) waiting for this
    /// frame's `end`.
    table_fixups: Vec<usize>,
    /// Offset of an `if` whose false-branch target is not yet known.
    pending_if_false: Option<u32>,
    /// Offset of an `else` whose jump-to-end target is not yet known.
    pending_else: Option<u32>,
    unreachable: bool,
}

/// Builds the sidetable for the defined function with function-space index
/// `func_index`.
///
/// # Errors
///
/// Returns an error if the body is structurally malformed (which validation
/// would also reject).
pub fn build_sidetable(module: &Module, func_index: u32) -> Result<Sidetable, SidetableError> {
    let decl = module.func_decl(func_index).ok_or(SidetableError {
        offset: 0,
        message: format!("function {func_index} has no body"),
    })?;
    let sig = module.func_type(func_index).ok_or(SidetableError {
        offset: 0,
        message: format!("function {func_index} has no signature"),
    })?;
    let code = &decl.code;
    let mut table = Sidetable::default();
    let mut frames = vec![CtrlFrame {
        is_loop: false,
        label_base: 0,
        params: 0,
        results: sig.results.len() as u32,
        start_ip: 0,
        branch_fixups: Vec::new(),
        table_fixups: Vec::new(),
        pending_if_false: None,
        pending_else: None,
        unreachable: false,
    }];
    let mut height: u32 = 0;
    let mut reader = BytecodeReader::new(code);

    let err = |offset: usize, message: String| SidetableError { offset, message };

    while !frames.is_empty() {
        if reader.is_at_end() {
            return Err(err(code.len(), "unexpected end of body".to_string()));
        }
        let offset = reader.pc() as u32;
        let op = reader
            .read_opcode()
            .map_err(|e| err(offset as usize, e.to_string()))?;
        let unreachable = frames.last().map(|f| f.unreachable).unwrap_or(false);

        macro_rules! pop {
            ($n:expr) => {
                if !unreachable {
                    height = height.saturating_sub($n);
                }
            };
        }
        macro_rules! push {
            ($n:expr) => {
                if !unreachable {
                    height += $n;
                }
            };
        }

        match op {
            Opcode::Block | Opcode::Loop | Opcode::If => {
                let bt = reader
                    .read_block_type()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                let (params, results) = block_signature(module, bt)
                    .ok_or_else(|| err(offset as usize, "bad block type".to_string()))?;
                if op == Opcode::If {
                    pop!(1);
                }
                let label_base = if unreachable {
                    frames.last().map(|f| f.label_base).unwrap_or(0)
                } else {
                    height.saturating_sub(params)
                };
                frames.push(CtrlFrame {
                    is_loop: op == Opcode::Loop,
                    label_base,
                    params,
                    results,
                    start_ip: reader.pc() as u32,
                    branch_fixups: Vec::new(),
                    table_fixups: Vec::new(),
                    pending_if_false: if op == Opcode::If { Some(offset) } else { None },
                    pending_else: None,
                    unreachable,
                });
            }
            Opcode::Else => {
                let frame = frames.last_mut().expect("inside a frame");
                if let Some(if_offset) = frame.pending_if_false.take() {
                    table.branches.push((
                        if_offset,
                        BranchEntry {
                            target_ip: offset + 1,
                            label_base: frame.label_base,
                            arity: frame.params,
                        },
                    ));
                }
                frame.pending_else = Some(offset);
                frame.unreachable = false;
                height = frame.label_base + frame.params;
            }
            Opcode::End => {
                let frame = frames.pop().expect("inside a frame");
                let entry = BranchEntry {
                    target_ip: offset,
                    label_base: frame.label_base,
                    arity: frame.results,
                };
                let resolved = frame.pending_if_false.into_iter().chain(frame.pending_else);
                table
                    .branches
                    .extend(resolved.chain(frame.branch_fixups).map(|at| (at, entry)));
                for slot in frame.table_fixups {
                    table.table_entries[slot] = entry;
                }
                height = frame.label_base + frame.results;
                if let Some(parent) = frames.last() {
                    if parent.unreachable {
                        height = parent.label_base;
                    }
                }
            }
            Opcode::Br | Opcode::BrIf => {
                let depth = reader
                    .read_index()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                if op == Opcode::BrIf {
                    pop!(1);
                }
                record_branch(&mut table, &mut frames, offset, depth, None)
                    .map_err(|m| err(offset as usize, m))?;
                if op == Opcode::Br {
                    mark_unreachable(&mut frames, &mut height);
                }
            }
            Opcode::BrTable => {
                let count = reader
                    .read_index()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                pop!(1);
                // One entry per target, then the default; each is pushed only
                // once its depth has been read, so a hostile count cannot
                // size an allocation.
                let start = table.table_entries.len();
                for _ in 0..=count {
                    let depth = reader
                        .read_index()
                        .map_err(|e| err(offset as usize, e.to_string()))?;
                    let slot = table.table_entries.len();
                    table.table_entries.push(BranchEntry { target_ip: 0, label_base: 0, arity: 0 });
                    record_branch(&mut table, &mut frames, offset, depth, Some(slot))
                        .map_err(|m| err(offset as usize, m))?;
                }
                table.tables.push(TableRef {
                    offset,
                    start: start as u32,
                    len: (table.table_entries.len() - start) as u32,
                });
                mark_unreachable(&mut frames, &mut height);
            }
            Opcode::Return | Opcode::Unreachable => {
                mark_unreachable(&mut frames, &mut height);
            }
            Opcode::Call => {
                let callee = reader
                    .read_index()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                let ty = module
                    .func_type(callee)
                    .ok_or_else(|| err(offset as usize, format!("unknown callee {callee}")))?;
                pop!(ty.params.len() as u32);
                push!(ty.results.len() as u32);
            }
            Opcode::CallIndirect => {
                let (type_index, _table) = reader
                    .read_call_indirect()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                let ty = module
                    .types
                    .get(type_index as usize)
                    .ok_or_else(|| err(offset as usize, format!("unknown type {type_index}")))?;
                pop!(1 + ty.params.len() as u32);
                push!(ty.results.len() as u32);
            }
            Opcode::Drop => pop!(1),
            Opcode::Select => {
                pop!(3);
                push!(1);
            }
            Opcode::SelectT => {
                reader
                    .skip_immediates(op)
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                pop!(3);
                push!(1);
            }
            Opcode::LocalGet | Opcode::GlobalGet => {
                reader
                    .read_index()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                push!(1);
            }
            Opcode::LocalSet | Opcode::GlobalSet => {
                reader
                    .read_index()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                pop!(1);
            }
            Opcode::LocalTee => {
                reader
                    .read_index()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
            }
            Opcode::MemorySize => {
                reader
                    .read_memory_index()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                push!(1);
            }
            Opcode::MemoryGrow => {
                reader
                    .read_memory_index()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
            }
            Opcode::RefNull => {
                reader
                    .read_ref_type()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                push!(1);
            }
            Opcode::RefIsNull => {}
            Opcode::RefFunc => {
                reader
                    .read_index()
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                push!(1);
            }
            Opcode::Nop => {}
            _ => {
                // Constants, arithmetic, comparisons, conversions, and memory
                // accesses: derive the stack effect from the signature.
                reader
                    .skip_immediates(op)
                    .map_err(|e| err(offset as usize, e.to_string()))?;
                match op.signature() {
                    OpSignature::Const(_) => push!(1),
                    OpSignature::Unary(..) => {}
                    OpSignature::Binary(..) => {
                        pop!(2);
                        push!(1);
                    }
                    OpSignature::Load(_) => {}
                    OpSignature::Store(_) => pop!(2),
                    OpSignature::Special => {
                        return Err(err(offset as usize, format!("unhandled opcode {op}")))
                    }
                }
            }
        }
    }
    // Forward branches were recorded when their label's `end` resolved them,
    // not where they stand; `br_table`s were met in offset order already.
    table.branches.sort_unstable_by_key(|(at, _)| *at);
    debug_assert!(table.branches.windows(2).all(|w| w[0].0 < w[1].0));
    debug_assert!(table.tables.windows(2).all(|w| w[0].offset < w[1].offset));
    Ok(table)
}

fn block_signature(module: &Module, bt: BlockType) -> Option<(u32, u32)> {
    let (params, results) = bt.resolve(&module.types)?;
    Some((params.len() as u32, results.len() as u32))
}

fn record_branch(
    table: &mut Sidetable,
    frames: &mut [CtrlFrame],
    offset: u32,
    depth: u32,
    table_slot: Option<usize>,
) -> Result<(), String> {
    let len = frames.len();
    if depth as usize >= len {
        return Err(format!("branch depth {depth} exceeds nesting {len}"));
    }
    let frame = &mut frames[len - 1 - depth as usize];
    if frame.is_loop {
        let entry = BranchEntry {
            target_ip: frame.start_ip,
            label_base: frame.label_base,
            arity: frame.params,
        };
        match table_slot {
            Some(slot) => table.table_entries[slot] = entry,
            None => table.branches.push((offset, entry)),
        }
    } else {
        match table_slot {
            Some(slot) => frame.table_fixups.push(slot),
            None => frame.branch_fixups.push(offset),
        }
    }
    Ok(())
}

fn mark_unreachable(frames: &mut [CtrlFrame], height: &mut u32) {
    if let Some(frame) = frames.last_mut() {
        frame.unreachable = true;
        *height = frame.label_base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::types::{FuncType, ValueType};

    fn build(params: Vec<ValueType>, results: Vec<ValueType>, code: CodeBuilder) -> (Module, u32) {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(FuncType::new(params, results), vec![], code.finish());
        (b.finish(), f)
    }

    #[test]
    fn straight_line_code_has_empty_sidetable() {
        let mut c = CodeBuilder::new();
        c.i32_const(1).i32_const(2).op(Opcode::I32Add);
        let (m, f) = build(vec![], vec![ValueType::I32], c);
        let t = build_sidetable(&m, f).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn block_branch_targets_its_end() {
        // block ; br 0 ; i32.const 1 ; drop ; end
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty).br(0).i32_const(1).drop_().end();
        let (m, f) = build(vec![], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        // The br is at offset 2 (block=0, blocktype=1, br=2).
        let entry = t.branch(2).expect("br entry");
        // Target is the `end` of the block. Layout:
        // 0 block, 1 bt, 2 br, 3 depth, 4 const, 5 imm, 6 drop, 7 end(block), 8 end(func)
        assert_eq!(entry.target_ip, 7);
        assert_eq!(entry.arity, 0);
        assert_eq!(entry.label_base, 0);
    }

    #[test]
    fn loop_branch_targets_loop_start() {
        // loop ; br_if 0 backedge driven by local 0 ; end
        let mut c = CodeBuilder::new();
        c.loop_(BlockType::Empty).local_get(0).br_if(0).end();
        let (m, f) = build(vec![ValueType::I32], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 loop, 1 bt, 2 local.get, 3 idx, 4 br_if, 5 depth, 6 end, 7 end
        let entry = t.branch(4).expect("br_if entry");
        assert_eq!(entry.target_ip, 2, "loop branches target the body start");
        assert_eq!(entry.arity, 0);
    }

    #[test]
    fn if_else_entries() {
        // if (result i32) then 1 else 2 end
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .if_(BlockType::Value(ValueType::I32))
            .i32_const(1)
            .else_()
            .i32_const(2)
            .end();
        let (m, f) = build(vec![ValueType::I32], vec![ValueType::I32], c);
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 local.get, 1 idx, 2 if, 3 bt, 4 const, 5 imm, 6 else, 7 const, 8 imm, 9 end, 10 end
        let if_entry = t.branch(2).expect("if false entry");
        assert_eq!(if_entry.target_ip, 7, "false branch jumps past the else");
        assert_eq!(if_entry.arity, 0);
        let else_entry = t.branch(6).expect("else entry");
        assert_eq!(else_entry.target_ip, 9, "then branch jumps to end");
        assert_eq!(else_entry.arity, 1);
    }

    #[test]
    fn if_without_else_targets_end() {
        let mut c = CodeBuilder::new();
        c.local_get(0).if_(BlockType::Empty).nop().end();
        let (m, f) = build(vec![ValueType::I32], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 local.get, 1 idx, 2 if, 3 bt, 4 nop, 5 end, 6 end
        let entry = t.branch(2).expect("if entry");
        assert_eq!(entry.target_ip, 5);
    }

    #[test]
    fn br_table_entries_cover_targets_and_default() {
        // block block br_table [1 0] 1 end end
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .block(BlockType::Empty)
            .local_get(0)
            .br_table(&[1, 0], 1)
            .end()
            .end();
        let (m, f) = build(vec![ValueType::I32], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 block,1 bt,2 block,3 bt,4 local.get,5 idx,6 br_table,...
        let entries = t.br_table(6).expect("br_table entries");
        assert_eq!(entries.len(), 3);
        // Inner block's end is at offset 11, outer at 12.
        // depth 1 = outer block, depth 0 = inner block.
        assert_eq!(entries[0].target_ip, 12);
        assert_eq!(entries[1].target_ip, 11);
        assert_eq!(entries[2].target_ip, 12);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn entries_are_stored_in_offset_order_however_late_they_resolve() {
        // block ; block ; br 1 ; br 0 ; end ; br 0 ; end
        // 0       2       4      6      8     9      11
        // The first `br` waits for the outer `end`, so it resolves last.
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .block(BlockType::Empty)
            .br(1)
            .br(0)
            .end()
            .br(0)
            .end();
        let (m, f) = build(vec![], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        let offsets: Vec<u32> = t.branches.iter().map(|(at, _)| *at).collect();
        assert_eq!(offsets, [4, 6, 9]);
        assert_eq!(t.branch(4).unwrap().target_ip, 11);
        assert_eq!(t.branch(6).unwrap().target_ip, 8);
        assert_eq!(t.branch(9).unwrap().target_ip, 11);
        assert!(t.branch(5).is_none() && t.br_table(4).is_none());
    }

    #[test]
    fn br_tables_share_one_entry_pool() {
        // block ; local.get 0 ; br_table [0] 0 ; end ; local.get 0 ; br_table [0 0] 0
        // 0       2             4                8     9             11
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .local_get(0)
            .br_table(&[0], 0)
            .end()
            .local_get(0)
            .br_table(&[0, 0], 0);
        let (m, f) = build(vec![ValueType::I32], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        let first: Vec<u32> = t.br_table(4).unwrap().iter().map(|e| e.target_ip).collect();
        let second: Vec<u32> = t.br_table(11).unwrap().iter().map(|e| e.target_ip).collect();
        assert_eq!(first, [8, 8]);
        assert_eq!(second, [16, 16, 16]);
        assert_eq!(t.len(), 5);
        assert!(t.br_table(8).is_none() && t.branch(4).is_none());
    }

    #[test]
    fn branch_to_function_label_targets_final_end() {
        let mut c = CodeBuilder::new();
        c.i32_const(3).br(0);
        let (m, f) = build(vec![], vec![ValueType::I32], c);
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 const, 1 imm, 2 br, 3 depth, 4 end
        let entry = t.branch(2).expect("br to function label");
        assert_eq!(entry.target_ip, 4);
        assert_eq!(entry.arity, 1);
        assert_eq!(entry.label_base, 0);
    }

    #[test]
    fn label_base_reflects_surrounding_operands() {
        // Push two values, then a block whose branches must preserve them.
        let mut c = CodeBuilder::new();
        c.i32_const(10)
            .i32_const(20)
            .block(BlockType::Empty)
            .br(0)
            .end()
            .op(Opcode::I32Add);
        let (m, f) = build(vec![], vec![ValueType::I32], c);
        let t = build_sidetable(&m, f).unwrap();
        // br is at offset 6 (const,imm, const,imm, block,bt, br).
        let entry = t.branch(6).expect("br entry");
        assert_eq!(entry.label_base, 2, "two operands below the block");
    }

    #[test]
    fn unreachable_code_does_not_break_construction() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .br(0)
            .op(Opcode::I32Add) // dead, operands would underflow if tracked naively
            .drop_()
            .end();
        let (m, f) = build(vec![], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        assert!(t.branch(2).is_some());
    }

    #[test]
    fn missing_function_is_an_error() {
        let (m, _) = build(vec![], vec![], CodeBuilder::new());
        let e = build_sidetable(&m, 99).unwrap_err();
        assert!(e.to_string().contains("no body"));
    }

    #[test]
    fn call_stack_effects_are_tracked() {
        let mut b = ModuleBuilder::new();
        let callee = {
            let mut c = CodeBuilder::new();
            c.i32_const(1).i32_const(2);
            b.add_func(
                FuncType::new(vec![], vec![ValueType::I32, ValueType::I32]),
                vec![],
                c.finish(),
            )
        };
        // call pushes two values; the block's branches must see label_base 2.
        let mut c = CodeBuilder::new();
        c.call(callee)
            .block(BlockType::Empty)
            .br(0)
            .end()
            .op(Opcode::I32Add);
        let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
        let m = b.finish();
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 call,1 idx,2 block,3 bt,4 br,5 depth,...
        assert_eq!(t.branch(4).unwrap().label_base, 2);
    }
}
