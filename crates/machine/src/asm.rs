//! The assembler and finished code buffers.
//!
//! A single-pass compiler emits code strictly forward, so the assembler has
//! to handle *forward references*: a branch to a label that has not yet been
//! bound (e.g. the end of a block). Labels are patched when bound, exactly as
//! real baseline compilers patch relative displacements.
//!
//! The assembler also records a *source map* from emitted instruction indices
//! back to Wasm bytecode offsets. That map is what lets the engine recompute
//! the bytecode-level program counter from a machine-code location for
//! stack traces, instrumentation, and tier-down (deopt), per Section IV-B of
//! the paper.

use crate::inst::{Label, LabelRange, MachInst};
use crate::masm::{push_source_mark, Masm};
use crate::predecode::{self, Op};
use crate::reg::Reg;
use std::fmt;
use std::sync::OnceLock;

/// Code positions are stored as `u32` instruction indices: label targets and
/// source-map anchors are per-function metadata written once per label and
/// per bytecode, and half-width entries halve that traffic.
#[inline]
fn index_u32(index: usize) -> u32 {
    u32::try_from(index).expect("code buffer outgrew u32 instruction indices")
}

/// A finished, immutable sequence of machine instructions plus metadata.
///
/// Equality compares everything — instructions, label targets, the
/// `br_table` label pool, source map, and size — so two buffers are `==`
/// exactly when they are byte-identical artifacts; the parallel compile
/// pipeline's determinism tests rely on this.
///
/// The simulator executes a pre-decoded translation of the instructions
/// (`predecode.rs`), made on the buffer's first execution and kept beside
/// them; a buffer that never runs never pays for it. The translation is
/// derived from the rest, so equality and `Debug` ignore it.
#[derive(Clone, Default)]
pub struct CodeBuffer {
    insts: Vec<MachInst>,
    label_targets: Vec<u32>,
    label_pool: Vec<Label>,
    source_map: Vec<(u32, u32)>,
    code_size: usize,
    ops: OnceLock<Box<[Op]>>,
}

impl PartialEq for CodeBuffer {
    fn eq(&self, other: &CodeBuffer) -> bool {
        self.insts == other.insts
            && self.label_targets == other.label_targets
            && self.label_pool == other.label_pool
            && self.source_map == other.source_map
            && self.code_size == other.code_size
    }
}

impl fmt::Debug for CodeBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodeBuffer")
            .field("insts", &self.insts)
            .field("label_targets", &self.label_targets)
            .field("label_pool", &self.label_pool)
            .field("source_map", &self.source_map)
            .field("code_size", &self.code_size)
            .finish_non_exhaustive()
    }
}

/// True if a `br_table`'s targets lie inside a label pool of `pool_len`.
fn range_in_pool(range: LabelRange, pool_len: usize) -> bool {
    range.start as usize + range.len as usize <= pool_len
}

impl CodeBuffer {
    /// Rebuilds a code buffer from raw parts. Used by post-passes that
    /// rewrite instruction sequences and must remap label targets, the
    /// `br_table` label pool and source-map entries themselves.
    ///
    /// In debug builds this validates the remapping instead of silently
    /// accepting a corrupt rewrite: every label target and source-map
    /// instruction index must be in bounds (a label may target one past the
    /// end, i.e. the function's end), every `br_table`'s range must lie
    /// inside `label_pool`, and the source map must stay sorted by
    /// instruction index so [`CodeBuffer::source_offset`]'s binary search
    /// remains correct.
    pub fn from_raw_parts(
        insts: Vec<MachInst>,
        label_targets: Vec<u32>,
        label_pool: Vec<Label>,
        source_map: Vec<(u32, u32)>,
    ) -> CodeBuffer {
        #[cfg(debug_assertions)]
        {
            for (label, &target) in label_targets.iter().enumerate() {
                debug_assert!(
                    target as usize <= insts.len(),
                    "label L{label} targets instruction {target}, past the end ({})",
                    insts.len()
                );
            }
            for (index, inst) in insts.iter().enumerate() {
                if let MachInst::BrTable { targets, .. } = inst {
                    debug_assert!(
                        range_in_pool(*targets, label_pool.len()),
                        "instruction {index}: {inst} runs past the label pool ({})",
                        label_pool.len()
                    );
                }
            }
            for pair in source_map.windows(2) {
                debug_assert!(
                    pair[0].0 <= pair[1].0,
                    "source map must be sorted by instruction index: {:?} before {:?}",
                    pair[0],
                    pair[1]
                );
            }
            if let Some(&(index, _)) = source_map.last() {
                debug_assert!(
                    index as usize <= insts.len(),
                    "source-map entry at instruction {index} is past the end ({})",
                    insts.len()
                );
            }
        }
        let code_size = insts.iter().map(|i| i.encoded_size()).sum();
        CodeBuffer {
            insts,
            label_targets,
            label_pool,
            source_map,
            code_size,
            ops: OnceLock::new(),
        }
    }

    /// The simulator's translation of the instructions, made on first use.
    pub(crate) fn ops(&self) -> &[Op] {
        self.ops.get_or_init(|| predecode::translate(self))
    }

    /// The resolved label targets (instruction indices), indexed by label id.
    pub fn label_targets(&self) -> &[u32] {
        &self.label_targets
    }

    /// The flat pool every `br_table`'s [`LabelRange`] indexes into.
    pub fn label_pool(&self) -> &[Label] {
        &self.label_pool
    }

    /// The instructions in emission order.
    pub fn insts(&self) -> &[MachInst] {
        &self.insts
    }

    /// The number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// True if the buffer contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The estimated encoded size of the code in bytes.
    pub fn code_size(&self) -> usize {
        self.code_size
    }

    /// Resolves a label to its instruction index.
    ///
    /// # Panics
    ///
    /// Panics if the label was never bound (the assembler checks this at
    /// `finish` time, so it cannot happen for buffers it produced).
    pub fn target(&self, label: Label) -> usize {
        self.label_targets[label.0 as usize] as usize
    }

    /// The targets of a `br_table`, out of the buffer's label pool.
    ///
    /// # Panics
    ///
    /// Panics if `range` does not come from an instruction of this buffer.
    pub fn table(&self, range: LabelRange) -> &[Label] {
        &self.label_pool[range.start as usize..][..range.len as usize]
    }

    /// The (instruction index, bytecode offset) source map, sorted by
    /// instruction index.
    pub fn source_map(&self) -> &[(u32, u32)] {
        &self.source_map
    }

    /// Recomputes the Wasm bytecode offset for a machine instruction index,
    /// i.e. the paper's "current program counter can be recomputed from the
    /// machine code instruction pointer".
    pub fn source_offset(&self, inst_index: usize) -> Option<u32> {
        match self
            .source_map
            .binary_search_by_key(&inst_index, |&(i, _)| i as usize)
        {
            Ok(i) => Some(self.source_map[i].1),
            Err(0) => None,
            Err(i) => Some(self.source_map[i - 1].1),
        }
    }

    /// Renders the code as a human-readable listing with label markers.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (index, inst) in self.insts.iter().enumerate() {
            for (label, &target) in self.label_targets.iter().enumerate() {
                if target as usize == index {
                    out.push_str(&format!("{}:\n", Label(label as u32)));
                }
            }
            out.push_str(&format!("  {index:4}  {inst}"));
            if let MachInst::BrTable { targets, .. } = inst {
                let labels: Vec<String> =
                    self.table(*targets).iter().map(Label::to_string).collect();
                out.push_str(&format!(" = [{}]", labels.join(", ")));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for CodeBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.disassemble())
    }
}

/// An append-only assembler for the virtual target ISA.
#[derive(Debug, Clone, Default)]
pub struct Assembler {
    insts: Vec<MachInst>,
    labels: Vec<Option<u32>>,
    label_pool: Vec<Label>,
    source_map: Vec<(u32, u32)>,
    code_size: usize,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Creates an assembler for compiling a function body of `wasm_bytes`
    /// bytes, with room for the instructions, source-map entries and labels
    /// such a body usually needs (a third of an instruction and a quarter of
    /// a mark per byte are typical, a label per 20), so none of them grows
    /// as the compile goes. `finish` trims what is left over.
    pub fn for_body(wasm_bytes: usize) -> Assembler {
        let expected = wasm_bytes / 2 + 8;
        Assembler {
            insts: Vec::with_capacity(expected),
            source_map: Vec::with_capacity(expected),
            labels: Vec::with_capacity(wasm_bytes / 16 + 4),
            ..Assembler::default()
        }
    }
}

/// The virtual-ISA backend: an operation is appended as it is, and site
/// indices are instruction indices — the engine uses them to resume execution
/// after calls and probes.
impl Masm for Assembler {
    type Output = CodeBuffer;

    fn new_label(&mut self) -> Label {
        let label = Label(self.labels.len() as u32);
        self.labels.push(None);
        label
    }

    fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label {label} bound twice");
        *slot = Some(index_u32(self.insts.len()));
    }

    #[inline]
    fn mark_source(&mut self, offset: u32) {
        push_source_mark(&mut self.source_map, index_u32(self.insts.len()), offset);
    }

    fn num_insts(&self) -> usize {
        self.insts.len()
    }

    fn position(&self) -> usize {
        self.insts.len()
    }

    fn code_size(&self) -> usize {
        self.code_size
    }

    fn finish(mut self) -> CodeBuffer {
        // The buffer outlives the compile by the artifact's whole life in
        // the code cache; the slack `push` left behind (up to half of each
        // vector) would stay resident with it.
        self.insts.shrink_to_fit();
        self.label_pool.shrink_to_fit();
        self.source_map.shrink_to_fit();
        let label_targets = self
            .labels
            .iter()
            .enumerate()
            .map(|(i, t)| t.unwrap_or_else(|| panic!("label L{i} was never bound")))
            .collect();
        CodeBuffer {
            insts: self.insts,
            label_targets,
            label_pool: self.label_pool,
            source_map: self.source_map,
            code_size: self.code_size,
            ops: OnceLock::new(),
        }
    }

    /// A `BrTable` is normally emitted through [`Masm::br_table`], which
    /// owns the label pool; a hand-built one must name a range already in
    /// the pool (checked in debug builds, so a bad range fails here and not
    /// as a slice panic in the simulator).
    ///
    /// Inlined into the compilers, where each call site's instruction is
    /// known: its size folds to a constant and it is stored field by field
    /// instead of being copied through memory.
    #[inline]
    fn emit(&mut self, inst: MachInst) -> usize {
        if let MachInst::BrTable { targets, .. } = inst {
            debug_assert!(
                range_in_pool(targets, self.label_pool.len()),
                "{inst} runs past the label pool ({})",
                self.label_pool.len()
            );
        }
        self.code_size += inst.encoded_size();
        let index = self.insts.len();
        self.insts.push(inst);
        index
    }

    fn br_table(&mut self, index: Reg, targets: &[Label], default: Label) {
        let range = LabelRange {
            start: index_u32(self.label_pool.len()),
            len: index_u32(targets.len()),
        };
        self.label_pool.extend_from_slice(targets);
        self.emit(MachInst::BrTable { index, targets: range, default });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::TrapCode;
    use crate::reg::Reg;

    #[test]
    fn emit_and_finish() {
        let mut asm = Assembler::new();
        assert_eq!(asm.num_insts(), 0);
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 1 });
        asm.emit(MachInst::Return);
        assert_eq!(asm.num_insts(), 2);
        assert!(asm.code_size() > 0);
        let code = asm.finish();
        assert_eq!(code.len(), 2);
        assert!(!code.is_empty());
        assert_eq!(code.code_size(), code.insts().iter().map(|i| i.encoded_size()).sum());
    }

    #[test]
    fn forward_label_resolution() {
        let mut asm = Assembler::new();
        let skip = asm.new_label();
        asm.emit(MachInst::BrIf { cond: Reg(0), target: skip, negate: false });
        asm.emit(MachInst::Trap { code: TrapCode::Unreachable });
        asm.bind(skip);
        asm.emit(MachInst::Return);
        let code = asm.finish();
        assert_eq!(code.target(skip), 2);
    }

    #[test]
    fn backward_label_resolution() {
        let mut asm = Assembler::new();
        let top = asm.new_bound_label();
        asm.emit(MachInst::Nop);
        asm.emit(MachInst::Jump { target: top });
        let code = asm.finish();
        assert_eq!(code.target(top), 0);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics_at_finish() {
        let mut asm = Assembler::new();
        let l = asm.new_label();
        asm.emit(MachInst::Jump { target: l });
        let _ = asm.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut asm = Assembler::new();
        let l = asm.new_label();
        asm.bind(l);
        asm.bind(l);
    }

    #[test]
    fn source_map_lookup() {
        let mut asm = Assembler::new();
        asm.mark_source(0);
        asm.emit(MachInst::Nop); // inst 0 <- offset 0
        asm.mark_source(2);
        asm.emit(MachInst::Nop); // inst 1 <- offset 2
        asm.emit(MachInst::Nop); // inst 2 <- offset 2 (same bytecode)
        asm.mark_source(5);
        asm.emit(MachInst::Return); // inst 3 <- offset 5
        let code = asm.finish();
        assert_eq!(code.source_offset(0), Some(0));
        assert_eq!(code.source_offset(1), Some(2));
        assert_eq!(code.source_offset(2), Some(2));
        assert_eq!(code.source_offset(3), Some(5));
        assert_eq!(code.source_offset(99), Some(5));
    }

    #[test]
    fn mark_source_collapses_empty_ranges() {
        let mut asm = Assembler::new();
        asm.mark_source(0);
        asm.mark_source(3);
        asm.emit(MachInst::Nop);
        let code = asm.finish();
        assert_eq!(code.source_map(), &[(0, 3)]);
        assert_eq!(code.source_offset(0), Some(3));
    }

    #[test]
    fn from_raw_parts_accepts_valid_rewrites() {
        let table = MachInst::BrTable {
            index: Reg(0),
            targets: LabelRange { start: 1, len: 2 },
            default: Label(0),
        };
        let insts = vec![MachInst::Nop, table, MachInst::Return];
        // A label may target one past the end (the function end), and a
        // range may end exactly at the end of the pool.
        let pool = vec![Label(0), Label(1), Label(0)];
        let code = CodeBuffer::from_raw_parts(insts, vec![0, 3], pool, vec![(0, 0), (1, 4)]);
        assert_eq!(code.target(Label(1)), 3);
        assert_eq!(code.source_offset(1), Some(4));
        assert_eq!(code.table(LabelRange { start: 1, len: 2 }), &[Label(1), Label(0)]);
        assert_eq!(code.code_size(), code.insts().iter().map(|i| i.encoded_size()).sum());
        // The accessors hand back exactly the parts a rewrite starts from.
        let again = CodeBuffer::from_raw_parts(
            code.insts().to_vec(),
            code.label_targets().to_vec(),
            code.label_pool().to_vec(),
            code.source_map().to_vec(),
        );
        assert_eq!(again, code);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past the end")]
    fn from_raw_parts_rejects_out_of_bounds_labels() {
        let _ = CodeBuffer::from_raw_parts(vec![MachInst::Return], vec![5], vec![], vec![]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted by instruction index")]
    fn from_raw_parts_rejects_unsorted_source_map() {
        let _ = CodeBuffer::from_raw_parts(
            vec![MachInst::Nop, MachInst::Return],
            vec![],
            vec![],
            vec![(1, 0), (0, 2)],
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past the label pool")]
    fn from_raw_parts_rejects_a_table_past_the_pool() {
        let table = MachInst::BrTable {
            index: Reg(0),
            targets: LabelRange { start: 1, len: 2 },
            default: Label(0),
        };
        let _ = CodeBuffer::from_raw_parts(vec![table], vec![0], vec![Label(0), Label(0)], vec![]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past the label pool")]
    fn a_hand_built_table_past_the_pool_fails_at_assembly_time() {
        let mut asm = Assembler::new();
        let l = asm.new_bound_label();
        asm.br_table(Reg(0), &[l, l], l);
        // One label more than the pool holds.
        asm.emit(MachInst::BrTable {
            index: Reg(0),
            targets: LabelRange { start: 0, len: 3 },
            default: l,
        });
    }

    #[test]
    fn disassembly_contains_labels_and_instructions() {
        let mut asm = Assembler::new();
        let l = asm.new_label();
        asm.emit(MachInst::Jump { target: l });
        asm.bind(l);
        asm.br_table(Reg(0), &[l, l], l);
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let text = code.disassemble();
        assert!(text.contains("L0:"));
        assert!(text.contains("jmp L0"));
        assert!(text.contains("brtable r0, pool[0..2], default L0 = [L0, L0]"), "{text}");
        assert!(text.contains("ret"));
        assert_eq!(code.to_string(), text);
    }
}
