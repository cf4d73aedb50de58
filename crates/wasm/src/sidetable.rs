//! The branch sidetable of the in-place interpreter.
//!
//! The in-place interpreter executes the original bytecode without rewriting
//! it, so it needs somewhere to find, for every branch, the target bytecode
//! offset and how to fix up the operand stack when the branch is taken. That
//! metadata is the *sidetable* (the `STP` of the paper's Fig. 2). It is
//! written by [`crate::validate`] as it walks the body — the validator's
//! control stack already knows every label's height and arity — and this
//! module holds only the table: its layout, its lookups, and the few
//! operations the validator fills it through.

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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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

/// Where a branch's entry goes once its label is resolved: forward labels
/// are only known at their `end`, so the validator parks one of these on the
/// label's control frame until then.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fixup {
    /// The `br`, `br_if`, `if` or `else` at this offset.
    Branch(u32),
    /// This slot of the `br_table` entry pool.
    TableSlot(u32),
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

    /// The offsets of the `br`, `br_if`, `if` and `else` instructions that
    /// have an entry, in the order they are stored.
    pub fn branch_offsets(&self) -> impl Iterator<Item = u32> + '_ {
        self.branches.iter().map(|(at, _)| *at)
    }

    /// Total number of entries (for size accounting).
    pub fn len(&self) -> usize {
        self.branches.len() + self.table_entries.len()
    }

    /// True if the function has no control transfers at all.
    pub fn is_empty(&self) -> bool {
        self.branches.is_empty() && self.table_entries.is_empty()
    }

    /// Stores `entry` where `fixup` says it belongs.
    pub(crate) fn resolve(&mut self, fixup: Fixup, entry: BranchEntry) {
        match fixup {
            Fixup::Branch(at) => self.branches.push((at, entry)),
            Fixup::TableSlot(slot) => self.table_entries[slot as usize] = entry,
        }
    }

    /// Appends the `br_table` at `offset` with `len` unresolved entries and
    /// returns the pool slot of the first. `len` counts depths the validator
    /// has already read, so a hostile count cannot size the allocation.
    pub(crate) fn push_table(&mut self, offset: u32, len: usize) -> u32 {
        let start = self.table_entries.len();
        self.tables.push(TableRef { offset, start: start as u32, len: len as u32 });
        let unresolved = BranchEntry { target_ip: 0, label_base: 0, arity: 0 };
        self.table_entries.resize(start + len, unresolved);
        start as u32
    }

    /// Puts the finished table into lookup order. Forward branches were
    /// stored when their label's `end` resolved them, not where they stand;
    /// `br_table`s were met in offset order already.
    pub(crate) fn finish(&mut self) {
        self.branches.sort_unstable_by_key(|(at, _)| *at);
        debug_assert!(self.branches.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(self.tables.windows(2).all(|w| w[0].offset < w[1].offset));
    }
}
