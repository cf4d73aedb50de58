//! The WebAssembly validation algorithm.
//!
//! Validation is a single forward pass of abstract interpretation over types:
//! an abstract operand stack of value types plus a control stack of open
//! structured constructs. This is exactly the algorithm skeleton that
//! single-pass compilers reuse to drive code generation (the paper's Section
//! III), so the validator doubles as the reference for the `spc` crate's
//! abstract interpreter.
//!
//! It is also the only walk a body gets before it runs or compiles. Besides
//! checking the module, the pass leaves in each function's [`FuncInfo`]
//! everything the tiers need that depends on that walk: the frame-sizing
//! metadata (maximum operand stack height, local counts), the in-place
//! interpreter's branch [`Sidetable`] and the [`FuelPlan`] all three tiers
//! charge by. The control stack that type-checks a branch already knows its
//! label's operand height and arity, so the sidetable is recorded on that
//! stack: a branch to a loop is resolved where it stands, a branch to a
//! forward label is parked on the label's frame as a fixup and resolved at the
//! frame's `end`, and an `if` / `else` anchors its own false / skip edge the
//! same way. Dead code is walked like live code (it is type-checked, so it has
//! heights), which gives every branch instruction an entry, reachable or not.
//! The pass is iterative — nesting depth grows a `Vec`, never the host stack.
//!
//! Instructions arrive decoded from [`BytecodeReader`]'s `next`, so a body's
//! bytes are read in one place: what the bytes alone decide (truncation, a
//! bad LEB or type byte, a non-zero `memory.size` reserved byte) is the
//! decoder's [`ReadError`](crate::reader::ReadError), reported here at the
//! instruction's offset; what needs the module or the stacks is checked
//! below. The module-level half refuses what instantiation would otherwise
//! trust: segment offsets that are not `i32` constant expressions, and
//! declared memory or table sizes beyond [`MAX_PAGES`] /
//! [`MAX_TABLE_ELEMENTS`].

use crate::fuel::{FuelPlan, PlanBuilder};
use crate::module::{ConstExpr, Module};
use crate::opcode::{OpSignature, Opcode};
use crate::reader::{BytecodeReader, Imm, Instr};
use crate::sidetable::{BranchEntry, Fixup, Sidetable};
use crate::types::{BlockType, ExternalKind, ValueType, MAX_PAGES, MAX_TABLE_ELEMENTS};
use std::fmt;
use std::sync::Arc;

/// An error found during validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// The function (in the defined-function index space) where the error was
    /// found, if it was inside a body.
    pub func: Option<u32>,
    /// The bytecode offset within the function body, if applicable.
    pub offset: Option<usize>,
    /// A human-readable message.
    pub message: String,
}

impl ValidateError {
    fn module(message: impl Into<String>) -> ValidateError {
        ValidateError {
            func: None,
            offset: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.func, self.offset) {
            (Some(func), Some(offset)) => {
                write!(f, "validation error in func {func} at +{offset}: {}", self.message)
            }
            (Some(func), None) => write!(f, "validation error in func {func}: {}", self.message),
            _ => write!(f, "validation error: {}", self.message),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Per-function metadata computed during validation: what the interpreter
/// and both compilers are handed by reference instead of walking the body
/// again. The two tables sit behind [`Arc`]s so that whatever is assembled
/// from a `FuncInfo` (the interpreter's prepared function, the engine's
/// compiled-module artifact) shares them instead of copying them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FuncInfo {
    /// Maximum operand stack height reached anywhere in the body.
    pub max_stack: u32,
    /// Total number of local slots (parameters + declared locals).
    pub num_locals: u32,
    /// Number of parameters.
    pub num_params: u32,
    /// Length of the body code in bytes.
    pub body_len: u32,
    /// Where every `br`, `br_if`, `br_table`, `if` and `else` of the body
    /// goes and how it adjusts the operand stack.
    pub sidetable: Arc<Sidetable>,
    /// The fuel-charging schedule every tier follows.
    pub fuel: Arc<FuelPlan>,
}

/// Module-level metadata produced by successful validation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModuleInfo {
    /// Metadata for each *defined* function, indexed like `Module::funcs`.
    pub funcs: Vec<FuncInfo>,
}

/// Validates a module and returns per-function metadata.
pub fn validate(module: &Module) -> Result<ModuleInfo, ValidateError> {
    validate_module_level(module)?;
    let mut info = ModuleInfo::default();
    let num_imported = module.num_imported_funcs();
    for defined in 0..module.funcs.len() as u32 {
        info.funcs.push(validate_func(module, num_imported + defined)?);
    }
    Ok(info)
}

/// Validates the body of one defined function (`func_index` is in the
/// function index space) against the module's declarations, without the
/// module-level checks: the per-function step of [`validate`], for callers
/// that want one function's metadata and tables.
///
/// # Errors
///
/// Returns an error if `func_index` names no defined function or its body is
/// invalid.
pub fn validate_func(module: &Module, func_index: u32) -> Result<FuncInfo, ValidateError> {
    let missing = || ValidateError::module(format!("function {func_index} has no body"));
    let defined_index = func_index.checked_sub(module.num_imported_funcs()).ok_or_else(missing)?;
    let decl = module.funcs.get(defined_index as usize).ok_or_else(missing)?;
    let sig = module.types.get(decl.type_index as usize).ok_or_else(|| {
        ValidateError::module(format!("function {func_index} has invalid type index"))
    })?;
    let mut locals = sig.params.clone();
    locals.extend(decl.declared_local_types());
    let validator = FuncValidator {
        module,
        defined_index,
        locals,
        num_params: sig.param_count(),
        results: sig.results.clone(),
        vals: Vec::new(),
        ctrls: Vec::new(),
        max_stack: 0,
        pc: 0,
        table: Sidetable::default(),
        plan: PlanBuilder::default(),
    };
    validator.validate(&decl.code)
}

fn validate_module_level(module: &Module) -> Result<(), ValidateError> {
    // Import and definition type indices must be in range.
    for import in &module.imports {
        if let crate::module::ImportKind::Func(t) = import.kind {
            if t as usize >= module.types.len() {
                return Err(ValidateError::module(format!(
                    "import {}.{} has out-of-range type index {t}",
                    import.module, import.name
                )));
            }
        }
    }
    for (i, f) in module.funcs.iter().enumerate() {
        if f.type_index as usize >= module.types.len() {
            return Err(ValidateError::module(format!(
                "function {i} has out-of-range type index {}",
                f.type_index
            )));
        }
    }
    // Limits must be well-formed and within what an instance can ever hold:
    // the declared sizes are allocated at instantiation, so the ceiling is
    // enforced here, on every memory and table, imported or defined.
    for (i, m) in (0..module.num_memories()).filter_map(|i| Some((i, module.memory_type(i)?))) {
        if !m.limits.is_well_formed() {
            return Err(ValidateError::module(format!("memory {i} has min > max")));
        }
        if m.limits.min.max(m.limits.max.unwrap_or(0)) > MAX_PAGES {
            return Err(ValidateError::module(format!(
                "memory {i} size must be at most {MAX_PAGES} pages (4GiB)"
            )));
        }
    }
    for (i, t) in (0..module.num_tables()).filter_map(|i| Some((i, module.table_type(i)?))) {
        if !t.limits.is_well_formed() {
            return Err(ValidateError::module(format!("table {i} has min > max")));
        }
        if t.limits.min > MAX_TABLE_ELEMENTS {
            return Err(ValidateError::module(format!(
                "table {i} size must be at most {MAX_TABLE_ELEMENTS} elements"
            )));
        }
        if !t.element.is_reference() {
            return Err(ValidateError::module(format!(
                "table {i} element type must be a reference"
            )));
        }
    }
    if module.num_memories() > 1 {
        return Err(ValidateError::module("at most one memory is supported"));
    }
    // Globals: the initializer is a constant expression of the declared type.
    for (i, g) in module.globals.iter().enumerate() {
        let init_ty = const_expr_type(module, &g.init, format_args!("global {i} initializer"))?;
        if init_ty != g.ty.value_type {
            return Err(ValidateError::module(format!(
                "global {i} initializer type {init_ty} does not match declared type {}",
                g.ty.value_type
            )));
        }
    }
    // Exports must refer to existing entities and have unique names.
    let mut names = std::collections::HashSet::new();
    for e in &module.exports {
        if !names.insert(e.name.as_str()) {
            return Err(ValidateError::module(format!("duplicate export name {}", e.name)));
        }
        let limit = match e.kind {
            ExternalKind::Func => module.num_funcs(),
            ExternalKind::Table => module.num_tables(),
            ExternalKind::Memory => module.num_memories(),
            ExternalKind::Global => module.num_globals(),
        };
        if e.index >= limit {
            return Err(ValidateError::module(format!(
                "export {} refers to out-of-range {} index {}",
                e.name, e.kind, e.index
            )));
        }
    }
    // Start function must exist and have type [] -> [].
    if let Some(start) = module.start {
        let ty = module
            .func_type(start)
            .ok_or_else(|| ValidateError::module("start function index out of range"))?;
        if !ty.params.is_empty() || !ty.results.is_empty() {
            return Err(ValidateError::module("start function must have type [] -> []"));
        }
    }
    // Element segments must refer to existing tables and functions.
    for (i, elem) in module.elems.iter().enumerate() {
        if elem.table_index >= module.num_tables() {
            return Err(ValidateError::module(format!(
                "element segment {i} refers to unknown table {}",
                elem.table_index
            )));
        }
        for &f in &elem.func_indices {
            if f >= module.num_funcs() {
                return Err(ValidateError::module(format!(
                    "element segment {i} refers to unknown function {f}"
                )));
            }
        }
        check_segment_offset(module, &elem.offset, format_args!("element segment {i} offset"))?;
    }
    // Data segments must refer to an existing memory.
    for (i, d) in module.data.iter().enumerate() {
        if d.memory_index >= module.num_memories() {
            return Err(ValidateError::module(format!(
                "data segment {i} refers to unknown memory {}",
                d.memory_index
            )));
        }
        check_segment_offset(module, &d.offset, format_args!("data segment {i} offset"))?;
    }
    Ok(())
}

/// The type of the constant expression `expr` (named `what` in errors):
/// a constant, a `ref.func` of an existing function, or a `global.get` of an
/// imported immutable global — the only globals that exist when
/// initializers and segment offsets are evaluated.
fn const_expr_type(
    module: &Module,
    expr: &ConstExpr,
    what: fmt::Arguments<'_>,
) -> Result<ValueType, ValidateError> {
    let refers_to = |problem: fmt::Arguments<'_>| {
        Err(ValidateError::module(format!("{what} refers to {problem}")))
    };
    match *expr {
        ConstExpr::I32(_) => Ok(ValueType::I32),
        ConstExpr::I64(_) => Ok(ValueType::I64),
        ConstExpr::F32(_) => Ok(ValueType::F32),
        ConstExpr::F64(_) => Ok(ValueType::F64),
        ConstExpr::RefNull(t) => Ok(t),
        ConstExpr::RefFunc(f) if f >= module.num_funcs() => {
            refers_to(format_args!("unknown function {f}"))
        }
        ConstExpr::RefFunc(_) => Ok(ValueType::FuncRef),
        ConstExpr::GlobalGet(gi) if gi >= module.num_imported_globals() => {
            refers_to(format_args!("non-imported global {gi}"))
        }
        ConstExpr::GlobalGet(gi) => match module.global_type(gi) {
            Some(global) if !global.mutable => Ok(global.value_type),
            _ => refers_to(format_args!("mutable global {gi}")),
        },
    }
}

/// A segment offset is a constant expression of type `i32`; instantiation
/// evaluates it trusting exactly that.
fn check_segment_offset(
    module: &Module,
    offset: &ConstExpr,
    what: fmt::Arguments<'_>,
) -> Result<(), ValidateError> {
    match const_expr_type(module, offset, what)? {
        ValueType::I32 => Ok(()),
        found => Err(ValidateError::module(format!(
            "{what}: type mismatch: expected i32, found {found}"
        ))),
    }
}

/// An entry on the abstract operand stack: either a known type or "unknown"
/// (the bottom type that appears in unreachable code).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Abstract {
    Known(ValueType),
    Unknown,
}

/// The kind of an open control construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ControlKind {
    Func,
    Block,
    Loop,
    If,
    Else,
}

#[derive(Debug)]
struct ControlFrame {
    kind: ControlKind,
    start_types: Vec<ValueType>,
    end_types: Vec<ValueType>,
    /// Operand height below the construct's parameters: the base a branch to
    /// its label moves the label's values down to.
    height: usize,
    unreachable: bool,
    /// The one offset the construct itself contributes to the sidetable: a
    /// loop's body start (where branches to it land), the `if` whose false
    /// edge is not placed yet, or the `else` whose skip-to-`end` is not.
    anchor: u32,
    /// Branches to this (forward) label, waiting for its `end`.
    fixups: Vec<Fixup>,
}

impl ControlFrame {
    fn label_types(&self) -> &[ValueType] {
        if self.kind == ControlKind::Loop {
            &self.start_types
        } else {
            &self.end_types
        }
    }
}

struct FuncValidator<'m> {
    module: &'m Module,
    defined_index: u32,
    locals: Vec<ValueType>,
    num_params: u32,
    results: Vec<ValueType>,
    vals: Vec<Abstract>,
    ctrls: Vec<ControlFrame>,
    max_stack: usize,
    /// Offset of the instruction being validated.
    pc: usize,
    table: Sidetable,
    plan: PlanBuilder,
}

impl FuncValidator<'_> {
    fn error(&self, message: impl Into<String>) -> ValidateError {
        ValidateError {
            func: Some(self.defined_index),
            offset: Some(self.pc),
            message: message.into(),
        }
    }

    fn push(&mut self, t: ValueType) {
        self.vals.push(Abstract::Known(t));
        self.max_stack = self.max_stack.max(self.vals.len());
    }

    fn push_unknown(&mut self) {
        self.vals.push(Abstract::Unknown);
        self.max_stack = self.max_stack.max(self.vals.len());
    }

    fn pop_any(&mut self) -> Result<Abstract, ValidateError> {
        let frame = self
            .ctrls
            .last()
            .ok_or_else(|| self.error("value stack access outside any control frame"))?;
        if self.vals.len() == frame.height {
            if frame.unreachable {
                return Ok(Abstract::Unknown);
            }
            return Err(self.error("operand stack underflow"));
        }
        Ok(self.vals.pop().expect("non-empty checked above"))
    }

    fn pop_expect(&mut self, expect: ValueType) -> Result<(), ValidateError> {
        match self.pop_any()? {
            Abstract::Unknown => Ok(()),
            Abstract::Known(t) if t == expect => Ok(()),
            Abstract::Known(t) => Err(self.error(format!("expected {expect}, found {t}"))),
        }
    }

    fn pop_expects(&mut self, expects: &[ValueType]) -> Result<(), ValidateError> {
        for &t in expects.iter().rev() {
            self.pop_expect(t)?;
        }
        Ok(())
    }

    fn push_all(&mut self, types: &[ValueType]) {
        for &t in types {
            self.push(t);
        }
    }

    fn push_ctrl(
        &mut self,
        kind: ControlKind,
        anchor: u32,
        start: Vec<ValueType>,
        end: Vec<ValueType>,
    ) {
        let height = self.vals.len();
        self.push_all(&start);
        self.ctrls.push(ControlFrame {
            kind,
            start_types: start,
            end_types: end,
            height,
            unreachable: false,
            anchor,
            fixups: Vec::new(),
        });
    }

    /// Pops the innermost frame once its results are on the stack. The frame
    /// stays in place while they are popped (the pops read its height and
    /// reachability) and is then moved out, fixups and all, not copied.
    fn pop_ctrl(&mut self) -> Result<ControlFrame, ValidateError> {
        let end_types = match self.ctrls.last_mut() {
            Some(frame) => std::mem::take(&mut frame.end_types),
            None => return Err(self.error("unbalanced end")),
        };
        self.pop_expects(&end_types)?;
        let mut frame = self.ctrls.pop().expect("checked non-empty above");
        if self.vals.len() != frame.height {
            return Err(self.error("operand stack height mismatch at end of block"));
        }
        frame.end_types = end_types;
        Ok(frame)
    }

    fn mark_unreachable(&mut self) -> Result<(), ValidateError> {
        if self.ctrls.is_empty() {
            return Err(self.error("unreachable outside any control frame"));
        }
        let frame = self.ctrls.last_mut().expect("checked non-empty");
        self.vals.truncate(frame.height);
        frame.unreachable = true;
        Ok(())
    }

    fn label(&self, depth: u32) -> Result<&ControlFrame, ValidateError> {
        let len = self.ctrls.len();
        if (depth as usize) >= len {
            return Err(self.error(format!("branch depth {depth} exceeds nesting {len}")));
        }
        Ok(&self.ctrls[len - 1 - depth as usize])
    }

    /// Gives a branch to the label `depth` frames out — which [`Self::label`]
    /// has already found — its sidetable entry: at once when the label is a
    /// loop (the target is behind us), otherwise as a fixup on the label's
    /// frame for its `end` to resolve.
    fn record_branch(&mut self, depth: u32, fixup: Fixup) {
        let index = self.ctrls.len() - 1 - depth as usize;
        let frame = &mut self.ctrls[index];
        if frame.kind == ControlKind::Loop {
            let entry = BranchEntry {
                target_ip: frame.anchor,
                label_base: frame.height as u32,
                arity: frame.start_types.len() as u32,
            };
            self.table.resolve(fixup, entry);
        } else {
            frame.fixups.push(fixup);
        }
    }

    fn local_type(&self, index: u32) -> Result<ValueType, ValidateError> {
        self.locals
            .get(index as usize)
            .copied()
            .ok_or_else(|| self.error(format!("unknown local {index}")))
    }

    /// The block's (params, results), copied for the frame it opens: frames
    /// that borrowed them moved glibc's heap top, so building pools in a row
    /// trimmed and re-faulted memory (`exec-interp`'s setup 2.5× slower).
    fn block_signature(
        &self,
        bt: BlockType,
    ) -> Result<(Vec<ValueType>, Vec<ValueType>), ValidateError> {
        let (params, results) = bt
            .resolve(&self.module.types)
            .ok_or_else(|| self.error("block type refers to unknown signature"))?;
        Ok((params.to_vec(), results.to_vec()))
    }

    fn validate(mut self, code: &[u8]) -> Result<FuncInfo, ValidateError> {
        self.push_ctrl(ControlKind::Func, 0, Vec::new(), self.results.clone());
        let mut reader = BytecodeReader::new(code);
        let mut memory_required = false;
        while !self.ctrls.is_empty() {
            self.pc = reader.pc();
            let instr = match reader.next() {
                Some(instr) => instr.map_err(|e| self.error(e.to_string()))?,
                None => return Err(self.error("body ended with unclosed control constructs")),
            };
            self.validate_instruction(instr, &mut memory_required)?;
            self.plan.step(instr.op, instr.offset as u32, instr.end as u32);
        }
        if !reader.is_at_end() {
            return Err(self.error("trailing bytes after final end"));
        }
        if memory_required && self.module.num_memories() == 0 {
            return Err(self.error("memory instruction used but module has no memory"));
        }
        self.table.finish();
        Ok(FuncInfo {
            max_stack: self.max_stack as u32,
            num_locals: self.locals.len() as u32,
            num_params: self.num_params,
            body_len: code.len() as u32,
            sidetable: Arc::new(self.table),
            fuel: Arc::new(self.plan.finish(code.len() as u32)),
        })
    }

    fn validate_instruction(
        &mut self,
        instr: Instr<'_>,
        memory_required: &mut bool,
    ) -> Result<(), ValidateError> {
        use Opcode::*;
        let op = instr.op;
        match (op, instr.imm) {
            (Nop, _) => {}
            (Unreachable, _) => self.mark_unreachable()?,
            (Block | Loop | If, Imm::Block(bt)) => {
                let (params, results) = self.block_signature(bt)?;
                if op == If {
                    self.pop_expect(ValueType::I32)?;
                }
                self.pop_expects(&params)?;
                // A loop's anchor is its body start; an `if`'s is the `if`
                // itself, whose false edge `else` or `end` will place.
                let (kind, anchor) = match op {
                    Block => (ControlKind::Block, 0),
                    Loop => (ControlKind::Loop, instr.end as u32),
                    _ => (ControlKind::If, self.pc as u32),
                };
                self.push_ctrl(kind, anchor, params, results);
            }
            (Else, _) => {
                let frame = self.pop_ctrl()?;
                if frame.kind != ControlKind::If {
                    return Err(self.error("else without matching if"));
                }
                // The false edge of the `if` lands just past this `else`,
                // carrying the construct's parameters.
                let false_edge = BranchEntry {
                    target_ip: self.pc as u32 + 1,
                    label_base: frame.height as u32,
                    arity: frame.start_types.len() as u32,
                };
                self.table.resolve(Fixup::Branch(frame.anchor), false_edge);
                self.push_ctrl(ControlKind::Else, self.pc as u32, frame.start_types, frame.end_types);
                // Same label, new frame: branches out of the then-arm still
                // wait for the `end`.
                self.ctrls.last_mut().expect("just pushed").fixups = frame.fixups;
            }
            (End, _) => {
                let frame = self.pop_ctrl()?;
                if frame.kind == ControlKind::If && frame.start_types != frame.end_types {
                    return Err(self.error("if without else must have matching param/result types"));
                }
                let to_end = BranchEntry {
                    target_ip: self.pc as u32,
                    label_base: frame.height as u32,
                    arity: frame.end_types.len() as u32,
                };
                if matches!(frame.kind, ControlKind::If | ControlKind::Else) {
                    self.table.resolve(Fixup::Branch(frame.anchor), to_end);
                }
                for fixup in frame.fixups {
                    self.table.resolve(fixup, to_end);
                }
                self.push_all(&frame.end_types);
            }
            (Br, Imm::Index(depth)) => {
                let types = self.label(depth)?.label_types().to_vec();
                self.pop_expects(&types)?;
                self.record_branch(depth, Fixup::Branch(self.pc as u32));
                self.mark_unreachable()?;
            }
            (BrIf, Imm::Index(depth)) => {
                self.pop_expect(ValueType::I32)?;
                let types = self.label(depth)?.label_types().to_vec();
                self.pop_expects(&types)?;
                self.push_all(&types);
                self.record_branch(depth, Fixup::Branch(self.pc as u32));
            }
            (BrTable, Imm::Table(table)) => {
                self.pop_expect(ValueType::I32)?;
                let default_types = self.label(table.default())?.label_types().to_vec();
                for depth in table.targets() {
                    if self.label(depth)?.label_types().len() != default_types.len() {
                        return Err(self.error("br_table targets have mismatched arities"));
                    }
                }
                self.pop_expects(&default_types)?;
                // One pool entry per target, then the default.
                let start = self.table.push_table(self.pc as u32, table.len() + 1);
                for (slot, depth) in (start..).zip(table.targets_and_default()) {
                    self.record_branch(depth, Fixup::TableSlot(slot));
                }
                self.mark_unreachable()?;
            }
            (Return, _) => {
                let results = self.results.clone();
                self.pop_expects(&results)?;
                self.mark_unreachable()?;
            }
            (Call, Imm::Index(func_index)) => {
                let sig = self
                    .module
                    .func_type(func_index)
                    .cloned()
                    .ok_or_else(|| self.error(format!("call to unknown function {func_index}")))?;
                self.pop_expects(&sig.params)?;
                self.push_all(&sig.results);
            }
            (CallIndirect, Imm::CallIndirect { type_index, table_index }) => {
                if table_index >= self.module.num_tables() {
                    return Err(self.error(format!("call_indirect unknown table {table_index}")));
                }
                let sig = self
                    .module
                    .types
                    .get(type_index as usize)
                    .cloned()
                    .ok_or_else(|| self.error(format!("call_indirect unknown type {type_index}")))?;
                self.pop_expect(ValueType::I32)?;
                self.pop_expects(&sig.params)?;
                self.push_all(&sig.results);
            }
            (Drop, _) => {
                self.pop_any()?;
            }
            (Select, _) => {
                self.pop_expect(ValueType::I32)?;
                let a = self.pop_any()?;
                let b = self.pop_any()?;
                match (a, b) {
                    (Abstract::Known(ta), Abstract::Known(tb)) => {
                        if ta != tb {
                            return Err(self.error(format!("select operands differ: {ta} vs {tb}")));
                        }
                        if ta.is_reference() {
                            return Err(self.error("untyped select may not be used with references"));
                        }
                        self.push(ta);
                    }
                    (Abstract::Known(t), Abstract::Unknown)
                    | (Abstract::Unknown, Abstract::Known(t)) => self.push(t),
                    (Abstract::Unknown, Abstract::Unknown) => self.push_unknown(),
                }
            }
            (SelectT, Imm::Select(types)) => {
                let mut types = types.iter();
                let (Some(t), None) = (types.next(), types.next()) else {
                    return Err(self.error("typed select must list exactly one type"));
                };
                self.pop_expect(ValueType::I32)?;
                self.pop_expect(t)?;
                self.pop_expect(t)?;
                self.push(t);
            }
            (LocalGet, Imm::Index(index)) => {
                let t = self.local_type(index)?;
                self.push(t);
            }
            (LocalSet, Imm::Index(index)) => {
                let t = self.local_type(index)?;
                self.pop_expect(t)?;
            }
            (LocalTee, Imm::Index(index)) => {
                let t = self.local_type(index)?;
                self.pop_expect(t)?;
                self.push(t);
            }
            (GlobalGet, Imm::Index(index)) => {
                let g = self
                    .module
                    .global_type(index)
                    .ok_or_else(|| self.error(format!("unknown global {index}")))?;
                self.push(g.value_type);
            }
            (GlobalSet, Imm::Index(index)) => {
                let g = self
                    .module
                    .global_type(index)
                    .ok_or_else(|| self.error(format!("unknown global {index}")))?;
                if !g.mutable {
                    return Err(self.error(format!("global {index} is immutable")));
                }
                self.pop_expect(g.value_type)?;
            }
            (MemorySize, _) => {
                *memory_required = true;
                self.push(ValueType::I32);
            }
            (MemoryGrow, _) => {
                *memory_required = true;
                self.pop_expect(ValueType::I32)?;
                self.push(ValueType::I32);
            }
            (I32Const, _) => self.push(ValueType::I32),
            (I64Const, _) => self.push(ValueType::I64),
            (F32Const, _) => self.push(ValueType::F32),
            (F64Const, _) => self.push(ValueType::F64),
            (RefNull, Imm::Ref(t)) => self.push(t),
            (RefIsNull, _) => {
                match self.pop_any()? {
                    Abstract::Known(t) if !t.is_reference() => {
                        return Err(self.error(format!("ref.is_null on non-reference {t}")))
                    }
                    _ => {}
                }
                self.push(ValueType::I32);
            }
            (RefFunc, Imm::Index(index)) => {
                if index >= self.module.num_funcs() {
                    return Err(self.error(format!("ref.func unknown function {index}")));
                }
                self.push(ValueType::FuncRef);
            }
            // Simple typed opcodes (arithmetic, comparisons, conversions,
            // loads, and stores) are driven by their signatures.
            (_, imm) => match (op.signature(), imm) {
                (OpSignature::Unary(input, output), _) => {
                    self.pop_expect(input)?;
                    self.push(output);
                }
                (OpSignature::Binary(input, output), _) => {
                    self.pop_expect(input)?;
                    self.pop_expect(input)?;
                    self.push(output);
                }
                (OpSignature::Load(output), Imm::Mem(memarg)) => {
                    *memory_required = true;
                    self.check_alignment(op, memarg.align)?;
                    self.pop_expect(ValueType::I32)?;
                    self.push(output);
                }
                (OpSignature::Store(input), Imm::Mem(memarg)) => {
                    *memory_required = true;
                    self.check_alignment(op, memarg.align)?;
                    self.pop_expect(input)?;
                    self.pop_expect(ValueType::I32)?;
                }
                _ => return Err(self.error(format!("unhandled opcode {op}"))),
            },
        }
        Ok(())
    }

    fn check_alignment(&self, op: Opcode, align: u32) -> Result<(), ValidateError> {
        let width = op.access_width().unwrap_or(1);
        let max_align = width.trailing_zeros();
        if align > max_align {
            return Err(self.error(format!(
                "alignment 2^{align} exceeds natural alignment of {op}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CodeBuilder, ModuleBuilder};
    use crate::types::{FuncType, GlobalType, Limits};

    fn single_func_module(
        params: Vec<ValueType>,
        results: Vec<ValueType>,
        locals: Vec<ValueType>,
        code: CodeBuilder,
    ) -> Module {
        let mut b = ModuleBuilder::new();
        b.add_memory(Limits::at_least(1));
        let f = b.add_func(FuncType::new(params, results), locals, code.finish());
        b.export_func("f", f);
        b.finish()
    }

    #[test]
    fn valid_arithmetic_function() {
        let mut c = CodeBuilder::new();
        c.local_get(0).local_get(1).op(Opcode::I32Add);
        let m = single_func_module(
            vec![ValueType::I32, ValueType::I32],
            vec![ValueType::I32],
            vec![],
            c,
        );
        let info = validate(&m).expect("valid");
        assert_eq!(info.funcs.len(), 1);
        assert_eq!(info.funcs[0].max_stack, 2);
        assert_eq!(info.funcs[0].num_locals, 2);
        assert_eq!(info.funcs[0].num_params, 2);
    }

    #[test]
    fn type_mismatch_is_rejected() {
        let mut c = CodeBuilder::new();
        c.i32_const(1).f64_const(2.0).op(Opcode::I32Add);
        let m = single_func_module(vec![], vec![ValueType::I32], vec![], c);
        let err = validate(&m).unwrap_err();
        assert!(err.message.contains("expected i32"), "{}", err.message);
    }

    #[test]
    fn stack_underflow_is_rejected() {
        let mut c = CodeBuilder::new();
        c.op(Opcode::I32Add);
        let m = single_func_module(vec![], vec![ValueType::I32], vec![], c);
        let err = validate(&m).unwrap_err();
        assert!(err.message.contains("underflow"), "{}", err.message);
    }

    #[test]
    fn branch_depths_are_checked() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty).br(2).end();
        let m = single_func_module(vec![], vec![], vec![], c);
        let err = validate(&m).unwrap_err();
        assert!(err.message.contains("depth"), "{}", err.message);
    }

    #[test]
    fn structured_control_with_loop_and_if() {
        // Count down from local 0 to zero, summing into local 1.
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
        let m = single_func_module(
            vec![ValueType::I32],
            vec![ValueType::I32],
            vec![ValueType::I32],
            c,
        );
        let info = validate(&m).expect("valid");
        assert!(info.funcs[0].max_stack >= 2);
    }

    #[test]
    fn if_without_else_requires_matching_types() {
        let mut c = CodeBuilder::new();
        c.i32_const(1).if_(BlockType::Value(ValueType::I32)).i32_const(2).end();
        let m = single_func_module(vec![], vec![ValueType::I32], vec![], c);
        let err = validate(&m).unwrap_err();
        assert!(err.message.contains("else"), "{}", err.message);
    }

    #[test]
    fn if_else_with_results_validates() {
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .if_(BlockType::Value(ValueType::I32))
            .i32_const(1)
            .else_()
            .i32_const(2)
            .end();
        let m = single_func_module(vec![ValueType::I32], vec![ValueType::I32], vec![], c);
        validate(&m).expect("valid");
    }

    #[test]
    fn unreachable_code_is_permissive() {
        let mut c = CodeBuilder::new();
        c.unreachable().op(Opcode::I32Add).drop_();
        let m = single_func_module(vec![], vec![], vec![], c);
        validate(&m).expect("valid: dead code is type-checked loosely");
    }

    #[test]
    fn call_signatures_are_checked() {
        let mut b = ModuleBuilder::new();
        let callee = {
            let mut c = CodeBuilder::new();
            c.local_get(0);
            b.add_func(
                FuncType::new(vec![ValueType::I64], vec![ValueType::I64]),
                vec![],
                c.finish(),
            )
        };
        let mut c = CodeBuilder::new();
        c.i32_const(0).call(callee).drop_();
        b.add_func(FuncType::new(vec![], vec![]), vec![], c.finish());
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.message.contains("expected i64"), "{}", err.message);
    }

    #[test]
    fn global_rules_are_enforced() {
        let mut b = ModuleBuilder::new();
        let g = b.add_global(GlobalType::immutable(ValueType::I32), ConstExpr::I32(3));
        let mut c = CodeBuilder::new();
        c.i32_const(4).global_set(g);
        b.add_func(FuncType::new(vec![], vec![]), vec![], c.finish());
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.message.contains("immutable"), "{}", err.message);
    }

    #[test]
    fn global_initializer_type_mismatch_rejected() {
        let mut b = ModuleBuilder::new();
        b.add_global(GlobalType::mutable(ValueType::I32), ConstExpr::F64(1.0));
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.message.contains("initializer type"), "{}", err.message);
    }

    #[test]
    fn segment_offsets_must_be_i32_constant_expressions() {
        let bad_offsets = [
            ConstExpr::I64(0),
            ConstExpr::F32(0.0),
            ConstExpr::RefNull(ValueType::FuncRef),
            ConstExpr::GlobalGet(0), // no imported global to read
        ];
        for offset in bad_offsets {
            let mut b = ModuleBuilder::new();
            b.add_memory(Limits::at_least(1));
            b.add_data(0, offset, vec![1]);
            let err = validate(&b.finish()).expect_err("data offset");
            assert!(err.message.contains("data segment 0 offset"), "{offset:?}: {}", err.message);

            let mut b = ModuleBuilder::new();
            b.add_table(ValueType::FuncRef, Limits::at_least(1));
            b.add_elem(0, offset, vec![]);
            let err = validate(&b.finish()).expect_err("element offset");
            assert!(err.message.contains("element segment 0 offset"), "{offset:?}: {}", err.message);
        }
        let mut b = ModuleBuilder::new();
        b.add_memory(Limits::at_least(1));
        b.add_data(0, ConstExpr::I64(0), vec![1]);
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.message.contains("type mismatch"), "{}", err.message);
    }

    #[test]
    fn declared_sizes_beyond_what_an_instance_can_hold_are_refused() {
        // Validation only: nothing here is ever instantiated (allocated).
        let table = |limits| {
            let mut b = ModuleBuilder::new();
            b.add_table(ValueType::FuncRef, limits);
            validate(&b.finish())
        };
        table(Limits::at_least(MAX_TABLE_ELEMENTS)).expect("the ceiling itself is allowed");
        let err = table(Limits::at_least(u32::MAX)).unwrap_err();
        assert!(err.message.contains("table 0 size"), "{}", err.message);

        let memory = |limits| {
            let mut b = ModuleBuilder::new();
            b.add_memory(limits);
            validate(&b.finish())
        };
        memory(Limits::bounded(1, MAX_PAGES)).expect("the ceiling itself is allowed");
        for limits in [Limits::at_least(MAX_PAGES + 1), Limits::bounded(1, MAX_PAGES + 1)] {
            let err = memory(limits).unwrap_err();
            assert!(err.message.contains("memory 0 size"), "{limits:?}: {}", err.message);
        }
    }

    #[test]
    fn memory_instructions_require_a_memory() {
        let mut b = ModuleBuilder::new();
        let mut c = CodeBuilder::new();
        c.i32_const(0).mem(Opcode::I32Load, 2, 0).drop_();
        b.add_func(FuncType::new(vec![], vec![]), vec![], c.finish());
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.message.contains("no memory"), "{}", err.message);
    }

    #[test]
    fn excessive_alignment_rejected() {
        let mut c = CodeBuilder::new();
        c.i32_const(0).mem(Opcode::I32Load, 3, 0).drop_();
        let m = single_func_module(vec![], vec![], vec![], c);
        let err = validate(&m).unwrap_err();
        assert!(err.message.contains("alignment"), "{}", err.message);
    }

    #[test]
    fn export_and_start_rules() {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(
            FuncType::new(vec![ValueType::I32], vec![]),
            vec![],
            {
                let mut c = CodeBuilder::new();
                c.nop();
                c.finish()
            },
        );
        b.set_start(f);
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.message.contains("start function"), "{}", err.message);

        let mut b = ModuleBuilder::new();
        b.export_func("f", 3);
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.message.contains("out-of-range"), "{}", err.message);
    }

    #[test]
    fn duplicate_export_names_rejected() {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(FuncType::new(vec![], vec![]), vec![], CodeBuilder::new().finish());
        b.export_func("same", f);
        b.export_func("same", f);
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.message.contains("duplicate"), "{}", err.message);
    }

    #[test]
    fn br_table_validates_targets() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .block(BlockType::Empty)
            .local_get(0)
            .br_table(&[0, 1], 0)
            .end()
            .end();
        let m = single_func_module(vec![ValueType::I32], vec![], vec![], c);
        validate(&m).expect("valid br_table");
    }

    #[test]
    fn select_type_rules() {
        let mut c = CodeBuilder::new();
        c.i32_const(1).f32_const(2.0).i32_const(0).select().drop_();
        let m = single_func_module(vec![], vec![], vec![], c);
        let err = validate(&m).unwrap_err();
        assert!(err.message.contains("select"), "{}", err.message);
    }

    #[test]
    fn multi_value_blocks_validate() {
        let mut b = ModuleBuilder::new();
        let pair = b.add_type(FuncType::new(vec![], vec![ValueType::I32, ValueType::I32]));
        let mut c = CodeBuilder::new();
        c.block(BlockType::Func(pair))
            .i32_const(1)
            .i32_const(2)
            .end()
            .op(Opcode::I32Add);
        let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
        b.export_func("f", f);
        let info = validate(&b.finish()).expect("multi-value block valid");
        assert_eq!(info.funcs[0].max_stack, 2);
    }

    #[test]
    fn ref_instructions_validate() {
        let mut c = CodeBuilder::new();
        c.ref_null(ValueType::ExternRef).op(Opcode::RefIsNull);
        let m = single_func_module(vec![], vec![ValueType::I32], vec![], c);
        validate(&m).expect("valid ref code");
    }

    /// The sidetable validation writes for a lone function `params ->
    /// results` in a module whose type section starts with `types`.
    fn sidetable_of(
        types: &[FuncType],
        params: Vec<ValueType>,
        results: Vec<ValueType>,
        code: CodeBuilder,
    ) -> Arc<Sidetable> {
        let mut b = ModuleBuilder::new();
        for (index, ty) in types.iter().enumerate() {
            assert_eq!(b.add_type(ty.clone()), index as u32);
        }
        b.add_func(FuncType::new(params, results), vec![], code.finish());
        let info = validate(&b.finish()).expect("valid body");
        Arc::clone(&info.funcs[0].sidetable)
    }

    fn entry(target_ip: u32, label_base: u32, arity: u32) -> BranchEntry {
        BranchEntry { target_ip, label_base, arity }
    }

    const I32: ValueType = ValueType::I32;

    #[test]
    fn a_branch_out_of_a_then_arm_waits_across_the_else() {
        // i32.const 9 ; local.get 0 ; if (result i32) ; i32.const 1 ; br 0 ;
        // 0             2             4                 6             8
        // else ; i32.const 2 ; end ; i32.add ; end
        // 10     11            13    14        15
        let mut c = CodeBuilder::new();
        c.i32_const(9).local_get(0).if_(BlockType::Value(I32)).i32_const(1).br(0);
        c.else_().i32_const(2).end().op(Opcode::I32Add);
        let t = sidetable_of(&[], vec![I32], vec![I32], c);
        assert_eq!(t.branch(4), Some(&entry(11, 1, 0)), "false edge: past the else, no params");
        assert_eq!(t.branch(8), Some(&entry(13, 1, 1)), "the then-arm's br lands on the end");
        assert_eq!(t.branch(10), Some(&entry(13, 1, 1)), "else: the then-arm skips to the end");
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn an_if_without_else_sends_its_false_edge_to_the_end_with_its_params() {
        // i32.const 5 ; local.get 0 ; if [i32]->[i32] ; i32.const 1 ; i32.add ; end ; end
        // 0             2             4                 6             8         9     10
        let unary = FuncType::new(vec![I32], vec![I32]);
        let mut c = CodeBuilder::new();
        c.i32_const(5).local_get(0).if_(BlockType::Func(0)).i32_const(1).op(Opcode::I32Add).end();
        let t = sidetable_of(&[unary], vec![I32], vec![I32], c);
        assert_eq!(t.branch(4), Some(&entry(9, 0, 1)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn a_br_table_mixes_a_loop_label_with_block_labels() {
        // i32.const 7 ; block ; loop ; block ; local.get 0 ; br_table [1 0 2] 1 ;
        // 0             2       4      6       8             10
        // end ; end ; end ; drop ; end
        // 16    17    18    19     20
        let mut c = CodeBuilder::new();
        c.i32_const(7).block(BlockType::Empty).loop_(BlockType::Empty).block(BlockType::Empty);
        c.local_get(0).br_table(&[1, 0, 2], 1).end().end().end().drop_();
        let t = sidetable_of(&[], vec![I32], vec![], c);
        // Depth 1 is the loop (its body starts at 6), 0 and 2 the blocks.
        let expected = [entry(6, 1, 0), entry(16, 1, 0), entry(18, 1, 0), entry(6, 1, 0)];
        assert_eq!(t.br_table(10), Some(&expected[..]));
        assert_eq!((t.len(), t.branch(10)), (4, None));
    }

    #[test]
    fn a_branch_to_a_loop_carries_the_loops_parameters() {
        // i32.const 3 ; loop [i32]->[i32] ; local.get 0 ; br_if 0 ; end ; end
        // 0             2                   4             6         8     9
        let unary = FuncType::new(vec![I32], vec![I32]);
        let mut c = CodeBuilder::new();
        c.i32_const(3).loop_(BlockType::Func(0)).local_get(0).br_if(0).end();
        let t = sidetable_of(&[unary], vec![I32], vec![I32], c);
        assert_eq!(t.branch(6), Some(&entry(4, 0, 1)), "body start, base below the parameter");
    }

    #[test]
    fn branches_in_dead_code_get_entries_too() {
        // i32.const 4 ; block ; br 0 ; br 0 ; br_if 0 ; end ; drop ; end
        // 0             2       4      6      8         10    11     12
        let mut c = CodeBuilder::new();
        c.i32_const(4).block(BlockType::Empty).br(0).br(0).br_if(0).end().drop_();
        let t = sidetable_of(&[], vec![], vec![], c);
        for at in [4, 6, 8] {
            assert_eq!(t.branch(at), Some(&entry(10, 1, 0)), "offset {at}");
        }
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn a_block_entered_in_dead_code_sits_at_its_parents_base() {
        // i32.const 4 ; block ; br 0 ; block (result i32) ; i32.const 1 ; br 0 ;
        // 0             2       4      6                    8             10
        // end ; drop ; end ; drop ; end
        // 12    13     14    15     16
        let mut c = CodeBuilder::new();
        c.i32_const(4).block(BlockType::Empty).br(0);
        c.block(BlockType::Value(I32)).i32_const(1).br(0).end().drop_().end().drop_();
        let t = sidetable_of(&[], vec![], vec![], c);
        assert_eq!(t.branch(4), Some(&entry(14, 1, 0)));
        assert_eq!(t.branch(10), Some(&entry(12, 1, 1)));
    }

    #[test]
    fn the_fuel_plan_is_the_one_a_standalone_walk_builds() {
        let mut c = CodeBuilder::new();
        c.loop_(BlockType::Empty).local_get(0).br_if(0).end().i32_const(1).drop_();
        let m = single_func_module(vec![I32], vec![], vec![], c);
        let info = validate(&m).expect("valid");
        assert_eq!(*info.funcs[0].fuel, FuelPlan::build(&m.funcs[0].code).expect("plan"));
        assert_eq!(info.funcs[0].fuel.num_epoch_checks(), 1);
    }

    #[test]
    fn trailing_bytes_after_end_rejected() {
        let mut c = CodeBuilder::new();
        c.nop();
        let mut code = c.finish();
        code.push(Opcode::Nop.to_byte());
        let mut b = ModuleBuilder::new();
        b.add_func(FuncType::new(vec![], vec![]), vec![], code);
        let err = validate(&b.finish()).unwrap_err();
        assert!(err.message.contains("trailing"), "{}", err.message);
    }
}
