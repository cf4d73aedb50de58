//! The WebAssembly validation algorithm.
//!
//! Validation is a single forward pass of abstract interpretation over types:
//! an abstract operand stack of value types plus a control stack of open
//! structured constructs. This is exactly the algorithm skeleton that
//! single-pass compilers reuse to drive code generation (the paper's Section
//! III), so the validator doubles as the reference for the `spc` crate's
//! abstract interpreter.
//!
//! Besides checking the module, validation computes per-function metadata
//! (maximum operand stack height, local counts) that the interpreter and
//! compilers use to size frames.

use crate::module::{ConstExpr, Module};
use crate::opcode::{OpSignature, Opcode};
use crate::reader::BytecodeReader;
use crate::types::{BlockType, ExternalKind, FuncType, ValueType};
use std::fmt;

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

/// Per-function metadata computed during validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuncInfo {
    /// Maximum operand stack height reached anywhere in the body.
    pub max_stack: u32,
    /// Total number of local slots (parameters + declared locals).
    pub num_locals: u32,
    /// Number of parameters.
    pub num_params: u32,
    /// Length of the body code in bytes.
    pub body_len: u32,
    /// Number of call sites (direct + indirect) in the body.
    pub call_sites: u32,
    /// Number of structured control constructs in the body.
    pub control_constructs: u32,
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
    for (i, func) in module.funcs.iter().enumerate() {
        let func_index = module.num_imported_funcs() + i as u32;
        let sig = module
            .func_type(func_index)
            .ok_or_else(|| ValidateError::module(format!("func {i} has invalid type index")))?;
        let mut v = FuncValidator::new(module, i as u32, sig, func_index)?;
        let fi = v.validate(&func.code)?;
        info.funcs.push(fi);
    }
    Ok(info)
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
    // Limits must be well-formed.
    for (i, m) in module.memories.iter().enumerate() {
        if !m.limits.is_well_formed() {
            return Err(ValidateError::module(format!("memory {i} has min > max")));
        }
    }
    for (i, t) in module.tables.iter().enumerate() {
        if !t.limits.is_well_formed() {
            return Err(ValidateError::module(format!("table {i} has min > max")));
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
    // Globals: initializer type must match, and global.get may only refer to
    // imported immutable globals.
    let num_imported_globals = module.num_imported_globals();
    for (i, g) in module.globals.iter().enumerate() {
        let init_ty = match g.init {
            ConstExpr::GlobalGet(gi) => {
                if gi >= num_imported_globals {
                    return Err(ValidateError::module(format!(
                        "global {i} initializer refers to non-imported global {gi}"
                    )));
                }
                let gt = module.global_type(gi).ok_or_else(|| {
                    ValidateError::module(format!("global {i} initializer refers to unknown global"))
                })?;
                if gt.mutable {
                    return Err(ValidateError::module(format!(
                        "global {i} initializer refers to mutable global {gi}"
                    )));
                }
                gt.value_type
            }
            ConstExpr::RefFunc(f) => {
                if f >= module.num_funcs() {
                    return Err(ValidateError::module(format!(
                        "global {i} initializer refers to unknown function {f}"
                    )));
                }
                ValueType::FuncRef
            }
            other => other
                .value_type(&module.global_types())
                .ok_or_else(|| ValidateError::module(format!("global {i} has invalid initializer")))?,
        };
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
    }
    // Data segments must refer to an existing memory.
    for (i, d) in module.data.iter().enumerate() {
        if d.memory_index >= module.num_memories() {
            return Err(ValidateError::module(format!(
                "data segment {i} refers to unknown memory {}",
                d.memory_index
            )));
        }
    }
    Ok(())
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

#[derive(Debug, Clone)]
struct ControlFrame {
    kind: ControlKind,
    start_types: Vec<ValueType>,
    end_types: Vec<ValueType>,
    height: usize,
    unreachable: bool,
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
    results: Vec<ValueType>,
    vals: Vec<Abstract>,
    ctrls: Vec<ControlFrame>,
    max_stack: usize,
    pc: usize,
    call_sites: u32,
    control_constructs: u32,
}

impl<'m> FuncValidator<'m> {
    fn new(
        module: &'m Module,
        defined_index: u32,
        sig: &FuncType,
        func_index: u32,
    ) -> Result<FuncValidator<'m>, ValidateError> {
        let locals = module
            .func_local_types(func_index)
            .ok_or_else(|| ValidateError::module(format!("func {defined_index} missing body")))?;
        Ok(FuncValidator {
            module,
            defined_index,
            locals,
            results: sig.results.clone(),
            vals: Vec::new(),
            ctrls: Vec::new(),
            max_stack: 0,
            pc: 0,
            call_sites: 0,
            control_constructs: 0,
        })
    }

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

    fn push_ctrl(&mut self, kind: ControlKind, start: Vec<ValueType>, end: Vec<ValueType>) {
        let height = self.vals.len();
        self.ctrls.push(ControlFrame {
            kind,
            start_types: start.clone(),
            end_types: end,
            height,
            unreachable: false,
        });
        self.push_all(&start);
    }

    fn pop_ctrl(&mut self) -> Result<ControlFrame, ValidateError> {
        let frame = self
            .ctrls
            .last()
            .cloned()
            .ok_or_else(|| self.error("unbalanced end"))?;
        self.pop_expects(&frame.end_types.clone())?;
        if self.vals.len() != frame.height {
            return Err(self.error("operand stack height mismatch at end of block"));
        }
        self.ctrls.pop();
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

    fn local_type(&self, index: u32) -> Result<ValueType, ValidateError> {
        self.locals
            .get(index as usize)
            .copied()
            .ok_or_else(|| self.error(format!("unknown local {index}")))
    }

    fn block_signature(
        &self,
        bt: BlockType,
    ) -> Result<(Vec<ValueType>, Vec<ValueType>), ValidateError> {
        bt.resolve(&self.module.types)
            .ok_or_else(|| self.error("block type refers to unknown signature"))
    }

    fn validate(&mut self, code: &[u8]) -> Result<FuncInfo, ValidateError> {
        self.push_ctrl(ControlKind::Func, Vec::new(), self.results.clone());
        let mut reader = BytecodeReader::new(code);
        let mut memory_required = false;
        while !self.ctrls.is_empty() {
            if reader.is_at_end() {
                return Err(self.error("body ended with unclosed control constructs"));
            }
            self.pc = reader.pc();
            let op = reader.read_opcode().map_err(|e| self.error(e.to_string()))?;
            self.validate_instruction(op, &mut reader, &mut memory_required)?;
        }
        if !reader.is_at_end() {
            return Err(self.error("trailing bytes after final end"));
        }
        if memory_required && self.module.num_memories() == 0 {
            return Err(self.error("memory instruction used but module has no memory"));
        }
        Ok(FuncInfo {
            max_stack: self.max_stack as u32,
            num_locals: self.locals.len() as u32,
            num_params: self
                .module
                .func_type(self.module.num_imported_funcs() + self.defined_index)
                .map(|t| t.param_count())
                .unwrap_or(0),
            body_len: code.len() as u32,
            call_sites: self.call_sites,
            control_constructs: self.control_constructs,
        })
    }

    fn validate_instruction(
        &mut self,
        op: Opcode,
        reader: &mut BytecodeReader<'_>,
        memory_required: &mut bool,
    ) -> Result<(), ValidateError> {
        use Opcode::*;
        match op {
            Nop => {}
            Unreachable => self.mark_unreachable()?,
            Block | Loop | If => {
                self.control_constructs += 1;
                let bt = reader
                    .read_block_type()
                    .map_err(|e| self.error(e.to_string()))?;
                let (params, results) = self.block_signature(bt)?;
                if op == If {
                    self.pop_expect(ValueType::I32)?;
                }
                self.pop_expects(&params)?;
                let kind = match op {
                    Block => ControlKind::Block,
                    Loop => ControlKind::Loop,
                    _ => ControlKind::If,
                };
                self.push_ctrl(kind, params, results);
            }
            Else => {
                let frame = self.pop_ctrl()?;
                if frame.kind != ControlKind::If {
                    return Err(self.error("else without matching if"));
                }
                self.push_ctrl(ControlKind::Else, frame.start_types, frame.end_types);
            }
            End => {
                let frame = self.pop_ctrl()?;
                if frame.kind == ControlKind::If && frame.start_types != frame.end_types {
                    return Err(self.error("if without else must have matching param/result types"));
                }
                self.push_all(&frame.end_types);
            }
            Br => {
                let depth = reader.read_index().map_err(|e| self.error(e.to_string()))?;
                let types = self.label(depth)?.label_types().to_vec();
                self.pop_expects(&types)?;
                self.mark_unreachable()?;
            }
            BrIf => {
                let depth = reader.read_index().map_err(|e| self.error(e.to_string()))?;
                self.pop_expect(ValueType::I32)?;
                let types = self.label(depth)?.label_types().to_vec();
                self.pop_expects(&types)?;
                self.push_all(&types);
            }
            BrTable => {
                let (targets, default) = reader
                    .read_branch_table()
                    .map_err(|e| self.error(e.to_string()))?;
                self.pop_expect(ValueType::I32)?;
                let default_types = self.label(default)?.label_types().to_vec();
                for &t in &targets {
                    let types = self.label(t)?.label_types().to_vec();
                    if types.len() != default_types.len() {
                        return Err(self.error("br_table targets have mismatched arities"));
                    }
                }
                self.pop_expects(&default_types)?;
                self.mark_unreachable()?;
            }
            Return => {
                let results = self.results.clone();
                self.pop_expects(&results)?;
                self.mark_unreachable()?;
            }
            Call => {
                self.call_sites += 1;
                let func_index = reader.read_index().map_err(|e| self.error(e.to_string()))?;
                let sig = self
                    .module
                    .func_type(func_index)
                    .cloned()
                    .ok_or_else(|| self.error(format!("call to unknown function {func_index}")))?;
                self.pop_expects(&sig.params)?;
                self.push_all(&sig.results);
            }
            CallIndirect => {
                self.call_sites += 1;
                let (type_index, table_index) = reader
                    .read_call_indirect()
                    .map_err(|e| self.error(e.to_string()))?;
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
            Drop => {
                self.pop_any()?;
            }
            Select => {
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
            SelectT => {
                let types = reader
                    .read_select_types()
                    .map_err(|e| self.error(e.to_string()))?;
                if types.len() != 1 {
                    return Err(self.error("typed select must list exactly one type"));
                }
                self.pop_expect(ValueType::I32)?;
                self.pop_expect(types[0])?;
                self.pop_expect(types[0])?;
                self.push(types[0]);
            }
            LocalGet => {
                let index = reader.read_index().map_err(|e| self.error(e.to_string()))?;
                let t = self.local_type(index)?;
                self.push(t);
            }
            LocalSet => {
                let index = reader.read_index().map_err(|e| self.error(e.to_string()))?;
                let t = self.local_type(index)?;
                self.pop_expect(t)?;
            }
            LocalTee => {
                let index = reader.read_index().map_err(|e| self.error(e.to_string()))?;
                let t = self.local_type(index)?;
                self.pop_expect(t)?;
                self.push(t);
            }
            GlobalGet => {
                let index = reader.read_index().map_err(|e| self.error(e.to_string()))?;
                let g = self
                    .module
                    .global_type(index)
                    .ok_or_else(|| self.error(format!("unknown global {index}")))?;
                self.push(g.value_type);
            }
            GlobalSet => {
                let index = reader.read_index().map_err(|e| self.error(e.to_string()))?;
                let g = self
                    .module
                    .global_type(index)
                    .ok_or_else(|| self.error(format!("unknown global {index}")))?;
                if !g.mutable {
                    return Err(self.error(format!("global {index} is immutable")));
                }
                self.pop_expect(g.value_type)?;
            }
            MemorySize => {
                *memory_required = true;
                reader
                    .read_memory_index()
                    .map_err(|e| self.error(e.to_string()))?;
                self.push(ValueType::I32);
            }
            MemoryGrow => {
                *memory_required = true;
                reader
                    .read_memory_index()
                    .map_err(|e| self.error(e.to_string()))?;
                self.pop_expect(ValueType::I32)?;
                self.push(ValueType::I32);
            }
            I32Const => {
                reader.read_i32().map_err(|e| self.error(e.to_string()))?;
                self.push(ValueType::I32);
            }
            I64Const => {
                reader.read_i64().map_err(|e| self.error(e.to_string()))?;
                self.push(ValueType::I64);
            }
            F32Const => {
                reader.read_f32().map_err(|e| self.error(e.to_string()))?;
                self.push(ValueType::F32);
            }
            F64Const => {
                reader.read_f64().map_err(|e| self.error(e.to_string()))?;
                self.push(ValueType::F64);
            }
            RefNull => {
                let t = reader
                    .read_ref_type()
                    .map_err(|e| self.error(e.to_string()))?;
                self.push(t);
            }
            RefIsNull => {
                match self.pop_any()? {
                    Abstract::Known(t) if !t.is_reference() => {
                        return Err(self.error(format!("ref.is_null on non-reference {t}")))
                    }
                    _ => {}
                }
                self.push(ValueType::I32);
            }
            RefFunc => {
                let index = reader.read_index().map_err(|e| self.error(e.to_string()))?;
                if index >= self.module.num_funcs() {
                    return Err(self.error(format!("ref.func unknown function {index}")));
                }
                self.push(ValueType::FuncRef);
            }
            _ => {
                // Simple typed opcodes (arithmetic, comparisons, conversions,
                // loads, and stores) are driven by their signatures.
                match op.signature() {
                    OpSignature::Const(_) | OpSignature::Special => {
                        return Err(self.error(format!("unhandled opcode {op}")))
                    }
                    OpSignature::Unary(input, output) => {
                        self.pop_expect(input)?;
                        self.push(output);
                    }
                    OpSignature::Binary(input, output) => {
                        self.pop_expect(input)?;
                        self.pop_expect(input)?;
                        self.push(output);
                    }
                    OpSignature::Load(output) => {
                        *memory_required = true;
                        let memarg = reader
                            .read_memarg()
                            .map_err(|e| self.error(e.to_string()))?;
                        self.check_alignment(op, memarg.align)?;
                        self.pop_expect(ValueType::I32)?;
                        self.push(output);
                    }
                    OpSignature::Store(input) => {
                        *memory_required = true;
                        let memarg = reader
                            .read_memarg()
                            .map_err(|e| self.error(e.to_string()))?;
                        self.check_alignment(op, memarg.align)?;
                        self.pop_expect(input)?;
                        self.pop_expect(ValueType::I32)?;
                    }
                }
            }
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
    use crate::types::{GlobalType, Limits};

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
        assert_eq!(info.funcs[0].control_constructs, 2);
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
    fn call_counts_are_recorded() {
        let mut b = ModuleBuilder::new();
        let f0 = b.add_func(FuncType::new(vec![], vec![]), vec![], CodeBuilder::new().finish());
        let mut c = CodeBuilder::new();
        c.call(f0).call(f0);
        b.add_func(FuncType::new(vec![], vec![]), vec![], c.finish());
        let info = validate(&b.finish()).unwrap();
        assert_eq!(info.funcs[1].call_sites, 2);
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
