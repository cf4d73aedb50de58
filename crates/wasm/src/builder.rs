//! Programmatic construction of modules and function bodies.
//!
//! The benchmark-suite generators and most tests build modules through
//! [`ModuleBuilder`] and [`CodeBuilder`] rather than hand-writing binary
//! bytes. The builder produces exactly the same in-memory [`Module`] that the
//! binary decoder produces, so everything downstream (validator, interpreter,
//! compilers, encoder) is exercised identically either way.

use crate::module::{
    ConstExpr, DataSegment, ElemSegment, Export, FuncDecl, Global, Import, ImportKind, Module,
    ModuleData,
};
use crate::opcode::Opcode;
use crate::types::{
    BlockType, ExternalKind, FuncType, GlobalType, Limits, MemoryType, TableType, ValueType,
};
use crate::writer::ByteWriter;
use std::collections::HashMap;

/// Builds function body bytecode instruction by instruction.
///
/// Every method appends one instruction. [`CodeBuilder::finish`] appends the
/// function's terminating `end` opcode and returns the raw code bytes.
///
/// # Examples
///
/// ```
/// use wasm::builder::CodeBuilder;
/// use wasm::opcode::Opcode;
///
/// let mut code = CodeBuilder::new();
/// code.local_get(0).i32_const(1).op(Opcode::I32Add);
/// let bytes = code.finish();
/// assert_eq!(bytes.last(), Some(&Opcode::End.to_byte()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CodeBuilder {
    w: ByteWriter,
}

impl CodeBuilder {
    /// Creates an empty body builder.
    pub fn new() -> CodeBuilder {
        CodeBuilder::default()
    }

    /// Appends an opcode with no immediates.
    pub fn op(&mut self, op: Opcode) -> &mut Self {
        debug_assert_eq!(
            op.immediate_kind(),
            crate::opcode::ImmediateKind::None,
            "opcode {op} requires immediates; use the dedicated method"
        );
        self.w.write_u8(op.to_byte());
        self
    }

    /// Appends `i32.const value`.
    pub fn i32_const(&mut self, value: i32) -> &mut Self {
        self.w.write_u8(Opcode::I32Const.to_byte());
        self.w.write_i32_leb(value);
        self
    }

    /// Appends `i64.const value`.
    pub fn i64_const(&mut self, value: i64) -> &mut Self {
        self.w.write_u8(Opcode::I64Const.to_byte());
        self.w.write_i64_leb(value);
        self
    }

    /// Appends `f32.const value`.
    pub fn f32_const(&mut self, value: f32) -> &mut Self {
        self.w.write_u8(Opcode::F32Const.to_byte());
        self.w.write_u32_le(value.to_bits());
        self
    }

    /// Appends `f64.const value`.
    pub fn f64_const(&mut self, value: f64) -> &mut Self {
        self.w.write_u8(Opcode::F64Const.to_byte());
        self.w.write_u64_le(value.to_bits());
        self
    }

    /// Appends `local.get index`.
    pub fn local_get(&mut self, index: u32) -> &mut Self {
        self.w.write_u8(Opcode::LocalGet.to_byte());
        self.w.write_u32_leb(index);
        self
    }

    /// Appends `local.set index`.
    pub fn local_set(&mut self, index: u32) -> &mut Self {
        self.w.write_u8(Opcode::LocalSet.to_byte());
        self.w.write_u32_leb(index);
        self
    }

    /// Appends `local.tee index`.
    pub fn local_tee(&mut self, index: u32) -> &mut Self {
        self.w.write_u8(Opcode::LocalTee.to_byte());
        self.w.write_u32_leb(index);
        self
    }

    /// Appends `global.get index`.
    pub fn global_get(&mut self, index: u32) -> &mut Self {
        self.w.write_u8(Opcode::GlobalGet.to_byte());
        self.w.write_u32_leb(index);
        self
    }

    /// Appends `global.set index`.
    pub fn global_set(&mut self, index: u32) -> &mut Self {
        self.w.write_u8(Opcode::GlobalSet.to_byte());
        self.w.write_u32_leb(index);
        self
    }

    /// Appends a `block` with the given block type.
    pub fn block(&mut self, bt: BlockType) -> &mut Self {
        self.w.write_u8(Opcode::Block.to_byte());
        self.write_block_type(bt);
        self
    }

    /// Appends a `loop` with the given block type.
    pub fn loop_(&mut self, bt: BlockType) -> &mut Self {
        self.w.write_u8(Opcode::Loop.to_byte());
        self.write_block_type(bt);
        self
    }

    /// Appends an `if` with the given block type.
    pub fn if_(&mut self, bt: BlockType) -> &mut Self {
        self.w.write_u8(Opcode::If.to_byte());
        self.write_block_type(bt);
        self
    }

    /// Appends an `else`.
    pub fn else_(&mut self) -> &mut Self {
        self.w.write_u8(Opcode::Else.to_byte());
        self
    }

    /// Appends an `end` (closing a block/loop/if).
    pub fn end(&mut self) -> &mut Self {
        self.w.write_u8(Opcode::End.to_byte());
        self
    }

    /// Appends `br depth`.
    pub fn br(&mut self, depth: u32) -> &mut Self {
        self.w.write_u8(Opcode::Br.to_byte());
        self.w.write_u32_leb(depth);
        self
    }

    /// Appends `br_if depth`.
    pub fn br_if(&mut self, depth: u32) -> &mut Self {
        self.w.write_u8(Opcode::BrIf.to_byte());
        self.w.write_u32_leb(depth);
        self
    }

    /// Appends `br_table targets default`.
    pub fn br_table(&mut self, targets: &[u32], default: u32) -> &mut Self {
        self.w.write_u8(Opcode::BrTable.to_byte());
        self.w.write_u32_leb(targets.len() as u32);
        for &t in targets {
            self.w.write_u32_leb(t);
        }
        self.w.write_u32_leb(default);
        self
    }

    /// Appends `return`.
    pub fn return_(&mut self) -> &mut Self {
        self.w.write_u8(Opcode::Return.to_byte());
        self
    }

    /// Appends `call func_index`.
    pub fn call(&mut self, func_index: u32) -> &mut Self {
        self.w.write_u8(Opcode::Call.to_byte());
        self.w.write_u32_leb(func_index);
        self
    }

    /// Appends `call_indirect type_index table_index`.
    pub fn call_indirect(&mut self, type_index: u32, table_index: u32) -> &mut Self {
        self.w.write_u8(Opcode::CallIndirect.to_byte());
        self.w.write_u32_leb(type_index);
        self.w.write_u32_leb(table_index);
        self
    }

    /// Appends `drop`.
    pub fn drop_(&mut self) -> &mut Self {
        self.w.write_u8(Opcode::Drop.to_byte());
        self
    }

    /// Appends `select`.
    pub fn select(&mut self) -> &mut Self {
        self.w.write_u8(Opcode::Select.to_byte());
        self
    }

    /// Appends a typed `select` with explicit result types.
    pub fn select_t(&mut self, types: &[ValueType]) -> &mut Self {
        self.w.write_u8(Opcode::SelectT.to_byte());
        self.w.write_u32_leb(types.len() as u32);
        for &t in types {
            self.w.write_u8(t.to_byte());
        }
        self
    }

    /// Appends `unreachable`.
    pub fn unreachable(&mut self) -> &mut Self {
        self.w.write_u8(Opcode::Unreachable.to_byte());
        self
    }

    /// Appends `nop`.
    pub fn nop(&mut self) -> &mut Self {
        self.w.write_u8(Opcode::Nop.to_byte());
        self
    }

    /// Appends a memory load or store with the given alignment exponent and
    /// constant offset.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `op` is not a memory access opcode.
    pub fn mem(&mut self, op: Opcode, align: u32, offset: u32) -> &mut Self {
        debug_assert!(op.is_memory_access(), "{op} is not a memory access");
        self.w.write_u8(op.to_byte());
        self.w.write_u32_leb(align);
        self.w.write_u32_leb(offset);
        self
    }

    /// Appends `memory.size`.
    pub fn memory_size(&mut self) -> &mut Self {
        self.w.write_u8(Opcode::MemorySize.to_byte());
        self.w.write_u8(0);
        self
    }

    /// Appends `memory.grow`.
    pub fn memory_grow(&mut self) -> &mut Self {
        self.w.write_u8(Opcode::MemoryGrow.to_byte());
        self.w.write_u8(0);
        self
    }

    /// Appends `ref.null type`.
    pub fn ref_null(&mut self, ty: ValueType) -> &mut Self {
        debug_assert!(ty.is_reference());
        self.w.write_u8(Opcode::RefNull.to_byte());
        self.w.write_u8(ty.to_byte());
        self
    }

    /// Appends `ref.func func_index`.
    pub fn ref_func(&mut self, func_index: u32) -> &mut Self {
        self.w.write_u8(Opcode::RefFunc.to_byte());
        self.w.write_u32_leb(func_index);
        self
    }

    /// The number of bytes emitted so far (useful for offset assertions).
    pub fn len(&self) -> usize {
        self.w.len()
    }

    /// True if no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// Finishes the body: appends the terminating `end` and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.w.write_u8(Opcode::End.to_byte());
        self.w.into_bytes()
    }

    /// Returns the bytes emitted so far *without* appending a terminating
    /// `end`. Useful when splicing bodies together.
    pub fn into_raw_bytes(self) -> Vec<u8> {
        self.w.into_bytes()
    }

    fn write_block_type(&mut self, bt: BlockType) {
        match bt {
            BlockType::Empty => self.w.write_u8(0x40),
            BlockType::Value(t) => self.w.write_u8(t.to_byte()),
            BlockType::Func(i) => self.w.write_i32_leb(i as i32),
        }
    }
}

/// Builds a [`Module`] incrementally.
///
/// # Examples
///
/// ```
/// use wasm::builder::{CodeBuilder, ModuleBuilder};
/// use wasm::opcode::Opcode;
/// use wasm::types::{FuncType, ValueType};
///
/// let mut b = ModuleBuilder::new();
/// let mut code = CodeBuilder::new();
/// code.local_get(0).local_get(1).op(Opcode::I32Add);
/// let add = b.add_func(
///     FuncType::new(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32]),
///     vec![],
///     code.finish(),
/// );
/// b.export_func("add", add);
/// let module = b.finish();
/// assert_eq!(module.exported_func("add"), Some(add));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ModuleBuilder {
    module: ModuleData,
    type_cache: HashMap<FuncType, u32>,
}

impl ModuleBuilder {
    /// Creates an empty module builder.
    pub fn new() -> ModuleBuilder {
        ModuleBuilder::default()
    }

    /// Adds (or reuses) a signature in the type section and returns its index.
    pub fn add_type(&mut self, ty: FuncType) -> u32 {
        if let Some(&i) = self.type_cache.get(&ty) {
            return i;
        }
        let i = self.module.types.len() as u32;
        self.type_cache.insert(ty.clone(), i);
        self.module.types.push(ty);
        i
    }

    /// Imports a function. Imported functions occupy the lowest indices of the
    /// function index space, so all imports must be added before any defined
    /// functions.
    ///
    /// # Panics
    ///
    /// Panics if any defined function has already been added.
    pub fn import_func(&mut self, module: &str, name: &str, ty: FuncType) -> u32 {
        assert!(
            self.module.funcs.is_empty(),
            "function imports must precede function definitions"
        );
        let type_index = self.add_type(ty);
        let index = self.module.num_imported_funcs();
        self.module.imports.push(Import {
            module: module.to_string(),
            name: name.to_string(),
            kind: ImportKind::Func(type_index),
        });
        index
    }

    /// Adds a defined function with the given signature, extra locals, and
    /// body code (as produced by [`CodeBuilder::finish`]). Returns its index
    /// in the function index space.
    pub fn add_func(&mut self, ty: FuncType, locals: Vec<ValueType>, code: Vec<u8>) -> u32 {
        let type_index = self.add_type(ty);
        let grouped = group_locals(&locals);
        let defined_index = self.module.funcs.len() as u32;
        self.module.funcs.push(FuncDecl {
            type_index,
            locals: grouped,
            code,
        });
        self.module.num_imported_funcs() + defined_index
    }

    /// Adds a linear memory and returns its index.
    pub fn add_memory(&mut self, limits: Limits) -> u32 {
        let index = self.module.num_memories();
        self.module.memories.push(MemoryType { limits });
        index
    }

    /// Adds a table and returns its index.
    pub fn add_table(&mut self, element: ValueType, limits: Limits) -> u32 {
        let index = self.module.num_tables();
        self.module.tables.push(TableType { element, limits });
        index
    }

    /// Adds a global and returns its index.
    pub fn add_global(&mut self, ty: GlobalType, init: ConstExpr) -> u32 {
        let index = self.module.num_globals();
        self.module.globals.push(Global { ty, init });
        index
    }

    /// Exports a function under `name`.
    pub fn export_func(&mut self, name: &str, func_index: u32) -> &mut Self {
        self.module.exports.push(Export {
            name: name.to_string(),
            kind: ExternalKind::Func,
            index: func_index,
        });
        self
    }

    /// Exports a memory under `name`.
    pub fn export_memory(&mut self, name: &str, memory_index: u32) -> &mut Self {
        self.module.exports.push(Export {
            name: name.to_string(),
            kind: ExternalKind::Memory,
            index: memory_index,
        });
        self
    }

    /// Exports a global under `name`.
    pub fn export_global(&mut self, name: &str, global_index: u32) -> &mut Self {
        self.module.exports.push(Export {
            name: name.to_string(),
            kind: ExternalKind::Global,
            index: global_index,
        });
        self
    }

    /// Sets the start function.
    pub fn set_start(&mut self, func_index: u32) -> &mut Self {
        self.module.start = Some(func_index);
        self
    }

    /// Adds an active element segment.
    pub fn add_elem(&mut self, table_index: u32, offset: ConstExpr, funcs: Vec<u32>) -> &mut Self {
        self.module.elems.push(ElemSegment {
            table_index,
            offset,
            func_indices: funcs,
        });
        self
    }

    /// Adds an active data segment.
    pub fn add_data(&mut self, memory_index: u32, offset: ConstExpr, bytes: Vec<u8>) -> &mut Self {
        self.module.data.push(DataSegment {
            memory_index,
            offset,
            bytes,
        });
        self
    }

    /// The number of functions added so far (imports + defined).
    pub fn num_funcs(&self) -> u32 {
        self.module.num_funcs()
    }

    /// Finishes and returns the module.
    pub fn finish(self) -> Module {
        self.module.into()
    }
}

/// Groups a flat list of local types into (count, type) runs, as stored in the
/// binary format.
fn group_locals(locals: &[ValueType]) -> Vec<(u32, ValueType)> {
    let mut grouped: Vec<(u32, ValueType)> = Vec::new();
    for &ty in locals {
        match grouped.last_mut() {
            Some((count, last)) if *last == ty => *count += 1,
            _ => grouped.push((1, ty)),
        }
    }
    grouped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::{BytecodeReader, Imm, MemArg};

    #[test]
    fn group_locals_runs() {
        use ValueType::*;
        assert_eq!(group_locals(&[]), vec![]);
        assert_eq!(group_locals(&[I32]), vec![(1, I32)]);
        assert_eq!(
            group_locals(&[I32, I32, F64, F64, F64, I32]),
            vec![(2, I32), (3, F64), (1, I32)]
        );
    }

    #[test]
    fn code_builder_emits_decodable_bytecode() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Value(ValueType::I32))
            .i32_const(10)
            .local_get(0)
            .op(Opcode::I32Sub)
            .br_if(0)
            .i32_const(-1)
            .end();
        let code = c.finish();

        let expected = [
            Opcode::Block,
            Opcode::I32Const,
            Opcode::LocalGet,
            Opcode::I32Sub,
            Opcode::BrIf,
            Opcode::I32Const,
            Opcode::End,
            Opcode::End,
        ];
        let ops: Vec<Opcode> = BytecodeReader::new(&code).map(|i| i.unwrap().op).collect();
        assert_eq!(ops, expected);
    }

    #[test]
    fn module_builder_dedups_types() {
        let mut b = ModuleBuilder::new();
        let t0 = b.add_type(FuncType::new(vec![ValueType::I32], vec![]));
        let t1 = b.add_type(FuncType::new(vec![ValueType::I64], vec![]));
        let t2 = b.add_type(FuncType::new(vec![ValueType::I32], vec![]));
        assert_eq!(t0, 0);
        assert_eq!(t1, 1);
        assert_eq!(t0, t2);
        assert_eq!(b.finish().types.len(), 2);
    }

    #[test]
    fn imported_funcs_shift_defined_indices() {
        let mut b = ModuleBuilder::new();
        let imp = b.import_func("env", "log", FuncType::new(vec![ValueType::I32], vec![]));
        let mut code = CodeBuilder::new();
        code.i32_const(1).call(imp).i32_const(0);
        let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], code.finish());
        assert_eq!(imp, 0);
        assert_eq!(f, 1);
        let m = b.finish();
        assert_eq!(m.num_imported_funcs(), 1);
        assert_eq!(m.func_type(1).unwrap().results, vec![ValueType::I32]);
    }

    #[test]
    #[should_panic(expected = "imports must precede")]
    fn imports_after_definitions_panic() {
        let mut b = ModuleBuilder::new();
        b.add_func(FuncType::new(vec![], vec![]), vec![], CodeBuilder::new().finish());
        b.import_func("env", "late", FuncType::new(vec![], vec![]));
    }

    #[test]
    fn module_sections_are_populated() {
        let mut b = ModuleBuilder::new();
        let mem = b.add_memory(Limits::bounded(1, 2));
        let table = b.add_table(ValueType::FuncRef, Limits::at_least(4));
        let g = b.add_global(GlobalType::mutable(ValueType::I64), ConstExpr::I64(9));
        let f = b.add_func(FuncType::new(vec![], vec![]), vec![], CodeBuilder::new().finish());
        b.export_func("f", f);
        b.export_memory("mem", mem);
        b.export_global("g", g);
        b.set_start(f);
        b.add_elem(table, ConstExpr::I32(0), vec![f]);
        b.add_data(mem, ConstExpr::I32(8), vec![1, 2, 3]);
        let m = b.finish();
        assert_eq!(m.memories.len(), 1);
        assert_eq!(m.tables.len(), 1);
        assert_eq!(m.globals.len(), 1);
        assert_eq!(m.start, Some(f));
        assert_eq!(m.elems.len(), 1);
        assert_eq!(m.data.len(), 1);
        assert_eq!(m.exports.len(), 3);
    }

    #[test]
    fn mem_helper_writes_align_and_offset() {
        let mut c = CodeBuilder::new();
        c.i32_const(0).mem(Opcode::I32Load, 2, 64).drop_();
        let code = c.finish();
        let load = BytecodeReader::new(&code).nth(1).expect("two instructions").unwrap();
        assert_eq!(load.op, Opcode::I32Load);
        assert_eq!(load.imm, Imm::Mem(MemArg { align: 2, offset: 64 }));
    }
}
