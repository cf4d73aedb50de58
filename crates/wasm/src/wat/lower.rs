//! Lowering of parsed WAT s-expressions into a [`Module`].
//!
//! Lowering runs in three passes over the module fields: (A) `(type …)`
//! definitions are collected so every later typeuse — including forward name
//! references — resolves; (B) imports, functions, tables, memories, and
//! globals are declared in order, fixing every index space and symbolic
//! `$name`; (C) global initializers, exports, start, element/data segments,
//! and function bodies are lowered, now that every name is known. Function
//! bodies are encoded directly to the same raw bytecode the binary decoder
//! stores, so the validator, interpreter, and compilers see WAT-built modules
//! exactly as they see decoded ones.

use super::num;
use super::sexpr::Sexpr;
use super::WatError;
use crate::module::{
    ConstExpr, DataSegment, ElemSegment, Export, FuncDecl, Global, Import, ImportKind, Module,
    ModuleData,
};
use crate::opcode::{ImmediateKind, Opcode};
use crate::types::{
    BlockType, ExternalKind, FuncType, GlobalType, Limits, MemoryType, TableType, ValueType,
};
use crate::writer::ByteWriter;
use std::collections::HashMap;

/// Lowers a `(module …)` s-expression into a [`Module`].
///
/// # Errors
///
/// Returns a [`WatError`] naming the offending source offset for unknown
/// mnemonics, unresolved `$names`, malformed immediates, or out-of-order
/// imports.
pub fn module_from_sexpr(expr: &Sexpr) -> Result<Module, WatError> {
    let items = expr
        .as_list()
        .filter(|items| items.first().and_then(Sexpr::as_atom) == Some("module"))
        .ok_or_else(|| WatError::new("expected (module ...)", expr.offset()))?;
    let mut fields = &items[1..];
    // Optional module identifier (recorded in the name section).
    let mut module_name = None;
    if let Some(id) = fields
        .first()
        .and_then(Sexpr::as_atom)
        .and_then(|a| a.strip_prefix('$'))
    {
        module_name = Some(id.to_string());
        fields = &fields[1..];
    }

    let mut lw = Lowerer::default();

    // Pass A: type definitions.
    for field in fields {
        if field.keyword() == Some("type") {
            lw.define_type(field)?;
        }
    }

    // Pass B: declare everything, stashing work that needs complete name
    // tables for pass C.
    let mut deferred_bodies: Vec<DeferredBody<'_>> = Vec::new();
    let mut deferred_globals: Vec<(usize, &Sexpr)> = Vec::new();
    let mut deferred_fields: Vec<&Sexpr> = Vec::new();
    for field in fields {
        let kw = field
            .keyword()
            .ok_or_else(|| WatError::new("expected a (keyword ...) module field", field.offset()))?;
        match kw {
            "type" => {}
            "import" => lw.lower_import(field)?,
            "func" => {
                if let Some(body) = lw.declare_func(field)? {
                    deferred_bodies.push(body);
                }
            }
            "table" => lw.declare_table(field)?,
            "memory" => lw.declare_memory(field)?,
            "global" => {
                if let Some(deferred) = lw.declare_global(field)? {
                    deferred_globals.push(deferred);
                }
            }
            "export" | "start" | "elem" | "data" => deferred_fields.push(field),
            other => {
                return Err(WatError::new(
                    format!("unsupported module field `{other}`"),
                    field.offset(),
                ))
            }
        }
    }

    // Pass C: everything that can reference any name.
    lw.resolve_pending_inline_elems()?;
    for (index, init) in deferred_globals {
        let init = lw.lower_const_expr(init)?;
        lw.module.globals[index].init = init;
    }
    for field in deferred_fields {
        match field.keyword() {
            Some("export") => lw.lower_export(field)?,
            Some("start") => {
                let items = field.as_list().expect("checked");
                let idx = items
                    .get(1)
                    .ok_or_else(|| WatError::new("start needs a function", field.offset()))?;
                lw.module.start = Some(lw.resolve_func(idx)?);
            }
            Some("elem") => lw.lower_elem(field)?,
            Some("data") => lw.lower_data(field)?,
            _ => unreachable!("stashed fields are export/start/elem/data"),
        }
    }
    let num_imported = lw.module.num_imported_funcs();
    let mut names = crate::names::NameSection::new();
    names.module = module_name;
    for body in deferred_bodies {
        let code = lw.lower_body(&body)?;
        let func_index = num_imported + body.defined_index as u32;
        for (name, &local_index) in &code.local_names {
            names.set_local_name(func_index, local_index, name.clone());
        }
        let func = &mut lw.module.funcs[body.defined_index];
        func.locals = code.locals;
        func.code = code.bytes;
    }
    // Symbolic `$names` become the standard `name` custom section, so debug
    // names survive encoding and the engine can symbolicate backtraces. The
    // printer reads the same section back out, keeping the round trip
    // byte-identical.
    for (name, &func_index) in &lw.func_names {
        names.set_func_name(func_index, name.clone());
    }
    lw.module.set_name_section(&names);
    Ok(lw.module.into())
}

/// A function body stashed in pass B for lowering in pass C.
struct DeferredBody<'a> {
    defined_index: usize,
    /// The signature's parameter count (declared locals index after these).
    num_params: usize,
    /// Named parameters from the typeuse, by parameter index.
    param_names: Vec<Option<String>>,
    /// The `(local …)*` and instruction items following the typeuse.
    rest: &'a [Sexpr],
    offset: usize,
}

struct LoweredBody {
    locals: Vec<(u32, ValueType)>,
    bytes: Vec<u8>,
    /// Symbolic `$names` of parameters and locals, by local index (feeds the
    /// name section).
    local_names: HashMap<String, u32>,
}

#[derive(Default)]
struct Lowerer {
    module: ModuleData,
    type_names: HashMap<String, u32>,
    func_names: HashMap<String, u32>,
    table_names: HashMap<String, u32>,
    memory_names: HashMap<String, u32>,
    global_names: HashMap<String, u32>,
    /// Inline `(table … (elem f*))` segments whose function names resolve
    /// only after pass B: (elem segment index, function index expressions).
    pending_inline_elems: Vec<(usize, Vec<Sexpr>)>,
}

impl Lowerer {
    // ---- Pass A ---------------------------------------------------------

    fn define_type(&mut self, field: &Sexpr) -> Result<(), WatError> {
        let items = field.as_list().expect("caller checked");
        let mut i = 1;
        if let Some(name) = take_name(items, &mut i) {
            let index = self.module.types.len() as u32;
            if self.type_names.insert(name.to_string(), index).is_some() {
                return Err(WatError::new(format!("duplicate type name {name}"), field.offset()));
            }
        }
        let func = items
            .get(i)
            .filter(|e| e.keyword() == Some("func"))
            .ok_or_else(|| WatError::new("type must contain (func ...)", field.offset()))?;
        let (ty, _names) = parse_func_sig(func.as_list().expect("is a list"), 1)?;
        self.module.types.push(ty);
        Ok(())
    }

    // ---- Pass B ---------------------------------------------------------

    fn lower_import(&mut self, field: &Sexpr) -> Result<(), WatError> {
        let items = field.as_list().expect("caller checked");
        let module_name = items
            .get(1)
            .and_then(Sexpr::as_name)
            .ok_or_else(|| WatError::new("import needs a module name", field.offset()))?;
        let item_name = items
            .get(2)
            .and_then(Sexpr::as_name)
            .ok_or_else(|| WatError::new("import needs an item name", field.offset()))?;
        let desc = items
            .get(3)
            .and_then(Sexpr::as_list)
            .ok_or_else(|| WatError::new("import needs a descriptor", field.offset()))?;
        let kw = desc
            .first()
            .and_then(Sexpr::as_atom)
            .ok_or_else(|| WatError::new("empty import descriptor", field.offset()))?;
        let mut i = 1;
        let name = take_name(desc, &mut i).map(str::to_string);
        let kind = match kw {
            "func" => {
                self.check_import_order(!self.module.funcs.is_empty(), field)?;
                if let Some(n) = name {
                    self.func_names.insert(n, self.module.num_imported_funcs());
                }
                let (type_index, _) = self.resolve_typeuse(desc, &mut i)?;
                ImportKind::Func(type_index)
            }
            "table" => {
                self.check_import_order(!self.module.tables.is_empty(), field)?;
                if let Some(n) = name {
                    self.table_names.insert(n, self.module.num_imported_tables());
                }
                ImportKind::Table(parse_table_type(desc, &mut i, field.offset())?)
            }
            "memory" => {
                self.check_import_order(!self.module.memories.is_empty(), field)?;
                if let Some(n) = name {
                    self.memory_names.insert(n, self.module.num_imported_memories());
                }
                ImportKind::Memory(MemoryType {
                    limits: parse_limits(desc, &mut i, field.offset())?,
                })
            }
            "global" => {
                self.check_import_order(!self.module.globals.is_empty(), field)?;
                if let Some(n) = name {
                    self.global_names.insert(n, self.module.num_imported_globals());
                }
                ImportKind::Global(parse_global_type(desc.get(i), field.offset())?)
            }
            other => {
                return Err(WatError::new(
                    format!("unsupported import kind `{other}`"),
                    field.offset(),
                ))
            }
        };
        self.module.imports.push(Import {
            module: module_name,
            name: item_name,
            kind,
        });
        Ok(())
    }

    fn check_import_order(&self, after_definition: bool, field: &Sexpr) -> Result<(), WatError> {
        if after_definition {
            return Err(WatError::new(
                "imports must precede definitions of the same kind",
                field.offset(),
            ));
        }
        Ok(())
    }

    /// Declares a `(func …)` field: registers its name, inline exports, and
    /// signature. Returns the deferred body unless the field is an inline
    /// import.
    fn declare_func<'a>(&mut self, field: &'a Sexpr) -> Result<Option<DeferredBody<'a>>, WatError> {
        let items = field.as_list().expect("caller checked");
        let mut i = 1;
        let name = take_name(items, &mut i).map(str::to_string);
        let index = self.module.num_funcs();
        if let Some(n) = &name {
            if self.func_names.insert(n.clone(), index).is_some() {
                return Err(WatError::new(format!("duplicate function name {n}"), field.offset()));
            }
        }
        self.take_inline_exports(items, &mut i, ExternalKind::Func, index);
        if let Some((module, item)) = take_inline_import(items, &mut i, field.offset())? {
            self.check_import_order(!self.module.funcs.is_empty(), field)?;
            let (type_index, _) = self.resolve_typeuse(items, &mut i)?;
            self.module.imports.push(Import {
                module,
                name: item,
                kind: ImportKind::Func(type_index),
            });
            return Ok(None);
        }
        let (type_index, param_names) = self.resolve_typeuse(items, &mut i)?;
        // The local index space starts after the *signature's* parameters,
        // which can outnumber the inline `(param …)` names when the typeuse
        // is a bare `(type $t)` reference.
        let num_params = self.module.types[type_index as usize].params.len();
        let defined_index = self.module.funcs.len();
        self.module.funcs.push(FuncDecl {
            type_index,
            locals: Vec::new(),
            code: vec![Opcode::End.to_byte()],
        });
        Ok(Some(DeferredBody {
            defined_index,
            num_params,
            param_names,
            rest: &items[i..],
            offset: field.offset(),
        }))
    }

    fn declare_table(&mut self, field: &Sexpr) -> Result<(), WatError> {
        let items = field.as_list().expect("caller checked");
        let mut i = 1;
        let name = take_name(items, &mut i).map(str::to_string);
        let index = self.module.num_tables();
        if let Some(n) = name {
            if self.table_names.insert(n.clone(), index).is_some() {
                return Err(WatError::new(format!("duplicate table name ${n}"), field.offset()));
            }
        }
        self.take_inline_exports(items, &mut i, ExternalKind::Table, index);
        if let Some((module, item)) = take_inline_import(items, &mut i, field.offset())? {
            self.check_import_order(!self.module.tables.is_empty(), field)?;
            let ty = parse_table_type(items, &mut i, field.offset())?;
            self.module.imports.push(Import {
                module,
                name: item,
                kind: ImportKind::Table(ty),
            });
            return Ok(());
        }
        // Inline element segment: `(table $t funcref (elem f*))`.
        if let (Some(elem_ty), Some(elems)) = (
            items.get(i).and_then(Sexpr::as_atom).and_then(parse_ref_type),
            items.get(i + 1).filter(|e| e.keyword() == Some("elem")),
        ) {
            let funcs = elems.as_list().expect("is a list")[1..].to_vec();
            let count = funcs.len() as u32;
            self.module.tables.push(TableType {
                element: elem_ty,
                limits: Limits::bounded(count, count),
            });
            // The function names may refer to later definitions; resolution
            // is deferred until every name is registered (pass C).
            self.module.elems.push(ElemSegment {
                table_index: index,
                offset: ConstExpr::I32(0),
                func_indices: Vec::new(),
            });
            self.pending_inline_elems
                .push((self.module.elems.len() - 1, funcs));
            return Ok(());
        }
        let ty = parse_table_type(items, &mut i, field.offset())?;
        self.module.tables.push(ty);
        Ok(())
    }

    fn declare_memory(&mut self, field: &Sexpr) -> Result<(), WatError> {
        let items = field.as_list().expect("caller checked");
        let mut i = 1;
        let name = take_name(items, &mut i).map(str::to_string);
        let index = self.module.num_memories();
        if let Some(n) = name {
            if self.memory_names.insert(n.clone(), index).is_some() {
                return Err(WatError::new(format!("duplicate memory name ${n}"), field.offset()));
            }
        }
        self.take_inline_exports(items, &mut i, ExternalKind::Memory, index);
        if let Some((module, item)) = take_inline_import(items, &mut i, field.offset())? {
            self.check_import_order(!self.module.memories.is_empty(), field)?;
            let limits = parse_limits(items, &mut i, field.offset())?;
            self.module.imports.push(Import {
                module,
                name: item,
                kind: ImportKind::Memory(MemoryType { limits }),
            });
            return Ok(());
        }
        let limits = parse_limits(items, &mut i, field.offset())?;
        self.module.memories.push(MemoryType { limits });
        Ok(())
    }

    /// Declares a `(global …)`; the initializer is deferred to pass C so it
    /// can reference later names (`ref.func` of a later function).
    fn declare_global<'a>(
        &mut self,
        field: &'a Sexpr,
    ) -> Result<Option<(usize, &'a Sexpr)>, WatError> {
        let items = field.as_list().expect("caller checked");
        let mut i = 1;
        let name = take_name(items, &mut i).map(str::to_string);
        let index = self.module.num_globals();
        if let Some(n) = name {
            if self.global_names.insert(n.clone(), index).is_some() {
                return Err(WatError::new(format!("duplicate global name ${n}"), field.offset()));
            }
        }
        self.take_inline_exports(items, &mut i, ExternalKind::Global, index);
        if let Some((module, item)) = take_inline_import(items, &mut i, field.offset())? {
            self.check_import_order(!self.module.globals.is_empty(), field)?;
            let ty = parse_global_type(items.get(i), field.offset())?;
            self.module.imports.push(Import {
                module,
                name: item,
                kind: ImportKind::Global(ty),
            });
            return Ok(None);
        }
        let ty = parse_global_type(items.get(i), field.offset())?;
        i += 1;
        let init = items
            .get(i)
            .ok_or_else(|| WatError::new("global needs an initializer", field.offset()))?;
        let defined_index = self.module.globals.len();
        self.module.globals.push(Global {
            ty,
            init: ConstExpr::I32(0),
        });
        Ok(Some((defined_index, init)))
    }

    fn take_inline_exports(
        &mut self,
        items: &[Sexpr],
        i: &mut usize,
        kind: ExternalKind,
        index: u32,
    ) {
        while let Some(list) = items.get(*i).filter(|e| e.keyword() == Some("export")) {
            if let Some(name) = list.as_list().and_then(|l| l.get(1)).and_then(Sexpr::as_name) {
                self.module.exports.push(Export { name, kind, index });
            }
            *i += 1;
        }
    }

    // ---- Pass C ---------------------------------------------------------

    fn lower_export(&mut self, field: &Sexpr) -> Result<(), WatError> {
        let items = field.as_list().expect("caller checked");
        let name = items
            .get(1)
            .and_then(Sexpr::as_name)
            .ok_or_else(|| WatError::new("export needs a name", field.offset()))?;
        let desc = items
            .get(2)
            .and_then(Sexpr::as_list)
            .ok_or_else(|| WatError::new("export needs a descriptor", field.offset()))?;
        let kw = desc.first().and_then(Sexpr::as_atom).unwrap_or("");
        let target = desc
            .get(1)
            .ok_or_else(|| WatError::new("export descriptor needs an index", field.offset()))?;
        let (kind, index) = match kw {
            "func" => (ExternalKind::Func, self.resolve_func(target)?),
            "table" => (ExternalKind::Table, self.resolve_named(target, &self.table_names)?),
            "memory" => (ExternalKind::Memory, self.resolve_named(target, &self.memory_names)?),
            "global" => (ExternalKind::Global, self.resolve_named(target, &self.global_names)?),
            other => {
                return Err(WatError::new(
                    format!("unsupported export kind `{other}`"),
                    field.offset(),
                ))
            }
        };
        self.module.exports.push(Export {
            name,
            kind,
            index,
        });
        Ok(())
    }

    fn lower_elem(&mut self, field: &Sexpr) -> Result<(), WatError> {
        let items = field.as_list().expect("caller checked");
        let mut i = 1;
        let table_index = match items.get(i).filter(|e| e.keyword() == Some("table")) {
            Some(t) => {
                i += 1;
                let idx = t.as_list().and_then(|l| l.get(1)).ok_or_else(|| {
                    WatError::new("(table ...) needs an index", field.offset())
                })?;
                self.resolve_named(idx, &self.table_names)?
            }
            None => 0,
        };
        let offset_expr = items
            .get(i)
            .ok_or_else(|| WatError::new("elem needs an offset", field.offset()))?;
        let offset = self.lower_offset(offset_expr)?;
        i += 1;
        // Optional `func` keyword before the index list.
        if items.get(i).and_then(Sexpr::as_atom) == Some("func") {
            i += 1;
        }
        let mut funcs = Vec::new();
        for item in &items[i..] {
            funcs.push(self.resolve_func(item)?);
        }
        self.module.elems.push(ElemSegment {
            table_index,
            offset,
            func_indices: funcs,
        });
        Ok(())
    }

    fn lower_data(&mut self, field: &Sexpr) -> Result<(), WatError> {
        let items = field.as_list().expect("caller checked");
        let mut i = 1;
        let memory_index = match items.get(i).filter(|e| e.keyword() == Some("memory")) {
            Some(t) => {
                i += 1;
                let idx = t.as_list().and_then(|l| l.get(1)).ok_or_else(|| {
                    WatError::new("(memory ...) needs an index", field.offset())
                })?;
                self.resolve_named(idx, &self.memory_names)?
            }
            None => 0,
        };
        let offset_expr = items
            .get(i)
            .ok_or_else(|| WatError::new("data needs an offset", field.offset()))?;
        let offset = self.lower_offset(offset_expr)?;
        i += 1;
        let mut bytes = Vec::new();
        for item in &items[i..] {
            bytes.extend_from_slice(item.as_str_bytes().ok_or_else(|| {
                WatError::new("data contents must be string literals", item.offset())
            })?);
        }
        self.module.data.push(DataSegment {
            memory_index,
            offset,
            bytes,
        });
        Ok(())
    }

    /// Lowers `(offset e)` or a bare folded const expression.
    fn lower_offset(&self, expr: &Sexpr) -> Result<ConstExpr, WatError> {
        if expr.keyword() == Some("offset") {
            let inner = expr.as_list().expect("is a list").get(1).ok_or_else(|| {
                WatError::new("(offset ...) needs an expression", expr.offset())
            })?;
            return self.lower_const_expr(inner);
        }
        self.lower_const_expr(expr)
    }

    fn lower_const_expr(&self, expr: &Sexpr) -> Result<ConstExpr, WatError> {
        let items = expr
            .as_list()
            .ok_or_else(|| WatError::new("expected a constant expression", expr.offset()))?;
        let kw = items.first().and_then(Sexpr::as_atom).unwrap_or("");
        let arg = items.get(1);
        let need = |what: &str| WatError::new(format!("{kw} needs {what}"), expr.offset());
        let int_arg = |bits: u32| -> Result<u64, WatError> {
            let text = arg.and_then(Sexpr::as_atom).ok_or_else(|| need("a value"))?;
            num::parse_int(text, bits).map_err(|m| WatError::new(m, expr.offset()))
        };
        Ok(match kw {
            "i32.const" => ConstExpr::I32(int_arg(32)? as u32 as i32),
            "i64.const" => ConstExpr::I64(int_arg(64)? as i64),
            "f32.const" => {
                let text = arg.and_then(Sexpr::as_atom).ok_or_else(|| need("a value"))?;
                ConstExpr::F32(f32::from_bits(
                    num::parse_f32(text).map_err(|m| WatError::new(m, expr.offset()))?,
                ))
            }
            "f64.const" => {
                let text = arg.and_then(Sexpr::as_atom).ok_or_else(|| need("a value"))?;
                ConstExpr::F64(f64::from_bits(
                    num::parse_f64(text).map_err(|m| WatError::new(m, expr.offset()))?,
                ))
            }
            "global.get" => {
                ConstExpr::GlobalGet(self.resolve_named(arg.ok_or_else(|| need("an index"))?, &self.global_names)?)
            }
            "ref.func" => ConstExpr::RefFunc(self.resolve_func(arg.ok_or_else(|| need("an index"))?)?),
            "ref.null" => {
                let ty = arg
                    .and_then(Sexpr::as_atom)
                    .and_then(parse_ref_type)
                    .ok_or_else(|| need("a reference type"))?;
                ConstExpr::RefNull(ty)
            }
            other => {
                return Err(WatError::new(
                    format!("unsupported constant expression `{other}`"),
                    expr.offset(),
                ))
            }
        })
    }

    // ---- Shared resolution ---------------------------------------------

    /// Resolves `(type x)? (param …)* (result …)*` starting at `items[*i]`,
    /// returning the type index and the named parameters.
    fn resolve_typeuse(
        &mut self,
        items: &[Sexpr],
        i: &mut usize,
    ) -> Result<(u32, Vec<Option<String>>), WatError> {
        let mut explicit: Option<u32> = None;
        if let Some(t) = items.get(*i).filter(|e| e.keyword() == Some("type")) {
            let idx = t
                .as_list()
                .expect("is a list")
                .get(1)
                .ok_or_else(|| WatError::new("(type ...) needs an index", t.offset()))?;
            explicit = Some(self.resolve_named(idx, &self.type_names)?);
            *i += 1;
        }
        let (sig, names) = parse_func_sig(items, *i)?;
        // Skip the consumed param/result lists.
        while items
            .get(*i)
            .and_then(Sexpr::keyword)
            .is_some_and(|k| k == "param" || k == "result")
        {
            *i += 1;
        }
        match explicit {
            Some(index) => {
                let declared = self
                    .module
                    .types
                    .get(index as usize)
                    .ok_or_else(|| WatError::new("type index out of range", 0))?;
                if !(sig.params.is_empty() && sig.results.is_empty()) && *declared != sig {
                    return Err(WatError::new(
                        "inline signature disagrees with referenced type",
                        items.first().map_or(0, Sexpr::offset),
                    ));
                }
                Ok((index, names))
            }
            None => {
                // First matching type wins; otherwise append (spec semantics).
                let index = match self.module.types.iter().position(|t| *t == sig) {
                    Some(p) => p as u32,
                    None => {
                        self.module.types.push(sig);
                        self.module.types.len() as u32 - 1
                    }
                };
                Ok((index, names))
            }
        }
    }

    fn resolve_func(&self, expr: &Sexpr) -> Result<u32, WatError> {
        self.resolve_named(expr, &self.func_names)
    }

    fn resolve_named(&self, expr: &Sexpr, names: &HashMap<String, u32>) -> Result<u32, WatError> {
        let text = expr
            .as_atom()
            .ok_or_else(|| WatError::new("expected an index or $name", expr.offset()))?;
        if let Some(name) = text.strip_prefix('$') {
            return names.get(name).copied().ok_or_else(|| {
                WatError::new(format!("unknown name ${name}"), expr.offset())
            });
        }
        num::parse_int(text, 32)
            .map(|v| v as u32)
            .map_err(|m| WatError::new(m, expr.offset()))
    }

    // ---- Function bodies ------------------------------------------------

    fn lower_body(&mut self, body: &DeferredBody<'_>) -> Result<LoweredBody, WatError> {
        let mut local_names: HashMap<String, u32> = HashMap::new();
        for (p, name) in body.param_names.iter().enumerate() {
            if let Some(n) = name {
                local_names.insert(n.clone(), p as u32);
            }
        }
        let mut next_local = body.num_params as u32;
        let mut groups: Vec<(u32, ValueType)> = Vec::new();
        let mut i = 0;
        while let Some(field) = body.rest.get(i).filter(|e| e.keyword() == Some("local")) {
            let items = field.as_list().expect("is a list");
            let mut j = 1;
            if let Some(name) = take_name(items, &mut j) {
                let ty = items
                    .get(j)
                    .and_then(Sexpr::as_atom)
                    .and_then(parse_value_type)
                    .ok_or_else(|| WatError::new("named local needs one type", field.offset()))?;
                local_names.insert(name.to_string(), next_local);
                next_local += 1;
                groups.push((1, ty));
            } else {
                // One group per `(local …)` field, with runs merged inside
                // the field only — this exactly mirrors the printer, keeping
                // the binary local groupings bit-stable through round trips.
                let mut field_groups: Vec<(u32, ValueType)> = Vec::new();
                for item in &items[1..] {
                    let ty = item
                        .as_atom()
                        .and_then(parse_value_type)
                        .ok_or_else(|| WatError::new("expected a value type", item.offset()))?;
                    next_local += 1;
                    match field_groups.last_mut() {
                        Some((n, last)) if *last == ty => *n += 1,
                        _ => field_groups.push((1, ty)),
                    }
                }
                groups.extend(field_groups);
            }
            i += 1;
        }

        let mut bl = BodyLowerer {
            lw: self,
            local_names,
            labels: Vec::new(),
            w: ByteWriter::new(),
        };
        bl.instr_seq(&body.rest[i..])?;
        if !bl.labels.is_empty() {
            return Err(WatError::new("unclosed block in function body", body.offset));
        }
        let local_names = std::mem::take(&mut bl.local_names);
        let mut bytes = bl.w.into_bytes();
        bytes.push(Opcode::End.to_byte());
        Ok(LoweredBody {
            locals: groups,
            bytes,
            local_names,
        })
    }
}

// Inline element segments need function-name resolution that is only complete
// once pass B finishes, so the lowerer keeps them on the side.
impl Lowerer {
    fn resolve_pending_inline_elems(&mut self) -> Result<(), WatError> {
        let pending = std::mem::take(&mut self.pending_inline_elems);
        for (seg, funcs) in pending {
            let mut indices = Vec::with_capacity(funcs.len());
            for f in &funcs {
                indices.push(self.resolve_func(f)?);
            }
            self.module.elems[seg].func_indices = indices;
        }
        Ok(())
    }
}

struct BodyLowerer<'m> {
    lw: &'m mut Lowerer,
    local_names: HashMap<String, u32>,
    /// Open structured constructs, innermost last.
    labels: Vec<Option<String>>,
    w: ByteWriter,
}

impl BodyLowerer<'_> {
    fn instr_seq(&mut self, items: &[Sexpr]) -> Result<(), WatError> {
        let mut i = 0;
        while i < items.len() {
            i = self.instr(items, i)?;
        }
        Ok(())
    }

    /// Lowers one instruction starting at `items[i]`, returning the index of
    /// the next one.
    fn instr(&mut self, items: &[Sexpr], i: usize) -> Result<usize, WatError> {
        match &items[i] {
            Sexpr::Atom { text, offset } => self.flat_instr(items, i, text, *offset),
            list @ Sexpr::List { .. } => {
                self.folded_instr(list)?;
                Ok(i + 1)
            }
            Sexpr::Str { offset, .. } => {
                Err(WatError::new("unexpected string in instruction sequence", *offset))
            }
        }
    }

    fn flat_instr(
        &mut self,
        items: &[Sexpr],
        i: usize,
        mnemonic: &str,
        offset: usize,
    ) -> Result<usize, WatError> {
        match mnemonic {
            "block" | "loop" | "if" => {
                let mut j = i + 1;
                let label = take_name(items, &mut j).map(str::to_string);
                let bt = self.parse_block_type(items, &mut j)?;
                self.labels.push(label);
                let op = match mnemonic {
                    "block" => Opcode::Block,
                    "loop" => Opcode::Loop,
                    _ => Opcode::If,
                };
                self.w.write_u8(op.to_byte());
                write_block_type(&mut self.w, bt);
                Ok(j)
            }
            "else" => {
                let mut j = i + 1;
                take_name(items, &mut j);
                self.w.write_u8(Opcode::Else.to_byte());
                Ok(j)
            }
            "end" => {
                if self.labels.pop().is_none() {
                    return Err(WatError::new("`end` without an open block", offset));
                }
                let mut j = i + 1;
                take_name(items, &mut j);
                self.w.write_u8(Opcode::End.to_byte());
                Ok(j)
            }
            "select" => {
                // Typed select is spelled `select (result t)`.
                if items.get(i + 1).is_some_and(|e| e.keyword() == Some("result")) {
                    let imm = self.select_types_imm(&items[i + 1])?;
                    self.w.write_u8(Opcode::SelectT.to_byte());
                    self.w.write_bytes(&imm);
                    Ok(i + 2)
                } else {
                    self.w.write_u8(Opcode::Select.to_byte());
                    Ok(i + 1)
                }
            }
            _ => {
                let op = lookup_opcode(mnemonic)
                    .ok_or_else(|| WatError::new(format!("unknown instruction `{mnemonic}`"), offset))?;
                let (imm, j) = self.parse_immediates(op, items, i + 1, offset)?;
                self.w.write_u8(op.to_byte());
                self.w.write_bytes(&imm);
                Ok(j)
            }
        }
    }

    fn folded_instr(&mut self, expr: &Sexpr) -> Result<(), WatError> {
        let items = expr.as_list().expect("caller checked");
        let offset = expr.offset();
        let mnemonic = items
            .first()
            .and_then(Sexpr::as_atom)
            .ok_or_else(|| WatError::new("expected an instruction", offset))?;
        match mnemonic {
            "block" | "loop" => {
                let mut j = 1;
                let label = take_name(items, &mut j).map(str::to_string);
                let bt = self.parse_block_type(items, &mut j)?;
                self.labels.push(label);
                let op = if mnemonic == "block" { Opcode::Block } else { Opcode::Loop };
                self.w.write_u8(op.to_byte());
                write_block_type(&mut self.w, bt);
                self.instr_seq(&items[j..])?;
                self.labels.pop();
                self.w.write_u8(Opcode::End.to_byte());
                Ok(())
            }
            "if" => {
                let mut j = 1;
                let label = take_name(items, &mut j).map(str::to_string);
                let bt = self.parse_block_type(items, &mut j)?;
                // Leading folded expressions before (then …) are the
                // condition and execute *before* the `if` opcode.
                let then_at = items[j..]
                    .iter()
                    .position(|e| e.keyword() == Some("then"))
                    .map(|p| p + j)
                    .ok_or_else(|| WatError::new("folded if needs (then ...)", offset))?;
                for cond in &items[j..then_at] {
                    self.folded_instr(cond)?;
                }
                self.labels.push(label);
                self.w.write_u8(Opcode::If.to_byte());
                write_block_type(&mut self.w, bt);
                let then_items = items[then_at].as_list().expect("is a list");
                self.instr_seq(&then_items[1..])?;
                if let Some(else_expr) = items.get(then_at + 1) {
                    if else_expr.keyword() != Some("else") {
                        return Err(WatError::new("expected (else ...)", else_expr.offset()));
                    }
                    let else_items = else_expr.as_list().expect("is a list");
                    if !else_items[1..].is_empty() {
                        self.w.write_u8(Opcode::Else.to_byte());
                        self.instr_seq(&else_items[1..])?;
                    }
                }
                self.labels.pop();
                self.w.write_u8(Opcode::End.to_byte());
                Ok(())
            }
            "select" => {
                let mut j = 1;
                let mut typed_imm = None;
                if items.get(j).is_some_and(|e| e.keyword() == Some("result")) {
                    typed_imm = Some(self.select_types_imm(&items[j])?);
                    j += 1;
                }
                for operand in &items[j..] {
                    self.folded_instr(operand)?;
                }
                match typed_imm {
                    Some(imm) => {
                        self.w.write_u8(Opcode::SelectT.to_byte());
                        self.w.write_bytes(&imm);
                    }
                    None => self.w.write_u8(Opcode::Select.to_byte()),
                }
                Ok(())
            }
            _ => {
                let op = lookup_opcode(mnemonic)
                    .ok_or_else(|| WatError::new(format!("unknown instruction `{mnemonic}`"), offset))?;
                let (imm, j) = self.parse_immediates(op, items, 1, offset)?;
                for operand in &items[j..] {
                    self.folded_instr(operand)?;
                }
                self.w.write_u8(op.to_byte());
                self.w.write_bytes(&imm);
                Ok(())
            }
        }
    }

    /// Parses the immediates of `op` from `items[j..]`, returning their
    /// binary encoding and the index after the last consumed item.
    fn parse_immediates(
        &mut self,
        op: Opcode,
        items: &[Sexpr],
        j: usize,
        offset: usize,
    ) -> Result<(Vec<u8>, usize), WatError> {
        let mut w = ByteWriter::new();
        let mut j = j;
        match op.immediate_kind() {
            ImmediateKind::None => {}
            ImmediateKind::LabelIndex => {
                let depth = self.resolve_label(items.get(j), offset)?;
                w.write_u32_leb(depth);
                j += 1;
            }
            ImmediateKind::BranchTable => {
                let mut targets = Vec::new();
                while let Some(expr) = items.get(j).filter(|e| is_index_atom(e)) {
                    targets.push(self.resolve_label(Some(expr), offset)?);
                    j += 1;
                }
                let default = targets
                    .pop()
                    .ok_or_else(|| WatError::new("br_table needs at least one label", offset))?;
                w.write_u32_leb(targets.len() as u32);
                for t in &targets {
                    w.write_u32_leb(*t);
                }
                w.write_u32_leb(default);
            }
            ImmediateKind::FuncIndex => {
                let target = items
                    .get(j)
                    .ok_or_else(|| WatError::new("expected a function index", offset))?;
                w.write_u32_leb(self.lw.resolve_func(target)?);
                j += 1;
            }
            ImmediateKind::CallIndirect => {
                // `call_indirect tableidx? typeuse`.
                let mut table = 0;
                if let Some(expr) = items.get(j).filter(|e| is_index_atom(e)) {
                    table = self.lw.resolve_named(expr, &self.lw.table_names)?;
                    j += 1;
                }
                let (type_index, _) = self.lw.resolve_typeuse(items, &mut j)?;
                w.write_u32_leb(type_index);
                w.write_u32_leb(table);
            }
            ImmediateKind::LocalIndex => {
                let expr = items
                    .get(j)
                    .ok_or_else(|| WatError::new("expected a local index", offset))?;
                w.write_u32_leb(self.resolve_local(expr)?);
                j += 1;
            }
            ImmediateKind::GlobalIndex => {
                let expr = items
                    .get(j)
                    .ok_or_else(|| WatError::new("expected a global index", offset))?;
                w.write_u32_leb(self.lw.resolve_named(expr, &self.lw.global_names)?);
                j += 1;
            }
            ImmediateKind::MemArg => {
                let mut mem_offset: u64 = 0;
                let mut align_bytes: Option<u64> = None;
                while let Some(text) = items.get(j).and_then(Sexpr::as_atom) {
                    if let Some(v) = text.strip_prefix("offset=") {
                        mem_offset = num::parse_int(v, 32)
                            .map_err(|m| WatError::new(m, items[j].offset()))?;
                        j += 1;
                    } else if let Some(v) = text.strip_prefix("align=") {
                        align_bytes = Some(
                            num::parse_int(v, 32)
                                .map_err(|m| WatError::new(m, items[j].offset()))?,
                        );
                        j += 1;
                    } else {
                        break;
                    }
                }
                let align_log2 = match align_bytes {
                    Some(bytes) => {
                        if bytes == 0 || !bytes.is_power_of_two() {
                            return Err(WatError::new("alignment must be a power of two", offset));
                        }
                        bytes.trailing_zeros()
                    }
                    None => op.access_width().unwrap_or(1).trailing_zeros(),
                };
                w.write_u32_leb(align_log2);
                w.write_u32_leb(mem_offset as u32);
            }
            ImmediateKind::MemoryIndex => {
                if let Some(expr) = items.get(j).filter(|e| is_index_atom(e)) {
                    let idx = self.lw.resolve_named(expr, &self.lw.memory_names)?;
                    if idx != 0 {
                        return Err(WatError::new("only memory 0 is supported", expr.offset()));
                    }
                    j += 1;
                }
                w.write_u8(0);
            }
            ImmediateKind::I32Const => {
                let text = items
                    .get(j)
                    .and_then(Sexpr::as_atom)
                    .ok_or_else(|| WatError::new("expected an i32 literal", offset))?;
                let v = num::parse_int(text, 32).map_err(|m| WatError::new(m, offset))?;
                w.write_i32_leb(v as u32 as i32);
                j += 1;
            }
            ImmediateKind::I64Const => {
                let text = items
                    .get(j)
                    .and_then(Sexpr::as_atom)
                    .ok_or_else(|| WatError::new("expected an i64 literal", offset))?;
                let v = num::parse_int(text, 64).map_err(|m| WatError::new(m, offset))?;
                w.write_i64_leb(v as i64);
                j += 1;
            }
            ImmediateKind::F32Const => {
                let text = items
                    .get(j)
                    .and_then(Sexpr::as_atom)
                    .ok_or_else(|| WatError::new("expected an f32 literal", offset))?;
                let bits = num::parse_f32(text).map_err(|m| WatError::new(m, offset))?;
                w.write_u32_le(bits);
                j += 1;
            }
            ImmediateKind::F64Const => {
                let text = items
                    .get(j)
                    .and_then(Sexpr::as_atom)
                    .ok_or_else(|| WatError::new("expected an f64 literal", offset))?;
                let bits = num::parse_f64(text).map_err(|m| WatError::new(m, offset))?;
                w.write_u64_le(bits);
                j += 1;
            }
            ImmediateKind::RefType => {
                let ty = items
                    .get(j)
                    .and_then(Sexpr::as_atom)
                    .and_then(parse_ref_type)
                    .ok_or_else(|| WatError::new("expected `func` or `extern`", offset))?;
                w.write_u8(ty.to_byte());
                j += 1;
            }
            ImmediateKind::BlockType | ImmediateKind::SelectTyped => {
                unreachable!("block/select instructions are special-cased before immediate parsing")
            }
        }
        Ok((w.into_bytes(), j))
    }

    fn select_types_imm(&self, result: &Sexpr) -> Result<Vec<u8>, WatError> {
        let items = result.as_list().expect("caller checked");
        let mut w = ByteWriter::new();
        w.write_u32_leb(items.len() as u32 - 1);
        for item in &items[1..] {
            let ty = item
                .as_atom()
                .and_then(parse_value_type)
                .ok_or_else(|| WatError::new("expected a value type", item.offset()))?;
            w.write_u8(ty.to_byte());
        }
        Ok(w.into_bytes())
    }

    fn parse_block_type(&mut self, items: &[Sexpr], j: &mut usize) -> Result<BlockType, WatError> {
        if let Some(t) = items.get(*j).filter(|e| e.keyword() == Some("type")) {
            let idx = t
                .as_list()
                .expect("is a list")
                .get(1)
                .ok_or_else(|| WatError::new("(type ...) needs an index", t.offset()))?;
            let index = self.lw.resolve_named(idx, &self.lw.type_names)?;
            *j += 1;
            // Skip redundant inline param/result lists.
            while items
                .get(*j)
                .and_then(Sexpr::keyword)
                .is_some_and(|k| k == "param" || k == "result")
            {
                *j += 1;
            }
            return Ok(BlockType::Func(index));
        }
        let (sig, _) = parse_func_sig(items, *j)?;
        while items
            .get(*j)
            .and_then(Sexpr::keyword)
            .is_some_and(|k| k == "param" || k == "result")
        {
            *j += 1;
        }
        if sig.params.is_empty() && sig.results.is_empty() {
            return Ok(BlockType::Empty);
        }
        if sig.params.is_empty() && sig.results.len() == 1 {
            return Ok(BlockType::Value(sig.results[0]));
        }
        // Multi-value blocks need a real signature in the type section.
        let index = match self.lw.module.types.iter().position(|t| *t == sig) {
            Some(p) => p as u32,
            None => {
                self.lw.module.types.push(sig);
                self.lw.module.types.len() as u32 - 1
            }
        };
        Ok(BlockType::Func(index))
    }

    fn resolve_local(&self, expr: &Sexpr) -> Result<u32, WatError> {
        let text = expr
            .as_atom()
            .ok_or_else(|| WatError::new("expected a local index or $name", expr.offset()))?;
        if let Some(name) = text.strip_prefix('$') {
            return self
                .local_names
                .get(name)
                .copied()
                .ok_or_else(|| WatError::new(format!("unknown local ${name}"), expr.offset()));
        }
        num::parse_int(text, 32)
            .map(|v| v as u32)
            .map_err(|m| WatError::new(m, expr.offset()))
    }

    fn resolve_label(&self, expr: Option<&Sexpr>, offset: usize) -> Result<u32, WatError> {
        let expr = expr.ok_or_else(|| WatError::new("expected a label", offset))?;
        let text = expr
            .as_atom()
            .ok_or_else(|| WatError::new("expected a label index or $name", expr.offset()))?;
        if let Some(name) = text.strip_prefix('$') {
            let pos = self
                .labels
                .iter()
                .rposition(|l| l.as_deref() == Some(name))
                .ok_or_else(|| WatError::new(format!("unknown label ${name}"), expr.offset()))?;
            return Ok((self.labels.len() - 1 - pos) as u32);
        }
        num::parse_int(text, 32)
            .map(|v| v as u32)
            .map_err(|m| WatError::new(m, expr.offset()))
    }
}

// ---- Free helpers -------------------------------------------------------

/// Consumes an optional `$name` atom at `items[*i]`.
fn take_name<'a>(items: &'a [Sexpr], i: &mut usize) -> Option<&'a str> {
    let name = items.get(*i)?.as_atom()?.strip_prefix('$')?;
    *i += 1;
    Some(name)
}

/// Recognizes `(import "m" "n")` at `items[*i]`.
fn take_inline_import(
    items: &[Sexpr],
    i: &mut usize,
    offset: usize,
) -> Result<Option<(String, String)>, WatError> {
    let Some(list) = items.get(*i).filter(|e| e.keyword() == Some("import")) else {
        return Ok(None);
    };
    let l = list.as_list().expect("is a list");
    let module = l
        .get(1)
        .and_then(Sexpr::as_name)
        .ok_or_else(|| WatError::new("inline import needs a module name", offset))?;
    let name = l
        .get(2)
        .and_then(Sexpr::as_name)
        .ok_or_else(|| WatError::new("inline import needs an item name", offset))?;
    *i += 1;
    Ok(Some((module, name)))
}

/// Parses `(param …)* (result …)*` at `items[i..]` into a signature without
/// consuming (callers advance the cursor themselves).
fn parse_func_sig(items: &[Sexpr], i: usize) -> Result<(FuncType, Vec<Option<String>>), WatError> {
    let mut params = Vec::new();
    let mut names = Vec::new();
    let mut results = Vec::new();
    let mut seen_result = false;
    for item in &items[i..] {
        match item.keyword() {
            Some("param") => {
                if seen_result {
                    return Err(WatError::new("params must precede results", item.offset()));
                }
                let l = item.as_list().expect("is a list");
                let mut j = 1;
                if let Some(name) = take_name(l, &mut j) {
                    let ty = l
                        .get(j)
                        .and_then(Sexpr::as_atom)
                        .and_then(parse_value_type)
                        .ok_or_else(|| {
                            WatError::new("named param needs exactly one type", item.offset())
                        })?;
                    params.push(ty);
                    names.push(Some(name.to_string()));
                } else {
                    for t in &l[1..] {
                        let ty = t.as_atom().and_then(parse_value_type).ok_or_else(|| {
                            WatError::new("expected a value type", t.offset())
                        })?;
                        params.push(ty);
                        names.push(None);
                    }
                }
            }
            Some("result") => {
                seen_result = true;
                let l = item.as_list().expect("is a list");
                for t in &l[1..] {
                    let ty = t.as_atom().and_then(parse_value_type).ok_or_else(|| {
                        WatError::new("expected a value type", t.offset())
                    })?;
                    results.push(ty);
                }
            }
            _ => break,
        }
    }
    Ok((FuncType::new(params, results), names))
}

fn parse_limits(items: &[Sexpr], i: &mut usize, offset: usize) -> Result<Limits, WatError> {
    let min_text = items
        .get(*i)
        .and_then(Sexpr::as_atom)
        .ok_or_else(|| WatError::new("expected a minimum size", offset))?;
    let min = num::parse_int(min_text, 32)
        .map_err(|m| WatError::new(m, offset))? as u32;
    *i += 1;
    let max = match items.get(*i).and_then(Sexpr::as_atom) {
        Some(text) if !text.starts_with('$') && num::parse_int(text, 32).is_ok() => {
            *i += 1;
            Some(num::parse_int(text, 32).expect("just checked") as u32)
        }
        _ => None,
    };
    Ok(match max {
        Some(max) => Limits::bounded(min, max),
        None => Limits::at_least(min),
    })
}

fn parse_table_type(items: &[Sexpr], i: &mut usize, offset: usize) -> Result<TableType, WatError> {
    let limits = parse_limits(items, i, offset)?;
    let element = items
        .get(*i)
        .and_then(Sexpr::as_atom)
        .and_then(parse_ref_type)
        .ok_or_else(|| WatError::new("table needs an element type", offset))?;
    *i += 1;
    Ok(TableType { element, limits })
}

fn parse_global_type(expr: Option<&Sexpr>, offset: usize) -> Result<GlobalType, WatError> {
    let expr = expr.ok_or_else(|| WatError::new("global needs a type", offset))?;
    if let Some(atom) = expr.as_atom() {
        let ty = parse_value_type(atom)
            .ok_or_else(|| WatError::new("expected a value type", expr.offset()))?;
        return Ok(GlobalType::immutable(ty));
    }
    if expr.keyword() == Some("mut") {
        let l = expr.as_list().expect("is a list");
        let ty = l
            .get(1)
            .and_then(Sexpr::as_atom)
            .and_then(parse_value_type)
            .ok_or_else(|| WatError::new("(mut ...) needs a value type", expr.offset()))?;
        return Ok(GlobalType::mutable(ty));
    }
    Err(WatError::new("expected a global type", expr.offset()))
}

fn parse_value_type(text: &str) -> Option<ValueType> {
    match text {
        "i32" => Some(ValueType::I32),
        "i64" => Some(ValueType::I64),
        "f32" => Some(ValueType::F32),
        "f64" => Some(ValueType::F64),
        "funcref" => Some(ValueType::FuncRef),
        "externref" => Some(ValueType::ExternRef),
        _ => None,
    }
}

fn parse_ref_type(text: &str) -> Option<ValueType> {
    match text {
        "func" | "funcref" => Some(ValueType::FuncRef),
        "extern" | "externref" => Some(ValueType::ExternRef),
        _ => None,
    }
}

fn is_index_atom(expr: &Sexpr) -> bool {
    expr.as_atom()
        .is_some_and(|t| t.starts_with('$') || t.chars().next().is_some_and(|c| c.is_ascii_digit()))
}

fn write_block_type(w: &mut ByteWriter, bt: BlockType) {
    match bt {
        BlockType::Empty => w.write_u8(0x40),
        BlockType::Value(t) => w.write_u8(t.to_byte()),
        BlockType::Func(i) => w.write_i32_leb(i as i32),
    }
}

fn lookup_opcode(mnemonic: &str) -> Option<Opcode> {
    use std::sync::OnceLock;
    static TABLE: OnceLock<HashMap<&'static str, Opcode>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut m = HashMap::new();
        for &op in Opcode::ALL {
            // `select_t` shares the `select` spelling and is special-cased.
            if op != Opcode::SelectT {
                m.insert(op.mnemonic(), op);
            }
        }
        m
    });
    table.get(mnemonic).copied()
}
