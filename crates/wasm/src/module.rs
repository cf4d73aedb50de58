//! The in-memory representation of a WebAssembly module.
//!
//! Function bodies are stored as raw bytecode (exactly as they appear in the
//! binary format) so that the in-place interpreter and single-pass compiler
//! can work directly off the original bytes, preserving bytecode offsets for
//! instrumentation, debugging, and tier transfer.

use crate::types::{
    ExternalKind, FuncType, GlobalType, MemoryType, TableType, ValueType,
};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A constant initializer expression, used for globals, element segment
/// offsets, and data segment offsets.
#[derive(Debug, Clone, Copy)]
pub enum ConstExpr {
    /// An `i32.const` value.
    I32(i32),
    /// An `i64.const` value.
    I64(i64),
    /// An `f32.const` value.
    F32(f32),
    /// An `f64.const` value.
    F64(f64),
    /// A `ref.null` of the given reference type.
    RefNull(ValueType),
    /// A `ref.func` of the given function index.
    RefFunc(u32),
    /// A `global.get` of an (imported, immutable) global.
    GlobalGet(u32),
}

/// Float constants compare by bit pattern, the way the binary format stores
/// them: `-0.0` is not `0.0` and a NaN equals itself, so two modules are
/// equal exactly when they encode to the same bytes.
impl PartialEq for ConstExpr {
    fn eq(&self, other: &ConstExpr) -> bool {
        use ConstExpr::*;
        match (*self, *other) {
            (I32(a), I32(b)) => a == b,
            (I64(a), I64(b)) => a == b,
            (F32(a), F32(b)) => a.to_bits() == b.to_bits(),
            (F64(a), F64(b)) => a.to_bits() == b.to_bits(),
            (RefNull(a), RefNull(b)) => a == b,
            (RefFunc(a), RefFunc(b)) | (GlobalGet(a), GlobalGet(b)) => a == b,
            _ => false,
        }
    }
}

/// What an import provides.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportKind {
    /// A function with the given type index.
    Func(u32),
    /// A table.
    Table(TableType),
    /// A linear memory.
    Memory(MemoryType),
    /// A global.
    Global(GlobalType),
}

/// An import entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Import {
    /// The module namespace (e.g. `"env"`).
    pub module: String,
    /// The field name within the namespace.
    pub name: String,
    /// What is imported.
    pub kind: ImportKind,
}

/// An export entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Export {
    /// The exported name.
    pub name: String,
    /// What kind of entity is exported.
    pub kind: ExternalKind,
    /// The index of the exported entity in its index space.
    pub index: u32,
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// The global's type and mutability.
    pub ty: GlobalType,
    /// Its constant initializer.
    pub init: ConstExpr,
}

/// An active element segment initializing a table with function references.
#[derive(Debug, Clone, PartialEq)]
pub struct ElemSegment {
    /// The table to initialize.
    pub table_index: u32,
    /// Where in the table to start writing.
    pub offset: ConstExpr,
    /// Function indices to write.
    pub func_indices: Vec<u32>,
}

/// An active data segment initializing linear memory.
#[derive(Debug, Clone, PartialEq)]
pub struct DataSegment {
    /// The memory to initialize.
    pub memory_index: u32,
    /// Where in memory to start writing.
    pub offset: ConstExpr,
    /// Bytes to write.
    pub bytes: Vec<u8>,
}

/// A function defined in this module (not imported).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncDecl {
    /// Index into the module's type section.
    pub type_index: u32,
    /// Grouped local declarations: (count, type), as in the binary format.
    pub locals: Vec<(u32, ValueType)>,
    /// The instruction bytes of the body, including the terminating `end`.
    pub code: Vec<u8>,
}

impl FuncDecl {
    /// The number of declared (non-parameter) locals after expanding groups.
    pub fn declared_local_count(&self) -> u32 {
        self.locals.iter().map(|(n, _)| *n).sum()
    }

    /// Expands the grouped local declarations into a flat list of types.
    pub fn declared_local_types(&self) -> Vec<ValueType> {
        let mut out = Vec::with_capacity(self.declared_local_count() as usize);
        for &(count, ty) in &self.locals {
            for _ in 0..count {
                out.push(ty);
            }
        }
        out
    }
}

/// A custom (name, bytes) section, preserved but not interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CustomSection {
    /// The section name.
    pub name: String,
    /// The raw payload.
    pub bytes: Vec<u8>,
}

/// The contents of a WebAssembly module: every section, as plain data.
///
/// This is what [`decode`](crate::decode::decode), the
/// [`ModuleBuilder`](crate::builder::ModuleBuilder) and the WAT lowerer
/// assemble, and what a [`Module`] dereferences to. Consumers take a
/// [`Module`]; a `ModuleData` becomes one through `Module::from`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModuleData {
    /// The type (signature) section.
    pub types: Vec<FuncType>,
    /// Imports, in declaration order.
    pub imports: Vec<Import>,
    /// Functions defined in this module. Function index space =
    /// imported functions followed by these.
    pub funcs: Vec<FuncDecl>,
    /// Tables defined in this module.
    pub tables: Vec<TableType>,
    /// Memories defined in this module.
    pub memories: Vec<MemoryType>,
    /// Globals defined in this module.
    pub globals: Vec<Global>,
    /// Exports.
    pub exports: Vec<Export>,
    /// Optional start function index.
    pub start: Option<u32>,
    /// Element segments.
    pub elems: Vec<ElemSegment>,
    /// Data segments.
    pub data: Vec<DataSegment>,
    /// Custom sections (preserved verbatim).
    pub custom: Vec<CustomSection>,
}

/// What every clone of a [`Module`] shares: the contents and the memoized
/// hash of exactly those contents.
#[derive(Clone, Default)]
struct Shared {
    data: ModuleData,
    hash: OnceLock<u64>,
}

/// A complete WebAssembly module: an immutable, cheaply cloneable handle on
/// a [`ModuleData`].
///
/// `Module` dereferences to [`ModuleData`], so fields and read-only methods
/// are used directly (`module.funcs`, `module.total_code_bytes()`). Cloning
/// bumps a reference count; the engine's artifacts, instance pools and
/// servers all hold the same allocation. Because the contents cannot change
/// behind a handle, [`Module::content_hash`] is computed once per value and
/// shared by every clone.
///
/// There is deliberately no `DerefMut`. The one way to a `&mut ModuleData`
/// is [`Module::make_mut`], which un-shares the value first and forgets the
/// memoized hash:
///
/// ```
/// let mut m = wasm::Module::new();
/// m.make_mut().start = Some(0);
/// ```
///
/// ```compile_fail,E0596
/// let mut m = wasm::Module::new();
/// m.funcs.clear(); // no `DerefMut`: the fields are read-only through the handle
/// ```
#[derive(Clone, Default)]
pub struct Module(Arc<Shared>);

impl Deref for Module {
    type Target = ModuleData;

    fn deref(&self) -> &ModuleData {
        &self.0.data
    }
}

impl From<ModuleData> for Module {
    fn from(data: ModuleData) -> Module {
        Module(Arc::new(Shared {
            data,
            hash: OnceLock::new(),
        }))
    }
}

impl fmt::Debug for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.data.fmt(f)
    }
}

/// Modules are equal when their contents are; two handles on one allocation
/// are equal without looking.
impl PartialEq for Module {
    fn eq(&self, other: &Module) -> bool {
        Module::ptr_eq(self, other) || self.0.data == other.0.data
    }
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// True if `a` and `b` are handles on the same allocation (one is a
    /// clone of the other and neither was edited since).
    pub fn ptr_eq(a: &Module, b: &Module) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Mutable access to the contents, copy-on-write: if other handles share
    /// this value the contents are cloned first (O(module size)) and those
    /// handles keep the old contents and their memoized hash; a sole owner
    /// is edited in place. Either way this handle's memoized
    /// [`content_hash`](Module::content_hash) is dropped, so the next call
    /// hashes what the edit left behind.
    pub fn make_mut(&mut self) -> &mut ModuleData {
        let shared = Arc::make_mut(&mut self.0);
        shared.hash.take();
        &mut shared.data
    }

    /// A stable 64-bit hash of the module's *content*: FNV-1a over the
    /// module's binary-format encoding (see [`crate::encode::encode`]).
    ///
    /// Two modules hash equal exactly when they encode to the same bytes, so
    /// the hash is independent of how the in-memory value was produced
    /// (decoded, built programmatically, or cloned) and stable across
    /// processes — the property the engine's keyed code cache needs. The
    /// first call on a value encodes and hashes it, O(module size); every
    /// later call, on this handle or any clone, is a load.
    pub fn content_hash(&self) -> u64 {
        *self
            .0
            .hash
            .get_or_init(|| crate::hash::fnv1a_64(&crate::encode::encode(self)))
    }
}

impl ModuleData {
    /// Parses the module's `name` custom section into its typed form (an
    /// empty [`crate::names::NameSection`] when the module has none).
    ///
    /// Parsing is tolerant — a malformed section yields whatever prefix
    /// decoded cleanly — and runs on demand: the raw bytes stay preserved
    /// verbatim in [`ModuleData::custom`], so this never perturbs round trips.
    pub fn name_section(&self) -> crate::names::NameSection {
        self.custom
            .iter()
            .find(|c| c.name == "name")
            .map(|c| crate::names::NameSection::parse(&c.bytes))
            .unwrap_or_default()
    }

    /// Replaces the module's `name` custom section with the canonical
    /// encoding of `names` (removing it entirely when `names` is empty).
    pub fn set_name_section(&mut self, names: &crate::names::NameSection) {
        self.custom.retain(|c| c.name != "name");
        if !names.is_empty() {
            self.custom.push(CustomSection {
                name: "name".to_string(),
                bytes: names.encode(),
            });
        }
    }

    /// The number of imported functions (they occupy the first indices of the
    /// function index space).
    pub fn num_imported_funcs(&self) -> u32 {
        self.func_import_types().count() as u32
    }

    /// The type index of every imported function, in function-index order.
    fn func_import_types(&self) -> impl Iterator<Item = u32> + '_ {
        self.imports.iter().filter_map(|i| match i.kind {
            ImportKind::Func(t) => Some(t),
            _ => None,
        })
    }

    /// The number of imported globals.
    pub fn num_imported_globals(&self) -> u32 {
        self.imports
            .iter()
            .filter(|i| matches!(i.kind, ImportKind::Global(_)))
            .count() as u32
    }

    /// The number of imported memories.
    pub fn num_imported_memories(&self) -> u32 {
        self.imports
            .iter()
            .filter(|i| matches!(i.kind, ImportKind::Memory(_)))
            .count() as u32
    }

    /// The number of imported tables.
    pub fn num_imported_tables(&self) -> u32 {
        self.imports
            .iter()
            .filter(|i| matches!(i.kind, ImportKind::Table(_)))
            .count() as u32
    }

    /// The total number of functions in the index space (imports + defined).
    pub fn num_funcs(&self) -> u32 {
        self.num_imported_funcs() + self.funcs.len() as u32
    }

    /// The total number of globals in the index space (imports + defined).
    pub fn num_globals(&self) -> u32 {
        self.num_imported_globals() + self.globals.len() as u32
    }

    /// The total number of memories (imports + defined).
    pub fn num_memories(&self) -> u32 {
        self.num_imported_memories() + self.memories.len() as u32
    }

    /// The total number of tables (imports + defined).
    pub fn num_tables(&self) -> u32 {
        self.num_imported_tables() + self.tables.len() as u32
    }

    /// True if `func_index` refers to an imported function.
    pub fn is_imported_func(&self, func_index: u32) -> bool {
        func_index < self.num_imported_funcs()
    }

    /// The type index of the function at `func_index`, imported or defined.
    fn func_type_index(&self, func_index: u32) -> Option<u32> {
        let num_imports = self.num_imported_funcs();
        if func_index < num_imports {
            self.func_import_types().nth(func_index as usize)
        } else {
            self.funcs
                .get((func_index - num_imports) as usize)
                .map(|f| f.type_index)
        }
    }

    /// The signature of the function at `func_index`.
    pub fn func_type(&self, func_index: u32) -> Option<&FuncType> {
        let ti = self.func_type_index(func_index)?;
        self.types.get(ti as usize)
    }

    /// The body of the function at `func_index`, or `None` if it is imported.
    pub fn func_decl(&self, func_index: u32) -> Option<&FuncDecl> {
        let num_imports = self.num_imported_funcs();
        if func_index < num_imports {
            None
        } else {
            self.funcs.get((func_index - num_imports) as usize)
        }
    }

    /// Converts a defined-function index (0-based into `funcs`) to a
    /// function-space index.
    pub fn defined_to_func_index(&self, defined_index: u32) -> u32 {
        self.num_imported_funcs() + defined_index
    }

    /// The complete flat list of local slot types for a defined function:
    /// its parameters followed by its declared locals. This is exactly the
    /// base of the frame's value-stack layout.
    pub fn func_local_types(&self, func_index: u32) -> Option<Vec<ValueType>> {
        let decl = self.func_decl(func_index)?;
        let sig = self.func_type(func_index)?;
        let mut locals = sig.params.clone();
        locals.extend(decl.declared_local_types());
        Some(locals)
    }

    /// The type of the global at `global_index`, imported or defined.
    pub fn global_type(&self, global_index: u32) -> Option<GlobalType> {
        let num_imports = self.num_imported_globals();
        if global_index < num_imports {
            self.imports
                .iter()
                .filter_map(|i| match i.kind {
                    ImportKind::Global(g) => Some(g),
                    _ => None,
                })
                .nth(global_index as usize)
        } else {
            self.globals
                .get((global_index - num_imports) as usize)
                .map(|g| g.ty)
        }
    }

    /// The memory type at `memory_index` (imported or defined).
    pub fn memory_type(&self, memory_index: u32) -> Option<MemoryType> {
        let num_imports = self.num_imported_memories();
        if memory_index < num_imports {
            self.imports
                .iter()
                .filter_map(|i| match i.kind {
                    ImportKind::Memory(m) => Some(m),
                    _ => None,
                })
                .nth(memory_index as usize)
        } else {
            self.memories
                .get((memory_index - num_imports) as usize)
                .copied()
        }
    }

    /// The table type at `table_index` (imported or defined).
    pub fn table_type(&self, table_index: u32) -> Option<TableType> {
        let num_imports = self.num_imported_tables();
        if table_index < num_imports {
            self.imports
                .iter()
                .filter_map(|i| match i.kind {
                    ImportKind::Table(t) => Some(t),
                    _ => None,
                })
                .nth(table_index as usize)
        } else {
            self.tables
                .get((table_index - num_imports) as usize)
                .copied()
        }
    }

    /// Finds an exported function's index by name.
    pub fn exported_func(&self, name: &str) -> Option<u32> {
        self.exports
            .iter()
            .find(|e| e.name == name && e.kind == ExternalKind::Func)
            .map(|e| e.index)
    }

    /// The total number of bytecode bytes across all defined function bodies.
    /// This is the denominator of the paper's "compile time per byte of input
    /// code" metric (Fig. 8).
    pub fn total_code_bytes(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Limits;

    fn encoding_hash(m: &Module) -> u64 {
        crate::hash::fnv1a_64(&crate::encode::encode(m))
    }

    #[test]
    fn content_hash_is_stable_and_clone_invariant() {
        let m = test_module();
        let h = m.content_hash();
        assert_eq!(h, m.content_hash(), "hashing is deterministic");
        assert_eq!(h, m.clone().content_hash(), "clones hash identically");
        // The hash is exactly FNV-1a over the encoding, so a decode/encode
        // round trip preserves it.
        let decoded = crate::decode::decode(&crate::encode::encode(&m)).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(h, decoded.content_hash());
        assert_eq!(h, encoding_hash(&m));
    }

    #[test]
    fn content_hash_follows_every_kind_of_edit() {
        type Edit = fn(&mut ModuleData);
        let edits: [(&str, Edit); 4] = [
            ("code byte", |d| d.funcs[0].code = vec![0x01, 0x0B]),
            ("global init", |d| d.globals[0].init = ConstExpr::I32(8)),
            ("name section", |d| {
                let mut names = crate::names::NameSection::default();
                names.module = Some("m".to_string());
                d.set_name_section(&names);
            }),
            ("export", |d| d.exports[0].name = "go".to_string()),
        ];
        let mut m = test_module();
        let mut seen = vec![m.content_hash()];
        for (what, edit) in edits {
            assert_eq!(m.content_hash(), encoding_hash(&m), "before {what} edit");
            edit(m.make_mut());
            assert_eq!(m.content_hash(), encoding_hash(&m), "after {what} edit");
            assert!(!seen.contains(&m.content_hash()), "{what} edit changes the hash");
            seen.push(m.content_hash());
        }
        assert_ne!(Module::new().content_hash(), test_module().content_hash());
    }

    #[test]
    fn make_mut_is_copy_on_write() {
        let mut m = test_module();
        let before = m.clone();
        assert!(Module::ptr_eq(&m, &before));
        let old_hash = before.content_hash();

        m.make_mut().funcs[0].code = vec![0x01, 0x0B];
        assert!(!Module::ptr_eq(&m, &before), "the edit un-shared the value");
        assert_eq!(before.funcs[0].code, vec![0x0B], "the earlier clone keeps its contents");
        assert_eq!(before.content_hash(), old_hash);
        assert_eq!(before, test_module());
        assert_ne!(m, before);
        assert_ne!(m.content_hash(), old_hash);

        // A clone taken after the edit shares the new value and its memo.
        let after = m.clone();
        assert!(Module::ptr_eq(&m, &after));
        assert_eq!(after.content_hash(), m.content_hash());
        assert_eq!(after.content_hash(), encoding_hash(&m));

        // A sole owner is edited in place, and still forgets its memo.
        let mut sole = test_module();
        let stale = sole.content_hash();
        sole.make_mut().start = Some(1);
        assert_ne!(sole.content_hash(), stale);
    }

    #[test]
    fn const_exprs_compare_by_bits() {
        assert_eq!(ConstExpr::F32(f32::NAN), ConstExpr::F32(f32::NAN));
        assert_ne!(ConstExpr::F64(0.0), ConstExpr::F64(-0.0));
        assert_ne!(ConstExpr::RefFunc(1), ConstExpr::GlobalGet(1));
    }

    fn test_module() -> Module {
        let mut m = ModuleData::default();
        m.types.push(FuncType::new(vec![ValueType::I32], vec![ValueType::I32]));
        m.types.push(FuncType::new(vec![], vec![]));
        m.imports.push(Import {
            module: "env".to_string(),
            name: "host_fn".to_string(),
            kind: ImportKind::Func(1),
        });
        m.imports.push(Import {
            module: "env".to_string(),
            name: "g".to_string(),
            kind: ImportKind::Global(GlobalType::immutable(ValueType::I64)),
        });
        m.funcs.push(FuncDecl {
            type_index: 0,
            locals: vec![(2, ValueType::I32), (1, ValueType::F64)],
            code: vec![0x0B],
        });
        m.globals.push(Global {
            ty: GlobalType::mutable(ValueType::I32),
            init: ConstExpr::I32(7),
        });
        m.memories.push(MemoryType {
            limits: Limits::bounded(1, 4),
        });
        m.tables.push(TableType {
            element: ValueType::FuncRef,
            limits: Limits::at_least(2),
        });
        m.exports.push(Export {
            name: "run".to_string(),
            kind: ExternalKind::Func,
            index: 1,
        });
        m.into()
    }

    #[test]
    fn index_spaces_account_for_imports() {
        let m = test_module();
        assert_eq!(m.num_imported_funcs(), 1);
        assert_eq!(m.num_imported_globals(), 1);
        assert_eq!(m.num_funcs(), 2);
        assert_eq!(m.num_globals(), 2);
        assert!(m.is_imported_func(0));
        assert!(!m.is_imported_func(1));
        assert_eq!(m.defined_to_func_index(0), 1);
    }

    #[test]
    fn func_type_lookup_spans_imports_and_definitions() {
        let m = test_module();
        assert_eq!(m.func_type_index(0), Some(1));
        assert_eq!(m.func_type_index(1), Some(0));
        assert_eq!(m.func_type_index(2), None);
        assert_eq!(m.func_type(1).unwrap().params, vec![ValueType::I32]);
        assert!(m.func_decl(0).is_none());
        assert!(m.func_decl(1).is_some());
    }

    #[test]
    fn local_types_include_params_then_locals() {
        let m = test_module();
        let locals = m.func_local_types(1).unwrap();
        assert_eq!(
            locals,
            vec![
                ValueType::I32,
                ValueType::I32,
                ValueType::I32,
                ValueType::F64
            ]
        );
        assert!(m.func_local_types(0).is_none());
    }

    #[test]
    fn global_type_lookup_spans_imports_and_definitions() {
        let m = test_module();
        assert_eq!(
            m.global_type(0),
            Some(GlobalType::immutable(ValueType::I64))
        );
        assert_eq!(m.global_type(1), Some(GlobalType::mutable(ValueType::I32)));
        assert_eq!(m.global_type(2), None);
    }

    #[test]
    fn export_lookup() {
        let m = test_module();
        assert_eq!(m.exported_func("run"), Some(1));
        assert_eq!(m.exported_func("missing"), None);
    }

    #[test]
    fn func_decl_local_expansion() {
        let decl = FuncDecl {
            type_index: 0,
            locals: vec![(3, ValueType::I64), (1, ValueType::F32)],
            code: vec![0x0B],
        };
        assert_eq!(decl.declared_local_count(), 4);
        assert_eq!(
            decl.declared_local_types(),
            vec![
                ValueType::I64,
                ValueType::I64,
                ValueType::I64,
                ValueType::F32
            ]
        );
    }

    #[test]
    fn total_code_bytes_sums_bodies() {
        let m = test_module();
        assert_eq!(m.total_code_bytes(), 1);
    }

    #[test]
    fn memory_and_table_lookup() {
        let m = test_module();
        assert!(m.memory_type(0).is_some());
        assert!(m.memory_type(1).is_none());
        assert_eq!(m.table_type(0).unwrap().element, ValueType::FuncRef);
    }
}
