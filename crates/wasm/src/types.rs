//! Core WebAssembly type definitions: value types, function types, limits,
//! global/table/memory types, and block types.
//!
//! These mirror the type grammar of the WebAssembly 1.0 specification plus
//! the reference types (`funcref`/`externref`) and multi-value extensions the
//! paper's compilers all support.

use std::fmt;

/// A WebAssembly value type.
///
/// Numeric types occupy one 64-bit slot in the engine's value stack; reference
/// types also occupy one slot but carry a *reference* value tag so the host
/// garbage collector can locate roots (see the `interp` and `engine` crates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueType {
    /// 32-bit integer.
    I32,
    /// 64-bit integer.
    I64,
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit IEEE-754 float.
    F64,
    /// A (nullable) reference to a function.
    FuncRef,
    /// A (nullable) reference to a host object. These are the GC roots the
    /// paper's value-tag machinery exists to find.
    ExternRef,
}

impl ValueType {
    /// All value types, in a stable order.
    pub const ALL: [ValueType; 6] = [
        ValueType::I32,
        ValueType::I64,
        ValueType::F32,
        ValueType::F64,
        ValueType::FuncRef,
        ValueType::ExternRef,
    ];

    /// Returns true for reference types (`funcref` and `externref`).
    pub fn is_reference(self) -> bool {
        matches!(self, ValueType::FuncRef | ValueType::ExternRef)
    }

    /// Returns true for floating-point types.
    pub fn is_float(self) -> bool {
        matches!(self, ValueType::F32 | ValueType::F64)
    }

    /// The binary-format byte for this type.
    pub fn to_byte(self) -> u8 {
        match self {
            ValueType::I32 => 0x7F,
            ValueType::I64 => 0x7E,
            ValueType::F32 => 0x7D,
            ValueType::F64 => 0x7C,
            ValueType::FuncRef => 0x70,
            ValueType::ExternRef => 0x6F,
        }
    }

    /// Decodes a value type from its binary-format byte.
    pub fn from_byte(b: u8) -> Option<ValueType> {
        match b {
            0x7F => Some(ValueType::I32),
            0x7E => Some(ValueType::I64),
            0x7D => Some(ValueType::F32),
            0x7C => Some(ValueType::F64),
            0x70 => Some(ValueType::FuncRef),
            0x6F => Some(ValueType::ExternRef),
            _ => None,
        }
    }

    /// A short lowercase mnemonic (`i32`, `externref`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            ValueType::I32 => "i32",
            ValueType::I64 => "i64",
            ValueType::F32 => "f32",
            ValueType::F64 => "f64",
            ValueType::FuncRef => "funcref",
            ValueType::ExternRef => "externref",
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A function signature: parameter types and result types.
///
/// Multi-value results are supported (the `MV` feature in the paper's Fig. 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FuncType {
    /// Parameter types, in order.
    pub params: Vec<ValueType>,
    /// Result types, in order. More than one result requires multi-value.
    pub results: Vec<ValueType>,
}

impl FuncType {
    /// Creates a new function type.
    pub fn new(params: Vec<ValueType>, results: Vec<ValueType>) -> FuncType {
        FuncType { params, results }
    }

    /// Number of parameters.
    pub fn param_count(&self) -> u32 {
        self.params.len() as u32
    }
}

impl fmt::Display for FuncType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "] -> [")?;
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "]")
    }
}

/// Size limits for memories and tables, in pages or elements respectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Limits {
    /// Minimum size.
    pub min: u32,
    /// Optional maximum size.
    pub max: Option<u32>,
}

impl Limits {
    /// Creates limits with only a minimum.
    pub fn at_least(min: u32) -> Limits {
        Limits { min, max: None }
    }

    /// Creates limits with a minimum and maximum.
    pub fn bounded(min: u32, max: u32) -> Limits {
        Limits {
            min,
            max: Some(max),
        }
    }

    /// Checks that `min <= max` when a maximum is present.
    pub fn is_well_formed(&self) -> bool {
        self.max.is_none_or(|m| self.min <= m)
    }
}

impl fmt::Display for Limits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max {
            Some(max) => write!(f, "{{min {}, max {}}}", self.min, max),
            None => write!(f, "{{min {}}}", self.min),
        }
    }
}

/// The type of a global variable: value type plus mutability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalType {
    /// The type of the global's value.
    pub value_type: ValueType,
    /// Whether the global may be assigned with `global.set`.
    pub mutable: bool,
}

impl GlobalType {
    /// An immutable global of the given type.
    pub fn immutable(value_type: ValueType) -> GlobalType {
        GlobalType {
            value_type,
            mutable: false,
        }
    }

    /// A mutable global of the given type.
    pub fn mutable(value_type: ValueType) -> GlobalType {
        GlobalType {
            value_type,
            mutable: true,
        }
    }
}

impl fmt::Display for GlobalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mutable {
            write!(f, "(mut {})", self.value_type)
        } else {
            write!(f, "{}", self.value_type)
        }
    }
}

/// The type of a table: element type plus limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableType {
    /// The element type; must be a reference type.
    pub element: ValueType,
    /// Table size limits, in elements.
    pub limits: Limits,
}

/// The type of a linear memory: limits in 64 KiB pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryType {
    /// Memory size limits, in pages.
    pub limits: Limits,
}

/// WebAssembly page size in bytes.
pub const PAGE_SIZE: u32 = 65536;

/// Maximum number of pages addressable by a 32-bit memory.
pub const MAX_PAGES: u32 = 65536;

/// Maximum number of elements a table may declare as its minimum (the web
/// embedding's limit): the minimum is allocated at instantiation.
pub const MAX_TABLE_ELEMENTS: u32 = 10_000_000;

/// Maximum number of locals a function may have, its parameters included
/// (the web embedding's limit). Every compiler keeps per-local state.
pub const MAX_FUNCTION_LOCALS: u32 = 50_000;

/// Maximum size of a function body in bytes, its local declarations
/// included (the web embedding's limit).
pub const MAX_FUNCTION_SIZE: u32 = 7_654_321;

/// Maximum number of functions a module may define (the web embedding's
/// limit).
pub const MAX_FUNCTIONS: u32 = 1_000_000;

/// The type of a structured control construct (`block`, `loop`, `if`).
///
/// `Empty` and `Value` are the classic MVP encodings; `Func` refers to a
/// signature in the type section and enables multi-value blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockType {
    /// `[] -> []`
    Empty,
    /// `[] -> [t]`
    Value(ValueType),
    /// A full signature by type-section index: `params -> results`.
    Func(u32),
}

impl BlockType {
    /// Resolves this block type against a type section into (params, results).
    ///
    /// Returns `None` when `Func(i)` is out of bounds.
    pub fn resolve(
        &self,
        types: &[FuncType],
    ) -> Option<(Vec<ValueType>, Vec<ValueType>)> {
        match *self {
            BlockType::Empty => Some((Vec::new(), Vec::new())),
            BlockType::Value(t) => Some((Vec::new(), vec![t])),
            BlockType::Func(i) => {
                let ft = types.get(i as usize)?;
                Some((ft.params.clone(), ft.results.clone()))
            }
        }
    }
}

impl fmt::Display for BlockType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockType::Empty => write!(f, "[]"),
            BlockType::Value(t) => write!(f, "[{t}]"),
            BlockType::Func(i) => write!(f, "type[{i}]"),
        }
    }
}

/// Kinds of importable/exportable entities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExternalKind {
    /// A function.
    Func,
    /// A table.
    Table,
    /// A linear memory.
    Memory,
    /// A global variable.
    Global,
}

impl ExternalKind {
    /// Binary-format byte.
    pub fn to_byte(self) -> u8 {
        match self {
            ExternalKind::Func => 0x00,
            ExternalKind::Table => 0x01,
            ExternalKind::Memory => 0x02,
            ExternalKind::Global => 0x03,
        }
    }

    /// Decodes from a binary-format byte.
    pub fn from_byte(b: u8) -> Option<ExternalKind> {
        match b {
            0x00 => Some(ExternalKind::Func),
            0x01 => Some(ExternalKind::Table),
            0x02 => Some(ExternalKind::Memory),
            0x03 => Some(ExternalKind::Global),
            _ => None,
        }
    }
}

impl fmt::Display for ExternalKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExternalKind::Func => "func",
            ExternalKind::Table => "table",
            ExternalKind::Memory => "memory",
            ExternalKind::Global => "global",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_type_byte_roundtrip() {
        for vt in ValueType::ALL {
            assert_eq!(ValueType::from_byte(vt.to_byte()), Some(vt));
        }
        assert_eq!(ValueType::from_byte(0x00), None);
        assert_eq!(ValueType::from_byte(0x7B), None);
    }

    #[test]
    fn value_type_classification() {
        assert!(ValueType::ExternRef.is_reference());
        assert!(ValueType::FuncRef.is_reference());
        assert!(ValueType::F32.is_float());
        assert!(!ValueType::I64.is_float());
    }

    #[test]
    fn func_type_display_and_counts() {
        let ft = FuncType::new(
            vec![ValueType::I32, ValueType::F64],
            vec![ValueType::I64],
        );
        assert_eq!(ft.param_count(), 2);
        assert_eq!(ft.to_string(), "[i32 f64] -> [i64]");
    }

    #[test]
    fn limits_well_formed() {
        assert!(Limits::at_least(1).is_well_formed());
        assert!(Limits::bounded(1, 2).is_well_formed());
        assert!(Limits::bounded(2, 2).is_well_formed());
        assert!(!Limits::bounded(3, 2).is_well_formed());
    }

    #[test]
    fn block_type_resolution() {
        let types = vec![FuncType::new(
            vec![ValueType::I32],
            vec![ValueType::I32, ValueType::I32],
        )];
        assert_eq!(
            BlockType::Empty.resolve(&types),
            Some((vec![], vec![]))
        );
        assert_eq!(
            BlockType::Value(ValueType::F32).resolve(&types),
            Some((vec![], vec![ValueType::F32]))
        );
        assert_eq!(
            BlockType::Func(0).resolve(&types),
            Some((vec![ValueType::I32], vec![ValueType::I32, ValueType::I32]))
        );
        assert_eq!(BlockType::Func(1).resolve(&types), None);
    }

    #[test]
    fn external_kind_roundtrip() {
        for k in [
            ExternalKind::Func,
            ExternalKind::Table,
            ExternalKind::Memory,
            ExternalKind::Global,
        ] {
            assert_eq!(ExternalKind::from_byte(k.to_byte()), Some(k));
        }
        assert_eq!(ExternalKind::from_byte(9), None);
    }

    #[test]
    fn global_type_constructors() {
        let g = GlobalType::mutable(ValueType::I64);
        assert!(g.mutable);
        assert_eq!(g.value_type, ValueType::I64);
        let g = GlobalType::immutable(ValueType::F32);
        assert!(!g.mutable);
        assert_eq!(g.to_string(), "f32");
        assert_eq!(GlobalType::mutable(ValueType::I32).to_string(), "(mut i32)");
    }
}
