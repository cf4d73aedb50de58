//! The WebAssembly opcode set used throughout the engine.
//!
//! Opcodes are represented by their single-byte binary encodings, which lets
//! the in-place interpreter and the single-pass compiler both dispatch
//! directly on the raw bytecode without a rewriting step.

use crate::types::ValueType;
use std::fmt;

/// The kind of immediate operands that follow an opcode in the bytecode.
///
/// Knowing the immediate shape is enough to skip over an instruction, which
/// both the validator's and single-pass compiler's bytecode iterators rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ImmediateKind {
    /// No immediates.
    None,
    /// A block type (for `block`, `loop`, `if`).
    BlockType,
    /// A single label index (`br`, `br_if`).
    LabelIndex,
    /// A vector of label indices plus a default (`br_table`).
    BranchTable,
    /// A function index (`call`, `ref.func`).
    FuncIndex,
    /// A type index and a table index (`call_indirect`).
    CallIndirect,
    /// A local variable index.
    LocalIndex,
    /// A global variable index.
    GlobalIndex,
    /// A memory argument: alignment and offset.
    MemArg,
    /// A single reserved byte (`memory.size`, `memory.grow`).
    MemoryIndex,
    /// A signed 32-bit LEB constant.
    I32Const,
    /// A signed 64-bit LEB constant.
    I64Const,
    /// A little-endian 4-byte float constant.
    F32Const,
    /// A little-endian 8-byte float constant.
    F64Const,
    /// A reference type byte (`ref.null`).
    RefType,
    /// A `select` with explicit result types.
    SelectTyped,
}

macro_rules! opcodes {
    ($( $name:ident = $byte:expr, $mnemonic:expr, $imm:ident ; )*) => {
        /// A single-byte WebAssembly opcode.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Opcode {
            $(
                #[doc = $mnemonic]
                $name = $byte,
            )*
        }

        impl Opcode {
            /// All opcodes known to this engine.
            pub const ALL: &'static [Opcode] = &[ $(Opcode::$name,)* ];

            /// Decodes an opcode from its binary byte.
            #[inline]
            pub fn from_byte(b: u8) -> Option<Opcode> {
                match b {
                    $( $byte => Some(Opcode::$name), )*
                    _ => None,
                }
            }

            /// The binary-format byte for this opcode.
            pub fn to_byte(self) -> u8 {
                self as u8
            }

            /// The textual mnemonic (e.g. `"i32.add"`).
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $( Opcode::$name => $mnemonic, )*
                }
            }

            /// The shape of this opcode's immediate operands.
            #[inline]
            pub fn immediate_kind(self) -> ImmediateKind {
                match self {
                    $( Opcode::$name => ImmediateKind::$imm, )*
                }
            }
        }
    };
}

opcodes! {
    // Control instructions.
    Unreachable = 0x00, "unreachable", None;
    Nop = 0x01, "nop", None;
    Block = 0x02, "block", BlockType;
    Loop = 0x03, "loop", BlockType;
    If = 0x04, "if", BlockType;
    Else = 0x05, "else", None;
    End = 0x0B, "end", None;
    Br = 0x0C, "br", LabelIndex;
    BrIf = 0x0D, "br_if", LabelIndex;
    BrTable = 0x0E, "br_table", BranchTable;
    Return = 0x0F, "return", None;
    Call = 0x10, "call", FuncIndex;
    CallIndirect = 0x11, "call_indirect", CallIndirect;

    // Parametric instructions.
    Drop = 0x1A, "drop", None;
    Select = 0x1B, "select", None;
    SelectT = 0x1C, "select_t", SelectTyped;

    // Variable instructions.
    LocalGet = 0x20, "local.get", LocalIndex;
    LocalSet = 0x21, "local.set", LocalIndex;
    LocalTee = 0x22, "local.tee", LocalIndex;
    GlobalGet = 0x23, "global.get", GlobalIndex;
    GlobalSet = 0x24, "global.set", GlobalIndex;

    // Memory instructions.
    I32Load = 0x28, "i32.load", MemArg;
    I64Load = 0x29, "i64.load", MemArg;
    F32Load = 0x2A, "f32.load", MemArg;
    F64Load = 0x2B, "f64.load", MemArg;
    I32Load8S = 0x2C, "i32.load8_s", MemArg;
    I32Load8U = 0x2D, "i32.load8_u", MemArg;
    I32Load16S = 0x2E, "i32.load16_s", MemArg;
    I32Load16U = 0x2F, "i32.load16_u", MemArg;
    I64Load8S = 0x30, "i64.load8_s", MemArg;
    I64Load8U = 0x31, "i64.load8_u", MemArg;
    I64Load16S = 0x32, "i64.load16_s", MemArg;
    I64Load16U = 0x33, "i64.load16_u", MemArg;
    I64Load32S = 0x34, "i64.load32_s", MemArg;
    I64Load32U = 0x35, "i64.load32_u", MemArg;
    I32Store = 0x36, "i32.store", MemArg;
    I64Store = 0x37, "i64.store", MemArg;
    F32Store = 0x38, "f32.store", MemArg;
    F64Store = 0x39, "f64.store", MemArg;
    I32Store8 = 0x3A, "i32.store8", MemArg;
    I32Store16 = 0x3B, "i32.store16", MemArg;
    I64Store8 = 0x3C, "i64.store8", MemArg;
    I64Store16 = 0x3D, "i64.store16", MemArg;
    I64Store32 = 0x3E, "i64.store32", MemArg;
    MemorySize = 0x3F, "memory.size", MemoryIndex;
    MemoryGrow = 0x40, "memory.grow", MemoryIndex;

    // Constants.
    I32Const = 0x41, "i32.const", I32Const;
    I64Const = 0x42, "i64.const", I64Const;
    F32Const = 0x43, "f32.const", F32Const;
    F64Const = 0x44, "f64.const", F64Const;

    // i32 comparisons.
    I32Eqz = 0x45, "i32.eqz", None;
    I32Eq = 0x46, "i32.eq", None;
    I32Ne = 0x47, "i32.ne", None;
    I32LtS = 0x48, "i32.lt_s", None;
    I32LtU = 0x49, "i32.lt_u", None;
    I32GtS = 0x4A, "i32.gt_s", None;
    I32GtU = 0x4B, "i32.gt_u", None;
    I32LeS = 0x4C, "i32.le_s", None;
    I32LeU = 0x4D, "i32.le_u", None;
    I32GeS = 0x4E, "i32.ge_s", None;
    I32GeU = 0x4F, "i32.ge_u", None;

    // i64 comparisons.
    I64Eqz = 0x50, "i64.eqz", None;
    I64Eq = 0x51, "i64.eq", None;
    I64Ne = 0x52, "i64.ne", None;
    I64LtS = 0x53, "i64.lt_s", None;
    I64LtU = 0x54, "i64.lt_u", None;
    I64GtS = 0x55, "i64.gt_s", None;
    I64GtU = 0x56, "i64.gt_u", None;
    I64LeS = 0x57, "i64.le_s", None;
    I64LeU = 0x58, "i64.le_u", None;
    I64GeS = 0x59, "i64.ge_s", None;
    I64GeU = 0x5A, "i64.ge_u", None;

    // f32 comparisons.
    F32Eq = 0x5B, "f32.eq", None;
    F32Ne = 0x5C, "f32.ne", None;
    F32Lt = 0x5D, "f32.lt", None;
    F32Gt = 0x5E, "f32.gt", None;
    F32Le = 0x5F, "f32.le", None;
    F32Ge = 0x60, "f32.ge", None;

    // f64 comparisons.
    F64Eq = 0x61, "f64.eq", None;
    F64Ne = 0x62, "f64.ne", None;
    F64Lt = 0x63, "f64.lt", None;
    F64Gt = 0x64, "f64.gt", None;
    F64Le = 0x65, "f64.le", None;
    F64Ge = 0x66, "f64.ge", None;

    // i32 arithmetic.
    I32Clz = 0x67, "i32.clz", None;
    I32Ctz = 0x68, "i32.ctz", None;
    I32Popcnt = 0x69, "i32.popcnt", None;
    I32Add = 0x6A, "i32.add", None;
    I32Sub = 0x6B, "i32.sub", None;
    I32Mul = 0x6C, "i32.mul", None;
    I32DivS = 0x6D, "i32.div_s", None;
    I32DivU = 0x6E, "i32.div_u", None;
    I32RemS = 0x6F, "i32.rem_s", None;
    I32RemU = 0x70, "i32.rem_u", None;
    I32And = 0x71, "i32.and", None;
    I32Or = 0x72, "i32.or", None;
    I32Xor = 0x73, "i32.xor", None;
    I32Shl = 0x74, "i32.shl", None;
    I32ShrS = 0x75, "i32.shr_s", None;
    I32ShrU = 0x76, "i32.shr_u", None;
    I32Rotl = 0x77, "i32.rotl", None;
    I32Rotr = 0x78, "i32.rotr", None;

    // i64 arithmetic.
    I64Clz = 0x79, "i64.clz", None;
    I64Ctz = 0x7A, "i64.ctz", None;
    I64Popcnt = 0x7B, "i64.popcnt", None;
    I64Add = 0x7C, "i64.add", None;
    I64Sub = 0x7D, "i64.sub", None;
    I64Mul = 0x7E, "i64.mul", None;
    I64DivS = 0x7F, "i64.div_s", None;
    I64DivU = 0x80, "i64.div_u", None;
    I64RemS = 0x81, "i64.rem_s", None;
    I64RemU = 0x82, "i64.rem_u", None;
    I64And = 0x83, "i64.and", None;
    I64Or = 0x84, "i64.or", None;
    I64Xor = 0x85, "i64.xor", None;
    I64Shl = 0x86, "i64.shl", None;
    I64ShrS = 0x87, "i64.shr_s", None;
    I64ShrU = 0x88, "i64.shr_u", None;
    I64Rotl = 0x89, "i64.rotl", None;
    I64Rotr = 0x8A, "i64.rotr", None;

    // f32 arithmetic.
    F32Abs = 0x8B, "f32.abs", None;
    F32Neg = 0x8C, "f32.neg", None;
    F32Ceil = 0x8D, "f32.ceil", None;
    F32Floor = 0x8E, "f32.floor", None;
    F32Trunc = 0x8F, "f32.trunc", None;
    F32Nearest = 0x90, "f32.nearest", None;
    F32Sqrt = 0x91, "f32.sqrt", None;
    F32Add = 0x92, "f32.add", None;
    F32Sub = 0x93, "f32.sub", None;
    F32Mul = 0x94, "f32.mul", None;
    F32Div = 0x95, "f32.div", None;
    F32Min = 0x96, "f32.min", None;
    F32Max = 0x97, "f32.max", None;
    F32Copysign = 0x98, "f32.copysign", None;

    // f64 arithmetic.
    F64Abs = 0x99, "f64.abs", None;
    F64Neg = 0x9A, "f64.neg", None;
    F64Ceil = 0x9B, "f64.ceil", None;
    F64Floor = 0x9C, "f64.floor", None;
    F64Trunc = 0x9D, "f64.trunc", None;
    F64Nearest = 0x9E, "f64.nearest", None;
    F64Sqrt = 0x9F, "f64.sqrt", None;
    F64Add = 0xA0, "f64.add", None;
    F64Sub = 0xA1, "f64.sub", None;
    F64Mul = 0xA2, "f64.mul", None;
    F64Div = 0xA3, "f64.div", None;
    F64Min = 0xA4, "f64.min", None;
    F64Max = 0xA5, "f64.max", None;
    F64Copysign = 0xA6, "f64.copysign", None;

    // Conversions.
    I32WrapI64 = 0xA7, "i32.wrap_i64", None;
    I32TruncF32S = 0xA8, "i32.trunc_f32_s", None;
    I32TruncF32U = 0xA9, "i32.trunc_f32_u", None;
    I32TruncF64S = 0xAA, "i32.trunc_f64_s", None;
    I32TruncF64U = 0xAB, "i32.trunc_f64_u", None;
    I64ExtendI32S = 0xAC, "i64.extend_i32_s", None;
    I64ExtendI32U = 0xAD, "i64.extend_i32_u", None;
    I64TruncF32S = 0xAE, "i64.trunc_f32_s", None;
    I64TruncF32U = 0xAF, "i64.trunc_f32_u", None;
    I64TruncF64S = 0xB0, "i64.trunc_f64_s", None;
    I64TruncF64U = 0xB1, "i64.trunc_f64_u", None;
    F32ConvertI32S = 0xB2, "f32.convert_i32_s", None;
    F32ConvertI32U = 0xB3, "f32.convert_i32_u", None;
    F32ConvertI64S = 0xB4, "f32.convert_i64_s", None;
    F32ConvertI64U = 0xB5, "f32.convert_i64_u", None;
    F32DemoteF64 = 0xB6, "f32.demote_f64", None;
    F64ConvertI32S = 0xB7, "f64.convert_i32_s", None;
    F64ConvertI32U = 0xB8, "f64.convert_i32_u", None;
    F64ConvertI64S = 0xB9, "f64.convert_i64_s", None;
    F64ConvertI64U = 0xBA, "f64.convert_i64_u", None;
    F64PromoteF32 = 0xBB, "f64.promote_f32", None;
    I32ReinterpretF32 = 0xBC, "i32.reinterpret_f32", None;
    I64ReinterpretF64 = 0xBD, "i64.reinterpret_f64", None;
    F32ReinterpretI32 = 0xBE, "f32.reinterpret_i32", None;
    F64ReinterpretI64 = 0xBF, "f64.reinterpret_i64", None;

    // Sign extension.
    I32Extend8S = 0xC0, "i32.extend8_s", None;
    I32Extend16S = 0xC1, "i32.extend16_s", None;
    I64Extend8S = 0xC2, "i64.extend8_s", None;
    I64Extend16S = 0xC3, "i64.extend16_s", None;
    I64Extend32S = 0xC4, "i64.extend32_s", None;

    // Reference instructions.
    RefNull = 0xD0, "ref.null", RefType;
    RefIsNull = 0xD1, "ref.is_null", None;
    RefFunc = 0xD2, "ref.func", FuncIndex;
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Signature category of a simple (non-control, non-memory-index) opcode,
/// used by the validator, interpreter, and compilers to share per-opcode
/// operand/result typing without three separate tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpSignature {
    /// No simple signature (control flow, calls, locals, etc.).
    Special,
    /// `[] -> [t]`
    Const(ValueType),
    /// `[a] -> [r]`
    Unary(ValueType, ValueType),
    /// `[a a] -> [r]`
    Binary(ValueType, ValueType),
    /// `[a] -> [r]` memory load (address is i32).
    Load(ValueType),
    /// `[i32 a] -> []` memory store.
    Store(ValueType),
}

impl Opcode {
    /// Returns true for structured control opcodes that open a construct.
    pub fn opens_block(self) -> bool {
        matches!(self, Opcode::Block | Opcode::Loop | Opcode::If)
    }

    /// Returns true for instructions that can trap at runtime.
    pub fn can_trap(self) -> bool {
        matches!(
            self,
            Opcode::Unreachable
                | Opcode::I32DivS
                | Opcode::I32DivU
                | Opcode::I32RemS
                | Opcode::I32RemU
                | Opcode::I64DivS
                | Opcode::I64DivU
                | Opcode::I64RemS
                | Opcode::I64RemU
                | Opcode::I32TruncF32S
                | Opcode::I32TruncF32U
                | Opcode::I32TruncF64S
                | Opcode::I32TruncF64U
                | Opcode::I64TruncF32S
                | Opcode::I64TruncF32U
                | Opcode::I64TruncF64S
                | Opcode::I64TruncF64U
                | Opcode::CallIndirect
                | Opcode::MemoryGrow
        ) || self.is_memory_access()
    }

    /// Returns true for loads and stores.
    pub fn is_memory_access(self) -> bool {
        let b = self.to_byte();
        (0x28..=0x3E).contains(&b)
    }

    /// Returns true for call instructions.
    pub fn is_call(self) -> bool {
        matches!(self, Opcode::Call | Opcode::CallIndirect)
    }

    /// Returns the simple operand/result signature of this opcode, or
    /// `OpSignature::Special` for opcodes whose typing depends on context.
    pub fn signature(self) -> OpSignature {
        use OpSignature::*;
        use ValueType::*;
        let b = self.to_byte();
        match self {
            Opcode::I32Const => Const(I32),
            Opcode::I64Const => Const(I64),
            Opcode::F32Const => Const(F32),
            Opcode::F64Const => Const(F64),

            Opcode::I32Eqz => Unary(I32, I32),
            Opcode::I64Eqz => Unary(I64, I32),
            Opcode::RefIsNull => Unary(ExternRef, I32),

            // i32 compares: [i32 i32] -> [i32]
            _ if (0x46..=0x4F).contains(&b) => Binary(I32, I32),
            // i64 compares: [i64 i64] -> [i32]
            _ if (0x51..=0x5A).contains(&b) => Binary(I64, I32),
            // f32 compares.
            _ if (0x5B..=0x60).contains(&b) => Binary(F32, I32),
            // f64 compares.
            _ if (0x61..=0x66).contains(&b) => Binary(F64, I32),

            Opcode::I32Clz | Opcode::I32Ctz | Opcode::I32Popcnt => Unary(I32, I32),
            // i32 binary arithmetic.
            _ if (0x6A..=0x78).contains(&b) => Binary(I32, I32),
            Opcode::I64Clz | Opcode::I64Ctz | Opcode::I64Popcnt => Unary(I64, I64),
            // i64 binary arithmetic.
            _ if (0x7C..=0x8A).contains(&b) => Binary(I64, I64),
            // f32 unary.
            _ if (0x8B..=0x91).contains(&b) => Unary(F32, F32),
            // f32 binary.
            _ if (0x92..=0x98).contains(&b) => Binary(F32, F32),
            // f64 unary.
            _ if (0x99..=0x9F).contains(&b) => Unary(F64, F64),
            // f64 binary.
            _ if (0xA0..=0xA6).contains(&b) => Binary(F64, F64),

            Opcode::I32WrapI64 => Unary(I64, I32),
            Opcode::I32TruncF32S | Opcode::I32TruncF32U => Unary(F32, I32),
            Opcode::I32TruncF64S | Opcode::I32TruncF64U => Unary(F64, I32),
            Opcode::I64ExtendI32S | Opcode::I64ExtendI32U => Unary(I32, I64),
            Opcode::I64TruncF32S | Opcode::I64TruncF32U => Unary(F32, I64),
            Opcode::I64TruncF64S | Opcode::I64TruncF64U => Unary(F64, I64),
            Opcode::F32ConvertI32S | Opcode::F32ConvertI32U => Unary(I32, F32),
            Opcode::F32ConvertI64S | Opcode::F32ConvertI64U => Unary(I64, F32),
            Opcode::F32DemoteF64 => Unary(F64, F32),
            Opcode::F64ConvertI32S | Opcode::F64ConvertI32U => Unary(I32, F64),
            Opcode::F64ConvertI64S | Opcode::F64ConvertI64U => Unary(I64, F64),
            Opcode::F64PromoteF32 => Unary(F32, F64),
            Opcode::I32ReinterpretF32 => Unary(F32, I32),
            Opcode::I64ReinterpretF64 => Unary(F64, I64),
            Opcode::F32ReinterpretI32 => Unary(I32, F32),
            Opcode::F64ReinterpretI64 => Unary(I64, F64),

            Opcode::I32Extend8S | Opcode::I32Extend16S => Unary(I32, I32),
            Opcode::I64Extend8S | Opcode::I64Extend16S | Opcode::I64Extend32S => {
                Unary(I64, I64)
            }

            Opcode::I32Load
            | Opcode::I32Load8S
            | Opcode::I32Load8U
            | Opcode::I32Load16S
            | Opcode::I32Load16U => Load(I32),
            Opcode::I64Load
            | Opcode::I64Load8S
            | Opcode::I64Load8U
            | Opcode::I64Load16S
            | Opcode::I64Load16U
            | Opcode::I64Load32S
            | Opcode::I64Load32U => Load(I64),
            Opcode::F32Load => Load(F32),
            Opcode::F64Load => Load(F64),

            Opcode::I32Store | Opcode::I32Store8 | Opcode::I32Store16 => Store(I32),
            Opcode::I64Store
            | Opcode::I64Store8
            | Opcode::I64Store16
            | Opcode::I64Store32 => Store(I64),
            Opcode::F32Store => Store(F32),
            Opcode::F64Store => Store(F64),

            _ => Special,
        }
    }

    /// The number of bytes read/written by a memory access opcode, or `None`
    /// for non-memory opcodes.
    pub fn access_width(self) -> Option<u32> {
        Some(match self {
            Opcode::I32Load8S
            | Opcode::I32Load8U
            | Opcode::I64Load8S
            | Opcode::I64Load8U
            | Opcode::I32Store8
            | Opcode::I64Store8 => 1,
            Opcode::I32Load16S
            | Opcode::I32Load16U
            | Opcode::I64Load16S
            | Opcode::I64Load16U
            | Opcode::I32Store16
            | Opcode::I64Store16 => 2,
            Opcode::I32Load
            | Opcode::F32Load
            | Opcode::I64Load32S
            | Opcode::I64Load32U
            | Opcode::I32Store
            | Opcode::F32Store
            | Opcode::I64Store32 => 4,
            Opcode::I64Load | Opcode::F64Load | Opcode::I64Store | Opcode::F64Store => 8,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip_all() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_byte(op.to_byte()), Some(op), "{op}");
        }
    }

    #[test]
    fn unknown_bytes_rejected() {
        // Gaps in the opcode space must not decode.
        for b in [0x06u8, 0x07, 0x12, 0x1D, 0x25, 0x27, 0xC5, 0xD3, 0xFF] {
            assert_eq!(Opcode::from_byte(b), None, "byte {b:#x}");
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::ALL {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {}", op.mnemonic());
        }
    }

    #[test]
    fn signatures_of_representative_opcodes() {
        use OpSignature::*;
        use ValueType::*;
        assert_eq!(Opcode::I32Add.signature(), Binary(I32, I32));
        assert_eq!(Opcode::I64LtU.signature(), Binary(I64, I32));
        assert_eq!(Opcode::F64Sqrt.signature(), Unary(F64, F64));
        assert_eq!(Opcode::F32Ge.signature(), Binary(F32, I32));
        assert_eq!(Opcode::I32Const.signature(), Const(I32));
        assert_eq!(Opcode::I64Load16U.signature(), Load(I64));
        assert_eq!(Opcode::F64Store.signature(), Store(F64));
        assert_eq!(Opcode::I32WrapI64.signature(), Unary(I64, I32));
        assert_eq!(Opcode::Call.signature(), Special);
        assert_eq!(Opcode::Block.signature(), Special);
        assert_eq!(Opcode::LocalGet.signature(), Special);
    }

    #[test]
    fn classification_helpers() {
        assert!(Opcode::Block.opens_block());
        assert!(Opcode::Loop.opens_block());
        assert!(Opcode::If.opens_block());
        assert!(!Opcode::End.opens_block());

        assert!(Opcode::I32DivS.can_trap());
        assert!(Opcode::I64Load.can_trap());
        assert!(!Opcode::I32Add.can_trap());

        assert!(Opcode::I32Load8U.is_memory_access());
        assert!(Opcode::F64Store.is_memory_access());
        assert!(!Opcode::MemorySize.is_memory_access());

        assert!(Opcode::Call.is_call());
        assert!(Opcode::CallIndirect.is_call());
        assert!(!Opcode::Br.is_call());
    }

    #[test]
    fn access_widths() {
        assert_eq!(Opcode::I32Load8U.access_width(), Some(1));
        assert_eq!(Opcode::I64Store16.access_width(), Some(2));
        assert_eq!(Opcode::I32Load.access_width(), Some(4));
        assert_eq!(Opcode::F64Load.access_width(), Some(8));
        assert_eq!(Opcode::I64Load32S.access_width(), Some(4));
        assert_eq!(Opcode::I32Add.access_width(), None);
    }

    #[test]
    fn immediate_kinds() {
        assert_eq!(Opcode::Block.immediate_kind(), ImmediateKind::BlockType);
        assert_eq!(Opcode::Br.immediate_kind(), ImmediateKind::LabelIndex);
        assert_eq!(Opcode::BrTable.immediate_kind(), ImmediateKind::BranchTable);
        assert_eq!(Opcode::Call.immediate_kind(), ImmediateKind::FuncIndex);
        assert_eq!(
            Opcode::CallIndirect.immediate_kind(),
            ImmediateKind::CallIndirect
        );
        assert_eq!(Opcode::LocalGet.immediate_kind(), ImmediateKind::LocalIndex);
        assert_eq!(Opcode::I32Load.immediate_kind(), ImmediateKind::MemArg);
        assert_eq!(Opcode::I32Const.immediate_kind(), ImmediateKind::I32Const);
        assert_eq!(Opcode::F64Const.immediate_kind(), ImmediateKind::F64Const);
        assert_eq!(Opcode::RefNull.immediate_kind(), ImmediateKind::RefType);
        assert_eq!(Opcode::I32Add.immediate_kind(), ImmediateKind::None);
    }
}
