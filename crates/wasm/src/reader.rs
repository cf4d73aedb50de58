//! Byte and bytecode readers.
//!
//! [`ByteReader`] is a cursor over raw bytes used by the module decoder.
//! [`BytecodeReader`] layers instruction-aware reads on top of it, two ways.
//!
//! As an [`Iterator`] it is the one instruction decoder: `next` yields an
//! [`Instr`] — offset, opcode, immediates as an [`Imm`], end offset — and the
//! validator, both compilers, the fuel plan, the WAT printer and every scan
//! for particular opcodes match on that, so the table of immediate shapes
//! exists once and each walker handles one [`ReadError`] per instruction.
//! Decoding allocates nothing: a `br_table`'s targets ([`BrTable`]) and a
//! typed `select`'s types ([`SelectTypes`]) are views over the body, checked
//! to their end by `next` so that iterating them cannot fail. Everything
//! decidable from the bytes alone is an error here (unknown opcode, bad LEB,
//! bad type byte, truncation, a non-zero reserved byte); everything that
//! needs the module is the validator's.
//!
//! The primitive reads (`read_opcode`, `read_index`, `read_memarg`, …) are
//! for the in-place interpreter, which decodes at the point of use: it
//! dispatches on the opcode byte and reads only the immediates the outcome
//! needs.

use crate::leb::{self, LebError};
use crate::opcode::{ImmediateKind, Opcode};
use crate::types::{BlockType, ValueType};
use std::fmt;

/// Errors produced while reading bytes or bytecode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The input ended unexpectedly.
    UnexpectedEnd {
        /// Offset at which more bytes were needed.
        offset: usize,
    },
    /// A LEB128 value was malformed.
    BadLeb {
        /// Offset of the value.
        offset: usize,
        /// The underlying LEB error.
        error: LebError,
    },
    /// An unknown opcode byte was encountered.
    UnknownOpcode {
        /// Offset of the opcode byte.
        offset: usize,
        /// The offending byte.
        byte: u8,
    },
    /// An invalid value type or block type byte was encountered.
    BadType {
        /// Offset of the type byte.
        offset: usize,
        /// The offending byte.
        byte: u8,
    },
    /// The reserved byte of `memory.size` / `memory.grow` was not zero.
    ReservedByte {
        /// Offset of the byte.
        offset: usize,
        /// The offending byte.
        byte: u8,
    },
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::UnexpectedEnd { offset } => {
                write!(f, "unexpected end of input at offset {offset}")
            }
            ReadError::BadLeb { offset, error } => {
                write!(f, "malformed LEB128 at offset {offset}: {error}")
            }
            ReadError::UnknownOpcode { offset, byte } => {
                write!(f, "unknown opcode {byte:#04x} at offset {offset}")
            }
            ReadError::BadType { offset, byte } => {
                write!(f, "invalid type byte {byte:#04x} at offset {offset}")
            }
            ReadError::ReservedByte { offset, byte } => {
                write!(f, "zero byte expected at offset {offset}, found {byte:#04x}")
            }
        }
    }
}

impl std::error::Error for ReadError {}

/// A memory access immediate: alignment exponent and byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemArg {
    /// log2 of the access alignment hint.
    pub align: u32,
    /// Constant byte offset added to the dynamic address.
    pub offset: u32,
}

/// A cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a reader over `data` starting at offset zero.
    pub fn new(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data, pos: 0 }
    }

    /// Current offset.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Sets the current offset.
    #[inline]
    fn set_pos(&mut self, pos: usize) {
        self.pos = pos;
    }

    /// The underlying data.
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// Remaining bytes from the current position.
    fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// True when all bytes have been consumed.
    #[inline]
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, ReadError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or(ReadError::UnexpectedEnd { offset: self.pos })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` bytes as a slice.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], ReadError> {
        if self.remaining() < n {
            return Err(ReadError::UnexpectedEnd { offset: self.pos });
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a 32-bit little-endian value.
    pub fn read_u32_le(&mut self) -> Result<u32, ReadError> {
        let bytes = self.read_bytes(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads a 64-bit little-endian value.
    pub fn read_u64_le(&mut self) -> Result<u64, ReadError> {
        let bytes = self.read_bytes(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads an unsigned LEB128 value with at most 32 bits.
    ///
    /// Most immediates are one byte long, so that case is decided here, in
    /// the caller's frame; anything longer (or truncated) takes the general
    /// checked loop, which also produces every error.
    #[inline]
    pub fn read_u32_leb(&mut self) -> Result<u32, ReadError> {
        match self.data.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(byte as u32)
            }
            _ => self.read_unsigned_leb(32).map(|v| v as u32),
        }
    }

    /// Reads a signed LEB128 value with at most 32 bits (one-byte fast path
    /// as in [`ByteReader::read_u32_leb`]).
    #[inline]
    pub fn read_i32_leb(&mut self) -> Result<i32, ReadError> {
        match self.data.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(sign_extend_7(byte) as i32)
            }
            _ => self.read_signed_leb(32).map(|v| v as i32),
        }
    }

    /// Reads a signed LEB128 value with at most 64 bits (one-byte fast path
    /// as in [`ByteReader::read_u32_leb`]).
    #[inline]
    pub fn read_i64_leb(&mut self) -> Result<i64, ReadError> {
        match self.data.get(self.pos) {
            Some(&byte) if byte < 0x80 => {
                self.pos += 1;
                Ok(sign_extend_7(byte))
            }
            _ => self.read_signed_leb(64),
        }
    }

    fn read_unsigned_leb(&mut self, bits: u32) -> Result<u64, ReadError> {
        let (v, n) = leb::read_unsigned(self.data, self.pos, bits)
            .map_err(|error| map_leb_error(error, self.data, self.pos))?;
        self.pos += n;
        Ok(v)
    }

    fn read_signed_leb(&mut self, bits: u32) -> Result<i64, ReadError> {
        let (v, n) = leb::read_signed(self.data, self.pos, bits)
            .map_err(|error| map_leb_error(error, self.data, self.pos))?;
        self.pos += n;
        Ok(v)
    }

    /// Reads a UTF-8 name prefixed by its length.
    pub fn read_name(&mut self) -> Result<String, ReadError> {
        let len = self.read_u32_leb()? as usize;
        let offset = self.pos;
        let bytes = self.read_bytes(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ReadError::BadType { offset, byte: 0 })
    }

    /// Reads a value type byte.
    pub fn read_value_type(&mut self) -> Result<ValueType, ReadError> {
        let offset = self.pos;
        let b = self.read_u8()?;
        ValueType::from_byte(b).ok_or(ReadError::BadType { offset, byte: b })
    }
}

/// The value of a one-byte signed LEB128 encoding: bit 6 is the sign.
#[inline]
fn sign_extend_7(byte: u8) -> i64 {
    ((byte << 1) as i8 >> 1) as i64
}

fn map_leb_error(error: LebError, data: &[u8], offset: usize) -> ReadError {
    match error {
        LebError::Truncated => ReadError::UnexpectedEnd {
            offset: data.len(),
        },
        other => ReadError::BadLeb {
            offset,
            error: other,
        },
    }
}

/// An instruction-aware reader over a function body's code bytes.
///
/// Offsets reported by this reader are *bytecode offsets* relative to the
/// start of the code (after local declarations), which is exactly the program
/// counter notion the paper's instrumentation and tier transfer use.
#[derive(Debug, Clone)]
pub struct BytecodeReader<'a> {
    inner: ByteReader<'a>,
}

impl<'a> BytecodeReader<'a> {
    /// Creates a bytecode reader over `code`.
    pub fn new(code: &'a [u8]) -> BytecodeReader<'a> {
        BytecodeReader {
            inner: ByteReader::new(code),
        }
    }

    /// The current bytecode offset.
    #[inline]
    pub fn pc(&self) -> usize {
        self.inner.pos()
    }

    /// Repositions the reader.
    #[inline]
    pub fn set_pc(&mut self, pc: usize) {
        self.inner.set_pos(pc);
    }

    /// True when the whole body has been read.
    #[inline]
    pub fn is_at_end(&self) -> bool {
        self.inner.is_at_end()
    }

    /// The underlying code bytes.
    pub fn code(&self) -> &'a [u8] {
        self.inner.data()
    }

    /// Reads the next opcode byte.
    #[inline]
    fn read_opcode(&mut self) -> Result<Opcode, ReadError> {
        let offset = self.inner.pos();
        let b = self.inner.read_u8()?;
        Opcode::from_byte(b).ok_or(ReadError::UnknownOpcode { offset, byte: b })
    }

    /// Reads an unsigned 32-bit LEB index immediate.
    #[inline]
    pub fn read_index(&mut self) -> Result<u32, ReadError> {
        self.inner.read_u32_leb()
    }

    /// Reads an `i32.const` immediate.
    #[inline]
    pub fn read_i32(&mut self) -> Result<i32, ReadError> {
        self.inner.read_i32_leb()
    }

    /// Reads an `i64.const` immediate.
    #[inline]
    pub fn read_i64(&mut self) -> Result<i64, ReadError> {
        self.inner.read_i64_leb()
    }

    /// Reads an `f32.const` immediate.
    pub fn read_f32(&mut self) -> Result<f32, ReadError> {
        Ok(f32::from_bits(self.inner.read_u32_le()?))
    }

    /// Reads an `f64.const` immediate.
    pub fn read_f64(&mut self) -> Result<f64, ReadError> {
        Ok(f64::from_bits(self.inner.read_u64_le()?))
    }

    /// Reads a block type immediate.
    #[inline]
    pub fn read_block_type(&mut self) -> Result<BlockType, ReadError> {
        let offset = self.inner.pos();
        let b = *self
            .inner
            .data()
            .get(offset)
            .ok_or(ReadError::UnexpectedEnd { offset })?;
        if b == 0x40 {
            self.inner.set_pos(offset + 1);
            return Ok(BlockType::Empty);
        }
        if let Some(vt) = ValueType::from_byte(b) {
            self.inner.set_pos(offset + 1);
            return Ok(BlockType::Value(vt));
        }
        // Otherwise it is a signed LEB type index (must be non-negative).
        let idx = self.inner.read_i32_leb()?;
        if idx < 0 {
            return Err(ReadError::BadType { offset, byte: b });
        }
        Ok(BlockType::Func(idx as u32))
    }

    /// Reads a memory argument (alignment + offset).
    #[inline]
    pub fn read_memarg(&mut self) -> Result<MemArg, ReadError> {
        let align = self.inner.read_u32_leb()?;
        let offset = self.inner.read_u32_leb()?;
        Ok(MemArg { align, offset })
    }

    /// Reads the reference type immediate of `ref.null`.
    pub fn read_ref_type(&mut self) -> Result<ValueType, ReadError> {
        let offset = self.inner.pos();
        let b = self.inner.read_u8()?;
        match ValueType::from_byte(b) {
            Some(t) if t.is_reference() => Ok(t),
            _ => Err(ReadError::BadType { offset, byte: b }),
        }
    }

    /// Reads the `call_indirect` immediate: type index and table index.
    pub fn read_call_indirect(&mut self) -> Result<(u32, u32), ReadError> {
        let type_index = self.inner.read_u32_leb()?;
        let table_index = self.inner.read_u32_leb()?;
        Ok((type_index, table_index))
    }

    /// Reads the reserved single-byte memory index of `memory.size` /
    /// `memory.grow` (the decoder checks that it is zero).
    #[inline]
    pub fn read_memory_index(&mut self) -> Result<u8, ReadError> {
        self.inner.read_u8()
    }

    /// Decodes the immediates of `op`, leaving the reader at the next opcode:
    /// the one table of immediate shapes. Everything variable-length is
    /// walked and checked here, so the views it hands out iterate infallibly.
    ///
    /// Inlined into each walker with [`Self::read_instr`], by force: built in
    /// the walker's own frame the `Imm` stays in registers. Returned from a
    /// call it is written field by field and copied out in 16-byte moves,
    /// and those loads stall on the narrower stores they overlap — 10 ns per
    /// instruction, a quarter of the baseline compiler's time.
    #[inline(always)]
    fn read_immediates(&mut self, op: Opcode) -> Result<Imm<'a>, ReadError> {
        Ok(match op.immediate_kind() {
            ImmediateKind::None => Imm::None,
            ImmediateKind::BlockType => Imm::Block(self.read_block_type()?),
            ImmediateKind::LabelIndex
            | ImmediateKind::FuncIndex
            | ImmediateKind::LocalIndex
            | ImmediateKind::GlobalIndex => Imm::Index(self.read_index()?),
            ImmediateKind::BranchTable => {
                let count = self.read_index()?;
                let start = self.pc();
                for _ in 0..count {
                    self.read_index()?;
                }
                let targets = &self.code()[start..self.pc()];
                Imm::Table(BrTable { targets, count, default: self.read_index()? })
            }
            ImmediateKind::CallIndirect => {
                let (type_index, table_index) = self.read_call_indirect()?;
                Imm::CallIndirect { type_index, table_index }
            }
            ImmediateKind::MemArg => Imm::Mem(self.read_memarg()?),
            ImmediateKind::MemoryIndex => {
                let offset = self.pc();
                match self.read_memory_index()? {
                    0 => Imm::None,
                    byte => return Err(ReadError::ReservedByte { offset, byte }),
                }
            }
            ImmediateKind::I32Const => Imm::I32(self.read_i32()?),
            ImmediateKind::I64Const => Imm::I64(self.read_i64()?),
            ImmediateKind::F32Const => Imm::F32(self.read_f32()?),
            ImmediateKind::F64Const => Imm::F64(self.read_f64()?),
            ImmediateKind::RefType => Imm::Ref(self.read_ref_type()?),
            ImmediateKind::SelectTyped => {
                let count = self.read_index()?;
                let start = self.pc();
                let types = self.inner.read_bytes(count as usize)?;
                if let Some(bad) = types.iter().position(|&b| ValueType::from_byte(b).is_none()) {
                    return Err(ReadError::BadType { offset: start + bad, byte: types[bad] });
                }
                Imm::Select(SelectTypes { types })
            }
        })
    }

    /// Decodes the instruction at the reader's position.
    #[inline(always)]
    fn read_instr(&mut self) -> Result<Instr<'a>, ReadError> {
        let offset = self.pc();
        let op = self.read_opcode()?;
        let imm = self.read_immediates(op)?;
        Ok(Instr { offset, op, imm, end: self.pc() })
    }

    /// Skips over the immediates of `op`, leaving the reader at the next
    /// opcode: for the interpreter, which decodes at the point of use and
    /// has nothing to do with a typed `select`'s annotation.
    pub fn skip_immediates(&mut self, op: Opcode) -> Result<(), ReadError> {
        self.read_immediates(op).map(drop)
    }
}

/// Walking a body one decoded instruction at a time: `None` at the end of the
/// code, `Some(Err(_))` where the bytes are not an instruction. Allocates
/// nothing.
impl<'a> Iterator for BytecodeReader<'a> {
    type Item = Result<Instr<'a>, ReadError>;

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        (!self.is_at_end()).then(|| self.read_instr())
    }
}

/// One decoded instruction: what every walker of a body except the in-place
/// interpreter takes from [`BytecodeReader`]'s `next`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instr<'a> {
    /// Bytecode offset of the opcode byte.
    pub offset: usize,
    /// The opcode.
    pub op: Opcode,
    /// Its immediates.
    pub imm: Imm<'a>,
    /// Bytecode offset just past the immediates (the next instruction's).
    pub end: usize,
}

/// The immediates of one instruction, one variant per immediate *shape*.
/// The reserved byte of `memory.size` / `memory.grow` is checked to be zero
/// and dropped, so those two decode to [`Imm::None`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Imm<'a> {
    /// No immediates.
    None,
    /// The block type of `block`, `loop`, `if`.
    Block(BlockType),
    /// One label, function, local or global index.
    Index(u32),
    /// The targets of a `br_table`.
    Table(BrTable<'a>),
    /// The type and table of a `call_indirect`.
    CallIndirect {
        /// Index of the expected signature.
        type_index: u32,
        /// Index of the table dispatched through.
        table_index: u32,
    },
    /// The alignment and offset of a load or store.
    Mem(MemArg),
    /// An `i32.const` value.
    I32(i32),
    /// An `i64.const` value.
    I64(i64),
    /// An `f32.const` value.
    F32(f32),
    /// An `f64.const` value.
    F64(f64),
    /// The reference type of a `ref.null`.
    Ref(ValueType),
    /// The annotation of a typed `select`.
    Select(SelectTypes<'a>),
}

/// The label depths of a `br_table`, borrowed from the body bytes. The
/// decoder has already walked every target, so iteration cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrTable<'a> {
    targets: &'a [u8],
    count: u32,
    default: u32,
}

impl<'a> BrTable<'a> {
    /// Number of listed targets (the default not counted).
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when only the default is present.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The default label depth.
    pub fn default(&self) -> u32 {
        self.default
    }

    /// The listed label depths, in order.
    pub fn targets(&self) -> impl Iterator<Item = u32> + 'a {
        let mut bytes = ByteReader::new(self.targets);
        (0..self.count).map_while(move |_| bytes.read_u32_leb().ok())
    }

    /// The listed label depths, then the default: every outgoing edge.
    pub fn targets_and_default(&self) -> impl Iterator<Item = u32> + 'a {
        self.targets().chain([self.default])
    }
}

/// The result types a typed `select` lists, borrowed from the body bytes.
/// The decoder has already checked every type byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectTypes<'a> {
    types: &'a [u8],
}

impl<'a> SelectTypes<'a> {
    /// The listed types, in order (validation requires exactly one).
    pub fn iter(&self) -> impl Iterator<Item = ValueType> + 'a {
        self.types.iter().filter_map(|&b| ValueType::from_byte(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leb;

    #[test]
    fn byte_reader_basics() {
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];
        let mut r = ByteReader::new(&data);
        assert_eq!(r.read_u8().unwrap(), 1);
        assert_eq!(r.read_u32_le().unwrap(), u32::from_le_bytes([2, 3, 4, 5]));
        assert_eq!(r.pos(), 5);
        assert_eq!(r.remaining(), 7);
        assert!(!r.is_at_end());
        let rest = r.read_bytes(7).unwrap();
        assert_eq!(rest, &[6, 7, 8, 9, 10, 11, 12]);
        assert!(r.is_at_end());
        assert!(matches!(r.read_u8(), Err(ReadError::UnexpectedEnd { .. })));
    }

    #[test]
    fn byte_reader_leb() {
        let mut data = Vec::new();
        leb::write_unsigned(&mut data, 624485);
        leb::write_signed(&mut data, -123456);
        leb::write_unsigned(&mut data, u64::MAX);
        let mut r = ByteReader::new(&data);
        assert_eq!(r.read_u32_leb().unwrap(), 624485);
        assert_eq!(r.read_i32_leb().unwrap(), -123456);
        assert_eq!(r.read_unsigned_leb(64).unwrap(), u64::MAX);
        assert!(r.is_at_end());
    }

    #[test]
    fn one_byte_fast_paths_agree_with_the_general_decoder() {
        // Every one- and two-byte prefix (plus an empty and a padded input):
        // the fast path must hand back exactly what the checked loop would,
        // value, length and error alike.
        let mut inputs: Vec<Vec<u8>> = vec![vec![], vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x01]];
        for b0 in 0..=u8::MAX {
            inputs.push(vec![b0]);
            for b1 in [0x00, 0x01, 0x3F, 0x40, 0x7F, 0x80, 0xFF] {
                inputs.push(vec![b0, b1]);
            }
        }
        for data in &inputs {
            let unsigned = |bits| {
                leb::read_unsigned(data, 0, bits).map_err(|e| map_leb_error(e, data, 0))
            };
            let signed =
                |bits| leb::read_signed(data, 0, bits).map_err(|e| map_leb_error(e, data, 0));
            let mut r = ByteReader::new(data);
            assert_eq!(
                r.read_u32_leb().map(|v| (v as u64, r.pos())),
                unsigned(32),
                "u32 {data:02x?}"
            );
            let mut r = ByteReader::new(data);
            assert_eq!(
                r.read_i32_leb().map(|v| (v as i64, r.pos())),
                signed(32),
                "i32 {data:02x?}"
            );
            let mut r = ByteReader::new(data);
            assert_eq!(r.read_i64_leb().map(|v| (v, r.pos())), signed(64), "i64 {data:02x?}");
        }
    }

    #[test]
    fn read_name_roundtrip() {
        let mut data = Vec::new();
        leb::write_unsigned(&mut data, 5);
        data.extend_from_slice(b"hello");
        let mut r = ByteReader::new(&data);
        assert_eq!(r.read_name().unwrap(), "hello");
    }

    #[test]
    fn bytecode_reader_opcode_and_immediates() {
        // i32.const 42 ; local.get 3 ; i32.add ; end
        let mut code = vec![Opcode::I32Const.to_byte()];
        leb::write_signed(&mut code, 42);
        code.push(Opcode::LocalGet.to_byte());
        leb::write_unsigned(&mut code, 3);
        code.push(Opcode::I32Add.to_byte());
        code.push(Opcode::End.to_byte());

        let mut r = BytecodeReader::new(&code);
        assert_eq!(r.read_opcode().unwrap(), Opcode::I32Const);
        assert_eq!(r.read_i32().unwrap(), 42);
        assert_eq!(r.read_opcode().unwrap(), Opcode::LocalGet);
        assert_eq!(r.read_index().unwrap(), 3);
        assert_eq!(r.read_opcode().unwrap(), Opcode::I32Add);
        assert_eq!(r.read_opcode().unwrap(), Opcode::End);
        assert!(r.is_at_end());
    }

    #[test]
    fn bytecode_reader_block_types() {
        let code = [0x40u8, 0x7F, 0x05];
        let mut r = BytecodeReader::new(&code);
        assert_eq!(r.read_block_type().unwrap(), BlockType::Empty);
        assert_eq!(r.read_block_type().unwrap(), BlockType::Value(ValueType::I32));
        assert_eq!(r.read_block_type().unwrap(), BlockType::Func(5));
    }

    #[test]
    fn next_yields_offset_opcode_immediates_and_end() {
        // f64.const 1.5 ; br_table [0 1] 2 ; i32.load align=2 offset=16 ; nop
        let mut code = vec![Opcode::F64Const.to_byte()];
        code.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        code.push(Opcode::BrTable.to_byte());
        for v in [2u64, 0, 1, 2] {
            leb::write_unsigned(&mut code, v);
        }
        code.push(Opcode::I32Load.to_byte());
        leb::write_unsigned(&mut code, 2);
        leb::write_unsigned(&mut code, 16);
        code.push(Opcode::Nop.to_byte());

        let instrs: Vec<Instr<'_>> = BytecodeReader::new(&code).map(|i| i.unwrap()).collect();
        let shape: Vec<_> = instrs.iter().map(|i| (i.offset, i.op, i.end)).collect();
        assert_eq!(
            shape,
            [(0, Opcode::F64Const, 9), (9, Opcode::BrTable, 14), (14, Opcode::I32Load, 17), (17, Opcode::Nop, 18)]
        );
        assert_eq!(instrs[0].imm, Imm::F64(1.5));
        let Imm::Table(table) = instrs[1].imm else { panic!("{:?}", instrs[1].imm) };
        assert_eq!((table.len(), table.default()), (2, 2));
        assert_eq!(table.targets_and_default().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(instrs[2].imm, Imm::Mem(MemArg { align: 2, offset: 16 }));
        assert_eq!(instrs[3].imm, Imm::None);

        // The interpreter's way over the same bytes lands on the same offsets.
        let mut r = BytecodeReader::new(&code);
        for instr in &instrs {
            assert_eq!(r.pc(), instr.offset);
            let op = r.read_opcode().unwrap();
            r.skip_immediates(op).unwrap();
        }
        assert!(r.is_at_end());
    }

    #[test]
    fn variable_length_immediates_are_borrowed_views_over_the_body() {
        // br_table with 1000 multi-byte targets ; select (result i32)
        let mut code = vec![Opcode::BrTable.to_byte()];
        leb::write_unsigned(&mut code, 1000);
        for t in 0..1000u64 {
            leb::write_unsigned(&mut code, t * 300);
        }
        leb::write_unsigned(&mut code, 7);
        code.extend_from_slice(&[Opcode::SelectT.to_byte(), 1, ValueType::I32.to_byte()]);
        let mut r = BytecodeReader::new(&code);
        let Some(Ok(Instr { imm: Imm::Table(table), .. })) = r.next() else { panic!("br_table") };
        // The view is the body's own bytes: nothing was copied out of them.
        assert!(code.as_ptr_range().contains(&table.targets.as_ptr()));
        assert_eq!(table.len(), 1000);
        assert!(table.targets().eq((0..1000).map(|t| t * 300)));
        assert_eq!(table.default(), 7);
        let Some(Ok(Instr { imm: Imm::Select(types), .. })) = r.next() else { panic!("select") };
        assert!(code.as_ptr_range().contains(&types.types.as_ptr()));
        assert_eq!(types.iter().collect::<Vec<_>>(), [ValueType::I32]);
        assert!(r.next().is_none());
    }

    #[test]
    fn malformed_immediates_are_the_decoders_errors() {
        fn first(code: &[u8]) -> Result<Opcode, ReadError> {
            BytecodeReader::new(code).next().expect("non-empty").map(|instr| instr.op)
        }
        // memory.size / memory.grow: the reserved byte must be zero.
        for op in [Opcode::MemorySize, Opcode::MemoryGrow] {
            assert_eq!(first(&[op.to_byte(), 0]), Ok(op));
            let err = first(&[op.to_byte(), 1]).unwrap_err();
            assert_eq!(err, ReadError::ReservedByte { offset: 1, byte: 1 });
            assert!(err.to_string().contains("zero byte expected"), "{err}");
        }
        // A br_table that promises more targets than the body holds.
        let truncated = first(&[Opcode::BrTable.to_byte(), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0, 0]);
        assert!(matches!(truncated, Err(ReadError::UnexpectedEnd { .. })), "{truncated:?}");
        // A typed select naming a byte that is no value type, or too many.
        let bad_type = first(&[Opcode::SelectT.to_byte(), 2, 0x7F, 0x11]);
        assert_eq!(bad_type, Err(ReadError::BadType { offset: 3, byte: 0x11 }));
        let truncated = first(&[Opcode::SelectT.to_byte(), 5, 0x7F]);
        assert!(matches!(truncated, Err(ReadError::UnexpectedEnd { .. })), "{truncated:?}");
    }

    #[test]
    fn float_immediates_roundtrip_bit_exact() {
        let mut code = vec![Opcode::F32Const.to_byte()];
        code.extend_from_slice(&f32::NAN.to_bits().to_le_bytes());
        code.push(Opcode::F64Const.to_byte());
        code.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        let mut r = BytecodeReader::new(&code);
        assert_eq!(r.read_opcode().unwrap(), Opcode::F32Const);
        assert_eq!(r.read_f32().unwrap().to_bits(), f32::NAN.to_bits());
        assert_eq!(r.read_opcode().unwrap(), Opcode::F64Const);
        assert_eq!(r.read_f64().unwrap().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn unknown_opcode_is_reported_with_offset() {
        let code = [Opcode::Nop.to_byte(), 0xF5];
        let mut r = BytecodeReader::new(&code);
        r.read_opcode().unwrap();
        match r.read_opcode() {
            Err(ReadError::UnknownOpcode { offset, byte }) => {
                assert_eq!(offset, 1);
                assert_eq!(byte, 0xF5);
            }
            other => panic!("expected unknown opcode error, got {other:?}"),
        }
    }

    #[test]
    fn ref_type_immediate_validation() {
        let code = [0x6F, 0x7F];
        let mut r = BytecodeReader::new(&code);
        assert_eq!(r.read_ref_type().unwrap(), ValueType::ExternRef);
        assert!(matches!(r.read_ref_type(), Err(ReadError::BadType { .. })));
    }
}
