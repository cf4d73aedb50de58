//! Decoding of WebAssembly binary format bytes into a [`Module`].
//!
//! The decoder performs structural checks (magic/version, section ordering,
//! counts, well-formed LEBs) and refuses what exceeds the web embedding's
//! ceilings on defined functions, body bytes and locals
//! ([`MAX_FUNCTIONS`], [`MAX_FUNCTION_SIZE`], [`MAX_FUNCTION_LOCALS`]) as it
//! reads each count. Type- and control-flow checking is the validator's job
//! ([`crate::validate`]).

use crate::encode::SectionId;
use crate::module::{
    ConstExpr, CustomSection, DataSegment, ElemSegment, Export, FuncDecl, Global, Import,
    ImportKind, Module, ModuleData,
};
use crate::opcode::Opcode;
use crate::reader::{ByteReader, ReadError};
use crate::types::{
    ExternalKind, FuncType, GlobalType, Limits, MemoryType, TableType, ValueType, MAX_FUNCTIONS,
    MAX_FUNCTION_LOCALS, MAX_FUNCTION_SIZE,
};
use std::fmt;

/// Errors produced while decoding a binary module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The magic number or version was wrong.
    BadHeader,
    /// A low-level read failed.
    Read(ReadError),
    /// A section appeared out of order or more than once.
    SectionOrder {
        /// The offending section id byte.
        section: u8,
    },
    /// An unknown section id was encountered.
    UnknownSection {
        /// The offending section id byte.
        section: u8,
    },
    /// A section's declared size did not match its contents.
    SectionSize {
        /// The offending section id byte.
        section: u8,
    },
    /// The function and code sections disagree on the number of functions.
    FunctionCountMismatch {
        /// Number of entries in the function section.
        declared: u32,
        /// Number of bodies in the code section.
        bodies: u32,
    },
    /// A malformed entity was encountered.
    Malformed {
        /// A human-readable description.
        message: String,
        /// Offset in the input.
        offset: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "invalid module header"),
            DecodeError::Read(e) => write!(f, "{e}"),
            DecodeError::SectionOrder { section } => {
                write!(f, "section {section} out of order or duplicated")
            }
            DecodeError::UnknownSection { section } => {
                write!(f, "unknown section id {section}")
            }
            DecodeError::SectionSize { section } => {
                write!(f, "section {section} size mismatch")
            }
            DecodeError::FunctionCountMismatch { declared, bodies } => write!(
                f,
                "function section declares {declared} functions but code section has {bodies}"
            ),
            DecodeError::Malformed { message, offset } => {
                write!(f, "{message} at offset {offset}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<ReadError> for DecodeError {
    fn from(e: ReadError) -> DecodeError {
        DecodeError::Read(e)
    }
}

/// Decodes a binary module.
pub fn decode(bytes: &[u8]) -> Result<Module, DecodeError> {
    Decoder::new(bytes).decode()
}

/// Refuses a count read at `offset` that is over one of the web embedding's
/// ceilings, before anything is allocated for it.
fn at_most(count: u64, limit: u32, what: &str, offset: usize) -> Result<(), DecodeError> {
    if count > limit as u64 {
        return Err(DecodeError::Malformed {
            message: format!("too many {what}: {count}, the limit is {limit}"),
            offset,
        });
    }
    Ok(())
}

struct Decoder<'a> {
    r: ByteReader<'a>,
    module: ModuleData,
    declared_func_types: Vec<u32>,
    last_section: u8,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8]) -> Decoder<'a> {
        Decoder {
            r: ByteReader::new(bytes),
            module: ModuleData::default(),
            declared_func_types: Vec::new(),
            last_section: 0,
        }
    }

    fn decode(mut self) -> Result<Module, DecodeError> {
        let magic = self.r.read_bytes(4).map_err(|_| DecodeError::BadHeader)?;
        if magic != crate::encode::MAGIC {
            return Err(DecodeError::BadHeader);
        }
        let version = self.r.read_bytes(4).map_err(|_| DecodeError::BadHeader)?;
        if version != crate::encode::VERSION {
            return Err(DecodeError::BadHeader);
        }

        while !self.r.is_at_end() {
            let id_byte = self.r.read_u8()?;
            let size = self.r.read_u32_leb()? as usize;
            let start = self.r.pos();
            let end = start + size;
            if end > self.r.data().len() {
                return Err(DecodeError::Read(ReadError::UnexpectedEnd { offset: start }));
            }
            let section =
                SectionId::from_byte(id_byte).ok_or(DecodeError::UnknownSection { section: id_byte })?;
            if section != SectionId::Custom {
                if id_byte <= self.last_section {
                    return Err(DecodeError::SectionOrder { section: id_byte });
                }
                self.last_section = id_byte;
            }
            match section {
                SectionId::Custom => self.decode_custom(end)?,
                SectionId::Type => self.decode_types()?,
                SectionId::Import => self.decode_imports()?,
                SectionId::Function => self.decode_functions()?,
                SectionId::Table => self.decode_tables()?,
                SectionId::Memory => self.decode_memories()?,
                SectionId::Global => self.decode_globals()?,
                SectionId::Export => self.decode_exports()?,
                SectionId::Start => {
                    self.module.start = Some(self.r.read_u32_leb()?);
                }
                SectionId::Element => self.decode_elements()?,
                SectionId::Code => self.decode_code()?,
                SectionId::Data => self.decode_data()?,
            }
            if self.r.pos() != end {
                return Err(DecodeError::SectionSize { section: id_byte });
            }
        }

        if self.declared_func_types.len() != self.module.funcs.len() {
            return Err(DecodeError::FunctionCountMismatch {
                declared: self.declared_func_types.len() as u32,
                bodies: self.module.funcs.len() as u32,
            });
        }
        Ok(self.module.into())
    }

    fn decode_custom(&mut self, end: usize) -> Result<(), DecodeError> {
        let name = self.r.read_name()?;
        let remaining = end - self.r.pos();
        let bytes = self.r.read_bytes(remaining)?.to_vec();
        self.module.custom.push(CustomSection { name, bytes });
        Ok(())
    }

    fn decode_types(&mut self) -> Result<(), DecodeError> {
        let count = self.r.read_u32_leb()?;
        for _ in 0..count {
            let offset = self.r.pos();
            let form = self.r.read_u8()?;
            if form != 0x60 {
                return Err(DecodeError::Malformed {
                    message: format!("expected function type form 0x60, found {form:#04x}"),
                    offset,
                });
            }
            let params = self.read_value_types()?;
            let results = self.read_value_types()?;
            self.module.types.push(FuncType::new(params, results));
        }
        Ok(())
    }

    fn read_value_types(&mut self) -> Result<Vec<ValueType>, DecodeError> {
        let count = self.r.read_u32_leb()?;
        let mut out = Vec::with_capacity(count.min(64) as usize);
        for _ in 0..count {
            out.push(self.r.read_value_type()?);
        }
        Ok(out)
    }

    fn decode_imports(&mut self) -> Result<(), DecodeError> {
        let count = self.r.read_u32_leb()?;
        for _ in 0..count {
            let module = self.r.read_name()?;
            let name = self.r.read_name()?;
            let offset = self.r.pos();
            let kind_byte = self.r.read_u8()?;
            let kind = match ExternalKind::from_byte(kind_byte) {
                Some(ExternalKind::Func) => ImportKind::Func(self.r.read_u32_leb()?),
                Some(ExternalKind::Table) => ImportKind::Table(self.read_table_type()?),
                Some(ExternalKind::Memory) => ImportKind::Memory(self.read_memory_type()?),
                Some(ExternalKind::Global) => ImportKind::Global(self.read_global_type()?),
                None => {
                    return Err(DecodeError::Malformed {
                        message: format!("invalid import kind {kind_byte:#04x}"),
                        offset,
                    })
                }
            };
            self.module.imports.push(Import { module, name, kind });
        }
        Ok(())
    }

    fn decode_functions(&mut self) -> Result<(), DecodeError> {
        let offset = self.r.pos();
        let count = self.r.read_u32_leb()?;
        at_most(count.into(), MAX_FUNCTIONS, "functions", offset)?;
        for _ in 0..count {
            self.declared_func_types.push(self.r.read_u32_leb()?);
        }
        Ok(())
    }

    fn decode_tables(&mut self) -> Result<(), DecodeError> {
        let count = self.r.read_u32_leb()?;
        for _ in 0..count {
            let t = self.read_table_type()?;
            self.module.tables.push(t);
        }
        Ok(())
    }

    fn decode_memories(&mut self) -> Result<(), DecodeError> {
        let count = self.r.read_u32_leb()?;
        for _ in 0..count {
            let m = self.read_memory_type()?;
            self.module.memories.push(m);
        }
        Ok(())
    }

    fn decode_globals(&mut self) -> Result<(), DecodeError> {
        let count = self.r.read_u32_leb()?;
        for _ in 0..count {
            let ty = self.read_global_type()?;
            let init = self.read_const_expr()?;
            self.module.globals.push(Global { ty, init });
        }
        Ok(())
    }

    fn decode_exports(&mut self) -> Result<(), DecodeError> {
        let count = self.r.read_u32_leb()?;
        for _ in 0..count {
            let name = self.r.read_name()?;
            let offset = self.r.pos();
            let kind_byte = self.r.read_u8()?;
            let kind = ExternalKind::from_byte(kind_byte).ok_or(DecodeError::Malformed {
                message: format!("invalid export kind {kind_byte:#04x}"),
                offset,
            })?;
            let index = self.r.read_u32_leb()?;
            self.module.exports.push(Export { name, kind, index });
        }
        Ok(())
    }

    fn decode_elements(&mut self) -> Result<(), DecodeError> {
        let count = self.r.read_u32_leb()?;
        for _ in 0..count {
            let offset = self.r.pos();
            let flags = self.r.read_u32_leb()?;
            match flags {
                0 => {
                    let expr = self.read_const_expr()?;
                    let funcs = self.read_index_vec()?;
                    self.module.elems.push(ElemSegment {
                        table_index: 0,
                        offset: expr,
                        func_indices: funcs,
                    });
                }
                2 => {
                    let table_index = self.r.read_u32_leb()?;
                    let expr = self.read_const_expr()?;
                    let elemkind = self.r.read_u8()?;
                    if elemkind != 0x00 {
                        return Err(DecodeError::Malformed {
                            message: format!("unsupported elemkind {elemkind:#04x}"),
                            offset,
                        });
                    }
                    let funcs = self.read_index_vec()?;
                    self.module.elems.push(ElemSegment {
                        table_index,
                        offset: expr,
                        func_indices: funcs,
                    });
                }
                other => {
                    return Err(DecodeError::Malformed {
                        message: format!("unsupported element segment flags {other}"),
                        offset,
                    })
                }
            }
        }
        Ok(())
    }

    fn decode_code(&mut self) -> Result<(), DecodeError> {
        let offset = self.r.pos();
        let count = self.r.read_u32_leb()?;
        at_most(count.into(), MAX_FUNCTIONS, "functions", offset)?;
        for i in 0..count {
            let size_offset = self.r.pos();
            let body_size = self.r.read_u32_leb()?;
            at_most(body_size.into(), MAX_FUNCTION_SIZE, "function body bytes", size_offset)?;
            let body_start = self.r.pos();
            let body_end = body_start + body_size as usize;
            let type_index = *self.declared_func_types.get(i as usize).unwrap_or(&0);
            let num_params = self
                .module
                .types
                .get(type_index as usize)
                .map_or(0, |ty| ty.params.len());
            let local_group_count = self.r.read_u32_leb()?;
            let mut locals = Vec::with_capacity(local_group_count.min(64) as usize);
            let mut total_locals = num_params as u64;
            for _ in 0..local_group_count {
                let n = self.r.read_u32_leb()?;
                let ty = self.r.read_value_type()?;
                total_locals += n as u64;
                let what = "locals (parameters included)";
                at_most(total_locals, MAX_FUNCTION_LOCALS, what, body_start)?;
                locals.push((n, ty));
            }
            if body_end > self.r.data().len() || self.r.pos() > body_end {
                return Err(DecodeError::Read(ReadError::UnexpectedEnd { offset: body_start }));
            }
            let code = self.r.read_bytes(body_end - self.r.pos())?.to_vec();
            if code.last() != Some(&Opcode::End.to_byte()) {
                return Err(DecodeError::Malformed {
                    message: format!("function body {i} does not end with `end`"),
                    offset: body_end,
                });
            }
            self.module.funcs.push(FuncDecl {
                type_index,
                locals,
                code,
            });
        }
        Ok(())
    }

    fn decode_data(&mut self) -> Result<(), DecodeError> {
        let count = self.r.read_u32_leb()?;
        for _ in 0..count {
            let offset = self.r.pos();
            let flags = self.r.read_u32_leb()?;
            let memory_index = match flags {
                0 => 0,
                2 => self.r.read_u32_leb()?,
                other => {
                    return Err(DecodeError::Malformed {
                        message: format!("unsupported data segment flags {other}"),
                        offset,
                    })
                }
            };
            let expr = self.read_const_expr()?;
            let len = self.r.read_u32_leb()? as usize;
            let bytes = self.r.read_bytes(len)?.to_vec();
            self.module.data.push(DataSegment {
                memory_index,
                offset: expr,
                bytes,
            });
        }
        Ok(())
    }

    fn read_index_vec(&mut self) -> Result<Vec<u32>, DecodeError> {
        let count = self.r.read_u32_leb()?;
        let mut out = Vec::with_capacity(count.min(4096) as usize);
        for _ in 0..count {
            out.push(self.r.read_u32_leb()?);
        }
        Ok(out)
    }

    fn read_limits(&mut self) -> Result<Limits, DecodeError> {
        let offset = self.r.pos();
        let flag = self.r.read_u8()?;
        match flag {
            0x00 => Ok(Limits::at_least(self.r.read_u32_leb()?)),
            0x01 => {
                let min = self.r.read_u32_leb()?;
                let max = self.r.read_u32_leb()?;
                Ok(Limits::bounded(min, max))
            }
            other => Err(DecodeError::Malformed {
                message: format!("invalid limits flag {other:#04x}"),
                offset,
            }),
        }
    }

    fn read_table_type(&mut self) -> Result<TableType, DecodeError> {
        let offset = self.r.pos();
        let element = self.r.read_value_type()?;
        if !element.is_reference() {
            return Err(DecodeError::Malformed {
                message: format!("table element type must be a reference, found {element}"),
                offset,
            });
        }
        let limits = self.read_limits()?;
        Ok(TableType { element, limits })
    }

    fn read_memory_type(&mut self) -> Result<MemoryType, DecodeError> {
        Ok(MemoryType {
            limits: self.read_limits()?,
        })
    }

    fn read_global_type(&mut self) -> Result<GlobalType, DecodeError> {
        let value_type = self.r.read_value_type()?;
        let offset = self.r.pos();
        let mutable = match self.r.read_u8()? {
            0x00 => false,
            0x01 => true,
            other => {
                return Err(DecodeError::Malformed {
                    message: format!("invalid mutability flag {other:#04x}"),
                    offset,
                })
            }
        };
        Ok(GlobalType {
            value_type,
            mutable,
        })
    }

    fn read_const_expr(&mut self) -> Result<ConstExpr, DecodeError> {
        let offset = self.r.pos();
        let opcode_byte = self.r.read_u8()?;
        let op = Opcode::from_byte(opcode_byte).ok_or(DecodeError::Malformed {
            message: format!("invalid constant expression opcode {opcode_byte:#04x}"),
            offset,
        })?;
        let expr = match op {
            Opcode::I32Const => ConstExpr::I32(self.r.read_i32_leb()?),
            Opcode::I64Const => ConstExpr::I64(self.r.read_i64_leb()?),
            Opcode::F32Const => ConstExpr::F32(f32::from_bits(self.r.read_u32_le()?)),
            Opcode::F64Const => ConstExpr::F64(f64::from_bits(self.r.read_u64_le()?)),
            Opcode::GlobalGet => ConstExpr::GlobalGet(self.r.read_u32_leb()?),
            Opcode::RefFunc => ConstExpr::RefFunc(self.r.read_u32_leb()?),
            Opcode::RefNull => {
                let t_offset = self.r.pos();
                let b = self.r.read_u8()?;
                let t = ValueType::from_byte(b).filter(|t| t.is_reference()).ok_or(
                    DecodeError::Malformed {
                        message: format!("invalid ref.null type {b:#04x}"),
                        offset: t_offset,
                    },
                )?;
                ConstExpr::RefNull(t)
            }
            other => {
                return Err(DecodeError::Malformed {
                    message: format!("unsupported constant expression opcode {other}"),
                    offset,
                })
            }
        };
        let end_offset = self.r.pos();
        let end = self.r.read_u8()?;
        if end != Opcode::End.to_byte() {
            return Err(DecodeError::Malformed {
                message: "constant expression must end with `end`".to_string(),
                offset: end_offset,
            });
        }
        Ok(expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{CodeBuilder, ModuleBuilder};
    use crate::encode::encode;
    use crate::opcode::Opcode;
    use crate::types::{FuncType, GlobalType, Limits, ValueType};

    fn rich_module() -> Module {
        let mut b = ModuleBuilder::new();
        let log_ty = FuncType::new(vec![ValueType::I32], vec![]);
        let log = b.import_func("env", "log", log_ty);
        let mem = b.add_memory(Limits::bounded(1, 4));
        let g = b.add_global(GlobalType::mutable(ValueType::I64), ConstExpr::I64(-5));
        let table = b.add_table(ValueType::FuncRef, Limits::at_least(4));

        let mut code = CodeBuilder::new();
        code.local_get(0)
            .i32_const(2)
            .op(Opcode::I32Mul)
            .local_tee(1)
            .call(log)
            .local_get(1);
        let double = b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![ValueType::I32],
            code.finish(),
        );
        b.export_func("double", double);
        b.export_memory("mem", mem);
        b.export_global("g", g);
        b.add_elem(table, ConstExpr::I32(1), vec![double]);
        b.add_data(mem, ConstExpr::I32(16), vec![0xAA, 0xBB, 0xCC]);
        b.finish()
    }

    #[test]
    fn encode_decode_roundtrip_rich_module() {
        let module = rich_module();
        let bytes = encode(&module);
        let decoded = decode(&bytes).expect("decode");
        assert_eq!(decoded, module);
        assert_eq!(decoded.content_hash(), module.content_hash());
    }

    #[test]
    fn double_roundtrip_is_stable() {
        let module = rich_module();
        let bytes1 = encode(&module);
        let decoded1 = decode(&bytes1).unwrap();
        let bytes2 = encode(&decoded1);
        assert_eq!(bytes1, bytes2);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert_eq!(decode(b"\0wsm\x01\0\0\0"), Err(DecodeError::BadHeader));
        assert_eq!(decode(b"\0as"), Err(DecodeError::BadHeader));
        assert_eq!(
            decode(b"\0asm\x02\0\0\0"),
            Err(DecodeError::BadHeader)
        );
    }

    #[test]
    fn out_of_order_sections_rejected() {
        // Header + code section (id 10, empty) + type section (id 1, empty).
        let bytes = vec![
            0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00, // header
            10, 1, 0, // code section with zero bodies
            1, 1, 0, // type section with zero entries
        ];
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::SectionOrder { section: 1 })
        ));
    }

    #[test]
    fn section_size_mismatch_rejected() {
        // Type section claims 3 bytes but contains a valid empty vec (1 byte).
        let bytes = vec![
            0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00, // header
            1, 3, 0, 0x60, 0x00, // malformed
        ];
        let r = decode(&bytes);
        assert!(r.is_err());
    }

    #[test]
    fn function_count_mismatch_rejected() {
        // Function section declares one function but there is no code section.
        let bytes = vec![
            0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00, // header
            1, 4, 1, 0x60, 0, 0, // type section: one type [] -> []
            3, 2, 1, 0, // function section: one func of type 0
        ];
        assert!(matches!(
            decode(&bytes),
            Err(DecodeError::FunctionCountMismatch { declared: 1, bodies: 0 })
        ));
    }

    #[test]
    fn custom_sections_are_preserved() {
        let mut module = rich_module();
        module.make_mut().custom.push(CustomSection {
            name: "name".to_string(),
            bytes: vec![1, 2, 3, 4],
        });
        let bytes = encode(&module);
        let decoded = decode(&bytes).unwrap();
        assert_eq!(decoded.custom.len(), 1);
        assert_eq!(decoded.custom[0].name, "name");
        assert_eq!(decoded.custom[0].bytes, vec![1, 2, 3, 4]);
    }

    #[test]
    fn truncated_module_rejected() {
        let module = rich_module();
        let bytes = encode(&module);
        for cut in [9, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// The bytes of a module with one `[i32, i32] -> []` function declaring
    /// `locals` locals and `nops` `nop`s of code.
    fn one_function(locals: usize, nops: usize) -> Vec<u8> {
        let mut code = vec![Opcode::Nop.to_byte(); nops];
        code.push(Opcode::End.to_byte());
        let mut b = ModuleBuilder::new();
        let params = vec![ValueType::I32; 2];
        b.add_func(FuncType::new(params, vec![]), vec![ValueType::I64; locals], code);
        encode(&b.finish())
    }

    fn refused(bytes: &[u8], what: &str) -> bool {
        matches!(decode(bytes), Err(DecodeError::Malformed { message, .. })
            if message.starts_with(&format!("too many {what}")))
    }

    #[test]
    fn locals_are_capped_with_the_parameters_counted() {
        let max = MAX_FUNCTION_LOCALS as usize;
        let module = decode(&one_function(max - 2, 0)).expect("50 000 locals decode");
        assert_eq!(module.func_local_types(0).map(|l| l.len()), Some(max));
        assert!(refused(&one_function(max - 1, 0), "locals"));
    }

    #[test]
    fn function_bodies_are_capped_in_bytes() {
        // The body is its local declarations (one byte: no groups), its
        // code and the final `end`.
        let max = MAX_FUNCTION_SIZE as usize;
        decode(&one_function(0, max - 2)).expect("a body at the limit decodes");
        assert!(refused(&one_function(0, max - 1), "function body bytes"));
    }

    #[test]
    fn function_counts_are_capped() {
        // A function section, then a code section, each declaring one
        // function more than the limit and holding none: the count alone is
        // refused.
        let mut over = Vec::new();
        crate::leb::write_unsigned(&mut over, MAX_FUNCTIONS as u64 + 1);
        for section in [3u8, 10] {
            let mut bytes = vec![0x00, 0x61, 0x73, 0x6D, 0x01, 0x00, 0x00, 0x00, section];
            bytes.push(over.len() as u8);
            bytes.extend_from_slice(&over);
            assert!(refused(&bytes, "functions"), "section {section}");
        }
    }

    #[test]
    fn start_section_roundtrip() {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(FuncType::new(vec![], vec![]), vec![], CodeBuilder::new().finish());
        b.set_start(f);
        let m = b.finish();
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(decoded.start, Some(f));
    }
}
