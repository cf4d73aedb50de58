//! A byte writer used by the binary encoder and the function-body builder.

use crate::leb;
use crate::types::ValueType;

/// An append-only byte buffer with WebAssembly-flavoured write helpers.
#[derive(Debug, Clone, Default)]
pub struct ByteWriter {
    bytes: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// The number of bytes written so far.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Consumes the writer and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrows the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Writes a single byte.
    pub fn write_u8(&mut self, b: u8) {
        self.bytes.push(b);
    }

    /// Writes raw bytes.
    pub fn write_bytes(&mut self, data: &[u8]) {
        self.bytes.extend_from_slice(data);
    }

    /// Writes a 32-bit little-endian value.
    pub fn write_u32_le(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a 64-bit little-endian value.
    pub fn write_u64_le(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an unsigned 32-bit LEB128 value.
    pub fn write_u32_leb(&mut self, v: u32) {
        leb::write_unsigned(&mut self.bytes, v as u64);
    }

    /// Writes a signed 32-bit LEB128 value.
    pub fn write_i32_leb(&mut self, v: i32) {
        leb::write_signed(&mut self.bytes, v as i64);
    }

    /// Writes a signed 64-bit LEB128 value.
    pub fn write_i64_leb(&mut self, v: i64) {
        leb::write_signed(&mut self.bytes, v);
    }

    /// Writes a length-prefixed UTF-8 name.
    pub fn write_name(&mut self, name: &str) {
        self.write_u32_leb(name.len() as u32);
        self.write_bytes(name.as_bytes());
    }

    /// Writes a value type byte.
    pub fn write_value_type(&mut self, t: ValueType) {
        self.write_u8(t.to_byte());
    }

    /// Writes another writer's contents prefixed by their length in bytes.
    /// This is the shape of every section and code entry in the binary format.
    pub fn write_sized(&mut self, inner: &ByteWriter) {
        self.write_u32_leb(inner.len() as u32);
        self.write_bytes(inner.as_bytes());
    }
}

impl From<ByteWriter> for Vec<u8> {
    fn from(w: ByteWriter) -> Vec<u8> {
        w.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::ByteReader;

    #[test]
    fn writes_and_reads_back() {
        let mut w = ByteWriter::new();
        w.write_u8(7);
        w.write_u32_le(0xDEADBEEF);
        w.write_u64_le(0x0123456789ABCDEF);
        w.write_u32_leb(300);
        w.write_i32_leb(-300);
        w.write_i64_leb(i64::MIN);
        w.write_name("main");
        w.write_value_type(ValueType::F64);

        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u32_le().unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_u64_le().unwrap(), 0x0123456789ABCDEF);
        assert_eq!(r.read_u32_leb().unwrap(), 300);
        assert_eq!(r.read_i32_leb().unwrap(), -300);
        assert_eq!(r.read_i64_leb().unwrap(), i64::MIN);
        assert_eq!(r.read_name().unwrap(), "main");
        assert_eq!(r.read_value_type().unwrap(), ValueType::F64);
        assert!(r.is_at_end());
    }

    #[test]
    fn sized_sections_are_length_prefixed() {
        let mut inner = ByteWriter::new();
        inner.write_bytes(&[1, 2, 3]);
        let mut outer = ByteWriter::new();
        outer.write_sized(&inner);
        assert_eq!(outer.as_bytes(), &[3, 1, 2, 3]);
        assert_eq!(outer.len(), 4);
        assert!(!outer.is_empty());
    }
}
