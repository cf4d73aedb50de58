//! LEB128 variable-length integer encoding and decoding.
//!
//! WebAssembly uses unsigned LEB128 for indices and sizes and signed LEB128
//! for integer constants. These routines are shared by the binary decoder,
//! the binary encoder, the in-place interpreter (which decodes immediates
//! during execution), and the single-pass compiler.

/// Error produced when a LEB128 value is malformed or truncated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LebError {
    /// The input ended before the value was complete.
    Truncated,
    /// The encoding used more bytes than allowed for the target width.
    Overlong,
    /// Unused bits beyond the target width were set (non-canonical padding).
    OverflowBits,
}

impl std::fmt::Display for LebError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LebError::Truncated => write!(f, "truncated LEB128 value"),
            LebError::Overlong => write!(f, "overlong LEB128 encoding"),
            LebError::OverflowBits => write!(f, "LEB128 value overflows target width"),
        }
    }
}

impl std::error::Error for LebError {}

/// Decodes an unsigned LEB128 value of at most `bits` bits from `data`
/// starting at `pos`. Returns the value and the number of bytes consumed.
pub fn read_unsigned(data: &[u8], pos: usize, bits: u32) -> Result<(u64, usize), LebError> {
    let max_bytes = (bits as usize).div_ceil(7);
    let mut result: u64 = 0;
    let mut shift = 0u32;
    let mut count = 0usize;
    loop {
        let byte = *data.get(pos + count).ok_or(LebError::Truncated)?;
        count += 1;
        if count > max_bytes {
            return Err(LebError::Overlong);
        }
        let low = (byte & 0x7F) as u64;
        // Check bits that would fall outside the target width.
        if shift + 7 > bits {
            let allowed = bits - shift;
            if low >> allowed != 0 {
                return Err(LebError::OverflowBits);
            }
        }
        result |= low << shift;
        if byte & 0x80 == 0 {
            return Ok((result, count));
        }
        shift += 7;
    }
}

/// Decodes a signed LEB128 value of at most `bits` bits from `data` starting
/// at `pos`. Returns the value and the number of bytes consumed.
pub fn read_signed(data: &[u8], pos: usize, bits: u32) -> Result<(i64, usize), LebError> {
    let max_bytes = (bits as usize).div_ceil(7);
    let mut result: i64 = 0;
    let mut shift = 0u32;
    let mut count = 0usize;
    loop {
        let byte = *data.get(pos + count).ok_or(LebError::Truncated)?;
        count += 1;
        if count > max_bytes {
            return Err(LebError::Overlong);
        }
        let low = (byte & 0x7F) as i64;
        if shift + 7 > bits {
            // The final byte: bits beyond the target width must be a correct
            // sign extension of the value's top bit.
            let allowed = bits - shift;
            if allowed < 7 {
                let sign_bit = (byte >> (allowed - 1)) & 1;
                let upper = (byte & 0x7F) >> allowed;
                let expected = if sign_bit == 1 { 0x7F >> allowed } else { 0 };
                if upper != expected {
                    return Err(LebError::OverflowBits);
                }
            }
        }
        result |= low << shift;
        shift += 7;
        if byte & 0x80 == 0 {
            // Sign-extend from the last bit written.
            if shift < 64 && (byte & 0x40) != 0 {
                result |= -1i64 << shift;
            }
            return Ok((result, count));
        }
    }
}

/// Encodes an unsigned LEB128 value, appending to `out`. Returns the number
/// of bytes written.
pub fn write_unsigned(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut count = 0;
    loop {
        let mut byte = (value & 0x7F) as u8;
        value >>= 7;
        if value != 0 {
            byte |= 0x80;
        }
        out.push(byte);
        count += 1;
        if value == 0 {
            return count;
        }
    }
}

/// Encodes a signed LEB128 value, appending to `out`. Returns the number of
/// bytes written.
pub fn write_signed(out: &mut Vec<u8>, mut value: i64) -> usize {
    let mut count = 0;
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        let done = (value == 0 && byte & 0x40 == 0) || (value == -1 && byte & 0x40 != 0);
        out.push(if done { byte } else { byte | 0x80 });
        count += 1;
        if done {
            return count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u(value: u64, bits: u32) {
        let mut buf = Vec::new();
        let written = write_unsigned(&mut buf, value);
        assert_eq!(written, buf.len());
        let (decoded, read) = read_unsigned(&buf, 0, bits).expect("decode");
        assert_eq!(decoded, value);
        assert_eq!(read, written);
    }

    fn roundtrip_s(value: i64, bits: u32) {
        let mut buf = Vec::new();
        let written = write_signed(&mut buf, value);
        let (decoded, read) = read_signed(&buf, 0, bits).expect("decode");
        assert_eq!(decoded, value, "value {value}");
        assert_eq!(read, written);
    }

    #[test]
    fn unsigned_roundtrips() {
        for v in [0u64, 1, 2, 63, 64, 127, 128, 129, 255, 256, 16383, 16384, 0xFFFF_FFFF] {
            roundtrip_u(v, 32);
        }
        for v in [0u64, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1] {
            roundtrip_u(v, 64);
        }
    }

    #[test]
    fn signed_roundtrips() {
        for v in [
            0i64, 1, -1, 2, -2, 63, -63, 64, -64, 65, -65, 127, -128, 128, 12345, -12345,
            i32::MAX as i64, i32::MIN as i64,
        ] {
            roundtrip_s(v, 32);
        }
        for v in [i64::MAX, i64::MIN, i64::MAX - 1, i64::MIN + 1, 0, -1] {
            roundtrip_s(v, 64);
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        assert_eq!(read_unsigned(&[0x80], 0, 32), Err(LebError::Truncated));
        assert_eq!(read_signed(&[0xFF], 0, 32), Err(LebError::Truncated));
        assert_eq!(read_unsigned(&[], 0, 32), Err(LebError::Truncated));
    }

    #[test]
    fn overlong_encodings_are_rejected() {
        // Six continuation bytes is too many for a 32-bit value.
        let bytes = [0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
        assert_eq!(read_unsigned(&bytes, 0, 32), Err(LebError::Overlong));
    }

    #[test]
    fn overflow_bits_are_rejected() {
        // 5-byte encoding whose final byte has bits beyond 32 set.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert_eq!(read_unsigned(&bytes, 0, 32), Err(LebError::OverflowBits));
        // Canonical u32::MAX is fine.
        let bytes = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
        assert_eq!(read_unsigned(&bytes, 0, 32), Ok((0xFFFF_FFFF, 5)));
    }

    #[test]
    fn reads_respect_offset() {
        let mut buf = vec![0xAA, 0xBB];
        write_unsigned(&mut buf, 300);
        let (v, n) = read_unsigned(&buf, 2, 32).unwrap();
        assert_eq!(v, 300);
        assert_eq!(n, 2);
    }

    #[test]
    fn minimal_encodings_are_minimal() {
        let mut buf = Vec::new();
        write_unsigned(&mut buf, 0);
        assert_eq!(buf, [0x00]);
        buf.clear();
        write_unsigned(&mut buf, 127);
        assert_eq!(buf, [0x7F]);
        buf.clear();
        write_unsigned(&mut buf, 128);
        assert_eq!(buf, [0x80, 0x01]);
        buf.clear();
        write_signed(&mut buf, -1);
        assert_eq!(buf, [0x7F]);
        buf.clear();
        write_signed(&mut buf, 64);
        assert_eq!(buf, [0xC0, 0x00]);
    }
}
