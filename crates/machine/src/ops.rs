//! Scalar operation semantics shared by every execution tier.
//!
//! The in-place interpreter, the CPU simulator (executing baseline- or
//! optimizing-compiled code), and the compilers' constant folders all call
//! these functions, so a Wasm `i32.div_s` means exactly the same thing in
//! every tier — which is what makes cross-tier differential testing precise.
//!
//! All functions operate on raw 64-bit slot bits. 32-bit results are stored
//! zero-extended, matching the value-stack representation.

use crate::inst::{AluOp, CmpOp, ConvOp, FAluOp, FCmpOp, FUnOp, TrapCode, UnOp, Width};

#[inline]
fn mask(width: Width, v: u64) -> u64 {
    match width {
        Width::W32 => v as u32 as u64,
        Width::W64 => v,
    }
}

/// Evaluates an integer ALU operation on raw slot bits.
///
/// One switch on the operation, so the simulator's `Alu`/`AluImm` arms inline
/// it as a single jump. The low 32 bits of a 64-bit add, subtract, multiply
/// or bitwise result depend only on the low 32 bits of the operands, so those
/// arms compute at 64 bits and `mask` narrows; shifts and rotates, whose
/// 32-bit form is a different computation, branch on the width themselves.
/// Only the division arms can trap, and only they pay for the checks.
///
/// # Errors
///
/// Returns a trap code for division by zero and signed division overflow.
#[inline(always)]
pub fn eval_alu(op: AluOp, width: Width, a: u64, b: u64) -> Result<u64, TrapCode> {
    let w32 = width == Width::W32;
    let (a32, b32) = (a as u32, b as u32);
    let result = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Shl if w32 => a32.wrapping_shl(b32) as u64,
        AluOp::Shl => a.wrapping_shl(b32),
        AluOp::ShrS if w32 => (a32 as i32).wrapping_shr(b32) as u32 as u64,
        AluOp::ShrS => (a as i64).wrapping_shr(b32) as u64,
        AluOp::ShrU if w32 => a32.wrapping_shr(b32) as u64,
        AluOp::ShrU => a.wrapping_shr(b32),
        AluOp::Rotl if w32 => a32.rotate_left(b32 % 32) as u64,
        AluOp::Rotl => a.rotate_left((b % 64) as u32),
        AluOp::Rotr if w32 => a32.rotate_right(b32 % 32) as u64,
        AluOp::Rotr => a.rotate_right((b % 64) as u32),
        AluOp::DivS | AluOp::DivU | AluOp::RemS | AluOp::RemU => {
            return eval_division(op, width, a, b)
        }
    };
    Ok(mask(width, result))
}

/// The division and remainder arms of [`eval_alu`].
fn eval_division(op: AluOp, width: Width, a: u64, b: u64) -> Result<u64, TrapCode> {
    if mask(width, b) == 0 {
        return Err(TrapCode::DivisionByZero);
    }
    Ok(match width {
        Width::W32 => {
            let (ua, ub) = (a as u32, b as u32);
            let (sa, sb) = (ua as i32, ub as i32);
            let r = match op {
                AluOp::DivS if sa == i32::MIN && sb == -1 => {
                    return Err(TrapCode::IntegerOverflow)
                }
                AluOp::DivS => (sa / sb) as u32,
                AluOp::DivU => ua / ub,
                AluOp::RemS => sa.wrapping_rem(sb) as u32,
                // RemU: `eval_alu` sends only the four division operations.
                _ => ua % ub,
            };
            r as u64
        }
        Width::W64 => {
            let (sa, sb) = (a as i64, b as i64);
            match op {
                AluOp::DivS if sa == i64::MIN && sb == -1 => {
                    return Err(TrapCode::IntegerOverflow)
                }
                AluOp::DivS => (sa / sb) as u64,
                AluOp::DivU => a / b,
                AluOp::RemS => sa.wrapping_rem(sb) as u64,
                _ => a % b,
            }
        }
    })
}

/// Evaluates a single-operand integer operation.
pub fn eval_unop(op: UnOp, width: Width, v: u64) -> u64 {
    let r = match width {
        Width::W32 => {
            let v32 = v as u32;
            match op {
                UnOp::Clz => v32.leading_zeros() as u64,
                UnOp::Ctz => v32.trailing_zeros() as u64,
                UnOp::Popcnt => v32.count_ones() as u64,
                UnOp::Eqz => (v32 == 0) as u64,
                UnOp::Extend8S => (v32 as u8 as i8 as i32) as u32 as u64,
                UnOp::Extend16S => (v32 as u16 as i16 as i32) as u32 as u64,
                UnOp::Extend32S => v32 as u64,
            }
        }
        Width::W64 => match op {
            UnOp::Clz => v.leading_zeros() as u64,
            UnOp::Ctz => v.trailing_zeros() as u64,
            UnOp::Popcnt => v.count_ones() as u64,
            UnOp::Eqz => (v == 0) as u64,
            UnOp::Extend8S => (v as u8 as i8 as i64) as u64,
            UnOp::Extend16S => (v as u16 as i16 as i64) as u64,
            UnOp::Extend32S => (v as u32 as i32 as i64) as u64,
        },
    };
    mask(width, r)
}

/// Evaluates an integer comparison, producing 0 or 1.
#[inline(always)]
pub fn eval_cmp(op: CmpOp, width: Width, a: u64, b: u64) -> u64 {
    let result = match width {
        Width::W32 => {
            let (ua, ub) = (a as u32, b as u32);
            let (sa, sb) = (ua as i32, ub as i32);
            match op {
                CmpOp::Eq => ua == ub,
                CmpOp::Ne => ua != ub,
                CmpOp::LtS => sa < sb,
                CmpOp::LtU => ua < ub,
                CmpOp::GtS => sa > sb,
                CmpOp::GtU => ua > ub,
                CmpOp::LeS => sa <= sb,
                CmpOp::LeU => ua <= ub,
                CmpOp::GeS => sa >= sb,
                CmpOp::GeU => ua >= ub,
            }
        }
        Width::W64 => {
            let (sa, sb) = (a as i64, b as i64);
            match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::LtS => sa < sb,
                CmpOp::LtU => a < b,
                CmpOp::GtS => sa > sb,
                CmpOp::GtU => a > b,
                CmpOp::LeS => sa <= sb,
                CmpOp::LeU => a <= b,
                CmpOp::GeS => sa >= sb,
                CmpOp::GeU => a >= b,
            }
        }
    };
    result as u64
}

/// Extends the `width` (1, 2, 4 or 8) little-endian bytes a linear-memory
/// load read, held in the low bits of `raw`, into a `dst_width` register
/// value: sign-extended when `signed`, then zero-extended from `dst_width`
/// as every 32-bit value is.
pub fn extend_loaded(raw: u64, width: u32, signed: bool, dst_width: Width) -> u64 {
    let value = if signed {
        match width {
            1 => raw as u8 as i8 as i64 as u64,
            2 => raw as u16 as i16 as i64 as u64,
            4 => raw as u32 as i32 as i64 as u64,
            _ => raw,
        }
    } else {
        raw
    };
    mask(dst_width, value)
}

fn f32_of(bits: u64) -> f32 {
    f32::from_bits(bits as u32)
}

fn f64_of(bits: u64) -> f64 {
    f64::from_bits(bits)
}

fn bits_of_f32(v: f32) -> u64 {
    v.to_bits() as u64
}

fn bits_of_f64(v: f64) -> u64 {
    v.to_bits()
}

fn wasm_min_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == 0.0 && b == 0.0 {
        if a.is_sign_negative() || b.is_sign_negative() {
            -0.0
        } else {
            0.0
        }
    } else {
        a.min(b)
    }
}

fn wasm_max_f64(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else if a == 0.0 && b == 0.0 {
        if a.is_sign_positive() || b.is_sign_positive() {
            0.0
        } else {
            -0.0
        }
    } else {
        a.max(b)
    }
}

/// Evaluates a two-operand floating-point operation on raw bits.
pub fn eval_falu(op: FAluOp, width: Width, a: u64, b: u64) -> u64 {
    match width {
        Width::W32 => {
            let (x, y) = (f32_of(a), f32_of(b));
            let r = match op {
                FAluOp::Add => x + y,
                FAluOp::Sub => x - y,
                FAluOp::Mul => x * y,
                FAluOp::Div => x / y,
                FAluOp::Min => wasm_min_f64(x as f64, y as f64) as f32,
                FAluOp::Max => wasm_max_f64(x as f64, y as f64) as f32,
                FAluOp::Copysign => x.copysign(y),
            };
            bits_of_f32(r)
        }
        Width::W64 => {
            let (x, y) = (f64_of(a), f64_of(b));
            let r = match op {
                FAluOp::Add => x + y,
                FAluOp::Sub => x - y,
                FAluOp::Mul => x * y,
                FAluOp::Div => x / y,
                FAluOp::Min => wasm_min_f64(x, y),
                FAluOp::Max => wasm_max_f64(x, y),
                FAluOp::Copysign => x.copysign(y),
            };
            bits_of_f64(r)
        }
    }
}

/// Evaluates a single-operand floating-point operation on raw bits.
pub fn eval_funop(op: FUnOp, width: Width, v: u64) -> u64 {
    match width {
        Width::W32 => {
            let x = f32_of(v);
            let r = match op {
                FUnOp::Abs => x.abs(),
                FUnOp::Neg => -x,
                FUnOp::Ceil => x.ceil(),
                FUnOp::Floor => x.floor(),
                FUnOp::Trunc => x.trunc(),
                FUnOp::Nearest => x.round_ties_even(),
                FUnOp::Sqrt => x.sqrt(),
            };
            bits_of_f32(r)
        }
        Width::W64 => {
            let x = f64_of(v);
            let r = match op {
                FUnOp::Abs => x.abs(),
                FUnOp::Neg => -x,
                FUnOp::Ceil => x.ceil(),
                FUnOp::Floor => x.floor(),
                FUnOp::Trunc => x.trunc(),
                FUnOp::Nearest => x.round_ties_even(),
                FUnOp::Sqrt => x.sqrt(),
            };
            bits_of_f64(r)
        }
    }
}

/// Evaluates a floating-point comparison, producing 0 or 1.
pub fn eval_fcmp(op: FCmpOp, width: Width, a: u64, b: u64) -> u64 {
    let (x, y) = match width {
        Width::W32 => (f32_of(a) as f64, f32_of(b) as f64),
        Width::W64 => (f64_of(a), f64_of(b)),
    };
    let result = match op {
        FCmpOp::Eq => x == y,
        FCmpOp::Ne => x != y,
        FCmpOp::Lt => x < y,
        FCmpOp::Gt => x > y,
        FCmpOp::Le => x <= y,
        FCmpOp::Ge => x >= y,
    };
    result as u64
}

fn trunc_to_int(v: f64, min: f64, max: f64) -> Result<f64, TrapCode> {
    if v.is_nan() {
        return Err(TrapCode::InvalidConversionToInteger);
    }
    let t = v.trunc();
    if t < min || t > max {
        return Err(TrapCode::IntegerOverflow);
    }
    Ok(t)
}

/// Evaluates a numeric conversion on raw bits.
///
/// # Errors
///
/// Returns a trap code for float-to-integer truncations of NaN or
/// out-of-range values.
pub fn eval_convert(op: ConvOp, v: u64) -> Result<u64, TrapCode> {
    use ConvOp::*;
    Ok(match op {
        I32WrapI64 => v as u32 as u64,
        I64ExtendI32S => (v as u32 as i32 as i64) as u64,
        I64ExtendI32U => v as u32 as u64,
        I32TruncF32S => {
            trunc_to_int(f32_of(v) as f64, -2147483648.0, 2147483647.0)? as i32 as u32 as u64
        }
        I32TruncF32U => trunc_to_int(f32_of(v) as f64, 0.0, 4294967295.0)? as u32 as u64,
        I32TruncF64S => {
            trunc_to_int(f64_of(v), -2147483648.0, 2147483647.0)? as i32 as u32 as u64
        }
        I32TruncF64U => trunc_to_int(f64_of(v), 0.0, 4294967295.0)? as u32 as u64,
        I64TruncF32S => {
            trunc_to_int(f32_of(v) as f64, -9223372036854775808.0, 9223372036854774784.0)? as i64
                as u64
        }
        I64TruncF32U => {
            trunc_to_int(f32_of(v) as f64, 0.0, 18446744073709549568.0)? as u64
        }
        I64TruncF64S => {
            trunc_to_int(f64_of(v), -9223372036854775808.0, 9223372036854774784.0)? as i64 as u64
        }
        I64TruncF64U => trunc_to_int(f64_of(v), 0.0, 18446744073709549568.0)? as u64,
        F32ConvertI32S => bits_of_f32(v as u32 as i32 as f32),
        F32ConvertI32U => bits_of_f32(v as u32 as f32),
        F32ConvertI64S => bits_of_f32(v as i64 as f32),
        F32ConvertI64U => bits_of_f32(v as f32),
        F64ConvertI32S => bits_of_f64(v as u32 as i32 as f64),
        F64ConvertI32U => bits_of_f64(v as u32 as f64),
        F64ConvertI64S => bits_of_f64(v as i64 as f64),
        F64ConvertI64U => bits_of_f64(v as f64),
        F32DemoteF64 => bits_of_f32(f64_of(v) as f32),
        F64PromoteF32 => bits_of_f64(f32_of(v) as f64),
        I32ReinterpretF32 => v as u32 as u64,
        I64ReinterpretF64 => v,
        F32ReinterpretI32 => v as u32 as u64,
        F64ReinterpretI64 => v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b32(v: i32) -> u64 {
        v as u32 as u64
    }

    #[test]
    fn alu_32_bit_wrapping_and_masking() {
        assert_eq!(eval_alu(AluOp::Add, Width::W32, b32(-1), b32(1)).unwrap(), 0);
        assert_eq!(
            eval_alu(AluOp::Add, Width::W32, b32(i32::MAX), 1).unwrap(),
            b32(i32::MIN)
        );
        assert_eq!(eval_alu(AluOp::Sub, Width::W32, 0, 1).unwrap(), b32(-1));
        assert_eq!(
            eval_alu(AluOp::Mul, Width::W32, b32(65536), b32(65536)).unwrap(),
            0
        );
        // Results must be zero-extended to 64 bits.
        assert_eq!(
            eval_alu(AluOp::Add, Width::W32, b32(-2), b32(1)).unwrap() >> 32,
            0
        );
    }

    #[test]
    fn alu_32_bit_ignores_the_upper_operand_halves() {
        let junk = 0xDEAD_BEEF_0000_0000u64;
        for op in AluOp::ALL {
            for (a, b) in [(7u64, 3u64), (0x8000_0000, 33), (u32::MAX as u64, u32::MAX as u64)] {
                let clean = eval_alu(op, Width::W32, a, b);
                assert_eq!(eval_alu(op, Width::W32, a | junk, b | junk), clean, "{op:?}");
                assert_eq!(clean.unwrap() >> 32, 0, "{op:?} result is zero-extended");
            }
        }
    }

    #[test]
    fn division_traps() {
        assert_eq!(
            eval_alu(AluOp::DivS, Width::W32, 1, 0),
            Err(TrapCode::DivisionByZero)
        );
        assert_eq!(
            eval_alu(AluOp::DivS, Width::W32, b32(i32::MIN), b32(-1)),
            Err(TrapCode::IntegerOverflow)
        );
        assert_eq!(
            eval_alu(AluOp::RemS, Width::W32, b32(i32::MIN), b32(-1)).unwrap(),
            0,
            "rem of MIN by -1 is defined as 0"
        );
        assert_eq!(
            eval_alu(AluOp::DivU, Width::W64, 10, 3).unwrap(),
            3
        );
        assert_eq!(
            eval_alu(AluOp::DivS, Width::W64, (-9i64) as u64, 2).unwrap(),
            (-4i64) as u64
        );
    }

    #[test]
    fn shifts_mask_their_counts() {
        assert_eq!(eval_alu(AluOp::Shl, Width::W32, 1, 33).unwrap(), 2);
        assert_eq!(eval_alu(AluOp::ShrU, Width::W32, 4, 33).unwrap(), 2);
        assert_eq!(
            eval_alu(AluOp::ShrS, Width::W32, b32(-8), 1).unwrap(),
            b32(-4)
        );
        assert_eq!(eval_alu(AluOp::Shl, Width::W64, 1, 65).unwrap(), 2);
        assert_eq!(eval_alu(AluOp::Rotl, Width::W32, 0x8000_0001, 1).unwrap(), 3);
        assert_eq!(
            eval_alu(AluOp::Rotr, Width::W64, 1, 1).unwrap(),
            0x8000_0000_0000_0000
        );
    }

    #[test]
    fn unops() {
        assert_eq!(eval_unop(UnOp::Clz, Width::W32, 1), 31);
        assert_eq!(eval_unop(UnOp::Clz, Width::W32, 0), 32);
        assert_eq!(eval_unop(UnOp::Ctz, Width::W64, 0), 64);
        assert_eq!(eval_unop(UnOp::Popcnt, Width::W32, 0xFF), 8);
        assert_eq!(eval_unop(UnOp::Eqz, Width::W32, 0), 1);
        assert_eq!(eval_unop(UnOp::Eqz, Width::W64, 5), 0);
        assert_eq!(eval_unop(UnOp::Extend8S, Width::W32, 0x80), b32(-128));
        assert_eq!(eval_unop(UnOp::Extend16S, Width::W32, 0x8000), b32(-32768));
        assert_eq!(
            eval_unop(UnOp::Extend32S, Width::W64, 0x8000_0000),
            (-2147483648i64) as u64
        );
    }

    #[test]
    fn comparisons_signed_vs_unsigned() {
        assert_eq!(eval_cmp(CmpOp::LtS, Width::W32, b32(-1), b32(1)), 1);
        assert_eq!(eval_cmp(CmpOp::LtU, Width::W32, b32(-1), b32(1)), 0);
        assert_eq!(eval_cmp(CmpOp::GeU, Width::W64, u64::MAX, 0), 1);
        assert_eq!(eval_cmp(CmpOp::GeS, Width::W64, u64::MAX, 0), 0);
        assert_eq!(eval_cmp(CmpOp::Eq, Width::W32, 7, 7), 1);
        assert_eq!(eval_cmp(CmpOp::Ne, Width::W32, 7, 7), 0);
    }

    #[test]
    fn float_arithmetic_and_special_values() {
        let a = bits_of_f64(1.5);
        let b = bits_of_f64(2.25);
        assert_eq!(f64_of(eval_falu(FAluOp::Add, Width::W64, a, b)), 3.75);
        assert_eq!(f64_of(eval_falu(FAluOp::Div, Width::W64, a, bits_of_f64(0.0))), f64::INFINITY);
        // NaN propagation in min/max.
        let nan = bits_of_f64(f64::NAN);
        assert!(f64_of(eval_falu(FAluOp::Min, Width::W64, nan, b)).is_nan());
        assert!(f64_of(eval_falu(FAluOp::Max, Width::W64, a, nan)).is_nan());
        // Signed zero handling.
        let nz = bits_of_f64(-0.0);
        let pz = bits_of_f64(0.0);
        assert!(f64_of(eval_falu(FAluOp::Min, Width::W64, pz, nz)).is_sign_negative());
        assert!(f64_of(eval_falu(FAluOp::Max, Width::W64, pz, nz)).is_sign_positive());
        // Copysign.
        assert_eq!(
            f64_of(eval_falu(FAluOp::Copysign, Width::W64, a, nz)),
            -1.5
        );
        // f32 path.
        let x = bits_of_f32(3.0);
        let y = bits_of_f32(0.5);
        assert_eq!(f32_of(eval_falu(FAluOp::Mul, Width::W32, x, y)), 1.5);
    }

    #[test]
    fn float_unops_and_rounding() {
        assert_eq!(f64_of(eval_funop(FUnOp::Abs, Width::W64, bits_of_f64(-2.0))), 2.0);
        assert_eq!(f64_of(eval_funop(FUnOp::Neg, Width::W64, bits_of_f64(2.0))), -2.0);
        assert_eq!(f64_of(eval_funop(FUnOp::Ceil, Width::W64, bits_of_f64(1.2))), 2.0);
        assert_eq!(f64_of(eval_funop(FUnOp::Floor, Width::W64, bits_of_f64(-1.2))), -2.0);
        assert_eq!(f64_of(eval_funop(FUnOp::Trunc, Width::W64, bits_of_f64(-1.7))), -1.0);
        // Ties to even.
        assert_eq!(f64_of(eval_funop(FUnOp::Nearest, Width::W64, bits_of_f64(2.5))), 2.0);
        assert_eq!(f64_of(eval_funop(FUnOp::Nearest, Width::W64, bits_of_f64(3.5))), 4.0);
        assert_eq!(f64_of(eval_funop(FUnOp::Sqrt, Width::W64, bits_of_f64(9.0))), 3.0);
        assert_eq!(f32_of(eval_funop(FUnOp::Sqrt, Width::W32, bits_of_f32(4.0))), 2.0);
    }

    #[test]
    fn float_comparisons_with_nan() {
        let nan = bits_of_f64(f64::NAN);
        let one = bits_of_f64(1.0);
        assert_eq!(eval_fcmp(FCmpOp::Eq, Width::W64, nan, nan), 0);
        assert_eq!(eval_fcmp(FCmpOp::Ne, Width::W64, nan, one), 1);
        assert_eq!(eval_fcmp(FCmpOp::Lt, Width::W64, nan, one), 0);
        assert_eq!(eval_fcmp(FCmpOp::Le, Width::W64, one, one), 1);
        assert_eq!(
            eval_fcmp(FCmpOp::Gt, Width::W32, bits_of_f32(2.0), bits_of_f32(1.0)),
            1
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(
            eval_convert(ConvOp::I32WrapI64, 0x1_0000_0005).unwrap(),
            5
        );
        assert_eq!(
            eval_convert(ConvOp::I64ExtendI32S, b32(-3)).unwrap(),
            (-3i64) as u64
        );
        assert_eq!(eval_convert(ConvOp::I64ExtendI32U, b32(-3)).unwrap(), 0xFFFF_FFFD);
        assert_eq!(
            eval_convert(ConvOp::I32TruncF64S, bits_of_f64(-3.9)).unwrap(),
            b32(-3)
        );
        assert_eq!(
            eval_convert(ConvOp::I32TruncF64S, bits_of_f64(f64::NAN)),
            Err(TrapCode::InvalidConversionToInteger)
        );
        assert_eq!(
            eval_convert(ConvOp::I32TruncF64S, bits_of_f64(3e10)),
            Err(TrapCode::IntegerOverflow)
        );
        assert_eq!(
            eval_convert(ConvOp::I32TruncF64U, bits_of_f64(-1.0)),
            Err(TrapCode::IntegerOverflow)
        );
        assert_eq!(
            f64_of(eval_convert(ConvOp::F64ConvertI32S, b32(-2)).unwrap()),
            -2.0
        );
        assert_eq!(
            f64_of(eval_convert(ConvOp::F64ConvertI32U, b32(-2)).unwrap()),
            4294967294.0
        );
        assert_eq!(
            f32_of(eval_convert(ConvOp::F32DemoteF64, bits_of_f64(1.5)).unwrap()),
            1.5
        );
        assert_eq!(
            f64_of(eval_convert(ConvOp::F64PromoteF32, bits_of_f32(2.5)).unwrap()),
            2.5
        );
        // Reinterpretations preserve bits.
        assert_eq!(
            eval_convert(ConvOp::I64ReinterpretF64, bits_of_f64(1.0)).unwrap(),
            bits_of_f64(1.0)
        );
        assert_eq!(
            eval_convert(ConvOp::F32ReinterpretI32, 0x3F80_0000).unwrap(),
            bits_of_f32(1.0)
        );
    }

    #[test]
    fn i64_trunc_large_values() {
        assert_eq!(
            eval_convert(ConvOp::I64TruncF64S, bits_of_f64(-1e15)).unwrap(),
            (-1_000_000_000_000_000i64) as u64
        );
        assert!(eval_convert(ConvOp::I64TruncF64U, bits_of_f64(1e20)).is_err());
        assert_eq!(
            eval_convert(ConvOp::I64TruncF64U, bits_of_f64(1e15)).unwrap(),
            1_000_000_000_000_000
        );
    }
}
