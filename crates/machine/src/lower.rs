//! Classification of Wasm opcodes into target-machine operation classes.
//!
//! Both the single-pass compiler and the in-place interpreter need to know,
//! for a given Wasm opcode, which ALU/compare/convert operation it denotes and
//! at what width. Centralizing the mapping here keeps the tiers semantically
//! identical and gives the compilers' constant folders a single evaluation
//! path (via [`crate::ops`]).

use crate::inst::{AluOp, CmpOp, ConvOp, FAluOp, FCmpOp, FUnOp, UnOp, Width};
use crate::ops;
use crate::inst::TrapCode;
use wasm::opcode::Opcode;
use wasm::types::ValueType;

/// The machine-level class of a simple (non-control) Wasm value instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Two-operand integer arithmetic.
    Alu(AluOp, Width),
    /// One-operand integer arithmetic.
    Unop(UnOp, Width),
    /// Integer comparison (result is i32).
    Cmp(CmpOp, Width),
    /// Two-operand float arithmetic.
    FAlu(FAluOp, Width),
    /// One-operand float arithmetic.
    FUnop(FUnOp, Width),
    /// Float comparison (result is i32).
    FCmp(FCmpOp, Width),
    /// Numeric conversion.
    Convert(ConvOp),
}

impl OpClass {
    /// The value type of the operation's operands.
    pub fn operand_type(&self) -> ValueType {
        match self {
            OpClass::Alu(_, w) | OpClass::Unop(_, w) | OpClass::Cmp(_, w) => int_type(*w),
            OpClass::FAlu(_, w) | OpClass::FUnop(_, w) | OpClass::FCmp(_, w) => float_type(*w),
            OpClass::Convert(c) => conv_src_type(*c),
        }
    }

    /// The value type of the operation's result.
    pub fn result_type(&self) -> ValueType {
        match self {
            // eqz produces an i32 boolean regardless of its operand width.
            OpClass::Unop(UnOp::Eqz, _) => ValueType::I32,
            OpClass::Alu(_, w) | OpClass::Unop(_, w) => int_type(*w),
            OpClass::Cmp(..) | OpClass::FCmp(..) => ValueType::I32,
            OpClass::FAlu(_, w) | OpClass::FUnop(_, w) => float_type(*w),
            OpClass::Convert(c) => conv_dst_type(*c),
        }
    }

    /// The number of operands popped from the stack.
    pub fn arity(&self) -> usize {
        match self {
            OpClass::Alu(..) | OpClass::Cmp(..) | OpClass::FAlu(..) | OpClass::FCmp(..) => 2,
            OpClass::Unop(..) | OpClass::FUnop(..) | OpClass::Convert(..) => 1,
        }
    }

    /// True if evaluating this operation can trap.
    pub fn can_trap(&self) -> bool {
        match self {
            OpClass::Alu(op, _) => op.is_division(),
            OpClass::Convert(c) => c.can_trap(),
            _ => false,
        }
    }

    /// Constant-evaluates this operation on raw slot bits. Used by the
    /// compilers' constant folding and by the interpreter's one shared arm
    /// for float arithmetic, float compares and conversions (its integer
    /// opcodes call [`ops`] directly, an arm each).
    ///
    /// # Errors
    ///
    /// Returns the trap this operation would raise at runtime.
    pub fn evaluate(&self, operands: &[u64]) -> Result<u64, TrapCode> {
        match *self {
            OpClass::Alu(op, w) => ops::eval_alu(op, w, operands[0], operands[1]),
            OpClass::Unop(op, w) => Ok(ops::eval_unop(op, w, operands[0])),
            OpClass::Cmp(op, w) => Ok(ops::eval_cmp(op, w, operands[0], operands[1])),
            OpClass::FAlu(op, w) => Ok(ops::eval_falu(op, w, operands[0], operands[1])),
            OpClass::FUnop(op, w) => Ok(ops::eval_funop(op, w, operands[0])),
            OpClass::FCmp(op, w) => Ok(ops::eval_fcmp(op, w, operands[0], operands[1])),
            OpClass::Convert(c) => ops::eval_convert(c, operands[0]),
        }
    }
}

fn int_type(w: Width) -> ValueType {
    match w {
        Width::W32 => ValueType::I32,
        Width::W64 => ValueType::I64,
    }
}

fn float_type(w: Width) -> ValueType {
    match w {
        Width::W32 => ValueType::F32,
        Width::W64 => ValueType::F64,
    }
}

/// The source value type of a conversion.
fn conv_src_type(op: ConvOp) -> ValueType {
    use ConvOp::*;
    match op {
        I32WrapI64 | F32ConvertI64S | F32ConvertI64U | F64ConvertI64S | F64ConvertI64U
        | F64ReinterpretI64 => ValueType::I64,
        I64ExtendI32S | I64ExtendI32U | F32ConvertI32S | F32ConvertI32U | F64ConvertI32S
        | F64ConvertI32U | F32ReinterpretI32 => ValueType::I32,
        I32TruncF32S | I32TruncF32U | I64TruncF32S | I64TruncF32U | F64PromoteF32
        | I32ReinterpretF32 => ValueType::F32,
        I32TruncF64S | I32TruncF64U | I64TruncF64S | I64TruncF64U | F32DemoteF64
        | I64ReinterpretF64 => ValueType::F64,
    }
}

/// The destination value type of a conversion.
fn conv_dst_type(op: ConvOp) -> ValueType {
    use ConvOp::*;
    match op {
        I32WrapI64 | I32TruncF32S | I32TruncF32U | I32TruncF64S | I32TruncF64U
        | I32ReinterpretF32 => ValueType::I32,
        I64ExtendI32S | I64ExtendI32U | I64TruncF32S | I64TruncF32U | I64TruncF64S
        | I64TruncF64U | I64ReinterpretF64 => ValueType::I64,
        F32ConvertI32S | F32ConvertI32U | F32ConvertI64S | F32ConvertI64U | F32DemoteF64
        | F32ReinterpretI32 => ValueType::F32,
        F64ConvertI32S | F64ConvertI32U | F64ConvertI64S | F64ConvertI64U | F64PromoteF32
        | F64ReinterpretI64 => ValueType::F64,
    }
}

/// Classifies a Wasm opcode into its machine operation class, or `None` for
/// control-flow, memory, variable, and other "special" instructions.
pub fn classify(op: Opcode) -> Option<OpClass> {
    use Opcode::*;
    use Width::{W32, W64};
    Some(match op {
        // i32 unary / comparisons.
        I32Eqz => OpClass::Unop(UnOp::Eqz, W32),
        I32Clz => OpClass::Unop(UnOp::Clz, W32),
        I32Ctz => OpClass::Unop(UnOp::Ctz, W32),
        I32Popcnt => OpClass::Unop(UnOp::Popcnt, W32),
        I32Extend8S => OpClass::Unop(UnOp::Extend8S, W32),
        I32Extend16S => OpClass::Unop(UnOp::Extend16S, W32),
        I32Eq => OpClass::Cmp(CmpOp::Eq, W32),
        I32Ne => OpClass::Cmp(CmpOp::Ne, W32),
        I32LtS => OpClass::Cmp(CmpOp::LtS, W32),
        I32LtU => OpClass::Cmp(CmpOp::LtU, W32),
        I32GtS => OpClass::Cmp(CmpOp::GtS, W32),
        I32GtU => OpClass::Cmp(CmpOp::GtU, W32),
        I32LeS => OpClass::Cmp(CmpOp::LeS, W32),
        I32LeU => OpClass::Cmp(CmpOp::LeU, W32),
        I32GeS => OpClass::Cmp(CmpOp::GeS, W32),
        I32GeU => OpClass::Cmp(CmpOp::GeU, W32),
        // i32 binary.
        I32Add => OpClass::Alu(AluOp::Add, W32),
        I32Sub => OpClass::Alu(AluOp::Sub, W32),
        I32Mul => OpClass::Alu(AluOp::Mul, W32),
        I32DivS => OpClass::Alu(AluOp::DivS, W32),
        I32DivU => OpClass::Alu(AluOp::DivU, W32),
        I32RemS => OpClass::Alu(AluOp::RemS, W32),
        I32RemU => OpClass::Alu(AluOp::RemU, W32),
        I32And => OpClass::Alu(AluOp::And, W32),
        I32Or => OpClass::Alu(AluOp::Or, W32),
        I32Xor => OpClass::Alu(AluOp::Xor, W32),
        I32Shl => OpClass::Alu(AluOp::Shl, W32),
        I32ShrS => OpClass::Alu(AluOp::ShrS, W32),
        I32ShrU => OpClass::Alu(AluOp::ShrU, W32),
        I32Rotl => OpClass::Alu(AluOp::Rotl, W32),
        I32Rotr => OpClass::Alu(AluOp::Rotr, W32),
        // i64 unary / comparisons.
        I64Eqz => OpClass::Unop(UnOp::Eqz, W64),
        I64Clz => OpClass::Unop(UnOp::Clz, W64),
        I64Ctz => OpClass::Unop(UnOp::Ctz, W64),
        I64Popcnt => OpClass::Unop(UnOp::Popcnt, W64),
        I64Extend8S => OpClass::Unop(UnOp::Extend8S, W64),
        I64Extend16S => OpClass::Unop(UnOp::Extend16S, W64),
        I64Extend32S => OpClass::Unop(UnOp::Extend32S, W64),
        I64Eq => OpClass::Cmp(CmpOp::Eq, W64),
        I64Ne => OpClass::Cmp(CmpOp::Ne, W64),
        I64LtS => OpClass::Cmp(CmpOp::LtS, W64),
        I64LtU => OpClass::Cmp(CmpOp::LtU, W64),
        I64GtS => OpClass::Cmp(CmpOp::GtS, W64),
        I64GtU => OpClass::Cmp(CmpOp::GtU, W64),
        I64LeS => OpClass::Cmp(CmpOp::LeS, W64),
        I64LeU => OpClass::Cmp(CmpOp::LeU, W64),
        I64GeS => OpClass::Cmp(CmpOp::GeS, W64),
        I64GeU => OpClass::Cmp(CmpOp::GeU, W64),
        // i64 binary.
        I64Add => OpClass::Alu(AluOp::Add, W64),
        I64Sub => OpClass::Alu(AluOp::Sub, W64),
        I64Mul => OpClass::Alu(AluOp::Mul, W64),
        I64DivS => OpClass::Alu(AluOp::DivS, W64),
        I64DivU => OpClass::Alu(AluOp::DivU, W64),
        I64RemS => OpClass::Alu(AluOp::RemS, W64),
        I64RemU => OpClass::Alu(AluOp::RemU, W64),
        I64And => OpClass::Alu(AluOp::And, W64),
        I64Or => OpClass::Alu(AluOp::Or, W64),
        I64Xor => OpClass::Alu(AluOp::Xor, W64),
        I64Shl => OpClass::Alu(AluOp::Shl, W64),
        I64ShrS => OpClass::Alu(AluOp::ShrS, W64),
        I64ShrU => OpClass::Alu(AluOp::ShrU, W64),
        I64Rotl => OpClass::Alu(AluOp::Rotl, W64),
        I64Rotr => OpClass::Alu(AluOp::Rotr, W64),
        // f32.
        F32Eq => OpClass::FCmp(FCmpOp::Eq, W32),
        F32Ne => OpClass::FCmp(FCmpOp::Ne, W32),
        F32Lt => OpClass::FCmp(FCmpOp::Lt, W32),
        F32Gt => OpClass::FCmp(FCmpOp::Gt, W32),
        F32Le => OpClass::FCmp(FCmpOp::Le, W32),
        F32Ge => OpClass::FCmp(FCmpOp::Ge, W32),
        F32Abs => OpClass::FUnop(FUnOp::Abs, W32),
        F32Neg => OpClass::FUnop(FUnOp::Neg, W32),
        F32Ceil => OpClass::FUnop(FUnOp::Ceil, W32),
        F32Floor => OpClass::FUnop(FUnOp::Floor, W32),
        F32Trunc => OpClass::FUnop(FUnOp::Trunc, W32),
        F32Nearest => OpClass::FUnop(FUnOp::Nearest, W32),
        F32Sqrt => OpClass::FUnop(FUnOp::Sqrt, W32),
        F32Add => OpClass::FAlu(FAluOp::Add, W32),
        F32Sub => OpClass::FAlu(FAluOp::Sub, W32),
        F32Mul => OpClass::FAlu(FAluOp::Mul, W32),
        F32Div => OpClass::FAlu(FAluOp::Div, W32),
        F32Min => OpClass::FAlu(FAluOp::Min, W32),
        F32Max => OpClass::FAlu(FAluOp::Max, W32),
        F32Copysign => OpClass::FAlu(FAluOp::Copysign, W32),
        // f64.
        F64Eq => OpClass::FCmp(FCmpOp::Eq, W64),
        F64Ne => OpClass::FCmp(FCmpOp::Ne, W64),
        F64Lt => OpClass::FCmp(FCmpOp::Lt, W64),
        F64Gt => OpClass::FCmp(FCmpOp::Gt, W64),
        F64Le => OpClass::FCmp(FCmpOp::Le, W64),
        F64Ge => OpClass::FCmp(FCmpOp::Ge, W64),
        F64Abs => OpClass::FUnop(FUnOp::Abs, W64),
        F64Neg => OpClass::FUnop(FUnOp::Neg, W64),
        F64Ceil => OpClass::FUnop(FUnOp::Ceil, W64),
        F64Floor => OpClass::FUnop(FUnOp::Floor, W64),
        F64Trunc => OpClass::FUnop(FUnOp::Trunc, W64),
        F64Nearest => OpClass::FUnop(FUnOp::Nearest, W64),
        F64Sqrt => OpClass::FUnop(FUnOp::Sqrt, W64),
        F64Add => OpClass::FAlu(FAluOp::Add, W64),
        F64Sub => OpClass::FAlu(FAluOp::Sub, W64),
        F64Mul => OpClass::FAlu(FAluOp::Mul, W64),
        F64Div => OpClass::FAlu(FAluOp::Div, W64),
        F64Min => OpClass::FAlu(FAluOp::Min, W64),
        F64Max => OpClass::FAlu(FAluOp::Max, W64),
        F64Copysign => OpClass::FAlu(FAluOp::Copysign, W64),
        // Conversions.
        I32WrapI64 => OpClass::Convert(ConvOp::I32WrapI64),
        I32TruncF32S => OpClass::Convert(ConvOp::I32TruncF32S),
        I32TruncF32U => OpClass::Convert(ConvOp::I32TruncF32U),
        I32TruncF64S => OpClass::Convert(ConvOp::I32TruncF64S),
        I32TruncF64U => OpClass::Convert(ConvOp::I32TruncF64U),
        I64ExtendI32S => OpClass::Convert(ConvOp::I64ExtendI32S),
        I64ExtendI32U => OpClass::Convert(ConvOp::I64ExtendI32U),
        I64TruncF32S => OpClass::Convert(ConvOp::I64TruncF32S),
        I64TruncF32U => OpClass::Convert(ConvOp::I64TruncF32U),
        I64TruncF64S => OpClass::Convert(ConvOp::I64TruncF64S),
        I64TruncF64U => OpClass::Convert(ConvOp::I64TruncF64U),
        F32ConvertI32S => OpClass::Convert(ConvOp::F32ConvertI32S),
        F32ConvertI32U => OpClass::Convert(ConvOp::F32ConvertI32U),
        F32ConvertI64S => OpClass::Convert(ConvOp::F32ConvertI64S),
        F32ConvertI64U => OpClass::Convert(ConvOp::F32ConvertI64U),
        F32DemoteF64 => OpClass::Convert(ConvOp::F32DemoteF64),
        F64ConvertI32S => OpClass::Convert(ConvOp::F64ConvertI32S),
        F64ConvertI32U => OpClass::Convert(ConvOp::F64ConvertI32U),
        F64ConvertI64S => OpClass::Convert(ConvOp::F64ConvertI64S),
        F64ConvertI64U => OpClass::Convert(ConvOp::F64ConvertI64U),
        F64PromoteF32 => OpClass::Convert(ConvOp::F64PromoteF32),
        I32ReinterpretF32 => OpClass::Convert(ConvOp::I32ReinterpretF32),
        I64ReinterpretF64 => OpClass::Convert(ConvOp::I64ReinterpretF64),
        F32ReinterpretI32 => OpClass::Convert(ConvOp::F32ReinterpretI32),
        F64ReinterpretI64 => OpClass::Convert(ConvOp::F64ReinterpretI64),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm::opcode::OpSignature;

    #[test]
    fn classification_matches_opcode_signatures() {
        // Every opcode with a simple Unary/Binary signature must classify, and
        // its operand/result types must agree with the opcode's signature.
        for &op in Opcode::ALL {
            if op == Opcode::RefIsNull {
                // ref.is_null is handled specially by the tiers (null check
                // against the reference encoding), not as a machine unop.
                assert_eq!(classify(op), None);
                continue;
            }
            match op.signature() {
                OpSignature::Unary(input, output) => {
                    let class = classify(op).unwrap_or_else(|| panic!("{op} must classify"));
                    assert_eq!(class.arity(), 1, "{op}");
                    assert_eq!(class.operand_type(), input, "{op}");
                    assert_eq!(class.result_type(), output, "{op}");
                }
                OpSignature::Binary(input, output) => {
                    let class = classify(op).unwrap_or_else(|| panic!("{op} must classify"));
                    assert_eq!(class.arity(), 2, "{op}");
                    assert_eq!(class.operand_type(), input, "{op}");
                    assert_eq!(class.result_type(), output, "{op}");
                }
                _ => {
                    // Special opcodes (except eqz/ref ops handled elsewhere)
                    // must not classify as simple operations.
                    if !matches!(
                        op,
                        Opcode::I32Eqz | Opcode::I64Eqz | Opcode::RefIsNull
                    ) {
                        if let OpSignature::Special | OpSignature::Const(_) = op.signature() {
                            assert!(
                                classify(op).is_none()
                                    || matches!(op.signature(), OpSignature::Special),
                                "{op}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn eqz_classifies_as_unop() {
        assert_eq!(classify(Opcode::I32Eqz), Some(OpClass::Unop(UnOp::Eqz, Width::W32)));
        assert_eq!(classify(Opcode::I64Eqz), Some(OpClass::Unop(UnOp::Eqz, Width::W64)));
        assert_eq!(classify(Opcode::I64Eqz).unwrap().result_type(), ValueType::I32);
    }

    #[test]
    fn control_and_memory_do_not_classify() {
        for op in [
            Opcode::Block,
            Opcode::Br,
            Opcode::Call,
            Opcode::LocalGet,
            Opcode::I32Load,
            Opcode::I32Store,
            Opcode::I32Const,
            Opcode::MemoryGrow,
            Opcode::Drop,
            Opcode::Select,
        ] {
            assert_eq!(classify(op), None, "{op}");
        }
    }

    #[test]
    fn evaluate_matches_ops() {
        let add = classify(Opcode::I32Add).unwrap();
        assert_eq!(add.evaluate(&[7, 8]).unwrap(), 15);
        let div = classify(Opcode::I32DivU).unwrap();
        assert_eq!(div.evaluate(&[8, 0]), Err(TrapCode::DivisionByZero));
        assert!(div.can_trap());
        assert!(!add.can_trap());
        let trunc = classify(Opcode::I32TruncF64S).unwrap();
        assert!(trunc.can_trap());
        let sqrt = classify(Opcode::F64Sqrt).unwrap();
        assert_eq!(sqrt.evaluate(&[16.0f64.to_bits()]).unwrap(), 4.0f64.to_bits());
    }

    #[test]
    fn conversion_types() {
        let c = classify(Opcode::F64ConvertI32S).unwrap();
        assert_eq!(c.operand_type(), ValueType::I32);
        assert_eq!(c.result_type(), ValueType::F64);
        let c = classify(Opcode::I32WrapI64).unwrap();
        assert_eq!(c.operand_type(), ValueType::I64);
        assert_eq!(c.result_type(), ValueType::I32);
    }
}
