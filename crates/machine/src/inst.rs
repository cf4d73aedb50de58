//! The virtual target instruction set.
//!
//! The virtual-ISA [`Masm`](crate::masm::Masm) backend emits these
//! instructions — one per macro operation — and the CPU simulator executes
//! them (see DESIGN.md for the substitution argument); the x86-64 backend
//! emits real machine bytes for the same operations instead.
//! The set deliberately mirrors what the production Wasm baseline compilers
//! emit: register/register and register/immediate ALU forms (immediate forms
//! are the paper's *instruction selection* optimization), loads and stores of
//! value-stack slots, explicit **value tag stores**, linear-memory accesses,
//! structured branches to labels, calls that exit to the engine, and probe
//! instructions for instrumentation.

use crate::reg::{AnyReg, FReg, Reg};
use crate::values::ValueTag;
use std::fmt;

/// Operand width of an integer operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 32-bit operation.
    W32,
    /// 64-bit operation.
    W64,
}

impl Width {
    /// The width in bits.
    pub fn bits(self) -> u32 {
        match self {
            Width::W32 => 32,
            Width::W64 => 64,
        }
    }
}

/// Two-operand integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Signed division (traps on divide-by-zero and overflow).
    DivS,
    /// Unsigned division (traps on divide-by-zero).
    DivU,
    /// Signed remainder (traps on divide-by-zero).
    RemS,
    /// Unsigned remainder (traps on divide-by-zero).
    RemU,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic shift right.
    ShrS,
    /// Logical shift right.
    ShrU,
    /// Rotate left.
    Rotl,
    /// Rotate right.
    Rotr,
}

impl AluOp {
    /// Every operation, in declaration order: `ALL[op as usize] == op`, so a
    /// table built by mapping over `ALL` can be indexed by `op as usize`.
    pub const ALL: [AluOp; 15] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::DivS,
        AluOp::DivU,
        AluOp::RemS,
        AluOp::RemU,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::ShrS,
        AluOp::ShrU,
        AluOp::Rotl,
        AluOp::Rotr,
    ];

    /// True for division/remainder, which can trap and are slower.
    pub fn is_division(self) -> bool {
        matches!(self, AluOp::DivS | AluOp::DivU | AluOp::RemS | AluOp::RemU)
    }

    /// True for the variant declared last. Exhaustive on purpose: a new
    /// variant does not compile until it is placed here, and once it is the
    /// last one the assertion below fails until [`AluOp::ALL`] lists it.
    const fn is_last(self) -> bool {
        use AluOp::*;
        match self {
            Rotr => true,
            Add | Sub | Mul | DivS | DivU | RemS | RemU | And | Or | Xor | Shl | ShrS | ShrU
            | Rotl => false,
        }
    }
}

// The cost oracle and the simulator's semantics check expand every operation
// through `ALL`, so `ALL` must hold every variant at its own discriminant.
const _: () = {
    let mut i = 0;
    while i < AluOp::ALL.len() {
        assert!(AluOp::ALL[i] as usize == i, "`AluOp::ALL` is out of declaration order");
        i += 1;
    }
    assert!(AluOp::ALL[i - 1].is_last(), "`AluOp::ALL` is missing the trailing variants");
};

/// Single-operand integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Count leading zeros.
    Clz,
    /// Count trailing zeros.
    Ctz,
    /// Population count.
    Popcnt,
    /// Test-for-zero, producing 0 or 1.
    Eqz,
    /// Sign-extend the low 8 bits.
    Extend8S,
    /// Sign-extend the low 16 bits.
    Extend16S,
    /// Sign-extend the low 32 bits (64-bit only).
    Extend32S,
}

/// Integer comparison operations producing 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    LtS,
    /// Unsigned less-than.
    LtU,
    /// Signed greater-than.
    GtS,
    /// Unsigned greater-than.
    GtU,
    /// Signed less-or-equal.
    LeS,
    /// Unsigned less-or-equal.
    LeU,
    /// Signed greater-or-equal.
    GeS,
    /// Unsigned greater-or-equal.
    GeU,
}

impl CmpOp {
    /// Every comparison, in declaration order: `ALL[op as usize] == op`.
    pub const ALL: [CmpOp; 10] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::LtS,
        CmpOp::LtU,
        CmpOp::GtS,
        CmpOp::GtU,
        CmpOp::LeS,
        CmpOp::LeU,
        CmpOp::GeS,
        CmpOp::GeU,
    ];

    /// True for the variant declared last; exhaustive for the same reason
    /// as [`AluOp`]'s.
    const fn is_last(self) -> bool {
        use CmpOp::*;
        match self {
            GeU => true,
            Eq | Ne | LtS | LtU | GtS | GtU | LeS | LeU | GeS => false,
        }
    }
}

const _: () = {
    let mut i = 0;
    while i < CmpOp::ALL.len() {
        assert!(CmpOp::ALL[i] as usize == i, "`CmpOp::ALL` is out of declaration order");
        i += 1;
    }
    assert!(CmpOp::ALL[i - 1].is_last(), "`CmpOp::ALL` is missing the trailing variants");
};

/// Two-operand floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FAluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Minimum (NaN-propagating, as Wasm requires).
    Min,
    /// Maximum (NaN-propagating, as Wasm requires).
    Max,
    /// Copy sign.
    Copysign,
}

/// Single-operand floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FUnOp {
    /// Absolute value.
    Abs,
    /// Negation.
    Neg,
    /// Round up.
    Ceil,
    /// Round down.
    Floor,
    /// Round toward zero.
    Trunc,
    /// Round to nearest, ties to even.
    Nearest,
    /// Square root.
    Sqrt,
}

/// Floating-point comparisons producing 0 or 1 in a GPR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmpOp {
    /// Equal.
    Eq,
    /// Not equal (true for NaN operands).
    Ne,
    /// Less-than.
    Lt,
    /// Greater-than.
    Gt,
    /// Less-or-equal.
    Le,
    /// Greater-or-equal.
    Ge,
}

/// Conversions between numeric types, mirroring the Wasm conversion opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ConvOp {
    I32WrapI64,
    I64ExtendI32S,
    I64ExtendI32U,
    I32TruncF32S,
    I32TruncF32U,
    I32TruncF64S,
    I32TruncF64U,
    I64TruncF32S,
    I64TruncF32U,
    I64TruncF64S,
    I64TruncF64U,
    F32ConvertI32S,
    F32ConvertI32U,
    F32ConvertI64S,
    F32ConvertI64U,
    F64ConvertI32S,
    F64ConvertI32U,
    F64ConvertI64S,
    F64ConvertI64U,
    F32DemoteF64,
    F64PromoteF32,
    I32ReinterpretF32,
    I64ReinterpretF64,
    F32ReinterpretI32,
    F64ReinterpretI64,
}

impl ConvOp {
    /// True for the trapping float-to-int truncations.
    pub fn can_trap(self) -> bool {
        use ConvOp::*;
        matches!(
            self,
            I32TruncF32S
                | I32TruncF32U
                | I32TruncF64S
                | I32TruncF64U
                | I64TruncF32S
                | I64TruncF32U
                | I64TruncF64S
                | I64TruncF64U
        )
    }
}

/// Reasons execution can trap. Identical codes are produced by the
/// interpreter and by JIT-compiled code so tests can compare tiers exactly,
/// and each carries the canonical message the upstream specification test
/// suite uses in `assert_trap`, so the conformance runner (and any embedder)
/// can match on the cause of a trap structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TrapCode {
    /// The `unreachable` instruction was executed.
    Unreachable,
    /// A memory access was out of bounds.
    MemoryOutOfBounds,
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Signed division overflow (`i32::MIN / -1`).
    IntegerOverflow,
    /// Float-to-integer conversion of NaN or out-of-range value.
    InvalidConversionToInteger,
    /// A table access was out of bounds.
    TableOutOfBounds,
    /// `call_indirect` through a null table entry.
    NullTableEntry,
    /// `call_indirect` signature mismatch.
    IndirectCallTypeMismatch,
    /// The value stack or call stack overflowed.
    StackOverflow,
    /// A host function or embedder API reported an error.
    HostError,
    /// The instance's fuel budget was exhausted by a metered instruction.
    OutOfFuel,
    /// Execution was preempted by an epoch advance (deadline passed).
    Interrupted,
}

impl TrapCode {
    /// Every code, in declaration order.
    pub const ALL: [TrapCode; 12] = [
        TrapCode::Unreachable,
        TrapCode::MemoryOutOfBounds,
        TrapCode::DivisionByZero,
        TrapCode::IntegerOverflow,
        TrapCode::InvalidConversionToInteger,
        TrapCode::TableOutOfBounds,
        TrapCode::NullTableEntry,
        TrapCode::IndirectCallTypeMismatch,
        TrapCode::StackOverflow,
        TrapCode::HostError,
        TrapCode::OutOfFuel,
        TrapCode::Interrupted,
    ];

    /// The canonical message the spec test suite's `assert_trap` uses for
    /// this code; also its `Display`.
    pub fn wast_message(self) -> &'static str {
        match self {
            TrapCode::Unreachable => "unreachable",
            TrapCode::MemoryOutOfBounds => "out of bounds memory access",
            TrapCode::DivisionByZero => "integer divide by zero",
            TrapCode::IntegerOverflow => "integer overflow",
            TrapCode::InvalidConversionToInteger => "invalid conversion to integer",
            TrapCode::TableOutOfBounds => "undefined element",
            TrapCode::NullTableEntry => "uninitialized element",
            TrapCode::IndirectCallTypeMismatch => "indirect call type mismatch",
            TrapCode::StackOverflow => "call stack exhausted",
            TrapCode::HostError => "host error",
            TrapCode::OutOfFuel => "all fuel consumed",
            TrapCode::Interrupted => "interrupt",
        }
    }

    /// True if `expected` (an `assert_trap` message) names this code.
    ///
    /// Spec scripts sometimes abbreviate or extend the canonical message
    /// ("integer divide by zero" vs "divide by zero"), so matching accepts
    /// either string being a prefix of the other.
    pub fn matches_wast(self, expected: &str) -> bool {
        let canonical = self.wast_message();
        canonical.starts_with(expected) || expected.starts_with(canonical)
    }

    /// A short identifier-safe label, used to name per-reason metrics
    /// counters (`engine.traps.<slug>`).
    pub fn slug(self) -> &'static str {
        match self {
            TrapCode::Unreachable => "unreachable",
            TrapCode::MemoryOutOfBounds => "memory_out_of_bounds",
            TrapCode::DivisionByZero => "division_by_zero",
            TrapCode::IntegerOverflow => "integer_overflow",
            TrapCode::InvalidConversionToInteger => "invalid_conversion",
            TrapCode::TableOutOfBounds => "table_out_of_bounds",
            TrapCode::NullTableEntry => "uninitialized_element",
            TrapCode::IndirectCallTypeMismatch => "indirect_call_mismatch",
            TrapCode::StackOverflow => "stack_exhaustion",
            TrapCode::HostError => "host_error",
            TrapCode::OutOfFuel => "out_of_fuel",
            TrapCode::Interrupted => "interrupted",
        }
    }
}

impl std::error::Error for TrapCode {}

impl fmt::Display for TrapCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.wast_message())
    }
}

/// A branch target label, resolved by the assembler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// The targets of one [`MachInst::BrTable`]: a range of the owning buffer's
/// label pool ([`crate::asm::CodeBuffer::table`]). Keeping the labels out of
/// line is what lets every instruction be 16 bytes with a plain one-byte tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelRange {
    /// Index of the first target in the label pool.
    pub start: u32,
    /// Number of targets.
    pub len: u32,
}

/// A single instruction of the virtual target ISA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MachInst {
    /// No operation.
    Nop,
    /// Load an integer immediate into a GPR.
    MovImm {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Load raw float bits into an FPR.
    FMovImm {
        /// Destination register.
        dst: FReg,
        /// Raw IEEE-754 bits (f32 in the low 32 bits).
        bits: u64,
    },
    /// Register-to-register move between GPRs.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Register-to-register move between FPRs.
    FMov {
        /// Destination register.
        dst: FReg,
        /// Source register.
        src: FReg,
    },
    /// Load a value-stack slot (relative to the frame base) into a register.
    LoadSlot {
        /// Destination register.
        dst: AnyReg,
        /// Frame-relative slot index.
        slot: u32,
    },
    /// Store a register into a value-stack slot.
    StoreSlot {
        /// Frame-relative slot index.
        slot: u32,
        /// Source register.
        src: AnyReg,
    },
    /// Store an immediate directly into a value-stack slot.
    StoreSlotImm {
        /// Frame-relative slot index.
        slot: u32,
        /// Immediate value (raw slot bits).
        imm: i64,
    },
    /// Store a value tag for a slot. This is the dynamic cost the paper's
    /// tag optimizations eliminate.
    StoreTag {
        /// Frame-relative slot index.
        slot: u32,
        /// The tag to store.
        tag: ValueTag,
    },
    /// Three-address integer ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Operand width.
        width: Width,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Integer ALU operation with an immediate right operand
    /// (the paper's "instruction selection" / immediate-mode optimization).
    AluImm {
        /// Operation.
        op: AluOp,
        /// Operand width.
        width: Width,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Immediate right operand.
        imm: i64,
    },
    /// Single-operand integer operation.
    Unop {
        /// Operation.
        op: UnOp,
        /// Operand width.
        width: Width,
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// Integer comparison producing 0/1.
    Cmp {
        /// Comparison.
        op: CmpOp,
        /// Operand width.
        width: Width,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Right operand.
        b: Reg,
    },
    /// Integer comparison against an immediate.
    CmpImm {
        /// Comparison.
        op: CmpOp,
        /// Operand width.
        width: Width,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: Reg,
        /// Immediate right operand.
        imm: i64,
    },
    /// Three-address floating-point operation.
    FAlu {
        /// Operation.
        op: FAluOp,
        /// Operand width (f32 or f64).
        width: Width,
        /// Destination register.
        dst: FReg,
        /// Left operand.
        a: FReg,
        /// Right operand.
        b: FReg,
    },
    /// Single-operand floating-point operation.
    FUnop {
        /// Operation.
        op: FUnOp,
        /// Operand width (f32 or f64).
        width: Width,
        /// Destination register.
        dst: FReg,
        /// Source register.
        src: FReg,
    },
    /// Floating-point comparison producing 0/1 in a GPR.
    FCmp {
        /// Comparison.
        op: FCmpOp,
        /// Operand width (f32 or f64).
        width: Width,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        a: FReg,
        /// Right operand.
        b: FReg,
    },
    /// Numeric conversion.
    Convert {
        /// The conversion.
        op: ConvOp,
        /// Destination register (bank determined by the conversion).
        dst: AnyReg,
        /// Source register (bank determined by the conversion).
        src: AnyReg,
    },
    /// Integer select: `dst = if cond != 0 { if_true } else { if_false }`.
    Select {
        /// Destination register.
        dst: Reg,
        /// Condition register.
        cond: Reg,
        /// Value if the condition is non-zero.
        if_true: Reg,
        /// Value if the condition is zero.
        if_false: Reg,
    },
    /// Floating-point select.
    FSelect {
        /// Destination register.
        dst: FReg,
        /// Condition register.
        cond: Reg,
        /// Value if the condition is non-zero.
        if_true: FReg,
        /// Value if the condition is zero.
        if_false: FReg,
    },
    /// Load from linear memory.
    MemLoad {
        /// Destination register (FPR for float loads).
        dst: AnyReg,
        /// Address register (i32 address).
        addr: Reg,
        /// Constant byte offset.
        offset: u32,
        /// Access width in bytes (1, 2, 4, 8).
        width: u32,
        /// Sign-extend the loaded integer value.
        signed: bool,
        /// Width of the destination value.
        dst_width: Width,
    },
    /// Store to linear memory.
    MemStore {
        /// Source register (FPR for float stores).
        src: AnyReg,
        /// Address register (i32 address).
        addr: Reg,
        /// Constant byte offset.
        offset: u32,
        /// Access width in bytes (1, 2, 4, 8).
        width: u32,
    },
    /// `memory.size` in pages.
    MemorySize {
        /// Destination register.
        dst: Reg,
    },
    /// `memory.grow` by a page delta.
    MemoryGrow {
        /// Destination register (old size or -1).
        dst: Reg,
        /// Number of pages to grow by.
        delta: Reg,
    },
    /// Read a global into a register.
    GlobalGet {
        /// Destination register.
        dst: AnyReg,
        /// Global index.
        index: u32,
    },
    /// Write a register into a global.
    GlobalSet {
        /// Global index.
        index: u32,
        /// Source register.
        src: AnyReg,
    },
    /// Unconditional jump.
    Jump {
        /// Target label.
        target: Label,
    },
    /// Conditional branch on a register being non-zero (or zero if negated).
    BrIf {
        /// Condition register.
        cond: Reg,
        /// Target label.
        target: Label,
        /// Branch when the condition is zero instead of non-zero.
        negate: bool,
    },
    /// Multi-way branch (jump table).
    BrTable {
        /// Index register.
        index: Reg,
        /// Table of targets, in the owning buffer's label pool.
        targets: LabelRange,
        /// Default target for out-of-range indices.
        default: Label,
    },
    /// Direct call. Execution exits to the engine, which runs the callee in
    /// whatever tier it currently has and then resumes this code.
    Call {
        /// Callee function index.
        func_index: u32,
    },
    /// Indirect call through a table. Checks are performed by the engine.
    CallIndirect {
        /// Expected signature (type index).
        type_index: u32,
        /// Table to index.
        table_index: u32,
        /// Register holding the table element index.
        index: Reg,
    },
    /// Unoptimized probe: call into the runtime, which looks up and fires the
    /// probes attached at this site (allocating a frame accessor).
    ProbeRuntime {
        /// Probe site id.
        probe_id: u32,
    },
    /// Optimized probe: a direct call to the probe, no runtime lookup.
    ProbeDirect {
        /// Probe site id.
        probe_id: u32,
    },
    /// Fully intrinsified counter probe: increments a counter in place.
    ProbeCounter {
        /// Counter id.
        counter_id: u32,
    },
    /// Optimized probe that passes the top-of-stack value directly,
    /// eliding the frame accessor.
    ProbeTosValue {
        /// Probe site id.
        probe_id: u32,
        /// Register holding the value to pass.
        src: AnyReg,
    },
    /// Deduct `amount` fuel from the executing instance's budget, trapping
    /// with [`TrapCode::OutOfFuel`] when the budget runs dry. A no-op when the
    /// instance has no fuel limit.
    FuelCheck {
        /// Fuel units charged by this check (one charge region's total cost).
        amount: u64,
    },
    /// Poll the engine epoch and trap with [`TrapCode::Interrupted`] when it
    /// has advanced past the instance's deadline. A no-op when the instance
    /// has no deadline.
    EpochCheck,
    /// Unconditional trap.
    Trap {
        /// The trap reason.
        code: TrapCode,
    },
    /// Return from the function. Results have already been stored to the
    /// frame's first result slots per the calling convention.
    Return,
}

// The simulator fetches one of these per retired instruction and the
// compilers write one per emitted instruction; a variant that grows past 16
// bytes doubles both costs.
const _: () = assert!(std::mem::size_of::<MachInst>() == 16);

impl MachInst {
    /// An estimate of the encoded size of this instruction in bytes, used for
    /// machine-code size statistics. The estimates approximate x86-64
    /// encodings of the equivalent instruction sequences.
    #[inline]
    pub fn encoded_size(&self) -> usize {
        use MachInst::*;
        match self {
            Nop => 1,
            MovImm { imm, .. } => {
                if *imm >= i32::MIN as i64 && *imm <= i32::MAX as i64 {
                    5
                } else {
                    10
                }
            }
            FMovImm { .. } => 10,
            Mov { .. } | FMov { .. } => 3,
            LoadSlot { .. } | StoreSlot { .. } => 4,
            StoreSlotImm { .. } => 8,
            StoreTag { .. } => 4,
            Alu { op, .. } => {
                if op.is_division() {
                    6
                } else {
                    3
                }
            }
            AluImm { .. } => 4,
            Unop { .. } => 4,
            Cmp { .. } | CmpImm { .. } => 6,
            FAlu { .. } | FUnop { .. } => 4,
            FCmp { .. } => 7,
            Convert { .. } => 5,
            Select { .. } | FSelect { .. } => 7,
            MemLoad { .. } | MemStore { .. } => 5,
            MemorySize { .. } => 4,
            MemoryGrow { .. } => 12,
            GlobalGet { .. } | GlobalSet { .. } => 5,
            Jump { .. } => 5,
            BrIf { .. } => 6,
            BrTable { targets, .. } => 12 + 4 * targets.len as usize,
            Call { .. } => 5,
            CallIndirect { .. } => 14,
            ProbeRuntime { .. } => 10,
            ProbeDirect { .. } => 5,
            ProbeCounter { .. } => 7,
            ProbeTosValue { .. } => 6,
            // sub [fuel], imm32 ; jb trap — comparable to a guarded store.
            FuelCheck { .. } => 9,
            // cmp [epoch], reg ; jae trap.
            EpochCheck => 9,
            Trap { .. } => 2,
            Return => 3,
        }
    }

    /// True for call-like instructions that exit to the engine.
    pub fn is_call(&self) -> bool {
        matches!(
            self,
            MachInst::Call { .. } | MachInst::CallIndirect { .. }
        )
    }
}

impl fmt::Display for MachInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use MachInst::*;
        match self {
            Nop => write!(f, "nop"),
            MovImm { dst, imm } => write!(f, "mov {dst}, #{imm}"),
            FMovImm { dst, bits } => write!(f, "fmov {dst}, #{bits:#x}"),
            Mov { dst, src } => write!(f, "mov {dst}, {src}"),
            FMov { dst, src } => write!(f, "fmov {dst}, {src}"),
            LoadSlot { dst, slot } => write!(f, "load {dst}, [vfp+{slot}]"),
            StoreSlot { slot, src } => write!(f, "store [vfp+{slot}], {src}"),
            StoreSlotImm { slot, imm } => write!(f, "store [vfp+{slot}], #{imm}"),
            StoreTag { slot, tag } => write!(f, "tag [vfp+{slot}], {tag}"),
            Alu { op, width, dst, a, b } => {
                write!(f, "{op:?}.{} {dst}, {a}, {b}", width.bits())
            }
            AluImm { op, width, dst, a, imm } => {
                write!(f, "{op:?}i.{} {dst}, {a}, #{imm}", width.bits())
            }
            Unop { op, width, dst, src } => {
                write!(f, "{op:?}.{} {dst}, {src}", width.bits())
            }
            Cmp { op, width, dst, a, b } => {
                write!(f, "cmp_{op:?}.{} {dst}, {a}, {b}", width.bits())
            }
            CmpImm { op, width, dst, a, imm } => {
                write!(f, "cmp_{op:?}i.{} {dst}, {a}, #{imm}", width.bits())
            }
            FAlu { op, width, dst, a, b } => {
                write!(f, "f{op:?}.{} {dst}, {a}, {b}", width.bits())
            }
            FUnop { op, width, dst, src } => {
                write!(f, "f{op:?}.{} {dst}, {src}", width.bits())
            }
            FCmp { op, width, dst, a, b } => {
                write!(f, "fcmp_{op:?}.{} {dst}, {a}, {b}", width.bits())
            }
            Convert { op, dst, src } => write!(f, "{op:?} {dst}, {src}"),
            Select { dst, cond, if_true, if_false } => {
                write!(f, "select {dst}, {cond} ? {if_true} : {if_false}")
            }
            FSelect { dst, cond, if_true, if_false } => {
                write!(f, "fselect {dst}, {cond} ? {if_true} : {if_false}")
            }
            MemLoad { dst, addr, offset, width, signed, .. } => write!(
                f,
                "mld{}{} {dst}, [{addr}+{offset}]",
                width * 8,
                if *signed { "s" } else { "u" }
            ),
            MemStore { src, addr, offset, width } => {
                write!(f, "mst{} [{addr}+{offset}], {src}", width * 8)
            }
            MemorySize { dst } => write!(f, "memsize {dst}"),
            MemoryGrow { dst, delta } => write!(f, "memgrow {dst}, {delta}"),
            GlobalGet { dst, index } => write!(f, "gget {dst}, g{index}"),
            GlobalSet { index, src } => write!(f, "gset g{index}, {src}"),
            Jump { target } => write!(f, "jmp {target}"),
            BrIf { cond, target, negate } => {
                write!(f, "br{} {cond}, {target}", if *negate { "z" } else { "nz" })
            }
            BrTable { index, targets, default } => write!(
                f,
                "brtable {index}, pool[{}..{}], default {default}",
                targets.start,
                targets.start + targets.len
            ),
            Call { func_index } => write!(f, "call func[{func_index}]"),
            CallIndirect { type_index, table_index, index } => {
                write!(f, "call_indirect table[{table_index}][{index}] sig{type_index}")
            }
            ProbeRuntime { probe_id } => write!(f, "probe_runtime {probe_id}"),
            ProbeDirect { probe_id } => write!(f, "probe_direct {probe_id}"),
            ProbeCounter { counter_id } => write!(f, "probe_counter {counter_id}"),
            ProbeTosValue { probe_id, src } => write!(f, "probe_tos {probe_id}, {src}"),
            FuelCheck { amount } => write!(f, "fuel_check #{amount}"),
            EpochCheck => write!(f, "epoch_check"),
            Trap { code } => write!(f, "trap {code}"),
            Return => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wast_messages_are_unique_and_match() {
        let mut seen = std::collections::HashSet::new();
        for code in TrapCode::ALL {
            assert!(seen.insert(code.wast_message()));
            assert!(code.matches_wast(code.wast_message()));
        }
        assert!(TrapCode::DivisionByZero.matches_wast("integer divide by zero"));
        assert!(TrapCode::DivisionByZero.matches_wast("integer divide"));
        assert!(!TrapCode::DivisionByZero.matches_wast("integer overflow"));
        assert!(!TrapCode::Unreachable.matches_wast("out of bounds memory access"));
    }

    #[test]
    fn slugs_are_unique() {
        let mut slugs = std::collections::HashSet::new();
        for code in TrapCode::ALL {
            assert!(slugs.insert(code.slug()));
        }
    }

    #[test]
    fn only_truncations_can_trap() {
        assert!(ConvOp::I32TruncF32U.can_trap());
        assert!(!ConvOp::F64PromoteF32.can_trap());
    }

    #[test]
    fn calls_exit_to_the_engine() {
        assert!(MachInst::Call { func_index: 1 }.is_call());
        assert!(!MachInst::ProbeDirect { probe_id: 0 }.is_call());
    }

    #[test]
    fn encoded_sizes_are_positive_and_scale() {
        let small = MachInst::MovImm { dst: Reg(0), imm: 1 };
        let large = MachInst::MovImm { dst: Reg(0), imm: i64::MAX };
        assert!(small.encoded_size() < large.encoded_size());
        let table = MachInst::BrTable {
            index: Reg(0),
            targets: LabelRange { start: 0, len: 8 },
            default: Label(1),
        };
        assert!(table.encoded_size() > MachInst::Jump { target: Label(0) }.encoded_size());
        assert!(MachInst::Nop.encoded_size() >= 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(MachInst::Mov { dst: Reg(1), src: Reg(2) }.to_string(), "mov r1, r2");
        assert_eq!(
            MachInst::StoreTag { slot: 3, tag: ValueTag::Ref }.to_string(),
            "tag [vfp+3], ref"
        );
        assert_eq!(Label(4).to_string(), "L4");
        assert_eq!(TrapCode::DivisionByZero.to_string(), "integer divide by zero");
        let alu = MachInst::AluImm {
            op: AluOp::Add,
            width: Width::W32,
            dst: Reg(0),
            a: Reg(1),
            imm: 4,
        };
        assert!(alu.to_string().contains("Addi.32"));
    }

    #[test]
    fn alu_division_classification() {
        assert!(AluOp::DivS.is_division());
        assert!(AluOp::RemU.is_division());
        assert!(!AluOp::Add.is_division());
        assert!(!AluOp::Rotl.is_division());
    }
}
