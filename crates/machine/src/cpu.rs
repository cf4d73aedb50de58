//! The CPU simulator that executes compiled code.
//!
//! Compiled functions run against exactly the same runtime objects as the
//! interpreter: the tagged value stack, linear memory, globals, and tables.
//! Execution is *resumable*: calls, probes, returns, and traps exit back to
//! the engine with an [`Exit`], the type the interpreter returns too; the
//! engine performs the transfer (possibly into a different execution tier)
//! and then resumes the code at the exit's `resume` index. Register
//! contents live in a per-frame [`CpuState`], and the calling convention
//! requires compilers to spill live values to the value stack before any
//! exiting instruction, so nothing is lost across an exit.
//!
//! Every executed instruction is charged to a [`CycleCounter`] using the
//! shared [`CostModel`]; those cycles are the "execution time" that the
//! paper's figures compare.

use crate::asm::CodeBuffer;
use crate::cost::{CostModel, CycleCounter};
use crate::inst::{AluOp, CmpOp, FAluOp, FUnOp, TrapCode, Width};
use crate::memory::{LinearMemory, Table};
use crate::ops;
use crate::predecode::Op;
use crate::reg::{AnyReg, FReg, Reg, NUM_FPRS, NUM_GPRS};
use crate::values::{GlobalSlot, ValueStack};
use std::ops::{Index, IndexMut};
use std::sync::atomic::{AtomicU64, Ordering};
use wasm::fuel::FuelPlan;

/// The register file of one JIT frame activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuState {
    /// General-purpose registers.
    pub gprs: [u64; NUM_GPRS],
    /// Floating-point registers (raw bits).
    pub fprs: [u64; NUM_FPRS],
}

impl Default for CpuState {
    fn default() -> CpuState {
        CpuState {
            gprs: [0; NUM_GPRS],
            fprs: [0; NUM_FPRS],
        }
    }
}

impl CpuState {
    /// Creates a zeroed register file.
    pub fn new() -> CpuState {
        CpuState::default()
    }

    /// Reads a register of either bank.
    pub fn read(&self, reg: AnyReg) -> u64 {
        match reg {
            AnyReg::Gpr(r) => self.gprs[r.index()],
            AnyReg::Fpr(r) => self.fprs[r.index()],
        }
    }

    /// Writes a register of either bank.
    pub fn write(&mut self, reg: AnyReg, bits: u64) {
        match reg {
            AnyReg::Gpr(r) => self.gprs[r.index()] = bits,
            AnyReg::Fpr(r) => self.fprs[r.index()] = bits,
        }
    }
}

/// A general-purpose register's bits: `state[Reg(1)]`.
impl Index<Reg> for CpuState {
    type Output = u64;
    fn index(&self, r: Reg) -> &u64 {
        &self.gprs[r.index()]
    }
}

impl IndexMut<Reg> for CpuState {
    fn index_mut(&mut self, r: Reg) -> &mut u64 {
        &mut self.gprs[r.index()]
    }
}

/// A floating-point register's raw bits: `state[FReg(1)]`.
impl Index<FReg> for CpuState {
    type Output = u64;
    fn index(&self, r: FReg) -> &u64 {
        &self.fprs[r.index()]
    }
}

impl IndexMut<FReg> for CpuState {
    fn index_mut(&mut self, r: FReg) -> &mut u64 {
        &mut self.fprs[r.index()]
    }
}

/// The producer half of the epoch-driven sampling profiler.
///
/// Execution loops poll this at their metering sites (loop back-edges and
/// function entries); whenever the shared epoch has advanced since the last
/// sample, the current wasm byte offset is pushed through `record`. The
/// sampler deliberately knows nothing about telemetry — the engine supplies
/// a closure that attributes the sample to a (function, tier) — so this
/// crate stays free of upward dependencies.
pub struct EpochSampler<'a> {
    /// The shared engine epoch (the same counter preemption deadlines watch).
    pub epoch: &'a AtomicU64,
    /// The epoch value the last sample was taken at; samples fire only when
    /// the epoch moves past it, so sampling frequency is the ticker's, not
    /// the back-edge rate's.
    pub last: &'a mut u64,
    /// Receives each sample's current wasm byte offset.
    pub record: &'a mut dyn FnMut(u32),
}

impl std::fmt::Debug for EpochSampler<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochSampler")
            .field("epoch", &self.epoch)
            .field("last", &self.last)
            .finish_non_exhaustive()
    }
}

impl EpochSampler<'_> {
    /// Takes a sample if the epoch has advanced since the last one. The
    /// offset is computed lazily — only when a sample actually fires.
    #[inline]
    pub fn poll(&mut self, offset: impl FnOnce() -> u32) {
        let now = self.epoch.load(Ordering::Relaxed);
        if now != *self.last {
            *self.last = now;
            (self.record)(offset());
        }
    }
}

/// The hot-loop detection hook for on-stack replacement.
///
/// Execution loops poll this at the fused meter-check sites. The hook fires
/// only at *loop-body starts* — offsets the function's [`FuelPlan`] records
/// as epoch-check sites — because those are the back-edge targets where the
/// frame is in canonical interpreter layout and the optimizing tier emits an
/// OSR entry stub. Each firing site increments one shared per-function
/// counter; once it passes `threshold` the execution loop exits with an OSR
/// request and the engine attempts the tier transition.
pub struct OsrHook<'a> {
    /// The function's fuel plan; its epoch-check offsets are exactly the
    /// loop-body starts eligible for OSR entry.
    pub plan: &'a FuelPlan,
    /// The per-function back-edge counter (persists across exits).
    pub count: &'a mut u32,
    /// Fire once `count` exceeds this. Zero forces OSR at every back edge.
    pub threshold: u32,
    /// Skip exactly one firing (set after a failed or still-pending
    /// transition so the activation makes loop progress between attempts).
    pub skip_once: &'a mut bool,
}

impl std::fmt::Debug for OsrHook<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OsrHook")
            .field("count", &self.count)
            .field("threshold", &self.threshold)
            .field("skip_once", &self.skip_once)
            .finish_non_exhaustive()
    }
}

/// Fuel and preemption state for one activation.
///
/// Both meters are optional so un-metered execution stays exactly the code
/// path it was before metering existed: a `FuelCheck` or `EpochCheck`
/// instruction executed against [`Meter::off`] is a no-op.
#[derive(Debug, Default)]
pub struct Meter<'a> {
    /// Remaining fuel, decremented by `FuelCheck`. `None` disables metering.
    pub fuel: Option<&'a mut u64>,
    /// The shared engine epoch and this activation's deadline; execution is
    /// interrupted once the epoch reaches the deadline. `None` disables
    /// preemption.
    pub epoch: Option<(&'a AtomicU64, u64)>,
    /// Sampling-profiler hook, polled at the same sites as the meters.
    /// `None` (the overwhelmingly common case) costs one branch per site and
    /// never charges simulated cycles.
    pub sampler: Option<EpochSampler<'a>>,
    /// On-stack-replacement hook, polled at the same sites as the meters
    /// *before* any fuel is charged (so a completed transition re-executes
    /// the site's check in the new tier exactly once). `None` disables OSR.
    pub osr: Option<OsrHook<'a>>,
}

impl<'a> Meter<'a> {
    /// A meter that charges nothing and never interrupts.
    pub fn off() -> Meter<'a> {
        Meter::default()
    }

    /// Charges `amount` fuel. On exhaustion the remaining fuel is clamped to
    /// zero (so consumed-at-trap equals the initial budget in every tier) and
    /// [`TrapCode::OutOfFuel`] is returned.
    pub fn charge_fuel(&mut self, amount: u64) -> Result<(), TrapCode> {
        if let Some(fuel) = self.fuel.as_deref_mut() {
            if *fuel >= amount {
                *fuel -= amount;
            } else {
                *fuel = 0;
                return Err(TrapCode::OutOfFuel);
            }
        }
        Ok(())
    }

    /// Polls the epoch; returns [`TrapCode::Interrupted`] once it has reached
    /// this activation's deadline.
    pub fn check_epoch(&self) -> Result<(), TrapCode> {
        if let Some((epoch, deadline)) = self.epoch {
            if epoch.load(Ordering::Relaxed) >= deadline {
                return Err(TrapCode::Interrupted);
            }
        }
        Ok(())
    }

    /// Polls the sampling profiler, if one is attached. Charges nothing.
    #[inline]
    pub fn poll_sampler(&mut self, offset: impl FnOnce() -> u32) {
        if let Some(sampler) = self.sampler.as_mut() {
            sampler.poll(offset);
        }
    }

    /// True when a sampling profiler is attached.
    pub fn has_sampler(&self) -> bool {
        self.sampler.is_some()
    }

    /// Polls the OSR hook at a meter-check site. Returns `Some(offset)` when
    /// the site is a loop-body start whose back-edge counter has passed the
    /// threshold — the execution loop must then exit with an OSR request.
    /// Charges nothing. The offset is computed lazily, like the sampler's.
    #[inline]
    pub fn poll_osr(&mut self, offset: impl FnOnce() -> u32) -> Option<u32> {
        let hook = self.osr.as_mut()?;
        let off = offset();
        if !hook.plan.epoch_check_at(off) {
            return None;
        }
        *hook.count = hook.count.saturating_add(1);
        if *hook.count <= hook.threshold {
            return None;
        }
        if *hook.skip_once {
            *hook.skip_once = false;
            return None;
        }
        Some(off)
    }

    /// True when an OSR hook is attached.
    pub fn has_osr(&self) -> bool {
        self.osr.is_some()
    }
}

/// The mutable runtime state a frame executes against.
#[derive(Debug)]
pub struct ExecContext<'a> {
    /// The shared value stack.
    pub values: &'a mut ValueStack,
    /// The executing frame's base slot (VFP) within the value stack.
    pub frame_base: usize,
    /// The instance's linear memory, if it has one.
    pub memory: Option<&'a mut LinearMemory>,
    /// The instance's globals.
    pub globals: &'a mut [GlobalSlot],
    /// The instance's tables.
    pub tables: &'a mut [Table],
    /// Fuel and preemption state.
    pub meter: Meter<'a>,
}

/// What a probe instruction hands the engine: only what the engine reads.
/// No variant names a probe id; the engine finds the probed site by the
/// probe instruction's position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeExit {
    /// A probe that reads the frame, whether a runtime lookup or a direct
    /// call: the frame is flushed and the engine fires the site's probes
    /// with access to it (or hands the frame to the interpreter).
    Frame {
        /// Position of the probe instruction.
        site: usize,
    },
    /// Intrinsified counter increment.
    Counter {
        /// Counter id.
        counter_id: u32,
    },
    /// Optimized probe passing the top-of-stack value.
    TosValue {
        /// Position of the probe instruction.
        site: usize,
        /// The value passed to the probe.
        bits: u64,
    },
}

/// Why an executor stopped running a frame: what both [`Cpu::run`] and the
/// interpreter return to the engine.
///
/// Every position is in the executing tier's own coordinates: a bytecode
/// offset for the interpreter, an instruction index into the
/// [`CodeBuffer`] for compiled code. The engine resumes a frame at the
/// position it was handed and maps positions to bytecode offsets only when
/// it builds a backtrace.
#[derive(Debug, Clone, PartialEq)]
pub enum Exit {
    /// The function returned. Results are in the frame's first result slots.
    Return,
    /// A direct call; the engine must execute `func_index` and resume the
    /// frame at `resume`.
    Call {
        /// Callee function index.
        func_index: u32,
        /// Position of the call instruction itself.
        site: usize,
        /// Position to resume the frame at after the call.
        resume: usize,
    },
    /// An indirect call; the engine must check and execute the table entry.
    CallIndirect {
        /// Expected signature (type index).
        type_index: u32,
        /// Table index.
        table_index: u32,
        /// The dynamic element index.
        entry_index: u32,
        /// Position of the `call_indirect` instruction itself.
        site: usize,
        /// Position to resume the frame at after the call.
        resume: usize,
    },
    /// A probe fired in compiled code; the engine must notify the
    /// instrumentation and resume. The interpreter fires its probes itself.
    Probe {
        /// What kind of probe and its payload.
        probe: ProbeExit,
        /// Position to resume at.
        resume: usize,
    },
    /// The OSR hook fired at a hot loop-body start; the engine should try to
    /// transfer this frame into the optimizing tier, or resume it at
    /// `resume` (the check site itself, whose meter work has not yet run) to
    /// continue in place.
    Osr {
        /// The wasm bytecode offset of the loop-body start.
        offset: u32,
        /// Position to resume at if the transition is not taken.
        resume: usize,
    },
    /// Execution trapped.
    Trap {
        /// The trap reason.
        code: TrapCode,
        /// Position of the trapping instruction.
        at: usize,
    },
}

/// Executes compiled code until it exits.
#[derive(Debug, Clone, Default)]
pub struct Cpu {
    cost: CostModel,
}

/// An integer ALU operation other than division and remainder, which are the
/// only ones [`ops::eval_alu`] can refuse and have variants of their own.
/// Called with a constant operation and width, it inlines to that one
/// computation.
#[inline(always)]
fn total(op: AluOp, width: Width, a: u64, b: u64) -> u64 {
    ops::eval_alu(op, width, a, b).unwrap_or_default()
}

impl Cpu {
    /// Creates a CPU with the given cost model.
    pub fn new(cost: CostModel) -> Cpu {
        Cpu { cost }
    }

    /// Runs `code` starting at instruction `pc` until it exits, charging
    /// executed instructions to `cycles`.
    ///
    /// This loop retires every instruction the compilers emit, so it
    /// dispatches exactly once per instruction, over the buffer's pre-decoded
    /// ops (`predecode.rs`): one variant per integer operation, width and
    /// operand form, per register bank and per memory-access shape, so no
    /// arm switches again on what it was handed. Each arm charges its own
    /// cost (what [`CostModel::inst_cost`] specifies for the instruction the
    /// op stands for — the cost-oracle test holds the two together) and then
    /// executes. Cycles accumulate in a local and reach `cycles` once, on the
    /// way out. A trapping instruction is charged before it traps.
    pub fn run(
        &self,
        state: &mut CpuState,
        code: &CodeBuffer,
        mut pc: usize,
        ctx: &mut ExecContext<'_>,
        cycles: &mut CycleCounter,
    ) -> Exit {
        let cost = &self.cost;
        let ops = code.ops();
        // Compiled code never resizes the value stack (the engine backs a
        // frame before entering it), so the frame's view is taken once.
        let (slots, tags) = ctx.values.frame_mut(ctx.frame_base);
        let mut spent = 0u64;
        macro_rules! trap {
            ($code:expr) => {
                break Exit::Trap { code: $code, at: pc }
            };
        }
        macro_rules! alu {
            ($cost:ident, $op:ident, $width:ident, $dst:ident, $a:ident, $b:expr) => {{
                spent += cost.$cost;
                state[$dst] = total(AluOp::$op, Width::$width, state[$a], $b);
            }};
        }
        macro_rules! cmp {
            ($op:ident, $width:ident, $dst:ident, $a:ident, $b:expr) => {{
                spent += cost.alu;
                state[$dst] = ops::eval_cmp(CmpOp::$op, Width::$width, state[$a], $b);
            }};
        }
        // `$extend` turns the bytes read into the register value; its
        // argument's type is the access width.
        macro_rules! load {
            ($dst:ident, $addr:ident, $offset:ident, $extend:expr) => {{
                spent += cost.mem_load;
                let Some(memory) = ctx.memory.as_deref() else {
                    trap!(TrapCode::MemoryOutOfBounds)
                };
                match memory.read_le(state[$addr] as u32, $offset) {
                    Ok(bytes) => state[$dst] = $extend(bytes),
                    Err(t) => trap!(t),
                }
            }};
        }
        macro_rules! store {
            ($bytes:expr, $addr:ident, $offset:ident) => {{
                spent += cost.mem_store;
                let addr = state[$addr] as u32;
                let bytes = $bytes;
                let Some(memory) = ctx.memory.as_deref_mut() else {
                    trap!(TrapCode::MemoryOutOfBounds)
                };
                if let Err(t) = memory.write_le(addr, $offset, bytes) {
                    trap!(t);
                }
            }};
        }
        let exit = loop {
            let Some(op) = ops.get(pc) else {
                break Exit::Return;
            };
            // Matched in place: an op copied out first is split into all its
            // fields before the jump, on every dispatch, and that alone gave
            // back most of the gain of pre-decoding.
            match *op {
                Op::AddR32(d, a, b) => alu!(alu, Add, W32, d, a, state[b]),
                Op::AddR64(d, a, b) => alu!(alu, Add, W64, d, a, state[b]),
                Op::AddI32(d, a, imm) => alu!(alu, Add, W32, d, a, imm as u64),
                Op::AddI64(d, a, imm) => alu!(alu, Add, W64, d, a, imm as u64),
                Op::SubR32(d, a, b) => alu!(alu, Sub, W32, d, a, state[b]),
                Op::SubR64(d, a, b) => alu!(alu, Sub, W64, d, a, state[b]),
                Op::SubI32(d, a, imm) => alu!(alu, Sub, W32, d, a, imm as u64),
                Op::SubI64(d, a, imm) => alu!(alu, Sub, W64, d, a, imm as u64),
                Op::MulR32(d, a, b) => alu!(mul, Mul, W32, d, a, state[b]),
                Op::MulR64(d, a, b) => alu!(mul, Mul, W64, d, a, state[b]),
                Op::MulI32(d, a, imm) => alu!(mul, Mul, W32, d, a, imm as u64),
                Op::MulI64(d, a, imm) => alu!(mul, Mul, W64, d, a, imm as u64),
                Op::AndR32(d, a, b) => alu!(alu, And, W32, d, a, state[b]),
                Op::AndR64(d, a, b) => alu!(alu, And, W64, d, a, state[b]),
                Op::AndI32(d, a, imm) => alu!(alu, And, W32, d, a, imm as u64),
                Op::AndI64(d, a, imm) => alu!(alu, And, W64, d, a, imm as u64),
                Op::OrR32(d, a, b) => alu!(alu, Or, W32, d, a, state[b]),
                Op::OrR64(d, a, b) => alu!(alu, Or, W64, d, a, state[b]),
                Op::OrI32(d, a, imm) => alu!(alu, Or, W32, d, a, imm as u64),
                Op::OrI64(d, a, imm) => alu!(alu, Or, W64, d, a, imm as u64),
                Op::XorR32(d, a, b) => alu!(alu, Xor, W32, d, a, state[b]),
                Op::XorR64(d, a, b) => alu!(alu, Xor, W64, d, a, state[b]),
                Op::XorI32(d, a, imm) => alu!(alu, Xor, W32, d, a, imm as u64),
                Op::XorI64(d, a, imm) => alu!(alu, Xor, W64, d, a, imm as u64),
                Op::ShlR32(d, a, b) => alu!(alu, Shl, W32, d, a, state[b]),
                Op::ShlR64(d, a, b) => alu!(alu, Shl, W64, d, a, state[b]),
                Op::ShlI32(d, a, imm) => alu!(alu, Shl, W32, d, a, imm as u64),
                Op::ShlI64(d, a, imm) => alu!(alu, Shl, W64, d, a, imm as u64),
                Op::ShrSR32(d, a, b) => alu!(alu, ShrS, W32, d, a, state[b]),
                Op::ShrSR64(d, a, b) => alu!(alu, ShrS, W64, d, a, state[b]),
                Op::ShrSI32(d, a, imm) => alu!(alu, ShrS, W32, d, a, imm as u64),
                Op::ShrSI64(d, a, imm) => alu!(alu, ShrS, W64, d, a, imm as u64),
                Op::ShrUR32(d, a, b) => alu!(alu, ShrU, W32, d, a, state[b]),
                Op::ShrUR64(d, a, b) => alu!(alu, ShrU, W64, d, a, state[b]),
                Op::ShrUI32(d, a, imm) => alu!(alu, ShrU, W32, d, a, imm as u64),
                Op::ShrUI64(d, a, imm) => alu!(alu, ShrU, W64, d, a, imm as u64),
                Op::RotlR32(d, a, b) => alu!(alu, Rotl, W32, d, a, state[b]),
                Op::RotlR64(d, a, b) => alu!(alu, Rotl, W64, d, a, state[b]),
                Op::RotlI32(d, a, imm) => alu!(alu, Rotl, W32, d, a, imm as u64),
                Op::RotlI64(d, a, imm) => alu!(alu, Rotl, W64, d, a, imm as u64),
                Op::RotrR32(d, a, b) => alu!(alu, Rotr, W32, d, a, state[b]),
                Op::RotrR64(d, a, b) => alu!(alu, Rotr, W64, d, a, state[b]),
                Op::RotrI32(d, a, imm) => alu!(alu, Rotr, W32, d, a, imm as u64),
                Op::RotrI64(d, a, imm) => alu!(alu, Rotr, W64, d, a, imm as u64),
                Op::Div { op, width, dst, a, b } => {
                    spent += cost.div;
                    match ops::eval_alu(op, width, state[a], state[b]) {
                        Ok(v) => state[dst] = v,
                        Err(t) => trap!(t),
                    }
                }
                // The evaluators truncate 32-bit operands themselves, so the
                // immediate is passed as it was emitted.
                Op::DivImm { op, width, dst, a, imm } => {
                    spent += cost.div;
                    match ops::eval_alu(op, width, state[a], imm as u64) {
                        Ok(v) => state[dst] = v,
                        Err(t) => trap!(t),
                    }
                }
                Op::EqR32(d, a, b) => cmp!(Eq, W32, d, a, state[b]),
                Op::EqR64(d, a, b) => cmp!(Eq, W64, d, a, state[b]),
                Op::EqI32(d, a, imm) => cmp!(Eq, W32, d, a, imm as u64),
                Op::EqI64(d, a, imm) => cmp!(Eq, W64, d, a, imm as u64),
                Op::NeR32(d, a, b) => cmp!(Ne, W32, d, a, state[b]),
                Op::NeR64(d, a, b) => cmp!(Ne, W64, d, a, state[b]),
                Op::NeI32(d, a, imm) => cmp!(Ne, W32, d, a, imm as u64),
                Op::NeI64(d, a, imm) => cmp!(Ne, W64, d, a, imm as u64),
                Op::LtSR32(d, a, b) => cmp!(LtS, W32, d, a, state[b]),
                Op::LtSR64(d, a, b) => cmp!(LtS, W64, d, a, state[b]),
                Op::LtSI32(d, a, imm) => cmp!(LtS, W32, d, a, imm as u64),
                Op::LtSI64(d, a, imm) => cmp!(LtS, W64, d, a, imm as u64),
                Op::LtUR32(d, a, b) => cmp!(LtU, W32, d, a, state[b]),
                Op::LtUR64(d, a, b) => cmp!(LtU, W64, d, a, state[b]),
                Op::LtUI32(d, a, imm) => cmp!(LtU, W32, d, a, imm as u64),
                Op::LtUI64(d, a, imm) => cmp!(LtU, W64, d, a, imm as u64),
                Op::GtSR32(d, a, b) => cmp!(GtS, W32, d, a, state[b]),
                Op::GtSR64(d, a, b) => cmp!(GtS, W64, d, a, state[b]),
                Op::GtSI32(d, a, imm) => cmp!(GtS, W32, d, a, imm as u64),
                Op::GtSI64(d, a, imm) => cmp!(GtS, W64, d, a, imm as u64),
                Op::GtUR32(d, a, b) => cmp!(GtU, W32, d, a, state[b]),
                Op::GtUR64(d, a, b) => cmp!(GtU, W64, d, a, state[b]),
                Op::GtUI32(d, a, imm) => cmp!(GtU, W32, d, a, imm as u64),
                Op::GtUI64(d, a, imm) => cmp!(GtU, W64, d, a, imm as u64),
                Op::LeSR32(d, a, b) => cmp!(LeS, W32, d, a, state[b]),
                Op::LeSR64(d, a, b) => cmp!(LeS, W64, d, a, state[b]),
                Op::LeSI32(d, a, imm) => cmp!(LeS, W32, d, a, imm as u64),
                Op::LeSI64(d, a, imm) => cmp!(LeS, W64, d, a, imm as u64),
                Op::LeUR32(d, a, b) => cmp!(LeU, W32, d, a, state[b]),
                Op::LeUR64(d, a, b) => cmp!(LeU, W64, d, a, state[b]),
                Op::LeUI32(d, a, imm) => cmp!(LeU, W32, d, a, imm as u64),
                Op::LeUI64(d, a, imm) => cmp!(LeU, W64, d, a, imm as u64),
                Op::GeSR32(d, a, b) => cmp!(GeS, W32, d, a, state[b]),
                Op::GeSR64(d, a, b) => cmp!(GeS, W64, d, a, state[b]),
                Op::GeSI32(d, a, imm) => cmp!(GeS, W32, d, a, imm as u64),
                Op::GeSI64(d, a, imm) => cmp!(GeS, W64, d, a, imm as u64),
                Op::GeUR32(d, a, b) => cmp!(GeU, W32, d, a, state[b]),
                Op::GeUR64(d, a, b) => cmp!(GeU, W64, d, a, state[b]),
                Op::GeUI32(d, a, imm) => cmp!(GeU, W32, d, a, imm as u64),
                Op::GeUI64(d, a, imm) => cmp!(GeU, W64, d, a, imm as u64),
                Op::MovImm { dst, imm } => {
                    spent += cost.mov;
                    state[dst] = imm as u64;
                }
                Op::FMovImm { dst, bits } => {
                    spent += cost.mov;
                    state[dst] = bits;
                }
                Op::Mov { dst, src } => {
                    spent += cost.mov;
                    state[dst] = state[src];
                }
                Op::FMov { dst, src } => {
                    spent += cost.mov;
                    state[dst] = state[src];
                }
                Op::LoadSlot { dst, slot } => {
                    spent += cost.slot_load;
                    state[dst] = slots[slot as usize];
                }
                Op::FLoadSlot { dst, slot } => {
                    spent += cost.slot_load;
                    state[dst] = slots[slot as usize];
                }
                Op::StoreSlot { slot, src } => {
                    spent += cost.slot_store;
                    slots[slot as usize] = state[src];
                }
                Op::FStoreSlot { slot, src } => {
                    spent += cost.slot_store;
                    slots[slot as usize] = state[src];
                }
                Op::StoreSlotImm { slot, imm } => {
                    spent += cost.slot_store;
                    slots[slot as usize] = imm as u64;
                }
                Op::StoreTag { slot, tag } => {
                    spent += cost.tag_store;
                    tags[slot as usize] = tag;
                }
                Op::GlobalGet { dst, index } => {
                    spent += cost.global;
                    state[dst] = ctx.globals[index as usize].bits;
                }
                Op::FGlobalGet { dst, index } => {
                    spent += cost.global;
                    state[dst] = ctx.globals[index as usize].bits;
                }
                Op::GlobalSet { index, src } => {
                    spent += cost.global;
                    ctx.globals[index as usize].bits = state[src];
                }
                Op::FGlobalSet { index, src } => {
                    spent += cost.global;
                    ctx.globals[index as usize].bits = state[src];
                }
                Op::Load8U { dst, addr, offset } => {
                    load!(dst, addr, offset, |b| u8::from_le_bytes(b) as u64)
                }
                Op::Load8S32 { dst, addr, offset } => {
                    load!(dst, addr, offset, |b| i8::from_le_bytes(b) as i32 as u32 as u64)
                }
                Op::Load8S64 { dst, addr, offset } => {
                    load!(dst, addr, offset, |b| i8::from_le_bytes(b) as i64 as u64)
                }
                Op::Load16U { dst, addr, offset } => {
                    load!(dst, addr, offset, |b| u16::from_le_bytes(b) as u64)
                }
                Op::Load16S32 { dst, addr, offset } => {
                    load!(dst, addr, offset, |b| i16::from_le_bytes(b) as i32 as u32 as u64)
                }
                Op::Load16S64 { dst, addr, offset } => {
                    load!(dst, addr, offset, |b| i16::from_le_bytes(b) as i64 as u64)
                }
                Op::Load32U { dst, addr, offset } => {
                    load!(dst, addr, offset, |b| u32::from_le_bytes(b) as u64)
                }
                Op::Load32S64 { dst, addr, offset } => {
                    load!(dst, addr, offset, |b| i32::from_le_bytes(b) as i64 as u64)
                }
                Op::Load64 { dst, addr, offset } => load!(dst, addr, offset, u64::from_le_bytes),
                Op::FLoad32 { dst, addr, offset } => {
                    load!(dst, addr, offset, |b| u32::from_le_bytes(b) as u64)
                }
                Op::FLoad64 { dst, addr, offset } => load!(dst, addr, offset, u64::from_le_bytes),
                Op::Store8 { src, addr, offset } => {
                    store!((state[src] as u8).to_le_bytes(), addr, offset)
                }
                Op::Store16 { src, addr, offset } => {
                    store!((state[src] as u16).to_le_bytes(), addr, offset)
                }
                Op::Store32 { src, addr, offset } => {
                    store!((state[src] as u32).to_le_bytes(), addr, offset)
                }
                Op::Store64 { src, addr, offset } => store!(state[src].to_le_bytes(), addr, offset),
                Op::FStore32 { src, addr, offset } => {
                    store!((state[src] as u32).to_le_bytes(), addr, offset)
                }
                Op::FStore64 { src, addr, offset } => {
                    store!(state[src].to_le_bytes(), addr, offset)
                }
                Op::MemLoad { dst, addr, offset, width, signed, dst_width } => {
                    spent += cost.mem_load;
                    let Some(memory) = ctx.memory.as_deref() else {
                        trap!(TrapCode::MemoryOutOfBounds)
                    };
                    match memory.load(state[addr] as u32, offset, width) {
                        Ok(raw) => {
                            state.write(dst, ops::extend_loaded(raw, width, signed, dst_width))
                        }
                        Err(t) => trap!(t),
                    }
                }
                Op::MemStore { src, addr, offset, width } => {
                    spent += cost.mem_store;
                    let addr = state[addr] as u32;
                    let bits = state.read(src);
                    let Some(memory) = ctx.memory.as_deref_mut() else {
                        trap!(TrapCode::MemoryOutOfBounds)
                    };
                    if let Err(t) = memory.store(addr, offset, width, bits) {
                        trap!(t);
                    }
                }
                Op::Jump { target } => {
                    spent += cost.jump;
                    pc = target as usize;
                    continue;
                }
                Op::BrNz { cond, target } => {
                    spent += cost.branch;
                    if state[cond] != 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::BrZ { cond, target } => {
                    spent += cost.branch;
                    if state[cond] == 0 {
                        pc = target as usize;
                        continue;
                    }
                }
                Op::Nop => {}
                Op::Unop { op, width, dst, src } => {
                    spent += cost.alu;
                    state[dst] = ops::eval_unop(op, width, state[src]);
                }
                Op::FAlu { op, width, dst, a, b } => {
                    spent += if op == FAluOp::Div { cost.fdiv } else { cost.falu };
                    state[dst] = ops::eval_falu(op, width, state[a], state[b]);
                }
                Op::FUnop { op, width, dst, src } => {
                    spent += if op == FUnOp::Sqrt { cost.fsqrt } else { cost.falu };
                    state[dst] = ops::eval_funop(op, width, state[src]);
                }
                Op::FCmp { op, width, dst, a, b } => {
                    spent += cost.falu;
                    state[dst] = ops::eval_fcmp(op, width, state[a], state[b]);
                }
                Op::Convert { op, dst, src } => {
                    spent += cost.convert;
                    match ops::eval_convert(op, state.read(src)) {
                        Ok(bits) => state.write(dst, bits),
                        Err(t) => trap!(t),
                    }
                }
                Op::Select { dst, cond, if_true, if_false } => {
                    spent += cost.select;
                    state[dst] = if state[cond] != 0 { state[if_true] } else { state[if_false] };
                }
                Op::FSelect { dst, cond, if_true, if_false } => {
                    spent += cost.select;
                    state[dst] = if state[cond] != 0 { state[if_true] } else { state[if_false] };
                }
                Op::MemorySize { dst } => {
                    spent += cost.memory_size;
                    let pages = ctx.memory.as_deref().map(|m| m.size_pages()).unwrap_or(0);
                    state[dst] = pages as u64;
                }
                Op::MemoryGrow { dst, delta } => {
                    spent += cost.memory_grow;
                    let delta = state[delta] as u32;
                    let result = match ctx.memory.as_deref_mut() {
                        Some(m) => m.grow(delta),
                        None => -1,
                    };
                    state[dst] = result as u32 as u64;
                }
                Op::BrTable { index, targets, default } => {
                    spent += cost.br_table;
                    let i = state[index] as usize;
                    let label = code.table(targets).get(i).copied().unwrap_or(default);
                    pc = code.target(label);
                    continue;
                }
                Op::Call { func_index } => {
                    spent += cost.call;
                    break Exit::Call { func_index, site: pc, resume: pc + 1 };
                }
                Op::CallIndirect { type_index, table_index, index } => {
                    spent += cost.call_indirect;
                    break Exit::CallIndirect {
                        type_index,
                        table_index,
                        entry_index: state[index] as u32,
                        site: pc,
                        resume: pc + 1,
                    };
                }
                Op::ProbeRuntime => {
                    spent += cost.probe_runtime;
                    break Exit::Probe { probe: ProbeExit::Frame { site: pc }, resume: pc + 1 };
                }
                Op::ProbeDirect => {
                    spent += cost.probe_direct;
                    break Exit::Probe { probe: ProbeExit::Frame { site: pc }, resume: pc + 1 };
                }
                Op::ProbeCounter { counter_id } => {
                    spent += cost.probe_counter;
                    break Exit::Probe {
                        probe: ProbeExit::Counter { counter_id },
                        resume: pc + 1,
                    };
                }
                Op::ProbeTosValue { src } => {
                    spent += cost.probe_tos;
                    break Exit::Probe {
                        probe: ProbeExit::TosValue { site: pc, bits: state.read(src) },
                        resume: pc + 1,
                    };
                }
                Op::FuelCheck { amount } => {
                    spent += cost.fuel_check;
                    // OSR is polled before any metering runs: when the hook
                    // fires, the site's fuel has not been charged, and the
                    // opt-tier entry stub jumps to the loop header whose
                    // first instruction is this same check — so the charge
                    // happens exactly once regardless of the transition.
                    if let Some(offset) =
                        ctx.meter.poll_osr(|| code.source_offset(pc).unwrap_or(0))
                    {
                        break Exit::Osr { offset, resume: pc };
                    }
                    // The fused meter check: decrement fuel, then observe a
                    // pending preemption request. A real engine implements
                    // this as one register decrement-and-branch (the
                    // supervisor delivers preemption by zeroing the
                    // activation's counter); the simulator keeps the two
                    // meters separate but preserves that single-sequence
                    // cost, which is why no distinct epoch poll is emitted.
                    if let Err(t) = ctx.meter.charge_fuel(amount) {
                        trap!(t);
                    }
                    if let Err(t) = ctx.meter.check_epoch() {
                        trap!(t);
                    }
                    ctx.meter.poll_sampler(|| code.source_offset(pc).unwrap_or(0));
                }
                Op::EpochCheck => {
                    spent += cost.epoch_check;
                    if let Some(offset) =
                        ctx.meter.poll_osr(|| code.source_offset(pc).unwrap_or(0))
                    {
                        break Exit::Osr { offset, resume: pc };
                    }
                    if let Err(t) = ctx.meter.check_epoch() {
                        trap!(t);
                    }
                    ctx.meter.poll_sampler(|| code.source_offset(pc).unwrap_or(0));
                }
                Op::Trap { code } => {
                    spent += cost.trap;
                    trap!(code);
                }
                Op::Return => {
                    spent += cost.ret;
                    break Exit::Return;
                }
            }
            pc += 1;
        };
        cycles.charge(spent);
        exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::inst::MachInst;
    use crate::masm::Masm;
    use crate::reg::{FReg, Reg};
    use crate::values::{ValueTag, WasmValue};
    use wasm::types::Limits;

    struct World {
        values: ValueStack,
        memory: LinearMemory,
        globals: Vec<GlobalSlot>,
        tables: Vec<Table>,
    }

    impl World {
        fn new() -> World {
            World {
                values: ValueStack::with_capacity(256),
                memory: LinearMemory::new(Limits::at_least(1)),
                globals: vec![GlobalSlot::from_value(WasmValue::I64(11))],
                tables: vec![Table::new(Limits::at_least(4))],
            }
        }

        fn run(&mut self, code: &CodeBuffer) -> (Exit, CpuState, u64) {
            let cpu = Cpu::new(CostModel::default());
            let mut state = CpuState::new();
            let mut cycles = CycleCounter::new();
            let mut ctx = ExecContext {
                values: &mut self.values,
                frame_base: 0,
                memory: Some(&mut self.memory),
                globals: &mut self.globals,
                tables: &mut self.tables,
                meter: Meter::off(),
            };
            let exit = cpu.run(&mut state, code, 0, &mut ctx, &mut cycles);
            (exit, state, cycles.total())
        }
    }

    #[test]
    fn arithmetic_and_moves() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 21 });
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 2 });
        asm.emit(MachInst::Alu {
            op: AluOp::Mul,
            width: Width::W32,
            dst: Reg(2),
            a: Reg(0),
            b: Reg(1),
        });
        asm.emit(MachInst::AluImm {
            op: AluOp::Add,
            width: Width::W32,
            dst: Reg(2),
            a: Reg(2),
            imm: -2,
        });
        asm.emit(MachInst::StoreSlot { slot: 0, src: Reg(2).into() });
        asm.emit(MachInst::StoreTag { slot: 0, tag: ValueTag::I32 });
        asm.emit(MachInst::Return);
        let code = asm.finish();

        let mut w = World::new();
        let (exit, state, cycles) = w.run(&code);
        assert_eq!(exit, Exit::Return);
        assert_eq!(state.gprs[2], 40);
        assert_eq!(w.values.read_value(0), WasmValue::I32(40));
        assert!(cycles > 0);
    }

    #[test]
    fn loop_sums_one_to_ten() {
        // r0 = counter, r1 = sum
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 10 });
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 0 });
        let top = asm.new_bound_label();
        asm.emit(MachInst::Alu {
            op: AluOp::Add,
            width: Width::W64,
            dst: Reg(1),
            a: Reg(1),
            b: Reg(0),
        });
        asm.emit(MachInst::AluImm {
            op: AluOp::Sub,
            width: Width::W64,
            dst: Reg(0),
            a: Reg(0),
            imm: 1,
        });
        asm.emit(MachInst::BrIf { cond: Reg(0), target: top, negate: false });
        asm.emit(MachInst::Return);
        let code = asm.finish();

        let mut w = World::new();
        let (exit, state, _) = w.run(&code);
        assert_eq!(exit, Exit::Return);
        assert_eq!(state.gprs[1], 55);
    }

    #[test]
    fn float_ops_and_selects() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::FMovImm { dst: FReg(0), bits: 2.0f64.to_bits() });
        asm.emit(MachInst::FMovImm { dst: FReg(1), bits: 0.5f64.to_bits() });
        asm.emit(MachInst::FAlu {
            op: FAluOp::Div,
            width: Width::W64,
            dst: FReg(2),
            a: FReg(0),
            b: FReg(1),
        });
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 0 });
        asm.emit(MachInst::FSelect {
            dst: FReg(3),
            cond: Reg(0),
            if_true: FReg(0),
            if_false: FReg(2),
        });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (_, state, _) = w.run(&code);
        assert_eq!(f64::from_bits(state.fprs[2]), 4.0);
        assert_eq!(f64::from_bits(state.fprs[3]), 4.0);
    }

    #[test]
    fn memory_access_and_bounds_trap() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 64 });
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: -1 });
        asm.emit(MachInst::MemStore { src: Reg(1).into(), addr: Reg(0), offset: 0, width: 4 });
        asm.emit(MachInst::MemLoad {
            dst: Reg(2).into(),
            addr: Reg(0),
            offset: 2,
            width: 2,
            signed: true,
            dst_width: Width::W32,
        });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (exit, state, _) = w.run(&code);
        assert_eq!(exit, Exit::Return);
        assert_eq!(state.gprs[2] as u32 as i32, -1);

        // Out-of-bounds store traps.
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 65536 });
        asm.emit(MachInst::MemStore { src: Reg(0).into(), addr: Reg(0), offset: 0, width: 4 });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let (exit, _, _) = w.run(&code);
        assert_eq!(exit, Exit::Trap { code: TrapCode::MemoryOutOfBounds, at: 1 });
    }

    #[test]
    fn memory_size_and_grow() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::MemorySize { dst: Reg(0) });
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 2 });
        asm.emit(MachInst::MemoryGrow { dst: Reg(2), delta: Reg(1) });
        asm.emit(MachInst::MemorySize { dst: Reg(3) });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (_, state, _) = w.run(&code);
        assert_eq!(state.gprs[0], 1);
        assert_eq!(state.gprs[2], 1);
        assert_eq!(state.gprs[3], 3);
    }

    #[test]
    fn globals_and_tags() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::GlobalGet { dst: Reg(0).into(), index: 0 });
        asm.emit(MachInst::AluImm {
            op: AluOp::Add,
            width: Width::W64,
            dst: Reg(0),
            a: Reg(0),
            imm: 1,
        });
        asm.emit(MachInst::GlobalSet { index: 0, src: Reg(0).into() });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (_, _, _) = w.run(&code);
        assert_eq!(w.globals[0].value(), WasmValue::I64(12));
    }

    #[test]
    fn division_trap_exits() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 9 });
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 0 });
        asm.emit(MachInst::Alu {
            op: AluOp::DivU,
            width: Width::W32,
            dst: Reg(2),
            a: Reg(0),
            b: Reg(1),
        });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (exit, _, _) = w.run(&code);
        assert_eq!(exit, Exit::Trap { code: TrapCode::DivisionByZero, at: 2 });
    }

    #[test]
    fn call_and_probe_exits_resume_pcs() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::Call { func_index: 3 });
        asm.emit(MachInst::ProbeTosValue { probe_id: 9, src: Reg(5).into() });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (exit, _, _) = w.run(&code);
        assert_eq!(exit, Exit::Call { func_index: 3, site: 0, resume: 1 });

        // Resume at pc 1: the probe exit carries the register value.
        let cpu = Cpu::new(CostModel::default());
        let mut state = CpuState::new();
        state.gprs[5] = 77;
        let mut cycles = CycleCounter::new();
        let mut ctx = ExecContext {
            values: &mut w.values,
            frame_base: 0,
            memory: Some(&mut w.memory),
            globals: &mut w.globals,
            tables: &mut w.tables,
            meter: Meter::off(),
        };
        let exit = cpu.run(&mut state, &code, 1, &mut ctx, &mut cycles);
        assert_eq!(
            exit,
            Exit::Probe { probe: ProbeExit::TosValue { site: 1, bits: 77 }, resume: 2 }
        );
        let exit = cpu.run(&mut state, &code, 2, &mut ctx, &mut cycles);
        assert_eq!(exit, Exit::Return);
    }

    /// Three tables share one buffer's label pool: a one-entry table, an
    /// empty one (always its default), and the table under test, whose
    /// targets therefore start at pool index 1. Its last target is a label
    /// bound one past the end of the code, which returns.
    #[test]
    fn br_table_dispatch() {
        let cost = CostModel::default();
        let mut asm = Assembler::new();
        let second = asm.new_label();
        let third = asm.new_label();
        let l0 = asm.new_label();
        let l1 = asm.new_label();
        let ldefault = asm.new_label();
        let end = asm.new_label();
        asm.br_table(Reg(2), &[second], ldefault);
        asm.bind(second);
        asm.br_table(Reg(0), &[], third);
        asm.bind(third);
        asm.br_table(Reg(0), &[l0, l1, end], ldefault);
        asm.bind(l0);
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 100 });
        asm.emit(MachInst::Return);
        asm.bind(l1);
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 200 });
        asm.emit(MachInst::Return);
        asm.bind(ldefault);
        asm.emit(MachInst::MovImm { dst: Reg(1), imm: 300 });
        asm.emit(MachInst::Return);
        asm.bind(end);
        let code = asm.finish();
        assert_eq!(code.target(end), code.len());

        let landed = cost.mov + cost.ret;
        for (input, expected, tail) in [
            (0u64, 100u64, landed),
            (1, 200, landed),
            (2, 0, 0),
            (3, 300, landed),
            (99, 300, landed),
            (u64::MAX, 300, landed),
        ] {
            let cpu = Cpu::new(cost.clone());
            let mut w = World::new();
            let mut state = CpuState::new();
            state.gprs[0] = input;
            let mut cycles = CycleCounter::new();
            let mut ctx = ExecContext {
                values: &mut w.values,
                frame_base: 0,
                memory: Some(&mut w.memory),
                globals: &mut w.globals,
                tables: &mut w.tables,
                meter: Meter::off(),
            };
            let exit = cpu.run(&mut state, &code, 0, &mut ctx, &mut cycles);
            assert_eq!(exit, Exit::Return);
            assert_eq!(state.gprs[1], expected, "input {input}");
            assert_eq!(cycles.total(), 3 * cost.br_table + tail, "input {input}");
        }
    }

    #[test]
    fn frame_base_offsets_slot_access() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::LoadSlot { dst: Reg(0).into(), slot: 1 });
        asm.emit(MachInst::AluImm {
            op: AluOp::Add,
            width: Width::W64,
            dst: Reg(0),
            a: Reg(0),
            imm: 5,
        });
        asm.emit(MachInst::StoreSlot { slot: 2, src: Reg(0).into() });
        asm.emit(MachInst::Return);
        let code = asm.finish();

        let mut w = World::new();
        w.values.write_tagged(10, 0, ValueTag::I64);
        w.values.write_tagged(11, 30, ValueTag::I64);
        let cpu = Cpu::new(CostModel::default());
        let mut state = CpuState::new();
        let mut cycles = CycleCounter::new();
        let mut ctx = ExecContext {
            values: &mut w.values,
            frame_base: 10,
            memory: Some(&mut w.memory),
            globals: &mut w.globals,
            tables: &mut w.tables,
            meter: Meter::off(),
        };
        cpu.run(&mut state, &code, 0, &mut ctx, &mut cycles);
        assert_eq!(w.values.read(12), 35);
    }

    #[test]
    fn comparisons_feed_branches() {
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 3 });
        asm.emit(MachInst::CmpImm {
            op: CmpOp::LtS,
            width: Width::W32,
            dst: Reg(1),
            a: Reg(0),
            imm: 10,
        });
        let yes = asm.new_label();
        asm.emit(MachInst::BrIf { cond: Reg(1), target: yes, negate: false });
        asm.emit(MachInst::MovImm { dst: Reg(2), imm: 0 });
        asm.emit(MachInst::Return);
        asm.bind(yes);
        asm.emit(MachInst::MovImm { dst: Reg(2), imm: 1 });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (_, state, _) = w.run(&code);
        assert_eq!(state.gprs[2], 1);
    }

    #[test]
    fn cycles_reflect_cost_model() {
        let cost = CostModel::default();
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 1 });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let mut w = World::new();
        let (_, _, cycles) = w.run(&code);
        assert_eq!(cycles, cost.mov + cost.ret);
    }
}
