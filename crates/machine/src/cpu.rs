//! The CPU simulator that executes compiled code.
//!
//! Compiled functions run against exactly the same runtime objects as the
//! interpreter: the tagged value stack, linear memory, globals, and tables.
//! Execution is *resumable*: calls, probes, returns, and traps exit back to
//! the engine, which performs the transfer (possibly into a different
//! execution tier) and then resumes the code at `resume_pc`. Register
//! contents live in a per-frame [`CpuState`], and the calling convention
//! requires compilers to spill live values to the value stack before any
//! exiting instruction, so nothing is lost across an exit.
//!
//! Every executed instruction is charged to a [`CycleCounter`] using the
//! shared [`CostModel`]; those cycles are the "execution time" that the
//! paper's figures compare.

use crate::asm::CodeBuffer;
use crate::cost::{CostModel, CycleCounter};
use crate::inst::{AluOp, FAluOp, FUnOp, MachInst, TrapCode, Width};
use crate::memory::{LinearMemory, Table};
use crate::ops;
use crate::reg::{AnyReg, Reg, NUM_FPRS, NUM_GPRS};
use crate::values::{GlobalSlot, ValueStack};
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

impl<'a> ExecContext<'a> {
    fn slot_index(&self, slot: u32) -> usize {
        self.frame_base + slot as usize
    }
}

/// Why a probe instruction exited to the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProbeExit {
    /// Unoptimized probe: the runtime must look up and fire probes.
    Runtime {
        /// Probe site id.
        probe_id: u32,
    },
    /// Optimized direct probe call.
    Direct {
        /// Probe site id.
        probe_id: u32,
    },
    /// Intrinsified counter increment.
    Counter {
        /// Counter id.
        counter_id: u32,
    },
    /// Optimized probe passing the top-of-stack value.
    TosValue {
        /// Probe site id.
        probe_id: u32,
        /// The value passed to the probe.
        bits: u64,
    },
}

/// The reason compiled code stopped executing.
#[derive(Debug, Clone, PartialEq)]
pub enum CpuExit {
    /// The function returned. Results are in the frame's first result slots.
    Return,
    /// A direct call; the engine must execute `func_index` and resume at
    /// `resume_pc`.
    Call {
        /// Callee function index.
        func_index: u32,
        /// Program counter to resume this code at after the call.
        resume_pc: usize,
    },
    /// An indirect call; the engine must check and execute the table entry.
    CallIndirect {
        /// Expected signature (type index).
        type_index: u32,
        /// Table index.
        table_index: u32,
        /// The dynamic element index.
        entry_index: u32,
        /// Program counter to resume at after the call.
        resume_pc: usize,
    },
    /// A probe fired; the engine must notify the instrumentation and resume.
    Probe {
        /// What kind of probe and its payload.
        exit: ProbeExit,
        /// Program counter to resume at.
        resume_pc: usize,
    },
    /// The OSR hook fired at a hot loop-body start; the engine should try to
    /// transfer this activation into the optimizing tier, or resume at
    /// `resume_pc` (the check instruction itself, whose meter work has not
    /// yet run) to continue in place.
    Osr {
        /// The wasm bytecode offset of the loop-body start.
        offset: u32,
        /// Program counter to resume at if the transition is not taken.
        resume_pc: usize,
    },
    /// Execution trapped.
    Trap {
        /// The trap reason.
        code: TrapCode,
        /// Program counter of the trapping instruction — the engine maps it
        /// back to a wasm bytecode offset through the code's source map when
        /// building a backtrace.
        pc: usize,
    },
}

/// Executes compiled code until it exits.
#[derive(Debug, Clone)]
pub struct Cpu {
    cost: CostModel,
    /// The cost of `Alu`/`AluImm` by operation: the one place an
    /// instruction's cost depends on more than its variant often enough to
    /// matter, so it is looked up instead of decided by a second dispatch.
    /// Filled from [`CostModel::inst_cost`] when the CPU is built.
    alu_cost: [u64; AluOp::ALL.len()],
}

impl Default for Cpu {
    fn default() -> Cpu {
        Cpu::new(CostModel::default())
    }
}

impl Cpu {
    /// Creates a CPU with the given cost model.
    pub fn new(cost: CostModel) -> Cpu {
        let alu_cost = AluOp::ALL.map(|op| {
            cost.inst_cost(&MachInst::Alu {
                op,
                width: Width::W64,
                dst: Reg(0),
                a: Reg(0),
                b: Reg(0),
            })
        });
        Cpu { cost, alu_cost }
    }

    /// Runs `code` starting at instruction `pc` until it exits, charging
    /// executed instructions to `cycles`.
    ///
    /// This loop retires every instruction the compilers emit, so it is kept
    /// to one dispatch per instruction: each arm charges its own cost (what
    /// [`CostModel::inst_cost`] specifies for that variant — the cost-oracle
    /// test holds the two together) and then executes. Cycles accumulate in a
    /// local and reach `cycles` once, on the way out. A trapping instruction
    /// is charged before it traps.
    pub fn run(
        &self,
        state: &mut CpuState,
        code: &CodeBuffer,
        mut pc: usize,
        ctx: &mut ExecContext<'_>,
        cycles: &mut CycleCounter,
    ) -> CpuExit {
        let cost = &self.cost;
        let insts = code.insts();
        let mut spent = 0u64;
        macro_rules! trap {
            ($code:expr) => {
                break CpuExit::Trap { code: $code, pc }
            };
        }
        let exit = loop {
            let Some(&inst) = insts.get(pc) else {
                break CpuExit::Return;
            };
            match inst {
                MachInst::Nop => {}
                MachInst::MovImm { dst, imm } => {
                    spent += cost.mov;
                    state.gprs[dst.index()] = imm as u64;
                }
                MachInst::FMovImm { dst, bits } => {
                    spent += cost.mov;
                    state.fprs[dst.index()] = bits;
                }
                MachInst::Mov { dst, src } => {
                    spent += cost.mov;
                    state.gprs[dst.index()] = state.gprs[src.index()];
                }
                MachInst::FMov { dst, src } => {
                    spent += cost.mov;
                    state.fprs[dst.index()] = state.fprs[src.index()];
                }
                MachInst::LoadSlot { dst, slot } => {
                    spent += cost.slot_load;
                    let bits = ctx.values.read(ctx.slot_index(slot));
                    state.write(dst, bits);
                }
                MachInst::StoreSlot { slot, src } => {
                    spent += cost.slot_store;
                    let bits = state.read(src);
                    ctx.values.write(ctx.slot_index(slot), bits);
                }
                MachInst::StoreSlotImm { slot, imm } => {
                    spent += cost.slot_store;
                    ctx.values.write(ctx.slot_index(slot), imm as u64);
                }
                MachInst::StoreTag { slot, tag } => {
                    spent += cost.tag_store;
                    ctx.values.set_tag(ctx.slot_index(slot), tag);
                }
                MachInst::Alu { op, width, dst, a, b } => {
                    spent += self.alu_cost[op as usize];
                    match ops::eval_alu(op, width, state.gprs[a.index()], state.gprs[b.index()]) {
                        Ok(v) => state.gprs[dst.index()] = v,
                        Err(t) => trap!(t),
                    }
                }
                // The evaluators truncate 32-bit operands themselves, so the
                // immediate is passed as it was emitted.
                MachInst::AluImm { op, width, dst, a, imm } => {
                    spent += self.alu_cost[op as usize];
                    match ops::eval_alu(op, width, state.gprs[a.index()], imm as u64) {
                        Ok(v) => state.gprs[dst.index()] = v,
                        Err(t) => trap!(t),
                    }
                }
                MachInst::Unop { op, width, dst, src } => {
                    spent += cost.alu;
                    state.gprs[dst.index()] = ops::eval_unop(op, width, state.gprs[src.index()]);
                }
                MachInst::Cmp { op, width, dst, a, b } => {
                    spent += cost.alu;
                    state.gprs[dst.index()] =
                        ops::eval_cmp(op, width, state.gprs[a.index()], state.gprs[b.index()]);
                }
                MachInst::CmpImm { op, width, dst, a, imm } => {
                    spent += cost.alu;
                    state.gprs[dst.index()] =
                        ops::eval_cmp(op, width, state.gprs[a.index()], imm as u64);
                }
                MachInst::FAlu { op, width, dst, a, b } => {
                    spent += if op == FAluOp::Div { cost.fdiv } else { cost.falu };
                    state.fprs[dst.index()] =
                        ops::eval_falu(op, width, state.fprs[a.index()], state.fprs[b.index()]);
                }
                MachInst::FUnop { op, width, dst, src } => {
                    spent += if op == FUnOp::Sqrt { cost.fsqrt } else { cost.falu };
                    state.fprs[dst.index()] = ops::eval_funop(op, width, state.fprs[src.index()]);
                }
                MachInst::FCmp { op, width, dst, a, b } => {
                    spent += cost.falu;
                    state.gprs[dst.index()] =
                        ops::eval_fcmp(op, width, state.fprs[a.index()], state.fprs[b.index()]);
                }
                MachInst::Convert { op, dst, src } => {
                    spent += cost.convert;
                    match ops::eval_convert(op, state.read(src)) {
                        Ok(bits) => state.write(dst, bits),
                        Err(t) => trap!(t),
                    }
                }
                MachInst::Select { dst, cond, if_true, if_false } => {
                    spent += cost.select;
                    let take = state.gprs[cond.index()] != 0;
                    state.gprs[dst.index()] = if take {
                        state.gprs[if_true.index()]
                    } else {
                        state.gprs[if_false.index()]
                    };
                }
                MachInst::FSelect { dst, cond, if_true, if_false } => {
                    spent += cost.select;
                    let take = state.gprs[cond.index()] != 0;
                    state.fprs[dst.index()] = if take {
                        state.fprs[if_true.index()]
                    } else {
                        state.fprs[if_false.index()]
                    };
                }
                MachInst::MemLoad { dst, addr, offset, width, signed, dst_width } => {
                    spent += cost.mem_load;
                    let Some(memory) = ctx.memory.as_deref() else {
                        trap!(TrapCode::MemoryOutOfBounds)
                    };
                    let addr = state.gprs[addr.index()] as u32;
                    match memory.load(addr, offset, width) {
                        Ok(raw) => state.write(dst, extend_loaded(raw, width, signed, dst_width)),
                        Err(t) => trap!(t),
                    }
                }
                MachInst::MemStore { src, addr, offset, width } => {
                    spent += cost.mem_store;
                    let addr = state.gprs[addr.index()] as u32;
                    let bits = state.read(src);
                    let Some(memory) = ctx.memory.as_deref_mut() else {
                        trap!(TrapCode::MemoryOutOfBounds)
                    };
                    if let Err(t) = memory.store(addr, offset, width, bits) {
                        trap!(t);
                    }
                }
                MachInst::MemorySize { dst } => {
                    spent += cost.memory_size;
                    let pages = ctx.memory.as_deref().map(|m| m.size_pages()).unwrap_or(0);
                    state.gprs[dst.index()] = pages as u64;
                }
                MachInst::MemoryGrow { dst, delta } => {
                    spent += cost.memory_grow;
                    let delta = state.gprs[delta.index()] as u32;
                    let result = match ctx.memory.as_deref_mut() {
                        Some(m) => m.grow(delta),
                        None => -1,
                    };
                    state.gprs[dst.index()] = result as u32 as u64;
                }
                MachInst::GlobalGet { dst, index } => {
                    spent += cost.global;
                    let bits = ctx.globals[index as usize].bits;
                    state.write(dst, bits);
                }
                MachInst::GlobalSet { index, src } => {
                    spent += cost.global;
                    ctx.globals[index as usize].bits = state.read(src);
                }
                MachInst::Jump { target } => {
                    spent += cost.jump;
                    pc = code.target(target);
                    continue;
                }
                MachInst::BrIf { cond, target, negate } => {
                    spent += cost.branch;
                    if (state.gprs[cond.index()] != 0) ^ negate {
                        pc = code.target(target);
                        continue;
                    }
                }
                MachInst::BrTable { index, targets, default } => {
                    spent += cost.br_table;
                    let i = state.gprs[index.index()] as usize;
                    let label = code.table(targets).get(i).copied().unwrap_or(default);
                    pc = code.target(label);
                    continue;
                }
                MachInst::Call { func_index } => {
                    spent += cost.call;
                    break CpuExit::Call { func_index, resume_pc: pc + 1 };
                }
                MachInst::CallIndirect { type_index, table_index, index } => {
                    spent += cost.call_indirect;
                    break CpuExit::CallIndirect {
                        type_index,
                        table_index,
                        entry_index: state.gprs[index.index()] as u32,
                        resume_pc: pc + 1,
                    };
                }
                MachInst::ProbeRuntime { probe_id } => {
                    spent += cost.probe_runtime;
                    break CpuExit::Probe {
                        exit: ProbeExit::Runtime { probe_id },
                        resume_pc: pc + 1,
                    };
                }
                MachInst::ProbeDirect { probe_id } => {
                    spent += cost.probe_direct;
                    break CpuExit::Probe {
                        exit: ProbeExit::Direct { probe_id },
                        resume_pc: pc + 1,
                    };
                }
                MachInst::ProbeCounter { counter_id } => {
                    spent += cost.probe_counter;
                    break CpuExit::Probe {
                        exit: ProbeExit::Counter { counter_id },
                        resume_pc: pc + 1,
                    };
                }
                MachInst::ProbeTosValue { probe_id, src } => {
                    spent += cost.probe_tos;
                    break CpuExit::Probe {
                        exit: ProbeExit::TosValue { probe_id, bits: state.read(src) },
                        resume_pc: pc + 1,
                    };
                }
                MachInst::FuelCheck { amount } => {
                    spent += cost.fuel_check;
                    // OSR is polled before any metering runs: when the hook
                    // fires, the site's fuel has not been charged, and the
                    // opt-tier entry stub jumps to the loop header whose
                    // first instruction is this same check — so the charge
                    // happens exactly once regardless of the transition.
                    if let Some(offset) =
                        ctx.meter.poll_osr(|| code.source_offset(pc).unwrap_or(0))
                    {
                        break CpuExit::Osr { offset, resume_pc: pc };
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
                MachInst::EpochCheck => {
                    spent += cost.epoch_check;
                    if let Some(offset) =
                        ctx.meter.poll_osr(|| code.source_offset(pc).unwrap_or(0))
                    {
                        break CpuExit::Osr { offset, resume_pc: pc };
                    }
                    if let Err(t) = ctx.meter.check_epoch() {
                        trap!(t);
                    }
                    ctx.meter.poll_sampler(|| code.source_offset(pc).unwrap_or(0));
                }
                MachInst::Trap { code } => {
                    spent += cost.trap;
                    trap!(code);
                }
                MachInst::Return => {
                    spent += cost.ret;
                    break CpuExit::Return;
                }
            }
            pc += 1;
        };
        cycles.charge(spent);
        exit
    }
}

fn extend_loaded(raw: u64, width: u32, signed: bool, dst_width: Width) -> u64 {
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
    match dst_width {
        Width::W32 => value as u32 as u64,
        Width::W64 => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::inst::{AluOp, CmpOp, FAluOp};
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

        fn run(&mut self, code: &CodeBuffer) -> (CpuExit, CpuState, u64) {
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
        assert_eq!(exit, CpuExit::Return);
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
        assert_eq!(exit, CpuExit::Return);
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
        assert_eq!(exit, CpuExit::Return);
        assert_eq!(state.gprs[2] as u32 as i32, -1);

        // Out-of-bounds store traps.
        let mut asm = Assembler::new();
        asm.emit(MachInst::MovImm { dst: Reg(0), imm: 65536 });
        asm.emit(MachInst::MemStore { src: Reg(0).into(), addr: Reg(0), offset: 0, width: 4 });
        asm.emit(MachInst::Return);
        let code = asm.finish();
        let (exit, _, _) = w.run(&code);
        assert_eq!(exit, CpuExit::Trap { code: TrapCode::MemoryOutOfBounds, pc: 1 });
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
        assert_eq!(exit, CpuExit::Trap { code: TrapCode::DivisionByZero, pc: 2 });
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
        assert_eq!(exit, CpuExit::Call { func_index: 3, resume_pc: 1 });

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
            CpuExit::Probe {
                exit: ProbeExit::TosValue { probe_id: 9, bits: 77 },
                resume_pc: 2
            }
        );
        let exit = cpu.run(&mut state, &code, 2, &mut ctx, &mut cycles);
        assert_eq!(exit, CpuExit::Return);
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
            assert_eq!(exit, CpuExit::Return);
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
