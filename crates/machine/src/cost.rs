//! The cycle cost model shared by every execution tier.
//!
//! The reproduction measures *execution time* in simulated cycles rather than
//! wall-clock nanoseconds (see DESIGN.md). Each virtual-ISA instruction
//! executed by the CPU simulator is charged a cost from this model, and the
//! in-place interpreter charges itself the cost of the work a real
//! interpreter performs per bytecode: dispatch, immediate decoding, operand
//! stack traffic, tag maintenance, and the operation itself.
//!
//! Using one model for both tiers is what makes the relative comparisons
//! (JIT speedup over the interpreter, tag overhead, probe overhead)
//! meaningful: an optimization only wins by removing work, never by being
//! costed under a different ruler.

use crate::inst::{AluOp, FAluOp, FUnOp, MachInst};

/// Per-operation cycle costs. All figures are rough x86-64-class latencies,
/// in "cycles" of the simulated machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Register-to-register move or integer constant materialization.
    pub mov: u64,
    /// Simple integer ALU operation (add, sub, logical, shift, compare).
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide / remainder.
    pub div: u64,
    /// Floating-point add/sub/mul and comparisons.
    pub falu: u64,
    /// Floating-point divide.
    pub fdiv: u64,
    /// Floating-point square root.
    pub fsqrt: u64,
    /// Numeric conversion.
    pub convert: u64,
    /// Conditional select.
    pub select: u64,
    /// Load of a value-stack slot.
    pub slot_load: u64,
    /// Store of a value-stack slot.
    pub slot_store: u64,
    /// Store of a value tag. The cost the paper's tag optimizations remove.
    pub tag_store: u64,
    /// Linear-memory load.
    pub mem_load: u64,
    /// Linear-memory store.
    pub mem_store: u64,
    /// Global variable access.
    pub global: u64,
    /// `memory.size`.
    pub memory_size: u64,
    /// `memory.grow`.
    pub memory_grow: u64,
    /// Unconditional jump.
    pub jump: u64,
    /// Conditional branch.
    pub branch: u64,
    /// Jump-table dispatch.
    pub br_table: u64,
    /// Direct call overhead (frame setup, transfer) charged to the caller.
    pub call: u64,
    /// Indirect call overhead (table load, null and signature checks).
    pub call_indirect: u64,
    /// Call to a host (imported) function.
    pub host_call: u64,
    /// Function return.
    pub ret: u64,
    /// Trap processing.
    pub trap: u64,
    /// Unoptimized probe: runtime lookup, frame-accessor allocation, callback.
    pub probe_runtime: u64,
    /// Optimized probe: direct call, no accessor allocation.
    pub probe_direct: u64,
    /// Fully intrinsified counter probe.
    pub probe_counter: u64,
    /// Optimized probe passing the top-of-stack value directly.
    pub probe_tos: u64,
    /// Fused meter check (counter subtract + branch). Covers both fuel and
    /// preemption: a real engine keeps one activation counter in a pinned
    /// register and delivers epoch expiry by zeroing it, so the emitted
    /// sequence stays a single decrement-and-branch — and since the exit
    /// branch is never taken until exhaustion, it macro-fuses with the
    /// decrement and predicts perfectly, costing one cycle, unlike the
    /// data-dependent branches `branch` models.
    pub fuel_check: u64,
    /// Standalone epoch poll (memory compare + branch). Kept in the model
    /// for tiers that poll without fuel accounting; the shipped compilers
    /// emit only the fused check.
    pub epoch_check: u64,
    /// Interpreter: dispatch (fetch opcode, indirect branch to handler).
    pub interp_dispatch: u64,
    /// Interpreter: decode one immediate operand (LEB or literal).
    pub interp_imm: u64,
    /// Interpreter: extra work to enter/exit a control construct or look up
    /// the sidetable on a taken branch.
    pub interp_control: u64,
    /// Interpreter: extra per-call frame bookkeeping beyond the shared call
    /// overhead.
    pub interp_call_setup: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            mov: 1,
            alu: 1,
            mul: 3,
            div: 12,
            falu: 3,
            fdiv: 13,
            fsqrt: 15,
            convert: 3,
            select: 2,
            slot_load: 2,
            slot_store: 2,
            tag_store: 2,
            mem_load: 3,
            mem_store: 3,
            global: 2,
            memory_size: 2,
            memory_grow: 100,
            jump: 1,
            branch: 2,
            br_table: 4,
            call: 20,
            call_indirect: 30,
            host_call: 35,
            ret: 5,
            trap: 30,
            probe_runtime: 55,
            probe_direct: 14,
            probe_counter: 3,
            probe_tos: 6,
            fuel_check: 1,
            epoch_check: 2,
            interp_dispatch: 4,
            interp_imm: 1,
            interp_control: 3,
            interp_call_setup: 30,
        }
    }
}

impl CostModel {
    /// The cost charged for executing one virtual-ISA instruction.
    ///
    /// This is the specification. The simulator never calls it — each arm of
    /// [`crate::cpu::Cpu::run`] charges its own field inside its one
    /// dispatch — and `tests/cost_oracle.rs` holds the two equal for every
    /// variant and every form the simulator executes separately, under a
    /// model whose fields are pairwise distinct.
    ///
    /// Call-like instructions only include the transfer overhead here; the
    /// callee's execution is charged as it runs.
    pub fn inst_cost(&self, inst: &MachInst) -> u64 {
        use MachInst::*;
        match inst {
            Nop => 0,
            MovImm { .. } | FMovImm { .. } | Mov { .. } | FMov { .. } => self.mov,
            LoadSlot { .. } => self.slot_load,
            StoreSlot { .. } | StoreSlotImm { .. } => self.slot_store,
            StoreTag { .. } => self.tag_store,
            Alu { op, .. } | AluImm { op, .. } => match op {
                AluOp::Mul => self.mul,
                _ if op.is_division() => self.div,
                _ => self.alu,
            },
            Unop { .. } => self.alu,
            Cmp { .. } | CmpImm { .. } => self.alu,
            FAlu { op, .. } => match op {
                FAluOp::Div => self.fdiv,
                _ => self.falu,
            },
            FUnop { op, .. } => match op {
                FUnOp::Sqrt => self.fsqrt,
                _ => self.falu,
            },
            FCmp { .. } => self.falu,
            Convert { .. } => self.convert,
            Select { .. } | FSelect { .. } => self.select,
            MemLoad { .. } => self.mem_load,
            MemStore { .. } => self.mem_store,
            MemorySize { .. } => self.memory_size,
            MemoryGrow { .. } => self.memory_grow,
            GlobalGet { .. } | GlobalSet { .. } => self.global,
            Jump { .. } => self.jump,
            BrIf { .. } => self.branch,
            BrTable { .. } => self.br_table,
            Call { .. } => self.call,
            CallIndirect { .. } => self.call_indirect,
            ProbeRuntime { .. } => self.probe_runtime,
            ProbeDirect { .. } => self.probe_direct,
            ProbeCounter { .. } => self.probe_counter,
            ProbeTosValue { .. } => self.probe_tos,
            FuelCheck { .. } => self.fuel_check,
            EpochCheck => self.epoch_check,
            Trap { .. } => self.trap,
            Return => self.ret,
        }
    }
}

/// A running cycle counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleCounter {
    cycles: u64,
}

impl CycleCounter {
    /// Creates a counter at zero.
    pub fn new() -> CycleCounter {
        CycleCounter::default()
    }

    /// Adds `cycles` to the counter.
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
    }

    /// The total cycles charged so far.
    pub fn total(&self) -> u64 {
        self.cycles
    }

    /// Resets the counter to zero.
    pub fn reset(&mut self) {
        self.cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Label, TrapCode, Width};
    use crate::reg::Reg;

    #[test]
    fn default_costs_are_ordered_sensibly() {
        let m = CostModel::default();
        assert!(m.alu < m.mul);
        assert!(m.mul < m.div);
        assert!(m.falu < m.fdiv);
        assert!(m.slot_load > 0 && m.slot_store > 0);
        assert!(m.mem_load >= m.slot_load);
        assert!(m.call > m.branch);
        assert!(m.call_indirect > m.call);
        assert!(m.probe_runtime > m.probe_direct);
        assert!(m.probe_direct > m.probe_tos);
        assert!(m.probe_tos > m.probe_counter);
        assert!(m.fuel_check > 0 && m.fuel_check < m.branch + m.alu + 1);
        assert!(m.epoch_check > 0);
        assert!(m.interp_dispatch > 0);
    }

    #[test]
    fn inst_costs_follow_categories() {
        let m = CostModel::default();
        let add = MachInst::Alu {
            op: AluOp::Add,
            width: Width::W32,
            dst: Reg(0),
            a: Reg(1),
            b: Reg(2),
        };
        let div = MachInst::Alu {
            op: AluOp::DivS,
            width: Width::W32,
            dst: Reg(0),
            a: Reg(1),
            b: Reg(2),
        };
        let mul = MachInst::AluImm {
            op: AluOp::Mul,
            width: Width::W64,
            dst: Reg(0),
            a: Reg(1),
            imm: 3,
        };
        assert_eq!(m.inst_cost(&add), m.alu);
        assert_eq!(m.inst_cost(&div), m.div);
        assert_eq!(m.inst_cost(&mul), m.mul);
        assert_eq!(m.inst_cost(&MachInst::Nop), 0);
        assert_eq!(
            m.inst_cost(&MachInst::StoreTag { slot: 0, tag: crate::values::ValueTag::I32 }),
            m.tag_store
        );
        assert_eq!(m.inst_cost(&MachInst::Jump { target: Label(0) }), m.jump);
        assert_eq!(m.inst_cost(&MachInst::Call { func_index: 0 }), m.call);
        assert_eq!(
            m.inst_cost(&MachInst::Trap { code: TrapCode::Unreachable }),
            m.trap
        );
    }

    #[test]
    fn cycle_counter_accumulates() {
        let mut c = CycleCounter::new();
        assert_eq!(c.total(), 0);
        c.charge(5);
        c.charge(7);
        assert_eq!(c.total(), 12);
        c.reset();
        assert_eq!(c.total(), 0);
    }
}
