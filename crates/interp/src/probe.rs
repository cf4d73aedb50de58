//! Probes: the engine's flexible instrumentation hooks.
//!
//! A *probe* is a user callback attached to a bytecode location that fires
//! before the instruction executes (the paper's Section IV-D). Probes receive
//! a [`FrameAccessor`] exposing the live execution frame — locals, operand
//! stack, and position — without the instrumentation needing to know how the
//! executing tier stores values.
//!
//! The interpreter consults a [`ProbeSink`] at every instruction of a
//! function the sink has probes in (and not at all elsewhere); the
//! single-pass compiler instead bakes the attached probes into the generated
//! code (and optimizes common probe shapes), which is what the paper's
//! Fig. 6 experiment measures.

use machine::values::{ValueStack, WasmValue};

/// A view of a live execution frame handed to probe callbacks.
///
/// This plays the role of Wizard's "opaque, lazily-allocated accessor
/// object": it can read locals and operand-stack values of the probed frame.
#[derive(Debug)]
pub struct FrameAccessor<'a> {
    values: &'a mut ValueStack,
    frame_base: usize,
    num_locals: usize,
    func_index: u32,
    offset: u32,
}

impl<'a> FrameAccessor<'a> {
    /// Creates an accessor for the frame based at `frame_base` with
    /// `num_locals` local slots, currently executing `func_index` at
    /// bytecode `offset`.
    pub fn new(
        values: &'a mut ValueStack,
        frame_base: usize,
        num_locals: usize,
        func_index: u32,
        offset: u32,
    ) -> FrameAccessor<'a> {
        FrameAccessor {
            values,
            frame_base,
            num_locals,
            func_index,
            offset,
        }
    }

    /// The function index of the probed frame.
    pub fn func_index(&self) -> u32 {
        self.func_index
    }

    /// The bytecode offset of the probed instruction.
    pub fn offset(&self) -> u32 {
        self.offset
    }

    /// The number of local slots (parameters + declared locals).
    pub fn num_locals(&self) -> usize {
        self.num_locals
    }

    /// The current operand stack depth of the frame.
    pub fn operand_depth(&self) -> usize {
        self.values.sp() - (self.frame_base + self.num_locals)
    }

    /// Reads a local variable.
    pub fn local(&self, index: usize) -> WasmValue {
        debug_assert!(index < self.num_locals);
        self.values.read_value(self.frame_base + index)
    }

    /// Reads an operand stack value, where 0 is the top of the stack.
    pub fn operand_from_top(&self, depth_from_top: usize) -> WasmValue {
        let slot = self.values.sp() - 1 - depth_from_top;
        self.values.read_value(slot)
    }

    /// Reads the top of the operand stack, if non-empty.
    pub fn top_of_stack(&self) -> Option<WasmValue> {
        if self.operand_depth() == 0 {
            None
        } else {
            Some(self.operand_from_top(0))
        }
    }
}

/// The destination of probe firings during execution.
///
/// The engine implements this to route firings to the monitors a user has
/// attached; [`NoProbes`] is the empty implementation used when a module is
/// not instrumented.
pub trait ProbeSink {
    /// Returns true if any probe may be attached anywhere in `func_index`.
    ///
    /// The interpreter asks once as it enters (or re-enters) a frame and
    /// again after every [`ProbeSink::fire`] — the only points at which the
    /// answer can change while it holds the sink — and skips the
    /// per-instruction [`ProbeSink::has_probe`] query while the answer is
    /// `false`. The default claims every function, which is always correct.
    fn has_probes_in(&self, func_index: u32) -> bool {
        let _ = func_index;
        true
    }

    /// Returns true if any probe is attached at `(func_index, offset)`.
    /// The interpreter calls this before each instruction of a function
    /// [`ProbeSink::has_probes_in`] claims.
    fn has_probe(&self, func_index: u32, offset: u32) -> bool;

    /// Fires the probes attached at `(func_index, offset)`.
    fn fire(&mut self, frame: &mut FrameAccessor<'_>);

    /// Fires an *optimized* probe that receives only the top-of-stack value
    /// (the paper's intrinsified branch-monitor path). The default forwards
    /// nothing; monitors that support the fast path override it.
    fn fire_with_value(&mut self, func_index: u32, offset: u32, value: WasmValue) {
        let _ = (func_index, offset, value);
    }

    /// Increments an intrinsified counter probe. Only used by counter-style
    /// monitors compiled with full intrinsification.
    fn increment_counter(&mut self, counter_id: u32) {
        let _ = counter_id;
    }
}

/// A probe sink with no probes attached.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbes;

impl ProbeSink for NoProbes {
    fn has_probes_in(&self, _func_index: u32) -> bool {
        false
    }

    fn has_probe(&self, _func_index: u32, _offset: u32) -> bool {
        false
    }

    fn fire(&mut self, _frame: &mut FrameAccessor<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::values::ValueStack;

    #[test]
    fn accessor_reads_locals_and_operands() {
        let mut vs = ValueStack::with_capacity(32);
        // Frame base 4, two locals, two operands.
        vs.write_value(4, WasmValue::I32(10));
        vs.write_value(5, WasmValue::F64(2.5));
        vs.write_value(6, WasmValue::I64(-1));
        vs.write_value(7, WasmValue::I32(99));
        vs.set_sp(8);
        let acc = FrameAccessor::new(&mut vs, 4, 2, 3, 17);
        assert_eq!(acc.func_index(), 3);
        assert_eq!(acc.offset(), 17);
        assert_eq!(acc.num_locals(), 2);
        assert_eq!(acc.operand_depth(), 2);
        assert_eq!(acc.local(0), WasmValue::I32(10));
        assert_eq!(acc.local(1), WasmValue::F64(2.5));
        assert_eq!(acc.operand_from_top(0), WasmValue::I32(99));
        assert_eq!(acc.operand_from_top(1), WasmValue::I64(-1));
        assert_eq!(acc.top_of_stack(), Some(WasmValue::I32(99)));
        // Mutating through the accessor's stack reference is possible for
        // future write support; for now just confirm the view stays coherent.
        assert_eq!(acc.operand_depth(), 2);
    }

    #[test]
    fn empty_operand_stack_has_no_top() {
        let mut vs = ValueStack::with_capacity(8);
        vs.set_sp(2);
        let acc = FrameAccessor::new(&mut vs, 0, 2, 0, 0);
        assert_eq!(acc.operand_depth(), 0);
        assert_eq!(acc.top_of_stack(), None);
    }

    #[test]
    fn no_probes_never_fires() {
        let mut sink = NoProbes;
        assert!(!sink.has_probes_in(0));
        assert!(!sink.has_probe(0, 0));
        assert!(!sink.has_probe(7, 123));
        // Default hooks are no-ops.
        sink.fire_with_value(0, 0, WasmValue::I32(1));
        sink.increment_counter(3);
    }
}
