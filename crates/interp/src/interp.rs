//! The in-place interpreter (the reproduction's Wizard-INT).
//!
//! The interpreter executes the original bytecode directly — no rewriting —
//! using the explicit tagged value stack for locals and operands and the
//! per-function [`crate::sidetable::Sidetable`] for control
//! transfers. Every push writes both the value and its tag, every operand is
//! read from memory, and every instruction pays a dispatch cost: exactly the
//! per-instruction work the paper's baseline compilers eliminate, charged
//! through the shared [`CostModel`].
//!
//! Like the CPU simulator, the interpreter is a *resumable frame executor*:
//! it runs one frame until it returns, calls, or traps, and the engine
//! performs the actual transfer (so calls can cross tiers and trigger
//! tier-up). It returns the simulator's [`Exit`], with every position a
//! bytecode offset.

use crate::probe::{FrameAccessor, ProbeSink};
use crate::sidetable::{BranchEntry, Sidetable};
use machine::cost::{CostModel, CycleCounter};
use machine::cpu::{ExecContext, Exit};
use machine::inst::{AluOp, CmpOp, TrapCode, UnOp, Width};
use machine::lower::{classify, OpClass};
use machine::ops;
use machine::values::{ValueStack, ValueTag, WasmValue, NULL_REF_BITS};
use std::sync::Arc;
use wasm::fuel::FuelPlan;
use wasm::module::{Module, ModuleData};
use wasm::opcode::Opcode;
use wasm::reader::BytecodeReader;
use wasm::types::ValueType;
use wasm::validate::{FuncInfo, ValidateError};

/// Per-function metadata the interpreter (and the engine's frame management)
/// needs, assembled once per function at load time. The two tables are the
/// ones validation wrote, shared with the [`FuncInfo`] they came from.
#[derive(Debug, Clone)]
pub struct PreparedFunction {
    /// The function's index in the function index space.
    pub func_index: u32,
    /// Number of parameters.
    pub num_params: u32,
    /// Number of results.
    pub num_results: u32,
    /// Types of all local slots (parameters followed by declared locals).
    pub local_types: Vec<ValueType>,
    /// Maximum operand stack height (from validation).
    pub max_stack: u32,
    /// The control-transfer sidetable.
    pub sidetable: Arc<Sidetable>,
    /// Length of the body in bytes.
    pub body_len: u32,
    /// The static fuel-charging schedule shared with the compiled tiers.
    pub fuel: Arc<FuelPlan>,
}

impl PreparedFunction {
    /// The number of local slots.
    pub fn num_locals(&self) -> u32 {
        self.local_types.len() as u32
    }

    /// Total frame size in value-stack slots (locals plus operand stack).
    pub fn frame_slots(&self) -> u32 {
        self.num_locals() + self.max_stack
    }
}

/// Prepares a defined function for execution: pairs the tables validation
/// wrote into `info` (shared, not copied) with the frame-layout metadata the
/// module declares. Reads no bytecode.
///
/// # Errors
///
/// Returns an error if `func_index` names no defined function of `module`,
/// or if `info` visibly describes another body (a different length or local
/// count) — the tables are only as good as the validation they came from.
pub fn prepare(
    module: &Module,
    func_index: u32,
    info: &FuncInfo,
) -> Result<PreparedFunction, ValidateError> {
    let error = |message: String| ValidateError { func: None, offset: None, message };
    let missing = || error(format!("function {func_index} has no body"));
    let decl = module.func_decl(func_index).ok_or_else(missing)?;
    let sig = module.func_type(func_index).ok_or_else(missing)?;
    let local_types = module.func_local_types(func_index).ok_or_else(missing)?;
    if info.body_len as usize != decl.code.len() || info.num_locals as usize != local_types.len() {
        return Err(error(format!("function {func_index} was validated as another body")));
    }
    Ok(PreparedFunction {
        func_index,
        num_params: sig.params.len() as u32,
        num_results: sig.results.len() as u32,
        local_types,
        max_stack: info.max_stack,
        sidetable: Arc::clone(&info.sidetable),
        body_len: info.body_len,
        fuel: Arc::clone(&info.fuel),
    })
}

/// What the dispatch loop knows about one opcode byte, decided once in
/// [`Interpreter::new`] so the loop looks an instruction up instead of
/// classifying it.
#[derive(Debug, Clone, Copy)]
struct OpInfo {
    /// Cycles charged as the instruction is dispatched — see
    /// [`dispatch_cost`]. Zero for bytes outside the opcode set.
    cost: u64,
    /// The opcode, or `None` for a byte that is not one.
    op: Option<Opcode>,
    /// The value operation [`classify`] assigns the opcode, if any. Only the
    /// loop's shared float and conversion arm reads it (with `arity` and
    /// `result`): every integer operation has an arm of its own.
    class: Option<OpClass>,
    /// Operands a `class` operation pops.
    arity: u8,
    /// Tag of the value a `class` operation pushes.
    result: ValueTag,
}

/// The tag of an integer result of width `w`.
#[inline(always)]
const fn int_tag(w: Width) -> ValueTag {
    match w {
        Width::W32 => ValueTag::I32,
        Width::W64 => ValueTag::I64,
    }
}

/// What the operation itself costs, by class.
fn class_cost(cost: &CostModel, class: OpClass) -> u64 {
    use machine::inst::{AluOp, FAluOp, FUnOp};
    match class {
        OpClass::Alu(AluOp::Mul, _) => cost.mul,
        OpClass::Alu(alu, _) if alu.is_division() => cost.div,
        OpClass::Alu(..) | OpClass::Unop(..) | OpClass::Cmp(..) => cost.alu,
        OpClass::FAlu(FAluOp::Div, _) => cost.fdiv,
        OpClass::FUnop(FUnOp::Sqrt, _) => cost.fsqrt,
        OpClass::FAlu(..) | OpClass::FUnop(..) | OpClass::FCmp(..) => cost.falu,
        OpClass::Convert(..) => cost.convert,
    }
}

/// The interpreter's cost specification: the cycles `op` is charged as it is
/// dispatched — the dispatch itself, immediate decoding, and every operand
/// load, result store and piece of work the instruction performs no matter
/// how it ends. What depends on the outcome is charged where it is decided:
/// the result push of a value operation or load and the whole access of a
/// load or store (none of it if the instruction traps), the slots a taken
/// branch moves, and the results a return copies down.
fn dispatch_cost(cost: &CostModel, op: Opcode) -> u64 {
    let c = cost;
    let push = c.slot_store + c.tag_store;
    let body = if let Some(class) = classify(op) {
        class.arity() as u64 * c.slot_load + class_cost(c, class)
    } else if op.is_memory_access() {
        // Alignment and offset.
        2 * c.interp_imm
    } else {
        match op {
            Opcode::Block | Opcode::Loop => c.interp_control + c.interp_imm,
            Opcode::End => c.interp_control,
            Opcode::If | Opcode::BrIf => c.slot_load + c.branch + c.interp_imm,
            Opcode::Else => c.interp_control + c.jump,
            Opcode::Br => c.jump + c.interp_imm,
            Opcode::BrTable => c.slot_load + c.br_table,
            Opcode::Return => c.jump,
            Opcode::Call => c.interp_imm + c.interp_call_setup,
            Opcode::CallIndirect => 2 * c.interp_imm + c.slot_load + c.interp_call_setup,
            Opcode::Select => 3 * c.slot_load + c.select + c.slot_store,
            Opcode::SelectT => c.interp_imm + 3 * c.slot_load + c.select + c.slot_store,
            Opcode::LocalGet | Opcode::LocalSet | Opcode::LocalTee => {
                c.interp_imm + c.slot_load + push
            }
            Opcode::GlobalGet => c.interp_imm + c.global + push,
            Opcode::GlobalSet => c.interp_imm + c.global + c.slot_load,
            Opcode::I32Const
            | Opcode::I64Const
            | Opcode::F32Const
            | Opcode::F64Const
            | Opcode::RefNull
            | Opcode::RefFunc => c.interp_imm + push,
            Opcode::RefIsNull => c.slot_load + c.alu + push,
            Opcode::MemorySize => c.interp_imm + push + c.memory_size,
            Opcode::MemoryGrow => c.slot_load + c.memory_grow + push,
            // `nop`, `unreachable`, `drop`: the dispatch is all there is.
            _ => 0,
        }
    };
    c.interp_dispatch + body
}

/// The in-place interpreter.
#[derive(Debug, Clone)]
pub struct Interpreter {
    cost: CostModel,
    /// One entry per opcode byte, filled from [`classify`] and the cost
    /// model (which stay the specification; `tests/cost_oracle.rs` holds the
    /// loop to them).
    ops: Box<[OpInfo; 256]>,
}

impl Default for Interpreter {
    fn default() -> Interpreter {
        Interpreter::new(CostModel::default())
    }
}

impl Interpreter {
    /// Creates an interpreter using the given cost model.
    pub fn new(cost: CostModel) -> Interpreter {
        let unknown = OpInfo {
            cost: 0,
            op: None,
            class: None,
            arity: 0,
            result: ValueTag::Dead,
        };
        let mut ops = Box::new([unknown; 256]);
        for &op in Opcode::ALL {
            let class = classify(op);
            ops[op.to_byte() as usize] = OpInfo {
                cost: dispatch_cost(&cost, op),
                op: Some(op),
                class,
                arity: class.map_or(0, |c| c.arity() as u8),
                result: class.map_or(ValueTag::Dead, |c| ValueTag::for_type(c.result_type())),
            };
        }
        Interpreter { cost, ops }
    }

    /// Runs one frame of `func` starting at bytecode offset `start_ip` until
    /// it returns, calls out, or traps.
    ///
    /// The frame's locals must already be initialized at
    /// `ctx.frame_base .. ctx.frame_base + num_locals`, and
    /// `ctx.values.sp()` must point at the frame's current operand top.
    /// `module` is the contents, not the [`Module`] handle (a `&Module`
    /// coerces): the only read is the body lookup on entry, and it should
    /// not start with a hop through the handle.
    ///
    /// The opcode byte indexes the per-opcode table for its dispatch cost,
    /// and a single `match` on the opcode executes the instruction. That is
    /// one dispatch for every integer value opcode (each arithmetic, compare
    /// and unary operation at each width has its own arm, which calls the
    /// shared `machine::ops` evaluator with a constant operation and width),
    /// every load and store (an arm per opcode, a fixed-width access), and
    /// every control, variable, constant, reference and memory-size opcode.
    /// The float arithmetic, float compares and conversions share one arm
    /// that calls [`OpClass::evaluate`], which switches on the class and the
    /// operation again. Whether any meter, sampler or OSR hook is armed
    /// and whether `probes` has anything attached in this function are
    /// decided here, once (the latter again after every firing, the only
    /// point at which the sink can change), so a run with neither tests a
    /// local flag per instruction and nothing else. Cycles accumulate in a
    /// local and reach `cycles` once, on the way out.
    pub fn run(
        &self,
        module: &ModuleData,
        func: &PreparedFunction,
        start_ip: usize,
        ctx: &mut ExecContext<'_>,
        probes: &mut dyn ProbeSink,
        cycles: &mut CycleCounter,
    ) -> Exit {
        let decl = match module.func_decl(func.func_index) {
            Some(d) => d,
            None => return Exit::Trap { code: TrapCode::HostError, at: 0 },
        };
        let code: &[u8] = &decl.code;
        let frame_base = ctx.frame_base;
        let num_locals = func.local_types.len();
        let operand_base = frame_base + num_locals;
        let cost = &self.cost;
        let ops = &*self.ops;
        // The outcome-dependent halves of `dispatch_cost`'s charges.
        let push_cost = cost.slot_store + cost.tag_store;
        let loaded_cost = cost.slot_load + cost.mem_load + push_cost;
        let stored_cost = 2 * cost.slot_load + cost.mem_store;

        let metered = ctx.meter.fuel.is_some() || ctx.meter.epoch.is_some();
        let meter_sites = metered || ctx.meter.has_sampler() || ctx.meter.has_osr();
        let mut probed = probes.has_probes_in(func.func_index);

        // The value stack is borrowed once, so a slot access starts from it
        // rather than from a walk through the context.
        let values = &mut *ctx.values;
        let mut reader = BytecodeReader::new(code);
        reader.set_pc(start_ip);
        let mut spent = 0u64;

        // Traps report the offset of the instruction being executed; `ip` is
        // declared before the macros so their bodies (hygienically) resolve
        // to this binding, updated at the top of the dispatch loop.
        let mut ip: usize;
        macro_rules! trap {
            ($code:expr) => {
                break Exit::Trap { code: $code, at: ip }
            };
        }
        // Transfers control through a sidetable entry, if the table has it.
        macro_rules! take_branch {
            ($entry:expr) => {
                match $entry {
                    Some(entry) => {
                        spent += Self::take_branch(cost, entry, operand_base, values, &mut reader)
                    }
                    None => trap!(TrapCode::HostError),
                }
            };
            () => {
                take_branch!(func.sidetable.branch(ip as u32))
            };
        }
        macro_rules! read {
            ($read:expr) => {
                match $read {
                    Ok(v) => v,
                    Err(_) => trap!(TrapCode::HostError),
                }
            };
        }
        // Integer operations on the top one or two slots. Each arm names its
        // operation and width as constants, so the inlined evaluator is that
        // one computation and the result tag is a constant too.
        macro_rules! alu {
            ($op:ident, $w:ident) => {{
                let sp = values.sp() - 1;
                let (a, b) = (values.read(sp - 1), values.read(sp));
                match ops::eval_alu(AluOp::$op, Width::$w, a, b) {
                    Ok(bits) => {
                        values.write_tagged(sp - 1, bits, int_tag(Width::$w));
                        values.set_sp(sp);
                        spent += push_cost;
                    }
                    Err(code) => trap!(code),
                }
            }};
        }
        macro_rules! cmp {
            ($op:ident, $w:ident) => {{
                let sp = values.sp() - 1;
                let (a, b) = (values.read(sp - 1), values.read(sp));
                let bits = ops::eval_cmp(CmpOp::$op, Width::$w, a, b);
                values.write_tagged(sp - 1, bits, ValueTag::I32);
                values.set_sp(sp);
                spent += push_cost;
            }};
        }
        macro_rules! unop {
            ($op:ident, $w:ident) => {{
                let sp = values.sp() - 1;
                let bits = ops::eval_unop(UnOp::$op, Width::$w, values.read(sp));
                // `eqz` answers an i32 whatever its operand's width.
                let tag = if let UnOp::Eqz = UnOp::$op {
                    ValueTag::I32
                } else {
                    int_tag(Width::$w)
                };
                values.write_tagged(sp, bits, tag);
                spent += push_cost;
            }};
        }
        // A load reads `size_of::<$raw>()` bytes as one fixed-width access and
        // extends them through the casts its arm names; a store writes the
        // low bytes of its operand the same way.
        macro_rules! load {
            ($tag:ident, $raw:ty $(as $wide:ty)*) => {{
                let memarg = read!(reader.read_memarg());
                let sp = values.sp() - 1;
                let addr = values.read(sp) as u32;
                let Some(memory) = ctx.memory.as_deref() else {
                    trap!(TrapCode::MemoryOutOfBounds)
                };
                let bits = match memory.read_le(addr, memarg.offset) {
                    Ok(bytes) => <$raw>::from_le_bytes(bytes) $(as $wide)* as u64,
                    Err(code) => trap!(code),
                };
                values.write_tagged(sp, bits, ValueTag::$tag);
                spent += loaded_cost;
            }};
        }
        macro_rules! store {
            ($raw:ty) => {{
                let memarg = read!(reader.read_memarg());
                let sp = values.sp();
                let value = values.read(sp - 1);
                let addr = values.read(sp - 2) as u32;
                values.set_sp(sp - 2);
                let Some(memory) = ctx.memory.as_deref_mut() else {
                    trap!(TrapCode::MemoryOutOfBounds)
                };
                let bytes = (value as $raw).to_le_bytes();
                if let Err(code) = memory.write_le(addr, memarg.offset, bytes) {
                    trap!(code);
                }
                spent += stored_cost;
            }};
        }

        let exit = loop {
            if reader.is_at_end() {
                // Fell off the end of the body: function return.
                spent += Self::finish_return(cost, func, frame_base, values);
                break Exit::Return;
            }
            ip = reader.pc();

            // Metering runs before probes so a fuel trap fires at the same
            // offset in every tier (compiled code emits the same fused
            // check: fuel, then epoch, then probe). One check per site —
            // loop-head epoch polls ride the region's fuel decrement, so a
            // metered loop iteration pays `fuel_check` once, not twice.
            if meter_sites {
                if let Some(site) = func.fuel.site_at(ip as u32) {
                    // OSR is polled before any fuel is charged: when the hook
                    // fires, this site's meter work has not run, and the
                    // opt-tier OSR entry jumps to the loop header whose first
                    // instruction re-executes the same check — so the charge
                    // happens exactly once regardless of the transition.
                    if let Some(offset) = ctx.meter.poll_osr(|| ip as u32) {
                        break Exit::Osr { offset, resume: ip };
                    }
                    if metered {
                        spent += cost.fuel_check;
                        if let Err(t) = ctx.meter.charge_fuel(site.charge) {
                            trap!(t);
                        }
                        if let Err(t) = ctx.meter.check_epoch() {
                            trap!(t);
                        }
                    }
                    // The sampler shares the metering sites but charges no
                    // simulated cycles: enabling the profiler must not
                    // perturb deterministic cycle counts.
                    ctx.meter.poll_sampler();
                }
            }

            if probed && probes.has_probe(func.func_index, ip as u32) {
                spent += cost.probe_runtime;
                let mut accessor = FrameAccessor::new(
                    &mut *values,
                    frame_base,
                    num_locals,
                    func.func_index,
                    ip as u32,
                );
                probes.fire(&mut accessor);
                probed = probes.has_probes_in(func.func_index);
            }

            // `ip` is inside the body (checked above), so this cannot fail.
            let info = &ops[code[ip] as usize];
            reader.set_pc(ip + 1);
            spent += info.cost;

            let Some(op) = info.op else { trap!(TrapCode::HostError) };
            match op {
                Opcode::Nop | Opcode::End => {}
                Opcode::Unreachable => trap!(TrapCode::Unreachable),
                Opcode::Block | Opcode::Loop => {
                    let _ = reader.read_block_type();
                }
                Opcode::If => {
                    let _ = reader.read_block_type();
                    let sp = values.sp() - 1;
                    let cond = values.read(sp);
                    values.set_sp(sp);
                    if cond == 0 {
                        take_branch!();
                    }
                }
                Opcode::Else => take_branch!(),
                Opcode::Br => {
                    let _ = reader.read_index();
                    take_branch!();
                }
                Opcode::BrIf => {
                    let _ = reader.read_index();
                    let sp = values.sp() - 1;
                    let cond = values.read(sp);
                    values.set_sp(sp);
                    if cond != 0 {
                        take_branch!();
                    }
                }
                Opcode::BrTable => {
                    // The targets are in the sidetable; the immediates are
                    // never decoded, since every outcome leaves this offset.
                    let sp = values.sp() - 1;
                    let index = values.read(sp) as usize;
                    values.set_sp(sp);
                    take_branch!(func
                        .sidetable
                        .br_table(ip as u32)
                        .and_then(|entries| entries.get(index).or(entries.last())));
                }
                Opcode::Return => {
                    spent += Self::finish_return(cost, func, frame_base, values);
                    break Exit::Return;
                }
                Opcode::Call => {
                    let callee = read!(reader.read_index());
                    break Exit::Call { func_index: callee, site: ip, resume: reader.pc() };
                }
                Opcode::CallIndirect => {
                    let (type_index, table_index) = read!(reader.read_call_indirect());
                    let sp = values.sp() - 1;
                    let entry_index = values.read(sp) as u32;
                    values.set_sp(sp);
                    break Exit::CallIndirect {
                        type_index,
                        table_index,
                        entry_index,
                        site: ip,
                        resume: reader.pc(),
                    };
                }
                Opcode::Drop => {
                    values.set_sp(values.sp() - 1);
                }
                Opcode::Select | Opcode::SelectT => {
                    if op == Opcode::SelectT {
                        let _ = reader.skip_immediates(op);
                    }
                    let sp = values.sp();
                    let cond = values.read(sp - 1);
                    if cond != 0 {
                        // Keep the first operand: already in place.
                    } else {
                        let bits = values.read(sp - 2);
                        let tag = values.tag(sp - 2);
                        values.write_tagged(sp - 3, bits, tag);
                    }
                    values.set_sp(sp - 2);
                }
                Opcode::LocalGet => {
                    let index = read!(reader.read_index()) as usize;
                    let Some(&ty) = func.local_types.get(index) else {
                        trap!(TrapCode::HostError)
                    };
                    let bits = values.read(frame_base + index);
                    Self::push(values, bits, ValueTag::for_type(ty));
                }
                Opcode::LocalSet | Opcode::LocalTee => {
                    let index = read!(reader.read_index()) as usize;
                    let Some(&ty) = func.local_types.get(index) else {
                        trap!(TrapCode::HostError)
                    };
                    let sp = values.sp();
                    let bits = values.read(sp - 1);
                    values.write_tagged(frame_base + index, bits, ValueTag::for_type(ty));
                    if op == Opcode::LocalSet {
                        values.set_sp(sp - 1);
                    }
                }
                Opcode::GlobalGet => {
                    let index = read!(reader.read_index()) as usize;
                    let Some(&global) = ctx.globals.get(index) else {
                        trap!(TrapCode::HostError)
                    };
                    Self::push(values, global.bits, global.tag);
                }
                Opcode::GlobalSet => {
                    let index = read!(reader.read_index()) as usize;
                    let sp = values.sp() - 1;
                    let Some(global) = ctx.globals.get_mut(index) else {
                        trap!(TrapCode::HostError)
                    };
                    global.bits = values.read(sp);
                    values.set_sp(sp);
                }
                Opcode::I32Const => Self::push(
                    values,
                    WasmValue::I32(read!(reader.read_i32())).to_bits(),
                    ValueTag::I32,
                ),
                Opcode::I64Const => Self::push(
                    values,
                    WasmValue::I64(read!(reader.read_i64())).to_bits(),
                    ValueTag::I64,
                ),
                Opcode::F32Const => Self::push(
                    values,
                    WasmValue::F32(read!(reader.read_f32())).to_bits(),
                    ValueTag::F32,
                ),
                Opcode::F64Const => Self::push(
                    values,
                    WasmValue::F64(read!(reader.read_f64())).to_bits(),
                    ValueTag::F64,
                ),
                Opcode::RefNull => {
                    let ty = read!(reader.read_ref_type());
                    Self::push(values, NULL_REF_BITS, ValueTag::for_type(ty));
                }
                Opcode::RefIsNull => {
                    let sp = values.sp() - 1;
                    let bits = values.read(sp);
                    values
                        .write_tagged(sp, (bits == NULL_REF_BITS) as u64, ValueTag::I32);
                    values.set_sp(sp + 1);
                }
                Opcode::RefFunc => {
                    let func = WasmValue::FuncRef(Some(read!(reader.read_index())));
                    Self::push(values, func.to_bits(), ValueTag::FuncRef)
                }
                Opcode::MemorySize => {
                    let _ = reader.read_memory_index();
                    let pages = ctx.memory.as_deref().map(|m| m.size_pages()).unwrap_or(0);
                    Self::push(values, WasmValue::I32(pages as i32).to_bits(), ValueTag::I32);
                }
                Opcode::MemoryGrow => {
                    let _ = reader.read_memory_index();
                    let sp = values.sp() - 1;
                    let delta = values.read(sp) as u32;
                    let result = match ctx.memory.as_deref_mut() {
                        Some(m) => m.grow(delta),
                        None => -1,
                    };
                    values
                        .write_tagged(sp, result as u32 as u64, ValueTag::I32);
                }
                Opcode::I32Load => load!(I32, u32),
                Opcode::I64Load => load!(I64, u64),
                Opcode::F32Load => load!(F32, u32),
                Opcode::F64Load => load!(F64, u64),
                Opcode::I32Load8S => load!(I32, i8 as i32 as u32),
                Opcode::I32Load8U => load!(I32, u8),
                Opcode::I32Load16S => load!(I32, i16 as i32 as u32),
                Opcode::I32Load16U => load!(I32, u16),
                Opcode::I64Load8S => load!(I64, i8 as i64),
                Opcode::I64Load8U => load!(I64, u8),
                Opcode::I64Load16S => load!(I64, i16 as i64),
                Opcode::I64Load16U => load!(I64, u16),
                Opcode::I64Load32S => load!(I64, i32 as i64),
                Opcode::I64Load32U => load!(I64, u32),
                Opcode::I32Store => store!(u32),
                Opcode::I64Store => store!(u64),
                Opcode::F32Store => store!(u32),
                Opcode::F64Store => store!(u64),
                Opcode::I32Store8 => store!(u8),
                Opcode::I32Store16 => store!(u16),
                Opcode::I64Store8 => store!(u8),
                Opcode::I64Store16 => store!(u16),
                Opcode::I64Store32 => store!(u32),
                Opcode::I32Eqz => unop!(Eqz, W32),
                Opcode::I32Clz => unop!(Clz, W32),
                Opcode::I32Ctz => unop!(Ctz, W32),
                Opcode::I32Popcnt => unop!(Popcnt, W32),
                Opcode::I32Extend8S => unop!(Extend8S, W32),
                Opcode::I32Extend16S => unop!(Extend16S, W32),
                Opcode::I32Eq => cmp!(Eq, W32),
                Opcode::I32Ne => cmp!(Ne, W32),
                Opcode::I32LtS => cmp!(LtS, W32),
                Opcode::I32LtU => cmp!(LtU, W32),
                Opcode::I32GtS => cmp!(GtS, W32),
                Opcode::I32GtU => cmp!(GtU, W32),
                Opcode::I32LeS => cmp!(LeS, W32),
                Opcode::I32LeU => cmp!(LeU, W32),
                Opcode::I32GeS => cmp!(GeS, W32),
                Opcode::I32GeU => cmp!(GeU, W32),
                Opcode::I32Add => alu!(Add, W32),
                Opcode::I32Sub => alu!(Sub, W32),
                Opcode::I32Mul => alu!(Mul, W32),
                Opcode::I32DivS => alu!(DivS, W32),
                Opcode::I32DivU => alu!(DivU, W32),
                Opcode::I32RemS => alu!(RemS, W32),
                Opcode::I32RemU => alu!(RemU, W32),
                Opcode::I32And => alu!(And, W32),
                Opcode::I32Or => alu!(Or, W32),
                Opcode::I32Xor => alu!(Xor, W32),
                Opcode::I32Shl => alu!(Shl, W32),
                Opcode::I32ShrS => alu!(ShrS, W32),
                Opcode::I32ShrU => alu!(ShrU, W32),
                Opcode::I32Rotl => alu!(Rotl, W32),
                Opcode::I32Rotr => alu!(Rotr, W32),
                Opcode::I64Eqz => unop!(Eqz, W64),
                Opcode::I64Clz => unop!(Clz, W64),
                Opcode::I64Ctz => unop!(Ctz, W64),
                Opcode::I64Popcnt => unop!(Popcnt, W64),
                Opcode::I64Extend8S => unop!(Extend8S, W64),
                Opcode::I64Extend16S => unop!(Extend16S, W64),
                Opcode::I64Extend32S => unop!(Extend32S, W64),
                Opcode::I64Eq => cmp!(Eq, W64),
                Opcode::I64Ne => cmp!(Ne, W64),
                Opcode::I64LtS => cmp!(LtS, W64),
                Opcode::I64LtU => cmp!(LtU, W64),
                Opcode::I64GtS => cmp!(GtS, W64),
                Opcode::I64GtU => cmp!(GtU, W64),
                Opcode::I64LeS => cmp!(LeS, W64),
                Opcode::I64LeU => cmp!(LeU, W64),
                Opcode::I64GeS => cmp!(GeS, W64),
                Opcode::I64GeU => cmp!(GeU, W64),
                Opcode::I64Add => alu!(Add, W64),
                Opcode::I64Sub => alu!(Sub, W64),
                Opcode::I64Mul => alu!(Mul, W64),
                Opcode::I64DivS => alu!(DivS, W64),
                Opcode::I64DivU => alu!(DivU, W64),
                Opcode::I64RemS => alu!(RemS, W64),
                Opcode::I64RemU => alu!(RemU, W64),
                Opcode::I64And => alu!(And, W64),
                Opcode::I64Or => alu!(Or, W64),
                Opcode::I64Xor => alu!(Xor, W64),
                Opcode::I64Shl => alu!(Shl, W64),
                Opcode::I64ShrS => alu!(ShrS, W64),
                Opcode::I64ShrU => alu!(ShrU, W64),
                Opcode::I64Rotl => alu!(Rotl, W64),
                Opcode::I64Rotr => alu!(Rotr, W64),
                // Float arithmetic, float compares and conversions: rare
                // enough in tier 0 (see DESIGN.md) to share one arm. A unary
                // operation reads its one operand twice rather than branching
                // on the arity.
                _ => {
                    let Some(class) = info.class else {
                        debug_assert!(false, "unhandled opcode {op}");
                        trap!(TrapCode::HostError)
                    };
                    debug_assert!(
                        !matches!(class, OpClass::Alu(..) | OpClass::Cmp(..) | OpClass::Unop(..)),
                        "integer opcode {op} has no arm of its own"
                    );
                    let sp = values.sp();
                    let result_slot = sp - info.arity as usize;
                    let operands = [values.read(result_slot), values.read(sp - 1)];
                    match class.evaluate(&operands) {
                        Ok(bits) => {
                            values.write_tagged(result_slot, bits, info.result);
                            values.set_sp(result_slot + 1);
                            spent += push_cost;
                        }
                        Err(code) => trap!(code),
                    }
                }
            }
        };
        cycles.charge(spent);
        exit
    }

    /// Pushes a value; [`dispatch_cost`] has charged the store.
    #[inline]
    fn push(values: &mut ValueStack, bits: u64, tag: ValueTag) {
        let sp = values.sp();
        values.write_tagged(sp, bits, tag);
        values.set_sp(sp + 1);
    }

    /// Moves the branch's values down to its label and continues at its
    /// target; returns the cycles the moves cost.
    #[inline]
    fn take_branch(
        cost: &CostModel,
        entry: &BranchEntry,
        operand_base: usize,
        values: &mut ValueStack,
        reader: &mut BytecodeReader<'_>,
    ) -> u64 {
        let arity = entry.arity as usize;
        let dest_base = operand_base + entry.label_base as usize;
        let src_base = values.sp() - arity;
        let mut spent = 0;
        if src_base != dest_base {
            for i in 0..arity {
                let bits = values.read(src_base + i);
                let tag = values.tag(src_base + i);
                values.write_tagged(dest_base + i, bits, tag);
                spent += cost.slot_load + cost.slot_store;
            }
        }
        values.set_sp(dest_base + arity);
        reader.set_pc(entry.target_ip as usize);
        spent
    }

    /// Copies the returning frame's results down to its base slots, matching
    /// the calling convention JIT code follows; returns the cycles the
    /// copies cost.
    fn finish_return(
        cost: &CostModel,
        func: &PreparedFunction,
        frame_base: usize,
        values: &mut ValueStack,
    ) -> u64 {
        let results = func.num_results as usize;
        let src_base = values.sp() - results;
        for i in 0..results {
            let bits = values.read(src_base + i);
            let tag = values.tag(src_base + i);
            values.write_tagged(frame_base + i, bits, tag);
        }
        results as u64 * (cost.slot_load + cost.slot_store + cost.tag_store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NoProbes;
    use machine::memory::{LinearMemory, Table};
    use machine::values::{GlobalSlot, ValueStack};
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::types::{BlockType, FuncType, Limits};
    use wasm::validate::validate;

    /// A minimal single-function harness that sets up a frame and runs the
    /// interpreter to completion (no calls).
    fn run_function(
        params: Vec<ValueType>,
        results: Vec<ValueType>,
        locals: Vec<ValueType>,
        code: CodeBuilder,
        args: &[WasmValue],
    ) -> Result<Vec<WasmValue>, TrapCode> {
        let mut b = ModuleBuilder::new();
        b.add_memory(Limits::at_least(1));
        let f = b.add_func(FuncType::new(params, results.clone()), locals, code.finish());
        b.export_func("f", f);
        let module = b.finish();
        run_exported(&module, f, args, &results)
    }

    fn run_exported(
        module: &Module,
        func_index: u32,
        args: &[WasmValue],
        results: &[ValueType],
    ) -> Result<Vec<WasmValue>, TrapCode> {
        let info = validate(module).expect("valid module");
        let defined = (func_index - module.num_imported_funcs()) as usize;
        let prepared = prepare(module, func_index, &info.funcs[defined]).expect("prepare");

        let mut values = ValueStack::with_capacity(4096);
        let mut memory = LinearMemory::new(Limits::at_least(1));
        let mut globals: Vec<GlobalSlot> = module
            .globals
            .iter()
            .map(|g| {
                GlobalSlot::from_value(match g.init {
                    wasm::module::ConstExpr::I32(v) => WasmValue::I32(v),
                    wasm::module::ConstExpr::I64(v) => WasmValue::I64(v),
                    wasm::module::ConstExpr::F32(v) => WasmValue::F32(v),
                    wasm::module::ConstExpr::F64(v) => WasmValue::F64(v),
                    _ => WasmValue::I32(0),
                })
            })
            .collect();
        let mut tables: Vec<Table> = vec![];

        // Set up the frame: arguments then default-initialized locals.
        for (i, arg) in args.iter().enumerate() {
            values.write_value(i, *arg);
        }
        for (i, ty) in prepared.local_types.iter().enumerate().skip(args.len()) {
            values.write_value(i, WasmValue::default_for(*ty));
        }
        values.set_sp(prepared.num_locals() as usize);

        let interp = Interpreter::new(CostModel::default());
        let mut cycles = CycleCounter::new();
        let mut ctx = ExecContext {
            values: &mut values,
            frame_base: 0,
            memory: Some(&mut memory),
            globals: &mut globals,
            tables: &mut tables,
            meter: machine::cpu::Meter::default(),
        };
        let exit = interp.run(module, &prepared, 0, &mut ctx, &mut NoProbes, &mut cycles);
        match exit {
            Exit::Return => Ok(results
                .iter()
                .enumerate()
                .map(|(i, ty)| {
                    WasmValue::from_bits(values.read(i), ValueTag::for_type(*ty))
                })
                .collect()),
            Exit::Trap { code, .. } => Err(code),
            other => panic!("unexpected exit {other:?}"),
        }
    }

    #[test]
    fn add_two_parameters() {
        let mut c = CodeBuilder::new();
        c.local_get(0).local_get(1).op(Opcode::I32Add);
        let r = run_function(
            vec![ValueType::I32, ValueType::I32],
            vec![ValueType::I32],
            vec![],
            c,
            &[WasmValue::I32(30), WasmValue::I32(12)],
        )
        .unwrap();
        assert_eq!(r, vec![WasmValue::I32(42)]);
    }

    #[test]
    fn constants_and_arithmetic_mix() {
        let mut c = CodeBuilder::new();
        c.i32_const(10)
            .i32_const(4)
            .op(Opcode::I32Sub)
            .i32_const(7)
            .op(Opcode::I32Mul);
        let r = run_function(vec![], vec![ValueType::I32], vec![], c, &[]).unwrap();
        assert_eq!(r, vec![WasmValue::I32(42)]);
    }

    #[test]
    fn loop_computes_sum() {
        // sum = 0; while (n != 0) { sum += n; n -= 1 } return sum
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .loop_(BlockType::Empty)
            .local_get(0)
            .op(Opcode::I32Eqz)
            .br_if(1)
            .local_get(1)
            .local_get(0)
            .op(Opcode::I32Add)
            .local_set(1)
            .local_get(0)
            .i32_const(1)
            .op(Opcode::I32Sub)
            .local_set(0)
            .br(0)
            .end()
            .end()
            .local_get(1);
        let r = run_function(
            vec![ValueType::I32],
            vec![ValueType::I32],
            vec![ValueType::I32],
            c,
            &[WasmValue::I32(100)],
        )
        .unwrap();
        assert_eq!(r, vec![WasmValue::I32(5050)]);
    }

    #[test]
    fn if_else_selects_branch() {
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .if_(BlockType::Value(ValueType::I32))
            .i32_const(111)
            .else_()
            .i32_const(222)
            .end();
        let t = run_function(
            vec![ValueType::I32],
            vec![ValueType::I32],
            vec![],
            c.clone(),
            &[WasmValue::I32(1)],
        )
        .unwrap();
        assert_eq!(t, vec![WasmValue::I32(111)]);
        let f = run_function(
            vec![ValueType::I32],
            vec![ValueType::I32],
            vec![],
            c,
            &[WasmValue::I32(0)],
        )
        .unwrap();
        assert_eq!(f, vec![WasmValue::I32(222)]);
    }

    #[test]
    fn early_return_and_branch_to_function_label() {
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .if_(BlockType::Empty)
            .i32_const(1)
            .return_()
            .end()
            .i32_const(2)
            .br(0);
        for (arg, expected) in [(1, 1), (0, 2)] {
            let r = run_function(
                vec![ValueType::I32],
                vec![ValueType::I32],
                vec![],
                c.clone(),
                &[WasmValue::I32(arg)],
            )
            .unwrap();
            assert_eq!(r, vec![WasmValue::I32(expected)]);
        }
    }

    #[test]
    fn br_table_dispatches() {
        // switch (x): 0 -> 10, 1 -> 20, default -> 30
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .block(BlockType::Empty)
            .block(BlockType::Empty)
            .local_get(0)
            .br_table(&[0, 1], 2)
            .end()
            .i32_const(10)
            .return_()
            .end()
            .i32_const(20)
            .return_()
            .end()
            .i32_const(30);
        for (arg, expected) in [(0, 10), (1, 20), (2, 30), (7, 30)] {
            let r = run_function(
                vec![ValueType::I32],
                vec![ValueType::I32],
                vec![],
                c.clone(),
                &[WasmValue::I32(arg)],
            )
            .unwrap();
            assert_eq!(r, vec![WasmValue::I32(expected)], "arg {arg}");
        }
    }

    #[test]
    fn floats_and_conversions() {
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .op(Opcode::F64Sqrt)
            .local_get(1)
            .op(Opcode::F64ConvertI32S)
            .op(Opcode::F64Add);
        let r = run_function(
            vec![ValueType::F64, ValueType::I32],
            vec![ValueType::F64],
            vec![],
            c,
            &[WasmValue::F64(16.0), WasmValue::I32(-2)],
        )
        .unwrap();
        assert_eq!(r, vec![WasmValue::F64(2.0)]);
    }

    #[test]
    fn memory_load_store_roundtrip() {
        let mut c = CodeBuilder::new();
        c.i32_const(100)
            .local_get(0)
            .mem(Opcode::I64Store, 3, 0)
            .i32_const(96)
            .mem(Opcode::I64Load, 3, 4);
        let r = run_function(
            vec![ValueType::I64],
            vec![ValueType::I64],
            vec![],
            c,
            &[WasmValue::I64(-123456789)],
        )
        .unwrap();
        assert_eq!(r, vec![WasmValue::I64(-123456789)]);
    }

    #[test]
    fn sign_extending_loads() {
        let mut c = CodeBuilder::new();
        c.i32_const(8)
            .i32_const(-1)
            .mem(Opcode::I32Store8, 0, 0)
            .i32_const(8)
            .mem(Opcode::I32Load8S, 0, 0)
            .i32_const(8)
            .mem(Opcode::I32Load8U, 0, 0)
            .op(Opcode::I32Add);
        let r = run_function(vec![], vec![ValueType::I32], vec![], c, &[]).unwrap();
        assert_eq!(r, vec![WasmValue::I32(-1 + 255)]);
    }

    #[test]
    fn traps_propagate() {
        let mut c = CodeBuilder::new();
        c.i32_const(1).i32_const(0).op(Opcode::I32DivU);
        let e = run_function(vec![], vec![ValueType::I32], vec![], c, &[]).unwrap_err();
        assert_eq!(e, TrapCode::DivisionByZero);

        let mut c = CodeBuilder::new();
        c.unreachable();
        let e = run_function(vec![], vec![], vec![], c, &[]).unwrap_err();
        assert_eq!(e, TrapCode::Unreachable);

        let mut c = CodeBuilder::new();
        c.i32_const(-4).mem(Opcode::I32Load, 2, 0).drop_();
        let e = run_function(vec![], vec![], vec![], c, &[]).unwrap_err();
        assert_eq!(e, TrapCode::MemoryOutOfBounds);
    }

    #[test]
    fn select_and_drop() {
        let mut c = CodeBuilder::new();
        c.i32_const(5)
            .drop_()
            .i32_const(10)
            .i32_const(20)
            .local_get(0)
            .select();
        for (arg, expected) in [(1, 10), (0, 20)] {
            let r = run_function(
                vec![ValueType::I32],
                vec![ValueType::I32],
                vec![],
                c.clone(),
                &[WasmValue::I32(arg)],
            )
            .unwrap();
            assert_eq!(r, vec![WasmValue::I32(expected)]);
        }
    }

    #[test]
    fn globals_read_and_write() {
        let mut b = ModuleBuilder::new();
        let g = b.add_global(
            wasm::types::GlobalType::mutable(ValueType::I64),
            wasm::module::ConstExpr::I64(5),
        );
        let mut c = CodeBuilder::new();
        c.global_get(g)
            .i64_const(10)
            .op(Opcode::I64Add)
            .global_set(g)
            .global_get(g);
        let f = b.add_func(FuncType::new(vec![], vec![ValueType::I64]), vec![], c.finish());
        b.export_func("f", f);
        let module = b.finish();
        let r = run_exported(&module, f, &[], &[ValueType::I64]).unwrap();
        assert_eq!(r, vec![WasmValue::I64(15)]);
    }

    #[test]
    fn multi_value_block_results() {
        let mut b = ModuleBuilder::new();
        let pair = b.add_type(FuncType::new(vec![], vec![ValueType::I32, ValueType::I32]));
        let mut c = CodeBuilder::new();
        c.block(BlockType::Func(pair))
            .i32_const(30)
            .i32_const(12)
            .end()
            .op(Opcode::I32Add);
        let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
        b.export_func("f", f);
        let module = b.finish();
        let r = run_exported(&module, f, &[], &[ValueType::I32]).unwrap();
        assert_eq!(r, vec![WasmValue::I32(42)]);
    }

    #[test]
    fn references_and_null_checks() {
        let mut c = CodeBuilder::new();
        c.ref_null(ValueType::ExternRef)
            .op(Opcode::RefIsNull)
            .local_get(0)
            .op(Opcode::RefIsNull)
            .op(Opcode::I32Add);
        let r = run_function(
            vec![ValueType::ExternRef],
            vec![ValueType::I32],
            vec![],
            c,
            &[WasmValue::ExternRef(Some(3))],
        )
        .unwrap();
        assert_eq!(r, vec![WasmValue::I32(1)]);
    }

    #[test]
    fn memory_size_and_grow() {
        let mut c = CodeBuilder::new();
        c.memory_size()
            .i32_const(2)
            .memory_grow()
            .op(Opcode::I32Add)
            .memory_size()
            .op(Opcode::I32Add);
        // size(1) + grow_result(1) + new_size(3) = 5
        let r = run_function(vec![], vec![ValueType::I32], vec![], c, &[]).unwrap();
        assert_eq!(r, vec![WasmValue::I32(5)]);
    }

    /// Runs a hand-prepared frame over `code` whose metadata declares
    /// `local_types` — which need not match what the body indexes.
    fn run_unvalidated(code: CodeBuilder, local_types: Vec<ValueType>) -> Exit {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(FuncType::new(vec![], vec![]), vec![], code.finish());
        let module = b.finish();
        let prepared = PreparedFunction {
            func_index: f,
            num_params: 0,
            num_results: 0,
            local_types,
            max_stack: 4,
            sidetable: Arc::default(),
            body_len: 0,
            fuel: Arc::default(),
        };
        let mut values = ValueStack::with_capacity(64);
        values.set_sp(prepared.num_locals() as usize);
        let mut globals = vec![];
        let mut tables = vec![];
        let mut cycles = CycleCounter::new();
        let mut ctx = ExecContext {
            values: &mut values,
            frame_base: 0,
            memory: None,
            globals: &mut globals,
            tables: &mut tables,
            meter: machine::cpu::Meter::default(),
        };
        Interpreter::default().run(&module, &prepared, 0, &mut ctx, &mut NoProbes, &mut cycles)
    }

    #[test]
    fn indices_outside_the_prepared_metadata_are_host_errors_not_panics() {
        let host_error = |at| Exit::Trap { code: TrapCode::HostError, at };
        let body = |build: fn(&mut CodeBuilder)| {
            let mut c = CodeBuilder::new();
            build(c.nop());
            c
        };
        assert_eq!(run_unvalidated(body(|c| { c.local_get(5); }), vec![]), host_error(1));
        let one_local = vec![ValueType::I32];
        assert_eq!(
            run_unvalidated(body(|c| { c.i32_const(1).local_set(1); }), one_local.clone()),
            host_error(3)
        );
        assert_eq!(
            run_unvalidated(body(|c| { c.i32_const(1).local_tee(9); }), one_local),
            host_error(3)
        );
        assert_eq!(run_unvalidated(body(|c| { c.global_get(0); }), vec![]), host_error(1));
        assert_eq!(
            run_unvalidated(body(|c| { c.i32_const(1).global_set(3); }), vec![]),
            host_error(3)
        );
        // A `br_table` (or any branch) the sidetable does not know.
        assert_eq!(
            run_unvalidated(body(|c| { c.i32_const(0).br_table(&[0], 0); }), vec![]),
            host_error(3)
        );
    }

    #[test]
    fn call_exit_reports_callee_and_resume() {
        let mut b = ModuleBuilder::new();
        let callee = b.add_func(FuncType::new(vec![], vec![]), vec![], CodeBuilder::new().finish());
        let mut c = CodeBuilder::new();
        c.call(callee).i32_const(1);
        let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
        let module = b.finish();
        let info = validate(&module).unwrap();
        let prepared = prepare(&module, f, &info.funcs[1]).unwrap();

        let mut values = ValueStack::with_capacity(64);
        values.set_sp(0);
        let mut globals = vec![];
        let mut tables = vec![];
        let interp = Interpreter::default();
        let mut cycles = CycleCounter::new();
        let mut ctx = ExecContext {
            values: &mut values,
            frame_base: 0,
            memory: None,
            globals: &mut globals,
            tables: &mut tables,
            meter: machine::cpu::Meter::default(),
        };
        let exit = interp.run(&module, &prepared, 0, &mut ctx, &mut NoProbes, &mut cycles);
        assert_eq!(
            exit,
            Exit::Call {
                func_index: callee,
                site: 0,
                resume: 2,
            }
        );
    }

    #[test]
    fn cycles_accumulate_and_scale_with_work() {
        let mut short = CodeBuilder::new();
        short.i32_const(1);
        let mut long = CodeBuilder::new();
        long.i32_const(0);
        for _ in 0..50 {
            long.i32_const(1).op(Opcode::I32Add);
        }

        let cycles_of = |code: CodeBuilder, results: Vec<ValueType>| {
            let mut b = ModuleBuilder::new();
            let f = b.add_func(FuncType::new(vec![], results), vec![], code.finish());
            let module = b.finish();
            let info = validate(&module).unwrap();
            let prepared = prepare(&module, f, &info.funcs[0]).unwrap();
            let mut values = ValueStack::with_capacity(256);
            let mut globals = vec![];
            let mut tables = vec![];
            let interp = Interpreter::default();
            let mut cycles = CycleCounter::new();
            let mut ctx = ExecContext {
                values: &mut values,
                frame_base: 0,
                memory: None,
                globals: &mut globals,
                tables: &mut tables,
                meter: machine::cpu::Meter::default(),
            };
            interp.run(&module, &prepared, 0, &mut ctx, &mut NoProbes, &mut cycles);
            cycles.total()
        };
        let short_cycles = cycles_of(short, vec![ValueType::I32]);
        let long_cycles = cycles_of(long, vec![ValueType::I32]);
        assert!(short_cycles > 0);
        assert!(long_cycles > short_cycles * 20);
    }
}
