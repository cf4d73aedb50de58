//! `optc` — the SSA-based optimizing compiler tier.
//!
//! Production engines pair their baseline compiler with an IR-based
//! optimizing compiler (TurboFan, Ion, Cranelift, ...) that spends an order
//! of magnitude more compile time to produce substantially faster code (the
//! red/purple cluster of the paper's Fig. 10). This crate is that other side
//! of the paper's comparison axis, scaled to this reproduction but with the
//! real structure end to end:
//!
//! 1. **Frontend** ([`frontend`]): one forward pass over validated bytecode
//!    builds basic blocks and block-parameter-form SSA, following the same
//!    control-stack discipline as validation and the interpreter's
//!    sidetable construction. A merge block takes parameters only for the
//!    locals its construct assigns (every local when OSR is armed), which a
//!    walk of the body lists before lowering, so locals a function never
//!    writes cost nothing per merge. Probe sites lower exactly as in the
//!    baseline.
//! 2. **Optimization pipeline** ([`opt`]): constant and branch folding
//!    (through the same [`machine::lower::OpClass`] evaluation table the
//!    interpreter and CPU simulator execute with, so folds are bit-exact),
//!    trivial-parameter removal (cross-merge copy propagation), local CSE
//!    with redundant-load elimination, and trap-preserving dead-code
//!    elimination.
//! 3. **Layout** ([`layout`]): profile-guided block placement, fed by the
//!    branch profiles the engine's monitors collect while the function
//!    still runs in the lower tiers ([`interp::profile::FuncProfile`]).
//! 4. **Register allocation** ([`regalloc`]): linear scan over whole live
//!    ranges across the full register file — the baseline's
//!    flush-at-every-merge discipline is exactly what this tier removes.
//! 5. **Emission** ([`emit`]): through the [`machine::Masm`] macro-assembler
//!    trait, so the virtual-ISA *and* x86-64 backends both get optimized
//!    code (the old slot-promotion pass was silently virtual-ISA-only).
//!
//! The tier's GC contract: reference-typed values never live in registers —
//! they are kept in tagged frame slots, so the engine's tag-scanning root
//! walk sees every reference at every call boundary without stackmaps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod emit;
pub mod frontend;
pub mod ir;
pub mod layout;
pub mod opt;
pub mod regalloc;

use interp::profile::FuncProfile;
use machine::masm::Masm;
use spc::{CompileError, CompiledCode, CompiledFunction, ProbeMode, ProbeSites};
use wasm::hash::Fnv64;
use wasm::module::Module;
use wasm::validate::FuncInfo;

/// The optimizing compiler.
#[derive(Debug, Clone)]
pub struct OptimizingCompiler {
    /// How probe sites are lowered (mirrors the baseline configuration so
    /// instrumentation counts stay tier-independent).
    probe_mode: ProbeMode,
    /// Whether fuel/epoch checks are inserted (mirrors the engine's metering
    /// configuration so fuel counts stay tier-independent).
    metering: bool,
    /// Whether on-stack-replacement entry stubs are emitted for loops. This
    /// also reserves the interpreter operand region in the frame so an OSR
    /// transition never shrinks an activation's frame.
    osr: bool,
}

impl Default for OptimizingCompiler {
    fn default() -> OptimizingCompiler {
        OptimizingCompiler {
            probe_mode: ProbeMode::Optimized,
            metering: false,
            osr: false,
        }
    }
}

impl OptimizingCompiler {
    /// Creates an optimizing compiler lowering probes in `probe_mode`.
    pub fn new(probe_mode: ProbeMode) -> OptimizingCompiler {
        OptimizingCompiler {
            probe_mode,
            metering: false,
            osr: false,
        }
    }

    /// Enables or disables fuel metering: when on, the frontend inserts
    /// `FuelCheck` / `EpochCheck` instructions at the offsets of the
    /// function's [`wasm::fuel::FuelPlan`], and every optimization pass
    /// treats them as immovable effects.
    pub fn with_metering(mut self, metering: bool) -> OptimizingCompiler {
        self.metering = metering;
        self
    }

    /// Enables or disables on-stack-replacement entry stubs: when on, every
    /// reachable `loop` gets an entry block that reconstructs the header's
    /// SSA state from an interpreter-layout frame (the reverse of the
    /// `ProbeFlush` mapping) and the published artifact records its position
    /// in [`CompiledCode::osr_entries`], keyed by the loop-body-start offset.
    pub fn with_osr(mut self, osr: bool) -> OptimizingCompiler {
        self.osr = osr;
        self
    }

    /// A stable fingerprint of the optimizing pipeline (IR shape, pass list,
    /// allocator). Folded into the engine's code-cache key so artifacts
    /// compiled with and without the optimizing tier can never alias.
    pub fn pipeline_fingerprint() -> u64 {
        let mut h = Fnv64::new();
        for byte in b"optc-ssa-v1:fold+params+cse+dce/profile-layout/linear-scan".iter() {
            h.write_u8(*byte);
        }
        h.finish()
    }

    /// Compiles one function to virtual-ISA code (the executable backend).
    ///
    /// `profile` is the branch profile collected by the lower tiers; pass
    /// `None` (or an empty profile) to lay blocks out in bytecode order.
    ///
    /// # Errors
    ///
    /// Returns an error if the body is malformed (validation normally
    /// rejects such input first).
    pub fn compile(
        &self,
        module: &Module,
        func_index: u32,
        info: &FuncInfo,
        probes: &ProbeSites,
        profile: Option<&FuncProfile>,
    ) -> Result<CompiledFunction, CompileError> {
        self.compile_with(
            machine::asm::Assembler::new(),
            module,
            func_index,
            info,
            probes,
            profile,
        )
    }

    /// Compiles one function through an arbitrary [`Masm`] backend.
    ///
    /// # Errors
    ///
    /// Returns an error if the body is malformed.
    pub fn compile_with<M: Masm>(
        &self,
        masm: M,
        module: &Module,
        func_index: u32,
        info: &FuncInfo,
        probes: &ProbeSites,
        profile: Option<&FuncProfile>,
    ) -> Result<CompiledCode<M::Output>, CompileError> {
        let wasm_bytes = module
            .func_decl(func_index)
            .map(|d| d.code.len() as u32)
            .unwrap_or(0);
        let mut ir = frontend::build(
            module,
            func_index,
            info,
            probes,
            self.probe_mode,
            self.metering,
            self.osr,
        )?;
        opt::optimize(&mut ir);
        #[cfg(debug_assertions)]
        regalloc::check_edges(&ir);
        let empty = FuncProfile::empty();
        let order = layout::layout(&ir, profile.unwrap_or(&empty));
        let alloc = regalloc::allocate(&ir, &order);
        Ok(emit::emit(masm, &ir, &alloc, &order, wasm_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::cost::{CostModel, CycleCounter};
    use machine::cpu::{Cpu, CpuState, ExecContext, Exit};
    use machine::inst::{MachInst, TrapCode};
    use machine::memory::{LinearMemory, Table};
    use machine::values::{GlobalSlot, ValueStack, WasmValue};
    use machine::x64_masm::X64Masm;
    use spc::SinglePassCompiler;
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::opcode::Opcode;
    use wasm::types::{BlockType, FuncType, Limits, ValueType};
    use wasm::validate::validate;

    fn compile_pair(
        module: &Module,
        f: u32,
    ) -> (CompiledFunction, CompiledFunction) {
        let info = validate(module).unwrap();
        let defined = f - module.num_imported_funcs();
        let baseline = SinglePassCompiler::default()
            .compile(module, f, &info.funcs[defined as usize], &ProbeSites::none())
            .unwrap();
        let optimized = OptimizingCompiler::default()
            .compile(module, f, &info.funcs[defined as usize], &ProbeSites::none(), None)
            .unwrap();
        (baseline, optimized)
    }

    /// Runs call-free compiled code with `args` in the frame's first slots;
    /// returns the exit, the first result slot, and cycles.
    fn run(cf: &CompiledFunction, args: &[WasmValue]) -> (Exit, u64, u64) {
        let mut values = ValueStack::with_capacity(1024);
        for (i, a) in args.iter().enumerate() {
            values.write_value(i, *a);
        }
        let mut memory = LinearMemory::new(Limits::at_least(1));
        let mut globals: Vec<GlobalSlot> = vec![GlobalSlot::from_value(WasmValue::I64(5))];
        let mut tables: Vec<Table> = Vec::new();
        let cpu = Cpu::new(CostModel::default());
        let mut state = CpuState::new();
        let mut cycles = CycleCounter::new();
        let mut ctx = ExecContext {
            values: &mut values,
            frame_base: 0,
            memory: Some(&mut memory),
            globals: &mut globals,
            tables: &mut tables,
            meter: machine::cpu::Meter::default(),
        };
        let exit = cpu.run(&mut state, &cf.code, 0, &mut ctx, &mut cycles);
        (exit, values.read(0), cycles.total())
    }

    fn loop_module() -> (Module, u32) {
        // Classic countdown-sum loop: heavy local traffic inside a loop.
        let mut b = ModuleBuilder::new();
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
        let f = b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![ValueType::I32],
            c.finish(),
        );
        b.export_func("sum", f);
        (b.finish(), f)
    }

    #[test]
    fn loop_agrees_with_baseline_and_is_faster() {
        let (module, f) = loop_module();
        let (baseline, optimized) = compile_pair(&module, f);
        let (bexit, bresult, bcycles) = run(&baseline, &[WasmValue::I32(100)]);
        let (oexit, oresult, ocycles) = run(&optimized, &[WasmValue::I32(100)]);
        assert_eq!(bexit, Exit::Return);
        assert_eq!(oexit, Exit::Return);
        assert_eq!(bresult as u32, 5050);
        assert_eq!(oresult as u32, 5050);
        assert!(
            ocycles * 10 <= bcycles * 8,
            "opt must be >= 20% faster on the loop kernel: {ocycles} vs {bcycles}\n{}",
            optimized.code.disassemble()
        );
    }

    #[test]
    fn loop_body_has_no_slot_traffic() {
        let (module, f) = loop_module();
        let (_, optimized) = compile_pair(&module, f);
        let slot_accesses = optimized
            .code
            .insts()
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    MachInst::LoadSlot { .. }
                        | MachInst::StoreSlot { .. }
                        | MachInst::StoreSlotImm { .. }
                )
            })
            .count();
        // One load of the parameter in the prologue, one store of the result
        // in the epilogue; nothing per-iteration.
        assert!(
            slot_accesses <= 2,
            "loop-carried values must live in registers:\n{}",
            optimized.code.disassemble()
        );
    }

    #[test]
    fn division_trap_is_preserved_even_when_dropped() {
        let mut b = ModuleBuilder::new();
        let mut c = CodeBuilder::new();
        c.local_get(0).i32_const(0).op(Opcode::I32DivS).drop_().i32_const(7);
        let f = b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![],
            c.finish(),
        );
        let module = b.finish();
        let (_, optimized) = compile_pair(&module, f);
        let (exit, _, _) = run(&optimized, &[WasmValue::I32(1)]);
        assert!(matches!(exit, Exit::Trap { code: TrapCode::DivisionByZero, .. }));
    }

    #[test]
    fn folded_constants_execute_correctly() {
        let mut b = ModuleBuilder::new();
        let mut c = CodeBuilder::new();
        c.i32_const(6).i32_const(7).op(Opcode::I32Mul);
        let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
        let module = b.finish();
        let (_, optimized) = compile_pair(&module, f);
        assert!(
            !optimized
                .code
                .insts()
                .iter()
                .any(|i| matches!(i, MachInst::Alu { .. } | MachInst::AluImm { .. })),
            "{}",
            optimized.code.disassemble()
        );
        let (exit, result, _) = run(&optimized, &[]);
        assert_eq!(exit, Exit::Return);
        assert_eq!(result as u32, 42);
    }

    #[test]
    fn memory_and_globals_round_trip() {
        let mut b = ModuleBuilder::new();
        b.add_memory(Limits::at_least(1));
        let g = b.add_global(
            wasm::types::GlobalType::mutable(ValueType::I64),
            wasm::module::ConstExpr::I64(5),
        );
        let mut c = CodeBuilder::new();
        // mem[8] = x; g = g + mem[8]; return low 32 bits of g
        c.i32_const(8)
            .local_get(0)
            .mem(Opcode::I32Store, 2, 0)
            .global_get(g)
            .i32_const(8)
            .mem(Opcode::I32Load, 2, 0)
            .op(Opcode::I64ExtendI32U)
            .op(Opcode::I64Add)
            .global_set(g)
            .global_get(g)
            .op(Opcode::I32WrapI64);
        let f = b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![],
            c.finish(),
        );
        let module = b.finish();
        let (baseline, optimized) = compile_pair(&module, f);
        let (be, br, _) = run(&baseline, &[WasmValue::I32(37)]);
        let (oe, or, _) = run(&optimized, &[WasmValue::I32(37)]);
        assert_eq!(be, Exit::Return);
        assert_eq!(oe, Exit::Return);
        assert_eq!(br, or);
        assert_eq!(or as u32, 42);
    }

    #[test]
    fn x64_backend_emits_through_the_same_pipeline() {
        let (module, f) = loop_module();
        let info = validate(&module).unwrap();
        let code = OptimizingCompiler::default()
            .compile_with(
                X64Masm::new(),
                &module,
                f,
                &info.funcs[0],
                &ProbeSites::none(),
                None,
            )
            .unwrap();
        assert!(code.code.code_size() > 0, "real bytes were emitted");
        assert_eq!(code.num_locals, 2);
    }

    /// Register pressure well past the 11 allocatable GPRs forces spills
    /// and evictions; the spilled code must still agree with the baseline.
    /// (Regression guard for spill-slot reuse: an evicted value's slot must
    /// be free from its *definition*, not from the eviction point.)
    #[test]
    fn high_register_pressure_spills_correctly() {
        let mut b = ModuleBuilder::new();
        let mut c = CodeBuilder::new();
        // Materialize 18 values early (some die quickly, some live to the
        // end), interleave short-lived temps, then combine everything so
        // every long-lived value is still needed at the bottom.
        let n = 18;
        for i in 0..n {
            c.local_get(0).i32_const(i + 1).op(Opcode::I32Mul);
        }
        // A short-lived burst in the middle: defines + consumes immediately.
        c.local_get(0)
            .i32_const(3)
            .op(Opcode::I32Add)
            .local_get(0)
            .op(Opcode::I32Xor)
            .drop_();
        // Fold the 18 live values together (uses them latest-first).
        for _ in 0..n - 1 {
            c.op(Opcode::I32Add);
        }
        let f = b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![],
            c.finish(),
        );
        let module = b.finish();
        let (baseline, optimized) = compile_pair(&module, f);
        // The optimized code must actually have spilled something, or this
        // test is not exercising the eviction path.
        assert!(
            optimized
                .code
                .insts()
                .iter()
                .any(|i| matches!(i, MachInst::StoreSlot { .. })),
            "expected register pressure to cause spills:\n{}",
            optimized.code.disassemble()
        );
        for arg in [0i32, 1, 7, -3, 100_000] {
            let (be, br, _) = run(&baseline, &[WasmValue::I32(arg)]);
            let (oe, or, _) = run(&optimized, &[WasmValue::I32(arg)]);
            assert_eq!(be, Exit::Return);
            assert_eq!(oe, Exit::Return, "arg {arg}");
            assert_eq!(br as u32, or as u32, "arg {arg}");
        }
    }

    #[test]
    fn pipeline_fingerprint_is_stable_and_nonzero() {
        assert_ne!(OptimizingCompiler::pipeline_fingerprint(), 0);
        assert_eq!(
            OptimizingCompiler::pipeline_fingerprint(),
            OptimizingCompiler::pipeline_fingerprint()
        );
    }

    use wasm::module::Module;
    use spc::CompiledFunction;
}
