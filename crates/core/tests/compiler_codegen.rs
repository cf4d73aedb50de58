//! Codegen-shape tests for the single-pass compiler's virtual-ISA backend.
//!
//! These tests inspect the emitted `MachInst` sequences, so they live
//! outside `compiler.rs`: the compiler itself emits exclusively through the
//! `Masm` macro-assembler trait and never constructs instructions directly.

use machine::inst::MachInst;
use spc::{
    CompiledFunction, CompilerOptions, ProbeKind, ProbeMode, ProbeSite, ProbeSites,
    SinglePassCompiler, TagStrategy,
};
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, Limits, ValueType};
use wasm::validate::validate;

fn compile_with(
    options: CompilerOptions,
    params: Vec<ValueType>,
    results: Vec<ValueType>,
    locals: Vec<ValueType>,
    code: CodeBuilder,
) -> CompiledFunction {
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(1));
    let f = b.add_func(FuncType::new(params, results), locals, code.finish());
    b.export_func("f", f);
    let module = b.finish();
    let info = validate(&module).expect("valid");
    SinglePassCompiler::new(options)
        .compile(&module, f, &info.funcs[0], &ProbeSites::none())
        .expect("compiles")
}

fn count_insts(cf: &CompiledFunction, pred: impl Fn(&MachInst) -> bool) -> usize {
    cf.code.insts().iter().filter(|i| pred(i)).count()
}

#[test]
fn straight_line_add_compiles_small() {
    let mut c = CodeBuilder::new();
    c.local_get(0).local_get(1).op(Opcode::I32Add);
    let cf = compile_with(
        CompilerOptions::allopt(),
        vec![ValueType::I32, ValueType::I32],
        vec![ValueType::I32],
        vec![],
        c,
    );
    assert!(cf.code.len() < 12, "compact code:\n{}", cf.code.disassemble());
    assert_eq!(cf.num_results, 1);
    assert_eq!(cf.num_locals, 2);
    assert!(count_insts(&cf, |i| matches!(i, MachInst::Return)) >= 1);
}

#[test]
fn constants_fold_under_allopt_but_not_nokfold() {
    let mut c = CodeBuilder::new();
    c.i32_const(6).i32_const(7).op(Opcode::I32Mul);
    let folded = compile_with(
        CompilerOptions::allopt(),
        vec![],
        vec![ValueType::I32],
        vec![],
        c.clone(),
    );
    assert_eq!(folded.stats.constants_folded, 1);
    assert_eq!(
        count_insts(&folded, |i| matches!(i, MachInst::Alu { .. } | MachInst::AluImm { .. })),
        0,
        "multiply folded away:\n{}",
        folded.code.disassemble()
    );
    // The folded constant is stored directly by the epilogue.
    assert!(count_insts(&folded, |i| matches!(i, MachInst::StoreSlotImm { .. })) >= 1);

    let unfolded = compile_with(
        CompilerOptions::nokfold(),
        vec![],
        vec![ValueType::I32],
        vec![],
        c,
    );
    assert_eq!(unfolded.stats.constants_folded, 0);
    assert!(unfolded.code.len() > folded.code.len());
}

#[test]
fn immediate_selection_uses_imm_forms() {
    let mut c = CodeBuilder::new();
    c.local_get(0).i32_const(5).op(Opcode::I32Add);
    let isel = compile_with(
        CompilerOptions::allopt(),
        vec![ValueType::I32],
        vec![ValueType::I32],
        vec![],
        c.clone(),
    );
    assert_eq!(isel.stats.immediate_selections, 1);
    assert_eq!(count_insts(&isel, |i| matches!(i, MachInst::AluImm { .. })), 1);

    let noisel = compile_with(
        CompilerOptions::noisel(),
        vec![ValueType::I32],
        vec![ValueType::I32],
        vec![],
        c,
    );
    assert_eq!(noisel.stats.immediate_selections, 0);
    assert!(count_insts(&noisel, |i| matches!(i, MachInst::Alu { .. })) >= 1);
    assert!(noisel.code.len() > isel.code.len());
}

#[test]
fn multi_register_elides_moves() {
    // local.get 0 twice: with MR the second get shares the register.
    let mut c = CodeBuilder::new();
    c.local_get(0).local_get(0).op(Opcode::I32Add);
    let mr = compile_with(
        CompilerOptions::allopt(),
        vec![ValueType::I32],
        vec![ValueType::I32],
        vec![],
        c.clone(),
    );
    let nomr = compile_with(
        CompilerOptions::nomr(),
        vec![ValueType::I32],
        vec![ValueType::I32],
        vec![],
        c,
    );
    let mr_loads = count_insts(&mr, |i| {
        matches!(i, MachInst::LoadSlot { .. } | MachInst::Mov { .. })
    });
    let nomr_loads = count_insts(&nomr, |i| {
        matches!(i, MachInst::LoadSlot { .. } | MachInst::Mov { .. })
    });
    assert!(
        mr_loads < nomr_loads,
        "MR should elide a load/move: {mr_loads} vs {nomr_loads}"
    );
}

#[test]
fn tag_strategies_control_tag_stores() {
    let mut c = CodeBuilder::new();
    c.local_get(0)
        .i32_const(1)
        .op(Opcode::I32Add)
        .local_set(0)
        .local_get(0);
    let make = |strategy, name: &str| {
        compile_with(
            CompilerOptions::with_tagging(strategy, name),
            vec![ValueType::I32],
            vec![ValueType::I32],
            vec![],
            c.clone(),
        )
    };
    let notags = make(TagStrategy::None, "notags");
    let eager = make(TagStrategy::Eager, "eagertags");
    let ondemand = make(TagStrategy::OnDemand, "on-demand");
    let stackmaps = make(TagStrategy::Stackmaps, "maps");

    let tag_count =
        |cf: &CompiledFunction| count_insts(cf, |i| matches!(i, MachInst::StoreTag { .. }));
    assert_eq!(tag_count(&notags), 0);
    assert_eq!(tag_count(&stackmaps), 0);
    assert!(tag_count(&eager) > tag_count(&ondemand));
    // No calls or probes: on-demand only tags the returned result.
    assert!(tag_count(&ondemand) <= 1, "{}", ondemand.code.disassemble());
}

#[test]
fn stackmaps_recorded_at_call_sites() {
    let mut b = ModuleBuilder::new();
    let callee = b.add_func(
        FuncType::new(vec![], vec![]),
        vec![],
        CodeBuilder::new().finish(),
    );
    let mut c = CodeBuilder::new();
    c.local_get(0).call(callee).drop_();
    let f = b.add_func(
        FuncType::new(vec![ValueType::ExternRef], vec![]),
        vec![],
        c.finish(),
    );
    let module = b.finish();
    let info = validate(&module).unwrap();

    let cf = SinglePassCompiler::new(CompilerOptions {
        tagging: TagStrategy::Stackmaps,
        ..CompilerOptions::allopt()
    })
    .compile(&module, f, &info.funcs[1], &ProbeSites::none())
    .unwrap();
    assert_eq!(cf.stackmaps.len(), 1);
    let map = cf.stackmaps.iter().next().unwrap();
    assert!(map.is_ref(0), "the externref param is a root");
    assert_eq!(cf.call_sites.len(), 1);
    let (_, site) = &cf.call_sites[0];
    // One local + one operand (the externref pushed for... actually the
    // call has no args, so the callee base is locals + current height.
    assert_eq!(site.callee_slot_base, 2);
}

#[test]
fn branch_folding_removes_constant_branches() {
    let mut c = CodeBuilder::new();
    c.block(BlockType::Empty)
        .i32_const(0)
        .br_if(0)
        .i32_const(1)
        .drop_()
        .end();
    let folded = compile_with(CompilerOptions::allopt(), vec![], vec![], vec![], c.clone());
    assert_eq!(folded.stats.branches_folded, 1);
    assert_eq!(count_insts(&folded, |i| matches!(i, MachInst::BrIf { .. })), 0);

    let unfolded = compile_with(CompilerOptions::nokfold(), vec![], vec![], vec![], c);
    assert_eq!(unfolded.stats.branches_folded, 0);
    assert!(count_insts(&unfolded, |i| matches!(i, MachInst::BrIf { .. })) >= 1);
}

#[test]
fn loops_and_branches_compile_with_bound_labels() {
    let mut c = CodeBuilder::new();
    c.block(BlockType::Empty)
        .loop_(BlockType::Empty)
        .local_get(0)
        .op(Opcode::I32Eqz)
        .br_if(1)
        .local_get(0)
        .i32_const(1)
        .op(Opcode::I32Sub)
        .local_set(0)
        .br(0)
        .end()
        .end()
        .local_get(0);
    let cf = compile_with(
        CompilerOptions::allopt(),
        vec![ValueType::I32],
        vec![ValueType::I32],
        vec![],
        c,
    );
    // Has a backward jump (the loop) and a forward branch (the exit).
    assert!(count_insts(&cf, |i| matches!(i, MachInst::Jump { .. })) >= 1);
    assert!(count_insts(&cf, |i| matches!(i, MachInst::BrIf { .. })) >= 1);
    assert!(cf.code.source_map().len() > 4, "debug metadata records source offsets");
}

#[test]
fn multi_value_rejected_without_mv_feature() {
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.i32_const(1).i32_const(2);
    let f = b.add_func(
        FuncType::new(vec![], vec![ValueType::I32, ValueType::I32]),
        vec![],
        c.finish(),
    );
    let module = b.finish();
    let info = validate(&module).unwrap();
    let options = CompilerOptions {
        multi_value: false,
        ..CompilerOptions::allopt()
    };
    let err = SinglePassCompiler::new(options)
        .compile(&module, f, &info.funcs[0], &ProbeSites::none())
        .unwrap_err();
    assert!(err.to_string().contains("multi-value"));
}

#[test]
fn probes_compile_to_requested_shapes() {
    let build = |mode, kind| {
        let mut b = ModuleBuilder::new();
        let mut code = CodeBuilder::new();
        code.local_get(0).drop_().nop();
        let f = b.add_func(FuncType::new(vec![ValueType::I32], vec![]), vec![], code.finish());
        let module = b.finish();
        let info = validate(&module).unwrap();
        let mut probes = ProbeSites::none();
        // Attach at offset 2 (the drop instruction).
        probes.insert(2, ProbeSite { probe_id: 5, kind });
        let options = CompilerOptions {
            probe_mode: mode,
            ..CompilerOptions::allopt()
        };
        SinglePassCompiler::new(options)
            .compile(&module, f, &info.funcs[0], &probes)
            .unwrap()
    };
    let runtime = build(ProbeMode::Runtime, ProbeKind::TopOfStack);
    assert_eq!(count_insts(&runtime, |i| matches!(i, MachInst::ProbeRuntime { .. })), 1);
    let opt = build(ProbeMode::Optimized, ProbeKind::TopOfStack);
    assert_eq!(count_insts(&opt, |i| matches!(i, MachInst::ProbeTosValue { .. })), 1);
    let counter = build(ProbeMode::Optimized, ProbeKind::Counter { counter_id: 3 });
    assert_eq!(count_insts(&counter, |i| matches!(i, MachInst::ProbeCounter { .. })), 1);
    assert!(opt.code.len() < runtime.code.len(), "optimized probes avoid the flush");
}

#[test]
fn call_sites_record_callee_base() {
    let mut b = ModuleBuilder::new();
    let callee = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![],
        {
            let mut c = CodeBuilder::new();
            c.local_get(0);
            c.finish()
        },
    );
    let mut c = CodeBuilder::new();
    c.i32_const(9).i32_const(1).call(callee).op(Opcode::I32Add);
    let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
    let module = b.finish();
    let info = validate(&module).unwrap();
    let cf = SinglePassCompiler::default()
        .compile(&module, f, &info.funcs[1], &ProbeSites::none())
        .unwrap();
    assert_eq!(cf.call_sites.len(), 1);
    let (_, site) = &cf.call_sites[0];
    // No locals; two operands pushed; the call consumes one arg, so the
    // callee's frame starts at slot 1.
    assert_eq!(site.callee_slot_base, 1);
    assert_eq!(cf.frame_slots, 2);
}

#[test]
fn wazero_style_lowering_pass_still_compiles_correctly() {
    let mut c = CodeBuilder::new();
    c.local_get(0).i32_const(2).op(Opcode::I32Mul);
    let options = CompilerOptions {
        extra_lowering_pass: true,
        track_constants: false,
        instruction_selection: false,
        constant_folding: false,
        ..CompilerOptions::allopt()
    };
    let cf = compile_with(
        options,
        vec![ValueType::I32],
        vec![ValueType::I32],
        vec![],
        c,
    );
    assert!(count_insts(&cf, |i| matches!(i, MachInst::Alu { .. })) >= 1);
    assert!(count_insts(&cf, |i| matches!(i, MachInst::MovImm { .. })) >= 1);
}
