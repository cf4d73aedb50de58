//! Shared helpers for the workspace-level integration tests.
//!
//! Before this module existed, the instantiate-and-call pattern and the fib
//! workload were copy-pasted across `differential.rs`, `lazy_compile.rs`,
//! `pipeline_cache.rs`, and `tiering_and_gc.rs`, and each file hand-rolled
//! its own configuration list. The canonical matrix — the engine's five
//! distinct executions — is `conform::runner::all_configs`, which the tests
//! call directly (the conformance corpus runs under exactly the same
//! configurations).

// Integration tests compile this module independently, and each uses a
// different subset of the helpers.
#![allow(dead_code)]

use engine::{Engine, EngineConfig, Imports, Instrumentation};
use machine::inst::TrapCode;
use machine::values::WasmValue;
use std::collections::{BTreeMap, BTreeSet};
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::reader::{BytecodeReader, Imm, Instr};
use wasm::types::{BlockType, FuncType, ValueType};
use wasm::Module;

/// Instantiates `module` under `config` (no imports, no instrumentation) and
/// calls the export `name`.
///
/// # Panics
///
/// Panics if instantiation fails — tests pass known-good modules.
pub fn run_export(
    config: EngineConfig,
    module: &Module,
    name: &str,
    args: &[WasmValue],
) -> Result<Vec<WasmValue>, TrapCode> {
    let engine = Engine::new(config);
    let mut instance = engine
        .instantiate(module, Imports::new(), Instrumentation::none())
        .expect("module instantiates");
    engine.call_export(&mut instance, name, args)
}

/// Like [`run_export`] but returns only the first result, as most benchmark
/// entry points produce a single checksum.
pub fn run_export_checksum(
    config: EngineConfig,
    module: &Module,
    name: &str,
    args: &[WasmValue],
) -> Result<WasmValue, TrapCode> {
    run_export(config, module, name, args).map(|r| r[0])
}

/// Like [`run_export`] but under the metering variant of `config` with a
/// fuel budget armed: returns the call result alongside the fuel consumed
/// (the full budget when the call ran out of fuel — exhaustion clamps
/// remaining fuel to zero, deterministically in every tier).
pub fn run_export_fueled(
    config: EngineConfig,
    module: &Module,
    name: &str,
    args: &[WasmValue],
    fuel: u64,
) -> (Result<Vec<WasmValue>, TrapCode>, u64) {
    let engine = Engine::new(config.with_metering());
    let mut instance = engine
        .instantiate(module, Imports::new(), Instrumentation::none())
        .expect("module instantiates");
    instance.set_fuel(fuel);
    let result = engine.call_export(&mut instance, name, args);
    (result, instance.fuel_consumed().unwrap_or(0))
}

/// fib(n) with recursive calls — the classic tier-up workload shared by the
/// tiering, pipeline, and cache tests.
pub fn fib_module() -> Module {
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    // if n < 2 return n; else return fib(n-1) + fib(n-2)
    c.local_get(0)
        .i32_const(2)
        .op(Opcode::I32LtS)
        .if_(BlockType::Empty)
        .local_get(0)
        .return_()
        .end()
        .local_get(0)
        .i32_const(1)
        .op(Opcode::I32Sub)
        .call(0)
        .local_get(0)
        .i32_const(2)
        .op(Opcode::I32Sub)
        .call(0)
        .op(Opcode::I32Add);
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![],
        c.finish(),
    );
    b.export_func("fib", f);
    b.finish()
}

/// Where every branching instruction of `code` transfers control, recomputed
/// from nothing but the block structure: offset of the `br`/`br_if`/`if`/
/// `else`/`br_table` → its target offsets in immediate order (one for a
/// plain branch; every listed target, then the default, for a `br_table`).
fn reference_branch_targets(code: &[u8]) -> BTreeMap<u32, Vec<u32>> {
    struct Construct {
        /// Body start of a `loop` (its branch target); `None` for forward labels.
        loop_start: Option<u32>,
        /// `(branch offset, target slot)` pairs waiting for this label's `end`.
        waiting: Vec<(u32, usize)>,
    }
    fn branch(
        targets: &mut BTreeMap<u32, Vec<u32>>,
        stack: &mut [Construct],
        depth: u32,
        offset: u32,
        slot: usize,
    ) {
        let label = stack.len() - 1 - depth as usize;
        match stack[label].loop_start {
            Some(start) => targets.get_mut(&offset).expect("recorded")[slot] = start,
            None => stack[label].waiting.push((offset, slot)),
        }
    }
    let mut targets: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    let mut stack = vec![Construct { loop_start: None, waiting: Vec::new() }];
    for instr in BytecodeReader::new(code) {
        let Instr { offset, op, imm, end } = instr.expect("instruction");
        let offset = offset as u32;
        match (op, imm) {
            (Opcode::Block | Opcode::Loop | Opcode::If, _) => {
                let mut construct = Construct { loop_start: None, waiting: Vec::new() };
                match op {
                    Opcode::Loop => construct.loop_start = Some(end as u32),
                    Opcode::If => {
                        // The false edge: to just past the `else`, or to the `end`.
                        targets.insert(offset, vec![0]);
                        construct.waiting.push((offset, 0));
                    }
                    _ => {}
                }
                stack.push(construct);
            }
            (Opcode::Else, _) => {
                let construct = stack.last_mut().expect("inside an if");
                let (if_offset, _) = construct.waiting.remove(0);
                targets.get_mut(&if_offset).expect("recorded")[0] = offset + 1;
                targets.insert(offset, vec![0]);
                construct.waiting.push((offset, 0));
            }
            (Opcode::End, _) => {
                for (waiting, slot) in stack.pop().expect("balanced").waiting {
                    targets.get_mut(&waiting).expect("recorded")[slot] = offset;
                }
            }
            (Opcode::Br | Opcode::BrIf, Imm::Index(depth)) => {
                targets.insert(offset, vec![0]);
                branch(&mut targets, &mut stack, depth, offset, 0);
            }
            (Opcode::BrTable, Imm::Table(table)) => {
                targets.insert(offset, vec![0; table.len() + 1]);
                for (slot, depth) in table.targets_and_default().enumerate() {
                    branch(&mut targets, &mut stack, depth, offset, slot);
                }
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unbalanced body");
    targets
}

/// The fuel schedule of `code` by the rules in `wasm::fuel`'s module docs,
/// accumulated into ordered maps: region start → charge, and the loop-body
/// starts where the epoch is polled.
fn reference_fuel_schedule(code: &[u8]) -> (BTreeMap<u32, u64>, BTreeSet<u32>) {
    let mut charges = BTreeMap::new();
    let mut epoch_checks = BTreeSet::new();
    let (mut region_start, mut pending) = (0u32, 0u64);
    let mut flush = |region_start: &mut u32, pending: &mut u64, next: u32| {
        if *pending > 0 {
            *charges.entry(*region_start).or_insert(0) += *pending;
        }
        *pending = 0;
        *region_start = next;
    };
    for instr in BytecodeReader::new(code) {
        let instr = instr.expect("instruction");
        let (op, offset, after) = (instr.op, instr.offset as u32, instr.end as u32);
        if matches!(op, Opcode::Loop | Opcode::Else | Opcode::End) {
            flush(&mut region_start, &mut pending, offset);
        }
        pending += wasm::fuel::fuel_cost(op);
        if op == Opcode::Loop {
            epoch_checks.insert(after);
        }
        if matches!(
            op,
            Opcode::Loop
                | Opcode::If
                | Opcode::Else
                | Opcode::End
                | Opcode::Br
                | Opcode::BrIf
                | Opcode::BrTable
                | Opcode::Return
                | Opcode::Unreachable
                | Opcode::Call
                | Opcode::CallIndirect
        ) {
            flush(&mut region_start, &mut pending, after);
        }
    }
    flush(&mut region_start, &mut pending, code.len() as u32);
    (charges, epoch_checks)
}

/// Checks, for every defined function of `module` and at **every** offset
/// `0..=body_len`, that the sidetable's and the fuel plan's lookups answer
/// exactly what ordered reference maps rebuilt from the body answer — hits
/// where an entry belongs, misses everywhere else — and that the entry
/// counts agree (so nothing is stored twice).
///
/// The tables checked are the ones the engine runs from — what
/// `validate(module)` leaves in each function's `FuncInfo` — and the two
/// standalone entry points (`build_sidetable`, `FuelPlan::build`) must hand
/// back equal ones.
pub fn assert_lookups_match_reference(module: &Module, what: &str) {
    let info = wasm::validate::validate(module).unwrap_or_else(|e| panic!("{what}: {e}"));
    for defined in 0..module.funcs.len() as u32 {
        let func = module.defined_to_func_index(defined);
        let code = &module.funcs[defined as usize].code;
        let at = |offset: u32| format!("{what}: function {func} offset {offset}");

        let sidetable = &info.funcs[defined as usize].sidetable;
        let standalone = interp::sidetable::build_sidetable(module, func).expect("sidetable");
        assert_eq!(standalone, *sidetable, "{what}: function {func} build_sidetable");
        let targets = reference_branch_targets(code);
        let is_table = |offset: u32| code[offset as usize] == Opcode::BrTable.to_byte();
        let plan = &info.funcs[defined as usize].fuel;
        let standalone = wasm::fuel::FuelPlan::build(code).expect("fuel plan");
        assert_eq!(standalone, **plan, "{what}: function {func} FuelPlan::build");
        let (charges, epoch_checks) = reference_fuel_schedule(code);
        for offset in 0..=code.len() as u32 {
            let expected = targets.get(&offset);
            let branch = sidetable.branch(offset).map(|e| vec![e.target_ip]);
            let table = sidetable
                .br_table(offset)
                .map(|entries| entries.iter().map(|e| e.target_ip).collect::<Vec<u32>>());
            match expected {
                Some(expected) if is_table(offset) => {
                    assert_eq!(table.as_ref(), Some(expected), "{}", at(offset));
                    assert_eq!(branch, None, "{}", at(offset));
                }
                expected => {
                    assert_eq!(branch.as_ref(), expected, "{}", at(offset));
                    assert_eq!(table, None, "{}", at(offset));
                }
            }
            assert_eq!(plan.charge_at(offset), charges.get(&offset).copied(), "{}", at(offset));
            assert_eq!(
                plan.epoch_check_at(offset),
                epoch_checks.contains(&offset),
                "{}",
                at(offset)
            );
        }
        assert_eq!(sidetable.len(), targets.values().map(Vec::len).sum::<usize>(), "{what}");
        assert_eq!(plan.num_charges(), charges.len(), "{what}");
        assert_eq!(plan.num_epoch_checks(), epoch_checks.len(), "{what}");
        assert_eq!(plan.total_cost(), charges.values().sum::<u64>(), "{what}");
    }
}
