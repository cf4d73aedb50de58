//! A linear memory is backed on demand: instantiating a module and growing
//! its memory cost the host the bytes the module touches, not the pages it
//! declares.
//!
//! The module declares 1 024 pages (64 MiB), grows them by 1 024 more, stores
//! at offset 0 and loads from the first page and the last word. Backing every
//! declared page would allocate 64 MiB at instantiation and another 128 MiB at
//! the grow; on demand, the whole instantiation and call allocate under 1 MiB
//! in every execution, counted by the global allocator `scaling.rs` uses.

#[path = "../crates/optc/tests/counting/mod.rs"]
mod counting;

use counting::{counted, TURN};
use engine::{Engine, Imports, Instrumentation};
use machine::values::WasmValue;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{FuncType, Limits, ValueType};
use wasm::Module;

const DECLARED_PAGES: u32 = 1024;

/// `main: [] -> [i32]` returns the sum of `memory.grow(1024)`, the word it
/// stores at 0 read back, the last word of the first page, the last word of
/// the grown memory and `memory.size`.
fn sparse_module() -> Module {
    let last_word = (2 * DECLARED_PAGES * 65_536 - 4) as i32;
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(DECLARED_PAGES));
    let mut c = CodeBuilder::new();
    c.i32_const(DECLARED_PAGES as i32)
        .memory_grow()
        .i32_const(0)
        .i32_const(0x1234_5678)
        .mem(Opcode::I32Store, 2, 0)
        .i32_const(0)
        .mem(Opcode::I32Load, 2, 0)
        .op(Opcode::I32Add)
        .i32_const(65_532)
        .mem(Opcode::I32Load, 2, 0)
        .op(Opcode::I32Add)
        .i32_const(last_word)
        .mem(Opcode::I32Load, 2, 0)
        .op(Opcode::I32Add)
        .memory_size()
        .op(Opcode::I32Add);
    let main = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
    b.export_func("main", main);
    b.finish()
}

#[test]
fn a_sparse_memory_allocates_what_it_touches_in_every_execution() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let module = sparse_module();
    let mut results = Vec::new();
    for config in conform::runner::all_configs() {
        let name = config.name.clone();
        let engine = Engine::new(config);
        let (result, counts) = counted(|| {
            let mut instance = engine
                .instantiate(&module, Imports::new(), Instrumentation::none())
                .expect("instantiates");
            let result = engine.call_export(&mut instance, "main", &[]);
            (result, instance.memory().map(|m| m.size_pages()))
        });
        assert!(
            counts.total < 1 << 20,
            "{name}: {} B allocated in {} allocations (largest {} B, peak {} B)",
            counts.total,
            counts.allocations,
            counts.largest,
            counts.peak
        );
        results.push((name, result));
    }
    // The first configuration is the interpreter.
    let (_, reference) = &results[0];
    let sum = DECLARED_PAGES as i32 + 0x1234_5678 + 2 * DECLARED_PAGES as i32;
    assert_eq!(*reference, (Ok(vec![WasmValue::I32(sum)]), Some(2 * DECLARED_PAGES)));
    for (name, result) in &results {
        assert_eq!(result, reference, "{name}");
    }
}
