//! The in-place interpreter's sidetable.
//!
//! The interpreter executes the original bytecode without rewriting it, so it
//! needs somewhere to find, for every branch, the target bytecode offset and
//! how to fix up the operand stack when the branch is taken. That metadata is
//! the *sidetable* (the `STP` of the paper's Fig. 2), and — as in the paper's
//! design — it is a by-product of validation: [`wasm::validate`] records it on
//! its own control stack while it type-checks the body, and hands it over in
//! [`FuncInfo::sidetable`](wasm::validate::FuncInfo::sidetable). This module
//! re-exports the table type and keeps [`build_sidetable`], the entry point
//! for one function's table on its own.

use std::sync::Arc;
use wasm::module::Module;
use wasm::validate::{validate_func, ValidateError};

pub use wasm::sidetable::{BranchEntry, Sidetable};

/// The sidetable of the defined function with function-space index
/// `func_index`: validates that one body and returns the table the validator
/// wrote. The engine does not call this — it validates a module once and
/// reads every function's table from the result.
///
/// # Errors
///
/// Returns the validator's error if the function has no body or the body is
/// invalid.
pub fn build_sidetable(module: &Module, func_index: u32) -> Result<Arc<Sidetable>, ValidateError> {
    validate_func(module, func_index).map(|info| info.sidetable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::opcode::Opcode;
    use wasm::types::{BlockType, FuncType, ValueType};

    fn build(params: Vec<ValueType>, results: Vec<ValueType>, code: CodeBuilder) -> (Module, u32) {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(FuncType::new(params, results), vec![], code.finish());
        (b.finish(), f)
    }

    #[test]
    fn straight_line_code_has_empty_sidetable() {
        let mut c = CodeBuilder::new();
        c.i32_const(1).i32_const(2).op(Opcode::I32Add);
        let (m, f) = build(vec![], vec![ValueType::I32], c);
        let t = build_sidetable(&m, f).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn block_branch_targets_its_end() {
        // block ; br 0 ; i32.const 1 ; drop ; end
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty).br(0).i32_const(1).drop_().end();
        let (m, f) = build(vec![], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        // The br is at offset 2 (block=0, blocktype=1, br=2).
        let entry = t.branch(2).expect("br entry");
        // Target is the `end` of the block. Layout:
        // 0 block, 1 bt, 2 br, 3 depth, 4 const, 5 imm, 6 drop, 7 end(block), 8 end(func)
        assert_eq!(entry.target_ip, 7);
        assert_eq!(entry.arity, 0);
        assert_eq!(entry.label_base, 0);
    }

    #[test]
    fn loop_branch_targets_loop_start() {
        // loop ; br_if 0 backedge driven by local 0 ; end
        let mut c = CodeBuilder::new();
        c.loop_(BlockType::Empty).local_get(0).br_if(0).end();
        let (m, f) = build(vec![ValueType::I32], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 loop, 1 bt, 2 local.get, 3 idx, 4 br_if, 5 depth, 6 end, 7 end
        let entry = t.branch(4).expect("br_if entry");
        assert_eq!(entry.target_ip, 2, "loop branches target the body start");
        assert_eq!(entry.arity, 0);
    }

    #[test]
    fn if_else_entries() {
        // if (result i32) then 1 else 2 end
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .if_(BlockType::Value(ValueType::I32))
            .i32_const(1)
            .else_()
            .i32_const(2)
            .end();
        let (m, f) = build(vec![ValueType::I32], vec![ValueType::I32], c);
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 local.get, 1 idx, 2 if, 3 bt, 4 const, 5 imm, 6 else, 7 const, 8 imm, 9 end, 10 end
        let if_entry = t.branch(2).expect("if false entry");
        assert_eq!(if_entry.target_ip, 7, "false branch jumps past the else");
        assert_eq!(if_entry.arity, 0);
        let else_entry = t.branch(6).expect("else entry");
        assert_eq!(else_entry.target_ip, 9, "then branch jumps to end");
        assert_eq!(else_entry.arity, 1);
    }

    #[test]
    fn if_without_else_targets_end() {
        let mut c = CodeBuilder::new();
        c.local_get(0).if_(BlockType::Empty).nop().end();
        let (m, f) = build(vec![ValueType::I32], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 local.get, 1 idx, 2 if, 3 bt, 4 nop, 5 end, 6 end
        let entry = t.branch(2).expect("if entry");
        assert_eq!(entry.target_ip, 5);
    }

    #[test]
    fn br_table_entries_cover_targets_and_default() {
        // block block br_table [1 0] 1 end end
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .block(BlockType::Empty)
            .local_get(0)
            .br_table(&[1, 0], 1)
            .end()
            .end();
        let (m, f) = build(vec![ValueType::I32], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 block,1 bt,2 block,3 bt,4 local.get,5 idx,6 br_table,...
        let entries = t.br_table(6).expect("br_table entries");
        assert_eq!(entries.len(), 3);
        // Inner block's end is at offset 11, outer at 12.
        // depth 1 = outer block, depth 0 = inner block.
        assert_eq!(entries[0].target_ip, 12);
        assert_eq!(entries[1].target_ip, 11);
        assert_eq!(entries[2].target_ip, 12);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn entries_are_stored_in_offset_order_however_late_they_resolve() {
        // block ; block ; br 1 ; br 0 ; end ; br 0 ; end
        // 0       2       4      6      8     9      11
        // The first `br` waits for the outer `end`, so it resolves last.
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .block(BlockType::Empty)
            .br(1)
            .br(0)
            .end()
            .br(0)
            .end();
        let (m, f) = build(vec![], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        let offsets: Vec<u32> = t.branch_offsets().collect();
        assert_eq!(offsets, [4, 6, 9]);
        assert_eq!(t.branch(4).unwrap().target_ip, 11);
        assert_eq!(t.branch(6).unwrap().target_ip, 8);
        assert_eq!(t.branch(9).unwrap().target_ip, 11);
        assert!(t.branch(5).is_none() && t.br_table(4).is_none());
    }

    #[test]
    fn br_tables_share_one_entry_pool() {
        // block ; local.get 0 ; br_table [0] 0 ; end ; local.get 0 ; br_table [0 0] 0
        // 0       2             4                8     9             11
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .local_get(0)
            .br_table(&[0], 0)
            .end()
            .local_get(0)
            .br_table(&[0, 0], 0);
        let (m, f) = build(vec![ValueType::I32], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        let first: Vec<u32> = t.br_table(4).unwrap().iter().map(|e| e.target_ip).collect();
        let second: Vec<u32> = t.br_table(11).unwrap().iter().map(|e| e.target_ip).collect();
        assert_eq!(first, [8, 8]);
        assert_eq!(second, [16, 16, 16]);
        assert_eq!(t.len(), 5);
        assert!(t.br_table(8).is_none() && t.branch(4).is_none());
    }

    #[test]
    fn branch_to_function_label_targets_final_end() {
        let mut c = CodeBuilder::new();
        c.i32_const(3).br(0);
        let (m, f) = build(vec![], vec![ValueType::I32], c);
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 const, 1 imm, 2 br, 3 depth, 4 end
        let entry = t.branch(2).expect("br to function label");
        assert_eq!(entry.target_ip, 4);
        assert_eq!(entry.arity, 1);
        assert_eq!(entry.label_base, 0);
    }

    #[test]
    fn label_base_reflects_surrounding_operands() {
        // Push two values, then a block whose branches must preserve them.
        let mut c = CodeBuilder::new();
        c.i32_const(10)
            .i32_const(20)
            .block(BlockType::Empty)
            .br(0)
            .end()
            .op(Opcode::I32Add);
        let (m, f) = build(vec![], vec![ValueType::I32], c);
        let t = build_sidetable(&m, f).unwrap();
        // br is at offset 6 (const,imm, const,imm, block,bt, br).
        let entry = t.branch(6).expect("br entry");
        assert_eq!(entry.label_base, 2, "two operands below the block");
    }

    #[test]
    fn unreachable_code_does_not_break_construction() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .br(0)
            .op(Opcode::I32Add) // dead, operands would underflow if tracked naively
            .drop_()
            .end();
        let (m, f) = build(vec![], vec![], c);
        let t = build_sidetable(&m, f).unwrap();
        assert!(t.branch(2).is_some());
    }

    #[test]
    fn missing_function_is_an_error() {
        let (m, _) = build(vec![], vec![], CodeBuilder::new());
        let e = build_sidetable(&m, 99).unwrap_err();
        assert!(e.to_string().contains("no body"));
    }

    #[test]
    fn malformed_bodies_are_validation_errors_at_every_entry_point() {
        let block = [Opcode::Block.to_byte(), 0x40];
        let end = Opcode::End.to_byte();
        let mut truncated_br_table = CodeBuilder::new();
        truncated_br_table.block(BlockType::Empty).i32_const(0);
        let mut truncated_br_table = truncated_br_table.into_raw_bytes();
        // Five targets announced, one present.
        truncated_br_table.extend([Opcode::BrTable.to_byte(), 5, 0]);
        let mut deep_branch = CodeBuilder::new();
        deep_branch.block(BlockType::Empty).br(2).end();
        let mut stray_else = CodeBuilder::new();
        stray_else.block(BlockType::Empty).else_().end();
        let malformed: [(&str, Vec<u8>); 5] = [
            ("truncated br_table", truncated_br_table),
            ("branch depth past the nesting", deep_branch.finish()),
            ("else without if", stray_else.finish()),
            ("open constructs at the end of the body", [&block[..], &[end]].concat()),
            ("200 000 blocks left open", block.repeat(200_000)),
        ];
        for (what, code) in malformed {
            let mut b = ModuleBuilder::new();
            let f = b.add_func(FuncType::new(vec![], vec![]), vec![], code);
            let m = b.finish();
            let error = wasm::validate::validate(&m).expect_err(what);
            assert_eq!(error.func, Some(0), "{what}: {error}");
            assert_eq!(build_sidetable(&m, f).unwrap_err(), error, "{what}");
            // No validation, no `FuncInfo` for this body — and `prepare`
            // refuses one that came from anywhere else.
            let stale = wasm::validate::FuncInfo::default();
            assert!(crate::prepare(&m, f, &stale).is_err(), "{what}");
        }
    }

    #[test]
    fn deep_nesting_grows_a_vec_not_the_host_stack() {
        // 200 000 nested blocks, the innermost branching all the way out.
        let mut c = CodeBuilder::new();
        for _ in 0..200_000 {
            c.block(BlockType::Empty);
        }
        c.br(199_999);
        for _ in 0..200_000 {
            c.end();
        }
        let (m, f) = build(vec![], vec![], c);
        let info = wasm::validate::validate(&m).expect("valid");
        let t = build_sidetable(&m, f).unwrap();
        assert_eq!(t, info.funcs[0].sidetable);
        // 400 000 bytes of `block`, a three-byte depth, then the `end`s: the
        // branch lands on the last of them.
        let entry = t.branch(400_000).expect("the br");
        assert_eq!((entry.target_ip, entry.label_base, entry.arity), (400_000 + 4 + 199_999, 0, 0));
        let prepared = crate::prepare(&m, f, &info.funcs[0]).expect("prepares");
        assert!(Arc::ptr_eq(&prepared.sidetable, &info.funcs[0].sidetable), "shared, not copied");
        assert!(Arc::ptr_eq(&prepared.fuel, &info.funcs[0].fuel), "shared, not copied");
    }

    #[test]
    fn call_stack_effects_are_tracked() {
        let mut b = ModuleBuilder::new();
        let callee = {
            let mut c = CodeBuilder::new();
            c.i32_const(1).i32_const(2);
            b.add_func(
                FuncType::new(vec![], vec![ValueType::I32, ValueType::I32]),
                vec![],
                c.finish(),
            )
        };
        // call pushes two values; the block's branches must see label_base 2.
        let mut c = CodeBuilder::new();
        c.call(callee)
            .block(BlockType::Empty)
            .br(0)
            .end()
            .op(Opcode::I32Add);
        let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
        let m = b.finish();
        let t = build_sidetable(&m, f).unwrap();
        // Layout: 0 call,1 idx,2 block,3 bt,4 br,5 depth,...
        assert_eq!(t.branch(4).unwrap().label_base, 2);
    }
}
