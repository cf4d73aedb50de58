//! Profile-guided basic-block layout.
//!
//! The layout decides the linear order code is emitted in, which decides
//! which successor of every branch becomes the fall-through path. A greedy
//! depth-first walk from the entry follows, at every conditional branch, the
//! successor the [`FuncProfile`] says is more likely (collected by the
//! branch monitor while the function still ran in the lower tiers); without
//! an observation it follows the frontend's natural order, which reproduces
//! bytecode order. Hot paths therefore fall through and cold paths pay the
//! extra jumps.
//!
//! Only reachable blocks appear in the result, so folded branches and dead
//! merges vanish from the emitted code entirely.

use crate::ir::{BlockId, FuncIr, Terminator};
use interp::profile::FuncProfile;

/// Computes the emission order of `ir`'s reachable blocks, entry first.
pub fn layout(ir: &FuncIr, profile: &FuncProfile) -> Vec<BlockId> {
    let mut order = Vec::with_capacity(ir.blocks.len());
    let mut placed = vec![false; ir.blocks.len()];
    let mut stack = vec![ir.entry()];
    while let Some(b) = stack.pop() {
        if placed[b.index()] {
            continue;
        }
        placed[b.index()] = true;
        order.push(b);
        // Push successors so the preferred one is popped (placed) next.
        match &ir.blocks[b.index()].term {
            Terminator::Jump(e) => stack.push(e.target),
            Terminator::Branch {
                offset,
                natural_then,
                then_edge,
                else_edge,
                ..
            } => {
                // A profile observation overrides the frontend's natural
                // (bytecode) order.
                let prefer_then = profile.bias(*offset).unwrap_or(*natural_then);
                if prefer_then {
                    stack.push(else_edge.target);
                    stack.push(then_edge.target);
                } else {
                    stack.push(then_edge.target);
                    stack.push(else_edge.target);
                }
            }
            Terminator::BrTable {
                targets, default, ..
            } => {
                stack.push(default.target);
                for e in targets.iter().rev() {
                    stack.push(e.target);
                }
            }
            Terminator::Return(_) | Terminator::Trap { .. } => {}
        }
    }
    // OSR entry blocks have no in-graph predecessors — the walk above never
    // reaches them. Place them out of line at the end: they run once per
    // tier transfer, so they should never interrupt a fall-through path.
    for site in &ir.osr_sites {
        if !placed[site.entry.index()] {
            placed[site.entry.index()] = true;
            order.push(site.entry);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend;
    use spc::{ProbeMode, ProbeSites};
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::types::{BlockType, FuncType, ValueType};
    use wasm::validate::validate;

    fn branchy_ir() -> (FuncIr, u32) {
        // if (local 0) { 1 } else { 2 }  — the `if` is at a known offset.
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .if_(BlockType::Value(ValueType::I32))
            .i32_const(1)
            .else_()
            .i32_const(2)
            .end();
        let mut b = ModuleBuilder::new();
        let f = b.add_func(
            FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
            vec![],
            c.finish(),
        );
        let module = b.finish();
        let info = validate(&module).unwrap();
        let ir = frontend::build(
            &module,
            f,
            &info.funcs[0],
            &ProbeSites::none(),
            ProbeMode::Optimized,
            false,
            false,
        )
        .unwrap();
        // Bytecode layout: 0 local.get, 1 idx, 2 if.
        (ir, 2)
    }

    #[test]
    fn layout_covers_exactly_the_reachable_blocks() {
        let (ir, _) = branchy_ir();
        let order = layout(&ir, &FuncProfile::empty());
        let reach = ir.reachable();
        assert_eq!(order.len(), reach.iter().filter(|r| **r).count());
        assert_eq!(order[0], ir.entry());
        let unique: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(unique.len(), order.len());
    }

    #[test]
    fn profile_bias_flips_the_successor_order(
    ) {
        let (ir, if_offset) = branchy_ir();
        let (then_block, else_block) = match &ir.blocks[0].term {
            Terminator::Branch {
                then_edge,
                else_edge,
                ..
            } => (then_edge.target, else_edge.target),
            other => panic!("{other:?}"),
        };

        let mut taken = FuncProfile::empty();
        taken.record(if_offset, true, 100);
        let order = layout(&ir, &taken);
        let pos = |b: BlockId, order: &[BlockId]| order.iter().position(|x| *x == b).unwrap();
        assert!(pos(then_block, &order) < pos(else_block, &order));

        let mut not_taken = FuncProfile::empty();
        not_taken.record(if_offset, false, 100);
        let order = layout(&ir, &not_taken);
        assert!(pos(else_block, &order) < pos(then_block, &order));
    }
}
