//! The host garbage collector and root scanning.
//!
//! Wasm code can hold references to host objects (`externref`). The engine
//! must find every live reference when collecting; the paper contrasts two
//! strategies for locating roots in execution frames:
//!
//! * **value tags** — scan the value stack and treat every slot whose dynamic
//!   tag says "reference" as a root (Wizard's choice);
//! * **stackmaps** — consult per-call-site metadata emitted by the compiler
//!   describing which frame slots hold references.
//!
//! Both are implemented here and verified against each other by tests.

use crate::engine::Engine;
use crate::exec::Activation;
use crate::instance::Instance;
use machine::values::{ValueStack, ValueTag, NULL_REF_BITS};
use spc::CompiledFunction;
use std::collections::HashSet;

/// A host object living in the GC heap.
#[derive(Debug, Clone, PartialEq)]
pub struct HostObject {
    /// An arbitrary payload so tests can identify objects.
    pub payload: u64,
    /// References from this object to other heap objects (for transitive
    /// marking).
    pub children: Vec<u32>,
    marked: bool,
}

/// A simple mark-sweep heap of host objects addressed by `u32` handles.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    objects: Vec<Option<HostObject>>,
    live: usize,
    threshold: usize,
    collections: u64,
    total_freed: u64,
}

impl Heap {
    /// Creates an empty heap that requests collection after `threshold` live
    /// objects.
    pub fn with_threshold(threshold: usize) -> Heap {
        Heap {
            threshold,
            ..Heap::default()
        }
    }

    /// Allocates an object and returns its handle.
    pub fn alloc(&mut self, payload: u64) -> u32 {
        self.alloc_with_children(payload, Vec::new())
    }

    /// Allocates an object with outgoing references.
    pub(crate) fn alloc_with_children(&mut self, payload: u64, children: Vec<u32>) -> u32 {
        let obj = HostObject {
            payload,
            children,
            marked: false,
        };
        self.live += 1;
        for (i, slot) in self.objects.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(obj);
                return i as u32;
            }
        }
        self.objects.push(Some(obj));
        (self.objects.len() - 1) as u32
    }

    /// Reads an object by handle.
    pub fn get(&self, handle: u32) -> Option<&HostObject> {
        self.objects.get(handle as usize).and_then(|o| o.as_ref())
    }

    /// The number of live objects.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// The number of collections performed so far.
    pub fn collections(&self) -> u64 {
        self.collections
    }

    /// Total objects freed over the heap's lifetime.
    pub fn total_freed(&self) -> u64 {
        self.total_freed
    }

    /// True if a collection should be triggered at the next safe point.
    pub(crate) fn should_collect(&self) -> bool {
        self.threshold > 0 && self.live >= self.threshold
    }

    /// Mark-sweep collection from the given roots. Returns the number of
    /// objects freed.
    pub fn collect(&mut self, roots: &[u32]) -> usize {
        for obj in self.objects.iter_mut().flatten() {
            obj.marked = false;
        }
        // Mark.
        let mut worklist: Vec<u32> = roots.to_vec();
        while let Some(handle) = worklist.pop() {
            let children = match self.objects.get_mut(handle as usize).and_then(|o| o.as_mut()) {
                Some(obj) if !obj.marked => {
                    obj.marked = true;
                    obj.children.clone()
                }
                _ => continue,
            };
            worklist.extend(children);
        }
        // Sweep.
        let mut freed = 0;
        for slot in &mut self.objects {
            if let Some(obj) = slot {
                if !obj.marked {
                    *slot = None;
                    freed += 1;
                }
            }
        }
        self.live -= freed;
        self.total_freed += freed as u64;
        self.collections += 1;
        freed
    }
}

/// Scans the live region of the value stack for reference roots using value
/// tags (Wizard's strategy). Invalid or null handles are ignored.
pub(crate) fn scan_roots_via_tags(values: &ValueStack) -> Vec<u32> {
    let mut roots = Vec::new();
    let mut seen = HashSet::new();
    for (_, bits, tag) in values.iter_live() {
        if tag == ValueTag::Ref && bits != NULL_REF_BITS {
            let handle = bits as u32;
            if seen.insert(handle) {
                roots.push(handle);
            }
        }
    }
    roots
}

/// A frame of JIT code paused at a call site, for stackmap-based scanning.
#[derive(Debug, Clone, Copy)]
pub struct StackmapFrame<'a> {
    /// The compiled function executing in this frame.
    pub compiled: &'a CompiledFunction,
    /// The frame's base slot in the value stack.
    pub frame_base: usize,
    /// The instruction index of the call the frame is paused at.
    pub call_inst_index: usize,
}

/// Scans roots using the per-call-site stackmaps of paused JIT frames
/// (the strategy of v8-liftoff and sm-base).
pub(crate) fn scan_roots_via_stackmaps(values: &ValueStack, frames: &[StackmapFrame]) -> Vec<u32> {
    let mut roots = Vec::new();
    let mut seen = HashSet::new();
    for frame in frames {
        if let Some(map) = frame.compiled.stackmaps.lookup(frame.call_inst_index) {
            for &slot in &map.ref_slots {
                let bits = values.read(frame.frame_base + slot as usize);
                if bits != NULL_REF_BITS {
                    let handle = bits as u32;
                    if seen.insert(handle) {
                        roots.push(handle);
                    }
                }
            }
        }
    }
    roots
}

impl Engine {
    /// Collects the instance's heap if it asks to be, from the roots held by
    /// the live activations `stack` and the globals.
    pub(crate) fn maybe_collect(&self, instance: &mut Instance, stack: &[Activation]) {
        if instance.heap.should_collect() {
            let roots = self.collect_roots(instance, stack);
            instance.heap.collect(&roots);
        }
    }

    fn collect_roots(&self, instance: &Instance, stack: &[Activation]) -> Vec<u32> {
        // Tagged slots (interpreter frames, optimizing-tier frames and every
        // frame of a tagging configuration) and globals are always scanned.
        let mut roots = scan_roots_via_tags(&instance.values);
        let globals = instance.globals.iter().filter(|g| g.tag == ValueTag::Ref);
        roots.extend(globals.filter(|g| g.bits != NULL_REF_BITS).map(|g| g.bits as u32));
        if self.0.config.baseline_options().is_some_and(|o| o.tagging.uses_stackmaps()) {
            // Each JIT frame is paused at its call site. Optimizing-tier
            // frames publish their references through tagged slots instead;
            // their (empty) tables contribute nothing here.
            let frames: Vec<StackmapFrame> = stack
                .iter()
                .filter_map(|act| {
                    let tier = act.tier.jit_tier()?;
                    Some(StackmapFrame {
                        compiled: instance.artifact.code_for(act.defined_index, tier)?,
                        frame_base: act.frame_base,
                        call_inst_index: act.site,
                    })
                })
                .collect();
            roots.extend(scan_roots_via_stackmaps(&instance.values, &frames));
        }
        roots.sort_unstable();
        roots.dedup();
        roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::values::WasmValue;

    #[test]
    fn alloc_and_collect_unreachable() {
        let mut heap = Heap::with_threshold(100);
        let a = heap.alloc(1);
        let b = heap.alloc(2);
        let c = heap.alloc_with_children(3, vec![a]);
        assert_eq!(heap.live_count(), 3);

        // Only `c` is a root; it keeps `a` alive transitively, `b` dies.
        let freed = heap.collect(&[c]);
        assert_eq!(freed, 1);
        assert!(heap.get(a).is_some());
        assert!(heap.get(b).is_none());
        assert!(heap.get(c).is_some());
        assert_eq!(heap.get(a).unwrap().payload, 1);
        assert_eq!(heap.collections(), 1);
        assert_eq!(heap.total_freed(), 1);
    }

    #[test]
    fn handles_are_reused_after_collection() {
        let mut heap = Heap::with_threshold(0);
        let a = heap.alloc(1);
        heap.collect(&[]);
        assert!(heap.get(a).is_none());
        let b = heap.alloc(2);
        assert_eq!(a, b, "freed slot is reused");
        assert_eq!(heap.live_count(), 1);
    }

    #[test]
    fn collection_threshold() {
        let mut heap = Heap::with_threshold(2);
        assert!(!heap.should_collect());
        heap.alloc(1);
        assert!(!heap.should_collect());
        heap.alloc(2);
        assert!(heap.should_collect());
        let h = Heap::with_threshold(0);
        assert!(!h.should_collect(), "zero threshold disables auto collection");
    }

    #[test]
    fn cyclic_references_are_collected_together() {
        let mut heap = Heap::with_threshold(100);
        let a = heap.alloc(1);
        let b = heap.alloc_with_children(2, vec![a]);
        // Make a cycle: a -> b as well.
        if let Some(slot) = heap.objects.get_mut(a as usize).and_then(|o| o.as_mut()) {
            slot.children.push(b);
        }
        let freed = heap.collect(&[a]);
        assert_eq!(freed, 0, "cycle reachable from a root survives");
        let freed = heap.collect(&[]);
        assert_eq!(freed, 2, "unreachable cycle is collected");
    }

    #[test]
    fn tag_scanning_finds_refs_and_ignores_nulls() {
        let mut vs = ValueStack::with_capacity(16);
        vs.push(WasmValue::I32(5));
        vs.push(WasmValue::ExternRef(Some(7)));
        vs.push(WasmValue::ExternRef(None));
        vs.push(WasmValue::I64(7)); // same bits as the handle but not a ref
        vs.push(WasmValue::ExternRef(Some(7))); // duplicate handle
        vs.push(WasmValue::FuncRef(Some(3))); // funcref is not a GC root
        let roots = scan_roots_via_tags(&vs);
        assert_eq!(roots, vec![7]);
    }

    #[test]
    fn invalid_handles_do_not_break_collection() {
        let mut heap = Heap::with_threshold(100);
        let a = heap.alloc(1);
        let freed = heap.collect(&[a, 999]);
        assert_eq!(freed, 0);
        assert!(heap.get(a).is_some());
    }
}
