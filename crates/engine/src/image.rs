//! Pre-initialized instance state: build once, restore by memcpy.
//!
//! Instantiation spends its time in two places: compilation (already amortized
//! by the [`crate::CodeCache`]) and *state initialization* — evaluating global
//! initializers, allocating linear memory and tables, and bounds-checking and
//! copying every data and element segment. A serving workload that
//! instantiates the same module thousands of times per second re-runs that
//! initialization with identical inputs and identical results every time.
//!
//! A [`MemoryImage`] is the snapshot that breaks the cycle. [`MemoryImage::build`]
//! performs the full initialization once (this is also the code path cold
//! instantiation uses — there is exactly one implementation of segment
//! initialization and its error paths). [`MemoryImage::capture`] snapshots a
//! live instance's mutable state after instantiation, and
//! [`MemoryImage::restore_into`] rewinds an instance to that snapshot with a
//! `resize` (usually a no-op) plus a `memcpy` per memory/table — no
//! validation, no constant evaluation, no per-segment bounds checks.
//!
//! The [`crate::pool::InstancePool`] composes this with the code cache: a warm
//! checkout is "reset the pooled instance from the image", which the
//! pool-reset differential tests prove equivalent to a fresh cold
//! instantiation, traps included.

use crate::config::ResourceLimits;
use crate::engine::EngineError;
use machine::memory::{LinearMemory, Table};
use machine::values::{GlobalSlot, WasmValue};
use wasm::module::{ConstExpr, Module};
use wasm::types::Limits;

/// Clamps a module-declared limit against an optional tenant ceiling: a
/// declared minimum above the ceiling fails instantiation, and the effective
/// maximum becomes the smaller of the declared maximum and the ceiling.
fn clamp_limits(declared: Limits, ceiling: Option<u32>, what: &str) -> Result<Limits, EngineError> {
    let Some(cap) = ceiling else {
        return Ok(declared);
    };
    if declared.min > cap {
        return Err(EngineError::Instantiate(format!(
            "declared {what} minimum ({}) exceeds the tenant limit ({cap})",
            declared.min
        )));
    }
    Ok(Limits {
        min: declared.min,
        max: Some(declared.max.map_or(cap, |m| m.min(cap))),
    })
}

/// Evaluates a constant expression against the globals initialized so far.
pub(crate) fn eval_const(expr: &ConstExpr, globals: &[GlobalSlot]) -> WasmValue {
    match *expr {
        ConstExpr::I32(v) => WasmValue::I32(v),
        ConstExpr::I64(v) => WasmValue::I64(v),
        ConstExpr::F32(v) => WasmValue::F32(v),
        ConstExpr::F64(v) => WasmValue::F64(v),
        ConstExpr::RefNull(t) => WasmValue::default_for(t),
        ConstExpr::RefFunc(f) => WasmValue::FuncRef(Some(f)),
        ConstExpr::GlobalGet(i) => globals
            .get(i as usize)
            .map(|g| g.value())
            .unwrap_or(WasmValue::I32(0)),
    }
}

/// The shared shape of the two segment kinds' failure modes, so data and
/// element segments report errors through one path instead of two
/// hand-rolled `format!` blocks.
fn segment_error(kind: &str, index: usize, problem: &str) -> EngineError {
    EngineError::Instantiate(format!("{kind} segment {index} {problem}"))
}

/// A snapshot of the mutable state instantiation produces: initialized
/// linear memory, globals, and tables.
///
/// Built from a module ([`MemoryImage::build`]) or captured from a live
/// instance ([`MemoryImage::capture`]); restored into an instance in place
/// ([`MemoryImage::restore_into`]).
#[derive(Debug, Clone)]
pub struct MemoryImage {
    memory: Option<LinearMemory>,
    globals: Vec<GlobalSlot>,
    tables: Vec<Table>,
}

impl MemoryImage {
    /// Runs the full state-initialization half of instantiation: evaluates
    /// global initializers, allocates the (tenant-clamped) memory and
    /// tables, and applies every data and element segment with bounds
    /// checks.
    ///
    /// # Errors
    ///
    /// Returns an error if a declared minimum exceeds a tenant ceiling, a
    /// segment falls out of bounds, a data segment targets a module without
    /// memory, or an element segment names a missing table.
    pub fn build(module: &Module, limits: &ResourceLimits) -> Result<MemoryImage, EngineError> {
        let mut memory = match (0..module.num_memories())
            .next()
            .and_then(|i| module.memory_type(i))
        {
            Some(m) => Some(LinearMemory::new(clamp_limits(
                m.limits,
                limits.memory_pages,
                "memory pages",
            )?)),
            None => None,
        };

        let mut globals: Vec<GlobalSlot> = Vec::new();
        for i in 0..module.num_globals() {
            let ty = module
                .global_type(i)
                .ok_or_else(|| EngineError::Instantiate("unknown global".to_string()))?;
            let defined = i.checked_sub(module.num_imported_globals());
            let value = match defined.and_then(|d| module.globals.get(d as usize)) {
                Some(g) => eval_const(&g.init, &globals),
                None => WasmValue::default_for(ty.value_type),
            };
            globals.push(GlobalSlot::from_value(value));
        }

        let mut tables: Vec<Table> = Vec::new();
        for t in (0..module.num_tables()).filter_map(|i| module.table_type(i)) {
            tables.push(Table::new(clamp_limits(
                t.limits,
                limits.table_elements,
                "table elements",
            )?));
        }

        // Validation holds every segment offset to a constant expression of
        // type i32 (`wasm::validate`'s segment-offset rule), so neither
        // `unwrap_i32` below can see another type.
        for (i, d) in module.data.iter().enumerate() {
            let offset = eval_const(&d.offset, &globals).unwrap_i32() as u32;
            let mem = memory
                .as_mut()
                .ok_or_else(|| segment_error("data", i, "targets a module without memory"))?;
            mem.init(offset, &d.bytes)
                .map_err(|_| segment_error("data", i, "out of bounds"))?;
        }
        for (i, e) in module.elems.iter().enumerate() {
            let offset = eval_const(&e.offset, &globals).unwrap_i32() as u32;
            let table = tables
                .get_mut(e.table_index as usize)
                .ok_or_else(|| segment_error("element", i, "has no table"))?;
            table
                .init(offset, &e.func_indices)
                .map_err(|_| segment_error("element", i, "out of bounds"))?;
        }
        Ok(MemoryImage {
            memory,
            globals,
            tables,
        })
    }

    /// Snapshots a live instance's mutable state (memory contents, global
    /// values, table entries) as an image to restore later.
    pub fn capture(
        memory: Option<&LinearMemory>,
        globals: &[GlobalSlot],
        tables: &[Table],
    ) -> MemoryImage {
        MemoryImage {
            memory: memory.cloned(),
            globals: globals.to_vec(),
            tables: tables.to_vec(),
        }
    }

    /// Rewinds instance state to this image in place, reusing existing
    /// allocations: memory and tables are `resize` + `memcpy`, globals are a
    /// slice copy. This is the warm-instantiation fast path.
    pub fn restore_into(
        &self,
        memory: &mut Option<LinearMemory>,
        globals: &mut Vec<GlobalSlot>,
        tables: &mut Vec<Table>,
    ) {
        match (memory.as_mut(), &self.memory) {
            (Some(dst), Some(src)) => dst.reset_from(src),
            (None, None) => {}
            // Shape mismatches only happen when restoring across modules;
            // fall back to a clone so the result is still the image.
            _ => *memory = self.memory.clone(),
        }
        if globals.len() == self.globals.len() {
            globals.copy_from_slice(&self.globals);
        } else {
            globals.clone_from(&self.globals);
        }
        if tables.len() == self.tables.len() {
            for (dst, src) in tables.iter_mut().zip(&self.tables) {
                dst.reset_from(src);
            }
        } else {
            tables.clone_from(&self.tables);
        }
    }

    /// Consumes the image into its parts, in instance-field order. Cold
    /// instantiation builds an image and moves the parts straight into the
    /// new instance.
    pub fn into_parts(self) -> (Option<LinearMemory>, Vec<GlobalSlot>, Vec<Table>) {
        (self.memory, self.globals, self.tables)
    }

    /// The snapshot's linear memory, if the module declares one.
    pub fn memory(&self) -> Option<&LinearMemory> {
        self.memory.as_ref()
    }

    /// The snapshot's global values.
    pub fn globals(&self) -> &[GlobalSlot] {
        &self.globals
    }

    /// The snapshot's tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::types::{FuncType, GlobalType, Limits, ValueType};

    /// A module with one page of memory, a data segment, a mutable global,
    /// and a table with one element pointing at `main`.
    fn imaged_module() -> Module {
        let mut b = ModuleBuilder::new();
        b.add_memory(Limits::bounded(1, 4));
        b.add_data(0, ConstExpr::I32(0), vec![0x01, 0x02, 0x03, 0x04]);
        b.add_global(
            GlobalType {
                value_type: ValueType::I32,
                mutable: true,
            },
            ConstExpr::I32(41),
        );
        let mut c = CodeBuilder::new();
        c.i32_const(7);
        let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
        b.add_table(ValueType::FuncRef, Limits::bounded(2, 2));
        b.add_elem(0, ConstExpr::I32(0), vec![f]);
        b.export_func("main", f);
        b.finish()
    }

    #[test]
    fn build_initializes_memory_globals_tables() {
        let module = imaged_module();
        let image = MemoryImage::build(&module, &ResourceLimits::unlimited()).unwrap();
        let mem = image.memory().expect("module declares memory");
        assert_eq!(mem.load(0, 0, 4).unwrap(), 0x04030201, "data segment applied");
        assert_eq!(image.globals().len(), 1);
        assert_eq!(image.globals()[0].value(), WasmValue::I32(41));
        assert_eq!(image.tables().len(), 1);
        assert_eq!(image.tables()[0].get(0).unwrap(), Some(0), "element segment applied");
        assert_eq!(image.tables()[0].get(1).unwrap(), None);
    }

    #[test]
    fn build_reports_segment_errors_through_one_path() {
        // Data segment past the end of the single page.
        let mut b = ModuleBuilder::new();
        b.add_memory(Limits::at_least(1));
        b.add_data(0, ConstExpr::I32(65_535), vec![0xAA, 0xBB]);
        let err = MemoryImage::build(&b.finish(), &ResourceLimits::unlimited()).unwrap_err();
        assert!(err.to_string().contains("data segment 0 out of bounds"), "{err}");

        // Data segment with no memory at all.
        let mut b = ModuleBuilder::new();
        b.add_data(0, ConstExpr::I32(0), vec![0xAA]);
        let err = MemoryImage::build(&b.finish(), &ResourceLimits::unlimited()).unwrap_err();
        assert!(
            err.to_string().contains("data segment 0 targets a module without memory"),
            "{err}"
        );

        // Tenant ceiling below the declared minimum.
        let mut b = ModuleBuilder::new();
        b.add_memory(Limits::at_least(8));
        let limits = ResourceLimits {
            memory_pages: Some(2),
            table_elements: None,
            call_depth: None,
        };
        let err = MemoryImage::build(&b.finish(), &limits).unwrap_err();
        assert!(err.to_string().contains("exceeds the tenant limit"), "{err}");
    }

    #[test]
    fn capture_restore_round_trips_dirty_state() {
        let module = imaged_module();
        let image = MemoryImage::build(&module, &ResourceLimits::unlimited()).unwrap();
        let (mut memory, mut globals, mut tables) = image.clone().into_parts();

        // Dirty everything an execution could touch.
        memory.as_mut().unwrap().store(16, 0, 8, u64::MAX).unwrap();
        memory.as_mut().unwrap().grow(2);
        globals[0] = GlobalSlot::from_value(WasmValue::I32(-5));
        tables[0].set(1, Some(0)).unwrap();

        image.restore_into(&mut memory, &mut globals, &mut tables);
        let mem = memory.as_ref().unwrap();
        assert_eq!(mem.bytes(), image.memory().unwrap().bytes());
        assert_eq!(mem.size_pages(), 1, "growth rolled back");
        assert_eq!(globals[0].value(), WasmValue::I32(41));
        assert_eq!(tables[0].get(1).unwrap(), None);
    }

    #[test]
    fn restore_into_handles_shape_mismatches_by_cloning() {
        let module = imaged_module();
        let image = MemoryImage::build(&module, &ResourceLimits::unlimited()).unwrap();
        let mut memory = None;
        let mut globals = Vec::new();
        let mut tables = Vec::new();
        image.restore_into(&mut memory, &mut globals, &mut tables);
        assert_eq!(memory.unwrap().bytes(), image.memory().unwrap().bytes());
        assert_eq!(globals.len(), 1);
        assert_eq!(tables.len(), 1);
    }
}
