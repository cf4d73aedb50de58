//! An instance's initial memory, globals and tables, built from its module.
//!
//! Instantiation spends its time in two places: compilation (amortized by the
//! [`crate::CodeCache`]) and *state initialization* — evaluating global
//! initializers, allocating linear memory and tables, and bounds-checking and
//! copying every data and element segment. [`MemoryImage::build`] is the one
//! implementation of the second half and of its error paths. It runs in the
//! engine's instance initializer, which a cold [`crate::Engine::instantiate`]
//! and a warm [`crate::InstancePool`] checkout share, so a recycled instance
//! starts from exactly the state a fresh one does.
//!
//! Nothing is snapshotted or copied back. Building sets the memory's size
//! and backs only the bytes the segments write (a linear memory is backed on
//! demand, [`machine::memory`]), so a cold instantiation allocates and zeroes
//! no declared page its module never touches. A warm checkout builds into
//! the recycled instance's previous memory ([`LinearMemory::recycle`]): the
//! prefix the last request backed is zeroed in place and stays backed, so
//! the next request's stores land in memory that is already there.

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

/// The mutable state instantiation produces: initialized linear memory,
/// globals, and tables, built from a module by [`MemoryImage::build`].
#[derive(Debug)]
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
        MemoryImage::build_reusing(module, limits, None)
    }

    /// [`MemoryImage::build`] for an instance being initialized again: the
    /// memory keeps `previous`'s allocation ([`LinearMemory::recycle`]).
    pub(crate) fn build_reusing(
        module: &Module,
        limits: &ResourceLimits,
        previous: Option<LinearMemory>,
    ) -> Result<MemoryImage, EngineError> {
        let mut memory = match (0..module.num_memories())
            .next()
            .and_then(|i| module.memory_type(i))
        {
            Some(m) => {
                let limits = clamp_limits(m.limits, limits.memory_pages, "memory pages")?;
                Some(match previous {
                    Some(previous) => previous.recycle(limits),
                    None => LinearMemory::new(limits),
                })
            }
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

    /// Consumes the image into its parts, in instance-field order: the
    /// instance initializer moves them straight into the instance.
    pub fn into_parts(self) -> (Option<LinearMemory>, Vec<GlobalSlot>, Vec<Table>) {
        (self.memory, self.globals, self.tables)
    }

    /// The built global values.
    pub fn globals(&self) -> &[GlobalSlot] {
        &self.globals
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
        assert_eq!(image.globals().len(), 1);
        assert_eq!(image.globals()[0].value(), WasmValue::I32(41));
        let (memory, _, tables) = image.into_parts();
        let mem = memory.expect("module declares memory");
        assert_eq!(mem.load(0, 0, 4).unwrap(), 0x04030201, "data segment applied");
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].get(0).unwrap(), Some(0), "element segment applied");
        assert_eq!(tables[0].get(1).unwrap(), None);
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
}
