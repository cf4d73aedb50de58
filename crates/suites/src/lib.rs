//! Synthetic benchmark suites modelled after the three suites of the paper's
//! evaluation: PolyBenchC (numerical kernels), Libsodium (cryptographic
//! primitives), and Ostrich (mixed numerical/graph kernels).
//!
//! Each suite produces the same number of line items as the paper (28, 39,
//! and 11 respectively). Line items are genuine Wasm modules built through
//! the `wasm` crate's builder, with instruction mixes chosen to match the
//! character of the original suite; see DESIGN.md for the substitution
//! argument. Every module exports `main: [] -> [i32]` returning a checksum,
//! which the differential tests compare exactly across execution tiers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod libsodium;
pub mod ostrich;
pub mod polybench;

pub use kernels::Scale;
use wasm::Module;

/// One benchmark line item: a named module belonging to a suite.
#[derive(Debug, Clone)]
pub struct BenchmarkItem {
    /// The suite this item belongs to (`"polybench"`, `"libsodium"`,
    /// `"ostrich"`).
    pub suite: &'static str,
    /// The line-item name (e.g. `"gemm"`).
    pub name: String,
    /// The generated module.
    pub module: Module,
}

impl BenchmarkItem {
    /// The exported entry point every item provides.
    pub const ENTRY: &'static str = "main";

    /// The size of this item's module in binary-format bytes.
    pub fn encoded_size(&self) -> usize {
        wasm::encode::encode(&self.module).len()
    }
}

/// A named suite of line items.
#[derive(Debug, Clone)]
pub struct Suite {
    /// The suite name.
    pub name: &'static str,
    /// The line items, in a stable order.
    pub items: Vec<BenchmarkItem>,
}

impl Suite {
    /// Number of line items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the suite has no items (never the case for the built-ins).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Builds all three suites at the given scale. The paper's line-item counts
/// are preserved: 28 + 39 + 11 = 78 items.
pub fn all_suites(scale: Scale) -> Vec<Suite> {
    vec![
        polybench::suite(scale),
        libsodium::suite(scale),
        ostrich::suite(scale),
    ]
}

/// The smallest possible module used to measure pure VM startup time
/// (the paper's `Mnop`): a single exported function that immediately returns.
pub fn nop_module() -> Module {
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::types::FuncType;
    let mut b = ModuleBuilder::new();
    let f = b.add_func(FuncType::new(vec![], vec![]), vec![], CodeBuilder::new().finish());
    b.export_func("main", f);
    b.finish()
}

/// Derives the paper's `m0` from a line item: the same module with an early
/// return inserted at the start of its entry function, so it undergoes the
/// same loading and compilation but executes almost nothing.
pub fn early_return_variant(module: &Module) -> Module {
    use wasm::opcode::Opcode;
    let mut m = module.clone();
    if let Some(entry) = m.exported_func("main") {
        let defined = (entry - m.num_imported_funcs()) as usize;
        if let Some(decl) = m.make_mut().funcs.get_mut(defined) {
            // Prepend `i32.const 0; return` (the entry returns i32).
            let mut code = vec![Opcode::I32Const.to_byte(), 0x00, Opcode::Return.to_byte()];
            code.extend_from_slice(&decl.code);
            decl.code = code;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm::validate::validate;

    #[test]
    fn suite_sizes_match_the_paper() {
        let suites = all_suites(Scale::Test);
        assert_eq!(suites.len(), 3);
        assert_eq!(suites[0].name, "polybench");
        assert_eq!(suites[0].len(), 28);
        assert_eq!(suites[1].name, "libsodium");
        assert_eq!(suites[1].len(), 39);
        assert_eq!(suites[2].name, "ostrich");
        assert_eq!(suites[2].len(), 11);
        let total: usize = suites.iter().map(|s| s.len()).sum();
        assert_eq!(total, 78);
    }

    #[test]
    fn every_item_validates_and_exports_main() {
        for suite in all_suites(Scale::Test) {
            for item in &suite.items {
                validate(&item.module).unwrap_or_else(|e| panic!("{}/{}: {e}", suite.name, item.name));
                assert!(item.module.exported_func(BenchmarkItem::ENTRY).is_some());
                assert!(item.encoded_size() > 100, "{} is non-trivial", item.name);
                assert!(!suite.is_empty());
            }
        }
    }

    #[test]
    fn item_names_are_unique_within_each_suite() {
        for suite in all_suites(Scale::Test) {
            let mut names: Vec<_> = suite.items.iter().map(|i| i.name.clone()).collect();
            let before = names.len();
            names.sort();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate names in {}", suite.name);
        }
    }

    #[test]
    fn nop_module_is_tiny_and_valid() {
        let m = nop_module();
        validate(&m).unwrap();
        let size = wasm::encode::encode(&m).len();
        assert!(size < 128, "Mnop should be tiny, got {size} bytes");
    }

    #[test]
    fn early_return_variant_still_validates() {
        let item = &polybench::suite(Scale::Test).items[0];
        let m0 = early_return_variant(&item.module);
        validate(&m0).expect("m0 validates");
        assert_eq!(m0.total_code_bytes(), item.module.total_code_bytes() + 3);
    }
}
