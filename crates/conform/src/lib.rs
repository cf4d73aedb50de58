//! The conformance subsystem: spec-style assertion scripts, a multi-config
//! runner, and opcode-coverage accounting.
//!
//! The paper's baseline compiler lives inside a production engine whose
//! correctness is anchored by the upstream specification test suite; this
//! crate is that anchor for the reproduction. A checked-in corpus of
//! wast-style scripts (`scripts/*.wast`) exercises arithmetic edge cases,
//! control flow, memory, globals, and calls, and every assertion runs under
//! **every** execution configuration ([`runner::all_configs`]): the
//! interpreter, the baseline compiler eager and lazy, the tiered engine and
//! the three-tier engine with the optimizing compiler. A shared decoder/validator/
//! semantics bug can no longer hide behind tiers agreeing with each other —
//! the scripts state the expected values and trap causes independently.
//!
//! * [`script`] — the wast command parser (`module`, `invoke`,
//!   `assert_return`, `assert_trap`, `assert_invalid`, `assert_malformed`),
//!   built on the WAT frontend's s-expression parser;
//! * [`runner`] — executes a script under an [`engine::EngineConfig`],
//!   matching traps via [`machine::inst::TrapCode`] and floats bit-exactly (with
//!   `nan:canonical`/`nan:arithmetic` patterns);
//! * [`coverage`] — the exhaustive every-opcode module and census that make
//!   the differential fuzzer's coverage claim provable.
//!
//! # Examples
//!
//! ```
//! let script = conform::script::parse_script(
//!     "demo",
//!     r#"(module (func (export "neg") (param i32) (result i32)
//!           i32.const 0
//!           local.get 0
//!           i32.sub))
//!        (assert_return (invoke "neg" (i32.const 7)) (i32.const -7))"#,
//! ).unwrap();
//! for config in conform::runner::all_configs() {
//!     let outcome = conform::runner::run_script(&script, &config);
//!     assert!(outcome.is_pass(), "{:?}", outcome.failures);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod runner;
pub mod script;

pub use runner::{all_configs, run_script, run_script_mutated, Outcome};
pub use script::{parse_script, Command, Script};

use std::path::PathBuf;

/// The directory holding the checked-in conformance corpus.
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scripts")
}

/// Loads and parses every `.wast` script in the corpus, sorted by name.
///
/// # Panics
///
/// Panics if the corpus directory is missing or a script fails to parse —
/// both are build defects, not runtime conditions.
pub fn load_corpus() -> Vec<Script> {
    let dir = corpus_dir();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus directory {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "wast"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("script")
                .to_string();
            let src = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
            script::parse_script(&name, &src)
                .unwrap_or_else(|e| panic!("{}: {}", path.display(), e.describe(&src)))
        })
        .collect()
}
