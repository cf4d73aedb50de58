//! Design profiles reproducing the six baseline compilers of the paper's
//! Fig. 3.
//!
//! Each production engine is modelled as a configuration of the same
//! abstract-interpretation compiler — exactly the paper's observation that
//! all six are "variations on a basic abstract-interpretation approach". The
//! feature letters follow Fig. 3: `MR` multiple register allocation, `R`
//! register allocation, `K` constant tracking, `KF` constant folding, `ISEL`
//! instruction selection, `TAG` value tags, `MAP` stackmaps, `MV`
//! multi-value.
//!
//! Two things the table mentions are not axes here. Every profile allocates
//! registers (the compiler has no keep-everything-in-memory mode), so `R`
//! versus `MR` is decided by `multi_register` alone. And wasm-now's
//! copy-and-patch code generation is not modelled: its row differs from the
//! others only in the feature set above.

use crate::options::{CompilerOptions, ProbeMode, TagStrategy};

/// One row of the paper's Fig. 3.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineProfile {
    /// The engine name used in the paper (e.g. `"wizeng-spc"`).
    pub name: &'static str,
    /// Implementation language of the real engine (for the table).
    pub language: &'static str,
    /// Year the baseline tier appeared.
    pub year: u32,
    /// The compiler configuration reproducing the engine's feature set.
    pub options: CompilerOptions,
    /// Free-form description, mirroring the table's last column.
    pub description: &'static str,
}

impl BaselineProfile {
    /// The feature string in the paper's notation (e.g. `"MR K KF ISEL TAG MV"`).
    pub fn feature_string(&self) -> String {
        let o = &self.options;
        let mut parts = vec![if o.multi_register { "MR" } else { "R" }];
        if o.track_constants {
            parts.push("K");
        }
        if o.constant_folding {
            parts.push("KF");
        }
        if o.instruction_selection {
            parts.push("ISEL");
        }
        match o.tagging {
            TagStrategy::Stackmaps => parts.push("MAP"),
            t if t.uses_tags() => parts.push("TAG"),
            _ => {}
        }
        if o.multi_value {
            parts.push("MV");
        }
        parts.join(" ")
    }
}

/// `wizeng-spc`: the Wizard research engine's single-pass compiler
/// (this reproduction's default configuration).
pub fn wizard_spc() -> BaselineProfile {
    BaselineProfile {
        name: "wizeng-spc",
        language: "Virgil",
        year: 2023,
        options: CompilerOptions {
            name: "wizeng-spc".to_string(),
            ..CompilerOptions::allopt()
        },
        description: "The Wizard Research Engine's single-pass compiler.",
    }
}

/// `wazero`: an engine written in Go; register allocation only, lowers
/// through an internal representation first.
pub fn wazero() -> BaselineProfile {
    BaselineProfile {
        name: "wazero",
        language: "Go",
        year: 2022,
        options: CompilerOptions {
            name: "wazero".to_string(),
            multi_register: false,
            track_constants: false,
            constant_folding: false,
            instruction_selection: false,
            tagging: TagStrategy::None,
            multi_value: false,
            probe_mode: ProbeMode::Runtime,
            extra_lowering_pass: true,
            debug_metadata: false,
        },
        description: "An open-source engine written in Go.",
    }
}

/// `wasm-now`: a research copy-and-patch code generator (modelled by its
/// feature set only).
pub fn wasm_now() -> BaselineProfile {
    BaselineProfile {
        name: "wasm-now",
        language: "C++",
        year: 2022,
        options: CompilerOptions {
            name: "wasm-now".to_string(),
            multi_register: true,
            track_constants: true,
            constant_folding: false,
            instruction_selection: true,
            tagging: TagStrategy::None,
            multi_value: false,
            probe_mode: ProbeMode::Runtime,
            extra_lowering_pass: false,
            debug_metadata: false,
        },
        description: "A research project using Copy&Patch code generation.",
    }
}

/// `wasmer-base`: the `--singlepass` backend of wasmer.
pub fn wasmer_base() -> BaselineProfile {
    BaselineProfile {
        name: "wasmer-base",
        language: "Rust",
        year: 2020,
        options: CompilerOptions {
            name: "wasmer-base".to_string(),
            multi_register: false,
            track_constants: true,
            constant_folding: false,
            instruction_selection: false,
            tagging: TagStrategy::None,
            multi_value: true,
            probe_mode: ProbeMode::Runtime,
            extra_lowering_pass: false,
            debug_metadata: false,
        },
        description: "The --singlepass option of wasmer.",
    }
}

/// `v8-liftoff`: the baseline Wasm compiler in V8.
pub fn v8_liftoff() -> BaselineProfile {
    BaselineProfile {
        name: "v8-liftoff",
        language: "C++",
        year: 2018,
        options: CompilerOptions {
            name: "v8-liftoff".to_string(),
            multi_register: true,
            track_constants: true,
            constant_folding: false,
            instruction_selection: true,
            tagging: TagStrategy::Stackmaps,
            multi_value: true,
            probe_mode: ProbeMode::Runtime,
            extra_lowering_pass: false,
            debug_metadata: true,
        },
        description: "The baseline Wasm compiler in V8.",
    }
}

/// `sm-base`: the baseline Wasm compiler in SpiderMonkey.
pub fn sm_base() -> BaselineProfile {
    BaselineProfile {
        name: "sm-base",
        language: "C++",
        year: 2018,
        options: CompilerOptions {
            name: "sm-base".to_string(),
            multi_register: true,
            track_constants: true,
            constant_folding: false,
            instruction_selection: true,
            tagging: TagStrategy::Stackmaps,
            multi_value: true,
            probe_mode: ProbeMode::Runtime,
            extra_lowering_pass: false,
            debug_metadata: false,
        },
        description: "The baseline Wasm compiler in SpiderMonkey.",
    }
}

/// All six profiles in the paper's Fig. 3 order.
pub fn all_profiles() -> Vec<BaselineProfile> {
    vec![
        wizard_spc(),
        wazero(),
        wasm_now(),
        wasmer_base(),
        v8_liftoff(),
        sm_base(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_profiles_matching_figure3() {
        let profiles = all_profiles();
        assert_eq!(profiles.len(), 6);
        let by_name: std::collections::HashMap<_, _> =
            profiles.iter().map(|p| (p.name, p)).collect();
        assert_eq!(by_name["wizeng-spc"].feature_string(), "MR K KF ISEL TAG MV");
        assert_eq!(by_name["wazero"].feature_string(), "R");
        assert_eq!(by_name["wasm-now"].feature_string(), "MR K ISEL");
        assert_eq!(by_name["wasmer-base"].feature_string(), "R K MV");
        assert_eq!(by_name["v8-liftoff"].feature_string(), "MR K ISEL MAP MV");
        assert_eq!(by_name["sm-base"].feature_string(), "MR K ISEL MAP MV");
    }

    #[test]
    fn only_wizard_uses_value_tags() {
        for p in all_profiles() {
            if p.name == "wizeng-spc" {
                assert!(p.options.tagging.uses_tags());
            } else {
                assert!(!p.options.tagging.uses_tags(), "{}", p.name);
            }
        }
    }

    #[test]
    fn years_and_languages_match_the_table() {
        let profiles = all_profiles();
        assert_eq!(profiles[0].year, 2023);
        assert_eq!(profiles[1].language, "Go");
        assert_eq!(profiles[3].language, "Rust");
        assert!(profiles.iter().all(|p| !p.description.is_empty()));
    }
}
