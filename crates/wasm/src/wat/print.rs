//! Printing a [`Module`] back to canonical WAT text.
//!
//! The printer emits a flat (non-folded) form designed so that re-parsing its
//! output re-encodes **byte-identically**: every type is printed explicitly
//! and referenced by index, every local group becomes its own `(local …)`
//! field, float constants use the exact hex-float / `nan:0x…` literals from
//! [`super::num`], and memory arguments print their alignment only when it
//! differs from the natural one (mirroring the parser's defaults). Custom
//! sections have no text representation and are skipped — except the `name`
//! section, which prints back as the `$identifiers` it was lowered from
//! (function, parameter, and local names), so named modules round-trip
//! byte-identically too. A name section the text format cannot express
//! (names that are not valid WAT ids, duplicates, or names attached to
//! multi-local groups of a binary-built module) is left out wholesale rather
//! than printed partially, keeping the printer's output deterministic.

use super::lexer::escape_string;
use super::num;
use crate::module::{ConstExpr, Module};
use crate::names::NameSection;
use crate::opcode::Opcode;
use crate::reader::{BytecodeReader, Imm, Instr};
use crate::types::{BlockType, ExternalKind, FuncType, GlobalType, Limits, ValueType};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Prints a module as WAT text.
pub fn print_module(m: &Module) -> String {
    let names = expressible_names(m);
    let mut out = String::new();
    match names.as_ref().and_then(|n| n.module.as_deref()) {
        Some(id) => out.push_str(&format!("(module ${id}\n")),
        None => out.push_str("(module\n"),
    }
    for ty in &m.types {
        let _ = writeln!(out, "  (type (func{}))", signature(ty));
    }
    let mut func_imports = 0u32;
    for import in &m.imports {
        let desc = match &import.kind {
            crate::module::ImportKind::Func(t) => {
                let id = names
                    .as_ref()
                    .and_then(|n| n.func_name(func_imports))
                    .map(|n| format!("${n} "))
                    .unwrap_or_default();
                func_imports += 1;
                format!("(func {id}(type {t}))")
            }
            crate::module::ImportKind::Table(t) => {
                format!("(table {} {})", limits(&t.limits), ref_type(t.element))
            }
            crate::module::ImportKind::Memory(t) => format!("(memory {})", limits(&t.limits)),
            crate::module::ImportKind::Global(t) => format!("(global {})", global_type(t)),
        };
        let _ = writeln!(
            out,
            "  (import \"{}\" \"{}\" {desc})",
            escape_string(import.module.as_bytes()),
            escape_string(import.name.as_bytes()),
        );
    }
    for table in &m.tables {
        let _ = writeln!(out, "  (table {} {})", limits(&table.limits), ref_type(table.element));
    }
    for memory in &m.memories {
        let _ = writeln!(out, "  (memory {})", limits(&memory.limits));
    }
    for global in &m.globals {
        let _ = writeln!(
            out,
            "  (global {} {})",
            global_type(&global.ty),
            const_expr(&global.init)
        );
    }
    let num_imported = m.num_imported_funcs();
    for (defined, func) in m.funcs.iter().enumerate() {
        let func_index = num_imported + defined as u32;
        let id = names
            .as_ref()
            .and_then(|n| n.func_name(func_index))
            .map(|n| format!("${n} "))
            .unwrap_or_default();
        let sig = m.types.get(func.type_index as usize);
        let num_params = sig.map(|s| s.params.len() as u32).unwrap_or(0);
        // A named parameter forces the full inline signature (the text format
        // has nowhere else to put the name); the parser checks it against the
        // `(type N)` reference, which holds since it is printed *from* it.
        let any_param_named = names.as_ref().is_some_and(|n| {
            (0..num_params).any(|i| n.local_name(func_index, i).is_some())
        });
        let inline = match (any_param_named, sig) {
            (true, Some(sig)) => {
                named_signature(sig, |i| {
                    names.as_ref().and_then(|n| n.local_name(func_index, i))
                })
            }
            _ => String::new(),
        };
        let _ = writeln!(out, "  (func {id}(type {}){inline}", func.type_index);
        let mut next_local = num_params;
        for &(count, ty) in &func.locals {
            let name = (count == 1)
                .then(|| names.as_ref().and_then(|n| n.local_name(func_index, next_local)))
                .flatten();
            match name {
                Some(n) => {
                    let _ = writeln!(out, "    (local ${n} {})", ty.mnemonic());
                }
                None => {
                    let types = vec![ty.mnemonic(); count as usize].join(" ");
                    let _ = writeln!(out, "    (local {types})");
                }
            }
            next_local += count;
        }
        print_body(&mut out, &func.code);
        out.push_str("  )\n");
    }
    for export in &m.exports {
        let kind = match export.kind {
            ExternalKind::Func => "func",
            ExternalKind::Table => "table",
            ExternalKind::Memory => "memory",
            ExternalKind::Global => "global",
        };
        let _ = writeln!(
            out,
            "  (export \"{}\" ({kind} {}))",
            escape_string(export.name.as_bytes()),
            export.index
        );
    }
    if let Some(start) = m.start {
        let _ = writeln!(out, "  (start {start})");
    }
    for elem in &m.elems {
        let funcs = elem
            .func_indices
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let sep = if funcs.is_empty() { "" } else { " " };
        let _ = writeln!(
            out,
            "  (elem (table {}) (offset {}) func{sep}{funcs})",
            elem.table_index,
            const_expr(&elem.offset)
        );
    }
    for data in &m.data {
        let _ = writeln!(
            out,
            "  (data (memory {}) (offset {}) \"{}\")",
            data.memory_index,
            const_expr(&data.offset),
            escape_string(&data.bytes)
        );
    }
    out.push_str(")\n");
    out
}

/// Disassembles body bytecode into flat instructions, indenting nested
/// structured constructs. The terminating `end` of the body is not printed —
/// the parser re-appends it.
fn print_body(out: &mut String, code: &[u8]) {
    let mut r = BytecodeReader::new(code);
    let mut depth: usize = 0;
    while let Some(instr) = r.next() {
        let Ok(Instr { op, imm, .. }) = instr else {
            // Not an instruction: not printable as WAT; emit a comment so the
            // output at least lexes (such bodies only arise from invalid
            // modules, which the round-trip tests never print).
            let _ = writeln!(out, "    ;; <unprintable byte>");
            return;
        };
        if op == Opcode::End {
            if depth == 0 {
                // The function body's terminating `end`.
                debug_assert!(r.is_at_end(), "code continues past the body's final end");
                return;
            }
            depth -= 1;
        }
        if op == Opcode::Else {
            let _ = write!(out, "    {}", "  ".repeat(depth.saturating_sub(1)));
        } else {
            let _ = write!(out, "    {}", "  ".repeat(depth));
        }
        print_instruction(out, op, imm);
        out.push('\n');
        if op.opens_block() {
            depth += 1;
        }
    }
}

fn print_instruction(out: &mut String, op: Opcode, imm: Imm<'_>) {
    if let Imm::Select(types) = imm {
        let list = types.iter().map(|t| t.mnemonic()).collect::<Vec<_>>().join(" ");
        let _ = write!(out, "select (result {list})");
        return;
    }
    let _ = write!(out, "{}", op.mnemonic());
    let _ = match imm {
        Imm::None | Imm::Select(_) | Imm::Block(BlockType::Empty) => Ok(()),
        Imm::Block(BlockType::Value(t)) => write!(out, " (result {t})"),
        Imm::Block(BlockType::Func(i)) => write!(out, " (type {i})"),
        Imm::Index(i) => write!(out, " {i}"),
        Imm::Table(table) => table.targets_and_default().try_for_each(|t| write!(out, " {t}")),
        Imm::CallIndirect { type_index, table_index: 0 } => write!(out, " (type {type_index})"),
        Imm::CallIndirect { type_index, table_index } => {
            write!(out, " {table_index} (type {type_index})")
        }
        Imm::Mem(memarg) => {
            if memarg.offset != 0 {
                let _ = write!(out, " offset={}", memarg.offset);
            }
            let natural = op.access_width().unwrap_or(1).trailing_zeros();
            if memarg.align != natural {
                let _ = write!(out, " align={}", 1u32 << memarg.align.min(31));
            }
            Ok(())
        }
        Imm::I32(v) => write!(out, " {v}"),
        Imm::I64(v) => write!(out, " {v}"),
        Imm::F32(v) => write!(out, " {}", num::print_f32(v.to_bits())),
        Imm::F64(v) => write!(out, " {}", num::print_f64(v.to_bits())),
        Imm::Ref(t) => write!(out, " {}", ref_heap_type(t)),
    };
}

/// Returns the module's name section iff the WAT text format can express
/// *all* of it (see the module docs). `None` prints a bare, nameless module.
fn expressible_names(m: &Module) -> Option<NameSection> {
    let names = m.name_section();
    if names.is_empty() {
        return None;
    }
    if names.module.as_deref().is_some_and(|n| !valid_id(n)) {
        return None;
    }
    let mut seen = HashSet::new();
    for (index, name) in names.func_names() {
        if index >= m.num_funcs() || !valid_id(name) || !seen.insert(name) {
            return None;
        }
    }
    let num_imported = m.num_imported_funcs();
    for func_index in 0..m.num_funcs() {
        let mut local_seen = HashSet::new();
        for (local_index, name) in names.local_names(func_index) {
            if !valid_id(name) || !local_seen.insert(name) {
                return None;
            }
            // Imported functions have no body to hang local names on.
            let defined = func_index.checked_sub(num_imported)?;
            let func = m.funcs.get(defined as usize)?;
            let sig = m.types.get(func.type_index as usize)?;
            let num_params = sig.params.len() as u32;
            if local_index < num_params {
                continue;
            }
            // A named local must sit in its own singleton `(local …)` group;
            // names inside wider groups (only binary-built modules produce
            // those) are not expressible.
            let mut at = num_params;
            let mut singleton = false;
            for &(count, _) in &func.locals {
                if local_index < at + count {
                    singleton = count == 1;
                    break;
                }
                at += count;
            }
            if !singleton {
                return None;
            }
        }
    }
    Some(names)
}

/// True when `name` is a non-empty sequence of WAT `idchar`s, i.e. printable
/// as `$name` without quoting (which this printer does not emit).
fn valid_id(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| {
            b.is_ascii_alphanumeric()
                || matches!(
                    b,
                    b'!' | b'#'
                        | b'$'
                        | b'%'
                        | b'&'
                        | b'\''
                        | b'*'
                        | b'+'
                        | b'-'
                        | b'.'
                        | b'/'
                        | b':'
                        | b'<'
                        | b'='
                        | b'>'
                        | b'?'
                        | b'@'
                        | b'\\'
                        | b'^'
                        | b'_'
                        | b'`'
                        | b'|'
                        | b'~'
                )
        })
}

/// Prints a full inline signature with `$names` on the named parameters.
/// Runs of unnamed parameters share one `(param …)` group, named ones get
/// singleton groups — exactly the grouping the lowerer reads back.
fn named_signature<'a>(ty: &FuncType, name_of: impl Fn(u32) -> Option<&'a str>) -> String {
    let mut s = String::new();
    let mut i = 0usize;
    while i < ty.params.len() {
        if let Some(name) = name_of(i as u32) {
            let _ = write!(s, " (param ${name} {})", ty.params[i].mnemonic());
            i += 1;
        } else {
            let start = i;
            while i < ty.params.len() && name_of(i as u32).is_none() {
                i += 1;
            }
            let params =
                ty.params[start..i].iter().map(|t| t.mnemonic()).collect::<Vec<_>>().join(" ");
            let _ = write!(s, " (param {params})");
        }
    }
    if !ty.results.is_empty() {
        let results = ty.results.iter().map(|t| t.mnemonic()).collect::<Vec<_>>().join(" ");
        let _ = write!(s, " (result {results})");
    }
    s
}

fn signature(ty: &FuncType) -> String {
    let mut s = String::new();
    if !ty.params.is_empty() {
        let params = ty.params.iter().map(|t| t.mnemonic()).collect::<Vec<_>>().join(" ");
        let _ = write!(s, " (param {params})");
    }
    if !ty.results.is_empty() {
        let results = ty.results.iter().map(|t| t.mnemonic()).collect::<Vec<_>>().join(" ");
        let _ = write!(s, " (result {results})");
    }
    s
}

fn limits(l: &Limits) -> String {
    match l.max {
        Some(max) => format!("{} {max}", l.min),
        None => format!("{}", l.min),
    }
}

fn global_type(g: &GlobalType) -> String {
    if g.mutable {
        format!("(mut {})", g.value_type)
    } else {
        g.value_type.to_string()
    }
}

fn ref_type(t: ValueType) -> &'static str {
    match t {
        ValueType::ExternRef => "externref",
        _ => "funcref",
    }
}

fn ref_heap_type(t: ValueType) -> &'static str {
    match t {
        ValueType::ExternRef => "extern",
        _ => "func",
    }
}

fn const_expr(e: &ConstExpr) -> String {
    match *e {
        ConstExpr::I32(v) => format!("(i32.const {v})"),
        ConstExpr::I64(v) => format!("(i64.const {v})"),
        ConstExpr::F32(v) => format!("(f32.const {})", num::print_f32(v.to_bits())),
        ConstExpr::F64(v) => format!("(f64.const {})", num::print_f64(v.to_bits())),
        ConstExpr::RefNull(t) => format!("(ref.null {})", ref_heap_type(t)),
        ConstExpr::RefFunc(f) => format!("(ref.func {f})"),
        ConstExpr::GlobalGet(g) => format!("(global.get {g})"),
    }
}
