//! The `name` custom section, parsed into a typed form.
//!
//! The binary format stores debug names in a custom section called `name`,
//! organized as subsections: `0` names the module, `1` maps function indices
//! to names, and `2` maps `(function, local)` index pairs to names. The
//! engine uses these to symbolicate trap backtraces; the WAT pipeline
//! produces them from `$identifiers` and prints them back out.
//!
//! Parsing is deliberately *tolerant*: debug metadata must never make a
//! module unrunnable, so a malformed subsection (truncated LEB, length
//! overrun, invalid UTF-8) stops the parse at that point and keeps whatever
//! was decoded before it. [`NameSection::parse`] therefore has no error
//! type. Encoding is canonical — subsections in ascending id order, name
//! maps sorted by index — so lowering the same names always produces the
//! same bytes, which is what keeps the WAT round trip byte-identical.

use crate::leb;
use crate::writer::ByteWriter;
use std::collections::BTreeMap;

/// Typed contents of the `name` custom section.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameSection {
    /// The module's own name (subsection 0).
    pub module: Option<String>,
    /// Function names by function index (subsection 1).
    funcs: BTreeMap<u32, String>,
    /// Local (including parameter) names by function index, then local
    /// index (subsection 2).
    locals: BTreeMap<u32, BTreeMap<u32, String>>,
}

impl NameSection {
    /// An empty name section.
    pub fn new() -> NameSection {
        NameSection::default()
    }

    /// True when no name of any kind is present (an empty section is not
    /// worth a custom section at all).
    pub fn is_empty(&self) -> bool {
        self.module.is_none() && self.funcs.is_empty() && self.locals.is_empty()
    }

    /// The name of function `func_index`, if present.
    pub fn func_name(&self, func_index: u32) -> Option<&str> {
        self.funcs.get(&func_index).map(String::as_str)
    }

    /// The name of local `local_index` of function `func_index`, if present.
    pub fn local_name(&self, func_index: u32, local_index: u32) -> Option<&str> {
        self.locals.get(&func_index)?.get(&local_index).map(String::as_str)
    }

    /// Names a function.
    pub fn set_func_name(&mut self, func_index: u32, name: impl Into<String>) {
        self.funcs.insert(func_index, name.into());
    }

    /// Names a local (or parameter) of a function.
    pub fn set_local_name(&mut self, func_index: u32, local_index: u32, name: impl Into<String>) {
        self.locals.entry(func_index).or_default().insert(local_index, name.into());
    }

    /// All function names, in ascending function-index order.
    pub fn func_names(&self) -> impl Iterator<Item = (u32, &str)> {
        self.funcs.iter().map(|(&i, n)| (i, n.as_str()))
    }

    /// All local names of one function, in ascending local-index order.
    pub fn local_names(&self, func_index: u32) -> impl Iterator<Item = (u32, &str)> {
        self.locals
            .get(&func_index)
            .into_iter()
            .flat_map(|m| m.iter().map(|(&i, n)| (i, n.as_str())))
    }

    /// Parses the payload of a `name` custom section, keeping everything
    /// decoded before the first malformed byte (see the module docs for why
    /// this never fails).
    pub fn parse(bytes: &[u8]) -> NameSection {
        let mut names = NameSection::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let Some((id, p)) = read_u8(bytes, pos) else { break };
            let Some((size, p)) = read_u32(bytes, p) else { break };
            let Some(end) = p.checked_add(size as usize).filter(|&e| e <= bytes.len()) else {
                break;
            };
            let sub = &bytes[p..end];
            match id {
                0 => {
                    if let Some((name, _)) = read_name(sub, 0) {
                        names.module = Some(name);
                    }
                }
                1 => parse_name_map(sub, |index, name| {
                    names.funcs.insert(index, name);
                }),
                2 => parse_indirect_map(sub, |func, local, name| {
                    names.locals.entry(func).or_default().insert(local, name);
                }),
                // Unknown subsection (labels, types, ...): skipped, like any
                // other custom payload this engine does not interpret.
                _ => {}
            }
            pos = end;
        }
        names
    }

    /// Encodes the section payload canonically (see the module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = ByteWriter::new();
        if let Some(module) = &self.module {
            let mut sub = ByteWriter::new();
            sub.write_name(module);
            write_subsection(&mut out, 0, &sub);
        }
        if !self.funcs.is_empty() {
            let mut sub = ByteWriter::new();
            sub.write_u32_leb(self.funcs.len() as u32);
            for (&index, name) in &self.funcs {
                sub.write_u32_leb(index);
                sub.write_name(name);
            }
            write_subsection(&mut out, 1, &sub);
        }
        if !self.locals.is_empty() {
            let mut sub = ByteWriter::new();
            sub.write_u32_leb(self.locals.len() as u32);
            for (&func, locals) in &self.locals {
                sub.write_u32_leb(func);
                sub.write_u32_leb(locals.len() as u32);
                for (&local, name) in locals {
                    sub.write_u32_leb(local);
                    sub.write_name(name);
                }
            }
            write_subsection(&mut out, 2, &sub);
        }
        out.into_bytes()
    }
}

fn write_subsection(out: &mut ByteWriter, id: u8, payload: &ByteWriter) {
    out.write_u8(id);
    out.write_u32_leb(payload.len() as u32);
    out.write_bytes(payload.as_bytes());
}

fn read_u8(bytes: &[u8], pos: usize) -> Option<(u8, usize)> {
    bytes.get(pos).map(|&b| (b, pos + 1))
}

fn read_u32(bytes: &[u8], pos: usize) -> Option<(u32, usize)> {
    leb::read_unsigned(bytes, pos, 32).ok().map(|(v, consumed)| (v as u32, pos + consumed))
}

fn read_name(bytes: &[u8], pos: usize) -> Option<(String, usize)> {
    let (len, p) = read_u32(bytes, pos)?;
    let end = p.checked_add(len as usize).filter(|&e| e <= bytes.len())?;
    let name = std::str::from_utf8(&bytes[p..end]).ok()?;
    Some((name.to_string(), end))
}

/// Parses a name map (`count` then `count` × `(index, name)`), stopping at
/// the first malformed entry.
fn parse_name_map(bytes: &[u8], mut put: impl FnMut(u32, String)) {
    let Some((count, mut pos)) = read_u32(bytes, 0) else { return };
    for _ in 0..count {
        let Some((index, p)) = read_u32(bytes, pos) else { return };
        let Some((name, p)) = read_name(bytes, p) else { return };
        put(index, name);
        pos = p;
    }
}

/// Parses an indirect name map (`count` × `(func, inner name map)`),
/// stopping at the first malformed entry.
fn parse_indirect_map(bytes: &[u8], mut put: impl FnMut(u32, u32, String)) {
    let Some((count, mut pos)) = read_u32(bytes, 0) else { return };
    for _ in 0..count {
        let Some((func, p)) = read_u32(bytes, pos) else { return };
        let Some((inner, mut p)) = read_u32(bytes, p) else { return };
        for _ in 0..inner {
            let Some((local, q)) = read_u32(bytes, p) else { return };
            let Some((name, q)) = read_name(bytes, q) else { return };
            put(func, local, name);
            p = q;
        }
        pos = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_encode_and_parse() {
        let mut n = NameSection::new();
        n.module = Some("m".to_string());
        n.set_func_name(0, "main");
        n.set_func_name(3, "helper");
        n.set_local_name(0, 0, "x");
        n.set_local_name(0, 2, "tmp");
        n.set_local_name(3, 1, "y");
        let bytes = n.encode();
        let parsed = NameSection::parse(&bytes);
        assert_eq!(parsed, n);
        // Canonical encoding is a fixed point.
        assert_eq!(parsed.encode(), bytes);
    }

    #[test]
    fn empty_section_encodes_to_nothing() {
        let n = NameSection::new();
        assert!(n.is_empty());
        assert!(n.encode().is_empty());
        assert_eq!(NameSection::parse(&[]), n);
    }

    #[test]
    fn accessors_resolve_names() {
        let mut n = NameSection::new();
        n.set_func_name(2, "fib");
        n.set_local_name(2, 0, "n");
        assert_eq!(n.func_name(2), Some("fib"));
        assert_eq!(n.func_name(0), None);
        assert_eq!(n.local_name(2, 0), Some("n"));
        assert_eq!(n.local_name(2, 1), None);
        assert_eq!(n.local_name(0, 0), None);
        assert_eq!(n.func_names().collect::<Vec<_>>(), vec![(2, "fib")]);
        assert_eq!(n.local_names(2).collect::<Vec<_>>(), vec![(0, "n")]);
    }

    #[test]
    fn malformed_sections_keep_earlier_names() {
        let mut n = NameSection::new();
        n.set_func_name(0, "good");
        let mut bytes = n.encode();
        // A truncated second subsection: id 2 claiming 100 payload bytes.
        bytes.extend_from_slice(&[2, 100]);
        let parsed = NameSection::parse(&bytes);
        assert_eq!(parsed.func_name(0), Some("good"));
        assert!(parsed.locals.is_empty());

        // Invalid UTF-8 inside a name stops that map but keeps prior entries.
        let mut raw = Vec::new();
        let mut sub = ByteWriter::new();
        sub.write_u32_leb(2);
        sub.write_u32_leb(0);
        sub.write_name("ok");
        sub.write_u32_leb(1);
        sub.write_u32_leb(2);
        sub.write_bytes(&[0xFF, 0xFE]);
        raw.push(1);
        leb::write_unsigned(&mut raw, sub.len() as u64);
        raw.extend_from_slice(sub.as_bytes());
        let parsed = NameSection::parse(&raw);
        assert_eq!(parsed.func_name(0), Some("ok"));
        assert_eq!(parsed.func_name(1), None);

        // Garbage from the first byte parses to an empty section.
        assert!(NameSection::parse(&[0xFF, 0xFF, 0xFF]).is_empty());
    }

    #[test]
    fn unknown_subsections_are_skipped() {
        let mut raw = Vec::new();
        // Subsection 7 (labels) with arbitrary payload, then a function map.
        raw.push(7);
        raw.push(3);
        raw.extend_from_slice(&[1, 2, 3]);
        let mut n = NameSection::new();
        n.set_func_name(1, "after");
        raw.extend_from_slice(&n.encode());
        assert_eq!(NameSection::parse(&raw).func_name(1), Some("after"));
    }
}
