//! Integration tests for the WAT text frontend: parsing, name resolution,
//! folded expressions, and the print → parse → encode round trip.

use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::encode::encode;
use wasm::module::ConstExpr;
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, GlobalType, Limits, ValueType};
use wasm::wat::{parse_module, print::print_module};

#[test]
fn parses_a_flat_module() {
    let m = parse_module(
        r#"(module
             (memory 1 4)
             (global $g (mut i32) (i32.const 7))
             (func $add (export "add") (param $a i32) (param $b i32) (result i32)
               local.get $a
               local.get $b
               i32.add)
             (func (export "bump") (result i32)
               global.get $g
               i32.const 1
               i32.add
               global.set $g
               global.get $g))"#,
    )
    .expect("parses");
    wasm::validate::validate(&m).expect("validates");
    assert_eq!(m.types.len(), 2);
    assert_eq!(m.exported_func("add"), Some(0));
    assert_eq!(m.exported_func("bump"), Some(1));
    assert_eq!(m.memories[0].limits, Limits::bounded(1, 4));
    assert_eq!(m.globals[0].init, ConstExpr::I32(7));
}

#[test]
fn parses_folded_expressions_and_control_flow() {
    let m = parse_module(
        r#"(module
             (func (export "max") (param i32 i32) (result i32)
               (if (result i32) (i32.gt_s (local.get 0) (local.get 1))
                 (then (local.get 0))
                 (else (local.get 1)))))"#,
    )
    .expect("parses");
    wasm::validate::validate(&m).expect("validates");
    // The folded condition is emitted before the `if` opcode.
    let code = &m.funcs[0].code;
    assert_eq!(code[0], Opcode::LocalGet.to_byte());
}

#[test]
fn labels_resolve_by_name_and_depth() {
    let m = parse_module(
        r#"(module
             (func (export "count") (param i32) (result i32) (local $acc i32)
               block $exit
                 loop $top
                   local.get 0
                   i32.eqz
                   br_if $exit
                   local.get $acc
                   local.get 0
                   i32.add
                   local.set $acc
                   local.get 0
                   i32.const 1
                   i32.sub
                   local.set 0
                   br $top
                 end
               end
               local.get $acc))"#,
    )
    .expect("parses");
    wasm::validate::validate(&m).expect("validates");
}

#[test]
fn br_table_call_indirect_and_tables() {
    let m = parse_module(
        r#"(module
             (type $binop (func (param i32 i32) (result i32)))
             (table 4 funcref)
             (elem (offset (i32.const 0)) func $add $sub)
             (func $add (type $binop) local.get 0 local.get 1 i32.add)
             (func $sub (type $binop) local.get 0 local.get 1 i32.sub)
             (func (export "dispatch") (param i32 i32 i32) (result i32)
               local.get 1
               local.get 2
               local.get 0
               call_indirect (type $binop))
             (func (export "pick") (param i32) (result i32)
               block $b1
                 block $b0
                   local.get 0
                   br_table $b0 $b1
                 end
                 i32.const 10
                 return
               end
               i32.const 20))"#,
    )
    .expect("parses");
    wasm::validate::validate(&m).expect("validates");
    assert!(!m.elems.is_empty());
}

#[test]
fn inline_table_elem_abbreviation() {
    let m = parse_module(
        r#"(module
             (func $f (result i32) i32.const 1)
             (table funcref (elem $f $f))
             (func (export "go") (result i32)
               i32.const 0
               call_indirect (result i32)))"#,
    )
    .expect("parses");
    wasm::validate::validate(&m).expect("validates");
    assert_eq!(m.tables[0].limits, Limits::bounded(2, 2));
    assert_eq!(m.elems[0].func_indices, vec![0, 0]);
}

#[test]
fn imports_and_start() {
    let m = parse_module(
        r#"(module
             (import "env" "log" (func $log (param i32)))
             (global $g (import "env" "base") i64)
             (func $init nop)
             (func (export "run") i32.const 3 call $log)
             (start $init))"#,
    )
    .expect("parses");
    wasm::validate::validate(&m).expect("validates");
    assert_eq!(m.num_imported_funcs(), 1);
    assert_eq!(m.num_imported_globals(), 1);
    assert_eq!(m.start, Some(1));
}

#[test]
fn named_locals_follow_referenced_type_params() {
    // With a bare `(type $t)` typeuse the parameters have no inline names,
    // but declared locals must still index *after* them.
    let m = parse_module(
        r#"(module
             (type $t (func (param i32) (result i32)))
             (func (export "f") (type $t) (local $x i32)
               i32.const 7
               local.set $x
               local.get 0))"#,
    )
    .expect("parses");
    wasm::validate::validate(&m).expect("validates");
    // local.get 0 must be the parameter: the body ends with local.get 0.
    let code = &m.funcs[0].code;
    assert_eq!(code[code.len() - 3..], [0x20, 0x00, 0x0B], "reads param 0, not local $x");
    assert_eq!(m.funcs[0].declared_local_count(), 1);
}

#[test]
fn duplicate_names_are_rejected() {
    assert!(parse_module("(module (func $f) (func $f))").is_err());
    assert!(parse_module("(module (type $t (func)) (type $t (func)))").is_err());
    assert!(parse_module("(module (table $t 1 funcref) (table $t 1 funcref))").is_err());
    assert!(parse_module("(module (memory $m 1))").is_ok());
    assert!(parse_module("(module (global $g i32 (i32.const 1)) (global $g i32 (i32.const 2)))").is_err());
}

#[test]
fn rejects_bad_input() {
    assert!(parse_module("(module (func (bogus)))").is_err());
    assert!(parse_module("(module (func unknown.op))").is_err());
    assert!(parse_module("(module (func br $nope))").is_err());
    assert!(parse_module("(module (func local.get $missing))").is_err());
    assert!(parse_module("(module (export \"e\" (func 0))").is_err(), "unbalanced");
    assert!(parse_module("").is_err());
}

#[test]
fn nesting_is_capped_before_the_stack_is() {
    use wasm::wat::sexpr::MAX_NESTING;
    // `(module (func` is two levels; the blocks take the rest.
    let nested = |depth: usize| {
        format!("(module (func {} {}))", "(block ".repeat(depth - 2), ")".repeat(depth - 2))
    };
    // A default test thread's stack, whatever `--test-threads` says.
    let on_a_test_thread = |src: String| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || parse_module(&src))
            .expect("thread spawns")
            .join()
            .expect("deep nesting is an error, not a panic")
    };
    let at_cap = on_a_test_thread(nested(MAX_NESTING)).expect("nesting at the cap parses");
    assert_eq!(at_cap.funcs[0].code.len(), 3 * (MAX_NESTING - 2) + 1);
    let over = nested(MAX_NESTING + 1);
    let innermost = over.rfind('(').expect("has lists");
    let err = on_a_test_thread(over).expect_err("one level past the cap is rejected");
    assert_eq!(err.offset, innermost, "{err}");
    // Far past anything a stack could hold: rejected at the cap, unbuilt.
    for hostile in [nested(100_000), "(".repeat(1_000_000)] {
        let err = on_a_test_thread(hostile).expect_err("hostile nesting is rejected");
        assert!(err.message.contains("nested deeper"), "{err}");
    }
}

/// A builder-built module covering every section kind plus representative
/// instruction immediates.
fn rich_module() -> wasm::Module {
    let mut b = ModuleBuilder::new();
    let log = b.import_func("env", "log", FuncType::new(vec![ValueType::I32], vec![]));
    let mem = b.add_memory(Limits::bounded(1, 8));
    let table = b.add_table(ValueType::FuncRef, Limits::at_least(4));
    let g = b.add_global(GlobalType::mutable(ValueType::I64), ConstExpr::I64(-9));
    let gf = b.add_global(
        GlobalType::immutable(ValueType::F64),
        ConstExpr::F64(-0.1),
    );

    let mut c = CodeBuilder::new();
    c.block(BlockType::Value(ValueType::I32))
        .i32_const(7)
        .local_get(0)
        .br_if(0)
        .drop_()
        .i32_const(0)
        .mem(Opcode::I32Load, 2, 16)
        .i32_const(4)
        .mem(Opcode::I32Load, 0, 0)
        .op(Opcode::I32Add)
        .end()
        .local_tee(1)
        .call(log)
        .local_get(1)
        .i64_const(-5)
        .op(Opcode::I64Popcnt)
        .drop_()
        .f32_const(f32::NAN)
        .drop_()
        .f64_const(1.5e300)
        .drop_()
        .global_get(g)
        .drop_()
        .memory_size()
        .drop_()
        .ref_null(ValueType::ExternRef)
        .op(Opcode::RefIsNull)
        .drop_();
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32, ValueType::I32, ValueType::F64],
        c.finish(),
    );
    let mut c2 = CodeBuilder::new();
    c2.local_get(0)
        .local_get(0)
        .local_get(0)
        .br_table(&[0, 0], 0);
    let f2 = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![],
        c2.finish(),
    );
    b.export_func("work", f);
    b.export_func("jump", f2);
    b.export_memory("mem", mem);
    b.export_global("g", g);
    let _ = gf;
    b.add_elem(table, ConstExpr::I32(1), vec![f, f2]);
    b.add_data(mem, ConstExpr::I32(64), vec![0x00, 0xFF, b'"', b'\\', 0x7F]);
    b.finish()
}

#[test]
fn print_parse_reencode_is_byte_identical() {
    let module = rich_module();
    wasm::validate::validate(&module).expect("rich module validates");
    let text = print_module(&module);
    let reparsed = parse_module(&text).unwrap_or_else(|e| panic!("{}\n{text}", e.describe(&text)));
    assert_eq!(
        encode(&module),
        encode(&reparsed),
        "round trip must be byte-identical; text was:\n{text}"
    );
}

#[test]
fn print_parse_roundtrip_after_binary_decode() {
    // encode → decode → print → parse → encode is stable too.
    let module = rich_module();
    let bytes = encode(&module);
    let decoded = wasm::decode::decode(&bytes).expect("decodes");
    let text = print_module(&decoded);
    let reparsed = parse_module(&text).unwrap_or_else(|e| panic!("{}\n{text}", e.describe(&text)));
    assert_eq!(bytes, encode(&reparsed));
}

#[test]
fn printed_text_is_stable_under_reprinting() {
    let module = rich_module();
    let text = print_module(&module);
    let reparsed = parse_module(&text).expect("parses");
    assert_eq!(text, print_module(&reparsed), "printing is a fixpoint");
}

#[test]
fn float_literals_roundtrip_through_text() {
    for bits in [
        0u64,
        (-0.0f64).to_bits(),
        f64::NAN.to_bits(),
        0x7FF0_0000_0000_0001, // signaling-ish payload
        f64::MAX.to_bits(),
        1u64, // min subnormal
    ] {
        let mut b = ModuleBuilder::new();
        let mut c = CodeBuilder::new();
        c.f64_const(f64::from_bits(bits));
        let f = b.add_func(FuncType::new(vec![], vec![ValueType::F64]), vec![], c.finish());
        b.export_func("f", f);
        let m = b.finish();
        let text = print_module(&m);
        let reparsed = parse_module(&text).expect("parses");
        assert_eq!(encode(&m), encode(&reparsed), "bits {bits:#x}: {text}");
    }
}

#[test]
fn multi_value_signatures_roundtrip() {
    let mut b = ModuleBuilder::new();
    let pair = b.add_type(FuncType::new(vec![], vec![ValueType::I32, ValueType::I32]));
    let mut c = CodeBuilder::new();
    c.block(BlockType::Func(pair))
        .i32_const(1)
        .i32_const(2)
        .end()
        .op(Opcode::I32Add);
    let f = b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish());
    b.export_func("f", f);
    let m = b.finish();
    wasm::validate::validate(&m).expect("validates");
    let text = print_module(&m);
    let reparsed = parse_module(&text).unwrap_or_else(|e| panic!("{}\n{text}", e.describe(&text)));
    assert_eq!(encode(&m), encode(&reparsed), "{text}");
}

#[test]
fn typed_select_roundtrips() {
    let src = r#"(module
                   (func (export "pick") (param i32) (result i32)
                     i32.const 10
                     i32.const 20
                     local.get 0
                     select (result i32)))"#;
    let m = parse_module(src).expect("parses");
    wasm::validate::validate(&m).expect("validates");
    assert!(m.funcs[0].code.contains(&0x1Cu8), "uses the select_t opcode");
    let text = print_module(&m);
    let reparsed = parse_module(&text).expect("reparses");
    assert_eq!(encode(&m), encode(&reparsed));
}

#[test]
fn names_lower_into_a_name_section() {
    let m = parse_module(
        r#"(module $demo
             (type $sig (func (param i32 i32) (result i32)))
             (import "env" "log" (func $log (type $sig)))
             (func $add (type $sig) (param $x i32) (param $y i32) (result i32)
               (local $tmp i32)
               local.get $x
               local.get $y
               i32.add
               local.set $tmp
               local.get $tmp)
             (func $main (result i32)
               i32.const 1
               i32.const 2
               call $add)
             (export "main" (func $main)))"#,
    )
    .expect("parses");
    wasm::validate::validate(&m).expect("validates");
    let names = m.name_section();
    assert_eq!(names.module.as_deref(), Some("demo"));
    assert_eq!(names.func_name(0), Some("log"));
    assert_eq!(names.func_name(1), Some("add"));
    assert_eq!(names.func_name(2), Some("main"));
    assert_eq!(names.local_name(1, 0), Some("x"));
    assert_eq!(names.local_name(1, 1), Some("y"));
    assert_eq!(names.local_name(1, 2), Some("tmp"));
    // Decoding the encoded bytes yields the same name section.
    let decoded = wasm::decode::decode(&encode(&m)).expect("decodes");
    assert_eq!(decoded.name_section(), names);
}

#[test]
fn names_roundtrip_byte_identically() {
    let m = parse_module(
        r#"(module $demo
             (type $sig (func (param i32 i32) (result i32)))
             (import "env" "log" (func $log (type $sig)))
             (func $add (type $sig) (param $x i32) (param $y i32) (result i32)
               (local $tmp i32)
               local.get $x
               local.get $y
               i32.add
               local.set $tmp
               local.get $tmp)
             (func $mix (param i32) (param $n i32) (param i32 i32) (local i64 i64) (local $acc i64)
               local.get $n
               drop)
             (func $main (result i32)
               i32.const 1
               i32.const 2
               call $add)
             (export "main" (func $main)))"#,
    )
    .expect("parses");
    wasm::validate::validate(&m).expect("validates");
    let text = print_module(&m);
    assert!(text.contains("(module $demo"), "{text}");
    assert!(text.contains("$add"), "{text}");
    assert!(text.contains("(param $x i32)"), "{text}");
    assert!(text.contains("(local $tmp i32)"), "{text}");
    let reparsed = parse_module(&text).unwrap_or_else(|e| panic!("{}\n{text}", e.describe(&text)));
    assert_eq!(
        encode(&m),
        encode(&reparsed),
        "named round trip must be byte-identical; text was:\n{text}"
    );
    assert_eq!(text, print_module(&reparsed), "printing is a fixpoint");
}

#[test]
fn unprintable_name_sections_fall_back_to_indices() {
    // Names the text format cannot express (spaces, names inside multi-local
    // groups) only arise in binary-built modules; the printer then omits the
    // whole section rather than print a partial or invalid one.
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.i32_const(0);
    let f = b.add_func(
        FuncType::new(vec![], vec![ValueType::I32]),
        vec![ValueType::I64, ValueType::I64],
        c.finish(),
    );
    b.export_func("f", f);
    let mut m = b.finish();
    let mut names = wasm::names::NameSection::new();
    names.set_func_name(0, "has a space");
    m.make_mut().set_name_section(&names);
    let text = print_module(&m);
    assert!(!text.contains('$'), "invalid ids must not print: {text}");
    let reparsed = parse_module(&text).expect("parses");
    assert!(reparsed.name_section().is_empty());

    // A name inside a two-wide local group has no `(local $x ty)` home.
    let mut names = wasm::names::NameSection::new();
    if m.funcs[0].locals == vec![(2, ValueType::I64)] {
        names.set_func_name(0, "f");
        names.set_local_name(0, 1, "hidden");
        m.make_mut().set_name_section(&names);
        let text = print_module(&m);
        assert!(!text.contains('$'), "partial sections must not print: {text}");
    }
}
