//! Differential trap diagnostics: the symbolicated backtrace attached to a
//! trap must be **bit-identical** under every execution configuration
//! (`conform::runner::all_configs`).
//!
//! A trap observed in optimizing-tier code and the same trap observed in
//! the in-place interpreter must attribute to the same function, the same
//! bytecode offset, and the same debug name — the executing tier is recorded
//! per frame for display but excluded from equality. The suite covers the
//! shapes the tier boundary makes hard: multi-frame call chains,
//! `call_indirect` dispatch traps (which fire *between* frames), frames
//! replaced mid-loop by OSR, frames a probe hands back to the interpreter
//! (deopt), and stack exhaustion (where the trace is
//! truncated to a fixed head+tail). A proptest arm extends the same
//! invariant to randomly generated trapping call chains.

use conform::runner::all_configs;
use engine::{
    Engine, EngineConfig, FrameTierTag, Imports, Instrumentation, ResourceLimits, TrapInfo,
    TrapReason,
};
use machine::values::WasmValue;
use machine::TrapCode;
use proptest::prelude::*;
use spc::{CompilerOptions, ProbeMode};
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, Limits, ValueType};
use wasm::Module;

/// Instantiates `module` under `config`, calls `name`, and returns the call
/// result together with the trap diagnostics (if the call trapped).
fn run_with_diagnostics(
    config: EngineConfig,
    module: &Module,
    name: &str,
    args: &[WasmValue],
) -> (Result<Vec<WasmValue>, TrapCode>, Option<TrapInfo>) {
    let engine = Engine::new(config);
    let mut instance = engine
        .instantiate(module, Imports::new(), Instrumentation::none())
        .expect("module instantiates");
    let result = engine.call_export(&mut instance, name, args);
    let trap = instance.last_trap().cloned();
    (result, trap)
}

/// Runs `module::name(args)` under every execution configuration — plus
/// each configuration with OSR forced at every back edge — each held to
/// `limits`, asserting the trap diagnostics are identical everywhere, and
/// returns the common [`TrapInfo`].
fn assert_identical_diagnostics(
    module: &Module,
    name: &str,
    args: &[WasmValue],
    limits: ResourceLimits,
) -> TrapInfo {
    let (reference_result, reference) = run_with_diagnostics(
        EngineConfig::interpreter("bt-ref").with_limits(limits),
        module,
        name,
        args,
    );
    assert!(reference_result.is_err(), "workload must trap");
    let reference = reference.expect("trap produced diagnostics");
    for config in all_configs() {
        for (suffix, config) in [("", config.clone()), ("+osr", config.clone().with_osr(0))] {
            let label = format!("{}{}", config.name, suffix);
            let (result, trap) = run_with_diagnostics(config.with_limits(limits), module, name, args);
            assert_eq!(result, reference_result, "[{label}] trap code diverged");
            let trap = trap.unwrap_or_else(|| panic!("[{label}] no diagnostics captured"));
            assert_eq!(trap, reference, "[{label}] backtrace diverged");
        }
    }
    reference
}

/// A division by zero at the bottom of a three-deep call chain.
const CHAIN: &str = r#"
    (module $chain
      (func $div (param $a i32) (param $b i32) (result i32)
        local.get $a
        local.get $b
        i32.div_s)
      (func $middle (param $n i32) (result i32)
        local.get $n
        i32.const 0
        call $div)
      (func $main (export "main") (param $n i32) (result i32)
        local.get $n
        call $middle))
"#;

/// `route(which, a, b)` dispatches through a ten-slot table holding a
/// `binop` and a nullary function.
const DISPATCH: &str = r#"
    (module $dispatch
      (type $binop (func (param i32 i32) (result i32)))
      (type $nullary (func (result i32)))
      (table 10 funcref)
      (elem (offset (i32.const 0)) func $add $answer)
      (func $add (type $binop) local.get 0 local.get 1 i32.add)
      (func $answer (type $nullary) i32.const 42)
      (func $route (export "route") (param $which i32) (param $a i32) (param $b i32) (result i32)
        local.get $a
        local.get $b
        local.get $which
        call_indirect (type $binop)))
"#;

/// The three ways `route`'s `call_indirect` fails, by table index.
const DISPATCH_CASES: [(i32, TrapReason); 3] = [
    (1, TrapReason::IndirectCallTypeMismatch), // slot 1 holds the nullary fn
    (7, TrapReason::NullTableEntry), // in-bounds, never initialized
    (10, TrapReason::TableOutOfBounds),    // one past the table
];

fn dispatch_args(which: i32) -> [WasmValue; 3] {
    [WasmValue::I32(which), WasmValue::I32(3), WasmValue::I32(4)]
}

/// Back edges `mid_loop_trap_module`'s `spin` takes before it traps.
const MID_LOOP_TRIPS: i32 = 10_000;

/// Unbounded recursion, stopped by [`deep_limits`].
const DEEP: &str = r#"
    (module $deep
      (func $spin (export "spin") (param $n i32) (result i32)
        local.get $n
        i32.const 1
        i32.add
        call $spin))
"#;

/// The call-depth ceiling [`DEEP`] runs under, pinned low so the
/// tier-independent depth check fires (the value-stack capacity check would
/// fire at a tier-*dependent* depth, since frame sizes differ per tier).
fn deep_limits() -> ResourceLimits {
    ResourceLimits { call_depth: Some(100), ..ResourceLimits::unlimited() }
}

/// A trap at the bottom of a three-deep call chain symbolicates every frame
/// from the `name` section, attributes each frame to the right bytecode
/// offset, and does so identically across the whole matrix.
#[test]
fn call_chain_traps_symbolicate_identically_across_the_matrix() {
    let module = wasm::wat::parse_module(CHAIN).expect("chain module parses");
    let trap = assert_identical_diagnostics(&module, "main", &[WasmValue::I32(7)], ResourceLimits::unlimited());
    assert_eq!(trap.reason, TrapReason::DivisionByZero);

    let frames = trap.backtrace.frames();
    assert_eq!(frames.len(), 3, "one frame per live activation");
    assert_eq!(trap.backtrace.truncated(), 0);
    let names: Vec<&str> = frames.iter().map(|f| f.name.as_deref().unwrap()).collect();
    assert_eq!(names, ["div", "middle", "main"], "innermost frame first");
    assert_eq!(
        trap.backtrace.symbolication_coverage(),
        1.0,
        "every frame symbolicates from the name section"
    );
    // Each caller frame points at its `call` instruction, not at wherever
    // the callee happened to be; the offsets are strictly positive and
    // distinct per function here.
    assert!(frames.iter().all(|f| f.offset > 0));
    let rendered = format!("{trap}");
    assert!(rendered.contains("integer divide by zero"), "{rendered}");
    assert!(rendered.contains("#0 div"), "{rendered}");
    assert!(rendered.contains("#2 main"), "{rendered}");
}

/// All three `call_indirect` dispatch traps — signature mismatch,
/// uninitialized element, and out-of-bounds index — fire *before* a callee
/// frame exists, so the innermost frame must be the dispatching function at
/// the offset of the `call_indirect` instruction itself.
#[test]
fn call_indirect_dispatch_traps_attribute_to_the_call_site() {
    let module = wasm::wat::parse_module(DISPATCH).expect("dispatch module parses");
    let mut call_site = None;
    for (which, reason) in DISPATCH_CASES {
        let trap = assert_identical_diagnostics(&module, "route", &dispatch_args(which), ResourceLimits::unlimited());
        assert_eq!(trap.reason, reason);
        let frames = trap.backtrace.frames();
        assert_eq!(frames.len(), 1, "dispatch fails before a callee frame exists");
        assert_eq!(frames[0].name.as_deref(), Some("route"));
        // All three causes attribute to the same instruction: the
        // `call_indirect` in `route`.
        let offset = frames[0].offset;
        assert!(offset > 0);
        assert_eq!(*call_site.get_or_insert(offset), offset);
    }
}

/// `probed(which)` branches at a `br_if` the branch monitor probes, then
/// divides by zero (`which` = 0) or dispatches through table slot `which`
/// with the `binop` signature. `main` calls it, so the trapping frame has a
/// caller that never deopts: it has no branch to probe.
const DEOPT: &str = r#"
    (module $deopt
      (type $binop (func (param i32 i32) (result i32)))
      (type $nullary (func (result i32)))
      (table 2 funcref)
      (elem (offset (i32.const 0)) func $add $answer)
      (func $add (type $binop) local.get 0 local.get 1 i32.add)
      (func $answer (type $nullary) i32.const 42)
      (func $probed (param $which i32) (result i32)
        block $divide
          local.get $which
          i32.eqz
          br_if $divide
          i32.const 3
          i32.const 4
          local.get $which
          call_indirect (type $binop)
          return
        end
        i32.const 1
        i32.const 0
        i32.div_s)
      (func $main (export "main") (param $which i32) (result i32)
        local.get $which
        call $probed))
"#;

/// A baseline frame that a runtime probe hands to the interpreter at the
/// probed `br_if` (deopt), and that then traps — in an instruction, and at
/// a `call_indirect` dispatch — reports the interpreter's diagnostics. Its
/// positions are bytecode offsets from the switch on, while its caller's is
/// still an index into compiled code.
#[test]
fn frames_deopted_by_a_probe_report_the_interpreters_backtrace() {
    let module = wasm::wat::parse_module(DEOPT).expect("deopt module parses");
    let runtime_probes = CompilerOptions {
        probe_mode: ProbeMode::Runtime,
        ..CompilerOptions::allopt()
    };
    let deopt = EngineConfig::baseline("bt-deopt", runtime_probes).with_deopt_on_probe();
    let run = |config: EngineConfig, args: &[WasmValue]| {
        let engine = Engine::new(config);
        let monitor = Instrumentation::branch_monitor(&module);
        let mut instance = engine
            .instantiate(&module, Imports::new(), monitor)
            .expect("module instantiates");
        let result = engine.call_export(&mut instance, "main", args);
        let trap = instance.last_trap().cloned().expect("trap produced diagnostics");
        (result, trap)
    };
    for (which, reason) in [
        (0, TrapReason::DivisionByZero),
        (1, TrapReason::IndirectCallTypeMismatch),
    ] {
        let args = [WasmValue::I32(which)];
        let (reference_result, reference) = run(EngineConfig::interpreter("bt-ref"), &args);
        assert!(reference_result.is_err(), "workload must trap");
        assert_eq!(reference.reason, reason);
        let (result, trap) = run(deopt.clone(), &args);
        assert_eq!(
            result, reference_result,
            "[which {which}] trap code diverged"
        );
        assert_eq!(trap, reference, "[which {which}] backtrace diverged");
        let tiers: Vec<FrameTierTag> = trap.backtrace.frames().iter().map(|f| f.tier).collect();
        assert_eq!(
            tiers,
            [FrameTierTag::Interp, FrameTierTag::Baseline],
            "[which {which}] the trapping frame did not deopt"
        );
    }
}

/// `spin(n)`: loops accumulating `1000 / (n - 1)` while decrementing `n`, so
/// the division traps when the counter reaches one — thousands of back edges
/// after entry, long after a forced-OSR transfer has replaced the frame.
fn mid_loop_trap_module() -> Module {
    let mut b = ModuleBuilder::new();
    let mut c = CodeBuilder::new();
    c.block(BlockType::Empty)
        .loop_(BlockType::Empty)
        .local_get(0)
        .op(Opcode::I32Eqz)
        .br_if(1)
        .local_get(1)
        .i32_const(1000)
        .local_get(0)
        .i32_const(1)
        .op(Opcode::I32Sub)
        .op(Opcode::I32DivS)
        .op(Opcode::I32Add)
        .local_set(1)
        .local_get(0)
        .i32_const(1)
        .op(Opcode::I32Sub)
        .local_set(0)
        .br(0)
        .end()
        .end()
        .local_get(1);
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32],
        c.finish(),
    );
    b.export_func("spin", f);
    b.finish()
}

/// A frame that trapped *after* OSR replaced it mid-loop reports the same
/// backtrace as a frame that never left its original tier — and the recorded
/// tier tag proves the trap really was observed in optimizing-tier code.
#[test]
fn osr_replaced_frames_report_the_same_backtrace() {
    let module = mid_loop_trap_module();
    let args = [WasmValue::I32(MID_LOOP_TRIPS)];
    let trap = assert_identical_diagnostics(&module, "spin", &args, ResourceLimits::unlimited());
    assert_eq!(trap.reason, TrapReason::DivisionByZero);
    assert_eq!(trap.backtrace.frames().len(), 1);
    // Unnamed module: the frame is unsymbolicated but still attributed.
    assert_eq!(trap.backtrace.frames()[0].name, None);
    assert_eq!(trap.backtrace.symbolication_coverage(), 0.0);

    // Run once more under a tiered config whose call threshold is
    // unreachable, with OSR forced: the only route into the optimizing tier
    // is replacing the live frame mid-loop. The trap must then be observed
    // in opt code — same backtrace, opt tier tag.
    let config = EngineConfig::tiered("bt-osr", u32::MAX, CompilerOptions::allopt()).with_osr(0);
    let engine = Engine::new(config);
    let mut instance = engine
        .instantiate(&module, Imports::new(), Instrumentation::none())
        .expect("module instantiates");
    let result = engine.call_export(&mut instance, "spin", &args);
    assert_eq!(result, Err(TrapCode::DivisionByZero));
    assert_eq!(
        instance.artifact().opt_compiled_count(),
        1,
        "the loop was never opt-compiled — OSR did not fire"
    );
    let osr_trap = instance.last_trap().cloned().expect("diagnostics captured");
    assert_eq!(osr_trap, trap, "OSR'd frame diverged from the reference");
    assert_eq!(
        osr_trap.backtrace.frames()[0].tier,
        FrameTierTag::Opt,
        "the trap was not observed in optimizing-tier code"
    );
}

/// Deep recursion that exhausts the call-depth limit produces a trace
/// truncated to a fixed head and tail, with the omitted middle counted —
/// and the truncated trace is still identical across the matrix, with and
/// without forced OSR.
#[test]
fn stack_exhaustion_truncates_to_a_fixed_head_and_tail() {
    let module = wasm::wat::parse_module(DEEP).expect("deep module parses");
    let reference = assert_identical_diagnostics(&module, "spin", &[WasmValue::I32(0)], deep_limits());

    // 100 live frames, fixed 16-frame head + 16-frame tail, 68 omitted.
    assert_eq!(reference.reason, TrapReason::StackOverflow);
    assert_eq!(reference.backtrace.frames().len(), 32);
    assert_eq!(reference.backtrace.truncated(), 68);
    assert_eq!(reference.backtrace.depth(), 100);
    // Every retained frame is the same recursive call site, symbolicated.
    for frame in reference.backtrace.frames() {
        assert_eq!(frame.name.as_deref(), Some("spin"));
        assert_eq!(frame.offset, reference.backtrace.frames()[0].offset);
    }
    let rendered = format!("{}", reference.backtrace);
    assert!(rendered.contains("68 frames omitted"), "{rendered}");
}

/// Over the six trap workloads the tests above hold identical across the
/// matrix, at least 90 % of all backtrace frames resolve to a debug name
/// (only the builder-made mid-loop module carries no `name` section).
#[test]
fn the_trap_battery_symbolicates_at_least_90_percent_of_its_frames() {
    let parse = |text| wasm::wat::parse_module(text).expect("battery module parses");
    let mut battery = vec![
        (parse(CHAIN), "main", vec![WasmValue::I32(7)], ResourceLimits::unlimited()),
        (mid_loop_trap_module(), "spin", vec![WasmValue::I32(MID_LOOP_TRIPS)], ResourceLimits::unlimited()),
        (parse(DEEP), "spin", vec![WasmValue::I32(0)], deep_limits()),
    ];
    for (which, _) in DISPATCH_CASES {
        battery.push((parse(DISPATCH), "route", dispatch_args(which).to_vec(), ResourceLimits::unlimited()));
    }
    let (mut named, mut total) = (0, 0);
    for (module, entry, args, limits) in &battery {
        let config = EngineConfig::interpreter("bt-battery").with_limits(*limits);
        let (_, trap) = run_with_diagnostics(config, module, entry, args);
        let trap = trap.expect("every battery workload traps");
        total += trap.backtrace.frames().len();
        named += trap.backtrace.frames().iter().filter(|f| f.name.is_some()).count();
    }
    assert_eq!(total, 3 + 1 + 32 + 3, "frames over the battery");
    assert!(named * 10 >= total * 9, "only {named} of {total} frames symbolicated");
}

/// Builds a call chain `f0 -> f1 -> ... -> f<depth>` where the innermost
/// function divides its two arguments (with `pad` constants mixed in to
/// shift bytecode offsets around) and then loads from linear memory at
/// `addr`. Depending on the generated inputs the run traps with division by
/// zero, integer overflow, a memory-bounds fault — or completes.
fn chain_module(depth: u32, pad: i32, div_op: Opcode, addr: u32) -> Module {
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(1));
    let ty = FuncType::new(vec![ValueType::I32, ValueType::I32], vec![ValueType::I32]);
    // Innermost function is index `depth`; wrappers 0..depth call downward.
    for i in 0..depth {
        let mut c = CodeBuilder::new();
        c.local_get(0)
            .i32_const(pad)
            .op(Opcode::I32Xor)
            .i32_const(pad)
            .op(Opcode::I32Xor)
            .local_get(1)
            .call(i + 1);
        b.add_func(ty.clone(), vec![], c.finish());
    }
    let mut c = CodeBuilder::new();
    c.local_get(0)
        .local_get(1)
        .op(div_op)
        .i32_const(addr as i32)
        .mem(Opcode::I32Load, 0, 0)
        .op(Opcode::I32Add);
    b.add_func(ty, vec![], c.finish());
    b.export_func("f", 0);
    b.finish()
}

proptest! {
    // Each case runs the full 5-config matrix; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzzer arm: generated call chains whose innermost frame traps (or
    /// doesn't) agree on the complete observable outcome — result or trap
    /// code AND the full backtrace — across every configuration.
    #[test]
    fn generated_trapping_chains_agree_on_diagnostics_across_the_matrix(
        depth in 0u32..6,
        pad in any::<i32>(),
        which in 0u8..4,
        a in prop_oneof![Just(i32::MIN), any::<i32>()],
        b in prop_oneof![Just(0i32), Just(-1i32), any::<i32>()],
        addr in prop_oneof![0u32..60_000, 60_000u32..100_000],
    ) {
        let div_op = [Opcode::I32DivS, Opcode::I32DivU, Opcode::I32RemS, Opcode::I32RemU]
            [usize::from(which)];
        let module = chain_module(depth, pad, div_op, addr);
        wasm::validate::validate(&module).expect("generated chain validates");

        let args = [WasmValue::I32(a), WasmValue::I32(b)];
        let reference = run_with_diagnostics(
            EngineConfig::interpreter("bt-fuzz-ref"),
            &module,
            "f",
            &args,
        );
        if let Some(trap) = &reference.1 {
            // A trapping chain reports one frame per live activation.
            prop_assert_eq!(trap.backtrace.depth() as u32, depth + 1);
        }
        for config in all_configs() {
            let name = config.name.clone();
            let got = run_with_diagnostics(config, &module, "f", &args);
            prop_assert_eq!(
                &got, &reference,
                "configuration {} diverged on diagnostics", name
            );
        }
    }
}
