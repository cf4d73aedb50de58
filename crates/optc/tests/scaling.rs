//! The shape of the compiling tiers' memory use, counted — not timed.
//!
//! Every table the optimizing tier keeps is indexed by value, by block or by
//! edge, so compiling a function eight times larger may need about eight
//! times the heap, and no single allocation may be larger than a small
//! multiple of the body's size in bytes. A blocks × values table — live-in
//! sets as a matrix, a bitset per block — breaks both: at 8× it is 64× the
//! size, and at a few thousand blocks one row per block outweighs the whole
//! IR. Nor may the heap grow with locals the body never writes: a merge
//! block's parameters are bounded by the writes inside its construct.
//!
//! The baseline compiler keeps no IR, but a control construct is where the
//! "JIT bomb" of the paper's §III would go off: a snapshot of the abstract
//! state that grows with the function makes the *sum* of what a compile
//! allocates quadratic while its peak stays small, so both tiers are also
//! held to eight-fold-or-so cumulative bytes. The baseline compiler makes no
//! allocation per instruction or per construct either — its number of
//! allocations may not grow with the function at all — and its merges walk
//! only the slots the code since the last merge touched, so locals the body
//! never writes cost its compile time nothing.
//!
//! The counts come from a counting global allocator, so those gates are
//! deterministic where a wall-clock or RSS gate would not be. The time
//! gates compare the fastest of three compiles of two shapes whose linear
//! cost is nearly the same, so they fail only on a growth an order of
//! magnitude past the noise.

use optc::frontend;
use optc::OptimizingCompiler;
use spc::{CompilerOptions, ProbeMode, ProbeSites, SinglePassCompiler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::module::ConstExpr;
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, GlobalType, Limits, ValueType};
use wasm::validate::FuncInfo;
use wasm::Module;

// ---- The counting allocator ---------------------------------------------------

/// Bytes currently allocated, the most that were allocated at once, the
/// largest single request, the sum of all requests and their number — since
/// the process started, or since [`counted`] last reset the latter four.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every request is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are atomics and never allocate.
// `realloc` and `alloc_zeroed` keep their default bodies, which go through
// `alloc` and `dealloc` below.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is forwarded as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
            TOTAL.fetch_add(layout.size(), Ordering::Relaxed);
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, so from `System`, with this
        // `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The counters are process-wide; the tests of this file take turns.
static TURN: Mutex<()> = Mutex::new(());

/// What one [`counted`] call allocated, in bytes.
struct Counts {
    /// The most it held at once, over what was allocated when it started.
    peak: usize,
    /// Its largest single allocation.
    largest: usize,
    /// All its allocations added up, freed or not.
    total: usize,
    /// How many allocations it made (a reallocation counts as one).
    allocations: usize,
}

/// Runs `f` and returns its result and what it allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    TOTAL.store(0, Ordering::Relaxed);
    ALLOCATIONS.store(0, Ordering::Relaxed);
    let out = f();
    let counts = Counts {
        peak: PEAK.load(Ordering::Relaxed) - before,
        largest: LARGEST.load(Ordering::Relaxed),
        total: TOTAL.load(Ordering::Relaxed),
        allocations: ALLOCATIONS.load(Ordering::Relaxed),
    };
    (out, counts)
}

// ---- The generated function ---------------------------------------------------

const LOCALS: u32 = 16;

/// `f(i32) -> i32` made of `segments` copies of one shape: a loop nest two
/// deep over sixteen locals, with a three-way `br_table` into a block nest
/// and an `if`/`else` in the inner body. Every loop runs twice, so a call
/// costs a few dozen instructions per segment whatever the size.
fn segmented_module(segments: u32) -> Module {
    let mut c = CodeBuilder::new();
    // Locals 1 and 2 count the loops down; 0 and 3.. carry the data.
    let data = |k: u32| match k % (LOCALS - 2) {
        0 => 0,
        r => r + 2,
    };
    for s in 0..segments {
        let [a, b, d, e] = [data(s), data(s + 1), data(s + 5), data(s + 9)];
        c.i32_const(2).local_set(1).loop_(BlockType::Empty);
        c.i32_const(2).local_set(2).loop_(BlockType::Empty);
        c.local_get(a).local_get(b).op(Opcode::I32Add).i32_const(s as i32 | 1).op(Opcode::I32Xor).local_set(a);
        c.block(BlockType::Empty).block(BlockType::Empty).block(BlockType::Empty);
        c.local_get(a).i32_const(3).op(Opcode::I32And).br_table(&[0, 1, 2], 0).end();
        c.local_get(d).i32_const(1).op(Opcode::I32Add).local_set(d).end();
        c.local_get(e).local_get(a).op(Opcode::I32Sub).local_set(e).end();
        c.local_get(a).i32_const(1).op(Opcode::I32And).if_(BlockType::Empty);
        c.local_get(b).i32_const(7).op(Opcode::I32Mul).local_set(b).else_();
        c.local_get(d).local_get(e).op(Opcode::I32Xor).local_set(d).end();
        c.local_get(2).i32_const(1).op(Opcode::I32Sub).local_tee(2).br_if(0).end();
        c.local_get(1).i32_const(1).op(Opcode::I32Sub).local_tee(1).br_if(0).end();
    }
    c.local_get(0);
    for local in 3..LOCALS {
        c.local_get(local).op(Opcode::I32Xor);
    }
    let mut b = ModuleBuilder::new();
    let f = b.add_func(
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32; LOCALS as usize - 1],
        c.finish(),
    );
    b.export_func("f", f);
    b.finish()
}

/// What the frontend's IR of `module`'s function holds: nodes + blocks +
/// edge arguments (one per carried local and stack value per edge, before
/// any is pruned).
fn ir_size(module: &Module) -> usize {
    let info = wasm::validate::validate(module).expect("generated module validates");
    let ir = frontend::build(module, 0, &info.funcs[0], &ProbeSites::none(), ProbeMode::Optimized, false, false)
        .expect("generated body builds");
    let mut edge_args = 0;
    for block in &ir.blocks {
        block.term.for_each_edge(|e| edge_args += e.args.len());
    }
    ir.nodes.len() + ir.blocks.len() + edge_args
}

/// Compiles the function of `module` with `compile` under the counting
/// allocator.
fn counted_compile<T, E: std::fmt::Debug>(
    module: &Module,
    compile: impl FnOnce(&Module, &FuncInfo) -> Result<T, E>,
) -> Counts {
    let info = wasm::validate::validate(module).expect("generated module validates");
    let (compiled, counts) = counted(|| compile(module, &info.funcs[0]));
    compiled.expect("generated body compiles");
    counts
}

/// What the optimizing tier allocates for the function of `module`.
fn optimizing(module: &Module) -> Counts {
    counted_compile(module, |module, info| {
        OptimizingCompiler::default().compile(module, 0, info, &ProbeSites::none(), None)
    })
}

/// What the baseline compiler (`allopt`) allocates for it.
fn baseline(module: &Module) -> Counts {
    counted_compile(module, |module, info| {
        SinglePassCompiler::new(CompilerOptions::allopt()).compile(module, 0, info, &ProbeSites::none())
    })
}

/// Both tiers' peak and cumulative heap grow about as the function does, and
/// the optimizing tier's largest single allocation is bounded by the body's
/// size in bytes — something no change to the compiler shrinks, unlike the
/// IR, which shrinks with every parameter the frontend stops creating. The
/// baseline compiler allocates per function, not per instruction: eight
/// times the body may take at most 64 more allocations (the buffers that
/// grow by doubling grow three more times), where one per instruction or
/// per construct would be thousands.
#[test]
fn compile_memory_is_linear_in_function_size() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (segmented_module(150), segmented_module(1200));
    let (small_ir, large_ir) = (ir_size(&small), ir_size(&large));
    assert!(
        (7 * small_ir..9 * small_ir).contains(&large_ir),
        "the generator is not the same shape at 8x: IR sizes {small_ir} and {large_ir}"
    );
    let (small_opt, large_opt) = (optimizing(&small), optimizing(&large));
    let (small_spc, large_spc) = (baseline(&small), baseline(&large));
    assert!(
        large_spc.allocations <= small_spc.allocations + 64,
        "baseline: {} allocations for an 8x function against {}",
        large_spc.allocations,
        small_spc.allocations
    );
    for (tier, small, large) in [
        ("optimizing", &small_opt, &large_opt),
        ("baseline", &small_spc, &large_spc),
    ] {
        for (what, small, large) in
            [("peak heap", small.peak, large.peak), ("allocated bytes", small.total, large.total)]
        {
            assert!(
                large <= 10 * small,
                "{tier}: {what} grew {:.1}x for an 8x function ({small} B -> {large} B)",
                large as f64 / small as f64
            );
        }
    }
    // The largest tables today (the node table, the instruction buffer,
    // each a `Vec` grown by doubling) are at most 17.5 bytes per body byte; a
    // blocks × values bitset would be over a thousand at the larger size.
    for (largest, module) in [(small_opt.largest, &small), (large_opt.largest, &large)] {
        let body = module.funcs[0].code.len();
        assert!(
            largest <= 32 * body,
            "one allocation of {largest} B for a body of {body} B"
        );
    }
}

/// Appends one construct to a body.
type Shape = fn(&mut CodeBuilder);

/// A function `f` of `blocks` copies of `shape` over `locals` `i32` locals
/// that it never writes.
fn unwritten_locals_module(shape: Shape, locals: usize, blocks: u32) -> Module {
    let mut c = CodeBuilder::new();
    for _ in 0..blocks {
        shape(&mut c);
    }
    let mut b = ModuleBuilder::new();
    let f = b.add_func(FuncType::new(vec![], vec![]), vec![ValueType::I32; locals], c.finish());
    b.export_func("f", f);
    b.finish()
}

/// The three constructs the bomb tests repeat: a block left by a folded
/// branch (so its end is reached only by that branch), an `if` on a
/// constant, and an empty loop.
const MERGE_SHAPES: [(&str, Shape); 3] = [
    ("block i32.const 1 br_if 0 end", |c| {
        c.block(BlockType::Empty).i32_const(1).br_if(0).end();
    }),
    ("i32.const 1 if end", |c| {
        c.i32_const(1).if_(BlockType::Empty).end();
    }),
    ("loop end", |c| {
        c.loop_(BlockType::Empty).end();
    }),
];

/// The paper's §III "JIT bomb", aimed at the optimizing tier: a few KB of
/// merges over tens of thousands of locals. A merge block carries only the
/// locals its construct assigns, so locals the body never writes cost the
/// compile one frame layout's worth of memory, not one parameter per local
/// per merge (that would be 4 GiB for the first two shapes here and 7.6 GiB
/// for the third). The heap at 50 000 locals may be at most 4× that at 50,
/// plus 128 B per local.
///
/// The baseline compiler's cost of the same bomb is time, not memory:
/// [`baseline_compile_time_does_not_grow_with_unwritten_locals`].
#[test]
fn unwritten_locals_cost_the_optimizing_tier_nothing_per_merge() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    const MANY: usize = 50_000;
    for (shape_name, shape) in MERGE_SHAPES {
        let [few, many] =
            [50, MANY].map(|locals| optimizing(&unwritten_locals_module(shape, locals, 1000)).peak);
        assert!(
            many <= 4 * few + 128 * MANY,
            "1000 × `{shape_name}`: peak heap {many} B at {MANY} locals against {few} B at 50"
        );
    }
}

/// The same bomb aimed at the baseline compiler. Its abstract state lists
/// only the slots that depart from the canonical "in memory" state, so a
/// merge walks what the code since the last merge touched, not every local:
/// compiling B merges over 50 000 never-written locals may take at most 4×
/// as long as over 50 (fastest of three compiles each). Walking every local
/// at every merge took 625× and 770× as long at B = 1 000 and 10 000.
#[test]
fn baseline_compile_time_does_not_grow_with_unwritten_locals() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let fastest = |module: &Module| {
        let info = wasm::validate::validate(module).expect("generated module validates");
        let compiler = SinglePassCompiler::new(CompilerOptions::allopt());
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                compiler
                    .compile(module, 0, &info.funcs[0], &ProbeSites::none())
                    .expect("generated body compiles");
                start.elapsed()
            })
            .min()
            .expect("three compiles")
    };
    for (shape_name, shape) in MERGE_SHAPES {
        for blocks in [1_000, 10_000] {
            let few = fastest(&unwritten_locals_module(shape, 50, blocks));
            let many = fastest(&unwritten_locals_module(shape, 50_000, blocks));
            assert!(
                many <= 4 * few,
                "{blocks} × `{shape_name}`: {many:?} at 50 000 locals against {few:?} at 50 ({:.0}x)",
                many.as_secs_f64() / few.as_secs_f64()
            );
        }
    }
}

/// The largest of those functions — 10 000 merges over 50 000 locals —
/// compiles in both tiers and runs to the same end in every execution
/// configuration.
#[test]
fn a_10_000_merge_function_over_50_000_locals_runs_through_all_five_configurations() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let module = unwritten_locals_module(MERGE_SHAPES[0].1, 50_000, 10_000);
    let info = wasm::validate::validate(&module).expect("generated module validates");
    SinglePassCompiler::new(CompilerOptions::allopt())
        .compile(&module, 0, &info.funcs[0], &ProbeSites::none())
        .expect("the baseline tier compiles it");
    OptimizingCompiler::default()
        .compile(&module, 0, &info.funcs[0], &ProbeSites::none(), None)
        .expect("the optimizing tier compiles it");
    let configs = conform::runner::all_configs();
    assert_eq!(configs.len(), 5);
    for config in configs {
        let name = config.name.clone();
        let engine = engine::Engine::new(config);
        let mut instance = engine
            .instantiate(&module, engine::Imports::new(), engine::Instrumentation::none())
            .expect("instantiates");
        // Three calls take the tiered configurations into their top tier.
        for call in 0..3 {
            let result = engine.call_export(&mut instance, "f", &[]);
            assert_eq!(result, Ok(vec![]), "[{name}] call {call}");
        }
    }
}

/// One straight-line block of `n` copies of `local.get 0; i32.const k;
/// i32.add; local.set 1`, every `k` different: `n` definitions that value
/// numbering must tell apart.
fn distinct_definitions_module(n: u32) -> Module {
    let mut c = CodeBuilder::new();
    for k in 0..n {
        c.local_get(0).i32_const(k as i32).op(Opcode::I32Add).local_set(1);
    }
    let mut b = ModuleBuilder::new();
    b.add_func(FuncType::new(vec![ValueType::I32], vec![]), vec![ValueType::I32], c.finish());
    b.finish()
}

/// One straight-line block of `n` `i32.load`s from the same address, the
/// `k`-th at offset `k << 18`: keys for value numbering that differ only in
/// their high bits, where a multiplicative hash without its high half
/// would put every one in the same bucket.
fn high_bit_offsets_module(n: u32) -> Module {
    let mut c = CodeBuilder::new();
    for k in 0..n {
        c.local_get(0).mem(Opcode::I32Load, 2, k << 18).local_set(1);
    }
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(1));
    b.add_func(FuncType::new(vec![ValueType::I32], vec![]), vec![ValueType::I32], c.finish());
    b.finish()
}

/// One straight-line block of `global.get k; local.set 0` for `n` distinct
/// globals: keys for value numbering that a module chooses outright.
fn distinct_globals_module(n: u32) -> Module {
    let mut c = CodeBuilder::new();
    for k in 0..n {
        c.global_get(k).local_set(0);
    }
    let mut b = ModuleBuilder::new();
    for k in 0..n {
        b.add_global(GlobalType::mutable(ValueType::I32), ConstExpr::I32(k as i32));
    }
    b.add_func(FuncType::new(vec![], vec![]), vec![ValueType::I32], c.finish());
    b.finish()
}

/// `n` pushes of `local.get 0; i32.const k; i32.add`, then `n - 1` adds:
/// `n` values live at once, nearly all of them spilled.
fn live_values_module(n: u32) -> Module {
    let mut c = CodeBuilder::new();
    for k in 0..n {
        c.local_get(0).i32_const(k as i32).op(Opcode::I32Add);
    }
    for _ in 1..n {
        c.op(Opcode::I32Add);
    }
    let mut b = ModuleBuilder::new();
    b.add_func(FuncType::new(vec![ValueType::I32], vec![ValueType::I32]), vec![], c.finish());
    b.finish()
}

/// The optimizing tier in time, on the two block shapes whose cost grew
/// with the square of their length: value numbering scanned everything
/// available for every definition, and the allocator scanned every spill
/// slot for every spill. Four times the body may take at most eight times
/// as long (linear is about 4.3×, the quadratic passes about 15×); each
/// size is the fastest of three compiles, each tens of milliseconds. Two
/// more shapes hold value numbering's hash to keys the module picks: load
/// offsets that differ only in high bits, and distinct global indices.
#[test]
fn optimizing_compile_time_is_linear_in_block_length() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    type Generator = fn(u32) -> Module;
    let shapes: [(&str, Generator); 4] = [
        ("distinct definitions", distinct_definitions_module),
        ("values live at once", live_values_module),
        ("loads at high-bit offsets", high_bit_offsets_module),
        ("distinct globals", distinct_globals_module),
    ];
    for (shape, module) in shapes {
        let fastest = |n: u32| {
            let module = module(n);
            let info = wasm::validate::validate(&module).expect("generated module validates");
            (0..3)
                .map(|_| {
                    let start = std::time::Instant::now();
                    OptimizingCompiler::default()
                        .compile(&module, 0, &info.funcs[0], &ProbeSites::none(), None)
                        .expect("generated body compiles");
                    start.elapsed()
                })
                .min()
                .expect("three compiles")
        };
        let (small, large) = (fastest(4_000), fastest(16_000));
        assert!(
            large <= 8 * small,
            "{shape}: 4x the body took {:.1}x as long ({small:?} -> {large:?})",
            large.as_secs_f64() / small.as_secs_f64()
        );
    }
}

/// The decoded-instruction walk every tier but the interpreter is built on
/// hands out a `br_table`'s targets and a typed `select`'s types as views
/// over the body: walking a body — every immediate shape, a 1 000-target
/// table included — and reading every view to its end allocates nothing.
#[test]
fn decoding_a_body_allocates_nothing() {
    use wasm::reader::{BytecodeReader, Imm};
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let mut c = CodeBuilder::new();
    c.block(BlockType::Empty).local_get(0).br_table(&[0; 1000], 0).end();
    c.i32_const(1).i32_const(2).local_get(0).select_t(&[ValueType::I32]);
    let mut bodies = vec![c.finish()];
    bodies.extend(conform::coverage::exhaustive_module().funcs.iter().map(|f| f.code.clone()));
    let (walked, counts) = counted(|| {
        let mut walked = (0usize, 0usize, 0usize);
        for instr in bodies.iter().flat_map(|code| BytecodeReader::new(code)) {
            walked.0 += 1;
            match instr.expect("well-formed body").imm {
                Imm::Table(table) => walked.1 += table.targets_and_default().count(),
                Imm::Select(types) => walked.2 += types.iter().count(),
                _ => {}
            }
        }
        walked
    });
    assert!(walked.0 > 500 && walked.1 > 1001 && walked.2 > 1, "{walked:?}");
    assert_eq!(counts.total, 0, "the walk allocated (largest request {} B)", counts.largest);
}

/// One 256 KiB function — sixteen times the largest body of the benchmark
/// corpus — through every execution configuration: nothing in the compile
/// path may be quadratic enough, or recursive enough, to fall over on it.
#[test]
fn a_256_kib_function_runs_through_all_five_configurations() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let module = segmented_module(2700);
    let code_len = module.funcs[0].code.len();
    assert!((256 << 10..288 << 10).contains(&code_len), "body is {code_len} bytes");
    let run = |config: engine::EngineConfig| {
        let engine = engine::Engine::new(config);
        let mut instance = engine
            .instantiate(&module, engine::Imports::new(), engine::Instrumentation::none())
            .expect("instantiates");
        // Three calls take the tiered configurations into their top tier.
        [5, -9, 1 << 20].map(|arg| {
            engine.call_export(&mut instance, "f", &[machine::values::WasmValue::I32(arg)])
        })
    };
    let configs = conform::runner::all_configs();
    assert_eq!(configs.len(), 5);
    let expected = run(configs[0].clone());
    assert!(expected.iter().all(Result::is_ok), "{expected:?}");
    for config in configs {
        let name = config.name.clone();
        assert_eq!(run(config), expected, "[{name}]");
    }
}
