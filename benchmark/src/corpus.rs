//! The seeded module generator behind the load and cold-start workloads.
//!
//! The suites total ~16 KiB of Wasm, so every compile-side wall-clock number
//! taken on them is fixed cost. The corpus is 24 modules in three size classes
//! (16 × 8 KiB, 6 × 64 KiB, 2 × 512 KiB ≈ 1.5 MiB): large enough that decode,
//! validate, sidetable, compile and emission each take milliseconds.
//!
//! What the seed decides and what it does not. A module's *shape* is fixed:
//! function sizes come from a half-octave ladder (32 B … 16 KiB, log-uniform
//! by construction), flavours (integer, float, memory, control, mixed) are
//! dealt round-robin down the ladder, the order of the functions is one fixed
//! shuffle per module, and every body is steered to the same estimated
//! cycles per byte. Drawn per seed instead, compile throughput, the balance
//! between two compile workers and the cycles `check` executes differed
//! between seeds by 5–10% — more than any useful bound. The seed decides each
//! function's content (which idioms, operators, constants, locals, offsets,
//! trip counts) and the data segment.
//!
//! Every module exports `main` (reads back the data, globals and table that
//! instantiation set up; cheap, so a cold-start op is dominated by
//! instantiation) and `check` (calls every function, so one call's result
//! covers all emitted code). Generated code
//! cannot trap: addresses are masked, divisors are or-ed with 1 and unsigned,
//! floats reach integers only through reinterpretation, calls only go to
//! lower function indices.

use crate::rng::Rng;
use crate::sut::{
    BlockType, CodeBuilder, ConstExpr, FuncType, GlobalType, Limits, Module, ModuleBuilder, Opcode,
    ValueType,
};

/// The size classes: (modules, target encoded bytes, class name).
pub const CLASSES: [(usize, usize, &str); 3] = [
    (16, 8 << 10, "8k"),
    (6, 64 << 10, "64k"),
    (2, 512 << 10, "512k"),
];

/// Seed of what no `--seed` changes: which flavour each function size gets
/// and the order of the functions in each module.
const SHAPE: u64 = 0x5348_4150;

/// The entry a cold-start op calls.
pub const MAIN: &str = "main";
/// The entry that runs every function once.
pub const CHECK: &str = "check";

/// One generated module, as the bytes a user would hand the engine.
#[derive(Debug, Clone)]
pub struct CorpusModule {
    /// `"<class>-<n>"`, unique within a corpus.
    pub name: String,
    /// The binary encoding.
    pub bytes: Vec<u8>,
}

/// Generates the corpus for `seed`, small modules first.
pub fn generate(seed: u64) -> Vec<CorpusModule> {
    let mut out = Vec::new();
    for (class, &(count, target, label)) in CLASSES.iter().enumerate() {
        for n in 0..count {
            let stream = 0x1000 + (class as u64) * 64 + n as u64;
            let module = generate_module(
                &mut Rng::new(seed, stream),
                &mut Rng::new(SHAPE, stream),
                target,
            );
            out.push(CorpusModule {
                name: format!("{label}-{n}"),
                bytes: crate::sut::encode(&module),
            });
        }
    }
    out
}

// ---- Module assembly --------------------------------------------------------

/// Entries in the indirect-call table (a power of two, so an index is one
/// `and` away from being in range).
const TABLE_LEN: u32 = 8;
/// A function may be a callee only if one call of it costs at most this many
/// estimated cycles; keeps the cost of `check` proportional to module size.
const CALLEE_MAX_COST: u64 = 800;
/// Estimated cycles a body executes per byte of its code when called once.
const CYCLES_PER_BYTE: f64 = 3.0;

/// Body sizes that sum to about `code_bytes`: the half-octave ladder from
/// 32 B up to `cap`, walked from the top as often as it fits.
fn size_ladder(code_bytes: usize, cap: usize) -> Vec<usize> {
    let mut ladder = Vec::new();
    let mut half_octaves = 0;
    loop {
        let size = (32.0 * 2f64.powf(half_octaves as f64 / 2.0)).round() as usize;
        if size > cap {
            break;
        }
        ladder.push(size);
        half_octaves += 1;
    }
    let mut sizes = Vec::new();
    let mut remaining = code_bytes;
    while remaining >= ladder[0] {
        for &size in ladder.iter().rev() {
            if size <= remaining {
                sizes.push(size);
                remaining -= size;
            }
        }
    }
    sizes
}

fn func_type() -> FuncType {
    FuncType::new(vec![ValueType::I32], vec![ValueType::I32])
}

fn generate_module(rng: &mut Rng, shape: &mut Rng, target_bytes: usize) -> Module {
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(2));
    b.add_table(ValueType::FuncRef, Limits::bounded(TABLE_LEN, TABLE_LEN));
    b.add_global(
        GlobalType::mutable(ValueType::I32),
        ConstExpr::I32(rng.next_u64() as i32),
    );
    b.add_global(
        GlobalType::mutable(ValueType::I64),
        ConstExpr::I64(rng.next_u64() as i64),
    );
    b.add_global(
        GlobalType::mutable(ValueType::F32),
        ConstExpr::F32(rng.below(1 << 20) as f32),
    );
    b.add_global(
        GlobalType::mutable(ValueType::F64),
        ConstExpr::F64(rng.below(1 << 20) as f64),
    );
    let data_len = target_bytes / 16;
    let data: Vec<u8> = (0..data_len).map(|_| rng.next_u64() as u8).collect();
    b.add_data(0, ConstExpr::I32(0), data);

    // The table's members: tiny leaf functions, generated first so every
    // later function may call through the table.
    let mut callees: Vec<(u32, u64)> = Vec::new();
    let mut table = Vec::new();
    for _ in 0..TABLE_LEN {
        let (code, cost) = FuncGen::new(rng, 0, &[], false).function(40);
        let index = b.add_func(func_type(), FuncGen::locals(), code);
        callees.push((index, cost));
        table.push(index);
    }
    b.add_elem(0, ConstExpr::I32(0), table);

    // What is left for generated bodies once the data segment, the table
    // helpers, the two entry functions (~10 B per call) and the section
    // framing (~6 B per function) are paid for. Bodies overshoot their target
    // by part of a segment; the 0.99 takes that back.
    let fixed = data_len + 700;
    let per_func_overhead = 16;
    let cap = (target_bytes / 4).min(16 << 10);
    let overhead = size_ladder(target_bytes.saturating_sub(fixed), cap).len() * per_func_overhead;
    let budget = (target_bytes.saturating_sub(fixed + overhead) as f64 * 0.99) as usize;
    // Flavours are dealt round-robin down the ladder, not drawn: every size
    // bucket gets every flavour equally often. (A ladder walk has 19 rungs,
    // so successive walks start on a different flavour.)
    let first_flavour = shape.below(FLAVOURS.len() as u32) as usize;
    let mut plan: Vec<(usize, usize)> = size_ladder(budget, cap)
        .into_iter()
        .enumerate()
        .map(|(k, size)| (size, (first_flavour + k) % FLAVOURS.len()))
        .collect();
    // The order of sizes is part of the corpus's fixed shape too: eager
    // compilation deals functions to its workers by index, so the order
    // decides how evenly two workers are loaded, and a per-seed order made
    // `load-opt-par` differ between seeds by ±10%. One shuffle per module,
    // the same for every seed.
    shape.shuffle(&mut plan);

    let mut all = callees.iter().map(|&(index, _)| index).collect::<Vec<_>>();
    for &(size, flavour) in &plan {
        let (code, cost) = FuncGen::new(rng, flavour, &callees, true).function(size);
        let index = b.add_func(func_type(), FuncGen::locals(), code);
        if cost <= CALLEE_MAX_COST {
            callees.push((index, cost));
        }
        all.push(index);
    }

    let entry_type = || FuncType::new(vec![], vec![ValueType::I32]);
    let main = b.add_func(entry_type(), vec![ValueType::I32], main_body(rng, data_len));
    b.export_func(MAIN, main);
    let check = b.add_func(entry_type(), vec![ValueType::I32], check_body(rng, &all));
    b.export_func(CHECK, check);
    b.finish()
}

/// Pushes `rotl(acc, 5)`, runs `value` to push an i32, and folds it in:
/// the result depends on every value and on their order.
fn fold(c: &mut CodeBuilder, value: impl FnOnce(&mut CodeBuilder)) {
    c.local_get(0).i32_const(5).op(Opcode::I32Rotl);
    value(c);
    c.op(Opcode::I32Xor).local_set(0);
}

/// `main` reads back what instantiation set up — data segment words, every
/// global, every table slot (by calling through it) — so its result vouches
/// for the instance a cold start built. The same instructions for every
/// seed: a cold-start op's simulated cycles do not depend on the seed.
fn main_body(rng: &mut Rng, data_len: usize) -> Vec<u8> {
    let mut c = CodeBuilder::new();
    for _ in 0..8 {
        let offset = rng.below(data_len as u32 / 4 - 1) * 4;
        fold(&mut c, |c| {
            c.i32_const(0).mem(Opcode::I32Load, 2, offset);
        });
    }
    fold(&mut c, |c| {
        c.global_get(0);
    });
    fold(&mut c, |c| {
        c.global_get(1).op(Opcode::I32WrapI64);
    });
    fold(&mut c, |c| {
        c.global_get(2).op(Opcode::I32ReinterpretF32);
    });
    fold(&mut c, |c| {
        c.global_get(3)
            .op(Opcode::I64ReinterpretF64)
            .op(Opcode::I32WrapI64);
    });
    for slot in 0..TABLE_LEN {
        let argument = wide_i32(rng);
        fold(&mut c, |c| {
            c.i32_const(argument)
                .i32_const(slot as i32)
                .call_indirect(0, 0);
        });
    }
    c.local_get(0);
    c.finish()
}

/// `check` calls every function once.
fn check_body(rng: &mut Rng, targets: &[u32]) -> Vec<u8> {
    let mut c = CodeBuilder::new();
    for &target in targets {
        let argument = wide_i32(rng);
        fold(&mut c, |c| {
            c.i32_const(argument).call(target);
        });
    }
    c.local_get(0);
    c.finish()
}

/// A constant whose signed LEB128 form is always 4 bytes and that no
/// strength reduction special-cases (odd, far from a power of two).
fn wide_i32(rng: &mut Rng) -> i32 {
    ((1 << 20) + rng.below((1 << 26) - (1 << 20))) as i32 | 1
}

// ---- Function bodies --------------------------------------------------------

/// What the engine's cost model charges for `op` in compiled code, to the
/// precision steering needs: an estimate, not the cost table.
fn op_cycles(op: Opcode) -> u64 {
    use Opcode::*;
    match op {
        I32Mul | I64Mul => 3,
        I32DivS | I32DivU | I32RemU | I64DivU | I64RemU | F32Div | F64Div => 12,
        F32Sqrt | F64Sqrt => 15,
        F32Add | F32Sub | F32Mul | F32Min | F32Max | F32Copysign | F32Abs | F32Neg | F32Ceil
        | F32Floor | F32Trunc | F32Nearest | F64Add | F64Sub | F64Mul | F64Min | F64Max
        | F64Copysign | F64Abs | F64Neg | F64Ceil | F64Floor | F64Trunc | F64Nearest => 3,
        F32ConvertI32S | F64ConvertI32U | F64ConvertI64S | F32DemoteF64 | F64PromoteF32 => 3,
        I32Load | I32Load8U | I32Load16S | I64Load | I64Load32U | I64Load8S | F32Load | F64Load
        | I32Store | I32Store8 | I32Store16 | I64Store | I64Store32 | I64Store16 | F32Store
        | F64Store => 3,
        Call => 25,
        CallIndirect => 35,
        _ => 1,
    }
}

// Local layout of every generated function: the i32 parameter, then the
// declared locals below.
const I32S: [u32; 5] = [0, 1, 2, 3, 4];
/// The writable ones: the parameter stays intact so every segment keeps
/// depending on the argument.
const I32_DESTS: [u32; 4] = [1, 2, 3, 4];
const COUNTERS: [u32; 2] = [5, 6];
const I64S: [u32; 3] = [7, 8, 9];
const F32S: [u32; 2] = [10, 11];
const F64S: [u32; 2] = [12, 13];

const I32_BIN: [Opcode; 11] = [
    Opcode::I32Add,
    Opcode::I32Sub,
    Opcode::I32Mul,
    Opcode::I32And,
    Opcode::I32Or,
    Opcode::I32Xor,
    Opcode::I32Shl,
    Opcode::I32ShrS,
    Opcode::I32ShrU,
    Opcode::I32Rotl,
    Opcode::I32Rotr,
];
const I32_UN: [Opcode; 5] = [
    Opcode::I32Clz,
    Opcode::I32Ctz,
    Opcode::I32Popcnt,
    Opcode::I32Extend8S,
    Opcode::I32Extend16S,
];
const I32_CMP: [Opcode; 6] = [
    Opcode::I32Eq,
    Opcode::I32Ne,
    Opcode::I32LtS,
    Opcode::I32LtU,
    Opcode::I32GeS,
    Opcode::I32GtU,
];
const I64_BIN: [Opcode; 11] = [
    Opcode::I64Add,
    Opcode::I64Sub,
    Opcode::I64Mul,
    Opcode::I64And,
    Opcode::I64Or,
    Opcode::I64Xor,
    Opcode::I64Shl,
    Opcode::I64ShrS,
    Opcode::I64ShrU,
    Opcode::I64Rotl,
    Opcode::I64Rotr,
];
const F32_BIN: [Opcode; 7] = [
    Opcode::F32Add,
    Opcode::F32Sub,
    Opcode::F32Mul,
    Opcode::F32Div,
    Opcode::F32Min,
    Opcode::F32Max,
    Opcode::F32Copysign,
];
const F32_UN: [Opcode; 6] = [
    Opcode::F32Abs,
    Opcode::F32Neg,
    Opcode::F32Ceil,
    Opcode::F32Floor,
    Opcode::F32Trunc,
    Opcode::F32Nearest,
];
const F64_BIN: [Opcode; 7] = [
    Opcode::F64Add,
    Opcode::F64Sub,
    Opcode::F64Mul,
    Opcode::F64Div,
    Opcode::F64Min,
    Opcode::F64Max,
    Opcode::F64Copysign,
];
const F64_UN: [Opcode; 6] = [
    Opcode::F64Abs,
    Opcode::F64Neg,
    Opcode::F64Ceil,
    Opcode::F64Floor,
    Opcode::F64Trunc,
    Opcode::F64Nearest,
];

/// The straight-line and control idioms a body is assembled from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Segment {
    I32Chain,
    I64Chain,
    F32Chain,
    F64Chain,
    Memory,
    Global,
    Loop,
    IfElse,
    BrIf,
    BrTable,
    Call,
    CallIndirect,
}

/// Segment weights of the five function flavours (integer, float, memory,
/// control, mixed); a function draws one flavour, so run time is spread
/// unevenly over functions the way it is in real modules.
const FLAVOURS: [[(Segment, u32); 12]; 5] = {
    use Segment::*;
    [
        [
            (I32Chain, 40),
            (I64Chain, 25),
            (F32Chain, 0),
            (F64Chain, 0),
            (Memory, 8),
            (Global, 3),
            (Loop, 10),
            (IfElse, 4),
            (BrIf, 4),
            (BrTable, 2),
            (Call, 2),
            (CallIndirect, 2),
        ],
        [
            (I32Chain, 8),
            (I64Chain, 4),
            (F32Chain, 30),
            (F64Chain, 35),
            (Memory, 6),
            (Global, 3),
            (Loop, 8),
            (IfElse, 2),
            (BrIf, 2),
            (BrTable, 0),
            (Call, 1),
            (CallIndirect, 1),
        ],
        [
            (I32Chain, 15),
            (I64Chain, 5),
            (F32Chain, 3),
            (F64Chain, 5),
            (Memory, 45),
            (Global, 5),
            (Loop, 15),
            (IfElse, 2),
            (BrIf, 2),
            (BrTable, 1),
            (Call, 1),
            (CallIndirect, 1),
        ],
        [
            (I32Chain, 20),
            (I64Chain, 5),
            (F32Chain, 2),
            (F64Chain, 3),
            (Memory, 8),
            (Global, 2),
            (Loop, 15),
            (IfElse, 12),
            (BrIf, 12),
            (BrTable, 10),
            (Call, 6),
            (CallIndirect, 5),
        ],
        [
            (I32Chain, 20),
            (I64Chain, 12),
            (F32Chain, 10),
            (F64Chain, 12),
            (Memory, 14),
            (Global, 4),
            (Loop, 12),
            (IfElse, 4),
            (BrIf, 4),
            (BrTable, 3),
            (Call, 3),
            (CallIndirect, 2),
        ],
    ]
};

struct FuncGen<'a> {
    rng: &'a mut Rng,
    c: CodeBuilder,
    weights: [(Segment, u32); 12],
    /// `(function index, estimated cycles of one call)` of callable
    /// functions.
    callees: &'a [(u32, u64)],
    has_table: bool,
    loop_depth: usize,
    /// Product of the trip counts of the enclosing loops.
    multiplier: u64,
    /// Estimated cycles one call of this function executes.
    cost: u64,
}

impl<'a> FuncGen<'a> {
    fn new(
        rng: &'a mut Rng,
        flavour: usize,
        callees: &'a [(u32, u64)],
        has_table: bool,
    ) -> FuncGen<'a> {
        FuncGen {
            rng,
            c: CodeBuilder::new(),
            weights: FLAVOURS[flavour],
            callees,
            has_table,
            loop_depth: 0,
            multiplier: 1,
            cost: 0,
        }
    }

    /// The declared locals of every generated function (see the layout
    /// constants above).
    fn locals() -> Vec<ValueType> {
        let mut locals = vec![ValueType::I32; 6];
        locals.extend([ValueType::I64; 3]);
        locals.extend([ValueType::F32; 2]);
        locals.extend([ValueType::F64; 2]);
        locals
    }

    /// Charges `instructions` executed once per trip of the enclosing loops,
    /// at two cycles each: the operation and about one move to or from a
    /// local's slot.
    fn charge(&mut self, instructions: u64) {
        self.cost += 2 * instructions * self.multiplier;
    }

    /// Charges what `ops` cost beyond the cycle [`FuncGen::charge`] already
    /// counted for each.
    fn charge_ops(&mut self, ops: &[Opcode]) {
        let extra: u64 = ops.iter().map(|&op| op_cycles(op) - 1).sum();
        self.cost += extra * self.multiplier;
    }

    /// Generates a body of about `target` bytes; returns it with the
    /// estimated cycles one call of it executes.
    fn function(mut self, target: usize) -> (Vec<u8>, u64) {
        if target < 96 {
            // Too small for the prologue: a straight i32 chain on the
            // parameter.
            self.c.local_get(0);
            self.charge(1);
            while self.c.len() + 7 < target {
                let k = wide_i32(self.rng);
                let op = self.rng.pick(&I32_BIN);
                self.c.i32_const(k).op(op);
                self.charge(2);
            }
            return (self.c.finish(), self.cost);
        }
        self.prologue();
        const EPILOGUE_BYTES: usize = 44;
        while self.c.len() + EPILOGUE_BYTES < target {
            self.segment();
        }
        self.epilogue();
        (self.c.finish(), self.cost)
    }

    /// Spreads the parameter over one local of each type.
    fn prologue(&mut self) {
        let (k1, k2, k3) = (wide_i32(self.rng), wide_i32(self.rng), wide_i32(self.rng));
        let c = &mut self.c;
        c.local_get(0)
            .i32_const(k1)
            .op(Opcode::I32Xor)
            .local_set(I32S[1]);
        c.local_get(0)
            .i32_const(k2)
            .op(Opcode::I32Mul)
            .local_tee(I32S[2]);
        c.op(Opcode::I64ExtendI32U)
            .i64_const(i64::from(k3))
            .op(Opcode::I64Mul)
            .local_set(I64S[0]);
        c.local_get(I32S[1])
            .op(Opcode::F32ConvertI32S)
            .local_set(F32S[0]);
        c.local_get(I32S[2])
            .op(Opcode::F64ConvertI32U)
            .local_set(F64S[0]);
        self.charge(18);
    }

    /// Folds every local into the i32 result.
    fn epilogue(&mut self) {
        let c = &mut self.c;
        c.local_get(I32S[1]);
        for &l in &I32S[2..] {
            c.local_get(l).op(Opcode::I32Xor);
        }
        c.local_get(I64S[0]);
        for &l in &I64S[1..] {
            c.local_get(l).op(Opcode::I64Xor);
        }
        for &l in &F64S {
            c.local_get(l)
                .op(Opcode::I64ReinterpretF64)
                .op(Opcode::I64Xor);
        }
        c.op(Opcode::I32WrapI64).op(Opcode::I32Xor);
        for &l in &F32S {
            c.local_get(l)
                .op(Opcode::I32ReinterpretF32)
                .op(Opcode::I32Xor);
        }
        self.charge(30);
    }

    fn segment(&mut self) {
        // Steer the body towards CYCLES_PER_BYTE: straight-line code costs
        // about one estimated cycle per byte, loops multiply that. Left to
        // chance, the cycles `check` executes would differ between seeds by
        // several percent; steered, a body's cost follows its size.
        if self.loop_depth == 0 {
            let budget = (self.c.len() as f64 * CYCLES_PER_BYTE) as u64;
            if self.cost < budget {
                return self.counted_loop();
            }
            if self.cost > budget + budget / 4 {
                return self.simple_segment();
            }
        }
        let total: u32 = self.weights.iter().map(|&(_, w)| w).sum();
        let mut draw = self.rng.below(total);
        let mut kind = Segment::I32Chain;
        for &(segment, weight) in &self.weights {
            if draw < weight {
                kind = segment;
                break;
            }
            draw -= weight;
        }
        match kind {
            Segment::I32Chain => self.i32_chain(),
            Segment::I64Chain => self.i64_chain(),
            Segment::F32Chain => self.f32_chain(),
            Segment::F64Chain => self.f64_chain(),
            Segment::Memory => self.memory(),
            Segment::Global => self.global(),
            Segment::Loop if self.loop_depth < COUNTERS.len() => self.counted_loop(),
            Segment::IfElse => self.if_else(),
            Segment::BrIf => self.br_if(),
            Segment::BrTable => self.br_table(),
            // Calls inside a doubly nested loop would multiply the callee's
            // cost by up to 36.
            Segment::Call if !self.callees.is_empty() && self.loop_depth < 2 => self.call(),
            Segment::CallIndirect if self.has_table && self.loop_depth < 2 => self.call_indirect(),
            Segment::Loop | Segment::Call | Segment::CallIndirect => self.i32_chain(),
        }
    }

    /// A straight-line segment, for the bodies of control constructs.
    fn simple_segment(&mut self) {
        match self.rng.below(6) {
            0 => self.i64_chain(),
            1 => self.f32_chain(),
            2 => self.f64_chain(),
            3 => self.memory(),
            _ => self.i32_chain(),
        }
    }

    fn i32_local(&mut self) -> u32 {
        self.rng.pick(&I32S)
    }

    fn i32_dest(&mut self) -> u32 {
        self.rng.pick(&I32_DESTS)
    }

    fn i32_chain(&mut self) {
        let (a, b, dest) = (self.i32_local(), self.i32_local(), self.i32_dest());
        match self.rng.below(10) {
            0 => {
                // Unsigned division by a value made odd: cannot trap.
                let op = self.rng.pick(&[Opcode::I32DivU, Opcode::I32RemU]);
                self.c
                    .local_get(a)
                    .local_get(b)
                    .i32_const(1)
                    .op(Opcode::I32Or)
                    .op(op);
                self.c.local_set(dest);
                self.charge(6);
                self.charge_ops(&[op]);
            }
            1 => {
                let (x, y) = (self.i32_local(), self.i32_local());
                let cmp = self.rng.pick(&I32_CMP);
                self.c
                    .local_get(a)
                    .local_get(b)
                    .local_get(x)
                    .local_get(y)
                    .op(cmp)
                    .select();
                self.c.local_set(dest);
                self.charge(7);
            }
            2 => {
                let un = self.rng.pick(&I32_UN);
                let op = self.rng.pick(&I32_BIN);
                self.c
                    .local_get(a)
                    .op(un)
                    .local_get(b)
                    .op(op)
                    .local_set(dest);
                self.charge(5);
                self.charge_ops(&[op]);
            }
            _ => {
                let (op1, op2) = (self.rng.pick(&I32_BIN), self.rng.pick(&I32_BIN));
                let k = wide_i32(self.rng);
                self.c
                    .local_get(a)
                    .local_get(b)
                    .op(op1)
                    .i32_const(k)
                    .op(op2)
                    .local_set(dest);
                self.charge(6);
                self.charge_ops(&[op1, op2]);
            }
        }
    }

    fn i64_chain(&mut self) {
        let (p, q, dest) = (
            self.rng.pick(&I64S),
            self.rng.pick(&I64S),
            self.rng.pick(&I64S),
        );
        match self.rng.below(8) {
            0 => {
                let a = self.i32_local();
                let extend = self
                    .rng
                    .pick(&[Opcode::I64ExtendI32S, Opcode::I64ExtendI32U]);
                let op = self.rng.pick(&I64_BIN);
                self.c
                    .local_get(a)
                    .op(extend)
                    .local_get(p)
                    .op(op)
                    .local_set(dest);
                self.charge(5);
                self.charge_ops(&[op]);
            }
            1 => {
                let (a, d) = (self.i32_local(), self.i32_dest());
                self.c
                    .local_get(p)
                    .op(Opcode::I32WrapI64)
                    .local_get(a)
                    .op(Opcode::I32Xor);
                self.c.local_set(d);
                self.charge(5);
            }
            2 => {
                let op = self.rng.pick(&[Opcode::I64DivU, Opcode::I64RemU]);
                self.c
                    .local_get(p)
                    .local_get(q)
                    .i64_const(1)
                    .op(Opcode::I64Or)
                    .op(op);
                self.c.local_set(dest);
                self.charge(6);
                self.charge_ops(&[op]);
            }
            _ => {
                let (op1, op2) = (self.rng.pick(&I64_BIN), self.rng.pick(&I64_BIN));
                let k = i64::from(wide_i32(self.rng)) << 16 | 1;
                self.c
                    .local_get(p)
                    .local_get(q)
                    .op(op1)
                    .i64_const(k)
                    .op(op2)
                    .local_set(dest);
                self.charge(6);
                self.charge_ops(&[op1, op2]);
            }
        }
    }

    fn f32_chain(&mut self) {
        let (s, t, dest) = (
            self.rng.pick(&F32S),
            self.rng.pick(&F32S),
            self.rng.pick(&F32S),
        );
        match self.rng.below(8) {
            0 => {
                // Re-seed from an integer so a NaN or infinity does not stay
                // in the local for the rest of the function.
                let a = self.i32_local();
                self.c
                    .local_get(a)
                    .op(Opcode::F32ConvertI32S)
                    .f32_const(0.001)
                    .op(Opcode::F32Mul);
                self.c.local_set(dest);
                self.charge(5);
                self.charge_ops(&[Opcode::F32ConvertI32S, Opcode::F32Mul]);
            }
            1 => {
                let (a, d) = (self.i32_local(), self.i32_dest());
                self.c
                    .local_get(s)
                    .op(Opcode::I32ReinterpretF32)
                    .local_get(a)
                    .op(Opcode::I32Xor);
                self.c.local_set(d);
                self.charge(5);
            }
            2 => {
                let un = self.rng.pick(&F32_UN);
                self.c
                    .local_get(s)
                    .op(Opcode::F32Abs)
                    .op(Opcode::F32Sqrt)
                    .local_get(t)
                    .op(un);
                self.c.op(Opcode::F32Add).local_set(dest);
                self.charge(7);
                self.charge_ops(&[Opcode::F32Abs, Opcode::F32Sqrt, un, Opcode::F32Add]);
            }
            3 => {
                let u = self.rng.pick(&F64S);
                self.c
                    .local_get(u)
                    .op(Opcode::F32DemoteF64)
                    .local_get(s)
                    .op(Opcode::F32Add);
                self.c.local_set(dest);
                self.charge(5);
                self.charge_ops(&[Opcode::F32DemoteF64, Opcode::F32Add]);
            }
            _ => {
                let (op1, op2) = (self.rng.pick(&F32_BIN), self.rng.pick(&F32_BIN));
                let k = self.rng.range(3, 4000) as f32 / 16.0;
                self.c
                    .local_get(s)
                    .local_get(t)
                    .op(op1)
                    .f32_const(k)
                    .op(op2)
                    .local_set(dest);
                self.charge(6);
                self.charge_ops(&[op1, op2]);
            }
        }
    }

    fn f64_chain(&mut self) {
        let (u, v, dest) = (
            self.rng.pick(&F64S),
            self.rng.pick(&F64S),
            self.rng.pick(&F64S),
        );
        match self.rng.below(8) {
            0 => {
                let p = self.rng.pick(&I64S);
                self.c
                    .local_get(p)
                    .op(Opcode::F64ConvertI64S)
                    .f64_const(1e-9)
                    .op(Opcode::F64Mul);
                self.c.local_set(dest);
                self.charge(5);
                self.charge_ops(&[Opcode::F64ConvertI64S, Opcode::F64Mul]);
            }
            1 => {
                let (p, d) = (self.rng.pick(&I64S), self.rng.pick(&I64S));
                self.c
                    .local_get(u)
                    .op(Opcode::I64ReinterpretF64)
                    .local_get(p)
                    .op(Opcode::I64Xor);
                self.c.local_set(d);
                self.charge(5);
            }
            2 => {
                let un = self.rng.pick(&F64_UN);
                self.c
                    .local_get(u)
                    .op(Opcode::F64Abs)
                    .op(Opcode::F64Sqrt)
                    .local_get(v)
                    .op(un);
                self.c.op(Opcode::F64Add).local_set(dest);
                self.charge(7);
                self.charge_ops(&[Opcode::F64Abs, Opcode::F64Sqrt, un, Opcode::F64Add]);
            }
            3 => {
                let s = self.rng.pick(&F32S);
                self.c
                    .local_get(s)
                    .op(Opcode::F64PromoteF32)
                    .local_get(u)
                    .op(Opcode::F64Mul);
                self.c.local_set(dest);
                self.charge(5);
                self.charge_ops(&[Opcode::F64PromoteF32, Opcode::F64Mul]);
            }
            _ => {
                let (op1, op2) = (self.rng.pick(&F64_BIN), self.rng.pick(&F64_BIN));
                let k = f64::from(self.rng.range(3, 40000)) / 32.0;
                self.c
                    .local_get(u)
                    .local_get(v)
                    .op(op1)
                    .f64_const(k)
                    .op(op2)
                    .local_set(dest);
                self.charge(6);
                self.charge_ops(&[op1, op2]);
            }
        }
    }

    /// Pushes an address: an i32 local masked into the first page, 8-aligned.
    fn masked_address(&mut self) {
        let a = self.i32_local();
        self.c.local_get(a).i32_const(0xFFF8).op(Opcode::I32And);
    }

    /// A constant offset that keeps `masked address + offset + 8` inside the
    /// two-page memory; 8-aligned, 3-byte LEB128.
    fn offset(&mut self) -> u32 {
        (0x4000 + self.rng.below(0xB000)) & !7
    }

    fn memory(&mut self) {
        // (opcode, alignment exponent, value local pool)
        const LOADS: [(Opcode, u32, &[u32]); 8] = [
            (Opcode::I32Load, 2, &I32_DESTS),
            (Opcode::I32Load8U, 0, &I32_DESTS),
            (Opcode::I32Load16S, 1, &I32_DESTS),
            (Opcode::I64Load, 3, &I64S),
            (Opcode::I64Load32U, 2, &I64S),
            (Opcode::I64Load8S, 0, &I64S),
            (Opcode::F32Load, 2, &F32S),
            (Opcode::F64Load, 3, &F64S),
        ];
        const STORES: [(Opcode, u32, &[u32]); 8] = [
            (Opcode::I32Store, 2, &I32S),
            (Opcode::I32Store8, 0, &I32S),
            (Opcode::I32Store16, 1, &I32S),
            (Opcode::I64Store, 3, &I64S),
            (Opcode::I64Store32, 2, &I64S),
            (Opcode::I64Store16, 1, &I64S),
            (Opcode::F32Store, 2, &F32S),
            (Opcode::F64Store, 3, &F64S),
        ];
        let offset = self.offset();
        self.masked_address();
        if self.rng.chance(55) {
            let (op, align, pool) = self.rng.pick(&LOADS);
            let dest = self.rng.pick(pool);
            self.c.mem(op, align, offset).local_set(dest);
        } else {
            let (op, align, pool) = self.rng.pick(&STORES);
            let value = self.rng.pick(pool);
            self.c.local_get(value).mem(op, align, offset);
        }
        self.charge(5);
        self.charge_ops(&[Opcode::I32Load]);
    }

    fn global(&mut self) {
        match self.rng.below(4) {
            0 => {
                let (a, op) = (self.i32_local(), self.rng.pick(&I32_BIN));
                self.c.global_get(0).local_get(a).op(op).global_set(0);
            }
            1 => {
                let (p, op) = (self.rng.pick(&I64S), self.rng.pick(&I64_BIN));
                self.c.global_get(1).local_get(p).op(op).global_set(1);
            }
            2 => {
                let s = self.rng.pick(&F32S);
                self.c
                    .global_get(2)
                    .local_get(s)
                    .op(Opcode::F32Add)
                    .global_set(2);
            }
            _ => {
                let u = self.rng.pick(&F64S);
                self.c
                    .global_get(3)
                    .local_get(u)
                    .op(Opcode::F64Add)
                    .global_set(3);
            }
        }
        self.charge(4);
    }

    /// `for (i = 0; i < trip; i++) { body }` in the shape `suites::kernels`
    /// emits it, around one of that crate's loop idioms or a generic body.
    fn counted_loop(&mut self) {
        let i = COUNTERS[self.loop_depth];
        let trip = self.rng.range(2, 6);
        self.c.i32_const(0).local_set(i);
        self.c.block(BlockType::Empty).loop_(BlockType::Empty);
        self.c
            .local_get(i)
            .i32_const(trip as i32)
            .op(Opcode::I32GeU)
            .br_if(1);
        self.charge(2);
        self.loop_depth += 1;
        self.multiplier *= u64::from(trip);
        self.charge(9);
        match self.rng.below(7) {
            0 => self.arx_round(),
            1 => self.hash_mix(i),
            2 => self.stencil(i),
            3 => self.triad(i),
            4 => self.lcg_step(),
            _ => {
                for _ in 0..self.rng.range(1, 4) {
                    if self.rng.chance(15) {
                        self.segment();
                    } else {
                        self.simple_segment();
                    }
                }
            }
        }
        self.loop_depth -= 1;
        self.multiplier /= u64::from(trip);
        self.c
            .local_get(i)
            .i32_const(1)
            .op(Opcode::I32Add)
            .local_set(i);
        self.c.br(0).end().end();
    }

    /// One add-rotate-xor quarter round (`suites::kernels::arx_rounds`).
    fn arx_round(&mut self) {
        let [_, a, b, cc, d] = I32S;
        for (x, y, z) in [(a, b, d), (cc, d, b), (a, b, d), (cc, d, b)] {
            let rot = self.rng.range(1, 31) as i32;
            self.c
                .local_get(x)
                .local_get(y)
                .op(Opcode::I32Add)
                .local_set(x);
            self.c
                .local_get(z)
                .local_get(x)
                .op(Opcode::I32Xor)
                .i32_const(rot)
                .op(Opcode::I32Rotl);
            self.c.local_set(z);
        }
        self.charge(40);
    }

    /// Pushes the address of element `i` of an array of `width`-byte items.
    fn element_address(&mut self, i: u32, width: i32) {
        self.c.local_get(i).i32_const(width).op(Opcode::I32Mul);
    }

    /// Absorb a word, multiply by a prime, rotate
    /// (`suites::kernels::hash_stream`).
    fn hash_mix(&mut self, i: u32) {
        let (h, base) = (self.i32_dest(), self.offset());
        let rot = self.rng.range(1, 31) as i32;
        self.element_address(i, 4);
        self.c
            .mem(Opcode::I32Load, 2, base)
            .local_get(h)
            .op(Opcode::I32Xor);
        self.c
            .i32_const(0x0100_0193)
            .op(Opcode::I32Mul)
            .i32_const(rot)
            .op(Opcode::I32Rotl);
        self.c.local_set(h);
        self.charge(11);
        self.charge_ops(&[Opcode::I32Load, Opcode::I32Mul, Opcode::I32Mul]);
    }

    /// `b[i] = (a[i] + a[i+1] + a[i+2]) / 3` (`suites::kernels::stencil1d`).
    fn stencil(&mut self, i: u32) {
        let (src, dst) = (self.offset(), self.offset());
        self.element_address(i, 4);
        for k in 0..3 {
            self.element_address(i, 4);
            self.c.mem(Opcode::I32Load, 2, src + 4 * k);
            if k > 0 {
                self.c.op(Opcode::I32Add);
            }
        }
        self.c
            .i32_const(3)
            .op(Opcode::I32DivS)
            .mem(Opcode::I32Store, 2, dst);
        self.charge(20);
        self.charge_ops(&[
            Opcode::I32Load,
            Opcode::I32Load,
            Opcode::I32Load,
            Opcode::I32DivS,
            Opcode::I32Store,
        ]);
        self.charge_ops(&[Opcode::I32Mul; 4]);
    }

    /// `a[i] = b[i] + k * c[i]` over f64 (`suites::kernels::triad`).
    fn triad(&mut self, i: u32) {
        let (a, b, cc) = (self.offset(), self.offset(), self.offset());
        let k = f64::from(self.rng.range(2, 9));
        self.element_address(i, 8);
        self.element_address(i, 8);
        self.c.mem(Opcode::F64Load, 3, b);
        self.element_address(i, 8);
        self.c
            .mem(Opcode::F64Load, 3, cc)
            .f64_const(k)
            .op(Opcode::F64Mul)
            .op(Opcode::F64Add);
        self.c.mem(Opcode::F64Store, 3, a);
        self.charge(15);
        self.charge_ops(&[
            Opcode::F64Load,
            Opcode::F64Load,
            Opcode::F64Store,
            Opcode::F64Mul,
            Opcode::F64Add,
        ]);
        self.charge_ops(&[Opcode::I32Mul; 3]);
    }

    /// `seed = seed * 1103515245 + 12345` (the suites' fill loop).
    fn lcg_step(&mut self) {
        let seed = self.i32_dest();
        self.c
            .local_get(seed)
            .i32_const(1_103_515_245)
            .op(Opcode::I32Mul);
        self.c.i32_const(12345).op(Opcode::I32Add).local_set(seed);
        self.charge(6);
        self.charge_ops(&[Opcode::I32Mul]);
    }

    /// Pushes an i32 condition.
    fn condition(&mut self) {
        let (a, b, cmp) = (self.i32_local(), self.i32_local(), self.rng.pick(&I32_CMP));
        if self.rng.chance(20) {
            let (s, t) = (self.rng.pick(&F32S), self.rng.pick(&F32S));
            self.c.local_get(s).local_get(t).op(Opcode::F32Lt);
        } else {
            self.c.local_get(a).local_get(b).op(cmp);
        }
        self.charge(3);
    }

    fn if_else(&mut self) {
        self.condition();
        self.c.if_(BlockType::Empty);
        self.simple_segment();
        if self.rng.chance(60) {
            self.c.else_();
            self.simple_segment();
        }
        self.c.end();
        self.charge(2);
    }

    // Both branching idioms below leave every `end` reachable by fall-through.
    // An `end` that follows an unconditional branch and is itself a branch
    // target is miscompiled by the baseline tier (it keeps the dead path's
    // register state; see README "Defects found"), and a workload must not
    // fail, so the usual `br`-out-of-each-arm lowering is not generated.

    /// Nested blocks: a conditional branch over the first arm and a
    /// conditional exit from both.
    fn br_if(&mut self) {
        self.c.block(BlockType::Empty).block(BlockType::Empty);
        self.condition();
        self.c.br_if(0);
        self.simple_segment();
        self.condition();
        self.c.br_if(1);
        self.c.end();
        self.simple_segment();
        self.c.end();
        self.charge(2);
    }

    /// A switch over `local % cases` whose arms fall through to the next,
    /// like a C `switch` without `break`.
    fn br_table(&mut self) {
        let cases = self.rng.range(2, 5);
        let a = self.i32_local();
        for _ in 0..cases {
            self.c.block(BlockType::Empty);
        }
        let targets: Vec<u32> = (0..cases - 1).collect();
        self.c
            .local_get(a)
            .i32_const(cases as i32)
            .op(Opcode::I32RemU);
        self.c.br_table(&targets, cases - 1);
        self.charge(5);
        for case in 0..cases {
            self.c.end();
            if case + 1 < cases {
                self.simple_segment();
            }
        }
    }

    fn call(&mut self) {
        let (index, callee_cost) = self.rng.pick(self.callees);
        let (a, dest) = (self.i32_local(), self.i32_dest());
        self.c.local_get(a).call(index).local_set(dest);
        self.charge(3);
        self.charge_ops(&[Opcode::Call]);
        self.cost += callee_cost * self.multiplier;
    }

    fn call_indirect(&mut self) {
        let (a, b, dest) = (self.i32_local(), self.i32_local(), self.i32_dest());
        self.c
            .local_get(a)
            .local_get(b)
            .i32_const(TABLE_LEN as i32 - 1)
            .op(Opcode::I32And);
        self.c.call_indirect(0, 0).local_set(dest);
        // Table members are the 40-byte helpers: about 12 instructions.
        self.charge(6 + 12);
        self.charge_ops(&[Opcode::CallIndirect]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_log_uniform_and_fills_the_budget() {
        let sizes = size_ladder(100_000, 16 << 10);
        let total: usize = sizes.iter().sum();
        assert!(total <= 100_000 && total > 100_000 - 32, "total {total}");
        assert_eq!(*sizes.iter().max().unwrap(), 16 << 10);
        assert_eq!(*sizes.iter().min().unwrap(), 32);
        // One walk of the ladder takes each half-octave once.
        let first_walk = &sizes[..19];
        assert!(first_walk.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn equal_seeds_give_identical_bytes_and_other_seeds_differ() {
        let a = generate(11);
        let b = generate(11);
        let c = generate(12);
        assert_eq!(a.len(), 24);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.bytes, y.bytes, "{}", x.name);
            assert_ne!(x.bytes, z.bytes, "{}", x.name);
        }
    }

    #[test]
    fn every_module_hits_its_size_class_and_validates() {
        for seed in [1, 2, 99] {
            let targets = CLASSES
                .iter()
                .flat_map(|&(count, target, _)| std::iter::repeat_n(target, count));
            for (m, target) in generate(seed).into_iter().zip(targets) {
                let ratio = m.bytes.len() as f64 / target as f64;
                assert!(
                    (0.9..=1.1).contains(&ratio),
                    "seed {seed} {}: {ratio:.3}",
                    m.name
                );
                let module = crate::sut::decode(&m.bytes).expect("decodes");
                crate::sut::validate(&module).unwrap_or_else(|e| panic!("{}: {e}", m.name));
            }
        }
    }

    #[test]
    fn interpreter_baseline_and_optimizing_tiers_agree_on_both_entries() {
        use crate::sut;
        for seed in [1, 5] {
            for m in generate(seed) {
                let module = sut::decode(&m.bytes).expect("decodes");
                let mut results = Vec::new();
                for config in [sut::interpreter(), sut::baseline_x64(1), sut::optimizing(2)] {
                    let engine = sut::engine(config);
                    let mut instance = sut::instantiate(&engine, &module).expect("instantiates");
                    let main = sut::call_i32(&engine, &mut instance, MAIN).expect("main runs");
                    let check = sut::call_i32(&engine, &mut instance, CHECK).expect("check runs");
                    results.push((main, check));
                }
                assert_eq!(results[0], results[1], "seed {seed} {}: baseline", m.name);
                assert_eq!(results[0], results[2], "seed {seed} {}: optimizing", m.name);
            }
        }
    }
}
