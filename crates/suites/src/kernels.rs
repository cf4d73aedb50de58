//! Parametric kernel generators used to synthesize benchmark line items.
//!
//! The real benchmark suites (PolyBenchC, Libsodium, Ostrich) are C programs
//! compiled to Wasm; this reproduction synthesizes modules with the same
//! *kinds* of inner loops — dense linear algebra, stencils, streaming
//! reductions, ARX crypto rounds, hash mixing, pointer chasing, and n-body
//! style float math — directly through the module builder. Every module
//! exports a `main: [] -> [i32]` entry returning a checksum so results can be
//! compared exactly across execution tiers, plus an internal `kernel`
//! function so cross-function calls are exercised.

use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::opcode::Opcode;
use wasm::types::{BlockType, FuncType, Limits, ValueType};
use wasm::Module;

/// Size scale for generated workloads, so unit tests can run the same
/// generators quickly while benchmark harnesses use larger problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny problems for unit and differential tests.
    Test,
    /// The default problem sizes used by the figure harnesses.
    Default,
}

impl Scale {
    /// Scales a default iteration count down for tests.
    pub fn iterations(self, default: u32) -> u32 {
        match self {
            Scale::Test => (default / 16).max(2),
            Scale::Default => default,
        }
    }

    /// Scales a default array length down for tests.
    pub fn length(self, default: u32) -> u32 {
        match self {
            Scale::Test => (default / 8).max(4),
            Scale::Default => default,
        }
    }
}

/// Emits `for (local i = start; i < bound_local; i++) { body }` where
/// `bound` is an i32 local index.
pub fn emit_for(
    c: &mut CodeBuilder,
    i: u32,
    start: i32,
    bound: u32,
    body: impl FnOnce(&mut CodeBuilder),
) {
    c.i32_const(start).local_set(i);
    c.block(BlockType::Empty).loop_(BlockType::Empty);
    c.local_get(i).local_get(bound).op(Opcode::I32GeU).br_if(1);
    body(c);
    c.local_get(i).i32_const(1).op(Opcode::I32Add).local_set(i);
    c.br(0).end().end();
}

/// Emits an LCG step: `seed = seed * 1103515245 + 12345` on local `seed`.
fn emit_lcg_step(c: &mut CodeBuilder, seed: u32) {
    c.local_get(seed)
        .i32_const(1103515245)
        .op(Opcode::I32Mul)
        .i32_const(12345)
        .op(Opcode::I32Add)
        .local_set(seed);
}

fn pages_for_bytes(bytes: u64) -> u32 {
    bytes.div_ceil(65536).max(1) as u32
}

/// Builds a module skeleton: memory sized for `mem_bytes`, an `init` function
/// that fills `[0, fill_words)` i32 words with LCG values, the given kernel
/// function, and a `main` that calls `init`, then `kernel`, and returns the
/// kernel's i32 checksum.
fn wrap_kernel(
    mem_bytes: u64,
    fill_words: u32,
    kernel_sig: FuncType,
    kernel_locals: Vec<ValueType>,
    kernel_code: Vec<u8>,
    kernel_arg: i32,
) -> Module {
    let mut b = ModuleBuilder::new();
    b.add_memory(Limits::at_least(pages_for_bytes(mem_bytes)));

    // init: fill memory with deterministic pseudo-random words.
    let init = {
        let mut c = CodeBuilder::new();
        let i = 0u32; // local 0: index
        let seed = 1u32; // local 1: lcg state
        let bound = 2u32; // local 2: bound
        c.i32_const(987654321).local_set(seed);
        c.i32_const(fill_words as i32).local_set(bound);
        emit_for(&mut c, i, 0, bound, |c| {
            emit_lcg_step(c, seed);
            // mem[i*4] = seed
            c.local_get(i)
                .i32_const(4)
                .op(Opcode::I32Mul)
                .local_get(seed)
                .mem(Opcode::I32Store, 2, 0);
        });
        b.add_func(
            FuncType::new(vec![], vec![]),
            vec![ValueType::I32, ValueType::I32, ValueType::I32],
            c.finish(),
        )
    };

    let kernel = b.add_func(kernel_sig, kernel_locals, kernel_code);

    // main: init(); return kernel(arg)
    let main = {
        let mut c = CodeBuilder::new();
        c.call(init);
        c.i32_const(kernel_arg).call(kernel);
        b.add_func(FuncType::new(vec![], vec![ValueType::I32]), vec![], c.finish())
    };
    b.export_func("main", main);
    b.export_func("kernel", kernel);
    b.finish()
}

/// Dense matrix multiply (`C = A * B`) over i32 elements: the classic
/// PolyBench `gemm` shape with a three-deep loop nest.
pub fn dense_matmul(n: u32) -> Module {
    // Memory layout: A at 0, B at n*n*4, C at 2*n*n*4.
    let nn = (n * n) as u64;
    let mut c = CodeBuilder::new();
    // Locals: 0 = n (param), 1 = i, 2 = j, 3 = k, 4 = acc, 5 = checksum, 6 = bound
    let (narg, i, j, k, acc, sum, bound) = (0u32, 1u32, 2u32, 3u32, 4u32, 5u32, 6u32);
    let a_base = 0i32;
    let b_base = (nn * 4) as i32;
    let c_base = (2 * nn * 4) as i32;
    c.local_get(narg).local_set(bound);
    emit_for(&mut c, i, 0, bound, |c| {
        emit_for(c, j, 0, bound, |c| {
            c.i32_const(0).local_set(acc);
            emit_for(c, k, 0, bound, |c| {
                // acc += A[i*n+k] * B[k*n+j]
                c.local_get(i)
                    .local_get(narg)
                    .op(Opcode::I32Mul)
                    .local_get(k)
                    .op(Opcode::I32Add)
                    .i32_const(4)
                    .op(Opcode::I32Mul)
                    .mem(Opcode::I32Load, 2, a_base as u32);
                c.local_get(k)
                    .local_get(narg)
                    .op(Opcode::I32Mul)
                    .local_get(j)
                    .op(Opcode::I32Add)
                    .i32_const(4)
                    .op(Opcode::I32Mul)
                    .mem(Opcode::I32Load, 2, b_base as u32);
                c.op(Opcode::I32Mul).local_get(acc).op(Opcode::I32Add).local_set(acc);
            });
            // C[i*n+j] = acc; checksum ^= acc
            c.local_get(i)
                .local_get(narg)
                .op(Opcode::I32Mul)
                .local_get(j)
                .op(Opcode::I32Add)
                .i32_const(4)
                .op(Opcode::I32Mul)
                .local_get(acc)
                .mem(Opcode::I32Store, 2, c_base as u32);
            c.local_get(sum).local_get(acc).op(Opcode::I32Xor).local_set(sum);
        });
    });
    c.local_get(sum);
    wrap_kernel(
        3 * nn * 4 + 4096,
        (2 * nn) as u32,
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32; 6],
        c.finish(),
        n as i32,
    )
}

/// A 1-D Jacobi-style stencil over i32 elements, iterated `iters` times.
pub fn stencil1d(n: u32, iters: u32) -> Module {
    let mut c = CodeBuilder::new();
    // Locals: 0 = n, 1 = t, 2 = i, 3 = sum, 4 = bound_t, 5 = bound_i
    let (narg, t, i, sum, bound_t, bound_i) = (0u32, 1u32, 2u32, 3u32, 4u32, 5u32);
    c.i32_const(iters as i32).local_set(bound_t);
    c.local_get(narg).i32_const(2).op(Opcode::I32Sub).local_set(bound_i);
    emit_for(&mut c, t, 0, bound_t, |c| {
        emit_for(c, i, 0, bound_i, |c| {
            // b[i+1] = (a[i] + a[i+1] + a[i+2]) / 3   (b stored after a)
            c.local_get(i)
                .i32_const(4)
                .op(Opcode::I32Mul)
                .mem(Opcode::I32Load, 2, 0);
            c.local_get(i)
                .i32_const(4)
                .op(Opcode::I32Mul)
                .mem(Opcode::I32Load, 2, 4);
            c.op(Opcode::I32Add);
            c.local_get(i)
                .i32_const(4)
                .op(Opcode::I32Mul)
                .mem(Opcode::I32Load, 2, 8);
            c.op(Opcode::I32Add).i32_const(3).op(Opcode::I32DivS).local_set(sum);
            c.local_get(i)
                .i32_const(4)
                .op(Opcode::I32Mul)
                .local_get(sum)
                .mem(Opcode::I32Store, 2, (n * 4) + 4);
        });
        // copy back one representative element to keep iterations dependent
        c.i32_const(0)
            .i32_const(4)
            .mem(Opcode::I32Load, 2, n * 4 + 4)
            .mem(Opcode::I32Store, 2, 4);
    });
    c.i32_const(8).mem(Opcode::I32Load, 2, n * 4).local_get(sum).op(Opcode::I32Add);
    wrap_kernel(
        (2 * n as u64 + 8) * 4,
        n,
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32; 5],
        c.finish(),
        n as i32,
    )
}

/// A streaming triad (`a[i] = b[i] + s * c[i]`) plus reduction, the shape of
/// PolyBench's vector kernels.
pub fn triad(n: u32) -> Module {
    let mut c = CodeBuilder::new();
    let (narg, i, sum, bound) = (0u32, 1u32, 2u32, 3u32);
    let b_off = n * 4;
    let c_off = 2 * n * 4;
    c.local_get(narg).local_set(bound);
    emit_for(&mut c, i, 0, bound, |c| {
        c.local_get(i).i32_const(4).op(Opcode::I32Mul).local_tee(sum);
        // a[i] = b[i] + 3 * c[i]
        c.local_get(sum).mem(Opcode::I32Load, 2, b_off);
        c.local_get(sum)
            .mem(Opcode::I32Load, 2, c_off)
            .i32_const(3)
            .op(Opcode::I32Mul)
            .op(Opcode::I32Add);
        c.mem(Opcode::I32Store, 2, 0);
    });
    // reduce
    c.i32_const(0).local_set(sum);
    emit_for(&mut c, i, 0, bound, |c| {
        c.local_get(i)
            .i32_const(4)
            .op(Opcode::I32Mul)
            .mem(Opcode::I32Load, 2, 0)
            .local_get(sum)
            .op(Opcode::I32Add)
            .local_set(sum);
    });
    c.local_get(sum);
    wrap_kernel(
        3 * n as u64 * 4 + 64,
        3 * n,
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32; 3],
        c.finish(),
        n as i32,
    )
}

/// ARX (add-rotate-xor) rounds over locals: the shape of a ChaCha/Salsa
/// quarter-round loop. Purely register traffic, no memory.
pub fn arx_rounds(rounds: u32) -> Module {
    let mut c = CodeBuilder::new();
    // Locals: 0 = rounds (param), 1 = r, 2..6 = state a,b,cc,d, 7 = bound
    let (rarg, r, a, b, cc, d, bound) = (0u32, 1u32, 2u32, 3u32, 4u32, 5u32, 6u32);
    c.i32_const(0x61707865).local_set(a);
    c.i32_const(0x3320646e).local_set(b);
    c.i32_const(0x79622d32).local_set(cc);
    c.i32_const(0x6b206574).local_set(d);
    c.local_get(rarg).local_set(bound);
    emit_for(&mut c, r, 0, bound, |c| {
        // a += b; d ^= a; d = rotl(d, 16)
        c.local_get(a).local_get(b).op(Opcode::I32Add).local_set(a);
        c.local_get(d).local_get(a).op(Opcode::I32Xor).i32_const(16).op(Opcode::I32Rotl).local_set(d);
        // cc += d; b ^= cc; b = rotl(b, 12)
        c.local_get(cc).local_get(d).op(Opcode::I32Add).local_set(cc);
        c.local_get(b).local_get(cc).op(Opcode::I32Xor).i32_const(12).op(Opcode::I32Rotl).local_set(b);
        // a += b; d ^= a; d = rotl(d, 8)
        c.local_get(a).local_get(b).op(Opcode::I32Add).local_set(a);
        c.local_get(d).local_get(a).op(Opcode::I32Xor).i32_const(8).op(Opcode::I32Rotl).local_set(d);
        // cc += d; b ^= cc; b = rotl(b, 7)
        c.local_get(cc).local_get(d).op(Opcode::I32Add).local_set(cc);
        c.local_get(b).local_get(cc).op(Opcode::I32Xor).i32_const(7).op(Opcode::I32Rotl).local_set(b);
    });
    c.local_get(a)
        .local_get(b)
        .op(Opcode::I32Xor)
        .local_get(cc)
        .op(Opcode::I32Xor)
        .local_get(d)
        .op(Opcode::I32Xor);
    wrap_kernel(
        4096,
        16,
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32; 6],
        c.finish(),
        rounds as i32,
    )
}

/// Hash-style mixing over a memory buffer (absorb words, mix, accumulate):
/// the shape of SHA/Blake compression loops in libsodium.
pub fn hash_stream(words: u32, passes: u32) -> Module {
    let mut c = CodeBuilder::new();
    // Locals: 0 = words, 1 = p, 2 = i, 3 = h, 4 = w, 5 = bound_p, 6 = bound_i
    let (warg, p, i, h, w, bound_p, bound_i) = (0u32, 1u32, 2u32, 3u32, 4u32, 5u32, 6u32);
    c.i32_const(0x811C9DC5u32 as i32).local_set(h);
    c.i32_const(passes as i32).local_set(bound_p);
    c.local_get(warg).local_set(bound_i);
    emit_for(&mut c, p, 0, bound_p, |c| {
        emit_for(c, i, 0, bound_i, |c| {
            c.local_get(i)
                .i32_const(4)
                .op(Opcode::I32Mul)
                .mem(Opcode::I32Load, 2, 0)
                .local_set(w);
            // h = (h ^ w) * 16777619; h = rotl(h, 13) - w
            c.local_get(h)
                .local_get(w)
                .op(Opcode::I32Xor)
                .i32_const(16777619)
                .op(Opcode::I32Mul)
                .local_set(h);
            c.local_get(h)
                .i32_const(13)
                .op(Opcode::I32Rotl)
                .local_get(w)
                .op(Opcode::I32Sub)
                .local_set(h);
        });
    });
    c.local_get(h);
    wrap_kernel(
        words as u64 * 4 + 64,
        words,
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32; 6],
        c.finish(),
        words as i32,
    )
}

/// 64-bit arithmetic mixing (the shape of poly1305 / siphash inner loops).
pub fn wide_mix(rounds: u32) -> Module {
    let mut c = CodeBuilder::new();
    // Locals: 0 = rounds, 1 = r, 2 = bound, 3..4 = i64 state
    let (rarg, r, bound) = (0u32, 1u32, 2u32);
    let (x, y) = (3u32, 4u32);
    c.i64_const(0x736f6d6570736575).local_set(x);
    c.i64_const(0x646f72616e646f6d).local_set(y);
    c.local_get(rarg).local_set(bound);
    emit_for(&mut c, r, 0, bound, |c| {
        c.local_get(x).local_get(y).op(Opcode::I64Add).local_set(x);
        c.local_get(y).i64_const(13).op(Opcode::I64Rotl).local_get(x).op(Opcode::I64Xor).local_set(y);
        c.local_get(x).i64_const(32).op(Opcode::I64Rotl).local_set(x);
        c.local_get(x).local_get(y).op(Opcode::I64Mul).i64_const(0x9E3779B97F4A7C15u64 as i64).op(Opcode::I64Xor).local_set(x);
    });
    c.local_get(x).local_get(y).op(Opcode::I64Xor).op(Opcode::I32WrapI64);
    wrap_kernel(
        4096,
        16,
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32, ValueType::I32, ValueType::I64, ValueType::I64],
        c.finish(),
        rounds as i32,
    )
}

/// Floating-point n-body style computation (the shape of Ostrich's nbody and
/// lavamd kernels): pairwise f64 interactions over arrays.
pub fn float_nbody(bodies: u32, steps: u32) -> Module {
    let mut c = CodeBuilder::new();
    // Locals: 0 = bodies, 1 = s, 2 = i, 3 = j, 4 = f64 acc, 5 = f64 dx, 6 = bound_s, 7 = bound_i
    let (narg, s, i, j, bound_s, bound_i) = (0u32, 1u32, 2u32, 3u32, 6u32, 7u32);
    let (acc, dx) = (4u32, 5u32);
    // Memory layout: LCG words at 0, positions (f64) at `pos`, velocities at `vel`.
    let pos = 8192u32;
    let vel = pos + bodies * 8;
    c.i32_const(steps as i32).local_set(bound_s);
    c.local_get(narg).local_set(bound_i);
    // Derive well-formed positions from the integer LCG words so no NaNs can
    // appear in the float math.
    emit_for(&mut c, i, 0, bound_i, |c| {
        c.local_get(i).i32_const(8).op(Opcode::I32Mul);
        c.local_get(i)
            .i32_const(4)
            .op(Opcode::I32Mul)
            .mem(Opcode::I32Load, 2, 0)
            .op(Opcode::F64ConvertI32S)
            .f64_const(1e-6)
            .op(Opcode::F64Mul);
        c.mem(Opcode::F64Store, 3, pos);
    });
    emit_for(&mut c, s, 0, bound_s, |c| {
        emit_for(c, i, 0, bound_i, |c| {
            c.f64_const(0.0).local_set(acc);
            emit_for(c, j, 0, bound_i, |c| {
                // dx = pos[i] - pos[j]; acc += dx * dx + 0.5
                c.local_get(i)
                    .i32_const(8)
                    .op(Opcode::I32Mul)
                    .mem(Opcode::F64Load, 3, pos);
                c.local_get(j)
                    .i32_const(8)
                    .op(Opcode::I32Mul)
                    .mem(Opcode::F64Load, 3, pos);
                c.op(Opcode::F64Sub).local_tee(dx);
                c.local_get(dx).op(Opcode::F64Mul).f64_const(0.5).op(Opcode::F64Add);
                c.local_get(acc).op(Opcode::F64Add).local_set(acc);
            });
            // vel[i] += acc * 0.01
            c.local_get(i)
                .i32_const(8)
                .op(Opcode::I32Mul)
                .local_get(i)
                .i32_const(8)
                .op(Opcode::I32Mul)
                .mem(Opcode::F64Load, 3, vel)
                .local_get(acc)
                .f64_const(0.01)
                .op(Opcode::F64Mul)
                .op(Opcode::F64Add)
                .mem(Opcode::F64Store, 3, vel);
        });
    });
    // checksum: i32 truncation of sum of velocities (bounded)
    c.f64_const(0.0).local_set(acc);
    emit_for(&mut c, i, 0, bound_i, |c| {
        c.local_get(i)
            .i32_const(8)
            .op(Opcode::I32Mul)
            .mem(Opcode::F64Load, 3, vel)
            .local_get(acc)
            .op(Opcode::F64Add)
            .local_set(acc);
    });
    c.local_get(acc)
        .f64_const(2e9)
        .op(Opcode::F64Min)
        .f64_const(-2e9)
        .op(Opcode::F64Max)
        .op(Opcode::I32TruncF64S);
    wrap_kernel(
        pos as u64 + bodies as u64 * 16 + 4096,
        bodies,
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![
            ValueType::I32,
            ValueType::I32,
            ValueType::I32,
            ValueType::F64,
            ValueType::F64,
            ValueType::I32,
            ValueType::I32,
        ],
        c.finish(),
        bodies as i32,
    )
}

/// Pointer-chasing / index-walking kernel (the shape of BFS and sparse
/// traversals in Ostrich): data-dependent loads and branches.
pub fn graph_walk(nodes: u32, steps: u32) -> Module {
    let mut c = CodeBuilder::new();
    // Locals: 0 = nodes, 1 = s, 2 = idx, 3 = count, 4 = bound
    let (narg, s, idx, count, bound) = (0u32, 1u32, 2u32, 3u32, 4u32);
    c.i32_const(steps as i32).local_set(bound);
    c.i32_const(0).local_set(idx);
    emit_for(&mut c, s, 0, bound, |c| {
        // idx = mem[idx*4] % nodes ; count += (idx & 1) ? idx : 1
        c.local_get(idx)
            .i32_const(4)
            .op(Opcode::I32Mul)
            .mem(Opcode::I32Load, 2, 0)
            .local_get(narg)
            .op(Opcode::I32RemU)
            .local_set(idx);
        c.local_get(idx)
            .i32_const(1)
            .op(Opcode::I32And)
            .if_(BlockType::Value(ValueType::I32))
            .local_get(idx)
            .else_()
            .i32_const(1)
            .end()
            .local_get(count)
            .op(Opcode::I32Add)
            .local_set(count);
    });
    c.local_get(count);
    wrap_kernel(
        nodes as u64 * 4 + 64,
        nodes,
        FuncType::new(vec![ValueType::I32], vec![ValueType::I32]),
        vec![ValueType::I32; 4],
        c.finish(),
        nodes as i32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasm::validate::validate;

    #[test]
    fn all_kernels_produce_valid_modules() {
        let modules = [
            ("matmul", dense_matmul(8)),
            ("stencil", stencil1d(32, 4)),
            ("triad", triad(32)),
            ("arx", arx_rounds(16)),
            ("hash", hash_stream(32, 2)),
            ("wide", wide_mix(16)),
            ("nbody", float_nbody(6, 2)),
            ("graph", graph_walk(16, 32)),
        ];
        for (name, module) in modules {
            validate(&module).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(module.exported_func("main").is_some(), "{name}");
            assert!(module.exported_func("kernel").is_some(), "{name}");
            assert!(module.total_code_bytes() > 50, "{name} is non-trivial");
        }
    }

    #[test]
    fn scale_reduces_sizes() {
        assert!(Scale::Test.iterations(1000) < Scale::Default.iterations(1000));
        assert!(Scale::Test.length(1000) < Scale::Default.length(1000));
        assert!(Scale::Test.iterations(8) >= 2);
        assert!(Scale::Test.length(8) >= 4);
    }

    #[test]
    fn encoded_modules_roundtrip() {
        let module = triad(16);
        let bytes = wasm::encode::encode(&module);
        let decoded = wasm::decode::decode(&bytes).unwrap();
        assert_eq!(decoded.funcs.len(), module.funcs.len());
        validate(&decoded).unwrap();
    }
}
