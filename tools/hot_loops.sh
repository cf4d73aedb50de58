#!/usr/bin/env bash
# Where the linker put the hot functions of a perfbench binary.
#
#   tools/hot_loops.sh <binary> [label]
#   tools/hot_loops.sh benchmark/target/release/perfbench
#
# Prints one line per hot function: its name, start address, the address
# mod 128 and its size in bytes (`nm -S`). The functions are the two
# execution loops (`Cpu::run` carries `exec-jit`, `tiered-run` and
# `serve-warm`; `Interpreter::run` carries `exec-interp`), the baseline
# compiler's loop (`FuncCompiler::compile_body`, `load-baseline`) and the
# path `coldstart-cached` runs (`Engine::instantiate`, `MemoryImage::build`
# and, where it exists, the `build_reusing` that holds its body).
# A tree whose `.cargo/config.toml` pins placement starts every function at
# 0 mod 128; on one that does not, the address alone moves a loop's workload
# by ~10 % (see the verify skill). The pin fixes only where a function
# starts, not where its blocks sit inside it (DESIGN.md, "The loop is
# fragile"), so a change that grows or shrinks one shows by how many bytes.
# `label` starts every line; `tools/perf_pairs.sh` passes `ref` or `here`.
set -euo pipefail
[ $# -ge 1 ] || { sed -n '2,5p' "$0"; exit 2; }
binary=$1
label=${2:-}
nm -C -S --defined-only "$binary" |
    sed -nE 's/^([0-9a-f]+) ([0-9a-f]+) [tT] (.*((::Cpu|::Interpreter)::run|::FuncCompiler<M>::compile_body|::Engine::instantiate|::MemoryImage::build(_reusing)?))(::h[0-9a-f]+)?$/\1 \2 \3/p' |
    while read -r addr size name; do
        printf '  %-5s %-44s 0x%s  mod 128 = 0x%02x  size %6d\n' "$label" "$name" "$addr" \
            $((16#${addr: -2} % 128)) $((16#$size))
    done
