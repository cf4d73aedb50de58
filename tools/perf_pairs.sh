#!/usr/bin/env bash
# Same-sitting perfbench comparison of a git ref against the working tree.
#
#   tools/perf_pairs.sh <git-ref> [workload…]     # default: every workload in BENCHMARK.json
#   PAIRS=10 WINDOW=16 SEED=7 tools/perf_pairs.sh HEAD~1 exec-jit serve-warm
#   LAYERS=1 PAIRS=3 tools/perf_pairs.sh HEAD~1 exec-interp   # also diff the per-layer metrics
#
# Exports <git-ref> into a scratch directory (under $TMPDIR, default /tmp),
# builds `benchmark/`'s perfbench from it and from the working tree — each
# from inside its own tree, so each side gets its own tree's `.cargo/config.toml`
# (cargo reads it from the invoking directory upward), and both into that
# scratch directory, nothing is written into the repository — and
# runs each workload PAIRS (default 5) times on each binary, alternating
# which side goes first, at one seed and window length. Prints every run's
# end-to-end metrics (`ops_per_s`, `op_p50_us`, `op_p99_us`, `peak_rss_mb`,
# `setup_s`) on both sides, their medians, how many pairs the working tree
# won on `ops_per_s`, both sides' `ops_per_s` quartiles with the ref side's
# IQR and whether a gain may be claimed (won >= 9/10 of the pairs and the
# medians further apart than the ref IQR — the choosing-metrics rule), one
# verdict line per end-to-end metric (the here/ref
# ratio of the medians against the metric's `better` and `bound` in
# BENCHMARK.json: `WORSE` when here is worse by more than the bound, `ok`
# otherwise), whether `sim_cycles` is identical, and where the linker
# put the three hot loops in each binary (address mod 128 of `Cpu::run`,
# `Interpreter::run` and the baseline compiler's `FuncCompiler::compile_body`:
# 0 on a side whose tree pins placement, anything on one that does not,
# which alone moves `exec-jit` / `exec-interp` by ~10 %: see the verify
# skill; `compile_body` carries `load-baseline`).
# With LAYERS=1 each pair also makes one traced pass per side (`--trace 1
# --layers 1`, in the pair's order, after its two untraced runs) and the
# script ends each workload with the ref and here medians of every
# `per_layer` metric in BENCHMARK.json and their ratio: the layer-by-layer
# diff of the two builds, from the same sitting as the end-to-end one.
# The host is noisy: read ratios between the two columns of one sitting,
# never an absolute number across days. The scratch directory is removed on
# exit.
set -euo pipefail
[ $# -ge 1 ] || { sed -n '2,6p' "$0"; exit 2; }
ref=$1
shift
top=$(git rev-parse --show-toplevel)
commit=$(git -C "$top" rev-parse --verify "$ref^{commit}")
pairs=${PAIRS:-5}
seconds=${WINDOW:-8}
seed=${SEED:-1}
layers=${LAYERS:-0}
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(awk -F'"' '
        /"workloads"/ { on = 1 } /"end_to_end"/ { on = 0 }
        on && /"name"/ { print $4 }' "$top/BENCHMARK.json")
fi
# Each end-to-end metric's direction and regression bound.
declare -A better bound
while read -r name dir limit; do
    better[$name]=$dir bound[$name]=$limit
done < <(awk -F'"' '
    /"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
    on && /"name"/ { name = $4 } on && /"better"/ { dir = $4 }
    on && /"bound"/ { v = $3; gsub(/[^-0-9.eE+]/, "", v); print name, dir, v }' "$top/BENCHMARK.json")

# Every per-layer metric, in BENCHMARK.json's order.
mapfile -t layer_metrics < <(awk -F'"' '
    /"per_layer"/ { on = 1 } on && /"name"/ { print $4 }' "$top/BENCHMARK.json")

work=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/ref"
git -C "$top" archive "$commit" | tar -x -C "$work/ref"

declare -A bin
build() { # side, source root
    (cd "$2" && cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml --target-dir "$work/target-$1")
    bin[$1]=$work/target-$1/release/perfbench
}
echo "building perfbench: ref = $ref (${commit:0:7}), here = working tree of $top"
build ref "$work/ref"
build here "$top"

echo
echo "loop placement (start address mod 128):"
for side in ref here; do
    nm -C --defined-only "${bin[$side]}" |
        sed -nE 's/^([0-9a-f]+) [tT] (.*((::Cpu|::Interpreter)::run|::FuncCompiler<M>::compile_body))(::h[0-9a-f]+)?$/\1 \2/p' |
        while read -r addr name; do
            printf '  %-5s %-44s 0x%s  mod 128 = 0x%02x\n' "$side" "$name" "$addr" $((16#${addr: -2} % 128))
        done
done

# The end-to-end metrics every run line and both medians carry, in the
# order `run` prints them; `ops_per_s` decides a pair.
metrics=(ops_per_s op_p50_us op_p99_us peak_rss_mb setup_s)

# One run: prints the `metrics` and then `sim_cycles`, from the result line
# perfbench ends with.
run() { # side, workload
    local line
    line=$("${bin[$1]}" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0 --layers 0 \
        --out "$work/out-$1" 2>/dev/null | tail -n 1)
    for metric in "${metrics[@]}" sim_cycles; do
        sed -nE "s/.*\"$metric\":\\{\"value\":([-0-9.e+]+).*/\\1/p" <<<"$line" | grep . || echo none
    done | paste -sd ' '
}
# One traced pass: prints every per-layer metric's value (`none` if the
# result line lacks it), in `layer_metrics` order.
traced() { # side, workload
    local line
    line=$("${bin[$1]}" --workload "$2" --seed "$seed" --seconds "$seconds" --trace 1 --layers 1 \
        --out "$work/out-$1" 2>/dev/null | tail -n 1)
    for metric in "${layer_metrics[@]}"; do
        sed -nE "s/.*\"${metric//./\\.}\":\\{\"value\":([-0-9.e+]+).*/\\1/p" <<<"$line" | grep . || echo none
    done
}
median() { sort -g | awk '{ v[NR] = $1 } END { printf "%.4f\n", (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }
median_or_empty() { local v; v=$(cat); [ -z "$v" ] || median <<<"$v"; }
# First quartile, median and third quartile of the numbers on stdin,
# interpolating between neighbouring order statistics.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
        END { printf "%.4f %.4f %.4f\n", q(0.25), q(0.5), q(0.75) }'
}
# The gain rule of the choosing-metrics guide (§8) on `ops_per_s`: here won at
# least nine tenths of the pairs (ties count for neither side), and the
# medians differ by more than the ref side's spread, the distance between its
# quartiles. Prints both sides' quartiles, the ref IQR and whether each half
# holds.
gain_rule() { # ref values, here values, wins, pairs
    local ref here
    read -r -a ref < <(tr ' ' '\n' <<<"$1" | grep . | quartiles)
    read -r -a here < <(tr ' ' '\n' <<<"$2" | grep . | quartiles)
    awk -v r1="${ref[0]}" -v rm="${ref[1]}" -v r3="${ref[2]}" -v h1="${here[0]}" -v hm="${here[1]}" \
        -v h3="${here[2]}" -v wins="$3" -v pairs="$4" 'BEGIN {
        iqr = r3 - r1; gap = hm - rm; if (gap < 0) gap = -gap
        won = (10 * wins >= 9 * pairs); apart = (gap > iqr)
        printf "  ops_per_s quartiles  ref %.2f / %.2f / %.2f (IQR %.2f)  here %.2f / %.2f / %.2f\n", r1, rm, r3, iqr, h1, hm, h3
        printf "  gain rule            won %d/%d >= 9/10: %s;  |median gap| %.2f > ref IQR %.2f: %s;  %s\n", wins, pairs,
            won ? "yes" : "no", gap, iqr, apart ? "yes" : "no", (won && apart) ? "a gain can be claimed" : "no gain can be claimed"
    }'
}
# One table row: a label, then each metric's ref and here value, then a note.
row() { # label, ref values…, here values…, note
    local label=$1 n=${#metrics[@]}
    shift
    local values=("${@:1:2*n}") note=${*:2*n+1}
    printf '  %-4s %10.2f %10.2f %7.3f' "$label" "${values[0]}" "${values[n]}" \
        "$(awk -v a="${values[n]}" -v b="${values[0]}" 'BEGIN { print a / b }')"
    for ((m = 1; m < n; m++)); do printf ' %10.5g %10.5g' "${values[m]}" "${values[n + m]}"; done
    printf '  %s\n' "$note"
}
# One verdict line: a metric's here/ref median ratio, its direction and bound
# from BENCHMARK.json, and `WORSE` if here is worse by more than the bound.
verdict() { # metric, ref median, here median
    awk -v m="$1" -v r="$2" -v h="$3" -v dir="${better[$1]}" -v lim="${bound[$1]}" 'BEGIN {
        ratio = (r == 0) ? "n/a" : sprintf("%.3f", h / r)
        worse = (dir == "higher") ? (h < r * (1 - lim)) : (h > r * (1 + lim))
        printf "  %-12s here/ref %7s  better %-6s  bound %-5s  %s\n", m, ratio, dir, lim, worse ? "WORSE" : "ok"
    }'
}

for workload in "${workloads[@]}"; do
    echo
    echo "$workload (seed $seed, ${seconds} s windows): ref and here"
    printf '  %-4s %21s %7s' pair "${metrics[0]}" here/ref
    for metric in "${metrics[@]:1}"; do printf ' %21s' "$metric"; done
    printf '  first\n'
    declare -A all=() layer_all=()
    cycles=() wins=0 losses=0
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2)); then order=(ref here); else order=(here ref); fi
        declare -A got=()
        for side in "${order[@]}"; do
            read -r -a values < <(run "$side" "$workload")
            [[ ${values[0]} =~ ^[0-9.e+]+$ ]] || { echo "  $side: perfbench gave no result line" >&2; exit 1; }
            for m in "${!metrics[@]}"; do
                got[$side,$m]=${values[m]}
                all[$side,$m]+="${values[m]} "
            done
            cycles+=("$side:${values[${#metrics[@]}]}")
        done
        if [ "$layers" = 1 ]; then
            for side in "${order[@]}"; do
                mapfile -t got_layers < <(traced "$side" "$workload")
                for m in "${!layer_metrics[@]}"; do layer_all[$side,$m]+="${got_layers[m]} "; done
            done
        fi
        verdict=$(awk -v a="${got[here,0]}" -v b="${got[ref,0]}" 'BEGIN { print (a > b) ? "win" : (a < b) ? "loss" : "tie" }')
        [ "$verdict" = win ] && wins=$((wins + 1))
        [ "$verdict" = loss ] && losses=$((losses + 1))
        row "$i" $(for side in ref here; do for m in "${!metrics[@]}"; do echo "${got[$side,$m]}"; done; done) "${order[0]}"
    done
    medians=()
    for side in ref here; do for m in "${!metrics[@]}"; do
        medians+=("$(tr ' ' '\n' <<<"${all[$side,$m]}" | grep . | median)")
    done; done
    row med "${medians[@]}" "here won $wins, lost $losses of $pairs on ${metrics[0]}"
    gain_rule "${all[ref,0]}" "${all[here,0]}" "$wins" "$pairs"
    for m in "${!metrics[@]}"; do
        verdict "${metrics[m]}" "${medians[m]}" "${medians[${#metrics[@]} + m]}"
    done
    verdict sim_cycles "$(printf '%s\n' "${cycles[@]}" | sed -n 's/^ref://p' | median)" \
        "$(printf '%s\n' "${cycles[@]}" | sed -n 's/^here://p' | median)"
    distinct=$(printf '%s\n' "${cycles[@]#*:}" | sort -u)
    if [ "$(printf '%s\n' "$distinct" | wc -l)" -eq 1 ]; then
        echo "  sim_cycles identical in all $((2 * pairs)) runs: $distinct"
    else
        echo "  sim_cycles DIFFER: ${cycles[*]}"
    fi
    if [ "$layers" = 1 ]; then
        echo "  per-layer medians over $pairs traced passes per side:"
        printf '    %-40s %14s %14s %9s\n' metric ref here here/ref
        for m in "${!layer_metrics[@]}"; do
            # A metric missing from every pass of a side has no median.
            r=$(tr ' ' '\n' <<<"${layer_all[ref,$m]}" | { grep -E '^[-0-9.e+]+$' || true; } | median_or_empty)
            h=$(tr ' ' '\n' <<<"${layer_all[here,$m]}" | { grep -E '^[-0-9.e+]+$' || true; } | median_or_empty)
            awk -v m="${layer_metrics[m]}" -v r="$r" -v h="$h" 'BEGIN {
                printf "    %-40s %14s %14s %9s\n", m, r == "" ? "-" : r, h == "" ? "-" : h,
                    (r == "" || h == "" || r == 0) ? "-" : sprintf("%.3f", h / r)
            }'
        done
    fi
done
