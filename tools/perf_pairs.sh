#!/usr/bin/env bash
# Same-sitting perfbench comparison of a git ref against the working tree.
#
#   tools/perf_pairs.sh <git-ref> [workload…]     # default: every workload in BENCHMARK.json
#   PAIRS=10 WINDOW=16 SEED=7 tools/perf_pairs.sh HEAD~1 exec-jit serve-warm
#   LAYERS=1 PAIRS=3 tools/perf_pairs.sh HEAD~1 exec-interp   # also diff the per-layer metrics
#
# Exports <git-ref> under $TMPDIR (default /tmp), builds `benchmark/`'s
# perfbench from it and from the working tree — each from inside its own
# tree, so each side gets its own tree's `.cargo/config.toml` (cargo reads it
# from the invoking directory upward), and neither writes into the
# repository — and relinks the ref's perfbench a second time as ref′, with
# the same code in a shuffled function order (`cargo rustc` on perfbench
# alone, through the toolchain's own `lld` and
# `--shuffle-sections=.text.*=<seed>`; GNU ld has no such option). ref′
# against ref is the sitting's A/A floor: how far the same code moves when
# only the linker's layout changes. It runs each workload PAIRS (default 5)
# times on each of the three binaries, in an order that rotates from pair to
# pair, at one seed and window length. Prints every run's end-to-end metrics
# (`ops_per_s`, `op_p50_us`, `op_p99_us`, `peak_rss_mb`, `setup_s`) on all
# three sides, their medians, how many pairs the working tree won on
# `ops_per_s`, then for every one of those metrics, in its `better`
# direction from BENCHMARK.json, ref's and here's quartiles with the ref IQR
# and whether a gain may be claimed on it (won >= 9/10 of the pairs, the
# medians further apart than the ref IQR — the choosing-metrics rule — and
# here/ref outside the floor, the min–max of the pairs' ref′/ref ratios),
# one verdict line per end-to-end metric (the here/ref
# ratio of the medians beside the floor, against the metric's `better` and
# `bound` in BENCHMARK.json: `WORSE` when here is worse by more than the
# bound and outside the floor, `floor` when it is worse by more than the
# bound but inside it, `ok` otherwise), whether `sim_cycles` is identical
# (when each side repeats
# itself but the two differ, both values and their ratio; `DIFFER` when a
# side disagrees with itself), and where the linker put the hot functions
# in each binary and how large each is (`tools/hot_loops.sh`).
# With LAYERS=1 each pair also makes one traced pass per side (`--trace 1
# --layers 1`, in the pair's order, after its two untraced runs) and the
# script ends each workload with the ref and here medians of every
# `per_layer` metric in BENCHMARK.json, their ratio and the ref side's
# min–max: the layer-by-layer diff of the two builds, from the same sitting
# as the end-to-end one. A ratio whose here median lies inside the ref
# side's own min–max (when the ref side varies at all) is marked `noise`:
# that layer's passes cannot tell the two builds apart.
# A verdict needs PAIRS >= 5: below that, a ratio outside the floor prints
# `few-pairs` instead of a gain or `WORSE` (the floor of three pairs is too
# narrow to hold an A/A sitting).
# The host is noisy: read ratios between the columns of one sitting, never
# an absolute number across days. ref′ costs half as much again as a
# two-sided sitting (three runs per pair instead of two, plus one more
# traced pass with LAYERS=1) and one relink of perfbench per invocation
# (tens of seconds; the next invocation's ref build relinks once more).
#
# What persists between invocations, so that a second one rebuilds only what
# changed:
#   $TMPDIR/perf_pairs.ref-<full sha>/   the exported ref tree (`tree/`,
#                                        renamed into place only once whole)
#                                        and its cargo target dir (`target/`,
#                                        holding whichever of ref and ref′
#                                        was linked last)
#   $TMPDIR/perf_pairs.here-<cksum>/     the target dir of one working tree,
#                                        keyed by a checksum of its path
# Delete them with `rm -rf "${TMPDIR:-/tmp}"/perf_pairs.ref-* "${TMPDIR:-/tmp}"/perf_pairs.here-*`.
# Each run's output files, and the copies of the ref and ref′ binaries the
# runs use, go to a fresh directory that is removed on exit.
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

cache=${TMPDIR:-/tmp}
ref_dir=$cache/perf_pairs.ref-$commit
here_dir=$cache/perf_pairs.here-$(printf '%s' "$top" | cksum | cut -d ' ' -f 1)
work=$(mktemp -d "$cache/perf_pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
# Export into this run's own directory, then rename it into place: the shared
# tree appears whole or not at all, and is never removed while another run
# may be reading it. A run that loses the race drops its copy with `$work`.
if [ ! -d "$ref_dir/tree" ]; then
    mkdir -p "$ref_dir" "$work/tree"
    git -C "$top" archive "$commit" | tar -x -C "$work/tree"
    mv -T "$work/tree" "$ref_dir/tree" 2>/dev/null || true
fi

declare -A bin
build() { # side, source root, target dir
    (cd "$2" && cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml --target-dir "$3")
    bin[$1]=$3/release/perfbench
}
echo "building perfbench: ref = $ref (${commit:0:7}) in $ref_dir, here = working tree of $top into $here_dir"
build ref "$ref_dir/tree" "$ref_dir/target"
cp "${bin[ref]}" "$work/perfbench.ref"
bin[ref]=$work/perfbench.ref
# ref′: the ref's code, its functions in another order. The shuffle seed
# comes from the ref's hash, so every sitting against one ref sees the same
# layout.
shuffle=$((16#${commit:0:6}))
gcc_ld=$(rustc --print sysroot)/lib/rustlib/$(rustc -vV | sed -n 's/^host: //p')/bin/gcc-ld
(cd "$ref_dir/tree" && cargo rustc --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$ref_dir/target" --bin perfbench -- \
    -C link-arg=-fuse-ld=lld -C link-arg=-B"$gcc_ld" \
    -C link-arg=-Wl,--shuffle-sections=.text.*=$shuffle)
cp "$ref_dir/target/release/perfbench" "$work/perfbench.refp"
bin[refp]=$work/perfbench.refp
build here "$top" "$here_dir/target"
sides=(ref refp here)
declare -A label=([ref]=ref [refp]="ref′" [here]=here)

echo
echo "hot function placement (start address mod 128, size in bytes; ref′ is ref linked with --shuffle-sections seed $shuffle):"
for side in "${sides[@]}"; do
    bash "$top/tools/hot_loops.sh" "${bin[$side]}" "${label[$side]}"
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
# Ten significant digits: `setup_s` is a fraction of a millisecond on some
# workloads, and `sim_cycles` must come out exact.
median() { sort -g | awk '{ v[NR] = $1 } END { printf "%.10g\n", (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'; }
median_or_empty() { local v; v=$(cat); [ -z "$v" ] || median <<<"$v"; }
# First quartile, median and third quartile of the numbers on stdin,
# interpolating between neighbouring order statistics.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,  h, i) { h = (NR - 1) * p + 1; i = int(h); return v[i] + (h - i) * (v[i + 1] - v[i]) }
        END { printf "%.10g %.10g %.10g\n", q(0.25), q(0.5), q(0.75) }'
}
# The gain rule of the choosing-metrics guide (§8) on one metric: here won
# at least nine tenths of the pairs in the metric's `better` direction (ties
# count for neither side), the medians differ by more than the ref side's
# spread, the distance between its quartiles, and the here/ref ratio of the
# medians lies outside the floor, the min–max of the pairs' ref′/ref ratios.
# Fewer than 5 pairs give no verdict: a ratio outside the floor reads
# `few-pairs` (a 3-pair A/A sitting once read 1.079 on a floor of
# 0.972–1.026). Prints ref's and here's quartiles, the ref IQR and whether
# each part holds.
gain_rule() { # metric, ref values, here values, wins, pairs, floor lo, floor hi
    local ref here
    read -r -a ref < <(tr ' ' '\n' <<<"$2" | grep . | quartiles)
    read -r -a here < <(tr ' ' '\n' <<<"$3" | grep . | quartiles)
    awk -v m="$1" -v dir="${better[$1]}" -v r1="${ref[0]}" -v rm="${ref[1]}" -v r3="${ref[2]}" \
        -v h1="${here[0]}" -v hm="${here[1]}" -v h3="${here[2]}" -v wins="$4" -v pairs="$5" \
        -v lo="$6" -v hi="$7" 'BEGIN {
        iqr = r3 - r1; gap = hm - rm; if (gap < 0) gap = -gap
        won = (10 * wins >= 9 * pairs); apart = (gap > iqr)
        ratio = (rm == 0) ? 1 : hm / rm; beyond = (ratio < lo || ratio > hi); few = (pairs < 5)
        printf "  %-12s quartiles ref %.5g / %.5g / %.5g (IQR %.4g)  here %.5g / %.5g / %.5g\n", m, r1, rm, r3, iqr, h1, hm, h3
        printf "  %-12s gain rule (%s is better) won %d/%d >= 9/10: %s;  |median gap| %.4g > ref IQR %.4g: %s;  here/ref %.3f outside floor %.3f–%.3f: %s;  %s\n",
            m, dir, wins, pairs, won ? "yes" : "no", gap, iqr, apart ? "yes" : "no", ratio, lo, hi, beyond ? "yes" : "no",
            (few && beyond) ? "few-pairs: no gain can be claimed" : (won && apart && beyond) ? "a gain can be claimed" : (won && apart) ? "floor: no gain can be claimed" : "no gain can be claimed"
    }'
}
# Whether `here` is better than `ref` in the metric's direction: 1 or 0.
better_than() { # metric, here, ref
    awk -v dir="${better[$1]}" -v h="$2" -v r="$3" 'BEGIN { print (dir == "higher") ? (h > r) : (h < r) }'
}
# `a / b`, or 1 when b is 0.
ratio() { awk -v a="$1" -v b="$2" 'BEGIN { printf "%.6g\n", (b == 0) ? 1 : a / b }'; }
# One table row: a label, then each metric's ref, ref′ and here values (and,
# for the first, here/ref and ref′/ref), then a note.
row() { # label, ref values…, ref′ values…, here values…, note
    local label=$1 n=${#metrics[@]}
    shift
    local values=("${@:1:3*n}") note=${*:3*n+1}
    printf '  %-4s %10.2f %10.2f %10.2f %7.3f %7.3f' "$label" "${values[0]}" "${values[n]}" "${values[2 * n]}" \
        "$(ratio "${values[2 * n]}" "${values[0]}")" "$(ratio "${values[n]}" "${values[0]}")"
    for ((m = 1; m < n; m++)); do printf ' %9.5g %9.5g %9.5g' "${values[m]}" "${values[n + m]}" "${values[2 * n + m]}"; done
    printf '  %s\n' "$note"
}
# One verdict line: a metric's here/ref median ratio beside the floor (the
# min–max of the pairs' ref′/ref ratios), its direction and bound from
# BENCHMARK.json, and `WORSE` if here is worse by more than the bound and
# outside the floor — `floor` if inside it, `few-pairs` if outside it but
# from fewer than 5 pairs (`sim_cycles`, which repeats exactly, passes no
# pair count).
verdict() { # metric, ref median, here median, floor lo, floor hi[, pairs]
    awk -v m="$1" -v r="$2" -v h="$3" -v lo="$4" -v hi="$5" -v few="$((${6:-5} < 5))" \
        -v dir="${better[$1]}" -v lim="${bound[$1]}" 'BEGIN {
        ratio = (r == 0) ? "n/a" : sprintf("%.3f", h / r)
        worse = (dir == "higher") ? (h < r * (1 - lim)) : (h > r * (1 + lim))
        inside = (r == 0) || (h / r >= lo && h / r <= hi)
        printf "  %-12s here/ref %7s  ref′/ref %.3f–%.3f  better %-6s  bound %-5s  %s\n", m, ratio, lo, hi, dir, lim,
            !worse ? "ok" : inside ? "floor" : few ? "few-pairs" : "WORSE"
    }'
}
# The min and max of the numbers on stdin.
min_max() { sort -g | sed -n '1p;$p' | paste -sd ' ' | awk '{ print $1, (NF > 1) ? $2 : $1 }'; }

for workload in "${workloads[@]}"; do
    echo
    echo "$workload (seed $seed, ${seconds} s windows): ref, ref′ and here"
    printf '  %-4s %42s %7s' pair "${metrics[0]} (ref ref′ here)" "ref′/ref"
    for metric in "${metrics[@]:1}"; do printf ' %29s' "$metric"; done
    printf '  first\n'
    declare -A all=() layer_all=() won=() floor=()
    cycles=() wins=0 losses=0
    for ((i = 1; i <= pairs; i++)); do
        # Rotate the order, so each side runs first, second and third alike.
        order=("${sides[@]:(i - 1) % 3}" "${sides[@]:0:(i - 1) % 3}")
        declare -A got=()
        for side in "${order[@]}"; do
            read -r -a values < <(run "$side" "$workload")
            [[ ${values[0]} =~ ^[0-9.e+]+$ ]] || { echo "  ${label[$side]}: perfbench gave no result line" >&2; exit 1; }
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
        for m in "${!metrics[@]}"; do
            won[$m]=$((${won[$m]:-0} + $(better_than "${metrics[m]}" "${got[here,$m]}" "${got[ref,$m]}")))
            floor[$m]+="$(ratio "${got[refp,$m]}" "${got[ref,$m]}") "
        done
        verdict=$(awk -v a="${got[here,0]}" -v b="${got[ref,0]}" 'BEGIN { print (a > b) ? "win" : (a < b) ? "loss" : "tie" }')
        [ "$verdict" = win ] && wins=$((wins + 1))
        [ "$verdict" = loss ] && losses=$((losses + 1))
        row "$i" $(for side in "${sides[@]}"; do for m in "${!metrics[@]}"; do echo "${got[$side,$m]}"; done; done) "${label[${order[0]}]}"
    done
    medians=()
    for side in "${sides[@]}"; do for m in "${!metrics[@]}"; do
        medians+=("$(tr ' ' '\n' <<<"${all[$side,$m]}" | grep . | median)")
    done; done
    row med "${medians[@]}" "here won $wins, lost $losses of $pairs on ${metrics[0]}"
    n=${#metrics[@]}
    for m in "${!metrics[@]}"; do
        read -r lo hi < <(tr ' ' '\n' <<<"${floor[$m]}" | grep . | min_max)
        gain_rule "${metrics[m]}" "${all[ref,$m]}" "${all[here,$m]}" "${won[$m]}" "$pairs" "$lo" "$hi"
    done
    for m in "${!metrics[@]}"; do
        read -r lo hi < <(tr ' ' '\n' <<<"${floor[$m]}" | grep . | min_max)
        verdict "${metrics[m]}" "${medians[m]}" "${medians[2 * n + m]}" "$lo" "$hi" "$pairs"
    done
    verdict sim_cycles "$(printf '%s\n' "${cycles[@]}" | sed -n 's/^ref://p' | median)" \
        "$(printf '%s\n' "${cycles[@]}" | sed -n 's/^here://p' | median)" 1 1
    distinct=$(printf '%s\n' "${cycles[@]#*:}" | sort -u)
    ref_cycles=$(printf '%s\n' "${cycles[@]}" | sed -n 's/^refp\{0,1\}://p' | sort -u)
    here_cycles=$(printf '%s\n' "${cycles[@]}" | sed -n 's/^here://p' | sort -u)
    if [ "$(printf '%s\n' "$distinct" | wc -l)" -eq 1 ]; then
        echo "  sim_cycles identical in all $((3 * pairs)) runs: $distinct"
    elif [ "$(printf '%s\n' "$ref_cycles" | wc -l)" -eq 1 ] &&
        [ "$(printf '%s\n' "$here_cycles" | wc -l)" -eq 1 ]; then
        # Each side repeats itself; the two builds simulate different code.
        awk -v r="$ref_cycles" -v h="$here_cycles" \
            'BEGIN { printf "  sim_cycles ref %s here %s (here/ref %.4f)\n", r, h, (r == 0) ? 0 : h / r }'
    else
        echo "  sim_cycles DIFFER: ${cycles[*]}"
    fi
    if [ "$layers" = 1 ]; then
        echo "  per-layer medians over $pairs traced passes per side (noise: here's median lies inside the min–max of ref's and ref′'s passes):"
        printf '    %-40s %14s %14s %14s %9s  %-25s\n' metric ref "ref′" here here/ref 'ref, ref′ min–max'
        for m in "${!layer_metrics[@]}"; do
            # A metric missing from every pass of a side has no median.
            numbers() { tr ' ' '\n' <<<"$1" | { grep -E '^[-0-9.e+]+$' || true; }; }
            ref_values=$(numbers "${layer_all[ref,$m]}")
            r=$(median_or_empty <<<"$ref_values")
            rp=$(numbers "${layer_all[refp,$m]}" | median_or_empty)
            h=$(numbers "${layer_all[here,$m]}" | median_or_empty)
            read -r lo hi < <({ printf '%s\n' "$ref_values"; numbers "${layer_all[refp,$m]}"; } | grep . | min_max || echo)
            awk -v m="${layer_metrics[m]}" -v r="$r" -v rp="$rp" -v h="$h" -v lo="$lo" -v hi="$hi" '
                function show(v) { return (v == "") ? "-" : (v == int(v)) ? sprintf("%d", v) : sprintf("%.6g", v) }
                BEGIN {
                known = (r != "" && h != "" && r != 0)
                printf "    %-40s %14s %14s %14s %9s  %-25s %s\n", m, show(r), show(rp), show(h), known ? sprintf("%.3f", h / r) : "-",
                    (lo == "") ? "-" : sprintf("%.4g–%.4g", lo, hi),
                    (known && hi + 0 > lo + 0 && h + 0 >= lo + 0 && h + 0 <= hi + 0) ? "noise" : ""
            }'
        done
    fi
done
