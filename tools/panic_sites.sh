#!/bin/sh
# Panic sites in non-test library code, counted the same way every PR.
#
#   tools/panic_sites.sh            # the working tree
#   tools/panic_sites.sh <git-ref>  # the working tree, and its delta against <git-ref>
#
# With a ref it is a ratchet: it exits 1 when either total column is higher
# than at <git-ref>.
#
# Counted: every occurrence of `.unwrap()` / `.expect(` (first column) and of
# `panic!` / `unreachable!` / `todo!` / `unimplemented!` (second column) on a
# non-comment line of a .rs file under crates/*/src, up to (not including) the
# file's first `#[cfg(test)]` line. `src/bin/` directories are rows of their
# own. This is grep, not analysis: an `expect` naming an invariant validation
# establishes counts like one on tenant input. The number says how many sites
# there are to account for, not how many are reachable.
set -eu
cd "$(git rev-parse --show-toplevel)"
ref=${1-}

# Reads "path" lines on stdin, prints "group unwraps panics" per group; $1 is
# the command prefix that prints a file given its path.
tally() {
    while IFS= read -r path; do
        printf '\001%s\n' "$path"
        $1"$path"
    done | awk '
        /^\001/ {
            path = substr($0, 2); in_tests = 0
            group = path
            if (group ~ /\/src\/bin\//) sub(/\/src\/bin\/.*/, "/src/bin", group)
            else sub(/\/src\/.*/, "", group)
            if (!(group in unwraps)) { unwraps[group] = 0; panics[group] = 0 }
            next
        }
        /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[ \t]*\/\// { next }
        {
            unwraps[group] += gsub(/\.unwrap\(\)|\.expect\(/, "&")
            panics[group] += gsub(/(panic|unreachable|todo|unimplemented)!/, "&")
        }
        END { for (group in unwraps) print group, unwraps[group], panics[group] }
    '
}

sources='^crates/[^/]+/src/.*\.rs$'
here=$(git ls-files -co --exclude-standard -- crates | grep -E "$sources" |
    while IFS= read -r path; do [ -f "$path" ] && printf '%s\n' "$path"; done | tally 'cat ')

if [ -z "$ref" ]; then
    printf '%s\n' "$here" | sort | awk '
        BEGIN { printf "%-28s %7s %7s\n", "", "unwrap", "panic!" }
        { printf "%-28s %7d %7d\n", $1, $2, $3; unwraps += $2; panics += $3 }
        END { printf "%-28s %7d %7d\n", "total", unwraps, panics }'
    exit 0
fi

there=$(git ls-tree -r --name-only "$ref" -- crates | grep -E "$sources" | tally "git show $ref:")
{ printf '%s\n' "$here" | sed 's/^/now /'; printf '%s\n' "$there" | sed 's/^/ref /'; } |
    awk 'NF == 4 { print $2, $1, $3, $4 }' | sort | awk -v ref="$ref" '
        function row(name, u, p, wu, wp) {
            printf "%-28s %7d %7d %10d %10d %+7d\n", name, u, p, wu, wp, u + p - wu - wp
        }
        function flush() {
            if (group == "") return
            row(group, u, p, wu, wp); all_u += u; all_p += p; all_wu += wu; all_wp += wp
        }
        BEGIN {
            short = substr(ref, 1, 7)
            printf "%-28s %7s %7s %10s %10s %7s\n", "", "unwrap", "panic!", "u@" short, "p@" short, "delta"
        }
        $1 != group { flush(); group = $1; u = 0; p = 0; wu = 0; wp = 0 }
        $2 == "now" { u = $3; p = $4 }
        $2 == "ref" { wu = $3; wp = $4 }
        END {
            flush(); row("total", all_u, all_p, all_wu, all_wp)
            if (all_u > all_wu || all_p > all_wp) {
                print "panic sites rose against " ref > "/dev/stderr"
                exit 1
            }
        }'
