#!/bin/sh
# "Who calls this outside tests?" — every `pub fn` of the library crates that
# only tests (or nothing) call.
#
#   tools/test_only_api.sh            # prints one "path:line: name" per candidate
#   tools/test_only_api.sh <git-ref>  # the same, then the count per crate here
#                                     # and at <git-ref>
#
# With a ref it is a ratchet: it exits 1 when the total is higher than at
# <git-ref>.
#
# Defined: each `pub fn` in a .rs file under crates/*/src, above the file's
# first `#[cfg(test)]` line. Called: `name(` or `name::<` on a non-comment
# line of any other tracked .rs file, again above its first `#[cfg(test)]`,
# that is not under a `tests/` directory; the name right after `fn` is a
# definition, not a call, so a same-named function elsewhere hides nothing. A function with no such caller is
# printed: it is dead, test-only, or used only inside its own file (and then
# need not be `pub`).
#
# This is grep, not name resolution: a call to any function of the same name
# counts (so `new`, `len`, `get` are never reported), and a function that is
# only ever passed by path (`.map(FuncProfile::len)`) is reported though used.
# Read the output as candidates to account for, not as verdicts.
set -eu
cd "$(git rev-parse --show-toplevel)"
ref=${1-}

# Reads .rs paths on stdin, prints the candidates among those files; $1 is the
# command prefix that prints a file given its path.
candidates() {
    grep -Ev '(^|/)tests/' | while IFS= read -r path; do
        printf '\001%s\n' "$path"
        $1"$path"
    done | awk '
        /^\001/ { path = substr($0, 2); in_tests = 0; line = 0; next }
        { line++ }
        /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[ \t]*\/\// { next }
        {
            if (path ~ /^crates\/[^\/]+\/src\// &&
                match($0, /^[ \t]*pub (const |unsafe )*fn [A-Za-z_][A-Za-z0-9_]*/)) {
                name = substr($0, RSTART, RLENGTH)
                sub(/.*fn /, "", name)
                defs[++ndefs] = name SUBSEP path SUBSEP line
            }
            # The name a definition introduces is not a call of it.
            rest = $0
            gsub(/(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/, " fn ", rest)
            while (match(rest, /[A-Za-z_][A-Za-z0-9_]*(\(|::<)/)) {
                name = substr(rest, RSTART, RLENGTH)
                sub(/(\(|::<)$/, "", name)
                if (!((name, path) in seen)) { seen[name, path] = 1; files[name]++ }
                rest = substr(rest, RSTART + RLENGTH)
            }
        }
        END {
            for (i = 1; i <= ndefs; i++) {
                split(defs[i], d, SUBSEP)
                # Callers in the defining file do not count.
                if (files[d[1]] - ((d[1], d[2]) in seen) < 1) printf "%s:%d: %s\n", d[2], d[3], d[1]
            }
        }' | sort -t: -k1,1 -k2,2n
}

here=$(git ls-files -co --exclude-standard -- '*.rs' |
    while IFS= read -r path; do [ -f "$path" ] && printf '%s\n' "$path"; done | candidates 'cat ')
[ -z "$here" ] || printf '%s\n' "$here"
[ -n "$ref" ] || exit 0

there=$(git ls-tree -r --name-only "$ref" | grep '\.rs$' | candidates "git show $ref:")
# One "side crate" line per candidate, then the per-crate table.
{ printf '%s\n' "$here" | sed 's/^/now /'; printf '%s\n' "$there" | sed 's/^/ref /'; } |
    awk -F'[ /]' -v ref="$ref" '
        NF >= 3 { crate = $2 "/" $3; count[$1, crate]++; crates[crate] = 1; total[$1]++ }
        END {
            printf "\n%-20s %5s %10s %7s\n", "", "now", "@" substr(ref, 1, 7), "delta"
            for (crate in crates) {
                now = count["now", crate] + 0; was = count["ref", crate] + 0
                printf "%-20s %5d %10d %+7d\n", crate, now, was, now - was | "sort"
            }
            close("sort")
            printf "%-20s %5d %10d %+7d\n", "total", total["now"], total["ref"], total["now"] - total["ref"]
            if (total["now"] > total["ref"]) {
                print "test-only pub fns rose against " ref > "/dev/stderr"
                exit 1
            }
        }'
