#!/bin/sh
# "Who calls this outside tests?" — every `pub fn` of the library crates that
# only tests (or nothing) call.
#
#   tools/test_only_api.sh        # prints one "path:line: name" per candidate
#
# Defined: each `pub fn` in a .rs file under crates/*/src, above the file's
# first `#[cfg(test)]` line. Called: `name(` or `name::<` on a non-comment
# line of any other tracked .rs file, again above its first `#[cfg(test)]`,
# that is not under a `tests/` directory. A function with no such caller is
# printed: it is dead, test-only, or used only inside its own file (and then
# need not be `pub`).
#
# This is grep, not name resolution: a call to any function of the same name
# counts (so `new`, `len`, `get` are never reported), and a function that is
# only ever passed by path (`.map(FuncProfile::len)`) is reported though used.
# Read the output as candidates to account for, not as verdicts.
set -eu
cd "$(git rev-parse --show-toplevel)"

git ls-files -co --exclude-standard -- '*.rs' | grep -Ev '(^|/)tests/' |
    while IFS= read -r path; do
        [ -f "$path" ] || continue
        printf '\001%s\n' "$path"
        cat "$path"
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
            rest = $0
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
