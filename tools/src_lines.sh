#!/bin/sh
# Rust lines per crate, counted the same way every PR: one table of non-test
# code, then one of test code.
#
#   tools/src_lines.sh            # the working tree
#   tools/src_lines.sh <git-ref>  # the working tree, and its delta against <git-ref>
#
# source: every line of every .rs file under crates/*/src and src, up to (not
# including) the file's first `#[cfg(test)]` line. `src/bin/` directories are
# listed as rows of their own.
# tests: the rest of those files (their `#[cfg(test)]` tails), and every line
# of every .rs file under crates/*/tests and tests, one row per crate (`tests`
# and `src` are the root package's).
# Nothing else is interpreted: a comment or a blank line is a line, so
# reformatting shows up as a change here too.
set -eu
cd "$(git rev-parse --show-toplevel)"
ref=${1-}

# Reads "path" lines on stdin, prints "table group lines" per group; $1 is the
# command prefix that prints a file given its path.
tally() {
    while IFS= read -r path; do
        printf '\001%s\n' "$path"
        $1"$path"
    done | awk '
        /^\001/ {
            path = substr($0, 2)
            in_tests = path ~ /^(crates\/[^\/]+\/)?tests\//
            crate = path
            if (crate ~ /^(src|tests)\//) sub(/\/.*/, "", crate)
            else sub(/\/(src|tests)\/.*/, "", crate)
            group = path
            if (group ~ /\/src\/bin\//) sub(/\/src\/bin\/.*/, "/src/bin", group)
            else sub(/\/?src\/.*/, "", group)
            if (group == "") group = "src"
            if (!in_tests && !(group in source)) source[group] = 0
            next
        }
        /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { tests[crate]++ }
        !in_tests { source[group]++ }
        END {
            for (group in source) print "source", group, source[group]
            for (crate in tests) print "tests", crate, tests[crate]
        }
    '
}

files='^(crates/[^/]+/(src|tests)/|src/|tests/).*\.rs$'
here=$(git ls-files -co --exclude-standard -- crates src tests | grep -E "$files" |
    while IFS= read -r path; do [ -f "$path" ] && printf '%s\n' "$path"; done | tally 'cat ')
if [ -n "$ref" ]; then
    there=$(git ls-tree -r --name-only "$ref" -- crates src tests | grep -E "$files" |
        tally "git show $ref:")
fi

for table in source tests; do
    [ "$table" = source ] || echo
    if [ -z "$ref" ]; then
        printf '%s\n' "$here" | awk -v t="$table" '$1 == t { print $2, $3 }' | sort | awk -v t="$table" '
            BEGIN { printf "%-28s %7s\n", t, "lines" }
            { printf "%-28s %7d\n", $1, $2; total += $2 }
            END { printf "%-28s %7d\n", "total", total }'
        continue
    fi
    { printf '%s\n' "$here" | sed 's/^/now /'; printf '%s\n' "$there" | sed 's/^/ref /'; } |
        awk -v t="$table" '$2 == t { print $3, $1, $4 }' | sort | awk -v ref="$ref" -v t="$table" '
            function row(name, a, b) { printf "%-28s %7d %7d %+7d\n", name, a, b, a - b }
            function flush() { if (group != "") { row(group, now, was); all_now += now; all_was += was } }
            BEGIN { printf "%-28s %7s %7s %7s\n", t, "now", substr(ref, 1, 7), "delta" }
            $1 != group { flush(); group = $1; now = 0; was = 0 }
            $2 == "now" { now = $3 }
            $2 == "ref" { was = $3 }
            END { flush(); row("total", all_now, all_was) }'
done
