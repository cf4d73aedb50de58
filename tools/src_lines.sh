#!/bin/sh
# Non-test Rust lines per crate, counted the same way every PR.
#
#   tools/src_lines.sh            # the working tree
#   tools/src_lines.sh <git-ref>  # the working tree, and its delta against <git-ref>
#
# Counted: every line of every .rs file under crates/*/src and src, up to
# (not including) the file's first `#[cfg(test)]` line. `src/bin/` directories
# are listed as rows of their own. Nothing else is interpreted: a comment or a
# blank line is a line, so reformatting shows up as a change here too.
set -eu
cd "$(git rev-parse --show-toplevel)"
ref=${1-}

# Reads "path" lines on stdin, prints "group lines" per group; $1 is the
# command prefix that prints a file given its path.
tally() {
    while IFS= read -r path; do
        printf '\001%s\n' "$path"
        $1"$path"
    done | awk '
        /^\001/ {
            path = substr($0, 2); in_tests = 0
            group = path
            if (group ~ /\/src\/bin\//) sub(/\/src\/bin\/.*/, "/src/bin", group)
            else sub(/\/?src\/.*/, "", group)
            if (group == "") group = "src"
            if (!(group in lines)) lines[group] = 0
            next
        }
        /^[ \t]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { lines[group]++ }
        END { for (group in lines) print group, lines[group] }
    '
}

sources='^(crates/[^/]+/src/|src/).*\.rs$'
here=$(git ls-files -co --exclude-standard -- crates src | grep -E "$sources" |
    while IFS= read -r path; do [ -f "$path" ] && printf '%s\n' "$path"; done | tally 'cat ')

if [ -z "$ref" ]; then
    printf '%s\n' "$here" | sort | awk '
        { printf "%-28s %7d\n", $1, $2; total += $2 }
        END { printf "%-28s %7d\n", "total", total }'
    exit 0
fi

there=$(git ls-tree -r --name-only "$ref" -- crates src | grep -E "$sources" | tally "git show $ref:")
{ printf '%s\n' "$here" | sed 's/^/now /'; printf '%s\n' "$there" | sed 's/^/ref /'; } |
    awk 'NF == 3 { print $2, $1, $3 }' | sort | awk -v ref="$ref" '
        function row(name, a, b) { printf "%-28s %7d %7d %+7d\n", name, a, b, a - b }
        function flush() { if (group != "") { row(group, now, was); all_now += now; all_was += was } }
        BEGIN { printf "%-28s %7s %7s %7s\n", "", "now", substr(ref, 1, 7), "delta" }
        $1 != group { flush(); group = $1; now = 0; was = 0 }
        $2 == "now" { now = $3 }
        $2 == "ref" { was = $3 }
        END { flush(); row("total", all_now, all_was) }'
