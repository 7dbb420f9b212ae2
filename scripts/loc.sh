#!/usr/bin/env bash
# Non-test lines of Rust under crates/, per crate and in total: the
# number CHANGES.md entries cite. For every crates/**/*.rs outside
# `benches/` and `tests/` directories (a crate's integration tests and
# their fixtures), count every line except those of `#[cfg(test)]` items. An
# item starts at a line whose trimmed text begins with `#[cfg(test)]`
# and ends where its braces close, or, for a braceless item (a `use`, a
# struct field), on its first line ending in `;` or `,`.
# Then the five largest files by that count: where the next split is.
#
#   scripts/loc.sh [ROOT]     ROOT defaults to this repository; pass a
#                             checkout of the parent commit to compare
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

find crates -name '*.rs' -not -path '*/benches/*' -not -path '*/tests/*' -print0 |
    sort -z |
    xargs -0 awk '
        function count(s, re) { return gsub(re, "", s) }
        FNR == 1 { skip = 0; split(FILENAME, part, "/"); crate = part[2] }
        {
            text = $0
            sub(/^[ \t]+/, "", text)
            if (!skip && index(text, "#[cfg(test)]") == 1) {
                skip = 1; braces = 0; parens = 0; opened = 0
                text = substr(text, 13)
            }
            if (!skip) { lines[crate]++; file[FILENAME]++; total++; next }
            gsub(/"([^"\\]|\\.)*"|'\''[{}()[\]]'\''/, "", text)
            sub(/\/\/.*$/, "", text)
            if (count(text, "[{]") > 0) opened = 1
            braces += count(text, "[{]") - count(text, "[}]")
            parens += count(text, "[([]") - count(text, "[])]")
            if (opened ? braces <= 0 : parens <= 0 && text ~ /[;,][ \t]*$/) skip = 0
        }
        END {
            for (crate in lines) printf "%7d  %s\n", lines[crate], crate | "sort -k2"
            close("sort -k2")
            printf "%7d  total\n\nlargest files (non-test lines):\n", total
            for (f in file) printf "%7d  %s\n", file[f], f | "sort -k1,1nr -k2 | head -5"
        }'
