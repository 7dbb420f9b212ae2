#!/usr/bin/env bash
# Non-test lines of Rust under crates/, per crate and in total: the
# number CHANGES.md entries cite. For every crates/**/*.rs outside
# `benches/` and `tests/` directories (simlint's fixtures live under its
# tests/), count the lines before the file's first `#[cfg(test)]`.
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
        FNR == 1 { counting = 1; split(FILENAME, part, "/"); crate = part[2] }
        /#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines[crate]++; file[FILENAME]++; total++ }
        END {
            for (crate in lines) printf "%7d  %s\n", lines[crate], crate | "sort -k2"
            close("sort -k2")
            printf "%7d  total\n\nlargest files (non-test lines):\n", total
            for (f in file) printf "%7d  %s\n", file[f], f | "sort -k1,1nr -k2 | head -5"
        }'
