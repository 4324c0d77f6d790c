#!/bin/sh
# Non-test lines of code, the unit ROADMAP's simplicity targets are stated in:
# for every crates/<crate>/src/**/*.rs, the lines above the file's first
# `#[cfg(test)]` (the whole file when it has none) — comments and blank lines
# included, the in-file test module excluded. Prints one row per file, a
# subtotal per crate and the total for crates/.
#
# Usage: scripts/loc.sh [file-or-crate-substring]   (e.g. `scripts/loc.sh core`)
set -eu
cd "$(dirname "$0")/.."

find crates -path 'crates/*/src/*' -name '*.rs' | LC_ALL=C sort | while read -r f; do
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0, FILENAME }' "$f"
done | awk -v only="${1:-}" '
    {
        split($2, part, "/")
        crate = part[1] "/" part[2]
        if (crate != last && last != "") subtotal()
        last = crate
        sum += $1
        total += $1
        if (index($2, only)) printf "%7d  %s\n", $1, $2
    }
    function subtotal() {
        if (index(last, only)) printf "%7d  %s (crate)\n", sum, last
        sum = 0
    }
    END {
        subtotal()
        printf "%7d  crates/ (total)\n", total
    }
'
