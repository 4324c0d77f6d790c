#!/bin/sh
# Public names per file, the unit CHANGES entries count "deleted public
# names" in: for every crates/<crate>/src/**/*.rs, the `pub fn|struct|enum|
# const|trait|type` items above the file's first `#[cfg(test)]` (restricted
# visibility such as `pub(crate)` is not public and not counted). Prints one
# row per file, a subtotal per crate and the total for crates/ — the same
# shape as scripts/loc.sh.
#
# `--unused` prints the census instead: every such name that no other `.rs`
# file under crates/, tests/, examples/, src/ or benchmark/src mentions once
# `//` comments and `pub use` re-exports are stripped, one `file name` row
# each, and the count on stderr. A row marked `dead` is mentioned by its own
# file's non-test code only at its definition; the rest are used inside their
# own file only. Names are matched as words, so a method whose name another
# item also has (`new`, `len`) is never listed, and a type reached only by
# inference (`let cell = run_row(..)[0]`) is listed though it is public API.
#
# Usage: scripts/pub-names.sh [--unused] [file-or-crate-substring]
#        (e.g. `scripts/pub-names.sh core`, `scripts/pub-names.sh --unused tensor`)
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--unused" ]; then
    shift
    find crates tests examples src benchmark/src -name '*.rs' | LC_ALL=C sort | xargs awk -v only="${1:-}" '
        FNR == 1 { in_test = 0; in_use = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_test = 1 }
        {
            line = $0
            sub(/\/\/.*/, "", line)
            # A re-export is not a caller.
            if (line ~ /^[[:space:]]*pub use /) in_use = 1
            if (in_use) { if (line ~ /;/) in_use = 0; next }
            if (!in_test && FILENAME ~ /^crates\/[^\/]+\/src\// &&
                match(line, /^[[:space:]]*pub (fn|struct|enum|const|trait|type) [A-Za-z_][A-Za-z0-9_]*/)) {
                n = split(substr(line, RSTART, RLENGTH), w, " ")
                name = w[n]
                if (name == "fn") {
                    rest = substr(line, RSTART + RLENGTH)
                    match(rest, /^ [A-Za-z_][A-Za-z0-9_]*/)
                    name = substr(rest, 2, RLENGTH - 1)
                }
                def[FILENAME SUBSEP name] = 1
            }
            gsub(/[^A-Za-z0-9_]+/, " ", line)
            n = split(line, w, " ")
            for (i = 1; i <= n; i++) {
                if (!((w[i], FILENAME) in seen)) { seen[w[i], FILENAME] = 1; files[w[i]]++ }
                if (!in_test) own[FILENAME, w[i]]++
            }
        }
        END {
            for (k in def) {
                split(k, p, SUBSEP)
                if (files[p[2]] > 1 || !index(p[1], only)) continue
                printf "%s %s%s\n", p[1], p[2], own[p[1], p[2]] == 1 ? " dead" : ""
                count++
                if (own[p[1], p[2]] == 1) dead++
            }
            printf "%d unused outside their file (%d dead)\n", count, dead > "/dev/stderr"
        }
    ' | LC_ALL=C sort
    exit 0
fi

find crates -path 'crates/*/src/*' -name '*.rs' | LC_ALL=C sort | while read -r f; do
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
         /^[[:space:]]*pub (fn|struct|enum|const|trait|type) / { n++ }
         END { print n + 0, FILENAME }' "$f"
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
