#!/bin/sh
# Public names per file, the unit CHANGES entries count "deleted public
# names" in: for every crates/<crate>/src/**/*.rs, the `pub fn|struct|enum|
# const|trait|type` items above the file's first `#[cfg(test)]` (restricted
# visibility such as `pub(crate)` is not public and not counted). Prints one
# row per file, a subtotal per crate and the total for crates/ — the same
# shape as scripts/loc.sh.
#
# Usage: scripts/pub-names.sh [file-or-crate-substring]   (e.g. `scripts/pub-names.sh core`)
set -eu
cd "$(dirname "$0")/.."

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
