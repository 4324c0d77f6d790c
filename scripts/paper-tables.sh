#!/bin/sh
# The paper-reproduction text tables (Tables I-IV, Figure 5, the design
# ablations) are closed-form: every number is a cost-model output, so each
# bin prints the same bytes on every run. This script pins them: it runs the
# six bins and compares their stdout with the goldens under docs/paper/, so
# a modeled number either stays put or is regenerated on purpose.
#
# Usage: scripts/paper-tables.sh           compare against docs/paper/*.txt
#        scripts/paper-tables.sh --write   regenerate the goldens
set -eu
cd "$(dirname "$0")/.."

mode="${1:-}"
cargo build --release -q -p phonebit-bench
status=0
for bin in table1 table2 table3 table4 figure5 ablation; do
    golden="docs/paper/$bin.txt"
    if [ "$mode" = "--write" ]; then
        "target/release/$bin" > "$golden"
        echo "wrote $golden"
    elif "target/release/$bin" | cmp - "$golden"; then
        echo "ok   $bin"
    else
        echo "DIFF $bin: output differs from $golden" >&2
        status=1
    fi
done
exit $status
