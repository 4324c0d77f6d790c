#!/bin/sh
# The eight closed-form report bins (throughput, serve, multitenant,
# openloop, fusion, compress, paging, fleet) are deterministic: every number
# is a cost-model output or a seeded schedule, so each bin writes the same
# bytes on every run. This script pins them: it runs each bin with its gates
# (described in the bin's module doc) and `--check-baseline`, which for these
# bins requires the output to equal the committed BENCH_<name>.json byte for
# byte, so a modeled number either stays put or is regenerated and committed
# on purpose. `bconv_report` times
# real kernels and keeps its own tolerant CI step.
#
# Usage: scripts/bench-baselines.sh           compare against BENCH_*.json
#        scripts/bench-baselines.sh --write   regenerate them in place
set -eu
cd "$(dirname "$0")/.."

mode="${1:-}"
cargo build --release -q -p phonebit-bench
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
status=0
for name in throughput serve multitenant openloop fusion compress paging fleet; do
    bin="target/release/${name}_report"
    committed="BENCH_$name.json"
    if [ "$mode" = "--write" ]; then
        "$bin" --out "$committed" > /dev/null
        echo "wrote $committed"
    elif "$bin" --out "$out/$committed" --check-baseline "$committed" > "$out/log" 2>&1; then
        echo "ok   $name"
    else
        cat "$out/log" >&2
        echo "FAIL $name: a gate failed or the output differs from $committed" >&2
        status=1
    fi
done
exit $status
