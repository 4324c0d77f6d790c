#!/bin/sh
# Parent/child A/B on the repo benchmark (BENCHMARK.json, benchmark/): the
# method every perf claim in CHANGES.md is stated in.
#
# The parent is `git archive <parent-rev>`, the child this checkout's working
# tree as it is (uncommitted edits included); each is built offline into its
# own target directory. Pair k runs every workload on both sides with seed
# S + k - 1, untraced, at BENCHMARK.json's run_seconds, `benchmark/` as
# committed on each side; the side that goes first alternates pair by pair.
# Per workload and end-to-end metric it prints both medians, the change, the
# parent's IQR, how many pairs the child wins, the metric's bound and every
# pair; per workload both sides' failed operations. Last come one traced
# seed-2020 run per side and workload and one pass/fail line: the exact
# metrics — gpusim.modeled.*, the core.plan / core.serve / core.fleet counts
# and bytes, nn.*.executed_gops and nn.*.dram_mb — must be equal.
#
# Usage: scripts/ab.sh <parent-rev> [--pairs N] [--workload W]
#                      [--seed-from S] [--layout-control]
#   --pairs N          pairs per workload (default 10)
#   --workload W       one workload (default: every one BENCHMARK.json lists)
#   --seed-from S      the first pair's seed (default 3001; 2020 is the
#                      golden seed and skips the live oracle)
#   --layout-control   repeat the pairs with both sides rebuilt at one codegen
#                      unit (CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1)
#
# Builds and every run's output go to $AB_DIR (default
# ${TMPDIR:-/tmp}/phonebit-ab), emptied first. A 10-pair run of all four
# workloads takes about 40 minutes. Exits 1 when a run produces no result
# line or the exact metrics differ.
set -eu
cd "$(dirname "$0")/.."
root="$(pwd)"

usage() {
    sed -n 's/^# \{0,1\}//; /^Usage:/,/^$/p' "$0" >&2
    exit 2
}
[ $# -ge 1 ] || usage
parent_rev="$1"
shift
pairs=10
only=""
seed_from=3001
layout=0
while [ $# -gt 0 ]; do
    case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --workload) only="$2"; shift 2 ;;
    --seed-from) seed_from="$2"; shift 2 ;;
    --layout-control) layout=1; shift ;;
    *) usage ;;
    esac
done

# BENCHMARK.json is written one key per line: read it with awk, by section.
spec() {
    awk -v want="$1" '
        /^ "[a-z_]+": / { section = $0; sub(/^ "/, "", section); sub(/".*/, "", section) }
        /^ "run_seconds": / && want == "seconds" { v = $2; sub(/,/, "", v); print v }
        /^   "name": / { split($0, q, "\""); name = q[4] }
        /^   "better": / { split($0, q, "\""); better = q[4] }
        /^   "bound": / {
            v = $2; sub(/,/, "", v)
            if (section == "end_to_end" && want == "metrics") print name, better, v
        }
        /^  }/ && section == "workloads" && want == "workloads" { print name }
    ' BENCHMARK.json
}
seconds="$(spec seconds)"
workloads="${only:-$(spec workloads)}"

out="${AB_DIR:-${TMPDIR:-/tmp}/phonebit-ab}"
rm -rf "$out"
mkdir -p "$out/parent"
git archive "$parent_rev" | tar -x -C "$out/parent"
parent_sha="$(git rev-parse --short "$parent_rev")"

# build <side> <suffix>: the side's benchmark binary in $out/<side>-target<suffix>.
build() {
    src="$root"
    [ "$1" = parent ] && src="$out/parent"
    echo "building $1${2:+ ($2)}" >&2
    CARGO_TARGET_DIR="$out/$1-target$2" cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml"
}

# run <side> <suffix> <workload> <seed> <trace>: appends "side workload seed
# <result line>" to $out/results<suffix>-trace<trace>.txt.
run() {
    log="$out/runs$2/$1-$3-$4-trace$5.txt"
    mkdir -p "$out/runs$2"
    "$out/$1-target$2/release/phonebit-benchmark" --workload "$3" --seed "$4" \
        --seconds "$seconds" --trace "$5" > "$log" 2>&1 || true
    line="$(tail -n 1 "$log")"
    case "$line" in
    '{"correct"'*) echo "$1 $3 $4 $line" >> "$out/results$2-trace$5.txt" ;;
    *) echo "$1 $3 $4 missing" >> "$out/results$2-trace$5.txt"; echo "no result line: $log" >&2 ;;
    esac
}

# campaign <suffix>: the pairs, then their table.
campaign() {
    k=1
    while [ "$k" -le "$pairs" ]; do
        seed=$((seed_from + k - 1))
        for w in $workloads; do
            if [ $((k % 2)) -eq 1 ]; then order="parent child"; else order="child parent"; fi
            for side in $order; do
                echo "pair $k/$pairs $w seed $seed: $side" >&2
                run "$side" "$1" "$w" "$seed" 0
            done
        done
        k=$((k + 1))
    done
    spec metrics | report "$out/results$1-trace0.txt"
}

# report <results>: reads "name better bound" rows on stdin.
report() {
    awk -v results="$1" -v workloads="$workloads" '
        function value(line, name,   i) {
            i = index(line, "\"" name "\": {\"value\": ")
            return i ? substr(line, i + length(name) + 14) + 0 : ""
        }
        function sorted(a, n, s,   i, j, t) {
            for (i = 1; i <= n; i++) s[i] = a[i]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && s[j - 1] > s[j]; j--) { t = s[j]; s[j] = s[j - 1]; s[j - 1] = t }
        }
        # Linear interpolation between order statistics (0 <= p <= 1).
        function quantile(a, n, p,   s, h, lo) {
            sorted(a, n, s)
            h = (n - 1) * p + 1
            lo = int(h)
            return lo >= n ? s[n] : s[lo] + (h - lo) * (s[lo + 1] - s[lo])
        }
        { metric[++m] = $1; better[m] = $2; bound[m] = $3 }
        END {
            while ((getline row < results) > 0) {
                split(row, f, " ")
                key = f[2] SUBSEP f[3]
                line[f[1], key] = row
                if (!((f[2], f[3]) in seen)) { seen[f[2], f[3]] = 1; seeds[f[2]] = seeds[f[2]] " " f[3] }
            }
            nw = split(workloads, wl, " ")
            status = 0
            for (x = 1; x <= nw; x++) {
                w = wl[x]
                ns = split(seeds[w], sd, " ")
                printf "\n%s: %d pairs, seeds %s..%s\n", w, ns, sd[1], sd[ns]
                printf "  %-22s %12s %12s %8s %11s %7s %6s\n", "metric", "parent p50", "child p50", "change", "parent IQR", "wins", "bound"
                for (i = 1; i <= m; i++) {
                    n = 0; wins = 0; pairs = ""
                    for (j = 1; j <= ns; j++) {
                        pl = line["parent", w SUBSEP sd[j]]; cl = line["child", w SUBSEP sd[j]]
                        if (pl !~ /correct/ || cl !~ /correct/) continue
                        n++
                        p[n] = value(pl, metric[i]); c[n] = value(cl, metric[i])
                        if (better[i] == "lower" && c[n] < p[n] || better[i] == "higher" && c[n] > p[n]) wins++
                        pairs = pairs sprintf(" %.6g/%.6g", p[n], c[n])
                    }
                    if (n == 0) continue
                    pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
                    change = pm != 0 ? (cm - pm) / pm : 0
                    worse = better[i] == "lower" ? change : -change
                    flag = (worse > bound[i]) ? "  WORSE THAN BOUND" : ""
                    printf "  %-22s %12.6g %12.6g %+7.1f%% %11.4g %4d/%-2d %5.0f%%%s\n", metric[i], pm, cm,
                        change * 100, quantile(p, n, 0.75) - quantile(p, n, 0.25), wins, n, bound[i] * 100, flag
                    printf "    parent/child:%s\n", pairs
                }
                for (s = 1; s <= 2; s++) {
                    side = s == 1 ? "parent" : "child"
                    att = 0; fail = 0; missing = 0
                    for (j = 1; j <= ns; j++) {
                        l = line[side, w SUBSEP sd[j]]
                        if (l !~ /correct/) { missing++; continue }
                        att += substr(l, index(l, "\"attempted\": ") + 13) + 0
                        fail += substr(l, index(l, "\"failed\": ") + 10) + 0
                    }
                    printf "  %s: %d failed of %d attempted operations%s\n", side, fail, att,
                        missing ? sprintf(", %d runs without a result line", missing) : ""
                    if (missing) status = 1
                }
            }
            exit status
        }
    '
}

# exact: one traced seed-2020 run per side and workload, the exact metrics compared.
exact() {
    for w in $workloads; do
        for side in parent child; do
            echo "traced $w seed 2020: $side" >&2
            run "$side" "" "$w" 2020 1
        done
    done
    awk '
        function exact(name) {
            return name ~ /^gpusim\.modeled\./ || name ~ /^nn\..*\.(executed_gops|dram_mb)$/ ||
                (name ~ /^core\.(plan|serve|fleet)\./ && name !~ /_(ms|us)/)
        }
        {
            side = $1; w = $2
            rest = $0
            while (match(rest, /"[a-z0-9_.]+": \{"value": [-0-9.e+]+/)) {
                pair = substr(rest, RSTART, RLENGTH)
                rest = substr(rest, RSTART + RLENGTH)
                split(pair, q, "\"")
                v = pair; sub(/.*"value": /, "", v)
                if (exact(q[2])) { val[side, w, q[2]] = v; names[w, q[2]] = 1 }
            }
            if ($4 == "missing") broken = broken " " side "/" w
        }
        END {
            for (k in names) {
                split(k, kw, SUBSEP)
                total++
                if (val["parent", kw[1], kw[2]] != val["child", kw[1], kw[2]]) {
                    diff = diff sprintf("\n  %s %s: parent %s child %s", kw[1], kw[2],
                        val["parent", kw[1], kw[2]], val["child", kw[1], kw[2]])
                }
            }
            if (broken != "" || diff != "" || total == 0) {
                printf "exact metrics (traced, seed 2020): FAIL%s%s\n",
                    broken != "" ? " — no result line:" broken : "", diff
                exit 1
            }
            printf "exact metrics (traced, seed 2020): PASS — %d values equal\n", total
        }
    ' "$out/results-trace1.txt"
}

echo "A/B: parent $parent_sha, child = working tree of $(git rev-parse --short HEAD); $pairs pairs at ${seconds} s; AB_DIR=$out" >&2
build parent ""
build child ""
status=0
echo "== parent $parent_sha vs child (working tree), ${seconds} s runs, first side alternating"
campaign "" || status=1
if [ "$layout" -eq 1 ]; then
    export CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1
    build parent -cgu1
    build child -cgu1
    echo
    echo "== layout control: both sides at codegen-units=1"
    campaign -cgu1 || status=1
    unset CARGO_PROFILE_RELEASE_CODEGEN_UNITS
fi
echo
exact || status=1
exit $status
