#!/bin/sh
# The binary kernels get hardware popcount only when their row drivers are
# inlined into the `#[target_feature]` frames of crates/nn/src/kernels/isa.rs
# (see its module docs). This disassembles a release binary that links them
# and fails unless the `isa::run_avx512` instances hold `vpopcntq` (the
# binary body's 64-bit lanes) and `vpopcntd` (the first layer's 32-bit
# ones) and no gather of any form (`vpgather*`, `vgather*`: LLVM's loop
# vectoriser taking a window-word loop — a 12-word AlexNet first-layer
# window, a one-group binary tile: seen, 2.7x slower — or a lane-word
# epilogue reloading its words across pixels, seen as `vpgatherdq`), and the
# `isa::run_popcnt` instances hold `popcnt`. Gathers are counted per
# mnemonic.
#
# Frame by frame, an `isa::run_avx512` instance that holds `vpopcntd` must
# keep its sixteen filter lanes in one `zmm`: more than one narrow
# (`xmm`/`ymm`) `vpopcntd` per eight on `zmm` fails. The one allowed is the
# per-pixel popcount of the eight planes; the split seen at one codegen unit
# (LLVM vectorising the planes, not the filters) is 17 narrow and none wide.
# The first layer's byte dot has frames of its own
# (crates/nn/src/kernels/bytedot.rs): `row_vnni` must hold `vpdpbusd` on
# `zmm`, `row_avx2` `vpmaddubsw`, and neither a gather. Its `(3, 3, 3)`
# instance `row_vnni_rgb3` must hold `vpdpbusd` on `zmm`, no gather, and no
# call but a panic's (an out-of-line closure or a `memcpy` of the bank
# vectors: both seen while writing it). Calls through the GOT are resolved
# to their symbol by the binary's relative relocations. The float head
# over floats runs in `isa::run_avx512` too: those frames must hold packed
# `vmulps` and `vaddps` on `zmm` (sixteen filters per vector; scalar
# `vmulss` there is a split tile). The head over packed signs
# (crates/nn/src/kernels/fconv.rs `compute_fconv_bits`, named by its closure
# in the line table) must hold `vaddps` on `zmm` from memory — the pair the
# input bit picks — and no `vmulps`, `vfmadd` or gather (seen: the loop
# vectoriser took the group axis, a gather per lane and a scatter per add).
#
# The direct binary rows (crates/nn/src/kernels/tiled.rs `conv_row_tiled`,
# windows read in place from the row ring, thin `C % 64 != 0` rows included
# — bconv_report's `tiled` rows) are `isa::run_avx512` instances named by
# their closure in the line table (`objdump -l`): every such frame must
# hold `vpopcntq`, and there must be one. YOLO's conv2 (C = 16) and conv3
# (C = 32) run at their packing width instead (bconv_report's `taps` rows):
# the frames `taps::row16` and `taps::row32` (crates/nn/src/kernels/taps.rs)
# must hold `vpopcntw` and `vpopcntd` on `zmm` respectively, each a
# `vpxord` with the pixel broadcast folded in as a `{1to16}` memory operand
# and a `vpcmp*` into `%k` (the cut), no gather, and no call but a panic's.
# A bank whose filters repeat runs its distinct filters as lanes and fills
# in every output (bconv_report's `shared` rows): the frame
# `tiled::shared_avx512` must hold the tile's `vpopcntq`, the expand's
# `vpermw` (or `vpermt2w`/`vpermi2w`, past 32 distinct filters) on `zmm` and
# a `vpcmp*` into `%k`, no gather, and no call but a panic's (its closures
# left out of line: seen, a call and a `vzeroupper` per block). The sign-pack frame (`pack_avx512` in
# crates/nn/src/kernels/mod.rs) must compare into a mask register
# (`vcmp*ps` on `zmm` into `%k`) and move the mask out (`kmov`), and hold no
# gather.
#
# The binary pool (crates/nn/src/kernels/pool.rs `or_pool_row`) runs the
# zoo's shapes as instances of one body at literal `(wpp, size, stride)`;
# the line table (`objdump -l --inlines`) ties each instruction to the
# match arm it was inlined from. The one-word 2x2/2 arm (YOLO pool1-pool3,
# bconv_report's yolo_pool1 row) must hold packed ORs (`por`, `orps` or
# their `v` forms on a vector register) and no `div`. The body with a
# runtime `wpp` divides by it (`chunks_exact(wpp)`) and vectorises only the
# word loop inside a pixel, which a one-word pixel never enters: its packed
# ORs are there, but the row runs the scalar loop (seen: the arm with
# `black_box(wpp)` kept two packed ORs and gained a `div`).
#
# Run it on a default build and on one built with
# CARGO_PROFILE_RELEASE_CODEGEN_UNITS=1, as CI does.
#
# usage: scripts/check-kernel-codegen.sh [binary]   (default: bconv_report)
set -eu
bin="${1:-target/release/bconv_report}"
if ! command -v objdump >/dev/null 2>&1; then
    echo "objdump not found; skipping the kernel codegen check"
    exit 0
fi
# Calls through the GOT (`call *..(%rip) # <_DYNAMIC+0x..>`): GOT slot
# address, then the function each relative relocation points it at.
dynamic=$(readelf -SW "$bin" | awk '$2 == ".dynamic" { print $4 }')
got_targets=$(readelf -rW "$bin" | awk '$3 == "R_X86_64_RELATIVE" { print $1, $4 }')
symbols=$(nm -C "$bin" | awk '$2 ~ /^[tT]$/ { print $1, substr($0, index($0, $3)) }')
pool_src="$(dirname "$0")/../crates/nn/src/kernels/pool.rs"
pool_arm=$(grep -n '(1, 2, 2) => or_windows' "$pool_src" | cut -d: -f1)
if [ -z "$pool_arm" ]; then
    echo "no (1, 2, 2) arm found in $pool_src"
    exit 1
fi
objdump -d -l --inlines --no-show-raw-insn -C "$bin" | awk -v pool_arm="$pool_arm" \
    -v dynamic="$dynamic" -v got_targets="$got_targets" -v symbols="$symbols" '
    function hex(s,   i, n, d) {
        s = tolower(s); sub(/^0x/, "", s); n = 0
        for (i = 1; i <= length(s); i++) {
            d = index("0123456789abcdef", substr(s, i, 1)) - 1
            n = n * 16 + d
        }
        return n
    }
    BEGIN {
        n = split(got_targets, entries, "\n")
        for (i = 1; i <= n; i++) { split(entries[i], col, " "); slot[hex(col[1])] = hex(col[2]) }
        n = split(symbols, entries, "\n")
        for (i = 1; i <= n; i++) {
            at = index(entries[i], " ")
            name[hex(substr(entries[i], 1, at - 1))] = substr(entries[i], at + 1)
        }
        delete entries
    }
    # The function a call in the frame reaches: named, or through the GOT.
    function callee(   t, off) {
        t = $NF
        if (t ~ /^<_DYNAMIC\+0x[0-9a-f]+>$/) {
            off = t; sub(/^<_DYNAMIC\+/, "", off); sub(/>$/, "", off)
            t = name[slot[hex(dynamic) + hex(off)]]
        }
        return t
    }
    # A source location starts a new inline chain; an `or_pool_row` link in
    # it names the pool arm the instructions below come from.
    /^\/.*:[0-9]+/ { arm = "" }
    /^inlined by .*kernels\/pool\.rs:[0-9]+ \(.*or_pool_row/ {
        arm = $3; sub(/.*:/, "", arm)
    }
    /^[0-9a-f]+ <.*>:$/ {
        frame = $1 " " $2; avx512 = frame ~ /isa::run_avx512/; task = ""
        pack = frame ~ /kernels::pack_avx512/
        tap = frame ~ /taps::row16/ ? 16 : frame ~ /taps::row32/ ? 32 : 0
        shared = frame ~ /tiled::shared_avx512/
    }
    # The line table names the closure a `run_avx512` instance runs.
    avx512 && task == "" && /^phonebit[^ ]*::\{\{closure\}\}:$/ {
        task = $0
        if (task ~ /tiled::conv_row_tiled::/) rows[frame] = 0
        if (task ~ /fconv::compute_fconv_bits::/) heads[frame] = 0
    }
    !/^[ \t]+[0-9a-f]+:/ { next }
    avx512 && /vpopcntq/ { vpopcntq++; if (frame in rows) rows[frame]++ }
    avx512 && /vpopcntd/ { vpopcntd++; if (/zmm/) wide[frame]++; else narrow[frame]++ }
    avx512 && /vmulps.*zmm/ { vmulps++ }
    avx512 && /vaddps.*zmm/ { vaddps++ }
    pack && /vcmp[a-z_]*ps.*zmm.*%k/ { packcmp++ }
    pack && /kmov/ { packkmov++ }
    frame ~ /bytedot::row_vnni[^_]/ && /vpdpbusd.*zmm/ { vpdpbusd++ }
    frame ~ /bytedot::row_vnni_rgb3/ && /vpdpbusd.*zmm/ { rgb3++ }
    frame ~ /bytedot::row_vnni_rgb3/ && $2 == "call" && callee() !~ /(panic|_fail|failed)/ {
        rgb3calls++; print "  call in row_vnni_rgb3: " callee()
    }
    frame in heads && /vaddps[^,]*\(.*zmm/ { heads[frame]++ }
    frame in heads && $2 ~ /^(vmulps|vfmadd|vp?gather)/ { headbad[frame]++ }
    frame ~ /bytedot::row_avx2/ && /vpmaddubsw/ { vpmaddubsw++ }
    tap && $2 == (tap == 16 ? "vpopcntw" : "vpopcntd") && /zmm/ { tpop[tap]++ }
    tap && $2 == "vpxord" && /\{1to16\}/ { txor[tap]++ }
    tap && $2 ~ /^vpcmp/ && /%k/ { tcmp[tap]++ }
    tap && $2 == "call" && callee() !~ /(panic|_fail|failed)/ {
        tcalls++; print "  call in taps::row" tap ": " callee()
    }
    shared && /vpopcntq/ { spop++ }
    shared && $2 ~ /^vperm(w|[ti]2w)$/ && /zmm/ { sperm++ }
    shared && $2 ~ /^vpcmp/ && /%k/ { scmp++ }
    shared && $2 == "call" && callee() !~ /(panic|_fail|failed)/ {
        scalls++; print "  call in tiled::shared_avx512: " callee()
    }
    (avx512 || pack || tap || shared || frame ~ /bytedot::row_/) && $2 ~ /^vp?gather/ { gather++; by[$2]++ }
    frame ~ /isa::run_popcnt/ && /[ \t]popcnt/ { popcnt++ }
    arm == pool_arm && $2 ~ /^v?(por[dq]?|orp[sd])$/ && /%[xyz]mm/ { poolor++ }
    arm == pool_arm && $2 ~ /^i?div/ { pooldiv++ }
    END {
        gathers = ""
        for (m in by) gathers = gathers sprintf(" (%s %d)", m, by[m])
        printf "isa::run_avx512: %d vpopcntq, %d vpopcntd, %d vmulps zmm, %d vaddps zmm; isa::run_popcnt: %d popcnt\n",
            vpopcntq, vpopcntd, vmulps, vaddps, popcnt
        printf "bytedot: %d vpdpbusd zmm (row_vnni), %d (row_vnni_rgb3, %d calls), %d vpmaddubsw (row_avx2); %d gathers%s\n",
            vpdpbusd, rgb3, rgb3calls, vpmaddubsw, gather, gathers
        printf "pack_avx512: %d vcmpps zmm into k, %d kmov\n", packcmp, packkmov
        printf "taps: row16 %d vpopcntw zmm, %d vpxord {1to16}, %d vpcmp into k; row32 %d vpopcntd zmm, %d vpxord {1to16}, %d vpcmp into k; %d calls\n",
            tpop[16], txor[16], tcmp[16], tpop[32], txor[32], tcmp[32], tcalls
        printf "tiled::shared_avx512: %d vpopcntq, %d vpermw/vpermt2w zmm, %d vpcmp into k, %d calls\n",
            spop, sperm, scmp, scalls
        printf "or_pool_row (1, 2, 2) arm (pool.rs:%s): %d packed or, %d div\n", pool_arm, poolor, pooldiv
        splits = 0
        for (f in narrow) {
            if (narrow[f] * 8 > wide[f]) {
                printf "  split lanes: %s %d narrow vpopcntd, %d on zmm\n", f, narrow[f], wide[f]
                splits++
            }
        }
        convs = 0
        for (f in rows) {
            printf "conv_row_tiled: %s %d vpopcntq\n", f, rows[f]
            if (rows[f] == 0) splits++
            convs++
        }
        if (convs == 0) print "  no conv_row_tiled run_avx512 frame found"
        nheads = 0
        for (f in heads) {
            printf "compute_fconv_bits: %s %d vaddps zmm from memory, %d vmulps/vfmadd/gather\n",
                f, heads[f], headbad[f]
            if (heads[f] == 0 || headbad[f] > 0) splits++
            nheads++
        }
        if (nheads == 0) print "  no compute_fconv_bits run_avx512 frame found"
        exit !(vpopcntq > 0 && vpopcntd > 0 && gather == 0 && popcnt > 0 && splits == 0 \
            && vmulps > 0 && vaddps > 0 && vpdpbusd > 0 && vpmaddubsw > 0 && convs > 0 \
            && packcmp > 0 && packkmov > 0 && poolor > 0 && pooldiv == 0 \
            && rgb3 > 0 && rgb3calls == 0 && nheads > 0 && tcalls == 0 \
            && tpop[16] > 0 && txor[16] > 0 && tcmp[16] > 0 \
            && tpop[32] > 0 && txor[32] > 0 && tcmp[32] > 0 \
            && spop > 0 && sperm > 0 && scmp > 0 && scalls == 0)
    }'
