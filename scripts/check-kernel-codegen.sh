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
# usage: scripts/check-kernel-codegen.sh [binary]   (default: bconv_report)
set -eu
bin="${1:-target/release/bconv_report}"
if ! command -v objdump >/dev/null 2>&1; then
    echo "objdump not found; skipping the kernel codegen check"
    exit 0
fi
objdump -d --no-show-raw-insn -C "$bin" | awk '
    />:$/ { frame = $2 }
    frame ~ /isa::run_avx512/ && /vpopcntq/ { vpopcntq++ }
    frame ~ /isa::run_avx512/ && /vpopcntd/ { vpopcntd++ }
    frame ~ /isa::run_avx512/ && $2 ~ /^vp?gather/ { gather++; by[$2]++ }
    frame ~ /isa::run_popcnt/ && /[ \t]popcnt/ { popcnt++ }
    END {
        gathers = ""
        for (m in by) gathers = gathers sprintf(" (%s %d)", m, by[m])
        printf "isa::run_avx512: %d vpopcntq, %d vpopcntd, %d gathers%s; isa::run_popcnt: %d popcnt\n",
            vpopcntq, vpopcntd, gather, gathers, popcnt
        exit !(vpopcntq > 0 && vpopcntd > 0 && gather == 0 && popcnt > 0)
    }'
