#!/bin/sh
# The binary kernels get hardware popcount only when their row drivers are
# inlined into the `#[target_feature]` frames of crates/nn/src/kernels/isa.rs
# (see its module docs). This disassembles a release binary that links them
# and fails unless the `isa::run_avx512` instances hold `vpopcntq` and no
# `vpgatherqq` (LLVM's loop vectoriser taking a window-word loop: seen, 2.7x
# slower) and the `isa::run_popcnt` instances hold `popcnt`.
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
    frame ~ /isa::run_avx512/ && /vpopcntq/ { vpopcnt++ }
    frame ~ /isa::run_avx512/ && /vpgatherqq/ { gather++ }
    frame ~ /isa::run_popcnt/ && /[ \t]popcnt/ { popcnt++ }
    END {
        printf "isa::run_avx512: %d vpopcntq, %d vpgatherqq; isa::run_popcnt: %d popcnt\n",
            vpopcnt, gather, popcnt
        exit !(vpopcnt > 0 && gather == 0 && popcnt > 0)
    }'
