//! Host ISA tiers: hardware popcount by runtime dispatch.
//!
//! The paper's binary MAC is one `xor` and one hardware `popcount`
//! (§V-A.2). The workspace builds for the baseline `x86-64` target, which
//! has no `popcnt` instruction, so every `count_ones` in a kernel would
//! otherwise lower to a ~15-operation bit-twiddling sequence. This module —
//! the only `unsafe` in the workspace — asks the CPU once what it supports
//! and re-enters the **same generic row driver** through a
//! `#[target_feature]` wrapper:
//!
//! - **What is detected.** `popcnt` (scalar hardware popcount), `avx2`
//!   (256-bit xor/loads around it) and `avx512vpopcntdq` (eight 64-bit or
//!   sixteen 32-bit popcounts per instruction), each with the features it
//!   always ships with; see [`IsaTier`]. Other architectures, and x86-64 CPUs
//!   with none of these, take the portable tier — on aarch64 `count_ones`
//!   already lowers to NEON `cnt`.
//! - **Where the frame boundary is.** `run` is called once per row task
//!   (`tiled::conv_row_tiled`, `tiled::tile_filters` — the lowered GEMM's
//!   and the dense layer's — `bitplane::bitplane_row`, `fconv`'s pixel
//!   rows over floats and over packed signs), never per word; `byte_row` once per first-layer output row,
//!   `tap_row` once per thin-layer output row, `shared_tile` once per row
//!   task of a bank whose filters repeat, `pack_window` once per sign-pack
//!   sweep.
//!   A `#[target_feature]` function cannot be inlined into its caller, so
//!   the call is the boundary; everything below it — the driver, the
//!   microkernel, `BitWord::popcount`, the packed-bit sink — is
//!   `#[inline(always)]` and is therefore code-generated again inside each
//!   wrapper with that tier's instructions. A link of that chain that is
//!   merely `#[inline]` — or an unannotated closure, or a library helper
//!   such as `array::from_fn` around a popcount — may be emitted once, for
//!   the baseline target, and silently fall back to the slow popcount.
//! - **The byte dot's frames.** The first layer's host body
//!   ([`bytedot`]) is written in `core::arch` value intrinsics, which are
//!   safe only inside a `#[target_feature]` function that enables them, so
//!   its frames live there: `row_vnni` (`avx512vnni` on top of the
//!   AVX-512 tier, checked separately), its RGB 3×3 stride-1 instance
//!   `row_vnni_rgb3`, and `row_avx2`. `byte_row` enters
//!   one of them — its calls are this module's other `unsafe`, with
//!   `pack_window`'s entry into `kernels::pack_avx512`, the float input's
//!   sign compare into a mask register, and `tap_row`'s into the thin
//!   layers' frames ([`taps`]: `row16` on `u16` lanes, checking
//!   `avx512bitalg` as `byte_row` checks `avx512vnni`, and `row32` on `u32`
//!   lanes), and `shared_tile`'s into a shared bank's frame
//!   (`tiled::shared_avx512`: the tile, then `vpermw` and `vpcmpuw` on `u16`
//!   lanes). A generic body in `run_avx512` with `avx512bitalg` added
//!   split `vpopcntw` across `xmm` registers, 6.6× slower. The `run_*`
//!   frames keep their `enable` lists: adding `avx512vnni` there would
//!   recompile every binary-body driver for nothing (none uses it) and
//!   exclude CPUs with the popcount but not the dot product.
//! - **Why not `target-cpu` or `RUSTFLAGS`.** A global flag changes every
//!   crate in the build, including the benchmark's calibration loop, and
//!   produces a binary that faults on an older CPU. Dispatch keeps one
//!   binary that is correct everywhere and fast where it can be, and keeps
//!   the portable instantiation of every driver compiled — it is what the
//!   equality tests compare the dispatched one against, and
//!   `compute_bconv_fused_reference` stays on it as the oracle.

use std::sync::OnceLock;

use phonebit_tensor::bits::{BitTensor, BitWord};
use phonebit_tensor::pack::pack_window_into;
use phonebit_tensor::shape::Shape4;
use phonebit_tensor::tensor::Tensor;

use crate::fuse::{BitSink, Cuts, PlaneCuts};
use crate::kernels::bytedot::{self, ByteRing};
use crate::kernels::taps::{self, TapRing};
use crate::kernels::tiled::{self, FusedLanes, Tiles};

/// The instruction-set tier the binary kernels run on, best last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IsaTier {
    /// The build target's baseline: no hardware popcount on x86-64, NEON
    /// `cnt` on aarch64.
    Portable,
    /// x86-64 with scalar `popcnt`.
    Popcnt,
    /// x86-64 with `popcnt`, `avx2`, `bmi1` and `bmi2`.
    Avx2,
    /// x86-64 with the above plus `avx512f/bw/dq/vl` and
    /// `avx512vpopcntdq`: vector popcount.
    Avx512Vpopcntdq,
}

impl IsaTier {
    /// The best tier this CPU supports, detected once per process.
    pub fn detected() -> Self {
        static TIER: OnceLock<IsaTier> = OnceLock::new();
        *TIER.get_or_init(detect)
    }

    /// Short name for reports (`portable`, `popcnt`, `avx2`,
    /// `avx512vpopcntdq`).
    pub fn name(self) -> &'static str {
        match self {
            IsaTier::Portable => "portable",
            IsaTier::Popcnt => "popcnt",
            IsaTier::Avx2 => "avx2",
            IsaTier::Avx512Vpopcntdq => "avx512vpopcntdq",
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect() -> IsaTier {
    // Each tier checks every feature its wrapper below enables.
    let popcnt = is_x86_feature_detected!("popcnt");
    let avx2 = popcnt
        && is_x86_feature_detected!("avx2")
        && is_x86_feature_detected!("bmi1")
        && is_x86_feature_detected!("bmi2");
    let avx512 = avx2
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx512vpopcntdq");
    if avx512 {
        IsaTier::Avx512Vpopcntdq
    } else if avx2 {
        IsaTier::Avx2
    } else if popcnt {
        IsaTier::Popcnt
    } else {
        IsaTier::Portable
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> IsaTier {
    IsaTier::Portable
}

/// Runs `task` compiled for the detected tier — in this crate's own tests,
/// for the tier `tests::on_tier` forces instead, which is how they put every
/// tier this CPU has beside the portable one.
///
/// `task` must be an `#[inline(always)]` closure whose body reaches its
/// popcounts only through `#[inline(always)]` functions (see the module
/// docs); the result is the same on every tier.
#[inline]
pub(crate) fn run<R>(task: impl FnOnce() -> R) -> R {
    run_on(entered(), task)
}

/// The tier [`run`] enters: the detected one, or in this crate's tests the
/// one `tests::on_tier` forces, at most the detected one.
#[inline]
pub(crate) fn entered() -> IsaTier {
    #[cfg(test)]
    if let Some(tier) = tests::FORCED.get() {
        return tier.min(IsaTier::detected());
    }
    IsaTier::detected()
}

/// Runs the first layer's byte-dot row ([`bytedot`]) in the frame the
/// entered tier selects: `vpdpbusd` where the CPU also has AVX-512 VNNI
/// (rows of 16+ RGB 3×3 stride-1 windows in their own instance),
/// `vpmaddubsw` from AVX2 up, scalar below. The frames are safe
/// `#[target_feature]` functions there; entering one is the unsafe step.
#[inline]
pub(crate) fn byte_row<W: BitWord>(ring: &ByteRing<'_>, sink: &mut BitSink<'_, W, PlaneCuts>) {
    match entered() {
        // SAFETY: `Avx512Vpopcntdq` is entered only when detected, which
        // confirmed `avx2`, `avx512f`, `avx512bw` and `avx512vl`, and the
        // guard confirms `avx512vnni`: every feature `row_vnni` enables.
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512Vpopcntdq if is_x86_feature_detected!("avx512vnni") => unsafe {
            // The zoo's RGB 3×3 stride-1 first layers run their instance.
            match ring.shape() {
                #[cfg(test)]
                _ if tests::RUNTIME_FRAME.get() => bytedot::row_vnni(ring, sink),
                (3, 3, 3, 16..) => bytedot::row_vnni_rgb3(ring, sink),
                _ => bytedot::row_vnni(ring, sink),
            }
        },
        // SAFETY: at least `Avx2` was detected, which means `avx2`, the one
        // feature `row_avx2` enables.
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2 | IsaTier::Avx512Vpopcntdq => unsafe { bytedot::row_avx2(ring, sink) },
        _ => bytedot::row_portable(ring, sink),
    }
}

/// Runs the sign-pack sweep ([`compute_pack_input`](super::compute_pack_input))
/// as the entered tier selects: a mask-register compare on AVX-512
/// (`pack_avx512`, a safe `#[target_feature]` function; entering it is the
/// unsafe step), the build target's compare below it. No [`run`] frame:
/// there the loop vectoriser gathered the portable compare across pixels.
#[inline]
pub(crate) fn pack_window<W: BitWord>(
    images: &[Tensor<f32>],
    shape: Shape4,
    out: &mut BitTensor<W>,
) {
    match entered() {
        // SAFETY: `Avx512Vpopcntdq` is entered only when detected, which
        // confirmed `avx512f`, the one feature `pack_avx512` enables.
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512Vpopcntdq => unsafe { super::pack_avx512(images, shape, out) },
        _ => pack_window_into(images, shape, out),
    }
}

/// Whether the entered tier has a vector popcount on `bits`-bit lanes:
/// `vpopcntd` on the AVX-512 tier, `vpopcntw` where the CPU also has
/// AVX-512 BITALG. Where it holds, a thin layer stages a
/// [`TapBank`](super::taps::TapBank).
pub(crate) fn lane_popcount(bits: usize) -> bool {
    match (entered(), bits) {
        #[cfg(target_arch = "x86_64")]
        (IsaTier::Avx512Vpopcntdq, 16) => is_x86_feature_detected!("avx512bitalg"),
        (IsaTier::Avx512Vpopcntdq, 32) => true,
        _ => false,
    }
}

/// Runs a thin layer's output row ([`taps`]) in the frame of its lane
/// width. The frames are safe `#[target_feature]` functions there;
/// entering one is the unsafe step.
///
/// # Panics
///
/// Panics on a tier without [`lane_popcount`] for the ring's channels,
/// where no tap bank is staged.
#[inline]
pub(crate) fn tap_row<W: BitWord>(ring: &TapRing<'_>, row: &mut [W], wpp: usize) {
    match (entered(), ring.s.c) {
        // SAFETY: `Avx512Vpopcntdq` is entered only when detected, which
        // confirmed `avx512f` and `avx512bw`, and the guard confirms
        // `avx512bitalg`: every feature `row16` enables.
        #[cfg(target_arch = "x86_64")]
        (IsaTier::Avx512Vpopcntdq, 16) if is_x86_feature_detected!("avx512bitalg") => unsafe {
            taps::row16(ring, row, wpp)
        },
        // SAFETY: as above, and `avx512vpopcntdq`: every feature `row32`
        // enables.
        #[cfg(target_arch = "x86_64")]
        (IsaTier::Avx512Vpopcntdq, 32) => unsafe { taps::row32(ring, row, wpp) },
        (tier, c) => unreachable!("no {c}-bit lane popcount on {}", tier.name()),
    }
}

/// Whether the entered tier permutes `u16` lanes (`vpermw`, AVX-512 BW).
/// Where it holds, a bank whose filters repeat stages shared
/// ([`FusedLanes::new`]).
pub(crate) fn word_permute() -> bool {
    entered() == IsaTier::Avx512Vpopcntdq
}

/// Runs a shared bank's tile over `tiles` into `out` in its frame
/// ([`tiled::shared_avx512`]), a safe `#[target_feature]` function there;
/// entering it is the unsafe step.
///
/// # Panics
///
/// Panics on a tier without [`word_permute`], where no shared bank is
/// staged.
#[inline]
pub(crate) fn shared_tile<W: BitWord>(
    lanes: &FusedLanes<W>,
    tiles: Tiles<'_, W>,
    out: &mut BitSink<'_, W, Cuts>,
) {
    match entered() {
        // SAFETY: `Avx512Vpopcntdq` is entered only when detected, which
        // confirmed every feature `shared_avx512` enables (`run_avx512`'s).
        // `FusedLanes::new` stages a shared bank only where `word_permute`
        // held, so outside tests no other tier reaches here.
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512Vpopcntdq => unsafe { tiled::shared_avx512(lanes, tiles, out) },
        tier => unreachable!("no shared bank is staged on {}", tier.name()),
    }
}

/// [`run`] on `tier`, or on the detected tier when the CPU does not reach
/// `tier`.
#[inline]
fn run_on<R>(tier: IsaTier, task: impl FnOnce() -> R) -> R {
    match tier.min(IsaTier::detected()) {
        // SAFETY: the tier matched is at most the detected one, and `detect`
        // returns `Avx512Vpopcntdq` only after `is_x86_feature_detected!`
        // confirmed every feature `run_avx512` enables, so the CPU executes
        // all of its instructions.
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx512Vpopcntdq => unsafe { run_avx512(task) },
        // SAFETY: as above — at least `Avx2` was detected, which means
        // `popcnt`, `avx2`, `bmi1` and `bmi2`, the features `run_avx2`
        // enables.
        #[cfg(target_arch = "x86_64")]
        IsaTier::Avx2 => unsafe { run_avx2(task) },
        // SAFETY: as above — at least `Popcnt` was detected, which means
        // `popcnt`, the one feature `run_popcnt` enables.
        #[cfg(target_arch = "x86_64")]
        IsaTier::Popcnt => unsafe { run_popcnt(task) },
        _ => task(),
    }
}

/// Keeps LLVM's *loop* vectoriser off the loop whose body calls this, at no
/// run-time cost (an empty, opaque statement the vectoriser will not
/// widen). The kernels' lanes are filters: their word loops must be left to
/// the SLP vectoriser, which makes each step's [`LANES`](phonebit_tensor::lanes::LANES)
/// accumulators one vector. The loop vectoriser, when its cost model lets it
/// go first, widens the *word* index instead and gathers every lane across
/// eight words with `vpgatherqq` — seen on long first-layer windows and on a
/// one-group binary tile, 1.3–2.7× slower (`scripts/check-kernel-codegen.sh`
/// fails on it).
#[inline(always)]
pub(crate) fn lanes_not_words() {
    std::hint::black_box(());
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn run_popcnt<R>(task: impl FnOnce() -> R) -> R {
    task()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt,avx2,bmi1,bmi2")]
fn run_avx2<R>(task: impl FnOnce() -> R) -> R {
    task()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(
    enable = "popcnt,avx2,bmi1,bmi2,avx512f,avx512bw,avx512dq,avx512vl,avx512vpopcntdq"
)]
fn run_avx512<R>(task: impl FnOnce() -> R) -> R {
    task()
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    use std::cell::Cell;

    use phonebit_tensor::bitplane::BitPlanes;
    use phonebit_tensor::bits::{dot_pm1, BitTensor, BitWord, PackedFilters};
    use phonebit_tensor::dict::FilterDict;
    use phonebit_tensor::lanes::{LaneBank, LANES};
    use phonebit_tensor::pack::unpack_f32_into;
    use phonebit_tensor::shape::{ConvGeometry, FilterShape, Layout, Shape4};
    use phonebit_tensor::tensor::{Filters, Tensor};

    use crate::act::Activation;
    use crate::fuse::{AccumSink, BitSink, Cuts, FusedBn, PlaneCuts};
    use crate::kernels::bconv::{
        compute_bconv_fused, compute_bconv_fused_reference, window_dot, DirectBank,
    };
    use crate::kernels::bgemm::{compute_bgemm, flatten_filters, pack_windows, pack_windows_into};
    use crate::kernels::bitplane::{bitplane_row, PlaneBank, PlaneStream};
    use crate::kernels::bytedot::ByteBank;
    use crate::kernels::dense::{compute_dense_bin, flatten_bits_into};
    use crate::kernels::fconv::{
        compute_fconv, compute_fconv_bits, fconv_row, FloatBank, SignedBank,
    };
    use crate::kernels::fused::{compute_bconv_pool_chain, ring_shape};
    use crate::kernels::pool::tests::{nested_loop_maxpool, runtime_shape_maxpool};
    use crate::kernels::pool::{compute_maxpool_bits, PoolGeometry};
    use crate::kernels::taps::{TapBank, TapRing};
    use crate::kernels::tiled::tests::repeating;
    use crate::kernels::tiled::{conv_row_tiled, tile_filters, FusedLanes, RowRing};

    thread_local! {
        /// The tier [`run`] enters on this thread instead of the detected
        /// one; see [`on_tier`].
        pub(super) static FORCED: Cell<Option<IsaTier>> = const { Cell::new(None) };
        /// Whether [`byte_row`] skips its shape instances on this thread,
        /// to time the runtime frame against them.
        pub(super) static RUNTIME_FRAME: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `entry` — a kernel's public entry, [`run`] inside it — on
    /// `tier`; `None` leaves the dispatch alone.
    fn on_tier<T>(tier: Option<IsaTier>, entry: impl FnOnce() -> T) -> T {
        FORCED.set(tier);
        let out = entry();
        FORCED.set(None);
        out
    }

    #[test]
    fn detection_is_stable_and_named() {
        let tier = IsaTier::detected();
        assert_eq!(tier, IsaTier::detected());
        assert!(["portable", "popcnt", "avx2", "avx512vpopcntdq"].contains(&tier.name()));
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(tier, IsaTier::Portable);
    }

    /// SplitMix64 step, the per-case bit source.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_bits<W: BitWord>(shape: Shape4, rng: &mut u64) -> BitTensor<W> {
        let mut t = BitTensor::zeros(shape);
        for n in 0..shape.n {
            for h in 0..shape.h {
                for w in 0..shape.w {
                    for c in 0..shape.c {
                        t.set_bit(n, h, w, c, next(rng) & 1 == 1);
                    }
                }
            }
        }
        t
    }

    /// A bank whose taps repeat `patterns` distinct rows, so its dictionary
    /// really dedupes.
    fn random_filters<W: BitWord>(
        shape: FilterShape,
        patterns: u64,
        rng: &mut u64,
    ) -> PackedFilters<W> {
        let salt = next(rng);
        let mut f = PackedFilters::zeros(shape);
        for k in 0..shape.k {
            for i in 0..shape.kh {
                for j in 0..shape.kw {
                    let pattern = next(rng) % patterns;
                    for c in 0..shape.c {
                        let mut bit = salt ^ pattern.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ c as u64;
                        f.set_bit(k, i, j, c, next(&mut bit) & 1 == 1);
                    }
                }
            }
        }
        f
    }

    /// Every tier this CPU runs, portable first ([`run_on`] would clamp the
    /// rest to the detected one).
    fn tiers() -> impl Iterator<Item = IsaTier> {
        use IsaTier::*;
        [Portable, Popcnt, Avx2, Avx512Vpopcntdq]
            .into_iter()
            .filter(|&tier| tier <= IsaTier::detected())
    }

    /// Checks that `outputs(Some(tier))` — the kernel entered on `tier`, on
    /// every tier this CPU has — and `outputs(None)` — the dispatched entry
    /// — all equal the portable tier's result, which is returned.
    fn same_on_every_tier<T: PartialEq>(
        mut outputs: impl FnMut(Option<IsaTier>) -> T,
    ) -> Result<T, TestCaseError> {
        let portable = outputs(Some(IsaTier::Portable));
        for tier in tiers().skip(1) {
            prop_assert!(outputs(Some(tier)) == portable, "tier {}", tier.name());
        }
        prop_assert!(outputs(None) == portable, "dispatched entry");
        Ok(portable)
    }

    /// A sink that files each run of dot values under `(row, k0)`.
    fn record(out: &mut [i32], k: usize) -> AccumSink<'_> {
        AccumSink {
            row: out,
            channels: k,
        }
    }

    /// Random thresholds: half-integer multiples of `unit` around the
    /// accumulators a random window gives (`unit` 1 for binary dot values),
    /// now and then NaN or ±∞, either sign of γ.
    fn random_fused(k: usize, unit: f32, rng: &mut u64) -> FusedBn {
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        FusedBn {
            xi: (0..k)
                .map(|_| match (next(rng) % 16) as usize {
                    s @ 0..=2 => special[s],
                    _ => ((next(rng) % 25) as f32 * 0.5 - 6.0) * unit,
                })
                .collect(),
            gamma_pos: (0..k).map(|_| next(rng) & 1 == 1).collect(),
        }
    }

    /// Checks that `packed` — pixels of `fused.len().div_ceil(W::BITS)`
    /// words — holds `decide_logic` of `dots`, one bit per filter, bits past
    /// the last filter clear.
    fn packs_decisions<W: BitWord>(
        packed: &[W],
        dots: &[i32],
        fused: &FusedBn,
    ) -> Result<(), TestCaseError> {
        let k = fused.len();
        let wpp = k.div_ceil(W::BITS);
        for (px, (words, dots)) in packed.chunks(wpp).zip(dots.chunks(k)).enumerate() {
            for (kk, &x1) in dots.iter().enumerate() {
                let (got, expect) = (
                    words[kk / W::BITS].bit(kk % W::BITS),
                    fused.decide_logic(kk, x1 as f32),
                );
                prop_assert!(
                    got == expect,
                    "pixel {px} k {kk}: x1 {x1} xi {} gamma_pos {}: {got} != {expect}",
                    fused.xi[kk],
                    fused.gamma_pos[kk]
                );
            }
            let tail = W::low_mask(k - (wpp - 1) * W::BITS).not();
            prop_assert!(
                words[wpp - 1].and(tail) == W::zero(),
                "pixel {px}: tail bits set"
            );
        }
        Ok(())
    }

    /// A random two-image input, bank (its taps repeating three patterns),
    /// geometry and thresholds; `None` when the kernel does not fit the
    /// padded input.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn binary_case<W: BitWord>(
        h: usize,
        w: usize,
        c: usize,
        k: usize,
        (kh, kw): (usize, usize),
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Option<(BitTensor<W>, PackedFilters<W>, ConvGeometry, FusedBn)> {
        if h + 2 * pad < kh || w + 2 * pad < kw {
            return None;
        }
        let mut rng = seed;
        let input = random_bits::<W>(Shape4::new(2, h, w, c), &mut rng);
        let filters = random_filters::<W>(FilterShape::new(k, kh, kw, c), 3, &mut rng);
        let geom = ConvGeometry {
            kh,
            kw,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
        };
        Some((input, filters, geom, random_fused(k, 1.0, &mut rng)))
    }

    /// Every output the row driver emits over every row of `input`, on
    /// every tier, against the per-tap oracle (which an output never emitted
    /// cannot equal) — as dot values, and packed by a [`BitSink`] over
    /// `fused`'s [`Cuts`] against the oracle thresholded by `decide_logic`.
    fn conv_rows_agree<W: BitWord>(
        input: &BitTensor<W>,
        filters: &PackedFilters<W>,
        bank: &LaneBank<W>,
        geom: &ConvGeometry,
        fused: &FusedBn,
    ) -> Result<(), TestCaseError> {
        let s = input.shape();
        let (oh, ow) = geom.output_hw(s.h, s.w);
        let k = filters.shape().k;
        let (wpp, cuts) = (
            k.div_ceil(W::BITS),
            Cuts::new(fused, filters.shape().filter_len()),
        );
        // One scratch across rows, images and tiers, as a worker keeps it.
        let mut ring = RowRing::new(geom, s);
        for (n, oy) in (0..s.n).flat_map(|n| (0..oh).map(move |oy| (n, oy))) {
            let row = same_on_every_tier(|tier| {
                let mut out = vec![i32::MIN; ow * k];
                let mut sink = record(&mut out, k);
                on_tier(tier, || {
                    conv_row_tiled(input, bank, &mut ring, (n, oy), &mut sink)
                });
                out
            })?;
            for (at, &got) in row.iter().enumerate() {
                let (ox, kk) = (at / k, at % k);
                let expect = window_dot(input, filters, geom, n, oy, ox, kk);
                prop_assert!(
                    got == expect,
                    "n {n} oy {oy} ox {ox} k {kk}: {got} != {expect}"
                );
            }
            let packed = same_on_every_tier(|tier| {
                let mut out = vec![W::zero(); ow * wpp];
                let mut sink = BitSink::new(&cuts, &mut out, wpp);
                on_tier(tier, || {
                    conv_row_tiled(input, bank, &mut ring, (n, oy), &mut sink)
                });
                out
            })?;
            packs_decisions(&packed, &row, fused)?;
        }
        Ok(())
    }

    /// The direct routes: the raw bank interleaved, and the same bank
    /// interleaved through its dictionary.
    fn conv_row_case<W: BitWord>(
        case: Option<(BitTensor<W>, PackedFilters<W>, ConvGeometry, FusedBn)>,
    ) -> Result<(), TestCaseError> {
        let Some((input, filters, geom, fused)) = case else {
            return Ok(());
        };
        conv_rows_agree(&input, &filters, &LaneBank::new(&filters), &geom, &fused)?;
        let dict = LaneBank::new(&FilterDict::build(&filters));
        conv_rows_agree(&input, &filters, &dict, &geom, &fused)
    }

    /// The row ring behind every direct route, at dense width: each row on
    /// every tier against `window_dot` ([`conv_rows_agree`]: the accum and
    /// fused sinks), and whole dispatches — `compute_bconv_fused`, and the
    /// `bconv_pool` chain over a 2×2/2 pool when one fits — on every tier
    /// against `compute_bconv_fused_reference` (pooled by the nested-loop
    /// oracle): over the tiled body's lanes, and over the bank
    /// [`DirectBank::new`] stages on that tier (a thin 3×3 layer's taps where
    /// [`lane_popcount`] holds), raw and through its dictionary.
    #[allow(clippy::too_many_arguments)]
    fn ring_case<W: BitWord>(
        (h, w): (usize, usize),
        c: usize,
        k: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let Some((input, filters, geom, fused)) =
            binary_case::<W>(h, w, c, k, (kernel, kernel), stride, pad, seed)
        else {
            return Ok(());
        };
        conv_rows_agree(&input, &filters, &LaneBank::new(&filters), &geom, &fused)?;
        let (oh, ow) = geom.output_hw(h, w);
        let mut want = BitTensor::<W>::zeros(Shape4::new(2, oh, ow, k));
        compute_bconv_fused_reference(&input, &filters, &fused, &geom, &mut want);
        let pool = PoolGeometry::new(2, 2);
        let pooled = (oh >= 2 && ow >= 2).then(|| {
            let (ph, pw) = pool.output_hw(oh, ow);
            let mut pooled = BitTensor::<W>::zeros(Shape4::new(2, ph, pw, k));
            nested_loop_maxpool(&want, &pool, &mut pooled);
            pooled
        });
        let dict = FilterDict::build(&filters);
        // 0: the tiled lanes (shared where the filters repeat); 1, 2: as
        // staged on the tier, raw and compressed.
        let stage = |kind: usize| match kind {
            0 => DirectBank::Lanes(FusedLanes::new(&filters, &fused)),
            1 => DirectBank::new(&filters, &fused, Some(&geom)),
            _ => DirectBank::new(&dict, &fused, Some(&geom)),
        };
        for kind in 0..3 {
            let got = same_on_every_tier(|tier| {
                let mut out = BitTensor::<W>::zeros(want.shape());
                on_tier(tier, || {
                    compute_bconv_fused(&input, &stage(kind), &geom, &mut out)
                });
                out
            })?;
            prop_assert!(got == want, "fused dispatch, bank {kind}");
            let Some(pooled) = &pooled else {
                continue;
            };
            let got = same_on_every_tier(|tier| {
                let mut ring = BitTensor::<W>::zeros(ring_shape(ow, k, pool.size));
                let mut out = BitTensor::<W>::zeros(pooled.shape());
                on_tier(tier, || {
                    let bank = stage(kind);
                    compute_bconv_pool_chain(&input, &bank, &geom, &pool, &mut ring, &mut out)
                });
                out
            })?;
            prop_assert!(got == *pooled, "bconv_pool chain, bank {kind}");
        }
        Ok(())
    }

    /// The lowered route: `pack_windows` rows against the interleaved
    /// `flatten_filters` bank (and its dictionary), every row of a two-image
    /// tensor in one call — as dot values, and packed by a [`BitSink`] over
    /// [`Cuts`].
    fn tile_filters_case<W: BitWord>(
        case: Option<(BitTensor<W>, PackedFilters<W>, ConvGeometry, FusedBn)>,
    ) -> Result<(), TestCaseError> {
        let Some((input, filters, geom, fused)) = case else {
            return Ok(());
        };
        let windows = pack_windows(&input, &geom);
        let (ws, k) = (windows.shape(), filters.shape().k);
        let flat = flatten_filters(&filters);
        let bank = LaneBank::new(&flat);
        // De-interleaved, the bank is the flat rows again.
        for kk in 0..k {
            let lanes = bank.group(kk / LANES).iter().map(|v| v[kk % LANES]);
            prop_assert!(lanes.eq(flat.filter_words(kk).iter().copied()));
        }
        let (wpp, cuts) = (
            k.div_ceil(W::BITS),
            Cuts::new(&fused, flat.shape().filter_len()),
        );
        for bank in [&bank, &LaneBank::new(&FilterDict::build(&flat))] {
            let rows = same_on_every_tier(|tier| {
                let mut out = vec![i32::MIN; ws.pixels() * k];
                let mut sink = record(&mut out, k);
                on_tier(tier, || tile_filters(windows.as_words(), bank, &mut sink));
                out
            })?;
            for (at, &got) in rows.iter().enumerate() {
                let (px, kk) = (at / k, at % k);
                let (n, oy, ox) = (px / (ws.h * ws.w), px / ws.w % ws.h, px % ws.w);
                let expect = window_dot(&input, &filters, &geom, n, oy, ox, kk);
                prop_assert!(got == expect, "pixel {px} k {kk}: {got} != {expect}");
            }
            let packed = same_on_every_tier(|tier| {
                let mut out = vec![W::zero(); ws.pixels() * wpp];
                let mut sink = BitSink::new(&cuts, &mut out, wpp);
                on_tier(tier, || tile_filters(windows.as_words(), bank, &mut sink));
                out
            })?;
            packs_decisions(&packed, &rows, &fused)?;
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn bitplane_row_case<W: BitWord>(
        h: usize,
        w: usize,
        c: usize,
        k: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        if h + 2 * pad < kernel || w + 2 * pad < kernel {
            return Ok(());
        }
        let mut rng = seed;
        let mut image = Tensor::<u8>::zeros(Shape4::new(2, h, w, c), Layout::Nhwc);
        for v in image.as_mut_slice() {
            *v = next(&mut rng) as u8;
        }
        let planes = BitPlanes::<W>::split(&image);
        let filters = random_filters::<W>(FilterShape::new(k, kernel, kernel, c), 5, &mut rng);
        let bank = PlaneBank::column_major(&filters);
        let geom = ConvGeometry::square(kernel, stride, pad);
        let (oh, ow) = geom.output_hw(h, w);
        // Sums spread about 147·√bits around 0 (a `u8` times ±1 per tap).
        let bits = kernel * kernel * c;
        let fused = random_fused(k, (32.0 * (bits as f32).sqrt()).round(), &mut rng);
        let cuts = PlaneCuts::new(&fused, bits);
        // One scratch across rows, images and tiers, as a worker keeps it.
        let mut scratch = PlaneStream::new(&bank, &geom, w);
        for (n, oy) in (0..2).flat_map(|n| (0..oh).map(move |oy| (n, oy))) {
            let portable = same_on_every_tier(|tier| {
                let mut out = vec![i32::MIN; ow * k];
                let (mut sink, scr) = (record(&mut out, k), &mut scratch);
                on_tier(tier, || {
                    bitplane_row(&planes, &bank, &geom, scr, n, oy, ow, &mut sink)
                });
                out
            })?;
            // The oracle: a direct `u8 × ±1` zero-padded convolution.
            for (at, &got) in portable.iter().enumerate() {
                let (ox, kk) = (at / k, at % k);
                let mut expect = 0i32;
                for (i, j, ch) in taps(kernel, c) {
                    let (iy, ix) = (oy * stride + i, ox * stride + j);
                    if (pad..h + pad).contains(&iy) && (pad..w + pad).contains(&ix) {
                        let sign = if filters.get_bit(kk, i, j, ch) { 1 } else { -1 };
                        expect += sign * i32::from(image.at(n, iy - pad, ix - pad, ch));
                    }
                }
                prop_assert!(
                    got == expect,
                    "n {n} oy {oy} ox {ox} k {kk}: {got} != {expect}"
                );
            }
            let row = (&planes, &bank, &geom, n, oy, ow);
            plane_row_packs::<W, u8>(row, &mut scratch, &cuts, &portable, &fused)?;
            plane_row_packs::<W, u16>(row, &mut scratch, &cuts, &portable, &fused)?;
            plane_row_packs::<W, u32>(row, &mut scratch, &cuts, &portable, &fused)?;
            plane_row_packs::<W, u64>(row, &mut scratch, &cuts, &portable, &fused)?;
        }
        Ok(())
    }

    /// Checks that `bitplane_row` packs output row `(n, oy)` of `ow` pixels
    /// through a [`BitSink`] over `cuts` into `O` words alike on every tier,
    /// and as `decide_logic` of its accumulators `sums`.
    #[allow(clippy::type_complexity)]
    fn plane_row_packs<P: BitWord, O: BitWord>(
        (planes, bank, geom, n, oy, ow): (
            &BitPlanes<P>,
            &PlaneBank,
            &ConvGeometry,
            usize,
            usize,
            usize,
        ),
        scratch: &mut PlaneStream,
        cuts: &PlaneCuts,
        sums: &[i32],
        fused: &FusedBn,
    ) -> Result<(), TestCaseError> {
        let wpp = fused.len().div_ceil(O::BITS);
        let packed = same_on_every_tier(|tier| {
            let mut out = vec![O::zero(); ow * wpp];
            let mut sink = BitSink::new(cuts, &mut out, wpp);
            on_tier(tier, || {
                bitplane_row(planes, bank, geom, scratch, n, oy, ow, &mut sink)
            });
            out
        })?;
        packs_decisions(&packed, sums, fused)
    }

    /// The byte dot against `bitplane_row`, its oracle: over every row of a
    /// random two-image input, the decided bits on every tier, packed into
    /// `u8`..`u64` output words, equal `bitplane_row`'s sums (through an
    /// [`AccumSink`]) thresholded by `decide_logic`.
    #[allow(clippy::too_many_arguments)]
    fn byte_row_case(
        h: usize,
        w: usize,
        c: usize,
        k: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        if h + 2 * pad < kernel || w + 2 * pad < kernel {
            return Ok(());
        }
        let mut rng = seed;
        let s = Shape4::new(2, h, w, c);
        let mut image = Tensor::<u8>::zeros(s, Layout::Nhwc);
        for v in image.as_mut_slice() {
            *v = next(&mut rng) as u8;
        }
        let planes = BitPlanes::<u8>::split(&image);
        let filters = random_filters::<u8>(FilterShape::new(k, kernel, kernel, c), 5, &mut rng);
        let (plane_bank, bank) = (PlaneBank::column_major(&filters), ByteBank::new(&filters));
        let geom = ConvGeometry::square(kernel, stride, pad);
        let (oh, ow) = geom.output_hw(h, w);
        let bits = kernel * kernel * c;
        let fused = random_fused(k, (32.0 * (bits as f32).sqrt()).round(), &mut rng);
        let cuts = PlaneCuts::new(&fused, bits);
        // One scratch of each across rows, images and tiers, as a worker
        // keeps it.
        let mut stream = PlaneStream::new(&plane_bank, &geom, w);
        let mut ring = ByteRing::new(&bank, &geom, s);
        for (n, oy) in (0..2).flat_map(|n| (0..oh).map(move |oy| (n, oy))) {
            let mut sums = vec![i32::MIN; ow * k];
            let mut sink = record(&mut sums, k);
            on_tier(Some(IsaTier::Portable), || {
                bitplane_row(
                    &planes,
                    &plane_bank,
                    &geom,
                    &mut stream,
                    n,
                    oy,
                    ow,
                    &mut sink,
                )
            });
            let row = (image.as_slice(), n, oy, ow);
            byte_row_packs::<u8>(row, &mut ring, &cuts, &sums, &fused)?;
            byte_row_packs::<u16>(row, &mut ring, &cuts, &sums, &fused)?;
            byte_row_packs::<u32>(row, &mut ring, &cuts, &sums, &fused)?;
            byte_row_packs::<u64>(row, &mut ring, &cuts, &sums, &fused)?;
        }
        Ok(())
    }

    /// Checks that the byte dot packs output row `(n, oy)` of `ow` pixels
    /// into `O` words alike on every tier, and as `decide_logic` of `sums`.
    #[allow(clippy::type_complexity)]
    fn byte_row_packs<O: BitWord>(
        (image, n, oy, ow): (&[u8], usize, usize, usize),
        ring: &mut ByteRing<'_>,
        cuts: &PlaneCuts,
        sums: &[i32],
        fused: &FusedBn,
    ) -> Result<(), TestCaseError> {
        let wpp = fused.len().div_ceil(O::BITS);
        let packed = same_on_every_tier(|tier| {
            let mut out = vec![O::zero(); ow * wpp];
            let mut sink = BitSink::new(cuts, &mut out, wpp);
            on_tier(tier, || ring.decide_row(image, (n, oy), &mut sink));
            out
        })?;
        packs_decisions(&packed, sums, fused)
    }

    /// Every `(i, j, ch)` of a square `kernel`-tap, `c`-channel window.
    fn taps(kernel: usize, c: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        (0..kernel * kernel * c).map(move |t| (t / (kernel * c), t / c % kernel, t % c))
    }

    /// Three flattened images against a `(k, 1, 1, features)` bank, on
    /// every tier, against `dot_pm1` thresholded by `decide_logic`.
    fn dense_case<W: BitWord>(features: usize, k: usize, seed: u64) -> Result<(), TestCaseError> {
        let mut rng = seed;
        let input = random_bits::<W>(Shape4::new(3, 1, 1, features), &mut rng);
        let weights = random_filters::<W>(FilterShape::new(k, 1, 1, features), 64, &mut rng);
        let fused = random_fused(k, 1.0, &mut rng);
        let portable = same_on_every_tier(|tier| {
            let mut out = BitTensor::<W>::zeros(Shape4::new(3, 1, 1, k));
            on_tier(tier, || {
                compute_dense_bin(&input, &FusedLanes::new(&weights, &fused), &mut out)
            });
            out
        })?;
        let mut dots = Vec::with_capacity(3 * k);
        for n in 0..3 {
            let x = input.pixel_words(n, 0, 0);
            dots.extend((0..k).map(|kk| dot_pm1(x, weights.tap_words(kk, 0, 0), features)));
        }
        packs_decisions(portable.as_words(), &dots, &fused)
    }

    /// A window of random floats — zeros of both signs, NaN and ±∞ among
    /// them — packed on every tier, against the sign rule bit by bit.
    fn pack_case<W: BitWord>(c: usize, pixels: usize, seed: u64) -> Result<(), TestCaseError> {
        let mut rng = seed;
        let special = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
        ];
        let images: Vec<_> = (0..2)
            .map(|_| {
                Tensor::from_fn(Shape4::new(1, 1, pixels, c), |_, _, _, _| {
                    match next(&mut rng) % 8 {
                        s @ 0..=5 => special[s as usize],
                        _ => unit(&mut rng),
                    }
                })
            })
            .collect();
        let shape = Shape4::new(3, 1, pixels, c);
        let packed = same_on_every_tier(|tier| {
            let mut out = BitTensor::<W>::zeros(shape);
            on_tier(tier, || {
                crate::kernels::compute_pack_input(&images, shape, &mut out)
            });
            out
        })?;
        for (n, x, ch) in (0..3 * pixels * c).map(|a| (a / (pixels * c), a / c % pixels, a % c)) {
            let want = n == 2 || images[n].at(0, 0, x, ch) >= 0.0;
            prop_assert!(
                packed.get_bit(n, 0, x, ch) == want,
                "image {n} pixel {x} channel {ch}"
            );
        }
        prop_assert!(packed.tail_is_clean());
        Ok(())
    }

    /// A float in `[-1, 1)` with a 16-bit mantissa.
    fn unit(rng: &mut u64) -> f32 {
        (next(rng) % 65536) as f32 / 32768.0 - 1.0
    }

    #[allow(clippy::too_many_arguments)]
    fn fconv_case(
        h: usize,
        w: usize,
        c: usize,
        k: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        if h + 2 * pad < kernel || w + 2 * pad < kernel {
            return Ok(());
        }
        let mut rng = seed;
        let shape = Shape4::new(2, h, w, c);
        let input = Tensor::from_fn(shape, |_, _, _, _| unit(&mut rng));
        let filters = Filters::from_fn(FilterShape::new(k, kernel, kernel, c), |_, _, _, _| {
            unit(&mut rng)
        });
        let bias: Vec<f32> = (0..k).map(|_| unit(&mut rng)).collect();
        let act = Activation::Leaky(0.1);
        let geom = ConvGeometry::square(kernel, stride, pad);
        let (oh, ow) = geom.output_hw(h, w);
        let os = Shape4::new(2, oh, ow, k);
        let bank = FloatBank::new(&filters);
        // Bit for bit: outputs are compared as their `u32` patterns.
        let rows = |tier| {
            let mut out = Tensor::from_fn(os, |_, _, _, _| f32::NAN);
            for (row_idx, row) in out.as_mut_slice().chunks_exact_mut(ow * k).enumerate() {
                let (n, oy) = (row_idx / oh, row_idx % oh);
                let pixels = input.as_slice();
                run_on(
                    tier,
                    #[inline(always)]
                    || fconv_row(pixels, shape, &bank, &bias, act, &geom, n, oy, row),
                );
            }
            out.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        let portable = same_on_every_tier(|tier| match tier {
            None => {
                let mut out = Tensor::from_fn(os, |_, _, _, _| f32::NAN);
                compute_fconv(&input, &bank, &bias, act, &geom, &mut out);
                out.as_slice().iter().map(|v| v.to_bits()).collect()
            }
            Some(tier) => rows(tier),
        })?;
        for (at, &got) in portable.iter().enumerate() {
            let (n, oy, ox, kk) = (at / (oh * ow * k), at / (ow * k) % oh, at / k % ow, at % k);
            // Equal to the naive sequential dot: the in-bounds taps in
            // order, the bias added last.
            let (mut dot, mut sum, mut magnitude) = (0f32, 0f64, f64::from(bias[kk].abs()));
            for (i, j, ch) in taps(kernel, c) {
                let (iy, ix) = (oy * stride + i, ox * stride + j);
                if (pad..h + pad).contains(&iy) && (pad..w + pad).contains(&ix) {
                    let (x, wt) = (
                        input.at(n, iy - pad, ix - pad, ch),
                        filters.at(kk, i, j, ch),
                    );
                    dot += x * wt;
                    sum += f64::from(x) * f64::from(wt);
                    magnitude += (f64::from(x) * f64::from(wt)).abs();
                }
            }
            let naive = act.apply(bias[kk] + dot);
            prop_assert!(
                got == naive.to_bits(),
                "n {n} oy {oy} ox {ox} k {kk}: {} != naive {naive}",
                f32::from_bits(got)
            );
            // And right: an `f64` direct convolution, to 1e-5 of the
            // magnitude summed.
            let expect = f64::from(act.apply((f64::from(bias[kk]) + sum) as f32));
            let got = f64::from(f32::from_bits(got));
            prop_assert!(
                (got - expect).abs() <= 1e-5 * magnitude.max(1.0),
                "n {n} oy {oy} ox {ox} k {kk}: {got} vs {expect}"
            );
        }
        Ok(())
    }

    /// The float body over packed signs ([`compute_fconv_bits`]) on every
    /// tier against what it replaced, compared as `u32` patterns: the signs
    /// unpacked to `±1.0` by `unpack_f32_into`, then `compute_fconv`.
    #[allow(clippy::too_many_arguments)]
    fn fconv_bits_case(
        (h, w): (usize, usize),
        c: usize,
        k: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        act: Activation,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        if h + 2 * pad < kernel || w + 2 * pad < kernel {
            return Ok(());
        }
        let mut rng = seed;
        let input = random_bits::<u64>(Shape4::new(2, h, w, c), &mut rng);
        let filters = Filters::from_fn(FilterShape::new(k, kernel, kernel, c), |_, _, _, _| {
            unit(&mut rng)
        });
        let bias: Vec<f32> = (0..k).map(|_| unit(&mut rng)).collect();
        let geom = ConvGeometry::square(kernel, stride, pad);
        let (oh, ow) = geom.output_hw(h, w);
        let os = Shape4::new(2, oh, ow, k);
        let patterns =
            |t: Tensor<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut floats = Tensor::zeros(os, Layout::Nhwc);
        unpack_f32_into(&input, &mut floats);
        let mut want = Tensor::from_fn(os, |_, _, _, _| f32::NAN);
        compute_fconv(
            &floats,
            &FloatBank::new(&filters),
            &bias,
            act,
            &geom,
            &mut want,
        );
        let bank = SignedBank::new(&filters);
        let got = same_on_every_tier(|tier| {
            let mut out = Tensor::from_fn(os, |_, _, _, _| f32::NAN);
            on_tier(tier, || {
                compute_fconv_bits(&input, &bank, &bias, act, &geom, &mut out)
            });
            patterns(out)
        })?;
        prop_assert!(
            got == patterns(want),
            "k {k} c {c} {kernel}x{kernel}/{stride} pad {pad}"
        );
        Ok(())
    }

    /// The packed-sign head at the filter counts around a group and a
    /// chunk of eight groups (YOLO conv9's 125 among them), channel counts
    /// around a word (conv9's 1024), odd widths, and a 3×3 pad-1 window
    /// under every activation.
    #[test]
    fn bits_head_equals_unpacked_float_body() {
        let acts = [Activation::Linear, Activation::Relu, Activation::Leaky(0.1)];
        for (i, k) in [1usize, 15, 16, 17, 125, 130].into_iter().enumerate() {
            for (j, c) in [1usize, 63, 64, 65, 1024].into_iter().enumerate() {
                let (act, seed) = (acts[(i + j) % 3], (i * 8 + j) as u64);
                fconv_bits_case((2, 3), c, k, 1, 1, 0, act, seed).unwrap();
                if c <= 65 {
                    for act in acts {
                        fconv_bits_case((3, 5), c, k, 3, 1, 1, act, seed).unwrap();
                    }
                }
            }
        }
    }

    /// The float head's previous host body, kept to time against: per
    /// (pixel, filter) one dot product, element `e` into lane `e % 16`, the
    /// lanes added pairwise.
    #[inline(always)]
    fn lane_pairwise_row(pixels: &[f32], filters: &Filters, bias: &[f32], row: &mut [f32]) {
        let c = filters.shape().c;
        for (x, outputs) in pixels.chunks_exact(c).zip(row.chunks_exact_mut(bias.len())) {
            for (k, (output, &b)) in outputs.iter_mut().zip(bias).enumerate() {
                let mut acc = [0f32; 16];
                let (x_body, x_tail) = x.as_chunks::<16>();
                let (w_body, w_tail) = filters.filter(k).as_chunks::<16>();
                for (x, w) in x_body.iter().zip(w_body) {
                    for l in 0..16 {
                        acc[l] += x[l] * w[l];
                    }
                }
                for ((a, x), w) in acc.iter_mut().zip(x_tail).zip(w_tail) {
                    *a += x * w;
                }
                let mut width = 8;
                while width > 0 {
                    for l in 0..width {
                        acc[l] += acc[l + width];
                    }
                    width /= 2;
                }
                *output = b + acc[0];
            }
        }
    }

    /// Best wall ms of `f` over 21 runs: a slow phase of a shared host
    /// lasts longer than one run.
    fn best_ms(mut f: impl FnMut()) -> f64 {
        (0..21)
            .map(|_| {
                let t0 = std::time::Instant::now();
                f();
                t0.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Per-tier wall ms of both host bodies against the ones they replaced,
    /// at YOLOv2-Tiny's shapes, every row on this thread:
    /// `cargo test --release -p phonebit-nn -- --ignored --nocapture per_tier_timing`
    /// (pin it with `taskset -c 1` for steadier numbers).
    #[test]
    #[ignore = "timing table, release builds only"]
    fn per_tier_timing() {
        let mut rng = 2020;
        // conv1: 416×416×3 → 16, 3×3 pad 1; the bit-plane path splits first.
        let s = Shape4::new(1, 416, 416, 3);
        let mut image = Tensor::<u8>::zeros(s, Layout::Nhwc);
        for v in image.as_mut_slice() {
            *v = next(&mut rng) as u8;
        }
        let filters = random_filters::<u8>(FilterShape::new(16, 3, 3, 3), 9, &mut rng);
        let geom = ConvGeometry::square(3, 1, 1);
        let (plane_bank, bank) = (PlaneBank::column_major(&filters), ByteBank::new(&filters));
        let cuts = PlaneCuts::new(&FusedBn::identity(16), 27);
        let mut planes = BitPlanes::<u8>::empty(s);
        let mut out = vec![0u16; 416 * 416];
        // conv9: 12×12×1024 → 125, 1×1 (`pool6` is 2×2/1: 13 → 12).
        let fs = Shape4::new(1, 12, 12, 1024);
        let pixels: Vec<f32> = (0..fs.len()).map(|_| unit(&mut rng)).collect();
        let head = Filters::from_fn(FilterShape::new(125, 1, 1, 1024), |_, _, _, _| {
            unit(&mut rng)
        });
        let (bias, head_bank) = (vec![0.5f32; 125], FloatBank::new(&head));
        let one = ConvGeometry::square(1, 1, 0);
        let mut floats = vec![0f32; 12 * 12 * 125];
        println!("tier             conv1 split+planes  byte dot   conv9 pairwise  lanes");
        for tier in tiers() {
            let bitplane = best_ms(|| {
                planes.split_from(&image);
                let mut stream = PlaneStream::new(&plane_bank, &geom, 416);
                for (oy, row) in out.chunks_exact_mut(416).enumerate() {
                    let mut sink = BitSink::new(&cuts, row, 1);
                    on_tier(Some(tier), || {
                        bitplane_row(
                            &planes,
                            &plane_bank,
                            &geom,
                            &mut stream,
                            0,
                            oy,
                            416,
                            &mut sink,
                        )
                    });
                }
            });
            let bytes = best_ms(|| {
                let mut ring = ByteRing::new(&bank, &geom, s);
                for (oy, row) in out.chunks_exact_mut(416).enumerate() {
                    let mut sink = BitSink::new(&cuts, row, 1);
                    on_tier(Some(tier), || {
                        ring.decide_row(image.as_slice(), (0, oy), &mut sink)
                    });
                }
            });
            let pairwise = best_ms(|| {
                for (x, row) in pixels
                    .chunks_exact(12 * 1024)
                    .zip(floats.chunks_exact_mut(12 * 125))
                {
                    run_on(
                        tier,
                        #[inline(always)]
                        || lane_pairwise_row(x, &head, &bias, row),
                    );
                }
            });
            let lanes = best_ms(|| {
                for (oy, row) in floats.chunks_exact_mut(12 * 125).enumerate() {
                    let act = Activation::Linear;
                    run_on(
                        tier,
                        #[inline(always)]
                        || fconv_row(&pixels, fs, &head_bank, &bias, act, &one, 0, oy, row),
                    );
                }
            });
            println!(
                "{:<16} {bitplane:>18.2} {bytes:>9.2} {pairwise:>15.2} {lanes:>9.2}",
                tier.name()
            );
        }
        // conv9 from conv8's packed signs (12×12×1024, `u64` words): unpacked
        // to `±1.0` for the float body, and read in place by the bits head;
        // conv1 on the VNNI frame at runtime shape and on its `(3, 3, 3)`
        // instance.
        let signs = random_bits::<u64>(fs, &mut rng);
        let (signed, mut unpacked) = (SignedBank::new(&head), Tensor::zeros(fs, Layout::Nhwc));
        let mut head_out = Tensor::zeros(Shape4::new(1, 12, 12, 125), Layout::Nhwc);
        let act = Activation::Linear;
        println!("tier             conv9 unpack+lanes  bits head   conv1 runtime frame  (3, 3, 3)");
        for tier in tiers() {
            let unpack_lanes = best_ms(|| {
                on_tier(Some(tier), || {
                    unpack_f32_into(&signs, &mut unpacked);
                    compute_fconv(&unpacked, &head_bank, &bias, act, &one, &mut head_out)
                })
            });
            let bits_head = best_ms(|| {
                on_tier(Some(tier), || {
                    compute_fconv_bits(&signs, &signed, &bias, act, &one, &mut head_out)
                })
            });
            let mut conv1 = |runtime: bool| {
                RUNTIME_FRAME.set(runtime);
                let ms = best_ms(|| {
                    let mut ring = ByteRing::new(&bank, &geom, s);
                    for (oy, row) in out.chunks_exact_mut(416).enumerate() {
                        let mut sink = BitSink::new(&cuts, row, 1);
                        on_tier(Some(tier), || {
                            ring.decide_row(image.as_slice(), (0, oy), &mut sink)
                        });
                    }
                });
                RUNTIME_FRAME.set(false);
                ms
            };
            let (runtime, instance) = (conv1(true), conv1(false));
            println!(
                "{:<16} {unpack_lanes:>18.2} {bits_head:>10.2} {runtime:>20.2} {instance:>10.2}",
                tier.name()
            );
        }
        // conv2: 208×208×16 → 32, 3×3 pad 1, and pool1 ahead of it: 2×2/2
        // over 416×416×16, both on `u64` words as the engine runs them, and
        // conv3 (104×104×32 → 64); conv2 and conv3 as ring + tile and on
        // their tap banks (AVX-512 only: NaN below it), pool1 also against
        // its runtime-shape arm (the `(1, 2, 2)` instance's body at runtime
        // arguments).
        let s = Shape4::new(1, 208, 208, 16);
        let input = random_bits::<u64>(s, &mut rng);
        let filters = random_filters::<u64>(FilterShape::new(32, 3, 3, 16), 9, &mut rng);
        let fused = FusedBn::identity(32);
        let cuts = Cuts::new(&fused, filters.shape().filter_len());
        let (lanes, taps) = ((LaneBank::new(&filters), &cuts), tap_padded_bank(&filters));
        let mut out = vec![0u64; 208 * 208];
        let mut windows = vec![0u64; 208 * 9];
        let s3 = Shape4::new(1, 104, 104, 32);
        let input3 = random_bits::<u64>(s3, &mut rng);
        let filters3 = random_filters::<u64>(FilterShape::new(64, 3, 3, 32), 9, &mut rng);
        let cuts3 = Cuts::new(&FusedBn::identity(64), filters3.shape().filter_len());
        let lanes3 = (LaneBank::new(&filters3), &cuts3);
        let mut out3 = vec![0u64; 104 * 104];
        let wide = random_bits::<u64>(Shape4::new(1, 416, 416, 16), &mut rng);
        let pool = PoolGeometry::new(2, 2);
        let mut pooled = BitTensor::<u64>::zeros(s);
        // Rows of `input` through a worker's ring of `lanes`, or of the
        // same filters at their packing width.
        let ring_tile = |input: &BitTensor<u64>,
                         (bank, cuts): &(LaneBank<u64>, &Cuts),
                         out: &mut [u64],
                         tier| {
            let s = input.shape();
            best_ms(|| {
                let mut ring = RowRing::new(&geom, s);
                for (oy, row) in out.chunks_exact_mut(s.w).enumerate() {
                    let mut sink = BitSink::new(*cuts, row, 1);
                    on_tier(Some(tier), || {
                        conv_row_tiled(input, bank, &mut ring, (0, oy), &mut sink)
                    });
                }
            })
        };
        let tap_rows = |input: &BitTensor<u64>,
                        filters: &PackedFilters<u64>,
                        fused: &FusedBn,
                        out: &mut [u64],
                        tier| {
            let s = input.shape();
            if tier != IsaTier::detected() || !TapBank::fits(filters.shape(), &geom) {
                return f64::NAN;
            }
            let bank = TapBank::new(filters, fused);
            best_ms(|| {
                let mut ring = TapRing::new(&bank, &geom, s);
                for (oy, row) in out.chunks_exact_mut(s.w).enumerate() {
                    row.fill(0);
                    ring.decide_row(input, (0, oy), row, 1);
                }
            })
        };
        println!(
            "tier             conv2 tap words  ring+tile  taps   conv3 ring+tile  taps   \
             pool1 nested  runtime  (1, 2, 2)"
        );
        for tier in tiers() {
            let tap_words = best_ms(|| {
                for (oy, row) in out.chunks_exact_mut(208).enumerate() {
                    gather_tap_words(&input, &geom, oy, &mut windows);
                    let mut sink = BitSink::new(&cuts, row, 1);
                    on_tier(Some(tier), || tile_filters(&windows, &taps, &mut sink));
                }
            });
            let conv2 = ring_tile(&input, &lanes, &mut out, tier);
            let taps2 = tap_rows(&input, &filters, &fused, &mut out, tier);
            let conv3 = ring_tile(&input3, &lanes3, &mut out3, tier);
            let taps3 = tap_rows(&input3, &filters3, &FusedBn::identity(64), &mut out3, tier);
            // The pool bodies run outside any `isa` frame: one row per tier.
            let nested = best_ms(|| nested_loop_maxpool(&wide, &pool, &mut pooled));
            let runtime = best_ms(|| runtime_shape_maxpool(&wide, &pool, &mut pooled));
            let instance = best_ms(|| compute_maxpool_bits(&wide, &pool, &mut pooled));
            println!(
                "{:<16} {tap_words:>15.2} {conv2:>10.2} {taps2:>5.2} {conv3:>16.2} {taps3:>5.2} \
                 {nested:>14.2} {runtime:>8.2} {instance:>10.2}",
                tier.name()
            );
        }
        // VGG16's body input: one 224×224×64 float image sign-packed.
        let s = Shape4::new(1, 224, 224, 64);
        let image = [Tensor::from_fn(s, |_, _, _, _| unit(&mut rng))];
        let mut bits = BitTensor::<u64>::zeros(s);
        println!("tier             pack 224²×64 in run  dispatched");
        for tier in tiers() {
            let framed = best_ms(|| {
                run_on(
                    tier,
                    #[inline(always)]
                    || pack_window_into(&image, s, &mut bits),
                )
            });
            let dispatched = best_ms(|| {
                on_tier(Some(tier), || {
                    crate::kernels::compute_pack_input(&image, s, &mut bits)
                })
            });
            println!("{:<16} {framed:>19.2} {dispatched:>11.2}", tier.name());
        }
    }

    /// A 3×3 bank of at most 64 channels in the binary body's previous
    /// layout: every tap padded to a whole word (the dense layout of the
    /// channels padded to 64).
    fn tap_padded_bank(filters: &PackedFilters<u64>) -> LaneBank<u64> {
        let fs = filters.shape();
        let mut padded = PackedFilters::zeros(FilterShape::new(fs.k, 3, 3, 64));
        for (k, t, ch) in (0..fs.k * 9 * fs.c).map(|a| (a / (9 * fs.c), a / fs.c % 9, a % fs.c)) {
            padded.set_bit(k, t / 3, t % 3, ch, filters.get_bit(k, t / 3, t % 3, ch));
        }
        LaneBank::new(&padded)
    }

    /// The binary body's previous window source, for one output row of a
    /// 3×3 convolution over a one-word-per-pixel input: per pixel, per tap
    /// one word copied (zero for padding) into `windows`.
    fn gather_tap_words(
        input: &BitTensor<u64>,
        geom: &ConvGeometry,
        oy: usize,
        windows: &mut [u64],
    ) {
        let s = input.shape();
        for (ox, window) in windows.chunks_exact_mut(9).enumerate() {
            for (t, word) in window.iter_mut().enumerate() {
                let (iy, ix) = (
                    (oy * geom.stride_h + t / 3).wrapping_sub(1),
                    (ox + t % 3).wrapping_sub(1),
                );
                *word = if iy < s.h && ix < s.w {
                    input.pixel_words(0, iy, ix)[0]
                } else {
                    0
                };
            }
        }
    }

    /// The row ring's instances at every pixel-tile residue: output rows of
    /// `ow % 4` ∈ {0, 1, 2, 3} beside a full tile, over one-word thin rows on
    /// `u64` and `u32` words, two- and three-word and aligned rows, on every
    /// tier and both sinks ([`ring_case`]; its `C = 16`/`32` cases also run
    /// the tap body).
    #[test]
    fn ring_instances_at_every_tile_residue() {
        for w in 4..=8 {
            for (c, k) in [(16, 13), (32, 64), (48, 40), (64, 8)] {
                let seed = (w * 131 + c) as u64;
                ring_case::<u64>((3, w), c, k, 3, 1, 1, seed).unwrap();
            }
            for (c, k) in [(8, 40), (16, 13)] {
                ring_case::<u32>((3, w), c, k, 3, 1, 1, w as u64).unwrap();
            }
        }
    }

    /// The thin layers' tap body ([`taps`]) at both lane widths, around a
    /// group of 32 and 16 filters and a 64-filter output word, at rows under,
    /// at and past a 16-column block (YOLO `conv2`'s 208 among them), and
    /// every padding up to windows wholly in it ([`ring_case`]).
    #[test]
    fn tap_body_at_thin_shapes() {
        for (c, k) in [16, 32]
            .into_iter()
            .flat_map(|c| [8, 16, 31, 32, 33, 64, 72, 96].map(move |k| (c, k)))
        {
            for w in [1, 8, 15, 16, 17, 33, 208] {
                for pad in 0..3 {
                    let seed = (c * 1000 + k * 10 + w + pad) as u64;
                    ring_case::<u64>((3, w), c, k, 3, 1, pad, seed).unwrap();
                }
            }
            ring_case::<u32>((4, 17), c, k, 3, 1, 1, k as u64).unwrap();
        }
    }

    /// A bank whose filters repeat (`k` over `u` distinct ones, [`repeating`])
    /// on every route that stages [`FusedLanes`] — the fused dispatch and the
    /// `bconv_pool` chain over [`DirectBank::new`], the lowered GEMM, and a
    /// dense pair whose first layer repeats — staged on every tier (shared
    /// where [`word_permute`] holds and the bank repeats enough, every filter
    /// otherwise), raw and through its dictionary, against
    /// `compute_bconv_fused_reference`.
    fn shared_routes_case(k: usize, u: usize, c: usize) {
        let mut rng = (k * 1000 + u * 10 + c) as u64;
        let geom = ConvGeometry::square(3, 1, 1);
        let input = random_bits::<u64>(Shape4::new(2, 4, 6, c), &mut rng);
        let filters = repeating::<u64>((k, u), (3, 3, c), rng);
        let fused = random_fused(k, 1.0, &mut rng);
        let mut want = BitTensor::zeros(Shape4::new(2, 4, 6, k));
        compute_bconv_fused_reference(&input, &filters, &fused, &geom, &mut want);
        let pool = PoolGeometry::new(2, 2);
        let mut pooled = BitTensor::zeros(Shape4::new(2, 2, 3, k));
        nested_loop_maxpool(&want, &pool, &mut pooled);
        // The dense pair: `k` over `u` into nine, over the flattened input.
        let features = 24 * c;
        let w1 = repeating::<u64>((k, u), (1, 1, features), rng);
        let w2 = random_filters::<u64>(FilterShape::new(9, 1, 1, k), 4, &mut rng);
        let (f1, f2) = (
            random_fused(k, 4.0, &mut rng),
            random_fused(9, 1.0, &mut rng),
        );
        let mut flat = BitTensor::zeros(input.shape());
        let mut mid = BitTensor::zeros(Shape4::new(2, 1, 1, k));
        let mut out = BitTensor::zeros(Shape4::new(2, 1, 1, 9));
        flatten_bits_into(&input, &mut flat);
        let point = ConvGeometry::square(1, 1, 0);
        compute_bconv_fused_reference(&flat, &w1, &f1, &point, &mut mid);
        compute_bconv_fused_reference(&mid, &w2, &f2, &point, &mut out);
        let shares = u <= 64 && 4 * u <= 3 * k;
        let routes = |filters: &dyn Fn() -> DirectBank<u64>, flat: &dyn Fn() -> FusedLanes<u64>| {
            let (bank, lanes) = (filters(), flat());
            let shared = (shares && word_permute()).then_some(u);
            let DirectBank::Lanes(direct) = &bank else {
                panic!("k {k} u {u} c {c}: a fused bank of 3×3 × {c} stages the tiled lanes");
            };
            assert_eq!(
                direct.distinct_filters(),
                shared,
                "k {k} u {u} c {c} direct"
            );
            assert_eq!(
                lanes.distinct_filters(),
                shared,
                "k {k} u {u} c {c} lowered"
            );
            let mut got = BitTensor::zeros(want.shape());
            compute_bconv_fused(&input, &bank, &geom, &mut got);
            assert!(got == want, "k {k} u {u} c {c}: fused dispatch");
            let mut ring = BitTensor::zeros(ring_shape(6, k, pool.size));
            let mut got = BitTensor::zeros(pooled.shape());
            compute_bconv_pool_chain(&input, &bank, &geom, &pool, &mut ring, &mut got);
            assert!(got == pooled, "k {k} u {u} c {c}: bconv_pool chain");
            let mut windows = BitTensor::zeros(Shape4::new(0, 0, 0, 0));
            let mut got = BitTensor::zeros(want.shape());
            pack_windows_into(&input, &geom, &mut windows);
            compute_bgemm(&windows, &lanes, &mut got);
            assert!(got == want, "k {k} u {u} c {c}: lowered GEMM");
        };
        let dict = FilterDict::build(&filters);
        let flat_raw = flatten_filters(&filters);
        let flat_dict = FilterDict::build(&flat_raw);
        for tier in tiers() {
            on_tier(Some(tier), || {
                routes(&|| DirectBank::new(&filters, &fused, Some(&geom)), &|| {
                    FusedLanes::new(&flat_raw, &fused)
                });
                routes(&|| DirectBank::new(&dict, &fused, Some(&geom)), &|| {
                    FusedLanes::new(&flat_dict, &fused)
                });
                for l1 in [
                    FusedLanes::new(&w1, &f1),
                    FusedLanes::new(&FilterDict::build(&w1), &f1),
                ] {
                    let shared = (shares && word_permute()).then_some(u);
                    assert_eq!(l1.distinct_filters(), shared, "k {k} u {u} dense");
                    let l2 = FusedLanes::new(&w2, &f2);
                    let mut f = BitTensor::zeros(Shape4::new(0, 0, 0, 0));
                    let mut m = BitTensor::zeros(Shape4::new(input.shape().n, 1, 1, l1.shape().k));
                    let mut got = BitTensor::zeros(out.shape());
                    flatten_bits_into(&input, &mut f);
                    compute_dense_bin(&f, &l1, &mut m);
                    compute_dense_bin(&m, &l2, &mut got);
                    assert!(
                        got == out,
                        "k {k} u {u} c {c}: dense pair on {}",
                        tier.name()
                    );
                }
            });
        }
    }

    /// A bank that repeats on every route, on every tier
    /// ([`shared_routes_case`]): `K` below, at and past one output block and
    /// word, `U` at one group and past it, around a `u16` vector's 32 lanes
    /// (`vpermw` to 32, `vpermt2w` past it) and at its limit, over a thin
    /// (shifted) and an aligned row; and 65 distinct filters and `4U > 3K`,
    /// which stage every filter.
    #[test]
    fn shared_bank_on_every_route_and_tier() {
        let ks = [1, 8, 31, 64, 72, 128, 512];
        let cases = ks
            .into_iter()
            .flat_map(|k| [1, 2, 31, 32, 33, 64].map(move |u| (k, u)))
            .filter(|&(k, u)| u <= k)
            .chain([(130, 65), (64, 49)]);
        for (n, (k, u)) in cases.enumerate() {
            shared_routes_case(k, u, [40, 64][n % 2]);
        }
    }

    /// The byte dot's `(3, 3, 3)` instance (RGB 3×3 stride 1) at rows of
    /// `ow % 16` ∈ {0, 1, 15} and one to four filter groups, and a wide row
    /// of another shape on the runtime frame, on every tier against the
    /// portable frame and `bitplane_row` ([`byte_row_case`]).
    #[test]
    fn byte_instance_at_every_block_residue() {
        for (w, seed) in [(16, 1), (17, 2), (31, 3), (32, 4)] {
            for k in [8, 16, 24, 64] {
                byte_row_case(3, w, 3, k, 3, 1, 1, seed * 100 + k as u64).unwrap();
            }
        }
        byte_row_case(3, 33, 4, 24, 3, 1, 1, 5).unwrap();
    }

    // Each property enters the one generic driver on every tier the CPU has
    // and through the dispatched entry, at all four word widths, and compares
    // each against the portable tier — and that against an oracle that
    // shares none of the kernel's code. On a CPU (or target) whose only tier
    // is `portable` the tier comparison is vacuous; everywhere else it
    // compares different instruction streams.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn dispatched_conv_row_equals_portable(
            // One-pixel-high and one-pixel-wide inputs included; up to three
            // pixel tiles per row.
            h in 1usize..6,
            w in 1usize..11,
            // Below, at and past one and two `u64` words, mostly odd.
            c in prop::sample::select(vec![1usize, 3, 37, 64, 70, 130]),
            // The filter-count tail: below, at and past one group, an odd
            // and an even group count; past one and two 64-filter words,
            // each split over several `u8`/`u16`/`u32` output words.
            k in prop::sample::select(vec![1usize, 7, 8, 9, 20, 36, 65, 130]),
            kernel in prop::sample::select(vec![(1usize, 1usize), (3, 3), (1, 3)]),
            stride in 1usize..3,
            // Up to `pad > kernel / 2`: windows wholly in padding.
            pad in 0usize..3,
            seed in any::<u64>(),
        ) {
            conv_row_case(binary_case::<u8>(h, w, c, k, kernel, stride, pad, seed))?;
            conv_row_case(binary_case::<u16>(h, w, c, k, kernel, stride, pad, seed))?;
            conv_row_case(binary_case::<u32>(h, w, c, k, kernel, stride, pad, seed))?;
            conv_row_case(binary_case::<u64>(h, w, c, k, kernel, stride, pad, seed))?;
        }

        #[test]
        fn dispatched_tile_filters_equals_portable(
            h in 1usize..5,
            w in 1usize..8,
            c in prop::sample::select(vec![1usize, 3, 37, 64, 70, 130]),
            k in prop::sample::select(vec![1usize, 7, 8, 9, 20, 36, 65, 130]),
            kernel in prop::sample::select(vec![(1usize, 1usize), (3, 3), (1, 3)]),
            stride in 1usize..3,
            pad in 0usize..3,
            seed in any::<u64>(),
        ) {
            tile_filters_case(binary_case::<u8>(h, w, c, k, kernel, stride, pad, seed))?;
            tile_filters_case(binary_case::<u16>(h, w, c, k, kernel, stride, pad, seed))?;
            tile_filters_case(binary_case::<u32>(h, w, c, k, kernel, stride, pad, seed))?;
            tile_filters_case(binary_case::<u64>(h, w, c, k, kernel, stride, pad, seed))?;
        }

        #[test]
        fn dispatched_bitplane_row_equals_portable(
            // One-pixel-high and one-pixel-wide images included.
            h in 1usize..7,
            w in 1usize..8,
            // 9 and 33 channels: one bit past a plane word and past a
            // stream word; 70: two words per pixel at `u64`, nine at `u8`.
            c in prop::sample::select(vec![1usize, 3, 4, 8, 9, 13, 33, 70]),
            // A half group, a whole one, two and a half, six; ragged tails.
            k in prop::sample::select(vec![1usize, 7, 8, 9, 15, 16, 17, 24, 40, 96]),
            kernel in prop::sample::select(vec![1usize, 3, 5, 11]),
            stride in prop::sample::select(vec![1usize, 2, 4]),
            // Up to `pad > kernel / 2`: windows wholly in padding.
            pad in 0usize..4,
            seed in any::<u64>(),
        ) {
            bitplane_row_case::<u8>(h, w, c, k, kernel, stride, pad, seed)?;
            bitplane_row_case::<u16>(h, w, c, k, kernel, stride, pad, seed)?;
            bitplane_row_case::<u32>(h, w, c, k, kernel, stride, pad, seed)?;
            bitplane_row_case::<u64>(h, w, c, k, kernel, stride, pad, seed)?;
        }

        // AlexNet's conv1 geometry: 363-bit windows, twelve stream words,
        // sliding 132 stream bits per output column.
        #[test]
        fn dispatched_bitplane_row_equals_portable_11x11_stride_4(
            h in 11usize..16,
            w in 11usize..24,
            k in 1usize..40,
            pad in 0usize..3,
            seed in any::<u64>(),
        ) {
            bitplane_row_case::<u8>(h, w, 3, k, 11, 4, pad, seed)?;
            bitplane_row_case::<u16>(h, w, 3, k, 11, 4, pad, seed)?;
            bitplane_row_case::<u32>(h, w, 3, k, 11, 4, pad, seed)?;
            bitplane_row_case::<u64>(h, w, 3, k, 11, 4, pad, seed)?;
        }

        // The float head: 1x1 over many channels (YOLO's conv9 shape, with
        // `c % 16 != 0` tails) and 3x3 with padding and stride 2.
        #[test]
        fn dispatched_fconv_is_bit_identical_and_right(
            h in 1usize..6,
            w in 1usize..7,
            c in prop::sample::select(vec![1usize, 3, 16, 37, 70]),
            // One group's tail, one and a tail, YOLO conv9's 125.
            k in prop::sample::select(vec![1usize, 10, 17, 125]),
            kernel in prop::sample::select(vec![1usize, 3]),
            stride in 1usize..3,
            pad in 0usize..3,
            seed in any::<u64>(),
        ) {
            fconv_case(h, w, c, k, kernel, stride, pad, seed)?;
        }

        // The packed-sign head at any geometry: windows wholly in padding,
        // strides, one-pixel rows.
        #[test]
        fn dispatched_bits_head_equals_unpacked_float_body(
            h in 1usize..5,
            w in 1usize..8,
            c in prop::sample::select(vec![1usize, 3, 17, 64, 70]),
            k in prop::sample::select(vec![1usize, 16, 17, 125, 130]),
            kernel in prop::sample::select(vec![1usize, 3]),
            stride in 1usize..3,
            pad in 0usize..3,
            seed in any::<u64>(),
        ) {
            fconv_bits_case((h, w), c, k, kernel, stride, pad, Activation::Leaky(0.1), seed)?;
        }

        // The row ring at dense width: channel tails and pad bits on both
        // sides of a word, thin and aligned rows on `u32` and `u64` words,
        // asymmetric inputs, windows wholly in padding.
        #[test]
        fn dispatched_ring_row_equals_reference(
            h in 1usize..8,
            w in 1usize..10,
            c in prop::sample::select(vec![1usize, 3, 8, 16, 24, 32, 48, 64, 96, 130]),
            k in prop::sample::select(vec![8usize, 13, 40, 64]),
            kernel in prop::sample::select(vec![1usize, 3, 5]),
            stride in 1usize..3,
            pad in 0usize..3,
            seed in any::<u64>(),
        ) {
            ring_case::<u32>((h, w), c, k, kernel, stride, pad, seed)?;
            ring_case::<u64>((h, w), c, k, kernel, stride, pad, seed)?;
        }

        // The byte dot: runs that are not a multiple of 4 bytes, lane tails.
        #[test]
        fn dispatched_byte_row_equals_bitplane_row(
            h in 1usize..7,
            w in 1usize..8,
            c in prop::sample::select(vec![1usize, 3, 4, 5]),
            k in prop::sample::select(vec![8usize, 16, 24, 40]),
            kernel in prop::sample::select(vec![1usize, 3, 5, 11]),
            stride in prop::sample::select(vec![1usize, 2, 4]),
            pad in 0usize..3,
            seed in any::<u64>(),
        ) {
            byte_row_case(h, w, c, k, kernel, stride, pad, seed)?;
        }

        #[test]
        fn dispatched_pack_equals_portable(
            c in prop::sample::select(vec![1usize, 3, 8, 15, 16, 17, 33, 64, 70, 130]),
            pixels in 1usize..5,
            seed in any::<u64>(),
        ) {
            pack_case::<u8>(c, pixels, seed)?;
            pack_case::<u16>(c, pixels, seed)?;
            pack_case::<u32>(c, pixels, seed)?;
            pack_case::<u64>(c, pixels, seed)?;
        }

        #[test]
        fn dispatched_dense_bin_equals_portable(
            features in 1usize..200,
            k in 1usize..70,
            seed in any::<u64>(),
        ) {
            dense_case::<u8>(features, k, seed)?;
            dense_case::<u16>(features, k, seed)?;
            dense_case::<u32>(features, k, seed)?;
            dense_case::<u64>(features, k, seed)?;
        }
    }
}
