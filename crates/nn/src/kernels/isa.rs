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
//!   (256-bit xor/loads around it) and `avx512vpopcntdq` (eight 64-bit
//!   popcounts per instruction), each with the features it is always
//!   shipped with; see [`IsaTier`]. Other architectures, and x86-64 CPUs
//!   with none of these, take the portable tier — on aarch64 `count_ones`
//!   already lowers to NEON `cnt`.
//! - **Where the frame boundary is.** `run` is called once per row task
//!   (`tiled::conv_row_tiled`, `tiled::tile_filters`,
//!   `bitplane::bitplane_row`, `dense::compute_dense_bin`, `fconv`'s pixel
//!   rows), never per word.
//!   A `#[target_feature]` function cannot be inlined into its caller, so
//!   the call is the boundary; everything below it — the driver, the
//!   microkernel, `ClVec`, `BitWord::popcount`, the packed-bit sink — is
//!   `#[inline(always)]` and is therefore code-generated again inside each
//!   wrapper with that tier's instructions. A link of that chain that is
//!   merely `#[inline]` — or an unannotated closure, or a library helper
//!   such as `array::from_fn` around a popcount — may be emitted once, for
//!   the baseline target, and silently fall back to the slow popcount.
//! - **Why not `target-cpu` or `RUSTFLAGS`.** A global flag changes every
//!   crate in the build, including the benchmark's calibration loop, and
//!   produces a binary that faults on an older CPU. Dispatch keeps one
//!   binary that is correct everywhere and fast where it can be, and keeps
//!   the portable instantiation of every driver compiled — it is what the
//!   equality tests compare the dispatched one against, and
//!   `compute_bconv_fused_reference` stays on it as the oracle.

use std::sync::OnceLock;

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

/// Runs `task` compiled for the detected tier.
///
/// `task` must be an `#[inline(always)]` closure whose body reaches its
/// popcounts only through `#[inline(always)]` functions (see the module
/// docs); the result is the same on every tier.
#[inline]
pub(crate) fn run<R>(task: impl FnOnce() -> R) -> R {
    run_on(IsaTier::detected(), task)
}

/// [`run`] on `tier`, or on the detected tier when the CPU does not reach
/// `tier` — how the tests put every tier this CPU has beside the portable
/// one.
#[inline]
pub(crate) fn run_on<R>(tier: IsaTier, task: impl FnOnce() -> R) -> R {
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

    use phonebit_tensor::bitplane::BitPlanes;
    use phonebit_tensor::bits::{BitTensor, BitWord, PackedFilters};
    use phonebit_tensor::dict::{FilterAccess, FilterDict};
    use phonebit_tensor::shape::{ConvGeometry, FilterShape, Layout, Shape4};
    use phonebit_tensor::tensor::{Filters, Tensor};

    use crate::act::Activation;
    use crate::fuse::FusedBn;
    use crate::kernels::bgemm::flatten_filters;
    use crate::kernels::bitplane::{bitplane_row, bitplane_row_portable, PlaneBank, PlaneStream};
    use crate::kernels::dense::{compute_dense_bin, compute_dense_bin_portable};
    use crate::kernels::fconv::{compute_fconv, fconv_row};
    use crate::kernels::tiled::{
        conv_row_tiled, conv_row_tiled_portable, tile_filters, tile_filters_portable, WindowGather,
    };

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

    /// Checks that `outputs(Some(tier))` — the portable driver entered on
    /// `tier` — and `outputs(None)` — the public dispatched entry — all
    /// equal the portable tier's result, which is returned.
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

    /// An `emit` that files each run of dot values under `(row, k0)`.
    fn record(out: &mut [i32], k: usize) -> impl FnMut(usize, usize, &[i32]) + '_ {
        move |row, k0, x1s| out[row * k + k0..][..x1s.len()].copy_from_slice(x1s)
    }

    /// Every output the row driver emits over every row of `input`, on
    /// every tier.
    fn conv_rows_agree<W: BitWord>(
        input: &BitTensor<W>,
        filters: &(impl FilterAccess<W> + Sync),
        geom: &ConvGeometry,
    ) -> Result<(), TestCaseError> {
        let s = input.shape();
        let (oh, ow) = geom.output_hw(s.h, s.w);
        let k = filters.shape().k;
        let mut gather = WindowGather::new(geom, filters.words_per_tap());
        for n in 0..s.n {
            for oy in 0..oh {
                let portable = same_on_every_tier(|tier| {
                    let mut out = vec![i32::MIN; ow * k];
                    let emit = record(&mut out, k);
                    let g = &mut gather;
                    match tier {
                        None => conv_row_tiled(input, filters, geom, g, n, oy, ow, emit),
                        Some(tier) => run_on(
                            tier,
                            #[inline(always)]
                            || conv_row_tiled_portable(input, filters, geom, g, n, oy, ow, emit),
                        ),
                    }
                    out
                })?;
                prop_assert!(!portable.contains(&i32::MIN), "an output was never emitted");
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn conv_row_case<W: BitWord>(
        h: usize,
        w: usize,
        c_extra: usize,
        k: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        // Channel counts below, at and past one and two words, mostly odd.
        let c = 1 + (c_extra * 7) % (2 * W::BITS + 5);
        if h + 2 * pad < kernel || w + 2 * pad < kernel {
            return Ok(());
        }
        let mut rng = seed;
        let input = random_bits::<W>(Shape4::new(2, h, w, c), &mut rng);
        let filters = random_filters::<W>(FilterShape::new(k, kernel, kernel, c), 3, &mut rng);
        let geom = ConvGeometry::square(kernel, stride, pad);
        conv_rows_agree(&input, &filters, &geom)?;
        // The same bank read through its dictionary: the table walk
        // (`WindowGather::dict_tile`) for multi-tap kernels, flat rows for
        // 1x1.
        conv_rows_agree(&input, &FilterDict::build(&filters), &geom)
    }

    fn tile_filters_case<W: BitWord>(
        rows: usize,
        taps: usize,
        tap_words: usize,
        k: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng = seed;
        let c = tap_words * W::BITS;
        // Odd window lengths: `taps * tap_words` words per row.
        let spans = random_bits::<W>(Shape4::new(1, 1, rows, taps * c), &mut rng);
        let bank = random_filters::<W>(FilterShape::new(k, 1, taps, c), 4, &mut rng);
        let flat = flatten_filters(&bank);
        let (words, row_words) = (spans.as_words(), spans.words_per_pixel());
        let bits = (taps * c) as i32;
        let portable = same_on_every_tier(|tier| {
            let mut out = vec![i32::MIN; rows * k];
            let emit = record(&mut out, k);
            match tier {
                None => tile_filters(words, row_words, &flat, bits, emit),
                Some(tier) => run_on(
                    tier,
                    #[inline(always)]
                    || tile_filters_portable(words, row_words, &flat, bits, emit),
                ),
            }
            out
        })?;
        prop_assert!(!portable.contains(&i32::MIN), "an output was never emitted");
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
        let bank = PlaneBank::new(&filters);
        let geom = ConvGeometry::square(kernel, stride, pad);
        let (oh, ow) = geom.output_hw(h, w);
        // One scratch across rows, images and tiers, as a worker keeps it.
        let mut scratch = PlaneStream::new(&bank, &geom, w);
        for (n, oy) in (0..2).flat_map(|n| (0..oh).map(move |oy| (n, oy))) {
            let portable = same_on_every_tier(|tier| {
                let mut out = vec![i32::MIN; ow * k];
                let emit = record(&mut out, k);
                let scr = &mut scratch;
                match tier {
                    None => bitplane_row(&planes, &bank, &geom, scr, n, oy, ow, emit),
                    Some(tier) => run_on(
                        tier,
                        #[inline(always)]
                        || bitplane_row_portable(&planes, &bank, &geom, scr, n, oy, ow, emit),
                    ),
                }
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
        }
        Ok(())
    }

    /// Every `(i, j, ch)` of a square `kernel`-tap, `c`-channel window.
    fn taps(kernel: usize, c: usize) -> impl Iterator<Item = (usize, usize, usize)> {
        (0..kernel * kernel * c).map(move |t| (t / (kernel * c), t / c % kernel, t % c))
    }

    fn dense_case<W: BitWord>(features: usize, k: usize, seed: u64) -> Result<(), TestCaseError> {
        let mut rng = seed;
        let input = random_bits::<W>(Shape4::new(3, 1, 1, features), &mut rng);
        let weights = random_filters::<W>(FilterShape::new(k, 1, 1, features), 64, &mut rng);
        let fused = FusedBn {
            xi: (0..k)
                .map(|i| (next(&mut rng) % 9) as f32 - 4.0 + 0.5 * (i % 2) as f32)
                .collect(),
            gamma_pos: (0..k).map(|_| next(&mut rng) & 1 == 1).collect(),
        };
        let portable = same_on_every_tier(|tier| {
            let mut out = BitTensor::<W>::zeros(Shape4::new(3, 1, 1, k));
            match tier {
                None => compute_dense_bin(&input, &weights, &fused, &mut out),
                Some(tier) => run_on(
                    tier,
                    #[inline(always)]
                    || compute_dense_bin_portable(&input, &weights, &fused, &mut out),
                ),
            }
            out
        })?;
        prop_assert!(portable.tail_is_clean());
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
        // Bit for bit: outputs are compared as their `u32` patterns.
        let portable = same_on_every_tier(|tier| {
            let mut out = Tensor::from_fn(os, |_, _, _, _| f32::NAN);
            match tier {
                None => compute_fconv(&input, &filters, &bias, act, &geom, &mut out),
                Some(tier) => {
                    for (row_idx, row) in out.as_mut_slice().chunks_exact_mut(ow * k).enumerate() {
                        let (n, oy) = (row_idx / oh, row_idx % oh);
                        let pixels = input.as_slice();
                        run_on(
                            tier,
                            #[inline(always)]
                            || fconv_row(pixels, shape, &filters, &bias, act, &geom, n, oy, row),
                        );
                    }
                }
            }
            out.as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })?;
        // And right: an `f64` direct convolution, to 1e-5 of the magnitude
        // summed.
        for (at, &got) in portable.iter().enumerate() {
            let (n, oy, ox, kk) = (at / (oh * ow * k), at / (ow * k) % oh, at / k % ow, at % k);
            let (mut sum, mut magnitude) = (f64::from(bias[kk]), f64::from(bias[kk].abs()));
            for (i, j, ch) in taps(kernel, c) {
                let (iy, ix) = (oy * stride + i, ox * stride + j);
                if (pad..h + pad).contains(&iy) && (pad..w + pad).contains(&ix) {
                    let product = f64::from(input.at(n, iy - pad, ix - pad, ch))
                        * f64::from(filters.at(kk, i, j, ch));
                    sum += product;
                    magnitude += product.abs();
                }
            }
            let expect = f64::from(act.apply(sum as f32));
            let got = f64::from(f32::from_bits(got));
            prop_assert!(
                (got - expect).abs() <= 1e-5 * magnitude.max(1.0),
                "n {n} oy {oy} ox {ox} k {kk}: {got} vs {expect}"
            );
        }
        Ok(())
    }

    // Each property enters the one generic driver on every tier the CPU has
    // and through the public dispatched entry, at all four word widths, and
    // compares each against the portable tier. On a CPU (or target) whose
    // only tier is `portable` the tests are vacuous; everywhere else they
    // compare different instruction streams.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn dispatched_conv_row_equals_portable(
            h in 1usize..6,
            w in 1usize..7,
            c_extra in 0usize..64,
            k in 1usize..11,
            kernel in prop::sample::select(vec![1usize, 3]),
            stride in 1usize..3,
            // pad 2 under a 3x3 kernel on a 1-pixel-high input leaves only
            // border rows.
            pad in 0usize..3,
            seed in any::<u64>(),
        ) {
            conv_row_case::<u8>(h, w, c_extra, k, kernel, stride, pad, seed)?;
            conv_row_case::<u16>(h, w, c_extra, k, kernel, stride, pad, seed)?;
            conv_row_case::<u32>(h, w, c_extra, k, kernel, stride, pad, seed)?;
            conv_row_case::<u64>(h, w, c_extra, k, kernel, stride, pad, seed)?;
        }

        #[test]
        fn dispatched_tile_filters_equals_portable(
            rows in 1usize..3,
            taps in 1usize..10,
            tap_words in 1usize..4,
            k in 1usize..12,
            seed in any::<u64>(),
        ) {
            tile_filters_case::<u8>(rows, taps, tap_words, k, seed)?;
            tile_filters_case::<u16>(rows, taps, tap_words, k, seed)?;
            tile_filters_case::<u32>(rows, taps, tap_words, k, seed)?;
            tile_filters_case::<u64>(rows, taps, tap_words, k, seed)?;
        }

        #[test]
        fn dispatched_bitplane_row_equals_portable(
            // One-pixel-high and one-pixel-wide images included.
            h in 1usize..7,
            w in 1usize..8,
            // 70 channels: two words per pixel at `u64`, nine at `u8`.
            c in prop::sample::select(vec![1usize, 3, 4, 13, 70]),
            // Up to two full filter groups and a tail.
            k in 1usize..20,
            kernel in prop::sample::select(vec![1usize, 3, 5]),
            stride in 1usize..3,
            // Up to `pad > kernel / 2`: windows wholly in padding.
            pad in 0usize..4,
            seed in any::<u64>(),
        ) {
            bitplane_row_case::<u8>(h, w, c, k, kernel, stride, pad, seed)?;
            bitplane_row_case::<u16>(h, w, c, k, kernel, stride, pad, seed)?;
            bitplane_row_case::<u32>(h, w, c, k, kernel, stride, pad, seed)?;
            bitplane_row_case::<u64>(h, w, c, k, kernel, stride, pad, seed)?;
        }

        // AlexNet's conv1 geometry: 363-bit windows, six words at `u64`,
        // sliding 132 stream bits per output column.
        #[test]
        fn dispatched_bitplane_row_equals_portable_11x11_stride_4(
            h in 11usize..16,
            w in 11usize..24,
            k in 1usize..20,
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
            k in 1usize..7,
            kernel in prop::sample::select(vec![1usize, 3]),
            stride in 1usize..3,
            pad in 0usize..3,
            seed in any::<u64>(),
        ) {
            fconv_case(h, w, c, k, kernel, stride, pad, seed)?;
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
