//! Binary convolution kernels.
//!
//! Three kernels implement the paper's binary convolution paths:
//!
//! - [`bconv_fused`] — the flagship integrated operator: binary convolution
//!   with batch-norm + binarization + channel packing in one kernel (§V-B,
//!   Fig 4). Output is a packed [`BitTensor`].
//! - [`bconv_accum`] — convolution only, producing an `i32` accumulator
//!   tensor: the fallback when channels exceed the private-memory limit,
//!   and the reference path for the fusion ablation.
//! - [`binarize_pack`] — the standalone binarize+pack pass that follows
//!   [`bconv_accum`] on the unfused path. It decides Eqn 9 by its
//!   definition, [`FusedBn::decide_logic`], where the fused kernels decide
//!   by integer cuts on their lanes — so every fused-vs-unfused equality
//!   test checks the cuts against Eqn 9 itself.
//!
//! Both direct kernels run on the **tiled hot path** of
//! [`crate::kernels::tiled`]: windows read from a zero-padded row ring once
//! for all filters and the lanes-are-outputs microkernel over a bank staged once
//! ([`LaneBank`] and its cuts; the `FilterAccess`-taking entries stage per
//! call) — except a thin 3×3 layer the CPU runs at its packing width
//! ([`DirectBank::Taps`], [`crate::kernels::taps`]). The
//! seed per-tap kernel survives as
//! [`compute_bconv_fused_reference`] — the bit-exactness oracle and the
//! "before" side of `bench_bconv` — over [`window_dot`], a scalar
//! [`dot_pm1`] per tap.
//!
//! Padding semantics: out-of-bounds activation bits are 0, i.e. −1 (a packed
//! word has no encoding for a true zero); tests validate fused-vs-reference
//! equality against a float input padded with −1.

use phonebit_gpusim::exec::{par_chunks_mut, par_chunks_mut_with};
use phonebit_gpusim::queue::CommandQueue;
use phonebit_tensor::bits::{dot_pm1, BitTensor, BitWord};
use phonebit_tensor::dict::FilterAccess;
use phonebit_tensor::lanes::LaneBank;
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Layout, Shape4};
use phonebit_tensor::tensor::Tensor;

use crate::fuse::{AccumSink, FusedBn};
use crate::kernels::profiles;
use crate::kernels::taps::{TapBank, TapRing};
use crate::kernels::tiled::{conv_row_tiled, FusedLanes, RowRing};
use crate::workload::WorkloadPolicy;

/// Validates the shape agreement of a binary convolution and returns the
/// output shape `(n, oh, ow, k)`.
///
/// # Panics
///
/// Panics when input channels disagree with filter channels.
fn conv_output_shape<W: BitWord>(
    input: &BitTensor<W>,
    fs: FilterShape,
    geom: &ConvGeometry,
) -> Shape4 {
    let s = input.shape();
    assert_eq!(
        s.c, fs.c,
        "input channels {} != filter channels {}",
        s.c, fs.c
    );
    assert_eq!(
        geom.kh, fs.kh,
        "geometry kh {} != filter kh {}",
        geom.kh, fs.kh
    );
    assert_eq!(
        geom.kw, fs.kw,
        "geometry kw {} != filter kw {}",
        geom.kw, fs.kw
    );
    let (oh, ow) = geom.output_hw(s.h, s.w);
    Shape4::new(s.n, oh, ow, fs.k)
}

/// Raw binary dot product of one convolution window against one filter:
/// `x1 = kh*kw*C − 2·disagreements` (Eqn 1 summed over taps). Out-of-bounds
/// taps read all-zero words (−1 inputs): a tap of filter words `w`
/// contributes `c − 2·popcount(w)`.
#[inline]
pub fn window_dot<W: BitWord>(
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    geom: &ConvGeometry,
    n: usize,
    oy: usize,
    ox: usize,
    k: usize,
) -> i32 {
    let s = input.shape();
    let c = filters.shape().c;
    let mut x1 = 0;
    for i in 0..geom.kh {
        let iy = (oy * geom.stride_h + i) as isize - geom.pad_h as isize;
        for j in 0..geom.kw {
            let ix = (ox * geom.stride_w + j) as isize - geom.pad_w as isize;
            let w_span = filters.tap_words(k, i, j);
            x1 += if iy >= 0 && (iy as usize) < s.h && ix >= 0 && (ix as usize) < s.w {
                dot_pm1(input.pixel_words(n, iy as usize, ix as usize), w_span, c)
            } else {
                c as i32 - 2 * w_span.iter().map(|w| w.popcount()).sum::<u32>() as i32
            };
        }
    }
    x1
}

/// A fused direct binary convolution's filters and cuts, staged once for
/// the body that runs them: the tiled body's lanes, or — a thin 3×3 layer
/// [`TapBank::fits`] admits — one pixel per lane at its packing width.
#[derive(Debug, Clone, PartialEq)]
pub enum DirectBank<W: BitWord> {
    /// The tiled body's interleaved lanes and cuts.
    Lanes(FusedLanes<W>),
    /// A thin layer's tap lanes ([`crate::kernels::taps`]).
    Taps(TapBank),
}

impl<W: BitWord> DirectBank<W> {
    /// Stages `filters` with `fused`'s cuts for the body that runs them on
    /// this CPU: taps where the direct fused route's geometry `direct`
    /// [`fits`](TapBank::fits) and either the lanes are not shared or the
    /// layer has at most 64 filters, else the tiled lanes (every other
    /// route). Probed at `C` = 16 and 32 with 13–32 distinct filters, the
    /// shared lanes ran at 0.34–0.84× the taps' speed up to 64 filters (7 of
    /// 8 shapes) and at 0.95–3.0× from 128 filters on.
    pub fn new(
        filters: &impl FilterAccess<W>,
        fused: &FusedBn,
        direct: Option<&ConvGeometry>,
    ) -> Self {
        let lanes = FusedLanes::new(filters, fused);
        let (shape, shared) = (lanes.shape(), lanes.distinct_filters().is_some());
        match direct {
            Some(geom) if TapBank::fits(shape, geom) && (!shared || shape.k <= 64) => {
                Self::Taps(TapBank::new(filters, fused))
            }
            _ => Self::Lanes(lanes),
        }
    }

    /// A worker's scratch for output rows over an input of shape `s`.
    pub(crate) fn ring(&self, geom: &ConvGeometry, s: Shape4) -> DirectRing<'_, W> {
        match self {
            Self::Lanes(lanes) => DirectRing::Lanes(RowRing::new(geom, s), lanes),
            Self::Taps(taps) => DirectRing::Taps(TapRing::new(taps, geom, s)),
        }
    }
}

/// A worker's scratch for one dispatch over a [`DirectBank`].
pub(crate) enum DirectRing<'a, W: BitWord> {
    Lanes(RowRing<W>, &'a FusedLanes<W>),
    Taps(TapRing<'a>),
}

impl<W: BitWord> DirectRing<'_, W> {
    /// Decides output row `at` of `input` into `row`, zeroed whole pixels of
    /// `wpp` words.
    pub(crate) fn decide_row(
        &mut self,
        input: &BitTensor<W>,
        at: (usize, usize),
        row: &mut [W],
        wpp: usize,
    ) {
        match self {
            Self::Lanes(ring, lanes) => lanes.decide_row(input, ring, at, row, wpp),
            Self::Taps(ring) => ring.decide_row(input, at, row, wpp),
        }
    }
}

/// Functional body of the fused kernel, writing packed output bits.
///
/// Work decomposes by **output row**: each worker owns one ring of
/// zero-padded input rows, rolled down the image, and reads every window
/// from it once for all `K` filters of the staged `bank`, deciding Eqn (9)
/// by the cuts staged with it — `out` must come in zeroed, as
/// [`bconv_fused_into`] resets it.
pub fn compute_bconv_fused<W: BitWord>(
    input: &BitTensor<W>,
    bank: &DirectBank<W>,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let os = out.shape();
    let (ow, oh) = (os.w, os.h);
    let wpp = out.words_per_pixel();
    par_chunks_mut_with(
        out.as_mut_words(),
        ow * wpp,
        || bank.ring(geom, input.shape()),
        |ring, row_idx, row_span| {
            ring.decide_row(input, (row_idx / oh, row_idx % oh), row_span, wpp);
        },
    );
}

/// The seed (pre-tiling) fused kernel: per-output-pixel, per-filter
/// [`window_dot`] with per-tap bounds checks. Kept as the bit-exactness
/// oracle for the tiled path and as the "before" baseline in
/// `bench_bconv` / the ablation binary.
pub fn compute_bconv_fused_reference<W: BitWord>(
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let os = out.shape();
    let k_total = filters.shape().k;
    let (ow, oh) = (os.w, os.h);
    let wpp = out.words_per_pixel();
    par_chunks_mut(out.as_mut_words(), wpp, |pixel, span| {
        let n = pixel / (oh * ow);
        let rem = pixel % (oh * ow);
        let (oy, ox) = (rem / ow, rem % ow);
        // One simulated thread computes 8 filters and packs them into one
        // byte in private memory (Fig 4); the host loop packs all K.
        for k in 0..k_total {
            let x1 = window_dot(input, filters, geom, n, oy, ox, k);
            if fused.decide_logic(k, x1 as f32) {
                span[k / W::BITS] = span[k / W::BITS].with_bit(k % W::BITS, true);
            }
        }
    });
}

/// Dispatches the fused binary convolution: conv + BN + binarize + pack.
///
/// The workload policy follows §VI-B: integrated packing with 8 filters per
/// thread when `C ≤ 256`, otherwise this function still fuses numerically
/// but the engine is expected to route large-channel layers through
/// [`bconv_accum`] + [`binarize_pack`] (see `phonebit-core`).
///
/// # Panics
///
/// Panics if shapes disagree or `fused.len() != filters.k`.
pub fn bconv_fused<W: BitWord>(
    q: &mut CommandQueue,
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    fused: &FusedBn,
    geom: &ConvGeometry,
) -> BitTensor<W> {
    let mut out = BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0));
    bconv_fused_into(q, input, filters, fused, geom, &mut out);
    out
}

/// [`bconv_fused`] into a caller-provided tensor (reset to the output
/// shape), reusing its storage. Stages `filters` per call; a caller that
/// runs the layer more than once stages a [`DirectBank`] and launches
/// [`compute_bconv_fused`] over it.
pub fn bconv_fused_into<W: BitWord>(
    q: &mut CommandQueue,
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let fs = filters.shape();
    assert_eq!(fused.len(), fs.k, "fusion params must cover every filter");
    let bank = DirectBank::new(filters, fused, Some(geom));
    let os = conv_output_shape(input, fs, geom);
    out.reset(os);
    let policy = WorkloadPolicy::for_channels(input.shape().c);
    let profile = profiles::bconv_fused(os.pixels(), os.c, input.shape().c, geom, &policy)
        .discount_reads(filters.dram_discount_bytes());
    q.launch(profile, || compute_bconv_fused(input, &bank, geom, out));
}

/// Functional body of the accumulate-only kernel, on the same tiled row
/// driver as [`compute_bconv_fused`] — only the sink differs (raw `i32`
/// accumulators instead of fused binarize+pack).
pub fn compute_bconv_accum<W: BitWord>(
    input: &BitTensor<W>,
    bank: &LaneBank<W>,
    geom: &ConvGeometry,
    out: &mut Tensor<i32>,
) {
    let os = out.shape();
    let k_total = os.c;
    let (oh, ow) = (os.h, os.w);
    par_chunks_mut_with(
        out.as_mut_slice(),
        ow * k_total,
        || RowRing::new(geom, input.shape()),
        |ring, row_idx, row| {
            let mut sink = AccumSink {
                row,
                channels: k_total,
            };
            conv_row_tiled(input, bank, ring, (row_idx / oh, row_idx % oh), &mut sink);
        },
    );
}

/// Dispatches binary convolution producing raw `i32` accumulators (the
/// unfused / large-channel path).
pub fn bconv_accum<W: BitWord>(
    q: &mut CommandQueue,
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    geom: &ConvGeometry,
) -> Tensor<i32> {
    let mut out = Tensor::<i32>::zeros(Shape4::new(0, 0, 0, 0), Layout::Nhwc);
    bconv_accum_into(q, input, filters, geom, &mut out);
    out
}

/// [`bconv_accum`] into a caller-provided accumulator (reset to the output
/// shape in NHWC), reusing its storage. Stages `filters` per call, like
/// [`bconv_fused_into`].
pub fn bconv_accum_into<W: BitWord>(
    q: &mut CommandQueue,
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    geom: &ConvGeometry,
    out: &mut Tensor<i32>,
) {
    let bank = LaneBank::new(filters);
    let os = conv_output_shape(input, filters.shape(), geom);
    out.reset(os, Layout::Nhwc);
    let policy = WorkloadPolicy::for_channels(input.shape().c);
    let profile = profiles::bconv_accum(os.pixels(), os.c, input.shape().c, geom, &policy)
        .discount_reads(filters.dram_discount_bytes());
    q.launch(profile, || compute_bconv_accum(input, &bank, geom, out));
}

/// Functional body of the standalone binarize+pack kernel — Eqn 9 by its
/// definition, [`FusedBn::decide_logic`], on every accumulator.
///
/// Packs **word-at-a-time**: each output word's `W::BITS` channel
/// decisions are built in a register and stored once — the host analogue of
/// the paper's pack-in-private-memory-then-store (Fig 4). Overwrites `out`,
/// whatever it held. Requires the accumulator in NHWC so each pixel's
/// channel run is contiguous.
pub fn compute_binarize_pack<W: BitWord>(
    accum: &Tensor<i32>,
    fused: &FusedBn,
    out: &mut BitTensor<W>,
) {
    let s = accum.shape();
    assert_eq!(
        accum.layout(),
        Layout::Nhwc,
        "binarize_pack expects NHWC accumulators"
    );
    let c_total = s.c;
    let wpp = out.words_per_pixel();
    let src = accum.as_slice();
    par_chunks_mut(out.as_mut_words(), wpp, |pixel, span| {
        let accums = &src[pixel * c_total..(pixel + 1) * c_total];
        for (at, (slot, x1s)) in span.iter_mut().zip(accums.chunks(W::BITS)).enumerate() {
            *slot = x1s.iter().enumerate().fold(W::zero(), |word, (i, &x1)| {
                word.or(W::from_bit(fused.decide_logic(at * W::BITS + i, x1 as f32)).shl(i))
            });
        }
    });
}

/// Dispatches the standalone binarize+pack pass over an accumulator tensor.
///
/// # Panics
///
/// Panics if `fused.len()` differs from the accumulator channel count.
pub fn binarize_pack<W: BitWord>(
    q: &mut CommandQueue,
    accum: &Tensor<i32>,
    fused: &FusedBn,
) -> BitTensor<W> {
    let mut out = BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0));
    binarize_pack_into(q, accum, fused, &mut out);
    out
}

/// [`binarize_pack`] into a caller-provided tensor (reset to the
/// accumulator's shape), reusing its storage — the engine's arena path.
pub fn binarize_pack_into<W: BitWord>(
    q: &mut CommandQueue,
    accum: &Tensor<i32>,
    fused: &FusedBn,
    out: &mut BitTensor<W>,
) {
    let s = accum.shape();
    assert_eq!(fused.len(), s.c, "fusion params must cover every channel");
    out.reset(s);
    let profile = profiles::binarize_pack(s.pixels(), s.c);
    q.launch(profile, || compute_binarize_pack(accum, fused, out));
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_gpusim::{DeviceProfile, ExecutorClass};
    use phonebit_tensor::pack::{pack_f32, pack_filters, unpack_f32, unpack_filters};
    use phonebit_tensor::pad::pad_f32_with;
    use phonebit_tensor::shape::FilterShape;
    use phonebit_tensor::tensor::Filters;

    use crate::fuse::BnParams;

    fn queue() -> CommandQueue {
        CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
    }

    /// Float reference: conv (pad -1) -> +bias -> BN -> sign.
    fn reference_fused(
        input: &Tensor<f32>,
        filters: &Filters,
        bias: &[f32],
        bn: &BnParams,
        geom: &ConvGeometry,
    ) -> Tensor<f32> {
        let padded = pad_f32_with(input, geom.pad_h, geom.pad_w, -1.0);
        let ps = padded.shape();
        let fs = filters.shape();
        let (oh, ow) = geom.output_hw(input.shape().h, input.shape().w);
        Tensor::from_fn(Shape4::new(ps.n, oh, ow, fs.k), |n, oy, ox, k| {
            let mut acc = 0.0f32;
            for i in 0..fs.kh {
                for j in 0..fs.kw {
                    for c in 0..fs.c {
                        acc += padded.at(n, oy * geom.stride_h + i, ox * geom.stride_w + j, c)
                            * filters.at(k, i, j, c);
                    }
                }
            }
            let x3 = bn.apply(k, acc + bias[k]);
            if x3 >= 0.0 {
                1.0
            } else {
                -1.0
            }
        })
    }

    fn pm1_tensor(shape: Shape4, seed: usize) -> Tensor<f32> {
        Tensor::from_fn(shape, |n, h, w, c| {
            if (n * 7 + h * 13 + w * 29 + c * 31 + seed).is_multiple_of(3) {
                1.0
            } else {
                -1.0
            }
        })
    }

    fn pm1_filters(shape: FilterShape, seed: usize) -> Filters {
        Filters::from_fn(shape, |k, i, j, c| {
            if (k * 11 + i * 3 + j * 5 + c * 17 + seed).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            }
        })
    }

    fn test_bn(k: usize) -> (BnParams, Vec<f32>) {
        let bn = BnParams {
            gamma: (0..k)
                .map(|i| if i % 3 == 0 { -0.7 } else { 1.3 })
                .collect(),
            beta: (0..k).map(|i| (i as f32 - 2.0) * 0.11).collect(),
            mu: (0..k).map(|i| (i % 5) as f32 - 2.0).collect(),
            sigma: (0..k).map(|i| 0.5 + (i % 4) as f32 * 0.3).collect(),
        };
        let bias = (0..k).map(|i| (i % 3) as f32 - 1.0).collect();
        (bn, bias)
    }

    #[test]
    fn window_dot_matches_float_dot() {
        let shape = Shape4::new(1, 5, 5, 37);
        let fshape = FilterShape::new(4, 3, 3, 37);
        let t = pm1_tensor(shape, 0);
        let f = pm1_filters(fshape, 1);
        let bt = pack_f32::<u64>(&t);
        let pf = pack_filters::<u64>(&f);
        let geom = ConvGeometry::square(3, 1, 0);
        // Interior window, no padding.
        for k in 0..4 {
            let mut expect = 0.0f32;
            for i in 0..3 {
                for j in 0..3 {
                    for c in 0..37 {
                        expect += t.at(0, 1 + i, 2 + j, c) * f.at(k, i, j, c);
                    }
                }
            }
            assert_eq!(window_dot(&bt, &pf, &geom, 0, 1, 2, k), expect as i32);
        }
    }

    #[test]
    fn fused_equals_float_reference_with_padding() {
        for (c, k) in [(16usize, 8usize), (37, 16), (64, 24)] {
            let shape = Shape4::new(2, 6, 5, c);
            let fshape = FilterShape::new(k, 3, 3, c);
            let t = pm1_tensor(shape, c);
            let f = pm1_filters(fshape, k);
            let (bn, bias) = test_bn(k);
            let geom = ConvGeometry::square(3, 1, 1);

            let mut q = queue();
            let packed_in = pack_f32::<u64>(&t);
            let packed_f = pack_filters::<u64>(&f);
            let fused = FusedBn::precompute(&bn, &bias);
            let out = bconv_fused(&mut q, &packed_in, &packed_f, &fused, &geom);

            let expect = reference_fused(&t, &f, &bias, &bn, &geom);
            let got = unpack_f32(&out);
            assert_eq!(
                got.as_slice(),
                expect.as_slice(),
                "fused binary conv != float reference (c={c} k={k})"
            );
            assert!(out.tail_is_clean());
        }
    }

    #[test]
    fn fused_equals_accum_plus_binarize() {
        let shape = Shape4::new(1, 7, 7, 48);
        let fshape = FilterShape::new(16, 3, 3, 48);
        let t = pm1_tensor(shape, 3);
        let f = pm1_filters(fshape, 4);
        let (bn, bias) = test_bn(16);
        let fused = FusedBn::precompute(&bn, &bias);
        let geom = ConvGeometry::square(3, 2, 1);

        let packed_in = pack_f32::<u32>(&t);
        let packed_f = pack_filters::<u32>(&f);
        let mut q = queue();
        let fused_out = bconv_fused(&mut q, &packed_in, &packed_f, &fused, &geom);
        let accum = bconv_accum(&mut q, &packed_in, &packed_f, &geom);
        let unfused_out: BitTensor<u32> = binarize_pack(&mut q, &accum, &fused);
        assert_eq!(fused_out, unfused_out);
        // Timeline recorded three dispatches.
        assert_eq!(q.timeline().len(), 3);
    }

    #[test]
    fn accum_values_bounded_by_window_size() {
        let shape = Shape4::new(1, 4, 4, 8);
        let fshape = FilterShape::new(2, 3, 3, 8);
        let t = pm1_tensor(shape, 9);
        let f = pm1_filters(fshape, 2);
        let packed_in = pack_f32::<u8>(&t);
        let packed_f = pack_filters::<u8>(&f);
        let geom = ConvGeometry::square(3, 1, 1);
        let mut q = queue();
        let accum = bconv_accum(&mut q, &packed_in, &packed_f, &geom);
        let bound = 3 * 3 * 8;
        for &v in accum.as_slice() {
            assert!(v.abs() <= bound);
            // Parity: dot of +-1 vectors has the parity of the length.
            assert_eq!((v - bound).rem_euclid(2), 0);
        }
    }

    #[test]
    fn stride_and_rect_kernels() {
        // Non-square geometry exercise: 1x3 kernel, stride (1,2).
        let shape = Shape4::new(1, 3, 9, 5);
        let t = pm1_tensor(shape, 2);
        let f = pm1_filters(FilterShape::new(3, 1, 3, 5), 7);
        let geom = ConvGeometry {
            kh: 1,
            kw: 3,
            stride_h: 1,
            stride_w: 2,
            pad_h: 0,
            pad_w: 1,
        };
        let (bn, bias) = test_bn(3);
        let fused = FusedBn::precompute(&bn, &bias);
        let mut q = queue();
        let out = bconv_fused(
            &mut q,
            &pack_f32::<u16>(&t),
            &pack_filters::<u16>(&f),
            &fused,
            &geom,
        );
        let expect = reference_fused(&t, &f, &bias, &bn, &geom);
        assert_eq!(unpack_f32(&out).as_slice(), expect.as_slice());
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_panics() {
        let t = pm1_tensor(Shape4::new(1, 4, 4, 8), 0);
        let f = pm1_filters(FilterShape::new(2, 3, 3, 16), 0);
        let mut q = queue();
        let _ = bconv_accum(
            &mut q,
            &pack_f32::<u64>(&t),
            &pack_filters::<u64>(&f),
            &ConvGeometry::square(3, 1, 1),
        );
    }

    #[test]
    fn unpacked_filters_round_trip_sanity() {
        // Guards the test helpers themselves.
        let f = pm1_filters(FilterShape::new(2, 3, 3, 8), 0);
        let packed = pack_filters::<u64>(&f);
        assert_eq!(unpack_filters(&packed), f);
    }
}
