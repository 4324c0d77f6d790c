//! First-layer kernels: bit-plane split and the streamed, filters-as-lanes
//! bit-plane convolution (Eqn 2).
//!
//! The first convolution layer receives 8-bit integer images. Following
//! §III-B, the input is split into 8 bit-planes and the output accumulates
//! `s = Σ_n 2^(n−1) <I_n · W>` where each `<·>` is a `{0,1} × {±1}` binary
//! convolution computed with masked popcounts. The split and recombination
//! are the extra work behind conv1's lower speedup in Fig 5.
//!
//! This is the phone's kernel, and its cost profiles are what the plan
//! models. The engine computes the same sums on the host as a byte dot
//! ([`super::bytedot`]); `bitplane_row` backs the entries below and is the
//! oracle the byte dot is tested against.
//!
//! A first layer has few channels (3 for every zoo model), so a kernel that
//! walks taps spends its time on bounds checks and on popcounts of words
//! that are almost all padding. `bitplane_row`, the one Eqn (2) loop behind
//! [`compute_bitplane_conv_fused`], [`bitplane_conv_accum`] and the fused
//! first-layer chain, instead does the paper's "bit packing with
//! vectorization" a second time, across the window *and* across filters,
//! on 32-bit words (a 3×3 RGB window is 27 bits) whatever word the planes,
//! the filters and the output are packed at:
//!
//! 1. **What is streamed.** Once per output row, the `kh` input rows under
//!    it are OR-ed into one dense bit stream per plane (`PlaneStream`):
//!    padded column `x`'s `kh·c` bits sit at stream bit `x·kh·c`, row `i`
//!    of the column at `i·c` inside that, the eight planes side by side as
//!    `[u32; 8]` per stream word — the shape of a [`BitPlanes`] pixel word,
//!    which goes in with one widening load, a shift and an OR. Nothing is
//!    gathered per pixel: adjacent windows share `kw − stride` columns of
//!    the same stream words, and adjacent *rows* share `kh − stride` input
//!    rows, so a worker moving one output row down rolls the stream — one
//!    shift by `stride·c` bits and a mask — and ORs in only the `stride`
//!    new rows. The scratch is one stream row plus one window, owned by the
//!    worker for the whole dispatch.
//! 2. **Bit order.** Every receptive window is one contiguous run —
//!    `kh·kw·c` bits from bit `ox·stride_w·kh·c` — so a window word is a
//!    funnel shift of two stream words, and tap `(i, j)` channel `ch` is
//!    window bit `(j·kh + i)·c + ch`: column-major, no per-tap padding.
//!    [`LaneBank::column_major`] lays the filters out in that order once at
//!    stage time, for any `c` and any kernel size — a window that fits one
//!    word is the one-word case of the same loops.
//! 3. **Lanes are filters.** `{0,1} × {±1}` is `2·popcount(a & w) −
//!    popcount(a)` ([`phonebit_tensor::bits::dot_u1_pm1`]), and the second
//!    term, `T = Σ_n 2^n·popcount(win_n)`, is computed once per pixel. The
//!    bank ([`PlaneBank`]) interleaves sixteen adjacent filters per window
//!    word, so Eqn (2) over a filter group is `acc += popcount(splat(win_n)
//!    & bank) << n`, one 16-lane `and` + popcount per (plane, window word),
//!    summed over planes as a tree of pairs (a chain LLVM may vectorise
//!    across planes, 2× slower); `s = 2·acc − T` leaves in one store and is
//!    decided in its lanes by integer cuts, one OR per output word.
//! 4. **Why padding needs no special case.** The stream starts all-zero
//!    and only in-bounds rows and columns are OR-ed in, so an out-of-bounds
//!    tap is a run of 0 bits: it adds nothing to `popcount(win & f)` or to
//!    `T`, which is what zero padding of a `u8` image means — no
//!    interior/border split, no padding-correction table; a window wholly
//!    in padding yields `s_k = 0`.

use phonebit_gpusim::exec::par_chunks_mut_with;
use phonebit_gpusim::queue::CommandQueue;
use phonebit_gpusim::KernelProfile;
use phonebit_tensor::bitplane::BitPlanes;
use phonebit_tensor::bits::{BitTensor, BitWord, PackedFilters};
use phonebit_tensor::lanes::LaneBank;
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Layout, Shape4};
use phonebit_tensor::tensor::Tensor;

use crate::fuse::{AccumSink, BitSink, FusedBn, PlaneCuts, PlaneSink};
use crate::kernels::{isa, profiles};
use crate::workload::WorkloadPolicy;

/// Filters per group of a first-layer bank: one 512-bit vector of `u32`s.
pub(crate) const PLANE_LANES: usize = 16;

/// The widest window, in bits, whose sums' span `2·255·bits + 1` fits `i32`.
pub const MAX_WINDOW_BITS: usize = (i32::MAX as usize - 1) / 510;

/// A first layer's staged filters: [`LaneBank::column_major`] rows of `u32`
/// words, sixteen filters per group.
pub type PlaneBank = LaneBank<u32, PLANE_LANES>;

/// Dispatches the §III-B bit-plane split of `input` into `planes`' storage.
pub fn bitplane_split_into<W: BitWord>(
    q: &mut CommandQueue,
    input: &Tensor<u8>,
    planes: &mut BitPlanes<W>,
) {
    let s = input.shape();
    let profile = profiles::bitplane_split(s.pixels(), s.c);
    q.launch(profile, || planes.split_from(input));
}

/// A worker's scratch for [`bitplane_row`]: the plane stream of the output
/// row in flight (one spare word past its end for the funnel shift) and one
/// extracted window, each word the eight planes side by side, LSB first.
#[derive(Debug)]
pub(crate) struct PlaneStream {
    stream: Vec<[u32; 8]>,
    window: Vec<[u32; 8]>,
    /// The `(image, output row)` the stream holds, so the next row down
    /// rolls it instead of rebuilding it.
    holds: Option<(usize, usize)>,
    /// Per stream word, the bits that survive a roll: every column's rows
    /// the next output row still covers. Empty when `stride_h >= kh`.
    kept: Vec<u32>,
}

impl PlaneStream {
    /// Scratch for `bank`'s windows sliding over `input_w`-pixel rows.
    pub(crate) fn new(bank: &PlaneBank, geom: &ConvGeometry, input_w: usize) -> Self {
        let (kh, c) = (bank.shape().kh, bank.shape().c);
        let stream_bits = (input_w + 2 * geom.pad_w) * kh * c;
        let stream_words = stream_bits.div_ceil(32) + 1;
        let mut kept = Vec::new();
        if geom.stride_h < kh {
            kept.resize(stream_words, 0);
            for column in (0..stream_bits).step_by(kh * c) {
                for bit in column..column + (kh - geom.stride_h) * c {
                    kept[bit / 32] |= 1 << (bit % 32);
                }
            }
        }
        Self {
            stream: vec![[0; 8]; stream_words],
            window: vec![[0; 8]; bank.row_words()],
            holds: None,
            kept,
        }
    }
}

/// Bits `shift..shift + 32` of the 2-word run `lo, hi`, per plane.
#[inline(always)]
fn funnel(lo: [u32; 8], hi: [u32; 8], shift: usize) -> [u32; 8] {
    let mut out = lo;
    for (bits, hi) in out.iter_mut().zip(hi) {
        // `hi << (32 − shift)` in two steps, so `shift == 0` shifts
        // everything out instead of overflowing.
        *bits = *bits >> shift | hi << 1 << (31 - shift);
    }
    out
}

/// Runs the streamed Eqn (2) convolution over one output row, handing
/// `sink` the sums `s` of filters `k0..k0 + 16` at output column `ox` as
/// `put_sums(ox, k0, k, s)`, `k` the bank's filter count.
///
/// `scratch` is a [`PlaneStream`] built for the same bank, geometry and
/// input width. The sink decides what an output *is* — fused binarize+pack
/// bits or raw `i32`s — and `P` is whatever word the planes were split at,
/// so this one loop serves every first-layer kernel (module docs).
#[allow(clippy::too_many_arguments)]
pub(crate) fn bitplane_row<P: BitWord>(
    planes: &BitPlanes<P>,
    bank: &PlaneBank,
    geom: &ConvGeometry,
    scratch: &mut PlaneStream,
    n: usize,
    oy: usize,
    ow: usize,
    sink: &mut impl PlaneSink,
) {
    isa::run(
        #[inline(always)]
        || {
            let s = planes.shape();
            let (kh, k_total) = (bank.shape().kh, bank.shape().k);
            let col_bits = kh * s.c;
            let wpp = planes.words_per_pixel();
            let PlaneStream {
                stream,
                window,
                holds,
                kept,
            } = scratch;
            // Stream. One row down from the row it holds, the stream is
            // rolled: shifting it `stride_h` rows' worth of bits moves every
            // column's surviving rows to the bottom of the column (and the
            // next column's into its top, which `kept` clears), leaving
            // `stride_h` fresh rows to fill. Anywhere else it starts over
            // from zero.
            let rolled = *holds == Some((n, oy.wrapping_sub(1))) && !kept.is_empty();
            *holds = Some((n, oy));
            let fresh = if rolled {
                let by = geom.stride_h * s.c;
                let (skip, shift) = (by / 32, by % 32);
                for word in 0..stream.len() {
                    let lo = *stream.get(word + skip).unwrap_or(&[0; 8]);
                    let hi = *stream.get(word + skip + 1).unwrap_or(&[0; 8]);
                    stream[word] = funnel(lo, hi, shift).map(|bits| bits & kept[word]);
                }
                kh - geom.stride_h..kh
            } else {
                stream.fill([0; 8]);
                0..kh
            };
            // OR each fresh in-bounds input row into its slot of every
            // column, eight planes at a time, a stream word's worth of a
            // pixel word per step; padding rows and columns stay 0.
            let step = P::BITS.min(32);
            for i in fresh {
                let iy = oy * geom.stride_h + i;
                if iy < geom.pad_h || iy - geom.pad_h >= s.h {
                    continue;
                }
                let row = (n * s.h + iy - geom.pad_h) * s.w * wpp;
                let row = &planes.words()[row..row + s.w * wpp];
                for (x, pixel) in row.chunks_exact(wpp).enumerate() {
                    let column = (x + geom.pad_w) * col_bits + i * s.c;
                    for from in (0..s.c).step_by(step) {
                        let mut bits = [0u32; 8];
                        for (bits, plane) in bits.iter_mut().zip(pixel[from / P::BITS]) {
                            *bits = (plane.widen() >> (from % P::BITS)) as u32;
                        }
                        let (word, shift) = ((column + from) / 32, (column + from) % 32);
                        for (dst, bits) in stream[word].iter_mut().zip(bits) {
                            *dst |= bits << shift;
                        }
                        // The channels' valid bits straddle a stream word.
                        if shift + (s.c - from).min(step) > 32 {
                            for (dst, bits) in stream[word + 1].iter_mut().zip(bits) {
                                *dst |= bits >> (32 - shift);
                            }
                        }
                    }
                }
            }

            let words = bank.row_words();
            let tail_mask = u32::low_mask(geom.kw * col_bits - (words - 1) * 32);
            for ox in 0..ow {
                // Window: `words` funnel shifts of the run starting at this
                // column's stream bit, the bits past the window's end cleared.
                let at = ox * geom.stride_w * col_bits;
                let (first, shift) = (at / 32, at % 32);
                for (t, win) in window.iter_mut().enumerate() {
                    *win = funnel(stream[first + t], stream[first + t + 1], shift);
                }
                for bits in window[words - 1].iter_mut() {
                    *bits &= tail_mask;
                }
                // The filter-independent half, once per pixel: the planes'
                // popcounts side by side, weighted once.
                let mut ones = [0u32; 8];
                for win in window.iter() {
                    isa::lanes_not_words();
                    for (count, bits) in ones.iter_mut().zip(win) {
                        *count += bits.popcount();
                    }
                }
                let mut total = 0;
                for (p, count) in ones.iter().enumerate() {
                    total += (count << p) as i32;
                }
                // Eqn (2), a filter group per pass: lane `l` sums filter `l`'s
                // masked popcounts, plane `p` weighted `2^p`, a tree of pairs.
                for g in 0..bank.groups() {
                    let mut acc = [0u32; PLANE_LANES];
                    for (win, filt) in window.iter().zip(bank.group(g)) {
                        isa::lanes_not_words();
                        for (a, &f) in acc.iter_mut().zip(filt) {
                            let mut c = [0u32; 8];
                            for (c, bits) in c.iter_mut().zip(win) {
                                *c = (bits & f).popcount();
                            }
                            let high = c[4] + (c[5] << 1) + ((c[6] + (c[7] << 1)) << 2);
                            *a += c[0] + (c[1] << 1) + ((c[2] + (c[3] << 1)) << 2) + (high << 4);
                        }
                    }
                    let mut sums = [0i32; PLANE_LANES];
                    for (sum, a) in sums.iter_mut().zip(acc) {
                        *sum = 2 * a as i32 - total;
                    }
                    // One 16-lane store: the sink reads whole lanes back.
                    std::hint::black_box(&mut sums);
                    sink.put_sums(ox, g * PLANE_LANES, k_total, &sums);
                }
            }
        },
    )
}

/// The output shape and cost profile of a first layer of filters `fs`
/// convolved over an 8-bit input of shape `s`.
pub(crate) fn conv_profile(
    s: Shape4,
    fs: FilterShape,
    geom: &ConvGeometry,
) -> (Shape4, KernelProfile) {
    assert_eq!(
        s.c, fs.c,
        "plane channels {} != filter channels {}",
        s.c, fs.c
    );
    let (oh, ow) = geom.output_hw(s.h, s.w);
    let policy = WorkloadPolicy::for_channels(s.c);
    let profile = profiles::bitplane_conv_fused(s.n * oh * ow, fs.k, s.c, geom, &policy);
    (Shape4::new(s.n, oh, ow, fs.k), profile)
}

/// Functional body of the fused bit-plane convolution: one row task per
/// output row, the plane-stream scratch owned by the worker. Output bits
/// are OR-ed in — `out` must come in zeroed, as
/// [`bitplane_conv_fused_into`] resets it.
pub fn compute_bitplane_conv_fused<P: BitWord, W: BitWord>(
    planes: &BitPlanes<P>,
    bank: &PlaneBank,
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let os = out.shape();
    let (oh, ow) = (os.h, os.w);
    let wpp = out.words_per_pixel();
    let cuts = PlaneCuts::new(fused, bank.shape().filter_len());
    par_chunks_mut_with(
        out.as_mut_words(),
        ow * wpp,
        || PlaneStream::new(bank, geom, planes.shape().w),
        |scratch, row_idx, row_span| {
            let (n, oy) = (row_idx / oh, row_idx % oh);
            let mut sink = BitSink::new(&cuts, row_span, wpp);
            bitplane_row(planes, bank, geom, scratch, n, oy, ow, &mut sink);
        },
    );
}

/// Dispatches the fused first-layer convolution — Eqn (2) accumulation +
/// batch-norm + binarize + pack — into `out` (reset to the output shape),
/// reusing its storage. Interleaves `filters` and derives the cuts on every
/// call: the engine runs the first layer as a byte dot
/// ([`super::bytedot`]) on a bank and cuts staged once.
///
/// # Panics
///
/// Panics on channel mismatches, when `fused.len() != filters.shape().k`,
/// or on windows wider than [`MAX_WINDOW_BITS`].
pub fn bitplane_conv_fused_into<P: BitWord, W: BitWord>(
    q: &mut CommandQueue,
    planes: &BitPlanes<P>,
    filters: &PackedFilters<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let bank = PlaneBank::column_major(filters);
    let (os, profile) = conv_profile(planes.shape(), bank.shape(), geom);
    assert_eq!(fused.len(), os.c, "fusion params must cover every filter");
    out.reset(os);
    q.launch(profile, || {
        compute_bitplane_conv_fused(planes, &bank, fused, geom, out)
    });
}

/// Dispatches the first-layer convolution producing raw integer
/// accumulators (for tests and for heads that need real values).
pub fn bitplane_conv_accum<P: BitWord, W: BitWord>(
    q: &mut CommandQueue,
    planes: &BitPlanes<P>,
    filters: &PackedFilters<W>,
    geom: &ConvGeometry,
) -> Tensor<i32> {
    let bank = &PlaneBank::column_major(filters);
    let (os, mut profile) = conv_profile(planes.shape(), bank.shape(), geom);
    let mut out = Tensor::<i32>::zeros(os, Layout::Nhwc);
    profile.name = "bitplane_conv_accum";
    let k_total = os.c;
    let (oh, ow) = (os.h, os.w);
    q.launch(profile, || {
        par_chunks_mut_with(
            out.as_mut_slice(),
            ow * k_total,
            || PlaneStream::new(bank, geom, planes.shape().w),
            |scratch, row_idx, row| {
                let (n, oy) = (row_idx / oh, row_idx % oh);
                let mut sink = AccumSink {
                    row,
                    channels: k_total,
                };
                bitplane_row(planes, bank, geom, scratch, n, oy, ow, &mut sink);
            },
        );
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_gpusim::{DeviceProfile, ExecutorClass};
    use phonebit_tensor::pack::{pack_filters, unpack_f32};
    use phonebit_tensor::tensor::Filters;

    use crate::fuse::BnParams;

    fn queue() -> CommandQueue {
        CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
    }

    fn image(shape: Shape4) -> Tensor<u8> {
        Tensor::from_fn(shape, |n, h, w, c| {
            ((n * 157 + h * 83 + w * 19 + c * 7) % 256) as u8
        })
    }

    fn pm1_filters(shape: FilterShape) -> Filters {
        Filters::from_fn(shape, |k, i, j, c| {
            if (k + i * 2 + j + c) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        })
    }

    /// Integer reference: direct u8 x (+-1) convolution with zero padding.
    fn reference_accum(img: &Tensor<u8>, filters: &Filters, geom: &ConvGeometry) -> Tensor<i32> {
        let s = img.shape();
        let fs = filters.shape();
        let (oh, ow) = geom.output_hw(s.h, s.w);
        Tensor::from_fn(Shape4::new(s.n, oh, ow, fs.k), |n, oy, ox, k| {
            let mut acc = 0i32;
            for i in 0..fs.kh {
                for j in 0..fs.kw {
                    let iy = (oy * geom.stride_h + i) as isize - geom.pad_h as isize;
                    let ix = (ox * geom.stride_w + j) as isize - geom.pad_w as isize;
                    if iy >= 0 && (iy as usize) < s.h && ix >= 0 && (ix as usize) < s.w {
                        for c in 0..fs.c {
                            acc += img.at(n, iy as usize, ix as usize, c) as i32
                                * filters.at(k, i, j, c) as i32;
                        }
                    }
                }
            }
            acc
        })
    }

    #[test]
    fn accum_matches_integer_reference() {
        let img = image(Shape4::new(1, 6, 6, 3));
        let f = pm1_filters(FilterShape::new(4, 3, 3, 3));
        let geom = ConvGeometry::square(3, 1, 1);
        let mut q = queue();
        let planes = BitPlanes::<u8>::split(&img);
        let got = bitplane_conv_accum(&mut q, &planes, &pack_filters::<u8>(&f), &geom);
        let expect = reference_accum(&img, &f, &geom);
        assert_eq!(got.as_slice(), expect.as_slice());
    }

    #[test]
    fn accum_matches_reference_with_stride() {
        let img = image(Shape4::new(2, 9, 9, 3));
        let f = pm1_filters(FilterShape::new(8, 3, 3, 3));
        let geom = ConvGeometry::square(3, 2, 0);
        let mut q = queue();
        let planes = BitPlanes::<u64>::split(&img);
        let got = bitplane_conv_accum(&mut q, &planes, &pack_filters::<u64>(&f), &geom);
        assert_eq!(got.as_slice(), reference_accum(&img, &f, &geom).as_slice());
    }

    #[test]
    fn fused_matches_accum_then_threshold() {
        let img = image(Shape4::new(1, 8, 8, 3));
        let f = pm1_filters(FilterShape::new(16, 3, 3, 3));
        let geom = ConvGeometry::square(3, 1, 1);
        let bn = BnParams {
            gamma: (0..16)
                .map(|i| if i % 4 == 0 { -1.0 } else { 0.8 })
                .collect(),
            beta: (0..16).map(|i| i as f32 * 0.05).collect(),
            mu: (0..16).map(|i| 100.0 + i as f32 * 10.0).collect(),
            sigma: vec![50.0; 16],
        };
        let bias = vec![0.5; 16];
        let fused = FusedBn::precompute(&bn, &bias);

        let mut q = queue();
        let planes = BitPlanes::<u64>::split(&img);
        let packed_f = pack_filters::<u64>(&f);
        let mut bits = BitTensor::<u64>::zeros(Shape4::new(0, 0, 0, 0));
        bitplane_conv_fused_into(&mut q, &planes, &packed_f, &fused, &geom, &mut bits);
        let accum = bitplane_conv_accum(&mut q, &planes, &packed_f, &geom);

        let got = unpack_f32(&bits);
        let s = accum.shape();
        for n in 0..s.n {
            for h in 0..s.h {
                for w in 0..s.w {
                    #[allow(clippy::needless_range_loop)] // c indexes both tensors and bias
                    for c in 0..s.c {
                        let x3 = bn.apply(c, accum.at(n, h, w, c) as f32 + bias[c]);
                        let expect = if x3 >= 0.0 { 1.0 } else { -1.0 };
                        assert_eq!(got.at(n, h, w, c), expect, "at ({n},{h},{w},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn every_group_length_leaves_whole() {
        // One lane, a ragged half group, exactly half, half and a tail, a
        // ragged whole, exactly one, one and a tail, one and a half, two
        // and a half — into output words a group fits and (`u8`) does not.
        let img = image(Shape4::new(2, 5, 7, 3));
        let geom = ConvGeometry::square(3, 1, 1);
        for k in [1, 7, 8, 9, 15, 16, 17, 24, 40] {
            let f = pm1_filters(FilterShape::new(k, 3, 3, 3));
            let fused = FusedBn {
                xi: (0..k).map(|i| (i as f32 - 3.0) * 40.0).collect(),
                gamma_pos: (0..k).map(|i| i % 3 != 0).collect(),
            };
            let mut q = queue();
            let planes = BitPlanes::<u8>::split(&img);
            let accum = bitplane_conv_accum(&mut q, &planes, &pack_filters::<u64>(&f), &geom);
            assert_eq!(accum, reference_accum(&img, &f, &geom), "k={k}");
            let mut wide = BitTensor::<u64>::zeros(Shape4::new(0, 0, 0, 0));
            let mut bytes = BitTensor::<u8>::zeros(Shape4::new(0, 0, 0, 0));
            let (f64s, f8s) = (pack_filters::<u64>(&f), pack_filters::<u8>(&f));
            bitplane_conv_fused_into(&mut q, &planes, &f64s, &fused, &geom, &mut wide);
            bitplane_conv_fused_into(&mut q, &planes, &f8s, &fused, &geom, &mut bytes);
            assert!(wide.tail_is_clean() && bytes.tail_is_clean());
            for ((n, y, x, c), acc) in accum.iter_indexed() {
                let expect = fused.decide_logic(c, acc as f32);
                assert_eq!(wide.get_bit(n, y, x, c), expect, "k={k} ({n},{y},{x},{c})");
                assert_eq!(bytes.get_bit(n, y, x, c), expect, "k={k} ({n},{y},{x},{c})");
            }
        }
    }

    #[test]
    fn split_kernel_is_on_timeline() {
        let img = image(Shape4::new(1, 4, 4, 3));
        let mut q = queue();
        let mut planes = BitPlanes::<u8>::empty(img.shape());
        bitplane_split_into(&mut q, &img, &mut planes);
        assert_eq!(q.timeline().len(), 1);
        assert_eq!(q.timeline()[0].stats.name, "bitplane_split");
        assert_eq!(planes.reconstruct(), img);
    }

    #[test]
    fn zero_image_gives_zero_accum() {
        let img = Tensor::<u8>::zeros(Shape4::new(1, 4, 4, 3), Layout::Nhwc);
        let f = pm1_filters(FilterShape::new(2, 3, 3, 3));
        let mut q = queue();
        let planes = BitPlanes::<u32>::split(&img);
        let accum = bitplane_conv_accum(
            &mut q,
            &planes,
            &pack_filters::<u32>(&f),
            &ConvGeometry::square(3, 1, 1),
        );
        assert!(accum.as_slice().iter().all(|&v| v == 0));
    }
}
