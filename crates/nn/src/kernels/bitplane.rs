//! First-layer kernels: bit-plane split and the window-packed bit-plane
//! convolution (Eqn 2).
//!
//! The first convolution layer receives 8-bit integer images. Following
//! §III-B, the input is split into 8 bit-planes and the output accumulates
//! `s = Σ_n 2^(n−1) <I_n · W>` where each `<·>` is a `{0,1} × {±1}` binary
//! convolution computed with masked popcounts. The split and recombination
//! are the extra work behind conv1's lower speedup in Fig 5.
//!
//! A first layer has few channels (3 for every zoo model), so a
//! channel-packed plane pixel carries `c` useful bits in a whole word, and a
//! kernel that walks taps spends its time on bounds checks and on popcounts
//! of words that are almost all padding. `bitplane_row`, the one Eqn (2)
//! loop behind [`compute_bitplane_conv_fused`], [`bitplane_conv_accum`] and
//! the fused first-layer chain, instead does the paper's "bit packing with
//! vectorization" a second time, across the window:
//!
//! 1. **What is gathered.** For each output pixel, once per plane, the
//!    receptive window's `kh·kw·c` plane bits are packed into
//!    `⌈kh·kw·c / W::BITS⌉` dense words: 27 bits → one `u64` for a 3×3×3
//!    conv1, 363 bits → six for AlexNet's 11×11×3. The scratch is one window
//!    — eight plane words per window word — owned by the row task, so it
//!    does not grow with the image.
//! 2. **Bit order.** Tap `(i, j)` channel `ch` is window bit
//!    `(i·kw + j)·c + ch`, with no per-tap padding. That is exactly the row
//!    layout of [`flatten_filters`], which re-packs the bank once per
//!    dispatch, so window word `t` lines up with filter word `t` for any
//!    `c`, any kernel size and any `W` — a window that fits one word is the
//!    `words == 1` case of the same loops, not a separate path.
//! 3. **What is hoisted.** `{0,1} × {±1}` is `2·popcount(a & w) −
//!    popcount(a)` ([`phonebit_tensor::bits::dot_u1_pm1`]), and the second
//!    term does not depend on the filter: `T = Σ_n 2^n·popcount(win_n)` is
//!    computed once per pixel, and each filter costs one `and` + popcount
//!    per (plane, window word): `s_k = 2·Σ_n 2^n·popcount(win_n & f_k) − T`.
//!    The eight planes of a window word sit side by side, so that inner
//!    loop has a fixed trip count of 8 and vectorizes.
//! 4. **Why padding needs no special case.** The window starts all-zero and
//!    only in-bounds taps are OR-ed in, so an out-of-bounds tap is a run of
//!    0 bits: it adds nothing to `popcount(win & f)` or to `T`, which is
//!    what zero padding of a `u8` image means. There is no interior/border
//!    split and no padding-correction table; a window wholly in padding
//!    yields `s_k = 0`.

use phonebit_gpusim::exec::par_chunks_mut;
use phonebit_gpusim::queue::CommandQueue;
use phonebit_tensor::bitplane::{combine_planes, BitPlanes};
use phonebit_tensor::bits::{BitTensor, BitWord, PackedFilters};
use phonebit_tensor::shape::{ConvGeometry, Layout, Shape4};
use phonebit_tensor::tensor::Tensor;

use crate::fuse::{BitSink, FusedBn};
use crate::kernels::bgemm::flatten_filters;
use crate::kernels::tiled::BorderSpan;
use crate::kernels::{isa, profiles};
use crate::workload::WorkloadPolicy;

/// Dispatches the bit-plane split of an 8-bit input image (§III-B).
pub fn bitplane_split<W: BitWord>(q: &mut CommandQueue, input: &Tensor<u8>) -> BitPlanes<W> {
    let mut planes = BitPlanes::<W>::empty(input.shape());
    bitplane_split_into(q, input, &mut planes);
    planes
}

/// [`bitplane_split`] into a caller-provided plane set, reusing its storage
/// — the engine's arena path.
pub fn bitplane_split_into<W: BitWord>(
    q: &mut CommandQueue,
    input: &Tensor<u8>,
    planes: &mut BitPlanes<W>,
) {
    let s = input.shape();
    let profile = profiles::bitplane_split(s.pixels(), s.c);
    q.launch(profile, || planes.split_from(input));
}

/// A zeroed gathered window matching `flat`'s rows — per window word, the
/// eight planes' words side by side (LSB plane first). The per-row-task
/// scratch of [`bitplane_row`].
pub(crate) fn plane_window<W: BitWord>(flat: &PackedFilters<W>) -> Vec<[W; 8]> {
    vec![[W::zero(); 8]; flat.words_per_tap()]
}

/// Runs the window-packed Eqn (2) convolution over one output row, calling
/// `emit(ox, k, s)` with the integer accumulator of every output.
///
/// `flat` is the bank re-packed by [`flatten_filters`]; `window` is scratch
/// from [`plane_window`]. `emit` decides what an output *is* — a fused
/// binarize+pack bit or a raw `i32` — so this one loop serves every
/// first-layer kernel (see the module docs for the scheme).
#[allow(clippy::too_many_arguments)]
pub(crate) fn bitplane_row<W: BitWord>(
    planes: &BitPlanes<W>,
    flat: &PackedFilters<W>,
    geom: &ConvGeometry,
    window: &mut [[W; 8]],
    n: usize,
    oy: usize,
    ow: usize,
    emit: impl FnMut(usize, usize, i32),
) {
    isa::run(
        #[inline(always)]
        || bitplane_row_portable(planes, flat, geom, window, n, oy, ow, emit),
    )
}

/// [`bitplane_row`] without the ISA dispatch: inlined into its caller.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn bitplane_row_portable<W: BitWord>(
    planes: &BitPlanes<W>,
    flat: &PackedFilters<W>,
    geom: &ConvGeometry,
    window: &mut [[W; 8]],
    n: usize,
    oy: usize,
    ow: usize,
    mut emit: impl FnMut(usize, usize, i32),
) {
    let s = planes.shape();
    let k_total = flat.shape().k;
    let wpp = planes.plane(0).words_per_pixel();
    let plane_words: [&[W]; 8] = std::array::from_fn(|p| planes.plane(p).as_words());
    for ox in 0..ow {
        // Gather: in-bounds taps are OR-ed into a zeroed window at their
        // dense bit offset; padding taps stay 0.
        window.fill([W::zero(); 8]);
        let span = BorderSpan::of(geom, s.h, s.w, oy, ox);
        for i in span.i0..span.i1 {
            let iy = oy * geom.stride_h + i - geom.pad_h;
            for j in span.j0..span.j1 {
                let ix = ox * geom.stride_w + j - geom.pad_w;
                let src = planes.plane(0).pixel_offset(n, iy, ix);
                let tap_bit = (i * geom.kw + j) * s.c;
                for t in 0..wpp {
                    let at = tap_bit + t * W::BITS;
                    let (word, shift) = (at / W::BITS, at % W::BITS);
                    // The pixel word's valid bits straddle a window word.
                    let spills = shift + (s.c - t * W::BITS).min(W::BITS) > W::BITS;
                    for (p, words) in plane_words.iter().enumerate() {
                        let bits = words[src + t];
                        window[word][p] = window[word][p].or(bits.shl(shift));
                        if spills {
                            window[word + 1][p] = window[word + 1][p].or(bits.shr(W::BITS - shift));
                        }
                    }
                }
            }
        }
        // The filter-independent half, once per pixel.
        let mut ones = [0i32; 8];
        for group in window.iter() {
            for (count, bits) in ones.iter_mut().zip(group) {
                *count += bits.popcount() as i32;
            }
        }
        let total = combine_planes(&ones);
        for k in 0..k_total {
            let mut pos = [0i32; 8];
            for (group, &fw) in window.iter().zip(flat.tap_words(k, 0, 0)) {
                for (count, bits) in pos.iter_mut().zip(group) {
                    *count += bits.and(fw).popcount() as i32;
                }
            }
            emit(ox, k, 2 * combine_planes(&pos) - total);
        }
    }
}

fn output_shape<W: BitWord>(
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    geom: &ConvGeometry,
) -> Shape4 {
    let s = planes.shape();
    let fs = filters.shape();
    assert_eq!(
        s.c, fs.c,
        "plane channels {} != filter channels {}",
        s.c, fs.c
    );
    let (oh, ow) = geom.output_hw(s.h, s.w);
    Shape4::new(s.n, oh, ow, fs.k)
}

/// Functional body of the fused bit-plane convolution: one row task per
/// output row, each owning one gathered-window scratch. Output bits are
/// OR-ed in — `out` must come in zeroed, as [`bitplane_conv_fused_into`]
/// resets it.
pub fn compute_bitplane_conv_fused<W: BitWord>(
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let os = out.shape();
    let (oh, ow) = (os.h, os.w);
    let wpp = out.words_per_pixel();
    let flat = flatten_filters(filters);
    par_chunks_mut(out.as_mut_words(), ow * wpp, |row_idx, row_span| {
        let mut window = plane_window(&flat);
        let (n, oy) = (row_idx / oh, row_idx % oh);
        let mut sink = BitSink::new(fused, row_span, wpp);
        let emit = move |ox, k, s| sink.put(ox, k, &[s]);
        bitplane_row(planes, &flat, geom, &mut window, n, oy, ow, emit);
    });
}

/// Dispatches the fused first-layer convolution: Eqn (2) accumulation +
/// batch-norm + binarize + pack.
///
/// # Panics
///
/// Panics on channel mismatches or when `fused.len() != filters.k`.
pub fn bitplane_conv_fused<W: BitWord>(
    q: &mut CommandQueue,
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
) -> BitTensor<W> {
    let mut out = BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0));
    bitplane_conv_fused_into(q, planes, filters, fused, geom, &mut out);
    out
}

/// [`bitplane_conv_fused`] into a caller-provided tensor (reset to the
/// output shape), reusing its storage — the engine's arena path.
pub fn bitplane_conv_fused_into<W: BitWord>(
    q: &mut CommandQueue,
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let os = output_shape(planes, filters, geom);
    assert_eq!(
        fused.len(),
        filters.shape().k,
        "fusion params must cover every filter"
    );
    out.reset(os);
    let policy = WorkloadPolicy::for_channels(planes.shape().c);
    let profile = profiles::bitplane_conv_fused(os.pixels(), os.c, planes.shape().c, geom, &policy);
    q.launch(profile, || {
        compute_bitplane_conv_fused(planes, filters, fused, geom, out)
    });
}

/// Dispatches the first-layer convolution producing raw integer
/// accumulators (for tests and for heads that need real values).
pub fn bitplane_conv_accum<W: BitWord>(
    q: &mut CommandQueue,
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    geom: &ConvGeometry,
) -> Tensor<i32> {
    let os = output_shape(planes, filters, geom);
    let mut out = Tensor::<i32>::zeros(os, Layout::Nhwc);
    let policy = WorkloadPolicy::for_channels(planes.shape().c);
    let mut profile =
        profiles::bitplane_conv_fused(os.pixels(), os.c, planes.shape().c, geom, &policy);
    profile.name = "bitplane_conv_accum".into();
    let k_total = os.c;
    let (oh, ow) = (os.h, os.w);
    let flat = flatten_filters(filters);
    q.launch(profile, || {
        par_chunks_mut(out.as_mut_slice(), ow * k_total, |row_idx, row| {
            let mut window = plane_window(&flat);
            let (n, oy) = (row_idx / oh, row_idx % oh);
            let emit = move |ox: usize, k: usize, s| row[ox * k_total + k] = s;
            bitplane_row(planes, &flat, geom, &mut window, n, oy, ow, emit);
        });
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_gpusim::{DeviceProfile, ExecutorClass};
    use phonebit_tensor::pack::{pack_filters, unpack_f32};
    use phonebit_tensor::shape::FilterShape;
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
        let planes = bitplane_split::<u8>(&mut q, &img);
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
        let planes = bitplane_split::<u64>(&mut q, &img);
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
        let planes = bitplane_split::<u64>(&mut q, &img);
        let packed_f = pack_filters::<u64>(&f);
        let bits = bitplane_conv_fused(&mut q, &planes, &packed_f, &fused, &geom);
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
    fn split_kernel_is_on_timeline() {
        let img = image(Shape4::new(1, 4, 4, 3));
        let mut q = queue();
        let planes = bitplane_split::<u8>(&mut q, &img);
        assert_eq!(q.timeline().len(), 1);
        assert_eq!(q.timeline()[0].stats.name, "bitplane_split");
        assert_eq!(planes.reconstruct(), img);
    }

    #[test]
    fn zero_image_gives_zero_accum() {
        let img = Tensor::<u8>::zeros(Shape4::new(1, 4, 4, 3), Layout::Nhwc);
        let f = pm1_filters(FilterShape::new(2, 3, 3, 3));
        let mut q = queue();
        let planes = bitplane_split::<u32>(&mut q, &img);
        let accum = bitplane_conv_accum(
            &mut q,
            &planes,
            &pack_filters::<u32>(&f),
            &ConvGeometry::square(3, 1, 1),
        );
        assert!(accum.as_slice().iter().all(|&v| v == 0));
    }
}
