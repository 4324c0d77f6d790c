//! First-layer kernels: bit-plane split and the streamed, filters-as-lanes
//! bit-plane convolution (Eqn 2).
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
//! vectorization" a second time, across the window *and* across filters:
//!
//! 1. **What is streamed.** Once per output row, the `kh` input rows under
//!    it are OR-ed into one dense bit stream per plane (`PlaneStream`):
//!    padded column `x`'s `kh·c` bits sit at stream bit `x·kh·c`, row `i`
//!    of the column at `i·c` inside that, the eight planes side by side as
//!    `[W; 8]` per stream word. Nothing is gathered per pixel: adjacent
//!    windows share `kw − stride` columns and read them from the same
//!    stream words. Adjacent *rows* share `kh − stride` input rows, so a
//!    worker moving one output row down rolls the stream — one shift of
//!    the whole stream by `stride·c` bits and a mask — and ORs in only
//!    the `stride` new rows. The scratch is one stream row plus one
//!    window, owned by the worker for the whole dispatch.
//! 2. **Bit order.** The stream makes every receptive window one
//!    contiguous run — `kh·kw·c` bits from bit `ox·stride_w·kh·c` — so a
//!    window word is a funnel shift of two stream words, and tap `(i, j)`
//!    channel `ch` is window bit `(j·kh + i)·c + ch`: column-major, no
//!    per-tap padding. [`LaneBank::column_major`] lays the filters out in
//!    that order once at stage time, for any `c`, any kernel size and any
//!    `W` — a window that fits one word is the one-word case of the same
//!    loops.
//! 3. **Lanes are filters.** `{0,1} × {±1}` is `2·popcount(a & w) −
//!    popcount(a)` ([`phonebit_tensor::bits::dot_u1_pm1`]), and the second
//!    term does not depend on the filter: `T = Σ_n 2^n·popcount(win_n)` is
//!    computed once per pixel. The bank interleaves eight adjacent
//!    filters per window word, so Eqn (2) over a filter group is
//!    `acc += popcount(splat(win_n) & bank) << n`, one vector `and` +
//!    popcount per (plane, window word), and `s = 2·acc − T` leaves as
//!    eight accumulators side by side: no per-filter horizontal reduce,
//!    and the packed-bit sink thresholds eight outputs per output-word OR.
//!    A filter count that does not fill its last group leaves zero lanes
//!    that are computed and never emitted.
//! 4. **Why padding needs no special case.** The stream starts all-zero
//!    and only in-bounds rows and columns are OR-ed in, so an
//!    out-of-bounds tap is a run of 0 bits: it adds nothing to
//!    `popcount(win & f)` or to `T`, which is what zero padding of a `u8`
//!    image means. There is no interior/border split and no
//!    padding-correction table; a window wholly in padding yields
//!    `s_k = 0`.

use phonebit_gpusim::exec::par_chunks_mut_with;
use phonebit_gpusim::queue::CommandQueue;
use phonebit_tensor::bitplane::BitPlanes;
use phonebit_tensor::bits::{BitTensor, BitWord, PackedFilters};
use phonebit_tensor::lanes::{LaneBank, LANES};
use phonebit_tensor::shape::{ConvGeometry, Layout, Shape4};
use phonebit_tensor::tensor::Tensor;

use crate::fuse::{AccumSink, BitSink, FusedBn, RowSink};
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

/// A worker's scratch for [`bitplane_row`] over one plane set: the plane
/// stream of the output row in flight (one spare word past its end for the
/// funnel shift) and one extracted window, each word the eight planes side
/// by side, LSB plane first.
#[derive(Debug)]
pub(crate) struct PlaneStream<W: BitWord> {
    stream: Vec<[W; 8]>,
    window: Vec<[W; 8]>,
    /// The `(image, output row)` the stream holds, so the next row down
    /// rolls it instead of rebuilding it.
    holds: Option<(usize, usize)>,
    /// Per stream word, the bits that survive a roll: every column's rows
    /// the next output row still covers. Empty when `stride_h >= kh`.
    kept: Vec<W>,
}

impl<W: BitWord> PlaneStream<W> {
    /// Scratch for `bank`'s windows sliding over `input_w`-pixel rows.
    pub(crate) fn new(bank: &LaneBank<W>, geom: &ConvGeometry, input_w: usize) -> Self {
        let (kh, c) = (bank.shape().kh, bank.shape().c);
        let stream_bits = (input_w + 2 * geom.pad_w) * kh * c;
        let stream_words = stream_bits.div_ceil(W::BITS) + 1;
        let mut kept = Vec::new();
        if geom.stride_h < kh {
            kept.resize(stream_words, W::zero());
            for column in (0..stream_bits).step_by(kh * c) {
                for bit in column..column + (kh - geom.stride_h) * c {
                    kept[bit / W::BITS] = kept[bit / W::BITS].with_bit(bit % W::BITS, true);
                }
            }
        }
        Self {
            stream: vec![[W::zero(); 8]; stream_words],
            window: vec![[W::zero(); 8]; bank.row_words()],
            holds: None,
            kept,
        }
    }
}

/// Bits `shift..shift + W::BITS` of the 2-word run `lo, hi`, per plane.
#[inline(always)]
fn funnel<W: BitWord>(lo: [W; 8], hi: [W; 8], shift: usize) -> [W; 8] {
    let mut out = lo;
    for (bits, hi) in out.iter_mut().zip(hi) {
        // `hi << (BITS − shift)` in two steps, so `shift == 0` shifts
        // everything out instead of overflowing.
        *bits = bits.shr(shift).or(hi.shl(1).shl(W::BITS - 1 - shift));
    }
    out
}

/// Runs the streamed Eqn (2) convolution over one output row, handing
/// `sink` the integer accumulators of filters `k0..k0 + s.len()` at output
/// column `ox` as `put(ox, k0, s)` — a group of [`LANES`] per call, fewer for
/// the last group of a filter count that does not fill it.
///
/// `bank` is the layer's [`LaneBank::column_major`]; `scratch` a
/// [`PlaneStream`] built for the same bank, geometry and input width. The
/// sink decides what an output *is* — fused binarize+pack bits or raw
/// `i32`s — so this one loop serves every first-layer kernel (see the
/// module docs for the scheme).
#[allow(clippy::too_many_arguments)]
pub(crate) fn bitplane_row<W: BitWord>(
    planes: &BitPlanes<W>,
    bank: &LaneBank<W>,
    geom: &ConvGeometry,
    scratch: &mut PlaneStream<W>,
    n: usize,
    oy: usize,
    ow: usize,
    sink: &mut impl RowSink,
) {
    isa::run(
        #[inline(always)]
        || {
            let s = planes.shape();
            let (kh, k_total) = (bank.shape().kh, bank.shape().k);
            let col_bits = kh * s.c;
            let wpp = planes.plane(0).words_per_pixel();
            let plane_words = planes.plane_words();
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
                let (skip, shift) = (by / W::BITS, by % W::BITS);
                let past_end = [W::zero(); 8];
                for word in 0..stream.len() {
                    let lo = *stream.get(word + skip).unwrap_or(&past_end);
                    let hi = *stream.get(word + skip + 1).unwrap_or(&past_end);
                    stream[word] = funnel(lo, hi, shift).map(|bits| bits.and(kept[word]));
                }
                kh - geom.stride_h..kh
            } else {
                stream.fill([W::zero(); 8]);
                0..kh
            };
            // OR each fresh in-bounds input row into its slot of every column;
            // padding rows and columns stay 0.
            for i in fresh {
                let iy = oy * geom.stride_h + i;
                if iy < geom.pad_h || iy - geom.pad_h >= s.h {
                    continue;
                }
                let src = planes.plane(0).pixel_offset(n, iy - geom.pad_h, 0);
                for x in 0..s.w {
                    for t in 0..wpp {
                        let at = (x + geom.pad_w) * col_bits + i * s.c + t * W::BITS;
                        let (word, shift) = (at / W::BITS, at % W::BITS);
                        // The pixel word's valid bits straddle a stream word.
                        let spills = shift + (s.c - t * W::BITS).min(W::BITS) > W::BITS;
                        for (p, plane) in plane_words.iter().enumerate() {
                            let bits = plane[src + x * wpp + t];
                            stream[word][p] = stream[word][p].or(bits.shl(shift));
                            if spills {
                                stream[word + 1][p] =
                                    stream[word + 1][p].or(bits.shr(W::BITS - shift));
                            }
                        }
                    }
                }
            }

            let words = bank.row_words();
            let tail_mask = W::low_mask(geom.kw * col_bits - (words - 1) * W::BITS);
            for ox in 0..ow {
                // Window: `words` funnel shifts of the run starting at this
                // column's stream bit, the bits past the window's end cleared.
                let at = ox * geom.stride_w * col_bits;
                let (first, shift) = (at / W::BITS, at % W::BITS);
                for (t, win) in window.iter_mut().enumerate() {
                    *win = funnel(stream[first + t], stream[first + t + 1], shift);
                }
                let last = &mut window[words - 1];
                for bits in last.iter_mut() {
                    *bits = bits.and(tail_mask);
                }
                // The filter-independent half, once per pixel.
                let mut total = 0i32;
                for p in (0..8).rev() {
                    total *= 2;
                    for win in window.iter() {
                        total += win[p].popcount() as i32;
                    }
                }
                // Eqn (2), a filter group per pass: lane `l` sums plane `p`'s
                // masked popcounts against filter `l`, weighted `2^p`.
                for g in 0..bank.groups() {
                    let mut acc = [0u64; LANES];
                    for (win, filt) in window.iter().zip(bank.group(g)) {
                        isa::lanes_not_words();
                        for (p, bits) in win.iter().enumerate() {
                            for (a, f) in acc.iter_mut().zip(filt) {
                                *a += u64::from(bits.and(*f).popcount()) << p;
                            }
                        }
                    }
                    let mut sums = [0i32; LANES];
                    for (sum, a) in sums.iter_mut().zip(acc) {
                        *sum = 2 * a as i32 - total;
                    }
                    sink.put_group(ox, g * LANES, k_total, &sums);
                }
            }
        },
    )
}

fn output_shape<W: BitWord>(
    planes: &BitPlanes<W>,
    bank: &LaneBank<W>,
    geom: &ConvGeometry,
) -> Shape4 {
    let s = planes.shape();
    let fs = bank.shape();
    assert_eq!(
        s.c, fs.c,
        "plane channels {} != filter channels {}",
        s.c, fs.c
    );
    let (oh, ow) = geom.output_hw(s.h, s.w);
    Shape4::new(s.n, oh, ow, fs.k)
}

/// Functional body of the fused bit-plane convolution: one row task per
/// output row, the plane-stream scratch owned by the worker. Output bits
/// are OR-ed in — `out` must come in zeroed, as
/// [`bitplane_conv_bank_into`] resets it.
pub fn compute_bitplane_conv_fused<W: BitWord>(
    planes: &BitPlanes<W>,
    bank: &LaneBank<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let os = out.shape();
    let (oh, ow) = (os.h, os.w);
    let wpp = out.words_per_pixel();
    par_chunks_mut_with(
        out.as_mut_words(),
        ow * wpp,
        || PlaneStream::new(bank, geom, planes.shape().w),
        |scratch, row_idx, row_span| {
            let (n, oy) = (row_idx / oh, row_idx % oh);
            let mut sink = BitSink::new(fused, row_span, wpp);
            bitplane_row(planes, bank, geom, scratch, n, oy, ow, &mut sink);
        },
    );
}

/// Dispatches the fused first-layer convolution: Eqn (2) accumulation +
/// batch-norm + binarize + pack. Interleaves `filters` first; a caller that
/// runs the layer more than once stages a [`LaneBank::column_major`] and calls
/// [`bitplane_conv_bank_into`].
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
/// output shape), reusing its storage.
pub fn bitplane_conv_fused_into<W: BitWord>(
    q: &mut CommandQueue,
    planes: &BitPlanes<W>,
    filters: &PackedFilters<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    bitplane_conv_bank_into(
        q,
        planes,
        &LaneBank::column_major(filters),
        fused,
        geom,
        out,
    );
}

/// [`bitplane_conv_fused_into`] over a bank staged once — the engine's
/// arena path.
///
/// # Panics
///
/// Panics on channel mismatches or when `fused.len() != bank.shape().k`.
pub fn bitplane_conv_bank_into<W: BitWord>(
    q: &mut CommandQueue,
    planes: &BitPlanes<W>,
    bank: &LaneBank<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let os = output_shape(planes, bank, geom);
    assert_eq!(
        fused.len(),
        bank.shape().k,
        "fusion params must cover every filter"
    );
    out.reset(os);
    let policy = WorkloadPolicy::for_channels(planes.shape().c);
    let profile = profiles::bitplane_conv_fused(os.pixels(), os.c, planes.shape().c, geom, &policy);
    q.launch(profile, || {
        compute_bitplane_conv_fused(planes, bank, fused, geom, out)
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
    let bank = &LaneBank::column_major(filters);
    let os = output_shape(planes, bank, geom);
    let mut out = Tensor::<i32>::zeros(os, Layout::Nhwc);
    let policy = WorkloadPolicy::for_channels(planes.shape().c);
    let mut profile =
        profiles::bitplane_conv_fused(os.pixels(), os.c, planes.shape().c, geom, &policy);
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
