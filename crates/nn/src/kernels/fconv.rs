//! Full-precision convolution — PhoneBit's own float path.
//!
//! The paper keeps the last layer in full precision (e.g. YOLOv2-Tiny's
//! conv9) and implements it with the OpenCL `dot()` SIMD builtin, which is
//! why Fig 5 still shows a ~3x win over CNNdroid there. The same functional
//! body is reused by the baseline frameworks with their own cost profiles.
//!
//! On the host the filters are the lanes, sixteen per 64-byte-aligned
//! vector. Over floats ([`FloatBank`]), in NHWC a window row's in-bounds
//! taps are one contiguous run of `taps·c` floats, so a step over a block
//! of pixels that share their in-bounds taps broadcasts one input value per
//! pixel and multiplies it into sixteen filters at once — a latency-bound
//! dot per (pixel, filter) becomes independent vector chains. Over a binary
//! layer's packed signs ([`SignedBank`]), `x·w` is `−w` or `+w`: the bank
//! holds both and the input bit picks one, one vector add from memory per
//! tap and eight filter groups, taps blocked so the bank stays in L1.
//! Multiply and add stay separate (no `fma`), so an output is exactly
//! `bias + Σ x·w` over the in-bounds taps summed in tap order, the naive
//! sequential `f32` dot — from packed signs too — on every [`isa`] tier:
//! entered once per output row, each returns the same bits.

use phonebit_gpusim::exec::{par_chunks_mut, par_chunks_mut_with};
use phonebit_gpusim::queue::CommandQueue;
use phonebit_tensor::bits::BitTensor;
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Layout, Shape4};
use phonebit_tensor::tensor::{Filters, Tensor};

use crate::act::Activation;
use crate::kernels::isa;
use crate::kernels::profiles;
use crate::kernels::tiled::BorderSpan;

/// Filters per vector of a [`FloatBank`]: one 512-bit vector of `f32`.
const LANES: usize = 16;

/// Output pixels a step covers: four independent chains of sixteen lanes,
/// on every tier (at YOLO conv9, two were slower on the baseline target,
/// and six or eight left the lanes scalar on AVX-512).
const PIXELS: usize = 4;

/// Filter groups a packed-sign step adds into: eight accumulators keep two
/// add ports busy (a second pixel's eight gained 4 % and spill below AVX-512).
const HEAD_GROUPS: usize = 8;

/// Taps of a packed-sign block: one word's sixteen channels, 16 KB of pairs.
const HEAD_TAPS: usize = 16;

/// Sixteen filters' lanes on one 64-byte line (a `Vec<[f32; 16]>` sits 16
/// bytes past one, and every 512-bit load of it split across two).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(64))]
struct Lane([f32; LANES]);

/// A float convolution's filters as lanes: per group of sixteen filters,
/// one vector per tap in NHWC tap order, filter `k0 + l` in lane `l`, zero
/// past the last filter.
#[derive(Debug, Clone, PartialEq)]
pub struct FloatBank {
    shape: FilterShape,
    lanes: Vec<Lane>,
}

impl FloatBank {
    /// Interleaves `filters`.
    pub fn new(filters: &Filters) -> Self {
        let shape = filters.shape();
        let taps = shape.filter_len();
        let mut lanes = vec![Lane([0.0; LANES]); shape.k.div_ceil(LANES) * taps];
        for k in 0..shape.k {
            for (t, &w) in filters.filter(k).iter().enumerate() {
                lanes[k / LANES * taps + t].0[k % LANES] = w;
            }
        }
        Self { shape, lanes }
    }
}

/// A float convolution's filters for packed-sign input: per tap, each
/// group's `[−w, +w]` (the products of an unpacked `x = ∓1.0`), so input bit
/// `b` picks `pair[b]`; taps in NHWC order per chunk of eight
/// groups, a tap's pairs side by side (zero past the last group).
#[derive(Debug, Clone, PartialEq)]
pub struct SignedBank {
    shape: FilterShape,
    pairs: Vec<[[Lane; 2]; HEAD_GROUPS]>,
}

impl SignedBank {
    /// Interleaves `filters` and forms both products per weight.
    pub fn new(filters: &Filters) -> Self {
        let FloatBank { shape, lanes } = FloatBank::new(filters);
        let taps = shape.filter_len();
        let zero = [Lane([0.0; LANES]); 2];
        let mut pairs = vec![[zero; HEAD_GROUPS]; shape.k.div_ceil(LANES * HEAD_GROUPS) * taps];
        // The float body's own products: an opaque `∓1` keeps the multiply
        // from being folded to a negation, which differs on a NaN's sign.
        let x = std::hint::black_box([-1.0f32, 1.0]);
        for (at, w) in lanes.iter().enumerate() {
            let (g, t) = (at / taps, at % taps);
            pairs[g / HEAD_GROUPS * taps + t][g % HEAD_GROUPS] =
                x.map(|x| Lane(w.0.map(|w| x * w)));
        }
        Self { shape, pairs }
    }
}

/// Functional body of direct float convolution over NHWC with zero padding,
/// bias and activation, over a staged bank: one task per output row (see
/// the module docs).
pub fn compute_fconv(
    input: &Tensor<f32>,
    bank: &FloatBank,
    bias: &[f32],
    act: Activation,
    geom: &ConvGeometry,
    out: &mut Tensor<f32>,
) {
    let input = input.nhwc();
    let s = input.shape();
    let os = out.shape();
    par_chunks_mut(out.as_mut_slice(), os.w * bank.shape.k, |row_idx, row| {
        let (n, oy) = (row_idx / os.h, row_idx % os.h);
        let pixels = input.as_slice();
        isa::run(
            #[inline(always)]
            || fconv_row(pixels, s, bank, bias, act, geom, n, oy, row),
        );
    });
}

/// One output row of [`compute_fconv`]: `row` holds its `ow × k`
/// outputs, `pixels` the NHWC input of shape `s`; [`PIXELS`] per step where
/// they share their in-bounds taps, one at a time elsewhere.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn fconv_row(
    pixels: &[f32],
    s: Shape4,
    bank: &FloatBank,
    bias: &[f32],
    act: Activation,
    geom: &ConvGeometry,
    n: usize,
    oy: usize,
    row: &mut [f32],
) {
    let ow = row.len() / bank.shape.k;
    let mut ox = 0;
    while ox < ow {
        let span = BorderSpan::of(geom, s.h, s.w, oy, ox);
        let block =
            (ox..ow.min(ox + PIXELS)).all(|x| BorderSpan::of(geom, s.h, s.w, oy, x) == span);
        let at = (n, oy, ox);
        if block && ox + PIXELS <= ow {
            fconv_block::<PIXELS>(pixels, s, bank, bias, act, geom, at, span, row);
            ox += PIXELS;
        } else {
            fconv_block::<1>(pixels, s, bank, bias, act, geom, at, span, row);
            ox += 1;
        }
    }
}

/// Output pixels `ox..ox + P` of row `(n, oy)`, whose windows share the
/// in-bounds taps `span`: per filter group, lane `l` of pixel `p` sums
/// `x·w` over the taps in order, then takes the bias and activation.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fconv_block<const P: usize>(
    pixels: &[f32],
    s: Shape4,
    bank: &FloatBank,
    bias: &[f32],
    act: Activation,
    geom: &ConvGeometry,
    (n, oy, ox): (usize, usize, usize),
    span: BorderSpan,
    row: &mut [f32],
) {
    let fs = bank.shape;
    // A window wholly in padding has no rows to dot.
    let run = (span.j1 - span.j0) * s.c;
    let rows = if run == 0 { 0..0 } else { span.i0..span.i1 };
    let taps = fs.filter_len();
    for (g, group) in bank.lanes.chunks_exact(taps).enumerate() {
        let mut acc = [[0f32; LANES]; P];
        for i in rows.clone() {
            let iy = oy * geom.stride_h + i - geom.pad_h;
            let mut xs = [&pixels[..0]; P];
            for (p, xs) in xs.iter_mut().enumerate() {
                let ix = (ox + p) * geom.stride_w + span.j0 - geom.pad_w;
                *xs = &pixels[((n * s.h + iy) * s.w + ix) * s.c..][..run];
            }
            let ws = &group[(i * fs.kw + span.j0) * s.c..][..run];
            acc = accumulate(acc, xs, ws);
        }
        let k0 = g * LANES;
        for (p, acc) in acc.iter().enumerate() {
            let out = &mut row[(ox + p) * fs.k + k0..(ox + p + 1) * fs.k];
            for ((o, a), b) in out.iter_mut().zip(acc).zip(&bias[k0..]) {
                *o = act.apply(b + a);
            }
        }
    }
}

/// Adds `xs[p][t] · ws[t]` into pixel `p`'s lanes, tap `t` after tap.
///
/// Written so that SLP takes the lanes at any codegen partition: `acc` by
/// value and every span cut to `run` here. Through `&mut`, or with the
/// pixels' values gathered into an array first, or as iterator chains, it
/// kept `acc` on the stack or vectorised across pixels (gathers at one
/// codegen unit, 1.2–15× slower).
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn accumulate<const P: usize>(
    mut acc: [[f32; LANES]; P],
    xs: [&[f32]; P],
    ws: &[Lane],
) -> [[f32; LANES]; P] {
    let run = ws.len();
    let mut cut = xs;
    for p in 0..P {
        cut[p] = &xs[p][..run];
    }
    for t in 0..run {
        let w = &ws[t].0;
        for p in 0..P {
            let x = cut[p][t];
            for l in 0..LANES {
                acc[p][l] += x * w[l];
            }
        }
    }
    acc
}

/// Sums output row `(n, oy)` into `acc`, `stride` lanes per pixel: per tap
/// block in tap order, every pixel whose window has it in bounds adds the
/// pairs its input bits pick, so the block's bank slice stays in L1.
#[inline(always)]
fn bits_row(
    input: &BitTensor<u64>,
    bank: &SignedBank,
    geom: &ConvGeometry,
    (n, oy): (usize, usize),
    stride: usize,
    acc: &mut [Lane],
) {
    let (s, fs, wpp) = (input.shape(), bank.shape, input.words_per_pixel());
    let taps = fs.filter_len();
    acc.fill(Lane([0.0; LANES]));
    let words = input.as_words();
    for (i, j) in (0..fs.kh).flat_map(|i| (0..fs.kw).map(move |j| (i, j))) {
        for ch0 in (0..s.c).step_by(HEAD_TAPS) {
            let t0 = (i * fs.kw + j) * s.c + ch0;
            let len = HEAD_TAPS.min(s.c - ch0);
            for (ox, acc) in acc.chunks_exact_mut(stride).enumerate() {
                let span = BorderSpan::of(geom, s.h, s.w, oy, ox);
                if !(span.i0..span.i1).contains(&i) || !(span.j0..span.j1).contains(&j) {
                    continue;
                }
                let (iy, ix) = (
                    oy * geom.stride_h + i - geom.pad_h,
                    ox * geom.stride_w + j - geom.pad_w,
                );
                let bits = words[((n * s.h + iy) * s.w + ix) * wpp + ch0 / 64] >> (ch0 % 64);
                for (chunk, acc) in acc.chunks_exact_mut(HEAD_GROUPS).enumerate() {
                    let block = &bank.pairs[chunk * taps + t0..][..len];
                    let acc: &mut [Lane; HEAD_GROUPS] = acc.try_into().expect("a chunk");
                    *acc = add_signed(*acc, bits, block);
                }
            }
        }
    }
}

/// Adds `block[u][g][bit u of bits]` into group `g`, tap after tap: `acc`
/// by value so it stays in registers, the eight adds written out (as a loop
/// over `g` the loop vectoriser took that axis: gathers and scatters).
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn add_signed(
    mut acc: [Lane; HEAD_GROUPS],
    bits: u64,
    block: &[[[Lane; 2]; HEAD_GROUPS]],
) -> [Lane; HEAD_GROUPS] {
    for u in 0..block.len() {
        let (pairs, pick) = (&block[u], (bits >> u & 1) as usize);
        let add = |g: usize| {
            let (mut a, w) = (acc[g].0, &pairs[g][pick].0);
            for l in 0..LANES {
                a[l] += w[l];
            }
            Lane(a)
        };
        acc = [
            add(0),
            add(1),
            add(2),
            add(3),
            add(4),
            add(5),
            add(6),
            add(7),
        ];
    }
    acc
}

/// Functional body of a float convolution over packed signs, bit for bit
/// the float body over their unpacked `±1.0`: one task per output row.
pub fn compute_fconv_bits(
    input: &BitTensor<u64>,
    bank: &SignedBank,
    bias: &[f32],
    act: Activation,
    geom: &ConvGeometry,
    out: &mut Tensor<f32>,
) {
    let (os, k) = (out.shape(), bank.shape.k);
    let stride = k.div_ceil(LANES * HEAD_GROUPS) * HEAD_GROUPS;
    let scratch = || vec![Lane([0.0; LANES]); os.w * stride];
    par_chunks_mut_with(
        out.as_mut_slice(),
        os.w * k,
        scratch,
        |acc, row_idx, row| {
            let at = (row_idx / os.h, row_idx % os.h);
            isa::run(
                #[inline(always)]
                || bits_row(input, bank, geom, at, stride, acc),
            );
            for (out, acc) in row.chunks_exact_mut(k).zip(acc.chunks_exact(stride)) {
                for ((o, a), b) in out.iter_mut().zip(acc.iter().flat_map(|a| &a.0)).zip(bias) {
                    *o = act.apply(b + a);
                }
            }
        },
    );
}

/// Dispatches PhoneBit's full-precision convolution (`dot()` SIMD profile).
///
/// # Panics
///
/// Panics if shapes disagree or `bias.len() != filters.k`.
pub fn fconv(
    q: &mut CommandQueue,
    input: &Tensor<f32>,
    filters: &Filters,
    bias: &[f32],
    act: Activation,
    geom: &ConvGeometry,
) -> Tensor<f32> {
    let mut out = Tensor::<f32>::zeros(Shape4::new(0, 0, 0, 0), Layout::Nhwc);
    fconv_into(q, input, filters, bias, act, geom, &mut out);
    out
}

/// [`fconv`] into a caller-provided NHWC tensor (reset to the output
/// shape), reusing its storage. Interleaves `filters` first; the engine
/// stages a [`FloatBank`] and launches [`compute_fconv`] over it.
///
/// # Panics
///
/// Panics if shapes disagree or `bias.len() != filters.k`.
pub fn fconv_into(
    q: &mut CommandQueue,
    input: &Tensor<f32>,
    filters: &Filters,
    bias: &[f32],
    act: Activation,
    geom: &ConvGeometry,
    out: &mut Tensor<f32>,
) {
    let (s, fs) = (input.shape(), filters.shape());
    assert_eq!(
        s.c, fs.c,
        "input channels {} != filter channels {}",
        s.c, fs.c
    );
    assert_eq!(bias.len(), fs.k, "bias length must equal filter count");
    let bank = FloatBank::new(filters);
    let (oh, ow) = geom.output_hw(s.h, s.w);
    let os = Shape4::new(s.n, oh, ow, fs.k);
    out.reset(os, Layout::Nhwc);
    let mut profile = profiles::fconv(os.pixels(), fs.k, s.c, geom);
    profile.f32_ops += os.len() as f64 * act.ops_per_element();
    q.launch(profile, || {
        compute_fconv(input, &bank, bias, act, geom, out)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_gpusim::{DeviceProfile, ExecutorClass};
    use phonebit_tensor::shape::FilterShape;

    fn queue() -> CommandQueue {
        CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 conv with identity matrix weights = channel copy.
        let t = Tensor::from_fn(Shape4::new(1, 3, 3, 2), |_, h, w, c| {
            (h * 10 + w + c) as f32
        });
        let mut f = Filters::zeros(FilterShape::new(2, 1, 1, 2));
        f.set(0, 0, 0, 0, 1.0);
        f.set(1, 0, 0, 1, 1.0);
        let mut q = queue();
        let out = fconv(
            &mut q,
            &t,
            &f,
            &[0.0, 0.0],
            Activation::Linear,
            &ConvGeometry::square(1, 1, 0),
        );
        assert_eq!(out.as_slice(), t.as_slice());
    }

    #[test]
    fn bias_and_activation_applied() {
        let t = Tensor::from_fn(Shape4::new(1, 2, 2, 1), |_, _, _, _| -1.0);
        let mut f = Filters::zeros(FilterShape::new(1, 1, 1, 1));
        f.set(0, 0, 0, 0, 2.0);
        let mut q = queue();
        // -1*2 + 0.5 = -1.5, ReLU -> 0.
        let out = fconv(
            &mut q,
            &t,
            &f,
            &[0.5],
            Activation::Relu,
            &ConvGeometry::square(1, 1, 0),
        );
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
        // Leaky keeps -0.15.
        let out = fconv(
            &mut q,
            &t,
            &f,
            &[0.5],
            Activation::Leaky(0.1),
            &ConvGeometry::square(1, 1, 0),
        );
        for &v in out.as_slice() {
            assert!((v + 0.15).abs() < 1e-6);
        }
    }

    #[test]
    fn padding_counts_zeros() {
        // All-ones image and 3x3 all-ones kernel: corner output = 4, edge = 6,
        // interior = 9.
        let t = Tensor::from_fn(Shape4::new(1, 3, 3, 1), |_, _, _, _| 1.0);
        let f = Filters::from_fn(FilterShape::new(1, 3, 3, 1), |_, _, _, _| 1.0);
        let mut q = queue();
        let out = fconv(
            &mut q,
            &t,
            &f,
            &[0.0],
            Activation::Linear,
            &ConvGeometry::square(3, 1, 1),
        );
        assert_eq!(out.at(0, 0, 0, 0), 4.0);
        assert_eq!(out.at(0, 0, 1, 0), 6.0);
        assert_eq!(out.at(0, 1, 1, 0), 9.0);
    }

    #[test]
    fn matches_im2col_gemm_reference() {
        use phonebit_tensor::im2col::im2col_nhwc;
        let shape = Shape4::new(2, 5, 6, 3);
        let t = Tensor::from_fn(shape, |n, h, w, c| {
            ((n * 31 + h * 17 + w * 5 + c) % 11) as f32 - 5.0
        });
        let fs = FilterShape::new(4, 3, 3, 3);
        let f = Filters::from_fn(fs, |k, i, j, c| {
            ((k * 7 + i + j * 2 + c * 3) % 5) as f32 - 2.0
        });
        let geom = ConvGeometry::square(3, 1, 1);
        let mut q = queue();
        let direct = fconv(&mut q, &t, &f, &[0.0; 4], Activation::Linear, &geom);
        let unrolled = im2col_nhwc(&t, &geom);
        let (oh, ow) = geom.output_hw(shape.h, shape.w);
        for n in 0..shape.n {
            for r in 0..oh * ow {
                for k in 0..fs.k {
                    let dot: f32 = unrolled
                        .row(n, r)
                        .iter()
                        .zip(f.filter(k))
                        .map(|(a, b)| a * b)
                        .sum();
                    let got = direct.at(n, r / ow, r % ow, k);
                    assert!(
                        (dot - got).abs() < 1e-3,
                        "n={n} r={r} k={k}: {dot} vs {got}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn bias_mismatch_panics() {
        let t = Tensor::<f32>::zeros(Shape4::new(1, 2, 2, 1), Layout::Nhwc);
        let f = Filters::zeros(FilterShape::new(2, 1, 1, 1));
        let mut q = queue();
        let _ = fconv(
            &mut q,
            &t,
            &f,
            &[0.0],
            Activation::Linear,
            &ConvGeometry::square(1, 1, 0),
        );
    }
}
