//! Full-precision convolution — PhoneBit's own float path.
//!
//! The paper keeps the last layer in full precision (e.g. YOLOv2-Tiny's
//! conv9) and implements it with the OpenCL `dot()` SIMD builtin, which is
//! why Fig 5 still shows a ~3x win over CNNdroid there. The same functional
//! body is reused by the baseline frameworks with their own cost profiles.
//!
//! On the host the kernel is that `dot()`: in NHWC a window row's in-bounds
//! taps are one contiguous run of `taps·c` floats, and so are the same taps
//! of a filter, so an output is `kh` slice dot products — no per-element
//! index arithmetic or bounds check. Products are summed in 16 fixed
//! lanes (element `e` of a run into lane `e % 16`) and the lanes
//! added pairwise in a fixed order, with separate multiply and add, so the
//! result does not depend on the vector width: every [`isa`] tier, entered
//! once per output row, returns the same bits.

use phonebit_gpusim::exec::par_chunks_mut;
use phonebit_gpusim::queue::CommandQueue;
use phonebit_tensor::shape::{ConvGeometry, Layout, Shape4};
use phonebit_tensor::tensor::{Filters, Tensor};

use crate::act::Activation;
use crate::kernels::tiled::BorderSpan;
use crate::kernels::{isa, profiles};

/// Partial sums a dot product keeps side by side: one 512-bit vector of
/// `f32`.
const LANES: usize = 16;

/// Adds the products of `a` and `b` (equal lengths) into `acc`, element `e`
/// into lane `e % LANES`.
#[inline(always)]
fn dot_into(acc: &mut [f32; LANES], a: &[f32], b: &[f32]) {
    let (a_body, a_tail) = a.as_chunks::<LANES>();
    let (b_body, b_tail) = b.as_chunks::<LANES>();
    for (x, y) in a_body.iter().zip(b_body) {
        for l in 0..LANES {
            acc[l] += x[l] * y[l];
        }
    }
    for ((sum, x), y) in acc.iter_mut().zip(a_tail).zip(b_tail) {
        *sum += x * y;
    }
}

/// The sum of the lanes, halving 16 → 8 → 4 → 2 → 1.
#[inline(always)]
fn sum_lanes(mut acc: [f32; LANES]) -> f32 {
    let mut width = LANES / 2;
    while width > 0 {
        for l in 0..width {
            acc[l] += acc[l + width];
        }
        width /= 2;
    }
    acc[0]
}

/// Functional body of direct float convolution over NHWC with zero padding,
/// bias and activation: one task per output row (see the module docs).
pub fn compute_fconv(
    input: &Tensor<f32>,
    filters: &Filters,
    bias: &[f32],
    act: Activation,
    geom: &ConvGeometry,
    out: &mut Tensor<f32>,
) {
    let input = input.nhwc();
    let s = input.shape();
    let os = out.shape();
    let k_total = filters.shape().k;
    par_chunks_mut(out.as_mut_slice(), os.w * k_total, |row_idx, row| {
        let (n, oy) = (row_idx / os.h, row_idx % os.h);
        isa::run(
            #[inline(always)]
            || fconv_row(input.as_slice(), s, filters, bias, act, geom, n, oy, row),
        );
    });
}

/// One output row of [`compute_fconv`]: `row` holds its `ow × k` outputs,
/// `pixels` the NHWC input of shape `s`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn fconv_row(
    pixels: &[f32],
    s: Shape4,
    filters: &Filters,
    bias: &[f32],
    act: Activation,
    geom: &ConvGeometry,
    n: usize,
    oy: usize,
    row: &mut [f32],
) {
    let fs = filters.shape();
    for (ox, outputs) in row.chunks_exact_mut(fs.k).enumerate() {
        // The in-bounds taps of window row `i` are one contiguous run, in
        // the input and in every filter; a window wholly in padding has
        // no rows to dot.
        let span = BorderSpan::of(geom, s.h, s.w, oy, ox);
        let run = (span.j1 - span.j0) * s.c;
        let rows = if run == 0 { 0..0 } else { span.i0..span.i1 };
        for (k, (output, &b)) in outputs.iter_mut().zip(bias).enumerate() {
            let filter = filters.filter(k);
            let mut acc = [0f32; LANES];
            for i in rows.clone() {
                let iy = oy * geom.stride_h + i - geom.pad_h;
                let ix = ox * geom.stride_w + span.j0 - geom.pad_w;
                let at = ((n * s.h + iy) * s.w + ix) * s.c;
                let taps = (i * fs.kw + span.j0) * s.c;
                dot_into(&mut acc, &pixels[at..at + run], &filter[taps..taps + run]);
            }
            *output = act.apply(b + sum_lanes(acc));
        }
    }
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
/// shape), reusing its storage — the engine's arena path.
pub fn fconv_into(
    q: &mut CommandQueue,
    input: &Tensor<f32>,
    filters: &Filters,
    bias: &[f32],
    act: Activation,
    geom: &ConvGeometry,
    out: &mut Tensor<f32>,
) {
    let s = input.shape();
    let fs = filters.shape();
    assert_eq!(
        s.c, fs.c,
        "input channels {} != filter channels {}",
        s.c, fs.c
    );
    assert_eq!(bias.len(), fs.k, "bias length must equal filter count");
    let (oh, ow) = geom.output_hw(s.h, s.w);
    let os = Shape4::new(s.n, oh, ow, fs.k);
    out.reset(os, Layout::Nhwc);
    let mut profile = profiles::fconv(os.pixels(), fs.k, s.c, geom);
    profile.f32_ops += os.len() as f64 * act.ops_per_element();
    q.launch(profile, || {
        compute_fconv(input, filters, bias, act, geom, out)
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
