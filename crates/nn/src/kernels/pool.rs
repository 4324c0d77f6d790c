//! Pooling kernels.
//!
//! Binary max pooling exploits the packed representation: with bits encoding
//! `{−1, +1}`, `max` over a window is simply the bitwise **OR** of the packed
//! words — no unpacking needed. This is why pooling stays cheap between
//! PhoneBit's fused convolutions (Fig 3 shows `pool.forward_S` calls between
//! the `bforward` layers).
//!
//! On the host it is cheap only when the compiler sees the window's shape:
//! a window of runtime `wpp × size` words never vectorises. So
//! `or_pool_row` calls its one body, `or_windows`, with literal
//! `(wpp, size, stride)` at the shapes the benchmarked models run on 64-bit
//! words — 2×2/2 at one, two and four words per pixel (YOLOv2-Tiny
//! `pool1`–`pool5` and the micro models), 2×2/1 at eight (YOLOv2-Tiny
//! `pool6`) — and with the runtime values otherwise (the same body, so the
//! same result). The one-word 2×2/2 instance (YOLO `pool1`–`pool3`) ORs two
//! output pixels per `xmm`: 0.06–0.08 ms at `pool1`, 0.5–0.9 ms with the
//! runtime shape (`isa::tests::per_tier_timing`).

use phonebit_gpusim::queue::CommandQueue;
use phonebit_tensor::bits::{BitTensor, BitWord};
use phonebit_tensor::shape::{ConvGeometry, Layout, Shape4};
use phonebit_tensor::tensor::Tensor;

use crate::kernels::profiles;

/// Pooling window geometry (kernel size + stride, no padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolGeometry {
    /// Window edge length.
    pub size: usize,
    /// Stride between windows.
    pub stride: usize,
}

impl PoolGeometry {
    /// Square pooling window.
    pub fn new(size: usize, stride: usize) -> Self {
        assert!(
            size > 0 && stride > 0,
            "pool size and stride must be positive"
        );
        Self { size, stride }
    }

    /// Output spatial size.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        ConvGeometry::square(self.size, self.stride, 0).output_hw(h, w)
    }
}

/// Functional body of binary max pooling: per output row, the OR of its
/// `size` input rows' windows (`or_pool_row`).
pub fn compute_maxpool_bits<W: BitWord>(
    input: &BitTensor<W>,
    geom: &PoolGeometry,
    out: &mut BitTensor<W>,
) {
    let (s, os, wpp) = (input.shape(), out.shape(), input.words_per_pixel());
    let row = s.w * wpp;
    for (at, dst) in out.as_mut_words().chunks_exact_mut(os.w * wpp).enumerate() {
        let (n, oy) = (at / os.h, at % os.h);
        dst.fill(W::zero());
        for iy in oy * geom.stride..oy * geom.stride + geom.size {
            or_pool_row(
                dst,
                &input.as_words()[(n * s.h + iy) * row..][..row],
                wpp,
                geom,
            );
        }
    }
}

/// ORs into `dst` — a pooled row of `wpp`-word pixels — the windows of one
/// input row `src`: output pixel `ox` takes input pixels
/// `ox·stride..ox·stride + size`. The binary pool and the conv→pool
/// chains' epilogue both pool through it; the zoo's shapes run
/// [`or_windows`] at literal arguments (module docs).
#[inline]
pub(crate) fn or_pool_row<W: BitWord>(dst: &mut [W], src: &[W], wpp: usize, geom: &PoolGeometry) {
    match (wpp, geom.size, geom.stride) {
        (1, 2, 2) => or_windows(dst, src, 1, 2, 2),
        (2, 2, 2) => or_windows(dst, src, 2, 2, 2),
        (4, 2, 2) => or_windows(dst, src, 4, 2, 2),
        (8, 2, 1) => or_windows(dst, src, 8, 2, 1),
        (wpp, size, stride) => or_windows(dst, src, wpp, size, stride),
    }
}

/// [`or_pool_row`]'s one body: output pixel `ox` of `dst` ORs the `size`
/// pixels of `src` from pixel `ox·stride`, every pixel `wpp` words.
#[inline(always)]
fn or_windows<W: BitWord>(dst: &mut [W], src: &[W], wpp: usize, size: usize, stride: usize) {
    for (ox, out) in dst.chunks_exact_mut(wpp).enumerate() {
        let window = &src[ox * stride * wpp..][..size * wpp];
        for pixel in window.chunks_exact(wpp) {
            for (o, &w) in out.iter_mut().zip(pixel) {
                *o = o.or(w);
            }
        }
    }
}

/// Dispatches binary max pooling.
///
/// # Panics
///
/// Panics if the window exceeds the input.
pub fn maxpool_bits<W: BitWord>(
    q: &mut CommandQueue,
    input: &BitTensor<W>,
    geom: &PoolGeometry,
) -> BitTensor<W> {
    let mut out = BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0));
    maxpool_bits_into(q, input, geom, &mut out);
    out
}

/// [`maxpool_bits`] into a caller-provided tensor (reset to the output
/// shape), reusing its storage — the engine's arena path.
pub fn maxpool_bits_into<W: BitWord>(
    q: &mut CommandQueue,
    input: &BitTensor<W>,
    geom: &PoolGeometry,
    out: &mut BitTensor<W>,
) {
    let s = input.shape();
    let (oh, ow) = geom.output_hw(s.h, s.w);
    let os = Shape4::new(s.n, oh, ow, s.c);
    out.reset(os);
    let profile = profiles::maxpool_bits(os.pixels(), s.c, geom.size);
    q.launch(profile, || compute_maxpool_bits(input, geom, out));
}

/// Functional body of float max pooling.
pub fn compute_maxpool_f32(input: &Tensor<f32>, geom: &PoolGeometry, out: &mut Tensor<f32>) {
    let s = input.shape();
    let os = out.shape();
    for n in 0..os.n {
        for oy in 0..os.h {
            for ox in 0..os.w {
                for c in 0..os.c {
                    let mut m = f32::NEG_INFINITY;
                    for i in 0..geom.size {
                        for j in 0..geom.size {
                            let iy = oy * geom.stride + i;
                            let ix = ox * geom.stride + j;
                            if iy < s.h && ix < s.w {
                                m = m.max(input.at(n, iy, ix, c));
                            }
                        }
                    }
                    out.set(n, oy, ox, c, m);
                }
            }
        }
    }
}

/// Dispatches float max pooling.
pub fn maxpool_f32(q: &mut CommandQueue, input: &Tensor<f32>, geom: &PoolGeometry) -> Tensor<f32> {
    let s = input.shape();
    let (oh, ow) = geom.output_hw(s.h, s.w);
    let os = Shape4::new(s.n, oh, ow, s.c);
    let mut out = Tensor::<f32>::zeros(os, Layout::Nhwc);
    let profile = profiles::maxpool_f32(os.pixels(), s.c, geom.size);
    q.launch(profile, || compute_maxpool_f32(input, geom, &mut out));
    out
}

/// Functional body of float average pooling (global or windowed).
pub fn compute_avgpool_f32(input: &Tensor<f32>, geom: &PoolGeometry, out: &mut Tensor<f32>) {
    let s = input.shape();
    let os = out.shape();
    for n in 0..os.n {
        for oy in 0..os.h {
            for ox in 0..os.w {
                for c in 0..os.c {
                    let mut sum = 0.0;
                    let mut cnt = 0usize;
                    for i in 0..geom.size {
                        for j in 0..geom.size {
                            let iy = oy * geom.stride + i;
                            let ix = ox * geom.stride + j;
                            if iy < s.h && ix < s.w {
                                sum += input.at(n, iy, ix, c);
                                cnt += 1;
                            }
                        }
                    }
                    out.set(n, oy, ox, c, sum / cnt as f32);
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use phonebit_gpusim::{DeviceProfile, ExecutorClass};
    use phonebit_tensor::pack::{pack_f32, unpack_f32};
    use proptest::prelude::*;

    fn queue() -> CommandQueue {
        CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
    }

    fn pm1(shape: Shape4, seed: usize) -> Tensor<f32> {
        Tensor::from_fn(shape, |n, h, w, c| {
            if (n + h * 3 + w * 7 + c * 11 + seed).is_multiple_of(4) {
                1.0
            } else {
                -1.0
            }
        })
    }

    #[test]
    fn bit_maxpool_equals_float_maxpool_on_binarized() {
        // The key pooling identity: OR on packed bits == max on +-1 floats.
        for (h, w, c) in [(4, 4, 5), (6, 8, 33), (5, 5, 64)] {
            let t = pm1(Shape4::new(1, h, w, c), h + w + c);
            let geom = PoolGeometry::new(2, 2);
            let mut q = queue();
            let bits = maxpool_bits(&mut q, &pack_f32::<u64>(&t), &geom);
            let floats = maxpool_f32(&mut q, &t, &geom);
            assert_eq!(
                unpack_f32(&bits).as_slice(),
                floats.as_slice(),
                "h={h} w={w} c={c}"
            );
            assert!(bits.tail_is_clean());
        }
    }

    #[test]
    fn stride_one_pooling_keeps_size_minus_window() {
        // YOLOv2-Tiny pool6: 2x2 window, stride 1 over 13x13 -> 12x12.
        let t = pm1(Shape4::new(1, 13, 13, 8), 0);
        let geom = PoolGeometry::new(2, 1);
        let mut q = queue();
        let out = maxpool_bits(&mut q, &pack_f32::<u8>(&t), &geom);
        assert_eq!(out.shape().h, 12);
        assert_eq!(out.shape().w, 12);
    }

    #[test]
    fn float_maxpool_values() {
        let t = Tensor::from_fn(Shape4::new(1, 2, 2, 1), |_, h, w, _| (h * 2 + w) as f32);
        let mut q = queue();
        let out = maxpool_f32(&mut q, &t, &PoolGeometry::new(2, 2));
        assert_eq!(out.shape(), Shape4::new(1, 1, 1, 1));
        assert_eq!(out.at(0, 0, 0, 0), 3.0);
    }

    #[test]
    fn avgpool_averages() {
        let t = Tensor::from_fn(Shape4::new(1, 2, 2, 1), |_, h, w, _| (h * 2 + w) as f32);
        let mut out = Tensor::<f32>::zeros(Shape4::new(1, 1, 1, 1), Layout::Nhwc);
        compute_avgpool_f32(&t, &PoolGeometry::new(2, 2), &mut out);
        assert_eq!(out.at(0, 0, 0, 0), 1.5);
    }

    #[test]
    fn pool_kernels_reach_timeline() {
        let t = pm1(Shape4::new(1, 4, 4, 16), 1);
        let mut q = queue();
        let _ = maxpool_bits(&mut q, &pack_f32::<u16>(&t), &PoolGeometry::new(2, 2));
        let _ = maxpool_f32(&mut q, &t, &PoolGeometry::new(2, 2));
        let names: Vec<_> = q.timeline().iter().map(|e| e.stats.name).collect();
        assert_eq!(names, vec!["maxpool_bits", "maxpool_f32"]);
    }

    /// The nested-loop body the row-slice OR replaced — per output pixel
    /// and window tap a `pixel_offset` and one indexed OR per word — kept as
    /// the oracle.
    pub(crate) fn nested_loop_maxpool<W: BitWord>(
        input: &BitTensor<W>,
        geom: &PoolGeometry,
        out: &mut BitTensor<W>,
    ) {
        let (s, os, wpp) = (input.shape(), out.shape(), input.words_per_pixel());
        for (n, oy, ox) in (0..os.pixels()).map(|p| (p / (os.h * os.w), p / os.w % os.h, p % os.w))
        {
            let base = out.pixel_offset(n, oy, ox);
            for (i, j) in (0..geom.size).flat_map(|i| (0..geom.size).map(move |j| (i, j))) {
                let (iy, ix) = (oy * geom.stride + i, ox * geom.stride + j);
                if iy >= s.h || ix >= s.w {
                    continue;
                }
                let src = input.pixel_offset(n, iy, ix);
                for t in 0..wpp {
                    let merged = out.as_words()[base + t].or(input.as_words()[src + t]);
                    out.as_mut_words()[base + t] = merged;
                }
            }
        }
    }

    /// [`compute_maxpool_bits`] with the shape hidden from the compiler: the
    /// runtime-shape arm of [`or_pool_row`], kept to time the instances
    /// against.
    pub(crate) fn runtime_shape_maxpool<W: BitWord>(
        input: &BitTensor<W>,
        geom: &PoolGeometry,
        out: &mut BitTensor<W>,
    ) {
        let (s, os, wpp) = (input.shape(), out.shape(), input.words_per_pixel());
        let (size, stride) = std::hint::black_box((geom.size, geom.stride));
        let row = s.w * wpp;
        for (at, dst) in out.as_mut_words().chunks_exact_mut(os.w * wpp).enumerate() {
            let (n, oy) = (at / os.h, at % os.h);
            dst.fill(W::zero());
            for iy in oy * stride..oy * stride + size {
                let src = &input.as_words()[(n * s.h + iy) * row..][..row];
                or_windows(dst, src, std::hint::black_box(wpp), size, stride);
            }
        }
    }

    fn row_slice_pool_case<W: BitWord>(s: Shape4, geom: &PoolGeometry, seed: u64) {
        let t = Tensor::from_fn(s, |n, h, w, c| {
            let x = seed ^ (((n * 131 + h) * 137 + w) * 139 + c) as u64;
            if x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1 {
                1.0
            } else {
                -1.0
            }
        });
        let input = pack_f32::<W>(&t);
        let (oh, ow) = geom.output_hw(s.h, s.w);
        let mut want = BitTensor::<W>::zeros(Shape4::new(s.n, oh, ow, s.c));
        nested_loop_maxpool(&input, geom, &mut want);
        // Stale words everywhere: the row body must write every one.
        let mut got = BitTensor::<W>::zeros(want.shape());
        got.as_mut_words().fill(W::zero().not());
        compute_maxpool_bits(&input, geom, &mut got);
        assert_eq!(got, want, "{} {s:?} {geom:?}", W::CL_NAME);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn row_slice_pool_equals_nested_loop(
            n in 1usize..3,
            h in 1usize..10,
            w in 1usize..12,
            c in prop::sample::select(vec![1usize, 3, 8, 16, 33, 64, 70, 130]),
            size in 1usize..4,
            stride in 1usize..4,
            seed in any::<u64>(),
        ) {
            if size <= h && size <= w {
                let (s, geom) = (Shape4::new(n, h, w, c), PoolGeometry::new(size, stride));
                row_slice_pool_case::<u8>(s, &geom, seed);
                row_slice_pool_case::<u16>(s, &geom, seed);
                row_slice_pool_case::<u32>(s, &geom, seed);
                row_slice_pool_case::<u64>(s, &geom, seed);
            }
        }
    }

    /// Every `or_pool_row` instance, and shapes that take its runtime arm,
    /// at all four word widths: channels that fill the instance's `wpp`
    /// words and channels that leave tail bits in the last one, input
    /// widths with and without a column no window reads.
    #[test]
    fn every_pool_instance_equals_nested_loop() {
        fn at_width<W: BitWord>(wpp: usize, size: usize, stride: usize) {
            let geom = PoolGeometry::new(size, stride);
            for c in [wpp * W::BITS, wpp * W::BITS - 3] {
                for w in [size + 3 * stride, size + 3 * stride + 1] {
                    let s = Shape4::new(2, size + stride + 1, w, c);
                    row_slice_pool_case::<W>(s, &geom, (wpp * 31 + c * 7 + w) as u64);
                }
            }
        }
        // The instances, then runtime arms: VGG16's 512-channel 2×2/2,
        // AlexNet's 3×3/2, a 3×3/3 window, three words.
        for (wpp, size, stride) in [
            (1, 2, 2),
            (2, 2, 2),
            (4, 2, 2),
            (8, 2, 1),
            (8, 2, 2),
            (2, 3, 2),
            (1, 3, 3),
            (3, 2, 2),
        ] {
            at_width::<u8>(wpp, size, stride);
            at_width::<u16>(wpp, size, stride);
            at_width::<u32>(wpp, size, stride);
            at_width::<u64>(wpp, size, stride);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pool_size_panics() {
        PoolGeometry::new(0, 1);
    }
}
