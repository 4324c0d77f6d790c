//! The first layer on the host: Eqn (2)'s sum as a byte dot product.
//!
//! The phone sums eight bit-planes' masked popcounts (§III-B,
//! [`super::bitplane`]); that sum is `s = Σ x·w` with `x ∈ [0, 255]` and
//! `w ∈ {±1}`, which a host CPU computes directly. The plan, its
//! `bitplane_split` launch and every modeled number stay the phone's.
//!
//! - **Lanes are filters**: sixteen `i32` lanes, each lane word of the
//!   staged [`ByteBank`] four taps' `±1` weights as `s8` bytes in NHWC order,
//!   zero past a window row's `kw·c` bytes.
//! - **The input** is a per-worker `ByteRing` of the `kh` zero-padded rows
//!   under the output row (a padded byte is a zero byte, which is what zero
//!   padding of a `u8` image means), rolled `stride_h` rows per output row.
//! - **A step** broadcasts four input bytes into one `vpdpbusd` (the AVX-512
//!   VNNI frame), `vpmaddubsw` + `vpmaddwd` (AVX2: a byte pair sums to at
//!   most 510, so it cannot saturate) or a scalar loop.
//! - **The cut** is `PlaneCuts`' rule in-register: `s − lo ≥ 0` gives a
//!   16-bit mask, which [`BitSink`] ORs into the output word once.
//! - **The zoo's RGB 3×3 stride-1 layers** run `row_vnni_rgb3` on VNNI:
//!   nine bank vectors in registers, sixteen columns per block at constant
//!   offsets. Other shapes take the runtime frames.
//!
//! The frames are safe `#[target_feature]` functions, inside which value
//! intrinsics are safe; `isa::byte_row` enters one.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use phonebit_gpusim::exec::par_chunks_mut_with;
use phonebit_tensor::bits::{BitTensor, BitWord, PackedFilters};
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Shape4};
use phonebit_tensor::tensor::Tensor;

use crate::fuse::{BitSink, PlaneCuts, PlaneSink};
use crate::kernels::bitplane::PLANE_LANES;
use crate::kernels::isa;

/// A lane word: filter `l`'s four `s8` weights in lane `l`, little end first.
type Lanes = [i32; PLANE_LANES];

/// A first layer's filters staged for the byte dot (module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ByteBank {
    shape: FilterShape,
    /// Lane words per window row: `kw·c` taps, four to a word.
    steps: usize,
    lanes: Vec<Lanes>,
}

impl ByteBank {
    /// Stages `filters`: bit set → `+1`, clear → `−1`.
    pub fn new<W: BitWord>(filters: &PackedFilters<W>) -> Self {
        let shape = filters.shape();
        let row = shape.kw * shape.c;
        let steps = row.div_ceil(4);
        let mut lanes = vec![[0; PLANE_LANES]; shape.k.div_ceil(PLANE_LANES) * shape.kh * steps];
        for k in 0..shape.k {
            for (i, at) in (0..shape.kh).flat_map(|i| (0..row).map(move |at| (i, at))) {
                let bit = filters.get_bit(k, i, at / shape.c, at % shape.c);
                let word = (k / PLANE_LANES * shape.kh + i) * steps + at / 4;
                lanes[word][k % PLANE_LANES] |= ((2 * i32::from(bit) - 1) & 0xff) << (8 * (at % 4));
            }
        }
        Self {
            shape,
            steps,
            lanes,
        }
    }

    /// Group `g`'s lane words, window row by window row.
    #[inline(always)]
    fn group(&self, g: usize) -> &[Lanes] {
        let words = self.shape.kh * self.steps;
        &self.lanes[g * words..][..words]
    }
}

/// A worker's scratch for one dispatch: the `kh` zero-padded input rows
/// under the output row in flight, in order, each `(w + 2·pad_w)·c` bytes,
/// and three zeros for the last step's read past the last row's windows.
/// Row `i` of a window sits `i` rows past its first, so a window is one
/// slice.
#[derive(Debug)]
pub(crate) struct ByteRing<'a> {
    bank: &'a ByteBank,
    geom: ConvGeometry,
    /// The NHWC input's shape.
    s: Shape4,
    /// Output columns per row.
    ow: usize,
    bytes: Vec<u8>,
    row_len: usize,
    /// Per bank lane word, where its four bytes sit in a window.
    taps: Vec<usize>,
    /// The `(image, output row)` the rows sit under, so the next row down
    /// rolls them up `stride_h` rows instead of copying all `kh`.
    holds: Option<(usize, usize)>,
}

impl<'a> ByteRing<'a> {
    /// Scratch for `bank`'s windows over an NHWC input of shape `s`.
    pub(crate) fn new(bank: &'a ByteBank, geom: &ConvGeometry, s: Shape4) -> Self {
        let (kh, steps) = (bank.shape.kh, bank.steps);
        let row_len = (s.w + 2 * geom.pad_w) * s.c;
        let taps = (0..kh * steps).map(|t| t / steps * row_len + t % steps * 4);
        Self {
            bank,
            geom: *geom,
            s,
            ow: geom.output_hw(s.h, s.w).1,
            bytes: vec![0; kh * row_len + 3],
            row_len,
            taps: taps.collect(),
            holds: None,
        }
    }

    /// `(kh, lane words per window row, stride_w·c, ow)`: the shape
    /// [`isa::byte_row`] matches instances on.
    pub(crate) fn shape(&self) -> (usize, usize, usize, usize) {
        let (kh, steps) = (self.bank.shape.kh, self.bank.steps);
        (kh, steps, self.geom.stride_w * self.s.c, self.ow)
    }

    /// Decides output row `(n, oy)` of `image` into `sink`: brings in the
    /// padded rows under it, then enters one [`isa::byte_row`] frame.
    pub(crate) fn decide_row<W: BitWord>(
        &mut self,
        image: &[u8],
        (n, oy): (usize, usize),
        sink: &mut BitSink<'_, W, PlaneCuts>,
    ) {
        let (s, geom, kh) = (self.s, self.geom, self.bank.shape.kh);
        let (len, row_len) = (s.w * s.c, self.row_len);
        let fresh = if self.holds == Some((n, oy.wrapping_sub(1))) && geom.stride_h < kh {
            self.bytes
                .copy_within(geom.stride_h * row_len..kh * row_len, 0);
            kh - geom.stride_h..kh
        } else {
            0..kh
        };
        self.holds = Some((n, oy));
        for i in fresh {
            let dst = &mut self.bytes[i * row_len + geom.pad_w * s.c..][..len];
            match (oy * geom.stride_h + i)
                .checked_sub(geom.pad_h)
                .filter(|&iy| iy < s.h)
            {
                Some(iy) => dst.copy_from_slice(&image[(n * s.h + iy) * len..][..len]),
                None => dst.fill(0),
            }
        }
        isa::byte_row(self, sink);
    }
}

/// The loop every frame shares: per block of `P` output columns and
/// filter group, folds `step(acc, four input bytes, lane word)` over each
/// pixel's window from `zero`, then hands `emit(ox, k0, acc)` the sums of
/// filters `k0..k0 + 16` at column `ox`. A last, partial block repeats its
/// last column and emits it once. `P` accumulators are independent
/// chains, which a dot-product instruction's latency needs.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn each_window<const P: usize, A: Copy>(
    ring: &ByteRing<'_>,
    zero: A,
    step: impl Fn(A, i32, &Lanes) -> A,
    mut emit: impl FnMut(usize, usize, A),
) {
    let (bank, ow) = (ring.bank, ring.ow);
    let len = (bank.shape.kh - 1) * ring.row_len + 4 * bank.steps;
    for ox0 in (0..ow).step_by(P) {
        let mut xs = [&ring.bytes[..0]; P];
        for p in 0..P {
            let at = (ox0 + p).min(ow - 1) * ring.geom.stride_w * ring.s.c;
            xs[p] = &ring.bytes[at..][..len];
        }
        for g in 0..bank.shape.k.div_ceil(PLANE_LANES) {
            let mut acc = [zero; P];
            for (w, &at) in bank.group(g).iter().zip(&ring.taps) {
                for p in 0..P {
                    let x = &xs[p][at..at + 4];
                    acc[p] = step(acc[p], i32::from_le_bytes([x[0], x[1], x[2], x[3]]), w);
                }
            }
            for p in 0..P.min(ow - ox0) {
                emit(ox0 + p, g * PLANE_LANES, acc[p]);
            }
        }
    }
}

/// The scalar frame (portable and `popcnt` tiers): the sums through
/// [`PlaneSink::put_sums`].
pub(crate) fn row_portable<W: BitWord>(ring: &ByteRing<'_>, sink: &mut BitSink<'_, W, PlaneCuts>) {
    let step = |mut acc: Lanes, x: i32, w: &Lanes| {
        let x = x.to_le_bytes();
        for (a, w) in acc.iter_mut().zip(w) {
            for (&w, &x) in w.to_le_bytes().iter().zip(&x) {
                *a += i32::from(w as i8) * i32::from(x);
            }
        }
        acc
    };
    let emit = |ox, k0, sums| sink.put_sums(ox, k0, 0, &sums);
    each_window::<4, _>(ring, [0; PLANE_LANES], step, emit);
}

/// The AVX2 frame: each half of the sixteen lanes is one `ymm`;
/// `vpmaddubsw` sums byte pairs to `i16`, `vpmaddwd` those pairs to `i32`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) fn row_avx2<W: BitWord>(ring: &ByteRing<'_>, sink: &mut BitSink<'_, W, PlaneCuts>) {
    let half = |w: &Lanes, h: usize| {
        let w = &w[8 * h..];
        _mm256_set_epi32(w[7], w[6], w[5], w[4], w[3], w[2], w[1], w[0])
    };
    let ones = _mm256_set1_epi16(1);
    let step = |acc: [__m256i; 2], x: i32, w: &Lanes| {
        let x = _mm256_set1_epi32(x);
        let dot = |h| _mm256_madd_epi16(_mm256_maddubs_epi16(x, half(w, h)), ones);
        [
            _mm256_add_epi32(acc[0], dot(0)),
            _mm256_add_epi32(acc[1], dot(1)),
        ]
    };
    let emit = |ox, k0, acc: [__m256i; 2]| {
        // The sign bits of `s − lo`, inverted: `s − lo ≥ 0`.
        let lo = sink.lo(k0);
        let on = |h: usize| {
            let d = _mm256_sub_epi32(acc[h], half(lo, h));
            !_mm256_movemask_ps(_mm256_castsi256_ps(d)) as u32 & 0xff
        };
        sink.put_mask(ox, k0, on(0) | on(1) << 8);
    };
    each_window::<4, _>(ring, [_mm256_setzero_si256(); 2], step, emit);
}

/// The AVX-512 VNNI frame: one `vpdpbusd` per four taps on a `zmm` of
/// sixteen filters, the cut one `vpcmpd` into a mask register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512bw,avx512vl,avx512vnni")]
pub(crate) fn row_vnni<W: BitWord>(ring: &ByteRing<'_>, sink: &mut BitSink<'_, W, PlaneCuts>) {
    let step = |acc, x, w: &Lanes| _mm512_dpbusd_epi32(acc, _mm512_set1_epi32(x), lanes512(w));
    let emit = |ox, k0, acc| {
        let d = _mm512_sub_epi32(acc, lanes512(sink.lo(k0)));
        let mask = _mm512_cmpge_epi32_mask(d, _mm512_setzero_si512());
        sink.put_mask(ox, k0, u32::from(mask));
    };
    each_window::<8, _>(ring, _mm512_setzero_si512(), step, emit);
}

/// Output columns per block of [`row_vnni_rgb3`].
const RGB3_PIXELS: usize = 16;

/// Bytes of one window row under a block of [`row_vnni_rgb3`]: sixteen
/// windows three bytes apart, the last one's three lane words.
const RGB3_SPAN: usize = 3 * (RGB3_PIXELS - 1) + 12;

/// [`row_vnni`] at the zoo's RGB 3×3 stride-1 first layers —
/// [`ByteRing::shape`] `(3, 3, 3, ow ≥ 16)`: YOLOv2-Tiny, YOLO-micro,
/// AlexNet-micro, VGG16 `conv1_1`, any filter count. Per group the nine
/// bank vectors stay in registers across the row; sixteen columns per
/// block, each window row one `[u8; 57]` read at constant offsets, the
/// accumulators passed by value. When `ow % 16 != 0` the last block
/// overlaps the one before it: its repeated columns OR the same bits again.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512bw,avx512vl,avx512vnni")]
#[allow(clippy::needless_range_loop)]
pub(crate) fn row_vnni_rgb3<W: BitWord>(ring: &ByteRing<'_>, sink: &mut BitSink<'_, W, PlaneCuts>) {
    // One window row of the block: pixel `p`'s lane word `t` sits at `3p + 4t`.
    let block_row = |mut acc: [__m512i; RGB3_PIXELS], x: &[u8; RGB3_SPAN], w: [__m512i; 3]| {
        for p in 0..RGB3_PIXELS {
            for (t, &w) in w.iter().enumerate() {
                let at = 3 * p + 4 * t;
                let x = i32::from_le_bytes([x[at], x[at + 1], x[at + 2], x[at + 3]]);
                acc[p] = _mm512_dpbusd_epi32(acc[p], _mm512_set1_epi32(x), w);
            }
        }
        acc
    };
    let (bank, ow, row_len) = (ring.bank, ring.ow, ring.row_len);
    for g in 0..bank.shape.k.div_ceil(PLANE_LANES) {
        let k0 = g * PLANE_LANES;
        let w: &[Lanes; 9] = bank.group(g).try_into().expect("three rows of three words");
        let w0 = [lanes512(&w[0]), lanes512(&w[1]), lanes512(&w[2])];
        let w1 = [lanes512(&w[3]), lanes512(&w[4]), lanes512(&w[5])];
        let w2 = [lanes512(&w[6]), lanes512(&w[7]), lanes512(&w[8])];
        let lo = lanes512(sink.lo(k0));
        for ox0 in (0..ow)
            .step_by(RGB3_PIXELS)
            .map(|ox0| ox0.min(ow - RGB3_PIXELS))
        {
            let x = |i: usize| -> &[u8; RGB3_SPAN] {
                let at = i * row_len + 3 * ox0;
                ring.bytes[at..][..RGB3_SPAN]
                    .try_into()
                    .expect("a block's window row")
            };
            let acc = [_mm512_setzero_si512(); RGB3_PIXELS];
            let acc = block_row(block_row(block_row(acc, x(0), w0), x(1), w1), x(2), w2);
            let mut masks = [0; RGB3_PIXELS];
            for (m, &acc) in masks.iter_mut().zip(&acc) {
                let d = _mm512_sub_epi32(acc, lo);
                *m = u32::from(_mm512_cmpge_epi32_mask(d, _mm512_setzero_si512()));
            }
            sink.put_masks(ox0, k0, &masks);
        }
    }
}

/// A lane word as one `zmm`: filter `l`'s four weights in lane `l`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) fn lanes512(w: &Lanes) -> __m512i {
    #[rustfmt::skip]
    let v = _mm512_set_epi32(
        w[15], w[14], w[13], w[12], w[11], w[10], w[9], w[8],
        w[7], w[6], w[5], w[4], w[3], w[2], w[1], w[0],
    );
    v
}

/// Functional body of the host first layer: one row task per output row,
/// the input ring owned by the worker, decided by the staged `cuts`. Output
/// bits are OR-ed in — `out` must come in zeroed at the output shape.
pub fn compute_byte_conv<W: BitWord>(
    image: &Tensor<u8>,
    bank: &ByteBank,
    cuts: &PlaneCuts,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let (s, image) = (image.shape(), image.nhwc());
    let (os, wpp) = (out.shape(), out.words_per_pixel());
    par_chunks_mut_with(
        out.as_mut_words(),
        os.w * wpp,
        || ByteRing::new(bank, geom, s),
        |ring, row_idx, span| {
            let at = (row_idx / os.h, row_idx % os.h);
            ring.decide_row(image.as_slice(), at, &mut BitSink::new(cuts, span, wpp));
        },
    );
}
