//! Thin binary layers at their packing width (§V-A.2): a 3×3 stride-1
//! convolution of `C = 16` or `32` channels runs one pixel per lane, as the
//! phone packs it in `ushort`/`uint` words.
//!
//! - A [`TapBank`] holds, per group of `L = 512 / C` filters, the cut vector
//!   and one vector per tap, lane `l` filter `g·L + l`'s tap bits.
//! - A worker's `TapRing` holds the three zero-padded rows under the output
//!   row, one `u32` per pixel — at `C = 16` its bits twice, so a dword
//!   broadcast fills every `u16` lane — rolled a row per output row.
//! - A tap is one `vpxord` with the pixel broadcast `{1to16}`, one
//!   `vpopcntw`/`vpopcntd` and one add; padding is zero and `xor(0, w) = w`.
//! - The cut is `Cuts`' rule moved to the lane's top bit (exact under
//!   2^15-bit windows; 3×3×32 is 288), staged as the accumulators' start: a
//!   lane fires iff it ends non-negative, one compare into a mask register.
//!
//! The frames hold a group's nine tap vectors in registers and fold one
//! column's window into one accumulator, cut and stored before the next
//! (sixteen columns in sixteen accumulators passed by value stayed on the
//! stack: 1.5× slower). `isa::tap_row` enters them.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use phonebit_tensor::bits::{BitTensor, BitWord};
use phonebit_tensor::dict::FilterAccess;
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Shape4};

use crate::fuse::{Cuts, FusedBn};
#[cfg(target_arch = "x86_64")]
use crate::kernels::bytedot::lanes512;
use crate::kernels::isa;

/// Vectors per filter group: the accumulators' start, then the nine taps.
const GROUP: usize = 10;

/// A thin 3×3 layer's filters and cuts at their packing width (module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct TapBank {
    shape: FilterShape,
    lanes: Vec<[i32; 16]>,
}

impl TapBank {
    /// Whether filters `fs` under `geom` run this body on this CPU: 3×3
    /// stride 1 over 16 or 32 channels, on a tier with that lane popcount.
    pub fn fits(fs: FilterShape, geom: &ConvGeometry) -> bool {
        let shape = (fs.kh, fs.kw, geom.stride_h, geom.stride_w) == (3, 3, 1, 1);
        shape && isa::lane_popcount(fs.c)
    }

    /// Stages `filters` (a dictionary read through once) with the cuts of
    /// `fused`. `filters` must [`fit`](Self::fits).
    pub fn new<W: BitWord>(filters: &impl FilterAccess<W>, fused: &FusedBn) -> Self {
        let shape = filters.shape();
        let (c, cuts) = (shape.c, Cuts::new(fused, shape.filter_len()));
        let per = 512 / c;
        let mut lanes = vec![[0; 16]; shape.k.div_ceil(per) * GROUP];
        for k in 0..lanes.len() / GROUP * per {
            let group = &mut lanes[k / per * GROUP..][..GROUP];
            let (slot, shift, mask) = (k % per * c / 32, k % per * c % 32, u64::MAX >> (64 - c));
            let start = cuts.lane_cut(k, c - 1).wrapping_neg() & mask;
            group[0][slot] |= (start << shift) as i32;
            for (t, lane) in group[1..].iter_mut().enumerate().filter(|_| k < shape.k) {
                lane[slot] |= (pixel_bits(filters.tap_words(k, t / 3, t % 3)) << shift) as i32;
            }
        }
        Self { shape, lanes }
    }
}

/// A pixel's (or tap's) `C ≤ 32` channel bits from its packed words.
#[inline(always)]
fn pixel_bits<W: BitWord>(words: &[W]) -> u64 {
    let at = |(i, w): (usize, &W)| w.widen() << (i * W::BITS);
    words.iter().enumerate().map(at).fold(0, |v, w| v | w)
}

/// A worker's scratch for one dispatch (module docs).
#[derive(Debug)]
pub(crate) struct TapRing<'a> {
    bank: &'a TapBank,
    geom: ConvGeometry,
    /// The input's shape.
    pub(crate) s: Shape4,
    /// Output columns, and entries per padded row.
    ow: usize,
    len: usize,
    rows: Vec<u32>,
    /// The `(image, output row)` the rows sit under.
    holds: Option<(usize, usize)>,
}

impl<'a> TapRing<'a> {
    /// Scratch for `bank`'s windows over an input of shape `s`.
    pub(crate) fn new(bank: &'a TapBank, geom: &ConvGeometry, s: Shape4) -> Self {
        let (ow, len) = (geom.output_hw(s.h, s.w).1, s.w + 2 * geom.pad_w);
        let (geom, rows, holds) = (*geom, vec![0; 3 * len], None);
        Self {
            bank,
            geom,
            s,
            ow,
            len,
            rows,
            holds,
        }
    }

    /// Decides output row `(n, oy)` of `input` into `row`, zeroed whole
    /// pixels of `wpp` words: rolls the padded rows under it in, then enters
    /// one [`isa::tap_row`] frame.
    pub(crate) fn decide_row<W: BitWord>(
        &mut self,
        input: &BitTensor<W>,
        (n, oy): (usize, usize),
        row: &mut [W],
        wpp: usize,
    ) {
        let (s, geom, len) = (self.s, self.geom, self.len);
        let rolls = self.holds == Some((n, oy.wrapping_sub(1)));
        if rolls {
            self.rows.copy_within(len.., 0);
        }
        self.holds = Some((n, oy));
        let double = if s.c == 16 { 0x1_0001 } else { 1 };
        for i in if rolls { 2..3 } else { 0..3 } {
            let dst = &mut self.rows[i * len + geom.pad_w..][..s.w];
            match (oy + i).checked_sub(geom.pad_h).filter(|&iy| iy < s.h) {
                Some(iy) => {
                    let src = &input.as_words()[input.pixel_offset(n, iy, 0)..];
                    for (d, pixel) in dst
                        .iter_mut()
                        .zip(src.chunks_exact(input.words_per_pixel()))
                    {
                        *d = pixel_bits(pixel) as u32 * double;
                    }
                }
                None => dst.fill(0),
            }
        }
        isa::tap_row(self, row, wpp);
    }
}

/// The loop both frames share: per filter group its start and nine tap
/// vectors `load`ed once; per output column the window folded through
/// `tap(acc, pixel, tap vector)`, `cut(acc)` ORed in at filter `g·L`.
#[inline(always)]
fn each_window<W: BitWord, V: Copy, const L: usize>(
    ring: &TapRing<'_>,
    (row, wpp): (&mut [W], usize),
    load: impl Fn(&[i32; 16]) -> V,
    tap: impl Fn(V, u32, V) -> V,
    cut: impl Fn(V) -> u64,
) {
    let (r0, rest) = ring.rows.split_at(ring.len);
    let (r1, r2) = rest.split_at(ring.len);
    for (g, v) in ring.bank.lanes.chunks_exact(GROUP).enumerate() {
        let k0 = g * L;
        let start = load(&v[0]);
        let w0 = [load(&v[1]), load(&v[2]), load(&v[3])];
        let w1 = [load(&v[4]), load(&v[5]), load(&v[6])];
        let w2 = [load(&v[7]), load(&v[8]), load(&v[9])];
        let fold =
            |acc, x: &[u32], w: [V; 3]| tap(tap(tap(acc, x[0], w[0]), x[1], w[1]), x[2], w[2]);
        for (ox, pixel) in row.chunks_exact_mut(wpp).take(ring.ow).enumerate() {
            let acc = fold(fold(start, &r0[ox..ox + 3], w0), &r1[ox..ox + 3], w1);
            let word = cut(fold(acc, &r2[ox..ox + 3], w2)) << (k0 % W::BITS);
            let slots = pixel[k0 / W::BITS..].iter_mut().take(L.div_ceil(W::BITS));
            for (i, slot) in slots.enumerate() {
                *slot = slot.or(W::truncate(word >> (i * W::BITS)));
            }
        }
    }
}

/// The `C = 16` frame: 32 filters per `zmm` as `u16` lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512bitalg")]
pub(crate) fn row16<W: BitWord>(ring: &TapRing<'_>, row: &mut [W], wpp: usize) {
    let tap = |acc, x: u32, w| {
        let d = _mm512_xor_si512(_mm512_set1_epi32(x as i32), w);
        _mm512_add_epi16(acc, _mm512_popcnt_epi16(d))
    };
    let cut = |acc| u64::from(_mm512_cmpge_epi16_mask(acc, _mm512_setzero_si512()));
    each_window::<W, _, 32>(ring, (row, wpp), |w| lanes512(w), tap, cut);
}

/// The `C = 32` frame: 16 filters per `zmm` as `u32` lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vpopcntdq")]
pub(crate) fn row32<W: BitWord>(ring: &TapRing<'_>, row: &mut [W], wpp: usize) {
    let tap = |acc, x: u32, w| {
        let d = _mm512_xor_si512(_mm512_set1_epi32(x as i32), w);
        _mm512_add_epi32(acc, _mm512_popcnt_epi32(d))
    };
    let cut = |acc| u64::from(_mm512_cmpge_epi32_mask(acc, _mm512_setzero_si512()));
    each_window::<W, _, 16>(ring, (row, wpp), |w| lanes512(w), tap, cut);
}
