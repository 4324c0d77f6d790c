//! The tiled binary-convolution hot path: one zero-padded window gather and
//! one lanes-are-outputs microkernel behind every binary convolution.
//!
//! The naive kernel (kept as
//! [`compute_bconv_fused_reference`](crate::kernels::bconv::compute_bconv_fused_reference))
//! walks `K × kh × kw` tap spans per output pixel, re-slicing the same input
//! words once **per filter** and bounds-checking every tap. This module
//! restructures that work around the paper's §VI-A/B principles:
//!
//! 1. **What is interleaved.** A layer's filters are staged once as a
//!    [`LaneBank`]: per group of [`LANES`] adjacent filters and per row word
//!    `t`, word `t` of those eight filters side by side. The microkernel
//!    (`lanes_tile`) is `acc[p][g] += popcount(splat(win[p][t]) ^ bank[g][t])`
//!    over a [`TILE_PIXELS`]-window × `TILE_GROUPS`-group register tile, so
//!    a lane *is* an output: no horizontal reduce, no `len % 8` tail words
//!    (every `t` is a full vector), no scalar filter tail (lanes past `K` are
//!    zero and never fire), and a fused layer decides on the lanes (Fig 4's
//!    8 filters per work item): one `u64` compare per group against
//!    `fuse::Cuts`, one stored word per 64 filters.
//!    Every loaded bank vector is reused [`TILE_PIXELS`] times, every
//!    broadcast window word `TILE_GROUPS` times.
//! 2. **Bit and word order.** Windows and bank rows must agree, nothing
//!    more. The direct routes gather a window ([`WindowGather`]) in filter
//!    raster order — tap `(i, j)` at word `(i·kw + j)·words_per_tap`, each
//!    tap padded to whole words, exactly
//!    [`PackedFilters::filter_words`](phonebit_tensor::bits::PackedFilters::filter_words)
//!    — and the lowered route multiplies `pack_windows` rows, the dense
//!    `(i, j, c)` bit run, against the interleaved `flatten_filters` rows
//!    ([`tile_filters`]); both are [`LaneBank::new`] over a bank's flat
//!    windows.
//! 3. **Why padding needs no special case.** The gather zero-fills
//!    out-of-bounds taps, and `xor(0, w) = w`: a padding tap disagrees
//!    `popcount(w)` times, which is what an all-(−1) activation tap means.
//!    Border pixels — over a quarter of a 13×13 layer — run the same loop as
//!    interior ones; there is no interior/border split of the dot product
//!    and no padding-correction table.
//! 4. **Which tile.** 4 pixels × 2 groups: eight accumulators, two bank
//!    vectors and the broadcasts fit the register file with room to spare.
//!    Measured against the kernel this replaced, sample by sample in one
//!    process on 9- to 144-word windows (verify skill, "Gotchas"): 4 × 2
//!    and 2 × 4 within ±5 % of each other everywhere, 4 × 4 a little behind
//!    both, and 2 × 2 — which re-reads the bank twice as often — keeping
//!    1.2× of a 2.1× gain on 72-word windows.
//!
//! A dictionary-compressed bank is read through once, when its layer's
//! [`LaneBank`] is staged: the dictionary is what the modeled device stores
//! and reads, the host multiplies the same interleaved lanes either way.
//!
//! **Host ISA tiers.** [`conv_row_tiled`] and [`tile_filters`] run under the
//! best instruction set the CPU reports ([`isa`]): once per row task the call
//! crosses a `#[target_feature]` frame, and everything below it is
//! `#[inline(always)]`, so one source is compiled once per tier — the hot
//! loop is four `vpbroadcastq`s and eight `vpxorq` / `vpopcntq` / `vpaddq`
//! per word index where the baseline target would spend ~15 bit-twiddling
//! operations per word.

use phonebit_tensor::bits::{BitTensor, BitWord};
use phonebit_tensor::lanes::{LaneBank, LANES};
use phonebit_tensor::shape::ConvGeometry;

use crate::fuse::TileSink;
use crate::kernels::isa;

/// Output pixels multiplied per microkernel step (accumulator tile width).
pub const TILE_PIXELS: usize = 4;
/// Filter groups multiplied per microkernel step (accumulator tile height).
const TILE_GROUPS: usize = 2;
// A 64-filter output word ends on a step boundary.
const _: () = assert!(64 % (TILE_GROUPS * LANES) == 0);

/// Multiplies up to [`TILE_PIXELS`] windows — `rows` holds them back to
/// back, `bank.row_words()` words each, the first `count` of them output
/// pixels `px0..px0 + count` — against every filter of `bank`, one
/// [`TILE_PIXELS`] × `TILE_GROUPS` register tile per step, into `sink`.
#[inline(always)]
fn lanes_tile<W: BitWord>(
    rows: &[W],
    (px0, count): (usize, usize),
    bank: &LaneBank<W>,
    sink: &mut impl TileSink,
) {
    // Plain loops only: a library helper left un-inlined here would be
    // compiled for the baseline target and pin `acc` to the stack. Every
    // span is cut to `words` here, so the hot loop carries no bounds check
    // (and no panic path to spill `acc` for).
    let words = bank.row_words();
    let fs = bank.shape();
    // Per pixel, the 64-filter output word being decided, lane by lane.
    let mut decided = [[0u64; LANES]; TILE_PIXELS];
    // A partial tile repeats its first window (its last group) in the
    // unused slots and emits only the real ones.
    let mut wins = [rows; TILE_PIXELS];
    for (p, win) in wins.iter_mut().enumerate() {
        let p = if p < count { p } else { 0 };
        *win = &rows[p * words..][..words];
    }
    for g0 in (0..bank.groups()).step_by(TILE_GROUPS) {
        let mut groups = [bank.group(g0); TILE_GROUPS];
        for (g, group) in groups.iter_mut().enumerate() {
            *group = &bank.group((g0 + g).min(bank.groups() - 1))[..words];
        }
        let mut acc = [[[0u64; LANES]; TILE_GROUPS]; TILE_PIXELS];
        for t in 0..words {
            isa::lanes_not_words();
            for (g, group) in groups.iter().enumerate() {
                let filt = group[t];
                for (p, win) in wins.iter().enumerate() {
                    let word = win[t];
                    for (sum, f) in acc[p][g].iter_mut().zip(filt) {
                        *sum += u64::from(word.xor(f).popcount());
                    }
                }
            }
        }
        for (p, per_group) in acc.iter().enumerate().take(count) {
            for (k0, disagree) in (g0 * LANES..fs.k).step_by(LANES).zip(per_group) {
                let on = sink.put_dots(px0 + p, k0, fs, disagree);
                for (lane, on) in decided[p].iter_mut().zip(on) {
                    *lane |= on;
                }
            }
        }
        let k_end = ((g0 + TILE_GROUPS) * LANES).min(fs.k);
        if k_end.is_multiple_of(64) || k_end == fs.k {
            for (p, lanes) in decided.iter_mut().enumerate().take(count) {
                let word = lanes.iter().fold(0, |w, l| w | l);
                sink.put_word(px0 + p, (k_end - 1) / 64 * 64, word);
                *lanes = [0; LANES];
            }
        }
    }
}

/// Scratch buffer holding [`TILE_PIXELS`] gathered convolution windows in
/// filter-raster layout (tap `(i, j)` at word offset
/// `(i*kw + j) * words_per_tap`), out-of-bounds taps zero.
///
/// Allocated once per worker per dispatch and reused across all pixels and
/// filters of its rows — the simulated analogue of a work item's private
/// window cache (§VI-B).
#[derive(Debug)]
pub struct WindowGather<W: BitWord> {
    words_per_tap: usize,
    row_words: usize,
    window_words: usize,
    buf: Vec<W>,
}

impl<W: BitWord> WindowGather<W> {
    /// A gather buffer for windows of `geom` over `bank`'s filters.
    pub fn new(geom: &ConvGeometry, bank: &LaneBank<W>) -> Self {
        let words_per_tap = bank.shape().c.div_ceil(W::BITS);
        let row_words = geom.kw * words_per_tap;
        let window_words = geom.kh * row_words;
        Self {
            words_per_tap,
            row_words,
            window_words,
            buf: vec![W::zero(); TILE_PIXELS * window_words],
        }
    }

    /// Materializes the window of output pixel `(n, oy, ox)` into `slot`:
    /// per window row, one contiguous copy of its in-bounds taps — the
    /// §VI-A.1 vectorized bulk loads — and zeros for the padding around
    /// them.
    #[inline(always)]
    fn gather(
        &mut self,
        input: &BitTensor<W>,
        geom: &ConvGeometry,
        n: usize,
        oy: usize,
        ox: usize,
        slot: usize,
    ) {
        let s = input.shape();
        let span = BorderSpan::of(geom, s.h, s.w, oy, ox);
        let (lo, hi) = (span.j0 * self.words_per_tap, span.j1 * self.words_per_tap);
        let words = input.as_words();
        let window = &mut self.buf[slot * self.window_words..][..self.window_words];
        if !span.is_full(geom) {
            window.fill(W::zero());
        }
        if lo < hi {
            let ix = ox * geom.stride_w + span.j0 - geom.pad_w;
            for i in span.i0..span.i1 {
                let src = input.pixel_offset(n, oy * geom.stride_h + i - geom.pad_h, ix);
                window[i * self.row_words + lo..i * self.row_words + hi]
                    .copy_from_slice(&words[src..src + hi - lo]);
            }
        }
    }
}

/// The in-bounds tap rectangle of a (border) output pixel's window:
/// rows `i0..i1`, columns `j0..j1` of the `kh × kw` tap grid. Everything
/// outside is padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BorderSpan {
    /// First in-bounds window row.
    pub i0: usize,
    /// One past the last in-bounds window row.
    pub i1: usize,
    /// First in-bounds window column.
    pub j0: usize,
    /// One past the last in-bounds window column.
    pub j1: usize,
}

impl BorderSpan {
    /// The valid tap rectangle of output pixel `(oy, ox)` for an input of
    /// `h × w` pixels. Empty ranges (`i0 == i1` or `j0 == j1`) mean the
    /// window is pure padding.
    #[inline]
    pub fn of(geom: &ConvGeometry, h: usize, w: usize, oy: usize, ox: usize) -> Self {
        let clamp = |origin: usize, pad: usize, extent: usize, taps: usize| {
            let lo = pad.saturating_sub(origin).min(taps);
            let hi = (extent + pad).saturating_sub(origin).min(taps);
            (lo, hi.max(lo))
        };
        let (i0, i1) = clamp(oy * geom.stride_h, geom.pad_h, h, geom.kh);
        let (j0, j1) = clamp(ox * geom.stride_w, geom.pad_w, w, geom.kw);
        Self { i0, i1, j0, j1 }
    }

    /// Whether every tap is in bounds.
    #[inline]
    pub fn is_full(&self, geom: &ConvGeometry) -> bool {
        self.i0 == 0 && self.j0 == 0 && self.i1 == geom.kh && self.j1 == geom.kw
    }
}

/// Multiplies window rows — `rows` holds them back to back,
/// `bank.row_words()` words each — against every filter of `bank`,
/// register-tiled [`TILE_PIXELS`] rows at a time, into `sink` with row
/// `row_index` as pixel `px`.
///
/// The lowered bit-GEMM's filter loop, and the binary dense layer's — the
/// microkernel the direct routes run, over materialized windows.
pub fn tile_filters<W: BitWord>(rows: &[W], bank: &LaneBank<W>, sink: &mut impl TileSink) {
    let row_words = bank.row_words();
    debug_assert!(rows.len().is_multiple_of(row_words));
    isa::run(
        #[inline(always)]
        || {
            for (tile, rows) in rows.chunks(TILE_PIXELS * row_words).enumerate() {
                let pixels = (tile * TILE_PIXELS, rows.len() / row_words);
                lanes_tile(rows, pixels, bank, sink);
            }
        },
    )
}

/// Runs the tiled binary convolution over one output row into `sink`, with
/// output column `ox` as pixel `px`: `d` disagreements of a filter make the
/// ±1 dot value `x1 = kh*kw*C − 2d` (Eqn 1 summed over taps).
///
/// Every column, border or interior, is gathered zero-padded into
/// `gather` and multiplied [`TILE_PIXELS`] at a time against the staged
/// bank.
#[allow(clippy::too_many_arguments)]
pub fn conv_row_tiled<W: BitWord>(
    input: &BitTensor<W>,
    bank: &LaneBank<W>,
    geom: &ConvGeometry,
    gather: &mut WindowGather<W>,
    n: usize,
    oy: usize,
    ow: usize,
    sink: &mut impl TileSink,
) {
    isa::run(
        #[inline(always)]
        || {
            for ox in (0..ow).step_by(TILE_PIXELS) {
                let count = (ow - ox).min(TILE_PIXELS);
                for p in 0..count {
                    gather.gather(input, geom, n, oy, ox + p, p);
                }
                lanes_tile(&gather.buf, (ox, count), bank, sink);
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::AccumSink;
    use phonebit_tensor::bits::PackedFilters;
    use phonebit_tensor::shape::{FilterShape, Shape4};

    fn filters<W: BitWord>(shape: FilterShape, seed: usize) -> PackedFilters<W> {
        let mut f = PackedFilters::zeros(shape);
        for k in 0..shape.k {
            for i in 0..shape.kh {
                for j in 0..shape.kw {
                    for c in 0..shape.c {
                        f.set_bit(
                            k,
                            i,
                            j,
                            c,
                            (k * 31 + i * 7 + j * 3 + c + seed).is_multiple_of(3),
                        );
                    }
                }
            }
        }
        f
    }

    fn bits<W: BitWord>(shape: Shape4, seed: usize) -> BitTensor<W> {
        let mut t = BitTensor::zeros(shape);
        for n in 0..shape.n {
            for h in 0..shape.h {
                for w in 0..shape.w {
                    for c in 0..shape.c {
                        t.set_bit(
                            n,
                            h,
                            w,
                            c,
                            (n * 13 + h * 5 + w * 11 + c + seed).is_multiple_of(2),
                        );
                    }
                }
            }
        }
        t
    }

    #[test]
    fn microkernel_matches_scalar_xor_popcount() {
        // 19-word rows, 13 filters: one full group and a five-filter tail,
        // into pixels of 16 channels whose last three are left alone.
        let fshape = FilterShape::new(13, 1, 1, 19 * 64);
        let f = filters::<u64>(fshape, 5);
        let bank = LaneBank::new(&f);
        let rows = bits::<u64>(Shape4::new(1, 1, 3, 19 * 64), 2);
        let mut out = vec![i32::MIN; 3 * 16];
        let mut sink = AccumSink {
            row: &mut out,
            channels: 16,
        };
        tile_filters(rows.as_words(), &bank, &mut sink);
        for (at, &x1) in out.iter().enumerate() {
            let (p, k) = (at / 16, at % 16);
            if k >= 13 {
                assert_eq!(x1, i32::MIN, "channel {k} past the bank written");
                continue;
            }
            let disagree: u32 = rows
                .pixel_words(0, 0, p)
                .iter()
                .zip(f.filter_words(k))
                .map(|(x, y)| (x ^ y).count_ones())
                .sum();
            assert_eq!(x1, 19 * 64 - 2 * disagree as i32, "tile ({p},{k})");
        }
    }

    #[test]
    fn gather_interior_matches_tap_walk() {
        let shape = Shape4::new(1, 6, 7, 40);
        let t = bits::<u32>(shape, 1);
        let geom = ConvGeometry::square(3, 1, 1);
        let bank = LaneBank::new(&filters::<u32>(FilterShape::new(1, 3, 3, 40), 0));
        let mut g = WindowGather::new(&geom, &bank);
        let wpt = t.words_per_pixel();
        // An interior pixel, then a corner whose first row and column are
        // padding.
        for (oy, ox) in [(2, 3), (0, 0)] {
            g.gather(&t, &geom, 0, oy, ox, 0);
            let win = &g.buf[..g.window_words];
            for i in 0..3 {
                for j in 0..3 {
                    let got = &win[(i * 3 + j) * wpt..(i * 3 + j + 1) * wpt];
                    if oy + i == 0 || ox + j == 0 {
                        assert_eq!(got, vec![0; wpt], "padding tap ({i},{j})");
                    } else {
                        assert_eq!(
                            got,
                            t.pixel_words(0, oy + i - 1, ox + j - 1),
                            "tap ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn border_span_empty_for_pure_padding_window() {
        // 1x1 input, 3x3 kernel, pad 2: the corner output windows read only
        // padding in one or both axes.
        let geom = ConvGeometry::square(3, 1, 2);
        let span = BorderSpan::of(&geom, 1, 1, 0, 0);
        assert_eq!((span.i0, span.i1), (2, 3));
        assert_eq!((span.j0, span.j1), (2, 3));
        let span_far = BorderSpan::of(&geom, 1, 1, 4, 4);
        assert_eq!(span_far.i0, span_far.i1, "window past the input is empty");
    }

    #[test]
    fn tiled_row_matches_reference_window_dot() {
        use crate::kernels::bconv::window_dot;
        for (c, k) in [(10usize, 3usize), (37, 5), (64, 9)] {
            let shape = Shape4::new(2, 5, 6, c);
            let fshape = FilterShape::new(k, 3, 3, c);
            let t = bits::<u64>(shape, c);
            let f = filters::<u64>(fshape, k);
            let bank = LaneBank::new(&f);
            let geom = ConvGeometry::square(3, 1, 1);
            let (oh, ow) = geom.output_hw(shape.h, shape.w);
            let mut gather = WindowGather::new(&geom, &bank);
            for (n, oy) in (0..shape.n).flat_map(|n| (0..oh).map(move |oy| (n, oy))) {
                let mut row = vec![i32::MIN; ow * k];
                let mut sink = AccumSink {
                    row: &mut row,
                    channels: k,
                };
                conv_row_tiled(&t, &bank, &geom, &mut gather, n, oy, ow, &mut sink);
                for (at, &x1) in row.iter().enumerate() {
                    assert_eq!(
                        x1,
                        window_dot(&t, &f, &geom, n, oy, at / k, at % k),
                        "c={c} n={n} oy={oy} ox={} k={}",
                        at / k,
                        at % k
                    );
                }
            }
        }
    }
}
