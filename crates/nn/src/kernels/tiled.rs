//! The tiled binary-convolution hot path: one zero-padded row ring and one
//! lanes-are-outputs microkernel behind every binary convolution.
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
//!    more. A [`LaneBank`] row is `kh` kernel rows of `kw·C` dense bits —
//!    tap `(i, j)` channel `ch` at bit `j·C + ch` of kernel row `i` — each
//!    padded to whole words (§V-A.2's packing by channel count: a 3×3 tap
//!    row of 16 channels is one 48-bit word, not three). The direct routes
//!    read a window from a [`RowRing`], the `kh` input rows as one dense,
//!    zero-padded bit stream each, where a window row is the `kw·C`-bit span
//!    at bit `ox·stride_w·C`: when `C` fills whole words that span *is* a
//!    run of ring words; otherwise each output column's span is shifted
//!    into whole words once, as its input row enters the ring. Either way
//!    the microkernel reads a window's `kh` runs in place — nothing is
//!    copied per pixel. The lowered route multiplies `pack_windows` rows,
//!    the dense `(i, j, c)` bit run, against the interleaved
//!    `flatten_filters` rows ([`tile_filters`]) — the one-row case of the
//!    same layout.
//! 3. **Why padding needs no special case.** The ring's padding pixels are
//!    zero bits, and `xor(0, w) = w`: a padding tap disagrees `popcount(w)`
//!    times, which is what an all-(−1) activation tap means. Border pixels —
//!    over a quarter of a 13×13 layer — run the same loop as interior ones;
//!    there is no interior/border split of the dot product and no
//!    padding-correction table. Bits past a kernel row's `kw·C` are zero in
//!    the bank and cleared in a shifted window row, so they never disagree.
//! 4. **Which tile.** 4 pixels × 2 groups: eight accumulators, two bank
//!    vectors and the broadcasts fit the register file with room to spare.
//!    Measured against the kernel this replaced, sample by sample in one
//!    process on 9- to 144-word windows (verify skill, "Gotchas"): 4 × 2
//!    and 2 × 4 within ±5 % of each other everywhere, 4 × 4 a little behind
//!    both, and 2 × 2 — which re-reads the bank twice as often — keeping
//!    1.2× of a 2.1× gain on 72-word windows. The tile is one body
//!    (`lanes_tile`) instantiated at the shapes that run: its pixel count is
//!    a const generic, so a row's last `ow % 4` pixels are a 1-, 2- or
//!    3-pixel tile that computes only real windows (YOLO's 13-wide `conv6`
//!    ends every row on one). A thin row of `C | W::BITS` channels enters
//!    the ring by one shift-OR per pixel. A fused direct 3×3 stride-1 layer
//!    of 16 or 32 channels whose filters do not repeat (5) runs instead at
//!    its packing width, one pixel per lane ([`super::taps`]), where the CPU
//!    has that lane's popcount (`DirectBank::new` picks).
//! 5. **Each distinct filter once.** Binarized filters repeat (Silfa et
//!    al.). Where a layer's `U` distinct filters are few (`U ≤ 64`, `4U ≤
//!    3K`, windows under 2^15 bits, AVX-512), [`FusedLanes::new`] stages only
//!    their lanes; the tile runs unchanged, and per pixel its sink fills in
//!    all `K` outputs from the `U` counts as `u16`: per 32, one `vpermw` (or
//!    `vpermt2w`) and one `vpcmpuw` into a mask register (`shared_avx512`).
//!
//! A dictionary-compressed bank is read through once, when its layer's
//! lanes (shared or not) are staged: it is what the modeled device reads.
//!
//! **Host ISA tiers.** [`conv_row_tiled`] and [`tile_filters`] run under the
//! best instruction set the CPU reports ([`isa`]): once per row task the call
//! crosses a `#[target_feature]` frame, and everything below it is
//! `#[inline(always)]`, so one source is compiled once per tier — the hot
//! loop is four `vpbroadcastq`s and eight `vpxorq` / `vpopcntq` / `vpaddq`
//! per word index where the baseline target would spend ~15 bit-twiddling
//! operations per word.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::array::from_fn;

use phonebit_tensor::bits::{merge_bits, BitTensor, BitWord};
use phonebit_tensor::dict::FilterAccess;
use phonebit_tensor::lanes::{LaneBank, LANES};
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Shape4};

use crate::fuse::{BitSink, Cuts, FusedBn, TileSink};
use crate::kernels::isa;

/// Output pixels multiplied per microkernel step (accumulator tile width).
pub const TILE_PIXELS: usize = 4;
/// Filter groups multiplied per microkernel step (accumulator tile height).
const TILE_GROUPS: usize = 2;
// A 64-filter output word ends on a step boundary.
const _: () = assert!(64 % (TILE_GROUPS * LANES) == 0);

/// A fused layer's interleaved lanes and the cuts of its thresholds, staged
/// together once: what the tiled body, the lowered GEMM and the binary
/// dense layer multiply and decide by — where its filters repeat, only the
/// distinct ones, and per output the one it reads (module docs, 5).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedLanes<W: BitWord> {
    bank: LaneBank<W>,
    cuts: Cuts,
    /// A shared bank's filter count `K` and expand blocks.
    shared: Option<(usize, Vec<Expand>)>,
}

/// Outputs `64b..64b + 64` of a shared bank: output `64b + 32h + i` is
/// distinct filter `idx[h][i]`'s count `d`, fired by `(d ≥ cut[h][i]) xor`
/// bit `32h + i` of `flip` — [`Cuts::lane_cut`]`(k, 16)`: bit 16 is set for
/// `γ > 0` (fire iff `d < cut`) and past the last filter (`cut = 0`: never).
#[derive(Debug, Clone, PartialEq)]
#[repr(C, align(64))]
struct Expand {
    idx: [[u16; 32]; 2],
    cut: [[u16; 32]; 2],
    flip: u64,
}

impl<W: BitWord> FusedLanes<W> {
    /// Interleaves `filters` (a dictionary read through once) with `fused`'s
    /// cuts over their windows, shared where they repeat (module docs, 5).
    pub fn new(filters: &impl FilterAccess<W>, fused: &FusedBn) -> Self {
        let fs = filters.shape();
        let cuts = Cuts::new(fused, fs.filter_len());
        // Filter `k` reads distinct filter `u[k]`, the first with its tap
        // words; `distinct` holds each one's `k`. Stops past 64 of them.
        let tap = |k, t: usize| filters.tap_words(k, t / fs.kw, t % fs.kw);
        let same = |a, b| (0..fs.kh * fs.kw).all(|t| tap(a, t) == tap(b, t));
        let (mut distinct, mut u) = (Vec::new(), Vec::new());
        for k in 0..fs.k {
            let d = distinct.iter().position(|&d| same(d, k));
            u.push(d.unwrap_or_else(|| {
                distinct.push(k);
                distinct.len() - 1
            }) as u16);
            if distinct.len() > 64 {
                break;
            }
        }
        let few = distinct.len() <= 64 && 4 * distinct.len() <= 3 * fs.k;
        if !(few && fs.filter_len() < 1 << 15 && isa::word_permute()) {
            let (bank, shared) = (LaneBank::new(filters), None);
            return Self { bank, cuts, shared };
        }
        let blocks = (0..fs.k).step_by(64).map(|k0| {
            let cut = |i| cuts.lane_cut(k0 + i, 16);
            let idx = |i| u.get(k0 + i).copied().unwrap_or(0);
            Expand {
                idx: from_fn(|h| from_fn(|i| idx(32 * h + i))),
                cut: from_fn(|h| from_fn(|i| cut(32 * h + i) as u16)),
                flip: (0..64).fold(0, |flip, i| flip | (cut(i) >> 16) << i),
            }
        });
        let shared = Some((fs.k, blocks.collect()));
        let bank = LaneBank::picked(filters, &distinct);
        Self { bank, cuts, shared }
    }

    /// Shape of the filters the lanes were staged from.
    pub fn shape(&self) -> FilterShape {
        let (s, shared) = (self.bank.shape(), self.shared.as_ref());
        FilterShape::new(shared.map_or(s.k, |&(k, _)| k), s.kh, s.kw, s.c)
    }

    /// A shared bank's distinct filters; `None` when it holds every filter.
    pub fn distinct_filters(&self) -> Option<usize> {
        self.shared.as_ref().map(|_| self.bank.shape().k)
    }

    /// Decides output row `at` of `input` into `row`, zeroed whole pixels of
    /// `wpp` words, reading its windows from `ring`.
    pub(crate) fn decide_row(
        &self,
        input: &BitTensor<W>,
        ring: &mut RowRing<W>,
        at: (usize, usize),
        row: &mut [W],
        wpp: usize,
    ) {
        let mut sink = BitSink::new(&self.cuts, row, wpp);
        if self.shared.is_none() {
            return conv_row_tiled(input, &self.bank, ring, at, &mut sink);
        }
        ring.load(input, at);
        isa::shared_tile(self, ring.tiles(), &mut sink);
    }

    /// Decides window rows `rows` (back to back, row `r` as pixel `r`) into
    /// `out`, zeroed whole pixels of `wpp` words: the GEMM's and dense's.
    pub(crate) fn decide_windows(&self, rows: &[W], out: &mut [W], wpp: usize) {
        let mut sink = BitSink::new(&self.cuts, out, wpp);
        if self.shared.is_none() {
            return tile_filters(rows, &self.bank, &mut sink);
        }
        isa::shared_tile(self, windows(rows, self.bank.row_words()), &mut sink);
    }
}

/// What [`tile_pixels`] runs over: words, `(pixels, step)` and runs.
pub(crate) type Tiles<'a, W> = (&'a [W], (usize, usize), (usize, usize, usize));

/// The tiles of window rows `rows`, `row_words` each.
fn windows<W: BitWord>(rows: &[W], row_words: usize) -> Tiles<'_, W> {
    debug_assert!(rows.len().is_multiple_of(row_words));
    (rows, (rows.len() / row_words, row_words), (1, row_words, 0))
}

/// A shared bank's sink: per pixel its distinct filters' counts as `u16` (on
/// the row task's stack), then every output, 64 at a time by `cut`, to `out`.
struct ExpandSink<'s, 'o, W: BitWord, C> {
    out: &'s mut BitSink<'o, W, Cuts>,
    blocks: &'s [Expand],
    counts: [[[u16; 32]; 2]; TILE_PIXELS],
    cut: C,
}

impl<'s, 'o, W: BitWord, C> ExpandSink<'s, 'o, W, C> {
    fn new(out: &'s mut BitSink<'o, W, Cuts>, blocks: &'s [Expand], cut: C) -> Self {
        Self {
            out,
            blocks,
            counts: [[[0; 32]; 2]; TILE_PIXELS],
            cut,
        }
    }
}

impl<W: BitWord, C: Fn(&[[u16; 32]; 2], &Expand) -> u64> TileSink for ExpandSink<'_, '_, W, C> {
    #[inline(always)]
    fn put_dots(&mut self, px: usize, k0: usize, _: FilterShape, d: &[u64; LANES]) -> [u64; LANES] {
        let counts = &mut self.counts[px % TILE_PIXELS][k0 / 32][k0 % 32..][..LANES];
        for (count, &d) in counts.iter_mut().zip(d) {
            *count = d as u16;
        }
        [0; LANES]
    }

    #[inline(always)]
    fn end_pixel(&mut self, px: usize) {
        let counts = &self.counts[px % TILE_PIXELS];
        for (k0, block) in (0..).step_by(64).zip(self.blocks) {
            self.out.put_word(px, k0, (self.cut)(counts, block));
        }
    }
}

/// A shared bank's frame, entered by [`isa::shared_tile`]: the tile with
/// `run_avx512`'s features, the expand on `u16` lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(
    enable = "popcnt,avx2,bmi1,bmi2,avx512f,avx512bw,avx512dq,avx512vl,avx512vpopcntdq"
)]
pub(crate) fn shared_avx512<W: BitWord>(
    lanes: &FusedLanes<W>,
    (words, pixels, runs): Tiles<'_, W>,
    out: &mut BitSink<'_, W, Cuts>,
) {
    let Some((_, blocks)) = &lanes.shared else {
        unreachable!("the shared frame runs a shared bank")
    };
    let wide = lanes.bank.shape().k > 32;
    // In argument position, where a closure takes `#[inline(always)]`:
    // called from every tile instance, it was left out of line.
    let mut sink = ExpandSink::new(
        out,
        blocks,
        #[inline(always)]
        |counts: &[[u16; 32]; 2], b: &Expand| {
            let (lo, hi) = (words512(&counts[0]), words512(&counts[1]));
            let half = |h: usize| {
                let idx = words512(&b.idx[h]);
                let d = if wide {
                    _mm512_permutex2var_epi16(lo, idx, hi)
                } else {
                    _mm512_permutexvar_epi16(idx, lo)
                };
                u64::from(_mm512_cmpge_epu16_mask(d, words512(&b.cut[h])))
            };
            (half(0) | half(1) << 32) ^ b.flip
        },
    );
    tile_pixels(words, pixels, runs, &lanes.bank, &mut sink);
}

/// Thirty-two `u16` lanes as one `zmm`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
#[inline]
fn words512(w: &[u16; 32]) -> __m512i {
    let w = |i: usize| w[i] as i16;
    #[rustfmt::skip]
    let v = _mm512_set_epi16(
        w(31), w(30), w(29), w(28), w(27), w(26), w(25), w(24),
        w(23), w(22), w(21), w(20), w(19), w(18), w(17), w(16),
        w(15), w(14), w(13), w(12), w(11), w(10), w(9), w(8),
        w(7), w(6), w(5), w(4), w(3), w(2), w(1), w(0),
    );
    v
}

/// Multiplies `P` windows — window `p` (output pixel `px0 + p`) is `rows`
/// runs of `row_words` words, run `i` at word `i·stride` of `wins[p]` —
/// against every filter of `bank`, whose rows are the same runs back to
/// back, one `P` × `TILE_GROUPS` register tile per step, into `sink`.
/// [`tile_pixels`] runs it [`TILE_PIXELS`] wide and the last pixels of a
/// row at their own width.
#[inline(always)]
fn lanes_tile<W: BitWord, const P: usize>(
    wins: [&[W]; P],
    (rows, row_words, stride): (usize, usize, usize),
    px0: usize,
    bank: &LaneBank<W>,
    sink: &mut impl TileSink,
) {
    // Plain loops only: a library helper left un-inlined here would be
    // compiled for the baseline target and pin `acc` to the stack. Every
    // span is cut to `row_words` per run, so the hot loop carries no bounds
    // check (and no panic path to spill `acc` for).
    let fs = bank.shape();
    // Per pixel, the 64-filter output word being decided, lane by lane.
    let mut decided = [[0u64; LANES]; P];
    for g0 in (0..bank.groups()).step_by(TILE_GROUPS) {
        // The last tile repeats its last group in the unused slot and emits
        // only the real ones.
        let mut groups = [bank.group(g0); TILE_GROUPS];
        for (g, group) in groups.iter_mut().enumerate() {
            *group = bank.group((g0 + g).min(bank.groups() - 1));
        }
        let mut acc = [[[0u64; LANES]; TILE_GROUPS]; P];
        for i in 0..rows {
            let mut filts = groups;
            for filt in &mut filts {
                *filt = &filt[i * row_words..][..row_words];
            }
            let mut runs = wins;
            for run in &mut runs {
                *run = &run[i * stride..][..row_words];
            }
            for t in 0..row_words {
                isa::lanes_not_words();
                for (g, group) in filts.iter().enumerate() {
                    let filt = group[t];
                    for (p, run) in runs.iter().enumerate() {
                        let word = run[t];
                        for (sum, f) in acc[p][g].iter_mut().zip(filt) {
                            *sum += u64::from(word.xor(f).popcount());
                        }
                    }
                }
            }
        }
        for (p, per_group) in acc.iter().enumerate() {
            for (k0, disagree) in (g0 * LANES..fs.k).step_by(LANES).zip(per_group) {
                let on = sink.put_dots(px0 + p, k0, fs, disagree);
                for (lane, on) in decided[p].iter_mut().zip(on) {
                    *lane |= on;
                }
            }
        }
        let k_end = ((g0 + TILE_GROUPS) * LANES).min(fs.k);
        if k_end.is_multiple_of(64) || k_end == fs.k {
            for (p, lanes) in decided.iter_mut().enumerate() {
                let word = lanes.iter().fold(0, |w, l| w | l);
                sink.put_word(px0 + p, (k_end - 1) / 64 * 64, word);
                *lanes = [0; LANES];
            }
        }
    }
    for p in 0..P {
        sink.end_pixel(px0 + p);
    }
}

/// Runs [`lanes_tile`] over pixels `0..pixels`, whose windows start
/// `step` words apart in `words`: [`TILE_PIXELS`] at a time, then the last
/// `pixels % TILE_PIXELS` at their own width.
#[inline(always)]
fn tile_pixels<W: BitWord>(
    words: &[W],
    (pixels, step): (usize, usize),
    runs: (usize, usize, usize),
    bank: &LaneBank<W>,
    sink: &mut impl TileSink,
) {
    let full = pixels - pixels % TILE_PIXELS;
    for px0 in (0..full).step_by(TILE_PIXELS) {
        lanes_tile::<W, TILE_PIXELS>(starts(words, px0, step), runs, px0, bank, sink);
    }
    match pixels - full {
        1 => lanes_tile::<W, 1>(starts(words, full, step), runs, full, bank, sink),
        2 => lanes_tile::<W, 2>(starts(words, full, step), runs, full, bank, sink),
        3 => lanes_tile::<W, 3>(starts(words, full, step), runs, full, bank, sink),
        _ => {}
    }
}

/// The windows of pixels `px0..px0 + P`, `step` words apart in `words`.
#[inline(always)]
fn starts<W: BitWord, const P: usize>(words: &[W], px0: usize, step: usize) -> [&[W]; P] {
    let mut wins = [words; P];
    for (p, win) in wins.iter_mut().enumerate() {
        *win = &words[(px0 + p) * step..];
    }
    wins
}

/// A worker's scratch for one dispatch of a direct binary convolution: the
/// `kh` input rows under the output row in flight, in order, each
/// zero-padded by `pad_w` pixels on both sides as one dense bit stream —
/// pixel `x` of the padded row at bit `x·C` — where a window row is the
/// `kw·C`-bit span at bit `ox·stride_w·C`, the layout of a [`LaneBank`]
/// row. When `C` fills whole words a ring row is that stream and window
/// rows are read from it in place; otherwise a row enters the ring as its
/// output columns' window rows, each shifted into whole words once
/// (`shift_windows`). Rolled `stride_h` rows per output row.
///
/// Allocated once per worker per dispatch and reused across all pixels and
/// filters of its rows — the simulated analogue of a work item's private
/// window cache (§VI-B).
#[derive(Debug)]
pub struct RowRing<W: BitWord> {
    geom: ConvGeometry,
    /// The input's shape.
    s: Shape4,
    /// Output columns per row.
    ow: usize,
    /// Words per window row: `kw·C` bits.
    row_words: usize,
    /// Words from one output column's window row to the next.
    step: usize,
    /// Words per ring row.
    len: usize,
    rows: Vec<W>,
    /// A thin row's padded stream and one zero word past it, which the
    /// shift reads; empty when `C` fills whole words.
    stream: Vec<W>,
    /// The `(image, output row)` the rows sit under, so the next row down
    /// rolls them up `stride_h` rows instead of rebuilding all `kh`.
    holds: Option<(usize, usize)>,
}

impl<W: BitWord> RowRing<W> {
    /// Scratch for `geom`'s windows over an input of shape `s`.
    pub fn new(geom: &ConvGeometry, s: Shape4) -> Self {
        let ow = geom.output_hw(s.h, s.w).1;
        let row_words = (geom.kw * s.c).div_ceil(W::BITS);
        let stream = ((s.w + 2 * geom.pad_w) * s.c).div_ceil(W::BITS);
        let (step, len, stream) = if s.c.is_multiple_of(W::BITS) {
            (geom.stride_w * s.c / W::BITS, stream, 0)
        } else {
            (row_words, ow * row_words, stream + 1)
        };
        Self {
            geom: *geom,
            s,
            ow,
            row_words,
            step,
            len,
            rows: vec![W::zero(); geom.kh * len],
            stream: vec![W::zero(); stream],
            holds: None,
        }
    }

    /// The windows of the output row the ring holds.
    fn tiles(&self) -> Tiles<'_, W> {
        let runs = (self.geom.kh, self.row_words, self.len);
        (&self.rows, (self.ow, self.step), runs)
    }

    /// Brings in the padded input rows under output row `(n, oy)`.
    fn load(&mut self, input: &BitTensor<W>, (n, oy): (usize, usize)) {
        let (s, geom, len) = (self.s, self.geom, self.len);
        debug_assert_eq!(input.shape(), s, "ring built for another input");
        let fresh = if self.holds == Some((n, oy.wrapping_sub(1))) && geom.stride_h < geom.kh {
            self.rows.copy_within(geom.stride_h * len.., 0);
            geom.kh - geom.stride_h..geom.kh
        } else {
            0..geom.kh
        };
        self.holds = Some((n, oy));
        let wpp = input.words_per_pixel();
        for i in fresh {
            let src = (oy * geom.stride_h + i)
                .checked_sub(geom.pad_h)
                .filter(|&iy| iy < s.h)
                .map_or(&[][..], |iy| {
                    &input.as_words()[input.pixel_offset(n, iy, 0)..][..s.w * wpp]
                });
            let row = &mut self.rows[i * len..][..len];
            if self.stream.is_empty() {
                row.fill(W::zero());
                row[geom.pad_w * wpp..][..src.len()].copy_from_slice(src);
                continue;
            }
            self.stream.fill(W::zero());
            if W::BITS.is_multiple_of(s.c) {
                // One word per pixel, and no pixel straddles a stream word.
                for (x, &pixel) in src.iter().enumerate() {
                    let at = (geom.pad_w + x) * s.c;
                    let word = &mut self.stream[at / W::BITS];
                    *word = word.or(pixel.shl(at % W::BITS));
                }
            } else {
                for (x, pixel) in src.chunks_exact(wpp).enumerate() {
                    merge_bits(&mut self.stream, (geom.pad_w + x) * s.c, pixel, s.c);
                }
            }
            let (stride, bits) = (geom.stride_w * s.c, geom.kw * s.c);
            shift_windows(row, &self.stream, self.row_words, stride, bits);
        }
    }
}

/// Writes into `windows`, `row_words` words each, the `bits`-bit spans of
/// `stream` at bits `0, stride, 2·stride, ..`, each shifted to bit 0 with
/// the bits past it in its last word clear. `stream` holds a word past the
/// last span's last.
fn shift_windows<W: BitWord>(
    windows: &mut [W],
    stream: &[W],
    row_words: usize,
    stride: usize,
    bits: usize,
) {
    let last = W::low_mask(bits - (row_words - 1) * W::BITS);
    for (ox, window) in windows.chunks_exact_mut(row_words).enumerate() {
        let (at, shift) = (ox * stride / W::BITS, ox * stride % W::BITS);
        let src = &stream[at..][..row_words + 1];
        for (t, word) in window.iter_mut().enumerate() {
            // `hi << 1 << (BITS − 1 − shift)`: no shift by BITS at 0.
            let hi = src[t + 1].shl(1).shl(W::BITS - 1 - shift);
            *word = src[t].shr(shift).or(hi);
        }
        window[row_words - 1] = window[row_words - 1].and(last);
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
}

/// Multiplies window rows — `rows` holds them back to back,
/// `bank.row_words()` words each — against every filter of `bank`,
/// register-tiled [`TILE_PIXELS`] rows at a time, into `sink` with row
/// `row_index` as pixel `px`.
///
/// The lowered bit-GEMM's filter loop, and the binary dense layer's — the
/// microkernel the direct routes run, over materialized windows.
pub fn tile_filters<W: BitWord>(rows: &[W], bank: &LaneBank<W>, sink: &mut impl TileSink) {
    let (words, pixels, runs) = windows(rows, bank.row_words());
    isa::run(
        #[inline(always)]
        || tile_pixels(words, pixels, runs, bank, sink),
    )
}

/// Runs the tiled binary convolution over output row `(n, oy)` into `sink`,
/// with output column `ox` as pixel `px`: `d` disagreements of a filter make
/// the ±1 dot value `x1 = kh*kw*C − 2d` (Eqn 1 summed over taps).
///
/// `ring` brings in the padded input rows; every column, border or
/// interior, reads its `kh` window rows from them in place and is
/// multiplied [`TILE_PIXELS`] at a time against the staged bank.
pub fn conv_row_tiled<W: BitWord>(
    input: &BitTensor<W>,
    bank: &LaneBank<W>,
    ring: &mut RowRing<W>,
    at: (usize, usize),
    sink: &mut impl TileSink,
) {
    ring.load(input, at);
    let (words, pixels, runs) = ring.tiles();
    isa::run(
        #[inline(always)]
        || tile_pixels(words, pixels, runs, bank, sink),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fuse::AccumSink;
    use phonebit_tensor::bits::PackedFilters;
    use phonebit_tensor::dict::FilterDict;
    use phonebit_tensor::shape::{FilterShape, Shape4};

    /// `k` filters of shape `(kh, kw, c)`, `c ≥ 8`, over `u` distinct ones:
    /// filter `n` is distinct filter `37n mod u` (so a repeat never sits
    /// next to its first, and the last filter repeats when `k > u`), whose
    /// first tap's low eight channels are its number and the rest noise.
    pub(crate) fn repeating<W: BitWord>(
        (k, u): (usize, usize),
        (kh, kw, c): (usize, usize, usize),
        seed: u64,
    ) -> PackedFilters<W> {
        let mut f = PackedFilters::zeros(FilterShape::new(k, kh, kw, c));
        for (n, (i, j, ch)) in (0..k)
            .flat_map(|n| (0..kh * kw * c).map(move |t| (n, (t / (kw * c), t / c % kw, t % c))))
        {
            let p = n * 37 % u;
            let mut x = seed ^ (((p * 31 + i) * 31 + j) as u64 * 0x9E37_79B9) ^ ch as u64;
            x = (x ^ x >> 29).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let bit = if i + j == 0 && ch < 8 {
                p >> ch
            } else {
                (x >> 40) as usize
            };
            f.set_bit(n, i, j, ch, bit & 1 == 1);
        }
        f
    }

    #[test]
    fn banks_that_repeat_too_little_stage_every_filter() {
        // 65 distinct filters, 4U > 3K, and a window of 2^15 bits: the lanes
        // and cuts of every filter, raw or through a dictionary. Just under
        // 2^15 bits the same bank shares where the tier permutes words.
        for ((k, u), (kh, kw, c)) in [
            ((130, 65), (3, 3, 64)),
            ((64, 49), (3, 3, 64)),
            ((72, 55), (1, 3, 40)),
            ((8, 1), (1, 1, 1 << 15)),
        ] {
            let f = repeating::<u64>((k, u), (kh, kw, c), 7);
            let fused = FusedBn {
                xi: (0..k).map(|n| n as f32 - 9.5).collect(),
                gamma_pos: (0..k).map(|n| n % 3 == 0).collect(),
            };
            let cuts = Cuts::new(&fused, f.shape().filter_len());
            let dict = FilterDict::build(&f);
            for (bank, lanes) in [
                (LaneBank::new(&f), FusedLanes::new(&f, &fused)),
                (LaneBank::new(&dict), FusedLanes::new(&dict, &fused)),
            ] {
                let cuts = cuts.clone();
                let shared = None;
                assert_eq!(lanes, FusedLanes { bank, cuts, shared }, "k {k} u {u}");
            }
        }
        let f = repeating::<u64>((8, 1), (1, 1, (1 << 15) - 1), 7);
        let lanes = FusedLanes::new(&f, &FusedBn::identity(8));
        assert_eq!(lanes.distinct_filters(), isa::word_permute().then_some(1));
    }

    #[test]
    fn a_shared_bank_keeps_each_distinct_filter_and_every_cut() {
        let f = repeating::<u32>((72, 33), (3, 3, 40), 3);
        let fused = FusedBn {
            xi: (0..72).map(|n| n as f32 * 2.0 - 70.0).collect(),
            gamma_pos: (0..72).map(|n| n % 5 != 0).collect(),
        };
        let lanes = FusedLanes::new(&f, &fused);
        let Some((k, blocks)) = &lanes.shared else {
            assert!(
                !isa::word_permute(),
                "72 filters over 33 share on this tier"
            );
            return;
        };
        let (full, cuts) = (LaneBank::new(&f), Cuts::new(&fused, 360));
        assert_eq!((*k, lanes.shape(), blocks.len()), (72, f.shape(), 2));
        assert_eq!(lanes.distinct_filters(), Some(33));
        for n in 0..128 {
            let (block, h, i) = (&blocks[n / 64], n / 32 % 2, n % 32);
            let cut = u64::from(block.cut[h][i]) | (block.flip >> (n % 64) & 1) << 16;
            assert_eq!(cut, cuts.lane_cut(n, 16), "output {n}");
            if n < 72 {
                let row = |bank: &LaneBank<u32>, k: usize| -> Vec<u32> {
                    bank.group(k / LANES).iter().map(|v| v[k % LANES]).collect()
                };
                let d = usize::from(block.idx[h][i]);
                assert_eq!(
                    row(&lanes.bank, d),
                    row(&full, n),
                    "output {n} reads another"
                );
            }
        }
    }

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
    fn ring_window_rows_match_tap_walk() {
        // Thin (40 channels in u32 words: shifted in) and aligned (64: in
        // place), stride 2: every window row the ring holds is its taps'
        // channel bits back to back, zeros where a tap is padding, nothing
        // past `kw·C`.
        for c in [40, 64] {
            let shape = Shape4::new(2, 6, 7, c);
            let t = bits::<u32>(shape, 1);
            let geom = ConvGeometry::square(3, 2, 1);
            let mut ring = RowRing::new(&geom, shape);
            let (oh, ow) = geom.output_hw(6, 7);
            for (n, oy) in (0..2).flat_map(|n| (0..oh).map(move |oy| (n, oy))) {
                ring.load(&t, (n, oy));
                for (ox, i) in (0..ow).flat_map(|ox| (0..3).map(move |i| (ox, i))) {
                    let run = &ring.rows[i * ring.len + ox * ring.step..][..ring.row_words];
                    for at in 0..run.len() * 32 {
                        let (j, ch) = (at / c, at % c);
                        let (iy, ix) = ((oy * 2 + i).wrapping_sub(1), (ox * 2 + j).wrapping_sub(1));
                        let want = j < 3 && iy < 6 && ix < 7 && t.get_bit(n, iy, ix, ch);
                        let got = run[at / 32] >> (at % 32) & 1 == 1;
                        assert_eq!(got, want, "c={c} {n},{oy},{ox} row {i} bit {at}");
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
            let mut ring = RowRing::new(&geom, shape);
            for (n, oy) in (0..shape.n).flat_map(|n| (0..oh).map(move |oy| (n, oy))) {
                let mut row = vec![i32::MIN; ow * k];
                let mut sink = AccumSink {
                    row: &mut row,
                    channels: k,
                };
                conv_row_tiled(&t, &bank, &mut ring, (n, oy), &mut sink);
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
