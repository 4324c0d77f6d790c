//! The tiled binary-convolution hot path: window-gather reuse, an
//! interior/border split, and a register-tiled bit-GEMM microkernel.
//!
//! The naive kernel (kept as
//! [`compute_bconv_fused_reference`](crate::kernels::bconv::compute_bconv_fused_reference))
//! walks `K × kh × kw` tap spans per output pixel, re-slicing the same input
//! words once **per filter** and bounds-checking every tap. This module
//! restructures that work around the paper's §VI-A memory-access principles:
//!
//! 1. **Window gather** ([`WindowGather`]): each output pixel's `kh*kw`
//!    packed tap spans are materialized *once* into a contiguous scratch
//!    buffer whose raster layout matches
//!    [`PackedFilters::filter_words`](phonebit_tensor::bits::PackedFilters::filter_words),
//!    then reused across all `K` filters.
//!    Each filter dot product becomes one streaming xor+popcount over two
//!    contiguous spans — no per-tap slicing, no bounds checks.
//! 2. **Interior/border split**: a convolution row is split into the span of
//!    output columns whose windows are fully in bounds (the *interior*, the
//!    overwhelming majority at paper shapes) and the few *border* columns.
//!    Interior pixels take the branch-free gathered fast path. Border pixels
//!    dot only their in-bounds row segments and add the padding
//!    contribution from the filters' precomputed tap-popcount tables
//!    (`xor(0, w) = w`, so a padding tap disagrees exactly
//!    `popcount(w)` times) — no padding word is ever re-popcounted.
//! 3. **Register-tiled microkernel** ([`bit_dot_tile`]): the gathered
//!    windows of [`TILE_PIXELS`] pixels are multiplied against
//!    [`TILE_FILTERS`] filter windows per step over eight-word (512-bit)
//!    [`ClVec`] vectors, so every loaded activation vector is reused
//!    [`TILE_FILTERS`] times and every loaded filter vector [`TILE_PIXELS`]
//!    times. The `P × F` accumulators are vectors too — one count per lane,
//!    summed across lanes once per tile — so a step is `xor`, popcount, add.
//!    A pixel's [`TILE_FILTERS`] dot values leave the tile together, as one
//!    `emit` call: a fused kernel thresholds them side by side and ORs their
//!    bits into the output word once (Fig 4's pack-in-private-memory).
//!    The same microkernel drives `bconv_fused`, `bconv_accum` and the
//!    lowered bit-GEMM path.
//!
//! **Host ISA tiers.** [`conv_row_tiled`] and [`tile_filters`] are thin
//! entries that run the `*_portable` generic driver of the same name under
//! the best instruction set the CPU reports ([`isa`]): once per row task the
//! call crosses a `#[target_feature]` frame, and everything below it is
//! `#[inline(always)]`, so one source is compiled once per tier — with
//! `popcnt`, or eight `u64` popcounts per `vpopcntq`, where the baseline
//! target would spend ~15 bit-twiddling operations per word.

use phonebit_gpusim::vector::{xor_popcount_vec, ClVec};
use phonebit_tensor::bits::{BitTensor, BitWord};
use phonebit_tensor::dict::FilterAccess;
use phonebit_tensor::shape::ConvGeometry;

use crate::kernels::isa;

/// Filters multiplied per microkernel step (accumulator tile height).
pub const TILE_FILTERS: usize = 4;
/// Output pixels multiplied per microkernel step (accumulator tile width).
pub const TILE_PIXELS: usize = 2;

/// Words per microkernel step: 512 bits of `u64`, the widest hardware
/// popcount the [`isa`] tiers reach.
pub(crate) const TILE_LANES: usize = 8;

/// Register-tiled binary dot product: `P` gathered windows × `F` filter
/// windows, all spans the same length, returning the per-pair
/// **disagreement counts** (`popcount(xor)`), not yet the ±1 dot values.
///
/// Words stream through eight-lane (`TILE_LANES`) vectors (§VI-A.1); each loaded
/// window vector is reused `F` times and each filter vector `P` times, which
/// is the whole point of the tile. Counts accumulate per 64-bit lane and are
/// summed across lanes once at the end (no narrowing or horizontal add in
/// the loop), level by level over the whole tile; the `len % TILE_LANES`
/// tail words are added one at a time.
#[inline(always)]
pub fn bit_dot_tile<W: BitWord, const P: usize, const F: usize>(
    windows: &[&[W]; P],
    filters: &[&[W]; F],
) -> [[u32; F]; P] {
    let len = windows[0].len();
    debug_assert!(windows.iter().chain(filters.iter()).all(|s| s.len() == len));
    // Plain loops only: a library helper left un-inlined here would be
    // compiled for the baseline target and pin `lanes` to the stack.
    let mut lanes = [[[0u64; TILE_LANES]; F]; P];
    let steps = len / TILE_LANES;
    for step in 0..steps {
        let at = step * TILE_LANES..(step + 1) * TILE_LANES;
        let mut wv = [ClVec::<W, TILE_LANES>::default(); P];
        for (v, span) in wv.iter_mut().zip(windows) {
            *v = ClVec::load(&span[at.clone()]);
        }
        for (f, span) in filters.iter().enumerate() {
            let fv = ClVec::<W, TILE_LANES>::load(&span[at.clone()]);
            for (p, w) in wv.iter().enumerate() {
                let counts = w.xor(fv).popcount_lanes();
                for (sum, c) in lanes[p][f].iter_mut().zip(counts) {
                    *sum += u64::from(c);
                }
            }
        }
    }
    // Sum across lanes by halving — 8 to 4 to 2 to 1 — one level at a time
    // over the whole tile, so every level is plain lane-wise vector adds.
    // (Summed one accumulator at a time, the four sums a filter tile hands
    // to one vector threshold get rebuilt by LLVM through the stack.)
    let mut acc = [[0u32; F]; P];
    for p in 0..P {
        let mut by4 = [[0u64; 4]; F];
        let mut by2 = [[0u64; 2]; F];
        for f in 0..F {
            for i in 0..4 {
                by4[f][i] = lanes[p][f][i] + lanes[p][f][i + 4];
            }
        }
        for f in 0..F {
            for i in 0..2 {
                by2[f][i] = by4[f][i] + by4[f][i + 2];
            }
        }
        for f in 0..F {
            acc[p][f] = (by2[f][0] + by2[f][1]) as u32;
            for i in steps * TILE_LANES..len {
                acc[p][f] += windows[p][i].xor(filters[f][i]).popcount();
            }
        }
    }
    acc
}

/// Scratch buffer holding up to [`TILE_PIXELS`] gathered convolution
/// windows in filter-raster layout (tap `(i, j)` at word offset
/// `(i*kw + j) * words_per_tap`).
///
/// Allocated once per worker per dispatch and reused across all pixels and
/// filters of its rows — the simulated analogue of a work item's private
/// window cache (§VI-B). It also owns the scratch of the dictionary
/// read-through (`dict_tile`) — the tap × unique-row count table and a
/// word-major copy of the dictionary — built by the worker's first pixel
/// tile and reused by the rest.
#[derive(Debug)]
pub struct WindowGather<W: BitWord> {
    kh: usize,
    row_words: usize,
    window_words: usize,
    buf: Vec<W>,
    dict_table: Vec<[u32; TILE_PIXELS]>,
    dict_words: Vec<W>,
}

impl<W: BitWord> WindowGather<W> {
    /// A gather buffer for windows of `geom` over `words_per_tap`-word tap
    /// spans.
    pub fn new(geom: &ConvGeometry, words_per_tap: usize) -> Self {
        let row_words = geom.kw * words_per_tap;
        let window_words = geom.kh * row_words;
        Self {
            kh: geom.kh,
            row_words,
            window_words,
            buf: vec![W::zero(); TILE_PIXELS * window_words],
            dict_table: Vec::new(),
            dict_words: Vec::new(),
        }
    }

    /// Words in one gathered window.
    pub fn window_words(&self) -> usize {
        self.window_words
    }

    /// The gathered window in slot `slot`.
    #[inline]
    pub fn window(&self, slot: usize) -> &[W] {
        &self.buf[slot * self.window_words..(slot + 1) * self.window_words]
    }

    /// Materializes the (fully in-bounds) window of output pixel
    /// `(n, oy, ox)` into `slot`: `kh` contiguous row copies, each spanning
    /// `kw` packed pixels — the §VI-A.1 vectorized bulk loads.
    #[inline]
    pub fn gather_interior(
        &mut self,
        input: &BitTensor<W>,
        geom: &ConvGeometry,
        n: usize,
        oy: usize,
        ox: usize,
        slot: usize,
    ) {
        let iy0 = oy * geom.stride_h - geom.pad_h;
        let ix0 = ox * geom.stride_w - geom.pad_w;
        let words = input.as_words();
        let dst_base = slot * self.window_words;
        for i in 0..self.kh {
            let src = input.pixel_offset(n, iy0 + i, ix0);
            self.buf[dst_base + i * self.row_words..dst_base + (i + 1) * self.row_words]
                .copy_from_slice(&words[src..src + self.row_words]);
        }
    }

    /// The interior filter loop over a dictionary-compressed multi-tap
    /// bank, which keeps no flat filter window for [`tile_filters`]: dots
    /// each tap of the gathered windows against every *unique* dictionary
    /// row once, then resolves each filter as `kh*kw` table lookups through
    /// the bank's index table, emitting the first `count` windows like
    /// [`tile_filters`]. A table slot holds the counts of all
    /// [`TILE_PIXELS`] windows side by side, so one index load and one
    /// lookup serve the whole pixel tile. The shared popcounts cost a
    /// lookup per tap where the flat walk costs a vector step per eight
    /// words: the dictionary keeps pace with the raw bank (0.6–1.1× of its
    /// time on `compress_report`'s shapes), no longer far ahead of it as
    /// when a popcount was ~15 operations.
    #[inline(always)]
    fn dict_tile(
        &mut self,
        count: usize,
        filters: &(impl FilterAccess<W> + Sync),
        bits: i32,
        mut emit: impl FnMut(usize, usize, &[i32]),
    ) {
        let (dict_rows, indices) = filters
            .dictionary()
            .expect("non-contiguous bank must expose its dictionary");
        let wpt = filters.words_per_tap();
        let taps = self.window_words / wpt;
        let unique = dict_rows.len() / wpt;
        if self.dict_table.len() != taps * unique {
            // First tile of the dispatch: size the table, and lay the
            // dictionary out word-major — word `j` of every unique row side
            // by side — so the dots below run across rows, a vector of
            // rows per popcount.
            self.dict_table.resize(taps * unique, [0; TILE_PIXELS]);
            self.dict_words.resize(dict_rows.len(), W::zero());
            for (u, row) in dict_rows.chunks_exact(wpt).enumerate() {
                for (j, &word) in row.iter().enumerate() {
                    self.dict_words[j * unique + u] = word;
                }
            }
        }
        // Every window slot is dotted, a stale one past `count` included:
        // its counts are never emitted, and the loops stay branch-free.
        for (t, slots) in self.dict_table.chunks_exact_mut(unique).enumerate() {
            slots.fill([0; TILE_PIXELS]);
            for (j, rows) in self.dict_words.chunks_exact(unique).enumerate() {
                let mut words = [W::zero(); TILE_PIXELS];
                for (p, word) in words.iter_mut().enumerate() {
                    *word = self.buf[p * self.window_words + t * wpt + j];
                }
                for (slot, &row_word) in slots.iter_mut().zip(rows) {
                    for (count, word) in slot.iter_mut().zip(words) {
                        *count += word.xor(row_word).popcount();
                    }
                }
            }
        }
        // One lookup per tap serves the whole pixel tile; a filter tile per
        // emit, like the flat walk.
        let table = &self.dict_table[..];
        let lookup = |k: usize| {
            let mut disagree = [0u32; TILE_PIXELS];
            for (t, &row) in indices[k * taps..(k + 1) * taps].iter().enumerate() {
                for (d, count) in disagree.iter_mut().zip(table[t * unique + row as usize]) {
                    *d += count;
                }
            }
            disagree
        };
        let k_total = indices.len() / taps;
        let mut k = 0;
        while k + TILE_FILTERS <= k_total {
            let mut tile = [[0u32; TILE_PIXELS]; TILE_FILTERS];
            for (f, per_pixel) in tile.iter_mut().enumerate() {
                *per_pixel = lookup(k + f);
            }
            for p in 0..count {
                let mut disagree = [0u32; TILE_FILTERS];
                for (d, per_pixel) in disagree.iter_mut().zip(&tile) {
                    *d = per_pixel[p];
                }
                emit(p, k, &dots(bits, &disagree));
            }
            k += TILE_FILTERS;
        }
        for k in k..k_total {
            for (p, d) in lookup(k).into_iter().enumerate().take(count) {
                emit(p, k, &dots(bits, &[d]));
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

/// The interior span of output columns for row `oy`: all `ox` in
/// `lo..hi` have fully in-bounds windows (both axes). Returns an empty
/// range when the row itself clips vertically.
#[inline]
pub fn interior_columns(
    geom: &ConvGeometry,
    h: usize,
    w: usize,
    ow: usize,
    oy: usize,
) -> std::ops::Range<usize> {
    let iy0 = oy * geom.stride_h;
    let row_interior = iy0 >= geom.pad_h && iy0 + geom.kh <= h + geom.pad_h;
    if !row_interior {
        return 0..0;
    }
    // ox*stride_w >= pad_w  and  ox*stride_w + kw <= w + pad_w.
    let lo = geom.pad_w.div_ceil(geom.stride_w).min(ow);
    let hi = if w + geom.pad_w >= geom.kw {
        (((w + geom.pad_w - geom.kw) / geom.stride_w) + 1).min(ow)
    } else {
        0
    };
    lo..hi.max(lo)
}

/// Disagreement count of one border pixel against filter `k`: xor+popcount
/// over the valid tap spans (read straight from the input rows, no gather)
/// plus the precomputed popcount of the padding taps.
///
/// Taps are resolved one span at a time through [`FilterAccess`], so
/// dictionary-compressed banks work unchanged — the indices are chased
/// here, outside the xor+popcount inner loop.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn border_disagreement<W: BitWord>(
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    geom: &ConvGeometry,
    span: &BorderSpan,
    n: usize,
    oy: usize,
    ox: usize,
    k: usize,
) -> u32 {
    let mut disagree = 0u32;
    let mut valid_pop = 0u32;
    for i in span.i0..span.i1 {
        let iy = oy * geom.stride_h + i - geom.pad_h;
        for j in span.j0..span.j1 {
            let ix = ox * geom.stride_w + j - geom.pad_w;
            disagree += xor_popcount_vec::<W, TILE_LANES>(
                input.pixel_words(n, iy, ix),
                filters.tap_words(k, i, j),
            );
        }
        valid_pop += filters.row_popcount_range(k, i, span.j0, span.j1);
    }
    // Padding taps: xor(0, w) = w, so they disagree popcount(w) times —
    // looked up, never recomputed.
    disagree + (filters.window_popcount(k) - valid_pop)
}

/// The ±1 dot values `bits − 2·disagreements` (Eqn 1) of a run of
/// disagreement counts over `bits`-bit windows.
#[inline(always)]
fn dots<const N: usize>(bits: i32, disagree: &[u32; N]) -> [i32; N] {
    let mut x1s = [0; N];
    for (x1, &d) in x1s.iter_mut().zip(disagree) {
        *x1 = bits - 2 * d as i32;
    }
    x1s
}

/// Multiplies up to [`TILE_PIXELS`] rows — `rows` holds them back to back,
/// `row_words` words (`bits` bits) each — against every filter of `filters`,
/// whose windows must be flat spans of the same length
/// ([`FilterAccess::contiguous_filter`]), register-tiled [`TILE_FILTERS`] at
/// a time with a scalar filter tail. Calls `emit(row_index, k0, x1s)` with
/// the ±1 dot values of filters `k0..k0 + x1s.len()`, a whole filter tile
/// per call.
///
/// This is the one filter-loop shared by the direct interior fast path and
/// the lowered bit-GEMM — tile geometry changes land in exactly one place.
pub fn tile_filters<W: BitWord>(
    rows: &[W],
    row_words: usize,
    filters: &(impl FilterAccess<W> + Sync),
    bits: i32,
    emit: impl FnMut(usize, usize, &[i32]),
) {
    isa::run(
        #[inline(always)]
        || tile_filters_portable(rows, row_words, filters, bits, emit),
    )
}

/// [`tile_filters`] without the ISA dispatch: inlined into its caller.
#[inline(always)]
pub(crate) fn tile_filters_portable<W: BitWord>(
    rows: &[W],
    row_words: usize,
    filters: &(impl FilterAccess<W> + Sync),
    bits: i32,
    mut emit: impl FnMut(usize, usize, &[i32]),
) {
    let count = rows.len() / row_words;
    debug_assert!((1..=TILE_PIXELS).contains(&count) && rows.len() == count * row_words);
    let k_total = filters.shape().k;
    let filter = |k: usize| filters.contiguous_filter(k).expect("flat-window bank");
    // A partial pixel tile repeats its first row in the unused slots and
    // emits only the real ones. (Plain loops, not `array::from_fn`: see
    // `bit_dot_tile`.)
    let mut tile = [&rows[..row_words]; TILE_PIXELS];
    for (slot, row) in tile.iter_mut().zip(rows.chunks_exact(row_words)) {
        *slot = row;
    }
    let mut k = 0;
    while k + TILE_FILTERS <= k_total {
        let mut filt = [filter(k); TILE_FILTERS];
        for (f, slot) in filt.iter_mut().enumerate().skip(1) {
            *slot = filter(k + f);
        }
        let acc = bit_dot_tile(&tile, &filt);
        for (p, disagree) in acc.iter().enumerate().take(count) {
            emit(p, k, &dots(bits, disagree));
        }
        k += TILE_FILTERS;
    }
    for k in k..k_total {
        for (p, row) in rows.chunks_exact(row_words).enumerate() {
            let d = xor_popcount_vec::<W, TILE_LANES>(row, filter(k));
            emit(p, k, &dots(bits, &[d]));
        }
    }
}

/// Runs the tiled binary convolution over one output row, calling
/// `emit(ox, k0, x1s)` with the raw ±1 dot values
/// `x1 = kh*kw*C − 2·disagreements` (Eqn 1 summed over taps) of filters
/// `k0..k0 + x1s.len()` at output column `ox` — a filter tile per call,
/// then the `K % TILE_FILTERS` last filters one per call.
///
/// Interior columns flow through [`WindowGather`] + [`bit_dot_tile`]
/// (pairs of pixels × four filters per step); border columns use segment
/// dots plus tap-popcount tables. `emit` decides what an output *is* —
/// fused binarize+pack bits, `i32` accumulator slots — so one driver
/// serves every direct kernel.
#[allow(clippy::too_many_arguments)]
pub fn conv_row_tiled<W: BitWord>(
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    geom: &ConvGeometry,
    gather: &mut WindowGather<W>,
    n: usize,
    oy: usize,
    ow: usize,
    emit: impl FnMut(usize, usize, &[i32]),
) {
    isa::run(
        #[inline(always)]
        || conv_row_tiled_portable(input, filters, geom, gather, n, oy, ow, emit),
    )
}

/// [`conv_row_tiled`] without the ISA dispatch: inlined into its caller.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_row_tiled_portable<W: BitWord>(
    input: &BitTensor<W>,
    filters: &(impl FilterAccess<W> + Sync),
    geom: &ConvGeometry,
    gather: &mut WindowGather<W>,
    n: usize,
    oy: usize,
    ow: usize,
    mut emit: impl FnMut(usize, usize, &[i32]),
) {
    let s = input.shape();
    let fs = filters.shape();
    let k_total = fs.k;
    if k_total == 0 {
        return;
    }
    let bits = (geom.taps() * fs.c) as i32;
    let interior = interior_columns(geom, s.h, s.w, ow, oy);

    // Border columns, left and right of the interior.
    for ox in (0..interior.start).chain(interior.end..ow) {
        let span = BorderSpan::of(geom, s.h, s.w, oy, ox);
        let mut k = 0;
        while k + TILE_FILTERS <= k_total {
            let mut disagree = [0u32; TILE_FILTERS];
            for (f, d) in disagree.iter_mut().enumerate() {
                *d = border_disagreement(input, filters, geom, &span, n, oy, ox, k + f);
            }
            emit(ox, k, &dots(bits, &disagree));
            k += TILE_FILTERS;
        }
        for k in k..k_total {
            let d = border_disagreement(input, filters, geom, &span, n, oy, ox, k);
            emit(ox, k, &dots(bits, &[d]));
        }
    }

    // Interior fast path: up-to-TILE_PIXELS pixel tiles × filter quads, or
    // the dictionary read-through when the bank keeps no flat windows.
    let flat = filters.contiguous_filter(0).is_some();
    let mut ox = interior.start;
    while ox < interior.end {
        let count = (interior.end - ox).min(TILE_PIXELS);
        for p in 0..count {
            gather.gather_interior(input, geom, n, oy, ox + p, p);
        }
        if flat {
            let rows = &gather.buf[..count * gather.window_words];
            tile_filters_portable(rows, gather.window_words, filters, bits, |p, k, x1s| {
                emit(ox + p, k, x1s)
            });
        } else {
            gather.dict_tile(count, filters, bits, |p, k, x1s| emit(ox + p, k, x1s));
        }
        ox += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let a: Vec<u64> = (0..19).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        let b: Vec<u64> = (0..19)
            .map(|i| (i as u64).wrapping_mul(0x1234567))
            .collect();
        let f0: Vec<u64> = (0..19).map(|i| (i as u64).wrapping_mul(0xABCDEF)).collect();
        let f1: Vec<u64> = (0..19).map(|i| !(i as u64)).collect();
        let acc = bit_dot_tile(&[&a, &b], &[&f0, &f1]);
        for (p, win) in [&a, &b].iter().enumerate() {
            for (f, filt) in [&f0, &f1].iter().enumerate() {
                let scalar: u32 = win
                    .iter()
                    .zip(filt.iter())
                    .map(|(x, y)| (x ^ y).count_ones())
                    .sum();
                assert_eq!(acc[p][f], scalar, "tile ({p},{f})");
            }
        }
    }

    #[test]
    fn gather_interior_matches_tap_walk() {
        let shape = Shape4::new(1, 6, 7, 40);
        let t = bits::<u32>(shape, 1);
        let geom = ConvGeometry::square(3, 1, 1);
        let mut g = WindowGather::new(&geom, t.words_per_pixel());
        g.gather_interior(&t, &geom, 0, 2, 3, 0);
        let win = g.window(0);
        let wpt = t.words_per_pixel();
        for i in 0..3 {
            for j in 0..3 {
                let expect = t.pixel_words(0, 2 + i - 1, 3 + j - 1);
                let got = &win[(i * 3 + j) * wpt..(i * 3 + j + 1) * wpt];
                assert_eq!(got, expect, "tap ({i},{j})");
            }
        }
    }

    #[test]
    fn interior_columns_cover_exactly_full_windows() {
        let geom = ConvGeometry::square(3, 1, 1);
        let (h, w) = (5, 7);
        let (oh, ow) = geom.output_hw(h, w);
        for oy in 0..oh {
            let cols = interior_columns(&geom, h, w, ow, oy);
            for ox in 0..ow {
                let full = BorderSpan::of(&geom, h, w, oy, ox).is_full(&geom);
                assert_eq!(cols.contains(&ox), full, "oy={oy} ox={ox}");
            }
        }
        // Stride-2 asymmetric case.
        let geom = ConvGeometry {
            kh: 1,
            kw: 3,
            stride_h: 1,
            stride_w: 2,
            pad_h: 0,
            pad_w: 1,
        };
        let (oh, ow) = geom.output_hw(3, 9);
        for oy in 0..oh {
            let cols = interior_columns(&geom, 3, 9, ow, oy);
            for ox in 0..ow {
                let full = BorderSpan::of(&geom, 3, 9, oy, ox).is_full(&geom);
                assert_eq!(cols.contains(&ox), full, "oy={oy} ox={ox}");
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
            let geom = ConvGeometry::square(3, 1, 1);
            let (oh, ow) = geom.output_hw(shape.h, shape.w);
            let mut gather = WindowGather::new(&geom, t.words_per_pixel());
            for n in 0..shape.n {
                for oy in 0..oh {
                    conv_row_tiled(&t, &f, &geom, &mut gather, n, oy, ow, |ox, k0, x1s| {
                        for (kk, &x1) in (k0..).zip(x1s) {
                            assert_eq!(
                                x1,
                                window_dot(&t, &f, &geom, n, oy, ox, kk),
                                "c={c} n={n} oy={oy} ox={ox} k={kk}"
                            );
                        }
                    });
                }
            }
        }
    }
}
