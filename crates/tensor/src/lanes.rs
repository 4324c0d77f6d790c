//! Filter-interleaved banks: the layout in which lanes are outputs.
//!
//! A binary kernel that keeps one filter's words in its vector lanes has to
//! sum across the lanes once per output. [`LaneBank`] turns the bank the
//! other way round — word `t` of `L` *adjacent filters* side by side — so a
//! kernel broadcasts one window word against a whole vector of filters and
//! every lane accumulates its own output: no horizontal reduce, no tail
//! words (every word index is a full vector), and a group's results leave
//! together, whole packed bytes (paper Fig 4). It is the
//! output-channel-blocked weight layout of daBNN's and Larq Compute
//! Engine's micro-kernels.
//!
//! `L` is the vector's lane count at the bank's word: [`LANES`] `u64`s for
//! the binary body, sixteen `u32`s for the first layer, whose 27-bit 3×3 RGB
//! windows would leave the upper half of every 64-bit lane zero.
//!
//! A bank is built once per layer at stage time from whole-filter **rows**;
//! the row's bit order is the constructor's choice and must be the order of
//! the windows the kernel multiplies it against.

use crate::bits::{merge_bits, BitWord, PackedFilters};
use crate::dict::FilterAccess;
use crate::shape::FilterShape;

/// Filters per group of the binary body's banks, and the unit every group
/// length is a multiple of: eight is the narrowest output word, so eight
/// outputs leaving side by side never straddle one.
pub const LANES: usize = 8;

/// A filter bank interleaved `L` filters at a time: per (filter group, row
/// word), that word of the group's filters side by side. Lanes past the
/// last filter are zero.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneBank<W: BitWord = u64, const L: usize = LANES> {
    shape: FilterShape,
    row_words: usize,
    dram_discount_bytes: f64,
    lanes: Vec<[W; L]>,
}

impl<W: BitWord> LaneBank<W> {
    /// Interleaves `filters` in window raster order at dense width: a
    /// filter's row is its `kh` kernel rows, each the `kw·C` bits of its taps
    /// back to back — tap `(i, j)` channel `ch` at bit `j·C + ch` — padded to
    /// whole words. When `C` is a multiple of the word that is
    /// [`PackedFilters::filter_words`] as stored; a pre-flattened GEMM bank
    /// (one tap per filter) is the one-row case, its row the dense
    /// `(i, j, c)` bit run. Any [`FilterAccess`] interleaves to the same
    /// bank: a dictionary is read through here, once, and never again.
    pub fn new(filters: &impl FilterAccess<W>) -> Self {
        Self::picked(filters, &(0..filters.shape().k).collect::<Vec<_>>())
    }

    /// [`new`](Self::new) of filters `ks` of `filters`, in that order.
    pub fn picked(filters: &impl FilterAccess<W>, ks: &[usize]) -> Self {
        let s = filters.shape();
        let shape = FilterShape::new(ks.len(), s.kh, s.kw, s.c);
        let mut row = vec![W::zero(); (shape.kw * shape.c).div_ceil(W::BITS)];
        let mut bank = Self::zeros(shape, shape.kh * row.len(), filters.dram_discount_bytes());
        for (to, i) in (0..shape.k).flat_map(|k| (0..shape.kh).map(move |i| (k, i))) {
            row.fill(W::zero());
            for j in 0..shape.kw {
                merge_bits(
                    &mut row,
                    j * shape.c,
                    filters.tap_words(ks[to], i, j),
                    shape.c,
                );
            }
            bank.set_row(to, i * row.len(), &row);
        }
        bank
    }
}

impl<W: BitWord, const L: usize> LaneBank<W, L> {
    /// Interleaves `filters`, packed at any word, as dense column-major
    /// rows — tap `(i, j)` channel `ch` at row bit `(j·kh + i)·c + ch`, no
    /// per-tap padding — the order of the first layer's plane stream.
    pub fn column_major<F: BitWord>(filters: &PackedFilters<F>) -> Self {
        let shape = filters.shape();
        let mut row = vec![W::zero(); shape.filter_len().div_ceil(W::BITS)];
        let mut bank = Self::zeros(shape, row.len(), 0.0);
        for k in 0..shape.k {
            for at in 0..shape.filter_len() {
                let (tap, ch) = (at / shape.c, at % shape.c);
                let bit = filters.get_bit(k, tap % shape.kh, tap / shape.kh, ch);
                row[at / W::BITS] = row[at / W::BITS].with_bit(at % W::BITS, bit);
            }
            bank.set_row(k, 0, &row);
        }
        bank
    }

    fn zeros(shape: FilterShape, row_words: usize, dram_discount_bytes: f64) -> Self {
        Self {
            shape,
            row_words,
            dram_discount_bytes,
            lanes: vec![[W::zero(); L]; shape.k.div_ceil(L) * row_words],
        }
    }

    /// Stores `words` as words `at..` of filter `k`'s row.
    fn set_row(&mut self, k: usize, at: usize, words: &[W]) {
        let group = &mut self.lanes[k / L * self.row_words..][..self.row_words];
        for (slot, &word) in group[at..].iter_mut().zip(words) {
            slot[k % L] = word;
        }
    }

    /// Shape of the filters the bank was built from.
    pub fn shape(&self) -> FilterShape {
        self.shape
    }

    /// Words in one filter's row — and in every window dotted against it.
    pub fn row_words(&self) -> usize {
        self.row_words
    }

    /// Filter groups: `k.div_ceil(L)`.
    pub fn groups(&self) -> usize {
        self.shape.k.div_ceil(L)
    }

    /// The `row_words` lane vectors of filters `g·L..(g + 1)·L`.
    #[inline(always)]
    pub fn group(&self, g: usize) -> &[[W; L]] {
        &self.lanes[g * self.row_words..(g + 1) * self.row_words]
    }

    /// [`FilterAccess::dram_discount_bytes`] of the bank this one was
    /// interleaved from: interleaving changes the host layout, not what the
    /// modeled device reads.
    pub fn dram_discount_bytes(&self) -> f64 {
        self.dram_discount_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::FilterDict;

    fn filters<W: BitWord>(shape: FilterShape) -> PackedFilters<W> {
        let mut f = PackedFilters::zeros(shape);
        for k in 0..shape.k {
            for i in 0..shape.kh {
                for j in 0..shape.kw {
                    for c in 0..shape.c {
                        let v = (k * 31 + i * 7 + j * 3 + c * 5).is_multiple_of(3);
                        f.set_bit(k, i, j, c, v);
                    }
                }
            }
        }
        f
    }

    /// Filter `k`'s row, de-interleaved.
    fn row<W: BitWord, const L: usize>(bank: &LaneBank<W, L>, k: usize) -> Vec<W> {
        bank.group(k / L).iter().map(|v| v[k % L]).collect()
    }

    fn round_trips<W: BitWord>() {
        for (k, c) in [(1, 3), (7, 37), (8, 64), (9, 70), (20, 130), (36, 1)] {
            let f = filters::<W>(FilterShape::new(k, 3, 2, c));
            // Raster order at dense width: kernel row `i`'s `kw·c` bits,
            // padded to whole words; the stored words when `c` fills them.
            let bank = LaneBank::new(&f);
            let run = (2 * c).div_ceil(W::BITS);
            assert_eq!(bank.groups(), k.div_ceil(LANES));
            assert_eq!(bank.row_words(), 3 * run);
            for kk in 0..k {
                let dense = row(&bank, kk);
                if c % W::BITS == 0 {
                    assert_eq!(dense, f.filter_words(kk), "k={k} c={c} filter {kk}");
                }
                for (i, words) in dense.chunks(run).enumerate() {
                    for at in 0..run * W::BITS {
                        let (j, ch) = (at / c, at % c);
                        let expect = j < 2 && f.get_bit(kk, i, j, ch);
                        assert_eq!(words[at / W::BITS].bit(at % W::BITS), expect);
                    }
                }
            }
            // Lanes past the last filter are zero.
            for kk in k..bank.groups() * LANES {
                assert!(row(&bank, kk).iter().all(|&w| w == W::zero()));
            }
            // Column-major, sixteen lanes, from filters packed at another
            // word: every bit at `(j·kh + i)·c + ch`, nothing else set.
            let bank = LaneBank::<W, 16>::column_major(&f);
            assert_eq!(bank, LaneBank::column_major(&filters::<u16>(f.shape())));
            assert_eq!(bank.groups(), k.div_ceil(16));
            assert_eq!(bank.row_words(), (6 * c).div_ceil(W::BITS));
            for kk in 0..k {
                let dense = row(&bank, kk);
                let mut ones = 0;
                for (i, j, ch) in (0..6 * c).map(|t| (t / (2 * c), t / c % 2, t % c)) {
                    let at = (j * 3 + i) * c + ch;
                    assert_eq!(
                        dense[at / W::BITS].bit(at % W::BITS),
                        f.get_bit(kk, i, j, ch)
                    );
                    ones += u32::from(f.get_bit(kk, i, j, ch));
                }
                assert_eq!(dense.iter().map(|w| w.popcount()).sum::<u32>(), ones);
            }
        }
    }

    #[test]
    fn rows_round_trip_in_raster_and_column_major_order() {
        round_trips::<u8>();
        round_trips::<u16>();
        round_trips::<u32>();
        round_trips::<u64>();
    }

    #[test]
    fn a_dictionary_interleaves_to_the_raw_bank() {
        // Per tap (no flat windows to copy) and pre-flattened (one tap per
        // filter): the same lanes as the raw bank, plus the modeled saving.
        for shape in [
            FilterShape::new(13, 3, 3, 70),
            FilterShape::new(5, 1, 1, 144),
        ] {
            let raw = filters::<u64>(shape);
            let dict = FilterDict::build(&raw);
            let bank = LaneBank::new(&dict);
            assert_eq!(bank.shape(), shape);
            assert_eq!(bank.lanes, LaneBank::new(&raw).lanes);
            assert_eq!(bank.dram_discount_bytes(), dict.saved_bytes() as f64);
        }
    }

    #[test]
    fn a_picked_bank_holds_those_filters_in_order() {
        let raw = filters::<u64>(FilterShape::new(13, 3, 3, 70));
        let dict = FilterDict::build(&raw);
        let (all, picks) = (LaneBank::new(&raw), [12, 0, 12, 5]);
        let picked = LaneBank::picked(&dict, &picks);
        assert_eq!(picked.shape(), FilterShape::new(4, 3, 3, 70));
        assert_eq!(picked.dram_discount_bytes(), dict.saved_bytes() as f64);
        for (to, k) in picks.into_iter().enumerate() {
            assert_eq!(row(&picked, to), row(&all, k), "pick {to}");
        }
    }
}
