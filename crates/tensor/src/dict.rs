//! Dictionary-compressed binary filter banks.
//!
//! Binarized filters cluster into a small set of unique packed tap rows
//! (Silfa et al., *Exploiting Kernel Compression on BNNs*): sign-quantizing
//! collapses nearby float taps onto identical bit patterns. [`FilterDict`]
//! exploits that by storing each layer's filter bank as
//!
//! 1. a **dictionary** of the unique `words_per_tap()`-word tap rows, and
//! 2. a **narrow index table** with one entry per `(k, i, j)` tap, in the
//!    same `(k, i, j)`-major order as [`PackedFilters`].
//!
//! The index width is the narrowest unsigned type that addresses the
//! dictionary (1 byte for ≤ 256 unique rows, 2 for ≤ 65 536, else 4), so the
//! compressed footprint is `unique · row_bytes + taps · index_width`.
//!
//! Readers go through the dictionary via [`FilterAccess`]: the span a tap
//! resolves to is bit-identical to the raw tap span, so whatever is built
//! from it — the per-tap oracle's dots, or the filter-interleaved
//! [`LaneBank`](crate::lanes::LaneBank) the kernels run on — is unchanged.
//! The dictionary is the modeled device's format: what it stores and reads
//! ([`FilterAccess::dram_discount_bytes`]). The engine stages its lanes from
//! the raw rows and never builds one; a compressed layer's saving reaches
//! the host only as the plan's modeled numbers. The host's own saving from
//! the same clustering is of whole filters, not taps, and holds dictionary
//! or not: a layer whose filters repeat stages only its distinct filters'
//! lanes and multiplies each once (`nn::kernels::tiled::FusedLanes`).
//!
//! Compression is lossless and byte-exact: [`FilterDict::decode`] rebuilds
//! the original [`PackedFilters`].

use std::collections::HashMap;

use crate::bits::{BitWord, PackedFilters};
use crate::shape::FilterShape;

/// Uniform read interface over raw ([`PackedFilters`]) and
/// dictionary-compressed ([`FilterDict`]) filter banks.
///
/// Every span-returning method yields bit-identical words for both
/// representations, so a kernel generic over `FilterAccess` is bit-exact by
/// construction. [`FilterAccess::dram_discount_bytes`] is the modeled DRAM
/// saving of one full read of the bank (0 for raw banks), which kernels
/// subtract from their profile's read traffic.
pub trait FilterAccess<W: BitWord> {
    /// The logical filter-bank shape.
    fn shape(&self) -> FilterShape;

    /// Packed words covering one tap's channels.
    fn words_per_tap(&self) -> usize;

    /// The packed word span of tap `(k, i, j)`.
    fn tap_words(&self, k: usize, i: usize, j: usize) -> &[W];

    /// Modeled DRAM bytes saved per full traversal of the bank relative to
    /// the raw representation. Raw banks save nothing.
    fn dram_discount_bytes(&self) -> f64 {
        0.0
    }
}

impl<W: BitWord> FilterAccess<W> for PackedFilters<W> {
    fn shape(&self) -> FilterShape {
        PackedFilters::shape(self)
    }

    fn words_per_tap(&self) -> usize {
        PackedFilters::words_per_tap(self)
    }

    #[inline(always)]
    fn tap_words(&self, k: usize, i: usize, j: usize) -> &[W] {
        PackedFilters::tap_words(self, k, i, j)
    }
}

/// A dictionary-compressed binary filter bank: unique tap rows plus a
/// narrow per-tap index table. See the module docs for layout and the
/// compression model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterDict<W: BitWord = u64> {
    shape: FilterShape,
    words_per_tap: usize,
    /// Unique tap rows, concatenated; row `r` occupies words
    /// `r * words_per_tap .. (r + 1) * words_per_tap`.
    rows: Vec<W>,
    /// Dictionary row of each `(k, i, j)` tap, `(k, i, j)`-major. Stored as
    /// `u32` in host memory; the *modeled* on-device width is
    /// [`FilterDict::index_width_bytes`].
    indices: Vec<u32>,
}

impl<W: BitWord> FilterDict<W> {
    /// Builds the dictionary by deduplicating the bank's tap rows in
    /// `(k, i, j)`-major order. Deterministic: dictionary rows are stored
    /// in first-occurrence order, so identical banks always produce
    /// identical dictionaries.
    pub fn build(filters: &PackedFilters<W>) -> Self {
        let shape = filters.shape();
        let wpt = filters.words_per_tap();
        let taps = shape.k * shape.kh * shape.kw;
        let mut seen: HashMap<Vec<W>, u32> = HashMap::new();
        let mut rows: Vec<W> = Vec::new();
        let mut indices = Vec::with_capacity(taps);
        for k in 0..shape.k {
            for i in 0..shape.kh {
                for j in 0..shape.kw {
                    let span = filters.tap_words(k, i, j);
                    let next = seen.len() as u32;
                    let idx = *seen.entry(span.to_vec()).or_insert_with(|| {
                        rows.extend_from_slice(span);
                        next
                    });
                    indices.push(idx);
                }
            }
        }
        Self {
            shape,
            words_per_tap: wpt,
            rows,
            indices,
        }
    }

    /// Number of unique tap rows in the dictionary.
    pub fn unique_rows(&self) -> usize {
        self.rows.len().checked_div(self.words_per_tap).unwrap_or(0)
    }

    /// Total tap rows in the logical bank (`k * kh * kw`).
    pub fn total_rows(&self) -> usize {
        self.indices.len()
    }

    /// Modeled on-device index width: the narrowest unsigned type that
    /// addresses every dictionary row.
    pub fn index_width_bytes(&self) -> usize {
        let unique = self.unique_rows();
        if unique <= 1 << 8 {
            1
        } else if unique <= 1 << 16 {
            2
        } else {
            4
        }
    }

    /// Bytes of the raw (uncompressed) bank this dictionary encodes.
    pub fn raw_bytes(&self) -> usize {
        self.indices.len() * self.words_per_tap * std::mem::size_of::<W>()
    }

    /// Bytes of the compressed representation: dictionary rows plus the
    /// narrow index table.
    pub fn compressed_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<W>() + self.indices.len() * self.index_width_bytes()
    }

    /// Bytes saved by compressing (0 when the dictionary does not win).
    pub fn saved_bytes(&self) -> usize {
        self.raw_bytes().saturating_sub(self.compressed_bytes())
    }

    /// Whether the compressed form is strictly smaller than the raw bank.
    pub fn wins(&self) -> bool {
        self.compressed_bytes() < self.raw_bytes()
    }

    /// Reconstructs the original [`PackedFilters`], bit-exact.
    pub fn decode(&self) -> PackedFilters<W> {
        let mut out = PackedFilters::zeros(self.shape);
        for k in 0..self.shape.k {
            for i in 0..self.shape.kh {
                for j in 0..self.shape.kw {
                    out.set_tap_words(k, i, j, FilterAccess::tap_words(self, k, i, j));
                }
            }
        }
        out
    }

    #[inline]
    fn tap_index(&self, k: usize, i: usize, j: usize) -> usize {
        let s = self.shape;
        debug_assert!(k < s.k && i < s.kh && j < s.kw);
        (k * s.kh + i) * s.kw + j
    }
}

impl<W: BitWord> FilterAccess<W> for FilterDict<W> {
    fn shape(&self) -> FilterShape {
        self.shape
    }

    fn words_per_tap(&self) -> usize {
        self.words_per_tap
    }

    #[inline(always)]
    fn tap_words(&self, k: usize, i: usize, j: usize) -> &[W] {
        let row = self.indices[self.tap_index(k, i, j)] as usize;
        &self.rows[row * self.words_per_tap..(row + 1) * self.words_per_tap]
    }

    fn dram_discount_bytes(&self) -> f64 {
        self.saved_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_filters(shape: FilterShape, patterns: usize) -> PackedFilters<u64> {
        let mut f = PackedFilters::zeros(shape);
        for k in 0..shape.k {
            for i in 0..shape.kh {
                for j in 0..shape.kw {
                    let p = (k * 7 + i * 3 + j) % patterns;
                    for c in 0..shape.c {
                        // Pattern p sets exactly the channels ≡ p (mod
                        // patterns), so distinct p values give distinct rows.
                        f.set_bit(k, i, j, c, c % patterns == p);
                    }
                }
            }
        }
        f
    }

    #[test]
    fn dict_round_trips_and_matches_raw_reads() {
        let shape = FilterShape::new(8, 3, 3, 70);
        let f = clustered_filters(shape, 5);
        let d = FilterDict::build(&f);
        assert_eq!(d.unique_rows(), 5);
        assert_eq!(d.total_rows(), 8 * 3 * 3);
        assert_eq!(d.decode(), f);
        for k in 0..shape.k {
            for i in 0..shape.kh {
                for j in 0..shape.kw {
                    assert_eq!(
                        FilterAccess::tap_words(&d, k, i, j),
                        PackedFilters::tap_words(&f, k, i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn compressed_accounting() {
        let shape = FilterShape::new(16, 3, 3, 64);
        let f = clustered_filters(shape, 4);
        let d = FilterDict::build(&f);
        // 144 taps of 8 bytes raw; 4 unique rows + 144 one-byte indices.
        assert_eq!(d.raw_bytes(), 144 * 8);
        assert_eq!(d.index_width_bytes(), 1);
        assert_eq!(d.compressed_bytes(), 4 * 8 + 144);
        assert!(d.wins());
        assert_eq!(d.saved_bytes(), d.raw_bytes() - d.compressed_bytes());
        assert_eq!(
            FilterAccess::<u64>::dram_discount_bytes(&d),
            d.saved_bytes() as f64
        );
    }

    #[test]
    fn all_unique_rows_do_not_win() {
        let shape = FilterShape::new(4, 1, 1, 64);
        let mut f = PackedFilters::<u64>::zeros(shape);
        for k in 0..4 {
            f.set_bit(k, 0, 0, k, true);
        }
        let d = FilterDict::build(&f);
        assert_eq!(d.unique_rows(), 4);
        assert!(!d.wins());
        assert_eq!(d.saved_bytes(), 0);
    }

    #[test]
    fn raw_bank_access_is_identity() {
        let shape = FilterShape::new(3, 2, 2, 20);
        let f = clustered_filters(shape, 9);
        assert_eq!(FilterAccess::<u64>::dram_discount_bytes(&f), 0.0);
        assert_eq!(FilterAccess::tap_words(&f, 2, 1, 0), f.tap_words(2, 1, 0));
    }
}
