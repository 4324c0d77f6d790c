//! Channel-packed binary tensors.
//!
//! PhoneBit packs binarized activations and weights along the **channel**
//! dimension into machine words (paper §V-A: `uchar`/`ushort`/`uint`/`ulong`,
//! i.e. 8/16/32/64-bit), then performs convolution directly on the compressed
//! representation with `xor` + `popcount` (Eqn (1)).
//!
//! Bit convention: **bit = 1 encodes +1, bit = 0 encodes −1**. Two equal bits
//! multiply to +1, two different bits to −1, so for vectors of logical length
//! `Len`:
//!
//! ```text
//! A · B = Len − 2 · popcount(xor(A, B))          (Eqn 1)
//! ```
//!
//! # Tail invariant
//!
//! When the channel count is not a multiple of the word width, the unused
//! high bits of the final word of each span are kept **zero**. Because the
//! invariant holds for both operands, those bits cancel in `xor` and never
//! perturb a popcount. Constructors and setters maintain the invariant;
//! [`BitTensor::tail_is_clean`] verifies it in tests.

use crate::shape::{FilterShape, Shape4};

/// A machine word usable as a container of packed channel bits.
///
/// Implemented for `u8`, `u16`, `u32` and `u64`, mirroring the OpenCL scalar
/// types `uchar`, `ushort`, `uint` and `ulong` the paper packs into.
pub trait BitWord:
    Copy
    + Default
    + PartialEq
    + Eq
    + std::hash::Hash
    + std::fmt::Debug
    + std::fmt::Binary
    + Send
    + Sync
    + 'static
{
    /// Number of bits in the word.
    const BITS: usize;
    /// Short OpenCL-style name (`uchar`, `ushort`, `uint`, `ulong`).
    const CL_NAME: &'static str;

    /// The all-zeros word.
    fn zero() -> Self;
    /// Bitwise exclusive or.
    fn xor(self, other: Self) -> Self;
    /// Bitwise and.
    fn and(self, other: Self) -> Self;
    /// Bitwise or.
    fn or(self, other: Self) -> Self;
    /// Bitwise complement.
    fn not(self) -> Self;
    /// Number of set bits.
    fn popcount(self) -> u32;
    /// Shift left by `n` bits (`n < BITS`).
    fn shl(self, n: usize) -> Self;
    /// Shift right (logical) by `n` bits (`n < BITS`).
    fn shr(self, n: usize) -> Self;
    /// Tests bit `i` (LSB first).
    fn bit(self, i: usize) -> bool;
    /// Returns the word with bit `i` set to `v`.
    fn with_bit(self, i: usize, v: bool) -> Self;
    /// The word `1` when `v`, else `0` — a decision as a shiftable bit, with
    /// no branch on `v`.
    fn from_bit(v: bool) -> Self;
    /// Mask with the low `n` bits set (`n <= BITS`).
    fn low_mask(n: usize) -> Self;
    /// The word zero-extended to 64 bits.
    fn widen(self) -> u64;
    /// The low `BITS` bits of `v`.
    fn truncate(v: u64) -> Self;
}

// `#[inline(always)]`, here and on the span accessors below, is load-bearing:
// the binary kernels re-enter their row drivers under `#[target_feature]`
// wrappers (`phonebit_nn::kernels::isa`), and only code inlined into a
// wrapper is compiled with its instructions — a `count_ones` left in an
// out-of-line `popcount` would stay the baseline target's bit-twiddling.
macro_rules! impl_bit_word {
    ($t:ty, $bits:expr, $name:expr) => {
        impl BitWord for $t {
            const BITS: usize = $bits;
            const CL_NAME: &'static str = $name;

            #[inline(always)]
            fn zero() -> Self {
                0
            }
            #[inline(always)]
            fn xor(self, other: Self) -> Self {
                self ^ other
            }
            #[inline(always)]
            fn and(self, other: Self) -> Self {
                self & other
            }
            #[inline(always)]
            fn or(self, other: Self) -> Self {
                self | other
            }
            #[inline(always)]
            fn not(self) -> Self {
                !self
            }
            #[inline(always)]
            fn popcount(self) -> u32 {
                self.count_ones()
            }
            #[inline(always)]
            fn shl(self, n: usize) -> Self {
                debug_assert!(n < $bits);
                self << n
            }
            #[inline(always)]
            fn shr(self, n: usize) -> Self {
                debug_assert!(n < $bits);
                self >> n
            }
            #[inline(always)]
            fn bit(self, i: usize) -> bool {
                debug_assert!(i < $bits);
                (self >> i) & 1 == 1
            }
            #[inline(always)]
            fn with_bit(self, i: usize, v: bool) -> Self {
                debug_assert!(i < $bits);
                if v {
                    self | (1 << i)
                } else {
                    self & !(1 << i)
                }
            }
            #[inline(always)]
            fn from_bit(v: bool) -> Self {
                v as $t
            }
            #[inline(always)]
            fn low_mask(n: usize) -> Self {
                debug_assert!(n <= $bits);
                if n == $bits {
                    <$t>::MAX
                } else {
                    (1 as $t).wrapping_shl(n as u32).wrapping_sub(1)
                }
            }
            #[inline(always)]
            fn widen(self) -> u64 {
                self as u64
            }
            #[inline(always)]
            fn truncate(v: u64) -> Self {
                v as $t
            }
        }
    };
}

impl_bit_word!(u8, 8, "uchar");
impl_bit_word!(u16, 16, "ushort");
impl_bit_word!(u32, 32, "uint");
impl_bit_word!(u64, 64, "ulong");

/// Packing word width chosen per layer ("PhoneBit selects the optimal bit
/// packing strategy and computing kernel according to channel dimensions",
/// paper §V-A.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackWidth {
    /// 8-bit words (`uchar`).
    W8,
    /// 16-bit words (`ushort`).
    W16,
    /// 32-bit words (`uint`).
    W32,
    /// 64-bit words (`ulong`).
    W64,
}

impl PackWidth {
    /// Bits per word.
    pub fn bits(self) -> usize {
        match self {
            PackWidth::W8 => 8,
            PackWidth::W16 => 16,
            PackWidth::W32 => 32,
            PackWidth::W64 => 64,
        }
    }

    /// Selects the widest word that does not waste more than half of its
    /// bits on the given channel count — the strategy the paper describes
    /// for matching the packing kernel to the channel dimension.
    ///
    /// Channel counts of 64 and above always use `ulong` words.
    pub fn select(channels: usize) -> Self {
        if channels >= 64 || channels > 32 {
            PackWidth::W64
        } else if channels > 16 {
            PackWidth::W32
        } else if channels > 8 {
            PackWidth::W16
        } else {
            PackWidth::W8
        }
    }

    /// Words required to hold `channels` bits.
    pub fn words_for(self, channels: usize) -> usize {
        channels.div_ceil(self.bits())
    }
}

/// A rank-4 binary tensor with channel bits packed into words of type `W`.
///
/// Physical order is NHWC with each pixel's channel bits occupying
/// `words_per_pixel()` consecutive words, so the innermost packed dimension
/// is contiguous — the "locality-friendly data layout" of §V-A.1.
///
/// # Examples
///
/// ```
/// use phonebit_tensor::{bits::BitTensor, shape::Shape4};
/// let mut t = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, 70));
/// t.set_bit(0, 0, 0, 69, true);
/// assert!(t.get_bit(0, 0, 0, 69));
/// assert_eq!(t.words_per_pixel(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitTensor<W: BitWord = u64> {
    shape: Shape4,
    words_per_pixel: usize,
    data: Vec<W>,
}

impl<W: BitWord> BitTensor<W> {
    /// Creates an all-zeros (all −1 semantics) packed tensor.
    pub fn zeros(shape: Shape4) -> Self {
        let words_per_pixel = shape.c.div_ceil(W::BITS);
        let data = vec![W::zero(); shape.pixels() * words_per_pixel];
        Self {
            shape,
            words_per_pixel,
            data,
        }
    }

    /// Logical shape (the channel extent counts bits, not words).
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Re-shapes the tensor to `shape` with all bits cleared, reusing the
    /// existing word storage. When the new word count fits the buffer's
    /// capacity this performs **no heap allocation** — the primitive behind
    /// the engine's arena slots, which are sized once at plan time and
    /// reset per inference.
    pub fn reset(&mut self, shape: Shape4) {
        self.data.clear();
        self.reset_for_overwrite(shape);
    }

    /// [`BitTensor::reset`] for a caller that stores every word itself:
    /// words the buffer already holds keep their stale contents instead of
    /// being zero-filled first (only growth is zeroed).
    pub fn reset_for_overwrite(&mut self, shape: Shape4) {
        self.shape = shape;
        self.words_per_pixel = shape.c.div_ceil(W::BITS);
        self.data
            .resize(shape.pixels() * self.words_per_pixel, W::zero());
    }

    /// Packed words covering one pixel's channels.
    pub fn words_per_pixel(&self) -> usize {
        self.words_per_pixel
    }

    /// Total packed words.
    pub fn word_len(&self) -> usize {
        self.data.len()
    }

    /// Bytes occupied by the packed payload.
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<W>()
    }

    /// Raw packed words.
    pub fn as_words(&self) -> &[W] {
        &self.data
    }

    /// Mutable raw packed words.
    ///
    /// Callers must preserve the tail invariant (unused high bits zero);
    /// [`BitTensor::tail_is_clean`] can be used to verify.
    pub fn as_mut_words(&mut self) -> &mut [W] {
        &mut self.data
    }

    /// Index of the first word of pixel `(n, h, w)`.
    #[inline(always)]
    pub fn pixel_offset(&self, n: usize, h: usize, w: usize) -> usize {
        let s = self.shape;
        debug_assert!(n < s.n && h < s.h && w < s.w);
        ((n * s.h + h) * s.w + w) * self.words_per_pixel
    }

    /// The packed word span of pixel `(n, h, w)`.
    #[inline(always)]
    pub fn pixel_words(&self, n: usize, h: usize, w: usize) -> &[W] {
        let off = self.pixel_offset(n, h, w);
        &self.data[off..off + self.words_per_pixel]
    }

    /// Reads the channel bit at `(n, h, w, c)`.
    #[inline]
    pub fn get_bit(&self, n: usize, h: usize, w: usize, c: usize) -> bool {
        debug_assert!(c < self.shape.c);
        let off = self.pixel_offset(n, h, w);
        self.data[off + c / W::BITS].bit(c % W::BITS)
    }

    /// Writes the channel bit at `(n, h, w, c)`.
    #[inline]
    pub fn set_bit(&mut self, n: usize, h: usize, w: usize, c: usize, v: bool) {
        debug_assert!(c < self.shape.c);
        let off = self.pixel_offset(n, h, w);
        let i = off + c / W::BITS;
        self.data[i] = self.data[i].with_bit(c % W::BITS, v);
    }

    /// Verifies the tail invariant: all bits beyond the channel count are 0.
    pub fn tail_is_clean(&self) -> bool {
        let rem = self.shape.c % W::BITS;
        if rem == 0 || self.words_per_pixel == 0 {
            return true;
        }
        let mask = W::low_mask(rem).not();
        (0..self.shape.pixels()).all(|p| {
            let last = self.data[p * self.words_per_pixel + self.words_per_pixel - 1];
            last.and(mask) == W::zero()
        })
    }

    /// Counts set bits (+1 channels) in the whole tensor.
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(|w| w.popcount() as usize).sum()
    }
}

/// ORs the low `len_bits` of the packed span `src` into `dst` starting at
/// bit position `bit_off` — the shifting word-merge behind bit-im2col
/// materialization and flattening at channel counts that do not fill their
/// words (`C % W::BITS != 0`).
///
/// `src` must obey the tail invariant (bits at and beyond `len_bits` are
/// zero), so each source word lands with at most two shifted ORs and no
/// per-bit walk. Destination bits inside the target range must currently be
/// zero for the merge to behave as a write (callers merge into zeroed rows).
///
/// # Panics
///
/// Panics (in debug builds) when `src` cannot hold `len_bits` or `dst`
/// cannot hold `bit_off + len_bits`.
#[inline]
pub fn merge_bits<W: BitWord>(dst: &mut [W], bit_off: usize, src: &[W], len_bits: usize) {
    debug_assert!(src.len() * W::BITS >= len_bits);
    debug_assert!(dst.len() * W::BITS >= bit_off + len_bits);
    let src_words = len_bits.div_ceil(W::BITS);
    let shift = bit_off % W::BITS;
    let mut word = bit_off / W::BITS;
    if shift == 0 {
        for &s in &src[..src_words] {
            dst[word] = dst[word].or(s);
            word += 1;
        }
        return;
    }
    for &s in &src[..src_words] {
        dst[word] = dst[word].or(s.shl(shift));
        let carry = s.shr(W::BITS - shift);
        if word + 1 < dst.len() {
            dst[word + 1] = dst[word + 1].or(carry);
        } else {
            debug_assert_eq!(carry, W::zero(), "merge_bits overflowed the span");
        }
        word += 1;
    }
}

/// Binary dot product of two packed spans under the ±1 convention (Eqn (1)).
///
/// `len` is the logical bit count; both spans must obey the tail invariant.
///
/// # Panics
///
/// Panics in debug builds if the spans have different word counts or cannot
/// hold `len` bits.
#[inline]
pub fn dot_pm1<W: BitWord>(a: &[W], b: &[W], len: usize) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(a.len() * W::BITS >= len);
    let mut disagree = 0u32;
    for (&x, &y) in a.iter().zip(b.iter()) {
        disagree += x.xor(y).popcount();
    }
    len as i32 - 2 * disagree as i32
}

/// Dot product of a `{0,1}`-valued span (a bit-plane, §III-B) with a
/// ±1-valued span (binary weights).
///
/// Each plane bit of value 1 contributes the weight's ±1; plane bits of 0
/// contribute nothing:
///
/// ```text
/// a · w = 2 · popcount(a & w) − popcount(a)
/// ```
///
/// Tail bits of `a` must be zero (the tail of `w` is then irrelevant).
#[inline]
pub fn dot_u1_pm1<W: BitWord>(a: &[W], w: &[W]) -> i32 {
    debug_assert_eq!(a.len(), w.len());
    let mut pos = 0u32;
    let mut total = 0u32;
    for (&x, &y) in a.iter().zip(w.iter()) {
        pos += x.and(y).popcount();
        total += x.popcount();
    }
    2 * pos as i32 - total as i32
}

/// Binary filter bank packed along the channel dimension.
///
/// Each filter tap `(k, i, j)` owns a span of `words_per_tap()` words, so
/// a convolution window walks filter taps and activation pixels in lockstep,
/// one packed span at a time. Taps are laid out `(k, i, j)`-major, which
/// means **one filter's whole window is a single contiguous span** — see
/// [`PackedFilters::filter_words`] — exactly the layout a gathered
/// convolution window has, so [`crate::lanes::LaneBank`] interleaves it with
/// plain word copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedFilters<W: BitWord = u64> {
    shape: FilterShape,
    words_per_tap: usize,
    data: Vec<W>,
}

impl<W: BitWord> PackedFilters<W> {
    /// Creates an all-zeros (all −1) packed filter bank.
    pub fn zeros(shape: FilterShape) -> Self {
        let words_per_tap = shape.c.div_ceil(W::BITS);
        let data = vec![W::zero(); shape.k * shape.kh * shape.kw * words_per_tap];
        Self {
            shape,
            words_per_tap,
            data,
        }
    }

    /// Words a bank of `shape` packs to, `None` on overflow — what a reader
    /// checks a declared shape against before allocating for it.
    pub fn checked_word_len(shape: FilterShape) -> Option<usize> {
        [shape.kh, shape.kw, shape.c.div_ceil(W::BITS)]
            .iter()
            .try_fold(shape.k, |n, &d| n.checked_mul(d))
    }

    /// A bank over already-packed `data` ([`Self::as_words`]' layout);
    /// `None` unless it is `shape`'s word count with clean tails.
    pub fn from_words(shape: FilterShape, data: Vec<W>) -> Option<Self> {
        let words_per_tap = shape.c.div_ceil(W::BITS);
        let bank = Self {
            shape,
            words_per_tap,
            data,
        };
        let fits = Self::checked_word_len(shape) == Some(bank.data.len());
        (fits && bank.tail_is_clean()).then_some(bank)
    }

    /// The logical filter-bank shape.
    pub fn shape(&self) -> FilterShape {
        self.shape
    }

    /// Packed words covering one tap's channels.
    pub fn words_per_tap(&self) -> usize {
        self.words_per_tap
    }

    /// Bytes occupied by the packed payload.
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<W>()
    }

    /// Index of the first word of tap `(k, i, j)`.
    #[inline(always)]
    fn tap_offset(&self, k: usize, i: usize, j: usize) -> usize {
        let s = self.shape;
        debug_assert!(k < s.k && i < s.kh && j < s.kw);
        ((k * s.kh + i) * s.kw + j) * self.words_per_tap
    }

    /// The packed word span of tap `(k, i, j)`.
    #[inline(always)]
    pub fn tap_words(&self, k: usize, i: usize, j: usize) -> &[W] {
        let off = self.tap_offset(k, i, j);
        &self.data[off..off + self.words_per_tap]
    }

    /// Reads the weight bit at `(k, i, j, c)`.
    #[inline]
    pub fn get_bit(&self, k: usize, i: usize, j: usize, c: usize) -> bool {
        debug_assert!(c < self.shape.c);
        let off = self.tap_offset(k, i, j);
        self.data[off + c / W::BITS].bit(c % W::BITS)
    }

    /// Writes the weight bit at `(k, i, j, c)`.
    #[inline]
    pub fn set_bit(&mut self, k: usize, i: usize, j: usize, c: usize, v: bool) {
        debug_assert!(c < self.shape.c);
        let idx = self.tap_offset(k, i, j) + c / W::BITS;
        self.data[idx] = self.data[idx].with_bit(c % W::BITS, v);
    }

    /// Overwrites the packed words of tap `(k, i, j)` with `words` — the
    /// bulk path for building filter banks out of existing word spans
    /// (e.g. word-aligned flattening) without a per-bit walk.
    ///
    /// # Panics
    ///
    /// Panics if `words` is not exactly one tap span long; the caller must
    /// supply tail-clean words (debug-asserted).
    pub fn set_tap_words(&mut self, k: usize, i: usize, j: usize, words: &[W]) {
        assert_eq!(words.len(), self.words_per_tap, "tap span length mismatch");
        let off = self.tap_offset(k, i, j);
        self.data[off..off + self.words_per_tap].copy_from_slice(words);
        debug_assert!(self.tail_is_clean(), "set_tap_words given dirty tail bits");
    }

    /// Words occupied by one filter's whole window (`kh * kw` tap spans).
    #[inline(always)]
    fn words_per_filter(&self) -> usize {
        self.shape.kh * self.shape.kw * self.words_per_tap
    }

    /// The contiguous packed span of one filter's entire `(kh, kw, c)`
    /// window — tap `(i, j)` lives at relative word offset
    /// `(i*kw + j) * words_per_tap()`, the same raster layout a gathered
    /// activation window uses.
    #[inline(always)]
    pub fn filter_words(&self, k: usize) -> &[W] {
        let len = self.words_per_filter();
        &self.data[k * len..(k + 1) * len]
    }

    /// Raw packed words.
    pub fn as_words(&self) -> &[W] {
        &self.data
    }

    /// Verifies the tail invariant on every tap span.
    pub fn tail_is_clean(&self) -> bool {
        let rem = self.shape.c % W::BITS;
        if rem == 0 || self.words_per_tap == 0 {
            return true;
        }
        let taps = self.shape.k * self.shape.kh * self.shape.kw;
        let mask = W::low_mask(rem).not();
        (0..taps).all(|t| {
            let last = self.data[t * self.words_per_tap + self.words_per_tap - 1];
            last.and(mask) == W::zero()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_word_basics() {
        assert_eq!(u8::BITS as usize, <u8 as BitWord>::BITS);
        assert_eq!(<u64 as BitWord>::CL_NAME, "ulong");
        assert_eq!(0b1010u8.xor(0b0110), 0b1100);
        assert_eq!(0b1010u8.and(0b0110), 0b0010);
        assert_eq!(0b1010u8.or(0b0110), 0b1110);
        assert_eq!(0xF0u8.not(), 0x0F);
        assert_eq!(0xFFu8.popcount(), 8);
        assert!(0b100u8.bit(2));
        assert!(!0b100u8.bit(1));
        assert_eq!(0u8.with_bit(3, true), 8);
        assert_eq!(8u8.with_bit(3, false), 0);
        assert_eq!(u8::low_mask(3), 0b111);
        assert_eq!(u8::low_mask(8), 0xFF);
        assert_eq!(u64::low_mask(64), u64::MAX);
        assert_eq!(u64::low_mask(0), 0);
    }

    #[test]
    fn pack_width_select_matches_channel_dim() {
        assert_eq!(PackWidth::select(3), PackWidth::W8);
        assert_eq!(PackWidth::select(8), PackWidth::W8);
        assert_eq!(PackWidth::select(16), PackWidth::W16);
        assert_eq!(PackWidth::select(24), PackWidth::W32);
        assert_eq!(PackWidth::select(32), PackWidth::W32);
        assert_eq!(PackWidth::select(64), PackWidth::W64);
        assert_eq!(PackWidth::select(1024), PackWidth::W64);
    }

    #[test]
    fn pack_width_words_for() {
        assert_eq!(PackWidth::W8.words_for(8), 1);
        assert_eq!(PackWidth::W8.words_for(9), 2);
        assert_eq!(PackWidth::W64.words_for(128), 2);
        assert_eq!(PackWidth::W64.words_for(1), 1);
    }

    #[test]
    fn bit_tensor_set_get_round_trip() {
        let mut t = BitTensor::<u8>::zeros(Shape4::new(1, 2, 2, 10));
        assert_eq!(t.words_per_pixel(), 2);
        t.set_bit(0, 1, 1, 9, true);
        t.set_bit(0, 1, 1, 0, true);
        assert!(t.get_bit(0, 1, 1, 9));
        assert!(t.get_bit(0, 1, 1, 0));
        assert!(!t.get_bit(0, 1, 1, 5));
        t.set_bit(0, 1, 1, 9, false);
        assert!(!t.get_bit(0, 1, 1, 9));
        assert!(t.tail_is_clean());
    }

    #[test]
    fn tail_invariant_detects_dirt() {
        let mut t = BitTensor::<u8>::zeros(Shape4::new(1, 1, 1, 5));
        assert!(t.tail_is_clean());
        // Manually smudge a tail bit beyond channel 5.
        t.as_mut_words()[0] = 0b1000_0000;
        assert!(!t.tail_is_clean());
    }

    #[test]
    fn dot_pm1_matches_float_reference() {
        // 10 channels: a = +-+-+-+-+-, b = ++++++++++
        let mut a = BitTensor::<u16>::zeros(Shape4::new(1, 1, 1, 10));
        let mut b = BitTensor::<u16>::zeros(Shape4::new(1, 1, 1, 10));
        let mut expect = 0i32;
        for c in 0..10 {
            let av = c % 2 == 0;
            let bv = true;
            a.set_bit(0, 0, 0, c, av);
            b.set_bit(0, 0, 0, c, bv);
            let af = if av { 1 } else { -1 };
            let bf = if bv { 1 } else { -1 };
            expect += af * bf;
        }
        assert_eq!(
            dot_pm1(a.pixel_words(0, 0, 0), b.pixel_words(0, 0, 0), 10),
            expect
        );
        assert_eq!(expect, 0);
    }

    #[test]
    fn dot_pm1_extremes() {
        let a = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, 70));
        let b = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, 70));
        // all -1 . all -1 = +70
        assert_eq!(
            dot_pm1(a.pixel_words(0, 0, 0), b.pixel_words(0, 0, 0), 70),
            70
        );
        let mut b2 = b.clone();
        for c in 0..70 {
            b2.set_bit(0, 0, 0, c, true);
        }
        // all -1 . all +1 = -70
        assert_eq!(
            dot_pm1(a.pixel_words(0, 0, 0), b2.pixel_words(0, 0, 0), 70),
            -70
        );
    }

    #[test]
    fn dot_u1_pm1_masks_zero_plane_bits() {
        // plane a = 1,0,1 ; weights w = +1,-1,-1  =>  a.w = 1*1 + 0 + 1*(-1) = 0
        let mut a = BitTensor::<u8>::zeros(Shape4::new(1, 1, 1, 3));
        a.set_bit(0, 0, 0, 0, true);
        a.set_bit(0, 0, 0, 2, true);
        let mut w = PackedFilters::<u8>::zeros(FilterShape::new(1, 1, 1, 3));
        w.set_bit(0, 0, 0, 0, true);
        assert_eq!(dot_u1_pm1(a.pixel_words(0, 0, 0), w.tap_words(0, 0, 0)), 0);
    }

    #[test]
    fn packed_filters_round_trip() {
        let mut f = PackedFilters::<u32>::zeros(FilterShape::new(2, 3, 3, 40));
        assert_eq!(f.words_per_tap(), 2);
        f.set_bit(1, 2, 2, 39, true);
        assert!(f.get_bit(1, 2, 2, 39));
        assert!(!f.get_bit(1, 2, 2, 38));
        assert!(f.tail_is_clean());
        assert_eq!(f.byte_len(), 2 * 3 * 3 * 2 * 4);
    }

    #[test]
    fn pixel_words_are_contiguous_nhwc() {
        // NHWC contiguity: consecutive w pixels are adjacent word spans.
        let t = BitTensor::<u8>::zeros(Shape4::new(1, 2, 3, 9));
        assert_eq!(t.pixel_offset(0, 0, 0), 0);
        assert_eq!(t.pixel_offset(0, 0, 1), 2);
        assert_eq!(t.pixel_offset(0, 0, 2), 4);
        assert_eq!(t.pixel_offset(0, 1, 0), 6);
        assert_eq!(t.word_len(), 12);
    }

    #[test]
    fn filter_words_are_contiguous_raster_windows() {
        let mut f = PackedFilters::<u8>::zeros(FilterShape::new(3, 2, 2, 10));
        // words_per_tap = 2; one filter window = 2*2*2 = 8 words.
        assert_eq!(f.words_per_filter(), 8);
        f.set_bit(1, 0, 1, 9, true);
        let span = f.filter_words(1);
        assert_eq!(span.len(), 8);
        // Tap (0, 1) sits at relative offset (0*2 + 1) * 2 = 2; channel 9 is
        // bit 1 of the second word of the tap.
        assert_eq!(span[3], 0b10);
        assert_eq!(span, &f.as_words()[8..16]);
    }

    #[test]
    fn merge_bits_matches_per_bit_reference() {
        // Merge several unaligned spans into one row and compare against a
        // per-bit walk, across word widths and channel counts.
        fn check<W: BitWord>(c: usize, taps: usize) {
            let mut src_rows: Vec<Vec<W>> = Vec::new();
            let mut reference = vec![false; c * taps];
            for t in 0..taps {
                let mut row = vec![W::zero(); c.div_ceil(W::BITS)];
                for b in 0..c {
                    if (t * 31 + b * 7) % 3 == 0 {
                        row[b / W::BITS] = row[b / W::BITS].with_bit(b % W::BITS, true);
                        reference[t * c + b] = true;
                    }
                }
                src_rows.push(row);
            }
            let mut dst = vec![W::zero(); (c * taps).div_ceil(W::BITS)];
            for (t, row) in src_rows.iter().enumerate() {
                merge_bits(&mut dst, t * c, row, c);
            }
            for (i, &expect) in reference.iter().enumerate() {
                assert_eq!(
                    dst[i / W::BITS].bit(i % W::BITS),
                    expect,
                    "W={} c={c} taps={taps} bit {i}",
                    W::BITS
                );
            }
        }
        for c in [1usize, 3, 5, 7, 9, 13, 37, 63, 64, 65, 100] {
            check::<u8>(c, 9);
            check::<u64>(c, 9);
        }
        check::<u32>(40, 3);
        check::<u16>(17, 6);
    }

    #[test]
    fn merge_bits_word_aligned_is_plain_or() {
        let src = [0xDEADu16, 0xBEEF];
        let mut dst = [0u16; 4];
        merge_bits(&mut dst, 32, &src, 32);
        assert_eq!(dst, [0, 0, 0xDEAD, 0xBEEF]);
    }

    #[test]
    fn reset_reuses_storage_and_clears_bits() {
        let mut t = BitTensor::<u64>::zeros(Shape4::new(1, 4, 4, 130));
        t.set_bit(0, 3, 3, 129, true);
        let cap_words = t.word_len();
        t.reset(Shape4::new(1, 2, 2, 70));
        assert_eq!(t.shape(), Shape4::new(1, 2, 2, 70));
        assert_eq!(t.words_per_pixel(), 2);
        assert_eq!(t.count_ones(), 0);
        assert!(t.tail_is_clean());
        assert!(t.word_len() <= cap_words);
        // Growing back within the original footprint still works.
        t.reset(Shape4::new(1, 4, 4, 130));
        assert_eq!(t.count_ones(), 0);
    }

    #[test]
    fn count_ones_counts_whole_tensor() {
        let mut t = BitTensor::<u64>::zeros(Shape4::new(1, 2, 2, 3));
        t.set_bit(0, 0, 0, 0, true);
        t.set_bit(0, 1, 1, 2, true);
        assert_eq!(t.count_ones(), 2);
    }
}
