//! Bit-plane decomposition of 8-bit integer inputs (paper §III-B).
//!
//! The first convolution layer of a BNN receives images as 8-bit integers,
//! which conflicts with the binary-input requirement. Following the paper
//! (and Courbariaux et al.), the input `I` is split into bit-planes
//! `I_1 .. I_8` (LSB first) and the layer output is the weighted sum of
//! binary convolutions:
//!
//! ```text
//! s = Σ_{n=1..8} 2^(n−1) · <I_n · W>          (Eqn 2)
//! ```
//!
//! where each `<I_n · W>` is a `{0,1} × {±1}` convolution computed with
//! masked popcounts ([`crate::bits::dot_u1_pm1`]).
//!
//! The planes are stored **side by side**: per pixel and channel word, the
//! eight plane words adjacent as one `[W; 8]`, pixel-major. Eight channel
//! bytes are an 8×8 bit matrix whose transpose is those channels' byte of
//! each plane, so the split is one SWAR transpose and one store per eight
//! channels (at `u8`, an RGB pixel's 8 bytes) and the first-layer kernel
//! reads a pixel's planes with one load.

use crate::bits::BitWord;
use crate::shape::Shape4;
use crate::tensor::Tensor;

/// The 8 bit-planes of an unsigned 8-bit image, a pixel's channel bits
/// packed into words of type `W`, the planes of each word side by side
/// (LSB plane first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlanes<W: BitWord = u64> {
    words: Vec<[W; 8]>,
    shape: Shape4,
}

impl<W: BitWord> BitPlanes<W> {
    /// Creates 8 all-zero planes of the given shape (a reusable split
    /// target for [`BitPlanes::split_from`]).
    pub fn empty(shape: Shape4) -> Self {
        let words = vec![[W::zero(); 8]; shape.pixels() * shape.c.div_ceil(W::BITS)];
        Self { words, shape }
    }

    /// Splits an NHWC `u8` tensor into 8 channel-packed bit-planes.
    pub fn split(t: &Tensor<u8>) -> Self {
        let mut out = Self::empty(t.shape());
        out.split_from(t);
        out
    }

    /// Re-splits `t` into this plane set, reusing the plane storage
    /// (allocation-free when the shape's packed footprint fits the existing
    /// buffer).
    pub fn split_from(&mut self, t: &Tensor<u8>) {
        let s = t.shape();
        self.shape = s;
        // Every word is stored below, so nothing is zero-filled first.
        self.words
            .resize(s.pixels() * self.words_per_pixel(), [W::zero(); 8]);
        let t = t.nhwc();
        // Every zoo model's first layer reads RGB, and a channel count known
        // at compile time unrolls the byte loads below.
        match s.c {
            3 => split_pixels(t.as_slice(), 3, &mut self.words),
            c => split_pixels(t.as_slice(), c, &mut self.words),
        }
    }

    /// The shape shared by every plane.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Words covering one pixel's channels, per plane.
    #[inline(always)]
    pub fn words_per_pixel(&self) -> usize {
        self.shape.c.div_ceil(W::BITS)
    }

    /// Every pixel's [`BitPlanes::words_per_pixel`] channel words in NHW
    /// order, each the eight planes of that word, LSB plane first.
    #[inline(always)]
    pub fn words(&self) -> &[[W; 8]] {
        &self.words
    }

    /// Bit `c` of pixel `(n, h, w)` in plane `plane` (0 = least significant).
    fn get_bit(&self, plane: usize, n: usize, h: usize, w: usize, c: usize) -> bool {
        let pixel = (n * self.shape.h + h) * self.shape.w + w;
        self.words[pixel * self.words_per_pixel() + c / W::BITS][plane].bit(c % W::BITS)
    }

    /// Reconstructs the original `u8` tensor (inverse of [`BitPlanes::split`]).
    pub fn reconstruct(&self) -> Tensor<u8> {
        Tensor::from_fn(self.shape, |n, h, w, c| {
            (0..8).fold(0, |v, b| v | u8::from(self.get_bit(b, n, h, w, c)) << b)
        })
    }

    /// Total packed bytes across all 8 planes.
    pub fn byte_len(&self) -> usize {
        std::mem::size_of_val(&self.words[..])
    }
}

/// An 8×8 bit-matrix transpose (Hacker's Delight §7-3) as three block
/// swaps — 1×1, 2×2, 4×4 — each a (shift, mask of the blocks that move up).
const TRANSPOSE_STEPS: [(u32, u64); 3] = [
    (7, 0x00AA_00AA_00AA_00AA),
    (14, 0x0000_CCCC_0000_CCCC),
    (28, 0x0000_0000_F0F0_F0F0),
];

/// Splits NHWC `bytes` of `c` channels per pixel into `words`, storing
/// every one: eight channel bytes at a time are transposed (bit `b` of byte
/// `r` moves to bit `r` of byte `b`) into those channels' byte of each plane,
/// and a word's bytes are assembled in registers and stored once.
#[inline(always)]
fn split_pixels<W: BitWord>(bytes: &[u8], c: usize, words: &mut [[W; 8]]) {
    let wpp = c.div_ceil(W::BITS).max(1);
    for (pixel, words) in bytes
        .chunks_exact(c.max(1))
        .zip(words.chunks_exact_mut(wpp))
    {
        for (channels, word) in pixel.chunks(W::BITS).zip(words) {
            let mut regs = [0u64; 8];
            for (at, eight) in channels.chunks(8).enumerate() {
                let mut x = eight.iter().rev().fold(0, |r, &v| r << 8 | u64::from(v));
                for (shift, mask) in TRANSPOSE_STEPS {
                    let t = (x ^ (x >> shift)) & mask;
                    x ^= t ^ (t << shift);
                }
                for (reg, byte) in regs.iter_mut().zip(x.to_le_bytes()) {
                    *reg |= u64::from(byte) << (8 * at);
                }
            }
            *word = regs.map(W::truncate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::dot_u1_pm1;
    use crate::bits::PackedFilters;
    use crate::shape::FilterShape;

    fn image(shape: Shape4) -> Tensor<u8> {
        Tensor::from_fn(shape, |n, h, w, c| {
            ((n * 131 + h * 37 + w * 11 + c * 3) % 256) as u8
        })
    }

    #[test]
    fn split_reconstruct_round_trip() {
        let t = image(Shape4::new(1, 5, 5, 3));
        let planes = BitPlanes::<u8>::split(&t);
        assert_eq!(planes.reconstruct(), t);
    }

    #[test]
    fn split_reads_nchw_like_nhwc() {
        for c in [3, 5] {
            let t = image(Shape4::new(2, 3, 4, c));
            let nchw = t.to_layout(crate::shape::Layout::Nchw);
            assert_eq!(BitPlanes::<u8>::split(&nchw), BitPlanes::<u8>::split(&t));
        }
    }

    #[test]
    fn plane_zero_is_lsb() {
        let mut t = Tensor::<u8>::zeros(Shape4::new(1, 1, 1, 1), crate::shape::Layout::Nhwc);
        t.set(0, 0, 0, 0, 0b0000_0101);
        let planes = BitPlanes::<u64>::split(&t);
        assert!(planes.get_bit(0, 0, 0, 0, 0));
        assert!(!planes.get_bit(1, 0, 0, 0, 0));
        assert!(planes.get_bit(2, 0, 0, 0, 0));
    }

    #[test]
    fn weighted_plane_dot_equals_integer_dot() {
        // Eqn (2): the weighted sum of per-plane {0,1}x{+-1} dots equals the
        // direct integer dot product of u8 values with +-1 weights.
        let t = image(Shape4::new(1, 1, 1, 13));
        let planes = BitPlanes::<u16>::split(&t);
        let mut wf = PackedFilters::<u16>::zeros(FilterShape::new(1, 1, 1, 13));
        let signs: Vec<i32> = (0..13).map(|c| if c % 3 == 0 { 1 } else { -1 }).collect();
        for (c, &s) in signs.iter().enumerate() {
            wf.set_bit(0, 0, 0, c, s > 0);
        }
        // Direct integer reference.
        let expect: i32 = (0..13).map(|c| t.at(0, 0, 0, c) as i32 * signs[c]).sum();
        // Plane-wise Eqn (2).
        let mut partials = [0i32; 8];
        for (n, p) in partials.iter_mut().enumerate() {
            *p = dot_u1_pm1(&[planes.words()[0][n]], wf.tap_words(0, 0, 0));
        }
        let s: i32 = partials.iter().enumerate().map(|(n, &p)| p << n).sum();
        assert_eq!(s, expect);
    }

    #[test]
    fn every_width_splits_to_the_same_bits() {
        for c in [1, 3, 8, 9, 16, 17, 33, 70] {
            let t = image(Shape4::new(2, 3, 4, c));
            let by_bytes = BitPlanes::<u8>::split(&t);
            assert_eq!(by_bytes.reconstruct(), t, "c={c}");
            fn same<A: BitWord, B: BitWord>(a: &BitPlanes<A>, b: &BitPlanes<B>, c: usize) {
                let bits = |p, ch| (a.get_bit(p, 1, 2, 3, ch), b.get_bit(p, 1, 2, 3, ch));
                assert!((0..8).all(|p| (0..c).all(|ch| bits(p, ch).0 == bits(p, ch).1)));
            }
            same(&by_bytes, &BitPlanes::<u16>::split(&t), c);
            same(&by_bytes, &BitPlanes::<u32>::split(&t), c);
            same(&by_bytes, &BitPlanes::<u64>::split(&t), c);
        }
    }

    #[test]
    fn byte_len_is_eight_planes() {
        let t = image(Shape4::new(1, 4, 4, 3));
        let planes = BitPlanes::<u8>::split(&t);
        // 3 channels -> 1 byte per pixel per plane; 16 pixels; 8 planes.
        assert_eq!(planes.byte_len(), 16 * 8);
    }
}
