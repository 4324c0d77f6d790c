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

use crate::bits::{BitTensor, BitWord};
use crate::shape::Shape4;
use crate::tensor::Tensor;

/// The 8 bit-planes of an unsigned 8-bit image, LSB plane first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitPlanes<W: BitWord = u64> {
    planes: [BitTensor<W>; 8],
    shape: Shape4,
}

impl<W: BitWord> BitPlanes<W> {
    /// Creates 8 all-zero planes of the given shape (a reusable split
    /// target for [`BitPlanes::split_from`]).
    pub fn empty(shape: Shape4) -> Self {
        Self {
            planes: std::array::from_fn(|_| BitTensor::zeros(shape)),
            shape,
        }
    }

    /// Splits an NHWC `u8` tensor into 8 channel-packed bit-planes.
    pub fn split(t: &Tensor<u8>) -> Self {
        let mut out = Self::empty(t.shape());
        out.split_from(t);
        out
    }

    /// Re-splits `t` into this plane set, reusing the plane storage
    /// (allocation-free when the shape's packed footprint fits the existing
    /// buffers).
    pub fn split_from(&mut self, t: &Tensor<u8>) {
        let s = t.shape();
        self.shape = s;
        // Every word is stored below, so nothing is zero-filled first.
        for plane in &mut self.planes {
            plane.reset_for_overwrite(s);
        }
        let t = t.nhwc();
        let bytes = t.as_slice();
        let planes = self.planes.each_mut().map(BitTensor::as_mut_words);
        // Every zoo model's first layer reads RGB, and a channel count known
        // at compile time unrolls the bit loop below (2.5x on 416x416).
        match s.c {
            3 => split_pixels(bytes, 3, planes),
            c => split_pixels(bytes, c, planes),
        }
    }

    /// The shape shared by every plane.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Plane `n` (0 = least significant bit).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    pub fn plane(&self, n: usize) -> &BitTensor<W> {
        &self.planes[n]
    }

    /// The packed words of all eight planes, LSB plane first.
    #[inline(always)]
    pub fn plane_words(&self) -> [&[W]; 8] {
        self.planes.each_ref().map(BitTensor::as_words)
    }

    /// Reconstructs the original `u8` tensor (inverse of [`BitPlanes::split`]).
    pub fn reconstruct(&self) -> Tensor<u8> {
        let s = self.shape;
        Tensor::from_fn(s, |n, h, w, c| {
            let mut v = 0u8;
            for (b, plane) in self.planes.iter().enumerate() {
                if plane.get_bit(n, h, w, c) {
                    v |= 1 << b;
                }
            }
            v
        })
    }

    /// Total packed bytes across all 8 planes.
    pub fn byte_len(&self) -> usize {
        self.planes.iter().map(|p| p.byte_len()).sum()
    }
}

/// Splits NHWC `bytes` of `c` channels per pixel into `planes`, storing
/// every word: each pixel's eight plane words are built in registers, one
/// channel-word at a time — bit `b` of a byte shifted into plane `b` — and
/// stored once per plane.
#[inline(always)]
fn split_pixels<W: BitWord>(bytes: &[u8], c: usize, mut planes: [&mut [W]; 8]) {
    let wpp = c.div_ceil(W::BITS);
    for (px, pixel) in bytes.chunks_exact(c.max(1)).enumerate() {
        for (t, channels) in pixel.chunks(W::BITS).enumerate() {
            let mut regs = [W::zero(); 8];
            for (bit, &v) in channels.iter().enumerate() {
                for (b, reg) in regs.iter_mut().enumerate() {
                    *reg = reg.or(W::from_bit((v >> b) & 1 == 1).shl(bit));
                }
            }
            for (plane, reg) in planes.iter_mut().zip(regs) {
                plane[px * wpp + t] = reg;
            }
        }
    }
}

/// Combines per-plane binary-convolution results into the integer output of
/// Eqn (2): `s = Σ 2^n · partial[n]`.
///
/// # Panics
///
/// Panics if `partials` does not hold exactly 8 values.
#[inline]
pub fn combine_planes(partials: &[i32; 8]) -> i32 {
    partials
        .iter()
        .enumerate()
        .map(|(n, &p)| (1i32 << n) * p)
        .sum()
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
        assert!(planes.plane(0).get_bit(0, 0, 0, 0));
        assert!(!planes.plane(1).get_bit(0, 0, 0, 0));
        assert!(planes.plane(2).get_bit(0, 0, 0, 0));
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
            *p = dot_u1_pm1(planes.plane(n).pixel_words(0, 0, 0), wf.tap_words(0, 0, 0));
        }
        assert_eq!(combine_planes(&partials), expect);
    }

    #[test]
    fn combine_planes_weights_are_powers_of_two() {
        let mut partials = [0i32; 8];
        partials[0] = 1;
        partials[7] = 1;
        assert_eq!(combine_planes(&partials), 1 + 128);
        let partials = [1i32; 8];
        assert_eq!(combine_planes(&partials), 255);
    }

    #[test]
    fn byte_len_is_eight_planes() {
        let t = image(Shape4::new(1, 4, 4, 3));
        let planes = BitPlanes::<u8>::split(&t);
        // 3 channels -> 1 byte per pixel per plane; 16 pixels; 8 planes.
        assert_eq!(planes.byte_len(), 16 * 8);
    }
}
