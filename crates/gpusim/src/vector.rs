//! OpenCL-style vector types (`uchar2` … `ulong16`).
//!
//! The paper's kernels use OpenCL built-in vector data types with 2, 4, 8 or
//! 16 elements to reach "parallel bit-wise operations in different
//! parallelization granularity from 8-bit to 1024-bit" (§V-A.2 — `ulong16`
//! is the 1024-bit case). This module provides the same shapes as plain Rust
//! value types so kernels written against the simulator read like their
//! OpenCL counterparts, and so the vector-width ablation can instantiate one
//! generic kernel at every granularity.

use phonebit_tensor::bits::BitWord;

/// A fixed-width vector of packed words, the analogue of OpenCL `typeN`.
///
/// # Examples
///
/// ```
/// use phonebit_gpusim::vector::ClVec;
/// let a = ClVec::<u8, 4>::splat(0b1010);
/// let b = ClVec::<u8, 4>::splat(0b0110);
/// assert_eq!(a.xor(b).popcount(), 4 * 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClVec<W: BitWord, const N: usize>(pub [W; N]);

impl<W: BitWord, const N: usize> Default for ClVec<W, N> {
    fn default() -> Self {
        Self([W::zero(); N])
    }
}

impl<W: BitWord, const N: usize> ClVec<W, N> {
    /// Total bits carried by the vector.
    pub const TOTAL_BITS: usize = W::BITS * N;

    /// Vector with every lane equal to `v`.
    pub fn splat(v: W) -> Self {
        Self([v; N])
    }

    /// Loads `N` consecutive words from a slice.
    ///
    /// This is the analogue of OpenCL `vloadN`; the simulator's cost model
    /// credits it as a single wide (bulk) load.
    ///
    /// # Panics
    ///
    /// Panics if `src` holds fewer than `N` words.
    #[inline(always)]
    pub fn load(src: &[W]) -> Self {
        let mut out = [W::zero(); N];
        out.copy_from_slice(&src[..N]);
        Self(out)
    }

    /// Loads up to `N` words, zero-filling missing lanes (tail handling).
    #[inline(always)]
    pub fn load_partial(src: &[W]) -> Self {
        let mut out = [W::zero(); N];
        let n = src.len().min(N);
        out[..n].copy_from_slice(&src[..n]);
        Self(out)
    }

    /// Stores all lanes to a slice (`vstoreN`).
    ///
    /// # Panics
    ///
    /// Panics if `dst` holds fewer than `N` words.
    #[inline(always)]
    pub fn store(self, dst: &mut [W]) {
        dst[..N].copy_from_slice(&self.0);
    }

    /// Lane-wise xor.
    #[inline(always)]
    pub fn xor(self, other: Self) -> Self {
        let mut out = self.0;
        for (a, b) in out.iter_mut().zip(other.0.iter()) {
            *a = a.xor(*b);
        }
        Self(out)
    }

    /// Lane-wise and.
    #[inline(always)]
    pub fn and(self, other: Self) -> Self {
        let mut out = self.0;
        for (a, b) in out.iter_mut().zip(other.0.iter()) {
            *a = a.and(*b);
        }
        Self(out)
    }

    /// Lane-wise or.
    #[inline(always)]
    pub fn or(self, other: Self) -> Self {
        let mut out = self.0;
        for (a, b) in out.iter_mut().zip(other.0.iter()) {
            *a = a.or(*b);
        }
        Self(out)
    }

    /// Lane-wise complement (named after the OpenCL builtin, like
    /// [`BitWord::not`], rather than the `std::ops::Not` trait).
    #[inline(always)]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        let mut out = self.0;
        for a in out.iter_mut() {
            *a = a.not();
        }
        Self(out)
    }

    /// Sum of set bits across all lanes (horizontal popcount reduction).
    #[inline(always)]
    pub fn popcount(self) -> u32 {
        self.0.iter().map(|w| w.popcount()).sum()
    }

    /// Set bits of each lane (the OpenCL `popcount` builtin on a vector):
    /// lets a loop accumulate lane-wise and reduce once at its end.
    #[inline(always)]
    pub fn popcount_lanes(self) -> [u32; N] {
        let mut out = [0u32; N];
        for (count, w) in out.iter_mut().zip(self.0) {
            *count = w.popcount();
        }
        out
    }
}

/// 8-lane `uchar` vector (64-bit granularity).
pub type UChar8 = ClVec<u8, 8>;
/// 16-lane `uchar` vector (128-bit granularity).
pub type UChar16 = ClVec<u8, 16>;
/// 8-lane `ushort` vector.
pub type UShort8 = ClVec<u16, 8>;
/// 4-lane `uint` vector (128-bit granularity).
pub type UInt4 = ClVec<u32, 4>;
/// 2-lane `ulong` vector (128-bit granularity, the paper's vectorized
/// load/store chunk size §VI-A.1).
pub type ULong2 = ClVec<u64, 2>;
/// 4-lane `ulong` vector (256-bit).
pub type ULong4 = ClVec<u64, 4>;
/// 8-lane `ulong` vector (512-bit).
pub type ULong8 = ClVec<u64, 8>;
/// 16-lane `ulong` vector — the 1024-bit maximum granularity of §V-A.2.
pub type ULong16 = ClVec<u64, 16>;

/// Streaming xor-popcount over two equal-length word slices using `N`-lane
/// vector operations with scalar tail handling.
///
/// Returns `popcount(xor(a, b))` — the "disagreement count" of Eqn (1).
/// Counts accumulate per lane and are summed across lanes once, after the
/// last chunk.
///
/// `#[inline(always)]`, like every method above: the binary kernels re-enter
/// this code under `#[target_feature]` wrappers (`phonebit_nn::kernels::isa`)
/// and only code inlined into a wrapper is compiled with its instructions.
#[inline(always)]
pub fn xor_popcount_vec<W: BitWord, const N: usize>(a: &[W], b: &[W]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    let b = &b[..a.len()];
    let mut lanes = [0u64; N];
    let chunks = a.len() / N;
    for i in 0..chunks {
        let va = ClVec::<W, N>::load(&a[i * N..(i + 1) * N]);
        let vb = ClVec::<W, N>::load(&b[i * N..(i + 1) * N]);
        for (sum, c) in lanes.iter_mut().zip(va.xor(vb).popcount_lanes()) {
            *sum += u64::from(c);
        }
    }
    let mut acc = 0u32;
    for lane in lanes {
        acc += lane as u32;
    }
    for i in chunks * N..a.len() {
        acc += a[i].xor(b[i]).popcount();
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_bits_reaches_1024() {
        assert_eq!(ULong16::TOTAL_BITS, 1024);
        assert_eq!(UChar16::TOTAL_BITS, 128);
        assert_eq!(ULong2::TOTAL_BITS, 128);
    }

    #[test]
    fn load_store_round_trip() {
        let src = [1u16, 2, 3, 4, 5, 6, 7, 8];
        let v = UShort8::load(&src);
        let mut dst = [0u16; 8];
        v.store(&mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn load_partial_zero_fills() {
        let v = UInt4::load_partial(&[7, 9]);
        assert_eq!(v.0, [7, 9, 0, 0]);
    }

    #[test]
    fn lanewise_ops() {
        let a = ClVec::<u8, 2>([0b1100, 0b1010]);
        let b = ClVec::<u8, 2>([0b1010, 0b1010]);
        assert_eq!(a.xor(b).0, [0b0110, 0]);
        assert_eq!(a.and(b).0, [0b1000, 0b1010]);
        assert_eq!(a.or(b).0, [0b1110, 0b1010]);
        assert_eq!(a.not().0, [!0b1100u8, !0b1010u8]);
    }

    #[test]
    fn popcount_sums_lanes() {
        let v = ClVec::<u64, 3>([u64::MAX, 0, 1]);
        assert_eq!(v.popcount(), 65);
    }

    #[test]
    fn xor_popcount_vec_matches_scalar() {
        let a: Vec<u64> = (0..37)
            .map(|i| (i as u64).wrapping_mul(0x9E3779B97F4A7C15))
            .collect();
        let b: Vec<u64> = (0..37)
            .map(|i| (i as u64).wrapping_mul(0xBF58476D1CE4E5B9))
            .collect();
        let scalar: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
        assert_eq!(xor_popcount_vec::<u64, 2>(&a, &b), scalar);
        assert_eq!(xor_popcount_vec::<u64, 4>(&a, &b), scalar);
        assert_eq!(xor_popcount_vec::<u64, 16>(&a, &b), scalar);
    }
}
