//! Binarization and channel packing between float tensors and packed form.
//!
//! The sign convention follows Eqn (7) of the paper: a value binarizes to
//! bit 1 (+1) when it is `>= 0` and to bit 0 (−1) otherwise. Packing walks
//! NHWC order so the channel bits of one pixel land in consecutive words.

use crate::bits::{BitTensor, BitWord, PackedFilters};
use crate::shape::{Layout, Shape4};
use crate::tensor::{Filters, Tensor};

/// Binarizes a float tensor with threshold 0 and packs channel bits.
///
/// Input may be in either layout; packing is always performed in NHWC
/// channel-innermost order (the engine converts layouts up front so this is
/// a straight sweep in the hot path).
pub fn pack_f32<W: BitWord>(t: &Tensor<f32>) -> BitTensor<W> {
    let mut out = BitTensor::<W>::zeros(t.shape());
    pack_f32_into(t, &mut out);
    out
}

/// [`pack_f32`] into a caller-provided tensor (reset to the input's shape),
/// reusing its storage: [`pack_window_into`] on a one-tensor window.
#[inline(always)]
pub fn pack_f32_into<W: BitWord>(t: &Tensor<f32>, out: &mut BitTensor<W>) {
    pack_window_into(std::slice::from_ref(&*t.nhwc()), t.shape(), out);
}

/// The one sign-pack sweep: packs the NHWC `images`, in order and from
/// where they lie, into the leading lanes of `out` (reset to `shape`), and
/// `pack(0.0)` — bit 1 in every real channel — into the lanes a short
/// window leaves. Words are walked directly over the contiguous channel
/// runs and every one is stored, so nothing is zero-filled first.
///
/// [`pack_window_with`] over the portable sixteen-value compare.
///
/// # Panics
///
/// Panics when an image is not NHWC with `shape.c` channels, or the images
/// hold more pixels than `shape`.
#[inline(always)]
pub fn pack_window_into<W: BitWord>(images: &[Tensor<f32>], shape: Shape4, out: &mut BitTensor<W>) {
    pack_window_with(images, shape, out, sign_mask);
}

/// [`pack_window_into`] with the sixteen-value compare supplied: `mask`
/// returns bit `i` set exactly when `values[i] >= 0.0` (so -0.0 packs to 1
/// and NaN to 0). `#[inline(always)]` so a caller can compile the sweep under a
/// wider instruction set, with a vector compare into a mask register as
/// `mask` (`phonebit_nn::kernels::compute_pack_input`).
///
/// # Panics
///
/// As [`pack_window_into`].
#[inline(always)]
pub fn pack_window_with<W: BitWord>(
    images: &[Tensor<f32>],
    shape: Shape4,
    out: &mut BitTensor<W>,
    mask: impl Fn(&[f32; 16]) -> u64,
) {
    out.reset_for_overwrite(shape);
    let wpp = out.words_per_pixel();
    let mut rest = out.as_mut_words();
    for t in images {
        let s = t.shape();
        assert_eq!((t.layout(), s.c), (Layout::Nhwc, shape.c), "window image");
        let lane;
        (lane, rest) = rest.split_at_mut(s.pixels() * wpp);
        let pixels = t.as_slice().chunks_exact(s.c);
        for (pixel, words) in pixels.zip(lane.chunks_exact_mut(wpp)) {
            for (word, values) in words.iter_mut().zip(pixel.chunks(W::BITS)) {
                *word = pack_word(values, &mask);
            }
        }
    }
    for words in rest.chunks_exact_mut(wpp.max(1)) {
        for (i, word) in words.iter_mut().enumerate() {
            *word = W::low_mask((shape.c - i * W::BITS).min(W::BITS));
        }
    }
}

/// Bit `i` set exactly when `values[i] >= 0.0`: the sign rule on sixteen
/// values, portable. `>=` on the value, not the sign bit: -0.0 packs to 1
/// and NaN to 0.
#[inline(always)]
fn sign_mask(values: &[f32; 16]) -> u64 {
    let mut mask = 0;
    for (i, eight) in values.chunks_exact(8).enumerate() {
        mask |= sign_bits(eight) << (8 * i);
    }
    mask
}

/// Bit `i` set exactly when `values[i] >= 0.0`, for up to 64 values. The
/// comparison lands as a shifted 0/1, so the loop has no data-dependent
/// branch; an eight-value call becomes a vector compare and a mask move.
#[inline(always)]
fn sign_bits(values: &[f32]) -> u64 {
    let mut bits = 0;
    for (i, &v) in values.iter().enumerate() {
        bits |= u64::from(v >= 0.0) << i;
    }
    bits
}

/// Packs up to `W::BITS` values into one word, LSB first: `mask` per
/// sixteen, then the rest one compare each.
#[inline(always)]
fn pack_word<W: BitWord>(values: &[f32], mask: &impl Fn(&[f32; 16]) -> u64) -> W {
    let (sixteens, rest) = values.as_chunks::<16>();
    let mut word = 0;
    for (i, sixteen) in sixteens.iter().enumerate() {
        word |= mask(sixteen) << (16 * i);
    }
    if !rest.is_empty() {
        word |= sign_bits(rest) << (16 * sixteens.len());
    }
    W::truncate(word)
}

/// Unpacks a bit tensor back to ±1.0 floats in NHWC.
pub fn unpack_f32<W: BitWord>(t: &BitTensor<W>) -> Tensor<f32> {
    let mut out = Tensor::zeros(t.shape(), Layout::Nhwc);
    unpack_f32_into(t, &mut out);
    out
}

/// [`unpack_f32`] into a caller-provided NHWC tensor (reset to the input's
/// shape), reusing its storage — the engine's arena path.
pub fn unpack_f32_into<W: BitWord>(t: &BitTensor<W>, out: &mut Tensor<f32>) {
    let s = t.shape();
    out.reset(s, Layout::Nhwc);
    let dst = out.as_mut_slice();
    let wpp = t.words_per_pixel();
    let words = t.as_words();
    for p in 0..s.pixels() {
        let base = p * s.c;
        for c in 0..s.c {
            let bit = words[p * wpp + c / W::BITS].bit(c % W::BITS);
            dst[base + c] = if bit { 1.0 } else { -1.0 };
        }
    }
}

/// Binarizes float filters with threshold 0 and packs channel bits per tap.
pub fn pack_filters<W: BitWord>(f: &Filters) -> PackedFilters<W> {
    let s = f.shape();
    let len = PackedFilters::<W>::checked_word_len(s).expect("a bank in memory fits");
    let mut words = Vec::with_capacity(len);
    for tap in f.as_slice().chunks_exact(s.c.max(1)) {
        words.extend(
            tap.chunks(W::BITS)
                .map(|values| pack_word::<W>(values, &sign_mask)),
        );
    }
    PackedFilters::from_words(s, words).expect("whole clean words per tap")
}

/// Unpacks packed filters back to ±1.0 float filters.
pub fn unpack_filters<W: BitWord>(f: &PackedFilters<W>) -> Filters {
    let s = f.shape();
    Filters::from_fn(
        s,
        |k, i, j, c| if f.get_bit(k, i, j, c) { 1.0 } else { -1.0 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{FilterShape, Shape4};

    fn ramp_tensor(shape: Shape4) -> Tensor<f32> {
        // Values alternate sign pseudo-deterministically.
        Tensor::from_fn(shape, |n, h, w, c| {
            let i = ((n * 31 + h * 17 + w * 7 + c * 3) % 11) as f32 - 5.0;
            i + 0.25
        })
    }

    #[test]
    fn pack_unpack_round_trip_u64() {
        let t = ramp_tensor(Shape4::new(2, 3, 3, 70));
        let packed = pack_f32::<u64>(&t);
        assert!(packed.tail_is_clean());
        let back = unpack_f32(&packed);
        for ((n, h, w, c), v) in t.iter_indexed() {
            let expect = if v >= 0.0 { 1.0 } else { -1.0 };
            assert_eq!(back.at(n, h, w, c), expect, "at ({n},{h},{w},{c})");
        }
    }

    #[test]
    fn pack_from_nchw_matches_nhwc() {
        let t = ramp_tensor(Shape4::new(1, 4, 4, 19));
        let nchw = t.to_layout(Layout::Nchw);
        let a = pack_f32::<u16>(&t);
        let b = pack_f32::<u16>(&nchw);
        assert_eq!(a, b);
    }

    fn window_packs_like_its_batched_tensor<W: BitWord>(c: usize) {
        let batched = ramp_tensor(Shape4::new(3, 2, 3, c));
        let per = 2 * 3 * c;
        let images: Vec<_> = (0..3)
            .map(|i| {
                let lane = batched.as_slice()[i * per..(i + 1) * per].to_vec();
                Tensor::from_vec(Shape4::new(1, 2, 3, c), Layout::Nhwc, lane)
            })
            .collect();
        let want = pack_f32::<W>(&batched);
        // Stale words everywhere: the sweep must store every one.
        let mut got = BitTensor::<W>::zeros(batched.shape());
        got.as_mut_words().fill(W::zero().not());
        pack_window_into(&images, batched.shape(), &mut got);
        assert_eq!(got, want, "{} c={c}", W::CL_NAME);
        // The lane a short window leaves packs as a zero image.
        got.as_mut_words().fill(W::zero().not());
        pack_window_into(&images[..2], batched.shape(), &mut got);
        assert!(got.tail_is_clean());
        for ((n, h, w, ch), _) in batched.iter_indexed() {
            let expect = n == 2 || want.get_bit(n, h, w, ch);
            assert_eq!(got.get_bit(n, h, w, ch), expect, "c={c} ({n},{h},{w},{ch})");
        }
    }

    #[test]
    fn window_sweep_equals_batched_pack_and_pads_with_zero_images() {
        for c in [1, 7, 8, 9, 64, 70] {
            window_packs_like_its_batched_tensor::<u8>(c);
            window_packs_like_its_batched_tensor::<u64>(c);
        }
    }

    #[test]
    fn pack_all_widths_agree() {
        let t = ramp_tensor(Shape4::new(1, 2, 2, 37));
        let p8 = pack_f32::<u8>(&t);
        let p64 = pack_f32::<u64>(&t);
        for ((n, h, w, c), _) in t.iter_indexed() {
            assert_eq!(p8.get_bit(n, h, w, c), p64.get_bit(n, h, w, c));
        }
    }

    #[test]
    fn zero_binarizes_to_plus_one() {
        let t = Tensor::from_vec(Shape4::new(1, 1, 1, 2), Layout::Nhwc, vec![0.0, -1e-30]);
        let p = pack_f32::<u8>(&t);
        assert!(p.get_bit(0, 0, 0, 0));
        assert!(!p.get_bit(0, 0, 0, 1));
    }

    fn pack_edge_values_at<W: BitWord>() {
        // Every tail length around one and two words, with -0.0 (packs to
        // 1), NaN (packs to 0) and a negative walking across the channels.
        for c in [1, W::BITS - 1, W::BITS, W::BITS + 1, 2 * W::BITS + 3] {
            let t = Tensor::from_fn(Shape4::new(1, 2, 1, c), |_, h, _, ch| match (ch + h) % 4 {
                0 => -0.0,
                1 => f32::NAN,
                2 => -1.5,
                _ => 2.0,
            });
            let p = pack_f32::<W>(&t);
            assert!(p.tail_is_clean(), "{} c={c}", W::CL_NAME);
            for ((n, h, w, ch), v) in t.iter_indexed() {
                let expect = (ch + h) % 4 == 0 || (ch + h) % 4 == 3;
                assert_eq!(v >= 0.0, expect, "test premise");
                assert_eq!(
                    p.get_bit(n, h, w, ch),
                    expect,
                    "{} c={c} ch={ch} v={v}",
                    W::CL_NAME
                );
            }
        }
    }

    #[test]
    fn negative_zero_nan_and_odd_tails_pack_by_comparison() {
        pack_edge_values_at::<u8>();
        pack_edge_values_at::<u16>();
        pack_edge_values_at::<u32>();
        pack_edge_values_at::<u64>();
    }

    #[test]
    fn filter_pack_round_trip() {
        let shape = FilterShape::new(3, 3, 3, 21);
        let f = Filters::from_fn(shape, |k, i, j, c| ((k + i + j + c) % 3) as f32 - 1.0);
        let packed = pack_filters::<u32>(&f);
        assert!(packed.tail_is_clean());
        let back = unpack_filters(&packed);
        for k in 0..shape.k {
            for i in 0..shape.kh {
                for j in 0..shape.kw {
                    for c in 0..shape.c {
                        let expect = if f.at(k, i, j, c) >= 0.0 { 1.0 } else { -1.0 };
                        assert_eq!(back.at(k, i, j, c), expect);
                    }
                }
            }
        }
    }

    #[test]
    fn packed_size_is_32x_smaller_than_f32() {
        let t = ramp_tensor(Shape4::new(1, 8, 8, 256));
        let packed = pack_f32::<u64>(&t);
        assert_eq!(t.byte_len(), packed.byte_len() * 32);
    }
}
