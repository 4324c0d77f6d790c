//! Property-based tests (proptest) on the core invariants: packing is
//! lossless, the xor-popcount identity holds for every vector, layer fusion
//! equals the unfused reference for arbitrary batch-norm parameters, the
//! bit-plane decomposition reconstructs, the bit-plane first layer equals
//! the integer convolution it stands for, bit pooling equals float pooling,
//! and the `.pbit` reader never panics on corrupt input.

use proptest::prelude::*;

use phonebit::core::format::{read_model, write_model};
use phonebit::nn::fuse::{BnParams, FusedBn};
use phonebit::tensor::bitplane::BitPlanes;
use phonebit::tensor::bits::{dot_pm1, BitTensor, BitWord, PackedFilters};
use phonebit::tensor::pack::{pack_f32, pack_filters, unpack_f32};
use phonebit::tensor::shape::{ConvGeometry, FilterShape, Layout, Shape4};
use phonebit::tensor::{Filters, Tensor};

fn signs(len: usize) -> impl Strategy<Value = Vec<bool>> {
    proptest::collection::vec(any::<bool>(), len)
}

fn u8_image(shape: Shape4, seed: u64) -> Tensor<u8> {
    Tensor::from_fn(shape, |n, y, x, ch| {
        (seed.wrapping_mul((1 + n * 977 + y * 131 + x * 31 + ch * 7) as u64) >> 7) as u8
    })
}

/// `planes` hold `img` and nothing else: the split inverts, equals a fresh
/// split, and no pixel word has a bit set at or past the channel count —
/// what a first-layer window would otherwise read as image.
fn planes_hold<W: BitWord>(planes: &BitPlanes<W>, img: &Tensor<u8>) -> Result<(), TestCaseError> {
    prop_assert_eq!(&planes.reconstruct(), img);
    prop_assert_eq!(planes, &BitPlanes::<W>::split(img));
    let (c, wpp) = (img.shape().c, planes.words_per_pixel());
    prop_assert_eq!(planes.words().len(), img.shape().pixels() * wpp);
    for pixel in planes.words().chunks(wpp) {
        for (t, word) in pixel.iter().enumerate() {
            let valid = W::low_mask((c - t * W::BITS).min(W::BITS));
            prop_assert!(word.iter().all(|plane| plane.and(valid.not()) == W::zero()));
        }
    }
    Ok(())
}

/// The first layer's meaning: direct `u8 × ±1` convolution, zero padded.
fn integer_conv(img: &Tensor<u8>, f: &Filters, geom: &ConvGeometry) -> Tensor<i32> {
    let (s, fs) = (img.shape(), f.shape());
    let (oh, ow) = geom.output_hw(s.h, s.w);
    Tensor::from_fn(Shape4::new(s.n, oh, ow, fs.k), |n, oy, ox, k| {
        let mut acc = 0i32;
        for i in 0..fs.kh {
            for j in 0..fs.kw {
                let iy = (oy * geom.stride_h + i) as isize - geom.pad_h as isize;
                let ix = (ox * geom.stride_w + j) as isize - geom.pad_w as isize;
                if iy < 0 || iy as usize >= s.h || ix < 0 || ix as usize >= s.w {
                    continue;
                }
                for c in 0..fs.c {
                    acc += img.at(n, iy as usize, ix as usize, c) as i32 * f.at(k, i, j, c) as i32;
                }
            }
        }
        acc
    })
}

/// `bitplane_conv_accum` == `expect`, and `bitplane_conv_fused_into` == accum →
/// `decide_logic`, at word width `W`; the engine's first-layer bodies — the
/// byte dot (which an `in8` chain without a pool runs too) and the `in8`
/// chain with the pool a `FusionMode::Force` plan folds in — decide the
/// same bits.
fn first_layer_matches<W: BitWord>(
    img: &Tensor<u8>,
    f: &Filters,
    fused: &FusedBn,
    geom: &ConvGeometry,
    expect: &Tensor<i32>,
) -> Result<(), TestCaseError> {
    use phonebit::nn::fuse::PlaneCuts;
    use phonebit::nn::kernels::bitplane::{bitplane_conv_accum, bitplane_conv_fused_into};
    use phonebit::nn::kernels::bytedot::{compute_byte_conv, ByteBank};
    use phonebit::nn::kernels::fused::{compute_in8_pool_chain, ring_shape};
    use phonebit::nn::kernels::pool::{maxpool_bits, PoolGeometry};
    let mut q = phonebit::gpusim::CommandQueue::new(
        phonebit::gpusim::DeviceProfile::adreno_640(),
        phonebit::gpusim::ExecutorClass::PhoneBitOpenCl,
    );
    let planes = BitPlanes::<W>::split(img);
    let packed = pack_filters::<W>(f);
    let accum = bitplane_conv_accum(&mut q, &planes, &packed, geom);
    prop_assert_eq!(accum.shape(), expect.shape());
    prop_assert_eq!(accum.as_slice(), expect.as_slice());
    let mut bits = BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0));
    bitplane_conv_fused_into(&mut q, &planes, &packed, fused, geom, &mut bits);
    prop_assert!(bits.tail_is_clean());
    for ((n, y, x, k), acc) in accum.iter_indexed() {
        prop_assert!(
            bits.get_bit(n, y, x, k) == fused.decide_logic(k, acc as f32),
            "W={} at ({n},{y},{x},{k}): accum {acc}",
            W::BITS
        );
    }
    let (bank, cuts) = (
        ByteBank::new(&packed),
        PlaneCuts::new(fused, f.shape().filter_len()),
    );
    let mut bytes = BitTensor::<W>::zeros(bits.shape());
    compute_byte_conv(img, &bank, &cuts, geom, &mut bytes);
    prop_assert!(bytes == bits, "W={}: byte dot", W::BITS);
    let s = bits.shape();
    let pool = PoolGeometry::new(2.min(s.h).min(s.w), 2);
    let pooled = maxpool_bits(&mut q, &bits, &pool);
    let mut ring = BitTensor::<W>::zeros(ring_shape(s.w, s.c, pool.size));
    let mut bytes = BitTensor::<W>::zeros(pooled.shape());
    compute_in8_pool_chain(img, &bank, &cuts, geom, &pool, &mut ring, &mut bytes);
    prop_assert!(bytes == pooled, "W={}: in8 chain with a pool", W::BITS);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_unpack_is_lossless(
        h in 1usize..5,
        w in 1usize..5,
        c in 1usize..130,
        seed in any::<u64>(),
    ) {
        let shape = Shape4::new(1, h, w, c);
        let t = Tensor::from_fn(shape, |_, y, x, ch| {
            let v = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((y * 31 + x * 7 + ch) as u64);
            if v.is_multiple_of(3) { 1.0 } else { -1.0 }
        });
        let packed = pack_f32::<u64>(&t);
        prop_assert!(packed.tail_is_clean());
        prop_assert_eq!(&unpack_f32(&packed), &t);
        // Every width agrees.
        let packed8 = pack_f32::<u8>(&t);
        prop_assert_eq!(unpack_f32(&packed8), unpack_f32(&packed));
    }

    #[test]
    fn xor_popcount_identity(
        a_bits in signs(100),
        b_bits in signs(100),
    ) {
        let len = a_bits.len();
        let mut a = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, len));
        let mut b = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, len));
        let mut expect = 0i32;
        for (c, (&x, &y)) in a_bits.iter().zip(&b_bits).enumerate() {
            a.set_bit(0, 0, 0, c, x);
            b.set_bit(0, 0, 0, c, y);
            expect += if x == y { 1 } else { -1 };
        }
        let got = dot_pm1(a.pixel_words(0, 0, 0), b.pixel_words(0, 0, 0), len);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn fused_decision_equals_bn_reference(
        gamma in prop::sample::select(vec![-2.0f32, -0.5, 0.25, 1.0, 3.0]),
        beta in -2.0f32..2.0,
        mu in -50.0f32..50.0,
        sigma in 0.1f32..10.0,
        bias in -5.0f32..5.0,
        x1 in -200i32..200,
    ) {
        let bn = BnParams {
            gamma: vec![gamma],
            beta: vec![beta],
            mu: vec![mu],
            sigma: vec![sigma],
        };
        let fused = FusedBn::precompute(&bn, &[bias]);
        let x = x1 as f32;
        let reference = bn.apply(0, x + bias) >= 0.0;
        prop_assert_eq!(fused.decide_branchy(0, x), reference);
        prop_assert_eq!(fused.decide_logic(0, x), reference);
    }

    #[test]
    fn eqn9_always_equals_eqn8(
        xi in -100.0f32..100.0,
        gamma_pos in any::<bool>(),
        x1 in -100.0f32..100.0,
    ) {
        let fused = FusedBn { xi: vec![xi], gamma_pos: vec![gamma_pos] };
        prop_assert_eq!(fused.decide_logic(0, x1), fused.decide_branchy(0, x1));
        // And exactly at the threshold.
        prop_assert_eq!(fused.decide_logic(0, xi), fused.decide_branchy(0, xi));
    }

    #[test]
    fn bitplane_split_reconstructs(
        h in 1usize..6,
        w in 1usize..6,
        // Past one word at every width.
        c in 1usize..70,
        seed in any::<u64>(),
    ) {
        let shape = Shape4::new(2, h, w, c);
        let img = Tensor::from_fn(shape, |n, y, x, ch| {
            (seed.wrapping_mul((1 + n * 977 + y * 131 + x * 31 + ch * 7) as u64) % 256) as u8
        });
        planes_hold(&BitPlanes::<u8>::split(&img), &img)?;
        planes_hold(&BitPlanes::<u16>::split(&img), &img)?;
        planes_hold(&BitPlanes::<u32>::split(&img), &img)?;
        planes_hold(&BitPlanes::<u64>::split(&img), &img)?;
    }

    #[test]
    fn bitplane_resplit_leaves_no_stale_bits(
        c in 1usize..40,
        h in 1usize..5,
        w in 1usize..5,
        seed in any::<u64>(),
    ) {
        // More channels than a u8 word holds, and one plane set re-split
        // into a larger and then a smaller shape: storage reuse must equal a
        // fresh split every time.
        let mut planes8 = BitPlanes::<u8>::empty(Shape4::new(1, h, w, c));
        let mut planes64 = BitPlanes::<u64>::empty(Shape4::new(1, h, w, c));
        for (round, shape) in [
            Shape4::new(1, h, w, c),
            Shape4::new(2, h + 2, w + 1, c + 9),
            Shape4::new(1, h, w + 1, c.div_ceil(2)),
        ]
        .into_iter()
        .enumerate()
        {
            let img = u8_image(shape, seed.wrapping_add(round as u64) | 1);
            planes8.split_from(&img);
            planes64.split_from(&img);
            planes_hold(&planes8, &img)?;
            planes_hold(&planes64, &img)?;
        }
    }

    #[test]
    fn bitplane_first_layer_equals_integer_conv(
        c in prop::sample::select(vec![1usize, 3, 4, 13]),
        kh in prop::sample::select(vec![1usize, 3, 5, 11]),
        kw in prop::sample::select(vec![1usize, 3, 5, 11]),
        stride_h in prop::sample::select(vec![1usize, 2, 4]),
        stride_w in prop::sample::select(vec![1usize, 2, 4]),
        pad_h in prop::sample::select(vec![0usize, 1, 2, 5]),
        pad_w in prop::sample::select(vec![0usize, 1, 2, 5]),
        batch in prop::sample::select(vec![1usize, 3]),
        h in 1usize..9,
        dw in 1usize..4,
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        // Windows of one word, of several, and (c = 13 on u8/u16) pixels
        // whose bits straddle a window word; pad >= kernel puts whole windows
        // in padding. Inputs grow just enough for the kernel to fit.
        let geom = ConvGeometry { kh, kw, stride_h, stride_w, pad_h, pad_w };
        let h = h.max(kh.saturating_sub(2 * pad_h));
        let w = (h + dw).max(kw.saturating_sub(2 * pad_w));
        let img = u8_image(Shape4::new(batch, h, w, c), seed | 1);
        let f = Filters::from_fn(FilterShape::new(k, kh, kw, c), |a, i, j, ch| {
            let v = seed.wrapping_mul(31).wrapping_add((a * 53 + i * 7 + j * 3 + ch) as u64);
            if (v >> 3).is_multiple_of(2) { 1.0 } else { -1.0 }
        });
        let fused = FusedBn {
            xi: (0..k).map(|i| (seed % 97) as f32 * (i as f32 - 1.5) * 3.0).collect(),
            gamma_pos: (0..k).map(|i| (seed >> i) & 1 == 1).collect(),
        };
        let expect = integer_conv(&img, &f, &geom);
        first_layer_matches::<u8>(&img, &f, &fused, &geom, &expect)?;
        first_layer_matches::<u16>(&img, &f, &fused, &geom, &expect)?;
        first_layer_matches::<u32>(&img, &f, &fused, &geom, &expect)?;
        first_layer_matches::<u64>(&img, &f, &fused, &geom, &expect)?;
    }

    #[test]
    fn bit_maxpool_equals_float_maxpool(
        h in 2usize..8,
        w in 2usize..8,
        c in 1usize..70,
        seed in any::<u64>(),
    ) {
        use phonebit::nn::kernels::pool::{
            compute_maxpool_bits, compute_maxpool_f32, PoolGeometry,
        };
        let shape = Shape4::new(1, h, w, c);
        let t = Tensor::from_fn(shape, |_, y, x, ch| {
            let v = seed.wrapping_add((y * 313 + x * 71 + ch * 13) as u64);
            if v % 5 < 2 { 1.0 } else { -1.0 }
        });
        let geom = PoolGeometry::new(2, 2);
        let (oh, ow) = geom.output_hw(h, w);
        let mut bits_out = BitTensor::<u64>::zeros(Shape4::new(1, oh, ow, c));
        compute_maxpool_bits(&pack_f32::<u64>(&t), &geom, &mut bits_out);
        let mut float_out = Tensor::zeros(Shape4::new(1, oh, ow, c), Layout::Nhwc);
        compute_maxpool_f32(&t, &geom, &mut float_out);
        let unpacked = unpack_f32(&bits_out);
        prop_assert_eq!(unpacked.as_slice(), float_out.as_slice());
    }

    #[test]
    fn format_reader_never_panics_on_corruption(
        flip_at in 0usize..500,
        flip_to in any::<u8>(),
    ) {
        // Build a small real model, corrupt one byte, and require a clean
        // Result (no panic, no abort).
        let mut filters = PackedFilters::<u64>::zeros(FilterShape::new(4, 3, 3, 10));
        filters.set_bit(1, 1, 1, 5, true);
        let model = phonebit::core::PbitModel {
            name: "fuzz".into(),
            input: Shape4::new(1, 8, 8, 3),
            layers: vec![phonebit::core::PbitLayer::BConv {
                name: "conv".into(),
                geom: phonebit::tensor::shape::ConvGeometry::square(3, 1, 1),
                filters,
                fused: FusedBn::identity(4),
            }],
        };
        let mut payload = write_model(&model);
        let idx = flip_at % payload.len();
        payload[idx] = flip_to;
        let _ = read_model(&payload); // must not panic
        // Truncations must not panic either.
        let _ = read_model(&payload[..idx]);
    }

    #[test]
    fn dense_dot_parity_invariant(
        bits in signs(64),
        wbits in signs(64),
    ) {
        // dot of two +-1 vectors of length n has the same parity as n.
        let len = bits.len();
        let mut a = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, len));
        let mut b = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, len));
        for c in 0..len {
            a.set_bit(0, 0, 0, c, bits[c]);
            b.set_bit(0, 0, 0, c, wbits[c]);
        }
        let d = dot_pm1(a.pixel_words(0, 0, 0), b.pixel_words(0, 0, 0), len);
        prop_assert_eq!((d - len as i32).rem_euclid(2), 0);
        prop_assert!(d.abs() <= len as i32);
    }

    #[test]
    fn lowered_gemm_equals_direct_conv(
        h in 3usize..7,
        w in 3usize..7,
        c in 1usize..40,
        k in 1usize..12,
        pad in 0usize..2,
        seed in any::<u64>(),
    ) {
        use phonebit::nn::kernels::{bconv::bconv_fused, bgemm::bconv_lowered};
        use phonebit::tensor::pack::{pack_f32, pack_filters};
        use phonebit::tensor::shape::{ConvGeometry, FilterShape};
        use phonebit::tensor::Filters;
        let t = Tensor::from_fn(Shape4::new(1, h, w, c), |_, y, x, ch| {
            let v = seed.wrapping_add((y * 131 + x * 37 + ch * 11) as u64);
            if v.is_multiple_of(3) { 1.0 } else { -1.0 }
        });
        let f = Filters::from_fn(FilterShape::new(k, 3, 3, c), |a, b, d, e| {
            let v = seed.wrapping_mul(31).wrapping_add((a * 53 + b * 7 + d * 3 + e) as u64);
            if v.is_multiple_of(2) { 1.0 } else { -1.0 }
        });
        let geom = ConvGeometry::square(3, 1, pad);
        if h + 2 * pad < 3 || w + 2 * pad < 3 {
            return Ok(());
        }
        let fused = FusedBn::identity(k);
        let mut q = phonebit::gpusim::CommandQueue::new(
            phonebit::gpusim::DeviceProfile::adreno_640(),
            phonebit::gpusim::ExecutorClass::PhoneBitOpenCl,
        );
        let direct = bconv_fused(&mut q, &pack_f32::<u64>(&t), &pack_filters::<u64>(&f), &fused, &geom);
        let lowered = bconv_lowered(&mut q, &pack_f32::<u64>(&t), &pack_filters::<u64>(&f), &fused, &geom);
        prop_assert_eq!(direct, lowered);
    }

    #[test]
    fn quantization_round_trip_error_bounded(
        values in proptest::collection::vec(-100.0f32..100.0, 1..64),
    ) {
        use phonebit::tensor::quant::quantize_slice;
        let (q, params) = quantize_slice(&values);
        for (&orig, &qi) in values.iter().zip(&q) {
            let back = params.dequantize(qi);
            prop_assert!(
                (orig - back).abs() <= params.scale * 0.51 + 1e-4,
                "value {} -> {} (scale {})", orig, back, params.scale
            );
        }
    }
}
