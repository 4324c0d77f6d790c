//! Inter-layer fused chain kernels: one dispatch per
//! pack→bconv→threshold→pool chain.
//!
//! PhoneBit's intra-layer fusion (conv+bias+BN+binarize, [`crate::fuse`])
//! stops at layer boundaries, so batch-1 inference stays launch-bound — each
//! plan step pays the per-dispatch overhead. These kernels collapse whole
//! chains into a single launch, the way SBNN/BSTC packs entire BNN inference
//! into one kernel:
//!
//! - [`compute_bconv_pool_chain`] — binary conv + threshold with the
//!   max-pool epilogue consuming conv rows as they are produced. The tiled
//!   microkernel's per-row emit is the seam: each finished row lands in a
//!   `pool.size`-row ring tile and is OR-reduced into the pooled output the
//!   moment its window completes, so the full conv activation never exists.
//!   A chain that absorbs the float→bit input packing runs
//!   [`compute_pack_input`](crate::kernels::compute_pack_input) ahead of it
//!   in the same dispatch.
//! - [`compute_in8_pool_chain`] — the first-layer conv (§III-B, as the
//!   host's byte dot) with the same pool epilogue.
//! - Two binary dense layers back to back run both
//!   [`compute_dense_bin`](crate::kernels::dense::compute_dense_bin) bodies
//!   in one dispatch; the mid activations stay in local memory instead of
//!   round-tripping the arena.
//!
//! Every chain has exactly one cost profile builder ([`conv_chain_profile`],
//! [`dense_pair_profile`]), which the plan's dispatch list reads; the engine
//! launches that list, so modeled and executed fused groups cannot diverge.
//! Outputs are bit-exact vs the split kernels by construction: the
//! threshold decision is per-element and OR-pooling is associative.

use phonebit_gpusim::{KernelProfile, NdRange};
use phonebit_tensor::bits::{BitTensor, BitWord};
use phonebit_tensor::shape::{ConvGeometry, Shape4};
use phonebit_tensor::tensor::Tensor;

use crate::fuse::{BitSink, PlaneCuts};
use crate::kernels::bconv::DirectBank;
use crate::kernels::bytedot::{ByteBank, ByteRing};
use crate::kernels::pool::{or_pool_row, PoolGeometry};
use crate::kernels::profiles::{compulsory_input_bytes, words32, PACKED_COALESCING, VEC_LANES_128};
use crate::workload::WorkloadPolicy;

/// How a fused conv chain acquires its packed input inside the dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainAbsorb {
    /// The input is already packed bits in the arena.
    None,
    /// Float input is sign-packed on chip (absorbs the `pack_input` step).
    PackF32,
    /// 8-bit input is split into weighted bit-planes (absorbs the
    /// first-layer `bitplane_split` step, §III-B).
    Planes8,
}

/// Cost profile of a fused conv chain: what the plan's dispatch list holds
/// for a conv chain step.
///
/// Compute ops are the sum of the member kernels' ops (the fused kernel does
/// the same useful work). DRAM traffic is where fusion pays: the chain reads
/// the *original* input representation once plus the filters, and writes
/// only the final (pooled) output — the packed/plane tiles and the conv
/// activation rows live on chip and never round-trip the arena.
///
/// `pool` is `(pooled output pixels, window edge)` when the chain carries a
/// max-pool epilogue.
#[allow(clippy::too_many_arguments)]
pub fn conv_chain_profile(
    absorb: ChainAbsorb,
    conv_out_pixels: usize,
    out_channels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
    pool: Option<(usize, usize)>,
    policy: &WorkloadPolicy,
) -> KernelProfile {
    let taps = geom.taps() as f64;
    let outputs = conv_out_pixels as f64 * out_channels as f64;
    // Input elements the conv touches, compulsory (each fetched once).
    let in_elems =
        conv_out_pixels as f64 * (geom.stride_h * geom.stride_w) as f64 * in_channels as f64;
    // Conv core, matching profiles::bconv_fused / bitplane_conv_fused.
    let (mut word_ops, mut int_ops, input_bytes, filter_bytes) = match absorb {
        ChainAbsorb::Planes8 => {
            let w = outputs * taps * (in_channels as f64 / 32.0) * 8.0 * 2.0;
            let i = w * 0.5 + outputs * (8.0 * 2.0 + 3.0);
            // Absorbed split: one pass over the raw u8 image.
            let f = (out_channels as f64 * taps * (in_channels as f64 / 8.0)).max(1.0);
            (w, i + in_elems * 8.0, in_elems, f)
        }
        ChainAbsorb::PackF32 => {
            let w = outputs * taps * words32(in_channels) * 2.0;
            // Absorbed pack: sign + shift per element, raw floats read once.
            let f = out_channels as f64 * taps * (in_channels as f64 / 8.0);
            (w, outputs * 4.0 + in_elems * 2.0, in_elems * 4.0, f)
        }
        ChainAbsorb::None => {
            let w = outputs * taps * words32(in_channels) * 2.0;
            let f = out_channels as f64 * taps * (in_channels as f64 / 8.0);
            (
                w,
                outputs * 4.0,
                compulsory_input_bytes(conv_out_pixels, in_channels, geom),
                f,
            )
        }
    };
    let out_pixels = pool.map_or(conv_out_pixels, |(px, _)| px);
    if let Some((pool_px, window)) = pool {
        // OR-reduction over ring rows, same work as profiles::maxpool_bits
        // minus its DRAM round trip.
        word_ops += pool_px as f64 * words32(out_channels) * (window * window) as f64;
        int_ops += pool_px as f64;
    }
    let out_bytes = out_pixels as f64 * (out_channels as f64 / 8.0);
    let name = match (absorb, pool.is_some()) {
        (ChainAbsorb::None, false) => "fused_bconv",
        (ChainAbsorb::None, true) => "fused_bconv_pool",
        (ChainAbsorb::PackF32, false) => "fused_pack_bconv",
        (ChainAbsorb::PackF32, true) => "fused_pack_bconv_pool",
        (ChainAbsorb::Planes8, false) => "fused_in8_bconv",
        (ChainAbsorb::Planes8, true) => "fused_in8_bconv_pool",
    };
    let ring_bytes = pool.map_or(0, |(_, window)| window * out_channels.div_ceil(8));
    KernelProfile::new(
        name,
        NdRange::linear(policy.work_items(conv_out_pixels, out_channels)),
    )
    .word_ops(word_ops)
    .int_ops(int_ops)
    .reads(input_bytes + filter_bytes)
    .writes(out_bytes)
    .coalescing(PACKED_COALESCING)
    .vector_lanes(VEC_LANES_128)
    .private_bytes(policy.private_bytes(geom, in_channels) + ring_bytes)
}

/// Cost profile of a fused dense→dense pair: two xnor-popcount matvecs in
/// one dispatch; the mid activations never leave local memory.
pub fn dense_pair_profile(
    mid_features: usize,
    out_features: usize,
    in_features: usize,
) -> KernelProfile {
    let word_ops = mid_features as f64 * words32(in_features) * 2.0
        + out_features as f64 * words32(mid_features) * 2.0;
    let int_ops = (mid_features + out_features) as f64 * 4.0;
    let weight_bytes = mid_features as f64 * in_features as f64 / 8.0
        + out_features as f64 * mid_features as f64 / 8.0;
    KernelProfile::new(
        "fused_dense_pair",
        NdRange::linear(mid_features.div_ceil(8) + out_features.div_ceil(8)),
    )
    .word_ops(word_ops)
    .int_ops(int_ops)
    .reads(weight_bytes + in_features as f64 / 8.0)
    .writes(out_features as f64 / 8.0)
    .coalescing(PACKED_COALESCING)
    .vector_lanes(VEC_LANES_128)
}

/// Ring tile shape for a conv→pool chain: `pool_size` conv rows of one
/// image, rotated as rows are produced.
pub fn ring_shape(conv_ow: usize, out_channels: usize, pool_size: usize) -> Shape4 {
    Shape4::new(1, pool_size, conv_ow, out_channels)
}

/// Functional core of the conv→pool epilogue: one conv row at a time into
/// the ring tile, OR-reduced into the pooled output the moment each pool
/// window's last row lands. `emit_row` computes conv row `(n, oy)` into the
/// ring row span via the provided bit setter.
fn pooled_rows<W: BitWord>(
    n_images: usize,
    conv_oh: usize,
    conv_ow: usize,
    pool: &PoolGeometry,
    ring: &mut BitTensor<W>,
    out: &mut BitTensor<W>,
    mut emit_row: impl FnMut(usize, usize, usize, &mut [W]),
) {
    let os = out.shape();
    let wpp = out.words_per_pixel();
    debug_assert_eq!(ring.words_per_pixel(), wpp, "ring/out channel mismatch");
    let row_words = conv_ow * wpp;
    for n in 0..n_images {
        for oy in 0..conv_oh {
            let slot_row = oy % pool.size;
            let base = ring.pixel_offset(0, slot_row, 0);
            {
                let words = ring.as_mut_words();
                words[base..base + row_words].fill(W::zero());
                emit_row(n, oy, wpp, &mut words[base..base + row_words]);
            }
            // Pool row `py` completes when its window's last conv row lands.
            if oy + 1 < pool.size || !(oy + 1 - pool.size).is_multiple_of(pool.stride) {
                continue;
            }
            let py = (oy + 1 - pool.size) / pool.stride;
            if py >= os.h {
                continue;
            }
            let dst = &mut out.as_mut_words()[((n * os.h + py) * os.w) * wpp..][..os.w * wpp];
            for i in 0..pool.size {
                let src_row = (py * pool.stride + i) % pool.size;
                or_pool_row(
                    dst,
                    &ring.as_words()[src_row * row_words..][..row_words],
                    wpp,
                    pool,
                );
            }
        }
    }
}

/// Functional body of the fused bconv→pool chain over packed input bits:
/// `ring` at [`ring_shape`], `out` zeroed at the pooled shape.
pub fn compute_bconv_pool_chain<W: BitWord>(
    input: &BitTensor<W>,
    bank: &DirectBank<W>,
    geom: &ConvGeometry,
    pool: &PoolGeometry,
    ring: &mut BitTensor<W>,
    out: &mut BitTensor<W>,
) {
    let s = input.shape();
    let (conv_oh, conv_ow) = geom.output_hw(s.h, s.w);
    let mut rows = bank.ring(geom, s);
    pooled_rows(s.n, conv_oh, conv_ow, pool, ring, out, |n, oy, wpp, row| {
        rows.decide_row(input, (n, oy), row, wpp);
    });
}

/// Functional body of the fused first-layer conv→pool chain: Eqn (2) as
/// the host's byte dot ([`super::bytedot`]). `ring` is at [`ring_shape`] and
/// `out` zeroed at the pooled shape, as for [`compute_bconv_pool_chain`].
pub fn compute_in8_pool_chain<W: BitWord>(
    image: &Tensor<u8>,
    bank: &ByteBank,
    cuts: &PlaneCuts,
    geom: &ConvGeometry,
    pool: &PoolGeometry,
    ring: &mut BitTensor<W>,
    out: &mut BitTensor<W>,
) {
    let (s, image) = (image.shape(), image.nhwc());
    let (conv_oh, conv_ow) = geom.output_hw(s.h, s.w);
    let mut bytes = ByteRing::new(bank, geom, s);
    pooled_rows(s.n, conv_oh, conv_ow, pool, ring, out, |n, oy, wpp, row| {
        bytes.decide_row(image.as_slice(), (n, oy), &mut BitSink::new(cuts, row, wpp));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_gpusim::queue::CommandQueue;
    use phonebit_gpusim::{DeviceProfile, ExecutorClass};
    use phonebit_tensor::pack::{pack_f32, pack_filters};
    use phonebit_tensor::shape::FilterShape;
    use phonebit_tensor::tensor::Filters;

    use crate::fuse::{BnParams, FusedBn};
    use crate::kernels::bytedot::compute_byte_conv;
    use crate::kernels::tiled::FusedLanes;
    use crate::kernels::{bconv, compute_pack_input, dense};
    use phonebit_tensor::bitplane::BitPlanes;

    use crate::kernels::bitplane::bitplane_conv_fused_into;
    use crate::kernels::pool::maxpool_bits;

    fn queue() -> CommandQueue {
        CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
    }

    fn pm1_tensor(shape: Shape4, seed: usize) -> Tensor<f32> {
        Tensor::from_fn(shape, |n, h, w, c| {
            if (n * 7 + h * 13 + w * 29 + c * 31 + seed).is_multiple_of(3) {
                1.0
            } else {
                -1.0
            }
        })
    }

    fn pm1_filters(shape: FilterShape, seed: usize) -> Filters {
        Filters::from_fn(shape, |k, i, j, c| {
            if (k * 11 + i * 3 + j * 5 + c * 17 + seed).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            }
        })
    }

    fn test_bn(k: usize) -> FusedBn {
        let bn = BnParams {
            gamma: (0..k)
                .map(|i| if i % 3 == 0 { -0.7 } else { 1.3 })
                .collect(),
            beta: (0..k).map(|i| (i as f32 - 2.0) * 0.11).collect(),
            mu: (0..k).map(|i| (i % 5) as f32 - 2.0).collect(),
            sigma: (0..k).map(|i| 0.5 + (i % 4) as f32 * 0.3).collect(),
        };
        let bias: Vec<f32> = (0..k).map(|i| (i % 3) as f32 - 1.0).collect();
        FusedBn::precompute(&bn, &bias)
    }

    fn scratch<W: BitWord>() -> BitTensor<W> {
        BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0))
    }

    /// A conv chain's ring tile over `conv`'s rows, for the pool `pool`.
    fn ring<W: BitWord>(conv: Shape4, pool: &PoolGeometry) -> BitTensor<W> {
        BitTensor::zeros(ring_shape(conv.w, conv.c, pool.size))
    }

    #[test]
    fn conv_pool_chain_matches_split_kernels() {
        // Every pool geometry in the zoo: 2/2, 3/2, 2/1 (YOLO pool6).
        for (pool, h, w) in [
            (PoolGeometry::new(2, 2), 8, 8),
            (PoolGeometry::new(3, 2), 9, 9),
            (PoolGeometry::new(2, 1), 7, 7),
        ] {
            let (c, k) = (37, 16);
            let t = pm1_tensor(Shape4::new(2, h, w, c), h + w);
            let f = pm1_filters(FilterShape::new(k, 3, 3, c), 5);
            let fused = test_bn(k);
            let geom = ConvGeometry::square(3, 1, 1);
            let input = pack_f32::<u64>(&t);
            let filters = pack_filters::<u64>(&f);

            let mut q = queue();
            let conv = bconv::bconv_fused(&mut q, &input, &filters, &fused, &geom);
            let expect = maxpool_bits(&mut q, &conv, &pool);

            let (mut ring, mut out) = (ring(conv.shape(), &pool), BitTensor::zeros(expect.shape()));
            compute_bconv_pool_chain(
                &input,
                &DirectBank::new(&filters, &fused, Some(&geom)),
                &geom,
                &pool,
                &mut ring,
                &mut out,
            );
            assert_eq!(out, expect, "pool {}x{}", pool.size, pool.stride);
        }
    }

    #[test]
    fn pack_conv_chain_matches_split_kernels() {
        let (c, k) = (20, 12);
        let t = pm1_tensor(Shape4::new(1, 6, 6, c), 3);
        let f = pm1_filters(FilterShape::new(k, 3, 3, c), 9);
        let fused = test_bn(k);
        let geom = ConvGeometry::square(3, 1, 1);
        let filters = pack_filters::<u32>(&f);
        let bank = DirectBank::new(&filters, &fused, Some(&geom));

        let mut q = queue();
        let mut packed = scratch::<u32>();
        crate::kernels::pack_input_into(&mut q, &t, &mut packed);
        let expect = bconv::bconv_fused(&mut q, &packed, &filters, &fused, &geom);

        let (mut tile, mut out) = (scratch::<u32>(), BitTensor::zeros(expect.shape()));
        let (window, s) = (std::slice::from_ref(&t), t.shape());
        compute_pack_input(window, s, &mut tile);
        bconv::compute_bconv_fused(&tile, &bank, &geom, &mut out);
        assert_eq!(out, expect);

        // And with the pool epilogue riding along.
        let pool = PoolGeometry::new(2, 2);
        let mut q3 = queue();
        let pooled = maxpool_bits(&mut q3, &expect, &pool);
        let (mut ring, mut out) = (
            ring(expect.shape(), &pool),
            BitTensor::zeros(pooled.shape()),
        );
        compute_pack_input(window, s, &mut tile);
        compute_bconv_pool_chain(&tile, &bank, &geom, &pool, &mut ring, &mut out);
        assert_eq!(out, pooled);
    }

    #[test]
    fn in8_chain_matches_split_kernels() {
        let img = Tensor::from_fn(Shape4::new(2, 8, 8, 3), |n, h, w, c| {
            ((n * 157 + h * 83 + w * 19 + c * 7) % 256) as u8
        });
        let f = pm1_filters(FilterShape::new(16, 3, 3, 3), 1);
        let fused = test_bn(16);
        let geom = ConvGeometry::square(3, 1, 1);
        let filters = pack_filters::<u64>(&f);
        let (bank, cuts) = (
            ByteBank::new(&filters),
            PlaneCuts::new(&fused, filters.shape().filter_len()),
        );

        let mut q = queue();
        let planes = BitPlanes::<u64>::split(&img);
        let mut conv = scratch::<u64>();
        bitplane_conv_fused_into(&mut q, &planes, &filters, &fused, &geom, &mut conv);

        let mut out = BitTensor::zeros(conv.shape());
        compute_byte_conv(&img, &bank, &cuts, &geom, &mut out);
        assert_eq!(out, conv);

        // With the pool epilogue (AlexNet conv1 -> pool1 is 3/2).
        let pool = PoolGeometry::new(3, 2);
        let mut q3 = queue();
        let pooled = maxpool_bits(&mut q3, &conv, &pool);
        let (mut ring, mut out) = (ring(conv.shape(), &pool), BitTensor::zeros(pooled.shape()));
        compute_in8_pool_chain(&img, &bank, &cuts, &geom, &pool, &mut ring, &mut out);
        assert_eq!(out, pooled);
    }

    #[test]
    fn in8_chain_matches_split_kernels_on_multiword_windows() {
        // AlexNet-like conv1: 11x11x3 stride 4 is a 363-bit window, six u64
        // words — the chain and the split kernels must share that path too.
        let img = Tensor::from_fn(Shape4::new(2, 35, 39, 3), |n, h, w, c| {
            ((n * 157 + h * 83 + w * 19 + c * 7) % 256) as u8
        });
        let f = pm1_filters(FilterShape::new(12, 11, 11, 3), 4);
        let fused = test_bn(12);
        let geom = ConvGeometry::square(11, 4, 0);
        let filters = pack_filters::<u64>(&f);
        let (bank, cuts) = (
            ByteBank::new(&filters),
            PlaneCuts::new(&fused, filters.shape().filter_len()),
        );

        let mut q = queue();
        let planes = BitPlanes::<u64>::split(&img);
        let mut conv = scratch::<u64>();
        bitplane_conv_fused_into(&mut q, &planes, &filters, &fused, &geom, &mut conv);
        let pool = PoolGeometry::new(3, 2);
        let pooled = maxpool_bits(&mut q, &conv, &pool);

        for (pool, expect) in [(None, &conv), (Some(&pool), &pooled)] {
            let mut out = BitTensor::zeros(expect.shape());
            match pool {
                Some(p) => {
                    let mut ring = ring(conv.shape(), p);
                    compute_in8_pool_chain(&img, &bank, &cuts, &geom, p, &mut ring, &mut out)
                }
                None => compute_byte_conv(&img, &bank, &cuts, &geom, &mut out),
            }
            assert_eq!(&out, expect, "pool {}", pool.is_some());
        }
    }

    #[test]
    fn dense_pair_matches_split_kernels() {
        let (feat, m, k) = (4 * 4 * 24, 64, 40);
        let t = pm1_tensor(Shape4::new(3, 4, 4, 24), 2);
        let input = pack_f32::<u64>(&t);
        let w1 = pack_filters::<u64>(&pm1_filters(FilterShape::new(m, 1, 1, feat), 7));
        let w2 = pack_filters::<u64>(&pm1_filters(FilterShape::new(k, 1, 1, m), 8));
        let (f1, f2) = (test_bn(m), test_bn(k));

        let mut q = queue();
        let flat = dense::flatten_bits(&input);
        let mid = dense::dense_bin(&mut q, &flat, &w1, &f1);
        let expect = dense::dense_bin(&mut q, &mid, &w2, &f2);
        assert_eq!(q.timeline().len(), 2, "split path is two dispatches");

        let mut flat2 = scratch::<u64>();
        let (mut mid2, mut out) = (
            BitTensor::zeros(mid.shape()),
            BitTensor::zeros(expect.shape()),
        );
        let (l1, l2) = (FusedLanes::new(&w1, &f1), FusedLanes::new(&w2, &f2));
        dense::flatten_bits_into(&input, &mut flat2);
        dense::compute_dense_bin(&flat2, &l1, &mut mid2);
        dense::compute_dense_bin(&mid2, &l2, &mut out);
        assert_eq!(out, expect);
    }

    #[test]
    fn chain_profiles_save_traffic_and_launches() {
        let geom = ConvGeometry::square(3, 1, 1);
        let policy = WorkloadPolicy::for_channels(128);
        let conv_px = 13 * 13;
        let pool_px = 6 * 6;
        let chain = conv_chain_profile(
            ChainAbsorb::None,
            conv_px,
            256,
            128,
            &geom,
            Some((pool_px, 2)),
            &policy,
        );
        let conv = crate::kernels::profiles::bconv_fused(conv_px, 256, 128, &geom, &policy);
        let pool = crate::kernels::profiles::maxpool_bits(pool_px, 256, 2);
        // Same useful compute, strictly less DRAM than conv + pool.
        assert_eq!(chain.word_ops, conv.word_ops + pool.word_ops);
        assert!(chain.total_bytes() < conv.total_bytes() + pool.total_bytes());

        let pair = dense_pair_profile(4096, 1000, 9216);
        let d1 = crate::kernels::profiles::dense_bin(4096, 9216);
        let d2 = crate::kernels::profiles::dense_bin(1000, 4096);
        assert_eq!(pair.word_ops, d1.word_ops + d2.word_ops);
        assert!(pair.total_bytes() < d1.total_bytes() + d2.total_bytes());
    }
}
