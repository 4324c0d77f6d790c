//! Cost profiles for every PhoneBit kernel — the single source of truth for
//! the simulator's resource accounting.
//!
//! Both execution paths use these builders: functional runs (which also
//! compute real outputs) and modeled walks with empty bodies (full-scale
//! timing without host compute). Profiles count *useful* work; executor overheads live in
//! [`phonebit_gpusim::calib`].
//!
//! PhoneBit-kernel conventions encoded here:
//!
//! - word ops are counted in 32-bit units (`ceil(C/32)` per tap span);
//! - kernels use 128-bit vectorized load/store (§VI-A.1), `vector_lanes = 4`;
//! - NHWC channel-packed access is almost fully coalesced (§VI-A.2):
//!   `coalescing = 0.95`;
//! - fused kernels are branch-free by Eqn (9): `divergence = 1.0`; the
//!   ablation builds the Eqn (8) variant with wave-divergence inflation;
//! - DRAM traffic assumes on-chip reuse of activations and filters within a
//!   work group (compulsory traffic only) — the baselines model their own,
//!   much worse, traffic.

use phonebit_gpusim::{KernelProfile, NdRange};
use phonebit_tensor::shape::ConvGeometry;

use crate::workload::WorkloadPolicy;

/// Coalescing efficiency of packed NHWC access.
pub const PACKED_COALESCING: f64 = 0.95;
/// Vector lanes used by 128-bit vectorized load/store kernels.
pub const VEC_LANES_128: usize = 4;

/// Effective 32-bit word operations per tap span for a channel count.
///
/// PhoneBit "selects the optimal bit packing strategy and computing kernel
/// according to channel dimensions" (§V-A.2): narrow layers pack into
/// `uchar`/`ushort` words and vectorize several taps per 32-bit ALU op, so
/// the cycle cost scales with *bits*, floored at one `uchar` (8 bits) per
/// tap — not with word-aligned 32-bit spans.
pub(crate) fn words32(channels: usize) -> f64 {
    (channels as f64).max(8.0) / 32.0
}

/// Profile of the fused binary convolution (conv + BN + binarize + pack in
/// one kernel, §V-B + §VI-B), as implemented by the **tiled** hot path:
/// gathered windows are reused across all filters, so input traffic is the
/// compulsory minimum (every packed byte fetched once) and the
/// interior/border split keeps the wave branch-free (divergence 1.0).
#[allow(clippy::too_many_arguments)]
pub fn bconv_fused(
    out_pixels: usize,
    out_channels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
    policy: &WorkloadPolicy,
) -> KernelProfile {
    let taps = geom.taps() as f64;
    let outputs = out_pixels as f64 * out_channels as f64;
    let word_ops = outputs * taps * words32(in_channels) * 2.0; // xor + popcount
                                                                // Per-output integer work is just threshold + pack + loop bookkeeping:
                                                                // the tiled kernel accumulates inside the word stream (counted above),
                                                                // not one add per tap.
    let int_ops = outputs * 4.0;
    let input_bytes = compulsory_input_bytes(out_pixels, in_channels, geom);
    let filter_bytes = out_channels as f64 * taps * (in_channels as f64 / 8.0);
    let out_bytes = out_pixels as f64 * (out_channels as f64 / 8.0);
    KernelProfile::new(
        "bconv_fused",
        NdRange::linear(policy.work_items(out_pixels, out_channels)),
    )
    .word_ops(word_ops)
    .int_ops(int_ops)
    .reads(input_bytes + filter_bytes)
    .writes(out_bytes)
    .coalescing(PACKED_COALESCING)
    .vector_lanes(VEC_LANES_128)
    .private_bytes(policy.private_bytes(geom, in_channels))
}

/// Profile of the seed **untiled** fused kernel, kept for the tiling
/// ablation: without the window gather every 8-filter thread re-fetches its
/// pixel's window from global memory, so window traffic scales with
/// `ceil(K / filters_per_thread)` instead of being paid once, and every tap
/// costs a bounds check whose border cases diverge the wave slightly.
pub fn bconv_fused_untiled(
    out_pixels: usize,
    out_channels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
    policy: &WorkloadPolicy,
) -> KernelProfile {
    let taps = geom.taps() as f64;
    let outputs = out_pixels as f64 * out_channels as f64;
    let filter_groups = (out_channels as f64 / policy.filters_per_thread as f64).ceil();
    let mut p = bconv_fused(out_pixels, out_channels, in_channels, geom, policy);
    p.name = "bconv_fused_untiled";
    // Re-read the window once per filter group rather than once per pixel.
    let input_once = compulsory_input_bytes(out_pixels, in_channels, geom);
    p.dram_read_bytes += input_once * (filter_groups - 1.0);
    // One accumulate per tap span plus a bounds check per tap, and border
    // taps mask part of the wave.
    p.int_ops = outputs * (2.0 * taps + 3.0);
    p.divergence(1.05)
}

/// Compulsory input traffic of a convolution given on-chip window reuse:
/// each packed input byte is fetched once.
pub(crate) fn compulsory_input_bytes(
    out_pixels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
) -> f64 {
    // Input pixels ~ out_pixels * stride^2 (+ halo, ignored).
    let in_pixels = out_pixels as f64 * (geom.stride_h * geom.stride_w) as f64;
    in_pixels * (in_channels as f64 / 8.0)
}

/// Profile of the unfused binary convolution writing int32 accumulators
/// (the `C > 256` fallback path and the layer-integration ablation).
pub fn bconv_accum(
    out_pixels: usize,
    out_channels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
    policy: &WorkloadPolicy,
) -> KernelProfile {
    let taps = geom.taps() as f64;
    let outputs = out_pixels as f64 * out_channels as f64;
    let word_ops = outputs * taps * words32(in_channels) * 2.0;
    // Tiled accumulation happens in the word stream; per output there is
    // only the final subtraction and the int32 store.
    let int_ops = outputs * 2.0;
    let input_bytes = compulsory_input_bytes(out_pixels, in_channels, geom);
    let filter_bytes = out_channels as f64 * taps * (in_channels as f64 / 8.0);
    let out_bytes = outputs * 4.0; // int32 intermediate hits DRAM
    KernelProfile::new(
        "bconv_accum",
        NdRange::linear(policy.work_items(out_pixels, out_channels)),
    )
    .word_ops(word_ops)
    .int_ops(int_ops)
    .reads(input_bytes + filter_bytes)
    .writes(out_bytes)
    .coalescing(PACKED_COALESCING)
    .vector_lanes(VEC_LANES_128)
    .private_bytes(policy.private_bytes(geom, in_channels))
}

/// Profile of the standalone binarize+pack kernel that follows
/// [`bconv_accum`] on the unfused path: reads the int32 intermediate back
/// from DRAM.
pub fn binarize_pack(pixels: usize, channels: usize) -> KernelProfile {
    let elems = pixels as f64 * channels as f64;
    KernelProfile::new(
        "binarize_pack",
        NdRange::linear(pixels * channels.div_ceil(8)),
    )
    .int_ops(elems * 3.0)
    .reads(elems * 4.0)
    .writes(pixels as f64 * (channels as f64 / 8.0))
    .coalescing(PACKED_COALESCING)
    .vector_lanes(VEC_LANES_128)
}

/// Profile of the bit-plane split of an 8-bit input (§III-B): one pass over
/// the image producing 8 packed planes.
pub fn bitplane_split(pixels: usize, channels: usize) -> KernelProfile {
    let elems = pixels as f64 * channels as f64;
    KernelProfile::new("bitplane_split", NdRange::linear(pixels))
        .int_ops(elems * 8.0)
        .reads(elems)
        .writes(8.0 * pixels as f64 * (channels as f64 / 8.0).max(1.0))
        .coalescing(PACKED_COALESCING)
        .vector_lanes(VEC_LANES_128)
}

/// Profile of the first-layer bit-plane convolution (Eqn 2): eight binary
/// convolutions plus the weighted recombination — the overhead the paper
/// cites for conv1's lower speedup in Fig 5.
pub fn bitplane_conv_fused(
    out_pixels: usize,
    out_channels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
    policy: &WorkloadPolicy,
) -> KernelProfile {
    let taps = geom.taps() as f64;
    let outputs = out_pixels as f64 * out_channels as f64;
    // 8 planes x (and + popcount + popcount) per tap span; recombination
    // shifts/adds per plane. First layers have tiny channel counts (RGB),
    // so the kernel packs several taps per word — cycle cost scales with
    // raw bits, without the uchar floor of the general path.
    let word_ops = outputs * taps * (in_channels as f64 / 32.0) * 8.0 * 2.0;
    // One accumulate per word op, plus per-plane shift/add recombination.
    let int_ops = word_ops * 0.5 + outputs * (8.0 * 2.0 + 3.0);
    let plane_bytes = 8.0
        * out_pixels as f64
        * (geom.stride_h * geom.stride_w) as f64
        * (in_channels as f64 / 8.0).max(1.0);
    let filter_bytes = out_channels as f64 * taps * (in_channels as f64 / 8.0).max(1.0);
    let out_bytes = out_pixels as f64 * (out_channels as f64 / 8.0);
    KernelProfile::new(
        "bitplane_conv_fused",
        NdRange::linear(policy.work_items(out_pixels, out_channels)),
    )
    .word_ops(word_ops)
    .int_ops(int_ops)
    .reads(plane_bytes + filter_bytes)
    .writes(out_bytes)
    .coalescing(PACKED_COALESCING)
    .vector_lanes(VEC_LANES_128)
    .private_bytes(policy.private_bytes(geom, in_channels))
}

/// Profile of PhoneBit's full-precision convolution (the last layer, e.g.
/// YOLO conv9), implemented with the OpenCL `dot()` SIMD builtin (§VII).
pub fn fconv(
    out_pixels: usize,
    out_channels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
) -> KernelProfile {
    let macs = out_pixels as f64 * out_channels as f64 * geom.taps() as f64 * in_channels as f64;
    let input_bytes =
        out_pixels as f64 * (geom.stride_h * geom.stride_w) as f64 * in_channels as f64 * 4.0;
    let filter_bytes = out_channels as f64 * geom.taps() as f64 * in_channels as f64 * 4.0;
    let out_bytes = out_pixels as f64 * out_channels as f64 * 4.0;
    KernelProfile::new("fconv_dot", NdRange::linear(out_pixels * out_channels))
        .f32_ops(macs * 2.0)
        .reads(input_bytes + filter_bytes)
        .writes(out_bytes)
        .coalescing(0.9)
        .vector_lanes(VEC_LANES_128)
}

/// Profile of binary max pooling: an OR-reduction over packed words.
pub fn maxpool_bits(out_pixels: usize, channels: usize, window: usize) -> KernelProfile {
    let spans = words32(channels);
    let word_ops = out_pixels as f64 * spans * (window * window) as f64;
    let bytes = channels as f64 / 8.0;
    KernelProfile::new("maxpool_bits", NdRange::linear(out_pixels))
        .word_ops(word_ops)
        .reads(out_pixels as f64 * (window * window) as f64 * bytes)
        .writes(out_pixels as f64 * bytes)
        .coalescing(PACKED_COALESCING)
        .vector_lanes(VEC_LANES_128)
}

/// Profile of float max pooling (first-layer neighborhoods in some nets).
pub fn maxpool_f32(out_pixels: usize, channels: usize, window: usize) -> KernelProfile {
    let elems = out_pixels as f64 * channels as f64;
    KernelProfile::new("maxpool_f32", NdRange::linear(out_pixels))
        .f32_ops(elems * (window * window) as f64)
        .reads(elems * (window * window) as f64 * 4.0)
        .writes(elems * 4.0)
        .coalescing(0.9)
        .vector_lanes(VEC_LANES_128)
}

/// Profile of the fused binary dense layer.
pub fn dense_bin(out_features: usize, in_features: usize) -> KernelProfile {
    let word_ops = out_features as f64 * words32(in_features) * 2.0;
    let int_ops = out_features as f64 * 4.0;
    let weight_bytes = out_features as f64 * in_features as f64 / 8.0;
    KernelProfile::new("dense_bin", NdRange::linear(out_features.div_ceil(8)))
        .word_ops(word_ops)
        .int_ops(int_ops)
        .reads(weight_bytes + in_features as f64 / 8.0)
        .writes(out_features as f64 / 8.0)
        .coalescing(PACKED_COALESCING)
        .vector_lanes(VEC_LANES_128)
}

/// Profile of the full-precision dense layer (e.g. the final classifier,
/// which the paper keeps in float).
pub fn dense_float(out_features: usize, in_features: usize) -> KernelProfile {
    let macs = out_features as f64 * in_features as f64;
    KernelProfile::new("dense_float", NdRange::linear(out_features))
        .f32_ops(macs * 2.0)
        .reads(macs * 4.0 + in_features as f64 * 4.0)
        .writes(out_features as f64 * 4.0)
        .coalescing(0.9)
        .vector_lanes(VEC_LANES_128)
}

/// Profile of packing a float tensor into bits (network input binarization
/// when the first layer is already binary-input).
pub fn pack_input(pixels: usize, channels: usize) -> KernelProfile {
    let elems = pixels as f64 * channels as f64;
    KernelProfile::new("pack_input", NdRange::linear(pixels))
        .int_ops(elems * 2.0)
        .reads(elems * 4.0)
        .writes(pixels as f64 * channels as f64 / 8.0)
        .coalescing(PACKED_COALESCING)
        .vector_lanes(VEC_LANES_128)
}

/// Profile of unpacking a binary tensor to ±1.0 floats (binary → float
/// layer boundary).
pub fn unpack_bits(pixels: usize, channels: usize) -> KernelProfile {
    let elems = pixels as f64 * channels as f64;
    KernelProfile::new("unpack_bits", NdRange::linear(pixels))
        .int_ops(elems * 2.0)
        .reads(pixels as f64 * channels as f64 / 8.0)
        .writes(elems * 4.0)
        .coalescing(PACKED_COALESCING)
        .vector_lanes(VEC_LANES_128)
}

/// Profile of the softmax epilogue.
pub fn softmax(features: usize) -> KernelProfile {
    KernelProfile::new("softmax", NdRange::linear(1))
        .f32_ops(features as f64 * 4.0)
        .reads(features as f64 * 4.0)
        .writes(features as f64 * 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom3() -> ConvGeometry {
        ConvGeometry::square(3, 1, 1)
    }

    #[test]
    fn fused_vs_unfused_traffic() {
        // The fused kernel must move strictly less DRAM than accum +
        // binarize_pack — that is the point of layer integration.
        let policy = WorkloadPolicy::for_channels(128);
        let fused = bconv_fused(13 * 13, 256, 128, &geom3(), &policy);
        let accum = bconv_accum(13 * 13, 256, 128, &geom3(), &policy);
        let pack = binarize_pack(13 * 13, 256);
        let unfused_bytes = accum.total_bytes() + pack.total_bytes();
        assert!(fused.total_bytes() < unfused_bytes);
        // The compute is the same order.
        assert!(fused.word_ops == accum.word_ops);
    }

    #[test]
    fn bitplane_conv_is_8x_word_ops() {
        // At word-aligned channel counts both paths count identical bits,
        // so Eqn (2)'s eight planes cost exactly 8x the binary conv.
        let policy = WorkloadPolicy::for_channels(32);
        let plain = bconv_fused(208 * 208, 16, 32, &geom3(), &policy);
        let planes = bitplane_conv_fused(208 * 208, 16, 32, &geom3(), &policy);
        assert!((planes.word_ops / plain.word_ops - 8.0).abs() < 1e-9);
        // Narrow first layers (RGB) pack tighter than the uchar floor, so
        // the multiple drops below 8x there.
        let p3 = WorkloadPolicy::for_channels(3);
        let plain3 = bconv_fused(208 * 208, 16, 3, &geom3(), &p3);
        let planes3 = bitplane_conv_fused(208 * 208, 16, 3, &geom3(), &p3);
        assert!(planes3.word_ops / plain3.word_ops < 8.0);
    }

    #[test]
    fn untiled_kernel_moves_more_dram_than_tiled() {
        // The whole point of the window gather: tiled traffic is the
        // compulsory minimum, the seed kernel re-reads per filter group.
        let policy = WorkloadPolicy::for_channels(128);
        let tiled = bconv_fused(52 * 52, 128, 128, &geom3(), &policy);
        let untiled = bconv_fused_untiled(52 * 52, 128, 128, &geom3(), &policy);
        assert!(untiled.dram_read_bytes > 10.0 * tiled.dram_read_bytes);
        // Same useful bitwise work; only overhead differs.
        assert_eq!(untiled.word_ops, tiled.word_ops);
        assert!(untiled.int_ops > tiled.int_ops);
        assert!(untiled.divergence > tiled.divergence);
    }

    #[test]
    fn word_ops_scale_with_channels() {
        let p = WorkloadPolicy::for_channels(64);
        let small = bconv_fused(100, 64, 64, &geom3(), &p);
        let p2 = WorkloadPolicy::for_channels(128);
        let big = bconv_fused(100, 64, 128, &geom3(), &p2);
        assert!((big.word_ops / small.word_ops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dense_float_is_memory_heavy() {
        let p = dense_float(1000, 4096);
        // Weight traffic dominates ops x bytes-per-op for dense layers.
        assert!(p.dram_read_bytes > p.f32_ops);
    }

    #[test]
    fn packed_kernels_use_vector_lanes() {
        let p = WorkloadPolicy::for_channels(64);
        for prof in [
            bconv_fused(10, 8, 64, &geom3(), &p),
            maxpool_bits(10, 64, 2),
            dense_bin(8, 64),
        ] {
            assert_eq!(prof.vector_lanes, VEC_LANES_128);
            assert!((prof.coalescing - PACKED_COALESCING).abs() < 1e-12);
        }
    }
}
