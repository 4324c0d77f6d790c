//! Lowered binary convolution: binary im2col + binary GEMM — the strategy
//! of Espresso (Pedersoli et al., ICLR 2018), which the paper contrasts
//! with PhoneBit's direct fused kernels (§II: Espresso optimizes "binary
//! matrix multiplication kernels" but lacks layer integration).
//!
//! The lowering materializes each output pixel's window bits as one packed
//! row ("bit-im2col"), then multiplies rows against flattened filters with
//! xnor-popcount. Numerically identical to the direct path (tested), but it
//! pays the materialization round trip PhoneBit's §V-A layout avoids —
//! which is exactly what the lowering ablation measures.

use phonebit_gpusim::exec::par_chunks_mut;
use phonebit_gpusim::queue::CommandQueue;
use phonebit_gpusim::{KernelProfile, NdRange};
use phonebit_tensor::bits::{merge_bits, BitTensor, BitWord, PackedFilters};
use phonebit_tensor::dict::FilterAccess;
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Shape4};

use crate::fuse::FusedBn;
use crate::kernels::profiles::{PACKED_COALESCING, VEC_LANES_128};
use crate::kernels::tiled::FusedLanes;

/// Flattens packed filters so each filter's `(kh, kw, c)` bits occupy one
/// contiguous span (the GEMM's weight rows).
///
/// When `c` fills its words exactly, each filter's flat row *is* its
/// contiguous [`PackedFilters::filter_words`] window span, so the flatten
/// is one bulk word copy per filter; odd channel counts merge each tap span
/// into the row with shifted word ORs ([`merge_bits`]) — never a per-bit
/// walk. Either way this is staging-time work — the execution plan caches
/// the result per layer rather than re-flattening per inference.
pub fn flatten_filters<W: BitWord>(filters: &PackedFilters<W>) -> PackedFilters<W> {
    let s = filters.shape();
    let window = s.kh * s.kw * s.c;
    let mut out = PackedFilters::<W>::zeros(FilterShape::new(s.k, 1, 1, window));
    if s.c.is_multiple_of(W::BITS) {
        for k in 0..s.k {
            out.set_tap_words(k, 0, 0, filters.filter_words(k));
        }
        return out;
    }
    let mut row = vec![W::zero(); window.div_ceil(W::BITS)];
    for k in 0..s.k {
        row.iter_mut().for_each(|w| *w = W::zero());
        for i in 0..s.kh {
            for j in 0..s.kw {
                merge_bits(
                    &mut row,
                    (i * s.kw + j) * s.c,
                    filters.tap_words(k, i, j),
                    s.c,
                );
            }
        }
        out.set_tap_words(k, 0, 0, &row);
    }
    out
}

/// Materializes the binary im2col: one packed row of `kh*kw*c` window bits
/// per output pixel, out-of-bounds taps contributing 0-bits (−1), matching
/// the direct path's padding semantics.
///
/// When the channel count fills its packed words exactly
/// (`c % W::BITS == 0`), every tap lands word-aligned in the row and the
/// materialization is `kh*kw` word copies per pixel; otherwise each tap
/// span is merged into the row with shifted word ORs ([`merge_bits`]), so
/// odd channel counts stay word-at-a-time instead of walking bits.
pub fn pack_windows<W: BitWord>(input: &BitTensor<W>, geom: &ConvGeometry) -> BitTensor<W> {
    let s = input.shape();
    let (oh, ow) = geom.output_hw(s.h, s.w);
    let mut out = BitTensor::<W>::zeros(Shape4::new(s.n, oh, ow, geom.taps() * s.c));
    pack_windows_into(input, geom, &mut out);
    out
}

/// [`pack_windows`] into a caller-provided tensor (reset to the window
/// shape), reusing its storage: the functional body of the lowering's
/// materialization pass.
pub fn pack_windows_into<W: BitWord>(
    input: &BitTensor<W>,
    geom: &ConvGeometry,
    out: &mut BitTensor<W>,
) {
    let s = input.shape();
    let (oh, ow) = geom.output_hw(s.h, s.w);
    out.reset(Shape4::new(s.n, oh, ow, geom.taps() * s.c));
    let aligned = s.c.is_multiple_of(W::BITS);
    let wpt = s.c.div_ceil(W::BITS);
    let row_words = out.words_per_pixel();
    for n in 0..s.n {
        for oy in 0..oh {
            for ox in 0..ow {
                let base = out.pixel_offset(n, oy, ox);
                for i in 0..geom.kh {
                    let iy = (oy * geom.stride_h + i) as isize - geom.pad_h as isize;
                    if iy < 0 || iy as usize >= s.h {
                        continue;
                    }
                    for j in 0..geom.kw {
                        let ix = (ox * geom.stride_w + j) as isize - geom.pad_w as isize;
                        if ix < 0 || ix as usize >= s.w {
                            continue;
                        }
                        let src = input.pixel_offset(n, iy as usize, ix as usize);
                        let tap = i * geom.kw + j;
                        if aligned {
                            let dst = base + tap * wpt;
                            let (words, src_words) =
                                (out.as_mut_words(), &input.as_words()[src..src + wpt]);
                            words[dst..dst + wpt].copy_from_slice(src_words);
                        } else {
                            let (words, src_words) =
                                (out.as_mut_words(), &input.as_words()[src..src + wpt]);
                            merge_bits(
                                &mut words[base..base + row_words],
                                tap * s.c,
                                src_words,
                                s.c,
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Profile of the bit-im2col materialization kernel.
pub fn pack_windows_profile(
    out_pixels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
) -> KernelProfile {
    let window_bytes = (geom.taps() * in_channels) as f64 / 8.0;
    KernelProfile::new("bgemm_pack_windows", NdRange::linear(out_pixels))
        .word_ops(out_pixels as f64 * geom.taps() as f64 * (in_channels as f64 / 32.0).max(0.25))
        .reads(
            out_pixels as f64 * (geom.stride_h * geom.stride_w) as f64 * in_channels as f64 / 8.0,
        )
        .writes(out_pixels as f64 * window_bytes)
        .coalescing(PACKED_COALESCING)
        .vector_lanes(VEC_LANES_128)
}

/// Profile of the binary GEMM over materialized window rows: same useful
/// dot-product work as the direct kernel, plus re-reading the materialized
/// rows from DRAM.
pub fn bgemm_profile(
    out_pixels: usize,
    out_channels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
) -> KernelProfile {
    let window_bits = geom.taps() * in_channels;
    let outputs = out_pixels as f64 * out_channels as f64;
    let words32 = (window_bits as f64 / 32.0).max(0.25);
    let window_bytes = window_bits as f64 / 8.0;
    let filter_bytes = out_channels as f64 * window_bytes;
    KernelProfile::new(
        "bgemm_fused",
        NdRange::linear(out_pixels * out_channels.div_ceil(8)),
    )
    .word_ops(outputs * words32 * 2.0)
    .int_ops(outputs * 4.0)
    .reads(out_pixels as f64 * window_bytes + filter_bytes)
    .writes(out_pixels as f64 * out_channels as f64 / 8.0)
    .coalescing(PACKED_COALESCING)
    .vector_lanes(VEC_LANES_128)
}

/// Dispatches the full lowered convolution: bit-im2col, then fused binary
/// GEMM + binarize + pack. Two kernels, one DRAM round trip of window rows.
///
/// Flattens and interleaves the filters on the spot; callers with resident
/// weights (the engine) stage the flat lanes once and launch
/// [`pack_windows_into`] and [`compute_bgemm`] over them.
///
/// # Panics
///
/// Panics on shape mismatches (channels, fusion length).
pub fn bconv_lowered<W: BitWord>(
    q: &mut CommandQueue,
    input: &BitTensor<W>,
    filters: &PackedFilters<W>,
    fused: &FusedBn,
    geom: &ConvGeometry,
) -> BitTensor<W> {
    let mut out = BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0));
    let mut windows = BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0));
    let flat = flatten_filters(filters);
    bconv_lowered_with_into(
        q,
        input,
        filters,
        &flat,
        fused,
        geom,
        Some(&mut windows),
        &mut out,
    );
    out
}

/// [`bconv_lowered`] with a pre-flattened filter bank (the output of
/// [`flatten_filters`] for the same `filters`), writing into
/// caller-provided buffers: `windows` is the bit-im2col scratch (required
/// unless the convolution is pointwise, where the GEMM reads the input
/// directly) and `out` receives the packed result. Both are reset to the
/// right shapes, reusing their storage. Interleaves `flat` first.
///
/// # Panics
///
/// Panics on shape mismatches, or when a non-pointwise convolution is given
/// no `windows` scratch.
#[allow(clippy::too_many_arguments)]
pub fn bconv_lowered_with_into<W: BitWord>(
    q: &mut CommandQueue,
    input: &BitTensor<W>,
    filters: &PackedFilters<W>,
    flat: &(impl FilterAccess<W> + Sync),
    fused: &FusedBn,
    geom: &ConvGeometry,
    windows: Option<&mut BitTensor<W>>,
    out: &mut BitTensor<W>,
) {
    let (s, fs) = (input.shape(), filters.shape());
    assert_eq!(
        flat.shape(),
        FilterShape::new(fs.k, 1, 1, fs.filter_len()),
        "flat bank does not match filters"
    );
    assert_eq!(fused.len(), fs.k, "fusion params must cover every filter");
    assert_eq!(
        fs.filter_len(),
        geom.taps() * s.c,
        "flat bank does not match input channels {} and geometry",
        s.c
    );
    let lanes = FusedLanes::new(flat, fused);
    let (oh, ow) = geom.output_hw(s.h, s.w);
    let out_pixels = s.n * oh * ow;

    // Kernel 1: materialize window rows — unless the convolution is
    // 1x1/stride-1/unpadded, where every "window row" is exactly the input
    // pixel row already (the GEMM view is free; this is why the planner
    // routes such layers here).
    let windows: &BitTensor<W> = if geom.is_pointwise() {
        input
    } else {
        let scratch = windows.expect("non-pointwise lowering needs a windows scratch");
        q.launch(pack_windows_profile(out_pixels, s.c, geom), || {
            pack_windows_into(input, geom, scratch);
        });
        scratch
    };

    // Kernel 2: row x filter xnor-popcount GEMM with fused binarization.
    out.reset(Shape4::new(s.n, oh, ow, fs.k));
    let profile =
        bgemm_profile(out_pixels, fs.k, s.c, geom).discount_reads(flat.dram_discount_bytes());
    q.launch(profile, || compute_bgemm(windows, &lanes, out));
}

/// Functional body of the binary GEMM: the window rows of each output row
/// (`windows`, one per output pixel, or the input itself for a pointwise
/// convolution) against the staged flat `lanes`, with fused binarization,
/// into `out`, zeroed at the output shape. An output row of window rows per
/// task, through the same microkernel as the direct path.
pub fn compute_bgemm<W: BitWord>(
    windows: &BitTensor<W>,
    lanes: &FusedLanes<W>,
    out: &mut BitTensor<W>,
) {
    let (ow, wpp) = (out.shape().w, out.words_per_pixel());
    let row_wpp = windows.words_per_pixel();
    par_chunks_mut(out.as_mut_words(), ow * wpp, |row, span| {
        let rows = &windows.as_words()[row * ow * row_wpp..][..ow * row_wpp];
        lanes.decide_windows(rows, span, wpp);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::BnParams;
    use crate::kernels::bconv::bconv_fused;
    use phonebit_gpusim::{CommandQueue, DeviceProfile, ExecutorClass};
    use phonebit_tensor::pack::{pack_f32, pack_filters};
    use phonebit_tensor::tensor::{Filters, Tensor};

    fn queue() -> CommandQueue {
        CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
    }

    fn pm1_tensor(shape: Shape4, seed: usize) -> Tensor<f32> {
        Tensor::from_fn(shape, |n, h, w, c| {
            if (n * 3 + h * 11 + w * 5 + c * 13 + seed).is_multiple_of(3) {
                1.0
            } else {
                -1.0
            }
        })
    }

    fn test_bn(k: usize) -> (BnParams, Vec<f32>) {
        let bn = BnParams {
            gamma: (0..k)
                .map(|i| if i % 3 == 0 { -1.1 } else { 0.9 })
                .collect(),
            beta: (0..k).map(|i| (i % 4) as f32 * 0.2 - 0.3).collect(),
            mu: (0..k).map(|i| (i % 5) as f32 - 2.0).collect(),
            sigma: vec![1.5; k],
        };
        (bn, (0..k).map(|i| (i % 2) as f32 - 0.5).collect())
    }

    #[test]
    fn lowered_equals_direct_exactly() {
        for (c, k, pad, stride) in [
            (16usize, 8usize, 1usize, 1usize),
            (40, 24, 0, 2),
            (64, 16, 1, 1),
        ] {
            let t = pm1_tensor(Shape4::new(1, 7, 8, c), c);
            let f = pm1_tensor(Shape4::new(1, 1, 1, 1), 0); // unused, silence
            let _ = f;
            let filters = Filters::from_fn(FilterShape::new(k, 3, 3, c), |a, b, d, e| {
                if (a + b * 2 + d + e * 3) % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            });
            let geom = ConvGeometry::square(3, stride, pad);
            let (bn, bias) = test_bn(k);
            let fused = FusedBn::precompute(&bn, &bias);
            let packed_in = pack_f32::<u64>(&t);
            let packed_f = pack_filters::<u64>(&filters);
            let mut q = queue();
            let direct = bconv_fused(&mut q, &packed_in, &packed_f, &fused, &geom);
            let lowered = bconv_lowered(&mut q, &packed_in, &packed_f, &fused, &geom);
            assert_eq!(direct, lowered, "c={c} k={k} pad={pad} stride={stride}");
        }
    }

    #[test]
    fn flatten_preserves_bits_in_raster_order() {
        let mut f = PackedFilters::<u8>::zeros(FilterShape::new(2, 2, 2, 3));
        f.set_bit(1, 1, 0, 2, true);
        let flat = flatten_filters(&f);
        // Index of (i=1, j=0, c=2) in raster order = ((1*2)+0)*3 + 2 = 8.
        assert!(flat.get_bit(1, 0, 0, 8));
        assert_eq!(flat.shape().c, 12);
        assert!(flat.tail_is_clean());
    }

    #[test]
    fn pack_windows_padding_is_zero_bits() {
        let t = pm1_tensor(Shape4::new(1, 2, 2, 4), 1);
        let packed = pack_f32::<u8>(&t);
        let geom = ConvGeometry::square(3, 1, 1);
        let windows = pack_windows(&packed, &geom);
        assert_eq!(windows.shape(), Shape4::new(1, 2, 2, 36));
        // Window at (0,0): tap (0,0) falls entirely in padding.
        for c in 0..4 {
            assert!(!windows.get_bit(0, 0, 0, c), "padding tap bit {c}");
        }
        assert!(windows.tail_is_clean());
    }

    #[test]
    fn pack_windows_word_merge_matches_bit_walk_at_odd_c() {
        // The unaligned path merges whole tap words with shifts; verify
        // against a per-bit reference for channel counts straddling word
        // boundaries, with stride and padding in play.
        for c in [3usize, 5, 13, 37, 63, 65, 100] {
            let t = pm1_tensor(Shape4::new(2, 5, 6, c), c);
            let packed = pack_f32::<u64>(&t);
            for geom in [ConvGeometry::square(3, 1, 1), ConvGeometry::square(3, 2, 0)] {
                let windows = pack_windows(&packed, &geom);
                let (oh, ow) = geom.output_hw(5, 6);
                assert!(windows.tail_is_clean(), "c={c}");
                for n in 0..2 {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            for i in 0..geom.kh {
                                for j in 0..geom.kw {
                                    let iy =
                                        (oy * geom.stride_h + i) as isize - geom.pad_h as isize;
                                    let ix =
                                        (ox * geom.stride_w + j) as isize - geom.pad_w as isize;
                                    for ch in 0..c {
                                        let expect = iy >= 0
                                            && (iy as usize) < 5
                                            && ix >= 0
                                            && (ix as usize) < 6
                                            && packed.get_bit(n, iy as usize, ix as usize, ch);
                                        let idx = (i * geom.kw + j) * c + ch;
                                        assert_eq!(
                                            windows.get_bit(n, oy, ox, idx),
                                            expect,
                                            "c={c} n={n} oy={oy} ox={ox} tap=({i},{j}) ch={ch}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn flatten_word_merge_matches_bit_order_at_odd_c() {
        for c in [3usize, 37, 63, 65] {
            let mut f = PackedFilters::<u64>::zeros(FilterShape::new(3, 3, 3, c));
            for k in 0..3 {
                for i in 0..3 {
                    for j in 0..3 {
                        for ch in 0..c {
                            f.set_bit(k, i, j, ch, (k * 5 + i * 3 + j * 7 + ch) % 3 == 0);
                        }
                    }
                }
            }
            let flat = flatten_filters(&f);
            assert!(flat.tail_is_clean(), "c={c}");
            for k in 0..3 {
                for i in 0..3 {
                    for j in 0..3 {
                        for ch in 0..c {
                            assert_eq!(
                                flat.get_bit(k, 0, 0, (i * 3 + j) * c + ch),
                                f.get_bit(k, i, j, ch),
                                "c={c} k={k} tap=({i},{j}) ch={ch}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lowered_dispatches_two_kernels_with_more_traffic() {
        let t = pm1_tensor(Shape4::new(1, 13, 13, 128), 2);
        let filters = Filters::from_fn(FilterShape::new(64, 3, 3, 128), |a, _, _, e| {
            if (a + e) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let geom = ConvGeometry::square(3, 1, 1);
        let fused = FusedBn::identity(64);
        let packed_in = pack_f32::<u64>(&t);
        let packed_f = pack_filters::<u64>(&filters);
        let mut q = queue();
        let _ = bconv_fused(&mut q, &packed_in, &packed_f, &fused, &geom);
        let direct_time = q.elapsed_s();
        let direct_bytes: f64 = q.timeline().iter().map(|e| e.stats.dram_bytes).sum();
        q.reset();
        let _ = bconv_lowered(&mut q, &packed_in, &packed_f, &fused, &geom);
        let lowered_time = q.elapsed_s();
        let lowered_bytes: f64 = q.timeline().iter().map(|e| e.stats.dram_bytes).sum();
        assert_eq!(q.timeline().len(), 2, "pack + gemm");
        assert!(
            lowered_bytes > direct_bytes,
            "lowering must move more DRAM: {lowered_bytes} vs {direct_bytes}"
        );
        assert!(
            lowered_time > direct_time,
            "direct fused path wins in the model"
        );
    }
}
