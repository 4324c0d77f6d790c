//! Dense (fully connected) kernels, binary and float, plus the bit-preserving
//! flatten that connects convolutional features to them. A binary dense layer
//! is a 1×1 convolution over a 1×1 image, the pointwise GEMM: one flattened
//! image is one window row the layer's [`FusedLanes`] decide.

use phonebit_gpusim::queue::CommandQueue;
use phonebit_tensor::bits::{merge_bits, BitTensor, BitWord, PackedFilters};
use phonebit_tensor::shape::Shape4;

use crate::act::Activation;
use crate::fuse::FusedBn;
use crate::kernels::profiles;
use crate::kernels::tiled::FusedLanes;

/// Flattens a packed feature map `(n, h, w, c)` into `(n, 1, 1, h*w*c)`
/// keeping `(h, w, c)` raster order — the order dense weights are stored in.
///
/// When the channel count is word-aligned the packed words are already
/// contiguous and the flatten is a plain copy; otherwise each pixel's
/// channel span is merged into the flat row with shifted word ORs
/// ([`merge_bits`]) to remove per-pixel tail gaps without a bit walk.
pub fn flatten_bits<W: BitWord>(input: &BitTensor<W>) -> BitTensor<W> {
    let mut out = BitTensor::<W>::zeros(Shape4::new(0, 0, 0, 0));
    flatten_bits_into(input, &mut out);
    out
}

/// [`flatten_bits`] into a caller-provided tensor (reset to the flat
/// shape), reusing its storage — the engine's arena path.
pub fn flatten_bits_into<W: BitWord>(input: &BitTensor<W>, out: &mut BitTensor<W>) {
    let s = input.shape();
    let flat = Shape4::new(s.n, 1, 1, s.h * s.w * s.c);
    out.reset(flat);
    if s.c.is_multiple_of(W::BITS) {
        out.as_mut_words().copy_from_slice(input.as_words());
        return;
    }
    let row_words = out.words_per_pixel();
    for n in 0..s.n {
        let base = out.pixel_offset(n, 0, 0);
        for h in 0..s.h {
            for w in 0..s.w {
                let src = input.pixel_words(n, h, w);
                let (words, bit_off) = (out.as_mut_words(), (h * s.w + w) * s.c);
                merge_bits(&mut words[base..base + row_words], bit_off, src, s.c);
            }
        }
    }
}

/// Functional body of the fused binary dense layer, writing into `out`,
/// zeroed at the output shape: the pointwise GEMM of the
/// flattened rows against `lanes`, `(k, 1, 1, features)`.
pub fn compute_dense_bin<W: BitWord>(
    input: &BitTensor<W>,
    lanes: &FusedLanes<W>,
    out: &mut BitTensor<W>,
) {
    let wpp = out.words_per_pixel();
    lanes.decide_windows(input.as_words(), out.as_mut_words(), wpp);
}

/// Dispatches the fused binary dense layer: xnor-popcount matvec + BN +
/// binarize + pack. Interleaves `weights` first; a caller that runs the
/// layer more than once stages its [`FusedLanes`] and launches
/// [`compute_dense_bin`] over them.
///
/// # Panics
///
/// Panics when the input is not flattened (`h = w = 1`) or shapes disagree.
pub fn dense_bin<W: BitWord>(
    q: &mut CommandQueue,
    input: &BitTensor<W>,
    weights: &PackedFilters<W>,
    fused: &FusedBn,
) -> BitTensor<W> {
    let (s, ws) = (input.shape(), weights.shape());
    assert_eq!(fused.len(), ws.k, "fusion params must cover every output");
    assert!(
        s.h == 1 && s.w == 1,
        "dense input must be flattened, got {s}"
    );
    assert_eq!((ws.kh, ws.kw), (1, 1), "dense weights must be 1x1 taps");
    assert_eq!(
        s.c, ws.c,
        "input features {} != weight features {}",
        s.c, ws.c
    );
    let lanes = FusedLanes::new(weights, fused);
    let mut out = BitTensor::<W>::zeros(Shape4::new(s.n, 1, 1, ws.k));
    // One dispatch covers the whole batch: the matvec loops rows inside
    // the kernel while the per-dispatch launch overhead is paid once.
    let profile = profiles::dense_bin(ws.k, s.c).batched(s.n);
    q.launch(profile, || compute_dense_bin(input, &lanes, &mut out));
    out
}

/// Functional body of the float dense layer: `y = act(Wx + b)` for every
/// image of a batch in one pass — `input` holds the images' flattened
/// features back to back and `out` their outputs, `bias.len()` each.
///
/// `weights` is row-major `[out_features x in_features]`.
///
/// # Panics
///
/// Panics when `weights` is not `bias.len()` rows, or `input` not whole
/// rows of them.
pub fn compute_dense_float(
    input: &[f32],
    weights: &[f32],
    bias: &[f32],
    act: Activation,
    out: &mut [f32],
) {
    let out_features = bias.len();
    assert!(
        out_features > 0 && weights.len().is_multiple_of(out_features),
        "weight matrix must be out x in"
    );
    let in_features = weights.len() / out_features;
    assert_eq!(
        input.len() * out_features,
        out.len() * in_features,
        "weight matrix must be out x in"
    );
    let images = input
        .chunks_exact(in_features)
        .zip(out.chunks_exact_mut(out_features));
    for (x, y) in images {
        for (k, slot) in y.iter_mut().enumerate() {
            let row = &weights[k * in_features..(k + 1) * in_features];
            let mut acc = bias[k];
            for (x, w) in x.iter().zip(row.iter()) {
                acc += x * w;
            }
            *slot = act.apply(acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_gpusim::{DeviceProfile, ExecutorClass};
    use phonebit_tensor::pack::{pack_f32, pack_filters, unpack_f32};
    use phonebit_tensor::shape::FilterShape;
    use phonebit_tensor::tensor::{Filters, Tensor};

    use crate::fuse::BnParams;

    fn queue() -> CommandQueue {
        CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
    }

    /// A window of images through the float dense layer, one dispatch of
    /// the layer's batched profile.
    fn dense_float_batch(
        q: &mut CommandQueue,
        input: &[f32],
        batch: usize,
        weights: &[f32],
        bias: &[f32],
        act: Activation,
    ) -> Vec<f32> {
        let mut out = vec![0.0; batch * bias.len()];
        let profile = profiles::dense_float(bias.len(), input.len() / batch).batched(batch);
        q.launch(profile, || {
            compute_dense_float(input, weights, bias, act, &mut out)
        });
        out
    }

    /// One image through the float dense layer, one dispatch.
    fn dense_float(
        q: &mut CommandQueue,
        input: &[f32],
        weights: &[f32],
        bias: &[f32],
        act: Activation,
    ) -> Vec<f32> {
        dense_float_batch(q, input, 1, weights, bias, act)
    }

    #[test]
    fn flatten_word_aligned_is_copy() {
        let t = Tensor::from_fn(Shape4::new(1, 2, 2, 64), |_, h, w, c| {
            if (h + w + c) % 3 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let packed = pack_f32::<u64>(&t);
        let flat = flatten_bits(&packed);
        assert_eq!(flat.shape(), Shape4::new(1, 1, 1, 256));
        assert_eq!(flat.as_words(), packed.as_words());
    }

    #[test]
    fn flatten_unaligned_repacks() {
        let t = Tensor::from_fn(Shape4::new(1, 2, 2, 5), |_, h, w, c| {
            if (h * 4 + w * 2 + c) % 3 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let packed = pack_f32::<u8>(&t);
        let flat = flatten_bits(&packed);
        assert_eq!(flat.shape().c, 20);
        assert!(flat.tail_is_clean());
        // Bit order is (h, w, c) raster.
        let mut idx = 0;
        for h in 0..2 {
            for w in 0..2 {
                for c in 0..5 {
                    assert_eq!(flat.get_bit(0, 0, 0, idx), packed.get_bit(0, h, w, c));
                    idx += 1;
                }
            }
        }
    }

    /// Batches across a [`TILE_PIXELS`](crate::kernels::tiled::TILE_PIXELS)
    /// tile, outputs across a 64-filter word, features below, at and past
    /// one and sixteen `u64` words, against a float conv + BN + sign.
    fn dense_bin_matches_float_reference_at<W: BitWord>() {
        let mut q = queue();
        for features in [1usize, 63, 64, 100, 1024] {
            for outputs in [1usize, 7, 63, 64, 65, 130] {
                let wf =
                    Filters::from_fn(FilterShape::new(outputs, 1, 1, features), |k, _, _, c| {
                        if (k * 7 + c) % 2 == 0 {
                            1.0
                        } else {
                            -1.0
                        }
                    });
                let bn = BnParams {
                    gamma: (0..outputs)
                        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                        .collect(),
                    beta: vec![0.3; outputs],
                    mu: (0..outputs).map(|i| (i % 9) as f32 - 4.0).collect(),
                    sigma: vec![1.5; outputs],
                };
                let bias = vec![1.0; outputs];
                let fused = FusedBn::precompute(&bn, &bias);
                let w = pack_filters::<W>(&wf);
                for batch in [1usize, 3, 4, 5, 9] {
                    let x = Tensor::from_fn(Shape4::new(batch, 1, 1, features), |n, _, _, c| {
                        if (c + n) % 3 == 0 {
                            1.0
                        } else {
                            -1.0
                        }
                    });
                    let y = dense_bin(&mut q, &pack_f32::<W>(&x), &w, &fused);
                    assert!(y.tail_is_clean());
                    let got = unpack_f32(&y);
                    for (n, k) in (0..batch).flat_map(|n| (0..outputs).map(move |k| (n, k))) {
                        let dot: f32 = (0..features)
                            .map(|c| x.at(n, 0, 0, c) * wf.at(k, 0, 0, c))
                            .sum();
                        let x3 = bn.apply(k, dot + bias[k]);
                        let expect = if x3 >= 0.0 { 1.0 } else { -1.0 };
                        assert_eq!(
                            got.at(n, 0, 0, k),
                            expect,
                            "{} features {features} batch {batch} image {n} output {k}",
                            W::CL_NAME
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dense_bin_matches_float_reference() {
        dense_bin_matches_float_reference_at::<u8>();
        dense_bin_matches_float_reference_at::<u16>();
        dense_bin_matches_float_reference_at::<u32>();
        dense_bin_matches_float_reference_at::<u64>();
    }

    #[test]
    fn dense_float_matvec() {
        let x = [1.0f32, 2.0, -1.0];
        let w = [
            1.0, 0.0, 0.0, // row 0 -> 1
            0.0, 1.0, 1.0, // row 1 -> 1
        ];
        let mut q = queue();
        let y = dense_float(&mut q, &x, &w, &[10.0, -10.0], Activation::Linear);
        assert_eq!(y, vec![11.0, -9.0]);
    }

    #[test]
    fn dense_float_batch_matches_per_image_rows() {
        let (batch, features, outputs) = (4usize, 6usize, 3usize);
        let input = Tensor::from_fn(Shape4::new(batch, 1, 2, 3), |n, _, w, c| {
            (n * 11 + w * 5 + c) as f32 * 0.25 - 1.5
        });
        let weights: Vec<f32> = (0..outputs * features)
            .map(|i| ((i * 7) % 5) as f32 - 2.0)
            .collect();
        let bias = vec![0.5, -0.25, 0.0];
        let mut q = queue();
        let (x, act) = (input.as_slice(), Activation::Linear);
        let out = dense_float_batch(&mut q, x, batch, &weights, &bias, act);
        assert_eq!(out.len(), batch * outputs);
        assert_eq!(q.timeline().len(), 1, "one dispatch for the whole batch");
        // Bit-exact against the per-image entry point.
        for n in 0..batch {
            let row: Vec<f32> = (0..features)
                .map(|i| input.as_slice()[n * features + i])
                .collect();
            let mut q1 = queue();
            let single = dense_float(&mut q1, &row, &weights, &bias, Activation::Linear);
            assert_eq!(
                &out[n * outputs..(n + 1) * outputs],
                single.as_slice(),
                "image {n}"
            );
        }
        // The batched dispatch amortizes launch overhead vs n dispatches.
        let batched_s = q.elapsed_s();
        let mut qn = queue();
        for n in 0..batch {
            let row: Vec<f32> = (0..features)
                .map(|i| input.as_slice()[n * features + i])
                .collect();
            let _ = dense_float(&mut qn, &row, &weights, &bias, Activation::Linear);
        }
        assert!(batched_s < qn.elapsed_s());
    }

    #[test]
    fn dense_float_relu() {
        let x = [1.0f32];
        let w = [-5.0f32];
        let mut q = queue();
        let y = dense_float(&mut q, &x, &w, &[0.0], Activation::Relu);
        assert_eq!(y, vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "flattened")]
    fn non_flat_input_panics() {
        let t = Tensor::from_fn(Shape4::new(1, 2, 2, 8), |_, _, _, _| 1.0);
        let w = PackedFilters::<u64>::zeros(FilterShape::new(4, 1, 1, 32));
        let mut q = queue();
        let _ = dense_bin(&mut q, &pack_f32::<u64>(&t), &w, &FusedBn::identity(4));
    }

    #[test]
    #[should_panic(expected = "out x in")]
    fn dense_float_shape_mismatch_panics() {
        let mut q = queue();
        let _ = dense_float(
            &mut q,
            &[1.0, 2.0],
            &[1.0, 2.0, 3.0],
            &[0.0, 0.0],
            Activation::Linear,
        );
    }
}
