//! PhoneBit's GPU kernels.
//!
//! Each kernel exposes a `compute_*` functional body (pure host math,
//! reusable by baselines and tests) and the closed-form cost profile of its
//! dispatch in [`profiles`]. The engine launches its plan's staged profiles
//! over the bodies; the dispatch wrappers (`*_into`, and the allocating
//! entries over them) launch a body under its profile for one-off callers,
//! staging their filters per call.

pub mod bconv;
pub mod bgemm;
pub mod bitplane;
pub mod bytedot;
pub mod dense;
pub mod fconv;
pub mod fused;
pub mod isa;
pub mod pool;
pub mod profiles;
pub mod taps;
pub mod tiled;

use phonebit_gpusim::queue::CommandQueue;
use phonebit_tensor::bits::{BitTensor, BitWord};
use phonebit_tensor::shape::Shape4;
use phonebit_tensor::tensor::Tensor;

/// Dispatches input binarization: a float tensor is sign-binarized and
/// channel-packed (used when a network's first layer is already binary)
/// into `out`, reusing its storage.
pub fn pack_input_into<W: BitWord>(
    q: &mut CommandQueue,
    input: &Tensor<f32>,
    out: &mut BitTensor<W>,
) {
    let (s, image) = (input.shape(), input.nhwc());
    let profile = profiles::pack_input(s.pixels(), s.c);
    q.launch(profile, || {
        compute_pack_input(std::slice::from_ref(&*image), s, out)
    });
}

/// Functional body of the sign-pack over a request window read where it
/// lies (so the engine's arena holds no float copy of it): `images`, in
/// order, fill the leading lanes of `out` (reset to the batched `shape`),
/// and the lanes a short window leaves pack as zero images. The sweep runs
/// under the host's best instruction set — on AVX-512 one compare into a
/// mask register per sixteen floats (`isa::pack_window`).
pub fn compute_pack_input<W: BitWord>(
    images: &[Tensor<f32>],
    shape: Shape4,
    out: &mut BitTensor<W>,
) {
    isa::pack_window(images, shape, out)
}

/// The sign-pack sweep's AVX-512 frame: sixteen floats per `vcmpps` into a
/// mask register, the mask moved out whole. `_CMP_GE_OQ` is the sweep's
/// `>=`: -0.0 packs to 1 and NaN to 0.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) fn pack_avx512<W: BitWord>(
    images: &[Tensor<f32>],
    shape: Shape4,
    out: &mut BitTensor<W>,
) {
    use std::arch::x86_64::*;
    #[rustfmt::skip]
    let mask = |v: &[f32; 16]| {
        let v = _mm512_set_ps(
            v[15], v[14], v[13], v[12], v[11], v[10], v[9], v[8],
            v[7], v[6], v[5], v[4], v[3], v[2], v[1], v[0],
        );
        u64::from(_mm512_cmp_ps_mask::<_CMP_GE_OQ>(v, _mm512_setzero_ps()))
    };
    phonebit_tensor::pack::pack_window_with(images, shape, out, mask)
}

/// Dispatches bit unpacking: a packed binary tensor becomes ±1.0 floats in
/// `out`, reusing its storage. Needed where a full-precision layer consumes
/// a binary layer's output (e.g. YOLOv2-Tiny's float conv9 after binary
/// conv8).
pub fn unpack_bits_into<W: BitWord>(
    q: &mut CommandQueue,
    input: &BitTensor<W>,
    out: &mut Tensor<f32>,
) {
    let s = input.shape();
    let profile = profiles::unpack_bits(s.pixels(), s.c);
    q.launch(profile, || {
        phonebit_tensor::pack::unpack_f32_into(input, out);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_gpusim::{DeviceProfile, ExecutorClass};
    use phonebit_tensor::pack::pack_f32;

    fn queue() -> CommandQueue {
        CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
    }

    #[test]
    fn pack_input_matches_direct_pack() {
        let t = Tensor::from_fn(Shape4::new(1, 3, 3, 20), |_, h, w, c| {
            ((h * 5 + w * 3 + c) % 7) as f32 - 3.0
        });
        let mut q = queue();
        let mut packed = BitTensor::<u32>::zeros(Shape4::new(0, 0, 0, 0));
        pack_input_into(&mut q, &t, &mut packed);
        assert_eq!(packed, pack_f32::<u32>(&t));
        assert_eq!(q.timeline()[0].stats.name, "pack_input");
    }

    #[test]
    fn batched_softmax_matches_per_image_in_one_dispatch() {
        let batch = 3usize;
        let t = Tensor::from_fn(Shape4::new(batch, 1, 1, 5), |n, _, _, c| {
            (n * 5 + c) as f32 * 0.3 - 1.0
        });
        // The batched softmax step: the logits copied out, every image's row
        // normalized in one dispatch of the batched profile.
        let mut q = queue();
        let mut out = t.clone();
        q.launch(profiles::softmax(5).batched(batch), || {
            out.as_mut_slice()
                .chunks_exact_mut(5)
                .for_each(crate::act::softmax)
        });
        assert_eq!(q.timeline().len(), 1, "one dispatch for the whole batch");
        for n in 0..batch {
            let mut row: Vec<f32> = (0..5).map(|c| t.at(n, 0, 0, c)).collect();
            crate::act::softmax(&mut row);
            for (c, want) in row.iter().enumerate() {
                assert_eq!(out.at(n, 0, 0, c), *want, "image {n} logit {c}");
            }
        }
    }
}
