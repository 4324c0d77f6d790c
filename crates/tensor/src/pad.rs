//! Spatial padding of float tensors, the reference side of the
//! convolution tests.
//!
//! A packed binary tensor has no spare encoding for "true zero", so the
//! engine's binary kernels read the border as **bit 0, i.e. −1**. The float
//! reference for a binary layer must pad with the same value for
//! exact-equality testing, which is why the fill is explicit here: `-1.0`
//! for a binary layer's input, `0.0` for a full-precision one.

use crate::shape::{Layout, Shape4};
use crate::tensor::Tensor;

/// Pads a float tensor spatially with an explicit fill value.
///
/// Output shape is `(n, h + 2*pad_h, w + 2*pad_w, c)` in NHWC.
pub fn pad_f32_with(t: &Tensor<f32>, pad_h: usize, pad_w: usize, fill: f32) -> Tensor<f32> {
    let s = t.shape();
    let out_shape = Shape4::new(s.n, s.h + 2 * pad_h, s.w + 2 * pad_w, s.c);
    let mut out = Tensor::from_vec(out_shape, Layout::Nhwc, vec![fill; out_shape.len()]);
    for n in 0..s.n {
        for h in 0..s.h {
            for w in 0..s.w {
                for c in 0..s.c {
                    out.set(n, h + pad_h, w + pad_w, c, t.at(n, h, w, c));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_f32_places_interior() {
        let t = Tensor::<f32>::from_fn(Shape4::new(1, 2, 2, 1), |_, h, w, _| {
            (h * 2 + w) as f32 + 1.0
        });
        let p = pad_f32_with(&t, 1, 1, 0.0);
        assert_eq!(p.shape(), Shape4::new(1, 4, 4, 1));
        assert_eq!(p.at(0, 0, 0, 0), 0.0);
        assert_eq!(p.at(0, 1, 1, 0), 1.0);
        assert_eq!(p.at(0, 2, 2, 0), 4.0);
        assert_eq!(p.at(0, 3, 3, 0), 0.0);
    }

    #[test]
    fn pad_with_custom_fill() {
        let t = Tensor::<f32>::zeros(Shape4::new(1, 1, 1, 2), Layout::Nhwc);
        let p = pad_f32_with(&t, 1, 0, -1.0);
        assert_eq!(p.shape(), Shape4::new(1, 3, 1, 2));
        assert_eq!(p.at(0, 0, 0, 0), -1.0);
        assert_eq!(p.at(0, 1, 0, 0), 0.0);
        assert_eq!(p.at(0, 2, 0, 1), -1.0);
    }

    #[test]
    fn pad_zero_is_identity() {
        let t =
            Tensor::<f32>::from_fn(Shape4::new(2, 3, 3, 4), |n, h, w, c| (n + h + w + c) as f32);
        assert_eq!(pad_f32_with(&t, 0, 0, 0.0), t);
    }
}
