//! A trainable 2-D convolution layer (float or binary with STE), so the
//! accuracy-gap experiment can use convolutional networks shaped like the
//! paper's models rather than only MLPs.
//!
//! Activations are carried as matrices with `batch` rows and flattened
//! NHWC columns. Convolution lowers to im2col + GEMM on the forward pass;
//! the backward pass scatters gradients back through col2im.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// Spatial geometry of a conv layer over flattened NHWC activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dShape {
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Square kernel edge.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Symmetric zero padding.
    pub pad: usize,
}

impl Conv2dShape {
    /// Output spatial size.
    pub fn out_hw(&self) -> (usize, usize) {
        (
            (self.h + 2 * self.pad - self.k) / self.stride + 1,
            (self.w + 2 * self.pad - self.k) / self.stride + 1,
        )
    }

    /// Flattened input feature count.
    fn in_features(&self) -> usize {
        self.h * self.w * self.c_in
    }

    /// Flattened output feature count.
    pub fn out_features(&self) -> usize {
        let (oh, ow) = self.out_hw();
        oh * ow * self.c_out
    }

    fn window(&self) -> usize {
        self.k * self.k * self.c_in
    }
}

/// A trainable convolution with latent float weights, optionally binarized
/// on the forward pass (sign + STE, like [`crate::net::Dense`]).
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Layer geometry.
    pub shape: Conv2dShape,
    /// Latent weights, `c_out x (k*k*c_in)`.
    pub w: Matrix,
    /// Accumulated weight gradient.
    pub grad_w: Matrix,
    momentum: Matrix,
    binary: bool,
    cache_cols: Option<Matrix>, // im2col of the batch
}

impl Conv2d {
    /// Random-initialized conv layer.
    pub fn new(shape: Conv2dShape, binary: bool, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let fan = shape.window();
        let scale = (2.0 / fan as f32).sqrt();
        let w = Matrix::from_fn(shape.c_out, fan, |_, _| {
            (rng.gen::<f32>() * 2.0 - 1.0) * scale
        });
        Self {
            grad_w: Matrix::zeros(shape.c_out, fan),
            momentum: Matrix::zeros(shape.c_out, fan),
            w,
            shape,
            binary,
            cache_cols: None,
        }
    }

    /// Effective (possibly binarized) weights.
    fn effective_weights(&self) -> Matrix {
        if self.binary {
            self.w.clone().map(|v| if v >= 0.0 { 1.0 } else { -1.0 })
        } else {
            self.w.clone()
        }
    }

    /// im2col over a batch of flattened NHWC rows: output has
    /// `batch * oh * ow` rows of `k*k*c_in` columns.
    fn im2col(&self, x: &Matrix) -> Matrix {
        let s = self.shape;
        let (oh, ow) = s.out_hw();
        let mut cols = Matrix::zeros(x.rows() * oh * ow, s.window());
        for b in 0..x.rows() {
            let row = x.row(b);
            for oy in 0..oh {
                for ox in 0..ow {
                    let r = (b * oh + oy) * ow + ox;
                    let mut col = 0;
                    for i in 0..s.k {
                        let iy = (oy * s.stride + i) as isize - s.pad as isize;
                        for j in 0..s.k {
                            let ix = (ox * s.stride + j) as isize - s.pad as isize;
                            if iy >= 0 && (iy as usize) < s.h && ix >= 0 && (ix as usize) < s.w {
                                let base = ((iy as usize) * s.w + ix as usize) * s.c_in;
                                for c in 0..s.c_in {
                                    *cols.at_mut(r, col + c) = row[base + c];
                                }
                            }
                            col += s.c_in;
                        }
                    }
                }
            }
        }
        cols
    }

    /// Forward: `x` is `batch x (h*w*c_in)`, returns
    /// `batch x (oh*ow*c_out)` in NHWC order.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let s = self.shape;
        let (oh, ow) = s.out_hw();
        let cols = self.im2col(x);
        let wb = self.effective_weights();
        // rows: (b, oy, ox) ; product: rows x c_out.
        let prod = cols.matmul_t(&wb);
        self.cache_cols = Some(cols);
        // Reshape (b*oh*ow, c_out) -> (b, oh*ow*c_out) keeping NHWC.
        let mut out = Matrix::zeros(x.rows(), s.out_features());
        for b in 0..x.rows() {
            for p in 0..oh * ow {
                for c in 0..s.c_out {
                    *out.at_mut(b, p * s.c_out + c) = prod.at(b * oh * ow + p, c);
                }
            }
        }
        out
    }

    /// Backward from `batch x (oh*ow*c_out)`; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, grad_y: &Matrix) -> Matrix {
        let s = self.shape;
        let (oh, ow) = s.out_hw();
        let batch = grad_y.rows();
        // Un-reshape to (b*oh*ow, c_out).
        let mut gprod = Matrix::zeros(batch * oh * ow, s.c_out);
        for b in 0..batch {
            for p in 0..oh * ow {
                for c in 0..s.c_out {
                    *gprod.at_mut(b * oh * ow + p, c) = grad_y.at(b, p * s.c_out + c);
                }
            }
        }
        let cols = self.cache_cols.as_ref().expect("backward before forward");
        // dW = gprod^T @ cols.
        let mut grad_w = gprod.t_matmul(cols);
        if self.binary {
            for (g, &w) in grad_w.as_mut_slice().iter_mut().zip(self.w.as_slice()) {
                if w.abs() > 1.0 {
                    *g = 0.0;
                }
            }
        }
        self.grad_w = grad_w;
        // dcols = gprod @ Wb ; then col2im scatter-add.
        let wb = self.effective_weights();
        let dcols = gprod.matmul(&wb);
        let mut dx = Matrix::zeros(batch, s.in_features());
        for b in 0..batch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let r = (b * oh + oy) * ow + ox;
                    let mut col = 0;
                    for i in 0..s.k {
                        let iy = (oy * s.stride + i) as isize - s.pad as isize;
                        for j in 0..s.k {
                            let ix = (ox * s.stride + j) as isize - s.pad as isize;
                            if iy >= 0 && (iy as usize) < s.h && ix >= 0 && (ix as usize) < s.w {
                                let base = ((iy as usize) * s.w + ix as usize) * s.c_in;
                                for c in 0..s.c_in {
                                    *dx.at_mut(b, base + c) += dcols.at(r, col + c);
                                }
                            }
                            col += s.c_in;
                        }
                    }
                }
            }
        }
        dx
    }

    /// SGD-with-momentum step; binary layers clip latent weights.
    pub fn update(&mut self, lr: f32, momentum: f32) {
        for i in 0..self.w.as_slice().len() {
            let g = self.grad_w.as_slice()[i];
            let m = momentum * self.momentum.as_slice()[i] + g;
            self.momentum.as_mut_slice()[i] = m;
            let w = &mut self.w.as_mut_slice()[i];
            *w -= lr * m;
            if self.binary {
                *w = w.clamp(-1.0, 1.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{softmax_ce, softmax_ce_grad};

    fn shape() -> Conv2dShape {
        Conv2dShape {
            h: 6,
            w: 6,
            c_in: 2,
            c_out: 3,
            k: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn output_shape_math() {
        let s = shape();
        assert_eq!(s.out_hw(), (6, 6));
        assert_eq!(s.in_features(), 72);
        assert_eq!(s.out_features(), 108);
        let strided = Conv2dShape {
            stride: 2,
            pad: 0,
            ..s
        };
        assert_eq!(strided.out_hw(), (2, 2));
    }

    #[test]
    fn identity_kernel_copies_channel() {
        // 1x1 kernel selecting channel 0.
        let s = Conv2dShape {
            h: 3,
            w: 3,
            c_in: 2,
            c_out: 1,
            k: 1,
            stride: 1,
            pad: 0,
        };
        let mut conv = Conv2d::new(s, false, 1);
        conv.w = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let x = Matrix::from_fn(1, 18, |_, i| i as f32);
        let y = conv.forward(&x);
        // NHWC: channel-0 entries are the even indices.
        let expect: Vec<f32> = (0..9).map(|p| (p * 2) as f32).collect();
        assert_eq!(y.as_slice(), &expect[..]);
    }

    #[test]
    fn conv_gradient_check_float() {
        let s = shape();
        let mut conv = Conv2d::new(s, false, 7);
        let x = Matrix::from_fn(2, s.in_features(), |r, c| {
            ((r * 37 + c) as f32 * 0.31).sin()
        });
        let labels: Vec<usize> = (0..2 * s.out_features()).map(|i| i % 2).collect();
        let labels = labels[..2].to_vec();
        // Head: mean over features per class slot is awkward; instead take
        // CE over the first 2 output columns directly.
        let loss_of = |conv: &mut Conv2d| {
            let y = conv.forward(&x);
            let logits = Matrix::from_fn(2, 2, |r, c| y.at(r, c));
            softmax_ce(&logits, &labels).0
        };
        let y = conv.forward(&x);
        let logits = Matrix::from_fn(2, 2, |r, c| y.at(r, c));
        let (_, probs) = softmax_ce(&logits, &labels);
        let g2 = softmax_ce_grad(&probs, &labels);
        let mut grad_y = Matrix::zeros(2, s.out_features());
        for r in 0..2 {
            for c in 0..2 {
                *grad_y.at_mut(r, c) = g2.at(r, c);
            }
        }
        let dx = conv.backward(&grad_y);
        let eps = 1e-2;
        // Weight gradient check.
        for idx in [0usize, 10, 33] {
            let orig = conv.w.as_slice()[idx];
            conv.w.as_mut_slice()[idx] = orig + eps;
            let lp = loss_of(&mut conv);
            conv.w.as_mut_slice()[idx] = orig - eps;
            let lm = loss_of(&mut conv);
            conv.w.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = conv.grad_w.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "dW idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Input gradient check.
        let mut x2 = x.clone();
        for idx in [0usize, 20, 71] {
            let orig = x2.as_slice()[idx];
            x2.as_mut_slice()[idx] = orig + eps;
            let yp = conv.forward(&x2);
            let lp = softmax_ce(&Matrix::from_fn(2, 2, |r, c| yp.at(r, c)), &labels).0;
            x2.as_mut_slice()[idx] = orig - eps;
            let ym = conv.forward(&x2);
            let lm = softmax_ce(&Matrix::from_fn(2, 2, |r, c| ym.at(r, c)), &labels).0;
            x2.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dx.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-3,
                "dX idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn binary_conv_uses_signs_and_clips() {
        let s = Conv2dShape {
            h: 2,
            w: 2,
            c_in: 1,
            c_out: 1,
            k: 1,
            stride: 1,
            pad: 0,
        };
        let mut conv = Conv2d::new(s, true, 3);
        conv.w = Matrix::from_vec(1, 1, vec![0.3]);
        let x = Matrix::from_vec(1, 4, vec![1.0, -2.0, 3.0, -4.0]);
        let y = conv.forward(&x);
        // sign(0.3) = +1 -> identity.
        assert_eq!(y.as_slice(), x.as_slice());
        conv.grad_w = Matrix::from_vec(1, 1, vec![-10.0]);
        conv.update(1.0, 0.0);
        assert_eq!(conv.w.as_slice(), &[1.0], "clipped to +1");
    }
}
