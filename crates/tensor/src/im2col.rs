//! `im2col` unrolling for GEMM-based float convolution.
//!
//! The TFLite-like baseline lowers convolution to matrix multiplication by
//! unrolling input windows into rows ("im2col"), trading memory for GEMM
//! locality. CNNdroid-style direct convolution does not use this. PhoneBit
//! never materializes im2col buffers — its packed representation already
//! makes windows contiguous along channels — so this module exists for the
//! baselines and for reference convolutions in tests.

use crate::shape::ConvGeometry;
use crate::tensor::Tensor;

/// The unrolled matrix: `rows = out_h * out_w` windows (per batch image),
/// `cols = kh * kw * c` taps, stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Im2col {
    /// Unrolled data, row-major, one batch image after another.
    pub data: Vec<f32>,
    /// Rows per batch image (`out_h * out_w`).
    pub rows: usize,
    /// Columns (`kh * kw * c`).
    pub cols: usize,
    /// Batch size.
    pub batch: usize,
    /// Output spatial size.
    pub out_hw: (usize, usize),
}

impl Im2col {
    /// Row `r` of batch image `n` as a slice of `cols` taps.
    pub fn row(&self, n: usize, r: usize) -> &[f32] {
        let start = (n * self.rows + r) * self.cols;
        &self.data[start..start + self.cols]
    }
}

/// Unrolls an NHWC float tensor for the given convolution geometry, padding
/// with zeros. Column order is `(kh, kw, c)` with channels innermost,
/// matching [`crate::shape::FilterShape::index`] so a filter's weights form
/// the matching GEMM column vector without reshuffling.
pub fn im2col_nhwc(t: &Tensor<f32>, g: &ConvGeometry) -> Im2col {
    let s = t.shape();
    let (oh, ow) = g.output_hw(s.h, s.w);
    let rows = oh * ow;
    let cols = g.kh * g.kw * s.c;
    let mut data = vec![0.0f32; s.n * rows * cols];
    for n in 0..s.n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row_base = ((n * rows) + oy * ow + ox) * cols;
                let mut col = 0;
                for i in 0..g.kh {
                    for j in 0..g.kw {
                        // Input coordinates with padding offset; out of range
                        // stays zero.
                        let iy = (oy * g.stride_h + i) as isize - g.pad_h as isize;
                        let ix = (ox * g.stride_w + j) as isize - g.pad_w as isize;
                        if iy >= 0 && (iy as usize) < s.h && ix >= 0 && (ix as usize) < s.w {
                            for c in 0..s.c {
                                data[row_base + col + c] = t.at(n, iy as usize, ix as usize, c);
                            }
                        }
                        col += s.c;
                    }
                }
            }
        }
    }
    Im2col {
        data,
        rows,
        cols,
        batch: s.n,
        out_hw: (oh, ow),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::{FilterShape, Shape4};
    use crate::tensor::Filters;

    /// Reference direct convolution used to validate im2col+GEMM.
    fn direct_conv(t: &Tensor<f32>, f: &Filters, g: &ConvGeometry) -> Tensor<f32> {
        let s = t.shape();
        let fs = f.shape();
        let (oh, ow) = g.output_hw(s.h, s.w);
        Tensor::from_fn(Shape4::new(s.n, oh, ow, fs.k), |n, oy, ox, k| {
            let mut acc = 0.0;
            for i in 0..g.kh {
                for j in 0..g.kw {
                    let iy = (oy * g.stride_h + i) as isize - g.pad_h as isize;
                    let ix = (ox * g.stride_w + j) as isize - g.pad_w as isize;
                    if iy >= 0 && (iy as usize) < s.h && ix >= 0 && (ix as usize) < s.w {
                        for c in 0..s.c {
                            acc += t.at(n, iy as usize, ix as usize, c) * f.at(k, i, j, c);
                        }
                    }
                }
            }
            acc
        })
    }

    #[test]
    fn im2col_gemm_matches_direct_conv() {
        let shape = Shape4::new(2, 6, 5, 3);
        let t = Tensor::from_fn(shape, |n, h, w, c| {
            ((n * 97 + h * 31 + w * 7 + c) % 13) as f32 - 6.0
        });
        let fs = FilterShape::new(4, 3, 3, 3);
        let f = Filters::from_fn(fs, |k, i, j, c| {
            ((k * 11 + i * 5 + j * 3 + c) % 7) as f32 - 3.0
        });
        let g = ConvGeometry::square(3, 1, 1);
        let unrolled = im2col_nhwc(&t, &g);
        let reference = direct_conv(&t, &f, &g);
        let (oh, ow) = g.output_hw(shape.h, shape.w);
        for n in 0..shape.n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for k in 0..fs.k {
                        let row = unrolled.row(n, oy * ow + ox);
                        let dot: f32 = row.iter().zip(f.filter(k)).map(|(a, b)| a * b).sum();
                        assert_eq!(dot, reference.at(n, oy, ox, k));
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_strided_no_pad() {
        let shape = Shape4::new(1, 4, 4, 1);
        let t = Tensor::from_fn(shape, |_, h, w, _| (h * 4 + w) as f32);
        let g = ConvGeometry::square(2, 2, 0);
        let u = im2col_nhwc(&t, &g);
        assert_eq!(u.out_hw, (2, 2));
        assert_eq!(u.rows, 4);
        assert_eq!(u.cols, 4);
        // First window: rows 0-1, cols 0-1 of the image.
        assert_eq!(u.row(0, 0), &[0.0, 1.0, 4.0, 5.0]);
        // Last window: rows 2-3, cols 2-3.
        assert_eq!(u.row(0, 3), &[10.0, 11.0, 14.0, 15.0]);
    }

    #[test]
    fn im2col_bytes_matches_materialized() {
        // The memory amplification of unrolling: out_h * out_w windows of
        // kh * kw * c floats per image.
        let shape = Shape4::new(2, 13, 13, 64);
        let g = ConvGeometry::square(3, 1, 1);
        let t = Tensor::<f32>::zeros(shape, crate::shape::Layout::Nhwc);
        let u = im2col_nhwc(&t, &g);
        assert_eq!(u.data.len() * 4, 2 * 13 * 13 * 3 * 3 * 64 * 4);
    }

    #[test]
    fn padding_region_is_zero() {
        let shape = Shape4::new(1, 2, 2, 2);
        let t = Tensor::from_fn(shape, |_, _, _, _| 1.0);
        let g = ConvGeometry::square(3, 1, 1);
        let u = im2col_nhwc(&t, &g);
        // Window centered on (0,0): top-left taps fall in padding -> zeros.
        let row = u.row(0, 0);
        assert_eq!(&row[0..2], &[0.0, 0.0]); // tap (0,0)
        assert_eq!(&row[8..10], &[1.0, 1.0]); // tap (1,1) = image (0,0)
    }
}
