//! Tensor shapes, memory layouts and stride arithmetic.
//!
//! PhoneBit stores activations in **NHWC** ("locality-friendly data layout",
//! paper §V-A.1) so that the channel dimension — along which bits are packed —
//! is innermost and contiguous. The baselines use **NCHW** (Caffe/Torch
//! default), which is also supported so the layout ablation can compare both.

use std::fmt;

/// Memory layout of a rank-4 activation tensor.
///
/// # Examples
///
/// ```
/// use phonebit_tensor::shape::Layout;
/// assert_ne!(Layout::Nhwc, Layout::Nchw);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Layout {
    /// Batch, height, width, channel — channel innermost (PhoneBit layout).
    #[default]
    Nhwc,
    /// Batch, channel, height, width — width innermost (Caffe/Torch layout).
    Nchw,
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layout::Nhwc => write!(f, "NHWC"),
            Layout::Nchw => write!(f, "NCHW"),
        }
    }
}

/// Logical shape of a rank-4 tensor, independent of memory layout.
///
/// Dimensions are always named `(n, h, w, c)` regardless of how the backing
/// buffer is laid out; [`Layout`] decides the physical order.
///
/// # Examples
///
/// ```
/// use phonebit_tensor::shape::Shape4;
/// let s = Shape4::new(1, 32, 32, 16);
/// assert_eq!(s.len(), 32 * 32 * 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape4 {
    /// Batch size.
    pub n: usize,
    /// Spatial height.
    pub h: usize,
    /// Spatial width.
    pub w: usize,
    /// Channel count.
    pub c: usize,
}

impl Shape4 {
    /// Creates a shape from its four extents.
    pub fn new(n: usize, h: usize, w: usize, c: usize) -> Self {
        Self { n, h, w, c }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.n * self.h * self.w * self.c
    }

    /// Whether the shape contains no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of spatial positions (`n * h * w`), i.e. pixels across batch.
    pub fn pixels(&self) -> usize {
        self.n * self.h * self.w
    }

    /// Linear index of `(n, h, w, c)` under the given layout.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any coordinate is out of bounds.
    #[inline]
    pub fn index(&self, layout: Layout, n: usize, h: usize, w: usize, c: usize) -> usize {
        debug_assert!(
            n < self.n && h < self.h && w < self.w && c < self.c,
            "index ({n},{h},{w},{c}) out of bounds for {self}"
        );
        match layout {
            Layout::Nhwc => ((n * self.h + h) * self.w + w) * self.c + c,
            Layout::Nchw => ((n * self.c + c) * self.h + h) * self.w + w,
        }
    }
}

impl fmt::Display for Shape4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}x{}x{}x{}]", self.n, self.h, self.w, self.c)
    }
}

/// Shape of a convolution filter bank: `k` filters of `kh x kw x c`.
///
/// Filters are stored with the input-channel dimension innermost so binary
/// weight packing along channels is contiguous, mirroring activation packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FilterShape {
    /// Number of filters (output channels).
    pub k: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Input channels.
    pub c: usize,
}

impl FilterShape {
    /// Creates a filter shape.
    pub fn new(k: usize, kh: usize, kw: usize, c: usize) -> Self {
        Self { k, kh, kw, c }
    }

    /// Elements in one filter.
    pub fn filter_len(&self) -> usize {
        self.kh * self.kw * self.c
    }

    /// Total elements across all filters.
    pub fn len(&self) -> usize {
        self.k * self.filter_len()
    }

    /// Whether the filter bank is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear index of `(k, kh, kw, c)` in K-major, channel-innermost order.
    #[inline]
    pub fn index(&self, k: usize, i: usize, j: usize, c: usize) -> usize {
        debug_assert!(k < self.k && i < self.kh && j < self.kw && c < self.c);
        ((k * self.kh + i) * self.kw + j) * self.c + c
    }
}

impl fmt::Display for FilterShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}x{}x{}x{}]", self.k, self.kh, self.kw, self.c)
    }
}

/// Convolution geometry: kernel, stride and symmetric zero padding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical stride.
    pub stride_h: usize,
    /// Horizontal stride.
    pub stride_w: usize,
    /// Padding rows added at top and bottom.
    pub pad_h: usize,
    /// Padding columns added at left and right.
    pub pad_w: usize,
}

impl ConvGeometry {
    /// Square kernel with equal stride and padding on both axes.
    pub fn square(k: usize, stride: usize, pad: usize) -> Self {
        Self {
            kh: k,
            kw: k,
            stride_h: stride,
            stride_w: stride,
            pad_h: pad,
            pad_w: pad,
        }
    }

    /// Output spatial size for an input of `h x w`.
    ///
    /// Uses the standard floor formula `(in + 2*pad - k) / stride + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel does not fit in the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let ph = h + 2 * self.pad_h;
        let pw = w + 2 * self.pad_w;
        assert!(
            ph >= self.kh && pw >= self.kw,
            "kernel {}x{} does not fit padded input {}x{}",
            self.kh,
            self.kw,
            ph,
            pw
        );
        (
            (ph - self.kh) / self.stride_h + 1,
            (pw - self.kw) / self.stride_w + 1,
        )
    }

    /// Whether this is a pointwise (1x1, stride-1, unpadded) convolution —
    /// the case where a bit-im2col "window row" aliases the input pixel row
    /// exactly, so the GEMM lowering needs no materialization.
    pub fn is_pointwise(&self) -> bool {
        self.kh == 1
            && self.kw == 1
            && self.stride_h == 1
            && self.stride_w == 1
            && self.pad_h == 0
            && self.pad_w == 0
    }

    /// Number of multiply-accumulate positions per output element per channel.
    pub fn taps(&self) -> usize {
        self.kh * self.kw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_len_and_pixels() {
        let s = Shape4::new(2, 4, 5, 3);
        assert_eq!(s.len(), 120);
        assert_eq!(s.pixels(), 40);
        assert!(!s.is_empty());
        assert!(Shape4::new(0, 4, 5, 3).is_empty());
    }

    #[test]
    fn nhwc_channel_is_innermost() {
        let s = Shape4::new(1, 2, 2, 4);
        let a = s.index(Layout::Nhwc, 0, 1, 1, 0);
        let b = s.index(Layout::Nhwc, 0, 1, 1, 1);
        assert_eq!(b, a + 1);
    }

    #[test]
    fn nchw_width_is_innermost() {
        let s = Shape4::new(1, 2, 3, 4);
        let a = s.index(Layout::Nchw, 0, 1, 1, 2);
        let b = s.index(Layout::Nchw, 0, 1, 2, 2);
        assert_eq!(b, a + 1);
    }

    #[test]
    fn layouts_enumerate_all_elements() {
        let s = Shape4::new(2, 3, 4, 5);
        for layout in [Layout::Nhwc, Layout::Nchw] {
            let mut seen = vec![false; s.len()];
            for n in 0..s.n {
                for h in 0..s.h {
                    for w in 0..s.w {
                        for c in 0..s.c {
                            let i = s.index(layout, n, h, w, c);
                            assert!(!seen[i], "duplicate index under {layout}");
                            seen[i] = true;
                        }
                    }
                }
            }
            assert!(seen.iter().all(|&b| b));
        }
    }

    #[test]
    fn strides_match_index() {
        // Strides (in elements) of each logical dimension `(n, h, w, c)`.
        fn strides(s: Shape4, layout: Layout) -> [usize; 4] {
            match layout {
                Layout::Nhwc => [s.h * s.w * s.c, s.w * s.c, s.c, 1],
                Layout::Nchw => [s.c * s.h * s.w, s.w, 1, s.h * s.w],
            }
        }
        let s = Shape4::new(2, 3, 4, 5);
        for layout in [Layout::Nhwc, Layout::Nchw] {
            let st = strides(s, layout);
            for (n, h, w, c) in [(0, 0, 0, 0), (1, 2, 3, 4), (1, 0, 2, 1)] {
                let via_strides = n * st[0] + h * st[1] + w * st[2] + c * st[3];
                assert_eq!(via_strides, s.index(layout, n, h, w, c));
            }
        }
    }

    #[test]
    fn conv_output_size() {
        // 3x3 stride-1 pad-1 "same" convolution.
        let g = ConvGeometry::square(3, 1, 1);
        assert_eq!(g.output_hw(13, 13), (13, 13));
        // 11x11 stride-4 AlexNet first layer on 227.
        let g = ConvGeometry::square(11, 4, 0);
        assert_eq!(g.output_hw(227, 227), (55, 55));
        // 2x2 stride-2 pooling geometry.
        let g = ConvGeometry::square(2, 2, 0);
        assert_eq!(g.output_hw(416, 416), (208, 208));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn conv_kernel_too_large_panics() {
        ConvGeometry::square(5, 1, 0).output_hw(3, 3);
    }

    #[test]
    fn filter_index_channel_innermost() {
        let f = FilterShape::new(8, 3, 3, 16);
        assert_eq!(f.filter_len(), 144);
        assert_eq!(f.len(), 8 * 144);
        let a = f.index(2, 1, 1, 3);
        let b = f.index(2, 1, 1, 4);
        assert_eq!(b, a + 1);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Shape4::new(1, 2, 3, 4).to_string(), "[1x2x3x4]");
        assert_eq!(FilterShape::new(8, 3, 3, 16).to_string(), "[8x3x3x16]");
        assert_eq!(Layout::Nhwc.to_string(), "NHWC");
    }
}
