//! Dense rank-4 tensors over primitive element types.
//!
//! These are host-side tensors: the simulator's device buffers
//! (`phonebit-gpusim`) copy in and out of them. Layout conversion between
//! NHWC and NCHW is explicit so the cost of the baselines' layout choice can
//! be studied rather than hidden.

use std::borrow::Cow;

use crate::shape::{Layout, Shape4};

/// Element types storable in a [`Tensor`].
///
/// This trait is sealed in spirit: it is implemented for exactly the
/// primitive types the engine needs (`f32`, `i32`, `i8`, `u8`).
pub trait Element: Copy + Default + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Human-readable element type name used in error messages.
    const NAME: &'static str;
}

impl Element for f32 {
    const NAME: &'static str = "f32";
}
impl Element for i32 {
    const NAME: &'static str = "i32";
}
impl Element for i8 {
    const NAME: &'static str = "i8";
}
impl Element for u8 {
    const NAME: &'static str = "u8";
}

/// A dense rank-4 tensor with an explicit memory [`Layout`].
///
/// # Examples
///
/// ```
/// use phonebit_tensor::{Tensor, shape::{Shape4, Layout}};
/// let mut t = Tensor::<f32>::zeros(Shape4::new(1, 2, 2, 3), Layout::Nhwc);
/// t.set(0, 1, 1, 2, 7.0);
/// assert_eq!(t.at(0, 1, 1, 2), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor<T: Element> {
    shape: Shape4,
    layout: Layout,
    data: Vec<T>,
}

impl<T: Element> Tensor<T> {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape4, layout: Layout) -> Self {
        Self {
            shape,
            layout,
            data: vec![T::default(); shape.len()],
        }
    }

    /// Creates a tensor from an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape4, layout: Layout, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "buffer of {} {} elements does not match shape {shape}",
            data.len(),
            T::NAME
        );
        Self {
            shape,
            layout,
            data,
        }
    }

    /// Builds an NHWC tensor by evaluating `f(n, h, w, c)` at every site.
    pub fn from_fn(shape: Shape4, mut f: impl FnMut(usize, usize, usize, usize) -> T) -> Self {
        let mut t = Self::zeros(shape, Layout::Nhwc);
        for n in 0..shape.n {
            for h in 0..shape.h {
                for w in 0..shape.w {
                    for c in 0..shape.c {
                        t.set(n, h, w, c, f(n, h, w, c));
                    }
                }
            }
        }
        t
    }

    /// The logical shape.
    pub fn shape(&self) -> Shape4 {
        self.shape
    }

    /// Re-shapes the tensor to `shape`/`layout` with every element reset to
    /// the default value, reusing the existing storage. When the new length
    /// fits the buffer's capacity this performs **no heap allocation** —
    /// the primitive behind the engine's arena slots.
    pub fn reset(&mut self, shape: Shape4, layout: Layout) {
        self.data.clear();
        self.reset_for_overwrite(shape, layout);
    }

    /// [`Tensor::reset`] for a caller that stores every element itself:
    /// stale contents are kept, not reset first (only growth is defaulted).
    pub fn reset_for_overwrite(&mut self, shape: Shape4, layout: Layout) {
        self.shape = shape;
        self.layout = layout;
        self.data.resize(shape.len(), T::default());
    }

    /// The physical layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Raw data slice in physical order.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw data slice in physical order.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Element at `(n, h, w, c)`.
    #[inline]
    pub fn at(&self, n: usize, h: usize, w: usize, c: usize) -> T {
        self.data[self.shape.index(self.layout, n, h, w, c)]
    }

    /// Writes the element at `(n, h, w, c)`.
    #[inline]
    pub fn set(&mut self, n: usize, h: usize, w: usize, c: usize, v: T) {
        let i = self.shape.index(self.layout, n, h, w, c);
        self.data[i] = v;
    }

    /// Returns a copy converted to the requested layout.
    ///
    /// A no-op copy when the layout already matches.
    pub fn to_layout(&self, layout: Layout) -> Self {
        if layout == self.layout {
            return self.clone();
        }
        let mut out = Self::zeros(self.shape, layout);
        let s = self.shape;
        for n in 0..s.n {
            for h in 0..s.h {
                for w in 0..s.w {
                    for c in 0..s.c {
                        out.set(n, h, w, c, self.at(n, h, w, c));
                    }
                }
            }
        }
        out
    }

    /// The tensor in NHWC: itself when it already is, else a converted copy
    /// — for kernels that walk contiguous channel runs.
    pub fn nhwc(&self) -> Cow<'_, Self> {
        match self.layout {
            Layout::Nhwc => Cow::Borrowed(self),
            Layout::Nchw => Cow::Owned(self.to_layout(Layout::Nhwc)),
        }
    }

    /// Iterates over `((n, h, w, c), value)` in logical NHWC order.
    pub fn iter_indexed(&self) -> impl Iterator<Item = ((usize, usize, usize, usize), T)> + '_ {
        let s = self.shape;
        (0..s.n).flat_map(move |n| {
            (0..s.h).flat_map(move |h| {
                (0..s.w)
                    .flat_map(move |w| (0..s.c).map(move |c| ((n, h, w, c), self.at(n, h, w, c))))
            })
        })
    }

    /// Bytes occupied by the payload.
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }
}

impl Tensor<f32> {
    /// Maximum absolute difference against another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Self) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in max_abs_diff");
        let mut m = 0.0f32;
        let s = self.shape;
        for n in 0..s.n {
            for h in 0..s.h {
                for w in 0..s.w {
                    for c in 0..s.c {
                        m = m.max((self.at(n, h, w, c) - other.at(n, h, w, c)).abs());
                    }
                }
            }
        }
        m
    }

    /// Binarizes to the sign convention of the paper's Eqn (7):
    /// `+1` when the value is `>= 0`, `-1` otherwise, kept as floats.
    pub fn signum_pm1(&self) -> Self {
        let mut out = self.clone();
        for v in out.as_mut_slice() {
            *v = if *v >= 0.0 { 1.0 } else { -1.0 };
        }
        out
    }
}

/// Weight bank for a convolution/dense layer: `k` filters, channel innermost.
///
/// This is the float-precision "trained checkpoint" representation that the
/// converter binarizes into packed form.
#[derive(Debug, Clone, PartialEq)]
pub struct Filters {
    shape: crate::shape::FilterShape,
    data: Vec<f32>,
}

impl Filters {
    /// Creates a zero-filled filter bank.
    pub fn zeros(shape: crate::shape::FilterShape) -> Self {
        Self {
            shape,
            data: vec![0.0; shape.len()],
        }
    }

    /// Creates a filter bank from raw data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: crate::shape::FilterShape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "filter buffer does not match {shape}"
        );
        Self { shape, data }
    }

    /// Builds filters by evaluating `f(k, i, j, c)` at every tap.
    pub fn from_fn(
        shape: crate::shape::FilterShape,
        mut f: impl FnMut(usize, usize, usize, usize) -> f32,
    ) -> Self {
        let mut w = Self::zeros(shape);
        for k in 0..shape.k {
            for i in 0..shape.kh {
                for j in 0..shape.kw {
                    for c in 0..shape.c {
                        w.set(k, i, j, c, f(k, i, j, c));
                    }
                }
            }
        }
        w
    }

    /// The filter-bank shape.
    pub fn shape(&self) -> crate::shape::FilterShape {
        self.shape
    }

    /// Weight at `(k, i, j, c)`.
    #[inline]
    pub fn at(&self, k: usize, i: usize, j: usize, c: usize) -> f32 {
        self.data[self.shape.index(k, i, j, c)]
    }

    /// Writes the weight at `(k, i, j, c)`.
    #[inline]
    pub fn set(&mut self, k: usize, i: usize, j: usize, c: usize, v: f32) {
        let idx = self.shape.index(k, i, j, c);
        self.data[idx] = v;
    }

    /// Raw weights in physical order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw weights in physical order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One filter as a contiguous slice of length `filter_len()`.
    pub fn filter(&self, k: usize) -> &[f32] {
        let fl = self.shape.filter_len();
        &self.data[k * fl..(k + 1) * fl]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::FilterShape;

    #[test]
    fn zeros_and_set_get() {
        let mut t = Tensor::<i32>::zeros(Shape4::new(1, 3, 3, 2), Layout::Nhwc);
        assert_eq!(t.at(0, 2, 2, 1), 0);
        t.set(0, 2, 2, 1, -5);
        assert_eq!(t.at(0, 2, 2, 1), -5);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        Tensor::<u8>::from_vec(Shape4::new(1, 2, 2, 2), Layout::Nhwc, vec![0; 7]);
    }

    #[test]
    fn layout_round_trip_preserves_values() {
        let t = Tensor::<f32>::from_fn(Shape4::new(2, 3, 4, 5), |n, h, w, c| {
            (n * 1000 + h * 100 + w * 10 + c) as f32
        });
        let nchw = t.to_layout(Layout::Nchw);
        assert_eq!(nchw.layout(), Layout::Nchw);
        // Logical values identical, physical order different.
        assert_ne!(t.as_slice(), nchw.as_slice());
        let back = nchw.to_layout(Layout::Nhwc);
        assert_eq!(t, back);
    }

    #[test]
    fn iter_indexed_covers_all() {
        let t = Tensor::<u8>::from_fn(Shape4::new(1, 2, 2, 2), |_, h, w, c| {
            (h * 4 + w * 2 + c) as u8
        });
        let collected: Vec<u8> = t.iter_indexed().map(|(_, v)| v).collect();
        assert_eq!(collected, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn signum_pm1_thresholds_at_zero() {
        let t = Tensor::<f32>::from_vec(
            Shape4::new(1, 1, 1, 4),
            Layout::Nhwc,
            vec![-0.5, 0.0, 0.5, -0.0],
        );
        // IEEE -0.0 >= 0.0 is true, so -0.0 binarizes to +1 like the paper's
        // `isless` based check would.
        assert_eq!(t.signum_pm1().as_slice(), &[-1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn max_abs_diff_reports_peak() {
        let a = Tensor::<f32>::from_vec(Shape4::new(1, 1, 2, 1), Layout::Nhwc, vec![1.0, 2.0]);
        let b = Tensor::<f32>::from_vec(Shape4::new(1, 1, 2, 1), Layout::Nhwc, vec![1.5, -1.0]);
        assert_eq!(a.max_abs_diff(&b), 3.0);
    }

    #[test]
    fn filters_accessors() {
        let mut w = Filters::zeros(FilterShape::new(2, 1, 1, 3));
        w.set(1, 0, 0, 2, 9.0);
        assert_eq!(w.at(1, 0, 0, 2), 9.0);
        assert_eq!(w.filter(0), &[0.0, 0.0, 0.0]);
        assert_eq!(w.filter(1), &[0.0, 0.0, 9.0]);
    }

    #[test]
    fn byte_len_accounts_element_size() {
        let t = Tensor::<f32>::zeros(Shape4::new(1, 2, 2, 2), Layout::Nhwc);
        assert_eq!(t.byte_len(), 8 * 4);
        let t = Tensor::<u8>::zeros(Shape4::new(1, 2, 2, 2), Layout::Nhwc);
        assert_eq!(t.byte_len(), 8);
    }
}
