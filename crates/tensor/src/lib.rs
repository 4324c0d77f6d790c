//! # phonebit-tensor
//!
//! Tensor substrate for the PhoneBit binary-neural-network engine
//! (reproduction of Chen et al., *PhoneBit*, DATE 2020).
//!
//! This crate provides the data representations every other crate builds on:
//!
//! - [`shape`] — rank-4 shapes, NHWC/NCHW layouts, convolution geometry.
//! - [`tensor`] — dense host tensors over `f32`/`i32`/`i8`/`u8`.
//! - [`bits`] — channel-packed binary tensors and the xor/popcount dot
//!   products of the paper's Eqn (1).
//! - [`dict`] — dictionary-compressed filter banks (unique tap rows +
//!   narrow indices) behind the [`dict::FilterAccess`] read interface.
//! - [`lanes`] — filter-interleaved banks ([`lanes::LaneBank`]): the staged
//!   layout whose vector lanes are output channels.
//! - [`pack`] — binarization (sign at 0) and packing/unpacking.
//! - [`bitplane`] — 8-bit input decomposition for the first layer (Eqn (2)).
//! - [`pad`] — float padding with an explicit fill (the test reference).
//! - [`im2col`] — window unrolling for the GEMM-based baseline.
//! - [`quant`] — affine int8 weight quantization for the TFLite-Quant
//!   baseline.
//!
//! # Examples
//!
//! Pack a float activation tensor and take a binary dot product:
//!
//! ```
//! use phonebit_tensor::{Tensor, shape::Shape4, pack::pack_f32, bits::dot_pm1};
//!
//! let a = Tensor::from_fn(Shape4::new(1, 1, 1, 64), |_, _, _, c| if c % 2 == 0 { 1.0 } else { -1.0 });
//! let b = Tensor::from_fn(Shape4::new(1, 1, 1, 64), |_, _, _, _| 1.0);
//! let pa = pack_f32::<u64>(&a);
//! let pb = pack_f32::<u64>(&b);
//! // 32 agreements, 32 disagreements.
//! assert_eq!(dot_pm1(pa.pixel_words(0, 0, 0), pb.pixel_words(0, 0, 0), 64), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitplane;
pub mod bits;
pub mod dict;
pub mod im2col;
pub mod lanes;
pub mod pack;
pub mod pad;
pub mod quant;
pub mod shape;
pub mod tensor;

pub use bits::{BitTensor, PackWidth, PackedFilters};
pub use dict::{FilterAccess, FilterDict};
pub use shape::{ConvGeometry, FilterShape, Layout, Shape4};
pub use tensor::{Filters, Tensor};
