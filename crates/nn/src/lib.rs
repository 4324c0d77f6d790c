//! # phonebit-nn
//!
//! Neural-network operators for the PhoneBit reproduction (Chen et al.,
//! DATE 2020): the paper's optimized binary kernels and the shared network
//! IR that the engine, the baselines and the model zoo all speak.
//!
//! - [`fuse`] — layer integration math: ξ thresholds (Eqn 3–6), the Eqn (8)
//!   decision and its branch-free Eqn (9) form.
//! - [`kernels`] — binary convolution (fused and unfused), bit-plane first
//!   layer (Eqn 2), float convolution, pooling (OR-based on packed bits),
//!   dense layers, input packing, softmax. Every kernel pairs a functional
//!   body with a cost profile from [`kernels::profiles`].
//! - [`workload`] — the 8-filters-per-thread policy and the `C ≤ 256`
//!   integration rule (§VI-B).
//! - [`graph`] — `NetworkArch`/`NetworkDef`: shape inference, MAC and
//!   parameter counting, model-size analytics for Table II.
//! - [`act`] — activations for the full-precision layers.
//!
//! # Examples
//!
//! Run one fused binary convolution on the simulated GPU:
//!
//! ```
//! use phonebit_gpusim::{CommandQueue, DeviceProfile, ExecutorClass};
//! use phonebit_nn::{fuse::FusedBn, kernels::bconv::bconv_fused};
//! use phonebit_tensor::{
//!     pack::{pack_f32, pack_filters},
//!     shape::{ConvGeometry, FilterShape, Shape4},
//!     Filters, Tensor,
//! };
//!
//! let input = Tensor::from_fn(Shape4::new(1, 8, 8, 32), |_, h, w, c| {
//!     if (h + w + c) % 2 == 0 { 1.0 } else { -1.0 }
//! });
//! let filters = Filters::from_fn(FilterShape::new(16, 3, 3, 32), |k, _, _, c| {
//!     if (k + c) % 3 == 0 { 1.0 } else { -1.0 }
//! });
//! let mut queue = CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl);
//! let out = bconv_fused(
//!     &mut queue,
//!     &pack_f32::<u64>(&input),
//!     &pack_filters::<u64>(&filters),
//!     &FusedBn::identity(16),
//!     &ConvGeometry::square(3, 1, 1),
//! );
//! assert_eq!(out.shape(), Shape4::new(1, 8, 8, 16));
//! ```

#![warn(missing_docs)]
// The workspace's only `unsafe` is the ISA dispatch in `kernels::isa`; every
// other crate forbids it outright.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod act;
pub mod fuse;
pub mod graph;
pub mod kernels;
pub mod workload;

pub use act::Activation;
pub use fuse::{BnParams, FusedBn};
pub use graph::{LayerPrecision, LayerSpec, NetworkArch, NetworkDef};
pub use workload::WorkloadPolicy;
