//! # PhoneBit
//!
//! A GPU-accelerated binary neural network (BNN) inference engine for mobile
//! phones — a from-scratch Rust reproduction of Chen, He, Meng & Huang,
//! *"PhoneBit: Efficient GPU-Accelerated Binary Neural Network Inference
//! Engine for Mobile Phones"*, DATE 2020 (arXiv:1912.04050).
//!
//! This facade crate re-exports the whole workspace. See `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for paper-vs-measured results.

#![forbid(unsafe_code)]

pub use phonebit_baselines as baselines;
pub use phonebit_core as core;
pub use phonebit_gpusim as gpusim;
pub use phonebit_models as models;
pub use phonebit_nn as nn;
pub use phonebit_profiler as profiler;
pub use phonebit_tensor as tensor;
pub use phonebit_train as train;
