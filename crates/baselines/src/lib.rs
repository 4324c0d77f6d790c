//! # phonebit-baselines
//!
//! The mobile inference frameworks PhoneBit is compared against in the
//! paper's Table III/IV: a CNNdroid-like RenderScript CPU/GPU executor and
//! a TensorFlow-Lite-like framework (CPU float, GPU fp16 delegate, CPU
//! int8 quantized).
//!
//! All baselines implement [`common::Framework`]: functional `run` on real
//! weights and full-scale `estimate` from shapes, both returning
//! `Result<RunReport, FrameworkError>` so the paper's OOM and CRASH cells
//! are ordinary values.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cnndroid;
pub mod common;
pub mod tflite;

pub use cnndroid::CnnDroid;
pub use common::{Framework, FrameworkError};
pub use tflite::TfLite;
