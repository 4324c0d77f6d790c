//! # phonebit-models
//!
//! The model zoo of the PhoneBit reproduction: the paper's three benchmark
//! networks (AlexNet, YOLOv2-Tiny, VGG16) in binary and full-precision
//! variants, scaled-down test variants, seeded synthetic weights and
//! images, Table II size analytics, and YOLO detection decoding.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod scene;
pub mod size;
pub mod synth;
pub mod yolo;
pub mod zoo;

pub use synth::{fill_weights, fill_weights_clustered, synthetic_image, to_float_input};
pub use zoo::{alexnet, alexnet_micro, vgg16, yolo_micro, yolov2_tiny, Variant};
