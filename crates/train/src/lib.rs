//! # phonebit-train
//!
//! A from-scratch binary-neural-network training substrate: latent-weight
//! binarization with the straight-through estimator (Courbariaux et al.,
//! the paper's reference \[3\]), hand-rolled backprop (dense, batch-norm,
//! sign/ReLU), SGD with momentum, and a synthetic classification task.
//!
//! Its single job in this reproduction: demonstrate the Table II accuracy
//! gap — a binarized network trains to slightly lower accuracy than its
//! float twin — since the paper's CIFAR-10/VOC checkpoints cannot be
//! retrained here (see DESIGN.md, substitutions).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conv;
pub mod data;
pub mod matrix;
pub mod net;
pub mod trainer;

pub use data::{cluster_dataset, Dataset};
pub use trainer::{
    accuracy_gap_experiment, train, train_convnet, ConvNet, TrainConfig, TrainOutcome,
};
