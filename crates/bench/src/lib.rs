//! # phonebit-bench
//!
//! Benchmark harnesses that regenerate every table and figure of the
//! PhoneBit paper on the simulated testbed, printing measured values next
//! to the paper's reported numbers:
//!
//! - `table1` — the evaluation devices (Table I).
//! - `table2` — model size + accuracy (Table II), including the
//!   `phonebit-train` accuracy-gap experiment.
//! - `table3` — runtime grid: 2 phones x 3 models x 6 frameworks, with the
//!   paper's OOM/CRASH cells (Table III).
//! - `table4` — power and FPS/W for YOLOv2-Tiny on Snapdragon 820
//!   (Table IV).
//! - `figure5` — per-layer PhoneBit-vs-CNNdroid speedups for YOLOv2-Tiny
//!   (Fig 5).
//! - `ablation` — design-choice ablations DESIGN.md calls out (layer
//!   integration, branch divergence, latency hiding, vector width,
//!   workload policy, data layout).
//!
//! Criterion microbenches (`benches/`) measure real host wall-clock of the
//! bit-level kernels: packing, xnor-popcount dot products, fused binary
//! convolution, vector widths and full layers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod harness;
pub mod paper;
