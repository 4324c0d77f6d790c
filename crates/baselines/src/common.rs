//! Shared machinery for the baseline frameworks: the `Framework` trait,
//! failure modes, and a generic float-network executor parameterized by a
//! per-framework cost style.

use phonebit_core::stats::{LayerRun, RunReport};
use phonebit_gpusim::queue::CommandQueue;
use phonebit_gpusim::{KernelProfile, Phone};
use phonebit_nn::act::Activation;
use phonebit_nn::graph::{LayerInfo, LayerSpec, LayerWeights, NetworkArch, NetworkDef, PoolKind};
use phonebit_nn::kernels::{dense, fconv, pool};
use phonebit_tensor::shape::{ConvGeometry, Layout, Shape4};
use phonebit_tensor::tensor::Tensor;

/// Failure modes of the baseline frameworks — the OOM and CRASH cells of
/// Table III, as values rather than aborts.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameworkError {
    /// The framework's working set exceeds the phone's app budget.
    OutOfMemory {
        /// Bytes the framework would need.
        needed: usize,
        /// The phone's budget in bytes.
        budget: usize,
    },
    /// The GPU delegate rejected an operator and took the process down
    /// (TFLite GPU on AlexNet/VGG16 in Table III).
    DelegateCrash {
        /// Layer that triggered the crash.
        layer: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl FrameworkError {
    /// The cell text Table III uses for this failure.
    pub fn cell(&self) -> &'static str {
        match self {
            FrameworkError::OutOfMemory { .. } => "OOM",
            FrameworkError::DelegateCrash { .. } => "CRASH",
        }
    }
}

impl std::fmt::Display for FrameworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameworkError::OutOfMemory { needed, budget } => {
                write!(
                    f,
                    "out of memory: needs {} MiB, budget {} MiB",
                    needed >> 20,
                    budget >> 20
                )
            }
            FrameworkError::DelegateCrash { layer, reason } => {
                write!(f, "delegate crash at {layer}: {reason}")
            }
        }
    }
}

impl std::error::Error for FrameworkError {}

/// A baseline inference framework.
pub trait Framework {
    /// Display name (Table III column).
    fn label(&self) -> String;

    /// Runs a full-precision checkpoint functionally, producing outputs and
    /// modeled timing.
    ///
    /// # Errors
    ///
    /// Returns the framework's failure mode (OOM/CRASH) when the model
    /// cannot run, exactly as Table III reports.
    fn run(
        &self,
        phone: &Phone,
        def: &NetworkDef,
        input: &Tensor<f32>,
    ) -> Result<RunReport, FrameworkError>;

    /// Models timing for an architecture at full scale without weights.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Framework::run`].
    fn estimate(&self, phone: &Phone, arch: &NetworkArch) -> Result<RunReport, FrameworkError>;
}

/// Per-framework cost accounting: how each layer type hits the memory
/// system and ALUs.
pub trait CostStyle {
    /// Profile of one convolution layer.
    fn conv(&self, info: &LayerInfo, geom: &ConvGeometry, act: Activation) -> KernelProfile;
    /// Profile of one pooling layer.
    fn pool(&self, info: &LayerInfo, window: usize) -> KernelProfile;
    /// Profile of one dense layer.
    fn dense(&self, info: &LayerInfo, act: Activation) -> KernelProfile;
    /// Profile of the softmax epilogue.
    fn softmax(&self, features: usize) -> KernelProfile {
        phonebit_nn::kernels::profiles::softmax(features)
    }
}

/// Dispatches the profile sequence of a float network without computing
/// (estimate path shared by all baselines).
pub fn estimate_float(
    queue: &mut CommandQueue,
    arch: &NetworkArch,
    style: &dyn CostStyle,
) -> Vec<LayerRun> {
    queue.host_delay(queue.per_run_overhead_s());
    let infos = arch.infer();
    let mut per_layer = Vec::with_capacity(arch.layers.len());
    for (layer, info) in arch.layers.iter().zip(infos.iter()) {
        let t0 = queue.elapsed_s();
        let e0 = queue.timeline().len();
        match layer {
            LayerSpec::Conv(c) => {
                queue.launch(style.conv(info, &c.geom, c.activation), || {});
            }
            LayerSpec::Pool(p) => {
                queue.launch(style.pool(info, p.size), || {});
            }
            LayerSpec::Dense(d) => {
                queue.launch(style.dense(info, d.activation), || {});
            }
            LayerSpec::Softmax => {
                queue.launch(style.softmax(info.input.c), || {});
            }
        }
        let energy_j: f64 = queue.timeline()[e0..]
            .iter()
            .map(|e| e.stats.energy_j)
            .sum();
        per_layer.push(LayerRun {
            name: layer.name().into(),
            output_shape: info.output,
            time_s: queue.elapsed_s() - t0,
            energy_j,
        });
    }
    per_layer
}

/// Runs a float network functionally with per-framework cost profiles.
///
/// Weight transformation (`map_weights`) lets the quantized executor inject
/// quantize→dequantize noise while sharing this loop.
pub fn execute_float(
    queue: &mut CommandQueue,
    def: &NetworkDef,
    input: &Tensor<f32>,
    style: &dyn CostStyle,
    map_weights: &dyn Fn(&[f32]) -> Vec<f32>,
) -> (Tensor<f32>, Vec<LayerRun>) {
    def.validate();
    queue.host_delay(queue.per_run_overhead_s());
    let infos = def.arch.infer();
    let mut cur = input.clone();
    let mut per_layer = Vec::with_capacity(def.arch.layers.len());
    for ((layer, weights), info) in def
        .arch
        .layers
        .iter()
        .zip(def.weights.iter())
        .zip(infos.iter())
    {
        let t0 = queue.elapsed_s();
        let e0 = queue.timeline().len();
        cur = match (layer, weights) {
            (LayerSpec::Conv(c), LayerWeights::Conv(w)) => {
                let mut filters = w.filters.clone();
                let mapped = map_weights(filters.as_slice());
                filters.as_mut_slice().copy_from_slice(&mapped);
                let mut out = Tensor::<f32>::zeros(info.output, Layout::Nhwc);
                // Fold batch-norm into the functional path when present
                // (baselines run BN in float after the conv).
                queue.launch(style.conv(info, &c.geom, c.activation), || {
                    fconv::compute_fconv(
                        &cur,
                        &fconv::FloatBank::new(&filters),
                        &w.bias,
                        Activation::Linear,
                        &c.geom,
                        &mut out,
                    );
                    if let Some(bn) = &w.bn {
                        let s = out.shape();
                        for p in 0..s.pixels() {
                            for ch in 0..s.c {
                                let idx = p * s.c + ch;
                                let v = out.as_slice()[idx];
                                out.as_mut_slice()[idx] = bn.apply(ch, v);
                            }
                        }
                    }
                    c.activation.apply_slice(out.as_mut_slice());
                });
                out
            }
            (LayerSpec::Pool(p), LayerWeights::None) => {
                let geom = pool::PoolGeometry::new(p.size, p.stride);
                let mut out = Tensor::<f32>::zeros(info.output, Layout::Nhwc);
                queue.launch(style.pool(info, p.size), || match p.kind {
                    PoolKind::Max => pool::compute_maxpool_f32(&cur, &geom, &mut out),
                    PoolKind::Avg => pool::compute_avgpool_f32(&cur, &geom, &mut out),
                });
                out
            }
            (LayerSpec::Dense(d), LayerWeights::Dense(w)) => {
                let mapped = map_weights(&w.weights);
                let s = cur.shape();
                let features = s.h * s.w * s.c;
                let flat = cur.clone().into_vec();
                let mut out_all = vec![0.0f32; s.n * d.out_features];
                queue.launch(style.dense(info, d.activation), || {
                    for n in 0..s.n {
                        let row = &flat[n * features..(n + 1) * features];
                        let mut y = vec![0.0f32; d.out_features];
                        dense::compute_dense_float(
                            row,
                            &mapped,
                            &w.bias,
                            Activation::Linear,
                            &mut y,
                        );
                        if let Some(bn) = &w.bn {
                            for (ch, v) in y.iter_mut().enumerate() {
                                *v = bn.apply(ch, *v);
                            }
                        }
                        d.activation.apply_slice(&mut y);
                        out_all[n * d.out_features..(n + 1) * d.out_features].copy_from_slice(&y);
                    }
                });
                Tensor::from_vec(
                    Shape4::new(s.n, 1, 1, d.out_features),
                    Layout::Nhwc,
                    out_all,
                )
            }
            (LayerSpec::Softmax, LayerWeights::None) => {
                let mut t = cur.clone();
                let s = t.shape();
                let features = s.h * s.w * s.c;
                queue.launch(style.softmax(features), || {
                    let data = t.as_mut_slice();
                    for n in 0..s.n {
                        phonebit_nn::act::softmax(&mut data[n * features..(n + 1) * features]);
                    }
                });
                t
            }
            (spec, w) => panic!("inconsistent layer/weights: {spec:?} vs {w:?}"),
        };
        let energy_j: f64 = queue.timeline()[e0..]
            .iter()
            .map(|e| e.stats.energy_j)
            .sum();
        per_layer.push(LayerRun {
            name: layer.name().into(),
            output_shape: info.output,
            time_s: queue.elapsed_s() - t0,
            energy_j,
        });
    }
    (cur, per_layer)
}

/// Assembles a [`RunReport`] from a finished queue and per-layer runs.
pub fn report_from(
    label: &str,
    queue: &CommandQueue,
    per_layer: Vec<LayerRun>,
    peak_bytes: usize,
    output: Option<Tensor<f32>>,
) -> RunReport {
    RunReport {
        model: label.to_string(),
        total_s: queue.elapsed_s(),
        energy_j: queue.energy_j(),
        peak_bytes,
        per_layer,
        output: output.map(phonebit_core::engine::ActivationData::Floats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_cells_match_table3_vocabulary() {
        let oom = FrameworkError::OutOfMemory {
            needed: 2 << 30,
            budget: 1 << 30,
        };
        assert_eq!(oom.cell(), "OOM");
        let crash = FrameworkError::DelegateCrash {
            layer: "fc6".into(),
            reason: "x".into(),
        };
        assert_eq!(crash.cell(), "CRASH");
        assert!(oom.to_string().contains("MiB"));
        assert!(crash.to_string().contains("fc6"));
    }
}
