//! Network intermediate representation shared by the PhoneBit engine, the
//! baseline frameworks and the model zoo.
//!
//! A [`NetworkArch`] is the pure *architecture*: layer kinds, shapes and
//! precisions. It is enough for shape inference, model-size analytics
//! (Table II) and modeled timing (Table III at full scale). A
//! [`NetworkDef`] adds float weights — the "trained checkpoint" that the
//! converter binarizes into the deployable `.pbit` form.

use phonebit_tensor::shape::{ConvGeometry, FilterShape, Shape4};
use phonebit_tensor::tensor::Filters;

use crate::act::Activation;
use crate::fuse::BnParams;

/// Numeric regime of a layer's weights and activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerPrecision {
    /// Binary weights, binary input activations (xnor-popcount).
    Binary,
    /// Binary weights, 8-bit integer input split into bit-planes — the
    /// network's first layer (§III-B).
    BinaryInput8,
    /// Full-precision weights and activations — the network's last layer.
    Float,
}

/// Pooling flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolKind {
    /// Max pooling (OR on packed binary tensors).
    Max,
    /// Average pooling (float only).
    Avg,
}

/// A convolution layer description.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvSpec {
    /// Layer name, e.g. `"conv3"`.
    pub name: String,
    /// Kernel/stride/padding geometry.
    pub geom: ConvGeometry,
    /// Number of filters.
    pub out_channels: usize,
    /// Numeric regime.
    pub precision: LayerPrecision,
    /// Activation for [`LayerPrecision::Float`] layers (binary layers use
    /// binarization as their nonlinearity).
    pub activation: Activation,
    /// Whether a batch-norm follows (fused at deployment for binary layers).
    pub has_bn: bool,
}

/// A pooling layer description.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    /// Layer name, e.g. `"pool1"`.
    pub name: String,
    /// Max or average.
    pub kind: PoolKind,
    /// Window edge length.
    pub size: usize,
    /// Window stride.
    pub stride: usize,
}

/// A dense (fully connected) layer description.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseSpec {
    /// Layer name, e.g. `"fc6"`.
    pub name: String,
    /// Output features.
    pub out_features: usize,
    /// Numeric regime ([`LayerPrecision::BinaryInput8`] is not meaningful
    /// for dense layers).
    pub precision: LayerPrecision,
    /// Activation for float layers.
    pub activation: Activation,
    /// Whether a batch-norm follows.
    pub has_bn: bool,
}

/// One layer of a network.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerSpec {
    /// Convolution.
    Conv(ConvSpec),
    /// Pooling.
    Pool(PoolSpec),
    /// Fully connected.
    Dense(DenseSpec),
    /// Softmax epilogue.
    Softmax,
}

impl LayerSpec {
    /// The layer's display name.
    pub fn name(&self) -> &str {
        match self {
            LayerSpec::Conv(c) => &c.name,
            LayerSpec::Pool(p) => &p.name,
            LayerSpec::Dense(d) => &d.name,
            LayerSpec::Softmax => "softmax",
        }
    }
}

/// Shape and cost information for one layer, produced by shape inference.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerInfo {
    /// Layer index.
    pub index: usize,
    /// Layer name.
    pub name: String,
    /// Input shape.
    pub input: Shape4,
    /// Output shape.
    pub output: Shape4,
    /// Multiply-accumulate count (0 for pooling/softmax).
    pub macs: f64,
    /// Weight parameter count (excluding bias/BN).
    pub weight_params: usize,
    /// Bias + batch-norm parameter count.
    pub aux_params: usize,
}

/// A network architecture: input shape plus an ordered list of layers.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkArch {
    /// Model name, e.g. `"YOLOv2-Tiny"`.
    pub name: String,
    /// Input shape (batch is usually 1 on mobile).
    pub input: Shape4,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
}

impl NetworkArch {
    /// Creates an empty architecture for the given input shape.
    pub fn new(name: impl Into<String>, input: Shape4) -> Self {
        Self {
            name: name.into(),
            input,
            layers: Vec::new(),
        }
    }

    /// Appends a convolution layer (builder style).
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        mut self,
        name: &str,
        k: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        precision: LayerPrecision,
        activation: Activation,
    ) -> Self {
        self.layers.push(LayerSpec::Conv(ConvSpec {
            name: name.into(),
            geom: ConvGeometry::square(kernel, stride, pad),
            out_channels: k,
            precision,
            activation,
            has_bn: precision != LayerPrecision::Float,
        }));
        self
    }

    /// Appends a max-pool layer (builder style).
    pub fn maxpool(mut self, name: &str, size: usize, stride: usize) -> Self {
        self.layers.push(LayerSpec::Pool(PoolSpec {
            name: name.into(),
            kind: PoolKind::Max,
            size,
            stride,
        }));
        self
    }

    /// Appends a dense layer (builder style).
    pub fn dense(
        mut self,
        name: &str,
        out_features: usize,
        precision: LayerPrecision,
        activation: Activation,
    ) -> Self {
        self.layers.push(LayerSpec::Dense(DenseSpec {
            name: name.into(),
            out_features,
            precision,
            activation,
            has_bn: precision != LayerPrecision::Float,
        }));
        self
    }

    /// Appends a softmax epilogue (builder style).
    pub fn softmax(mut self) -> Self {
        self.layers.push(LayerSpec::Softmax);
        self
    }

    /// Runs shape inference, returning per-layer shapes, MAC counts and
    /// parameter counts.
    ///
    /// # Panics
    ///
    /// Panics if a layer cannot be applied to its input shape.
    pub fn infer(&self) -> Vec<LayerInfo> {
        let mut cur = self.input;
        let mut out = Vec::with_capacity(self.layers.len());
        for (index, layer) in self.layers.iter().enumerate() {
            let info = match layer {
                LayerSpec::Conv(c) => {
                    let (oh, ow) = c.geom.output_hw(cur.h, cur.w);
                    let output = Shape4::new(cur.n, oh, ow, c.out_channels);
                    let macs = output.pixels() as f64
                        * c.out_channels as f64
                        * c.geom.taps() as f64
                        * cur.c as f64;
                    let weight_params = c.out_channels * c.geom.taps() * cur.c;
                    let aux = c.out_channels + if c.has_bn { 4 * c.out_channels } else { 0 };
                    LayerInfo {
                        index,
                        name: c.name.clone(),
                        input: cur,
                        output,
                        macs,
                        weight_params,
                        aux_params: aux,
                    }
                }
                LayerSpec::Pool(p) => {
                    let (oh, ow) =
                        ConvGeometry::square(p.size, p.stride, 0).output_hw(cur.h, cur.w);
                    let output = Shape4::new(cur.n, oh, ow, cur.c);
                    LayerInfo {
                        index,
                        name: p.name.clone(),
                        input: cur,
                        output,
                        macs: 0.0,
                        weight_params: 0,
                        aux_params: 0,
                    }
                }
                LayerSpec::Dense(d) => {
                    let in_features = cur.h * cur.w * cur.c;
                    let output = Shape4::new(cur.n, 1, 1, d.out_features);
                    let macs = (in_features * d.out_features) as f64;
                    let aux = d.out_features + if d.has_bn { 4 * d.out_features } else { 0 };
                    LayerInfo {
                        index,
                        name: d.name.clone(),
                        input: cur,
                        output,
                        macs,
                        weight_params: in_features * d.out_features,
                        aux_params: aux,
                    }
                }
                LayerSpec::Softmax => LayerInfo {
                    index,
                    name: "softmax".into(),
                    input: cur,
                    output: cur,
                    macs: 0.0,
                    weight_params: 0,
                    aux_params: 0,
                },
            };
            cur = info.output;
            out.push(info);
        }
        out
    }

    /// Output shape of the whole network.
    pub fn output_shape(&self) -> Shape4 {
        self.infer().last().map(|i| i.output).unwrap_or(self.input)
    }

    /// Total multiply-accumulates for one inference.
    pub fn total_macs(&self) -> f64 {
        self.infer().iter().map(|i| i.macs).sum()
    }

    /// Total weight parameters.
    pub fn total_params(&self) -> usize {
        self.infer()
            .iter()
            .map(|i| i.weight_params + i.aux_params)
            .sum()
    }

    /// Model size in bytes at full (f32) precision.
    pub fn float_bytes(&self) -> usize {
        self.total_params() * 4
    }

    /// Model size in bytes after PhoneBit conversion: binary layers store
    /// 1 bit per weight plus fused thresholds (ξ as f32 + one sign bit per
    /// channel); float layers stay at 4 bytes per parameter.
    pub fn binary_bytes(&self) -> usize {
        self.binary_layer_bytes().iter().sum()
    }

    /// Per-layer weight-bank bytes after PhoneBit conversion — one entry
    /// per layer, summing to [`NetworkArch::binary_bytes`]. Weightless layers
    /// (pool, softmax) contribute 0. The residency planner pages these
    /// banks individually, so it needs the per-layer split that
    /// `binary_bytes` collapses.
    pub fn binary_layer_bytes(&self) -> Vec<usize> {
        let infos = self.infer();
        self.layers
            .iter()
            .zip(infos.iter())
            .map(|(layer, info)| {
                let precision = match layer {
                    LayerSpec::Conv(c) => Some(c.precision),
                    LayerSpec::Dense(d) => Some(d.precision),
                    _ => None,
                };
                match precision {
                    // Fused BN: xi (f32) + gamma sign (1 bit -> 1 byte here)
                    // per output channel.
                    Some(LayerPrecision::Binary) | Some(LayerPrecision::BinaryInput8) => {
                        info.weight_params.div_ceil(8) + info.output.c * 5
                    }
                    Some(LayerPrecision::Float) => (info.weight_params + info.aux_params) * 4,
                    None => 0,
                }
            })
            .collect()
    }

    /// The compression ratio PhoneBit's Table II reports.
    pub fn compression_ratio(&self) -> f64 {
        self.float_bytes() as f64 / self.binary_bytes() as f64
    }
}

/// Weights of a convolution layer (checkpoint form).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvWeights {
    /// Float filters `k x kh x kw x c`.
    pub filters: Filters,
    /// Per-filter bias.
    pub bias: Vec<f32>,
    /// Batch-norm parameters, when the spec says `has_bn`.
    pub bn: Option<BnParams>,
}

/// Weights of a dense layer (checkpoint form).
#[derive(Debug, Clone, PartialEq)]
pub struct DenseWeights {
    /// Row-major `[out_features x in_features]`.
    pub weights: Vec<f32>,
    /// Per-output bias.
    pub bias: Vec<f32>,
    /// Batch-norm parameters, when the spec says `has_bn`.
    pub bn: Option<BnParams>,
}

/// Weights of one layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerWeights {
    /// Convolution weights.
    Conv(ConvWeights),
    /// Dense weights.
    Dense(DenseWeights),
    /// Pooling/softmax layers carry no weights.
    None,
}

/// A full network: architecture plus checkpoint weights.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkDef {
    /// The architecture.
    pub arch: NetworkArch,
    /// Per-layer weights, same order as `arch.layers`.
    pub weights: Vec<LayerWeights>,
}

impl NetworkDef {
    /// Validates that weights match the architecture layer by layer.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on any mismatch.
    pub fn validate(&self) {
        assert_eq!(
            self.arch.layers.len(),
            self.weights.len(),
            "{}: weight count != layer count",
            self.arch.name
        );
        let infos = self.arch.infer();
        for ((layer, weights), info) in self
            .arch
            .layers
            .iter()
            .zip(self.weights.iter())
            .zip(infos.iter())
        {
            match (layer, weights) {
                (LayerSpec::Conv(c), LayerWeights::Conv(w)) => {
                    let expect =
                        FilterShape::new(c.out_channels, c.geom.kh, c.geom.kw, info.input.c);
                    assert_eq!(w.filters.shape(), expect, "{}: filter shape", c.name);
                    assert_eq!(w.bias.len(), c.out_channels, "{}: bias length", c.name);
                    assert_eq!(c.has_bn, w.bn.is_some(), "{}: bn presence", c.name);
                    if let Some(bn) = &w.bn {
                        assert_eq!(bn.len(), c.out_channels, "{}: bn length", c.name);
                    }
                }
                (LayerSpec::Dense(d), LayerWeights::Dense(w)) => {
                    let in_features = info.input.h * info.input.w * info.input.c;
                    assert_eq!(
                        w.weights.len(),
                        in_features * d.out_features,
                        "{}: weight matrix",
                        d.name
                    );
                    assert_eq!(w.bias.len(), d.out_features, "{}: bias length", d.name);
                    assert_eq!(d.has_bn, w.bn.is_some(), "{}: bn presence", d.name);
                }
                (LayerSpec::Pool(_), LayerWeights::None) => {}
                (LayerSpec::Softmax, LayerWeights::None) => {}
                (spec, w) => panic!(
                    "{}: layer/weight kind mismatch ({spec:?} with {w:?})",
                    self.arch.name
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_arch() -> NetworkArch {
        NetworkArch::new("tiny", Shape4::new(1, 8, 8, 3))
            .conv(
                "conv1",
                16,
                3,
                1,
                1,
                LayerPrecision::BinaryInput8,
                Activation::Linear,
            )
            .maxpool("pool1", 2, 2)
            .conv(
                "conv2",
                32,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .dense("fc", 10, LayerPrecision::Float, Activation::Linear)
            .softmax()
    }

    #[test]
    fn shape_inference_chains() {
        let infos = tiny_arch().infer();
        assert_eq!(infos.len(), 5);
        assert_eq!(infos[0].output, Shape4::new(1, 8, 8, 16));
        assert_eq!(infos[1].output, Shape4::new(1, 4, 4, 16));
        assert_eq!(infos[2].output, Shape4::new(1, 4, 4, 32));
        assert_eq!(infos[3].output, Shape4::new(1, 1, 1, 10));
        assert_eq!(infos[4].output, Shape4::new(1, 1, 1, 10));
        assert_eq!(tiny_arch().output_shape(), Shape4::new(1, 1, 1, 10));
    }

    #[test]
    fn mac_counts() {
        let infos = tiny_arch().infer();
        // conv1: 8*8 pixels x 16 filters x 9 taps x 3 channels.
        assert_eq!(infos[0].macs, (64 * 16 * 9 * 3) as f64);
        // pool has no macs.
        assert_eq!(infos[1].macs, 0.0);
        // dense: 4*4*32 x 10.
        assert_eq!(infos[3].macs, (512 * 10) as f64);
    }

    #[test]
    fn param_counts_include_bias_and_bn() {
        let infos = tiny_arch().infer();
        // conv1 weights 16*9*3 = 432; aux = bias 16 + bn 64.
        assert_eq!(infos[0].weight_params, 432);
        assert_eq!(infos[0].aux_params, 80);
        // fc float: no bn, just bias.
        assert_eq!(infos[3].aux_params, 10);
    }

    #[test]
    fn binary_size_is_much_smaller() {
        // A binary-weight-dominated net (like the paper's models, where the
        // float head is a small fraction) compresses by >10x.
        let arch = NetworkArch::new("deep", Shape4::new(1, 16, 16, 64))
            .conv(
                "conv1",
                256,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .conv(
                "conv2",
                256,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .conv(
                "conv3",
                10,
                1,
                1,
                0,
                LayerPrecision::Float,
                Activation::Linear,
            );
        assert!(arch.float_bytes() > 10 * arch.binary_bytes());
        assert!(arch.compression_ratio() > 10.0);
        // The float-head-dominated tiny net still compresses, just less.
        let tiny = tiny_arch();
        assert!(tiny.compression_ratio() > 1.5);
        assert!(tiny.binary_bytes() < tiny.float_bytes());
    }

    #[test]
    fn layer_names() {
        let arch = tiny_arch();
        let names: Vec<_> = arch.layers.iter().map(|l| l.name().to_string()).collect();
        assert_eq!(names, vec!["conv1", "pool1", "conv2", "fc", "softmax"]);
    }

    #[test]
    #[should_panic(expected = "weight count")]
    fn validate_rejects_missing_weights() {
        let def = NetworkDef {
            arch: tiny_arch(),
            weights: vec![],
        };
        def.validate();
    }

    #[test]
    fn validate_accepts_consistent_weights() {
        let arch = tiny_arch();
        let infos = arch.infer();
        let mut weights = Vec::new();
        for (layer, info) in arch.layers.iter().zip(infos.iter()) {
            weights.push(match layer {
                LayerSpec::Conv(c) => LayerWeights::Conv(ConvWeights {
                    filters: Filters::zeros(FilterShape::new(
                        c.out_channels,
                        c.geom.kh,
                        c.geom.kw,
                        info.input.c,
                    )),
                    bias: vec![0.0; c.out_channels],
                    bn: c.has_bn.then(|| BnParams::identity(c.out_channels)),
                }),
                LayerSpec::Dense(d) => {
                    let in_features = info.input.h * info.input.w * info.input.c;
                    LayerWeights::Dense(DenseWeights {
                        weights: vec![0.0; in_features * d.out_features],
                        bias: vec![0.0; d.out_features],
                        bn: d.has_bn.then(|| BnParams::identity(d.out_features)),
                    })
                }
                _ => LayerWeights::None,
            });
        }
        NetworkDef { arch, weights }.validate();
    }

    #[test]
    fn total_macs_positive() {
        assert!(tiny_arch().total_macs() > 0.0);
        assert!(tiny_arch().total_params() > 0);
    }
}
