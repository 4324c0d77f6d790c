//! The user-facing network construction API (the Rust analogue of the
//! paper's Fig 3 C++ snippet).
//!
//! The paper shows users wiring layers by hand:
//!
//! ```text
//! conv1.bforward_S(&img, &padding1, &kernel1, &stride1, &w1, &bn1);
//! pool1.forward_S(&conv1.out, &size1, &stride_p1, MAX);
//! conv2.bforward64_S(&pool1.out, ...);
//! ```
//!
//! [`NetworkBuilder`] provides the same layer-by-layer construction with
//! Rust ownership: supply float weights per layer, call
//! [`NetworkBuilder::build`], and receive a converted, deployable
//! [`PbitModel`].

use phonebit_nn::act::Activation;
use phonebit_nn::fuse::BnParams;
use phonebit_nn::graph::{
    ConvWeights, DenseWeights, LayerPrecision, LayerWeights, NetworkArch, NetworkDef,
};
use phonebit_tensor::shape::Shape4;
use phonebit_tensor::tensor::Filters;

use crate::convert::convert;
use crate::model::PbitModel;

/// Incrementally builds a network from float weights, then converts it to
/// the deployable packed form.
///
/// # Examples
///
/// ```
/// use phonebit_core::builder::NetworkBuilder;
/// use phonebit_nn::{act::Activation, fuse::BnParams};
/// use phonebit_tensor::{shape::{FilterShape, Shape4}, Filters};
///
/// let model = NetworkBuilder::new("demo", Shape4::new(1, 8, 8, 3))
///     .bconv_input8(
///         "conv1",
///         Filters::from_fn(FilterShape::new(16, 3, 3, 3), |k, _, _, c| {
///             if (k + c) % 2 == 0 { 1.0 } else { -1.0 }
///         }),
///         vec![0.0; 16],
///         BnParams::identity(16),
///         1,
///         1,
///     )
///     .maxpool("pool1", 2, 2)
///     .dense_float("fc", vec![0.0; 4 * 4 * 16 * 10], vec![0.0; 10], Activation::Linear)
///     .softmax()
///     .build();
/// assert_eq!(model.layers.len(), 4);
/// ```
#[derive(Debug)]
pub struct NetworkBuilder {
    arch: NetworkArch,
    weights: Vec<LayerWeights>,
}

impl NetworkBuilder {
    /// Starts a network for the given input shape.
    pub fn new(name: impl Into<String>, input: Shape4) -> Self {
        Self {
            arch: NetworkArch::new(name, input),
            weights: Vec::new(),
        }
    }

    /// Adds the 8-bit-input binary first layer (`bforward_S` in Fig 3).
    pub fn bconv_input8(
        mut self,
        name: &str,
        filters: Filters,
        bias: Vec<f32>,
        bn: BnParams,
        stride: usize,
        pad: usize,
    ) -> Self {
        let fs = filters.shape();
        self.arch = self.arch.conv(
            name,
            fs.k,
            fs.kh,
            stride,
            pad,
            LayerPrecision::BinaryInput8,
            Activation::Linear,
        );
        self.weights.push(LayerWeights::Conv(ConvWeights {
            filters,
            bias,
            bn: Some(bn),
        }));
        self
    }

    /// Adds a binary convolution layer (`bforward64_S` in Fig 3).
    pub fn bconv(
        mut self,
        name: &str,
        filters: Filters,
        bias: Vec<f32>,
        bn: BnParams,
        stride: usize,
        pad: usize,
    ) -> Self {
        let fs = filters.shape();
        self.arch = self.arch.conv(
            name,
            fs.k,
            fs.kh,
            stride,
            pad,
            LayerPrecision::Binary,
            Activation::Linear,
        );
        self.weights.push(LayerWeights::Conv(ConvWeights {
            filters,
            bias,
            bn: Some(bn),
        }));
        self
    }

    /// Adds a full-precision convolution layer.
    pub fn fconv(
        mut self,
        name: &str,
        filters: Filters,
        bias: Vec<f32>,
        activation: Activation,
        stride: usize,
        pad: usize,
    ) -> Self {
        let fs = filters.shape();
        self.arch = self.arch.conv(
            name,
            fs.k,
            fs.kh,
            stride,
            pad,
            LayerPrecision::Float,
            activation,
        );
        self.weights.push(LayerWeights::Conv(ConvWeights {
            filters,
            bias,
            bn: None,
        }));
        self
    }

    /// Adds max pooling (`pool.forward_S(..., MAX)` in Fig 3).
    pub fn maxpool(mut self, name: &str, size: usize, stride: usize) -> Self {
        self.arch = self.arch.maxpool(name, size, stride);
        self.weights.push(LayerWeights::None);
        self
    }

    /// Adds a full-precision dense layer.
    pub fn dense_float(
        mut self,
        name: &str,
        weights: Vec<f32>,
        bias: Vec<f32>,
        activation: Activation,
    ) -> Self {
        let out_features = bias.len();
        self.arch = self
            .arch
            .dense(name, out_features, LayerPrecision::Float, activation);
        self.weights.push(LayerWeights::Dense(DenseWeights {
            weights,
            bias,
            bn: None,
        }));
        self
    }

    /// Adds the softmax epilogue.
    pub fn softmax(mut self) -> Self {
        self.arch = self.arch.softmax();
        self.weights.push(LayerWeights::None);
        self
    }

    /// Finishes the checkpoint without converting (for baselines/training).
    fn into_def(self) -> NetworkDef {
        let def = NetworkDef {
            arch: self.arch,
            weights: self.weights,
        };
        def.validate();
        def
    }

    /// Validates, binarizes and packs the network into a deployable model.
    ///
    /// # Panics
    ///
    /// Panics if the assembled layers are inconsistent (shape mismatches,
    /// missing batch-norm on binary layers).
    pub fn build(self) -> PbitModel {
        convert(&self.into_def())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PbitLayer;
    use phonebit_tensor::shape::FilterShape;

    fn filters(k: usize, kernel: usize, c: usize) -> Filters {
        Filters::from_fn(FilterShape::new(k, kernel, kernel, c), |a, b, d, e| {
            ((a + b + d + e) % 2) as f32 * 2.0 - 1.0
        })
    }

    #[test]
    fn fig3_style_network_builds() {
        // The YOLO-like shape of Fig 3: conv -> pool -> conv -> pool ...
        let model = NetworkBuilder::new("fig3", Shape4::new(1, 16, 16, 3))
            .bconv_input8(
                "conv1",
                filters(16, 3, 3),
                vec![0.0; 16],
                BnParams::identity(16),
                1,
                1,
            )
            .maxpool("pool1", 2, 2)
            .bconv(
                "conv2",
                filters(32, 3, 16),
                vec![0.0; 32],
                BnParams::identity(32),
                1,
                1,
            )
            .maxpool("pool2", 2, 2)
            .fconv(
                "conv3",
                filters(10, 1, 32),
                vec![0.0; 10],
                Activation::Linear,
                1,
                0,
            )
            .build();
        assert_eq!(model.layers.len(), 5);
        assert!(matches!(model.layers[0], PbitLayer::BConvInput8 { .. }));
        assert!(matches!(model.layers[4], PbitLayer::FConv { .. }));
    }

    #[test]
    fn builder_matches_manual_def_conversion() {
        let build = |via_builder: bool| {
            let b = NetworkBuilder::new("x", Shape4::new(1, 8, 8, 3)).bconv_input8(
                "conv1",
                filters(8, 3, 3),
                vec![0.5; 8],
                BnParams::identity(8),
                1,
                1,
            );
            if via_builder {
                b.build()
            } else {
                convert(&b.into_def())
            }
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    #[should_panic(expected = "filter shape")]
    fn inconsistent_channels_panic_at_build() {
        // conv2 filters expect 99 input channels but conv1 outputs 16.
        let _ = NetworkBuilder::new("bad", Shape4::new(1, 8, 8, 3))
            .bconv_input8(
                "conv1",
                filters(16, 3, 3),
                vec![0.0; 16],
                BnParams::identity(16),
                1,
                1,
            )
            .bconv(
                "conv2",
                filters(8, 3, 99),
                vec![0.0; 8],
                BnParams::identity(8),
                1,
                1,
            )
            .build();
    }

    #[test]
    fn arch_accessor_reflects_layers() {
        let b = NetworkBuilder::new("a", Shape4::new(1, 4, 4, 3)).maxpool("p", 2, 2);
        assert_eq!(b.arch.layers.len(), 1);
    }
}
