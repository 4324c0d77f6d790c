//! Networks shared by the integration tests.

use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::tensor::shape::Shape4;

/// What the micro zoo lacks, so every arm of the dispatch list runs in
/// `end_to_end.rs`'s twin table and `plan_arena.rs`'s digest grid: a pointwise binary conv (the GEMM view that skips window
/// materialization), a float conv with a non-linear epilogue behind an
/// unpack, a packed dense input and a binary dense pair (the dense chain).
pub fn dispatch_extras_arch() -> NetworkArch {
    NetworkArch::new("dispatch-extras", Shape4::new(1, 16, 16, 3))
        .conv(
            "conv1",
            16,
            3,
            1,
            1,
            LayerPrecision::BinaryInput8,
            Activation::Linear,
        )
        .conv(
            "pw",
            32,
            1,
            1,
            0,
            LayerPrecision::Binary,
            Activation::Linear,
        )
        .conv(
            "fconv",
            8,
            3,
            2,
            1,
            LayerPrecision::Float,
            Activation::Leaky(0.1),
        )
        .dense("fc1", 64, LayerPrecision::Binary, Activation::Linear)
        .dense("fc2", 48, LayerPrecision::Binary, Activation::Linear)
        .dense("fc3", 32, LayerPrecision::Binary, Activation::Linear)
        .dense("fc4", 10, LayerPrecision::Float, Activation::Linear)
        .softmax()
}
