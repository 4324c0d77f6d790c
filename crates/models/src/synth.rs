//! Seeded synthetic weights and data.
//!
//! The paper evaluates trained checkpoints (CIFAR-10 / VOC2007). Those
//! artifacts are not available here, so weights are generated from a seeded
//! RNG with realistic statistics (zero-mean weights, positive sigmas,
//! sign-mixed gammas). Runtime and memory behaviour — everything Tables
//! III/IV and Fig 5 measure — do not depend on weight values; accuracy does,
//! and is reproduced separately by `phonebit-train` (see DESIGN.md).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phonebit_nn::fuse::BnParams;
use phonebit_nn::graph::{
    ConvWeights, DenseWeights, LayerSpec, LayerWeights, NetworkArch, NetworkDef,
};
use phonebit_tensor::shape::{FilterShape, Shape4};
use phonebit_tensor::tensor::{Filters, Tensor};

/// Approximately normal sample (Irwin–Hall of 4 uniforms), cheap and
/// dependency-free.
fn gauss(rng: &mut StdRng, std: f32) -> f32 {
    let sum: f32 = (0..4).map(|_| rng.gen::<f32>()).sum();
    (sum - 2.0) * std * 1.73
}

fn random_bn(rng: &mut StdRng, n: usize) -> BnParams {
    BnParams {
        // Gammas mix signs (exercising the Eqn 8/9 gamma<0 cases) and stay
        // away from zero (pruned channels are rejected).
        gamma: (0..n)
            .map(|_| {
                let v = 0.2 + rng.gen::<f32>();
                if rng.gen_bool(0.25) {
                    -v
                } else {
                    v
                }
            })
            .collect(),
        beta: (0..n).map(|_| gauss(rng, 0.3)).collect(),
        mu: (0..n).map(|_| gauss(rng, 2.0)).collect(),
        sigma: (0..n).map(|_| 0.5 + rng.gen::<f32>() * 3.0).collect(),
    }
}

/// Fills an architecture with seeded synthetic weights, producing a
/// checkpoint-shaped [`NetworkDef`].
pub fn fill_weights(arch: &NetworkArch, seed: u64) -> NetworkDef {
    let mut rng = StdRng::seed_from_u64(seed);
    let infos = arch.infer();
    let mut weights = Vec::with_capacity(arch.layers.len());
    for (layer, info) in arch.layers.iter().zip(infos.iter()) {
        weights.push(match layer {
            LayerSpec::Conv(c) => {
                let shape = FilterShape::new(c.out_channels, c.geom.kh, c.geom.kw, info.input.c);
                let fan_in = (shape.filter_len() as f32).sqrt().recip();
                let mut filters = Filters::zeros(shape);
                for v in filters.as_mut_slice() {
                    *v = gauss(&mut rng, fan_in);
                }
                LayerWeights::Conv(ConvWeights {
                    filters,
                    bias: (0..c.out_channels).map(|_| gauss(&mut rng, 0.1)).collect(),
                    bn: c.has_bn.then(|| random_bn(&mut rng, c.out_channels)),
                })
            }
            LayerSpec::Dense(d) => {
                let in_features = info.input.h * info.input.w * info.input.c;
                let fan_in = (in_features as f32).sqrt().recip();
                LayerWeights::Dense(DenseWeights {
                    weights: (0..in_features * d.out_features)
                        .map(|_| gauss(&mut rng, fan_in))
                        .collect(),
                    bias: (0..d.out_features).map(|_| gauss(&mut rng, 0.1)).collect(),
                    bn: d.has_bn.then(|| random_bn(&mut rng, d.out_features)),
                })
            }
            _ => LayerWeights::None,
        });
    }
    let def = NetworkDef {
        arch: arch.clone(),
        weights,
    };
    def.validate();
    def
}

/// Like [`fill_weights`], but convolution filters are drawn from a small
/// pool of shared **sign prototypes**: each output channel copies one of
/// `prototypes` prototype filters and scales it by a positive per-channel
/// magnitude. Sign-binarization discards the magnitude, so channels that
/// share a prototype pack to bit-identical filter rows — the redundancy
/// pattern trained BNNs exhibit (filters cluster around a few sign
/// motifs), which the weight-bank dictionary compressor exploits.
///
/// Dense layers and everything else keep the [`fill_weights`] statistics;
/// they are never dictionary-compressed.
pub fn fill_weights_clustered(arch: &NetworkArch, seed: u64, prototypes: usize) -> NetworkDef {
    let pool = prototypes.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let infos = arch.infer();
    let mut weights = Vec::with_capacity(arch.layers.len());
    for (layer, info) in arch.layers.iter().zip(infos.iter()) {
        weights.push(match layer {
            LayerSpec::Conv(c) => {
                let shape = FilterShape::new(c.out_channels, c.geom.kh, c.geom.kw, info.input.c);
                let fan_in = (shape.filter_len() as f32).sqrt().recip();
                let protos: Vec<Vec<f32>> = (0..pool)
                    .map(|_| {
                        (0..shape.filter_len())
                            .map(|_| {
                                // Keep prototypes away from zero so the
                                // per-channel scale can't flip a sign.
                                let v = gauss(&mut rng, fan_in);
                                if v >= 0.0 {
                                    v + 0.05 * fan_in
                                } else {
                                    v - 0.05 * fan_in
                                }
                            })
                            .collect()
                    })
                    .collect();
                let mut filters = Filters::zeros(shape);
                let fl = shape.filter_len();
                for k in 0..c.out_channels {
                    let proto = &protos[rng.gen_range(0..pool)];
                    let scale = 0.5 + rng.gen::<f32>();
                    let dst = &mut filters.as_mut_slice()[k * fl..(k + 1) * fl];
                    for (d, p) in dst.iter_mut().zip(proto.iter()) {
                        *d = p * scale;
                    }
                }
                LayerWeights::Conv(ConvWeights {
                    filters,
                    bias: (0..c.out_channels).map(|_| gauss(&mut rng, 0.1)).collect(),
                    bn: c.has_bn.then(|| random_bn(&mut rng, c.out_channels)),
                })
            }
            LayerSpec::Dense(d) => {
                let in_features = info.input.h * info.input.w * info.input.c;
                let fan_in = (in_features as f32).sqrt().recip();
                LayerWeights::Dense(DenseWeights {
                    weights: (0..in_features * d.out_features)
                        .map(|_| gauss(&mut rng, fan_in))
                        .collect(),
                    bias: (0..d.out_features).map(|_| gauss(&mut rng, 0.1)).collect(),
                    bn: d.has_bn.then(|| random_bn(&mut rng, d.out_features)),
                })
            }
            _ => LayerWeights::None,
        });
    }
    let def = NetworkDef {
        arch: arch.clone(),
        weights,
    };
    def.validate();
    def
}

/// A seeded synthetic 8-bit image with spatial structure (gradients +
/// class-dependent texture), standing in for CIFAR-10 / VOC2007 frames.
pub fn synthetic_image(shape: Shape4, seed: u64) -> Tensor<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let phase = rng.gen_range(0..64) as usize;
    let freq = 1 + (seed % 5) as usize;
    Tensor::from_fn(shape, |n, h, w, c| {
        let base = (h * freq + phase) * 7 + (w * freq) * 5 + c * 37 + n * 11;
        let noise: usize = rng.gen_range(0..32);
        ((base % 224) + noise) as u8
    })
}

/// Converts an 8-bit image to normalized floats in `[0, 1]` (the baselines'
/// input convention).
pub fn to_float_input(img: &Tensor<u8>) -> Tensor<f32> {
    let s = img.shape();
    Tensor::from_fn(s, |n, h, w, c| img.at(n, h, w, c) as f32 / 255.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_nn::act::Activation;
    use phonebit_nn::graph::LayerPrecision;

    fn arch() -> NetworkArch {
        NetworkArch::new("syn", Shape4::new(1, 8, 8, 3))
            .conv(
                "c1",
                8,
                3,
                1,
                1,
                LayerPrecision::BinaryInput8,
                Activation::Linear,
            )
            .maxpool("p1", 2, 2)
            .conv(
                "c2",
                16,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .dense("fc", 4, LayerPrecision::Float, Activation::Linear)
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let a = fill_weights(&arch(), 7);
        let b = fill_weights(&arch(), 7);
        assert_eq!(a, b);
        let c = fill_weights(&arch(), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn weights_pass_validation_and_mix_signs() {
        let def = fill_weights(&arch(), 42);
        def.validate();
        if let LayerWeights::Conv(w) = &def.weights[0] {
            let pos = w.filters.as_slice().iter().filter(|&&v| v >= 0.0).count();
            let total = w.filters.as_slice().len();
            assert!(
                pos > total / 5 && pos < total * 4 / 5,
                "signs should mix: {pos}/{total}"
            );
            let bn = w.bn.as_ref().unwrap();
            assert!(bn.sigma.iter().all(|&s| s > 0.0));
            assert!(bn.gamma.iter().all(|&g| g != 0.0));
            assert!(bn.gamma.iter().any(|&g| g < 0.0), "some gammas negative");
        } else {
            panic!("expected conv weights");
        }
    }

    #[test]
    fn clustered_weights_share_sign_patterns() {
        let def = fill_weights_clustered(&arch(), 9, 4);
        def.validate();
        let a = fill_weights_clustered(&arch(), 9, 4);
        assert_eq!(def, a, "deterministic per seed");
        // The 16-channel binary conv drew from 4 prototypes: at sign level
        // at most 4 distinct filters must appear.
        if let LayerWeights::Conv(w) = &def.weights[2] {
            let fl = w.filters.shape().filter_len();
            let mut signs: Vec<Vec<bool>> = Vec::new();
            for k in 0..w.filters.shape().k {
                let s: Vec<bool> = w.filters.filter(k).iter().map(|&v| v >= 0.0).collect();
                assert_eq!(s.len(), fl);
                if !signs.contains(&s) {
                    signs.push(s);
                }
            }
            assert!(
                signs.len() <= 4,
                "expected <=4 sign prototypes, got {}",
                signs.len()
            );
            assert!(signs.len() >= 2, "prototypes should differ");
        } else {
            panic!("expected conv weights");
        }
    }

    #[test]
    fn images_are_deterministic_and_structured() {
        let s = Shape4::new(1, 16, 16, 3);
        let a = synthetic_image(s, 1);
        let b = synthetic_image(s, 1);
        assert_eq!(a, b);
        let c = synthetic_image(s, 2);
        assert_ne!(a, c);
        // Not constant.
        let first = a.at(0, 0, 0, 0);
        assert!(a.iter_indexed().any(|(_, v)| v != first));
    }

    #[test]
    fn batch_images_differ() {
        // A batch seeds its images 100, 101, 102.
        let batch: Vec<_> = (100..103)
            .map(|seed| synthetic_image(Shape4::new(1, 8, 8, 3), seed))
            .collect();
        assert_ne!(batch[0], batch[1]);
        assert_ne!(batch[1], batch[2]);
    }

    #[test]
    fn float_input_is_normalized() {
        let img = synthetic_image(Shape4::new(1, 4, 4, 3), 5);
        let f = to_float_input(&img);
        assert!(f.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
