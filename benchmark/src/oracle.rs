//! The verification oracle: a deliberately naive interpreter of the float
//! checkpoint. No packing, no tiling, no popcounts, no shared code with the
//! engine's kernels — activations are one ±1 (or 8-bit, or float) value per
//! element in `(h, w, c)` order, convolutions are the textbook loop nest, and
//! batch-norm is the paper's Eqn 6 threshold decided by Eqn 8. It starts
//! from the *checkpoint*, so it checks `convert` and the `.pbit` round trip
//! as well as the kernels.

use phonebit::nn::act::Activation;
use phonebit::nn::fuse::BnParams;
use phonebit::nn::graph::{
    ConvSpec, ConvWeights, DenseSpec, DenseWeights, LayerPrecision, LayerSpec, LayerWeights,
    NetworkDef, PoolKind, PoolSpec,
};

/// One activation map, batch 1.
#[derive(Debug, Clone)]
pub struct Fmap {
    pub h: usize,
    pub w: usize,
    pub c: usize,
    pub data: Values,
}

#[derive(Debug, Clone)]
pub enum Values {
    /// 8-bit image (network input only).
    Bytes(Vec<u8>),
    /// Binary activations, `+1` / `-1`.
    Signs(Vec<i16>),
    /// Full-precision activations.
    Floats(Vec<f32>),
}

fn sign(v: f32) -> i16 {
    if v >= 0.0 {
        1
    } else {
        -1
    }
}

/// Eqn 6 then Eqn 8: `xi = mu - beta*sigma/gamma - b`; the output is +1
/// when `x1 >= xi` (gamma > 0) or `x1 <= xi` (gamma < 0).
fn binarize(x1: i32, ch: usize, bn: &BnParams, bias: &[f32]) -> i16 {
    let xi = bn.mu[ch] - bn.beta[ch] * bn.sigma[ch] / bn.gamma[ch] - bias[ch];
    let x1 = x1 as f32;
    let on = if bn.gamma[ch] > 0.0 {
        x1 >= xi
    } else {
        x1 <= xi
    };
    if on {
        1
    } else {
        -1
    }
}

fn dot_i(a: &[i16], b: &[i16]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

fn dot_f(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

/// Weights of filter `k` in `(i, j, c)` order, mapped through `f`.
fn filter_taps<T>(w: &ConvWeights, k: usize, f: impl Fn(f32) -> T) -> Vec<T> {
    let fs = w.filters.shape();
    let mut out = Vec::with_capacity(fs.kh * fs.kw * fs.c);
    for i in 0..fs.kh {
        for j in 0..fs.kw {
            for c in 0..fs.c {
                out.push(f(w.filters.at(k, i, j, c)));
            }
        }
    }
    out
}

/// Direct convolution: `out[oy][ox][k] = finish(k, sum over taps of
/// dot(pixel or pad, filter tap))`.
#[allow(clippy::too_many_arguments)]
fn conv<X, A: Default + std::ops::AddAssign, O>(
    spec: &ConvSpec,
    (h, w, c): (usize, usize, usize),
    x: &[X],
    pad_pixel: &[X],
    filters: &[Vec<X>],
    dot: impl Fn(&[X], &[X]) -> A,
    finish: impl Fn(usize, A) -> O,
) -> (usize, usize, Vec<O>) {
    let g = &spec.geom;
    let (oh, ow) = g.output_hw(h, w);
    let mut out = Vec::with_capacity(oh * ow * filters.len());
    for oy in 0..oh {
        for ox in 0..ow {
            for (k, taps) in filters.iter().enumerate() {
                let mut acc = A::default();
                for i in 0..g.kh {
                    for j in 0..g.kw {
                        let iy = (oy * g.stride_h + i) as isize - g.pad_h as isize;
                        let ix = (ox * g.stride_w + j) as isize - g.pad_w as isize;
                        let inside = iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w;
                        let px = if inside {
                            &x[(iy as usize * w + ix as usize) * c..][..c]
                        } else {
                            pad_pixel
                        };
                        acc += dot(px, &taps[(i * g.kw + j) * c..][..c]);
                    }
                }
                out.push(finish(k, acc));
            }
        }
    }
    (oh, ow, out)
}

fn conv_layer(spec: &ConvSpec, w: &ConvWeights, input: Fmap) -> Fmap {
    let dims = (input.h, input.w, input.c);
    let k = spec.out_channels;
    let (oh, ow, data) = match spec.precision {
        LayerPrecision::Binary | LayerPrecision::BinaryInput8 => {
            // 8-bit pixels pad with 0; binary activations pad with -1 (an
            // all-zero packed word); float input binarizes at its sign.
            let (x, pad): (Vec<i16>, i16) = match input.data {
                Values::Bytes(b) => (b.iter().map(|&v| v as i16).collect(), 0),
                Values::Signs(s) => (s, -1),
                Values::Floats(f) => (f.iter().map(|&v| sign(v)).collect(), -1),
            };
            let filters: Vec<Vec<i16>> = (0..k).map(|k| filter_taps(w, k, sign)).collect();
            let bn = w.bn.as_ref().expect("binary conv carries batch-norm");
            let (oh, ow, out) = conv(
                spec,
                dims,
                &x,
                &vec![pad; input.c],
                &filters,
                dot_i,
                |k, x1| binarize(x1, k, bn, &w.bias),
            );
            (oh, ow, Values::Signs(out))
        }
        LayerPrecision::Float => {
            assert_eq!(
                spec.activation,
                Activation::Linear,
                "{}: the oracle covers linear float heads only",
                spec.name
            );
            let x: Vec<f32> = match input.data {
                Values::Signs(s) => s.iter().map(|&v| v as f32).collect(),
                Values::Floats(f) => f,
                Values::Bytes(_) => panic!("{}: float conv over raw bytes", spec.name),
            };
            let filters: Vec<Vec<f32>> = (0..k).map(|k| filter_taps(w, k, |v| v)).collect();
            let (oh, ow, out) = conv(
                spec,
                dims,
                &x,
                &vec![0.0; input.c],
                &filters,
                dot_f,
                |k, acc: f64| (acc + w.bias[k] as f64) as f32,
            );
            (oh, ow, Values::Floats(out))
        }
    };
    Fmap {
        h: oh,
        w: ow,
        c: k,
        data,
    }
}

fn pool_layer(spec: &PoolSpec, input: Fmap) -> Fmap {
    assert_eq!(spec.kind, PoolKind::Max, "{}: max pooling only", spec.name);
    let Values::Signs(x) = &input.data else {
        panic!("{}: the oracle pools binary activations only", spec.name);
    };
    let (h, w, c) = (input.h, input.w, input.c);
    let oh = (h - spec.size) / spec.stride + 1;
    let ow = (w - spec.size) / spec.stride + 1;
    let mut out = Vec::with_capacity(oh * ow * c);
    for oy in 0..oh {
        for ox in 0..ow {
            for ch in 0..c {
                let mut best = -1;
                for i in 0..spec.size {
                    for j in 0..spec.size {
                        let (iy, ix) = (oy * spec.stride + i, ox * spec.stride + j);
                        best = best.max(x[(iy * w + ix) * c + ch]);
                    }
                }
                out.push(best);
            }
        }
    }
    Fmap {
        h: oh,
        w: ow,
        c,
        data: Values::Signs(out),
    }
}

fn dense_layer(spec: &DenseSpec, w: &DenseWeights, input: Fmap) -> Fmap {
    let features = input.h * input.w * input.c;
    let row = |k: usize| &w.weights[k * features..(k + 1) * features];
    let data = match spec.precision {
        LayerPrecision::Binary => {
            let Values::Signs(x) = &input.data else {
                panic!("{}: binary dense over non-binary input", spec.name);
            };
            let bn = w.bn.as_ref().expect("binary dense carries batch-norm");
            Values::Signs(
                (0..spec.out_features)
                    .map(|k| {
                        let signs: Vec<i16> = row(k).iter().map(|&v| sign(v)).collect();
                        binarize(dot_i(x, &signs), k, bn, &w.bias)
                    })
                    .collect(),
            )
        }
        LayerPrecision::Float => {
            assert_eq!(spec.activation, Activation::Linear, "{}", spec.name);
            let x: Vec<f32> = match &input.data {
                Values::Signs(s) => s.iter().map(|&v| v as f32).collect(),
                Values::Floats(f) => f.clone(),
                Values::Bytes(_) => panic!("{}: float dense over raw bytes", spec.name),
            };
            Values::Floats(
                (0..spec.out_features)
                    .map(|k| (dot_f(&x, row(k)) + w.bias[k] as f64) as f32)
                    .collect(),
            )
        }
        LayerPrecision::BinaryInput8 => panic!("{}: 8-bit dense input", spec.name),
    };
    Fmap {
        h: 1,
        w: 1,
        c: spec.out_features,
        data,
    }
}

fn softmax_layer(input: Fmap) -> Fmap {
    let Values::Floats(x) = &input.data else {
        panic!("softmax over non-float input");
    };
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
    let e: Vec<f64> = x.iter().map(|&v| (v as f64 - max).exp()).collect();
    let sum: f64 = e.iter().sum();
    Fmap {
        data: Values::Floats(e.iter().map(|v| (v / sum) as f32).collect()),
        ..input
    }
}

/// Runs the whole checkpoint on one input.
pub fn forward(def: &NetworkDef, input: Fmap) -> Fmap {
    let s = def.arch.input;
    assert_eq!((input.h, input.w, input.c), (s.h, s.w, s.c), "input shape");
    def.arch
        .layers
        .iter()
        .zip(&def.weights)
        .fold(input, |x, (layer, weights)| match (layer, weights) {
            (LayerSpec::Conv(spec), LayerWeights::Conv(w)) => conv_layer(spec, w, x),
            (LayerSpec::Pool(spec), LayerWeights::None) => pool_layer(spec, x),
            (LayerSpec::Dense(spec), LayerWeights::Dense(w)) => dense_layer(spec, w, x),
            (LayerSpec::Softmax, LayerWeights::None) => softmax_layer(x),
            (l, _) => panic!("{}: layer/weights mismatch", l.name()),
        })
}
