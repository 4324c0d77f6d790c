//! The training loop: float vs binary MLPs on the synthetic task.
//!
//! Mirrors the paper's network pattern at miniature scale: hidden layers
//! (dense + batch-norm + nonlinearity, binarized in the BNN) with a
//! full-precision final classifier — exactly the layer policy PhoneBit
//! deploys.

use crate::data::Dataset;
use crate::matrix::Matrix;
use crate::net::{softmax_ce, softmax_ce_grad, BatchNorm1d, Dense, HiddenAct};

/// Training hyperparameters and architecture.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Whether hidden layers binarize weights and activations.
    pub binary: bool,
    /// Learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Mini-batch size.
    pub batch: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Weight-init seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            hidden: vec![64, 64],
            binary: false,
            lr: 0.05,
            momentum: 0.9,
            batch: 32,
            epochs: 30,
            seed: 1,
        }
    }
}

/// A multilayer perceptron in the paper's layer pattern.
#[derive(Debug)]
struct Mlp {
    hidden: Vec<(Dense, BatchNorm1d, HiddenAct)>,
    head: Dense,
}

impl Mlp {
    /// Builds the network for a dataset's dimensions.
    fn new(input_dim: usize, classes: usize, cfg: &TrainConfig) -> Self {
        let mut hidden = Vec::new();
        let mut prev = input_dim;
        for (i, &width) in cfg.hidden.iter().enumerate() {
            let dense = Dense::new(prev, width, cfg.binary, cfg.seed.wrapping_add(i as u64));
            let bn = BatchNorm1d::new(width);
            let act = if cfg.binary {
                HiddenAct::sign_ste()
            } else {
                HiddenAct::relu()
            };
            hidden.push((dense, bn, act));
            prev = width;
        }
        // Full-precision classifier head, like the deployed models.
        let head = Dense::new(prev, classes, false, cfg.seed.wrapping_add(999));
        Self { hidden, head }
    }

    /// Forward in training mode; returns logits.
    fn forward_train(&mut self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for (dense, bn, act) in &mut self.hidden {
            cur = dense.forward(&cur);
            cur = bn.forward_train(&cur);
            cur = act.forward(cur);
        }
        self.head.forward(&cur)
    }

    /// Forward in inference mode (running batch-norm statistics).
    fn forward_eval(&self, x: &Matrix) -> Matrix {
        let mut cur = x.clone();
        for (dense, bn, act) in &self.hidden {
            let wb = dense.effective_weights();
            cur = cur.matmul_t(&wb);
            cur = bn.forward_eval(&cur);
            cur = match act {
                HiddenAct::Relu { .. } => cur.map(|v| v.max(0.0)),
                HiddenAct::SignSte { .. } => cur.map(|v| if v >= 0.0 { 1.0 } else { -1.0 }),
            };
        }
        let wb = self.head.effective_weights();
        cur.matmul_t(&wb)
    }

    /// Backward from a logits gradient; accumulates all parameter grads.
    fn backward(&mut self, grad_logits: &Matrix) {
        let mut grad = self.head.backward(grad_logits);
        for (dense, bn, act) in self.hidden.iter_mut().rev() {
            grad = act.backward(&grad);
            grad = bn.backward(&grad);
            grad = dense.backward(&grad);
        }
    }

    /// Applies one optimizer step everywhere.
    fn update(&mut self, lr: f32, momentum: f32) {
        self.head.update(lr, momentum);
        for (dense, bn, _) in &mut self.hidden {
            dense.update(lr, momentum);
            bn.update(lr);
        }
    }

    /// Classification accuracy on a dataset.
    fn accuracy(&self, data: &Dataset) -> f32 {
        if data.is_empty() {
            return 0.0;
        }
        let x = Matrix::from_fn(data.len(), data.dim(), |r, c| data.x[r][c]);
        let logits = self.forward_eval(&x);
        let mut hits = 0usize;
        for r in 0..data.len() {
            let row = logits.row(r);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            if pred == data.y[r] {
                hits += 1;
            }
        }
        hits as f32 / data.len() as f32
    }
}

/// Result of one training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Final held-out accuracy.
    pub test_acc: f32,
    /// Mean loss per epoch.
    pub loss_history: Vec<f32>,
}

/// Trains an MLP per the config and evaluates on the test split.
pub fn train(train_set: &Dataset, test_set: &Dataset, cfg: &TrainConfig) -> TrainOutcome {
    let mut net = Mlp::new(train_set.dim(), train_set.classes, cfg);
    let mut loss_history = Vec::with_capacity(cfg.epochs);
    let n = train_set.len();
    for _epoch in 0..cfg.epochs {
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        let mut start = 0usize;
        while start < n {
            let end = (start + cfg.batch).min(n);
            if end - start < 2 {
                break; // batch norm needs batch statistics
            }
            let x = Matrix::from_fn(end - start, train_set.dim(), |r, c| {
                train_set.x[start + r][c]
            });
            let labels: Vec<usize> = train_set.y[start..end].to_vec();
            let logits = net.forward_train(&x);
            let (loss, probs) = softmax_ce(&logits, &labels);
            let grad = softmax_ce_grad(&probs, &labels);
            net.backward(&grad);
            net.update(cfg.lr, cfg.momentum);
            epoch_loss += loss;
            batches += 1;
            start = end;
        }
        loss_history.push(epoch_loss / batches.max(1) as f32);
    }
    TrainOutcome {
        test_acc: net.accuracy(test_set),
        loss_history,
    }
}

/// The Table II accuracy-gap experiment: train a float and a binary network
/// of identical architecture on the same synthetic task; returns
/// `(float_acc, binary_acc)` on the held-out split.
pub fn accuracy_gap_experiment(seed: u64) -> (f32, f32) {
    let data = crate::data::cluster_dataset(2400, 32, 6, 0.55, seed);
    let (train_set, test_set) = data.split(0.75);
    let float_cfg = TrainConfig {
        binary: false,
        epochs: 40,
        ..Default::default()
    };
    let binary_cfg = TrainConfig {
        binary: true,
        lr: 0.02,
        epochs: 40,
        ..Default::default()
    };
    let float_run = train(&train_set, &test_set, &float_cfg);
    let binary_run = train(&train_set, &test_set, &binary_cfg);
    (float_run.test_acc, binary_run.test_acc)
}

/// A small convolutional network in the paper's layer pattern: two conv +
/// batch-norm + nonlinearity blocks (binarized in the BNN variant) and a
/// full-precision dense head. Input is a flattened `h x w x c` image.
#[derive(Debug)]
pub struct ConvNet {
    conv1: crate::conv::Conv2d,
    bn1: BatchNorm1d,
    act1: HiddenAct,
    conv2: crate::conv::Conv2d,
    bn2: BatchNorm1d,
    act2: HiddenAct,
    head: Dense,
}

impl ConvNet {
    /// Builds the network for `h x w x c` images and `classes` outputs.
    fn new(h: usize, w: usize, c: usize, classes: usize, binary: bool, seed: u64) -> Self {
        use crate::conv::{Conv2d, Conv2dShape};
        let s1 = Conv2dShape {
            h,
            w,
            c_in: c,
            c_out: 8,
            k: 3,
            stride: 2,
            pad: 1,
        };
        let (h1, w1) = s1.out_hw();
        let s2 = Conv2dShape {
            h: h1,
            w: w1,
            c_in: 8,
            c_out: 16,
            k: 3,
            stride: 2,
            pad: 1,
        };
        let act = || {
            if binary {
                HiddenAct::sign_ste()
            } else {
                HiddenAct::relu()
            }
        };
        Self {
            conv1: Conv2d::new(s1, binary, seed),
            bn1: BatchNorm1d::new(s1.out_features()),
            act1: act(),
            conv2: Conv2d::new(s2, binary, seed.wrapping_add(1)),
            bn2: BatchNorm1d::new(s2.out_features()),
            act2: act(),
            head: Dense::new(s2.out_features(), classes, false, seed.wrapping_add(2)),
        }
    }

    fn forward_train(&mut self, x: &Matrix) -> Matrix {
        let mut cur = self.conv1.forward(x);
        cur = self.bn1.forward_train(&cur);
        cur = self.act1.forward(cur);
        cur = self.conv2.forward(&cur);
        cur = self.bn2.forward_train(&cur);
        cur = self.act2.forward(cur);
        self.head.forward(&cur)
    }

    fn backward(&mut self, grad_logits: &Matrix) {
        let mut g = self.head.backward(grad_logits);
        g = self.act2.backward(&g);
        g = self.bn2.backward(&g);
        g = self.conv2.backward(&g);
        g = self.act1.backward(&g);
        g = self.bn1.backward(&g);
        let _ = self.conv1.backward(&g);
    }

    fn update(&mut self, lr: f32, momentum: f32) {
        self.conv1.update(lr, momentum);
        self.bn1.update(lr);
        self.conv2.update(lr, momentum);
        self.bn2.update(lr);
        self.head.update(lr, momentum);
    }

    /// Inference-mode accuracy over a dataset of flattened images.
    fn accuracy(&mut self, data: &Dataset) -> f32 {
        // Eval uses batch statistics over the whole evaluation set, which is
        // deterministic; running-stat eval for convs is omitted for brevity.
        let x = Matrix::from_fn(data.len(), data.dim(), |r, c| data.x[r][c]);
        let logits = self.forward_train(&x);
        let mut hits = 0;
        for r in 0..data.len() {
            let row = logits.row(r);
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            if pred == data.y[r] {
                hits += 1;
            }
        }
        hits as f32 / data.len() as f32
    }
}

/// Trains the small CNN; returns `(train_acc, test_acc)`.
#[allow(clippy::too_many_arguments)] // mirrors the experiment script flags one-to-one
pub fn train_convnet(
    train_set: &Dataset,
    test_set: &Dataset,
    h: usize,
    w: usize,
    c: usize,
    binary: bool,
    epochs: usize,
    lr: f32,
    seed: u64,
) -> (f32, f32) {
    assert_eq!(
        train_set.dim(),
        h * w * c,
        "dataset must hold flattened h*w*c images"
    );
    let mut net = ConvNet::new(h, w, c, train_set.classes, binary, seed);
    let batch = 32;
    let n = train_set.len();
    for _ in 0..epochs {
        let mut start = 0;
        while start < n {
            let end = (start + batch).min(n);
            if end - start < 2 {
                break;
            }
            let x = Matrix::from_fn(end - start, train_set.dim(), |r, cc| {
                train_set.x[start + r][cc]
            });
            let labels: Vec<usize> = train_set.y[start..end].to_vec();
            let logits = net.forward_train(&x);
            let (_, probs) = softmax_ce(&logits, &labels);
            net.backward(&softmax_ce_grad(&probs, &labels));
            net.update(lr, 0.9);
            start = end;
        }
    }
    (net.accuracy(train_set), net.accuracy(test_set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::cluster_dataset;

    #[test]
    fn float_training_reduces_loss_and_learns() {
        let data = cluster_dataset(800, 16, 4, 1.5, 11);
        let (tr, te) = data.split(0.75);
        let cfg = TrainConfig {
            epochs: 20,
            ..Default::default()
        };
        let out = train(&tr, &te, &cfg);
        assert!(
            out.loss_history.first().unwrap() > out.loss_history.last().unwrap(),
            "loss should fall: {:?}",
            out.loss_history
        );
        assert!(out.test_acc > 0.75, "float test acc {}", out.test_acc);
    }

    #[test]
    fn binary_training_learns_above_chance() {
        let data = cluster_dataset(800, 16, 4, 1.5, 13);
        let (tr, te) = data.split(0.75);
        let cfg = TrainConfig {
            binary: true,
            lr: 0.02,
            epochs: 25,
            ..Default::default()
        };
        let out = train(&tr, &te, &cfg);
        assert!(
            out.test_acc > 0.6,
            "binary test acc {} should beat chance 0.25",
            out.test_acc
        );
    }

    #[test]
    fn binary_weights_stay_clipped() {
        let data = cluster_dataset(200, 8, 2, 2.0, 17);
        let (tr, _te) = data.clone().split(0.9);
        let cfg = TrainConfig {
            binary: true,
            hidden: vec![16],
            epochs: 5,
            lr: 0.1,
            ..Default::default()
        };
        let mut net = Mlp::new(tr.dim(), tr.classes, &cfg);
        let x = Matrix::from_fn(32, tr.dim(), |r, c| tr.x[r][c]);
        let labels: Vec<usize> = tr.y[..32].to_vec();
        for _ in 0..10 {
            let logits = net.forward_train(&x);
            let (_, probs) = softmax_ce(&logits, &labels);
            net.backward(&softmax_ce_grad(&probs, &labels));
            net.update(cfg.lr, cfg.momentum);
        }
        for (dense, _, _) in &net.hidden {
            assert!(dense.w.as_slice().iter().all(|w| (-1.0..=1.0).contains(w)));
        }
    }

    #[test]
    fn convnet_learns_above_chance_both_variants() {
        // 8x8x1 "images" with class-dependent structure.
        let data = cluster_dataset(600, 64, 3, 1.2, 23);
        let (tr, te) = data.split(0.75);
        let (_, float_acc) = train_convnet(&tr, &te, 8, 8, 1, false, 8, 0.05, 5);
        let (_, bin_acc) = train_convnet(&tr, &te, 8, 8, 1, true, 8, 0.02, 5);
        assert!(float_acc > 0.6, "float CNN test acc {float_acc}");
        assert!(
            bin_acc > 0.45,
            "binary CNN test acc {bin_acc} vs chance 0.33"
        );
    }

    #[test]
    fn eval_mode_is_deterministic() {
        let data = cluster_dataset(200, 8, 2, 2.0, 19);
        let cfg = TrainConfig {
            hidden: vec![8],
            epochs: 1,
            ..Default::default()
        };
        let net = Mlp::new(data.dim(), data.classes, &cfg);
        let a = net.accuracy(&data);
        let b = net.accuracy(&data);
        assert_eq!(a, b);
    }
}
