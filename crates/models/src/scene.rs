//! Synthetic detection scenes and evaluation metrics.
//!
//! The paper evaluates YOLOv2-Tiny on VOC2007; the dataset is not available
//! here, so this module provides the substitute: seeded scenes with known
//! ground-truth boxes (bright rectangular "objects" on textured background)
//! and the VOC-style IoU matching and precision/recall that score them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use phonebit_tensor::shape::{Layout, Shape4};
use phonebit_tensor::tensor::Tensor;

use crate::yolo::Detection;

/// A ground-truth object in a synthetic scene, normalized coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// Box center x in `[0, 1]`.
    pub x: f32,
    /// Box center y in `[0, 1]`.
    pub y: f32,
    /// Box width in `[0, 1]`.
    pub w: f32,
    /// Box height in `[0, 1]`.
    pub h: f32,
    /// Class index.
    pub class_id: usize,
}

impl GroundTruth {
    fn as_detection(&self) -> Detection {
        Detection {
            x: self.x,
            y: self.y,
            w: self.w,
            h: self.h,
            score: 1.0,
            class_id: self.class_id,
        }
    }
}

/// A synthetic scene: an image plus its ground-truth boxes.
#[derive(Debug, Clone)]
pub struct Scene {
    /// The 8-bit image.
    pub image: Tensor<u8>,
    /// Ground-truth objects.
    pub objects: Vec<GroundTruth>,
}

/// Generates a seeded scene of `size x size x 3` with 1–4 bright objects on
/// textured background; object intensity encodes its class.
pub fn generate_scene(size: usize, classes: usize, seed: u64) -> Scene {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut image = Tensor::from_vec(
        Shape4::new(1, size, size, 3),
        Layout::Nhwc,
        (0..size * size * 3)
            .map(|i| ((i * 37 + seed as usize) % 64) as u8)
            .collect(),
    );
    let count = rng.gen_range(1..=4usize);
    let mut objects = Vec::with_capacity(count);
    for _ in 0..count {
        let w = rng.gen_range(0.1..0.35f32);
        let h = rng.gen_range(0.1..0.35f32);
        let x = rng.gen_range(w / 2.0..1.0 - w / 2.0);
        let y = rng.gen_range(h / 2.0..1.0 - h / 2.0);
        let class_id = rng.gen_range(0..classes);
        // Paint the object: class-dependent brightness band.
        let base = 128 + (class_id * 97 % 120) as u8;
        let (px0, px1) = (
            ((x - w / 2.0) * size as f32) as usize,
            (((x + w / 2.0) * size as f32) as usize).min(size - 1),
        );
        let (py0, py1) = (
            ((y - h / 2.0) * size as f32) as usize,
            (((y + h / 2.0) * size as f32) as usize).min(size - 1),
        );
        for py in py0..=py1 {
            for px in px0..=px1 {
                for c in 0..3 {
                    image.set(0, py, px, c, base.saturating_add((c * 13) as u8));
                }
            }
        }
        objects.push(GroundTruth {
            x,
            y,
            w,
            h,
            class_id,
        });
    }
    Scene { image, objects }
}

/// Matches detections to ground truth at an IoU threshold and returns
/// `(true_positives, false_positives, false_negatives)`. Each ground truth
/// matches at most one detection (highest score first), VOC-style. A NaN
/// score is no detection, as in [`crate::yolo::decode`].
pub fn match_detections(
    detections: &[Detection],
    truths: &[GroundTruth],
    iou_threshold: f32,
) -> (usize, usize, usize) {
    let mut sorted: Vec<&Detection> = detections.iter().filter(|d| !d.score.is_nan()).collect();
    sorted.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut used = vec![false; truths.len()];
    let mut tp = 0;
    let mut fp = 0;
    for det in sorted {
        let mut best: Option<(usize, f32)> = None;
        for (i, gt) in truths.iter().enumerate() {
            if used[i] || gt.class_id != det.class_id {
                continue;
            }
            let iou = det.iou(&gt.as_detection());
            if iou >= iou_threshold && best.map(|(_, b)| iou > b).unwrap_or(true) {
                best = Some((i, iou));
            }
        }
        match best {
            Some((i, _)) => {
                used[i] = true;
                tp += 1;
            }
            None => fp += 1,
        }
    }
    let fn_count = used.iter().filter(|&&u| !u).count();
    (tp, fp, fn_count)
}

/// Precision and recall from match counts.
pub fn precision_recall(tp: usize, fp: usize, fn_count: usize) -> (f32, f32) {
    let precision = if tp + fp == 0 {
        0.0
    } else {
        tp as f32 / (tp + fp) as f32
    };
    let recall = if tp + fn_count == 0 {
        0.0
    } else {
        tp as f32 / (tp + fn_count) as f32
    };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gt(x: f32, y: f32, w: f32, h: f32, class_id: usize) -> GroundTruth {
        GroundTruth {
            x,
            y,
            w,
            h,
            class_id,
        }
    }

    fn det(x: f32, y: f32, w: f32, h: f32, score: f32, class_id: usize) -> Detection {
        Detection {
            x,
            y,
            w,
            h,
            score,
            class_id,
        }
    }

    #[test]
    fn scenes_are_seeded_and_bounded() {
        let a = generate_scene(64, 5, 7);
        let b = generate_scene(64, 5, 7);
        assert_eq!(a.objects, b.objects);
        assert_eq!(a.image, b.image);
        assert!(!a.objects.is_empty() && a.objects.len() <= 4);
        for o in &a.objects {
            assert!(o.x - o.w / 2.0 >= -1e-6 && o.x + o.w / 2.0 <= 1.0 + 1e-6);
            assert!(o.class_id < 5);
        }
        let c = generate_scene(64, 5, 8);
        assert_ne!(a.objects, c.objects);
    }

    #[test]
    fn perfect_detections_match_all() {
        let truths = vec![gt(0.3, 0.3, 0.2, 0.2, 1), gt(0.7, 0.7, 0.2, 0.2, 2)];
        let dets = vec![
            det(0.3, 0.3, 0.2, 0.2, 0.9, 1),
            det(0.7, 0.7, 0.2, 0.2, 0.8, 2),
        ];
        let (tp, fp, fn_c) = match_detections(&dets, &truths, 0.5);
        assert_eq!((tp, fp, fn_c), (2, 0, 0));
        let (p, r) = precision_recall(tp, fp, fn_c);
        assert_eq!((p, r), (1.0, 1.0));
    }

    #[test]
    fn wrong_class_is_a_false_positive() {
        let truths = vec![gt(0.3, 0.3, 0.2, 0.2, 1)];
        let dets = vec![det(0.3, 0.3, 0.2, 0.2, 0.9, 2)];
        let (tp, fp, fn_c) = match_detections(&dets, &truths, 0.5);
        assert_eq!((tp, fp, fn_c), (0, 1, 1));
    }

    #[test]
    fn duplicate_detections_count_once() {
        let truths = vec![gt(0.3, 0.3, 0.2, 0.2, 1)];
        let dets = vec![
            det(0.3, 0.3, 0.2, 0.2, 0.9, 1),
            det(0.31, 0.3, 0.2, 0.2, 0.8, 1),
        ];
        let (tp, fp, fn_c) = match_detections(&dets, &truths, 0.5);
        assert_eq!((tp, fp, fn_c), (1, 1, 0));
    }

    #[test]
    fn nan_score_is_no_detection() {
        let truths = vec![gt(0.3, 0.3, 0.2, 0.2, 1), gt(0.7, 0.7, 0.2, 0.2, 2)];
        let real = det(0.3, 0.3, 0.2, 0.2, 0.9, 1);
        let alone = match_detections(std::slice::from_ref(&real), &truths, 0.5);
        assert_eq!(alone, (1, 0, 1));
        for nan in [
            det(0.7, 0.7, 0.2, 0.2, f32::NAN, 2),
            det(0.3, 0.3, 0.2, 0.2, f32::NAN, 1),
        ] {
            let both = [nan.clone(), real.clone()];
            assert_eq!(match_detections(&both, &truths, 0.5), alone);
            assert_eq!(match_detections(&[real.clone(), nan], &truths, 0.5), alone);
        }
    }
}
