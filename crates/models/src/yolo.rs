//! YOLOv2 detection head decoding: from the 125-channel output map to
//! boxes, with confidence filtering and non-maximum suppression.
//!
//! The paper's YOLOv2-Tiny network ends in a float 1x1 convolution to 125
//! channels = 5 anchors x (4 box coords + objectness + 20 VOC classes);
//! this module turns that map into detections for the `object_detect`
//! example.

use phonebit_nn::act::sigmoid;
use phonebit_tensor::tensor::Tensor;

/// The VOC2007 class names, index-aligned with the 20 class logits.
pub const VOC_CLASSES: [&str; 20] = [
    "aeroplane",
    "bicycle",
    "bird",
    "boat",
    "bottle",
    "bus",
    "car",
    "cat",
    "chair",
    "cow",
    "diningtable",
    "dog",
    "horse",
    "motorbike",
    "person",
    "pottedplant",
    "sheep",
    "sofa",
    "train",
    "tvmonitor",
];

/// The five anchor boxes of tiny-yolo-voc, in grid-cell units.
const ANCHORS: [(f32, f32); 5] = [
    (1.08, 1.19),
    (3.42, 4.41),
    (6.63, 11.38),
    (9.42, 5.11),
    (16.62, 10.52),
];

/// One decoded detection, coordinates normalized to `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Box center x.
    pub x: f32,
    /// Box center y.
    pub y: f32,
    /// Box width.
    pub w: f32,
    /// Box height.
    pub h: f32,
    /// Objectness x class probability.
    pub score: f32,
    /// Class index into [`VOC_CLASSES`].
    pub class_id: usize,
}

impl Detection {
    /// Class name.
    pub fn class_name(&self) -> &'static str {
        VOC_CLASSES[self.class_id]
    }

    /// Intersection-over-union with another detection.
    pub fn iou(&self, other: &Detection) -> f32 {
        let half = |d: &Detection| {
            (
                d.x - d.w / 2.0,
                d.y - d.h / 2.0,
                d.x + d.w / 2.0,
                d.y + d.h / 2.0,
            )
        };
        let (ax0, ay0, ax1, ay1) = half(self);
        let (bx0, by0, bx1, by1) = half(other);
        let iw = (ax1.min(bx1) - ax0.max(bx0)).max(0.0);
        let ih = (ay1.min(by1) - ay0.max(by0)).max(0.0);
        let inter = iw * ih;
        let union = self.w * self.h + other.w * other.h - inter;
        if union <= 0.0 {
            0.0
        } else {
            inter / union
        }
    }
}

/// Decodes a YOLOv2 output map `(1, gh, gw, anchors * (5 + classes))` into
/// detections above `conf_threshold`.
///
/// An anchor whose objectness is below the threshold is skipped before its
/// softmax: the best class probability is at most 1, so its score could not
/// pass. A NaN score is no detection.
///
/// # Panics
///
/// Panics if the channel count is not `anchors * (5 + classes)` for the
/// standard 5 anchors / 20 classes.
pub fn decode(output: &Tensor<f32>, conf_threshold: f32) -> Vec<Detection> {
    let s = output.shape();
    let num_anchors = ANCHORS.len();
    let per_anchor = 5 + VOC_CLASSES.len();
    assert_eq!(
        s.c,
        num_anchors * per_anchor,
        "YOLO head must have {} channels, got {}",
        num_anchors * per_anchor,
        s.c
    );
    let mut dets = Vec::new();
    for gy in 0..s.h {
        for gx in 0..s.w {
            for (a, &(aw, ah)) in ANCHORS.iter().enumerate().take(num_anchors) {
                let base = a * per_anchor;
                let at = |off: usize| output.at(0, gy, gx, base + off);
                let objectness = sigmoid(at(4));
                if objectness < conf_threshold || objectness.is_nan() {
                    continue;
                }
                // Class distribution via softmax over the 20 logits.
                let mut cls = [0f32; VOC_CLASSES.len()];
                for (i, p) in cls.iter_mut().enumerate() {
                    *p = at(5 + i);
                }
                phonebit_nn::act::softmax(&mut cls);
                let (class_id, &class_prob) = cls
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.total_cmp(y.1))
                    .expect("20 classes");
                let score = objectness * class_prob;
                if score < conf_threshold || score.is_nan() {
                    continue;
                }
                dets.push(Detection {
                    x: (gx as f32 + sigmoid(at(0))) / s.w as f32,
                    y: (gy as f32 + sigmoid(at(1))) / s.h as f32,
                    w: aw * at(2).exp() / s.w as f32,
                    h: ah * at(3).exp() / s.h as f32,
                    score,
                    class_id,
                });
            }
        }
    }
    dets
}

/// Greedy per-class non-maximum suppression.
pub fn nms(mut dets: Vec<Detection>, iou_threshold: f32) -> Vec<Detection> {
    dets.sort_by(|a, b| b.score.total_cmp(&a.score));
    let mut keep: Vec<Detection> = Vec::new();
    for d in dets {
        let suppressed = keep
            .iter()
            .any(|k| k.class_id == d.class_id && k.iou(&d) > iou_threshold);
        if !suppressed {
            keep.push(d);
        }
    }
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_tensor::shape::{Layout, Shape4};

    fn empty_map(gh: usize, gw: usize) -> Tensor<f32> {
        // Strongly negative objectness everywhere: no detections.
        let c = ANCHORS.len() * 25;
        let mut t = Tensor::from_vec(
            Shape4::new(1, gh, gw, c),
            Layout::Nhwc,
            vec![0.0; gh * gw * c],
        );
        for gy in 0..gh {
            for gx in 0..gw {
                for a in 0..ANCHORS.len() {
                    t.set(0, gy, gx, a * 25 + 4, -20.0);
                }
            }
        }
        t
    }

    #[test]
    fn silent_map_yields_nothing() {
        let t = empty_map(13, 13);
        assert!(decode(&t, 0.3).is_empty());
    }

    #[test]
    fn strong_cell_is_detected() {
        let mut t = empty_map(13, 13);
        // Light up anchor 1 at cell (6, 7) with class 14 ("person").
        t.set(0, 6, 7, 25 + 4, 10.0); // objectness
        t.set(0, 6, 7, 25 + 5 + 14, 12.0); // class logit
        let dets = decode(&t, 0.3);
        assert_eq!(dets.len(), 1);
        let d = &dets[0];
        assert_eq!(d.class_id, 14);
        assert_eq!(d.class_name(), "person");
        assert!(d.score > 0.9);
        // Center near cell (7+0.5)/13, (6+0.5)/13.
        assert!((d.x - 7.5 / 13.0).abs() < 0.01);
        assert!((d.y - 6.5 / 13.0).abs() < 0.01);
    }

    #[test]
    fn iou_of_identical_boxes_is_one() {
        let d = Detection {
            x: 0.5,
            y: 0.5,
            w: 0.2,
            h: 0.2,
            score: 1.0,
            class_id: 0,
        };
        assert!((d.iou(&d.clone()) - 1.0).abs() < 1e-6);
        let far = Detection {
            x: 0.1,
            y: 0.1,
            w: 0.05,
            h: 0.05,
            score: 1.0,
            class_id: 0,
        };
        assert_eq!(d.iou(&far), 0.0);
    }

    #[test]
    fn nms_suppresses_overlaps_keeps_best() {
        let a = Detection {
            x: 0.5,
            y: 0.5,
            w: 0.2,
            h: 0.2,
            score: 0.9,
            class_id: 3,
        };
        let b = Detection {
            x: 0.51,
            y: 0.5,
            w: 0.2,
            h: 0.2,
            score: 0.7,
            class_id: 3,
        };
        let c = Detection {
            x: 0.9,
            y: 0.9,
            w: 0.1,
            h: 0.1,
            score: 0.5,
            class_id: 3,
        };
        let kept = nms(vec![b.clone(), a.clone(), c.clone()], 0.5);
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0], a);
        assert_eq!(kept[1], c);
    }

    #[test]
    fn nms_keeps_different_classes() {
        let a = Detection {
            x: 0.5,
            y: 0.5,
            w: 0.2,
            h: 0.2,
            score: 0.9,
            class_id: 1,
        };
        let b = Detection {
            x: 0.5,
            y: 0.5,
            w: 0.2,
            h: 0.2,
            score: 0.8,
            class_id: 2,
        };
        assert_eq!(nms(vec![a, b], 0.5).len(), 2);
    }

    /// The body `decode` had before it skipped dead anchors: a softmax and
    /// a `Vec` per anchor, every score compared.
    fn decode_every_anchor(output: &Tensor<f32>, conf_threshold: f32) -> Vec<Detection> {
        let s = output.shape();
        let mut dets = Vec::new();
        for (gy, gx) in (0..s.h).flat_map(|gy| (0..s.w).map(move |gx| (gy, gx))) {
            for (a, &(aw, ah)) in ANCHORS.iter().enumerate() {
                let at = |off: usize| output.at(0, gy, gx, a * 25 + off);
                let objectness = sigmoid(at(4));
                let mut cls: Vec<f32> = (0..20).map(|i| at(5 + i)).collect();
                phonebit_nn::act::softmax(&mut cls);
                let (class_id, &class_prob) = cls
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
                    .unwrap();
                let score = objectness * class_prob;
                if score < conf_threshold {
                    continue;
                }
                dets.push(Detection {
                    x: (gx as f32 + sigmoid(at(0))) / s.w as f32,
                    y: (gy as f32 + sigmoid(at(1))) / s.h as f32,
                    w: aw * at(2).exp() / s.w as f32,
                    h: ah * at(3).exp() / s.h as f32,
                    score,
                    class_id,
                });
            }
        }
        dets
    }

    #[test]
    fn skipping_dead_anchors_keeps_every_detection() {
        let mut state = 7u64;
        let mut logit = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 40) as f32 / (1u64 << 24) as f32 * 16.0 - 8.0
        };
        for _ in 0..4 {
            let t = Tensor::from_fn(Shape4::new(1, 13, 13, 125), |_, _, _, _| logit());
            for conf in [0.0, 0.05, 0.3, 0.5, 0.9] {
                let want = decode_every_anchor(&t, conf);
                assert!(conf > 0.0 || want.len() == 13 * 13 * 5);
                assert_eq!(decode(&t, conf), want, "conf {conf}");
            }
        }
    }

    #[test]
    fn nan_head_decodes_without_panicking() {
        let mut t = empty_map(13, 13);
        // A NaN class logit beside a live objectness, and a NaN objectness.
        t.set(0, 2, 3, 4, 10.0);
        t.set(0, 2, 3, 5 + 7, f32::NAN);
        t.set(0, 4, 5, 25 + 4, f32::NAN);
        // A live cell that must survive beside them.
        t.set(0, 6, 7, 25 + 4, 10.0);
        t.set(0, 6, 7, 25 + 5 + 14, 12.0);
        let dets = decode(&t, 0.3);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].class_id, 14);
        // `nms` orders NaN scores too.
        let nan = Detection {
            score: f32::NAN,
            ..dets[0].clone()
        };
        let kept = nms(vec![dets[0].clone(), nan], 0.5);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    #[should_panic(expected = "channels")]
    fn wrong_channel_count_panics() {
        let t = Tensor::<f32>::zeros(Shape4::new(1, 13, 13, 100), Layout::Nhwc);
        decode(&t, 0.5);
    }
}
