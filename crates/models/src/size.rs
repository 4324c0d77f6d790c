//! Model size and accuracy analytics — the data behind Table II.
//!
//! Sizes are computed from the architectures; accuracies cannot be
//! recomputed without the original training runs, so the paper's reported
//! precisions are carried as constants and the *accuracy-gap shape* is
//! reproduced on a synthetic task by `phonebit-train` (see the `table2`
//! harness).

use crate::zoo::{self, Variant};

/// One row of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct SizeRow {
    /// Model name.
    pub model: String,
    /// Full-precision size in MB, computed from the architecture.
    pub float_mb: f64,
    /// Binarized (deployed) size in MB, computed from the architecture.
    pub bnn_mb: f64,
    /// Compression ratio.
    pub ratio: f64,
    /// The paper's reported full-precision size (MB).
    pub paper_float_mb: f64,
    /// The paper's reported BNN size (MB).
    pub paper_bnn_mb: f64,
    /// The paper's reported full-precision accuracy (%).
    pub paper_float_acc: f64,
    /// The paper's reported BNN accuracy (%).
    pub paper_bnn_acc: f64,
}

/// Paper-reported Table II constants: (name, size MB fp, size MB bnn,
/// acc % fp, acc % bnn).
const PAPER_TABLE2: [(&str, f64, f64, f64, f64); 3] = [
    ("AlexNet", 249.5, 16.3, 89.0, 87.2),
    ("YOLOv2-Tiny", 63.4, 2.4, 57.1, 51.7),
    ("VGG16", 553.4, 32.1, 92.5, 87.8),
];

/// Computes all Table II rows: measured sizes next to paper values.
pub fn table2_rows() -> Vec<SizeRow> {
    let archs = [
        zoo::alexnet(Variant::Binary),
        zoo::yolov2_tiny(Variant::Binary),
        zoo::vgg16(Variant::Binary),
    ];
    archs
        .iter()
        .zip(PAPER_TABLE2.iter())
        .map(|(arch, &(name, pf, pb, pfa, pba))| {
            debug_assert_eq!(arch.name, name);
            SizeRow {
                model: arch.name.clone(),
                float_mb: arch.float_bytes() as f64 / 1e6,
                bnn_mb: arch.binary_bytes() as f64 / 1e6,
                ratio: arch.compression_ratio(),
                paper_float_mb: pf,
                paper_bnn_mb: pb,
                paper_float_acc: pfa,
                paper_bnn_acc: pba,
            }
        })
        .collect()
}

/// Renders Table II as fixed-width text.
pub fn table2_text() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>10} {:>10} {:>7} | {:>10} {:>10} | {:>8} {:>8}\n",
        "Model", "fp32(MB)", "BNN(MB)", "ratio", "paper-fp", "paper-BNN", "acc-fp%", "acc-BNN%"
    ));
    for r in table2_rows() {
        out.push_str(&format!(
            "{:<12} {:>10.1} {:>10.1} {:>6.1}x | {:>10.1} {:>10.1} | {:>8.1} {:>8.1}\n",
            r.model,
            r.float_mb,
            r.bnn_mb,
            r.ratio,
            r.paper_float_mb,
            r.paper_bnn_mb,
            r.paper_float_acc,
            r.paper_bnn_acc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_rows_in_paper_order() {
        let rows = table2_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].model, "AlexNet");
        assert_eq!(rows[1].model, "YOLOv2-Tiny");
        assert_eq!(rows[2].model, "VGG16");
    }

    #[test]
    fn measured_float_sizes_track_paper() {
        for r in table2_rows() {
            let rel = (r.float_mb - r.paper_float_mb).abs() / r.paper_float_mb;
            assert!(
                rel < 0.08,
                "{}: measured {} MB vs paper {} MB ({}% off)",
                r.model,
                r.float_mb,
                r.paper_float_mb,
                rel * 100.0
            );
        }
    }

    #[test]
    fn measured_bnn_sizes_same_order_as_paper() {
        for r in table2_rows() {
            // Exact BNN bytes depend on which layers the authors kept in
            // float (not fully specified); require the same order of
            // magnitude and direction.
            assert!(
                r.bnn_mb < r.float_mb / 8.0,
                "{}: BNN {} MB not << float {} MB",
                r.model,
                r.bnn_mb,
                r.float_mb
            );
            let rel = (r.bnn_mb - r.paper_bnn_mb).abs() / r.paper_bnn_mb;
            assert!(
                rel < 1.0,
                "{}: BNN {} MB vs paper {} MB",
                r.model,
                r.bnn_mb,
                r.paper_bnn_mb
            );
        }
    }

    #[test]
    fn compression_average_near_paper_19x() {
        // Paper: "on average 19.6x smaller".
        let rows = table2_rows();
        let avg: f64 = rows.iter().map(|r| r.ratio).sum::<f64>() / rows.len() as f64;
        assert!((12.0..30.0).contains(&avg), "avg compression {avg:.1}x");
    }

    #[test]
    fn text_table_has_all_models() {
        let t = table2_text();
        assert!(t.contains("AlexNet") && t.contains("YOLOv2-Tiny") && t.contains("VGG16"));
    }
}
