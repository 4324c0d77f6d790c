//! Shared harness: runs the full Table III grid (2 phones x 3 models x 6
//! frameworks) on the simulator and renders paper-vs-measured tables.

use phonebit_baselines::common::{Framework, FrameworkError};
use phonebit_baselines::{CnnDroid, TfLite};
use phonebit_core::estimate_arch;
use phonebit_core::stats::RunReport;
use phonebit_gpusim::Phone;
use phonebit_models::zoo::{self, Variant};

use crate::paper::{Cell, FRAMEWORKS, MODELS};

/// One measured Table III cell.
#[derive(Debug, Clone)]
pub struct MeasuredCell {
    /// Framework label.
    pub framework: String,
    /// Runtime/energy report, or the failure the framework hit.
    pub result: Result<RunReport, FrameworkError>,
}

impl MeasuredCell {
    /// The cell in paper form.
    fn cell(&self) -> Cell {
        match &self.result {
            Ok(r) => Cell::Ms(r.total_s * 1e3),
            Err(FrameworkError::OutOfMemory { .. }) => Cell::Oom,
            Err(FrameworkError::DelegateCrash { .. }) => Cell::Crash,
        }
    }
}

/// All six frameworks' results for one model on one phone.
pub fn run_row(phone: &Phone, model_idx: usize) -> Vec<MeasuredCell> {
    let float_arch = match model_idx {
        0 => zoo::alexnet(Variant::Float),
        1 => zoo::yolov2_tiny(Variant::Float),
        _ => zoo::vgg16(Variant::Float),
    };
    let binary_arch = match model_idx {
        0 => zoo::alexnet(Variant::Binary),
        1 => zoo::yolov2_tiny(Variant::Binary),
        _ => zoo::vgg16(Variant::Binary),
    };
    let baselines: Vec<(String, Result<RunReport, FrameworkError>)> = vec![
        (
            CnnDroid::cpu().label(),
            CnnDroid::cpu().estimate(phone, &float_arch),
        ),
        (
            CnnDroid::gpu().label(),
            CnnDroid::gpu().estimate(phone, &float_arch),
        ),
        (
            TfLite::cpu().label(),
            TfLite::cpu().estimate(phone, &float_arch),
        ),
        (
            TfLite::gpu().label(),
            TfLite::gpu().estimate(phone, &float_arch),
        ),
        (
            TfLite::quant().label(),
            TfLite::quant().estimate(phone, &float_arch),
        ),
    ];
    let mut cells: Vec<MeasuredCell> = baselines
        .into_iter()
        .map(|(framework, result)| MeasuredCell { framework, result })
        .collect();
    cells.push(MeasuredCell {
        framework: "PhoneBit".into(),
        result: Ok(estimate_arch(phone, &binary_arch)),
    });
    cells
}

/// Renders one phone's Table III block: measured next to paper.
pub fn render_block(
    phone: &Phone,
    measured: &[Vec<MeasuredCell>],
    paper: &[[Cell; 6]; 3],
) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} ({}) ==\n", phone.name, phone.soc));
    out.push_str(&format!("{:<12}", "model"));
    for f in FRAMEWORKS {
        out.push_str(&format!(" {f:>14}"));
    }
    out.push('\n');
    for (m, row) in measured.iter().enumerate() {
        out.push_str(&format!("{:<12}", MODELS[m]));
        for cell in row {
            out.push_str(&format!(" {:>14}", cell.cell().text()));
        }
        out.push_str("  <- measured (ms)\n");
        out.push_str(&format!("{:<12}", ""));
        for p in &paper[m] {
            out.push_str(&format!(" {:>14}", p.text()));
        }
        out.push_str("  <- paper (ms)\n");
    }
    out
}

/// Speedup of PhoneBit over each baseline for one measured row.
pub fn speedups(row: &[MeasuredCell]) -> Vec<(String, Option<f64>)> {
    let pb = row
        .last()
        .and_then(|c| c.result.as_ref().ok())
        .map(|r| r.total_s)
        .expect("PhoneBit always runs");
    row[..row.len() - 1]
        .iter()
        .map(|c| {
            let s = c.result.as_ref().ok().map(|r| r.total_s / pb);
            (c.framework.clone(), s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full Table III grid: `grid[phone][model][framework]`.
    fn run_grid() -> Vec<Vec<Vec<MeasuredCell>>> {
        Phone::all()
            .iter()
            .map(|phone| (0..3).map(|m| run_row(phone, m)).collect())
            .collect()
    }

    #[test]
    fn grid_matches_paper_failure_pattern() {
        let grid = run_grid();
        assert_eq!(grid.len(), 2);
        for phone_block in &grid {
            // VGG16 row: CNNdroid OOM x2, TFLite GPU CRASH.
            let vgg = &phone_block[2];
            assert_eq!(vgg[0].cell(), Cell::Oom);
            assert_eq!(vgg[1].cell(), Cell::Oom);
            assert_eq!(vgg[3].cell(), Cell::Crash);
            // AlexNet: TFLite GPU CRASH.
            assert_eq!(phone_block[0][3].cell(), Cell::Crash);
            // YOLO: all numeric.
            assert!(phone_block[1].iter().all(|c| c.cell().ms().is_some()));
            // PhoneBit never fails and wins every comparison.
            for row in phone_block {
                let pb = row[5].cell().ms().expect("phonebit runs");
                for cell in &row[..5] {
                    if let Some(ms) = cell.cell().ms() {
                        assert!(pb < ms, "PhoneBit {pb} ms should beat {ms} ms");
                    }
                }
            }
        }
    }

    #[test]
    fn render_contains_all_labels() {
        let phone = Phone::xiaomi_9();
        let measured: Vec<Vec<MeasuredCell>> = (0..3).map(|m| run_row(&phone, m)).collect();
        let text = render_block(&phone, &measured, &crate::paper::TABLE3_SD855);
        for f in FRAMEWORKS {
            assert!(text.contains(f));
        }
        for m in MODELS {
            assert!(text.contains(m));
        }
        assert!(text.contains("OOM") && text.contains("CRASH"));
    }

    #[test]
    fn speedups_are_positive() {
        let phone = Phone::xiaomi_9();
        let row = run_row(&phone, 1); // YOLO: all frameworks produce numbers
        for (name, s) in speedups(&row) {
            let s = s.unwrap_or_else(|| panic!("{name} should have run"));
            assert!(s > 1.0, "{name} speedup {s}");
        }
    }
}
