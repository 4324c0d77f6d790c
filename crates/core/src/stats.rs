//! Run reports — per-layer timing and energy for one inference — and the
//! nearest-rank percentile rule every serving report shares.

use std::sync::Arc;

use phonebit_tensor::shape::Shape4;

use crate::engine::ActivationData;

/// Timing/energy of one layer within a run.
#[derive(Debug, Clone)]
pub struct LayerRun {
    /// Layer name (e.g. `"conv3"`). Shared so steady-state runs report
    /// without allocating per layer.
    pub name: Arc<str>,
    /// Output shape produced.
    pub output_shape: Shape4,
    /// Modeled time for all kernels the layer dispatched, seconds.
    pub time_s: f64,
    /// Modeled energy, joules.
    pub energy_j: f64,
}

/// The result of one inference.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Model name.
    pub model: String,
    /// End-to-end modeled latency, seconds (includes framework overhead).
    pub total_s: f64,
    /// Total modeled energy, joules.
    pub energy_j: f64,
    /// Peak device memory during the run, bytes.
    pub peak_bytes: usize,
    /// Per-layer breakdown in execution order.
    pub per_layer: Vec<LayerRun>,
    /// Final activations (`None` for pure timing reports).
    pub output: Option<ActivationData>,
}

impl RunReport {
    /// End-to-end latency in milliseconds (the unit of Table III).
    pub fn total_ms(&self) -> f64 {
        self.total_s * 1e3
    }

    /// Frames per second at this latency.
    pub fn fps(&self) -> f64 {
        1.0 / self.total_s
    }

    /// Average power over the run, watts (the unit of Table IV).
    fn avg_power_w(&self) -> f64 {
        self.energy_j / self.total_s
    }

    /// Energy efficiency in frames per second per watt (Table IV's metric).
    fn fps_per_watt(&self) -> f64 {
        self.fps() / self.avg_power_w()
    }

    /// Time of one named layer, if present.
    pub fn layer_time_s(&self, name: &str) -> Option<f64> {
        self.per_layer
            .iter()
            .find(|l| l.name.as_ref() == name)
            .map(|l| l.time_s)
    }

    /// Renders a per-layer table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>14} {:>12} {:>12}\n",
            "layer", "output", "time(ms)", "energy(mJ)"
        ));
        for l in &self.per_layer {
            out.push_str(&format!(
                "{:<12} {:>14} {:>12.4} {:>12.4}\n",
                l.name,
                l.output_shape.to_string(),
                l.time_s * 1e3,
                l.energy_j * 1e3
            ));
        }
        out.push_str(&format!(
            "total {:.3} ms | {:.1} FPS | {:.1} mW | {:.1} FPS/W | peak {:.2} MiB\n",
            self.total_ms(),
            self.fps(),
            self.avg_power_w() * 1e3,
            self.fps_per_watt(),
            self.peak_bytes as f64 / (1024.0 * 1024.0)
        ));
        out
    }
}

/// Nearest-rank quantiles over an unsorted sample — each rank selected in
/// one copy, no full sort; zeros for an empty sample. Every serving report
/// (device runtime, estimators, fleet, CLI) reads its percentiles through
/// this one rule, so their tails are comparable.
///
/// Samples rank by [`f64::total_cmp`], so every `-0.0` ranks below every
/// `0.0`: a rank among zeros of both signs returns `-0.0` up to the last
/// `-0.0` in that order and `0.0` after it, whatever the input order.
///
/// # Panics
///
/// Panics when a sample is NaN.
pub fn nearest_rank<const N: usize>(samples: &[f64], quantiles: [f64; N]) -> [f64; N] {
    if samples.is_empty() {
        return [0.0; N];
    }
    assert!(!samples.iter().any(|x| x.is_nan()), "samples are not NaN");
    let mut ranked = samples.to_vec();
    let last = ranked.len() - 1;
    quantiles.map(|q| {
        let rank = ((q * last as f64).round() as usize).min(last);
        *ranked.select_nth_unstable_by(rank, f64::total_cmp).1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_over_one_sort() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(nearest_rank(&xs, [0.50, 0.95, 0.99]), [3.0, 5.0, 5.0]);
        assert_eq!(nearest_rank(&[], [0.50, 0.95, 0.99]), [0.0, 0.0, 0.0]);
        assert_eq!(nearest_rank(&[7.5], [0.50, 0.95, 0.99, 0.999]), [7.5; 4]);
    }

    #[test]
    fn selection_picks_what_a_full_sort_picks() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let qs = [0.0, 0.5, 0.95, 0.999, 1.0];
        let shuffled = [0.999, 0.0, 1.0, 0.5, 0.95];
        for n in 1..=200usize {
            for _ in 0..4 {
                // Few distinct values, so most ranks land among duplicates.
                let xs: Vec<f64> = (0..n)
                    .map(|_| rng.gen_range(0..n.min(20)) as f64 * 0.25 - 1.0)
                    .collect();
                let mut sorted = xs.clone();
                sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let pick = |q: f64| sorted[((q * (n - 1) as f64).round() as usize).min(n - 1)];
                assert_eq!(nearest_rank(&xs, qs), qs.map(pick), "{xs:?}");
                assert_eq!(nearest_rank(&xs, shuffled), shuffled.map(pick), "{xs:?}");
            }
        }
    }

    #[test]
    fn signed_zeros_rank_negative_first() {
        let bits = |xs: [f64; 3]| xs.map(f64::to_bits);
        let got = nearest_rank(&[0.0, -0.0, 0.0], [0.0, 0.5, 1.0]);
        assert_eq!(bits(got), bits([-0.0, 0.0, 0.0]));
    }

    #[test]
    #[should_panic(expected = "samples are not NaN")]
    fn nan_sample_panics() {
        nearest_rank(&[1.0, f64::NAN, 2.0], [0.5]);
    }

    #[test]
    #[should_panic(expected = "samples are not NaN")]
    fn lone_nan_sample_panics() {
        nearest_rank(&[f64::NAN], [0.5]);
    }

    fn report() -> RunReport {
        RunReport {
            model: "m".into(),
            total_s: 0.020,
            energy_j: 0.005,
            peak_bytes: 1024,
            per_layer: vec![
                LayerRun {
                    name: "conv1".into(),
                    output_shape: Shape4::new(1, 8, 8, 16),
                    time_s: 0.012,
                    energy_j: 0.003,
                },
                LayerRun {
                    name: "fc".into(),
                    output_shape: Shape4::new(1, 1, 1, 10),
                    time_s: 0.008,
                    energy_j: 0.002,
                },
            ],
            output: None,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.total_ms() - 20.0).abs() < 1e-9);
        assert!((r.fps() - 50.0).abs() < 1e-9);
        assert!((r.avg_power_w() - 0.25).abs() < 1e-9);
        assert!((r.fps_per_watt() - 200.0).abs() < 1e-6);
    }

    #[test]
    fn layer_lookup() {
        let r = report();
        assert_eq!(r.layer_time_s("conv1"), Some(0.012));
        assert_eq!(r.layer_time_s("missing"), None);
    }

    #[test]
    fn table_renders() {
        let t = report().to_table();
        assert!(t.contains("conv1"));
        assert!(t.contains("total"));
        assert!(t.contains("FPS/W"));
    }
}
