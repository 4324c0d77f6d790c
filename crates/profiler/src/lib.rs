//! # phonebit-profiler
//!
//! A Trepn-like power profiler over the simulator's dispatch timeline —
//! the substitute for the Qualcomm Trepn Power Profiler the paper uses for
//! Table IV (see DESIGN.md, substitutions).
//!
//! Trepn samples battery power at a fixed rate while the workload loops.
//! Here the "battery" is the simulator's energy model: every dispatch on a
//! [`phonebit_gpusim::CommandQueue`] carries its modeled energy, so the
//! profiler reconstructs an instantaneous power trace, samples it, and
//! reports the Table IV metrics (mW and FPS/W).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use phonebit_gpusim::calib::EnergyParams;
use phonebit_gpusim::kernel::LaunchEvent;

/// An instantaneous power trace sampled at fixed intervals.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    /// `(time_s, watts)` samples.
    pub samples: Vec<(f64, f64)>,
    /// Sampling interval, seconds.
    pub interval_s: f64,
}

impl PowerTrace {
    /// Samples the power of a dispatch timeline at `rate_hz`.
    ///
    /// Each dispatch's dynamic energy is smeared uniformly over its
    /// duration; gaps between dispatches draw static power only.
    ///
    /// # Panics
    ///
    /// Panics if `rate_hz` is not positive.
    pub fn sample(events: &[LaunchEvent], energy: &EnergyParams, rate_hz: f64) -> Self {
        assert!(rate_hz > 0.0, "sampling rate must be positive");
        let interval_s = 1.0 / rate_hz;
        let end = events.last().map(|e| e.end_s()).unwrap_or(0.0);
        let mut samples = Vec::new();
        let mut t = 0.0;
        while t <= end {
            samples.push((t, instantaneous_power(events, energy, t)));
            t += interval_s;
        }
        Self {
            samples,
            interval_s,
        }
    }

    /// Mean power over the trace, watts.
    pub fn avg_power_w(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|(_, p)| p).sum::<f64>() / self.samples.len() as f64
    }

    /// Peak sampled power, watts.
    pub fn peak_power_w(&self) -> f64 {
        self.samples.iter().map(|&(_, p)| p).fold(0.0, f64::max)
    }

    /// Renders the trace as `time_ms,mw` CSV lines (Trepn's export format).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time_ms,power_mw\n");
        for (t, p) in &self.samples {
            out.push_str(&format!("{:.3},{:.1}\n", t * 1e3, p * 1e3));
        }
        out
    }
}

/// Power at instant `t` over a timeline: static power plus the dynamic
/// power of whichever dispatch covers `t`.
fn instantaneous_power(events: &[LaunchEvent], energy: &EnergyParams, t: f64) -> f64 {
    let mut p = energy.p_static_w;
    for ev in events {
        if t >= ev.start_s && t < ev.end_s() && ev.stats.time_s > 0.0 {
            let dynamic = (ev.stats.energy_j - ev.stats.time_s * energy.p_static_w).max(0.0);
            p += dynamic / ev.stats.time_s;
            break;
        }
    }
    p
}

/// The Table IV row for one framework: power and energy efficiency while
/// looping inference frames.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyReport {
    /// Framework label.
    pub framework: String,
    /// Per-frame latency, seconds.
    pub frame_s: f64,
    /// Average power during the loop, watts.
    pub avg_power_w: f64,
    /// Energy per frame, joules.
    pub joules_per_frame: f64,
    /// Frames per second per watt — Table IV's efficiency metric.
    pub fps_per_watt: f64,
}

impl EnergyReport {
    /// Builds a report from one inference's latency and energy, as if the
    /// workload looped continuously (Trepn measures steady state).
    pub fn from_frame(framework: impl Into<String>, frame_s: f64, energy_j: f64) -> Self {
        let avg_power_w = energy_j / frame_s;
        Self {
            framework: framework.into(),
            frame_s,
            avg_power_w,
            joules_per_frame: energy_j,
            fps_per_watt: (1.0 / frame_s) / avg_power_w,
        }
    }

    /// Power in milliwatts (Table IV's unit).
    pub fn power_mw(&self) -> f64 {
        self.avg_power_w * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_gpusim::kernel::LaunchStats;
    use phonebit_gpusim::DeviceKind;

    fn event(start: f64, dur: f64, energy: f64) -> LaunchEvent {
        LaunchEvent {
            stats: LaunchStats {
                name: "k",
                time_s: dur,
                compute_time_s: dur,
                memory_time_s: 0.0,
                energy_j: energy,
                executed_ops: 0.0,
                dram_bytes: 0.0,
                alu_util: 1.0,
                mem_util: 0.0,
                occupancy: 1.0,
            },
            start_s: start,
        }
    }

    fn gpu_energy() -> EnergyParams {
        EnergyParams::for_kind(DeviceKind::Gpu)
    }

    #[test]
    fn idle_trace_draws_static_power() {
        let e = gpu_energy();
        let p = instantaneous_power(&[], &e, 0.5);
        assert!((p - e.p_static_w).abs() < 1e-12);
    }

    #[test]
    fn busy_interval_draws_dynamic_power() {
        let e = gpu_energy();
        // 1 J over 1 s, of which static accounts for p_static.
        let events = vec![event(0.0, 1.0, 1.0)];
        let busy = instantaneous_power(&events, &e, 0.5);
        assert!((busy - (e.p_static_w + (1.0 - e.p_static_w))).abs() < 1e-9);
        let after = instantaneous_power(&events, &e, 1.5);
        assert!((after - e.p_static_w).abs() < 1e-12);
    }

    #[test]
    fn sampling_average_matches_energy_over_time() {
        let e = gpu_energy();
        let events = vec![event(0.0, 0.4, 0.2), event(0.4, 0.6, 0.5)];
        let trace = PowerTrace::sample(&events, &e, 10_000.0);
        // Total energy = 0.7 J over 1 s -> ~0.7 W average.
        assert!(
            (trace.avg_power_w() - 0.7).abs() < 0.01,
            "avg {}",
            trace.avg_power_w()
        );
        assert!(trace.peak_power_w() >= trace.avg_power_w());
    }

    #[test]
    fn csv_export_shape() {
        let e = gpu_energy();
        let trace = PowerTrace::sample(&[event(0.0, 0.01, 0.001)], &e, 1000.0);
        let csv = trace.to_csv();
        assert!(csv.starts_with("time_ms,power_mw\n"));
        assert!(csv.lines().count() >= 2);
    }

    #[test]
    fn energy_report_derivations() {
        // 20 ms frames at 0.005 J each: 0.25 W, 50 FPS, 200 FPS/W.
        let r = EnergyReport::from_frame("PhoneBit", 0.020, 0.005);
        assert!((r.power_mw() - 250.0).abs() < 1e-9);
        assert!((r.fps_per_watt - 200.0).abs() < 1e-6);
        assert!((r.joules_per_frame - 0.005).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        PowerTrace::sample(&[], &gpu_energy(), 0.0);
    }
}
