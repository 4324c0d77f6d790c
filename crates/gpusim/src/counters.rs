//! Aggregated per-kernel statistics over a queue timeline.

use std::collections::BTreeMap;

use crate::kernel::LaunchEvent;

/// Totals for one kernel name.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelTotals {
    /// Number of dispatches.
    pub dispatches: usize,
    /// Summed modeled time, seconds.
    pub time_s: f64,
    /// Summed modeled energy, joules.
    pub energy_j: f64,
    /// Summed executed instructions.
    pub executed_ops: f64,
    /// Summed DRAM traffic, bytes.
    pub dram_bytes: f64,
}

/// A per-kernel-name breakdown of a timeline, ordered by name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    totals: BTreeMap<&'static str, KernelTotals>,
}

impl StatsReport {
    /// Builds a report from a timeline.
    pub fn from_timeline(events: &[LaunchEvent]) -> Self {
        let mut totals: BTreeMap<&'static str, KernelTotals> = BTreeMap::new();
        for ev in events {
            let t = totals.entry(ev.stats.name).or_default();
            t.dispatches += 1;
            t.time_s += ev.stats.time_s;
            t.energy_j += ev.stats.energy_j;
            t.executed_ops += ev.stats.executed_ops;
            t.dram_bytes += ev.stats.dram_bytes;
        }
        Self { totals }
    }

    /// Totals for one kernel name, if it was dispatched.
    pub fn get(&self, name: &str) -> Option<&KernelTotals> {
        self.totals.get(name)
    }

    /// Iterates `(name, totals)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &KernelTotals)> {
        self.totals.iter().map(|(k, v)| (*k, v))
    }

    /// Number of distinct kernel names.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Whether the report is empty.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// Grand total time across all kernels, seconds.
    pub fn total_time_s(&self) -> f64 {
        self.totals.values().map(|t| t.time_s).sum()
    }

    /// Grand total energy across all kernels, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.totals.values().map(|t| t.energy_j).sum()
    }

    /// Renders a fixed-width text table (name, dispatches, ms, mJ, MB).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>6} {:>10} {:>10} {:>10}\n",
            "kernel", "calls", "time(ms)", "energy(mJ)", "dram(MB)"
        ));
        for (name, t) in self.iter() {
            out.push_str(&format!(
                "{:<24} {:>6} {:>10.3} {:>10.3} {:>10.3}\n",
                name,
                t.dispatches,
                t.time_s * 1e3,
                t.energy_j * 1e3,
                t.dram_bytes / 1e6
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::LaunchStats;

    fn event(name: &'static str, time: f64, energy: f64) -> LaunchEvent {
        LaunchEvent {
            stats: LaunchStats {
                name,
                time_s: time,
                compute_time_s: time,
                memory_time_s: 0.0,
                energy_j: energy,
                executed_ops: 100.0,
                dram_bytes: 10.0,
                alu_util: 0.5,
                mem_util: 0.1,
                occupancy: 1.0,
            },
            start_s: 0.0,
        }
    }

    #[test]
    fn aggregates_by_name() {
        let tl = vec![
            event("a", 1.0, 0.1),
            event("b", 2.0, 0.2),
            event("a", 3.0, 0.3),
        ];
        let r = StatsReport::from_timeline(&tl);
        assert_eq!(r.len(), 2);
        let a = r.get("a").unwrap();
        assert_eq!(a.dispatches, 2);
        assert!((a.time_s - 4.0).abs() < 1e-12);
        assert!((a.energy_j - 0.4).abs() < 1e-12);
        assert!((r.total_time_s() - 6.0).abs() < 1e-12);
        assert!((r.total_energy_j() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn empty_timeline() {
        let r = StatsReport::from_timeline(&[]);
        assert!(r.is_empty());
        assert_eq!(r.total_time_s(), 0.0);
        assert!(r.get("x").is_none());
    }

    #[test]
    fn table_renders_rows() {
        let tl = vec![event("bconv_fused", 0.001, 0.0005)];
        let r = StatsReport::from_timeline(&tl);
        let table = r.to_table();
        assert!(table.contains("bconv_fused"));
        assert!(table.contains("kernel"));
        assert!(table.lines().count() >= 2);
    }
}
