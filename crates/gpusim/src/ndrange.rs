//! NDRange geometry — the OpenCL work decomposition the simulator dispatches.

use std::fmt;

/// A 1–3 dimensional index space of work items, optionally blocked into
/// work groups (the OpenCL `global_work_size` / `local_work_size` pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NdRange {
    /// Global work size per dimension.
    pub global: [usize; 3],
    /// Work-group (local) size per dimension.
    pub local: [usize; 3],
}

impl NdRange {
    /// One-dimensional range with an automatically chosen work group.
    pub fn linear(n: usize) -> Self {
        Self {
            global: [n, 1, 1],
            local: [n.clamp(1, 64), 1, 1],
        }
    }

    /// Total number of work items.
    pub fn work_items(&self) -> usize {
        self.global.iter().product()
    }
}

impl fmt::Display for NdRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "global [{}, {}, {}] local [{}, {}, {}]",
            self.global[0],
            self.global[1],
            self.global[2],
            self.local[0],
            self.local[1],
            self.local[2]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_range() {
        let r = NdRange::linear(1000);
        assert_eq!(r.work_items(), 1000);
        assert_eq!(r.local, [64, 1, 1]);
    }

    #[test]
    fn small_linear_range_clamps_local() {
        let r = NdRange::linear(3);
        assert_eq!(r.local, [3, 1, 1]);
    }
}
