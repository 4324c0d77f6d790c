//! Kernel descriptions: what a dispatch *is* (resource profile) and what it
//! *did* (launch statistics).
//!
//! A simulated kernel has two faces:
//!
//! 1. A **functional body** — plain Rust run by [`crate::queue::CommandQueue::launch`]
//!    producing bit-exact results; a model of a plan launches an empty one.
//! 2. A [`KernelProfile`] — closed-form resource counts (useful operations,
//!    DRAM traffic, coalescing, divergence) from which the cost model derives
//!    latency and energy. Counts are *useful* work; executor-class overheads
//!    are applied by the cost model, not baked into profiles.

use crate::ndrange::NdRange;

/// Closed-form resource description of one kernel dispatch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name for reporting (e.g. `"bconv_fused"`) — always a literal,
    /// so a dispatch allocates nothing for it.
    pub name: &'static str,
    /// Work decomposition.
    pub ndrange: NdRange,
    /// Total useful f32 operations (multiply and add count separately).
    pub f32_ops: f64,
    /// Total useful integer operations (int8/int32 arithmetic).
    pub int_ops: f64,
    /// Total useful 32-bit-word bitwise operations (xor, and, popcount —
    /// a 64-bit `ulong` op counts as 2).
    pub word_ops: f64,
    /// Bytes read from DRAM (compulsory traffic; on-chip reuse already
    /// discounted).
    pub dram_read_bytes: f64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: f64,
    /// Memory coalescing efficiency (0..1]: 1.0 when consecutive work items
    /// touch consecutive addresses (NHWC packed rows), lower for strided
    /// NCHW float access.
    pub coalescing: f64,
    /// Compute inflation from wave divergence (>= 1.0; 1.0 = divergence-free,
    /// the Eqn (9) branch-free kernels).
    pub divergence: f64,
    /// SIMD lanes per bitwise instruction (1 = scalar word, 16 = `ulong16`).
    pub vector_lanes: usize,
    /// Private memory per work item, bytes (occupancy throttling per the
    /// paper's §VI-B private-memory discussion).
    pub private_bytes_per_item: usize,
}

impl KernelProfile {
    /// A named profile with everything zeroed; builder-style setters fill
    /// in the rest.
    pub fn new(name: &'static str, ndrange: NdRange) -> Self {
        Self {
            name,
            ndrange,
            f32_ops: 0.0,
            int_ops: 0.0,
            word_ops: 0.0,
            dram_read_bytes: 0.0,
            dram_write_bytes: 0.0,
            coalescing: 1.0,
            divergence: 1.0,
            vector_lanes: 1,
            private_bytes_per_item: 64,
        }
    }

    /// Sets useful f32 operation count.
    pub fn f32_ops(mut self, ops: f64) -> Self {
        self.f32_ops = ops;
        self
    }

    /// Sets useful integer operation count.
    pub fn int_ops(mut self, ops: f64) -> Self {
        self.int_ops = ops;
        self
    }

    /// Sets useful 32-bit-word bitwise operation count.
    pub fn word_ops(mut self, ops: f64) -> Self {
        self.word_ops = ops;
        self
    }

    /// Sets DRAM read traffic in bytes.
    pub fn reads(mut self, bytes: f64) -> Self {
        self.dram_read_bytes = bytes;
        self
    }

    /// Sets DRAM write traffic in bytes.
    pub fn writes(mut self, bytes: f64) -> Self {
        self.dram_write_bytes = bytes;
        self
    }

    /// Subtracts `bytes` from the read traffic, clamping at zero — how
    /// kernels account for dictionary-compressed weight banks whose raw
    /// footprint the profile builders charged. A discount of 0 is exactly
    /// the identity, so uncompressed paths are byte-identical.
    pub fn discount_reads(mut self, bytes: f64) -> Self {
        if bytes > 0.0 {
            self.dram_read_bytes = (self.dram_read_bytes - bytes).max(0.0);
        }
        self
    }

    /// Sets the coalescing efficiency.
    ///
    /// # Panics
    ///
    /// Panics if outside `(0, 1]`.
    pub fn coalescing(mut self, c: f64) -> Self {
        assert!(c > 0.0 && c <= 1.0, "coalescing must be in (0, 1], got {c}");
        self.coalescing = c;
        self
    }

    /// Sets the divergence inflation factor.
    ///
    /// # Panics
    ///
    /// Panics if below 1.0.
    pub fn divergence(mut self, d: f64) -> Self {
        assert!(d >= 1.0, "divergence factor must be >= 1.0, got {d}");
        self.divergence = d;
        self
    }

    /// Sets the bitwise vector width in lanes.
    pub fn vector_lanes(mut self, lanes: usize) -> Self {
        self.vector_lanes = lanes.max(1);
        self
    }

    /// Sets private memory per work item in bytes.
    pub fn private_bytes(mut self, bytes: usize) -> Self {
        self.private_bytes_per_item = bytes;
        self
    }

    /// Scales the profile to a batched dispatch covering `n` independent
    /// images: useful work and DRAM traffic multiply by `n` while the fixed
    /// per-dispatch launch overhead (applied by the cost model) is paid
    /// once — the throughput engine's launch-amortization win.
    ///
    /// `batched(1)` is the identity, so single-image paths can share the
    /// batched entry points without perturbing their modeled cost.
    pub fn batched(mut self, n: usize) -> Self {
        let n = n.max(1);
        if n == 1 {
            return self;
        }
        let f = n as f64;
        self.f32_ops *= f;
        self.int_ops *= f;
        self.word_ops *= f;
        self.dram_read_bytes *= f;
        self.dram_write_bytes *= f;
        self.ndrange = NdRange::linear(self.ndrange.work_items() * n);
        self
    }

    /// Total DRAM traffic in bytes.
    pub fn total_bytes(&self) -> f64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// What one dispatch cost, as computed by [`crate::cost::estimate`].
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchStats {
    /// Kernel name.
    pub name: &'static str,
    /// Modeled wall time of the dispatch in seconds (including launch
    /// overhead).
    pub time_s: f64,
    /// Compute-limited time component, seconds.
    pub compute_time_s: f64,
    /// Memory-limited time component, seconds.
    pub memory_time_s: f64,
    /// Dynamic + static energy in joules.
    pub energy_j: f64,
    /// Executed (overhead-inflated) instruction count.
    pub executed_ops: f64,
    /// DRAM bytes moved.
    pub dram_bytes: f64,
    /// Average ALU utilization during the dispatch (0..1).
    pub alu_util: f64,
    /// Average DRAM bandwidth utilization during the dispatch (0..1).
    pub mem_util: f64,
    /// Occupancy after private-memory throttling (0..1).
    pub occupancy: f64,
}

impl LaunchStats {
    /// Whether this dispatch was bound by memory rather than compute.
    pub fn memory_bound(&self) -> bool {
        self.memory_time_s > self.compute_time_s
    }
}

/// One entry in a queue's timeline: a dispatch placed in simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchEvent {
    /// Statistics of the dispatch.
    pub stats: LaunchStats,
    /// Simulated start time, seconds from queue creation.
    pub start_s: f64,
}

impl LaunchEvent {
    /// Simulated end time.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.stats.time_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let p = KernelProfile::new("k", NdRange::linear(100))
            .f32_ops(10.0)
            .int_ops(20.0)
            .word_ops(30.0)
            .reads(1000.0)
            .writes(500.0)
            .coalescing(0.5)
            .divergence(1.25)
            .vector_lanes(16)
            .private_bytes(256);
        assert_eq!((p.f32_ops, p.int_ops, p.word_ops), (10.0, 20.0, 30.0));
        assert_eq!(p.total_bytes(), 1500.0);
        assert_eq!(p.vector_lanes, 16);
        assert_eq!(p.private_bytes_per_item, 256);
        assert_eq!(p.divergence, 1.25);
    }

    #[test]
    fn batched_scales_work_not_shape_knobs() {
        let p = KernelProfile::new("k", NdRange::linear(100))
            .f32_ops(10.0)
            .int_ops(20.0)
            .word_ops(30.0)
            .reads(1000.0)
            .writes(500.0)
            .coalescing(0.5)
            .divergence(1.25);
        let b = p.clone().batched(4);
        let ops = |k: &KernelProfile| (k.f32_ops, k.int_ops, k.word_ops);
        assert_eq!(ops(&b), (40.0, 80.0, 120.0));
        assert_eq!(ops(&p), (10.0, 20.0, 30.0));
        assert_eq!(b.total_bytes(), 4.0 * p.total_bytes());
        assert_eq!(b.ndrange.work_items(), 400);
        // Efficiency knobs describe the kernel, not the batch.
        assert_eq!(b.coalescing, p.coalescing);
        assert_eq!(b.divergence, p.divergence);
        assert_eq!(p.clone().batched(1), p);
    }

    #[test]
    fn discount_reads_clamps_and_preserves_identity() {
        let p = KernelProfile::new("k", NdRange::linear(1)).reads(100.0);
        assert_eq!(p.clone().discount_reads(0.0), p);
        assert_eq!(p.clone().discount_reads(-5.0), p);
        assert_eq!(p.clone().discount_reads(30.0).dram_read_bytes, 70.0);
        assert_eq!(p.clone().discount_reads(500.0).dram_read_bytes, 0.0);
    }

    #[test]
    #[should_panic(expected = "coalescing")]
    fn invalid_coalescing_panics() {
        let _ = KernelProfile::new("k", NdRange::linear(1)).coalescing(0.0);
    }

    #[test]
    #[should_panic(expected = "divergence")]
    fn invalid_divergence_panics() {
        let _ = KernelProfile::new("k", NdRange::linear(1)).divergence(0.5);
    }

    #[test]
    fn vector_lanes_clamped_to_one() {
        let p = KernelProfile::new("k", NdRange::linear(1)).vector_lanes(0);
        assert_eq!(p.vector_lanes, 1);
    }

    #[test]
    fn launch_event_end() {
        let stats = LaunchStats {
            name: "k",
            time_s: 2.0,
            compute_time_s: 1.5,
            memory_time_s: 0.5,
            energy_j: 0.0,
            executed_ops: 0.0,
            dram_bytes: 0.0,
            alu_util: 0.0,
            mem_util: 0.0,
            occupancy: 1.0,
        };
        assert!(!stats.memory_bound());
        let ev = LaunchEvent {
            stats,
            start_s: 1.0,
        };
        assert_eq!(ev.end_s(), 3.0);
    }
}
