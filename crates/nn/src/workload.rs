//! Workload optimization (paper §VI-B) plus the tiled decomposition.
//!
//! PhoneBit assigns each GPU thread the computation of **8 convolution
//! filters**, binarizing the 8 results and packing them into one byte in
//! private memory (Fig 4), which folds the packing step into the convolution
//! kernel and avoids a synchronization pass. The catch is private-memory
//! pressure: "when the channel number is too large, private memory of one
//! thread cannot load the required data" — so for channel counts above 256
//! the packing runs as a separate kernel instead.
//!
//! The tiled decomposition additionally gives each integrated thread
//! [`TILED_PIXELS_PER_THREAD`] output pixels: the gathered windows live in
//! private memory and are reused across every filter the thread computes,
//! which this policy accounts for in [`WorkloadPolicy::private_bytes`]
//! (occupancy) and [`WorkloadPolicy::work_items`] (thread counts).

use phonebit_tensor::shape::ConvGeometry;

/// Output pixels one integrated thread of the *modeled* device holds. The
/// policy's own constant, not the host kernels' register tile
/// (`kernels::tiled::TILE_PIXELS`): retiling the host must not move
/// `private_bytes`, `work_items` and with them every modeled time — it is
/// the value the committed `BENCH_*.json` baselines were generated with.
pub const TILED_PIXELS_PER_THREAD: usize = 2;

/// The channel-count threshold above which packing is split out of the
/// convolution kernel (paper §VI-B).
pub const INTEGRATION_CHANNEL_LIMIT: usize = 256;

/// How a binary convolution layer is decomposed across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadPolicy {
    /// Filters computed (and packed) by one thread.
    pub filters_per_thread: usize,
    /// Output pixels whose gathered windows one thread holds and reuses
    /// (the tiled kernels' pixel-tile width; 1 = untiled).
    pub pixels_per_thread: usize,
    /// Whether binarize+pack happens inside the convolution kernel
    /// (integrated) or in a separate kernel afterwards.
    pub integrated_packing: bool,
}

impl WorkloadPolicy {
    /// The paper's policy: integrate 8 filters per thread when the input
    /// channel count allows it, otherwise fall back to one filter per thread
    /// with a separate packing kernel. Integrated threads run the tiled
    /// kernel and hold [`TILED_PIXELS_PER_THREAD`] gathered windows; the
    /// fallback keeps one pixel per thread so large-channel windows still
    /// fit.
    pub fn for_channels(in_channels: usize) -> Self {
        if in_channels <= INTEGRATION_CHANNEL_LIMIT {
            Self {
                filters_per_thread: 8,
                pixels_per_thread: TILED_PIXELS_PER_THREAD,
                integrated_packing: true,
            }
        } else {
            Self {
                filters_per_thread: 1,
                pixels_per_thread: 1,
                integrated_packing: false,
            }
        }
    }

    /// A policy that always integrates (for the ablation bench).
    pub fn always_integrated() -> Self {
        Self {
            filters_per_thread: 8,
            pixels_per_thread: TILED_PIXELS_PER_THREAD,
            integrated_packing: true,
        }
    }

    /// A policy that never integrates (for the ablation bench).
    pub fn never_integrated() -> Self {
        Self {
            filters_per_thread: 1,
            pixels_per_thread: 1,
            integrated_packing: false,
        }
    }

    /// Estimated private-memory bytes one thread needs under this policy:
    /// the gathered activation windows it caches (one per tiled pixel), its
    /// accumulator tile, and vector registers. Drives the simulator's
    /// occupancy throttling.
    pub fn private_bytes(&self, geom: &ConvGeometry, in_channels: usize) -> usize {
        let window_bytes = geom.kh * geom.kw * in_channels.div_ceil(8);
        let accumulators = self.filters_per_thread * self.pixels_per_thread * 4;
        let vector_regs = 64;
        self.pixels_per_thread * window_bytes + accumulators + vector_regs
    }

    /// Number of threads (work items) for a given output size.
    pub fn work_items(&self, out_pixels: usize, out_channels: usize) -> usize {
        out_pixels.div_ceil(self.pixels_per_thread) * out_channels.div_ceil(self.filters_per_thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rule_at_256() {
        let small = WorkloadPolicy::for_channels(256);
        assert_eq!(small.filters_per_thread, 8);
        assert_eq!(small.pixels_per_thread, TILED_PIXELS_PER_THREAD);
        assert!(small.integrated_packing);
        let big = WorkloadPolicy::for_channels(257);
        assert_eq!(big.filters_per_thread, 1);
        assert_eq!(big.pixels_per_thread, 1);
        assert!(!big.integrated_packing);
    }

    #[test]
    fn modeled_tile_is_pinned_apart_from_the_host_tile() {
        // The closed-form baselines were generated with two pixels per
        // thread; the host kernels' tile is free to differ.
        assert_eq!(TILED_PIXELS_PER_THREAD, 2);
        let p = WorkloadPolicy::always_integrated();
        assert_eq!(p.pixels_per_thread, 2);
        assert_eq!(WorkloadPolicy::for_channels(64), p);
        let g = ConvGeometry::square(3, 1, 1);
        assert_eq!(p.private_bytes(&g, 64), 2 * 72 + 8 * 2 * 4 + 64);
        assert_eq!(p.work_items(101, 20), 51 * 3);
    }

    #[test]
    fn work_items_round_up() {
        let p = WorkloadPolicy::always_integrated();
        // 20 filters in groups of 8 -> 3 groups; 100 pixels in pairs -> 50.
        assert_eq!(p.work_items(100, 20), 150);
        assert_eq!(p.work_items(2, 8), 1);
        assert_eq!(p.work_items(3, 8), 2, "odd pixel tail gets its own thread");
        let q = WorkloadPolicy::never_integrated();
        assert_eq!(q.work_items(100, 20), 2000);
    }

    #[test]
    fn private_bytes_grow_with_channels() {
        let g = ConvGeometry::square(3, 1, 1);
        let p = WorkloadPolicy::always_integrated();
        let small = p.private_bytes(&g, 64);
        let big = p.private_bytes(&g, 1024);
        assert!(big > small);
        // 3x3x1024 bits = 1152 bytes per window alone: exceeds the 1 KiB
        // register budget of the Adreno profiles -> occupancy throttling.
        assert!(big > 1024);
        // The paper's limit keeps the integrated (two-window) tile within
        // budget.
        let at_limit = p.private_bytes(&g, INTEGRATION_CHANNEL_LIMIT);
        assert!(
            at_limit <= 1024,
            "window tile at the 256-channel limit fits private memory ({at_limit} B)"
        );
    }

    #[test]
    fn tiled_policy_doubles_window_residency() {
        let g = ConvGeometry::square(3, 1, 1);
        let tiled = WorkloadPolicy::always_integrated();
        let untiled = WorkloadPolicy::never_integrated();
        let window = 3 * 3 * 64 / 8;
        assert_eq!(
            tiled.private_bytes(&g, 64) - untiled.private_bytes(&g, 64),
            window + (tiled.filters_per_thread * tiled.pixels_per_thread - 1) * 4
        );
    }
}
