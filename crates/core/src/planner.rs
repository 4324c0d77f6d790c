//! Deployment planning: memory footprint and per-layer kernel-path choice.
//!
//! **Memory**: resident packed weights plus, per stream, one staged arena
//! slice — the "minimal memory footprint during run-time" of the paper's
//! §I. [`pooled_peak_bytes`] is that one formula over lowered plans, so
//! harnesses, admission and fleet placement check a deployment against a
//! phone's app budget without staging it.
//!
//! **Kernel path**: each binary convolution can run three ways — the
//! direct tiled fused kernel, the direct tiled accumulate + separate pack
//! (when `C > 256` private memory forbids integration), or the
//! Espresso-style bit-im2col + bit-GEMM lowering. [`select_conv_path`]
//! cost-models all of them on the target device and picks the fastest;
//! the engine and the full-scale estimator both route through it, and the
//! ablation binary prints the per-layer decisions.

use phonebit_gpusim::calib::{CostParams, EnergyParams};
use phonebit_gpusim::cost::estimate;
use phonebit_gpusim::{DeviceKind, DeviceProfile, ExecutorClass, KernelProfile, Phone};
use phonebit_nn::graph::NetworkArch;
use phonebit_nn::kernels::{bgemm, profiles};
use phonebit_nn::workload::{WorkloadPolicy, INTEGRATION_CHANNEL_LIMIT};
use phonebit_tensor::shape::ConvGeometry;

use crate::plan::{ExecutionPlan, RouteOverrides};

/// How a binary convolution layer is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvPath {
    /// Direct tiled kernel with integrated binarize+pack (`C ≤ 256`).
    DirectFused,
    /// Direct tiled accumulate + separate binarize/pack kernel (the §VI-B
    /// private-memory fallback for `C > 256`).
    DirectUnfused,
    /// Bit-im2col + register-tiled bit-GEMM (Espresso-style lowering; for
    /// 1×1/s1/p0 convolutions the im2col is a zero-cost view, so this *is*
    /// the natural kernel).
    LoweredGemm,
}

impl std::fmt::Display for ConvPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvPath::DirectFused => write!(f, "direct-tiled"),
            ConvPath::DirectUnfused => write!(f, "direct-tiled+pack"),
            ConvPath::LoweredGemm => write!(f, "lowered-bgemm"),
        }
    }
}

/// Weight of the arena-footprint term in the route score: each candidate
/// path's staged scratch bytes are charged at this fraction of the time it
/// would take to stream them over DRAM once. Small enough that latency
/// dominates on the paper's flagship shapes, large enough that a
/// memory-hungry path must buy real time to justify its arena slot (the §I
/// minimal-footprint claim becomes a term the planner can trade against).
pub const ARENA_TRADEOFF_WEIGHT: f64 = 0.25;

/// Weight of the energy term in the route score. Each candidate path's
/// modeled per-op energy (instruction energy + DRAM traffic + static power
/// over its modeled time — the device profile's power draw × time, as the
/// cost model integrates it) is converted into latency-equivalent seconds
/// by dividing through [`SOC_POWER_BUDGET_W`], then charged at this
/// weight. Energy correlates with latency on compute-bound paths, so the
/// term acts as a tie-breaker that penalizes DRAM-hungry round trips
/// (Table IV's mW column becomes a planning input, closing the PR 2
/// follow-up).
pub const ENERGY_TRADEOFF_WEIGHT: f64 = 0.1;

/// Sustained SoC power budget used to express joules as seconds in the
/// route score: mobile SoCs throttle around a ~2 W sustained draw, so a
/// path that burns `E` joules forfeits roughly `E / 2 W` of future
/// compute time to thermal headroom.
pub const SOC_POWER_BUDGET_W: f64 = 2.0;

/// A per-layer kernel-path decision with the modeled costs behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvPlan {
    /// The chosen path.
    pub path: ConvPath,
    /// Modeled seconds on the direct (tiled) path.
    pub direct_s: f64,
    /// Modeled seconds on the lowered bit-GEMM path.
    pub lowered_s: f64,
    /// Arena scratch bytes the direct path stages (the int32 accumulator
    /// when `C > 256`, else none).
    pub direct_arena_bytes: usize,
    /// Arena scratch bytes the lowered path stages (the materialized
    /// bit-im2col window rows, unless the GEMM is a pointwise view).
    pub lowered_arena_bytes: usize,
    /// Modeled energy of the direct path's dispatches, joules (instruction
    /// + DRAM + static-power draw over the modeled time).
    pub direct_energy_j: f64,
    /// Modeled energy of the lowered path's dispatches, joules.
    pub lowered_energy_j: f64,
}

impl ConvPlan {
    /// Arena scratch bytes of the chosen path.
    pub fn arena_bytes(&self) -> usize {
        match self.path {
            ConvPath::LoweredGemm => self.lowered_arena_bytes,
            _ => self.direct_arena_bytes,
        }
    }

    /// Modeled energy of the chosen path, joules.
    pub fn energy_j(&self) -> f64 {
        match self.path {
            ConvPath::LoweredGemm => self.lowered_energy_j,
            _ => self.direct_energy_j,
        }
    }
}

/// Cost-models the direct-tiled and lowered-GEMM executions of one binary
/// convolution on `device` and picks the cheaper under a combined
/// latency + arena-footprint score.
///
/// A 1×1 stride-1 unpadded convolution *is* a GEMM — each window row
/// aliases the input pixel row, so the lowering skips materialization and
/// wins structurally. Everything else compares modeled dispatch times plus
/// an [`ARENA_TRADEOFF_WEIGHT`]-scaled penalty for each path's staged
/// scratch: direct pays either one fused kernel (`C ≤ 256`) or the
/// accumulate + pack pair with its int32 accumulator slot, lowered pays the
/// bit-im2col round trip, the GEMM, and the materialized window rows.
pub fn select_conv_path(
    device: &DeviceProfile,
    out_pixels: usize,
    out_channels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
) -> ConvPlan {
    select_conv_path_with(
        device,
        out_pixels,
        out_channels,
        in_channels,
        geom,
        0.0,
        0.0,
    )
}

/// [`select_conv_path`] with dictionary-compression discounts: when a
/// candidate path's weight bank dedupes (its dictionary + indices are
/// smaller than the raw rows), the planner subtracts the saved filter-read
/// bytes from that candidate's profile before scoring — the same
/// [`KernelProfile::discount_reads`] clamp the kernels apply at dispatch
/// time, so the route score and the executed cost cannot drift. A discount
/// of 0 on both banks is exactly [`select_conv_path`].
///
/// `direct_discount_bytes` applies to the direct core (fused, or the
/// accumulate half of the unfused pair — never the binarize/pack epilogue,
/// which reads no filters); `lowered_discount_bytes` applies to the
/// bit-GEMM (never the window-materialization pass).
#[allow(clippy::too_many_arguments)]
pub fn select_conv_path_with(
    device: &DeviceProfile,
    out_pixels: usize,
    out_channels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
    direct_discount_bytes: f64,
    lowered_discount_bytes: f64,
) -> ConvPlan {
    // Each candidate is the dispatch list that route would launch plus the
    // scratch it stages: the direct one is the fused kernel (`C ≤ 256`) or
    // the accumulate + pack pair with its int32 accumulator slot; the
    // lowered one stages the materialized window rows unless the GEMM is a
    // pointwise view.
    let direct_path = if in_channels <= INTEGRATION_CHANNEL_LIMIT {
        ConvPath::DirectFused
    } else {
        ConvPath::DirectUnfused
    };
    let direct_arena_bytes = match direct_path {
        ConvPath::DirectUnfused => out_pixels * out_channels * 4,
        _ => 0,
    };
    let gemm_is_view = geom.is_pointwise();
    let lowered_arena_bytes = if gemm_is_view {
        0
    } else {
        out_pixels * (geom.taps() * in_channels).div_ceil(64) * 8
    };
    let candidate = |path, discount, arena_bytes| {
        let list = route_profiles(path, out_pixels, out_channels, in_channels, geom, discount);
        score_dispatches(device, &list, arena_bytes)
    };
    let direct = candidate(direct_path, direct_discount_bytes, direct_arena_bytes);
    let lowered = candidate(
        ConvPath::LoweredGemm,
        lowered_discount_bytes,
        lowered_arena_bytes,
    );
    let path = if gemm_is_view || lowered.score < direct.score {
        ConvPath::LoweredGemm
    } else {
        direct_path
    };
    ConvPlan {
        path,
        direct_s: direct.time_s,
        lowered_s: lowered.time_s,
        direct_arena_bytes,
        lowered_arena_bytes,
        direct_energy_j: direct.energy_j,
        lowered_energy_j: lowered.energy_j,
    }
}

/// The kernel profiles one binary convolution dispatches on `path`, in
/// launch order — the single place a route is spelled out as kernels. The
/// route scorer above costs its candidates through it and the plan's
/// per-step dispatch list ([`ExecutionPlan::step_profiles`]) returns it
/// for the chosen route, so a score and the modeled run cannot disagree
/// about what a route launches.
///
/// `bank_discount_bytes` is the filter-read saving of the route's
/// dictionary-compressed bank (0 for a raw bank), applied with the same
/// [`KernelProfile::discount_reads`] clamp the kernels use.
///
/// [`ExecutionPlan::step_profiles`]: crate::plan::ExecutionPlan::step_profiles
pub(crate) fn route_profiles(
    path: ConvPath,
    out_pixels: usize,
    out_channels: usize,
    in_channels: usize,
    geom: &ConvGeometry,
    bank_discount_bytes: f64,
) -> Vec<KernelProfile> {
    let policy = WorkloadPolicy::for_channels(in_channels);
    match path {
        ConvPath::DirectFused => {
            vec![
                profiles::bconv_fused(out_pixels, out_channels, in_channels, geom, &policy)
                    .discount_reads(bank_discount_bytes),
            ]
        }
        // The binarize/pack epilogue reads no filters; only the accumulate
        // half carries the discount.
        ConvPath::DirectUnfused => vec![
            profiles::bconv_accum(out_pixels, out_channels, in_channels, geom, &policy)
                .discount_reads(bank_discount_bytes),
            profiles::binarize_pack(out_pixels, out_channels),
        ],
        ConvPath::LoweredGemm => {
            // The window-materialization pass reads no filters; only the
            // GEMM's bank is discounted. Pointwise convs skip the pass —
            // the input is the GEMM view.
            let gemm = bgemm::bgemm_profile(out_pixels, out_channels, in_channels, geom)
                .discount_reads(bank_discount_bytes);
            if geom.is_pointwise() {
                vec![gemm]
            } else {
                vec![
                    bgemm::pack_windows_profile(out_pixels, in_channels, geom),
                    gemm,
                ]
            }
        }
    }
}

/// One candidate's modeled cost and composite score — what the route
/// scorer compares per binary convolution and the fusion pass per chain
/// (surfaced in [`ConvPlan`] and
/// [`ChainDecision`](crate::plan::ChainDecision)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DispatchScore {
    /// Modeled seconds of the dispatches (one launch overhead each).
    pub time_s: f64,
    /// Modeled joules of the dispatches.
    pub energy_j: f64,
    /// Composite score: latency + arena-footprint + energy terms.
    pub score: f64,
}

/// Scores `profiles` run as separate dispatches on an uncontended `device`
/// — each pays its own launch overhead, so launches a candidate saves are
/// part of its score, not a separate bonus — next to the `arena_bytes` of
/// scratch or intermediates the candidate stages. The one scale both
/// [`select_conv_path`] and the fusion pass decide on.
pub(crate) fn score_dispatches(
    device: &DeviceProfile,
    profiles: &[KernelProfile],
    arena_bytes: usize,
) -> DispatchScore {
    let params = CostParams::for_executor(ExecutorClass::PhoneBitOpenCl);
    let energy = EnergyParams::for_kind(DeviceKind::Gpu);
    // The energy already integrates the device's power draw over the
    // modeled time (static watts × time plus per-op and per-DRAM-byte
    // dynamic energy).
    let (time_s, energy_j) = profiles.iter().fold((0.0, 0.0), |(t, e), p| {
        let s = estimate(p, device, &params, &energy);
        (t + s.time_s, e + s.energy_j)
    });
    // Footprint term: bytes charged at a fraction of one DRAM pass.
    let arena_s = ARENA_TRADEOFF_WEIGHT * arena_bytes as f64 / (device.dram_gbps * 1e9);
    // Energy term: joules expressed as seconds of the SoC's sustained
    // power budget (per-op energy from the profile's power draw × time).
    let energy_s = ENERGY_TRADEOFF_WEIGHT * energy_j / SOC_POWER_BUDGET_W;
    DispatchScore {
        time_s,
        energy_j,
        score: time_s + arena_s + energy_s,
    }
}

/// Peak device bytes of a pooled co-resident deployment: every tenant's
/// resident weights (a paged tenant's hot-set grant) stay on the device,
/// while activation arenas come from a **pool** of per-stream slices, each
/// sized to the *largest* tenant's staged banks
/// ([`ExecutionPlan::staged_arena_bytes`]) — any stream can run any
/// tenant's plan inside its slice. `Σ weights + streams × max slice`,
/// against the `Σ weights + streams × Σ slices` of staging every tenant's
/// arena on every stream. A solo deployment is a pool of one.
pub fn pooled_peak_bytes(resident_weights: &[usize], slices: &[usize], streams: usize) -> usize {
    resident_weights.iter().sum::<usize>() + streams * slices.iter().copied().max().unwrap_or(0)
}

/// The largest window size such that `streams` streams' double-banked
/// arenas still fit `phone`'s app budget alongside the shared weights —
/// what a serving loop should cap its batch at before requests start to
/// OOM, and where the serving runtime's admission controller starts before
/// applying its latency SLO. Returns 0 when even a single image does not
/// fit (the paper's CNNdroid-VGG16 situation) or the architecture cannot be
/// lowered.
pub fn max_feasible_batch(arch: &NetworkArch, phone: &Phone, streams: usize) -> usize {
    max_feasible_batch_multitenant(&[arch], &[1], 0, phone, streams)
}

/// The largest batch tenant `grow` can stage while the other tenants hold
/// the batches in `batches`, such that the pooled co-resident deployment
/// ([`pooled_peak_bytes`]) still fits `phone`'s app budget. Returns 0 when
/// even batch 1 does not fit or an architecture cannot be lowered. The
/// multi-tenant admission controller starts from this cap before applying
/// each tenant's SLO.
///
/// # Panics
///
/// Panics when the slices disagree, `grow` is out of range, or a
/// neighbor's batch is zero.
pub fn max_feasible_batch_multitenant(
    archs: &[&NetworkArch],
    batches: &[usize],
    grow: usize,
    phone: &Phone,
    streams: usize,
) -> usize {
    assert!(archs.len() == batches.len(), "one batch per tenant");
    assert!(grow < archs.len(), "grow index out of range");
    let mut probe = batches.to_vec();
    largest_batch_where(|batch| {
        probe[grow] = batch;
        let plans: Result<Vec<ExecutionPlan>, _> = archs
            .iter()
            .zip(&probe)
            .map(|(arch, &b)| {
                ExecutionPlan::for_arch(arch, &phone.gpu, b, &RouteOverrides::default())
            })
            .collect();
        plans.is_ok_and(|plans| {
            let weights: Vec<usize> = plans.iter().map(|p| p.weights_bytes).collect();
            let slices: Vec<usize> = plans.iter().map(|p| p.staged_arena_bytes()).collect();
            pooled_peak_bytes(&weights, &slices, streams) <= phone.app_budget_bytes()
        })
    })
}

/// Window-size search cap: no batched deployment is probed past this.
const MAX_PROBED_BATCH: usize = 4096;

/// The largest batch in `1..=4096` satisfying a monotone fit predicate
/// (0 when even batch 1 fails). Shared by [`max_feasible_batch`]
/// and the serving runtime's model-based admission controller so the two
/// memory caps cannot drift apart.
pub(crate) fn largest_batch_where(mut fits: impl FnMut(usize) -> bool) -> usize {
    if !fits(1) {
        return 0;
    }
    // Exponential probe then binary search: lowering is cheap (one pass
    // over the layer chain per candidate).
    let mut hi = 1usize;
    while hi < MAX_PROBED_BATCH && fits(hi * 2) {
        hi *= 2;
    }
    let (mut lo, mut hi) = (hi, (hi * 2).min(MAX_PROBED_BATCH));
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_nn::act::Activation;
    use phonebit_nn::graph::LayerPrecision;
    use phonebit_tensor::shape::Shape4;

    fn arch() -> NetworkArch {
        NetworkArch::new("plan", Shape4::new(1, 32, 32, 3))
            .conv(
                "conv1",
                64,
                3,
                1,
                1,
                LayerPrecision::BinaryInput8,
                Activation::Linear,
            )
            .maxpool("pool1", 2, 2)
            .conv(
                "conv2",
                512,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .conv(
                "conv3",
                64,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .dense("fc", 10, LayerPrecision::Float, Activation::Linear)
    }

    /// `arch` lowered on the Adreno 640 with cost-modeled routes.
    fn lowered(arch: &NetworkArch, batch: usize) -> ExecutionPlan {
        let dev = DeviceProfile::adreno_640();
        ExecutionPlan::for_arch(arch, &dev, batch, &RouteOverrides::default()).expect("lowers")
    }

    /// The pooled peak of `plan` alone on `streams` streams.
    fn solo_peak(plan: &ExecutionPlan, streams: usize) -> usize {
        pooled_peak_bytes(&[plan.weights_bytes], &[plan.staged_arena_bytes()], streams)
    }

    #[test]
    fn plan_reports_scratch_where_expected() {
        let p = lowered(&arch(), 1);
        // conv1 (BinaryInput8) has bit-plane scratch.
        assert!(p.steps[0].scratch.is_some_and(|v| p.values[v].bytes > 0));
        // conv2 reads 64-channel input (fused, no scratch).
        assert_eq!((p.steps[2].convert, p.steps[2].scratch), (None, None));
        // conv3 reads 512-channel input (> 256): unfused accumulator.
        assert!(p.steps[3].scratch.is_some_and(|v| p.values[v].bytes > 0));
    }

    #[test]
    fn peak_includes_weights() {
        let p = lowered(&arch(), 1);
        assert_eq!(solo_peak(&p, 1), p.weights_bytes + p.staged_arena_bytes());
        assert_eq!(
            solo_peak(&p, 1),
            p.peak_bytes(),
            "a solo plan is a pool of one"
        );
        assert!(p.weights_bytes > 0);
    }

    #[test]
    fn small_model_fits_both_phones() {
        let p = lowered(&arch(), 1);
        assert!(solo_peak(&p, 1) <= Phone::xiaomi_5().app_budget_bytes());
        assert!(solo_peak(&p, 1) <= Phone::xiaomi_9().app_budget_bytes());
    }

    #[test]
    fn batched_plan_doubles_banks_and_scales_slots() {
        let single = lowered(&arch(), 1);
        let batched = lowered(&arch(), 4);
        assert_eq!((single.batch, single.banks), (1, 1));
        assert_eq!((batched.batch, batched.banks), (4, 2));
        assert_eq!(batched.slots.len(), single.slots.len());
        for (s, b) in single.slots.iter().zip(batched.slots.iter()) {
            assert_eq!(*b, 4 * s, "each slot grows to hold the window");
        }
        assert_eq!(
            batched.staged_arena_bytes(),
            2 * batched.slots.iter().sum::<usize>()
        );
        assert_eq!(batched.weights_bytes, single.weights_bytes);
        assert_eq!(
            batched.peak_bytes(),
            batched.weights_bytes + batched.staged_arena_bytes()
        );
    }

    #[test]
    fn sharded_plan_multiplies_stream_arenas_over_shared_weights() {
        let plan = lowered(&arch(), 4);
        assert_eq!((plan.batch, plan.banks), (4, 2));
        assert_eq!(solo_peak(&plan, 1), plan.peak_bytes());
        assert_eq!(
            solo_peak(&plan, 3),
            plan.weights_bytes + 3 * plan.staged_arena_bytes(),
            "weights shared, every stream stages its own banks"
        );
    }

    #[test]
    fn sharded_feasible_batch_shrinks_with_stream_count() {
        let a = arch();
        let phone = Phone::xiaomi_9();
        let solo = max_feasible_batch(&a, &phone, 1);
        let two = max_feasible_batch(&a, &phone, 2);
        let four = max_feasible_batch(&a, &phone, 4);
        assert!(two <= solo && four <= two, "{solo} >= {two} >= {four}");
        assert!(two >= 1, "two streams of the small arch still fit");
        let fits = |b: usize| solo_peak(&lowered(&a, b), 2) <= phone.app_budget_bytes();
        assert!(fits(two));
        if two < 4096 {
            assert!(!fits(two + 1));
        }
    }

    #[test]
    fn route_scores_carry_energy_terms() {
        let dev = phonebit_gpusim::DeviceProfile::adreno_640();
        let g = ConvGeometry::square(3, 1, 1);
        let p = select_conv_path(&dev, 26 * 26, 256, 128, &g);
        // Both candidates carry positive modeled energy, and the chosen
        // path's energy accessor follows the route.
        assert!(p.direct_energy_j > 0.0 && p.lowered_energy_j > 0.0);
        assert_eq!(p.path, ConvPath::DirectFused);
        assert_eq!(p.energy_j(), p.direct_energy_j);
        // The lowering's DRAM round trip costs energy as well as time on
        // this shape.
        assert!(p.lowered_energy_j > p.direct_energy_j);
        let wide = select_conv_path(&dev, 13 * 13, 512, 512, &g);
        assert_eq!(wide.path, ConvPath::LoweredGemm);
        assert_eq!(wide.energy_j(), wide.lowered_energy_j);
    }

    #[test]
    fn multitenant_plan_pools_bank_slices_over_summed_weights() {
        let a = arch();
        // A second, smaller tenant.
        let b = NetworkArch::new("plan-b", Shape4::new(1, 16, 16, 3))
            .conv(
                "conv1",
                32,
                3,
                1,
                1,
                LayerPrecision::BinaryInput8,
                Activation::Linear,
            )
            .dense("fc", 10, LayerPrecision::Float, Activation::Linear);
        let (solo_a, solo_b) = (lowered(&a, 4), lowered(&b, 2));
        let weights = [solo_a.weights_bytes, solo_b.weights_bytes];
        let slices = [solo_a.staged_arena_bytes(), solo_b.staged_arena_bytes()];
        let pair = pooled_peak_bytes(&weights, &slices, 3);
        // Weights sum; the pool slice is the larger tenant's banks.
        assert_eq!(pair, weights[0] + weights[1] + 3 * slices[0].max(slices[1]));
        // Pooling strictly beats the side-by-side deployment whenever the
        // smaller tenant's arena is nonzero.
        assert!(slices[0].min(slices[1]) > 0);
        assert!(pair < weights[0] + weights[1] + 3 * (slices[0] + slices[1]));
        assert!(pair <= Phone::xiaomi_9().app_budget_bytes());
    }

    #[test]
    fn multitenant_feasible_batch_respects_the_neighbor() {
        let a = arch();
        let phone = Phone::xiaomi_9();
        // Alone (a 1-byte-arena neighbor), the cap matches the solo pooled
        // search at 1 stream when the neighbor's slice never dominates.
        let solo_cap = max_feasible_batch(&a, &phone, 2);
        let cap_light = max_feasible_batch_multitenant(&[&a, &a], &[1, 1], 0, &phone, 2);
        // A co-resident heavy neighbor can only shrink (or hold) the cap.
        let cap_heavy = max_feasible_batch_multitenant(&[&a, &a], &[1, 64], 0, &phone, 2);
        assert!(cap_heavy <= cap_light, "{cap_heavy} <= {cap_light}");
        assert!(cap_light >= 1);
        // The pooled formula is never stricter than staging the pair
        // side-by-side, so the solo sharded cap is a lower bound here.
        assert!(cap_light >= solo_cap.min(1));
        // The chosen cap actually fits, and the next batch would not.
        let fits = |b: usize| {
            let (grown, held) = (lowered(&a, b), lowered(&a, 64));
            let weights = [grown.weights_bytes, held.weights_bytes];
            let slices = [grown.staged_arena_bytes(), held.staged_arena_bytes()];
            pooled_peak_bytes(&weights, &slices, 2) <= phone.app_budget_bytes()
        };
        assert!(fits(cap_heavy));
        if cap_heavy < 4096 {
            assert!(!fits(cap_heavy + 1));
        }
    }

    #[test]
    fn max_feasible_batch_is_monotone_and_fits() {
        let a = arch();
        let phone = Phone::xiaomi_9();
        let max = max_feasible_batch(&a, &phone, 1);
        assert!(max >= 1, "the small arch fits at batch 1");
        let fits = |b: usize| solo_peak(&lowered(&a, b), 1) <= phone.app_budget_bytes();
        assert!(fits(max));
        if max < 4096 {
            assert!(!fits(max + 1));
        }
        // The older phone's tighter budget cannot allow a larger window.
        assert!(max_feasible_batch(&a, &Phone::xiaomi_5(), 1) <= max);
    }

    #[test]
    fn planner_picks_direct_for_paper_3x3_layers() {
        // The paper's flagship shapes (3x3, C in 64..256) must stay on the
        // direct tiled kernel: the lowering pays the im2col DRAM round trip.
        let dev = phonebit_gpusim::DeviceProfile::adreno_640();
        for (pixels, k, c) in [
            (52 * 52, 128, 128),
            (26 * 26, 256, 128),
            (104 * 104, 32, 16),
        ] {
            let plan = select_conv_path(&dev, pixels, k, c, &ConvGeometry::square(3, 1, 1));
            assert_eq!(plan.path, ConvPath::DirectFused, "k={k} c={c}");
            assert!(plan.lowered_s > plan.direct_s, "k={k} c={c}");
        }
    }

    #[test]
    fn planner_weighs_round_trips_above_channel_limit() {
        // Above C = 256 the direct path pays an int32 accumulator round
        // trip (4 B/output); the lowering pays a packed-window round trip
        // (taps*C/8 bits/pixel). Wide layers (K large) favor the GEMM,
        // narrow compression layers (K small) keep the direct fallback.
        let dev = phonebit_gpusim::DeviceProfile::adreno_640();
        let g = ConvGeometry::square(3, 1, 1);
        let wide = select_conv_path(&dev, 13 * 13, 512, 512, &g);
        assert_eq!(wide.path, ConvPath::LoweredGemm);
        assert!(wide.lowered_s < wide.direct_s);
        let narrow = select_conv_path(&dev, 13 * 13, 16, 512, &g);
        assert_eq!(narrow.path, ConvPath::DirectUnfused);
        assert!(narrow.direct_s < narrow.lowered_s);
    }

    #[test]
    fn planner_routes_pointwise_conv_to_gemm_view() {
        // 1x1/s1/p0: every window row aliases the input row, so the lowering
        // is a pure bit-GEMM with no materialization kernel.
        let dev = phonebit_gpusim::DeviceProfile::adreno_640();
        let plan = select_conv_path(&dev, 26 * 26, 256, 128, &ConvGeometry::square(1, 1, 0));
        assert_eq!(plan.path, ConvPath::LoweredGemm);
        // A padded or strided 1x1 still needs materialization and is judged
        // on modeled time like any other shape.
        let strided = ConvGeometry::square(1, 2, 0);
        let p2 = select_conv_path(&dev, 13 * 13, 256, 128, &strided);
        assert!(p2.lowered_s > 0.0 && p2.direct_s > 0.0);
    }

    #[test]
    fn route_scores_carry_arena_terms() {
        let dev = phonebit_gpusim::DeviceProfile::adreno_640();
        let g = ConvGeometry::square(3, 1, 1);
        // C <= 256: direct stages nothing, the lowering stages window rows.
        let p = select_conv_path(&dev, 26 * 26, 256, 128, &g);
        assert_eq!(p.direct_arena_bytes, 0);
        assert_eq!(
            p.lowered_arena_bytes,
            26 * 26 * (9usize * 128).div_ceil(64) * 8
        );
        assert_eq!(p.arena_bytes(), 0, "direct choice carries no scratch");
        // C > 256: direct stages the int32 accumulator; the wide layer
        // routes to the GEMM whose window rows are the smaller slot.
        let wide = select_conv_path(&dev, 13 * 13, 512, 512, &g);
        assert_eq!(wide.direct_arena_bytes, 13 * 13 * 512 * 4);
        assert!(wide.lowered_arena_bytes < wide.direct_arena_bytes);
        assert_eq!(wide.arena_bytes(), wide.lowered_arena_bytes);
        // Pointwise views materialize nothing.
        let pw = select_conv_path(&dev, 26 * 26, 256, 128, &ConvGeometry::square(1, 1, 0));
        assert_eq!(pw.lowered_arena_bytes, 0);
        assert_eq!(pw.arena_bytes(), 0);
    }

    #[test]
    fn conv_path_display_names_are_stable() {
        assert_eq!(ConvPath::DirectFused.to_string(), "direct-tiled");
        assert_eq!(ConvPath::DirectUnfused.to_string(), "direct-tiled+pack");
        assert_eq!(ConvPath::LoweredGemm.to_string(), "lowered-bgemm");
    }
}
