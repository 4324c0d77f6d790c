//! Full-scale timing estimation from an architecture alone.
//!
//! The functional engine needs real weights, which for VGG16-sized
//! checkpoints means hundreds of host megabytes. Timing does not: every
//! kernel's cost profile is a closed form in layer shapes. This module
//! lowers the architecture to the **same [`ExecutionPlan`] the engine
//! stages** — identical kernel routes, domain conversions, and arena
//! assignment — and walks it with `walk_plan`, the one per-step loop the
//! engine walks too. Both launch the plan's one dispatch list
//! ([`ExecutionPlan::step_profiles`]): the engine the list it staged, each
//! profile over its kernel body, a model the same list with empty bodies.
//! So Table III can be regenerated at full scale and the reported peak
//! memory is the footprint a `Session` would book.
//!
//! `Session` runs and [`estimate_window`] agree exactly, since both launch
//! one list; `tests/end_to_end.rs` checks that the engine's walk launches
//! nothing else (timeline, timing and per-layer breakdown) on the micro
//! zoo under every route override.

use phonebit_gpusim::queue::CommandQueue;
use phonebit_gpusim::{ExecutorClass, Phone};
use phonebit_nn::fuse::EQN8_DIVERGENCE;
use phonebit_nn::graph::NetworkArch;

use crate::plan::{ExecutionPlan, RouteOverrides};
use crate::stats::{LayerRun, RunReport};

/// What an estimate is lowered and modeled under: the plan's route
/// overrides, plus the two design-choice ablations (DESIGN.md) that change
/// how the *same* dispatch list is costed rather than what it contains.
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimateOptions {
    /// Route, fusion, compression and residency overrides the plan is
    /// lowered with — `force_unfused` (§V-B) and `lowered_gemm` (§II) are
    /// the route ablations.
    pub overrides: RouteOverrides,
    /// Use the divergent Eqn (8) binarization instead of the branch-free
    /// Eqn (9) logic (§VI-C).
    pub divergent_binarize: bool,
    /// Disable memory-latency hiding (§VI-A.3): compute and memory phases
    /// serialize.
    pub no_latency_hiding: bool,
}

/// Estimates a full single-image PhoneBit inference of `arch` on `phone`,
/// without weights or input data — [`estimate_window`] at batch 1 under the
/// default options.
///
/// # Panics
///
/// As [`estimate_window`]: a malformed architecture.
pub fn estimate_arch(phone: &Phone, arch: &NetworkArch) -> RunReport {
    estimate_window(phone, arch, 1, &EstimateOptions::default())
}

/// Estimates one **cold window** of `batch` images — the exact dispatch
/// sequence a [`Session::new_batched_opts`](crate::Session::new_batched_opts)
/// engine lowered with `opts.overrides` issues: one batch-covering launch
/// per kernel (launch overhead amortized), batch-aware routes, and the
/// per-run framework overhead charged once for the whole window.
/// Steady-state throughput additionally hides that overhead behind the
/// previous window's compute (double buffering); subtract
/// [`per_run_overhead_s`](phonebit_gpusim::queue::CommandQueue::per_run_overhead_s)
/// for the primed-window time, as `throughput_report` does.
///
/// # Panics
///
/// Panics when `batch == 0` or the architecture is malformed (its layer
/// chain cannot be lowered): the paper-table bins this feeds take a bare
/// report, and [`DeviceRuntime::dry`](crate::serve::DeviceRuntime::dry) is
/// the `Result`-returning way to model a caller-built architecture.
pub fn estimate_window(
    phone: &Phone,
    arch: &NetworkArch,
    batch: usize,
    opts: &EstimateOptions,
) -> RunReport {
    let mut q = CommandQueue::new(phone.gpu.clone(), ExecutorClass::PhoneBitOpenCl);
    if opts.no_latency_hiding {
        let mut params = *q.params();
        params.overlap = 0.0;
        q = q.with_params(params);
    }
    q.host_delay(q.per_run_overhead_s());

    // One lowering, shared with the engine: routes, conversions and the
    // arena all come from the plan; the route ablations force routes at
    // lowering time and the batch folds into every step shape.
    let plan = ExecutionPlan::for_arch(arch, q.device(), batch, &opts.overrides)
        .unwrap_or_else(|e| panic!("{}: {e}", arch.name));
    // Divergent checks mask part of each wave during the fused kernel's
    // binarize tail; the other routes binarize in a separate kernel.
    let per_layer = walk_plan(&mut q, &plan, |q, idx| {
        for p in plan.step_profiles(idx) {
            let p = if opts.divergent_binarize && p.name == "bconv_fused" {
                p.divergence(EQN8_DIVERGENCE)
            } else {
                p
            };
            q.launch(p, || {});
        }
    });
    RunReport {
        model: arch.name.clone(),
        total_s: q.elapsed_s(),
        energy_j: q.energy_j(),
        peak_bytes: plan.peak_bytes(),
        per_layer,
        output: None,
    }
}

/// The one per-step loop over a plan: at each step boundary it charges the
/// paging schedule's stall (0 for a resident plan) as a host delay, runs
/// `step` — the engine's kernel bodies, or [`launch_step`] for every model
/// of the plan — and records the step's [`LayerRun`]. Attach a contended
/// queue (see [`DeviceClock`](phonebit_gpusim::clock::DeviceClock)) to
/// model a multi-stream device.
pub(crate) fn walk_plan(
    q: &mut CommandQueue,
    plan: &ExecutionPlan,
    mut step: impl FnMut(&mut CommandQueue, usize),
) -> Vec<LayerRun> {
    let mut per_layer = Vec::with_capacity(plan.steps.len());
    for (idx, s) in plan.steps.iter().enumerate() {
        let t0 = q.elapsed_s();
        let e0 = q.timeline().len();
        if let Some(pg) = &plan.paging {
            q.host_delay(pg.steps[idx].stall_s);
        }
        step(q, idx);
        let energy_j: f64 = q.timeline()[e0..].iter().map(|ev| ev.stats.energy_j).sum();
        per_layer.push(LayerRun {
            name: s.name.clone(),
            output_shape: s.out_shape,
            time_s: q.elapsed_s() - t0,
            energy_j,
        });
    }
    per_layer
}

/// Step `idx` of a modeled walk: the plan's own dispatch list launched with
/// empty bodies.
pub(crate) fn launch_step(q: &mut CommandQueue, plan: &ExecutionPlan, idx: usize) {
    for profile in plan.step_profiles(idx) {
        q.launch(profile, || {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_nn::act::Activation;
    use phonebit_nn::graph::LayerPrecision;
    use phonebit_tensor::shape::Shape4;

    fn lowered(arch: &NetworkArch, phone: &Phone, batch: usize) -> ExecutionPlan {
        ExecutionPlan::for_arch(arch, &phone.gpu, batch, &RouteOverrides::default())
            .expect("lowers")
    }

    fn arch() -> NetworkArch {
        NetworkArch::new("est", Shape4::new(1, 16, 16, 3))
            .conv(
                "conv1",
                16,
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
                512,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .conv(
                "conv4",
                10,
                1,
                1,
                0,
                LayerPrecision::Float,
                Activation::Linear,
            )
            .softmax()
    }

    #[test]
    fn estimate_covers_every_layer() {
        let r = estimate_arch(&Phone::xiaomi_9(), &arch());
        assert_eq!(r.per_layer.len(), 6);
        assert!(r.total_s > 0.0);
        assert!(r.per_layer.iter().all(|l| l.time_s > 0.0));
    }

    #[test]
    fn large_channel_layer_uses_unfused_path() {
        // conv3 reads 512 channels (> 256): its route avoids the fused
        // kernel, so the layer still shows positive modeled time through
        // whichever fallback the planner picked.
        let r = estimate_arch(&Phone::xiaomi_9(), &arch());
        let conv3 = r.layer_time_s("conv3").unwrap();
        assert!(conv3 > 0.0);
    }

    #[test]
    fn newer_phone_is_faster() {
        let a = arch();
        let t5 = estimate_arch(&Phone::xiaomi_5(), &a).total_s;
        let t9 = estimate_arch(&Phone::xiaomi_9(), &a).total_s;
        assert!(t9 < t5);
    }

    #[test]
    fn estimate_is_deterministic() {
        let a = arch();
        let r1 = estimate_arch(&Phone::xiaomi_9(), &a);
        let r2 = estimate_arch(&Phone::xiaomi_9(), &a);
        assert_eq!(r1.total_s, r2.total_s);
        assert_eq!(r1.energy_j, r2.energy_j);
    }

    #[test]
    fn batched_estimate_amortizes_overhead_into_throughput() {
        let a = arch();
        let phone = Phone::xiaomi_9();
        let single = estimate_arch(&phone, &a);
        for batch in [2usize, 4, 8] {
            let b = estimate_window(&phone, &a, batch, &EstimateOptions::default());
            // Same dispatch count, batch-times the work, one overhead.
            assert!(
                b.total_s < batch as f64 * single.total_s,
                "batch {batch}: {} !< {}",
                b.total_s,
                batch as f64 * single.total_s
            );
            // Throughput (cold) grows with the window.
            assert!(batch as f64 / b.total_s > 1.0 / single.total_s);
            // Peak memory reports the double-banked batched arena.
            let plan = lowered(&a, &phone, batch);
            assert_eq!(b.peak_bytes, plan.peak_bytes());
            assert_eq!(plan.banks, 2);
        }
        assert_eq!(
            estimate_window(&phone, &a, 1, &EstimateOptions::default()).total_s,
            single.total_s,
            "batch 1 is the single-image estimate"
        );
    }

    #[test]
    fn peak_bytes_is_arena_true() {
        // The estimate's peak is weights + arena of the same plan the
        // engine would stage, for the same device.
        let a = arch();
        let phone = Phone::xiaomi_9();
        let r = estimate_arch(&phone, &a);
        let plan = lowered(&a, &phone, 1);
        assert_eq!(r.peak_bytes, plan.peak_bytes());
    }
}
