//! Ablations of the paper's design choices (DESIGN.md per-experiment
//! index): each run disables one optimization and reports the slowdown on
//! YOLOv2-Tiny (Snapdragon 855), plus microbenchmark-style sweeps for the
//! packing/vectorization granularities and the data layout.
//!
//! Run: `cargo run --release -p phonebit-bench --bin ablation`

use phonebit_core::plan::StepOp;
use phonebit_core::{
    estimate_arch, estimate_window, select_conv_path, EstimateOptions, ExecutionPlan, FusionMode,
    RouteOverrides,
};
use phonebit_gpusim::calib::{CostParams, EnergyParams};
use phonebit_gpusim::cost::estimate;
use phonebit_gpusim::{DeviceProfile, ExecutorClass, KernelProfile, NdRange, Phone};
use phonebit_models::zoo::{self, Variant};
use phonebit_nn::kernels::profiles;
use phonebit_nn::workload::WorkloadPolicy;
use phonebit_tensor::shape::ConvGeometry;

fn main() {
    let phone = Phone::xiaomi_9();
    let arch = zoo::yolov2_tiny(Variant::Binary);
    let base = estimate_arch(&phone, &arch).total_s;
    println!(
        "Ablations — YOLOv2-Tiny on {} (baseline {:.1} ms)\n",
        phone.soc,
        base * 1e3
    );

    // Per-layer kernel-path planning, read straight from the one
    // ExecutionPlan the engine and estimator both consume: the planner
    // cost-models direct-tiled vs. lowered-GEMM per binary conv, trading
    // modeled latency against each path's arena footprint.
    let plan = ExecutionPlan::for_arch(&arch, &phone.gpu, 1, &RouteOverrides::default())
        .expect("the zoo lowers");
    println!("execution-plan kernel routes (binary conv layers):");
    println!(
        "  {:<8} {:>14} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}  chosen",
        "layer",
        "out shape",
        "C",
        "direct(ms)",
        "lowered(ms)",
        "direct(KB)",
        "lowered(KB)",
        "direct(mJ)",
        "lowered(mJ)"
    );
    for step in &plan.steps {
        let Some(r) = step.route.as_ref() else {
            continue;
        };
        if !matches!(step.op, StepOp::BConv { .. }) {
            continue;
        }
        println!(
            "  {:<8} {:>14} {:>6} {:>12.3} {:>12.3} {:>12.1} {:>12.1} {:>12.3} {:>12.3}  {}",
            step.name,
            format!(
                "{}x{}x{}",
                step.out_shape.h, step.out_shape.w, step.out_shape.c
            ),
            step.in_shape.c,
            r.direct_s * 1e3,
            r.lowered_s * 1e3,
            r.direct_arena_bytes as f64 / 1e3,
            r.lowered_arena_bytes as f64 / 1e3,
            r.direct_energy_j * 1e3,
            r.lowered_energy_j * 1e3,
            r.path
        );
    }
    // A pointwise projection layer (not in YOLOv2-Tiny) routes to the pure
    // GEMM view — shown so all three paths are visible.
    let pw = select_conv_path(
        &phone.gpu,
        26 * 26,
        256,
        128,
        &ConvGeometry::square(1, 1, 0),
    );
    println!(
        "  {:<8} {:>14} {:>6} {:>12.3} {:>12.3} {:>12.1} {:>12.1} {:>12.3} {:>12.3}  {}  \
         (synthetic 1x1)",
        "pw-1x1",
        "26x26x256",
        128,
        pw.direct_s * 1e3,
        pw.lowered_s * 1e3,
        pw.direct_arena_bytes as f64 / 1e3,
        pw.lowered_arena_bytes as f64 / 1e3,
        pw.direct_energy_j * 1e3,
        pw.lowered_energy_j * 1e3,
        pw.path
    );
    println!(
        "  route score = latency + {:.2} x arena-bytes/DRAM-pass + {:.2} x energy/{:.1}W \
         (per-op energy = device power draw x modeled time + op/DRAM dynamic energy)",
        phonebit_core::planner::ARENA_TRADEOFF_WEIGHT,
        phonebit_core::planner::ENERGY_TRADEOFF_WEIGHT,
        phonebit_core::planner::SOC_POWER_BUDGET_W
    );
    println!(
        "  arena: {} slots, {:.1} KB total ({:.1} KB weights resident)\n",
        plan.slots.len(),
        plan.arena_bytes() as f64 / 1e3,
        plan.weights_bytes as f64 / 1e3
    );

    // Per-chain fusion decisions, scored with the same latency/arena/energy
    // model the route table uses — the split form pays one launch overhead
    // per kernel, the fused form pays one for the whole chain.
    let fused_plan = ExecutionPlan::for_arch(
        &arch,
        &phone.gpu,
        1,
        &RouteOverrides {
            fusion: FusionMode::Auto,
            ..Default::default()
        },
    )
    .expect("the zoo lowers");
    println!("inter-layer fusion chains (same score; split pays per-kernel launch):");
    println!(
        "  {:<18} {:>6} {:>11} {:>11} {:>12} {:>12}  chosen",
        "chain", "disp", "split(ms)", "fused(ms)", "split score", "fused score"
    );
    for d in &fused_plan.chains {
        println!(
            "  {:<18} {:>4}→1 {:>11.3} {:>11.3} {:>12.3} {:>12.3}  {}",
            d.label,
            d.split_dispatches,
            d.split_s * 1e3,
            d.fused_s * 1e3,
            d.split_score * 1e3,
            d.fused_score * 1e3,
            if d.fused { "fused" } else { "split" }
        );
    }
    println!(
        "  dispatches/image: {} unfused → {} fused\n",
        plan.dispatches(),
        fused_plan.dispatches()
    );

    println!("network-level (one optimization disabled at a time):");
    let cases = [
        (
            "no layer integration (§V-B)",
            EstimateOptions {
                overrides: RouteOverrides {
                    force_unfused: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        ),
        (
            "divergent Eqn(8) binarize (§VI-C)",
            EstimateOptions {
                divergent_binarize: true,
                ..Default::default()
            },
        ),
        (
            "no latency hiding (§VI-A.3)",
            EstimateOptions {
                no_latency_hiding: true,
                ..Default::default()
            },
        ),
        (
            "Espresso-style bGEMM lowering (§II)",
            EstimateOptions {
                overrides: RouteOverrides {
                    lowered_gemm: true,
                    ..Default::default()
                },
                ..Default::default()
            },
        ),
    ];
    for (name, opts) in cases {
        let t = estimate_window(&phone, &arch, 1, &opts).total_s;
        println!(
            "  {:<38} {:>8.1} ms  ({:+5.1}%)",
            name,
            t * 1e3,
            (t / base - 1.0) * 100.0
        );
    }

    // Tiling ablation: the seed kernel re-reads each window per filter
    // group and bounds-checks every tap; the tiled kernel gathers once and
    // streams. Modeled on the conv5 shape.
    println!("window-gather tiling (conv5-shaped layer, modeled):");
    {
        let device = DeviceProfile::adreno_640();
        let params = CostParams::for_executor(ExecutorClass::PhoneBitOpenCl);
        let energy = EnergyParams::for_kind(phonebit_gpusim::DeviceKind::Gpu);
        let geom = ConvGeometry::square(3, 1, 1);
        let policy = WorkloadPolicy::for_channels(128);
        let tiled = profiles::bconv_fused(26 * 26, 256, 128, &geom, &policy);
        let untiled = profiles::bconv_fused_untiled(26 * 26, 256, 128, &geom, &policy);
        let t_tiled = estimate(&tiled, &device, &params, &energy);
        let t_untiled = estimate(&untiled, &device, &params, &energy);
        println!(
            "  tiled (gather + 4x2 microkernel)    {:>8.3} ms  {:>8.2} KB DRAM",
            t_tiled.time_s * 1e3,
            t_tiled.dram_bytes / 1e3
        );
        println!(
            "  untiled seed kernel                 {:>8.3} ms  {:>8.2} KB DRAM",
            t_untiled.time_s * 1e3,
            t_untiled.dram_bytes / 1e3
        );
        println!(
            "  tiling speedup                      {:>8.2}x  ({:.1}x less traffic)\n",
            t_untiled.time_s / t_tiled.time_s,
            t_untiled.dram_bytes / t_tiled.dram_bytes
        );
    }

    // Packing width x vector lanes sweep on a representative layer
    // (YOLO conv5 shape: 26x26 output, 256 filters, 128 channels, 3x3).
    println!("\nbit-packing granularity sweep (conv5-shaped layer, modeled):");
    let device = DeviceProfile::adreno_640();
    let params = CostParams::for_executor(ExecutorClass::PhoneBitOpenCl);
    let energy = EnergyParams::for_kind(phonebit_gpusim::DeviceKind::Gpu);
    let geom = ConvGeometry::square(3, 1, 1);
    let policy = WorkloadPolicy::for_channels(128);
    println!("  {:<10} {:>6} {:>12}", "word", "lanes", "time(ms)");
    for (word_bits, lanes, label) in [
        (8usize, 1usize, "uchar"),
        (16, 1, "ushort"),
        (32, 1, "uint"),
        (64, 1, "ulong"),
        (64, 2, "ulong2"),
        (64, 4, "ulong4"),
        (64, 8, "ulong8"),
        (64, 16, "ulong16"),
    ] {
        // Narrower words issue more instructions for the same bits; the
        // lane count amortizes issue overhead (paper §V-A.2: 8-bit to
        // 1024-bit granularity).
        let mut p = profiles::bconv_fused(26 * 26, 256, 128, &geom, &policy);
        p.word_ops *= 32.0 / (word_bits as f64).min(32.0);
        p = p.vector_lanes(lanes * (word_bits / 32).max(1));
        let t = estimate(&p, &device, &params, &energy).time_s;
        println!("  {:<10} {:>6} {:>12.3}", label, lanes, t * 1e3);
    }

    // Data-layout ablation: NHWC packed rows coalesce; NCHW strides don't.
    println!("\ndata layout (same layer, modeled):");
    for (label, coalescing) in [("NHWC (PhoneBit)", 0.95), ("NCHW (baseline default)", 0.4)] {
        let p = profiles::bconv_fused(26 * 26, 256, 128, &geom, &policy).coalescing(coalescing);
        let t = estimate(&p, &device, &params, &energy).time_s;
        println!("  {:<26} {:>10.3} ms", label, t * 1e3);
    }

    // Workload policy: 8 filters per thread with integrated packing vs one
    // filter per thread + separate pack kernel (paper §VI-B, Fig 4).
    println!("\nworkload policy (same layer, modeled):");
    let fused8 = profiles::bconv_fused(
        26 * 26,
        256,
        128,
        &geom,
        &WorkloadPolicy::always_integrated(),
    );
    let t8 = estimate(&fused8, &device, &params, &energy).time_s;
    let accum1 = profiles::bconv_accum(
        26 * 26,
        256,
        128,
        &geom,
        &WorkloadPolicy::never_integrated(),
    );
    let pack = profiles::binarize_pack(26 * 26, 256);
    let t1 = estimate(&accum1, &device, &params, &energy).time_s
        + estimate(&pack, &device, &params, &energy).time_s;
    println!("  8 filters/thread, integrated pack   {:>8.3} ms", t8 * 1e3);
    println!("  1 filter/thread, separate pack      {:>8.3} ms", t1 * 1e3);
    println!("  integration speedup                 {:>8.2}x", t1 / t8);

    // Lowering strategy: PhoneBit's direct fused kernel vs the
    // Espresso-style bit-im2col + binary GEMM (paper §II contrasts with
    // Espresso's matrix-multiplication approach).
    println!("\nlowering strategy (conv5-shaped layer, modeled):");
    let direct = profiles::bconv_fused(26 * 26, 256, 128, &geom, &policy);
    let t_direct = estimate(&direct, &device, &params, &energy).time_s;
    let lower_pack = phonebit_nn::kernels::bgemm::pack_windows_profile(26 * 26, 128, &geom);
    let lower_gemm = phonebit_nn::kernels::bgemm::bgemm_profile(26 * 26, 256, 128, &geom);
    let t_lowered = estimate(&lower_pack, &device, &params, &energy).time_s
        + estimate(&lower_gemm, &device, &params, &energy).time_s;
    println!(
        "  direct fused (PhoneBit)             {:>8.3} ms",
        t_direct * 1e3
    );
    println!(
        "  bit-im2col + bGEMM (Espresso-style) {:>8.3} ms",
        t_lowered * 1e3
    );
    println!(
        "  direct advantage                    {:>8.2}x",
        t_lowered / t_direct
    );

    // Occupancy throttling: the reason the paper caps integration at 256
    // channels.
    println!("\nprivate-memory occupancy (3x3 window, modeled):");
    println!("  {:<10} {:>12} {:>12}", "channels", "occupancy", "note");
    for c in [64usize, 256, 512, 1024] {
        let pol = WorkloadPolicy::always_integrated();
        let p: KernelProfile = profiles::bconv_fused(26 * 26, 256, c, &geom, &pol);
        let s = estimate(&p, &device, &params, &energy);
        let note = if c <= 256 {
            "integrated (paper's rule)"
        } else {
            "would throttle: use separate pack"
        };
        println!("  {:<10} {:>12.2} {:>32}", c, s.occupancy, note);
    }
    let _ = NdRange::linear(1);
}
