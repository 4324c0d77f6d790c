//! Cross-crate integration: the full Fig-2 pipeline (checkpoint → convert →
//! serialize → deploy → infer) and the agreement between the engine, the
//! estimate path, and the baseline frameworks.

use phonebit::baselines::common::Framework;
use phonebit::baselines::{CnnDroid, TfLite};
use phonebit::core::format::{read_model, write_model};
use phonebit::core::{
    convert, estimate_window, CompressionMode, EstimateOptions, ExecutionPlan, FusionMode,
    RouteOverrides, RunReport, Session,
};
use phonebit::gpusim::{CommandQueue, ExecutorClass, LaunchEvent, Phone};
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, fill_weights_clustered, synthetic_image, to_float_input};
use phonebit::tensor::shape::Shape4;

mod common;
use common::dispatch_extras_arch;

#[test]
fn checkpoint_to_inference_pipeline() {
    let def = fill_weights(&zoo::alexnet_micro(Variant::Binary), 3);
    let model = convert(&def);
    // Serialize, reload, deploy the reloaded model.
    let payload = write_model(&model);
    let reloaded = read_model(&payload).expect("round trip");
    assert_eq!(model, reloaded);

    let mut session = Session::new(reloaded, &Phone::xiaomi_9()).expect("fits");
    let img = synthetic_image(Shape4::new(1, 32, 32, 3), 1);
    let report = session.run_u8(&img).expect("runs");
    let probs = report
        .output
        .expect("output")
        .into_floats()
        .expect("floats");
    let sum: f32 = probs.as_slice().iter().sum();
    assert!((sum - 1.0).abs() < 1e-4, "softmax sums to 1: {sum}");
    assert!(report.total_s > 0.0);
    assert_eq!(report.per_layer.len(), def.arch.layers.len());
}

/// The engine's walk launches the plan's dispatch list and nothing else:
/// [`ExecutionPlan::step_profiles`], which every model of a plan reads, is
/// staged once per step and launched over the kernel bodies. A body run
/// outside the list, or a list entry left unlaunched, shows here as a
/// timeline that differs from the list launched alone, over the micro zoo
/// (plus [`dispatch_extras_arch`]) × batch {1, 3} × every route override.
#[test]
fn engine_timing_equals_estimate_path() {
    let phone = Phone::xiaomi_9();
    let base = RouteOverrides::default();
    // (row, overrides, clustered weights, arch twin). The last column says
    // whether the weightless arch lowers to the session's plan, so the
    // full-scale estimator must reproduce the executed report bit for bit:
    // an arch has no banks to dictionary-compress, and it sizes banks
    // before word padding, so the compressed and paged rows are pinned
    // against the session's own plan only.
    let rows: [(&str, RouteOverrides, bool, bool); 10] = [
        ("default", base, false, true),
        (
            "force_unfused",
            RouteOverrides {
                force_unfused: true,
                ..base
            },
            false,
            true,
        ),
        (
            "lowered_gemm",
            RouteOverrides {
                lowered_gemm: true,
                ..base
            },
            false,
            true,
        ),
        (
            "fusion auto",
            RouteOverrides {
                fusion: FusionMode::Auto,
                ..base
            },
            false,
            true,
        ),
        (
            "fusion force",
            RouteOverrides {
                fusion: FusionMode::Force,
                ..base
            },
            false,
            true,
        ),
        (
            "compression auto",
            RouteOverrides {
                compression: CompressionMode::Auto,
                ..base
            },
            true,
            false,
        ),
        // Dictionary banks on the accumulate + pack pair: only the
        // accumulate half carries the discount.
        (
            "compression auto + force_unfused",
            RouteOverrides {
                compression: CompressionMode::Auto,
                force_unfused: true,
                ..base
            },
            true,
            false,
        ),
        // A fused group's discount is its leading conv's dictionary saving.
        (
            "compression auto + fusion force",
            RouteOverrides {
                compression: CompressionMode::Auto,
                fusion: FusionMode::Force,
                ..base
            },
            true,
            false,
        ),
        // Dictionary banks on the GEMM pair: only the GEMM reads filters.
        (
            "compression auto + lowered_gemm",
            RouteOverrides {
                compression: CompressionMode::Auto,
                lowered_gemm: true,
                ..base
            },
            true,
            false,
        ),
        // `Some(0)` stands for "this model's paged floor", filled in below.
        (
            "paged floor",
            RouteOverrides {
                weight_budget: Some(0),
                ..base
            },
            false,
            false,
        ),
    ];
    for arch in [
        zoo::alexnet_micro(Variant::Binary),
        zoo::yolo_micro(Variant::Binary),
        dispatch_extras_arch(),
    ] {
        for batch in [1usize, 3] {
            for (row, overrides, clustered, arch_twin) in rows {
                let tag = format!("{} batch {batch} {row}", arch.name);
                let def = if clustered {
                    fill_weights_clustered(&arch, 9, 4)
                } else {
                    fill_weights(&arch, 9)
                };
                let model = convert(&def);
                let mut overrides = overrides;
                if overrides.weight_budget.is_some() {
                    let resident = ExecutionPlan::for_model_batched(&model, &phone.gpu, batch);
                    overrides.weight_budget = Some(resident.expect("lowers").paged_floor_bytes());
                }
                let mut session =
                    Session::new_batched_opts(model, &phone, batch, overrides).expect("fits");
                let images: Vec<_> = (0..batch)
                    .map(|i| synthetic_image(arch.input, 5 + i as u64))
                    .collect();
                let run = session.run_batch_u8(&images).expect("runs");
                let plan = session.plan();
                if clustered {
                    assert!(plan.compression.iter().any(|d| d.compressed), "{tag}");
                }
                if let Some(pg) = &plan.paging {
                    assert!(!pg.resident && pg.stall_s() > 0.0, "{tag}: streams");
                }

                // The executed timeline is the plan's list, launched in
                // order on a fresh queue (paged plans charge their
                // schedule's stall at each step boundary).
                let mut q = CommandQueue::new(phone.gpu.clone(), ExecutorClass::PhoneBitOpenCl);
                q.host_delay(q.per_run_overhead_s());
                let mut step_s = Vec::new();
                for idx in 0..plan.steps.len() {
                    let t0 = q.elapsed_s();
                    if let Some(pg) = &plan.paging {
                        q.host_delay(pg.steps[idx].stall_s);
                    }
                    for profile in plan.step_profiles(idx) {
                        q.launch(profile, || {});
                    }
                    step_s.push(q.elapsed_s() - t0);
                }
                let launched = |events: &[LaunchEvent]| -> Vec<(&'static str, u64)> {
                    events
                        .iter()
                        .map(|e| (e.stats.name, e.stats.time_s.to_bits()))
                        .collect()
                };
                assert_eq!(
                    launched(session.timeline()),
                    launched(q.timeline()),
                    "{tag}"
                );
                assert_eq!(plan.dispatches(), session.timeline().len(), "{tag}");
                assert_eq!(run.total_s.to_bits(), q.elapsed_s().to_bits(), "{tag}");
                let layer_s: Vec<f64> = run.per_layer.iter().map(|l| l.time_s).collect();
                assert_eq!(layer_s, step_s, "{tag}: per-step times");

                if arch_twin {
                    let opts = EstimateOptions {
                        overrides,
                        ..Default::default()
                    };
                    let est = estimate_window(&phone, &arch, batch, &opts);
                    assert_eq!(run.total_s.to_bits(), est.total_s.to_bits(), "{tag}");
                    let breakdown = |r: &RunReport| -> Vec<(String, u64)> {
                        r.per_layer
                            .iter()
                            .map(|l| (l.name.to_string(), l.time_s.to_bits()))
                            .collect()
                    };
                    assert_eq!(
                        breakdown(&run),
                        breakdown(&est),
                        "{tag}: per-layer breakdown"
                    );
                }
            }
        }
    }
}

#[test]
fn baselines_agree_functionally_with_each_other() {
    // CNNdroid and TFLite-CPU run the same float math; outputs must agree
    // to float tolerance (TFLite GPU rounds through fp16, quant through
    // int8 — looser).
    let arch = zoo::alexnet_micro(Variant::Float);
    let def = fill_weights(&arch, 77);
    let img = to_float_input(&synthetic_image(Shape4::new(1, 32, 32, 3), 8));
    let phone = Phone::xiaomi_9();
    let a = CnnDroid::gpu().run(&phone, &def, &img).unwrap();
    let b = TfLite::cpu().run(&phone, &def, &img).unwrap();
    let ta = a.output.unwrap().into_floats().unwrap();
    let tb = b.output.unwrap().into_floats().unwrap();
    assert!(ta.max_abs_diff(&tb) < 1e-4, "float baselines diverged");
}

#[test]
fn binarized_engine_matches_binarized_reference_semantics() {
    // Run the engine, then recompute the same binarized network naively in
    // floats and compare final logits exactly.
    use phonebit::nn::fuse::FusedBn;
    use phonebit::nn::graph::{LayerSpec, LayerWeights};
    use phonebit::tensor::pad::pad_f32_with;
    use phonebit::tensor::Tensor;

    let arch = zoo::yolo_micro(Variant::Binary);
    let def = fill_weights(&arch, 31);
    let model = convert(&def);
    let phone = Phone::xiaomi_9();
    let img = synthetic_image(Shape4::new(1, 64, 64, 3), 17);
    let mut session = Session::new(model, &phone).expect("fits");
    let engine_out = session
        .run_u8(&img)
        .expect("runs")
        .output
        .expect("output")
        .into_floats()
        .expect("floats");

    // Naive float reference of the binarized semantics.
    let infos = arch.infer();
    let mut cur: Tensor<f32> = Tensor::from_fn(img.shape(), |n, h, w, c| img.at(n, h, w, c) as f32);
    let mut binary_domain = false;
    for ((layer, weights), info) in arch.layers.iter().zip(def.weights.iter()).zip(infos.iter()) {
        match (layer, weights) {
            (LayerSpec::Conv(c), LayerWeights::Conv(w)) => {
                use phonebit::nn::graph::LayerPrecision;
                let binarize_out = c.precision != LayerPrecision::Float;
                let filters = if binarize_out {
                    w.filters.signum()
                } else {
                    w.filters.clone()
                };
                // Binary layers pad with -1 after the first (u8 pads with 0).
                let pad_val = if binary_domain { -1.0 } else { 0.0 };
                let padded = pad_f32_with(&cur, c.geom.pad_h, c.geom.pad_w, pad_val);
                let fused = w.bn.as_ref().map(|bn| FusedBn::precompute(bn, &w.bias));
                let mut out = Tensor::zeros(info.output, phonebit::tensor::Layout::Nhwc);
                for n in 0..info.output.n {
                    for oy in 0..info.output.h {
                        for ox in 0..info.output.w {
                            for k in 0..info.output.c {
                                let mut acc = 0.0f32;
                                for i in 0..c.geom.kh {
                                    for j in 0..c.geom.kw {
                                        for ch in 0..info.input.c {
                                            acc += padded.at(
                                                n,
                                                oy * c.geom.stride_h + i,
                                                ox * c.geom.stride_w + j,
                                                ch,
                                            ) * filters.at(k, i, j, ch);
                                        }
                                    }
                                }
                                let v = if binarize_out {
                                    let f = fused.as_ref().expect("bn");
                                    if f.decide_logic(k, acc) {
                                        1.0
                                    } else {
                                        -1.0
                                    }
                                } else {
                                    c.activation.apply(acc + w.bias[k])
                                };
                                out.set(n, oy, ox, k, v);
                            }
                        }
                    }
                }
                cur = out;
                binary_domain = binarize_out;
            }
            (LayerSpec::Pool(p), _) => {
                let geom = phonebit::nn::kernels::pool::PoolGeometry::new(p.size, p.stride);
                let mut out = Tensor::zeros(info.output, phonebit::tensor::Layout::Nhwc);
                phonebit::nn::kernels::pool::compute_maxpool_f32(&cur, &geom, &mut out);
                cur = out;
            }
            _ => unreachable!("yolo_micro has only conv/pool layers"),
        }
    }
    assert_eq!(engine_out.shape(), cur.shape());
    let diff = engine_out.max_abs_diff(&cur);
    assert!(
        diff < 1e-2,
        "engine vs naive binarized reference: max diff {diff}"
    );
}

#[test]
fn phone_budgets_stage_all_binarized_models() {
    // PhoneBit deploys AlexNet, YOLO and VGG16 on both phones — unlike
    // CNNdroid, which OOMs on VGG16 (Table III).
    for arch in zoo::all(Variant::Binary) {
        for phone in Phone::all() {
            // Routes (and therefore arena scratch) are device-dependent:
            // plan for the phone actually being checked, exactly as
            // Session::new will.
            let plan = ExecutionPlan::for_arch(&arch, &phone.gpu, 1, &RouteOverrides::default())
                .expect("lowers");
            assert!(
                plan.peak_bytes() <= phone.app_budget_bytes(),
                "{} should fit {}",
                arch.name,
                phone.name
            );
        }
    }
}

trait Signum {
    fn signum(&self) -> Self;
}

impl Signum for phonebit::tensor::Filters {
    fn signum(&self) -> Self {
        let shape = self.shape();
        phonebit::tensor::Filters::from_fn(shape, |k, i, j, c| {
            if self.at(k, i, j, c) >= 0.0 {
                1.0
            } else {
                -1.0
            }
        })
    }
}
