//! The one-plan contract: the engine, the estimator, and the planner all
//! consume the same `ExecutionPlan`. These tests pin that agreement — plan
//! routes equal `select_conv_path` across the model zoo, the engine's
//! dispatched kernel names follow its staged routes on all three paths,
//! and run/estimate timing stays bit-identical.

use phonebit::core::plan::{ExecutionPlan, RouteOverrides, StepOp};
use phonebit::core::{convert, estimate_arch, select_conv_path, ConvPath, Session};
use phonebit::gpusim::Phone;
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::tensor::shape::Shape4;

#[test]
fn plan_routes_agree_with_planner_across_model_zoo() {
    for arch in zoo::all(Variant::Binary) {
        for phone in Phone::all() {
            let plan = ExecutionPlan::for_arch(&arch, &phone.gpu, 1, &RouteOverrides::default())
                .expect("lowers");
            let mut binary_convs = 0;
            for step in &plan.steps {
                let StepOp::BConv { geom, k } = &step.op else {
                    continue;
                };
                binary_convs += 1;
                let direct = select_conv_path(
                    &phone.gpu,
                    step.out_shape.pixels(),
                    *k,
                    step.in_shape.c,
                    geom,
                );
                let staged = step.route.expect("BConv step carries a route");
                assert_eq!(
                    staged.path, direct.path,
                    "{} {} on {}: plan route diverged from planner",
                    arch.name, step.name, phone.name
                );
                assert_eq!(staged, direct, "modeled costs must match too");
            }
            assert!(
                binary_convs > 0,
                "{}: zoo model has binary convs",
                arch.name
            );
        }
    }
}

/// Builds a single-conv binary model plus pooling head so each planner
/// path can be forced by shape choice alone.
fn conv_arch(name: &str, hw: usize, c: usize, k: usize, kernel: usize) -> NetworkArch {
    NetworkArch::new(name, Shape4::new(1, hw, hw, c)).conv(
        "conv",
        k,
        kernel,
        1,
        if kernel == 3 { 1 } else { 0 },
        LayerPrecision::Binary,
        Activation::Linear,
    )
}

/// Runs the model and returns the dispatched kernel names.
fn dispatched(arch: &NetworkArch) -> (Vec<&'static str>, ConvPath) {
    let phone = Phone::xiaomi_9();
    let def = fill_weights(arch, 11);
    let model = convert(&def);
    let mut session = Session::new(model, &phone).expect("fits");
    let path = session
        .plan()
        .steps
        .iter()
        .find_map(|s| s.route)
        .expect("one binary conv")
        .path;
    let img = synthetic_image(Shape4::new(1, arch.input.h, arch.input.w, arch.input.c), 3);
    let float_img = phonebit::models::to_float_input(&img);
    let run = session.run_f32(&float_img).expect("runs");
    let est = estimate_arch(&phone, arch);
    assert!(
        (run.total_s - est.total_s).abs() < 1e-12,
        "{}: engine {} vs estimator {}",
        arch.name,
        run.total_s,
        est.total_s
    );
    let names = session.timeline().iter().map(|e| e.stats.name).collect();
    (names, path)
}

#[test]
fn engine_dispatch_follows_direct_fused_route() {
    let arch = conv_arch("direct", 20, 64, 64, 3);
    let (names, path) = dispatched(&arch);
    assert_eq!(path, ConvPath::DirectFused);
    assert!(names.contains(&"bconv_fused"), "{names:?}");
    assert!(!names.iter().any(|n| n.starts_with("bgemm")), "{names:?}");
}

#[test]
fn engine_dispatch_follows_unfused_route() {
    // Narrow compression layer above the integration limit: accum + pack.
    let arch = conv_arch("unfused", 13, 512, 16, 3);
    let (names, path) = dispatched(&arch);
    assert_eq!(path, ConvPath::DirectUnfused);
    assert!(names.contains(&"bconv_accum"), "{names:?}");
    assert!(names.contains(&"binarize_pack"), "{names:?}");
}

#[test]
fn engine_dispatch_follows_pointwise_gemm_route() {
    // 1x1/s1/p0 is a free GEMM view: no materialization kernel.
    let arch = conv_arch("pointwise", 26, 128, 256, 1);
    let (names, path) = dispatched(&arch);
    assert_eq!(path, ConvPath::LoweredGemm);
    assert!(names.contains(&"bgemm_fused"), "{names:?}");
    assert!(!names.contains(&"bgemm_pack_windows"), "{names:?}");
}

#[test]
fn engine_dispatch_follows_materialized_gemm_route() {
    // Wide 512->512 3x3: the lowering wins and must materialize windows.
    let arch = conv_arch("gemm", 13, 512, 512, 3);
    let (names, path) = dispatched(&arch);
    assert_eq!(path, ConvPath::LoweredGemm);
    assert!(names.contains(&"bgemm_pack_windows"), "{names:?}");
    assert!(names.contains(&"bgemm_fused"), "{names:?}");
}

#[test]
fn memory_plan_matches_session_residency() {
    // The weightless arch plan and a staged Session agree on the
    // arena-true footprint: weights + sum of arena slots.
    let arch = zoo::yolo_micro(Variant::Binary);
    let phone = Phone::xiaomi_9();
    let aplan =
        ExecutionPlan::for_arch(&arch, &phone.gpu, 1, &RouteOverrides::default()).expect("lowers");
    let def = fill_weights(&arch, 5);
    let session = Session::new(convert(&def), &phone).expect("fits");
    let eplan = session.plan();
    assert_eq!(aplan.slots, eplan.slots);
    assert_eq!(aplan.staged_arena_bytes(), eplan.arena_bytes());
    // Session residency = staged weights + arena (model weight bytes, not
    // the analytic arch estimate, which differs in BN bookkeeping).
    assert_eq!(
        session.resident_bytes(),
        session.model().size_bytes() + eplan.arena_bytes()
    );
}
