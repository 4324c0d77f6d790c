//! The batched engine's core contract: a window of N requests produces
//! **bit-identical** outputs to N independent single-image runs — across
//! the model zoo's micro networks and every binary-convolution kernel
//! route — while dispatching one kernel per layer (launch overhead
//! amortized) and double-buffering the arena between windows.

use phonebit::core::plan::{ExecutionPlan, RouteOverrides};
use phonebit::core::{convert, ConvPath, Session};
use phonebit::gpusim::Phone;
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image, to_float_input};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::tensor::shape::Shape4;
use phonebit::tensor::Tensor;

#[test]
fn batched_window_equals_singles_across_micro_zoo() {
    let phone = Phone::xiaomi_9();
    for arch in [
        zoo::alexnet_micro(Variant::Binary),
        zoo::yolo_micro(Variant::Binary),
    ] {
        let model = convert(&fill_weights(&arch, 21));
        let images: Vec<_> = (0..4)
            .map(|i| synthetic_image(arch.input, 31 + i as u64))
            .collect();

        let mut single = Session::new(model.clone(), &phone).expect("fits");
        let solo: Vec<_> = images
            .iter()
            .map(|img| single.run_u8(img).expect("solo run").output.unwrap())
            .collect();

        let mut batched = Session::new_batched(model, &phone, 4).expect("fits");
        let out = batched
            .run_batch_u8(&images)
            .expect("batched window")
            .output
            .unwrap();
        for (i, want) in solo.iter().enumerate() {
            assert_eq!(&out.image(i), want, "{} image {i}", arch.name);
        }
    }
}

/// Single binary-conv architectures whose shapes force each planner route
/// (mirrors `tests/route_agreement.rs`).
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

#[test]
fn batched_window_equals_singles_on_every_kernel_route() {
    let phone = Phone::xiaomi_9();
    let cases = [
        (conv_arch("direct", 20, 64, 64, 3), ConvPath::DirectFused),
        (
            conv_arch("unfused", 13, 512, 16, 3),
            ConvPath::DirectUnfused,
        ),
        (
            conv_arch("pointwise", 26, 128, 256, 1),
            ConvPath::LoweredGemm,
        ),
        (conv_arch("gemm", 13, 512, 512, 3), ConvPath::LoweredGemm),
    ];
    for (arch, expect_path) in cases {
        let model = convert(&fill_weights(&arch, 17));
        let images: Vec<Tensor<f32>> = (0..4)
            .map(|i| to_float_input(&synthetic_image(arch.input, 71 + i as u64)))
            .collect();

        let mut single = Session::new(model.clone(), &phone).expect("fits");
        let solo: Vec<_> = images
            .iter()
            .map(|img| single.run_f32(img).expect("solo run").output.unwrap())
            .collect();

        let mut batched = Session::new_batched(model, &phone, 4).expect("fits");
        // Route choice is batch-aware but these shapes are work-dominated:
        // the batched plan stays on the same path as the single plan.
        let staged = batched
            .plan()
            .steps
            .iter()
            .find_map(|s| s.route)
            .expect("one binary conv")
            .path;
        assert_eq!(staged, expect_path, "{}", arch.name);

        let out = batched
            .run_batch_f32(&images)
            .expect("batched window")
            .output
            .unwrap();
        for (i, want) in solo.iter().enumerate() {
            assert_eq!(&out.image(i), want, "{} image {i}", arch.name);
        }
    }
}

#[test]
fn batched_window_dispatches_once_per_kernel_and_wins_throughput() {
    let phone = Phone::xiaomi_9();
    let arch = zoo::yolo_micro(Variant::Binary);
    let model = convert(&fill_weights(&arch, 9));
    let images: Vec<_> = (0..4)
        .map(|i| synthetic_image(arch.input, 3 + i as u64))
        .collect();

    let mut single = Session::new(model.clone(), &phone).expect("fits");
    let solo_report = single.run_u8(&images[0]).expect("solo");
    let solo_dispatches = single.timeline().len();
    let solo_names: Vec<&str> = single.timeline().iter().map(|e| e.stats.name).collect();

    let mut batched = Session::new_batched(model, &phone, 4).expect("fits");
    let cold = batched.run_batch_u8(&images).expect("cold window");
    // One dispatch per kernel, same kernel sequence as a single run.
    assert_eq!(batched.timeline().len(), solo_dispatches);
    let batched_names: Vec<&str> = batched.timeline().iter().map(|e| e.stats.name).collect();
    assert_eq!(batched_names, solo_names);
    // Cold window already beats four sequential singles; a primed window
    // additionally drops the per-run framework overhead.
    assert!(cold.total_s < 4.0 * solo_report.total_s);
    let warm = batched.run_batch_u8(&images).expect("warm window");
    assert!(warm.total_s < cold.total_s);
    assert!(
        4.0 / warm.total_s > 1.0 / solo_report.total_s,
        "imgs/sec up"
    );
    // Bank flips keep the stream deterministic.
    let again = batched.run_batch_u8(&images).expect("third window");
    assert_eq!(again.total_s, warm.total_s);
    assert_eq!(
        &warm.output.unwrap(),
        &again.output.unwrap(),
        "steady windows"
    );
}

#[test]
fn batched_plan_and_residency_agree_with_planner() {
    let phone = Phone::xiaomi_9();
    let arch = zoo::yolo_micro(Variant::Binary);
    let model = convert(&fill_weights(&arch, 13));
    let session = Session::new_batched(model, &phone, 4).expect("fits");
    let eplan = session.plan();
    assert_eq!(eplan.batch, 4);
    assert_eq!(eplan.banks, 2);
    let aplan =
        ExecutionPlan::for_arch(&arch, &phone.gpu, 4, &RouteOverrides::default()).expect("lowers");
    assert_eq!(aplan.slots, eplan.slots);
    assert_eq!(aplan.staged_arena_bytes(), eplan.staged_arena_bytes());
    assert_eq!(
        session.resident_bytes(),
        session.model().size_bytes() + eplan.staged_arena_bytes()
    );
    // The analytic batched plan agrees with an estimator window too.
    let est = phonebit::core::estimate_window(&phone, &arch, 4, &Default::default());
    assert_eq!(est.peak_bytes, aplan.peak_bytes());
}
