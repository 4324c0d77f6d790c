//! The batched engine's core contract: a window of N requests produces
//! **bit-identical** outputs to N independent single-image runs — across
//! the model zoo's micro networks and every binary-convolution kernel
//! route — while dispatching one kernel per layer (launch overhead
//! amortized) and double-buffering the arena between windows.

use phonebit::core::plan::{ExecutionPlan, FusionMode, RouteOverrides, StepOp};
use phonebit::core::{convert, ConvPath, Session};
use phonebit::gpusim::{CommandQueue, ExecutorClass, Phone};
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image, to_float_input};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::nn::kernels;
use phonebit::tensor::bits::BitTensor;
use phonebit::tensor::pack::pack_f32;
use phonebit::tensor::shape::{Layout, Shape4};
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

/// A float image with both signs in every pixel (the zoo's `[0, 1]` float
/// inputs pack to all ones).
fn signed_image(shape: Shape4, seed: usize) -> Tensor<f32> {
    Tensor::from_fn(shape, |_, h, w, c| {
        ((h * 37 + w * 11 + c * 5 + seed * 53) % 7) as f32 - 3.0
    })
}

#[test]
fn float_windows_packed_in_place_equal_singles_over_both_banks() {
    let phone = Phone::xiaomi_9();
    // C = 70: a full word and a tail. conv -> pool -> conv, so the forced
    // plan absorbs the pack into a conv chain with a pool epilogue.
    let arch = conv_arch("in-place", 12, 70, 64, 3)
        .maxpool("pool", 2, 2)
        .conv(
            "conv2",
            24,
            3,
            1,
            1,
            LayerPrecision::Binary,
            Activation::Linear,
        );
    let model = convert(&fill_weights(&arch, 17));
    let images: Vec<_> = (0..6).map(|i| signed_image(arch.input, i)).collect();
    let blank = Tensor::<f32>::zeros(arch.input, Layout::Nhwc);
    let mut single = Session::new(model.clone(), &phone).expect("fits");
    let mut solo = |img| single.run_f32(img).expect("solo run").output.unwrap();

    for fusion in [FusionMode::Off, FusionMode::Force] {
        let overrides = RouteOverrides {
            fusion,
            ..Default::default()
        };
        let mut batched =
            Session::new_batched_opts(model.clone(), &phone, 2, overrides).expect("fits");
        let first = &batched.plan().steps[0];
        assert!(first.convert.is_some(), "step 0 packs the float input");
        assert_eq!(
            matches!(first.op, StepOp::FusedGroup { .. }),
            fusion == FusionMode::Force
        );
        // Full, short, short, full: each bank takes a short window after a
        // full one and a full one after a short one.
        for window in [&images[..2], &images[2..3], &images[3..4], &images[4..]] {
            let out = batched.run_batch_f32(window).expect("window").output;
            let out = out.unwrap();
            for i in 0..2 {
                // A short window's trailing lane is the zero image.
                let want = solo(window.get(i).unwrap_or(&blank));
                assert_eq!(out.image(i), want, "{fusion:?} image {i}");
            }
        }
    }
}

#[test]
fn special_values_pack_alike_through_every_entry() {
    // `>=` on the value: -0.0, 0.0, +inf and positive subnormals pack to 1;
    // NaN (either sign), -inf and negative subnormals to 0.
    let specials = [
        (-0.0, true),
        (0.0, true),
        (f32::INFINITY, true),
        (f32::from_bits(1), true),
        (f32::MIN_POSITIVE / 2.0, true),
        (f32::NAN, false),
        (-f32::NAN, false),
        (f32::NEG_INFINITY, false),
        (-f32::from_bits(1), false),
        (-1.5, false),
        (2.0, true),
    ];
    let single = Shape4::new(1, 5, 5, 70);
    let images: Vec<_> = (0..2)
        .map(|i| {
            Tensor::from_fn(single, |_, h, w, c| {
                specials[(h * 3 + w * 5 + c + i) % 11].0
            })
        })
        .collect();
    let plain: Vec<_> = images.iter().map(Tensor::signum_pm1).collect();

    // Kernel level: the window read image by image, the batched tensor, and
    // the plain pack agree bit for bit (and with the table above).
    let window = Shape4::new(2, 5, 5, 70);
    let joined: Vec<f32> = images.iter().flat_map(|t| t.as_slice()).copied().collect();
    let joined = Tensor::from_vec(window, Layout::Nhwc, joined);
    let want = pack_f32::<u64>(&joined);
    assert!(want.tail_is_clean());
    for ((n, h, w, c), _) in joined.iter_indexed() {
        let expect = specials[(h * 3 + w * 5 + c + n) % 11].1;
        assert_eq!(want.get_bit(n, h, w, c), expect, "({n},{h},{w},{c})");
    }
    let mut q = CommandQueue::new(Phone::xiaomi_9().gpu, ExecutorClass::PhoneBitOpenCl);
    let mut got = BitTensor::<u64>::zeros(Shape4::new(0, 0, 0, 0));
    kernels::pack_input_into(&mut q, &joined, &mut got);
    assert_eq!(got, want, "pack_input_into");
    kernels::compute_pack_input(&images, window, &mut got);
    assert_eq!(got, want, "compute_pack_input");
    // A short window's trailing lane is pack(0.0): every real channel set.
    kernels::compute_pack_input(&images[..1], window, &mut got);
    assert!(got.tail_is_clean());
    for ((n, h, w, c), _) in joined.iter_indexed() {
        let expect = n == 1 || want.get_bit(n, h, w, c);
        assert_eq!(got.get_bit(n, h, w, c), expect, "short ({n},{h},{w},{c})");
    }

    // Engine level: the special-valued window runs as its ±1 rendering.
    let arch = conv_arch("specials", 5, 70, 64, 3);
    let model = convert(&fill_weights(&arch, 5));
    let phone = Phone::xiaomi_9();
    let mut batched = Session::new_batched(model.clone(), &phone, 2).expect("fits");
    let out = batched.run_batch_f32(&images).expect("window").output;
    let mut solo = Session::new(model, &phone).expect("fits");
    for (i, img) in plain.iter().enumerate() {
        let want = solo.run_f32(img).expect("solo").output.unwrap();
        assert_eq!(out.as_ref().unwrap().image(i), want, "image {i}");
    }
}

#[test]
fn batch_zero_is_an_input_mismatch_not_a_panic() {
    use phonebit::core::EngineError;
    let phone = Phone::xiaomi_9();
    let model = convert(&fill_weights(&zoo::alexnet_micro(Variant::Binary), 3));
    let err = Session::new_batched(model.clone(), &phone, 0).unwrap_err();
    assert!(matches!(err, EngineError::InputMismatch { .. }), "{err}");
    let overrides = RouteOverrides::default();
    let err = Session::new_batched_opts(model, &phone, 0, overrides).unwrap_err();
    assert!(matches!(err, EngineError::InputMismatch { .. }), "{err}");
}
