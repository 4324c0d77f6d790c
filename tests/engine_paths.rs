//! Integration coverage of the engine's less-travelled paths: the >256
//! channel unfused route, batch inference, the lowered-GEMM alternative,
//! and run-vs-estimate timing consistency of the engine and the baselines.

use phonebit::baselines::common::Framework;
use phonebit::baselines::{CnnDroid, TfLite};
use phonebit::core::{convert, estimate_arch, Session, StagedModel};
use phonebit::gpusim::Phone;
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, fill_weights_clustered, synthetic_image, to_float_input};
use phonebit::nn::act::Activation;
use phonebit::nn::fuse::FusedBn;
use phonebit::nn::graph::{LayerPrecision, LayerWeights, NetworkArch};
use phonebit::nn::kernels::bconv::DirectBank;
use phonebit::nn::kernels::isa::IsaTier;
use phonebit::nn::kernels::taps::TapBank;
use phonebit::nn::kernels::tiled::FusedLanes;
use phonebit::tensor::pack::pack_filters;
use phonebit::tensor::shape::{ConvGeometry, Shape4};

/// A micro net whose middle layer exceeds the 256-channel integration
/// limit, forcing the engine through bconv_accum + binarize_pack.
fn wide_channel_arch() -> NetworkArch {
    NetworkArch::new("wide", Shape4::new(1, 12, 12, 3))
        .conv(
            "conv1",
            320,
            3,
            1,
            1,
            LayerPrecision::BinaryInput8,
            Activation::Linear,
        )
        .conv(
            "conv2",
            32,
            3,
            1,
            1,
            LayerPrecision::Binary,
            Activation::Linear,
        )
        .conv(
            "conv3",
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
fn unfused_path_runs_and_matches_estimate() {
    let arch = wide_channel_arch();
    let def = fill_weights(&arch, 55);
    let model = convert(&def);
    let phone = Phone::xiaomi_9();
    let mut session = Session::new(model, &phone).expect("fits");
    let img = synthetic_image(Shape4::new(1, 12, 12, 3), 3);
    let run = session.run_u8(&img).expect("runs");
    // conv2 reads 320 channels (> 256): accum + pack, still bit-exact
    // against the estimate path's dispatch count and timing.
    let est = estimate_arch(&phone, &arch);
    assert!((run.total_s - est.total_s).abs() < 1e-9);
    // Output is a softmax distribution.
    let probs = run.output.expect("out").into_floats().expect("floats");
    let sum: f32 = probs.as_slice().iter().sum();
    assert!((sum - 1.0).abs() < 1e-4);
}

#[test]
fn batch_inference_processes_every_image() {
    // Batch = 3 through a binary net; per-image slices must equal three
    // independent runs.
    let single = NetworkArch::new("b1", Shape4::new(1, 8, 8, 3))
        .conv(
            "conv1",
            16,
            3,
            1,
            1,
            LayerPrecision::BinaryInput8,
            Activation::Linear,
        )
        .conv(
            "conv2",
            8,
            1,
            1,
            0,
            LayerPrecision::Float,
            Activation::Linear,
        );
    let batch3 = NetworkArch::new("b3", Shape4::new(3, 8, 8, 3))
        .conv(
            "conv1",
            16,
            3,
            1,
            1,
            LayerPrecision::BinaryInput8,
            Activation::Linear,
        )
        .conv(
            "conv2",
            8,
            1,
            1,
            0,
            LayerPrecision::Float,
            Activation::Linear,
        );
    let def1 = fill_weights(&single, 9);
    let def3 = fill_weights(&batch3, 9);
    let phone = Phone::xiaomi_9();
    let mut s1 = Session::new(convert(&def1), &phone).unwrap();
    let mut s3 = Session::new(convert(&def3), &phone).unwrap();

    let imgs: Vec<_> = (0..3)
        .map(|i| synthetic_image(Shape4::new(1, 8, 8, 3), 100 + i))
        .collect();
    let mut batch = phonebit::tensor::Tensor::<u8>::zeros(
        Shape4::new(3, 8, 8, 3),
        phonebit::tensor::Layout::Nhwc,
    );
    for (n, img) in imgs.iter().enumerate() {
        for h in 0..8 {
            for w in 0..8 {
                for c in 0..3 {
                    batch.set(n, h, w, c, img.at(0, h, w, c));
                }
            }
        }
    }
    let batch_out = s3
        .run_u8(&batch)
        .unwrap()
        .output
        .unwrap()
        .into_floats()
        .unwrap();
    for (n, img) in imgs.iter().enumerate() {
        let solo = s1
            .run_u8(img)
            .unwrap()
            .output
            .unwrap()
            .into_floats()
            .unwrap();
        let s = solo.shape();
        for h in 0..s.h {
            for w in 0..s.w {
                for c in 0..s.c {
                    assert_eq!(
                        batch_out.at(n, h, w, c),
                        solo.at(0, h, w, c),
                        "batch image {n} diverged at ({h},{w},{c})"
                    );
                }
            }
        }
    }
}

#[test]
fn session_timing_equals_estimate_arch() {
    // estimate_arch walks YOLO-micro's plan with empty bodies; an executing
    // session walks the same plan, so both model the same time.
    let def = fill_weights(&phonebit::models::zoo::yolo_micro(Variant::Binary), 4);
    let phone = Phone::xiaomi_9();
    let est = estimate_arch(&phone, &def.arch);
    let mut session = Session::new(convert(&def), &phone).unwrap();
    let img = synthetic_image(Shape4::new(1, 64, 64, 3), 6);
    let run = session.run_u8(&img).unwrap();
    assert!((run.total_s - est.total_s).abs() < 1e-9);
}

#[test]
fn baseline_run_and_estimate_agree_on_timing() {
    // The functional baseline run must model the same time as its estimate.
    let arch = phonebit::models::zoo::alexnet_micro(Variant::Float);
    let def = fill_weights(&arch, 70);
    let img = to_float_input(&synthetic_image(Shape4::new(1, 32, 32, 3), 2));
    let phone = Phone::xiaomi_9();
    for fw in [
        Box::new(CnnDroid::cpu()) as Box<dyn Framework>,
        Box::new(CnnDroid::gpu()),
        Box::new(TfLite::cpu()),
        Box::new(TfLite::quant()),
    ] {
        let run = fw.run(&phone, &def, &img).unwrap();
        let est = fw.estimate(&phone, &arch).unwrap();
        assert!(
            (run.total_s - est.total_s).abs() < 1e-9,
            "{}: run {} vs estimate {}",
            fw.label(),
            run.total_s,
            est.total_s
        );
    }
}

#[test]
fn lowered_gemm_available_as_alternative() {
    // The Espresso-style path matches the direct path bit-for-bit through
    // the public kernel API (deeper equivalence tests live in the crate).
    use phonebit::nn::fuse::FusedBn;
    use phonebit::nn::kernels::{bconv::bconv_fused, bgemm::bconv_lowered};
    use phonebit::tensor::pack::{pack_f32, pack_filters};
    use phonebit::tensor::shape::{ConvGeometry, FilterShape};
    use phonebit::tensor::{Filters, Tensor};

    let t = Tensor::from_fn(Shape4::new(1, 9, 9, 24), |_, h, w, c| {
        if (h + w * 2 + c) % 3 == 0 {
            1.0
        } else {
            -1.0
        }
    });
    let f = Filters::from_fn(FilterShape::new(16, 3, 3, 24), |k, i, j, c| {
        if (k + i + j + c) % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    });
    let geom = ConvGeometry::square(3, 1, 1);
    let fused = FusedBn::identity(16);
    let mut q = phonebit::gpusim::CommandQueue::new(
        phonebit::gpusim::DeviceProfile::adreno_640(),
        phonebit::gpusim::ExecutorClass::PhoneBitOpenCl,
    );
    let a = bconv_fused(
        &mut q,
        &pack_f32::<u64>(&t),
        &pack_filters::<u64>(&f),
        &fused,
        &geom,
    );
    let b = bconv_lowered(
        &mut q,
        &pack_f32::<u64>(&t),
        &pack_filters::<u64>(&f),
        &fused,
        &geom,
    );
    assert_eq!(a, b);
}

/// Random weights repeat no filter, so neither the micro zoo nor the full
/// YOLOv2-Tiny stages a shared bank (each distinct filter multiplied once);
/// a clustered micro YOLO does wherever the CPU permutes words (the AVX-512
/// tier).
#[test]
fn only_repeating_filters_stage_a_shared_bank() {
    let phone = Phone::xiaomi_9();
    let shared = |def| {
        let staged = StagedModel::stage(convert(&def), &phone, 1).expect("fits");
        staged.shared_banks()
    };
    for arch in [
        zoo::alexnet_micro(Variant::Binary),
        zoo::yolo_micro(Variant::Binary),
        zoo::yolov2_tiny(Variant::Binary),
    ] {
        assert_eq!(shared(fill_weights(&arch, 2020)), 0, "{}", arch.name);
    }
    let clustered = fill_weights_clustered(&zoo::yolo_micro(Variant::Binary), 2020, 4);
    let avx512 = IsaTier::detected() == IsaTier::Avx512Vpopcntdq;
    assert_eq!(shared(clustered) > 0, avx512);
}

/// A thin 3×3 layer whose filters repeat keeps its tap bank up to 64
/// filters, where taps outran the shared lanes; from 128 filters on it
/// stages the shared lanes.
#[test]
fn thin_repeating_filters_keep_taps_up_to_64_filters() {
    let geom = ConvGeometry::square(3, 1, 1);
    let avx512 = IsaTier::detected() == IsaTier::Avx512Vpopcntdq;
    for k in [32, 64, 128, 256] {
        let arch = NetworkArch::new("thin", Shape4::new(1, 16, 16, 16)).conv(
            "conv",
            k,
            3,
            1,
            1,
            LayerPrecision::Binary,
            Activation::Linear,
        );
        let def = fill_weights_clustered(&arch, 2020, 16);
        let LayerWeights::Conv(w) = &def.weights[0] else {
            unreachable!("one conv layer")
        };
        let fused = FusedBn::precompute(w.bn.as_ref().expect("binary conv has BN"), &w.bias);
        let filters = pack_filters::<u64>(&w.filters);
        let shared = FusedLanes::new(&filters, &fused)
            .distinct_filters()
            .is_some();
        assert_eq!(shared, avx512, "K = {k}: 16 prototypes share on AVX-512");
        let fits = TapBank::fits(filters.shape(), &geom);
        let taps = matches!(
            DirectBank::new(&filters, &fused, Some(&geom)),
            DirectBank::Taps(_)
        );
        assert_eq!(taps, fits && (k <= 64 || !shared), "K = {k}");
    }
}
