//! Dictionary-compressed weight banks, end to end: the dictionary + index
//! form round-trips random filter banks bit-exactly, compressed sessions
//! are bit-exact with their raw twins on every conv route and through
//! fused chains, compressed plans stage a strictly smaller weight
//! footprint on clustered models, the `Off` default leaves plans
//! untouched, and fleet placement admits a tenant under
//! `CompressionMode::Auto` that busts the device weight budget raw.

use proptest::prelude::*;

use phonebit::core::plan::{CompressionMode, ExecutionPlan, FusionMode, RouteOverrides, StepOp};
use phonebit::core::{
    convert, ActivationData, ConvPath, Fleet, FleetDeviceSpec, FleetOptions, Session, TenantSpec,
};
use phonebit::gpusim::Phone;
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights_clustered, synthetic_image, to_float_input};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::tensor::dict::{FilterAccess, FilterDict};
use phonebit::tensor::pack::pack_filters;
use phonebit::tensor::shape::{FilterShape, Shape4};
use phonebit::tensor::Filters;

fn compressed() -> RouteOverrides {
    RouteOverrides {
        compression: CompressionMode::Auto,
        ..Default::default()
    }
}

fn compressed_fused() -> RouteOverrides {
    RouteOverrides {
        compression: CompressionMode::Auto,
        fusion: FusionMode::Force,
        ..Default::default()
    }
}

fn run_once(session: &mut Session, input: Shape4, takes_u8: bool, seed: u64) -> ActivationData {
    if takes_u8 {
        let img = synthetic_image(input, seed);
        session.run_u8(&img).expect("run").output.unwrap()
    } else {
        let img = to_float_input(&synthetic_image(input, seed));
        session.run_f32(&img).expect("run").output.unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The dictionary + narrow-index form is lossless on arbitrary filter
    // banks: decode rebuilds the packed rows byte-exactly, every
    // read-through span and popcount matches the raw bank, and the size
    // accounting follows the documented `unique·row + taps·width` law.
    #[test]
    fn dictionary_round_trips_random_filter_banks(
        k in 1usize..10,
        kh in 1usize..4,
        kw in 1usize..4,
        c in 1usize..130,
        patterns in 1usize..6,
        seed in any::<u64>(),
    ) {
        // Filters draw signs from `patterns` prototype streams so some
        // banks dedupe hard and others barely at all.
        let shape = FilterShape::new(k, kh, kw, c);
        let f = Filters::from_fn(shape, |kk, i, j, cc| {
            let h = seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(((kk % patterns) * 100_000 + i * 10_000 + j * 1_000 + cc) as u64)
                .wrapping_mul(0xD1B54A32D192ED03);
            if (h >> 32).is_multiple_of(2) { 1.0 } else { -1.0 }
        });
        let packed = pack_filters::<u64>(&f);
        let dict = FilterDict::build(&packed);

        prop_assert_eq!(dict.decode(), packed.clone());
        prop_assert!(dict.unique_rows() <= patterns.min(k) * kh * kw);
        for kk in 0..k {
            for i in 0..kh {
                for j in 0..kw {
                    prop_assert_eq!(
                        FilterAccess::tap_words(&dict, kk, i, j),
                        packed.tap_words(kk, i, j)
                    );
                }
            }
        }
        // Size law: narrowest index that addresses the dictionary.
        let width = if dict.unique_rows() <= 1 << 8 {
            1
        } else if dict.unique_rows() <= 1 << 16 {
            2
        } else {
            4
        };
        prop_assert_eq!(dict.index_width_bytes(), width);
        prop_assert_eq!(
            dict.compressed_bytes(),
            dict.unique_rows() * FilterAccess::words_per_tap(&dict) * 8
                + dict.total_rows() * width
        );
        prop_assert_eq!(dict.raw_bytes(), packed.as_words().len() * 8);
    }
}

/// A single binary conv (optionally behind an 8-bit first layer) plus a
/// pool head, shaped to force one planner route (mirrors
/// `tests/plan_fusion.rs`).
fn routed_arch(name: &str, hw: usize, c: usize, k: usize, kernel: usize) -> NetworkArch {
    NetworkArch::new(name, Shape4::new(1, hw, hw, c))
        .conv(
            "conv",
            k,
            kernel,
            1,
            if kernel == 3 { 1 } else { 0 },
            LayerPrecision::Binary,
            Activation::Linear,
        )
        .maxpool("pool", 2, 2)
}

#[test]
fn compression_is_bit_exact_on_all_four_conv_routes() {
    let phone = Phone::xiaomi_9();
    let cases = [
        (routed_arch("direct", 20, 64, 64, 3), ConvPath::DirectFused),
        (
            routed_arch("unfused", 13, 512, 16, 3),
            ConvPath::DirectUnfused,
        ),
        (
            routed_arch("pointwise", 26, 128, 256, 1),
            ConvPath::LoweredGemm,
        ),
        (
            // The bit-plane first-layer route: 8-bit input (never
            // compressed — the ledger must stay empty).
            NetworkArch::new("in8", Shape4::new(1, 16, 16, 3))
                .conv(
                    "conv",
                    16,
                    3,
                    1,
                    1,
                    LayerPrecision::BinaryInput8,
                    Activation::Linear,
                )
                .maxpool("pool", 2, 2),
            ConvPath::DirectFused, // placeholder; in8 carries no BConv route
        ),
    ];
    for (arch, want_path) in cases {
        let model = || convert(&fill_weights_clustered(&arch, 17, 4));
        let takes_u8 = model().takes_u8_input();
        let plan = ExecutionPlan::for_model(&model(), &phone.gpu, 1, &compressed()).expect("plan");
        if let Some(step) = plan
            .steps
            .iter()
            .find(|s| matches!(s.op, StepOp::BConv { .. }))
        {
            assert_eq!(
                step.route.expect("routed").path,
                want_path,
                "{}: shape did not force the expected route",
                arch.name
            );
            // The ledger carries a verdict for the routed layer, about the
            // chosen route's bank.
            let d = &plan.compression[0];
            assert_eq!(d.path, want_path, "{}: ledger route", arch.name);
            assert_eq!(
                d.compressed,
                d.stats.wins(),
                "{}: verdict must follow the size accounting",
                arch.name
            );
        } else {
            assert!(
                plan.compression.is_empty(),
                "{}: no binary conv, no ledger entries",
                arch.name
            );
        }

        let mut plain = Session::new(model(), &phone).expect("fits");
        for overrides in [compressed(), compressed_fused()] {
            let mut comp = Session::new_batched_opts(model(), &phone, 1, overrides).expect("fits");
            for seed in 0..2u64 {
                let want = run_once(&mut plain, arch.input, takes_u8, 90 + seed);
                let got = run_once(&mut comp, arch.input, takes_u8, 90 + seed);
                assert_eq!(&got, &want, "{} seed {seed}", arch.name);
            }
        }
    }
}

#[test]
fn micro_zoo_compressed_sessions_are_bit_exact_with_smaller_residency() {
    let phone = Phone::xiaomi_9();
    for arch in [zoo::alexnet_micro, zoo::yolo_micro] {
        let arch = arch(Variant::Binary);
        let model = || convert(&fill_weights_clustered(&arch, 11, 4));
        let takes_u8 = model().takes_u8_input();

        let mut plain = Session::new(model(), &phone).expect("fits");
        for overrides in [compressed(), compressed_fused()] {
            let mut comp = Session::new_batched_opts(model(), &phone, 1, overrides).expect("fits");
            assert!(
                comp.plan().compression.iter().any(|d| d.compressed),
                "{}: clustered weights must compress at least one bank",
                arch.name
            );
            assert!(
                comp.resident_bytes() < plain.resident_bytes(),
                "{}: compressed residency {} !< raw {}",
                arch.name,
                comp.resident_bytes(),
                plain.resident_bytes()
            );
            for seed in 0..3u64 {
                let want = run_once(&mut plain, arch.input, takes_u8, 40 + seed);
                let got = run_once(&mut comp, arch.input, takes_u8, 40 + seed);
                assert_eq!(
                    &got, &want,
                    "{} ({:?}) seed {seed}",
                    arch.name, overrides.fusion
                );
            }
        }
    }
}

#[test]
fn zoo_plans_shrink_under_auto_and_off_stays_byte_identical() {
    for arch in [
        zoo::alexnet(Variant::Binary),
        zoo::yolov2_tiny(Variant::Binary),
        zoo::alexnet_micro(Variant::Binary),
        zoo::yolo_micro(Variant::Binary),
    ] {
        let model = convert(&fill_weights_clustered(&arch, 13, 8));
        for phone in Phone::all() {
            let base = ExecutionPlan::for_model_batched(&model, &phone.gpu, 1).expect("plan");
            let off = ExecutionPlan::for_model(&model, &phone.gpu, 1, &RouteOverrides::default())
                .expect("plan");
            // `Off` is the default: identical plan, empty ledger.
            assert_eq!(
                off, base,
                "{} on {}: Off must be a no-op",
                arch.name, phone.name
            );
            assert!(off.compression.is_empty());

            let auto =
                ExecutionPlan::for_model(&model, &phone.gpu, 1, &compressed()).expect("plan");
            assert!(
                auto.weights_bytes < off.weights_bytes,
                "{} on {}: compressed weights {} !< raw {}",
                arch.name,
                phone.name,
                auto.weights_bytes,
                off.weights_bytes
            );
            // The ledger reconciles the two footprints exactly.
            assert_eq!(
                auto.weights_bytes + auto.compression_saved_bytes(),
                off.weights_bytes,
                "{} on {}: ledger disagrees with the plans",
                arch.name,
                phone.name
            );
            for d in &auto.compression {
                assert_eq!(d.compressed, d.stats.wins());
                assert!(d.stats.unique_rows <= d.stats.rows);
            }
        }
    }
}

/// A stack of wide binary convs whose clustered weights compress by
/// megabytes — enough to straddle the MiB-granular app budget.
fn heavy_arch() -> NetworkArch {
    let mut arch = NetworkArch::new("heavy", Shape4::new(1, 8, 8, 512));
    for i in 0..4 {
        arch = arch.conv(
            &format!("conv{i}"),
            512,
            3,
            1,
            1,
            LayerPrecision::Binary,
            Activation::Linear,
        );
    }
    arch.maxpool("pool", 2, 2)
}

#[test]
fn fleet_admits_an_overweight_tenant_only_under_compression() {
    let arch = heavy_arch();
    let model = || convert(&fill_weights_clustered(&arch, 31, 8));

    let device = |budget_mib: usize| {
        let mut phone = Phone::xiaomi_5();
        phone.app_budget_mib = budget_mib;
        FleetDeviceSpec::new(phone)
    };
    let fleet = |budget_mib: usize, overrides: RouteOverrides| {
        Fleet::new(
            vec![device(budget_mib)],
            vec![TenantSpec::new(model()).with_overrides(overrides)],
            FleetOptions {
                replicas: 1,
                streams: 1,
                ..Default::default()
            },
        )
    };

    // The compressed plan drops the weight floor by megabytes.
    let phone = Phone::xiaomi_5();
    let off = ExecutionPlan::for_model_batched(&model(), &phone.gpu, 1).expect("plan");
    let auto = ExecutionPlan::for_model(&model(), &phone.gpu, 1, &compressed()).expect("plan");
    assert!(
        off.weights_bytes - auto.weights_bytes > 1 << 20,
        "compression must save > 1 MiB here (saved {})",
        off.weights_bytes - auto.weights_bytes
    );

    // The tightest budget that places the compressed tenant cannot place
    // the raw one: placement budgets against compressed bytes.
    let min_auto = (1..=64)
        .find(|&mib| fleet(mib, compressed()).is_ok())
        .expect("compressed tenant placeable under 64 MiB");
    let err = fleet(min_auto, RouteOverrides::default())
        .err()
        .expect("raw tenant must bust the same budget");
    assert!(
        err.to_string().contains("no feasible device"),
        "unexpected admission error: {err}"
    );
}
