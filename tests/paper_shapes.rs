//! Shape assertions on the reproduced evaluation: every table and figure of
//! the paper must come out with the right *structure* — who wins, where the
//! failures land, how the factors order — independent of absolute numbers.

use phonebit::baselines::common::Framework;
use phonebit::baselines::{CnnDroid, TfLite};
use phonebit::core::{estimate_arch, estimate_window, EstimateOptions, RouteOverrides};
use phonebit::gpusim::Phone;
use phonebit::models::size::table2_rows;
use phonebit::models::zoo::{self, Variant};
use phonebit::profiler::EnergyReport;

/// Table II: compression ratios land in the paper's band and sizes track.
#[test]
fn table2_shape() {
    let rows = table2_rows();
    for r in &rows {
        // Float sizes match the paper within 8% (pure architecture math).
        let rel = (r.float_mb - r.paper_float_mb).abs() / r.paper_float_mb;
        assert!(
            rel < 0.08,
            "{}: float {} vs paper {}",
            r.model,
            r.float_mb,
            r.paper_float_mb
        );
        // Compression is an order of magnitude, as Table II reports
        // ("on average 19.6x smaller").
        assert!(
            r.ratio > 8.0 && r.ratio < 32.0,
            "{}: ratio {}",
            r.model,
            r.ratio
        );
    }
    // YOLO compresses hardest (smallest float head), per the paper.
    assert!(rows[1].ratio > rows[0].ratio);
    assert!(rows[1].ratio > rows[2].ratio);
}

/// Table III: PhoneBit wins every comparison; failures land exactly where
/// the paper reports them; speedup factors are in the paper's ranges.
#[test]
fn table3_shape() {
    for phone in Phone::all() {
        for (idx, arch_f, arch_b) in [
            (
                0,
                zoo::alexnet(Variant::Float),
                zoo::alexnet(Variant::Binary),
            ),
            (
                1,
                zoo::yolov2_tiny(Variant::Float),
                zoo::yolov2_tiny(Variant::Binary),
            ),
            (2, zoo::vgg16(Variant::Float), zoo::vgg16(Variant::Binary)),
        ] {
            let pb = estimate_arch(&phone, &arch_b).total_s;
            // CNNdroid: OOM for VGG16, big losses elsewhere.
            for fw in [CnnDroid::cpu(), CnnDroid::gpu()] {
                match fw.estimate(&phone, &arch_f) {
                    Ok(r) => {
                        assert_ne!(idx, 2, "VGG16 must OOM on CNNdroid");
                        assert!(r.total_s > pb, "{} must lose to PhoneBit", fw.label());
                    }
                    Err(e) => {
                        assert_eq!(idx, 2, "only VGG16 OOMs");
                        assert_eq!(e.cell(), "OOM");
                    }
                }
            }
            // TFLite GPU: crash iff the net has dense layers.
            match TfLite::gpu().estimate(&phone, &arch_f) {
                Ok(r) => {
                    assert_eq!(idx, 1, "only YOLO runs on the delegate");
                    assert!(r.total_s > pb);
                }
                Err(e) => assert_eq!(e.cell(), "CRASH"),
            }
            // TFLite CPU paths always run and always lose.
            for fw in [TfLite::cpu(), TfLite::quant()] {
                let r = fw.estimate(&phone, &arch_f).expect("runs");
                assert!(r.total_s > pb, "{} must lose to PhoneBit", fw.label());
            }
        }
    }
}

/// Table III headline: the paper reports up to 38x speedup over GPU-based
/// frameworks and ~795x over CNNdroid CPU on average.
#[test]
fn table3_speedup_magnitudes() {
    let phone = Phone::xiaomi_9();
    let yolo_f = zoo::yolov2_tiny(Variant::Float);
    let yolo_b = zoo::yolov2_tiny(Variant::Binary);
    let pb = estimate_arch(&phone, &yolo_b).total_s;
    let cd_gpu = CnnDroid::gpu().estimate(&phone, &yolo_f).unwrap().total_s;
    let cd_cpu = CnnDroid::cpu().estimate(&phone, &yolo_f).unwrap().total_s;
    // Paper: 37x (845/22.6) GPU, 1024x (23144/22.6) CPU for this cell.
    let gpu_speedup = cd_gpu / pb;
    let cpu_speedup = cd_cpu / pb;
    assert!(
        (15.0..200.0).contains(&gpu_speedup),
        "GPU speedup {gpu_speedup:.0}x"
    );
    assert!(
        (300.0..4000.0).contains(&cpu_speedup),
        "CPU speedup {cpu_speedup:.0}x"
    );
}

/// Fig 5: conv1 gains less than the middle binary layers (bit-plane
/// overhead), conv9 gains least (full precision), middle layers gain
/// tens-of-x.
#[test]
fn figure5_shape() {
    let phone = Phone::xiaomi_9();
    let pb = estimate_arch(&phone, &zoo::yolov2_tiny(Variant::Binary));
    let cd = CnnDroid::gpu()
        .estimate(&phone, &zoo::yolov2_tiny(Variant::Float))
        .unwrap();
    let speedup = |name: &str| cd.layer_time_s(name).unwrap() / pb.layer_time_s(name).unwrap();
    let conv1 = speedup("conv1");
    let conv9 = speedup("conv9");
    let mids: Vec<f64> = (2..=8).map(|i| speedup(&format!("conv{i}"))).collect();
    for (i, &m) in mids.iter().enumerate() {
        assert!(
            m > conv1,
            "conv{} ({m:.0}x) must beat conv1 ({conv1:.0}x)",
            i + 2
        );
        assert!(
            m > conv9,
            "conv{} ({m:.0}x) must beat conv9 ({conv9:.0}x)",
            i + 2
        );
        assert!(
            m > 20.0,
            "middle layers gain tens-of-x, conv{}: {m:.0}x",
            i + 2
        );
    }
    // conv9 is a single-digit multiple (paper: 3x).
    assert!((1.0..10.0).contains(&conv9), "conv9 {conv9:.1}x");
    // conv1 clearly positive but below the middle layers (paper: 23x vs 45x avg).
    assert!(conv1 > 2.0, "conv1 {conv1:.1}x");
}

/// Table IV: power ordering and the FPS/W hierarchy — PhoneBit draws the
/// least power and dominates efficiency by a large factor.
#[test]
fn table4_shape() {
    let phone = Phone::xiaomi_5();
    let yolo_f = zoo::yolov2_tiny(Variant::Float);
    let yolo_b = zoo::yolov2_tiny(Variant::Binary);
    let report = |r: phonebit::core::RunReport, name: &str| {
        EnergyReport::from_frame(name, r.total_s, r.energy_j)
    };
    let pb = report(estimate_arch(&phone, &yolo_b), "PhoneBit");
    let cd_cpu = report(CnnDroid::cpu().estimate(&phone, &yolo_f).unwrap(), "cd-cpu");
    let cd_gpu = report(CnnDroid::gpu().estimate(&phone, &yolo_f).unwrap(), "cd-gpu");
    let tf_cpu = report(TfLite::cpu().estimate(&phone, &yolo_f).unwrap(), "tf-cpu");
    let tf_gpu = report(TfLite::gpu().estimate(&phone, &yolo_f).unwrap(), "tf-gpu");
    let tf_q = report(
        TfLite::quant().estimate(&phone, &yolo_f).unwrap(),
        "tf-quant",
    );

    // PhoneBit draws the least power (paper: 226 mW vs 452-914 mW).
    for other in [&cd_cpu, &cd_gpu, &tf_cpu, &tf_gpu, &tf_q] {
        assert!(
            pb.avg_power_w < other.avg_power_w,
            "PhoneBit {:.0} mW must undercut {} {:.0} mW",
            pb.power_mw(),
            other.framework,
            other.power_mw()
        );
    }
    // And its FPS/W advantage is at least an order of magnitude (paper:
    // 24x-5263x).
    for other in [&cd_cpu, &cd_gpu, &tf_cpu, &tf_gpu, &tf_q] {
        let factor = pb.fps_per_watt / other.fps_per_watt;
        assert!(factor > 10.0, "vs {}: only {factor:.1}x", other.framework);
    }
    // CNNdroid CPU is the least efficient of all (paper: 0.02 FPS/W).
    for other in [&cd_gpu, &tf_cpu, &tf_gpu, &tf_q] {
        assert!(cd_cpu.fps_per_watt < other.fps_per_watt);
    }
}

/// Ablations: every optimization the paper describes must help.
#[test]
fn ablations_all_help() {
    let phone = Phone::xiaomi_9();
    let arch = zoo::yolov2_tiny(Variant::Binary);
    let base = estimate_arch(&phone, &arch).total_s;
    let unfused = estimate_window(
        &phone,
        &arch,
        1,
        &EstimateOptions {
            overrides: RouteOverrides {
                force_unfused: true,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .total_s;
    let divergent = estimate_window(
        &phone,
        &arch,
        1,
        &EstimateOptions {
            divergent_binarize: true,
            ..Default::default()
        },
    )
    .total_s;
    let serial = estimate_window(
        &phone,
        &arch,
        1,
        &EstimateOptions {
            no_latency_hiding: true,
            ..Default::default()
        },
    )
    .total_s;
    assert!(
        unfused > base,
        "layer integration helps: {unfused} vs {base}"
    );
    assert!(divergent > base, "Eqn(9) helps: {divergent} vs {base}");
    assert!(serial > base, "latency hiding helps: {serial} vs {base}");
}

/// Cross-device: everything is faster on the Snapdragon 855 (Table III
/// columns), for every framework that runs.
#[test]
fn newer_phone_wins_everywhere() {
    let x5 = Phone::xiaomi_5();
    let x9 = Phone::xiaomi_9();
    let yolo_f = zoo::yolov2_tiny(Variant::Float);
    let yolo_b = zoo::yolov2_tiny(Variant::Binary);
    assert!(estimate_arch(&x9, &yolo_b).total_s < estimate_arch(&x5, &yolo_b).total_s);
    for fw in [
        Box::new(CnnDroid::cpu()) as Box<dyn Framework>,
        Box::new(CnnDroid::gpu()),
        Box::new(TfLite::cpu()),
        Box::new(TfLite::gpu()),
        Box::new(TfLite::quant()),
    ] {
        let t5 = fw.estimate(&x5, &yolo_f).unwrap().total_s;
        let t9 = fw.estimate(&x9, &yolo_f).unwrap().total_s;
        assert!(t9 < t5, "{} should improve on SD855", fw.label());
    }
}
