//! The sharded serving contract — a one-tenant `DeviceRuntime`: N
//! concurrent streams over one staged model produce **bit-identical**
//! outputs, in request order, to the same requests run sequentially on one
//! `Session` — across the model zoo's micro networks and every
//! binary-convolution kernel route — while the shared device clock makes
//! the streams contend for the GPU instead of each pretending to own it.

use phonebit::core::serve::{DeviceRuntime, OpenLoopReport, TenantSpec, TenantTraffic};
use phonebit::core::{convert, nearest_rank, ConvPath, PbitModel, Session};
use phonebit::gpusim::Phone;
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image, to_float_input};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::tensor::shape::Shape4;
use phonebit::tensor::Tensor;

/// One model as a registry of one, windows of 2.
fn sharded(model: PbitModel, phone: &Phone, streams: usize) -> DeviceRuntime {
    DeviceRuntime::new(vec![TenantSpec::new(model).with_batch(2)], phone, streams).expect("fits")
}

/// Service-time (p50, p95, p99) of the single tenant's windows — what a
/// sharded report reads: one tenant has no cross-tenant queueing.
fn service_percentiles(report: &OpenLoopReport) -> [f64; 3] {
    nearest_rank(&report.attempt_exec_ms, [0.50, 0.95, 0.99])
}

#[test]
fn sharded_serving_equals_sequential_across_micro_zoo() {
    let phone = Phone::xiaomi_9();
    for arch in [
        zoo::alexnet_micro(Variant::Binary),
        zoo::yolo_micro(Variant::Binary),
    ] {
        let model = convert(&fill_weights(&arch, 23));
        let requests: Vec<_> = (0..9)
            .map(|i| synthetic_image(arch.input, 60 + i as u64))
            .collect();

        let mut single = Session::new(model.clone(), &phone).expect("fits");
        let sequential: Vec<_> = requests
            .iter()
            .map(|img| single.run_u8(img).expect("solo run").output.unwrap())
            .collect();

        // 9 requests over 3 streams in windows of 2: uneven shards, a
        // short trailing window, and true thread-per-stream execution.
        let mut runtime = sharded(model, &phone, 3);
        let report = runtime
            .serve(&[TenantTraffic::U8(&requests)])
            .expect("sharded serve");
        assert_eq!(report.tenants[0].served, 9);
        assert_eq!(report.tenants[0].windows, 5);
        assert_eq!(report.schedule.streams_used(), 3);
        for (i, want) in sequential.iter().enumerate() {
            assert_eq!(
                report.tenants[0].outputs[i].as_ref(),
                Some(want),
                "{} request {i}",
                arch.name
            );
        }
    }
}

/// Single binary-conv architectures whose shapes force each planner route
/// (mirrors `tests/route_agreement.rs` and `tests/batched_engine.rs`).
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
fn sharded_serving_equals_sequential_on_every_kernel_route() {
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
        let model = convert(&fill_weights(&arch, 19));
        let requests: Vec<Tensor<f32>> = (0..6)
            .map(|i| to_float_input(&synthetic_image(arch.input, 90 + i as u64)))
            .collect();

        let mut single = Session::new(model.clone(), &phone).expect("fits");
        let sequential: Vec<_> = requests
            .iter()
            .map(|img| single.run_f32(img).expect("solo run").output.unwrap())
            .collect();

        let mut runtime = sharded(model, &phone, 2);
        let staged_path = runtime.tenants()[0]
            .plan()
            .steps
            .iter()
            .find_map(|s| s.route)
            .expect("one binary conv")
            .path;
        assert_eq!(staged_path, expect_path, "{}", arch.name);

        let report = runtime
            .serve(&[TenantTraffic::F32(&requests)])
            .expect("sharded serve");
        for (i, want) in sequential.iter().enumerate() {
            assert_eq!(
                report.tenants[0].outputs[i].as_ref(),
                Some(want),
                "{} request {i}",
                arch.name
            );
        }
    }
}

#[test]
fn contention_stretches_windows_but_sharding_wins_throughput() {
    let phone = Phone::xiaomi_9();
    let arch = zoo::alexnet_micro(Variant::Binary);
    let model = convert(&fill_weights(&arch, 5));
    let requests: Vec<_> = (0..16)
        .map(|i| synthetic_image(arch.input, 7 + i as u64))
        .collect();

    let traffic = [TenantTraffic::U8(&requests)];
    let mut solo = sharded(model.clone(), &phone, 1);
    let solo_report = solo.serve(&traffic).expect("solo serve");

    let mut duo = sharded(model, &phone, 2);
    let duo_report = duo.serve(&traffic).expect("duo serve");

    // Per-window latency under contention is never better than solo...
    let (duo_p50, solo_p50) = (
        service_percentiles(&duo_report)[0],
        service_percentiles(&solo_report)[0],
    );
    assert!(
        duo_p50 >= solo_p50 - 1e-9,
        "duo p50 {duo_p50} vs solo {solo_p50}"
    );
    // ...but the aggregate makespan (and so throughput) improves: each
    // stream runs half the windows, and host-side overhead overlaps the
    // other stream's GPU time.
    assert!(
        duo_report.goodput_imgs_per_s > solo_report.goodput_imgs_per_s,
        "duo {} imgs/s vs solo {}",
        duo_report.goodput_imgs_per_s,
        solo_report.goodput_imgs_per_s
    );
    assert!(duo_report.wall_ms < solo_report.wall_ms);
    // The shared clock saw both streams' kernels.
    assert!(duo.clock().busy_s() > 0.0);
    assert_eq!(duo.clock().streams(), 2);
}

#[test]
fn sharded_outputs_and_latencies_are_deterministic() {
    let phone = Phone::xiaomi_9();
    let arch = zoo::yolo_micro(Variant::Binary);
    let requests: Vec<_> = (0..10)
        .map(|i| synthetic_image(arch.input, 33 + i as u64))
        .collect();
    let mk = || sharded(convert(&fill_weights(&arch, 3)), &phone, 4);
    let traffic = [TenantTraffic::U8(&requests)];
    let ra = mk().serve(&traffic).expect("first run");
    let rb = mk().serve(&traffic).expect("second run");
    assert_eq!(ra.attempt_exec_ms, rb.attempt_exec_ms);
    assert_eq!(ra.goodput_imgs_per_s, rb.goodput_imgs_per_s);
    assert_eq!(service_percentiles(&ra), service_percentiles(&rb));
    let (outs_a, outs_b) = (&ra.tenants[0].outputs, &rb.tenants[0].outputs);
    for (i, (a, b)) in outs_a.iter().zip(outs_b.iter()).enumerate() {
        assert_eq!(a, b, "request {i}");
    }
}
