//! The multi-tenant device runtime's core contracts: co-resident
//! heterogeneous tenants on one device produce **bit-identical** outputs,
//! per tenant in request order, to the same requests run solo — across the
//! micro zoo and every binary-convolution kernel route — while the
//! work-stealing scheduler keeps a light tenant's latency bounded under a
//! heavy neighbor and the pooled arena keeps the co-resident footprint
//! below side-by-side staging.

use phonebit::core::serve::{DeviceRuntime, OpenLoopOptions, TenantSpec, TenantTraffic};
use phonebit::core::{convert, ActivationData, ConvPath, Session};
use phonebit::gpusim::Phone;
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image, to_float_input};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::tensor::shape::Shape4;
use phonebit::tensor::Tensor;

#[test]
fn co_resident_micro_zoo_pair_is_bit_exact_vs_solo() {
    let phone = Phone::xiaomi_9();
    let alex = zoo::alexnet_micro(Variant::Binary);
    let yolo = zoo::yolo_micro(Variant::Binary);
    let alex_model = || convert(&fill_weights(&alex, 23));
    let yolo_model = || convert(&fill_weights(&yolo, 29));

    let reqs_alex: Vec<Tensor<u8>> = (0..7)
        .map(|i| synthetic_image(alex.input, 60 + i as u64))
        .collect();
    let reqs_yolo: Vec<Tensor<u8>> = (0..5)
        .map(|i| synthetic_image(yolo.input, 160 + i as u64))
        .collect();

    // Solo references on plain sessions.
    let mut solo_alex = Session::new(alex_model(), &phone).expect("fits");
    let want_alex: Vec<_> = reqs_alex
        .iter()
        .map(|img| solo_alex.run_u8(img).expect("solo").output.unwrap())
        .collect();
    let mut solo_yolo = Session::new(yolo_model(), &phone).expect("fits");
    let want_yolo: Vec<_> = reqs_yolo
        .iter()
        .map(|img| solo_yolo.run_u8(img).expect("solo").output.unwrap())
        .collect();

    // Both tenants co-resident on one device: uneven windows (7 in windows
    // of 2, 5 in windows of 2), three pooled streams, work stealing live.
    let mut runtime = DeviceRuntime::new(
        vec![
            TenantSpec::new(alex_model()).with_batch(2),
            TenantSpec::new(yolo_model()).with_batch(2),
        ],
        &phone,
        3,
    )
    .expect("pair fits pooled");
    let report = runtime
        .serve(&[TenantTraffic::U8(&reqs_alex), TenantTraffic::U8(&reqs_yolo)])
        .expect("co-resident serve");

    assert_eq!(report.tenants[0].served, 7);
    assert_eq!(report.tenants[1].served, 5);
    assert_eq!(report.tenants[0].windows + report.tenants[1].windows, 4 + 3);
    for (i, want) in want_alex.iter().enumerate() {
        assert_eq!(
            report.tenants[0].outputs[i].as_ref(),
            Some(want),
            "alexnet-micro request {i}"
        );
    }
    for (i, want) in want_yolo.iter().enumerate() {
        assert_eq!(
            report.tenants[1].outputs[i].as_ref(),
            Some(want),
            "yolo-micro request {i}"
        );
    }
    // Both tenants' kernels hit the shared clock.
    assert!(runtime.clock().busy_s() > 0.0);
    assert!(runtime.clock().mix().is_some(), "pair registers its mix");
}

/// Single binary-conv architectures whose shapes force each planner route
/// (mirrors `tests/serve_sharded.rs` and `tests/batched_engine.rs`).
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
fn co_resident_tenants_are_bit_exact_on_every_kernel_route() {
    let phone = Phone::xiaomi_9();
    // Two co-residency pairs covering all four routes.
    let pairs = [
        [
            (conv_arch("direct", 20, 64, 64, 3), ConvPath::DirectFused),
            (
                conv_arch("unfused", 13, 512, 16, 3),
                ConvPath::DirectUnfused,
            ),
        ],
        [
            (
                conv_arch("pointwise", 26, 128, 256, 1),
                ConvPath::LoweredGemm,
            ),
            (conv_arch("gemm", 13, 512, 512, 3), ConvPath::LoweredGemm),
        ],
    ];
    for pair in &pairs {
        let models: Vec<_> = pair
            .iter()
            .map(|(arch, _)| convert(&fill_weights(arch, 19)))
            .collect();
        let requests: Vec<Vec<Tensor<f32>>> = pair
            .iter()
            .enumerate()
            .map(|(t, (arch, _))| {
                (0..5)
                    .map(|i| to_float_input(&synthetic_image(arch.input, 90 + (10 * t + i) as u64)))
                    .collect()
            })
            .collect();

        let mut solo: Vec<Vec<ActivationData>> = Vec::new();
        for (model, reqs) in models.iter().zip(requests.iter()) {
            let mut session = Session::new(model.clone(), &phone).expect("fits");
            solo.push(
                reqs.iter()
                    .map(|img| session.run_f32(img).expect("solo").output.unwrap())
                    .collect(),
            );
        }

        let mut runtime = DeviceRuntime::new(
            models
                .iter()
                .map(|m| TenantSpec::new(m.clone()).with_batch(2))
                .collect(),
            &phone,
            2,
        )
        .expect("fits");
        // The staged routes are the ones the shapes force.
        for (t, (_, expect_path)) in pair.iter().enumerate() {
            let staged_path = runtime.tenants()[t]
                .plan()
                .steps
                .iter()
                .find_map(|s| s.route)
                .expect("one binary conv")
                .path;
            assert_eq!(staged_path, *expect_path, "tenant {t}");
        }
        let report = runtime
            .serve(&[
                TenantTraffic::F32(&requests[0]),
                TenantTraffic::F32(&requests[1]),
            ])
            .expect("co-resident serve");
        for (t, want) in solo.iter().enumerate() {
            for (i, want) in want.iter().enumerate() {
                assert_eq!(
                    report.tenants[t].outputs[i].as_ref(),
                    Some(want),
                    "{} request {i}",
                    pair[t].0.name
                );
            }
        }
    }
}

#[test]
fn work_stealing_keeps_a_light_tenant_paced_under_a_heavy_neighbor() {
    let phone = Phone::xiaomi_9();
    let heavy_arch = zoo::yolo_micro(Variant::Binary);
    let light_arch = zoo::alexnet_micro(Variant::Binary);
    let heavy_model = convert(&fill_weights(&heavy_arch, 5));
    let light_model = convert(&fill_weights(&light_arch, 6));

    // Model the light tenant's solo window to set a realistic SLO.
    let mut probe = Session::new(light_model.clone(), &phone).expect("fits");
    let solo_ms = probe
        .run_u8(&synthetic_image(light_arch.input, 1))
        .expect("probe")
        .total_s
        * 1e3;
    let slo_ms = 4.0 * solo_ms;

    let heavy_reqs: Vec<Tensor<u8>> = (0..40)
        .map(|i| synthetic_image(heavy_arch.input, 7 + i as u64))
        .collect();
    let light_reqs: Vec<Tensor<u8>> = (0..4)
        .map(|i| synthetic_image(light_arch.input, 70 + i as u64))
        .collect();

    let mut runtime = DeviceRuntime::new(
        vec![
            TenantSpec::new(heavy_model).with_batch(2),
            TenantSpec::new(light_model)
                .with_batch(1)
                .with_slo_ms(slo_ms),
        ],
        &phone,
        2,
    )
    .expect("fits");
    let report = runtime
        .serve(&[
            TenantTraffic::U8(&heavy_reqs),
            TenantTraffic::U8(&light_reqs),
        ])
        .expect("serve");

    let heavy = &report.tenants[0];
    let light = &report.tenants[1];
    assert_eq!(light.served, 4);
    assert_eq!(heavy.served, 40);
    // The light tenant's SLO-paced windows are pulled ahead of the heavy
    // backlog, so its p95 stays within its SLO instead of queueing behind
    // the neighbor.
    assert!(
        light.p95_ms <= slo_ms,
        "light p95 {:.3} ms blew its {:.3} ms SLO under a heavy neighbor",
        light.p95_ms,
        slo_ms
    );
    assert!(light.slo_met, "scheduler let the light tenant starve");
    // A starved tenant would have been appended behind the whole heavy
    // backlog (strict arrival order, no stealing): its last window could
    // not then finish before half the heavy work. Pin that it did.
    let executed = report.schedule.attempts.iter().zip(&report.attempt_exec_ms);
    let heavy_total_ms: f64 = executed
        .filter(|(at, _)| at.tenant == 0)
        .map(|(_, ms)| ms)
        .sum();
    assert!(
        light.p95_ms < heavy_total_ms / 2.0,
        "light p95 {:.3} ms vs heavy backlog {:.3} ms",
        light.p95_ms,
        heavy_total_ms
    );
    // And the schedule really interleaved: some light window starts before
    // the heavy backlog's final window does.
    let last_heavy_start = report
        .schedule
        .attempts
        .iter()
        .filter(|sw| sw.tenant == 0)
        .map(|sw| sw.start_ms)
        .fold(0.0, f64::max);
    assert!(
        report
            .schedule
            .attempts
            .iter()
            .any(|sw| sw.tenant == 1 && sw.start_ms < last_heavy_start),
        "no light window was interleaved with the heavy backlog"
    );
}

#[test]
fn closed_loop_pass_is_the_open_loop_pass_over_paced_arrivals() {
    // `serve` hands the one pass paced arrivals: request `r` arrives with
    // its window, window `k` at `k × target` (no SLO: the tenant's steady
    // window). On one stream with batched (cold > steady) tenants such an
    // arrival is never later than the moment the stream could start that
    // window, and without SLOs no deadline is finite — arrival gating and
    // shedding are inert, so the public open-loop entry point over the same
    // arrivals must reproduce the closed-loop pass field for field:
    // schedule, outputs, latencies, percentiles, executed durations,
    // goodput.
    let phone = Phone::xiaomi_9();
    let alex = zoo::alexnet_micro(Variant::Binary);
    let yolo = zoo::yolo_micro(Variant::Binary);
    let mk = || {
        DeviceRuntime::new(
            vec![
                TenantSpec::new(convert(&fill_weights(&alex, 23))).with_batch(2),
                TenantSpec::new(convert(&fill_weights(&yolo, 29))).with_batch(2),
            ],
            &phone,
            1,
        )
        .expect("pair fits pooled")
    };
    let reqs_alex: Vec<Tensor<u8>> = (0..7)
        .map(|i| synthetic_image(alex.input, 60 + i as u64))
        .collect();
    let reqs_yolo: Vec<Tensor<u8>> = (0..5)
        .map(|i| synthetic_image(yolo.input, 160 + i as u64))
        .collect();
    let traffic = [TenantTraffic::U8(&reqs_alex), TenantTraffic::U8(&reqs_yolo)];

    let closed = mk().serve(&traffic).expect("closed loop");
    let mut runtime = mk();
    let paced: Vec<Vec<f64>> = runtime
        .tenants()
        .iter()
        .zip(&traffic)
        .map(|(t, q)| {
            let (cold_ms, steady_ms) = t.modeled_window_ms();
            assert!(cold_ms > steady_ms, "test premise: batched lanes prime");
            (0..q.len()).map(|r| (r / 2) as f64 * steady_ms).collect()
        })
        .collect();
    let opts = OpenLoopOptions {
        max_replans: 0,
        ..OpenLoopOptions::default()
    };
    let open = runtime
        .serve_open_loop(&traffic, &paced, &opts)
        .expect("open loop over the paced arrivals");
    assert_eq!(closed, open);

    // What a closed loop leaves at zero, and what it always fills.
    assert_eq!(closed.replans, 0);
    for t in &closed.tenants {
        assert_eq!(
            (t.shed, t.windows_shed, t.retries, t.throttled),
            (0, 0, 0, 0)
        );
        assert_eq!(t.served, t.offered);
        assert!(t.outputs.iter().all(Option::is_some));
    }
    assert_eq!(closed.attempt_exec_ms.len(), 4 + 3);
}

#[test]
fn pooled_arena_undercuts_side_by_side_staging() {
    let phone = Phone::xiaomi_9();
    let alex = convert(&fill_weights(&zoo::alexnet_micro(Variant::Binary), 3));
    let yolo = convert(&fill_weights(&zoo::yolo_micro(Variant::Binary), 4));
    let weights = alex.size_bytes() + yolo.size_bytes();
    let runtime = DeviceRuntime::new(
        vec![
            TenantSpec::new(alex).with_batch(2),
            TenantSpec::new(yolo).with_batch(2),
        ],
        &phone,
        2,
    )
    .expect("fits");
    let slices: Vec<usize> = runtime
        .tenants()
        .iter()
        .map(|t| t.plan().staged_arena_bytes())
        .collect();
    let slice = *slices.iter().max().unwrap();
    assert_eq!(runtime.pool_slice_bytes(), slice);
    // Pooled residency: Σ weights + streams × max slice…
    assert_eq!(runtime.resident_bytes(), weights + 2 * slice);
    // …strictly below staging both tenants' arenas on every stream.
    let side_by_side = weights + 2 * slices.iter().sum::<usize>();
    assert!(runtime.resident_bytes() < side_by_side);
}
