//! Open-loop fault-tolerant serving contracts: with a seeded fault plan
//! the pass is deterministic (same seed ⇒ identical shed/retry counters
//! and schedule) and every **surviving** output is bit-exact with a
//! fault-free run of the same requests; the scheduler never loses or
//! duplicates a window under arbitrary fault plans (proptest) and equals
//! the quadratic reference scheduler exactly (proptest); attaching
//! and detaching tenants mid-run matches fresh staging bit-exactly; a
//! light tenant's p95 stays bounded while a heavy neighbor retries; and
//! the modeled schedule equals the executed one attempt-by-attempt even
//! through faults and thermal throttling; a dry runtime over the same
//! tenants' architectures schedules, folds and keeps its live registry
//! exactly as the staged one does ("estimate is execute"); and malformed
//! arrival timestamps are rejected at the door.

use std::collections::BTreeMap;

use phonebit::core::serve::{
    estimate_serve_open_loop, schedule_open_loop, DeviceRuntime, OpenLoopLoad, OpenLoopOptions,
    OpenLoopReport, OpenLoopWindow, OpenLoopWorkload, RetryPolicy, ShedReason, TenantSpec,
    TenantTraffic, TenantWorkload, WindowFate,
};
use phonebit::core::{convert, ArrivalProcess, EngineError, Session};
use phonebit::gpusim::{FaultBurst, FaultPlan, Phone, ThrottleEpoch};
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::tensor::shape::Shape4;
use phonebit::tensor::Tensor;
use proptest::prelude::*;

#[path = "common/schedule_reference.rs"]
mod schedule_reference;
use schedule_reference::reference_schedule_open_loop;

fn yolo_model() -> phonebit::core::PbitModel {
    convert(&fill_weights(&zoo::yolo_micro(Variant::Binary), 11))
}

fn alex_model() -> phonebit::core::PbitModel {
    convert(&fill_weights(&zoo::alexnet_micro(Variant::Binary), 7))
}

fn yolo_reqs(count: usize) -> Vec<Tensor<u8>> {
    let input = zoo::yolo_micro(Variant::Binary).input;
    (0..count)
        .map(|i| synthetic_image(input, 300 + i as u64))
        .collect()
}

fn alex_reqs(count: usize) -> Vec<Tensor<u8>> {
    let input = zoo::alexnet_micro(Variant::Binary).input;
    (0..count)
        .map(|i| synthetic_image(input, 700 + i as u64))
        .collect()
}

fn pair_runtime(phone: &Phone) -> DeviceRuntime {
    DeviceRuntime::new(
        vec![
            TenantSpec::new(yolo_model()).with_batch(2),
            TenantSpec::new(alex_model()).with_batch(2),
        ],
        phone,
        2,
    )
    .expect("pair fits")
}

fn serve_pair(
    phone: &Phone,
    fault: Option<&FaultPlan>,
    reqs_a: &[Tensor<u8>],
    reqs_b: &[Tensor<u8>],
    arrivals: &[Vec<f64>],
) -> OpenLoopReport {
    let mut runtime = pair_runtime(phone);
    runtime.clock().set_fault_plan(fault.cloned());
    runtime
        .serve_open_loop(
            &[TenantTraffic::U8(reqs_a), TenantTraffic::U8(reqs_b)],
            arrivals,
            &OpenLoopOptions::default(),
        )
        .expect("serve")
}

#[test]
fn faulted_pass_is_deterministic_and_survivors_match_fault_free_bit_exactly() {
    let phone = Phone::xiaomi_9();
    let reqs_a = yolo_reqs(8);
    let reqs_b = alex_reqs(6);
    let arrivals = vec![
        (0..8).map(|i| i as f64 * 0.4).collect::<Vec<_>>(),
        (0..6).map(|i| i as f64 * 0.6).collect::<Vec<_>>(),
    ];
    let fault = FaultPlan::new(2024).with_failure_rate(0.3);

    let faulted = serve_pair(&phone, Some(&fault), &reqs_a, &reqs_b, &arrivals);
    let retries: usize = faulted.tenants.iter().map(|t| t.retries).sum();
    assert!(
        retries > 0,
        "rate 0.3 over 7 windows should fault at least once"
    );

    // Same seed, fresh runtime: identical counters and schedule.
    let again = serve_pair(&phone, Some(&fault), &reqs_a, &reqs_b, &arrivals);
    assert_eq!(faulted.schedule, again.schedule);
    for (a, b) in faulted.tenants.iter().zip(again.tenants.iter()) {
        assert_eq!(a.shed, b.shed, "shed counters diverged");
        assert_eq!(a.retries, b.retries, "retry counters diverged");
        assert_eq!(a.throttled, b.throttled, "throttle counters diverged");
    }

    // No SLO ⇒ the fault-free pass serves everything; every request the
    // faulted pass served must match it bit-exactly.
    let clean = serve_pair(&phone, None, &reqs_a, &reqs_b, &arrivals);
    for (t, (ft, ct)) in faulted.tenants.iter().zip(clean.tenants.iter()).enumerate() {
        assert_eq!(ct.served, ct.offered, "fault-free run sheds nothing");
        for (i, out) in ft.outputs.iter().enumerate() {
            if let Some(got) = out {
                let want = ct.outputs[i].as_ref().expect("fault-free output");
                assert_eq!(got, want, "tenant {t} request {i}");
            }
        }
        assert_eq!(
            ft.outputs.iter().filter(|o| o.is_some()).count(),
            ft.served,
            "served count matches committed outputs"
        );
    }
}

#[test]
fn modeled_and_executed_attempts_agree_under_faults_and_throttle() {
    let phone = Phone::xiaomi_9();
    let reqs_a = yolo_reqs(6);
    let reqs_b = alex_reqs(4);
    let arrivals = vec![
        (0..6).map(|i| i as f64 * 0.3).collect::<Vec<_>>(),
        (0..4).map(|i| i as f64 * 0.5).collect::<Vec<_>>(),
    ];
    // Faults, a throttle epoch, and a localized fault burst all at once.
    let fault = FaultPlan::new(77)
        .with_failure_rate(0.2)
        .with_throttle(ThrottleEpoch {
            start_ms: 1.0,
            end_ms: 4.0,
            slowdown: 1.8,
        })
        .with_burst(phonebit::gpusim::FaultBurst {
            start_ms: 2.0,
            end_ms: 5.0,
            rate: 0.5,
        });
    let report = serve_pair(&phone, Some(&fault), &reqs_a, &reqs_b, &arrivals);
    assert!(
        report.schedule.attempts.iter().any(|a| a.slowdown > 1.0),
        "some attempt lands inside the throttle epoch"
    );
    for (k, at) in report.schedule.attempts.iter().enumerate() {
        let modeled = at.end_ms - at.start_ms;
        let executed = report.attempt_exec_ms[k];
        assert!(
            (modeled - executed).abs() < 1e-9 * modeled.max(1.0),
            "attempt {k} (tenant {}, window {}, attempt {}): \
             executed {executed} ms vs modeled {modeled} ms",
            at.tenant,
            at.index,
            at.attempt
        );
    }
}

#[test]
fn attach_and_detach_mid_run_match_fresh_staging_bit_exactly() {
    let phone = Phone::xiaomi_9();
    let reqs_a = yolo_reqs(6);
    let reqs_b = alex_reqs(4);
    let arrivals_a: Vec<f64> = (0..6).map(|i| i as f64 * 0.4).collect();
    let arrivals_b: Vec<f64> = (0..4).map(|i| i as f64 * 0.5).collect();

    // Serve solo, attach a neighbor mid-run, serve the pair, detach it,
    // serve solo again.
    let mut runtime =
        DeviceRuntime::new(vec![TenantSpec::new(yolo_model()).with_batch(2)], &phone, 2)
            .expect("fits");
    let before = runtime
        .serve_open_loop(
            &[TenantTraffic::U8(&reqs_a)],
            std::slice::from_ref(&arrivals_a),
            &OpenLoopOptions::default(),
        )
        .expect("solo pass");
    let idx = runtime
        .attach(TenantSpec::new(alex_model()).with_batch(2))
        .expect("attach fits");
    let pair = runtime
        .serve_open_loop(
            &[TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)],
            &[arrivals_a.clone(), arrivals_b.clone()],
            &OpenLoopOptions::default(),
        )
        .expect("pair pass");
    runtime.detach(idx).expect("detach");
    let after = runtime
        .serve_open_loop(
            &[TenantTraffic::U8(&reqs_a)],
            std::slice::from_ref(&arrivals_a),
            &OpenLoopOptions::default(),
        )
        .expect("solo pass again");

    // The attached tenant's outputs match a solo session bit-exactly.
    let mut solo_b = Session::new(alex_model(), &phone).expect("fits");
    for (i, req) in reqs_b.iter().enumerate() {
        let want = solo_b.run_u8(req).expect("solo").output.unwrap();
        let got = pair.tenants[1].outputs[i].as_ref().expect("served");
        assert_eq!(got, &want, "attached tenant request {i}");
    }
    // The survivor's outputs are identical before, during, and after —
    // attach/detach never restaged it.
    let mut solo_a = Session::new(yolo_model(), &phone).expect("fits");
    for (i, req) in reqs_a.iter().enumerate() {
        let want = solo_a.run_u8(req).expect("solo").output.unwrap();
        for (phase, report) in [("before", &before), ("pair", &pair), ("after", &after)] {
            let got = report.tenants[0].outputs[i].as_ref().expect("served");
            assert_eq!(got, &want, "{phase}: survivor request {i}");
        }
    }
    // And the post-detach pass equals a freshly staged runtime's.
    let mut fresh =
        DeviceRuntime::new(vec![TenantSpec::new(yolo_model()).with_batch(2)], &phone, 2)
            .expect("fits");
    let want = fresh
        .serve_open_loop(
            &[TenantTraffic::U8(&reqs_a)],
            &[arrivals_a],
            &OpenLoopOptions::default(),
        )
        .expect("fresh pass");
    assert_eq!(
        after.schedule, want.schedule,
        "schedule matches fresh staging"
    );
}

#[test]
fn light_tenant_p95_stays_bounded_while_heavy_neighbor_retries() {
    let phone = Phone::xiaomi_9();
    // Light tenant: sparse batch-1 windows. Heavy neighbor: dense batch-2
    // stream that will be retrying under a 40% fault rate.
    let light_reqs = yolo_reqs(4);
    let heavy_reqs = alex_reqs(12);
    let arrivals = vec![
        (0..4).map(|i| i as f64 * 3.0).collect::<Vec<_>>(),
        (0..12).map(|i| i as f64 * 0.25).collect::<Vec<_>>(),
    ];
    let serve = |fault: Option<&FaultPlan>| {
        let mut runtime = DeviceRuntime::new(
            vec![
                TenantSpec::new(yolo_model()).with_batch(1),
                TenantSpec::new(alex_model()).with_batch(2),
            ],
            &phone,
            2,
        )
        .expect("fits");
        runtime.clock().set_fault_plan(fault.cloned());
        runtime
            .serve_open_loop(
                &[
                    TenantTraffic::U8(&light_reqs),
                    TenantTraffic::U8(&heavy_reqs),
                ],
                &arrivals,
                &OpenLoopOptions::default(),
            )
            .expect("serve")
    };
    let clean = serve(None);
    let fault = FaultPlan::new(99).with_failure_rate(0.4);
    let faulted = serve(Some(&fault));
    assert!(
        faulted.tenants[1].retries > 0,
        "the heavy neighbor must actually retry"
    );
    // The light tenant is served in full and its tail latency is bounded:
    // work stealing keeps it interleaved with the neighbor's retries
    // instead of parked behind them.
    assert_eq!(faulted.tenants[0].served, faulted.tenants[0].offered);
    let bound = 5.0 * clean.tenants[0].p95_ms + 5.0;
    assert!(
        faulted.tenants[0].p95_ms <= bound,
        "light tenant p95 {:.3} ms exceeds bound {:.3} ms (fault-free p95 {:.3} ms)",
        faulted.tenants[0].p95_ms,
        bound,
        clean.tenants[0].p95_ms
    );
}

// ---------------------------------------------------------------------------
// Estimate is execute, on one device
// ---------------------------------------------------------------------------

#[test]
fn open_loop_estimate_schedules_exactly_what_the_runtime_executes() {
    let phone = Phone::xiaomi_9();
    let (yolo, alex) = (
        zoo::yolo_micro(Variant::Binary),
        zoo::alexnet_micro(Variant::Binary),
    );
    let slo_ms = 5.0;
    let workloads = [
        OpenLoopWorkload {
            arch: &yolo,
            batch: Some(2),
            slo_ms: Some(slo_ms),
            arrival: ArrivalProcess::Poisson { rate_per_s: 1500.0 },
            seed: 5,
        },
        OpenLoopWorkload {
            arch: &alex,
            batch: Some(2),
            slo_ms: None,
            arrival: ArrivalProcess::Poisson { rate_per_s: 1000.0 },
            seed: 9,
        },
    ];
    let fault = FaultPlan::new(31)
        .with_failure_rate(0.15)
        .with_throttle(ThrottleEpoch {
            start_ms: 20.0,
            end_ms: 60.0,
            slowdown: 1.5,
        });
    let policy = RetryPolicy::default();
    let est = estimate_serve_open_loop(&phone, &workloads, 2, 80.0, Some(&fault), &policy);
    assert!(
        est.tenants.iter().any(|t| t.retries > 0),
        "faults must bite"
    );
    assert!(est.tenants.iter().any(|t| t.throttled > 0), "throttle too");

    // The same tenants with weights, fed the workloads' own arrivals.
    let arrivals_ms: Vec<Vec<f64>> = workloads
        .iter()
        .map(|w| w.arrival.times_ms(w.seed, 80.0))
        .collect();
    let mut runtime = DeviceRuntime::new(
        vec![
            TenantSpec::new(yolo_model())
                .with_batch(2)
                .with_slo_ms(slo_ms),
            TenantSpec::new(alex_model()).with_batch(2),
        ],
        &phone,
        2,
    )
    .expect("pair fits");
    runtime.clock().set_fault_plan(Some(fault));
    let reqs_a = yolo_reqs(arrivals_ms[0].len());
    let reqs_b = alex_reqs(arrivals_ms[1].len());
    let report = runtime
        .serve_open_loop(
            &[TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)],
            &arrivals_ms,
            &OpenLoopOptions {
                policy,
                max_replans: 0, // the estimator reports the knee as-is
            },
        )
        .expect("serve");
    assert_eq!(report.schedule, est.schedule);
    for (got, want) in report.tenants.iter().zip(&est.tenants) {
        assert_eq!(
            (got.offered, got.served, got.shed, got.windows),
            (want.offered, want.served, want.shed, want.windows),
            "{}",
            got.name
        );
        assert_eq!(
            (got.retries, got.throttled, got.p95_ms),
            (want.retries, want.throttled, want.p95_ms),
            "{}",
            got.name
        );
        // Same type, same fold: only what the streams produced differs.
        assert_eq!(got.latency_ms, want.latency_ms, "{}", got.name);
        assert_eq!(got.outputs.len(), got.offered);
        assert!(want.outputs.is_empty());
    }
    assert_eq!(report.wall_ms, est.wall_ms);
    assert!(est.attempt_exec_ms.is_empty());
}

#[test]
fn closed_loop_estimate_schedules_exactly_what_the_runtime_executes() {
    let phone = Phone::xiaomi_9();
    let (yolo, alex) = (
        zoo::yolo_micro(Variant::Binary),
        zoo::alexnet_micro(Variant::Binary),
    );
    let slo_ms = 4.0;
    let workloads = [
        TenantWorkload {
            arch: &yolo,
            batch: Some(2),
            slo_ms: None,
        },
        TenantWorkload {
            arch: &alex,
            batch: Some(2),
            slo_ms: Some(slo_ms),
        },
    ];
    let dry = DeviceRuntime::dry(&workloads, &phone, 2, None)
        .expect("pair fits")
        .serve(&[TenantTraffic::Count(10), TenantTraffic::Count(8)])
        .expect("dry pass");
    let mut runtime = DeviceRuntime::new(
        vec![
            TenantSpec::new(yolo_model()).with_batch(2),
            TenantSpec::new(alex_model())
                .with_batch(2)
                .with_slo_ms(slo_ms),
        ],
        &phone,
        2,
    )
    .expect("pair fits");
    let (reqs_a, reqs_b) = (yolo_reqs(10), alex_reqs(8));
    let report = runtime
        .serve(&[TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)])
        .expect("serve");
    assert_eq!(report.schedule, dry.schedule);
    for (got, want) in report.tenants.iter().zip(&dry.tenants) {
        assert_eq!((got.windows, got.served), (want.windows, want.served));
        // Both fold the schedule: the latencies are equal, not close.
        assert_eq!(got.p95_ms, want.p95_ms);
        assert_eq!(got.latency_ms, want.latency_ms);
        assert_eq!((got.outputs.len(), want.outputs.len()), (got.served, 0));
    }
    assert_eq!(
        (report.attempt_exec_ms.len(), dry.attempt_exec_ms.len()),
        (report.schedule.attempts.len(), 0)
    );
    assert_eq!(
        (report.wall_ms, report.goodput_imgs_per_s),
        (dry.wall_ms, dry.goodput_imgs_per_s)
    );
}

/// A three-conv net on 8-bit input whose channel counts are all multiples
/// of the 64-bit pack word: there — and only there — an architecture's
/// one-bit-per-weight byte count equals the deployed model's packed banks,
/// so a dry and a staged runtime's weight bytes (and the paged grants cut
/// from them) can be compared for equality. Narrower layers are word-padded
/// when packed: the micro zoo's 3-channel first layers make a staged model a
/// few KB heavier than its architecture — how `ExecutionPlan` sizes an
/// architecture, not a property of the runtime.
fn word_aligned_arch(name: &str, hw: usize, mid: usize) -> NetworkArch {
    let linear = Activation::Linear;
    NetworkArch::new(name, Shape4::new(1, hw, hw, 64))
        .conv("conv1", mid, 3, 1, 1, LayerPrecision::BinaryInput8, linear)
        .conv("conv2", mid, 3, 1, 1, LayerPrecision::Binary, linear)
        .conv("conv3", 64, 3, 1, 1, LayerPrecision::Binary, linear)
        .maxpool("pool", 2, 2)
}

/// The live registry, dry vs staged: the same pair brought up with weights
/// and from architectures alone agrees on every admission, modeled window
/// and memory figure — what a fleet's `can_host` and router read — after
/// construction, after attaching a third tenant (batch pinned or
/// admission-chosen), after detaching one, and after a shed-triggered
/// batch replan. The micro pair compares everything but the weight bytes
/// (see [`word_aligned_arch`]); the word-aligned pair compares those too,
/// with and without a pooled weight budget that forces paging.
#[test]
fn dry_and_staged_registries_agree_through_attach_detach_and_replan() {
    let phone = Phone::xiaomi_9();
    let micro = [
        zoo::yolo_micro(Variant::Binary),
        zoo::alexnet_micro(Variant::Binary),
    ];
    let aligned = [
        word_aligned_arch("wide-a", 16, 64),
        word_aligned_arch("wide-b", 8, 128),
    ];
    let deploy =
        |archs: &[NetworkArch; 2]| [&archs[0], &archs[1]].map(|a| convert(&fill_weights(a, 3)));
    let (micro_models, aligned_models) = (deploy(&micro), deploy(&aligned));
    // One byte short of the aligned pair's weights: admission must page,
    // and the third tenant still fits next to the survivors' pinned grants.
    let short = aligned_models.iter().map(|m| m.size_bytes()).sum::<usize>() - 1;
    for (archs, models, exact_weights, weight_budget) in [
        (&micro, &micro_models, false, None),
        (&aligned, &aligned_models, true, None),
        (&aligned, &aligned_models, true, Some(short)),
    ] {
        let spec = |t: usize, batch, slo_ms| {
            let mut spec = TenantSpec::new(models[t].clone());
            (spec.batch, spec.slo_ms) = (batch, slo_ms);
            spec
        };
        let workload = |t: usize, batch, slo_ms| TenantWorkload {
            arch: &archs[t],
            batch,
            slo_ms,
        };
        // Everything the fleet reads off a runtime. Fully resident, the
        // arena side of the peak is equal even where the weight bytes are
        // not.
        let figures = |rt: &DeviceRuntime| {
            let (weights, peak) = (rt.total_weight_bytes(), rt.resident_bytes());
            let tenants: Vec<_> = rt
                .tenants()
                .iter()
                .map(|t| (t.admission().clone(), t.modeled_window_ms()))
                .collect();
            let held = if exact_weights {
                (weights, peak)
            } else {
                (0, peak - weights)
            };
            (tenants, rt.pool_slice_bytes(), rt.weight_budget(), held)
        };
        // Tenant 0 at batch 4 under an SLO no batch-4 window can make: the
        // open-loop pass at the end must replan it.
        let probe =
            DeviceRuntime::dry(&[workload(0, Some(4), None)], &phone, 2, None).expect("fits");
        let tight_ms = probe.tenants()[0].admission().modeled_window_ms * 0.3;
        for third_batch in [Some(2), None] {
            let row = format!(
                "{}, budget {weight_budget:?}, third {third_batch:?}",
                archs[0].name
            );
            let mut staged = DeviceRuntime::new_with_budget(
                vec![spec(0, Some(4), Some(tight_ms)), spec(1, Some(4), None)],
                &phone,
                2,
                weight_budget,
            )
            .expect("pair fits");
            let mut dry = DeviceRuntime::dry(
                &[
                    workload(0, Some(4), Some(tight_ms)),
                    workload(1, Some(4), None),
                ],
                &phone,
                2,
                weight_budget,
            )
            .expect("pair fits");
            assert_eq!(figures(&staged), figures(&dry), "construction: {row}");
            assert!(staged.tenants()[0].staged().is_some() && dry.tenants()[0].staged().is_none());
            let paged = dry
                .tenants()
                .iter()
                .any(|t| t.admission().weight_grant_bytes.is_some());
            assert_eq!(
                paged,
                weight_budget.is_some(),
                "the budget must page someone"
            );

            let slot = staged.attach(spec(0, third_batch, None)).expect("attach");
            let dry_slot = dry.attach_dry(&workload(0, third_batch, None));
            assert_eq!((slot, dry_slot.expect("dry attach")), (2, 2));
            assert_eq!(figures(&staged), figures(&dry), "attach: {row}");

            staged.detach(1).expect("detach");
            dry.detach(1).expect("dry detach");
            assert_eq!(figures(&staged), figures(&dry), "detach: {row}");

            // Shed pressure on tenant 0 (its neighbour is now the attached
            // tenant, of the same kind): both replan it the same way.
            let arrivals: Vec<Vec<f64>> = vec![
                (0..8).map(|i| i as f64 * tight_ms * 0.03).collect(),
                (0..4).map(|i| i as f64 * 0.5).collect(),
            ];
            let images: Vec<Tensor<u8>> = (0..8)
                .map(|i| synthetic_image(archs[0].input, 900 + i))
                .collect();
            let executed = staged
                .serve_open_loop(
                    &[TenantTraffic::U8(&images), TenantTraffic::U8(&images[..4])],
                    &arrivals,
                    &OpenLoopOptions::default(),
                )
                .expect("executed pass");
            let modeled = dry
                .serve_open_loop(
                    &[TenantTraffic::Count(8), TenantTraffic::Count(4)],
                    &arrivals,
                    &OpenLoopOptions::default(),
                )
                .expect("dry pass");
            assert!(executed.replans >= 1, "no replan: {row}");
            assert_eq!(executed.replans, modeled.replans, "{row}");
            assert_eq!(executed.schedule, modeled.schedule, "{row}");
            assert_eq!(figures(&staged), figures(&dry), "replan: {row}");
        }
    }

    // The two kinds do not mix, and a staged runtime cannot serve a count.
    let mut staged = pair_runtime(&phone);
    let arch_only = TenantWorkload {
        arch: &micro[1],
        batch: Some(2),
        slo_ms: None,
    };
    let mismatch =
        |r: Result<usize, EngineError>| matches!(r, Err(EngineError::InputMismatch { .. }));
    assert!(mismatch(staged.attach_dry(&arch_only)));
    let counts = [TenantTraffic::Count(2), TenantTraffic::Count(2)];
    assert!(mismatch(staged.serve(&counts).map(|r| r.tenants.len())));
    let mut dry = DeviceRuntime::dry(&[arch_only], &phone, 2, None).expect("fits");
    assert!(mismatch(dry.attach(TenantSpec::new(alex_model()))));
}

// ---------------------------------------------------------------------------
// Hostile arrivals
// ---------------------------------------------------------------------------

#[test]
fn non_finite_and_negative_arrivals_are_rejected_not_scheduled() {
    // A NaN arrival used to pass the sortedness check, never become ready,
    // and hang the scheduler's idle-forward step. A `-0.0` after a `0.0` is
    // out of order: streams are sorted by `f64::total_cmp`, the order the
    // fleet router merges them in.
    let phone = Phone::xiaomi_9();
    let mut runtime =
        DeviceRuntime::new(vec![TenantSpec::new(yolo_model()).with_batch(1)], &phone, 1)
            .expect("fits");
    let reqs = yolo_reqs(2);
    for bad in [f64::NAN, f64::INFINITY, -1.0, -0.0] {
        let arrivals = if bad < 0.0 {
            vec![vec![bad, 0.0]]
        } else {
            vec![vec![0.0, bad]]
        };
        let err = runtime
            .serve_open_loop(
                &[TenantTraffic::U8(&reqs)],
                &arrivals,
                &OpenLoopOptions::default(),
            )
            .expect_err("hostile arrival must be rejected");
        assert!(
            matches!(err, EngineError::InputMismatch { .. }),
            "arrival {bad}: {err:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Scheduler invariants under arbitrary fault plans (proptest)
// ---------------------------------------------------------------------------

fn mix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *z;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn synthetic_loads(seed: u64, sizes: &[usize], with_slo: bool) -> Vec<OpenLoopLoad> {
    let mut z = seed;
    sizes
        .iter()
        .map(|&n| {
            // One SLO per tenant, as `open_loop_windows` anchors deadlines.
            let slo_ms = (mix64(&mut z) % 6000) as f64 / 100.0; // in [0, 60) ms
            let mut t = 0.0f64;
            let windows = (0..n)
                .map(|_| {
                    t += (mix64(&mut z) % 2000) as f64 / 100.0; // gaps in [0, 20) ms
                    let deadline_ms = if with_slo { t + slo_ms } else { f64::INFINITY };
                    OpenLoopWindow {
                        ready_ms: t,
                        deadline_ms,
                        pace_ms: if with_slo { deadline_ms } else { t + 10.0 },
                    }
                })
                .collect();
            OpenLoopLoad {
                windows,
                cold_ms: 15.0,
                steady_ms: 10.0,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_window_is_lost_or_duplicated_under_any_fault_plan(
        seed in any::<u64>(),
        rate_pct in 0usize..101,
        n0 in 1usize..10,
        n1 in 1usize..10,
        streams in 1usize..4,
        max_retries in 0usize..4,
        with_slo in any::<bool>(),
    ) {
        let loads = synthetic_loads(seed, &[n0, n1], with_slo);
        let fault = FaultPlan::new(seed ^ 0xF00D).with_failure_rate(rate_pct as f64 / 100.0);
        let policy = RetryPolicy { max_retries };
        let s = schedule_open_loop(&loads, streams, Some(&fault), &policy);

        // Exactly one terminal fate per window — none lost, none duplicated.
        prop_assert_eq!(s.fates.len(), loads.len());
        for (t, load) in loads.iter().enumerate() {
            prop_assert_eq!(s.fates[t].len(), load.windows.len());
        }

        // Group attempts per window: numbered 1..=k in start order, k
        // bounded by the retry budget, start never before ready, and the
        // fate agrees with the attempt trail.
        // (attempt number, faulted, start time) per (tenant, window).
        type AttemptTrail = Vec<(usize, bool, f64)>;
        let mut per: BTreeMap<(usize, usize), AttemptTrail> = BTreeMap::new();
        for at in &s.attempts {
            prop_assert!(at.start_ms >= loads[at.tenant].windows[at.index].ready_ms - 1e-9);
            prop_assert!(at.end_ms > at.start_ms);
            per.entry((at.tenant, at.index))
                .or_default()
                .push((at.attempt, at.faulted, at.start_ms));
        }
        for ((t, i), mut trail) in per.clone() {
            trail.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
            for (k, &(attempt, _, _)) in trail.iter().enumerate() {
                prop_assert!(attempt == k + 1, "attempts numbered contiguously");
            }
            prop_assert!(trail.len() <= max_retries + 1, "retry budget respected");
            // All attempts but possibly the last are faulted (a non-faulted
            // attempt resolves the window immediately).
            for &(_, faulted, _) in &trail[..trail.len() - 1] {
                prop_assert!(faulted, "tenant {} window {}: early attempt not faulted", t, i);
            }
        }
        for (t, fates) in s.fates.iter().enumerate() {
            for (i, fate) in fates.iter().enumerate() {
                let trail = per.get(&(t, i)).map_or(&[][..], Vec::as_slice);
                match fate {
                    WindowFate::Served { attempts, .. } => {
                        prop_assert_eq!(trail.len(), *attempts);
                        prop_assert!(!trail.last().unwrap().1, "serving attempt not faulted");
                    }
                    WindowFate::Shed { attempts, reason, .. } => {
                        prop_assert_eq!(trail.len(), *attempts);
                        prop_assert!(trail.iter().all(|&(_, f, _)| f), "shed windows only fault");
                        if *reason == ShedReason::RetriesExhausted {
                            prop_assert_eq!(*attempts, max_retries + 1);
                        }
                    }
                }
            }
        }

        // Streams never run two attempts at once.
        for stream in 0..streams {
            let mut mine: Vec<(f64, f64)> = s
                .attempts
                .iter()
                .filter(|a| a.stream == stream)
                .map(|a| (a.start_ms, a.end_ms))
                .collect();
            mine.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for pair in mine.windows(2) {
                prop_assert!(pair[1].0 >= pair[0].1 - 1e-9, "stream {} overlaps", stream);
            }
        }

        // Deterministic in its inputs.
        let again = schedule_open_loop(&loads, streams, Some(&fault), &policy);
        prop_assert_eq!(s, again);
    }
}

// ---------------------------------------------------------------------------
// The cursor scheduler equals the quadratic reference exactly (proptest)
// ---------------------------------------------------------------------------

/// One tenant's windows in a shape the scheduler meets, drawn from `z`:
/// `open_loop_windows` over sorted arrivals in batches of 1–3, with or
/// without an SLO (ready and deadline both in order), or when `closed`, a
/// closed-loop queue, every window ready at 0.
///
/// Arrival gaps straddle the service time, ties included, so windows
/// queue, shed and retry.
fn shaped_load(z: &mut u64, closed: bool) -> OpenLoopLoad {
    let steady_ms = 1.0 + (mix64(z) % 900) as f64 / 100.0;
    let cold_ms = steady_ms * (1.0 + (mix64(z) % 150) as f64 / 100.0);
    let slo_ms =
        (!mix64(z).is_multiple_of(3)).then(|| steady_ms * (1.0 + (mix64(z) % 500) as f64 / 100.0));
    let batch = 1 + (mix64(z) % 3) as usize;
    let count = 1 + (mix64(z) % 30) as usize;
    let mut t = 0.0f64;
    let arrivals: Vec<f64> = (0..count * batch)
        .map(|_| {
            if !mix64(z).is_multiple_of(4) {
                t += steady_ms * (mix64(z) % 200) as f64 / 100.0 / batch as f64;
            }
            t
        })
        .collect();
    let windows: Vec<OpenLoopWindow> = if closed {
        (0..count)
            .map(|k| OpenLoopWindow {
                ready_ms: 0.0,
                deadline_ms: f64::INFINITY,
                pace_ms: (k + 1) as f64 * slo_ms.unwrap_or(steady_ms),
            })
            .collect()
    } else {
        arrivals
            .chunks(batch)
            .map(|w| {
                let ready_ms = w[w.len() - 1];
                let deadline_ms = slo_ms.map_or(f64::INFINITY, |slo| w[0] + slo);
                OpenLoopWindow {
                    ready_ms,
                    deadline_ms,
                    pace_ms: if slo_ms.is_some() {
                        deadline_ms
                    } else {
                        ready_ms + steady_ms
                    },
                }
            })
            .collect()
    };
    OpenLoopLoad {
        windows,
        cold_ms,
        steady_ms,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn cursor_scheduler_equals_the_quadratic_reference(
        seed in any::<u64>(),
        tenants in 1usize..5,
        streams in 1usize..4,
        max_retries in 0usize..4,
        rate_pct in 0usize..50,
        throttles in 0usize..3,
        bursts in 0usize..2,
        faulty in any::<bool>(),
    ) {
        let mut z = seed;
        let loads: Vec<OpenLoopLoad> = (0..tenants)
            .map(|_| {
                let closed = mix64(&mut z).is_multiple_of(4);
                shaped_load(&mut z, closed)
            })
            .collect();
        let horizon = loads
            .iter()
            .flat_map(|l| l.windows.iter().map(|w| w.ready_ms + 4.0 * l.steady_ms))
            .fold(1.0, f64::max);
        let at = |z: &mut u64| horizon * (mix64(z) % 1000) as f64 / 1000.0;
        let mut fault = FaultPlan::new(seed ^ 0x5EED).with_failure_rate(rate_pct as f64 / 100.0);
        for _ in 0..throttles {
            let (a, b) = (at(&mut z), at(&mut z));
            fault = fault.with_throttle(ThrottleEpoch {
                start_ms: a.min(b),
                end_ms: a.max(b),
                slowdown: 1.0 + (mix64(&mut z) % 300) as f64 / 100.0,
            });
        }
        for _ in 0..bursts {
            let (a, b) = (at(&mut z), at(&mut z));
            fault = fault.with_burst(FaultBurst {
                start_ms: a.min(b),
                end_ms: a.max(b),
                rate: (mix64(&mut z) % 60) as f64 / 100.0,
            });
        }
        let fault = faulty.then_some(&fault);
        let policy = RetryPolicy { max_retries };
        prop_assert_eq!(
            schedule_open_loop(&loads, streams, fault, &policy),
            reference_schedule_open_loop(&loads, streams, fault, &policy)
        );
    }
}

// ---------------------------------------------------------------------------
// Runtime invariants under random attach/detach/fault interleavings (proptest)
// ---------------------------------------------------------------------------

/// What kind of model each live tenant is, in runtime index order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Yolo,
    Alex,
}

fn spec_of(kind: Kind) -> TenantSpec {
    match kind {
        Kind::Yolo => TenantSpec::new(yolo_model()).with_batch(2),
        Kind::Alex => TenantSpec::new(alex_model()).with_batch(2),
    }
}

fn reqs_of(kind: Kind, count: usize, seed: u64) -> Vec<Tensor<u8>> {
    let input = match kind {
        Kind::Yolo => zoo::yolo_micro(Variant::Binary).input,
        Kind::Alex => zoo::alexnet_micro(Variant::Binary).input,
    };
    (0..count)
        .map(|i| synthetic_image(input, seed.wrapping_add(i as u64)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Random interleavings of attach, detach and fault-plan swaps across
    // open-loop passes on ONE evolving runtime: every pass resolves every
    // request to exactly one fate (none lost, none duplicated), and every
    // surviving output is bit-exact with a fault-free pass of the same
    // roster on a freshly staged runtime — attach/detach history leaves
    // no residue in the math.
    #[test]
    fn random_attach_detach_fault_interleavings_conserve_and_survivors_stay_bit_exact(
        seed in any::<u64>(),
        rounds in proptest::collection::vec(
            // (attach?, detach?, fault rate %, requests per tenant)
            (any::<bool>(), any::<bool>(), 0usize..60, 1usize..4),
            1..=3,
        ),
    ) {
        let phone = Phone::xiaomi_9();
        // Tenant 0 (yolo, the largest arena) anchors the pool and is never
        // detached, so a freshly staged twin always sizes its pool slice
        // identically and window batches agree.
        let mut kinds = vec![Kind::Yolo];
        let mut runtime =
            DeviceRuntime::new(vec![spec_of(Kind::Yolo)], &phone, 2).expect("solo fits");

        for (round, &(do_attach, do_detach, rate_pct, per_tenant)) in rounds.iter().enumerate() {
            if do_attach && kinds.len() < 3 {
                runtime.attach(spec_of(Kind::Alex)).expect("attach fits");
                kinds.push(Kind::Alex);
            }
            if do_detach && kinds.len() > 1 {
                let idx = kinds.len() - 1;
                runtime.detach(idx).expect("detach");
                kinds.remove(idx);
            }

            let req_seed = seed ^ (round as u64).wrapping_mul(0x9E37_79B9);
            let reqs: Vec<Vec<Tensor<u8>>> = kinds
                .iter()
                .enumerate()
                .map(|(t, &k)| reqs_of(k, per_tenant, req_seed.wrapping_add(1000 * t as u64)))
                .collect();
            let traffic: Vec<TenantTraffic<'_>> =
                reqs.iter().map(|r| TenantTraffic::U8(r)).collect();
            let arrivals: Vec<Vec<f64>> = reqs
                .iter()
                .map(|r| (0..r.len()).map(|i| i as f64 * 0.5).collect())
                .collect();

            let fault = FaultPlan::new(seed ^ round as u64)
                .with_failure_rate(rate_pct as f64 / 100.0);
            runtime.clock().set_fault_plan(Some(fault));
            let faulted = runtime
                .serve_open_loop(&traffic, &arrivals, &OpenLoopOptions::default())
                .expect("faulted pass");

            // A fresh fault-free runtime with the same roster is the oracle.
            let mut oracle = DeviceRuntime::new(
                kinds.iter().map(|&k| spec_of(k)).collect(),
                &phone,
                2,
            )
            .expect("oracle fits");
            let clean = oracle
                .serve_open_loop(&traffic, &arrivals, &OpenLoopOptions::default())
                .expect("clean pass");

            prop_assert_eq!(faulted.tenants.len(), kinds.len());
            for (t, (ft, ct)) in faulted.tenants.iter().zip(clean.tenants.iter()).enumerate() {
                // Conservation: one terminal fate per request, windows cover
                // the offered load exactly.
                prop_assert_eq!(ft.offered, per_tenant);
                prop_assert!(ft.served + ft.shed == ft.offered, "tenant {} leaks", t);
                prop_assert_eq!(ft.outputs.len(), ft.offered);
                let some = ft.outputs.iter().filter(|o| o.is_some()).count();
                prop_assert!(some == ft.served, "tenant {} fate/output mismatch", t);
                prop_assert_eq!(ft.windows, ft.offered.div_ceil(ft.batch));

                // No SLO and no faults: the oracle serves everything, and
                // every survivor of the faulted pass matches it bit-exactly.
                prop_assert_eq!(ct.served, ct.offered);
                for (i, out) in ft.outputs.iter().enumerate() {
                    if let Some(got) = out {
                        let want = ct.outputs[i].as_ref().expect("oracle output");
                        assert_eq!(got, want, "round {round} tenant {t} request {i}");
                    }
                }
            }
        }
    }
}
