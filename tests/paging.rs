//! Weight-paging invariants, property-tested: the precomputed
//! [`PagingSchedule`] is causally consistent under arbitrary budgets (no
//! step runs before its bank's upload lands, the upload lane is serial,
//! the look-ahead respects the budget), a paged session's one plan walk
//! charges each step's stall exactly once per window, and paged sessions
//! are bit-exact with their fully resident twins on every conv route,
//! through fused chains, and under dictionary compression.

use proptest::prelude::*;

use phonebit::core::plan::{CompressionMode, ExecutionPlan, FusionMode, RouteOverrides};
use phonebit::core::{
    convert, estimate_window, ActivationData, DeviceRuntime, EstimateOptions, RunReport, Session,
    TenantTraffic, TenantWorkload,
};
use phonebit::gpusim::{CommandQueue, DeviceProfile, ExecutorClass, Phone};
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, fill_weights_clustered, synthetic_image, to_float_input};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::tensor::shape::Shape4;

const EPS: f64 = 1e-12;

/// `arch` lowered for `device` at `batch` under `overrides`.
fn lower(
    arch: &NetworkArch,
    device: &DeviceProfile,
    batch: usize,
    overrides: RouteOverrides,
) -> ExecutionPlan {
    ExecutionPlan::for_arch(arch, device, batch, &overrides).expect("lowers")
}

/// A budgeted batch-1 plan for a micro-zoo arch on the Xiaomi 9.
fn budgeted_plan(arch: &NetworkArch, budget: usize) -> ExecutionPlan {
    lower(
        arch,
        &Phone::xiaomi_9().gpu,
        1,
        RouteOverrides {
            weight_budget: Some(budget),
            ..RouteOverrides::default()
        },
    )
}

/// The unbudgeted plan: its steps carry the banks every budgeted lowering
/// pages, so its summed weights, paged floor and paged minimum bound them.
fn resident_plan(arch: &NetworkArch) -> ExecutionPlan {
    lower(arch, &Phone::xiaomi_9().gpu, 1, RouteOverrides::default())
}

fn micro_arch(idx: usize) -> NetworkArch {
    if idx == 0 {
        zoo::alexnet_micro(Variant::Binary)
    } else {
        zoo::yolo_micro(Variant::Binary)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Under any feasible budget the schedule never lets a step start
    // before its upload completes: the charged stall closes exactly the
    // gap between the compute timeline and the bank's ready time, the
    // upload lane is serial, and the look-ahead's co-residency stays
    // under the budget.
    #[test]
    fn schedule_is_causally_consistent_under_any_feasible_budget(
        arch_idx in 0usize..2,
        frac in 0.0f64..1.0,
    ) {
        let arch = micro_arch(arch_idx);
        let resident = resident_plan(&arch);
        let total = resident.weights_bytes;
        prop_assert!(resident.paged_floor_bytes() < total, "micro nets have >2 weighted layers");
        // Sample the whole feasible range, from the hard minimum (largest
        // single bank — below the no-stall floor, uploads serialize
        // behind evictions) up to fully resident.
        let min = resident.paged_min_bytes();
        let budget = min + ((total - min) as f64 * frac) as usize;
        let plan = budgeted_plan(&arch, budget);
        let pg = plan.paging.as_ref().expect("paging attached");

        prop_assert_eq!(pg.budget_bytes, budget);
        prop_assert_eq!(pg.total_weight_bytes, total);
        if budget >= total {
            prop_assert!(pg.resident);
            prop_assert_eq!(pg.stall_s(), 0.0);
            prop_assert_eq!(pg.evictions(), 0);
            return Ok(());
        }
        prop_assert!(!pg.resident);
        prop_assert!(
            pg.hot_peak_bytes <= budget,
            "look-ahead co-residency {} exceeds budget {}",
            pg.hot_peak_bytes, budget
        );

        let mut lane_free = 0.0f64;
        let mut first = true;
        for s in pg.steps.iter().filter(|s| s.bank_bytes > 0) {
            // Upload accounting: ready = issue + lane time, never negative.
            prop_assert!(s.upload_s > 0.0);
            prop_assert!((s.ready_s - s.issue_s - s.upload_s).abs() < EPS);
            // The lane is serial: uploads never overlap or rewind.
            prop_assert!(
                s.issue_s >= lane_free - EPS,
                "upload issued at {} before lane free at {}",
                s.issue_s, lane_free
            );
            lane_free = s.ready_s;
            prop_assert!(s.stall_s >= 0.0);
            prop_assert!(s.evicted, "streaming schedules evict after use");
            if first {
                // Nothing precedes the first bank, so its upload cannot
                // hide: the stall is the whole upload.
                prop_assert!((s.stall_s - s.upload_s).abs() < EPS);
                first = false;
            }
        }
        // Weightless steps charge nothing.
        for s in pg.steps.iter().filter(|s| s.bank_bytes == 0) {
            prop_assert_eq!(s.upload_s, 0.0);
            prop_assert_eq!(s.stall_s, 0.0);
            prop_assert!(!s.evicted);
        }
    }

    // A paged session's windows are the plan walk with kernel bodies: every
    // step's time is its own dispatch list plus its schedule stall, charged
    // once per step per window — bit for bit against a hand-written walk of
    // the same schedule on a fresh queue, within rounding of the step alone
    // — and every window after the first of a batched session (every
    // window, at batch 1) reports the same breakdown.
    #[test]
    fn paged_windows_charge_each_stall_once_per_step(
        arch_idx in 0usize..2,
        frac in 0.0f64..1.0,
        batch in 1usize..3,
        windows in 1usize..5,
    ) {
        let (arch, phone) = (micro_arch(arch_idx), Phone::xiaomi_9());
        let model = convert(&fill_weights(&arch, 31));
        let resident = ExecutionPlan::for_model_batched(&model, &phone.gpu, batch).expect("lowers");
        let (min, total) = (resident.paged_min_bytes(), resident.weights_bytes);
        let budget = min + ((total - min) as f64 * frac) as usize;
        let overrides = RouteOverrides {
            weight_budget: Some(budget),
            ..RouteOverrides::default()
        };
        let takes_u8 = model.takes_u8_input();
        let mut session =
            Session::new_batched_opts(model, &phone, batch, overrides).expect("fits");
        let plan = session.plan().clone();
        let pg = plan.paging.clone().expect("paging attached");
        prop_assert!(!pg.resident);

        let times = |r: &RunReport| -> Vec<u64> {
            r.per_layer.iter().map(|l| l.time_s.to_bits()).collect()
        };
        let mut steady = None;
        for w in 0..windows {
            let run = run_window(&mut session, arch.input, batch, takes_u8, w as u64);
            prop_assert_eq!(run.per_layer.len(), plan.steps.len());
            let mut q = CommandQueue::new(phone.gpu.clone(), ExecutorClass::PhoneBitOpenCl);
            if w == 0 || batch == 1 {
                q.host_delay(q.per_run_overhead_s());
            }
            for (idx, layer) in run.per_layer.iter().enumerate() {
                let t0 = q.elapsed_s();
                q.host_delay(pg.steps[idx].stall_s);
                let mut solo = CommandQueue::new(phone.gpu.clone(), ExecutorClass::PhoneBitOpenCl);
                for profile in plan.step_profiles(idx) {
                    q.launch(profile.clone(), || {});
                    solo.launch(profile, || {});
                }
                prop_assert_eq!(layer.time_s.to_bits(), (q.elapsed_s() - t0).to_bits());
                let want = solo.elapsed_s() + pg.steps[idx].stall_s;
                prop_assert!((layer.time_s - want).abs() < EPS, "step {idx} window {w}");
            }
            prop_assert_eq!(run.total_s.to_bits(), q.elapsed_s().to_bits());
            if w > 0 {
                let breakdown = times(&run);
                prop_assert_eq!(steady.get_or_insert_with(|| breakdown.clone()), &breakdown);
            }
        }
    }
}

/// A paged plan's footprint is the hot set staging books, not Σ weights:
/// the plan, its estimate and a session on it report the same peak.
#[test]
fn paged_peak_bytes_is_what_the_session_books() {
    let phone = Phone::xiaomi_9();
    for arch in [zoo::alexnet_micro, zoo::yolo_micro] {
        let arch = arch(Variant::Binary);
        let overrides = RouteOverrides {
            weight_budget: Some(resident_plan(&arch).paged_floor_bytes()),
            ..RouteOverrides::default()
        };
        let model = convert(&fill_weights(&arch, 5));
        let session = Session::new_batched_opts(model, &phone, 1, overrides).expect("fits");
        let plan = session.plan();
        assert!(!plan.paging.as_ref().expect("paging attached").resident);
        assert_eq!(session.resident_bytes(), plan.peak_bytes(), "{}", arch.name);
        assert!(plan.peak_bytes() < plan.weights_bytes + plan.staged_arena_bytes());
        let opts = EstimateOptions {
            overrides,
            ..EstimateOptions::default()
        };
        let est = estimate_window(&phone, &arch, 1, &opts);
        assert_eq!(est.peak_bytes, plan.peak_bytes(), "{}", arch.name);
    }
}

/// A single binary conv (optionally behind an 8-bit first layer) plus a
/// pool head, shaped to force one planner route (mirrors
/// `tests/compress.rs`).
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

/// One window of `batch` synthetic images, each seeded apart.
fn run_window(
    session: &mut Session,
    input: Shape4,
    batch: usize,
    takes_u8: bool,
    seed: u64,
) -> RunReport {
    let single = Shape4::new(1, input.h, input.w, input.c);
    let imgs: Vec<_> = (0..batch)
        .map(|i| synthetic_image(single, seed * 8 + i as u64))
        .collect();
    if takes_u8 {
        session.run_batch_u8(&imgs).expect("run")
    } else {
        let imgs: Vec<_> = imgs.iter().map(to_float_input).collect();
        session.run_batch_f32(&imgs).expect("run")
    }
}

fn run_once(session: &mut Session, input: Shape4, takes_u8: bool, seed: u64) -> ActivationData {
    let img = synthetic_image(Shape4::new(1, input.h, input.w, input.c), seed);
    if takes_u8 {
        session.run_u8(&img).expect("run").output.unwrap()
    } else {
        let img = to_float_input(&img);
        session.run_f32(&img).expect("run").output.unwrap()
    }
}

/// Paging only moves weight bytes through time — it must never change a
/// single output bit. Checked on all four conv routes at the paged-floor
/// budget.
#[test]
fn paged_sessions_are_bit_exact_on_all_four_conv_routes() {
    let phone = Phone::xiaomi_9();
    let cases = [
        routed_arch("direct", 20, 64, 64, 3),
        routed_arch("unfused", 13, 512, 16, 3),
        routed_arch("pointwise", 26, 128, 256, 1),
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
    ];
    for arch in cases {
        let floor = resident_plan(&arch).paged_floor_bytes();
        let model = || convert(&fill_weights(&arch, 17));
        let takes_u8 = model().takes_u8_input();
        let mut plain = Session::new(model(), &phone).expect("fits");
        let overrides = RouteOverrides {
            weight_budget: Some(floor),
            ..RouteOverrides::default()
        };
        let mut paged = Session::new_batched_opts(model(), &phone, 1, overrides).expect("fits");
        for seed in 0..2u64 {
            let want = run_once(&mut plain, arch.input, takes_u8, 90 + seed);
            let got = run_once(&mut paged, arch.input, takes_u8, 90 + seed);
            assert_eq!(&got, &want, "{} seed {seed}", arch.name);
        }
    }
}

/// The degraded tier: at the hard minimum grant (largest single bank —
/// below the no-stall floor) the schedule pays strictly more stalls but
/// outputs stay bit-exact, and a tenant set whose summed weights are 2×
/// the pooled budget is still admitted, served without starvation, and
/// keeps ≥ 0.6× its fully resident throughput — the oversubscription
/// headline, encoded.
#[test]
fn minimum_grants_admit_a_two_x_oversubscribed_set_bit_exactly() {
    let phone = Phone::xiaomi_9();

    // Session-level bit-exactness at the minimum grant.
    for arch in [zoo::alexnet_micro, zoo::yolo_micro] {
        let arch = arch(Variant::Binary);
        let resident = resident_plan(&arch);
        let (floor, min) = (resident.paged_floor_bytes(), resident.paged_min_bytes());
        assert!(
            min < floor,
            "{}: min tier must sit below the floor",
            arch.name
        );
        let model = || convert(&fill_weights(&arch, 23));
        let takes_u8 = model().takes_u8_input();
        let mut plain = Session::new(model(), &phone).expect("fits");
        let overrides = RouteOverrides {
            weight_budget: Some(min),
            ..RouteOverrides::default()
        };
        let mut paged = Session::new_batched_opts(model(), &phone, 1, overrides).expect("fits");
        let pg = paged.plan().paging.clone().expect("paging attached");
        assert!(!pg.resident);
        assert!(pg.hot_peak_bytes <= min);
        let floor_plan = budgeted_plan(&arch, floor);
        let floor_stall = floor_plan.paging.as_ref().unwrap().stall_s();
        assert!(
            pg.stall_s() >= floor_stall - EPS,
            "{}: the minimum grant cannot stall less than the floor",
            arch.name
        );
        for seed in 0..2u64 {
            let want = run_once(&mut plain, arch.input, takes_u8, 70 + seed);
            let got = run_once(&mut paged, arch.input, takes_u8, 70 + seed);
            assert_eq!(&got, &want, "{} min grant seed {seed}", arch.name);
        }
    }

    // Admission-level: three co-resident detectors at half their summed
    // weights — every tenant degraded to its minimum, nobody starved.
    let yolo = zoo::yolov2_tiny(Variant::Binary);
    let min = resident_plan(&yolo).paged_min_bytes();
    let workloads: Vec<TenantWorkload<'_>> = (0..3)
        .map(|_| TenantWorkload {
            arch: &yolo,
            batch: None,
            slo_ms: None,
        })
        .collect();
    // A dry runtime under the budget, and its pass over three windows per
    // tenant.
    let estimate = |weight_budget: Option<usize>| {
        let mut runtime = DeviceRuntime::dry(&workloads, &phone, 2, weight_budget).expect("fits");
        let counts: Vec<TenantTraffic<'_>> = runtime
            .tenants()
            .iter()
            .map(|t| TenantTraffic::Count(3 * t.admission().batch))
            .collect();
        let pass = runtime.serve(&counts).expect("dry pass");
        (runtime, pass)
    };
    let (resident, resident_pass) = estimate(None);
    let budget = resident.total_weight_bytes() / 2;
    assert!(
        3 * min <= budget,
        "the trio's minima must fit half its weights for the 2× claim"
    );
    let (paged, paged_pass) = estimate(Some(budget));
    for (t, (p, r)) in paged_pass
        .tenants
        .iter()
        .zip(resident_pass.tenants.iter())
        .enumerate()
    {
        assert_eq!(
            paged.tenants()[t].admission().weight_grant_bytes,
            Some(min),
            "every tenant degrades to its minimum grant"
        );
        assert_eq!(p.served, r.served, "paging must not starve {}", p.name);
        assert!(p.slo_met);
    }
    assert!(paged.resident_bytes() <= resident.resident_bytes());
    assert!(
        paged_pass.goodput_imgs_per_s >= 0.6 * resident_pass.goodput_imgs_per_s,
        "oversubscribed throughput {} fell below 0.6x of resident {}",
        paged_pass.goodput_imgs_per_s,
        resident_pass.goodput_imgs_per_s
    );
}

/// Paging composes with the other plan transforms: fused chains page
/// their member banks as one unit, and dictionary-compressed banks page
/// at their compressed size — outputs stay bit-exact either way, and the
/// paged session holds strictly less weight residency.
#[test]
fn paged_micro_zoo_is_bit_exact_through_fusion_and_compression() {
    let phone = Phone::xiaomi_9();
    for arch in [zoo::alexnet_micro, zoo::yolo_micro] {
        let arch = arch(Variant::Binary);
        let floor = resident_plan(&arch).paged_floor_bytes();
        let model = || convert(&fill_weights_clustered(&arch, 11, 4));
        let takes_u8 = model().takes_u8_input();
        let mut plain = Session::new(model(), &phone).expect("fits");
        let combos = [
            RouteOverrides {
                weight_budget: Some(floor),
                ..RouteOverrides::default()
            },
            RouteOverrides {
                weight_budget: Some(floor),
                fusion: FusionMode::Auto,
                ..RouteOverrides::default()
            },
            RouteOverrides {
                weight_budget: Some(floor),
                compression: CompressionMode::Auto,
                ..RouteOverrides::default()
            },
            RouteOverrides {
                weight_budget: Some(floor),
                fusion: FusionMode::Auto,
                compression: CompressionMode::Auto,
                ..RouteOverrides::default()
            },
        ];
        for overrides in combos {
            let mut paged = Session::new_batched_opts(model(), &phone, 1, overrides).expect("fits");
            let pg = paged.plan().paging.clone().expect("paging attached");
            // The floor was computed on the raw banks, so without
            // compression it must force streaming; compressed banks may
            // shrink under it.
            if overrides.compression == CompressionMode::Off {
                assert!(!pg.resident, "{}: floor budget must stream", arch.name);
                assert!(pg.evictions() > 0);
            }
            for seed in 0..3u64 {
                let want = run_once(&mut plain, arch.input, takes_u8, 40 + seed);
                let got = run_once(&mut paged, arch.input, takes_u8, 40 + seed);
                assert_eq!(
                    &got, &want,
                    "{} (fusion {:?}, compression {:?}) seed {seed}",
                    arch.name, overrides.fusion, overrides.compression
                );
            }
        }
    }
}
