//! The inter-layer fusion pass, end to end: fused plans must be
//! bit-exact with their unfused twins on every execution path (solo,
//! batched, sharded, multi-tenant), dispatch strictly fewer kernels on
//! every zoo model, keep the arena's liveness invariants through fused
//! groups on random architectures, and a pinned fused-plan snapshot keeps
//! the rewrite stable.

use proptest::prelude::*;

use phonebit::core::plan::{ExecutionPlan, FusedKind, FusionMode, RouteOverrides, StepOp};
use phonebit::core::serve::{DeviceRuntime, TenantSpec, TenantTraffic};
use phonebit::core::{convert, ActivationData, ConvPath, Session};
use phonebit::gpusim::{DeviceProfile, Phone};
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image, to_float_input};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::tensor::shape::Shape4;

/// `arch` lowered for `device` at `batch` under `overrides`.
fn lower(
    arch: &NetworkArch,
    device: &DeviceProfile,
    batch: usize,
    overrides: RouteOverrides,
) -> ExecutionPlan {
    ExecutionPlan::for_arch(arch, device, batch, &overrides).expect("lowers")
}
use phonebit::tensor::Tensor;

fn fused() -> RouteOverrides {
    RouteOverrides {
        fusion: FusionMode::Force,
        ..Default::default()
    }
}

fn auto() -> RouteOverrides {
    RouteOverrides {
        fusion: FusionMode::Auto,
        ..Default::default()
    }
}

/// Runs one synthetic input through a session, picking the input domain
/// the model takes.
fn run_once(session: &mut Session, input: Shape4, takes_u8: bool, seed: u64) -> ActivationData {
    if takes_u8 {
        let img = synthetic_image(input, seed);
        session.run_u8(&img).expect("run").output.unwrap()
    } else {
        let img = to_float_input(&synthetic_image(input, seed));
        session.run_f32(&img).expect("run").output.unwrap()
    }
}

#[test]
fn fused_plans_dispatch_strictly_fewer_kernels_on_every_zoo_model() {
    for arch in zoo::all(Variant::Binary) {
        for phone in Phone::all() {
            for batch in [1usize, 4] {
                let unfused = lower(&arch, &phone.gpu, batch, RouteOverrides::default());
                for overrides in [auto(), fused()] {
                    let plan = lower(&arch, &phone.gpu, batch, overrides);
                    assert!(
                        !plan.chains.is_empty(),
                        "{} on {}: every zoo model carries fusible chains",
                        arch.name,
                        phone.name
                    );
                    assert!(
                        plan.dispatches() < unfused.dispatches(),
                        "{} on {} (batch {batch}, {:?}): fused {} !< unfused {}",
                        arch.name,
                        phone.name,
                        overrides.fusion,
                        plan.dispatches(),
                        unfused.dispatches()
                    );
                    // Every fused group saves exactly its members' extra
                    // launches: the two dispatch counts reconcile through
                    // the recorded chain decisions.
                    let saved: usize = plan
                        .chains
                        .iter()
                        .filter(|d| d.fused)
                        .map(|d| d.split_dispatches - 1)
                        .sum();
                    assert_eq!(
                        plan.dispatches() + saved,
                        unfused.dispatches(),
                        "{} on {}: chain ledger disagrees with the plans",
                        arch.name,
                        phone.name
                    );
                }
            }
        }
    }
}

#[test]
fn micro_zoo_fused_sessions_are_bit_exact_solo_and_batched() {
    let phone = Phone::xiaomi_9();
    for arch in [zoo::alexnet_micro, zoo::yolo_micro] {
        let arch = arch(Variant::Binary);
        let model = || convert(&fill_weights(&arch, 11));
        let takes_u8 = model().takes_u8_input();

        let mut plain = Session::new(model(), &phone).expect("fits");
        let mut fused1 = Session::new_batched_opts(model(), &phone, 1, fused()).expect("fits");
        assert!(
            !fused1.plan().chains.is_empty(),
            "{}: has chains",
            arch.name
        );
        for seed in 0..3u64 {
            let want = run_once(&mut plain, arch.input, takes_u8, 40 + seed);
            let got = run_once(&mut fused1, arch.input, takes_u8, 40 + seed);
            assert_eq!(&got, &want, "{} solo seed {seed}", arch.name);
        }
        // Executed launches equal the fused plan's modeled dispatch count,
        // strictly below the split session's timeline.
        fused1.reset_stream();
        let _ = run_once(&mut fused1, arch.input, takes_u8, 40);
        assert_eq!(fused1.timeline().len(), fused1.plan().dispatches());
        assert!(fused1.timeline().len() < plain.timeline().len());

        // Batched windows stay bit-exact image by image.
        let mut fused4 = Session::new_batched_opts(model(), &phone, 4, fused()).expect("fits");
        if takes_u8 {
            let imgs: Vec<Tensor<u8>> = (0..4)
                .map(|i| synthetic_image(arch.input, 70 + i as u64))
                .collect();
            let out = fused4.run_batch_u8(&imgs).expect("window").output.unwrap();
            for (i, img) in imgs.iter().enumerate() {
                let want = plain.run_u8(img).expect("solo").output.unwrap();
                assert_eq!(&out.image(i), &want, "{} batched image {i}", arch.name);
            }
        } else {
            let imgs: Vec<Tensor<f32>> = (0..4)
                .map(|i| to_float_input(&synthetic_image(arch.input, 70 + i as u64)))
                .collect();
            let out = fused4.run_batch_f32(&imgs).expect("window").output.unwrap();
            for (i, img) in imgs.iter().enumerate() {
                let want = plain.run_f32(img).expect("solo").output.unwrap();
                assert_eq!(&out.image(i), &want, "{} batched image {i}", arch.name);
            }
        }
    }
}

/// A single binary conv (optionally behind an 8-bit first layer) plus a
/// pool head, shaped to force one planner route (mirrors
/// `tests/serve_multitenant.rs`).
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
fn fusion_is_bit_exact_on_all_four_conv_routes() {
    let phone = Phone::xiaomi_9();
    // (arch, expected route of the conv step, does Force form a group?)
    let cases = [
        (
            routed_arch("direct", 20, 64, 64, 3),
            ConvPath::DirectFused,
            true,
        ),
        (
            routed_arch("unfused", 13, 512, 16, 3),
            ConvPath::DirectUnfused,
            false,
        ),
        (
            routed_arch("pointwise", 26, 128, 256, 1),
            ConvPath::LoweredGemm,
            false,
        ),
        (
            // The bit-plane first-layer route: 8-bit input, fused split.
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
            ConvPath::DirectFused, // in8 layers don't carry a BConv route; placeholder
            true,
        ),
    ];
    for (arch, want_path, forms_group) in cases {
        let model = || convert(&fill_weights(&arch, 17));
        let takes_u8 = model().takes_u8_input();
        let plan = lower(&arch, &phone.gpu, 1, fused());
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
        }
        let grouped = plan
            .steps
            .iter()
            .any(|s| matches!(s.op, StepOp::FusedGroup { .. }));
        assert_eq!(
            grouped, forms_group,
            "{}: fusion grammar disagreed (groups: {grouped})",
            arch.name
        );

        let mut plain = Session::new(model(), &phone).expect("fits");
        let mut fused_s = Session::new_batched_opts(model(), &phone, 1, fused()).expect("fits");
        for seed in 0..2u64 {
            let want = run_once(&mut plain, arch.input, takes_u8, 90 + seed);
            let got = run_once(&mut fused_s, arch.input, takes_u8, 90 + seed);
            assert_eq!(&got, &want, "{} seed {seed}", arch.name);
        }
    }
}

#[test]
fn sharded_serving_consumes_fused_plans_bit_exactly() {
    let phone = Phone::xiaomi_9();
    let arch = zoo::yolo_micro(Variant::Binary);
    let model = || convert(&fill_weights(&arch, 29));
    let reqs: Vec<Tensor<u8>> = (0..8)
        .map(|i| synthetic_image(arch.input, 200 + i as u64))
        .collect();

    let serve = |overrides: RouteOverrides| {
        let spec = TenantSpec::new(model())
            .with_batch(2)
            .with_overrides(overrides);
        let mut rt = DeviceRuntime::new(vec![spec], &phone, 2).expect("fits");
        (
            rt.tenants()[0].plan().dispatches(),
            rt.serve(&[TenantTraffic::U8(&reqs)]).expect("serve"),
        )
    };
    let (split_disp, want) = serve(RouteOverrides::default());
    let (fused_disp, got) = serve(fused());
    assert!(fused_disp < split_disp, "sharded staging must fuse");
    assert_eq!(got.tenants[0].served, want.tenants[0].served);
    for (i, w) in want.tenants[0].outputs.iter().enumerate() {
        assert!(w.is_some(), "a closed loop serves request {i}");
        assert_eq!(&got.tenants[0].outputs[i], w, "sharded request {i}");
    }
}

#[test]
fn multitenant_runtime_consumes_fused_plans_bit_exactly() {
    let phone = Phone::xiaomi_9();
    let alex = zoo::alexnet_micro(Variant::Binary);
    let yolo = zoo::yolo_micro(Variant::Binary);
    let alex_model = || convert(&fill_weights(&alex, 23));
    let yolo_model = || convert(&fill_weights(&yolo, 29));
    let reqs_alex: Vec<Tensor<u8>> = (0..5)
        .map(|i| synthetic_image(alex.input, 300 + i as u64))
        .collect();
    let reqs_yolo: Vec<Tensor<u8>> = (0..5)
        .map(|i| synthetic_image(yolo.input, 400 + i as u64))
        .collect();

    let serve = |overrides: RouteOverrides| {
        let mut rt = DeviceRuntime::new(
            vec![
                TenantSpec::new(alex_model())
                    .with_batch(2)
                    .with_overrides(overrides),
                TenantSpec::new(yolo_model())
                    .with_batch(2)
                    .with_overrides(overrides),
            ],
            &phone,
            2,
        )
        .expect("pair fits pooled");
        rt.serve(&[TenantTraffic::U8(&reqs_alex), TenantTraffic::U8(&reqs_yolo)])
            .expect("co-resident serve")
    };
    let want = serve(RouteOverrides::default());
    let got = serve(fused());
    for t in 0..2 {
        assert_eq!(got.tenants[t].served, want.tenants[t].served);
        for (i, w) in want.tenants[t].outputs.iter().enumerate() {
            assert!(w.is_some(), "a closed loop serves tenant {t} request {i}");
            assert_eq!(&got.tenants[t].outputs[i], w, "tenant {t} request {i}");
        }
    }
}

#[test]
fn dense_pair_chain_is_bit_exact_in_the_engine() {
    let phone = Phone::xiaomi_9();
    let arch = NetworkArch::new("densepair", Shape4::new(1, 16, 16, 3))
        .conv(
            "conv1",
            16,
            3,
            1,
            1,
            LayerPrecision::BinaryInput8,
            Activation::Linear,
        )
        .maxpool("pool1", 2, 2)
        .dense("fcb1", 64, LayerPrecision::Binary, Activation::Linear)
        .dense("fcb2", 32, LayerPrecision::Binary, Activation::Linear)
        .dense("fc", 10, LayerPrecision::Float, Activation::Linear)
        .softmax();
    let model = || convert(&fill_weights(&arch, 31));
    let plan = lower(&arch, &phone.gpu, 1, fused());
    assert!(
        plan.steps.iter().any(|s| matches!(
            &s.op,
            StepOp::FusedGroup {
                kind: FusedKind::DenseChain,
                ..
            }
        )),
        "fcb1+fcb2 must lower to a dense chain"
    );
    let mut plain = Session::new(model(), &phone).expect("fits");
    let mut fused_s = Session::new_batched_opts(model(), &phone, 1, fused()).expect("fits");
    for seed in 0..3u64 {
        let want = run_once(&mut plain, arch.input, true, 500 + seed);
        let got = run_once(&mut fused_s, arch.input, true, 500 + seed);
        assert_eq!(&got, &want, "dense pair seed {seed}");
    }
}

/// SplitMix64 — deterministic arch generator (mirrors
/// `tests/plan_arena.rs`).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Random but always-valid layer chains mixing every precision, pool
/// placement, and dense tail (including back-to-back binary dense pairs
/// that form dense chains).
fn random_arch(seed: u64) -> NetworkArch {
    let mut rng = Rng(seed);
    let hw = 8 + rng.pick(2) as usize * 8; // 8, 16
    let c0 = [1, 3, 8][rng.pick(3) as usize];
    let mut arch = NetworkArch::new(format!("gen{seed}"), Shape4::new(1, hw, hw, c0));
    let mut cur_hw = hw;
    if rng.pick(2) == 0 {
        arch = arch.conv(
            "in8",
            8 + rng.pick(3) as usize * 8,
            3,
            1,
            1,
            LayerPrecision::BinaryInput8,
            Activation::Linear,
        );
    }
    let trunk = 2 + rng.pick(3) as usize;
    for i in 0..trunk {
        match rng.pick(4) {
            0 if cur_hw >= 4 => {
                arch = arch.maxpool(&format!("pool{i}"), 2, 2);
                cur_hw /= 2;
            }
            1 => {
                arch = arch.conv(
                    &format!("fconv{i}"),
                    [8usize, 24][rng.pick(2) as usize],
                    3,
                    1,
                    1,
                    LayerPrecision::Float,
                    Activation::Relu,
                );
            }
            _ => {
                let k = [16usize, 33, 64][rng.pick(3) as usize];
                arch = arch.conv(
                    &format!("conv{i}"),
                    k,
                    3,
                    1,
                    1,
                    LayerPrecision::Binary,
                    Activation::Linear,
                );
            }
        }
    }
    match rng.pick(3) {
        0 => arch.dense("fc", 10, LayerPrecision::Float, Activation::Linear),
        1 => arch
            .dense("fcb1", 32, LayerPrecision::Binary, Activation::Linear)
            .dense("fcb2", 16, LayerPrecision::Binary, Activation::Linear)
            .dense("fc", 10, LayerPrecision::Float, Activation::Linear)
            .softmax(),
        _ => arch
            .dense("fc", 10, LayerPrecision::Float, Activation::Linear)
            .softmax(),
    }
}

/// Liveness invariants a fused plan must keep: overlapping live values
/// never share a slot, every step's bindings are pairwise distinct, and
/// no value references a dropped id.
fn assert_plan_sound(plan: &ExecutionPlan, what: &str) {
    for (i, a) in plan.values.iter().enumerate() {
        assert!(
            plan.slots[a.slot] >= a.bytes,
            "{what}: slot {} smaller than value {i}",
            a.slot
        );
        for (j, b) in plan.values.iter().enumerate().skip(i + 1) {
            if a.born <= b.dies && b.born <= a.dies {
                assert_ne!(
                    a.slot, b.slot,
                    "{what}: values {i} and {j} live together in slot {}",
                    a.slot
                );
            }
        }
    }
    for step in &plan.steps {
        let mut slots: Vec<usize> = [
            Some(step.input),
            Some(step.output),
            step.convert,
            step.scratch,
        ]
        .into_iter()
        .flatten()
        .map(|v| {
            assert!(v < plan.values.len(), "{what}: dangling value id {v}");
            plan.values[v].slot
        })
        .collect();
        let n = slots.len();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), n, "{what}: step {} reuses a slot", step.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The ChainDecision ledger is exact arithmetic, not advisory: summing
    // each taken chain's dispatch saving (split dispatches collapse to one
    // fused launch) reproduces the plan-wide dispatch delta, on any random
    // architecture, batch, and fusion mode.
    #[test]
    fn chain_ledger_savings_sum_to_the_plan_dispatch_delta(
        seed in 0u64..10_000,
        batch in 1usize..4,
    ) {
        let arch = random_arch(seed);
        let dev = DeviceProfile::adreno_640();
        for overrides in [auto(), fused()] {
            let unfused = lower(&arch, &dev, batch, RouteOverrides::default());
            let plan = lower(&arch, &dev, batch, overrides);
            let ledger: usize = plan
                .chains
                .iter()
                .filter(|c| c.fused)
                .map(|c| c.split_dispatches - 1)
                .sum();
            prop_assert!(
                unfused.dispatches() - plan.dispatches() == ledger,
                "seed {} batch {} {:?}: ledger says {} saved but dispatches dropped {} -> {}",
                seed, batch, overrides.fusion, ledger, unfused.dispatches(), plan.dispatches()
            );
            // Every chain's claimed split cost is real: a fused chain saves
            // at least one dispatch, and an untaken chain saves nothing.
            for c in &plan.chains {
                prop_assert!(c.split_dispatches >= 2, "chain {} too short to fuse", c.label);
            }
        }
    }

    // Fusion never changes outputs, leaks arena slots, or increases the
    // dispatch count, on any random architecture.
    #[test]
    fn fusion_preserves_outputs_and_arena_invariants(seed in 0u64..10_000) {
        let arch = random_arch(seed);
        let dev = DeviceProfile::adreno_640();
        let unfused = lower(&arch, &dev, 1, RouteOverrides::default());
        for overrides in [auto(), fused()] {
            let plan = lower(&arch, &dev, 1, overrides);
            assert_plan_sound(&plan, &format!("seed {seed} {:?}", overrides.fusion));
            prop_assert!(plan.dispatches() <= unfused.dispatches());
            // Deterministic rewrite.
            prop_assert_eq!(&plan, &lower(&arch, &dev, 1, overrides));
        }

        let phone = Phone::xiaomi_9();
        let model = || convert(&fill_weights(&arch, seed));
        let takes_u8 = model().takes_u8_input();
        let mut plain = Session::new(model(), &phone).expect("fits");
        let mut fused_s = Session::new_batched_opts(model(), &phone, 1, fused()).expect("fits");
        let want = run_once(&mut plain, arch.input, takes_u8, seed);
        let got = run_once(&mut fused_s, arch.input, takes_u8, seed);
        assert_eq!(&got, &want, "seed {seed}");
    }
}

#[test]
fn fused_plan_snapshot_is_pinned() {
    // The fused twin of `tests/plan_arena.rs`'s pinned snapshot: the
    // rewrite below was reviewed by hand — a change here is a deliberate
    // fusion-pass change, not noise.
    let arch = NetworkArch::new("snapshot", Shape4::new(1, 8, 8, 3))
        .conv(
            "conv1",
            16,
            3,
            1,
            1,
            LayerPrecision::BinaryInput8,
            Activation::Linear,
        )
        .maxpool("pool1", 2, 2)
        .conv(
            "conv2",
            24,
            3,
            1,
            1,
            LayerPrecision::Binary,
            Activation::Linear,
        )
        .dense("fc", 10, LayerPrecision::Float, Activation::Linear)
        .softmax();
    let gpu = &Phone::xiaomi_9().gpu;
    let unfused = lower(&arch, gpu, 1, RouteOverrides::default());
    let plan = lower(&arch, gpu, 1, fused());

    // conv1+pool1 collapses into one group; conv2 (bits in, no pool
    // behind it) stays split. 5 steps -> 4, 7 dispatches -> 5.
    assert_eq!(unfused.steps.len(), 5);
    assert_eq!(plan.steps.len(), 4);
    assert_eq!(unfused.dispatches(), 7);
    assert_eq!(plan.dispatches(), 5);
    let group = &plan.steps[0];
    let StepOp::FusedGroup { kind, members } = &group.op else {
        panic!("first step must be the conv1+pool1 group");
    };
    assert_eq!(*kind, FusedKind::ConvChain);
    assert_eq!(members.len(), 2);
    assert_eq!(&*group.name, "conv1+pool1");
    // One recorded decision; Force fuses it and remembers the split cost.
    assert_eq!(plan.chains.len(), 1);
    assert!(plan.chains[0].fused);
    assert_eq!(plan.chains[0].split_dispatches, 3);
    // Liveness sees through the group: the fused arena never exceeds the
    // split arena (the pool ring replaces the full conv1 output slot).
    assert!(plan.arena_bytes() <= unfused.arena_bytes());
    assert_plan_sound(&plan, "snapshot");
}
