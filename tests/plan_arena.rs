//! Property coverage for the `ExecutionPlan` IR's liveness-based arena:
//! randomized layer chains must never co-locate two live values in one
//! slot, slot sizing must cover every tenant, lowering must be
//! deterministic, and a pinned snapshot keeps the assignment stable.

use phonebit::core::plan::{
    CompressionMode, ExecutionPlan, FusionMode, PlanValue, RouteOverrides, ValueKind, ValueRole,
};
use phonebit::core::{convert, PbitModel};
use phonebit::gpusim::{DeviceProfile, Phone};
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, fill_weights_clustered};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch};
use phonebit::tensor::shape::Shape4;

mod common;
use common::dispatch_extras_arch;

/// `arch` lowered for `device` at `batch` under `overrides`.
fn lower(
    arch: &NetworkArch,
    device: &DeviceProfile,
    batch: usize,
    overrides: RouteOverrides,
) -> ExecutionPlan {
    ExecutionPlan::for_arch(arch, device, batch, &overrides).expect("lowers")
}

/// SplitMix64 — deterministic arch generator seed stream.
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

/// Generates a random but always-valid layer chain: optional bit-plane
/// first layer, a convolution/pool trunk mixing precisions (including
/// layers above 256 channels that force the unfused route and pointwise
/// layers that force the GEMM view), then a dense tail.
fn random_arch(seed: u64) -> NetworkArch {
    let mut rng = Rng(seed);
    let hw = 8 + rng.pick(3) as usize * 8; // 8, 16, 24
    let c0 = [1, 3, 8][rng.pick(3) as usize];
    let mut arch = NetworkArch::new(format!("gen{seed}"), Shape4::new(1, hw, hw, c0));
    let mut cur_hw = hw;
    let first_bin8 = rng.pick(2) == 0;
    if first_bin8 {
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
    let trunk = 2 + rng.pick(4) as usize;
    for i in 0..trunk {
        match rng.pick(5) {
            0 if cur_hw >= 4 => {
                arch = arch.maxpool(&format!("pool{i}"), 2, 2);
                cur_hw /= 2;
            }
            1 => {
                // Pointwise layer: the planner's free-GEMM view.
                let k = [16usize, 100, 320][rng.pick(3) as usize];
                arch = arch.conv(
                    &format!("pw{i}"),
                    k,
                    1,
                    1,
                    0,
                    LayerPrecision::Binary,
                    Activation::Linear,
                );
            }
            2 => {
                // Wide layer pushing past the 256-channel integration limit
                // downstream.
                arch = arch.conv(
                    &format!("wide{i}"),
                    320,
                    3,
                    1,
                    1,
                    LayerPrecision::Binary,
                    Activation::Linear,
                );
            }
            3 => {
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
            .dense("fcb", 32, LayerPrecision::Binary, Activation::Linear)
            .dense("fc", 10, LayerPrecision::Float, Activation::Linear)
            .softmax(),
        _ => arch
            .dense("fc", 10, LayerPrecision::Float, Activation::Linear)
            .softmax(),
    }
}

fn overlap(a: &PlanValue, b: &PlanValue) -> bool {
    a.born <= b.dies && b.born <= a.dies
}

#[test]
fn liveness_overlapping_values_never_share_slots() {
    let devices = [DeviceProfile::adreno_640(), DeviceProfile::adreno_530()];
    for seed in 0..60u64 {
        let arch = random_arch(seed);
        for dev in &devices {
            let plan = lower(&arch, dev, 1, RouteOverrides::default());
            for (i, a) in plan.values.iter().enumerate() {
                assert!(
                    plan.slots[a.slot] >= a.bytes,
                    "seed {seed}: slot {} ({} B) smaller than value {i} ({} B)",
                    a.slot,
                    plan.slots[a.slot],
                    a.bytes
                );
                for (j, b) in plan.values.iter().enumerate().skip(i + 1) {
                    if overlap(a, b) {
                        assert_ne!(
                            a.slot, b.slot,
                            "seed {seed}: values {i} and {j} are simultaneously live in slot {}",
                            a.slot
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_step_binds_distinct_slots() {
    for seed in 0..60u64 {
        let arch = random_arch(seed);
        let plan = lower(
            &arch,
            &DeviceProfile::adreno_640(),
            1,
            RouteOverrides::default(),
        );
        for step in &plan.steps {
            let mut slots: Vec<usize> = [
                Some(step.input),
                Some(step.output),
                step.convert,
                step.scratch,
            ]
            .into_iter()
            .flatten()
            .map(|v| plan.values[v].slot)
            .collect();
            let n = slots.len();
            slots.sort_unstable();
            slots.dedup();
            assert_eq!(
                slots.len(),
                n,
                "seed {seed}: step {} reuses a slot across its bindings",
                step.name
            );
        }
    }
}

#[test]
fn arena_beats_sum_of_values_on_deep_chains() {
    for seed in 0..60u64 {
        let arch = random_arch(seed);
        if arch.layers.len() < 4 {
            continue;
        }
        let plan = lower(
            &arch,
            &DeviceProfile::adreno_640(),
            1,
            RouteOverrides::default(),
        );
        let total: usize = plan.values.iter().map(|v| v.bytes).sum();
        assert!(
            plan.arena_bytes() < total,
            "seed {seed}: arena {} B did not reuse across {} values totalling {} B",
            plan.arena_bytes(),
            plan.values.len(),
            total
        );
    }
}

#[test]
fn lowering_is_deterministic_across_repeats() {
    for seed in [0u64, 7, 21, 42] {
        let arch = random_arch(seed);
        let a = lower(
            &arch,
            &DeviceProfile::adreno_640(),
            1,
            RouteOverrides::default(),
        );
        let b = lower(
            &arch,
            &DeviceProfile::adreno_640(),
            1,
            RouteOverrides::default(),
        );
        assert_eq!(a, b, "seed {seed}: lowering must be pure");
    }
}

#[test]
fn plan_snapshot_is_pinned() {
    // A fixed small network's plan is part of the crate's contract: the
    // slot count, slot sizes and value bindings below were reviewed by
    // hand. A change here is a deliberate planner change, not noise.
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
    let plan = lower(&arch, &Phone::xiaomi_9().gpu, 1, RouteOverrides::default());

    // input, planes scratch, conv1 out, pool1 out, conv2 out, fc convert,
    // fc out, softmax out.
    assert_eq!(plan.values.len(), 8);
    assert_eq!(plan.steps.len(), 5);
    // 8 bit-planes of the 8x8x3 input: pack-width-aware sizing packs the
    // 3-channel rows into uchar words — 8 * 64 px * 1 B (was 8 B before
    // PackWidth::select drove slot sizing).
    let planes = &plan.values[plan.steps[0].scratch.unwrap()];
    assert_eq!(planes.kind, ValueKind::Planes8);
    assert_eq!(planes.bytes, 8 * 64);
    // conv1 output: 64 px, 16 channels -> one ushort word per pixel.
    let conv1 = &plan.values[plan.steps[0].output];
    assert_eq!((conv1.born, conv1.dies), (0, 1));
    assert_eq!(conv1.bytes, 64 * 2);
    // Three slots suffice for the whole chain (input+planes+out live at
    // step 0; everything later ping-pongs through the freed slots).
    assert_eq!(plan.slots.len(), 3, "slots: {:?}", plan.slots);
    assert_eq!(plan.arena_bytes(), plan.slots.iter().sum::<usize>());
    // The network input is the first value and lives only through step 0.
    let input = &plan.values[plan.input_value];
    assert_eq!(input.role, ValueRole::NetworkInput);
    assert_eq!((input.born, input.dies), (0, 0));
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3))
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The override rows of the digest grid, in column order.
fn digest_overrides() -> [(&'static str, RouteOverrides); 8] {
    let base = RouteOverrides::default();
    [
        ("default", base),
        (
            "force_unfused",
            RouteOverrides {
                force_unfused: true,
                ..base
            },
        ),
        (
            "lowered_gemm",
            RouteOverrides {
                lowered_gemm: true,
                ..base
            },
        ),
        (
            "fusion auto",
            RouteOverrides {
                fusion: FusionMode::Auto,
                ..base
            },
        ),
        (
            "fusion force",
            RouteOverrides {
                fusion: FusionMode::Force,
                ..base
            },
        ),
        (
            "compression auto",
            RouteOverrides {
                compression: CompressionMode::Auto,
                ..base
            },
        ),
        // `Some(0)` stands for "this plan's paged floor", filled in below.
        (
            "paged floor",
            RouteOverrides {
                weight_budget: Some(0),
                ..base
            },
        ),
        (
            "compression auto + force_unfused",
            RouteOverrides {
                compression: CompressionMode::Auto,
                force_unfused: true,
                ..base
            },
        ),
    ]
}

/// One digest per override row: FNV-1a 64 of `format!("{plan:?}")` folded
/// over `Phone::all()` × batch {1, 4}, lowered by `lower(device, batch,
/// overrides)`.
fn digest_rows(lower: impl Fn(&DeviceProfile, usize, RouteOverrides) -> ExecutionPlan) -> [u64; 8] {
    digest_overrides().map(|(_, row)| {
        let mut h = FNV_OFFSET;
        for phone in Phone::all() {
            for batch in [1usize, 4] {
                let mut overrides = row;
                if overrides.weight_budget.is_some() {
                    let resident = lower(&phone.gpu, batch, RouteOverrides::default());
                    overrides.weight_budget = Some(resident.paged_floor_bytes());
                }
                let plan = lower(&phone.gpu, batch, overrides);
                h = fnv1a(h, format!("{plan:?}").as_bytes());
            }
        }
        h
    })
}

fn arch_digests(arch: &NetworkArch) -> [u64; 8] {
    digest_rows(|dev, batch, ov| lower(arch, dev, batch, ov))
}

/// Model rows lower plain seed-9 weights, the compression rows the
/// clustered seed-9 weights whose banks actually dedupe.
fn model_digests(arch: &NetworkArch) -> [u64; 8] {
    let plain: PbitModel = convert(&fill_weights(arch, 9));
    let clustered: PbitModel = convert(&fill_weights_clustered(arch, 9, 4));
    digest_rows(|dev, batch, ov| {
        let model = match ov.compression {
            CompressionMode::Auto => &clustered,
            CompressionMode::Off => &plain,
        };
        ExecutionPlan::for_model(model, dev, batch, &ov).expect("lowers")
    })
}

/// The whole lowering, pinned: every byte of the `Debug` form of the plan —
/// steps, value ids, live intervals, slots, routes with their scores, chain
/// and compression ledgers, paging schedules — over the full-scale zoo, the
/// micro-zoo models, the dispatch-extras chain and ten random chains, on
/// both phones, at batch 1 and 4, under every override row. Computed at the
/// commit before the lowering was rewritten as one table; a digest that
/// moves is a changed plan, not a baseline to regenerate.
#[test]
fn lowering_digest_grid_is_pinned() {
    let mut got: Vec<(String, [u64; 8])> = Vec::new();
    for arch in zoo::all(Variant::Binary) {
        got.push((format!("arch {}", arch.name), arch_digests(&arch)));
    }
    for arch in [
        zoo::alexnet_micro(Variant::Binary),
        zoo::yolo_micro(Variant::Binary),
        dispatch_extras_arch(),
    ] {
        got.push((format!("model {}", arch.name), model_digests(&arch)));
    }
    got.push((
        "arch dispatch-extras".into(),
        arch_digests(&dispatch_extras_arch()),
    ));
    for seed in 0..10u64 {
        got.push((format!("arch gen{seed}"), arch_digests(&random_arch(seed))));
    }

    #[rustfmt::skip]
    let pinned: [(&str, [u64; 8]); 17] = [
        ("arch AlexNet", [0xe24be41694ebe30d, 0x06521e20e22ba571, 0x24d96fbcfc7ea0b7, 0xff812690d2e569e9, 0xff812690d2e569e9, 0xe24be41694ebe30d, 0x4a7d6f40b29cf8dc, 0x06521e20e22ba571]),
        ("arch YOLOv2-Tiny", [0x622dde875883c8ae, 0x91e4deb85e613da6, 0xa1a9a1e02f1d6c6a, 0xf730548edf6abe62, 0xf730548edf6abe62, 0x622dde875883c8ae, 0xb2206bc68eec9a0a, 0x91e4deb85e613da6]),
        ("arch VGG16", [0x964b623268fa2afe, 0xcd94e6c487f227e2, 0x7428b13fc1751932, 0xcca01a7d76c4d007, 0xcca01a7d76c4d007, 0x964b623268fa2afe, 0x0214615299d82236, 0xcd94e6c487f227e2]),
        ("model AlexNet-micro", [0x5a55933c9e35f47b, 0xbc126c35c6728665, 0x977a064b471b5919, 0x35bbd78f0f4e6710, 0x35bbd78f0f4e6710, 0xf8bc456127f0d12e, 0x4247408a915ebf7e, 0x442c9d1b4cc8e562]),
        ("model YOLO-micro", [0x48d488e1202c3d6c, 0x9b1f9d99c5ac59c0, 0xedd8fc0554608404, 0x194b123469fc95a6, 0x194b123469fc95a6, 0xdc7a552d915afa00, 0xc8cd27a69d40d1d6, 0x3e9c4c6b27ec3872]),
        ("model dispatch-extras", [0x4520a7bfc23ae7ff, 0x754e94134a813007, 0x4520a7bfc23ae7ff, 0x788a7937342c8b60, 0x788a7937342c8b60, 0x16532437c8d83d71, 0x1f9a6c5cc2da1f4b, 0x795865cfea6b6459]),
        ("arch dispatch-extras", [0x0bb313e3c1f3ac7b, 0xb56aea69418e54f7, 0x0bb313e3c1f3ac7b, 0xb3775b1d54f76adc, 0xb3775b1d54f76adc, 0x0bb313e3c1f3ac7b, 0xd00d174e536a5b59, 0xb56aea69418e54f7]),
        ("arch gen0", [0xa885dab6b095f4be, 0xdb892253fbd96cb0, 0x6969fdda0a293c32, 0x36714384f10500b2, 0x36714384f10500b2, 0xa885dab6b095f4be, 0x0ca8ee22c03cf590, 0xdb892253fbd96cb0]),
        ("arch gen1", [0x39b0e7f66b1dfeb3, 0x39b0e7f66b1dfeb3, 0x39b0e7f66b1dfeb3, 0x4736ed8962492ed4, 0x4736ed8962492ed4, 0x39b0e7f66b1dfeb3, 0x93ea24091074aa2a, 0x39b0e7f66b1dfeb3]),
        ("arch gen2", [0xa58458e5e85de09a, 0xdd2cf0364df275e0, 0x58d8fabfcd41ce4c, 0xe9e57e093be3bfa2, 0xe9e57e093be3bfa2, 0xa58458e5e85de09a, 0xdc27fcda69de651b, 0xdd2cf0364df275e0]),
        ("arch gen3", [0xee8798418b696d3e, 0x61d72ffb53cabc34, 0x429e47b941533028, 0xaa5981fa9300ec7e, 0xaa5981fa9300ec7e, 0xee8798418b696d3e, 0x8f67bc0be1c319ff, 0x61d72ffb53cabc34]),
        ("arch gen4", [0xd134e92ed14bf3ed, 0xf0934e5969aa7ce5, 0x8479e0a700d00869, 0xd134e92ed14bf3ed, 0xd134e92ed14bf3ed, 0xd134e92ed14bf3ed, 0xd04331b86406b6a7, 0xf0934e5969aa7ce5]),
        ("arch gen5", [0xee13702c422bc6b5, 0x7465500d5a778855, 0xb29abaf19cb0b4bd, 0xb7c7c11692220869, 0xb7c7c11692220869, 0xee13702c422bc6b5, 0xa74614b3df41e6de, 0x7465500d5a778855]),
        ("arch gen6", [0x3581bffb752dd93b, 0x470892e24008de93, 0x5008a019eed91ced, 0x0346cc788939acc7, 0x0346cc788939acc7, 0x3581bffb752dd93b, 0x6554adcae91947c9, 0x470892e24008de93]),
        ("arch gen7", [0x9f3305bee36b5139, 0x94f9c4431f564d4b, 0xfd26f6263c6b38c5, 0x6e4280ab7f339426, 0x6e4280ab7f339426, 0x9f3305bee36b5139, 0x32a8c23e7444e7dd, 0x94f9c4431f564d4b]),
        ("arch gen8", [0x7bd026431a4b42cb, 0xd11dbc74969543b3, 0xab9f8120c4c5fb4b, 0xb820bc1e8ab59f93, 0xb820bc1e8ab59f93, 0x7bd026431a4b42cb, 0x411c33fe3dd10dad, 0xd11dbc74969543b3]),
        ("arch gen9", [0xac7df3c5572236fd, 0x56901a3380b475d1, 0xe2cdf2c2507af21f, 0xb7f319118fd112b9, 0xb7f319118fd112b9, 0xac7df3c5572236fd, 0x3cd2cf5bb31d654f, 0x56901a3380b475d1]),
    ];
    assert_eq!(got.len(), pinned.len(), "subjects");
    for ((name, row), (pin_name, pin_row)) in got.iter().zip(pinned.iter()) {
        assert_eq!(name, pin_name);
        for (col, (g, p)) in row.iter().zip(pin_row.iter()).enumerate() {
            assert_eq!(
                g,
                p,
                "{name} / {}: plan changed (now {g:#018x})",
                digest_overrides()[col].0
            );
        }
    }
}
