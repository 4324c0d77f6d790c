//! Multi-tenant co-residency report: the device-sharing follow-up to
//! `serve_report`.
//!
//! For each zoo model **pair** × phone × stream count, models a co-resident
//! serving pass — a closed-loop pass of a dry `phonebit_core::DeviceRuntime`: both
//! tenants' windows placed by the work-stealing scheduler on one pooled
//! device (heterogeneous-mix contention on the shared clock, per-tenant
//! SLOs, contention-aware admission picking each tenant's batch), next to
//! the **time-sliced sequential baseline** — each tenant served alone on
//! the same streams, makespans summed. Window counts are deliberately not
//! multiples of the stream count, so time-slicing strands stream-tail idle
//! time that work stealing reclaims.
//!
//! Gates:
//! - **co-residency must pay**: on every pair × phone × streams row,
//!   co-resident aggregate imgs/sec beats time-sliced sequential serving
//!   of the same pair;
//! - **SLOs hold**: every tenant's admission-chosen batch keeps its
//!   scheduled p95 within its SLO (the acceptance row is
//!   AlexNet+YOLOv2-Tiny on the SD855).
//!
//! Run: `cargo run --release -p phonebit-bench --bin multitenant_report`
//! (`-- --out <path>` to redirect the JSON; `-- --check-baseline <path>`
//! to require this run to equal a committed `BENCH_multitenant.json` byte
//! for byte. Everything is closed-form and deterministic.)

use phonebit_bench::baseline::{finish, Fields, Report, Value};
use phonebit_core::{DeviceRuntime, OpenLoopReport, TenantTraffic, TenantWorkload};
use phonebit_gpusim::Phone;
use phonebit_models::zoo::{self, Variant};

const STREAMS: [usize; 2] = [2, 3];
/// Per-tenant window counts: coprime with every probed stream count, so
/// sequential serving strands tail idle time on some stream.
const WINDOWS: [usize; 2] = [9, 7];
/// SLO slack over a solo batch-4 steady window: generous enough that a
/// well-scheduled tenant always meets it, tight enough that a starved one
/// would not.
const SLO_SLACK: f64 = 4.0;

/// A dry runtime over `workloads` and its closed-loop pass over
/// `windows[t]` full windows per tenant.
fn dry_pass(
    phone: &Phone,
    workloads: &[TenantWorkload<'_>],
    windows: &[usize],
    streams: usize,
) -> (DeviceRuntime, OpenLoopReport) {
    let mut runtime = DeviceRuntime::dry(workloads, phone, streams, None)
        .expect("every zoo pair fits both phones at batch 1");
    let counts: Vec<TenantTraffic<'_>> = runtime
        .tenants()
        .iter()
        .zip(windows)
        .map(|(t, &w)| TenantTraffic::Count(w * t.admission().batch))
        .collect();
    let pass = runtime.serve(&counts).expect("a dry pass over counts");
    (runtime, pass)
}

fn main() {
    let phones: [(&str, Phone); 2] = [("x5", Phone::xiaomi_5()), ("x9", Phone::xiaomi_9())];
    let models = zoo::all(Variant::Binary);
    let pairs: Vec<(usize, usize)> = vec![(0, 1), (0, 2), (1, 2)];

    let mut rows: Vec<Fields> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for (phone_tag, phone) in &phones {
        println!(
            "\n{} ({}) — co-resident pairs: aggregate imgs/sec vs time-sliced (per-tenant p95 ms)",
            phone.name, phone.soc
        );
        println!(
            "{:<28} {:>7} | {:>10} {:>10} {:>7} | per-tenant batch @ p95 (slo)",
            "pair", "streams", "co-res", "sliced", "gain"
        );
        for &(a, b) in &pairs {
            let pair_name = format!("{}+{}", models[a].name, models[b].name);
            for &streams in &STREAMS {
                // Per-tenant SLO: a slack multiple of the solo batch-4
                // steady window on this phone at this stream count.
                let slo = |arch: &phonebit_nn::graph::NetworkArch| {
                    let solo = TenantWorkload {
                        arch,
                        batch: Some(4),
                        slo_ms: None,
                    };
                    let runtime = DeviceRuntime::dry(&[solo], phone, streams, None)
                        .expect("every zoo model fits both phones at batch 4");
                    SLO_SLACK * runtime.tenants()[0].modeled_window_ms().1
                };
                let workloads = [&models[a], &models[b]].map(|arch| TenantWorkload {
                    arch,
                    batch: None,
                    slo_ms: Some(slo(arch)),
                });
                let (runtime, pass) = dry_pass(phone, &workloads, &WINDOWS, streams);
                let sequential_wall_ms: f64 = workloads
                    .iter()
                    .zip(runtime.tenants())
                    .zip(WINDOWS)
                    .map(|((w, t), windows)| {
                        let batch = Some(t.admission().batch);
                        let alone = [TenantWorkload { batch, ..*w }];
                        let (_, solo) = dry_pass(phone, &alone, &[windows], streams);
                        solo.schedule.wall_ms
                    })
                    .sum();
                // The time-sliced sequential baseline: each tenant alone on
                // the same streams at its co-resident batch, makespans summed.
                let served: usize = pass.tenants.iter().map(|t| t.served).sum();
                let sliced = served as f64 / (sequential_wall_ms * 1e-3);
                let co_res = pass.goodput_imgs_per_s;
                let tenants = pass
                    .tenants
                    .iter()
                    .map(|r| {
                        format!(
                            "{} b{} @ {:.1} ({:.1})",
                            r.name,
                            r.batch,
                            r.p95_ms,
                            r.slo_ms.unwrap_or(0.0)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                println!(
                    "{:<28} {:>7} | {:>10.1} {:>10.1} {:>6.2}x | {}",
                    pair_name,
                    streams,
                    co_res,
                    sliced,
                    co_res / sliced,
                    tenants
                );

                if co_res <= sliced {
                    gate_failures.push(format!(
                        "{pair_name}/{phone_tag}/s{streams}: co-resident {co_res:.1} imgs/s does \
                         not beat time-sliced {sliced:.1} — work stealing stopped paying"
                    ));
                }
                for (t, r) in runtime.tenants().iter().zip(&pass.tenants) {
                    if !r.slo_met || !t.admission().slo_met {
                        gate_failures.push(format!(
                            "{pair_name}/{phone_tag}/s{streams}: tenant {} missed its SLO \
                             (admission modeled {:.1} ms, scheduled p95 {:.1} ms, slo {:.1} ms)",
                            r.name,
                            t.admission().modeled_window_ms,
                            r.p95_ms,
                            r.slo_ms.unwrap_or(0.0)
                        ));
                    }
                }
                let tenant_rows = pass.tenants.iter().map(|r| {
                    vec![
                        ("tenant", r.name.as_str().into()),
                        ("batch", r.batch.into()),
                        ("windows", r.windows.into()),
                        ("p95_ms", Value::Fixed(r.p95_ms, 3)),
                        ("slo_ms", Value::Fixed(r.slo_ms.unwrap_or(0.0), 3)),
                        ("slo_met", r.slo_met.into()),
                    ]
                });
                rows.push(vec![
                    ("pair", pair_name.as_str().into()),
                    ("phone", (*phone_tag).into()),
                    ("streams", streams.into()),
                    ("imgs_per_s", Value::Fixed(co_res, 1)),
                    ("sequential_imgs_per_s", Value::Fixed(sliced, 1)),
                    ("wall_ms", Value::Fixed(pass.wall_ms, 3)),
                    ("sequential_wall_ms", Value::Fixed(sequential_wall_ms, 3)),
                    (
                        "pool_slice_mb",
                        Value::Fixed(runtime.pool_slice_bytes() as f64 / 1e6, 2),
                    ),
                    (
                        "peak_mb",
                        Value::Fixed(runtime.resident_bytes() as f64 / 1e6, 2),
                    ),
                    ("tenants", Value::List(tenant_rows.collect())),
                ]);
            }
        }
    }

    let report = Report::exact(
        "multitenant",
        "imgs_per_s",
        &["pair", "phone", "streams"],
        rows,
    );
    finish(&report, &gate_failures);
}
