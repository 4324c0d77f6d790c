//! Fleet-scale routing report: the cluster follow-up to `openloop_report`.
//!
//! Models a fleet of alternating Snapdragon 855 / 820 devices serving four
//! co-resident tenants (AlexNet, YOLOv2-Tiny and their micro variants)
//! behind the global router, with `phonebit_core::estimate_fleet` — a dry
//! `Fleet` (architectures instead of models, request counts instead of
//! tensors) going through `Fleet::serve_open_loop` itself. The sweep
//! crosses fleet size × Zipf skew of the tenant arrival rates × every
//! routing policy, at a total offered rate that scales with the fleet so
//! queueing (and therefore routing quality) is visible in the tail.
//!
//! Gates:
//! - **conservation**: every row resolves all offered requests
//!   (`offered = served + shed`) and serves at least one;
//! - **router beats random**: on every fleet-size × skew row, power-of-two
//!   routing yields a strictly lower global p99 than random routing.
//!
//! Run: `cargo run --release -p phonebit-bench --bin fleet_report`
//! (`-- --out <path>` to redirect the JSON; `-- --check-baseline <path>`
//! to require this run to equal a committed `BENCH_fleet.json` byte for
//! byte. Everything is seeded and deterministic.)

use phonebit_bench::baseline::{finish, Fields, Report, Value, Value::Fixed};
use phonebit_core::{
    estimate_fleet, zipf_rates, ArrivalProcess, FleetDeviceSpec, FleetOptions, OpenLoopWorkload,
    RoutePolicy,
};
use phonebit_gpusim::Phone;
use phonebit_models::zoo::{self, Variant};

const STREAMS: usize = 2;
const REPLICAS: usize = 2;
/// Single-request windows: latency-oriented, and the batch the router
/// charges is the batch the device executes.
const BATCH: usize = 1;
/// Fleet sizes under sweep.
const FLEETS: [usize; 3] = [2, 4, 8];
/// Zipf skew of the tenant rate split: uniform and hot-tenant.
const SKEWS: [f64; 2] = [0.0, 1.2];
/// Total offered rate per device, requests/s. High enough that queues
/// form and routing quality shows in the tail, low enough that the
/// horizon drains.
const RATE_PER_DEVICE: f64 = 60.0;
/// Modeled horizon, milliseconds.
const DURATION_MS: f64 = 2_000.0;
const SEED: u64 = 42;

fn main() {
    let archs = [
        zoo::alexnet(Variant::Binary),
        zoo::yolov2_tiny(Variant::Binary),
        zoo::alexnet_micro(Variant::Binary),
        zoo::yolo_micro(Variant::Binary),
    ];

    let mut rows: Vec<Fields> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for &devices in &FLEETS {
        let specs: Vec<FleetDeviceSpec> = (0..devices)
            .map(|d| {
                FleetDeviceSpec::new(if d % 2 == 0 {
                    Phone::xiaomi_9()
                } else {
                    Phone::xiaomi_5()
                })
            })
            .collect();
        for &zipf in &SKEWS {
            let rates = zipf_rates(RATE_PER_DEVICE * devices as f64, archs.len(), zipf);
            let workloads: Vec<OpenLoopWorkload<'_>> = archs
                .iter()
                .zip(&rates)
                .enumerate()
                .map(|(t, (arch, &rate))| OpenLoopWorkload {
                    arch,
                    batch: Some(BATCH),
                    slo_ms: None,
                    arrival: ArrivalProcess::poisson(rate),
                    seed: SEED.wrapping_add(t as u64),
                })
                .collect();

            println!(
                "\nfleet of {devices} (x9/x5 alternating), zipf {zipf:.1}, \
                 {:.0} req/s total over {DURATION_MS:.0} ms",
                RATE_PER_DEVICE * devices as f64
            );
            println!(
                "{:>9} | {:>7} {:>6} {:>5} {:>5} | {:>9} {:>9} {:>9} | {:>9}",
                "policy",
                "offered",
                "served",
                "shed",
                "moved",
                "p50(ms)",
                "p95(ms)",
                "p99(ms)",
                "imgs/s"
            );
            let mut p99_ms: Vec<(RoutePolicy, f64)> = Vec::new();
            for policy in RoutePolicy::ALL {
                let opts = FleetOptions {
                    policy,
                    seed: SEED,
                    replicas: REPLICAS,
                    streams: STREAMS,
                    ..FleetOptions::default()
                };
                let report = estimate_fleet(&specs, &workloads, DURATION_MS, &[], &opts);
                println!(
                    "{:>9} | {:>7} {:>6} {:>5} {:>5} | {:>9.3} {:>9.3} {:>9.3} | {:>9.1}",
                    policy.name(),
                    report.offered,
                    report.served,
                    report.shed,
                    report.migrated,
                    report.p50_ms,
                    report.p95_ms,
                    report.p99_ms,
                    report.goodput_imgs_per_s,
                );

                if report.served + report.shed != report.offered {
                    gate_failures.push(format!(
                        "{}/{devices}/z{zipf:.1}: lost requests — {} offered but only \
                         {} served + {} shed",
                        policy.name(),
                        report.offered,
                        report.served,
                        report.shed
                    ));
                }
                if report.served == 0 {
                    gate_failures.push(format!(
                        "{}/{devices}/z{zipf:.1}: nothing served",
                        policy.name()
                    ));
                }
                p99_ms.push((policy, report.p99_ms));
                let tenant_rows = report.tenants.iter().map(|t| {
                    vec![
                        ("tenant", t.name.as_str().into()),
                        ("offered", t.offered.into()),
                        ("served", t.served.into()),
                        ("shed", t.shed.into()),
                        ("migrated", t.migrated.into()),
                        ("p50_ms", Fixed(t.p50_ms, 3)),
                        ("p95_ms", Fixed(t.p95_ms, 3)),
                        ("p99_ms", Fixed(t.p99_ms, 3)),
                        ("p999_ms", Fixed(t.p999_ms, 3)),
                    ]
                });
                rows.push(vec![
                    ("policy", policy.name().into()),
                    ("devices", devices.into()),
                    ("zipf", Fixed(zipf, 1)),
                    ("streams", STREAMS.into()),
                    ("replicas", REPLICAS.into()),
                    ("offered", report.offered.into()),
                    ("served", report.served.into()),
                    ("shed", report.shed.into()),
                    ("migrated", report.migrated.into()),
                    ("wall_ms", Fixed(report.wall_ms, 3)),
                    ("goodput_imgs_per_s", Fixed(report.goodput_imgs_per_s, 1)),
                    ("p50_ms", Fixed(report.p50_ms, 3)),
                    ("p95_ms", Fixed(report.p95_ms, 3)),
                    ("p99_ms", Fixed(report.p99_ms, 3)),
                    ("p999_ms", Fixed(report.p999_ms, 3)),
                    ("tenants", Value::List(tenant_rows.collect())),
                ]);
            }

            // Router-beats-random: p2c's informed choice between the same
            // replica candidates must land a strictly better global tail
            // than blind draws, on every row of the sweep.
            let p99_of = |policy: RoutePolicy| {
                let swept = p99_ms.iter().find(|(p, _)| *p == policy);
                swept.expect("policy swept above").1
            };
            let (p2c, random) = (p99_of(RoutePolicy::PowerOfTwo), p99_of(RoutePolicy::Random));
            if p2c >= random {
                gate_failures.push(format!(
                    "{devices} devices / zipf {zipf:.1}: p2c global p99 {p2c:.3} ms does not \
                     beat random's {random:.3} ms"
                ));
            }
        }
    }

    let report = Report::exact("fleet", "p99_ms", &["policy", "devices", "zipf"], rows);
    finish(&report, &gate_failures);
}
