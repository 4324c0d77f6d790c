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
//! to diff against a committed `BENCH_fleet.json`: same coverage required,
//! and global p99 may regress at most `--max-regression` ×, default 1.25.
//! Everything is seeded and deterministic.)

use phonebit_bench::baseline::{diff_rows, json_escape, parse_rows, Better, Row};
use phonebit_core::{
    estimate_fleet, zipf_rates, ArrivalProcess, FleetDeviceSpec, FleetOptions, FleetReport,
    OpenLoopWorkload, RoutePolicy,
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

/// Identity + guarded metric of the rows this bin writes, for the shared
/// baseline differ.
const KEY_FIELDS: [&str; 3] = ["policy", "devices", "zipf"];
const METRIC: &str = "p99_ms";

struct Measurement {
    devices: usize,
    zipf: f64,
    report: FleetReport,
}

impl Measurement {
    fn row(&self) -> Row {
        Row {
            key: vec![
                self.report.policy.name().to_string(),
                self.devices.to_string(),
                format!("{:.1}", self.zipf),
            ],
            value: self.report.p99_ms,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_fleet.json")
        .to_string();
    let baseline_path = args
        .iter()
        .position(|a| a == "--check-baseline")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let max_regression: f64 = args
        .iter()
        .position(|a| a == "--max-regression")
        .and_then(|i| args.get(i + 1))
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("error: --max-regression expects a number, got `{s}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(1.25);

    let archs = [
        zoo::alexnet(Variant::Binary),
        zoo::yolov2_tiny(Variant::Binary),
        zoo::alexnet_micro(Variant::Binary),
        zoo::yolo_micro(Variant::Binary),
    ];

    let mut results: Vec<Measurement> = Vec::new();
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
                results.push(Measurement {
                    devices,
                    zipf,
                    report,
                });
            }

            // Router-beats-random: p2c's informed choice between the same
            // replica candidates must land a strictly better global tail
            // than blind draws, on every row of the sweep.
            let p99_of = |policy: RoutePolicy| {
                results
                    .iter()
                    .find(|m| m.devices == devices && m.zipf == zipf && m.report.policy == policy)
                    .map(|m| m.report.p99_ms)
                    .expect("policy swept above")
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

    let mut json =
        String::from("{\n  \"bench\": \"fleet\",\n  \"unit\": \"p99_ms\",\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let r = &m.report;
        let tenants = r
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{{\"tenant\": \"{}\", \"offered\": {}, \"served\": {}, \"shed\": {}, \
                     \"migrated\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
                     \"p99_ms\": {:.3}, \"p999_ms\": {:.3}}}",
                    json_escape(&t.name),
                    t.offered,
                    t.served,
                    t.shed,
                    t.migrated,
                    t.p50_ms,
                    t.p95_ms,
                    t.p99_ms,
                    t.p999_ms,
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"devices\": {}, \"zipf\": {:.1}, \"streams\": {}, \
             \"replicas\": {}, \"offered\": {}, \"served\": {}, \"shed\": {}, \
             \"migrated\": {}, \"wall_ms\": {:.3}, \"goodput_imgs_per_s\": {:.1}, \
             \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \"p999_ms\": {:.3}, \
             \"tenants\": [{}]}}{}\n",
            r.policy.name(),
            m.devices,
            m.zipf,
            STREAMS,
            REPLICAS,
            r.offered,
            r.served,
            r.shed,
            r.migrated,
            r.wall_ms,
            r.goodput_imgs_per_s,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.p999_ms,
            tenants,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("\nwrote {out_path}");

    if !gate_failures.is_empty() {
        for f in &gate_failures {
            eprintln!("fleet gate: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "fleet gate: every row conserves its requests, and p2c routing beats random on \
         global p99 at every fleet size and skew"
    );

    if let Some(path) = baseline_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: cannot read baseline {path}: {e}");
            std::process::exit(1);
        });
        let baseline = parse_rows(&text, &KEY_FIELDS, METRIC);
        if baseline.is_empty() {
            eprintln!("error: baseline {path} holds no parsable rows");
            std::process::exit(1);
        }
        let current: Vec<Row> = results.iter().map(Measurement::row).collect();
        let failures = diff_rows(
            &baseline,
            &current,
            max_regression,
            Better::Lower,
            "BENCH_fleet.json",
            "ms",
            |_| true,
        );
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("baseline diff: {f}");
            }
            std::process::exit(1);
        }
        println!(
            "baseline diff vs {path}: {} rows matched, no regression beyond {max_regression:.2}x",
            baseline.len()
        );
    }
}
