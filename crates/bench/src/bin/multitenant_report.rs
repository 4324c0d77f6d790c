//! Multi-tenant co-residency report: the device-sharing follow-up to
//! `serve_report`.
//!
//! For each zoo model **pair** × phone × stream count, models a co-resident
//! serving pass with `phonebit_core::estimate_serve_multitenant`: both
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
//! to diff against a committed `BENCH_multitenant.json`: same coverage
//! required, and aggregate imgs/sec may regress at most
//! `--max-regression` ×, default 1.25. Everything is closed-form and
//! deterministic.)

use phonebit_bench::baseline::{diff_rows, json_escape, parse_rows, Better, Row};
use phonebit_core::{estimate_serve_multitenant, MultiTenantEstimate, TenantWorkload};
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

/// Identity + guarded metric of the rows this bin writes, for the shared
/// baseline differ.
const KEY_FIELDS: [&str; 3] = ["pair", "phone", "streams"];
const METRIC: &str = "imgs_per_s";

struct Measurement {
    pair: String,
    phone: &'static str,
    streams: usize,
    est: MultiTenantEstimate,
}

impl Measurement {
    fn row(&self) -> Row {
        Row {
            key: vec![
                self.pair.clone(),
                self.phone.to_string(),
                self.streams.to_string(),
            ],
            value: self.est.imgs_per_s,
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
        .unwrap_or("BENCH_multitenant.json")
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

    let phones: [(&str, Phone); 2] = [("x5", Phone::xiaomi_5()), ("x9", Phone::xiaomi_9())];
    let models = zoo::all(Variant::Binary);
    let pairs: Vec<(usize, usize)> = vec![(0, 1), (0, 2), (1, 2)];

    let mut results: Vec<Measurement> = Vec::new();
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
                        windows: streams * 2,
                        slo_ms: None,
                    };
                    let est = estimate_serve_multitenant(phone, &[solo], streams, None);
                    SLO_SLACK * est.tenants[0].steady_ms
                };
                let workloads = [
                    TenantWorkload {
                        arch: &models[a],
                        batch: None,
                        windows: WINDOWS[0],
                        slo_ms: Some(slo(&models[a])),
                    },
                    TenantWorkload {
                        arch: &models[b],
                        batch: None,
                        windows: WINDOWS[1],
                        slo_ms: Some(slo(&models[b])),
                    },
                ];
                let est = estimate_serve_multitenant(phone, &workloads, streams, None);
                let gain = est.imgs_per_s / est.sequential_imgs_per_s;
                let tenants = est
                    .tenants
                    .iter()
                    .map(|t| {
                        format!(
                            "{} b{} @ {:.1} ({:.1})",
                            t.name,
                            t.admission.batch,
                            t.p95_ms,
                            t.admission.slo_ms.unwrap_or(0.0)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                println!(
                    "{:<28} {:>7} | {:>10.1} {:>10.1} {:>6.2}x | {}",
                    pair_name, streams, est.imgs_per_s, est.sequential_imgs_per_s, gain, tenants
                );

                if est.imgs_per_s <= est.sequential_imgs_per_s {
                    gate_failures.push(format!(
                        "{pair_name}/{phone_tag}/s{streams}: co-resident {:.1} imgs/s does not \
                         beat time-sliced {:.1} — work stealing stopped paying",
                        est.imgs_per_s, est.sequential_imgs_per_s
                    ));
                }
                for t in &est.tenants {
                    if !t.slo_met || !t.admission.slo_met {
                        gate_failures.push(format!(
                            "{pair_name}/{phone_tag}/s{streams}: tenant {} missed its SLO \
                             (admission modeled {:.1} ms, scheduled p95 {:.1} ms, slo {:.1} ms)",
                            t.name,
                            t.admission.modeled_window_ms,
                            t.p95_ms,
                            t.admission.slo_ms.unwrap_or(0.0)
                        ));
                    }
                }
                results.push(Measurement {
                    pair: pair_name.clone(),
                    phone: phone_tag,
                    streams,
                    est,
                });
            }
        }
    }

    let mut json = String::from(
        "{\n  \"bench\": \"multitenant\",\n  \"unit\": \"imgs_per_s\",\n  \"results\": [\n",
    );
    for (i, m) in results.iter().enumerate() {
        let tenants = m
            .est
            .tenants
            .iter()
            .map(|t| {
                format!(
                    "{{\"tenant\": \"{}\", \"batch\": {}, \"windows\": {}, \"p95_ms\": {:.3}, \
                     \"slo_ms\": {:.3}, \"slo_met\": {}}}",
                    json_escape(&t.name),
                    t.admission.batch,
                    t.windows,
                    t.p95_ms,
                    t.admission.slo_ms.unwrap_or(0.0),
                    t.slo_met
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        json.push_str(&format!(
            "    {{\"pair\": \"{}\", \"phone\": \"{}\", \"streams\": {}, \
             \"imgs_per_s\": {:.1}, \"sequential_imgs_per_s\": {:.1}, \"wall_ms\": {:.3}, \
             \"sequential_wall_ms\": {:.3}, \"pool_slice_mb\": {:.2}, \"peak_mb\": {:.2}, \
             \"tenants\": [{}]}}{}\n",
            json_escape(&m.pair),
            m.phone,
            m.streams,
            m.est.imgs_per_s,
            m.est.sequential_imgs_per_s,
            m.est.wall_ms,
            m.est.sequential_wall_ms,
            m.est.pool_slice_bytes as f64 / 1e6,
            m.est.peak_bytes as f64 / 1e6,
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
            eprintln!("multitenant gate: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "multitenant gate: co-residency beats time-sliced sequential serving on every \
         pair x phone x streams row, and every tenant's admission-chosen batch keeps its \
         scheduled p95 within its SLO"
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
            Better::Higher,
            "BENCH_multitenant.json",
            "imgs/s",
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
