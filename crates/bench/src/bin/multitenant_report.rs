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
//! to diff against a committed `BENCH_multitenant.json`: same coverage
//! required, and aggregate imgs/sec may regress at most
//! `--max-regression` ×, default 1.25. Everything is closed-form and
//! deterministic.)

use phonebit_bench::baseline::{diff_rows, json_escape, parse_rows, Better, Row};
use phonebit_core::{DeviceRuntime, MultiServeReport, TenantTraffic, TenantWorkload};
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

/// A dry runtime over `workloads` and its closed-loop pass over
/// `windows[t]` full windows per tenant.
fn dry_pass(
    phone: &Phone,
    workloads: &[TenantWorkload<'_>],
    windows: &[usize],
    streams: usize,
) -> (DeviceRuntime, MultiServeReport) {
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

/// One co-resident pass as this report records it.
struct Measurement {
    pair: String,
    phone: &'static str,
    streams: usize,
    /// The dry runtime the pair was admitted on, and its pass.
    runtime: DeviceRuntime,
    pass: MultiServeReport,
    /// The time-sliced sequential baseline: each tenant alone on the same
    /// streams at its co-resident batch, makespans summed.
    sequential_wall_ms: f64,
}

impl Measurement {
    fn sequential_imgs_per_s(&self) -> f64 {
        self.pass.served as f64 / (self.sequential_wall_ms * 1e-3)
    }

    fn row(&self) -> Row {
        Row {
            key: vec![
                self.pair.clone(),
                self.phone.to_string(),
                self.streams.to_string(),
            ],
            value: self.pass.imgs_per_s,
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
                let sequential_wall_ms = workloads
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
                let m = Measurement {
                    pair: pair_name.clone(),
                    phone: phone_tag,
                    streams,
                    runtime,
                    pass,
                    sequential_wall_ms,
                };
                let (co_res, sliced) = (m.pass.imgs_per_s, m.sequential_imgs_per_s());
                let tenants = m
                    .pass
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
                for (t, r) in m.runtime.tenants().iter().zip(&m.pass.tenants) {
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
                results.push(m);
            }
        }
    }

    let mut json = String::from(
        "{\n  \"bench\": \"multitenant\",\n  \"unit\": \"imgs_per_s\",\n  \"results\": [\n",
    );
    for (i, m) in results.iter().enumerate() {
        let tenants = m
            .pass
            .tenants
            .iter()
            .map(|r| {
                format!(
                    "{{\"tenant\": \"{}\", \"batch\": {}, \"windows\": {}, \"p95_ms\": {:.3}, \
                     \"slo_ms\": {:.3}, \"slo_met\": {}}}",
                    json_escape(&r.name),
                    r.batch,
                    r.windows,
                    r.p95_ms,
                    r.slo_ms.unwrap_or(0.0),
                    r.slo_met
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
            m.pass.imgs_per_s,
            m.sequential_imgs_per_s(),
            m.pass.schedule.wall_ms,
            m.sequential_wall_ms,
            m.runtime.pool_slice_bytes() as f64 / 1e6,
            m.runtime.peak_resident_bytes() as f64 / 1e6,
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
