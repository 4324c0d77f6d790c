//! Sharded-serving report: the multi-queue follow-up to
//! `throughput_report`.
//!
//! For each zoo model × phone × stream count × batch size, models a
//! sharded serving run — a closed-loop pass of a dry one-tenant
//! `phonebit_core::DeviceRuntime`: every stream
//! dispatches the plan's exact kernel sequence on a queue attached to a
//! shared `DeviceClock`, so kernels serialize or overlap per the device's
//! compute-unit budget; host-side work (launch overhead, the per-run
//! framework overhead) stays per-stream and overlaps other streams' GPU
//! time. The report records aggregate imgs/sec plus the p50/p95/p99 window
//! latency over an 8-window-per-stream run (first window cold, the rest
//! steady) and writes `BENCH_serve.json` for CI to diff.
//!
//! Gates:
//! - **sharding must pay**: 2-stream aggregate throughput beats 1-stream
//!   on at least one zoo model per phone (at the same batch);
//! - **no free lunch**: per-stream window latency must not *shrink* when
//!   streams are added (the contention model cannot rot into letting every
//!   queue pretend it owns the GPU).
//!
//! Run: `cargo run --release -p phonebit-bench --bin serve_report`
//! (`-- --out <path>` to redirect the JSON; `-- --check-baseline <path>`
//! to diff against a committed `BENCH_serve.json`: same coverage required,
//! and aggregate imgs/sec may regress at most `--max-regression` ×,
//! default 1.25. Everything is closed-form and deterministic.)

use phonebit_bench::baseline::{diff_rows, json_escape, parse_rows, Better, Row};
use phonebit_core::{nearest_rank, DeviceRuntime, TenantTraffic, TenantWorkload};
use phonebit_gpusim::Phone;
use phonebit_models::zoo::{self, Variant};

const STREAMS: [usize; 3] = [1, 2, 4];
const BATCHES: [usize; 2] = [1, 4];
const WINDOWS_PER_STREAM: usize = 8;

/// Identity + guarded metric of the rows this bin writes, for the shared
/// baseline differ.
const KEY_FIELDS: [&str; 4] = ["model", "phone", "streams", "batch"];
const METRIC: &str = "imgs_per_s";

/// One sharded run as this report records it, read off the dry runtime
/// and the schedule its pass returns.
#[derive(Clone)]
struct Sharded {
    streams: usize,
    cold_window_ms: f64,
    steady_window_ms: f64,
    /// Aggregate steady throughput across all streams, images per second.
    imgs_per_s: f64,
    /// Service-time percentiles over the modeled windows, milliseconds.
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    /// Sharded activation footprint, bytes (`streams × banks × Σ slots`).
    arena_bytes: usize,
    /// Sharded peak footprint, bytes (weights + arena).
    peak_bytes: usize,
}

fn estimate_sharded(
    phone: &Phone,
    arch: &phonebit_nn::graph::NetworkArch,
    batch: usize,
    streams: usize,
) -> Sharded {
    let workload = TenantWorkload {
        arch,
        batch: Some(batch),
        slo_ms: None,
    };
    let mut runtime = DeviceRuntime::dry(&[workload], phone, streams, None)
        .expect("every zoo model fits both phones at the report batches");
    assert_eq!(
        runtime.tenants()[0].admission().batch,
        batch,
        "report batches must fit"
    );
    let pass = runtime
        .serve(&[TenantTraffic::Count(streams * WINDOWS_PER_STREAM * batch)])
        .expect("a dry pass over a count");
    let service_ms: Vec<f64> = pass
        .schedule
        .attempts
        .iter()
        .map(|at| at.end_ms - at.start_ms)
        .collect();
    let [p50_ms, p95_ms, p99_ms] = nearest_rank(&service_ms, [0.50, 0.95, 0.99]);
    let (cold_window_ms, steady_window_ms) = runtime.tenants()[0].modeled_window_ms();
    Sharded {
        streams,
        cold_window_ms,
        steady_window_ms,
        imgs_per_s: (streams * batch) as f64 / (steady_window_ms * 1e-3),
        p50_ms,
        p95_ms,
        p99_ms,
        arena_bytes: streams * runtime.pool_slice_bytes(),
        peak_bytes: runtime.peak_resident_bytes(),
    }
}

struct Measurement {
    model: String,
    phone: &'static str,
    streams: usize,
    batch: usize,
    est: Sharded,
}

impl Measurement {
    fn row(&self) -> Row {
        Row {
            key: vec![
                self.model.clone(),
                self.phone.to_string(),
                self.streams.to_string(),
                self.batch.to_string(),
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
        .unwrap_or("BENCH_serve.json")
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

    let mut results: Vec<Measurement> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for (phone_tag, phone) in &phones {
        println!(
            "\n{} ({}) — sharded serving: aggregate imgs/sec (p95 window ms)",
            phone.name, phone.soc
        );
        println!(
            "{:<14} {:>5} | {}",
            "model",
            "batch",
            STREAMS
                .map(|s| format!("{s} stream{:<8}", if s == 1 { " " } else { "s" }))
                .join(" ")
        );
        let mut sharding_wins = 0usize;
        for arch in &models {
            for &batch in &BATCHES {
                let mut row = format!("{:<14} {:>5} |", arch.name, batch);
                let mut by_streams = Vec::new();
                for &streams in &STREAMS {
                    let est = estimate_sharded(phone, arch, batch, streams);
                    row.push_str(&format!(" {:>7.1} ({:>6.2})", est.imgs_per_s, est.p95_ms));
                    by_streams.push(est.clone());
                    results.push(Measurement {
                        model: arch.name.clone(),
                        phone: phone_tag,
                        streams,
                        batch,
                        est,
                    });
                }
                println!("{row}");
                let ips = |s: usize| {
                    by_streams
                        .iter()
                        .find(|e| e.streams == s)
                        .expect("measured")
                        .imgs_per_s
                };
                if ips(2) > ips(1) {
                    sharding_wins += 1;
                }
                // Contention sanity: adding streams must not make a single
                // stream's window faster.
                for pair in by_streams.windows(2) {
                    if pair[1].steady_window_ms + 1e-9 < pair[0].steady_window_ms {
                        gate_failures.push(format!(
                            "{}/{phone_tag}/b{batch}: {} streams steady window {:.3} ms \
                             beats {} streams {:.3} ms — contention model rotted",
                            arch.name,
                            pair[1].streams,
                            pair[1].steady_window_ms,
                            pair[0].streams,
                            pair[0].steady_window_ms
                        ));
                    }
                }
            }
        }
        if sharding_wins == 0 {
            gate_failures.push(format!(
                "{phone_tag}: no zoo model gains aggregate throughput at 2 streams (need >= 1)"
            ));
        }
    }

    let mut json =
        String::from("{\n  \"bench\": \"serve\",\n  \"unit\": \"imgs_per_s\",\n  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"phone\": \"{}\", \"streams\": {}, \"batch\": {}, \
             \"cold_ms\": {:.3}, \"steady_ms\": {:.3}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \
             \"p99_ms\": {:.3}, \"imgs_per_s\": {:.1}, \"arena_mb\": {:.2}, \
             \"peak_mb\": {:.2}}}{}\n",
            json_escape(&m.model),
            m.phone,
            m.streams,
            m.batch,
            m.est.cold_window_ms,
            m.est.steady_window_ms,
            m.est.p50_ms,
            m.est.p95_ms,
            m.est.p99_ms,
            m.est.imgs_per_s,
            m.est.arena_bytes as f64 / 1e6,
            m.est.peak_bytes as f64 / 1e6,
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
            eprintln!("serve gate: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "serve gate: 2-stream throughput beats 1-stream on >= 1 zoo model per phone, \
         and per-stream windows never speed up under contention"
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
            "BENCH_serve.json",
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
