//! Throughput report for the batched serving engine.
//!
//! For each zoo model × phone × batch size, models one **cold** batched
//! window (`estimate_window` — the exact dispatch sequence a
//! `Session::new_batched` engine issues, per-run framework overhead
//! included) and the **steady-state** window of a primed stream (double
//! buffering stages the next window during the current one's GPU time, so
//! the framework overhead disappears). Prints the imgs/sec curve, verifies
//! that batching actually buys throughput (batch ≥ 4 must beat batch 1 on
//! at least two zoo models per phone), and writes `BENCH_throughput.json`
//! so future PRs have a serving-performance trajectory to diff against.
//!
//! Run: `cargo run --release -p phonebit-bench --bin throughput_report`
//! (`-- --out <path>` to redirect the JSON; `-- --check-baseline <path>`
//! to diff this run against a committed `BENCH_throughput.json` — same
//! model/phone/batch coverage required, and steady imgs/sec may regress at
//! most `--max-regression` × (default 1.25) — the CI guard that keeps the
//! batched path from rotting. Everything is closed-form and deterministic,
//! so no sampling flags are needed.)

use phonebit_bench::baseline::{diff_rows, json_escape, parse_rows, Better, Row};
use phonebit_core::{estimate_window, plan_on, EstimateOptions};
use phonebit_gpusim::calib::{CostParams, ExecutorClass};
use phonebit_gpusim::Phone;
use phonebit_models::zoo::{self, Variant};

const BATCHES: [usize; 5] = [1, 2, 4, 8, 16];

/// Identity + guarded metric of the rows this bin writes, for the shared
/// baseline differ.
const KEY_FIELDS: [&str; 3] = ["model", "phone", "batch"];
const METRIC: &str = "imgs_per_s";

struct Measurement {
    model: String,
    phone: &'static str,
    batch: usize,
    window_ms: f64,
    steady_ms: f64,
    imgs_per_s: f64,
    arena_mb: f64,
    peak_mb: f64,
}

impl Measurement {
    fn row(&self) -> Row {
        Row {
            key: vec![
                self.model.clone(),
                self.phone.to_string(),
                self.batch.to_string(),
            ],
            value: self.imgs_per_s,
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
        .unwrap_or("BENCH_throughput.json")
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

    let overhead_s = CostParams::for_executor(ExecutorClass::PhoneBitOpenCl).per_run_overhead_s;
    let phones: [(&str, Phone); 2] = [("x5", Phone::xiaomi_5()), ("x9", Phone::xiaomi_9())];
    let models = zoo::all(Variant::Binary);

    let mut results: Vec<Measurement> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for (phone_tag, phone) in &phones {
        println!(
            "\n{} ({}) — steady-state imgs/sec by batch (cold window ms in parens)",
            phone.name, phone.soc
        );
        println!(
            "{:<14} batch:  1        2        4        8       16",
            "model"
        );
        let mut winners = 0usize;
        for arch in &models {
            let mut row = format!("{:<14}", arch.name);
            let mut by_batch = Vec::new();
            for &batch in &BATCHES {
                let r = estimate_window(phone, arch, batch, &EstimateOptions::default());
                // Double buffering hides the per-run host overhead only in
                // batched streams: a batch-1 session stages a single bank
                // and never primes, so its steady window is the cold one.
                let hidden_s = if batch > 1 { overhead_s } else { 0.0 };
                let steady_s = r.total_s - hidden_s;
                let imgs_per_s = batch as f64 / steady_s;
                let mplan = plan_on(arch, &phone.gpu, batch, 1);
                row.push_str(&format!(" {imgs_per_s:>7.1}"));
                by_batch.push((batch, imgs_per_s));
                results.push(Measurement {
                    model: arch.name.clone(),
                    phone: phone_tag,
                    batch,
                    window_ms: r.total_s * 1e3,
                    steady_ms: steady_s * 1e3,
                    imgs_per_s,
                    arena_mb: mplan.peak_activation_bytes as f64 / 1e6,
                    peak_mb: mplan.peak_bytes as f64 / 1e6,
                });
            }
            let cold_ms = results[results.len() - BATCHES.len()].window_ms;
            println!("{row}   (batch-1 cold {cold_ms:.2} ms)");
            let ips = |b: usize| by_batch.iter().find(|(x, _)| *x == b).unwrap().1;
            if ips(4) > ips(1) {
                winners += 1;
            } else {
                println!(
                    "  note: {}/{phone_tag}: batch-4 {:.1} imgs/s does not beat batch-1 {:.1}",
                    arch.name,
                    ips(4),
                    ips(1)
                );
            }
        }
        // The acceptance gate: batching must buy throughput on at least
        // two zoo models per phone.
        if winners < 2 {
            gate_failures.push(format!(
                "{phone_tag}: only {winners} zoo model(s) gain throughput at batch 4 (need >= 2)"
            ));
        }
    }

    let mut json = String::from(
        "{\n  \"bench\": \"throughput\",\n  \"unit\": \"imgs_per_s\",\n  \"results\": [\n",
    );
    for (i, m) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"phone\": \"{}\", \"batch\": {}, \"window_ms\": {:.3}, \
             \"steady_ms\": {:.3}, \"imgs_per_s\": {:.1}, \"arena_mb\": {:.2}, \
             \"peak_mb\": {:.2}}}{}\n",
            json_escape(&m.model),
            m.phone,
            m.batch,
            m.window_ms,
            m.steady_ms,
            m.imgs_per_s,
            m.arena_mb,
            m.peak_mb,
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
            eprintln!("throughput gate: {f}");
        }
        std::process::exit(1);
    }
    println!("throughput gate: batch-4 beats batch-1 on >= 2 zoo models per phone");

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
            "BENCH_throughput.json",
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
