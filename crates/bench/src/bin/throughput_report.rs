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
//! to require this run to equal a committed `BENCH_throughput.json` byte
//! for byte — the CI guard that keeps the batched path from rotting.
//! Everything is closed-form and deterministic, so no sampling flags are
//! needed.)

use phonebit_bench::baseline::{finish, Fields, Report, Value::Fixed};
use phonebit_core::{estimate_window, EstimateOptions, ExecutionPlan, RouteOverrides};
use phonebit_gpusim::calib::{CostParams, ExecutorClass};
use phonebit_gpusim::Phone;
use phonebit_models::zoo::{self, Variant};

const BATCHES: [usize; 5] = [1, 2, 4, 8, 16];

fn main() {
    let overhead_s = CostParams::for_executor(ExecutorClass::PhoneBitOpenCl).per_run_overhead_s;
    let phones: [(&str, Phone); 2] = [("x5", Phone::xiaomi_5()), ("x9", Phone::xiaomi_9())];
    let models = zoo::all(Variant::Binary);

    let mut rows: Vec<Fields> = Vec::new();
    let mut cold_ms = 0.0;
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
                let plan =
                    ExecutionPlan::for_arch(arch, &phone.gpu, batch, &RouteOverrides::default())
                        .expect("the zoo lowers");
                row.push_str(&format!(" {imgs_per_s:>7.1}"));
                by_batch.push((batch, imgs_per_s));
                if batch == 1 {
                    cold_ms = r.total_s * 1e3;
                }
                rows.push(vec![
                    ("model", arch.name.as_str().into()),
                    ("phone", (*phone_tag).into()),
                    ("batch", batch.into()),
                    ("window_ms", Fixed(r.total_s * 1e3, 3)),
                    ("steady_ms", Fixed(steady_s * 1e3, 3)),
                    ("imgs_per_s", Fixed(imgs_per_s, 1)),
                    ("arena_mb", Fixed(plan.staged_arena_bytes() as f64 / 1e6, 2)),
                    ("peak_mb", Fixed(plan.peak_bytes() as f64 / 1e6, 2)),
                ]);
            }
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

    let report = Report::exact(
        "throughput",
        "imgs_per_s",
        &["model", "phone", "batch"],
        rows,
    );
    finish(&report, &gate_failures);
}
