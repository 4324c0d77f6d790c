//! Fusion report for the inter-layer fusion pass.
//!
//! For each zoo model × phone × batch {1, 4}, lowers the architecture
//! twice — split (the seed dispatch sequence) and fused (`FusionMode::Auto`,
//! the cost-model decision per chain) — and models one cold batched window
//! of each (`estimate_window`, the exact dispatch sequence the
//! engine issues). Prints dispatches/image and ns/image side by side,
//! verifies the fusion gates (fused dispatches never exceed split anywhere,
//! strictly fewer on every zoo model, and batch-1 AlexNet latency improves
//! on both phones), and writes `BENCH_fusion.json` so future PRs have a
//! fusion-performance trajectory to diff against.
//!
//! Run: `cargo run --release -p phonebit-bench --bin fusion_report`
//! (`-- --out <path>` to redirect the JSON; `-- --check-baseline <path>`
//! to diff this run against a committed `BENCH_fusion.json` — same
//! model/phone/batch coverage required, and fused ns/image may regress at
//! most `--max-regression` × (default 1.25) — the CI guard that keeps the
//! fusion pass from rotting. Everything is closed-form and deterministic,
//! so no sampling flags are needed.)

use phonebit_bench::baseline::{diff_rows, json_escape, parse_rows, Better, Row};
use phonebit_core::{estimate_window, EstimateOptions, ExecutionPlan, FusionMode, RouteOverrides};
use phonebit_gpusim::Phone;
use phonebit_models::zoo::{self, Variant};

const BATCHES: [usize; 2] = [1, 4];

/// Identity + guarded metric of the rows this bin writes, for the shared
/// baseline differ.
const KEY_FIELDS: [&str; 3] = ["model", "phone", "batch"];
const METRIC: &str = "fused_ns_per_img";

struct Measurement {
    model: String,
    phone: &'static str,
    batch: usize,
    split_disp_per_img: f64,
    fused_disp_per_img: f64,
    split_ns_per_img: f64,
    fused_ns_per_img: f64,
    chains_fused: usize,
    chains_total: usize,
}

impl Measurement {
    fn row(&self) -> Row {
        Row {
            key: vec![
                self.model.clone(),
                self.phone.to_string(),
                self.batch.to_string(),
            ],
            value: self.fused_ns_per_img,
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
        .unwrap_or("BENCH_fusion.json")
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

    let fused_routes = RouteOverrides {
        fusion: FusionMode::Auto,
        ..Default::default()
    };
    let fused_opts = EstimateOptions {
        overrides: fused_routes,
        ..Default::default()
    };
    let phones: [(&str, Phone); 2] = [("x5", Phone::xiaomi_5()), ("x9", Phone::xiaomi_9())];
    let models = zoo::all(Variant::Binary);

    let mut results: Vec<Measurement> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for (phone_tag, phone) in &phones {
        println!(
            "\n{} ({}) — split vs fused, modeled cold windows",
            phone.name, phone.soc
        );
        println!(
            "{:<14} {:>5}  {:>9} {:>9}  {:>12} {:>12}  {:>7} {:>6}",
            "model", "batch", "disp/img", "fused", "ns/img", "fused", "saved", "chains"
        );
        for arch in &models {
            for &batch in &BATCHES {
                let split_plan = ExecutionPlan::for_arch_batched(arch, &phone.gpu, batch);
                let fused_plan =
                    ExecutionPlan::for_arch_batched_with(arch, &phone.gpu, batch, fused_routes);
                let split_r = estimate_window(phone, arch, batch, &EstimateOptions::default());
                let fused_r = estimate_window(phone, arch, batch, &fused_opts);
                let m = Measurement {
                    model: arch.name.clone(),
                    phone: phone_tag,
                    batch,
                    split_disp_per_img: split_plan.dispatches() as f64 / batch as f64,
                    fused_disp_per_img: fused_plan.dispatches() as f64 / batch as f64,
                    split_ns_per_img: split_r.total_s * 1e9 / batch as f64,
                    fused_ns_per_img: fused_r.total_s * 1e9 / batch as f64,
                    chains_fused: fused_plan.chains.iter().filter(|c| c.fused).count(),
                    chains_total: fused_plan.chains.len(),
                };
                println!(
                    "{:<14} {:>5}  {:>9.2} {:>9.2}  {:>12.0} {:>12.0}  {:>6.1}% {:>3}/{}",
                    m.model,
                    m.batch,
                    m.split_disp_per_img,
                    m.fused_disp_per_img,
                    m.split_ns_per_img,
                    m.fused_ns_per_img,
                    100.0 * (1.0 - m.fused_ns_per_img / m.split_ns_per_img),
                    m.chains_fused,
                    m.chains_total,
                );

                // Gate 1: a fused plan never dispatches more than its
                // split twin, anywhere in the sweep.
                if fused_plan.dispatches() > split_plan.dispatches() {
                    gate_failures.push(format!(
                        "{}/{phone_tag}/b{batch}: fused dispatches {} exceed split {}",
                        m.model,
                        fused_plan.dispatches(),
                        split_plan.dispatches()
                    ));
                }
                // Gate 2: on every zoo model the pass must actually take
                // at least one chain — strictly fewer dispatches/image.
                if fused_plan.dispatches() >= split_plan.dispatches() {
                    gate_failures.push(format!(
                        "{}/{phone_tag}/b{batch}: fusion took no chain ({} dispatches)",
                        m.model,
                        fused_plan.dispatches()
                    ));
                }
                // Gate 3: the headline win — batch-1 AlexNet latency must
                // improve on both phones.
                if m.model == "AlexNet" && batch == 1 && m.fused_ns_per_img >= m.split_ns_per_img {
                    gate_failures.push(format!(
                        "AlexNet/{phone_tag}/b1: fused {:.0} ns/img does not beat split {:.0}",
                        m.fused_ns_per_img, m.split_ns_per_img
                    ));
                }
                results.push(m);
            }
        }
    }

    let mut json = String::from(
        "{\n  \"bench\": \"fusion\",\n  \"unit\": \"fused_ns_per_img\",\n  \"results\": [\n",
    );
    for (i, m) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"model\": \"{}\", \"phone\": \"{}\", \"batch\": {}, \
             \"split_disp_per_img\": {:.2}, \"fused_disp_per_img\": {:.2}, \
             \"split_ns_per_img\": {:.0}, \"fused_ns_per_img\": {:.0}, \
             \"chains_fused\": {}, \"chains_total\": {}}}{}\n",
            json_escape(&m.model),
            m.phone,
            m.batch,
            m.split_disp_per_img,
            m.fused_disp_per_img,
            m.split_ns_per_img,
            m.fused_ns_per_img,
            m.chains_fused,
            m.chains_total,
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
            eprintln!("fusion gate: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "fusion gate: fused <= split dispatches everywhere, strictly fewer on every zoo model, \
         batch-1 AlexNet latency improves on both phones"
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
            "BENCH_fusion.json",
            "ns/img",
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
