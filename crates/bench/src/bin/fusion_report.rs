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
//! to require this run to equal a committed `BENCH_fusion.json` byte for
//! byte — the CI guard that keeps the fusion pass from rotting. Everything
//! is closed-form and deterministic, so no sampling flags are needed.)

use phonebit_bench::baseline::{finish, Fields, Report, Value::Fixed};
use phonebit_core::{estimate_window, EstimateOptions, ExecutionPlan, FusionMode, RouteOverrides};
use phonebit_gpusim::Phone;
use phonebit_models::zoo::{self, Variant};

const BATCHES: [usize; 2] = [1, 4];

fn main() {
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

    let mut rows: Vec<Fields> = Vec::new();
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
                let lower = |routes: &RouteOverrides| {
                    ExecutionPlan::for_arch(arch, &phone.gpu, batch, routes)
                        .expect("the zoo lowers")
                };
                let split_plan = lower(&RouteOverrides::default());
                let fused_plan = lower(&fused_routes);
                let split_r = estimate_window(phone, arch, batch, &EstimateOptions::default());
                let fused_r = estimate_window(phone, arch, batch, &fused_opts);
                let per_img = |x: f64| x / batch as f64;
                let split_disp_per_img = per_img(split_plan.dispatches() as f64);
                let fused_disp_per_img = per_img(fused_plan.dispatches() as f64);
                let split_ns_per_img = per_img(split_r.total_s * 1e9);
                let fused_ns_per_img = per_img(fused_r.total_s * 1e9);
                let chains_fused = fused_plan.chains.iter().filter(|c| c.fused).count();
                println!(
                    "{:<14} {:>5}  {:>9.2} {:>9.2}  {:>12.0} {:>12.0}  {:>6.1}% {:>3}/{}",
                    arch.name,
                    batch,
                    split_disp_per_img,
                    fused_disp_per_img,
                    split_ns_per_img,
                    fused_ns_per_img,
                    100.0 * (1.0 - fused_ns_per_img / split_ns_per_img),
                    chains_fused,
                    fused_plan.chains.len(),
                );

                // Gate 1: a fused plan never dispatches more than its
                // split twin, anywhere in the sweep.
                if fused_plan.dispatches() > split_plan.dispatches() {
                    gate_failures.push(format!(
                        "{}/{phone_tag}/b{batch}: fused dispatches {} exceed split {}",
                        arch.name,
                        fused_plan.dispatches(),
                        split_plan.dispatches()
                    ));
                }
                // Gate 2: on every zoo model the pass must actually take
                // at least one chain — strictly fewer dispatches/image.
                if fused_plan.dispatches() >= split_plan.dispatches() {
                    gate_failures.push(format!(
                        "{}/{phone_tag}/b{batch}: fusion took no chain ({} dispatches)",
                        arch.name,
                        fused_plan.dispatches()
                    ));
                }
                // Gate 3: the headline win — batch-1 AlexNet latency must
                // improve on both phones.
                if arch.name == "AlexNet" && batch == 1 && fused_ns_per_img >= split_ns_per_img {
                    gate_failures.push(format!(
                        "AlexNet/{phone_tag}/b1: fused {fused_ns_per_img:.0} ns/img does not \
                         beat split {split_ns_per_img:.0}"
                    ));
                }
                rows.push(vec![
                    ("model", arch.name.as_str().into()),
                    ("phone", (*phone_tag).into()),
                    ("batch", batch.into()),
                    ("split_disp_per_img", Fixed(split_disp_per_img, 2)),
                    ("fused_disp_per_img", Fixed(fused_disp_per_img, 2)),
                    ("split_ns_per_img", Fixed(split_ns_per_img, 0)),
                    ("fused_ns_per_img", Fixed(fused_ns_per_img, 0)),
                    ("chains_fused", chains_fused.into()),
                    ("chains_total", fused_plan.chains.len().into()),
                ]);
            }
        }
    }

    let report = Report::exact(
        "fusion",
        "fused_ns_per_img",
        &["model", "phone", "batch"],
        rows,
    );
    finish(&report, &gate_failures);
}
