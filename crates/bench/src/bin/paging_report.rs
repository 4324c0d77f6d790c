//! Weight-paging oversubscription report.
//!
//! For each zoo tenant set × phone × weight budget (1.0×, 0.5×, 0.33× of
//! the set's summed packed weights), runs a dry multi-tenant
//! `DeviceRuntime` pass twice — fully resident (no budget, the seed behavior) and
//! paged (binary residency grants, upload stalls folded into every
//! window) — and records the aggregate throughput ratio, the hot-set
//! peak, and each tenant's grant. Verifies the paging gates: a covering
//! budget reproduces the unbudgeted estimate exactly (paging off is
//! inert), a 2×-oversubscribed set still admits with aggregate
//! throughput ≥ 0.6 (`MIN_RATIO`) of fully resident, and no tenant is
//! starved (paged serves exactly what resident serves). Writes
//! `BENCH_paging.json` so future PRs have a paging trajectory to diff.
//!
//! Run: `cargo run --release -p phonebit-bench --bin paging_report`
//! (`-- --out <path>` to redirect the JSON; `-- --check-baseline <path>`
//! to require this run to equal a committed `BENCH_paging.json` byte for
//! byte — the estimates are model-only and deterministic.)

use phonebit_bench::baseline::{finish, Fields, Report, Value::Fixed};
use phonebit_core::{
    Admission, DeviceRuntime, ExecutionPlan, OpenLoopReport, RouteOverrides, TenantTraffic,
    TenantWorkload,
};
use phonebit_gpusim::Phone;
use phonebit_models::zoo::{self, Variant};
use phonebit_nn::graph::NetworkArch;

/// Oversubscribed (≤ 0.5× budget) aggregate throughput must stay at or
/// above this fraction of the fully resident pass's.
const MIN_RATIO: f64 = 0.6;
/// Pooled streams every estimate runs on.
const STREAMS: usize = 2;
/// Windows each tenant asks for.
const WINDOWS: usize = 4;

/// One dry pass under a weight budget: what admission decided, what the
/// device holds, and the closed-loop pass over [`WINDOWS`] full windows per
/// tenant.
#[derive(PartialEq)]
struct Estimate {
    admissions: Vec<Admission>,
    total_weight_bytes: usize,
    peak_bytes: usize,
    pass: OpenLoopReport,
}

fn estimate(
    phone: &Phone,
    workloads: &[TenantWorkload<'_>],
    weight_budget: Option<usize>,
) -> Estimate {
    let mut runtime = DeviceRuntime::dry(workloads, phone, STREAMS, weight_budget)
        .expect("every set fits at batch 1, and its budget covers its paged minima");
    let admissions: Vec<Admission> = runtime
        .tenants()
        .iter()
        .map(|t| t.admission().clone())
        .collect();
    let counts: Vec<TenantTraffic<'_>> = admissions
        .iter()
        .map(|a| TenantTraffic::Count(WINDOWS * a.batch))
        .collect();
    Estimate {
        total_weight_bytes: runtime.total_weight_bytes(),
        peak_bytes: runtime.resident_bytes(),
        pass: runtime.serve(&counts).expect("a dry pass over counts"),
        admissions,
    }
}

/// A tenant set's summed batch-1 resident weight bytes and summed paged
/// minima (largest bank per tenant) on one device — the feasibility
/// envelope of any budget: admission can degrade every tenant to its
/// minimum, but no further.
fn weights_and_minima(archs: &[&NetworkArch], phone: &Phone) -> (usize, usize) {
    let mut total = 0usize;
    let mut minima = 0usize;
    for arch in archs {
        let plan = ExecutionPlan::for_arch(arch, &phone.gpu, 1, &RouteOverrides::default())
            .expect("the zoo lowers");
        total += plan.weights_bytes;
        minima += plan.paged_min_bytes();
    }
    (total, minima)
}

fn main() {
    let alexnet = zoo::alexnet(Variant::Binary);
    let yolo = zoo::yolov2_tiny(Variant::Binary);
    let vgg = zoo::vgg16(Variant::Binary);
    let alexnet_micro = zoo::alexnet_micro(Variant::Binary);
    let yolo_micro = zoo::yolo_micro(Variant::Binary);
    let sets: Vec<(&'static str, Vec<&NetworkArch>)> = vec![
        ("micro-pair", vec![&alexnet_micro, &yolo_micro]),
        // Three co-resident detectors: conv-only nets whose largest bank
        // is < half their weights, so the set is genuinely servable at a
        // budget of half its summed weights — the 2× oversubscription
        // headline the CI gate holds.
        ("det-trio", vec![&yolo, &yolo, &yolo]),
        ("alexnet+yolo", vec![&alexnet, &yolo]),
        ("full-zoo", vec![&alexnet, &yolo, &vgg]),
    ];
    let budgets: [(&'static str, f64); 3] = [("1.00x", 1.0), ("0.50x", 0.5), ("0.33x", 0.33)];

    println!(
        "{:<14} {:<10} {:>7} {:>12} {:>12} {:>10} {:>10} {:>7} {:>11}",
        "tenants",
        "phone",
        "budget",
        "weights",
        "hot peak",
        "paged i/s",
        "resid i/s",
        "ratio",
        "grants"
    );
    let mut rows: Vec<Fields> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for (set_name, archs) in &sets {
        for phone in Phone::all() {
            let workloads: Vec<TenantWorkload<'_>> = archs
                .iter()
                .map(|arch| TenantWorkload {
                    arch,
                    batch: None,
                    slo_ms: None,
                })
                .collect();
            let resident = estimate(&phone, &workloads, None);
            let (total, minima) = weights_and_minima(archs, &phone);
            assert_eq!(
                total, resident.total_weight_bytes,
                "{set_name}/{}: per-arch weights must sum to the pooled plan's",
                phone.name
            );
            for &(label, factor) in &budgets {
                // Clamp to the feasibility envelope: a budget below the
                // summed paged minima cannot admit the set at all (shallow
                // or FC-headed nets have one bank near half their total),
                // so the effective budget — recorded in the JSON — is the
                // larger of the requested factor and that envelope.
                let requested = (total as f64 * factor).ceil() as usize;
                let budget = requested.max(minima);
                if *set_name == "det-trio" && factor == 0.5 && budget > requested {
                    // The 2× headline must be real: the detector trio's
                    // half-weights budget may not be silently clamped up
                    // to the feasibility envelope.
                    gate_failures.push(format!(
                        "det-trio/{}/{label}: half-weights budget {requested} clamped to \
                         {budget} — the set is no longer 2× oversubscribed",
                        phone.name
                    ));
                }
                let paged = estimate(&phone, &workloads, Some(budget));
                if factor >= 1.0 {
                    // Gate 1: a covering budget is byte-inert — the entire
                    // estimate (admissions, windows, percentiles, peaks)
                    // must reproduce the unbudgeted run exactly.
                    if paged != resident {
                        gate_failures.push(format!(
                            "{set_name}/{}/{label}: covering budget diverged from the \
                             unbudgeted estimate",
                            phone.name
                        ));
                    }
                }
                // Gate 3: paging never starves a tenant — every tenant
                // serves exactly what its fully resident twin serves.
                for (p, r) in paged.pass.tenants.iter().zip(resident.pass.tenants.iter()) {
                    if p.served != r.served {
                        gate_failures.push(format!(
                            "{set_name}/{}/{label}: tenant {} starved ({} served vs {})",
                            phone.name, p.name, p.served, r.served
                        ));
                    }
                    if !p.slo_met {
                        gate_failures.push(format!(
                            "{set_name}/{}/{label}: tenant {} missed its SLO under paging",
                            phone.name, p.name
                        ));
                    }
                }
                let (paged_ips, resident_ips) = (
                    paged.pass.goodput_imgs_per_s,
                    resident.pass.goodput_imgs_per_s,
                );
                let ratio = paged_ips / resident_ips;
                if factor <= 0.5 && ratio < MIN_RATIO {
                    // Gate 2: a 2×-oversubscribed (or tighter) set still
                    // clears the throughput floor.
                    gate_failures.push(format!(
                        "{set_name}/{}/{label}: paged throughput ratio {ratio:.3} is below \
                         the {MIN_RATIO:.2} gate",
                        phone.name
                    ));
                }
                let grants_paged = paged
                    .admissions
                    .iter()
                    .filter(|a| a.weight_grant_bytes.is_some())
                    .count();
                let grants_full = paged.admissions.len() - grants_paged;
                println!(
                    "{:<14} {:<10} {:>7} {:>12} {:>12} {:>10.1} {:>10.1} {:>7.3} {:>5}p/{}f",
                    set_name,
                    phone.name,
                    label,
                    total,
                    paged.peak_bytes,
                    paged_ips,
                    resident_ips,
                    ratio,
                    grants_paged,
                    grants_full
                );
                rows.push(vec![
                    ("tenants", (*set_name).into()),
                    ("phone", phone.name.into()),
                    ("budget", label.into()),
                    ("budget_bytes", budget.into()),
                    ("total_weight_bytes", total.into()),
                    ("peak_bytes", paged.peak_bytes.into()),
                    ("paged_imgs_per_s", Fixed(paged_ips, 1)),
                    ("resident_imgs_per_s", Fixed(resident_ips, 1)),
                    ("ratio", Fixed(ratio, 4)),
                    ("grants_paged", grants_paged.into()),
                    ("grants_full", grants_full.into()),
                ]);
            }
        }
    }

    let report = Report::exact(
        "paging",
        "throughput ratio",
        &["tenants", "phone", "budget"],
        rows,
    );
    finish(&report, &gate_failures);
}
