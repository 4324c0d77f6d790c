//! Open-loop fault-tolerance report: the robustness follow-up to
//! `multitenant_report`.
//!
//! For the acceptance pair (AlexNet + YOLOv2-Tiny) on each phone, models
//! an open-loop serving pass with `phonebit_core::estimate_serve_open_loop`
//! across a sweep of offered-load multiples of the pair's modeled capacity:
//! seeded Poisson/burst arrivals, deadlines anchored to arrival, bounded
//! retry with backoff, deadline shedding — once fault-free and once under
//! an injected `FaultPlan` whose failure burst is localized to the second
//! fifth of the horizon (plus a mild thermal-throttle epoch after it).
//!
//! Gates:
//! - **no starvation**: every tenant serves at least one request on every
//!   row, clean or faulted, however far past the knee;
//! - **graceful degradation**: within each phone × fault mode, aggregate
//!   shed rate is monotone in offered load (no cliff, no recovery-by-
//!   accident), and goodput past the knee stays within a bounded fraction
//!   of its peak;
//! - **post-burst recovery**: at every load, requests arriving in the last
//!   quarter of the horizon — long after the fault burst ended — shed at
//!   most marginally more under the fault plan than in the clean run.
//!
//! Run: `cargo run --release -p phonebit-bench --bin openloop_report`
//! (`-- --out <path>` to redirect the JSON; `-- --check-baseline <path>`
//! to require this run to equal a committed `BENCH_openloop.json` byte for
//! byte. Everything is seeded and deterministic.)

use phonebit_bench::baseline::{finish, Fields, Report, Value, Value::Fixed};
use phonebit_core::{
    estimate_serve_open_loop, ArrivalProcess, DeviceRuntime, OpenLoopReport, OpenLoopWorkload,
    RetryPolicy, TenantWorkload,
};
use phonebit_gpusim::{FaultBurst, FaultPlan, Phone, ThrottleEpoch};
use phonebit_models::zoo::{self, Variant};

const STREAMS: usize = 2;
/// Fixed per-tenant window size. Single-request windows are ready the
/// moment they arrive, so no deadline budget is burned waiting on batch
/// fill — which keeps shed rate monotone in offered load instead of
/// U-shaped (a multi-request window at light load waits on the
/// exponential tail of its own members' inter-arrival gaps).
const BATCH: usize = 1;
/// SLO slack over the solo steady window at [`BATCH`]: room for
/// co-residency contention, queueing, and one retry before shedding.
const SLO_SLACK: f64 = 6.0;
/// Offered load per tenant, as multiples of its modeled fair share of the
/// pooled streams. Straddles the knee.
const LOADS: [f64; 5] = [0.25, 0.5, 1.0, 2.0, 4.0];
/// Horizon, in multiples of the slower tenant's solo steady window.
const HORIZON_WINDOWS: f64 = 250.0;
/// Consecutive loads may not lower aggregate shed rate by more than this.
const SHED_MONOTONE_EPS: f64 = 0.02;
/// Goodput at the heaviest load must stay within this fraction of peak.
const GRACEFUL_FLOOR: f64 = 0.6;
/// Faulted last-quarter shed rate may exceed clean by at most this.
const RECOVERY_EPS: f64 = 0.10;

/// What the gates read back off one row of the sweep.
struct Measurement {
    fault: &'static str,
    load: f64,
    goodput_imgs_per_s: f64,
    /// Aggregate `shed / offered` across tenants.
    shed_rate: f64,
    /// Shed fraction of requests arriving in the last quarter of the
    /// horizon, for the post-burst recovery gate.
    lastq_shed_rate: f64,
}

/// Shed fraction among requests that arrived at or after `cut_ms`, given
/// the arrivals the estimate drew.
fn last_quarter_shed_rate(est: &OpenLoopReport, arrivals_ms: &[Vec<f64>], cut_ms: f64) -> f64 {
    let mut offered = 0usize;
    let mut shed = 0usize;
    for (t, tenant) in est.tenants.iter().enumerate() {
        let batch = tenant.batch.max(1);
        let arrivals = &arrivals_ms[t];
        for (i, fate) in est.schedule.fates[t].iter().enumerate() {
            let start = i * batch;
            let len = batch.min(arrivals.len() - start);
            let late = arrivals[start..start + len]
                .iter()
                .filter(|&&a| a >= cut_ms)
                .count();
            offered += late;
            if !fate.is_served() {
                shed += late;
            }
        }
    }
    if offered > 0 {
        shed as f64 / offered as f64
    } else {
        0.0
    }
}

fn main() {
    let phones: [(&str, Phone); 2] = [("x5", Phone::xiaomi_5()), ("x9", Phone::xiaomi_9())];
    let models = zoo::all(Variant::Binary);
    let (a, b) = (0usize, 1usize); // AlexNet + YOLOv2-Tiny, the acceptance pair
    let policy = RetryPolicy::default();

    let mut rows: Vec<Fields> = Vec::new();
    let mut gate_failures: Vec<String> = Vec::new();
    for (phone_tag, phone) in &phones {
        let mut results: Vec<Measurement> = Vec::new();
        let pair_name = format!("{}+{}", models[a].name, models[b].name);
        // Solo steady windows at the fixed batch anchor the SLOs, the
        // offered-load scale, and the horizon.
        let steady = |arch| {
            let solo = TenantWorkload {
                arch,
                batch: Some(BATCH),
                slo_ms: None,
            };
            let runtime = DeviceRuntime::dry(&[solo], phone, STREAMS, None)
                .expect("either model fits either phone at the report batch");
            runtime.tenants()[0].modeled_window_ms().1
        };
        let steady_ms = [steady(&models[a]), steady(&models[b])];
        let duration_ms = HORIZON_WINDOWS * steady_ms[0].max(steady_ms[1]);
        // A tenant's fair share of the pooled streams: the whole device
        // sustains `streams × batch / steady` imgs/s of this model alone;
        // half of that is its share next to one neighbor.
        let share_per_s = |t: usize| (STREAMS * BATCH) as f64 * 1e3 / steady_ms[t] / 2.0;
        let fault_plan = FaultPlan::new(7)
            .with_failure_rate(0.02)
            .with_burst(FaultBurst {
                start_ms: 0.2 * duration_ms,
                end_ms: 0.4 * duration_ms,
                rate: 0.45,
            })
            .with_throttle(ThrottleEpoch {
                start_ms: 0.45 * duration_ms,
                end_ms: 0.55 * duration_ms,
                slowdown: 1.3,
            });

        println!(
            "\n{} ({}) — open-loop {} on {} streams, horizon {:.0} ms, slo {:.1}/{:.1} ms",
            phone.name,
            phone.soc,
            pair_name,
            STREAMS,
            duration_ms,
            SLO_SLACK * steady_ms[0],
            SLO_SLACK * steady_ms[1],
        );
        println!(
            "{:>6} {:>6} | {:>8} {:>9} {:>6} {:>6} {:>6} | {:>8} {:>8} | {:>6}",
            "load",
            "fault",
            "offered",
            "goodput",
            "shed",
            "retry",
            "thrtl",
            "p99",
            "p99.9",
            "lastq"
        );
        for &load in &LOADS {
            for (fault_tag, fault) in [("none", None), ("burst", Some(&fault_plan))] {
                let workloads = [
                    OpenLoopWorkload {
                        arch: &models[a],
                        batch: Some(BATCH),
                        slo_ms: Some(SLO_SLACK * steady_ms[0]),
                        arrival: ArrivalProcess::Poisson {
                            rate_per_s: load * share_per_s(0),
                        },
                        seed: 11,
                    },
                    OpenLoopWorkload {
                        arch: &models[b],
                        batch: Some(BATCH),
                        slo_ms: Some(SLO_SLACK * steady_ms[1]),
                        arrival: ArrivalProcess::Burst {
                            base_per_s: 0.5 * load * share_per_s(1),
                            burst_per_s: 2.5 * load * share_per_s(1),
                            period_ms: duration_ms / 10.0,
                            burst_frac: 0.25,
                        },
                        seed: 12,
                    },
                ];
                let est = estimate_serve_open_loop(
                    phone,
                    &workloads,
                    STREAMS,
                    duration_ms,
                    fault,
                    &policy,
                );
                let arrivals_ms: Vec<Vec<f64>> = workloads
                    .iter()
                    .map(|w| w.arrival.times_ms(w.seed, duration_ms))
                    .collect();
                let lastq = last_quarter_shed_rate(&est, &arrivals_ms, 0.75 * duration_ms);
                let offered: usize = est.tenants.iter().map(|t| t.offered).sum();
                let served: usize = est.tenants.iter().map(|t| t.served).sum();
                let offered_per_s = offered as f64 / (duration_ms * 1e-3);
                let shed_rate = if offered > 0 {
                    (offered - served) as f64 / offered as f64
                } else {
                    0.0
                };
                let retries: usize = est.tenants.iter().map(|t| t.retries).sum();
                let throttled: usize = est.tenants.iter().map(|t| t.throttled).sum();
                let p99 = est.tenants.iter().map(|t| t.p99_ms).fold(0.0, f64::max);
                let p999 = est.tenants.iter().map(|t| t.p999_ms).fold(0.0, f64::max);
                println!(
                    "{:>5.2}x {:>6} | {:>8.1} {:>9.1} {:>5.1}% {:>6} {:>6} | {:>8.1} {:>8.1} | {:>5.1}%",
                    load,
                    fault_tag,
                    offered_per_s,
                    est.goodput_imgs_per_s,
                    100.0 * shed_rate,
                    retries,
                    throttled,
                    p99,
                    p999,
                    100.0 * lastq,
                );

                for t in &est.tenants {
                    if t.offered > 0 && t.served == 0 {
                        gate_failures.push(format!(
                            "{pair_name}/{phone_tag}/{fault_tag}/x{load}: tenant {} starved — \
                             {} offered, none served",
                            t.name, t.offered
                        ));
                    }
                }
                let tenant_rows = est.tenants.iter().map(|t| {
                    vec![
                        ("tenant", t.name.as_str().into()),
                        ("batch", t.batch.into()),
                        ("offered", t.offered.into()),
                        ("served", t.served.into()),
                        ("shed", t.shed.into()),
                        ("retries", t.retries.into()),
                        ("throttled", t.throttled.into()),
                        ("p50_ms", Fixed(t.p50_ms, 3)),
                        ("p95_ms", Fixed(t.p95_ms, 3)),
                        ("p99_ms", Fixed(t.p99_ms, 3)),
                        ("p999_ms", Fixed(t.p999_ms, 3)),
                        ("slo_ms", Fixed(t.slo_ms.unwrap_or(0.0), 3)),
                        ("slo_met", t.slo_met.into()),
                    ]
                });
                rows.push(vec![
                    ("pair", pair_name.as_str().into()),
                    ("phone", (*phone_tag).into()),
                    ("fault", fault_tag.into()),
                    ("load", Fixed(load, 2)),
                    ("streams", est.streams.into()),
                    ("duration_ms", Fixed(duration_ms, 3)),
                    ("offered_per_s", Fixed(offered_per_s, 1)),
                    ("goodput_imgs_per_s", Fixed(est.goodput_imgs_per_s, 1)),
                    ("shed_rate", Fixed(shed_rate, 4)),
                    ("lastq_shed_rate", Fixed(lastq, 4)),
                    ("tenants", Value::List(tenant_rows.collect())),
                ]);
                results.push(Measurement {
                    fault: fault_tag,
                    load,
                    goodput_imgs_per_s: est.goodput_imgs_per_s,
                    shed_rate,
                    lastq_shed_rate: lastq,
                });
            }

            // Post-burst recovery: by the last quarter of the horizon the
            // fault burst (second fifth) is long over; its backlog must
            // have been shed or absorbed, not left to poison later
            // arrivals.
            let [.., clean, faulted] = &results[..] else {
                unreachable!("both fault modes were just pushed")
            };
            let (clean, faulted) = (clean.lastq_shed_rate, faulted.lastq_shed_rate);
            if faulted > clean + RECOVERY_EPS {
                gate_failures.push(format!(
                    "{pair_name}/{phone_tag}/x{load}: no post-burst recovery — last-quarter \
                     shed rate {:.1}% under faults vs {:.1}% clean",
                    100.0 * faulted,
                    100.0 * clean
                ));
            }
        }

        // Graceful degradation, per fault mode: shed rate monotone in
        // offered load, and goodput past the knee held near its peak.
        for fault_tag in ["none", "burst"] {
            let curve: Vec<&Measurement> =
                results.iter().filter(|m| m.fault == fault_tag).collect();
            for pair in curve.windows(2) {
                if pair[1].shed_rate < pair[0].shed_rate - SHED_MONOTONE_EPS {
                    gate_failures.push(format!(
                        "{pair_name}/{phone_tag}/{fault_tag}: shed rate not monotone — \
                         {:.1}% at x{} but {:.1}% at x{}",
                        100.0 * pair[0].shed_rate,
                        pair[0].load,
                        100.0 * pair[1].shed_rate,
                        pair[1].load
                    ));
                }
            }
            let peak = curve
                .iter()
                .map(|m| m.goodput_imgs_per_s)
                .fold(0.0, f64::max);
            if let Some(last) = curve.last() {
                if last.goodput_imgs_per_s < GRACEFUL_FLOOR * peak {
                    gate_failures.push(format!(
                        "{pair_name}/{phone_tag}/{fault_tag}: goodput collapsed past the knee — \
                         {:.1} imgs/s at x{} vs {:.1} peak",
                        last.goodput_imgs_per_s, last.load, peak
                    ));
                }
            }
        }
    }

    let report = Report::exact(
        "openloop",
        "goodput_imgs_per_s",
        &["pair", "phone", "fault", "load"],
        rows,
    );
    finish(&report, &gate_failures);
}
