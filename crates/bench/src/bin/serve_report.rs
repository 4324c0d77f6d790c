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
//! to require this run to equal a committed `BENCH_serve.json` byte for
//! byte. Everything is closed-form and deterministic.)

use phonebit_bench::baseline::{finish, Fields, Report, Value::Fixed};
use phonebit_core::{nearest_rank, DeviceRuntime, TenantTraffic, TenantWorkload};
use phonebit_gpusim::Phone;
use phonebit_models::zoo::{self, Variant};

const STREAMS: [usize; 3] = [1, 2, 4];
const BATCHES: [usize; 2] = [1, 4];
const WINDOWS_PER_STREAM: usize = 8;

/// One sharded run as this report records it, read off the dry runtime
/// and the schedule its pass returns.
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
        peak_bytes: runtime.resident_bytes(),
    }
}

fn main() {
    let phones: [(&str, Phone); 2] = [("x5", Phone::xiaomi_5()), ("x9", Phone::xiaomi_9())];
    let models = zoo::all(Variant::Binary);

    let mut rows: Vec<Fields> = Vec::new();
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
                    rows.push(vec![
                        ("model", arch.name.as_str().into()),
                        ("phone", (*phone_tag).into()),
                        ("streams", streams.into()),
                        ("batch", batch.into()),
                        ("cold_ms", Fixed(est.cold_window_ms, 3)),
                        ("steady_ms", Fixed(est.steady_window_ms, 3)),
                        ("p50_ms", Fixed(est.p50_ms, 3)),
                        ("p95_ms", Fixed(est.p95_ms, 3)),
                        ("p99_ms", Fixed(est.p99_ms, 3)),
                        ("imgs_per_s", Fixed(est.imgs_per_s, 1)),
                        ("arena_mb", Fixed(est.arena_bytes as f64 / 1e6, 2)),
                        ("peak_mb", Fixed(est.peak_bytes as f64 / 1e6, 2)),
                    ]);
                    by_streams.push(est);
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

    let report = Report::exact(
        "serve",
        "imgs_per_s",
        &["model", "phone", "streams", "batch"],
        rows,
    );
    finish(&report, &gate_failures);
}
