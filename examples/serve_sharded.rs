//! Sharded serving demo: one staged model, N concurrent streams, SLO
//! admission control.
//!
//! A one-tenant `DeviceRuntime` stages weights and GEMM banks **once** (the
//! paper's staging claim), then shards request windows across N streams — each
//! with its own command queue, concurrent when the host has threads — while a
//! shared `DeviceClock` makes the queues contend for the GPU per the device's
//! compute-unit budget. The admission controller picks the window size
//! from the sharded memory cap (`weights + N x banks x arena`) and a p95
//! latency SLO. This example runs the functional engine (real outputs),
//! prints the latency/throughput tradeoff by stream count, and
//! double-checks that sharded outputs are bit-identical to sequential
//! single-session runs.
//!
//! Run: `cargo run --release --example serve_sharded`

use phonebit::core::serve::{DeviceRuntime, TenantSpec, TenantTraffic};
use phonebit::core::{convert, nearest_rank, Session};
use phonebit::gpusim::Phone;
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let phone = Phone::xiaomi_9();
    let arch = zoo::yolo_micro(Variant::Binary);
    let model = convert(&fill_weights(&arch, 42));
    let requests: Vec<_> = (0..24)
        .map(|i| synthetic_image(arch.input, 200 + i as u64))
        .collect();

    println!(
        "sharded serving of `{}` on {} ({})\n",
        arch.name, phone.name, phone.gpu
    );

    // Reference: every request alone on one single-image session.
    let mut single = Session::new(model.clone(), &phone)?;
    let sequential: Vec<_> = requests
        .iter()
        .map(|img| single.run_u8(img).map(|r| r.output.unwrap()))
        .collect::<Result<_, _>>()?;

    println!(
        "{:>7} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "streams", "batch", "p50(ms)", "p95(ms)", "p99(ms)", "imgs/s"
    );
    for streams in [1usize, 2, 4] {
        let spec = TenantSpec::new(model.clone()).with_batch(4);
        let mut runtime = DeviceRuntime::new(vec![spec], &phone, streams)?;
        let pass = runtime.serve(&[TenantTraffic::U8(&requests)])?;
        // One tenant has no cross-tenant queueing: its window latencies are
        // the executed service times.
        let report = &pass.tenants[0];
        let [p50_ms, p95_ms, p99_ms] = nearest_rank(&pass.attempt_exec_ms, [0.50, 0.95, 0.99]);
        println!(
            "{streams:>7} {:>6} {p50_ms:>12.3} {p95_ms:>12.3} {p99_ms:>12.3} {:>10.1}",
            report.batch, pass.goodput_imgs_per_s
        );

        // Bit-exactness: sharded outputs equal the sequential reference,
        // in request order.
        for (i, want) in sequential.iter().enumerate() {
            assert_eq!(
                report.outputs[i].as_ref(),
                Some(want),
                "request {i}: sharded output diverged from its sequential run"
            );
        }
    }

    // Admission control: let the controller pick the batch against a p95
    // SLO instead of fixing it.
    println!("\nadmission control (batch picked by the controller):");
    for slo_ms in [None, Some(2.0), Some(0.8)] {
        let mut spec = TenantSpec::new(model.clone());
        spec.slo_ms = slo_ms;
        let runtime = DeviceRuntime::new(vec![spec], &phone, 2)?;
        let adm = runtime.tenants()[0].admission();
        println!(
            "  slo {:>8} -> batch {} (cap {}, modeled window {:.3} ms, slo {})",
            slo_ms.map_or("none".into(), |s| format!("{s:.1} ms")),
            adm.batch,
            adm.max_feasible_batch,
            adm.modeled_window_ms,
            if adm.slo_met { "met" } else { "MISSED" }
        );
    }

    println!(
        "\nEvery sharded run was verified bit-identical to per-request sequential runs.\n\
         More streams stretch each window (the shared DeviceClock makes queues contend\n\
         for the GPU) but overlap per-stream host overhead, so aggregate imgs/s climbs —\n\
         the same tradeoff `serve_report` records for the full-scale zoo in BENCH_serve.json."
    );
    Ok(())
}
