//! Multi-tenant serving demo: two heterogeneous models co-resident on one
//! device, a work-stealing scheduler, and contention-aware admission.
//!
//! A `DeviceRuntime` stages a detector and a classifier **once each** into
//! one budgeted device context: all weights stay resident, while every
//! stream draws a single pooled arena slice (sized to the larger tenant's
//! banks) that either tenant's plan can run in. Windows are placed by the
//! work-stealing scheduler — an idle stream pulls the pending window whose
//! tenant is furthest from its SLO — and each tenant's batch was admitted
//! against the *other* tenant's measured dispatch mix on the shared
//! `DeviceClock`, not against clones of itself. This example runs the
//! functional engine (real outputs), prints the per-tenant latency table,
//! and double-checks that co-resident outputs are bit-identical to solo
//! single-session runs.
//!
//! Run: `cargo run --release --example serve_multitenant`

use phonebit::core::serve::{DeviceRuntime, TenantSpec, TenantTraffic};
use phonebit::core::{convert, Session};
use phonebit::gpusim::Phone;
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let phone = Phone::xiaomi_9();
    let detector_arch = zoo::yolo_micro(Variant::Binary);
    let classifier_arch = zoo::alexnet_micro(Variant::Binary);
    let detector = convert(&fill_weights(&detector_arch, 42));
    let classifier = convert(&fill_weights(&classifier_arch, 43));

    println!(
        "co-resident serving of `{}` + `{}` on {} ({})\n",
        detector_arch.name, classifier_arch.name, phone.name, phone.gpu
    );

    // Camera pipeline: a steady stream of detector frames next to a burst
    // of classifier crops.
    let det_reqs: Vec<_> = (0..14)
        .map(|i| synthetic_image(detector_arch.input, 200 + i as u64))
        .collect();
    let cls_reqs: Vec<_> = (0..6)
        .map(|i| synthetic_image(classifier_arch.input, 400 + i as u64))
        .collect();

    // Solo references for the bit-exactness check.
    let mut solo_det = Session::new(detector.clone(), &phone)?;
    let want_det: Vec<_> = det_reqs
        .iter()
        .map(|img| solo_det.run_u8(img).map(|r| r.output.unwrap()))
        .collect::<Result<_, _>>()?;
    let mut solo_cls = Session::new(classifier.clone(), &phone)?;
    let want_cls: Vec<_> = cls_reqs
        .iter()
        .map(|img| solo_cls.run_u8(img).map(|r| r.output.unwrap()))
        .collect::<Result<_, _>>()?;

    let mut runtime = DeviceRuntime::new(
        vec![
            TenantSpec::new(detector).with_batch(2),
            // The classifier carries a latency SLO; admission sizes its
            // window against the detector's measured mix.
            TenantSpec::new(classifier).with_slo_ms(8.0),
        ],
        &phone,
        2,
    )?;
    for tenant in runtime.tenants() {
        let adm = tenant.admission();
        println!(
            "tenant `{}`: admitted batch {} (cap {}, modeled window {:.3} ms{})",
            tenant.name(),
            adm.batch,
            adm.max_feasible_batch,
            adm.modeled_window_ms,
            match adm.slo_ms {
                Some(s) => format!(
                    ", slo {s:.1} ms {}",
                    if adm.slo_met { "ok" } else { "MISSED" }
                ),
                None => String::new(),
            }
        );
    }
    println!(
        "pooled residency: {:.2} MiB total, {:.2} MiB arena slice per stream\n",
        runtime.resident_bytes() as f64 / (1024.0 * 1024.0),
        runtime.pool_slice_bytes() as f64 / (1024.0 * 1024.0),
    );

    let report = runtime.serve(&[TenantTraffic::U8(&det_reqs), TenantTraffic::U8(&cls_reqs)])?;

    println!(
        "{:<16} {:>7} {:>8} {:>10} {:>10} {:>10}",
        "tenant", "served", "windows", "p50(ms)", "p95(ms)", "p99(ms)"
    );
    for t in &report.tenants {
        println!(
            "{:<16} {:>7} {:>8} {:>10.3} {:>10.3} {:>10.3}",
            t.name, t.served, t.windows, t.p50_ms, t.p95_ms, t.p99_ms
        );
    }
    println!(
        "\naggregate {:.1} imgs/s over a {:.3} ms makespan across {} streams",
        report.goodput_imgs_per_s,
        report.wall_ms,
        report.schedule.streams_used()
    );

    // Work stealing is visible in the schedule: both streams carried both
    // tenants' windows.
    for s in 0..2 {
        let mine = report.schedule.attempts.iter().filter(|sw| sw.stream == s);
        let tenants: Vec<usize> = mine.map(|sw| sw.tenant).collect();
        println!("stream {s} ran windows of tenants {tenants:?}");
    }

    // Bit-exactness: co-resident outputs equal the solo references.
    for (i, want) in want_det.iter().enumerate() {
        assert_eq!(
            report.tenants[0].outputs[i].as_ref(),
            Some(want),
            "detector request {i}: co-resident output diverged from its solo run"
        );
    }
    for (i, want) in want_cls.iter().enumerate() {
        assert_eq!(
            report.tenants[1].outputs[i].as_ref(),
            Some(want),
            "classifier request {i}: co-resident output diverged from its solo run"
        );
    }
    println!(
        "\nEvery co-resident output was verified bit-identical to solo runs. The pooled\n\
         arena keeps both tenants resident for one slice per stream, and the same\n\
         scheduler that placed these windows is what admission modeled — the numbers\n\
         multitenant_report records in BENCH_multitenant.json at full scale."
    );
    Ok(())
}
