//! Fleet-scale serving demo: a cluster of simulated devices behind the
//! global router.
//!
//! Builds a four-device fleet (alternating Snapdragon 855 / 820, one
//! device carrying a seeded fault plan), places three tenants across it
//! with two replicas each, and drives Zipf-skewed open-loop traffic
//! through the power-of-two-choices router. Mid-pass a device **fails**
//! — its committed requests drain, the uncommitted ones re-route to
//! surviving replicas, and any tenant left with no live replica migrates
//! via a real `attach` — and a fresh device **joins** and starts taking
//! traffic. The same fleet description then goes through a **dry run**
//! (architectures instead of models, request counts instead of tensors)
//! and the two reports print side by side: an estimate is the same pass
//! with no kernel run, so they are equal. Last, the executed run repeats
//! with the same seed to show the whole pass — placement, routing,
//! migrations, per-request fates — is deterministic.
//!
//! Run: `cargo run --release --example serve_fleet`

use phonebit::core::serve::{TenantSpec, TenantTraffic, TenantWorkload};
use phonebit::core::{
    convert, zipf_rates, Fleet, FleetDeviceSpec, FleetEvent, FleetOptions, FleetReport,
    FleetRequestFate, RoutePolicy,
};
use phonebit::gpusim::{FaultPlan, Phone};
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image};
use phonebit::tensor::Tensor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Three tenants over the two micro models, batch-2 windows.
    let archs = [
        zoo::yolo_micro(Variant::Binary),
        zoo::alexnet_micro(Variant::Binary),
        zoo::yolo_micro(Variant::Binary),
    ];
    let tenants: Vec<TenantSpec> = archs
        .iter()
        .enumerate()
        .map(|(t, arch)| TenantSpec::new(convert(&fill_weights(arch, 11 + t as u64))).with_batch(2))
        .collect();

    // Four devices, x9/x5 alternating; dev0 drops ~20% of dispatches.
    let devices = vec![
        FleetDeviceSpec::new(Phone::xiaomi_9())
            .with_fault(FaultPlan::new(77).with_failure_rate(0.2)),
        FleetDeviceSpec::new(Phone::xiaomi_5()),
        FleetDeviceSpec::new(Phone::xiaomi_9()),
        FleetDeviceSpec::new(Phone::xiaomi_5()),
    ];

    let opts = FleetOptions {
        policy: RoutePolicy::PowerOfTwo,
        seed: 42,
        replicas: 2,
        streams: 2,
        ..FleetOptions::default()
    };
    let mut fleet = Fleet::new(devices.clone(), tenants.clone(), opts.clone())?;
    println!(
        "fleet of {} devices, {} tenants, {} routing",
        fleet.device_count(),
        archs.len(),
        opts.policy.name()
    );
    for t in 0..archs.len() {
        println!("  tenant{t} placed on devices {:?}", fleet.placement(t));
    }

    // Zipf-skewed per-tenant rates sharing 8000 req/s — well past what one device sustains, so queues form and the failure strands work, evenly spaced
    // arrivals, 12 requests each.
    let per_tenant = 12;
    let rates = zipf_rates(8000.0, archs.len(), 1.2);
    let arrivals: Vec<Vec<f64>> = rates
        .iter()
        .map(|r| (0..per_tenant).map(|i| i as f64 * 1e3 / r).collect())
        .collect();
    let reqs: Vec<Vec<Tensor<u8>>> = archs
        .iter()
        .enumerate()
        .map(|(t, arch)| {
            (0..per_tenant)
                .map(|i| synthetic_image(arch.input, (1000 * t + i) as u64))
                .collect()
        })
        .collect();
    let traffic: Vec<TenantTraffic<'_>> = reqs.iter().map(|r| TenantTraffic::U8(r)).collect();

    // Mid-pass: device 0 — the flaky one, and the busiest — dies, and a
    // fresh x9 joins shortly after.
    let events = vec![
        FleetEvent::Fail {
            at_ms: 4.0,
            device: 0,
        },
        FleetEvent::Join {
            at_ms: 8.0,
            phone: Phone::xiaomi_9(),
            fault: None,
        },
    ];

    let outcome = fleet.serve_open_loop(&traffic, &arrivals, &events)?;
    let r = &outcome.report;
    println!(
        "\n{} offered, {} served, {} shed, {} re-routed after the failure",
        r.offered, r.served, r.shed, r.migrated
    );
    for m in &outcome.migrations {
        println!(
            "  migration at {:.1} ms: tenant{} {} -> dev{}",
            m.at_ms,
            m.tenant,
            m.from.map_or("(none)".into(), |d| format!("dev{d}")),
            m.to
        );
    }

    println!(
        "\n{:<6} {:<10} {:>6} {:>7} {:>7} {:>6} {:>6}",
        "device", "phone", "state", "tenants", "offered", "served", "util"
    );
    for d in &r.devices {
        println!(
            "{:<6} {:<10} {:>6} {:>7} {:>7} {:>6} {:>5.1}%",
            d.id,
            d.phone,
            if d.failed { "dead" } else { "live" },
            d.tenants,
            d.offered,
            d.served,
            d.utilization * 100.0
        );
    }

    // The same description as a dry run: nothing staged, nothing executed,
    // the same placement, router and per-device passes.
    let dry_tenants: Vec<TenantWorkload<'_>> = archs
        .iter()
        .map(|arch| TenantWorkload {
            arch,
            batch: Some(2),
            slo_ms: None,
        })
        .collect();
    let counts = TenantTraffic::counts(&arrivals);
    let dry = Fleet::dry(devices.clone(), &dry_tenants, opts.clone())?
        .serve_open_loop(&counts, &arrivals, &events)?;
    println!(
        "\n{:<9} {:<16} {:>7} {:>6} {:>5} {:>5} {:>9} {:>9}",
        "", "tenant", "offered", "served", "shed", "moved", "p50(ms)", "p99(ms)"
    );
    let sides: [(&str, &FleetReport); 2] = [("executed", r), ("dry run", &dry.report)];
    for t in 0..archs.len() {
        for (side, report) in sides {
            let row = &report.tenants[t];
            println!(
                "{:<9} {:<16} {:>7} {:>6} {:>5} {:>5} {:>9.3} {:>9.3}",
                side,
                row.name,
                row.offered,
                row.served,
                row.shed,
                row.migrated,
                row.p50_ms,
                row.p99_ms
            );
        }
    }
    for (side, report) in sides {
        println!(
            "{side:<9} global p50 {:.3} / p95 {:.3} / p99 {:.3} ms, goodput {:.1} imgs/s",
            report.p50_ms, report.p95_ms, report.p99_ms, report.goodput_imgs_per_s
        );
    }
    assert_eq!(dry.report, *r, "an estimate is a dry run of the same pass");

    // Every request resolved exactly once; count the fates by hand.
    let served = outcome
        .fates
        .iter()
        .flatten()
        .filter(|f| matches!(f, FleetRequestFate::Served { .. }))
        .count();
    assert_eq!(served, r.served, "fates and report agree");

    // Same seed, fresh fleet: the entire pass reproduces bit-for-bit.
    let mut again = Fleet::new(devices, tenants, opts)?;
    let outcome2 = again.serve_open_loop(&traffic, &arrivals, &events)?;
    assert_eq!(outcome.report, outcome2.report);
    assert_eq!(outcome.fates, outcome2.fates);
    println!("\nre-run with the same seed: identical report and per-request fates ✔");
    Ok(())
}
