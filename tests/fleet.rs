//! Fleet-layer invariants (ISSUE 8): routed outputs are bit-exact with
//! the same windows run solo on their placed device (replaying the exact
//! attach/detach construction), conservation — no request lost,
//! duplicated, or reordered within a tenant across any policy, fleet
//! size 1–8, and injected device failures — and determinism: identical
//! seeds produce identical [`FleetReport`]s on both the executed and the
//! dry path, and the two paths hand back the same report.

use phonebit::core::serve::{
    estimate_serve_open_loop, DeviceRuntime, OpenLoopOptions, RetryPolicy, TenantReport,
    TenantSpec, TenantTraffic, TenantWorkload,
};
use phonebit::core::{
    convert, estimate_fleet, zipf_rates, ArrivalProcess, Fleet, FleetAction, FleetDeviceSpec,
    FleetEvent, FleetOptions, FleetOutcome, FleetRequestFate, OpenLoopWorkload, RoutePolicy,
    RoutedRequest,
};
use phonebit::gpusim::{FaultPlan, Phone, ThrottleEpoch};
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image};
use phonebit::tensor::shape::Shape4;
use phonebit::tensor::Tensor;

fn yolo_model() -> phonebit::core::PbitModel {
    convert(&fill_weights(&zoo::yolo_micro(Variant::Binary), 11))
}

fn alex_model() -> phonebit::core::PbitModel {
    convert(&fill_weights(&zoo::alexnet_micro(Variant::Binary), 7))
}

/// `n` tenants alternating the two micro models, batch 2, no SLO.
fn tenant_specs(n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|t| {
            let mut spec = if t % 2 == 0 {
                TenantSpec::new(yolo_model())
            } else {
                TenantSpec::new(alex_model())
            }
            .with_batch(2);
            spec.name = format!("tenant{t}");
            spec
        })
        .collect()
}

/// Per-tenant request streams (deterministic synthetic images).
fn tenant_traffic(n: usize, per_tenant: usize) -> Vec<Vec<Tensor<u8>>> {
    (0..n)
        .map(|t| {
            let input = if t % 2 == 0 {
                zoo::yolo_micro(Variant::Binary).input
            } else {
                zoo::alexnet_micro(Variant::Binary).input
            };
            (0..per_tenant)
                .map(|i| synthetic_image(input, (1000 * t + i) as u64))
                .collect()
        })
        .collect()
}

/// Evenly spaced arrivals at Zipf-skewed per-tenant rates.
fn zipf_arrivals(n: usize, per_tenant: usize, total_per_s: f64, skew: f64) -> Vec<Vec<f64>> {
    let rates = zipf_rates(total_per_s, n, skew);
    rates
        .iter()
        .map(|r| (0..per_tenant).map(|i| i as f64 * 1e3 / r).collect())
        .collect()
}

/// Mixed SD855/SD820 fleet of `m` devices; device 0 carries a seeded
/// fault plan so drain paths run under injected faults.
fn device_specs(m: usize) -> Vec<FleetDeviceSpec> {
    (0..m)
        .map(|d| {
            let phone = if d % 2 == 0 {
                Phone::xiaomi_9()
            } else {
                Phone::xiaomi_5()
            };
            let spec = FleetDeviceSpec::new(phone);
            if d == 0 {
                spec.with_fault(FaultPlan::new(77).with_failure_rate(0.4))
            } else {
                spec
            }
        })
        .collect()
}

/// The conservation invariant: every offered request resolves to exactly
/// one fate, outputs are present iff served, and each device serves its
/// routed slice of a tenant in effective-arrival order.
fn assert_conserved(outcome: &FleetOutcome, arrivals: &[Vec<f64>]) {
    for (t, arr) in arrivals.iter().enumerate() {
        assert_eq!(outcome.fates[t].len(), arr.len(), "one fate per request");
        let mut routed_seen = vec![0usize; arr.len()];
        for dev in &outcome.routed {
            for r in &dev[t] {
                routed_seen[r.index] += 1;
            }
            // No reordering within a tenant on any device.
            assert!(
                dev[t]
                    .windows(2)
                    .all(|w: &[RoutedRequest]| w[1].effective_ms >= w[0].effective_ms),
                "tenant {t}: per-device service order follows arrivals"
            );
        }
        for (i, fate) in outcome.fates[t].iter().enumerate() {
            match fate {
                FleetRequestFate::Served { .. } => {
                    assert_eq!(routed_seen[i], 1, "tenant {t} request {i} routed once");
                    assert!(
                        outcome.outputs[t][i].is_some(),
                        "tenant {t} request {i}: served requests carry an output"
                    );
                }
                FleetRequestFate::Shed { device, .. } => {
                    assert_eq!(
                        routed_seen[i],
                        usize::from(device.is_some()),
                        "tenant {t} request {i}: device sheds are routed, no-replica sheds are not"
                    );
                    assert!(
                        outcome.outputs[t][i].is_none(),
                        "tenant {t} request {i}: shed requests have no output"
                    );
                }
            }
        }
    }
    // A tenant's `migrated` counts its requests re-routed after a failure:
    // those scheduled from the failure instant instead of their arrival.
    for (t, row) in outcome.report.tenants.iter().enumerate() {
        let rerouted = outcome
            .routed
            .iter()
            .flat_map(|dev| &dev[t])
            .filter(|r| r.effective_ms != r.arrival_ms)
            .count();
        assert_eq!(row.migrated, rerouted, "tenant {t}: migrated = re-routed");
    }
    let served: usize = outcome
        .fates
        .iter()
        .flatten()
        .filter(|f| f.is_served())
        .count();
    assert_eq!(outcome.report.served, served);
    assert_eq!(
        outcome.report.offered,
        outcome.report.served + outcome.report.shed,
        "offered = served + shed"
    );
}

#[test]
fn conservation_holds_across_policies_fleet_sizes_and_failures() {
    let tenants = 2;
    let specs = tenant_specs(tenants);
    let traffic = tenant_traffic(tenants, 8);
    let arrivals = zipf_arrivals(tenants, 8, 700.0, 1.0);
    for m in 1..=8usize {
        for policy in RoutePolicy::ALL {
            let opts = FleetOptions {
                policy,
                seed: 7,
                ..FleetOptions::default()
            };
            let mut fleet = Fleet::new(device_specs(m), specs.clone(), opts).expect("fleet builds");
            let slices: Vec<TenantTraffic> = traffic.iter().map(|r| TenantTraffic::U8(r)).collect();
            // Kill device 0 mid-pass on every fleet size (on a fleet of
            // one this sheds everything uncommitted fleet-wide).
            let events = vec![FleetEvent::Fail {
                at_ms: 12.0,
                device: 0,
            }];
            let outcome = fleet
                .serve_open_loop(&slices, &arrivals, &events)
                .expect("fleet pass");
            assert_conserved(&outcome, &arrivals);
            assert!(
                outcome.report.devices[0].failed,
                "m={m} {policy:?}: report marks the dead device"
            );
        }
    }
}

/// Replays one device's exact construction (birth roster, then the
/// outcome's attach/detach actions in order) and runs its routed slice
/// solo; outputs must be bit-exact with the fleet pass. Returns the
/// device's rows, keyed by fleet tenant id.
fn replay_device_solo(
    d: usize,
    fleet: &Fleet,
    devices: &[FleetDeviceSpec],
    specs: &[TenantSpec],
    outcome: &FleetOutcome,
    traffic: &[Vec<Tensor<u8>>],
    opts: &FleetOptions,
) -> Vec<(usize, TenantReport)> {
    let birth = fleet.birth_roster(d);
    if birth.is_empty() {
        return Vec::new();
    }
    let mut rt = DeviceRuntime::new(
        birth.iter().map(|&t| specs[t].clone()).collect(),
        &devices[d].phone,
        opts.streams,
    )
    .expect("replayed runtime builds");
    rt.clock().set_fault_plan(devices[d].fault.clone());
    let mut roster: Vec<usize> = birth.to_vec();
    for action in &outcome.actions {
        match *action {
            FleetAction::Attach { tenant, device, .. } if device == d => {
                rt.attach(specs[tenant].clone()).expect("replayed attach");
                roster.push(tenant);
            }
            FleetAction::Detach { tenant, device, .. } if device == d => {
                let slot = roster.iter().position(|&x| x == tenant).expect("resident");
                rt.detach(slot).expect("replayed detach");
                roster.remove(slot);
            }
            _ => {}
        }
    }
    let total: usize = roster.iter().map(|&t| outcome.routed[d][t].len()).sum();
    if total == 0 {
        return Vec::new();
    }
    let owned: Vec<Vec<Tensor<u8>>> = roster
        .iter()
        .map(|&t| {
            outcome.routed[d][t]
                .iter()
                .map(|r| traffic[t][r.index].clone())
                .collect()
        })
        .collect();
    let eff: Vec<Vec<f64>> = roster
        .iter()
        .map(|&t| {
            outcome.routed[d][t]
                .iter()
                .map(|r| r.effective_ms)
                .collect()
        })
        .collect();
    let slices: Vec<TenantTraffic> = owned.iter().map(|o| TenantTraffic::U8(o)).collect();
    let solo = rt
        .serve_open_loop(&slices, &eff, &opts.open_loop)
        .expect("solo replay");
    for (slot, &t) in roster.iter().enumerate() {
        for (pos, req) in outcome.routed[d][t].iter().enumerate() {
            // Equal outputs where both served, `None` where both shed.
            assert_eq!(
                outcome.outputs[t][req.index], solo.tenants[slot].outputs[pos],
                "device {d} tenant {t} request {}",
                req.index
            );
        }
    }
    roster.into_iter().zip(solo.tenants).collect()
}

#[test]
fn routed_outputs_are_bit_exact_vs_solo_execution_on_each_device() {
    let tenants = 3;
    let specs = tenant_specs(tenants);
    let traffic = tenant_traffic(tenants, 12);
    let arrivals = zipf_arrivals(tenants, 12, 1200.0, 1.2);
    let devices = device_specs(4);
    let opts = FleetOptions {
        policy: RoutePolicy::PowerOfTwo,
        seed: 11,
        ..FleetOptions::default()
    };
    let mut fleet = Fleet::new(devices.clone(), specs.clone(), opts.clone()).expect("builds");
    let slices: Vec<TenantTraffic> = traffic.iter().map(|r| TenantTraffic::U8(r)).collect();
    let events = vec![FleetEvent::Fail {
        at_ms: 10.0,
        device: 1,
    }];
    let outcome = fleet
        .serve_open_loop(&slices, &arrivals, &events)
        .expect("fleet pass");
    assert_conserved(&outcome, &arrivals);
    assert!(outcome.report.served > 0, "the pass serves something");
    for d in 0..devices.len() {
        replay_device_solo(d, &fleet, &devices, &specs, &outcome, &traffic, &opts);
    }
}

#[test]
fn identical_seeds_produce_identical_reports_and_outputs() {
    let tenants = 2;
    let specs = tenant_specs(tenants);
    let traffic = tenant_traffic(tenants, 8);
    let arrivals = zipf_arrivals(tenants, 8, 800.0, 0.8);
    let events = vec![FleetEvent::Fail {
        at_ms: 9.0,
        device: 0,
    }];
    for policy in [RoutePolicy::Random, RoutePolicy::PowerOfTwo] {
        let run = || {
            let opts = FleetOptions {
                policy,
                seed: 99,
                ..FleetOptions::default()
            };
            let mut fleet = Fleet::new(device_specs(3), specs.clone(), opts).expect("fleet builds");
            let slices: Vec<TenantTraffic> = traffic.iter().map(|r| TenantTraffic::U8(r)).collect();
            fleet
                .serve_open_loop(&slices, &arrivals, &events)
                .expect("fleet pass")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.report, b.report, "{policy:?}: identical FleetReport");
        assert_eq!(a.fates, b.fates, "{policy:?}: identical fates");
        assert_eq!(a.routed, b.routed, "{policy:?}: identical routing");
        assert_eq!(a.outputs, b.outputs, "{policy:?}: identical outputs");
    }
}

#[test]
fn affinity_routes_everything_to_the_home_device_while_it_lives() {
    let tenants = 2;
    let specs = tenant_specs(tenants);
    let traffic = tenant_traffic(tenants, 6);
    let arrivals = zipf_arrivals(tenants, 6, 600.0, 0.0);
    let opts = FleetOptions {
        policy: RoutePolicy::TenantAffinity,
        ..FleetOptions::default()
    };
    let mut fleet = Fleet::new(device_specs(3), specs, opts).expect("fleet builds");
    let homes: Vec<usize> = (0..tenants).map(|t| fleet.placement(t)[0]).collect();
    let slices: Vec<TenantTraffic> = traffic.iter().map(|r| TenantTraffic::U8(r)).collect();
    let outcome = fleet
        .serve_open_loop(&slices, &arrivals, &[])
        .expect("fleet pass");
    assert_conserved(&outcome, &arrivals);
    for (t, &home) in homes.iter().enumerate() {
        for fate in &outcome.fates[t] {
            match fate {
                FleetRequestFate::Served { device, .. } => {
                    assert_eq!(*device, home, "tenant {t} stays home")
                }
                FleetRequestFate::Shed { device, .. } => {
                    assert_eq!(*device, Some(home), "tenant {t} sheds at home")
                }
            }
        }
    }
}

#[test]
fn failure_migrates_a_singly_replicated_tenant_via_attach() {
    // Tenant 0 is the small-arena model (alexnet-micro): its batch-1
    // arena fits inside the survivor's pool slice, so the migration
    // attach succeeds. (The reverse direction is a legitimate refusal —
    // attach never regrows a pool.)
    let tenants = 2;
    let mut t0 = TenantSpec::new(alex_model()).with_batch(2);
    t0.name = "tenant0".into();
    let mut t1 = TenantSpec::new(yolo_model()).with_batch(2);
    t1.name = "tenant1".into();
    let specs = vec![t0, t1];
    let alex_input = zoo::alexnet_micro(Variant::Binary).input;
    let yolo_input = zoo::yolo_micro(Variant::Binary).input;
    let traffic: Vec<Vec<Tensor<u8>>> = vec![
        (0..10)
            .map(|i| synthetic_image(alex_input, i as u64))
            .collect(),
        (0..10)
            .map(|i| synthetic_image(yolo_input, 500 + i as u64))
            .collect(),
    ];
    // Arrivals faster than tenant 0's home serves them: when it dies, a
    // queued, uncommitted tail re-routes.
    let arrivals = zipf_arrivals(tenants, 10, 8000.0, 0.0);
    let opts = FleetOptions {
        policy: RoutePolicy::ShortestQueue,
        replicas: 1,
        ..FleetOptions::default()
    };
    let mut fleet = Fleet::new(device_specs(2), specs.clone(), opts.clone()).expect("builds");
    // With replicas = 1 and load-aware placement, the two tenants land on
    // different devices; kill tenant 0's home mid-stream.
    let home = fleet.placement(0)[0];
    let other = 1 - home;
    assert_eq!(fleet.placement(1)[0], other, "load-aware spread");
    let slices: Vec<TenantTraffic> = traffic.iter().map(|r| TenantTraffic::U8(r)).collect();
    let events = vec![FleetEvent::Fail {
        at_ms: 2.0,
        device: home,
    }];
    let outcome = fleet
        .serve_open_loop(&slices, &arrivals, &events)
        .expect("fleet pass");
    assert_conserved(&outcome, &arrivals);
    assert!(
        outcome
            .migrations
            .iter()
            .any(|m| m.tenant == 0 && m.to == other),
        "tenant 0 migrates to the survivor: {:?}",
        outcome.migrations
    );
    assert!(
        outcome.actions.iter().any(
            |a| matches!(a, FleetAction::Attach { tenant: 0, device, .. } if *device == other)
        ),
        "the migration used DeviceRuntime::attach"
    );
    assert!(
        outcome.fates[0]
            .iter()
            .any(|f| matches!(f, FleetRequestFate::Served { device, .. } if *device == other)),
        "migrated requests are served on the new device"
    );
    // The migration re-enters at the failure instant: latency includes
    // the hand-off delay relative to the original arrival. Each tenant's
    // fleet row sums its window, shed-window, retry and throttle counters
    // over the device rows that served it and takes the largest of their
    // batches (`assert_conserved` pins its `migrated`).
    let devices = device_specs(2);
    let mut sums = vec![(0usize, 0usize, 0usize, 0usize, 0usize); tenants];
    for d in 0..devices.len() {
        let rows = replay_device_solo(d, &fleet, &devices, &specs, &outcome, &traffic, &opts);
        for (t, row) in rows {
            let sum = &mut sums[t];
            sum.0 += row.windows;
            sum.1 += row.windows_shed;
            sum.2 += row.retries;
            sum.3 += row.throttled;
            sum.4 = sum.4.max(row.batch);
        }
    }
    for (t, row) in outcome.report.tenants.iter().enumerate() {
        let got = (
            row.windows,
            row.windows_shed,
            row.retries,
            row.throttled,
            row.batch,
        );
        assert_eq!(got, sums[t], "tenant {t}");
        assert!(
            row.outputs.is_empty(),
            "a fleet row's outputs live in the outcome"
        );
    }
    assert!(
        outcome.report.tenants[0].migrated > 0,
        "uncommitted requests re-route"
    );
}

/// One fold: a fleet of one phone hosting each tenant once reports, per
/// tenant, exactly the row a [`DeviceRuntime`] over the same specs,
/// arrivals and open-loop options reports — with and without injected
/// faults and SLOs — and hands back the runtime's outputs.
#[test]
fn a_fleet_of_one_reports_what_its_runtime_reports() {
    let tenants = 2;
    let arrivals: Vec<Vec<f64>> = (0..tenants)
        .map(|t| {
            let mut arr = ArrivalProcess::poisson(900.0).times_ms(30 + t as u64, 1e3);
            arr.truncate(12);
            arr
        })
        .collect();
    let traffic = tenant_traffic(tenants, 12);
    let slices: Vec<TenantTraffic> = traffic.iter().map(|r| TenantTraffic::U8(r)).collect();
    let phone = Phone::xiaomi_9();
    let opts = FleetOptions {
        replicas: 1,
        ..FleetOptions::default()
    };
    let throttle = ThrottleEpoch {
        start_ms: 2.0,
        end_ms: 8.0,
        slowdown: 1.6,
    };
    let faults = [
        None,
        Some(FaultPlan::new(5).with_failure_rate(0.3)),
        Some(FaultPlan::new(5).with_throttle(throttle)),
    ];
    let cases = faults.iter().enumerate();
    for ((k, fault), slo_ms) in cases.flat_map(|f| [(f, None), (f, Some(3.0))]) {
        let specs: Vec<TenantSpec> = tenant_specs(tenants)
            .into_iter()
            .map(|mut spec| {
                spec.slo_ms = slo_ms;
                spec
            })
            .collect();
        let mut device = FleetDeviceSpec::new(phone.clone());
        device.fault = fault.clone();
        let outcome = Fleet::new(vec![device], specs.clone(), opts.clone())
            .expect("the pair fits one phone")
            .serve_open_loop(&slices, &arrivals, &[])
            .expect("fleet pass");
        let mut runtime =
            DeviceRuntime::new(specs, &phone, opts.streams).expect("the pair fits one phone");
        runtime.clock().set_fault_plan(fault.clone());
        let solo = runtime
            .serve_open_loop(&slices, &arrivals, &opts.open_loop)
            .expect("runtime pass");
        let case = format!("fault={fault:?} slo={slo_ms:?}");
        for (t, mut want) in solo.tenants.into_iter().enumerate() {
            assert_eq!(outcome.outputs[t], want.outputs, "{case} tenant {t}");
            want.outputs.clear();
            let got = &outcome.report.tenants[t];
            assert_eq!(got, &want, "{case} tenant {t}");
            assert_eq!(got.migrated, 0, "{case} tenant {t}");
        }
        let sum = |count: fn(&TenantReport) -> usize| -> usize {
            outcome.report.tenants.iter().map(count).sum()
        };
        match k {
            1 => assert!(sum(|t| t.retries) > 0, "{case}: a 0.3 fault rate retries"),
            2 => assert!(
                sum(|t| t.throttled) > 0,
                "{case}: the epoch derates attempts"
            ),
            _ => {}
        }
    }
}

/// An SLO is not met by a tenant with nothing served: under a target no
/// window can meet, every request is shed and both tenants miss, on a
/// device runtime and in a fleet alike; a tenant with no traffic still
/// meets its SLO.
#[test]
fn a_tenant_with_nothing_served_misses_its_slo() {
    let archs = [
        zoo::yolo_micro(Variant::Binary),
        zoo::alexnet_micro(Variant::Binary),
    ];
    let workloads: Vec<OpenLoopWorkload> = archs
        .iter()
        .enumerate()
        .map(|(t, arch)| OpenLoopWorkload {
            arch,
            batch: None,
            slo_ms: Some(0.01),
            arrival: ArrivalProcess::poisson(300.0),
            seed: 70 + t as u64,
        })
        .collect();
    let phone = Phone::xiaomi_9();
    let device =
        estimate_serve_open_loop(&phone, &workloads, 2, 50.0, None, &RetryPolicy::default());
    let fleet = estimate_fleet(
        &device_specs(2),
        &workloads,
        50.0,
        &[],
        &FleetOptions::default(),
    );
    for (path, rows) in [("device", &device.tenants), ("fleet", &fleet.tenants)] {
        for row in rows {
            assert!(
                row.offered > 0 && row.served == 0,
                "{path} {}: {row:?}",
                row.name
            );
            assert!(
                !row.slo_met,
                "{path} {}: nothing served, SLO missed",
                row.name
            );
        }
    }
    // No traffic at all: nothing to miss.
    let tenants: Vec<TenantWorkload> = workloads
        .iter()
        .map(|w| TenantWorkload {
            arch: w.arch,
            batch: w.batch,
            slo_ms: w.slo_ms,
        })
        .collect();
    let idle = vec![Vec::new(); tenants.len()];
    let report = DeviceRuntime::dry(&tenants, &phone, 2, None)
        .expect("the pair fits one phone")
        .serve_open_loop(
            &TenantTraffic::counts(&idle),
            &idle,
            &OpenLoopOptions::default(),
        )
        .expect("an empty pass");
    for row in &report.tenants {
        assert_eq!(row.offered, 0, "{}", row.name);
        assert!(row.slo_met, "{}: no traffic, no miss", row.name);
    }
}

#[test]
fn a_fleet_of_one_sheds_fleet_wide_after_its_only_device_dies() {
    let tenants = 2;
    let specs = tenant_specs(tenants);
    let traffic = tenant_traffic(tenants, 8);
    let arrivals = zipf_arrivals(tenants, 8, 700.0, 0.5);
    let mut fleet =
        Fleet::new(device_specs(1), specs, FleetOptions::default()).expect("fleet builds");
    let slices: Vec<TenantTraffic> = traffic.iter().map(|r| TenantTraffic::U8(r)).collect();
    let events = vec![FleetEvent::Fail {
        at_ms: 6.0,
        device: 0,
    }];
    let outcome = fleet
        .serve_open_loop(&slices, &arrivals, &events)
        .expect("fleet pass");
    assert_conserved(&outcome, &arrivals);
    let no_replica: usize = outcome
        .fates
        .iter()
        .flatten()
        .filter(|f| matches!(f, FleetRequestFate::Shed { device: None, .. }))
        .count();
    assert!(
        no_replica > 0,
        "uncommitted requests shed fleet-wide with no surviving host"
    );
    assert!(outcome.migrations.is_empty(), "nowhere to migrate");
}

#[test]
fn a_join_event_brings_up_a_device_that_carries_traffic() {
    let tenants = 2;
    let specs = tenant_specs(tenants);
    let traffic = tenant_traffic(tenants, 12);
    let arrivals = zipf_arrivals(tenants, 12, 1500.0, 0.0);
    let opts = FleetOptions {
        policy: RoutePolicy::ShortestQueue,
        ..FleetOptions::default()
    };
    let mut fleet = Fleet::new(device_specs(1), specs, opts).expect("fleet builds");
    let slices: Vec<TenantTraffic> = traffic.iter().map(|r| TenantTraffic::U8(r)).collect();
    let events = vec![FleetEvent::Join {
        at_ms: 4.0,
        phone: Phone::xiaomi_9(),
        fault: None,
    }];
    let outcome = fleet
        .serve_open_loop(&slices, &arrivals, &events)
        .expect("fleet pass");
    assert_conserved(&outcome, &arrivals);
    assert_eq!(fleet.device_count(), 2, "the join registered a device");
    assert_eq!(outcome.report.devices.len(), 2);
    let routed_to_joined: usize = (0..tenants).map(|t| outcome.routed[1][t].len()).sum();
    assert!(
        routed_to_joined > 0,
        "shortest-queue steers load onto the joined device"
    );
}

#[test]
fn estimate_fleet_is_deterministic_and_policies_disagree_under_skew() {
    let yolo = zoo::yolo_micro(Variant::Binary);
    let alex = zoo::alexnet_micro(Variant::Binary);
    let rates = zipf_rates(600.0, 3, 1.2);
    let workloads: Vec<OpenLoopWorkload> = (0..3)
        .map(|t| OpenLoopWorkload {
            arch: if t % 2 == 0 { &yolo } else { &alex },
            batch: Some(2),
            slo_ms: Some(50.0),
            arrival: ArrivalProcess::parse(&format!("poisson:{}", rates[t])).expect("spec"),
            seed: 40 + t as u64,
        })
        .collect();
    let devices = device_specs(4);
    let events = vec![FleetEvent::Fail {
        at_ms: 120.0,
        device: 1,
    }];
    let opts = FleetOptions {
        policy: RoutePolicy::PowerOfTwo,
        seed: 5,
        ..FleetOptions::default()
    };
    let a = estimate_fleet(&devices, &workloads, 400.0, &events, &opts);
    let b = estimate_fleet(&devices, &workloads, 400.0, &events, &opts);
    assert_eq!(a, b, "identical seeds, identical FleetReport");
    assert_eq!(a.offered, a.served + a.shed, "estimate conserves requests");
    assert!(a.served > 0);
    let random = estimate_fleet(
        &devices,
        &workloads,
        400.0,
        &events,
        &FleetOptions {
            policy: RoutePolicy::Random,
            seed: 5,
            ..FleetOptions::default()
        },
    );
    assert_ne!(
        a.devices.iter().map(|d| d.offered).collect::<Vec<_>>(),
        random.devices.iter().map(|d| d.offered).collect::<Vec<_>>(),
        "p2c and random route differently under skew"
    );
}

/// "Estimate is execute" at fleet level: an executed [`Fleet`] over the
/// converted micro pair, fed each workload's own seeded arrivals, and
/// [`estimate_fleet`] over the architectures alone hand back the same
/// [`FleetReport`] on every row — failure migration (the newcomer's batch
/// pinned or admission-chosen), joins, replicas, SLOs and weight paging
/// included.
#[test]
fn estimate_fleet_equals_the_executed_fleet_on_every_row() {
    const DURATION_MS: f64 = 60.0;
    // The micro pair at a quarter of its resolution: an admission-chosen
    // batch executes zero-padded 64-image windows, too slow to sweep
    // unoptimised at 32x32 / 64x64.
    let mut archs = [
        zoo::alexnet_micro(Variant::Binary),
        zoo::yolo_micro(Variant::Binary),
    ];
    archs[0].input = Shape4::new(1, 8, 8, 3);
    archs[1].input = Shape4::new(1, 16, 16, 3);
    let models = [&archs[0], &archs[1]].map(|arch| convert(&fill_weights(arch, 7)));
    let devices = vec![
        FleetDeviceSpec::new(Phone::xiaomi_9()),
        FleetDeviceSpec::new(Phone::xiaomi_5()),
    ];
    let process = ArrivalProcess::poisson(300.0);
    let arrivals: Vec<Vec<f64>> = (0..2)
        .map(|t| process.times_ms(60 + t, DURATION_MS))
        .collect();
    let images: Vec<Vec<Tensor<u8>>> = archs
        .iter()
        .zip(&arrivals)
        .enumerate()
        .map(|(t, (arch, arr))| {
            (0..arr.len())
                .map(|i| synthetic_image(arch.input, (5000 * t + i) as u64))
                .collect()
        })
        .collect();
    let traffic: Vec<TenantTraffic> = images.iter().map(|r| TenantTraffic::U8(r)).collect();
    let mut rows = 0;
    for (fail, join) in [(true, false), (true, true), (false, true), (false, false)] {
        let mut events = Vec::new();
        if join {
            events.push(FleetEvent::Join {
                at_ms: 10.0,
                phone: Phone::xiaomi_9(),
                fault: None,
            });
        }
        if fail {
            events.push(FleetEvent::Fail {
                at_ms: 20.0,
                device: 0,
            });
        }
        for (replicas, weight_paging) in [(1, false), (1, true), (2, false), (2, true)] {
            for (batch, slo_ms) in [
                (Some(2), None),
                (Some(2), Some(20.0)),
                (None, None),
                (None, Some(20.0)),
            ] {
                let opts = FleetOptions {
                    policy: RoutePolicy::ShortestQueue,
                    seed: 3,
                    replicas,
                    weight_paging,
                    ..FleetOptions::default()
                };
                let specs: Vec<TenantSpec> = models
                    .iter()
                    .map(|model| {
                        let mut spec = TenantSpec::new(model.clone());
                        (spec.batch, spec.slo_ms) = (batch, slo_ms);
                        spec
                    })
                    .collect();
                let workloads: Vec<OpenLoopWorkload> = archs
                    .iter()
                    .enumerate()
                    .map(|(t, arch)| OpenLoopWorkload {
                        arch,
                        batch,
                        slo_ms,
                        arrival: process.clone(),
                        seed: 60 + t as u64,
                    })
                    .collect();
                let executed = Fleet::new(devices.clone(), specs, opts.clone())
                    .expect("the pair fits two phones")
                    .serve_open_loop(&traffic, &arrivals, &events)
                    .expect("fleet pass");
                let estimated = estimate_fleet(&devices, &workloads, DURATION_MS, &events, &opts);
                assert_eq!(
                    executed.report, estimated,
                    "fail={fail} join={join} replicas={replicas} paging={weight_paging} \
                     batch={batch:?} slo={slo_ms:?}"
                );
                rows += 1;
            }
        }
    }
    assert_eq!(rows, 64);
}
