//! Fleet-scale serving: M simulated devices behind one deterministic
//! router.
//!
//! One phone serves one neighbourhood; the ROADMAP's north star is heavy
//! traffic from millions of users, which means **many** devices behind a
//! global router. This module builds that layer out of pieces every prior
//! PR made deterministic — seeded [`ArrivalProcess`](crate::ArrivalProcess)
//! streams, per-device [`DeviceClock`](phonebit_gpusim::DeviceClock)s with
//! seeded [`FaultPlan`]s, and the
//! multi-tenant [`DeviceRuntime`] with its live [`attach`] / [`detach`]
//! machinery — so the whole cluster is reproducible end to end and
//! therefore fully testable (`tests/fleet.rs` pins bit-exactness of routed
//! outputs against solo execution, conservation, and policy ordering).
//!
//! **Placement.** At admission every tenant is placed on up to
//! [`FleetOptions::replicas`] devices: candidates are the devices whose
//! weight budget fits the tenant next to its already-placed neighbours at
//! the batch-1 pooled floor (`Σ weights + streams × max arena`, the same
//! feasibility formula the admission controller enforces), ranked by
//! accumulated modeled solo load — weight-budget *and* modeled-load aware,
//! never random.
//!
//! **Routing.** Per-request open-loop traffic is steered by a pluggable
//! [`RoutePolicy`] over the tenant's live replicas: power-of-two-choices,
//! join-shortest-modeled-queue, tenant-affinity (home device first), and a
//! random baseline. The router charges each routed request its modeled
//! per-request service (`steady_ms / batch`) against the device's modeled
//! busy horizon; queue-aware policies compare those horizons. All
//! randomness comes from one seeded [`StdRng`], so a fleet pass is a pure
//! function of its inputs.
//!
//! **Failure and migration.** [`FleetEvent::Fail`] kills a device at a
//! point in modeled time: requests whose charged completion precedes the
//! failure are **committed** (the device drains them), everything later
//! re-enters the router at the failure instant and is re-routed to the
//! surviving replicas. A tenant whose replicas all died is migrated — the
//! real [`DeviceRuntime::attach`] on the least-busy feasible survivor —
//! and tenants left with zero committed requests on a dead device are
//! [`detach`]ed before the drain so the wreck is not modeled as
//! contention. [`FleetEvent::Join`] attaches a fresh device mid-pass and
//! hosts every tenant that fits it.
//!
//! A migrated request's deadline re-anchors to its hand-off time (the
//! fleet treats migration as re-admission) while its *reported* latency
//! stays anchored to the original arrival, so fleet percentiles include
//! the migration delay.
//!
//! **Ordering guarantee.** Within a tenant, every device serves its routed
//! slice in effective-arrival order (the scheduler's per-tenant FIFO), and
//! each request keeps its identity end to end — the conservation invariant
//! is *exactly-once fates* plus identity-preserving outputs, not a single
//! global total order across devices.
//!
//! [`FleetReport`] aggregates the cluster: per-device utilization (the
//! schedule's modeled attempt seconds over `streams × wall`, not the
//! clock's busy counter, which sums in thread order), aggregate images/s,
//! global p50/p95/p99/p99.9 computed with the same nearest-rank rule as the
//! single-device reports, and per tenant the device runtime's own
//! [`TenantReport`] — built by the same constructor from the tenant's
//! fleet-wide fates, its window and attempt counters summed off the
//! schedules of the devices that served it. Each device hands the fleet its
//! schedule and outputs, not a report, and the fleet maps window fates to
//! requests with the device fold's own walk, so every request's fate and
//! latency is computed once. A fleet brought up from architectures alone
//! ([`Fleet::dry`]) is the same placement, router and failure handling
//! over [dry](DeviceRuntime::dry) device runtimes, fed request counts;
//! [`estimate_fleet`] is one pass of it over seeded arrival processes — the
//! full-scale model the `fleet_report` bench bin sweeps.
//!
//! [`attach`]: DeviceRuntime::attach
//! [`detach`]: DeviceRuntime::detach

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use phonebit_gpusim::clock::FaultPlan;
use phonebit_gpusim::Phone;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{ActivationData, EngineError};
use crate::planner::pooled_peak_bytes;
use crate::serve::{
    dry_inputs, modeled_window_under, request_fates, validate_arrivals, DeviceRuntime,
    OpenLoopOptions, OpenLoopWorkload, Registration, ShedReason, TenantAsk, TenantReport,
    TenantSpec, TenantTraffic, TenantWorkload, WindowCounts, WindowFate,
};
use crate::stats::nearest_rank;
use phonebit_tensor::tensor::Tensor;

// ---------------------------------------------------------------------------
// Policies, options, events
// ---------------------------------------------------------------------------

/// How the router steers each request among a tenant's live replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Uniform over live replicas — the baseline every other policy must
    /// beat.
    Random,
    /// Power of two choices: sample two distinct replicas, send to the one
    /// with the shorter modeled queue (lower device index on ties).
    PowerOfTwo,
    /// Join the shortest modeled queue across all live replicas.
    ShortestQueue,
    /// Always the tenant's home device (first live replica in placement
    /// order) — maximal cache/lane affinity, no load spreading.
    TenantAffinity,
}

impl RoutePolicy {
    /// Every policy, in report order.
    pub const ALL: [RoutePolicy; 4] = [
        RoutePolicy::Random,
        RoutePolicy::PowerOfTwo,
        RoutePolicy::ShortestQueue,
        RoutePolicy::TenantAffinity,
    ];

    /// Short stable name (`random` / `p2c` / `jsq` / `affinity`).
    pub fn name(&self) -> &'static str {
        match self {
            RoutePolicy::Random => "random",
            RoutePolicy::PowerOfTwo => "p2c",
            RoutePolicy::ShortestQueue => "jsq",
            RoutePolicy::TenantAffinity => "affinity",
        }
    }

    /// Parses a policy name; the error names the offending token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.trim().to_ascii_lowercase().as_str() {
            "random" => Ok(RoutePolicy::Random),
            "p2c" | "power-of-two" | "powertwo" => Ok(RoutePolicy::PowerOfTwo),
            "jsq" | "shortest-queue" | "shortest" => Ok(RoutePolicy::ShortestQueue),
            "affinity" | "tenant-affinity" => Ok(RoutePolicy::TenantAffinity),
            other => Err(format!(
                "unknown route policy `{other}` (want random | p2c | jsq | affinity)"
            )),
        }
    }
}

/// Knobs for one fleet pass.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOptions {
    /// Request steering policy.
    pub policy: RoutePolicy,
    /// Router RNG seed (placement is deterministic; only `random` / `p2c`
    /// draw).
    pub seed: u64,
    /// Replicas placed per tenant (clamped to the feasible device count).
    pub replicas: usize,
    /// Pooled streams per device.
    pub streams: usize,
    /// Per-device open-loop execution knobs. Defaults pin
    /// `max_replans = 0` so the batch the router charged is the batch the
    /// device executes.
    pub open_loop: OpenLoopOptions,
    /// Admit tenants under **weight paging**: placement and migration
    /// charge each tenant its paged floor
    /// ([`paged_floor_bytes`](crate::ExecutionPlan::paged_floor_bytes)) instead of its
    /// summed weights, and every device runtime admits under a pooled
    /// weight budget (its app budget minus the batch-1 arena pool), so an
    /// oversubscribed tenant set becomes admissible on one device. `false`
    /// (the default) is the exact fully-resident fleet.
    pub weight_paging: bool,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            policy: RoutePolicy::PowerOfTwo,
            seed: 42,
            replicas: 2,
            streams: 2,
            open_loop: OpenLoopOptions {
                max_replans: 0,
                ..OpenLoopOptions::default()
            },
            weight_paging: false,
        }
    }
}

/// One device in the fleet: its phone profile and an optional seeded
/// fault plan installed on its clock.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDeviceSpec {
    /// The device's hardware profile (Table I phone).
    pub phone: Phone,
    /// Fault injection for this device's clock, if any.
    pub fault: Option<FaultPlan>,
}

impl FleetDeviceSpec {
    /// A fault-free device on the given phone.
    pub fn new(phone: Phone) -> Self {
        Self { phone, fault: None }
    }

    /// Installs a seeded fault plan on the device.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// A cluster event on the modeled timeline. At equal timestamps joins
/// land before failures, and both land before request arrivals.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // Join carries a Phone; events are few and never stored in bulk
pub enum FleetEvent {
    /// Device `device` dies at `at_ms`: committed requests drain, the
    /// rest re-route, orphaned tenants migrate.
    Fail {
        /// Failure instant, milliseconds.
        at_ms: f64,
        /// Device index (initial devices first, then joins in event
        /// order).
        device: usize,
    },
    /// A fresh device joins at `at_ms` and hosts every tenant that fits.
    Join {
        /// Join instant, milliseconds.
        at_ms: f64,
        /// The new device's profile.
        phone: Phone,
        /// Fault plan for the new device, if any.
        fault: Option<FaultPlan>,
    },
}

impl FleetEvent {
    fn at_ms(&self) -> f64 {
        match self {
            FleetEvent::Fail { at_ms, .. } | FleetEvent::Join { at_ms, .. } => *at_ms,
        }
    }
}

/// Zipf-skewed per-tenant arrival rates: rate `i ∝ 1 / (i+1)^skew`,
/// normalized to sum to `total_per_s`. `skew = 0` is uniform; `skew ≥ 1`
/// concentrates most traffic on the first tenants — the hot-tenant regime
/// placement and routing must survive.
pub fn zipf_rates(total_per_s: f64, tenants: usize, skew: f64) -> Vec<f64> {
    assert!(tenants >= 1, "zipf_rates needs >= 1 tenant");
    assert!(
        total_per_s.is_finite() && total_per_s > 0.0,
        "total rate must be positive"
    );
    let weights: Vec<f64> = (0..tenants)
        .map(|i| 1.0 / ((i + 1) as f64).powf(skew))
        .collect();
    let sum: f64 = weights.iter().sum();
    weights.into_iter().map(|w| total_per_s * w / sum).collect()
}

// ---------------------------------------------------------------------------
// Routed requests, fates, migrations, actions
// ---------------------------------------------------------------------------

/// One request as the router handed it to a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutedRequest {
    /// Global index within the tenant's arrival stream.
    pub index: usize,
    /// Original arrival, milliseconds — latency stays anchored here.
    pub arrival_ms: f64,
    /// Arrival the device schedules by: the original arrival, or the
    /// failure instant for a re-routed request.
    pub effective_ms: f64,
}

/// The terminal state of one fleet request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetRequestFate {
    /// Served on `device`.
    Served {
        /// Device that ran the serving window.
        device: usize,
        /// Modeled completion, milliseconds.
        end_ms: f64,
        /// Completion minus the request's **original** arrival (includes
        /// any migration delay), milliseconds.
        latency_ms: f64,
    },
    /// Dropped.
    Shed {
        /// Device whose scheduler shed the window, or `None` when no live
        /// device could host the tenant at all.
        device: Option<usize>,
        /// Modeled time of the shed decision, milliseconds.
        at_ms: f64,
        /// The device scheduler's reason; `None` for a fleet-level
        /// no-replica shed.
        reason: Option<ShedReason>,
    },
}

impl FleetRequestFate {
    /// Whether the request was served.
    pub fn is_served(&self) -> bool {
        matches!(self, FleetRequestFate::Served { .. })
    }
}

/// One tenant-level migration taken on a device failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetMigration {
    /// When, milliseconds.
    pub at_ms: f64,
    /// Which tenant.
    pub tenant: usize,
    /// The dead device the traffic came from (`None` when the tenant's
    /// replicas were already gone before this request arrived).
    pub from: Option<usize>,
    /// The surviving device that attached the tenant.
    pub to: usize,
}

/// One attach/detach the fleet performed on a device runtime, in order —
/// enough to replay a device's construction solo (`tests/fleet.rs` uses
/// this for the bit-exactness pin).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetAction {
    /// `tenant` was attached to `device` at `at_ms` (failure migration).
    Attach {
        /// When, milliseconds.
        at_ms: f64,
        /// Fleet tenant id.
        tenant: usize,
        /// Device index.
        device: usize,
    },
    /// `tenant` was detached from dead `device` at `at_ms` (zero
    /// committed requests at failure).
    Detach {
        /// When, milliseconds.
        at_ms: f64,
        /// Fleet tenant id.
        tenant: usize,
        /// Device index.
        device: usize,
    },
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One device's slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDeviceReport {
    /// Registry id (`dev0`, `dev1`, …).
    pub id: String,
    /// Phone name.
    pub phone: String,
    /// Whether the device was killed by a [`FleetEvent::Fail`].
    pub failed: bool,
    /// Tenants resident at the end of the pass.
    pub tenants: usize,
    /// Requests the router committed to this device.
    pub offered: usize,
    /// Requests served here.
    pub served: usize,
    /// Requests shed by this device's scheduler.
    pub shed: usize,
    /// Busy fraction: modeled attempt seconds (executed durations equal
    /// modeled ones exactly) over `streams × fleet wall`.
    pub utilization: f64,
    /// Served images per second of the fleet horizon.
    pub imgs_per_s: f64,
}

/// Fleet-wide accounting for one pass: per-device utilization, one
/// [`TenantReport`] per tenant — the row a device runtime reports, summed
/// over the devices that served the tenant — and the global latency
/// distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// The routing policy that produced this pass.
    pub policy: RoutePolicy,
    /// Router seed.
    pub seed: u64,
    /// Per-device rows, in registry order.
    pub devices: Vec<FleetDeviceReport>,
    /// Per-tenant rows, in tenant order: fates, latencies (from the
    /// original arrival, so migration delay included), percentiles and
    /// `migrated` are fleet-wide; windows, retries and throttled attempts
    /// sum over the tenant's devices, `batch` is the largest of theirs, and
    /// `outputs` stays empty ([`FleetOutcome::outputs`] holds them).
    pub tenants: Vec<TenantReport>,
    /// Total requests offered across tenants.
    pub offered: usize,
    /// Total served.
    pub served: usize,
    /// Total shed.
    pub shed: usize,
    /// Requests re-routed after device failures.
    pub migrated: usize,
    /// Last modeled completion across devices, milliseconds.
    pub wall_ms: f64,
    /// Aggregate served images per second of `max(wall, last arrival)`.
    pub goodput_imgs_per_s: f64,
    /// Global median served latency, ms.
    pub p50_ms: f64,
    /// Global 95th-percentile served latency, ms.
    pub p95_ms: f64,
    /// Global 99th-percentile served latency, ms.
    pub p99_ms: f64,
    /// Global 99.9th-percentile served latency, ms.
    pub p999_ms: f64,
}

/// Everything a [`Fleet::serve_open_loop`] pass produced: the aggregate
/// report plus the per-request evidence the invariant tests pin.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Aggregate accounting.
    pub report: FleetReport,
    /// Per-tenant, per-request outputs in global arrival order; `None`
    /// for shed requests. Served outputs are bit-exact with the same
    /// windows run solo on their placed device.
    pub outputs: Vec<Vec<Option<ActivationData>>>,
    /// Per-tenant, per-request fates — exactly one per offered request
    /// (the conservation invariant).
    pub fates: Vec<Vec<FleetRequestFate>>,
    /// The committed routing: `routed[device][tenant]` in service order.
    pub routed: Vec<Vec<Vec<RoutedRequest>>>,
    /// Tenant-level migrations taken on failures.
    pub migrations: Vec<FleetMigration>,
    /// Every attach/detach performed on a device runtime, in order.
    pub actions: Vec<FleetAction>,
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

/// Batch-1 footprint and modeled solo cost of one tenant on one phone
/// class — the currency of placement and migration feasibility.
/// `paged_floor` is the smallest weight-residency grant that still
/// overlaps every bank upload with compute — what the tenant charges
/// under [`FleetOptions::weight_paging`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct FitEntry {
    weights: usize,
    arena1: usize,
    solo_ms: f64,
    paged_floor: usize,
}

impl FitEntry {
    /// The resident weight bytes this tenant charges at placement time:
    /// its paged floor when the fleet pages, its full weights otherwise.
    fn placed_weights(&self, paging: bool) -> usize {
        if paging {
            self.paged_floor
        } else {
            self.weights
        }
    }

    /// Probes one tenant's batch-1 plan on `phone`'s GPU class — from a
    /// deployed model or an architecture alike.
    fn probe(ask: &TenantAsk<'_>, phone: &Phone) -> Result<Self, EngineError> {
        let plan = ask.source.plan_at(&phone.gpu, 1, ask.overrides)?;
        let (cold_s, _) = modeled_window_under(&plan, &phone.gpu, 1, None);
        Ok(Self {
            weights: plan.weights_bytes,
            arena1: plan.staged_arena_bytes(),
            solo_ms: cold_s * 1e3,
            paged_floor: plan.paged_floor_bytes(),
        })
    }
}

/// Fit entries per (tenant, GPU class), probed on first use — a fit
/// depends on the GPU, not on the phone's budget, so same-class devices
/// (and mid-pass joiners of a known class) share one probe.
#[derive(Default)]
struct FitCache(Vec<((usize, &'static str), FitEntry)>);

impl FitCache {
    fn get(&self, tenant: usize, phone: &Phone) -> Option<FitEntry> {
        self.0
            .iter()
            .find(|((t, gpu), _)| *t == tenant && *gpu == phone.gpu.name)
            .map(|(_, entry)| *entry)
    }
}

/// Places every tenant on up to `replicas` devices: candidates must fit
/// the batch-1 pooled floor next to the already-placed set, ranked by
/// accumulated modeled solo load (then device index). Returns
/// `placement[tenant]` in rank order — the first entry is the tenant's
/// affinity home.
fn place_tenants(
    fit: &[Vec<FitEntry>],
    budgets: &[usize],
    streams: usize,
    replicas: usize,
    paging: bool,
) -> Result<Vec<Vec<usize>>, usize> {
    let devices = budgets.len();
    let mut placement: Vec<Vec<usize>> = vec![Vec::new(); fit.len()];
    let mut placed: Vec<Vec<usize>> = vec![Vec::new(); devices];
    let mut load = vec![0.0f64; devices];
    for t in 0..fit.len() {
        let mut cands: Vec<usize> = (0..devices)
            .filter(|&d| {
                let hosted = || placed[d].iter().chain([&t]).map(|&o| fit[o][d]);
                let weights: Vec<usize> = hosted().map(|f| f.placed_weights(paging)).collect();
                let arenas: Vec<usize> = hosted().map(|f| f.arena1).collect();
                pooled_peak_bytes(&weights, &arenas, streams) <= budgets[d]
            })
            .collect();
        cands.sort_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)));
        let take = replicas.max(1).min(cands.len());
        if take == 0 {
            return Err(t);
        }
        for &d in &cands[..take] {
            placement[t].push(d);
            placed[d].push(t);
            load[d] += fit[t][d].solo_ms;
        }
    }
    Ok(placement)
}

/// Inverts a placement into per-device rosters (tenant ids, ascending).
fn rosters_of(placement: &[Vec<usize>], devices: usize) -> Vec<Vec<usize>> {
    let mut rosters: Vec<Vec<usize>> = vec![Vec::new(); devices];
    for (t, devs) in placement.iter().enumerate() {
        for &d in devs {
            rosters[d].push(t);
        }
    }
    rosters
}

// ---------------------------------------------------------------------------
// The deterministic router core
// ---------------------------------------------------------------------------

/// What the router needs from a device substrate: the [`Fleet`], staged or
/// dry, and the fixed-cost mock the router's unit tests drive it with.
trait RouteSubstrate {
    fn device_count(&self) -> usize;
    /// Modeled per-request service of `tenant` on `device`
    /// (`steady_ms / batch`). Only called for hosted pairs.
    fn service_ms(&self, device: usize, tenant: usize) -> f64;
    /// Cheap feasibility pre-check for hosting `tenant` on `device`.
    fn can_host(&self, device: usize, tenant: usize) -> bool;
    /// Attaches `tenant` to `device` (failure migration); authoritative.
    fn try_migrate(&mut self, device: usize, tenant: usize, at_ms: f64) -> bool;
    /// Brings up a fresh device; returns the tenants it hosts.
    fn try_join(&mut self, phone: &Phone, fault: Option<FaultPlan>, at_ms: f64) -> Vec<usize>;
}

/// A join borrows its device from the caller's event list: an `Ev` as wide
/// as a [`Phone`] once made a full-scale pass's heap a 5 MB block.
#[derive(Debug, Clone)]
enum EvKind<'a> {
    Join {
        phone: &'a Phone,
        fault: &'a Option<FaultPlan>,
    },
    Fail {
        device: usize,
    },
    Arrival {
        tenant: usize,
        index: usize,
        orig_ms: f64,
        prev: Option<usize>,
    },
}

/// A timeline event with a deterministic total order:
/// (time, class, sequence) — joins before failures before arrivals at
/// equal timestamps; re-routed requests get fresh sequence numbers so
/// they land after everything already queued at the failure instant.
struct Ev<'a> {
    at_ms: f64,
    class: u8,
    seq: u64,
    kind: EvKind<'a>,
}

impl PartialEq for Ev<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ev<'_> {}
impl PartialOrd for Ev<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other
            .at_ms
            .total_cmp(&self.at_ms)
            .then(other.class.cmp(&self.class))
            .then(other.seq.cmp(&self.seq))
    }
}

struct RouteCoreOutcome {
    routed: Vec<Vec<Vec<RoutedRequest>>>,
    unrouted: Vec<(usize, usize, f64)>,
    migrations: Vec<FleetMigration>,
    fail_at: Vec<Option<f64>>,
    migrated_by_tenant: Vec<usize>,
}

fn pick_device(policy: RoutePolicy, cands: &[usize], busy: &[f64], rng: &mut StdRng) -> usize {
    debug_assert!(!cands.is_empty());
    match policy {
        RoutePolicy::Random => cands[rng.gen_range(0..cands.len())],
        RoutePolicy::PowerOfTwo => {
            if cands.len() == 1 {
                cands[0]
            } else {
                let i = rng.gen_range(0..cands.len());
                let mut j = rng.gen_range(0..cands.len() - 1);
                if j >= i {
                    j += 1;
                }
                let (a, b) = (cands[i], cands[j]);
                match busy[a].total_cmp(&busy[b]) {
                    Ordering::Less => a,
                    Ordering::Greater => b,
                    Ordering::Equal => a.min(b),
                }
            }
        }
        RoutePolicy::ShortestQueue => cands
            .iter()
            .copied()
            .min_by(|&a, &b| busy[a].total_cmp(&busy[b]).then(a.cmp(&b)))
            .expect("candidates are non-empty"),
        RoutePolicy::TenantAffinity => cands[0],
    }
}

/// Runs the event-driven router over a substrate: requests and cluster
/// events merge on one deterministic timeline; each routed request is
/// charged its modeled service against the device's busy horizon. On a
/// failure the charged horizon splits the device's log into a committed
/// prefix (drained in place) and a migrated suffix (re-enters the router
/// at the failure instant). Arrival timestamps are taken as valid — the
/// serving entry point gates them ([`validate_arrivals`]): each tenant's
/// are sorted, so the heap merges the streams, holding each tenant's next
/// arrival. Tenant `t`'s arrival `i` is sequence `base[t] + i`, events and
/// re-routes after, so ties break as with every arrival queued up front.
///
/// # Cost
///
/// O(N log(T + E)) for N arrivals, T tenants and E events and re-routes,
/// besides the substrate's calls: the heap holds at most T + E entries.
fn route_requests<S: RouteSubstrate>(
    sub: &mut S,
    arrivals_ms: &[Vec<f64>],
    events: &[FleetEvent],
    placement: &[Vec<usize>],
    opts: &FleetOptions,
) -> Result<RouteCoreOutcome, EngineError> {
    let tenants = arrivals_ms.len();
    let (mut base, mut seq) = (Vec::with_capacity(tenants), 0u64);
    for arr in arrivals_ms {
        base.push(seq);
        seq += arr.len() as u64;
    }
    let arrival = |tenant: usize, index: usize| {
        arrivals_ms[tenant].get(index).map(|&a| Ev {
            at_ms: a,
            class: 2,
            seq: base[tenant] + index as u64,
            kind: EvKind::Arrival {
                tenant,
                index,
                orig_ms: a,
                prev: None,
            },
        })
    };
    let mut heap: BinaryHeap<Ev> = (0..tenants).filter_map(|t| arrival(t, 0)).collect();
    for ev in events {
        let at = ev.at_ms();
        if !at.is_finite() || at < 0.0 {
            return Err(EngineError::InputMismatch {
                expected: "finite non-negative event timestamps".into(),
                got: format!("{at}"),
            });
        }
        let (class, kind) = match ev {
            FleetEvent::Join { phone, fault, .. } => (0u8, EvKind::Join { phone, fault }),
            FleetEvent::Fail { device, .. } => (1u8, EvKind::Fail { device: *device }),
        };
        heap.push(Ev {
            at_ms: at,
            class,
            seq,
            kind,
        });
        seq += 1;
    }

    let m0 = sub.device_count();
    let mut live = vec![true; m0];
    let mut busy = vec![0.0f64; m0];
    let mut fail_at: Vec<Option<f64>> = vec![None; m0];
    let mut replicas: Vec<Vec<usize>> = placement.to_vec();
    let mut routed: Vec<Vec<Vec<RoutedRequest>>> = vec![vec![Vec::new(); tenants]; m0];
    // Per device: (tenant, position-in-routed, charged completion) in
    // routing order; completions are non-decreasing, which makes the
    // committed set at a failure a prefix.
    let mut dev_log: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); m0];
    let mut unrouted: Vec<(usize, usize, f64)> = Vec::new();
    let mut migrations: Vec<FleetMigration> = Vec::new();
    let mut migrated_by_tenant = vec![0usize; tenants];
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut cands: Vec<usize> = Vec::new();

    while let Some(ev) = heap.pop() {
        let now = ev.at_ms;
        match ev.kind {
            EvKind::Join { phone, fault } => {
                let hosted = sub.try_join(phone, fault.clone(), now);
                live.push(true);
                busy.push(now);
                fail_at.push(None);
                routed.push(vec![Vec::new(); tenants]);
                dev_log.push(Vec::new());
                let d = live.len() - 1;
                debug_assert_eq!(d + 1, sub.device_count());
                for &t in &hosted {
                    replicas[t].push(d);
                }
            }
            EvKind::Fail { device } => {
                if device >= live.len() || !live[device] {
                    return Err(EngineError::InputMismatch {
                        expected: "a Fail event naming a live device".into(),
                        got: format!("device {device} at {now} ms"),
                    });
                }
                live[device] = false;
                fail_at[device] = Some(now);
                let cut = dev_log[device].partition_point(|&(_, _, c)| c <= now);
                let orphans: Vec<(usize, usize)> = dev_log[device][cut..]
                    .iter()
                    .map(|&(t, pos, _)| (t, pos))
                    .collect();
                dev_log[device].truncate(cut);
                let mut kept = vec![usize::MAX; tenants];
                for &(t, pos) in &orphans {
                    let req = routed[device][t][pos];
                    kept[t] = kept[t].min(pos);
                    heap.push(Ev {
                        at_ms: now,
                        class: 2,
                        seq,
                        kind: EvKind::Arrival {
                            tenant: t,
                            index: req.index,
                            orig_ms: req.arrival_ms,
                            prev: Some(device),
                        },
                    });
                    seq += 1;
                }
                for (t, row) in routed[device].iter_mut().enumerate() {
                    if kept[t] != usize::MAX {
                        row.truncate(kept[t]);
                    }
                }
            }
            EvKind::Arrival {
                tenant,
                index,
                orig_ms,
                prev,
            } => {
                if prev.is_none() {
                    heap.extend(arrival(tenant, index + 1));
                }
                cands.clear();
                cands.extend(replicas[tenant].iter().copied().filter(|&d| live[d]));
                let dest = if cands.is_empty() {
                    // Every replica is dead: migrate the tenant to the
                    // least-busy feasible survivor.
                    let mut targets: Vec<usize> = (0..live.len())
                        .filter(|&d| live[d] && sub.can_host(d, tenant))
                        .collect();
                    targets.sort_by(|&a, &b| busy[a].total_cmp(&busy[b]).then(a.cmp(&b)));
                    let mut chosen = None;
                    for &d in &targets {
                        if sub.try_migrate(d, tenant, now) {
                            chosen = Some(d);
                            break;
                        }
                    }
                    match chosen {
                        Some(d) => {
                            replicas[tenant].push(d);
                            migrations.push(FleetMigration {
                                at_ms: now,
                                tenant,
                                from: prev,
                                to: d,
                            });
                            d
                        }
                        None => {
                            unrouted.push((tenant, index, now));
                            continue;
                        }
                    }
                } else {
                    pick_device(opts.policy, &cands, &busy, &mut rng)
                };
                if prev.is_some() {
                    migrated_by_tenant[tenant] += 1;
                }
                let svc = sub.service_ms(dest, tenant);
                busy[dest] = busy[dest].max(now) + svc;
                let pos = routed[dest][tenant].len();
                routed[dest][tenant].push(RoutedRequest {
                    index,
                    arrival_ms: orig_ms,
                    effective_ms: now,
                });
                dev_log[dest].push((tenant, pos, busy[dest]));
            }
        }
    }

    Ok(RouteCoreOutcome {
        routed,
        unrouted,
        migrations,
        fail_at,
        migrated_by_tenant,
    })
}

// ---------------------------------------------------------------------------
// Report assembly
// ---------------------------------------------------------------------------

struct DeviceRow {
    id: String,
    phone: String,
    failed: bool,
    tenants: usize,
    wall_ms: f64,
    busy_s: f64,
}

impl Fleet {
    /// Closes a pass: requests no live device could host are shed fleet-wide,
    /// every offered request must by then hold exactly one fate (the
    /// conservation invariant), and the fates fold into the aggregate report —
    /// one row per tenant from its name and SLO, its fates and the window
    /// `counts` summed over the devices that served it. Returns the report and
    /// the resolved fates.
    fn assemble_report(
        &self,
        device_rows: Vec<DeviceRow>,
        counts: Vec<WindowCounts>,
        rc: &RouteCoreOutcome,
        mut fates: Vec<Vec<Option<FleetRequestFate>>>,
        arrivals_ms: &[Vec<f64>],
    ) -> (FleetReport, Vec<Vec<FleetRequestFate>>) {
        for &(t, index, at_ms) in &rc.unrouted {
            debug_assert!(fates[t][index].is_none(), "request resolved twice");
            fates[t][index] = Some(FleetRequestFate::Shed {
                device: None,
                at_ms,
                reason: None,
            });
        }
        let fates: Vec<Vec<FleetRequestFate>> = fates
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|f| f.expect("every offered request resolves to exactly one fate"))
                    .collect()
            })
            .collect();
        let migrated_by_tenant = &rc.migrated_by_tenant;

        let wall_ms = device_rows.iter().map(|r| r.wall_ms).fold(0.0f64, f64::max);
        let last_arrival = arrivals_ms
            .iter()
            .filter_map(|a| a.last().copied())
            .fold(0.0f64, f64::max);
        let horizon_ms = wall_ms.max(last_arrival);

        let mut dev_served = vec![0usize; device_rows.len()];
        let mut dev_shed = vec![0usize; device_rows.len()];
        let mut global_lat: Vec<f64> = Vec::new();
        let mut rows = Vec::with_capacity(self.tenants.len());
        for (t, (tenant, counts)) in self.tenants.iter().zip(counts).enumerate() {
            let mut lat: Vec<f64> = Vec::new();
            for fate in &fates[t] {
                match *fate {
                    FleetRequestFate::Served {
                        device, latency_ms, ..
                    } => {
                        dev_served[device] += 1;
                        lat.push(latency_ms);
                    }
                    FleetRequestFate::Shed {
                        device: Some(d), ..
                    } => dev_shed[d] += 1,
                    FleetRequestFate::Shed { device: None, .. } => {}
                }
            }
            global_lat.extend_from_slice(&lat);
            let name = tenant.name.clone();
            rows.push(TenantReport {
                migrated: migrated_by_tenant[t],
                ..TenantReport::new(name, lat, fates[t].len(), tenant.slo_ms, counts)
            });
        }

        let horizon_s = (horizon_ms / 1e3).max(f64::MIN_POSITIVE);
        let devices: Vec<FleetDeviceReport> = device_rows
            .into_iter()
            .enumerate()
            .map(|(d, row)| FleetDeviceReport {
                id: row.id,
                phone: row.phone,
                failed: row.failed,
                tenants: row.tenants,
                offered: dev_served[d] + dev_shed[d],
                served: dev_served[d],
                shed: dev_shed[d],
                utilization: if wall_ms > 0.0 {
                    (row.busy_s / (self.opts.streams as f64 * (wall_ms / 1e3))).clamp(0.0, 1.0)
                } else {
                    0.0
                },
                imgs_per_s: dev_served[d] as f64 / horizon_s,
            })
            .collect();

        let offered: usize = rows.iter().map(|t| t.offered).sum();
        let served: usize = rows.iter().map(|t| t.served).sum();
        let shed: usize = rows.iter().map(|t| t.shed).sum();
        let [p50, p95, p99, p999] = nearest_rank(&global_lat, [0.50, 0.95, 0.99, 0.999]);
        let report = FleetReport {
            policy: self.opts.policy,
            seed: self.opts.seed,
            devices,
            tenants: rows,
            offered,
            served,
            shed,
            migrated: migrated_by_tenant.iter().sum(),
            wall_ms,
            goodput_imgs_per_s: served as f64 / horizon_s,
            p50_ms: p50,
            p95_ms: p95,
            p99_ms: p99,
            p999_ms: p999,
        };
        (report, fates)
    }
}

// ---------------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------------

struct FleetDevice {
    id: String,
    phone: Phone,
    fault: Option<FaultPlan>,
    runtime: Option<DeviceRuntime>,
    /// Fleet tenant id per runtime registry slot, kept in sync through
    /// attach/detach.
    roster: Vec<usize>,
    /// Roster at runtime creation — the solo-replay recipe starts here.
    birth_roster: Vec<usize>,
}

/// M simulated devices behind one deterministic router: placement at
/// admission, per-request steering by a [`RoutePolicy`], failure
/// migration through [`DeviceRuntime::attach`] / [`detach`], and
/// fleet-wide percentile accounting.
///
/// A fleet is built once and driven through one
/// [`Fleet::serve_open_loop`] pass; failure migration mutates device
/// rosters, so build a fresh fleet per pass (the determinism tests build
/// two and compare).
///
/// [`detach`]: DeviceRuntime::detach
pub struct Fleet {
    devices: Vec<FleetDevice>,
    tenants: Vec<Registration>,
    placement: Vec<Vec<usize>>,
    opts: FleetOptions,
    fit_cache: FitCache,
    attach_log: Vec<FleetAction>,
}

impl Fleet {
    /// Builds the fleet: computes every tenant's batch-1 footprint per
    /// phone class, places tenants (weight-budget + modeled-load aware,
    /// up to [`FleetOptions::replicas`] replicas), brings up one
    /// [`DeviceRuntime`] per non-empty device (`dev0`, `dev1`, …) with its
    /// fault plan installed on the device's clock.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] for an empty device or
    /// tenant list, zero streams or replicas, or a tenant no device can
    /// host at the batch-1 pooled floor; otherwise as
    /// [`DeviceRuntime::new_with_budget`].
    pub fn new(
        devices: Vec<FleetDeviceSpec>,
        tenants: Vec<TenantSpec>,
        opts: FleetOptions,
    ) -> Result<Self, EngineError> {
        let tenants = tenants.into_iter().map(Registration::from).collect();
        Self::place(devices, tenants, opts)
    }

    /// [`Fleet::new`] from architectures alone — a **dry** fleet: the same
    /// placement, router, migration and report over
    /// [dry](DeviceRuntime::dry) device runtimes, nothing staged, no kernel
    /// run. Feed its pass [`TenantTraffic::Count`]; `outputs` stay empty.
    ///
    /// # Errors
    ///
    /// As [`Fleet::new`].
    pub fn dry(
        devices: Vec<FleetDeviceSpec>,
        tenants: &[TenantWorkload<'_>],
        opts: FleetOptions,
    ) -> Result<Self, EngineError> {
        let tenants = tenants.iter().map(Registration::from).collect();
        Self::place(devices, tenants, opts)
    }

    fn place(
        devices: Vec<FleetDeviceSpec>,
        tenants: Vec<Registration>,
        opts: FleetOptions,
    ) -> Result<Self, EngineError> {
        if devices.is_empty() || tenants.is_empty() || opts.streams == 0 || opts.replicas == 0 {
            return Err(EngineError::InputMismatch {
                expected: ">= 1 device, >= 1 tenant, >= 1 stream, >= 1 replica".into(),
                got: format!(
                    "{} devices, {} tenants, {} streams, {} replicas",
                    devices.len(),
                    tenants.len(),
                    opts.streams,
                    opts.replicas
                ),
            });
        }
        let mut fleet = Fleet {
            devices: Vec::new(),
            tenants,
            placement: Vec::new(),
            opts,
            fit_cache: FitCache::default(),
            attach_log: Vec::new(),
        };
        let mut fit: Vec<Vec<FitEntry>> = Vec::with_capacity(fleet.tenants.len());
        for t in 0..fleet.tenants.len() {
            let mut row = Vec::with_capacity(devices.len());
            for spec in &devices {
                row.push(fleet.fit_for(t, &spec.phone)?);
            }
            fit.push(row);
        }
        let budgets: Vec<usize> = devices.iter().map(|d| d.phone.app_budget_bytes()).collect();
        let placement = place_tenants(
            &fit,
            &budgets,
            fleet.opts.streams,
            fleet.opts.replicas,
            fleet.opts.weight_paging,
        )
        .map_err(|t| EngineError::InputMismatch {
            expected: format!(
                "a device able to host tenant `{}` at the batch-1 pooled floor",
                fleet.tenants[t].name
            ),
            got: "no feasible device".into(),
        })?;

        let rosters = rosters_of(&placement, devices.len());
        for (d, (spec, roster)) in devices.into_iter().zip(rosters).enumerate() {
            let id = format!("dev{d}");
            let runtime = fleet.start_runtime(&spec.phone, spec.fault.clone(), &roster)?;
            fleet.devices.push(FleetDevice {
                id,
                phone: spec.phone,
                fault: spec.fault,
                runtime,
                birth_roster: roster.clone(),
                roster,
            });
        }
        fleet.placement = placement;
        Ok(fleet)
    }

    fn fit_for(&mut self, tenant: usize, phone: &Phone) -> Result<FitEntry, EngineError> {
        if let Some(entry) = self.fit_cache.get(tenant, phone) {
            return Ok(entry);
        }
        let entry = FitEntry::probe(&self.tenants[tenant].ask(), phone)?;
        self.fit_cache.0.push(((tenant, phone.gpu.name), entry));
        Ok(entry)
    }

    /// Starts the runtime a device hosts `roster` with (none for an empty
    /// roster): one [`DeviceRuntime`] over the roster's tenants, admitted
    /// under the device's paged weight budget when the fleet pages, its
    /// fault plan installed on its clock.
    fn start_runtime(
        &mut self,
        phone: &Phone,
        fault: Option<FaultPlan>,
        roster: &[usize],
    ) -> Result<Option<DeviceRuntime>, EngineError> {
        if roster.is_empty() {
            return Ok(None);
        }
        let subset: Vec<Registration> = roster.iter().map(|&t| self.tenants[t].clone()).collect();
        let streams = self.opts.streams;
        // A paged device admits under its app budget minus the batch-1
        // arena pool of the tenants it hosts. Placement checks
        // `Σ floors + streams × arena ≤ budget`, so a placed roster's
        // paged floors always fit this ceiling.
        let wb = self.opts.weight_paging.then(|| {
            let hosted = roster.iter().filter_map(|&t| self.fit_cache.get(t, phone));
            let arenas: Vec<usize> = hosted.map(|f| f.arena1).collect();
            phone
                .app_budget_bytes()
                .saturating_sub(pooled_peak_bytes(&[], &arenas, streams))
        });
        let rt = DeviceRuntime::register(subset, phone, streams, wb)?;
        rt.clock().set_fault_plan(fault);
        Ok(Some(rt))
    }

    /// Devices currently in the fleet (initial + joined).
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The devices `tenant` was placed on at admission, rank order (the
    /// first entry is its affinity home).
    pub fn placement(&self, tenant: usize) -> &[usize] {
        &self.placement[tenant]
    }

    /// The roster `device`'s runtime was created with — replaying
    /// `DeviceRuntime::new(birth_roster)` plus the outcome's
    /// [`FleetAction`]s reconstructs the runtime exactly.
    pub fn birth_roster(&self, device: usize) -> &[usize] {
        &self.devices[device].birth_roster
    }

    /// Runs one open-loop pass across the fleet: merges per-tenant
    /// arrivals with the cluster `events` on one deterministic timeline,
    /// routes every request, serves each device's committed slice with
    /// [`DeviceRuntime::serve_open_loop`]'s pass short of its fold, and
    /// folds each request's fate and bit-exact output once, in global
    /// arrival order.
    ///
    /// `traffic[t]` and `arrivals_ms[t]` are the tenant's **global**
    /// request stream; arrivals must be sorted (ties allowed), finite and
    /// non-negative. A tenant fed a payload-free [`TenantTraffic::Count`]
    /// (a dry fleet's traffic) gets no output slots.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] for traffic or arrivals that
    /// do not line up with the tenants, an event with a negative or
    /// non-finite timestamp, or a [`FleetEvent::Fail`] naming a device that
    /// is unknown or already dead at that instant; otherwise as
    /// [`DeviceRuntime::serve_open_loop`].
    pub fn serve_open_loop(
        &mut self,
        traffic: &[TenantTraffic<'_>],
        arrivals_ms: &[Vec<f64>],
        events: &[FleetEvent],
    ) -> Result<FleetOutcome, EngineError> {
        validate_arrivals(self.tenants.len(), traffic, arrivals_ms)?;

        self.attach_log.clear();
        let placement = self.placement.clone();
        let opts = self.opts.clone();
        let rc = route_requests(self, arrivals_ms, events, &placement, &opts)?;
        let mut actions = std::mem::take(&mut self.attach_log);

        // Decommission tenants with zero committed requests on dead
        // devices (while the runtime keeps >= 2 tenants — the registry
        // refuses to detach its last), so the drain is not modeled under
        // phantom contention.
        for d in 0..self.devices.len() {
            let Some(at_ms) = rc.fail_at[d] else { continue };
            let dev = &mut self.devices[d];
            let Some(rt) = dev.runtime.as_mut() else {
                continue;
            };
            let idle: Vec<usize> = dev
                .roster
                .iter()
                .copied()
                .filter(|&t| rc.routed[d][t].is_empty())
                .collect();
            for t in idle {
                if dev.roster.len() <= 1 {
                    break;
                }
                let slot = dev
                    .roster
                    .iter()
                    .position(|&x| x == t)
                    .expect("roster tracks the registry");
                rt.detach(slot)?;
                dev.roster.remove(slot);
                actions.push(FleetAction::Detach {
                    at_ms,
                    tenant: t,
                    device: d,
                });
            }
        }

        // Serve every device's committed slice.
        let mut outputs: Vec<Vec<Option<ActivationData>>> = traffic
            .iter()
            .map(|q| match q {
                TenantTraffic::Count(_) => Vec::new(),
                q => vec![None; q.len()],
            })
            .collect();
        let mut fates: Vec<Vec<Option<FleetRequestFate>>> =
            arrivals_ms.iter().map(|a| vec![None; a.len()]).collect();
        let mut counts = vec![WindowCounts::default(); self.tenants.len()];
        let mut device_rows: Vec<DeviceRow> = Vec::with_capacity(self.devices.len());
        for d in 0..self.devices.len() {
            let roster = self.devices[d].roster.clone();
            let total: usize = roster.iter().map(|&t| rc.routed[d][t].len()).sum();
            let mut wall_ms = 0.0;
            let mut busy_s = 0.0;
            if self.devices[d].runtime.is_some() && total > 0 {
                enum Owned {
                    U8(Vec<Tensor<u8>>),
                    F32(Vec<Tensor<f32>>),
                    Count(usize),
                }
                let mut owned: Vec<Owned> = Vec::with_capacity(roster.len());
                let mut eff: Vec<Vec<f64>> = Vec::with_capacity(roster.len());
                for &t in &roster {
                    let list = &rc.routed[d][t];
                    owned.push(match traffic[t] {
                        TenantTraffic::U8(reqs) => {
                            Owned::U8(list.iter().map(|r| reqs[r.index].clone()).collect())
                        }
                        TenantTraffic::F32(reqs) => {
                            Owned::F32(list.iter().map(|r| reqs[r.index].clone()).collect())
                        }
                        TenantTraffic::Count(_) => Owned::Count(list.len()),
                    });
                    eff.push(list.iter().map(|r| r.effective_ms).collect());
                }
                let slices: Vec<TenantTraffic<'_>> = owned
                    .iter()
                    .map(|o| match o {
                        Owned::U8(v) => TenantTraffic::U8(v),
                        Owned::F32(v) => TenantTraffic::F32(v),
                        Owned::Count(n) => TenantTraffic::Count(*n),
                    })
                    .collect();
                let rt = self.devices[d].runtime.as_mut().expect("checked above");
                let run = rt.run_open_loop(&slices, &eff, &opts.open_loop)?;
                let schedule = &run.schedule;
                wall_ms = schedule.wall_ms;
                // Busy seconds off the modeled schedule, not the clock's
                // counter: attempts execute for exactly their modeled time
                // (the no-drift invariant), and the counter sums in thread
                // order, whose float rounding is not reproducible.
                busy_s = schedule
                    .attempts
                    .iter()
                    .map(|a| (a.end_ms - a.start_ms) / 1e3)
                    .sum();
                for (slot, (&t, out)) in roster.iter().zip(run.outputs).enumerate() {
                    let list = &rc.routed[d][t];
                    let batch = rt.tenants()[slot].plan().batch;
                    let requests =
                        request_fates(&schedule.fates[slot], list, batch, |r| r.arrival_ms);
                    for (req, fate, latency_ms) in requests {
                        let resolved = &mut fates[t][req.index];
                        debug_assert!(resolved.is_none(), "request resolved twice");
                        *resolved = Some(match *fate {
                            WindowFate::Served { end_ms, .. } => FleetRequestFate::Served {
                                device: d,
                                end_ms,
                                latency_ms: latency_ms.expect("a served request is timed"),
                            },
                            WindowFate::Shed { at_ms, reason, .. } => FleetRequestFate::Shed {
                                device: Some(d),
                                at_ms,
                                reason: Some(reason),
                            },
                        });
                    }
                    counts[t].add(schedule, slot, batch);
                    for (req, out) in list.iter().zip(out) {
                        outputs[t][req.index] = out;
                    }
                }
            }
            let dev = &self.devices[d];
            device_rows.push(DeviceRow {
                id: dev.id.clone(),
                phone: dev.phone.name.to_string(),
                failed: rc.fail_at[d].is_some(),
                tenants: dev.roster.len(),
                wall_ms,
                busy_s,
            });
        }
        let (report, fates) = self.assemble_report(device_rows, counts, &rc, fates, arrivals_ms);
        Ok(FleetOutcome {
            report,
            outputs,
            fates,
            routed: rc.routed,
            migrations: rc.migrations,
            actions,
        })
    }
}

impl RouteSubstrate for Fleet {
    fn device_count(&self) -> usize {
        self.devices.len()
    }

    fn service_ms(&self, device: usize, tenant: usize) -> f64 {
        let dev = &self.devices[device];
        let slot = dev
            .roster
            .iter()
            .position(|&t| t == tenant)
            .expect("service_ms is only asked for hosted tenants");
        let rt = dev.runtime.as_ref().expect("hosted implies a runtime");
        let ten = &rt.tenants()[slot];
        ten.modeled_window_ms().1 / ten.plan().batch.max(1) as f64
    }

    fn can_host(&self, device: usize, tenant: usize) -> bool {
        let dev = &self.devices[device];
        if dev.roster.contains(&tenant) {
            return false;
        }
        let Some(fit) = self.fit_cache.get(tenant, &dev.phone) else {
            return false;
        };
        let budget = dev.phone.app_budget_bytes();
        let need = fit.placed_weights(self.opts.weight_paging);
        match &dev.runtime {
            // Alone on an empty device, the tenant brings its own arena pool.
            None => pooled_peak_bytes(&[need], &[fit.arena1], self.opts.streams) <= budget,
            // Else it must fit the existing pool slice — never regrown —
            // and the budget left next to the bytes already held.
            Some(rt) => fit.arena1 <= rt.pool_slice_bytes() && rt.resident_bytes() + need <= budget,
        }
    }

    fn try_migrate(&mut self, device: usize, tenant: usize, at_ms: f64) -> bool {
        if let Some(rt) = self.devices[device].runtime.as_mut() {
            // The attach path reuses the weight budget the runtime was
            // born with.
            if rt
                .attach_registration(self.tenants[tenant].clone())
                .is_err()
            {
                return false;
            }
            self.devices[device].roster.push(tenant);
            self.attach_log.push(FleetAction::Attach {
                at_ms,
                tenant,
                device,
            });
            return true;
        }
        // An empty device starts a fresh runtime around the tenant.
        let dev = &self.devices[device];
        let (phone, fault) = (dev.phone.clone(), dev.fault.clone());
        let Ok(runtime) = self.start_runtime(&phone, fault, &[tenant]) else {
            return false;
        };
        let dev = &mut self.devices[device];
        dev.runtime = runtime;
        dev.roster = vec![tenant];
        dev.birth_roster = vec![tenant];
        true
    }

    fn try_join(&mut self, phone: &Phone, fault: Option<FaultPlan>, _at_ms: f64) -> Vec<usize> {
        // Greedy packing in tenant order: a tenant joins while
        // `Σ placed weights + streams × max arena` still fits the budget.
        let (budget, streams) = (phone.app_budget_bytes(), self.opts.streams);
        let mut hosted = Vec::new();
        let (mut weights, mut arena) = (0usize, 0usize);
        for t in 0..self.tenants.len() {
            let Ok(fit) = self.fit_for(t, phone) else {
                continue;
            };
            let need = fit.placed_weights(self.opts.weight_paging);
            if pooled_peak_bytes(&[weights, need], &[arena, fit.arena1], streams) <= budget {
                hosted.push(t);
                weights += need;
                arena = arena.max(fit.arena1);
            }
        }
        let id = format!("dev{}", self.devices.len());
        // A roster the runtime refuses leaves the device up but empty.
        let runtime = self
            .start_runtime(phone, fault.clone(), &hosted)
            .unwrap_or_else(|_| {
                hosted.clear();
                None
            });
        self.devices.push(FleetDevice {
            id,
            phone: phone.clone(),
            fault,
            runtime,
            roster: hosted.clone(),
            birth_roster: hosted.clone(),
        });
        hosted
    }
}

/// Models one fleet pass at full scale: a [dry](Fleet::dry) fleet over the
/// workloads' architectures serves the counts of their seeded arrivals
/// over `duration_ms` through [`Fleet::serve_open_loop`] itself, so the
/// report is the one a fleet over the same tenants with weights would hand
/// back. This is what the `fleet_report` bench bin sweeps across policies,
/// fleet sizes and Zipf skews.
///
/// # Panics
///
/// Panics with the [`EngineError`]'s text where [`Fleet::dry`] and
/// [`Fleet::serve_open_loop`] return one: empty inputs, zero streams or
/// replicas, a tenant that fits no device or whose architecture cannot be
/// lowered, malformed `events` — and when `duration_ms` is not finite and
/// positive.
pub fn estimate_fleet(
    devices: &[FleetDeviceSpec],
    workloads: &[OpenLoopWorkload<'_>],
    duration_ms: f64,
    events: &[FleetEvent],
    opts: &FleetOptions,
) -> FleetReport {
    let pass = || -> Result<FleetReport, EngineError> {
        let (tenants, arrivals_ms) = dry_inputs(workloads, duration_ms)?;
        let counts = TenantTraffic::counts(&arrivals_ms);
        let mut fleet = Fleet::dry(devices.to_vec(), &tenants, opts.clone())?;
        Ok(fleet.serve_open_loop(&counts, &arrivals_ms, events)?.report)
    };
    pass().unwrap_or_else(|e| panic!("estimate_fleet: {e}"))
}

// ---------------------------------------------------------------------------
// Tests (pure pieces; the cross-fleet invariants live in tests/fleet.rs)
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rates_sum_and_skew() {
        let flat = zipf_rates(100.0, 4, 0.0);
        assert!(flat.iter().all(|&r| (r - 25.0).abs() < 1e-9));
        let skewed = zipf_rates(100.0, 4, 1.2);
        assert!((skewed.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert!(skewed.windows(2).all(|w| w[0] > w[1]));
        assert!(skewed[0] > 40.0);
    }

    #[test]
    fn route_policy_parse_round_trips_and_names_bad_token() {
        for p in RoutePolicy::ALL {
            assert_eq!(RoutePolicy::parse(p.name()), Ok(p));
        }
        assert_eq!(
            RoutePolicy::parse(" Shortest-Queue "),
            Ok(RoutePolicy::ShortestQueue)
        );
        let err = RoutePolicy::parse("round-robin").unwrap_err();
        assert!(err.contains("`round-robin`"), "{err}");
    }

    #[test]
    fn placement_spreads_by_load_and_respects_budget() {
        // Two devices; tenant 0 fits both, tenant 1 only device 1.
        let entry = |weights: usize, solo_ms: f64| FitEntry {
            weights,
            arena1: 10,
            solo_ms,
            paged_floor: weights / 4,
        };
        let fit = vec![
            vec![entry(100, 5.0), entry(100, 5.0)],
            vec![entry(900, 9.0), entry(100, 9.0)],
        ];
        let budgets = vec![300, 300];
        let placement = place_tenants(&fit, &budgets, 2, 1, false).expect("both fit");
        assert_eq!(placement[0], vec![0]);
        assert_eq!(placement[1], vec![1]);
        // Unplaceable tenant reports its index.
        let tight = vec![vec![entry(1000, 1.0)]];
        assert_eq!(place_tenants(&tight, &[300], 2, 1, false), Err(0));
        // Weight paging charges the floor instead: the same tenant places.
        let paged = place_tenants(&tight, &[300], 2, 1, true).expect("floor fits");
        assert_eq!(paged[0], vec![0]);
    }

    /// A substrate with fixed per-request service and unbounded hosting.
    struct MockSub {
        devices: usize,
        svc: f64,
        hosted: Vec<Vec<usize>>,
        allow_migrate: bool,
    }

    impl RouteSubstrate for MockSub {
        fn device_count(&self) -> usize {
            self.devices
        }
        fn service_ms(&self, _d: usize, _t: usize) -> f64 {
            self.svc
        }
        fn can_host(&self, _d: usize, _t: usize) -> bool {
            self.allow_migrate
        }
        fn try_migrate(&mut self, d: usize, t: usize, _at: f64) -> bool {
            if self.allow_migrate {
                self.hosted[d].push(t);
                true
            } else {
                false
            }
        }
        fn try_join(&mut self, _phone: &Phone, _fault: Option<FaultPlan>, _at: f64) -> Vec<usize> {
            self.devices += 1;
            self.hosted.push(Vec::new());
            Vec::new()
        }
    }

    fn conserved(rc: &RouteCoreOutcome, arrivals: &[Vec<f64>]) {
        for (t, arr) in arrivals.iter().enumerate() {
            let mut seen = vec![0usize; arr.len()];
            for dev in &rc.routed {
                for r in &dev[t] {
                    seen[r.index] += 1;
                }
            }
            for &(ut, ui, _) in &rc.unrouted {
                if ut == t {
                    seen[ui] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "tenant {t}: every request exactly once, got {seen:?}"
            );
        }
    }

    #[test]
    fn router_core_conserves_and_migrates_uncommitted_on_failure() {
        let arrivals = vec![(0..20).map(|i| i as f64 * 10.0).collect::<Vec<f64>>()];
        let placement = vec![vec![0, 1]];
        let opts = FleetOptions::default();
        let mut sub = MockSub {
            devices: 2,
            svc: 50.0,
            hosted: vec![vec![0], vec![0]],
            allow_migrate: false,
        };
        let events = vec![FleetEvent::Fail {
            at_ms: 95.0,
            device: 0,
        }];
        let rc = route_requests(&mut sub, &arrivals, &events, &placement, &opts).unwrap();
        conserved(&rc, &arrivals);
        assert_eq!(rc.fail_at[0], Some(95.0));
        // Committed prefix only: everything still on device 0 completed
        // by the failure instant (service charged against its horizon).
        assert!(rc.routed[0][0].iter().all(|r| r.effective_ms < 95.0));
        // Re-routed requests re-enter at the failure instant.
        assert!(rc.routed[1][0]
            .iter()
            .filter(|r| r.effective_ms != r.arrival_ms)
            .all(|r| r.effective_ms == 95.0));
        assert!(rc.migrated_by_tenant[0] > 0);
        // Arrivals stay sorted per device (ties allowed).
        for dev in &rc.routed {
            assert!(dev[0]
                .windows(2)
                .all(|w| w[1].effective_ms >= w[0].effective_ms));
        }
    }

    #[test]
    fn router_core_sheds_when_no_device_can_host() {
        let arrivals = vec![vec![0.0, 5.0]];
        let placement = vec![vec![0]];
        let opts = FleetOptions::default();
        let mut sub = MockSub {
            devices: 1,
            svc: 1.0,
            hosted: vec![vec![0]],
            allow_migrate: false,
        };
        let events = vec![FleetEvent::Fail {
            at_ms: 0.0,
            device: 0,
        }];
        let rc = route_requests(&mut sub, &arrivals, &events, &placement, &opts).unwrap();
        conserved(&rc, &arrivals);
        assert_eq!(rc.unrouted.len(), 2);
        assert!(rc.migrations.is_empty());
    }

    #[test]
    fn router_core_is_deterministic_per_seed_and_policy() {
        let arrivals: Vec<Vec<f64>> = (0..3)
            .map(|t| (0..30).map(|i| (i * 7 + t) as f64).collect())
            .collect();
        let placement = vec![vec![0, 1], vec![1, 2], vec![2, 0]];
        for policy in RoutePolicy::ALL {
            let opts = FleetOptions {
                policy,
                ..FleetOptions::default()
            };
            let run = || {
                let mut sub = MockSub {
                    devices: 3,
                    svc: 4.0,
                    hosted: vec![vec![0, 2], vec![0, 1], vec![1, 2]],
                    allow_migrate: false,
                };
                route_requests(&mut sub, &arrivals, &[], &placement, &opts).unwrap()
            };
            let (a, b) = (run(), run());
            assert_eq!(a.routed, b.routed, "{policy:?} must be deterministic");
            conserved(&a, &arrivals);
        }
    }

    #[test]
    fn shortest_queue_balances_better_than_affinity() {
        let arrivals = vec![(0..40).map(|i| i as f64).collect::<Vec<f64>>()];
        let placement = vec![vec![0, 1]];
        let counts = |policy: RoutePolicy| {
            let opts = FleetOptions {
                policy,
                ..FleetOptions::default()
            };
            let mut sub = MockSub {
                devices: 2,
                svc: 10.0,
                hosted: vec![vec![0], vec![0]],
                allow_migrate: false,
            };
            let rc = route_requests(&mut sub, &arrivals, &[], &placement, &opts).unwrap();
            (rc.routed[0][0].len(), rc.routed[1][0].len())
        };
        let (a0, a1) = counts(RoutePolicy::TenantAffinity);
        assert_eq!((a0, a1), (40, 0), "affinity pins to the home device");
        let (s0, s1) = counts(RoutePolicy::ShortestQueue);
        assert_eq!(s0 + s1, 40);
        assert!(s0.abs_diff(s1) <= 1, "jsq balances: {s0} vs {s1}");
    }

    /// The router as it was before the merge, kept verbatim as its oracle:
    /// every arrival queued on one heap before the first pop.
    fn reference_route_requests<S: RouteSubstrate>(
        sub: &mut S,
        arrivals_ms: &[Vec<f64>],
        events: &[FleetEvent],
        placement: &[Vec<usize>],
        opts: &FleetOptions,
    ) -> Result<RouteCoreOutcome, EngineError> {
        let tenants = arrivals_ms.len();
        let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
        let mut seq = 0u64;
        for (t, arr) in arrivals_ms.iter().enumerate() {
            for (i, &a) in arr.iter().enumerate() {
                heap.push(Ev {
                    at_ms: a,
                    class: 2,
                    seq,
                    kind: EvKind::Arrival {
                        tenant: t,
                        index: i,
                        orig_ms: a,
                        prev: None,
                    },
                });
                seq += 1;
            }
        }
        for ev in events {
            let at = ev.at_ms();
            if !at.is_finite() || at < 0.0 {
                return Err(EngineError::InputMismatch {
                    expected: "finite non-negative event timestamps".into(),
                    got: format!("{at}"),
                });
            }
            let (class, kind) = match ev {
                FleetEvent::Join { phone, fault, .. } => (0u8, EvKind::Join { phone, fault }),
                FleetEvent::Fail { device, .. } => (1u8, EvKind::Fail { device: *device }),
            };
            heap.push(Ev {
                at_ms: at,
                class,
                seq,
                kind,
            });
            seq += 1;
        }

        let m0 = sub.device_count();
        let mut live = vec![true; m0];
        let mut busy = vec![0.0f64; m0];
        let mut fail_at: Vec<Option<f64>> = vec![None; m0];
        let mut replicas: Vec<Vec<usize>> = placement.to_vec();
        let mut routed: Vec<Vec<Vec<RoutedRequest>>> = vec![vec![Vec::new(); tenants]; m0];
        // Per device: (tenant, position-in-routed, charged completion) in
        // routing order; completions are non-decreasing, which makes the
        // committed set at a failure a prefix.
        let mut dev_log: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); m0];
        let mut unrouted: Vec<(usize, usize, f64)> = Vec::new();
        let mut migrations: Vec<FleetMigration> = Vec::new();
        let mut migrated_by_tenant = vec![0usize; tenants];
        let mut rng = StdRng::seed_from_u64(opts.seed);

        while let Some(ev) = heap.pop() {
            let now = ev.at_ms;
            match ev.kind {
                EvKind::Join { phone, fault } => {
                    let hosted = sub.try_join(phone, fault.clone(), now);
                    live.push(true);
                    busy.push(now);
                    fail_at.push(None);
                    routed.push(vec![Vec::new(); tenants]);
                    dev_log.push(Vec::new());
                    let d = live.len() - 1;
                    debug_assert_eq!(d + 1, sub.device_count());
                    for &t in &hosted {
                        replicas[t].push(d);
                    }
                }
                EvKind::Fail { device } => {
                    if device >= live.len() || !live[device] {
                        return Err(EngineError::InputMismatch {
                            expected: "a Fail event naming a live device".into(),
                            got: format!("device {device} at {now} ms"),
                        });
                    }
                    live[device] = false;
                    fail_at[device] = Some(now);
                    let cut = dev_log[device].partition_point(|&(_, _, c)| c <= now);
                    let orphans: Vec<(usize, usize)> = dev_log[device][cut..]
                        .iter()
                        .map(|&(t, pos, _)| (t, pos))
                        .collect();
                    dev_log[device].truncate(cut);
                    let mut kept = vec![usize::MAX; tenants];
                    for &(t, pos) in &orphans {
                        let req = routed[device][t][pos];
                        kept[t] = kept[t].min(pos);
                        heap.push(Ev {
                            at_ms: now,
                            class: 2,
                            seq,
                            kind: EvKind::Arrival {
                                tenant: t,
                                index: req.index,
                                orig_ms: req.arrival_ms,
                                prev: Some(device),
                            },
                        });
                        seq += 1;
                    }
                    for (t, row) in routed[device].iter_mut().enumerate() {
                        if kept[t] != usize::MAX {
                            row.truncate(kept[t]);
                        }
                    }
                }
                EvKind::Arrival {
                    tenant,
                    index,
                    orig_ms,
                    prev,
                } => {
                    let cands: Vec<usize> = replicas[tenant]
                        .iter()
                        .copied()
                        .filter(|&d| live[d])
                        .collect();
                    let dest = if cands.is_empty() {
                        // Every replica is dead: migrate the tenant to the
                        // least-busy feasible survivor.
                        let mut targets: Vec<usize> = (0..live.len())
                            .filter(|&d| live[d] && sub.can_host(d, tenant))
                            .collect();
                        targets.sort_by(|&a, &b| busy[a].total_cmp(&busy[b]).then(a.cmp(&b)));
                        let mut chosen = None;
                        for &d in &targets {
                            if sub.try_migrate(d, tenant, now) {
                                chosen = Some(d);
                                break;
                            }
                        }
                        match chosen {
                            Some(d) => {
                                replicas[tenant].push(d);
                                migrations.push(FleetMigration {
                                    at_ms: now,
                                    tenant,
                                    from: prev,
                                    to: d,
                                });
                                d
                            }
                            None => {
                                unrouted.push((tenant, index, now));
                                continue;
                            }
                        }
                    } else {
                        pick_device(opts.policy, &cands, &busy, &mut rng)
                    };
                    if prev.is_some() {
                        migrated_by_tenant[tenant] += 1;
                    }
                    let svc = sub.service_ms(dest, tenant);
                    busy[dest] = busy[dest].max(now) + svc;
                    let pos = routed[dest][tenant].len();
                    routed[dest][tenant].push(RoutedRequest {
                        index,
                        arrival_ms: orig_ms,
                        effective_ms: now,
                    });
                    dev_log[dest].push((tenant, pos, busy[dest]));
                }
            }
        }

        Ok(RouteCoreOutcome {
            routed,
            unrouted,
            migrations,
            fail_at,
            migrated_by_tenant,
        })
    }

    /// A substrate whose service, hosting, migration and joins vary by
    /// device and tenant, so every policy's pick and every fallback shows.
    #[derive(Clone, Debug, PartialEq)]
    struct GridSub {
        devices: usize,
        tenants: usize,
        salt: usize,
        hosted: Vec<Vec<usize>>,
    }

    impl RouteSubstrate for GridSub {
        fn device_count(&self) -> usize {
            self.devices
        }
        fn service_ms(&self, d: usize, t: usize) -> f64 {
            0.5 + ((d * 7 + t * 3 + self.salt) % 5) as f64
        }
        fn can_host(&self, d: usize, t: usize) -> bool {
            !(d + t + self.salt).is_multiple_of(3)
        }
        fn try_migrate(&mut self, d: usize, t: usize, _at: f64) -> bool {
            let ok = (d * t + self.salt) % 4 != 1;
            if ok {
                self.hosted[d].push(t);
            }
            ok
        }
        fn try_join(&mut self, _phone: &Phone, _fault: Option<FaultPlan>, _at: f64) -> Vec<usize> {
            let d = self.devices;
            self.devices += 1;
            let hosted: Vec<usize> = (0..self.tenants)
                .filter(|&t| (d + t + self.salt).is_multiple_of(2))
                .collect();
            self.hosted.push(hosted.clone());
            hosted
        }
    }

    /// The merge routes exactly as the all-arrivals heap: 1–5 tenants (some
    /// empty) on a coarse time grid, so equal timestamps meet within and
    /// across tenants; joins and failures on arrival instants, failures
    /// re-routing uncommitted work and migrating orphaned tenants; every
    /// policy, one to three replicas.
    #[test]
    fn merged_router_equals_the_all_arrivals_heap() {
        let mut rng = StdRng::seed_from_u64(0x5EED_F1EE7);
        let (mut reroutes, mut migrations, mut unrouted, mut errors) = (0, 0, 0, 0);
        for _case in 0..300 {
            let tenants = rng.gen_range(1..6usize);
            let arrivals: Vec<Vec<f64>> = (0..tenants)
                .map(|_| {
                    let n = if rng.gen_range(0..4) == 0 {
                        0
                    } else {
                        rng.gen_range(1..41)
                    };
                    let mut at = 0.0;
                    (0..n)
                        .map(|_| {
                            at += [0.0, 0.5, 1.0, 2.5][rng.gen_range(0..4usize)];
                            at
                        })
                        .collect()
                })
                .collect();
            let instants: Vec<f64> = arrivals.iter().flatten().copied().collect();
            let devices = rng.gen_range(1..5usize);
            let replicas = rng.gen_range(1..4usize).min(devices);
            let placement: Vec<Vec<usize>> = (0..tenants)
                .map(|_| {
                    let first = rng.gen_range(0..devices);
                    (0..replicas).map(|r| (first + r) % devices).collect()
                })
                .collect();
            let mut events = Vec::new();
            for _ in 0..rng.gen_range(0..4usize) {
                let at_ms = if instants.is_empty() || rng.gen_range(0..3) == 0 {
                    rng.gen_range(0..60usize) as f64 * 0.5
                } else {
                    instants[rng.gen_range(0..instants.len())]
                };
                events.push(if rng.gen_range(0..3) == 0 {
                    FleetEvent::Join {
                        at_ms,
                        phone: Phone::xiaomi_9(),
                        fault: None,
                    }
                } else {
                    FleetEvent::Fail {
                        at_ms,
                        device: rng.gen_range(0..devices + 1),
                    }
                });
            }
            let sub = GridSub {
                devices,
                tenants,
                salt: rng.gen_range(0..12usize),
                hosted: vec![Vec::new(); devices],
            };
            for policy in RoutePolicy::ALL {
                let opts = FleetOptions {
                    policy,
                    seed: rng.gen_range(0..u64::MAX),
                    ..FleetOptions::default()
                };
                let (mut merged, mut reference) = (sub.clone(), sub.clone());
                let got = route_requests(&mut merged, &arrivals, &events, &placement, &opts);
                let want =
                    reference_route_requests(&mut reference, &arrivals, &events, &placement, &opts);
                assert_eq!(merged, reference, "{policy:?}: substrate calls differ");
                let (got, want) = match (got, want) {
                    (Ok(got), Ok(want)) => (got, want),
                    (Err(got), Err(want)) => {
                        assert_eq!(got.to_string(), want.to_string());
                        errors += 1;
                        continue;
                    }
                    (got, want) => panic!("{policy:?}: {:?} vs {:?}", got.is_ok(), want.is_ok()),
                };
                assert_eq!(
                    got.routed, want.routed,
                    "{policy:?}: {arrivals:?} {events:?}"
                );
                assert_eq!(got.unrouted, want.unrouted);
                assert_eq!(got.migrations, want.migrations);
                assert_eq!(got.fail_at, want.fail_at);
                assert_eq!(got.migrated_by_tenant, want.migrated_by_tenant);
                conserved(&got, &arrivals);
                reroutes += got.migrated_by_tenant.iter().sum::<usize>();
                migrations += got.migrations.len();
                unrouted += got.unrouted.len();
            }
        }
        // The cases reach every path the merge could get wrong.
        assert!(reroutes > 0 && migrations > 0 && unrouted > 0 && errors > 0);
    }

    #[test]
    fn fail_event_on_dead_or_unknown_device_is_an_error() {
        let arrivals = vec![vec![0.0]];
        let placement = vec![vec![0]];
        let opts = FleetOptions::default();
        let mut sub = MockSub {
            devices: 1,
            svc: 1.0,
            hosted: vec![vec![0]],
            allow_migrate: false,
        };
        let events = vec![
            FleetEvent::Fail {
                at_ms: 1.0,
                device: 0,
            },
            FleetEvent::Fail {
                at_ms: 2.0,
                device: 0,
            },
        ];
        assert!(route_requests(&mut sub, &arrivals, &events, &placement, &opts).is_err());
        let mut sub2 = MockSub {
            devices: 1,
            svc: 1.0,
            hosted: vec![vec![0]],
            allow_migrate: false,
        };
        let bad = vec![FleetEvent::Fail {
            at_ms: 1.0,
            device: 9,
        }];
        assert!(route_requests(&mut sub2, &arrivals, &bad, &placement, &opts).is_err());
    }
}
