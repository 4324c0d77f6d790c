//! Serving on one device: co-resident [`StagedModel`]s on one simulated
//! GPU, driven by **one pass** — admit → window → schedule → execute →
//! fold — that closed-loop, open-loop, single-tenant and estimated serving
//! all share.
//!
//! PhoneBit's premise is that the mobile GPU is a shared, scarce device —
//! and real phones run several networks at once (a detector next to a
//! classifier, a camera pipeline next to an always-on model). The
//! [`DeviceRuntime`] serves that regime: a **tenant registry** of
//! heterogeneous models, each staged once (weights, GEMM banks, its own
//! [`ExecutionPlan`], SLO) into **one** budgeted device context, sharing
//! one [`DeviceClock`] and a **pooled arena** — every stream holds a single
//! slice sized to the largest tenant's banks, so any stream can run any
//! tenant's plan and the cross-tenant peak is
//! `Σ weights + streams × max_tenant(banks × Σ slots)` (see
//! [`pooled_peak_bytes`]). A single model is a registry of one.
//!
//! **Admit.** Each tenant's batch is chosen against the *other tenants'
//! expected dispatch mix*: every tenant's plan is walked once on a solo
//! clocked queue to measure its [`QueueLoad`] (mean CU fraction × busy
//! duty), the blend is registered on the shared clock
//! ([`DeviceClock::set_mix`]), and candidate batches are modeled under that
//! mix. A single tenant degenerates to symmetric streams. Admission hands
//! back one table — decision, lowered plan, modeled (cold, steady) window
//! per tenant — from a deployed model or a shape-level architecture alike.
//!
//! **Window, schedule.** Requests group into windows of the admitted batch.
//! [`schedule_open_loop`] is the only scheduler: whenever a stream goes
//! idle it pulls the ready window with least slack to its pacing deadline
//! (earliest deadline on ties, then tenant order), so a bursty tenant
//! cannot starve a light one and idle streams absorb backlog. Open-loop
//! windows become ready when their last member arrives and are shed past
//! `arrival + SLO`; a closed-loop window is the same record ready at 0,
//! never shed, paced at `(k + 1) × target`. Faults, retry/backoff and
//! thermal derate are inputs to the same loop.
//!
//! **Execute, fold.** The schedule is computed deterministically on modeled
//! time and executed verbatim — every attempt on its assigned stream, the
//! streams handed to `gpusim::exec` like kernel rows (in stream order on a
//! one-thread host). The fold on top reads counters, latencies and
//! percentiles off the schedule, one walk mapping each window's fate to
//! its member requests; what the streams measured is reported beside it
//! (`attempt_exec_ms`) and pinned equal by the no-drift tests. Every
//! tenant's row is one [`TenantReport`], the type the fleet reports per
//! tenant too: a fleet device runs the pass without its fold and the fleet
//! walks the schedule itself, so each request is folded once.
//! An **estimate is a dry run**: a runtime brought up from architectures
//! alone ([`DeviceRuntime::dry`]) holds the same admitted table with nothing
//! staged and its streams without lanes — each still books its pooled slice
//! — is fed request counts ([`TenantTraffic::Count`]) and goes through the
//! same pass, skipping staging, lane bookkeeping and the execute call and
//! nothing else — so an estimate cannot drift from the runtime it estimates.
//!
//! Serving remains **bit-exact**: requests are windowed in arrival order
//! per tenant and outputs are reassembled into request order;
//! `tests/serve_multitenant.rs` pins co-resident outputs against solo runs
//! across the micro zoo and all four binary-convolution routes.

use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use phonebit_gpusim::buffer::{Buffer, Context, SimError};
use phonebit_gpusim::clock::{DeviceClock, FaultPlan};
use phonebit_gpusim::cost::QueueLoad;
use phonebit_gpusim::exec::par_chunks_mut;
use phonebit_gpusim::queue::CommandQueue;
use phonebit_gpusim::{DeviceProfile, ExecutorClass, Phone};
use phonebit_nn::graph::NetworkArch;
use phonebit_tensor::tensor::Tensor;

use crate::arrival::ArrivalProcess;
use crate::engine::{ActivationData, EngineError, StagedModel, Stream, Window};
use crate::estimate::{launch_step, walk_plan};
use crate::model::PbitModel;
use crate::plan::{ExecutionPlan, RouteOverrides};
use crate::planner::{largest_batch_where, pooled_peak_bytes};
use crate::stats::nearest_rank;

// ---------------------------------------------------------------------------
// Admission decisions
// ---------------------------------------------------------------------------

/// What the admission controller decided at staging time, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Admission {
    /// The admitted window size.
    pub batch: usize,
    /// Memory cap: the largest window that still fits the app budget —
    /// sharded arenas next to the shared weights for a single tenant, the
    /// pooled cross-tenant peak with every neighbor's batch held fixed for
    /// a co-resident one.
    pub max_feasible_batch: usize,
    /// Modeled steady-window latency of the admitted batch under
    /// multi-stream contention (the co-resident tenants' registered mix,
    /// when there are neighbors), milliseconds.
    pub modeled_window_ms: f64,
    /// The p95 target the controller optimized against, if any.
    pub slo_ms: Option<f64>,
    /// Whether the **admitted** batch's modeled latency meets the SLO
    /// (always `true` when no SLO was given). Under auto admission a
    /// `false` means even a single-image window is modeled over target —
    /// the runtime serves degraded; with an explicit requested batch it is
    /// that batch's verdict only (a smaller window might still meet the
    /// target).
    pub slo_met: bool,
    /// Weight-residency grant under paged admission: `None` when the
    /// tenant's full weight set is resident (always, without a weight
    /// budget), `Some(bytes)` when the tenant streams its banks through a
    /// hot set of this size — its no-stall paged floor
    /// ([`paged_floor_bytes`](ExecutionPlan::paged_floor_bytes)), or the hard
    /// minimum ([`paged_min_bytes`](ExecutionPlan::paged_min_bytes)) when the
    /// floors alone overflow the pooled budget. Modeled window latencies
    /// already fold in the upload stalls the grant implies.
    pub weight_grant_bytes: Option<usize>,
}

// ---------------------------------------------------------------------------
// The work-stealing window scheduler: pacing, faults, retry, shed
// ---------------------------------------------------------------------------

/// Bounded retry with exponential backoff — the recovery half of the
/// open-loop serving policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-executions allowed after a faulted attempt before the window is
    /// shed (`0` sheds on the first fault).
    pub max_retries: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { max_retries: 3 }
    }
}

/// One window as the scheduler sees it: when it may first run, when it is
/// no longer worth running, and the deadline it competes by. Built by
/// the open- and closed-loop window builders in this module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopWindow {
    /// Arrival of the window's last member request, milliseconds — the
    /// earliest the window can be dispatched (`0` in a closed loop: the
    /// whole queue is pending up front).
    pub ready_ms: f64,
    /// Shedding deadline: first member arrival + SLO, milliseconds.
    /// `f64::INFINITY` when the tenant has no SLO, and for every
    /// closed-loop window — such windows are never shed for lateness.
    pub deadline_ms: f64,
    /// Pacing deadline the least-slack pull ranks the window by,
    /// milliseconds: the shedding deadline under an open-loop SLO,
    /// `ready + steady` without one (serve promptly, so an SLO neighbor
    /// cannot starve the tenant), and `(k + 1) × target` for closed-loop
    /// window `k` — the tenant's SLO, else its own steady window, as the
    /// per-window target.
    pub pace_ms: f64,
}

/// One tenant's window stream: its windows (arrival order) and modeled
/// window costs.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopLoad {
    /// Windows in arrival order, non-decreasing in both `ready_ms` and
    /// `deadline_ms` ([`schedule_open_loop`] asserts it).
    pub windows: Vec<OpenLoopWindow>,
    /// Modeled cold-window service, milliseconds.
    pub cold_ms: f64,
    /// Modeled primed-window service, milliseconds.
    pub steady_ms: f64,
}

/// Why a window was dropped instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Even an optimistic (steady, currently-derated) dispatch could no
    /// longer meet the window's deadline.
    DeadlinePast,
    /// The retry budget was exhausted by consecutive faulted attempts.
    RetriesExhausted,
}

/// The terminal state of one open-loop window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowFate {
    /// The window completed on a non-faulted attempt.
    Served {
        /// Stream that ran the serving attempt.
        stream: usize,
        /// Modeled start of the serving attempt, milliseconds.
        start_ms: f64,
        /// Modeled completion, milliseconds — per-request latency is this
        /// minus each member's arrival.
        end_ms: f64,
        /// Execution attempts consumed (1 = no faults).
        attempts: usize,
    },
    /// The window was dropped.
    Shed {
        /// Modeled time of the shed decision, milliseconds.
        at_ms: f64,
        /// Execution attempts consumed before shedding.
        attempts: usize,
        /// Why.
        reason: ShedReason,
    },
}

impl WindowFate {
    /// Whether the window was served.
    pub fn is_served(&self) -> bool {
        matches!(self, WindowFate::Served { .. })
    }
}

/// One execution attempt placed by [`schedule_open_loop`] — faulted
/// attempts burn real device time and are listed here exactly as the
/// executor will run them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopAttempt {
    /// Tenant index.
    pub tenant: usize,
    /// Per-tenant window index (arrival order).
    pub index: usize,
    /// 1-based attempt number for this window.
    pub attempt: usize,
    /// Stream that ran the attempt.
    pub stream: usize,
    /// Modeled start, milliseconds.
    pub start_ms: f64,
    /// Modeled completion, milliseconds (`start + service × slowdown`).
    pub end_ms: f64,
    /// Whether the attempt faulted (rolled off the seeded
    /// [`FaultPlan`], identically for scheduler and executor).
    pub faulted: bool,
    /// Thermal derating applied to the attempt (`1.0` when unthrottled).
    pub slowdown: f64,
}

/// An open-loop schedule: every execution attempt in dispatch order plus
/// one terminal [`WindowFate`] per window.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopSchedule {
    /// Every attempt, in modeled dispatch order.
    pub attempts: Vec<OpenLoopAttempt>,
    /// Per-tenant, per-window fates (same shape as the input loads).
    pub fates: Vec<Vec<WindowFate>>,
    /// Last modeled completion, milliseconds.
    pub wall_ms: f64,
}

impl OpenLoopSchedule {
    /// Streams that carried at least one attempt.
    pub fn streams_used(&self) -> usize {
        let used: BTreeSet<usize> = self.attempts.iter().map(|a| a.stream).collect();
        used.len()
    }
}

/// A stable identity for one execution attempt, independent of dispatch
/// order: the [`FaultPlan`] rolls fault outcomes off this key, so a
/// multi-threaded executor and the sequential scheduler — which enumerate
/// attempts in different orders — observe identical faults.
fn fault_key(tenant: usize, index: usize, attempt: usize) -> u64 {
    (tenant as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add((attempt as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// The work-stealing window schedule — the one scheduler behind closed-
/// and open-loop serving, executed and estimated alike: pacing deadlines,
/// arrival-gated readiness, injected faults, bounded retry with backoff,
/// and deadline shedding.
///
/// The idle stream (smallest modeled busy-until; lowest index on ties)
/// repeatedly pulls work:
///
/// 1. **Shed** every pending window whose deadline is hopeless — even an
///    optimistic dispatch (primed service under the current derate,
///    started the moment the window is ready) would finish past its
///    deadline. Windows without a finite deadline are never shed.
/// 2. Among windows that are **ready** (last member arrived, backoff
///    elapsed; per tenant only the earliest such window is eligible, so a
///    tenant's windows serve in arrival order unless an earlier one is
///    parked in backoff), pull the one with least slack
///    `pace − (now + service)` — earliest pace deadline on ties, then
///    tenant order — where `pace` is [`OpenLoopWindow::pace_ms`].
/// 3. If nothing is ready, idle the stream — and every other stream free
///    before then — forward to the next ready time.
///
/// Each dispatched attempt rolls the seeded [`FaultPlan`] (keyed on
/// tenant/window/attempt — dispatch-order independent) and stretches by
/// the plan's thermal derate at its start time. A faulted attempt burns
/// its full service time (the fault is detected at completion), then
/// re-enqueues with exponential backoff, up to
/// [`RetryPolicy::max_retries`]; past that the window is shed. Faulted
/// attempts still prime their (stream, tenant) lane — the executor really
/// runs them.
///
/// Deterministic in its inputs; no wall-clock races. `fault: None` with
/// all-infinite deadlines reduces to fault-free work stealing, and one
/// tenant's uniform closed-loop windows to round-robin placement.
///
/// # Cost
///
/// O(W + attempts) window visits for W windows, each dispatch also
/// scanning the streams, tenants and backoff windows: a tenant's windows
/// are walked once, from a head cursor.
///
/// # Panics
///
/// Panics when `streams == 0`, any load's `steady_ms <= 0`, a tenant's
/// windows are not non-decreasing in both `ready_ms` and `deadline_ms`
/// (the order every window builder here emits), or a window's ready time
/// is not finite (the serving entry points reject such arrivals before
/// windowing them).
pub fn schedule_open_loop(
    tenants: &[OpenLoopLoad],
    streams: usize,
    fault: Option<&FaultPlan>,
    policy: &RetryPolicy,
) -> OpenLoopSchedule {
    assert!(streams >= 1, "a schedule needs >= 1 stream");
    for t in tenants {
        assert!(t.steady_ms > 0.0, "window service must be positive");
        assert!(
            t.windows
                .is_sorted_by(|a, b| a.ready_ms <= b.ready_ms && a.deadline_ms <= b.deadline_ms),
            "a tenant's windows must be in ready and deadline order"
        );
    }
    let slowdown_at = |ms: f64| fault.map_or(1.0, |f| f.slowdown_at(ms));
    /// One unresolved window as a dispatch sees it: when it may next run
    /// and which attempt is next.
    #[derive(Clone, Copy)]
    struct Pending {
        index: usize,
        ready_ms: f64,
        attempt: usize,
    }
    let mut fates: Vec<Vec<Option<WindowFate>>> = tenants
        .iter()
        .map(|t| vec![None; t.windows.len()])
        .collect();
    let mut unresolved: usize = tenants.iter().map(|t| t.windows.len()).sum();
    // Per tenant: `head[t]`, its first window never attempted, and
    // `retry[t]`, its windows in backoff in window order. Fresh windows
    // leave from the head only, so every backoff window precedes it.
    let mut head = vec![0usize; tenants.len()];
    let mut retry = vec![Vec::<Pending>::new(); tenants.len()];
    let mut free = vec![0.0f64; streams];
    let mut primed = vec![vec![false; tenants.len()]; streams];
    let mut attempts = Vec::new();

    while unresolved > 0 {
        let stream = (0..streams)
            .min_by(|&a, &b| {
                free[a]
                    .partial_cmp(&free[b])
                    .expect("modeled times are finite")
                    .then(a.cmp(&b))
            })
            .expect("streams >= 1");
        let now = free[stream];

        // One walk per tenant: shed its hopeless windows, then find its
        // eligible window — the earliest pending one ready at `now` — and
        // pull the least-slack one over all tenants. The walk also finds
        // the next ready time.
        let mut best: Option<(usize, Option<usize>, Pending, f64, f64, f64)> = None; // (t, retry slot, window, slack, pace, dur)
        let mut next_ready = f64::INFINITY;
        for (t, load) in tenants.iter().enumerate() {
            // Hopeless (finite deadlines only): even an optimistic dispatch
            // — primed service at the derate at `start` — ends past the
            // deadline, so only truly unservable windows shed.
            let hopeless = |start: f64, deadline: f64| {
                deadline.is_finite() && start + load.steady_ms * slowdown_at(start) > deadline
            };
            let shed = |at_ms: f64, attempts: usize| WindowFate::Shed {
                at_ms,
                attempts,
                reason: ShedReason::DeadlinePast,
            };
            // A backoff window tests at its earliest start from `now`.
            retry[t].retain(|p| {
                let start = now.max(p.ready_ms);
                let gone = hopeless(start, load.windows[p.index].deadline_ms);
                if gone {
                    fates[t][p.index] = Some(shed(start, p.attempt - 1));
                    unresolved -= 1;
                }
                !gone
            });
            // A fresh window hopeless at its first possible start (time 0
            // or its ready time) sheds there, else it tests from `now`.
            // Behind a kept head, whose ready time and deadline are no
            // later, only such a window could shed, and it keeps that fate
            // until the head reaches it: the walk stops at the first kept.
            while let Some(w) = load.windows.get(head[t]) {
                let Some(at_ms) = [0.0f64.max(w.ready_ms), now.max(w.ready_ms)]
                    .into_iter()
                    .find(|&start| hopeless(start, w.deadline_ms))
                else {
                    break;
                };
                fates[t][head[t]] = Some(shed(at_ms, 0));
                unresolved -= 1;
                head[t] += 1;
            }
            // Eligible: the first ready backoff window, else the head if
            // it is ready (the windows behind it are ready no sooner).
            let fresh = load.windows.get(head[t]).map(|w| Pending {
                index: head[t],
                ready_ms: w.ready_ms,
                attempt: 1,
            });
            let slots = retry[t].iter().enumerate().map(|(k, &p)| (Some(k), p));
            let eligible = slots.chain(fresh.map(|p| (None, p))).find(|(_, p)| {
                next_ready = next_ready.min(p.ready_ms);
                p.ready_ms <= now
            });
            let Some((slot, p)) = eligible else { continue };
            let base = if primed[stream][t] {
                load.steady_ms
            } else {
                load.cold_ms
            };
            let dur = base * slowdown_at(now);
            let pace = load.windows[p.index].pace_ms;
            let slack = pace - (now + dur);
            let wins = match best {
                None => true,
                Some((_, _, _, bs, bp, _)) => {
                    slack < bs - 1e-12 || ((slack - bs).abs() <= 1e-12 && pace < bp - 1e-12)
                }
            };
            if wins {
                best = Some((t, slot, p, slack, pace, dur));
            }
        }

        let Some((t, slot, p, _, _, dur)) = best else {
            if unresolved == 0 {
                break;
            }
            // Nothing ready: every stream free before the next ready time
            // (> `now`) idles up to it, as each would in turn; none is ready sooner.
            assert!(next_ready.is_finite(), "window ready times must be finite");
            debug_assert!(next_ready > now, "a ready window would have matched");
            for f in free.iter_mut().filter(|f| **f < next_ready) {
                *f = next_ready;
            }
            continue;
        };

        let i = p.index;
        let end = now + dur;
        let faulted = fault.is_some_and(|f| f.attempt_faults(fault_key(t, i, p.attempt), now));
        attempts.push(OpenLoopAttempt {
            tenant: t,
            index: i,
            attempt: p.attempt,
            stream,
            start_ms: now,
            end_ms: end,
            faulted,
            slowdown: slowdown_at(now),
        });
        free[stream] = end;
        primed[stream][t] = true;
        let mut parked = None;
        if !faulted {
            fates[t][i] = Some(WindowFate::Served {
                stream,
                start_ms: now,
                end_ms: end,
                attempts: p.attempt,
            });
            unresolved -= 1;
        } else if p.attempt > policy.max_retries {
            fates[t][i] = Some(WindowFate::Shed {
                at_ms: end,
                attempts: p.attempt,
                reason: ShedReason::RetriesExhausted,
            });
            unresolved -= 1;
        } else {
            // Exponential backoff: after the `k`-th consecutive fault the
            // window re-enters the ready set only after
            // `steady_ms × BACKOFF_SCALE × 2^(k−1)`, re-enqueued through
            // the same work-stealing pull as fresh arrivals.
            const BACKOFF_SCALE: f64 = 0.5;
            let backoff = tenants[t].steady_ms * BACKOFF_SCALE * (1 << (p.attempt - 1)) as f64;
            parked = Some(Pending {
                index: i,
                ready_ms: end + backoff,
                attempt: p.attempt + 1,
            });
        }
        match (slot, parked) {
            (Some(k), Some(q)) => retry[t][k] = q,
            (Some(k), None) => _ = retry[t].remove(k),
            // A fresh window leaves the head, into backoff if faulted.
            (None, q) => {
                head[t] += 1;
                retry[t].extend(q);
            }
        }
    }

    let wall_ms = attempts
        .iter()
        .map(|a: &OpenLoopAttempt| a.end_ms)
        .fold(0.0, f64::max);
    OpenLoopSchedule {
        attempts,
        fates: fates
            .into_iter()
            .map(|t| {
                t.into_iter()
                    .map(|f| f.expect("every window resolved"))
                    .collect()
            })
            .collect(),
        wall_ms,
    }
}

/// Groups one tenant's request arrivals into consecutive windows of
/// `batch`: each window is ready when its **last** member has arrived and
/// inherits its deadline from its **first** member (`arrival + slo`) —
/// open-loop deadlines anchor to arrival time, not to batch submission.
/// Without an SLO the window is never shed and paces by
/// `ready + steady_ms`.
fn open_loop_windows(
    arrivals_ms: &[f64],
    batch: usize,
    slo_ms: Option<f64>,
    steady_ms: f64,
) -> Vec<OpenLoopWindow> {
    let batch = batch.max(1);
    (0..arrivals_ms.len())
        .step_by(batch)
        .map(|start| {
            let ready_ms = arrivals_ms[(start + batch).min(arrivals_ms.len()) - 1];
            let deadline_ms = slo_ms.map_or(f64::INFINITY, |slo| arrivals_ms[start] + slo);
            OpenLoopWindow {
                ready_ms,
                deadline_ms,
                pace_ms: if deadline_ms.is_finite() {
                    deadline_ms
                } else {
                    ready_ms + steady_ms
                },
            }
        })
        .collect()
}

/// A closed-loop queue of `count` windows as the scheduler sees it: all
/// pending at time 0, never shed, window `k` paced at
/// `(k + 1) × target_ms` — which is what "furthest from its SLO" is
/// measured against. Closed-loop serving is open-loop serving of these.
fn closed_loop_windows(count: usize, target_ms: f64) -> Vec<OpenLoopWindow> {
    (0..count)
        .map(|k| OpenLoopWindow {
            ready_ms: 0.0,
            deadline_ms: f64::INFINITY,
            pace_ms: (k + 1) as f64 * target_ms,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Plan sources and contention-aware admission
// ---------------------------------------------------------------------------

/// Where a tenant's plans come from: a deployed model, or a shape-level
/// architecture (a dry run at full scale).
pub(crate) enum PlanSource<'a> {
    Model(&'a PbitModel),
    Arch(&'a NetworkArch),
}

impl PlanSource<'_> {
    pub(crate) fn plan_at(
        &self,
        gpu: &DeviceProfile,
        batch: usize,
        overrides: RouteOverrides,
    ) -> Result<ExecutionPlan, EngineError> {
        match self {
            PlanSource::Model(m) => {
                crate::engine::check_windows(m)?;
                ExecutionPlan::for_model(m, gpu, batch, &overrides)
            }
            PlanSource::Arch(a) => ExecutionPlan::for_arch(a, gpu, batch, &overrides),
        }
        .map_err(EngineError::from)
    }
}

/// One tenant's ask, as the admission controller sees it. Crate-visible so
/// the fleet layer probes a tenant's fit from the same source and overrides.
pub(crate) struct TenantAsk<'a> {
    pub(crate) source: PlanSource<'a>,
    pub(crate) batch: Option<usize>,
    pub(crate) slo_ms: Option<f64>,
    pub(crate) overrides: RouteOverrides,
}

/// Measures the expected [`QueueLoad`] one window of `plan` puts on the
/// device: walk the plan's exact dispatch sequence on a solo clocked queue
/// and read back the busy-weighted mean CU fraction and the device-busy
/// duty cycle over the window (host gaps — launch and framework overhead —
/// leave the device free).
fn measure_load(plan: &ExecutionPlan, gpu: &DeviceProfile) -> QueueLoad {
    let clock = DeviceClock::new(gpu.clone());
    let mut q = CommandQueue::new(gpu.clone(), ExecutorClass::PhoneBitOpenCl)
        .with_clock(Arc::clone(&clock));
    let _ = walk_plan(&mut q, plan, |q, idx| launch_step(q, plan, idx));
    let wall = q.elapsed_s() + q.per_run_overhead_s();
    QueueLoad {
        cu_frac: clock.mean_cu_frac(),
        busy: if wall > 0.0 {
            (clock.busy_s() / wall).clamp(0.0, 1.0)
        } else {
            0.0
        },
    }
}

/// The blend of every tenant's measured load — what each of the other
/// streams is expected to be running at any moment, since any idle stream
/// pulls any tenant's window. CU fraction is busy-weighted; duty is the
/// plain mean.
fn aggregate_load(loads: &[QueueLoad]) -> QueueLoad {
    let busy_sum: f64 = loads.iter().map(|l| l.busy).sum();
    let cu_frac = if busy_sum > 0.0 {
        loads.iter().map(|l| l.cu_frac * l.busy).sum::<f64>() / busy_sum
    } else {
        0.0
    };
    QueueLoad {
        cu_frac,
        busy: busy_sum / loads.len().max(1) as f64,
    }
}

/// Models one tenant window's (cold, steady) seconds under the given
/// clock configuration: the plan's exact dispatch sequence on a clocked
/// queue — symmetric `streams` mirrors when `mix` is `None`, the
/// registered heterogeneous mix otherwise. Cold windows add the per-run
/// framework overhead; primed batched streams hide it behind the previous
/// window (double buffering), batch-1 single-bank streams never prime.
pub(crate) fn modeled_window_under(
    plan: &ExecutionPlan,
    gpu: &DeviceProfile,
    streams: usize,
    mix: Option<&[QueueLoad]>,
) -> (f64, f64) {
    let clock = DeviceClock::with_streams(gpu.clone(), streams);
    if let Some(m) = mix {
        clock.set_mix(Some(m.to_vec()));
    }
    let mut q = CommandQueue::new(gpu.clone(), ExecutorClass::PhoneBitOpenCl).with_clock(clock);
    let _ = walk_plan(&mut q, plan, |q, idx| launch_step(q, plan, idx));
    let busy = q.elapsed_s();
    let cold = busy + q.per_run_overhead_s();
    let steady = if plan.batch > 1 { busy } else { cold };
    (cold, steady)
}

/// Window sizes the admission controller probes: fine steps where
/// launch-overhead amortization changes fastest, coarser above, ceiling
/// at 64 (beyond that amortization has flattened and windows only add
/// latency). The memory cap is appended as a candidate whenever it binds
/// below the ceiling, so "the largest batch that fits" is always
/// reachable.
const ADMISSION_CANDIDATES: [usize; 12] = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64];

/// The probe list for a given memory cap (ascending, deduplicated).
fn admission_candidates(max_feasible: usize) -> Vec<usize> {
    let mut candidates: Vec<usize> = ADMISSION_CANDIDATES
        .iter()
        .copied()
        .filter(|&b| b <= max_feasible)
        .collect();
    if max_feasible < ADMISSION_CANDIDATES[ADMISSION_CANDIDATES.len() - 1]
        && candidates.last() != Some(&max_feasible)
    {
        candidates.push(max_feasible);
    }
    candidates
}

/// The mix a co-resident registry registers on the shared clock: each of
/// the `streams − 1` *other* queues is expected to run the blend of every
/// tenant's measured [`QueueLoad`] over the given plans' walks. `None` for
/// a single tenant (the symmetric-streams model).
fn registered_mix<P: Borrow<ExecutionPlan>>(
    plans: &[P],
    gpu: &DeviceProfile,
    streams: usize,
) -> Option<Vec<QueueLoad>> {
    if plans.len() <= 1 {
        return None;
    }
    let loads: Vec<QueueLoad> = plans
        .iter()
        .map(|plan| measure_load(plan.borrow(), gpu))
        .collect();
    Some(vec![aggregate_load(&loads); streams.saturating_sub(1)])
}

/// The registered mix of a tenant set at its current plans, and every
/// tenant's modeled `(cold_ms, steady_ms)` window under it — what the
/// scheduler paces by. Admission ends here, and so do live attach/detach
/// and batch replans (over the staged plans), so a registry's window costs
/// always come from this one walk.
fn modeled_windows<P: Borrow<ExecutionPlan>>(
    plans: &[P],
    gpu: &DeviceProfile,
    streams: usize,
) -> (Option<Vec<QueueLoad>>, Vec<(f64, f64)>) {
    let mix = registered_mix(plans, gpu, streams);
    let windows_ms = plans
        .iter()
        .map(|plan| {
            let (cold_s, steady_s) =
                modeled_window_under(plan.borrow(), gpu, streams, mix.as_deref());
            (cold_s * 1e3, steady_s * 1e3)
        })
        .collect();
    (mix, windows_ms)
}

/// One tenant as admission hands it back: the decision, the plan it was
/// decided on, and what one window of that plan costs under the registered
/// mix. The runtime stages a model from this row and keeps an
/// architecture's row as it is — same table, with or without weights.
struct AdmittedTenant {
    admission: Admission,
    /// Asked overrides plus any [`RouteOverrides::weight_budget`] grant:
    /// what `plan` was lowered with and what the runtime must stage with,
    /// so scheduler and executor roll identical stall decisions.
    overrides: RouteOverrides,
    /// The tenant's plan at the admitted batch.
    plan: ExecutionPlan,
    /// Modeled cold window under the registered mix, milliseconds.
    cold_ms: f64,
    /// Modeled primed window under the registered mix, milliseconds.
    steady_ms: f64,
}

/// The plans one [`admit_tenants`] call lowers: its clamp, passes and table
/// ask for the same (tenant, batch), lowered once under `eff`.
struct Lowerings<'s, 'a> {
    asks: &'s [TenantAsk<'a>],
    gpu: &'s DeviceProfile,
    eff: &'s [RouteOverrides],
    plans: HashMap<(usize, usize), Result<ExecutionPlan, EngineError>>,
}

impl Lowerings<'_, '_> {
    fn plan(&mut self, i: usize, b: usize) -> Result<&ExecutionPlan, EngineError> {
        let (source, gpu, ov) = (&self.asks[i].source, self.gpu, self.eff[i]);
        let plan = self.plans.entry((i, b));
        plan.or_insert_with(|| source.plan_at(gpu, b, ov))
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Every tenant's plan at the given batches.
    fn lower(&mut self, batches: &[usize]) -> Result<Vec<ExecutionPlan>, EngineError> {
        (0..batches.len())
            .map(|i| self.plan(i, batches[i]).cloned())
            .collect()
    }
}

/// Contention-aware admission for a registry of co-resident tenants.
///
/// Each tenant's memory cap comes from the **pooled** cross-tenant peak
/// (`Σ weights + streams × max_tenant(banks × Σ slots)`) with every
/// neighbor's batch held fixed, and each candidate batch's window is
/// modeled against the *other tenants' registered mix* on the shared clock
/// — `streams − 1` queues each running the blend of every tenant's
/// measured [`QueueLoad`] — rather than against `streams` clones of the
/// tenant itself. A single tenant keeps the symmetric-streams model. Two
/// fixed passes: the second re-measures loads at the first pass's chosen
/// batches.
///
/// `weight_budget` is the optional pooled bytes of binary weight banks
/// allowed resident across all tenants at once; `None` keeps every tenant
/// fully resident. With a budget below the tenants' summed weights,
/// residency grants are **tiered**: a tenant is fully resident (its
/// overrides untouched, so its plans stay byte-identical to the unpaged
/// ones), granted exactly its *paged floor* — the smallest hot set that
/// still overlaps every upload with the previous step's compute
/// ([`paged_floor_bytes`](ExecutionPlan::paged_floor_bytes)) — or, when the
/// no-stall floors alone overflow the budget, degraded to its *paged
/// minimum* — the single largest bank
/// ([`paged_min_bytes`](ExecutionPlan::paged_min_bytes)), under which uploads the
/// look-ahead can no longer co-reside serialize against compute (more
/// stalls, same bit-exact outputs). Budgets strictly between the tiers buy
/// nothing: the streaming schedule evicts every bank after use regardless,
/// so stalls only change at the tier boundaries. Everyone starts at the
/// floor; tenants with the most floor-to-minimum headroom are degraded
/// first until the sum fits, then tenants are upgraded back to full
/// residency in ascending weight order while the budget still holds. If
/// even the minima overflow the budget, the set is unservable —
/// [`EngineError::OutOfMemory`].
///
/// Returns one [`AdmittedTenant`] per ask plus the final registered mix
/// (measured at the chosen batches) — the one the runtime installs on the
/// clock and every window cost in the table was modeled under, stalls
/// included.
///
/// An SLO that is not finite and positive is [`EngineError::InputMismatch`]:
/// it would give every window a deadline that sheds all or nothing.
///
/// # Cost
///
/// One lowering per (tenant, batch) the call asks about ([`Lowerings`]);
/// nothing is kept past the call.
fn admit_tenants(
    asks: &[TenantAsk<'_>],
    phone: &Phone,
    streams: usize,
    weight_budget: Option<usize>,
) -> Result<(Vec<AdmittedTenant>, Option<Vec<QueueLoad>>), EngineError> {
    for (i, a) in asks.iter().enumerate() {
        if let Some(slo) = a.slo_ms.filter(|s| !(s.is_finite() && *s > 0.0)) {
            return Err(EngineError::InputMismatch {
                expected: "a finite SLO > 0 ms".into(),
                got: format!("SLO {slo} ms for tenant {i}"),
            });
        }
    }
    let gpu = &phone.gpu;
    let budget = phone.app_budget_bytes();
    let n = asks.len();

    // Base batch-1 plans under the *asked* overrides. Weight banks — and
    // so paged floors and grants — are batch-invariant, so the grant
    // decision is made once, here, before any batch probing.
    let base: Vec<ExecutionPlan> = asks
        .iter()
        .map(|a| a.source.plan_at(gpu, 1, a.overrides))
        .collect::<Result<_, _>>()?;
    let weights: Vec<usize> = base.iter().map(|p| p.weights_bytes).collect();

    // Binary residency grants: `None` = fully resident, `Some(floor)` =
    // stream through a hot set of `floor` bytes. An ask whose overrides
    // already carry a weight budget is **pinned** — live attach passes
    // survivors this way, and a staged tenant cannot be re-granted — so
    // it keeps its existing residency (streaming below its grant,
    // effectively resident at or above it) and only contributes its
    // pinned footprint to the pool.
    let pinned: Vec<bool> = asks
        .iter()
        .map(|a| a.overrides.weight_budget.is_some())
        .collect();
    let mut grants: Vec<Option<usize>> = asks
        .iter()
        .zip(weights.iter())
        .map(|(a, &w)| a.overrides.weight_budget.filter(|&g| g < w))
        .collect();
    if let Some(w_budget) = weight_budget {
        let resident_total: usize = grants
            .iter()
            .zip(weights.iter())
            .map(|(g, &w)| g.unwrap_or(w))
            .sum();
        if resident_total > w_budget {
            // A pinned tenant's floor and minimum are both its footprint;
            // the others' are read off their base plans' banks — the same
            // banks the granted plans will stream.
            let tiers = |i: usize| match (pinned[i], grants[i].unwrap_or(weights[i])) {
                (true, held) => (held, held),
                (false, _) => (base[i].paged_floor_bytes(), base[i].paged_min_bytes()),
            };
            let (floors, minima): (Vec<usize>, Vec<usize>) = (0..n).map(tiers).unzip();
            let mut granted = floors.clone();
            let mut sum: usize = granted.iter().sum();
            if sum > w_budget {
                // No-stall floors overflow: degrade to the hard minimum,
                // biggest floor-to-minimum headroom first, until the set
                // fits (or cannot).
                let mut order: Vec<usize> = (0..n).filter(|&i| !pinned[i]).collect();
                order.sort_by_key(|&i| std::cmp::Reverse(floors[i] - minima[i]));
                for i in order {
                    if sum <= w_budget {
                        break;
                    }
                    sum = sum - granted[i] + minima[i];
                    granted[i] = minima[i];
                }
                if sum > w_budget {
                    return Err(EngineError::OutOfMemory(SimError::OutOfMemory {
                        requested: sum,
                        in_use: 0,
                        budget: w_budget,
                    }));
                }
            }
            for i in 0..n {
                if !pinned[i] {
                    grants[i] = Some(granted[i]);
                }
            }
            // Upgrade the cheapest tenants back to full residency while
            // the budget still holds: fewer streamed tenants, fewer
            // modeled stalls.
            let mut order: Vec<usize> = (0..n).filter(|&i| !pinned[i]).collect();
            order.sort_by_key(|&i| weights[i]);
            for i in order {
                let upgraded = sum - granted[i] + weights[i];
                if upgraded <= w_budget {
                    sum = upgraded;
                    grants[i] = None;
                }
            }
        }
    }
    // Effective overrides: untouched for fully-resident tenants (their
    // plans stay byte-identical), the granted floor for streamed ones.
    let eff: Vec<RouteOverrides> = asks
        .iter()
        .zip(grants.iter())
        .map(|(a, g)| {
            let mut ov = a.overrides;
            if let Some(floor) = *g {
                ov.weight_budget = Some(floor);
            }
            ov
        })
        .collect();

    // Pooled peak under the grants: a streamed tenant charges only its
    // hot-set grant, not its summed weights — that is the whole point.
    let resident: Vec<usize> = grants
        .iter()
        .zip(weights.iter())
        .map(|(g, &w)| g.unwrap_or(w))
        .collect();
    let base_slices: Vec<usize> = base.iter().map(|p| p.staged_arena_bytes()).collect();
    let mut lowerings = Lowerings {
        asks,
        gpu,
        eff: &eff,
        plans: HashMap::new(),
    };
    if pooled_peak_bytes(&resident, &base_slices, streams) > budget {
        return Err(EngineError::OutOfMemory(SimError::OutOfMemory {
            requested: pooled_peak_bytes(&resident, &base_slices, streams),
            in_use: 0,
            budget,
        }));
    }

    let mut batches: Vec<usize> = asks.iter().map(|a| a.batch.unwrap_or(1).max(1)).collect();
    // Clamp each requested batch to what fits next to every neighbor's
    // batch-1 floor before any pass: one oversized ask must not zero out
    // the other tenants' memory caps below. Since the batch-1 floor fits,
    // every clamp (and every cap in the loop) stays >= 1.
    // Whether tenant `i` at batch `b` fits next to its neighbors' `slices`.
    let fits = |lowerings: &mut Lowerings, slices: &[usize], i: usize, b: usize| {
        lowerings.plan(i, b).is_ok_and(|p| {
            let mut probe = slices.to_vec();
            probe[i] = p.staged_arena_bytes();
            pooled_peak_bytes(&resident, &probe, streams) <= budget
        })
    };
    for (i, batch) in batches.iter_mut().enumerate() {
        if *batch > 1 {
            let cap = largest_batch_where(|b| fits(&mut lowerings, &base_slices, i, b));
            *batch = (*batch).min(cap.max(1));
        }
    }
    let mut admissions: Vec<Admission> = Vec::new();
    for _pass in 0..2 {
        // Measure every tenant's mix at the current batches, then blend.
        let lowered = lowerings.lower(&batches)?;
        let mix = registered_mix(&lowered, gpu, streams);
        let slices: Vec<usize> = lowered.iter().map(|p| p.staged_arena_bytes()).collect();

        admissions.clear();
        for (i, ask) in asks.iter().enumerate() {
            // Memory cap: grow tenant i's slice with every neighbor fixed.
            let max_feasible = largest_batch_where(|b| fits(&mut lowerings, &slices, i, b));
            if max_feasible == 0 {
                // Defensive: the pre-clamp above keeps this unreachable,
                // but an infeasible combination must surface as OOM, not
                // as a clamp/probe panic.
                return Err(EngineError::OutOfMemory(SimError::OutOfMemory {
                    requested: pooled_peak_bytes(&resident, &slices, streams),
                    in_use: 0,
                    budget,
                }));
            }
            let mut window_ms = |b: usize| -> Result<f64, EngineError> {
                let plan = lowerings.plan(i, b)?;
                let (_, steady) = modeled_window_under(plan, gpu, streams, mix.as_deref());
                Ok(steady * 1e3)
            };
            let (batch, modeled) = match (ask.batch, ask.slo_ms) {
                // An explicit batch is honored up to the memory cap.
                (Some(b), _) => {
                    let b = b.clamp(1, max_feasible);
                    (b, window_ms(b)?)
                }
                // SLO given: the largest probed batch still under target.
                (None, Some(slo)) => {
                    let mut best = (1, window_ms(1)?);
                    for b in admission_candidates(max_feasible) {
                        let ms = window_ms(b)?;
                        if ms <= slo && b >= best.0 {
                            best = (b, ms);
                        }
                    }
                    best
                }
                // No SLO: the probed batch with the best modeled throughput.
                (None, None) => {
                    let mut best = (1, window_ms(1)?);
                    for b in admission_candidates(max_feasible) {
                        let ms = window_ms(b)?;
                        if b as f64 / ms > best.0 as f64 / best.1 {
                            best = (b, ms);
                        }
                    }
                    best
                }
            };
            batches[i] = batch;
            admissions.push(Admission {
                batch,
                max_feasible_batch: max_feasible,
                modeled_window_ms: modeled,
                slo_ms: ask.slo_ms,
                slo_met: ask.slo_ms.is_none_or(|slo| modeled <= slo),
                weight_grant_bytes: grants[i],
            });
        }
        if n == 1 {
            break; // the symmetric model has nothing to re-measure
        }
    }
    // The table the runtime is brought up from: plans, registered mix and
    // window costs at the *chosen* batches.
    let lowered = lowerings.lower(&batches)?;
    let (mix, windows_ms) = modeled_windows(&lowered, gpu, streams);
    let tenants = admissions
        .into_iter()
        .zip(eff.iter())
        .zip(lowered.into_iter().zip(windows_ms))
        .map(
            |((admission, &overrides), (plan, (cold_ms, steady_ms)))| AdmittedTenant {
                admission,
                overrides,
                plan,
                cold_ms,
                steady_ms,
            },
        )
        .collect();
    Ok((tenants, mix))
}

// ---------------------------------------------------------------------------
// The multi-tenant device runtime
// ---------------------------------------------------------------------------

/// One tenant's registration ask: the model, an optional fixed window
/// size, and an optional p95 SLO.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (defaults to the model name via [`TenantSpec::new`]).
    pub name: String,
    /// The deployed model.
    pub model: PbitModel,
    /// Requested window size (`None` lets admission pick).
    pub batch: Option<usize>,
    /// p95 latency target, milliseconds.
    pub slo_ms: Option<f64>,
    /// Route overrides applied when lowering and staging this tenant's
    /// plan (fusion, forced routes).
    pub overrides: RouteOverrides,
}

impl TenantSpec {
    /// A spec named after its model, with admission-chosen batch and no
    /// SLO.
    pub fn new(model: PbitModel) -> Self {
        Self {
            name: model.name.clone(),
            model,
            batch: None,
            slo_ms: None,
            overrides: RouteOverrides::default(),
        }
    }

    /// Sets the route overrides (e.g. turn the fusion pass on).
    pub fn with_overrides(mut self, overrides: RouteOverrides) -> Self {
        self.overrides = overrides;
        self
    }

    /// Sets the requested window size.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Sets the p95 SLO in milliseconds; admission rejects one that is
    /// not finite and positive.
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ms = Some(slo_ms);
        self
    }
}

/// One tenant's registration from its **architecture alone**, for
/// [`DeviceRuntime::dry`] and [`Fleet::dry`](crate::Fleet::dry): the
/// shape-level [`TenantSpec`], named after the architecture, lowered under
/// default overrides.
#[derive(Debug, Clone, Copy)]
pub struct TenantWorkload<'a> {
    /// The tenant's architecture.
    pub arch: &'a NetworkArch,
    /// Requested window size (`None` lets admission pick).
    pub batch: Option<usize>,
    /// p95 latency target, milliseconds.
    pub slo_ms: Option<f64>,
}

/// What a tenant registers from, owned: a deployed model — staged, its
/// windows executed — or an architecture alone, admitted and scheduled the
/// same way with nothing staged.
#[derive(Debug, Clone)]
pub(crate) enum TenantSource {
    Model(PbitModel),
    Arch(NetworkArch),
}

/// One tenant's registration as the runtime and the fleet take it in, from
/// a [`TenantSpec`] or a [`TenantWorkload`].
#[derive(Debug, Clone)]
pub(crate) struct Registration {
    pub(crate) name: String,
    pub(crate) source: TenantSource,
    pub(crate) batch: Option<usize>,
    pub(crate) slo_ms: Option<f64>,
    pub(crate) overrides: RouteOverrides,
}

impl From<TenantSpec> for Registration {
    fn from(spec: TenantSpec) -> Self {
        Self {
            name: spec.name,
            source: TenantSource::Model(spec.model),
            batch: spec.batch,
            slo_ms: spec.slo_ms,
            overrides: spec.overrides,
        }
    }
}

impl From<&TenantWorkload<'_>> for Registration {
    fn from(w: &TenantWorkload<'_>) -> Self {
        Self {
            name: w.arch.name.clone(),
            source: TenantSource::Arch(w.arch.clone()),
            batch: w.batch,
            slo_ms: w.slo_ms,
            overrides: RouteOverrides::default(),
        }
    }
}

impl Registration {
    pub(crate) fn ask(&self) -> TenantAsk<'_> {
        TenantAsk {
            source: match &self.source {
                TenantSource::Model(m) => PlanSource::Model(m),
                TenantSource::Arch(a) => PlanSource::Arch(a),
            },
            batch: self.batch,
            slo_ms: self.slo_ms,
            overrides: self.overrides,
        }
    }
}

/// What a registered tenant holds on the device.
#[derive(Debug)]
enum TenantBody {
    /// Weights staged into the shared context, a lane on every stream.
    Staged(Arc<StagedModel>),
    /// A dry run: the architecture, its plan at the admitted batch, and
    /// the weight bytes staging would hold, booked but not backed.
    Dry {
        arch: NetworkArch,
        plan: Box<ExecutionPlan>,
        _weights: Buffer,
    },
}

impl TenantBody {
    /// Brings `source` up on `plan`, its lowering at the admitted batch: a
    /// model is staged into `ctx` on that plan and an architecture keeps it
    /// and reserves its resident weight bytes, so both answer to one budget.
    fn stage(
        source: TenantSource,
        ctx: &Context,
        plan: ExecutionPlan,
    ) -> Result<Self, EngineError> {
        Ok(match source {
            TenantSource::Model(model) => {
                TenantBody::Staged(StagedModel::stage_plan(model, ctx.clone(), plan)?)
            }
            TenantSource::Arch(arch) => TenantBody::Dry {
                _weights: ctx.reserve(plan.hot_weight_bytes())?,
                arch,
                plan: Box::new(plan),
            },
        })
    }
}

/// A registered tenant: what it holds on the device, its admission
/// decision, and the modeled window costs the scheduler paces it by.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    body: TenantBody,
    admission: Admission,
    overrides: RouteOverrides,
    cold_ms: f64,
    steady_ms: f64,
}

impl Tenant {
    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's staged (shared, immutable) model state; `None` in a dry
    /// runtime, which stages nothing.
    pub fn staged(&self) -> Option<&Arc<StagedModel>> {
        match &self.body {
            TenantBody::Staged(staged) => Some(staged),
            TenantBody::Dry { .. } => None,
        }
    }

    /// The tenant's execution plan at its current window size.
    pub fn plan(&self) -> &ExecutionPlan {
        match &self.body {
            TenantBody::Staged(staged) => staged.plan(),
            TenantBody::Dry { plan, .. } => plan,
        }
    }

    /// The admission controller's decision for this tenant.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The tenant's p95 SLO, if any.
    fn slo_ms(&self) -> Option<f64> {
        self.admission.slo_ms
    }

    /// Modeled (cold, steady) window milliseconds under the runtime's
    /// clock configuration.
    pub fn modeled_window_ms(&self) -> (f64, f64) {
        (self.cold_ms, self.steady_ms)
    }

    /// The tenant's current window size.
    fn batch(&self) -> usize {
        self.plan().batch.max(1)
    }

    fn source(&self) -> PlanSource<'_> {
        match &self.body {
            TenantBody::Staged(staged) => PlanSource::Model(staged.model()),
            TenantBody::Dry { arch, .. } => PlanSource::Arch(arch),
        }
    }

    /// The ask a live tenant re-enters admission with: its current batch
    /// pinned, and its *effective* overrides (any paged grant included), so
    /// its contribution to a weight budget is its hot-set grant, not its
    /// summed banks.
    fn ask(&self) -> TenantAsk<'_> {
        TenantAsk {
            source: self.source(),
            batch: Some(self.plan().batch),
            slo_ms: self.admission.slo_ms,
            overrides: self.overrides,
        }
    }
}

/// One tenant's request traffic for a serving pass (borrowed; kinds may
/// differ per tenant — that is the point of heterogeneous co-residency).
#[derive(Debug, Clone, Copy)]
pub enum TenantTraffic<'a> {
    /// 8-bit image requests.
    U8(&'a [Tensor<u8>]),
    /// Float-input requests.
    F32(&'a [Tensor<f32>]),
    /// That many requests without payloads — what a dry runtime is fed. A
    /// pass over a count returns no outputs; a staged runtime, which has
    /// nothing to execute for it, rejects it.
    Count(usize),
}

impl TenantTraffic<'_> {
    /// Payload-free traffic matching `arrivals_ms`: per tenant, a
    /// [`TenantTraffic::Count`] of its arrival stream — what a dry pass
    /// over those arrivals is fed.
    pub fn counts(arrivals_ms: &[Vec<f64>]) -> Vec<TenantTraffic<'static>> {
        let count = |a: &Vec<f64>| TenantTraffic::Count(a.len());
        arrivals_ms.iter().map(count).collect()
    }

    /// Requests in this tenant's queue.
    pub fn len(&self) -> usize {
        match self {
            TenantTraffic::U8(r) => r.len(),
            TenantTraffic::F32(r) => r.len(),
            TenantTraffic::Count(n) => *n,
        }
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Window `index` of this queue cut at `batch` (the last one may be
    /// short), as a stream stages it.
    fn window(&self, index: usize, batch: usize) -> Result<Window<'_>, EngineError> {
        let span = |queued: usize| index * batch..((index + 1) * batch).min(queued);
        match self {
            TenantTraffic::U8(r) => Ok(Window::U8(&r[span(r.len())])),
            TenantTraffic::F32(r) => Ok(Window::F32(&r[span(r.len())])),
            TenantTraffic::Count(n) => Err(EngineError::InputMismatch {
                expected: "request tensors for a staged runtime".into(),
                got: format!("a count of {n} requests"),
            }),
        }
    }
}

/// Knobs for one [`DeviceRuntime::serve_open_loop`] pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopOptions {
    /// Retry/backoff policy for faulted attempts.
    pub policy: RetryPolicy,
    /// Re-plan rounds allowed per pass.
    pub max_replans: usize,
}

impl Default for OpenLoopOptions {
    fn default() -> Self {
        Self {
            policy: RetryPolicy::default(),
            max_replans: 2,
        }
    }
}

/// One tenant's row of a serving pass: an [`OpenLoopReport`]'s, from a
/// closed- or open-loop pass alike, or a [`FleetReport`](crate::FleetReport)'s,
/// where the counters sum over every device that served the tenant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Requests that arrived (offered load).
    pub offered: usize,
    /// Requests served (member of a served window).
    pub served: usize,
    /// Requests shed (member of a shed window, or no fleet device left to
    /// host the tenant).
    pub shed: usize,
    /// Requests re-routed after a fleet device failure (0 on one device).
    pub migrated: usize,
    /// Windows formed from the arrivals.
    pub windows: usize,
    /// Windows shed (deadline or retry exhaustion).
    pub windows_shed: usize,
    /// Faulted execution attempts (each either retried or shed).
    pub retries: usize,
    /// Attempts that ran under thermal derating.
    pub throttled: usize,
    /// The tenant's window size for this pass (after any replan); in a
    /// fleet, the largest of its devices'.
    pub batch: usize,
    /// Per-request outputs in arrival order; `None` for shed requests.
    /// Served outputs are bit-exact with a fault-free run. Empty after a
    /// dry run, and on a fleet row (the fleet's outputs are
    /// [`FleetOutcome::outputs`](crate::FleetOutcome::outputs)).
    pub outputs: Vec<Option<ActivationData>>,
    /// Per-served-request latency (completion − **its own arrival**, the
    /// original one for a fleet request re-routed after a failure),
    /// milliseconds, in arrival order over served requests. A closed-loop
    /// window dispatched ahead of its paced arrival counts from its start,
    /// so latency is floored at the service time and queueing delay under
    /// contention shows on top of it — which is what the starvation test
    /// pins.
    pub latency_ms: Vec<f64>,
    /// Median served-request latency, ms; 0.0 when nothing was served.
    pub p50_ms: f64,
    /// 95th-percentile served-request latency, ms; 0.0 when nothing was served.
    pub p95_ms: f64,
    /// 99th-percentile served-request latency, ms; 0.0 when nothing was served.
    pub p99_ms: f64,
    /// 99.9th-percentile served-request latency, ms; 0.0 when nothing was served.
    pub p999_ms: f64,
    /// The tenant's SLO, if any.
    pub slo_ms: Option<f64>,
    /// Whether the served p95 met the SLO: `false` when requests arrived
    /// and none was served, `true` without an SLO or without traffic.
    pub slo_met: bool,
    /// `shed / offered` (0 when nothing arrived).
    pub shed_rate: f64,
}

/// One serving pass, executed or dry: every admitted tenant either meets
/// its SLO or degrades by bounded shedding; surviving outputs are bit-exact
/// with a fault-free run. A closed-loop pass ([`DeviceRuntime::serve`]) is
/// the same report with nothing shed, retried or replanned: `shed`,
/// `windows_shed`, `retries`, `throttled` and `replans` stay zero, every
/// output is `Some`, and the schedule holds one served attempt per window.
#[derive(Debug, PartialEq)]
pub struct OpenLoopReport {
    /// Per-tenant results, in registry order.
    pub tenants: Vec<TenantReport>,
    /// Pooled streams the pass was scheduled over (the ones that carried
    /// traffic are [`OpenLoopSchedule::streams_used`]).
    pub streams: usize,
    /// Last modeled completion (the makespan), milliseconds.
    pub wall_ms: f64,
    /// Served requests over the pass's horizon — `max(wall, last arrival)`
    /// for [`DeviceRuntime::serve_open_loop`], `max(wall, duration)` for
    /// [`estimate_serve_open_loop`], the makespan alone for
    /// [`DeviceRuntime::serve`] — images per second.
    pub goodput_imgs_per_s: f64,
    /// Shed-triggered admission re-plans taken before executing.
    pub replans: usize,
    /// The schedule of the pass (attempts + per-window fates).
    pub schedule: OpenLoopSchedule,
    /// Executed duration of each schedule attempt (service × derate),
    /// milliseconds, in schedule order — equal to the modeled
    /// `end_ms − start_ms` (the no-drift invariant under faults), and what
    /// a single-tenant (sharded) report reads its service percentiles off:
    /// one tenant has no cross-tenant queueing to report. Empty after a dry
    /// run.
    pub attempt_exec_ms: Vec<f64>,
}

/// Per tenant, one output slot per request: `None` until the window's
/// serving attempt fills it, and for good when the window is shed.
type OutputSlots = Vec<Vec<Option<ActivationData>>>;

/// A serving pass before its fold: the schedule it executed, the replans
/// taken to reach it, and what the streams measured and committed.
pub(crate) struct PassRun {
    pub(crate) schedule: OpenLoopSchedule,
    replans: usize,
    attempt_exec_ms: Vec<f64>,
    pub(crate) outputs: OutputSlots,
}

/// The multi-tenant device runtime: a registry of co-resident
/// [`StagedModel`]s on one device, `N` pooled [`Stream`]s, one shared
/// [`DeviceClock`] carrying the tenants' registered mix, and a
/// contention-aware admission decision per tenant.
///
/// ```
/// use phonebit_core::serve::{DeviceRuntime, TenantSpec, TenantTraffic};
/// use phonebit_core::{convert, NetworkBuilder};
/// use phonebit_gpusim::Phone;
/// use phonebit_nn::fuse::BnParams;
/// use phonebit_tensor::shape::{FilterShape, Shape4};
/// use phonebit_tensor::{Filters, Tensor};
///
/// let mk = |name: &str, k: usize| {
///     let filters = Filters::from_fn(FilterShape::new(k, 3, 3, 3), |f, i, j, c| {
///         if (f + i + j + c) % 2 == 0 { 1.0 } else { -1.0 }
///     });
///     NetworkBuilder::new(name, Shape4::new(1, 8, 8, 3))
///         .bconv_input8("conv1", filters, vec![0.0; k], BnParams::identity(k), 1, 1)
///         .softmax()
///         .build()
/// };
/// let mut runtime = DeviceRuntime::new(
///     vec![
///         TenantSpec::new(mk("detector", 8)).with_batch(2),
///         TenantSpec::new(mk("classifier", 16)).with_batch(2),
///     ],
///     &Phone::xiaomi_9(),
///     2,
/// )?;
/// let reqs: Vec<_> = (0..4)
///     .map(|i| Tensor::from_fn(Shape4::new(1, 8, 8, 3), move |_, h, w, c| {
///         ((h * 7 + w * 3 + c * 11 + i) % 256) as u8
///     }))
///     .collect();
/// let report = runtime.serve(&[TenantTraffic::U8(&reqs), TenantTraffic::U8(&reqs)])?;
/// assert_eq!(report.tenants[0].outputs.len(), 4);
/// assert_eq!(report.tenants[1].outputs.len(), 4);
/// assert!(report.goodput_imgs_per_s > 0.0);
/// # Ok::<(), phonebit_core::EngineError>(())
/// ```
#[derive(Debug)]
pub struct DeviceRuntime {
    /// At least one tenant, all staged or all dry.
    tenants: Vec<Tenant>,
    /// The pooled streams the scheduler places windows on, each booking
    /// one arena slice fixed when the runtime comes up (the largest
    /// admitted tenant's `banks × Σ slots`); a dry runtime's have no lanes.
    streams: Vec<Stream>,
    clock: Arc<DeviceClock>,
    ctx: Context,
    /// The phone staged on — kept so live [`DeviceRuntime::attach`] can
    /// re-run admission against the same budget and device.
    phone: Phone,
    /// The pooled weight budget admission granted under, if any — kept so
    /// live [`DeviceRuntime::attach`] re-runs *paged* admission with the
    /// same ceiling.
    weight_budget: Option<usize>,
}

impl DeviceRuntime {
    /// Registers `specs` as co-resident tenants on `phone` with `streams`
    /// pooled streams: runs contention-aware admission per tenant, stages
    /// every model into one budgeted context, registers the tenants' mix
    /// on the shared clock, and draws one pooled arena slice per stream.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when the pooled co-resident
    /// peak exceeds the phone's app budget even at batch 1,
    /// [`EngineError::DomainMismatch`] for a malformed model, or
    /// [`EngineError::InputMismatch`] when `specs` is empty,
    /// `streams == 0` or an SLO is not finite and positive.
    pub fn new(specs: Vec<TenantSpec>, phone: &Phone, streams: usize) -> Result<Self, EngineError> {
        Self::new_with_budget(specs, phone, streams, None)
    }

    /// [`DeviceRuntime::new`] under a pooled **weight budget**: the bytes
    /// of binary weight banks allowed resident at once across all
    /// tenants. Admission grants each tenant full residency, its no-stall
    /// paged floor ([`paged_floor_bytes`](ExecutionPlan::paged_floor_bytes)), or
    /// its hard minimum ([`paged_min_bytes`](ExecutionPlan::paged_min_bytes))
    /// when the floors alone overflow the budget; streamed tenants are
    /// staged against their hot-set grant and page banks through it at
    /// run time, so a tenant set whose summed weights overflow the budget
    /// can still be admitted. `None` is exactly [`DeviceRuntime::new`].
    ///
    /// # Errors
    ///
    /// As [`DeviceRuntime::new`], plus [`EngineError::OutOfMemory`] when
    /// even the tenants' paged minima overflow the weight budget.
    pub fn new_with_budget(
        specs: Vec<TenantSpec>,
        phone: &Phone,
        streams: usize,
        weight_budget: Option<usize>,
    ) -> Result<Self, EngineError> {
        let tenants = specs.into_iter().map(Registration::from).collect();
        Self::register(tenants, phone, streams, weight_budget)
    }

    /// Brings up a **dry** runtime from architectures alone — what a
    /// full-scale estimate is: the admission table, registered mix, memory
    /// accounting, live [`attach_dry`](DeviceRuntime::attach_dry) /
    /// [`detach`](DeviceRuntime::detach) and serving passes of a runtime
    /// over the same tenants with weights, with nothing staged and no
    /// kernel run. Feed its passes [`TenantTraffic::Count`]; their reports
    /// carry the schedule and its fold, no outputs or executed durations.
    ///
    /// # Errors
    ///
    /// As [`DeviceRuntime::new_with_budget`].
    pub fn dry(
        workloads: &[TenantWorkload<'_>],
        phone: &Phone,
        streams: usize,
        weight_budget: Option<usize>,
    ) -> Result<Self, EngineError> {
        let tenants = workloads.iter().map(Registration::from).collect();
        Self::register(tenants, phone, streams, weight_budget)
    }

    /// The one bring-up behind [`new_with_budget`](DeviceRuntime::new_with_budget)
    /// and [`dry`](DeviceRuntime::dry): the runtime is dry when its tenants
    /// register from architectures (callers hand in one kind, never a mix).
    pub(crate) fn register(
        tenants: Vec<Registration>,
        phone: &Phone,
        streams: usize,
        weight_budget: Option<usize>,
    ) -> Result<Self, EngineError> {
        if tenants.is_empty() || streams == 0 {
            return Err(EngineError::InputMismatch {
                expected: ">= 1 tenant on >= 1 stream".into(),
                got: format!("{} tenants on {streams} streams", tenants.len()),
            });
        }
        let gpu = &phone.gpu;
        // Admission also hands back the registered mix at the chosen
        // batches (None for a single tenant: symmetric) and, per tenant,
        // the effective overrides — asked overrides plus any
        // paged-residency grant — every staged plan must be lowered with.
        let (admitted, mix) = {
            let asks: Vec<TenantAsk<'_>> = tenants.iter().map(Registration::ask).collect();
            admit_tenants(&asks, phone, streams, weight_budget)?
        };

        let ctx = Context::new(gpu.clone(), phone.app_budget_bytes());
        let clock = DeviceClock::with_streams(gpu.clone(), streams);
        clock.set_mix(mix);

        let mut registry = Vec::with_capacity(tenants.len());
        for (reg, adm) in tenants.into_iter().zip(admitted) {
            registry.push(Tenant {
                name: reg.name,
                body: TenantBody::stage(reg.source, &ctx, adm.plan)?,
                admission: adm.admission,
                overrides: adm.overrides,
                cold_ms: adm.cold_ms,
                steady_ms: adm.steady_ms,
            });
        }
        let slice = registry
            .iter()
            .map(|t| t.plan().staged_arena_bytes())
            .max()
            .unwrap_or(0);
        let staged: Vec<Arc<StagedModel>> = registry
            .iter()
            .filter_map(|t| t.staged().cloned())
            .collect();
        Ok(Self {
            tenants: registry,
            streams: (0..streams)
                .map(|_| Stream::pooled(&staged, slice, &ctx, Some(Arc::clone(&clock))))
                .collect::<Result<Vec<_>, _>>()?,
            clock,
            ctx,
            phone: phone.clone(),
            weight_budget,
        })
    }

    /// The tenant registry, in registration order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Pooled streams serving the registry.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Whether the registry holds architectures alone — read off its first
    /// tenant, since a runtime holds at least one and all of one kind.
    fn is_dry(&self) -> bool {
        self.tenants[0].staged().is_none()
    }

    /// The shared device clock (symmetric for one tenant, carrying the
    /// registered mix for several).
    pub fn clock(&self) -> &Arc<DeviceClock> {
        &self.clock
    }

    /// Device bytes resident **right now**: every tenant's staged weight
    /// footprint — a streamed tenant's hot-set pool, not its summed banks
    /// — plus every stream's pooled arena slice
    /// (`Σ peak_weight + streams × max_tenant(banks × Σ slots)`). This is
    /// the *peak* the device must hold, the number budgets are checked
    /// against; the unpaged total lives in
    /// [`total_weight_bytes`](DeviceRuntime::total_weight_bytes). The two
    /// coincide when no tenant streams. A dry runtime books the same bytes,
    /// read off its admitted plans, against the same context.
    pub fn resident_bytes(&self) -> usize {
        self.ctx.used_bytes()
    }

    /// Summed binary weight-bank bytes across every tenant as if all were
    /// fully resident — the paged-out total, which can exceed
    /// [`resident_bytes`](DeviceRuntime::resident_bytes) when tenants
    /// stream under a weight budget.
    pub fn total_weight_bytes(&self) -> usize {
        self.tenants.iter().map(|t| t.plan().weights_bytes).sum()
    }

    /// The pooled weight budget admission granted under, if any.
    pub fn weight_budget(&self) -> Option<usize> {
        self.weight_budget
    }

    /// One stream's pooled arena slice, bytes.
    pub fn pool_slice_bytes(&self) -> usize {
        self.streams.first().map_or(0, Stream::slice_bytes)
    }

    /// Serves every tenant's request queue in one **closed-loop** pass —
    /// the open-loop pass over paced arrivals: request `r` of a tenant
    /// arrives with its window, window `k` at `k × target`; every window is
    /// pending at time 0, never shed, and paced at `(k + 1) × target`
    /// ([`schedule_open_loop`] then places them — least slack first);
    /// streams execute their assignments (concurrently when the host has
    /// threads for them), and outputs are reassembled per tenant in arrival
    /// order. Nothing is replanned, the device clock's fault plan (an
    /// open-loop input) is ignored, and goodput is over the makespan.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] when `traffic` does not line
    /// up with the registry (one entry per tenant), a tenant's requests
    /// disagree with its model's input kind or shape, or a staged runtime
    /// is handed a payload-free [`TenantTraffic::Count`].
    pub fn serve(&mut self, traffic: &[TenantTraffic<'_>]) -> Result<OpenLoopReport, EngineError> {
        // A tenant's per-window pacing target, milliseconds: its SLO when
        // set, else its own modeled steady window.
        let target = |t: &Tenant| t.slo_ms().unwrap_or(t.steady_ms).max(f64::MIN_POSITIVE);
        let arrivals_ms: Vec<Vec<f64>> = self
            .tenants
            .iter()
            .zip(traffic)
            .map(|(t, q)| {
                let paced = |r: usize| (r / t.batch()) as f64 * target(t);
                (0..q.len()).map(paced).collect()
            })
            .collect();
        let opts = OpenLoopOptions {
            max_replans: 0,
            ..OpenLoopOptions::default()
        };
        let run = self.run(traffic, &arrivals_ms, &opts, None, |t, arrivals| {
            closed_loop_windows(arrivals.len().div_ceil(t.batch()), target(t))
        })?;
        Ok(self.fold(run, &arrivals_ms, 0.0))
    }

    /// Executes a schedule verbatim: every attempt — faulted ones
    /// included, they burn real device time — on its assigned stream, in
    /// modeled start order, one stream per [`par_chunks_mut`] chunk: on a
    /// one-thread host the streams run in order on the caller, otherwise
    /// concurrently with the caller running stream 0. The reports do not
    /// depend on which, since the [`DeviceClock`] never reads the wall
    /// clock or thread order. Returns each attempt's executed milliseconds
    /// in schedule order (service × the derate the scheduler applied at its
    /// start) and, per tenant, one output slot per request, filled by the
    /// window's non-faulted attempt and left `None` for shed requests.
    ///
    /// A dry runtime's streams have no lanes to run anything on: it returns
    /// no durations and no slots, and the pass reports its schedule alone.
    fn execute(
        &mut self,
        traffic: &[TenantTraffic<'_>],
        attempts: &[OpenLoopAttempt],
    ) -> Result<(Vec<f64>, OutputSlots), EngineError> {
        if self.is_dry() {
            return Ok((Vec::new(), vec![Vec::new(); traffic.len()]));
        }
        let tenants = &self.tenants;
        // Every pass starts with cold lanes, matching the scheduler's
        // cold-first-window-per-(stream, tenant) model — a reused runtime
        // must not execute primed windows against a cold schedule.
        for stream in &mut self.streams {
            stream.reset_lanes();
        }
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); self.streams.len()];
        for (k, at) in attempts.iter().enumerate() {
            assignments[at.stream].push(k);
        }
        // One stream per chunk: its assignment and its result slot.
        let mut runs: Vec<_> = self
            .streams
            .iter_mut()
            .zip(&assignments)
            .map(|(stream, mine)| (stream, mine, Ok(Vec::new())))
            .collect();
        par_chunks_mut(&mut runs, 1, |_, run| {
            let (stream, mine, done) = &mut run[0];
            *done = mine
                .iter()
                .map(|&k| {
                    let at = &attempts[k];
                    let batch = tenants[at.tenant].batch();
                    let window = traffic[at.tenant].window(at.index, batch)?;
                    stream.run_window(at.tenant, window)
                })
                .collect();
        });
        let mut exec_ms = vec![0.0; attempts.len()];
        let mut outputs: OutputSlots = traffic.iter().map(|q| vec![None; q.len()]).collect();
        for (_, mine, done) in runs {
            for (&k, report) in mine.iter().zip(done?) {
                let at = &attempts[k];
                exec_ms[k] = report.total_s * 1e3 * at.slowdown;
                if !at.faulted {
                    let batch = tenants[at.tenant].batch();
                    let out = report.output.as_ref().expect("serving captures outputs");
                    let slots = outputs[at.tenant].iter_mut().skip(at.index * batch);
                    for (j, slot) in slots.take(batch).enumerate() {
                        *slot = Some(out.image(j));
                    }
                }
            }
        }
        Ok((exec_ms, outputs))
    }

    /// Re-measures every tenant's [`QueueLoad`] at its current batch,
    /// re-registers the blended mix on the shared clock, and refreshes
    /// each tenant's modeled window costs and admission verdict — the
    /// bookkeeping shared by live attach/detach and shed-triggered
    /// replans.
    fn refresh_mix(&mut self) {
        let plans: Vec<&ExecutionPlan> = self.tenants.iter().map(|t| t.plan()).collect();
        let (mix, windows_ms) = modeled_windows(&plans, &self.phone.gpu, self.streams.len());
        self.clock.set_mix(mix);
        for (t, (cold_ms, steady_ms)) in self.tenants.iter_mut().zip(windows_ms) {
            t.cold_ms = cold_ms;
            t.steady_ms = steady_ms;
            t.admission.modeled_window_ms = steady_ms;
            t.admission.slo_met = t.admission.slo_ms.is_none_or(|slo| steady_ms <= slo);
        }
    }

    /// Brings tenant `t` up again at a new window size (a shed-triggered
    /// batch replan): stages the model again into the shared context,
    /// swaps the tenant's lane on every stream — the pooled slice is never
    /// regrown and the surviving tenants are untouched — then refreshes
    /// the registered mix.
    fn restage_tenant(&mut self, t: usize, batch: usize) -> Result<(), EngineError> {
        let tenant = &self.tenants[t];
        let plan = tenant
            .source()
            .plan_at(&self.phone.gpu, batch, tenant.overrides)?;
        let source = match &tenant.body {
            TenantBody::Staged(staged) => TenantSource::Model(staged.model().clone()),
            TenantBody::Dry { arch, .. } => TenantSource::Arch(arch.clone()),
        };
        let body = TenantBody::stage(source, &self.ctx, plan)?;
        if let TenantBody::Staged(staged) = &body {
            for stream in &mut self.streams {
                stream.replace_lane(t, staged)?;
            }
        }
        self.tenants[t].body = body;
        self.tenants[t].admission.batch = batch;
        self.refresh_mix();
        Ok(())
    }

    /// Attaches a new tenant to the **live** registry: admission runs with
    /// every survivor's batch pinned, the newcomer is staged into the
    /// shared context, and a lane is added to every stream — survivors are
    /// never restaged, so their staged state, outputs, and admission are
    /// bit-identical before and after. Because the pooled arena slice is
    /// not regrown, the newcomer's batch is clamped to what fits the
    /// existing slice ([`Stream::attach_lane`]).
    ///
    /// Returns the new tenant's registry index.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when the newcomer does not fit
    /// the existing pooled slice even at batch 1, or when its weights
    /// exceed the context's remaining budget;
    /// [`EngineError::DomainMismatch`] for a malformed model;
    /// [`EngineError::InputMismatch`] on a dry runtime, which has nowhere
    /// to stage a model, or for an SLO that is not finite and positive.
    pub fn attach(&mut self, spec: TenantSpec) -> Result<usize, EngineError> {
        self.attach_registration(spec.into())
    }

    /// [`DeviceRuntime::attach`] for a dry runtime: the same admission,
    /// slice clamp and mix refresh over an architecture, nothing staged.
    ///
    /// # Errors
    ///
    /// As [`DeviceRuntime::attach`]; [`EngineError::InputMismatch`] on a
    /// staged runtime, which cannot execute a tenant without weights.
    pub fn attach_dry(&mut self, workload: &TenantWorkload<'_>) -> Result<usize, EngineError> {
        self.attach_registration(workload.into())
    }

    /// The one live attach behind [`attach`](DeviceRuntime::attach) and
    /// [`attach_dry`](DeviceRuntime::attach_dry).
    pub(crate) fn attach_registration(&mut self, reg: Registration) -> Result<usize, EngineError> {
        if matches!(reg.source, TenantSource::Arch(_)) != self.is_dry() {
            return Err(EngineError::InputMismatch {
                expected: "a model for a staged runtime, an architecture for a dry one".into(),
                got: format!("tenant `{}` of the other kind", reg.name),
            });
        }
        let gpu = self.phone.gpu.clone();
        // Admission runs over the whole roster with every survivor pinned;
        // only the newcomer's row is acted on.
        let newcomer = {
            let mut asks: Vec<TenantAsk<'_>> = self.tenants.iter().map(Tenant::ask).collect();
            asks.push(reg.ask());
            let (admitted, _) =
                admit_tenants(&asks, &self.phone, self.streams.len(), self.weight_budget)?;
            admitted.into_iter().next_back().expect("newcomer row")
        };
        let (mut admission, overrides) = (newcomer.admission, newcomer.overrides);
        // Survivors keep their lanes: the newcomer must fit the existing
        // pooled slice, clamping its batch below the memory cap when the
        // slice binds first.
        let slice = self.pool_slice_bytes();
        let arena_at = |b: usize| {
            let plan = reg.ask().source.plan_at(&gpu, b, overrides);
            plan.map(|p| p.staged_arena_bytes()).ok()
        };
        let slice_cap = largest_batch_where(|b| arena_at(b).is_some_and(|bytes| bytes <= slice));
        if slice_cap == 0 {
            return Err(EngineError::OutOfMemory(SimError::OutOfMemory {
                requested: arena_at(1).unwrap_or(0),
                in_use: 0,
                budget: slice,
            }));
        }
        admission.max_feasible_batch = admission.max_feasible_batch.min(slice_cap);
        let plan = if admission.batch <= slice_cap {
            newcomer.plan
        } else {
            admission.batch = slice_cap;
            reg.ask().source.plan_at(&gpu, slice_cap, overrides)?
        };
        let body = TenantBody::stage(reg.source, &self.ctx, plan)?;
        if let TenantBody::Staged(staged) = &body {
            for stream in &mut self.streams {
                stream.attach_lane(staged)?;
            }
        }
        self.tenants.push(Tenant {
            name: reg.name,
            body,
            admission,
            overrides,
            cold_ms: 0.0, // refreshed just below
            steady_ms: 0.0,
        });
        self.refresh_mix();
        Ok(self.tenants.len() - 1)
    }

    /// Detaches tenant `tenant` from the live registry: its lane is
    /// removed from every stream (later tenants shift down one index), its
    /// staged memory is released back to the shared context, and the
    /// registered mix is re-measured over the survivors — which are never
    /// restaged.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`], leaving the registry and
    /// every lane untouched, when `tenant` is out of range or is the last
    /// remaining tenant (a runtime always serves at least one).
    pub fn detach(&mut self, tenant: usize) -> Result<(), EngineError> {
        let tenants = self.tenants.len();
        if tenant >= tenants || tenants == 1 {
            return Err(EngineError::InputMismatch {
                expected: format!("one of {tenants} tenants, leaving >= 1"),
                got: format!("detach of tenant {tenant}"),
            });
        }
        if !self.is_dry() {
            for stream in &mut self.streams {
                stream.detach_lane(tenant);
            }
        }
        self.tenants.remove(tenant);
        self.refresh_mix();
        Ok(())
    }

    /// Serves **open-loop** traffic: each tenant's requests carry their
    /// own arrival timestamps, deadlines anchor to arrival (+SLO), and the
    /// pass survives the device clock's injected [`FaultPlan`] (if any) by
    /// bounded retry with backoff, deadline shedding, and shed-triggered
    /// batch replans — see [`schedule_open_loop`] for the policy.
    ///
    /// `arrivals_ms[t]` must be sorted ascending with one timestamp per
    /// request in `traffic[t]`. Windows group consecutive arrivals at the
    /// tenant's admitted batch; a window is dispatchable once its last
    /// member has arrived and inherits its deadline from its first.
    ///
    /// Served outputs are **bit-exact** with a fault-free (closed-loop or
    /// open-loop) run of the same requests; shed requests come back as
    /// `None`. The executed per-attempt durations equal the modeled
    /// schedule's ([`OpenLoopReport::attempt_exec_ms`]) — faults and
    /// throttling do not break the no-drift invariant. A dry runtime
    /// reports the same schedule, counters and percentiles with no outputs
    /// and no executed durations.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] when `traffic`/`arrivals_ms`
    /// do not line up with the registry, a tenant's arrivals are unsorted,
    /// miscounted, negative or not finite, a request disagrees with its
    /// model's input, or a staged runtime is handed a payload-free
    /// [`TenantTraffic::Count`].
    pub fn serve_open_loop(
        &mut self,
        traffic: &[TenantTraffic<'_>],
        arrivals_ms: &[Vec<f64>],
        opts: &OpenLoopOptions,
    ) -> Result<OpenLoopReport, EngineError> {
        let run = self.run_open_loop(traffic, arrivals_ms, opts)?;
        let last_arrival_ms = arrivals_ms.iter().filter_map(|a| a.last().copied());
        Ok(self.fold(run, arrivals_ms, last_arrival_ms.fold(0.0, f64::max)))
    }

    /// [`DeviceRuntime::serve_open_loop`] short of its fold: the schedule
    /// the pass executed and each tenant's output slots, no rows — what a
    /// fleet device hands the fleet, which folds each request once,
    /// fleet-wide.
    pub(crate) fn run_open_loop(
        &mut self,
        traffic: &[TenantTraffic<'_>],
        arrivals_ms: &[Vec<f64>],
        opts: &OpenLoopOptions,
    ) -> Result<PassRun, EngineError> {
        let fault = self.clock.fault_plan();
        self.run(traffic, arrivals_ms, opts, fault, |t, arr| {
            open_loop_windows(arr, t.batch(), t.slo_ms(), t.steady_ms)
        })
    }

    /// The one serving pass short of its fold — validate, window, schedule,
    /// replan, execute — behind every entry point: `windows_of` turns a
    /// tenant's arrivals into the windows the scheduler sees (arrival-gated
    /// with deadlines for an open loop, all pending and paced for a closed
    /// one), and `fault` is the plan attempts roll against.
    fn run(
        &mut self,
        traffic: &[TenantTraffic<'_>],
        arrivals_ms: &[Vec<f64>],
        opts: &OpenLoopOptions,
        fault: Option<FaultPlan>,
        windows_of: impl Fn(&Tenant, &[f64]) -> Vec<OpenLoopWindow>,
    ) -> Result<PassRun, EngineError> {
        validate_arrivals(self.tenants.len(), traffic, arrivals_ms)?;

        // Plan the pass, re-planning batches while any tenant's modeled
        // shed rate crosses the threshold: halve the worst offender's
        // window and restage only that tenant. Smaller windows fill
        // faster (earlier ready times) and lose fewer requests per shed —
        // graceful degradation past the knee instead of batch-sized
        // losses.
        let mut replans = 0usize;
        let schedule = loop {
            let loads: Vec<OpenLoopLoad> = self
                .tenants
                .iter()
                .zip(arrivals_ms)
                .map(|(t, arr)| OpenLoopLoad {
                    windows: windows_of(t, arr),
                    cold_ms: t.cold_ms,
                    steady_ms: t.steady_ms,
                })
                .collect();
            let schedule =
                schedule_open_loop(&loads, self.streams.len(), fault.as_ref(), &opts.policy);

            // Request shed rate above which the offending tenant's batch
            // is halved before executing — graceful degradation past the
            // knee.
            const SHED_REPLAN_THRESHOLD: f64 = 0.25;
            let mut worst: Option<(usize, f64)> = None;
            if replans < opts.max_replans {
                for (t, fates) in schedule.fates.iter().enumerate() {
                    let (offered, batch) = (arrivals_ms[t].len(), self.tenants[t].batch());
                    if offered == 0 || batch <= 1 {
                        continue;
                    }
                    let requests = request_fates(fates, &arrivals_ms[t], batch, |&a| a);
                    let shed = requests.filter(|(_, _, latency)| latency.is_none()).count();
                    let rate = shed as f64 / offered as f64;
                    if rate > SHED_REPLAN_THRESHOLD && worst.is_none_or(|(_, r)| rate > r) {
                        worst = Some((t, rate));
                    }
                }
            }
            let Some((t, _)) = worst else { break schedule };
            match self.restage_tenant(t, (self.tenants[t].batch() / 2).max(1)) {
                Ok(()) => replans += 1,
                // No headroom to restage: keep the current plan and
                // degrade by shedding instead of failing the whole pass.
                Err(EngineError::OutOfMemory(_)) => break schedule,
                Err(e) => return Err(e),
            }
        };

        let (attempt_exec_ms, outputs) = self.execute(traffic, &schedule.attempts)?;
        Ok(PassRun {
            schedule,
            replans,
            attempt_exec_ms,
            outputs,
        })
    }

    /// Folds a run into its report: per tenant, one [`TenantReport`] off
    /// the schedule over its arrivals; goodput is served requests over
    /// `max(wall, horizon_ms)` — a pass over explicit arrivals ends at the
    /// last of them, one over an arrival *process* at the duration it was
    /// sampled for.
    fn fold(&self, run: PassRun, arrivals_ms: &[Vec<f64>], horizon_ms: f64) -> OpenLoopReport {
        let schedule = &run.schedule;
        let rows = self.tenants.iter().zip(arrivals_ms).zip(run.outputs);
        let tenants: Vec<TenantReport> = rows
            .enumerate()
            .map(|(t, ((tenant, arrivals), outputs))| {
                let requests = request_fates(&schedule.fates[t], arrivals, tenant.batch(), |&a| a);
                let latency_ms = requests.filter_map(|(_, _, latency)| latency).collect();
                let mut counts = WindowCounts::default();
                counts.add(schedule, t, tenant.plan().batch);
                let (name, offered) = (tenant.name.clone(), arrivals.len());
                TenantReport {
                    outputs,
                    ..TenantReport::new(name, latency_ms, offered, tenant.slo_ms(), counts)
                }
            })
            .collect();
        let served_total: usize = tenants.iter().map(|t| t.served).sum();
        let horizon_ms = run.schedule.wall_ms.max(horizon_ms);
        OpenLoopReport {
            tenants,
            streams: self.streams.len(),
            wall_ms: run.schedule.wall_ms,
            goodput_imgs_per_s: if horizon_ms > 0.0 {
                served_total as f64 / (horizon_ms * 1e-3)
            } else {
                0.0
            },
            replans: run.replans,
            schedule: run.schedule,
            attempt_exec_ms: run.attempt_exec_ms,
        }
    }
}

/// Checks open-loop traffic where it enters — the device runtime and the
/// fleet both serve through this gate: one queue and one arrival stream
/// per tenant, one timestamp per request, timestamps sorted (ties
/// allowed), finite and non-negative. A non-finite arrival would never
/// become ready and stall the scheduler's idle-forward step. Sorted is by
/// [`f64::total_cmp`], the fleet router's merge order: `-0.0` < `0.0`.
pub(crate) fn validate_arrivals(
    tenants: usize,
    traffic: &[TenantTraffic<'_>],
    arrivals_ms: &[Vec<f64>],
) -> Result<(), EngineError> {
    if traffic.len() != tenants || arrivals_ms.len() != tenants {
        return Err(EngineError::InputMismatch {
            expected: format!("{tenants} tenant queues with arrivals"),
            got: format!(
                "{} queues, {} arrival streams",
                traffic.len(),
                arrivals_ms.len()
            ),
        });
    }
    for (t, (q, a)) in traffic.iter().zip(arrivals_ms.iter()).enumerate() {
        if q.len() != a.len() {
            return Err(EngineError::InputMismatch {
                expected: format!("{} arrival times for tenant {t}", q.len()),
                got: format!("{} timestamps", a.len()),
            });
        }
        if let Some(bad) = a.iter().find(|v| !v.is_finite() || **v < 0.0) {
            return Err(EngineError::InputMismatch {
                expected: format!("finite non-negative arrivals for tenant {t}"),
                got: format!("{bad}"),
            });
        }
        if a.windows(2).any(|w| w[1].total_cmp(&w[0]).is_lt()) {
            return Err(EngineError::InputMismatch {
                expected: format!("sorted arrivals for tenant {t}"),
                got: "out-of-order timestamps".into(),
            });
        }
    }
    Ok(())
}

/// The one window → request walk: each member of a tenant's windows
/// (`members` in arrival order, cut at the schedule's window size `batch`)
/// with its window's fate and, if served, its latency: completion minus
/// `arrival_ms(member)`, or minus the window's start if that came first —
/// only a closed loop's paced arrival can. An open-loop member, re-routed
/// or not, arrived before its window was ready, so a fleet's latency counts
/// from the original arrival.
pub(crate) fn request_fates<'a, M>(
    fates: &'a [WindowFate],
    members: &'a [M],
    batch: usize,
    arrival_ms: impl Fn(&M) -> f64 + Copy + 'a,
) -> impl Iterator<Item = (&'a M, &'a WindowFate, Option<f64>)> + 'a {
    let windows = fates.iter().zip(members.chunks(batch.max(1)));
    windows.flat_map(move |(fate, window)| {
        window.iter().map(move |member| {
            let latency_ms = match *fate {
                WindowFate::Served {
                    start_ms, end_ms, ..
                } => Some(end_ms - arrival_ms(member).min(start_ms)),
                WindowFate::Shed { .. } => None,
            };
            (member, fate, latency_ms)
        })
    })
}

/// A tenant's window and attempt counters, summed over the schedules that
/// served it (one on a device, each of its devices' in a fleet), and the
/// largest window size among them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WindowCounts {
    windows: usize,
    windows_shed: usize,
    retries: usize,
    throttled: usize,
    batch: usize,
}

impl WindowCounts {
    /// Adds registry slot `t`'s windows and attempts on `schedule`, which
    /// windowed it at `batch`.
    pub(crate) fn add(&mut self, schedule: &OpenLoopSchedule, t: usize, batch: usize) {
        let fates = &schedule.fates[t];
        self.windows += fates.len();
        self.windows_shed += fates.iter().filter(|f| !f.is_served()).count();
        for a in schedule.attempts.iter().filter(|a| a.tenant == t) {
            self.retries += usize::from(a.faulted);
            self.throttled += usize::from(a.slowdown > 1.0);
        }
        self.batch = self.batch.max(batch);
    }
}

impl TenantReport {
    /// The one constructor of a row, a device's or a fleet's: percentiles,
    /// SLO verdict and shed counts from its served latencies (arrival
    /// order) out of `offered` requests, the rest from its window counters.
    /// `migrated` and the outputs are the caller's.
    pub(crate) fn new(
        name: String,
        latency_ms: Vec<f64>,
        offered: usize,
        slo_ms: Option<f64>,
        counts: WindowCounts,
    ) -> Self {
        let served = latency_ms.len();
        let shed = offered - served;
        // The extra p99.9 rank is where fault retries live.
        let [p50_ms, p95_ms, p99_ms, p999_ms] =
            nearest_rank(&latency_ms, [0.50, 0.95, 0.99, 0.999]);
        Self {
            name,
            offered,
            served,
            shed,
            windows: counts.windows,
            windows_shed: counts.windows_shed,
            retries: counts.retries,
            throttled: counts.throttled,
            batch: counts.batch,
            latency_ms,
            p50_ms,
            p95_ms,
            p99_ms,
            p999_ms,
            slo_ms,
            // Traffic with nothing served has no p95 to meet the SLO with.
            slo_met: slo_ms.is_none_or(|slo| p95_ms <= slo && (served > 0 || offered == 0)),
            shed_rate: shed as f64 / offered.max(1) as f64,
            ..Self::default()
        }
    }
}

// ---------------------------------------------------------------------------
// Full-scale estimates: dry runs over seeded arrival processes
// ---------------------------------------------------------------------------

/// One tenant's workload for a full-scale **open-loop** estimate: an
/// architecture plus a seeded arrival process.
#[derive(Debug, Clone)]
pub struct OpenLoopWorkload<'a> {
    /// The tenant's architecture.
    pub arch: &'a NetworkArch,
    /// Requested window size (`None` lets admission pick).
    pub batch: Option<usize>,
    /// p95 latency target, milliseconds (deadline = arrival + SLO).
    pub slo_ms: Option<f64>,
    /// Seeded request arrival process.
    pub arrival: ArrivalProcess,
    /// Arrival-stream seed (same seed ⇒ same arrivals ⇒ same schedule).
    pub seed: u64,
}

/// What a dry pass over `workloads` is built from and fed: each tenant's
/// registration, and its seeded arrival stream over `duration_ms`.
///
/// # Errors
///
/// Returns [`EngineError::InputMismatch`] unless `duration_ms` is finite
/// and positive (an unbounded horizon would draw arrivals until the
/// generator's cap).
pub(crate) fn dry_inputs<'a>(
    workloads: &[OpenLoopWorkload<'a>],
    duration_ms: f64,
) -> Result<(Vec<TenantWorkload<'a>>, Vec<Vec<f64>>), EngineError> {
    if !duration_ms.is_finite() || duration_ms <= 0.0 {
        return Err(EngineError::InputMismatch {
            expected: "a finite, positive duration_ms".into(),
            got: format!("{duration_ms}"),
        });
    }
    Ok(workloads
        .iter()
        .map(|w| {
            let tenant = TenantWorkload {
                arch: w.arch,
                batch: w.batch,
                slo_ms: w.slo_ms,
            };
            (tenant, w.arrival.times_ms(w.seed, duration_ms))
        })
        .unzip())
}

/// Models an open-loop serving pass at full scale (no weights, no kernel
/// bodies): a [dry](DeviceRuntime::dry) runtime over the workloads'
/// architectures serves the counts of their seeded arrivals under the
/// given fault plan — [`DeviceRuntime::serve_open_loop`] itself, so fates,
/// counters and percentiles are those of an executed run with the same
/// inputs. `tenants[i].outputs` and `attempt_exec_ms` stay empty, and
/// goodput is over `max(wall, duration_ms)`.
///
/// Unlike a default runtime pass this does not re-plan batches on shed
/// pressure (`max_replans: 0`); it reports the knee as-is so load sweeps
/// show the raw degradation curve.
///
/// # Panics
///
/// Panics with the [`EngineError`]'s text when `workloads` is empty,
/// `streams == 0`, `duration_ms` is not finite and positive, an
/// architecture cannot be lowered (`DomainMismatch`), or the tenant set
/// does not fit the phone's budget even at batch 1 (estimate callers pick
/// the pairing).
pub fn estimate_serve_open_loop(
    phone: &Phone,
    workloads: &[OpenLoopWorkload<'_>],
    streams: usize,
    duration_ms: f64,
    fault: Option<&FaultPlan>,
    policy: &RetryPolicy,
) -> OpenLoopReport {
    let pass = || -> Result<OpenLoopReport, EngineError> {
        let (tenants, arrivals_ms) = dry_inputs(workloads, duration_ms)?;
        let mut runtime = DeviceRuntime::dry(&tenants, phone, streams, None)?;
        runtime.clock().set_fault_plan(fault.cloned());
        let counts = TenantTraffic::counts(&arrivals_ms);
        let opts = OpenLoopOptions {
            policy: *policy,
            max_replans: 0,
        };
        let run = runtime.run_open_loop(&counts, &arrivals_ms, &opts)?;
        Ok(runtime.fold(run, &arrivals_ms, duration_ms))
    };
    pass().unwrap_or_else(|e| panic!("estimate_serve_open_loop: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;
    use phonebit_models::zoo::{self, Variant};
    use phonebit_models::{fill_weights, synthetic_image};

    fn micro_model() -> PbitModel {
        convert(&fill_weights(&zoo::yolo_micro(Variant::Binary), 11))
    }

    fn requests(count: usize) -> Vec<Tensor<u8>> {
        let input = zoo::yolo_micro(Variant::Binary).input;
        (0..count)
            .map(|i| synthetic_image(input, 40 + i as u64))
            .collect()
    }

    /// One model as a registry of one — the sharded single-model runtime.
    fn solo_runtime(streams: usize, batch: Option<usize>, slo_ms: Option<f64>) -> DeviceRuntime {
        let mut spec = TenantSpec::new(micro_model());
        spec.batch = batch;
        spec.slo_ms = slo_ms;
        DeviceRuntime::new(vec![spec], &Phone::xiaomi_9(), streams).expect("fits")
    }

    #[test]
    fn admission_rejects_an_slo_that_is_not_finite_and_positive() {
        for slo in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let spec = TenantSpec::new(micro_model()).with_slo_ms(slo);
            let err = DeviceRuntime::new(vec![spec], &Phone::xiaomi_9(), 1)
                .err()
                .unwrap_or_else(|| panic!("SLO {slo} ms admitted"));
            assert!(
                matches!(&err, EngineError::InputMismatch { expected, .. } if expected == "a finite SLO > 0 ms"),
                "{slo}: {err:?}"
            );
        }
    }

    #[test]
    fn sharded_serving_reassembles_request_order() {
        let phone = Phone::xiaomi_9();
        let mut runtime = solo_runtime(2, Some(2), None);
        let reqs = requests(7);
        let pass = runtime.serve(&[TenantTraffic::U8(&reqs)]).expect("serve");
        let report = &pass.tenants[0];
        assert_eq!(report.served, 7);
        assert_eq!(report.windows, 4, "7 requests in windows of 2");
        assert_eq!(pass.schedule.streams_used(), 2);
        assert_eq!(report.outputs.len(), 7);
        assert_eq!(pass.attempt_exec_ms.len(), 4);
        assert_eq!((report.shed, report.retries, pass.replans), (0, 0, 0));
        assert!(pass.goodput_imgs_per_s > 0.0);
        let [p50, p95, p99] = nearest_rank(&pass.attempt_exec_ms, [0.50, 0.95, 0.99]);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);
        assert!(report.slo_met, "no SLO set");
        // Two streams pull windows 0 and 1 at time 0, window 1 ahead of its
        // paced arrival: its requests' latency is floored at its service.
        for (r, &latency_ms) in report.latency_ms.iter().enumerate() {
            let at = pass.schedule.attempts.iter().find(|a| a.index == r / 2);
            let at = at.expect("every window is served");
            assert!(latency_ms >= at.end_ms - at.start_ms, "request {r}");
        }
        // Outputs match one-by-one sequential runs on a plain Session.
        let mut solo = crate::Session::new(micro_model(), &phone).expect("fits");
        for (i, req) in reqs.iter().enumerate() {
            let want = solo.run_u8(req).unwrap().output.unwrap();
            match (report.outputs[i].as_ref(), &want) {
                (Some(ActivationData::Floats(a)), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "request {i}")
                }
                _ => panic!("unexpected output kinds"),
            }
        }
    }

    #[test]
    fn serving_is_deterministic_across_runs() {
        let reqs = requests(12);
        let mut a = solo_runtime(3, Some(2), None);
        let mut b = solo_runtime(3, Some(2), None);
        let ra = a.serve(&[TenantTraffic::U8(&reqs)]).unwrap();
        let rb = b.serve(&[TenantTraffic::U8(&reqs)]).unwrap();
        assert_eq!(
            ra.attempt_exec_ms, rb.attempt_exec_ms,
            "modeled time is deterministic"
        );
        assert_eq!(ra.goodput_imgs_per_s, rb.goodput_imgs_per_s);
    }

    #[test]
    fn admission_respects_memory_cap_and_slo() {
        // Unconstrained: the controller picks the throughput-best batch.
        let free = solo_runtime(2, None, None);
        let unconstrained = free.tenants()[0].admission().clone();
        assert!(unconstrained.batch >= 1);
        assert!(unconstrained.batch <= unconstrained.max_feasible_batch);
        assert!(unconstrained.slo_met);

        // A tight SLO admits a smaller (or equal) batch.
        let tight_ms = unconstrained.modeled_window_ms * 0.6;
        let tight = solo_runtime(2, None, Some(tight_ms));
        let tight = tight.tenants()[0].admission();
        assert!(tight.batch <= unconstrained.batch);
        if tight.slo_met {
            assert!(tight.modeled_window_ms <= tight_ms);
        } else {
            assert_eq!(tight.batch, 1, "degraded serving at batch 1");
        }

        // An explicit batch beyond the memory cap is clamped to it.
        let clamped = solo_runtime(2, Some(1 << 20), None);
        let clamped = clamped.tenants()[0].admission();
        assert_eq!(clamped.batch, clamped.max_feasible_batch);
    }

    #[test]
    fn resident_bytes_scale_with_stream_count() {
        let one = solo_runtime(1, Some(2), None);
        let three = solo_runtime(3, Some(2), None);
        let staged = one.tenants()[0].staged().expect("staged from a model");
        let weights = staged.model().size_bytes();
        let arena = staged.plan().staged_arena_bytes();
        assert_eq!(one.resident_bytes(), weights + arena);
        assert_eq!(three.resident_bytes(), weights + 3 * arena);
        assert_eq!(three.stream_count(), 3);
        assert_eq!(three.clock().streams(), 3);
    }

    /// The sharded single-model estimate: a dry registry of one, and its
    /// closed-loop pass over `windows` full windows.
    fn solo_dry(
        phone: &Phone,
        arch: &NetworkArch,
        batch: usize,
        streams: usize,
        windows: usize,
    ) -> (DeviceRuntime, OpenLoopReport) {
        let workload = TenantWorkload {
            arch,
            batch: Some(batch),
            slo_ms: None,
        };
        let mut runtime = DeviceRuntime::dry(&[workload], phone, streams, None).expect("fits");
        let pass = runtime
            .serve(&[TenantTraffic::Count(windows * batch)])
            .expect("dry pass");
        (runtime, pass)
    }

    #[test]
    fn estimate_serve_models_the_sharding_tradeoff() {
        let phone = Phone::xiaomi_9();
        let arch = zoo::alexnet(Variant::Binary);
        let (solo, solo_pass) = solo_dry(&phone, &arch, 4, 1, 8);
        let (duo, _) = solo_dry(&phone, &arch, 4, 2, 16);
        let (s, d) = (&solo.tenants()[0], &duo.tenants()[0]);
        assert_eq!((s.admission().batch, d.admission().batch), (4, 4));
        let ((s_cold_ms, s_steady_ms), (_, d_steady_ms)) =
            (s.modeled_window_ms(), d.modeled_window_ms());
        // Contention stretches each stream's window...
        assert!(d_steady_ms > s_steady_ms);
        // ...but overlapped host overhead still buys aggregate throughput.
        assert!(2.0 * 4.0 / d_steady_ms > 4.0 / s_steady_ms);
        // Memory scales with the stream count; weights are shared.
        assert_eq!(duo.pool_slice_bytes(), solo.pool_slice_bytes());
        assert_eq!(
            duo.resident_bytes() - duo.total_weight_bytes(),
            2 * (solo.resident_bytes() - solo.total_weight_bytes())
        );
        assert!(duo.resident_bytes() < 2 * solo.resident_bytes());
        // Service-time percentiles order and cold dominates the tail.
        let service: Vec<f64> = solo_pass
            .schedule
            .attempts
            .iter()
            .map(|at| at.end_ms - at.start_ms)
            .collect();
        let [p50, p95, p99] = nearest_rank(&service, [0.50, 0.95, 0.99]);
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(p99, s_cold_ms);
        // A dry pass executes nothing.
        let t = &solo_pass.tenants[0];
        assert_eq!((t.served, t.windows), (32, 8));
        assert!(t.outputs.is_empty() && solo_pass.attempt_exec_ms.is_empty());
    }

    #[test]
    fn admission_candidates_include_a_binding_memory_cap() {
        assert_eq!(admission_candidates(5), vec![1, 2, 3, 4, 5]);
        assert_eq!(admission_candidates(4), vec![1, 2, 3, 4]);
        assert_eq!(admission_candidates(1), vec![1]);
        // At or above the probe ceiling the fixed list is used as-is.
        assert_eq!(admission_candidates(64).last(), Some(&64));
        assert_eq!(admission_candidates(200).last(), Some(&64));
    }

    // -- scheduler ---------------------------------------------------------

    /// A closed-loop tenant as the runtime's `serve` builds it.
    fn load(windows: usize, cold_ms: f64, steady_ms: f64, target_ms: f64) -> OpenLoopLoad {
        OpenLoopLoad {
            windows: closed_loop_windows(windows, target_ms),
            cold_ms,
            steady_ms,
        }
    }

    /// The closed-loop schedule of `loads`: one attempt per window.
    fn schedule_closed(loads: &[OpenLoopLoad], streams: usize) -> Vec<OpenLoopAttempt> {
        let s = schedule_open_loop(loads, streams, None, &RetryPolicy::default());
        assert!(s.fates.iter().flatten().all(WindowFate::is_served));
        assert!(s.attempts.iter().all(|a| a.attempt == 1 && !a.faulted));
        s.attempts
    }

    #[test]
    fn scheduler_round_robins_a_single_uniform_tenant() {
        // One tenant, uniform windows: the work-stealing schedule is the
        // PR 4 round-robin placement.
        let sched = schedule_closed(&[load(6, 5.0, 4.0, 4.0)], 2);
        assert_eq!(sched.len(), 6);
        for (w, sw) in sched.iter().enumerate() {
            assert_eq!(sw.tenant, 0);
            assert_eq!(sw.index, w);
            assert_eq!(sw.stream, w % 2, "window {w}");
        }
        // First window per stream is cold, the rest steady.
        assert_eq!(sched[0].end_ms - sched[0].start_ms, 5.0);
        assert_eq!(sched[1].end_ms - sched[1].start_ms, 5.0);
        assert_eq!(sched[2].end_ms - sched[2].start_ms, 4.0);
        // Streams run back-to-back.
        assert_eq!(sched[2].start_ms, 5.0);
        assert_eq!(sched[4].start_ms, 9.0);
    }

    #[test]
    fn scheduler_lets_idle_streams_steal_backlog() {
        // Tenant 0 has one long window; tenant 1 a long backlog of short
        // ones. Under round-robin-by-tenant the second stream would idle;
        // work stealing drains the backlog across both streams.
        let loads = [load(1, 12.0, 12.0, 12.0), load(8, 2.0, 2.0, 2.0)];
        let sched = schedule_closed(&loads, 2);
        let s0_windows = sched.iter().filter(|sw| sw.stream == 0).count();
        let s1_windows = sched.iter().filter(|sw| sw.stream == 1).count();
        assert_eq!(s0_windows + s1_windows, 9);
        // The stream not stuck behind the long window absorbed most of the
        // backlog.
        let long_stream = sched
            .iter()
            .find(|sw| sw.tenant == 0)
            .expect("long window scheduled")
            .stream;
        let other = 1 - long_stream;
        let stolen = sched
            .iter()
            .filter(|sw| sw.tenant == 1 && sw.stream == other)
            .count();
        assert!(stolen >= 6, "idle stream stole only {stolen} windows");
        // Work conservation: makespan ~ total work / streams.
        let wall = sched.iter().map(|sw| sw.end_ms).fold(0.0, f64::max);
        assert!(wall <= 16.0 + 1e-9, "makespan {wall}");
    }

    #[test]
    fn scheduler_paces_a_light_tenant_under_a_heavy_neighbor() {
        // A heavy tenant floods the queue; the light tenant's tight pacing
        // target keeps its windows from starving behind the backlog.
        let loads = [
            load(12, 10.0, 10.0, 1000.0), // heavy, indifferent deadline
            load(3, 2.0, 2.0, 15.0),      // light, paced every 15 ms
        ];
        let sched = schedule_closed(&loads, 2);
        for sw in sched.iter().filter(|sw| sw.tenant == 1) {
            let lateness = sw.end_ms - loads[1].windows[sw.index].pace_ms;
            assert!(
                lateness <= 10.0 + 1e-9,
                "light window {} finished {:.1} ms past its deadline",
                sw.index,
                lateness
            );
        }
    }

    #[test]
    fn scheduler_is_deterministic_and_complete() {
        let loads = [load(5, 3.0, 2.0, 2.0), load(7, 4.0, 3.5, 9.0)];
        let a = schedule_closed(&loads, 3);
        let b = schedule_closed(&loads, 3);
        assert_eq!(a, b);
        // Every window appears exactly once.
        for (t, l) in loads.iter().enumerate() {
            for k in 0..l.windows.len() {
                assert_eq!(
                    a.iter()
                        .filter(|sw| sw.tenant == t && sw.index == k)
                        .count(),
                    1
                );
            }
        }
        // Per-stream intervals never overlap and windows start when their
        // stream frees up.
        for s in 0..3 {
            let mine: Vec<_> = a.iter().filter(|sw| sw.stream == s).collect();
            for pair in mine.windows(2) {
                assert!(pair[1].start_ms >= pair[0].end_ms - 1e-9);
            }
        }
    }

    // -- multi-tenant runtime ---------------------------------------------

    fn alex_micro_model() -> PbitModel {
        convert(&fill_weights(&zoo::alexnet_micro(Variant::Binary), 7))
    }

    #[test]
    fn device_runtime_registers_tenants_and_pools_arena() {
        let phone = Phone::xiaomi_9();
        let runtime = DeviceRuntime::new(
            vec![
                TenantSpec::new(micro_model()).with_batch(2),
                TenantSpec::new(alex_micro_model()).with_batch(2),
            ],
            &phone,
            2,
        )
        .expect("fits");
        assert_eq!(runtime.tenants().len(), 2);
        let weights: usize = runtime
            .tenants()
            .iter()
            .map(|t| t.staged().expect("staged").model().size_bytes())
            .sum();
        let slice = runtime
            .tenants()
            .iter()
            .map(|t| t.plan().staged_arena_bytes())
            .max()
            .unwrap();
        assert_eq!(runtime.pool_slice_bytes(), slice);
        assert_eq!(runtime.resident_bytes(), weights + 2 * slice);
        // The clock carries a heterogeneous mix for the pair.
        let mix = runtime.clock().mix().expect("pair registers a mix");
        assert_eq!(mix.len(), 1, "streams - 1 neighbors");
        assert!(mix[0].busy > 0.0 && mix[0].cu_frac > 0.0);
    }

    #[test]
    fn co_resident_pair_is_bit_exact_and_deterministic() {
        let phone = Phone::xiaomi_9();
        let reqs_a = requests(5);
        let input_b = zoo::alexnet_micro(Variant::Binary).input;
        let reqs_b: Vec<Tensor<u8>> = (0..4)
            .map(|i| synthetic_image(input_b, 90 + i as u64))
            .collect();
        let serve = |_: usize| {
            let mut runtime = DeviceRuntime::new(
                vec![
                    TenantSpec::new(micro_model()).with_batch(2),
                    TenantSpec::new(alex_micro_model()).with_batch(2),
                ],
                &phone,
                2,
            )
            .expect("fits");
            runtime
                .serve(&[TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)])
                .expect("serve")
        };
        let report = serve(0);
        assert_eq!(report.tenants[0].served, 5);
        assert_eq!(report.tenants[1].served, 4);
        assert_eq!(report.tenants[0].windows + report.tenants[1].windows, 3 + 2);
        // Solo reference runs.
        let mut solo_a = crate::Session::new(micro_model(), &phone).unwrap();
        for (i, req) in reqs_a.iter().enumerate() {
            let want = solo_a.run_u8(req).unwrap().output.unwrap();
            match (report.tenants[0].outputs[i].as_ref(), &want) {
                (Some(ActivationData::Floats(a)), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "tenant 0 request {i}")
                }
                _ => panic!("unexpected output kinds"),
            }
        }
        let mut solo_b = crate::Session::new(alex_micro_model(), &phone).unwrap();
        for (i, req) in reqs_b.iter().enumerate() {
            let want = solo_b.run_u8(req).unwrap().output.unwrap();
            match (report.tenants[1].outputs[i].as_ref(), &want) {
                (Some(ActivationData::Floats(a)), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "tenant 1 request {i}")
                }
                _ => panic!("unexpected output kinds"),
            }
        }
        // Determinism across a rebuilt runtime.
        let again = serve(1);
        assert_eq!(report.schedule, again.schedule);
        for (a, b) in report.tenants.iter().zip(again.tenants.iter()) {
            assert_eq!(a.latency_ms, b.latency_ms);
        }
    }

    #[test]
    fn repeated_serve_passes_match_the_modeled_schedule() {
        // Regression: a reused runtime's lanes used to stay primed across
        // passes, so the second pass executed steady windows against a
        // schedule that modeled cold ones. Every pass now resets lanes:
        // executed durations equal the modeled schedule's, on every pass.
        let phone = Phone::xiaomi_9();
        let mut runtime = DeviceRuntime::new(
            vec![
                TenantSpec::new(micro_model()).with_batch(2),
                TenantSpec::new(alex_micro_model()).with_batch(2),
            ],
            &phone,
            2,
        )
        .expect("fits");
        let reqs_a = requests(6);
        let input_b = zoo::alexnet_micro(Variant::Binary).input;
        let reqs_b: Vec<Tensor<u8>> = (0..4)
            .map(|i| synthetic_image(input_b, 90 + i as u64))
            .collect();
        let traffic = [TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)];
        let first = runtime.serve(&traffic).expect("first pass");
        let second = runtime.serve(&traffic).expect("second pass");
        assert_eq!(first.schedule, second.schedule);
        for (pass, report) in [(1, &first), (2, &second)] {
            for (sw, &executed) in report.schedule.attempts.iter().zip(&report.attempt_exec_ms) {
                let modeled = sw.end_ms - sw.start_ms;
                assert!(
                    (modeled - executed).abs() < 1e-9 * modeled.max(1.0),
                    "pass {pass}: tenant {} window {} executed {executed} ms \
                     vs modeled {modeled} ms",
                    sw.tenant,
                    sw.index
                );
            }
        }
        assert_eq!(first.wall_ms, second.wall_ms);
    }

    #[test]
    fn oversized_tenant_ask_is_clamped_not_panicking() {
        // Regression: one tenant asking for an absurd window used to zero
        // out the neighbor's memory cap (clamp(1, 0) panic). The ask must
        // be clamped to what fits next to the others, and every tenant
        // still admits a batch >= 1 that fits the pooled budget.
        let phone = Phone::xiaomi_9();
        let runtime = DeviceRuntime::new(
            vec![
                TenantSpec::new(micro_model()).with_batch(1 << 20),
                TenantSpec::new(alex_micro_model()).with_batch(2),
            ],
            &phone,
            2,
        )
        .expect("oversized ask clamps instead of panicking");
        let big = runtime.tenants()[0].admission();
        let small = runtime.tenants()[1].admission();
        assert!(big.batch >= 1 && big.batch <= big.max_feasible_batch);
        assert!(small.max_feasible_batch >= 1, "neighbor cap not zeroed");
        assert_eq!(small.batch, 2);
        assert!(runtime.resident_bytes() <= phone.app_budget_bytes());
    }

    #[test]
    fn dry_runtime_reports_an_undeployable_arch_as_an_error() {
        use phonebit_nn::graph::{LayerSpec, PoolKind, PoolSpec};
        let mut arch = zoo::alexnet_micro(Variant::Binary);
        let pool = arch
            .layers
            .iter_mut()
            .find(|l| matches!(l, LayerSpec::Pool(_)))
            .expect("the micro net pools");
        *pool = LayerSpec::Pool(PoolSpec {
            name: "avgpool".into(),
            kind: PoolKind::Avg,
            size: 2,
            stride: 2,
        });
        let workload = TenantWorkload {
            arch: &arch,
            batch: None,
            slo_ms: None,
        };
        let err = DeviceRuntime::dry(&[workload], &Phone::xiaomi_9(), 1, None)
            .expect_err("avg pooling is not deployed");
        assert!(
            matches!(&err, EngineError::DomainMismatch { layer, .. } if layer == "avgpool"),
            "{err}"
        );
    }

    #[test]
    fn estimate_serve_multitenant_beats_time_slicing_and_meets_slos() {
        let phone = Phone::xiaomi_9();
        let alex = zoo::alexnet_micro(Variant::Binary);
        let yolo = zoo::yolo_micro(Variant::Binary);
        let workloads = [&alex, &yolo].map(|arch| TenantWorkload {
            arch,
            batch: Some(2),
            slo_ms: None,
        });
        let counts = [TenantTraffic::Count(9 * 2), TenantTraffic::Count(7 * 2)];
        let mut runtime = DeviceRuntime::dry(&workloads, &phone, 2, None).expect("pair fits");
        let est = runtime.serve(&counts).expect("dry pass");
        assert_eq!(est.tenants.len(), 2);
        assert!(est.wall_ms > 0.0);
        // The time-sliced baseline: each tenant alone on the same streams,
        // makespans summed. Co-residency fills the idle tails it leaves.
        let sequential_wall_s = 1e-3
            * (solo_dry(&phone, &alex, 2, 2, 9).1.wall_ms
                + solo_dry(&phone, &yolo, 2, 2, 7).1.wall_ms);
        let served: usize = est.tenants.iter().map(|t| t.served).sum();
        let sequential_imgs_per_s = served as f64 / sequential_wall_s;
        assert!(
            est.goodput_imgs_per_s > sequential_imgs_per_s,
            "co-resident {:.1} imgs/s vs time-sliced {:.1}",
            est.goodput_imgs_per_s,
            sequential_imgs_per_s
        );
        // Pooled memory: shared slice, summed weights.
        assert!(runtime.pool_slice_bytes() > 0);
        assert_eq!(
            runtime.resident_bytes(),
            runtime.total_weight_bytes() + 2 * runtime.pool_slice_bytes()
        );
        for t in &est.tenants {
            assert!(t.p50_ms <= t.p95_ms && t.p95_ms <= t.p99_ms);
            assert!(t.slo_met, "no SLO set");
        }
    }

    // -- open-loop scheduler ----------------------------------------------

    fn open_load(ready: &[f64], deadline: &[f64], cold_ms: f64, steady_ms: f64) -> OpenLoopLoad {
        OpenLoopLoad {
            windows: ready
                .iter()
                .zip(deadline.iter())
                .map(|(&ready_ms, &deadline_ms)| OpenLoopWindow {
                    ready_ms,
                    deadline_ms,
                    pace_ms: if deadline_ms.is_finite() {
                        deadline_ms
                    } else {
                        ready_ms + steady_ms
                    },
                })
                .collect(),
            cold_ms,
            steady_ms,
        }
    }

    #[test]
    fn open_loop_fault_free_serves_every_window_in_order() {
        let inf = f64::INFINITY;
        let loads = [
            open_load(&[0.0, 5.0, 30.0], &[inf, inf, inf], 12.0, 10.0),
            open_load(&[0.0, 8.0], &[inf, inf], 12.0, 10.0),
        ];
        let s = schedule_open_loop(&loads, 2, None, &RetryPolicy::default());
        // One non-faulted attempt per window, every window served.
        assert_eq!(s.attempts.len(), 5);
        for fates in &s.fates {
            for f in fates {
                match f {
                    WindowFate::Served { attempts, .. } => assert_eq!(*attempts, 1),
                    other => panic!("fault-free window shed: {other:?}"),
                }
            }
        }
        // Starts respect readiness; per-tenant windows serve in order; no
        // per-stream overlap.
        for at in &s.attempts {
            assert!(at.start_ms >= loads[at.tenant].windows[at.index].ready_ms - 1e-9);
            assert!(!at.faulted);
            assert_eq!(at.slowdown, 1.0);
        }
        for t in 0..loads.len() {
            let starts: Vec<f64> = s
                .attempts
                .iter()
                .filter(|a| a.tenant == t)
                .map(|a| a.start_ms)
                .collect();
            assert!(starts.windows(2).all(|w| w[1] >= w[0]));
        }
        for stream in 0..2 {
            let mut mine: Vec<(f64, f64)> = s
                .attempts
                .iter()
                .filter(|a| a.stream == stream)
                .map(|a| (a.start_ms, a.end_ms))
                .collect();
            mine.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for pair in mine.windows(2) {
                assert!(pair[1].0 >= pair[0].1 - 1e-9, "stream {stream} overlaps");
            }
        }
        // Deterministic.
        let again = schedule_open_loop(&loads, 2, None, &RetryPolicy::default());
        assert_eq!(s, again);
    }

    #[test]
    fn open_loop_certain_faults_shed_after_bounded_retries() {
        let inf = f64::INFINITY;
        let loads = [open_load(&[0.0], &[inf], 10.0, 10.0)];
        let fault = FaultPlan::new(3).with_failure_rate(1.0);
        let policy = RetryPolicy { max_retries: 2 };
        let s = schedule_open_loop(&loads, 1, Some(&fault), &policy);
        // 1 + max_retries attempts, all faulted, then RetriesExhausted.
        assert_eq!(s.attempts.len(), 3);
        assert!(s.attempts.iter().all(|a| a.faulted));
        match s.fates[0][0] {
            WindowFate::Shed {
                attempts,
                reason: ShedReason::RetriesExhausted,
                ..
            } => assert_eq!(attempts, 3),
            other => panic!("expected retries-exhausted shed, got {other:?}"),
        }
        // Backoff: gap after the k-th fault is steady × 0.5 × 2^(k−1).
        assert!((s.attempts[1].start_ms - s.attempts[0].end_ms - 5.0).abs() < 1e-9);
        assert!((s.attempts[2].start_ms - s.attempts[1].end_ms - 10.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_sheds_hopeless_deadlines_without_dispatching() {
        // Second window's deadline already passed relative to its ready
        // time: even an optimistic dispatch cannot meet it.
        let loads = [open_load(&[0.0, 50.0], &[50.0, 55.0], 10.0, 10.0)];
        let s = schedule_open_loop(&loads, 1, None, &RetryPolicy::default());
        assert!(s.fates[0][0].is_served());
        match s.fates[0][1] {
            WindowFate::Shed {
                attempts,
                reason: ShedReason::DeadlinePast,
                ..
            } => assert_eq!(attempts, 0, "shed without burning device time"),
            other => panic!("expected deadline shed, got {other:?}"),
        }
        assert_eq!(s.attempts.len(), 1);
    }

    #[test]
    #[should_panic(expected = "ready and deadline order")]
    fn open_loop_rejects_windows_out_of_ready_order() {
        let inf = f64::INFINITY;
        let loads = [open_load(&[5.0, 0.0], &[inf, inf], 10.0, 10.0)];
        schedule_open_loop(&loads, 1, None, &RetryPolicy::default());
    }

    #[test]
    #[should_panic(expected = "ready and deadline order")]
    fn open_loop_rejects_windows_out_of_deadline_order() {
        let loads = [open_load(&[0.0, 5.0], &[100.0, 55.0], 10.0, 10.0)];
        schedule_open_loop(&loads, 1, None, &RetryPolicy::default());
    }

    #[test]
    fn open_loop_throttle_stretches_attempts_uniformly() {
        let inf = f64::INFINITY;
        let loads = [open_load(&[0.0, 0.0], &[inf, inf], 10.0, 10.0)];
        let fault = FaultPlan::new(1).with_throttle(phonebit_gpusim::ThrottleEpoch {
            start_ms: 5.0,
            end_ms: 100.0,
            slowdown: 2.0,
        });
        let s = schedule_open_loop(&loads, 1, Some(&fault), &RetryPolicy::default());
        // First window starts at 0 (unthrottled), second inside the epoch.
        assert_eq!(s.attempts[0].slowdown, 1.0);
        assert!((s.attempts[0].end_ms - 10.0).abs() < 1e-9);
        assert_eq!(s.attempts[1].slowdown, 2.0);
        assert!((s.attempts[1].end_ms - s.attempts[1].start_ms - 20.0).abs() < 1e-9);
    }

    #[test]
    fn open_loop_no_slo_tenant_is_not_starved_by_slo_neighbor() {
        let inf = f64::INFINITY;
        // Tenant 0 has a generous SLO (lots of slack); tenant 1 has none.
        // The pacing deadline must let tenant 1 through anyway.
        let ready: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let loads = [
            open_load(&ready, &[1000.0; 6], 10.0, 10.0),
            open_load(&ready, &[inf; 6], 10.0, 10.0),
        ];
        let s = schedule_open_loop(&loads, 1, None, &RetryPolicy::default());
        assert!(s.fates.iter().flatten().all(WindowFate::is_served));
        // The no-SLO tenant is interleaved, not pushed to the end: its
        // first service completes before the SLO tenant's last.
        let first_t1 = s
            .attempts
            .iter()
            .find(|a| a.tenant == 1)
            .expect("tenant 1 served")
            .end_ms;
        let last_t0 = s
            .attempts
            .iter()
            .filter(|a| a.tenant == 0)
            .map(|a| a.end_ms)
            .fold(0.0, f64::max);
        assert!(
            first_t1 < last_t0,
            "no-SLO tenant starved: first served {first_t1} ms vs neighbor done {last_t0} ms"
        );
    }

    #[test]
    fn open_loop_windows_anchor_deadlines_to_first_arrival() {
        let arrivals = [0.0, 4.0, 9.0, 11.0, 20.0];
        let windows = open_loop_windows(&arrivals, 2, Some(30.0), 7.0);
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].ready_ms, 4.0, "ready when the last member lands");
        assert_eq!(windows[0].deadline_ms, 30.0, "deadline off the first");
        assert_eq!(windows[1].ready_ms, 11.0);
        assert_eq!(windows[1].deadline_ms, 39.0);
        assert_eq!(windows[2].ready_ms, 20.0);
        assert_eq!(windows[2].deadline_ms, 50.0);
        assert!(windows.iter().all(|w| w.pace_ms == w.deadline_ms));
        let no_slo = open_loop_windows(&arrivals, 2, None, 7.0);
        assert!(no_slo.iter().all(|w| w.deadline_ms.is_infinite()));
        assert!(no_slo.iter().all(|w| w.pace_ms == w.ready_ms + 7.0));
    }

    // -- open-loop runtime ------------------------------------------------

    fn alex_requests(count: usize) -> Vec<Tensor<u8>> {
        let input = zoo::alexnet_micro(Variant::Binary).input;
        (0..count)
            .map(|i| synthetic_image(input, 90 + i as u64))
            .collect()
    }

    fn pair_runtime(phone: &Phone) -> DeviceRuntime {
        DeviceRuntime::new(
            vec![
                TenantSpec::new(micro_model()).with_batch(2),
                TenantSpec::new(alex_micro_model()).with_batch(2),
            ],
            phone,
            2,
        )
        .expect("fits")
    }

    #[test]
    fn serve_open_loop_fault_free_matches_solo_outputs_and_schedule() {
        let phone = Phone::xiaomi_9();
        let mut runtime = pair_runtime(&phone);
        let reqs_a = requests(6);
        let reqs_b = alex_requests(4);
        let arrivals = vec![
            vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0],
            vec![0.0, 2.0, 4.0, 6.0],
        ];
        let report = runtime
            .serve_open_loop(
                &[TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)],
                &arrivals,
                &OpenLoopOptions::default(),
            )
            .expect("serve");
        assert_eq!(report.tenants[0].served, 6);
        assert_eq!(report.tenants[1].served, 4);
        assert_eq!(report.replans, 0, "no SLO pressure, no replans");
        assert!(report.goodput_imgs_per_s > 0.0);
        for t in &report.tenants {
            assert_eq!(t.shed, 0);
            assert_eq!(t.retries, 0);
            assert_eq!(t.throttled, 0);
            assert!(t.latency_ms.iter().all(|&l| l >= 0.0));
            assert!(t.p50_ms <= t.p95_ms && t.p999_ms >= t.p99_ms);
        }
        // Modeled vs executed no-drift, attempt by attempt.
        assert_eq!(report.attempt_exec_ms.len(), report.schedule.attempts.len());
        for (k, at) in report.schedule.attempts.iter().enumerate() {
            let modeled = at.end_ms - at.start_ms;
            let executed = report.attempt_exec_ms[k];
            assert!(
                (modeled - executed).abs() < 1e-9 * modeled.max(1.0),
                "attempt {k}: executed {executed} ms vs modeled {modeled} ms"
            );
        }
        // Served outputs are bit-exact with solo sessions.
        let mut solo_a = crate::Session::new(micro_model(), &phone).unwrap();
        for (i, req) in reqs_a.iter().enumerate() {
            let want = solo_a.run_u8(req).unwrap().output.unwrap();
            match (report.tenants[0].outputs[i].as_ref(), &want) {
                (Some(ActivationData::Floats(a)), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "tenant 0 request {i}")
                }
                _ => panic!("unexpected output kinds"),
            }
        }
    }

    #[test]
    fn serve_open_loop_with_faults_is_deterministic_and_bit_exact() {
        let phone = Phone::xiaomi_9();
        let reqs_a = requests(6);
        let reqs_b = alex_requests(4);
        let arrivals = vec![
            vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0],
            vec![0.0, 2.0, 4.0, 6.0],
        ];
        let fault = FaultPlan::new(42).with_failure_rate(0.35);
        let serve = |_: usize| {
            let mut runtime = pair_runtime(&phone);
            runtime.clock().set_fault_plan(Some(fault.clone()));
            runtime
                .serve_open_loop(
                    &[TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)],
                    &arrivals,
                    &OpenLoopOptions::default(),
                )
                .expect("serve")
        };
        let report = serve(0);
        let total_retries: usize = report.tenants.iter().map(|t| t.retries).sum();
        assert!(total_retries > 0, "rate 0.35 over 5+ windows must fault");
        // Same seed ⇒ identical schedule, fates, and counters.
        let again = serve(1);
        assert_eq!(report.schedule, again.schedule);
        for (a, b) in report.tenants.iter().zip(again.tenants.iter()) {
            assert_eq!(
                (a.retries, a.shed, a.throttled),
                (b.retries, b.shed, b.throttled)
            );
        }
        // No-drift holds through faulted and retried attempts.
        for (k, at) in report.schedule.attempts.iter().enumerate() {
            let modeled = at.end_ms - at.start_ms;
            assert!(
                (modeled - report.attempt_exec_ms[k]).abs() < 1e-9 * modeled.max(1.0),
                "attempt {k} drifted under faults"
            );
        }
        // Surviving outputs are bit-exact with solo fault-free runs.
        let mut solo_a = crate::Session::new(micro_model(), &phone).unwrap();
        for (i, req) in reqs_a.iter().enumerate() {
            let Some(got) = report.tenants[0].outputs[i].as_ref() else {
                continue; // shed
            };
            let want = solo_a.run_u8(req).unwrap().output.unwrap();
            match (got, &want) {
                (ActivationData::Floats(a), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "surviving request {i} diverged")
                }
                _ => panic!("unexpected output kinds"),
            }
        }
    }

    #[test]
    fn attach_detach_preserve_survivors_and_match_fresh_staging() {
        let phone = Phone::xiaomi_9();
        // Start with one tenant, attach a second live.
        let mut grown = DeviceRuntime::new(
            vec![TenantSpec::new(micro_model()).with_batch(2)],
            &phone,
            2,
        )
        .expect("fits");
        let slice_before = grown.pool_slice_bytes();
        let idx = grown
            .attach(TenantSpec::new(alex_micro_model()).with_batch(2))
            .expect("attach fits");
        assert_eq!(idx, 1);
        assert_eq!(grown.tenants().len(), 2);
        assert_eq!(
            grown.pool_slice_bytes(),
            slice_before,
            "attach never regrows the pooled slice"
        );
        assert!(grown.clock().mix().is_some(), "pair registers a mix");

        let reqs_a = requests(5);
        let reqs_b = alex_requests(4);
        let traffic = [TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)];
        let grown_report = grown.serve(&traffic).expect("serve grown");
        // Outputs match solo sessions bit-exactly (the attach clamps the
        // newcomer's batch to the existing slice, so schedules may differ
        // from a fresh pair — but correctness may not).
        let mut solo_b = crate::Session::new(alex_micro_model(), &phone).unwrap();
        for (i, req) in reqs_b.iter().enumerate() {
            let want = solo_b.run_u8(req).unwrap().output.unwrap();
            match (grown_report.tenants[1].outputs[i].as_ref(), &want) {
                (Some(ActivationData::Floats(a)), ActivationData::Floats(b)) => {
                    assert_eq!(a, b, "attached tenant request {i}")
                }
                _ => panic!("unexpected output kinds"),
            }
        }

        // Detach the newcomer: survivors keep serving, bit-exact with a
        // fresh solo runtime.
        grown.detach(1).expect("detach");
        assert_eq!(grown.tenants().len(), 1);
        assert!(grown.clock().mix().is_none(), "solo clears the mix");
        let after = grown.serve(&[TenantTraffic::U8(&reqs_a)]).expect("serve");
        let mut fresh = DeviceRuntime::new(
            vec![TenantSpec::new(micro_model()).with_batch(2)],
            &phone,
            2,
        )
        .expect("fits");
        let want = fresh.serve(&[TenantTraffic::U8(&reqs_a)]).expect("serve");
        assert_eq!(
            after.schedule, want.schedule,
            "survivor schedule matches fresh"
        );
        for (a, b) in after.tenants[0]
            .outputs
            .iter()
            .zip(want.tenants[0].outputs.iter())
        {
            match (a, b) {
                (Some(ActivationData::Floats(x)), Some(ActivationData::Floats(y))) => {
                    assert_eq!(x, y)
                }
                _ => panic!("unexpected output kinds"),
            }
        }

        // Detaching the last tenant is refused.
        assert!(grown.detach(0).is_err(), "a runtime keeps >= 1 tenant");
    }

    #[test]
    fn detach_out_of_range_is_an_error_that_changes_nothing() {
        let phone = Phone::xiaomi_9();
        let (alex, yolo) = (
            zoo::alexnet_micro(Variant::Binary),
            zoo::yolo_micro(Variant::Binary),
        );
        let workloads = [&yolo, &alex].map(|arch| TenantWorkload {
            arch,
            batch: Some(2),
            slo_ms: None,
        });
        let (reqs_a, reqs_b) = (requests(2), alex_requests(2));
        let staged = (
            pair_runtime(&phone),
            [TenantTraffic::U8(&reqs_a), TenantTraffic::U8(&reqs_b)],
        );
        let dry = (
            DeviceRuntime::dry(&workloads, &phone, 2, None).expect("pair fits"),
            [TenantTraffic::Count(2); 2],
        );
        let names = |rt: &DeviceRuntime| -> Vec<String> {
            rt.tenants().iter().map(|t| t.name().to_string()).collect()
        };
        for (mut runtime, traffic) in [staged, dry] {
            let (roster, resident) = (names(&runtime), runtime.resident_bytes());
            let err = runtime.detach(2).expect_err("index 2 of 2 tenants");
            assert!(
                matches!(&err, EngineError::InputMismatch { got, .. } if got.contains("tenant 2")),
                "{err}"
            );
            assert_eq!(names(&runtime), roster);
            assert_eq!(runtime.resident_bytes(), resident);
            // Every stream still holds a lane per tenant: both serve.
            let pass = runtime.serve(&traffic).expect("registry intact");
            assert!(pass.tenants.iter().all(|t| t.served == 2));
            runtime.detach(1).expect("in range");
            assert_eq!(names(&runtime), roster[..1]);
        }
    }

    #[test]
    fn serve_open_loop_replans_batch_under_shed_pressure() {
        let phone = Phone::xiaomi_9();
        // Probe the modeled batch-4 window, then pick an SLO no batch-4
        // dispatch can make: the runtime must halve the window to shed
        // less instead of dropping batch-sized chunks forever.
        let probe = DeviceRuntime::new(
            vec![TenantSpec::new(micro_model()).with_batch(4)],
            &phone,
            1,
        )
        .expect("fits");
        assert_eq!(
            probe.tenants()[0].admission().batch,
            4,
            "probe stages batch 4"
        );
        let steady4 = probe.tenants()[0].admission().modeled_window_ms;
        let mut runtime = DeviceRuntime::new(
            vec![TenantSpec::new(micro_model())
                .with_batch(4)
                .with_slo_ms(steady4 * 0.3)],
            &phone,
            1,
        )
        .expect("fits");
        let reqs = requests(8);
        let arrivals: Vec<f64> = (0..8).map(|i| i as f64 * steady4 * 0.01).collect();
        let report = runtime
            .serve_open_loop(
                &[TenantTraffic::U8(&reqs)],
                &[arrivals],
                &OpenLoopOptions::default(),
            )
            .expect("serve");
        assert!(
            report.replans >= 1,
            "shed pressure above threshold must trigger a replan"
        );
        assert!(
            report.tenants[0].batch < 4,
            "replan halves the worst offender's window"
        );
        // Graceful: whatever is served is real (outputs committed), and
        // every request has a definite fate.
        let t = &report.tenants[0];
        assert_eq!(t.served + t.shed, t.offered);
        assert_eq!(
            t.outputs.iter().filter(|o| o.is_some()).count(),
            t.served,
            "served requests carry outputs, shed ones are None"
        );
    }

    #[test]
    fn estimate_serve_open_loop_degrades_gracefully_with_load() {
        let phone = Phone::xiaomi_9();
        let alex = zoo::alexnet_micro(Variant::Binary);
        let yolo = zoo::yolo_micro(Variant::Binary);
        // Batch 1 with an SLO well above the window: at light load nothing
        // sheds, past capacity the excess does. (With larger batches and a
        // tight SLO, shed rate is U-shaped — light load spends the whole
        // budget filling the window — so the monotone claim is over loads
        // where the SLO covers batch fill time.)
        let at_rate = |mult: f64| {
            let workloads = [
                OpenLoopWorkload {
                    arch: &alex,
                    batch: Some(1),
                    slo_ms: Some(5.0),
                    arrival: ArrivalProcess::Poisson {
                        rate_per_s: 2000.0 * mult,
                    },
                    seed: 11,
                },
                OpenLoopWorkload {
                    arch: &yolo,
                    batch: Some(1),
                    slo_ms: Some(5.0),
                    arrival: ArrivalProcess::Poisson {
                        rate_per_s: 2000.0 * mult,
                    },
                    seed: 13,
                },
            ];
            estimate_serve_open_loop(&phone, &workloads, 2, 50.0, None, &RetryPolicy::default())
        };
        let light = at_rate(0.5);
        let heavy = at_rate(4.0);
        let offered = |r: &OpenLoopReport| r.tenants.iter().map(|t| t.offered).sum::<usize>();
        let shed_rate = |r: &OpenLoopReport| {
            r.tenants.iter().map(|t| t.shed).sum::<usize>() as f64 / offered(r) as f64
        };
        assert!(offered(&light) < offered(&heavy));
        // Shed rate is monotone in offered load; overload never starves a
        // tenant outright.
        assert!(shed_rate(&light) <= shed_rate(&heavy) + 1e-9);
        for t in &heavy.tenants {
            assert!(t.served > 0, "tenant {} starved under overload", t.name);
            assert_eq!(t.served + t.shed, t.offered);
            assert!(t.outputs.is_empty(), "a dry run commits no outputs");
        }
        // The modeled schedule matches its own fates: goodput counts only
        // served requests, over the 50 ms the arrivals were drawn for.
        assert!(heavy.goodput_imgs_per_s <= offered(&heavy) as f64 / 50e-3 + 1e-9);
        assert!(heavy.attempt_exec_ms.is_empty() && heavy.replans == 0);
        // Determinism: the seeded estimate reproduces bit-for-bit.
        assert_eq!(at_rate(4.0), heavy);
    }
}
