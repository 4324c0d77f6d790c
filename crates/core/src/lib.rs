//! # phonebit-core
//!
//! The PhoneBit inference engine — the paper's primary contribution
//! (Chen et al., *PhoneBit*, DATE 2020), built on the `phonebit-gpusim`
//! simulated mobile GPU and the `phonebit-nn` operator library.
//!
//! The deployment pipeline mirrors the paper's Fig 2:
//!
//! 1. A trained float checkpoint ([`phonebit_nn::graph::NetworkDef`]) is
//!    [`convert`]ed: weights sign-binarized and channel-packed, batch-norms
//!    fused into per-channel thresholds `ξ = µ − βσ/γ − b` (Eqn 6).
//! 2. The result — a [`model::PbitModel`] — serializes to the compressed
//!    `.pbit` [`format`](mod@crate::format) module.
//! 3. On the phone, a [`engine::Session`] stages the model against the
//!    device's memory budget and runs inference with per-layer timing.
//!
//! [`estimate::estimate_arch`] reproduces the engine's exact dispatch
//! sequence from shapes alone, for full-scale benchmarking; [`planner`]
//! computes deployed memory footprints; [`builder::NetworkBuilder`] is the
//! Fig-3-style construction API.
//!
//! For serving-scale throughput, [`Session::new_batched`](engine::Session::new_batched)
//! stages the same weights once and runs whole request windows — one
//! batch-covering dispatch per kernel over a double-banked arena;
//! [`estimate::estimate_window`] models it at full scale and
//! [`planner::pooled_peak_bytes`] / [`planner::max_feasible_batch`] size
//! the batched deployment against a phone's budget.
//!
//! For device sharing, [`serve::DeviceRuntime`] co-resides several
//! heterogeneous models as tenants on one device — a single model is a
//! registry of one: a pooled arena ([`planner::pooled_peak_bytes`]),
//! contention-aware per-tenant admission against the other tenants'
//! registered dispatch mix, and one work-stealing window scheduler
//! ([`serve::schedule_open_loop`]) behind closed- and open-loop serving. A
//! full-scale estimate is a **dry run** of the same runtime
//! ([`serve::DeviceRuntime::dry`]): architectures instead of models,
//! request counts instead of tensors, the same pass.
//!
//! For robustness, the runtime also serves **open-loop**: requests arrive
//! on seeded stochastic processes ([`arrival::ArrivalProcess`]) with
//! deadlines anchored to arrival, and
//! [`serve::DeviceRuntime::serve_open_loop`] survives an injected
//! [`phonebit_gpusim::FaultPlan`] (transient dispatch failures, thermal
//! throttle epochs) by bounded retry with backoff, deadline shedding, and
//! shed-triggered batch replans — with live
//! [`attach`](serve::DeviceRuntime::attach) /
//! [`detach`](serve::DeviceRuntime::detach) that never restage surviving
//! tenants.
//!
//! [`convert`]: convert::convert

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arrival;
pub mod builder;
pub mod convert;
pub mod engine;
pub mod estimate;
pub mod fleet;
pub mod format;
pub mod model;
pub mod paging;
pub mod plan;
pub mod planner;
pub mod serve;
pub mod stats;

pub use arrival::ArrivalProcess;
pub use builder::NetworkBuilder;
pub use convert::convert;
pub use engine::{ActivationData, EngineError, Session, StagedModel, Stream, Window};
pub use estimate::{estimate_arch, estimate_window, EstimateOptions};
pub use fleet::{
    estimate_fleet, zipf_rates, Fleet, FleetAction, FleetDeviceReport, FleetDeviceSpec, FleetEvent,
    FleetMigration, FleetOptions, FleetOutcome, FleetReport, FleetRequestFate, RoutePolicy,
    RoutedRequest,
};
pub use model::{PbitLayer, PbitModel};
pub use paging::{PagingSchedule, PagingStep};
pub use plan::{
    ChainDecision, CompressDecision, CompressStats, CompressionMode, ExecutionPlan, FusedKind,
    FusedMember, FusionMode, PlanDomainError, PlanStep, PlanValue, RouteOverrides, StepOp,
    ValueKind, ValueRole,
};
pub use planner::{
    max_feasible_batch, max_feasible_batch_multitenant, pooled_peak_bytes, select_conv_path,
    select_conv_path_with, ConvPath, ConvPlan,
};
pub use serve::{
    estimate_serve_open_loop, schedule_open_loop, Admission, DeviceRuntime, OpenLoopAttempt,
    OpenLoopLoad, OpenLoopOptions, OpenLoopReport, OpenLoopSchedule, OpenLoopWindow,
    OpenLoopWorkload, RetryPolicy, ShedReason, Tenant, TenantReport, TenantSpec, TenantTraffic,
    TenantWorkload, WindowFate,
};
pub use stats::{nearest_rank, LayerRun, RunReport};
