//! # phonebit-cli
//!
//! Implementation of the `pbit` command-line tool: generate models from the
//! zoo, inspect `.pbit` files, run inference on a simulated phone and
//! benchmark frames-per-second / energy.
//!
//! The binary lives in `src/bin/pbit.rs`; this library holds the testable
//! command implementations.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::Path;

use phonebit_core::format::{load_file, save_file};
use phonebit_core::{
    convert, estimate_arch, max_feasible_batch, max_feasible_batch_multitenant, nearest_rank,
    pooled_peak_bytes, zipf_rates, ArrivalProcess, CompressionMode, ConvPath, DeviceRuntime,
    EngineError, ExecutionPlan, Fleet, FleetDeviceSpec, FleetEvent, FleetOptions, FusionMode,
    OpenLoopOptions, PbitLayer, PbitModel, RouteOverrides, RoutePolicy, Session, TenantReport,
    TenantSpec, TenantTraffic, TenantWorkload,
};
use phonebit_gpusim::{FaultPlan, Phone};
use phonebit_models::zoo::{self, Variant};
use phonebit_models::{fill_weights, fill_weights_clustered, synthetic_image, to_float_input};
use phonebit_nn::graph::NetworkArch;
use phonebit_profiler::EnergyReport;
use phonebit_tensor::Tensor;

/// Errors surfaced by CLI commands.
#[derive(Debug)]
pub enum CliError {
    /// Unknown model/phone name or bad flag value.
    Usage(String),
    /// Filesystem or format problem.
    Io(std::io::Error),
    /// Engine failure (OOM, shape mismatch).
    Engine(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Engine(m) => write!(f, "engine error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Resolves a zoo model name (binary variant).
pub fn arch_by_name(name: &str) -> Result<NetworkArch, CliError> {
    Ok(match name {
        "alexnet" => zoo::alexnet(Variant::Binary),
        "yolov2-tiny" | "yolo" => zoo::yolov2_tiny(Variant::Binary),
        "vgg16" => zoo::vgg16(Variant::Binary),
        "alexnet-micro" => zoo::alexnet_micro(Variant::Binary),
        "yolo-micro" => zoo::yolo_micro(Variant::Binary),
        other => {
            return Err(CliError::Usage(format!(
            "unknown model `{other}` (expected alexnet|yolov2-tiny|vgg16|alexnet-micro|yolo-micro)"
        )))
        }
    })
}

/// Resolves a phone name.
pub fn phone_by_name(name: &str) -> Result<Phone, CliError> {
    Ok(match name {
        "x5" | "xiaomi5" | "sd820" => Phone::xiaomi_5(),
        "x9" | "xiaomi9" | "sd855" => Phone::xiaomi_9(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown phone `{other}` (expected x5|x9)"
            )))
        }
    })
}

/// `pbit gen <model> <out.pbit> [seed]`: generate a seeded synthetic
/// checkpoint, convert it, write the deployable file. Returns a summary.
pub fn cmd_gen(model: &str, out: &Path, seed: u64) -> Result<String, CliError> {
    let arch = arch_by_name(model)?;
    let def = fill_weights(&arch, seed);
    let converted = convert(&def);
    save_file(&converted, out)?;
    Ok(format!(
        "wrote {} ({} layers, {:.3} MB deployed, {:.1}x smaller than f32)",
        out.display(),
        converted.len(),
        converted.size_bytes() as f64 / 1e6,
        arch.float_bytes() as f64 / converted.size_bytes() as f64
    ))
}

/// `pbit info <model.pbit>`: layer-by-layer description.
pub fn cmd_info(path: &Path) -> Result<String, CliError> {
    let model = load_file(path)?;
    Ok(describe(&model))
}

/// Renders a layer table for a model.
pub fn describe(model: &PbitModel) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "model `{}`  input {}  {} layers  {:.3} MB",
        model.name,
        model.input,
        model.len(),
        model.size_bytes() as f64 / 1e6
    );
    let _ = writeln!(out, "{:<12} {:<22} {:>12}", "layer", "kind", "params(B)");
    for layer in &model.layers {
        let kind = match layer {
            PbitLayer::BConvInput8 { .. } => "binary conv (8-bit in)",
            PbitLayer::BConv { .. } => "binary conv (fused)",
            PbitLayer::FConv { .. } => "float conv",
            PbitLayer::MaxPoolBits { .. } => "maxpool (packed OR)",
            PbitLayer::MaxPoolF32 { .. } => "maxpool (float)",
            PbitLayer::DenseBin { .. } => "binary dense (fused)",
            PbitLayer::DenseFloat { .. } => "float dense",
            PbitLayer::Softmax => "softmax",
        };
        let _ = writeln!(
            out,
            "{:<12} {:<22} {:>12}",
            layer.name(),
            kind,
            layer.param_bytes()
        );
    }
    out
}

/// `pbit run <model.pbit> <phone> [seed]`: one synthetic-input inference
/// with the per-layer report.
pub fn cmd_run(path: &Path, phone: &str, seed: u64) -> Result<String, CliError> {
    let model = load_file(path)?;
    let phone = phone_by_name(phone)?;
    let request = Requests::synthetic(&model, 1, seed);
    let mut session = Session::new(model, &phone).map_err(|e| CliError::Engine(e.to_string()))?;
    let report = match &request {
        Requests::U8(img) => session.run_u8(&img[0]),
        Requests::F32(img) => session.run_f32(&img[0]),
    }
    .map_err(|e| CliError::Engine(e.to_string()))?;
    Ok(format!(
        "ran on {} ({})\n{}",
        phone.name,
        phone.gpu.name,
        report.to_table()
    ))
}

/// Synthetic requests for one model, in the input kind it takes: `count`
/// images seeded `first_seed`, `first_seed + 1`, ….
enum Requests {
    U8(Vec<Tensor<u8>>),
    F32(Vec<Tensor<f32>>),
}

impl Requests {
    fn synthetic(model: &PbitModel, count: usize, first_seed: u64) -> Self {
        let images = (0..count).map(|i| synthetic_image(model.input, first_seed + i as u64));
        if model.takes_u8_input() {
            Requests::U8(images.collect())
        } else {
            Requests::F32(images.map(|img| to_float_input(&img)).collect())
        }
    }

    fn traffic(&self) -> TenantTraffic<'_> {
        match self {
            Requests::U8(reqs) => TenantTraffic::U8(reqs),
            Requests::F32(reqs) => TenantTraffic::F32(reqs),
        }
    }
}

/// The per-tenant table every serving command prints — co-resident,
/// open-loop and fleet rows alike.
fn tenant_table(out: &mut String, tenants: &[TenantReport]) {
    let _ = writeln!(
        out,
        "{:<16} {:>5} {:>7} {:>7} {:>6} {:>5} {:>5} {:>5} {:>5} {:>9} {:>9} {:>9} {:>10} {:>12}",
        "tenant",
        "batch",
        "windows",
        "offered",
        "served",
        "shed",
        "retry",
        "thrtl",
        "moved",
        "p50(ms)",
        "p95(ms)",
        "p99(ms)",
        "p99.9(ms)",
        "slo"
    );
    for tr in tenants {
        let slo = match tr.slo_ms {
            Some(s) => format!("{s:.1}ms {}", if tr.slo_met { "MET" } else { "MISSED" }),
            None => "-".into(),
        };
        let _ = writeln!(
            out,
            "{:<16} {:>5} {:>7} {:>7} {:>6} {:>5} {:>5} {:>5} {:>5} {:>9.3} {:>9.3} {:>9.3} \
             {:>10.3} {:>12}",
            tr.name,
            tr.batch,
            tr.windows,
            tr.offered,
            tr.served,
            tr.shed,
            tr.retries,
            tr.throttled,
            tr.migrated,
            tr.p50_ms,
            tr.p95_ms,
            tr.p99_ms,
            tr.p999_ms,
            slo
        );
    }
}

/// `pbit serve <model.pbit> [--phone x9] [--batch N] [--requests R]
/// [--streams S] [--slo-ms T] [--weight-budget MB]`: a serving loop.
///
/// With one stream and no SLO this is the PR 3 batched loop: the model is
/// staged once with [`Session::new_batched`] (weights and GEMM banks
/// shared across the whole stream, double-banked arena), `R` synthetic
/// requests are fed in windows of `N`, and the report shows cold/steady
/// window latency and steady-state images per second.
///
/// With `--streams > 1`, `--slo-ms`, or `--weight-budget`, serving goes
/// through a one-tenant [`DeviceRuntime`]: the admission controller picks
/// the window size from the sharded memory cap and the p95 latency SLO
/// (an explicit `--batch` is honored up to the cap), requests are sharded
/// across `S` concurrent streams contending for the GPU, and the report
/// shows the observed p50/p95/p99 window latencies and aggregate
/// throughput. `--weight-budget` caps resident weight bytes (`weight_budget`
/// is in bytes here; the flag takes MB): when the model's weights exceed
/// it, admission grants the paged floor and the runtime streams banks
/// through the upload lane, and the report appends the paging verdict.
#[allow(clippy::too_many_arguments)] // mirrors the CLI flags one-to-one
pub fn cmd_serve(
    path: &Path,
    phone: &str,
    batch: Option<usize>,
    requests: usize,
    streams: usize,
    slo_ms: Option<f64>,
    weight_budget: Option<usize>,
    seed: u64,
) -> Result<String, CliError> {
    if batch == Some(0) || requests == 0 || streams == 0 {
        return Err(CliError::Usage(
            "serve needs --batch >= 1, --requests >= 1 and --streams >= 1".into(),
        ));
    }
    if slo_ms.is_some_and(|s| s <= 0.0) {
        return Err(CliError::Usage("serve needs --slo-ms > 0".into()));
    }
    if weight_budget == Some(0) {
        return Err(CliError::Usage("serve needs --weight-budget > 0".into()));
    }
    if streams > 1 || slo_ms.is_some() || weight_budget.is_some() {
        return cmd_serve_sharded(
            path,
            phone,
            batch,
            requests,
            streams,
            slo_ms,
            weight_budget,
            seed,
        );
    }
    let batch = batch.unwrap_or(4);
    let model = load_file(path)?;
    let phone = phone_by_name(phone)?;
    let name = model.name.clone();
    let mut session =
        Session::new_batched(model, &phone, batch).map_err(|e| CliError::Engine(e.to_string()))?;

    let mut served = 0usize;
    let mut windows = 0usize;
    let mut cold_s = 0.0f64;
    let mut cold_imgs = 0usize;
    let mut steady_s = 0.0f64;
    let mut steady_imgs = 0usize;
    while served < requests {
        let count = batch.min(requests - served);
        let report = match Requests::synthetic(session.model(), count, seed + served as u64) {
            Requests::U8(imgs) => session.run_batch_u8(&imgs),
            Requests::F32(imgs) => session.run_batch_f32(&imgs),
        }
        .map_err(|e| CliError::Engine(e.to_string()))?;
        if windows == 0 {
            cold_s = report.total_s;
            cold_imgs = count;
        } else {
            steady_s += report.total_s;
            steady_imgs += count;
        }
        served += count;
        windows += 1;
    }
    // Steady throughput counts the images actually served after the cold
    // window; a single-window stream only has the cold number.
    let (imgs_per_s, steady_window_ms) = if steady_imgs > 0 {
        (
            steady_imgs as f64 / steady_s,
            steady_s * 1e3 / (windows - 1) as f64,
        )
    } else {
        (cold_imgs as f64 / cold_s, cold_s * 1e3)
    };
    let banks = session.plan().banks;
    Ok(format!(
        "served {served} requests in {windows} windows of {batch} on {} ({})\n\
         model `{name}`: cold window {:.3} ms, steady window {steady_window_ms:.3} ms, \
         {imgs_per_s:.1} imgs/s steady, resident {:.2} MiB (weights + {banks} arena bank{})",
        phone.name,
        phone.gpu.name,
        cold_s * 1e3,
        session.resident_bytes() as f64 / (1024.0 * 1024.0),
        if banks == 1 { "" } else { "s" }
    ))
}

/// The sharded (`--streams`/`--slo-ms`/`--weight-budget`) arm of
/// [`cmd_serve`].
#[allow(clippy::too_many_arguments)] // mirrors the CLI flags one-to-one
fn cmd_serve_sharded(
    path: &Path,
    phone: &str,
    batch: Option<usize>,
    requests: usize,
    streams: usize,
    slo_ms: Option<f64>,
    weight_budget: Option<usize>,
    seed: u64,
) -> Result<String, CliError> {
    let model = load_file(path)?;
    let phone = phone_by_name(phone)?;
    let name = model.name.clone();
    let reqs = Requests::synthetic(&model, requests, seed);
    // One model is a registry of one tenant on the multi-tenant runtime.
    let mut spec = TenantSpec::new(model);
    spec.batch = batch;
    spec.slo_ms = slo_ms;
    let mut runtime = DeviceRuntime::new_with_budget(vec![spec], &phone, streams, weight_budget)
        .map_err(|e| CliError::Engine(e.to_string()))?;
    let pass = runtime
        .serve(&[reqs.traffic()])
        .map_err(|e| CliError::Engine(e.to_string()))?;
    // A single tenant has no cross-tenant queueing to report: the window
    // latencies are the executed service times.
    let report = &pass.tenants[0];
    let [p50_ms, p95_ms, p99_ms] = nearest_rank(&pass.attempt_exec_ms, [0.50, 0.95, 0.99]);
    let tenant = &runtime.tenants()[0];
    let adm = tenant.admission();
    let slo_line = match adm.slo_ms {
        Some(slo) => format!(
            "slo {slo:.3} ms p95: {} (observed p95 {p95_ms:.3} ms)",
            if p95_ms <= slo { "MET" } else { "MISSED" },
        ),
        None => "no slo".to_string(),
    };
    let paging_line = match (weight_budget, adm.weight_grant_bytes) {
        (None, _) => String::new(),
        (Some(budget), None) => format!(
            "\nweight paging: budget {:.2} MB holds all {:.2} MB of weights resident (no stalls)",
            budget as f64 / 1e6,
            runtime.total_weight_bytes() as f64 / 1e6,
        ),
        (Some(budget), Some(grant)) => {
            let pg = tenant.plan().paging.as_ref();
            format!(
                "\nweight paging: granted {:.2} MB hot set of {:.2} MB weights (budget {:.2} MB); \
                 modeled stall {:.3} ms/window over {} evictions",
                grant as f64 / 1e6,
                runtime.total_weight_bytes() as f64 / 1e6,
                budget as f64 / 1e6,
                pg.map_or(0.0, |p| p.stall_s() * 1e3),
                pg.map_or(0, |p| p.evictions()),
            )
        }
    };
    Ok(format!(
        "served {} requests in {} windows of {} across {} streams on {} ({})\n\
         model `{name}`: admission batch {} (cap {}, modeled window {:.3} ms), {slo_line}\n\
         window latency p50/p95/p99 {:.3}/{:.3}/{:.3} ms, {:.1} imgs/s aggregate, \
         resident {:.2} MiB (weights + {} x {} arena banks){paging_line}",
        report.served,
        report.windows,
        report.batch,
        pass.schedule.streams_used(),
        phone.name,
        phone.gpu.name,
        adm.batch,
        adm.max_feasible_batch,
        adm.modeled_window_ms,
        p50_ms,
        p95_ms,
        p99_ms,
        pass.goodput_imgs_per_s,
        runtime.resident_bytes() as f64 / (1024.0 * 1024.0),
        streams,
        tenant.plan().banks,
    ))
}

/// `pbit serve --model a.pbit --model b.pbit [--slo-ms T]... [--phone x9]
/// [--batch N] [--requests R] [--streams S] [--weight-budget MB]`:
/// co-resident multi-tenant serving through the [`DeviceRuntime`].
///
/// With `--weight-budget`, admission hands out binary residency grants:
/// tenants that fit stay fully resident, the rest stream their banks
/// through the upload lane at their paged floor, and the report appends
/// a per-tenant grant line — so a tenant set whose summed weights exceed
/// the budget still admits.
///
/// Every `--model` registers one tenant (an optional `--slo-ms` per
/// position pairs with it); each tenant gets `requests` synthetic
/// requests, the contention-aware admission controller fixes each
/// tenant's window against the others' dispatch mix (an explicit
/// `--batch` applies to every tenant, up to the pooled memory cap), and
/// the work-stealing scheduler shards windows across `streams` pooled
/// streams. Prints a per-tenant percentile table plus the pooled
/// aggregate.
#[allow(clippy::too_many_arguments)] // mirrors the CLI flags one-to-one
pub fn cmd_serve_multitenant(
    paths: &[std::path::PathBuf],
    slos: &[Option<f64>],
    phone: &str,
    batch: Option<usize>,
    requests: usize,
    streams: usize,
    weight_budget: Option<usize>,
    seed: u64,
) -> Result<String, CliError> {
    if batch == Some(0) || requests == 0 || streams == 0 {
        return Err(CliError::Usage(
            "serve needs --batch >= 1, --requests >= 1 and --streams >= 1".into(),
        ));
    }
    if slos.iter().flatten().any(|s| *s <= 0.0) {
        return Err(CliError::Usage("serve needs --slo-ms > 0".into()));
    }
    if weight_budget == Some(0) {
        return Err(CliError::Usage("serve needs --weight-budget > 0".into()));
    }
    let phone = phone_by_name(phone)?;
    let mut specs = Vec::with_capacity(paths.len());
    let mut reqs = Vec::with_capacity(paths.len());
    for (t, path) in paths.iter().enumerate() {
        let model = load_file(path)?;
        reqs.push(Requests::synthetic(
            &model,
            requests,
            seed + (t * requests) as u64,
        ));
        let mut spec = TenantSpec::new(model);
        spec.batch = batch;
        spec.slo_ms = slos.get(t).copied().flatten();
        specs.push(spec);
    }
    let mut runtime = DeviceRuntime::new_with_budget(specs, &phone, streams, weight_budget)
        .map_err(|e| CliError::Engine(e.to_string()))?;
    let traffic: Vec<TenantTraffic<'_>> = reqs.iter().map(Requests::traffic).collect();
    let report = runtime
        .serve(&traffic)
        .map_err(|e| CliError::Engine(e.to_string()))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "served {} tenants ({} requests, {} windows) across {} pooled streams on {} ({})",
        report.tenants.len(),
        report.tenants.iter().map(|t| t.served).sum::<usize>(),
        report.tenants.iter().map(|t| t.windows).sum::<usize>(),
        runtime.stream_count(),
        phone.name,
        phone.gpu.name
    );
    tenant_table(&mut out, &report.tenants);
    let caps: Vec<String> = runtime
        .tenants()
        .iter()
        .map(|t| format!("{} {}", t.name(), t.admission().max_feasible_batch))
        .collect();
    let _ = writeln!(
        out,
        "aggregate {:.1} imgs/s over {:.3} ms makespan; batch cap {}; resident {:.2} MiB \
         (sum of weights + {} x {:.2} MiB pooled arena slice)",
        report.goodput_imgs_per_s,
        report.wall_ms,
        caps.join(", "),
        runtime.resident_bytes() as f64 / (1024.0 * 1024.0),
        runtime.stream_count(),
        runtime.pool_slice_bytes() as f64 / (1024.0 * 1024.0),
    );
    if let Some(budget) = weight_budget {
        let grants: Vec<String> = runtime
            .tenants()
            .iter()
            .map(|t| {
                let adm = t.admission();
                match adm.weight_grant_bytes {
                    Some(g) => format!("{} {:.2} MB paged", t.name(), g as f64 / 1e6),
                    None => format!("{} full", t.name()),
                }
            })
            .collect();
        let _ = writeln!(
            out,
            "weight budget {:.2} MB: sum of weights {:.2} MB, peak resident {:.2} MB; grants: {}",
            budget as f64 / 1e6,
            runtime.total_weight_bytes() as f64 / 1e6,
            runtime.resident_bytes() as f64 / 1e6,
            grants.join(", "),
        );
    }
    Ok(out)
}

/// `pbit serve --model a.pbit [--model b.pbit]... --arrival <spec>...
/// [--fault <spec>] [--duration MS] [--slo-ms T]... [--phone x9]
/// [--batch N] [--streams S] [--seed N]`: open-loop fault-tolerant
/// serving through [`DeviceRuntime::serve_open_loop`].
///
/// Each `--arrival` pairs positionally with a `--model` (the last spec
/// repeats for extra tenants): `poisson:<rate>`,
/// `burst:<base>:<burst>:<period_ms>:<frac>`, `heavytail:<rate>:<alpha>`,
/// or `diurnal:<r1,r2,...>` (rates per second; diurnal buckets tile the
/// horizon). Requests arrive on the seeded process over
/// `--duration` milliseconds; deadlines anchor to arrival time (+SLO).
/// `--fault` injects a seeded [`FaultPlan`]
/// (`rate=<p>,throttle=<a>-<b>@<x>,burst=<a>-<b>@<p>,seed=<n>`); the
/// runtime retries faulted windows with backoff, sheds hopeless
/// deadlines, and replans batches under shed pressure. `--batch`
/// defaults to 1 (arrival-anchored deadlines punish waiting on window
/// fill). The table shows per-tenant shed/retry/throttle counters next
/// to the percentiles.
#[allow(clippy::too_many_arguments)] // mirrors the CLI flags one-to-one
pub fn cmd_serve_openloop(
    paths: &[std::path::PathBuf],
    slos: &[Option<f64>],
    arrivals: &[String],
    fault: Option<&str>,
    phone: &str,
    batch: Option<usize>,
    duration_ms: f64,
    streams: usize,
    seed: u64,
) -> Result<String, CliError> {
    if paths.is_empty() || batch == Some(0) || streams == 0 {
        return Err(CliError::Usage(
            "serve needs >= 1 model, --batch >= 1 and --streams >= 1".into(),
        ));
    }
    if !duration_ms.is_finite() || duration_ms <= 0.0 {
        return Err(CliError::Usage(
            "serve needs a finite --duration > 0 (ms)".into(),
        ));
    }
    if slos.iter().flatten().any(|s| *s <= 0.0) {
        return Err(CliError::Usage("serve needs --slo-ms > 0".into()));
    }
    if arrivals.is_empty() {
        return Err(CliError::Usage(
            "open-loop serve needs at least one --arrival spec".into(),
        ));
    }
    let procs: Vec<ArrivalProcess> = (0..paths.len())
        .map(|t| {
            let spec = arrivals
                .get(t)
                .unwrap_or_else(|| arrivals.last().expect("arrivals checked non-empty above"));
            ArrivalProcess::parse(spec)
                .map_err(|e| CliError::Usage(format!("bad --arrival `{spec}`: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let fault_plan = fault
        .map(|spec| {
            FaultPlan::parse(spec)
                .map_err(|e| CliError::Usage(format!("bad --fault `{spec}`: {e}")))
        })
        .transpose()?;
    let phone = phone_by_name(phone)?;
    // Seeded arrivals per tenant, and one synthetic request per arrival.
    let arrivals_ms: Vec<Vec<f64>> = procs
        .iter()
        .enumerate()
        .map(|(t, p)| p.times_ms(seed.wrapping_add(t as u64), duration_ms))
        .collect();

    let mut specs = Vec::with_capacity(paths.len());
    let mut reqs = Vec::with_capacity(paths.len());
    for (t, path) in paths.iter().enumerate() {
        let model = load_file(path)?;
        let count = arrivals_ms[t].len();
        reqs.push(Requests::synthetic(
            &model,
            count,
            seed + (t * 100_000) as u64,
        ));
        let mut spec = TenantSpec::new(model);
        // Open-loop deadlines are anchored to arrival, so a window waits
        // on its own members before it can even start: default to
        // latency-oriented single-request windows instead of letting
        // admission pick its throughput-oriented batch.
        spec.batch = Some(batch.unwrap_or(1));
        spec.slo_ms = slos.get(t).copied().flatten();
        specs.push(spec);
    }
    let mut runtime =
        DeviceRuntime::new(specs, &phone, streams).map_err(|e| CliError::Engine(e.to_string()))?;
    runtime.clock().set_fault_plan(fault_plan.clone());
    let traffic: Vec<TenantTraffic<'_>> = reqs.iter().map(Requests::traffic).collect();
    let report = runtime
        .serve_open_loop(&traffic, &arrivals_ms, &OpenLoopOptions::default())
        .map_err(|e| CliError::Engine(e.to_string()))?;

    let offered: usize = report.tenants.iter().map(|t| t.offered).sum();
    let served: usize = report.tenants.iter().map(|t| t.served).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "open-loop served {} tenants ({} offered, {} served, {} shed) across {} pooled \
         streams on {} ({}) over {duration_ms:.1} ms of arrivals",
        report.tenants.len(),
        offered,
        served,
        offered - served,
        report.streams,
        phone.name,
        phone.gpu.name
    );
    let _ = writeln!(
        out,
        "{}",
        match &fault_plan {
            Some(f) => format!(
                "fault plan: rate {:.3}, {} throttle epoch(s), seed {}",
                f.failure_rate(),
                f.throttle_epochs().len(),
                f.seed()
            ),
            None => "no fault plan".to_string(),
        }
    );
    tenant_table(&mut out, &report.tenants);
    let _ = writeln!(
        out,
        "aggregate goodput {:.1} imgs/s over {:.3} ms wall; {} replan{}; resident {:.2} MiB",
        report.goodput_imgs_per_s,
        report.wall_ms,
        report.replans,
        if report.replans == 1 { "" } else { "s" },
        runtime.resident_bytes() as f64 / (1024.0 * 1024.0),
    );
    Ok(out)
}

/// Parses a fleet event spec: `<ms>@<device>` for `--fail` (device is a
/// numeric index) or `<ms>@<phone>` for `--join`.
fn parse_fleet_event(spec: &str, join: bool) -> Result<FleetEvent, CliError> {
    let (ms, target) = spec.split_once('@').ok_or_else(|| {
        CliError::Usage(format!(
            "bad event `{spec}` (want <ms>@<{}>)",
            if join { "phone" } else { "device" }
        ))
    })?;
    let at_ms: f64 = ms
        .parse()
        .map_err(|_| CliError::Usage(format!("bad event time `{ms}` in `{spec}`")))?;
    if !at_ms.is_finite() || at_ms < 0.0 {
        return Err(CliError::Usage(format!(
            "event time must be finite and >= 0 in `{spec}`"
        )));
    }
    if join {
        Ok(FleetEvent::Join {
            at_ms,
            phone: phone_by_name(target)?,
            fault: None,
        })
    } else {
        let device: usize = target
            .parse()
            .map_err(|_| CliError::Usage(format!("bad device index `{target}` in `{spec}`")))?;
        Ok(FleetEvent::Fail { at_ms, device })
    }
}

/// `pbit fleet [--model <name>]... [--devices 4] [--policy p2c]
/// [--zipf 1.0] [--rate 200] [--duration 400] [--streams 2]
/// [--replicas 2] [--slo-ms T] [--fail <ms>@<dev>]... [--join
/// <ms>@<phone>]... [--seed N]`: models a fleet of simulated devices
/// (alternating Snapdragon 855 / 820) behind the global router. Tenant
/// arrival rates are Zipf-skewed shares of `--rate`; device failures
/// re-route uncommitted requests and migrate orphaned tenants. Prints
/// per-device utilization, per-tenant percentiles and the global latency
/// distribution — the same [`phonebit_core::FleetReport`] the `fleet_report` bench bin
/// sweeps.
#[allow(clippy::too_many_arguments)]
pub fn cmd_fleet(
    models: &[String],
    devices: usize,
    policy: &str,
    zipf: f64,
    rate_per_s: f64,
    duration_ms: f64,
    streams: usize,
    replicas: usize,
    slo_ms: Option<f64>,
    fails: &[String],
    joins: &[String],
    seed: u64,
) -> Result<String, CliError> {
    if devices == 0 || streams == 0 || replicas == 0 {
        return Err(CliError::Usage(
            "fleet needs --devices >= 1, --streams >= 1 and --replicas >= 1".into(),
        ));
    }
    if !duration_ms.is_finite() || duration_ms <= 0.0 {
        return Err(CliError::Usage(
            "fleet needs a finite --duration > 0 (ms)".into(),
        ));
    }
    if !rate_per_s.is_finite() || rate_per_s <= 0.0 {
        return Err(CliError::Usage("fleet needs --rate > 0 (req/s)".into()));
    }
    if !zipf.is_finite() || zipf < 0.0 {
        return Err(CliError::Usage("fleet needs --zipf >= 0".into()));
    }
    if slo_ms.is_some_and(|s| s <= 0.0) {
        return Err(CliError::Usage("fleet needs --slo-ms > 0".into()));
    }
    let policy = RoutePolicy::parse(policy).map_err(CliError::Usage)?;
    let names: Vec<String> = if models.is_empty() {
        vec!["yolo-micro".into(), "alexnet-micro".into()]
    } else {
        models.to_vec()
    };
    let archs: Vec<NetworkArch> = names
        .iter()
        .map(|m| arch_by_name(m))
        .collect::<Result<_, _>>()?;

    let tenants: Vec<TenantWorkload<'_>> = archs
        .iter()
        .map(|arch| TenantWorkload {
            arch,
            batch: Some(1),
            slo_ms,
        })
        .collect();
    let arrivals_ms: Vec<Vec<f64>> = zipf_rates(rate_per_s, archs.len(), zipf)
        .iter()
        .enumerate()
        .map(|(t, &rate)| {
            ArrivalProcess::poisson(rate).times_ms(seed.wrapping_add(t as u64), duration_ms)
        })
        .collect();
    let counts = TenantTraffic::counts(&arrivals_ms);

    let specs: Vec<FleetDeviceSpec> = (0..devices)
        .map(|d| {
            FleetDeviceSpec::new(if d % 2 == 0 {
                Phone::xiaomi_9()
            } else {
                Phone::xiaomi_5()
            })
        })
        .collect();
    let mut events: Vec<FleetEvent> = Vec::new();
    for spec in fails {
        events.push(parse_fleet_event(spec, false)?);
    }
    for spec in joins {
        events.push(parse_fleet_event(spec, true)?);
    }
    for ev in &events {
        if let FleetEvent::Fail { device, .. } = ev {
            if *device >= devices + joins.len() {
                return Err(CliError::Usage(format!(
                    "--fail device index {device} out of range (fleet has {devices} \
                     device(s) plus {} join(s))",
                    joins.len()
                )));
            }
        }
    }
    let opts = FleetOptions {
        policy,
        seed,
        replicas,
        streams,
        ..FleetOptions::default()
    };
    // A dry fleet: the architectures, and the counts of their arrivals.
    let report = Fleet::dry(specs, &tenants, opts)
        .map_err(|e| CliError::Engine(e.to_string()))?
        .serve_open_loop(&counts, &arrivals_ms, &events)
        .map_err(|e| match e {
            // What is left to get wrong here is the event list.
            EngineError::InputMismatch { .. } => {
                CliError::Usage(format!("bad --fail/--join events: {e}"))
            }
            e => CliError::Engine(e.to_string()),
        })?
        .report;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet of {} device(s), {} tenant(s), policy {}, seed {}: {} offered, {} served, \
         {} shed, {} migrated over {duration_ms:.1} ms of arrivals",
        report.devices.len(),
        report.tenants.len(),
        report.policy.name(),
        report.seed,
        report.offered,
        report.served,
        report.shed,
        report.migrated,
    );
    let _ = writeln!(
        out,
        "{:<6} {:<10} {:>6} {:>7} {:>7} {:>6} {:>5} {:>6} {:>9}",
        "device", "phone", "state", "tenants", "offered", "served", "shed", "util", "imgs/s"
    );
    for dr in &report.devices {
        let _ = writeln!(
            out,
            "{:<6} {:<10} {:>6} {:>7} {:>7} {:>6} {:>5} {:>5.1}% {:>9.1}",
            dr.id,
            dr.phone,
            if dr.failed { "dead" } else { "live" },
            dr.tenants,
            dr.offered,
            dr.served,
            dr.shed,
            dr.utilization * 100.0,
            dr.imgs_per_s,
        );
    }
    tenant_table(&mut out, &report.tenants);
    let _ = writeln!(
        out,
        "global p50 {:.3} / p95 {:.3} / p99 {:.3} / p99.9 {:.3} ms; goodput {:.1} imgs/s \
         over {:.3} ms wall",
        report.p50_ms,
        report.p95_ms,
        report.p99_ms,
        report.p999_ms,
        report.goodput_imgs_per_s,
        report.wall_ms,
    );
    Ok(out)
}

/// `pbit plan <model> [--batch 4] [--streams 2] [--pair <model2>]
/// [--compress] [--paging] [--seed N]`: deployment planning per phone —
/// weights, the solo arena peak, the sharded (`streams × banks × Σ slots`)
/// peak, and `max_feasible_batch` both solo and sharded, so capacity
/// planning sees the same numbers the serving runtime's admission
/// controller uses. With `--pair`, adds the pooled multi-tenant peak of
/// co-residing the two models (`Σ weights + streams × max(banks × Σ
/// slots)`). With `--compress`, synthesizes clustered weights (seeded)
/// and prints the weight-bank dictionary ledger: per-layer unique rows,
/// dictionary + index bytes vs raw, and each compress/skip verdict. With
/// `--paging`, prints the weight-paging residency ledger at the paged
/// floor budget: per-step bank bytes, upload-lane issue/ready times, the
/// stall each step charges, and the evict verdict — the exact schedule
/// the one plan walk charges for estimator, admission and engine alike.
pub fn cmd_plan(
    model: &str,
    batch: usize,
    streams: usize,
    pair: Option<&str>,
    compress: bool,
    paging: bool,
    seed: u64,
) -> Result<String, CliError> {
    if batch == 0 || streams == 0 {
        return Err(CliError::Usage(
            "plan needs --batch >= 1 and --streams >= 1".into(),
        ));
    }
    let arch = arch_by_name(model)?;
    // Every table below is arithmetic over lowered plans, so a deployment
    // that does not fit still prints its row.
    let lower = |arch: &NetworkArch, phone: &Phone, overrides: RouteOverrides| {
        ExecutionPlan::for_arch(arch, &phone.gpu, batch, &overrides)
            .map_err(|e| CliError::Engine(e.to_string()))
    };
    let fits = |peak: usize, phone: &Phone| match peak <= phone.app_budget_bytes() {
        true => "yes",
        false => "NO",
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "deployment plan for `{}` (batch {batch}, {streams} stream{})",
        arch.name,
        if streams == 1 { "" } else { "s" }
    );
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>12} {:>14} {:>10} {:>12} {:>6}",
        "phone", "weights", "solo peak", "sharded peak", "max b", "max b shard", "fits"
    );
    for phone in Phone::all() {
        let plan = lower(&arch, &phone, RouteOverrides::default())?;
        let peak = |n| pooled_peak_bytes(&[plan.weights_bytes], &[plan.staged_arena_bytes()], n);
        let _ = writeln!(
            out,
            "{:<10} {:>8.2}MB {:>10.2}MB {:>12.2}MB {:>10} {:>12} {:>6}",
            phone.name,
            plan.weights_bytes as f64 / 1e6,
            peak(1) as f64 / 1e6,
            peak(streams) as f64 / 1e6,
            max_feasible_batch(&arch, &phone, 1),
            max_feasible_batch(&arch, &phone, streams),
            fits(peak(streams), &phone)
        );
    }
    let _ = writeln!(
        out,
        "sharded peak = weights + streams x banks x sum(arena slots); \
         max b = largest window that still fits the app budget"
    );

    let _ = writeln!(
        out,
        "\ninter-layer fusion (batch {batch}, per-chain cost model)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>12} {:>10} {:>12}",
        "phone", "disp/img", "fused", "saved", "chains fused"
    );
    let auto_fusion = RouteOverrides {
        fusion: FusionMode::Auto,
        ..Default::default()
    };
    for phone in Phone::all() {
        let unfused = lower(&arch, &phone, RouteOverrides::default())?;
        let fused = lower(&arch, &phone, auto_fusion)?;
        let taken = fused.chains.iter().filter(|c| c.fused).count();
        let _ = writeln!(
            out,
            "{:<10} {:>14} {:>12} {:>10} {:>9}/{}",
            phone.name,
            unfused.dispatches(),
            fused.dispatches(),
            unfused.dispatches() - fused.dispatches(),
            taken,
            fused.chains.len(),
        );
    }
    let _ = writeln!(
        out,
        "disp/img = kernel dispatches per image; fused = after the fusion pass \
         (each chain fuses only when its modeled score beats the split form)"
    );

    if let Some(pair_name) = pair {
        let pair_arch = arch_by_name(pair_name)?;
        let _ = writeln!(
            out,
            "\npooled co-residency `{}` + `{}` (batch {batch} each, {streams} streams)",
            arch.name, pair_arch.name
        );
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>12} {:>14} {:>12} {:>6}",
            "phone", "weights", "slice", "pooled peak", "unpooled peak", "max b pair", "fits"
        );
        for phone in Phone::all() {
            let a = lower(&arch, &phone, RouteOverrides::default())?;
            let b = lower(&pair_arch, &phone, RouteOverrides::default())?;
            let weights = [a.weights_bytes, b.weights_bytes];
            let slices = [a.staged_arena_bytes(), b.staged_arena_bytes()];
            let pooled = pooled_peak_bytes(&weights, &slices, streams);
            let unpooled = weights[0] + weights[1] + streams * (slices[0] + slices[1]);
            let max_pair = max_feasible_batch_multitenant(
                &[&arch, &pair_arch],
                &[batch, batch],
                0,
                &phone,
                streams,
            );
            let _ = writeln!(
                out,
                "{:<10} {:>8.2}MB {:>8.2}MB {:>10.2}MB {:>12.2}MB {:>12} {:>6}",
                phone.name,
                (weights[0] + weights[1]) as f64 / 1e6,
                slices[0].max(slices[1]) as f64 / 1e6,
                pooled as f64 / 1e6,
                unpooled as f64 / 1e6,
                max_pair,
                fits(pooled, &phone)
            );
        }
        let _ = writeln!(
            out,
            "pooled peak = sum(weights) + streams x max(banks x sum(arena slots)); any stream \
             can run either tenant inside its slice"
        );
    }

    if compress {
        let def = fill_weights_clustered(&arch, seed, 8);
        let converted = convert(&def);
        let auto = RouteOverrides {
            compression: CompressionMode::Auto,
            ..Default::default()
        };
        for phone in Phone::all() {
            let plan = ExecutionPlan::for_model(&converted, &phone.gpu, batch, &auto)
                .map_err(|e| CliError::Engine(e.to_string()))?;
            let _ = writeln!(
                out,
                "\nweight-bank dictionary ledger on {} (clustered weights, seed {seed})",
                phone.name
            );
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>6} {:>7} {:>4} {:>10} {:>10} {:>8} {:>9}",
                "layer", "route", "rows", "unique", "idx", "raw", "dict+idx", "saved", "verdict"
            );
            for d in &plan.compression {
                let route = match d.path {
                    ConvPath::LoweredGemm => "gemm",
                    ConvPath::DirectFused => "fused",
                    ConvPath::DirectUnfused => "unfused",
                };
                let _ = writeln!(
                    out,
                    "{:<10} {:>8} {:>6} {:>7} {:>3}B {:>10} {:>10} {:>8} {:>9}",
                    d.name,
                    route,
                    d.stats.rows,
                    d.stats.unique_rows,
                    d.stats.index_width,
                    d.stats.raw_bytes,
                    d.stats.compressed_bytes,
                    d.saved_bytes(),
                    if d.compressed { "compress" } else { "skip" },
                );
            }
            let _ = writeln!(
                out,
                "resident weights {:.2}MB ({} saved); each bank compresses only when \
                 dictionary + indices beat its raw rows",
                plan.weights_bytes as f64 / 1e6,
                plan.compression_saved_bytes(),
            );
        }
    }

    if paging {
        for phone in Phone::all() {
            // The paged floor of the unbudgeted plan is the budget the
            // streaming ledger is printed at (banks are budget-invariant).
            let floor = lower(&arch, &phone, RouteOverrides::default())?.paged_floor_bytes();
            let at_floor = RouteOverrides {
                weight_budget: Some(floor),
                ..Default::default()
            };
            let paged = lower(&arch, &phone, at_floor)?;
            let Some(pg) = paged.paging.as_ref() else {
                continue;
            };
            let _ = writeln!(
                out,
                "\nweight-paging residency ledger on {} (batch {batch}, \
                 budget = paged floor {:.3}MB)",
                phone.name,
                floor as f64 / 1e6,
            );
            let _ = writeln!(
                out,
                "{:<10} {:>10} {:>11} {:>10} {:>10} {:>10} {:>6}",
                "step", "bank", "upload(ms)", "issue(ms)", "ready(ms)", "stall(ms)", "evict"
            );
            for s in &pg.steps {
                if s.bank_bytes == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "{:<10} {:>9}B {:>11.3} {:>10.3} {:>10.3} {:>10.3} {:>6}",
                    s.name,
                    s.bank_bytes,
                    s.upload_s * 1e3,
                    s.issue_s * 1e3,
                    s.ready_s * 1e3,
                    s.stall_s * 1e3,
                    if s.evicted { "yes" } else { "no" },
                );
            }
            let _ = writeln!(
                out,
                "hot peak {:.3}MB of {:.3}MB weights ({} evictions/window); \
                 modeled stall {:.3} ms/window, upload lane busy {:.3} ms/window",
                pg.hot_peak_bytes as f64 / 1e6,
                pg.total_weight_bytes as f64 / 1e6,
                pg.evictions(),
                pg.stall_s() * 1e3,
                pg.lane_busy_s() * 1e3,
            );
        }
        let _ = writeln!(
            out,
            "stall = compute time the window waits for a bank the depth-1 \
             look-ahead could not hide; weightless steps are omitted"
        );
    }
    Ok(out)
}

/// `pbit bench <model> <phone>`: full-scale modeled latency/energy of a zoo
/// architecture (no weights materialized), Table III/IV style.
pub fn cmd_bench(model: &str, phone: &str) -> Result<String, CliError> {
    let arch = arch_by_name(model)?;
    let phone = phone_by_name(phone)?;
    let report = estimate_arch(&phone, &arch);
    let er = EnergyReport::from_frame(arch.name.clone(), report.total_s, report.energy_j);
    Ok(format!(
        "{} on {} ({}): {:.2} ms/frame, {:.1} FPS, {:.1} mW, {:.1} FPS/W, peak {:.1} MiB",
        arch.name,
        phone.name,
        phone.soc,
        report.total_ms(),
        report.fps(),
        er.power_mw(),
        er.fps_per_watt,
        report.peak_bytes as f64 / (1024.0 * 1024.0)
    ))
}

/// The usage string shown by `pbit help`.
pub const USAGE: &str = "pbit — PhoneBit model tool (simulated mobile GPU)

USAGE:
    pbit gen   <model> <out.pbit> [--seed N]   generate + convert a zoo model
    pbit info  <model.pbit>                    describe a deployed model
    pbit run   <model.pbit> [--phone x9] [--seed N]
                                               run one inference, per-layer report
    pbit serve <model.pbit> [--phone x9] [--batch 4] [--requests 16]
               [--streams 1] [--slo-ms T] [--weight-budget MB] [--seed N]
                                               serving loop; >1 stream (or an SLO)
                                               shards windows across concurrent
                                               streams with admission control;
                                               --weight-budget caps resident weight
                                               MB — oversubscribed weights page
                                               through the upload lane (granted the
                                               paged floor, stalls folded into the
                                               modeled window)
    pbit serve --model <a.pbit> --model <b.pbit> [--slo-ms T]... [--phone x9]
               [--batch N] [--requests 16] [--streams 2] [--weight-budget MB]
               [--seed N]
                                               co-resident multi-tenant serving: one
                                               tenant per --model (positional --slo-ms
                                               pairs with it), contention-aware
                                               admission, work-stealing scheduler,
                                               per-tenant percentile table;
                                               --weight-budget grants paged floors to
                                               tenants that no longer fit resident
    pbit serve --model <a.pbit> [--model <b.pbit>]... --arrival <spec>...
               [--fault <spec>] [--duration 100] [--slo-ms T]... [--phone x9]
               [--batch 1] [--streams 2] [--seed N]
                                               open-loop fault-tolerant serving:
                                               seeded arrivals (poisson:<rate/s> |
                                               burst:<base>:<burst>:<period_ms>:<frac> |
                                               heavytail:<rate/s>:<alpha> |
                                               diurnal:<r1,r2,...>) over
                                               --duration ms, arrival-anchored
                                               deadlines, injected faults
                                               (rate=<p>,throttle=<a>-<b>@<x>,
                                               burst=<a>-<b>@<p>,seed=<n>) survived by
                                               retry/backoff + deadline shedding;
                                               prints shed/retry/throttle counters
    pbit plan  <model> [--batch 4] [--streams 2] [--pair <model2>]
               [--compress] [--paging] [--seed N]
                                               per-phone deployment plan: solo and
                                               sharded arena peaks, max feasible batch,
                                               fused vs unfused dispatches per image;
                                               --pair adds the pooled co-resident peak;
                                               --compress adds the weight-bank
                                               dictionary ledger (per-layer unique
                                               rows, dict+index vs raw bytes,
                                               compress/skip verdicts) on clustered
                                               seeded weights; --paging adds the
                                               residency ledger at the paged-floor
                                               budget (per-step bank bytes, upload
                                               issue/ready, stalls, evictions)
    pbit fleet [--model <name>]... [--devices 4] [--policy p2c] [--zipf 1.0]
               [--rate 200] [--duration 400] [--streams 2] [--replicas 2]
               [--slo-ms T] [--fail <ms>@<dev>]... [--join <ms>@<phone>]...
               [--seed N]
                                               fleet-scale serving model: a cluster of
                                               alternating x9/x5 devices behind the
                                               global router (random | p2c | jsq |
                                               affinity), Zipf-skewed tenant rates
                                               sharing --rate req/s, device failures
                                               re-routing uncommitted requests and
                                               migrating orphaned tenants; prints
                                               per-device utilization, per-tenant and
                                               global latency percentiles
    pbit bench <model> [--phone x9]            full-scale modeled latency/energy
    pbit help                                  this text

MODELS: alexnet | yolov2-tiny | vgg16 | alexnet-micro | yolo-micro
PHONES: x5 (Snapdragon 820) | x9 (Snapdragon 855)";

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("phonebit_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn gen_info_run_round_trip() {
        let path = tmp("micro.pbit");
        let gen = cmd_gen("yolo-micro", &path, 3).unwrap();
        assert!(gen.contains("wrote"));
        let info = cmd_info(&path).unwrap();
        assert!(info.contains("binary conv (8-bit in)"));
        assert!(info.contains("float conv"));
        let run = cmd_run(&path, "x9", 5).unwrap();
        assert!(run.contains("Xiaomi 9"));
        assert!(run.contains("conv1"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_round_trip_reports_steady_throughput() {
        let path = tmp("serve_micro.pbit");
        cmd_gen("yolo-micro", &path, 7).unwrap();
        let out = cmd_serve(&path, "x9", Some(4), 10, 1, None, None, 5).unwrap();
        assert!(
            out.contains("served 10 requests in 3 windows of 4"),
            "{out}"
        );
        assert!(out.contains("imgs/s steady"), "{out}");
        assert!(out.contains("2 arena banks"), "{out}");
        // A batch-1 stream stages a single bank and says so.
        let single = cmd_serve(&path, "x9", Some(1), 2, 1, None, None, 5).unwrap();
        assert!(single.contains("1 arena bank"), "{single}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_sharded_reports_admission_and_percentiles() {
        let path = tmp("serve_shard.pbit");
        cmd_gen("yolo-micro", &path, 7).unwrap();
        let out = cmd_serve(&path, "x9", Some(2), 10, 2, None, None, 5).unwrap();
        assert!(
            out.contains("served 10 requests in 5 windows of 2 across 2 streams"),
            "{out}"
        );
        assert!(out.contains("admission batch 2"), "{out}");
        assert!(out.contains("p50/p95/p99"), "{out}");
        assert!(out.contains("imgs/s aggregate"), "{out}");
        // An SLO routes through the sharded path even at one stream, and
        // the verdict is printed.
        let slo = cmd_serve(&path, "x9", None, 8, 1, Some(1000.0), None, 5).unwrap();
        assert!(slo.contains("slo 1000.000 ms p95: MET"), "{slo}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_rejects_degenerate_windows() {
        let path = tmp("serve_bad.pbit");
        cmd_gen("yolo-micro", &path, 7).unwrap();
        assert!(matches!(
            cmd_serve(&path, "x9", Some(0), 10, 1, None, None, 5),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve(&path, "x9", Some(4), 0, 1, None, None, 5),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve(&path, "x9", Some(4), 8, 0, None, None, 5),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve(&path, "x9", Some(4), 8, 2, Some(0.0), None, 5),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn plan_prints_sharded_peaks_for_both_phones() {
        let out = cmd_plan("alexnet", 4, 2, None, false, false, 42).unwrap();
        assert!(
            out.contains("Xiaomi 5") && out.contains("Xiaomi 9"),
            "{out}"
        );
        assert!(out.contains("sharded peak"), "{out}");
        assert!(out.contains("max b shard"), "{out}");
        // The fusion table shows fused strictly below unfused dispatches
        // on every phone (AlexNet always carries fusible chains).
        assert!(out.contains("inter-layer fusion"), "{out}");
        assert!(out.contains("chains fused"), "{out}");
        for line in out
            .lines()
            .filter(|l| l.contains('/') && l.contains("Xiaomi"))
        {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() == 6 && cols[0] == "Xiaomi" {
                let unfused: usize = cols[2].parse().unwrap();
                let fused: usize = cols[3].parse().unwrap();
                assert!(fused < unfused, "fusion must save dispatches: {line}");
            }
        }
        assert!(matches!(
            cmd_plan("alexnet", 0, 2, None, false, false, 42),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_plan("alexnet", 4, 0, None, false, false, 42),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_plan("resnet", 4, 2, None, false, false, 42),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn plan_compress_prints_the_dictionary_ledger() {
        let out = cmd_plan("alexnet-micro", 1, 1, None, true, false, 7).unwrap();
        assert!(out.contains("weight-bank dictionary ledger"), "{out}");
        assert!(out.contains("dict+idx"), "{out}");
        assert!(out.contains("verdict"), "{out}");
        // Clustered weights must make at least one bank compress.
        assert!(
            out.contains("compress\n") || out.contains("compress "),
            "{out}"
        );
        // Without the flag, no ledger.
        let plain = cmd_plan("alexnet-micro", 1, 1, None, false, false, 7).unwrap();
        assert!(!plain.contains("dictionary ledger"), "{plain}");
    }

    #[test]
    fn plan_pair_prints_the_pooled_co_resident_peak() {
        let out = cmd_plan("alexnet", 4, 2, Some("yolov2-tiny"), false, false, 42).unwrap();
        assert!(
            out.contains("pooled co-residency `AlexNet` + `YOLOv2-Tiny`"),
            "{out}"
        );
        assert!(out.contains("pooled peak"), "{out}");
        assert!(out.contains("unpooled peak"), "{out}");
        assert!(out.contains("max b pair"), "{out}");
        assert!(matches!(
            cmd_plan("alexnet", 4, 2, Some("resnet"), false, false, 42),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_multitenant_prints_a_per_tenant_table() {
        let a = tmp("mt_a.pbit");
        let b = tmp("mt_b.pbit");
        cmd_gen("yolo-micro", &a, 7).unwrap();
        cmd_gen("alexnet-micro", &b, 9).unwrap();
        let out = cmd_serve_multitenant(
            &[a.clone(), b.clone()],
            &[None, Some(1000.0)],
            "x9",
            Some(2),
            6,
            2,
            None,
            5,
        )
        .unwrap();
        assert!(
            out.contains("served 2 tenants (12 requests, 6 windows)"),
            "{out}"
        );
        assert!(out.contains("YOLO-micro"), "{out}");
        assert!(out.to_lowercase().contains("alexnet"), "{out}");
        assert!(out.contains("1000.0ms MET"), "{out}");
        assert!(out.contains("pooled arena slice"), "{out}");
        // The residency line multiplies the slice by the streams that hold
        // one — `--streams` — even when a stream carried no traffic: one
        // request per tenant leaves two of four streams idle, and the same
        // bytes stay resident as with every stream busy.
        let serve4 = |requests| {
            let paths = [a.clone(), b.clone()];
            cmd_serve_multitenant(&paths, &[], "x9", Some(1), requests, 4, None, 5).unwrap()
        };
        let resident = |out: &str| out[out.find("resident").expect("residency line")..].to_string();
        assert!(resident(&serve4(1)).contains("+ 4 x "), "{}", serve4(1));
        assert_eq!(resident(&serve4(1)), resident(&serve4(16)));
        // Degenerate knobs are usage errors.
        assert!(matches!(
            cmd_serve_multitenant(&[a.clone(), b.clone()], &[], "x9", Some(0), 6, 2, None, 5),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            cmd_serve_multitenant(
                &[a.clone(), b.clone()],
                &[Some(0.0)],
                "x9",
                None,
                6,
                2,
                None,
                5
            ),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn serve_weight_budget_reports_the_paging_verdict() {
        let path = tmp("serve_paged.pbit");
        cmd_gen("yolo-micro", &path, 7).unwrap();
        let total = {
            let model = load_file(&path).unwrap();
            let plan =
                ExecutionPlan::for_model_batched(&model, &phone_by_name("x9").unwrap().gpu, 1)
                    .unwrap();
            plan.weights_bytes
        };
        // A budget one byte short of the weights forces a paged grant, and
        // the verdict line shows the hot-set grant plus modeled stalls.
        let paged = cmd_serve(&path, "x9", Some(2), 8, 2, None, Some(total - 1), 5).unwrap();
        assert!(paged.contains("weight paging: granted"), "{paged}");
        assert!(paged.contains("modeled stall"), "{paged}");
        // A budget covering the weights holds them resident and says so.
        let resident = cmd_serve(&path, "x9", Some(2), 8, 2, None, Some(total), 5).unwrap();
        assert!(
            resident.contains("weights resident (no stalls)"),
            "{resident}"
        );
        // No budget, no paging line at all.
        let plain = cmd_serve(&path, "x9", Some(2), 8, 2, None, None, 5).unwrap();
        assert!(!plain.contains("weight paging"), "{plain}");
        // Identical outputs modulo the verdict: paging off is byte-level
        // inert, and a covering budget never changes the served report.
        assert_eq!(
            plain,
            resident.lines().take(3).collect::<Vec<_>>().join("\n")
        );
        assert!(matches!(
            cmd_serve(&path, "x9", Some(2), 8, 2, None, Some(0), 5),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_multitenant_weight_budget_prints_per_tenant_grants() {
        let a = tmp("mt_paged_a.pbit");
        let b = tmp("mt_paged_b.pbit");
        cmd_gen("yolo-micro", &a, 7).unwrap();
        cmd_gen("alexnet-micro", &b, 9).unwrap();
        let (mut total, mut floors) = (0usize, 0usize);
        for p in [&a, &b] {
            let model = load_file(p).unwrap();
            let plan =
                ExecutionPlan::for_model_batched(&model, &phone_by_name("x9").unwrap().gpu, 1)
                    .unwrap();
            total += plan.weights_bytes;
            floors += plan.paged_floor_bytes();
        }
        // A budget between the summed floors and the summed weights
        // oversubscribes the pair — at least one tenant must stream at
        // its paged floor — yet stays admissible.
        let out = cmd_serve_multitenant(
            &[a.clone(), b.clone()],
            &[None, None],
            "x9",
            Some(2),
            6,
            2,
            Some((floors + total) / 2),
            5,
        )
        .unwrap();
        assert!(out.contains("weight budget"), "{out}");
        assert!(out.contains("MB paged"), "{out}");
        assert!(out.contains("grants:"), "{out}");
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn plan_paging_prints_the_residency_ledger() {
        let out = cmd_plan("alexnet-micro", 1, 1, None, false, true, 7).unwrap();
        assert!(out.contains("weight-paging residency ledger"), "{out}");
        assert!(out.contains("stall(ms)"), "{out}");
        assert!(out.contains("evict"), "{out}");
        assert!(out.contains("hot peak"), "{out}");
        assert!(out.contains("upload lane busy"), "{out}");
        // Without the flag, no ledger.
        let plain = cmd_plan("alexnet-micro", 1, 1, None, false, false, 7).unwrap();
        assert!(!plain.contains("residency ledger"), "{plain}");
    }

    #[test]
    fn serve_openloop_prints_counters_next_to_percentiles() {
        let a = tmp("ol_a.pbit");
        let b = tmp("ol_b.pbit");
        cmd_gen("yolo-micro", &a, 7).unwrap();
        cmd_gen("alexnet-micro", &b, 9).unwrap();
        let run = || {
            cmd_serve_openloop(
                &[a.clone(), b.clone()],
                &[Some(50.0), None],
                &["poisson:400".into(), "burst:200:2000:20:0.25".into()],
                Some("rate=0.2,throttle=10-30@1.5,seed=5"),
                "x9",
                Some(2),
                40.0,
                2,
                5,
            )
            .unwrap()
        };
        let out = run();
        assert!(out.contains("open-loop served 2 tenants"), "{out}");
        assert!(out.contains("fault plan: rate 0.200"), "{out}");
        for col in ["shed", "retry", "thrtl", "p99.9(ms)"] {
            assert!(out.contains(col), "missing column {col}: {out}");
        }
        assert!(out.contains("aggregate goodput"), "{out}");
        // Same seed ⇒ the whole report reproduces bit-for-bit.
        assert_eq!(out, run(), "open-loop serving must be deterministic");
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn fleet_prints_device_and_tenant_tables_and_is_deterministic() {
        let run = || {
            cmd_fleet(
                &[],
                4,
                "p2c",
                1.2,
                300.0,
                200.0,
                2,
                2,
                Some(60.0),
                &["80@1".into()],
                &["120@x9".into()],
                11,
            )
            .unwrap()
        };
        let out = run();
        assert!(out.contains("fleet of 5 device(s)"), "{out}");
        assert!(out.contains("policy p2c"), "{out}");
        assert!(out.contains("dev0"), "{out}");
        assert!(out.contains("dead"), "missing failed device row: {out}");
        for col in ["util", "imgs/s", "moved", "p99.9(ms)", "global p50"] {
            assert!(out.contains(col), "missing column {col}: {out}");
        }
        assert_eq!(out, run(), "fleet report must be deterministic");
    }

    #[test]
    fn fleet_rejects_bad_flags_by_name() {
        let fleet = |policy: &str, fails: &[String], devices: usize, rate: f64, duration: f64| {
            cmd_fleet(
                &[],
                devices,
                policy,
                1.0,
                rate,
                duration,
                2,
                1,
                None,
                fails,
                &[],
                7,
            )
        };
        let base = |policy: &str, fails: &[String], devices: usize, rate: f64| {
            fleet(policy, fails, devices, rate, 100.0)
        };
        let err = base("fastest", &[], 2, 200.0).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("fastest")),
            "{err:?}"
        );
        let err = base("p2c", &["80".into()], 2, 200.0).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("80")),
            "{err:?}"
        );
        let err = base("p2c", &["80@9".into()], 2, 200.0).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("out of range")),
            "{err:?}"
        );
        assert!(matches!(
            base("p2c", &[], 0, 200.0),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(base("p2c", &[], 2, -5.0), Err(CliError::Usage(_))));
        // A second Fail on a dead device is a malformed event list.
        let err = base("p2c", &["10@0".into(), "20@0".into()], 2, 200.0).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("--fail")
                && m.contains("a Fail event naming a live device")
                && m.contains("device 0 at 20 ms")),
            "{err:?}"
        );
        // `NaN <= 0.0` is false, so the guard asks for finiteness; an
        // infinite horizon would draw arrivals up to the generator's cap.
        for duration in [f64::NAN, f64::INFINITY] {
            let err = fleet("p2c", &[], 2, 200.0, duration).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m == "fleet needs a finite --duration > 0 (ms)"),
                "{duration}: {err:?}"
            );
        }
    }

    #[test]
    fn serve_openloop_rejects_bad_specs() {
        let a = tmp("ol_bad.pbit");
        cmd_gen("yolo-micro", &a, 7).unwrap();
        let base = |arrival: &str, fault: Option<&str>, duration: f64| {
            cmd_serve_openloop(
                std::slice::from_ref(&a),
                &[],
                &[arrival.to_string()],
                fault,
                "x9",
                None,
                duration,
                1,
                5,
            )
        };
        assert!(matches!(
            base("poisson:-3", None, 40.0),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            base("sawtooth:5", None, 40.0),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            base("poisson:400", Some("rate=2.5x"), 40.0),
            Err(CliError::Usage(_))
        ));
        for duration in [0.0, f64::NAN, f64::INFINITY] {
            let err = base("poisson:400", None, duration).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m == "serve needs a finite --duration > 0 (ms)"),
                "{duration}: {err:?}"
            );
        }
        std::fs::remove_file(&a).ok();
    }

    #[test]
    fn bench_all_zoo_models() {
        for model in ["alexnet", "yolov2-tiny", "vgg16"] {
            for phone in ["x5", "x9"] {
                let out = cmd_bench(model, phone).unwrap();
                assert!(out.contains("FPS/W"), "{out}");
            }
        }
    }

    #[test]
    fn unknown_names_are_usage_errors() {
        assert!(matches!(arch_by_name("resnet"), Err(CliError::Usage(_))));
        assert!(matches!(phone_by_name("pixel"), Err(CliError::Usage(_))));
        let e = cmd_bench("alexnet", "pixel").unwrap_err();
        assert!(e.to_string().contains("unknown phone"));
    }

    #[test]
    fn info_on_missing_file_is_io_error() {
        let e = cmd_info(Path::new("/nonexistent/x.pbit")).unwrap_err();
        assert!(matches!(e, CliError::Io(_)));
    }

    #[test]
    fn describe_names_all_layer_kinds() {
        let path = tmp("alexmicro.pbit");
        cmd_gen("alexnet-micro", &path, 1).unwrap();
        let model = load_file(&path).unwrap();
        let text = describe(&model);
        assert!(text.contains("binary dense (fused)"));
        assert!(text.contains("softmax"));
        std::fs::remove_file(&path).ok();
    }
}
