//! # phonebit-cli
//!
//! Implementation of the `pbit` command-line tool: generate models from the
//! zoo, inspect `.pbit` files, run inference on a simulated phone, serve
//! models as the tenants of one device runtime, plan deployments, model a
//! fleet and benchmark frames-per-second / energy.
//!
//! [`dispatch`] parses a command line and runs its command; the binary in
//! `src/bin/pbit.rs` prints what it returns. Each `cmd_*` function is one
//! command, testable on its own.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use phonebit_core::format::{load_file, save_file};
use phonebit_core::{
    convert, estimate_arch, max_feasible_batch, max_feasible_batch_multitenant, pooled_peak_bytes,
    zipf_rates, ArrivalProcess, CompressionMode, ConvPath, DeviceRuntime, EngineError,
    ExecutionPlan, Fleet, FleetDeviceSpec, FleetEvent, FleetOptions, FusionMode, OpenLoopOptions,
    PbitLayer, PbitModel, RouteOverrides, RoutePolicy, Session, TenantReport, TenantSpec,
    TenantTraffic, TenantWorkload,
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
fn arch_by_name(name: &str) -> Result<NetworkArch, CliError> {
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
fn phone_by_name(name: &str) -> Result<Phone, CliError> {
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
fn cmd_gen(model: &str, out: &Path, seed: u64) -> Result<String, CliError> {
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
fn cmd_info(path: &Path) -> Result<String, CliError> {
    let model = load_file(path)?;
    Ok(describe(&model))
}

/// Renders a layer table for a model.
fn describe(model: &PbitModel) -> String {
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
fn cmd_run(path: &Path, phone: &str, seed: u64) -> Result<String, CliError> {
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

/// One `pbit serve` invocation: the models it brings up as tenants and the
/// flags of its one pass. An unset `Option` takes [`cmd_serve`]'s default.
#[derive(Debug)]
struct ServeArgs {
    /// Model files, one tenant each, in registration order.
    pub models: Vec<PathBuf>,
    /// Phone name (`x5` | `x9`).
    pub phone: String,
    /// Window size for every tenant, up to its memory cap. Unset, admission
    /// picks it in a closed loop, and an open loop serves single requests.
    pub batch: Option<usize>,
    /// Requests per tenant in a closed loop (default 16).
    pub requests: Option<usize>,
    /// Pooled streams.
    pub streams: usize,
    /// p95 SLO per tenant in milliseconds, by position (`None`: no SLO).
    pub slos: Vec<Option<f64>>,
    /// Pooled resident-weight budget in bytes, in either loop.
    pub weight_budget: Option<usize>,
    /// Arrival process spec per tenant, by position (the last repeats for
    /// the rest); any makes the pass an open loop.
    pub arrivals: Vec<String>,
    /// Seeded fault plan spec (open loop only).
    pub fault: Option<String>,
    /// Arrival horizon in milliseconds (open loop only, default 100).
    pub duration_ms: Option<f64>,
    /// Seed of the arrivals and the synthetic requests.
    pub seed: u64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        Self {
            models: Vec::new(),
            phone: "x9".into(),
            batch: None,
            requests: None,
            streams: 2,
            slos: Vec::new(),
            weight_budget: None,
            arrivals: Vec::new(),
            fault: None,
            duration_ms: None,
            seed: 42,
        }
    }
}

/// A [`CliError::Usage`] carrying `message`.
fn usage<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(message.into()))
}

/// `pbit serve`: one [`DeviceRuntime`] pass over every model in `args`.
///
/// Each model is one [`TenantSpec`], and one
/// [`DeviceRuntime::new_with_budget`] admits and stages them all on
/// `streams` pooled streams. Admission fixes each tenant's window against
/// the pooled memory cap, its SLO and the other tenants' dispatch mix;
/// under a weight budget, a tenant that no longer fits resident is granted
/// a paged hot set and streams its banks through the upload lane.
///
/// Without arrivals the pass is the closed loop [`DeviceRuntime::serve`]
/// over `requests` synthetic requests per tenant. With them it is
/// [`DeviceRuntime::serve_open_loop`] over seeded arrivals across
/// `duration_ms` (`poisson:<rate>`, `burst:<base>:<burst>:<period_ms>:<frac>`,
/// `heavytail:<rate>:<alpha>` or `diurnal:<r1,r2,...>`, rates per second):
/// deadlines anchor to arrival (+SLO), and an optional seeded [`FaultPlan`]
/// (`rate=<p>,throttle=<a>-<b>@<x>,burst=<a>-<b>@<p>,seed=<n>`) is survived
/// by retry with backoff, deadline shedding and batch replans.
///
/// The report is a header, the fault plan (if any), the tenant table, one
/// admission line per tenant (batch, memory cap, modeled cold/steady
/// window, residency) and the aggregate (goodput, wall time, replans,
/// resident bytes, the weight budget if any).
fn cmd_serve(args: &ServeArgs) -> Result<String, CliError> {
    let open = !args.arrivals.is_empty();
    if args.models.is_empty() {
        return usage("serve needs <model.pbit> or --model <model.pbit>");
    }
    if args.batch == Some(0) || args.requests == Some(0) || args.streams == 0 {
        return usage("serve needs --batch >= 1, --requests >= 1 and --streams >= 1");
    }
    if args.slos.iter().flatten().any(|s| *s <= 0.0) {
        return usage("serve needs --slo-ms > 0");
    }
    if args.weight_budget == Some(0) {
        return usage("serve needs --weight-budget > 0");
    }
    if args.duration_ms.is_some_and(|d| !d.is_finite() || d <= 0.0) {
        return usage("serve needs a finite --duration > 0 (ms)");
    }
    // A flag the chosen loop cannot use is named, never dropped.
    let (misplaced, loop_kind) = if open {
        (
            args.requests.map(|_| "--requests"),
            "a closed loop (no --arrival)",
        )
    } else {
        let fault = args.fault.as_ref().map(|_| "--fault");
        (
            fault.or(args.duration_ms.map(|_| "--duration")),
            "an open loop (--arrival)",
        )
    };
    if let Some(flag) = misplaced {
        return usage(format!("{flag} only applies to {loop_kind}"));
    }
    for (flag, given) in [
        ("--slo-ms", args.slos.len()),
        ("--arrival", args.arrivals.len()),
    ] {
        if given > args.models.len() {
            return usage(format!(
                "{given} {flag} values for {} model(s)",
                args.models.len()
            ));
        }
    }
    let procs: Vec<ArrivalProcess> = args
        .arrivals
        .iter()
        .map(|spec| {
            ArrivalProcess::parse(spec)
                .map_err(|e| CliError::Usage(format!("bad --arrival `{spec}`: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let fault = args
        .fault
        .as_deref()
        .map(|spec| {
            FaultPlan::parse(spec)
                .map_err(|e| CliError::Usage(format!("bad --fault `{spec}`: {e}")))
        })
        .transpose()?;
    let phone = phone_by_name(&args.phone)?;
    let duration_ms = args.duration_ms.unwrap_or(100.0);

    // Per tenant: the closed loop's requests, or one per seeded arrival.
    let (mut specs, mut reqs, mut arrivals_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (t, path) in args.models.iter().enumerate() {
        let model = load_file(path)?;
        let count = match procs.get(t).or(procs.last()) {
            Some(process) => {
                arrivals_ms.push(process.times_ms(args.seed.wrapping_add(t as u64), duration_ms));
                arrivals_ms[t].len()
            }
            None => args.requests.unwrap_or(16),
        };
        let first_seed = args.seed.wrapping_add((t * 100_000) as u64);
        reqs.push(Requests::synthetic(&model, count, first_seed));
        let mut spec = TenantSpec::new(model);
        // Open-loop deadlines are anchored to arrival, so a window waits
        // on its own members before it can even start: default to
        // latency-oriented single-request windows instead of letting
        // admission pick its throughput-oriented batch.
        spec.batch = if open {
            Some(args.batch.unwrap_or(1))
        } else {
            args.batch
        };
        spec.slo_ms = args.slos.get(t).copied().flatten();
        specs.push(spec);
    }
    let engine = |e: EngineError| CliError::Engine(e.to_string());
    let mut runtime =
        DeviceRuntime::new_with_budget(specs, &phone, args.streams, args.weight_budget)
            .map_err(engine)?;
    let traffic: Vec<TenantTraffic<'_>> = reqs.iter().map(Requests::traffic).collect();
    let report = if open {
        runtime.clock().set_fault_plan(fault.clone());
        runtime.serve_open_loop(&traffic, &arrivals_ms, &OpenLoopOptions::default())
    } else {
        runtime.serve(&traffic)
    }
    .map_err(engine)?;

    let offered: usize = report.tenants.iter().map(|t| t.offered).sum();
    let served: usize = report.tenants.iter().map(|t| t.served).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}-loop served {} tenant(s) ({offered} offered, {served} served, {} shed) across {} \
         pooled streams on {} ({}){}",
        if open { "open" } else { "closed" },
        report.tenants.len(),
        offered - served,
        report.streams,
        phone.name,
        phone.gpu.name,
        if open {
            format!(" over {duration_ms:.1} ms of arrivals")
        } else {
            String::new()
        }
    );
    if let Some(f) = &fault {
        let _ = writeln!(
            out,
            "fault plan: rate {:.3}, {} throttle epoch(s), seed {}",
            f.failure_rate(),
            f.throttle_epochs().len(),
            f.seed()
        );
    }
    tenant_table(&mut out, &report.tenants);
    for tenant in runtime.tenants() {
        let adm = tenant.admission();
        let (cold_ms, steady_ms) = tenant.modeled_window_ms();
        let residency = match adm.weight_grant_bytes {
            Some(grant) => {
                let pg = tenant.plan().paging.as_ref();
                format!(
                    "paged through a {:.2} MB hot set ({:.3} ms modeled stall/window, {} \
                     evictions)",
                    grant as f64 / 1e6,
                    pg.map_or(0.0, |p| p.stall_s() * 1e3),
                    pg.map_or(0, |p| p.evictions()),
                )
            }
            None => "weights resident".into(),
        };
        let _ = writeln!(
            out,
            "`{}`: admission batch {} (cap {}), modeled window cold {cold_ms:.3} / steady \
             {steady_ms:.3} ms, {residency}",
            tenant.name(),
            adm.batch,
            adm.max_feasible_batch,
        );
    }
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let (streams, slice) = (runtime.stream_count(), runtime.pool_slice_bytes());
    let resident = runtime.resident_bytes();
    let budget = match args.weight_budget {
        Some(b) => format!(
            "; weight budget {:.2} MB for {:.2} MB of weights",
            b as f64 / 1e6,
            runtime.total_weight_bytes() as f64 / 1e6
        ),
        None => String::new(),
    };
    let _ = writeln!(
        out,
        "aggregate goodput {:.1} imgs/s over {:.3} ms wall, {} replan(s); resident {:.2} MiB = \
         {:.2} MiB weights + {streams} x {:.2} MiB pooled slice{budget}",
        report.goodput_imgs_per_s,
        report.wall_ms,
        report.replans,
        mib(resident),
        mib(resident.saturating_sub(streams * slice)),
        mib(slice),
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
fn cmd_fleet(
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
fn cmd_plan(
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
fn cmd_bench(model: &str, phone: &str) -> Result<String, CliError> {
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
const USAGE: &str = "pbit — PhoneBit model tool (simulated mobile GPU)

USAGE:
    pbit gen   <model> <out.pbit> [--seed N]   generate + convert a zoo model
    pbit info  <model.pbit>                    describe a deployed model
    pbit run   <model.pbit> [--phone x9] [--seed N]
                                               run one inference, per-layer report
    pbit serve <model.pbit>... [--model <model.pbit>]... [--phone x9]
               [--streams 2] [--batch N] [--slo-ms T|none]...
               [--weight-budget MB] [--seed N]
               [--requests 16 | --arrival <spec>... [--duration 100]
               [--fault <spec>]]
                                               one device serving every model as a
                                               tenant (the n-th --slo-ms pairs with
                                               the n-th model): admission picks each
                                               batch under the memory cap and SLO,
                                               work-stealing streams share windows.
                                               Closed loop: --requests per tenant.
                                               Open loop, with --arrival: seeded
                                               arrivals (poisson:<rate/s> |
                                               burst:<base>:<burst>:<period_ms>:<frac> |
                                               heavytail:<rate/s>:<alpha> |
                                               diurnal:<r1,r2,...>) over --duration
                                               ms, arrival-anchored deadlines, batch
                                               1 by default, injected faults
                                               (rate=<p>,throttle=<a>-<b>@<x>,
                                               burst=<a>-<b>@<p>,seed=<n>) survived by
                                               retry/backoff + deadline shedding.
                                               --weight-budget caps resident weight
                                               MB: tenants that no longer fit page
                                               their banks through the upload lane.
                                               Prints the tenant table, admission
                                               and residency per tenant, aggregate
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

/// Flags that take no value; every other flag takes the next argument.
const SWITCHES: &[&str] = &["--compress", "--paging"];

/// One command's arguments: its positionals, and each flag with its value
/// (`""` for a switch) in command-line order.
struct Argv<'a> {
    pos: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Argv<'a> {
    /// Splits the arguments of `pbit <cmd>`, which reads the flags listed
    /// in `known` (space-separated) only: any other `--flag` is a usage
    /// error that names it.
    fn parse(cmd: &str, args: &'a [String], known: &str) -> Result<Self, CliError> {
        let mut argv = Argv {
            pos: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                argv.pos.push(arg);
            } else if !known.split(' ').any(|k| k == arg) {
                return usage(format!(
                    "unknown flag `{arg}` for `pbit {cmd}` (see `pbit help`)"
                ));
            } else if SWITCHES.contains(&arg) {
                argv.flags.push((arg, ""));
            } else {
                let Some(value) = args.next() else {
                    return usage(format!("{arg} needs a value"));
                };
                argv.flags.push((arg, value));
            }
        }
        Ok(argv)
    }

    /// Every value `flag` was given, in order (`--model a --model b`).
    fn values(&self, flag: &str) -> Vec<&'a str> {
        self.flags
            .iter()
            .filter(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
            .collect()
    }

    /// The value of `flag`, read as one value, if it was given: a flag
    /// given twice is a usage error that names it, not a silent pick. Only
    /// flags read through [`values`](Self::values) repeat.
    fn value(&self, flag: &str) -> Result<Option<&'a str>, CliError> {
        match self.values(flag)[..] {
            [] => Ok(None),
            [value] => Ok(Some(value)),
            _ => usage(format!("{flag} given twice; it takes one value")),
        }
    }

    /// The value of `flag`, parsed.
    fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.value(flag)?
            .map(|s| {
                s.parse()
                    .map_err(|_| CliError::Usage(format!("bad {flag} `{s}`")))
            })
            .transpose()
    }

    /// The value of `flag` parsed, or `default` when it is not given.
    fn or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, CliError> {
        Ok(self.parsed(flag)?.unwrap_or(default))
    }

    /// Every value of `flag`, owned.
    fn strings(&self, flag: &str) -> Vec<String> {
        self.values(flag).into_iter().map(String::from).collect()
    }
}

/// Runs `pbit <command> [args]` and returns what it prints: `args` is the
/// command line after the program name. Each command reads a fixed list of
/// flags; any other `--flag` is a [`CliError::Usage`] that names it, and so
/// is a flag that takes one value given twice.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => ("help", args),
    };
    // The flags each command reads.
    let known = match cmd {
        "gen" => "--seed",
        "info" => "",
        "run" => "--phone --seed",
        "serve" => {
            "--model --phone --batch --requests --streams --slo-ms --weight-budget --arrival \
             --fault --duration --seed"
        }
        "plan" => "--batch --streams --pair --compress --paging --seed",
        "bench" => "--phone",
        "fleet" => {
            "--model --devices --policy --zipf --rate --duration --streams --replicas --slo-ms \
             --fail --join --seed"
        }
        "help" | "--help" | "-h" => return Ok(USAGE.to_string()),
        other => return usage(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    let a = Argv::parse(cmd, rest, known)?;
    let seed = a.or("--seed", 42)?;
    let phone = a.value("--phone")?.unwrap_or("x9");
    match (cmd, &a.pos[..]) {
        ("gen", [model, out]) => cmd_gen(model, Path::new(out), seed),
        ("gen", _) => usage("gen needs <model> <out.pbit>"),
        ("info", [path]) => cmd_info(Path::new(path)),
        ("info", _) => usage("info needs <model.pbit>"),
        ("run", [path]) => cmd_run(Path::new(path), phone, seed),
        ("run", _) => usage("run needs <model.pbit>"),
        ("bench", [model]) => cmd_bench(model, phone),
        ("bench", _) => usage("bench needs <model>"),
        ("plan", [model]) => cmd_plan(
            model,
            a.or("--batch", 4)?,
            a.or("--streams", 2)?,
            a.value("--pair")?,
            a.value("--compress")?.is_some(),
            a.value("--paging")?.is_some(),
            seed,
        ),
        ("plan", _) => usage("plan needs <model>"),
        ("serve", pos) => {
            // Resident-weight cap in MB on the command line, bytes below.
            let weight_budget = a
                .value("--weight-budget")?
                .map(|s| {
                    s.parse::<f64>()
                        .ok()
                        .filter(|mb| mb.is_finite() && *mb > 0.0)
                        .map(|mb| (mb * 1e6) as usize)
                        .ok_or_else(|| {
                            CliError::Usage(format!("bad --weight-budget `{s}` (MB > 0)"))
                        })
                })
                .transpose()?;
            let slos = a
                .values("--slo-ms")
                .into_iter()
                .map(|s| match s {
                    "none" | "-" => Ok(None),
                    s => s
                        .parse()
                        .map(Some)
                        .map_err(|_| CliError::Usage(format!("bad --slo-ms `{s}`"))),
                })
                .collect::<Result<_, _>>()?;
            let models = pos.iter().copied().chain(a.values("--model"));
            cmd_serve(&ServeArgs {
                models: models.map(PathBuf::from).collect(),
                phone: phone.into(),
                batch: a.parsed("--batch")?,
                requests: a.parsed("--requests")?,
                streams: a.or("--streams", ServeArgs::default().streams)?,
                slos,
                weight_budget,
                arrivals: a.strings("--arrival"),
                fault: a.value("--fault")?.map(String::from),
                duration_ms: a.parsed("--duration")?,
                seed,
            })
        }
        ("fleet", []) => cmd_fleet(
            &a.strings("--model"),
            a.or("--devices", 4)?,
            a.value("--policy")?.unwrap_or("p2c"),
            a.or("--zipf", 1.0)?,
            a.or("--rate", 200.0)?,
            a.or("--duration", 400.0)?,
            a.or("--streams", 2)?,
            a.or("--replicas", 2)?,
            a.parsed("--slo-ms")?,
            &a.strings("--fail"),
            &a.strings("--join"),
            seed,
        ),
        _ => usage("fleet takes no <model.pbit>; name zoo models with --model"),
    }
}

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

    /// `cmd_serve` over `models`, seed 5, with `edit` applied to the
    /// defaults.
    fn serve<P: AsRef<Path>>(
        models: &[P],
        edit: impl FnOnce(&mut ServeArgs),
    ) -> Result<String, CliError> {
        let mut args = ServeArgs {
            models: models.iter().map(|p| p.as_ref().to_path_buf()).collect(),
            seed: 5,
            ..ServeArgs::default()
        };
        edit(&mut args);
        cmd_serve(&args)
    }

    /// `pbit <args>` as the binary runs it.
    fn pbit(args: &[&str]) -> Result<String, CliError> {
        dispatch(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// The whitespace-separated columns of `name`'s tenant-table row.
    fn row<'a>(out: &'a str, name: &str) -> Vec<&'a str> {
        let line = out.lines().find(|l| l.starts_with(name));
        line.expect("tenant row").split_whitespace().collect()
    }

    /// The weight bytes of a model file's batch-1 plan on the Xiaomi 9, and
    /// its paged floor.
    fn weights_and_floor(path: &Path) -> (usize, usize) {
        let model = load_file(path).unwrap();
        let plan = ExecutionPlan::for_model_batched(&model, &Phone::xiaomi_9().gpu, 1).unwrap();
        (plan.weights_bytes, plan.paged_floor_bytes())
    }

    #[test]
    fn serve_round_trip_reports_steady_throughput() {
        let path = tmp("serve_micro.pbit");
        cmd_gen("yolo-micro", &path, 7).unwrap();
        let out = serve(&[&path], |a| {
            a.batch = Some(4);
            a.requests = Some(10);
        })
        .unwrap();
        assert!(
            out.starts_with(
                "closed-loop served 1 tenant(s) (10 offered, 10 served, 0 shed) across 2 pooled \
                 streams on Xiaomi 9"
            ),
            "{out}"
        );
        // Ten requests in windows of four are three windows.
        assert_eq!(
            row(&out, "YOLO-micro")[1..5],
            ["4", "3", "10", "10"],
            "{out}"
        );
        assert!(
            out.contains("`YOLO-micro`: admission batch 4 (cap "),
            "{out}"
        );
        assert!(out.contains("modeled window cold "), "{out}");
        assert!(out.contains(" / steady "), "{out}");
        assert!(out.contains("aggregate goodput "), "{out}");
        assert!(out.contains(" imgs/s over "), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_sharded_reports_admission_and_percentiles() {
        let path = tmp("serve_shard.pbit");
        cmd_gen("yolo-micro", &path, 7).unwrap();
        let out = serve(&[&path], |a| {
            a.batch = Some(2);
            a.requests = Some(10);
        })
        .unwrap();
        assert!(out.contains("admission batch 2"), "{out}");
        assert_eq!(row(&out, "YOLO-micro")[1..3], ["2", "5"], "{out}");
        for col in ["p50(ms)", "p95(ms)", "p99(ms)", "p99.9(ms)"] {
            assert!(out.contains(col), "missing column {col}: {out}");
        }
        // Without --batch admission picks the window, and an SLO gets its
        // verdict, on one stream as on several.
        let slo = serve(&[&path], |a| {
            a.requests = Some(8);
            a.streams = 1;
            a.slos = vec![Some(1000.0)];
        })
        .unwrap();
        assert!(slo.contains("across 1 pooled streams"), "{slo}");
        assert!(slo.contains("1000.0ms MET"), "{slo}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_rejects_degenerate_windows() {
        let path = tmp("serve_bad.pbit");
        cmd_gen("yolo-micro", &path, 7).unwrap();
        type Edit = fn(&mut ServeArgs);
        let bad: [(Edit, &str); 11] = [
            (|a| a.batch = Some(0), "--batch >= 1"),
            (|a| a.requests = Some(0), "--requests >= 1"),
            (|a| a.streams = 0, "--streams >= 1"),
            (|a| a.slos = vec![Some(0.0)], "--slo-ms > 0"),
            (|a| a.weight_budget = Some(0), "--weight-budget > 0"),
            (|a| a.models.clear(), "needs <model.pbit>"),
            (
                |a| a.slos = vec![None, None],
                "2 --slo-ms values for 1 model(s)",
            ),
            (
                |a| a.arrivals = vec!["poisson:9".into(); 2],
                "2 --arrival values for 1 model(s)",
            ),
            (
                |a| {
                    a.arrivals = vec!["poisson:400".into()];
                    a.requests = Some(4);
                },
                "--requests only applies to a closed loop",
            ),
            (
                |a| a.fault = Some("rate=0.1".into()),
                "--fault only applies to an open loop",
            ),
            (
                |a| a.duration_ms = Some(50.0),
                "--duration only applies to an open loop",
            ),
        ];
        for (edit, want) in bad {
            match serve(&[&path], edit) {
                Err(CliError::Usage(m)) => assert!(m.contains(want), "{want}: {m}"),
                other => panic!("{want}: {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_flags_are_usage_errors_that_name_them() {
        for (args, flag) in [
            (&["serve", "m.pbit", "--stream", "4"][..], "--stream"),
            (&["plan", "alexnet", "--compres"][..], "--compres"),
            (&["bench", "alexnet", "--seed", "3"][..], "--seed"),
        ] {
            let err = pbit(args).unwrap_err();
            let named = format!("unknown flag `{flag}`");
            assert!(
                matches!(&err, CliError::Usage(m) if m.contains(&named)),
                "{args:?}: {err}"
            );
        }
        for cmd in ["gen", "info", "run", "serve", "plan", "bench", "fleet"] {
            let err = pbit(&[cmd, "--bogus", "1"]).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m.contains("`--bogus`")),
                "{cmd}: {err}"
            );
        }
        // Spelled right, the switch takes effect.
        let ledger = pbit(&["plan", "alexnet-micro", "--batch", "1", "--compress"]).unwrap();
        assert!(ledger.contains("dictionary ledger"), "{ledger}");
    }

    #[test]
    fn scalar_flags_given_twice_are_usage_errors_that_name_them() {
        for (args, flag) in [
            (
                &["plan", "alexnet", "--batch", "2", "--batch", "4"][..],
                "--batch",
            ),
            (
                &["serve", "m.pbit", "--requests", "4", "--requests", "8"][..],
                "--requests",
            ),
            (
                &["fleet", "--duration", "50", "--duration", "60"][..],
                "--duration",
            ),
            // Repeatable for `serve` (one SLO per tenant), one value here.
            (
                &["fleet", "--slo-ms", "60", "--slo-ms", "20"][..],
                "--slo-ms",
            ),
        ] {
            let err = pbit(args).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m.contains(&format!("{flag} given twice"))),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn serve_argv_takes_positional_and_model_flags_as_tenants() {
        let (a, b) = (tmp("argv_a.pbit"), tmp("argv_b.pbit"));
        cmd_gen("yolo-micro", &a, 7).unwrap();
        cmd_gen("alexnet-micro", &b, 9).unwrap();
        let (pa, pb) = (a.to_str().unwrap(), b.to_str().unwrap());
        let args = [
            "serve",
            pa,
            "--model",
            pb,
            "--requests",
            "4",
            "--slo-ms",
            "none",
            "--slo-ms",
            "1000",
        ];
        let out = pbit(&args).unwrap();
        assert!(
            out.starts_with("closed-loop served 2 tenant(s) (8 offered, 8 served"),
            "{out}"
        );
        // `none` leaves the positional model without an SLO.
        assert_eq!(row(&out, "YOLO-micro").last(), Some(&"-"), "{out}");
        assert!(
            row(&out, "AlexNet-micro").ends_with(&["1000.0ms", "MET"]),
            "{out}"
        );
        for bad in ["0", "abc", "-1", "inf"] {
            let err = pbit(&["serve", pa, "--weight-budget", bad]).unwrap_err();
            let named = format!("bad --weight-budget `{bad}`");
            assert!(
                matches!(&err, CliError::Usage(m) if m.contains(&named)),
                "{bad}: {err}"
            );
        }
        // An open loop honours --weight-budget: one byte under the weights
        // pages the tenant.
        let budget_mb = format!("{}", (weights_and_floor(&a).0 - 1) as f64 / 1e6);
        let args = [
            "serve",
            "--model",
            pa,
            "--arrival",
            "poisson:400",
            "--weight-budget",
            &budget_mb,
        ];
        let out = pbit(&args).unwrap();
        assert!(out.starts_with("open-loop served 1 tenant(s)"), "{out}");
        assert!(out.contains("paged through a "), "{out}");
        assert!(out.contains("; weight budget "), "{out}");
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
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
        let out = serve(&[&a, &b], |s| {
            s.batch = Some(2);
            s.requests = Some(6);
            s.slos = vec![None, Some(1000.0)];
        })
        .unwrap();
        assert!(
            out.starts_with("closed-loop served 2 tenant(s) (12 offered, 12 served, 0 shed)"),
            "{out}"
        );
        assert_eq!(row(&out, "YOLO-micro")[1..3], ["2", "3"], "{out}");
        assert_eq!(row(&out, "AlexNet-micro")[1..3], ["2", "3"], "{out}");
        assert!(out.contains("1000.0ms MET"), "{out}");
        assert_eq!(out.matches(": admission batch 2 (cap ").count(), 2, "{out}");
        assert!(out.contains("pooled slice"), "{out}");
        // The residency line multiplies the slice by the streams that hold
        // one — `--streams` — even when a stream carried no traffic: one
        // request per tenant leaves two of four streams idle, and the same
        // bytes stay resident as with every stream busy.
        let serve4 = |requests| {
            serve(&[&a, &b], |s| {
                s.batch = Some(1);
                s.requests = Some(requests);
                s.streams = 4;
            })
            .unwrap()
        };
        let resident = |out: &str| out[out.find("; resident").expect("residency")..].to_string();
        let (one, sixteen) = (serve4(1), serve4(16));
        assert!(resident(&one).contains(" weights + 4 x "), "{one}");
        assert_eq!(resident(&one), resident(&sixteen));
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn serve_weight_budget_reports_the_paging_verdict() {
        let path = tmp("serve_paged.pbit");
        cmd_gen("yolo-micro", &path, 7).unwrap();
        let total = weights_and_floor(&path).0;
        let run = |budget| {
            serve(&[&path], |a| {
                a.batch = Some(2);
                a.requests = Some(8);
                a.weight_budget = budget;
            })
            .unwrap()
        };
        // A budget one byte short of the weights forces a paged grant:
        // the hot set, its modeled stall and its evictions.
        let paged = run(Some(total - 1));
        assert!(paged.contains("paged through a "), "{paged}");
        assert!(paged.contains(" ms modeled stall/window, "), "{paged}");
        assert!(paged.contains(" evictions)"), "{paged}");
        // A budget covering the weights holds them resident.
        let resident = run(Some(total));
        assert!(resident.contains("ms, weights resident"), "{resident}");
        // Without a budget the report is the covering one minus its
        // budget text: paging off is byte-level inert.
        let plain = run(None);
        let budget = format!(
            "; weight budget {0:.2} MB for {0:.2} MB of weights",
            total as f64 / 1e6
        );
        assert!(resident.contains(&budget), "{resident}");
        assert!(!plain.contains("weight budget"), "{plain}");
        assert_eq!(plain, resident.replace(&budget, ""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serve_multitenant_weight_budget_prints_per_tenant_grants() {
        let a = tmp("mt_paged_a.pbit");
        let b = tmp("mt_paged_b.pbit");
        cmd_gen("yolo-micro", &a, 7).unwrap();
        cmd_gen("alexnet-micro", &b, 9).unwrap();
        let ((wa, fa), (wb, fb)) = (weights_and_floor(&a), weights_and_floor(&b));
        // A budget between the summed floors and the summed weights
        // oversubscribes the pair — at least one tenant must stream at
        // its paged floor — yet stays admissible.
        let out = serve(&[&a, &b], |s| {
            s.batch = Some(2);
            s.requests = Some(6);
            s.weight_budget = Some((fa + fb + wa + wb) / 2);
        })
        .unwrap();
        assert!(out.contains("; weight budget "), "{out}");
        // One grant per tenant, at least one of them paged.
        let grants: Vec<&str> = out
            .lines()
            .filter(|l| l.contains(": admission batch"))
            .collect();
        assert_eq!(grants.len(), 2, "{out}");
        assert!(
            grants
                .iter()
                .all(|l| l.ends_with("weights resident") || l.contains("paged through")),
            "{out}"
        );
        assert!(grants.iter().any(|l| l.contains("paged through")), "{out}");
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
            serve(&[&a, &b], |s| {
                s.slos = vec![Some(50.0), None];
                s.arrivals = vec!["poisson:400".into(), "burst:200:2000:20:0.25".into()];
                s.fault = Some("rate=0.2,throttle=10-30@1.5,seed=5".into());
                s.batch = Some(2);
                s.duration_ms = Some(40.0);
            })
            .unwrap()
        };
        let out = run();
        assert!(out.starts_with("open-loop served 2 tenant(s)"), "{out}");
        assert!(out.contains("over 40.0 ms of arrivals"), "{out}");
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
            serve(&[&a], |s| {
                s.arrivals = vec![arrival.into()];
                s.fault = fault.map(String::from);
                s.duration_ms = Some(duration);
            })
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
