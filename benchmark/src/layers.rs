//! The traced run's per-layer phase: each workload measures the layers it
//! reaches by calling their public entry points from here, and reports 0
//! for the ones it does not (a layer a workload never enters takes none of
//! its time). Timings are medians of `reps` repeats.

use std::sync::Arc;

use phonebit::core::serve::{DeviceRuntime, OpenLoopOptions, RetryPolicy};
use phonebit::core::{
    estimate_serve_open_loop, ActivationData, ConvPath, ExecutionPlan, PbitLayer, PbitModel,
    RunReport, Session, StagedModel, StepOp, Stream,
};
use phonebit::gpusim::exec::par_chunks_mut;
use phonebit::gpusim::{CommandQueue, DeviceProfile, ExecutorClass, KernelProfile, NdRange, Phone};
use phonebit::nn::graph::{LayerWeights, NetworkDef};
use phonebit::nn::kernels::{self, bconv, bgemm, bitplane, fconv, pool};
use phonebit::tensor::bitplane::BitPlanes;
use phonebit::tensor::bits::{BitTensor, PackedFilters};
use phonebit::tensor::dict::FilterDict;
use phonebit::tensor::pack::{pack_f32_into, pack_filters};
use phonebit::tensor::shape::{Layout, Shape4};
use phonebit::tensor::tensor::Tensor;

use crate::env::Pin;
use crate::stats::{median, spearman};
use crate::trace::Tracer;
use crate::workloads::{
    check, deploy, FleetExec, FleetExecInputs, FleetSim, FleetSimInputs, VggBody, VggInputs,
    YoloFull, YoloInputs,
};

pub type Metrics = Vec<(String, f64)>;

/// Median reference milliseconds of `reps` calls of `f`.
fn time_ms<T>(tracer: &mut Tracer, reps: usize, mut f: impl FnMut(&mut Tracer) -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| tracer.timed(|t| std::hint::black_box(f(t))).1.ref_wall_s() * 1e3)
        .collect();
    median(&samples)
}

// ---------------------------------------------------------------------------
// Plan replay: the engine's steps, one public kernel entry point at a time.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Act<'a> {
    Bytes(&'a Tensor<u8>),
    Bits(&'a BitTensor<u64>),
    Floats(&'a Tensor<f32>),
}

/// One step's output and scratch, sized by the first replay and reused.
struct StepBufs {
    bits: BitTensor<u64>,
    floats: Tensor<f32>,
    cvt_bits: BitTensor<u64>,
    cvt_floats: Tensor<f32>,
    planes: BitPlanes<u64>,
    windows: BitTensor<u64>,
    accum: Tensor<i32>,
    out_is_bits: bool,
}

impl StepBufs {
    fn new() -> Self {
        let none = Shape4::new(0, 0, 0, 0);
        Self {
            bits: BitTensor::zeros(none),
            floats: Tensor::zeros(none, Layout::Nhwc),
            cvt_bits: BitTensor::zeros(none),
            cvt_floats: Tensor::zeros(none, Layout::Nhwc),
            planes: BitPlanes::empty(none),
            windows: BitTensor::zeros(none),
            accum: Tensor::zeros(none, Layout::Nhwc),
            out_is_bits: true,
        }
    }

    fn out(&self) -> Act<'_> {
        if self.out_is_bits {
            Act::Bits(&self.bits)
        } else {
            Act::Floats(&self.floats)
        }
    }
}

/// Mirrors `core::engine`'s step execution for the default (unfused,
/// uncompressed, resident) plans of the two full-scale models.
struct Replay<'a> {
    model: &'a PbitModel,
    plan: &'a ExecutionPlan,
    /// Pre-flattened GEMM banks, as staging builds them.
    flat: Vec<Option<PackedFilters<u64>>>,
    bufs: Vec<StepBufs>,
    queue: CommandQueue,
}

impl<'a> Replay<'a> {
    /// `Err(step)` names the first step this mirror cannot run.
    fn new(
        model: &'a PbitModel,
        plan: &'a ExecutionPlan,
        gpu: &DeviceProfile,
    ) -> Result<Self, String> {
        let mut flat = Vec::new();
        for (i, step) in plan.steps.iter().enumerate() {
            let chained = i == 0 || step.input == plan.steps[i - 1].output;
            let plain = matches!(
                step.op,
                StepOp::BConvInput8 { .. }
                    | StepOp::BConv { .. }
                    | StepOp::FConv { .. }
                    | StepOp::MaxPoolBits { .. }
            );
            let compressed = plan
                .compress_decision(step.index)
                .is_some_and(|d| d.compressed);
            if !chained || !plain || compressed || plan.paging.as_ref().is_some_and(|p| !p.resident)
            {
                return Err(step.name.to_string());
            }
            flat.push(
                match (&model.layers[step.index], step.route.map(|r| r.path)) {
                    (PbitLayer::BConv { filters, .. }, Some(ConvPath::LoweredGemm)) => {
                        Some(bgemm::flatten_filters(filters))
                    }
                    _ => None,
                },
            );
        }
        Ok(Self {
            model,
            plan,
            flat,
            bufs: plan.steps.iter().map(|_| StepBufs::new()).collect(),
            queue: CommandQueue::new(gpu.clone(), ExecutorClass::PhoneBitOpenCl),
        })
    }

    /// Runs every step once on `input`; returns each step's reference ms.
    fn run(&mut self, input: Act<'_>, tracer: &mut Tracer) -> Vec<f64> {
        let mut ms = Vec::with_capacity(self.plan.steps.len());
        self.queue.reset();
        for idx in 0..self.plan.steps.len() {
            let (done, rest) = self.bufs.split_at_mut(idx);
            let src = done.last().map_or(input, StepBufs::out);
            let (step, b, q) = (&self.plan.steps[idx], &mut rest[0], &mut self.queue);
            let flat = self.flat[idx].as_ref();
            let layer = &self.model.layers[step.index];
            let route = step.route.map(|r| r.path);
            let (_, time) = tracer.timed(|t| {
                t.span(&step.name, None, |_| exec(layer, route, flat, src, b, q));
            });
            ms.push(time.ref_wall_s() * 1e3);
        }
        ms
    }

    fn output(&self) -> Act<'_> {
        self.bufs.last().expect("plans have steps").out()
    }
}

fn exec(
    layer: &PbitLayer,
    route: Option<ConvPath>,
    flat: Option<&PackedFilters<u64>>,
    src: Act<'_>,
    b: &mut StepBufs,
    q: &mut CommandQueue,
) {
    match (layer, src) {
        (
            PbitLayer::BConvInput8 {
                geom,
                filters,
                fused,
                ..
            },
            Act::Bytes(image),
        ) => {
            bitplane::bitplane_split_into(q, image, &mut b.planes);
            bitplane::bitplane_conv_fused_into(q, &b.planes, filters, fused, geom, &mut b.bits);
            b.out_is_bits = true;
        }
        (
            PbitLayer::BConv {
                geom,
                filters,
                fused,
                ..
            },
            src,
        ) => {
            let bits_in = match src {
                Act::Floats(f) => {
                    kernels::pack_input_into(q, f, &mut b.cvt_bits);
                    &b.cvt_bits
                }
                Act::Bits(bits) => bits,
                Act::Bytes(_) => unreachable!("binary conv over raw bytes"),
            };
            match route.expect("binary conv steps carry a route") {
                ConvPath::LoweredGemm => bgemm::bconv_lowered_with_into(
                    q,
                    bits_in,
                    filters,
                    flat.expect("GEMM route has a flat bank"),
                    fused,
                    geom,
                    (!geom.is_pointwise()).then_some(&mut b.windows),
                    &mut b.bits,
                ),
                ConvPath::DirectFused => {
                    bconv::bconv_fused_into(q, bits_in, filters, fused, geom, &mut b.bits)
                }
                ConvPath::DirectUnfused => {
                    bconv::bconv_accum_into(q, bits_in, filters, geom, &mut b.accum);
                    bconv::binarize_pack_into(q, &b.accum, fused, &mut b.bits);
                }
            }
            b.out_is_bits = true;
        }
        (
            PbitLayer::FConv {
                geom,
                filters,
                bias,
                activation,
                ..
            },
            src,
        ) => {
            let floats_in = match src {
                Act::Bits(bits) => {
                    kernels::unpack_bits_into(q, bits, &mut b.cvt_floats);
                    &b.cvt_floats
                }
                Act::Floats(f) => f,
                Act::Bytes(_) => unreachable!("float conv over raw bytes"),
            };
            fconv::fconv_into(
                q,
                floats_in,
                filters,
                bias,
                *activation,
                geom,
                &mut b.floats,
            );
            b.out_is_bits = false;
        }
        (PbitLayer::MaxPoolBits { geom, .. }, Act::Bits(bits)) => {
            pool::maxpool_bits_into(q, bits, geom, &mut b.bits);
            b.out_is_bits = true;
        }
        (other, _) => unreachable!("{}: not a replayable step", other.name()),
    }
}

/// The network input of one engine call, as the replay and the engine take it.
#[derive(Clone, Copy)]
pub enum NetInput<'a> {
    Image(&'a Tensor<u8>),
    Window(&'a [Tensor<f32>]),
}

impl NetInput<'_> {
    fn run(&self, session: &mut Session) -> RunReport {
        match self {
            NetInput::Image(img) => session.run_u8(img),
            NetInput::Window(w) => session.run_batch_f32(w),
        }
        .expect("the measured phase already ran this input")
    }
}

fn same_output(engine: Option<&ActivationData>, replay: Act<'_>) -> bool {
    match (engine, replay) {
        (Some(ActivationData::Bits(e)), Act::Bits(r)) => {
            e.shape() == r.shape() && e.as_words() == r.as_words()
        }
        (Some(ActivationData::Floats(e)), Act::Floats(r)) => {
            e.shape() == r.shape() && e.as_slice() == r.as_slice()
        }
        _ => false,
    }
}

/// Everything one full-scale model's traced run reports: set-up stages
/// (the cold starts' spans topped up to `reps` samples), plan counts, engine
/// stage and run times, the per-step replay, and host-vs-modeled agreement.
/// Also returns the checkpoint and whether the replay reproduced the
/// engine's output.
fn engine_model(
    tag: &str,
    mut checkpoint: impl FnMut(&mut Tracer) -> NetworkDef,
    input: NetInput<'_>,
    session: &mut Session,
    run_span: &str,
    reps: usize,
    tracer: &mut Tracer,
) -> (Metrics, NetworkDef, bool) {
    let phone = Phone::xiaomi_9();
    let batch = session.plan().batch;
    let sfx = |name: &str| format!("{name}.{tag}");
    let mut m = Metrics::new();

    let have = tracer.durations_ms("core.convert.convert").len();
    let mut last = None;
    for _ in have..reps.max(have + 1) {
        let def = checkpoint(tracer);
        let (_, pbit_bytes) = deploy(&def, tracer);
        last = Some((def, pbit_bytes));
    }
    let (def, pbit_bytes) = last.expect("at least one deployment ran");
    let model = session.model().clone();
    for (metric, span) in [
        ("models.fill_weights_ms", "models.fill_weights"),
        ("core.convert.convert_ms", "core.convert.convert"),
        ("core.format.write_ms", "core.format.write"),
        ("core.format.read_ms", "core.format.read"),
        ("core.engine.first_run_ms", "core.engine.first_run"),
    ] {
        m.push((sfx(metric), median(&tracer.durations_ms(span))));
    }
    m.push((sfx("core.format.pbit_bytes"), pbit_bytes as f64));

    let lower = |_: &mut Tracer| {
        ExecutionPlan::for_model_batched(&model, &phone.gpu, batch).expect("the model lowers")
    };
    m.push((sfx("core.plan.lower_ms"), time_ms(tracer, reps, lower)));
    let plan = session.plan();
    let fused = plan.chains.iter().filter(|c| c.fused).count();
    let compressed = plan.compression.iter().filter(|d| d.compressed).count();
    m.extend([
        (sfx("core.plan.dispatches"), plan.dispatches() as f64),
        (sfx("core.plan.fused_chains"), fused as f64),
        (sfx("core.plan.compressed_layers"), compressed as f64),
        (
            sfx("core.plan.arena_bytes"),
            plan.staged_arena_bytes() as f64,
        ),
        (sfx("core.plan.weights_bytes"), plan.weights_bytes as f64),
    ]);

    // Staging consumes the model, so each repeat stages its own clone, made
    // outside the clock.
    let mut stage_ms = Vec::new();
    let mut staged = None;
    for _ in 0..reps {
        let copy = model.clone();
        let (made, time) = tracer.timed(|_| StagedModel::stage(copy, &phone, batch));
        staged = Some(made.expect("the model stages"));
        stage_ms.push(time.ref_wall_s() * 1e3);
    }
    let staged: Arc<StagedModel> = staged.expect("reps >= 1");
    let stream_new = |_: &mut Tracer| Stream::new(Arc::clone(&staged)).expect("a stream fits");
    let steady_ms = median(&tracer.durations_ms(run_span));
    m.extend([
        (sfx("core.engine.stage_ms"), median(&stage_ms)),
        (
            sfx("core.engine.stream_new_ms"),
            time_ms(tracer, reps, stream_new),
        ),
        (sfx("core.engine.steady_run_ms"), steady_ms),
    ]);

    // One engine run for the modeled per-layer times, the dispatch counters
    // and the output the replay must reproduce.
    let report = input.run(session);
    let (ops, dram) = session.timeline().iter().fold((0.0, 0.0), |(o, d), ev| {
        (o + ev.stats.executed_ops, d + ev.stats.dram_bytes)
    });
    m.extend([
        (format!("nn.{tag}.executed_gops"), ops / 1e9),
        (format!("nn.{tag}.dram_mb"), dram / 1e6),
        (
            format!("nn.{tag}.host_gops_per_s"),
            ops / 1e9 / (steady_ms / 1e3),
        ),
        (sfx("gpusim.cost.model_gap"), steady_ms / report.total_ms()),
    ]);

    let window;
    let replay_input = match input {
        NetInput::Image(img) => Act::Bytes(img),
        NetInput::Window(images) => {
            let s = images[0].shape();
            let data = images.iter().flat_map(|t| t.as_slice()).copied().collect();
            let shape = Shape4::new(images.len(), s.h, s.w, s.c);
            window = Tensor::from_vec(shape, Layout::Nhwc, data);
            Act::Floats(&window)
        }
    };
    let faithful = match Replay::new(&model, session.plan(), &phone.gpu) {
        Err(step) => {
            // A stale mirror is the benchmark's problem, not a wrong output:
            // it is reported (coverage reads 0) and fails nothing.
            println!("replay: step `{step}` has no mirror in the benchmark; nn.{tag}.*.ms read 0");
            true
        }
        Ok(mut replay) => {
            let mut per_step = vec![Vec::new(); session.plan().steps.len()];
            for _ in 0..reps {
                let ms = tracer.span("nn.replay", None, |t| replay.run(replay_input, t));
                for (all, one) in per_step.iter_mut().zip(ms) {
                    all.push(one);
                }
            }
            let medians: Vec<f64> = per_step.iter().map(|s| median(s)).collect();
            for (step, ms) in session.plan().steps.iter().zip(&medians) {
                m.push((format!("nn.{tag}.{}.ms", step.name), *ms));
            }
            let kernels_ms: f64 = medians.iter().sum();
            let modeled: Vec<f64> = report.per_layer.iter().map(|l| l.time_s).collect();
            m.extend([
                (sfx("core.engine.self_ms"), steady_ms - kernels_ms),
                (sfx("core.engine.kernel_coverage"), kernels_ms / steady_ms),
                (
                    sfx("gpusim.cost.rank_agreement"),
                    spearman(&modeled, &medians),
                ),
            ]);
            same_output(report.output.as_ref(), replay.output())
        }
    };
    (m, def, faithful)
}

pub fn yolo_full(
    inputs: &YoloInputs,
    w: &mut YoloFull,
    pin: &Pin,
    reps: usize,
    tracer: &mut Tracer,
) -> (Metrics, usize) {
    let image = &inputs.images[0];
    let (mut m, def, faithful) = engine_model(
        "yolo_full",
        |t| YoloFull::checkpoint(inputs, t),
        NetInput::Image(image),
        &mut w.session,
        "core.engine.run_u8",
        reps,
        tracer,
    );

    let px = (image.shape().h * image.shape().w) as f64;
    let mut planes = BitPlanes::<u64>::empty(image.shape());
    m.push((
        "tensor.bitplane_split.ns_per_px".into(),
        time_ms(tracer, reps, |_| planes.split_from(image)) * 1e6 / px,
    ));
    let conv8 = def
        .arch
        .layers
        .iter()
        .position(|l| l.name() == "conv8")
        .expect("YOLOv2-Tiny has a conv8");
    let LayerWeights::Conv(conv8) = &def.weights[conv8] else {
        unreachable!("conv8 is a convolution");
    };
    m.push((
        "tensor.pack_filters_ms".into(),
        time_ms(tracer, reps, |_| pack_filters::<u64>(&conv8.filters)),
    ));

    // The one place host multi-threading shows: a trivial-body dispatch and
    // a whole request with the affinity widened back to every CPU.
    pin.widen();
    let mut cells = vec![0u64; 4096];
    let dispatch_ms = time_ms(tracer, reps, |_| {
        for _ in 0..100 {
            par_chunks_mut(&mut cells, 64, |i, c| c[0] = i as u64);
        }
    });
    m.push(("gpusim.exec.dispatch_us".into(), dispatch_ms * 1e3 / 100.0));
    let wide_ms = time_ms(tracer, reps.min(3), |_| w.session.run_u8(image).is_ok());
    pin.narrow();
    let pinned_ms = median(&tracer.durations_ms("core.engine.run_u8"));
    m.push((
        "gpusim.exec.par_speedup.yolo_full".into(),
        pinned_ms / wide_ms,
    ));
    (m, usize::from(!faithful))
}

pub fn vgg_body(
    inputs: &VggInputs,
    w: &mut VggBody,
    reps: usize,
    tracer: &mut Tracer,
) -> (Metrics, usize) {
    let window = &inputs.windows[0];
    let (mut m, def, faithful) = engine_model(
        "vgg_body",
        |t| VggBody::checkpoint(inputs, t),
        NetInput::Window(window),
        &mut w.session,
        "core.engine.run_batch_f32",
        reps,
        tracer,
    );

    let image = &window[0];
    let px = (image.shape().h * image.shape().w) as f64;
    let mut bits = BitTensor::<u64>::zeros(image.shape());
    m.push((
        "tensor.pack_f32.ns_per_px".into(),
        time_ms(tracer, reps, |_| pack_f32_into(image, &mut bits)) * 1e6 / px,
    ));
    let LayerWeights::Conv(conv5_3) = &def.weights[def.weights.len() - 2] else {
        unreachable!("the layer before pool5 is conv5_3");
    };
    let bank = pack_filters::<u64>(&conv5_3.filters);
    m.push((
        "tensor.dict.build_ms".into(),
        time_ms(tracer, reps, |_| FilterDict::build(&bank)),
    ));
    let dict = FilterDict::build(&bank);
    m.push((
        "tensor.dict.ratio".into(),
        dict.compressed_bytes() as f64 / dict.raw_bytes() as f64,
    ));
    (m, usize::from(!faithful))
}

/// Microseconds per empty-body `CommandQueue::launch`.
fn launch_us(tracer: &mut Tracer, reps: usize) -> f64 {
    const LAUNCHES: usize = 2000;
    let mut q = CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl);
    time_ms(tracer, reps, |_| {
        q.reset();
        for _ in 0..LAUNCHES {
            q.launch(KernelProfile::new("empty", NdRange::linear(64)), || {});
        }
    }) * 1e3
        / LAUNCHES as f64
}

fn util_spread(utilizations: impl Iterator<Item = f64>) -> f64 {
    let (lo, hi) = utilizations.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), u| {
        (lo.min(u), hi.max(u))
    });
    hi - lo
}

pub fn fleet_exec(
    inputs: &FleetExecInputs,
    w: &FleetExec,
    fleet_ms_per_req: f64,
    reps: usize,
    tracer: &mut Tracer,
) -> (Metrics, usize) {
    let mut m = vec![(
        "gpusim.queue.launch_us".to_string(),
        launch_us(tracer, reps),
    )];
    let phone = Phone::xiaomi_9();
    let tenants = inputs.tenants(tracer);
    let offered: usize = inputs.requests.iter().map(Vec::len).sum();

    // The same requests, one at a time, on a solo session per tenant.
    let mut sessions: Vec<Session> = tenants
        .iter()
        .map(|t| Session::new(t.model.clone(), &phone).expect("a micro model fits"))
        .collect();
    let solo_ms = time_ms(tracer, reps, |_| {
        for (session, requests) in sessions.iter_mut().zip(&inputs.requests) {
            for image in requests {
                std::hint::black_box(session.run_u8(image).is_ok());
            }
        }
    }) / offered as f64;

    // The same requests through one device's multi-tenant runtime.
    let mut runtime = DeviceRuntime::new(tenants, &phone, 2).expect("three micro tenants fit");
    let traffic = inputs.traffic();
    let mut pass = |t: &mut Tracer| {
        t.span("core.serve.serve_open_loop", None, |_| {
            runtime
                .serve_open_loop(&traffic, &inputs.arrivals_ms, &OpenLoopOptions::default())
                .expect("the runtime serves what the fleet serves")
        })
    };
    let runtime_ms = time_ms(tracer, reps, &mut pass) / offered as f64;
    let report = pass(tracer);
    let wrong: usize = report
        .tenants
        .iter()
        .enumerate()
        .flat_map(|(t, tenant)| {
            let outputs = tenant.outputs.iter().enumerate();
            outputs.map(move |(r, out)| check(inputs.expected_for(t, r), out.as_ref()))
        })
        .sum();
    let windows: usize = report.tenants.iter().map(|t| t.windows).sum();
    m.extend([
        (
            "core.serve.exec_overhead_ms_per_req".to_string(),
            runtime_ms - solo_ms,
        ),
        ("core.serve.windows".to_string(), windows as f64),
        (
            "core.serve.mean_batch".to_string(),
            offered as f64 / windows as f64,
        ),
        (
            "core.serve.shed".to_string(),
            report.tenants.iter().map(|t| t.shed).sum::<usize>() as f64,
        ),
        (
            "core.serve.retries".to_string(),
            report.tenants.iter().map(|t| t.retries).sum::<usize>() as f64,
        ),
        (
            "core.fleet.exec_overhead_ms_per_req".to_string(),
            fleet_ms_per_req - runtime_ms,
        ),
    ]);
    if let Some(r) = &w.last {
        m.push(("core.fleet.migrated".into(), r.migrated as f64));
        m.push((
            "core.fleet.util_spread".into(),
            util_spread(r.devices.iter().map(|d| d.utilization)),
        ));
    }
    (m, wrong)
}

pub fn fleet_sim(
    inputs: &FleetSimInputs,
    w: &FleetSim,
    fleet_ms_per_req: f64,
    reps: usize,
    tracer: &mut Tracer,
) -> (Metrics, usize) {
    let mut m = vec![
        (
            "gpusim.queue.launch_us".to_string(),
            launch_us(tracer, reps),
        ),
        (
            "core.fleet.sim_us_per_req".to_string(),
            fleet_ms_per_req * 1e3,
        ),
    ];
    // One Xiaomi 9 carrying the same four tenants at a quarter of the rate.
    let mut workloads = inputs.workloads();
    for wl in &mut workloads {
        let rate = wl.arrival.mean_rate_per_s() / FleetSim::DEVICES as f64;
        wl.arrival = phonebit::core::ArrivalProcess::poisson(rate);
    }
    let phone = Phone::xiaomi_9();
    let pass = |t: &mut Tracer| {
        t.span("core.serve.estimate_serve_open_loop", None, |_| {
            estimate_serve_open_loop(
                &phone,
                &workloads,
                2,
                FleetSim::HORIZON_MS,
                None,
                &RetryPolicy::default(),
            )
        })
    };
    let pass_ms = time_ms(tracer, reps, pass);
    let est = pass(tracer);
    let offered: usize = est.tenants.iter().map(|t| t.offered).sum();
    let served: usize = est.tenants.iter().map(|t| t.served).sum();
    let windows: usize = est.tenants.iter().map(|t| t.windows).sum();
    m.extend([
        (
            "core.serve.sim_us_per_req".to_string(),
            pass_ms * 1e3 / offered as f64,
        ),
        ("core.serve.windows".to_string(), windows as f64),
        (
            "core.serve.mean_batch".to_string(),
            offered as f64 / windows as f64,
        ),
        (
            "core.serve.shed".to_string(),
            est.tenants.iter().map(|t| t.shed).sum::<usize>() as f64,
        ),
        (
            "core.serve.retries".to_string(),
            est.tenants.iter().map(|t| t.retries).sum::<usize>() as f64,
        ),
    ]);
    if let Some(r) = &w.last {
        m.push(("core.fleet.migrated".into(), r.migrated as f64));
        m.push((
            "core.fleet.util_spread".into(),
            util_spread(r.devices.iter().map(|d| d.utilization)),
        ));
    }
    (m, offered - served)
}
