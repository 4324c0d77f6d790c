//! The four workloads. Each one knows how to make its inputs from the seed,
//! how to perform one complete cold start on fresh objects, and how to run
//! and verify one measured unit (a request, a window or a pass). All of them
//! use the library's default `RouteOverrides`: the benchmark never sets a
//! fusion, compression or paging knob, so flipping a default later shows.

use phonebit::core::serve::{OpenLoopWorkload, TenantSpec, TenantTraffic};
use phonebit::core::{
    convert, estimate_fleet, format, zipf_rates, ActivationData, ArrivalProcess, Fleet,
    FleetDeviceSpec, FleetOptions, FleetReport, PbitModel, RoutePolicy, Session,
};
use phonebit::gpusim::Phone;
use phonebit::models::yolo::{decode, nms};
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, fill_weights_clustered, synthetic_image};
use phonebit::nn::act::Activation;
use phonebit::nn::graph::{LayerPrecision, NetworkArch, NetworkDef};
use phonebit::tensor::shape::{Layout, Shape4};
use phonebit::tensor::tensor::Tensor;

use crate::oracle::{forward, Fmap, Values};
use crate::trace::{Timed, Tracer};
use crate::verify::Summary;

/// What one measured unit did.
#[derive(Debug, Clone, Copy)]
pub struct Unit {
    /// Requests (images, or simulated requests) the unit carried.
    pub requests: usize,
    /// Requests that errored, were shed, or produced a wrong output.
    pub failed: usize,
    /// The clocks over the library calls (verification excluded).
    pub time: Timed,
}

impl Unit {
    /// Reference milliseconds per request.
    pub fn ref_ms_per_req(&self) -> f64 {
        self.time.ref_wall_s() * 1e3 / self.requests as f64
    }
}

/// Device-model (simulated) latency and goodput of the last unit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Modeled {
    pub req_ms_p50: f64,
    pub req_ms_p99: f64,
    pub reqs_per_s: f64,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    type Inputs;

    /// Inputs for `seed` and their expected output summaries: the committed
    /// `golden` ones when given, the oracle's otherwise. Never timed.
    fn prepare(seed: u64, golden: Option<Vec<Summary>>) -> Self::Inputs;

    /// The expected summaries `prepare` settled on (what `--write-golden`
    /// stores).
    fn expected(inputs: &Self::Inputs) -> &[Summary];

    /// One complete cold start on fresh objects, ending with the first
    /// verified work.
    fn cold_start(inputs: &Self::Inputs, tracer: &mut Tracer) -> (Self, Unit);

    /// Measured unit `i`, verified after its clock stops.
    fn unit(&mut self, inputs: &Self::Inputs, i: usize, tracer: &mut Tracer) -> Unit;

    fn modeled(&self) -> Modeled;
}

/// checkpoint -> `convert` -> `.pbit` bytes -> model, each step a span.
pub fn deploy(def: &NetworkDef, tracer: &mut Tracer) -> (PbitModel, usize) {
    let model = tracer.span("core.convert.convert", None, |_| convert(def));
    let bytes = tracer.span("core.format.write", None, |_| format::write_model(&model));
    let model = tracer.span("core.format.read", None, |_| {
        format::read_model(&bytes).expect("a freshly written .pbit file reads back")
    });
    (model, bytes.len())
}

fn image_fmap(img: &Tensor<u8>) -> Fmap {
    let s = img.shape();
    Fmap {
        h: s.h,
        w: s.w,
        c: s.c,
        data: Values::Bytes(img.to_layout(Layout::Nhwc).into_vec()),
    }
}

/// Counts `got` against `want`; an engine error is a failed request.
pub fn check(want: &Summary, got: Option<&ActivationData>) -> usize {
    usize::from(!got.is_some_and(|out| want.accepts(&Summary::of_engine(out))))
}

// ---------------------------------------------------------------------------
// yolo_full_b1
// ---------------------------------------------------------------------------

pub struct YoloInputs {
    pub seed: u64,
    pub arch: NetworkArch,
    pub images: Vec<Tensor<u8>>,
    expected: Vec<Summary>,
}

/// Full YOLOv2-Tiny 416x416, batch 1, closed loop, one client: the paper's
/// flagship. The bit-plane first layer is ~90 % of a request's host time.
pub struct YoloFull {
    pub session: Session,
    modeled_s: f64,
}

impl YoloFull {
    pub const IMAGES: usize = 4;
    pub const CONF: f32 = 0.25;
    pub const IOU: f32 = 0.45;

    pub fn checkpoint(inputs: &YoloInputs, tracer: &mut Tracer) -> NetworkDef {
        tracer.span("models.fill_weights", None, |_| {
            fill_weights(&inputs.arch, inputs.seed)
        })
    }
}

impl Workload for YoloFull {
    const NAME: &'static str = "yolo_full_b1";
    type Inputs = YoloInputs;

    fn prepare(seed: u64, golden: Option<Vec<Summary>>) -> YoloInputs {
        let arch = zoo::yolov2_tiny(Variant::Binary);
        let images: Vec<Tensor<u8>> = (0..Self::IMAGES)
            .map(|i| synthetic_image(arch.input, seed.wrapping_mul(1000) + i as u64))
            .collect();
        let expected = golden.unwrap_or_else(|| {
            let def = fill_weights(&arch, seed);
            images
                .iter()
                .map(|img| Summary::of_oracle(&forward(&def, image_fmap(img))))
                .collect()
        });
        YoloInputs {
            seed,
            arch,
            images,
            expected,
        }
    }

    fn expected(inputs: &YoloInputs) -> &[Summary] {
        &inputs.expected
    }

    fn cold_start(inputs: &YoloInputs, tracer: &mut Tracer) -> (Self, Unit) {
        let def = Self::checkpoint(inputs, tracer);
        let (model, _) = deploy(&def, tracer);
        let session = tracer.span("core.engine.session_new", None, |_| {
            Session::new(model, &Phone::xiaomi_9()).expect("YOLOv2-Tiny fits the Xiaomi 9")
        });
        let mut w = Self {
            session,
            modeled_s: 0.0,
        };
        let first = tracer.span("core.engine.first_run", None, |t| w.unit(inputs, 0, t));
        (w, first)
    }

    fn unit(&mut self, inputs: &YoloInputs, i: usize, tracer: &mut Tracer) -> Unit {
        let slot = i % inputs.images.len();
        let (head, time) = tracer.timed(|t| {
            t.span("request", Some(i), |t| {
                let report = t
                    .span("core.engine.run_u8", None, |_| {
                        self.session.run_u8(&inputs.images[slot])
                    })
                    .ok()?;
                self.modeled_s = report.total_s;
                let head = report.output?;
                if let ActivationData::Floats(map) = &head {
                    let raw = t.span("models.yolo.decode", None, |_| decode(map, Self::CONF));
                    let kept = t.span("models.yolo.nms", None, |_| nms(raw, Self::IOU));
                    std::hint::black_box(kept);
                }
                Some(head)
            })
        });
        Unit {
            requests: 1,
            failed: check(&inputs.expected[slot], head.as_ref()),
            time,
        }
    }

    fn modeled(&self) -> Modeled {
        Modeled {
            req_ms_p50: self.modeled_s * 1e3,
            req_ms_p99: self.modeled_s * 1e3,
            reqs_per_s: 1.0 / self.modeled_s,
        }
    }
}

// ---------------------------------------------------------------------------
// vgg_body_b2
// ---------------------------------------------------------------------------

/// VGG16 `conv1_2` .. `pool5`: twelve binary 3x3 convolutions and five
/// pools over a 224x224x64 float input. No bit-plane layer, so kernel,
/// route, fusion and dictionary changes show here and a bit-plane change
/// must not.
pub fn vgg_body_arch() -> NetworkArch {
    let mut arch = NetworkArch::new("VGG16-body", Shape4::new(1, 224, 224, 64));
    let conv = |arch: NetworkArch, name: &str, k: usize| {
        arch.conv(name, k, 3, 1, 1, LayerPrecision::Binary, Activation::Linear)
    };
    arch = conv(arch, "conv1_2", 64).maxpool("pool1", 2, 2);
    for (block, k, convs) in [(2, 128, 2), (3, 256, 3), (4, 512, 3), (5, 512, 3)] {
        for i in 1..=convs {
            arch = conv(arch, &format!("conv{block}_{i}"), k);
        }
        arch = arch.maxpool(&format!("pool{block}"), 2, 2);
    }
    arch
}

/// SplitMix64 floats in `[-0.5, 0.5)`.
fn seeded_floats(seed: u64, len: usize) -> Vec<f32> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z >> 40) as f32 / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

pub struct VggInputs {
    pub seed: u64,
    pub arch: NetworkArch,
    /// `[A, B]` and `[B, A]`: both images pass through both batch lanes.
    pub windows: [Vec<Tensor<f32>>; 2],
    expected: Vec<Summary>,
}

pub struct VggBody {
    pub session: Session,
    modeled_s: f64,
}

impl VggBody {
    pub const BATCH: usize = 2;
    /// Sign prototypes per layer: trained-like repeated filter rows.
    pub const PROTOTYPES: usize = 32;

    pub fn checkpoint(inputs: &VggInputs, tracer: &mut Tracer) -> NetworkDef {
        tracer.span("models.fill_weights", None, |_| {
            fill_weights_clustered(&inputs.arch, inputs.seed, Self::PROTOTYPES)
        })
    }
}

impl Workload for VggBody {
    const NAME: &'static str = "vgg_body_b2";
    type Inputs = VggInputs;

    fn prepare(seed: u64, golden: Option<Vec<Summary>>) -> VggInputs {
        let arch = vgg_body_arch();
        let image = |i: u64| {
            Tensor::from_vec(
                arch.input,
                Layout::Nhwc,
                seeded_floats(seed.wrapping_mul(1000) + i, arch.input.len()),
            )
        };
        let (a, b) = (image(0), image(1));
        let expected = golden.unwrap_or_else(|| {
            let def = fill_weights_clustered(&arch, seed, Self::PROTOTYPES);
            [&a, &b]
                .iter()
                .map(|img| {
                    let input = Fmap {
                        h: arch.input.h,
                        w: arch.input.w,
                        c: arch.input.c,
                        data: Values::Floats(img.as_slice().to_vec()),
                    };
                    Summary::of_oracle(&forward(&def, input))
                })
                .collect()
        });
        VggInputs {
            seed,
            arch,
            windows: [vec![a.clone(), b.clone()], vec![b, a]],
            expected,
        }
    }

    fn expected(inputs: &VggInputs) -> &[Summary] {
        &inputs.expected
    }

    fn cold_start(inputs: &VggInputs, tracer: &mut Tracer) -> (Self, Unit) {
        let def = Self::checkpoint(inputs, tracer);
        let (model, _) = deploy(&def, tracer);
        let session = tracer.span("core.engine.session_new", None, |_| {
            Session::new_batched(model, &Phone::xiaomi_9(), Self::BATCH)
                .expect("the VGG16 body fits the Xiaomi 9 at batch 2")
        });
        let mut w = Self {
            session,
            modeled_s: 0.0,
        };
        let first = tracer.span("core.engine.first_run", None, |t| w.unit(inputs, 0, t));
        (w, first)
    }

    fn unit(&mut self, inputs: &VggInputs, i: usize, tracer: &mut Tracer) -> Unit {
        let flip = i % 2;
        let (out, time) = tracer.timed(|t| {
            t.span("request", Some(i), |t| {
                let report = t
                    .span("core.engine.run_batch_f32", None, |_| {
                        self.session.run_batch_f32(&inputs.windows[flip])
                    })
                    .ok()?;
                self.modeled_s = report.total_s;
                report.output
            })
        });
        let failed = (0..Self::BATCH)
            .map(|lane| {
                let image = out.as_ref().map(|o| o.image(lane));
                check(&inputs.expected[lane ^ flip], image.as_ref())
            })
            .sum();
        Unit {
            requests: Self::BATCH,
            failed,
            time,
        }
    }

    fn modeled(&self) -> Modeled {
        // Every request of a window completes when the window does.
        Modeled {
            req_ms_p50: self.modeled_s * 1e3,
            req_ms_p99: self.modeled_s * 1e3,
            reqs_per_s: Self::BATCH as f64 / self.modeled_s,
        }
    }
}

// ---------------------------------------------------------------------------
// fleet_exec_micro
// ---------------------------------------------------------------------------

/// Both fleet workloads route power-of-two over 2 replicas and 2 streams.
fn fleet_options(seed: u64) -> FleetOptions {
    FleetOptions {
        policy: RoutePolicy::PowerOfTwo,
        seed,
        replicas: 2,
        streams: 2,
        ..FleetOptions::default()
    }
}

fn fleet_modeled(report: Option<&FleetReport>) -> Modeled {
    report.map_or(Modeled::default(), |r| Modeled {
        req_ms_p50: r.p50_ms,
        req_ms_p99: r.p99_ms,
        reqs_per_s: r.goodput_imgs_per_s,
    })
}

pub struct FleetExecInputs {
    pub seed: u64,
    pub archs: Vec<NetworkArch>,
    /// Per tenant, the pass's requests in arrival order.
    pub requests: Vec<Vec<Tensor<u8>>>,
    pub arrivals_ms: Vec<Vec<f64>>,
    /// `DISTINCT` summaries per tenant, tenant-major.
    expected: Vec<Summary>,
}

impl FleetExecInputs {
    pub fn traffic(&self) -> Vec<TenantTraffic<'_>> {
        self.requests.iter().map(|r| TenantTraffic::U8(r)).collect()
    }

    pub fn expected_for(&self, tenant: usize, request: usize) -> &Summary {
        &self.expected[tenant * FleetExec::DISTINCT + request % FleetExec::DISTINCT]
    }

    /// The tenants' deployed models, as a fleet or runtime wants them.
    pub fn tenants(&self, tracer: &mut Tracer) -> Vec<TenantSpec> {
        self.archs
            .iter()
            .enumerate()
            .map(|(t, arch)| {
                let def = tracer.span("models.fill_weights", None, |_| {
                    fill_weights(arch, self.seed + t as u64)
                });
                let mut spec = TenantSpec::new(deploy(&def, tracer).0);
                spec.batch = Some(FleetExec::BATCH);
                spec.name = format!("tenant{t}");
                spec
            })
            .collect()
    }
}

/// A functional two-device `Fleet` serving three micro tenants open loop:
/// the same kernels as above, reached through fleet -> serve -> MultiStream
/// in many small dispatches, so per-window engine, scheduler and launch
/// overhead is the largest share here.
pub struct FleetExec {
    fleet: Fleet,
    /// The latest pass's report; the next one must equal it.
    pub last: Option<FleetReport>,
}

impl FleetExec {
    pub const PER_TENANT: usize = 24;
    pub const DISTINCT: usize = 4;
    pub const BATCH: usize = 2;
    pub const TOTAL_RATE_PER_S: f64 = 8000.0;
    pub const ZIPF: f64 = 1.2;
}

impl Workload for FleetExec {
    const NAME: &'static str = "fleet_exec_micro";
    type Inputs = FleetExecInputs;

    fn prepare(seed: u64, golden: Option<Vec<Summary>>) -> FleetExecInputs {
        let archs = vec![
            zoo::yolo_micro(Variant::Binary),
            zoo::alexnet_micro(Variant::Binary),
            zoo::yolo_micro(Variant::Binary),
        ];
        let distinct: Vec<Vec<Tensor<u8>>> = archs
            .iter()
            .enumerate()
            .map(|(t, arch)| {
                (0..Self::DISTINCT)
                    .map(|d| {
                        let image_seed = seed.wrapping_mul(1000) + (100 * t + d) as u64;
                        synthetic_image(arch.input, image_seed)
                    })
                    .collect()
            })
            .collect();
        let expected = golden.unwrap_or_else(|| {
            archs
                .iter()
                .zip(&distinct)
                .enumerate()
                .flat_map(|(t, (arch, images))| {
                    let def = fill_weights(arch, seed + t as u64);
                    images
                        .iter()
                        .map(|img| Summary::of_oracle(&forward(&def, image_fmap(img))))
                        .collect::<Vec<_>>()
                })
                .collect()
        });
        // Evenly spaced arrivals at each tenant's Zipf share of the total.
        let arrivals_ms = zipf_rates(Self::TOTAL_RATE_PER_S, archs.len(), Self::ZIPF)
            .iter()
            .map(|rate| {
                (0..Self::PER_TENANT)
                    .map(|i| i as f64 * 1e3 / rate)
                    .collect()
            })
            .collect();
        let requests = distinct
            .iter()
            .map(|images| {
                (0..Self::PER_TENANT)
                    .map(|i| images[i % Self::DISTINCT].clone())
                    .collect()
            })
            .collect();
        FleetExecInputs {
            seed,
            archs,
            requests,
            arrivals_ms,
            expected,
        }
    }

    fn expected(inputs: &FleetExecInputs) -> &[Summary] {
        &inputs.expected
    }

    fn cold_start(inputs: &FleetExecInputs, tracer: &mut Tracer) -> (Self, Unit) {
        let tenants = inputs.tenants(tracer);
        let devices = vec![
            FleetDeviceSpec::new(Phone::xiaomi_9()),
            FleetDeviceSpec::new(Phone::xiaomi_5()),
        ];
        let fleet = tracer.span("core.fleet.new", None, |_| {
            Fleet::new(devices, tenants, fleet_options(inputs.seed))
                .expect("three micro tenants fit two phones")
        });
        let mut w = Self { fleet, last: None };
        let warm = w.unit(inputs, 0, tracer);
        (w, warm)
    }

    fn unit(&mut self, inputs: &FleetExecInputs, i: usize, tracer: &mut Tracer) -> Unit {
        let traffic = inputs.traffic();
        let offered = inputs.requests.iter().map(Vec::len).sum();
        let (outcome, time) = tracer.timed(|t| {
            t.span("core.fleet.serve_open_loop", Some(i), |_| {
                self.fleet
                    .serve_open_loop(&traffic, &inputs.arrivals_ms, &[])
            })
        });
        let failed = match outcome {
            Err(_) => offered,
            Ok(outcome) => {
                // A shed request has no output, so it fails its check.
                let wrong: usize = outcome
                    .outputs
                    .iter()
                    .enumerate()
                    .flat_map(|(t, outs)| {
                        outs.iter()
                            .enumerate()
                            .map(move |(r, out)| check(inputs.expected_for(t, r), out.as_ref()))
                    })
                    .sum();
                // Same traffic on the same fleet: every pass must report
                // what the one before it did.
                let drifted = self
                    .last
                    .as_ref()
                    .is_some_and(|prev| *prev != outcome.report);
                self.last = Some(outcome.report);
                wrong.max(usize::from(drifted))
            }
        };
        Unit {
            requests: offered,
            failed,
            time,
        }
    }

    fn modeled(&self) -> Modeled {
        fleet_modeled(self.last.as_ref())
    }
}

// ---------------------------------------------------------------------------
// fleet_sim_zoo
// ---------------------------------------------------------------------------

pub struct FleetSimInputs {
    pub seed: u64,
    pub archs: Vec<NetworkArch>,
    pub rates_per_s: Vec<f64>,
    /// Requests each tenant's arrival process offers within the horizon.
    offered: Vec<usize>,
}

impl FleetSimInputs {
    pub fn workloads(&self) -> Vec<OpenLoopWorkload<'_>> {
        self.archs
            .iter()
            .zip(&self.rates_per_s)
            .enumerate()
            .map(|(t, (arch, &rate))| OpenLoopWorkload {
                arch,
                batch: Some(1),
                slo_ms: None,
                arrival: ArrivalProcess::poisson(rate),
                seed: self.seed + t as u64,
            })
            .collect()
    }
}

/// `estimate_fleet` over the full-scale zoo: no kernel runs, so host time is
/// all serve/fleet scheduling and plan lowering, and its modeled latencies
/// repeat exactly.
pub struct FleetSim {
    devices: Vec<FleetDeviceSpec>,
    opts: FleetOptions,
    /// The latest pass's report; the next one must equal it.
    pub last: Option<FleetReport>,
}

impl FleetSim {
    pub const DEVICES: usize = 4;
    pub const TOTAL_RATE_PER_S: f64 = 240.0;
    pub const ZIPF: f64 = 1.2;
    pub const HORIZON_MS: f64 = 60_000.0;
    const WARM_PASSES: usize = 4;
}

impl Workload for FleetSim {
    const NAME: &'static str = "fleet_sim_zoo";
    type Inputs = FleetSimInputs;

    fn prepare(seed: u64, _golden: Option<Vec<Summary>>) -> FleetSimInputs {
        let archs = vec![
            zoo::alexnet(Variant::Binary),
            zoo::yolov2_tiny(Variant::Binary),
            zoo::alexnet_micro(Variant::Binary),
            zoo::yolo_micro(Variant::Binary),
        ];
        let rates_per_s = zipf_rates(Self::TOTAL_RATE_PER_S, archs.len(), Self::ZIPF);
        let offered = rates_per_s
            .iter()
            .enumerate()
            .map(|(t, &rate)| {
                ArrivalProcess::poisson(rate)
                    .times_ms(seed + t as u64, Self::HORIZON_MS)
                    .len()
            })
            .collect();
        FleetSimInputs {
            seed,
            archs,
            rates_per_s,
            offered,
        }
    }

    fn expected(_inputs: &FleetSimInputs) -> &[Summary] {
        &[]
    }

    fn cold_start(inputs: &FleetSimInputs, tracer: &mut Tracer) -> (Self, Unit) {
        let devices = (0..Self::DEVICES)
            .map(|d| {
                FleetDeviceSpec::new(if d % 2 == 0 {
                    Phone::xiaomi_9()
                } else {
                    Phone::xiaomi_5()
                })
            })
            .collect();
        let mut w = Self {
            devices,
            opts: fleet_options(inputs.seed),
            last: None,
        };
        let mut warm = w.unit(inputs, 0, tracer);
        for i in 1..Self::WARM_PASSES {
            let pass = w.unit(inputs, i, tracer);
            warm.requests += pass.requests;
            warm.failed += pass.failed;
        }
        (w, warm)
    }

    fn unit(&mut self, inputs: &FleetSimInputs, i: usize, tracer: &mut Tracer) -> Unit {
        let workloads = inputs.workloads();
        let (report, time) = tracer.timed(|t| {
            t.span("core.fleet.estimate_fleet", Some(i), |_| {
                estimate_fleet(&self.devices, &workloads, Self::HORIZON_MS, &[], &self.opts)
            })
        });
        let offered: usize = inputs.offered.iter().sum();
        // No kernels run, so there is no tensor to check: the pass must
        // offer exactly the arrivals the seeded processes generate, resolve
        // every one of them, shed none (no tenant has an SLO), order its
        // percentiles, and repeat the previous pass's report exactly.
        let per_tenant_ok = report
            .tenants
            .iter()
            .zip(&inputs.offered)
            .all(|(t, &want)| t.offered == want && t.served == want);
        let sound = report.offered == offered
            && report.served == offered
            && report.shed == 0
            && per_tenant_ok
            && report.p50_ms > 0.0
            && report.p50_ms <= report.p95_ms
            && report.p95_ms <= report.p99_ms
            && self.last.as_ref().is_none_or(|prev| *prev == report);
        let failed = if sound {
            0
        } else {
            (offered - report.served.min(offered)).max(1)
        };
        self.last = Some(report);
        Unit {
            requests: offered,
            failed,
            time,
        }
    }

    fn modeled(&self) -> Modeled {
        fleet_modeled(self.last.as_ref())
    }
}
