//! The PhoneBit inference engine: runs a deployed model on a simulated
//! phone GPU, layer by layer, with per-layer timing and energy.
//!
//! All planning happens once at [`Session::new`]: the model is lowered to
//! an [`ExecutionPlan`] (kernel routes, explicit domain conversions, and a
//! liveness-based **arena** of reusable activation slots), GEMM-routed
//! layers get their filter banks pre-flattened, and the arena is staged
//! against the phone's memory budget. Steady-state inference then walks
//! the plan — the one walk every model of it takes, with kernel bodies —
//! writing every intermediate into its preassigned slot: zero per-run heap
//! allocation on the activation path, and device bookings that match the
//! plan's [`peak_bytes`](ExecutionPlan::peak_bytes).
//!
//! # Batched throughput mode
//!
//! [`Session::new_batched`] stages the same weights and GEMM banks once
//! but lowers a **batched** plan: every arena slot holds the whole request
//! window (`n = batch`), each layer runs as **one** dispatch covering every
//! image (launch overhead amortized across the batch, pack/unpack
//! conversions included), and the arena is double-banked. Consecutive
//! [`Session::run_batch_u8`] / [`run_batch_f32`] calls alternate banks:
//! while the GPU computes window *t* in the front bank, the host stages
//! window *t + 1* into the back bank, so the per-run framework overhead is
//! charged only on the first (unprimed) window of a stream. A window is
//! borrowed for the whole walk: an input consumed as stored is copied into
//! the bank, a float window step 0 sign-packs is packed from the caller's
//! images. Batched outputs are bit-identical to running each image alone
//! (`tests/batched_engine.rs`: zoo, four routes).
//!
//! # StagedModel / Stream split
//!
//! The engine is two halves. [`StagedModel`] is everything staged once and
//! never mutated — the model, its plan, the pre-flattened GEMM banks, the
//! weight booking — shared behind an [`Arc`]. [`Stream`] is the per-
//! stream mutable state — arena banks, command queue, double-buffer
//! cursor. A [`Session`] is the compatibility pairing of one of each; the
//! serving runtime ([`crate::serve::DeviceRuntime`]) instead runs many
//! streams over each [`StagedModel`], their queues arbitrated by a shared
//! [`DeviceClock`].
//!
//! [`run_batch_f32`]: Session::run_batch_f32

use std::sync::Arc;

use phonebit_gpusim::buffer::{Buffer, Context, SimError};
use phonebit_gpusim::clock::DeviceClock;
use phonebit_gpusim::queue::CommandQueue;
use phonebit_gpusim::Phone;
use phonebit_gpusim::{ExecutorClass, KernelProfile};
use phonebit_nn::act;
use phonebit_nn::fuse::{FusedBn, PlaneCuts};
use phonebit_nn::kernels::bconv::DirectBank;
use phonebit_nn::kernels::bytedot::ByteBank;
use phonebit_nn::kernels::fconv::{FloatBank, SignedBank};
use phonebit_nn::kernels::tiled::FusedLanes;
use phonebit_nn::kernels::{self, bconv, bgemm, bitplane, bytedot, dense, fconv, fused, pool};
use phonebit_tensor::bits::{BitTensor, PackedFilters};
use phonebit_tensor::lanes::LaneBank;
use phonebit_tensor::pack::unpack_f32_into;
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Layout, Shape4};
use phonebit_tensor::tensor::Tensor;

use crate::estimate::walk_plan;
use crate::model::{PbitLayer, PbitModel};
use crate::plan::{
    ExecutionPlan, FusedKind, FusedMember, PlanDomainError, PlanValue, RouteOverrides, StepOp,
    ValueKind,
};
use crate::planner::{ConvPath, ConvPlan};
use crate::stats::RunReport;

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// Device memory exhausted while staging weights or activations.
    OutOfMemory(SimError),
    /// The supplied input does not match the model input.
    InputMismatch {
        /// What the model wants.
        expected: String,
        /// What the caller passed.
        got: String,
    },
    /// A layer received data in the wrong domain (bits vs floats); indicates
    /// a malformed model.
    DomainMismatch {
        /// Offending layer name.
        layer: String,
        /// Expected activation domain.
        expected: &'static str,
    },
    /// A layer the kernels cannot run exactly: an 8-bit first layer whose
    /// windows are wider than [`bitplane::MAX_WINDOW_BITS`], or a corrupt
    /// layer (parameters disagreeing with each other or with its input).
    Unsupported {
        /// Offending layer name.
        layer: String,
        /// What it exceeds.
        reason: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OutOfMemory(e) => write!(f, "engine out of memory: {e}"),
            EngineError::InputMismatch { expected, got } => {
                write!(f, "input mismatch: model expects {expected}, got {got}")
            }
            EngineError::DomainMismatch { layer, expected } => {
                write!(f, "layer {layer} expected {expected} activations")
            }
            EngineError::Unsupported { layer, reason } => {
                write!(f, "layer {layer} is not supported: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::OutOfMemory(e)
    }
}

impl From<PlanDomainError> for EngineError {
    fn from(e: PlanDomainError) -> Self {
        EngineError::DomainMismatch {
            layer: e.layer,
            expected: e.expected,
        }
    }
}

/// Activation data flowing between layers.
#[derive(Debug, Clone, PartialEq)]
pub enum ActivationData {
    /// 8-bit integer image (network input only).
    Bytes(Tensor<u8>),
    /// Full-precision activations.
    Floats(Tensor<f32>),
    /// Channel-packed binary activations.
    Bits(BitTensor<u64>),
}

impl ActivationData {
    /// Logical shape of the activations.
    pub fn shape(&self) -> Shape4 {
        match self {
            ActivationData::Bytes(t) => t.shape(),
            ActivationData::Floats(t) => t.shape(),
            ActivationData::Bits(t) => t.shape(),
        }
    }

    /// Extracts float activations, if that is what this is.
    pub fn into_floats(self) -> Option<Tensor<f32>> {
        match self {
            ActivationData::Floats(t) => Some(t),
            _ => None,
        }
    }

    /// Extracts image `i` of a batched activation as a batch-1 activation
    /// (a copy) — how callers split a [`Session::run_batch_u8`] output into
    /// per-request results.
    ///
    /// # Panics
    ///
    /// Panics when `i` is outside the batch or the tensor layout is not
    /// NHWC (batched activations are always NHWC).
    pub fn image(&self, i: usize) -> ActivationData {
        let s = self.shape();
        assert!(i < s.n, "image {i} out of batch {}", s.n);
        let single = Shape4::new(1, s.h, s.w, s.c);
        match self {
            ActivationData::Bytes(t) => {
                assert_eq!(t.layout(), Layout::Nhwc, "batched activations are NHWC");
                let len = s.h * s.w * s.c;
                ActivationData::Bytes(Tensor::from_vec(
                    single,
                    Layout::Nhwc,
                    t.as_slice()[i * len..(i + 1) * len].to_vec(),
                ))
            }
            ActivationData::Floats(t) => {
                assert_eq!(t.layout(), Layout::Nhwc, "batched activations are NHWC");
                let len = s.h * s.w * s.c;
                ActivationData::Floats(Tensor::from_vec(
                    single,
                    Layout::Nhwc,
                    t.as_slice()[i * len..(i + 1) * len].to_vec(),
                ))
            }
            ActivationData::Bits(t) => {
                let per_image = s.h * s.w * t.words_per_pixel();
                let mut out = BitTensor::zeros(single);
                out.as_mut_words()
                    .copy_from_slice(&t.as_words()[i * per_image..(i + 1) * per_image]);
                ActivationData::Bits(out)
            }
        }
    }
}

/// Reusable host buffers backing one arena slot. A slot may host values of
/// different storage classes at different steps; each class it ever hosts
/// gets one buffer, created and sized once at staging time and re-`reset`
/// per inference — never reallocated in steady state.
#[derive(Debug, Default)]
struct SlotStorage {
    bytes: Option<Tensor<u8>>,
    bits: Option<BitTensor<u64>>,
    floats: Option<Tensor<f32>>,
    accum: Option<Tensor<i32>>,
}

impl SlotStorage {
    /// Ensures this slot can host a value of `kind` at `shape` without a
    /// later per-run allocation (keeps the largest footprint seen).
    fn prepare(&mut self, kind: ValueKind, shape: Shape4) {
        match kind {
            ValueKind::Bytes => grow(&mut self.bytes, shape, |s| {
                Tensor::<u8>::zeros(s, Layout::Nhwc)
            }),
            ValueKind::Bits => grow_bits(&mut self.bits, shape),
            ValueKind::Floats => grow(&mut self.floats, shape, |s| {
                Tensor::<f32>::zeros(s, Layout::Nhwc)
            }),
            ValueKind::Accum32 => grow(&mut self.accum, shape, |s| {
                Tensor::<i32>::zeros(s, Layout::Nhwc)
            }),
            // The device's bit-planes: the host's byte dot reads the image.
            ValueKind::Planes8 => {}
        }
    }

    /// Resets the buffer hosting `value` to its shape, zeroed: how a body
    /// receives its output, and the scratch it reads zeroed.
    fn reset(&mut self, value: &PlanValue) {
        match value.kind {
            ValueKind::Bits => self.bits_mut().reset(value.shape),
            ValueKind::Floats => self.floats_mut().reset(value.shape, Layout::Nhwc),
            ValueKind::Accum32 => self.accum_mut().reset(value.shape, Layout::Nhwc),
            ValueKind::Bytes | ValueKind::Planes8 => {}
        }
    }

    fn bits(&self) -> &BitTensor<u64> {
        self.bits.as_ref().expect("arena slot: bits staged")
    }
    fn bits_mut(&mut self) -> &mut BitTensor<u64> {
        self.bits.as_mut().expect("arena slot: bits staged")
    }
    fn floats(&self) -> &Tensor<f32> {
        self.floats.as_ref().expect("arena slot: floats staged")
    }
    fn floats_mut(&mut self) -> &mut Tensor<f32> {
        self.floats.as_mut().expect("arena slot: floats staged")
    }
    fn bytes_ref(&self) -> &Tensor<u8> {
        self.bytes.as_ref().expect("arena slot: bytes staged")
    }
    fn accum_mut(&mut self) -> &mut Tensor<i32> {
        self.accum.as_mut().expect("arena slot: accum staged")
    }
}

fn grow<T, F: FnOnce(Shape4) -> Tensor<T>>(slot: &mut Option<Tensor<T>>, shape: Shape4, make: F)
where
    T: phonebit_tensor::tensor::Element,
{
    let enough = slot
        .as_ref()
        .is_some_and(|t| t.shape().len() >= shape.len());
    if !enough {
        *slot = Some(make(shape));
    }
}

fn grow_bits(slot: &mut Option<BitTensor<u64>>, shape: Shape4) {
    let needed = shape.pixels() * shape.c.div_ceil(64);
    let enough = slot.as_ref().is_some_and(|t| t.word_len() >= needed);
    if !enough {
        *slot = Some(BitTensor::zeros(shape));
    }
}

/// The staged-once, immutable half of an inference engine: the model, its
/// lowered [`ExecutionPlan`] and that plan's dispatch list, the pre-staged
/// filter banks (interleaved and/or flattened per the plan), and the
/// device booking for the packed weights. Everything here is read-only
/// after staging, so any number of [`Stream`]s can share one `StagedModel`
/// behind an [`Arc`] — the paper's stage-weights-once claim extended from
/// one batched stream to a whole sharded serving runtime.
///
/// The device [`Context`] lives here too: streams book their arena
/// banks against it, so `resident_bytes` reports the true aggregate footprint
/// (`weights + N_streams × banks × Σ slots`) and staging one stream too
/// many fails with [`EngineError::OutOfMemory`] exactly like a single
/// over-budget model would.
#[derive(Debug)]
pub struct StagedModel {
    model: PbitModel,
    plan: ExecutionPlan,
    ctx: Context,
    /// The weight bytes booked on the device — the paging schedule's hot
    /// set when it streams. The kernels read the banks below, so nothing
    /// backs the booking.
    _weights: Buffer,
    /// Each step's dispatch list ([`ExecutionPlan::step_profiles`]), staged
    /// once: the walk launches exactly these, each over the body that runs
    /// it, so what a step dispatches is defined once, by the plan.
    profiles: Vec<Vec<KernelProfile>>,
    /// One entry per **layer** (keyed by `step.index` /
    /// `FusedMember::layer`, both of which survive the fusion pass); `Some`
    /// for every binary convolution and dense layer: its filters in the
    /// order its route reads, with the cuts of its thresholds — the per-tap
    /// bank (direct routes, fused chains; a thin direct layer's at its
    /// packing width where [`TapBank::fits`](phonebit_nn::kernels::taps::TapBank::fits))
    /// or the pre-flattened GEMM bank (a dense layer's weights are one),
    /// staged from the raw rows, and only the distinct filters where they
    /// repeat ([`FusedLanes::new`]); the unfused route's every filter's
    /// lanes, without cuts. A compressed layer stages the same lanes: its
    /// dictionary is the modeled device's format, and its DRAM saving rides
    /// on the plan's profiles.
    banks: Vec<Option<StagedBank>>,
    /// The float convolutions' filters, sixteen per vector, per layer: as
    /// sign pairs where the plan feeds the layer packed bits.
    float_banks: Vec<Option<FloatConvBank>>,
    /// The 8-bit first layer's filters (`u8` feeds only a leading layer)
    /// as `s8` bytes for the host's byte dot, and their cuts.
    byte_bank: Option<(ByteBank, PlaneCuts)>,
}

/// A float convolution's staged filters, in the form its input needs.
#[derive(Debug, Clone)]
enum FloatConvBank {
    /// Float input: the lanes the float body multiplies.
    Floats(FloatBank),
    /// Packed bits (a binary layer's output): the `±w` pairs the bits pick.
    Signs(SignedBank),
}

impl StagedModel {
    /// Stages a model's shared state on the given phone's GPU under the
    /// default [`RouteOverrides`] — [`StagedModel::stage_in`] into a fresh
    /// context budgeted at the phone's app memory.
    ///
    /// # Errors
    ///
    /// As [`StagedModel::stage_in`].
    pub fn stage(model: PbitModel, phone: &Phone, batch: usize) -> Result<Arc<Self>, EngineError> {
        let ctx = Context::new(phone.gpu.clone(), phone.app_budget_bytes());
        Self::stage_in(model, ctx, batch, &RouteOverrides::default())
    }

    /// Stages a model's shared state into an explicit (possibly shared)
    /// device [`Context`]: lowers it to its [`ExecutionPlan`] at `batch`
    /// images per window under `overrides` (fused groups execute as one
    /// dispatch per chain), pre-flattens the GEMM filter banks the plan's
    /// routes need, and books the packed weights against the context's
    /// remaining budget. Streams are staged separately
    /// ([`Stream::new`]) and share this state by `Arc`. The multi-tenant
    /// runtime stages every co-resident model into **one** budgeted
    /// context, so all tenants' weights and every stream's pooled arena
    /// slice draw from the same app budget and a pair that does not fit
    /// fails at staging exactly like one oversized model would.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when the weights alone exceed
    /// the remaining budget, [`EngineError::DomainMismatch`] when the
    /// model's layer chain is domain-inconsistent, or
    /// [`EngineError::Unsupported`] for a corrupt layer, a window larger than
    /// its input or too wide a first layer, and [`EngineError::InputMismatch`]
    /// when `batch == 0`.
    pub fn stage_in(
        model: PbitModel,
        ctx: Context,
        batch: usize,
        overrides: &RouteOverrides,
    ) -> Result<Arc<Self>, EngineError> {
        if batch == 0 {
            return Err(EngineError::InputMismatch {
                expected: "a batch of at least 1 image".into(),
                got: "batch 0".into(),
            });
        }
        check_windows(&model)?;
        let plan = ExecutionPlan::for_model(&model, ctx.device(), batch, overrides)?;
        Self::stage_plan(model, ctx, plan)
    }

    /// Stages `model` on `plan`, its own lowering (admission hands over the
    /// plan it already lowered instead of having it lowered again). The
    /// plan comes first: its compression ledger decides how many bytes each
    /// layer's bank takes on the device, so the weights are booked at the
    /// compressed per-layer sizes — `resident_bytes` then reports the
    /// dictionary-true footprint: [`ExecutionPlan::hot_weight_bytes`] in
    /// one booking, as a dry tenant books it.
    pub(crate) fn stage_plan(
        model: PbitModel,
        ctx: Context,
        plan: ExecutionPlan,
    ) -> Result<Arc<Self>, EngineError> {
        // Pre-stage filter banks so per-inference runs pay neither the
        // cost model, the flatten nor the interleave again. Routes come from
        // the batched plan, so a layer that only wins the GEMM lowering at
        // batch scale still gets its bank. Banks
        // are keyed by layer index (`step.index` / `FusedMember::layer`) so
        // the fused plan, which has fewer steps than layers, still resolves
        // the right bank — including direct-fused convs folded into chains.
        let mut route_of: Vec<Option<ConvPath>> = vec![None; model.layers.len()];
        let mut plan_layer = |i: usize, route: Option<ConvPlan>, in_shape: Shape4| {
            route_of[i] = route.map(|r| r.path);
            let layer = &model.layers[i];
            check_layer(layer, in_shape).map_err(|reason| EngineError::Unsupported {
                layer: layer.name().to_string(),
                reason,
            })
        };
        for step in &plan.steps {
            match &step.op {
                StepOp::FusedGroup { members, .. } => {
                    for m in members {
                        plan_layer(m.layer, m.route, m.in_shape)?;
                    }
                }
                _ => plan_layer(step.index, step.route, step.in_shape)?,
            }
        }
        let weights = ctx.reserve(plan.hot_weight_bytes())?;
        let mut banks = vec![None; model.layers.len()];
        let mut float_banks = vec![None; model.layers.len()];
        let mut byte_bank = None;
        for (i, layer) in model.layers.iter().enumerate() {
            let (filters, fused, geom) = match layer {
                PbitLayer::FConv { filters, .. } => {
                    // A conversion ahead of its step: the plan feeds it bits.
                    let bits = plan
                        .steps
                        .iter()
                        .any(|s| s.index == i && s.convert.is_some());
                    float_banks[i] = Some(if bits {
                        FloatConvBank::Signs(SignedBank::new(filters))
                    } else {
                        FloatConvBank::Floats(FloatBank::new(filters))
                    });
                    continue;
                }
                PbitLayer::BConv {
                    filters,
                    fused,
                    geom,
                    ..
                } => (filters, fused, geom),
                PbitLayer::DenseBin { weights, fused, .. } => {
                    banks[i] = Some(StagedBank::Fused(DirectBank::new(weights, fused, None)));
                    continue;
                }
                PbitLayer::BConvInput8 {
                    name,
                    filters,
                    fused,
                    ..
                } => {
                    let bits = filters.shape().filter_len();
                    if bits > bitplane::MAX_WINDOW_BITS {
                        return Err(EngineError::Unsupported {
                            layer: name.clone(),
                            reason: format!(
                                "{bits}-bit windows; Eqn 2 sums fit i32 lanes up to {}",
                                bitplane::MAX_WINDOW_BITS
                            ),
                        });
                    }
                    byte_bank = Some((ByteBank::new(filters), PlaneCuts::new(fused, bits)));
                    continue;
                }
                _ => continue,
            };
            let Some(path) = route_of[i] else {
                continue;
            };
            // The GEMM route multiplies flattened rows.
            let flat;
            let rows = match path {
                ConvPath::LoweredGemm => {
                    flat = bgemm::flatten_filters(filters);
                    &flat
                }
                _ => filters,
            };
            banks[i] = Some(stage_bconv(rows, fused, path, geom));
        }
        let profiles = (0..plan.steps.len()).map(|idx| plan.step_profiles(idx));
        Ok(Arc::new(Self {
            profiles: profiles.collect(),
            model,
            plan,
            ctx,
            _weights: weights,
            banks,
            float_banks,
            byte_bank,
        }))
    }

    /// The staged model.
    pub fn model(&self) -> &PbitModel {
        &self.model
    }

    /// The staged execution plan (routes, values, arena assignment).
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Binary layers whose staged lanes are shared: each distinct filter
    /// multiplied once ([`FusedLanes::new`]).
    pub fn shared_banks(&self) -> usize {
        let distinct = self.banks.iter().flatten().filter_map(|b| match b {
            StagedBank::Fused(DirectBank::Lanes(lanes)) => lanes.distinct_filters(),
            _ => None,
        });
        distinct.count()
    }

    /// Device memory currently booked across the shared weights and
    /// **every** live stream's arena banks, bytes. Under a streaming
    /// [`PagingSchedule`](crate::paging::PagingSchedule) the weight half is
    /// the hot-set peak, not Σ weights — the budget-relevant footprint.
    fn resident_bytes(&self) -> usize {
        self.ctx.used_bytes()
    }
}

/// The per-plan mutable arena state one [`Stream`] lane holds for one
/// staged model: `plan.banks` copies of the slot storage (single-image plans
/// hold one, batched plans double-buffer so the next window stages while the
/// current one computes), the bank cursor, and the primed flag.
#[derive(Debug)]
struct ArenaState {
    banks: Vec<Vec<SlotStorage>>,
    /// Bank receiving the next run's staging.
    bank: usize,
    /// Whether a batched stream is warm: once the first window has run,
    /// later windows' host prep overlaps GPU compute (double buffering)
    /// and the per-run framework overhead is no longer charged.
    primed: bool,
    /// Whether step 0 sign-packs the float input as its only reader (its
    /// `convert` edge, or a fused conv chain's `pack` tile): the window is
    /// then packed from the caller's images and no bank holds a float copy.
    /// The plan books the value either way — the device runs the pack kernel.
    packs_in_place: bool,
}

impl ArenaState {
    /// Prepares every bank's host buffers for every value of `plan` —
    /// sized once here, never reallocated in steady state.
    fn stage(plan: &ExecutionPlan) -> Self {
        let mut banks: Vec<Vec<SlotStorage>> = (0..plan.banks)
            .map(|_| plan.slots.iter().map(|_| SlotStorage::default()).collect())
            .collect();
        // Step 0 reads the network input; nothing else may.
        let readers = plan.steps.iter().filter(|s| s.input == plan.input_value);
        let packs_in_place = plan.values[plan.input_value].kind == ValueKind::Floats
            && readers.count() == 1
            && plan.steps[0].convert.is_some()
            && plan.steps[0].op.consumes() == ValueKind::Bits;
        for bank in banks.iter_mut() {
            for (i, v) in plan.values.iter().enumerate() {
                if !(packs_in_place && i == plan.input_value) {
                    bank[v.slot].prepare(v.kind, v.shape);
                }
            }
        }
        Self {
            banks,
            bank: 0,
            primed: false,
            packs_in_place,
        }
    }

    /// Checks `window` against the input kind `staged`'s model takes and
    /// stages it into the active bank's input slot — or, when step 0 packs
    /// it in place, copies nothing and hands the images on to the walk.
    fn stage_input<'w>(
        &mut self,
        staged: &StagedModel,
        window: Window<'w>,
    ) -> Result<Option<&'w [Tensor<f32>]>, EngineError> {
        let plan = &staged.plan;
        let slot = &mut self.banks[self.bank][plan.values[plan.input_value].slot];
        let mismatch = |expected: &str, got: &str| {
            Err(EngineError::InputMismatch {
                expected: expected.into(),
                got: got.into(),
            })
        };
        match (window, staged.model.takes_u8_input()) {
            (Window::U8(images), true) => {
                let store = slot.bytes.as_mut().expect("arena slot: bytes staged");
                stage_lanes(Some(store), staged, images).map(|()| None)
            }
            (Window::F32(images), false) if self.packs_in_place => {
                stage_lanes(None, staged, images).map(|()| Some(images))
            }
            (Window::F32(images), false) => {
                let store = slot.floats.as_mut().expect("arena slot: floats staged");
                stage_lanes(Some(store), staged, images).map(|()| None)
            }
            (Window::U8(_), false) => mismatch("f32 input", "u8 images"),
            (Window::F32(_), true) => mismatch("u8 images", "f32 tensors"),
        }
    }
}

/// The one place caller input enters the engine: checks the window's size
/// and every image's shape and layout against `staged`, then copies each
/// image into its lane of the batched input slot `store` (none when step 0
/// reads the window in place) — plain copies into preallocated storage, no
/// allocation. A lane is one contiguous NHWC image, so an image in any other
/// layout is refused rather than reinterpreted.
fn stage_lanes<T: phonebit_tensor::tensor::Element>(
    store: Option<&mut Tensor<T>>,
    staged: &StagedModel,
    images: &[Tensor<T>],
) -> Result<(), EngineError> {
    let (plan, single) = (&staged.plan, staged.model.input);
    if images.is_empty() || images.len() > plan.batch {
        return Err(EngineError::InputMismatch {
            expected: format!("1..={} images", plan.batch),
            got: format!("{} images", images.len()),
        });
    }
    for img in images {
        if img.shape() != single {
            return Err(EngineError::InputMismatch {
                expected: single.to_string(),
                got: img.shape().to_string(),
            });
        }
        if img.layout() != Layout::Nhwc {
            return Err(EngineError::InputMismatch {
                expected: format!("{} {single}", Layout::Nhwc),
                got: img.layout().to_string(),
            });
        }
    }
    let Some(store) = store else { return Ok(()) };
    // Every lane is stored once; a short window's trailing lanes as zeros.
    store.reset_for_overwrite(plan.input, Layout::Nhwc);
    let mut lanes = store.as_mut_slice().chunks_exact_mut(single.len());
    for (img, lane) in images.iter().zip(lanes.by_ref()) {
        lane.copy_from_slice(img.as_slice());
    }
    lanes.for_each(|lane| lane.fill(T::default()));
    Ok(())
}

/// One request window borrowed from the caller: up to the lane's staged
/// batch of single images, of the kind its model takes. The borrow lasts
/// through the walk: a float window step 0 sign-packs is read in place.
#[derive(Debug, Clone, Copy)]
pub enum Window<'a> {
    /// 8-bit images (models whose first layer is [`PbitLayer::BConvInput8`]).
    U8(&'a [Tensor<u8>]),
    /// Float inputs (models whose first layer is already binary or float).
    F32(&'a [Tensor<f32>]),
}

/// The mutable, per-stream half of an inference engine: one command queue
/// (with its timeline) over one **lane** per staged model the stream can
/// run — that model's prepared arena banks, double-buffer cursor and primed
/// flag — and one device arena slice every lane fits.
///
/// [`Stream::new`] welds a stream to a single [`StagedModel`] (what a
/// [`Session`] drives). [`Stream::pooled`] gives it a lane per co-resident
/// tenant over a **single pooled booking** against the shared budgeted
/// [`Context`]: any tenant whose `banks × Σ slots` fits the slice can run on
/// the stream — which is every registered tenant, by construction — so an
/// idle stream can steal the next window regardless of which model it
/// belongs to, and the device footprint of `S` streams is
/// `S × max_tenant(arena)` instead of `S × Σ_tenants(arena)`. The serving
/// runtime ([`DeviceRuntime`](crate::serve::DeviceRuntime)) hands its pooled
/// streams to `gpusim::exec` like kernel rows — in order on the caller on a
/// one-thread host, spread over the host's threads otherwise — a shared
/// [`DeviceClock`] arbitrating the GPU between their queues; a dry
/// runtime's streams hold the booking and no lanes.
#[derive(Debug)]
pub struct Stream {
    lanes: Vec<(Arc<StagedModel>, ArenaState)>,
    queue: CommandQueue,
    /// The arena slice, booked against the budget for the stream's
    /// lifetime (arena-true `resident_bytes`). The bytes the kernels touch
    /// are the lanes' host buffers, so nothing backs the booking.
    arena_slice: Buffer,
    capture_output: bool,
}

impl Stream {
    /// Stages one stream over a shared [`StagedModel`]: a single lane, its
    /// arena slice booked against the model's own context, and a private
    /// unclocked command queue.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when this stream's arena banks
    /// no longer fit the app budget alongside the weights and every
    /// already-staged stream.
    pub fn new(staged: Arc<StagedModel>) -> Result<Self, EngineError> {
        let slice_bytes = staged.plan().staged_arena_bytes();
        Self::pooled(&[Arc::clone(&staged)], slice_bytes, &staged.ctx, None)
    }

    /// Stages one pooled stream: books a `slice_bytes` arena slice against
    /// the shared context, prepares a lane per tenant (all staged into
    /// `ctx`) through the same fit check live attach uses, and attaches the
    /// stream's queue to `clock` when given, so co-resident streams contend
    /// for the GPU instead of each pretending to own it. With no tenants it
    /// is a dry runtime's stream: the booking alone.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when the slice no longer fits
    /// the shared budget next to the tenants' weights and the
    /// already-staged streams, or a tenant's staged arena exceeds it.
    pub fn pooled(
        tenants: &[Arc<StagedModel>],
        slice_bytes: usize,
        ctx: &Context,
        clock: Option<Arc<DeviceClock>>,
    ) -> Result<Self, EngineError> {
        let queue = CommandQueue::new(ctx.device().clone(), ExecutorClass::PhoneBitOpenCl);
        let mut stream = Self {
            lanes: Vec::with_capacity(tenants.len()),
            queue: match clock {
                Some(clock) => queue.with_clock(clock),
                None => queue,
            },
            arena_slice: ctx.reserve(slice_bytes)?,
            capture_output: true,
        };
        for staged in tenants {
            stream.attach_lane(staged)?;
        }
        Ok(stream)
    }

    /// Disables (or re-enables) cloning the final activations into
    /// [`RunReport::output`]. With capture off, steady-state runs touch no
    /// heap at all on the activation path.
    pub fn with_output_capture(mut self, capture: bool) -> Self {
        self.capture_output = capture;
        self
    }

    /// Device bytes of this stream's arena slice
    /// (`max_tenant(banks × Σ slots)`).
    pub fn slice_bytes(&self) -> usize {
        self.arena_slice.byte_len()
    }

    /// A cold lane for `staged`. The slice is **never regrown** — live
    /// attach and batch replans must not restage the surviving tenants — so
    /// the newcomer's staged arena has to fit it.
    fn lane_for(
        &self,
        staged: &Arc<StagedModel>,
    ) -> Result<(Arc<StagedModel>, ArenaState), EngineError> {
        let requested = staged.plan().staged_arena_bytes();
        if requested > self.slice_bytes() {
            return Err(EngineError::OutOfMemory(SimError::OutOfMemory {
                requested,
                in_use: 0,
                budget: self.slice_bytes(),
            }));
        }
        Ok((Arc::clone(staged), ArenaState::stage(staged.plan())))
    }

    /// Adds a lane for a dynamically attached tenant.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when the tenant's staged arena
    /// exceeds the existing slice.
    pub fn attach_lane(&mut self, staged: &Arc<StagedModel>) -> Result<(), EngineError> {
        let lane = self.lane_for(staged)?;
        self.lanes.push(lane);
        Ok(())
    }

    /// Removes lane `lane`; later lanes shift down one index. The other
    /// lanes (arenas, priming) are untouched — live detach never restages
    /// survivors.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn detach_lane(&mut self, lane: usize) {
        self.lanes.remove(lane);
    }

    /// Swaps lane `lane` for a restaged model (a shed-triggered batch
    /// replan), preparing a fresh cold arena for it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when the restaged arena
    /// exceeds the existing slice.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn replace_lane(
        &mut self,
        lane: usize,
        staged: &Arc<StagedModel>,
    ) -> Result<(), EngineError> {
        self.lanes[lane] = self.lane_for(staged)?;
        Ok(())
    }

    /// The dispatch timeline of the most recent window.
    fn timeline(&self) -> &[phonebit_gpusim::LaunchEvent] {
        self.queue.timeline()
    }

    /// Forgets every lane's double-buffer priming (and bank cursor): the
    /// next window of each lane is charged the cold per-run overhead again
    /// (a fresh request stream). The runtime calls this at the start of
    /// every serving pass, so the scheduler's cold-first-window model
    /// matches what actually executes on a reused stream.
    pub fn reset_lanes(&mut self) {
        for (_, arena) in &mut self.lanes {
            arena.primed = false;
            arena.bank = 0;
        }
    }

    /// Runs one window through lane `lane`'s plan: stages it into the
    /// lane's active bank, walks the plan over that bank, then rotates the
    /// bank so the next window stages into the other one. See
    /// [`Session::run_batch_u8`] for the window contract.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] when the window's kind is not
    /// the one the lane's model takes, the window is empty or larger than
    /// the lane's staged batch, or any image's shape disagrees or its
    /// layout is not NHWC.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is out of range.
    pub fn run_window(
        &mut self,
        lane: usize,
        window: Window<'_>,
    ) -> Result<RunReport, EngineError> {
        // A plain field borrow, not an Arc clone: the lane is disjoint
        // from the `queue` mutated below, and a refcount bump per window
        // would ping-pong the counter's cache line across every stream
        // thread in a sharded runtime.
        let (staged, arena) = &mut self.lanes[lane];
        let in_place = arena.stage_input(staged, window)?;
        Ok(walk_window(
            &mut self.queue,
            staged,
            arena,
            in_place,
            self.capture_output,
        ))
    }
}

/// Walks one checked window of `staged`'s plan over `arena`'s active bank
/// (input staged there, or `in_place` for step 0 to pack from) — the plan
/// walk every model of the plan takes, with `exec_step` as each step's body
/// — then rotates the bank so the next window stages into the other one.
fn walk_window(
    queue: &mut CommandQueue,
    staged: &StagedModel,
    arena: &mut ArenaState,
    in_place: Option<&[Tensor<f32>]>,
    capture_output: bool,
) -> RunReport {
    let plan = &staged.plan;
    queue.reset();
    // Cold windows pay the framework's per-run overhead. In a primed
    // batched stream the host prepared this window inside the previous
    // window's GPU time (per-slot double buffering), so steady-state
    // windows skip it.
    if arena.banks.len() == 1 || !arena.primed {
        let overhead = queue.per_run_overhead_s();
        queue.host_delay(overhead);
    }
    let bank = &mut arena.banks[arena.bank];
    let per_layer = walk_plan(queue, plan, |q, idx| {
        exec_step(q, staged, bank, idx, in_place.filter(|_| idx == 0));
    });

    let output = if capture_output {
        let out_val = &plan.values[plan.output_value()];
        let store = &bank[out_val.slot];
        Some(match out_val.kind {
            ValueKind::Bits => ActivationData::Bits(store.bits().clone()),
            ValueKind::Floats => ActivationData::Floats(store.floats().clone()),
            ValueKind::Bytes => ActivationData::Bytes(store.bytes_ref().clone()),
            _ => unreachable!("network outputs are activations"),
        })
    } else {
        None
    };
    if arena.banks.len() > 1 {
        arena.primed = true;
        arena.bank = (arena.bank + 1) % arena.banks.len();
    }
    RunReport {
        model: staged.model.name.clone(),
        total_s: queue.elapsed_s(),
        energy_j: queue.energy_j(),
        peak_bytes: staged.ctx.peak_bytes(),
        per_layer,
        output,
    }
}

/// An inference session: a model staged on a phone's GPU, single-image
/// ([`Session::new`]) or batched ([`Session::new_batched`]).
///
/// Internally a `Session` is the thin compatibility pairing of the two
/// halves the serving runtime uses separately: one [`StagedModel`] (shared,
/// immutable) driving exactly one [`Stream`] (private, mutable). Every
/// method delegates, so single-session behavior is identical to the
/// pre-split engine while [`DeviceRuntime`](crate::serve::DeviceRuntime)
/// can shard many streams over the same staged state.
///
/// # Examples
///
/// Build a tiny binary network with the Fig-3-style builder, stage it on
/// the Snapdragon 855 phone, and run one 8-bit image (the same flow as
/// `examples/quickstart.rs`):
///
/// ```
/// use phonebit_core::{NetworkBuilder, Session};
/// use phonebit_gpusim::Phone;
/// use phonebit_nn::{act::Activation, fuse::BnParams};
/// use phonebit_tensor::shape::{FilterShape, Shape4};
/// use phonebit_tensor::{Filters, Tensor};
///
/// let filters = Filters::from_fn(FilterShape::new(8, 3, 3, 3), |k, i, j, c| {
///     if (k + i + j + c) % 2 == 0 { 1.0 } else { -1.0 }
/// });
/// let model = NetworkBuilder::new("tiny", Shape4::new(1, 8, 8, 3))
///     .bconv_input8("conv1", filters, vec![0.0; 8], BnParams::identity(8), 1, 1)
///     .maxpool("pool1", 2, 2)
///     .dense_float("fc", vec![0.01; 4 * 4 * 8 * 4], vec![0.0; 4], Activation::Linear)
///     .softmax()
///     .build();
///
/// let mut session = Session::new(model, &Phone::xiaomi_9())?;
/// let image = Tensor::from_fn(Shape4::new(1, 8, 8, 3), |_, h, w, c| {
///     ((h * 7 + w * 3 + c * 11) % 256) as u8
/// });
/// let report = session.run_u8(&image)?;
/// let probs = report.output.unwrap().into_floats().unwrap();
/// assert_eq!(probs.shape(), Shape4::new(1, 1, 1, 4));
/// assert!((probs.as_slice().iter().sum::<f32>() - 1.0).abs() < 1e-5);
/// # Ok::<(), phonebit_core::EngineError>(())
/// ```
#[derive(Debug)]
pub struct Session {
    stream: Stream,
}

impl Session {
    /// Stages a model on the given phone's GPU: lowers it to its
    /// [`ExecutionPlan`], pre-flattens GEMM filter banks, and allocates
    /// the weight buffers **and the activation arena** against the phone's
    /// app memory budget, so staging fails with
    /// [`EngineError::OutOfMemory`] if the deployment cannot fit
    /// (PhoneBit's packed models always fit the paper's phones — unlike
    /// CNNdroid's float VGG16).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when weights plus arena exceed
    /// the app budget, or [`EngineError::DomainMismatch`] when the model's
    /// layer chain is domain-inconsistent (caught at staging, not
    /// mid-inference).
    pub fn new(model: PbitModel, phone: &Phone) -> Result<Self, EngineError> {
        Self::new_batched(model, phone, 1)
    }

    /// Stages a model for **batched** serving: weights and GEMM banks are
    /// staged once and shared across every request in a window, the arena
    /// is lowered at `n = batch` and double-banked, and each layer runs as
    /// one batch-covering dispatch. Use [`Session::run_batch_u8`] /
    /// [`Session::run_batch_f32`] to feed request windows.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::OutOfMemory`] when weights plus both arena
    /// banks exceed the app budget, [`EngineError::DomainMismatch`] for
    /// a domain-inconsistent model, or [`EngineError::InputMismatch`] when
    /// `batch == 0`.
    pub fn new_batched(model: PbitModel, phone: &Phone, batch: usize) -> Result<Self, EngineError> {
        let staged = StagedModel::stage(model, phone, batch)?;
        Ok(Self {
            stream: Stream::new(staged)?,
        })
    }

    /// [`Session::new_batched`] with explicit route overrides — set
    /// [`RouteOverrides::fusion`] to run the inter-layer fusion pass and
    /// execute each fused chain as a single dispatch.
    ///
    /// # Errors
    ///
    /// As [`Session::new_batched`].
    pub fn new_batched_opts(
        model: PbitModel,
        phone: &Phone,
        batch: usize,
        overrides: RouteOverrides,
    ) -> Result<Self, EngineError> {
        let ctx = Context::new(phone.gpu.clone(), phone.app_budget_bytes());
        let staged = StagedModel::stage_in(model, ctx, batch, &overrides)?;
        Ok(Self {
            stream: Stream::new(staged)?,
        })
    }

    /// Disables (or re-enables) cloning the final activations into
    /// [`RunReport::output`]. With capture off, steady-state runs touch no
    /// heap at all on the activation path.
    pub fn with_output_capture(mut self, capture: bool) -> Self {
        self.stream = self.stream.with_output_capture(capture);
        self
    }

    /// The staged model.
    pub fn model(&self) -> &PbitModel {
        self.staged().model()
    }

    /// The staged execution plan (routes, values, arena assignment).
    pub fn plan(&self) -> &ExecutionPlan {
        self.staged().plan()
    }

    /// Device memory currently booked (weights + activation arena), bytes.
    pub fn resident_bytes(&self) -> usize {
        self.staged().resident_bytes()
    }

    /// The staged half of the session's one lane.
    fn staged(&self) -> &StagedModel {
        &self.stream.lanes[0].0
    }

    /// The single-image entry points are for sessions staged at batch 1.
    fn check_single(&self) -> Result<(), EngineError> {
        match self.plan().batch {
            1 => Ok(()),
            batch => Err(EngineError::InputMismatch {
                expected: format!("batched window (stream staged at batch {batch})"),
                got: "single image".into(),
            }),
        }
    }

    /// The dispatch timeline of the most recent run — input to the
    /// Trepn-like power profiler (`phonebit-profiler`).
    pub fn timeline(&self) -> &[phonebit_gpusim::LaunchEvent] {
        self.stream.timeline()
    }

    /// Runs inference on an 8-bit image (models whose first layer is
    /// [`PbitLayer::BConvInput8`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] when the model takes float
    /// input, the session is batched, or the shape disagrees.
    pub fn run_u8(&mut self, input: &Tensor<u8>) -> Result<RunReport, EngineError> {
        self.check_single()?;
        // A window is staged lane by lane and takes NHWC only; a lone
        // image in another layout has always been served, so convert it.
        self.run_batch_u8(std::slice::from_ref(&*input.nhwc()))
    }

    /// Runs inference on float input (models whose first layer is already
    /// binary or float).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] when the model takes `u8`
    /// input, the session is batched, or the shape disagrees.
    pub fn run_f32(&mut self, input: &Tensor<f32>) -> Result<RunReport, EngineError> {
        self.check_single()?;
        self.run_batch_f32(std::slice::from_ref(&*input.nhwc()))
    }

    /// Runs one batched window of up to `batch` 8-bit images through a
    /// session staged with [`Session::new_batched`]. Every layer executes
    /// as one dispatch covering the whole window; the report's `output`
    /// holds the batched activations (split per request with
    /// [`ActivationData::image`]). Windows shorter than the staged batch
    /// still dispatch the full batched grid (the trailing lanes are
    /// zeroed), which is exactly what a real batched kernel pays.
    ///
    /// After the first window the stream is *primed*: double buffering
    /// overlaps the next window's host staging with the current window's
    /// GPU compute, so the per-run framework overhead disappears from
    /// steady-state reports (reset with [`Session::reset_stream`]).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] when the model takes float
    /// input, the window is empty or larger than the staged batch, or any
    /// image's shape disagrees.
    pub fn run_batch_u8(&mut self, images: &[Tensor<u8>]) -> Result<RunReport, EngineError> {
        self.stream.run_window(0, Window::U8(images))
    }

    /// [`Session::run_batch_u8`] for float-input models.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InputMismatch`] under the same conditions as
    /// [`Session::run_batch_u8`].
    pub fn run_batch_f32(&mut self, images: &[Tensor<f32>]) -> Result<RunReport, EngineError> {
        self.stream.run_window(0, Window::F32(images))
    }

    /// Forgets the double-buffer priming so the next batched window is
    /// charged the cold per-run overhead again (a fresh request stream).
    pub fn reset_stream(&mut self) {
        self.stream.reset_lanes();
    }
}

/// Refuses a model with a convolution or pool window larger than its
/// (padded) input — lowering sizes every value assuming each window fits.
pub(crate) fn check_windows(model: &PbitModel) -> Result<(), EngineError> {
    let (mut h, mut w) = (model.input.h, model.input.w);
    for layer in &model.layers {
        let geom = match layer {
            PbitLayer::BConvInput8 { geom, .. }
            | PbitLayer::BConv { geom, .. }
            | PbitLayer::FConv { geom, .. } => *geom,
            PbitLayer::MaxPoolBits { geom, .. } | PbitLayer::MaxPoolF32 { geom, .. } => {
                ConvGeometry::square(geom.size, geom.stride, 0)
            }
            PbitLayer::DenseBin { .. } | PbitLayer::DenseFloat { .. } => {
                (h, w) = (1, 1);
                continue;
            }
            PbitLayer::Softmax => continue,
        };
        let (ph, pw) = (h + 2 * geom.pad_h, w + 2 * geom.pad_w);
        if ph < geom.kh || pw < geom.kw {
            return Err(EngineError::Unsupported {
                layer: layer.name().to_string(),
                reason: format!("a {}x{} window over a {ph}x{pw} input", geom.kh, geom.kw),
            });
        }
        (h, w) = geom.output_hw(h, w);
    }
    Ok(())
}

/// Checks `layer` against itself and its planned input `s` — no empty
/// input or convolution, one threshold or bias per filter, the geometry's
/// taps, the input's channels — so a corrupt model fails to stage instead
/// of panicking in a kernel.
fn check_layer(layer: &PbitLayer, s: Shape4) -> Result<(), String> {
    if s.is_empty() {
        return Err(format!("an empty {s} input"));
    }
    let features = s.h * s.w * s.c;
    let (fs, outputs, in_c) = match layer {
        PbitLayer::BConvInput8 { filters, fused, .. } | PbitLayer::BConv { filters, fused, .. } => {
            (filters.shape(), fused.len(), s.c)
        }
        PbitLayer::FConv { filters, bias, .. } => (filters.shape(), bias.len(), s.c),
        PbitLayer::DenseBin { weights, fused, .. } => (weights.shape(), fused.len(), features),
        PbitLayer::DenseFloat { weights, bias, .. } if weights.len() != bias.len() * features => {
            let (w, out) = (weights.len(), bias.len());
            return Err(format!("{w} weights for {out}x{features}"));
        }
        _ => return Ok(()),
    };
    let (gh, gw, conv) = match layer {
        PbitLayer::BConvInput8 { geom, .. }
        | PbitLayer::BConv { geom, .. }
        | PbitLayer::FConv { geom, .. } => (geom.kh, geom.kw, true),
        _ => (1, 1, false),
    };
    let FilterShape { k, kh, kw, c } = fs;
    if conv && fs.is_empty() {
        Err(format!("an empty {k}x{kh}x{kw}x{c} filter bank"))
    } else if outputs != k {
        Err(format!("{outputs} thresholds or biases for {k} filters"))
    } else if (gh, gw) != (kh, kw) {
        Err(format!("a {gh}x{gw} geometry over {kh}x{kw} filters"))
    } else if c != in_c {
        Err(format!("{c}-channel filters over {in_c} input channels"))
    } else {
        Ok(())
    }
}

/// Stages a binary convolution's `filters` for the body `path` runs: the
/// unfused route accumulates every filter's lanes, and its pack decides.
fn stage_bconv(
    filters: &PackedFilters<u64>,
    fused: &FusedBn,
    path: ConvPath,
    geom: &ConvGeometry,
) -> StagedBank {
    match path {
        ConvPath::DirectUnfused => StagedBank::Accum(LaneBank::new(filters)),
        ConvPath::DirectFused => StagedBank::Fused(DirectBank::new(filters, fused, Some(geom))),
        ConvPath::LoweredGemm => StagedBank::Fused(DirectBank::new(filters, fused, None)),
    }
}

/// A binary layer's staged bank: decided on its lanes (every fused route and
/// the binary dense layer), or the unfused route's every filter's lanes,
/// which its pack pass decides.
#[derive(Debug, Clone)]
enum StagedBank {
    Fused(DirectBank<u64>),
    Accum(LaneBank<u64>),
}

impl StagedModel {
    /// The staged bank of the binary convolution or dense layer at `layer`.
    fn staged(&self, layer: usize) -> &StagedBank {
        self.banks[layer]
            .as_ref()
            .expect("every routed binary convolution and binary dense layer stages a bank")
    }

    /// [`staged`](Self::staged) of a layer on a fused route.
    fn bank(&self, layer: usize) -> &DirectBank<u64> {
        match self.staged(layer) {
            StagedBank::Fused(bank) => bank,
            StagedBank::Accum(_) => unreachable!("the unfused route decides in its pack pass"),
        }
    }

    /// [`bank`](Self::bank) of a layer whose route reads the tiled lanes.
    fn lanes(&self, layer: usize) -> &FusedLanes<u64> {
        match self.bank(layer) {
            DirectBank::Lanes(lanes) => lanes,
            DirectBank::Taps(_) => unreachable!("only the direct fused route stages taps"),
        }
    }

    /// The staged bank of the float convolution at `layer`.
    fn float_bank(&self, layer: usize) -> &FloatConvBank {
        self.float_banks[layer]
            .as_ref()
            .expect("every float convolution stages a bank")
    }

    /// The staged bank and cuts of the 8-bit first layer.
    fn byte_bank(&self) -> &(ByteBank, PlaneCuts) {
        self.byte_bank
            .as_ref()
            .expect("an 8-bit first layer stages a byte bank")
    }
}

/// A step's staged dispatch list, launched in order: each
/// [`run`](Self::run) pairs the next profile with the body that computes
/// it — an empty body where the host has nothing to do.
struct Launches<'a> {
    q: &'a mut CommandQueue,
    list: std::slice::Iter<'a, KernelProfile>,
}

impl Launches<'_> {
    fn run(&mut self, body: impl FnOnce()) {
        let profile = self.list.next().expect("a staged profile per body");
        self.q.launch(profile.clone(), body);
    }
}

/// Executes one plan step: takes the step's writable slots out of the
/// arena, launches the step's staged profiles over the layer's kernel
/// bodies writing into them, and puts them back. All slot indices are
/// pairwise distinct by the liveness assignment, so the takes never collide
/// with the (shared) input slot. Steps carry their original layer index
/// (`step.index`), so fused plans — which have fewer steps than layers —
/// still resolve the right weights. Given a `window` (step 0, packed in
/// place) the sign-pack reads it, not the slot.
fn exec_step(
    q: &mut CommandQueue,
    staged: &StagedModel,
    arena: &mut [SlotStorage],
    idx: usize,
    window: Option<&[Tensor<f32>]>,
) {
    let (layers, plan) = (&staged.model.layers, &staged.plan);
    let step = &plan.steps[idx];
    let slot_of = |v: usize| plan.values[v].slot;
    let out_slot = slot_of(step.output);
    let mut out = std::mem::take(&mut arena[out_slot]);
    let mut cvt = step
        .convert
        .map(|v| (v, std::mem::take(&mut arena[slot_of(v)])));
    let mut scr = step
        .scratch
        .map(|v| (v, std::mem::take(&mut arena[slot_of(v)])));
    let in_store = &arena[slot_of(step.input)];
    // What a sign-pack reads: the caller's images, or the slot as a window.
    let floats_in = window.or_else(|| in_store.floats.as_ref().map(std::slice::from_ref));
    // Every body writes its output from zeros at the planned shape.
    out.reset(&plan.values[step.output]);
    let mut l = Launches {
        q,
        list: staged.profiles[idx].iter(),
    };

    if let StepOp::FusedGroup { kind, members } = &step.op {
        // A fused group's scratch is its ring or mid-row tile, read zeroed.
        let scr = scr.as_mut().map(|(v, store)| {
            store.reset(&plan.values[*v]);
            store
        });
        let cvt = cvt.as_mut().map(|(_, store)| store);
        exec_fused_group(
            &mut l, staged, *kind, members, in_store, floats_in, cvt, scr, &mut out,
        );
    } else {
        // The edge conversion, once for every op: a conversion value is of
        // the kind its op consumes, which says which way to convert, and
        // the op then reads the converted slot instead of the input.
        if let Some((_, c)) = cvt.as_mut() {
            match step.op.consumes() {
                ValueKind::Bits => {
                    let images = floats_in.expect("arena slot: floats staged");
                    let bits = c.bits_mut();
                    l.run(|| kernels::compute_pack_input(images, step.in_shape, bits));
                }
                // A float head staged as sign pairs reads the bits itself.
                _ if matches!(
                    staged.float_banks[step.index],
                    Some(FloatConvBank::Signs(_))
                ) =>
                {
                    l.run(|| {})
                }
                _ => {
                    let (bits, floats) = (in_store.bits(), c.floats_mut());
                    l.run(|| unpack_f32_into(bits, floats));
                }
            }
        }
        let src = cvt.as_ref().map_or(in_store, |(_, c)| c);
        match &layers[step.index] {
            PbitLayer::BConvInput8 { geom, .. } => {
                // The device splits the planes; the host's byte dot reads
                // the image itself, so the split has nothing to do here.
                let (image, (bank, cuts)) = (src.bytes_ref(), staged.byte_bank());
                let out = out.bits_mut();
                l.run(|| {});
                l.run(|| bytedot::compute_byte_conv(image, bank, cuts, geom, out));
            }
            PbitLayer::BConv { geom, fused, .. } => {
                // The planner cost-modeled direct-tiled vs. lowered-GEMM on
                // this device once at staging time (the §VI-B C > 256
                // integration limit folds into the direct-path choice);
                // inference only follows the staged route, over the bank and
                // cuts staged for it.
                let route = step.route.expect("BConv step carries a route");
                let (bits_in, idx) = (src.bits(), step.index);
                let out = out.bits_mut();
                match route.path {
                    ConvPath::LoweredGemm => {
                        // A pointwise conv plans no windows: its input is
                        // the GEMM view.
                        let windows = match scr.as_mut() {
                            Some((_, s)) => {
                                let windows = s.bits_mut();
                                l.run(|| bgemm::pack_windows_into(bits_in, geom, &mut *windows));
                                &*windows
                            }
                            None => bits_in,
                        };
                        let lanes = staged.lanes(idx);
                        l.run(|| bgemm::compute_bgemm(windows, lanes, out));
                    }
                    ConvPath::DirectFused => {
                        let bank = staged.bank(idx);
                        l.run(|| bconv::compute_bconv_fused(bits_in, bank, geom, out));
                    }
                    ConvPath::DirectUnfused => {
                        let (v, s) = scr.as_mut().expect("accumulator scratch planned");
                        s.reset(&plan.values[*v]);
                        let StagedBank::Accum(bank) = staged.staged(idx) else {
                            unreachable!("the unfused route stages every filter's lanes")
                        };
                        let accum = s.accum_mut();
                        l.run(|| bconv::compute_bconv_accum(bits_in, bank, geom, &mut *accum));
                        l.run(|| bconv::compute_binarize_pack(accum, fused, out));
                    }
                }
            }
            PbitLayer::FConv {
                geom,
                bias,
                activation,
                ..
            } => {
                let (act, out) = (*activation, out.floats_mut());
                match staged.float_bank(step.index) {
                    FloatConvBank::Floats(bank) => {
                        let input = src.floats();
                        l.run(|| fconv::compute_fconv(input, bank, bias, act, geom, out));
                    }
                    FloatConvBank::Signs(bank) => {
                        let bits = in_store.bits();
                        l.run(|| fconv::compute_fconv_bits(bits, bank, bias, act, geom, out));
                    }
                }
            }
            PbitLayer::MaxPoolBits { geom, .. } => {
                let (input, out) = (src.bits(), out.bits_mut());
                l.run(|| pool::compute_maxpool_bits(input, geom, out));
            }
            PbitLayer::MaxPoolF32 { geom, .. } => {
                let (input, out) = (src.floats(), out.floats_mut());
                l.run(|| pool::compute_maxpool_f32(input, geom, out));
            }
            PbitLayer::DenseBin { .. } => {
                // The bit-preserving flatten is host-side staging, not a
                // dispatched kernel.
                let (_, flat) = scr.as_mut().expect("flatten scratch planned");
                dense::flatten_bits_into(src.bits(), flat.bits_mut());
                let (flat, lanes, out) = (flat.bits(), staged.lanes(step.index), out.bits_mut());
                l.run(|| dense::compute_dense_bin(flat, lanes, out));
            }
            PbitLayer::DenseFloat {
                weights,
                bias,
                activation,
                ..
            } => {
                // One dispatch covers every image in the window.
                let (input, out) = (src.floats().as_slice(), out.floats_mut().as_mut_slice());
                l.run(|| dense::compute_dense_float(input, weights, bias, *activation, out));
            }
            PbitLayer::Softmax => {
                // One dispatch normalizes every image's row of logits.
                let out = out.floats_mut().as_mut_slice();
                out.copy_from_slice(src.floats().as_slice());
                let features = out.len() / step.in_shape.n;
                l.run(|| out.chunks_exact_mut(features).for_each(act::softmax));
            }
        }
    }
    debug_assert_eq!(l.list.len(), 0, "{}: a body per staged profile", step.name);
    arena[out_slot] = out;
    for (v, store) in cvt.into_iter().chain(scr) {
        arena[slot_of(v)] = store;
    }
}

/// Executes one fused group as its single dispatch. Member weights resolve
/// through the members' original layer indices; the group's convert slot
/// carries the absorbed staging tile (bit-planes, pack tile, or the dense
/// flatten row) and the scratch slot the pool ring (conv chains with a pool
/// epilogue) or the mid-row tile (dense chains), reset.
#[allow(clippy::too_many_arguments)]
fn exec_fused_group(
    l: &mut Launches<'_>,
    staged: &StagedModel,
    kind: FusedKind,
    members: &[FusedMember],
    in_store: &SlotStorage,
    floats_in: Option<&[Tensor<f32>]>,
    cvt: Option<&mut SlotStorage>,
    scr: Option<&mut SlotStorage>,
    out: &mut SlotStorage,
) {
    let layers = &staged.model.layers;
    let out = out.bits_mut();
    match kind {
        FusedKind::ConvChain => {
            // The pool epilogue and its ring tile, when a pool rides along.
            let pool = members.get(1).map(|m| match &layers[m.layer] {
                PbitLayer::MaxPoolBits { geom, .. } => {
                    (geom, scr.expect("a pool chain plans its ring").bits_mut())
                }
                _ => unreachable!("conv chain epilogue is a bit-domain pool"),
            });
            match &layers[members[0].layer] {
                PbitLayer::BConvInput8 { geom, .. } => {
                    let (image, (bank, cuts)) = (in_store.bytes_ref(), staged.byte_bank());
                    l.run(|| match pool {
                        Some((p, ring)) => {
                            fused::compute_in8_pool_chain(image, bank, cuts, geom, p, ring, out)
                        }
                        None => bytedot::compute_byte_conv(image, bank, cuts, geom, out),
                    });
                }
                PbitLayer::BConv { geom, .. } => {
                    let bank = staged.bank(members[0].layer);
                    let conv = |input: &BitTensor<u64>, out: &mut BitTensor<u64>| match pool {
                        Some((p, ring)) => {
                            fused::compute_bconv_pool_chain(input, bank, geom, p, ring, out)
                        }
                        None => bconv::compute_bconv_fused(input, bank, geom, out),
                    };
                    match cvt {
                        Some(pack) => {
                            let images = floats_in.expect("arena slot: floats staged");
                            let (s, tile) = (members[0].in_shape, pack.bits_mut());
                            l.run(|| {
                                kernels::compute_pack_input(images, s, tile);
                                conv(tile, out)
                            });
                        }
                        None => {
                            let input = in_store.bits();
                            l.run(|| conv(input, out));
                        }
                    }
                }
                _ => unreachable!("conv chains start at a binary convolution"),
            }
        }
        FusedKind::DenseChain => {
            // The flatten stays host-side data movement, as on the split
            // path; both matvecs run in the one dispatch.
            let flat = cvt.expect("flatten tile planned").bits_mut();
            let mid = scr.expect("mid-row tile planned").bits_mut();
            dense::flatten_bits_into(in_store.bits(), flat);
            let (l1, l2) = (
                staged.lanes(members[0].layer),
                staged.lanes(members[1].layer),
            );
            l.run(|| {
                dense::compute_dense_bin(flat, l1, mid);
                dense::compute_dense_bin(mid, l2, out);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::convert;
    use phonebit_nn::act::Activation;
    use phonebit_nn::fuse::BnParams;
    use phonebit_nn::graph::{
        ConvWeights, DenseWeights, LayerPrecision, LayerSpec, LayerWeights, NetworkArch, NetworkDef,
    };
    use phonebit_tensor::shape::FilterShape;
    use phonebit_tensor::tensor::Filters;

    fn small_def() -> NetworkDef {
        let arch = NetworkArch::new("small", Shape4::new(1, 8, 8, 3))
            .conv(
                "conv1",
                16,
                3,
                1,
                1,
                LayerPrecision::BinaryInput8,
                Activation::Linear,
            )
            .maxpool("pool1", 2, 2)
            .conv(
                "conv2",
                24,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .maxpool("pool2", 2, 2)
            .dense("fc", 10, LayerPrecision::Float, Activation::Linear)
            .softmax();
        let infos = arch.infer();
        let mut weights = Vec::new();
        for (layer, info) in arch.layers.iter().zip(infos.iter()) {
            weights.push(match layer {
                LayerSpec::Conv(c) => LayerWeights::Conv(ConvWeights {
                    filters: Filters::from_fn(
                        FilterShape::new(c.out_channels, 3, 3, info.input.c),
                        |k, i, j, ch| (((k * 31 + i * 7 + j * 3 + ch) % 5) as f32) - 2.0,
                    ),
                    bias: (0..c.out_channels)
                        .map(|i| (i % 3) as f32 * 0.2 - 0.2)
                        .collect(),
                    bn: Some(BnParams {
                        gamma: (0..c.out_channels)
                            .map(|i| if i % 5 == 0 { -0.8 } else { 1.2 })
                            .collect(),
                        beta: (0..c.out_channels).map(|i| (i % 4) as f32 * 0.1).collect(),
                        mu: (0..c.out_channels).map(|i| (i % 7) as f32 * 3.0).collect(),
                        sigma: vec![5.0; c.out_channels],
                    }),
                }),
                LayerSpec::Dense(d) => {
                    let in_f = info.input.h * info.input.w * info.input.c;
                    LayerWeights::Dense(DenseWeights {
                        weights: (0..in_f * d.out_features)
                            .map(|i| ((i * 13) % 9) as f32 - 4.0)
                            .collect(),
                        bias: (0..d.out_features).map(|i| i as f32 * 0.01).collect(),
                        bn: None,
                    })
                }
                _ => LayerWeights::None,
            });
        }
        NetworkDef { arch, weights }
    }

    fn image() -> Tensor<u8> {
        Tensor::from_fn(Shape4::new(1, 8, 8, 3), |_, h, w, c| {
            ((h * 37 + w * 11 + c * 101) % 256) as u8
        })
    }

    #[test]
    fn plane_scratch_is_sized_by_the_plan() {
        // The plan reserves YOLOv2-Tiny's 1.38 MB of device planes (not
        // 11.07 MB); the host's byte dot reads the image, so the slot that
        // hosts them allocates nothing.
        let shape = Shape4::new(1, 416, 416, 3);
        assert_eq!(ValueKind::Planes8.bytes(shape), 416 * 416 * 8);
        let mut slot = SlotStorage::default();
        slot.prepare(ValueKind::Planes8, shape);
        let SlotStorage {
            bytes,
            bits,
            floats,
            accum,
        } = slot;
        assert!(bytes.is_none() && bits.is_none() && floats.is_none() && accum.is_none());
    }

    #[test]
    fn session_runs_end_to_end() {
        let model = convert(&small_def());
        let mut session = Session::new(model, &Phone::xiaomi_9()).unwrap();
        let report = session.run_u8(&image()).unwrap();
        assert_eq!(report.per_layer.len(), 6);
        assert!(report.total_s > 0.0);
        assert!(report.energy_j > 0.0);
        // Softmax output sums to 1.
        let out = report.output.clone().unwrap().into_floats().unwrap();
        let sum: f32 = out.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5, "softmax sum {sum}");
        assert_eq!(out.shape(), Shape4::new(1, 1, 1, 10));
    }

    #[test]
    fn deterministic_across_runs() {
        let model = convert(&small_def());
        let mut session = Session::new(model, &Phone::xiaomi_9()).unwrap();
        let a = session.run_u8(&image()).unwrap();
        let b = session.run_u8(&image()).unwrap();
        let ta = a.output.unwrap().into_floats().unwrap();
        let tb = b.output.unwrap().into_floats().unwrap();
        assert_eq!(ta, tb);
        assert!(
            (a.total_s - b.total_s).abs() < 1e-12,
            "modeled time is deterministic"
        );
    }

    #[test]
    fn estimate_mode_times_without_computing() {
        // An estimate is the session's own plan walk with empty bodies:
        // the same modeled time, step for step, and nothing computed.
        let def = small_def();
        let mut exec = Session::new(convert(&def), &Phone::xiaomi_9()).unwrap();
        let real = exec.run_u8(&image()).unwrap();
        let modeled = crate::estimate::estimate_arch(&Phone::xiaomi_9(), &def.arch);
        assert_eq!(real.total_s.to_bits(), modeled.total_s.to_bits());
        let times = |r: &RunReport| -> Vec<u64> {
            r.per_layer.iter().map(|l| l.time_s.to_bits()).collect()
        };
        assert_eq!(times(&real), times(&modeled));
        assert!(modeled.output.is_none());
    }

    #[test]
    fn faster_on_newer_phone() {
        let model = convert(&small_def());
        let mut s5 = Session::new(model.clone(), &Phone::xiaomi_5()).unwrap();
        let mut s9 = Session::new(model, &Phone::xiaomi_9()).unwrap();
        let t5 = s5.run_u8(&image()).unwrap().total_s;
        let t9 = s9.run_u8(&image()).unwrap().total_s;
        assert!(t9 < t5, "SD855 ({t9}) must beat SD820 ({t5})");
    }

    #[test]
    fn wide_conv_follows_cached_planner_route() {
        use phonebit_tensor::bits::PackedFilters;
        use phonebit_tensor::pack::pack_f32;
        use phonebit_tensor::shape::{ConvGeometry, FilterShape};

        // C = 512 (> integration limit), K = 512: the planner weighs the
        // int32 round trip against the im2col round trip. Whatever it
        // picks at staging time, inference must follow the cached route
        // and stay bit-exact with the direct fused kernel.
        let (c, k) = (512usize, 512usize);
        let geom = ConvGeometry::square(3, 1, 1);
        let mut filters = PackedFilters::<u64>::zeros(FilterShape::new(k, 3, 3, c));
        for kk in 0..k {
            for i in 0..3 {
                for j in 0..3 {
                    for ch in 0..c {
                        filters.set_bit(kk, i, j, ch, (kk * 7 + i + j * 3 + ch).is_multiple_of(3));
                    }
                }
            }
        }
        let fused = phonebit_nn::fuse::FusedBn::identity(k);
        let model = PbitModel {
            name: "wide".into(),
            input: Shape4::new(1, 6, 6, c),
            layers: vec![PbitLayer::BConv {
                name: "conv".into(),
                geom,
                filters: filters.clone(),
                fused: fused.clone(),
            }],
        };
        let input = Tensor::from_fn(Shape4::new(1, 6, 6, c), |_, h, w, ch| {
            if (h * 5 + w * 3 + ch).is_multiple_of(2) {
                1.0
            } else {
                -1.0
            }
        });

        let plan = crate::planner::select_conv_path(&Phone::xiaomi_9().gpu, 36, k, c, &geom);
        let mut session = Session::new(model, &Phone::xiaomi_9()).unwrap();
        let report = session.run_f32(&input).unwrap();

        // The dispatched kernels match the staged route.
        let names: Vec<&str> = session.timeline().iter().map(|e| e.stats.name).collect();
        match plan.path {
            crate::planner::ConvPath::LoweredGemm => {
                assert!(
                    names.contains(&"bgemm_fused"),
                    "route {:?}: {names:?}",
                    plan.path
                )
            }
            crate::planner::ConvPath::DirectFused => {
                assert!(
                    names.contains(&"bconv_fused"),
                    "route {:?}: {names:?}",
                    plan.path
                )
            }
            crate::planner::ConvPath::DirectUnfused => {
                assert!(
                    names.contains(&"bconv_accum"),
                    "route {:?}: {names:?}",
                    plan.path
                )
            }
        }

        // Bit-exact against the direct fused kernel.
        let mut q = CommandQueue::new(
            Phone::xiaomi_9().gpu,
            phonebit_gpusim::ExecutorClass::PhoneBitOpenCl,
        );
        let direct = phonebit_nn::kernels::bconv::bconv_fused(
            &mut q,
            &pack_f32::<u64>(&input),
            &filters,
            &fused,
            &geom,
        );
        match report.output.unwrap() {
            ActivationData::Bits(bits) => assert_eq!(bits, direct),
            other => panic!("expected packed bits, got {other:?}"),
        }
    }

    #[test]
    fn wrong_input_kind_is_reported() {
        let model = convert(&small_def());
        let mut session = Session::new(model, &Phone::xiaomi_9()).unwrap();
        let f32_input = Tensor::<f32>::zeros(Shape4::new(1, 8, 8, 3), Layout::Nhwc);
        let err = session.run_f32(&f32_input).unwrap_err();
        assert!(matches!(err, EngineError::InputMismatch { .. }));
    }

    #[test]
    fn wrong_input_shape_is_reported() {
        let model = convert(&small_def());
        let mut session = Session::new(model, &Phone::xiaomi_9()).unwrap();
        let bad = Tensor::<u8>::zeros(Shape4::new(1, 9, 9, 3), Layout::Nhwc);
        let err = session.run_u8(&bad).unwrap_err();
        assert!(matches!(err, EngineError::InputMismatch { .. }));
        // The right shape in the other layout is the same image: the
        // single-image entry point serves it, bit for bit.
        let want = session.run_u8(&image()).unwrap().output;
        let nchw = image().to_layout(Layout::Nchw);
        assert_eq!(session.run_u8(&nchw).unwrap().output, want);
    }

    #[test]
    fn a_first_layer_past_the_i32_sums_is_refused_at_staging() {
        use phonebit_tensor::shape::{ConvGeometry, FilterShape};
        let c = bitplane::MAX_WINDOW_BITS + 1;
        let model = PbitModel {
            name: "wide".into(),
            input: Shape4::new(1, 1, 1, c),
            layers: vec![PbitLayer::BConvInput8 {
                name: "conv1".into(),
                geom: ConvGeometry::square(1, 1, 0),
                filters: phonebit_tensor::bits::PackedFilters::zeros(FilterShape::new(1, 1, 1, c)),
                fused: phonebit_nn::fuse::FusedBn::identity(1),
            }],
        };
        let err = Session::new(model, &Phone::xiaomi_9()).unwrap_err();
        assert!(
            matches!(&err, EngineError::Unsupported { layer, .. } if layer == "conv1"),
            "{err}"
        );
    }

    /// Stages `arch` filled and converted with layer `name` corrupted by
    /// `corrupt`, after a `.pbit` round trip (which does not notice), and
    /// returns why staging refused it.
    fn staging_refusal(
        arch: &NetworkArch,
        name: &str,
        corrupt: impl FnOnce(&mut PbitLayer),
    ) -> String {
        use crate::format::{read_model, write_model};
        let mut model = convert(&phonebit_models::fill_weights(arch, 3));
        corrupt(
            model
                .layers
                .iter_mut()
                .find(|l| l.name() == name)
                .expect("layer"),
        );
        let model = read_model(&write_model(&model)).expect("the format checks no layer");
        let err = Session::new(model, &Phone::xiaomi_9()).expect_err("a corrupt layer staged");
        match err {
            EngineError::Unsupported { layer, reason } if layer == name => reason,
            other => panic!("{name}: {other}"),
        }
    }

    fn alexnet_micro() -> NetworkArch {
        phonebit_models::zoo::alexnet_micro(phonebit_models::zoo::Variant::Binary)
    }

    #[test]
    fn a_window_past_its_input_is_refused_at_staging() {
        // AlexNet-micro's pool3 sees 8x8, conv2 a padded 18x18.
        let reason = staging_refusal(&alexnet_micro(), "pool3", |layer| match layer {
            PbitLayer::MaxPoolBits { geom, .. } => geom.size = 9,
            _ => unreachable!(),
        });
        assert!(reason.contains("9x9 window over a 8x8"), "{reason}");
        let reason = staging_refusal(&alexnet_micro(), "conv2", |layer| match layer {
            PbitLayer::BConv { geom, .. } => geom.kw = 19,
            _ => unreachable!(),
        });
        assert!(reason.contains("window"), "{reason}");
    }

    #[test]
    fn a_threshold_short_of_the_filters_is_refused_at_staging() {
        for name in ["conv1", "conv2", "fc6"] {
            let reason = staging_refusal(&alexnet_micro(), name, |layer| match layer {
                PbitLayer::BConvInput8 { fused, .. }
                | PbitLayer::BConv { fused, .. }
                | PbitLayer::DenseBin { fused, .. } => {
                    fused.xi.pop();
                    fused.gamma_pos.pop();
                }
                _ => unreachable!(),
            });
            assert!(reason.contains("thresholds"), "{name}: {reason}");
        }
    }

    #[test]
    fn a_geometry_other_than_the_filters_is_refused_at_staging() {
        let reason = staging_refusal(&alexnet_micro(), "conv2", |layer| {
            let PbitLayer::BConv { geom, .. } = layer else {
                unreachable!()
            };
            (geom.kh, geom.kw) = (1, 1);
        });
        assert_eq!(reason, "a 1x1 geometry over 3x3 filters");
    }

    #[test]
    fn filters_wider_than_the_input_are_refused_at_staging() {
        use phonebit_tensor::bits::PackedFilters;
        let reason = staging_refusal(&alexnet_micro(), "conv2", |layer| {
            let PbitLayer::BConv { filters, .. } = layer else {
                unreachable!()
            };
            let fs = filters.shape();
            *filters = PackedFilters::zeros(FilterShape::new(fs.k, fs.kh, fs.kw, fs.c + 5));
        });
        assert_eq!(reason, "29-channel filters over 24 input channels");
    }

    #[test]
    fn a_float_conv_bias_short_of_the_filters_is_refused_at_staging() {
        let yolo = phonebit_models::zoo::yolo_micro(phonebit_models::zoo::Variant::Binary);
        let reason = staging_refusal(&yolo, "conv9", |layer| {
            let PbitLayer::FConv { bias, .. } = layer else {
                unreachable!()
            };
            bias.pop();
        });
        assert_eq!(reason, "124 thresholds or biases for 125 filters");
    }

    #[test]
    fn an_empty_convolution_or_input_is_refused_at_staging() {
        use phonebit_tensor::bits::PackedFilters;
        let yolo = phonebit_models::zoo::yolo_micro(phonebit_models::zoo::Variant::Binary);
        for name in ["conv1", "conv2", "conv9"] {
            let reason = staging_refusal(&yolo, name, |layer| match layer {
                PbitLayer::BConvInput8 { filters, fused, .. }
                | PbitLayer::BConv { filters, fused, .. } => {
                    let fs = filters.shape();
                    *filters = PackedFilters::zeros(FilterShape::new(0, fs.kh, fs.kw, fs.c));
                    *fused = phonebit_nn::fuse::FusedBn::identity(0);
                }
                PbitLayer::FConv { filters, bias, .. } => {
                    let fs = filters.shape();
                    *filters = Filters::zeros(FilterShape::new(0, fs.kh, fs.kw, fs.c));
                    bias.clear();
                }
                _ => unreachable!(),
            });
            assert!(reason.contains("empty 0x"), "{name}: {reason}");
        }
        // An input of no channels, into a convolution over no channels.
        let model = PbitModel {
            name: "empty".into(),
            input: Shape4::new(1, 4, 4, 0),
            layers: vec![PbitLayer::BConv {
                name: "conv".into(),
                geom: ConvGeometry::square(3, 1, 1),
                filters: PackedFilters::zeros(FilterShape::new(8, 3, 3, 0)),
                fused: phonebit_nn::fuse::FusedBn::identity(8),
            }],
        };
        let err = Session::new(model, &Phone::xiaomi_9()).unwrap_err();
        assert!(
            matches!(&err, EngineError::Unsupported { reason, .. } if reason.contains("empty [1x4x4x0]")),
            "{err}"
        );
    }

    #[test]
    fn a_float_dense_weight_short_is_refused_at_staging() {
        let reason = staging_refusal(&alexnet_micro(), "fc8", |layer| {
            let PbitLayer::DenseFloat { weights, .. } = layer else {
                unreachable!()
            };
            weights.pop();
        });
        assert_eq!(reason, "1279 weights for 10x128");
    }

    #[test]
    fn per_layer_times_sum_close_to_total() {
        let model = convert(&small_def());
        let mut session = Session::new(model, &Phone::xiaomi_9()).unwrap();
        let report = session.run_u8(&image()).unwrap();
        let layer_sum: f64 = report.per_layer.iter().map(|l| l.time_s).sum();
        // Total additionally includes the per-run overhead.
        assert!(layer_sum <= report.total_s);
        assert!(report.total_s - layer_sum < 1e-3);
    }

    #[test]
    fn timeline_is_exposed_for_profiling() {
        let model = convert(&small_def());
        let mut session = Session::new(model, &Phone::xiaomi_9()).unwrap();
        assert!(session.timeline().is_empty());
        let report = session.run_u8(&image()).unwrap();
        let events = session.timeline();
        assert!(!events.is_empty());
        // Timeline dispatch time is bounded by the report total (which adds
        // the per-run host overhead).
        let busy: f64 = events.iter().map(|e| e.stats.time_s).sum();
        assert!(busy <= report.total_s + 1e-12);
        // Power sampling over the real timeline works end to end.
        use phonebit_gpusim::calib::EnergyParams;
        use phonebit_gpusim::DeviceKind;
        let trace_avg = {
            // Downstream crates use phonebit-profiler; here we check the
            // inputs are sane: every event has positive time and energy.
            assert!(events
                .iter()
                .all(|e| e.stats.time_s > 0.0 && e.stats.energy_j > 0.0));
            EnergyParams::for_kind(DeviceKind::Gpu).p_static_w
        };
        assert!(trace_avg > 0.0);
    }

    fn images(count: usize) -> Vec<Tensor<u8>> {
        (0..count)
            .map(|i| {
                Tensor::from_fn(Shape4::new(1, 8, 8, 3), move |_, h, w, c| {
                    ((h * 37 + w * 11 + c * 101 + i * 53) % 256) as u8
                })
            })
            .collect()
    }

    #[test]
    fn batched_window_matches_single_runs_bit_exactly() {
        let model = convert(&small_def());
        let phone = Phone::xiaomi_9();
        let imgs = images(3);
        let mut batched = Session::new_batched(model.clone(), &phone, 3).unwrap();
        let report = batched.run_batch_u8(&imgs).unwrap();
        let out = report.output.expect("batched output");
        assert_eq!(out.shape().n, 3);
        let mut single = Session::new(model, &phone).unwrap();
        for (i, img) in imgs.iter().enumerate() {
            let want = single.run_u8(img).unwrap().output.unwrap();
            let got = out.image(i);
            let (want, got) = (
                want.into_floats().expect("float softmax"),
                got.into_floats().expect("float softmax"),
            );
            assert_eq!(want, got, "image {i} diverged from its solo run");
        }
    }

    #[test]
    fn batched_window_amortizes_dispatches_and_overhead() {
        let model = convert(&small_def());
        let phone = Phone::xiaomi_9();
        let imgs = images(4);
        let mut single = Session::new(model.clone(), &phone).unwrap();
        let solo = single.run_u8(&imgs[0]).unwrap();
        let solo_dispatches = single.timeline().len();

        let mut batched = Session::new_batched(model, &phone, 4).unwrap();
        let cold = batched.run_batch_u8(&imgs).unwrap();
        // One dispatch per kernel regardless of batch size.
        assert_eq!(batched.timeline().len(), solo_dispatches);
        // The window beats four sequential singles: launch overhead is paid
        // once per kernel and the framework overhead once per window.
        assert!(
            cold.total_s < 4.0 * solo.total_s,
            "batched {} vs 4x solo {}",
            cold.total_s,
            4.0 * solo.total_s
        );
        // A primed stream also stops paying the per-run overhead.
        let warm = batched.run_batch_u8(&imgs).unwrap();
        let overhead = CommandQueue::new(phone.gpu.clone(), ExecutorClass::PhoneBitOpenCl)
            .per_run_overhead_s();
        assert!((cold.total_s - warm.total_s - overhead).abs() < 1e-12);
        // Outputs stay identical across the bank flip.
        let a = cold.output.unwrap().into_floats().unwrap();
        let b = warm.output.unwrap().into_floats().unwrap();
        assert_eq!(a, b);
        // reset_stream charges the overhead again.
        batched.reset_stream();
        let recold = batched.run_batch_u8(&imgs).unwrap();
        assert!((recold.total_s - cold.total_s).abs() < 1e-12);
    }

    #[test]
    fn fused_session_matches_unfused_bit_exactly() {
        use crate::plan::FusionMode;
        let model = convert(&small_def());
        let phone = Phone::xiaomi_9();
        let imgs = images(4);
        let mut plain = Session::new(model.clone(), &phone).unwrap();
        let overrides = RouteOverrides {
            fusion: FusionMode::Force,
            ..Default::default()
        };
        let mut fused = Session::new_batched_opts(model.clone(), &phone, 1, overrides).unwrap();
        assert!(
            !fused.plan().chains.is_empty(),
            "small model carries fusible chains"
        );
        let want = plain.run_u8(&imgs[0]).unwrap();
        let got = fused.run_u8(&imgs[0]).unwrap();
        assert_eq!(
            want.output.unwrap().into_floats().unwrap(),
            got.output.unwrap().into_floats().unwrap(),
        );
        // One launch per fused group: the executed timeline length equals
        // the plan's modeled dispatch count, strictly below the unfused
        // session's — modeled and executed fusion agree by construction.
        assert_eq!(fused.timeline().len(), fused.plan().dispatches());
        assert!(fused.timeline().len() < plain.timeline().len());

        // A batched fused window stays bit-exact image by image.
        let mut fused4 = Session::new_batched_opts(model, &phone, 4, overrides).unwrap();
        let out = fused4.run_batch_u8(&imgs).unwrap().output.expect("output");
        for (i, img) in imgs.iter().enumerate() {
            let want = plain.run_u8(img).unwrap().output.unwrap();
            assert_eq!(
                want.into_floats().unwrap(),
                out.image(i).into_floats().unwrap(),
                "image {i}"
            );
        }
    }

    #[test]
    fn short_window_pads_lanes_and_matches_singles() {
        let model = convert(&small_def());
        let phone = Phone::xiaomi_9();
        let imgs = images(6);
        let mut batched = Session::new_batched(model.clone(), &phone, 4).unwrap();
        // A full window through each bank first: the short window below
        // lands in the bank the first one filled, two windows earlier, and
        // no lane of it may survive.
        batched.run_batch_u8(&imgs[2..]).unwrap();
        batched.run_batch_u8(&imgs[2..]).unwrap();
        let out = batched.run_batch_u8(&imgs[..2]).unwrap().output;
        let out = out.expect("output");
        let mut single = Session::new(model, &phone).unwrap();
        let blank = Tensor::<u8>::zeros(Shape4::new(1, 8, 8, 3), Layout::Nhwc);
        for (i, img) in [&imgs[0], &imgs[1], &blank, &blank].into_iter().enumerate() {
            let want = single.run_u8(img).unwrap().output.unwrap();
            assert_eq!(
                want.into_floats().unwrap(),
                out.image(i).into_floats().unwrap(),
                "image {i}"
            );
        }
    }

    /// A float-input model: one binary conv over C = 70 (a word and a
    /// tail), behind a 1x1 float conv when `float_first`.
    fn float_input_model(float_first: bool) -> PbitModel {
        use phonebit_tensor::shape::{ConvGeometry, FilterShape};
        let mut filters =
            phonebit_tensor::bits::PackedFilters::zeros(FilterShape::new(24, 3, 3, 70));
        for (k, t, ch) in (0..24 * 9 * 70).map(|i| (i / 630, i / 70 % 9, i % 70)) {
            filters.set_bit(k, t / 3, t % 3, ch, (k * 7 + t * 3 + ch) % 3 == 0);
        }
        let head = PbitLayer::FConv {
            name: "head".into(),
            geom: ConvGeometry::square(1, 1, 0),
            filters: Filters::from_fn(FilterShape::new(70, 1, 1, 70), |k, _, _, c| {
                ((k * 3 + c) % 5) as f32 - 2.0
            }),
            bias: vec![0.25; 70],
            activation: Activation::Linear,
        };
        let conv = PbitLayer::BConv {
            name: "conv".into(),
            geom: ConvGeometry::square(3, 1, 1),
            filters,
            fused: phonebit_nn::fuse::FusedBn::identity(24),
        };
        PbitModel {
            name: "float-in".into(),
            input: Shape4::new(1, 6, 6, 70),
            layers: if float_first {
                vec![head, conv]
            } else {
                vec![conv]
            },
        }
    }

    fn float_images(count: usize) -> Vec<Tensor<f32>> {
        (0..count)
            .map(|i| {
                Tensor::from_fn(Shape4::new(1, 6, 6, 70), move |_, h, w, c| {
                    ((h * 37 + w * 11 + c * 5 + i * 53) % 7) as f32 - 3.0
                })
            })
            .collect()
    }

    #[test]
    fn float_window_is_packed_where_it_lies_and_booked_as_before() {
        let phone = Phone::xiaomi_9();
        let imgs = float_images(2);
        let model = float_input_model(false);
        let weights = model.size_bytes();
        let mut session = Session::new_batched(model, &phone, 2).unwrap();

        // The plan and the device still hold the float window ...
        let plan = session.plan().clone();
        let input = &plan.values[plan.input_value];
        assert_eq!(
            (input.kind, input.bytes),
            (ValueKind::Floats, 2 * 36 * 70 * 4)
        );
        assert!(plan.slots[input.slot] >= input.bytes);
        assert_eq!(
            session.resident_bytes(),
            weights + plan.staged_arena_bytes()
        );
        // ... and no bank of the host arena does.
        let arena = &session.stream.lanes[0].1;
        assert!(arena.packs_in_place);
        assert_eq!(arena.banks.len(), 2);
        assert!(arena
            .banks
            .iter()
            .flatten()
            .all(|slot| slot.floats.is_none()));

        // A short window still dispatches the pack over the whole batch,
        // exactly as a standalone pack of the batched tensor is booked.
        session.run_batch_f32(&imgs[..1]).unwrap();
        let batched = Tensor::<f32>::zeros(plan.input, Layout::Nhwc);
        let mut q = CommandQueue::new(phone.gpu.clone(), ExecutorClass::PhoneBitOpenCl);
        kernels::pack_input_into(&mut q, &batched, &mut BitTensor::<u64>::zeros(plan.input));
        assert_eq!(session.timeline()[0].stats, q.timeline()[0].stats);
        assert_eq!(session.timeline().len(), plan.dispatches());

        // A window read in place is still checked before anything runs.
        let bad = [Tensor::<f32>::zeros(Shape4::new(1, 6, 7, 70), Layout::Nhwc)];
        assert!(session.run_batch_f32(&bad).is_err());
        assert!(session.run_batch_f32(&[]).is_err());
        assert!(session.run_batch_f32(&float_images(3)).is_err());

        // A float-first model consumes its input as stored: it is staged.
        let staged = Session::new_batched(float_input_model(true), &phone, 2).unwrap();
        let (plan, arena) = (staged.plan(), &staged.stream.lanes[0].1);
        assert!(!arena.packs_in_place);
        let slot = plan.values[plan.input_value].slot;
        assert!(arena.banks.iter().all(|bank| bank[slot].floats.is_some()));
    }

    #[test]
    fn batched_session_guards_windows_and_single_runs() {
        let model = convert(&small_def());
        let phone = Phone::xiaomi_9();
        let mut batched = Session::new_batched(model, &phone, 2).unwrap();
        // Single-image entry points refuse a batched session.
        let err = batched.run_u8(&images(1)[0]).unwrap_err();
        assert!(matches!(err, EngineError::InputMismatch { .. }));
        // Empty and oversized windows are rejected.
        assert!(batched.run_batch_u8(&[]).is_err());
        assert!(batched.run_batch_u8(&images(3)).is_err());
        // Wrong per-image shape is rejected.
        let bad = vec![Tensor::<u8>::zeros(Shape4::new(1, 9, 9, 3), Layout::Nhwc)];
        assert!(batched.run_batch_u8(&bad).is_err());
        // A window is staged lane by lane: an NCHW image is refused by
        // name (it used to panic here), at batch 1 too.
        let nchw = [images(1)[0].to_layout(Layout::Nchw)];
        let mut single = Session::new(convert(&small_def()), &phone).unwrap();
        for session in [&mut batched, &mut single] {
            match session.run_batch_u8(&nchw).unwrap_err() {
                EngineError::InputMismatch { expected, got } => {
                    assert!(expected.starts_with("NHWC") && got == "NCHW");
                }
                other => panic!("expected an input mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn batched_residency_holds_two_arena_banks() {
        let model = convert(&small_def());
        let phone = Phone::xiaomi_9();
        let weights = model.size_bytes();
        let single = Session::new(model.clone(), &phone).unwrap();
        let batched = Session::new_batched(model, &phone, 4).unwrap();
        let plan = batched.plan();
        assert_eq!(plan.banks, 2);
        assert_eq!(
            batched.resident_bytes(),
            weights + 2 * plan.arena_bytes(),
            "batched residency = weights + both banks"
        );
        assert!(batched.resident_bytes() > single.resident_bytes());
    }

    #[test]
    fn peak_memory_is_modest_for_packed_model() {
        let model = convert(&small_def());
        let expected_weights: usize = model.size_bytes();
        let mut session = Session::new(model, &Phone::xiaomi_9()).unwrap();
        assert!(session.resident_bytes() >= expected_weights);
        let report = session.run_u8(&image()).unwrap();
        // Peak = weights + transient activations; for this tiny model well
        // under a megabyte.
        assert!(report.peak_bytes < 1 << 20, "peak {} B", report.peak_bytes);
    }
}
