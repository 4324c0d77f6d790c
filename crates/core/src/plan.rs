//! The staged `ExecutionPlan` IR: one lowering pass from a network (either
//! a shape-level [`NetworkArch`] or a deployed [`PbitModel`]) and a target
//! device to everything the inference path needs decided ahead of time.
//!
//! PhoneBit's second pillar (after bit-packing) is *memory-flow
//! optimization*: intermediate activations are staged once and reused so
//! the engine never allocates or copies on the inference path. This module
//! is where that staging is planned. Lowering produces, per layer:
//!
//! - the resolved [`StepOp`] (domains made explicit: pools become
//!   bit-OR or float pooling, conversions between packed bits and floats
//!   become explicit `convert` values);
//! - for binary convolutions, the [`ConvPlan`] route chosen by
//!   [`select_conv_path`](crate::planner::select_conv_path) — direct-tiled
//!   fused, direct + separate pack, or the Espresso-style lowered bit-GEMM
//!   — including both candidates' modeled latency *and* arena-footprint
//!   terms (and, under [`CompressionMode::Auto`], each candidate bank's
//!   dictionary-compression discount);
//! - a set of [`PlanValue`]s — the network input, every layer output, and
//!   every transient (bit-plane sets, im2col window rows, int32
//!   accumulators, domain conversions) — each with its packed byte size
//!   and live interval over the layer chain;
//! - an **arena assignment**: a liveness analysis maps every value onto a
//!   small set of reusable slots sized at plan time, so steady-state
//!   inference performs zero heap allocation and the device footprint is
//!   the *sum of slots*, not the sum of layers.
//!
//! The engine (`Session`), the full-scale estimator
//! ([`estimate_window`](crate::estimate::estimate_window)), admission's
//! memory formula
//! ([`planner::pooled_peak_bytes`](crate::planner::pooled_peak_bytes)) and
//! the `ablation` binary all consume this one plan, so the estimator walks
//! the exact steps the engine executes and `resident_bytes` reports
//! arena-true peaks. The plan also answers **what each step launches**:
//! [`ExecutionPlan::step_profiles`] is the one dispatch list the estimator,
//! admission, the paging schedule and the fusion pass's scores read.
//!
//! # Liveness model
//!
//! Step `i` reads its input value (born at step `i − 1`), optionally writes
//! a conversion value and a scratch value (both live only during step `i`),
//! and writes its output (consumed at step `i + 1`). Two values may share
//! an arena slot exactly when their inclusive live intervals do not
//! overlap — which is what lets a chain of `L` layers run in a handful of
//! slots instead of `2·L` ping-pong buffers.
//!
//! # Batched lowering and per-slot double buffering
//!
//! [`ExecutionPlan::for_arch`] / [`ExecutionPlan::for_model`] lower the
//! network with the batch dimension folded into every value shape
//! (`n = batch`), which is how the throughput engine serves concurrent
//! requests over one staged weight set:
//!
//! - every kernel profile and route decision is cost-modeled at the
//!   **batched** pixel count, so
//!   [`select_conv_path`](crate::planner::select_conv_path) can amortize
//!   the per-dispatch launch overhead across the batch and may
//!   legitimately pick a different route than the single-image plan;
//! - the liveness scan is unchanged (the batch flows through one layer at
//!   a time), so the slot *count* stays small; each slot simply grows to
//!   hold the whole batch's value;
//! - the arena is staged in [`ExecutionPlan::banks`] copies (two when
//!   `batch > 1`): while the engine's kernels chew through batch *t* in the
//!   front bank, the host stages batch *t + 1*'s inputs into the back bank,
//!   so layer work of one request window overlaps the staging of the next —
//!   the per-run framework overhead is paid once, not once per image.
//!
//! `peak_bytes` therefore reports `weights + banks × Σ slots` — the
//! batched, double-buffered footprint a [`Session`](crate::engine::Session)
//! staged with [`Session::new_batched`](crate::engine::Session::new_batched)
//! actually holds resident.

use std::sync::Arc;

use phonebit_gpusim::{CommandQueue, DeviceProfile, ExecutorClass, KernelProfile};
use phonebit_nn::graph::{LayerPrecision, LayerSpec, NetworkArch, PoolKind};
use phonebit_nn::kernels::fused::{self, conv_chain_profile, dense_pair_profile, ChainAbsorb};
use phonebit_nn::kernels::{bgemm, profiles};
use phonebit_nn::workload::WorkloadPolicy;
use phonebit_tensor::bits::PackWidth;
use phonebit_tensor::dict::FilterDict;
use phonebit_tensor::shape::{ConvGeometry, Shape4};

use crate::estimate::{launch_step, walk_plan};
use crate::model::{PbitLayer, PbitModel};
use crate::paging::PagingSchedule;
use crate::planner::{route_profiles, score_dispatches, select_conv_path_with, ConvPath, ConvPlan};

/// Storage class of a planned value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// 8-bit integer image (network input only).
    Bytes,
    /// Channel-packed binary activations (`u64` words).
    Bits,
    /// Full-precision activations.
    Floats,
    /// Raw `i32` convolution accumulators (the §VI-B unfused fallback).
    Accum32,
    /// The 8 packed bit-planes of the first layer's `u8` input (§III-B).
    Planes8,
}

impl ValueKind {
    /// Device bytes a value of this kind occupies at `shape`.
    ///
    /// Packed values round up to whole words per pixel, with the word
    /// width chosen per value by [`PackWidth::select`] (paper §V-A.2:
    /// "PhoneBit selects the optimal bit packing strategy … according to
    /// channel dimensions"): a C ≤ 8 chain packs `uchar` rows, C ≤ 16
    /// `ushort`, C ≤ 32 `uint`, everything wider `ulong` — so
    /// narrow-channel values stop reserving W64-padded arena slots.
    pub fn bytes(self, shape: Shape4) -> usize {
        let px = shape.pixels();
        let width = PackWidth::select(shape.c);
        let packed = px * width.words_for(shape.c) * (width.bits() / 8);
        match self {
            ValueKind::Bytes => px * shape.c,
            ValueKind::Bits => packed,
            ValueKind::Floats | ValueKind::Accum32 => px * shape.c * 4,
            ValueKind::Planes8 => 8 * packed,
        }
    }
}

/// Why a value exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRole {
    /// The network input, staged before step 0.
    NetworkInput,
    /// A layer's output activation.
    LayerOutput,
    /// A domain conversion (pack bits / unpack floats) feeding its step.
    Convert,
    /// Step-local scratch: bit-planes, window rows, or an accumulator.
    Scratch,
}

/// One planned intermediate: what it is, how big, when it is live, and
/// which arena slot holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanValue {
    /// Storage class.
    pub kind: ValueKind,
    /// Logical shape.
    pub shape: Shape4,
    /// Device bytes ([`ValueKind::bytes`] of the shape).
    pub bytes: usize,
    /// First step (inclusive) during which the value is resident.
    pub born: usize,
    /// Last step (inclusive) during which the value is resident.
    pub dies: usize,
    /// Arena slot assigned by the liveness scan.
    pub slot: usize,
    /// Why the value exists.
    pub role: ValueRole,
}

/// The resolved operation of one plan step (domains made explicit).
#[derive(Debug, Clone, PartialEq)]
pub enum StepOp {
    /// First-layer bit-plane convolution over `u8` input.
    BConvInput8 {
        /// Convolution geometry.
        geom: ConvGeometry,
        /// Output channels.
        k: usize,
    },
    /// Binary convolution (route in [`PlanStep::route`]).
    BConv {
        /// Convolution geometry.
        geom: ConvGeometry,
        /// Output channels.
        k: usize,
    },
    /// Full-precision convolution.
    FConv {
        /// Convolution geometry.
        geom: ConvGeometry,
        /// Output channels.
        k: usize,
        /// f32 operations the fused activation epilogue adds per output
        /// element (0 for a linear layer) — lowered from the source's
        /// activation so the dispatch list needs nothing but the plan.
        act_ops: f64,
    },
    /// Bitwise-OR max pooling over packed activations.
    MaxPoolBits {
        /// Window edge length.
        size: usize,
        /// Window stride.
        stride: usize,
    },
    /// Float max pooling.
    MaxPoolF32 {
        /// Window edge length.
        size: usize,
        /// Window stride.
        stride: usize,
    },
    /// Fused binary dense layer.
    DenseBin {
        /// Output features.
        out_features: usize,
    },
    /// Full-precision dense layer.
    DenseFloat {
        /// Output features.
        out_features: usize,
    },
    /// Softmax epilogue.
    Softmax,
    /// A fusible chain lowered to **one** dispatch (the inter-layer fusion
    /// pass): the members' intermediates stay in on-chip tiles instead of
    /// round-tripping the arena.
    FusedGroup {
        /// Chain class.
        kind: FusedKind,
        /// The original layers folded into this dispatch, in order.
        members: Vec<FusedMember>,
    },
}

/// The op's own answers — the one table lowering, the dispatch list and the
/// engine read instead of re-matching the op (tabulated in
/// `docs/ARCHITECTURE.md` §1; a fused group answers through its members,
/// end to end).
impl StepOp {
    /// The activation domain the op reads.
    pub(crate) fn consumes(&self) -> ValueKind {
        match self {
            StepOp::BConvInput8 { .. } => ValueKind::Bytes,
            StepOp::BConv { .. } | StepOp::MaxPoolBits { .. } | StepOp::DenseBin { .. } => {
                ValueKind::Bits
            }
            StepOp::FConv { .. }
            | StepOp::MaxPoolF32 { .. }
            | StepOp::DenseFloat { .. }
            | StepOp::Softmax => ValueKind::Floats,
            StepOp::FusedGroup { members, .. } => members[0].op.consumes(),
        }
    }

    /// The activation domain the op writes: the packed bits its consumer
    /// reads (§V-B layer integration) from the first-layer convolution, and
    /// from every other op the domain it reads — conversions happen on
    /// edges ([`StepOp::edge`]), never inside an op.
    fn produces(&self) -> ValueKind {
        match self {
            StepOp::BConvInput8 { .. } => ValueKind::Bits,
            StepOp::FusedGroup { members, .. } => members[members.len() - 1].op.produces(),
            _ => self.consumes(),
        }
    }

    /// The output activation shape for input `s`.
    fn out_shape(&self, s: Shape4) -> Shape4 {
        match self {
            StepOp::BConvInput8 { geom, k }
            | StepOp::BConv { geom, k }
            | StepOp::FConv { geom, k, .. } => {
                let (oh, ow) = geom.output_hw(s.h, s.w);
                Shape4::new(s.n, oh, ow, *k)
            }
            StepOp::MaxPoolBits { size, stride } | StepOp::MaxPoolF32 { size, stride } => {
                let (oh, ow) = ConvGeometry::square(*size, *stride, 0).output_hw(s.h, s.w);
                Shape4::new(s.n, oh, ow, s.c)
            }
            StepOp::DenseBin { out_features } | StepOp::DenseFloat { out_features } => {
                Shape4::new(s.n, 1, 1, *out_features)
            }
            StepOp::Softmax => s,
            StepOp::FusedGroup { members, .. } => members.iter().fold(s, |s, m| m.op.out_shape(s)),
        }
    }

    /// The step-local scratch value (kind and shape) the op stages, if any.
    /// `path` is a binary convolution's chosen route, `None` for every
    /// other op.
    fn scratch(
        &self,
        in_shape: Shape4,
        out_shape: Shape4,
        path: Option<ConvPath>,
    ) -> Option<(ValueKind, Shape4)> {
        match (self, path) {
            (StepOp::BConvInput8 { .. }, _) => Some((ValueKind::Planes8, in_shape)),
            (StepOp::BConv { geom, .. }, Some(ConvPath::LoweredGemm)) if !geom.is_pointwise() => {
                let windows = geom.taps() * in_shape.c;
                Some((
                    ValueKind::Bits,
                    Shape4::new(in_shape.n, out_shape.h, out_shape.w, windows),
                ))
            }
            (StepOp::BConv { .. }, Some(ConvPath::DirectUnfused)) => {
                Some((ValueKind::Accum32, out_shape))
            }
            // The bit-preserving flatten staging the matvec's row.
            (StepOp::DenseBin { .. }, _) => Some((
                ValueKind::Bits,
                Shape4::new(in_shape.n, 1, 1, in_shape.h * in_shape.w * in_shape.c),
            )),
            _ => None,
        }
    }

    /// The edge conversion, stated once: what must sit between a producer
    /// that left `flowing` activations and this op. Packed bits and floats
    /// convert into each other (`Some(kind)` is the conversion value the op
    /// then reads — a sign-pack or an unpack); `u8` images feed only the
    /// first-layer convolution, and a pool a model *declares* bitwise is
    /// not a binarization point, so those mismatches are errors naming the
    /// domain the op expected.
    fn edge(&self, flowing: ValueKind) -> Result<Option<ValueKind>, &'static str> {
        let wants = self.consumes();
        match (flowing, wants) {
            _ if flowing == wants => Ok(None),
            (ValueKind::Floats, ValueKind::Bits) if !matches!(self, StepOp::MaxPoolBits { .. }) => {
                Ok(Some(wants))
            }
            (ValueKind::Bits, ValueKind::Floats) => Ok(Some(wants)),
            (_, ValueKind::Bytes) => Err("u8"),
            (_, ValueKind::Bits) => Err("bits"),
            _ => Err("floats"),
        }
    }
}

/// Chain class of a [`StepOp::FusedGroup`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedKind {
    /// `pack?/plane-split? → binary conv → threshold → max-pool?`.
    ConvChain,
    /// `DenseBin → DenseBin` epilogue pair.
    DenseChain,
}

/// One original layer folded into a [`StepOp::FusedGroup`], preserved so
/// reports, estimators and the engine can still see the member shapes and
/// routes.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedMember {
    /// The member's original layer index (into the model's layer chain).
    pub layer: usize,
    /// Layer name.
    pub name: Arc<str>,
    /// The member's pre-fusion op.
    pub op: StepOp,
    /// Input activation shape.
    pub in_shape: Shape4,
    /// Output activation shape.
    pub out_shape: Shape4,
    /// The member's conv route, if it was a binary convolution.
    pub route: Option<ConvPlan>,
}

/// The fusion pass's per-chain verdict: the fused-vs-split scores on the
/// planner's latency + arena + energy axes, recorded whether or not the
/// chain fused (what the `ablation` binary prints next to the route table).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainDecision {
    /// First member's layer index.
    pub first_layer: usize,
    /// Last member's layer index.
    pub last_layer: usize,
    /// Chain class.
    pub kind: FusedKind,
    /// Member names joined with `+` (e.g. `conv1+pool1`).
    pub label: String,
    /// Modeled seconds of the split dispatches (one launch each).
    pub split_s: f64,
    /// Modeled seconds of the single fused dispatch.
    pub fused_s: f64,
    /// Split composite score (latency + arena + energy).
    pub split_score: f64,
    /// Fused composite score.
    pub fused_score: f64,
    /// Dispatches the split form issues for this chain.
    pub split_dispatches: usize,
    /// Whether the chain was lowered to a [`StepOp::FusedGroup`].
    pub fused: bool,
}

/// One lowered layer: the op, its shapes, its value bindings and (for
/// binary convolutions) the chosen kernel route.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// Position in the layer chain.
    pub index: usize,
    /// Layer name (shared, clone-cheap — per-run reports reuse it without
    /// allocating).
    pub name: Arc<str>,
    /// The resolved operation.
    pub op: StepOp,
    /// Input activation shape.
    pub in_shape: Shape4,
    /// Output activation shape.
    pub out_shape: Shape4,
    /// Value id of the consumed activation.
    pub input: usize,
    /// Value id of the domain conversion feeding the op, if any.
    pub convert: Option<usize>,
    /// Value id of the step-local scratch, if any.
    pub scratch: Option<usize>,
    /// Value id of the produced activation.
    pub output: usize,
    /// The planner's route decision (binary convolutions only).
    pub route: Option<ConvPlan>,
    /// Weight-bank bytes this step keeps on the device, as staged: a
    /// dictionary-compressed bank at its compressed size, a fused group its
    /// members' banks together (the chain dispatches once, so they must all
    /// be resident at once), 0 for weightless steps. What the residency
    /// schedule pages and the paged floors are computed from.
    pub bank_bytes: usize,
}

impl PlanStep {
    /// The step's dispatch list ([`ExecutionPlan::step_profiles`]) with
    /// `bank_discount_bytes` of filter reads saved by its
    /// dictionary-compressed bank (0 for a raw bank).
    pub(crate) fn profiles(&self, bank_discount_bytes: f64) -> Vec<KernelProfile> {
        let (in_shape, out_shape) = (self.in_shape, self.out_shape);
        let (in_px, out_px, in_c) = (in_shape.pixels(), out_shape.pixels(), in_shape.c);
        let features = in_shape.h * in_shape.w * in_c;
        let mut list = Vec::with_capacity(3);
        // Explicit domain conversion, exactly where the engine packs or
        // unpacks. A fused group's convert is the absorbed on-chip tile —
        // no separate dispatch.
        if self.convert.is_some() && !matches!(self.op, StepOp::FusedGroup { .. }) {
            // A conversion value is of the kind its op consumes.
            list.push(match self.op.consumes() {
                ValueKind::Bits => profiles::pack_input(in_px, in_c),
                _ => profiles::unpack_bits(in_px, in_c),
            });
        }
        match &self.op {
            StepOp::BConvInput8 { geom, k } => {
                let policy = WorkloadPolicy::for_channels(in_c);
                list.push(profiles::bitplane_split(in_px, in_c));
                list.push(profiles::bitplane_conv_fused(
                    out_px, *k, in_c, geom, &policy,
                ));
            }
            StepOp::BConv { geom, k } => {
                let path = self.route.expect("BConv step carries a route").path;
                list.extend(route_profiles(
                    path,
                    out_px,
                    *k,
                    in_c,
                    geom,
                    bank_discount_bytes,
                ));
            }
            StepOp::FConv { geom, k, act_ops } => {
                let mut p = profiles::fconv(out_px, *k, in_c, geom);
                p.f32_ops += out_shape.len() as f64 * act_ops;
                list.push(p);
            }
            StepOp::MaxPoolBits { size, .. } => {
                list.push(profiles::maxpool_bits(out_px, out_shape.c, *size));
            }
            StepOp::MaxPoolF32 { size, .. } => {
                list.push(profiles::maxpool_f32(out_px, out_shape.c, *size));
            }
            // One dispatch covers every image in the window — the engine's
            // batched matvec / softmax entry points. The dense layers'
            // bit-preserving flatten is host-side staging, not a dispatch.
            StepOp::DenseBin { out_features } => {
                list.push(profiles::dense_bin(*out_features, features).batched(in_shape.n));
            }
            StepOp::DenseFloat { out_features } => {
                list.push(profiles::dense_float(*out_features, features).batched(in_shape.n));
            }
            StepOp::Softmax => list.push(profiles::softmax(features).batched(in_shape.n)),
            // One launch for the whole chain — `launch_overhead_s` is paid
            // once per group, not once per member layer. The leading conv's
            // bank discount rides along (chains start at the conv, whose
            // original layer index is the group's `index`).
            StepOp::FusedGroup { kind, members } => list.push(
                fused_group_profile(*kind, members, self.convert.is_some())
                    .discount_reads(bank_discount_bytes),
            ),
        }
        list
    }

    /// Device dispatches this step issues per inference window — the length
    /// of its dispatch list.
    fn dispatches(&self) -> usize {
        self.profiles(0.0).len()
    }
}

/// The one cost profile a [`StepOp::FusedGroup`] dispatches — built from the
/// same `nn/kernels/fused.rs` builders the engine wrappers use, so the
/// modeled fused step and the executed fused kernel cannot diverge.
/// `absorbed_convert` distinguishes a pack-absorbing conv chain from one
/// whose input is already packed bits.
fn fused_group_profile(
    kind: FusedKind,
    members: &[FusedMember],
    absorbed_convert: bool,
) -> KernelProfile {
    match kind {
        FusedKind::ConvChain => {
            let conv = &members[0];
            let (geom, k, absorb) = match conv.op {
                StepOp::BConvInput8 { geom, k } => (geom, k, ChainAbsorb::Planes8),
                StepOp::BConv { geom, k } => {
                    let absorb = if absorbed_convert {
                        ChainAbsorb::PackF32
                    } else {
                        ChainAbsorb::None
                    };
                    (geom, k, absorb)
                }
                _ => unreachable!("conv chain starts at a binary conv"),
            };
            let pool = members.get(1).map(|m| {
                let size = match m.op {
                    StepOp::MaxPoolBits { size, .. } => size,
                    _ => unreachable!("conv chain epilogue is a bit pool"),
                };
                (m.out_shape.pixels(), size)
            });
            let in_c = conv.in_shape.c;
            let policy = WorkloadPolicy::for_channels(in_c);
            conv_chain_profile(
                absorb,
                conv.out_shape.pixels(),
                k,
                in_c,
                &geom,
                pool,
                &policy,
            )
        }
        FusedKind::DenseChain => {
            let (d1, d2) = (&members[0], &members[1]);
            let feat = d1.in_shape.h * d1.in_shape.w * d1.in_shape.c;
            dense_pair_profile(d1.out_shape.c, d2.out_shape.c, feat).batched(d1.in_shape.n)
        }
    }
}

/// How the inter-layer fusion pass treats fusible chains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FusionMode {
    /// No fusion pass: every layer stays its own step (the seed behavior —
    /// plans are byte-identical to pre-fusion lowering).
    #[default]
    Off,
    /// Fuse each chain only where the fused score (latency + arena + energy,
    /// launch overheads included) beats the split score.
    Auto,
    /// Fuse every grammatical chain regardless of score (ablation knob; the
    /// per-chain decisions still record both scores).
    Force,
}

/// How the planner treats dictionary compression of binary-convolution
/// weight banks (the Silfa-style unique-row dedupe of
/// [`FilterDict`]).
///
/// [`FilterDict`]: phonebit_tensor::dict::FilterDict
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CompressionMode {
    /// No compression pass: every bank stays raw and plans, profiles and
    /// baselines are byte-identical to the uncompressed lowering (the seed
    /// behavior).
    #[default]
    Off,
    /// Dedupe each binary convolution's packed tap rows into a per-layer
    /// dictionary plus narrow indices, keep it **only where it wins**
    /// (dictionary + indices smaller than the raw rows), and thread the
    /// saved bytes through route scores, kernel DRAM traffic, resident
    /// weights and placement peaks.
    Auto,
}

/// Size accounting of one candidate weight bank's dictionary build — the
/// numbers behind a compress-or-skip call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressStats {
    /// Total tap rows in the bank (filters × taps; one row per flattened
    /// filter for pre-flattened GEMM banks).
    pub rows: usize,
    /// Distinct rows — the dictionary entries.
    pub unique_rows: usize,
    /// Bytes per dictionary index (1, 2 or 4, by unique-row count).
    pub index_width: usize,
    /// Raw packed bank bytes (what an uncompressed bank stages).
    pub raw_bytes: usize,
    /// Dictionary rows + narrow indices, bytes.
    pub compressed_bytes: usize,
}

impl CompressStats {
    fn of(dict: &FilterDict<u64>) -> Self {
        Self {
            rows: dict.total_rows(),
            unique_rows: dict.unique_rows(),
            index_width: dict.index_width_bytes(),
            raw_bytes: dict.raw_bytes(),
            compressed_bytes: dict.compressed_bytes(),
        }
    }

    /// Bytes the dictionary form saves over the raw bank (0 when it does
    /// not win).
    fn saved_bytes(&self) -> usize {
        self.raw_bytes.saturating_sub(self.compressed_bytes)
    }

    /// Whether the dictionary form is strictly smaller than the raw bank.
    pub fn wins(&self) -> bool {
        self.compressed_bytes < self.raw_bytes
    }
}

/// Both candidate banks' dictionary accounting for one binary convolution:
/// the per-tap bank the direct routes gather from, and the pre-flattened
/// GEMM bank the lowered route tiles. Computed once per layer at lowering
/// time under [`CompressionMode::Auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LayerCompression {
    /// Per-tap bank stats (direct-tiled routes).
    pub direct: CompressStats,
    /// Pre-flattened whole-filter bank stats (lowered-GEMM route).
    pub lowered: CompressStats,
}

/// The compression pass's per-layer verdict, recorded on the plan whether
/// or not the bank compressed — the ledger `pbit plan --compress` prints,
/// mirroring the fusion pass's [`ChainDecision`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressDecision {
    /// Original layer index (survives the fusion pass, like
    /// [`FusedMember::layer`]).
    pub layer: usize,
    /// Layer name.
    pub name: String,
    /// The conv route whose bank this verdict is about (the chosen route).
    pub path: ConvPath,
    /// The chosen route's bank accounting.
    pub stats: CompressStats,
    /// Whether the modeled device keeps the dictionary form (true exactly
    /// when [`CompressStats::wins`]).
    pub compressed: bool,
}

impl CompressDecision {
    /// Bytes this layer's staged bank saves (0 for skipped layers).
    pub fn saved_bytes(&self) -> usize {
        if self.compressed {
            self.stats.saved_bytes()
        } else {
            0
        }
    }
}

/// Route decisions forced by the ablation harness instead of cost-modeled
/// (the estimator's design-choice knobs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteOverrides {
    /// Every binary convolution runs accumulate + separate pack (§V-B
    /// ablation).
    pub force_unfused: bool,
    /// Every binary convolution routes through the Espresso-style lowering
    /// (§II ablation).
    pub lowered_gemm: bool,
    /// Inter-layer fusion pass mode (default [`FusionMode::Off`]).
    pub fusion: FusionMode,
    /// Weight-bank dictionary compression mode (default
    /// [`CompressionMode::Off`]).
    pub compression: CompressionMode,
    /// Weight residency budget in bytes (default `None`: every bank stays
    /// device-resident, the seed behavior). `Some(budget)` attaches a
    /// [`PagingSchedule`] to the plan: banks stream through the upload
    /// lane under the budget, and scheduler, estimator, and executor all
    /// charge the schedule's precomputed stalls.
    pub weight_budget: Option<usize>,
}

/// A domain inconsistency found at lowering time (e.g. a bitwise pool fed
/// float activations) — the plan-time form of the engine's
/// `DomainMismatch`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanDomainError {
    /// Offending layer name.
    pub layer: String,
    /// Expected activation domain.
    pub expected: &'static str,
}

impl std::fmt::Display for PlanDomainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "layer {} expected {} activations",
            self.layer, self.expected
        )
    }
}

impl std::error::Error for PlanDomainError {}

/// The staged execution plan: steps, values, and the arena that holds them.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Network name.
    pub name: String,
    /// Network input shape — batched plans fold the batch into `n`.
    pub input: Shape4,
    /// Value id of the staged network input.
    pub input_value: usize,
    /// Lowered steps, one per layer.
    pub steps: Vec<PlanStep>,
    /// Every planned value, in birth order.
    pub values: Vec<PlanValue>,
    /// Arena slot sizes in bytes (each slot is the max over the values it
    /// hosts). For batched plans each slot holds the whole batch's value.
    pub slots: Vec<usize>,
    /// Resident packed weight bytes — net of dictionary compression: each
    /// layer whose [`CompressDecision`] compressed stages its dictionary +
    /// indices instead of the raw bank, so admission and placement see the
    /// compressed footprint.
    pub weights_bytes: usize,
    /// Images per inference window: every value's `n` extent carries it.
    pub batch: usize,
    /// Arena banks the engine stages: 1 for single-image plans, 2 for
    /// batched plans (per-slot double buffering — the back bank hosts the
    /// next window's staging while the front bank computes).
    pub banks: usize,
    /// The fusion pass's per-chain fused-vs-split verdicts (empty when
    /// lowered with [`FusionMode::Off`]).
    pub chains: Vec<ChainDecision>,
    /// The compression pass's per-layer compress-or-skip verdicts, one per
    /// binary convolution (empty when lowered with
    /// [`CompressionMode::Off`] or from a weightless arch).
    pub compression: Vec<CompressDecision>,
    /// The weight-residency schedule, present exactly when lowered with
    /// [`RouteOverrides::weight_budget`]: per-step prefetch issue times,
    /// upload stalls, and evictions; the one plan walk charges its stalls
    /// for the engine's windows and every model alike (no-drift).
    pub paging: Option<PagingSchedule>,
}

impl ExecutionPlan {
    /// Lowers a shape-level architecture for `device` at `batch` images per
    /// window: every value shape carries `n = batch`, routes are
    /// cost-modeled at batched pixel counts (or forced by `overrides`), and
    /// the arena is planned double-banked when `batch > 1` (see the module
    /// docs). Shape-level archs carry no weights, so there is nothing to
    /// dictionary-compress: arch plans are identical across compression
    /// modes.
    ///
    /// # Errors
    ///
    /// Returns [`PlanDomainError`] when the architecture cannot be deployed:
    /// its layer chain is domain-inconsistent, or it pools by anything but
    /// max.
    ///
    /// # Panics
    ///
    /// Panics when `batch == 0`, or when a layer cannot be applied to its
    /// input shape ([`NetworkArch::infer`]'s contract).
    pub fn for_arch(
        arch: &NetworkArch,
        device: &DeviceProfile,
        batch: usize,
        overrides: &RouteOverrides,
    ) -> Result<Self, PlanDomainError> {
        let rows = arch
            .layers
            .iter()
            .zip(arch.binary_layer_bytes())
            .map(|(layer, bank_bytes)| {
                let (name, op) = match layer {
                    LayerSpec::Conv(c) => {
                        let (geom, k) = (c.geom, c.out_channels);
                        let op = match c.precision {
                            LayerPrecision::BinaryInput8 => StepOp::BConvInput8 { geom, k },
                            LayerPrecision::Binary => StepOp::BConv { geom, k },
                            LayerPrecision::Float => StepOp::FConv {
                                geom,
                                k,
                                act_ops: c.activation.ops_per_element(),
                            },
                        };
                        (c.name.as_str(), ProtoOp::Op(op))
                    }
                    LayerSpec::Pool(p) if p.kind != PoolKind::Max => {
                        return Err(PlanDomainError {
                            layer: p.name.clone(),
                            expected: "max pooling over its",
                        });
                    }
                    LayerSpec::Pool(p) => (
                        p.name.as_str(),
                        ProtoOp::Pool {
                            size: p.size,
                            stride: p.stride,
                        },
                    ),
                    LayerSpec::Dense(d) => {
                        let out_features = d.out_features;
                        let op = match d.precision {
                            LayerPrecision::Float => StepOp::DenseFloat { out_features },
                            _ => StepOp::DenseBin { out_features },
                        };
                        (d.name.as_str(), ProtoOp::Op(op))
                    }
                    LayerSpec::Softmax => ("softmax", ProtoOp::Op(StepOp::Softmax)),
                };
                Ok(LayerRow {
                    name,
                    op,
                    bank_bytes,
                    comp: None,
                })
            })
            .collect::<Result<_, _>>()?;
        lower(&arch.name, arch.input, rows, device, overrides, batch)
    }

    /// Lowers a deployed model for `device` at `batch` images per window
    /// (`n = batch` on every value, batched route costs, double-banked
    /// arena — see the module docs) under `overrides` — the entry point
    /// that turns the fusion, compression and paging passes on.
    ///
    /// # Errors
    ///
    /// Returns [`PlanDomainError`] when the model's layer chain is
    /// domain-inconsistent (the engine surfaces this as `DomainMismatch`
    /// at staging time instead of mid-inference).
    ///
    /// # Panics
    ///
    /// Panics when `batch == 0`.
    pub fn for_model(
        model: &PbitModel,
        device: &DeviceProfile,
        batch: usize,
        overrides: &RouteOverrides,
    ) -> Result<Self, PlanDomainError> {
        let rows = model
            .layers
            .iter()
            .map(|layer| {
                let op = match layer {
                    PbitLayer::BConvInput8 { geom, filters, .. } => StepOp::BConvInput8 {
                        geom: *geom,
                        k: filters.shape().k,
                    },
                    PbitLayer::BConv { geom, filters, .. } => StepOp::BConv {
                        geom: *geom,
                        k: filters.shape().k,
                    },
                    PbitLayer::FConv {
                        geom,
                        filters,
                        activation,
                        ..
                    } => StepOp::FConv {
                        geom: *geom,
                        k: filters.shape().k,
                        act_ops: activation.ops_per_element(),
                    },
                    PbitLayer::MaxPoolBits { geom, .. } => StepOp::MaxPoolBits {
                        size: geom.size,
                        stride: geom.stride,
                    },
                    PbitLayer::MaxPoolF32 { geom, .. } => StepOp::MaxPoolF32 {
                        size: geom.size,
                        stride: geom.stride,
                    },
                    PbitLayer::DenseBin { weights, .. } => StepOp::DenseBin {
                        out_features: weights.shape().k,
                    },
                    PbitLayer::DenseFloat { bias, .. } => StepOp::DenseFloat {
                        out_features: bias.len(),
                    },
                    PbitLayer::Softmax => StepOp::Softmax,
                };
                // Under Auto, build both candidate dictionaries per binary
                // conv — the per-tap bank the direct routes gather from and
                // the pre-flattened whole-filter bank the GEMM tiles — so
                // the route scorer can discount each candidate's filter
                // reads by what *its* bank would save. First-layer bit-plane
                // convs and dense layers stay raw: their kernels keep
                // concrete banks.
                let comp = match layer {
                    PbitLayer::BConv { filters, .. }
                        if overrides.compression == CompressionMode::Auto =>
                    {
                        Some(LayerCompression {
                            direct: CompressStats::of(&FilterDict::build(filters)),
                            lowered: CompressStats::of(&FilterDict::build(
                                &bgemm::flatten_filters(filters),
                            )),
                        })
                    }
                    _ => None,
                };
                LayerRow {
                    name: layer.name(),
                    op: ProtoOp::Op(op),
                    bank_bytes: layer.param_bytes(),
                    comp,
                }
            })
            .collect();
        lower(&model.name, model.input, rows, device, overrides, batch)
    }

    /// [`ExecutionPlan::for_model`] with cost-modeled routes and no plan
    /// pass turned on (the default [`RouteOverrides`]); same errors, same
    /// panic.
    pub fn for_model_batched(
        model: &PbitModel,
        device: &DeviceProfile,
        batch: usize,
    ) -> Result<Self, PlanDomainError> {
        Self::for_model(model, device, batch, &RouteOverrides::default())
    }

    /// Bytes of one arena bank: the sum of slot sizes — the steady-state
    /// activation footprint of one inference window (the whole batch, for
    /// batched plans).
    pub fn arena_bytes(&self) -> usize {
        self.slots.iter().sum()
    }

    /// Bytes the engine stages for activations: [`ExecutionPlan::banks`]
    /// copies of the arena (double buffering for batched plans).
    pub fn staged_arena_bytes(&self) -> usize {
        self.banks * self.arena_bytes()
    }

    /// Peak device footprint: the weights staging books (the paging
    /// schedule's hot set when it streams) plus every staged arena bank.
    pub fn peak_bytes(&self) -> usize {
        self.hot_weight_bytes() + self.staged_arena_bytes()
    }

    /// Value id holding the network output (the last step's output, or the
    /// input for an empty plan).
    pub fn output_value(&self) -> usize {
        self.steps.last().map_or(self.input_value, |s| s.output)
    }

    /// Total device dispatches one inference window issues (the engine's
    /// timeline length per window) — the launch-bound batch-1 metric the
    /// fusion pass exists to cut.
    pub fn dispatches(&self) -> usize {
        self.steps.iter().map(PlanStep::dispatches).sum()
    }

    /// The kernel profiles step `idx` launches per inference window, in
    /// launch order — the plan's one answer to "what does this step
    /// dispatch". Everything that models a plan launches this list; the
    /// engine's `exec_step` reaches the same profiles through the `nn`
    /// wrappers, and `tests/end_to_end.rs` compares the two under every
    /// route override. Computed on demand, not stored: admission lowers
    /// hundreds of probe plans it never walks.
    ///
    /// A dictionary-compressed bank reads fewer filter bytes: the list
    /// subtracts exactly the saved bytes the plan recorded for the step's
    /// layer — the same `discount_reads` clamp the kernels apply — so
    /// modeled and executed timelines stay bit-identical under compression.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is not a step of this plan.
    pub fn step_profiles(&self, idx: usize) -> Vec<KernelProfile> {
        let step = &self.steps[idx];
        // Keyed by `step.index` (the original layer position), not by
        // `idx` — fused plans have fewer steps than layers, and a group's
        // index is its leading conv's.
        let discount = self
            .compress_decision(step.index)
            .map_or(0.0, |d| d.saved_bytes() as f64);
        step.profiles(discount)
    }

    /// The compression verdict recorded for original layer `layer`, if any
    /// (keyed like [`FusedMember::layer`], so fused plans still resolve).
    pub fn compress_decision(&self, layer: usize) -> Option<&CompressDecision> {
        self.compression.iter().find(|d| d.layer == layer)
    }

    /// Total weight bytes the dictionary pass saved across the plan (0
    /// when nothing compressed).
    pub fn compression_saved_bytes(&self) -> usize {
        self.compression
            .iter()
            .map(CompressDecision::saved_bytes)
            .sum()
    }

    /// Peak resident weight bytes under this plan's residency schedule:
    /// the hot-set peak when a paging schedule streams, the full
    /// [`ExecutionPlan::weights_bytes`] otherwise. Admission and placement
    /// budget against this, not Σ weights — the fits-with-paging verdict.
    pub fn hot_weight_bytes(&self) -> usize {
        self.paging
            .as_ref()
            .filter(|p| !p.resident)
            .map_or(self.weights_bytes, |p| p.hot_peak_bytes)
    }

    /// Attaches the weight-residency schedule when the lowering carried a
    /// budget ([`RouteOverrides::weight_budget`]): a solo, uncontended
    /// walk of the just-lowered plan yields per-step durations, and the
    /// depth-1 streaming replay precomputes every prefetch issue time and
    /// stall against the device's upload lane. Runs exactly once per
    /// lowering, while `paging` is still `None`, so the duration walk
    /// charges no stalls itself.
    fn attach_paging(&mut self, device: &DeviceProfile, overrides: &RouteOverrides) {
        let Some(budget) = overrides.weight_budget else {
            return;
        };
        debug_assert!(self.paging.is_none());
        let mut q = CommandQueue::new(device.clone(), ExecutorClass::PhoneBitOpenCl);
        let durations: Vec<f64> = walk_plan(&mut q, self, |q, idx| launch_step(q, self, idx))
            .iter()
            .map(|l| l.time_s)
            .collect();
        self.paging = Some(PagingSchedule::build(
            self,
            &durations,
            device.upload(),
            budget,
        ));
    }
}

/// A source layer's op before the flowing domain resolves it.
enum ProtoOp {
    /// The source declares the op, domains included.
    Op(StepOp),
    /// A max pool that follows the flowing domain: shape-level archs do not
    /// say whether a pool ORs bits or maxes floats.
    Pool { size: usize, stride: usize },
}

/// One source layer as a front end ([`ExecutionPlan::for_arch`],
/// [`ExecutionPlan::for_model`]) hands it to [`lower`].
struct LayerRow<'a> {
    name: &'a str,
    op: ProtoOp,
    /// Bytes of the layer's raw weight bank (0 for weightless layers).
    bank_bytes: usize,
    /// Both candidate banks' dictionary accounting, for a binary
    /// convolution lowered under [`CompressionMode::Auto`].
    comp: Option<LayerCompression>,
}

fn lower(
    name: &str,
    input: Shape4,
    rows: Vec<LayerRow<'_>>,
    device: &DeviceProfile,
    overrides: &RouteOverrides,
    batch: usize,
) -> Result<ExecutionPlan, PlanDomainError> {
    assert!(batch >= 1, "batch must be at least 1");
    let mut compression: Vec<CompressDecision> = Vec::new();
    // The batch folds into the `n` extent of every value: kernels process
    // the whole window in one dispatch, so routes and slots are sized at
    // batched shapes below without any further special-casing.
    let input = Shape4::new(input.n * batch, input.h, input.w, input.c);
    let banks = if batch > 1 { 2 } else { 1 };
    let mut values: Vec<PlanValue> = Vec::new();
    let mut steps: Vec<PlanStep> = Vec::with_capacity(rows.len());
    let last = rows.len().saturating_sub(1);

    let push = |values: &mut Vec<PlanValue>,
                kind: ValueKind,
                shape: Shape4,
                born: usize,
                dies: usize,
                role: ValueRole| {
        values.push(PlanValue {
            kind,
            shape,
            bytes: kind.bytes(shape),
            born,
            dies,
            slot: usize::MAX,
            role,
        });
        values.len() - 1
    };

    // A network is fed `u8` images exactly when it opens with the
    // first-layer convolution; everything else takes floats.
    let mut domain = match rows.first().map(|r| &r.op) {
        Some(ProtoOp::Op(StepOp::BConvInput8 { .. })) => ValueKind::Bytes,
        _ => ValueKind::Floats,
    };
    let input_value = push(&mut values, domain, input, 0, 0, ValueRole::NetworkInput);
    let mut cur_val = input_value;
    let mut cur_shape = input;

    for (i, row) in rows.into_iter().enumerate() {
        let in_shape = cur_shape;
        let op = match row.op {
            ProtoOp::Op(op) => op,
            ProtoOp::Pool { size, stride } if domain == ValueKind::Bits => {
                StepOp::MaxPoolBits { size, stride }
            }
            ProtoOp::Pool { size, stride } => StepOp::MaxPoolF32 { size, stride },
        };
        // Values are pushed convert, scratch, output: ids and arena slots
        // follow from the order.
        let convert = op
            .edge(domain)
            .map_err(|expected| PlanDomainError {
                layer: row.name.to_string(),
                expected,
            })?
            .map(|kind| push(&mut values, kind, in_shape, i, i, ValueRole::Convert));
        let out_shape = op.out_shape(in_shape);
        // Banks page at their *staged* size: a layer whose dictionary form
        // won keeps the dictionary + indices, not the raw bank — the same
        // bytes the engine allocates.
        let mut bank_bytes = row.bank_bytes;
        let route = match &op {
            StepOp::BConv { geom, k } => {
                // Each candidate route is scored with its own bank's
                // dictionary discount (0 when the bank does not win or
                // compression is off) — the same clamp the kernels apply,
                // so score and execution cannot drift.
                let discount = |s: &CompressStats| {
                    if s.wins() {
                        s.saved_bytes() as f64
                    } else {
                        0.0
                    }
                };
                let (direct_disc, lowered_disc) = row
                    .comp
                    .map_or((0.0, 0.0), |c| (discount(&c.direct), discount(&c.lowered)));
                let mut plan = select_conv_path_with(
                    device,
                    out_shape.pixels(),
                    *k,
                    in_shape.c,
                    geom,
                    direct_disc,
                    lowered_disc,
                );
                if overrides.lowered_gemm {
                    plan.path = ConvPath::LoweredGemm;
                } else if overrides.force_unfused {
                    plan.path = ConvPath::DirectUnfused;
                }
                if let Some(c) = row.comp {
                    // The verdict is about the bank the chosen route will
                    // actually stage; compress only where it wins. The
                    // decision is recorded either way, so the engine stages
                    // exactly what is subtracted here.
                    let stats = match plan.path {
                        ConvPath::LoweredGemm => c.lowered,
                        _ => c.direct,
                    };
                    let decision = CompressDecision {
                        layer: i,
                        name: row.name.to_string(),
                        path: plan.path,
                        stats,
                        compressed: stats.wins(),
                    };
                    bank_bytes = bank_bytes.saturating_sub(decision.saved_bytes());
                    compression.push(decision);
                }
                Some(plan)
            }
            _ => None,
        };
        let scratch = op
            .scratch(in_shape, out_shape, route.map(|r| r.path))
            .map(|(kind, shape)| push(&mut values, kind, shape, i, i, ValueRole::Scratch));
        // The output feeds step i+1; the final output just outlives the run.
        let dies = if i == last { i } else { i + 1 };
        domain = op.produces();
        let output = push(
            &mut values,
            domain,
            out_shape,
            i,
            dies,
            ValueRole::LayerOutput,
        );
        steps.push(PlanStep {
            index: i,
            name: Arc::from(row.name),
            op,
            in_shape,
            out_shape,
            input: cur_val,
            convert,
            scratch,
            output,
            route,
            bank_bytes,
        });
        cur_val = output;
        cur_shape = out_shape;
    }

    let chains = match overrides.fusion {
        FusionMode::Off => Vec::new(),
        mode => fuse_pass(&mut steps, &mut values, device, mode),
    };
    let slots = assign_slots(&mut values);
    let mut plan = ExecutionPlan {
        name: name.to_string(),
        input,
        input_value,
        // Resident weights are the banks as staged — compressed ones at
        // their dictionary size — and fusion only regroups them.
        weights_bytes: steps.iter().map(|s| s.bank_bytes).sum(),
        steps,
        values,
        slots,
        batch,
        banks,
        chains,
        compression,
        paging: None,
    };
    // The schedule is built from a walk of the finished plan.
    plan.attach_paging(device, overrides);
    Ok(plan)
}

/// One fusible chain found by the grammar scan.
struct ChainCandidate {
    /// Steps the chain spans (1 or 2).
    len: usize,
    kind: FusedKind,
    absorb: ChainAbsorb,
}

/// The chain grammar: which step sequences can collapse into one dispatch.
///
/// - `pack? → BConv(direct-fused) → threshold → MaxPoolBits?` — a candidate
///   only when it actually collapses ≥ 2 dispatches (a lone conv without an
///   absorbed pack or a pool epilogue already is one dispatch);
/// - `BConvInput8 → threshold → MaxPoolBits?` — the bit-plane split always
///   rides along, so even the lone conv collapses 2 → 1;
/// - `DenseBin → DenseBin` — both matvecs in one dispatch (neither member
///   may carry a domain conversion).
///
/// Unfused-accumulate and lowered-GEMM conv cores never chain: their
/// intermediates (int32 accumulators, materialized window rows) are exactly
/// what the route scorer sent through DRAM.
fn chain_at(steps: &[PlanStep], i: usize) -> Option<ChainCandidate> {
    let step = &steps[i];
    let pooled = steps
        .get(i + 1)
        .is_some_and(|n| matches!(n.op, StepOp::MaxPoolBits { .. }));
    match &step.op {
        StepOp::BConvInput8 { .. } => Some(ChainCandidate {
            len: 1 + usize::from(pooled),
            kind: FusedKind::ConvChain,
            absorb: ChainAbsorb::Planes8,
        }),
        StepOp::BConv { .. } if step.route.map(|r| r.path) == Some(ConvPath::DirectFused) => {
            let absorb = if step.convert.is_some() {
                ChainAbsorb::PackF32
            } else {
                ChainAbsorb::None
            };
            if !pooled && absorb == ChainAbsorb::None {
                return None;
            }
            Some(ChainCandidate {
                len: 1 + usize::from(pooled),
                kind: FusedKind::ConvChain,
                absorb,
            })
        }
        StepOp::DenseBin { .. } if step.convert.is_none() => steps
            .get(i + 1)
            .is_some_and(|n| matches!(n.op, StepOp::DenseBin { .. }) && n.convert.is_none())
            .then_some(ChainCandidate {
                len: 2,
                kind: FusedKind::DenseChain,
                absorb: ChainAbsorb::None,
            }),
        _ => None,
    }
}

/// Scores one candidate chain fused vs split (pure cost model, no
/// rewriting): the split side is the member steps' own dispatch lists
/// back to back, the fused side the one profile the group would launch —
/// the same lists the estimators walk, so the decision is made against
/// exactly what would run. Both sides are scored on raw banks: a
/// dictionary's saving is the same filter bytes off the conv on either
/// side.
fn score_candidate(
    steps: &[PlanStep],
    values: &[PlanValue],
    i: usize,
    cand: &ChainCandidate,
    members: &[FusedMember],
    device: &DeviceProfile,
) -> ChainDecision {
    let chain = &steps[i..i + cand.len];
    let (first, last) = (&chain[0], &chain[cand.len - 1]);
    let label = chain
        .iter()
        .map(|s| s.name.as_ref())
        .collect::<Vec<_>>()
        .join("+");
    let split: Vec<KernelProfile> = chain.iter().flat_map(|s| s.profiles(0.0)).collect();
    let fused = fused_group_profile(cand.kind, members, cand.absorb != ChainAbsorb::None);
    let (split_arena, fused_arena) = match (cand.kind, &last.op) {
        // Fusing trades the staged conv activation for a few-row ring
        // tile.
        (FusedKind::ConvChain, StepOp::MaxPoolBits { size, .. }) => (
            values[first.output].bytes,
            ValueKind::Bits.bytes(Shape4::new(1, *size, first.out_shape.w, first.out_shape.c)),
        ),
        (FusedKind::ConvChain, _) => (0, 0),
        // Fusing skips the second layer's flatten row — the mid
        // activation is already a flat tile.
        (FusedKind::DenseChain, _) => (last.scratch.map_or(0, |id| values[id].bytes), 0),
    };
    let split_score = score_dispatches(device, &split, split_arena);
    let fused_score = score_dispatches(device, &[fused], fused_arena);
    ChainDecision {
        first_layer: first.index,
        last_layer: last.index,
        kind: cand.kind,
        label,
        split_s: split_score.time_s,
        fused_s: fused_score.time_s,
        split_score: split_score.score,
        fused_score: fused_score.score,
        split_dispatches: split.len(),
        fused: false,
    }
}

/// The inter-layer fusion pass: scans the lowered steps for grammatical
/// chains ([`chain_at`]), scores each fused-vs-split on the planner's
/// latency + arena + energy axes (the fused side pays one launch overhead,
/// the split side one per dispatch), and rewrites winning chains into
/// single-dispatch [`StepOp::FusedGroup`] steps. Liveness sees through
/// groups: a fused conv→pool chain's full conv activation shrinks to a
/// `pool.size`-row ring tile, and a fused dense pair's mid activation and
/// second flatten row collapse into step-local tiles — so `assign_slots`
/// downstream sizes strictly fewer live intermediate bytes.
fn fuse_pass(
    steps: &mut Vec<PlanStep>,
    values: &mut Vec<PlanValue>,
    device: &DeviceProfile,
    mode: FusionMode,
) -> Vec<ChainDecision> {
    let mut decisions = Vec::new();
    let mut new_steps: Vec<PlanStep> = Vec::with_capacity(steps.len());
    let mut changed = false;
    let mut i = 0;
    while i < steps.len() {
        let Some(cand) = chain_at(steps, i) else {
            new_steps.push(steps[i].clone());
            i += 1;
            continue;
        };
        let members: Vec<FusedMember> = steps[i..i + cand.len]
            .iter()
            .map(|s| FusedMember {
                layer: s.index,
                name: s.name.clone(),
                op: s.op.clone(),
                in_shape: s.in_shape,
                out_shape: s.out_shape,
                route: s.route,
            })
            .collect();
        let mut decision = score_candidate(steps, values, i, &cand, &members, device);
        decision.fused = mode == FusionMode::Force || decision.fused_score < decision.split_score;
        if !decision.fused {
            decisions.push(decision);
            new_steps.push(steps[i].clone());
            i += 1;
            continue;
        }
        let first = &steps[i];
        let last = &steps[i + cand.len - 1];
        let (convert, scratch) = match cand.kind {
            FusedKind::ConvChain => {
                // The absorbed input tile keeps its arena slot (the fused
                // kernel still stages packed bits / bit-planes in it).
                let convert = match cand.absorb {
                    ChainAbsorb::None => None,
                    ChainAbsorb::PackF32 => first.convert,
                    ChainAbsorb::Planes8 => first.scratch,
                };
                let mut scratch = None;
                if cand.len == 2 {
                    let size = match last.op {
                        StepOp::MaxPoolBits { size, .. } => size,
                        _ => unreachable!("conv chain epilogue is a bit pool"),
                    };
                    // The conv activation never materializes: its value
                    // becomes the pool-window ring tile.
                    let ring = fused::ring_shape(first.out_shape.w, first.out_shape.c, size);
                    let v = &mut values[first.output];
                    v.kind = ValueKind::Bits;
                    v.shape = ring;
                    v.bytes = ValueKind::Bits.bytes(ring);
                    v.role = ValueRole::Scratch;
                    scratch = Some(first.output);
                }
                (convert, scratch)
            }
            FusedKind::DenseChain => {
                // The first matvec's output becomes the step-local mid
                // tile; the second member's flatten scratch is dropped
                // entirely (the mid tile is already flat).
                values[first.output].role = ValueRole::Scratch;
                (first.scratch, Some(first.output))
            }
        };
        let name: Arc<str> = if cand.len == 1 {
            first.name.clone()
        } else {
            Arc::from(decision.label.as_str())
        };
        new_steps.push(PlanStep {
            index: first.index,
            name,
            op: StepOp::FusedGroup {
                kind: cand.kind,
                members,
            },
            in_shape: first.in_shape,
            out_shape: last.out_shape,
            input: first.input,
            convert,
            scratch,
            output: last.output,
            route: first.route,
            bank_bytes: steps[i..i + cand.len].iter().map(|s| s.bank_bytes).sum(),
        });
        decisions.push(decision);
        changed = true;
        i += cand.len;
    }
    if changed {
        relive(&mut new_steps, values);
    }
    *steps = new_steps;
    decisions
}

/// Recomputes value liveness over the rewritten step sequence, drops values
/// no longer referenced by any step (intermediates the fused kernels keep on
/// chip), and remaps every step's value bindings to the compacted ids.
fn relive(steps: &mut [PlanStep], values: &mut Vec<PlanValue>) {
    let mut first_ref = vec![usize::MAX; values.len()];
    let mut last_ref = vec![0usize; values.len()];
    for (pos, step) in steps.iter().enumerate() {
        for id in [
            Some(step.input),
            step.convert,
            step.scratch,
            Some(step.output),
        ]
        .into_iter()
        .flatten()
        {
            if first_ref[id] == usize::MAX {
                first_ref[id] = pos;
            }
            last_ref[id] = pos;
        }
    }
    let mut map = vec![usize::MAX; values.len()];
    let mut kept: Vec<PlanValue> = Vec::with_capacity(values.len());
    for (id, v) in values.iter().enumerate() {
        // The network input survives even when no step consumes it.
        if first_ref[id] == usize::MAX && v.role != ValueRole::NetworkInput {
            continue;
        }
        let mut v = v.clone();
        if first_ref[id] != usize::MAX {
            v.born = first_ref[id];
            v.dies = last_ref[id];
        }
        map[id] = kept.len();
        kept.push(v);
    }
    for step in steps.iter_mut() {
        step.input = map[step.input];
        step.convert = step.convert.map(|id| map[id]);
        step.scratch = step.scratch.map(|id| map[id]);
        step.output = map[step.output];
    }
    *values = kept;
}

/// Greedy linear-scan slot assignment over value live intervals: values are
/// visited in birth order; each takes the smallest free slot that already
/// fits it, else the largest free slot (grown to fit), else a new slot.
/// Deterministic, and overlap-free by construction (a slot is free only
/// when its last tenant died before the candidate was born).
fn assign_slots(values: &mut [PlanValue]) -> Vec<usize> {
    // (bytes, dies-of-last-tenant)
    let mut slots: Vec<(usize, usize)> = Vec::new();
    for v in values.iter_mut() {
        // Free slots only; among them the smallest that fits, else the
        // largest (first wins a tie).
        let best = slots
            .iter()
            .enumerate()
            .filter(|(_, &(_, busy_until))| v.born > busy_until)
            .min_by_key(|(_, &(bytes, _))| match bytes >= v.bytes {
                true => (0, bytes),
                false => (1, usize::MAX - bytes),
            })
            .map(|(i, _)| i);
        let slot = match best {
            Some(s) => {
                slots[s] = (slots[s].0.max(v.bytes), v.dies);
                s
            }
            None => {
                slots.push((v.bytes, v.dies));
                slots.len() - 1
            }
        };
        v.slot = slot;
    }
    slots.into_iter().map(|(bytes, _)| bytes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_nn::act::Activation;

    fn device() -> DeviceProfile {
        DeviceProfile::adreno_640()
    }

    fn lower(arch: &NetworkArch, batch: usize, overrides: RouteOverrides) -> ExecutionPlan {
        ExecutionPlan::for_arch(arch, &device(), batch, &overrides).expect("lowers")
    }

    fn small_arch() -> NetworkArch {
        NetworkArch::new("plan-ir", Shape4::new(1, 16, 16, 3))
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
                32,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .dense("fc", 10, LayerPrecision::Float, Activation::Linear)
            .softmax()
    }

    #[test]
    fn lowering_resolves_domains_and_converts() {
        let plan = lower(&small_arch(), 1, RouteOverrides::default());
        assert_eq!(plan.steps.len(), 5);
        assert!(matches!(plan.steps[0].op, StepOp::BConvInput8 { .. }));
        assert!(matches!(plan.steps[1].op, StepOp::MaxPoolBits { .. }));
        assert!(matches!(plan.steps[2].op, StepOp::BConv { .. }));
        assert!(matches!(plan.steps[3].op, StepOp::DenseFloat { .. }));
        // The float dense layer after binary conv needs an unpack convert.
        assert!(plan.steps[3].convert.is_some());
        assert!(
            plan.steps[4].convert.is_none(),
            "softmax input already float"
        );
        // Bit-plane scratch on the first layer.
        let scr = plan.steps[0].scratch.expect("planes scratch");
        assert_eq!(plan.values[scr].kind, ValueKind::Planes8);
    }

    /// The edge rule, tabulated: every non-fused op against every flowing
    /// domain — `Err(expected)`, no conversion, or a conversion of the
    /// given kind.
    #[test]
    fn op_domain_table_is_the_conversion_rule() {
        use ValueKind::{Bits, Bytes, Floats};
        let geom = ConvGeometry::square(3, 1, 1);
        let (size, stride, out_features) = (2, 2, 10);
        // (op, [flowing bytes, flowing bits, flowing floats])
        type Edge = Result<Option<ValueKind>, &'static str>;
        let table: [(StepOp, [Edge; 3]); 8] = [
            (
                StepOp::BConvInput8 { geom, k: 8 },
                [Ok(None), Err("u8"), Err("u8")],
            ),
            (
                StepOp::BConv { geom, k: 8 },
                [Err("bits"), Ok(None), Ok(Some(Bits))],
            ),
            (
                StepOp::FConv {
                    geom,
                    k: 8,
                    act_ops: 0.0,
                },
                [Err("floats"), Ok(Some(Floats)), Ok(None)],
            ),
            (
                StepOp::MaxPoolBits { size, stride },
                [Err("bits"), Ok(None), Err("bits")],
            ),
            (
                StepOp::MaxPoolF32 { size, stride },
                [Err("floats"), Ok(Some(Floats)), Ok(None)],
            ),
            (
                StepOp::DenseBin { out_features },
                [Err("bits"), Ok(None), Ok(Some(Bits))],
            ),
            (
                StepOp::DenseFloat { out_features },
                [Err("floats"), Ok(Some(Floats)), Ok(None)],
            ),
            (StepOp::Softmax, [Err("floats"), Ok(Some(Floats)), Ok(None)]),
        ];
        for (op, row) in &table {
            for (flowing, want) in [Bytes, Bits, Floats].into_iter().zip(row) {
                assert_eq!(&op.edge(flowing), want, "{op:?} fed {flowing:?}");
                // A conversion delivers what the op reads.
                if let Ok(Some(kind)) = want {
                    assert_eq!(*kind, op.consumes(), "{op:?}");
                }
            }
        }
    }

    #[test]
    fn undeployable_archs_are_errors_naming_the_layer() {
        use phonebit_nn::graph::PoolSpec;
        let mut avg = small_arch();
        avg.layers[1] = LayerSpec::Pool(PoolSpec {
            name: "pool1".into(),
            kind: PoolKind::Avg,
            size: 2,
            stride: 2,
        });
        let err = ExecutionPlan::for_arch(&avg, &device(), 1, &RouteOverrides::default());
        assert_eq!(err.expect_err("avg pooling is not deployed").layer, "pool1");

        // A `u8` first-layer convolution anywhere but first.
        let late = NetworkArch::new("late-in8", Shape4::new(1, 8, 8, 3))
            .conv(
                "conv1",
                8,
                3,
                1,
                1,
                LayerPrecision::Binary,
                Activation::Linear,
            )
            .conv(
                "conv2",
                8,
                3,
                1,
                1,
                LayerPrecision::BinaryInput8,
                Activation::Linear,
            );
        let err = ExecutionPlan::for_arch(&late, &device(), 1, &RouteOverrides::default())
            .expect_err("bits cannot feed the u8 convolution");
        assert_eq!((err.layer.as_str(), err.expected), ("conv2", "u8"));
    }

    #[test]
    fn overlapping_values_never_share_a_slot() {
        let plan = lower(&small_arch(), 1, RouteOverrides::default());
        for (i, a) in plan.values.iter().enumerate() {
            assert_ne!(a.slot, usize::MAX, "value {i} unassigned");
            assert!(plan.slots[a.slot] >= a.bytes, "slot smaller than value {i}");
            for (j, b) in plan.values.iter().enumerate().skip(i + 1) {
                let overlap = a.born <= b.dies && b.born <= a.dies;
                if overlap {
                    assert_ne!(a.slot, b.slot, "live values {i} and {j} share a slot");
                }
            }
        }
    }

    #[test]
    fn arena_reuses_slots_across_the_chain() {
        let plan = lower(&small_arch(), 1, RouteOverrides::default());
        let total: usize = plan.values.iter().map(|v| v.bytes).sum();
        assert!(plan.values.len() > plan.slots.len(), "slots must be reused");
        assert!(plan.arena_bytes() < total, "arena must beat sum-of-values");
        assert_eq!(plan.peak_bytes(), plan.weights_bytes + plan.arena_bytes());
    }

    #[test]
    fn route_overrides_force_paths() {
        let arch = small_arch();
        let lowered = lower(
            &arch,
            1,
            RouteOverrides {
                lowered_gemm: true,
                ..Default::default()
            },
        );
        let unfused = lower(
            &arch,
            1,
            RouteOverrides {
                force_unfused: true,
                ..Default::default()
            },
        );
        let conv2 = |p: &ExecutionPlan| p.steps[2].route.expect("route").path;
        assert_eq!(conv2(&lowered), ConvPath::LoweredGemm);
        assert_eq!(conv2(&unfused), ConvPath::DirectUnfused);
        // The forced paths carry matching scratch values.
        let scr = lowered.steps[2].scratch.expect("windows scratch");
        assert_eq!(lowered.values[scr].kind, ValueKind::Bits);
        let scr = unfused.steps[2].scratch.expect("accumulator scratch");
        assert_eq!(unfused.values[scr].kind, ValueKind::Accum32);
    }

    #[test]
    fn lowering_is_deterministic() {
        let a = lower(&small_arch(), 1, RouteOverrides::default());
        let b = lower(&small_arch(), 1, RouteOverrides::default());
        assert_eq!(a, b);
    }

    #[test]
    fn batched_lowering_scales_values_not_slot_count() {
        let single = lower(&small_arch(), 1, RouteOverrides::default());
        let batched = lower(&small_arch(), 4, RouteOverrides::default());
        assert_eq!(single.batch, 1);
        assert_eq!(single.banks, 1);
        assert_eq!(batched.batch, 4);
        assert_eq!(batched.banks, 2, "batched plans double-buffer the arena");
        assert_eq!(batched.input.n, 4);
        assert_eq!(batched.values.len(), single.values.len());
        assert_eq!(batched.slots.len(), single.slots.len());
        for (s, b) in single.values.iter().zip(batched.values.iter()) {
            assert_eq!(b.shape.n, 4 * s.shape.n, "batch folds into n");
            assert_eq!(b.bytes, 4 * s.bytes, "value bytes scale with batch");
            assert_eq!((b.born, b.dies, b.slot), (s.born, s.dies, s.slot));
        }
        assert_eq!(batched.arena_bytes(), 4 * single.arena_bytes());
        assert_eq!(batched.staged_arena_bytes(), 2 * batched.arena_bytes());
        assert_eq!(
            batched.peak_bytes(),
            batched.weights_bytes + 2 * batched.arena_bytes()
        );
        // Batch 1 through the batched front is exactly the single plan.
        assert_eq!(lower(&small_arch(), 1, RouteOverrides::default()), single);
    }

    #[test]
    fn batched_lowering_is_deterministic_and_liveness_safe() {
        let a = lower(&small_arch(), 8, RouteOverrides::default());
        let b = lower(&small_arch(), 8, RouteOverrides::default());
        assert_eq!(a, b);
        for (i, va) in a.values.iter().enumerate() {
            assert!(a.slots[va.slot] >= va.bytes);
            for vb in a.values.iter().skip(i + 1) {
                if va.born <= vb.dies && vb.born <= va.dies {
                    assert_ne!(va.slot, vb.slot);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_panics() {
        let _ = lower(&small_arch(), 0, RouteOverrides::default());
    }

    #[test]
    fn value_kind_bytes_match_packing_rules() {
        let s = Shape4::new(1, 4, 4, 100);
        assert_eq!(ValueKind::Bytes.bytes(s), 16 * 100);
        assert_eq!(ValueKind::Bits.bytes(s), 16 * 2 * 8);
        assert_eq!(ValueKind::Floats.bytes(s), 16 * 400);
        assert_eq!(ValueKind::Accum32.bytes(s), 16 * 400);
        assert_eq!(ValueKind::Planes8.bytes(s), 8 * 16 * 2 * 8);
    }

    #[test]
    fn narrow_channels_pack_into_narrow_words() {
        // Pack-width-aware sizing (§V-A.2): C <= 32 chains stop paying
        // u64-padded slots — one uchar/ushort/uint word per pixel instead
        // of a full ulong.
        let px = 16;
        for (c, word_bytes) in [(3usize, 1usize), (8, 1), (16, 2), (24, 4), (32, 4)] {
            let s = Shape4::new(1, 4, 4, c);
            assert_eq!(ValueKind::Bits.bytes(s), px * word_bytes, "C = {c}");
            assert_eq!(ValueKind::Planes8.bytes(s), 8 * px * word_bytes, "C = {c}");
        }
        // At and past one ulong the W64 packing is unchanged.
        assert_eq!(ValueKind::Bits.bytes(Shape4::new(1, 4, 4, 64)), px * 8);
        assert_eq!(ValueKind::Bits.bytes(Shape4::new(1, 4, 4, 65)), px * 16);
    }

    fn fused_overrides(mode: FusionMode) -> RouteOverrides {
        RouteOverrides {
            fusion: mode,
            ..Default::default()
        }
    }

    fn dense_pair_arch() -> NetworkArch {
        NetworkArch::new("dense-pair", Shape4::new(1, 8, 8, 3))
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
            .dense("fc1", 64, LayerPrecision::Binary, Activation::Linear)
            .dense("fc2", 10, LayerPrecision::Binary, Activation::Linear)
            .softmax()
    }

    #[test]
    fn fusion_off_lowers_byte_identical_with_no_chains() {
        let off = lower(&small_arch(), 1, RouteOverrides::default());
        assert!(off.chains.is_empty(), "Off records no chain decisions");
        assert_eq!(off, lower(&small_arch(), 1, RouteOverrides::default()));
    }

    #[test]
    fn force_fuses_conv_pool_chain_into_one_dispatch() {
        let unfused = lower(&small_arch(), 1, RouteOverrides::default());
        let fused = lower(&small_arch(), 1, fused_overrides(FusionMode::Force));
        // conv1+pool1 collapse; conv2/fc/softmax stay (conv2 is a lone
        // direct-fused conv with no pool — fusing it would save nothing).
        assert_eq!(fused.steps.len(), unfused.steps.len() - 1);
        let group = &fused.steps[0];
        let StepOp::FusedGroup { kind, members } = &group.op else {
            panic!(
                "first step must be the fused conv chain, got {:?}",
                group.op
            );
        };
        assert_eq!(*kind, FusedKind::ConvChain);
        assert_eq!(members.len(), 2);
        assert_eq!(group.name.as_ref(), "conv1+pool1");
        assert!(matches!(members[0].op, StepOp::BConvInput8 { .. }));
        assert!(matches!(members[1].op, StepOp::MaxPoolBits { .. }));
        assert_eq!((members[0].layer, members[1].layer), (0, 1));
        // Group bindings: planes tile absorbed as convert, ring as scratch,
        // output is the pooled activation.
        let planes = group.convert.expect("absorbed planes tile");
        assert_eq!(fused.values[planes].kind, ValueKind::Planes8);
        let ring = group.scratch.expect("pool ring tile");
        assert_eq!(fused.values[ring].kind, ValueKind::Bits);
        assert_eq!(fused.values[ring].shape.h, 2, "ring holds pool.size rows");
        assert_eq!(fused.values[group.output].shape, members[1].out_shape);
        // Strictly fewer dispatches, and the decision is on record.
        assert!(fused.dispatches() < unfused.dispatches());
        assert_eq!(group.dispatches(), 1);
        let d = fused
            .chains
            .iter()
            .find(|d| d.fused)
            .expect("fused chain recorded");
        assert_eq!((d.first_layer, d.last_layer), (0, 1));
        assert_eq!(d.split_dispatches, 3, "split + conv + pool");
    }

    #[test]
    fn fusion_liveness_sees_through_groups() {
        let unfused = lower(&small_arch(), 1, RouteOverrides::default());
        let fused = lower(&small_arch(), 1, fused_overrides(FusionMode::Force));
        // The ring tile is strictly smaller than the conv activation it
        // replaces, so the arena shrinks.
        assert!(fused.arena_bytes() < unfused.arena_bytes());
        // No slot overlap and no dangling ids after the rewrite.
        for (i, a) in fused.values.iter().enumerate() {
            assert!(a.born <= a.dies, "value {i} interval inverted");
            assert!(fused.slots[a.slot] >= a.bytes);
            for (j, b) in fused.values.iter().enumerate().skip(i + 1) {
                if a.born <= b.dies && b.born <= a.dies {
                    assert_ne!(a.slot, b.slot, "live values {i} and {j} share a slot");
                }
            }
        }
        for step in &fused.steps {
            for id in [
                Some(step.input),
                step.convert,
                step.scratch,
                Some(step.output),
            ]
            .into_iter()
            .flatten()
            {
                assert!(
                    id < fused.values.len(),
                    "step {} binds dropped value",
                    step.index
                );
            }
        }
        // Conv chains drop no values (planes and ring tiles stay bound to
        // the group) — the network output is just re-lived, not re-shaped.
        assert_eq!(fused.values.len(), unfused.values.len());
        assert_eq!(
            fused.values[fused.output_value()].shape,
            unfused.values[unfused.output_value()].shape
        );
    }

    #[test]
    fn force_fuses_dense_pair() {
        let unfused = lower(&dense_pair_arch(), 1, RouteOverrides::default());
        let fused = lower(&dense_pair_arch(), 1, fused_overrides(FusionMode::Force));
        let group = fused
            .steps
            .iter()
            .find(|s| {
                matches!(
                    s.op,
                    StepOp::FusedGroup {
                        kind: FusedKind::DenseChain,
                        ..
                    }
                )
            })
            .expect("dense pair fused");
        assert_eq!(group.name.as_ref(), "fc1+fc2");
        assert_eq!(group.dispatches(), 1);
        // flat row as convert, mid tile as scratch; fc2's flatten dropped.
        assert!(group.convert.is_some() && group.scratch.is_some());
        assert_eq!(fused.values.len(), unfused.values.len() - 1);
        assert!(fused.dispatches() < unfused.dispatches());
    }

    #[test]
    fn auto_fusion_is_scored_per_chain() {
        let auto = lower(&small_arch(), 1, fused_overrides(FusionMode::Auto));
        assert!(!auto.chains.is_empty(), "candidates must be scored");
        for d in &auto.chains {
            assert!(d.split_s > 0.0 && d.fused_s > 0.0);
            assert_eq!(d.fused, d.fused_score < d.split_score, "chain {}", d.label);
        }
        // Launch-bound batch-1 chains win on this device; the plan must
        // reflect exactly the recorded verdicts.
        let fused_groups = auto
            .steps
            .iter()
            .filter(|s| matches!(s.op, StepOp::FusedGroup { .. }))
            .count();
        assert_eq!(fused_groups, auto.chains.iter().filter(|d| d.fused).count());
    }

    #[test]
    fn batched_fusion_keeps_liveness_and_determinism() {
        let a = lower(&small_arch(), 4, fused_overrides(FusionMode::Force));
        let b = lower(&small_arch(), 4, fused_overrides(FusionMode::Force));
        assert_eq!(a, b);
        for (i, va) in a.values.iter().enumerate() {
            assert!(a.slots[va.slot] >= va.bytes);
            for vb in a.values.iter().skip(i + 1) {
                if va.born <= vb.dies && vb.born <= va.dies {
                    assert_ne!(va.slot, vb.slot);
                }
            }
        }
    }
}
