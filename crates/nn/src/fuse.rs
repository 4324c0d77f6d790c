//! Layer integration: fusing binary convolution + bias + batch-norm +
//! binarization into one operator (paper §V-B).
//!
//! Let `x1` be the raw binary-convolution accumulator, `b` the bias, and
//! `(γ, β, µ, σ)` the batch-norm parameters. Then:
//!
//! ```text
//! x2 = x1 + b                         (Eqn 3)
//! x3 = γ (x2 − µ)/σ + β               (Eqn 4)
//!    = γ/σ · (x1 − ξ)                 (Eqn 5)
//! ξ  = µ − β σ/γ − b                  (Eqn 6)
//! x4 = 1 if x3 ≥ 0 else 0             (Eqn 7)
//! ```
//!
//! Because `γ/σ` only contributes its sign (σ > 0), the whole chain reduces
//! to comparing `x1` against the precomputed threshold `ξ` (Eqn 8), and the
//! four-way divergent check simplifies — via truth table and Karnaugh map —
//! to the branch-free logic of Eqn 9:
//!
//! ```text
//! x4 = (A xor B) or C,   A = (x1 < ξ), B = (γ > 0), C = (x1 = ξ)
//! ```
//!
//! [`BitSink`] is the one place a fused kernel's raw accumulator becomes
//! that bit: by integer cuts on its lanes — the binary tile's disagreement
//! counts, the first layer's Eqn (2) sums — that one search of
//! [`FusedBn::decide_logic`] finds per dispatch. `decide_logic` stays the
//! definition: the unfused `binarize_pack` pass and the seed reference
//! kernel decide by it, and every equality test checks the cuts against it.

use phonebit_tensor::bits::BitWord;
use phonebit_tensor::lanes::LANES;
use phonebit_tensor::shape::FilterShape;

use crate::kernels::bitplane::{MAX_WINDOW_BITS, PLANE_LANES};

/// Modeled compute inflation of a kernel that binarizes with the divergent
/// four-case Eqn 8 instead of Eqn 9: the checks mask part of each wave
/// during the binarize tail. The tail is short relative to the dot product,
/// so the inflation is modest but measurable.
pub const EQN8_DIVERGENCE: f64 = 1.18;

/// Per-channel batch-normalization parameters as trained.
#[derive(Debug, Clone, PartialEq)]
pub struct BnParams {
    /// Scale γ (one per output channel). Channels with γ = 0 are assumed
    /// pruned (paper footnote 2, citing network slimming) and rejected.
    pub gamma: Vec<f32>,
    /// Shift β.
    pub beta: Vec<f32>,
    /// Running mean µ.
    pub mu: Vec<f32>,
    /// Running standard deviation σ (must be positive).
    pub sigma: Vec<f32>,
}

impl BnParams {
    /// Identity batch-norm for `n` channels (γ=1, β=0, µ=0, σ=1).
    pub fn identity(n: usize) -> Self {
        Self {
            gamma: vec![1.0; n],
            beta: vec![0.0; n],
            mu: vec![0.0; n],
            sigma: vec![1.0; n],
        }
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.gamma.len()
    }

    /// Whether there are no channels.
    pub fn is_empty(&self) -> bool {
        self.gamma.is_empty()
    }

    /// Validates invariants: equal lengths, σ > 0, γ ≠ 0.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when an invariant is violated.
    fn validate(&self) {
        let n = self.gamma.len();
        assert!(
            self.beta.len() == n && self.mu.len() == n && self.sigma.len() == n,
            "batch-norm parameter lengths disagree"
        );
        for (i, &s) in self.sigma.iter().enumerate() {
            assert!(s > 0.0, "sigma[{i}] = {s} must be positive");
        }
        for (i, &g) in self.gamma.iter().enumerate() {
            assert!(
                g != 0.0,
                "gamma[{i}] = 0; pruned channels are not supported (paper fn. 2)"
            );
        }
    }

    /// Applies the batch-norm transform in float (Eqn 4) — the reference
    /// path the fused operator is tested against.
    pub fn apply(&self, channel: usize, x2: f32) -> f32 {
        self.gamma[channel] * (x2 - self.mu[channel]) / self.sigma[channel] + self.beta[channel]
    }
}

/// The fused conv+BN+binarize operator parameters: one threshold and one
/// sign per output channel, precomputed offline (Eqn 6).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedBn {
    /// Thresholds ξ per output channel.
    pub xi: Vec<f32>,
    /// `γ > 0` per output channel.
    pub gamma_pos: Vec<bool>,
}

impl FusedBn {
    /// Precomputes ξ = µ − βσ/γ − b for every channel (the offline stage of
    /// §V-B: "ξ can be computed in the off-line stage without increasing the
    /// runtime computation burden").
    ///
    /// # Panics
    ///
    /// Panics if parameter lengths disagree or BN invariants fail.
    pub fn precompute(bn: &BnParams, bias: &[f32]) -> Self {
        bn.validate();
        assert_eq!(bn.len(), bias.len(), "bias length must match channel count");
        let xi = (0..bn.len())
            .map(|i| bn.mu[i] - bn.beta[i] * bn.sigma[i] / bn.gamma[i] - bias[i])
            .collect();
        let gamma_pos = bn.gamma.iter().map(|&g| g > 0.0).collect();
        Self { xi, gamma_pos }
    }

    /// Identity fusion (γ=1, ξ=0): binarize at zero, for `n` channels.
    pub fn identity(n: usize) -> Self {
        Self {
            xi: vec![0.0; n],
            gamma_pos: vec![true; n],
        }
    }

    /// Number of output channels.
    pub fn len(&self) -> usize {
        self.xi.len()
    }

    /// Whether there are no channels.
    pub fn is_empty(&self) -> bool {
        self.xi.is_empty()
    }

    /// The divergent four-case decision of Eqn 8 (reference implementation).
    #[inline]
    pub fn decide_branchy(&self, channel: usize, x1: f32) -> bool {
        let xi = self.xi[channel];
        if self.gamma_pos[channel] {
            x1 >= xi
        } else {
            x1 <= xi
        }
    }

    /// The branch-free decision of Eqn 9: `(A xor B) or C` with
    /// `A = isless(x1, ξ)`, `B = (γ > 0)`, `C = isequal(x1, ξ)` — the form
    /// PhoneBit executes to avoid wave divergence (§VI-C).
    #[inline(always)]
    pub fn decide_logic(&self, channel: usize, x1: f32) -> bool {
        decide(self.xi[channel], self.gamma_pos[channel], x1)
    }
}

/// Eqn 9 on one channel's `ξ` and `γ > 0`.
#[inline(always)]
fn decide(xi: f32, gamma_pos: bool, x1: f32) -> bool {
    let a = x1 < xi; // isless
    let c = x1 == xi; // isequal
    (a ^ gamma_pos) | c
}

/// Eqn 9 as integer cuts on a `bits`-bit window's disagreement count `d`:
/// filter `k` outputs 1 iff `d.wrapping_sub(lo[k]) < 2^63` — `d < b` for
/// γ > 0 (`lo = b − 2^63`), `d ≥ b` for γ < 0 — exactly when
/// [`FusedBn::decide_logic`]`(k, (bits − 2d) as f32)` does. Lanes past the
/// last filter never fire. Staged once per layer, with its bank.
#[derive(Debug, Clone, PartialEq)]
pub struct Cuts(Vec<[u64; LANES]>);

impl Cuts {
    /// The cuts of `fused` over `bits`-bit windows.
    pub fn new(fused: &FusedBn, bits: usize) -> Self {
        // `lo = 2^63` never fires: `d − 2^63` wraps to `2^63 + d`.
        let mut lo = vec![[1 << 63; LANES]; fused.len().div_ceil(LANES)];
        for (k, (&xi, &gamma_pos)) in fused.xi.iter().zip(&fused.gamma_pos).enumerate() {
            let b = run(xi, gamma_pos, (bits as i64, -2, bits as u64 + 1));
            lo[k / LANES][k % LANES] = b ^ u64::from(gamma_pos) << 63;
        }
        Self(lo)
    }

    /// Filter `k`'s cut with its sign bit moved to bit `top` of a narrower
    /// lane, where `d.wrapping_sub(lo)` fires iff that bit is clear — exact
    /// while windows are under `2^top − 1` bits (the cut itself reaches
    /// `bits + 1`). Past the last filter, `1 << top`.
    pub(crate) fn lane_cut(&self, k: usize, top: usize) -> u64 {
        let lo = self.0.get(k / LANES).map_or(1 << 63, |lo| lo[k % LANES]);
        lo & ((1 << top) - 1) | (lo >> 63) << top
    }
}

/// The same on the first layer's Eqn (2) sums `s`, `|s| ≤ 255·bits`: fires
/// iff `s.wrapping_sub(lo[k]) ≥ 0` (`lo = b ^ i32::MIN` for γ < 0). `pos[i]`,
/// lane `i`'s output bit `1 << i`, is data: as constants, SLP split lanes.
/// Staged once per layer, with its bank.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneCuts {
    lo: Vec<[i32; PLANE_LANES]>,
    pos: [u32; PLANE_LANES],
}

impl PlaneCuts {
    /// The cuts of `fused` over `bits`-bit windows, at most [`MAX_WINDOW_BITS`].
    pub fn new(fused: &FusedBn, bits: usize) -> Self {
        assert!(bits <= MAX_WINDOW_BITS, "{bits}-bit windows overflow i32");
        let smax = 255 * bits as i64;
        let mut lo = vec![[smax as i32 + 1; PLANE_LANES]; fused.len().div_ceil(PLANE_LANES)];
        for (k, (&xi, &gamma_pos)) in fused.xi.iter().zip(&fused.gamma_pos).enumerate() {
            let b = smax + 1 - run(xi, gamma_pos, (smax, -1, 2 * smax as u64 + 1)) as i64;
            lo[k / PLANE_LANES][k % PLANE_LANES] = b as i32 ^ i32::from(!gamma_pos) << 31;
        }
        let pos = std::array::from_fn(|i| 1 << i);
        Self { lo, pos }
    }
}

/// How many of the `n` accumulators `x0, x0 + step, ..`, down from the
/// largest, have Eqn 9 equal to `γ > 0`: a binary search, Eqn 9 being
/// monotone in its accumulator even where `x as f32` rounds.
fn run(xi: f32, gamma_pos: bool, (x0, step, n): (i64, i64, u64)) -> u64 {
    let holds = |j: u64| decide(xi, gamma_pos, (x0 + step * j as i64) as f32) == gamma_pos;
    (0..=n.ilog2()).rev().fold(0, |b, s| match b + (1 << s) {
        m if m <= n && holds(m - 1) => m,
        _ => b,
    })
}

/// The packed-bit sink of every fused binarize+pack kernel (Fig 4): decides
/// Eqn (9) by integer cuts on the lanes it is handed — `Cuts` on the binary
/// tile's disagreement counts ([`TileSink`]), `PlaneCuts` on the first
/// layer's Eqn (2) sums (`PlaneSink`) — builds the bits in a register —
/// the near-coin-flip outcome is data, not a branch (§VI-C) — and ORs them
/// into the output word once. Rows must start zeroed; runs may arrive in
/// any order.
#[derive(Debug)]
pub struct BitSink<'a, W: BitWord, T> {
    thresholds: &'a T,
    row: &'a mut [W],
    words_per_pixel: usize,
}

impl<'a, W: BitWord, T> BitSink<'a, W, T> {
    /// A sink over `row`, a zeroed span of whole output pixels of
    /// `words_per_pixel` words each, thresholded by `thresholds`.
    pub fn new(thresholds: &'a T, row: &'a mut [W], words_per_pixel: usize) -> Self {
        Self {
            thresholds,
            row,
            words_per_pixel,
        }
    }
}

/// Where the binary tile (`tiled::lanes_tile`) hands each [`LANES`]-filter
/// group, ORing the returned lanes into a per-pixel word until it is whole.
///
/// A trait rather than a closure because the drivers call it from several
/// sites below a `#[target_feature]` frame ([`crate::kernels::isa`]): an
/// implementation marks its methods `#[inline(always)]`, which a closure
/// cannot promise, and left out of line it would be compiled for the
/// baseline target.
pub trait TileSink {
    /// Takes bank `fs`'s filters `k0..`'s disagreements `d` at row pixel
    /// `px`; returns filter `k0 + i`'s bit at `k0 % 64 + i` in lane `i`.
    fn put_dots(&mut self, px: usize, k0: usize, fs: FilterShape, d: &[u64; LANES])
        -> [u64; LANES];

    /// Takes row pixel `px`'s decided filters `k0..k0 + 64` as one word.
    #[inline(always)]
    fn put_word(&mut self, _px: usize, _k0: usize, _word: u64) {}

    /// Row pixel `px` has had every filter group.
    #[inline(always)]
    fn end_pixel(&mut self, _px: usize) {}
}

impl<W: BitWord> TileSink for BitSink<'_, W, Cuts> {
    /// All on the `u64` lanes: narrowed to `i32`, SLP took pixels, not lanes.
    #[inline(always)]
    fn put_dots(&mut self, _: usize, k0: usize, _: FilterShape, d: &[u64; LANES]) -> [u64; LANES] {
        let lo = &self.thresholds.0[k0 / LANES];
        let mut bits = [0u64; LANES];
        for (i, (bit, &d)) in bits.iter_mut().zip(d).enumerate() {
            let on = d.wrapping_sub(lo[i]) < 1 << 63;
            *bit = ((1u64 << i) << (k0 % 64)) & 0u64.wrapping_sub(u64::from(on));
        }
        bits
    }

    #[inline(always)]
    fn put_word(&mut self, px: usize, k0: usize, word: u64) {
        let wpp = self.words_per_pixel;
        let slots = &mut self.row[px * wpp + k0 / W::BITS..(px + 1) * wpp];
        for (i, slot) in slots.iter_mut().take(64 / W::BITS).enumerate() {
            *slot = slot.or(W::truncate(word >> (i * W::BITS)));
        }
    }
}

/// Where `bitplane::bitplane_row` hands filters `k0..k0 + 16`'s sums at `px`.
pub(crate) trait PlaneSink {
    fn put_sums(&mut self, px: usize, k0: usize, k_total: usize, sums: &[i32; PLANE_LANES]);
}

impl<W: BitWord> PlaneSink for BitSink<'_, W, PlaneCuts> {
    /// Bounds checks first: with one after the OR reduce, SLP left it scalar.
    #[inline(always)]
    fn put_sums(&mut self, px: usize, k0: usize, _: usize, sums: &[i32; PLANE_LANES]) {
        let wpp = self.words_per_pixel;
        let (slot, next) = self.row[px * wpp + k0 / W::BITS..(px + 1) * wpp].split_at_mut(1);
        let (lo, pos) = (&self.thresholds.lo[k0 / PLANE_LANES], &self.thresholds.pos);
        let mut bits = [0u32; PLANE_LANES];
        for (i, bit) in bits.iter_mut().enumerate() {
            *bit = pos[i] & 0u32.wrapping_sub(u32::from(sums[i].wrapping_sub(lo[i]) >= 0));
        }
        let word = u64::from(bits.iter().fold(0, |m, b| m | b)) << (k0 % W::BITS);
        slot[0] = slot[0].or(W::truncate(word));
        if let Some(next) = next.first_mut().filter(|_| W::BITS < PLANE_LANES) {
            *next = next.or(W::truncate(word >> W::BITS));
        }
    }
}

impl<'a, W: BitWord> BitSink<'a, W, PlaneCuts> {
    /// Filters `k0..k0 + 16`'s cuts.
    #[inline(always)]
    pub(crate) fn lo(&self, k0: usize) -> &'a [i32; PLANE_LANES] {
        &self.thresholds.lo[k0 / PLANE_LANES]
    }

    /// ORs filters `k0..k0 + 16`'s decided bits `mask` (filter `k0 + i` at
    /// bit `i`) into pixel `px`'s output word.
    #[inline(always)]
    pub(crate) fn put_mask(&mut self, px: usize, k0: usize, mask: u32) {
        self.put_masks(px, k0, &[mask]);
    }

    /// [`put_mask`](Self::put_mask) for pixels `px0..px0 + P`, mask `p` to
    /// pixel `px0 + p`: the row sliced once for the block.
    #[inline(always)]
    pub(crate) fn put_masks<const P: usize>(&mut self, px0: usize, k0: usize, masks: &[u32; P]) {
        let wpp = self.words_per_pixel;
        let pixels = self.row[px0 * wpp..][..P * wpp].chunks_exact_mut(wpp);
        for (words, &mask) in pixels.zip(masks) {
            let (slot, next) = words[k0 / W::BITS..].split_at_mut(1);
            let word = u64::from(mask) << (k0 % W::BITS);
            slot[0] = slot[0].or(W::truncate(word));
            if let Some(next) = next.first_mut().filter(|_| W::BITS < PLANE_LANES) {
                *next = next.or(W::truncate(word >> W::BITS));
            }
        }
    }
}

/// The unfused sink: raw accumulators into a row of NHWC `i32` pixels,
/// `channels` each.
#[derive(Debug)]
pub struct AccumSink<'a> {
    /// The output row.
    pub row: &'a mut [i32],
    /// Accumulators per pixel.
    pub channels: usize,
}

impl AccumSink<'_> {
    /// Files the accumulators of filters `k0..k_total` among `x1s` at row
    /// pixel `px`; lanes past the last filter are dropped.
    #[inline(always)]
    fn file<const L: usize>(&mut self, px: usize, k0: usize, k_total: usize, x1s: &[i32; L]) {
        let live = (k_total - k0).min(L);
        self.row[px * self.channels + k0..][..live].copy_from_slice(&x1s[..live]);
    }
}

impl TileSink for AccumSink<'_> {
    /// Files the dot values `bits − 2d` of bank `fs`'s filters.
    #[inline(always)]
    fn put_dots(
        &mut self,
        px: usize,
        k0: usize,
        fs: FilterShape,
        d: &[u64; LANES],
    ) -> [u64; LANES] {
        let mut x1s = [0i32; LANES];
        for (x1, &d) in x1s.iter_mut().zip(d) {
            *x1 = fs.filter_len() as i32 - 2 * d as i32;
        }
        self.file(px, k0, fs.k, &x1s);
        [0; LANES]
    }
}

impl PlaneSink for AccumSink<'_> {
    #[inline(always)]
    fn put_sums(&mut self, px: usize, k0: usize, k_total: usize, sums: &[i32; PLANE_LANES]) {
        self.file(px, k0, k_total, sums);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_tensor::bits::BitTensor;
    use phonebit_tensor::shape::Shape4;
    use phonebit_tensor::tensor::Tensor;

    use crate::kernels::bconv::compute_binarize_pack;

    fn arbitrary_bn() -> (BnParams, Vec<f32>) {
        let bn = BnParams {
            gamma: vec![0.5, -1.25, 2.0, -0.01],
            beta: vec![0.1, -0.2, 0.0, 3.0],
            mu: vec![1.0, -5.0, 0.5, 100.0],
            sigma: vec![0.9, 2.0, 1.5, 10.0],
        };
        let bias = vec![0.0, 1.0, -2.0, 0.5];
        (bn, bias)
    }

    #[test]
    fn xi_formula_matches_eqn6() {
        let (bn, bias) = arbitrary_bn();
        let f = FusedBn::precompute(&bn, &bias);
        #[allow(clippy::needless_range_loop)] // indexes four parallel arrays
        for i in 0..4 {
            let expect = bn.mu[i] - bn.beta[i] * bn.sigma[i] / bn.gamma[i] - bias[i];
            assert!((f.xi[i] - expect).abs() < 1e-6);
            assert_eq!(f.gamma_pos[i], bn.gamma[i] > 0.0);
        }
    }

    #[test]
    fn fused_equals_unfused_reference() {
        // The fused decision must equal sign(BN(conv + bias)) for both signs
        // of gamma across a sweep of accumulator values.
        let (bn, bias) = arbitrary_bn();
        let fused = FusedBn::precompute(&bn, &bias);
        for (ch, &b) in bias.iter().enumerate() {
            for raw in -200..=200 {
                let x1 = raw as f32 * 0.5;
                let x3 = bn.apply(ch, x1 + b);
                let reference = x3 >= 0.0;
                assert_eq!(
                    fused.decide_branchy(ch, x1),
                    reference,
                    "branchy mismatch ch={ch} x1={x1} x3={x3}"
                );
            }
        }
    }

    #[test]
    fn eqn9_equals_eqn8_truth_table() {
        // Exhaustive truth table: A (x1<xi), B (gamma>0), C (x1=xi). C and A
        // are mutually exclusive; enumerate all consistent combinations.
        let f = FusedBn {
            xi: vec![0.0, 0.0],
            gamma_pos: vec![true, false],
        };
        for ch in 0..2 {
            for x1 in [-1.0f32, 0.0, 1.0] {
                assert_eq!(
                    f.decide_logic(ch, x1),
                    f.decide_branchy(ch, x1),
                    "ch={ch} x1={x1}"
                );
            }
        }
    }

    #[test]
    fn eqn9_equals_eqn8_randomized() {
        let (bn, bias) = arbitrary_bn();
        let f = FusedBn::precompute(&bn, &bias);
        for ch in 0..4 {
            for raw in -1000..1000 {
                let x1 = raw as f32 * 0.37;
                assert_eq!(f.decide_logic(ch, x1), f.decide_branchy(ch, x1));
            }
            // Exactly at the threshold.
            let xi = f.xi[ch];
            assert_eq!(f.decide_logic(ch, xi), f.decide_branchy(ch, xi));
            assert!(
                f.decide_logic(ch, xi),
                "x1 = xi must binarize to 1 for either gamma sign"
            );
        }
    }

    /// Every `x1` a `bound`-bit window can produce, against every kind of
    /// threshold, through the unfused `binarize_pack` pass — the one kernel
    /// that still decides in float — with `W::BITS + 3` channels, so each
    /// pixel's bits share the first output word and spill into a second,
    /// into an output that comes in all ones.
    fn binarize_pack_matches_decide_logic_at<W: BitWord>() {
        let bound = 40i32;
        let mut thresholds: Vec<f32> = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for half_steps in -2 * (bound + 1)..=2 * (bound + 1) {
            thresholds.push(half_steps as f32 * 0.5); // integers and half-integers
        }
        let k_total = W::BITS + 3;
        let wpp = k_total.div_ceil(W::BITS);
        // One pixel per accumulator; neighbouring channels see different ones.
        let x1_of =
            |px: usize, k: usize| (px as i32 - bound + k as i32 % 3 - 1).clamp(-bound, bound);
        let shape = Shape4::new(1, 1, 2 * bound as usize + 1, k_total);
        let accum = Tensor::from_fn(shape, |_, _, px, k| x1_of(px, k));
        // Rotate the thresholds past the channels so each meets every bit
        // position, with either gamma sign.
        for rotation in 0..thresholds.len() {
            let fused = FusedBn {
                xi: (0..k_total)
                    .map(|k| thresholds[(k + rotation) % thresholds.len()])
                    .collect(),
                gamma_pos: (0..k_total).map(|k| (k + rotation / 2) % 2 == 0).collect(),
            };
            let mut out = BitTensor::<W>::zeros(shape);
            out.as_mut_words().fill(W::zero().not());
            compute_binarize_pack(&accum, &fused, &mut out);
            for (px, words) in out.as_words().chunks(wpp).enumerate() {
                for k in 0..k_total {
                    let x1 = x1_of(px, k);
                    assert_eq!(
                        words[k / W::BITS].bit(k % W::BITS),
                        fused.decide_logic(k, x1 as f32),
                        "{} px={px} k={k} x1={x1} xi={} gamma_pos={}",
                        W::CL_NAME,
                        fused.xi[k],
                        fused.gamma_pos[k]
                    );
                }
                let tail = words[wpp - 1].and(W::low_mask(k_total % W::BITS).not());
                assert_eq!(tail, W::zero(), "bits past the last channel stay clear");
            }
        }
    }

    #[test]
    fn sink_equals_decide_logic_exhaustively() {
        binarize_pack_matches_decide_logic_at::<u8>();
        binarize_pack_matches_decide_logic_at::<u16>();
        binarize_pack_matches_decide_logic_at::<u32>();
        binarize_pack_matches_decide_logic_at::<u64>();
    }

    /// Whether `cuts` fire filter `k` at `d` disagreements.
    fn fires(cuts: &Cuts, k: usize, d: u64) -> bool {
        d.wrapping_sub(cuts.0[k / LANES][k % LANES]) < 1 << 63
    }

    /// One filter per threshold and sign of γ, plus one: a padded last group.
    fn every_threshold(xis: &[f32]) -> FusedBn {
        let mut xi: Vec<f32> = xis.iter().flat_map(|&x| [x, x]).collect();
        xi.push(0.1);
        let gamma_pos = (0..xi.len()).map(|k| k % 2 == 0).collect();
        FusedBn { xi, gamma_pos }
    }

    #[test]
    fn cuts_equal_decide_logic_at_every_disagreement_count() {
        let mut xis = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-30,
            -1e-30,
            1e30,
            -1e30,
            16_777_215.0,
            -16_777_215.0,
        ];
        xis.extend((-400..=400).map(|q| q as f32 * 0.25));
        let fused = every_threshold(&xis);
        for bits in [1u64, 2, 3, 8, 27, 64, 100, 576, 4608] {
            let cuts = Cuts::new(&fused, bits as usize);
            assert!(cuts.0.len() * LANES > fused.len(), "premise: padded lanes");
            for d in 0..=bits {
                let x1 = (bits as i64 - 2 * d as i64) as f32;
                for k in 0..fused.len() {
                    assert_eq!(
                        fires(&cuts, k, d),
                        fused.decide_logic(k, x1),
                        "bits {bits} d {d} xi {} gamma_pos {}",
                        fused.xi[k],
                        fused.gamma_pos[k]
                    );
                }
                for k in fused.len()..cuts.0.len() * LANES {
                    assert!(!fires(&cuts, k, d), "padded lane {k} fired at d {d}");
                }
            }
        }
    }

    /// Past 2^24 bits `x1 as f32` rounds, and the search of Eqn 9 still
    /// finds the cut: checked at the ends and wherever `x1` passes `ξ`.
    #[test]
    fn cuts_of_windows_past_exact_f32_integers_equal_decide_logic() {
        let xis = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.5,
            3.0,
            16_777_215.0,
            -16_777_217.0,
            33_554_436.0,
            -4e7,
        ];
        let fused = every_threshold(&xis);
        for bits in [(1u64 << 24) + 1, (1 << 25) + 3] {
            let cuts = Cuts::new(&fused, bits as usize);
            for k in 0..fused.len() {
                let centre =
                    ((bits as f64 - fused.xi[k] as f64) / 2.0).clamp(0.0, bits as f64) as u64;
                let near = centre.saturating_sub(4)..=(centre + 4).min(bits);
                for d in [0, 1, bits - 1, bits].into_iter().chain(near) {
                    let x1 = (bits as i64 - 2 * d as i64) as f32;
                    assert_eq!(
                        fires(&cuts, k, d),
                        fused.decide_logic(k, x1),
                        "bits {bits} d {d} xi {} gamma_pos {}",
                        fused.xi[k],
                        fused.gamma_pos[k]
                    );
                }
            }
        }
    }

    /// Every Eqn (2) sum `s` an 8-bit window of `bits` taps can produce,
    /// `|s| ≤ 255·bits`, against every kind of threshold: the plane cuts
    /// equal Eqn 9, and padded lanes never fire.
    #[test]
    fn plane_cuts_equal_decide_logic_at_every_sum() {
        let mut xis = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            1e-30,
            -1e-30,
            1e30,
            -1e30,
        ];
        // Every quarter step across ±2 000 in an optimised build (about 7 s
        // on a 2-vCPU x86-64 guest); a debug build takes every 97th.
        let stride = if cfg!(debug_assertions) { 97 } else { 1 };
        xis.extend(
            (-8000..=8000)
                .step_by(stride)
                .chain([8000])
                .map(|q| q as f32 * 0.25),
        );
        let fused = every_threshold(&xis);
        for bits in [1, 3, 27, 75, 363] {
            let cuts = PlaneCuts::new(&fused, bits);
            assert_eq!(cuts.pos, std::array::from_fn(|i| 1 << i));
            let lo: Vec<i32> = cuts.lo.iter().flatten().copied().collect();
            let (live, padded) = lo.split_at(fused.len());
            assert!(!padded.is_empty(), "premise: padded lanes");
            let sums = -255 * bits as i32..255 * bits as i32 + 1;
            for (k, &lo) in live.iter().enumerate() {
                // `decide_logic`'s body, with its operands hoisted so the
                // sweep vectorises.
                let (xi, gamma_pos) = (fused.xi[k], fused.gamma_pos[k]);
                let wrong = sums
                    .clone()
                    .filter(|&s| (s.wrapping_sub(lo) >= 0) != decide(xi, gamma_pos, s as f32));
                assert_eq!(
                    wrong.count(),
                    0,
                    "bits {bits} xi {xi} gamma_pos {gamma_pos}"
                );
            }
            for &lo in padded {
                assert_eq!(sums.clone().filter(|&s| s.wrapping_sub(lo) >= 0).count(), 0);
            }
        }
    }

    /// At the widest window the `i32` lanes take, where `s as f32` rounds,
    /// the cuts still equal Eqn 9 at the ends of the range and around `ξ`.
    #[test]
    fn plane_cuts_of_the_widest_window_equal_decide_logic() {
        let xis = [f32::NAN, 0.0, -0.5, 3.0, 16_777_217.0, -3e8, 1e9];
        let fused = every_threshold(&xis);
        let cuts = PlaneCuts::new(&fused, MAX_WINDOW_BITS);
        let smax = 255 * MAX_WINDOW_BITS as i64;
        assert!(2 * smax < i64::from(i32::MAX), "premise: the span fits i32");
        for (k, (&xi, &gamma_pos)) in fused.xi.iter().zip(&fused.gamma_pos).enumerate() {
            let lo = cuts.lo[k / PLANE_LANES][k % PLANE_LANES];
            let near = (xi.clamp(-1e10, 1e10) as i64).clamp(-smax + 4, smax - 4);
            for s in [-smax, -smax + 1, smax - 1, smax]
                .into_iter()
                .chain(near - 4..=near + 4)
            {
                let s = s as i32;
                assert_eq!(
                    s.wrapping_sub(lo) >= 0,
                    fused.decide_logic(k, s as f32),
                    "s {s} xi {xi} gamma_pos {gamma_pos}"
                );
            }
        }
    }

    #[test]
    fn negative_gamma_flips_comparison() {
        let bn = BnParams {
            gamma: vec![-1.0],
            beta: vec![0.0],
            mu: vec![0.0],
            sigma: vec![1.0],
        };
        let f = FusedBn::precompute(&bn, &[0.0]);
        // gamma < 0: output 1 iff x1 <= xi = 0.
        assert!(f.decide_logic(0, -3.0));
        assert!(f.decide_logic(0, 0.0));
        assert!(!f.decide_logic(0, 3.0));
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn non_positive_sigma_rejected() {
        let bn = BnParams {
            gamma: vec![1.0],
            beta: vec![0.0],
            mu: vec![0.0],
            sigma: vec![0.0],
        };
        FusedBn::precompute(&bn, &[0.0]);
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn zero_gamma_rejected() {
        let bn = BnParams {
            gamma: vec![0.0],
            beta: vec![0.0],
            mu: vec![0.0],
            sigma: vec![1.0],
        };
        FusedBn::precompute(&bn, &[0.0]);
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn bias_length_mismatch_rejected() {
        FusedBn::precompute(&BnParams::identity(3), &[0.0; 2]);
    }

    #[test]
    fn identity_binarizes_at_zero() {
        let f = FusedBn::identity(2);
        assert!(f.decide_logic(0, 0.0));
        assert!(f.decide_logic(1, 5.0));
        assert!(!f.decide_logic(0, -0.25));
    }

    #[test]
    fn bn_identity_apply_is_identity() {
        let bn = BnParams::identity(1);
        assert_eq!(bn.apply(0, 3.25), 3.25);
        assert_eq!(bn.len(), 1);
        assert!(!bn.is_empty());
    }
}
