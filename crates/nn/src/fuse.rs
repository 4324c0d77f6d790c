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
//! [`BitSink`] is the one place a kernel's raw accumulator becomes that bit.

use phonebit_tensor::bits::BitWord;
use phonebit_tensor::lanes::LANES;

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
    pub fn validate(&self) {
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

    /// The float batch-norm output (Eqn 5) for layers that must produce real
    /// values instead of bits; requires the original BN parameters.
    pub fn bn_output(bn: &BnParams, bias: &[f32], channel: usize, x1: f32) -> f32 {
        bn.apply(channel, x1 + bias[channel])
    }
}

/// Eqn 9 on one channel's `ξ` and `γ > 0`.
#[inline(always)]
fn decide(xi: f32, gamma_pos: bool, x1: f32) -> bool {
    let a = x1 < xi; // isless
    let c = x1 == xi; // isequal
    (a ^ gamma_pos) | c
}

/// The packed-bit sink of every fused binarize+pack kernel (Fig 4): decides
/// Eqn (9) for a run of raw accumulators, builds their bits in a register as
/// `decision << bit` — the near-coin-flip outcome is data, not a branch
/// (§VI-C) — and ORs them into the output word once. Rows must start zeroed;
/// runs may arrive in any order.
#[derive(Debug)]
pub struct BitSink<'a, W: BitWord> {
    fused: &'a FusedBn,
    row: &'a mut [W],
    words_per_pixel: usize,
}

impl<'a, W: BitWord> BitSink<'a, W> {
    /// A sink over `row`, a zeroed span of whole output pixels of
    /// `words_per_pixel` words each, thresholded by `fused`.
    pub fn new(fused: &'a FusedBn, row: &'a mut [W], words_per_pixel: usize) -> Self {
        Self {
            fused,
            row,
            words_per_pixel,
        }
    }
}

/// Where a row driver's outputs go: `put(px, k0, x1s)` takes the raw
/// accumulators of filters `k0..k0 + x1s.len()` at row pixel `px` and
/// decides what an output *is* — fused binarize+pack bits ([`BitSink`]) or
/// raw `i32`s ([`AccumSink`]) — so one driver serves every kernel.
///
/// A trait rather than a closure because the drivers call it from several
/// sites below a `#[target_feature]` frame ([`crate::kernels::isa`]): an
/// implementation marks `put` `#[inline(always)]`, which a closure cannot
/// promise, and left out of line it would be compiled for the baseline
/// target.
pub trait RowSink {
    /// The longest run [`RowSink::put`] takes (at a `k0` a multiple of it).
    const MAX_RUN: usize = usize::MAX;

    /// Takes one run of accumulators.
    fn put(&mut self, px: usize, k0: usize, x1s: &[i32]);

    /// Takes a filter group's `L` accumulators (a multiple of [`LANES`]),
    /// of which those of filters `k0..k_total` exist. A full group, and
    /// every whole [`LANES`] of a partial one, goes out with its length a
    /// constant, so the sink unrolls over it; only a ragged `k_total %
    /// LANES` tail is a run of run-time length.
    #[inline(always)]
    fn put_group<const L: usize>(&mut self, px: usize, k0: usize, k_total: usize, x1s: &[i32; L]) {
        let live = (k_total - k0).min(L);
        if live == L && L <= Self::MAX_RUN {
            return self.put(px, k0, x1s);
        }
        let whole = live / LANES * LANES;
        for (at, eight) in x1s[..whole].as_chunks::<LANES>().0.iter().enumerate() {
            self.put(px, k0 + at * LANES, eight);
        }
        if whole < live {
            self.put(px, k0 + whole, &x1s[whole..live]);
        }
    }
}

impl<W: BitWord> RowSink for BitSink<'_, W> {
    const MAX_RUN: usize = W::BITS;

    /// Sets bit `k0 + i` of row pixel `px` to
    /// [`FusedBn::decide_logic`]`(k0 + i, x1s[i])` for every `i`. The run
    /// must stay inside one output word, as a filter tile starting at a
    /// multiple of its length does (checked in debug builds only: a hard
    /// assert here cost the tiled kernels 10–20 %).
    #[inline(always)]
    fn put(&mut self, px: usize, k0: usize, x1s: &[i32]) {
        let (bit0, n) = (k0 % W::BITS, x1s.len());
        debug_assert!(bit0 + n <= W::BITS, "run straddles an output word");
        let xi = &self.fused.xi[k0..k0 + n];
        let gamma_pos = &self.fused.gamma_pos[k0..k0 + n];
        let mut word = W::zero();
        for (i, &x1) in x1s.iter().enumerate() {
            word = word.or(W::from_bit(decide(xi[i], gamma_pos[i], x1 as f32)).shl(bit0 + i));
        }
        let slot = &mut self.row[px * self.words_per_pixel + k0 / W::BITS];
        *slot = slot.or(word);
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

impl RowSink for AccumSink<'_> {
    #[inline(always)]
    fn put(&mut self, px: usize, k0: usize, x1s: &[i32]) {
        self.row[px * self.channels + k0..][..x1s.len()].copy_from_slice(x1s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for ch in 0..4 {
            for raw in -200..=200 {
                let x1 = raw as f32 * 0.5;
                let x3 = FusedBn::bn_output(&bn, &bias, ch, x1);
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
    /// threshold, through a sink whose `W::BITS + 3` channels share the
    /// first output word and spill into a second — as single outputs, as
    /// filter quads and as whole words.
    fn sink_matches_decide_logic_at<W: BitWord>() {
        let bound = 40i32;
        let mut thresholds: Vec<f32> = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for half_steps in -2 * (bound + 1)..=2 * (bound + 1) {
            thresholds.push(half_steps as f32 * 0.5); // integers and half-integers
        }
        let k_total = W::BITS + 3;
        let wpp = k_total.div_ceil(W::BITS);
        // Rotate the thresholds past the channels so each meets every bit
        // position, with either gamma sign.
        for rotation in 0..thresholds.len() {
            let fused = FusedBn {
                xi: (0..k_total)
                    .map(|k| thresholds[(k + rotation) % thresholds.len()])
                    .collect(),
                gamma_pos: (0..k_total).map(|k| (k + rotation / 2) % 2 == 0).collect(),
            };
            for x1 in -bound..=bound {
                // Neighbouring channels see different accumulators.
                let x1s: Vec<i32> = (0..k_total as i32)
                    .map(|k| (x1 + k % 3 - 1).clamp(-bound, bound))
                    .collect();
                let mut row = vec![W::zero(); 3 * wpp];
                let mut sink = BitSink::new(&fused, &mut row, wpp);
                // The sink promises nothing about arrival order: pixel 0
                // one channel at a time, descending; pixel 1 in quads, last
                // first; pixel 2 a word at a time.
                for k in (0..k_total).rev() {
                    sink.put(0, k, &x1s[k..k + 1]);
                }
                for k0 in (0..k_total).step_by(4).rev() {
                    sink.put(1, k0, &x1s[k0..(k0 + 4).min(k_total)]);
                }
                for k0 in (0..k_total).step_by(W::BITS) {
                    sink.put(2, k0, &x1s[k0..(k0 + W::BITS).min(k_total)]);
                }
                for (px, words) in row.chunks(wpp).enumerate() {
                    for k in 0..k_total {
                        assert_eq!(
                            words[k / W::BITS].bit(k % W::BITS),
                            fused.decide_logic(k, x1s[k] as f32),
                            "{} px={px} k={k} x1={} xi={} gamma_pos={}",
                            W::CL_NAME,
                            x1s[k],
                            fused.xi[k],
                            fused.gamma_pos[k]
                        );
                    }
                    let tail = words[wpp - 1].and(W::low_mask(k_total % W::BITS).not());
                    assert_eq!(tail, W::zero(), "bits past the last channel stay clear");
                }
            }
        }
    }

    #[test]
    fn sink_equals_decide_logic_exhaustively() {
        sink_matches_decide_logic_at::<u8>();
        sink_matches_decide_logic_at::<u16>();
        sink_matches_decide_logic_at::<u32>();
        sink_matches_decide_logic_at::<u64>();
    }

    #[test]
    fn a_group_leaves_whole_then_in_eights_then_its_ragged_tail() {
        /// Records `(k0, run length)` per `put`; takes runs of up to `RUN`.
        struct Runs<const RUN: usize>(Vec<(usize, usize)>);
        impl<const RUN: usize> RowSink for Runs<RUN> {
            const MAX_RUN: usize = RUN;
            fn put(&mut self, _: usize, k0: usize, x1s: &[i32]) {
                assert!(x1s.len() <= RUN);
                self.0.push((k0, x1s.len()));
            }
        }
        fn runs<const RUN: usize, const L: usize>(
            k0: usize,
            k_total: usize,
        ) -> Vec<(usize, usize)> {
            let mut sink = Runs::<RUN>(Vec::new());
            sink.put_group(0, k0, k_total, &[0; L]);
            sink.0
        }
        assert_eq!(runs::<64, 8>(8, 16), [(8, 8)]);
        assert_eq!(runs::<64, 8>(8, 13), [(8, 5)]);
        assert_eq!(runs::<64, 16>(16, 40), [(16, 16)]);
        assert_eq!(runs::<64, 16>(32, 40), [(32, 8)]);
        assert_eq!(runs::<64, 16>(0, 7), [(0, 7)]);
        assert_eq!(runs::<64, 16>(16, 31), [(16, 8), (24, 7)]);
        // A word narrower than the group takes it an eight at a time.
        assert_eq!(runs::<8, 16>(16, 40), [(16, 8), (24, 8)]);
        assert_eq!(runs::<8, 16>(32, 41), [(32, 8), (40, 1)]);
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
