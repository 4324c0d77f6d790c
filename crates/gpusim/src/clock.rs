//! Shared device clock: the contention model for multiple command queues
//! on one GPU.
//!
//! The single-queue simulator lets every [`CommandQueue`] pretend it owns
//! the whole device. Real mobile GPUs time-share: when N streams dispatch
//! concurrently, each kernel gets only the compute units the others leave
//! free, and DRAM bandwidth is one shared resource. A [`DeviceClock`] makes
//! that sharing explicit: every queue serving one device holds the same
//! `Arc<DeviceClock>`, and each dispatch is inflated by the clock's
//! [`Contention`] for the kernel's actual compute-unit demand.
//!
//! The model (deterministic — no wall-clock or scheduling races):
//!
//! - **Compute**: a dispatch can spread over at most
//!   `ceil(work_items / alus_per_cu)` compute units; with `n` co-resident
//!   streams issuing symmetric work, aggregate CU demand is `n` times that,
//!   and demand beyond the device's CU budget serializes:
//!   `t_compute × max(1, n·cus_needed / cus)`. Kernels too small to fill
//!   the device (a dense matvec, a softmax) **overlap** other streams'
//!   work for free — the multi-queue win the paper's launch-overhead
//!   analysis predicts.
//! - **Memory**: DRAM bandwidth has no per-stream partitions; `n` symmetric
//!   streams each see `1/n` of it (`t_memory × n`).
//! - **Host time** (kernel launch overhead, per-run framework overhead,
//!   input staging) stays per-queue: each stream runs its own CPU thread,
//!   so host work of one stream overlaps device work of another — which is
//!   why sharding buys throughput even when every kernel saturates the GPU.
//!
//! # Heterogeneous queue mixes
//!
//! The symmetric formula assumes every other stream mirrors the current
//! dispatch — true when N clones of one model shard one request stream,
//! wrong when **different models co-reside** on the device (a detector next
//! to a classifier). [`DeviceClock::set_mix`] replaces the mirror
//! assumption with an explicit per-queue expected load
//! ([`QueueLoad`]: mean CU fraction × busy duty cycle): each dispatch is
//! then inflated against the *registered* neighbors via
//! [`Contention::against`], so a tenant with a light kernel mix stops being
//! modeled as if it were N more copies of the heavy one. The clock also
//! measures the mix it observes (`note_dispatch`), which is how a serving
//! runtime learns each tenant's `QueueLoad` in the first place — walk the
//! tenant's plan on a solo clocked queue and read
//! [`DeviceClock::mean_cu_frac`] / [`DeviceClock::busy_s`].
//!
//! The stream count is set explicitly by whoever owns the queues (the
//! serving runtime knows how many streams it staged); queues only read it.
//! A clock with zero or one stream and no registered mix is
//! contention-free, so attaching a clock to a solo queue changes nothing.
//!
//! [`CommandQueue`]: crate::queue::CommandQueue

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::cost::{Contention, QueueLoad};
use crate::device::DeviceProfile;
use crate::ndrange::NdRange;

/// A thermal-throttle epoch: between `start_ms` and `end_ms` of modeled
/// wall time the SoC derates its clocks and every window runs `slowdown`×
/// slower. Epochs may overlap; slowdowns multiply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleEpoch {
    /// Epoch start, modeled wall milliseconds.
    pub start_ms: f64,
    /// Epoch end (exclusive), modeled wall milliseconds.
    pub end_ms: f64,
    /// Service-time multiplier while the epoch is active (`>= 1`).
    pub slowdown: f64,
}

/// A time-localized burst of elevated transient dispatch-failure
/// probability, layered on top of [`FaultPlan::failure_rate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultBurst {
    /// Burst start, modeled wall milliseconds.
    pub start_ms: f64,
    /// Burst end (exclusive), modeled wall milliseconds.
    pub end_ms: f64,
    /// Additional per-attempt failure probability while active.
    pub rate: f64,
}

/// A seeded, deterministic device-fault schedule.
///
/// Two fault classes, mirroring what real mobile SoCs do under load:
///
/// - **Transient dispatch failures**: an execution attempt is lost and
///   must be retried. Whether a given attempt faults is a pure function
///   of `(seed, key, time)` — the caller keys attempts by stable identity
///   (tenant, window index, attempt number), so schedulers and executors
///   that enumerate attempts in *different orders* (or on different
///   threads) still observe the **identical** fault outcomes. That is
///   what preserves the modeled-vs-executed no-drift invariant under
///   injected faults.
/// - **Thermal throttling**: during a [`ThrottleEpoch`] the whole SoC is
///   derated and service times stretch by the epoch's slowdown factor.
///   The derating is a function of modeled wall time, so a scheduler
///   placing a window at `t` and an executor running it at the same
///   modeled `t` apply the same factor.
///
/// A plan with zero failure rate, no bursts, and no epochs is benign:
/// attaching it changes nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    failure_rate: f64,
    throttle: Vec<ThrottleEpoch>,
    bursts: Vec<FaultBurst>,
}

impl FaultPlan {
    /// A benign plan (no failures, no throttling) rolled from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            failure_rate: 0.0,
            throttle: Vec::new(),
            bursts: Vec::new(),
        }
    }

    /// Sets the base per-attempt transient failure probability.
    pub fn with_failure_rate(mut self, rate: f64) -> Self {
        self.failure_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Adds a thermal-throttle epoch.
    pub fn with_throttle(mut self, epoch: ThrottleEpoch) -> Self {
        self.throttle.push(epoch);
        self
    }

    /// Adds a time-localized failure burst.
    pub fn with_burst(mut self, burst: FaultBurst) -> Self {
        self.bursts.push(burst);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The base per-attempt failure probability.
    pub fn failure_rate(&self) -> f64 {
        self.failure_rate
    }

    /// The registered throttle epochs.
    pub fn throttle_epochs(&self) -> &[ThrottleEpoch] {
        &self.throttle
    }

    /// The effective per-attempt failure probability at modeled wall time
    /// `at_ms`: the base rate plus every active burst, clamped to `[0, 1]`.
    fn failure_rate_at(&self, at_ms: f64) -> f64 {
        let burst: f64 = self
            .bursts
            .iter()
            .filter(|b| at_ms >= b.start_ms && at_ms < b.end_ms)
            .map(|b| b.rate.max(0.0))
            .sum();
        (self.failure_rate + burst).clamp(0.0, 1.0)
    }

    /// The service-time stretch factor at modeled wall time `at_ms`: the
    /// product of every active epoch's slowdown, never below 1.
    pub fn slowdown_at(&self, at_ms: f64) -> f64 {
        self.throttle
            .iter()
            .filter(|e| at_ms >= e.start_ms && at_ms < e.end_ms)
            .map(|e| e.slowdown.max(1.0))
            .product::<f64>()
            .max(1.0)
    }

    /// Whether the attempt identified by `key` faults when it starts at
    /// modeled wall time `at_ms`.
    ///
    /// `key` must be a stable identity of the attempt (e.g. a hash of
    /// tenant, window index, and attempt number) — **not** a dispatch
    /// counter — so concurrent executors and sequential schedulers roll
    /// the same outcome regardless of interleaving.
    pub fn attempt_faults(&self, key: u64, at_ms: f64) -> bool {
        let rate = self.failure_rate_at(at_ms);
        if rate <= 0.0 {
            return false;
        }
        // SplitMix64 finalizer over the seeded key: a uniform in [0, 1).
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let uniform = (z >> 11) as f64 / (1u64 << 53) as f64;
        uniform < rate
    }

    /// Parses a `--fault` spec: comma-separated `key=value` fields.
    ///
    /// - `seed=<u64>` — the fault seed (default 0)
    /// - `rate=<p>` — base per-attempt failure probability
    /// - `throttle=<start>-<end>@<slowdown>` — a throttle epoch in ms
    ///   (repeatable)
    /// - `burst=<start>-<end>@<rate>` — a failure burst in ms (repeatable)
    ///
    /// Example: `rate=0.05,throttle=100-200@1.5,burst=50-80@0.3,seed=9`.
    ///
    /// The parser is strict: values the runtime would otherwise silently
    /// clamp or ignore are rejected with an error naming the offending
    /// token — a probability outside `[0, 1]`, a throttle slowdown below 1
    /// (the executor floors slowdowns at 1, so such an epoch would be a
    /// silent no-op), and duplicate `seed=`/`rate=` fields (the last one
    /// would silently win). `throttle=`/`burst=` stay repeatable: each
    /// occurrence adds an epoch.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::new(0);
        let (mut saw_seed, mut saw_rate) = (false, false);
        for field in spec.split(',').filter(|f| !f.trim().is_empty()) {
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| format!("fault field `{field}` is not key=value"))?;
            match k.trim() {
                "seed" => {
                    if std::mem::replace(&mut saw_seed, true) {
                        return Err(format!("duplicate fault field `seed` (second: `{field}`)"));
                    }
                    plan.seed = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad fault seed `{v}`"))?;
                }
                "rate" => {
                    if std::mem::replace(&mut saw_rate, true) {
                        return Err(format!("duplicate fault field `rate` (second: `{field}`)"));
                    }
                    let rate: f64 = v
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad fault rate `{v}`"))?;
                    if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                        return Err(format!("fault rate `{v}` must be a probability in [0, 1]"));
                    }
                    plan = plan.with_failure_rate(rate);
                }
                "throttle" => {
                    let (start_ms, end_ms, slowdown) = parse_window_at(v)
                        .ok_or_else(|| format!("bad throttle `{v}` (want start-end@slowdown)"))?;
                    if slowdown < 1.0 {
                        return Err(format!(
                            "throttle slowdown `{slowdown}` in `{v}` must be >= 1 \
                             (a slowdown below 1 is silently floored at execution)"
                        ));
                    }
                    plan = plan.with_throttle(ThrottleEpoch {
                        start_ms,
                        end_ms,
                        slowdown,
                    });
                }
                "burst" => {
                    let (start_ms, end_ms, rate) = parse_window_at(v)
                        .ok_or_else(|| format!("bad burst `{v}` (want start-end@rate)"))?;
                    if rate > 1.0 {
                        return Err(format!(
                            "burst rate `{rate}` in `{v}` must be a probability in [0, 1]"
                        ));
                    }
                    plan = plan.with_burst(FaultBurst {
                        start_ms,
                        end_ms,
                        rate,
                    });
                }
                other => return Err(format!("unknown fault field `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// Parses `<start>-<end>@<value>` (all f64, start < end).
fn parse_window_at(v: &str) -> Option<(f64, f64, f64)> {
    let (range, value) = v.trim().split_once('@')?;
    let (start, end) = range.split_once('-')?;
    let start: f64 = start.trim().parse().ok()?;
    let end: f64 = end.trim().parse().ok()?;
    let value: f64 = value.trim().parse().ok()?;
    // `partial_cmp` keeps NaN endpoints out (they compare as unordered).
    if start.partial_cmp(&end) != Some(std::cmp::Ordering::Less)
        || !value.is_finite()
        || value < 0.0
    {
        return None;
    }
    Some((start, end, value))
}

/// Shared state of one device serving multiple command queues.
#[derive(Debug)]
pub struct DeviceClock {
    device: DeviceProfile,
    /// Streams co-resident on the device (fixed by the runtime that owns
    /// the queues; `<= 1` means no contention).
    streams: usize,
    /// Aggregate device-busy seconds across every attached queue
    /// (f64 bits in an atomic so queues can add lock-free).
    busy_bits: AtomicU64,
    /// Aggregate `cu_frac × busy seconds` across every attached queue —
    /// `demand / busy` is the busy-weighted mean CU fraction of the mix
    /// this clock actually served.
    demand_bits: AtomicU64,
    /// The expected load of every *other* co-resident queue, from any
    /// queue's perspective. `None` falls back to the symmetric
    /// `streams`-mirrors model.
    mix: RwLock<Option<Vec<QueueLoad>>>,
    /// The injected fault schedule, if any. Both the open-loop scheduler
    /// and the executor read the *same* plan off the shared clock, which
    /// is what keeps modeled and executed fault outcomes identical.
    fault: RwLock<Option<FaultPlan>>,
}

impl DeviceClock {
    /// A clock for `device` with a single (contention-free) stream.
    pub fn new(device: DeviceProfile) -> Arc<Self> {
        Self::with_streams(device, 1)
    }

    /// A clock for `device` shared by `streams` co-resident queues.
    pub fn with_streams(device: DeviceProfile, streams: usize) -> Arc<Self> {
        Arc::new(Self {
            device,
            streams,
            busy_bits: AtomicU64::new(0f64.to_bits()),
            demand_bits: AtomicU64::new(0f64.to_bits()),
            mix: RwLock::new(None),
            fault: RwLock::new(None),
        })
    }

    /// Streams sharing the device.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Registers the expected load of every *other* co-resident queue —
    /// the heterogeneous-mix contention model. `None` restores the
    /// symmetric `streams`-mirrors assumption. A multi-tenant runtime
    /// passes `streams − 1` copies of the aggregate tenant mix (any idle
    /// stream may pull any tenant's window, so every neighbor is expected
    /// to run the blend).
    pub fn set_mix(&self, mix: Option<Vec<QueueLoad>>) {
        *self.mix.write().expect("mix lock poisoned") = mix;
    }

    /// The registered other-queue mix, if any.
    pub fn mix(&self) -> Option<Vec<QueueLoad>> {
        self.mix.read().expect("mix lock poisoned").clone()
    }

    /// Installs (or clears) the injected fault schedule.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault.write().expect("fault lock poisoned") = plan;
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault.read().expect("fault lock poisoned").clone()
    }

    /// Fraction of the device's compute units a dispatch of `ndrange` can
    /// occupy (`ceil(work_items / alus_per_cu)` CUs over the CU budget,
    /// clamped to `[1/cus, 1]`).
    pub fn cu_frac_for(&self, ndrange: &NdRange) -> f64 {
        let cus = self.device.compute_units.max(1);
        let cus_needed = ndrange
            .work_items()
            .div_ceil(self.device.alus_per_cu.max(1))
            .clamp(1, cus);
        cus_needed as f64 / cus as f64
    }

    /// The contention a dispatch of `ndrange` experiences right now.
    ///
    /// With a registered mix ([`DeviceClock::set_mix`]) the dispatch is
    /// judged against the *actual* expected neighbor loads
    /// ([`Contention::against`]). Otherwise the symmetric model applies:
    /// demand is `streams × cus_needed` against the device's
    /// `compute_units`, so a kernel too small to fill the device overlaps
    /// other streams for free while a saturating kernel serializes, and
    /// memory inflation is the plain bandwidth split across streams.
    pub fn contention_for(&self, ndrange: &NdRange) -> Contention {
        if let Some(mix) = self.mix.read().expect("mix lock poisoned").as_ref() {
            return Contention::against(self.cu_frac_for(ndrange), mix);
        }
        let n = self.streams().max(1);
        if n == 1 {
            return Contention::none();
        }
        Contention {
            compute: (n as f64 * self.cu_frac_for(ndrange)).max(1.0),
            memory: n as f64,
        }
    }

    /// Adds a dispatch's busy time to the aggregate device-busy counter.
    fn note_busy(&self, seconds: f64) {
        add_bits(&self.busy_bits, seconds);
    }

    /// Records one dispatch: its busy seconds and its CU demand, feeding
    /// both the busy counter and the observed-mix accounting
    /// ([`DeviceClock::mean_cu_frac`]).
    pub fn note_dispatch(&self, cu_frac: f64, seconds: f64) {
        self.note_busy(seconds);
        add_bits(&self.demand_bits, cu_frac * seconds);
    }

    /// Aggregate busy seconds across every queue on this device — divide by
    /// `streams × wall` for average device pressure.
    pub fn busy_s(&self) -> f64 {
        f64::from_bits(self.busy_bits.load(Ordering::Relaxed))
    }

    /// Busy-weighted mean CU fraction of every dispatch this clock served —
    /// the measured `cu_frac` of a [`QueueLoad`] (0 when nothing ran).
    pub fn mean_cu_frac(&self) -> f64 {
        let busy = self.busy_s();
        if busy <= 0.0 {
            return 0.0;
        }
        f64::from_bits(self.demand_bits.load(Ordering::Relaxed)) / busy
    }
}

/// Lock-free `+=` on an f64 stored as atomic bits.
fn add_bits(bits: &AtomicU64, delta: f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock(streams: usize) -> Arc<DeviceClock> {
        DeviceClock::with_streams(DeviceProfile::adreno_640(), streams)
    }

    #[test]
    fn solo_clock_is_contention_free() {
        let k = clock(1).contention_for(&NdRange::linear(1 << 20));
        assert_eq!(k, Contention::none());
        let idle = clock(0).contention_for(&NdRange::linear(64));
        assert_eq!(idle, Contention::none());
    }

    #[test]
    fn saturating_kernels_serialize_small_kernels_overlap() {
        // Adreno 640: 2 CUs x 192 ALUs.
        let c = clock(2);
        // A device-filling kernel wants both CUs on both streams: 2x.
        let big = c.contention_for(&NdRange::linear(1 << 20));
        assert!((big.compute - 2.0).abs() < 1e-12);
        assert!((big.memory - 2.0).abs() < 1e-12);
        // A kernel that fits one CU leaves the other free: no compute
        // contention at 2 streams.
        let small = c.contention_for(&NdRange::linear(128));
        assert!((small.compute - 1.0).abs() < 1e-12);
        assert!((small.memory - 2.0).abs() < 1e-12);
    }

    #[test]
    fn contention_grows_with_stream_count() {
        let big = NdRange::linear(1 << 20);
        let c2 = clock(2).contention_for(&big);
        let c4 = clock(4).contention_for(&big);
        assert!(c4.compute > c2.compute);
        assert!(c4.memory > c2.memory);
        // Even tiny kernels serialize once streams outnumber CUs.
        let small = NdRange::linear(64);
        let s4 = clock(4).contention_for(&small);
        assert!((s4.compute - 2.0).abs() < 1e-12, "4 streams on 2 CUs");
    }

    #[test]
    fn registered_mix_replaces_the_mirror_assumption() {
        let c = clock(2);
        let big = NdRange::linear(1 << 20);
        // Symmetric 2-stream view: a saturating kernel halves.
        assert!((c.contention_for(&big).compute - 2.0).abs() < 1e-12);
        // A light neighbor (half the CUs, 40% duty) barely taxes it.
        c.set_mix(Some(vec![QueueLoad {
            cu_frac: 0.5,
            busy: 0.4,
        }]));
        let k = c.contention_for(&big);
        assert!((k.compute - 1.2).abs() < 1e-12, "1.0 + 0.4*0.5 demand");
        assert!((k.memory - 1.4).abs() < 1e-12);
        assert_eq!(c.mix().unwrap().len(), 1);
        // Saturating mirrors reproduce the symmetric model exactly.
        c.set_mix(Some(vec![QueueLoad::saturating()]));
        assert_eq!(c.contention_for(&big), clock(2).contention_for(&big));
        // Clearing the mix restores the symmetric path.
        c.set_mix(None);
        assert!((c.contention_for(&big).compute - 2.0).abs() < 1e-12);
    }

    #[test]
    fn busy_accounting_accumulates() {
        let c = clock(2);
        assert_eq!(c.busy_s(), 0.0);
        c.note_busy(0.25);
        c.note_busy(0.5);
        assert!((c.busy_s() - 0.75).abs() < 1e-15);
        assert_eq!(c.device.name, "Adreno 640");
        assert_eq!(c.streams(), 2);
    }

    #[test]
    fn dispatch_accounting_measures_the_mix() {
        let c = clock(1);
        assert_eq!(c.mean_cu_frac(), 0.0, "nothing ran yet");
        // 1 s at full device + 1 s at half: mean CU fraction 0.75.
        c.note_dispatch(1.0, 1.0);
        c.note_dispatch(0.5, 1.0);
        assert!((c.busy_s() - 2.0).abs() < 1e-15);
        assert!((c.mean_cu_frac() - 0.75).abs() < 1e-12);
        // cu_frac_for matches the contention model's CU math (2 CUs x 192
        // ALUs): 128 items fit one CU, a huge grid wants both.
        assert!((c.cu_frac_for(&NdRange::linear(128)) - 0.5).abs() < 1e-12);
        assert!((c.cu_frac_for(&NdRange::linear(1 << 20)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fault_plan_is_deterministic_and_order_independent() {
        let plan = FaultPlan::new(7).with_failure_rate(0.3);
        // Same (key, time) always rolls the same outcome.
        let forward: Vec<bool> = (0..64).map(|k| plan.attempt_faults(k, 0.0)).collect();
        let backward: Vec<bool> = (0..64).rev().map(|k| plan.attempt_faults(k, 0.0)).collect();
        let reversed: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
        // The empirical rate tracks the configured one.
        let n = 4096;
        let hits = (0..n).filter(|&k| plan.attempt_faults(k, 0.0)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.05, "observed {frac}");
        // A different seed rolls a different pattern.
        let other = FaultPlan::new(8).with_failure_rate(0.3);
        let differs = (0..64).any(|k| plan.attempt_faults(k, 0.0) != other.attempt_faults(k, 0.0));
        assert!(differs);
    }

    #[test]
    fn fault_rate_extremes_and_benign_plans() {
        let never = FaultPlan::new(1);
        assert!((0..256).all(|k| !never.attempt_faults(k, 0.0)));
        let always = FaultPlan::new(1).with_failure_rate(1.0);
        assert!((0..256).all(|k| always.attempt_faults(k, 0.0)));
        assert_eq!(always.failure_rate(), 1.0);
        assert_eq!(always.seed(), 1);
    }

    #[test]
    fn throttle_epochs_stretch_only_inside_their_window() {
        let plan = FaultPlan::new(0)
            .with_throttle(ThrottleEpoch {
                start_ms: 100.0,
                end_ms: 200.0,
                slowdown: 1.5,
            })
            .with_throttle(ThrottleEpoch {
                start_ms: 150.0,
                end_ms: 250.0,
                slowdown: 2.0,
            });
        assert_eq!(plan.slowdown_at(0.0), 1.0);
        assert_eq!(plan.slowdown_at(120.0), 1.5);
        // Overlapping epochs multiply.
        assert_eq!(plan.slowdown_at(175.0), 3.0);
        assert_eq!(plan.slowdown_at(225.0), 2.0);
        assert_eq!(plan.slowdown_at(250.0), 1.0, "end is exclusive");
        assert_eq!(plan.throttle_epochs().len(), 2);
    }

    #[test]
    fn fault_bursts_localize_failures_in_time() {
        let plan = FaultPlan::new(3).with_burst(FaultBurst {
            start_ms: 50.0,
            end_ms: 80.0,
            rate: 1.0,
        });
        assert_eq!(plan.failure_rate_at(0.0), 0.0);
        assert_eq!(plan.failure_rate_at(60.0), 1.0);
        assert_eq!(plan.failure_rate_at(80.0), 0.0);
        assert!((0..32).all(|k| !plan.attempt_faults(k, 10.0)));
        assert!((0..32).all(|k| plan.attempt_faults(k, 60.0)));
    }

    #[test]
    fn fault_spec_round_trips_through_parse() {
        let plan = FaultPlan::parse("rate=0.05,throttle=100-200@1.5,burst=50-80@0.3,seed=9")
            .expect("valid spec");
        assert_eq!(plan.seed(), 9);
        assert!((plan.failure_rate() - 0.05).abs() < 1e-12);
        assert_eq!(plan.slowdown_at(150.0), 1.5);
        assert!((plan.failure_rate_at(60.0) - 0.35).abs() < 1e-12);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::new(0));
        assert!(FaultPlan::parse("rate=x").is_err());
        assert!(FaultPlan::parse("nope=1").is_err());
        assert!(
            FaultPlan::parse("throttle=200-100@1.5").is_err(),
            "start >= end"
        );
        assert!(FaultPlan::parse("burst=1-2").is_err());
    }

    #[test]
    fn fault_spec_rejects_name_the_offending_token() {
        // Out-of-range probabilities are errors, not silent clamps.
        let err = FaultPlan::parse("rate=1.5").unwrap_err();
        assert!(err.contains("1.5") && err.contains("[0, 1]"), "{err}");
        let err = FaultPlan::parse("rate=-0.1").unwrap_err();
        assert!(err.contains("-0.1"), "{err}");
        let err = FaultPlan::parse("rate=nan").unwrap_err();
        assert!(err.contains("nan"), "{err}");
        let err = FaultPlan::parse("rate=inf").unwrap_err();
        assert!(err.contains("inf"), "{err}");
        // A sub-unity throttle slowdown would be silently floored at
        // execution; the parser refuses it instead.
        let err = FaultPlan::parse("throttle=0-100@0.5").unwrap_err();
        assert!(err.contains("0.5") && err.contains(">= 1"), "{err}");
        // A burst rate above 1 would be silently clamped by
        // `failure_rate_at`; refuse it too.
        let err = FaultPlan::parse("burst=0-100@1.5").unwrap_err();
        assert!(err.contains("1.5"), "{err}");
        // Duplicate scalar fields: the last would silently win.
        let err = FaultPlan::parse("seed=1,seed=2").unwrap_err();
        assert!(err.contains("duplicate") && err.contains("seed=2"), "{err}");
        let err = FaultPlan::parse("rate=0.1,rate=0.2").unwrap_err();
        assert!(
            err.contains("duplicate") && err.contains("rate=0.2"),
            "{err}"
        );
        // Malformed window shapes name the value.
        let err = FaultPlan::parse("throttle=abc@1.5").unwrap_err();
        assert!(err.contains("abc@1.5"), "{err}");
        let err = FaultPlan::parse("burst=10-5@0.2").unwrap_err();
        assert!(err.contains("10-5@0.2"), "{err}");
        let err = FaultPlan::parse("throttle=0-nan@1.5").unwrap_err();
        assert!(err.contains("0-nan@1.5"), "{err}");
        // Non-key=value fields and unknown keys name the field.
        let err = FaultPlan::parse("rate").unwrap_err();
        assert!(err.contains("`rate`") && err.contains("key=value"), "{err}");
        let err = FaultPlan::parse("nope=1").unwrap_err();
        assert!(err.contains("`nope`"), "{err}");
        let err = FaultPlan::parse("seed=abc").unwrap_err();
        assert!(err.contains("abc"), "{err}");
        // Boundary probabilities and repeated epochs still parse.
        assert!(FaultPlan::parse("rate=0").is_ok());
        assert!(FaultPlan::parse("rate=1").is_ok());
        let plan =
            FaultPlan::parse("throttle=0-10@1.5,throttle=20-30@2,burst=0-5@0.1,burst=6-9@0.2")
                .expect("repeatable epochs");
        assert_eq!(plan.throttle_epochs().len(), 2);
    }

    #[test]
    fn clock_stores_and_clears_the_fault_plan() {
        let c = clock(2);
        assert!(c.fault_plan().is_none());
        c.set_fault_plan(Some(FaultPlan::new(4).with_failure_rate(0.1)));
        assert_eq!(c.fault_plan().unwrap().seed(), 4);
        c.set_fault_plan(None);
        assert!(c.fault_plan().is_none());
    }
}
