//! Command queues: dispatch kernels, accumulate a simulated timeline.

use std::sync::Arc;

use crate::calib::{CostParams, EnergyParams, ExecutorClass};
use crate::clock::DeviceClock;
use crate::cost::{estimate_contended, Contention};
use crate::device::DeviceProfile;
use crate::kernel::{KernelProfile, LaunchEvent, LaunchStats};

/// An in-order command queue bound to a device and an executor class.
///
/// Every [`CommandQueue::launch`] appends to a simulated timeline; the
/// profiler crate consumes the timeline to integrate power.
#[derive(Debug)]
pub struct CommandQueue {
    device: DeviceProfile,
    params: CostParams,
    energy: EnergyParams,
    now_s: f64,
    events: Vec<LaunchEvent>,
    /// Shared device clock when this queue co-resides with other streams;
    /// `None` means the queue owns the device (the single-stream default).
    clock: Option<Arc<DeviceClock>>,
}

impl CommandQueue {
    /// Creates a queue for `device` executing under `class` efficiency.
    pub fn new(device: DeviceProfile, class: ExecutorClass) -> Self {
        let params = CostParams::for_executor(class);
        let energy = EnergyParams::for_kind(class.device_kind());
        Self {
            device,
            params,
            energy,
            now_s: 0.0,
            events: Vec::new(),
            clock: None,
        }
    }

    /// Attaches a shared [`DeviceClock`]: every dispatch is inflated by the
    /// clock's multi-stream contention for its compute-unit demand, and its
    /// busy time feeds the clock's aggregate accounting. A clock reporting
    /// one stream leaves costs exactly at the solo baseline.
    pub fn with_clock(mut self, clock: Arc<DeviceClock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Replaces the cost parameters — used by ablation benches that probe a
    /// single knob (e.g. `overlap = 0`).
    pub fn with_params(mut self, params: CostParams) -> Self {
        self.params = params;
        self
    }

    /// The device this queue dispatches to.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// The active cost parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Dispatches a kernel: runs `body` to produce real results, models
    /// its cost and advances simulated time. A model of a plan passes an
    /// empty body.
    ///
    /// Returns the dispatch statistics (also recorded on the timeline).
    pub fn launch<F: FnOnce()>(&mut self, profile: KernelProfile, body: F) -> LaunchStats {
        body();
        let contention = self
            .clock
            .as_ref()
            .map_or(Contention::none(), |c| c.contention_for(&profile.ndrange));
        let stats = estimate_contended(
            &profile,
            &self.device,
            &self.params,
            &self.energy,
            contention,
        );
        if let Some(clock) = &self.clock {
            clock.note_dispatch(
                clock.cu_frac_for(&profile.ndrange),
                stats.time_s - self.params.launch_overhead_s,
            );
        }
        let event = LaunchEvent {
            stats: stats.clone(),
            start_s: self.now_s,
        };
        self.now_s += stats.time_s;
        self.events.push(event);
        stats
    }

    /// Adds a fixed host-side delay (framework overhead between dispatches).
    pub fn host_delay(&mut self, seconds: f64) {
        self.now_s += seconds;
    }

    /// Simulated time elapsed since queue creation, seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.now_s
    }

    /// Completed dispatches in submission order.
    pub fn timeline(&self) -> &[LaunchEvent] {
        &self.events
    }

    /// Sum of modeled dispatch times, seconds (excludes host delays).
    fn busy_s(&self) -> f64 {
        self.events.iter().map(|e| e.stats.time_s).sum()
    }

    /// Total modeled energy over the timeline, joules. Host-delay intervals
    /// are charged at static power only.
    pub fn energy_j(&self) -> f64 {
        let dispatch: f64 = self.events.iter().map(|e| e.stats.energy_j).sum();
        let idle = (self.now_s - self.busy_s()).max(0.0);
        dispatch + idle * self.energy.p_static_w
    }

    /// Clears the timeline and resets simulated time (e.g. between benchmark
    /// iterations).
    pub fn reset(&mut self) {
        self.now_s = 0.0;
        self.events.clear();
    }

    /// Per-run overhead of the executor's framework, applied once per
    /// inference by engines.
    pub fn per_run_overhead_s(&self) -> f64 {
        self.params.per_run_overhead_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ndrange::NdRange;

    fn queue() -> CommandQueue {
        CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl)
    }

    fn profile(ops: f64) -> KernelProfile {
        KernelProfile::new("k", NdRange::linear(64)).f32_ops(ops)
    }

    #[test]
    fn launch_executes_body_in_execute_mode() {
        let mut q = queue();
        let mut hit = false;
        q.launch(profile(1e6), || hit = true);
        assert!(hit);
        assert_eq!(q.timeline().len(), 1);
        assert!(q.elapsed_s() > 0.0);
    }

    #[test]
    fn timeline_is_ordered_and_contiguous() {
        let mut q = queue();
        q.launch(profile(1e6), || {});
        q.launch(profile(2e6), || {});
        q.launch(profile(3e6), || {});
        let tl = q.timeline();
        assert_eq!(tl.len(), 3);
        for pair in tl.windows(2) {
            assert!((pair[1].start_s - pair[0].end_s()).abs() < 1e-15);
        }
        assert!((q.elapsed_s() - tl.last().unwrap().end_s()).abs() < 1e-15);
    }

    #[test]
    fn host_delay_advances_clock_without_events() {
        let mut q = queue();
        q.host_delay(0.5);
        assert_eq!(q.timeline().len(), 0);
        assert!((q.elapsed_s() - 0.5).abs() < 1e-15);
        // Idle time is charged at static power.
        let e = q.energy_j();
        assert!(e > 0.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut q = queue();
        q.launch(profile(1e6), || {});
        q.reset();
        assert_eq!(q.timeline().len(), 0);
        assert_eq!(q.elapsed_s(), 0.0);
    }

    #[test]
    fn energy_accumulates() {
        let mut q = queue();
        q.launch(profile(1e8), || {});
        let e1 = q.energy_j();
        q.launch(profile(1e8), || {});
        assert!(q.energy_j() > e1);
    }

    #[test]
    fn clocked_queues_contend_and_share_busy_accounting() {
        use crate::clock::DeviceClock;
        let big = KernelProfile::new("big", NdRange::linear(1 << 20)).f32_ops(1e8);
        let small = KernelProfile::new("small", NdRange::linear(64)).f32_ops(1e5);

        let solo_big = queue().launch(big.clone(), || {}).time_s;
        let solo_small = queue().launch(small.clone(), || {}).time_s;

        let clock = DeviceClock::with_streams(DeviceProfile::adreno_640(), 2);
        let mut a = queue().with_clock(Arc::clone(&clock));
        let mut b = queue().with_clock(Arc::clone(&clock));
        // A saturating kernel on 2 streams runs at half rate on each queue.
        let shared_big = a.launch(big, || {}).time_s;
        assert!(shared_big > 1.5 * solo_big, "{shared_big} vs {solo_big}");
        // A one-CU kernel overlaps the other stream: no compute inflation.
        let shared_small = b.launch(small, || {}).time_s;
        assert!((shared_small - solo_small).abs() < 1e-12);
        // Both queues fed the shared busy accounting.
        let overhead = a.params().launch_overhead_s;
        let expected = (shared_big - overhead) + (shared_small - overhead);
        assert!((clock.busy_s() - expected).abs() < 1e-15);
        assert!(a.clock.is_some());
        // A clock of one stream charges solo costs.
        let mut a = queue().with_clock(DeviceClock::with_streams(DeviceProfile::adreno_640(), 1));
        let again = a.launch(
            KernelProfile::new("big", NdRange::linear(1 << 20)).f32_ops(1e8),
            || {},
        );
        assert!((again.time_s - solo_big).abs() < 1e-15);
    }

    #[test]
    fn executor_and_device_accessors() {
        let q = queue();
        let class = ExecutorClass::PhoneBitOpenCl;
        assert_eq!(q.params(), &CostParams::for_executor(class));
        assert_eq!(q.device().name, "Adreno 640");
        assert!(q.per_run_overhead_s() > 0.0);
    }
}
