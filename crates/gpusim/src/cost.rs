//! The analytic latency/energy model.
//!
//! Given a [`KernelProfile`] (useful work), a [`DeviceProfile`] (silicon) and
//! [`CostParams`] (software-stack efficiency), produce [`LaunchStats`]:
//!
//! ```text
//! executed  = (f32*mult_f32 + int*mult_int + word*mult_word*issue_factor(lanes)) * divergence
//! occupancy = params.occupancy * min(1, device.private_per_item / profile.private_per_item)
//! t_compute = executed / (total_alus * occupancy * clock * issue_eff)
//! t_memory  = bytes / (dram_bw * coalescing * mem_eff)
//! t_busy    = overlap * max(tc, tm) + (1 - overlap) * (tc + tm)
//! time      = launch_overhead + t_busy
//! energy    = executed * e_op + bytes * e_dram + time * p_static
//! ```
//!
//! The `overlap` blend models the paper's §VI-A.3 memory-latency hiding:
//! PhoneBit pipelines loads against compute (overlap ≈ 0.9) while naive
//! stacks serialize (overlap ≈ 0.3–0.5).

use crate::calib::{vector_issue_factor, CostParams, EnergyParams};
use crate::device::DeviceProfile;
use crate::kernel::{KernelProfile, LaunchStats};

/// Resource-sharing multipliers applied to one dispatch when several
/// command queues share the device (see [`crate::clock::DeviceClock`]).
/// `1.0` on both axes is the solo-queue baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Contention {
    /// Compute-time inflation (aggregate CU demand over the CU budget).
    pub compute: f64,
    /// Memory-time inflation (DRAM bandwidth split across streams).
    pub memory: f64,
}

/// Expected steady-state pressure one co-resident command queue puts on
/// the shared device — what a multi-tenant serving runtime registers on
/// the [`DeviceClock`](crate::clock::DeviceClock) for each *other* queue,
/// replacing the symmetric everyone-mirrors-me assumption with the actual
/// per-queue kernel mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueLoad {
    /// Busy-time-weighted mean fraction of the device's compute units the
    /// queue's dispatches can occupy (`cus_needed / cus`, in `[0, 1]`).
    pub cu_frac: f64,
    /// Fraction of wall time the queue keeps the device busy (`[0, 1]`);
    /// host-side gaps (launch + framework overhead) leave the device free
    /// for everyone else.
    pub busy: f64,
}

impl QueueLoad {
    /// A queue that saturates the device whenever it is its turn — the
    /// symmetric-stream worst case.
    pub fn saturating() -> Self {
        Self {
            cu_frac: 1.0,
            busy: 1.0,
        }
    }
}

impl Contention {
    /// No sharing: the dispatch owns the device.
    pub fn none() -> Self {
        Self {
            compute: 1.0,
            memory: 1.0,
        }
    }

    /// Contention for a dispatch that wants `cu_frac` of the device's
    /// compute units while the queues in `others` are co-resident.
    ///
    /// Compute stretches by the aggregate expected CU demand
    /// (`cu_frac + Σ busyᵢ·cu_fracᵢ`, floored at the solo baseline), so a
    /// small kernel overlaps light neighbors for free while saturating
    /// kernels serialize. Memory bandwidth splits across every queue
    /// expected to be on the bus (`1 + Σ busyᵢ`). With `others` holding
    /// `n − 1` copies of this dispatch's own demand at full duty this
    /// reduces exactly to the symmetric `n`-stream model.
    pub fn against(cu_frac: f64, others: &[QueueLoad]) -> Self {
        let other_cu: f64 = others.iter().map(|l| l.busy * l.cu_frac).sum();
        let other_busy: f64 = others.iter().map(|l| l.busy).sum();
        Self {
            compute: (cu_frac + other_cu).max(1.0),
            memory: (1.0 + other_busy).max(1.0),
        }
    }
}

/// Computes the modeled cost of one dispatch with the device to itself.
pub fn estimate(
    profile: &KernelProfile,
    device: &DeviceProfile,
    params: &CostParams,
    energy: &EnergyParams,
) -> LaunchStats {
    estimate_contended(profile, device, params, energy, Contention::none())
}

/// [`estimate`] under explicit multi-queue [`Contention`]: compute and
/// memory phases stretch by their sharing factors before the overlap
/// blend, and the stretched wall time draws extra static energy (the
/// dynamic op/DRAM energy is work, not time, and does not change).
pub fn estimate_contended(
    profile: &KernelProfile,
    device: &DeviceProfile,
    params: &CostParams,
    energy: &EnergyParams,
    contention: Contention,
) -> LaunchStats {
    // Occupancy throttling when work items need more private memory than
    // the register budget allows (paper §VI-B: "due to the limitation of
    // private memory size, one thread cannot load too much data").
    let private_throttle = if profile.private_bytes_per_item > device.private_bytes_per_item {
        device.private_bytes_per_item as f64 / profile.private_bytes_per_item as f64
    } else {
        1.0
    };
    let occupancy = (params.occupancy * private_throttle).clamp(1e-6, 1.0);

    // int8-dot-sensitive executors pay a penalty on devices without SDOT
    // (Kryo/SD820 vs Kryo 485/SD855 — the Table III Quant column gap).
    let mult_int = if device.has_int8_dot {
        params.mult_int
    } else {
        params.mult_int * params.int8_dot_penalty
    };
    let int_rate = device.int_throughput.max(1e-6);
    // Lane-ops actually issued (drives dynamic energy).
    let executed = (profile.f32_ops * params.mult_f32
        + profile.int_ops * mult_int
        + profile.word_ops * params.mult_word * vector_issue_factor(profile.vector_lanes))
        * profile.divergence;
    // Issue cycles consumed (drives latency): integer ops stall on devices
    // with reduced integer throughput, costing time but not extra energy.
    let executed_cycles = (profile.f32_ops * params.mult_f32
        + (profile.int_ops * mult_int
            + profile.word_ops * params.mult_word * vector_issue_factor(profile.vector_lanes))
            / int_rate)
        * profile.divergence;

    let units = if params.single_core {
        1
    } else {
        device.compute_units
    };
    let lanes = if params.uses_simd {
        device.alus_per_cu
    } else {
        1
    };
    let compute_rate =
        (units * lanes) as f64 * occupancy * device.clock_mhz * 1e6 * params.issue_eff;
    let t_compute = if executed_cycles > 0.0 {
        executed_cycles / compute_rate * contention.compute.max(1.0)
    } else {
        0.0
    };

    let bytes = profile.total_bytes();
    let mem_rate = device.dram_gbps * 1e9 * profile.coalescing * params.mem_eff;
    let t_memory = if bytes > 0.0 {
        bytes / mem_rate * contention.memory.max(1.0)
    } else {
        0.0
    };

    let t_busy =
        params.overlap * t_compute.max(t_memory) + (1.0 - params.overlap) * (t_compute + t_memory);
    let time_s = params.launch_overhead_s + t_busy;

    let energy_j =
        executed * params.e_op_j + bytes * energy.e_dram_byte_j + time_s * energy.p_static_w;

    let (alu_util, mem_util) = if t_busy > 0.0 {
        (
            (t_compute / t_busy).min(1.0) * occupancy,
            (t_memory / t_busy).min(1.0) * profile.coalescing,
        )
    } else {
        (0.0, 0.0)
    };

    LaunchStats {
        name: profile.name,
        time_s,
        compute_time_s: t_compute,
        memory_time_s: t_memory,
        energy_j,
        executed_ops: executed,
        dram_bytes: bytes,
        alu_util,
        mem_util,
        occupancy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::ExecutorClass;
    use crate::device::DeviceKind;
    use crate::ndrange::NdRange;

    fn setup() -> (DeviceProfile, CostParams, EnergyParams) {
        (
            DeviceProfile::adreno_640(),
            CostParams::for_executor(ExecutorClass::PhoneBitOpenCl),
            EnergyParams::for_kind(DeviceKind::Gpu),
        )
    }

    fn basic_profile(ops: f64, bytes: f64) -> KernelProfile {
        KernelProfile::new("k", NdRange::linear(1024))
            .f32_ops(ops)
            .reads(bytes)
    }

    #[test]
    fn more_work_takes_more_time() {
        let (d, p, e) = setup();
        let a = estimate(&basic_profile(1e6, 0.0), &d, &p, &e);
        let b = estimate(&basic_profile(1e8, 0.0), &d, &p, &e);
        assert!(b.time_s > a.time_s);
        assert!(b.energy_j > a.energy_j);
    }

    #[test]
    fn time_is_monotone_in_bytes() {
        let (d, p, e) = setup();
        let a = estimate(&basic_profile(0.0, 1e6), &d, &p, &e);
        let b = estimate(&basic_profile(0.0, 1e8), &d, &p, &e);
        assert!(b.time_s > a.time_s);
        assert!(b.memory_bound());
    }

    #[test]
    fn launch_overhead_is_a_floor() {
        let (d, p, e) = setup();
        let s = estimate(&basic_profile(0.0, 0.0), &d, &p, &e);
        assert!((s.time_s - p.launch_overhead_s).abs() < 1e-12);
    }

    #[test]
    fn poor_coalescing_slows_memory() {
        let (d, p, e) = setup();
        let good = KernelProfile::new("k", NdRange::linear(64))
            .reads(1e8)
            .coalescing(1.0);
        let bad = KernelProfile::new("k", NdRange::linear(64))
            .reads(1e8)
            .coalescing(0.25);
        let tg = estimate(&good, &d, &p, &e).time_s;
        let tb = estimate(&bad, &d, &p, &e).time_s;
        assert!(
            tb > 3.0 * tg,
            "coalescing 0.25 should be ~4x slower: {tb} vs {tg}"
        );
    }

    #[test]
    fn divergence_inflates_compute() {
        let (d, p, e) = setup();
        let none = basic_profile(1e9, 0.0);
        let some = basic_profile(1e9, 0.0).divergence(2.0);
        let t0 = estimate(&none, &d, &p, &e).compute_time_s;
        let t1 = estimate(&some, &d, &p, &e).compute_time_s;
        assert!((t1 / t0 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn wide_vectors_beat_scalar_words() {
        let (d, p, e) = setup();
        let scalar = KernelProfile::new("k", NdRange::linear(64))
            .word_ops(1e9)
            .vector_lanes(1);
        let wide = KernelProfile::new("k", NdRange::linear(64))
            .word_ops(1e9)
            .vector_lanes(16);
        let ts = estimate(&scalar, &d, &p, &e).compute_time_s;
        let tw = estimate(&wide, &d, &p, &e).compute_time_s;
        assert!(ts > 1.5 * tw);
    }

    #[test]
    fn private_memory_pressure_throttles_occupancy() {
        let (d, p, e) = setup();
        let light = basic_profile(1e9, 0.0).private_bytes(128);
        let heavy = basic_profile(1e9, 0.0).private_bytes(d.private_bytes_per_item * 4);
        let sl = estimate(&light, &d, &p, &e);
        let sh = estimate(&heavy, &d, &p, &e);
        assert!(sh.occupancy < sl.occupancy);
        assert!(sh.compute_time_s > sl.compute_time_s);
        assert!((sh.occupancy - sl.occupancy / 4.0).abs() < 1e-9);
    }

    #[test]
    fn perfect_overlap_hides_shorter_component() {
        let d = DeviceProfile::adreno_640();
        let e = EnergyParams::for_kind(DeviceKind::Gpu);
        let mut p = CostParams::for_executor(ExecutorClass::PhoneBitOpenCl);
        p.overlap = 1.0;
        p.launch_overhead_s = 0.0;
        let prof = basic_profile(1e9, 1e6);
        let s = estimate(&prof, &d, &p, &e);
        assert!((s.time_s - s.compute_time_s.max(s.memory_time_s)).abs() < 1e-12);
        p.overlap = 0.0;
        let s2 = estimate(&prof, &d, &p, &e);
        assert!((s2.time_s - (s2.compute_time_s + s2.memory_time_s)).abs() < 1e-12);
        assert!(s2.time_s > s.time_s);
    }

    #[test]
    fn contention_stretches_time_not_dynamic_energy() {
        let (d, p, e) = setup();
        let prof = basic_profile(1e9, 1e7);
        let solo = estimate(&prof, &d, &p, &e);
        let shared = estimate_contended(
            &prof,
            &d,
            &p,
            &e,
            Contention {
                compute: 2.0,
                memory: 2.0,
            },
        );
        assert!((shared.compute_time_s - 2.0 * solo.compute_time_s).abs() < 1e-15);
        assert!((shared.memory_time_s - 2.0 * solo.memory_time_s).abs() < 1e-15);
        assert!(shared.time_s > solo.time_s);
        // Same ops and bytes; only the static-power draw over the longer
        // wall time grows.
        assert_eq!(shared.executed_ops, solo.executed_ops);
        assert_eq!(shared.dram_bytes, solo.dram_bytes);
        let extra = (shared.time_s - solo.time_s) * e.p_static_w;
        assert!((shared.energy_j - solo.energy_j - extra).abs() < 1e-15);
        // Sub-1.0 factors clamp to the solo baseline.
        let clamped = estimate_contended(
            &prof,
            &d,
            &p,
            &e,
            Contention {
                compute: 0.5,
                memory: 0.5,
            },
        );
        assert_eq!(clamped.time_s, solo.time_s);
    }

    #[test]
    fn contention_against_loads_reduces_to_symmetric_on_mirrors() {
        // n − 1 saturating mirrors of a device-filling dispatch == the
        // symmetric n-stream model.
        let mirrors = [QueueLoad::saturating(); 3];
        let c = Contention::against(1.0, &mirrors);
        assert!((c.compute - 4.0).abs() < 1e-12);
        assert!((c.memory - 4.0).abs() < 1e-12);
        // A light neighbor (20% duty, quarter of the CUs) barely inflates
        // a small dispatch but still taxes the bus a little.
        let light = [QueueLoad {
            cu_frac: 0.25,
            busy: 0.2,
        }];
        let c = Contention::against(0.5, &light);
        assert_eq!(c.compute, 1.0, "0.5 + 0.05 demand fits the device");
        assert!((c.memory - 1.2).abs() < 1e-12);
        // No neighbors: solo baseline.
        assert_eq!(Contention::against(1.0, &[]), Contention::none());
    }

    #[test]
    fn energy_includes_static_floor() {
        let (d, p, e) = setup();
        let s = estimate(&basic_profile(0.0, 0.0), &d, &p, &e);
        assert!((s.energy_j - s.time_s * e.p_static_w).abs() < 1e-15);
    }

    #[test]
    fn faster_device_is_faster() {
        let p = CostParams::for_executor(ExecutorClass::PhoneBitOpenCl);
        let e = EnergyParams::for_kind(DeviceKind::Gpu);
        let prof = basic_profile(1e10, 1e8);
        let t530 = estimate(&prof, &DeviceProfile::adreno_530(), &p, &e).time_s;
        let t640 = estimate(&prof, &DeviceProfile::adreno_640(), &p, &e).time_s;
        assert!(t640 < t530);
    }

    #[test]
    fn utilizations_bounded() {
        let (d, p, e) = setup();
        for prof in [
            basic_profile(1e9, 1e3),
            basic_profile(1e3, 1e9),
            basic_profile(1e9, 1e9),
        ] {
            let s = estimate(&prof, &d, &p, &e);
            assert!((0.0..=1.0).contains(&s.alu_util));
            assert!((0.0..=1.0).contains(&s.mem_util));
        }
    }
}
