//! Device profiles for the simulated mobile SoCs.
//!
//! The paper evaluates on two phones (Table I):
//!
//! | Device   | SoC            | Memory | OpenCL | GPU ALUs |
//! |----------|----------------|--------|--------|----------|
//! | Xiaomi 5 | Snapdragon 820 | 3 GB   | 2.0    | 256      |
//! | Xiaomi 9 | Snapdragon 855 | 8 GB   | 2.0    | 384      |
//!
//! Each phone exposes a GPU device (Adreno 530 / Adreno 640) and a CPU
//! device (Kryo / Kryo 485) to the simulator. ALU counts come straight from
//! the paper (§III-A: Adreno 640 = 2 CUs x 192 ALUs); clocks and bandwidths
//! are public SoC specifications.

use std::fmt;

/// Whether a device is the SoC's GPU or CPU cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Adreno-class mobile GPU programmed through OpenCL.
    Gpu,
    /// Kryo-class CPU cluster (NEON SIMD), used by the CPU baselines.
    Cpu,
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceKind::Gpu => write!(f, "GPU"),
            DeviceKind::Cpu => write!(f, "CPU"),
        }
    }
}

/// Static description of one compute device inside a phone SoC.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Marketing name, e.g. `"Adreno 640"`.
    pub name: &'static str,
    /// GPU or CPU.
    pub kind: DeviceKind,
    /// Parallel compute units (GPU CUs or CPU cores).
    pub compute_units: usize,
    /// SIMD ALU lanes per compute unit.
    pub alus_per_cu: usize,
    /// Core clock in MHz.
    pub clock_mhz: f64,
    /// Sustained DRAM bandwidth available to this device, GB/s.
    pub dram_gbps: f64,
    /// On-chip memory (GPU graphics memory / CPU shared cache), KiB.
    pub onchip_kib: usize,
    /// Wavefront / warp width for divergence accounting.
    pub wave_size: usize,
    /// Private memory (registers) available per work item before occupancy
    /// throttling, bytes.
    pub private_bytes_per_item: usize,
    /// Whether the core has 8-bit dot-product instructions (Arm SDOT/UDOT,
    /// introduced with the Kryo 485 generation). Affects the int8-quantized
    /// executor only.
    pub has_int8_dot: bool,
    /// Integer/bitwise ALU throughput relative to float (Adreno 5xx issues
    /// integer ops at half rate; the 6xx generation brought them to parity).
    pub int_throughput: f64,
}

/// The modeled host→device weight-upload lane of a device: a DMA-style
/// copy engine that runs concurrently with compute dispatches. Paging a
/// layer's packed 1-bit bank through this lane costs a fixed submit
/// overhead (driver enqueue + fence) plus the bytes over the sustained
/// copy bandwidth; the lane is serial, so back-to-back uploads queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UploadProfile {
    /// Sustained host→device copy bandwidth, bytes per second.
    pub bytes_per_s: f64,
    /// Fixed per-upload submit overhead (enqueue + fence), seconds.
    pub submit_overhead_s: f64,
}

impl UploadProfile {
    /// Modeled wall time to upload `bytes` through this lane, seconds.
    pub fn upload_s(&self, bytes: usize) -> f64 {
        self.submit_overhead_s + bytes as f64 / self.bytes_per_s.max(1.0)
    }
}

impl DeviceProfile {
    /// Total ALU lanes across the device.
    pub fn total_alus(&self) -> usize {
        self.compute_units * self.alus_per_cu
    }

    /// The device's weight-upload lane. Host→device copies on mobile SoCs
    /// share the unified DRAM with compute but run through a dedicated
    /// copy engine; we model the lane at half the device's sustained DRAM
    /// bandwidth (read on the host side + write on the device side of the
    /// same bus) with a 60 µs submit overhead per transfer — the same
    /// order as a kernel launch plus an `clEnqueueWriteBuffer` fence.
    pub fn upload(&self) -> UploadProfile {
        UploadProfile {
            bytes_per_s: self.dram_gbps * 1e9 * 0.5,
            submit_overhead_s: 60e-6,
        }
    }

    /// Adreno 530 GPU (Snapdragon 820): 256 ALUs per Table I.
    pub fn adreno_530() -> Self {
        Self {
            name: "Adreno 530",
            kind: DeviceKind::Gpu,
            compute_units: 4,
            alus_per_cu: 64,
            clock_mhz: 624.0,
            dram_gbps: 25.6,
            onchip_kib: 512,
            wave_size: 64,
            private_bytes_per_item: 1024,
            has_int8_dot: false,
            int_throughput: 0.5,
        }
    }

    /// Adreno 640 GPU (Snapdragon 855): 2 CUs x 192 ALUs = 384 ALUs
    /// (paper §III-A and Table I).
    pub fn adreno_640() -> Self {
        Self {
            name: "Adreno 640",
            kind: DeviceKind::Gpu,
            compute_units: 2,
            alus_per_cu: 192,
            clock_mhz: 585.0,
            dram_gbps: 34.1,
            onchip_kib: 1024,
            wave_size: 64,
            private_bytes_per_item: 1024,
            has_int8_dot: false,
            int_throughput: 1.0,
        }
    }

    /// Kryo CPU cluster (Snapdragon 820): 4 cores, 128-bit NEON (4 f32 lanes).
    fn kryo_820() -> Self {
        Self {
            name: "Kryo",
            kind: DeviceKind::Cpu,
            compute_units: 4,
            alus_per_cu: 4,
            clock_mhz: 2150.0,
            dram_gbps: 25.6,
            onchip_kib: 1536,
            wave_size: 1,
            private_bytes_per_item: 8192,
            has_int8_dot: false,
            int_throughput: 1.0,
        }
    }

    /// Kryo 485 CPU cluster (Snapdragon 855): 8 cores (1 prime + 3 gold +
    /// 4 silver, modeled as 8 uniform cores at the gold clock), 128-bit NEON.
    fn kryo_485() -> Self {
        Self {
            name: "Kryo 485",
            kind: DeviceKind::Cpu,
            compute_units: 8,
            alus_per_cu: 4,
            clock_mhz: 2420.0,
            dram_gbps: 34.1,
            onchip_kib: 2048,
            wave_size: 1,
            private_bytes_per_item: 8192,
            has_int8_dot: true,
            int_throughput: 1.0,
        }
    }
}

impl fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} CUs x {} ALUs @ {} MHz, {:.1} GB/s)",
            self.name,
            self.kind,
            self.compute_units,
            self.alus_per_cu,
            self.clock_mhz,
            self.dram_gbps
        )
    }
}

/// A phone: the evaluation platform of Table I (SoC + RAM + devices).
#[derive(Debug, Clone, PartialEq)]
pub struct Phone {
    /// Marketing name, e.g. `"Xiaomi 9"`.
    pub name: &'static str,
    /// SoC name, e.g. `"Snapdragon 855"`.
    pub soc: &'static str,
    /// Android version string from Table I.
    pub os: &'static str,
    /// Supported OpenCL version from Table I.
    pub opencl: &'static str,
    /// System RAM in MiB.
    pub ram_mib: usize,
    /// Per-app allocation budget in MiB before Android kills the process
    /// (models the OOM cells of Table III).
    pub app_budget_mib: usize,
    /// The GPU device.
    pub gpu: DeviceProfile,
    /// The CPU device.
    pub cpu: DeviceProfile,
}

impl Phone {
    /// Xiaomi 5: Snapdragon 820, 3 GB RAM, Android 7.0 (Table I row 1).
    pub fn xiaomi_5() -> Self {
        Self {
            name: "Xiaomi 5",
            soc: "Snapdragon 820",
            os: "Android 7.0",
            opencl: "2.0",
            ram_mib: 3 * 1024,
            // Android low-RAM devices enforce tight per-app heaps; large
            // native allocations beyond ~1.2 GiB reliably OOM on 3 GiB
            // phones of this generation.
            app_budget_mib: 1200,
            gpu: DeviceProfile::adreno_530(),
            cpu: DeviceProfile::kryo_820(),
        }
    }

    /// Xiaomi 9: Snapdragon 855, 8 GB RAM, Android 9.0 (Table I row 2).
    pub fn xiaomi_9() -> Self {
        Self {
            name: "Xiaomi 9",
            soc: "Snapdragon 855",
            os: "Android 9.0",
            opencl: "2.0",
            ram_mib: 8 * 1024,
            // Higher-RAM device, but Android still caps a single app's
            // Java + native + graphics footprint well below physical RAM
            // (largeHeap Dalvik limits plus allocator headroom): CNNdroid's
            // ~1.7 GiB VGG16 working set dies here too (Table III).
            app_budget_mib: 1536,
            gpu: DeviceProfile::adreno_640(),
            cpu: DeviceProfile::kryo_485(),
        }
    }

    /// Both evaluation phones, in Table I order.
    pub fn all() -> Vec<Phone> {
        vec![Self::xiaomi_5(), Self::xiaomi_9()]
    }

    /// App memory budget in bytes.
    pub fn app_budget_bytes(&self) -> usize {
        self.app_budget_mib * 1024 * 1024
    }

    /// The phone's weight-upload lane — the GPU device's, since staged
    /// weights live in the GPU context.
    pub fn upload(&self) -> UploadProfile {
        self.gpu.upload()
    }
}

impl fmt::Display for Phone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} MiB RAM, {})",
            self.name, self.soc, self.ram_mib, self.os
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_alu_counts() {
        // The paper's Table I: 256 ALUs on SD820, 384 on SD855.
        assert_eq!(DeviceProfile::adreno_530().total_alus(), 256);
        assert_eq!(DeviceProfile::adreno_640().total_alus(), 384);
    }

    #[test]
    fn adreno_640_is_two_cus_of_192() {
        // §III-A: "Adreno 640 consisting of 2 CUs. Each CU ... 192 ALUs".
        let d = DeviceProfile::adreno_640();
        assert_eq!(d.compute_units, 2);
        assert_eq!(d.alus_per_cu, 192);
        assert_eq!(d.onchip_kib, 1024); // "1024 KBytes graphics memory"
    }

    #[test]
    fn phones_match_table1() {
        let x5 = Phone::xiaomi_5();
        assert_eq!(x5.soc, "Snapdragon 820");
        assert_eq!(x5.ram_mib, 3072);
        assert_eq!(x5.os, "Android 7.0");
        let x9 = Phone::xiaomi_9();
        assert_eq!(x9.soc, "Snapdragon 855");
        assert_eq!(x9.ram_mib, 8192);
        assert_eq!(x9.gpu.total_alus(), 384);
    }

    #[test]
    fn peak_ops_scale_with_clock_and_alus() {
        // One op per ALU per cycle: the rate the cost model divides by.
        let d = DeviceProfile::adreno_640();
        let peak = d.total_alus() as f64 * d.clock_mhz * 1e6;
        assert!((peak - 384.0 * 585e6).abs() < 1.0);
    }

    #[test]
    fn newer_phone_is_strictly_better() {
        let x5 = Phone::xiaomi_5();
        let x9 = Phone::xiaomi_9();
        // Peak scalar ops per second: one op per ALU per cycle.
        let peak = |d: &DeviceProfile| d.total_alus() as f64 * d.clock_mhz;
        assert!(peak(&x9.gpu) > peak(&x5.gpu));
        assert!(peak(&x9.cpu) > peak(&x5.cpu));
        assert!(x9.ram_mib > x5.ram_mib);
        assert!(x9.gpu.dram_gbps > x5.gpu.dram_gbps);
    }

    #[test]
    fn upload_lane_tracks_dram_bandwidth() {
        let x5 = Phone::xiaomi_5();
        let x9 = Phone::xiaomi_9();
        // Faster DRAM → faster uploads; both lanes carry the fixed submit
        // overhead, so a zero-byte transfer still costs time.
        assert!(x9.upload().bytes_per_s > x5.upload().bytes_per_s);
        assert!(x9.upload().upload_s(0) > 0.0);
        // A 1 MiB packed bank uploads in well under a millisecond on both
        // phones — the headroom that lets paging hide behind compute.
        assert!(x5.upload().upload_s(1 << 20) < 1e-3);
        // Monotone in bytes.
        let u = x9.upload();
        assert!(u.upload_s(2 << 20) > u.upload_s(1 << 20));
    }

    #[test]
    fn display_is_informative() {
        let s = DeviceProfile::adreno_530().to_string();
        assert!(s.contains("Adreno 530") && s.contains("GPU"));
        let p = Phone::xiaomi_9().to_string();
        assert!(p.contains("Snapdragon 855"));
    }
}
