//! The CNNdroid-like baseline: full-precision CNN execution in the style of
//! CNNdroid (Latifi Oskouei et al., ACM MM 2016) — RenderScript kernels with
//! direct (non-GEMM) convolution, NCHW float buffers, and every layer's
//! blobs held resident.
//!
//! Two targets mirror Table III's columns: a single-threaded Java-like CPU
//! path and the RenderScript GPU path. Their shared memory model reproduces
//! the paper's OOM cells: the framework keeps the parsed model, the
//! RenderScript `Allocation` copies and all layer outputs alive, so VGG16's
//! 553 MB of float weights balloons past the app budget on both phones.

use phonebit_core::stats::RunReport;
use phonebit_gpusim::queue::CommandQueue;
use phonebit_gpusim::{ExecutorClass, KernelProfile, NdRange, Phone};
use phonebit_nn::act::Activation;
use phonebit_nn::graph::{LayerInfo, NetworkArch, NetworkDef};
use phonebit_tensor::shape::ConvGeometry;
use phonebit_tensor::tensor::Tensor;

use crate::common::{
    estimate_float, execute_float, report_from, CostStyle, Framework, FrameworkError,
};

/// Which device CNNdroid executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CnnDroidTarget {
    /// Single-threaded Java CPU path.
    Cpu,
    /// RenderScript GPU path.
    Gpu,
}

/// The CNNdroid-like framework.
#[derive(Debug, Clone, Copy)]
pub struct CnnDroid {
    target: CnnDroidTarget,
}

impl CnnDroid {
    /// CPU-execution CNNdroid.
    pub fn cpu() -> Self {
        Self {
            target: CnnDroidTarget::Cpu,
        }
    }

    /// GPU-execution CNNdroid (RenderScript).
    pub fn gpu() -> Self {
        Self {
            target: CnnDroidTarget::Gpu,
        }
    }

    /// Bytes the framework keeps live for a model: the serialized model,
    /// the parsed Java-side copy, the RenderScript `Allocation` mirror
    /// (3x float weights total) plus the two largest layer blobs.
    fn memory_required(arch: &NetworkArch) -> usize {
        let weights = arch.float_bytes();
        let max_act = arch
            .infer()
            .iter()
            .map(|i| i.output.len() * 4)
            .max()
            .unwrap_or(0);
        3 * weights + 2 * max_act
    }

    fn queue(&self, phone: &Phone) -> CommandQueue {
        match self.target {
            CnnDroidTarget::Cpu => CommandQueue::new(phone.cpu.clone(), ExecutorClass::CnnDroidCpu),
            CnnDroidTarget::Gpu => CommandQueue::new(phone.gpu.clone(), ExecutorClass::CnnDroidGpu),
        }
    }

    fn check_memory(&self, phone: &Phone, arch: &NetworkArch) -> Result<(), FrameworkError> {
        let needed = Self::memory_required(arch);
        if needed > phone.app_budget_bytes() {
            return Err(FrameworkError::OutOfMemory {
                needed,
                budget: phone.app_budget_bytes(),
            });
        }
        Ok(())
    }

    fn style(&self) -> CnnDroidStyle {
        CnnDroidStyle {
            gpu: self.target == CnnDroidTarget::Gpu,
        }
    }
}

/// CNNdroid's cost accounting: direct convolution with no operand reuse —
/// every multiply fetches from DRAM (discounted 50% for what small caches
/// catch), strided NCHW access on the GPU.
struct CnnDroidStyle {
    gpu: bool,
}

impl CnnDroidStyle {
    /// Fraction of per-MAC operand traffic surviving the cache (fitted to
    /// the CNNdroid GPU AlexNet anchor: 766 / 369 ms, Table III).
    const CACHE_DISCOUNT: f64 = 0.4;

    fn coalescing(&self) -> f64 {
        if self.gpu {
            0.4 // NCHW float, one work item per output pixel: strided reads
        } else {
            0.9
        }
    }
}

impl CostStyle for CnnDroidStyle {
    fn conv(&self, info: &LayerInfo, geom: &ConvGeometry, act: Activation) -> KernelProfile {
        let out_elems = info.output.len() as f64;
        // 1x1 convolutions reuse the whole input map from cache (it fits
        // on-chip), unlike windowed taps which stream per-MAC.
        let locality = if geom.taps() == 1 { 0.15 } else { 1.0 };
        // RenderScript vectorizes float4 along channels: layers with fewer
        // than 8 input channels waste most lanes (the first RGB layer).
        let lane_waste = (8.0 / info.input.c.max(1) as f64).clamp(1.0, 3.0);
        KernelProfile::new("cnndroid_conv", NdRange::linear(info.output.len()))
            .f32_ops(info.macs * 2.0 + out_elems * (act.ops_per_element() + 4.0))
            .reads(
                info.macs * 4.0 * Self::CACHE_DISCOUNT * locality + info.weight_params as f64 * 4.0,
            )
            .writes(out_elems * 4.0)
            .divergence(lane_waste)
            .coalescing(self.coalescing())
    }

    fn pool(&self, info: &LayerInfo, window: usize) -> KernelProfile {
        let out_elems = info.output.len() as f64;
        let taps = (window * window) as f64;
        KernelProfile::new("cnndroid_pool", NdRange::linear(info.output.len()))
            .f32_ops(out_elems * taps)
            .reads(out_elems * taps * 4.0)
            .writes(out_elems * 4.0)
            .coalescing(self.coalescing())
    }

    fn dense(&self, info: &LayerInfo, act: Activation) -> KernelProfile {
        let out_elems = info.output.len() as f64;
        KernelProfile::new("cnndroid_dense", NdRange::linear(info.output.len()))
            .f32_ops(info.macs * 2.0 + out_elems * (act.ops_per_element() + 4.0))
            .reads(info.macs * 4.0 + info.weight_params as f64 * 0.0)
            .writes(out_elems * 4.0)
            .coalescing(self.coalescing())
    }
}

impl Framework for CnnDroid {
    fn label(&self) -> String {
        match self.target {
            CnnDroidTarget::Cpu => "CNNdroid CPU".into(),
            CnnDroidTarget::Gpu => "CNNdroid GPU".into(),
        }
    }

    fn run(
        &self,
        phone: &Phone,
        def: &NetworkDef,
        input: &Tensor<f32>,
    ) -> Result<RunReport, FrameworkError> {
        self.check_memory(phone, &def.arch)?;
        let mut queue = self.queue(phone);
        let style = self.style();
        let (output, per_layer) = execute_float(&mut queue, def, input, &style, &|w| w.to_vec());
        Ok(report_from(
            &self.label(),
            &queue,
            per_layer,
            Self::memory_required(&def.arch),
            Some(output),
        ))
    }

    fn estimate(&self, phone: &Phone, arch: &NetworkArch) -> Result<RunReport, FrameworkError> {
        self.check_memory(phone, arch)?;
        let mut queue = self.queue(phone);
        let style = self.style();
        let per_layer = estimate_float(&mut queue, arch, &style);
        Ok(report_from(
            &self.label(),
            &queue,
            per_layer,
            Self::memory_required(arch),
            None,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phonebit_models::zoo::{self, Variant};
    use phonebit_models::{fill_weights, synthetic_image, to_float_input};
    use phonebit_tensor::shape::Shape4;

    #[test]
    fn vgg16_ooms_on_both_phones() {
        // The paper's Table III OOM cells.
        let arch = zoo::vgg16(Variant::Float);
        for phone in Phone::all() {
            for fw in [CnnDroid::cpu(), CnnDroid::gpu()] {
                let err = fw.estimate(&phone, &arch).unwrap_err();
                assert_eq!(err.cell(), "OOM", "{} on {}", fw.label(), phone.name);
            }
        }
    }

    #[test]
    fn alexnet_and_yolo_fit() {
        for arch in [
            zoo::alexnet(Variant::Float),
            zoo::yolov2_tiny(Variant::Float),
        ] {
            for phone in Phone::all() {
                assert!(
                    CnnDroid::gpu().estimate(&phone, &arch).is_ok(),
                    "{} should fit {}",
                    arch.name,
                    phone.name
                );
            }
        }
    }

    #[test]
    fn gpu_beats_cpu_substantially() {
        let arch = zoo::alexnet(Variant::Float);
        let phone = Phone::xiaomi_9();
        let cpu = CnnDroid::cpu().estimate(&phone, &arch).unwrap().total_s;
        let gpu = CnnDroid::gpu().estimate(&phone, &arch).unwrap().total_s;
        // Table III: 5621 ms vs 369 ms — an order of magnitude.
        assert!(cpu > 5.0 * gpu, "CPU {cpu} vs GPU {gpu}");
    }

    #[test]
    fn functional_run_produces_sane_output() {
        let arch = zoo::alexnet_micro(Variant::Float);
        let def = fill_weights(&arch, 11);
        let img = to_float_input(&synthetic_image(Shape4::new(1, 32, 32, 3), 3));
        let report = CnnDroid::gpu().run(&Phone::xiaomi_9(), &def, &img).unwrap();
        let out = report.output.unwrap().into_floats().unwrap();
        assert_eq!(out.shape().c, 10);
        let sum: f32 = out.as_slice().iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-4,
            "softmax output sums to 1, got {sum}"
        );
        assert!(report.total_s > 0.0);
    }

    #[test]
    fn cpu_and_gpu_agree_functionally() {
        let arch = zoo::alexnet_micro(Variant::Float);
        let def = fill_weights(&arch, 5);
        let img = to_float_input(&synthetic_image(Shape4::new(1, 32, 32, 3), 9));
        let phone = Phone::xiaomi_9();
        let a = CnnDroid::cpu().run(&phone, &def, &img).unwrap();
        let b = CnnDroid::gpu().run(&phone, &def, &img).unwrap();
        let ta = a.output.unwrap().into_floats().unwrap();
        let tb = b.output.unwrap().into_floats().unwrap();
        assert_eq!(ta, tb, "same functional math on both targets");
        assert!(a.total_s > b.total_s);
    }

    #[test]
    fn memory_model_scales_with_weights() {
        let small = CnnDroid::memory_required(&zoo::alexnet_micro(Variant::Float));
        let big = CnnDroid::memory_required(&zoo::alexnet(Variant::Float));
        assert!(big > 100 * small);
        // AlexNet: 3 x ~244 MB ~ 730 MB.
        let mb = big as f64 / 1e6;
        assert!(
            (650.0..850.0).contains(&mb),
            "AlexNet CNNdroid footprint {mb} MB"
        );
    }
}
