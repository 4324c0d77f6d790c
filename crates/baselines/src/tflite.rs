//! The TensorFlow-Lite-like baseline, in the three configurations Table III
//! compares: CPU float (im2col + NEON GEMM), GPU delegate (fp16 shaders),
//! and CPU 8-bit post-training quantization.
//!
//! Reproduced behaviours:
//!
//! - The GPU delegate rejects fully-connected layers and takes the process
//!   down — the CRASH cells for AlexNet and VGG16 (which have FC heads),
//!   while YOLOv2-Tiny (fully convolutional) runs.
//! - The quantized path really quantizes: weights pass through int8 and
//!   back, so outputs carry genuine quantization noise.
//! - The fp16 path rounds weights through half precision.
//! - GEMM lowering pays im2col memory amplification, but far less per-MAC
//!   traffic than CNNdroid's direct convolution.

use phonebit_core::stats::RunReport;
use phonebit_gpusim::queue::CommandQueue;
use phonebit_gpusim::{ExecutorClass, KernelProfile, NdRange, Phone};
use phonebit_nn::act::Activation;
use phonebit_nn::graph::{LayerInfo, LayerSpec, NetworkArch, NetworkDef};
use phonebit_tensor::quant::quantize_slice;
use phonebit_tensor::shape::ConvGeometry;
use phonebit_tensor::tensor::Tensor;

use crate::common::{
    estimate_float, execute_float, report_from, CostStyle, Framework, FrameworkError,
};

/// TFLite execution configuration (Table III sub-columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TfLiteMode {
    /// Multi-threaded NEON float GEMM.
    Cpu,
    /// GPU delegate with fp16 shaders.
    Gpu,
    /// 8-bit post-training quantization on the CPU.
    QuantCpu,
}

/// The TFLite-like framework.
#[derive(Debug, Clone, Copy)]
pub struct TfLite {
    mode: TfLiteMode,
}

impl TfLite {
    /// CPU float configuration.
    pub fn cpu() -> Self {
        Self {
            mode: TfLiteMode::Cpu,
        }
    }

    /// GPU delegate configuration.
    pub fn gpu() -> Self {
        Self {
            mode: TfLiteMode::Gpu,
        }
    }

    /// Quantized CPU configuration.
    pub fn quant() -> Self {
        Self {
            mode: TfLiteMode::QuantCpu,
        }
    }

    /// Weight element size in bytes for this mode.
    fn weight_elem_bytes(&self) -> f64 {
        match self.mode {
            TfLiteMode::Cpu => 4.0,
            TfLiteMode::Gpu => 2.0,
            TfLiteMode::QuantCpu => 1.0,
        }
    }

    /// Bytes the framework needs: the model file (at mode precision) plus
    /// the tensor arena (two live activations + the largest im2col buffer).
    fn memory_required(&self, arch: &NetworkArch) -> usize {
        let weights = (arch.total_params() as f64 * self.weight_elem_bytes()) as usize;
        let infos = arch.infer();
        let mut max_act = 0usize;
        let mut max_im2col = 0usize;
        for (layer, info) in arch.layers.iter().zip(infos.iter()) {
            max_act = max_act.max(info.output.len() * 4);
            if let LayerSpec::Conv(c) = layer {
                let im2col = info.output.pixels() * c.geom.taps() * info.input.c * 4;
                max_im2col = max_im2col.max(im2col);
            }
        }
        weights + 2 * max_act + max_im2col
    }

    /// GPU-delegate operator support check: fully-connected layers are
    /// unsupported and crash the delegate (AlexNet/VGG16 CRASH cells).
    fn delegate_check(&self, arch: &NetworkArch) -> Result<(), FrameworkError> {
        if self.mode != TfLiteMode::Gpu {
            return Ok(());
        }
        for layer in &arch.layers {
            if let LayerSpec::Dense(d) = layer {
                return Err(FrameworkError::DelegateCrash {
                    layer: d.name.clone(),
                    reason: "FULLY_CONNECTED is not supported by the GPU delegate".into(),
                });
            }
        }
        Ok(())
    }

    fn check_memory(&self, phone: &Phone, arch: &NetworkArch) -> Result<(), FrameworkError> {
        let needed = self.memory_required(arch);
        if needed > phone.app_budget_bytes() {
            return Err(FrameworkError::OutOfMemory {
                needed,
                budget: phone.app_budget_bytes(),
            });
        }
        Ok(())
    }

    fn queue(&self, phone: &Phone) -> CommandQueue {
        match self.mode {
            TfLiteMode::Cpu => CommandQueue::new(phone.cpu.clone(), ExecutorClass::TfLiteCpu),
            TfLiteMode::Gpu => CommandQueue::new(phone.gpu.clone(), ExecutorClass::TfLiteGpu),
            TfLiteMode::QuantCpu => {
                CommandQueue::new(phone.cpu.clone(), ExecutorClass::TfLiteQuantCpu)
            }
        }
    }

    fn style(&self) -> TfLiteStyle {
        TfLiteStyle { mode: self.mode }
    }

    /// The weight transformation each mode applies: identity for float,
    /// fp16 round-trip for the delegate, int8 quantize→dequantize for the
    /// quantized path.
    fn map_weights(&self, w: &[f32]) -> Vec<f32> {
        match self.mode {
            TfLiteMode::Cpu => w.to_vec(),
            TfLiteMode::Gpu => w.iter().map(|&v| f16_round(v)).collect(),
            TfLiteMode::QuantCpu => {
                let (q, params) = quantize_slice(w);
                q.iter().map(|&qi| params.dequantize(qi)).collect()
            }
        }
    }
}

/// Rounds an `f32` through IEEE half precision (the GPU delegate's storage
/// format).
fn f16_round(v: f32) -> f32 {
    let bits = v.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x7F_FFFF;
    // Handle zero/denormal/overflow coarsely; NN weights live well inside
    // the normal range.
    let half: u32 = if exp == 0xFF {
        sign | 0x7C00 // inf/nan
    } else {
        let e = exp - 127 + 15;
        if e <= 0 {
            sign // flush to zero
        } else if e >= 31 {
            sign | 0x7C00
        } else {
            // Round-to-nearest on the 10-bit mantissa.
            let mant = frac >> 13;
            let round = (frac >> 12) & 1;
            sign | (((e as u32) << 10 | mant) + round)
        }
    };
    // Expand back.
    let s = (half & 0x8000) << 16;
    let e = ((half >> 10) & 0x1F) as i32;
    let m = half & 0x3FF;
    let out = if e == 0 {
        s // zero
    } else if e == 31 {
        s | 0x7F80_0000
    } else {
        s | (((e - 15 + 127) as u32) << 23) | (m << 13)
    };
    f32::from_bits(out)
}

/// TFLite's cost accounting: im2col + GEMM with operand reuse in registers,
/// so DRAM traffic is the im2col buffer round trip plus one pass over the
/// weights — not per-MAC like CNNdroid.
struct TfLiteStyle {
    mode: TfLiteMode,
}

impl TfLiteStyle {
    fn elem_bytes(&self) -> f64 {
        match self.mode {
            TfLiteMode::Cpu => 4.0,
            TfLiteMode::Gpu => 2.0,
            TfLiteMode::QuantCpu => 1.0,
        }
    }
}

impl CostStyle for TfLiteStyle {
    fn conv(&self, info: &LayerInfo, geom: &ConvGeometry, act: Activation) -> KernelProfile {
        let out_elems = info.output.len() as f64;
        let im2col = info.output.pixels() as f64 * geom.taps() as f64 * info.input.c as f64;
        let eb = self.elem_bytes();
        let traffic = im2col * eb * 2.0 + info.weight_params as f64 * eb + out_elems * eb;
        let ops = info.macs * 2.0 + out_elems * (act.ops_per_element() + 2.0);
        let p = KernelProfile::new("tflite_conv", NdRange::linear(info.output.pixels()))
            .reads(traffic)
            .writes(out_elems * eb)
            .coalescing(0.9);
        if self.mode == TfLiteMode::QuantCpu {
            // int8 GEMM plus quantize/dequantize passes.
            p.int_ops(ops + (info.input.len() + info.output.len()) as f64 * 2.0)
        } else {
            p.f32_ops(ops)
        }
    }

    fn pool(&self, info: &LayerInfo, window: usize) -> KernelProfile {
        let out_elems = info.output.len() as f64;
        let taps = (window * window) as f64;
        KernelProfile::new("tflite_pool", NdRange::linear(info.output.len()))
            .f32_ops(out_elems * taps)
            .reads(out_elems * taps * self.elem_bytes())
            .writes(out_elems * self.elem_bytes())
            .coalescing(0.9)
    }

    fn dense(&self, info: &LayerInfo, act: Activation) -> KernelProfile {
        let out_elems = info.output.len() as f64;
        let eb = self.elem_bytes();
        let ops = info.macs * 2.0 + out_elems * (act.ops_per_element() + 2.0);
        let p = KernelProfile::new("tflite_dense", NdRange::linear(info.output.len()))
            .reads(info.weight_params as f64 * eb + info.input.len() as f64 * eb)
            .writes(out_elems * eb)
            .coalescing(0.9);
        if self.mode == TfLiteMode::QuantCpu {
            p.int_ops(ops)
        } else {
            p.f32_ops(ops)
        }
    }
}

impl Framework for TfLite {
    fn label(&self) -> String {
        match self.mode {
            TfLiteMode::Cpu => "TFLite CPU".into(),
            TfLiteMode::Gpu => "TFLite GPU".into(),
            TfLiteMode::QuantCpu => "TFLite Quant".into(),
        }
    }

    fn run(
        &self,
        phone: &Phone,
        def: &NetworkDef,
        input: &Tensor<f32>,
    ) -> Result<RunReport, FrameworkError> {
        self.delegate_check(&def.arch)?;
        self.check_memory(phone, &def.arch)?;
        let mut queue = self.queue(phone);
        let style = self.style();
        let (output, per_layer) =
            execute_float(&mut queue, def, input, &style, &|w| self.map_weights(w));
        Ok(report_from(
            &self.label(),
            &queue,
            per_layer,
            self.memory_required(&def.arch),
            Some(output),
        ))
    }

    fn estimate(&self, phone: &Phone, arch: &NetworkArch) -> Result<RunReport, FrameworkError> {
        self.delegate_check(arch)?;
        self.check_memory(phone, arch)?;
        let mut queue = self.queue(phone);
        let style = self.style();
        let per_layer = estimate_float(&mut queue, arch, &style);
        Ok(report_from(
            &self.label(),
            &queue,
            per_layer,
            self.memory_required(arch),
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
    fn gpu_delegate_crashes_on_fc_nets_only() {
        // Table III: TFLite GPU = CRASH for AlexNet and VGG16, runs YOLO.
        let phone = Phone::xiaomi_9();
        let alexnet = zoo::alexnet(Variant::Float);
        let vgg = zoo::vgg16(Variant::Float);
        let yolo = zoo::yolov2_tiny(Variant::Float);
        assert_eq!(
            TfLite::gpu().estimate(&phone, &alexnet).unwrap_err().cell(),
            "CRASH"
        );
        assert_eq!(
            TfLite::gpu().estimate(&phone, &vgg).unwrap_err().cell(),
            "CRASH"
        );
        assert!(TfLite::gpu().estimate(&phone, &yolo).is_ok());
    }

    #[test]
    fn cpu_paths_run_all_three_models() {
        // Table III: TFLite CPU and Quant produce numbers everywhere.
        for arch in zoo::all(Variant::Float) {
            for phone in Phone::all() {
                assert!(
                    TfLite::cpu().estimate(&phone, &arch).is_ok(),
                    "{}",
                    arch.name
                );
                assert!(
                    TfLite::quant().estimate(&phone, &arch).is_ok(),
                    "{}",
                    arch.name
                );
            }
        }
    }

    #[test]
    fn quant_is_faster_than_float_cpu() {
        let arch = zoo::alexnet(Variant::Float);
        let phone = Phone::xiaomi_9();
        let f = TfLite::cpu().estimate(&phone, &arch).unwrap().total_s;
        let q = TfLite::quant().estimate(&phone, &arch).unwrap().total_s;
        assert!(q < f, "quant {q} should beat float {f}");
    }

    #[test]
    fn quant_speedup_is_larger_on_sdot_core() {
        // Table III: AlexNet Quant = 103 ms (SD820) vs 24 ms (SD855) while
        // float CPU only improves 143 -> 87: the SDOT effect.
        let arch = zoo::alexnet(Variant::Float);
        let q820 = TfLite::quant()
            .estimate(&Phone::xiaomi_5(), &arch)
            .unwrap()
            .total_s;
        let q855 = TfLite::quant()
            .estimate(&Phone::xiaomi_9(), &arch)
            .unwrap()
            .total_s;
        let f820 = TfLite::cpu()
            .estimate(&Phone::xiaomi_5(), &arch)
            .unwrap()
            .total_s;
        let f855 = TfLite::cpu()
            .estimate(&Phone::xiaomi_9(), &arch)
            .unwrap()
            .total_s;
        let quant_gain = q820 / q855;
        let float_gain = f820 / f855;
        assert!(
            quant_gain > 1.5 * float_gain,
            "quant cross-device gain {quant_gain:.2} vs float {float_gain:.2}"
        );
    }

    #[test]
    fn f16_round_trip_properties() {
        assert_eq!(f16_round(0.0), 0.0);
        assert_eq!(f16_round(1.0), 1.0);
        assert_eq!(f16_round(-2.5), -2.5);
        // Small weights keep ~3 decimal digits.
        let v = 0.12345678f32;
        assert!((f16_round(v) - v).abs() < 1e-4);
        // Values beyond half range saturate to inf.
        assert!(f16_round(1e6).is_infinite());
    }

    #[test]
    fn quant_output_close_to_float_output() {
        let arch = zoo::alexnet_micro(Variant::Float);
        let def = fill_weights(&arch, 21);
        let img = to_float_input(&synthetic_image(Shape4::new(1, 32, 32, 3), 4));
        let phone = Phone::xiaomi_9();
        let f = TfLite::cpu().run(&phone, &def, &img).unwrap();
        let q = TfLite::quant().run(&phone, &def, &img).unwrap();
        let tf = f.output.unwrap().into_floats().unwrap();
        let tq = q.output.unwrap().into_floats().unwrap();
        let diff = tf.max_abs_diff(&tq);
        assert!(diff > 0.0, "quantization must introduce some noise");
        assert!(
            diff < 0.3,
            "quantized softmax within 0.3 of float, got {diff}"
        );
    }

    #[test]
    fn memory_model_orders_by_precision() {
        let arch = zoo::vgg16(Variant::Float);
        let m_f32 = TfLite::cpu().memory_required(&arch);
        let m_f16 = TfLite::gpu().memory_required(&arch);
        let m_i8 = TfLite::quant().memory_required(&arch);
        assert!(m_f32 > m_f16 && m_f16 > m_i8);
        // TFLite CPU fits VGG16 (unlike CNNdroid): Table III shows numbers.
        assert!(m_f32 <= Phone::xiaomi_5().app_budget_bytes());
    }
}
