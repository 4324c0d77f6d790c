//! Affine int8 quantization of weight slices, as the TFLite-like baseline's
//! "CPU Quant" executor applies it (the paper's Table III column "Quant").
//!
//! Real values map to int8 through `real = scale * (q - zero_point)`, with
//! per-slice parameters from the observed min/max — the standard
//! post-training quantization scheme TFLite supports on CPUs.

/// Quantization parameters for one tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Real-value step per quantized unit.
    pub scale: f32,
    /// Quantized value that represents real 0.0.
    pub zero_point: i32,
}

impl QuantParams {
    /// Derives parameters covering `[min, max]` over the int8 range.
    ///
    /// The range is widened to include 0.0 so the zero point is exact, the
    /// usual requirement for zero-padding correctness.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or either bound is non-finite.
    fn from_range(min: f32, max: f32) -> Self {
        assert!(
            min.is_finite() && max.is_finite() && min <= max,
            "invalid range [{min}, {max}]"
        );
        let min = min.min(0.0);
        let max = max.max(0.0);
        let span = (max - min).max(f32::EPSILON);
        let scale = span / 255.0;
        let zero_point = (-128.0 - min / scale).round().clamp(-128.0, 127.0) as i32;
        Self { scale, zero_point }
    }

    /// Quantizes one real value.
    #[inline]
    fn quantize(&self, v: f32) -> i8 {
        ((v / self.scale).round() as i32 + self.zero_point).clamp(-128, 127) as i8
    }

    /// Dequantizes one int8 value.
    #[inline]
    pub fn dequantize(&self, q: i8) -> f32 {
        self.scale * (q as i32 - self.zero_point) as f32
    }
}

/// Quantizes a raw weight slice with its own observed parameters (any
/// parameters for an empty slice).
pub fn quantize_slice(v: &[f32]) -> (Vec<i8>, QuantParams) {
    let lo = v.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let params = if lo.is_finite() {
        QuantParams::from_range(lo, hi)
    } else {
        QuantParams::from_range(0.0, 1.0)
    };
    (v.iter().map(|&x| params.quantize(x)).collect(), params)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_error_within_half_scale() {
        let v: Vec<f32> = (0..48)
            .map(|i| ((i * 29 + (i / 3) * 13 + i % 3 * 7) % 41) as f32 / 10.0 - 2.0)
            .collect();
        let (q, params) = quantize_slice(&v);
        let bound = params.scale * 0.5 * 1.0001; // float rounding headroom
        for (&orig, &qi) in v.iter().zip(&q) {
            let back = params.dequantize(qi);
            assert!((orig - back).abs() <= bound, "{orig} -> {back} > {bound}");
        }
    }

    #[test]
    fn zero_maps_exactly() {
        let p = QuantParams::from_range(-3.7, 9.2);
        let q = p.quantize(0.0);
        assert_eq!(p.dequantize(q), 0.0);
    }

    #[test]
    fn asymmetric_range() {
        let p = QuantParams::from_range(0.0, 10.0);
        assert_eq!(p.quantize(0.0), -128);
        assert_eq!(p.quantize(10.0), 127);
        assert!((p.dequantize(p.quantize(5.0)) - 5.0).abs() < p.scale);
    }

    #[test]
    fn saturation_clamps() {
        let p = QuantParams::from_range(-1.0, 1.0);
        assert_eq!(p.quantize(100.0), 127);
        assert_eq!(p.quantize(-100.0), -128);
    }

    #[test]
    fn degenerate_constant_tensor() {
        let (q, params) = quantize_slice(&[0.0; 4]);
        assert!(q.iter().all(|&qi| params.dequantize(qi) == 0.0));
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn inverted_range_panics() {
        QuantParams::from_range(1.0, -1.0);
    }
}
