//! Real wall-clock of the binary-convolution hot path on the paper's layer
//! shapes: the tiled kernel (window gather + interior/border split + 4×2
//! bit-GEMM microkernel) against the seed per-tap reference kernel, and
//! both against a float convolution of the same shape.
//!
//! The tiled-vs-reference pairs are the PR's before/after evidence; the
//! `bconv_report` binary measures the same shapes and emits
//! `BENCH_bconv.json` for trend tracking.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use phonebit_gpusim::{CommandQueue, DeviceProfile, ExecutorClass};
use phonebit_nn::act::Activation;
use phonebit_nn::fuse::FusedBn;
use phonebit_nn::kernels::bconv::{compute_bconv_fused, compute_bconv_fused_reference, DirectBank};
use phonebit_nn::kernels::fconv::{compute_fconv, FloatBank};
use phonebit_tensor::bits::BitTensor;
use phonebit_tensor::pack::{pack_f32, pack_filters};
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Layout, Shape4};
use phonebit_tensor::tensor::{Filters, Tensor};

fn pm1_input(shape: Shape4) -> Tensor<f32> {
    Tensor::from_fn(shape, |_, h, w, ch| {
        if (h * 7 + w * 3 + ch) % 3 == 0 {
            1.0
        } else {
            -1.0
        }
    })
}

fn pm1_filters(shape: FilterShape) -> Filters {
    Filters::from_fn(
        shape,
        // Every filter distinct (bit `ch % 16` of `k` flips the pattern), so
        // the tiled body multiplies them all rather than a shared bank.
        |k, i, j, ch| {
            if (k >> (ch % 16) ^ (k + i + j + ch)) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        },
    )
}

fn bench_bconv(c: &mut Criterion) {
    // The paper's YOLOv2-Tiny 3x3 interior layers (C >= 64).
    let shapes: &[(&str, usize, usize, usize)] = &[
        ("conv3_104x104", 104, 64, 64),
        ("conv4_52x52", 52, 128, 128),
        ("conv5_26x26", 26, 128, 256),
    ];
    let geom = ConvGeometry::square(3, 1, 1);
    let mut group = c.benchmark_group("bconv_3x3");
    group.sample_size(10);
    for &(name, hw, cin, k) in shapes {
        let input = pm1_input(Shape4::new(1, hw, hw, cin));
        let filters = pm1_filters(FilterShape::new(k, 3, 3, cin));
        let packed_in = pack_f32::<u64>(&input);
        let packed_f = pack_filters::<u64>(&filters);
        let fused = FusedBn::identity(k);
        let bank = DirectBank::new(&packed_f, &fused, None);
        group.bench_with_input(BenchmarkId::new("tiled", name), &(), |b, ()| {
            b.iter(|| {
                let mut out = BitTensor::<u64>::zeros(Shape4::new(1, hw, hw, k));
                compute_bconv_fused(black_box(&packed_in), black_box(&bank), &geom, &mut out);
                out
            });
        });
        group.bench_with_input(BenchmarkId::new("reference", name), &(), |b, ()| {
            b.iter(|| {
                let mut out = BitTensor::<u64>::zeros(Shape4::new(1, hw, hw, k));
                compute_bconv_fused_reference(
                    black_box(&packed_in),
                    black_box(&packed_f),
                    &fused,
                    &geom,
                    &mut out,
                );
                out
            });
        });
    }
    group.finish();

    // Float comparison on the conv4 shape (the headline operator speedup).
    let shape = Shape4::new(1, 52, 52, 128);
    let fshape = FilterShape::new(128, 3, 3, 128);
    let input = pm1_input(shape);
    let filters = pm1_filters(fshape);
    let packed_in = pack_f32::<u64>(&input);
    let packed_f = pack_filters::<u64>(&filters);
    let fused = FusedBn::identity(128);
    let bank = DirectBank::new(&packed_f, &fused, None);
    let bias = vec![0.0f32; 128];
    let mut group = c.benchmark_group("conv_128x128_52x52");
    group.sample_size(10);
    group.bench_function("binary_fused_tiled", |b| {
        b.iter(|| {
            let mut out = BitTensor::<u64>::zeros(Shape4::new(1, 52, 52, 128));
            compute_bconv_fused(black_box(&packed_in), black_box(&bank), &geom, &mut out);
            out
        });
    });
    let bank = FloatBank::new(&filters);
    group.bench_function("float_direct", |b| {
        b.iter(|| {
            let mut out = Tensor::<f32>::zeros(Shape4::new(1, 52, 52, 128), Layout::Nhwc);
            compute_fconv(
                black_box(&input),
                black_box(&bank),
                &bias,
                Activation::Linear,
                &geom,
                &mut out,
            );
            out
        });
    });
    group.finish();

    // Full simulated dispatch overhead check (launch + modeled accounting).
    let mut group = c.benchmark_group("dispatch_overhead");
    group.bench_function("queue_launch_fused", |b| {
        let mut q = CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl);
        b.iter(|| {
            let out = phonebit_nn::kernels::bconv::bconv_fused(
                &mut q,
                black_box(&packed_in),
                black_box(&packed_f),
                &fused,
                &geom,
            );
            q.reset();
            out
        });
    });
    group.finish();
}

criterion_group!(benches, bench_bconv);
criterion_main!(benches);
