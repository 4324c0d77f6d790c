//! Real wall-clock: whole-layer and whole-network host execution — binary
//! max pooling vs float, the fused dense layer, and a full micro-network
//! inference through the engine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use phonebit_core::{convert, Session};
use phonebit_gpusim::{CommandQueue, DeviceProfile, ExecutorClass, Phone};
use phonebit_models::zoo::{self, Variant};
use phonebit_models::{fill_weights, synthetic_image};
use phonebit_nn::fuse::FusedBn;
use phonebit_nn::kernels::dense::compute_dense_bin;
use phonebit_nn::kernels::pool::{compute_maxpool_bits, compute_maxpool_f32, PoolGeometry};
use phonebit_nn::kernels::tiled::FusedLanes;
use phonebit_tensor::bits::{BitTensor, PackedFilters};
use phonebit_tensor::pack::pack_f32;
use phonebit_tensor::shape::{FilterShape, Layout, Shape4};
use phonebit_tensor::tensor::Tensor;

fn bench_layers(c: &mut Criterion) {
    // Pooling: 104x104x64 -> 52x52x64 (YOLO pool3 shape).
    let shape = Shape4::new(1, 104, 104, 64);
    let t = Tensor::from_fn(
        shape,
        |_, h, w, ch| {
            if (h + w * 3 + ch) % 3 == 0 {
                1.0
            } else {
                -1.0
            }
        },
    );
    let bits = pack_f32::<u64>(&t);
    let geom = PoolGeometry::new(2, 2);
    let mut group = c.benchmark_group("maxpool_104x104x64");
    group.bench_function("binary_or_words", |b| {
        b.iter(|| {
            let mut out = BitTensor::<u64>::zeros(Shape4::new(1, 52, 52, 64));
            compute_maxpool_bits(black_box(&bits), &geom, &mut out);
            out
        });
    });
    group.bench_function("float_max", |b| {
        b.iter(|| {
            let mut out = Tensor::<f32>::zeros(Shape4::new(1, 52, 52, 64), Layout::Nhwc);
            compute_maxpool_f32(black_box(&t), &geom, &mut out);
            out
        });
    });
    group.finish();

    // Binary dense 4096 -> 4096 (AlexNet fc7 shape).
    let features = 4096usize;
    let x = pack_f32::<u64>(&Tensor::from_fn(
        Shape4::new(1, 1, 1, features),
        |_, _, _, ch| {
            if ch % 3 == 0 {
                1.0
            } else {
                -1.0
            }
        },
    ));
    let mut w = PackedFilters::<u64>::zeros(FilterShape::new(features, 1, 1, features));
    for k in 0..features {
        for ch in (k % 7..features).step_by(7) {
            w.set_bit(k, 0, 0, ch, true);
        }
        // One bit of its own, so no two filters repeat.
        w.set_bit(k, 0, 0, (k + 1) % features, true);
    }
    let lanes = FusedLanes::new(&w, &FusedBn::identity(features));
    let mut group = c.benchmark_group("dense_4096x4096");
    group.sample_size(30);
    group.bench_function("binary_fused", |b| {
        b.iter(|| {
            let mut out = BitTensor::<u64>::zeros(Shape4::new(1, 1, 1, features));
            compute_dense_bin(black_box(&x), black_box(&lanes), &mut out);
            out
        });
    });
    group.finish();

    // Whole-network functional inference through the engine.
    let def = fill_weights(&zoo::alexnet_micro(Variant::Binary), 5);
    let model = convert(&def);
    let img = synthetic_image(Shape4::new(1, 32, 32, 3), 1);
    let mut group = c.benchmark_group("network");
    group.sample_size(20);
    group.bench_function("alexnet_micro_engine_run", |b| {
        let mut session = Session::new(model.clone(), &Phone::xiaomi_9()).unwrap();
        b.iter(|| session.run_u8(black_box(&img)).unwrap().total_s);
    });
    group.finish();

    // A raw queue dispatch, to quantify simulator bookkeeping overhead.
    let mut group = c.benchmark_group("simulator");
    group.bench_function("empty_dispatch", |b| {
        let mut q = CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl);
        b.iter(|| {
            q.launch(
                phonebit_gpusim::KernelProfile::new("nop", phonebit_gpusim::NdRange::linear(1)),
                || {},
            );
            q.reset();
        });
    });
    group.finish();
}

criterion_group!(benches, bench_layers);
criterion_main!(benches);
