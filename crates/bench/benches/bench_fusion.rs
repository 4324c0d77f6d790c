//! Real wall-clock: the layer-integration ablation on the host — fused
//! conv+BN+binarize+pack in one pass vs accumulate-then-binarize in two
//! passes with an int32 intermediate (paper §V-B).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use phonebit_nn::fuse::{BnParams, FusedBn};
use phonebit_nn::kernels::bconv::{
    compute_bconv_accum, compute_bconv_fused, compute_binarize_pack, DirectBank,
};
use phonebit_tensor::bits::BitTensor;
use phonebit_tensor::lanes::LaneBank;
use phonebit_tensor::pack::{pack_f32, pack_filters};
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Layout, Shape4};
use phonebit_tensor::tensor::{Filters, Tensor};

fn bench_fusion(c: &mut Criterion) {
    let shape = Shape4::new(1, 26, 26, 256);
    let fshape = FilterShape::new(256, 3, 3, 256);
    let input = Tensor::from_fn(shape, |_, h, w, ch| {
        if (h * 5 + w * 11 + ch) % 3 == 0 {
            1.0
        } else {
            -1.0
        }
    });
    // Every filter distinct, so both sides multiply all 256.
    let filters = Filters::from_fn(fshape, |k, i, j, ch| {
        if (k >> (ch % 16) ^ (k * 3 + i + j + ch)) % 2 == 0 {
            1.0
        } else {
            -1.0
        }
    });
    let geom = ConvGeometry::square(3, 1, 1);
    let packed_in = pack_f32::<u64>(&input);
    let filters = pack_filters::<u64>(&filters);
    let bn = BnParams {
        gamma: (0..256)
            .map(|i| if i % 4 == 0 { -1.0 } else { 1.0 })
            .collect(),
        beta: vec![0.1; 256],
        mu: vec![1.0; 256],
        sigma: vec![2.0; 256],
    };
    let fused = FusedBn::precompute(&bn, &vec![0.0; 256]);
    let (direct, bank) = (
        DirectBank::new(&filters, &fused, None),
        &LaneBank::new(&filters),
    );
    let out_shape = Shape4::new(1, 26, 26, 256);

    let mut group = c.benchmark_group("layer_integration");
    group.sample_size(20);
    group.bench_function("fused_single_pass", |b| {
        b.iter(|| {
            let mut out = BitTensor::<u64>::zeros(out_shape);
            compute_bconv_fused(black_box(&packed_in), &direct, &geom, &mut out);
            out
        });
    });
    group.bench_function("unfused_accum_then_pack", |b| {
        b.iter(|| {
            let mut accum = Tensor::<i32>::zeros(out_shape, Layout::Nhwc);
            compute_bconv_accum(black_box(&packed_in), bank, &geom, &mut accum);
            let mut out = BitTensor::<u64>::zeros(out_shape);
            compute_binarize_pack(&accum, &fused, &mut out);
            out
        });
    });
    group.finish();

    // The Eqn (8) vs Eqn (9) decision itself, isolated.
    let mut group = c.benchmark_group("binarize_decision");
    let acc: Vec<f32> = (0..65536).map(|i| (i % 2303) as f32 - 1151.0).collect();
    group.bench_function("eqn8_branchy", |b| {
        b.iter(|| {
            acc.iter()
                .enumerate()
                .filter(|&(i, &x)| fused.decide_branchy(i % 256, x))
                .count()
        });
    });
    group.bench_function("eqn9_logic", |b| {
        b.iter(|| {
            acc.iter()
                .enumerate()
                .filter(|&(i, &x)| fused.decide_logic(i % 256, x))
                .count()
        });
    });
    group.finish();
}

criterion_group!(benches, bench_fusion);
criterion_main!(benches);
