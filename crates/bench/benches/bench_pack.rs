//! Real wall-clock: channel packing (binarize f32 → packed words) and the
//! bit-plane split of 8-bit inputs, across packing word widths.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use phonebit_tensor::bitplane::BitPlanes;
use phonebit_tensor::bits::BitTensor;
use phonebit_tensor::pack::{pack_f32, pack_f32_into, pack_window_into};
use phonebit_tensor::shape::{Layout, Shape4};
use phonebit_tensor::tensor::Tensor;

fn activation(shape: Shape4) -> Tensor<f32> {
    Tensor::from_fn(shape, |n, h, w, c| {
        (((n * 131 + h * 31 + w * 17 + c) % 13) as f32) - 6.0
    })
}

fn bench_pack(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack");
    // A YOLO conv5-sized activation: 26x26x256.
    let t = activation(Shape4::new(1, 26, 26, 256));
    group.bench_function("pack_f32_to_u8", |b| {
        b.iter(|| pack_f32::<u8>(black_box(&t)));
    });
    group.bench_function("pack_f32_to_u16", |b| {
        b.iter(|| pack_f32::<u16>(black_box(&t)));
    });
    group.bench_function("pack_f32_to_u32", |b| {
        b.iter(|| pack_f32::<u32>(black_box(&t)));
    });
    group.bench_function("pack_f32_to_u64", |b| {
        b.iter(|| pack_f32::<u64>(black_box(&t)));
    });

    // A VGG conv1_2-sized batch-2 window: as one batched tensor (what a
    // staging copy used to build) and as the two images the caller holds,
    // which is how the engine packs it.
    let single = Shape4::new(1, 224, 224, 64);
    let images = [activation(single), activation(single)];
    let joined: Vec<f32> = images.iter().flat_map(|t| t.as_slice()).copied().collect();
    let window = Shape4::new(2, 224, 224, 64);
    let batched = Tensor::from_vec(window, Layout::Nhwc, joined);
    let mut bits = BitTensor::<u64>::zeros(window);
    pack_window_into(&images, window, &mut bits);
    assert_eq!(bits, pack_f32::<u64>(&batched), "same bits either way");
    group.bench_function("window_2x224x224x64_batched_tensor", |b| {
        b.iter(|| pack_f32_into(black_box(&batched), &mut bits));
    });
    group.bench_function("window_2x224x224x64_separate_images", |b| {
        b.iter(|| pack_window_into(black_box(&images), window, &mut bits));
    });
    group.finish();

    let mut group = c.benchmark_group("bitplane_split");
    for &(h, w) in &[(32usize, 32usize), (128, 128)] {
        let img = Tensor::from_fn(Shape4::new(1, h, w, 3), |_, y, x, ch| {
            ((y * 41 + x * 13 + ch * 7) % 256) as u8
        });
        group.bench_with_input(BenchmarkId::new("split", h * w), &img, |b, img| {
            // The engine's width for an RGB image (`PackWidth::select(3)`).
            b.iter(|| BitPlanes::<u8>::split(black_box(img)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pack);
criterion_main!(benches);
