//! Real wall-clock: the Eqn (1) xnor-popcount dot product against a float
//! dot product of the same logical length — the fundamental speedup source
//! of binary networks, measured on the host CPU.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use phonebit_tensor::bits::dot_pm1;

fn make_words(n: usize, seed: u64) -> Vec<u64> {
    (0..n)
        .map(|i| {
            (i as u64)
                .wrapping_mul(seed)
                .wrapping_add(0x9E3779B97F4A7C15)
        })
        .collect()
}

fn make_floats(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            if (i as u64 * seed).is_multiple_of(3) {
                1.0
            } else {
                -1.0
            }
        })
        .collect()
}

fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot_product");
    for &len in &[256usize, 1024, 4096, 16384] {
        let words = len / 64;
        let a = make_words(words, 3);
        let b = make_words(words, 7);
        let fa = make_floats(len, 3);
        let fb = make_floats(len, 7);
        group.bench_with_input(
            BenchmarkId::new("binary_xnor_popcount", len),
            &len,
            |bch, _| {
                bch.iter(|| dot_pm1(black_box(&a), black_box(&b), len));
            },
        );
        group.bench_with_input(BenchmarkId::new("float_mul_add", len), &len, |bch, _| {
            bch.iter(|| {
                black_box(&fa)
                    .iter()
                    .zip(black_box(&fb))
                    .map(|(x, y)| x * y)
                    .sum::<f32>()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dot);
criterion_main!(benches);
