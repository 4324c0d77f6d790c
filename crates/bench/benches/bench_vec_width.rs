//! Real wall-clock: the §V-A.2 word-width sweep on the host — xnor-popcount
//! streaming with word widths u8..u64. The vector-lane half of the sweep (up
//! to the paper's 1024-bit `ulong16`) is modeled, not executed
//! (`KernelProfile::vector_lanes`, the `ablation` bin).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use phonebit_tensor::bits::BitWord;

fn words<W: BitWord + TryFrom<u64>>(n: usize, seed: u64) -> Vec<W> {
    (0..n)
        .map(|i| {
            let v = (i as u64)
                .wrapping_mul(seed)
                .wrapping_add(0x2545F4914F6CDD1D);
            W::try_from(v & (u64::MAX >> (64 - W::BITS as u32))).unwrap_or_else(|_| W::zero())
        })
        .collect()
}

fn scalar_dot<W: BitWord>(a: &[W], b: &[W]) -> u32 {
    a.iter().zip(b).map(|(&x, &y)| x.xor(y).popcount()).sum()
}

fn bench_widths(c: &mut Criterion) {
    const BITS: usize = 1 << 20; // one megabit per operand

    let mut group = c.benchmark_group("word_width_scalar");
    let a8 = words::<u8>(BITS / 8, 3);
    let b8 = words::<u8>(BITS / 8, 7);
    group.bench_function("u8", |b| {
        b.iter(|| scalar_dot(black_box(&a8), black_box(&b8)))
    });
    let a16 = words::<u16>(BITS / 16, 3);
    let b16 = words::<u16>(BITS / 16, 7);
    group.bench_function("u16", |b| {
        b.iter(|| scalar_dot(black_box(&a16), black_box(&b16)))
    });
    let a32 = words::<u32>(BITS / 32, 3);
    let b32 = words::<u32>(BITS / 32, 7);
    group.bench_function("u32", |b| {
        b.iter(|| scalar_dot(black_box(&a32), black_box(&b32)))
    });
    let a64 = words::<u64>(BITS / 64, 3);
    let b64 = words::<u64>(BITS / 64, 7);
    group.bench_function("u64", |b| {
        b.iter(|| scalar_dot(black_box(&a64), black_box(&b64)))
    });
    group.finish();
}

criterion_group!(benches, bench_widths);
criterion_main!(benches);
