//! Before/after report for the convolution hot paths.
//!
//! Measures host wall-clock medians of the seed reference kernel and the
//! tiled kernel on the paper's 3×3 layer shapes, prints the speedup table,
//! verifies bit-exact equality while doing so, and writes
//! `BENCH_bconv.json` (shape, path, median ns — plus ns/pixel) so future
//! PRs have a perf trajectory to compare against. The streamed 8-bit
//! first layer rides along as path `bitplane` (YOLOv2-Tiny and AlexNet
//! conv1), the byte dot the engine runs for it as path `bytedot`,
//! YOLOv2-Tiny's full-precision head as path `fconv` (over floats) and
//! `fconv_bits` (over conv8's packed signs, as the engine runs it), its
//! first binary pool as path `rowor`, `conv2`/`conv3` on the bank the
//! engine stages (`taps`), and VGG16's `conv1_2`, `conv3_2` and `conv4_2`
//! shapes on clustered filters, each distinct filter multiplied once
//! (`shared`); none has a `reference` row, so they
//! are regression-gated but take no part in the speedup floor. The
//! `tiled`, `bitplane`, `bytedot`, `fconv` and `fconv_bits` paths run on the
//! host ISA tier `phonebit_nn::kernels::isa` detects, printed first and
//! recorded once in the JSON header as `"isa"`; the `reference` rows stay on
//! the portable build-target code, so the speedup column is "tiling plus
//! hardware popcount" against the seed kernel as every CPU runs it.
//!
//! Run: `cargo run --release -p phonebit-bench --bin bconv_report`
//! (`-- --out <path>` to redirect the JSON; `-- --quick` for CI smoke;
//! `-- --min-speedup X` to exit nonzero if any shape's tiled-vs-reference
//! speedup falls below `X`; `-- --check-baseline <path>` to diff this
//! run against a committed `BENCH_bconv.json` — same shape/path entries
//! required, and each tiled, bitplane, bytedot, fconv, fconv_bits or rowor
//! median may regress at most 5× (`baseline::WALL_CLOCK_TOLERANCE`, sized
//! for noisy shared runners; the reference kernel is kept for the speedup
//! denominator, not guarded)
//! — the CI guards that keep the hot path from rotting.)

use std::time::Instant;

use phonebit_bench::baseline::{finish, flag_value, Better, Check, Fields, Report, Value::Fixed};
use phonebit_gpusim::queue::CommandQueue;
use phonebit_gpusim::{DeviceProfile, ExecutorClass};
use phonebit_models::fill_weights_clustered;
use phonebit_nn::act::Activation;
use phonebit_nn::fuse::{FusedBn, PlaneCuts};
use phonebit_nn::graph::{LayerPrecision, LayerWeights, NetworkArch};
use phonebit_nn::kernels::bconv::{
    compute_bconv_fused, compute_bconv_fused_reference, compute_binarize_pack, DirectBank,
};
use phonebit_nn::kernels::bitplane::{bitplane_conv_accum, compute_bitplane_conv_fused, PlaneBank};
use phonebit_nn::kernels::bytedot::{compute_byte_conv, ByteBank};
use phonebit_nn::kernels::compute_pack_input;
use phonebit_nn::kernels::fconv::{compute_fconv, compute_fconv_bits, FloatBank, SignedBank};
use phonebit_nn::kernels::isa::IsaTier;
use phonebit_nn::kernels::pool::{compute_maxpool_bits, compute_maxpool_f32, PoolGeometry};
use phonebit_tensor::bitplane::BitPlanes;
use phonebit_tensor::bits::BitTensor;
use phonebit_tensor::pack::{pack_f32, pack_filters, unpack_f32};
use phonebit_tensor::shape::{ConvGeometry, FilterShape, Layout, Shape4};
use phonebit_tensor::tensor::{Filters, Tensor};

/// One `BENCH_bconv.json` row.
fn row(shape: &str, path: &'static str, median_ns: f64, pixels: f64) -> Fields {
    vec![
        ("shape", shape.into()),
        ("path", path.into()),
        ("median_ns", Fixed(median_ns, 0)),
        ("ns_per_pixel", Fixed(median_ns / pixels, 1)),
    ]
}

fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let min_speedup: Option<f64> = flag_value("--min-speedup").map(|s| {
        s.parse().unwrap_or_else(|_| {
            eprintln!("error: --min-speedup expects a number, got `{s}`");
            std::process::exit(2);
        })
    });
    let samples = if quick { 3 } else { 15 };

    // The paper's YOLOv2-Tiny 3x3 binary layers with C >= 64, an odd channel
    // count to keep the tail-word path honest, and the window sizes a kernel
    // change must be A/B-ed on (verify skill): VGG16's 9-, 36- and 72-word
    // windows, and a 13x13 grid at YOLO conv7's channels, where over a
    // quarter of the pixels touch the border (the engine runs conv7 itself
    // 12x12 on the lowered GEMM: pool6 is 2x2/1). YOLO's conv2 (C = 16) and
    // conv3 (C = 32) are the thin rows: three dense 48- and 96-bit kernel
    // rows per window, shifted out of the row ring (the engine runs them at
    // their packing width). YOLO's 13-wide conv6 ends every row on a
    // one-pixel tile.
    let shapes: &[(&str, usize, usize, usize)] = &[
        ("conv3_104x104_c64_k64", 104, 64, 64),
        ("conv4_52x52_c128_k128", 52, 128, 128),
        ("conv5_26x26_c128_k256", 26, 128, 256),
        ("odd_30x30_c100_k36", 30, 100, 36),
        ("vgg_conv1_2_224x224_c64_k64", 224, 64, 64),
        ("vgg_conv3_2_56x56_c256_k256", 56, 256, 256),
        ("vgg_conv4_2_28x28_c512_k512", 28, 512, 512),
        ("yolo_conv7_13x13_c512_k1024", 13, 512, 1024),
        ("yolo_conv2_208x208_c16_k32", 208, 16, 32),
        ("yolo_conv3_104x104_c32_k64", 104, 32, 64),
        ("yolo_conv6_13x13_c256_k512", 13, 256, 512),
    ];
    let geom = ConvGeometry::square(3, 1, 1);

    let isa = IsaTier::detected().name();
    println!("host ISA tier: {isa} (reference rows: portable)\n");
    println!(
        "{:<28} {:>14} {:>14} {:>9}  (median of {samples}, ns/pixel)",
        "shape", "reference", "tiled", "speedup"
    );
    let (mut rows, mut taps_rows): (Vec<Fields>, Vec<Fields>) = (Vec::new(), Vec::new());
    let mut worst_speedup = f64::INFINITY;
    for &(name, hw, cin, k) in shapes {
        let input = Tensor::from_fn(Shape4::new(1, hw, hw, cin), |_, h, w, ch| {
            if (h * 7 + w * 3 + ch) % 3 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        // Every filter distinct (bit `ch % 16` of `kk` flips the pattern),
        // so the tiled body multiplies all `k` (the `shared` rows below
        // time repeating filters).
        let filters = Filters::from_fn(FilterShape::new(k, 3, 3, cin), |kk, i, j, ch| {
            if (kk >> (ch % 16) ^ (kk + i + j + ch)) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        // Packed as the engine packs a float input (`isa::pack_window`).
        let mut packed_in = BitTensor::<u64>::zeros(input.shape());
        compute_pack_input(std::slice::from_ref(&input), input.shape(), &mut packed_in);
        assert_eq!(
            packed_in,
            pack_f32(&input),
            "sign-pack sweep diverged on {name}"
        );
        let packed_f = pack_filters::<u64>(&filters);
        let fused = FusedBn::identity(k);
        // The tiled body's lanes and cuts, staged once.
        let bank = DirectBank::new(&packed_f, &fused, None);
        let DirectBank::Lanes(lanes) = &bank else {
            unreachable!("a fused bank staged off the direct route is the tiled lanes")
        };
        assert_eq!(lanes.distinct_filters(), None, "{name}: filters repeat");
        let out_shape = Shape4::new(1, hw, hw, k);
        let pixels = (hw * hw) as f64;

        // Equality first: the tiled kernel must be bit-exact vs the seed.
        let mut a = BitTensor::<u64>::zeros(out_shape);
        let mut b = BitTensor::<u64>::zeros(out_shape);
        compute_bconv_fused_reference(&packed_in, &packed_f, &fused, &geom, &mut a);
        compute_bconv_fused(&packed_in, &bank, &geom, &mut b);
        assert_eq!(a, b, "tiled kernel diverged from reference on {name}");

        let t_ref = median_ns(samples, || {
            let mut out = BitTensor::<u64>::zeros(out_shape);
            compute_bconv_fused_reference(&packed_in, &packed_f, &fused, &geom, &mut out);
            std::hint::black_box(&out);
        });
        let t_tiled = median_ns(samples, || {
            let mut out = BitTensor::<u64>::zeros(out_shape);
            compute_bconv_fused(&packed_in, &bank, &geom, &mut out);
            std::hint::black_box(&out);
        });
        // YOLO's thin layers on the bank the engine stages for them.
        if name.starts_with("yolo_conv2") || name.starts_with("yolo_conv3") {
            let staged = DirectBank::new(&packed_f, &fused, Some(&geom));
            let mut c = BitTensor::<u64>::zeros(out_shape);
            compute_bconv_fused(&packed_in, &staged, &geom, &mut c);
            assert_eq!(a, c, "staged body diverged from reference on {name}");
            let t = median_ns(samples, || {
                let mut out = BitTensor::<u64>::zeros(out_shape);
                compute_bconv_fused(&packed_in, &staged, &geom, &mut out);
                std::hint::black_box(&out);
            });
            println!("{:<28} {:>14} {:>14.1}  taps", name, "", t / pixels);
            taps_rows.push(row(name, "taps", t, pixels));
        }
        let speedup = t_ref / t_tiled;
        worst_speedup = worst_speedup.min(speedup);
        println!(
            "{:<28} {:>14.1} {:>14.1} {:>8.2}x",
            name,
            t_ref / pixels,
            t_tiled / pixels,
            speedup
        );
        rows.push(row(name, "reference", t_ref, pixels));
        rows.push(row(name, "tiled", t_tiled, pixels));
    }
    println!("\nworst-case speedup: {worst_speedup:.2}x");

    // The binary pool YOLOv2-Tiny runs after conv1: 2x2/2 over one-word
    // pixels, the `or_pool_row` instance at literal `(1, 2, 2)`. Right first:
    // OR on the packed bits is max on the ±1 floats.
    {
        let (name, hw, c) = ("yolo_pool1_416x416_c16_2x2s2", 416, 16);
        let input = Tensor::from_fn(Shape4::new(1, hw, hw, c), |_, h, w, ch| {
            if (h * 5 + w * 11 + ch * 3) % 7 < 3 {
                1.0
            } else {
                -1.0
            }
        });
        let geom = PoolGeometry::new(2, 2);
        let (oh, ow) = geom.output_hw(hw, hw);
        let out_shape = Shape4::new(1, oh, ow, c);
        let mut floats = Tensor::<f32>::zeros(out_shape, Layout::Nhwc);
        compute_maxpool_f32(&input, &geom, &mut floats);
        let packed_in = pack_f32::<u64>(&input);
        let mut out = BitTensor::<u64>::zeros(out_shape);
        compute_maxpool_bits(&packed_in, &geom, &mut out);
        assert_eq!(
            out,
            pack_f32(&floats),
            "bit pool diverged from float max on {name}"
        );
        let t = median_ns(samples, || {
            compute_maxpool_bits(&packed_in, &geom, &mut out);
            std::hint::black_box(&out);
        });
        let pixels = (oh * ow) as f64;
        println!("\n{:<38} {:>14}", "binary pool", "rowor");
        println!("{:<38} {:>14.1}", name, t / pixels);
        rows.push(row(name, "rowor", t, pixels));
    }

    // The 8-bit first layer (Eqn 2): a one-word window (3x3x3) and a
    // multi-word one (11x11x3, stride 4). No reference row exists for these
    // shapes, so they stay out of `worst_speedup`.
    let first_layers: &[(&str, usize, usize, ConvGeometry)] = &[
        (
            "conv1_416x416_c3_k16",
            416,
            16,
            ConvGeometry::square(3, 1, 1),
        ),
        (
            "alexnet_conv1_227x227_c3_k96_11x11s4",
            227,
            96,
            ConvGeometry::square(11, 4, 0),
        ),
    ];
    println!(
        "\n{:<38} {:>14} {:>14}",
        "first layer", "bitplane", "bytedot"
    );
    for &(name, hw, k, ref geom) in first_layers {
        let image = Tensor::from_fn(Shape4::new(1, hw, hw, 3), |_, h, w, ch| {
            ((h * 83 + w * 19 + ch * 7) % 256) as u8
        });
        let filters = Filters::from_fn(FilterShape::new(k, geom.kh, geom.kw, 3), |kk, i, j, ch| {
            if (kk + i * 2 + j + ch) % 2 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        // Planes at the engine's width: `PackWidth::select(3)` is `u8`.
        let planes = BitPlanes::<u8>::split(&image);
        let packed_f = pack_filters::<u64>(&filters);
        let bank = PlaneBank::column_major(&packed_f);
        let fused = FusedBn::identity(k);
        let (oh, ow) = geom.output_hw(hw, hw);
        let out_shape = Shape4::new(1, oh, ow, k);
        let pixels = (oh * ow) as f64;

        // Equality first: fused output == accumulate, then threshold.
        let mut q = CommandQueue::new(DeviceProfile::adreno_640(), ExecutorClass::PhoneBitOpenCl);
        let accum = bitplane_conv_accum(&mut q, &planes, &packed_f, geom);
        let mut a = BitTensor::<u64>::zeros(out_shape);
        let mut b = BitTensor::<u64>::zeros(out_shape);
        compute_binarize_pack(&accum, &fused, &mut a);
        compute_bitplane_conv_fused(&planes, &bank, &fused, geom, &mut b);
        assert_eq!(
            a, b,
            "bit-plane kernel diverged from accum+threshold on {name}"
        );

        let t = median_ns(samples, || {
            let mut out = BitTensor::<u64>::zeros(out_shape);
            compute_bitplane_conv_fused(&planes, &bank, &fused, geom, &mut out);
            std::hint::black_box(&out);
        });
        rows.push(row(name, "bitplane", t, pixels));

        // The engine's host body: the same bits from a byte dot.
        let bytes = ByteBank::new(&packed_f);
        let cuts = PlaneCuts::new(&fused, geom.taps() * 3);
        let mut c = BitTensor::<u64>::zeros(out_shape);
        compute_byte_conv(&image, &bytes, &cuts, geom, &mut c);
        assert_eq!(
            a, c,
            "byte dot diverged from the bit-plane kernel on {name}"
        );
        let t_bytes = median_ns(samples, || {
            let mut out = BitTensor::<u64>::zeros(out_shape);
            compute_byte_conv(&image, &bytes, &cuts, geom, &mut out);
            std::hint::black_box(&out);
        });
        println!(
            "{:<38} {:>14.1} {:>14.1}",
            name,
            t / pixels,
            t_bytes / pixels
        );
        rows.push(row(name, "bytedot", t_bytes, pixels));
    }

    // The full-precision head (YOLOv2-Tiny conv9): 1x1 over 1024 channels.
    {
        let (name, hw, cin, k) = ("conv9_13x13_c1024_k125_1x1", 13, 1024, 125);
        let geom = ConvGeometry::square(1, 1, 0);
        let input = Tensor::from_fn(Shape4::new(1, hw, hw, cin), |_, h, w, ch| {
            ((h * 17 + w * 5 + ch * 3) % 23) as f32 * 0.1 - 1.1
        });
        let filters = Filters::from_fn(FilterShape::new(k, 1, 1, cin), |kk, _, _, ch| {
            ((kk * 7 + ch * 3) % 13) as f32 * 0.05 - 0.3
        });
        let bias: Vec<f32> = (0..k).map(|kk| kk as f32 * 0.01).collect();
        let out_shape = Shape4::new(1, hw, hw, k);
        let mut out = Tensor::<f32>::zeros(out_shape, Layout::Nhwc);
        let bank = FloatBank::new(&filters);
        compute_fconv(&input, &bank, &bias, Activation::Linear, &geom, &mut out);
        // Right first: every output against an f64 dot product.
        for (px, outputs) in out.as_slice().chunks_exact(k).enumerate() {
            let pixel = &input.as_slice()[px * cin..(px + 1) * cin];
            for (kk, &got) in outputs.iter().enumerate() {
                let dot: f64 = pixel
                    .iter()
                    .zip(filters.filter(kk))
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum();
                let expect = dot + f64::from(bias[kk]);
                assert!(
                    (f64::from(got) - expect).abs() < 1e-3,
                    "float conv diverged from the f64 dot on {name}: {got} vs {expect}"
                );
            }
        }
        let t = median_ns(samples, || {
            compute_fconv(&input, &bank, &bias, Activation::Linear, &geom, &mut out);
            std::hint::black_box(&out);
        });
        // The same head over conv8's packed signs, as the engine runs it:
        // bit for bit the float body over their unpacked ±1.0.
        let signs = pack_f32::<u64>(&input);
        let (signed, act) = (SignedBank::new(&filters), Activation::Linear);
        compute_fconv(&unpack_f32(&signs), &bank, &bias, act, &geom, &mut out);
        let mut from_bits = Tensor::<f32>::zeros(out_shape, Layout::Nhwc);
        compute_fconv_bits(&signs, &signed, &bias, act, &geom, &mut from_bits);
        assert!(
            out.as_slice()
                .iter()
                .zip(from_bits.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "bits head diverged from the float body over unpacked signs on {name}"
        );
        let t_bits = median_ns(samples, || {
            compute_fconv_bits(&signs, &signed, &bias, act, &geom, &mut from_bits);
            std::hint::black_box(&from_bits);
        });
        let pixels = (hw * hw) as f64;
        println!(
            "\n{:<38} {:>14} {:>14}",
            "float head", "fconv", "fconv_bits"
        );
        println!(
            "{:<38} {:>14.1} {:>14.1}",
            name,
            t / pixels,
            t_bits / pixels
        );
        rows.push(row(name, "fconv", t, pixels));
        rows.push(row(name, "fconv_bits", t_bits, pixels));
    }

    rows.extend(taps_rows);

    // VGG16's shapes on a trained-like clustered bank (the benchmark's
    // `vgg_body_b2` checkpoint: 32 sign prototypes per layer), staged as
    // the engine stages it: shared where the CPU permutes words, each
    // distinct filter multiplied once and every output filled in.
    println!(
        "\n{:<38} {:>14} {:>9}",
        "clustered filters", "shared", "distinct"
    );
    for &(name, hw, cin, k) in &shapes[4..7] {
        let arch = NetworkArch::new(name, Shape4::new(1, hw, hw, cin)).conv(
            "conv",
            k,
            3,
            1,
            1,
            LayerPrecision::Binary,
            Activation::Linear,
        );
        let LayerWeights::Conv(weights) = &fill_weights_clustered(&arch, 2020, 32).weights[0]
        else {
            unreachable!("the one layer is a convolution")
        };
        let input = Tensor::from_fn(arch.input, |_, h, w, ch| {
            if (h * 7 + w * 3 + ch) % 3 == 0 {
                1.0
            } else {
                -1.0
            }
        });
        let (packed_in, packed_f) = (
            pack_f32::<u64>(&input),
            pack_filters::<u64>(&weights.filters),
        );
        let fused = FusedBn::identity(k);
        let bank = DirectBank::new(&packed_f, &fused, Some(&geom));
        let distinct = match &bank {
            DirectBank::Lanes(lanes) => lanes.distinct_filters(),
            _ => None,
        };
        let out_shape = Shape4::new(1, hw, hw, k);
        let mut a = BitTensor::<u64>::zeros(out_shape);
        let mut b = BitTensor::<u64>::zeros(out_shape);
        compute_bconv_fused_reference(&packed_in, &packed_f, &fused, &geom, &mut a);
        compute_bconv_fused(&packed_in, &bank, &geom, &mut b);
        assert_eq!(a, b, "shared bank diverged from reference on {name}");
        let t = median_ns(samples, || {
            let mut out = BitTensor::<u64>::zeros(out_shape);
            compute_bconv_fused(&packed_in, &bank, &geom, &mut out);
            std::hint::black_box(&out);
        });
        let pixels = (hw * hw) as f64;
        let distinct = distinct.map_or("-".into(), |u| u.to_string());
        println!("{:<38} {:>14.1} {:>9}", name, t / pixels, distinct);
        rows.push(row(name, "shared", t, pixels));
    }
    let gate_failures: Vec<String> = min_speedup
        .filter(|&floor| worst_speedup < floor)
        .map(|floor| {
            format!(
                "worst-case tiled speedup {worst_speedup:.2}x is below the required \
                 {floor:.2}x floor"
            )
        })
        .into_iter()
        .collect();
    let report = Report {
        bench: "bconv",
        unit: "ns",
        header: vec![("isa", isa.into())],
        key_fields: &["shape", "path"],
        check: Check::Tolerant {
            metric: "ns_per_pixel",
            better: Better::Lower,
            unit: "ns/px",
            guarded: |row| row.key[1] != "reference",
        },
        rows,
    };
    finish(&report, &gate_failures);
}
