//! Weight-bank dictionary-compression report.
//!
//! For each zoo model × phone, synthesizes clustered weights (the sign-
//! prototype redundancy trained BNNs exhibit and `CompressionMode::Auto`
//! exploits), lowers the model twice — raw (`Off`, the seed footprint) and
//! compressed (`Auto`) — and records the resident weight bytes of each,
//! the compressed/raw ratio, and how many banks won their compress-or-skip
//! call. Verifies the compression gates (strict weight-bytes reduction on
//! every zoo model × phone, micro-zoo sessions bit-exact raw vs
//! compressed, and a bank staged through its dictionary interleaving to
//! exactly the raw bank's lanes — so the host kernel, which reads only
//! the staged lanes, cannot run a compressed layer slower than a raw one),
//! and writes `BENCH_compress.json` so future PRs have a compression
//! trajectory to diff against. Everything here is deterministic.
//!
//! Run: `cargo run --release -p phonebit-bench --bin compress_report`
//! (`-- --out <path>` to redirect the JSON; `-- --check-baseline <path>`
//! to require this run to equal a committed `BENCH_compress.json` byte for
//! byte: the byte ratio is deterministic, so any drift means the
//! compressor or planner changed.)

use phonebit_bench::baseline::{finish, Fields, Report, Value::Fixed};
use phonebit_core::{
    convert, ActivationData, CompressionMode, ExecutionPlan, RouteOverrides, Session,
};
use phonebit_gpusim::Phone;
use phonebit_models::zoo::{self, Variant};
use phonebit_models::{fill_weights_clustered, synthetic_image};
use phonebit_nn::graph::NetworkArch;
use phonebit_tensor::dict::{FilterAccess, FilterDict};
use phonebit_tensor::lanes::LaneBank;
use phonebit_tensor::pack::pack_filters;
use phonebit_tensor::shape::FilterShape;
use phonebit_tensor::tensor::{Filters, Tensor};

/// Seed and prototype-pool size of the clustered synthetic checkpoints.
const SEED: u64 = 13;
const PROTOTYPES: usize = 8;

fn compressed() -> RouteOverrides {
    RouteOverrides {
        compression: CompressionMode::Auto,
        ..Default::default()
    }
}

/// A clustered `k × 3×3 × cin` bank staged raw and through its dictionary
/// must interleave to the same lanes (the dictionary one carrying the
/// modeled DRAM saving): the host kernels read nothing else.
fn assert_staged_banks_identical(cin: usize, k: usize) {
    // Filters draw from PROTOTYPES sign streams so the dictionary dedupes
    // the way clustered checkpoints do.
    let filters = Filters::from_fn(FilterShape::new(k, 3, 3, cin), |kk, i, j, ch| {
        if ((kk % PROTOTYPES) * 31 + i * 7 + j * 3 + ch).is_multiple_of(2) {
            1.0
        } else {
            -1.0
        }
    });
    let packed = pack_filters::<u64>(&filters);
    let dict = FilterDict::build(&packed);
    assert!(dict.wins(), "clustered kernel filters must dedupe");
    let (raw, through) = (LaneBank::new(&packed), LaneBank::new(&dict));
    assert_eq!(through.dram_discount_bytes(), dict.dram_discount_bytes());
    for g in 0..raw.groups() {
        assert_eq!(raw.group(g), through.group(g), "c{cin} k{k} group {g}");
    }
}

/// Raw-vs-compressed sessions on one micro model must produce identical
/// outputs (the cheap end-to-end arm of the zoo-wide test suite).
fn assert_bit_exact(arch: &NetworkArch, phone: &Phone) {
    let model = || convert(&fill_weights_clustered(arch, SEED, PROTOTYPES));
    let takes_u8 = model().takes_u8_input();
    let mut plain = Session::new(model(), phone).expect("fits");
    let mut comp = Session::new_batched_opts(model(), phone, 1, compressed()).expect("fits");
    let img = synthetic_image(arch.input, 77);
    let (want, got) = if takes_u8 {
        (
            plain.run_u8(&img).expect("run").output.unwrap(),
            comp.run_u8(&img).expect("run").output.unwrap(),
        )
    } else {
        let s = img.shape();
        let f = Tensor::from_fn(s, |n, h, w, c| img.at(n, h, w, c) as f32 / 255.0);
        (
            plain.run_f32(&f).expect("run").output.unwrap(),
            comp.run_f32(&f).expect("run").output.unwrap(),
        )
    };
    match (&want, &got) {
        (ActivationData::Bits(x), ActivationData::Bits(y)) => {
            assert_eq!(x, y, "{}: compressed session diverged", arch.name)
        }
        (ActivationData::Floats(x), ActivationData::Floats(y)) => {
            assert_eq!(x, y, "{}: compressed session diverged", arch.name)
        }
        (ActivationData::Bytes(x), ActivationData::Bytes(y)) => {
            assert_eq!(x, y, "{}: compressed session diverged", arch.name)
        }
        _ => panic!("{}: activation kinds diverged", arch.name),
    }
}

fn main() {
    let mut archs = zoo::all(Variant::Binary);
    archs.push(zoo::alexnet_micro(Variant::Binary));
    archs.push(zoo::yolo_micro(Variant::Binary));

    println!(
        "{:<14} {:<10} {:>12} {:>12} {:>7} {:>10}  (clustered weights, seed {SEED})",
        "model", "phone", "raw", "compressed", "ratio", "banks"
    );
    let mut rows: Vec<Fields> = Vec::new();
    // Gate 1: strict weight-bytes reduction on every zoo model × phone.
    let mut gate_failures: Vec<String> = Vec::new();
    for arch in &archs {
        let model = convert(&fill_weights_clustered(arch, SEED, PROTOTYPES));
        for phone in Phone::all() {
            let raw = ExecutionPlan::for_model_batched(&model, &phone.gpu, 1).expect("plan");
            let auto =
                ExecutionPlan::for_model(&model, &phone.gpu, 1, &compressed()).expect("plan");
            let (raw_bytes, compressed_bytes) = (raw.weights_bytes, auto.weights_bytes);
            let ratio = compressed_bytes as f64 / raw_bytes as f64;
            let layers_compressed = auto.compression.iter().filter(|d| d.compressed).count();
            println!(
                "{:<14} {:<10} {:>12} {:>12} {:>7.3} {:>7}/{}",
                arch.name,
                phone.name,
                raw_bytes,
                compressed_bytes,
                ratio,
                layers_compressed,
                auto.compression.len()
            );
            if compressed_bytes >= raw_bytes {
                gate_failures.push(format!(
                    "{}/{}: compressed {compressed_bytes} bytes is not below raw {raw_bytes}",
                    arch.name, phone.name
                ));
            }
            rows.push(vec![
                ("model", arch.name.as_str().into()),
                ("phone", phone.name.into()),
                ("raw_bytes", raw_bytes.into()),
                ("compressed_bytes", compressed_bytes.into()),
                ("ratio", Fixed(ratio, 4)),
                ("layers_compressed", layers_compressed.into()),
                ("layers_total", auto.compression.len().into()),
            ]);
        }
    }

    // Gate 2: micro-zoo sessions are bit-exact raw vs compressed
    // (asserts inside; full-route coverage lives in tests/compress.rs).
    let phone = Phone::xiaomi_9();
    assert_bit_exact(&zoo::alexnet_micro(Variant::Binary), &phone);
    assert_bit_exact(&zoo::yolo_micro(Variant::Binary), &phone);
    println!("micro zoo bit-exact raw vs compressed: ok");

    // Gate 3: staging through a dictionary changes no lane (asserts
    // inside), so compression cannot slow the host kernels.
    assert_staged_banks_identical(128, 128);
    assert_staged_banks_identical(128, 256);
    println!("banks staged through their dictionary == raw banks: ok");

    let report = Report::exact("compress", "bytes", &["model", "phone"], rows);
    finish(&report, &gate_failures);
}
