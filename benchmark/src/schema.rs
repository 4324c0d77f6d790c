//! The names and units this benchmark prints — the same lists as
//! `BENCHMARK.json` (`tests/contract.rs` holds the two together).

pub const WORKLOADS: [&str; 4] = [
    "yolo_full_b1",
    "vgg_body_b2",
    "fleet_exec_micro",
    "fleet_sim_zoo",
];

/// Gated metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("host_ms_per_req_p50", "ms"),
    ("host_reqs_per_s", "1/s"),
    ("host_cpu_ms_per_req", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

const YOLO_STEPS: [&str; 15] = [
    "conv1", "pool1", "conv2", "pool2", "conv3", "pool3", "conv4", "pool4", "conv5", "pool5",
    "conv6", "pool6", "conv7", "conv8", "conv9",
];

const VGG_STEPS: [&str; 17] = [
    "conv1_2", "pool1", "conv2_1", "conv2_2", "pool2", "conv3_1", "conv3_2", "conv3_3", "pool3",
    "conv4_1", "conv4_2", "conv4_3", "pool4", "conv5_1", "conv5_2", "conv5_3", "pool5",
];

/// Per full-scale model, suffixed `.yolo_full` / `.vgg_body`.
const PER_MODEL: [(&str, &str); 19] = [
    ("models.fill_weights_ms", "ms"),
    ("core.convert.convert_ms", "ms"),
    ("core.format.write_ms", "ms"),
    ("core.format.read_ms", "ms"),
    ("core.format.pbit_bytes", "B"),
    ("core.plan.lower_ms", "ms"),
    ("core.plan.dispatches", "count"),
    ("core.plan.fused_chains", "count"),
    ("core.plan.compressed_layers", "count"),
    ("core.plan.arena_bytes", "B"),
    ("core.plan.weights_bytes", "B"),
    ("core.engine.stage_ms", "ms"),
    ("core.engine.stream_new_ms", "ms"),
    ("core.engine.first_run_ms", "ms"),
    ("core.engine.steady_run_ms", "ms"),
    ("core.engine.self_ms", "ms"),
    ("core.engine.kernel_coverage", "ratio"),
    ("gpusim.cost.model_gap", "ratio"),
    ("gpusim.cost.rank_agreement", "ratio"),
];

/// Per full-scale model, as `nn.<model>.<name>`.
const PER_MODEL_NN: [(&str, &str); 3] = [
    ("executed_gops", "Gop"),
    ("dram_mb", "MB"),
    ("host_gops_per_s", "Gop/s"),
];

const SINGLES: [(&str, &str); 26] = [
    // Ungated views of the measured phase. The tail has no percentile with
    // ten samples beyond it on the slowest workload at this run length, raw
    // wall-clock moves a quarter with the host's speed state, and the
    // modeled numbers repeat exactly, which the driver's end-to-end checks
    // refuse (a time that reads the same on every run); all stay visible
    // here.
    ("host.ms_per_req_tail", "ms"),
    ("host.wall_ms_per_req_p50", "ms"),
    ("bench.cpu_speed", "ratio"),
    ("gpusim.modeled.req_ms_p50", "ms"),
    ("gpusim.modeled.req_ms_p99", "ms"),
    ("gpusim.modeled.reqs_per_s", "1/s"),
    ("bench.trace_overhead_pct", "%"),
    ("tensor.bitplane_split.ns_per_px", "ns/px"),
    ("tensor.pack_f32.ns_per_px", "ns/px"),
    ("tensor.pack_filters_ms", "ms"),
    ("tensor.dict.build_ms", "ms"),
    ("tensor.dict.ratio", "ratio"),
    ("gpusim.queue.launch_us", "us"),
    ("gpusim.exec.dispatch_us", "us"),
    ("gpusim.exec.par_speedup.yolo_full", "ratio"),
    ("core.serve.sim_us_per_req", "us"),
    ("core.serve.exec_overhead_ms_per_req", "ms"),
    ("core.serve.windows", "count"),
    ("core.serve.mean_batch", "count"),
    ("core.serve.shed", "count"),
    ("core.serve.retries", "count"),
    ("core.fleet.sim_us_per_req", "us"),
    ("core.fleet.exec_overhead_ms_per_req", "ms"),
    ("core.fleet.migrated", "count"),
    ("core.fleet.util_spread", "ratio"),
    ("bench.steal_pct", "%"),
];

/// Ungated metrics, printed by every traced run (0 for a layer the
/// workload does not reach).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (tag, steps) in [("yolo_full", &YOLO_STEPS[..]), ("vgg_body", &VGG_STEPS[..])] {
        out.extend(steps.iter().map(|s| (format!("nn.{tag}.{s}.ms"), "ms")));
        out.extend(
            PER_MODEL_NN
                .iter()
                .map(|(n, u)| (format!("nn.{tag}.{n}"), *u)),
        );
        out.extend(PER_MODEL.iter().map(|(n, u)| (format!("{n}.{tag}"), *u)));
    }
    out.extend(SINGLES.iter().map(|(n, u)| (n.to_string(), *u)));
    out
}
