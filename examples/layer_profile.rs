//! Per-layer timeline and power trace of the full YOLOv2-Tiny network on
//! both phones — the instrumentation behind Fig 5 and Table IV, at full
//! scale via the estimate path (no weights needed).
//!
//! Run: `cargo run --release --example layer_profile`

use phonebit::core::{convert, estimate_arch, ExecutionPlan, RouteOverrides, Session};
use phonebit::gpusim::calib::EnergyParams;
use phonebit::gpusim::{DeviceKind, Phone};
use phonebit::models::zoo::{self, Variant};
use phonebit::models::{fill_weights, synthetic_image};
use phonebit::profiler::{EnergyReport, PowerTrace};
use phonebit::tensor::shape::Shape4;

fn main() {
    let arch = zoo::yolov2_tiny(Variant::Binary);
    for phone in Phone::all() {
        let report = estimate_arch(&phone, &arch);
        println!("=== {} on {} ({}) ===", arch.name, phone.name, phone.soc);
        println!("{}", report.to_table());

        let er = EnergyReport::from_frame("PhoneBit", report.total_s, report.energy_j);
        println!(
            "steady-state: {:.1} mW, {:.2} mJ/frame, {:.1} FPS/W\n",
            er.power_mw(),
            er.joules_per_frame * 1e3,
            er.fps_per_watt
        );
    }

    // Where does the time go? Aggregate conv vs pool vs glue.
    let phone = Phone::xiaomi_9();
    let report = estimate_arch(&phone, &arch);
    let mut conv = 0.0;
    let mut pool = 0.0;
    let mut other = 0.0;
    for l in &report.per_layer {
        if l.name.starts_with("conv") {
            conv += l.time_s;
        } else if l.name.starts_with("pool") {
            pool += l.time_s;
        } else {
            other += l.time_s;
        }
    }
    let total = report.total_s;
    println!("time breakdown on {}:", phone.soc);
    println!("  convolutions {:.1}%", conv / total * 100.0);
    println!("  pooling      {:.1}%", pool / total * 100.0);
    println!(
        "  other/glue   {:.1}%",
        (other + (total - conv - pool - other)) / total * 100.0
    );

    // What each layer launches: the plan's own dispatch list, next to the
    // time the estimate charged for it.
    let plan = ExecutionPlan::for_arch(&arch, &phone.gpu, 1, &RouteOverrides::default())
        .expect("the zoo lowers");
    println!("dispatches per layer on {}:", phone.soc);
    for (idx, l) in report.per_layer.iter().enumerate() {
        let kernels: Vec<&str> = plan.step_profiles(idx).iter().map(|p| p.name).collect();
        println!(
            "  {:<8} {:>8.3} ms  {}",
            l.name,
            l.time_s * 1e3,
            kernels.join(" + ")
        );
    }

    // A Trepn-style sampled power trace over a real functional run.
    let def = fill_weights(&zoo::yolo_micro(Variant::Binary), 1);
    let mut session = Session::new(convert(&def), &phone).expect("fits");
    let img = synthetic_image(Shape4::new(1, 64, 64, 3), 1);
    session.run_u8(&img).expect("runs");
    let e = EnergyParams::for_kind(DeviceKind::Gpu);
    let trace = PowerTrace::sample(session.timeline(), &e, 50_000.0);
    println!(
        "\nTrepn-style trace (YOLO-micro, {} samples): avg {:.0} mW, peak {:.0} mW",
        trace.samples.len(),
        trace.avg_power_w() * 1e3,
        trace.peak_power_w() * 1e3
    );
    for line in trace.to_csv().lines().take(5) {
        println!("  {line}");
    }
    println!(
        "\nenergy model: static {:.0} mW, DRAM {:.0} pJ/B (see gpusim::calib)",
        e.p_static_w * 1e3,
        e.e_dram_byte_j * 1e12
    );
}
