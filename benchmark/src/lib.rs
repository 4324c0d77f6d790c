//! The repo benchmark: four workloads, pinned wall-clock and modeled metrics,
//! every output verified against a naive oracle, and a traced mode that
//! measures layer by layer. `README.md` beside this package explains the
//! choices; `BENCHMARK.json` at the repo root is the contract it prints to.

pub mod env;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod schema;
pub mod stats;
pub mod trace;
pub mod verify;
pub mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

use env::{PhaseWatch, Pin};
use json::Json;
use layers::Metrics;
use stats::{median, middle_half_sums, tail};
use trace::Tracer;
use workloads::{FleetExec, FleetSim, Unit, VggBody, Workload, YoloFull};

const USAGE: &str = "usage: phonebit-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace [0|1]] [--quick] [--repeat <n>] [--write-golden]";

#[derive(Debug, Clone)]
struct Config {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
    write_golden: bool,
}

impl Config {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cfg = Self {
            workload: None,
            seed: verify::GOLDEN_SEED,
            seconds: 20.0,
            trace: false,
            quick: false,
            repeat: 0,
            write_golden: false,
        };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{arg} expects {what}"))
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    if !schema::WORKLOADS.contains(&name.as_str()) {
                        return Err(format!(
                            "unknown workload `{name}` (want one of {:?})",
                            schema::WORKLOADS
                        ));
                    }
                    cfg.workload = Some(name);
                }
                "--seed" => {
                    cfg.seed = value("an integer")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    cfg.seconds = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--repeat" => {
                    cfg.repeat = value("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?
                }
                "--trace" => {
                    // The driver passes 0 or 1; a bare flag means 1.
                    cfg.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    };
                }
                "--quick" => cfg.quick = true,
                "--write-golden" => cfg.write_golden = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(cfg)
    }

    /// Smoke mode divides every count by ten (and rounds up to one).
    fn seconds(&self) -> f64 {
        if self.quick {
            self.seconds / 10.0
        } else {
            self.seconds
        }
    }

    fn cold_starts(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }

    fn reps(&self) -> usize {
        if self.quick {
            1
        } else {
            7
        }
    }
}

/// One workload's run, ready to print.
struct RunResult {
    attempted: usize,
    failed: usize,
    /// Untraced per-request samples, ms, in run order.
    samples_ms: Vec<f64>,
    /// `(name, unit, value)` in schema order: the end-to-end metrics of an
    /// untraced run, the per-layer metrics of a traced one.
    metrics: Vec<(String, &'static str, f64)>,
    /// Ungated views of an untraced run, printed but not part of its result.
    extras: Metrics,
    env: String,
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Set-up (median of the cold starts), the measured phase, and — traced —
/// the per-layer phase `layers` runs on the live objects.
fn measure<W: Workload>(
    cfg: &Config,
    pin: &Pin,
    layers: impl FnOnce(&W::Inputs, &mut W, f64, &mut Tracer) -> (Metrics, usize),
) -> RunResult {
    let inputs = W::prepare(cfg.seed, verify::load_golden(W::NAME, cfg.seed));
    let mut tracer = Tracer::new(cfg.trace);
    let (mut attempted, mut failed) = (0, 0);

    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..cfg.cold_starts() {
        // Fresh objects every time: the previous start is gone first.
        drop(live.take());
        let ((w, first), time) =
            tracer.timed(|t| t.span("cold_start", None, |t| W::cold_start(&inputs, t)));
        setups.push(time.ref_wall_s());
        attempted += first.requests;
        failed += first.failed;
        live = Some(w);
    }
    let mut w = live.expect("at least one cold start");

    // A traced run alternates untraced and traced units, so the difference
    // between the two halves is the tracing overhead.
    let (mut plain, mut traced_ms): (Vec<Unit>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut requests = 0;
    let watch = PhaseWatch::start(pin.cpu);
    let phase = Instant::now();
    let mut i = 0;
    while phase.elapsed().as_secs_f64() < cfg.seconds() || i < 2 {
        tracer.enabled = cfg.trace && i % 2 == 1;
        let unit = w.unit(&inputs, i + 1, &mut tracer);
        if tracer.enabled {
            traced_ms.push(unit.ref_ms_per_req());
        } else {
            plain.push(unit);
        }
        requests += unit.requests;
        failed += unit.failed;
        i += 1;
    }
    attempted += requests;
    tracer.enabled = cfg.trace;
    let (steal, load_start, load_end) = watch.finish();
    let rss_mb = env::peak_rss_mb();
    let samples_ms: Vec<f64> = plain.iter().map(Unit::ref_ms_per_req).collect();
    let wall_ms: Vec<f64> = plain
        .iter()
        .map(|u| u.time.wall_s * 1e3 / u.requests as f64)
        .collect();
    let p50 = median(&samples_ms);
    let modeled = w.modeled();
    let views: Metrics = vec![
        ("host.ms_per_req_tail".into(), tail(&samples_ms)),
        ("host.wall_ms_per_req_p50".into(), median(&wall_ms)),
        (
            "bench.cpu_speed".into(),
            median(&tracer.speeds().collect::<Vec<_>>()),
        ),
        ("bench.steal_pct".into(), steal * 100.0),
        ("gpusim.modeled.req_ms_p50".into(), modeled.req_ms_p50),
        ("gpusim.modeled.req_ms_p99".into(), modeled.req_ms_p99),
        ("gpusim.modeled.reqs_per_s".into(), modeled.reqs_per_s),
    ];

    let (metrics, extras) = if cfg.trace {
        let (mut found, wrong) = layers(&inputs, &mut w, p50, &mut tracer);
        failed += wrong;
        found.extend(views);
        found.push((
            "bench.trace_overhead_pct".into(),
            (median(&traced_ms) / p50 - 1.0) * 100.0,
        ));
        let path = out_dir().join(format!("{}-seed{}.trace.json", W::NAME, cfg.seed));
        match std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.to_chrome_json()))
        {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => println!("trace: cannot write {}: {e}", path.display()),
        }
        let metrics = schema::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = found
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                (name, unit, value)
            })
            .collect();
        (metrics, Metrics::new())
    } else {
        let per_unit = |f: fn(&Unit) -> f64| -> Vec<(f64, f64)> {
            plain.iter().map(|u| (f(u), u.requests as f64)).collect()
        };
        let (wall_s, served) = middle_half_sums(&per_unit(|u| u.time.ref_wall_s()));
        let (cpu_s, ran) = middle_half_sums(&per_unit(|u| u.time.ref_cpu_s()));
        let values = [
            p50,
            served / wall_s,
            cpu_s * 1e3 / ran,
            median(&setups),
            rss_mb,
        ];
        let metrics = schema::END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), *unit, v))
            .collect();
        (metrics, views)
    };
    RunResult {
        attempted,
        failed,
        samples_ms,
        metrics,
        extras,
        env: env::record(pin, steal, load_start, load_end),
    }
}

fn result_line(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.failed == 0,
        r.attempted,
        r.failed
    );
    for (i, (name, unit, value)) in r.metrics.iter().enumerate() {
        // JSON has no NaN; a metric that could not be computed reads 0.
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Runs one workload in this process and prints its result; the last line
/// of output is the result object.
fn run_workload(cfg: &Config, name: &str) {
    // Before the first engine call, so every kernel body runs on one thread.
    let pin = Pin::to_current_cpu();
    println!(
        "workload {name} seed {} seconds {} trace {}{}",
        cfg.seed,
        cfg.seconds(),
        u8::from(cfg.trace),
        if cfg.quick { " (quick)" } else { "" }
    );
    let reps = cfg.reps();
    let r = match name {
        YoloFull::NAME => measure::<YoloFull>(cfg, &pin, |inputs, w, _, t| {
            layers::yolo_full(inputs, w, &pin, reps, t)
        }),
        VggBody::NAME => measure::<VggBody>(cfg, &pin, |inputs, w, _, t| {
            layers::vgg_body(inputs, w, reps, t)
        }),
        FleetExec::NAME => measure::<FleetExec>(cfg, &pin, |inputs, w, p50, t| {
            layers::fleet_exec(inputs, w, p50, reps, t)
        }),
        FleetSim::NAME => measure::<FleetSim>(cfg, &pin, |inputs, w, p50, t| {
            layers::fleet_sim(inputs, w, p50, reps, t)
        }),
        other => unreachable!("`{other}` passed argument validation"),
    };
    for (metric, unit, value) in &r.metrics {
        println!("  {metric:<44} {value:>16.6} {unit}");
    }
    for (metric, value) in &r.extras {
        println!("  {metric:<44} {value:>16.6} (ungated)");
    }
    let shown: Vec<String> = r
        .samples_ms
        .iter()
        .take(400)
        .map(|s| format!("{s:.4}"))
        .collect();
    println!("  samples_ms (first {}): {}", shown.len(), shown.join(" "));
    println!(
        "  samples {} attempted {} failed {} failed_share {}",
        r.samples_ms.len(),
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted as f64
    );
    println!("{}", r.env);
    println!("{}", result_line(&r));
}

/// Runs one workload in a fresh child process (its own peak RSS and set-up)
/// and returns the parsed result line.
fn spawn_workload(cfg: &Config, name: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cfg.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "{name}: child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Json::parse(text.lines().last().unwrap_or_default())
}

fn metric_values(result: &Json) -> Vec<(String, f64)> {
    result
        .get("metrics")
        .map(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect()
}

fn verdict(clean: bool) -> &'static str {
    if clean {
        "every output verified"
    } else {
        "SOME OUTPUTS FAILED VERIFICATION (see the `failed` counts above)"
    }
}

/// The whole suite once: every workload untraced, and traced as well when
/// asked.
fn run_suite(cfg: &Config) -> Result<(), String> {
    let mut clean = true;
    for name in schema::WORKLOADS {
        for trace in [false, true] {
            if trace && !cfg.trace {
                continue;
            }
            let result = spawn_workload(cfg, name, trace)?;
            clean &= result.get("correct") == Some(&Json::Bool(true));
        }
    }
    println!("\nsuite: {}", verdict(clean));
    Ok(())
}

/// `(name, better, bound)` of every gated metric, from `BENCHMARK.json`.
fn gates() -> Result<Vec<(String, String, f64)>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    doc.get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// Calibration: the suite `n` times, runs split alternately into sets A and
/// B; per workload and gated metric the two medians, how much worse B reads
/// than A, and the bound that gap must stay inside.
fn run_repeat(cfg: &Config, n: usize) -> Result<(), String> {
    let gates = gates()?;
    let mut runs: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
    let mut clean = true;
    for _ in 0..n {
        let mut suite = Vec::new();
        for name in schema::WORKLOADS {
            let result = spawn_workload(cfg, name, false)?;
            clean &= result.get("correct") == Some(&Json::Bool(true));
            suite.push(metric_values(&result));
        }
        runs.push(suite);
    }
    println!(
        "\ncalibration over {n} runs (A = runs 1,3,5.., B = runs 2,4,6..): {}",
        verdict(clean)
    );
    println!(
        "| {:<17} | {:<20} | {:>12} | {:>12} | {:>8} | {:>5} |",
        "workload", "metric", "median A", "median B", "B worse", "bound"
    );
    println!(
        "|{:-<19}|{:-<22}|{:->14}|{:->14}|{:->10}|{:->7}|",
        "", "", "", "", "", ""
    );
    for (w, name) in schema::WORKLOADS.iter().enumerate() {
        for (metric, better, bound) in &gates {
            let set = |parity: usize| {
                let values: Vec<f64> = runs
                    .iter()
                    .skip(parity)
                    .step_by(2)
                    .filter_map(|suite| suite[w].iter().find(|(k, _)| k == metric).map(|(_, v)| *v))
                    .collect();
                median(&values)
            };
            let (a, b) = (set(0), set(1));
            let worse = if better == "lower" {
                b / a - 1.0
            } else {
                a / b - 1.0
            };
            println!(
                "| {name:<17} | {metric:<20} | {a:>12.4} | {b:>12.4} | {:>7.2}% | {:>4.0}% |",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(())
}

fn write_golden() -> std::io::Result<()> {
    let seed = verify::GOLDEN_SEED;
    let yolo = YoloFull::prepare(seed, None);
    let vgg = VggBody::prepare(seed, None);
    let fleet = FleetExec::prepare(seed, None);
    verify::write_golden(&[
        (YoloFull::NAME, YoloFull::expected(&yolo).to_vec()),
        (VggBody::NAME, VggBody::expected(&vgg).to_vec()),
        (FleetExec::NAME, FleetExec::expected(&fleet).to_vec()),
    ])
}

/// The command line. Returns the process exit code.
pub fn run(args: &[String]) -> i32 {
    let cfg = match Config::parse(args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("usage error: {e}\n{USAGE}");
            return 2;
        }
    };
    let outcome = if cfg.write_golden {
        write_golden().map_err(|e| e.to_string())
    } else if let Some(name) = &cfg.workload {
        run_workload(&cfg, name);
        Ok(())
    } else if cfg.repeat > 0 {
        run_repeat(&cfg, cfg.repeat)
    } else {
        run_suite(&cfg)
    };
    match outcome {
        // A wrong output is reported in the result line, not by the exit
        // code: the run itself completed.
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            1
        }
    }
}
