//! Holds `BENCHMARK.json` and the binary's output together: every workload
//! and metric the file names is printed, by that name and with that unit,
//! and nothing else is.

use std::process::Command;

use phonebit_benchmark::json::Json;

fn declared(doc: &Json, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"))
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Runs one workload in smoke mode and returns its result object.
fn quick_run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_phonebit-benchmark"))
        .args(["--workload", workload, "--seed", "2020", "--seconds", "20"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"])
        .output()
        .expect("the benchmark binary starts");
    assert!(out.status.success(), "{workload}: exit {}", out.status);
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    Json::parse(text.lines().last().expect("a result line"))
        .unwrap_or_else(|e| panic!("{workload}: last line is not JSON ({e})"))
}

fn printed(result: &Json) -> Vec<(String, String)> {
    result
        .get("metrics")
        .expect("metrics")
        .as_obj()
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("a numeric value");
            assert!(value.is_finite(), "{name} = {value}");
            let unit = m.get("unit").and_then(Json::as_str).expect("a unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

// One test, so the pinned child processes never run side by side.
#[test]
fn benchmark_json_matches_the_output() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
        .expect("BENCHMARK.json parses");

    let workloads = declared_names(&doc);
    assert_eq!(workloads.len(), 4);
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    assert!(!end_to_end.is_empty() && end_to_end.len() <= 16);
    assert!(!per_layer.is_empty() && per_layer.len() <= 128);
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    let mut names: Vec<&String> = workloads
        .iter()
        .chain(end_to_end.iter().chain(&per_layer).map(|(n, _)| n))
        .collect();
    assert!(names.iter().all(|n| valid_name(n)));
    names.sort();
    names.dedup();
    assert_eq!(
        names.len(),
        workloads.len() + end_to_end.len() + per_layer.len(),
        "a name is used once"
    );

    for workload in &workloads {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let result = quick_run(workload, trace);
            assert_eq!(&printed(&result), want, "{workload} trace={trace}");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            if !trace {
                let zero = result
                    .get("metrics")
                    .expect("metrics")
                    .as_obj()
                    .iter()
                    .find(|(_, m)| m.get("value").and_then(Json::as_f64) <= Some(0.0));
                assert!(
                    zero.is_none(),
                    "{workload}: end-to-end metric reads 0: {zero:?}"
                );
            }
        }
    }
}

fn declared_names(doc: &Json) -> Vec<String> {
    doc.get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}
