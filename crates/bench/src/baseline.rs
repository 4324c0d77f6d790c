//! Shared plumbing for the committed `BENCH_*.json` trend files: the one
//! row writer, the `--out` / `--check-baseline` handling and the baseline
//! check every report bin ends in ([`finish`]). One implementation, so a
//! writing, parsing or diffing fix cannot silently reach only one bin.
//!
//! A bin builds a [`Report`] — its rows as ordered `(key, `[`Value`]`)`
//! lists — and says how its baseline is checked ([`Check`]): the eight
//! closed-form bins must reproduce the committed file **byte for byte**
//! (every number is a cost-model output, so a byte that moves is a model
//! change to commit on purpose), while `bconv_report` times real kernels
//! and keeps a tolerant per-row diff.
//!
//! The workspace is offline (no JSON crate); the parser scans each line
//! of the file this crate's bins themselves wrote — one result object per
//! line, `"key": value` fields — and is not a general JSON reader.

/// Escapes a string for embedding in the hand-written JSON reports.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One value of a report row.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted, escaped string.
    Str(String),
    /// A count.
    Int(usize),
    /// `true` / `false`.
    Bool(bool),
    /// A number written with this many decimals.
    Fixed(f64, usize),
    /// Nested rows, written inline: `[{..}, {..}]`.
    List(Vec<Fields>),
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// One row (or the extra header fields): `(key, value)` in written order.
pub type Fields = Vec<(&'static str, Value)>;

/// Writes `fields` as `"key": value` pairs joined by `sep`.
fn write_fields(out: &mut String, fields: &Fields, sep: &str) {
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(&format!("\"{key}\": "));
        match value {
            Value::Str(s) => out.push_str(&format!("\"{}\"", json_escape(s))),
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Bool(b) => out.push_str(&b.to_string()),
            Value::Fixed(v, decimals) => out.push_str(&format!("{v:.decimals$}")),
            Value::List(rows) => {
                out.push('[');
                for (j, row) in rows.iter().enumerate() {
                    out.push_str(if j > 0 { ", {" } else { "{" });
                    write_fields(out, row, ", ");
                    out.push('}');
                }
                out.push(']');
            }
        }
    }
}

/// How a bin's run is compared with its committed baseline.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Closed-form: the committed file must equal this run byte for byte.
    Exact,
    /// Wall-clock: the row sets must match, and every row passing `guarded`
    /// may move against `better` by at most [`WALL_CLOCK_TOLERANCE`]×.
    Tolerant {
        /// The guarded metric's field name.
        metric: &'static str,
        /// Which direction of the metric is an improvement.
        better: Better,
        /// The metric's unit, for failure messages.
        unit: &'static str,
        /// Rows exempt from the regression check (never from coverage)
        /// return `false`.
        guarded: fn(&Row) -> bool,
    },
}

/// Slack of a [`Check::Tolerant`] diff, sized for noisy shared runners.
pub const WALL_CLOCK_TOLERANCE: f64 = 5.0;

/// One `BENCH_<bench>.json`: header, then one row per line.
#[derive(Debug, Clone)]
pub struct Report {
    /// The file's `"bench"` tag; the default output is `BENCH_<bench>.json`.
    pub bench: &'static str,
    /// The file's `"unit"` tag.
    pub unit: &'static str,
    /// Extra header fields, written between `unit` and `results`.
    pub header: Fields,
    /// The fields that identify a row, for failure messages and the
    /// tolerant diff's coverage check.
    pub key_fields: &'static [&'static str],
    /// How the baseline is checked.
    pub check: Check,
    /// The rows, in written order.
    pub rows: Vec<Fields>,
}

impl Report {
    /// A closed-form bin's report: no extra header, [`Check::Exact`].
    pub fn exact(
        bench: &'static str,
        unit: &'static str,
        key_fields: &'static [&'static str],
        rows: Vec<Fields>,
    ) -> Self {
        Self {
            bench,
            unit,
            header: Vec::new(),
            key_fields,
            check: Check::Exact,
            rows,
        }
    }

    /// The file's text.
    fn render(&self) -> String {
        let mut header: Fields = vec![("bench", self.bench.into()), ("unit", self.unit.into())];
        header.extend(self.header.iter().cloned());
        let mut out = String::from("{\n  ");
        write_fields(&mut out, &header, ",\n  ");
        out.push_str(",\n  \"results\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {");
            write_fields(&mut out, row, ", ");
            out.push_str(if i + 1 == self.rows.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Compares this run (`rendered`) with the committed `baseline` text
    /// per [`Report::check`]. Returns human-readable failures (empty =
    /// pass).
    fn diff(&self, rendered: &str, baseline: &str) -> Vec<String> {
        let artifact = format!("BENCH_{}.json", self.bench);
        match self.check {
            Check::Exact => {
                let id = |line: &str| {
                    let key: Option<Vec<String>> =
                        self.key_fields.iter().map(|k| field(line, k)).collect();
                    key.map_or("header".to_string(), |k| format!("row {}", k.join("/")))
                };
                let mut lines = rendered.lines().zip(baseline.lines()).enumerate();
                if let Some((n, (now, was))) = lines.find(|(_, (now, was))| now != was) {
                    return vec![format!(
                        "{} (line {}) differs — regenerate and commit {artifact} if the model \
                         was meant to change\n  baseline: {was}\n  this run: {now}",
                        id(now),
                        n + 1
                    )];
                }
                let (now, was) = (rendered.lines().count(), baseline.lines().count());
                if now != was {
                    return vec![format!(
                        "this run wrote {now} lines, {artifact} holds {was}"
                    )];
                }
                Vec::new()
            }
            Check::Tolerant {
                metric,
                better,
                unit,
                guarded,
            } => {
                let rows = parse_rows(baseline, self.key_fields, metric);
                if rows.is_empty() {
                    return vec![format!("{artifact} holds no parsable rows")];
                }
                let current = parse_rows(rendered, self.key_fields, metric);
                let tolerance = WALL_CLOCK_TOLERANCE;
                diff_rows(&rows, &current, tolerance, better, &artifact, unit, guarded)
            }
        }
    }
}

/// The value following `flag` on this process's command line.
pub fn flag_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == flag)?;
    args.get(at + 1).cloned()
}

/// How every report bin ends: writes the report (`--out <path>`, default
/// `BENCH_<bench>.json` in the working directory), fails on any gate
/// failure, then checks the run against `--check-baseline <path>` when
/// given. Exits nonzero on an unwritable output, a failed gate or a
/// baseline mismatch.
pub fn finish(report: &Report, gate_failures: &[String]) {
    let fail = |lines: &[String], what: &str| -> ! {
        for line in lines {
            eprintln!("{} {what}: {line}", report.bench);
        }
        std::process::exit(1)
    };
    let out_path = flag_value("--out").unwrap_or(format!("BENCH_{}.json", report.bench));
    let rendered = report.render();
    if let Err(e) = std::fs::write(&out_path, &rendered) {
        fail(&[format!("cannot write {out_path}: {e}")], "error");
    }
    println!("\nwrote {out_path}");
    if !gate_failures.is_empty() {
        fail(gate_failures, "gate");
    }
    println!("{} gates passed", report.bench);
    if let Some(path) = flag_value("--check-baseline") {
        let failures = match std::fs::read_to_string(&path) {
            Ok(baseline) => report.diff(&rendered, &baseline),
            Err(e) => vec![format!("cannot read baseline {path}: {e}")],
        };
        if !failures.is_empty() {
            fail(&failures, "baseline diff");
        }
        println!("baseline {path}: ok ({} rows)", report.rows.len());
    }
}

/// One trend row: its identity (the values of the key fields, in the
/// order the check names them) and the metric under guard.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Key-field values identifying the row (e.g. `[model, phone, batch]`).
    pub key: Vec<String>,
    /// The guarded metric (ns/pixel, imgs/sec, ...).
    pub value: f64,
}

impl Row {
    /// `a/b/c` identity string for failure messages.
    fn id(&self) -> String {
        self.key.join("/")
    }
}

/// Extracts every line carrying all of `key_fields` plus a parsable
/// `metric` number from a `BENCH_*.json` body.
fn parse_rows(text: &str, key_fields: &[&str], metric: &str) -> Vec<Row> {
    let mut out = Vec::new();
    for line in text.lines() {
        let key: Option<Vec<String>> = key_fields.iter().map(|k| field(line, k)).collect();
        let value = field(line, metric).and_then(|v| v.parse().ok());
        if let (Some(key), Some(value)) = (key, value) {
            out.push(Row { key, value });
        }
    }
    out
}

/// The text of `line`'s first `"key": value` field, unquoted.
fn field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let rest = rest.strip_prefix('"').unwrap_or(rest);
    let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
    Some(rest[..end].to_string())
}

/// Which direction of the metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput in imgs/sec).
    Higher,
    /// Smaller is better (latency in ns/pixel).
    Lower,
}

/// Diffs a run against the committed baseline: the row sets must match
/// exactly in both directions, and every row passing `regression_checked`
/// may move against its [`Better`] direction by at most `max_regression`×.
/// Returns human-readable failures (empty = pass).
fn diff_rows(
    baseline: &[Row],
    current: &[Row],
    max_regression: f64,
    better: Better,
    artifact: &str,
    unit: &str,
    regression_checked: impl Fn(&Row) -> bool,
) -> Vec<String> {
    let mut failures = Vec::new();
    for row in current {
        let Some(base) = baseline.iter().find(|b| b.key == row.key) else {
            failures.push(format!(
                "row {} missing from baseline — regenerate and commit {artifact}",
                row.id()
            ));
            continue;
        };
        let regressed = match better {
            Better::Higher => row.value * max_regression < base.value,
            Better::Lower => row.value > base.value * max_regression,
        };
        if regression_checked(row) && regressed {
            failures.push(format!(
                "{}: {:.1} {unit} regressed beyond {max_regression:.2}x of baseline {:.1} {unit}",
                row.id(),
                row.value,
                base.value
            ));
        }
    }
    for base in baseline {
        if !current.iter().any(|r| r.key == base.key) {
            failures.push(format!(
                "baseline row {} no longer measured — coverage shrank",
                base.id()
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_of(key: &[&str], value: f64) -> Row {
        Row {
            key: key.iter().map(|s| s.to_string()).collect(),
            value,
        }
    }

    #[test]
    fn escape_handles_quotes_and_backslashes() {
        assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(json_escape("plain"), "plain");
    }

    fn report(check: Check, rows: Vec<Fields>) -> Report {
        Report {
            bench: "demo",
            unit: "imgs_per_s",
            header: vec![("isa", "avx2".into())],
            key_fields: &["pair", "load"],
            check,
            rows,
        }
    }

    fn demo_row(pair: &str, p95_ms: f64) -> Fields {
        let tenant = |name: &str, met: bool| -> Fields {
            vec![
                ("tenant", name.into()),
                ("batch", 16usize.into()),
                ("p95_ms", Value::Fixed(p95_ms, 3)),
                ("slo_met", met.into()),
            ]
        };
        vec![
            ("pair", pair.into()),
            ("load", Value::Fixed(0.25, 2)),
            ("ns", Value::Fixed(1242623.6, 0)),
            ("imgs_per_s", Value::Fixed(37.84, 1)),
            ("ratio", Value::Fixed(0.98039, 4)),
            (
                "tenants",
                Value::List(vec![tenant("a\"b", true), tenant("c", false)]),
            ),
        ]
    }

    #[test]
    fn render_writes_one_row_per_line_with_nested_lists_and_fixed_decimals() {
        let text = report(
            Check::Exact,
            vec![demo_row("x+y", 578.6234), demo_row("z", 1.0)],
        )
        .render();
        let tenants = |p95: &str| {
            format!(
                "[{{\"tenant\": \"a\\\"b\", \"batch\": 16, \"p95_ms\": {p95}, \"slo_met\": true}}, \
                 {{\"tenant\": \"c\", \"batch\": 16, \"p95_ms\": {p95}, \"slo_met\": false}}]"
            )
        };
        let row = |pair: &str, p95: &str| {
            format!(
                "    {{\"pair\": \"{pair}\", \"load\": 0.25, \"ns\": 1242624, \
                 \"imgs_per_s\": 37.8, \"ratio\": 0.9804, \"tenants\": {}}}",
                tenants(p95)
            )
        };
        let want = format!(
            "{{\n  \"bench\": \"demo\",\n  \"unit\": \"imgs_per_s\",\n  \"isa\": \"avx2\",\n  \
             \"results\": [\n{},\n{}\n  ]\n}}\n",
            row("x+y", "578.623"),
            row("z", "1.000")
        );
        assert_eq!(text, want);
        // What it wrote, it can read back.
        let rows = parse_rows(&text, &["pair", "load"], "imgs_per_s");
        assert_eq!(
            rows,
            [row_of(&["x+y", "0.25"], 37.8), row_of(&["z", "0.25"], 37.8)]
        );
    }

    #[test]
    fn exact_check_names_the_first_differing_row() {
        let committed = report(Check::Exact, vec![demo_row("x+y", 1.0), demo_row("z", 1.0)]);
        let baseline = committed.render();
        assert!(committed.diff(&baseline, &baseline).is_empty());
        // One digit of one nested field moves: the row is named, with both
        // versions of its line.
        let moved = report(
            Check::Exact,
            vec![demo_row("x+y", 1.0), demo_row("z", 1.001)],
        );
        let fails = moved.diff(&moved.render(), &baseline);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(
            fails[0].starts_with("row z/0.25 (line 7) differs"),
            "{fails:?}"
        );
        assert!(fails[0].contains("1.000") && fails[0].contains("1.001"));
        // A header byte is not a row; a dropped row is a length mismatch.
        let other_isa = baseline.replace("avx2", "avx512");
        assert!(committed.diff(&baseline, &other_isa)[0].starts_with("header (line 4)"));
        let shorter = report(Check::Exact, vec![demo_row("x+y", 1.0)]);
        assert!(!shorter.diff(&shorter.render(), &baseline).is_empty());
    }

    #[test]
    fn tolerant_check_allows_wobble_but_not_lost_coverage() {
        let check = Check::Tolerant {
            metric: "imgs_per_s",
            better: Better::Higher,
            unit: "imgs/s",
            guarded: |_| true,
        };
        let baseline = report(check, vec![demo_row("x+y", 1.0), demo_row("z", 1.0)]).render();
        let mut slower = demo_row("x+y", 1.0);
        slower[3].1 = Value::Fixed(37.84 / 4.0, 1);
        let wobble = report(check, vec![slower.clone(), demo_row("z", 1.0)]);
        assert!(wobble.diff(&wobble.render(), &baseline).is_empty());
        let shrunk = report(check, vec![slower]);
        let fails = shrunk.diff(&shrunk.render(), &baseline);
        assert!(
            fails.iter().any(|f| f.contains("no longer measured")),
            "{fails:?}"
        );
        assert!(
            !wobble.diff(&wobble.render(), "{}").is_empty(),
            "empty baseline"
        );
    }

    #[test]
    fn parse_rows_extracts_keys_and_metric() {
        let text = "{\n  \"results\": [\n    \
             {\"model\": \"AlexNet\", \"phone\": \"x9\", \"batch\": 4, \"imgs_per_s\": 139.2},\n    \
             {\"model\": \"VGG16\", \"phone\": \"x5\", \"batch\": 1, \"imgs_per_s\": 7.1}\n  ]\n}\n";
        let rows = parse_rows(text, &["model", "phone", "batch"], "imgs_per_s");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], row_of(&["AlexNet", "x9", "4"], 139.2));
        assert_eq!(rows[1].id(), "VGG16/x5/1");
        // Lines missing a key field or the metric are skipped.
        assert!(parse_rows("{\"model\": \"x\"}", &["model"], "imgs_per_s").is_empty());
    }

    #[test]
    fn diff_flags_regressions_in_the_right_direction() {
        let base = [row_of(&["a"], 100.0)];
        // Higher-is-better: a drop beyond the allowance fails...
        let bad = diff_rows(
            &base,
            &[row_of(&["a"], 70.0)],
            1.25,
            Better::Higher,
            "B.json",
            "imgs/s",
            |_| true,
        );
        assert_eq!(bad.len(), 1, "{bad:?}");
        // ...a small wobble passes, and improvement always passes.
        for ok in [85.0, 200.0] {
            assert!(diff_rows(
                &base,
                &[row_of(&["a"], ok)],
                1.25,
                Better::Higher,
                "B.json",
                "imgs/s",
                |_| true,
            )
            .is_empty());
        }
        // Lower-is-better flips the comparison.
        let bad = diff_rows(
            &base,
            &[row_of(&["a"], 600.0)],
            5.0,
            Better::Lower,
            "B.json",
            "ns/px",
            |_| true,
        );
        assert_eq!(bad.len(), 1);
        // The filter exempts rows from the regression check (not from
        // coverage).
        assert!(diff_rows(
            &base,
            &[row_of(&["a"], 600.0)],
            5.0,
            Better::Lower,
            "B.json",
            "ns/px",
            |_| false,
        )
        .is_empty());
    }

    #[test]
    fn diff_enforces_coverage_both_ways() {
        let base = [row_of(&["a"], 1.0), row_of(&["b"], 1.0)];
        let cur = [row_of(&["a"], 1.0), row_of(&["c"], 1.0)];
        let fails = diff_rows(&base, &cur, 1.25, Better::Higher, "B.json", "u", |_| true);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(fails.iter().any(|f| f.contains("missing from baseline")));
        assert!(fails.iter().any(|f| f.contains("no longer measured")));
    }
}
