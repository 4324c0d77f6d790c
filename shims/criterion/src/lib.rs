//! Offline stand-in for the `criterion` benchmark harness.
//!
//! The build environment has no network access, so this workspace ships a
//! std-only harness exposing the criterion API surface the benches use:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`] /
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`], [`black_box`],
//! [`BenchmarkId`] and the `criterion_group!`/`criterion_main!` macros.
//!
//! Timing strategy: warm up, then time batches sized so each sample spans at
//! least ~200 µs, and report the **median ns/iter** over the sample set —
//! resilient to scheduler noise, comparable across runs. Passing `--test`
//! (as `cargo bench -- --test` does under criterion) runs each benchmark
//! body once for a smoke check without timing loops.
//!
//! Every completed measurement is also appended to an in-process record so
//! harness binaries can export machine-readable results (see
//! [`Criterion::take_records`]).

#![forbid(unsafe_code)]

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// One completed measurement.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// `group/function` identifier.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
}

/// Benchmark identifier, mirroring `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// A function name plus a parameter rendered as `name/param`.
    pub fn new(name: impl Into<String>, param: impl std::fmt::Display) -> Self {
        Self {
            label: format!("{}/{}", name.into(), param),
        }
    }

    /// Just a parameter.
    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        Self {
            label: param.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self { label: s }
    }
}

/// The per-iteration timer handed to benchmark closures.
pub struct Bencher {
    test_mode: bool,
    result_ns: f64,
    samples: usize,
}

impl Bencher {
    /// Times `f`, storing the median ns/iteration.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        if self.test_mode {
            black_box(f());
            self.result_ns = 0.0;
            self.samples = 1;
            return;
        }
        // Warm-up and batch sizing: grow the batch until it runs >= 200us.
        let mut batch = 1usize;
        loop {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t0.elapsed();
            if dt >= Duration::from_micros(200) || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..batch {
                    black_box(f());
                }
                t0.elapsed().as_nanos() as f64 / batch as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
        self.result_ns = per_iter[per_iter.len() / 2];
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher {
            test_mode: self.criterion.test_mode,
            result_ns: 0.0,
            samples: self.sample_size,
        };
        f(&mut b);
        self.criterion
            .report(&self.name, &id.label, b.result_ns, b.samples);
        self
    }

    /// Runs one benchmark with an input parameter (parameter is already part
    /// of the id; the closure receives it by reference).
    pub fn bench_with_input<I>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (printing is immediate, so this is a no-op marker).
    pub fn finish(self) {}
}

/// Top-level harness state, mirroring `criterion::Criterion`.
pub struct Criterion {
    test_mode: bool,
    records: Vec<BenchRecord>,
}

impl Default for Criterion {
    fn default() -> Self {
        let test_mode = std::env::args().any(|a| a == "--test");
        Self {
            test_mode,
            records: Vec::new(),
        }
    }
}

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Runs a standalone benchmark outside a group.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) -> &mut Self {
        let mut b = Bencher {
            test_mode: self.test_mode,
            result_ns: 0.0,
            samples: 10,
        };
        f(&mut b);
        let label = name.to_string();
        self.report("", &label, b.result_ns, b.samples);
        self
    }

    fn report(&mut self, group: &str, label: &str, ns: f64, samples: usize) {
        let id = if group.is_empty() {
            label.to_string()
        } else {
            format!("{group}/{label}")
        };
        if self.test_mode {
            println!("{id}: ok (test mode)");
        } else {
            println!(
                "{id:<48} time: [{} median, {samples} samples]",
                human_ns(ns)
            );
        }
        self.records.push(BenchRecord {
            id,
            median_ns: ns,
            samples,
        });
    }

    /// Drains the measurements recorded so far (for JSON exporters).
    pub fn take_records(&mut self) -> Vec<BenchRecord> {
        std::mem::take(&mut self.records)
    }

    /// Final-summary hook for criterion compatibility (no-op).
    pub fn final_summary(&mut self) {}
}

fn human_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the benchmark `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut c = Criterion {
            test_mode: false,
            records: Vec::new(),
        };
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        group.bench_function("spin", |b| {
            b.iter(|| (0..1000u64).map(black_box).sum::<u64>())
        });
        group.finish();
        let records = c.take_records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].id, "g/spin");
        assert!(records[0].median_ns > 0.0);
    }

    #[test]
    fn test_mode_skips_timing() {
        let mut c = Criterion {
            test_mode: true,
            records: Vec::new(),
        };
        c.bench_function("quick", |b| b.iter(|| 1 + 1));
        let records = c.take_records();
        assert_eq!(records[0].median_ns, 0.0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 128).label, "f/128");
        assert_eq!(BenchmarkId::from_parameter("x").label, "x");
    }

    #[test]
    fn human_ns_scales() {
        assert!(human_ns(1.5).contains("ns"));
        assert!(human_ns(1500.0).contains("µs"));
        assert!(human_ns(1.5e6).contains("ms"));
        assert!(human_ns(2.5e9).contains("s"));
    }
}
