//! The benchmark's clock and span recorder.
//!
//! **Reference milliseconds.** The sandbox's vCPU switches, for tens of
//! seconds at a time, between a fast state and one about 27 % slower
//! (measured: identical VGG windows alternate between ≈590 ms and ≈740 ms;
//! steal time stays 0), and now and then into a worse one. A 20 s run sits
//! wholly inside one state, so wall-clock medians of identical code differ
//! by a quarter between runs. A small fixed calibration loop slows down with
//! the workloads, so every timed region is bracketed by the loop and its
//! time is multiplied by `nominal loop time / measured loop time`. Times
//! reported by the benchmark are therefore milliseconds *at the reference
//! speed*; raw wall-clock stays visible as an ungated metric. `README.md`
//! has the measurements behind this.
//!
//! **Spans** are kept in memory, in raw wall-clock, and written at exit as
//! Chrome trace-event JSON (`chrome://tracing`, Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

use crate::env::cpu_time_s;

/// Edge of the calibration image.
const REF_EDGE: usize = 30;
const REF_FILTERS: usize = 8;
/// What one calibration loop takes at the reference speed — the fast state
/// of the host this benchmark was calibrated on, so reference ms read close
/// to wall ms there.
const REF_NOMINAL_MS: f64 = 1.4;

/// The benchmark's own fixed copy of the engine's hottest code shape — the
/// bit-plane window loop: per pixel, filter, plane and tap a bounds check,
/// two small loads, an `and` and two popcounts. A pure ALU loop followed the
/// host's clock-rate states but only a third of its worst interference
/// (which hits loads and branches harder); this one followed both.
fn calibration_loop(planes: &[Vec<u64>], filters: &[u64]) -> i64 {
    let n = REF_EDGE as isize;
    let mut acc = 0;
    for oy in 0..n {
        for ox in 0..n {
            for taps in filters.chunks_exact(9) {
                for (bit, plane) in planes.iter().enumerate() {
                    let (mut pos, mut total) = (0, 0);
                    for (tap, &w) in taps.iter().enumerate() {
                        let (iy, ix) = (oy + tap as isize / 3 - 1, ox + tap as isize % 3 - 1);
                        if iy < 0 || iy >= n || ix < 0 || ix >= n {
                            continue;
                        }
                        let x = plane[(iy * n + ix) as usize];
                        pos += (x & w).count_ones();
                        total += x.count_ones();
                    }
                    acc += (2 * i64::from(pos) - i64::from(total)) << bit;
                }
            }
        }
    }
    acc
}

/// One timed region.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Raw wall seconds.
    pub wall_s: f64,
    /// Raw process CPU seconds.
    pub cpu_s: f64,
    /// CPU speed around the region relative to the reference (1 = nominal);
    /// `wall_s * speed` is the region's time at the reference speed.
    pub speed: f64,
}

impl Timed {
    pub fn ref_wall_s(&self) -> f64 {
        self.wall_s * self.speed
    }

    pub fn ref_cpu_s(&self) -> f64 {
        self.cpu_s * self.speed
    }
}

#[derive(Debug)]
struct Span {
    name: String,
    start_us: f64,
    dur_us: f64,
    parent: Option<usize>,
    req: Option<usize>,
}

/// Spans are recorded only while `enabled`, so the untraced run and the
/// untraced half of a traced run pay one branch per call site.
pub struct Tracer {
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// The calibration loop's fixed operands: 8 bit-planes and 8 filters.
    planes: Vec<Vec<u64>>,
    filters: Vec<u64>,
    /// `(seconds since epoch, speed)` of every calibration sample.
    speeds: Vec<(f64, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            planes: (0..8)
                .map(|p| {
                    let pixel = |i: usize| (i as u64 * 2_654_435_761 + p) >> 3 & 7;
                    (0..REF_EDGE * REF_EDGE).map(pixel).collect()
                })
                .collect(),
            filters: (0..REF_FILTERS * 9)
                .map(|i| (i as u64 * 40_503) & 7)
                .collect(),
            speeds: Vec::new(),
        }
    }

    /// Samples how fast the pinned CPU runs right now: nominal ÷ measured
    /// calibration-loop time, best of three so a timer tick cannot pose as
    /// a slow CPU.
    pub fn speed(&mut self) -> f64 {
        let best_ms = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(calibration_loop(&self.planes, &self.filters));
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        let speed = REF_NOMINAL_MS / best_ms;
        self.speeds
            .push((self.epoch.elapsed().as_secs_f64(), speed));
        speed
    }

    /// Every speed sample taken so far.
    pub fn speeds(&self) -> impl Iterator<Item = f64> + '_ {
        self.speeds.iter().map(|&(_, s)| s)
    }

    /// Runs `f` under the wall and CPU clocks, bracketed by speed samples.
    /// A region timed inside `f` adds its own samples to this one's mean
    /// (and its calibration loops, ≈5 ms a sample, to this one's time): a cold
    /// start is long enough to cross a speed change, and its first request
    /// samples the middle.
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, Timed) {
        let first = self.speeds.len();
        self.speed();
        let (cpu0, t0) = (cpu_time_s(), Instant::now());
        let out = f(self);
        let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu_time_s() - cpu0);
        self.speed();
        let seen = &self.speeds[first..];
        let speed = seen.iter().map(|&(_, s)| s).sum::<f64>() / seen.len() as f64;
        (
            out,
            Timed {
                wall_s,
                cpu_s,
                speed,
            },
        )
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through the
    /// tracer it is handed become children. `req` ties the spans of one
    /// request together (children inherit it).
    pub fn span<T>(&mut self, name: &str, req: Option<usize>, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            dur_us: 0.0,
            parent,
            req: req.or_else(|| parent.and_then(|p| self.spans[p].req)),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].dur_us = self.epoch.elapsed().as_secs_f64() * 1e6 - self.spans[id].start_us;
        out
    }

    /// Speed sample taken nearest to `t_s` seconds after the epoch.
    fn speed_near(&self, t_s: f64) -> f64 {
        self.speeds
            .iter()
            .min_by(|a, b| (a.0 - t_s).abs().total_cmp(&(b.0 - t_s).abs()))
            .map_or(1.0, |&(_, s)| s)
    }

    /// Durations of every finished span with this name, reference ms, in
    /// record order (each scaled by the speed sample nearest its midpoint).
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us / 1e3 * self.speed_near((s.start_us + s.dur_us / 2.0) / 1e6))
            .collect()
    }

    /// The recorded spans as one Chrome trace-event document.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i}",
                s.name, s.start_us, s.dur_us
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(r) = s.req {
                let _ = write!(out, ",\"req\":{r}");
            }
            out.push_str(if i + 1 == self.spans.len() {
                "}}\n"
            } else {
                "}},\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}
