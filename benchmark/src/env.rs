//! The process's view of the machine: CPU pinning, the CPU-time clock and
//! the `/proc` readings that go into every output's environment record.
//! Linux only — the benchmark is defined for the sandbox it gates.

use std::fmt::Write as _;
use std::process::Command;

/// `cpu_set_t` is 1024 bits.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_getcpu() -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// The affinity this process started with and the one CPU it narrowed to.
#[derive(Debug, Clone)]
pub struct Pin {
    original: CpuSet,
    /// CPUs the process was allowed on before pinning.
    pub nproc: usize,
    /// The CPU every measurement runs on.
    pub cpu: usize,
}

impl Pin {
    /// Pins the process to the CPU it is running on, before the first engine
    /// call, so `gpusim::exec::host_threads()` reads 1 and kernel bodies run
    /// on this thread: two host threads on a 2-vCPU guest made identical
    /// code move 30 % between invocations.
    ///
    /// # Panics
    ///
    /// Panics when the kernel refuses the affinity calls; an unpinned run
    /// would silently measure something else.
    pub fn to_current_cpu() -> Self {
        let mut original: CpuSet = [0; 16];
        // SAFETY: `original` is a valid, writable cpu_set_t of the size passed.
        let rc = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut original) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        let allowed = |cpu: usize| original[cpu / 64] >> (cpu % 64) & 1 == 1;
        let nproc = (0..1024).filter(|&c| allowed(c)).count();
        // SAFETY: no arguments; returns the current CPU or -1.
        let here = unsafe { sched_getcpu() };
        let cpu = usize::try_from(here)
            .ok()
            .filter(|&c| c < 1024 && allowed(c))
            .or_else(|| (0..1024).find(|&c| allowed(c)))
            .expect("affinity mask allows no CPU");
        let pin = Self {
            original,
            nproc,
            cpu,
        };
        pin.narrow();
        pin
    }

    /// Restricts the process to the pinned CPU again.
    pub fn narrow(&self) {
        let mut one: CpuSet = [0; 16];
        one[self.cpu / 64] = 1 << (self.cpu % 64);
        set_affinity(&one);
    }

    /// Restores the starting affinity — only for the one informational
    /// metric that shows host multi-threading.
    pub fn widen(&self) {
        set_affinity(&self.original);
    }
}

fn set_affinity(mask: &CpuSet) {
    // SAFETY: `mask` is a valid cpu_set_t of the size passed.
    let rc = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// User + system CPU seconds this process has consumed.
pub fn cpu_time_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(f64::NAN)
}

/// `(all ticks, steal ticks)` of one CPU from `/proc/stat`.
fn cpu_ticks(cpu: usize) -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let tag = format!("cpu{cpu}");
    let fields: Vec<f64> = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(&tag))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal (guest time is already
    // inside user).
    let total = fields.iter().take(8).sum();
    (total, fields.get(7).copied().unwrap_or(0.0))
}

/// A steal share above this flags the run (it is kept, not discarded).
pub const STEAL_FLAG_SHARE: f64 = 0.02;

/// Host interference across one measured phase.
pub struct PhaseWatch {
    cpu: usize,
    ticks: (f64, f64),
    load_start: f64,
}

impl PhaseWatch {
    pub fn start(cpu: usize) -> Self {
        Self {
            cpu,
            ticks: cpu_ticks(cpu),
            load_start: loadavg_1m(),
        }
    }

    /// `(steal share of the pinned CPU, load average at start, at end)`.
    pub fn finish(self) -> (f64, f64, f64) {
        let (total, steal) = cpu_ticks(self.cpu);
        let dt = total - self.ticks.0;
        let share = if dt > 0.0 {
            (steal - self.ticks.1) / dt
        } else {
            0.0
        };
        (share, self.load_start, loadavg_1m())
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The environment record printed with every result.
pub fn record(pin: &Pin, steal_share: f64, load_start: f64, load_end: f64) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "env: nproc={} pinned_cpu={} loadavg={:.2}->{:.2} steal={:.2}%{} rustc=\"{}\" commit={}",
        pin.nproc,
        pin.cpu,
        load_start,
        load_end,
        steal_share * 100.0,
        if steal_share > STEAL_FLAG_SHARE {
            " [FLAGGED: host stole CPU during the measured phase]"
        } else {
            ""
        },
        tool_line("rustc", &["--version"]),
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    s
}
