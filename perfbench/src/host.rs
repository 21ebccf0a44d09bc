//! The host a run measured on and how much of it the run got.
//!
//! Every result records `nproc`, the kernel and the CPU model, plus the
//! share of CPU time the hypervisor stole and the CPU the process used
//! over the timed phase, so a noisy run can be recognised and excluded for
//! a stated reason.

use std::time::Instant;

/// What the run measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// CPU model name.
    pub cpu_model: String,
}

impl Host {
    /// Reads the host description.
    pub fn read() -> Self {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc,
            kernel,
            cpu_model,
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
/// Indices of `ru_nvcsw` and `ru_nivcsw` among the longs.
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

/// Process and host counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    at: Instant,
    /// CPU seconds (user + system) of every thread, live or exited.
    cpu_s: f64,
    /// Voluntary plus involuntary context switches of every thread.
    ctx_switches: u64,
    /// Host-wide `steal` and total jiffies of `/proc/stat`.
    steal: u64,
    total: u64,
}

impl Sample {
    /// Takes a sample now.
    pub fn now() -> Self {
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            longs: [0; 14],
        };
        // SAFETY: `ru` is a live, writable value laid out as the kernel's
        // `struct rusage` on 64-bit Linux (two `timeval`s of two `long`s,
        // then fourteen `long`s), and `getrusage` writes only within it.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        let (steal, total) = read_stat();
        Self {
            at: Instant::now(),
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            ctx_switches: (ru.longs[NVCSW] + ru.longs[NIVCSW]) as u64,
            steal,
            total,
        }
    }
}

/// Host-wide `(steal, total)` jiffies from the first line of `/proc/stat`.
fn read_stat() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let nums: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    let steal = nums.get(7).copied().unwrap_or(0);
    (steal, nums.iter().sum())
}

/// What happened between two samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds divided by wall seconds (at most `nproc`).
    pub cpu_util: f64,
    /// Share of all host CPU time stolen by the hypervisor.
    pub steal_frac: f64,
    /// Context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// The usage from `a` to `b`.
    pub fn between(a: &Sample, b: &Sample) -> Self {
        let wall_s = b.at.duration_since(a.at).as_secs_f64();
        let total = b.total.saturating_sub(a.total);
        Self {
            wall_s,
            cpu_util: (b.cpu_s - a.cpu_s) / wall_s.max(1e-9),
            steal_frac: if total == 0 {
                0.0
            } else {
                b.steal.saturating_sub(a.steal) as f64 / total as f64
            },
            ctx_switches: b.ctx_switches.saturating_sub(a.ctx_switches),
        }
    }
}

/// The process's peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
