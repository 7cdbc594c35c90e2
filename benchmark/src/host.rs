//! What the host was doing: scheduler wait, peak memory, load.
//!
//! The benchmark runs on one thread, so time this thread spent runnable
//! but not running (`/proc/thread-self/schedstat`) is time the host took
//! from it. A run whose median wait share exceeds [`NOISY_WAIT_FRAC`] is
//! flagged `noisy`; its numbers are still printed.

/// Median wait share above which a run is flagged `noisy`.
pub const NOISY_WAIT_FRAC: f64 = 0.05;

/// This thread's cumulative scheduler times.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    /// Nanoseconds spent on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds spent runnable, waiting for a CPU.
    pub wait_ns: u64,
}

/// Reads this thread's scheduler times (zeros where the kernel does not
/// expose them).
pub fn sched() -> Sched {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0));
    Sched {
        cpu_ns: fields.next().unwrap_or(0),
        wait_ns: fields.next().unwrap_or(0),
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The 1-, 5- and 15-minute load averages, as the kernel prints them.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|l| l.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
