//! What the run executed on: CPU model, core count, steal time, memory.

use std::fs;
use std::time::Duration;

/// Prints the CPU model and the cores this process may use, so results
/// from different machines are never compared by accident.
pub fn print_identity() {
    let model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!("host: cpu \"{model}\", nproc {nproc}");
}

/// Cumulative steal time of all CPUs, in seconds (`/proc/stat`, USER_HZ
/// ticks). Time the hypervisor ran someone else on our vCPUs.
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            // cpu user nice system idle iowait irq softirq steal ...
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Operations per second of CPU time the hypervisor actually gave us:
/// `ops / (wall - steal / nproc)`. Steal is time a runnable vCPU was
/// not run; on a shared host it swings from run to run and would
/// otherwise dominate the spread of every rate.
pub fn corrected_rate(ops: u64, wall: Duration, steal_s: f64) -> f64 {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let wall = wall.as_secs_f64();
    let available = (wall - steal_s / nproc).max(wall / 10.0);
    ops as f64 / available
}
