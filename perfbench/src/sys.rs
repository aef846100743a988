//! What the benchmark reads from the operating system: CPU affinity,
//! process CPU time, peak resident memory, the CPU model and the
//! filesystem under a path, plus the two fixed drift-probe loops.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Worker count the machine offers this process (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn proc_status_field(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .map(|v| v.trim_start_matches(':').trim().to_string())
}

/// The CPUs this process may run on, as the kernel prints them
/// (`Cpus_allowed_list`, e.g. `0-1` or `1`).
pub fn affinity() -> String {
    proc_status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into())
}

fn allowed_cpus() -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in affinity().split(',') {
        let mut ends = part.split('-').map(|s| s.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            (Some(Ok(a)), None) => cpus.push(a),
            _ => {}
        }
    }
    cpus
}

/// Confines the calling thread, and every thread it spawns afterwards,
/// to the highest-numbered CPU it is allowed on.
pub fn pin_to_one_cpu() -> Result<(), String> {
    let cpu = *allowed_cpus().last().ok_or("no CPU in the affinity list")?;
    if cpu >= 1024 {
        return Err(format!("cpu {cpu} is beyond the 1024-CPU mask"));
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly `size_of_val(&mask)`
    // bytes, which is the size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// User plus system CPU seconds this process has used so far.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks of 1/100 s.
    let Some(rest) = stat.rsplit(')').next() else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// Machine-wide CPU ticks from `/proc/stat`: `(steal, total)`. Steal is
/// time the hypervisor ran something else while this VM wanted a CPU.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let total = ticks.iter().take(8).sum();
    (ticks.get(7).copied().unwrap_or(0), total)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The filesystem type of the mount that holds `path` (the longest
/// mount point that prefixes it, from `/proc/self/mountinfo`).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // Fields: id parent major:minor root mount-point options ... - fstype source ...
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Milliseconds a fixed CPU-bound loop takes: 2^24 dependent
/// splitmix64 steps. Only the machine's speed moves it.
pub fn cpu_probe_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x1234_5678_u64);
    for _ in 0..(1u32 << 24) {
        x = triad_comm::mix64(x);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Milliseconds a fixed memory-bound loop takes: 2^20 dependent loads
/// that walk a full-period permutation of a 64 MiB table, so almost
/// every load misses the caches. Set-up of the table is not timed.
pub fn memory_probe_ms() -> f64 {
    const SLOTS: usize = 1 << 23;
    // i -> (a·i + 1) mod 2^23 with a ≡ 1 (mod 4) is a single cycle
    // through every slot (a full-period linear congruential step); the
    // large multiplier spreads consecutive loads far apart.
    const A: u64 = 0x5851_F42D_4C95_7F2D << 2 | 1;
    let table: Vec<u64> = (0..SLOTS as u64)
        .map(|i| i.wrapping_mul(A).wrapping_add(1) % SLOTS as u64)
        .collect();
    let start = Instant::now();
    let mut at = black_box(0usize);
    for _ in 0..(1u32 << 20) {
        at = table[at] as usize;
    }
    black_box(at);
    start.elapsed().as_secs_f64() * 1e3
}
