//! Per-layer CPU time and peak memory, read from outside the program
//! through `/proc/self`.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::stats::ratio;

/// CPU time of every live thread of this process, and the host's.
pub struct CpuSnapshot {
    /// tid → (name, ns).
    threads: BTreeMap<u64, (String, u64)>,
    /// Aggregate `cpu` line of `/proc/stat`: (steal, all fields), ticks.
    host: (u64, u64),
}

/// CPU nanoseconds spent by each layer's threads between two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCpu {
    /// The `tpdf-net` poll-loop thread.
    pub net_ns: u64,
    /// The `tpdf-pool-*` workers.
    pub pool_ns: u64,
    /// The `tpdf-ops-*` sampler (and admin listener, when one runs).
    pub ops_ns: u64,
}

impl LayerCpu {
    /// CPU of the system's own threads; the generator is not among them.
    pub fn system_ns(&self) -> u64 {
        self.net_ns + self.pool_ns + self.ops_ns
    }
}

/// Reads every thread's name and CPU time (`schedstat`, nanoseconds)
/// and the host's CPU ticks. Fails when the kernel exposes no
/// `schedstat`; a thread that exits while the snapshot is taken is
/// left out.
pub fn cpu_snapshot() -> Result<CpuSnapshot, String> {
    thread_cpu_ns(Path::new("/proc/thread-self"))
        .ok_or("/proc/thread-self/schedstat is unreadable: per-thread CPU needs it")?;
    let dir = fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    let mut threads = BTreeMap::new();
    for entry in dir.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let path = entry.path();
        let Ok(comm) = fs::read_to_string(path.join("comm")) else {
            continue;
        };
        if let Some(ns) = thread_cpu_ns(&path) {
            threads.insert(tid, (comm.trim().to_string(), ns));
        }
    }
    Ok(CpuSnapshot {
        threads,
        host: host_ticks()?,
    })
}

/// (steal, total) ticks of all CPUs from the first line of `/proc/stat`.
fn host_ticks() -> Result<(u64, u64), String> {
    let stat = fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .ok_or("/proc/stat has no aggregate cpu line")?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| format!("/proc/stat: {e}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user and nice.
    let steal = *ticks.get(7).ok_or("/proc/stat has no steal field")?;
    Ok((steal, ticks.iter().take(8).sum()))
}

/// Share of all CPU time, in percent, that the hypervisor gave to other
/// guests between two snapshots: time this machine's work waited on.
pub fn host_steal_pct(before: &CpuSnapshot, after: &CpuSnapshot) -> f64 {
    let steal = after.host.0.saturating_sub(before.host.0) as f64;
    let total = after.host.1.saturating_sub(before.host.1) as f64;
    100.0 * ratio(steal, total)
}

/// On-CPU nanoseconds of a task: the first field of its `schedstat`.
fn thread_cpu_ns(task: &Path) -> Option<u64> {
    fs::read_to_string(task.join("schedstat"))
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Groups the CPU spent between `before` and `after` by thread-name
/// prefix. A thread born inside the window counts from zero.
pub fn layer_cpu(before: &CpuSnapshot, after: &CpuSnapshot) -> LayerCpu {
    let mut cpu = LayerCpu::default();
    for (tid, (name, ns)) in &after.threads {
        let start = before.threads.get(tid).map_or(0, |(_, ns)| *ns);
        let delta = ns.saturating_sub(start);
        if name.starts_with("tpdf-net") {
            cpu.net_ns += delta;
        } else if name.starts_with("tpdf-pool-") {
            cpu.pool_ns += delta;
        } else if name.starts_with("tpdf-ops-") {
            cpu.ops_ns += delta;
        }
    }
    cpu
}

/// The process's peak resident set (`VmHWM`) in KiB.
pub fn rss_peak_kib() -> Result<u64, String> {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse()
                .ok()
        })
        .ok_or_else(|| "VmHWM is missing from /proc/self/status".to_string())
}
