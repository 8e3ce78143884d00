//! The host stamp every report carries, so a number can be read
//! without guessing the machine it came from.

use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct HostStamp {
    /// `std::thread::available_parallelism()`.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu_model: String,
    /// Commit of the checkout the benchmark runs in (`unknown` when the
    /// checkout is not a git repository).
    pub git_rev: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
}

impl HostStamp {
    pub fn detect() -> Self {
        HostStamp {
            nproc: nproc(),
            cpu_model: cpu_model(),
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
        }
    }

    /// Why two reports cannot be compared, if they cannot: the machine
    /// or the toolchain differs. The commit may differ — that is what a
    /// comparison is for.
    pub fn mismatch(&self, other: &HostStamp) -> Option<String> {
        let mut diffs = Vec::new();
        if self.nproc != other.nproc {
            diffs.push(format!("nproc {} vs {}", self.nproc, other.nproc));
        }
        if self.cpu_model != other.cpu_model {
            diffs.push(format!("cpu '{}' vs '{}'", self.cpu_model, other.cpu_model));
        }
        if self.rustc != other.rustc {
            diffs.push(format!("rustc '{}' vs '{}'", self.rustc, other.rustc));
        }
        (!diffs.is_empty()).then(|| diffs.join(", "))
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Resolve `HEAD` by reading the git directory directly (no `git`
/// process, and no search above the checkout).
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(rev, _)| rev.to_string())
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
/// `/proc/self/stat` counts clock ticks, 100 per second on Linux.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = stat.rsplit_once(')')?.1;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// Machine-wide CPU ticks from the first line of `/proc/stat`: the
/// total over user..steal and the steal part, the time the hypervisor
/// ran something else while this machine's vCPUs wanted to run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| {
                let fields: Vec<u64> = stat
                    .lines()
                    .next()?
                    .split_whitespace()
                    .skip(1)
                    .take(8)
                    .map(|f| f.parse().ok())
                    .collect::<Option<_>>()?;
                (fields.len() == 8).then(|| CpuTicks {
                    total: fields.iter().sum(),
                    steal: fields[7],
                })
            })
            .unwrap_or_default()
    }

    /// Share of the machine's CPU time since `earlier` that was stolen.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}
