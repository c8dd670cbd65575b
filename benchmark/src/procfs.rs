//! What the kernel says about the harness and its shard children: CPU time,
//! resident memory, and which processes still call this one their parent.
//! Linux `/proc` only; anywhere else every reading is zero.

/// Microseconds per kernel clock tick: `USER_HZ` is 100 on every Linux
/// target this workspace builds for.
const TICK_US: u64 = 10_000;

/// CPU time a process has used so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTime {
    /// User-mode microseconds.
    pub user_us: u64,
    /// Kernel-mode microseconds.
    pub sys_us: u64,
}

impl CpuTime {
    pub fn total_us(&self) -> u64 {
        self.user_us + self.sys_us
    }

    pub fn plus(self, other: CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us + other.user_us,
            sys_us: self.sys_us + other.sys_us,
        }
    }

    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us.saturating_sub(earlier.user_us),
            sys_us: self.sys_us.saturating_sub(earlier.sys_us),
        }
    }
}

/// The fields of `/proc/<pid>/stat` after the parenthesised command name
/// (which may itself contain spaces and parentheses).
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// User + system CPU time of `pid`, all threads, live children not included.
pub fn cpu_time(pid: u32) -> CpuTime {
    // After the command name: state ppid pgrp session tty tpgid flags minflt
    // cminflt majflt cmajflt utime stime …
    let Some(fields) = stat_fields(pid) else {
        return CpuTime::default();
    };
    let tick = |i: usize| -> u64 {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
            * TICK_US
    };
    CpuTime {
        user_us: tick(11),
        sys_us: tick(12),
    }
}

/// CPU time the hypervisor ran someone else while a CPU of this machine had
/// work to do, so far, µs (`steal` of the first line of `/proc/stat`). The
/// one direct reading of "the host was busy elsewhere" a guest has.
pub fn stolen_us() -> u64 {
    // cpu user nice system idle iowait irq softirq steal …
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .unwrap_or(0)
        * TICK_US
}

/// Parent pid of `pid`, if it is alive.
fn parent_of(pid: u32) -> Option<u32> {
    stat_fields(pid)?.get(1)?.parse().ok()
}

fn status_kb(pid: u32, field: &str) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Resident set size of `pid` right now, MB.
pub fn rss_mb(pid: u32) -> f64 {
    status_kb(pid, "VmRSS:") as f64 / 1024.0
}

/// Peak resident set size of `pid` so far, MB.
pub fn rss_peak_mb(pid: u32) -> f64 {
    status_kb(pid, "VmHWM:") as f64 / 1024.0
}

/// Live processes whose parent is this process and whose command line
/// carries `marker` — the leak check for shard children.
pub fn children_with_marker(marker: &str) -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| parent_of(pid) == Some(me))
        .filter(|&pid| {
            std::fs::read(format!("/proc/{pid}/cmdline"))
                .map(|c| String::from_utf8_lossy(&c).contains(marker))
                .unwrap_or(false)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        let me = std::process::id();
        // Burn a little CPU so the counters cannot both be zero forever.
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(x);
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(rss_mb(me) > 0.0);
            assert!(rss_peak_mb(me) >= rss_mb(me) * 0.5);
            assert!(children_with_marker("--no-such-marker").is_empty());
        }
    }
}
