//! `/proc` readers: what the kernel charges to a process, so server cost
//! is charged to `watchmand` and not to the load generator.

use std::fs;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// mainstream architecture: one tick is 10 ms.
const TICK_US: f64 = 10_000.0;

/// `pid` as a `/proc` path component; `None` is this process.
fn dir(pid: Option<u32>) -> String {
    pid.map_or("/proc/self".to_owned(), |pid| format!("/proc/{pid}"))
}

/// CPU time charged to a process so far, all threads, in microseconds.
#[derive(Clone, Copy, Default, Debug)]
pub struct CpuTime {
    pub user_us: f64,
    pub sys_us: f64,
}

impl CpuTime {
    pub fn total_us(&self) -> f64 {
        self.user_us + self.sys_us
    }

    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us - earlier.user_us,
            sys_us: self.sys_us - earlier.sys_us,
        }
    }
}

pub fn cpu_time(pid: Option<u32>) -> Option<CpuTime> {
    parse_cpu_time(&fs::read_to_string(format!("{}/stat", dir(pid))).ok()?)
}

/// Fields 14 and 15 of `/proc/<pid>/stat`, counted after the parenthesised
/// command name (which may itself contain spaces).
fn parse_cpu_time(stat: &str) -> Option<CpuTime> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // `after_comm` starts at field 3 (state), so utime is 11 fields on.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTime {
        user_us: utime * TICK_US,
        sys_us: stime * TICK_US,
    })
}

/// Nanoseconds every live thread of a process has spent on a CPU, from the
/// scheduler's own accounting (`/proc/<pid>/task/*/schedstat`, first field).
/// `utime`/`stime` come in 10 ms ticks, too coarse for a 100 ms window; on a
/// kernel built without scheduler statistics they are what this falls back
/// to.  Callers take deltas over a phase with a fixed thread set.
pub fn on_cpu_ns(pid: Option<u32>) -> Option<u64> {
    let tasks = fs::read_dir(format!("{}/task", dir(pid))).ok()?;
    let mut threads = tasks.flatten().filter_map(|task| {
        // `None`: the thread exited between readdir and read, or the kernel
        // keeps no scheduler statistics.
        let schedstat = fs::read_to_string(task.path().join("schedstat")).ok()?;
        schedstat
            .split_ascii_whitespace()
            .next()?
            .parse::<u64>()
            .ok()
    });
    match threads.next() {
        Some(first) => Some(first + threads.sum::<u64>()),
        None => cpu_time(pid).map(|cpu| (cpu.total_us() * 1_000.0) as u64),
    }
}

/// The numeric value of a `Key:\t<value> [kB]` line of a `status` file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| rest.split_ascii_whitespace().next()?.parse().ok())
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let status = fs::read_to_string(format!("{}/status", dir(pid))).ok()?;
    status_field(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Live threads and context switches (voluntary + involuntary) summed over
/// them.  Switches of threads that have already exited are not included,
/// which is why callers take deltas over a phase with a fixed thread set.
pub fn threads_and_switches(pid: Option<u32>) -> Option<(u64, u64)> {
    let mut threads = 0;
    let mut switches = 0;
    for task in fs::read_dir(format!("{}/task", dir(pid))).ok()?.flatten() {
        let Ok(status) = fs::read_to_string(task.path().join("status")) else {
            continue; // the thread exited between readdir and read
        };
        threads += 1;
        switches += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Some((threads, switches))
}

/// The environment a result was measured in: recorded, never gated.
/// `cores` is read before pinning; `pinned_to` is what [`crate::pin`] got.
pub fn environment(cores: usize, pinned_to: Option<usize>) -> String {
    let read = |path: &str| {
        fs::read_to_string(path)
            .map(|text| text.trim().to_owned())
            .unwrap_or_else(|_| "unknown".to_owned())
    };
    let load = read("/proc/loadavg");
    let pinned = pinned_to.map_or("none".to_owned(), |cpu| cpu.to_string());
    format!(
        "cores={cores} pinned_to_cpu={pinned} kernel={} load1={} link=loopback",
        read("/proc/sys/kernel/osrelease"),
        load.split(' ').next().unwrap_or("unknown"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parses_past_a_command_name_with_spaces() {
        let stat = "42 (watch man d) S 1 42 42 0 -1 4194304 100 0 0 0 \
                    250 125 0 0 20 0 5 0 1000 1000000 200 18446744073709551615";
        let cpu = parse_cpu_time(stat).unwrap();
        assert_eq!((cpu.user_us, cpu.sys_us), (2_500_000.0, 1_250_000.0));
    }

    #[test]
    fn status_fields_parse_with_and_without_units() {
        let status = "Name:\twatchmand\nVmHWM:\t   10240 kB\nThreads:\t7\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(10240));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_field(status, "VmPeak"), None);
    }

    #[test]
    fn this_process_is_readable() {
        assert!(cpu_time(None).is_some());
        assert!(on_cpu_ns(None).unwrap() > 0);
        assert!(peak_rss_mb(None).unwrap() > 0.0);
        assert!(threads_and_switches(None).unwrap().0 >= 1);
    }
}
