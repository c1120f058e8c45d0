//! CPU time and peak resident set of a process, read from `/proc`.

use std::fs;

/// Kernel clock ticks per second. `USER_HZ` is 100 on every Linux ABI
/// this benchmark runs on; std offers no `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// Which process to read: the benchmark itself or a child it spawned.
#[derive(Clone, Copy, Debug)]
pub enum Target {
    Own,
    Pid(u32),
}

impl Target {
    fn path(self, file: &str) -> String {
        match self {
            Target::Own => format!("/proc/self/{file}"),
            Target::Pid(pid) => format!("/proc/{pid}/{file}"),
        }
    }

    /// User + system CPU seconds the process (all threads) has used.
    pub fn cpu_seconds(self) -> f64 {
        let stat = fs::read_to_string(self.path("stat")).expect("read /proc stat");
        parse_cpu_ticks(&stat) / TICKS_PER_SECOND
    }

    /// `VmHWM`, the peak resident set so far, in MiB.
    pub fn peak_rss_mb(self) -> f64 {
        let status = fs::read_to_string(self.path("status")).expect("read /proc status");
        parse_vm_hwm_kb(&status) / 1024.0
    }
}

/// utime + stime: fields 14 and 15 of `/proc/<pid>/stat`, counted after
/// the parenthesised command name (which may itself contain spaces).
fn parse_cpu_ticks(stat: &str) -> f64 {
    let after_comm = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    tick() + tick()
}

fn parse_vm_hwm_kb(status: &str) -> f64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("status has VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command_name() {
        let stat = "42 (a b) c) S 1 42 42 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 1000 1 1";
        assert_eq!(parse_cpu_ticks(stat), 300.0);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), 2048.0);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(Target::Own.cpu_seconds() >= 0.0);
        assert!(Target::Own.peak_rss_mb() > 0.0);
    }
}
