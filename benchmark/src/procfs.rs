//! CPU time and peak memory of this process, from `/proc`.

use std::fs::File;
use std::os::unix::fs::FileExt;

/// `USER_HZ`: the unit of the utime/stime fields. It is 100 on every Linux
/// architecture Rust targets, and without libc there is no `sysconf` to ask.
const TICKS_PER_S: f64 = 100.0;

/// utime + stime (fields 14 and 15) of a `/proc/<pid>/stat` line, in clock
/// ticks. The comm field may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the comm: state is field 3, so utime (14) is the 12th here.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The `VmHWM` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

fn cpu_s(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let ticks = parse_stat_cpu_ticks(&stat).unwrap_or_else(|| panic!("malformed {path}: {stat}"));
    ticks as f64 / TICKS_PER_S
}

/// User + system CPU seconds consumed by the whole process so far.
pub fn process_cpu_s() -> f64 {
    cpu_s("/proc/self/stat")
}

/// On-CPU nanoseconds (the first field) of a `/proc/<pid>/schedstat` line.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// The CPU clock of the thread that opened it: `/proc/thread-self/schedstat`
/// kept open and re-read in place, with ns resolution (the `stat` files count
/// 10 ms ticks). A reading costs two system calls, ~1 us.
pub struct ThreadCpu(File);

impl ThreadCpu {
    pub fn open() -> ThreadCpu {
        ThreadCpu(
            File::open("/proc/thread-self/schedstat").expect("open /proc/thread-self/schedstat"),
        )
    }

    /// Nanoseconds the opening thread has spent on a CPU so far. Call it
    /// from that thread.
    pub fn ns(&self) -> u64 {
        // The kernel brings a thread's run time up to date when it passes
        // through the scheduler, not when the file is read; without the
        // yield a reading misses whatever ran since the last tick or switch.
        std::thread::yield_now();
        let mut buf = [0u8; 64];
        let n = self.0.read_at(&mut buf, 0).expect("read schedstat");
        std::str::from_utf8(&buf[..n])
            .ok()
            .and_then(parse_schedstat_ns)
            .expect("malformed schedstat")
    }
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM line in /proc/self/status") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_skips_a_hostile_comm() {
        let stat = "9690 (sli) bench (x) R 9686 9690 9686 0 -1 4194304 81 0 0 0 \
                    1234 56 0 0 20 0 1 0 100899 2703360 305 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1290));
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_parser_finds_vm_hwm() {
        let status =
            "Name:\tsli-benchmark\nVmPeak:\t  999 kB\nVmHWM:\t    1768 kB\nVmRSS:\t 1700 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1768));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn schedstat_parser_takes_the_run_time() {
        assert_eq!(
            parse_schedstat_ns("1130410722 20297548 65\n"),
            Some(1130410722)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mib() > 0.5);
        // The thread clock sees the work done since the previous reading,
        // and only that: of alternating 2 ms and 0.5 ms spins, count the
        // short ones.
        let clock = ThreadCpu::open();
        let spin = |us: u128| {
            let t = std::time::Instant::now();
            while t.elapsed().as_micros() < us {
                std::hint::spin_loop();
            }
        };
        let mut short_ns = 0;
        for _ in 0..20 {
            spin(2_000);
            let from = clock.ns();
            spin(500);
            short_ns += clock.ns() - from;
        }
        assert!(
            (5_000_000..=20_000_000).contains(&short_ns),
            "{short_ns} ns"
        );
    }
}
