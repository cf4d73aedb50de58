//! What the kernel says about this process: peak memory, CPU time, and how
//! long the client thread sat runnable without a CPU. The last one decides
//! whether a run's timings are to be trusted.

use std::fs;

/// A reading of the process counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostSample {
    /// `VmHWM`: peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// User plus system CPU time of the whole process, seconds.
    pub cpu_s: f64,
    /// Time the main (client) thread was runnable but not running, seconds.
    pub runqueue_wait_s: f64,
    /// Times the main thread was descheduled while it still wanted the CPU.
    pub nonvoluntary_ctxt_switches: u64,
}

impl HostSample {
    /// Reads `/proc/self`. Fields the kernel does not provide stay 0, so the
    /// benchmark still runs where `/proc` is restricted.
    pub fn now() -> HostSample {
        let mut sample = HostSample::default();
        if let Ok(status) = fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                let field = |prefix: &str| {
                    line.strip_prefix(prefix)
                        .and_then(|rest| rest.split_whitespace().next())
                        .and_then(|n| n.parse::<u64>().ok())
                };
                if let Some(kib) = field("VmHWM:") {
                    sample.peak_rss_mb = kib as f64 / 1024.0;
                }
                if let Some(n) = field("nonvoluntary_ctxt_switches:") {
                    sample.nonvoluntary_ctxt_switches = n;
                }
            }
        }
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th of the line, in USER_HZ (100) ticks.
            if let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let ticks = |i: usize| {
                    fields
                        .get(i)
                        .and_then(|f| f.parse::<u64>().ok())
                        .unwrap_or(0)
                };
                sample.cpu_s = (ticks(11) + ticks(12)) as f64 / 100.0;
            }
        }
        if let Ok(schedstat) = fs::read_to_string("/proc/self/schedstat") {
            // "<ns on cpu> <ns waiting on a runqueue> <timeslices>"
            if let Some(wait_ns) = schedstat
                .split_whitespace()
                .nth(1)
                .and_then(|f| f.parse::<u64>().ok())
            {
                sample.runqueue_wait_s = wait_ns as f64 / 1e9;
            }
        }
        sample
    }

    /// The counters accumulated since `earlier` (peak memory is not a
    /// difference: it is the high-water mark so far).
    pub fn since(&self, earlier: &HostSample) -> HostSample {
        HostSample {
            peak_rss_mb: self.peak_rss_mb,
            cpu_s: self.cpu_s - earlier.cpu_s,
            runqueue_wait_s: self.runqueue_wait_s - earlier.runqueue_wait_s,
            nonvoluntary_ctxt_switches: self.nonvoluntary_ctxt_switches
                - earlier.nonvoluntary_ctxt_switches,
        }
    }
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_something_on_linux_and_differences_are_monotone() {
        let a = HostSample::now();
        let mut sink = 0u64;
        for i in 0..20_000_000u64 {
            sink = sink.wrapping_add(i * i);
        }
        std::hint::black_box(sink);
        let b = HostSample::now();
        if cfg!(target_os = "linux") {
            assert!(b.peak_rss_mb > 0.0);
        }
        let d = b.since(&a);
        assert!(d.cpu_s >= 0.0 && d.runqueue_wait_s >= 0.0);
        assert!(nproc() >= 1);
    }
}
