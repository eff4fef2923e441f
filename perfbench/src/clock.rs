//! Host clocks and process accounting: the only place the benchmark reads
//! wall-clock time, CPU time and memory.

// lint:allow(wall-clock): host time is what this benchmark measures
use std::time::Instant;

/// Monotonic host nanoseconds since the clock was made.
#[derive(Clone, Copy)]
pub struct Clock {
    // lint:allow(wall-clock): host time is what this benchmark measures
    epoch: Instant,
}

impl Clock {
    /// A clock whose zero is now.
    pub fn new() -> Clock {
        Clock {
            // lint:allow(wall-clock): host time is what this benchmark measures
            epoch: Instant::now(),
        }
    }

    /// Nanoseconds since the clock was made.
    #[inline]
    pub fn ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Seconds since the clock was made.
    pub fn secs(&self) -> f64 {
        self.ns() as f64 * 1e-9
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let c = Clock::new();
    let out = f();
    (c.secs(), out)
}

/// CPU time of the calling thread in nanoseconds, from the scheduler's
/// own accounting (`/proc/thread-self/schedstat`, first field).
pub fn thread_cpu_ns() -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("read /proc/thread-self/schedstat: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable schedstat: {text:?}"))
}

/// User + system CPU seconds of the whole process, all threads including
/// finished ones (`/proc/self/stat` utime + stime, in 1/100 s ticks —
/// Linux fixes `USER_HZ` at 100 in its user ABI).
pub fn process_cpu_s() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = text
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("unparsable /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| format!("no field {} in /proc/self/stat", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
