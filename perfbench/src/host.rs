//! What the benchmark reads about the machine: the process's CPU time,
//! its peak resident memory and a fingerprint (CPU count, CPU model,
//! kernel).

use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU time through the 64-bit Linux `clock_gettime` ABI");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, ended
/// threads included, in nanosecond resolution.
///
/// # Panics
///
/// Panics if the kernel refuses the clock, which Linux never does.
#[must_use]
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout
    // the 64-bit Linux ABI defines (checked by the `compile_error!` above),
    // and `clock_gettime` writes only into it.
    #[allow(unsafe_code)]
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds below 1e9"),
    )
}

/// Wall time and process CPU time elapsed since a starting point.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: Duration,
}

impl Stopwatch {
    /// Starts both clocks.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_time(),
        }
    }

    /// Wall seconds since the start.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds all threads of the process used since the start.
    #[must_use]
    pub fn cpu_s(&self) -> f64 {
        (process_cpu_time() - self.cpu).as_secs_f64()
    }
}

/// Peak resident set size of this process in KiB (`VmHWM` of
/// `/proc/self/status`), `None` where the file or field is missing.
#[must_use]
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm(&status)
}

/// Extracts `VmHWM` (KiB) from the text of a `/proc/<pid>/status` file.
#[must_use]
pub fn parse_vm_hwm(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// `nproc`, CPU model and kernel release, for the traced report.
#[must_use]
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |k| k.trim().to_string());
    format!("nproc {nproc} | cpu {cpu} | kernel {kernel}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  250000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(12_345));
        assert_eq!(parse_vm_hwm("VmRSS:\t 9000 kB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn cpu_time_advances_with_work_on_another_thread() {
        let watch = Stopwatch::start();
        let spin = std::thread::spawn(|| {
            let until = Instant::now() + Duration::from_millis(30);
            let mut n = 0u64;
            while Instant::now() < until {
                n = std::hint::black_box(n + 1);
            }
        });
        spin.join().expect("spinning thread");
        // The ended thread's CPU time still counts for the process.
        assert!(watch.cpu_s() >= 0.02, "{}", watch.cpu_s());
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        let kib = peak_rss_kib().expect("Linux exposes VmHWM");
        assert!(kib > 0);
    }
}
