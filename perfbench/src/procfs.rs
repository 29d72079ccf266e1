//! Peak resident memory (`/proc/self/status`) and CPU time
//! (`CLOCK_PROCESS_CPUTIME_ID`) of this process.

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in KiB. `None` when the line is missing or not in `kB`.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kib = fields.next()?.parse().ok()?;
    (fields.next()? == "kB" && fields.next().is_none()).then_some(kib)
}

/// This process's peak resident set so far, MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the process CPU clock: 64-bit Linux only");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process has used so far, all threads included (also
/// threads that have already exited), seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux, and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_vm_hwm_line() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  912344 kB\nVmHWM:\t   45232 kB\nVmRSS:\t   40000 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(45232));
    }

    #[test]
    fn rejects_missing_or_malformed_lines() {
        assert_eq!(vm_hwm_kib("VmRSS:\t 4 kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t 4 MB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t four kB\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t 4\n"), None);
        assert_eq!(vm_hwm_kib("VmHWM:\t 4 kB extra\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib().expect("procfs is mounted") > 0.0);
    }

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - before < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(x > 0);
    }
}
