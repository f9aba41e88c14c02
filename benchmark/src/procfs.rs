//! Process CPU time and peak memory.
//!
//! Rounds are 50 ms long and `/proc/self/stat` counts in 10 ms ticks, so the
//! per-round CPU time comes from the process CPU clock, which counts
//! nanoseconds. Both sum over every thread of the process and keep the time
//! of threads that have exited (a service worker joined between set-ups is
//! still counted); `/proc/self/stat` is read once at the end of the run to
//! check that the two agree.

/// Clock ticks per second of the `utime`/`stime` fields. Linux reports them
/// in `USER_HZ`, which is 100 on every architecture it runs on today.
const TICKS_PER_SECOND: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The second field is the command name in parentheses and may itself hold
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds this process has used so far according to `/proc/self/stat`.
pub fn cpu_seconds_in_ticks() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    let ticks = parse_stat_cpu_ticks(&stat).expect("/proc/self/stat has utime and stime");
    ticks as f64 / TICKS_PER_SECOND
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads the CPU clock through the 64-bit Linux clock_gettime ABI");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds this process has used so far, all threads, to the nanosecond.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the layout 64-bit
    // Linux gives it (checked at compile time above), and `clock_gettime`
    // writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Peak resident set of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAIL: &str =
        "S 6057 6105 6057 0 -1 4194304 104 0 0 0 1234 56 7 8 20 0 3 0 293011 2703360 284";

    #[test]
    fn cpu_ticks_are_utime_plus_stime() {
        let stat = format!("6105 (qpp-benchmark) {TAIL}");
        assert_eq!(parse_stat_cpu_ticks(&stat), Some(1234 + 56));
    }

    #[test]
    fn command_names_with_spaces_and_parentheses_do_not_shift_the_fields() {
        for comm in [
            "(my bench)",
            "(a) (b)",
            "(x) S 1 2 3 4 5 6 7 8 9 9 9 9 9)",
            "(())",
        ] {
            let stat = format!("6105 {comm} {TAIL}");
            assert_eq!(parse_stat_cpu_ticks(&stat), Some(1290), "comm {comm}");
        }
    }

    #[test]
    fn truncated_or_garbled_stat_is_rejected() {
        assert_eq!(parse_stat_cpu_ticks("6105 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(
            parse_stat_cpu_ticks("1 (x) S 0 0 0 0 0 0 0 0 0 0 abc 5"),
            None
        );
    }

    #[test]
    fn vm_hwm_is_found_among_the_other_lines() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    1596 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1596));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn the_cpu_clock_counts_work_and_agrees_with_proc_to_the_tick() {
        let before = cpu_seconds();
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 60 {
            std::hint::spin_loop();
        }
        let used = cpu_seconds() - before;
        // The test harness may run other tests on other threads meanwhile.
        assert!(used >= 0.02, "60 ms of spinning used {used} s of CPU");
        let apart = (cpu_seconds() - cpu_seconds_in_ticks()).abs();
        assert!(
            apart < 0.1,
            "CPU clock and /proc/self/stat are {apart} s apart"
        );
        assert!(peak_rss_mb() > 0.0);
    }
}
