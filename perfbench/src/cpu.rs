//! Process CPU time, the clock every end-to-end metric is read from.
//!
//! The benchmark runs on shared virtual machines, where the hypervisor
//! regularly hands a vCPU to another guest for a while ("steal"). Wall
//! time then measures the neighbours: on a 2-vCPU host with 14–33%
//! steal, the same trials ran at half speed. The process CPU clock
//! counts only time this process's threads actually ran (with
//! paravirtual steal accounting the kernel leaves stolen time out), so
//! it measures the program.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux clocks and /proc; it needs 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process, live or
/// exited, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked above) for the whole call, and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    u64::try_from(ts.tv_sec).expect("non-negative") * 1_000_000_000
        + u64::try_from(ts.tv_nsec).expect("non-negative")
}

/// CPU nanoseconds since `start` (a [`process_cpu_ns`] reading).
pub fn cpu_since(start: u64) -> u64 {
    process_cpu_ns().saturating_sub(start)
}
