//! The `host` layer: what no crate owns — per-thread on-CPU clocks, peak
//! resident memory, the allocator counters and the host fingerprint.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use obs::Value;

/// Nanoseconds this thread has spent on a CPU (`/proc/thread-self/schedstat`,
/// field 1). Unlike wall time it does not count time parked on a condvar
/// or time another tenant held the core, so a rank reads it inside its own
/// closure. Returns 0 where the file does not exist.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

thread_local! {
    // Per-thread so two rank threads never share a counter cache line; a
    // rank reads its own pair at both ends of a region.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counting allocator: the `bench` bin installs it as `#[global_allocator]`.
/// Where it is not installed [`alloc_counts`] stays at zero.
pub struct CountingAlloc;

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialised thread-locals without destructors, so touching them
// never allocates and is valid for the whole life of a thread.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note(bytes: usize) {
    // `try_with`: a thread that is tearing down its locals may still free
    // and allocate; those calls go uncounted instead of panicking.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// `(allocations, bytes requested)` by the calling thread so far.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get))
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What a number from this host can be compared with: carried by every
/// record `bench run` writes.
pub fn fingerprint(seed: u64, repeats: usize) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    Value::object([
        ("nproc", Value::from(nproc())),
        ("cpu_model", Value::from(cpu_model)),
        ("rustc", Value::from(command_line("rustc", &["-V"]))),
        (
            "git_commit",
            Value::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("avx2", Value::from(avx2)),
        ("seed", Value::from(seed)),
        ("repeats", Value::from(repeats)),
    ])
}
