//! The host fingerprint every result carries, and process memory.

use fusedml_bench::regress::json::Json;

/// `nproc`, CPU model, git SHA and compiler version of the machine and
/// tree that produced a result, and the CPU the run was pinned to.
pub fn fingerprint(pinned: Option<usize>) -> Json {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = info.lines().filter(|l| l.starts_with("processor")).count();
    let cpu = info
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    Json::obj(vec![
        ("nproc", Json::u64(nproc as u64)),
        ("cpu", Json::str(cpu)),
        (
            "pinned_cpu",
            pinned.map_or(Json::Null, |c| Json::u64(c as u64)),
        ),
        (
            "git_sha",
            Json::str(fusedml_bench::regress::report::current_git_sha()),
        ),
        ("rustc", Json::str(env!("BENCHMARK_RUSTC_VERSION"))),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB; 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restrict this process to the CPU it is running on, before any thread
/// starts. `Gpu::new` sizes its per-launch worker pool by the CPUs the
/// process may use, so every simulated device, including the ones
/// `runtime::serve` builds, then runs on one host thread. Two worker
/// threads per launch on a shared 2-core host made host time track other
/// processes' load: `serve-mixed` spent 166–207 ms per epoch unpinned and
/// 97–101 ms pinned, with or without a competing busy process. Returns
/// the CPU, or `None` where the process was left unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    use std::os::raw::c_int;
    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns an index.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // glibc's `cpu_set_t`: a 1024-bit mask.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; `mask` is a live, initialized
    // buffer of exactly `size_of_val(&mask)` bytes that the call only reads.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Serve every allocation of 128 KiB or more with its own mapping, given
/// back to the kernel when freed. By default glibc raises that threshold
/// after the first large free and serves later large blocks from the heap,
/// where freed space stays resident: `kernel-large`'s peak RSS then landed
/// on ~63 or ~71 MiB depending on the allocation order a seed produced. With
/// the threshold fixed it measures live memory, 57.6–58.4 MiB over eight
/// seeds.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn fix_mmap_threshold() {
    use std::os::raw::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_MMAP_THRESHOLD: c_int = -3;
    // SAFETY: `mallopt` only sets an allocator tunable; it is called once,
    // at the start of `main`, before this process starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn fix_mmap_threshold() {}
