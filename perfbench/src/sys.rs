//! What the benchmark reads from the operating system: CPU clocks,
//! resource usage, per-thread scheduler statistics and the host
//! fingerprint. Linux only.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
    // `struct rusage` on 64-bit Linux: two `timeval`s then 14 `long`s.
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
    fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;

fn clock_ns(clk: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clk, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clk}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, dead ones included.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The fields of `getrusage(RUSAGE_SELF)` the benchmark reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub max_rss_kb: i64,
    pub nonvol_ctx_switches: i64,
}

pub fn usage() -> Usage {
    let mut ru = [0i64; 18];
    // SAFETY: `ru` is 144 writable bytes, the size of `struct rusage` on
    // 64-bit Linux, and lives for the whole call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    Usage {
        max_rss_kb: ru[4],
        nonvol_ctx_switches: ru[17],
    }
}

/// Sets the calling thread's timer slack (default 50 µs) so that sleeps
/// and `ppoll` timeouts of an open-loop generator end on time.
pub fn set_timer_slack_ns(ns: u64) {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches no
    // caller memory.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, ns, 0, 0, 0) };
}

/// Restricts the calling thread (and threads it spawns afterwards) to
/// `cpus`; an empty slice allows every CPU. Best-effort: returns whether
/// the kernel accepted the mask.
pub fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    if cpus.is_empty() {
        mask = [u64::MAX; 16];
    }
    // SAFETY: `mask` is a 128-byte CPU set that outlives the call; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Σ over this process's live threads of the time spent runnable but not
/// running (`/proc/self/task/*/schedstat`, field 2), in nanoseconds.
pub fn runq_wait_ns() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// On-CPU time of this process's live threads whose name starts with
/// `prefix` (`/proc/self/task/*/schedstat`, field 1), in nanoseconds.
pub fn named_threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm")).is_ok_and(|c| c.starts_with(prefix))
        })
        .filter_map(|e| std::fs::read_to_string(e.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Host fingerprint: processors, CPU model, kernel release.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    format!("nproc={nproc} cpu=\"{model}\" kernel={kernel}")
}

/// The commit being measured: `.git/HEAD` resolved when the tree is a git
/// checkout, plus an FNV-1a hash of every Rust source under `crates/` and
/// the benchmark, which identifies the code in a plain copy too.
pub fn code_fingerprint() -> String {
    let resolve = |r: &str| {
        std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()?
                    .lines()
                    .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
            })
    };
    let commit = std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => resolve(r),
            None => Some(head),
        })
        .map_or_else(|| "none".to_string(), |c| c.trim().to_string());
    let mut files = Vec::new();
    for root in ["crates", "shims", "perfbench/src"] {
        collect_rs(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("commit={commit} source_fnv={h:016x} files={}", files.len())
}

fn collect_rs(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return;
    };
    for e in rd.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}
