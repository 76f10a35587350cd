//! Host fingerprint: explains nothing in the program, explains disagreeing
//! runs.  Recorded with every result.

use crate::estimate::best_of;
use std::path::Path;

/// Iterations of the fixed integer loop (~0.1 s on the sizing host).
const SPIN_ITERS: u64 = 60_000_000;

fn spin() -> u64 {
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..SPIN_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Table of the memory probe: 32 MiB of `f64`, larger than any private
/// cache, smaller than the shared last-level cache the neighbours contend for.
const MEM_TABLE_LEN: usize = 1 << 22;
/// Gathers per probe pass (~12 ms on the sizing host).
const MEM_GATHERS: u64 = 2_000_000;

/// Sum of pseudo-random gathers from `table`: the memory-bound counterpart
/// of [`spin`].  The program's kernels gather factor rows the same way, so
/// this moves when a neighbour takes cache or bandwidth and `spin` does not.
fn gather(table: &[f64]) -> f64 {
    let mask = table.len() as u64 - 1;
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut sum = 0.0;
    for _ in 0..MEM_GATHERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum += table[(x & mask) as usize];
    }
    sum
}

/// The memory probe with its table kept alive, for passes interleaved with
/// the measured repetitions.
pub struct MemProbe {
    table: Vec<f64>,
}

impl MemProbe {
    pub fn new() -> Self {
        MemProbe {
            table: (0..MEM_TABLE_LEN).map(|i| i as f64).collect(),
        }
    }

    /// Duration of one gather pass in seconds.
    pub fn pass(&self) -> f64 {
        let start = std::time::Instant::now();
        std::hint::black_box(gather(&self.table));
        start.elapsed().as_secs_f64()
    }
}

pub struct HostFingerprint {
    /// Cores the host reports (`available_parallelism`).
    pub cores: usize,
    /// Best-of-3 duration of the fixed single-thread integer loop.
    pub spin_s: f64,
    /// `2 · spin_s / (two loops on two threads)`: 2.0 when the second vCPU
    /// is an independent core, 1.0 when it is not.
    pub par2_speedup: f64,
    /// Best-of-3 duration of the fixed random-gather loop over 32 MiB.
    pub mem_s: f64,
}

pub fn fingerprint() -> HostFingerprint {
    let (spin_s, _) = best_of(3, spin);
    let (pair_s, _) = best_of(3, || {
        std::thread::scope(|s| {
            let other = s.spawn(spin);
            let mine = spin();
            mine ^ other.join().expect("spin loop does not panic")
        })
    });
    let probe = MemProbe::new();
    let mem_s = (0..3).map(|_| probe.pass()).fold(f64::INFINITY, f64::min);
    HostFingerprint {
        mem_s,
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        spin_s,
        par2_speedup: 2.0 * spin_s / pair_s,
    }
}

/// Pins glibc malloc to the state a long-running process converges to: blocks
/// up to 32 MiB come from the heap, and the heap is never trimmed.
///
/// By default glibc serves a large block by `mmap` until a block of that size
/// has been freed once, and returns the heap's top to the kernel whenever
/// enough of it is free.  Every fresh map is page-faulted in again, so how
/// long a step takes depends on what the process allocated and freed before
/// it — on this host the cold start moved by 15–25 % with the allocation
/// history of set-up alone.  Pinned, a repetition reuses the pages the
/// previous one touched and the time is the program's.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` only stores tunables inside the allocator; it is
        // called once, before any other thread exists.
        let accepted = unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
        };
        assert!(accepted, "glibc rejected the malloc tunables");
    }
}

/// `VmHWM` of this process in MB (10⁶ bytes); `None` where `/proc` has no
/// such line.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// `rustc --version` of the toolchain on `PATH`, or `"unknown"`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Commit of the checkout at `repo_root`, read from `.git` without running
/// git; `"unknown"` in an exported tree.
pub fn git_rev(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}
