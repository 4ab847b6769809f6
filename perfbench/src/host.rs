//! Host context recorded beside every measurement: two frozen calibration
//! kernels, the core count, the CPU model, the commit, peak memory and the
//! process's CPU time.
//!
//! The kernels must never change: their figures are only comparable across
//! runs because they are. A pure-ALU dependency chain tracks the core's
//! clock; a pointer chase over an L2-sized ring tracks the memory path the
//! graph scans depend on. Shared hosts drift by up to 2× over minutes, and
//! these two numbers let that drift be read straight from the output.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Iterations of the ALU chain per sample.
const ALU_STEPS: u64 = 10_000_000;
/// Bytes of the pointer-chase ring: half of a 2 MiB L2.
const CHASE_BYTES: usize = 1 << 20;
/// Loads of the pointer chase per sample.
const CHASE_LOADS: usize = 4_000_000;
/// Samples per kernel; the median is reported.
const SAMPLES: usize = 3;

/// The two calibration figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Nanoseconds per step of a dependent shift-xor-multiply chain.
    pub alu_ns: f64,
    /// Nanoseconds per dependent load of an L2-resident pointer chase.
    pub l2_load_ns: f64,
}

impl Calibration {
    /// Measures both kernels (about 0.2 s).
    pub fn measure() -> Self {
        Calibration {
            alu_ns: median_of(|| alu_sample(ALU_STEPS)),
            l2_load_ns: median_of(|| chase_sample(CHASE_BYTES, CHASE_LOADS)),
        }
    }

    /// The mean of two calibrations (before and after a workload).
    pub fn mean(self, other: Calibration) -> Calibration {
        Calibration {
            alu_ns: 0.5 * (self.alu_ns + other.alu_ns),
            l2_load_ns: 0.5 * (self.l2_load_ns + other.l2_load_ns),
        }
    }
}

fn median_of(mut sample: impl FnMut() -> f64) -> f64 {
    let mut values: Vec<f64> = (0..SAMPLES).map(|_| sample()).collect();
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Nanoseconds per step of a SplitMix-style mixing chain: a shift, an xor
/// and a multiply, each step depending on the last.
fn alu_sample(steps: u64) -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..steps {
        x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    black_box(x);
    start.elapsed().as_nanos() as f64 / steps as f64
}

/// Nanoseconds per load of a pointer chase around one random cycle through
/// a `bytes`-sized ring (Sattolo's shuffle, fixed seed).
fn chase_sample(bytes: usize, loads: usize) -> f64 {
    let slots = bytes / std::mem::size_of::<u32>();
    let mut ring: Vec<u32> = (0..slots as u32).collect();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    for i in (1..slots).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % i as u64) as usize;
        ring.swap(i, j);
    }
    let ring = black_box(ring);
    // One lap to bring the ring into cache before timing.
    let mut at = 0usize;
    for _ in 0..slots {
        at = ring[at] as usize;
    }
    let start = Instant::now();
    for _ in 0..loads {
        at = ring[at] as usize;
    }
    black_box(at);
    start.elapsed().as_nanos() as f64 / loads as f64
}

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of a git checkout in the working directory, read from `.git`
/// without running git; `unknown` elsewhere (a source export has no `.git`).
pub fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds all of this process's threads have spent on a CPU so far, user
/// and kernel time together, from `/proc/self/task/*/schedstat`. Where
/// `/proc` is unavailable it counts wall-clock seconds since its first call
/// instead, so a difference of two readings stays a duration either way.
///
/// The kernel brings a running thread's figure up to date only at a
/// scheduler tick (every 4 ms at 250 Hz), which would swamp a millisecond
/// set-up. Blocking for a microsecond first makes it account the calling
/// thread's time up to now; the pool's idle workers are blocked already.
/// That took the error against the thread's CPU clock from up to 4 ms to
/// about 0.1 ms.
pub fn cpu_time_s() -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    let origin = *ORIGIN.get_or_init(Instant::now);
    std::thread::sleep(Duration::from_micros(1));
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return origin.elapsed().as_secs_f64();
    };
    let ns: u64 = tasks
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 * 1e-9
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`), or 0
/// where `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
