//! Small shared pieces: the seeded generator, order statistics, the
//! scratch directory, and process/host facts echoed in every report.

use std::path::{Path, PathBuf};

/// SplitMix64: every seeded choice in the harness draws from this, so a
/// corpus and op list depend on `(workload, seed)` and nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `p`-quantile (0..=1) of a sample by nearest rank; sorts in place.
///
/// # Panics
///
/// Panics on an empty sample: every caller collects at least one value.
pub fn quantile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    samples.sort_by(f64::total_cmp);
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of the samples left after dropping the lowest and the highest
/// tenth; sorts in place. The reference host's CPU runs in one of two
/// frequency states for seconds at a time: a median jumps between the two
/// from run to run, a mean moves smoothly with the time spent in each, and
/// the trimming keeps a rare stall out of it.
///
/// # Panics
///
/// Panics on an empty sample: every caller collects at least one value.
pub fn trimmed_mean(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of an empty sample");
    samples.sort_by(f64::total_cmp);
    let cut = samples.len() / 10;
    mean(&samples[cut..samples.len() - cut])
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A fresh scratch directory under the current directory, removed on drop.
/// The benchmark may only write inside its checkout, so this is relative.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let dir = PathBuf::from(".suite_tmp").join(format!("{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git and harmless.
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".suite_tmp");
    }
}

/// Writes `bytes` to `path` and fsyncs the file, as a log store must before
/// it acknowledges a block.
pub fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    f.write_all(bytes)?;
    f.sync_all()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Iterations of the calibration loop: long enough (~0.36 ms) that the
/// clock's granularity is under 1 % of it.
const SPIN_ITERATIONS: u32 = 200_000;
/// The calibration loop's time on the reference box with its CPU at the
/// base clock, its usual state. Times are reported as if the loop always
/// took this long.
const REFERENCE_SPIN_SECS: f64 = 363.6e-6;
/// A speed reading older than this is taken again before it is used.
const PACE_STALE: std::time::Duration = std::time::Duration::from_millis(100);

/// A fixed amount of dependent integer work, timed: best of three, so an
/// interrupt in one of them does not count.
fn spin_secs() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..SPIN_ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Cancels the host's CPU speed out of the timings.
///
/// The reference host's CPU runs at its base clock or about 1.2x faster for
/// seconds to minutes at a time, and every CPU-bound time moves with it: run
/// to run the same op reads 2.4 or 2.9 ms. A client therefore times a fixed
/// calibration loop between its ops (never inside a timed region, at most
/// every 100 ms, ~1 % of its time) and reports each timing scaled by
/// `reference loop time / current loop time`: the time the op would have
/// taken at the reference speed. The run prints the scale it applied.
#[derive(Debug)]
pub struct Pace {
    read_at: std::time::Instant,
    scale: f64,
    scales: Vec<f64>,
}

impl Pace {
    pub fn new() -> Self {
        let scale = REFERENCE_SPIN_SECS / spin_secs();
        Pace {
            read_at: std::time::Instant::now(),
            scale,
            scales: vec![scale],
        }
    }

    /// The factor to multiply a wall time taken now by.
    pub fn scale(&mut self) -> f64 {
        if self.read_at.elapsed() > PACE_STALE {
            self.scale = REFERENCE_SPIN_SECS / spin_secs();
            self.read_at = std::time::Instant::now();
            self.scales.push(self.scale);
        }
        self.scale
    }

    /// Runs `f` and returns its result with its wall time in seconds at the
    /// reference speed (the scale is read before and after, for ops long
    /// enough to see the speed change under them).
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let before = self.scale();
        let start = std::time::Instant::now();
        let out = f();
        let wall = start.elapsed().as_secs_f64();
        (out, wall * (before + self.scale()) / 2.0)
    }

    /// The median scale applied so far (1 = reference speed, below 1 = the
    /// CPU ran faster than the reference and times were scaled up).
    pub fn median_scale(&mut self) -> f64 {
        median(&mut self.scales)
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine threads of every benchmark client. One, not `min(nproc, 2)`: on
/// the 2-core reference box the engine's fork-join paths (threads spawned
/// per `Pool::map` call) get anything from 1.0x to 1.75x out of a second
/// thread depending on a host state that lasts minutes, so a bounded metric
/// measured there could not be steady. The `pool` layer of the traced run
/// reports the 1-against-2-thread speed-ups instead.
pub const CLIENT_THREADS: usize = 1;

/// The wider thread count the `pool` layer compares against one thread.
pub fn pool_threads() -> usize {
    nproc().min(2)
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

/// One line identifying what ran where, echoed at the top of every report.
pub fn provenance(seed: u64) -> String {
    format!(
        "seed={seed} commit={} nproc={} client_threads={CLIENT_THREADS} rustc=\"{}\"",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        nproc(),
        command_line("rustc", &["--version"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&mut v), 5.0);
        assert_eq!(quantile(&mut v, 0.9), 9.0);
        assert_eq!(quantile(&mut v, 1.0), 10.0);
        assert_eq!(quantile(&mut [3.0], 0.9), 3.0);
        let mut stalled: Vec<f64> = (1..=9).map(f64::from).chain([1000.0]).collect();
        assert_eq!(trimmed_mean(&mut stalled), 5.5);
        assert_eq!(trimmed_mean(&mut [2.0, 4.0]), 3.0);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7);
            move || r.next_u64()
        })
        .take(4)
        .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(a[0], Rng::new(8).next_u64());
    }
}
