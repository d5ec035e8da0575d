//! Benchmark harness library: measurement runners, the Equation-1 cost
//! model, and table formatting shared by the per-figure bench targets.
//!
//! Every table and figure of the paper's evaluation (§6) has a bench target
//! in `benches/` that regenerates it; see `DESIGN.md` for the index. Sizes
//! default to laptop scale and can be increased with the
//! `LOGGREP_BENCH_BYTES` environment variable.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cost;
pub mod experiments;
pub mod runner;
pub mod table;

pub use cost::{CostModel, SystemCost};
pub use runner::{measure_system, Measurement};
pub use table::Table;

/// Bytes of log generated per log type (default 1 MiB; override with
/// `LOGGREP_BENCH_BYTES`).
pub fn bench_bytes() -> usize {
    std::env::var("LOGGREP_BENCH_BYTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1 << 20)
}

/// The seed used by every harness (override with `LOGGREP_BENCH_SEED`).
pub fn bench_seed() -> u64 {
    std::env::var("LOGGREP_BENCH_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// Geometric mean of a nonempty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
