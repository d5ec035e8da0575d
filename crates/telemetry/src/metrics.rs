//! Lock-free metric primitives: counters, gauges, and power-of-two
//! histograms.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(crate) const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Instantaneous signed level (e.g. bytes resident in a cache).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub(crate) const fn new() -> Self {
        Self {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge to an absolute value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Moves the gauge by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: bucket `i` counts values whose bit length
/// is `i` (bucket 0 holds only zero), so 65 buckets cover all of `u64`.
pub const BUCKETS: usize = 65;

/// Lock-free histogram with power-of-two bucket boundaries.
///
/// Bucket `i` (for `i >= 1`) covers `[2^(i-1), 2^i - 1]`; bucket 0 covers
/// exactly `{0}`. Alongside the buckets it tracks exact `count`, `sum`,
/// `min`, and `max`, so means are exact and only quantiles are bucketed.
/// Suitable for both nanosecond latencies and byte sizes.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates a standalone (unregistered) histogram. Most callers want
    /// [`crate::histogram()`], which registers a handle for snapshots; a
    /// standalone histogram suits local one-shot aggregation (quantiles
    /// over a batch of sizes, say) without polluting the registry.
    pub const fn new() -> Self {
        // `[AtomicU64::new(0); 65]` needs Copy; build via a const block.
        Self {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Bucket index for a value: its bit length (0 for zero).
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i`.
    #[inline]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Consistent-enough point-in-time copy (individual loads are relaxed;
    /// concurrent recorders may be partially visible).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Owned copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Per-bucket counts, index = bit length of the value.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Exact mean of observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket where the
    /// cumulative count crosses `q * count`, clamped to the observed
    /// min/max. `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                return Histogram::bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
        c.reset();
        assert_eq!(c.get(), 0);

        let g = Gauge::new();
        g.set(10);
        g.add(-4);
        assert_eq!(g.get(), 6);
    }

    #[test]
    fn bucket_index_edges() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_match_index() {
        for i in 0..BUCKETS {
            let ub = Histogram::bucket_upper_bound(i);
            assert_eq!(Histogram::bucket_index(ub), i, "upper bound of bucket {i}");
            if i > 0 && i < 64 {
                // The next value up belongs to the next bucket.
                assert_eq!(Histogram::bucket_index(ub + 1), i + 1);
            }
        }
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 221.2).abs() < 1e-9);
        // Median lands in the bucket containing 3 ([2,3]).
        assert_eq!(s.quantile(0.5), 3);
        // Extremes clamp to observed min/max.
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(1.0), 1000);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }
}
