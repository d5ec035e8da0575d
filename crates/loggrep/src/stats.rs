//! Statistics reported by compression and queries, consumed by the
//! benchmark harness.
//!
//! Each struct is filled per-run by the pipeline (so concurrent runs stay
//! independent); the same events also feed the process-wide
//! [`telemetry`] registry, and the `from_snapshot` constructors rebuild
//! aggregate views of these structs from a registry [`telemetry::Snapshot`]
//! for exporters that only have the registry (e.g. `--trace`, the bench
//! harness's per-stage JSON).

use std::time::Duration;

/// Statistics of one compression run.
#[derive(Debug, Clone, Default)]
pub struct ArchiveStats {
    /// Original block size in bytes.
    pub raw_size: u64,
    /// Serialized CapsuleBox size in bytes.
    pub compressed_size: u64,
    /// Wall time of the compression.
    pub elapsed: Duration,
    /// Number of groups (static patterns) with at least one row.
    pub groups: usize,
    /// Variable vectors stored with a real runtime pattern.
    pub real_vectors: usize,
    /// Variable vectors stored as dictionary + index.
    pub nominal_vectors: usize,
    /// Variable vectors stored plain.
    pub plain_vectors: usize,
    /// Total Capsules.
    pub capsules: usize,
    /// Lines that fell into the catch-all template.
    pub catch_all_lines: u32,
}

impl ArchiveStats {
    /// Compression ratio (raw / compressed); 0 when empty.
    pub fn ratio(&self) -> f64 {
        if self.compressed_size == 0 {
            0.0
        } else {
            self.raw_size as f64 / self.compressed_size as f64
        }
    }

    /// Compression speed in MB/s; 0 for zero-duration runs.
    pub fn speed_mb_s(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.raw_size as f64 / 1e6 / secs
        }
    }

    /// Aggregate view over every compression recorded in a telemetry
    /// snapshot (counters under `compress.*`, `extract.*`, `pack.*`, and
    /// the `compress` span). `compressed_size` is not tracked globally and
    /// stays 0; `groups` likewise (it is a per-box notion).
    pub fn from_snapshot(snap: &telemetry::Snapshot) -> Self {
        Self {
            raw_size: snap.counter("compress.bytes_raw"),
            compressed_size: 0,
            elapsed: Duration::from_nanos(
                snap.histogram("compress").map_or(0, |h| h.sum),
            ),
            groups: 0,
            real_vectors: snap.counter("extract.vectors.real") as usize,
            nominal_vectors: snap.counter("extract.vectors.nominal") as usize,
            plain_vectors: snap.counter("extract.vectors.plain") as usize,
            capsules: snap.counter("pack.capsules") as usize,
            catch_all_lines: snap.counter("parse.catch_all_lines") as u32,
        }
    }
}

/// The cheapest storage layer that answered an aggregate query, ordered
/// from cheapest to most expensive. Recorded in
/// [`QueryStats::agg_layer`] so the pushdown claims ("a
/// `count-by-template` never decompresses a Capsule") stay checkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AggLayer {
    /// Answered from group metadata alone (templates, line numbers,
    /// per-value counts): zero Capsules decompressed.
    Metadata,
    /// Answered from a nominal vector's dictionary Capsule (at most one
    /// decompression); the index Capsule stays untouched.
    Dictionary,
    /// Scanned a vector's own Capsules (e.g. a filtered top-K reading
    /// the index Capsule) without full line reconstruction.
    CapsuleScan,
    /// Fell back to lazy per-row value reconstruction.
    Reconstruct,
}

impl AggLayer {
    /// Short lowercase name (telemetry label / JSON value).
    pub fn name(self) -> &'static str {
        match self {
            AggLayer::Metadata => "metadata",
            AggLayer::Dictionary => "dictionary",
            AggLayer::CapsuleScan => "capsule-scan",
            AggLayer::Reconstruct => "reconstruct",
        }
    }
}

impl std::fmt::Display for AggLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Statistics of one query execution.
#[derive(Debug, Clone, Default)]
pub struct QueryStats {
    /// Wall time of the query.
    pub elapsed: Duration,
    /// Wall time spent in the Capsule-locating planner (§5.1); the rest of
    /// `elapsed` is execution (stamp filtering, decompression, scanning,
    /// reconstruction).
    pub plan_elapsed: Duration,
    /// Total Capsules in the archive (denominator for
    /// `capsules_decompressed`: the skip rate is `1 - decompressed/total`).
    pub capsules_total: u32,
    /// Capsules decompressed (the cost stamps/patterns avoid).
    pub capsules_decompressed: usize,
    /// Decompressed bytes.
    pub bytes_decompressed: u64,
    /// Capsules the query used without decompressing them, because an
    /// earlier query on the same open archive left them resident. Touched
    /// Capsules = `capsules_decompressed + capsules_resident`.
    pub capsules_resident: usize,
    /// Payload bytes of the resident Capsules used.
    pub bytes_resident: u64,
    /// Capsule requirements rejected by stamps without decompression.
    pub stamp_rejections: usize,
    /// Groups whose static pattern pre-check failed (skipped entirely).
    pub groups_skipped: usize,
    /// Rows verified by full reconstruction (wildcard / overflow paths).
    pub rows_verified: usize,
    /// Verified lines moved into the result instead of rendered again
    /// (single-search-string queries that missed the query cache).
    pub lines_reused: usize,
    /// Whether the result came from the query cache.
    pub cache_hit: bool,
    /// For aggregate queries: the most expensive storage layer that
    /// contributed to the answer (`None` for line queries and for
    /// cache-served aggregates, which touch no layer at all).
    pub agg_layer: Option<AggLayer>,
}

impl QueryStats {
    /// Records that `layer` contributed to an aggregate answer; the stats
    /// keep the most expensive layer seen.
    pub fn note_agg_layer(&mut self, layer: AggLayer) {
        self.agg_layer = Some(self.agg_layer.map_or(layer, |l| l.max(layer)));
    }

    /// The non-planning part of `elapsed` (saturating).
    pub fn execute_elapsed(&self) -> Duration {
        self.elapsed.saturating_sub(self.plan_elapsed)
    }

    /// Fraction of the archive's Capsules this query decompressed
    /// (0 when the archive is empty).
    pub fn decompress_fraction(&self) -> f64 {
        if self.capsules_total == 0 {
            0.0
        } else {
            self.capsules_decompressed as f64 / self.capsules_total as f64
        }
    }

    /// Aggregate view over every query recorded in a telemetry snapshot
    /// (counters under `query.*`, spans under the `query` path).
    /// `capsules_total` and `cache_hit` are per-query notions: the view
    /// reports 0 / whether any hit occurred.
    pub fn from_snapshot(snap: &telemetry::Snapshot) -> Self {
        let span_sum = |name: &str| snap.histogram(name).map_or(0, |h| h.sum);
        Self {
            elapsed: Duration::from_nanos(span_sum("query")),
            plan_elapsed: Duration::from_nanos(
                snap.histograms_under("query")
                    .filter(|(n, _)| n.ends_with("/plan"))
                    .map(|(_, h)| h.sum)
                    .sum(),
            ),
            capsules_total: 0,
            capsules_decompressed: snap.counter("query.capsules_decompressed") as usize,
            bytes_decompressed: snap.counter("query.bytes_decompressed"),
            capsules_resident: snap.counter("query.resident.hits") as usize,
            bytes_resident: snap.counter("query.resident.bytes"),
            stamp_rejections: snap.counter("query.stamp_rejections") as usize,
            groups_skipped: snap.counter("query.groups_skipped") as usize,
            rows_verified: snap.counter("query.rows_verified") as usize,
            lines_reused: snap.counter("query.lines_reused") as usize,
            cache_hit: snap.counter("query.cache.hits") > 0,
            agg_layer: [
                AggLayer::Reconstruct,
                AggLayer::CapsuleScan,
                AggLayer::Dictionary,
                AggLayer::Metadata,
            ]
            .into_iter()
            .find(|l| snap.counter(&format!("query.agg.layer.{}", l.name())) > 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_speed() {
        let s = ArchiveStats {
            raw_size: 1_000_000,
            compressed_size: 100_000,
            elapsed: Duration::from_millis(500),
            ..Default::default()
        };
        assert!((s.ratio() - 10.0).abs() < 1e-9);
        assert!((s.speed_mb_s() - 2.0).abs() < 1e-9);
        assert_eq!(ArchiveStats::default().ratio(), 0.0);
        assert_eq!(ArchiveStats::default().speed_mb_s(), 0.0);
    }

    #[test]
    fn plan_execute_split() {
        let s = QueryStats {
            elapsed: Duration::from_micros(100),
            plan_elapsed: Duration::from_micros(30),
            ..Default::default()
        };
        assert_eq!(s.execute_elapsed(), Duration::from_micros(70));
        // Saturates rather than panicking if clocks disagree.
        let odd = QueryStats {
            elapsed: Duration::from_micros(10),
            plan_elapsed: Duration::from_micros(30),
            ..Default::default()
        };
        assert_eq!(odd.execute_elapsed(), Duration::ZERO);
    }

    #[test]
    fn agg_layer_keeps_the_most_expensive() {
        assert!(AggLayer::Metadata < AggLayer::Dictionary);
        assert!(AggLayer::Dictionary < AggLayer::CapsuleScan);
        assert!(AggLayer::CapsuleScan < AggLayer::Reconstruct);
        let mut s = QueryStats::default();
        assert_eq!(s.agg_layer, None);
        s.note_agg_layer(AggLayer::Metadata);
        assert_eq!(s.agg_layer, Some(AggLayer::Metadata));
        s.note_agg_layer(AggLayer::Reconstruct);
        s.note_agg_layer(AggLayer::Dictionary);
        assert_eq!(s.agg_layer, Some(AggLayer::Reconstruct));
    }

    #[test]
    fn decompress_fraction() {
        let s = QueryStats {
            capsules_total: 8,
            capsules_decompressed: 2,
            ..Default::default()
        };
        assert!((s.decompress_fraction() - 0.25).abs() < 1e-9);
        assert_eq!(QueryStats::default().decompress_fraction(), 0.0);
    }

    #[test]
    fn views_from_snapshot() {
        use telemetry::{HistogramSnapshot, Snapshot};
        let hist = |sum: u64| HistogramSnapshot {
            count: 1,
            sum,
            min: sum,
            max: sum,
            buckets: vec![0; 65],
        };
        let snap = Snapshot {
            counters: vec![
                ("compress.bytes_raw".into(), 4096),
                ("extract.vectors.real".into(), 3),
                ("pack.capsules".into(), 9),
                ("query.capsules_decompressed".into(), 5),
                ("query.stamp_rejections".into(), 2),
                ("query.cache.hits".into(), 1),
            ],
            gauges: vec![],
            histograms: vec![
                ("compress".into(), hist(1_000_000)),
                ("query".into(), hist(500_000)),
                ("query/plan".into(), hist(60_000)),
                ("query/reconstruct/plan".into(), hist(40_000)),
            ],
        };
        let a = ArchiveStats::from_snapshot(&snap);
        assert_eq!(a.raw_size, 4096);
        assert_eq!(a.real_vectors, 3);
        assert_eq!(a.capsules, 9);
        assert_eq!(a.elapsed, Duration::from_nanos(1_000_000));
        let q = QueryStats::from_snapshot(&snap);
        assert_eq!(q.elapsed, Duration::from_nanos(500_000));
        assert_eq!(q.plan_elapsed, Duration::from_nanos(100_000));
        assert_eq!(q.capsules_decompressed, 5);
        assert_eq!(q.stamp_rejections, 2);
        assert!(q.cache_hit);
    }
}
