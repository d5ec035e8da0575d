//! Aggregate execution on compressed capsules: the aggregate sink of the
//! query pipeline (filter → project → aggregate).
//!
//! The filter stage produces a [`Selection`] (per-group row sets, or "all
//! rows"); the sink then pushes each [`AggSpec`] verb down to the cheapest
//! storage layer that can answer it:
//!
//! * `count`, `count-by-template`, `histogram` read only group metadata
//!   (row sets and line-number tables) — **zero Capsules decompressed**;
//! * unfiltered `top-K` over a nominal vector reads its per-value counts
//!   from metadata, rendering values from constant-only dictionary
//!   patterns (still zero decompressions) or from the dictionary Capsule
//!   (at most one decompression; the index Capsule stays untouched);
//! * filtered `top-K` over a nominal vector scans the index Capsule for
//!   the selected rows only;
//! * `top-K` over plain/real vectors falls back to lazy per-row value
//!   reconstruction — never full line rendering.
//!
//! The most expensive layer actually used is recorded in
//! [`QueryStats::agg_layer`] (and per-layer telemetry counters), which the
//! aggregate PlanDrift report checks against the planner's prediction.

use crate::boxfile::Archive;
use crate::capsule::CapsuleView;
use crate::error::{Error, Result};
use crate::extract::nominal::parse_index;
use crate::query::exec::{ExecCtx, Selection};
use crate::query::lang::{AggSpec, Query};
use crate::query::plan::AggTargetKind;
use crate::query::render::{Dict, Op};
use crate::stats::{AggLayer, QueryStats};
use crate::vector::VectorMeta;
use std::collections::HashMap;
use std::time::Instant;

/// The result of one aggregate query (canonically ordered, so equal
/// answers are structurally equal across engine configs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggResult {
    /// `count`: matching lines.
    Count(u64),
    /// `count-by-template`: `(template text, matching lines)`, count
    /// descending then template text ascending; zero-count templates are
    /// omitted.
    CountByTemplate(Vec<(String, u64)>),
    /// `top-K`: the **full** value distribution of the target slot
    /// (count descending then value ascending). Keeping every value makes
    /// cross-block merging exact; display truncates to `k`.
    TopK {
        /// How many values to display.
        k: usize,
        /// `(value bytes, occurrences)` over the selected rows.
        values: Vec<(Vec<u8>, u64)>,
    },
    /// `histogram B`: `(bucket start line, matching lines)` ascending;
    /// empty buckets are omitted.
    Histogram {
        /// Bucket width in lines.
        bucket: u64,
        /// Non-empty buckets, keyed by their first (global) line number.
        buckets: Vec<(u64, u64)>,
    },
}

impl AggResult {
    /// The empty result for `spec` (what an empty archive answers).
    pub fn empty(spec: &AggSpec) -> Self {
        match spec {
            AggSpec::Count => AggResult::Count(0),
            AggSpec::CountByTemplate => AggResult::CountByTemplate(Vec::new()),
            AggSpec::TopK { k, .. } => AggResult::TopK {
                k: *k,
                values: Vec::new(),
            },
            AggSpec::Histogram { bucket } => AggResult::Histogram {
                bucket: *bucket,
                buckets: Vec::new(),
            },
        }
    }

    /// Folds another block's result of the **same spec** into this one
    /// (counts add up; distributions merge by key and re-sort).
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadQuery`] when the two results answer different
    /// aggregate kinds (an API misuse, not a data error).
    pub fn merge(&mut self, other: &AggResult) -> Result<()> {
        match (self, other) {
            (AggResult::Count(a), AggResult::Count(b)) => {
                *a += b;
                Ok(())
            }
            (AggResult::CountByTemplate(a), AggResult::CountByTemplate(b)) => {
                let mut map: HashMap<String, u64> = a.drain(..).collect();
                for (t, c) in b {
                    *map.entry(t.clone()).or_insert(0) += c;
                }
                *a = map.into_iter().collect();
                sort_counts_str(a);
                Ok(())
            }
            (
                AggResult::TopK { values: a, .. },
                AggResult::TopK { values: b, .. },
            ) => {
                let mut map: HashMap<Vec<u8>, u64> = a.drain(..).collect();
                for (v, c) in b {
                    *map.entry(v.clone()).or_insert(0) += c;
                }
                *a = map.into_iter().collect();
                sort_counts_bytes(a);
                Ok(())
            }
            (
                AggResult::Histogram { bucket, buckets: a },
                AggResult::Histogram {
                    bucket: ob,
                    buckets: b,
                },
            ) => {
                if *bucket != *ob {
                    return Err(Error::BadQuery("histogram bucket widths differ".into()));
                }
                let mut map: HashMap<u64, u64> = a.drain(..).collect();
                for (s, c) in b {
                    *map.entry(*s).or_insert(0) += c;
                }
                *a = map.into_iter().collect();
                a.sort_unstable();
                Ok(())
            }
            _ => Err(Error::BadQuery("aggregate kinds differ".into())),
        }
    }

    /// Renders the result as a JSON object (the CLI `--json` body).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let push_str = telemetry::export::push_json_string;
        match self {
            AggResult::Count(n) => out.push_str(&format!("{{\"count\": {n}}}")),
            AggResult::CountByTemplate(groups) => {
                out.push_str("{\"templates\": [");
                for (i, (t, c)) in groups.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"template\": ");
                    push_str(&mut out, t);
                    out.push_str(&format!(", \"count\": {c}}}"));
                }
                out.push_str("]}");
            }
            AggResult::TopK { k, values } => {
                out.push_str(&format!("{{\"k\": {k}, \"values\": ["));
                for (i, (v, c)) in values.iter().take(*k).enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"value\": ");
                    push_str(&mut out, &String::from_utf8_lossy(v));
                    out.push_str(&format!(", \"count\": {c}}}"));
                }
                out.push_str(&format!("], \"distinct\": {}}}", values.len()));
            }
            AggResult::Histogram { bucket, buckets } => {
                out.push_str(&format!("{{\"bucket\": {bucket}, \"buckets\": ["));
                for (i, (s, c)) in buckets.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{{\"start\": {s}, \"count\": {c}}}"));
                }
                out.push_str("]}");
            }
        }
        out
    }
}

impl std::fmt::Display for AggResult {
    /// Human form: one line per entry, count first (like `uniq -c`).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggResult::Count(n) => writeln!(f, "{n}"),
            AggResult::CountByTemplate(groups) => {
                for (t, c) in groups {
                    writeln!(f, "{c:>8}  {t}")?;
                }
                Ok(())
            }
            AggResult::TopK { k, values } => {
                for (v, c) in values.iter().take(*k) {
                    writeln!(f, "{c:>8}  {}", String::from_utf8_lossy(v))?;
                }
                Ok(())
            }
            AggResult::Histogram { bucket, buckets } => {
                for (s, c) in buckets {
                    writeln!(f, "{c:>8}  [{s}, {})", s.saturating_add(*bucket))?;
                }
                Ok(())
            }
        }
    }
}

/// Count descending, then key ascending — the canonical order shared by
/// every engine config so results compare bytewise.
fn sort_counts_str(v: &mut [(String, u64)]) {
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
}

/// See [`sort_counts_str`].
fn sort_counts_bytes(v: &mut [(Vec<u8>, u64)]) {
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
}

/// The result of [`Archive::query_agg`]: the aggregate plus stats.
#[derive(Debug, Clone)]
pub struct AggQueryResult {
    /// The aggregate answer.
    pub agg: AggResult,
    /// Execution statistics ([`QueryStats::agg_layer`] records the most
    /// expensive layer that contributed).
    pub stats: QueryStats,
}

/// The aggregate cache key: distinct from (and structurally incapable of
/// colliding with) line-query keys — see `QueryCache`.
pub(crate) fn agg_cache_key(line_offset: u64, spec: &AggSpec, filter: Option<&str>) -> String {
    format!("{line_offset}|{}|{}", spec.render(), filter.unwrap_or(""))
}

impl Archive {
    /// Executes an aggregate query: `filter` (same language as
    /// [`Archive::query`]) restricts the lines, `spec` says what to
    /// compute over them. Pure metadata verbs never decompress a Capsule;
    /// see the module docs for the pushdown rules.
    pub fn query_agg(&self, filter: Option<&str>, spec: &AggSpec) -> Result<AggQueryResult> {
        self.query_agg_at(filter, spec, 0)
    }

    /// [`Archive::query_agg`] with this block's global line offset, so
    /// histogram buckets land on global line numbers when several blocks
    /// merge into one answer.
    pub fn query_agg_at(
        &self,
        filter: Option<&str>,
        spec: &AggSpec,
        line_offset: u64,
    ) -> Result<AggQueryResult> {
        let query = filter.map(Query::parse).transpose()?;
        let start = Instant::now();
        let _trace = telemetry::trace_scope();
        let _query_span = telemetry::span("query");
        telemetry::counter!("query.agg.executed", 1);
        let mut ctx = {
            let _span = telemetry::span("setup");
            ExecCtx::new(self)
        };
        ctx.stats.capsules_total = self.boxed.capsules.len() as u32;

        let key = agg_cache_key(line_offset, spec, filter);
        let agg = if self.use_query_cache {
            match self.cache.get_agg(&key) {
                Some(cached) => {
                    ctx.stats.cache_hit = true;
                    telemetry::counter!("query.cache.hits", 1);
                    cached
                }
                None => {
                    telemetry::counter!("query.cache.misses", 1);
                    let agg = ctx.run_agg(query.as_ref(), spec, line_offset)?;
                    self.cache.put_agg(&key, agg.clone());
                    agg
                }
            }
        } else {
            ctx.run_agg(query.as_ref(), spec, line_offset)?
        };

        let mut stats = ctx.take_stats();
        {
            let _span = telemetry::span("teardown");
            drop(ctx);
        }
        stats.elapsed = start.elapsed();
        Ok(AggQueryResult { agg, stats })
    }

    /// What the aggregate planner knows about a `top-K` target: used both
    /// for the pushdown prediction (`explain_agg`) and its drift check.
    pub(crate) fn agg_target_kind(&self, template: usize, slot: usize) -> AggTargetKind {
        match self
            .boxed
            .groups
            .get(template)
            .and_then(|g| g.vectors.get(slot))
        {
            None => AggTargetKind::Missing,
            Some(VectorMeta::Plain { .. }) => AggTargetKind::Plain,
            Some(VectorMeta::Real { .. }) => AggTargetKind::Real,
            Some(VectorMeta::Nominal { patterns, .. }) => {
                if patterns.iter().all(|p| p.pattern.sub_vars() == 0) {
                    AggTargetKind::NominalConst
                } else {
                    AggTargetKind::NominalMixed
                }
            }
        }
    }
}

impl ExecCtx<'_> {
    /// The full aggregate pipeline: filter → aggregate sink.
    fn run_agg(
        &mut self,
        query: Option<&Query>,
        spec: &AggSpec,
        line_offset: u64,
    ) -> Result<AggResult> {
        let selection = {
            let _span = telemetry::span("eval");
            self.filter_selection(query.map(|q| &q.expr))?
        };
        let _span = telemetry::span("aggregate");
        self.eval_agg(spec, &selection, line_offset)
    }

    /// Records that `layer` contributed to the aggregate answer.
    fn note_layer(&mut self, layer: AggLayer) {
        self.stats.note_agg_layer(layer);
        match layer {
            AggLayer::Metadata => telemetry::counter!("query.agg.layer.metadata", 1),
            AggLayer::Dictionary => telemetry::counter!("query.agg.layer.dictionary", 1),
            AggLayer::CapsuleScan => telemetry::counter!("query.agg.layer.capsule-scan", 1),
            AggLayer::Reconstruct => telemetry::counter!("query.agg.layer.reconstruct", 1),
        }
    }

    /// The aggregate sink: dispatches `spec` over `selection` at the
    /// cheapest layer (see the module docs for the rules).
    fn eval_agg(
        &mut self,
        spec: &AggSpec,
        selection: &Selection,
        line_offset: u64,
    ) -> Result<AggResult> {
        // Every verb at least reads group metadata.
        self.note_layer(AggLayer::Metadata);
        match spec {
            AggSpec::Count => {
                let n = match selection {
                    Selection::All => u64::from(self.archive.boxed.total_lines),
                    Selection::Rows(sets) => sets.iter().map(|s| s.len() as u64).sum(),
                };
                Ok(AggResult::Count(n))
            }
            AggSpec::CountByTemplate => {
                let mut map: HashMap<String, u64> = HashMap::new();
                for (gid, group) in self.archive.boxed.groups.iter().enumerate() {
                    let c = match selection {
                        Selection::All => u64::from(group.rows()),
                        Selection::Rows(sets) => {
                            sets.get(gid).map_or(0, |s| s.len() as u64)
                        }
                    };
                    if c > 0 {
                        *map.entry(group.template.display()).or_insert(0) += c;
                    }
                }
                let mut out: Vec<(String, u64)> = map.into_iter().collect();
                sort_counts_str(&mut out);
                Ok(AggResult::CountByTemplate(out))
            }
            AggSpec::Histogram { bucket } => {
                let mut map: HashMap<u64, u64> = HashMap::new();
                let mut bump = |line: u32| {
                    let global = line_offset + u64::from(line);
                    let start = (global / bucket) * bucket;
                    *map.entry(start).or_insert(0) += 1;
                };
                for (gid, group) in self.archive.boxed.groups.iter().enumerate() {
                    match selection {
                        Selection::All => group.line_numbers.iter().copied().for_each(&mut bump),
                        Selection::Rows(sets) => {
                            for r in sets.get(gid).map(|s| s.iter()).into_iter().flatten() {
                                let line = group
                                    .line_numbers
                                    .get(r as usize)
                                    .copied()
                                    .ok_or_else(|| {
                                        Error::Corrupt(
                                            "selected row outside group line table".into(),
                                        )
                                    })?;
                                bump(line);
                            }
                        }
                    }
                }
                let mut buckets: Vec<(u64, u64)> = map.into_iter().collect();
                buckets.sort_unstable();
                Ok(AggResult::Histogram {
                    bucket: *bucket,
                    buckets,
                })
            }
            AggSpec::TopK { k, template, slot } => {
                self.eval_top_k(*k, *template, *slot, selection)
            }
        }
    }

    /// The `top-K` sink: value frequencies of one template slot over the
    /// selected rows, at the cheapest layer the vector's storage form
    /// allows.
    fn eval_top_k(
        &mut self,
        k: usize,
        template: usize,
        slot: usize,
        selection: &Selection,
    ) -> Result<AggResult> {
        let empty = AggResult::TopK {
            k,
            values: Vec::new(),
        };
        // A missing target is an empty distribution, not an error: other
        // blocks of the same stream may well have the template.
        let Some(group) = self.archive.boxed.groups.get(template) else {
            return Ok(empty);
        };
        let Some(vector) = group.vectors.get(slot) else {
            return Ok(empty);
        };
        let selected: Option<Vec<u32>> = match selection {
            Selection::All => None,
            Selection::Rows(sets) => Some(
                sets.get(template)
                    .map(|s| s.iter().collect())
                    .unwrap_or_default(),
            ),
        };
        if selected.as_ref().is_some_and(Vec::is_empty) {
            return Ok(empty);
        }

        let mut values: Vec<(Vec<u8>, u64)> = match vector {
            VectorMeta::Nominal {
                patterns,
                dict_cap,
                index_cap,
                idx_len: _,
                dict_len,
                value_counts,
            } => {
                // Per-dictionary-value occurrence counts: from metadata
                // when unfiltered, else one scan of the index Capsule
                // restricted to the selected rows.
                let counts: Vec<u64> = match &selected {
                    None => value_counts.iter().copied().map(u64::from).collect(),
                    Some(rows) => {
                        self.note_layer(AggLayer::CapsuleScan);
                        let meta = self.meta(*index_cap)?;
                        let payload = self.payload(*index_cap)?;
                        let view = CapsuleView::new(payload, meta)?;
                        let mut counts = vec![0u64; *dict_len as usize];
                        for &row in rows {
                            if row as usize >= view.rows() {
                                return Err(Error::Corrupt(
                                    "selected row outside index capsule".into(),
                                ));
                            }
                            let idx = parse_index(view.value(row as usize))
                                .ok_or_else(|| Error::Corrupt("bad index value".into()))?;
                            *counts.get_mut(idx as usize).ok_or_else(|| {
                                Error::Corrupt("dict index out of range".into())
                            })? += 1;
                        }
                        counts
                    }
                };
                // Values: dictionary entries are deduplicated, so a
                // constant-only pattern holds exactly one value — rendered
                // from metadata. Variable-bearing patterns read the
                // dictionary Capsule (never the index Capsule).
                let regions = VectorMeta::dict_regions(patterns)?;
                let mut dict = Dict::new(&self.payloads, *dict_cap)?;
                let mut read_dictionary = false;
                let mut out = Vec::new();
                for (p, region) in patterns.iter().zip(&regions) {
                    let const_only = p.pattern.sub_vars() == 0;
                    for local in 0..region.count {
                        let idx = region.first_index + local;
                        let c = counts.get(idx as usize).copied().ok_or_else(|| {
                            Error::Corrupt("value counts shorter than dictionary".into())
                        })?;
                        if c == 0 {
                            continue;
                        }
                        let mut value = Vec::new();
                        if const_only {
                            p.pattern.render_into(&[] as &[&[u8]], &mut value);
                        } else {
                            read_dictionary = true;
                            dict.append(&regions, idx, &mut value)?;
                        }
                        out.push((value, c));
                    }
                }
                if read_dictionary {
                    self.note_layer(AggLayer::Dictionary);
                }
                out
            }
            VectorMeta::Plain { .. } | VectorMeta::Real { .. } => {
                // Value-typed vectors: lazily materialize this slot's
                // value per selected row (never the whole line).
                self.note_layer(AggLayer::Reconstruct);
                let mut map: HashMap<Vec<u8>, u64> = HashMap::new();
                let mut values = Op::for_vector(&self.payloads, vector)?;
                let mut value = Vec::new();
                let rows: Vec<u32> = match &selected {
                    None => (0..group.rows()).collect(),
                    Some(rows) => rows.clone(),
                };
                for row in rows {
                    value.clear();
                    values.append(row, &mut value)?;
                    *map.entry(value.clone()).or_insert(0) += 1;
                }
                map.into_iter().collect()
            }
        };
        sort_counts_bytes(&mut values);
        Ok(AggResult::TopK { k, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tk(values: &[(&str, u64)]) -> AggResult {
        AggResult::TopK {
            k: 2,
            values: values
                .iter()
                .map(|(v, c)| (v.as_bytes().to_vec(), *c))
                .collect(),
        }
    }

    #[test]
    fn merge_adds_counts_and_resorts() {
        let mut a = AggResult::Count(3);
        a.merge(&AggResult::Count(4)).unwrap();
        assert_eq!(a, AggResult::Count(7));

        let mut a = AggResult::CountByTemplate(vec![
            ("x <*>".into(), 5),
            ("y <*>".into(), 2),
        ]);
        a.merge(&AggResult::CountByTemplate(vec![
            ("y <*>".into(), 9),
            ("z".into(), 5),
        ]))
        .unwrap();
        assert_eq!(
            a,
            AggResult::CountByTemplate(vec![
                ("y <*>".into(), 11),
                ("x <*>".into(), 5),
                ("z".into(), 5),
            ])
        );

        // The FULL distribution merges (not the displayed top-k), so the
        // merged ranking is exact even when a value is outside each
        // block's own top-k.
        let mut a = tk(&[("a", 5), ("b", 4), ("c", 3)]);
        a.merge(&tk(&[("c", 4), ("d", 1)])).unwrap();
        assert_eq!(a, tk(&[("c", 7), ("a", 5), ("b", 4), ("d", 1)]));

        let mut a = AggResult::Histogram {
            bucket: 10,
            buckets: vec![(0, 3), (10, 1)],
        };
        a.merge(&AggResult::Histogram {
            bucket: 10,
            buckets: vec![(10, 2), (20, 4)],
        })
        .unwrap();
        assert_eq!(
            a,
            AggResult::Histogram {
                bucket: 10,
                buckets: vec![(0, 3), (10, 3), (20, 4)],
            }
        );
    }

    #[test]
    fn merge_rejects_mismatched_kinds() {
        let mut a = AggResult::Count(1);
        assert!(a.merge(&AggResult::CountByTemplate(vec![])).is_err());
        let mut h = AggResult::Histogram {
            bucket: 10,
            buckets: vec![],
        };
        assert!(h
            .merge(&AggResult::Histogram {
                bucket: 20,
                buckets: vec![]
            })
            .is_err());
    }

    #[test]
    fn ties_break_on_value_ascending() {
        let mut a = tk(&[]);
        a.merge(&tk(&[("b", 2), ("a", 2), ("c", 2)])).unwrap();
        assert_eq!(a, tk(&[("a", 2), ("b", 2), ("c", 2)]));
    }

    #[test]
    fn json_truncates_to_k_and_escapes() {
        let r = AggResult::TopK {
            k: 1,
            values: vec![(b"a\"b".to_vec(), 3), (b"x".to_vec(), 1)],
        };
        let json = r.to_json();
        assert!(json.contains("\"k\": 1"));
        assert!(json.contains("a\\\"b"));
        assert!(!json.contains("\"x\""), "{json}");
        assert!(json.contains("\"distinct\": 2"));
        assert_eq!(AggResult::Count(5).to_json(), "{\"count\": 5}");
    }

    #[test]
    fn display_truncates_to_k() {
        let r = tk(&[("a", 5), ("b", 4), ("c", 3)]);
        let text = r.to_string();
        assert!(text.contains("a") && text.contains("b"));
        assert!(!text.contains("c"), "{text}");
    }

    #[test]
    fn cache_keys_separate_offset_spec_and_filter() {
        let spec = AggSpec::Count;
        let a = agg_cache_key(0, &spec, None);
        let b = agg_cache_key(0, &spec, Some("x"));
        let c = agg_cache_key(1, &spec, None);
        let d = agg_cache_key(0, &AggSpec::CountByTemplate, None);
        let all = [&a, &b, &c, &d];
        for (i, x) in all.iter().enumerate() {
            for (j, y) in all.iter().enumerate() {
                assert_eq!(i == j, x == y, "{x} vs {y}");
            }
        }
    }
}
