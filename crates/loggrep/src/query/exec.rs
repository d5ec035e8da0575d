//! Query execution over a CapsuleBox (§5): Capsule locating with runtime
//! patterns, stamp filtering, fixed-length matching, and reconstruction.

use crate::boxfile::Archive;
use crate::capsule::{CapsuleMeta, Layout};
use crate::error::{Error, Result};
use crate::extract::nominal::{format_index, parse_index};
use crate::extract::DictPattern;
use crate::pattern::{RuntimePattern, Segment};
use crate::query::lang::{Expr, Query, SearchString};
use crate::query::plan::{plan, Conj, Mode, Plan, SegRef};
use crate::rowset::RowSet;
use crate::stats::QueryStats;
use crate::vector::VectorMeta;
use crate::PAD;
use logparse::{Piece, DEFAULT_DELIMS};
use std::collections::HashSet;
use std::time::Instant;
use strsearch::FixedRows;

/// The result of a query: matching lines in original log order.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Original (0-based) line numbers, ascending.
    pub line_numbers: Vec<u32>,
    /// The reconstructed lines, parallel to `line_numbers`.
    pub lines: Vec<Vec<u8>>,
    /// Execution statistics.
    pub stats: QueryStats,
}

impl QueryResult {
    /// The lines as lossy UTF-8 strings (logs are ASCII in practice).
    pub fn lines_utf8(&self) -> Vec<String> {
        self.lines
            .iter()
            .map(|l| String::from_utf8_lossy(l).into_owned())
            .collect()
    }
}

impl Archive {
    /// Executes a grep-like query command (see [`Query::parse`] for the
    /// language) and reconstructs the matching lines in original order.
    pub fn query(&self, command: &str) -> Result<QueryResult> {
        let query = Query::parse(command)?;
        let start = Instant::now();
        let _trace = telemetry::trace_scope();
        let _query_span = telemetry::span("query");
        telemetry::counter!("query.executed", 1);
        let mut ctx = {
            let _span = telemetry::span("setup");
            ExecCtx::new(self)
        };
        ctx.stats.capsules_total = self.boxed.capsules.len() as u32;

        let line_numbers = if self.use_query_cache {
            match self.cache.get(command) {
                Some(cached) => {
                    ctx.stats.cache_hit = true;
                    telemetry::counter!("query.cache.hits", 1);
                    cached
                }
                None => {
                    telemetry::counter!("query.cache.misses", 1);
                    let lines = ctx.eval_expr(&query.expr)?.into_vec();
                    self.cache.put(command, lines.clone());
                    lines
                }
            }
        } else {
            ctx.eval_expr(&query.expr)?.into_vec()
        };

        let lines = {
            let _span = telemetry::span("reconstruct");
            ctx.reconstruct(&line_numbers)?
        };
        let mut stats = std::mem::take(&mut ctx.stats);
        {
            // Payload buffers return to the arena here.
            let _span = telemetry::span("teardown");
            drop(ctx);
        }
        stats.elapsed = start.elapsed();
        Ok(QueryResult {
            line_numbers,
            lines,
            stats,
        })
    }

    /// Reconstructs every stored line in original order (the full-decompress
    /// path, used by tests and the `ggrep`-style fallback).
    pub fn reconstruct_all(&self) -> Result<Vec<Vec<u8>>> {
        let mut ctx = ExecCtx::new(self);
        let all: Vec<u32> = (0..self.boxed.total_lines).collect();
        ctx.reconstruct(&all)
    }
}

/// The filter stage's output: which rows of each group the rest of the
/// pipeline (reconstruction or an aggregate sink) operates on.
///
/// `All` is not just shorthand for "every row of every group": it lets
/// metadata-only aggregates answer without enumerating rows at all.
#[derive(Debug, Clone)]
pub(crate) enum Selection {
    /// No filter: every stored line is selected.
    All,
    /// Matching rows per group (vector-local row numbers), one entry per
    /// group in group order.
    Rows(Vec<RowSet>),
}

/// One decompressed Capsule of a query.
struct Loaded {
    bytes: Vec<u8>,
    /// Row byte-ranges of a delimited Capsule, computed on first row access.
    ranges: Option<Vec<(usize, usize)>>,
}

/// Per-query execution context: the archive handle, the query's statistics,
/// and its decompressed Capsules in a table indexed by Capsule id, so each
/// Capsule is decompressed at most once per query and the per-row render
/// path is one slice index. Reads are serial per block (blocks are the
/// unit of parallelism), so the context never crosses a thread.
pub(crate) struct ExecCtx<'a> {
    pub(crate) archive: &'a Archive,
    pub(crate) stats: QueryStats,
    loaded: Vec<Option<Loaded>>,
    scratch: RenderScratch,
}

impl Drop for ExecCtx<'_> {
    /// Returns the query's decompressed payload buffers to the archive's
    /// arena so the next query reuses their capacity instead of
    /// re-allocating megabytes of Vecs.
    fn drop(&mut self) {
        for loaded in self.loaded.drain(..).flatten() {
            self.archive.return_buffer(loaded.bytes);
        }
    }
}

impl<'a> ExecCtx<'a> {
    pub(crate) fn new(archive: &'a Archive) -> Self {
        let mut loaded = Vec::new();
        loaded.resize_with(archive.boxed.capsules.len(), || None);
        Self {
            archive,
            stats: QueryStats::default(),
            loaded,
            scratch: RenderScratch::default(),
        }
    }

    pub(crate) fn meta(&self, id: u32) -> Result<&'a CapsuleMeta> {
        self.archive
            .boxed
            .capsules
            .get(id as usize)
            .ok_or_else(|| Error::Corrupt(format!("capsule id {id} out of range")))
    }

    pub(crate) fn group(&self, gid: usize) -> Result<&'a crate::boxfile::GroupMeta> {
        self.archive
            .boxed
            .groups
            .get(gid)
            .ok_or_else(|| Error::Corrupt(format!("group {gid} out of range")))
    }

    /// The table entry of one Capsule, decompressing it on first use.
    fn load(&mut self, id: u32) -> Result<&mut Loaded> {
        let archive = self.archive;
        let slot = self
            .loaded
            .get_mut(id as usize)
            .ok_or_else(|| Error::Corrupt(format!("capsule id {id} out of range")))?;
        Ok(match slot {
            Some(loaded) => loaded,
            None => {
                // The buffer comes from (and on drop returns to) the
                // archive arena.
                let _span = telemetry::span("decompress");
                let mut bytes = archive.take_buffer();
                if let Err(e) = archive.boxed.decompress_capsule_into(id, &mut bytes) {
                    archive.return_buffer(bytes);
                    return Err(e);
                }
                self.stats.capsules_decompressed += 1;
                self.stats.bytes_decompressed += bytes.len() as u64;
                telemetry::counter!("query.capsules_decompressed", 1);
                telemetry::counter!("query.bytes_decompressed", bytes.len() as u64);
                slot.insert(Loaded {
                    bytes,
                    ranges: None,
                })
            }
        })
    }

    /// One Capsule's decompressed payload.
    pub(crate) fn payload(&mut self, id: u32) -> Result<&[u8]> {
        Ok(&self.load(id)?.bytes)
    }

    /// The bytes of `row` in a delimited Capsule.
    fn delimited_row(&mut self, id: u32, row: u32) -> Result<&[u8]> {
        let Loaded { bytes, ranges } = self.load(id)?;
        let ranges = match ranges {
            Some(ranges) => ranges,
            None => {
                let mut found = Vec::new();
                let mut start = 0usize;
                for (i, &b) in bytes.iter().enumerate() {
                    if b == b'\n' {
                        found.push((start, i));
                        start = i + 1;
                    }
                }
                if start != bytes.len() {
                    return Err(Error::Corrupt("delimited capsule missing trailer".into()));
                }
                ranges.insert(found)
            }
        };
        let &(lo, hi) = ranges
            .get(row as usize)
            .ok_or_else(|| Error::Corrupt("capsule row out of range".into()))?;
        bytes
            .get(lo..hi)
            .ok_or_else(|| Error::Corrupt("capsule row range outside payload".into()))
    }

    /// The unpadded value of `row` in a Capsule, appended into `out`
    /// (cleared first) so render loops reuse one buffer per slot.
    fn capsule_value_into(&mut self, id: u32, row: u32, out: &mut Vec<u8>) -> Result<()> {
        out.clear();
        match self.meta(id)?.layout {
            Layout::Padded { width } => {
                let payload = self.payload(id)?;
                let width = width as usize;
                if width == 0 || payload.len() % width != 0 {
                    return Err(Error::Corrupt("capsule payload misaligned".into()));
                }
                let f = FixedRows::new(payload, width, PAD);
                if (row as usize) >= f.rows() {
                    return Err(Error::Corrupt("capsule row out of range".into()));
                }
                out.extend_from_slice(f.value(row as usize));
            }
            Layout::Delimited => out.extend_from_slice(self.delimited_row(id, row)?),
            Layout::Raw => return Err(Error::Corrupt("raw capsule has no row addressing".into())),
        }
        Ok(())
    }

    /// Rows of a Capsule whose values satisfy `(mode, needle)`.
    fn capsule_find(&mut self, id: u32, needle: &[u8], mode: Mode) -> Result<Vec<u32>> {
        let meta = self.meta(id)?;
        let payload = self.payload(id)?;
        let _span = telemetry::span("search");
        let view = crate::capsule::CapsuleView::new(payload, meta)?;
        let hits = view.find(needle, mode);
        telemetry::counter!("query.capsule_scans", 1);
        Ok(hits)
    }

    /// Stamp pre-filter (§5.1): false means the requirement cannot match and
    /// the Capsule need not be decompressed.
    fn stamp_admits(&mut self, id: u32, needle: &[u8]) -> bool {
        if !self.archive.use_stamps {
            return true;
        }
        let _span = telemetry::span("stamp");
        telemetry::counter!("query.stamp_checks", 1);
        // A bad Capsule id keeps the filter fail-open; the subsequent
        // decompression reports the Corrupt error with context.
        let Ok(meta) = self.meta(id) else { return true };
        let ok = meta.stamp.admits(needle);
        if !ok {
            self.stats.stamp_rejections += 1;
            telemetry::counter!("query.stamp_rejections", 1);
        }
        ok
    }

    /// Counts one row materialized for wildcard/overflow verification.
    fn note_row_verified(&mut self) {
        self.stats.rows_verified += 1;
        telemetry::counter!("query.rows_verified", 1);
    }

    /// Runs the Capsule-locating planner (§5.1) under the `plan` span,
    /// accumulating its wall time into the per-query plan/execute split.
    fn plan_timed(&mut self, segs: &[SegRef<'_>], needle: &[u8], mode: Mode) -> Plan {
        let _span = telemetry::span("plan");
        let t = Instant::now();
        let p = plan(segs, needle, mode);
        self.stats.plan_elapsed += t.elapsed();
        p
    }

    // ------------------------------------------------------------------
    // Expression evaluation (global line-number sets).
    // ------------------------------------------------------------------

    /// Evaluates the whole expression to global line numbers.
    ///
    /// Internally everything is per-group: a line belongs to exactly one
    /// group, so `and`/`or`/`not` distribute over groups. That enables the
    /// progressive-matching optimization (as in CLP's keyword chaining): the
    /// right side of an `and`/`not` is only evaluated on groups where the
    /// left side still has candidate rows.
    fn eval_expr(&mut self, expr: &Expr) -> Result<RowSet> {
        let _span = telemetry::span("eval");
        let selection = self.filter_selection(Some(expr))?;
        self.selection_lines(&selection)
    }

    /// The filter stage of the pipeline: evaluates an optional filter
    /// expression into a [`Selection`]. `None` selects everything without
    /// touching any Capsule.
    pub(crate) fn filter_selection(&mut self, expr: Option<&Expr>) -> Result<Selection> {
        match expr {
            None => Ok(Selection::All),
            Some(expr) => {
                let ngroups = self.archive.boxed.groups.len();
                Ok(Selection::Rows(
                    self.eval_expr_groups(expr, &vec![false; ngroups])?,
                ))
            }
        }
    }

    /// Maps a [`Selection`] to global line numbers (the line-set sink of
    /// the pipeline).
    fn selection_lines(&self, selection: &Selection) -> Result<RowSet> {
        let per_group = match selection {
            Selection::All => return Ok(RowSet::all(self.archive.boxed.total_lines)),
            Selection::Rows(per_group) => per_group,
        };
        let mut global = Vec::new();
        for (rows, group) in per_group.iter().zip(&self.archive.boxed.groups) {
            for r in rows.iter() {
                let line = group.line_numbers.get(r as usize).copied().ok_or_else(|| {
                    Error::Corrupt("matched row outside group line table".into())
                })?;
                global.push(line);
            }
        }
        Ok(RowSet::from_unsorted(global))
    }

    fn eval_expr_groups(&mut self, expr: &Expr, skip: &[bool]) -> Result<Vec<RowSet>> {
        match expr {
            Expr::Str(s) => self.eval_str_over_groups(s, skip),
            Expr::And(a, b) => {
                let ra = self.eval_expr_groups(a, skip)?;
                let skip_b: Vec<bool> = ra
                    .iter()
                    .zip(skip)
                    .map(|(rows, &s)| s || rows.is_empty())
                    .collect();
                let rb = self.eval_expr_groups(b, &skip_b)?;
                Ok(ra
                    .iter()
                    .zip(&rb)
                    .map(|(x, y)| x.intersect(y))
                    .collect())
            }
            Expr::Or(a, b) => {
                let ra = self.eval_expr_groups(a, skip)?;
                let rb = self.eval_expr_groups(b, skip)?;
                Ok(ra.iter().zip(&rb).map(|(x, y)| x.union(y)).collect())
            }
            Expr::Not(a, b) => {
                let ra = self.eval_expr_groups(a, skip)?;
                let skip_b: Vec<bool> = ra
                    .iter()
                    .zip(skip)
                    .map(|(rows, &s)| s || rows.is_empty())
                    .collect();
                let rb = self.eval_expr_groups(b, &skip_b)?;
                Ok(ra.iter().zip(&rb).map(|(x, y)| x.subtract(y)).collect())
            }
        }
    }

    /// Evaluates one search string over every non-skipped group.
    fn eval_str_over_groups(&mut self, s: &SearchString, skip: &[bool]) -> Result<Vec<RowSet>> {
        let mut out = Vec::with_capacity(skip.len());
        for (gid, &skipped) in skip.iter().enumerate() {
            if skipped {
                out.push(RowSet::empty());
            } else {
                out.push(self.eval_search_in_group(s, gid)?);
            }
        }
        Ok(out)
    }

    fn eval_search_in_group(&mut self, s: &SearchString, gid: usize) -> Result<RowSet> {
        if let Some(lit) = s.as_literal() {
            return self.eval_literal_in_group(gid, lit);
        }
        // Wildcard string: locate candidates with the longest literal
        // fragment, then verify by reconstruction.
        let frag = s.longest_literal();
        let group_rows = self.group(gid)?.rows();
        let candidates = if frag.is_empty() {
            RowSet::all(group_rows)
        } else {
            self.eval_literal_in_group(gid, frag)?
        };
        let rows: Vec<u32> = candidates.iter().collect();
        self.verify_rows(gid, &rows, |line| s.matches_line(line, DEFAULT_DELIMS))
    }

    /// Renders each of `rows` (ascending) and keeps those passing `pred` —
    /// the verify-by-reconstruction step shared by wildcard searches and
    /// the planner's Overflow fallback.
    fn verify_rows(
        &mut self,
        gid: usize,
        rows: &[u32],
        pred: impl Fn(&[u8]) -> bool,
    ) -> Result<RowSet> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut hits = Vec::new();
        for &row in rows {
            self.render_row_into(gid, row, &mut scratch)?;
            self.note_row_verified();
            if pred(&scratch.line) {
                hits.push(row);
            }
        }
        self.scratch = scratch;
        Ok(RowSet::from_sorted(hits))
    }

    /// Rows of a group whose rendered line contains the literal `kw`.
    fn eval_literal_in_group(&mut self, gid: usize, kw: &[u8]) -> Result<RowSet> {
        let _span = telemetry::span("literal");
        let group = self.group(gid)?;
        let nrows = group.rows();
        if nrows == 0 {
            return Ok(RowSet::empty());
        }
        let pieces = group.template.pieces();
        let segs: Vec<SegRef<'_>> = pieces
            .iter()
            .map(|p| match p {
                Piece::Static(s) => SegRef::Const(s.as_slice()),
                Piece::Slot(i) => SegRef::Var(*i),
            })
            .collect();
        match self.plan_timed(&segs, kw, Mode::Contains) {
            Plan::All => Ok(RowSet::all(nrows)),
            Plan::Overflow => self.brute_force_group(gid, |line| strsearch::contains(line, kw)),
            Plan::Conjs(conjs) => {
                if conjs.is_empty() {
                    self.stats.groups_skipped += 1;
                    telemetry::counter!("query.groups_skipped", 1);
                    return Ok(RowSet::empty());
                }
                let mut out = RowSet::empty();
                for conj in &conjs {
                    let rows = self.eval_conj_on_slots(gid, conj, kw, nrows)?;
                    out = out.union(&rows);
                }
                Ok(out)
            }
        }
    }

    /// Intersection of slot-requirements of one conjunction.
    fn eval_conj_on_slots(
        &mut self,
        gid: usize,
        conj: &Conj,
        kw: &[u8],
        nrows: u32,
    ) -> Result<RowSet> {
        let mut rows = RowSet::all(nrows);
        for req in conj {
            if rows.is_empty() {
                break;
            }
            let part = kw
                .get(req.lo..req.hi)
                .ok_or_else(|| Error::Corrupt("plan range outside keyword".into()))?;
            let hit = self.eval_var_req(gid, req.var, part, req.mode)?;
            rows = rows.intersect(&hit);
        }
        Ok(rows)
    }

    /// Group rows whose value of slot `slot` satisfies `(mode, needle)` —
    /// the per-variable-vector matching of §5.1, dispatching on storage form.
    fn eval_var_req(
        &mut self,
        gid: usize,
        slot: usize,
        needle: &[u8],
        mode: Mode,
    ) -> Result<RowSet> {
        // Borrow through the 'a archive reference, which outlives &mut self,
        // so no clone of the vector metadata is needed.
        let group = self.group(gid)?;
        let nrows = group.rows();
        let vector = group
            .vectors
            .get(slot)
            .ok_or_else(|| Error::Corrupt("template slot outside vector table".into()))?;
        match vector {
            VectorMeta::Plain { capsule } => {
                if !self.stamp_admits(*capsule, needle) {
                    return Ok(RowSet::empty());
                }
                Ok(RowSet::from_sorted(
                    self.capsule_find(*capsule, needle, mode)?,
                ))
            }
            VectorMeta::Real {
                pattern,
                sub_caps,
                outlier_cap,
                outlier_rows,
            } => {
                let mut out = self.eval_real_pattern(
                    gid,
                    slot,
                    pattern,
                    sub_caps,
                    outlier_rows,
                    nrows,
                    needle,
                    mode,
                )?;
                // The outlier Capsule is always scanned (§4.1). Its row
                // count is untrusted, so hits are mapped fallibly.
                if !outlier_rows.is_empty() {
                    let hits = self.capsule_find(*outlier_cap, needle, mode)?;
                    let mut mapped = Vec::with_capacity(hits.len());
                    for r in hits {
                        mapped.push(outlier_rows.get(r as usize).copied().ok_or_else(|| {
                            Error::Corrupt("outlier capsule row outside outlier table".into())
                        })?);
                    }
                    out = out.union(&RowSet::from_sorted(mapped));
                }
                Ok(out)
            }
            VectorMeta::Nominal {
                patterns,
                dict_cap,
                index_cap,
                idx_len,
                dict_len,
                ..
            } => self.eval_nominal(
                patterns, *dict_cap, *index_cap, *idx_len, *dict_len, needle, mode, nrows,
            ),
        }
    }

    /// The runtime-pattern path for a real vector.
    #[allow(clippy::too_many_arguments)]
    fn eval_real_pattern(
        &mut self,
        gid: usize,
        slot: usize,
        pattern: &RuntimePattern,
        sub_caps: &[u32],
        outlier_rows: &[u32],
        nrows: u32,
        needle: &[u8],
        mode: Mode,
    ) -> Result<RowSet> {
        let segs: Vec<SegRef<'_>> = pattern
            .segments
            .iter()
            .map(|s| match s {
                Segment::Const(c) => SegRef::Const(c.as_slice()),
                Segment::Var(v) => SegRef::Var(*v),
            })
            .collect();
        let pattern_rows = || VectorMeta::pattern_row_map(outlier_rows, nrows);
        match self.plan_timed(&segs, needle, mode) {
            Plan::All => Ok(RowSet::from_sorted(pattern_rows())),
            Plan::Overflow => {
                // Scan the variable vector by materializing values into
                // reused scratch buffers.
                let map = pattern_rows();
                let mut subs: Vec<Vec<u8>> = Vec::new();
                let mut value = Vec::new();
                let mut hits = Vec::new();
                for (pr, &row) in map.iter().enumerate() {
                    self.real_value_into(pattern, sub_caps, pr as u32, &mut subs, &mut value)?;
                    self.note_row_verified();
                    if value_matches(&value, needle, mode) {
                        hits.push(row);
                    }
                }
                let _ = (gid, slot);
                Ok(RowSet::from_sorted(hits))
            }
            Plan::Conjs(conjs) => {
                let map = pattern_rows();
                let total_pattern_rows = map.len() as u32;
                let mut out = RowSet::empty();
                for conj in &conjs {
                    let mut rows = RowSet::all(total_pattern_rows);
                    for req in conj {
                        if rows.is_empty() {
                            break;
                        }
                        let part = needle
                            .get(req.lo..req.hi)
                            .ok_or_else(|| Error::Corrupt("plan range outside keyword".into()))?;
                        let cap = sub_caps.get(req.var).copied().ok_or_else(|| {
                            Error::Corrupt("plan sub-variable outside capsule table".into())
                        })?;
                        if !self.stamp_admits(cap, part) {
                            rows = RowSet::empty();
                            break;
                        }
                        let hit = RowSet::from_sorted(self.capsule_find(cap, part, req.mode)?);
                        rows = rows.intersect(&hit);
                    }
                    out = out.union(&rows);
                }
                // Map pattern rows to vector rows.
                let mut vec_rows = Vec::new();
                for pr in out.iter() {
                    vec_rows.push(map.get(pr as usize).copied().ok_or_else(|| {
                        Error::Corrupt("pattern row outside row map".into())
                    })?);
                }
                Ok(RowSet::from_sorted(vec_rows))
            }
        }
    }

    /// The dictionary + index path for a nominal vector (§5.1 differences).
    #[allow(clippy::too_many_arguments)]
    fn eval_nominal(
        &mut self,
        patterns: &[DictPattern],
        dict_cap: u32,
        index_cap: u32,
        idx_len: u32,
        dict_len: u32,
        needle: &[u8],
        mode: Mode,
        nrows: u32,
    ) -> Result<RowSet> {
        let _span = telemetry::span("nominal");
        let regions = VectorMeta::dict_regions(patterns)?;
        let fixed = matches!(self.meta(dict_cap)?.layout, Layout::Raw);
        let mut matched: Vec<u32> = Vec::new();
        for (p, region) in patterns.iter().zip(&regions) {
            if needle.len() as u32 > p.max_len {
                continue;
            }
            if !self.dict_pattern_could_match(p, needle, mode) {
                continue;
            }
            // Jump straight to the region (Σ countᵢ×lenᵢ, §5.2) and scan it.
            let hits: Vec<u32> = if fixed {
                let payload = self.payload(dict_cap)?;
                let _span = telemetry::span("search");
                let bytes = region_bytes(payload, region)?;
                let width = region.width as usize;
                FixedRows::new(bytes, width, PAD)
                    .find(needle, mode)
                    .into_iter()
                    .map(|r| r + region.first_index)
                    .collect()
            } else {
                let meta = self.meta(dict_cap)?;
                let payload = self.payload(dict_cap)?;
                let _span = telemetry::span("search");
                let view = crate::capsule::CapsuleView::new(payload, meta)?;
                view.find_in_rows(
                    needle,
                    mode,
                    region.first_index,
                    // Validated at region construction not to overflow;
                    // saturate rather than trust the archive.
                    region.first_index.saturating_add(region.count),
                )
            };
            matched.extend(hits);
        }
        if matched.is_empty() {
            return Ok(RowSet::empty());
        }
        debug_assert!(matched.iter().all(|&i| i < dict_len));

        // Search the matched indices in the index Capsule.
        if matched.len() <= 8 {
            let mut out = RowSet::empty();
            for idx in &matched {
                let formatted = format_index(*idx, idx_len);
                let rows = self.capsule_find(index_cap, &formatted, Mode::Exact)?;
                out = out.union(&RowSet::from_sorted(rows));
            }
            Ok(out)
        } else {
            // One pass over the decompressed index Capsule with a membership
            // set (row addressing is O(1) thanks to the fixed width, §5.2).
            let set: HashSet<u32> = matched.into_iter().collect();
            let meta = self.meta(index_cap)?;
            let payload = self.payload(index_cap)?;
            let view = crate::capsule::CapsuleView::new(payload, meta)?;
            let mut rows = Vec::new();
            for row in 0..nrows.min(view.rows() as u32) {
                let idx = parse_index(view.value(row as usize))
                    .ok_or_else(|| Error::Corrupt("bad index value".into()))?;
                if set.contains(&idx) {
                    rows.push(row);
                }
            }
            Ok(RowSet::from_sorted(rows))
        }
    }

    /// Could `(mode, needle)` match any value of this dictionary pattern?
    /// Pattern structure plus sub-variable stamps — no decompression.
    fn dict_pattern_could_match(&mut self, p: &DictPattern, needle: &[u8], mode: Mode) -> bool {
        let segs: Vec<SegRef<'_>> = p
            .pattern
            .segments
            .iter()
            .map(|s| match s {
                Segment::Const(c) => SegRef::Const(c.as_slice()),
                Segment::Var(v) => SegRef::Var(*v),
            })
            .collect();
        match self.plan_timed(&segs, needle, mode) {
            Plan::All | Plan::Overflow => true,
            Plan::Conjs(conjs) => {
                if !self.archive.use_stamps {
                    return !conjs.is_empty();
                }
                // Out-of-range plan references stay fail-open (true): the
                // filter may only skip a Capsule when the stamp proves a
                // non-match.
                let admits_all = |conj: &Conj| {
                    conj.iter().all(|req| {
                        p.pattern.sub_stamps.get(req.var).is_none_or(|s| {
                            needle.get(req.lo..req.hi).is_none_or(|part| s.admits(part))
                        })
                    })
                };
                if !conjs.is_empty() {
                    telemetry::counter!("query.stamp_checks", 1);
                }
                let ok = conjs.iter().any(admits_all);
                if !ok && !conjs.is_empty() {
                    self.stats.stamp_rejections += 1;
                    telemetry::counter!("query.stamp_rejections", 1);
                }
                ok
            }
        }
    }

    // ------------------------------------------------------------------
    // Value reconstruction.
    // ------------------------------------------------------------------

    /// The value of sub-variable capsules assembled through a pattern,
    /// rendered into `out` (cleared first). `subs` is the caller's reusable
    /// per-sub-variable scratch.
    fn real_value_into(
        &mut self,
        pattern: &RuntimePattern,
        sub_caps: &[u32],
        pattern_row: u32,
        subs: &mut Vec<Vec<u8>>,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        if subs.len() < sub_caps.len() {
            subs.resize_with(sub_caps.len(), Vec::new);
        }
        for (sub, &cap) in subs.iter_mut().zip(sub_caps) {
            self.capsule_value_into(cap, pattern_row, sub)?;
        }
        pattern.render_into(subs.get(..sub_caps.len()).unwrap_or_default(), out);
        Ok(())
    }

    /// The value of slot `slot` on group row `row`, rendered into `out`
    /// (cleared first). `subs` is the caller's reusable sub-variable
    /// scratch for pattern-decomposed vectors.
    pub(crate) fn slot_value_into(
        &mut self,
        gid: usize,
        slot: usize,
        row: u32,
        subs: &mut Vec<Vec<u8>>,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let vector = self
            .group(gid)?
            .vectors
            .get(slot)
            .ok_or_else(|| Error::Corrupt("template slot outside vector table".into()))?;
        match vector {
            VectorMeta::Plain { capsule } => self.capsule_value_into(*capsule, row, out),
            VectorMeta::Real {
                pattern,
                sub_caps,
                outlier_cap,
                outlier_rows,
            } => match outlier_rows.binary_search(&row) {
                Ok(outlier_pos) => self.capsule_value_into(*outlier_cap, outlier_pos as u32, out),
                Err(outliers_before) => {
                    let pattern_row = row - outliers_before as u32;
                    self.real_value_into(pattern, sub_caps, pattern_row, subs, out)
                }
            },
            VectorMeta::Nominal {
                patterns,
                dict_cap,
                index_cap,
                ..
            } => {
                self.capsule_value_into(*index_cap, row, out)?;
                let idx =
                    parse_index(out).ok_or_else(|| Error::Corrupt("bad index value".into()))?;
                self.dict_value_into(patterns, *dict_cap, idx, out)
            }
        }
    }

    /// The dictionary value with global index `idx`, rendered into `out`
    /// (cleared first).
    pub(crate) fn dict_value_into(
        &mut self,
        patterns: &[DictPattern],
        dict_cap: u32,
        idx: u32,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let fixed = matches!(self.meta(dict_cap)?.layout, Layout::Raw);
        if fixed {
            out.clear();
            let regions = VectorMeta::dict_regions(patterns)?;
            let region = regions
                .iter()
                .rev()
                .find(|r| r.first_index <= idx)
                .ok_or_else(|| Error::Corrupt("dict index out of range".into()))?;
            if idx - region.first_index >= region.count {
                return Err(Error::Corrupt("dict index out of range".into()));
            }
            let payload = self.payload(dict_cap)?;
            let bytes = region_bytes(payload, region)?;
            let width = region.width as usize;
            let rows = FixedRows::new(bytes, width, PAD);
            let local = (idx - region.first_index) as usize;
            if local >= rows.rows() && width > 0 {
                return Err(Error::Corrupt("dict index outside region".into()));
            }
            if width == 0 {
                // A zero-width region stores only empty values.
                return Ok(());
            }
            out.extend_from_slice(rows.value(local));
            Ok(())
        } else {
            self.capsule_value_into(dict_cap, idx, out)
        }
    }

    /// Renders the full original line of group row `row` into
    /// `scratch.line`, materializing each slot value into the scratch's
    /// reused buffers — only this row's column values are ever touched.
    fn render_row_into(&mut self, gid: usize, row: u32, scratch: &mut RenderScratch) -> Result<()> {
        let group = self.group(gid)?;
        let slots = group.vectors.len();
        if scratch.values.len() < slots {
            scratch.values.resize_with(slots, Vec::new);
        }
        let RenderScratch { values, subs, line } = scratch;
        for (slot, value) in values.iter_mut().take(slots).enumerate() {
            self.slot_value_into(gid, slot, row, subs, value)?;
        }
        group
            .template
            .render_into(values.get(..slots).unwrap_or_default(), line);
        Ok(())
    }

    /// Reconstructs every row of a group and keeps those passing `pred`.
    fn brute_force_group(&mut self, gid: usize, pred: impl Fn(&[u8]) -> bool) -> Result<RowSet> {
        let nrows = self.group(gid)?.rows();
        let rows: Vec<u32> = (0..nrows).collect();
        self.verify_rows(gid, &rows, pred)
    }

    /// Reconstructs the given global line numbers, in ascending line order.
    ///
    /// Groups hold their rows in original order, so entries of one group are
    /// naturally ordered; across groups the stored line numbers (logical
    /// timestamps) restore the global order, as in §3's Reconstruction.
    fn reconstruct(&mut self, line_numbers: &[u32]) -> Result<Vec<Vec<u8>>> {
        let wanted = RowSet::from_unsorted(line_numbers.to_vec());
        let index = self.archive.line_index();
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut out = Vec::with_capacity(wanted.len());
        for lineno in wanted.iter() {
            let &(gid, row) = index
                .get(lineno as usize)
                .ok_or_else(|| Error::Corrupt("line number out of range".into()))?;
            if gid == u32::MAX {
                return Err(Error::Corrupt("line number missing from groups".into()));
            }
            self.render_row_into(gid as usize, row, &mut scratch)?;
            out.push(scratch.line.clone());
        }
        self.scratch = scratch;
        Ok(out)
    }
}

/// Reusable buffers for rendering rows: per-slot value buffers,
/// sub-variable buffers and the rendered line, so rendering a row allocates
/// nothing once they are warm — the row-level counterpart of the archive's
/// payload arena. A query owns one; its render loops take it out of the
/// context and put it back, and buffers grow to the widest row seen.
#[derive(Default)]
struct RenderScratch {
    /// One value buffer per template slot.
    values: Vec<Vec<u8>>,
    /// One buffer per runtime-pattern sub-variable.
    subs: Vec<Vec<u8>>,
    /// The rendered line.
    line: Vec<u8>,
}

/// Slices a dictionary region out of a decompressed payload, rejecting
/// regions whose declared extent overflows or exceeds the payload.
fn region_bytes<'p>(payload: &'p [u8], region: &crate::vector::DictRegion) -> Result<&'p [u8]> {
    let span = usize::try_from(u64::from(region.count) * u64::from(region.width))
        .map_err(|_| Error::Corrupt("dict region overflow".into()))?;
    let end = region
        .byte_offset
        .checked_add(span)
        .ok_or_else(|| Error::Corrupt("dict region overflow".into()))?;
    payload
        .get(region.byte_offset..end)
        .ok_or_else(|| Error::Corrupt("dict region outside payload".into()))
}

/// Direct value/needle check shared by scan fallbacks.
fn value_matches(value: &[u8], needle: &[u8], mode: Mode) -> bool {
    match mode {
        Mode::Contains => strsearch::contains(value, needle),
        Mode::Prefix => value.starts_with(needle),
        Mode::Suffix => value.ends_with(needle),
        Mode::Exact => value == needle,
    }
}
