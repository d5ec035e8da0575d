//! Query execution over a CapsuleBox (§5): Capsule locating with runtime
//! patterns, stamp filtering, fixed-length matching, and reconstruction.

use crate::boxfile::{Archive, Loaded};
use crate::capsule::{CapsuleMeta, Layout};
use crate::error::{Error, Result};
use crate::extract::nominal::{format_index, parse_index};
use crate::query::lang::{Expr, Query, SearchString};
use crate::query::locate::{locate, Matches, Probe, Target};
use crate::query::plan::Mode;
use crate::query::render::{group_ops, Op};
use crate::rowset::RowSet;
use crate::stats::QueryStats;
use crate::vector::{DictRegion, VectorMeta};
use crate::PAD;
use logparse::DEFAULT_DELIMS;
use std::cell::OnceCell;
use std::collections::HashSet;
use std::time::Instant;
use strsearch::{Finder, FixedRows};

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
        // A single search string's verified rows are exactly its result, so
        // their rendered lines can become the result's lines. Under
        // `and`/`not` a later operand may discard most of them, so
        // composites keep nothing.
        ctx.keep_verified = matches!(query.expr, Expr::Str(_));

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
        let mut stats = ctx.take_stats();
        {
            // The query's Capsules become resident here.
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

/// A query's decompressed Capsules, in a table indexed by Capsule id: each
/// Capsule is loaded at most once per query, on first use — moved out of the
/// archive's resident table if a previous query left it there, decompressed
/// otherwise. Cells are written once behind a shared reference, so the
/// column readers of `query::render` can hold payload slices while further
/// Capsules load. Reads are serial per block (blocks are the unit of
/// parallelism), so the table never crosses a thread.
pub(crate) struct Payloads<'a> {
    archive: &'a Archive,
    cells: Vec<OnceCell<Loaded>>,
}

impl Drop for Payloads<'_> {
    /// Leaves the query's Capsules resident in the archive, so the next
    /// query that touches them does not decompress them again.
    fn drop(&mut self) {
        let cells = std::mem::take(&mut self.cells).into_iter();
        self.archive.put_back_resident(
            (0u32..)
                .zip(cells)
                .filter_map(|(id, cell)| Some((id, cell.into_inner()?))),
        );
    }
}

impl<'a> Payloads<'a> {
    pub(crate) fn meta(&self, id: u32) -> Result<&'a CapsuleMeta> {
        self.archive
            .boxed
            .capsules
            .get(id as usize)
            .ok_or_else(|| Error::Corrupt(format!("capsule id {id} out of range")))
    }

    /// The table entry of one Capsule, loading it on first use.
    fn load(&self, id: u32) -> Result<&Loaded> {
        let cell = self
            .cells
            .get(id as usize)
            .ok_or_else(|| Error::Corrupt(format!("capsule id {id} out of range")))?;
        if let Some(loaded) = cell.get() {
            return Ok(loaded);
        }
        let loaded = match self.archive.take_resident(id)? {
            Some(loaded) => {
                telemetry::counter!("query.resident.hits", 1);
                telemetry::counter!("query.resident.bytes", loaded.bytes.len() as u64);
                loaded
            }
            None => {
                let _span = telemetry::span("decompress");
                let bytes = self.archive.boxed.decompress_capsule(id)?;
                telemetry::counter!("query.capsules_decompressed", 1);
                telemetry::counter!("query.bytes_decompressed", bytes.len() as u64);
                Loaded {
                    bytes,
                    ranges: OnceCell::new(),
                    was_resident: false,
                }
            }
        };
        Ok(cell.get_or_init(|| loaded))
    }

    /// One Capsule's decompressed payload.
    pub(crate) fn bytes(&self, id: u32) -> Result<&[u8]> {
        Ok(&self.load(id)?.bytes)
    }

    /// The byte range of each row of a delimited Capsule's payload.
    pub(crate) fn row_ranges(&self, id: u32) -> Result<&[(usize, usize)]> {
        let Loaded { bytes, ranges, .. } = self.load(id)?;
        if let Some(ranges) = ranges.get() {
            return Ok(ranges);
        }
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
        Ok(ranges.get_or_init(|| found))
    }
}

/// Per-query execution context: the archive handle, the query's statistics,
/// its decompressed Capsules and the lines verification already rendered.
pub(crate) struct ExecCtx<'a> {
    pub(crate) archive: &'a Archive,
    pub(crate) stats: QueryStats,
    pub(crate) payloads: Payloads<'a>,
    /// Whether `verify_rows` keeps the lines it passes for `reconstruct`.
    keep_verified: bool,
    /// Per group, the `(row, rendered line)` pairs the last verification of
    /// that group passed, ascending by row. Empty (unallocated) until the
    /// first verification under `keep_verified`.
    kept: Vec<Vec<(u32, Vec<u8>)>>,
}

impl<'a> ExecCtx<'a> {
    pub(crate) fn new(archive: &'a Archive) -> Self {
        let mut cells = Vec::new();
        cells.resize_with(archive.boxed.capsules.len(), OnceCell::new);
        Self {
            archive,
            stats: QueryStats::default(),
            payloads: Payloads { archive, cells },
            keep_verified: false,
            kept: Vec::new(),
        }
    }

    /// Moves the statistics out, with the Capsule counts read off the
    /// payload table (one entry per Capsule the query touched).
    pub(crate) fn take_stats(&mut self) -> QueryStats {
        let mut stats = std::mem::take(&mut self.stats);
        for loaded in self.payloads.cells.iter().filter_map(OnceCell::get) {
            let (capsules, bytes) = if loaded.was_resident {
                (&mut stats.capsules_resident, &mut stats.bytes_resident)
            } else {
                (&mut stats.capsules_decompressed, &mut stats.bytes_decompressed)
            };
            *capsules += 1;
            *bytes += loaded.bytes.len() as u64;
        }
        stats
    }

    pub(crate) fn meta(&self, id: u32) -> Result<&'a CapsuleMeta> {
        self.payloads.meta(id)
    }

    pub(crate) fn group(&self, gid: usize) -> Result<&'a crate::boxfile::GroupMeta> {
        self.archive
            .boxed
            .groups
            .get(gid)
            .ok_or_else(|| Error::Corrupt(format!("group {gid} out of range")))
    }

    /// One Capsule's decompressed payload.
    pub(crate) fn payload(&self, id: u32) -> Result<&[u8]> {
        self.payloads.bytes(id)
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

    /// Counts rows materialized for wildcard/overflow verification.
    fn note_rows_verified(&mut self, rows: usize) {
        self.stats.rows_verified += rows;
        telemetry::counter!("query.rows_verified", rows as u64);
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
        // A wildcard string locates candidates with its longest literal
        // fragment (a literal string is its own), then verifies them by
        // reconstruction.
        let candidates = self.eval_literal_in_group(gid, s.longest_literal())?;
        if s.as_literal().is_some() {
            return Ok(candidates);
        }
        let rows: Vec<u32> = candidates.iter().collect();
        let matcher = s.matcher();
        self.verify_rows(gid, &rows, |line| matcher.matches(line, DEFAULT_DELIMS))
    }

    /// Renders each of `rows` (ascending) and keeps those passing `pred` —
    /// the verify-by-reconstruction step shared by wildcard searches and
    /// the planner's Overflow fallback. Under `keep_verified` the passing
    /// lines replace the group's kept lines, so `reconstruct` moves them
    /// into the result instead of rendering them again.
    fn verify_rows(
        &mut self,
        gid: usize,
        rows: &[u32],
        pred: impl Fn(&[u8]) -> bool,
    ) -> Result<RowSet> {
        let mut ops = group_ops(&self.payloads, self.group(gid)?)?;
        let mut line = Vec::new();
        let mut hits = Vec::new();
        let mut kept = Vec::new();
        for &row in rows {
            line.clear();
            for op in &mut ops {
                op.append(row, &mut line)?;
            }
            if pred(&line) {
                hits.push(row);
                if self.keep_verified {
                    kept.push((row, line.clone()));
                }
            }
        }
        if self.keep_verified {
            if self.kept.is_empty() {
                self.kept.resize_with(self.archive.boxed.groups.len(), Vec::new);
            }
            if let Some(slot) = self.kept.get_mut(gid) {
                *slot = kept;
            }
        }
        self.note_rows_verified(rows.len());
        Ok(RowSet::from_sorted(hits))
    }

    /// Rows of a group whose rendered line contains the literal `kw`: locate
    /// (§5.1, metadata only), then run the probes that survived.
    fn eval_literal_in_group(&mut self, gid: usize, kw: &[u8]) -> Result<RowSet> {
        let _span = telemetry::span("literal");
        let group = self.group(gid)?;
        let nrows = group.rows();
        let start = Instant::now();
        let located = locate(self.archive, group, kw, Mode::Contains)?;
        self.stats.plan_elapsed += start.elapsed();
        if located.stamp_rejections > 0 {
            self.stats.stamp_rejections += located.stamp_rejections;
            telemetry::counter!("query.stamp_rejections", located.stamp_rejections as u64);
        }
        if located.matches.is_dead() {
            self.stats.groups_skipped += 1;
            telemetry::counter!("query.groups_skipped", 1);
        }
        match &located.matches {
            Matches::All => Ok(RowSet::all(nrows)),
            Matches::Overflow => {
                let rows: Vec<u32> = (0..nrows).collect();
                let finder = Finder::new(kw);
                self.verify_rows(gid, &rows, |line| finder.contains(line))
            }
            Matches::Any(conjs) => self.eval_conjs(conjs, nrows),
        }
    }

    /// Rows (of `nrows`) matching every probe of some conjunction.
    fn eval_conjs(&mut self, conjs: &[Vec<Probe<'_>>], nrows: u32) -> Result<RowSet> {
        let mut out = RowSet::empty();
        for conj in conjs {
            let mut rows = RowSet::all(nrows);
            for probe in conj {
                if rows.is_empty() {
                    break;
                }
                rows = rows.intersect(&self.eval_probe(probe, nrows)?);
            }
            out = out.union(&rows);
        }
        Ok(out)
    }

    /// Rows whose value satisfies one located requirement — the
    /// per-variable-vector matching of §5.1, dispatching on storage form.
    fn eval_probe(&mut self, probe: &Probe<'_>, nrows: u32) -> Result<RowSet> {
        let &Probe { part, mode, .. } = probe;
        match &probe.target {
            Target::Plain { cap } => Ok(RowSet::from_sorted(self.capsule_find(*cap, part, mode)?)),
            Target::Real {
                pattern,
                sub_caps,
                outlier_cap,
                outlier_rows,
                sub,
            } => {
                // Sub-variable Capsules hold the pattern rows only.
                let map = VectorMeta::pattern_row_map(outlier_rows, nrows);
                let hits = match sub {
                    Matches::All => map,
                    Matches::Overflow => {
                        // Scan the variable vector by materializing the
                        // values of its pattern rows into one reused buffer.
                        let mut values =
                            Op::real(&self.payloads, pattern, sub_caps, *outlier_cap, outlier_rows)?;
                        let matcher = mode.matcher(part);
                        let mut value = Vec::new();
                        let mut hits = Vec::new();
                        for &row in &map {
                            value.clear();
                            values.append(row, &mut value)?;
                            if matcher.matches(&value) {
                                hits.push(row);
                            }
                        }
                        self.note_rows_verified(map.len());
                        hits
                    }
                    Matches::Any(conjs) => {
                        let mut hits = Vec::new();
                        for pr in self.eval_conjs(conjs, map.len() as u32)?.iter() {
                            hits.push(map.get(pr as usize).copied().ok_or_else(|| {
                                Error::Corrupt("pattern row outside row map".into())
                            })?);
                        }
                        hits
                    }
                };
                let mut out = RowSet::from_sorted(hits);
                // The outlier Capsule is always scanned (§4.1). Its row
                // count is untrusted, so hits are mapped fallibly.
                if !outlier_rows.is_empty() {
                    let mut mapped = Vec::new();
                    for r in self.capsule_find(*outlier_cap, part, mode)? {
                        mapped.push(outlier_rows.get(r as usize).copied().ok_or_else(|| {
                            Error::Corrupt("outlier capsule row outside outlier table".into())
                        })?);
                    }
                    out = out.union(&RowSet::from_sorted(mapped));
                }
                Ok(out)
            }
            Target::Nominal {
                regions,
                dict_cap,
                index_cap,
                idx_len,
            } => self.eval_nominal(regions, *dict_cap, *index_cap, *idx_len, part, mode, nrows),
        }
    }

    /// The dictionary + index path for a nominal vector (§5.1 differences),
    /// over the dictionary regions the Locator left standing.
    #[allow(clippy::too_many_arguments)]
    fn eval_nominal(
        &mut self,
        regions: &[DictRegion],
        dict_cap: u32,
        index_cap: u32,
        idx_len: u32,
        needle: &[u8],
        mode: Mode,
        nrows: u32,
    ) -> Result<RowSet> {
        let _span = telemetry::span("nominal");
        let fixed = matches!(self.meta(dict_cap)?.layout, Layout::Raw);
        let mut matched: Vec<u32> = Vec::new();
        for region in regions {
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

    // ------------------------------------------------------------------
    // Reconstruction.
    // ------------------------------------------------------------------

    /// Reconstructs the given global line numbers (ascending, as every
    /// caller has them), in that order.
    ///
    /// Groups hold their rows in original order, so entries of one group are
    /// naturally ordered (each group's outlier cursors only move forward);
    /// across groups the stored line numbers (logical timestamps) restore
    /// the global order, as in §3's Reconstruction. A line verification
    /// kept is moved into the output rather than rendered again; each
    /// group's kept lines are walked with a forward cursor.
    fn reconstruct(&mut self, line_numbers: &[u32]) -> Result<Vec<Vec<u8>>> {
        let mut kept = std::mem::take(&mut self.kept);
        let mut cursors = vec![0usize; kept.len()];
        let mut reused = 0usize;
        let index = self.archive.line_index();
        let groups = &self.archive.boxed.groups;
        // One op list per group, compiled when its first rendered line
        // comes up.
        let mut compiled: Vec<Option<Vec<Op<'_>>>> = Vec::new();
        compiled.resize_with(groups.len(), || None);
        let mut line = Vec::new();
        let mut out = Vec::with_capacity(line_numbers.len());
        for &lineno in line_numbers {
            let &(gid, row) = index
                .get(lineno as usize)
                .ok_or_else(|| Error::Corrupt("line number out of range".into()))?;
            // A line no group claims is indexed as group `u32::MAX`, which
            // is past every group too.
            let (Some(slot), Some(group)) =
                (compiled.get_mut(gid as usize), groups.get(gid as usize))
            else {
                return Err(Error::Corrupt("line number missing from groups".into()));
            };
            if let (Some(lines), Some(cursor)) =
                (kept.get_mut(gid as usize), cursors.get_mut(gid as usize))
            {
                while lines.get(*cursor).is_some_and(|&(r, _)| r < row) {
                    *cursor += 1;
                }
                if let Some((r, l)) = lines.get_mut(*cursor) {
                    if *r == row {
                        out.push(std::mem::take(l));
                        *cursor += 1;
                        reused += 1;
                        continue;
                    }
                }
            }
            let ops = match slot {
                Some(ops) => ops,
                None => slot.insert(group_ops(&self.payloads, group)?),
            };
            line.clear();
            for op in ops {
                op.append(row, &mut line)?;
            }
            out.push(line.clone());
        }
        if reused > 0 {
            self.stats.lines_reused += reused;
            telemetry::counter!("query.lines_reused", reused as u64);
        }
        Ok(out)
    }
}

/// Slices a dictionary region out of a decompressed payload, rejecting
/// regions whose declared extent overflows or exceeds the payload.
fn region_bytes<'p>(payload: &'p [u8], region: &DictRegion) -> Result<&'p [u8]> {
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
