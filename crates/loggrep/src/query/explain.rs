//! Query plan explanation: what §5.1's Capsule locating decides *before*
//! touching any compressed data.
//!
//! [`Archive::explain`] folds the tree the executor itself runs
//! (`query::locate`) into one [`GroupDecision`] per (search, group),
//! so it honours the same ablation flags and never decompresses a Capsule —
//! cheap enough to run on every query for observability.

use crate::boxfile::Archive;
use crate::error::Result;
use crate::query::lang::{AggSpec, Expr, Query};
use crate::query::locate::{locate, Matches};
use crate::query::plan::{plan_agg, AggTargetKind, Mode};
use crate::stats::{AggLayer, QueryStats};
use std::collections::BTreeSet;
use std::fmt;

/// How one search string relates to one group, per the Locator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupDecision {
    /// The keyword lies inside the static pattern: every row matches.
    AllRows,
    /// No possible match: the group is skipped without decompression —
    /// either the static pattern already excludes the keyword
    /// (`stamp_rejected == 0`) or every possible match died on a stamp.
    Skip {
        /// Requirements rejected by stamps on the way to this decision.
        stamp_rejected: usize,
    },
    /// `conjunctions` possible matches survive, touching `capsules`
    /// Capsules; `stamp_rejected` requirements failed their stamps.
    Scan {
        /// Number of surviving possible matches (conjunctions).
        conjunctions: usize,
        /// Distinct Capsules that may need decompression.
        capsules: usize,
        /// Requirements rejected by stamps without decompression.
        stamp_rejected: usize,
    },
    /// The planner overflowed; the executor scans the whole group.
    FullScan,
}

/// The plan of one search string across all groups.
#[derive(Debug, Clone)]
pub struct SearchPlan {
    /// The search string text.
    pub search: String,
    /// For a wildcard string, the literal fragment its groups are located
    /// with; the rows that pass are then verified by reconstruction.
    pub fragment: Option<String>,
    /// Decision per group (indexed like `CapsuleBox::groups`).
    pub decisions: Vec<GroupDecision>,
}

/// A full query explanation.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The raw query.
    pub query: String,
    /// Template display per group.
    pub templates: Vec<String>,
    /// Rows per group.
    pub group_rows: Vec<u32>,
    /// One plan per search string, in expression order.
    pub searches: Vec<SearchPlan>,
    /// Whether the query has an `and`/`not`. Their right side runs only on
    /// groups where the left side left candidates, so an execution locates
    /// at most — not exactly — the (search, group) pairs listed here.
    pub short_circuits: bool,
}

impl Explanation {
    /// Groups that no search string can match (skippable outright).
    pub fn dead_groups(&self) -> usize {
        (0..self.templates.len())
            .filter(|&g| {
                self.searches
                    .iter()
                    .all(|s| matches!(s.decisions[g], GroupDecision::Skip { .. }))
            })
            .count()
    }

    /// Compares this explanation's predictions against the stats of an
    /// actual execution of the same query on the same archive.
    pub fn drift(&self, stats: &QueryStats) -> PlanDrift {
        let mut predicted_skips = 0usize;
        let mut predicted_scan_capsules = 0usize;
        let mut predicted_stamp_rejections = 0usize;
        for sp in &self.searches {
            for d in &sp.decisions {
                match d {
                    GroupDecision::Skip { stamp_rejected } => {
                        predicted_skips += 1;
                        predicted_stamp_rejections += stamp_rejected;
                    }
                    GroupDecision::Scan {
                        capsules,
                        stamp_rejected,
                        ..
                    } => {
                        predicted_scan_capsules += capsules;
                        predicted_stamp_rejections += stamp_rejected;
                    }
                    GroupDecision::AllRows | GroupDecision::FullScan => {}
                }
            }
        }
        PlanDrift {
            predicted_skips,
            actual_groups_skipped: stats.groups_skipped,
            predicted_scan_capsules,
            actual_capsules_decompressed: stats.capsules_decompressed,
            actual_capsules_resident: stats.capsules_resident,
            predicted_stamp_rejections,
            actual_stamp_rejections: stats.stamp_rejections,
            capsules_total: stats.capsules_total as usize,
            partial: self.short_circuits || stats.cache_hit,
        }
    }
}

/// Predicted-vs-actual agreement between [`Archive::explain`] and one
/// executed query — the drift report printed after a traced query.
///
/// Both sides count off the same Locator tree, so group skips and stamp
/// rejections are *equal* unless the execution was partial, when actuals
/// are at most the predictions. Capsules touched (decompressed, or found
/// resident from an earlier query) are bounded only while nothing is
/// reconstructed: rendering rows (hits, wildcard candidates, a planner
/// overflow) opens Capsules the locating plan never touches.
#[derive(Debug, Clone, Default)]
pub struct PlanDrift {
    /// (search, group) pairs the Locator decided to skip.
    pub predicted_skips: usize,
    /// Group skips the executor took.
    pub actual_groups_skipped: usize,
    /// Upper bound on distinct Capsules the probes may open (summed across
    /// searches, so shared Capsules count once per search).
    pub predicted_scan_capsules: usize,
    /// Capsules actually decompressed, including row reconstruction.
    pub actual_capsules_decompressed: usize,
    /// Capsules used without decompression because an earlier query left
    /// them resident; the plan's bound is on decompressed + resident.
    pub actual_capsules_resident: usize,
    /// Requirements the Locator saw stamps reject.
    pub predicted_stamp_rejections: usize,
    /// Requirements stamps rejected during execution.
    pub actual_stamp_rejections: usize,
    /// Total Capsules in the archive (0 when stats did not record it).
    pub capsules_total: usize,
    /// Whether the execution located only part of the plan: an `and`/`not`
    /// short-circuited groups, or the query cache answered.
    pub partial: bool,
}

impl PlanDrift {
    /// Accumulates another block's drift into this one, so a multi-block
    /// archive can report one combined drift.
    pub fn absorb(&mut self, other: &PlanDrift) {
        self.predicted_skips += other.predicted_skips;
        self.actual_groups_skipped += other.actual_groups_skipped;
        self.predicted_scan_capsules += other.predicted_scan_capsules;
        self.actual_capsules_decompressed += other.actual_capsules_decompressed;
        self.actual_capsules_resident += other.actual_capsules_resident;
        self.predicted_stamp_rejections += other.predicted_stamp_rejections;
        self.actual_stamp_rejections += other.actual_stamp_rejections;
        self.capsules_total += other.capsules_total;
        self.partial |= other.partial;
    }

    /// Capsules the execution read: decompressed plus found resident. This,
    /// not the decompression count, is what `predicted_scan_capsules` bounds.
    pub fn capsules_touched(&self) -> usize {
        self.actual_capsules_decompressed + self.actual_capsules_resident
    }

    /// True when the execution ran the plan: skips and stamp rejections
    /// equal the predictions, or stay within them for a partial execution.
    pub fn consistent(&self) -> bool {
        let actual = (self.actual_groups_skipped, self.actual_stamp_rejections);
        let predicted = (self.predicted_skips, self.predicted_stamp_rejections);
        if self.partial {
            actual.0 <= predicted.0 && actual.1 <= predicted.1
        } else {
            actual == predicted
        }
    }
}

impl fmt::Display for PlanDrift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan vs execution:")?;
        writeln!(
            f,
            "  group skips       predicted {:<6} actual {}",
            self.predicted_skips, self.actual_groups_skipped
        )?;
        writeln!(
            f,
            "  stamp rejections  predicted {:<6} actual {}",
            self.predicted_stamp_rejections, self.actual_stamp_rejections
        )?;
        let total = if self.capsules_total > 0 {
            format!(" (of {})", self.capsules_total)
        } else {
            String::new()
        };
        writeln!(
            f,
            "  capsules          scan-bound {:<5} touched {}{total}: {} decompressed, {} resident",
            self.predicted_scan_capsules,
            self.capsules_touched(),
            self.actual_capsules_decompressed,
            self.actual_capsules_resident
        )?;
        writeln!(
            f,
            "  consistent: {}",
            if self.consistent() { "yes" } else { "NO — executor left the plan" }
        )
    }
}

/// Predicted-vs-actual agreement for one aggregate query: the pushdown
/// planner's layer prediction against the layer the sink actually used.
///
/// The executor may legitimately answer *below* the prediction (an empty
/// selection short-circuits a predicted Capsule scan to a metadata-only
/// empty result), so the honest bound is `actual ≤ predicted`, with hard
/// decompression bounds where the prediction promises them.
#[derive(Debug, Clone)]
pub struct AggDrift {
    /// The layer [`Archive::explain_agg`] predicted.
    pub predicted: AggLayer,
    /// The most expensive layer the sink actually used (`None` until an
    /// execution's stats are folded in).
    pub actual: Option<AggLayer>,
    /// Whether the result came from the query cache (nothing executed).
    pub cache_hit: bool,
    /// Whether a filter restricted the selection.
    pub filtered: bool,
    /// Capsules the execution decompressed.
    pub capsules_decompressed: usize,
}

impl AggDrift {
    /// Pairs a prediction with the stats of an actual execution of the
    /// same aggregate on the same archive.
    pub fn new(predicted: AggLayer, filtered: bool, stats: &QueryStats) -> Self {
        Self {
            predicted,
            actual: stats.agg_layer,
            cache_hit: stats.cache_hit,
            filtered,
            capsules_decompressed: stats.capsules_decompressed,
        }
    }

    /// True when the execution stayed within the prediction: the actual
    /// layer never exceeds the predicted one, and unfiltered
    /// metadata/dictionary predictions hold their decompression promises
    /// (zero Capsules, and at most one, respectively). Vacuously true for
    /// cache hits.
    pub fn consistent(&self) -> bool {
        if self.cache_hit {
            return true;
        }
        if self.actual.is_some_and(|actual| actual > self.predicted) {
            return false;
        }
        if !self.filtered {
            match self.predicted {
                AggLayer::Metadata => return self.capsules_decompressed == 0,
                AggLayer::Dictionary => return self.capsules_decompressed <= 1,
                AggLayer::CapsuleScan | AggLayer::Reconstruct => {}
            }
        }
        true
    }
}

impl fmt::Display for AggDrift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let actual = match (self.cache_hit, self.actual) {
            (true, _) => "cache-hit".to_string(),
            (false, Some(l)) => l.to_string(),
            (false, None) => "none".to_string(),
        };
        writeln!(
            f,
            "aggregate layer: predicted {} actual {} ({} capsule(s) decompressed)",
            self.predicted, actual, self.capsules_decompressed
        )?;
        writeln!(
            f,
            "  consistent: {}",
            if self.consistent() {
                "yes"
            } else {
                "NO — sink exceeded the planned layer"
            }
        )
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "explain: {}", self.query)?;
        for sp in &self.searches {
            match &sp.fragment {
                None => writeln!(f, "  search `{}`:", sp.search)?,
                Some(fragment) => writeln!(
                    f,
                    "  search `{}` (located by `{fragment}`, then verified by reconstruction):",
                    sp.search
                )?,
            }
            for (g, d) in sp.decisions.iter().enumerate() {
                let what = match d {
                    GroupDecision::AllRows => "ALL (keyword in static pattern)".to_string(),
                    GroupDecision::Skip { .. } => "skip".to_string(),
                    GroupDecision::Scan {
                        conjunctions,
                        capsules,
                        stamp_rejected,
                    } => format!(
                        "scan: {conjunctions} possible match(es), {capsules} capsule(s), {stamp_rejected} stamp-rejected"
                    ),
                    GroupDecision::FullScan => "full group scan (planner overflow)".to_string(),
                };
                if !matches!(d, GroupDecision::Skip { .. }) {
                    writeln!(
                        f,
                        "    group {g} [{} rows] {}: {what}",
                        self.group_rows[g], self.templates[g]
                    )?;
                }
            }
        }
        writeln!(f, "  ({} of {} groups dead)", self.dead_groups(), self.templates.len())
    }
}

impl Archive {
    /// Explains how a query would be located, without decompressing any
    /// Capsule: the executor's own `locate` per (search string, group) —
    /// a wildcard string by its longest literal fragment, as executed.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::BadQuery`] if the command does not parse and
    /// [`crate::Error::Corrupt`] if group metadata contradicts itself.
    pub fn explain(&self, command: &str) -> Result<Explanation> {
        let query = Query::parse(command)?;
        let groups = &self.boxed.groups;
        let mut searches = Vec::new();
        for s in query.expr.search_strings() {
            let fragment = s.longest_literal();
            let mut decisions = Vec::with_capacity(groups.len());
            for group in groups {
                let located = locate(self, group, fragment, Mode::Contains)?;
                let stamp_rejected = located.stamp_rejections;
                decisions.push(match &located.matches {
                    Matches::All => GroupDecision::AllRows,
                    Matches::Overflow => GroupDecision::FullScan,
                    Matches::Any(conjs) if conjs.is_empty() => {
                        GroupDecision::Skip { stamp_rejected }
                    }
                    Matches::Any(conjs) => {
                        let mut capsules = BTreeSet::new();
                        located.matches.capsules(&mut capsules);
                        GroupDecision::Scan {
                            conjunctions: conjs.len(),
                            capsules: capsules.len(),
                            stamp_rejected,
                        }
                    }
                });
            }
            searches.push(SearchPlan {
                search: s.raw.clone(),
                fragment: s
                    .as_literal()
                    .is_none()
                    .then(|| String::from_utf8_lossy(fragment).into_owned()),
                decisions,
            });
        }
        Ok(Explanation {
            query: command.to_string(),
            templates: groups.iter().map(|g| g.template.display()).collect(),
            group_rows: groups.iter().map(|g| g.rows()).collect(),
            searches,
            short_circuits: short_circuits(&query.expr),
        })
    }

    /// Predicts which storage layer will answer an aggregate query,
    /// without decompressing any Capsule (the pushdown decision of
    /// [`plan_agg`] applied to this archive's vector metadata).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::BadQuery`] if the filter does not parse.
    pub fn explain_agg(&self, filter: Option<&str>, spec: &AggSpec) -> Result<AggLayer> {
        if let Some(f) = filter {
            Query::parse(f)?;
        }
        let target = match spec {
            AggSpec::TopK { template, slot, .. } => self.agg_target_kind(*template, *slot),
            _ => AggTargetKind::Missing,
        };
        Ok(plan_agg(spec, target, filter.is_some()))
    }
}

/// Whether evaluating `expr` can skip a search on some groups.
fn short_circuits(expr: &Expr) -> bool {
    match expr {
        Expr::Str(_) => false,
        Expr::And(..) | Expr::Not(..) => true,
        Expr::Or(a, b) => short_circuits(a) || short_circuits(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LogGrep, LogGrepConfig};

    fn archive() -> Archive {
        let mut raw = Vec::new();
        for i in 0..200 {
            raw.extend_from_slice(format!("alpha job {:04} fine\n", i).as_bytes());
            if i % 20 == 0 {
                raw.extend_from_slice(format!("beta crash {:04} bad\n", i).as_bytes());
            }
        }
        LogGrep::new(LogGrepConfig::default())
            .compress_to_archive(&raw)
            .unwrap()
    }

    #[test]
    fn static_hit_explains_as_all() {
        let a = archive();
        let ex = a.explain("crash").unwrap();
        assert!(ex.searches[0].decisions.contains(&GroupDecision::AllRows));
    }

    #[test]
    fn absent_keyword_kills_all_groups() {
        let a = archive();
        let ex = a.explain("zzz-never").unwrap();
        assert_eq!(ex.dead_groups(), ex.templates.len());
    }

    #[test]
    fn numeric_keyword_scans_some_group() {
        let a = archive();
        let ex = a.explain("0040").unwrap();
        assert!(ex.searches[0]
            .decisions
            .iter()
            .any(|d| matches!(d, GroupDecision::Scan { .. })));
    }

    #[test]
    fn wildcard_is_located_by_its_longest_fragment() {
        let a = archive();
        let wild = &a.explain("jo*b").unwrap().searches[0];
        let frag = &a.explain("jo").unwrap().searches[0];
        assert_eq!(wild.fragment.as_deref(), Some("jo"));
        assert_eq!(frag.fragment, None);
        assert_eq!(wild.decisions, frag.decisions);
    }

    #[test]
    fn display_renders() {
        let a = archive();
        let text = a.explain("crash and 0040").unwrap().to_string();
        assert!(text.contains("explain: crash and 0040"));
        assert!(text.contains("groups dead"));
    }

    #[test]
    fn execution_runs_the_explained_plan() {
        let a = archive();
        for q in ["crash", "0040", "zzz-never", "fine or bad", "jo*b", "0*0 or be*a"] {
            let ex = a.explain(q).unwrap();
            let result = a.query(q).unwrap();
            let drift = ex.drift(&result.stats);
            assert!(!drift.partial, "query `{q}`");
            assert!(drift.consistent(), "query `{q}`: {drift}");
            assert_eq!(drift.actual_groups_skipped, drift.predicted_skips, "query `{q}`");
            assert_eq!(
                drift.actual_stamp_rejections, drift.predicted_stamp_rejections,
                "query `{q}`"
            );
        }
    }

    #[test]
    fn partial_executions_stay_within_the_plan() {
        let a = archive();
        for q in ["crash and 0040", "fine not 0040", "crash"] {
            let ex = a.explain(q).unwrap();
            a.query(q).unwrap();
            // The second run of `crash` is a cache hit: nothing is located.
            let drift = ex.drift(&a.query(q).unwrap().stats);
            assert!(drift.partial, "query `{q}`");
            assert!(drift.consistent(), "query `{q}`: {drift}");
            assert!(drift.to_string().contains("plan vs execution"));
        }
        let mut drift = a.explain("crash").unwrap().drift(&QueryStats::default());
        drift.actual_groups_skipped = drift.predicted_skips + 1;
        assert!(!drift.consistent());
    }

    #[test]
    fn agg_drift_bounds_hold_for_every_verb() {
        let a = archive();
        let mut specs = vec![
            AggSpec::Count,
            AggSpec::CountByTemplate,
            AggSpec::Histogram { bucket: 50 },
        ];
        for (t, group) in a.boxed.groups.iter().enumerate() {
            for v in 0..group.vectors.len() {
                specs.push(AggSpec::TopK { k: 3, template: t, slot: v });
            }
        }
        // A missing target must predict (and execute as) pure metadata.
        specs.push(AggSpec::TopK { k: 3, template: 99, slot: 0 });
        for spec in &specs {
            for filter in [None, Some("crash")] {
                let predicted = a.explain_agg(filter, spec).unwrap();
                a.clear_caches();
                let r = a.query_agg(filter, spec).unwrap();
                let drift = AggDrift::new(predicted, filter.is_some(), &r.stats);
                assert!(!drift.cache_hit);
                assert!(drift.consistent(), "{spec} filter {filter:?}: {drift}");
            }
        }
    }

    #[test]
    fn metadata_verbs_decompress_nothing() {
        let a = archive();
        let specs = [
            AggSpec::Count,
            AggSpec::CountByTemplate,
            AggSpec::Histogram { bucket: 25 },
        ];
        for spec in specs {
            a.clear_caches();
            let r = a.query_agg(None, &spec).unwrap();
            assert_eq!(r.stats.capsules_decompressed, 0, "{spec}");
            assert_eq!(r.stats.agg_layer, Some(AggLayer::Metadata), "{spec}");
        }
    }

    #[test]
    fn explain_decompresses_nothing() {
        let a = archive();
        let _ = a.explain("crash and 0040 or fine").unwrap();
        // Explanation must not have warmed the query cache either.
        let result = a.query("crash and 0040").unwrap();
        assert!(!result.stats.cache_hit);
    }
}
