//! The `--aggregates` mode: differential testing of the aggregate sink.
//!
//! Each case generates an adversarial multi-block log ([`crate::genlog`]),
//! optionally a filter query, and one aggregate verb, then runs it through
//! every LogGrep engine configuration of the §6.3 matrix (compressed at
//! every thread count, queried once) and compares the merged result
//! against a naive oracle computed from the raw lines alone:
//!
//! * `count` counts oracle-matched lines;
//! * `count-by-template` re-derives the static templates with a plain
//!   [`logparse::Parser`] (no capsules, no compression) and tallies
//!   matched lines per template;
//! * `top-K` tallies the variable column's raw values for matched rows;
//! * `histogram` buckets matched global line numbers.
//!
//! On top of result equality it enforces the pushdown contract: unfiltered
//! metadata verbs must decompress **zero** Capsules, unfiltered top-K must
//! stay within its predicted layer's decompression bound ([`AggDrift`]),
//! and with the query cache on, a repeated aggregate must hit the cache
//! and return the identical result.

use crate::harness::{block_bytes, compress_at_each_thread_count, engine_matrix};
use crate::oracle;
use crate::query::QueryAst;
use crate::{case_seed, genlog};
use loggrep::query::lang::AggSpec;
use loggrep::{AggDrift, AggResult, LogGrep};
use logparse::{Parser, ParserConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::collections::HashMap;

/// The outcome of one aggregate case.
#[derive(Debug)]
pub struct Outcome {
    /// First engine that disagreed with the oracle (or broke an
    /// invariant), with a description — `None` when every engine agreed.
    pub disagreement: Option<String>,
    /// The verb this case exercised (`count`, `count-by-template`, ...).
    pub verb: &'static str,
    /// Whether the aggregate ran under a filter query.
    pub filtered: bool,
    /// The layer the default engine answered at (single-threaded, cold).
    pub layer: &'static str,
    /// How many per-block zero/bounded-decompression checks were enforced.
    pub decompression_checks: u64,
}

/// Running totals across cases, for the deterministic summary line.
#[derive(Debug, Default)]
pub struct Summary {
    /// Cases that carried a filter query.
    pub filtered: u64,
    /// Cases per verb.
    pub verbs: BTreeMap<&'static str, u64>,
    /// Cases per answering layer (default engine).
    pub layers: BTreeMap<&'static str, u64>,
    /// Total decompression-bound checks enforced.
    pub decompression_checks: u64,
}

impl Summary {
    /// Folds one case's outcome into the totals.
    pub fn absorb(&mut self, outcome: &Outcome) {
        self.filtered += u64::from(outcome.filtered);
        *self.verbs.entry(outcome.verb).or_insert(0) += 1;
        *self.layers.entry(outcome.layer).or_insert(0) += 1;
        self.decompression_checks += outcome.decompression_checks;
    }
}

/// Per-block oracle parse: the static templates and row groups, derived
/// with the default parser configuration every matrix engine shares.
struct OracleBlock<'a> {
    lines: &'a [Vec<u8>],
    parsed: logparse::ParsedBlock,
    /// Archive group index -> parser template id (empty groups skipped,
    /// mirroring the engine's assembler).
    nonempty: Vec<usize>,
}

impl<'a> OracleBlock<'a> {
    fn new(lines: &'a [Vec<u8>]) -> Self {
        let parser = Parser::train(&ParserConfig::default(), lines.iter().map(|l| l.as_slice()));
        let parsed = parser.parse_all(lines.iter().map(|l| l.as_slice()));
        let nonempty = parsed
            .groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.rows() > 0)
            .map(|(tid, _)| tid)
            .collect();
        Self {
            lines,
            parsed,
            nonempty,
        }
    }

    fn matches(&self, filter: Option<&QueryAst>, lineno: u32) -> bool {
        filter.is_none_or(|ast| oracle::ast_matches(ast, &self.lines[lineno as usize]))
    }
}

/// Computes the oracle answer for `spec` over all blocks, from raw lines
/// and a plain static-pattern parse alone.
fn oracle_result(blocks: &[OracleBlock<'_>], filter: Option<&QueryAst>, spec: &AggSpec) -> AggResult {
    match spec {
        AggSpec::Count => {
            let mut n = 0u64;
            for b in blocks {
                n += b
                    .lines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| b.matches(filter, *i as u32))
                    .count() as u64;
            }
            AggResult::Count(n)
        }
        AggSpec::CountByTemplate => {
            let mut tally: HashMap<String, u64> = HashMap::new();
            for b in blocks {
                for &tid in &b.nonempty {
                    let group = &b.parsed.groups[tid];
                    let hits = group
                        .line_numbers
                        .iter()
                        .filter(|&&l| b.matches(filter, l))
                        .count() as u64;
                    if hits > 0 {
                        *tally
                            .entry(b.parsed.templates[tid].display())
                            .or_insert(0) += hits;
                    }
                }
            }
            let mut out: Vec<(String, u64)> = tally.into_iter().collect();
            out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            AggResult::CountByTemplate(out)
        }
        AggSpec::TopK { k, template, slot } => {
            let mut tally: HashMap<Vec<u8>, u64> = HashMap::new();
            for b in blocks {
                let Some(&tid) = b.nonempty.get(*template) else {
                    continue;
                };
                let group = &b.parsed.groups[tid];
                let Some(column) = group.vars.get(*slot) else {
                    continue;
                };
                for (row, &lineno) in group.line_numbers.iter().enumerate() {
                    if b.matches(filter, lineno) {
                        if let Some(value) = column.get(row) {
                            *tally.entry(value.to_vec()).or_insert(0) += 1;
                        }
                    }
                }
            }
            let mut values: Vec<(Vec<u8>, u64)> = tally.into_iter().collect();
            values.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            AggResult::TopK { k: *k, values }
        }
        AggSpec::Histogram { bucket } => {
            let mut tally: HashMap<u64, u64> = HashMap::new();
            let mut offset = 0u64;
            for b in blocks {
                for (i, _) in b.lines.iter().enumerate() {
                    if b.matches(filter, i as u32) {
                        *tally
                            .entry((offset + i as u64) / bucket * bucket)
                            .or_insert(0) += 1;
                    }
                }
                offset += b.lines.len() as u64;
            }
            let mut buckets: Vec<(u64, u64)> = tally.into_iter().collect();
            buckets.sort_unstable();
            AggResult::Histogram {
                bucket: *bucket,
                buckets,
            }
        }
    }
}

/// Picks the aggregate verb for a case — top-K targets a variable slot
/// that actually exists in the first block, so most top-K cases hit data.
fn pick_spec(rng: &mut StdRng, first: &OracleBlock<'_>) -> AggSpec {
    match rng.gen_range(0u32..4) {
        0 => AggSpec::Count,
        1 => AggSpec::CountByTemplate,
        2 => AggSpec::Histogram {
            bucket: rng.gen_range(1u64..129),
        },
        _ => {
            let candidates: Vec<(usize, usize)> = first
                .nonempty
                .iter()
                .enumerate()
                .flat_map(|(t, &tid)| {
                    (0..first.parsed.groups[tid].vars.len()).map(move |slot| (t, slot))
                })
                .collect();
            if candidates.is_empty() {
                return AggSpec::Count;
            }
            let (template, slot) = candidates[rng.gen_range(0..candidates.len())];
            AggSpec::TopK {
                k: rng.gen_range(1usize..6),
                template,
                slot,
            }
        }
    }
}

/// Runs one aggregate case: generated blocks, an optional filter, one
/// verb, every engine config (compressed at every thread count, queried
/// once), against the oracle.
pub fn run_case(seed: u64, case: u64, threads: &[usize]) -> Outcome {
    let mut rng = StdRng::seed_from_u64(case_seed(seed, case) ^ 0xa66);
    let blocks = genlog::generate_blocks(&mut rng);
    let lines: Vec<Vec<u8>> = blocks.iter().flatten().cloned().collect();
    let filter_ast = if rng.gen_range(0u32..2) == 0 {
        Some(QueryAst::generate(&mut rng, &lines))
    } else {
        None
    };
    let oracle_blocks: Vec<OracleBlock<'_>> = blocks.iter().map(|b| OracleBlock::new(b)).collect();
    let spec = pick_spec(&mut rng, &oracle_blocks[0]);
    let want = oracle_result(&oracle_blocks, filter_ast.as_ref(), &spec);

    let filter_text = filter_ast.as_ref().map(QueryAst::render);
    let filter = filter_text.as_deref();
    let mut outcome = Outcome {
        disagreement: None,
        verb: verb_name(&spec),
        filtered: filter.is_some(),
        layer: "none",
        decompression_checks: 0,
    };

    'matrix: for (tag, config) in engine_matrix() {
        let engine = LogGrep::new(config);
        let config = engine.config();
        let query_cache_on = config.use_query_cache;
        let mut merged = AggResult::empty(&spec);
        let mut offset = 0u64;
        let mut worst: Option<loggrep::AggLayer> = None;
        for (bi, block) in blocks.iter().enumerate() {
            let archive = match compress_at_each_thread_count(config, threads, &block_bytes(block))
                .and_then(|bytes| {
                    loggrep::CapsuleBox::from_bytes(&bytes)
                        .map(|b| engine.open(b))
                        .map_err(|e| e.to_string())
                }) {
                Ok(a) => a,
                Err(e) => {
                    outcome.disagreement = Some(format!("{tag}: block {bi}: {e}"));
                    break 'matrix;
                }
            };
            let fail = |detail: String| Some(format!("{tag}: block {bi}: {detail}"));
            let predicted = match archive.explain_agg(filter, &spec) {
                Ok(p) => p,
                Err(e) => {
                    outcome.disagreement = fail(format!("explain_agg failed: {e}"));
                    break 'matrix;
                }
            };
            let r = match archive.query_agg_at(filter, &spec, offset) {
                Ok(r) => r,
                Err(e) => {
                    outcome.disagreement = fail(format!("query_agg failed: {e}"));
                    break 'matrix;
                }
            };
            // Pushdown contract: metadata verbs decompress nothing
            // when unfiltered; top-K stays within the predicted
            // layer's bound (checked via the drift report for all).
            if filter.is_none() {
                outcome.decompression_checks += 1;
                let bound = match predicted {
                    loggrep::AggLayer::Metadata => Some(0),
                    loggrep::AggLayer::Dictionary => Some(1),
                    _ => None,
                };
                if let Some(bound) = bound {
                    if r.stats.capsules_decompressed > bound {
                        outcome.disagreement = fail(format!(
                            "predicted {predicted} but decompressed {} capsule(s)",
                            r.stats.capsules_decompressed
                        ));
                        break 'matrix;
                    }
                }
            }
            let drift = AggDrift::new(predicted, filter.is_some(), &r.stats);
            if !drift.consistent() {
                outcome.disagreement = fail(format!("aggregate drift out of bounds: {drift}"));
                break 'matrix;
            }
            // Cache contract: a repeat is a hit iff the cache is on,
            // and the cached answer is identical either way.
            let repeat = match archive.query_agg_at(filter, &spec, offset) {
                Ok(r) => r,
                Err(e) => {
                    outcome.disagreement = fail(format!("repeat failed: {e}"));
                    break 'matrix;
                }
            };
            if repeat.stats.cache_hit != query_cache_on {
                outcome.disagreement = fail(format!(
                    "repeat cache_hit = {} with the cache {}",
                    repeat.stats.cache_hit,
                    if query_cache_on { "on" } else { "off" }
                ));
                break 'matrix;
            }
            if repeat.agg != r.agg {
                outcome.disagreement =
                    fail("cached aggregate differs from the cold one".to_string());
                break 'matrix;
            }
            worst = worst.max(r.stats.agg_layer);
            if let Err(e) = merged.merge(&r.agg) {
                outcome.disagreement = fail(format!("merge failed: {e}"));
                break 'matrix;
            }
            offset += u64::from(archive.total_lines());
        }
        if outcome.layer == "none" {
            outcome.layer = worst.map_or("metadata", |l| l.name());
        }
        if merged != want {
            outcome.disagreement = Some(format!(
                "{tag}: `{spec}` filter {filter:?}: engine {merged:?} vs oracle {want:?}"
            ));
            break 'matrix;
        }
    }
    outcome
}

fn verb_name(spec: &AggSpec) -> &'static str {
    match spec {
        AggSpec::Count => "count",
        AggSpec::CountByTemplate => "count-by-template",
        AggSpec::TopK { .. } => "top-k",
        AggSpec::Histogram { .. } => "histogram",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_cases_agree() {
        for case in 0..4 {
            let outcome = run_case(7, case, &[1]);
            assert!(
                outcome.disagreement.is_none(),
                "case {case}: {:?}",
                outcome.disagreement
            );
        }
    }

    #[test]
    fn oracle_tallies_a_tiny_block_by_hand() {
        let lines: Vec<Vec<u8>> = vec![
            b"job alpha ok".to_vec(),
            b"job beta ok".to_vec(),
            b"job alpha ok".to_vec(),
        ];
        let blocks = [OracleBlock::new(&lines)];
        assert_eq!(
            oracle_result(&blocks, None, &AggSpec::Count),
            AggResult::Count(3)
        );
        let AggResult::Histogram { buckets, .. } =
            oracle_result(&blocks, None, &AggSpec::Histogram { bucket: 2 })
        else {
            panic!("wrong kind")
        };
        assert_eq!(buckets, vec![(0, 2), (2, 1)]);
    }
}
