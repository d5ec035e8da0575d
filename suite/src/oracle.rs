//! The correctness gate, run outside every timed region.
//!
//! * every ingested block must reconstruct to its raw lines;
//! * every op must return the same count each time it is asked, and the
//!   count its builder predicted where there is one;
//! * a seeded 1-in-20 sample of query ops, plus every Table-1 command, is
//!   compared line for line with the gzip+grep baseline;
//! * every aggregate op is compared with a tally over the raw lines.
//!
//! Any mismatch is a failed op: it counts in `fail_share`, makes the run
//! report `correct: false`, and makes `suite` exit non-zero.

use crate::util::Rng;
use crate::workload::{Action, Block, OpList, ReadOp};
use baselines::{GzipGrep, LogArchive, LogSystem};
use loggrep::{AggResult, AggSpec, Archive};
use logparse::{ParsedBlock, Parser, ParserConfig};
use std::collections::BTreeMap;

const SAMPLE_ONE_IN: usize = 20;
const MAX_NOTES: usize = 8;

/// Attempted and failed ops of one run, and what each distinct op returned.
#[derive(Debug)]
pub struct Observed {
    hits: Vec<Option<u64>>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Observed {
    pub fn new(ops: usize) -> Self {
        Self {
            hits: vec![None; ops],
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }

    /// Records one read op: an error, a count that differs from an earlier
    /// ask of the same op, or from the builder's prediction, is a failure.
    pub fn note(&mut self, index: u32, op: &ReadOp, hits: Result<u64, String>) {
        self.attempted += 1;
        let label = || format!("block {} `{}`", op.block, op.action.label());
        match hits {
            Err(e) => self.fail(format!("{}: {e}", label())),
            Ok(hits) => {
                let want = op.expect_hits.map(u64::from).or(self.hits[index as usize]);
                if want.is_some_and(|w| w != hits) {
                    self.fail(format!("{}: {hits} hits, expected {want:?}", label()));
                }
                self.hits[index as usize] = Some(hits);
            }
        }
    }

    /// Records one ingest: it must succeed and store the same number of
    /// bytes as the first ingest of that block (compression is a pure
    /// function of the input).
    pub fn note_ingest(&mut self, stored: Result<u64, String>, want: u64) {
        self.attempted += 1;
        match stored {
            Err(e) => self.fail(format!("ingest: {e}")),
            Ok(got) if got != want => {
                self.fail(format!("ingest stored {got} bytes, first stored {want}"))
            }
            Ok(_) => {}
        }
    }

    /// Folds in what another client thread observed.
    pub fn absorb(&mut self, other: Observed) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(
            other
                .notes
                .into_iter()
                .take(MAX_NOTES.saturating_sub(self.notes.len())),
        );
        for (mine, theirs) in self.hits.iter_mut().zip(other.hits) {
            *mine = mine.or(theirs);
        }
    }

    pub fn note_open(&mut self, opened: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = opened {
            self.fail(format!("open: {e}"));
        }
    }
}

pub fn check_round_trip(block: &Block, archive: &Archive, observed: &mut Observed) {
    observed.attempted += 1;
    match archive.reconstruct_all() {
        Err(e) => observed.fail(format!("{}: reconstruct_all: {e}", block.log)),
        Ok(lines) => {
            if !lines.iter().map(Vec::as_slice).eq(block.lines()) {
                observed.fail(format!(
                    "{}: reconstruct_all differs from the raw lines",
                    block.log
                ));
            }
        }
    }
}

/// Canonical order of an aggregate distribution: count descending, key ascending.
fn ranked<K: Ord + Clone>(tally: BTreeMap<K, u64>) -> Vec<(K, u64)> {
    let mut v: Vec<(K, u64)> = tally.into_iter().collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// The expected answer of an unfiltered aggregate, tallied from a fresh
/// parse of the raw lines (the engine's groups are the parse's non-empty
/// groups in order).
fn tally(spec: &AggSpec, parsed: &ParsedBlock) -> AggResult {
    let live = || {
        parsed
            .groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.rows() > 0)
    };
    match spec {
        AggSpec::Count => AggResult::Count(u64::from(parsed.total_lines)),
        AggSpec::CountByTemplate => {
            let mut map = BTreeMap::new();
            for (tid, g) in live() {
                *map.entry(parsed.templates[tid].display()).or_insert(0) += g.rows() as u64;
            }
            AggResult::CountByTemplate(ranked(map))
        }
        AggSpec::Histogram { bucket } => {
            let total = u64::from(parsed.total_lines);
            let buckets = (0..total.div_ceil(*bucket))
                .map(|k| (k * bucket, (*bucket).min(total - k * bucket)))
                .collect();
            AggResult::Histogram {
                bucket: *bucket,
                buckets,
            }
        }
        AggSpec::TopK { k, template, slot } => {
            let mut map = BTreeMap::new();
            if let Some(column) = live().nth(*template).and_then(|(_, g)| g.vars.get(*slot)) {
                for value in column.iter() {
                    *map.entry(value.to_vec()).or_insert(0) += 1;
                }
            }
            AggResult::TopK {
                k: *k,
                values: ranked(map),
            }
        }
    }
}

/// Checks the ops of `list` against the oracles; `archives[i]` holds
/// `blocks[i]`.
pub fn verify(
    blocks: &[Block],
    archives: &[Archive],
    list: &OpList,
    seed: u64,
    observed: &mut Observed,
) {
    for (block, archive) in blocks.iter().zip(archives) {
        check_round_trip(block, archive, observed);
    }
    let mut rng = Rng::new(seed ^ 0x0004_ac1e);
    // Built on first use: most workloads need only some of them.
    let mut grep: Vec<Option<Box<dyn LogArchive>>> = blocks.iter().map(|_| None).collect();
    let mut parsed: Vec<Option<ParsedBlock>> = blocks.iter().map(|_| None).collect();
    for (i, op) in list.ops.iter().enumerate() {
        let sampled = rng.below(SAMPLE_ONE_IN) == 0;
        let block = &blocks[op.block];
        let archive = &archives[op.block];
        let mut oracle_lines = |command: &str| -> Result<Vec<Vec<u8>>, String> {
            if grep[op.block].is_none() {
                grep[op.block] = Some(GzipGrep.open(&GzipGrep.compress(&block.raw)?)?);
            }
            grep[op.block].as_ref().expect("just built").query(command)
        };
        let label = format!("{} `{}`", block.log, op.action.label());
        match &op.action {
            Action::Query(command) if sampled || op.table1 => {
                observed.attempted += 1;
                match (oracle_lines(command), archive.query(command)) {
                    (Ok(want), Ok(got)) => {
                        if got.lines != want {
                            observed.fail(format!(
                                "{label}: {} lines, gzip+grep finds {}",
                                got.lines.len(),
                                want.len()
                            ));
                        } else if observed.hits[i].is_some_and(|h| h != want.len() as u64) {
                            observed.fail(format!("{label}: timed ask disagrees with the oracle"));
                        }
                    }
                    (Err(e), _) => observed.fail(format!("{label}: oracle: {e}")),
                    (_, Err(e)) => observed.fail(format!("{label}: {e}")),
                }
            }
            Action::Agg { filter, spec } => {
                observed.attempted += 1;
                let want = match filter {
                    // The only filtered verb in the mix is `count`.
                    Some(f) => oracle_lines(f).map(|lines| AggResult::Count(lines.len() as u64)),
                    None => {
                        let p = parsed[op.block].get_or_insert_with(|| {
                            let lines = block.lines();
                            Parser::train(&ParserConfig::default(), lines.iter().copied())
                                .parse_all(lines.iter().copied())
                        });
                        Ok(tally(spec, p))
                    }
                };
                match (want, archive.query_agg(filter.as_deref(), spec)) {
                    (Ok(want), Ok(got)) if got.agg == want => {}
                    (Ok(_), Ok(_)) => {
                        observed.fail(format!("{label}: differs from the raw-line tally"))
                    }
                    (Err(e), _) => observed.fail(format!("{label}: oracle: {e}")),
                    (_, Err(e)) => observed.fail(format!("{label}: {e}")),
                }
            }
            // Unsampled queries and reconstruct_all (covered by the round trip).
            _ => {}
        }
    }
}
