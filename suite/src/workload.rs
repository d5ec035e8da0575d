//! The four workloads: which logs they ingest and which read ops they ask.
//!
//! A corpus and an op list are pure functions of `(workload, seed, scale)`.
//! The engine never sees a seed or a workload name, only the generated
//! bytes and query strings. Op *counts* are constants of the workload, not
//! derived from a clock; the harness repeats whole passes of the list to
//! fill its measuring time, so every pass asks the same questions.

use crate::util::Rng;
use loggrep::query::lang::Query;
use loggrep::vector::VectorMeta;
use loggrep::{AggSpec, CapsuleBox};
use logparse::{Tokenizer, DEFAULT_DELIMS};
use std::collections::{HashMap, HashSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Needle,
    Fullscan,
    ColdAgg,
    TailMixed,
}

/// Name, logs and the reason the workload exists (echoed in BENCHMARK.json
/// and the README; a unit test keeps the three in step).
#[derive(Debug)]
pub struct Def {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    logs: &'static [&'static str],
    /// Blocks generated per log (each from its own derived seed).
    variants: usize,
    block_bytes: usize,
}

/// Nominal-heavy production logs: 19–27 dictionary vectors per block.
const NEEDLE_LOGS: &[&str] = &["Log A", "Log B", "Log K", "Log T"];
/// Real-vector-heavy logs; G and P compress only ~4x.
const FULLSCAN_LOGS: &[&str] = &["Log C", "Log G", "Log P", "Log U"];
const PUBLIC_LOGS: &[&str] = &[
    "Android",
    "Apache",
    "Bgl",
    "Hadoop",
    "Hdfs",
    "Healthapp",
    "Hpc",
    "Linux",
    "Mac",
    "Openstack",
    "Proxifier",
    "Spark",
    "Ssh",
    "Thunderbird",
    "Windows",
    "Zookeeper",
];
const TAIL_LOGS: &[&str] = &["Hdfs", "Linux", "Ssh", "Openstack"];

pub static DEFS: [Def; 4] = [
    Def {
        kind: Kind::Needle,
        name: "needle",
        why: "hot selective search (hit rate <= 1%, 20% repeats): plan, stamps, dictionaries and fixed-length match do the work; ingest is many small nominal Capsules",
        logs: NEEDLE_LOGS,
        variants: 1,
        block_bytes: 2 << 20,
    },
    Def {
        kind: Kind::Fullscan,
        name: "fullscan",
        why: "hot match-most search (hit rate >= 30%) and reconstruct_all: codec decompression, row verification and the Reconstructor dominate; ingest is large low-ratio real Capsules",
        logs: FULLSCAN_LOGS,
        variants: 1,
        block_bytes: 2 << 20,
    },
    Def {
        kind: Kind::ColdAgg,
        name: "cold_agg",
        why: "cold open then one cheap op on 16 small public logs, the CLI pattern: boxfile decode dominates, engine hot-path work shows nothing, metadata bytes weigh on the ratio",
        logs: PUBLIC_LOGS,
        variants: 1,
        block_bytes: 512 << 10,
    },
    Def {
        kind: Kind::TailMixed,
        name: "tail_mixed",
        why: "one writer ingesting beside one reader on two cores: a gain for one side paid for by the other (buffers, worker threads, a shared lock) shows only here",
        logs: TAIL_LOGS,
        variants: 2,
        block_bytes: 1 << 20,
    },
];

pub fn def(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

/// `Full` is the measured size; `Quick` is 1/16 of it, for the smoke test
/// and `--quick`, whose numbers are not for comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    pub log: &'static str,
    pub raw: Vec<u8>,
    /// The log's Table-1 commands.
    pub table1: Vec<String>,
}

impl Block {
    pub fn lines(&self) -> Vec<&[u8]> {
        loggrep::engine::split_lines(&self.raw)
    }
}

pub fn corpus(def: &Def, seed: u64, scale: Scale) -> Vec<Block> {
    let bytes = match scale {
        Scale::Full => def.block_bytes,
        Scale::Quick => def.block_bytes / 16,
    };
    let mut blocks = Vec::with_capacity(def.logs.len() * def.variants);
    for variant in 0..def.variants {
        for (i, &log) in def.logs.iter().enumerate() {
            let spec = workloads::by_name(log).expect("catalog log");
            // Distinct streams per block: same log, another variant → other bytes.
            let block_seed = seed
                .wrapping_mul(0x100)
                .wrapping_add((variant * def.logs.len() + i) as u64);
            blocks.push(Block {
                log,
                raw: spec.generate(block_seed, bytes),
                table1: spec.queries,
            });
        }
    }
    blocks
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    Query(String),
    ReconstructAll,
    Agg {
        filter: Option<String>,
        spec: AggSpec,
    },
}

impl Action {
    pub fn label(&self) -> String {
        match self {
            Action::Query(q) => q.clone(),
            Action::ReconstructAll => "<reconstruct_all>".to_string(),
            Action::Agg { filter, spec } => match filter {
                Some(f) => format!("{f} | {spec}"),
                None => format!("| {spec}"),
            },
        }
    }
}

/// What a read op is expected to cost, which decides where it is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Oracle hit rate <= 1 % of the block's lines.
    Needle,
    /// Oracle hit rate >= 30 %, or a whole-block reconstruction.
    Scan,
    Agg,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOp {
    pub block: usize,
    pub action: Action,
    pub class: Class,
    /// A Table-1 command: always checked against the oracle.
    pub table1: bool,
    /// Oracle hit count where the builder already knows it.
    pub expect_hits: Option<u32>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpList {
    /// Distinct ops.
    pub ops: Vec<ReadOp>,
    /// One pass: indices into `ops`, in the order a client asks them.
    pub schedule: Vec<u32>,
}

impl OpList {
    pub fn of_block(&self, block: usize, class: Class) -> Vec<u32> {
        (0..self.ops.len() as u32)
            .filter(|&i| {
                let op = &self.ops[i as usize];
                op.block == block && op.class == class
            })
            .collect()
    }
}

/// Seeded needle conjunctions per block (before the Table-1 commands).
const NEEDLE_PER_BLOCK: usize = 80;
const TAIL_NEEDLE_PER_BLOCK: usize = 6;
/// Needle: every 5th scheduled op repeats one of the previous 16.
const REPEAT_EVERY: usize = 5;
const REPEAT_WINDOW: usize = 16;
const NEEDLE_MAX_HIT_RATE: f64 = 0.01;
const SCAN_MIN_HIT_RATE: f64 = 0.30;
const HISTOGRAM_BUCKET: u64 = 1000;

/// Lines of one block plus the harness's own token document frequencies.
struct BlockIndex<'a> {
    raw: &'a [u8],
    lines: Vec<&'a [u8]>,
    df: HashMap<&'a [u8], u32>,
    tokenizer: Tokenizer,
}

impl<'a> BlockIndex<'a> {
    fn new(block: &'a Block) -> Self {
        let tokenizer = Tokenizer::new(DEFAULT_DELIMS);
        let lines = block.lines();
        let mut df: HashMap<&[u8], u32> = HashMap::new();
        let mut seen: Vec<&[u8]> = Vec::new();
        for line in &lines {
            seen.clear();
            seen.extend(tokenizer.tokenize(line).tokens);
            seen.sort_unstable();
            seen.dedup();
            for tok in &seen {
                *df.entry(tok).or_insert(0) += 1;
            }
        }
        Self {
            raw: &block.raw,
            lines,
            df,
            tokenizer,
        }
    }

    /// The lines that hold `needle` (non-empty, no newline), found with one
    /// search over the whole block.
    fn lines_holding(&self, needle: &[u8]) -> Vec<&'a [u8]> {
        let mut out = Vec::new();
        let mut line_end = 0;
        for at in strsearch::BoyerMoore::new(needle).find_all(self.raw) {
            if at < line_end {
                continue; // a second hit in the line already taken
            }
            let start = self.raw[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            line_end = self.raw[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(self.raw.len(), |p| at + p);
            out.push(&self.raw[start..line_end]);
        }
        out
    }

    /// Oracle hit count of `rare and rest..`: every hit of the conjunction
    /// holds `rare`, so only those lines are asked.
    fn conjunction_hits(&self, rare: &[u8], query: &Query) -> u32 {
        self.lines_holding(rare)
            .iter()
            .filter(|l| query.expr.matches_line(l, DEFAULT_DELIMS))
            .count() as u32
    }

    fn df(&self, tok: &[u8]) -> u32 {
        self.df.get(tok).copied().unwrap_or(0)
    }

    fn rate(&self, hits: u32) -> f64 {
        f64::from(hits) / self.lines.len().max(1) as f64
    }
}

/// A token that can stand alone as a search string.
fn searchable(tok: &[u8]) -> bool {
    tok.len() >= 3
        && tok.iter().all(|b| b.is_ascii_graphic() && *b != b'*')
        && !matches!(tok.to_ascii_lowercase().as_slice(), b"and" | b"or" | b"not")
}

fn text(tok: &[u8]) -> String {
    String::from_utf8_lossy(tok).into_owned()
}

/// `n` distinct conjunctions, each built from a sampled line's rarest token
/// plus one more of its tokens, each with an oracle hit rate in (0, 1 %].
fn needle_queries(
    index: &BlockIndex<'_>,
    rng: &mut Rng,
    n: usize,
    taken: &mut HashSet<String>,
) -> Vec<(String, u32)> {
    let mut out = Vec::with_capacity(n);
    // Bounded: a log whose every token is common could never fill `n`.
    for _ in 0..n * 50 {
        if out.len() == n {
            break;
        }
        let line = index.lines[rng.below(index.lines.len())];
        let toks: Vec<&[u8]> = index
            .tokenizer
            .tokenize(line)
            .tokens
            .into_iter()
            .filter(|t| searchable(t))
            .collect();
        let Some(&rare) = toks.iter().min_by_key(|t| (index.df(t), **t)) else {
            continue;
        };
        let other = toks[rng.below(toks.len())];
        let command = if other == rare {
            text(rare)
        } else {
            format!("{} and {}", text(rare), text(other))
        };
        if taken.contains(&command) {
            continue;
        }
        let Ok(query) = Query::parse(&command) else {
            continue;
        };
        let hits = index.conjunction_hits(rare, &query);
        if hits >= 1 && index.rate(hits) <= NEEDLE_MAX_HIT_RATE {
            taken.insert(command.clone());
            out.push((command, hits));
        }
    }
    out
}

/// Match-most commands of one block: its leading token, `or`s of its
/// commonest words and in-token wildcards of them (`worker` → `wor*er`).
/// Each holds a token found in >= 30 % of lines, which bounds its hit rate
/// from below without running the oracle.
fn scan_queries(index: &BlockIndex<'_>) -> Vec<String> {
    let floor = (SCAN_MIN_HIT_RATE * index.lines.len() as f64).ceil() as u32;
    let mut common: Vec<(&[u8], u32)> = index
        .df
        .iter()
        .filter(|(t, &n)| {
            n >= floor && t.len() >= 4 && searchable(t) && !t.iter().any(u8::is_ascii_digit)
        })
        .map(|(t, &n)| (*t, n))
        .collect();
    common.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    common.truncate(4);
    let words: Vec<String> = common.iter().map(|(t, _)| text(t)).collect();

    let mut out: Vec<String> = Vec::new();
    let first = index
        .lines
        .first()
        .and_then(|l| index.tokenizer.tokenize(l).tokens.first().copied());
    if let Some(tok) = first.filter(|t| searchable(t) && index.df(t) >= floor) {
        out.push(text(tok));
    }
    for pair in words.windows(2) {
        out.push(format!("{} or {}", pair[0], pair[1]));
    }
    for w in words.iter().take(3) {
        let mid = w.len() / 2;
        out.push(format!("{}*{}", &w[..mid], &w[mid + 1..]));
    }
    let mut seen = HashSet::new();
    out.retain(|q| seen.insert(q.clone()));
    assert!(
        !out.is_empty(),
        "no match-most command: no common word in the block"
    );
    out
}

/// The match-most commands of `block` (see [`scan_queries`]).
pub fn scan_commands(block: &Block) -> Vec<String> {
    scan_queries(&BlockIndex::new(block))
}

/// The first dictionary-stored slot of the group with the most rows: the
/// `top-K` target a dashboard would ask about.
fn top_k_target(boxed: &CapsuleBox) -> Option<(usize, usize)> {
    let mut groups: Vec<usize> = (0..boxed.groups.len()).collect();
    groups.sort_by_key(|&g| std::cmp::Reverse(boxed.groups[g].rows()));
    groups.into_iter().find_map(|g| {
        boxed.groups[g]
            .vectors
            .iter()
            .position(|v| matches!(v, VectorMeta::Nominal { .. }))
            .map(|slot| (g, slot))
    })
}

/// The aggregate mix of one block: four unfiltered verbs, one filtered count.
pub fn agg_actions(block: &Block, boxed: &CapsuleBox) -> Vec<Action> {
    let mut specs = vec![
        AggSpec::Count,
        AggSpec::CountByTemplate,
        AggSpec::Histogram {
            bucket: HISTOGRAM_BUCKET,
        },
    ];
    if let Some((template, slot)) = top_k_target(boxed) {
        specs.push(AggSpec::TopK {
            k: 5,
            template,
            slot,
        });
    }
    let mut out: Vec<Action> = specs
        .into_iter()
        .map(|spec| Action::Agg { filter: None, spec })
        .collect();
    out.push(Action::Agg {
        filter: Some(block.table1[0].clone()),
        spec: AggSpec::Count,
    });
    out
}

/// Builds the workload's op list. `boxes[i]` is `blocks[i]` as the engine
/// stored it; only the aggregate targets are read from it.
pub fn op_list(def: &Def, seed: u64, blocks: &[Block], boxes: &[&CapsuleBox]) -> OpList {
    let mut rng = Rng::new(seed ^ 0x5eed_0f0b);
    let mut ops = Vec::new();
    for (b, block) in blocks.iter().enumerate() {
        let index = BlockIndex::new(block);
        let mut push = |action, class, table1, expect_hits| {
            ops.push(ReadOp {
                block: b,
                action,
                class,
                table1,
                expect_hits,
            });
        };
        // Seeded needle conjunctions and match-most commands per block.
        let (needles, scans) = match def.kind {
            Kind::Needle => (NEEDLE_PER_BLOCK, 0),
            Kind::Fullscan => (0, usize::MAX),
            Kind::ColdAgg => (0, 0),
            Kind::TailMixed => (TAIL_NEEDLE_PER_BLOCK, 3),
        };
        if needles > 0 {
            // The Table-1 commands selective enough to be needles, then the
            // seeded conjunctions, all distinct.
            let mut taken = HashSet::new();
            for command in &block.table1 {
                let query = Query::parse(command).expect("catalog command parses");
                let hits = index
                    .lines
                    .iter()
                    .filter(|l| query.expr.matches_line(l, DEFAULT_DELIMS))
                    .count() as u32;
                if index.rate(hits) <= NEEDLE_MAX_HIT_RATE && taken.insert(command.clone()) {
                    push(
                        Action::Query(command.clone()),
                        Class::Needle,
                        true,
                        Some(hits),
                    );
                }
            }
            for (q, hits) in needle_queries(&index, &mut rng, needles, &mut taken) {
                push(Action::Query(q), Class::Needle, false, Some(hits));
            }
        }
        if def.kind == Kind::Fullscan {
            let lines = index.lines.len() as u32;
            push(Action::ReconstructAll, Class::Scan, false, Some(lines));
        }
        if scans > 0 {
            for q in scan_queries(&index).into_iter().take(scans) {
                push(Action::Query(q), Class::Scan, false, None);
            }
        }
        if def.kind == Kind::ColdAgg {
            for action in agg_actions(block, boxes[b]) {
                push(action, Class::Agg, false, None);
            }
            push(
                Action::Query(block.table1[0].clone()),
                Class::Needle,
                true,
                None,
            );
        }
    }

    let mut fresh: Vec<u32> = (0..ops.len() as u32).collect();
    rng.shuffle(&mut fresh);
    let schedule = if def.kind == Kind::Needle {
        // Refining-mode traffic: a fifth of the ops ask again what one of
        // the previous 16 asked, so the query cache serves exactly those.
        let mut schedule = Vec::with_capacity(fresh.len() * REPEAT_EVERY / (REPEAT_EVERY - 1));
        for (i, op) in fresh.into_iter().enumerate() {
            schedule.push(op);
            if (i + 1) % (REPEAT_EVERY - 1) == 0 {
                let back = 1 + rng.below(REPEAT_WINDOW.min(schedule.len()));
                schedule.push(schedule[schedule.len() - back]);
            }
        }
        schedule
    } else {
        fresh
    };
    OpList { ops, schedule }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(def: &Def, seed: u64) -> (Vec<Block>, OpList) {
        let blocks = corpus(def, seed, Scale::Quick);
        let engine = loggrep::LogGrep::new(loggrep::LogGrepConfig {
            threads: 1,
            ..Default::default()
        });
        let boxes: Vec<CapsuleBox> = blocks
            .iter()
            .map(|b| engine.compress(&b.raw).expect("compress"))
            .collect();
        let refs: Vec<&CapsuleBox> = boxes.iter().collect();
        let ops = op_list(def, seed, &blocks, &refs);
        (blocks, ops)
    }

    #[test]
    fn corpus_and_ops_are_pure_functions_of_workload_and_seed() {
        for def in &DEFS {
            let (blocks_a, ops_a) = build(def, 3);
            let (blocks_b, ops_b) = build(def, 3);
            assert!(
                blocks_a == blocks_b,
                "{}: corpus differs between builds",
                def.name
            );
            assert_eq!(ops_a, ops_b, "{}: op list differs between builds", def.name);
            let (blocks_c, ops_c) = build(def, 4);
            assert!(
                blocks_a != blocks_c,
                "{}: corpus ignores the seed",
                def.name
            );
            assert_ne!(
                ops_a.schedule, ops_c.schedule,
                "{}: schedule ignores the seed",
                def.name
            );
        }
    }

    #[test]
    fn hit_rate_filters_hold_against_the_oracle() {
        for def in &DEFS {
            let (blocks, list) = build(def, 5);
            let lines: Vec<Vec<&[u8]>> = blocks.iter().map(Block::lines).collect();
            for op in &list.ops {
                let Action::Query(command) = &op.action else {
                    continue;
                };
                let query = Query::parse(command).expect("parses");
                let block = &lines[op.block];
                let hits = block
                    .iter()
                    .filter(|l| query.expr.matches_line(l, DEFAULT_DELIMS))
                    .count();
                let rate = hits as f64 / block.len() as f64;
                match op.class {
                    Class::Needle if def.kind != Kind::ColdAgg => {
                        assert!(
                            hits >= 1 && rate <= NEEDLE_MAX_HIT_RATE,
                            "{}: `{command}` hits {rate}",
                            def.name
                        );
                        assert_eq!(
                            op.expect_hits,
                            Some(hits as u32),
                            "{}: `{command}`",
                            def.name
                        );
                    }
                    Class::Scan => {
                        assert!(
                            rate >= SCAN_MIN_HIT_RATE,
                            "{}: `{command}` hits {rate}",
                            def.name
                        )
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn needle_schedule_repeats_a_fifth_of_its_ops() {
        let (_, list) = build(def("needle").expect("needle"), 9);
        let mut seen = HashSet::new();
        let repeats = list.schedule.iter().filter(|op| !seen.insert(**op)).count();
        assert_eq!(seen.len(), list.ops.len(), "every distinct op is scheduled");
        assert_eq!(
            repeats * REPEAT_EVERY,
            list.schedule.len() - list.schedule.len() % REPEAT_EVERY
        );
    }
}
