//! The differential harness: one case, every engine, every knob.
//!
//! [`Harness::check`] runs a [`Case`] through every engine in
//! [`baselines::LogGrepSystem`] — the full system, LogGrep-SP, and each
//! §6.3 ablation — plus the non-LogGrep baselines, and compares every
//! result against the naive [`crate::oracle`]. Each LogGrep config
//! compresses at every configured thread count (the write side is what
//! threads change) and is opened and queried once: reads are serial per
//! block. On top of exact line-set equality it asserts cross-cutting
//! invariants:
//!
//! * serialized archives are **byte-identical across thread counts**;
//! * `QueryStats` sanity: `capsules_decompressed ≤ capsules_total`,
//!   ascending line numbers, no cache hit on a cold query;
//! * plan drift stays within [`loggrep::query::explain`]'s lazy-execution
//!   bounds (literal queries only — wildcard plans are vacuously
//!   consistent);
//! * with the cache enabled, a repeated query reports `cache_hit` and
//!   returns byte-identical lines; with it disabled, it never does;
//! * warm == cold: the repeat returns the same line numbers, decompresses
//!   nothing when the first run's Capsules all stayed resident, and with
//!   the cache disabled (no cross-query state) repeats the first run's
//!   counts exactly.

use crate::corpus::Case;
use crate::oracle;
use baselines::{Clp, GzipGrep, LogSystem, MiniEs};
use loggrep::{LogGrep, LogGrepConfig};

/// One differential failure: which engine disagreed and how.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Engine label, e.g. `LogGrep[w/o fixed]`.
    pub engine: String,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.engine, self.detail)
    }
}

/// The engine matrix and its invariant checks.
pub struct Harness {
    /// Worker-pool sizes each LogGrep config compresses at.
    pub threads: Vec<usize>,
    /// Also run the non-LogGrep baselines (gzip+grep, CLP, mini-ES).
    pub with_baselines: bool,
    /// Extra systems to compare (used by the harness self-test to prove an
    /// injected bug is caught).
    pub extra: Vec<Box<dyn LogSystem>>,
}

impl Default for Harness {
    fn default() -> Self {
        Self {
            threads: vec![1, 4],
            with_baselines: true,
            extra: Vec::new(),
        }
    }
}

/// Every LogGrep engine configuration of the §6.3 matrix, labeled, plus
/// the codec-selection dimension: the default config exercises the
/// per-capsule cost model (`auto`), and the forced single-codec configs
/// cross-check it — a mixed-codec archive must decode to exactly the same
/// lines as a uniformly compressed one.
pub fn engine_matrix() -> Vec<(&'static str, LogGrepConfig)> {
    let with_codec = |name: &str| LogGrepConfig {
        codec_name: name.to_string(),
        ..LogGrepConfig::default()
    };
    vec![
        ("LogGrep", LogGrepConfig::default()),
        ("LogGrep-SP", LogGrepConfig::sp()),
        ("LogGrep[w/o real]", LogGrepConfig::without_real()),
        ("LogGrep[w/o nomi]", LogGrepConfig::without_nominal()),
        ("LogGrep[w/o stamp]", LogGrepConfig::without_stamps()),
        ("LogGrep[w/o fixed]", LogGrepConfig::without_fixed()),
        ("LogGrep[w/o cache]", LogGrepConfig::without_cache()),
        ("LogGrep[lzma]", with_codec("lzma-lite")),
        ("LogGrep[deflate]", with_codec("deflate")),
    ]
}

/// Compresses `raw` under `config` at every thread count in `threads` and
/// returns the serialized archive, which must be a pure function of
/// (input, config), never of scheduling.
pub fn compress_at_each_thread_count(
    config: &LogGrepConfig,
    threads: &[usize],
    raw: &[u8],
) -> Result<Vec<u8>, String> {
    let mut reference: Option<Vec<u8>> = None;
    for &threads in threads {
        let engine = LogGrep::new(LogGrepConfig {
            threads,
            ..config.clone()
        });
        let bytes = engine
            .compress(raw)
            .map_err(|e| format!("compress failed at {threads} thread(s): {e}"))?
            .to_bytes();
        match &reference {
            None => reference = Some(bytes),
            Some(first) if *first != bytes => {
                return Err("serialized archive differs across thread counts".to_string());
            }
            Some(_) => {}
        }
    }
    reference.ok_or_else(|| "no thread count configured".to_string())
}

/// Renders a block's lines back into raw bytes (one trailing newline per
/// line, the framing [`loggrep::engine::split_lines`] undoes).
pub fn block_bytes(lines: &[Vec<u8>]) -> Vec<u8> {
    let mut raw = Vec::new();
    for line in lines {
        raw.extend_from_slice(line);
        raw.push(b'\n');
    }
    raw
}

impl Harness {
    /// Checks one case across the whole matrix. `Ok(())` means every
    /// engine agreed with the oracle and every invariant held.
    pub fn check(&self, case: &Case) -> Result<(), Failure> {
        self.check_filtered(case, None)
    }

    /// Like [`Self::check`], but when `only` is set, runs just the engine
    /// whose tag equals it — the shrinker re-checks candidates against the
    /// originally failing engine alone, which is ~an order of magnitude
    /// cheaper than the full matrix.
    pub fn check_filtered(&self, case: &Case, only: Option<&str>) -> Result<(), Failure> {
        let ast = case.ast().ok_or_else(|| Failure {
            engine: "parser".into(),
            detail: format!("query {:?} does not parse to a left-deep chain", case.query),
        })?;
        let want = oracle::matching_lines(&case.blocks, &ast);

        for (label, config) in engine_matrix() {
            if only.is_some_and(|o| o != label) {
                continue;
            }
            self.check_loggrep(case, &want, label, config)?;
        }

        if self.with_baselines {
            for sys in [
                Box::new(GzipGrep) as Box<dyn LogSystem>,
                Box::new(Clp { segment_lines: 16 }),
                Box::new(MiniEs {
                    flush_docs: 8,
                    merge_factor: 2,
                }),
            ] {
                if only.is_some_and(|o| o != sys.name()) {
                    continue;
                }
                check_system(sys.as_ref(), case, &want)?;
            }
        }
        for sys in &self.extra {
            if only.is_some_and(|o| o != sys.name()) {
                continue;
            }
            check_system(sys.as_ref(), case, &want)?;
        }
        Ok(())
    }

    /// One LogGrep configuration over every block.
    fn check_loggrep(
        &self,
        case: &Case,
        want: &[Vec<u8>],
        tag: &str,
        config: LogGrepConfig,
    ) -> Result<(), Failure> {
        let fail = |detail: String| Failure {
            engine: tag.to_string(),
            detail,
        };
        let engine = LogGrep::new(config);
        let config = engine.config();
        let mut got: Vec<Vec<u8>> = Vec::new();

        for (bi, block) in case.blocks.iter().enumerate() {
            let bytes = compress_at_each_thread_count(config, &self.threads, &block_bytes(block))
                .map_err(|detail| fail(format!("block {bi}: {detail}")))?;

            // Reopen from bytes so the wire decode path is exercised too.
            let reopened = loggrep::CapsuleBox::from_bytes(&bytes)
                .map_err(|e| fail(format!("block {bi}: reopen failed: {e}")))?;
            let archive = engine.open(reopened);

            let result = archive
                .query(&case.query)
                .map_err(|e| fail(format!("block {bi}: query failed: {e}")))?;
            check_stats(&archive, &result, &case.query)
                .map_err(|detail| fail(format!("block {bi}: {detail}")))?;

            // Cache contract: with the cache on, the repeat is a hit with
            // byte-identical lines; with it off, it never is.
            let repeat = archive
                .query(&case.query)
                .map_err(|e| fail(format!("block {bi}: repeat query failed: {e}")))?;
            if config.use_query_cache && !repeat.stats.cache_hit {
                return Err(fail(format!("block {bi}: repeat query missed the cache")));
            }
            if !config.use_query_cache && repeat.stats.cache_hit {
                return Err(fail(format!(
                    "block {bi}: cache hit with the cache disabled"
                )));
            }
            if repeat.lines != result.lines || repeat.line_numbers != result.line_numbers {
                return Err(fail(format!(
                    "block {bi}: cached result differs from cold result"
                )));
            }
            check_warm(&archive, &result.stats, &repeat.stats, config.use_query_cache)
                .map_err(|detail| fail(format!("block {bi}: {detail}")))?;

            got.extend(result.lines);
        }

        diff_lines(tag, &got, want)
    }
}

/// Compares one [`LogSystem`] implementation against the oracle verdict
/// (lines only — the trait exposes no statistics).
pub fn check_system(sys: &dyn LogSystem, case: &Case, want: &[Vec<u8>]) -> Result<(), Failure> {
    let name = sys.name();
    let fail = |detail: String| Failure {
        engine: name.clone(),
        detail,
    };
    let mut got: Vec<Vec<u8>> = Vec::new();
    for (bi, block) in case.blocks.iter().enumerate() {
        let raw = block_bytes(block);
        let stored = sys
            .compress(&raw)
            .map_err(|e| fail(format!("block {bi}: compress failed: {e}")))?;
        let archive = sys
            .open(&stored)
            .map_err(|e| fail(format!("block {bi}: open failed: {e}")))?;
        got.extend(
            archive
                .query(&case.query)
                .map_err(|e| fail(format!("block {bi}: query failed: {e}")))?,
        );
    }
    diff_lines(&name, &got, want)
}

/// `QueryStats` invariants on a cold query result.
fn check_stats(
    archive: &loggrep::Archive,
    result: &loggrep::query::exec::QueryResult,
    query: &str,
) -> Result<(), String> {
    let stats = &result.stats;
    let capsules_total = archive.capsule_box().capsules.len();
    if stats.capsules_total as usize != capsules_total {
        return Err(format!(
            "stats.capsules_total = {} but the archive holds {capsules_total}",
            stats.capsules_total
        ));
    }
    if stats.capsules_decompressed > capsules_total {
        return Err(format!(
            "capsules_decompressed {} > capsules_total {capsules_total}",
            stats.capsules_decompressed
        ));
    }
    if stats.cache_hit {
        return Err("cold query reported a cache hit".to_string());
    }
    if result.line_numbers.len() != result.lines.len() {
        return Err(format!(
            "{} line numbers for {} lines",
            result.line_numbers.len(),
            result.lines.len()
        ));
    }
    if !result.line_numbers.windows(2).all(|w| w[0] < w[1]) {
        return Err("line numbers not strictly ascending".to_string());
    }
    // Plan drift: the executor runs the plan `explain` prints, so skips and
    // stamp rejections are equal (at most, under `and`/`not`), and a query
    // that reconstructs nothing opens no Capsule outside the plan.
    let explanation = archive
        .explain(query)
        .map_err(|e| format!("explain failed: {e}"))?;
    let drift = explanation.drift(stats);
    let unplanned = result.lines.is_empty()
        && stats.rows_verified == 0
        && drift.capsules_touched() > drift.predicted_scan_capsules;
    if !drift.consistent() || unplanned {
        return Err(format!("execution left the plan: {drift}"));
    }
    Ok(())
}

/// Resident-Capsule contract between a cold query and its repeat on the same
/// archive. With state kept between queries the repeat decompresses nothing
/// unless the table evicted something (it reads a subset of what the cold
/// run left resident: a Query Cache hit skips locating); with none kept it
/// does the cold run's work over again, count for count.
fn check_warm(
    archive: &loggrep::Archive,
    cold: &loggrep::QueryStats,
    warm: &loggrep::QueryStats,
    stateful: bool,
) -> Result<(), String> {
    let decompressed = |s: &loggrep::QueryStats| (s.capsules_decompressed, s.bytes_decompressed);
    let resident = |s: &loggrep::QueryStats| (s.capsules_resident, s.bytes_resident);
    let ok = resident(cold) == (0, 0)
        && if stateful {
            archive.resident_evictions() > 0
                || (decompressed(warm) == (0, 0)
                    && warm.capsules_resident <= cold.capsules_decompressed)
        } else {
            resident(warm) == (0, 0)
                && decompressed(warm) == decompressed(cold)
                && archive.resident_bytes() == 0
        };
    if ok {
        return Ok(());
    }
    Err(format!(
        "repeat decompressed {:?} and found resident {:?} after a cold run's {:?} / {:?}",
        decompressed(warm),
        resident(warm),
        decompressed(cold),
        resident(cold)
    ))
}

/// Ordered line-set comparison with a first-divergence report.
fn diff_lines(engine: &str, got: &[Vec<u8>], want: &[Vec<u8>]) -> Result<(), Failure> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want.iter())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.len().min(want.len()));
    let show = |side: &[Vec<u8>]| match side.get(at) {
        Some(l) => format!("{:?}", String::from_utf8_lossy(l)),
        None => "<absent>".to_string(),
    };
    Err(Failure {
        engine: engine.to_string(),
        detail: format!(
            "matched {} lines, oracle matched {}; first divergence at match #{at}: engine {} vs oracle {}",
            got.len(),
            want.len(),
            show(got),
            show(want)
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryAst;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_case_passes_whole_matrix() {
        let blocks = vec![vec![
            b"ERROR blk_1A read 17".to_vec(),
            b"INFO blk_2B write 18".to_vec(),
            b"ERROR blk_3C read 19".to_vec(),
        ]];
        let case = Case {
            query: "ERROR and read".into(),
            blocks,
            note: String::new(),
        };
        Harness::default().check(&case).expect("matrix agrees");
    }

    #[test]
    fn generated_cases_pass_smoke() {
        let harness = Harness::default();
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let blocks = crate::genlog::generate_blocks(&mut rng);
            let lines: Vec<Vec<u8>> = blocks.iter().flatten().cloned().collect();
            let ast = QueryAst::generate(&mut rng, &lines);
            let case = Case::new(&ast, blocks);
            if let Err(f) = harness.check(&case) {
                panic!("seed {seed}: {f}\n{}", case.to_text());
            }
        }
    }
}
