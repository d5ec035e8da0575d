//! Targeted tests for the less-traveled execution paths of §5: planner
//! overflow, large nominal match sets, outlier scanning, and the wildcard
//! verification path.

use loggrep::query::agg::AggResult;
use loggrep::query::lang::{AggSpec, Query};
use loggrep::{LogGrep, LogGrepConfig};
use logparse::DEFAULT_DELIMS;

fn oracle(raw: &[u8], command: &str) -> Vec<Vec<u8>> {
    let q = Query::parse(command).unwrap();
    loggrep::engine::split_lines(raw)
        .into_iter()
        .filter(|l| q.expr.matches_line(l, DEFAULT_DELIMS))
        .map(|l| l.to_vec())
        .collect()
}

fn check(raw: &[u8], config: LogGrepConfig, commands: &[&str]) {
    let engine = LogGrep::new(config);
    let archive = engine.compress_to_archive(raw).unwrap();
    for q in commands {
        assert_eq!(archive.query(q).unwrap().lines, oracle(raw, q), "query `{q}`");
    }
}

/// A repetitive low-information alphabet drives the planner toward its
/// conjunction budget (overflow → brute-force scan).
#[test]
fn planner_overflow_falls_back_correctly() {
    let mut raw = Vec::new();
    for i in 0..300 {
        // Values made of 'a' runs split by 'a'-adjacent constants maximize
        // possible-match ambiguity.
        raw.extend_from_slice(
            format!(
                "{} aa{} aaa{}aa\n",
                ["aa", "aaa", "aaaa"][i % 3],
                "a".repeat(i % 5),
                "a".repeat((i / 3) % 4),
            )
            .as_bytes(),
        );
    }
    check(
        &raw,
        LogGrepConfig::default(),
        &["aaaa", "aaaaaa", "aa aaa", "aaaaaaaaaa"],
    );
}

/// Many distinct dictionary values matching one keyword exercises the
/// membership-set index scan (> 8 matched indices).
#[test]
fn nominal_large_match_set() {
    let mut raw = Vec::new();
    for i in 0..2000 {
        // 40 distinct codes, all containing "4": a query for "code:4" must
        // collect a large matched-index set.
        raw.extend_from_slice(format!("evt code:4{:02} host h{}\n", i % 40, i % 3).as_bytes());
    }
    check(
        &raw,
        LogGrepConfig::default(),
        &["code:4", "code:41", "code:439", "code:44 and host"],
    );
}

/// Values that defeat the tree expander land in the outlier Capsule, which
/// every query must scan.
#[test]
fn outliers_are_always_found() {
    let mut raw = Vec::new();
    for i in 0..500 {
        let v = if i % 97 == 0 {
            // Structure-breaking values (no common pattern).
            format!("?!odd{}", i)
        } else {
            format!("blk_{:06x}", i * 7919)
        };
        raw.extend_from_slice(format!("store {} ok\n", v).as_bytes());
    }
    check(
        &raw,
        LogGrepConfig::default(),
        &["?!odd97", "odd", "blk_00d", "?!odd and ok"],
    );
}

/// Wildcards force candidate verification by reconstruction; stats must
/// show it and results must stay exact. A single search string moves its
/// verified lines into the result (`lines_reused`); composites, cache hits
/// and aggregates render as before. `rows_verified` is pinned: keeping
/// lines must not change how many rows are verified.
#[test]
fn wildcard_verification_path() {
    let mut raw = Vec::new();
    for i in 0..400 {
        raw.extend_from_slice(
            format!("fetch /api/v{}/items/{:04} status={}\n", i % 3, i, 200 + (i % 2) * 300)
                .as_bytes(),
        );
    }
    let engine = LogGrep::new(LogGrepConfig::default());
    let archive = engine.compress_to_archive(&raw).unwrap();
    let render = |lines: &[u32]| -> Vec<Vec<u8>> {
        let all = archive.reconstruct_all().unwrap();
        lines.iter().map(|&l| all[l as usize].clone()).collect()
    };
    // (query, rows verified, whether verified lines are reused)
    for (q, verified, reuses) in [
        ("/api/v1/*", 133, true),
        ("status=5*", 200, true),
        ("items/00*9", 100, true),
        ("/api/*/items", 400, true),
        ("/api/v1/* and status=5*", 333, false),
        ("/api/v1/* or items/00*9", 233, false),
        ("/api/* not status=5*", 600, false),
        // Asked again: answered by the query cache, rendered normally.
        ("/api/v1/*", 0, false),
    ] {
        let got = archive.query(q).unwrap();
        assert_eq!(got.lines, oracle(&raw, q), "query `{q}`");
        assert_eq!(got.lines, render(&got.line_numbers), "query `{q}`");
        assert_eq!(got.stats.rows_verified, verified, "query `{q}`");
        let want_reused = if reuses { got.lines.len() } else { 0 };
        assert_eq!(got.stats.lines_reused, want_reused, "query `{q}`");
    }

    let agg = archive.query_agg(Some("items/0*9"), &AggSpec::Count).unwrap();
    assert_eq!(agg.agg, AggResult::Count(oracle(&raw, "items/0*9").len() as u64));
    assert_eq!(agg.stats.rows_verified, 400);
    assert_eq!(agg.stats.lines_reused, 0);
}

/// A literal the planner cannot enumerate (`Matches::Overflow`) is verified
/// by reconstruction too, and reuses the lines it verified.
#[test]
fn overflow_literal_reuses_verified_lines() {
    // One template of 400 one-digit variables: a keyword spanning several
    // of them has more possible alignments than the planner's budget.
    let mut raw = Vec::new();
    let mut x: u64 = 7;
    for _ in 0..20 {
        let tokens: Vec<String> = (0..400)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 60) % 10).to_string()
            })
            .collect();
        raw.extend_from_slice(format!("{}\n", tokens.join(" ")).as_bytes());
    }
    let engine = LogGrep::new(LogGrepConfig::default());
    let archive = engine.compress_to_archive(&raw).unwrap();
    let q = "1 2 3";
    let got = archive.query(q).unwrap();
    assert_eq!(got.lines, oracle(&raw, q));
    assert!(!got.lines.is_empty());
    assert_eq!(got.stats.rows_verified, 20);
    assert_eq!(got.stats.lines_reused, got.lines.len());
    let all = archive.reconstruct_all().unwrap();
    let rendered: Vec<Vec<u8>> = got
        .line_numbers
        .iter()
        .map(|&l| all[l as usize].clone())
        .collect();
    assert_eq!(got.lines, rendered);
}

/// `not` with an empty left side must not evaluate (or fail on) the right.
#[test]
fn not_with_empty_left_short_circuits() {
    let raw = b"x 1\nx 2\ny 3\n";
    let engine = LogGrep::new(LogGrepConfig::default());
    let archive = engine.compress_to_archive(raw).unwrap();
    let r = archive.query("absent-term not x").unwrap();
    assert!(r.lines.is_empty());
    assert_eq!(r.stats.capsules_decompressed, 0);
}

/// Empty-value sub-variables (a pattern ending in a variable that is
/// sometimes empty) round-trip and match correctly.
#[test]
fn empty_subvariable_values() {
    let mut raw = Vec::new();
    for i in 0..300 {
        let suffix = if i % 3 == 0 { String::new() } else { format!("{i}") };
        raw.extend_from_slice(format!("tag id=X{suffix} end\n").as_bytes());
    }
    check(
        &raw,
        LogGrepConfig::default(),
        &["id=X end", "id=X7", "id=X29 end", "id=X299"],
    );
}

/// Queries whose keyword equals an entire line and line-boundary content.
#[test]
fn whole_line_and_boundary_keywords() {
    let raw = b"alpha beta\ngamma delta\nalpha delta\n";
    check(
        raw,
        LogGrepConfig::default(),
        &["alpha beta", "gamma delta", "beta", "delta", "alpha delta"],
    );
}

/// A query leaves its decompressed Capsules resident on the archive: repeat
/// queries (and the full-reconstruction path) read them from there, and
/// results are identical either way.
#[test]
fn capsules_stay_resident_across_queries() {
    let mut raw = Vec::new();
    for i in 0..500 {
        raw.extend_from_slice(format!("job {} state S{} took {}ms\n", i, i % 7, i * 3 % 97).as_bytes());
    }
    let engine = LogGrep::new(LogGrepConfig::default());
    let archive = engine.compress_to_archive(&raw).unwrap();
    assert_eq!(archive.resident_bytes(), 0, "table starts empty");

    let first = archive.query("S3").unwrap();
    assert_eq!(first.lines, oracle(&raw, "S3"));
    let kept = archive.resident_bytes();
    assert!(kept > 0, "query should leave its payloads resident");
    assert!(kept as u64 >= first.stats.bytes_decompressed);

    archive.clear_caches();
    assert_eq!(archive.resident_bytes(), 0, "clear_caches empties the table");
    let second = archive.query("S3").unwrap();
    assert_eq!(first.lines, second.lines);
    assert_eq!(archive.resident_bytes(), kept, "payloads must round-trip, not leak");

    // The full-decompress path shares the same table.
    let all = archive.reconstruct_all().unwrap();
    assert_eq!(all.len(), 500);
    assert!(archive.resident_bytes() >= kept);
}
