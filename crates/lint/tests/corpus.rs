//! Fixture-corpus tests for the analyzer's rule packs.
//!
//! Each fixture under `tests/fixtures/` is a self-describing Rust
//! source: lines that must produce a diagnostic carry a trailing
//! `// expect: <rule>` marker, and the driver asserts the analyzer
//! reports *exactly* the marked set — so a fixture simultaneously pins
//! positives (marked lines fire) and negatives (unmarked lines stay
//! silent). Fixtures live outside `src/`, so the in-tree gate never
//! sees them.

use lint::rules::RULE_LOCK_CYCLE;
use lint::{analyze_file, finalize, FileAnalysis};
use std::fs;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// `(line, rule)` pairs declared by `// expect:` markers in `src`.
fn expected(src: &str) -> Vec<(u32, String)> {
    let mut out: Vec<(u32, String)> = src
        .lines()
        .enumerate()
        .filter_map(|(i, l)| {
            l.split("// expect: ")
                .nth(1)
                .map(|r| (i as u32 + 1, r.trim().to_string()))
        })
        .collect();
    out.sort();
    out
}

fn analyze(name: &str, rel: &str) -> (String, FileAnalysis) {
    let src = fixture(name);
    let a = analyze_file(rel, &src);
    (src, a)
}

/// Runs one fixture through the full per-file + global pipeline and
/// compares the diagnostic set against the fixture's own markers.
fn check(name: &str, rel: &str) {
    let (src, a) = analyze(name, rel);
    let mut got: Vec<(u32, String)> = finalize(&[a])
        .into_iter()
        .map(|d| (d.line, d.rule.to_string()))
        .collect();
    got.sort();
    assert_eq!(got, expected(&src), "fixture {name}");
}

// Taint fixtures run under a designated decode-path scope (the rel path
// suffix-matches the wire reader's designation).

#[test]
fn taint_positive() {
    check("taint_positive.rs", "crates/loggrep/src/wire.rs");
}

#[test]
fn taint_negative() {
    check("taint_negative.rs", "crates/loggrep/src/wire.rs");
}

#[test]
fn taint_allow_hatch() {
    check("taint_allow.rs", "crates/loggrep/src/wire.rs");
}

#[test]
fn lock_across_blocking() {
    check("lock_blocking.rs", "crates/cluster/src/node.rs");
}

#[test]
fn pool_worker_blocking() {
    check("pool_worker.rs", "crates/pool/src/worker.rs");
}

#[test]
fn swallowed_result() {
    check("swallowed.rs", "crates/cluster/src/net.rs");
}

#[test]
fn span_balance() {
    check("span_balance.rs", "crates/telemetry/src/user.rs");
}

#[test]
fn stale_allow() {
    check("stale_allow.rs", "crates/loggrep/src/wire.rs");
}

/// Positive: the two lock-cycle fixtures together close a cross-file
/// cycle (A: items→stats, B: stats→items).
#[test]
fn lock_cycle_pair_is_reported() {
    let (_, a) = analyze("lock_cycle_a.rs", "crates/pool/src/lock_cycle_a.rs");
    let (_, b) = analyze("lock_cycle_b.rs", "crates/pool/src/lock_cycle_b.rs");
    let d = finalize(&[a, b]);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].rule, RULE_LOCK_CYCLE);
    assert!(d[0].message.contains("Queue.items"), "{}", d[0].message);
    assert!(d[0].message.contains("Queue.stats"), "{}", d[0].message);
}

/// Negative: either file alone only contributes edges — no cycle.
#[test]
fn lock_cycle_single_file_is_clean() {
    let (_, a) = analyze("lock_cycle_a.rs", "crates/pool/src/lock_cycle_a.rs");
    assert!(finalize(&[a]).is_empty());
    let (_, b) = analyze("lock_cycle_b.rs", "crates/pool/src/lock_cycle_b.rs");
    assert!(finalize(&[b]).is_empty());
}

/// Allow-hatch: a reasoned `lint:allow(lock-order-cycle)` on the edge
/// the diagnostic anchors to suppresses it and counts as live.
#[test]
fn lock_cycle_allow_hatch() {
    let (_, a) = analyze("lock_cycle_allow_a.rs", "crates/pool/src/lock_cycle_a.rs");
    let (_, b) = analyze("lock_cycle_b.rs", "crates/pool/src/lock_cycle_b.rs");
    let d = finalize(&[a, b]);
    assert!(d.is_empty(), "{d:?}");
}
