//! `Archive::explain` prints the plan `Archive::query` runs.
//!
//! Both fold the one Locator tree (`query::locate`), so over every catalog
//! log, every engine configuration and a query list with literals,
//! `and`/`or`/`not` and wildcards:
//!
//! 1. group skips and stamp rejections predicted == executed for queries
//!    without `and`/`not` (those short-circuit groups: executed ≤ predicted);
//! 2. a query that reconstructs nothing decompresses at most the predicted
//!    scan Capsules;
//! 3. `without_stamps()` predicts (and takes) no stamp rejection;
//! 4. `explain` decompresses nothing: it answers identically on an archive
//!    whose payload blob has been emptied.

use loggrep::{LogGrep, LogGrepConfig};

const SEED: u64 = 13;
const BYTES: usize = 48 * 1024;

const QUERIES: &[&str] = &[
    "ERROR",
    "zzzz",
    "error",
    "INFO",
    "10",
    "0000",
    ".1",
    ":0",
    "e-",
    "jo*b",
    "wor*er",
    "E*R",
    "1*0",
    "ERROR or WARN",
    "zzzz or jo*b or 10",
    "ERROR and 1",
    "INFO not 2",
    "a*e and 0 or zzzz",
];

fn check(config: LogGrepConfig) {
    let engine = LogGrep::new(config.clone());
    for log in workloads::all_logs() {
        let boxed = engine
            .compress(&log.generate(SEED, BYTES))
            .expect("catalog logs compress");
        let mut hollow = boxed.clone();
        hollow.blob.clear();
        let hollow = engine.open(hollow);
        let archive = engine.open(boxed);
        for &q in QUERIES {
            let at = format!("{} `{q}`", log.name);
            let explained = archive.explain(q).expect("explain");
            let result = archive.query(q).expect("query");
            assert!(!result.stats.cache_hit, "{at}: queries are distinct");
            let drift = explained.drift(&result.stats);
            assert!(drift.consistent(), "{at}: {drift}");
            assert_eq!(
                drift.partial,
                q.contains(" and ") || q.contains(" not "),
                "{at}"
            );
            if !drift.partial {
                assert_eq!(
                    (drift.actual_groups_skipped, drift.actual_stamp_rejections),
                    (drift.predicted_skips, drift.predicted_stamp_rejections),
                    "{at}: {drift}"
                );
            }
            if result.lines.is_empty() && result.stats.rows_verified == 0 {
                assert!(
                    drift.actual_capsules_decompressed <= drift.predicted_scan_capsules,
                    "{at}: {drift}"
                );
            }
            if !config.use_stamps {
                assert_eq!(drift.predicted_stamp_rejections, 0, "{at}");
            }
            let blind = hollow.explain(q).expect("explain reads metadata only");
            for (seen, unseen) in explained.searches.iter().zip(&blind.searches) {
                assert_eq!(seen.decisions, unseen.decisions, "{at}");
            }
        }
        // The emptied blob is what a decompression would have needed.
        assert!(hollow.query("10").is_err(), "{}", log.name);
    }
}

#[test]
fn default() {
    check(LogGrepConfig::default());
}

#[test]
fn sp() {
    check(LogGrepConfig::sp());
}

#[test]
fn without_real() {
    check(LogGrepConfig::without_real());
}

#[test]
fn without_nominal() {
    check(LogGrepConfig::without_nominal());
}

#[test]
fn without_stamps() {
    check(LogGrepConfig::without_stamps());
}

#[test]
fn without_fixed() {
    check(LogGrepConfig::without_fixed());
}
