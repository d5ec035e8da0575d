//! Satellite: `QueryCache` LRU bounds under the harness.
//!
//! Repeated randomized queries against one archive must never grow the
//! cache past `Archive::set_query_cache_entries`, and a cache-hit result must be
//! byte-identical to the cold result of the same query.

use difftest::genlog;
use difftest::harness::block_bytes;
use difftest::query::QueryAst;
use loggrep::{LogGrep, LogGrepConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn lru_bound_holds_under_randomized_queries() {
    const CAP: usize = 5;
    let mut rng = StdRng::seed_from_u64(0xcac4e);
    let blocks = genlog::generate_blocks(&mut rng);
    let lines: Vec<Vec<u8>> = blocks.iter().flatten().cloned().collect();
    let raw = block_bytes(&lines);

    let engine = LogGrep::new(LogGrepConfig::default());
    let mut archive = engine.compress_to_archive(&raw).expect("clean input");
    archive.set_query_cache_entries(CAP);

    // A disabled-cache twin provides the always-cold reference.
    let cold_engine = LogGrep::new(LogGrepConfig::without_cache());
    let mut cold_archive = cold_engine.compress_to_archive(&raw).expect("clean input");
    cold_archive.set_query_cache_entries(CAP);

    let mut distinct = std::collections::HashSet::new();
    for i in 0..60u64 {
        let mut qrng = StdRng::seed_from_u64(0xbeef ^ i);
        let ast = QueryAst::generate(&mut qrng, &lines);
        let text = ast.render();
        distinct.insert(text.clone());

        let first = archive.query(&text).expect("query");
        let repeat = archive.query(&text).expect("repeat");
        assert!(repeat.stats.cache_hit, "query {i} repeat missed the cache");
        assert_eq!(first.lines, repeat.lines, "query {i}: hit differs from cold");
        assert_eq!(
            first.line_numbers, repeat.line_numbers,
            "query {i}: hit line numbers differ"
        );

        let reference = cold_archive.query(&text).expect("cold query");
        assert!(!reference.stats.cache_hit, "cache-off archive reported a hit");
        assert_eq!(
            first.lines, reference.lines,
            "query {i}: cached archive differs from cache-off archive"
        );

        assert!(
            archive.query_cache_len() <= CAP,
            "after query {i}: cache holds {} entries (cap {CAP})",
            archive.query_cache_len()
        );
        assert!(
            cold_archive.query_cache_len() == 0,
            "cache-off archive stored an entry"
        );
    }
    assert!(distinct.len() > CAP, "workload never exceeded the cap");
    assert!(
        archive.query_cache_evictions() >= (distinct.len() - CAP) as u64,
        "evictions {} below expectation",
        archive.query_cache_evictions()
    );
}

#[test]
fn unbounded_cache_still_replays_identically() {
    let mut rng = StdRng::seed_from_u64(7);
    let blocks = genlog::generate_blocks(&mut rng);
    let lines: Vec<Vec<u8>> = blocks.iter().flatten().cloned().collect();
    let raw = block_bytes(&lines);
    let engine = LogGrep::new(LogGrepConfig::default());
    let mut archive = engine.compress_to_archive(&raw).expect("clean input");
    archive.set_query_cache_entries(0); // Unbounded.
    for i in 0..10u64 {
        let mut qrng = StdRng::seed_from_u64(i);
        let text = QueryAst::generate(&mut qrng, &lines).render();
        let a = archive.query(&text).expect("query");
        let b = archive.query(&text).expect("repeat");
        assert!(b.stats.cache_hit);
        assert_eq!(a.lines, b.lines);
    }
    assert_eq!(archive.query_cache_evictions(), 0);
}
