//! Satellite: `QueryCache` LRU bounds under the harness.
//!
//! Repeated randomized queries against one archive must never grow the
//! cache past its fixed cap, and a cache-hit result must be byte-identical
//! to the cold result of the same query.

use difftest::genlog;
use difftest::harness::block_bytes;
use difftest::query::QueryAst;
use loggrep::{LogGrep, LogGrepConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn lru_bound_holds_under_randomized_queries() {
    // The Query Cache's fixed entry cap.
    const CAP: usize = 256;
    let mut rng = StdRng::seed_from_u64(0xcac4e);
    let blocks = genlog::generate_blocks(&mut rng);
    let lines: Vec<Vec<u8>> = blocks.iter().flatten().cloned().collect();
    let raw = block_bytes(&lines);

    let engine = LogGrep::new(LogGrepConfig::default());
    let archive = engine.compress_to_archive(&raw).expect("clean input");

    // A disabled-cache twin provides the always-cold reference.
    let cold_engine = LogGrep::new(LogGrepConfig::without_cache());
    let cold_archive = cold_engine.compress_to_archive(&raw).expect("clean input");

    let mut distinct = std::collections::HashSet::new();
    for i in 0..320u64 {
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
    assert_eq!(
        archive.query_cache_len(),
        CAP,
        "a full cache holds exactly the cap"
    );
    assert!(
        archive.query_cache_evictions() >= (distinct.len() - CAP) as u64,
        "evictions {} below expectation",
        archive.query_cache_evictions()
    );
}
