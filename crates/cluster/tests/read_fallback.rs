//! Replica read-fallback on data corruption: a corrupt archive on one
//! replica (seeded bit flips, the corruption-robustness mutator
//! technique) must be served silently from a surviving replica, counted
//! in `cluster.read_fallback` — and only when every replica is corrupt
//! does the shard fail.
//!
//! This test owns its process (one integration-test file = one process)
//! because it asserts deltas on process-wide counters.

use cluster::{Cluster, ClusterConfig, FaultPlan};
use loggrep::query::lang::Query;
use loggrep::LogGrepConfig;
use logparse::DEFAULT_DELIMS;

fn sample() -> Vec<u8> {
    (0..900)
        .flat_map(|i| {
            format!(
                "{} op {} user{}\n",
                if i % 9 == 0 { "WARN" } else { "DEBUG" },
                i,
                i % 6
            )
            .into_bytes()
        })
        .collect()
}

fn oracle(raw: &[u8], command: &str) -> Vec<Vec<u8>> {
    let q = Query::parse(command).unwrap();
    loggrep::engine::split_lines(raw)
        .into_iter()
        .filter(|l| q.expr.matches_line(l, DEFAULT_DELIMS))
        .map(|l| l.to_vec())
        .collect()
}

#[test]
fn corrupt_replica_is_served_from_survivor() {
    telemetry::set_enabled(true);
    let raw = sample();
    let cfg = ClusterConfig {
        replication: 2,
        shards: 4,
        faults: FaultPlan::seeded(5),
        ..ClusterConfig::for_nodes(3, LogGrepConfig::default())
    };
    let mut c = Cluster::with_config(cfg).unwrap();
    let blocks = c.ingest(&raw, 4 * 1024).unwrap();
    assert!(blocks >= 2);

    // Flip seeded bits in the *primary* replica of block 0 — the replica
    // the gather loop reads first — so the fallback path must fire.
    let map = *c.shard_map();
    let primary = map.replicas(map.shard_of_block(0))[0];
    for (seed, block_no) in (0..blocks).enumerate() {
        let owner = map.replicas(map.shard_of_block(block_no))[0];
        if owner == primary {
            assert!(c.corrupt_replica(primary, block_no, 0xBAD + seed as u64));
        }
    }

    let before = telemetry::snapshot();
    let result = c.query("WARN").unwrap();
    let after = telemetry::snapshot();

    assert!(result.complete, "the surviving replica covers the corruption");
    assert_eq!(result.lines, oracle(&raw, "WARN"));
    assert!(
        after.counter("cluster.read_fallback") > before.counter("cluster.read_fallback"),
        "fallback reads must be counted"
    );
    let fallback_shards: Vec<_> = result.shards.iter().filter(|s| s.fallbacks > 0).collect();
    assert!(!fallback_shards.is_empty(), "some shard fell back");
    for s in &fallback_shards {
        assert_ne!(s.served_by, Some(primary), "corrupt replica cannot serve");
        assert!(s.ok);
    }
}

#[test]
fn all_replicas_corrupt_fails_only_that_shard() {
    telemetry::set_enabled(true);
    let raw = sample();
    let cfg = ClusterConfig {
        replication: 2,
        shards: 4,
        faults: FaultPlan::seeded(6),
        ..ClusterConfig::for_nodes(3, LogGrepConfig::default())
    };
    let mut c = Cluster::with_config(cfg).unwrap();
    let blocks = c.ingest(&raw, 4 * 1024).unwrap();
    assert!(blocks >= 2);

    // Corrupt every replica of block 0's shard: that shard is beyond
    // saving, but every other shard must still answer exactly.
    let map = *c.shard_map();
    let bad_shard = map.shard_of_block(0);
    for block_no in 0..blocks {
        if map.shard_of_block(block_no) != bad_shard {
            continue;
        }
        for (i, node) in map.replicas(map.shard_of_block(block_no)).into_iter().enumerate() {
            assert!(c.corrupt_replica(node, block_no, 0xDEAD + i as u64));
        }
    }

    let result = c.query("WARN").unwrap();
    assert!(!result.complete, "a fully corrupt shard cannot answer");
    let failed: Vec<_> = result.failed_shards().collect();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].shard, bad_shard);
    assert!(failed[0].error.is_some());

    // Survivors are exact: the oracle minus the bad shard's blocks.
    let q = Query::parse("WARN").unwrap();
    let mut expected: Vec<Vec<u8>> = Vec::new();
    for (i, block) in loggrep::split_blocks(&raw, 4 * 1024).iter().enumerate() {
        if map.shard_of_block(i) == bad_shard {
            continue;
        }
        expected.extend(
            loggrep::engine::split_lines(block)
                .into_iter()
                .filter(|l| q.expr.matches_line(l, DEFAULT_DELIMS))
                .map(|l| l.to_vec()),
        );
    }
    assert_eq!(result.lines, expected);
}
