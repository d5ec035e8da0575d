//! Fault-schedule integration tests: the cluster under seeded crashes,
//! slowness, partitions, and message drops must either return exactly the
//! single-node oracle result (when replicas can cover the failure) or a
//! well-labeled partial result (when a whole shard is gone) — and every
//! run must replay identically from its seed.

use cluster::{Cluster, ClusterConfig, ClusterError, FaultPlan, QueryOpts};
use loggrep::query::lang::Query;
use loggrep::LogGrepConfig;
use logparse::DEFAULT_DELIMS;

const SEEDS: [u64; 3] = [1, 2, 3];

fn sample(lines: usize) -> Vec<u8> {
    let mut raw = Vec::new();
    for i in 0..lines {
        raw.extend_from_slice(
            format!(
                "{} req {} from host{} took {}ms\n",
                if i % 11 == 0 { "ERROR" } else { "INFO" },
                i,
                i % 5,
                (i * 7) % 900
            )
            .as_bytes(),
        );
    }
    raw
}

fn oracle(raw: &[u8], command: &str) -> Vec<Vec<u8>> {
    let q = Query::parse(command).unwrap();
    loggrep::engine::split_lines(raw)
        .into_iter()
        .filter(|l| q.expr.matches_line(l, DEFAULT_DELIMS))
        .map(|l| l.to_vec())
        .collect()
}

/// Acceptance scenario 1: with one of three replicas killed per shard and
/// another delayed, scatter-gather still returns the exact oracle result
/// with `complete == true` — for every seed.
#[test]
fn killed_replica_and_slow_node_still_complete() {
    for seed in SEEDS {
        let raw = sample(1500);
        let cfg = ClusterConfig {
            replication: 3,
            shards: 8,
            faults: FaultPlan::seeded(seed),
            ..ClusterConfig::for_nodes(3, LogGrepConfig::default())
        };
        let mut c = Cluster::with_config(cfg).unwrap();
        c.ingest(&raw, 8 * 1024).unwrap();

        // Seed-chosen victims: one replica of every shard dies, another
        // is 20x slower than the rest.
        let dead = (seed as usize) % 3;
        let slow = (dead + 1) % 3;
        c.crash_node(dead);
        c.set_slow_node(slow, true);

        for q in ["ERROR", "host3", "ERROR and host2", "took 0ms"] {
            let result = c.query(q).unwrap();
            assert!(
                result.complete,
                "seed {seed} query `{q}`: replicas cover one dead node"
            );
            assert_eq!(result.lines, oracle(&raw, q), "seed {seed} query `{q}`");
            assert!(
                result.shards.iter().all(|s| s.served_by != Some(dead)),
                "seed {seed}: dead node cannot serve"
            );
        }
    }
}

/// Acceptance scenario 2: with a whole shard partitioned away
/// (replication 1), the query returns `complete == false` plus the exact
/// results from every surviving shard — for every seed.
#[test]
fn partitioned_shard_yields_labeled_partial_results() {
    for seed in SEEDS {
        let raw = sample(1500);
        let block_bytes = 4 * 1024;
        let cfg = ClusterConfig {
            replication: 1,
            shards: 6,
            faults: FaultPlan::seeded(seed),
            ..ClusterConfig::for_nodes(3, LogGrepConfig::default())
        };
        let mut c = Cluster::with_config(cfg).unwrap();
        c.ingest(&raw, block_bytes).unwrap();
        let victim = (seed as usize) % 3;
        c.partition_node(victim);

        // Expected: the oracle restricted to blocks whose only replica
        // is NOT on the partitioned node, in block order.
        let map = *c.shard_map();
        let q = Query::parse("ERROR").unwrap();
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for (i, block) in loggrep::split_blocks(&raw, block_bytes).iter().enumerate() {
            if map.replicas(map.shard_of_block(i))[0] == victim {
                continue;
            }
            expected.extend(
                loggrep::engine::split_lines(block)
                    .into_iter()
                    .filter(|l| q.expr.matches_line(l, DEFAULT_DELIMS))
                    .map(|l| l.to_vec()),
            );
        }
        assert_ne!(
            expected.len(),
            oracle(&raw, "ERROR").len(),
            "seed {seed}: the victim must actually own blocks"
        );

        let result = c.query("ERROR").unwrap();
        assert!(!result.complete, "seed {seed}: a whole shard is gone");
        assert_eq!(result.lines, expected, "seed {seed}: survivors are exact");
        for s in result.failed_shards() {
            assert_eq!(s.replicas, vec![victim], "seed {seed}");
            assert!(s.served_by.is_none());
            assert!(s.error.is_some());
            assert!(s.attempts >= 2, "seed {seed}: failures were retried");
        }

        // The error budget turns excess failure back into a hard error.
        let failed = result.failed_shards().count();
        assert!(failed >= 1);
        let err = c
            .query_with("ERROR", &QueryOpts { max_failed_shards: Some(failed - 1) })
            .unwrap_err();
        assert!(matches!(err, ClusterError::BudgetExceeded { .. }), "{err}");
        let ok = c
            .query_with("ERROR", &QueryOpts { max_failed_shards: Some(failed) })
            .unwrap();
        assert_eq!(ok.lines, expected);

        // Healing the partition restores completeness.
        c.heal_node(victim);
        let healed = c.query("ERROR").unwrap();
        assert!(healed.complete, "seed {seed}");
        assert_eq!(healed.lines, oracle(&raw, "ERROR"), "seed {seed}");
    }
}

/// A lossy network (30% drops) is survived by retries and hedging: the
/// result is still exact and complete for every seed.
#[test]
fn lossy_network_is_survived_by_retries() {
    for seed in SEEDS {
        let raw = sample(800);
        let cfg = ClusterConfig {
            replication: 2,
            shards: 6,
            faults: FaultPlan {
                drop_rate: 0.3,
                ..FaultPlan::seeded(seed)
            },
            ..ClusterConfig::for_nodes(3, LogGrepConfig::default())
        };
        let mut c = Cluster::with_config(cfg).unwrap();
        c.ingest(&raw, 8 * 1024).unwrap();
        let result = c.query("ERROR").unwrap();
        assert!(result.complete, "seed {seed}");
        assert_eq!(result.lines, oracle(&raw, "ERROR"), "seed {seed}");
    }
}

/// The same seed replays byte-identically: lines, locations, per-shard
/// attempt counts and serving replicas all match across two fresh runs.
#[test]
fn fault_runs_replay_identically_from_their_seed() {
    let run = |seed: u64| {
        let raw = sample(1000);
        let cfg = ClusterConfig {
            replication: 2,
            shards: 6,
            faults: FaultPlan {
                drop_rate: 0.25,
                slow_nodes: vec![1],
                ..FaultPlan::seeded(seed)
            },
            ..ClusterConfig::for_nodes(3, LogGrepConfig::default())
        };
        let mut c = Cluster::with_config(cfg).unwrap();
        c.ingest(&raw, 8 * 1024).unwrap();
        let r = c.query("ERROR or host4").unwrap();
        let shape: Vec<(usize, bool, Option<usize>, u32, u64)> = r
            .shards
            .iter()
            .map(|s| (s.shard, s.ok, s.served_by, s.attempts, s.elapsed_us))
            .collect();
        (r.lines, r.locations, r.complete, shape)
    };
    for seed in SEEDS {
        assert_eq!(run(seed), run(seed), "seed {seed} must replay identically");
    }
}

/// Crash/restart cycle: committed blocks survive a restart, and the
/// restarted node serves queries again.
#[test]
fn restart_preserves_committed_blocks() {
    let raw = sample(600);
    let cfg = ClusterConfig {
        replication: 2,
        shards: 4,
        ..ClusterConfig::for_nodes(2, LogGrepConfig::default())
    };
    let mut c = Cluster::with_config(cfg).unwrap();
    c.ingest(&raw, 4 * 1024).unwrap();
    let before = c.query("ERROR").unwrap();
    assert!(before.complete);

    c.crash_node(0);
    let during = c.query("ERROR").unwrap();
    assert!(during.complete, "replication 2 covers one crash");
    assert_eq!(during.lines, before.lines);
    assert!(during.shards.iter().all(|s| s.served_by == Some(1)));

    c.restart_node(0);
    let after = c.query("ERROR").unwrap();
    assert!(after.complete);
    assert_eq!(after.lines, before.lines);
    assert_eq!(c.nodes()[0].block_count(), c.nodes()[1].block_count());
}
