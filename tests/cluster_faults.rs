//! Acceptance: the fault-tolerant cluster vs the single-node engine.
//!
//! The oracle is the real end-to-end single-node LogGrep system run over
//! the merged log. Under a seeded fault schedule that kills one of three
//! replicas per shard and delays another, the cluster must return the
//! *exact* oracle result with `complete == true`; with a whole shard
//! partitioned away it must return `complete == false` plus the exact
//! results from every surviving shard. Both are asserted deterministically
//! across three seeds.

use baselines::{LogSystem, LogGrepSystem};
use cluster::{Cluster, ClusterConfig, FaultPlan};
use loggrep::query::lang::Query;
use loggrep::LogGrepConfig;
use logparse::DEFAULT_DELIMS;

const SEEDS: [u64; 3] = [1, 2, 3];
const BLOCK_BYTES: usize = 8 * 1024;

fn merged_log() -> Vec<u8> {
    // A realistic workload log, large enough for a few dozen blocks.
    workloads::all_logs()[0].generate(17, 192 * 1024)
}

fn single_node_oracle(raw: &[u8], query: &str) -> Vec<Vec<u8>> {
    let sys = LogGrepSystem::full();
    let archive = sys.open(&sys.compress(raw).unwrap()).unwrap();
    archive.query(query).unwrap()
}

#[test]
fn replicated_cluster_equals_single_node_under_faults() {
    let raw = merged_log();
    let queries = ["ERROR", "INFO", "0"];
    for seed in SEEDS {
        let cfg = ClusterConfig {
            replication: 3,
            shards: 8,
            faults: FaultPlan::seeded(seed),
            ..ClusterConfig::for_nodes(3, LogGrepConfig::default())
        };
        let mut c = Cluster::with_config(cfg).unwrap();
        c.ingest(&raw, BLOCK_BYTES).unwrap();

        // Kill one replica of every shard, slow another down 20x.
        let dead = (seed as usize) % 3;
        c.crash_node(dead);
        c.set_slow_node((dead + 1) % 3, true);

        for q in queries {
            let result = c.query(q).unwrap();
            assert!(result.complete, "seed {seed} query `{q}` must be complete");
            let want = single_node_oracle(&raw, q);
            assert!(!want.is_empty(), "query `{q}` matched nothing — test bug");
            assert_eq!(
                result.lines, want,
                "seed {seed} query `{q}`: cluster under faults vs single node"
            );
        }
    }
}

#[test]
fn partitioned_shard_reports_partial_but_exact_survivors() {
    let raw = merged_log();
    for seed in SEEDS {
        let cfg = ClusterConfig {
            replication: 1,
            shards: 6,
            faults: FaultPlan::seeded(seed),
            ..ClusterConfig::for_nodes(3, LogGrepConfig::default())
        };
        let mut c = Cluster::with_config(cfg).unwrap();
        c.ingest(&raw, BLOCK_BYTES).unwrap();
        let victim = (seed as usize) % 3;
        c.partition_node(victim);

        // Expected: per-block oracle over the blocks whose only replica
        // is not the partitioned node, in block order.
        let map = *c.shard_map();
        let q = Query::parse("ERROR").unwrap();
        let mut expected: Vec<Vec<u8>> = Vec::new();
        for (i, block) in loggrep::split_blocks(&raw, BLOCK_BYTES).iter().enumerate() {
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
        let full = single_node_oracle(&raw, "ERROR");
        assert!(
            expected.len() < full.len(),
            "seed {seed}: the victim node must own blocks for this test to bite"
        );

        let result = c.query("ERROR").unwrap();
        assert!(
            !result.complete,
            "seed {seed}: losing a whole shard must be reported"
        );
        assert_eq!(
            result.lines, expected,
            "seed {seed}: surviving shards must be exact"
        );
        assert!(result.failed_shards().count() >= 1, "seed {seed}");
    }
}
