//! Hash-based shard placement with an explicit shard map.
//!
//! Blocks hash to one of a fixed number of **shards**; each shard maps to
//! `replication` consecutive nodes on the node ring, starting at a hashed
//! offset so shard ownership spreads over the cluster instead of piling
//! onto node 0. Both mappings are pure functions of the ids, so every
//! participant (coordinator, tests, the difftest oracle) derives the same
//! placement with no coordination.

use crate::transport::{mix, NodeId};

/// The cluster's explicit shard map: block → shard → replica set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    nodes: usize,
    shards: usize,
    replication: usize,
}

impl ShardMap {
    /// Builds a map of `shards` shards over `nodes` nodes with
    /// `replication` copies of every shard.
    pub fn new(nodes: usize, shards: usize, replication: usize) -> Result<Self, String> {
        if nodes == 0 {
            return Err("a cluster needs at least one node".to_string());
        }
        if shards == 0 {
            return Err("a cluster needs at least one shard".to_string());
        }
        if replication == 0 || replication > nodes {
            return Err(format!(
                "replication factor {replication} must be in 1..={nodes} (the node count)"
            ));
        }
        Ok(Self {
            nodes,
            shards,
            replication,
        })
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The shard a block belongs to (stable hash of the block number).
    pub fn shard_of_block(&self, block_no: usize) -> usize {
        (mix(block_no as u64) % self.shards as u64) as usize
    }

    /// The replica set of a shard: `replication` distinct nodes, walked
    /// consecutively from a hashed starting point on the node ring.
    pub fn replicas(&self, shard: usize) -> Vec<NodeId> {
        let start = (mix(shard as u64 ^ 0x5348_4152_444d_4150) % self.nodes as u64) as usize;
        (0..self.replication)
            .map(|k| (start + k) % self.nodes)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_degenerate_maps() {
        assert!(ShardMap::new(0, 4, 1).is_err());
        assert!(ShardMap::new(4, 0, 1).is_err());
        assert!(ShardMap::new(4, 4, 0).is_err());
        assert!(ShardMap::new(4, 4, 5).is_err());
        assert!(ShardMap::new(4, 16, 4).is_ok());
    }

    #[test]
    fn replicas_are_distinct_and_stable() {
        let map = ShardMap::new(5, 20, 3).unwrap();
        for shard in 0..map.shards() {
            let r = map.replicas(shard);
            assert_eq!(r.len(), 3);
            let mut sorted = r.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct: {r:?}");
            assert!(r.iter().all(|&n| n < 5));
            assert_eq!(r, map.replicas(shard), "placement must be stable");
        }
    }

    #[test]
    fn blocks_spread_over_shards_and_nodes() {
        let map = ShardMap::new(4, 16, 2).unwrap();
        let mut shard_counts = vec![0usize; map.shards()];
        let mut node_counts = vec![0usize; map.nodes()];
        for block in 0..400 {
            let s = map.shard_of_block(block);
            shard_counts[s] += 1;
            for n in map.replicas(s) {
                node_counts[n] += 1;
            }
        }
        assert!(
            shard_counts.iter().filter(|&&c| c > 0).count() >= 12,
            "hashing 400 blocks should reach most of 16 shards: {shard_counts:?}"
        );
        assert!(
            node_counts.iter().all(|&c| c > 0),
            "every node should own replicas: {node_counts:?}"
        );
    }

    #[test]
    fn full_replication_covers_every_node() {
        let map = ShardMap::new(3, 6, 3).unwrap();
        for shard in 0..6 {
            let mut r = map.replicas(shard);
            r.sort_unstable();
            assert_eq!(r, vec![0, 1, 2]);
        }
    }
}
